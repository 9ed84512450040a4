//! `cwsmooth-lint`: the workspace's invariant checker.
//!
//! The crates in this tree make prose promises — "returns `Err` instead
//! of panicking", "every `unsafe` argues its invariants", "non-relaxed
//! orderings name their happens-before edge" — that `rustc` and clippy
//! cannot check, because they are *this workspace's* contracts, not the
//! language's. This crate turns them into machine checks:
//!
//! * [`lexer`] — a hand-rolled lossless Rust lexer, exact about the
//!   places naive scanners go wrong: nested block comments, raw strings
//!   with `#` fences, `'a` lifetimes vs `'a'` char literals, raw
//!   identifiers.
//! * [`scope`] — `#[cfg(test)]` / `mod tests` line masking, so rules
//!   can exempt test code by structure rather than by heuristic.
//! * [`diag`] — diagnostics, the justified-allow pragma
//!   (`// lint:allow(<rule>): <why>` — the why is mandatory), and
//!   dependency-free JSON output.
//! * [`rules`] — the eight workspace rules (see
//!   [`rules::RULE_NAMES`]).
//!
//! The crate has zero dependencies and is wired into CI as
//! `cargo run -p cwsmooth-lint -- --workspace`.

#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod scope;
