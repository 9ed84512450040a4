//! # cwsmooth-obs — the observability plane
//!
//! A std-only metrics subsystem sized for the cwsmooth pipeline: every
//! stage (fleet engine, queue transport, socket client/server, store,
//! detectors) records into shared lock-free handles and exposes its
//! colder stats structs through one [`Observe`] trait, so a single
//! scrape shows the whole pipeline's health.
//!
//! Three layers:
//!
//! - [`metrics`] — the hot path. [`Counter`] (striped, cache-padded
//!   cells), [`Gauge`] (last-write-wins), [`Histogram`] (65 fixed
//!   log2 buckets covering all of `u64`) and the scoped [`Span`]
//!   timer. Every record call is zero-alloc and a couple of `Relaxed`
//!   atomic ops — pinned by a counting-allocator test, exactly like
//!   the transport's `transport_alloc.rs`.
//! - [`snapshot`] — the cold path. [`Observe`] turns any component
//!   into samples; [`MetricsHub`] merges the live [`Registry`] with
//!   snapshots published by components the exporter thread cannot
//!   reach directly.
//! - [`encode`] — pure encoders: Prometheus text exposition format
//!   (escaped labels, cumulative `_bucket`/`_sum`/`_count`) and JSON.
//!
//! The HTTP `GET /metrics` endpoint itself lives in `cwsmooth-net`
//! (it reuses that crate's `Accept`/`Link` listener traits); this
//! crate stays at the bottom of the dependency graph so every other
//! crate can depend on it without cycles.
//!
//! ## Consistency model
//!
//! Handles record `Relaxed`: each handle series is an independent
//! scalar with no ordering obligation to any other, so a scrape
//! *samples* them — counters that one thread bumped "together" may be
//! observed one-updated-one-not. What is guaranteed: no sample is ever
//! torn within itself, a handle's counter is monotone, and a quiescent
//! system (all recorders joined) snapshots exactly. A counter rendered
//! by a source or a published snapshot is monotone only while that
//! source or snapshot lives: one replaced under the same key (a queue
//! branch rebuilt under its label) starts again from the new
//! component's counts. Where the docs promise an
//! identity across series, its terms come from one snapshot: a queue
//! branch registers a scrape-time source ([`Registry::source`]) that
//! reads them under the queue's lock, and a [`MetricsHub::publish`]ed
//! snapshot (the socket client's `NetStats`) is replaced whole.
//!
//! ```
//! use cwsmooth_obs::{MetricsHub, Registry};
//!
//! let registry = Registry::new();
//! let events = registry.counter("cws_events_total", &[("stage", "demo")]);
//! let ingest = registry.histogram("cws_ingest_ns", &[]);
//! {
//!     let _span = ingest.start_span(); // records elapsed ns on drop
//!     events.inc();
//! }
//! let hub = MetricsHub::new(registry);
//! let text = hub.render_prometheus();
//! assert!(text.contains("cws_events_total{stage=\"demo\"} 1"));
//! assert!(text.contains("cws_ingest_ns_count 1"));
//! ```

#![warn(missing_docs)]

pub mod encode;
pub mod metrics;
pub mod snapshot;

pub use encode::{encode_json, encode_prometheus, escape_label, unescape_label};
pub use metrics::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, Registry, Span, HIST_BUCKETS,
};
pub use snapshot::{HistogramSnapshot, MetricsHub, Observe, Sample, Snapshot, Value};
