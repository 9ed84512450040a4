//! The `cwsmooth-lint` CLI.
//!
//! ```text
//! cwsmooth-lint --workspace [--format text|json] [--root DIR]
//! cwsmooth-lint [FILE.rs ...] [--format text|json]
//! cwsmooth-lint --list-rules
//! ```
//!
//! Exit code 0 means clean; 1 means diagnostics; 2 means usage or I/O
//! error.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use cwsmooth_lint::diag::{to_json, Diagnostic};
use cwsmooth_lint::rules::{check_file, RULE_NAMES};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut format_json = false;
    let mut workspace = false;
    let mut root: Option<PathBuf> = None;
    let mut files: Vec<PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--workspace" => workspace = true,
            "--format" => match it.next().map(String::as_str) {
                Some("json") => format_json = true,
                Some("text") => format_json = false,
                other => return usage(&format!("--format expects text|json, got {other:?}")),
            },
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage("--root expects a directory"),
            },
            "--list-rules" => {
                for r in RULE_NAMES {
                    println!("{r}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => return usage(""),
            other if other.starts_with('-') => {
                return usage(&format!("unknown flag {other}"));
            }
            file => files.push(PathBuf::from(file)),
        }
    }

    let root = root.unwrap_or_else(workspace_root);
    if workspace {
        match collect_workspace_files(&root) {
            Ok(found) => files.extend(found),
            Err(e) => {
                eprintln!("cwsmooth-lint: walking {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }
    if files.is_empty() {
        return usage("no input files (pass --workspace or explicit .rs files)");
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    let mut checked = 0usize;
    for file in &files {
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .to_string_lossy()
            .replace('\\', "/");
        match std::fs::read_to_string(file) {
            Ok(src) => {
                diags.extend(check_file(&rel, &src));
                checked += 1;
            }
            Err(e) => {
                eprintln!("cwsmooth-lint: reading {}: {e}", file.display());
                return ExitCode::from(2);
            }
        }
    }
    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    if format_json {
        println!("{}", to_json(&diags));
    } else {
        for d in &diags {
            println!("{}", d.render());
        }
        eprintln!(
            "cwsmooth-lint: {} file(s) checked, {} diagnostic(s)",
            checked,
            diags.len()
        );
    }
    if diags.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("cwsmooth-lint: {err}");
    }
    eprintln!(
        "usage: cwsmooth-lint --workspace [--format text|json] [--root DIR]\n\
         \x20      cwsmooth-lint [FILE.rs ...] [--format text|json]\n\
         \x20      cwsmooth-lint --list-rules"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}

/// The workspace root: two levels above this crate's manifest
/// (`crates/lint` → repo root), falling back to the current directory
/// when the binary is run from an installed location.
fn workspace_root() -> PathBuf {
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if compiled.join("Cargo.toml").exists() {
        // Canonicalize so stripped prefixes produce clean relative paths.
        compiled.canonicalize().unwrap_or(compiled)
    } else {
        PathBuf::from(".")
    }
}

/// All `.rs` files the lint governs: everything under the root except
/// `target/`, VCS metadata, and `shims/` (the shims mimic *external*
/// crates' APIs — rand, rayon, proptest — so workspace conventions like
/// pragma-justified panics do not apply to them).
fn collect_workspace_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if matches!(name.as_ref(), "target" | ".git" | "shims" | "node_modules") {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}
