//! Shared plumbing of the three snapshot binaries (`bench_snapshot`,
//! `bench_store_snapshot`, `bench_pipeline_snapshot`): one timer, one
//! scratch-directory helper, one `name: value` record line, one
//! one-core re-run and one writer for the `BENCH_*.json` layout they
//! share.
//!
//! A file holds `schema`, `nproc`, `cpu_model`, `quick`, `reps` and
//! `units`, then the binary's own fields, then `current` (every entry
//! measured in process on all cores) and `current_one_core` (the same
//! entries, by name, from a child run of the binary pinned to CPU 0 by
//! `taskset -c 0`). The one-core object is left out, with a printed
//! note, where `taskset` is missing or the child fails.
//!
//! Each binary takes `--reps R` (default 5) and `--out PATH`;
//! `BENCH_QUICK=1` forces one rep. `--child` is the one-core re-run:
//! it measures and prints its `name: value` lines without writing a
//! file.

use crate::Args;
use cwsmooth_obs::encode::json_escape;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Version of the file layout above.
const SCHEMA: u64 = 3;

/// Median wall-clock milliseconds over `reps` runs of `f` (at least
/// one run).
pub fn time_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    median(
        (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1000.0
            })
            .collect(),
    )
}

/// The middle sample (the upper one of an even count).
pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// A scratch directory path under the system temp dir, distinct per
/// `tag` and per process, so a one-core child never touches its
/// parent's stores.
pub fn tmpdir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cwsmooth-snap-{tag}-{}", std::process::id()))
}

/// The entries of one measurement pass, in record order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Entries(pub Vec<(String, f64)>);

impl Entries {
    /// Records one entry and prints it as the `name: value` line a
    /// parent run reads back from its one-core child.
    pub fn record(&mut self, name: &str, value: f64) {
        println!("{name}: {value:.3}");
        self.0.push((name.to_string(), value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|e| e.1)
    }

    /// Reads back `name: value` lines. Lines without a numeric value,
    /// such as a skipped sweep tier or `wrote …`, are dropped.
    pub fn parse(text: &str) -> Self {
        Self(
            text.lines()
                .filter_map(|l| {
                    let (name, v) = l.split_once(": ")?;
                    Some((name.to_string(), v.trim().parse().ok()?))
                })
                .collect(),
        )
    }
}

/// A value of a snapshot file.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// A missing measurement.
    Null,
    /// `true` or `false`.
    Bool(bool),
    /// A count.
    Int(u64),
    /// A measurement, written with three decimals (`null` when not
    /// finite, since JSON has no literal for it).
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An object, written in field order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Renders the value as indented JSON text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").expect("write to String"),
            Json::Int(i) => write!(out, "{i}").expect("write to String"),
            Json::Num(v) if v.is_finite() => write!(out, "{v:.3}").expect("write to String"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write!(out, "\"{}\"", json_escape(s)).expect("write to String"),
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    out.push_str(if i == 0 { "\n" } else { ",\n" });
                    out.push_str(&"  ".repeat(depth + 1));
                    write!(out, "\"{}\": ", json_escape(key)).expect("write to String");
                    value.render_into(out, depth + 1);
                }
                if !fields.is_empty() {
                    out.push('\n');
                    out.push_str(&"  ".repeat(depth));
                }
                out.push('}');
            }
        }
    }
}

/// One snapshot run: its settings from the command line and
/// `BENCH_QUICK`.
#[derive(Debug, Clone)]
pub struct Run {
    /// `BENCH_QUICK` is set: one rep and, where a binary says so, a
    /// smaller workload.
    pub quick: bool,
    /// Timed runs per entry; each entry keeps their median.
    pub reps: usize,
    child: bool,
    out: String,
}

impl Run {
    /// Reads `--reps`, `--out` (default `default_out`), `--child` and
    /// `BENCH_QUICK`.
    pub fn capture(default_out: &str) -> Self {
        let args = Args::capture();
        let quick = std::env::var("BENCH_QUICK").is_ok();
        Self {
            quick,
            reps: if quick { 1 } else { args.get("reps", 5) },
            child: args.has("child"),
            out: args.get("out", default_out.to_string()),
        }
    }

    /// Runs `measure` on all cores, then the same binary again on one
    /// core. Returns `None` in that one-core child, whose only output is
    /// its printed lines.
    pub fn measure(
        &self,
        measure: impl FnOnce(&Run) -> Entries,
    ) -> Option<(Entries, Option<Entries>)> {
        let current = measure(self);
        if self.child {
            return None;
        }
        let one_core = self.one_core();
        if one_core.is_none() {
            println!("snapshot: `taskset -c 0` run unavailable; one-core column left out");
        }
        Some((current, one_core))
    }

    /// A child run of this binary under `taskset -c 0`, read back from
    /// its `name: value` lines. `None` where `taskset` is missing or the
    /// child fails.
    fn one_core(&self) -> Option<Entries> {
        let exe = std::env::current_exe().ok()?;
        let out = Command::new("taskset")
            .args(["-c", "0"])
            .arg(exe)
            .args(["--child", "--reps", &self.reps.to_string()])
            .stderr(Stdio::inherit())
            .output()
            .ok()
            .filter(|o| o.status.success())?;
        Some(Entries::parse(&String::from_utf8_lossy(&out.stdout)))
    }

    /// Writes the snapshot file: the shared header, `fields`, and both
    /// columns of entries.
    pub fn write(
        &self,
        units: &str,
        fields: Vec<(&str, Json)>,
        current: &Entries,
        one_core: Option<&Entries>,
    ) {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let doc = self.document(nproc, &cpu_model(), units, fields, current, one_core);
        std::fs::write(&self.out, doc.render()).expect("write snapshot");
        println!("wrote {}", self.out);
    }

    fn document(
        &self,
        nproc: usize,
        cpu_model: &str,
        units: &str,
        fields: Vec<(&str, Json)>,
        current: &Entries,
        one_core: Option<&Entries>,
    ) -> Json {
        let mut doc = vec![
            ("schema".to_string(), Json::Int(SCHEMA)),
            ("nproc".to_string(), Json::Int(nproc as u64)),
            ("cpu_model".to_string(), Json::Str(cpu_model.to_string())),
            ("quick".to_string(), Json::Bool(self.quick)),
            ("reps".to_string(), Json::Int(self.reps as u64)),
            ("units".to_string(), Json::Str(units.to_string())),
        ];
        doc.extend(fields.into_iter().map(|(k, v)| (k.to_string(), v)));
        let column = current
            .0
            .iter()
            .map(|(name, v)| (name.clone(), Json::Num(*v)))
            .collect();
        doc.push(("current".to_string(), Json::Obj(column)));
        if let Some(one_core) = one_core {
            // Keyed by `current`'s names, so both columns list the same
            // entries; one the child did not print reads `null`.
            let column = current
                .0
                .iter()
                .map(|(name, _)| {
                    (
                        name.clone(),
                        one_core.get(name).map_or(Json::Null, Json::Num),
                    )
                })
                .collect();
            doc.push(("current_one_core".to_string(), Json::Obj(column)));
        }
        Json::Obj(doc)
    }
}

/// The first `model name` of `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find_map(|l| l.strip_prefix("model name")?.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> Run {
        Run {
            quick: false,
            reps: 3,
            child: false,
            out: String::new(),
        }
    }

    fn entries(pairs: &[(&str, f64)]) -> Entries {
        Entries(pairs.iter().map(|(n, v)| (n.to_string(), *v)).collect())
    }

    fn keys(doc: &Json, field: &str) -> Vec<String> {
        let Json::Obj(fields) = doc else {
            panic!("document is not an object")
        };
        match fields.iter().find(|(k, _)| k == field) {
            Some((_, Json::Obj(inner))) => inner.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("{field} is not an object: {other:?}"),
        }
    }

    /// Decodes one JSON string literal, or `None` when it is not one.
    fn unquote(literal: &str) -> Option<String> {
        let body = literal.strip_prefix('"')?.strip_suffix('"')?;
        let mut out = String::new();
        let mut chars = body.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return None,
                '\\' => out.push(match chars.next()? {
                    '"' => '"',
                    '\\' => '\\',
                    'n' => '\n',
                    't' => '\t',
                    'r' => '\r',
                    _ => return None,
                }),
                c => out.push(c),
            }
        }
        Some(out)
    }

    #[test]
    fn parse_keeps_entries_and_drops_other_lines() {
        let text = "forest_fit_ms: 5.422\n\
                    store_sweep_100000_ingest_kevents_per_s: 1353.209\n\
                    store_sweep_1000000: skipped (STORE_SWEEP_MAX=100000)\n\
                    wrote BENCH_store.json\n\
                    store_index_size: 13921.000\n";
        assert_eq!(
            Entries::parse(text),
            entries(&[
                ("forest_fit_ms", 5.422),
                ("store_sweep_100000_ingest_kevents_per_s", 1353.209),
                ("store_index_size", 13921.0),
            ])
        );
    }

    #[test]
    fn document_has_the_shared_header_and_matching_columns() {
        let current = entries(&[("a_ms", 1.0), ("b_kevents_per_s", 2.5), ("c_pct", -3.0)]);
        // The child's lines come back in another order, one short and
        // with one extra name.
        let one_core = entries(&[("c_pct", -1.0), ("a_ms", 2.0), ("z", 9.0)]);
        let doc = run().document(
            2,
            "Test CPU",
            "ms",
            vec![("nodes", Json::Int(64))],
            &current,
            Some(&one_core),
        );
        let names: Vec<String> = current.0.iter().map(|(n, _)| n.clone()).collect();
        assert_eq!(keys(&doc, "current"), names);
        assert_eq!(keys(&doc, "current_one_core"), names);

        let text = doc.render();
        assert!(text.contains("\"nproc\": 2,"), "{text}");
        assert!(text.contains("\"cpu_model\": \"Test CPU\","), "{text}");
        assert!(text.contains("\"nodes\": 64,"), "{text}");
        assert!(text.contains("\"b_kevents_per_s\": null"), "{text}");
        assert!(!text.contains("\"pr\""), "{text}");
        let header: Vec<&str> = text
            .lines()
            .skip(1)
            .take(6)
            .map(|l| l.trim().split('"').nth(1).unwrap())
            .collect();
        assert_eq!(
            header,
            ["schema", "nproc", "cpu_model", "quick", "reps", "units"]
        );
    }

    #[test]
    fn cpu_model_with_quotes_and_backslashes_stays_one_json_string() {
        let model = r#"Vendor "Fast" CPU \ rev 2"#;
        let doc = run().document(8, model, "ms", Vec::new(), &Entries::default(), None);
        let text = doc.render();
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("\"cpu_model\""))
            .expect("cpu_model line");
        let literal = line
            .trim()
            .strip_prefix("\"cpu_model\": ")
            .and_then(|v| v.strip_suffix(','))
            .expect("cpu_model field");
        assert_eq!(unquote(literal).as_deref(), Some(model), "{line}");
    }
}
