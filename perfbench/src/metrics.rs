//! The benchmark's contract: workloads, metric names, units and bounds,
//! the result line the benchmark prints, and the `BENCHMARK.json` it is
//! described by (`--manifest` prints it from these tables, so the file
//! and the binary cannot drift apart).

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, sizes, waits).
    Lower,
    /// Larger values are better (rates, hit ratios).
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One named metric of `BENCHMARK.json`.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Metric name, as printed in the result line.
    pub name: &'static str,
    /// Unit, as printed in the result line.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is rejected.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

/// The workloads and the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "fleet_local",
        "Engine, queues, detector and drift do the work and net none; the store writes \
         ~200-event blocks. Engine and queue changes show here first.",
    ),
    (
        "fleet_remote",
        "One loopback TCP link and a server committing every 32 events do the work and the \
         store writes ~1-event blocks. Wire and commit changes show here.",
    ),
    (
        "knn_search",
        "Only the store read path runs: ~220k signatures (7x L2), compaction, IVF-PQ training, \
         reopen and query_indexed. Sidecar and query-kernel changes show here.",
    ),
];

use Better::{Higher, Lower};

/// End-to-end metrics: every workload reports every one of them.
/// `throughput_per_s` is backfill events/s on the ingest workloads and
/// queries/s on knn_search (from each query's fastest latency over the
/// run's passes, see `knn.rs`). Result ages and query times are per layer
/// (`latency.*`): on a shared two-CPU host their medians move by more
/// than any bound between runs (see `perfbench/README.md`).
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("throughput_per_s", "1/s", Higher, 0.25),
    e2e("bytes_per_event", "B", Lower, 0.05),
    e2e("peak_rss_mib", "MiB", Lower, 0.25),
];

/// Per-layer metrics of the traced run. A layer a workload does not
/// run reports 0.
pub const PER_LAYER: &[MetricDef] = &[
    // sim: the load generator (not under test).
    layer("gen.fill_us_per_frame", "us", Lower),
    layer("gen.wait_us_per_frame", "us", Higher),
    layer("gen.lag_ms_p99", "ms", Lower),
    layer("gen.late_frames", "count", Lower),
    // core::fleet (+ online, cs).
    layer("fleet.self_us_per_frame", "us", Lower),
    layer("fleet.events", "count", Higher),
    layer("fleet.gaps", "count", Lower),
    // The ingest thread: its self times per layer add up to its wall
    // time (generator, due-time wait, engine, queue pushes, tree
    // open and drain).
    layer("queue.push_us_per_frame", "us", Lower),
    layer("queue.drain_us_per_frame", "us", Lower),
    layer("ingest.wall_s", "s", Lower),
    layer("ingest.coverage_pct", "%", Higher),
    // Result latency: verdict age (fleet_local), durable age
    // (fleet_remote) or query time (knn_search), and the sample counts
    // behind it and the backfill rate.
    layer("latency.p50_ms", "ms", Lower),
    layer("latency.p90_ms", "ms", Lower),
    layer("latency.p99_ms", "ms", Lower),
    layer("latency.samples", "count", Higher),
    layer("backfill.bursts", "count", Higher),
    // core::transport, one set per branch.
    layer("queue.store.push_ns", "ns", Lower),
    layer("queue.store.wait_us_p50", "us", Lower),
    layer("queue.store.wait_us_p99", "us", Lower),
    layer("queue.store.high_watermark", "count", Lower),
    layer("queue.store.dropped", "count", Lower),
    layer("queue.detector.push_ns", "ns", Lower),
    layer("queue.detector.wait_us_p50", "us", Lower),
    layer("queue.detector.wait_us_p99", "us", Lower),
    layer("queue.detector.high_watermark", "count", Lower),
    layer("queue.detector.dropped", "count", Lower),
    layer("queue.drift.push_ns", "ns", Lower),
    layer("queue.drift.wait_us_p50", "us", Lower),
    layer("queue.drift.wait_us_p99", "us", Lower),
    layer("queue.drift.high_watermark", "count", Lower),
    layer("queue.drift.dropped", "count", Lower),
    layer("queue.wire.push_ns", "ns", Lower),
    layer("queue.wire.wait_us_p50", "us", Lower),
    layer("queue.wire.wait_us_p99", "us", Lower),
    layer("queue.wire.high_watermark", "count", Lower),
    layer("queue.wire.dropped", "count", Lower),
    // ml::streaming and analysis::drift.
    layer("detector.ns_per_event", "ns", Lower),
    layer("detector.busy_pct", "%", Lower),
    layer("detector.accuracy", "ratio", Higher),
    layer("drift.ns_per_event", "ns", Lower),
    layer("drift.busy_pct", "%", Lower),
    // store write path.
    layer("store.push_ns", "ns", Lower),
    layer("store.flush_us_p50", "us", Lower),
    layer("store.flush_us_p99", "us", Lower),
    layer("store.flushes", "count", Lower),
    layer("store.events_per_block", "events", Higher),
    layer("store.bytes_written", "B", Lower),
    // net::client and net::server.
    layer("net.client.ns_per_event", "ns", Lower),
    layer("net.client.frames_per_event", "ratio", Lower),
    layer("net.client.finish_ms", "ms", Lower),
    layer("net.client.reconnects", "count", Lower),
    layer("net.client.ack_age_p50_ms", "ms", Lower),
    layer("net.client.ack_age_p99_ms", "ms", Lower),
    layer("net.server.deliver_ns", "ns", Lower),
    layer("net.server.commit_us_p50", "us", Lower),
    layer("net.server.commit_us_p99", "us", Lower),
    layer("net.server.events_per_commit", "events", Higher),
    // store::compact, store::query and the sidecars.
    layer("compact.s", "s", Lower),
    layer("compact.commits", "count", Lower),
    layer("store.open_ms", "ms", Lower),
    layer("index.build_s", "s", Lower),
    layer("index.train_s", "s", Lower),
    layer("index.reopen_train_s", "s", Lower),
    layer("index.sidecar_adopted", "count", Higher),
    layer("query.exact_us_p50", "us", Lower),
    layer("query.recall_at_10", "ratio", Higher),
    // Offline training on the set-up path.
    layer("cs.train_ms", "ms", Lower),
    layer("forest.fit_s", "s", Lower),
    // Traced minus untraced, as a share of untraced, signed so that a
    // positive value means the traced run read worse.
    // CPU time the hypervisor gave other guests during the pass.
    layer("host.steal_pct", "%", Lower),
    layer("overhead.setup_s", "%", Lower),
    layer("overhead.throughput_per_s", "%", Lower),
    layer("overhead.bytes_per_event", "%", Lower),
    layer("overhead.peak_rss_mib", "%", Lower),
];

/// What one pass of a workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (events ingested, queries issued).
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Named output checks and whether each held.
    pub checks: Vec<(String, bool)>,
    /// Every measured metric by name (end-to-end and per-layer).
    pub values: BTreeMap<String, f64>,
    /// Human-readable lines (sample counts, workload-specific names).
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    /// Records an output check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when every output check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// The value of `name`, or 0 when this pass did not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

/// Fills `overhead.<metric>` in `traced` from the untraced pass: the
/// relative change of every end-to-end metric, signed so that positive
/// means the traced pass read worse.
pub fn record_overhead(untraced: &Outcome, traced: &mut Outcome) {
    for def in END_TO_END {
        let base = untraced.get(def.name);
        let with = traced.get(def.name);
        let worse = match def.better {
            Lower => with - base,
            Higher => base - with,
        };
        let pct = if base == 0.0 {
            0.0
        } else {
            100.0 * worse / base
        };
        traced.set(format!("overhead.{}", def.name), pct);
    }
}

/// A JSON number: the value with all its digits, or 0 when not finite.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The result line: `correct`, `attempted`, `failed` and the metrics of
/// `defs` (every one of them; unmeasured ones read 0).
pub fn result_line(outcome: &Outcome, defs: &[MetricDef]) -> String {
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(d.name),
                number(outcome.get(d.name)),
                quote(d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// The `BENCHMARK.json` describing this benchmark.
pub fn manifest(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(name, why)| format!("    {{\"name\": {}, \"why\": {}}}", quote(name), quote(why)))
        .collect();
    let e2e: Vec<String> = END_TO_END
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str()),
                d.bound
            )
        })
        .collect();
    let layers: Vec<String> = PER_LAYER
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                quote(d.name),
                quote(d.unit),
                quote(d.better.as_str())
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \
         \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"perfbench\"],\n  \
         \"run_seconds\": {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  \
         ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let file = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(file, manifest(crate::RUN_SECONDS));
    }

    #[test]
    fn names_are_unique_and_bounds_in_range() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|d| d.name));
        let count = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), count, "a name is used twice");
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(WORKLOADS.iter().all(|(_, why)| why.len() <= 200));
    }
}
