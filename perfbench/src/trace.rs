//! Benchmark-side tracing: spans and counters recorded by wrappers
//! around each layer's public entry points. The wrappers live here, not
//! in the program; they forward every call unchanged and, in a traced
//! pass, time it. In an untraced pass they cost one branch per call.

use cwsmooth_core::error::Result as CoreResult;
use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_net::NetSink;
use cwsmooth_obs::{Observe, Snapshot};
use cwsmooth_store::SignatureStore;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// Nanoseconds since the process's benchmark epoch (monotonic).
pub fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Span parent of a span without one.
pub const NO_PARENT: u64 = u64::MAX;

/// One in this many nodes keeps its per-event spans in the written
/// trace; aggregates always cover every event.
pub const SAMPLE_NODES: usize = 64;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `queue.store.push`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Id of the enclosing span (a frame index), or [`NO_PARENT`].
    pub parent: u64,
    /// The event's `(node << 32) | window`, a frame or a query index.
    pub id: u64,
}

/// `(node << 32) | window`: the span id of one event.
pub fn event_id(event: &FleetEvent) -> u64 {
    ((event.node as u64) << 32) | (event.window_index as u64 & 0xffff_ffff)
}

/// Counters one wrapper keeps for the calls it forwards.
#[derive(Debug, Default)]
pub struct Record {
    /// Calls forwarded.
    pub calls: u64,
    /// Nanoseconds spent inside the wrapped call.
    pub busy_ns: u64,
    /// Start time of every call, in call order (queue hand-off pairing).
    pub starts: Vec<u64>,
    /// Sampled spans.
    pub spans: Vec<Span>,
}

impl Record {
    /// Appends another record's calls (same layer, later phase).
    pub fn absorb(&mut self, other: Record) {
        self.calls += other.calls;
        self.busy_ns += other.busy_ns;
        self.starts.extend(other.starts);
        self.spans.extend(other.spans);
    }

    /// Mean nanoseconds per call.
    pub fn ns_per_call(&self) -> f64 {
        self.busy_ns as f64 / self.calls.max(1) as f64
    }
}

/// A [`FleetSink`] wrapper that times every `on_event` it forwards.
///
/// Around a `QueueSink` on the ingest thread it measures the push;
/// around the sink on a queue's consumer thread it measures the
/// consumer's work and records when each event was picked up.
#[derive(Debug)]
pub struct Probe<S> {
    /// The wrapped sink.
    pub inner: S,
    name: &'static str,
    traced: bool,
    /// The frame being ingested, for span parents (ingest thread only).
    frame: Option<Arc<AtomicU64>>,
    /// What was recorded.
    pub rec: Record,
}

impl<S> Probe<S> {
    /// Wraps `inner`; records only when `traced`.
    pub fn new(inner: S, name: &'static str, traced: bool, frame: Option<Arc<AtomicU64>>) -> Self {
        Self {
            inner,
            name,
            traced,
            frame,
            rec: Record::default(),
        }
    }
}

impl<S: FleetSink> FleetSink for Probe<S> {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        if !self.traced {
            return self.inner.on_event(event);
        }
        let start = now_ns();
        let result = self.inner.on_event(event);
        let end = now_ns();
        self.rec.calls += 1;
        self.rec.busy_ns += end - start;
        self.rec.starts.push(start);
        if event.node.is_multiple_of(SAMPLE_NODES) {
            self.rec.spans.push(Span {
                name: self.name,
                start,
                end,
                parent: self
                    .frame
                    .as_ref()
                    .map_or(NO_PARENT, |f| f.load(Ordering::Relaxed)),
                id: event_id(event),
            });
        }
        result
    }
}

/// The store write path: times pushes, and separately every call that
/// wrote blocks to disk (a push that filled a node's block, or a flush).
#[derive(Debug)]
pub struct StoreProbe {
    /// The wrapped store.
    pub store: SignatureStore,
    traced: bool,
    /// Pushes.
    pub push: Record,
    /// Duration of every call that wrote blocks, in ns.
    pub flush_ns: Vec<u64>,
}

impl StoreProbe {
    /// Wraps `store`; records only when `traced`.
    pub fn new(store: SignatureStore, traced: bool) -> Self {
        Self {
            store,
            traced,
            push: Record::default(),
            flush_ns: Vec::new(),
        }
    }
}

impl FleetSink for StoreProbe {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        if !self.traced {
            return self.store.on_event(event);
        }
        let blocks = self.store.stats().blocks;
        let start = now_ns();
        let result = self.store.on_event(event);
        let took = now_ns() - start;
        self.push.calls += 1;
        self.push.busy_ns += took;
        if self.store.stats().blocks > blocks {
            self.flush_ns.push(took);
        }
        result
    }
}

impl NetSink for StoreProbe {
    fn commit(&mut self) -> CoreResult<()> {
        if !self.traced {
            return self.store.commit();
        }
        let start = now_ns();
        let result = self.store.commit();
        self.flush_ns.push(now_ns() - start);
        result
    }
}

impl Observe for StoreProbe {
    fn observe(&self, out: &mut Snapshot) {
        self.store.observe(out);
    }
}

/// The server's delivery side: counts delivered events and, in the live
/// phase, logs when each commit returned (the events it covers are
/// durable and their ack is due); in a traced pass it also times each
/// delivered event and each commit of the sink the server feeds.
#[derive(Debug)]
pub struct ServerProbe<S> {
    /// The wrapped sink.
    pub inner: S,
    traced: bool,
    /// Log commits (live phase).
    pub stamp: bool,
    /// `(events delivered, time the commit returned)` of every live
    /// commit, ascending.
    pub commits: Vec<(u64, u64)>,
    delivered: u64,
    /// Events delivered (traced).
    pub deliver: Record,
    /// Duration of every commit, in ns (traced).
    pub commit_ns: Vec<u64>,
    /// Events delivered between consecutive commits (traced).
    pub per_commit: Vec<u64>,
    since_commit: u64,
}

impl<S> ServerProbe<S> {
    /// Wraps `inner`; times calls only when `traced`.
    pub fn new(inner: S, traced: bool) -> Self {
        Self {
            inner,
            traced,
            stamp: false,
            commits: Vec::new(),
            delivered: 0,
            deliver: Record::default(),
            commit_ns: Vec::new(),
            per_commit: Vec::new(),
            since_commit: 0,
        }
    }
}

impl<S: FleetSink> FleetSink for ServerProbe<S> {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        self.delivered += 1;
        if !self.traced {
            return self.inner.on_event(event);
        }
        let start = now_ns();
        let result = self.inner.on_event(event);
        self.deliver.calls += 1;
        self.deliver.busy_ns += now_ns() - start;
        self.since_commit += 1;
        result
    }
}

impl<S: NetSink> NetSink for ServerProbe<S> {
    fn commit(&mut self) -> CoreResult<()> {
        let start = now_ns();
        let result = self.inner.commit();
        let end = now_ns();
        if self.stamp {
            self.commits.push((self.delivered, end));
        }
        if self.traced {
            self.commit_ns.push(end - start);
            self.per_commit.push(std::mem::take(&mut self.since_commit));
        }
        result
    }
}

/// Nearest-rank percentile `p` (0..=100) of `values`; sorts in place.
/// 0 for an empty slice.
pub fn percentile(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let rank = ((p / 100.0) * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// `(p50, p90, p99, samples)` of `latencies`; sorts in place.
pub fn latency_stats(latencies: &mut [f64]) -> (f64, f64, f64, usize) {
    let n = latencies.len();
    let p50 = percentile(latencies, 50.0);
    (
        p50,
        percentile(latencies, 90.0),
        percentile(latencies, 99.0),
        n,
    )
}

/// Median of `values`; sorts in place. 0 for an empty slice.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Writes spans as tab-separated `name start_ns end_ns parent id` lines.
pub fn write_spans<'a>(path: &Path, spans: impl Iterator<Item = &'a Span>) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\tstart_ns\tend_ns\tparent\tid")?;
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            "-".to_string()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}",
            s.name, s.start, s.end, parent, s.id
        )?;
    }
    out.flush()
}
