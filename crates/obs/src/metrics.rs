//! Hot-path metric handles and the registry that owns them.
//!
//! The recording calls — [`Counter::add`], [`Gauge::set`],
//! [`Histogram::record`], a [`Span`] drop — are the only part of this
//! crate that runs on pipeline hot paths, so they are held to the
//! workspace sink contract: **zero allocation** and **one or two
//! `Relaxed` atomic RMWs** per call, nothing else. Counters stripe
//! across cache-line-padded cells indexed by a thread-local stripe id,
//! so concurrent recorders on different threads do not bounce a shared
//! line. Everything cold — registration, snapshotting, encoding —
//! lives behind a mutex and may allocate freely.
//!
//! All atomics here are `Relaxed` on purpose: each metric is an
//! independent monotone (or last-write-wins) scalar with no
//! happens-before obligation to any other memory. A scrape may observe
//! counters mid-update relative to each other; that torn-across-series
//! view is inherent to sampling live counters and is documented at the
//! exporter, not papered over with fences on the hot path. Series whose
//! terms must add up on every scrape come from a scrape-time source
//! ([`Registry::source`]) that reads them under one lock instead.

use crate::snapshot::{HistogramSnapshot, Observe, Snapshot};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Stripes per counter. A power of two so the stripe id reduces with a
/// mask; 8 lines (512 B) per counter bounds memory while giving 8
/// concurrent recorders private lines.
const STRIPES: usize = 8;

/// Number of histogram buckets: one per power of two of `u64`, plus
/// the zero bucket. Bucket `0` holds exactly `{0}`; bucket `b` in
/// `1..=63` holds `[2^(b-1), 2^b - 1]`; bucket `64` holds
/// `[2^63, u64::MAX]`. Together they tile `u64` with no gaps or
/// overlaps (pinned by a proptest).
pub const HIST_BUCKETS: usize = 65;

/// The bucket a value lands in (see [`HIST_BUCKETS`] for the layout).
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive `(low, high)` range of bucket `index`; out-of-range
/// indices clamp to the last bucket.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    if index == 0 {
        (0, 0)
    } else if index >= 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (index - 1), (1u64 << index) - 1)
    }
}

/// One cache line per stripe so concurrent recorders do not share one.
#[repr(align(64))]
struct PaddedCell(AtomicU64);

/// Round-robin source of thread stripe ids.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// This thread's stripe, assigned on first record. `usize::MAX`
    /// marks "not yet assigned"; const-initialised so the TLS slot
    /// never allocates.
    static STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// The calling thread's counter stripe (assigned round-robin once).
#[inline]
fn stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            v
        } else {
            let v = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) & (STRIPES - 1);
            s.set(v);
            v
        }
    })
}

/// A monotone event counter, striped across padded cells.
///
/// [`Counter::add`] is zero-alloc and one `Relaxed` `fetch_add` on the
/// calling thread's private stripe. Clones share the same cells.
#[derive(Clone)]
pub struct Counter {
    cells: Arc<[PaddedCell; STRIPES]>,
}

impl Counter {
    /// A detached counter (usable immediately; registered handles come
    /// from [`Registry::counter`]).
    pub fn new() -> Self {
        Self {
            cells: Arc::new(std::array::from_fn(|_| PaddedCell(AtomicU64::new(0)))),
        }
    }

    /// Adds `n`. Hot path: one `Relaxed` RMW, no allocation.
    #[inline]
    pub fn add(&self, n: u64) {
        // Mask keeps the index in bounds without a branch even if the
        // TLS stripe came from a different STRIPES build.
        let i = stripe() & (STRIPES - 1);
        self.cells[i].0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one. Hot path.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total across all stripes (wrapping on overflow).
    pub fn get(&self) -> u64 {
        self.cells
            .iter()
            .fold(0u64, |acc, c| acc.wrapping_add(c.0.load(Ordering::Relaxed)))
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

/// A last-write-wins integer gauge (queue depth, watermark, flags).
///
/// [`Gauge::set`] is a single `Relaxed` store — cheaper than a counter
/// bump — so a producer can republish a depth on every push.
#[derive(Clone)]
pub struct Gauge {
    value: Arc<AtomicU64>,
}

impl Gauge {
    /// A detached gauge holding zero.
    pub fn new() -> Self {
        Self {
            value: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Publishes an absolute value. Hot path: one `Relaxed` store.
    #[inline]
    pub fn set(&self, v: u64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if it is below it (watermarks). Hot
    /// path-safe but costs a load plus, rarely, a `fetch_max`.
    #[inline]
    pub fn raise(&self, v: u64) {
        if self.value.load(Ordering::Relaxed) < v {
            self.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

struct HistInner {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed log2-bucket histogram of `u64` samples (latencies in ns,
/// sizes in bytes). See [`HIST_BUCKETS`] for the bucket layout.
///
/// [`Histogram::record`] is zero-alloc and three `Relaxed` RMWs
/// (bucket, sum, count).
#[derive(Clone)]
pub struct Histogram {
    inner: Arc<HistInner>,
}

impl Histogram {
    /// A detached, empty histogram.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(HistInner {
                buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                sum: AtomicU64::new(0),
                count: AtomicU64::new(0),
            }),
        }
    }

    /// Records one sample. Hot path: three `Relaxed` RMWs.
    #[inline]
    pub fn record(&self, value: u64) {
        // bucket_index is provably < HIST_BUCKETS; the min is a free
        // bounds guarantee for the optimizer, not a behavior change.
        let b = bucket_index(value).min(HIST_BUCKETS - 1);
        self.inner.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.inner.sum.fetch_add(value, Ordering::Relaxed);
        self.inner.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Starts a scoped span whose drop records elapsed nanoseconds.
    #[inline]
    pub fn start_span(&self) -> Span<'_> {
        Span {
            hist: self,
            start: std::time::Instant::now(),
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.inner.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values (wrapping).
    pub fn sum(&self) -> u64 {
        self.inner.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts. Buckets are read one
    /// by one with `Relaxed` loads, so a snapshot taken during
    /// concurrent recording may be torn across buckets; `count` is
    /// read last and can exceed the bucket total by in-flight records.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .inner
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        HistogramSnapshot {
            buckets,
            sum: self.sum(),
            count: self.count(),
        }
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

/// A scoped stage timer: records elapsed wall nanoseconds into its
/// histogram when dropped. Zero-alloc on both ends.
#[must_use = "a span records on drop; binding it to _ measures nothing"]
pub struct Span<'a> {
    hist: &'a Histogram,
    start: std::time::Instant,
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos();
        self.hist.record(u64::try_from(ns).unwrap_or(u64::MAX));
    }
}

/// What a registered series holds.
#[derive(Clone)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
    /// A scrape-time group of series (see [`Registry::source`]).
    Source(Arc<dyn Fn(&mut Snapshot) + Send + Sync>),
}

struct Entry {
    name: String,
    labels: Vec<(String, String)>,
    handle: Handle,
}

#[derive(Default)]
struct RegistryInner {
    entries: Mutex<Vec<Entry>>,
}

/// The shared metric registry: names and label sets map to live
/// handles or to scrape-time sources ([`Registry::source`]).
/// Registration is idempotent — asking twice for the same
/// `(name, labels)` series returns clones of one underlying metric —
/// and cheap-but-cold (a mutex and allocation); the returned handles
/// are the lock-free hot-path objects.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Arc<RegistryInner>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn entries(&self) -> std::sync::MutexGuard<'_, Vec<Entry>> {
        // A panic while holding this mutex cannot leave the Vec in a
        // broken state (every push is a complete entry), so poisoning
        // is recoverable by construction.
        self.inner
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn find<'a>(
        entries: &'a mut [Entry],
        name: &str,
        labels: &[(&str, &str)],
    ) -> Option<&'a mut Handle> {
        entries
            .iter_mut()
            .find(|e| {
                e.name == name
                    && e.labels.len() == labels.len()
                    && e.labels
                        .iter()
                        .zip(labels)
                        .all(|((k0, v0), (k1, v1))| k0 == k1 && v0 == v1)
            })
            .map(|e| &mut e.handle)
    }

    fn own_labels(labels: &[(&str, &str)]) -> Vec<(String, String)> {
        labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    /// The counter registered as `name` with `labels`, creating it on
    /// first use. If the series exists as a different metric kind, a
    /// detached counter is returned instead of corrupting the series.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        let mut entries = self.entries();
        match Self::find(&mut entries, name, labels) {
            Some(Handle::Counter(c)) => c.clone(),
            Some(_) => Counter::new(),
            None => {
                let c = Counter::new();
                entries.push(Entry {
                    name: name.to_string(),
                    labels: Self::own_labels(labels),
                    handle: Handle::Counter(c.clone()),
                });
                c
            }
        }
    }

    /// The gauge registered as `name` with `labels` (see
    /// [`Registry::counter`] for the idempotence rules).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        let mut entries = self.entries();
        match Self::find(&mut entries, name, labels) {
            Some(Handle::Gauge(g)) => g.clone(),
            Some(_) => Gauge::new(),
            None => {
                let g = Gauge::new();
                entries.push(Entry {
                    name: name.to_string(),
                    labels: Self::own_labels(labels),
                    handle: Handle::Gauge(g.clone()),
                });
                g
            }
        }
    }

    /// The histogram registered as `name` with `labels` (see
    /// [`Registry::counter`] for the idempotence rules).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        let mut entries = self.entries();
        match Self::find(&mut entries, name, labels) {
            Some(Handle::Histogram(h)) => h.clone(),
            Some(_) => Histogram::new(),
            None => {
                let h = Histogram::new();
                entries.push(Entry {
                    name: name.to_string(),
                    labels: Self::own_labels(labels),
                    handle: Handle::Histogram(h.clone()),
                });
                h
            }
        }
    }

    /// Registers `source` as a scrape-time group of series keyed by
    /// `(name, labels)`: every [`Observe::observe`] of the registry
    /// calls it to append its samples. A source that reads all its
    /// terms under one lock of its own puts them on a scrape as one
    /// snapshot, which handles bumped one by one cannot. A second
    /// source under the same key replaces the first, so a component
    /// rebuilt under the same labels renders once; a key that holds a
    /// counter, gauge or histogram is left as it is.
    pub fn source(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        source: impl Fn(&mut Snapshot) + Send + Sync + 'static,
    ) {
        let handle = Handle::Source(Arc::new(source));
        let mut entries = self.entries();
        match Self::find(&mut entries, name, labels) {
            Some(old) if matches!(old, Handle::Source(_)) => *old = handle,
            Some(_) => {}
            None => entries.push(Entry {
                name: name.to_string(),
                labels: Self::own_labels(labels),
                handle,
            }),
        }
    }

    /// Registered series and sources.
    pub fn len(&self) -> usize {
        self.entries().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.entries().is_empty()
    }
}

impl Observe for Registry {
    fn observe(&self, out: &mut Snapshot) {
        let mut sources = Vec::new();
        for e in self.entries().iter() {
            let labels: Vec<(&str, &str)> = e
                .labels
                .iter()
                .map(|(k, v)| (k.as_str(), v.as_str()))
                .collect();
            match &e.handle {
                Handle::Counter(c) => out.counter(&e.name, &labels, c.get()),
                Handle::Gauge(g) => out.gauge(&e.name, &labels, g.get() as f64),
                Handle::Histogram(h) => out.histogram(&e.name, &labels, h.snapshot()),
                Handle::Source(s) => sources.push(Arc::clone(s)),
            }
        }
        // A source takes its component's own lock: call it with the
        // registry's released, so no other lock is ever taken under it.
        for source in sources {
            source(out);
        }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("series", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_totals_across_threads() {
        let c = Counter::new();
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = c.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        c.inc();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 40_000);
    }

    #[test]
    fn gauge_set_and_raise() {
        let g = Gauge::new();
        g.set(7);
        assert_eq!(g.get(), 7);
        g.raise(3);
        assert_eq!(g.get(), 7, "raise must not lower");
        g.raise(11);
        assert_eq!(g.get(), 11);
    }

    #[test]
    fn histogram_buckets_land_where_documented() {
        let h = Histogram::new();
        for v in [0u64, 1, 2, 3, 4, 1023, 1024, u64::MAX] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 8);
        assert_eq!(snap.buckets[0], 1, "zero bucket");
        assert_eq!(snap.buckets[1], 1, "{{1}}");
        assert_eq!(snap.buckets[2], 2, "[2,3]");
        assert_eq!(snap.buckets[3], 1, "[4,7]");
        assert_eq!(snap.buckets[10], 1, "[512,1023]");
        assert_eq!(snap.buckets[11], 1, "[1024,2047]");
        assert_eq!(snap.buckets[64], 1, "top bucket");
        // 0+1+2+3+4+1023+1024 = 2057; adding u64::MAX wraps to -1.
        assert_eq!(snap.sum, 2057u64.wrapping_add(u64::MAX));
    }

    #[test]
    fn span_records_on_drop() {
        let h = Histogram::new();
        {
            let _span = h.start_span();
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(h.count(), 1);
        assert!(h.sum() >= 1_000_000, "at least the 1ms sleep");
    }

    #[test]
    fn registry_is_idempotent_per_series() {
        let r = Registry::new();
        let a = r.counter("cws_events_total", &[("stage", "fleet")]);
        let b = r.counter("cws_events_total", &[("stage", "fleet")]);
        let other = r.counter("cws_events_total", &[("stage", "store")]);
        a.add(2);
        b.add(3);
        other.add(10);
        assert_eq!(a.get(), 5, "same series shares cells");
        assert_eq!(other.get(), 10, "different labels are a new series");
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn registry_kind_mismatch_detaches() {
        let r = Registry::new();
        let c = r.counter("cws_depth", &[]);
        c.add(4);
        let g = r.gauge("cws_depth", &[]);
        g.set(9);
        assert_eq!(c.get(), 4, "registered counter untouched");
        assert_eq!(r.len(), 1, "no duplicate series registered");
    }

    #[test]
    fn a_source_under_the_same_key_replaces_the_old_one() {
        let r = Registry::new();
        r.source("q", &[("queue", "a")], |out| {
            out.counter("q_total", &[("queue", "a")], 1)
        });
        r.source("q", &[("queue", "a")], |out| {
            out.counter("q_total", &[("queue", "a")], 2)
        });
        r.source("q", &[("queue", "b")], |out| {
            out.counter("q_total", &[("queue", "b")], 3)
        });
        r.counter("held", &[]).add(5);
        r.source("held", &[], |out| out.counter("held", &[], 99));
        // A source runs with the registry unlocked, so it may use it.
        let inner = r.clone();
        r.source("len", &[], move |out| {
            out.gauge("len", &[], inner.len() as f64)
        });
        assert_eq!(r.len(), 4);

        let text = crate::MetricsHub::new(r).render_prometheus();
        assert_eq!(text.matches("q_total{queue=\"a\"}").count(), 1, "{text}");
        assert!(
            text.contains("q_total{queue=\"a\"} 2"),
            "newest source wins"
        );
        assert!(text.contains("q_total{queue=\"b\"} 3"));
        assert!(
            text.contains("held 5"),
            "a counter's key stays the counter's"
        );
        assert!(!text.contains("held 99"));
        assert!(text.contains("len 4"));
    }

    #[test]
    fn registry_observe_renders_all_kinds() {
        let r = Registry::new();
        r.counter("c", &[("k", "v")]).add(3);
        r.gauge("g", &[]).set(8);
        r.histogram("h", &[]).record(100);
        let mut snap = Snapshot::default();
        r.observe(&mut snap);
        assert_eq!(snap.samples().len(), 3);
    }
}
