//! Seeded yield-injection stress test for
//! [`cwsmooth_core::transport::QueueSink`].
//!
//! Each seed drives one producer/consumer run with pseudo-random
//! `yield_now` injection on *both* sides of the queue, perturbing the
//! interleaving between the producer's push path (including DropOldest
//! eviction) and the consumer's pop/wait loop.  Every snapshot, the
//! producer's mid-run reads after each push included, must satisfy the
//! conservation identity
//!
//! ```text
//! pushed == delivered + dropped + depth + in_flight
//! ```
//!
//! the run must reach a drained snapshot, and `join()` must drain the
//! queue and return cleanly.  The default sweep is 64 seeds per policy;
//! CI sets `TRANSPORT_STRESS_SEEDS=8` for a fast subset (the seed
//! *values* are identical prefixes, so a CI failure always reproduces
//! locally).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use cwsmooth_core::error::Result;
use cwsmooth_core::fleet::{FleetEvent, FleetSink};
use cwsmooth_core::transport::{QueueConfig, QueuePolicy, QueueSink, QueueStats};

const DEFAULT_SEEDS: u64 = 64;
const EVENTS_PER_RUN: usize = 400;

/// SplitMix64: tiny, deterministic, and good enough to decorrelate the
/// yield points of the two threads from a shared seed.
struct SplitMix(u64);

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn seed_count() -> u64 {
    std::env::var("TRANSPORT_STRESS_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_SEEDS)
}

/// Counts deliveries and yields a seed-derived number of times per
/// event, stretching the consumer's time inside `on_event` so the queue
/// cycles through empty, full, and eviction-contended states.
struct JitterSink {
    rng: SplitMix,
    delivered: Arc<AtomicU64>,
    last_per_node: Vec<Option<usize>>,
}

impl FleetSink for JitterSink {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        for _ in 0..(self.rng.next() % 4) {
            std::thread::yield_now();
        }
        // Per-node window indices must arrive strictly increasing even
        // when DropOldest evicts between them: eviction may skip
        // windows, never reorder or replay them.
        if let Some(prev) = self.last_per_node[event.node] {
            assert!(
                event.window_index > prev,
                "node {} went backwards: {} after {}",
                event.node,
                event.window_index,
                prev
            );
        }
        self.last_per_node[event.node] = Some(event.window_index);
        self.delivered.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

fn event(node: usize, window_index: usize) -> FleetEvent {
    FleetEvent {
        node,
        window_index,
        signature: cwsmooth_core::cs::CsSignature {
            re: vec![window_index as f64, node as f64],
            im: vec![-(window_index as f64)],
        },
    }
}

/// The conservation identity of one snapshot.
fn balanced(s: &QueueStats) -> bool {
    s.pushed == s.delivered + s.dropped + s.depth as u64 + s.in_flight as u64
}

/// Runs one seeded producer/consumer session and checks conservation on
/// every mid-run snapshot, once drained, and after `join()`.
fn stress_one(seed: u64, policy: QueuePolicy) {
    let mut rng = SplitMix::new(seed);
    // Small queues overflow constantly, which is the point.
    let capacity = 2 + (rng.next() % 7) as usize;
    let nodes = 1 + (rng.next() % 3) as usize;
    let delivered = Arc::new(AtomicU64::new(0));
    let mut queue = QueueSink::with_config(
        JitterSink {
            rng: SplitMix::new(seed ^ 0xdead_beef),
            delivered: Arc::clone(&delivered),
            last_per_node: vec![None; nodes],
        },
        QueueConfig { capacity, policy },
    );

    let mut windows = vec![0usize; nodes];
    for _ in 0..EVENTS_PER_RUN {
        let node = (rng.next() % nodes as u64) as usize;
        queue.on_event(&event(node, windows[node])).unwrap();
        windows[node] += 1;
        // `stats()` reads the consumer's terms in one critical section,
        // so the identity holds mid-run, not only once drained.
        let mid = queue.stats();
        assert!(balanced(&mid), "seed {seed} ({policy:?}): mid-run {mid:?}");
        assert!(mid.in_flight <= 1, "seed {seed} ({policy:?}): {mid:?}");
        for _ in 0..(rng.next() % 3) {
            std::thread::yield_now();
        }
    }

    // Quiescence: the consumer drains the queue and settles its last
    // event; with nothing queued or in flight no later read can change.
    let deadline = Instant::now() + Duration::from_secs(20);
    let before = loop {
        let s = queue.stats();
        assert!(balanced(&s), "seed {seed} ({policy:?}): {s:?}");
        if s.depth == 0 && s.in_flight == 0 {
            break s;
        }
        assert!(
            Instant::now() < deadline,
            "seed {seed} ({policy:?}): no drained snapshot; last {s:?}"
        );
        std::thread::yield_now();
    };
    assert_eq!(
        before.pushed,
        before.delivered + before.dropped,
        "seed {seed} ({policy:?}): conservation broke once drained: {before:?}"
    );
    assert_eq!(before.pushed, EVENTS_PER_RUN as u64);
    if matches!(policy, QueuePolicy::Block) {
        assert_eq!(before.dropped, 0, "Block must never drop (seed {seed})");
    }
    // The queue holds exactly the requested capacity, and the
    // watermark never exceeds it.
    assert_eq!(before.capacity, capacity);
    assert!(before.high_watermark <= capacity);

    let (sink, res) = queue.join();
    res.unwrap_or_else(|e| panic!("seed {seed} ({policy:?}): join surfaced {e}"));
    // join() drains the queue, so the envelope count must now balance
    // with depth 0 — and the sink's own counter must agree with the
    // transport's.
    let delivered_total = sink.delivered.load(Ordering::Relaxed);
    assert_eq!(
        delivered_total + before.dropped,
        EVENTS_PER_RUN as u64,
        "seed {seed} ({policy:?}): post-join accounting is off"
    );
    assert_eq!(delivered_total, delivered.load(Ordering::Relaxed));
}

#[test]
fn block_policy_conserves_events_across_seeds() {
    for seed in 0..seed_count() {
        stress_one(seed, QueuePolicy::Block);
    }
}

#[test]
fn drop_oldest_policy_conserves_events_across_seeds() {
    for seed in 0..seed_count() {
        stress_one(seed, QueuePolicy::DropOldest);
    }
}
