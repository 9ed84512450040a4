//! Pins the acceptance criterion of the off-thread transport: with the
//! full delivery tree moved behind bounded queues —
//! `Tee(Queue(SignatureStore), Queue(StreamingDetector),
//! Queue(DriftMonitor))` — the **producer path** (frame ingest,
//! signature emission, envelope refill from the recycle pool, queue push)
//! allocates **zero** heap bytes in steady state. Consumer threads own
//! the sinks and their costs; the ingest thread only copies into
//! recycled boxed `FleetEvent` envelopes.
//!
//! Measured with a counting global allocator filtered to the ingest
//! (test) thread — the consumer threads and the libtest harness thread
//! allocate on their own schedules and must not trip the pin. The
//! envelope pools are deterministically pre-warmed by pushing a burst
//! larger than the measurement window while the consumers are gated, so
//! the measurement never needs a fresh envelope no matter how the
//! threads interleave. This file holds exactly one `#[test]`.

use cwsmooth::analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth::core::cs::{CsMethod, CsTrainer};
use cwsmooth::core::fleet::{FleetEngine, FleetEvent, FleetSink};
use cwsmooth::core::pipeline::Tee;
use cwsmooth::core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::ml::forest::{small_forest_config, RandomForestClassifier};
use cwsmooth::ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the thread that sets this flag is counted — consumer
    /// threads and the libtest harness allocate on their own schedules.
    static COUNT_ME: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn counted() -> bool {
    COUNT_ME.try_with(std::cell::Cell::get).unwrap_or(false)
}

struct CountingAlloc;

// SAFETY: a pure pass-through to the System allocator — every method
// forwards its arguments unchanged, so System's contract is ours; the
// counters never touch the allocation itself.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: same contract as System.alloc, to which we forward.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // SAFETY: same contract as System.dealloc, to which we forward.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counted() {
            DEALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    // SAFETY: same contract as System.realloc, to which we forward.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const NODES: usize = 8;
const SENSORS: usize = 5;
const L: usize = 3;
/// Queue capacity per branch: larger than any burst this test pushes, so
/// the block policy never engages and the warm-up burst can mint more
/// envelopes than the measurement window consumes.
const CAPACITY: usize = 4096;

fn fill(frame: &mut cwsmooth::core::fleet::FleetFrame, t: usize) {
    for node in 0..NODES {
        let slot = frame.slot_mut(node).unwrap();
        for (r, v) in slot.iter_mut().enumerate() {
            *v = ((t as f64 / (2.0 + r as f64) + node as f64 * 0.37).sin() * (r + 1) as f64)
                + 0.05 * node as f64;
        }
    }
}

/// Wraps a sink so the test can stall the consumer thread on demand
/// (forcing envelopes to pile up in the queue during pre-warming).
struct Gate<S> {
    hold: Arc<AtomicBool>,
    inner: S,
}

impl<S: FleetSink> FleetSink for Gate<S> {
    fn on_event(&mut self, event: &FleetEvent) -> cwsmooth::core::error::Result<()> {
        while self.hold.load(Ordering::Acquire) {
            std::thread::yield_now();
        }
        self.inner.on_event(event)
    }
}

fn wait_drained<S>(queue: &QueueSink<S>) {
    let deadline = Instant::now() + Duration::from_secs(60);
    while queue.stats().depth > 0 {
        assert!(
            Instant::now() < deadline,
            "consumer never drained the queue"
        );
        std::thread::yield_now();
    }
}

#[test]
fn steady_state_threaded_producer_path_performs_no_heap_allocation() {
    COUNT_ME.with(|c| c.set(true));
    // ---- Setup (allocates freely). ----
    let dir = std::env::temp_dir().join(format!("cwsmooth-transport-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = WindowSpec::new(10, 5).unwrap();

    let methods: Vec<CsMethod> = (0..NODES)
        .map(|node| {
            let s = Matrix::from_fn(SENSORS, 150, |r, c| {
                ((c as f64 / (2.0 + r as f64) + node as f64 * 0.37).sin() * (r + 1) as f64)
                    + 0.05 * node as f64
            });
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), L).unwrap()
        })
        .collect();
    let mut engine = FleetEngine::new(methods, spec).unwrap();
    let mut frame = engine.frame();

    let store_cfg = StoreConfig::default()
        .with_encoding(Encoding::Quant8)
        .with_block_events(16)
        .with_segment_events(1 << 40);
    let store = SignatureStore::open(&dir, spec, L, store_cfg).unwrap();

    let x = Matrix::from_fn(60, 2 * L, |r, c| {
        ((r * 17 + c * 5) % 100) as f64 / 100.0 + (r % 2) as f64 * 0.3
    });
    let y: Vec<usize> = (0..60).map(|r| r % 2).collect();
    let mut forest = RandomForestClassifier::with_config(small_forest_config(3, true));
    forest.fit(&x, &y).unwrap();
    let mut detector = StreamingDetector::new(forest, DetectorConfig::default()).unwrap();
    detector.reserve_nodes(NODES);

    let drift = DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 4,
        threshold: 0.9,
        ..DriftConfig::default()
    });

    let hold = Arc::new(AtomicBool::new(false));
    let cfg = QueueConfig {
        capacity: CAPACITY,
        policy: QueuePolicy::Block,
    };
    fn gated<S>(hold: &Arc<AtomicBool>, inner: S) -> Gate<S> {
        Gate {
            hold: Arc::clone(hold),
            inner,
        }
    }
    let mut tree = Tee((
        QueueSink::with_config(gated(&hold, store), cfg),
        QueueSink::with_config(gated(&hold, detector), cfg),
        QueueSink::with_config(gated(&hold, drift), cfg),
    ));

    // ---- Warm-up 1 (consumers live): exercise every consumer-side
    // buffer class — store staging and block flushes, detector vote
    // buffers, drift histograms. ----
    let mut t = 0usize;
    while engine.stats().events < 1500 {
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut tree).unwrap();
        t += 1;
    }

    // ---- Warm-up 2 (consumers gated): push a burst bigger than the
    // measurement window so each branch mints (and warms) more
    // envelopes than the measurement can ever need; then release and
    // let everything recycle into the envelope pools. ----
    hold.store(true, Ordering::Release);
    let burst_start = engine.stats().events;
    while engine.stats().events - burst_start < 2000 {
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut tree).unwrap();
        t += 1;
    }
    hold.store(false, Ordering::Release);
    wait_drained(&tree.0 .0);
    wait_drained(&tree.0 .1);
    wait_drained(&tree.0 .2);

    // ---- Measurement window: hundreds of frames of ingest + enqueue
    // on this thread, every envelope drawn from the warmed free pool —
    // all heap-silent on the producer. ----
    let a0 = ALLOCS.load(Ordering::SeqCst);
    let d0 = DEALLOCS.load(Ordering::SeqCst);
    let events_before = engine.stats().events;
    for _ in 0..600 {
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut tree).unwrap();
        t += 1;
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - a0;
    let deallocs = DEALLOCS.load(Ordering::SeqCst) - d0;

    let events = engine.stats().events - events_before;
    assert!(events > 500, "expected many events, got {events}");
    assert!(
        (events as usize) < CAPACITY,
        "measurement must not outrun the envelope pool"
    );
    assert_eq!(allocs, 0, "threaded producer path allocated {allocs} times");
    assert_eq!(deallocs, 0, "threaded producer path freed {deallocs} times");

    // ---- Shutdown: join all branches; every accepted event was (or
    // will have been, by join) delivered. ----
    let Tee((qs, qd, qm)) = tree;
    let total = engine.stats().events;
    let (pushed, sink_events) = {
        let s = qs.stats();
        let (g, r) = qs.join();
        r.unwrap();
        (s.pushed, g.inner.events())
    };
    assert_eq!(pushed, total);
    assert_eq!(sink_events, total, "store missed events");
    let (pushed, sink_events) = {
        let s = qd.stats();
        let (g, r) = qd.join();
        r.unwrap();
        (s.pushed, g.inner.events())
    };
    assert_eq!(pushed, total);
    assert_eq!(sink_events, total, "detector missed events");
    let (pushed, sink_events) = {
        let s = qm.stats();
        let (g, r) = qm.join();
        r.unwrap();
        (s.pushed, g.inner.events())
    };
    assert_eq!(pushed, total);
    assert_eq!(sink_events, total, "drift monitor missed events");
    std::fs::remove_dir_all(&dir).ok();
}
