//! Pins the acceptance criterion of the streaming ODA pipeline: a full
//! `Tee(SignatureStore, StreamingDetector, DriftMonitor)` delivery tree
//! fed by `FleetEngine::ingest_frame_sink` allocates **zero** heap bytes
//! in steady state — frame ingest, signature emission, persistence
//! (including block flushes), per-event forest inference and online
//! drift histograms all run out of warmed, reused buffers.
//!
//! Measured with a counting global allocator on the default engine
//! (`FleetEngine::new`). This file holds exactly one `#[test]` so no
//! concurrent test can allocate while the counter window is open.

use cwsmooth::analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth::core::cs::{CsMethod, CsTrainer};
use cwsmooth::core::fleet::FleetEngine;
use cwsmooth::core::pipeline::Tee;
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::ml::forest::{small_forest_config, RandomForestClassifier};
use cwsmooth::ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// Only the thread that sets this flag is counted — the libtest
    /// harness thread allocates sporadically and must not trip the pin.
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

fn fill(frame: &mut cwsmooth::core::fleet::FleetFrame, t: usize) {
    for node in 0..NODES {
        let slot = frame.slot_mut(node).unwrap();
        for (r, v) in slot.iter_mut().enumerate() {
            *v = ((t as f64 / (2.0 + r as f64) + node as f64 * 0.37).sin() * (r + 1) as f64)
                + 0.05 * node as f64;
        }
    }
}

#[test]
fn steady_state_tee_pipeline_performs_no_heap_allocation() {
    COUNT_ME.with(|c| c.set(true));
    // ---- Setup (allocates freely). ----
    let dir = std::env::temp_dir().join(format!("cwsmooth-pipe-alloc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let spec = WindowSpec::new(10, 5).unwrap();

    // One trained CS model per node, on histories matching the live data.
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

    // Store: quantized encoding (the richer encode path), small blocks so
    // flushes land inside the measurement window, no segment rolls.
    let store_cfg = StoreConfig::default()
        .with_encoding(Encoding::Quant8)
        .with_block_events(16)
        .with_segment_events(1 << 40);
    let mut store = SignatureStore::open(&dir, spec, L, store_cfg).unwrap();

    // Detector: a small fitted forest over 2L-dimensional features.
    let x = Matrix::from_fn(60, 2 * L, |r, c| {
        ((r * 17 + c * 5) % 100) as f64 / 100.0 + (r % 2) as f64 * 0.3
    });
    let y: Vec<usize> = (0..60).map(|r| r % 2).collect();
    let mut forest = RandomForestClassifier::with_config(small_forest_config(3, true));
    forest.fit(&x, &y).unwrap();
    let mut detector = StreamingDetector::new(forest, DetectorConfig::default()).unwrap();
    detector.reserve_nodes(NODES);

    // Drift monitor: tiny tumbling windows so every node calibrates and
    // compares many times during warm-up and measurement.
    let mut drift = DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 4,
        threshold: 0.9,
        ..DriftConfig::default()
    });

    // ---- Warm-up: run until every buffer class has been exercised —
    // the engine's event pool, store staging + several block flushes, detector
    // vote/feature buffers, and at least one completed drift comparison
    // per node (reference + counts allocated). ----
    let mut t = 0usize;
    {
        let mut tee = Tee((&mut store, &mut detector, &mut drift));
        loop {
            fill(&mut frame, t);
            engine.ingest_frame_sink(&frame, &mut tee).unwrap();
            t += 1;
            if tee.0 .0.stats().blocks >= 3 * NODES as u64
                && tee.0 .2.comparisons() >= 2 * NODES as u64
            {
                break;
            }
        }
    }
    assert!((0..NODES).all(|n| drift.calibrated(n)));

    // ---- Measurement window: hundreds of frames with signature
    // emissions, store block flushes, forest inference and drift
    // comparisons — all heap-silent. ----
    let a0 = ALLOCS.load(Ordering::SeqCst);
    let d0 = DEALLOCS.load(Ordering::SeqCst);
    let events_before = detector.events();
    let blocks_before = store.stats().blocks;
    let comparisons_before = drift.comparisons();
    {
        let mut tee = Tee((&mut store, &mut detector, &mut drift));
        for _ in 0..600 {
            fill(&mut frame, t);
            engine.ingest_frame_sink(&frame, &mut tee).unwrap();
            t += 1;
        }
    }
    let allocs = ALLOCS.load(Ordering::SeqCst) - a0;
    let deallocs = DEALLOCS.load(Ordering::SeqCst) - d0;

    // The window did real work...
    let events = detector.events() - events_before;
    assert!(
        events > 500,
        "expected many classified events, got {events}"
    );
    assert!(
        store.stats().blocks - blocks_before > 20,
        "expected many block flushes"
    );
    assert!(
        drift.comparisons() - comparisons_before > 100,
        "expected many drift comparisons"
    );
    // ...without touching the allocator.
    assert_eq!(allocs, 0, "steady-state pipeline allocated {allocs} times");
    assert_eq!(deallocs, 0, "steady-state pipeline freed {deallocs} times");

    // Sanity: the three sinks agree on the event count.
    assert_eq!(engine.stats().events, detector.events());
    assert_eq!(engine.stats().events, store.events());
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
