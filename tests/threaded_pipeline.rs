//! End-to-end parity of the threaded delivery tree: the same frame
//! stream pushed through a synchronous
//! `Tee(SignatureStore, StreamingDetector, DriftMonitor)` and through
//! its off-thread twin `Tee(Queue(store), Queue(detector),
//! Queue(drift))` must leave **identical** sink state — the stores
//! replay bit-identical events, the detectors agree on every verdict
//! and counter, the drift monitors on every comparison. Per-branch FIFO
//! queues preserve per-node event order, so the consumer-side sinks
//! cannot tell they ran on another thread.

use cwsmooth::analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth::core::cs::{CsMethod, CsTrainer};
use cwsmooth::core::fleet::FleetEngine;
use cwsmooth::core::pipeline::Tee;
use cwsmooth::core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::ml::forest::{small_forest_config, RandomForestClassifier};
use cwsmooth::ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::path::Path;

const NODES: usize = 10;
const SENSORS: usize = 5;
const L: usize = 3;
const FRAMES: usize = 400;

fn methods() -> Vec<CsMethod> {
    (0..NODES)
        .map(|node| {
            let s = Matrix::from_fn(SENSORS, 150, |r, c| {
                ((c as f64 / (2.0 + r as f64) + node as f64 * 0.37).sin() * (r + 1) as f64)
                    + 0.05 * node as f64
            });
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), L).unwrap()
        })
        .collect()
}

fn engine() -> FleetEngine {
    FleetEngine::new(methods(), WindowSpec::new(10, 5).unwrap()).unwrap()
}

fn fill(frame: &mut cwsmooth::core::fleet::FleetFrame, t: usize) {
    frame.clear();
    for node in 0..NODES {
        // Deterministic telemetry gaps exercise per-node window_index
        // continuity through the queues.
        if (node + t).is_multiple_of(41) {
            continue;
        }
        let slot = frame.slot_mut(node).unwrap();
        for (r, v) in slot.iter_mut().enumerate() {
            *v = ((t as f64 / (2.0 + r as f64) + node as f64 * 0.37).sin() * (r + 1) as f64)
                + 0.05 * node as f64;
        }
    }
}

fn store_at(dir: &Path) -> SignatureStore {
    let cfg = StoreConfig::default()
        .with_encoding(Encoding::Quant8)
        .with_block_events(16)
        .with_segment_events(1 << 40);
    SignatureStore::open(dir, WindowSpec::new(10, 5).unwrap(), L, cfg).unwrap()
}

fn detector() -> StreamingDetector {
    let x = Matrix::from_fn(60, 2 * L, |r, c| {
        ((r * 17 + c * 5) % 100) as f64 / 100.0 + (r % 2) as f64 * 0.3
    });
    let y: Vec<usize> = (0..60).map(|r| r % 2).collect();
    let mut forest = RandomForestClassifier::with_config(small_forest_config(3, true));
    forest.fit(&x, &y).unwrap();
    let mut det = StreamingDetector::new(forest, DetectorConfig::default()).unwrap();
    det.reserve_nodes(NODES);
    det
}

fn drift() -> DriftMonitor {
    DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 4,
        threshold: 0.9,
        ..DriftConfig::default()
    })
}

fn dump(store: &SignatureStore) -> Vec<(u32, u64, Vec<f64>)> {
    let mut out = Vec::new();
    store
        .for_each(|n, w, v| out.push((n, w, v.to_vec())))
        .unwrap();
    out.sort_by_key(|a| (a.0, a.1));
    out
}

#[test]
fn threaded_and_synchronous_trees_leave_identical_sink_state() {
    let base = std::env::temp_dir().join(format!("cwsmooth-threaded-pipe-{}", std::process::id()));
    let sync_dir = base.join("sync");
    let thr_dir = base.join("threaded");
    std::fs::remove_dir_all(&base).ok();

    // Synchronous reference run.
    let mut sync_engine = engine();
    let mut frame = sync_engine.frame();
    let mut sync_store = store_at(&sync_dir);
    let mut sync_det = detector();
    let mut sync_drift = drift();
    {
        let mut tree = Tee((&mut sync_store, &mut sync_det, &mut sync_drift));
        for t in 0..FRAMES {
            fill(&mut frame, t);
            sync_engine.ingest_frame_sink(&frame, &mut tree).unwrap();
        }
    }

    // Threaded run: the sinks are *owned* by their consumer threads (the
    // Send audit in each crate is what makes this line compile) and
    // recovered via join.
    let mut thr_engine = engine();
    let small = QueueConfig {
        capacity: 32,
        policy: QueuePolicy::Block,
    };
    let mut tree = Tee((
        QueueSink::with_config(store_at(&thr_dir), small),
        QueueSink::spawn(detector()),
        QueueSink::spawn(drift()),
    ));
    for t in 0..FRAMES {
        fill(&mut frame, t);
        thr_engine.ingest_frame_sink(&frame, &mut tree).unwrap();
    }
    let Tee((qs, qd, qm)) = tree;
    let (thr_store, r1) = qs.join();
    let (thr_det, r2) = qd.join();
    let (thr_drift, r3) = qm.join();
    r1.unwrap();
    r2.unwrap();
    r3.unwrap();

    // Engines agree.
    assert_eq!(sync_engine.stats(), thr_engine.stats());

    // Stores replay bit-identical events (same quantized values, same
    // per-node windows).
    let sync_events = dump(&sync_store);
    let thr_events = dump(&thr_store);
    assert!(sync_events.len() > 500, "premise: a rich event stream");
    assert_eq!(sync_events, thr_events);
    assert_eq!(sync_store.events(), thr_store.events());
    assert_eq!(sync_store.stats().blocks, thr_store.stats().blocks);

    // Detectors agree on every counter and per-node verdict.
    assert_eq!(sync_det.events(), thr_det.events());
    assert_eq!(sync_det.alarms(), thr_det.alarms());
    assert_eq!(sync_det.class_counts(), thr_det.class_counts());
    assert_eq!(sync_det.mean_margin(), thr_det.mean_margin());
    for node in 0..NODES {
        assert_eq!(sync_det.verdict(node), thr_det.verdict(node), "node {node}");
    }

    // Drift monitors agree on every comparison.
    assert_eq!(sync_drift.events(), thr_drift.events());
    assert_eq!(sync_drift.comparisons(), thr_drift.comparisons());
    assert_eq!(sync_drift.alarms(), thr_drift.alarms());
    assert_eq!(sync_drift.max_jsd(), thr_drift.max_jsd());
    for node in 0..NODES {
        assert_eq!(sync_drift.last_jsd(node), thr_drift.last_jsd(node));
        assert_eq!(sync_drift.peak_jsd(node), thr_drift.peak_jsd(node));
    }

    drop(sync_store);
    drop(thr_store);
    std::fs::remove_dir_all(&base).ok();
}
