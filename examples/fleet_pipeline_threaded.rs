//! The streaming ODA pipeline with every sink moved **off the ingest
//! thread**: the same fleet flows frame → signature →
//! `Tee(Queue(store), Queue(scorer), Queue(drift))`, each branch a
//! bounded FIFO drained by its own consumer thread that *owns* its
//! sink.
//!
//! ```text
//!                                       ┌─► Queue ─► thread ─► SignatureStore
//!  FleetScenario ─► FleetEngine ─► Tee ─┼─► Queue ─► thread ─► Scorer(StreamingDetector)
//!   (+ injected faults)                 └─► Queue ─► thread ─► DriftMonitor
//! ```
//!
//! The ingest thread only copies each event into a recycled envelope
//! and pushes it onto three queues — persistence, classification and
//! drift checks happen concurrently on their own threads. Per-branch
//! FIFO order means the consumer sinks see exactly the event sequence
//! the synchronous `fleet_pipeline` example delivers, so the scorecard
//! below is held to the same acceptance bar (≥ 0.9 window accuracy).
//! After the run the sinks are recovered with `join()` and the queue
//! telemetry (pushed / high watermark / drops / in flight / consumer
//! wakeups) is reported per branch.
//!
//! ```sh
//! cargo run --release --example fleet_pipeline_threaded
//! PIPE_NODES=256 PIPE_FRAMES=900 cargo run --release --example fleet_pipeline_threaded
//! ```

use cwsmooth::analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth::core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth::core::error::Result as CoreResult;
use cwsmooth::core::fleet::{FleetEvent, FleetSink};
use cwsmooth::core::online::OnlineCs;
use cwsmooth::core::pipeline::Tee;
use cwsmooth::core::transport::{QueueConfig, QueuePolicy, QueueSink, QueueStats};
use cwsmooth::core::FleetEngine;
use cwsmooth::data::WindowSpec;
use cwsmooth::linalg::Matrix;
use cwsmooth::ml::forest::RandomForestClassifier;
use cwsmooth::ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth::sim::faults::{FaultKind, FaultSetting};
use cwsmooth::sim::fleet::{
    FaultSegmentSpec, FaultedFleet, FleetFaultPlan, FleetScenario, FleetSimConfig, FLEET_SENSORS,
};
use cwsmooth::store::{Encoding, SignatureStore, StoreConfig};
use std::time::Instant;

/// Fault kinds the detector is trained on, in dense-label order
/// (label 0 = healthy, label i+1 = KINDS[i]).
const KINDS: [FaultKind; 5] = [
    FaultKind::CpuOccupy,
    FaultKind::MemLeak,
    FaultKind::MemEater,
    FaultKind::NetDegrade,
    FaultKind::FreqCap,
];

const L: usize = 8;
const TRAIN: usize = 256;
const WL: usize = 30;
const STRIDE: usize = 10;
const FAULT_LEN: usize = 300;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Dense training/eval label of a fault class id (0 stays healthy).
fn dense_label(class_id: usize) -> Option<usize> {
    if class_id == 0 {
        return Some(0);
    }
    KINDS
        .iter()
        .position(|k| k.class_id() == class_id)
        .map(|i| i + 1)
}

/// Streams one node's frames `[from, to)` through a fresh `OnlineCs`
/// and hands every completed window to `take(window_index, features)`.
fn windows_of(
    cs: &CsMethod,
    spec: WindowSpec,
    read: impl Fn(usize, &mut [f64]),
    from: usize,
    to: usize,
    mut take: impl FnMut(usize, &[f64]),
) {
    let mut stream = OnlineCs::new(cs.clone(), spec);
    let mut column = vec![0.0; FLEET_SENSORS];
    let mut sig = CsSignature::default();
    let mut features: Vec<f64> = Vec::new();
    for t in from..to {
        read(t, &mut column);
        if stream.push_into(&column, &mut sig).unwrap() {
            sig.features_into(&mut features);
            take(stream.emitted() - 1, &features);
        }
    }
}

/// The detector plus its ground-truth scoreboard, packaged as one
/// *owned* [`FleetSink`] — unlike the synchronous example's borrowing
/// scorer, this one owns the [`StreamingDetector`] and a clone of the
/// fault plan so the whole thing is `Send` and can live on a consumer
/// thread behind a queue.
struct Scorer {
    detector: StreamingDetector,
    fleet: FaultedFleet,
    /// Absolute frame of stream sample 0.
    t0: usize,
    scored: u64,
    correct: u64,
    fault_scored: u64,
    fault_correct: u64,
    /// Per dense label: (windows scored, windows correct).
    per_class: Vec<(u64, u64)>,
    /// Per fault segment (plan order): end frame of the first correctly
    /// classified window, for alarm-latency accounting.
    first_hit: Vec<Option<usize>>,
}

impl FleetSink for Scorer {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        self.detector.on_event(event)?;
        // Window w covers absolute frames [a, b).
        let a = self.t0 + event.window_index * STRIDE;
        let b = a + WL;
        let class_a = self.fleet.class_at(event.node, a);
        let class_b = self.fleet.class_at(event.node, b - 1);
        if class_a != class_b {
            return Ok(()); // transition window: no single ground truth
        }
        let Some(truth) = dense_label(class_a) else {
            return Ok(());
        };
        let verdict = self.detector.verdict(event.node).unwrap().class;
        self.scored += 1;
        self.per_class[truth].0 += 1;
        if verdict == truth {
            self.correct += 1;
            self.per_class[truth].1 += 1;
        }
        if truth != 0 {
            self.fault_scored += 1;
            if verdict == truth {
                self.fault_correct += 1;
                let seg_idx = self
                    .fleet
                    .plan()
                    .segments()
                    .iter()
                    .position(|s| s.node == event.node && s.covers(a))
                    .expect("fault window belongs to a segment");
                let hit = &mut self.first_hit[seg_idx];
                if hit.is_none() {
                    *hit = Some(b);
                }
            }
        }
        Ok(())
    }
}

fn print_queue(tag: &str, stats: &QueueStats) {
    println!(
        "  {tag:>8} queue: {} pushed, high watermark {}/{}, {} dropped, {} in flight, \
         {} consumer wakeups",
        stats.pushed,
        stats.high_watermark,
        stats.capacity,
        stats.dropped,
        stats.in_flight,
        stats.wakeups
    );
}

fn main() {
    let nodes = env_or("PIPE_NODES", 1024);
    let frames = env_or("PIPE_FRAMES", 1200);
    assert!(frames > FAULT_LEN + WL, "need room for fault segments");
    let spec = WindowSpec::new(WL, STRIDE).unwrap();
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes));
    println!(
        "threaded fleet pipeline: {nodes} nodes x {FLEET_SENSORS} sensors, {frames} live frames, \
         CS-{L} over {WL}/{STRIDE} windows, 3 consumer threads"
    );

    // ---- Offline 1: one CS model on pooled healthy history (shared so
    // signatures stay comparable fleet-wide).
    let t0 = Instant::now();
    let pool_nodes: Vec<usize> = (0..8.min(nodes))
        .map(|i| (i * nodes.div_ceil(8)) % nodes)
        .collect();
    let mut pooled = Matrix::zeros(FLEET_SENSORS, pool_nodes.len() * TRAIN);
    let mut buf = [0.0; FLEET_SENSORS];
    for (i, &node) in pool_nodes.iter().enumerate() {
        for t in 0..TRAIN {
            scenario.reading_into(node, t, &mut buf);
            for (r, &v) in buf.iter().enumerate() {
                pooled.set(r, i * TRAIN + t, v);
            }
        }
    }
    let cs = CsMethod::new(CsTrainer::default().train(&pooled).unwrap(), L).unwrap();

    // ---- Offline 2: labelled signature streams for the detector (same
    // recipe as the synchronous example).
    let lab_nodes: Vec<usize> = (0..12)
        .map(|i| (i * nodes.div_ceil(12) + 3) % nodes)
        .collect();
    let healthy_nodes: Vec<usize> = (0..48.min(nodes))
        .map(|i| (i * nodes.div_ceil(48) + 1) % nodes)
        .collect();
    let label_frames = TRAIN + 400;
    let mut rows: Vec<(Vec<f64>, usize)> = Vec::new();
    for &node in &healthy_nodes {
        for range in [TRAIN..label_frames, label_frames..label_frames + 400] {
            windows_of(
                &cs,
                spec,
                |t, out| scenario.reading_into(node, t, out),
                range.start,
                range.end,
                |_, feats| rows.push((feats.to_vec(), 0)),
            );
        }
    }
    for &node in &lab_nodes {
        for (ki, &kind) in KINDS.iter().enumerate() {
            for setting in [FaultSetting::Low, FaultSetting::High] {
                let plan = FleetFaultPlan::new().with(FaultSegmentSpec {
                    node,
                    start: TRAIN,
                    len: label_frames - TRAIN,
                    kind,
                    setting,
                });
                let faulted = FaultedFleet::new(scenario, plan);
                windows_of(
                    &cs,
                    spec,
                    |t, out| faulted.reading_into(node, t, out),
                    TRAIN,
                    label_frames,
                    |_, feats| rows.push((feats.to_vec(), ki + 1)),
                );
            }
        }
    }
    let mut forest_cfg = cwsmooth::ml::forest::ForestConfig::classification(7);
    forest_cfg.tree.max_depth = Some(14);
    let mut forest = RandomForestClassifier::with_config(forest_cfg);
    forest
        .fit_labelled_rows(rows.iter().map(|(f, c)| (f.as_slice(), *c)))
        .unwrap();
    println!(
        "offline: CS model on {}-node pooled history + forest on {} labelled windows \
         ({} classes) in {:.0} ms",
        pool_nodes.len(),
        rows.len(),
        forest.n_classes(),
        t0.elapsed().as_secs_f64() * 1e3
    );

    // ---- Eval fault plan: one segment on every 8th node, kinds cycling,
    // starts staggered past the drift calibration period.
    let first_start = 520;
    assert!(
        frames > first_start + FAULT_LEN + WL,
        "need room for faults"
    );
    let mut plan = FleetFaultPlan::new();
    let mut eval_segments = 0usize;
    for (i, node) in (0..nodes).skip(4).step_by(8).enumerate() {
        let start = TRAIN + first_start + (i % 5) * ((frames - FAULT_LEN - first_start - WL) / 5);
        plan = plan.with(FaultSegmentSpec {
            node,
            start,
            len: FAULT_LEN,
            kind: KINDS[i % KINDS.len()],
            setting: FaultSetting::High,
        });
        eval_segments += 1;
    }
    let fleet = FaultedFleet::new(scenario, plan);

    // ---- Online: the engine drives a Tee of three queued branches.
    // Every sink is *moved onto its consumer thread*; the ingest loop
    // below never touches a store, forest or histogram again until the
    // joins hand them back.
    let dir = std::env::temp_dir().join(format!(
        "cwsmooth-fleet-pipeline-thr-{}",
        std::process::id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    let store = SignatureStore::open(
        &dir,
        spec,
        L,
        StoreConfig::default().with_encoding(Encoding::Quant8),
    )
    .unwrap();
    let mut detector = StreamingDetector::new(
        forest,
        DetectorConfig {
            healthy_class: 0,
            min_run: 2,
        },
    )
    .unwrap();
    detector.reserve_nodes(nodes);
    let drift = DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 12,
        reference_windows: 4,
        threshold: 0.25,
        lo: -0.2,
        hi: 1.0,
    });
    let mut engine = FleetEngine::homogeneous(cs, nodes, spec).unwrap();
    let mut frame = engine.frame();

    let scorer = Scorer {
        detector,
        fleet: fleet.clone(),
        t0: TRAIN,
        scored: 0,
        correct: 0,
        fault_scored: 0,
        fault_correct: 0,
        per_class: vec![(0, 0); KINDS.len() + 1],
        first_hit: vec![None; eval_segments],
    };
    // One queue per branch. Block on full: the ODA verdicts must see
    // every event, so backpressure (not shedding) is the right policy
    // when the classifier momentarily lags a signature burst.
    let cfg = QueueConfig {
        capacity: 1024,
        policy: QueuePolicy::Block,
    };
    let mut tee = Tee((
        QueueSink::with_config(store, cfg),
        QueueSink::with_config(scorer, cfg),
        QueueSink::with_config(drift, cfg),
    ));
    let t1 = Instant::now();
    for f in 0..frames {
        let t = TRAIN + f;
        frame.clear();
        for node in 0..nodes {
            fleet.reading_into(node, t, frame.slot_mut(node).unwrap());
        }
        engine.ingest_frame_sink(&frame, &mut tee).unwrap();
    }
    let ingest_elapsed = t1.elapsed().as_secs_f64();
    let stats = engine.stats();

    // Recover the sinks: join waits for each branch to drain, stops its
    // consumer thread and hands the sink back.
    let Tee((qs, qd, qm)) = tee;
    let store_q = qs.stats();
    let scorer_q = qd.stats();
    let drift_q = qm.stats();
    let (mut store, r) = qs.join();
    r.unwrap();
    let (scorer, r) = qd.join();
    r.unwrap();
    let (drift, r) = qm.join();
    r.unwrap();
    let total_elapsed = t1.elapsed().as_secs_f64();

    println!(
        "\nonline: {frames} frames -> {} events through Tee(Queue(store), Queue(scorer), \
         Queue(drift)); ingest thread {:.0} ms ({:.0} k events/s, {:.2} M columns/s), \
         drained+joined at {:.0} ms",
        stats.events,
        ingest_elapsed * 1e3,
        stats.events as f64 / ingest_elapsed / 1e3,
        (frames * nodes) as f64 / ingest_elapsed / 1e6,
        total_elapsed * 1e3
    );
    print_queue("store", &store_q);
    print_queue("scorer", &scorer_q);
    print_queue("drift", &drift_q);
    assert_eq!(store_q.pushed, stats.events, "store branch lost events");
    assert_eq!(scorer_q.pushed, stats.events, "scorer branch lost events");
    assert_eq!(drift_q.pushed, stats.events, "drift branch lost events");

    store.flush().unwrap();
    println!(
        "store: {} events in {} segments, {:.1} KiB on disk (quantized)",
        store.events(),
        store.segments().len(),
        store.bytes_on_disk() as f64 / 1024.0
    );

    // ---- Detection scorecard (identical accounting to the synchronous
    // example — the queues preserve per-node order, so the verdict
    // stream is the same).
    let accuracy = scorer.correct as f64 / scorer.scored.max(1) as f64;
    let fault_recall = scorer.fault_correct as f64 / scorer.fault_scored.max(1) as f64;
    let detected = scorer.first_hit.iter().filter(|h| h.is_some()).count();
    let latencies: Vec<f64> = scorer
        .first_hit
        .iter()
        .enumerate()
        .filter_map(|(i, hit)| hit.map(|end| (end - fleet.plan().segments()[i].start) as f64))
        .collect();
    let mean_latency = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    println!(
        "\ndetector: {:.1}% window accuracy ({} windows scored), \
         {:.1}% fault-window accuracy",
        100.0 * accuracy,
        scorer.scored,
        100.0 * fault_recall
    );
    for (label, &(scored, correct)) in scorer.per_class.iter().enumerate() {
        let name = if label == 0 {
            "healthy"
        } else {
            KINDS[label - 1].name()
        };
        println!(
            "  {name:>14}: {:>6.1}% of {scored} windows",
            100.0 * correct as f64 / scored.max(1) as f64
        );
    }
    println!(
        "alarms: {detected}/{eval_segments} injected faults detected, \
         mean first-detection latency {:.0} frames (window covers {WL})",
        mean_latency
    );
    let alarmed: Vec<usize> = scorer.detector.alarmed_nodes().collect();
    let faulty_now: Vec<usize> = fleet
        .plan()
        .segments()
        .iter()
        .filter(|s| s.covers(TRAIN + frames - 1))
        .map(|s| s.node)
        .collect();
    println!(
        "detector alarms live on {} nodes (ground truth: {} nodes faulted at end of run)",
        alarmed.len(),
        faulty_now.len()
    );
    let faulted_nodes: Vec<usize> = fleet.plan().segments().iter().map(|s| s.node).collect();
    let mean_peak = |sel: &dyn Fn(usize) -> bool| {
        let peaks: Vec<f64> = (0..nodes)
            .filter(|&n| sel(n))
            .filter_map(|n| drift.peak_jsd(n))
            .collect();
        peaks.iter().sum::<f64>() / peaks.len().max(1) as f64
    };
    let peak_faulted = mean_peak(&|n| faulted_nodes.contains(&n));
    let peak_clean = mean_peak(&|n| !faulted_nodes.contains(&n));
    println!(
        "drift monitor: {} comparisons, max JSD {:.3}; mean peak JSD {:.3} on faulted \
         nodes vs {:.3} on clean ones ({} nodes over the {:.2} alarm threshold)",
        drift.comparisons(),
        drift.max_jsd(),
        peak_faulted,
        peak_clean,
        drift.alarmed_nodes().count(),
        drift.config().threshold
    );
    assert!(
        peak_faulted > peak_clean,
        "injected faults should drift more than healthy workload wander"
    );

    assert!(
        accuracy >= 0.9,
        "detection accuracy {accuracy:.3} below the 0.9 acceptance bar"
    );
    std::fs::remove_dir_all(&dir).ok();
    println!(
        "\nPASS: threaded ODA pipeline (3 queued consumer threads) detected injected faults \
         at >= 0.9 accuracy"
    );
}
