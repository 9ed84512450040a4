//! The first true end-to-end streaming ODA loop: a whole fleet flows
//! frame → signature → `Tee(store, detector, drift)` in one composable,
//! allocation-free dataflow.
//!
//! ```text
//!                                      ┌─► SignatureStore     (persist, quantized)
//!  FleetScenario ─► FleetEngine ─► Tee ┼─► StreamingDetector  (fault classify)
//!   (+ injected faults)                └─► DriftMonitor       (JSD vs reference)
//! ```
//!
//! Offline, a CS model is trained on pooled healthy history and a
//! random-forest fault classifier on labelled faulted streams (the
//! `sim::faults` injectors applied to the fleet scenario's latent
//! state). Online, every node streams through the fleet engine; each
//! completed-window signature is persisted, classified and
//! drift-checked in a single delivery pass. The run reports detection
//! accuracy against the injected ground truth, alarm latency and
//! ingest throughput.
//!
//! ```sh
//! cargo run --release --example fleet_pipeline
//! PIPE_NODES=256 PIPE_FRAMES=900 cargo run --release --example fleet_pipeline
//! ```

use cwsmooth::analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth::core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth::core::error::Result as CoreResult;
use cwsmooth::core::fleet::{FleetEvent, FleetSink};
use cwsmooth::core::online::OnlineCs;
use cwsmooth::core::pipeline::Tee;
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
/// (label 0 = healthy, label i+1 = KINDS[i]). These five have strong
/// footprints on the eight observed fleet sensors.
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

/// Scores the detector's per-event verdicts against the injected ground
/// truth while forwarding every event — a plain [`FleetSink`] sitting
/// in the Tee right behind the detector.
struct Scorer<'a> {
    detector: &'a mut StreamingDetector,
    fleet: &'a FaultedFleet,
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

impl FleetSink for Scorer<'_> {
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

fn main() {
    let nodes = env_or("PIPE_NODES", 1024);
    let frames = env_or("PIPE_FRAMES", 1200);
    assert!(frames > FAULT_LEN + WL, "need room for fault segments");
    let spec = WindowSpec::new(WL, STRIDE).unwrap();
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes));
    println!(
        "fleet pipeline: {nodes} nodes x {FLEET_SENSORS} sensors, {frames} live frames, \
         CS-{L} over {WL}/{STRIDE} windows"
    );

    // ---- Offline 1: one CS model on pooled healthy history. A shared
    // model keeps signatures comparable across nodes (one block layout,
    // one ordering), which is what lets a single classifier serve the
    // whole fleet.
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

    // ---- Offline 2: labelled signature streams for the detector. Lab
    // nodes spread across racks run every fault kind at both settings;
    // healthy streams come from the clean scenario — from a *wider* node
    // set, since healthy behaviour (phases, periods, rack inlets) varies
    // more across the fleet than fault footprints do.
    let lab_nodes: Vec<usize> = (0..12)
        .map(|i| (i * nodes.div_ceil(12) + 3) % nodes)
        .collect();
    let healthy_nodes: Vec<usize> = (0..48.min(nodes))
        .map(|i| (i * nodes.div_ceil(48) + 1) % nodes)
        .collect();
    let label_frames = TRAIN + 400;
    let mut rows: Vec<(Vec<f64>, usize)> = Vec::new();
    for &node in &healthy_nodes {
        // Healthy, over two disjoint time ranges for workload variety.
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
    // The paper's 50-tree forest (depth-capped: 8-dim signatures need no
    // deep trees and the detector walks every tree per event).
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
    // starts staggered (but always after the drift monitor's calibration
    // period — production calibrates while known-healthy) so faults
    // overlap in time but not per node.
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

    // ---- Online: the fleet engine drives the 3-sink Tee.
    let dir = std::env::temp_dir().join(format!("cwsmooth-fleet-pipeline-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let mut store = SignatureStore::open(
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
    // Tumbling windows of 12 events span 120 frames — short enough that
    // a 300-frame fault always covers at least one whole window. The
    // reference accumulates 4 windows (480 frames, all pre-fault) so the
    // workload's own periodicity is inside the baseline, and the value
    // range is trimmed to where CS features actually live.
    let mut drift = DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 12,
        reference_windows: 4,
        threshold: 0.25,
        lo: -0.2,
        hi: 1.0,
    });
    let mut engine = FleetEngine::homogeneous(cs, nodes, spec).unwrap();
    let mut frame = engine.frame();

    let mut scorer = Scorer {
        detector: &mut detector,
        fleet: &fleet,
        t0: TRAIN,
        scored: 0,
        correct: 0,
        fault_scored: 0,
        fault_correct: 0,
        per_class: vec![(0, 0); KINDS.len() + 1],
        first_hit: vec![None; eval_segments],
    };
    let t1 = Instant::now();
    {
        let mut tee = Tee((&mut store, &mut scorer, &mut drift));
        for f in 0..frames {
            let t = TRAIN + f;
            frame.clear();
            for node in 0..nodes {
                fleet.reading_into(node, t, frame.slot_mut(node).unwrap());
            }
            engine.ingest_frame_sink(&frame, &mut tee).unwrap();
        }
    }
    let elapsed = t1.elapsed().as_secs_f64();
    let stats = engine.stats();
    println!(
        "\nonline: {frames} frames -> {} events through Tee(store, detector, drift) \
         in {:.0} ms ({:.0} k events/s, {:.2} M columns/s)",
        stats.events,
        elapsed * 1e3,
        stats.events as f64 / elapsed / 1e3,
        (frames * nodes) as f64 / elapsed / 1e6
    );
    store.flush().unwrap();
    println!(
        "store: {} events in {} segments, {:.1} KiB on disk (quantized)",
        store.events(),
        store.segments().len(),
        store.bytes_on_disk() as f64 / 1024.0
    );

    // ---- Detection scorecard.
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
    let alarmed: Vec<usize> = detector.alarmed_nodes().collect();
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
    // Drift is unsupervised: it flags any distribution change, injected
    // faults and natural workload drift alike. The useful signal is the
    // *separation* between faulted and clean nodes' peak JSD.
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
    println!("\nPASS: streaming ODA pipeline detected injected faults at >= 0.9 accuracy");
}
