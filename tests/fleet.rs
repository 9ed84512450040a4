//! End-to-end fleet streaming through the facade crate: simulator frames →
//! engine → signature events, checked against the batch pipeline.

use cwsmooth::core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth::core::fleet::{FleetEngine, FleetEvent};
use cwsmooth::data::{WindowIter, WindowSpec};
use cwsmooth::linalg::Matrix;
use cwsmooth::sim::fleet::{FleetScenario, FleetSimConfig, CONSTANT_SENSOR};

const NODES: usize = 48;
const TRAIN: usize = 128;
const FRAMES: usize = 200;

fn setup(gap_per_mille: u32) -> (FleetScenario, Vec<CsMethod>, WindowSpec) {
    let scenario = FleetScenario::new(FleetSimConfig::new(9, NODES).with_gaps(gap_per_mille));
    let methods = (0..NODES)
        .map(|node| {
            let history = scenario.training_matrix(node, TRAIN);
            let model = CsTrainer::default().train(&history).unwrap();
            CsMethod::new(model, 4).unwrap()
        })
        .collect();
    (scenario, methods, WindowSpec::new(20, 5).unwrap())
}

/// Batch-pipeline signatures over a contiguous live matrix.
fn batch(cs: &CsMethod, s: &Matrix, spec: WindowSpec) -> Vec<CsSignature> {
    WindowIter::new(spec, s.cols())
        .map(|w| {
            let sub = w.extract(s).unwrap();
            let hist = w.history(s);
            cs.signature(&sub, hist.as_deref()).unwrap()
        })
        .collect()
}

/// The live matrix a node produced over frames `TRAIN..TRAIN+FRAMES`,
/// restricted to one contiguous gap-free run `[from, to)`.
fn live_chunk(scenario: &FleetScenario, node: usize, from: usize, to: usize) -> Matrix {
    let mut m = Matrix::zeros(scenario.n_sensors(), to - from);
    let mut buf = vec![0.0; scenario.n_sensors()];
    for (c, f) in (from..to).enumerate() {
        scenario.reading_into(node, TRAIN + f, &mut buf);
        for (r, &v) in buf.iter().enumerate() {
            m.set(r, c, v);
        }
    }
    m
}

fn stream_fleet(
    scenario: &FleetScenario,
    methods: Vec<CsMethod>,
    spec: WindowSpec,
) -> (FleetEngine, Vec<FleetEvent>) {
    let mut engine = FleetEngine::new(methods, spec).unwrap();
    let mut frame = engine.frame();
    let mut all = Vec::new();
    for f in 0..FRAMES {
        let t = TRAIN + f;
        frame.clear();
        for node in 0..NODES {
            if !scenario.has_gap(node, t) {
                scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
            }
        }
        engine.ingest_frame_sink(&frame, &mut all).unwrap();
    }
    (engine, all)
}

#[test]
fn gap_free_fleet_matches_batch_pipeline_per_node() {
    let (scenario, methods, spec) = setup(0);
    let (engine, events) = stream_fleet(&scenario, methods.clone(), spec);

    assert_eq!(engine.stats().frames, FRAMES as u64);
    assert_eq!(engine.stats().gaps, 0);
    assert_eq!(engine.stats().events, events.len() as u64);
    let expect_per_node = spec.count(FRAMES);
    assert_eq!(events.len(), NODES * expect_per_node);

    for node in [0usize, 17, NODES - 1] {
        let expect = batch(
            &methods[node],
            &live_chunk(&scenario, node, 0, FRAMES),
            spec,
        );
        let got: Vec<&CsSignature> = events
            .iter()
            .filter(|e| e.node == node)
            .map(|e| &e.signature)
            .collect();
        assert_eq!(got.len(), expect.len());
        for (k, (g, e)) in got.iter().zip(&expect).enumerate() {
            assert_eq!(*g, e, "node {node} window {k}");
        }
    }
    // Every signature is finite even though one trained sensor (the PSU
    // rail) has collapsed bounds.
    assert!(events
        .iter()
        .flat_map(|e| e.signature.re.iter().chain(&e.signature.im))
        .all(|v| v.is_finite()));
}

#[test]
fn gappy_fleet_recovers_and_matches_chunked_batch() {
    let (scenario, methods, spec) = setup(20); // 2% node-frames dropped
    let (engine, events) = stream_fleet(&scenario, methods.clone(), spec);

    let total_gaps: usize = (0..NODES)
        .flat_map(|node| (0..FRAMES).map(move |f| (node, f)))
        .filter(|&(node, f)| scenario.has_gap(node, TRAIN + f))
        .count();
    assert!(total_gaps > 0, "scenario should drop some node-frames");
    assert_eq!(engine.stats().gaps, total_gaps as u64);

    // Per node: emissions equal the batch pipeline over each contiguous
    // present-run, and window indexes stay consecutive across gaps.
    for (node, method) in methods.iter().enumerate() {
        let mut expect = Vec::new();
        let mut run_start = 0usize;
        for f in 0..=FRAMES {
            if f == FRAMES || scenario.has_gap(node, TRAIN + f) {
                if f > run_start {
                    expect.extend(batch(
                        method,
                        &live_chunk(&scenario, node, run_start, f),
                        spec,
                    ));
                }
                run_start = f + 1;
            }
        }
        let node_events: Vec<&FleetEvent> = events.iter().filter(|e| e.node == node).collect();
        assert_eq!(node_events.len(), expect.len(), "node {node}");
        for (k, (e, want)) in node_events.iter().zip(&expect).enumerate() {
            assert_eq!(e.window_index, k, "node {node}");
            assert_eq!(&e.signature, want, "node {node} window {k}");
        }
    }
}

#[test]
fn constant_sensor_block_reads_mid_scale() {
    // The PSU rail is constant in training, so its trained bounds collapse
    // (hi == lo). With CS-All (one block per sensor) its block must sit
    // *exactly* at the 0.5 "no information" level with zero derivative —
    // the regression a missing zero-range guard would turn into NaN.
    let scenario = FleetScenario::new(FleetSimConfig::new(9, 8));
    let methods: Vec<CsMethod> = (0..scenario.nodes())
        .map(|node| {
            let history = scenario.training_matrix(node, TRAIN);
            CsMethod::all_blocks(CsTrainer::default().train(&history).unwrap()).unwrap()
        })
        .collect();
    let spec = WindowSpec::new(20, 5).unwrap();
    let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
    let mut frame = engine.frame();
    let mut all = Vec::new();
    for f in 0..60 {
        frame.clear();
        for node in 0..scenario.nodes() {
            scenario.reading_into(node, TRAIN + f, frame.slot_mut(node).unwrap());
        }
        engine.ingest_frame_sink(&frame, &mut all).unwrap();
    }
    assert!(!all.is_empty());
    for e in &all {
        let cs = &methods[e.node];
        let block = cs
            .model()
            .perm
            .iter()
            .position(|&p| p == CONSTANT_SENSOR)
            .unwrap();
        assert_eq!(e.signature.re[block], 0.5, "node {}", e.node);
        assert_eq!(e.signature.im[block], 0.0, "node {}", e.node);
    }
}
