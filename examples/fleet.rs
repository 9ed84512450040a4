//! Fleet-scale streaming: a whole machine island of nodes pushing
//! telemetry through the [`FleetEngine`], with per-node trained models,
//! injected telemetry gaps, and a bare per-node loop as the reference
//! the engine's overhead is measured against.
//!
//! ```sh
//! cargo run --release --example fleet
//! FLEET_NODES=4096 FLEET_FRAMES=1000 cargo run --release --example fleet
//! ```

use cwsmooth::core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth::core::fleet::{FleetEngine, FleetEvent};
use cwsmooth::core::online::OnlineCs;
use cwsmooth::data::WindowSpec;
use cwsmooth::sim::fleet::{FleetScenario, FleetSimConfig, FLEET_SENSOR_NAMES};
use rayon::prelude::*;
use std::time::Instant;

fn env_or(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let nodes = env_or("FLEET_NODES", 1024);
    let frames = env_or("FLEET_FRAMES", 1500);
    let train = 256usize;
    let spec = WindowSpec::new(30, 10).unwrap();

    // One island: racks of 32 nodes, ~0.5% of node-frames dropped.
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes).with_gaps(5));
    println!(
        "fleet: {nodes} nodes x {} sensors ({}...), racks of {}",
        scenario.n_sensors(),
        FLEET_SENSOR_NAMES[..3].join(", "),
        scenario.config().nodes_per_rack
    );

    // Offline: train one CS model per node on its own clean history — the
    // sensor correlations (and hence the learned row ordering) differ per
    // node, so models are not interchangeable.
    let t0 = Instant::now();
    let methods: Vec<CsMethod> = (0..nodes)
        .into_par_iter()
        .map(|node| {
            let history = scenario.training_matrix(node, train);
            let model = CsTrainer::default().train(&history).unwrap();
            CsMethod::new(model, 4).unwrap()
        })
        .collect();
    println!(
        "trained {nodes} per-node models ({train} samples each) in {:.0} ms",
        t0.elapsed().as_secs_f64() * 1e3
    );

    // Online: stream frames through the engine (live time starts after
    // training).
    let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
    let mut frame = engine.frame();
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut total_events = 0usize;
    let mut hottest: Option<FleetEvent> = None;
    let t1 = Instant::now();
    for f in 0..frames {
        let t = train + f;
        frame.clear();
        for node in 0..nodes {
            if !scenario.has_gap(node, t) {
                scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
            }
        }
        engine.ingest_frame_sink(&frame, &mut events).unwrap();
        total_events += events.len();
        for e in events.drain(..) {
            let peak = e.signature.re.iter().copied().fold(0.0, f64::max);
            if hottest
                .as_ref()
                .map(|h| peak > h.signature.re.iter().copied().fold(0.0, f64::max))
                .unwrap_or(true)
            {
                hottest = Some(e);
            }
        }
    }
    let engine_s = t1.elapsed().as_secs_f64();
    let stats = engine.stats();
    let columns = (frames * nodes) as f64;
    println!(
        "engine ingest: {frames} frames -> {total_events} signatures in {:.0} ms \
         ({:.2} M columns/s, {} node-frames dropped & recovered)",
        engine_s * 1e3,
        columns / engine_s / 1e6,
        stats.gaps
    );
    if let Some(h) = &hottest {
        println!(
            "hottest window: node {} window #{} re[0..2]={:.3?}",
            h.node,
            h.window_index,
            &h.signature.re[..2.min(h.signature.re.len())]
        );
    }

    // Reference: the same streams walked in a bare per-node loop, with
    // no frame, staging or sink.
    let mut streams: Vec<OnlineCs> = methods
        .into_iter()
        .map(|m| OnlineCs::new(m, spec))
        .collect();
    let mut sig = CsSignature::default();
    let mut column = vec![0.0; scenario.n_sensors()];
    let mut serial_events = 0usize;
    let t2 = Instant::now();
    for f in 0..frames {
        let t = train + f;
        for (node, stream) in streams.iter_mut().enumerate() {
            if scenario.has_gap(node, t) {
                stream.push_gap();
            } else {
                scenario.reading_into(node, t, &mut column);
                if stream.push_into(&column, &mut sig).unwrap() {
                    serial_events += 1;
                }
            }
        }
    }
    let serial = t2.elapsed().as_secs_f64();
    assert_eq!(serial_events, total_events, "serial loop and engine differ");
    println!(
        "serial loop: {:.0} ms ({:.2} M columns/s)",
        serial * 1e3,
        columns / serial / 1e6
    );
    println!(
        "engine overhead over the serial loop: {:+.1}% (frames, staging, cloning events out)",
        100.0 * (engine_s / serial - 1.0)
    );
}
