//! Pins the single-ingest contract: [`FleetEngine::ingest_frame_sink`]
//! is the engine's only ingest entry point, and every sink handed to it
//! — a plain `Vec<FleetEvent>`, a `Collect`, or a tree built from the
//! `pipeline` operators — observes **bit-identical** [`FleetEvent`]s
//! (exact `==`, no tolerance) to independent per-node [`OnlineCs`]
//! streams, including across telemetry gaps.

use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::fleet::{FleetEngine, FleetEvent};
use cwsmooth_core::online::OnlineCs;
use cwsmooth_core::pipeline::{Collect, Filter, NodeRoute, Sample, Tee};
use cwsmooth_data::WindowSpec;
use cwsmooth_linalg::Matrix;

const NODES: usize = 11;
const SENSORS: usize = 5;
const FRAMES: usize = 120;

fn methods() -> Vec<CsMethod> {
    (0..NODES)
        .map(|node| {
            let s = Matrix::from_fn(SENSORS, 150, |r, c| {
                ((c as f64 / (2.0 + r as f64) + node as f64 * 0.31).sin() * (r + 1) as f64)
                    + 0.07 * node as f64
            });
            CsMethod::new(CsTrainer::default().train(&s).unwrap(), 3).unwrap()
        })
        .collect()
}

fn column(node: usize, t: usize) -> Vec<f64> {
    (0..SENSORS)
        .map(|r| (t as f64 / (2.0 + r as f64) + node as f64 * 0.31).cos() * (r + 1) as f64)
        .collect()
}

/// Node `i` drops frame `t` on a deterministic pattern.
fn gap(node: usize, t: usize) -> bool {
    (node + t).is_multiple_of(13)
}

fn engine() -> FleetEngine {
    FleetEngine::new(methods(), WindowSpec::new(8, 4).unwrap()).unwrap()
}

fn fill(frame: &mut cwsmooth_core::fleet::FleetFrame, t: usize) {
    frame.clear();
    for node in 0..NODES {
        if !gap(node, t) {
            frame
                .slot_mut(node)
                .unwrap()
                .copy_from_slice(&column(node, t));
        }
    }
}

/// The reference semantics: each node as an independent OnlineCs.
fn reference_events() -> Vec<FleetEvent> {
    let spec = WindowSpec::new(8, 4).unwrap();
    let mut streams: Vec<OnlineCs> = methods()
        .into_iter()
        .map(|m| OnlineCs::new(m, spec))
        .collect();
    let mut out = Vec::new();
    for t in 0..FRAMES {
        for (node, stream) in streams.iter_mut().enumerate() {
            if gap(node, t) {
                stream.push_gap();
            } else if let Some(signature) = stream.push(&column(node, t)).unwrap() {
                out.push(FleetEvent {
                    node,
                    window_index: stream.emitted() - 1,
                    signature,
                });
            }
        }
    }
    out
}

#[test]
fn sink_path_emits_events_bit_identical_to_per_node_streams() {
    let expect = reference_events();
    assert!(expect.len() > 100, "premise: a rich event stream");

    // A reused Vec, cleared before every frame.
    let mut via_vec = engine();
    let mut frame = via_vec.frame();
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut got_vec: Vec<FleetEvent> = Vec::new();
    for t in 0..FRAMES {
        fill(&mut frame, t);
        events.clear();
        via_vec.ingest_frame_sink(&frame, &mut events).unwrap();
        got_vec.extend(events.iter().cloned());
    }
    assert_eq!(got_vec, expect, "Vec sink");

    // A pipeline collector accumulating across frames.
    let mut via_collect = engine();
    let mut collect = Collect::new();
    for t in 0..FRAMES {
        fill(&mut frame, t);
        via_collect.ingest_frame_sink(&frame, &mut collect).unwrap();
    }
    assert_eq!(collect.events(), &expect[..], "Collect sink");

    // Both also agree on the counters.
    assert_eq!(via_vec.stats(), via_collect.stats());
    assert_eq!(via_collect.stats().events as usize, expect.len());
}

/// Operator trees forward events untouched: a Tee of (everything,
/// node-routed, sampled, filtered) collectors sees exactly the expected
/// per-branch slices of the bit-identical stream.
#[test]
fn pipeline_operators_preserve_events_bitwise() {
    let expect = reference_events();
    let mut engine = engine();
    let mut frame = engine.frame();
    let mut tree = Tee((
        Collect::new(),
        NodeRoute::new([2usize, 5], Collect::new()),
        Sample::every(2, Collect::new()),
        Filter::new(|e: &FleetEvent| e.signature.re[0] > 0.4, Collect::new()),
    ));
    for t in 0..FRAMES {
        fill(&mut frame, t);
        engine.ingest_frame_sink(&frame, &mut tree).unwrap();
    }
    let (all, routed, sampled, filtered) = (&tree.0 .0, &tree.0 .1, &tree.0 .2, &tree.0 .3);
    assert_eq!(all.events(), &expect[..]);
    let expect_routed: Vec<FleetEvent> = expect
        .iter()
        .filter(|e| e.node == 2 || e.node == 5)
        .cloned()
        .collect();
    assert_eq!(routed.sink().events(), &expect_routed[..]);
    let expect_sampled: Vec<FleetEvent> = expect
        .iter()
        .filter(|e| e.window_index % 2 == 0)
        .cloned()
        .collect();
    assert_eq!(sampled.sink().events(), &expect_sampled[..]);
    let expect_filtered: Vec<FleetEvent> = expect
        .iter()
        .filter(|e| e.signature.re[0] > 0.4)
        .cloned()
        .collect();
    assert!(!expect_filtered.is_empty() && expect_filtered.len() < expect.len());
    assert_eq!(filtered.sink().events(), &expect_filtered[..]);
}
