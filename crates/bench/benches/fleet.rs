//! Fleet ingest throughput: the [`FleetEngine`] against a bare serial
//! per-node loop over the same `OnlineCs` streams. Both run on one
//! thread and count events without copying them, so the engine/serial
//! ratio is what the engine's frame checks, staging and sink delivery
//! cost on top of the CS work itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cwsmooth_core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth_core::error::Result;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetFrame, FleetSink};
use cwsmooth_core::online::OnlineCs;
use cwsmooth_data::WindowSpec;
use cwsmooth_sim::fleet::{FleetScenario, FleetSimConfig};
use std::hint::black_box;

const TRAIN: usize = 192;
const FRAMES: usize = 64;
const BLOCKS: usize = 4;

fn spec() -> WindowSpec {
    WindowSpec::new(30, 10).unwrap()
}

fn methods_for(scenario: &FleetScenario) -> Vec<CsMethod> {
    (0..scenario.nodes())
        .map(|node| {
            let history = scenario.training_matrix(node, TRAIN);
            let model = CsTrainer::default().train(&history).unwrap();
            CsMethod::new(model, BLOCKS).unwrap()
        })
        .collect()
}

/// Pre-generates `FRAMES` live frames (starting after the training range).
fn frames_for(scenario: &FleetScenario) -> Vec<FleetFrame> {
    (0..FRAMES)
        .map(|f| {
            let mut frame = FleetFrame::new(scenario.nodes(), scenario.n_sensors());
            for node in 0..scenario.nodes() {
                let t = TRAIN + f;
                if !scenario.has_gap(node, t) {
                    scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
                }
            }
            frame
        })
        .collect()
}

/// Counts events by reference, as the serial arm does.
struct Count(usize);

impl FleetSink for Count {
    fn on_event(&mut self, _event: &FleetEvent) -> Result<()> {
        self.0 += 1;
        Ok(())
    }
}

fn bench_fleet_ingest(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_ingest");
    group.sample_size(20);
    for &nodes in &[64usize, 512] {
        let scenario = FleetScenario::new(FleetSimConfig::new(7, nodes).with_gaps(5));
        let methods = methods_for(&scenario);
        let frames = frames_for(&scenario);

        // Engine: one ingest call per frame.
        let mut engine = FleetEngine::new(methods.clone(), spec()).unwrap();
        group.bench_with_input(BenchmarkId::new("engine", nodes), &frames, |b, frames| {
            b.iter(|| {
                let mut count = Count(0);
                for frame in frames {
                    engine.ingest_frame_sink(frame, &mut count).unwrap();
                }
                black_box(count.0)
            })
        });

        // Serial: one thread walking every node's stream per frame.
        let mut streams: Vec<OnlineCs> = methods
            .iter()
            .map(|m| OnlineCs::new(m.clone(), spec()))
            .collect();
        let mut sig = CsSignature::default();
        group.bench_with_input(BenchmarkId::new("serial", nodes), &frames, |b, frames| {
            b.iter(|| {
                let mut emitted = 0usize;
                for frame in frames {
                    for (node, stream) in streams.iter_mut().enumerate() {
                        match frame.readings(node) {
                            Some(col) => {
                                if stream.push_into(col, &mut sig).unwrap() {
                                    emitted += 1;
                                }
                            }
                            None => stream.push_gap(),
                        }
                    }
                }
                black_box(emitted)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fleet_ingest);
criterion_main!(benches);
