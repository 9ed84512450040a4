//! Machine-readable streaming-pipeline performance snapshot: events/s
//! through the fleet engine with one sink vs the full 3-sink
//! `Tee(store, detector, drift)` tree, plus per-event detector and
//! drift-monitor costs, writing `BENCH_pipeline.json` (layout and
//! one-core column: [`cwsmooth_bench::snapshot`]).
//!
//! Usage: `cargo run --release -p cwsmooth-bench --bin
//! bench_pipeline_snapshot [--reps R] [--out PATH]` (`BENCH_QUICK=1`
//! forces reps = 1 and a smaller workload for CI smoke runs).

use cwsmooth_analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth_bench::snapshot::{median, time_ms, tmpdir, Entries, Json, Run};
use cwsmooth_core::cs::{CsMethod, CsTrainer};
use cwsmooth_core::error::Result as CoreResult;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetSink};
use cwsmooth_core::pipeline::Tee;
use cwsmooth_core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth_data::WindowSpec;
use cwsmooth_ml::forest::{small_forest_config, RandomForestClassifier};
use cwsmooth_ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth_net::{BlockCodec, NetConfig, Server, ServerConfig, SocketSink, TcpAcceptor};
use cwsmooth_obs::Registry;
use cwsmooth_sim::fleet::{FleetScenario, FleetSimConfig};
use cwsmooth_store::{Encoding, SignatureStore, StoreConfig};
use std::hint::black_box;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const L: usize = 4;
const TRAIN: usize = 256;

/// A sink that only counts (the 1-sink lower bound on delivery cost).
#[derive(Default)]
struct Count(u64);

impl FleetSink for Count {
    fn on_event(&mut self, _event: &FleetEvent) -> CoreResult<()> {
        self.0 += 1;
        Ok(())
    }
}

fn detector_for(dim: usize) -> StreamingDetector {
    // A small forest over synthetic 2-class data at the signature shape;
    // the snapshot tracks per-event walk cost, not model quality.
    let x = cwsmooth_linalg::Matrix::from_fn(200, dim, |r, c| {
        ((r * 13 + c * 7) % 100) as f64 / 100.0 + (r % 2) as f64 * 0.4
    });
    let y: Vec<usize> = (0..200).map(|r| r % 2).collect();
    let mut forest = RandomForestClassifier::with_config(small_forest_config(5, true));
    forest.fit(&x, &y).unwrap();
    StreamingDetector::new(forest, DetectorConfig::default()).unwrap()
}

/// Parks the consumer thread behind a condvar while held, so the
/// producer's ingest cost can be timed without the consumer threads
/// competing for cycles (they sleep instead of draining). The envelope
/// pools warm up during a gated first phase and the measurement runs
/// over the second phase of the same stream.
struct Gate<S> {
    gate: Arc<(Mutex<bool>, Condvar)>,
    inner: S,
}

impl<S: FleetSink> FleetSink for Gate<S> {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        let (held, cv) = &*self.gate;
        let mut guard = held.lock().unwrap();
        while *guard {
            guard = cv.wait(guard).unwrap();
        }
        drop(guard);
        self.inner.on_event(event)
    }
}

fn gate_set(gate: &Arc<(Mutex<bool>, Condvar)>, value: bool) {
    let (held, cv) = &**gate;
    *held.lock().unwrap() = value;
    cv.notify_all();
}

fn drift_for() -> DriftMonitor {
    DriftMonitor::new(DriftConfig {
        bins: 8,
        window_events: 24,
        ..DriftConfig::default()
    })
}

/// Fleet nodes and frames of the workload.
fn workload(run: &Run) -> (usize, usize) {
    if run.quick {
        (16, 600)
    } else {
        (64, 2500)
    }
}

fn main() {
    let run = Run::capture("BENCH_pipeline.json");
    let Some((current, one_core)) = run.measure(measure) else {
        return;
    };
    let (nodes, frames) = workload(&run);
    run.write(
        "kevents/s for *_kevents_per_s, percent for *_pct, \
         us per event for *_us_per_event, events for *_high_watermark",
        vec![
            ("nodes", Json::Int(nodes as u64)),
            ("frames", Json::Int(frames as u64)),
        ],
        &current,
        one_core.as_ref(),
    );
}

fn measure(run: &Run) -> Entries {
    let (quick, reps) = (run.quick, run.reps);
    let (nodes, frames) = workload(run);

    let spec = WindowSpec::new(30, 10).unwrap();
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes));
    let methods: Vec<CsMethod> = (0..nodes)
        .map(|node| {
            let history = scenario.training_matrix(node, TRAIN);
            CsMethod::new(CsTrainer::default().train(&history).unwrap(), L).unwrap()
        })
        .collect();

    let mut results = Entries::default();

    // Shared frame-fill closure (generation cost is part of every
    // variant, so the 1-sink vs 3-sink delta isolates the sink tree).
    let run_frames = |engine: &mut FleetEngine, mut sink: &mut dyn FleetSink| {
        let mut frame = engine.frame();
        for f in 0..frames {
            let t = TRAIN + f;
            frame.clear();
            for node in 0..nodes {
                scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
            }
            // Through the &mut blanket impl: S = &mut dyn FleetSink.
            engine.ingest_frame_sink(&frame, &mut sink).unwrap();
        }
    };

    // ---- 1-sink baseline: counting sink (pure engine + delivery).
    let mut events_per_run = 0u64;
    let ms_count = time_ms(reps, || {
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        let mut sink = Count::default();
        run_frames(&mut engine, &mut sink);
        events_per_run = sink.0;
        black_box(sink.0);
    });
    results.record(
        "pipeline_1sink_count_kevents_per_s",
        events_per_run as f64 / ms_count,
    );

    // ---- 1-sink store (persistence only).
    let dir = tmpdir("store1");
    let ms_store = time_ms(reps, || {
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        let mut store = SignatureStore::open(
            &dir,
            spec,
            L,
            StoreConfig::default().with_encoding(Encoding::Quant8),
        )
        .unwrap();
        run_frames(&mut engine, &mut store);
        store.flush().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
    results.record(
        "pipeline_1sink_store_kevents_per_s",
        events_per_run as f64 / ms_store,
    );

    // ---- 3-sink Tee(store, detector, drift): the full ODA loop.
    let dir = tmpdir("tee3");
    let ms_tee = time_ms(reps, || {
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        let mut store = SignatureStore::open(
            &dir,
            spec,
            L,
            StoreConfig::default().with_encoding(Encoding::Quant8),
        )
        .unwrap();
        let mut detector = detector_for(2 * L);
        let mut drift = drift_for();
        let mut tee = Tee((&mut store, &mut detector, &mut drift));
        run_frames(&mut engine, &mut tee);
        store.flush().unwrap();
        black_box(detector.events());
    });
    std::fs::remove_dir_all(&dir).ok();
    results.record(
        "pipeline_tee3_kevents_per_s",
        events_per_run as f64 / ms_tee,
    );
    results.record(
        "pipeline_tee3_overhead_vs_1sink_pct",
        100.0 * (ms_tee - ms_count) / ms_count,
    );

    // ---- Threaded tree, ingest-thread cost: the stream splits into a
    // warm-up phase (consumers gated so every branch mints and pools its
    // envelopes) and a timed phase whose pushes draw only recycled
    // envelopes. Consumers sleep on the gate during the timed phase, so
    // the number isolates what the producer pays per event for the
    // off-thread hand-off: one envelope copy + queue push per branch.
    // Steady state keeps the queues shallow (the consumers keep up), so
    // the producer is measured in cache-hot chunks of at most half the
    // queue: consumers parked while a chunk is pushed (timed), then
    // released to drain it (untimed). The warm-up/measure split is
    // chunk-aligned so the sync and queued variants time the same
    // frames.
    let capacity = 256usize;
    // Round each chunk up to whole emission periods (multiples of the
    // window stride) so every chunk carries the same frames-per-event
    // ratio and per-chunk costs are directly comparable.
    let chunk_frames = ((capacity / 2) * frames / events_per_run.max(1) as usize)
        .max(1)
        .div_ceil(spec.ws)
        * spec.ws;
    let split = (frames * 2 / 5) / chunk_frames * chunk_frames;
    let fill = |frame: &mut cwsmooth_core::fleet::FleetFrame, t: usize| {
        frame.clear();
        for node in 0..nodes {
            scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
        }
    };

    // Matched synchronous baseline: the same chunked schedule into one
    // counting sink (the existing 1-sink metric times engine + sink
    // construction too; this one times only the chunks after the
    // warm-up split). Both samples report *per-chunk* ns/event; the
    // medians over all chunks of all interleaved passes are what get
    // compared, so a scheduler steal only poisons the ~1 ms chunk it
    // lands in, not a whole pass.
    let seg_reps = if quick { 1 } else { reps.max(1) * 4 };
    let sync_sample = || {
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        let mut frame = engine.frame();
        let mut sink = Count::default();
        let mut chunks = Vec::new();
        let mut f = 0usize;
        while f < frames {
            let chunk_end = (f + chunk_frames).min(frames);
            let timing = f >= split;
            let events_before = engine.stats().events;
            let t = Instant::now();
            for ff in f..chunk_end {
                fill(&mut frame, TRAIN + ff);
                engine.ingest_frame_sink(&frame, &mut sink).unwrap();
            }
            let ns = t.elapsed().as_nanos() as f64;
            let ev = engine.stats().events - events_before;
            if timing && ev > 0 {
                chunks.push(ns / ev as f64);
            }
            f = chunk_end;
        }
        black_box(sink.0);
        chunks
    };

    let dir = tmpdir("queued");
    // `instrument` is the observability A/B switch: the same ingest
    // path with the engine wired to a metrics registry (sampled
    // ingest-span histogram + frame/event/gap counters) and every
    // queue branch registered as the source of its `cws_queue_*`
    // series. A queue branch records nothing on the push path, so the
    // delta over the bare variant is what the engine's handles cost
    // the ingest thread per event.
    let queued_sample = |instrument: bool| {
        std::fs::remove_dir_all(&dir).ok();
        let registry = Registry::new();
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        if instrument {
            engine.attach_metrics(&registry);
        }
        let mut frame = engine.frame();
        let store = SignatureStore::open(
            &dir,
            spec,
            L,
            StoreConfig::default().with_encoding(Encoding::Quant8),
        )
        .unwrap();
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let cfg = QueueConfig {
            capacity,
            policy: QueuePolicy::Block,
        };
        let gated = |inner| Gate {
            gate: Arc::clone(&gate),
            inner,
        };
        let queue = |inner: Box<dyn FleetSink + Send>, label: &str| {
            if instrument {
                QueueSink::with_metrics(gated(inner), cfg, &registry, label)
            } else {
                QueueSink::with_config(gated(inner), cfg)
            }
        };
        let mut tee = Tee((
            queue(Box::new(store), "store"),
            queue(Box::new(detector_for(2 * L)), "detector"),
            queue(Box::new(drift_for()), "drift"),
        ));
        let mut f = 0usize;
        let mut chunks = Vec::new();
        while f < frames {
            let chunk_end = (f + chunk_frames).min(frames);
            // Chunks before the split warm the envelope pools, queue
            // storage, and consumer-side buffers; chunks after it are
            // the measurement.
            let timing = f >= split;
            gate_set(&gate, true);
            // Primer (untimed): ingest until one emission burst lands
            // and every consumer has woken — popped an event and
            // blocked on the gate — so the timed pushes see a *live*
            // consumer (steady state), not a parked one whose unpark
            // syscall would pollute the per-event cost.
            let ev0 = engine.stats().events;
            while f < chunk_end && engine.stats().events == ev0 {
                fill(&mut frame, TRAIN + f);
                engine.ingest_frame_sink(&frame, &mut tee).unwrap();
                f += 1;
            }
            let burst = (engine.stats().events - ev0) as usize;
            if burst > 0 {
                for q in [&tee.0 .0, &tee.0 .1, &tee.0 .2] {
                    while q.stats().depth >= burst {
                        std::thread::yield_now();
                    }
                }
            }
            let events_before = engine.stats().events;
            let t = Instant::now();
            for ff in f..chunk_end {
                fill(&mut frame, TRAIN + ff);
                engine.ingest_frame_sink(&frame, &mut tee).unwrap();
            }
            let ns = t.elapsed().as_nanos() as f64;
            let ev = engine.stats().events - events_before;
            if timing && ev > 0 {
                chunks.push(ns / ev as f64);
            }
            gate_set(&gate, false);
            // Wait until every pushed event is delivered, not just
            // popped: a consumer still inside its last delivery when
            // the next chunk closes the gate would hold that event
            // behind the gate, and the primer would wait forever for
            // it to pop the next one.
            for q in [&tee.0 .0, &tee.0 .1, &tee.0 .2] {
                loop {
                    let stats = q.stats();
                    if stats.delivered == stats.pushed {
                        break;
                    }
                    std::thread::yield_now();
                }
            }
            f = chunk_end;
        }
        assert!(!chunks.is_empty(), "no events in the timed chunks");
        let Tee((qs, qd, qm)) = tee;
        for q in [qs, qd, qm] {
            q.join().1.unwrap();
        }
        chunks
    };

    let mut sync_chunks = Vec::new();
    let mut queued_chunks = Vec::new();
    let mut instrumented_chunks = Vec::new();
    // Interleave bare and instrumented passes so drift in machine load
    // hits both arms of the A/B equally.
    for _ in 0..seg_reps {
        sync_chunks.extend(sync_sample());
        queued_chunks.extend(queued_sample(false));
        instrumented_chunks.extend(queued_sample(true));
    }
    std::fs::remove_dir_all(&dir).ok();
    let sync_ns = median(sync_chunks);
    let queued_ns = median(queued_chunks);
    let instrumented_ns = median(instrumented_chunks);
    results.record("pipeline_sync_ingest_kevents_per_s", 1e6 / sync_ns);
    results.record("pipeline_tee3_queued_ingest_kevents_per_s", 1e6 / queued_ns);
    results.record(
        "pipeline_tee3_queued_ingest_overhead_vs_1sink_pct",
        100.0 * (queued_ns / sync_ns - 1.0),
    );
    // The permanent observability gate: metrics-on vs bare ingest. The
    // instrumented arm pays the sampled span histogram and the
    // frame/event/gap counters; its queue series cost only a scrape.
    results.record(
        "pipeline_instrumented_bare_ingest_kevents_per_s",
        1e6 / queued_ns,
    );
    results.record(
        "pipeline_instrumented_metrics_ingest_kevents_per_s",
        1e6 / instrumented_ns,
    );
    results.record(
        "pipeline_instrumented_overhead_pct",
        100.0 * (instrumented_ns / queued_ns - 1.0),
    );

    // ---- Threaded tree, end to end: consumers live the whole run,
    // timed until every branch has drained and joined (same closure
    // shape as the synchronous tee3 above, so the two are comparable).
    let dir = tmpdir("queued-e2e");
    let mut watermarks = [0usize; 3];
    let ms_queued_e2e = time_ms(reps, || {
        std::fs::remove_dir_all(&dir).ok();
        let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
        let store = SignatureStore::open(
            &dir,
            spec,
            L,
            StoreConfig::default().with_encoding(Encoding::Quant8),
        )
        .unwrap();
        let cfg = QueueConfig {
            capacity: 1024,
            policy: QueuePolicy::Block,
        };
        let mut tee = Tee((
            QueueSink::with_config(store, cfg),
            QueueSink::with_config(detector_for(2 * L), cfg),
            QueueSink::with_config(drift_for(), cfg),
        ));
        run_frames(&mut engine, &mut tee);
        let Tee((qs, qd, qm)) = tee;
        watermarks = [
            qs.stats().high_watermark,
            qd.stats().high_watermark,
            qm.stats().high_watermark,
        ];
        let (mut store, r) = qs.join();
        r.unwrap();
        qd.join().1.unwrap();
        qm.join().1.unwrap();
        store.flush().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
    results.record(
        "pipeline_tee3_queued_e2e_kevents_per_s",
        events_per_run as f64 / ms_queued_e2e,
    );
    results.record(
        "pipeline_tee3_queued_e2e_overhead_vs_sync_tee3_pct",
        100.0 * (ms_queued_e2e - ms_tee) / ms_tee,
    );
    results.record("pipeline_queued_store_high_watermark", watermarks[0] as f64);
    results.record(
        "pipeline_queued_detector_high_watermark",
        watermarks[1] as f64,
    );
    results.record("pipeline_queued_drift_high_watermark", watermarks[2] as f64);

    // ---- Per-event sink costs, isolated on a pre-collected event set.
    let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
    let mut events: Vec<FleetEvent> = Vec::new();
    {
        let mut frame = engine.frame();
        for f in 0..frames.min(1200) {
            let t = TRAIN + f;
            frame.clear();
            for node in 0..nodes {
                scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
            }
            engine.ingest_frame_sink(&frame, &mut events).unwrap();
        }
    }
    let mut detector = detector_for(2 * L);
    let ms = time_ms(reps, || {
        for e in &events {
            detector.on_event(e).unwrap();
        }
        black_box(detector.events());
    });
    results.record(
        "pipeline_detector_us_per_event",
        ms * 1000.0 / events.len() as f64,
    );
    let mut drift = drift_for();
    let ms = time_ms(reps, || {
        for e in &events {
            drift.on_event(e).unwrap();
        }
        black_box(drift.events());
    });
    results.record(
        "pipeline_drift_us_per_event",
        ms * 1000.0 / events.len() as f64,
    );

    // ---- Cross-process transport A/B: the same pre-collected event
    // set pushed straight into a local store vs shipped through
    // `SocketSink` over loopback TCP into a server-owned store
    // (cwsmooth-net), timed end to end including the shutdown drain.
    // Producer and server thread share this host's cores (one core in
    // the `current_one_core` column), so the delta is loopback
    // transport cost on one machine, not a LAN measurement.
    let store_cfg = || StoreConfig::default().with_encoding(Encoding::Quant8);
    let dir = tmpdir("net-direct");
    let ms_direct = time_ms(reps, || {
        std::fs::remove_dir_all(&dir).ok();
        let mut store = SignatureStore::open(&dir, spec, L, store_cfg()).unwrap();
        for e in &events {
            store.on_event(e).unwrap();
        }
        store.flush().unwrap();
    });
    std::fs::remove_dir_all(&dir).ok();
    results.record(
        "pipeline_store_direct_kevents_per_s",
        events.len() as f64 / ms_direct,
    );

    let store_dir = tmpdir("net-store");
    let spill_dir = tmpdir("net-spill");
    let codec = BlockCodec::new(Encoding::Exact, L, spec).unwrap();
    let ms_socket = time_ms(reps, || {
        std::fs::remove_dir_all(&store_dir).ok();
        std::fs::remove_dir_all(&spill_dir).ok();
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let addr = acceptor.local_addr().unwrap();
        let mut store = SignatureStore::open(&store_dir, spec, L, store_cfg()).unwrap();
        let server = std::thread::spawn(move || {
            let cfg = ServerConfig {
                stop_on_bye: true,
                ..ServerConfig::default()
            };
            let mut server = Server::new(codec, cfg).unwrap();
            server.serve(&mut acceptor, &mut store).unwrap();
            store.flush().unwrap();
        });
        let mut sink = SocketSink::tcp(addr, codec, &spill_dir, NetConfig::default()).unwrap();
        for e in &events {
            sink.on_event(e).unwrap();
        }
        let (_, r) = sink.finish(Duration::from_secs(60));
        r.unwrap();
        server.join().unwrap();
    });
    std::fs::remove_dir_all(&store_dir).ok();
    std::fs::remove_dir_all(&spill_dir).ok();
    results.record(
        "pipeline_socket_store_kevents_per_s",
        events.len() as f64 / ms_socket,
    );
    results.record(
        "pipeline_socket_store_overhead_vs_direct_pct",
        100.0 * (ms_socket - ms_direct) / ms_direct,
    );

    results
}
