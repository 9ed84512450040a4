//! Machine-readable signature-store performance snapshot: times ingest
//! per encoding, exact vs coarse-indexed k-NN queries and the on-disk
//! compression ratio on the fleet-sim workload, writing
//! `BENCH_store.json` (layout and one-core column:
//! [`cwsmooth_bench::snapshot`]).
//!
//! Usage: `cargo run --release -p cwsmooth-bench --bin
//! bench_store_snapshot [--reps R] [--out PATH]` (`BENCH_QUICK=1`
//! forces reps = 1 and a smaller workload for CI smoke runs).

use cwsmooth_bench::snapshot::{median, time_ms, tmpdir, Entries, Json, Run};
use cwsmooth_core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth_core::fleet::FleetEngine;
use cwsmooth_data::WindowSpec;
use cwsmooth_sim::fleet::{FleetScenario, FleetSimConfig};
use cwsmooth_store::{
    Compactor, CompactorConfig, Distance, Encoding, SignatureIndex, SignatureStore, StoreConfig,
};
use std::hint::black_box;
use std::time::Instant;

const L: usize = 4;
const TRAIN: usize = 256;

/// Fleet nodes and frames of the ingest workload.
fn workload(run: &Run) -> (usize, usize) {
    if run.quick {
        (16, 600)
    } else {
        (64, 2500)
    }
}

fn main() {
    let run = Run::capture("BENCH_store.json");
    let Some((current, one_core)) = run.measure(measure) else {
        return;
    };
    let (nodes, frames) = workload(&run);
    run.write(
        "kevents/s for *_kevents_per_s, raw/disk ratio for *_x, \
         us per query for *_us, ms for *_ms; counts otherwise",
        vec![
            ("nodes", Json::Int(nodes as u64)),
            ("frames", Json::Int(frames as u64)),
        ],
        &current,
        one_core.as_ref(),
    );
}

fn measure(run: &Run) -> Entries {
    let reps = run.reps;
    let (nodes, frames) = workload(run);

    let spec = WindowSpec::new(30, 10).unwrap();
    let scenario = FleetScenario::new(FleetSimConfig::new(42, nodes).with_gaps(5));
    let methods: Vec<CsMethod> = (0..nodes)
        .map(|node| {
            let history = scenario.training_matrix(node, TRAIN);
            CsMethod::new(CsTrainer::default().train(&history).unwrap(), L).unwrap()
        })
        .collect();

    let mut results = Entries::default();

    // Ingest throughput + compression ratio per encoding, fleet workload.
    let mut query_store: Option<SignatureStore> = None;
    for (tag, encoding) in [
        ("exact", Encoding::Exact),
        ("quant8", Encoding::Quant8),
        ("quant16", Encoding::Quant16),
    ] {
        let dir = tmpdir(tag);
        std::fs::remove_dir_all(&dir).ok();
        let cfg = StoreConfig::default().with_encoding(encoding);
        // Setup (store creation, engine construction) happens outside the
        // timer: the recorded number is frame ingest + flush only — the
        // hot path — so the snapshot tracks encoding cost, not setup.
        let mut last: Option<SignatureStore> = None;
        let mut samples: Vec<f64> = Vec::new();
        for _ in 0..reps.max(1) {
            std::fs::remove_dir_all(&dir).ok();
            let mut store = SignatureStore::open(&dir, spec, L, cfg).unwrap();
            let mut engine = FleetEngine::new(methods.clone(), spec).unwrap();
            let mut frame = engine.frame();
            let t0 = Instant::now();
            for f in 0..frames {
                let t = TRAIN + f;
                frame.clear();
                for node in 0..nodes {
                    if !scenario.has_gap(node, t) {
                        scenario.reading_into(node, t, frame.slot_mut(node).unwrap());
                    }
                }
                engine.ingest_frame_sink(&frame, &mut store).unwrap();
            }
            store.flush().unwrap();
            samples.push(t0.elapsed().as_secs_f64() * 1000.0);
            last = Some(store);
        }
        let ms = median(samples);
        let store = last.unwrap();
        let events = store.stats().events;
        results.record(
            &format!("store_ingest_{tag}_kevents_per_s"),
            events as f64 / ms,
        );
        let raw = events * (8 + 8 * store.dim() as u64);
        results.record(
            &format!("store_compression_{tag}_x"),
            raw as f64 / store.bytes_on_disk() as f64,
        );
        if encoding == Encoding::Exact {
            query_store = Some(store);
        } else {
            drop(store);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    // Query latency: exact scan vs coarse-indexed, same corpus.
    let store = query_store.unwrap();
    let index = SignatureIndex::build(&store, Distance::L2)
        .unwrap()
        .with_coarse(24, 10)
        .unwrap();
    let mut queries: Vec<Vec<f64>> = Vec::new();
    store
        .for_each(|_, w, feats| {
            if w % 37 == 0 && queries.len() < 64 {
                queries.push(feats.to_vec());
            }
        })
        .unwrap();
    results.record("store_index_size", index.len() as f64);
    let ms = time_ms(reps, || {
        for q in &queries {
            black_box(index.query(q, 10).unwrap());
        }
    });
    results.record(
        "store_query_exact_k10_us",
        ms * 1000.0 / queries.len() as f64,
    );
    let ms = time_ms(reps, || {
        for q in &queries {
            black_box(index.query_indexed(q, 10, 4).unwrap());
        }
    });
    results.record(
        "store_query_indexed_k10_us",
        ms * 1000.0 / queries.len() as f64,
    );
    let dir = store.dir().to_path_buf();
    drop(store);
    std::fs::remove_dir_all(&dir).ok();

    // ---- Size sweep: 10k / 100k / 1M synthetic signatures ----
    //
    // Gated by STORE_SWEEP_MAX: CI pins it to 100_000 so the smoke run
    // stays minutes-cheap; the 1M tier is a local/nightly run. Each
    // tier reports ingest, background compaction, cold (re-clustering)
    // vs warm (knn.idx sidecar) index training, and query latency
    // through the IVF-PQ path.
    let sweep_max: u64 = std::env::var("STORE_SWEEP_MAX")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(if run.quick { 10_000 } else { 1_000_000 });
    let mut state: u64 = 0x2545_f491_4f6c_dd1d;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    for &size in &[10_000u64, 100_000, 1_000_000] {
        if size > sweep_max {
            println!("store_sweep_{size}: skipped (STORE_SWEEP_MAX={sweep_max})");
            continue;
        }
        let tag = format!("sweep_{size}");
        let dir = tmpdir(&tag);
        std::fs::remove_dir_all(&dir).ok();
        // Segment size scales with the tier so every tier actually
        // seals a handful of segments for the compactor to merge.
        let segment_events = (size / 16).max(1024);
        let cfg = StoreConfig::default().with_segment_events(segment_events);
        let mut store = SignatureStore::open(&dir, spec, L, cfg).unwrap();
        let nodes = 256u32;
        let per_node = size / nodes as u64;
        let mut sig = CsSignature {
            re: vec![0.0; L],
            im: vec![0.0; L],
        };
        let t0 = Instant::now();
        for w in 0..per_node {
            for n in 0..nodes {
                // Clustered corpus: each node orbits its own center, so
                // the coarse quantizer has real structure to exploit.
                let c = n as f64 / nodes as f64;
                for i in 0..L {
                    sig.re[i] = c + 0.05 * next();
                    sig.im[i] = 0.5 - c + 0.05 * next();
                }
                store.push(n, w, &sig).unwrap();
            }
            // Periodic flushes, as a live collector would issue: blocks
            // reach the active segment continuously, so segment rolls
            // (and therefore compaction work) happen at every tier.
            let cadence = (segment_events / nodes as u64 / 4).max(1);
            if (w + 1).is_multiple_of(cadence) {
                store.flush().unwrap();
            }
        }
        store.flush().unwrap();
        results.record(
            &format!("store_{tag}_ingest_kevents_per_s"),
            store.stats().events as f64 / (t0.elapsed().as_secs_f64() * 1000.0),
        );

        // Background compaction down to a lean layout (every sealed
        // segment a candidate; cascading runs converge on one file).
        let mut compactor = Compactor::new(CompactorConfig {
            small_events: Some(u64::MAX),
            ..CompactorConfig::default()
        })
        .unwrap();
        let t0 = Instant::now();
        let commits = compactor.run_until_idle(&mut store).unwrap();
        compactor.shutdown().unwrap();
        results.record(
            &format!("store_{tag}_compact_ms"),
            t0.elapsed().as_secs_f64() * 1000.0,
        );
        results.record(&format!("store_{tag}_compact_runs"), commits as f64);

        // Cold training (k-means + PQ, sidecar written) vs warm reopen
        // (store closed and opened again, quantizer adopted from
        // knn.idx). The open and build/scan costs are kept outside both
        // timers so the ratio isolates re-clustering against the
        // sidecar load.
        let base = SignatureIndex::build(&store, Distance::L2).unwrap();
        let t0 = Instant::now();
        let index = base.with_coarse_persisted(&store, 256, 8, Some(4)).unwrap();
        let cold_ms = t0.elapsed().as_secs_f64() * 1000.0;
        assert!(!index.quantizer_cached(), "first training must be cold");
        drop(store);
        let store = SignatureStore::open(&dir, spec, L, cfg).unwrap();
        let base = SignatureIndex::build(&store, Distance::L2).unwrap();
        let t0 = Instant::now();
        let warm = base.with_coarse_persisted(&store, 256, 8, Some(4)).unwrap();
        let warm_ms = t0.elapsed().as_secs_f64() * 1000.0;
        assert!(
            warm.quantizer_cached(),
            "training after a reopen must hit knn.idx"
        );
        results.record(&format!("store_{tag}_train_cold_ms"), cold_ms);
        results.record(&format!("store_{tag}_train_warm_ms"), warm_ms);
        results.record(
            &format!("store_{tag}_train_warm_speedup_x"),
            cold_ms / warm_ms.max(1e-6),
        );

        // Query latency: a thin exact baseline plus the IVF-PQ path.
        let stride = (size / 64).max(1);
        let mut queries: Vec<Vec<f64>> = Vec::new();
        let mut seen = 0u64;
        store
            .for_each(|_, _, feats| {
                if seen.is_multiple_of(stride) && queries.len() < 64 {
                    queries.push(feats.to_vec());
                }
                seen += 1;
            })
            .unwrap();
        let exact_queries = &queries[..queries.len().min(8)];
        let ms = time_ms(1, || {
            for q in exact_queries {
                black_box(index.query(q, 10).unwrap());
            }
        });
        results.record(
            &format!("store_{tag}_query_exact_k10_us"),
            ms * 1000.0 / exact_queries.len() as f64,
        );
        let ms = time_ms(reps.min(3), || {
            for q in &queries {
                black_box(index.query_indexed(q, 10, 8).unwrap());
            }
        });
        results.record(
            &format!("store_{tag}_query_indexed_k10_us"),
            ms * 1000.0 / queries.len() as f64,
        );
        drop(index);
        drop(warm);
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }

    results
}
