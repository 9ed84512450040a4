//! `knn_search`: the store's read path as a restarted query server sees
//! it. Set-up ingests ~220k fleet signatures (with faults) through the
//! engine into a quant8 store with periodic flushes, compacts it, trains
//! IVF-PQ, then drops everything, reopens the store and rebuilds the
//! index. The timed part is one closed-loop client issuing
//! `query_indexed(k = 10, nprobe = 8)` for windows of the faulted nodes.
//!
//! The client passes over the query set until the run's time is up, and
//! the throughput is the set's size over the sum of each query's fastest
//! latency. A shared host alternates, at a millisecond scale, between a
//! fast state and one about 1.7x slower, and the share of a run spent in
//! each moves from run to run; a query's fastest pass is one the host
//! left alone, so the sum measures the code rather than that share. The
//! closed-loop mean over the run is printed beside it.

use crate::fleet::{self, report_store, write_trace, Generator, NODES};
use crate::metrics::Outcome;
use crate::trace::{latency_stats, now_ns, percentile, Span, StoreProbe, NO_PARENT};
use crate::{env, Ctx, Res};
use cwsmooth_core::error::Result as CoreResult;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetFrame, FleetSink};
use cwsmooth_core::pipeline::Tee;
use cwsmooth_net::NetSink;
use cwsmooth_sim::fleet::{FaultedFleet, FLEET_SENSORS};
use cwsmooth_store::{
    Compactor, CompactorConfig, Distance, Encoding, SignatureIndex, SignatureStore, StoreConfig,
};
use std::path::Path;

/// Frames streamed into the corpus: ~220k signatures of 1024 nodes
/// (gaps and the staggered start cost each node ~10% of its windows).
const CORPUS_FRAMES: usize = 2450;
/// Frames between store flushes during the corpus ingest.
const FLUSH_EVERY: usize = 64;
/// IVF cells, Lloyd iterations and PQ sub-quantizers of the index.
const NLIST: usize = 256;
const ITERS: usize = 8;
const PQ_M: usize = 4;
/// Neighbours per query and cells probed.
const K: usize = 10;
const NPROBE: usize = 8;
/// Distinct query vectors the client cycles through, strided over the
/// faulted nodes' windows (healthy ones and those inside a fault).
const QUERIES: usize = 4096;
/// Queries whose exact top-k is the recall reference, strided over the
/// query set.
const RECALL_SAMPLE: usize = 200;

/// Keeps the features of every window of a faulted node: the query set.
#[derive(Default)]
struct QueryTap {
    windows: Vec<Vec<f64>>,
    features: Vec<f64>,
}

impl FleetSink for QueryTap {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        if fleet::is_faulted_node(event.node) {
            event.signature.features_into(&mut self.features);
            self.windows.push(self.features.clone());
        }
        Ok(())
    }
}

/// The reopened store, its rebuilt index, and what set-up measured.
struct Corpus {
    index: SignatureIndex,
    events: u64,
    reopened_events: u64,
    queries: Vec<Vec<f64>>,
    bytes_per_event: f64,
    cs_ms: f64,
    gen_ns: u64,
    ingest_ns: u64,
    gaps: u64,
    /// Store write-path metrics of the corpus ingest.
    store_metrics: Outcome,
    compact_s: f64,
    commits: usize,
    open_ms: f64,
    build_s: f64,
    train_s: f64,
    reopen_train_s: f64,
    adopted: bool,
}

fn secs_since(t: u64) -> f64 {
    (now_ns() - t) as f64 / 1e9
}

fn store_config() -> StoreConfig {
    StoreConfig::default().with_encoding(Encoding::Quant8)
}

fn setup(ctx: &Ctx, dir: &Path, traced: bool) -> Res<Corpus> {
    let scenario = fleet::scenario(ctx.seed);
    let t = now_ns();
    let cs = fleet::train_cs(&scenario)?;
    let cs_ms = secs_since(t) * 1e3;
    let faulted = FaultedFleet::new(scenario, fleet::fault_plan());
    let mut engine = FleetEngine::homogeneous(cs, NODES, fleet::spec())?;
    let store = SignatureStore::open(dir, fleet::spec(), fleet::L, store_config())?;
    let mut sinks = Tee((StoreProbe::new(store, traced), QueryTap::default()));
    let mut gen = Generator::new(faulted, fleet::TRAIN);
    let mut frame = FleetFrame::new(NODES, FLEET_SENSORS);
    let (mut gen_ns, mut ingest_ns) = (0u64, 0u64);
    for f in 0..CORPUS_FRAMES {
        let t = now_ns();
        gen.fill(&mut frame)?;
        let filled = now_ns();
        engine.ingest_frame_sink(&frame, &mut sinks)?;
        gen_ns += filled - t;
        ingest_ns += now_ns() - filled;
        if (f + 1) % FLUSH_EVERY == 0 {
            sinks.0 .0.commit()?;
        }
    }
    let Tee((mut probe, tap)) = sinks;
    probe.store.seal()?;
    let events = probe.store.events();

    let t = now_ns();
    let mut compactor = Compactor::new(CompactorConfig {
        small_events: Some(u64::MAX),
        ..CompactorConfig::default()
    })?;
    let commits = compactor.run_until_idle(&mut probe.store)?;
    compactor.shutdown()?;
    let compact_s = secs_since(t);
    let bytes_per_event = probe.store.bytes_on_disk() as f64 / events.max(1) as f64;

    let t = now_ns();
    let base = SignatureIndex::build(&probe.store, Distance::L2)?;
    let build_s = secs_since(t);
    let t = now_ns();
    let cold = base.with_coarse_persisted(&probe.store, NLIST, ITERS, Some(PQ_M))?;
    let train_s = secs_since(t);

    // A restarted query server: nothing survives but the directory.
    drop(cold);
    let mut store_metrics = Outcome::default();
    report_store(&mut store_metrics, &probe);
    drop(probe);
    let t = now_ns();
    let reopened = SignatureStore::open(dir, fleet::spec(), fleet::L, store_config())?;
    let open_ms = secs_since(t) * 1e3;
    let base = SignatureIndex::build(&reopened, Distance::L2)?;
    let t = now_ns();
    let index = base.with_coarse_persisted(&reopened, NLIST, ITERS, Some(PQ_M))?;
    let reopen_train_s = secs_since(t);
    let adopted = index.quantizer_cached();

    let stride = tap.windows.len().div_ceil(QUERIES).max(1);
    let queries = tap.windows.into_iter().step_by(stride).collect();
    Ok(Corpus {
        index,
        events,
        reopened_events: reopened.events(),
        queries,
        bytes_per_event,
        cs_ms,
        gen_ns,
        ingest_ns,
        gaps: engine.stats().gaps,
        store_metrics,
        compact_s,
        commits,
        open_ms,
        build_s,
        train_s,
        reopen_train_s,
        adopted,
    })
}

/// Runs one pass of `knn_search`.
pub fn run(ctx: &Ctx, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (corpus, setup_s) =
        ctx.set_up(|rep| setup(ctx, &ctx.work.join(format!("knn-{rep}")), traced))?;
    out.set("setup_s", setup_s);
    if corpus.queries.is_empty() {
        return Err("the corpus holds no windows of faulted nodes to query".into());
    }

    // Timed: one closed-loop client, passes over the query set until the
    // deadline (at least one whole pass), keeping each query's fastest.
    let mut best_ns = vec![u64::MAX; corpus.queries.len()];
    let deadline = now_ns() + (ctx.seconds * 1e9) as u64;
    let mut latencies = Vec::with_capacity(1 << 22);
    let mut spans = Vec::new();
    let (mut failed, mut issued, mut passes) = (0u64, 0u64, 0u64);
    let began = now_ns();
    'timed: loop {
        for (best, q) in best_ns.iter_mut().zip(&corpus.queries) {
            let start = now_ns();
            if passes > 0 && start >= deadline {
                break 'timed;
            }
            let result = corpus.index.query_indexed(q, K, NPROBE);
            let end = now_ns();
            if !matches!(&result, Ok(hits) if hits.len() == K) {
                failed += 1;
            }
            *best = (*best).min(end - start);
            latencies.push((end - start) as f64 / 1e6);
            if traced {
                spans.push(Span {
                    name: "query.indexed",
                    start,
                    end,
                    parent: NO_PARENT,
                    id: issued,
                });
            }
            issued += 1;
        }
        passes += 1;
    }
    let elapsed = (now_ns() - began) as f64 / 1e9;
    out.attempted = issued;
    out.failed = failed;
    let best_s = best_ns.iter().sum::<u64>() as f64 / 1e9;
    out.set("throughput_per_s", corpus.queries.len() as f64 / best_s);
    out.note(format!(
        "closed-loop mean = {:.1} queries/s over {issued} queries ({passes} whole passes of {})",
        issued as f64 / elapsed,
        corpus.queries.len()
    ));
    let (p50, p90, p99, n) = latency_stats(&mut latencies);
    out.set("latency.p50_ms", p50);
    out.set("latency.p90_ms", p90);
    out.set("latency.p99_ms", p99);
    out.set("latency.samples", n as f64);
    out.note(format!(
        "query_p50_us = {:.2} us, query_p90_us = {:.2} us, query_p99_us = {:.2} us (n = {n})",
        p50 * 1e3,
        p90 * 1e3,
        p99 * 1e3
    ));
    out.set("bytes_per_event", corpus.bytes_per_event);

    // Recall reference, off the clock.
    let mut exact_us = Vec::new();
    let mut found = 0usize;
    let stride = corpus.queries.len().div_ceil(RECALL_SAMPLE).max(1);
    let sample: Vec<&Vec<f64>> = corpus.queries.iter().step_by(stride).collect();
    for q in &sample {
        let t = now_ns();
        let exact = corpus.index.query(q, K)?;
        exact_us.push((now_ns() - t) as f64 / 1e3);
        let approx = corpus.index.query_indexed(q, K, NPROBE)?;
        found += exact
            .iter()
            .filter(|e| {
                approx
                    .iter()
                    .any(|a| a.node == e.node && a.window_index == e.window_index)
            })
            .count();
    }
    let recall = found as f64 / (sample.len() * K) as f64;
    out.note(format!(
        "recall_at_10 = {recall:.4} over {} queries; index.sidecar_adopted = {}",
        sample.len(),
        u8::from(corpus.adopted)
    ));

    out.check("every query returned k neighbours", failed == 0);
    out.check(
        "the reopened store holds the whole corpus",
        corpus.events > 0 && corpus.reopened_events == corpus.events,
    );

    out.set("query.recall_at_10", recall);
    out.set("query.exact_us_p50", percentile(&mut exact_us, 50.0));
    out.set("cs.train_ms", corpus.cs_ms);
    out.set("compact.s", corpus.compact_s);
    out.set("compact.commits", corpus.commits as f64);
    out.set("store.open_ms", corpus.open_ms);
    out.set("index.build_s", corpus.build_s);
    out.set("index.train_s", corpus.train_s);
    out.set("index.reopen_train_s", corpus.reopen_train_s);
    out.set("index.sidecar_adopted", f64::from(u8::from(corpus.adopted)));
    let frames = CORPUS_FRAMES as f64;
    out.set("gen.fill_us_per_frame", corpus.gen_ns as f64 / frames / 1e3);
    out.set(
        "fleet.self_us_per_frame",
        corpus.ingest_ns as f64 / frames / 1e3,
    );
    out.set("fleet.events", corpus.events as f64);
    out.set("fleet.gaps", corpus.gaps as f64);
    out.set("peak_rss_mib", env::peak_rss_mib());
    if traced {
        out.values.extend(corpus.store_metrics.values);
        write_trace(ctx, spans.iter())?;
    }
    Ok(out)
}
