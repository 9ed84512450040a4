//! `fleet_local`: engine → `Tee(Queue(store, quant8), Queue(detector),
//! Queue(drift))` under `QueuePolicy::Block`, in one process. The
//! result of an event is the detector's verdict on its window.

use crate::fleet::{
    self, check_store, dense_label, report_queue, report_store, write_trace, Branch, Ingest,
    Pipeline, NODES, WL,
};
use crate::metrics::Outcome;
use crate::trace::{now_ns, Probe, StoreProbe};
use crate::{env, Ctx, Res};
use cwsmooth_analysis::drift::{DriftConfig, DriftMonitor};
use cwsmooth_core::error::Result as CoreResult;
use cwsmooth_core::fleet::{FleetEngine, FleetEvent, FleetSink};
use cwsmooth_core::pipeline::Tee;
use cwsmooth_core::transport::{QueueConfig, QueuePolicy, QueueSink};
use cwsmooth_ml::streaming::{DetectorConfig, StreamingDetector};
use cwsmooth_obs::Registry;
use cwsmooth_sim::fleet::FaultedFleet;
use cwsmooth_store::{Encoding, SignatureStore, StoreConfig};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

/// The detector branch's sink: the streaming detector plus what the
/// benchmark needs to score and age its verdicts after the run.
#[derive(Debug)]
pub struct Scorer {
    detector: StreamingDetector,
    /// Stamp each verdict's return time (live phase only).
    stamp: bool,
    /// `(node, verdict class)` of every event, in delivery order.
    verdicts: Vec<(u16, u8)>,
    /// Return time of `on_event` for each live event.
    returned: Vec<u64>,
}

impl FleetSink for Scorer {
    fn on_event(&mut self, event: &FleetEvent) -> CoreResult<()> {
        self.detector.on_event(event)?;
        if self.stamp {
            self.returned.push(now_ns());
        }
        let class = self
            .detector
            .verdict(event.node)
            .map_or(u8::MAX, |v| v.class as u8);
        self.verdicts.push((event.node as u16, class));
        Ok(())
    }
}

type Queued<S> = Probe<QueueSink<Probe<S>>>;
type Tree = Tee<(Queued<StoreProbe>, Queued<Scorer>, Queued<DriftMonitor>)>;

/// The persistent sinks and what each phase's queues recorded.
#[derive(Debug)]
struct Local {
    store: Option<Probe<StoreProbe>>,
    scorer: Option<Probe<Scorer>>,
    drift: Option<Probe<DriftMonitor>>,
    registry: Registry,
    traced: bool,
    frame_clock: Arc<AtomicU64>,
    branches: [Branch; 3],
    /// Whether the open tree is the live phase's.
    live: bool,
    /// When the open tree was built (ns since the epoch).
    opened: u64,
    /// Consumer busy time of detector and drift when the live phase ended.
    busy_after_live: Option<[u64; 2]>,
    /// Wall time of the backfill bursts, open to drained.
    backfill_ns: u64,
}

const LABELS: [&str; 3] = ["store", "detector", "drift"];
const PUSH_SPANS: [&str; 3] = [
    "queue.store.push",
    "queue.detector.push",
    "queue.drift.push",
];

fn queue<S: FleetSink + Send + 'static>(
    consumer: Probe<S>,
    registry: &Registry,
    label: &str,
    span: &'static str,
    traced: bool,
    frame_clock: &Arc<AtomicU64>,
) -> Queued<S> {
    let cfg = QueueConfig {
        capacity: 1024,
        policy: QueuePolicy::Block,
    };
    let queue = QueueSink::with_metrics(consumer, cfg, registry, label);
    Probe::new(queue, span, traced, Some(Arc::clone(frame_clock)))
}

/// Joins one branch, returning its consumer-side probe.
fn join<S>(branch: &mut Branch, producer: Queued<S>) -> Res<Probe<S>> {
    branch.push.absorb(producer.rec);
    let (inner, stats, result) = producer.inner.join_timeout(Duration::from_secs(60));
    result?;
    branch.stats.push(stats);
    inner.ok_or_else(|| "queue consumer did not drain".into())
}

impl Pipeline for Local {
    type Tree = Tree;

    fn open(&mut self, live: bool) -> Res<Tree> {
        let (Some(store), Some(mut scorer), Some(drift)) =
            (self.store.take(), self.scorer.take(), self.drift.take())
        else {
            return Err("sinks already in a tree".into());
        };
        scorer.inner.stamp = live;
        if !live && self.busy_after_live.is_none() {
            self.busy_after_live = Some([scorer.rec.busy_ns, drift.rec.busy_ns]);
        }
        let (r, t, c) = (&self.registry, self.traced, &self.frame_clock);
        let tree = Tee((
            queue(store, r, LABELS[0], PUSH_SPANS[0], t, c),
            queue(scorer, r, LABELS[1], PUSH_SPANS[1], t, c),
            queue(drift, r, LABELS[2], PUSH_SPANS[2], t, c),
        ));
        self.live = live;
        self.opened = now_ns();
        Ok(tree)
    }

    fn pushed_ns(&self, tree: &Tree) -> u64 {
        let Tee((a, b, c)) = tree;
        a.rec.busy_ns + b.rec.busy_ns + c.rec.busy_ns
    }

    fn close(&mut self, tree: Tree) -> Res<u64> {
        let Tee((a, b, c)) = tree;
        let [ba, bb, bc] = &mut self.branches;
        let store = join(ba, a)?;
        let scorer = join(bb, b)?;
        let drift = join(bc, c)?;
        let done = now_ns();
        if !self.live {
            self.backfill_ns += done - self.opened;
        }
        self.store = Some(store);
        self.scorer = Some(scorer);
        self.drift = Some(drift);
        Ok(done)
    }
}

/// Everything built before the first timed operation.
struct Setup {
    ingest: Ingest,
    pipe: Local,
    cs_ms: f64,
    forest_s: f64,
}

fn setup(ctx: &Ctx, rep: usize, traced: bool) -> Res<Setup> {
    let scenario = fleet::scenario(ctx.seed);
    let t = now_ns();
    let cs = fleet::train_cs(&scenario)?;
    let cs_ms = (now_ns() - t) as f64 / 1e6;
    let t = now_ns();
    let forest = fleet::train_forest(&scenario, &cs)?;
    let forest_s = (now_ns() - t) as f64 / 1e9;
    let fleet = FaultedFleet::new(scenario, fleet::fault_plan());

    let registry = Registry::new();
    let mut engine = FleetEngine::homogeneous(cs, NODES, fleet::spec())?;
    engine.attach_metrics(&registry);
    let store = SignatureStore::open(
        ctx.work.join(format!("store-{rep}")),
        fleet::spec(),
        fleet::L,
        StoreConfig::default().with_encoding(Encoding::Quant8),
    )?;
    let mut detector = StreamingDetector::new(
        forest,
        DetectorConfig {
            healthy_class: 0,
            min_run: 2,
        },
    )?;
    detector.reserve_nodes(NODES);
    let drift = DriftMonitor::new(DriftConfig {
        bins: 6,
        window_events: 12,
        reference_windows: 4,
        threshold: 0.25,
        lo: -0.2,
        hi: 1.0,
    });
    let live_events = ctx.live_events_bound();
    let scorer = Scorer {
        detector,
        stamp: false,
        verdicts: Vec::with_capacity(live_events),
        returned: Vec::with_capacity(live_events),
    };
    let gen = fleet::Generator::new(fleet, fleet::TRAIN);
    let ingest = Ingest::new(engine, gen, traced, ctx.live_secs());
    let pipe = Local {
        store: Some(Probe::new(
            StoreProbe::new(store, traced),
            "store",
            traced,
            None,
        )),
        scorer: Some(Probe::new(scorer, "detector", traced, None)),
        drift: Some(Probe::new(drift, "drift", traced, None)),
        registry,
        traced,
        frame_clock: Arc::clone(&ingest.frame_clock),
        branches: Default::default(),
        live: false,
        opened: 0,
        busy_after_live: None,
        backfill_ns: 0,
    };
    Ok(Setup {
        ingest,
        pipe,
        cs_ms,
        forest_s,
    })
}

/// Window accuracy of the detector against the injected faults, over
/// windows with a single ground truth: `(scored, correct)`.
fn score(ingest: &Ingest, verdicts: &[(u16, u8)]) -> (u64, u64) {
    let fleet = &ingest.gen.fleet;
    let (mut scored, mut correct) = (0u64, 0u64);
    for (k, &(node, class)) in verdicts.iter().enumerate() {
        let close = ingest.frame_t[ingest.frame_of(k as u64)];
        let node = usize::from(node);
        let first = fleet.class_at(node, close + 1 - WL);
        if first != fleet.class_at(node, close) {
            continue; // a transition window has no single truth
        }
        let Some(truth) = dense_label(first) else {
            continue;
        };
        scored += 1;
        correct += u64::from(truth == usize::from(class));
    }
    (scored, correct)
}

/// Runs one pass of `fleet_local`.
pub fn run(ctx: &Ctx, traced: bool) -> Res<Outcome> {
    let mut out = Outcome::default();
    let (built, setup_s) = ctx.set_up(|rep| setup(ctx, rep, traced))?;
    let Setup {
        mut ingest,
        mut pipe,
        cs_ms,
        forest_s,
    } = built;
    out.set("setup_s", setup_s);
    out.set("cs.train_ms", cs_ms);
    out.set("forest.fit_s", forest_s);

    ingest.live(&mut pipe, fleet::LIVE_FPS, ctx.live_secs())?;
    out.set("peak_rss_mib", env::peak_rss_mib());
    ingest.backfill(&mut pipe, ctx.backfill_secs())?;
    ingest.report_rate(&mut out);

    let (Some(store), Some(scorer), Some(drift)) =
        (pipe.store.take(), pipe.scorer.take(), pipe.drift.take())
    else {
        return Err("sinks were not returned by the last phase".into());
    };
    let events = ingest.engine.stats().events;
    out.attempted = events;

    // Verdict age of every live event.
    let returned = &scorer.inner.returned;
    let ages = fleet::ages_ms(&ingest, ingest.live_events(), |k| {
        returned.get(k as usize).copied()
    });
    fleet::report_ages(&mut out, "verdict_age", ages);

    // Output checks, off the clock. An event counts as failed when one
    // of the branches did not deliver it or the store does not hold it.
    let mut missing = 0u64;
    for (label, branch) in LABELS.iter().zip(&pipe.branches) {
        let (pushed, delivered, dropped) = branch.totals();
        missing = missing.max(events.saturating_sub(delivered));
        out.check(
            format!("{label}: pushed == delivered == engine events, dropped == 0"),
            pushed == events && delivered == events && dropped == 0,
        );
    }
    let verdicts = &scorer.inner.verdicts;
    out.check(
        "detector saw every event",
        verdicts.len() as u64 == events && scorer.inner.detector.events() == events,
    );
    out.check("drift saw every event", drift.inner.events() == events);
    let mut probe = store.inner;
    probe.store.flush()?;
    let stored = check_store(&probe.store, &ingest.engine)?;
    if let Err(why) = &stored {
        out.note(format!("store check failed: {why}"));
        missing = missing.max(events.saturating_sub(probe.store.events()));
    }
    out.check(
        "every emitted (node, window) stored exactly once",
        stored.is_ok() && probe.store.events() == events,
    );
    let (scored, correct) = score(&ingest, verdicts);
    let accuracy = correct as f64 / scored.max(1) as f64;
    out.check("detector window accuracy >= 0.9", accuracy >= 0.9);
    out.note(format!(
        "detector window accuracy = {accuracy:.4} over {scored} scored windows"
    ));
    out.set("detector.accuracy", accuracy);
    out.failed = missing;

    let bytes = probe.store.bytes_on_disk() as f64 / probe.store.events().max(1) as f64;
    out.set("bytes_per_event", bytes);

    // Per-layer metrics (zero unless traced).
    ingest.report(&mut out);
    let backfill_ns = pipe.backfill_ns.max(1) as f64;
    let after_live = pipe.busy_after_live.unwrap_or([0; 2]);
    for (i, (name, probe)) in [("detector", &scorer.rec), ("drift", &drift.rec)]
        .into_iter()
        .enumerate()
    {
        let busy = probe.busy_ns.saturating_sub(after_live[i]) as f64;
        out.set(format!("{name}.ns_per_event"), probe.ns_per_call());
        out.set(format!("{name}.busy_pct"), 100.0 * busy / backfill_ns);
    }
    let pickups = [&store.rec, &scorer.rec, &drift.rec];
    for ((label, branch), consumer) in LABELS.iter().zip(&pipe.branches).zip(pickups) {
        report_queue(&mut out, label, branch, consumer);
    }
    report_store(&mut out, &probe);

    if traced {
        let spans = ingest
            .spans
            .iter()
            .chain(pipe.branches.iter().flat_map(|b| b.push.spans.iter()))
            .chain(store.rec.spans.iter())
            .chain(scorer.rec.spans.iter())
            .chain(drift.rec.spans.iter());
        write_trace(ctx, spans)?;
    }
    Ok(out)
}
