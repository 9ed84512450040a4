//! What the two ingest workloads share: the fleet, CS geometry and
//! detector recipe of `examples/fleet_pipeline_threaded.rs`, the load
//! generator, and the two phases (an open-loop live phase and a
//! closed-loop backfill) driven from one ingest thread.

use crate::metrics::Outcome;
use crate::trace::{
    latency_stats, median, now_ns, percentile, Record, Span, StoreProbe, NO_PARENT,
};
use crate::Ctx;
use crate::Res;
use cwsmooth_core::cs::{CsMethod, CsSignature, CsTrainer};
use cwsmooth_core::fleet::{FleetEngine, FleetFrame, FleetSink};
use cwsmooth_core::online::OnlineCs;
use cwsmooth_core::transport::QueueStats;
use cwsmooth_data::WindowSpec;
use cwsmooth_linalg::Matrix;
use cwsmooth_ml::forest::{ForestConfig, RandomForestClassifier};
use cwsmooth_sim::faults::{FaultKind, FaultSetting};
use cwsmooth_sim::fleet::{
    FaultSegmentSpec, FaultedFleet, FleetFaultPlan, FleetScenario, FleetSimConfig, FLEET_SENSORS,
};
use cwsmooth_store::SignatureStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Fleet size.
pub const NODES: usize = 1024;
/// CS blocks per signature (CS-8).
pub const L: usize = 8;
/// Window length in frames.
pub const WL: usize = 30;
/// Window stride in frames.
pub const STRIDE: usize = 10;
/// Frames of healthy history the CS model and forest train on; the
/// measured stream starts here.
pub const TRAIN: usize = 256;
/// Telemetry gaps per node-frame, in 1/1000. Gaps de-phase the nodes'
/// windows the way dropouts do in a real fleet.
pub const GAPS_PER_MILLE: u32 = 5;
/// Frames per injected fault segment.
pub const FAULT_LEN: usize = 300;
/// Every faulted node gets one segment per this many frames.
pub const FAULT_PERIOD: usize = 1500;
/// First frame a fault may start at (past the drift calibration).
pub const FIRST_FAULT: usize = TRAIN + 520;
/// Frames the fault plan covers; far past what any run streams.
pub const PLAN_FRAMES: usize = 1_000_000;
/// Live-phase frame rate (frames/s) of both ingest workloads: about a
/// third of fleet_local's backfill rate at the commit that defined the
/// benchmark (~80k events/s, ~100 events per frame), so the live phase
/// measures ages at a sustainable load, not a growing backlog.
pub const LIVE_FPS: f64 = 250.0;
/// Frames per backfill burst, generated before the burst starts so the
/// generator is off the clock.
pub const BURST_FRAMES: usize = 200;
/// Upper bound on engine events per frame (every node closing a window).
pub const MAX_EVENTS_PER_FRAME: usize = NODES;

/// Fault kinds the detector learns, in dense-label order (label 0 is
/// healthy, label i + 1 is `KINDS[i]`).
pub const KINDS: [FaultKind; 5] = [
    FaultKind::CpuOccupy,
    FaultKind::MemLeak,
    FaultKind::MemEater,
    FaultKind::NetDegrade,
    FaultKind::FreqCap,
];

/// The window geometry.
pub fn spec() -> WindowSpec {
    WindowSpec::new(WL, STRIDE).expect("30/10 is a valid window spec")
}

/// The seeded fleet with its telemetry gaps.
pub fn scenario(seed: u64) -> FleetScenario {
    FleetScenario::new(FleetSimConfig::new(seed, NODES).with_gaps(GAPS_PER_MILLE))
}

/// Trains the shared CS-8 model on pooled healthy history of 8 nodes.
pub fn train_cs(scenario: &FleetScenario) -> Res<CsMethod> {
    let pool: Vec<usize> = (0..8).map(|i| i * NODES.div_ceil(8)).collect();
    let mut pooled = Matrix::zeros(FLEET_SENSORS, pool.len() * TRAIN);
    let mut buf = [0.0; FLEET_SENSORS];
    for (i, &node) in pool.iter().enumerate() {
        for t in 0..TRAIN {
            scenario.reading_into(node, t, &mut buf);
            for (r, &v) in buf.iter().enumerate() {
                pooled.set(r, i * TRAIN + t, v);
            }
        }
    }
    Ok(CsMethod::new(CsTrainer::default().train(&pooled)?, L)?)
}

/// Dense detector label of a fault class id (0 stays healthy).
pub fn dense_label(class_id: usize) -> Option<usize> {
    if class_id == 0 {
        return Some(0);
    }
    KINDS
        .iter()
        .position(|k| k.class_id() == class_id)
        .map(|i| i + 1)
}

/// Streams one node's frames `[from, to)` through a fresh `OnlineCs`,
/// handing every completed window's features to `take`.
fn windows_of(
    cs: &CsMethod,
    read: impl Fn(usize, &mut [f64]),
    from: usize,
    to: usize,
    mut take: impl FnMut(&[f64]),
) -> Res<()> {
    let mut stream = OnlineCs::new(cs.clone(), spec());
    let mut column = vec![0.0; FLEET_SENSORS];
    let mut sig = CsSignature::default();
    let mut features = Vec::new();
    for t in from..to {
        read(t, &mut column);
        if stream.push_into(&column, &mut sig)? {
            sig.features_into(&mut features);
            take(&features);
        }
    }
    Ok(())
}

/// Fits the detector's forest with the threaded example's recipe:
/// healthy windows of 48 nodes plus every fault kind at two intensities
/// on 12 labelled nodes.
pub fn train_forest(scenario: &FleetScenario, cs: &CsMethod) -> Res<RandomForestClassifier> {
    let lab_nodes: Vec<usize> = (0..12)
        .map(|i| (i * NODES.div_ceil(12) + 3) % NODES)
        .collect();
    let healthy_nodes: Vec<usize> = (0..48)
        .map(|i| (i * NODES.div_ceil(48) + 1) % NODES)
        .collect();
    let label_frames = TRAIN + 400;
    let mut rows: Vec<(Vec<f64>, usize)> = Vec::new();
    for &node in &healthy_nodes {
        for (from, to) in [(TRAIN, label_frames), (label_frames, label_frames + 400)] {
            windows_of(
                cs,
                |t, out| scenario.reading_into(node, t, out),
                from,
                to,
                |f| rows.push((f.to_vec(), 0)),
            )?;
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
                let faulted = FaultedFleet::new(*scenario, plan);
                windows_of(
                    cs,
                    |t, out| faulted.reading_into(node, t, out),
                    TRAIN,
                    label_frames,
                    |f| rows.push((f.to_vec(), ki + 1)),
                )?;
            }
        }
    }
    let mut cfg = ForestConfig::classification(7);
    cfg.tree.max_depth = Some(14);
    let mut forest = RandomForestClassifier::with_config(cfg);
    forest.fit_labelled_rows(rows.iter().map(|(f, c)| (f.as_slice(), *c)))?;
    Ok(forest)
}

/// `true` for the nodes the fault plan injects faults into: every 8th.
pub fn is_faulted_node(node: usize) -> bool {
    node % 8 == 4
}

/// One fault segment every [`FAULT_PERIOD`] frames on every 8th node,
/// kinds cycling, starts staggered across nodes. Built in `(node,
/// start)` order so every insertion appends.
pub fn fault_plan() -> FleetFaultPlan {
    let mut plan = FleetFaultPlan::new();
    for (i, node) in (0..NODES).filter(|&n| is_faulted_node(n)).enumerate() {
        let offset = (i % 5) * (FAULT_PERIOD / 5);
        let mut start = FIRST_FAULT + offset;
        let mut j = 0;
        while start + FAULT_LEN < PLAN_FRAMES {
            plan = plan.with(FaultSegmentSpec {
                node,
                start,
                len: FAULT_LEN,
                kind: KINDS[(i + j) % KINDS.len()],
                setting: FaultSetting::High,
            });
            start += FAULT_PERIOD;
            j += 1;
        }
    }
    plan
}

/// The load generator: fills fleet frames from the faulted scenario,
/// leaving gapped nodes absent.
///
/// Node `n` joins `n % STRIDE` frames after the first frame, as in a
/// fleet whose nodes came up at different times: window closes are
/// spread over the stride from the first window on instead of every
/// node closing a window on the same frame, and the telemetry gaps keep
/// de-phasing them from there.
#[derive(Debug)]
pub struct Generator {
    /// The faulted fleet the frames come from.
    pub fleet: FaultedFleet,
    start: usize,
    next: usize,
}

impl Generator {
    /// A generator whose first frame is scenario time `start`.
    pub fn new(fleet: FaultedFleet, start: usize) -> Self {
        Self {
            fleet,
            start,
            next: start,
        }
    }

    /// Fills `frame` with the next frame; returns its scenario time.
    pub fn fill(&mut self, frame: &mut FleetFrame) -> Res<usize> {
        let t = self.next;
        self.next += 1;
        frame.clear();
        for node in 0..NODES {
            let joined = t >= self.start + node % STRIDE;
            if joined && !self.fleet.has_gap(node, t) {
                self.fleet.reading_into(node, t, frame.slot_mut(node)?);
            }
        }
        Ok(t)
    }
}

/// A sink tree built fresh for each phase around sinks that persist
/// across phases (store, detector, server): one phase's queues and
/// connections are drained and torn down before the next opens.
pub trait Pipeline {
    /// The tree the engine feeds.
    type Tree: FleetSink;
    /// Builds the tree for a phase (`live` or a backfill burst).
    fn open(&mut self, live: bool) -> Res<Self::Tree>;
    /// Producer-side nanoseconds spent in the tree's queue pushes so
    /// far (traced passes; 0 otherwise).
    fn pushed_ns(&self, tree: &Self::Tree) -> u64;
    /// Drains and tears down the tree; returns the time (ns since the
    /// epoch) at which every result of the phase was in.
    fn close(&mut self, tree: Self::Tree) -> Res<u64>;
}

/// The ingest thread: engine, generator, and what they logged.
#[derive(Debug)]
pub struct Ingest {
    /// The engine under test.
    pub engine: FleetEngine,
    /// The load generator.
    pub gen: Generator,
    /// Whether spans are recorded.
    pub traced: bool,
    /// Index of the frame being ingested (span parents of pushes).
    pub frame_clock: Arc<AtomicU64>,
    /// Frame buffers: the live phase uses the first, a backfill burst
    /// all of them.
    frames: Vec<FleetFrame>,
    /// Scenario time of every ingested frame.
    pub frame_t: Vec<usize>,
    /// Engine events emitted up to and including every frame.
    pub cum_events: Vec<u64>,
    /// Due time of every live frame (ns since the epoch).
    pub due: Vec<u64>,
    /// Live frames ingested (the first `live_frames` of the log).
    pub live_frames: usize,
    /// How late each live frame's ingest started after its due time.
    pub lag_ns: Vec<u64>,
    /// Ingest-thread self time of the generator, ns.
    pub fill_ns: u64,
    /// Self time waiting for due times, ns.
    pub wait_ns: u64,
    /// Self time inside `ingest_frame_sink` minus the queue pushes, ns.
    pub engine_self_ns: u64,
    /// Self time in queue pushes, ns (traced passes).
    pub push_ns: u64,
    /// Self time opening and draining sink trees, ns.
    pub drain_ns: u64,
    /// Wall time of both phases, ns.
    pub wall_ns: u64,
    /// Events per second of each backfill burst.
    pub burst_rates: Vec<f64>,
    /// Frame-level spans (traced passes).
    pub spans: Vec<Span>,
}

/// How far ahead of the first live due time the loop starts.
const LEAD_NS: u64 = 2_000_000;

impl Ingest {
    /// An ingest thread over `engine` fed by `gen`; `live_secs` sizes
    /// the logs so they never reallocate mid-phase.
    pub fn new(engine: FleetEngine, gen: Generator, traced: bool, live_secs: f64) -> Self {
        let live_frames = (LIVE_FPS * live_secs).ceil() as usize;
        Self {
            engine,
            gen,
            traced,
            frame_clock: Arc::new(AtomicU64::new(0)),
            frames: vec![FleetFrame::new(NODES, FLEET_SENSORS)],
            frame_t: Vec::with_capacity(live_frames * 16),
            cum_events: Vec::with_capacity(live_frames * 16),
            due: Vec::with_capacity(live_frames),
            live_frames: 0,
            lag_ns: Vec::with_capacity(live_frames),
            fill_ns: 0,
            wait_ns: 0,
            engine_self_ns: 0,
            push_ns: 0,
            drain_ns: 0,
            wall_ns: 0,
            burst_rates: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn span(&mut self, name: &'static str, start: u64, end: u64) {
        if self.traced {
            self.spans.push(Span {
                name,
                start,
                end,
                parent: NO_PARENT,
                id: self.cum_events.len() as u64,
            });
        }
    }

    /// Generates the next frame into buffer `slot`, timing the
    /// generator; returns the frame's scenario time.
    fn fill(&mut self, slot: usize) -> Res<usize> {
        let start = now_ns();
        let t = self.gen.fill(&mut self.frames[slot])?;
        let end = now_ns();
        self.fill_ns += end - start;
        self.span("gen.fill", start, end);
        Ok(t)
    }

    /// Ingests the frame in buffer `slot` (scenario time `t`, due at
    /// `due`, 0 in backfill).
    fn ingest<P: Pipeline>(
        &mut self,
        p: &P,
        tree: &mut P::Tree,
        slot: usize,
        t: usize,
        due: u64,
    ) -> Res<()> {
        let frame = self.cum_events.len() as u64;
        self.frame_clock.store(frame, Ordering::Relaxed);
        let pushed = p.pushed_ns(tree);
        let start = now_ns();
        self.engine.ingest_frame_sink(&self.frames[slot], tree)?;
        let end = now_ns();
        let push = p.pushed_ns(tree) - pushed;
        self.push_ns += push;
        self.engine_self_ns += (end - start).saturating_sub(push);
        self.span("fleet.ingest", start, end);
        self.cum_events.push(self.engine.stats().events);
        self.frame_t.push(t);
        if due > 0 {
            self.due.push(due);
        }
        Ok(())
    }

    /// Opens a tree, timing the turnover.
    fn open<P: Pipeline>(&mut self, p: &mut P, live: bool) -> Res<P::Tree> {
        let start = now_ns();
        let tree = p.open(live)?;
        let end = now_ns();
        self.drain_ns += end - start;
        self.span("queue.open", start, end);
        Ok(tree)
    }

    /// Drains and closes a tree; returns when every result was in.
    fn close<P: Pipeline>(&mut self, p: &mut P, tree: P::Tree) -> Res<u64> {
        let start = now_ns();
        let done = p.close(tree)?;
        let end = now_ns();
        self.drain_ns += end - start;
        self.span("queue.drain", start, end);
        Ok(done)
    }

    /// The live phase: an open loop at `fps` frames/s for `secs`. Each
    /// frame is generated before it is due; events are aged from the
    /// due time, so a stall is charged to every later frame.
    pub fn live<P: Pipeline>(&mut self, p: &mut P, fps: f64, secs: f64) -> Res<()> {
        let frames = (fps * secs).round().max(1.0) as usize;
        let period = 1e9 / fps;
        let phase_start = now_ns();
        let mut tree = self.open(p, true)?;
        let mut t = self.fill(0)?;
        let t0 = now_ns() + LEAD_NS;
        for i in 0..frames {
            let due = t0 + (i as f64 * period) as u64;
            let waited = now_ns();
            if due > waited {
                std::thread::sleep(Duration::from_nanos(due - waited));
            }
            let start = now_ns();
            self.wait_ns += start - waited;
            self.span("gen.wait", waited, start);
            self.lag_ns.push(start.saturating_sub(due));
            self.ingest(p, &mut tree, 0, t, due)?;
            if i + 1 < frames {
                t = self.fill(0)?;
            }
        }
        self.live_frames = self.cum_events.len();
        self.close(p, tree)?;
        self.wall_ns += now_ns() - phase_start;
        Ok(())
    }

    /// The backfill: closed-loop bursts of [`BURST_FRAMES`] frames until
    /// `secs` have passed (at least three bursts). Each burst's frames
    /// are generated first; the next frame goes in as soon as the
    /// previous ingest returns, and the burst is timed until every
    /// result is in.
    pub fn backfill<P: Pipeline>(&mut self, p: &mut P, secs: f64) -> Res<()> {
        self.frames
            .resize_with(BURST_FRAMES, || FleetFrame::new(NODES, FLEET_SENSORS));
        let mut times = [0usize; BURST_FRAMES];
        let phase_start = now_ns();
        let deadline = phase_start + (secs * 1e9) as u64;
        while self.burst_rates.len() < 3 || now_ns() < deadline {
            for (slot, t) in times.iter_mut().enumerate() {
                *t = self.fill(slot)?;
            }
            let mut tree = self.open(p, false)?;
            let events = self.engine.stats().events;
            let start = now_ns();
            for (slot, &t) in times.iter().enumerate() {
                self.ingest(p, &mut tree, slot, t, 0)?;
            }
            let done = self.close(p, tree)?;
            let events = self.engine.stats().events - events;
            let on_clock = done.saturating_sub(start).max(1) as f64 / 1e9;
            self.burst_rates.push(events as f64 / on_clock);
        }
        self.wall_ns += now_ns() - phase_start;
        Ok(())
    }

    /// Events emitted by the live phase.
    pub fn live_events(&self) -> u64 {
        match self.live_frames {
            0 => 0,
            n => self.cum_events[n - 1],
        }
    }

    /// Index of the frame that emitted engine event `k`.
    pub fn frame_of(&self, k: u64) -> usize {
        self.cum_events.partition_point(|&c| c <= k)
    }

    /// The backfill rate (median over bursts) with a note naming it.
    pub fn report_rate(&self, out: &mut Outcome) {
        let mut rates = self.burst_rates.clone();
        let rate = median(&mut rates);
        out.set("throughput_per_s", rate);
        out.set("backfill.bursts", rates.len() as f64);
        out.note(format!(
            "events_per_s = {rate:.0} events/s (backfill, median of {} bursts of \
             {BURST_FRAMES} frames; min {:.0}, max {:.0})",
            rates.len(),
            rates.first().copied().unwrap_or(0.0),
            rates.last().copied().unwrap_or(0.0),
        ));
    }

    /// Generator and ingest-thread metrics shared by both workloads.
    pub fn report(&self, out: &mut Outcome) {
        let frames = self.cum_events.len().max(1) as f64;
        let live = self.live_frames.max(1) as f64;
        let per_frame = |ns: u64| ns as f64 / frames / 1e3;
        out.set("gen.fill_us_per_frame", per_frame(self.fill_ns));
        out.set("gen.wait_us_per_frame", self.wait_ns as f64 / live / 1e3);
        let mut lags: Vec<f64> = self.lag_ns.iter().map(|&l| l as f64 / 1e6).collect();
        out.set("gen.lag_ms_p99", percentile(&mut lags, 99.0));
        let half_period = 0.5e3 / LIVE_FPS;
        let late = lags.iter().filter(|&&l| l > half_period).count();
        out.set("gen.late_frames", late as f64);
        out.set("fleet.self_us_per_frame", per_frame(self.engine_self_ns));
        let stats = self.engine.stats();
        out.set("fleet.events", stats.events as f64);
        out.set("fleet.gaps", stats.gaps as f64);
        out.set("queue.push_us_per_frame", per_frame(self.push_ns));
        out.set("queue.drain_us_per_frame", per_frame(self.drain_ns));
        let covered =
            self.fill_ns + self.wait_ns + self.engine_self_ns + self.push_ns + self.drain_ns;
        out.set("ingest.wall_s", self.wall_ns as f64 / 1e9);
        out.set(
            "ingest.coverage_pct",
            100.0 * covered as f64 / self.wall_ns.max(1) as f64,
        );
    }
}

/// Ages (ms) of the first `n` engine events, from the due time of the
/// frame that emitted each to `done(k)`, the time its result was in.
/// An event without a result time is left out (the caller's checks
/// count it as failed).
pub fn ages_ms(ingest: &Ingest, n: u64, mut done: impl FnMut(u64) -> Option<u64>) -> Vec<f64> {
    let mut out = Vec::with_capacity(n as usize);
    for k in 0..n {
        let Some(at) = done(k) else { continue };
        let due = ingest.due[ingest.frame_of(k)];
        out.push(at.saturating_sub(due) as f64 / 1e6);
    }
    out
}

/// The time of the first entry of `log` (`(count, time)`, ascending
/// counts) whose count covers event `k`, scanning forward from `*at`
/// (events are asked for in order).
pub fn covered_at(log: &[(u64, u64)], at: &mut usize, k: u64) -> Option<u64> {
    while *at < log.len() && log[*at].0 <= k {
        *at += 1;
    }
    log.get(*at).map(|entry| entry.1)
}

/// Sets `latency.p50_ms`, `.p90_ms` and `.p99_ms` from the live
/// phase's `ages` (ms), with a note that names them `<label>_p50_ms`
/// etc. for this workload.
pub fn report_ages(out: &mut Outcome, label: &str, mut ages: Vec<f64>) {
    let (p50, p90, p99, n) = latency_stats(&mut ages);
    out.set("latency.p50_ms", p50);
    out.set("latency.p90_ms", p90);
    out.set("latency.p99_ms", p99);
    out.set("latency.samples", n as f64);
    out.note(format!(
        "{label}_p50_ms = {p50:.4} ms, {label}_p90_ms = {p90:.4} ms, \
         {label}_p99_ms = {p99:.4} ms (live phase, n = {n})"
    ));
}

/// Checks that `store` holds every event the engine emitted exactly
/// once: per node, windows `0..emitted` and nothing else.
pub fn check_store(store: &SignatureStore, engine: &FleetEngine) -> Res<Result<(), String>> {
    let mut windows: Vec<Vec<u64>> = vec![Vec::new(); NODES];
    let mut stray = 0u64;
    store.for_each(|node, window, _| match windows.get_mut(node as usize) {
        Some(w) => w.push(window),
        None => stray += 1,
    })?;
    if stray > 0 {
        return Ok(Err(format!("{stray} stored events of unknown nodes")));
    }
    for (node, w) in windows.iter_mut().enumerate() {
        w.sort_unstable();
        let emitted = engine.node(node).map_or(0, |s| s.emitted()) as u64;
        let exact = w.len() as u64 == emitted && w.iter().enumerate().all(|(i, &x)| x == i as u64);
        if !exact {
            return Ok(Err(format!(
                "node {node}: stored {} events, emitted {emitted} (duplicates or gaps)",
                w.len()
            )));
        }
    }
    Ok(Ok(()))
}

/// One queued branch's producer side, accumulated over phases.
#[derive(Debug, Default)]
pub struct Branch {
    /// Producer-side pushes.
    pub push: Record,
    /// Final telemetry of each phase's queue.
    pub stats: Vec<QueueStats>,
}

impl Branch {
    /// `(pushed, delivered, dropped)` summed over phases.
    pub fn totals(&self) -> (u64, u64, u64) {
        self.stats.iter().fold((0, 0, 0), |(p, d, x), s| {
            (p + s.pushed, d + s.delivered, x + s.dropped)
        })
    }
}

/// Queue metrics of one branch: push cost, hand-off wait (push start to
/// consumer pickup, paired in FIFO order), high watermark and drops.
pub fn report_queue(out: &mut Outcome, label: &str, branch: &Branch, consumer: &Record) {
    let mut waits: Vec<f64> = branch
        .push
        .starts
        .iter()
        .zip(&consumer.starts)
        .map(|(&pushed, &picked)| picked.saturating_sub(pushed) as f64 / 1e3)
        .collect();
    let key = |m: &str| format!("queue.{label}.{m}");
    out.set(key("push_ns"), branch.push.ns_per_call());
    out.set(key("wait_us_p50"), percentile(&mut waits, 50.0));
    out.set(key("wait_us_p99"), percentile(&mut waits, 99.0));
    let hwm = branch
        .stats
        .iter()
        .map(|s| s.high_watermark)
        .max()
        .unwrap_or(0);
    out.set(key("high_watermark"), hwm as f64);
    out.set(key("dropped"), branch.totals().2 as f64);
}

/// Store write-path metrics.
pub fn report_store(out: &mut Outcome, probe: &StoreProbe) {
    let stats = probe.store.stats();
    out.set("store.push_ns", probe.push.ns_per_call());
    let mut flush: Vec<f64> = probe.flush_ns.iter().map(|&n| n as f64 / 1e3).collect();
    out.set("store.flushes", flush.len() as f64);
    out.set("store.flush_us_p50", percentile(&mut flush, 50.0));
    out.set("store.flush_us_p99", percentile(&mut flush, 99.0));
    out.set(
        "store.events_per_block",
        stats.events as f64 / stats.blocks.max(1) as f64,
    );
    out.set("store.bytes_written", stats.bytes_written as f64);
}

/// Writes a traced pass's spans under `perfbench/traces/`.
pub fn write_trace<'a>(ctx: &Ctx, spans: impl Iterator<Item = &'a Span>) -> Res<()> {
    let path = ctx
        .bench_dir
        .join("traces")
        .join(format!("{}-seed{}.tsv", ctx.workload, ctx.seed));
    crate::trace::write_spans(&path, spans)?;
    Ok(())
}
