//! Composable [`FleetSink`] operators: the streaming ODA dataflow.
//!
//! [`FleetEngine::ingest_frame_sink`](crate::fleet::FleetEngine::ingest_frame_sink)
//! delivers completed-window events to *one* sink by reference. Real ODA
//! deployments need more than one consumer — persist every signature,
//! classify it, watch its distribution for drift — and they need routing
//! (only the GPU partition feeds the GPU model) and decimation (the
//! dashboard wants every 6th window). The operators here wrap sinks in
//! sinks, so a whole delivery tree is itself a [`FleetSink`] and the
//! engine stays oblivious:
//!
//! ```text
//!   FleetEngine ─► Tee ──► SignatureStore            (persist all)
//!                   ├────► StreamingDetector         (classify all)
//!                   └─► Sample(6) ─► DriftMonitor    (drift, decimated)
//! ```
//!
//! Every operator forwards the borrowed [`FleetEvent`] unchanged and
//! keeps no per-event heap state, so a steady-state pipeline built from
//! allocation-free leaf sinks is allocation-free end to end (pinned by
//! the workspace-level counting-allocator test). [`Collect`] is the one
//! deliberate exception: it clones events into an owned history.
//!
//! Sinks compose by value; wrap a long-lived sink as `&mut sink` (the
//! blanket [`FleetSink`] impl for `&mut S`) to keep using it after the
//! ingest loop.

use crate::error::Result;
use crate::fleet::{FleetEvent, FleetSink};
use cwsmooth_obs::{MetricsHub, Observe, Snapshot};

/// Forwarding through a mutable reference, so long-lived sinks can be
/// lent to an operator tree without giving up ownership:
/// `Tee((&mut store, &mut detector))`.
impl<S: FleetSink + ?Sized> FleetSink for &mut S {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        (**self).on_event(event)
    }
}

/// Forwarding through a box, so heterogeneous sinks can live behind
/// `Box<dyn FleetSink>` — the element type of [`TeeVec`].
impl<S: FleetSink + ?Sized> FleetSink for Box<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        (**self).on_event(event)
    }
}

/// Fan-out: delivers every event to each sink of a tuple, in field
/// order. Implemented for tuples of 1 to 8 sinks.
///
/// An error from sink `i` aborts delivery of that event to sinks
/// `i+1..` and propagates to the engine (which in turn stops delivering
/// the rest of the frame) — the same first-error-wins contract as
/// [`FleetSink`] itself.
///
/// ```
/// use cwsmooth_core::fleet::FleetEvent;
/// use cwsmooth_core::pipeline::{Collect, Tee};
///
/// let mut a = Collect::new();
/// let mut b = Collect::new();
/// let mut tee = Tee((&mut a, &mut b));
/// # use cwsmooth_core::fleet::FleetSink;
/// # use cwsmooth_core::cs::CsSignature;
/// let event = FleetEvent {
///     node: 3,
///     window_index: 0,
///     signature: CsSignature { re: vec![0.5], im: vec![0.0] },
/// };
/// tee.on_event(&event).unwrap();
/// assert_eq!(a.events().len(), 1);
/// assert_eq!(b.events().len(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Tee<T>(pub T);

macro_rules! impl_tee {
    ($($name:ident . $idx:tt,)* ; $last:ident . $lidx:tt) => {
        impl<$($name: FleetSink,)* $last: FleetSink> FleetSink for Tee<($($name,)* $last,)> {
            fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
                $( (self.0).$idx.on_event(event)?; )*
                (self.0).$lidx.on_event(event)
            }
        }
    };
}

impl_tee!(; A.0);
impl_tee!(A.0,; B.1);
impl_tee!(A.0, B.1,; C.2);
impl_tee!(A.0, B.1, C.2,; D.3);
impl_tee!(A.0, B.1, C.2, D.3,; E.4);
impl_tee!(A.0, B.1, C.2, D.3, E.4,; F.5);
impl_tee!(A.0, B.1, C.2, D.3, E.4, F.5,; G.6);
impl_tee!(A.0, B.1, C.2, D.3, E.4, F.5, G.6,; H.7);

/// Dynamic fan-out: [`Tee`] for sink sets whose size and composition
/// are decided at runtime. Holds boxed sinks — by default trait objects
/// (`Box<dyn FleetSink>`), so one `TeeVec` can mix operator types that a
/// tuple `Tee` would have to name statically — and delivers every event
/// to each in push order with the same first-error-wins contract: an
/// error from sink `i` aborts delivery of that event to sinks `i+1..`.
///
/// ```
/// use cwsmooth_core::fleet::FleetSink;
/// use cwsmooth_core::pipeline::{Collect, Sample, TeeVec};
///
/// let mut tee = TeeVec::new()
///     .with(Collect::new())
///     .with(Sample::every(6, Collect::new()));
/// assert_eq!(tee.len(), 2);
/// ```
#[derive(Debug)]
pub struct TeeVec<S: FleetSink + ?Sized = dyn FleetSink> {
    sinks: Vec<Box<S>>,
}

// Not derived: the derive would demand `S: Default`, which a trait
// object can't satisfy.
impl<S: FleetSink + ?Sized> Default for TeeVec<S> {
    fn default() -> Self {
        Self { sinks: Vec::new() }
    }
}

impl<S: FleetSink + ?Sized> TeeVec<S> {
    /// An empty fan-out (every event is accepted and ignored).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an already-boxed sink.
    pub fn push_boxed(&mut self, sink: Box<S>) {
        self.sinks.push(sink);
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.sinks.len()
    }

    /// `true` when there are no branches.
    pub fn is_empty(&self) -> bool {
        self.sinks.is_empty()
    }

    /// The `i`-th branch, if present.
    pub fn sink(&self, i: usize) -> Option<&S> {
        self.sinks.get(i).map(|b| &**b)
    }

    /// The `i`-th branch, mutable.
    pub fn sink_mut(&mut self, i: usize) -> Option<&mut S> {
        self.sinks.get_mut(i).map(|b| &mut **b)
    }

    /// Consumes the fan-out, returning the boxed branches.
    pub fn into_sinks(self) -> Vec<Box<S>> {
        self.sinks
    }
}

impl TeeVec<dyn FleetSink> {
    /// Boxes and appends a sink.
    pub fn push(&mut self, sink: impl FleetSink + 'static) {
        self.sinks.push(Box::new(sink));
    }

    /// Builder form of [`TeeVec::push`].
    pub fn with(mut self, sink: impl FleetSink + 'static) -> Self {
        self.push(sink);
        self
    }
}

impl<S: FleetSink + ?Sized> FleetSink for TeeVec<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        for sink in &mut self.sinks {
            sink.on_event(event)?;
        }
        Ok(())
    }
}

/// Predicate routing: forwards only the events `pred` accepts.
///
/// The predicate sees the borrowed event and must not assume it outlives
/// the call (the engine reuses event buffers across frames).
#[derive(Debug, Clone)]
pub struct Filter<P, S> {
    pred: P,
    sink: S,
    passed: u64,
    dropped: u64,
}

impl<P, S> Filter<P, S>
where
    P: FnMut(&FleetEvent) -> bool,
    S: FleetSink,
{
    /// Wraps `sink` behind `pred`.
    pub fn new(pred: P, sink: S) -> Self {
        Self {
            pred,
            sink,
            passed: 0,
            dropped: 0,
        }
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutable.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Events forwarded so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Events rejected so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the operator, returning the wrapped sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

impl<P, S> FleetSink for Filter<P, S>
where
    P: FnMut(&FleetEvent) -> bool,
    S: FleetSink,
{
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        if (self.pred)(event) {
            self.passed += 1;
            self.sink.on_event(event)
        } else {
            self.dropped += 1;
            Ok(())
        }
    }
}

/// Node-set routing: forwards only events from an explicit set of nodes
/// (membership is one bit test per event).
///
/// The typical use is partition-local consumers — a model trained for
/// the GPU island should only ever see the GPU island:
///
/// ```
/// use cwsmooth_core::pipeline::{Collect, NodeRoute, Tee};
///
/// // Nodes 0..32 feed sink `a`, nodes 32..64 feed sink `b`.
/// let mut tree = Tee((
///     NodeRoute::new(0..32, Collect::new()),
///     NodeRoute::new(32..64, Collect::new()),
/// ));
/// # let _ = &mut tree;
/// ```
#[derive(Debug, Clone)]
pub struct NodeRoute<S> {
    /// Bitset over node ids; nodes beyond its range are rejected.
    bits: Vec<u64>,
    sink: S,
    passed: u64,
    dropped: u64,
}

impl<S: FleetSink> NodeRoute<S> {
    /// Routes the given node ids into `sink`; every other node's events
    /// are dropped.
    pub fn new(nodes: impl IntoIterator<Item = usize>, sink: S) -> Self {
        let mut bits: Vec<u64> = Vec::new();
        for node in nodes {
            let word = node / 64;
            if word >= bits.len() {
                bits.resize(word + 1, 0);
            }
            bits[word] |= 1u64 << (node % 64);
        }
        Self {
            bits,
            sink,
            passed: 0,
            dropped: 0,
        }
    }

    /// `true` when `node`'s events are forwarded.
    pub fn routes(&self, node: usize) -> bool {
        self.bits
            .get(node / 64)
            .is_some_and(|w| w & (1u64 << (node % 64)) != 0)
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutable.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Events forwarded so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Events rejected so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the operator, returning the wrapped sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

impl<S: FleetSink> FleetSink for NodeRoute<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        if self.routes(event.node) {
            self.passed += 1;
            self.sink.on_event(event)
        } else {
            self.dropped += 1;
            Ok(())
        }
    }
}

/// Window decimation: forwards one window in `k` per node
/// (`window_index % k == phase`). Because window indexes are per-node
/// counters, every node is decimated on its own stream — a node that
/// joined late still contributes every `k`-th of *its* windows.
#[derive(Debug, Clone)]
pub struct Sample<S> {
    k: usize,
    phase: usize,
    sink: S,
    passed: u64,
    dropped: u64,
}

impl<S: FleetSink> Sample<S> {
    /// Forwards windows whose per-node index is `0 (mod k)`. `k` is
    /// clamped to at least 1 (`k = 1` forwards everything).
    pub fn every(k: usize, sink: S) -> Self {
        Self::with_phase(k, 0, sink)
    }

    /// [`Sample::every`] with an explicit phase (`phase` is reduced
    /// `mod k`), so two decimated consumers can interleave.
    pub fn with_phase(k: usize, phase: usize, sink: S) -> Self {
        let k = k.max(1);
        Self {
            k,
            phase: phase % k,
            sink,
            passed: 0,
            dropped: 0,
        }
    }

    /// The decimation factor.
    pub fn k(&self) -> usize {
        self.k
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutable.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Events forwarded so far.
    pub fn passed(&self) -> u64 {
        self.passed
    }

    /// Events rejected so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Consumes the operator, returning the wrapped sink.
    pub fn into_sink(self) -> S {
        self.sink
    }
}

impl<S: FleetSink> FleetSink for Sample<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        if event.window_index % self.k == self.phase {
            self.passed += 1;
            self.sink.on_event(event)
        } else {
            self.dropped += 1;
            Ok(())
        }
    }
}

/// Metrics publication: forwards every event to the wrapped sink
/// unchanged, and every `every`-th event additionally publishes the
/// sink's [`Observe`] snapshot to a [`MetricsHub`] under a fixed key.
///
/// This is how stages owned by a thread the exporter cannot reach — a
/// store behind a [`crate::transport::QueueSink`] consumer, a detector
/// inside a serve loop — still show up on `GET /metrics`: the snapshot
/// is taken *on the owning thread* (where `&sink` is legal) and handed
/// to the shared hub, which the exporter merges at scrape time.
///
/// Publishing locks and allocates, so the cadence matters: a pipeline
/// that must stay allocation-free per event should publish every few
/// hundred events, amortising the cost to noise. The forwarding path
/// itself adds one integer compare per event.
///
/// ```
/// use cwsmooth_core::fleet::FleetSink;
/// use cwsmooth_core::pipeline::{Collect, Publish};
/// use cwsmooth_obs::{MetricsHub, Registry};
///
/// let hub = MetricsHub::new(Registry::new());
/// let mut sink = Publish::new(Collect::new(), hub.clone(), "collect", 100);
/// // ... engine.ingest_frame_sink(&frame, &mut sink) ...
/// ```
#[derive(Debug)]
pub struct Publish<S> {
    sink: S,
    hub: MetricsHub,
    key: String,
    every: u64,
    since: u64,
}

impl<S: Observe> Publish<S> {
    /// Wraps `sink`, publishing its snapshot to `hub` under `key` after
    /// every `every`-th forwarded event (`every` is clamped to at least
    /// 1; 1 publishes on every event).
    pub fn new(sink: S, hub: MetricsHub, key: &str, every: u64) -> Self {
        Self {
            sink,
            hub,
            key: key.to_string(),
            every: every.max(1),
            since: 0,
        }
    }

    /// Publishes the wrapped sink's snapshot now, resetting the event
    /// countdown — call after the last frame so the hub holds the final
    /// totals.
    pub fn flush(&mut self) {
        self.since = 0;
        self.hub.publish(&self.key, &self.sink);
    }

    /// The wrapped sink.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// The wrapped sink, mutable.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Consumes the operator, returning the wrapped sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn tick(&mut self) {
        self.since += 1;
        if self.since >= self.every {
            self.flush();
        }
    }
}

impl<S: FleetSink + Observe> FleetSink for Publish<S> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.sink.on_event(event)?;
        self.tick();
        Ok(())
    }
}

/// Forwards the wrapped sink's snapshot (the operator adds no series of
/// its own).
impl<S: Observe> Observe for Publish<S> {
    fn observe(&self, out: &mut Snapshot) {
        self.sink.observe(out);
    }
}

/// Terminal collector: clones every delivered event into an owned
/// vector. This is the inspection/testing leaf of a pipeline — and the
/// one operator that allocates per event, since it takes ownership of
/// borrowed data the engine will overwrite next frame.
#[derive(Debug, Clone, Default)]
pub struct Collect {
    events: Vec<FleetEvent>,
}

impl Collect {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Everything collected so far, in delivery order.
    pub fn events(&self) -> &[FleetEvent] {
        &self.events
    }

    /// Consumes the collector, returning the events.
    pub fn into_events(self) -> Vec<FleetEvent> {
        self.events
    }

    /// Drops all collected events (capacity is kept).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

impl FleetSink for Collect {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.events.push(event.clone());
        Ok(())
    }
}

/// Exports the collected-event count, so a [`Collect`] leaf can sit
/// behind [`Publish`] in tests and examples.
impl Observe for Collect {
    fn observe(&self, out: &mut Snapshot) {
        out.gauge("cws_collect_events", &[], self.events.len() as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::CsSignature;
    use crate::error::CoreError;

    fn event(node: usize, window_index: usize) -> FleetEvent {
        FleetEvent {
            node,
            window_index,
            signature: CsSignature {
                re: vec![node as f64, window_index as f64],
                im: vec![0.25, -0.5],
            },
        }
    }

    /// A leaf sink that counts and optionally fails.
    #[derive(Default)]
    struct Probe {
        seen: Vec<(usize, usize)>,
        fail_at: Option<usize>,
    }

    impl FleetSink for Probe {
        fn on_event(&mut self, e: &FleetEvent) -> Result<()> {
            if self.fail_at == Some(self.seen.len()) {
                return Err(CoreError::Persist("probe full".into()));
            }
            self.seen.push((e.node, e.window_index));
            Ok(())
        }
    }

    #[test]
    fn tee_fans_out_in_field_order_to_all_arities() {
        let mut tee = Tee((Probe::default(), Probe::default(), Probe::default()));
        for i in 0..5 {
            tee.on_event(&event(i, 2 * i)).unwrap();
        }
        let expect: Vec<(usize, usize)> = (0..5).map(|i| (i, 2 * i)).collect();
        assert_eq!(tee.0 .0.seen, expect);
        assert_eq!(tee.0 .1.seen, expect);
        assert_eq!(tee.0 .2.seen, expect);
        // Arity 1 and a full 8-tuple also implement the trait.
        Tee((Probe::default(),)).on_event(&event(0, 0)).unwrap();
        let mut eight = Tee((
            Probe::default(),
            Probe::default(),
            Probe::default(),
            Probe::default(),
            Probe::default(),
            Probe::default(),
            Probe::default(),
            Probe::default(),
        ));
        eight.on_event(&event(1, 1)).unwrap();
        assert_eq!(eight.0 .7.seen, vec![(1, 1)]);
    }

    #[test]
    fn tee_error_skips_later_sinks_for_that_event() {
        let failing = Probe {
            seen: Vec::new(),
            fail_at: Some(1),
        };
        let mut tee = Tee((Probe::default(), failing, Probe::default()));
        tee.on_event(&event(0, 0)).unwrap();
        assert!(tee.on_event(&event(1, 1)).is_err());
        assert_eq!(tee.0 .0.seen.len(), 2, "first sink saw the event");
        assert_eq!(tee.0 .1.seen.len(), 1, "failing sink rejected it");
        assert_eq!(tee.0 .2.seen.len(), 1, "later sink never saw it");
    }

    #[test]
    fn tee_vec_matches_tuple_tee() {
        // Same event stream through a 3-tuple Tee and a 3-branch typed
        // TeeVec: each branch must see the identical sequence.
        let mut tuple = Tee((Collect::new(), Collect::new(), Collect::new()));
        let mut vec: TeeVec<Collect> = TeeVec::default();
        for _ in 0..3 {
            vec.push_boxed(Box::new(Collect::new()));
        }
        for i in 0..5 {
            let e = event(i % 2, i);
            tuple.on_event(&e).unwrap();
            vec.on_event(&e).unwrap();
        }
        let expect = tuple.0 .0.events();
        assert_eq!(tuple.0 .1.events(), expect);
        assert_eq!(tuple.0 .2.events(), expect);
        for i in 0..3 {
            assert_eq!(vec.sink(i).unwrap().events(), expect);
        }
        assert_eq!(vec.len(), 3);
        assert!(!vec.is_empty());
        let sinks = vec.into_sinks();
        assert_eq!(sinks[0].events(), expect);

        // The type-erased default (`TeeVec<dyn FleetSink>`) composes
        // heterogeneous branches behind one sink.
        let mut dynamic: TeeVec = TeeVec::new()
            .with(Collect::new())
            .with(Sample::every(2, Collect::new()));
        for e in expect {
            dynamic.on_event(e).unwrap();
        }
        assert_eq!(dynamic.len(), 2);
        assert!(dynamic.sink_mut(0).is_some());
    }

    #[test]
    fn tee_vec_error_skips_later_sinks_for_that_event() {
        let failing = Probe {
            seen: Vec::new(),
            fail_at: Some(1),
        };
        let mut tee: TeeVec<Probe> = TeeVec::default();
        tee.push_boxed(Box::new(Probe::default()));
        tee.push_boxed(Box::new(failing));
        tee.push_boxed(Box::new(Probe::default()));
        tee.on_event(&event(0, 0)).unwrap();
        assert!(tee.on_event(&event(1, 1)).is_err());
        assert_eq!(tee.sink(0).unwrap().seen.len(), 2, "first sink saw it");
        assert_eq!(tee.sink(1).unwrap().seen.len(), 1, "failing sink rejected");
        assert_eq!(tee.sink(2).unwrap().seen.len(), 1, "later sink skipped");
    }

    #[test]
    fn filter_splits_by_predicate() {
        let mut f = Filter::new(|e: &FleetEvent| e.node.is_multiple_of(2), Probe::default());
        for i in 0..6 {
            f.on_event(&event(i, i)).unwrap();
        }
        assert_eq!(f.passed(), 3);
        assert_eq!(f.dropped(), 3);
        assert_eq!(f.sink().seen, vec![(0, 0), (2, 2), (4, 4)]);
        assert_eq!(f.into_sink().seen.len(), 3);
    }

    #[test]
    fn node_route_is_exact_membership() {
        let mut r = NodeRoute::new([1usize, 3, 64, 130], Probe::default());
        assert!(r.routes(1) && r.routes(3) && r.routes(64) && r.routes(130));
        assert!(!r.routes(0) && !r.routes(2) && !r.routes(65) && !r.routes(1000));
        for node in [0usize, 1, 2, 3, 64, 129, 130] {
            r.on_event(&event(node, 0)).unwrap();
        }
        assert_eq!(r.passed(), 4);
        assert_eq!(r.dropped(), 3);
        assert_eq!(
            r.sink().seen.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            vec![1, 3, 64, 130]
        );
        // Empty set drops everything.
        let mut none = NodeRoute::new(std::iter::empty(), Probe::default());
        none.on_event(&event(0, 0)).unwrap();
        assert_eq!(none.passed(), 0);
    }

    #[test]
    fn sample_keeps_every_kth_window_per_node() {
        let mut s = Sample::every(3, Probe::default());
        assert_eq!(s.k(), 3);
        for w in 0..7 {
            s.on_event(&event(0, w)).unwrap();
            s.on_event(&event(1, w)).unwrap();
        }
        assert_eq!(
            s.sink().seen,
            vec![(0, 0), (1, 0), (0, 3), (1, 3), (0, 6), (1, 6)]
        );
        // Phase shifts the kept residue; k = 0 clamps to pass-through.
        let mut p = Sample::with_phase(3, 4, Probe::default());
        for w in 0..4 {
            p.on_event(&event(0, w)).unwrap();
        }
        assert_eq!(p.sink().seen, vec![(0, 1)]);
        let mut all = Sample::every(0, Probe::default());
        for w in 0..4 {
            all.on_event(&event(0, w)).unwrap();
        }
        assert_eq!(all.passed(), 4);
    }

    #[test]
    fn publish_forwards_everything_and_snapshots_on_cadence() {
        use cwsmooth_obs::{MetricsHub, Registry, Value};

        let hub = MetricsHub::new(Registry::new());
        let mut sink = Publish::new(Collect::new(), hub.clone(), "collect", 4);
        let collected = |hub: &MetricsHub| {
            hub.snapshot().samples().iter().find_map(|s| {
                match (&*s.name == "cws_collect_events", &s.value) {
                    (true, Value::Gauge(v)) => Some(*v),
                    _ => None,
                }
            })
        };
        // Below the cadence: forwarded but not yet published.
        for i in 0..3 {
            sink.on_event(&event(0, i)).unwrap();
        }
        assert_eq!(sink.sink().events().len(), 3);
        assert_eq!(collected(&hub), None, "published before the 4th event");
        // The 4th event crosses the cadence; the hub sees 4. Two more
        // events stay unpublished until flush().
        for i in 3..6 {
            sink.on_event(&event(0, i)).unwrap();
        }
        assert_eq!(collected(&hub), Some(4.0));
        sink.flush();
        assert_eq!(collected(&hub), Some(6.0));
        assert_eq!(sink.into_sink().events().len(), 6);
    }

    #[test]
    fn collect_owns_clones() {
        let mut c = Collect::new();
        let e = event(7, 9);
        c.on_event(&e).unwrap();
        assert_eq!(c.events(), std::slice::from_ref(&e));
        c.clear();
        assert!(c.events().is_empty());
        c.on_event(&e).unwrap();
        assert_eq!(c.into_events(), vec![e]);
    }

    #[test]
    fn operators_nest_and_borrow() {
        // Tee(route → sample → probe, &mut collect): a small tree, with
        // one sink lent by reference and still usable afterwards.
        let mut collect = Collect::new();
        {
            let mut tree = Tee((
                NodeRoute::new(0..2, Sample::every(2, Probe::default())),
                &mut collect,
            ));
            for w in 0..4 {
                for node in 0..3 {
                    tree.on_event(&event(node, w)).unwrap();
                }
            }
            let inner = tree.0 .0.sink();
            assert_eq!(inner.sink().seen, vec![(0, 0), (1, 0), (0, 2), (1, 2)]);
        }
        assert_eq!(collect.events().len(), 12, "collect saw every event");
    }
}
