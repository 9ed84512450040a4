//! Fleet-scale streaming: thousands of per-node CS streams fed by
//! batched frames.
//!
//! The paper's online deployment story (Sec. V) covers *one* node; a
//! production ODA pipeline ingests telemetry from whole machine rooms. The
//! [`FleetEngine`] owns one [`OnlineCs`] stream per node — each with its
//! own trained [`CsModel`](crate::model::CsModel), since sensors behave
//! differently per node — and processes *frames*: one batched time-step of
//! readings across the fleet, the shape a monitoring bus (MQTT fan-in,
//! broadcast transport) actually delivers.
//!
//! # Architecture
//!
//! ```text
//!            FleetFrame (t)                        events (t), node order
//!   node 0 ─┐                          ┌─ OnlineCs 0 ─┐
//!   node 1 ─┤  ingest_frame_sink(...)  ├─ OnlineCs 1 ─┤  staged    &FleetEvent
//!     ...   ├────────────────────────► │     ...      ├─────────► FleetSink
//!   node n ─┘                          └─ OnlineCs n ─┘  pool
//!
//!                 the sink is usually an operator tree (crate::pipeline):
//!
//!                      ┌─► SignatureStore               (persist)
//!   engine ──► Tee ────┼─► StreamingDetector            (classify)
//!                      └─► Sample(k) ─► DriftMonitor    (drift watch)
//! ```
//!
//! Every frame is one loop over the node streams, in node order, on the
//! calling thread. A signature is cheap — a whole frame of 1,024 nodes
//! × 8 sensors takes 140–190 µs on one core of a 2-vCPU Xeon — so
//! handing slices of the frame to freshly spawned worker threads costs
//! more than it saves; threads belong to the sinks
//! ([`crate::transport::QueueSink`]). The per-node hot path is the
//! allocation-free [`OnlineCs::push_into`], writing straight into a
//! staged-event pool that is reused across frames, so the allocator is
//! touched only while the pool warms up.
//!
//! # One ingest entry point
//!
//! [`FleetEngine::ingest_frame_sink`] is the only ingest path. A caller
//! that wants owned events passes a `Vec<FleetEvent>` (itself a
//! [`FleetSink`] that clones events out) or a
//! [`Collect`](crate::pipeline::Collect); either observes events
//! bit-identical to independent per-node [`OnlineCs`] streams — pinned
//! by `tests/ingest_parity.rs`.
//!
//! # Gap handling
//!
//! A node absent from a frame gets [`OnlineCs::push_gap`]: its buffered
//! window is discarded so no signature ever smooths across the outage, and
//! its stream re-fills from the next frame it appears in. Other nodes are
//! unaffected.

use crate::cs::{CsMethod, CsSignature};
use crate::error::{CoreError, Result};
use crate::online::OnlineCs;
use cwsmooth_data::WindowSpec;
use cwsmooth_obs::{Counter, Histogram, Registry};

/// One batched time-step of fleet telemetry: a dense `nodes × n_sensors`
/// buffer plus a per-node presence flag. Reuse one frame across time-steps
/// ([`FleetFrame::clear`] + [`FleetFrame::set`]) to keep ingest
/// allocation-free.
#[derive(Debug, Clone)]
pub struct FleetFrame {
    nodes: usize,
    n_sensors: usize,
    data: Vec<f64>,
    present: Vec<bool>,
}

impl FleetFrame {
    /// Creates an empty frame for `nodes` nodes of `n_sensors` sensors.
    pub fn new(nodes: usize, n_sensors: usize) -> Self {
        Self {
            nodes,
            n_sensors,
            data: vec![0.0; nodes * n_sensors],
            present: vec![false; nodes],
        }
    }

    /// Number of node slots.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Readings per node.
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// Marks every node absent (start of a new time-step).
    pub fn clear(&mut self) {
        self.present.fill(false);
    }

    /// Stores `readings` for `node` and marks it present.
    pub fn set(&mut self, node: usize, readings: &[f64]) -> Result<()> {
        if node >= self.nodes {
            return Err(CoreError::Shape(format!(
                "node {node} out of range (frame holds {})",
                self.nodes
            )));
        }
        if readings.len() != self.n_sensors {
            return Err(CoreError::Shape(format!(
                "node {node}: {} readings, frame expects {}",
                readings.len(),
                self.n_sensors
            )));
        }
        self.data[node * self.n_sensors..(node + 1) * self.n_sensors].copy_from_slice(readings);
        self.present[node] = true;
        Ok(())
    }

    /// Mutable slice for `node`'s readings, marking it present — lets a
    /// generator write in place without an intermediate buffer.
    ///
    /// The slot is zeroed on hand-out: a slot that is obtained but never
    /// filled ingests zeros (immediately visible in signatures) rather than
    /// silently replaying the previous frame's readings.
    pub fn slot_mut(&mut self, node: usize) -> Result<&mut [f64]> {
        if node >= self.nodes {
            return Err(CoreError::Shape(format!(
                "node {node} out of range (frame holds {})",
                self.nodes
            )));
        }
        self.present[node] = true;
        let slot = &mut self.data[node * self.n_sensors..(node + 1) * self.n_sensors];
        slot.fill(0.0);
        Ok(slot)
    }

    /// The readings for `node`, or `None` when it missed this time-step.
    pub fn readings(&self, node: usize) -> Option<&[f64]> {
        (node < self.nodes && self.present[node])
            .then(|| &self.data[node * self.n_sensors..(node + 1) * self.n_sensors])
    }

    /// Number of nodes present in this frame.
    pub fn present_count(&self) -> usize {
        self.present.iter().filter(|&&p| p).count()
    }
}

/// One completed window on one node's stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetEvent {
    /// The node whose stream completed a window.
    pub node: usize,
    /// Per-node window counter (0 for the node's first emission; keeps
    /// increasing across telemetry gaps).
    pub window_index: usize,
    /// The window's CS signature.
    pub signature: CsSignature,
}

/// Lifetime ingest counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Frames ingested.
    pub frames: u64,
    /// Signature events emitted.
    pub events: u64,
    /// Node-frames missed (each absent node in a frame counts one gap).
    pub gaps: u64,
}

/// Consumer of completed-window events, fed by
/// [`FleetEngine::ingest_frame_sink`]. Implementations receive each
/// event *by reference* — the engine retains ownership of the event
/// (and, crucially, of its signature buffers, which it reuses across
/// frames), so a sink that only inspects or copies values out keeps the
/// whole ingest path allocation-free.
///
/// Events of one frame are delivered in node order, after every node's
/// stream has taken the frame. An error aborts delivery of the remaining
/// events of that frame and is returned to the ingest caller.
pub trait FleetSink {
    /// Receives one completed-window event.
    fn on_event(&mut self, event: &FleetEvent) -> Result<()>;
}

/// Collects events by cloning them out of the engine's reused buffers.
/// The vector is never cleared, so it accumulates across frames; a
/// caller that wants one frame's events clears it before the ingest.
impl FleetSink for Vec<FleetEvent> {
    fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
        self.push(event.clone());
        Ok(())
    }
}

/// One in how many frames gets an ingest span. A span costs two clock
/// reads; sampling keeps the instrumented hot path within the pipeline
/// overhead budget while the histogram still sees an unbiased
/// (frame-clocked, load-independent) slice of ingests.
const SPAN_SAMPLE_EVERY: u64 = 16;

/// Multi-node streaming engine: one [`OnlineCs`] per node, walked in
/// node order on the calling thread, fed by [`FleetFrame`]s.
#[derive(Debug)]
pub struct FleetEngine {
    /// Element `i` serves node `i`.
    streams: Vec<OnlineCs>,
    /// Staged events of the current frame. Acts as a pool: only the
    /// front entries `stage` counts are live; the rest keep their
    /// signature buffers so steady-state frames never allocate.
    events: Vec<FleetEvent>,
    n_sensors: usize,
    spec: WindowSpec,
    stats: FleetStats,
    /// Live registry handles ([`FleetEngine::attach_metrics`]); `None`
    /// keeps the ingest path free of metric stores and timer reads.
    metrics: Option<FleetMetrics>,
}

/// Live handles mirroring [`FleetStats`], bumped once per frame on the
/// ingest thread (striped relaxed adds: no lock, no allocation), plus
/// the sampled ingest latency histogram.
#[derive(Debug)]
struct FleetMetrics {
    frames: Counter,
    events: Counter,
    gaps: Counter,
    ingest_ns: Histogram,
}

impl FleetEngine {
    /// Creates an engine with one trained method per node (element `i`
    /// serves node `i`). All methods must cover the same sensor count —
    /// the frame layout is homogeneous even though the learned models
    /// are not.
    pub fn new(methods: Vec<CsMethod>, spec: WindowSpec) -> Result<Self> {
        if methods.is_empty() {
            return Err(CoreError::Config("fleet needs at least one node".into()));
        }
        let n_sensors = methods[0].model().n_sensors();
        for (i, m) in methods.iter().enumerate() {
            if m.model().n_sensors() != n_sensors {
                return Err(CoreError::Shape(format!(
                    "node {i} model covers {} sensors, node 0 covers {n_sensors}",
                    m.model().n_sensors()
                )));
            }
        }
        Ok(Self {
            streams: methods
                .into_iter()
                .map(|m| OnlineCs::new(m, spec))
                .collect(),
            events: Vec::new(),
            n_sensors,
            spec,
            stats: FleetStats::default(),
            metrics: None,
        })
    }

    /// Creates an engine where every node shares the same trained method
    /// (e.g. a homogeneous partition trained on pooled history).
    pub fn homogeneous(method: CsMethod, nodes: usize, spec: WindowSpec) -> Result<Self> {
        Self::new(vec![method; nodes], spec)
    }

    /// Number of nodes served.
    pub fn nodes(&self) -> usize {
        self.streams.len()
    }

    /// Readings expected per node per frame.
    pub fn n_sensors(&self) -> usize {
        self.n_sensors
    }

    /// The window geometry every stream uses.
    pub fn spec(&self) -> WindowSpec {
        self.spec
    }

    /// Lifetime ingest counters.
    pub fn stats(&self) -> FleetStats {
        self.stats
    }

    /// Wires the engine to a metrics registry: registers live
    /// `cws_frames_total`/`cws_events_total`/`cws_gaps_total` counters
    /// (label `stage="fleet"`) bumped once per ingested frame, plus a
    /// `cws_ingest_ns{stage="fleet"}` latency histogram fed by a scoped
    /// span around the stream pass of every 16th frame (sampled — see
    /// `SPAN_SAMPLE_EVERY` — so the span's two clock reads stay off the
    /// steady-state per-frame cost). The handles are pre-registered, so
    /// steady-state recording allocates nothing.
    pub fn attach_metrics(&mut self, registry: &Registry) {
        let labels = &[("stage", "fleet")];
        self.metrics = Some(FleetMetrics {
            frames: registry.counter("cws_frames_total", labels),
            events: registry.counter("cws_events_total", labels),
            gaps: registry.counter("cws_gaps_total", labels),
            ingest_ns: registry.histogram("cws_ingest_ns", labels),
        });
    }

    /// A right-sized empty frame for this fleet.
    pub fn frame(&self) -> FleetFrame {
        FleetFrame::new(self.nodes(), self.n_sensors)
    }

    /// The stream serving `node` (diagnostics: gaps, buffered fill, model).
    pub fn node(&self, node: usize) -> Option<&OnlineCs> {
        self.streams.get(node)
    }

    /// Ingests one frame, handing any completed-window events to `sink`
    /// in node order. Nodes absent from the frame take the gap-recovery
    /// path. This is the engine's only ingest entry point. Every buffer —
    /// including the staged event structs and their signature vectors —
    /// is reused across frames, so with an allocation-free sink the
    /// whole path is heap-silent in steady state. A caller that wants
    /// owned events passes a `Vec<FleetEvent>` or a
    /// [`Collect`](crate::pipeline::Collect).
    ///
    /// Every stream advances before the first event is delivered. If the
    /// sink errors, the remaining events of the frame are not delivered,
    /// the stats counters are left unchanged, and the error propagates;
    /// the per-node streams have already advanced (the frame *was*
    /// ingested).
    pub fn ingest_frame_sink<S: FleetSink>(
        &mut self,
        frame: &FleetFrame,
        sink: &mut S,
    ) -> Result<()> {
        if frame.nodes() != self.nodes() || frame.n_sensors() != self.n_sensors {
            return Err(CoreError::Shape(format!(
                "frame is {}x{}, fleet expects {}x{}",
                frame.nodes(),
                frame.n_sensors(),
                self.nodes(),
                self.n_sensors
            )));
        }
        let staged = self.stage(frame)?;
        for event in &self.events[..staged] {
            sink.on_event(event)?;
        }
        let events = staged as u64;
        let gaps = (self.nodes() - frame.present_count()) as u64;
        self.stats.frames += 1;
        self.stats.events += events;
        self.stats.gaps += gaps;
        if let Some(m) = &self.metrics {
            // Pre-registered handles: striped relaxed adds, no
            // allocation — once per frame, not per event.
            m.frames.inc();
            m.events.add(events);
            m.gaps.add(gaps);
        }
        Ok(())
    }

    /// Advances every node's stream by one frame, staging completed
    /// windows at the front of the event pool; returns how many.
    fn stage(&mut self, frame: &FleetFrame) -> Result<usize> {
        // Scoped span: records elapsed ns into the histogram on drop.
        // Frame-clocked sampling; `frames` has not been bumped yet, so
        // frame 0 (a cold-cache outlier worth seeing) is included.
        let _span = self
            .metrics
            .as_ref()
            .filter(|_| self.stats.frames.is_multiple_of(SPAN_SAMPLE_EVERY))
            .map(|m| m.ingest_ns.start_span());
        let mut staged = 0;
        for (node, stream) in self.streams.iter_mut().enumerate() {
            let Some(column) = frame.readings(node) else {
                stream.push_gap();
                continue;
            };
            if staged == self.events.len() {
                self.events.push(FleetEvent::default());
            }
            let slot = &mut self.events[staged];
            if stream.push_into(column, &mut slot.signature)? {
                slot.node = node;
                slot.window_index = stream.emitted() - 1;
                staged += 1;
            }
        }
        Ok(staged)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cs::CsTrainer;
    use cwsmooth_linalg::Matrix;

    fn node_matrix(node: usize, n: usize, t: usize) -> Matrix {
        Matrix::from_fn(n, t, |r, c| {
            ((c as f64 / (3.0 + r as f64) + node as f64 * 0.7).sin() * (r + 1) as f64)
                + 0.05 * node as f64
        })
    }

    fn build_fleet(nodes: usize, n: usize, t: usize) -> (FleetEngine, Vec<Matrix>) {
        let mats: Vec<Matrix> = (0..nodes).map(|i| node_matrix(i, n, t)).collect();
        let methods: Vec<CsMethod> = mats
            .iter()
            .map(|m| CsMethod::new(CsTrainer::default().train(m).unwrap(), 3).unwrap())
            .collect();
        let spec = WindowSpec::new(8, 4).unwrap();
        (FleetEngine::new(methods, spec).unwrap(), mats)
    }

    #[test]
    fn fleet_matches_per_node_online_streams() {
        let (nodes, n, t) = (13usize, 4usize, 60usize);
        let (mut engine, mats) = build_fleet(nodes, n, t);

        // Reference: independent OnlineCs per node.
        let mut refs: Vec<OnlineCs> = (0..nodes)
            .map(|i| OnlineCs::new(engine.node(i).unwrap().method().clone(), engine.spec()))
            .collect();

        let mut frame = engine.frame();
        let mut got: Vec<FleetEvent> = Vec::new();
        let mut expect: Vec<FleetEvent> = Vec::new();
        for c in 0..t {
            frame.clear();
            for (i, m) in mats.iter().enumerate() {
                // node i drops frames on a deterministic pattern
                if (c + i) % 11 != 0 {
                    frame.set(i, &m.col(c)).unwrap();
                }
            }
            engine.ingest_frame_sink(&frame, &mut got).unwrap();
            for (i, r) in refs.iter_mut().enumerate() {
                match frame.readings(i) {
                    Some(col) => {
                        if let Some(sig) = r.push(col).unwrap() {
                            expect.push(FleetEvent {
                                node: i,
                                window_index: r.emitted() - 1,
                                signature: sig,
                            });
                        }
                    }
                    None => r.push_gap(),
                }
            }
        }
        assert!(!expect.is_empty());
        // Same events; within a frame the fleet orders them by node.
        assert_eq!(got, expect);
        assert_eq!(engine.stats().events, expect.len() as u64);
        assert_eq!(engine.stats().frames, t as u64);
        let total_gaps: usize = (0..nodes).map(|i| engine.node(i).unwrap().gaps()).sum();
        assert_eq!(engine.stats().gaps, total_gaps as u64);
    }

    /// A sink that copies values out without owning any event.
    struct Summing {
        events: usize,
        checksum: f64,
        fail_after: Option<usize>,
    }

    impl FleetSink for Summing {
        fn on_event(&mut self, event: &FleetEvent) -> Result<()> {
            if self.fail_after.is_some_and(|n| self.events >= n) {
                return Err(CoreError::Persist("sink full".into()));
            }
            self.events += 1;
            self.checksum += event.node as f64
                + event.window_index as f64
                + event.signature.re.iter().sum::<f64>();
            Ok(())
        }
    }

    #[test]
    fn sink_delivery_matches_vec_collection() {
        let (mut via_sink, mats) = build_fleet(9, 4, 80);
        let (mut via_vec, _) = build_fleet(9, 4, 80);
        let mut sink = Summing {
            events: 0,
            checksum: 0.0,
            fail_after: None,
        };
        let mut collected: Vec<FleetEvent> = Vec::new();
        let mut frame = via_sink.frame();
        for c in 0..80 {
            frame.clear();
            for (i, m) in mats.iter().enumerate() {
                if (c + i) % 7 != 0 {
                    frame.set(i, &m.col(c)).unwrap();
                }
            }
            via_sink.ingest_frame_sink(&frame, &mut sink).unwrap();
            via_vec.ingest_frame_sink(&frame, &mut collected).unwrap();
        }
        assert_eq!(sink.events, collected.len());
        let expect: f64 = collected
            .iter()
            .map(|e| e.node as f64 + e.window_index as f64 + e.signature.re.iter().sum::<f64>())
            .sum();
        assert!((sink.checksum - expect).abs() < 1e-9);
        assert_eq!(via_sink.stats(), via_vec.stats());
    }

    #[test]
    fn sink_error_aborts_frame_delivery_and_keeps_stats() {
        let (mut engine, mats) = build_fleet(6, 4, 40);
        let mut frame = engine.frame();
        let mut sink = Summing {
            events: 0,
            checksum: 0.0,
            fail_after: Some(2),
        };
        let mut failed_at = None;
        for c in 0..40 {
            frame.clear();
            for (i, m) in mats.iter().enumerate() {
                frame.set(i, &m.col(c)).unwrap();
            }
            let stats_before = engine.stats();
            if engine.ingest_frame_sink(&frame, &mut sink).is_err() {
                // Counters stay at the pre-frame values on sink failure.
                assert_eq!(engine.stats(), stats_before);
                failed_at = Some(c);
                break;
            }
        }
        assert!(failed_at.is_some(), "sink never filled up");
        assert_eq!(sink.events, 2);
    }

    #[test]
    fn rejects_mismatched_construction_and_frames() {
        let a = CsMethod::new(
            CsTrainer::default().train(&node_matrix(0, 3, 30)).unwrap(),
            2,
        )
        .unwrap();
        let b = CsMethod::new(
            CsTrainer::default().train(&node_matrix(1, 4, 30)).unwrap(),
            2,
        )
        .unwrap();
        let spec = WindowSpec::new(5, 5).unwrap();
        assert!(FleetEngine::new(vec![], spec).is_err());
        assert!(FleetEngine::new(vec![a.clone(), b], spec).is_err());

        let mut engine = FleetEngine::homogeneous(a, 4, spec).unwrap();
        let wrong = FleetFrame::new(3, 3);
        assert!(engine.ingest_frame_sink(&wrong, &mut Vec::new()).is_err());
        let mut frame = engine.frame();
        assert!(frame.set(9, &[0.0; 3]).is_err());
        assert!(frame.set(0, &[0.0; 2]).is_err());
        assert!(frame.set(0, &[0.0; 3]).is_ok());
        assert_eq!(frame.present_count(), 1);
        assert!(frame.readings(1).is_none());
        assert!(frame.readings(0).is_some());
        frame.clear();
        assert_eq!(frame.present_count(), 0);
    }

    #[test]
    fn slot_mut_writes_in_place() {
        let mut frame = FleetFrame::new(2, 3);
        frame.slot_mut(1).unwrap().copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(frame.readings(1).unwrap(), &[1.0, 2.0, 3.0]);
        assert!(frame.readings(0).is_none());
        assert!(frame.slot_mut(2).is_err());
    }

    #[test]
    fn attached_metrics_mirror_stats_and_time_sampled_frames() {
        use cwsmooth_obs::{Observe, Snapshot, Value, HIST_BUCKETS};

        let (mut engine, mats) = build_fleet(9, 4, 60);
        let registry = Registry::new();
        engine.attach_metrics(&registry);
        let mut frame = engine.frame();
        let mut events = Vec::new();
        for c in 0..60 {
            frame.clear();
            for (i, m) in mats.iter().enumerate() {
                // Gaps must be sparser than the window length (8) or no
                // node ever completes a window.
                if (c + i) % 17 != 0 {
                    frame.set(i, &m.col(c)).unwrap();
                }
            }
            engine.ingest_frame_sink(&frame, &mut events).unwrap();
        }
        let stats = engine.stats();
        assert!(stats.events > 0 && stats.gaps > 0);

        let mut live = Snapshot::new();
        registry.observe(&mut live);
        let counter = |name: &str| {
            live.samples()
                .iter()
                .find_map(|s| match (s.name == name, &s.value) {
                    (true, Value::Counter(v)) => Some(*v),
                    _ => None,
                })
        };
        assert_eq!(counter("cws_frames_total"), Some(stats.frames));
        assert_eq!(counter("cws_events_total"), Some(stats.events));
        assert_eq!(counter("cws_gaps_total"), Some(stats.gaps));
        // One latency histogram, one sample per sampled frame (frames
        // 0, N, 2N, ... — see SPAN_SAMPLE_EVERY).
        let spans: Vec<u64> = live
            .samples()
            .iter()
            .filter(|s| s.name == "cws_ingest_ns")
            .map(|s| match &s.value {
                Value::Histogram(h) => {
                    assert_eq!(h.buckets.len(), HIST_BUCKETS);
                    h.count
                }
                other => panic!("cws_ingest_ns is not a histogram: {other:?}"),
            })
            .collect();
        assert_eq!(spans, [stats.frames.div_ceil(SPAN_SAMPLE_EVERY)]);
    }

    #[test]
    fn node_accessor_covers_every_node() {
        let (engine, _) = build_fleet(10, 3, 40);
        for i in 0..10 {
            let stream = engine.node(i).unwrap();
            assert_eq!(stream.n_sensors(), 3);
        }
        assert!(engine.node(10).is_none());
    }
}
