//! Multi-node rack/island fleet scenario for fleet-scale streaming.
//!
//! The Table I segments model *one* node (or one rack aggregate) in depth;
//! this scenario models *many* shallow nodes — the workload a fleet ingest
//! engine faces. Each node runs a phase-shifted periodic workload (nodes of
//! one machine room rarely beat in lockstep), its power and thermal sensors
//! are physically coupled to that workload, nodes of one rack share a
//! common inlet-air condition (rack-level correlation), and telemetry gaps
//! are injected per node-frame with a configurable probability — the
//! dropped-sample reality of production monitoring buses.
//!
//! Generation is a pure deterministic function of `(seed, node, t)`:
//! nothing is stored, so a million-node fleet costs no memory and any
//! `(node, t)` cell can be (re)generated independently — which is also what
//! makes the scenario usable from the snapshot binaries, examples and
//! perfbench without huge fixtures.
//!
//! # Fault injection
//!
//! Each node's readings derive from a latent activity state
//! ([`FleetScenario::latent_at`] → [`FleetScenario::sensors_from`]), the
//! same [`Latent`]-channel model the Table I segments use — which means
//! the existing [`crate::faults`] injectors apply unchanged: a
//! [`FaultedFleet`] wraps a scenario with a [`FleetFaultPlan`] of
//! per-node fault segments and runs [`apply_fault`] on the latent state
//! of every covered `(node, t)` cell before deriving sensors. With an
//! empty plan the readings are bit-identical to the plain scenario
//! (pinned by tests), and [`FaultedFleet::class_at`] provides the
//! ground-truth label a streaming detector is scored against.

use crate::channels::{Channel, Latent};
use crate::faults::{apply_fault, FaultKind, FaultSetting};
use cwsmooth_linalg::Matrix;

/// Sensors per fleet node.
pub const FLEET_SENSORS: usize = 8;

/// Names of the per-node sensors, in row order.
pub const FLEET_SENSOR_NAMES: [&str; FLEET_SENSORS] = [
    "cpu_util_pct",
    "mem_util_pct",
    "membw_util_pct",
    "net_bw_mbs",
    "power_node_w",
    "temp_cpu_c",
    "temp_inlet_c",
    "psu_volt_v",
];

/// Row index of the deliberately constant sensor (`psu_volt_v`): its
/// trained min-max bounds collapse, exercising the zero-range guard of the
/// signature pipeline at fleet scale.
pub const CONSTANT_SENSOR: usize = 7;

/// Fleet scenario parameters.
#[derive(Debug, Clone, Copy)]
pub struct FleetSimConfig {
    /// Master seed.
    pub seed: u64,
    /// Number of nodes in the fleet.
    pub nodes: usize,
    /// Nodes per rack (rack peers share an inlet-air condition).
    pub nodes_per_rack: usize,
    /// Per-node per-frame telemetry-drop probability, in 1/1000.
    pub gap_per_mille: u32,
}

impl FleetSimConfig {
    /// Creates a config: 32-node racks, no telemetry gaps.
    pub fn new(seed: u64, nodes: usize) -> Self {
        Self {
            seed,
            nodes,
            nodes_per_rack: 32,
            gap_per_mille: 0,
        }
    }

    /// Sets the telemetry-drop probability (per node-frame, in 1/1000).
    pub fn with_gaps(mut self, per_mille: u32) -> Self {
        self.gap_per_mille = per_mille;
        self
    }

    /// Sets the rack size.
    pub fn with_rack_size(mut self, nodes_per_rack: usize) -> Self {
        self.nodes_per_rack = nodes_per_rack.max(1);
        self
    }
}

/// A deterministic multi-node telemetry generator (see module docs).
#[derive(Debug, Clone, Copy)]
pub struct FleetScenario {
    cfg: FleetSimConfig,
}

/// SplitMix64 finalizer: cheap stateless hashing so every `(seed, node, t)`
/// cell is independent without per-node RNG state.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn hash3(seed: u64, a: u64, b: u64) -> u64 {
    mix(seed ^ mix(a ^ mix(b)))
}

/// Uniform in `[0, 1)` from a hash.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Zero-mean pseudo-noise in `[-1, 1)` from a hash.
fn noise(h: u64) -> f64 {
    2.0 * unit(h) - 1.0
}

impl FleetScenario {
    /// Creates the scenario.
    pub fn new(cfg: FleetSimConfig) -> Self {
        Self { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FleetSimConfig {
        &self.cfg
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.cfg.nodes
    }

    /// Sensors per node.
    pub fn n_sensors(&self) -> usize {
        FLEET_SENSORS
    }

    /// The rack a node belongs to.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.cfg.nodes_per_rack
    }

    /// `true` when `node`'s reading for frame `t` is dropped (telemetry
    /// gap). Deterministic per `(seed, node, t)`.
    pub fn has_gap(&self, node: usize, t: usize) -> bool {
        self.cfg.gap_per_mille > 0
            && hash3(self.cfg.seed ^ 0x6a70, node as u64, t as u64) % 1000
                < self.cfg.gap_per_mille as u64
    }

    /// The latent activity state driving `node`'s sensors at frame `t`
    /// — the fault-injection hook: [`crate::faults::apply_fault`]
    /// perturbs this state exactly as it perturbs the Table I segments,
    /// and [`FleetScenario::sensors_from`] turns the (possibly faulted)
    /// state into readings.
    pub fn latent_at(&self, node: usize, t: usize) -> Latent {
        let seed = self.cfg.seed;
        let nid = node as u64;
        let tf = t as f64;

        // Per-node workload: a periodic job pattern, phase- and
        // period-shifted per node, with a slower modulation envelope.
        let phase = std::f64::consts::TAU * unit(hash3(seed, nid, 0xfa5e));
        let period = 64.0 + 64.0 * unit(hash3(seed, nid, 0x9e1d));
        let envelope =
            0.5 + 0.5 * (tf * std::f64::consts::TAU / (16.0 * period) + 2.0 * phase).sin();
        let cyc = (tf * std::f64::consts::TAU / period + phase).sin();
        let n1 = noise(hash3(seed, nid, t as u64));
        let cpu = (0.55 + 0.35 * cyc * envelope + 0.04 * n1).clamp(0.0, 1.0);

        // Correlated activity family.
        let n2 = noise(hash3(seed ^ 0x11, nid, t as u64));
        let mem = (0.25 + 0.55 * cpu + 0.03 * n2).clamp(0.0, 1.0);
        let membw = (0.85 * cpu * cpu + 0.05 * n1.abs()).clamp(0.0, 1.0);

        let mut latent = Latent::idle(); // Freq starts at the nominal 1.0
        latent.set(Channel::Cpu, cpu);
        latent.set(Channel::Mem, mem);
        latent.set(Channel::MemBw, membw);
        // Network activity tracks memory traffic on these nodes (the
        // NetDegrade injector scales this channel independently).
        latent.set(Channel::Net, membw);
        latent
    }

    /// Derives `node`'s [`FLEET_SENSORS`] readings at frame `t` from a
    /// latent activity state (see [`FleetScenario::latent_at`]).
    ///
    /// Panics if `out.len() != FLEET_SENSORS`.
    pub fn sensors_from(&self, node: usize, t: usize, latent: &Latent, out: &mut [f64]) {
        assert_eq!(out.len(), FLEET_SENSORS, "fleet column buffer size");
        let seed = self.cfg.seed;
        let nid = node as u64;
        let tf = t as f64;
        let n1 = noise(hash3(seed, nid, t as u64));
        let n2 = noise(hash3(seed ^ 0x11, nid, t as u64));

        let cpu = latent.get(Channel::Cpu);
        let membw = latent.get(Channel::MemBw);
        let net = 40.0
            + 900.0 * latent.get(Channel::Net)
            + 25.0 * noise(hash3(seed ^ 0x22, nid, t as u64)).abs();

        // Physics: power follows utilization scaled by the clock (a
        // capped clock burns less); CPU temperature rides the rack inlet
        // air plus the node's own dissipation. At the nominal clock
        // (Freq = 1.0) this reduces bit-exactly to the un-faulted model.
        let power = 88.0 + 155.0 * (cpu * latent.get(Channel::Freq)) + 30.0 * membw + 2.5 * n2;
        let rack = self.rack_of(node) as u64;
        let ambient = 19.0
            + 3.5 * (tf * std::f64::consts::TAU / 2880.0 + rack as f64 * 0.7).sin()
            + 0.15 * noise(hash3(seed ^ 0x33, rack, t as u64 / 8));
        let temp_cpu = ambient + 12.0 + 0.13 * (power - 88.0) + 0.3 * n1;

        out[0] = 100.0 * cpu;
        out[1] = 100.0 * latent.get(Channel::Mem);
        out[2] = 100.0 * membw;
        out[3] = net;
        out[4] = power;
        out[5] = temp_cpu;
        out[6] = ambient;
        // Exactly constant: a healthy PSU rail. Its trained bounds collapse
        // (hi == lo), pinning the signature pipeline's zero-range guard.
        out[CONSTANT_SENSOR] = 12.05;
    }

    /// Writes `node`'s [`FLEET_SENSORS`] readings at frame `t` into `out`.
    ///
    /// Panics if `out.len() != FLEET_SENSORS`.
    pub fn reading_into(&self, node: usize, t: usize, out: &mut [f64]) {
        let latent = self.latent_at(node, t);
        self.sensors_from(node, t, &latent, out);
    }

    /// `node`'s readings at frame `t` as a fresh vector.
    pub fn reading(&self, node: usize, t: usize) -> Vec<f64> {
        let mut out = vec![0.0; FLEET_SENSORS];
        self.reading_into(node, t, &mut out);
        out
    }

    /// A clean (gap-free) training matrix for `node` covering frames
    /// `0..samples`. Stream live frames from `t = samples` onwards so
    /// inference data extends, rather than replays, the training range.
    pub fn training_matrix(&self, node: usize, samples: usize) -> Matrix {
        let mut m = Matrix::zeros(FLEET_SENSORS, samples);
        let mut buf = [0.0; FLEET_SENSORS];
        for t in 0..samples {
            self.reading_into(node, t, &mut buf);
            for (r, &v) in buf.iter().enumerate() {
                m.set(r, t, v);
            }
        }
        m
    }
}

/// One injected fault: `kind` at `setting` on `node`, covering frames
/// `start..start + len`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSegmentSpec {
    /// The afflicted node.
    pub node: usize,
    /// First covered frame.
    pub start: usize,
    /// Covered frame count (>= 1).
    pub len: usize,
    /// Which injector runs.
    pub kind: FaultKind,
    /// Its intensity.
    pub setting: FaultSetting,
}

impl FaultSegmentSpec {
    /// One past the last covered frame.
    pub fn end(&self) -> usize {
        self.start + self.len
    }

    /// `true` when frame `t` falls inside this segment.
    pub fn covers(&self, t: usize) -> bool {
        (self.start..self.end()).contains(&t)
    }
}

/// A schedule of injected fault segments across the fleet, kept sorted
/// by `(node, start)` for O(log s) lookup per `(node, t)` cell.
#[derive(Debug, Clone, Default)]
pub struct FleetFaultPlan {
    segments: Vec<FaultSegmentSpec>,
}

impl FleetFaultPlan {
    /// An empty plan (every node healthy everywhere).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one fault segment (builder style).
    ///
    /// # Panics
    /// If the segment is empty (`len == 0`) or overlaps an existing
    /// segment on the same node — a cell with two active injectors has
    /// no single ground-truth class.
    pub fn with(mut self, seg: FaultSegmentSpec) -> Self {
        assert!(seg.len >= 1, "fault segment must cover at least 1 frame");
        let at = self
            .segments
            .partition_point(|s| (s.node, s.start) <= (seg.node, seg.start));
        if at > 0 {
            let prev = &self.segments[at - 1];
            assert!(
                prev.node != seg.node || prev.end() <= seg.start,
                "fault segments overlap on node {}: {prev:?} vs {seg:?}",
                seg.node
            );
        }
        if let Some(next) = self.segments.get(at) {
            assert!(
                next.node != seg.node || seg.end() <= next.start,
                "fault segments overlap on node {}: {seg:?} vs {next:?}",
                seg.node
            );
        }
        self.segments.insert(at, seg);
        self
    }

    /// All segments, sorted by `(node, start)`.
    pub fn segments(&self) -> &[FaultSegmentSpec] {
        &self.segments
    }

    /// The segment covering `(node, t)`, if any.
    pub fn active(&self, node: usize, t: usize) -> Option<&FaultSegmentSpec> {
        let i = self
            .segments
            .partition_point(|s| (s.node, s.start) <= (node, t));
        self.segments[..i]
            .last()
            .filter(|s| s.node == node && s.covers(t))
    }

    /// Ground-truth class of `(node, t)`: 0 when healthy, else the
    /// active fault's [`FaultKind::class_id`].
    pub fn class_at(&self, node: usize, t: usize) -> usize {
        self.active(node, t).map_or(0, |s| s.kind.class_id())
    }
}

/// A fleet scenario with faults injected per the plan: readings of
/// covered `(node, t)` cells run [`apply_fault`] over the latent state
/// before sensor derivation; everything else is bit-identical to the
/// plain scenario.
#[derive(Debug, Clone)]
pub struct FaultedFleet {
    scenario: FleetScenario,
    plan: FleetFaultPlan,
}

impl FaultedFleet {
    /// Wraps a scenario with a fault plan.
    pub fn new(scenario: FleetScenario, plan: FleetFaultPlan) -> Self {
        Self { scenario, plan }
    }

    /// The underlying (healthy) scenario.
    pub fn scenario(&self) -> &FleetScenario {
        &self.scenario
    }

    /// The fault schedule.
    pub fn plan(&self) -> &FleetFaultPlan {
        &self.plan
    }

    /// Ground-truth class of `(node, t)` (see [`FleetFaultPlan::class_at`]).
    pub fn class_at(&self, node: usize, t: usize) -> usize {
        self.plan.class_at(node, t)
    }

    /// Delegates to [`FleetScenario::has_gap`] — fault injection does
    /// not change telemetry delivery.
    pub fn has_gap(&self, node: usize, t: usize) -> bool {
        self.scenario.has_gap(node, t)
    }

    /// Writes `node`'s readings at frame `t`, with any covering fault
    /// applied to the latent state first.
    ///
    /// Panics if `out.len() != FLEET_SENSORS`.
    pub fn reading_into(&self, node: usize, t: usize, out: &mut [f64]) {
        let mut latent = self.scenario.latent_at(node, t);
        if let Some(seg) = self.plan.active(node, t) {
            apply_fault(&mut latent, seg.kind, seg.setting, t - seg.start, seg.len);
        }
        self.scenario.sensors_from(node, t, &latent, out);
    }

    /// `node`'s (possibly faulted) readings at frame `t` as a fresh
    /// vector.
    pub fn reading(&self, node: usize, t: usize) -> Vec<f64> {
        let mut out = vec![0.0; FLEET_SENSORS];
        self.reading_into(node, t, &mut out);
        out
    }

    /// A sensor matrix for `node` covering frames `from..to`, with
    /// faults applied — the labelled-data source for training streaming
    /// detectors ([`FaultedFleet::class_at`] labels each column).
    pub fn matrix(&self, node: usize, from: usize, to: usize) -> Matrix {
        assert!(to >= from, "empty frame range");
        let mut m = Matrix::zeros(FLEET_SENSORS, to - from);
        let mut buf = [0.0; FLEET_SENSORS];
        for (c, t) in (from..to).enumerate() {
            self.reading_into(node, t, &mut buf);
            for (r, &v) in buf.iter().enumerate() {
                m.set(r, c, v);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cwsmooth_linalg::corr::pearson;

    const T: usize = 1200;

    fn rows(sc: &FleetScenario, node: usize) -> Matrix {
        sc.training_matrix(node, T)
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let a = FleetScenario::new(FleetSimConfig::new(7, 4));
        let b = FleetScenario::new(FleetSimConfig::new(7, 4));
        let c = FleetScenario::new(FleetSimConfig::new(8, 4));
        assert_eq!(rows(&a, 2), rows(&b, 2));
        assert_ne!(rows(&a, 2), rows(&c, 2));
        assert_ne!(rows(&a, 2), rows(&a, 3), "nodes are decorrelated");
    }

    #[test]
    fn workload_sensors_are_correlated_per_node() {
        let sc = FleetScenario::new(FleetSimConfig::new(42, 8));
        let m = rows(&sc, 3);
        assert!(pearson(m.row(0), m.row(1)) > 0.8, "cpu/mem");
        assert!(pearson(m.row(0), m.row(4)) > 0.8, "cpu/power");
        assert!(pearson(m.row(4), m.row(5)) > 0.7, "power/temp_cpu");
        assert!(!m.has_non_finite());
    }

    #[test]
    fn rack_peers_share_inlet_condition() {
        let sc = FleetScenario::new(FleetSimConfig::new(5, 96).with_rack_size(32));
        // Same rack: inlet temperature nearly identical.
        let a = rows(&sc, 1);
        let b = rows(&sc, 30);
        assert!(pearson(a.row(6), b.row(6)) > 0.95, "same-rack inlet");
        // Different racks are phase-shifted.
        let c = rows(&sc, 70);
        assert!(pearson(a.row(6), c.row(6)) < 0.9, "cross-rack inlet");
        assert_eq!(sc.rack_of(31), 0);
        assert_eq!(sc.rack_of(32), 1);
    }

    #[test]
    fn nodes_are_phase_shifted() {
        let sc = FleetScenario::new(FleetSimConfig::new(11, 4));
        let a = rows(&sc, 0);
        let b = rows(&sc, 1);
        // Same structural family, but not in lockstep.
        assert!(pearson(a.row(0), b.row(0)) < 0.9, "cpu should not sync");
    }

    #[test]
    fn constant_sensor_is_exactly_constant() {
        let sc = FleetScenario::new(FleetSimConfig::new(3, 2));
        let m = rows(&sc, 0);
        assert!(m.row(CONSTANT_SENSOR).iter().all(|&v| v == 12.05));
    }

    #[test]
    fn gap_rate_matches_configuration() {
        let sc = FleetScenario::new(FleetSimConfig::new(19, 64).with_gaps(50));
        let trials = 64 * 2000;
        let gaps: usize = (0..64)
            .flat_map(|node| (0..2000).map(move |t| (node, t)))
            .filter(|&(node, t)| sc.has_gap(node, t))
            .count();
        let rate = gaps as f64 / trials as f64;
        assert!((rate - 0.05).abs() < 0.01, "gap rate {rate}");
        // No gaps when disabled.
        let clean = FleetScenario::new(FleetSimConfig::new(19, 64));
        assert!(!(0..500).any(|t| clean.has_gap(0, t)));
    }

    #[test]
    fn reading_matches_reading_into() {
        let sc = FleetScenario::new(FleetSimConfig::new(23, 2));
        let mut buf = [0.0; FLEET_SENSORS];
        sc.reading_into(1, 77, &mut buf);
        assert_eq!(sc.reading(1, 77), buf.to_vec());
        assert_eq!(FLEET_SENSOR_NAMES.len(), FLEET_SENSORS);
    }

    #[test]
    fn empty_fault_plan_is_bit_identical_to_plain_scenario() {
        let sc = FleetScenario::new(FleetSimConfig::new(77, 4));
        let faulted = FaultedFleet::new(sc, FleetFaultPlan::new());
        for node in 0..4 {
            for t in [0usize, 13, 499, 5000] {
                assert_eq!(faulted.reading(node, t), sc.reading(node, t));
                assert_eq!(faulted.class_at(node, t), 0);
            }
        }
    }

    #[test]
    fn fault_segment_perturbs_exactly_its_cells() {
        let sc = FleetScenario::new(FleetSimConfig::new(5, 4));
        let plan = FleetFaultPlan::new().with(FaultSegmentSpec {
            node: 2,
            start: 100,
            len: 50,
            kind: FaultKind::CpuOccupy,
            setting: FaultSetting::High,
        });
        let faulted = FaultedFleet::new(sc, plan);
        assert_eq!(faulted.plan().segments().len(), 1);
        for t in [99usize, 150, 151] {
            assert_eq!(faulted.reading(2, t), sc.reading(2, t), "outside at {t}");
            assert_eq!(faulted.class_at(2, t), 0);
        }
        for t in [100usize, 125, 149] {
            let clean = sc.reading(2, t);
            let hot = faulted.reading(2, t);
            assert_ne!(hot, clean, "inside at {t}");
            // The CPU hog raises cpu_util and the constant rail stays put.
            assert!(hot[0] > clean[0], "cpu {} vs {}", hot[0], clean[0]);
            assert_eq!(hot[CONSTANT_SENSOR], 12.05);
            assert_eq!(faulted.class_at(2, t), FaultKind::CpuOccupy.class_id());
        }
        // Other nodes never see the fault.
        assert_eq!(faulted.reading(1, 125), sc.reading(1, 125));
    }

    #[test]
    fn fault_signatures_reach_the_observed_sensors() {
        let sc = FleetScenario::new(FleetSimConfig::new(9, 2));
        let seg = |kind, start| FaultSegmentSpec {
            node: 0,
            start,
            len: 200,
            kind,
            setting: FaultSetting::High,
        };
        let plan = FleetFaultPlan::new()
            .with(seg(FaultKind::NetDegrade, 0))
            .with(seg(FaultKind::FreqCap, 300))
            .with(seg(FaultKind::MemLeak, 600));
        let faulted = FaultedFleet::new(sc, plan);
        // NetDegrade: net bandwidth collapses.
        let (clean, hot) = (sc.reading(0, 50), faulted.reading(0, 50));
        assert!(hot[3] < clean[3] - 20.0, "net {} vs {}", hot[3], clean[3]);
        // FreqCap: package power drops through the clock term.
        let (clean, hot) = (sc.reading(0, 350), faulted.reading(0, 350));
        assert!(hot[4] < clean[4] - 20.0, "power {} vs {}", hot[4], clean[4]);
        // MemLeak is progressive: late in the segment mem sits higher.
        let early = faulted.reading(0, 610)[1] - sc.reading(0, 610)[1];
        let late = faulted.reading(0, 790)[1] - sc.reading(0, 790)[1];
        assert!(late > early, "leak grows: {early} -> {late}");
        // matrix() stitches labelled columns together.
        let m = faulted.matrix(0, 0, 400);
        assert_eq!(m.shape(), (FLEET_SENSORS, 400));
        assert_eq!(m.get(3, 50), faulted.reading(0, 50)[3]);
        assert!(!m.has_non_finite());
    }

    #[test]
    fn plan_lookup_is_exact_across_nodes_and_boundaries() {
        let plan = FleetFaultPlan::new()
            .with(FaultSegmentSpec {
                node: 1,
                start: 10,
                len: 10,
                kind: FaultKind::MemEater,
                setting: FaultSetting::Low,
            })
            .with(FaultSegmentSpec {
                node: 1,
                start: 40,
                len: 5,
                kind: FaultKind::IoStress,
                setting: FaultSetting::High,
            })
            .with(FaultSegmentSpec {
                node: 0,
                start: 12,
                len: 3,
                kind: FaultKind::CacheInterference,
                setting: FaultSetting::Low,
            });
        assert!(plan.active(1, 9).is_none());
        assert_eq!(plan.active(1, 10).unwrap().kind, FaultKind::MemEater);
        assert_eq!(plan.active(1, 19).unwrap().kind, FaultKind::MemEater);
        assert!(plan.active(1, 20).is_none());
        assert_eq!(plan.active(1, 44).unwrap().kind, FaultKind::IoStress);
        assert_eq!(
            plan.active(0, 13).unwrap().kind,
            FaultKind::CacheInterference
        );
        assert!(plan.active(2, 13).is_none(), "node 2 is clean");
        assert_eq!(plan.class_at(1, 12), FaultKind::MemEater.class_id());
        assert_eq!(plan.class_at(1, 25), 0);
        // Segments are kept sorted by (node, start).
        let order: Vec<(usize, usize)> =
            plan.segments().iter().map(|s| (s.node, s.start)).collect();
        assert_eq!(order, vec![(0, 12), (1, 10), (1, 40)]);
    }

    #[test]
    #[should_panic(expected = "overlap")]
    fn overlapping_segments_on_one_node_panic() {
        let seg = |start, len| FaultSegmentSpec {
            node: 3,
            start,
            len,
            kind: FaultKind::CpuOccupy,
            setting: FaultSetting::Low,
        };
        let _ = FleetFaultPlan::new().with(seg(10, 20)).with(seg(25, 5));
    }
}
