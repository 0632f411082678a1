//! Feedback-loop budgets of §4.2–4.4, and the monitored-output surface.
//!
//! The paper's only quantitative requirements table, in prose:
//!
//! * **VR rendering loop** (§4.2): "at least 10 to 15 updates per second"
//!   when the viewer moves — budget 66–100 ms; we use the lenient bound.
//! * **Desktop rendering loop** (§4.2): "at least 3 to 5 frames per second
//!   should be reached with one frame delay" — budget 333 ms, divergence
//!   between sites at most one frame.
//! * **Post-processing loop** (§4.3): "in the range of parts of a second
//!   to multiple seconds"; we take 5 s, with the harder requirement being
//!   *synchrony* across sites.
//! * **Simulation loop** (§4.4): "people can tolerate delays of up to a
//!   minute while waiting for new simulation results."
//!
//! The budgets are what monitored output is *scored against*; the second
//! half of this module is what produces that output: [`MonitorSource`] is
//! the one trait a simulation implements to name its monitored quantities
//! (the outbound mirror of [`SteerTarget`](crate::SteerTarget)). A step
//! boundary publishes them as one batch,
//! `hub.publish_batch(sim.monitor_step(), sim.monitor_payloads_into(&mut scratch))`,
//! and the [`gridsteer_bus::MonitorHub`] counts and fans out the frames.

use gridsteer_bus::MonitorPayload;
use lbm::TwoFluidLbm;
use netsim::SimTime;
use pepc::PepcSim;

/// One of the paper's reaction-time budgets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoopBudget {
    /// §4.2, CAVE/VR: 10–15 fps ⇒ ≤100 ms per update.
    VrRender,
    /// §4.2, desktop: 3–5 fps ⇒ ≤333 ms per update.
    DesktopRender,
    /// §4.3: parameter change → updated scene, ≤5 s.
    PostProcessing,
    /// §4.4: simulation parameter change → new results, ≤60 s.
    Simulation,
}

impl LoopBudget {
    /// The latency budget.
    pub fn budget(self) -> SimTime {
        match self {
            LoopBudget::VrRender => SimTime::from_millis(100),
            LoopBudget::DesktopRender => SimTime::from_millis(333),
            LoopBudget::PostProcessing => SimTime::from_secs(5),
            LoopBudget::Simulation => SimTime::from_secs(60),
        }
    }

    /// The cross-site divergence bound, where the paper states one
    /// ("a variation of one frame does not influence a discussion process,
    /// while multiple frames difference … might lead to misunderstanding",
    /// §4.2).
    pub fn max_skew(self) -> Option<SimTime> {
        match self {
            LoopBudget::VrRender => Some(SimTime::from_millis(100)),
            LoopBudget::DesktopRender => Some(SimTime::from_millis(333)),
            // §4.3: "the update takes place at the same time at the
            // different participating sites" — within one desktop frame
            LoopBudget::PostProcessing => Some(SimTime::from_millis(333)),
            LoopBudget::Simulation => None,
        }
    }

    /// Human-readable name (appears in experiment output).
    pub fn name(self) -> &'static str {
        match self {
            LoopBudget::VrRender => "vr-render",
            LoopBudget::DesktopRender => "desktop-render",
            LoopBudget::PostProcessing => "post-processing",
            LoopBudget::Simulation => "simulation",
        }
    }
}

/// Records measurements of one feedback loop and checks them against the
/// budget. Keeps what [`LoopMonitor::report`] needs — count, sum, max,
/// over-budget count, max skew — not the samples, so it is the same size
/// after a minute of updates as after a day.
#[derive(Debug, Clone)]
pub struct LoopMonitor {
    /// Which loop is measured.
    pub budget: LoopBudget,
    count: usize,
    sum_ns: u64,
    max: SimTime,
    violations: u64,
    max_skew: SimTime,
}

/// Summary of a monitored loop.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopReport {
    /// The loop.
    pub budget: LoopBudget,
    /// Number of measurements.
    pub count: usize,
    /// Mean latency.
    pub mean: SimTime,
    /// Worst latency.
    pub max: SimTime,
    /// Worst cross-site skew.
    pub max_skew: SimTime,
    /// True if every latency met the budget.
    pub within_budget: bool,
    /// Number of latency samples that busted the budget (0 iff
    /// `within_budget`, except for the empty monitor, which has no
    /// violations yet is not within budget — no evidence is no pass).
    pub violations: u64,
    /// True if every skew met the divergence bound (vacuously true when
    /// the budget has none).
    pub within_skew: bool,
    /// Achieved update rate implied by the mean latency (Hz).
    pub rate_hz: f64,
}

impl LoopMonitor {
    /// Monitor for one budget.
    pub fn new(budget: LoopBudget) -> Self {
        LoopMonitor {
            budget,
            count: 0,
            sum_ns: 0,
            max: SimTime::ZERO,
            violations: 0,
            max_skew: SimTime::ZERO,
        }
    }

    /// Record one loop latency.
    pub fn record(&mut self, latency: SimTime) {
        self.count += 1;
        self.sum_ns += latency.as_nanos();
        self.max = self.max.max(latency);
        self.violations += u64::from(latency > self.budget.budget());
    }

    /// Record one cross-site skew observation.
    pub fn record_skew(&mut self, skew: SimTime) {
        self.max_skew = self.max_skew.max(skew);
    }

    /// Summarize.
    pub fn report(&self) -> LoopReport {
        let count = self.count;
        let mean = SimTime::from_nanos(self.sum_ns.checked_div(count as u64).unwrap_or(0));
        let rate_hz = if mean.as_nanos() > 0 {
            1e9 / mean.as_nanos() as f64
        } else {
            f64::INFINITY
        };
        LoopReport {
            budget: self.budget,
            count,
            mean,
            max: self.max,
            max_skew: self.max_skew,
            within_budget: count > 0 && self.max <= self.budget.budget(),
            violations: self.violations,
            within_skew: self.budget.max_skew().is_none_or(|b| self.max_skew <= b),
            rate_hz,
        }
    }
}

/// A simulation that emits monitored quantities at step boundaries: the
/// outbound mirror of [`SteerTarget`](crate::SteerTarget), implemented by
/// both paper codes. The payload list is the simulation's *monitor
/// surface* — ordered, deterministic for a given state, and typed with
/// the bus payload kinds so every middleware adapter can carry it.
pub trait MonitorSource {
    /// The monitored payloads at the current state, in a fixed channel
    /// order (scenario digests fold these bytes, so order is contract).
    /// Grid channels are filled into `scratch` in place and returned as
    /// *borrowed* payloads, so a warm publish makes no grid-sized
    /// allocation.
    fn monitor_payloads_into<'a>(&self, scratch: &'a mut MonitorScratch)
        -> Vec<MonitorPayload<'a>>;

    /// The same surface as owned payloads, for callers that keep them
    /// past the next sample.
    fn monitor_payloads(&self) -> Vec<MonitorPayload<'static>> {
        let mut scratch = MonitorScratch::default();
        let payloads = self.monitor_payloads_into(&mut scratch);
        payloads
            .into_iter()
            .map(MonitorPayload::into_owned)
            .collect()
    }

    /// Monotone progress counter (simulation steps taken) — stamped onto
    /// published frames as the step number.
    fn monitor_step(&self) -> u64;
}

/// Reusable grid buffers for the zero-copy monitor path. The publisher
/// keeps one of these alive across samples; each publish refills
/// the buffers in place and ships payloads borrowing them, so
/// steady-state monitoring performs no per-sample grid allocation.
#[derive(Debug, Default)]
pub struct MonitorScratch {
    /// Full-lattice grid channel (φ for the LBM).
    field: Vec<f32>,
    /// Mid-plane slice channel.
    slice: Vec<f32>,
}

impl MonitorSource for TwoFluidLbm {
    fn monitor_payloads_into<'a>(
        &self,
        scratch: &'a mut MonitorScratch,
    ) -> Vec<MonitorPayload<'a>> {
        let MonitorScratch { field, slice } = scratch;
        let (nx, ny, nz) = self.dims();
        let (mass_a, mass_b) = self.total_mass();
        self.order_parameter_into(field);
        // the mid-plane slice is the contiguous z = nz/2 plane of the
        // row-major field just computed
        let plane = nx * ny;
        let mid = nz / 2;
        slice.clear();
        slice.extend_from_slice(&field[mid * plane..(mid + 1) * plane]);
        vec![
            MonitorPayload::scalar("demix", lbm::demix_of_slice(field)),
            MonitorPayload::scalar("mass_a", mass_a),
            MonitorPayload::scalar("mass_b", mass_b),
            MonitorPayload::vec3("momentum", self.total_momentum()),
            MonitorPayload::grid2_borrowed("phi_mid", nx as u32, ny as u32, slice),
            MonitorPayload::grid3_borrowed("phi", nx as u32, ny as u32, nz as u32, field),
        ]
    }

    fn monitor_step(&self) -> u64 {
        self.steps()
    }
}

impl MonitorSource for PepcSim {
    fn monitor_payloads_into<'a>(&self, _: &'a mut MonitorScratch) -> Vec<MonitorPayload<'a>> {
        let mut out = vec![
            MonitorPayload::scalar("kinetic", self.kinetic_energy()),
            MonitorPayload::scalar("potential", self.potential_energy()),
            MonitorPayload::scalar("particles", self.len() as f64),
        ];
        if let Some(c) = self.beam_centroid() {
            out.push(MonitorPayload::vec3("beam_centroid", c));
        }
        out
    }

    fn monitor_step(&self) -> u64 {
        self.step_count()
    }
}

/// The monitor as it was written first: every sample kept, the report a
/// fold over all of them. [`LoopMonitor`] must agree with it exactly.
#[cfg(test)]
mod reference {
    use super::{LoopBudget, LoopReport};
    use netsim::SimTime;

    pub(super) fn report(budget: LoopBudget, samples: &[SimTime], skews: &[SimTime]) -> LoopReport {
        let count = samples.len();
        let sum: u64 = samples.iter().map(|t| t.as_nanos()).sum();
        let mean = SimTime::from_nanos(if count > 0 { sum / count as u64 } else { 0 });
        let max = samples.iter().copied().max().unwrap_or(SimTime::ZERO);
        let max_skew = skews.iter().copied().max().unwrap_or(SimTime::ZERO);
        let bound = budget.budget();
        let rate_hz = if mean.as_nanos() > 0 {
            1e9 / mean.as_nanos() as f64
        } else {
            f64::INFINITY
        };
        LoopReport {
            budget,
            count,
            mean,
            max,
            max_skew,
            within_budget: count > 0 && max <= bound,
            violations: samples.iter().filter(|&&t| t > bound).count() as u64,
            within_skew: budget.max_skew().is_none_or(|b| max_skew <= b),
            rate_hz,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budgets_match_the_paper() {
        assert_eq!(LoopBudget::VrRender.budget(), SimTime::from_millis(100));
        assert_eq!(
            LoopBudget::DesktopRender.budget(),
            SimTime::from_millis(333)
        );
        assert_eq!(LoopBudget::PostProcessing.budget(), SimTime::from_secs(5));
        assert_eq!(LoopBudget::Simulation.budget(), SimTime::from_secs(60));
        assert!(LoopBudget::Simulation.max_skew().is_none());
    }

    #[test]
    fn within_budget_detection() {
        let mut m = LoopMonitor::new(LoopBudget::VrRender);
        for ms in [20, 40, 60] {
            m.record(SimTime::from_millis(ms));
        }
        let r = m.report();
        assert!(r.within_budget);
        assert_eq!(r.max, SimTime::from_millis(60));
        assert_eq!(r.mean, SimTime::from_millis(40));
        assert!((r.rate_hz - 25.0).abs() < 0.1);
    }

    #[test]
    fn budget_violation_detected() {
        let mut m = LoopMonitor::new(LoopBudget::VrRender);
        m.record(SimTime::from_millis(50));
        m.record(SimTime::from_millis(150)); // a remote-render round trip
        assert!(!m.report().within_budget);
    }

    #[test]
    fn skew_bound_checked() {
        let mut m = LoopMonitor::new(LoopBudget::DesktopRender);
        m.record(SimTime::from_millis(100));
        m.record_skew(SimTime::from_millis(400));
        let r = m.report();
        assert!(r.within_budget);
        assert!(!r.within_skew, "multi-frame divergence must fail");
    }

    /// Feed `samples` and `skews` to a fresh monitor and check its report
    /// against the reference fold over the whole lists.
    fn check(budget: LoopBudget, samples: &[SimTime], skews: &[SimTime]) -> LoopReport {
        let mut m = LoopMonitor::new(budget);
        samples.iter().for_each(|&t| m.record(t));
        skews.iter().for_each(|&t| m.record_skew(t));
        let (got, want) = (m.report(), reference::report(budget, samples, skews));
        assert_eq!(got, want, "{} over {samples:?}", budget.name());
        got
    }

    #[test]
    fn report_equals_the_reference_fold_over_every_sample() {
        let budgets = [
            LoopBudget::VrRender,
            LoopBudget::DesktopRender,
            LoopBudget::PostProcessing,
            LoopBudget::Simulation,
        ];
        for budget in budgets {
            let bound = budget.budget().as_nanos();
            // the empty monitor, a tie at the budget, one nanosecond over
            check(budget, &[], &[]);
            let tie = check(budget, &[SimTime::from_nanos(bound)], &[]);
            assert!(tie.within_budget && tie.violations == 0);
            let over = check(budget, &[SimTime::from_nanos(bound + 1)], &[]);
            assert_eq!(over.violations, 1);
            // seeded streams straddling the budget, with skews around the
            // divergence bound
            for seed in 1..=16u64 {
                let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                let mut next = |span: u64| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    SimTime::from_nanos(x % span)
                };
                let samples: Vec<SimTime> = (0..seed * 40).map(|_| next(2 * bound + 2)).collect();
                let skews: Vec<SimTime> = (0..seed * 3).map(|_| next(700_000_000)).collect();
                check(budget, &samples, &skews);
            }
        }
    }

    #[test]
    fn empty_monitor_not_within_budget() {
        let r = LoopMonitor::new(LoopBudget::Simulation).report();
        assert_eq!(r.count, 0);
        assert!(!r.within_budget, "no evidence ⇒ no pass");
        assert_eq!(r.violations, 0);
    }

    #[test]
    fn violations_count_each_busted_sample() {
        let mut m = LoopMonitor::new(LoopBudget::DesktopRender);
        for ms in [100, 400, 200, 500, 600] {
            m.record(SimTime::from_millis(ms));
        }
        let r = m.report();
        assert_eq!(r.violations, 3, "333ms budget busted thrice");
        assert!(!r.within_budget);
    }

    #[test]
    fn lbm_monitor_surface_is_typed_and_ordered() {
        use gridsteer_bus::MonitorKind;
        let sim = TwoFluidLbm::new(lbm::LbmConfig {
            nx: 4,
            ny: 4,
            nz: 4,
            threads: 1,
            ..Default::default()
        });
        let payloads = sim.monitor_payloads();
        let kinds: Vec<MonitorKind> = payloads.iter().map(MonitorPayload::kind).collect();
        assert_eq!(
            kinds,
            vec![
                MonitorKind::Scalar,
                MonitorKind::Scalar,
                MonitorKind::Scalar,
                MonitorKind::Vec3,
                MonitorKind::Grid2,
                MonitorKind::Grid3,
            ]
        );
        match &payloads[4] {
            MonitorPayload::Grid2 { nx, ny, data, .. } => {
                assert_eq!((*nx, *ny), (4, 4));
                assert_eq!(data.len(), 16);
            }
            other => panic!("expected grid2, got {other:?}"),
        }
        // the monitored demix channel is the sim's own metric, bit for bit
        match &payloads[0] {
            MonitorPayload::Scalar { value, .. } => {
                assert_eq!(value.to_bits(), sim.demix_metric().to_bits());
            }
            other => panic!("expected scalar, got {other:?}"),
        }
        // the mid-plane slice must be exactly that plane of the full field
        let full = sim.order_parameter();
        let (_, _, slice) = sim.order_parameter_slice(2);
        let from_full: Vec<f32> = (0..4)
            .flat_map(|y| (0..4).map(move |x| (x, y)))
            .map(|(x, y)| full.get(x, y, 2))
            .collect();
        assert_eq!(slice, from_full);
    }

    #[test]
    fn pepc_monitor_surface_tracks_beam_presence() {
        let mut sim = PepcSim::new(pepc::PepcConfig {
            n_target: 30,
            ranks: 1,
            ..pepc::PepcConfig::small()
        });
        let before = sim.monitor_payloads();
        assert_eq!(before.len(), 3, "no beam ⇒ no centroid channel");
        sim.inject_beam(5, 0.1);
        let after = sim.monitor_payloads();
        assert_eq!(after.len(), 4);
        assert!(matches!(after[3], MonitorPayload::Vec3 { .. }));
        // energies are consistent with the sim's own accounting
        match (&after[0], &after[1]) {
            (
                MonitorPayload::Scalar { value: kin, .. },
                MonitorPayload::Scalar { value: pot, .. },
            ) => {
                assert_eq!(kin + pot, sim.total_energy());
            }
            other => panic!("expected scalars, got {other:?}"),
        }
    }

    #[test]
    fn borrowed_and_owned_monitor_surfaces_are_bit_identical() {
        let mut sim = TwoFluidLbm::new(lbm::LbmConfig {
            nx: 6,
            ny: 5,
            nz: 4,
            threads: 1,
            ..Default::default()
        });
        sim.step_n(3);
        let owned = sim.monitor_payloads();
        let mut scratch = MonitorScratch::default();
        let borrowed = sim.monitor_payloads_into(&mut scratch);
        assert_eq!(owned.len(), borrowed.len());
        // canonical wire bytes are the bit-identity witness (PartialEq on
        // floats would let -0.0/NaN drift pass)
        for (o, b) in owned.iter().zip(&borrowed) {
            let wire = |p: &MonitorPayload| {
                gridsteer_bus::MonitorFrame {
                    seq: 1,
                    step: 3,
                    payload: p.clone(),
                }
                .try_to_bytes()
                .unwrap()
            };
            assert_eq!(wire(o), wire(b), "channel {}", o.name());
        }
        // the borrowed grids really are borrowed — no hidden clone
        assert!(matches!(
            &borrowed[5],
            MonitorPayload::Grid3 {
                data: std::borrow::Cow::Borrowed(_),
                ..
            }
        ));
    }

    #[test]
    fn the_surface_right_after_a_restore_is_the_uncrashed_twins() {
        use gridsteer_ckpt::Snapshot;
        let cfg = lbm::LbmConfig {
            nx: 6,
            ny: 5,
            nz: 4,
            threads: 1,
            ..Default::default()
        };
        let wire = |sim: &TwoFluidLbm| -> Vec<Vec<u8>> {
            let mut scratch = MonitorScratch::default();
            let payloads = sim.monitor_payloads_into(&mut scratch);
            let frame = |payload| gridsteer_bus::MonitorFrame {
                seq: 1,
                step: sim.monitor_step(),
                payload,
            };
            let frames = payloads.into_iter().map(frame);
            frames.map(|f| f.try_to_bytes().unwrap()).collect()
        };
        let mut twin = TwoFluidLbm::new(cfg.clone());
        twin.set_miscibility(0.2);
        twin.step_n(5);
        let mut snap = Snapshot::new(0, 0);
        twin.save_sections(&mut snap);
        // a fresh process, and a live one whose state is somewhere else —
        // neither takes a step between the restore and the sample
        let blob = Snapshot::decode(&snap.encode()).unwrap();
        let fresh = TwoFluidLbm::from_snapshot(&blob).unwrap();
        let mut live = TwoFluidLbm::new(lbm::LbmConfig { seed: 9, ..cfg });
        live.step_n(2);
        live.restore_sections(&blob).unwrap();
        assert_eq!(wire(&fresh), wire(&twin), "fresh-process restore");
        assert_eq!(wire(&live), wire(&twin), "in-place restore");
    }

    #[test]
    fn generic_adapter_publishes_borrowed_and_owned_identically() {
        use gridsteer_bus::{MonitorCaps, MonitorHub, Transport};
        let mut sim = TwoFluidLbm::new(lbm::LbmConfig {
            nx: 4,
            ny: 4,
            nz: 4,
            threads: 1,
            ..Default::default()
        });
        sim.step_n(2);
        let run = |borrowed: bool| {
            let hub = MonitorHub::new();
            hub.attach_endpoint(
                "v",
                Transport::Unicore.attach_monitor("v"),
                &MonitorCaps::full("viewer", 64),
            );
            let mut scratch = MonitorScratch::default();
            let n = if borrowed {
                hub.publish_batch(sim.monitor_step(), sim.monitor_payloads_into(&mut scratch))
            } else {
                hub.publish_batch(sim.monitor_step(), sim.monitor_payloads())
            };
            assert_eq!(n, 6);
            assert_eq!(hub.frames_published(), 6);
            hub.recv("v")
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn generic_adapter_publishes_batched_and_per_sample_identically() {
        use gridsteer_bus::{MonitorCaps, MonitorHub, Transport};
        let sim = TwoFluidLbm::new(lbm::LbmConfig {
            nx: 4,
            ny: 4,
            nz: 4,
            threads: 1,
            ..Default::default()
        });
        // the surface as one batch, or one frame at a time: a subscriber
        // cannot tell the difference
        let run = |batched: bool| {
            let hub = MonitorHub::new();
            hub.attach_endpoint(
                "v",
                Transport::Visit.attach_monitor("v"),
                &MonitorCaps::full("viewer", 64),
            );
            let (step, payloads) = (sim.monitor_step(), sim.monitor_payloads());
            if batched {
                hub.publish_batch(step, payloads);
            } else {
                for p in payloads {
                    hub.publish(step, p);
                }
            }
            assert_eq!(hub.frames_published(), 6);
            hub.recv("v")
        };
        assert_eq!(run(true), run(false));
    }
}
