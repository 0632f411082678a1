//! The simulation a scenario steers.
//!
//! A [`Backend`] is the sample source of a run: the engine steps it once
//! per sample tick, fans the sample out to the participants, and routes
//! accepted steers into it. It is one of the paper's two codes — the LB
//! two-fluid mixture (§2.2) or the PEPC plasma (§3.4) — reached only
//! through the surfaces both implement: [`SteerTarget`] for steering,
//! [`MonitorSource`] for monitored output and the `gridsteer_ckpt`
//! sections for checkpoints. Each operation is one `match`; what differs
//! per code is a kind label, a step counter and the sample size.

use crate::scenario::BackendSpec;
use gridsteer_ckpt::{CkptError, Snapshot};
use gridsteer_exec::ExecPool;
use lbm::{LbmConfig, TwoFluidLbm};
use pepc::{PepcConfig, PepcSim};
use std::sync::Arc;
use steer_core::{MonitorHub, MonitorScratch, MonitorSource, ParamSpec, ParamValue, SteerTarget};

/// Bytes per particle on the wire: position + velocity as f32 triples,
/// charge (f32), rank (u16), tracking label (u32).
const PEPC_PARTICLE_BYTES: usize = 12 + 12 + 4 + 2 + 4;

/// A steerable simulation driven by the scenario engine.
pub(crate) enum Backend {
    Lbm(TwoFluidLbm),
    Pepc(PepcSim),
}

impl Backend {
    /// A fresh simulation for `spec`, its initial conditions drawn from
    /// `seed` (the scenario derives it from its own seed).
    pub(crate) fn new(spec: &BackendSpec, seed: u64) -> Backend {
        match spec {
            BackendSpec::Lbm(cfg) => Backend::Lbm(TwoFluidLbm::new(LbmConfig {
                seed,
                ..cfg.clone()
            })),
            BackendSpec::Pepc(cfg) => Backend::Pepc(PepcSim::new(PepcConfig {
                seed,
                ..cfg.clone()
            })),
        }
    }

    /// Short backend name (appears in the report header).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Backend::Lbm(_) => "lbm",
            Backend::Pepc(_) => "pepc",
        }
    }

    /// Dispatch the parallel passes onto the scenario's executor pool
    /// (results are pool-independent: see the `gridsteer_exec` determinism
    /// contract).
    pub(crate) fn set_pool(&mut self, pool: Arc<ExecPool>) {
        match self {
            Backend::Lbm(s) => s.set_pool(pool),
            Backend::Pepc(s) => s.set_pool(pool),
        }
    }

    /// The steerable parameters, as typed bus registry specs.
    pub(crate) fn param_specs(&self) -> Vec<ParamSpec> {
        match self {
            Backend::Lbm(_) => TwoFluidLbm::specs(),
            Backend::Pepc(_) => PepcSim::specs(),
        }
    }

    /// Apply a steer the registry already admitted. Unknown names were
    /// refused there, so a write error is ignored.
    pub(crate) fn apply_steer(&mut self, param: &str, value: &ParamValue) {
        let _ = match self {
            Backend::Lbm(s) => s.write(param, value),
            Backend::Pepc(s) => s.write(param, value),
        };
    }

    /// Advance the simulation by `steps` time steps.
    pub(crate) fn advance(&mut self, steps: usize) {
        match self {
            Backend::Lbm(s) => s.step_n(steps),
            Backend::Pepc(s) => s.step_n(steps),
        }
    }

    /// Simulation steps taken.
    pub(crate) fn steps(&self) -> u64 {
        match self {
            Backend::Lbm(s) => s.steps(),
            Backend::Pepc(s) => s.step_count(),
        }
    }

    /// Publish the monitored quantities of the current step as one batch,
    /// refilling `scratch` in place so the grids go out borrowed. Returns
    /// the number of frames published.
    pub(crate) fn publish_monitor(&self, hub: &MonitorHub, scratch: &mut MonitorScratch) -> u64 {
        let source: &dyn MonitorSource = match self {
            Backend::Lbm(s) => s,
            Backend::Pepc(s) => s,
        };
        hub.publish_batch(source.monitor_step(), source.monitor_payloads_into(scratch))
    }

    /// Size of one sample on the wire, in bytes: one f32 order-parameter
    /// scalar per LBM node (what the Figure-1 pipeline ships to the
    /// isosurface stage), or every PEPC particle.
    pub(crate) fn sample_bytes(&self) -> usize {
        match self {
            Backend::Lbm(s) => {
                let (nx, ny, nz) = s.dims();
                nx * ny * nz * 4
            }
            Backend::Pepc(s) => s.len() * PEPC_PARTICLE_BYTES,
        }
    }

    /// Serialize the full simulation state into the snapshot (float
    /// fields as raw bits, so a restore is bit-exact).
    pub(crate) fn save_sections(&self, snap: &mut Snapshot) {
        match self {
            Backend::Lbm(s) => s.save_sections(snap),
            Backend::Pepc(s) => s.save_sections(snap),
        }
    }

    /// Replace the simulation state with the snapshot's, keeping the
    /// scenario's executor pool. Typed error on a corrupt or mismatched
    /// snapshot; the live state is untouched on failure.
    pub(crate) fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        match self {
            Backend::Lbm(s) => s.restore_sections(snap),
            Backend::Pepc(s) => s.restore_sections(snap),
        }
    }

    /// Checkpoint the state through the snapshot wire format — encode,
    /// decode, restore — and return the encoded size in bytes: a migration
    /// moves the same bytes a crash recovery would.
    pub(crate) fn checkpoint_roundtrip(&mut self) -> usize {
        let mut snap = Snapshot::new(0, 0);
        self.save_sections(&mut snap);
        let blob = snap.encode();
        let decoded = Snapshot::decode(&blob).expect("self-encoded snapshot decodes");
        self.restore_sections(&decoded)
            .expect("self-saved snapshot restores");
        blob.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lbm() -> LbmConfig {
        LbmConfig {
            nx: 6,
            ny: 6,
            nz: 6,
            threads: 1,
            ..Default::default()
        }
    }

    fn tiny_pepc() -> PepcConfig {
        PepcConfig {
            n_target: 40,
            ranks: 1,
            ..PepcConfig::small()
        }
    }

    fn lbm() -> Backend {
        Backend::new(&BackendSpec::Lbm(tiny_lbm()), 7)
    }

    fn pepc() -> Backend {
        Backend::new(&BackendSpec::Pepc(tiny_pepc()), 7)
    }

    /// A parameter read back through the code's own steering surface.
    fn read(b: &Backend, param: &str) -> Option<ParamValue> {
        match b {
            Backend::Lbm(s) => s.read(param),
            Backend::Pepc(s) => s.read(param),
        }
    }

    /// The backend's state as checkpoint bytes.
    fn state(b: &Backend) -> Vec<u8> {
        let mut snap = Snapshot::new(0, 0);
        b.save_sections(&mut snap);
        snap.encode()
    }

    // The per-code tests below are rows of one check per behaviour, so
    // both codes are held to the same contract.

    /// Every steer lands in the simulation; an unknown name is ignored.
    fn check_steers(mut b: Backend, steers: &[(&str, f64)]) {
        for &(param, v) in steers {
            b.apply_steer(param, &ParamValue::F64(v));
        }
        b.apply_steer("unknown", &ParamValue::F64(9.9)); // ignored, no panic
        for &(param, v) in steers {
            assert_eq!(read(&b, param), Some(ParamValue::F64(v)), "{param}");
        }
    }

    /// The sample has the code's wire size, and advancing counts steps.
    fn check_advance(mut b: Backend, sample_bytes: usize) {
        assert_eq!(b.sample_bytes(), sample_bytes);
        b.advance(4);
        assert_eq!(b.steps(), 4);
    }

    /// The real state round-trips through the snapshot format — a
    /// migration moves the bytes a crash recovery would, not a wire-size
    /// estimate — and keeps stepping bit-identically to a twin.
    fn check_checkpoint_roundtrip(fresh: fn() -> Backend, param: &str, v: f64) {
        let (mut b, mut twin) = (fresh(), fresh());
        for sim in [&mut b, &mut twin] {
            sim.apply_steer(param, &ParamValue::F64(v));
            sim.advance(3);
        }
        let bytes = b.checkpoint_roundtrip();
        assert!(bytes > b.sample_bytes(), "snapshot carries full f64 state");
        assert_eq!((b.steps(), read(&b, param)), (3, Some(ParamValue::F64(v))));
        assert_eq!(state(&b), state(&twin));
        b.advance(3);
        twin.advance(3);
        assert_eq!(state(&b), state(&twin));
    }

    #[test]
    fn lbm_backend_steers_miscibility() {
        check_steers(lbm(), &[("miscibility", 0.3)]);
    }

    #[test]
    fn pepc_backend_steers_all_params() {
        let steers = [
            ("damping", 0.5),
            ("laser_amplitude", 1.5),
            ("beam_intensity", 2.0),
        ];
        check_steers(pepc(), &steers);
    }

    #[test]
    fn lbm_backend_advances_and_reports_progress() {
        check_advance(lbm(), 6 * 6 * 6 * 4);
    }

    #[test]
    fn pepc_backend_sample_scales_with_particles() {
        let sim = PepcSim::new(tiny_pepc());
        let bytes = sim.len() * PEPC_PARTICLE_BYTES;
        check_advance(Backend::Pepc(sim), bytes);
    }

    #[test]
    fn lbm_checkpoint_roundtrip_preserves_state() {
        check_checkpoint_roundtrip(lbm, "miscibility", 0.2);
    }

    #[test]
    fn pepc_checkpoint_roundtrip_preserves_state() {
        check_checkpoint_roundtrip(pepc, "damping", 0.4);
    }

    #[test]
    fn both_backends_publish_monitor_frames_through_the_adapter() {
        use steer_core::{MonitorCaps, MonitorKind};
        let hub = MonitorHub::new();
        hub.attach_endpoint(
            "v",
            gridsteer_bus::Transport::Loopback.attach_monitor("v"),
            &MonitorCaps::full("viewer", 64),
        );
        let mut scratch = MonitorScratch::default();
        let (mut lbm, pepc) = (lbm(), pepc());
        lbm.advance(2);
        let n = lbm.publish_monitor(&hub, &mut scratch);
        assert_eq!(n, 6, "lbm surface: 3 scalars + vec3 + grid2 + grid3");
        let frames = hub.recv("v");
        assert_eq!(frames.len(), 6);
        assert!(frames.iter().all(|f| f.step == 2), "stamped with the step");
        assert!(frames
            .iter()
            .any(|f| f.payload.kind() == MonitorKind::Grid3));
        assert_eq!(
            pepc.publish_monitor(&hub, &mut scratch),
            3,
            "no beam ⇒ 3 scalars"
        );
        assert_eq!(hub.recv("v").len(), 3);
    }

    #[test]
    fn param_specs_match_registry_contract() {
        let (lbm, pepc) = (lbm(), pepc());
        for spec in lbm.param_specs().iter().chain(pepc.param_specs().iter()) {
            let initial = spec.initial.as_f64().unwrap();
            assert!(spec.min.unwrap() <= initial && initial <= spec.max.unwrap());
        }
        assert_eq!(lbm.kind(), "lbm");
        assert_eq!(pepc.kind(), "pepc");
    }
}
