//! The steered PEPC simulation.
//!
//! §3.4's demo scenario: "a parallel simulation of a laser-plasma
//! interaction … for example, a particle beam striking a spherical plasma
//! target", with interactively steerable beam parameters
//! ("charge/intensity, direction"), laser parameters, and the ability to
//! "'assist' an initially random plasma system towards a cold, ordered
//! state suitable for use as quiescent initial conditions" (we expose that
//! assist as a velocity-damping steering parameter).
//!
//! Integration: velocity-Verlet leapfrog with cached forces; forces come
//! from the Barnes–Hut tree ([`crate::tree`]) plus the external beam/laser
//! fields.

// Component loops over `[f64; 3]` are written indexed (`for a in 0..3`);
// that is the clearest spelling for coupled kinematics updates.
#![allow(clippy::needless_range_loop)]

use crate::morton::{decompose, Domain};
use crate::tree::{Octree, TreeConfig};
use crate::Particle;
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot as CkptSnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Simulation configuration.
#[derive(Debug, Clone)]
pub struct PepcConfig {
    /// Number of plasma particles in the spherical target.
    pub n_target: usize,
    /// Target sphere radius.
    pub target_radius: f64,
    /// Time step.
    pub dt: f64,
    /// Tree parameters.
    pub tree: TreeConfig,
    /// Worker ranks for the domain decomposition (the "processor domains"
    /// shipped to the visualization).
    pub ranks: u16,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PepcConfig {
    fn default() -> Self {
        PepcConfig {
            n_target: 1000,
            target_radius: 1.0,
            dt: 0.005,
            tree: TreeConfig::default(),
            ranks: 4,
            seed: 7,
        }
    }
}

impl PepcConfig {
    /// A small fast configuration for tests.
    pub fn small() -> Self {
        PepcConfig {
            n_target: 200,
            ranks: 2,
            ..Default::default()
        }
    }
}

/// The steerable parameters (§3.4: alterable "while the application is
/// running").
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteerParams {
    /// Beam field strength (accelerates beam-labelled particles).
    pub beam_intensity: f64,
    /// Beam direction (unit vector; renormalized on set).
    pub beam_dir: [f64; 3],
    /// Charge given to newly injected beam particles.
    pub beam_charge: f64,
    /// Laser field amplitude (oscillating E-field on every particle).
    pub laser_amplitude: f64,
    /// Laser angular frequency.
    pub laser_omega: f64,
    /// Per-step velocity damping ∈ \[0,1\] (0 = none; the "assist to cold
    /// ordered state" knob).
    pub damping: f64,
}

impl Default for SteerParams {
    fn default() -> Self {
        SteerParams {
            beam_intensity: 0.0,
            beam_dir: [1.0, 0.0, 0.0],
            beam_charge: -1.0,
            laser_amplitude: 0.0,
            laser_omega: 2.0,
            damping: 0.0,
        }
    }
}

/// A renderable snapshot — the "particle data-space comprising coordinates,
/// velocities, charge, processor number and tracking-label plus information
/// on the tree structure" that PEPC ships via VISIT every few steps (§3.4).
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Positions as f32 triples (what goes on the wire).
    pub positions: Vec<[f32; 3]>,
    /// Velocities as f32 triples.
    pub velocities: Vec<[f32; 3]>,
    /// Charges.
    pub charges: Vec<f32>,
    /// Owning ranks.
    pub ranks: Vec<u16>,
    /// Tracking labels.
    pub labels: Vec<u32>,
    /// Per-rank domain boxes.
    pub domains: Vec<Domain>,
    /// Simulation step of this snapshot.
    pub step: u64,
}

impl Snapshot {
    /// Wire size in bytes if shipped raw (positions+velocities+charges+
    /// ranks+labels + domain boxes).
    pub fn byte_size(&self) -> usize {
        self.positions.len() * 12
            + self.velocities.len() * 12
            + self.charges.len() * 4
            + self.ranks.len() * 2
            + self.labels.len() * 4
            + self.domains.len() * 48
    }
}

/// The steered plasma simulation.
pub struct PepcSim {
    cfg: PepcConfig,
    /// Executor pool the per-step force evaluation dispatches onto.
    pool: std::sync::Arc<gridsteer_exec::ExecPool>,
    particles: Vec<Particle>,
    forces: Vec<[f64; 3]>,
    params: SteerParams,
    time: f64,
    step: u64,
    next_label: u32,
    /// Labels ≥ this are beam particles (feel the beam field).
    beam_label_start: u32,
    last_interactions: u64,
}

impl PepcSim {
    /// Build the §3.4 scenario: a cold spherical quasi-neutral plasma
    /// target centred at the origin.
    pub fn new(cfg: PepcConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut particles = Vec::with_capacity(cfg.n_target);
        for i in 0..cfg.n_target {
            let pos = loop {
                let p = [
                    rng.gen_range(-1.0..1.0) * cfg.target_radius,
                    rng.gen_range(-1.0..1.0) * cfg.target_radius,
                    rng.gen_range(-1.0..1.0) * cfg.target_radius,
                ];
                if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= cfg.target_radius * cfg.target_radius
                {
                    break p;
                }
            };
            // weak-coupling normalization: |q| = 0.1 keeps the random
            // plasma near-collisionless so steering effects (laser heating,
            // assist damping) dominate numerical two-body heating
            let q = if i % 2 == 0 { 0.1 } else { -0.1 };
            let mut part = Particle::at(pos, q, i as u32);
            // small thermal velocities
            part.vel = [
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
                rng.gen_range(-0.05..0.05),
            ];
            particles.push(part);
        }
        let next_label = particles.len() as u32;
        let mut sim = PepcSim {
            pool: gridsteer_exec::shared(cfg.tree.threads),
            forces: vec![[0.0; 3]; particles.len()],
            particles,
            params: SteerParams::default(),
            time: 0.0,
            step: 0,
            next_label,
            beam_label_start: u32::MAX,
            cfg,
            last_interactions: 0,
        };
        sim.recompute_forces();
        sim
    }

    /// Replace the executor pool the force evaluation dispatches onto
    /// (results are unaffected: the chunk grain is fixed).
    pub fn set_pool(&mut self, pool: std::sync::Arc<gridsteer_exec::ExecPool>) {
        self.pool = pool;
    }

    /// The executor pool this simulation dispatches onto.
    pub fn pool(&self) -> &std::sync::Arc<gridsteer_exec::ExecPool> {
        &self.pool
    }

    /// Particle count.
    pub fn len(&self) -> usize {
        self.particles.len()
    }

    /// True if the simulation holds no particles.
    pub fn is_empty(&self) -> bool {
        self.particles.is_empty()
    }

    /// Steps taken.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// Current steering parameters.
    pub fn params(&self) -> SteerParams {
        self.params
    }

    /// Steer: replace the parameter set (direction is renormalized;
    /// damping clamped to \[0,1\]).
    pub fn set_params(&mut self, mut p: SteerParams) {
        let norm = (p.beam_dir[0] * p.beam_dir[0]
            + p.beam_dir[1] * p.beam_dir[1]
            + p.beam_dir[2] * p.beam_dir[2])
            .sqrt();
        if norm > 1e-12 {
            for c in &mut p.beam_dir {
                *c /= norm;
            }
        } else {
            p.beam_dir = [1.0, 0.0, 0.0];
        }
        p.damping = p.damping.clamp(0.0, 1.0);
        self.params = p;
    }

    /// Inject `n` beam particles upstream of the target, moving along the
    /// current beam direction at `speed` (the "particle beam striking a
    /// spherical plasma target").
    pub fn inject_beam(&mut self, n: usize, speed: f64) {
        if self.beam_label_start == u32::MAX {
            self.beam_label_start = self.next_label;
        }
        let mut rng = StdRng::seed_from_u64(self.cfg.seed ^ self.next_label as u64);
        let d = self.params.beam_dir;
        let start = -2.5 * self.cfg.target_radius;
        for _ in 0..n {
            let jitter = [
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
                rng.gen_range(-0.1..0.1),
            ];
            let pos = [
                start * d[0] + jitter[0],
                start * d[1] + jitter[1],
                start * d[2] + jitter[2],
            ];
            let mut p = Particle::at(pos, self.params.beam_charge, self.next_label);
            p.vel = [speed * d[0], speed * d[1], speed * d[2]];
            self.next_label += 1;
            self.particles.push(p);
        }
        self.forces = vec![[0.0; 3]; self.particles.len()];
        self.recompute_forces();
    }

    /// Number of injected beam particles.
    pub fn beam_count(&self) -> usize {
        if self.beam_label_start == u32::MAX {
            return 0;
        }
        self.particles
            .iter()
            .filter(|p| p.label >= self.beam_label_start)
            .count()
    }

    fn external_force(&self, p: &Particle) -> [f64; 3] {
        let mut f = [0.0f64; 3];
        // laser: linearly polarized along y, uniform envelope
        let e = self.params.laser_amplitude * (self.params.laser_omega * self.time).sin();
        f[1] += p.charge * e;
        // beam field: accelerates only beam particles along beam_dir
        if self.beam_label_start != u32::MAX && p.label >= self.beam_label_start {
            for a in 0..3 {
                f[a] += self.params.beam_intensity * self.params.beam_dir[a];
            }
        }
        f
    }

    fn recompute_forces(&mut self) {
        let tree = Octree::build(&self.particles, self.cfg.tree);
        let mut forces = tree.forces_with(&self.pool, &self.particles);
        self.last_interactions = tree.last_interactions();
        for (f, p) in forces.iter_mut().zip(&self.particles) {
            let ext = self.external_force(p);
            for a in 0..3 {
                f[a] += ext[a];
            }
        }
        self.forces = forces;
    }

    /// Advance one leapfrog step.
    pub fn step(&mut self) {
        let dt = self.cfg.dt;
        // kick + drift
        for (p, f) in self.particles.iter_mut().zip(&self.forces) {
            for a in 0..3 {
                p.vel[a] += 0.5 * dt * f[a] / p.mass;
                p.pos[a] += dt * p.vel[a];
            }
        }
        self.time += dt;
        // new forces at new positions
        self.recompute_forces();
        // kick + assist damping
        let keep = 1.0 - self.params.damping;
        for (p, f) in self.particles.iter_mut().zip(&self.forces) {
            for a in 0..3 {
                p.vel[a] += 0.5 * dt * f[a] / p.mass;
                p.vel[a] *= keep;
            }
        }
        self.step += 1;
    }

    /// Advance `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// Total kinetic energy.
    pub fn kinetic_energy(&self) -> f64 {
        self.particles.iter().map(Particle::kinetic).sum()
    }

    /// Softened potential energy — O(N²); diagnostics and tests only.
    pub fn potential_energy(&self) -> f64 {
        crate::direct::potential_energy(&self.particles, self.cfg.tree.eps)
    }

    /// Total energy (kinetic + softened potential) — O(N²); diagnostics
    /// and tests only.
    pub fn total_energy(&self) -> f64 {
        self.kinetic_energy() + self.potential_energy()
    }

    /// Interactions performed in the last force evaluation.
    pub fn last_interactions(&self) -> u64 {
        self.last_interactions
    }

    /// Centre of mass of the beam particles (`None` if no beam).
    pub fn beam_centroid(&self) -> Option<[f64; 3]> {
        if self.beam_label_start == u32::MAX {
            return None;
        }
        let mut c = [0.0f64; 3];
        let mut n = 0usize;
        for p in &self.particles {
            if p.label >= self.beam_label_start {
                for a in 0..3 {
                    c[a] += p.pos[a];
                }
                n += 1;
            }
        }
        (n > 0).then(|| {
            for v in &mut c {
                *v /= n as f64;
            }
            c
        })
    }

    /// Produce the renderable snapshot: decompose domains, stamp ranks,
    /// and flatten the particle data-space to wire types.
    pub fn snapshot(&mut self) -> Snapshot {
        let domains = decompose(&mut self.particles, self.cfg.ranks);
        Snapshot {
            positions: self
                .particles
                .iter()
                .map(|p| [p.pos[0] as f32, p.pos[1] as f32, p.pos[2] as f32])
                .collect(),
            velocities: self
                .particles
                .iter()
                .map(|p| [p.vel[0] as f32, p.vel[1] as f32, p.vel[2] as f32])
                .collect(),
            charges: self.particles.iter().map(|p| p.charge as f32).collect(),
            ranks: self.particles.iter().map(|p| p.rank).collect(),
            labels: self.particles.iter().map(|p| p.label).collect(),
            domains,
            step: self.step,
        }
    }

    /// Direct access to the particles (diagnostics/tests).
    pub fn particles(&self) -> &[Particle] {
        &self.particles
    }

    /// Lay the full simulation state into `snap` as the sections
    /// `pepc/meta` + `pepc/particles` + `pepc/forces`. Particles are
    /// serialized in their *current* array order — [`PepcSim::snapshot`]
    /// Morton-sorts them, so order is part of the observable state — and
    /// cached forces ride along because they feed the next half-kick.
    pub fn save_sections(&self, snap: &mut CkptSnapshot) {
        let mut w = SectionWriter::with_capacity(160);
        w.put_u64(self.cfg.n_target as u64);
        w.put_f64(self.cfg.target_radius);
        w.put_f64(self.cfg.dt);
        w.put_f64(self.cfg.tree.theta);
        w.put_f64(self.cfg.tree.eps);
        w.put_u64(self.cfg.tree.leaf_cap as u64);
        w.put_u64(self.cfg.tree.threads as u64);
        w.put_u16(self.cfg.ranks);
        w.put_u64(self.cfg.seed);
        w.put_f64(self.params.beam_intensity);
        for c in self.params.beam_dir {
            w.put_f64(c);
        }
        w.put_f64(self.params.beam_charge);
        w.put_f64(self.params.laser_amplitude);
        w.put_f64(self.params.laser_omega);
        w.put_f64(self.params.damping);
        w.put_f64(self.time);
        w.put_u64(self.step);
        w.put_u32(self.next_label);
        w.put_u32(self.beam_label_start);
        w.put_u64(self.last_interactions);
        snap.push(SEC_PEPC_META, 0, w.finish());
        let mut w = SectionWriter::with_capacity(self.particles.len() * PARTICLE_REC + 8);
        w.put_u64(self.particles.len() as u64);
        for p in &self.particles {
            for c in p.pos {
                w.put_f64(c);
            }
            for c in p.vel {
                w.put_f64(c);
            }
            w.put_f64(p.charge);
            w.put_f64(p.mass);
            w.put_u32(p.label);
            w.put_u16(p.rank);
        }
        snap.push(SEC_PEPC_PARTICLES, PARTICLE_CHUNK, w.finish());
        let mut w = SectionWriter::with_capacity(self.forces.len() * 24 + 8);
        w.put_u64(self.forces.len() as u64);
        for f in &self.forces {
            for c in f {
                w.put_f64(*c);
            }
        }
        snap.push(SEC_PEPC_FORCES, FORCE_CHUNK, w.finish());
    }

    /// Rebuild a simulation from the `pepc/*` sections of `snap` — the
    /// fresh-process restore path. Makes no RNG draws and no force
    /// evaluation: the cached forces come from the snapshot.
    pub fn from_snapshot(snap: &CkptSnapshot) -> Result<PepcSim, CkptError> {
        let mut r = snap.reader(SEC_PEPC_META)?;
        let cfg = PepcConfig {
            n_target: r.get_u64()? as usize,
            target_radius: r.get_f64()?,
            dt: r.get_f64()?,
            tree: TreeConfig {
                theta: r.get_f64()?,
                eps: r.get_f64()?,
                leaf_cap: r.get_u64()? as usize,
                threads: r.get_u64()? as usize,
            },
            ranks: r.get_u16()?,
            seed: r.get_u64()?,
        };
        let params = SteerParams {
            beam_intensity: r.get_f64()?,
            beam_dir: [r.get_f64()?, r.get_f64()?, r.get_f64()?],
            beam_charge: r.get_f64()?,
            laser_amplitude: r.get_f64()?,
            laser_omega: r.get_f64()?,
            damping: r.get_f64()?,
        };
        let time = r.get_f64()?;
        let step = r.get_u64()?;
        let next_label = r.get_u32()?;
        let beam_label_start = r.get_u32()?;
        let last_interactions = r.get_u64()?;
        r.expect_end()?;
        let mut r = snap.reader(SEC_PEPC_PARTICLES)?;
        let count = r.get_u64()? as usize;
        let mut particles = Vec::with_capacity(count);
        for _ in 0..count {
            particles.push(Particle {
                pos: [r.get_f64()?, r.get_f64()?, r.get_f64()?],
                vel: [r.get_f64()?, r.get_f64()?, r.get_f64()?],
                charge: r.get_f64()?,
                mass: r.get_f64()?,
                label: r.get_u32()?,
                rank: r.get_u16()?,
            });
        }
        r.expect_end()?;
        let mut r = snap.reader(SEC_PEPC_FORCES)?;
        let fcount = r.get_u64()? as usize;
        if fcount != count {
            return Err(CkptError::Corrupt {
                context: format!("{SEC_PEPC_FORCES}: {fcount} forces for {count} particles"),
            });
        }
        let mut forces = Vec::with_capacity(fcount);
        for _ in 0..fcount {
            forces.push([r.get_f64()?, r.get_f64()?, r.get_f64()?]);
        }
        r.expect_end()?;
        Ok(PepcSim {
            pool: gridsteer_exec::shared(cfg.tree.threads),
            particles,
            forces,
            params,
            time,
            step,
            next_label,
            beam_label_start,
            cfg,
            last_interactions,
        })
    }

    /// Replace this simulation's state from the `pepc/*` sections of
    /// `snap`, keeping the current pool — the in-process restore path.
    pub fn restore_sections(&mut self, snap: &CkptSnapshot) -> Result<(), CkptError> {
        let mut fresh = PepcSim::from_snapshot(snap)?;
        fresh.pool = std::sync::Arc::clone(&self.pool);
        *self = fresh;
        Ok(())
    }
}

/// Snapshot section names for the plasma simulation.
pub const SEC_PEPC_META: &str = "pepc/meta";
/// In-order particle records (pos+vel+charge+mass as raw f64 bits,
/// label, rank).
pub const SEC_PEPC_PARTICLES: &str = "pepc/particles";
/// Cached forces from the last evaluation (feed the next half-kick).
pub const SEC_PEPC_FORCES: &str = "pepc/forces";

/// Serialized particle record size: 8 f64 + label u32 + rank u16.
const PARTICLE_REC: usize = 8 * 8 + 4 + 2;
/// Delta grain: 64 particle records per dirty chunk.
const PARTICLE_CHUNK: u32 = (PARTICLE_REC * 64) as u32;
/// Delta grain for the force cache: 64 triples per dirty chunk.
const FORCE_CHUNK: u32 = 24 * 64;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_roughly_conserved_without_steering() {
        let mut sim = PepcSim::new(PepcConfig::small());
        let e0 = sim.total_energy();
        sim.step_n(40);
        let e1 = sim.total_energy();
        let drift = ((e1 - e0) / e0.abs()).abs();
        assert!(drift < 0.05, "energy drift {drift} (e0={e0}, e1={e1})");
    }

    #[test]
    fn damping_cools_the_plasma() {
        let mut sim = PepcSim::new(PepcConfig::small());
        let k0 = sim.kinetic_energy();
        let mut p = sim.params();
        p.damping = 0.2;
        sim.set_params(p);
        sim.step_n(40);
        let k1 = sim.kinetic_energy();
        assert!(
            k1 < k0 * 0.2,
            "assist-to-cold-state failed: K {k0:.4} → {k1:.4}"
        );
    }

    #[test]
    fn laser_heats_the_plasma() {
        let mut cold = PepcSim::new(PepcConfig::small());
        let mut hot = PepcSim::new(PepcConfig::small());
        let mut p = hot.params();
        // run long enough to cover a good part of the ω=2 oscillation
        // (100 steps × dt 0.005 = t 0.5, i.e. ωt = 1 rad)
        p.laser_amplitude = 10.0;
        hot.set_params(p);
        cold.step_n(100);
        hot.step_n(100);
        assert!(
            hot.kinetic_energy() > cold.kinetic_energy() * 1.5,
            "laser had no effect: {} vs {}",
            hot.kinetic_energy(),
            cold.kinetic_energy()
        );
    }

    #[test]
    fn beam_advances_towards_target_and_steers() {
        let mut sim = PepcSim::new(PepcConfig::small());
        let mut p = sim.params();
        p.beam_intensity = 1.0;
        sim.set_params(p);
        sim.inject_beam(20, 2.0);
        assert_eq!(sim.beam_count(), 20);
        let c0 = sim.beam_centroid().unwrap();
        sim.step_n(20);
        let c1 = sim.beam_centroid().unwrap();
        assert!(c1[0] > c0[0] + 0.1, "beam did not advance: {c0:?} → {c1:?}");
        // steer the beam direction mid-run (the §3.4 capability)
        let mut p = sim.params();
        p.beam_dir = [0.0, 0.0, 1.0];
        sim.set_params(p);
        let z0 = sim.beam_centroid().unwrap()[2];
        sim.step_n(30);
        let z1 = sim.beam_centroid().unwrap()[2];
        assert!(z1 > z0, "redirected beam did not respond");
    }

    #[test]
    fn beam_dir_renormalized_and_damping_clamped() {
        let mut sim = PepcSim::new(PepcConfig::small());
        let mut p = sim.params();
        p.beam_dir = [3.0, 0.0, 4.0];
        p.damping = 9.0;
        sim.set_params(p);
        let q = sim.params();
        let norm: f64 = q.beam_dir.iter().map(|v| v * v).sum::<f64>().sqrt();
        assert!((norm - 1.0).abs() < 1e-12);
        assert_eq!(q.damping, 1.0);
        // zero direction falls back to +x
        p.beam_dir = [0.0; 3];
        sim.set_params(p);
        assert_eq!(sim.params().beam_dir, [1.0, 0.0, 0.0]);
    }

    #[test]
    fn snapshot_carries_the_full_data_space() {
        let mut sim = PepcSim::new(PepcConfig::small());
        sim.step_n(2);
        let snap = sim.snapshot();
        let n = sim.len();
        assert_eq!(snap.positions.len(), n);
        assert_eq!(snap.velocities.len(), n);
        assert_eq!(snap.charges.len(), n);
        assert_eq!(snap.ranks.len(), n);
        assert_eq!(snap.labels.len(), n);
        assert_eq!(snap.domains.len(), 2);
        assert_eq!(snap.step, 2);
        assert!(snap.byte_size() > n * 30);
        // every rank value has a domain
        for &r in &snap.ranks {
            assert!((r as usize) < snap.domains.len());
        }
    }

    #[test]
    fn labels_are_stable_tracking_ids() {
        let mut sim = PepcSim::new(PepcConfig::small());
        let labels0: Vec<u32> = sim.particles().iter().map(|p| p.label).collect();
        sim.step_n(5);
        let labels1: Vec<u32> = sim.particles().iter().map(|p| p.label).collect();
        assert_eq!(labels0, labels1);
    }

    #[test]
    fn ckpt_sections_roundtrip_bit_identical() {
        let mut a = PepcSim::new(PepcConfig::small());
        let mut p = a.params();
        p.beam_intensity = 1.0;
        a.set_params(p);
        a.inject_beam(10, 2.0);
        a.step_n(5);
        let mut snap = CkptSnapshot::new(1, 0);
        a.save_sections(&mut snap);
        let decoded = CkptSnapshot::decode(&snap.encode()).unwrap();
        let mut b = PepcSim::from_snapshot(&decoded).unwrap();
        assert_eq!(b.step_count(), 5);
        assert_eq!(b.params(), a.params());
        assert_eq!(b.beam_count(), 10);
        a.step_n(5);
        b.step_n(5);
        let bits = |s: &PepcSim| {
            s.particles()
                .iter()
                .flat_map(|p| p.pos.iter().chain(&p.vel).map(|v| v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&a), bits(&b), "restored run diverged");
    }

    #[test]
    fn ckpt_preserves_particle_order_after_morton_sort() {
        let mut a = PepcSim::new(PepcConfig::small());
        a.step_n(2);
        let _ = a.snapshot(); // Morton-sorts and restamps ranks
        let order: Vec<u32> = a.particles().iter().map(|p| p.label).collect();
        let mut snap = CkptSnapshot::new(1, 0);
        a.save_sections(&mut snap);
        let b = PepcSim::from_snapshot(&snap).unwrap();
        let restored: Vec<u32> = b.particles().iter().map(|p| p.label).collect();
        assert_eq!(order, restored);
    }

    #[test]
    fn ckpt_force_particle_count_mismatch_is_corrupt() {
        let sim = PepcSim::new(PepcConfig::small());
        let mut snap = CkptSnapshot::new(1, 0);
        sim.save_sections(&mut snap);
        // drop one force triple: count prefix now disagrees with particles
        let forces = snap
            .sections
            .iter_mut()
            .find(|s| s.name == SEC_PEPC_FORCES)
            .unwrap();
        let n = u64::from_le_bytes(forces.bytes[..8].try_into().unwrap());
        forces.bytes[..8].copy_from_slice(&(n - 1).to_le_bytes());
        forces.bytes.truncate(forces.bytes.len() - 24);
        assert!(matches!(
            PepcSim::from_snapshot(&snap),
            Err(CkptError::Corrupt { .. })
        ));
    }

    #[test]
    fn interactions_counter_populated() {
        let mut sim = PepcSim::new(PepcConfig::small());
        sim.step();
        assert!(sim.last_interactions() > 0);
    }
}
