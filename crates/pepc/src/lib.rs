//! # pepc — a PEPC-style mesh-free plasma Coulomb solver
//!
//! §3.4 of the paper: "PEPC (Parallel Electrostatic Plasma Coulomb-solver),
//! a new plasma simulation code … uses a hierarchical tree algorithm to
//! perform potential and force summation for charged particles in a time
//! O(N log N), allowing mesh-free particle simulation on length- and
//! time-scales normally possible only with particle-in-cell or hydrodynamic
//! techniques."
//!
//! This crate rebuilds that solver:
//!
//! * [`morton`] — Morton (Z-order) keys and the space-filling-curve domain
//!   decomposition whose per-worker boxes the demo ships to the
//!   visualization ("tree domains as transparent or solid boxes, providing
//!   immediate insight into … the algorithmic workings of the parallel
//!   tree code").
//! * [`tree`] — the Barnes–Hut octree: build, monopole moments, multipole
//!   acceptance criterion θ, force evaluation with Plummer softening and
//!   the potential energy summed in the same walk, parallel over particle
//!   chunks.
//! * [`direct`] — the O(N²) direct-summation baseline (accuracy reference
//!   for forces and potential, and the scaling comparison of experiment
//!   EP1).
//! * [`sim`] — the steered simulation: leapfrog integration, the §3.4
//!   demo scenario ("a particle beam striking a spherical plasma target"),
//!   and the interactively steerable parameters: beam charge/intensity and
//!   direction, laser amplitude, and the velocity damping used to "'assist'
//!   an initially random plasma system towards a cold, ordered state".

pub mod direct;
pub mod morton;
pub mod sim;
pub mod tree;

pub use direct::direct_forces;
pub use morton::{decompose, morton_key, morton_unkey, Domain};
pub use sim::{PepcConfig, PepcSim, SEC_PEPC_FORCES, SEC_PEPC_META, SEC_PEPC_PARTICLES};
pub use tree::{Octree, TreeConfig};

/// A charged particle. The paper ships "particle data-space comprising
/// coordinates, velocities, charge, processor number and tracking-label"
/// to the visualization — exactly these fields.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Particle {
    /// Position.
    pub pos: [f64; 3],
    /// Velocity.
    pub vel: [f64; 3],
    /// Charge.
    pub charge: f64,
    /// Mass.
    pub mass: f64,
    /// Tracking label (stable across the run).
    pub label: u32,
    /// Owning worker rank from the last domain decomposition.
    pub rank: u16,
}

impl Particle {
    /// A unit-mass particle at rest.
    pub fn at(pos: [f64; 3], charge: f64, label: u32) -> Particle {
        Particle {
            pos,
            vel: [0.0; 3],
            charge,
            mass: 1.0,
            label,
            rank: 0,
        }
    }

    /// Kinetic energy.
    pub fn kinetic(&self) -> f64 {
        0.5 * self.mass
            * (self.vel[0] * self.vel[0] + self.vel[1] * self.vel[1] + self.vel[2] * self.vel[2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn particle_kinetic_energy() {
        let mut p = Particle::at([0.0; 3], 1.0, 0);
        p.vel = [3.0, 0.0, 4.0];
        assert!((p.kinetic() - 12.5).abs() < 1e-12);
    }
}
