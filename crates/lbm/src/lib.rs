//! # lbm — two-component Lattice-Boltzmann fluid with steerable miscibility
//!
//! The RealityGrid demonstration (§2.2 of the paper): "The computation was
//! a Lattice Boltzmann 3D code simulating a mixture of two fluids. The
//! parameter used for the steering was the miscibility of the fluids. The
//! simulation was on a 3D grid with periodic boundary conditions. As the
//! miscibility parameter was altered, the structures formed by the fluids
//! changed and the visualization was necessary so that these changes could
//! be observed."
//!
//! This crate is that code: a D3Q19 BGK solver for two components coupled
//! by a Shan–Chen-style pseudopotential force. The steerable *miscibility*
//! maps inversely onto the inter-component coupling strength: miscibility
//! 1.0 ⇒ zero coupling (the fluids mix freely), miscibility 0.0 ⇒ maximum
//! coupling (spinodal decomposition; the domain-forming "structures" the
//! demo visualized as isosurfaces of the order parameter φ = ρA − ρB).
//!
//! Parallelism follows the paper's platform (an SGI Onyx running the code
//! across processors): slab decomposition over z, with a two-sweep step
//! (force + collide + stream in place in one pass, then the moments of
//! the new state, which every observer of the lattice reads; see [`sim`])
//! that is race-free by construction. The sweeps dispatch
//! whole-z-plane tasks onto a persistent [`gridsteer_exec::ExecPool`] —
//! no thread spawning on the step hot path — and the fixed task→plane
//! mapping keeps the physics bit-identical for any thread count.

pub mod lattice;
pub mod sim;

pub use lattice::{CX, CY, CZ, OPPOSITE, Q, WEIGHTS};
pub use sim::{
    demix_of, demix_of_slice, LbmConfig, TwoFluidLbm, SEC_LBM_FA, SEC_LBM_FB, SEC_LBM_META,
};
