//! Property: the lane-blocked kernels are **bit-identical** to their scalar
//! references over arbitrary particle clouds.
//!
//! * The force walk: one group walk per four leaf-order targets against one
//!   scalar walk per target — counts from a few particles (every
//!   lane-remainder path) to thousands (multipoles accepted at every
//!   level), θ = 0 (pure direct summation) and θ in `[0.3, 0.9]`, leaf
//!   capacities from 1, mixed-sign charges, and a coincident cluster under
//!   zero softening whose inf/NaN pair terms must stay in the lanes that
//!   own them. Interaction-count equality pins that every backend and pool
//!   width walked the same tree.
//! * The potential energy the walk sums alongside: the same bits on every
//!   backend and pool width, and at θ = 0 the direct pair sum to rounding.

use pepc::direct::potential_energy;
use pepc::tree::{Octree, TreeConfig};
use pepc::Particle;
use proptest::prelude::*;

/// Deterministic particle cloud from a seed (splitmix64 positions in a
/// unit box, alternating charges).
fn cloud(n: usize, seed: u64) -> Vec<Particle> {
    let mut state = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / u64::MAX as f64
    };
    (0..n)
        .map(|i| Particle {
            pos: [next(), next(), next()],
            vel: [0.0; 3],
            charge: if i % 2 == 0 { 1.0 } else { -1.0 },
            mass: 1.0,
            label: i as u32,
            rank: 0,
        })
        .collect()
}

/// Forces, interaction count and potential of `particles` on every
/// backend at pool widths 1 and 8, checked bit-equal to the scalar walk at
/// width 1; returns the scalar forces and potential.
fn forces_agree(particles: &[Particle], cfg: TreeConfig) -> (Vec<[f64; 3]>, f64) {
    let mut tree = Octree::build(particles, cfg);
    tree.set_backend(lanes::Backend::Scalar);
    let one = gridsteer_exec::shared(1);
    let scalar = tree.forces_with(&one);
    let work_scalar = tree.last_interactions();
    let u_scalar = tree.last_potential();
    for backend in lanes::Backend::ALL {
        tree.set_backend(backend);
        for width in [1usize, 8] {
            let lane = tree.forces_with(&gridsteer_exec::shared(width));
            let label = format!("{} at width {width}", backend.label());
            prop_assert_eq!(
                work_scalar,
                tree.last_interactions(),
                "{} walked a different tree",
                &label
            );
            prop_assert_eq!(
                u_scalar.to_bits(),
                tree.last_potential().to_bits(),
                "{}: potential diverged",
                &label
            );
            for (i, (a, b)) in scalar.iter().zip(&lane).enumerate() {
                for c in 0..3 {
                    prop_assert_eq!(
                        a[c].to_bits(),
                        b[c].to_bits(),
                        "{}: particle {} component {} diverged",
                        &label,
                        i,
                        c
                    );
                }
            }
        }
    }
    (scalar, u_scalar)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn group_walk_forces_are_bit_identical_across_backends(
        kind in 0usize..3,
        theta in 0.3f64..0.9,
        draw in 0usize..3000,
        seed in 0u64..10_000,
        leaf_cap in 1usize..16,
    ) {
        // θ = 0 (every leaf summed directly) over small clouds, or θ in
        // [0.3, 0.9] over few particles or up to 3000
        let (theta, n) = match kind {
            0 => (0.0, 2 + draw % 398),
            1 => (theta, 2 + draw % 78),
            _ => (theta, 80 + draw % 2920),
        };
        let cfg = TreeConfig {
            theta,
            leaf_cap,
            threads: 1,
            ..Default::default()
        };
        forces_agree(&cloud(n, seed), cfg);
    }

    #[test]
    fn masked_lanes_keep_a_coincident_cluster_in_its_own_lanes(
        n in 0usize..120,
        cluster in 2usize..12,
        seed in 0u64..10_000,
        leaf_cap in 1usize..16,
        theta in 0.3f64..0.9,
    ) {
        // with ε = 0 every pair inside the cluster (and every target's
        // own pair, were it not masked) is 0·∞ = NaN
        let mut particles = cloud(n, seed);
        let at = [0.5, 0.25, 0.75];
        for k in 0..cluster {
            particles.push(Particle::at(at, if k % 2 == 0 { 1.0 } else { -1.0 }, (n + k) as u32));
        }
        let cfg = TreeConfig {
            theta,
            eps: 0.0,
            leaf_cap,
            threads: 1,
        };
        let (forces, _) = forces_agree(&particles, cfg);
        for (i, f) in forces[..n].iter().enumerate() {
            prop_assert!(f.iter().all(|v| v.is_finite()), "particle {} off the cluster: {:?}", i, f);
        }
    }

    #[test]
    fn at_theta_zero_the_walk_potential_is_the_direct_sum(
        n in 2usize..=300,
        seed in 0u64..10_000,
        leaf_cap in 1usize..16,
        eps in 0.01f64..0.2,
    ) {
        let particles = cloud(n, seed);
        let cfg = TreeConfig {
            theta: 0.0,
            eps,
            leaf_cap,
            threads: 1,
        };
        let (_, u) = forces_agree(&particles, cfg);
        let exact = potential_energy(&particles, eps);
        let rel = ((u - exact) / exact).abs();
        prop_assert!(rel <= 1e-12, "n = {}: walk {} vs direct {} (rel {:e})", n, u, exact, rel);
    }
}
