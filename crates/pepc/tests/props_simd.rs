//! Property: the vectorized leaf force kernel is **bit-identical** to the
//! scalar reference over arbitrary particle clouds — counts that exercise
//! every lane-remainder path, clustered positions that stress deep leaves,
//! and mixed-sign charges. Equality is of `f64` bits; interaction-count
//! equality pins that both backends walked the same tree.

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn leaf_forces_are_bit_identical_across_backends(
        n in 2usize..80,
        seed in 0u64..10_000,
        leaf_cap in 2usize..16,
        theta in 0.3f64..0.9,
    ) {
        let particles = cloud(n, seed);
        let cfg = TreeConfig {
            theta,
            leaf_cap,
            threads: 1,
            ..Default::default()
        };
        let mut tree = Octree::build(&particles, cfg);

        tree.set_backend(lanes::Backend::Scalar);
        let scalar = tree.forces(&particles);
        let work_scalar = tree.last_interactions();

        for backend in lanes::Backend::ALL {
            tree.set_backend(backend);
            let lane = tree.forces(&particles);
            let work_lane = tree.last_interactions();

            prop_assert_eq!(work_scalar, work_lane, "{} walked a different tree", backend.label());
            for (i, (a, b)) in scalar.iter().zip(&lane).enumerate() {
                for c in 0..3 {
                    prop_assert_eq!(
                        a[c].to_bits(),
                        b[c].to_bits(),
                        "{}: particle {} component {} diverged",
                        backend.label(),
                        i,
                        c
                    );
                }
            }
        }
    }
}
