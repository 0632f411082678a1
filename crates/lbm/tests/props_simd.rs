//! Property: every lane-blocked backend (the baseline build and the AVX2
//! one) is **bit-identical** to the scalar one over arbitrary
//! configurations — grid shapes that exercise every
//! remainder-lane path, perturbation seeds, relaxation times, and
//! multi-step evolution. The vectorized kernel executes the exact scalar
//! operation sequence per lane, so this is equality of `f64` bits, not a
//! tolerance check.

use gridsteer_ckpt::Snapshot;
use lbm::{LbmConfig, TwoFluidLbm, SEC_LBM_FA, SEC_LBM_FB};
use proptest::prelude::*;

/// The `lbm/fa` and `lbm/fb` checkpoint sections after `steps`, a steer,
/// and `steps` more: raw little-endian distribution bits.
fn run(cfg: &LbmConfig, backend: lanes::Backend, steps: usize) -> (Vec<u8>, Vec<u8>) {
    let mut sim = TwoFluidLbm::new(cfg.clone());
    sim.set_backend(backend);
    sim.step_n(steps);
    sim.set_miscibility(0.15); // a mid-run steer, as the loop delivers them
    sim.step_n(steps);
    let mut snap = Snapshot::new(0, 0);
    sim.save_sections(&mut snap);
    let section = |name| snap.section(name).expect("saved").to_vec();
    (section(SEC_LBM_FA), section(SEC_LBM_FB))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn collide_stream_is_bit_identical_across_backends(
        nx in 3usize..9,
        ny in 3usize..7,
        nz in 3usize..6,
        seed in 0u64..1000,
        tau in 0.7f64..1.3,
        steps in 1usize..4,
    ) {
        let cfg = LbmConfig {
            nx,
            ny,
            nz,
            tau,
            seed,
            threads: 1,
            ..Default::default()
        };
        let scalar = run(&cfg, lanes::Backend::Scalar, steps);
        for backend in lanes::Backend::ALL {
            let lane = run(&cfg, backend, steps);
            prop_assert_eq!(&scalar.0, &lane.0, "{}: fa bits diverged", backend.label());
            prop_assert_eq!(&scalar.1, &lane.1, "{}: fb bits diverged", backend.label());
        }
    }
}

/// Every edge of the push kernel, by construction rather than by chance:
/// `nx < 6` (no lane block fits a row interior), `nx % 4` ∈ {0, 1, 2, 3}
/// (every tail length after the blocks), and `ny = 2` / `nz = 2`, where
/// the +1 and −1 neighbours are the same row / plane, so two directions'
/// destination claims land in one plane.
#[test]
fn edge_shapes_are_bit_identical_across_backends_and_threads() {
    let shapes = [
        (2, 2, 2),
        (3, 4, 2),
        (5, 2, 3),
        (8, 3, 2),
        (9, 2, 2),
        (10, 5, 3),
        (11, 2, 4),
        (12, 3, 2),
        (17, 4, 3),
    ];
    for (nx, ny, nz) in shapes {
        let cfg = |threads| LbmConfig {
            nx,
            ny,
            nz,
            threads,
            ..Default::default()
        };
        let spec = run(&cfg(1), lanes::Backend::Scalar, 3);
        for backend in lanes::Backend::ALL {
            for threads in [1, 8] {
                assert_eq!(
                    spec,
                    run(&cfg(threads), backend, 3),
                    "{nx}x{ny}x{nz} {} at {threads} threads",
                    backend.label()
                );
            }
        }
    }
}
