//! The allocation witness of the LBM step: the distributions are updated
//! in place, so a step asks the allocator for nothing larger than the
//! force stage's per-plane scratch — no lattice-sized buffer, such as a
//! second copy of the distributions to stream into, can come back unseen,
//! whether it is made once by the first step or by every step. Two
//! consecutive steps run both sweeps (the local one and the streaming
//! one). The counters are per thread, and a 1-wide pool runs every plane
//! task on the test's own.

use gridsteer_testkit::{measure, CountingAlloc};
use lbm::{LbmConfig, TwoFluidLbm, Q};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Values a node the force stage keeps in its plane scratch (ρA, ρB, uA,
/// uB, 1.5·u·u of each component).
const NODE_VALS: usize = 10;

#[test]
fn a_step_requests_no_more_than_a_plane_of_scratch() {
    let side = 32;
    let mut sim = TwoFluidLbm::new(LbmConfig {
        nx: side,
        ny: side,
        nz: side,
        threads: 1,
        ..LbmConfig::default()
    });
    sim.set_miscibility(0.2);
    let plane_scratch = NODE_VALS * side * side * 8;
    let lattice = side * side * side * Q * 8;
    for when in ["first", "warm"] {
        for sweep in ["local", "streaming"] {
            let ((), usage) = measure(|| sim.step());
            assert!(
                usage.largest <= plane_scratch,
                "the {when} {sweep} step requested {} B at once; the plane scratch is \
                 {plane_scratch} B and one distribution array {lattice} B",
                usage.largest
            );
            assert!(
                usage.live <= 0,
                "the {when} {sweep} step kept {} B",
                usage.live
            );
        }
    }
}
