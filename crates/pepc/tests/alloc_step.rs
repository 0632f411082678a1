//! The allocation witness of the PEPC step: once warm, a step rebuilds its
//! tree inside the buffers the last step left, so what one step asks of
//! the allocator is a handful of calls — the force buffers and the pool's
//! chunk turnstile — and that count does not grow with the particle count.
//! The counters are per thread, and a 1-wide pool runs the force walk on
//! the test's own.

use gridsteer_testkit::{measure, CountingAlloc};
use pepc::{PepcConfig, PepcSim, TreeConfig};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocator calls of one warm step at `n` particles.
fn warm_step_calls(n: usize) -> u64 {
    let mut sim = PepcSim::new(PepcConfig {
        n_target: n,
        tree: TreeConfig {
            threads: 1,
            ..Default::default()
        },
        ..Default::default()
    });
    sim.step_n(3); // the tree's buffers take their capacity
    let ((), usage) = measure(|| sim.step());
    usage.calls
}

#[test]
fn a_warm_step_allocates_a_few_buffers_whatever_the_particle_count() {
    let small = warm_step_calls(100);
    assert!(
        small <= 4,
        "a warm step at n = 100 made {small} allocator calls"
    );
    for n in [1000, 3000] {
        let calls = warm_step_calls(n);
        assert_eq!(
            calls, small,
            "a warm step at n = {n} made {calls} calls, at 100 {small}"
        );
    }
}
