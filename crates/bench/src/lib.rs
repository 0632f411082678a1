//! # gridsteer-bench — the experiment harness
//!
//! The paper is a showcase paper with four figures and prose budgets
//! rather than numeric tables; every figure and every quantitative claim
//! has a row in [`experiments::EXPERIMENTS`], and every gated perf
//! workload a row in [`gate::GATES`]. The one `gridsteer_bench` binary
//! (`src/main.rs`) dispatches `exp`, `snap` and `gate` over those two
//! tables.

pub mod experiments;
pub mod gate;

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold bytes into a running FNV-1a 64 state — every digest this crate
/// prints or writes.
pub(crate) fn fnv_fold(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}
