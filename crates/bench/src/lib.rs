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
