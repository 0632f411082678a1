//! # gridsteer-fuzz — generative scenario fuzzing
//!
//! The scenario harness replays *hand-written* runs byte-identically; this
//! crate turns that determinism into a search light. A seeded [`generate`]
//! emits random-but-valid [`Scenario`](gridsteer_harness::Scenario) scripts
//! — backend choice, participant/viewer/relay topologies over mixed
//! transports, churn, partitions/loss/jitter, steer storms, master passes,
//! shard splits, migrations, and checkpoint/crash/restore chains — and the
//! invariant [`oracle`] replays each one at 1 and 8 executor threads,
//! checking the properties the paper's steering loop promises:
//!
//! * **thread-digest** — the report digest is identical at any pool width;
//! * **master-token** — every non-empty shard has exactly one master at
//!   every sample tick (and an empty shard has none);
//! * **stale-seq** — the steer hub never commits a batch at or below an
//!   origin's committed high-water mark;
//! * **loop-accounting** — `broadcasts + broadcasts_skipped` equals the
//!   scheduled tick count;
//! * **monitor-seq** — each viewer's received frame sequence numbers are
//!   strictly increasing between (re)attachments;
//! * **crash-restore** — a clean checkpoint/crash/restore chain replays
//!   byte-identically to a run that never crashed.
//!
//! When a generated scenario fails, [`shrink`] greedily minimizes it while
//! the same invariant still fails, and [`corpus`] serializes the survivor
//! to a human-readable `.scen` file under `crates/fuzz/corpus/` — replayed
//! forever by `tests/fuzz_regressions.rs`. The soak driver lives in
//! `gridsteer_bench::experiments::exp_fuzz_soak` (`gridsteer_bench exp fuzz`).
//!
//! Everything here is seeded: same seed + same [`FuzzConfig`] ⇒ the same
//! scenario, byte for byte. No wall clocks, no ambient entropy.

pub mod corpus;
pub mod gen;
pub mod oracle;
pub mod shrinker;

pub use gen::{generate, FuzzConfig};
pub use oracle::{
    audit_with, check, check_with, clean_crash_chain, Audit, Invariant, PoolRunner, Runner,
    Violation,
};
pub use shrinker::shrink;
