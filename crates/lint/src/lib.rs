//! `gridsteer_lint` — the workspace determinism lint (`detlint`).
//!
//! Every subsystem in this tree rests on one contract: **byte-stable
//! digests at any thread count** — seeded RNG, virtual clock, ordered
//! reductions, attach-order fan-out. The dynamic `EXEC_THREADS` 1-vs-8 CI
//! matrix checks that contract probabilistically; this crate checks it
//! *statically*, so a stray `Instant::now()` or hash-order iteration is a
//! review-time error instead of a soak-time heisenbug.
//!
//! The pass is fully self-contained (hand-rolled lexer, no registry
//! deps) and ships as both a library (rule engine over fixture corpora,
//! see `tests/`) and the `detlint` binary wired into CI:
//!
//! ```text
//! cargo run -p gridsteer_lint            # lint the workspace, exit 1 on findings
//! cargo run -p gridsteer_lint -- --root DIR   # lint a bare tree (fixtures)
//! ```
//!
//! Rules (see [`rules::RuleId`]): R1 wall clocks, R2 hash-order
//! iteration, R3 raw threads, R4 unseeded RNG, R5 unordered parallel
//! reduction, R6 unjustified `#[allow]`/`unsafe`, R7 float reassociation
//! (fast-math intrinsics, lane-width-dependent horizontal reductions), R9
//! a `pub` item whose name no other `.rs` file in the tree spells (a
//! whole-workspace rule; `--root` fixture mode runs only R1–R7).
//! Per-crate waivers live
//! in `detlint.toml`; individual sites can carry
//! `// detlint::allow(Rn, "reason")` — the reason string is mandatory.

pub mod engine;
pub mod lexer;
pub mod policy;
pub mod rules;
pub mod source;

pub use engine::{discover_crates, lint_tree, lint_workspace, EngineError, FileFinding};
pub use policy::{Policy, PolicyError};
pub use rules::{lint_source, Finding, RuleId};
