//! # gridsteer-harness — the deterministic scenario engine
//!
//! The paper's core claim is qualitative: the steering loop stays
//! responsive while clients join, leave, pass the master token, and the
//! computation migrates mid-run (§2.4, §3.3, §4.2–4.4). This crate turns
//! that claim into checkable infrastructure: a [`Scenario`] builder wires
//! N participants, one simulation backend (LBM or PEPC), and per-client
//! fault-injectable links into a single run driven by the virtual clock —
//! no wall-clock, no sockets — and yields a [`ScenarioReport`] whose
//! canonical rendering (and hence [`ScenarioReport::digest`]) is
//! byte-stable for a given seed.
//!
//! The seed/digest contract:
//!
//! * every deterministic stream in a run (backend initial conditions, link
//!   jitter/loss, fault injection, migration transfer) derives from the one
//!   scenario seed;
//! * same built scenario + same seed ⇒ identical [`ScenarioReport::render`]
//!   bytes ⇒ identical digest;
//! * a different seed re-derives every stream, so any scenario with jitter
//!   or loss observably diverges.
//!
//! [`scenario`] is the builder DSL and [`script`] its text form; the
//! private `engine` module executes a built scenario — one `World` struct
//! owning the run state, one sample tick spelled as an ordered list of
//! method calls — over the private `backend` module's `Backend`, one enum
//! over the two paper codes; [`report`] is what comes out.
//!
//! See `tests/scenarios.rs` at the workspace root for the tier-1 fault
//! matrix and the README's "Scenario harness" section for how to add one.

// The size rule, enforced by CI's clippy step at clippy's default
// threshold (100 code lines): a function that outgrows it is split, so
// each engine phase, parser directive and validation pass stays readable
// and unit-testable on its own.
#![deny(clippy::too_many_lines)]

mod backend;
mod engine;
pub mod error;
pub mod report;
pub mod scenario;
pub mod script;

pub use error::{ScenarioError, MAX_NAME_LEN};
pub use gridsteer_bus::Transport;
pub use report::{MigrationRecord, RelayRecord, ScenarioReport, ViewerRecord};
pub use scenario::{Action, Scenario};
pub use script::ScriptError;
