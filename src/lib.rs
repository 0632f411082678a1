//! # gridsteer — Application Steering in a Collaborative Environment
//!
//! Umbrella crate for the SC2003 reproduction: re-exports every subsystem
//! so examples and downstream users can depend on one crate.
//!
//! Start with [`steer_core`] for the collaborative steering sessions, or
//! see the runnable examples:
//!
//! * `examples/quickstart.rs` — one simulation, one steering server, two
//!   clients, live miscibility steering over TCP.
//! * `examples/lbm_steering.rs` — the full RealityGrid Figure-1 pipeline:
//!   compute site → isosurface site → thin client, with a steering moment.
//! * `examples/pepc_collab.rs` — a PEPC session on the scenario engine:
//!   three VISIT viewers each receive every frame, and only the master
//!   token's holder steers the beam, before and after a token pass.
//! * `examples/building_airflow.rs` — the HLRS demo (§4.7): a COVISE
//!   module network over a building-climate field, param-synced across
//!   sites.
//!
//! ## Workspace
//!
//! Each subsystem is its own crate under `crates/` (the `core` directory
//! holds the package named `steer_core`); external dependencies are
//! vendored API-compatible shims under `vendor/` so the workspace builds
//! offline. See `README.md` for the full layout and the Figure-1 pipeline
//! mapping. Tier-1 verification is:
//!
//! ```text
//! cargo build --release && cargo test -q
//! ```

pub use covise;
pub use gridsteer_bus as bus;
pub use gridsteer_ckpt as ckpt;
pub use gridsteer_harness as harness;
pub use lbm;
pub use netsim;
pub use ogsa;
pub use pepc;
pub use steer_core;
pub use unicore;
pub use visit;
pub use viz;
