//! # steer-core — the collaborative steering environment
//!
//! The paper's headline contribution is not any single subsystem but their
//! combination: "geographically distributed teams can view simultaneously
//! a visualization of a running simulation and can steer the application"
//! (§1). This crate is that combination layer:
//!
//! * [`params`] — the typed steerable-parameter registry with bounds,
//!   plus [`params::SteerTarget`], the one steering surface both
//!   paper codes implement (the LB fluid's miscibility, §2.2; PEPC's
//!   beam/laser/damping, §3.4).
//! * [`session`] — [`session::SteeringSession`]: participants, one of
//!   whom holds the master token (`visit::MasterToken`, §3.3's rule,
//!   keyed by join order), and the event log that is the one
//!   record of every applied steer and broadcast sample.
//! * [`monitor`] — the feedback-loop budgets of §4.2–4.4 (VR rendering,
//!   desktop rendering, post-processing, simulation) as checkable
//!   [`monitor::LoopBudget`]s with measurement recording and violation
//!   counts, plus the outbound data plane's application side: the
//!   [`monitor::MonitorSource`] surface both paper codes implement, which
//!   a step boundary publishes as one batch through a
//!   [`gridsteer_bus::MonitorHub`].
//! * [`server`] — [`server::CollabServer`]: a real multi-threaded TCP
//!   steering server speaking the bus's VISIT steering envelope, so
//!   multiple client processes on loopback genuinely steer one simulation
//!   concurrently.
//!
//! Mid-session migration of the computation (§2.4) is not a separate
//! mechanism here: the scenario engine (`gridsteer_harness`) runs it as a
//! checkpoint round trip plus a frame gap on the virtual clock.

pub mod monitor;
pub mod params;
pub mod server;
pub mod session;

pub use gridsteer_bus::{
    MonitorCaps, MonitorEndpoint, MonitorFrame, MonitorHub, MonitorKind, MonitorPayload,
    MonitorStats,
};
pub use monitor::{LoopBudget, LoopMonitor, LoopReport, MonitorScratch, MonitorSource};
pub use params::{
    BoundsPolicy, ParamKind, ParamRegistry, ParamSpec, ParamValue, SharedRegistry, SteerCommand,
    SteerTarget,
};
pub use server::{ClientHandle, CollabServer};
pub use session::{Participant, SessionEvent, SteeringSession};
