//! # visit — the VISIT steering toolkit, reimplemented
//!
//! VISIT (VISualization Interface Toolkit, §3.2 of the paper) is a
//! lightweight library for online visualization and computational steering
//! developed at Forschungszentrum Jülich for the Gigabit Testbed West. Its
//! two defining design decisions, both reproduced here:
//!
//! 1. **The simulation is the client.** "All operations (like opening a
//!    connection, sending data to be visualized or receiving new
//!    parameters) have to be initiated by the simulation and are guaranteed
//!    to complete (or fail) after a user-specified timeout" — so a slow or
//!    dead visualization can never stall the simulation. Most steering
//!    systems put the server in the application; VISIT inverts that, and so
//!    do [`client::SteeringClient`] (simulation side) and
//!    [`server::VisServer`] (visualization side).
//!
//! 2. **MPI-like tagged typed messages with server-side conversion.**
//!    Payloads travel in the *client's native* byte order and precision;
//!    the server performs "any data conversions (byte order, precision,
//!    integer-float) … transparently, again so that the simulation is
//!    disturbed as little as possible" ([`value`], [`wire`]).
//!
//! The collaborative multiplexer of §3.3 — broadcast send-requests to all
//! participating visualizations, route receive-requests only to a
//! transferable *master* — is not a separate process here. The paper moved
//! the `vbroker`'s job into the VISIT–UNICORE proxy-server
//! (`unicore::VisitProxyServer`), and the scenario engine runs it as the
//! monitor hub's fan-out plus the steering session's token. Both ask
//! [`master::MasterToken`], the one master rule.
//!
//! Transport is abstracted over [`link::FrameLink`] with three
//! implementations: real TCP ([`link::TcpLink`]), in-process channels
//! ([`link::MemLink`]), and an in-process hop back to its own sender
//! ([`link::LoopLink`]).
//!
//! Security matches the paper: "a connection password that is transferred
//! in clear-text" ([`auth::Password::ClearText`]) plus a keyed-digest mode
//! ([`auth::Password::Keyed`]) representing what the UNICORE integration
//! layers on top.

pub mod auth;
pub mod client;
pub mod link;
pub mod master;
pub mod server;
pub mod value;
pub mod wire;

pub use auth::Password;
pub use client::SteeringClient;
pub use link::{FrameLink, LinkError, LoopLink, MemLink, TcpLink};
pub use master::MasterToken;
pub use server::{ServeOutcome, VisServer};
pub use value::{Endianness, VisitValue};
pub use wire::{Frame, MsgKind};
