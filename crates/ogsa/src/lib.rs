//! # ogsa — a lightweight OGSA/OGSI hosting environment (OGSI::Lite analog)
//!
//! §2.3 of the paper: "RealityGrid has therefore developed a lightweight
//! OGSA hosting environment called OGSI-Lite. This uses Perl to create the
//! hosting environment and can thus run on almost any platform." (The
//! original even ran on a Sony PlayStation 2.) The hosting environment
//! exists because "the very first implementations of the proposed OGSI
//! standard [GT3, .NET] … have very basic functionality, insufficient for
//! our steering application."
//!
//! This crate is that hosting environment in Rust, providing the OGSI
//! subset the paper's steering architecture (Figure 2) needs:
//!
//! * [`service`] — the [`service::GridService`] trait:
//!   operations ([`service::GridService::invoke`]), queryable
//!   *service data elements* (OGSI `findServiceData`), and port types.
//! * [`hosting`] — [`hosting::HostingEnv`]: factories, grid
//!   service handles (GSHs), invocation dispatch, and OGSI *soft-state
//!   lifetimes* (services expire unless their termination time is
//!   extended).
//! * [`registry`] — the registry of Figure 2: services publish
//!   `(handle, port type)` entries; clients discover by port type and then
//!   bind to the handles ("the client chooses the services it will require
//!   and binds them to the client", §2.3).
//! * [`steering`] — the visualization-service port type of Figure 2
//!   (`setIsovalue` / `setYaw` over shared [`steering::VisControl`]). The
//!   application's steering service is `gridsteer_bus::BusSteeringService`
//!   (`describe` / `getParam` / `setBatch`), hosted in this environment by
//!   the bus's OGSA adapter.

pub mod hosting;
pub mod registry;
pub mod service;
pub mod steering;

pub use hosting::{HostingEnv, HostingError};
pub use registry::Registry;
pub use service::{GridService, Gsh, InvokeResult, SdeValue, ServiceData};
pub use steering::{VisControl, VisService};
