//! # gridsteer_bus — the unified typed steering bus
//!
//! The paper's central claim is *interoperable* computational steering:
//! one running simulation steered through heterogeneous grid middlewares
//! (UNICORE job channels, VISIT's wire protocol, OGSA grid services,
//! COVISE collaborative modules). This crate is the API that makes the
//! claim structural instead of aspirational — **one transport-agnostic
//! steering surface that everything in the workspace goes through**:
//!
//! * [`ParamValue`] / [`ParamKind`] — the typed value currency
//!   (`F64`/`I64`/`Bool`/`Vec3`/`Str`), with lossless codecs onto VISIT
//!   payloads, OGSA service arguments, a tagged binary form (UNICORE job
//!   payloads, checkpoints), and canonical text.
//! * [`ParamSpec`] / [`BoundsPolicy`] — typed declarations with an
//!   *explicit* clamp-vs-reject policy, replacing the old f64-only specs.
//! * [`ParamRegistry`] / [`SharedRegistry`] — the typed registry (specs
//!   and current values) and its shared-authority handle. The one record
//!   of applied steers is the session's event log, a [`BoundedLog`]: a
//!   window of the newest entries plus a count and fold of everything
//!   evicted ([`AUDIT_WINDOW`]).
//! * [`SteerEndpoint`] — the one client contract: capability
//!   [`SteerEndpoint::negotiate`] handshake, typed
//!   [`SteerEndpoint::describe`] / [`SteerEndpoint::get`],
//!   sequence-numbered [`SteerEndpoint::set_batch`], and committed-steer
//!   [`SteerEndpoint::subscribe`].
//! * [`SteerHub`] — the session-side anchor: endpoints *stage* decoded
//!   batches, the simulation-loop owner *commits* them atomically at a
//!   step boundary, in global staging order — which is what keeps
//!   multi-transport scenario digests byte-stable. A commit's outcomes
//!   reach subscribers as one shared [`CommitRecord`]; a
//!   [`Subscription::drain`] reads [`SteerNotice`]s out of it in place.
//! * One module per middleware, holding *both* planes of it over helpers
//!   written once — the wire quirks (VISIT's link hop and envelope loop,
//!   OGSA's host → publish → discover flow and result mapping, UNICORE's
//!   consignment hop and count-prefixed payload) are each derived in one
//!   place and shared by the steering endpoint and the monitor endpoint:
//!   [`loopback`] ([`LoopbackEndpoint`], the in-process reference),
//!   [`visit`] ([`VisitEndpoint`]: real §3.2 wire frames over a frame
//!   link; the same envelope, as [`visit::VisitWire`], is the core TCP
//!   collab server's wire), [`ogsa`] ([`OgsaEndpoint`]: a hosted [`BusSteeringService`]
//!   discovered through the Figure-2 registry), [`covise`]
//!   ([`CoviseEndpoint`]: a genuine
//!   [`covise::Module`](::covise::Module) parameter sink), and
//!   [`unicore`] ([`UnicoreEndpoint`]: batches consigned as serialized
//!   AJOs). [`Transport`] is the closed enum that selects one.
//!
//! Transports differ in what they can carry — COVISE module parameters
//! are scalars, so its capability set excludes `vec3`/`str` — and the
//! negotiate handshake is how a client discovers that before steering.
//!
//! The steering surface is the *control plane*. Its data-plane mirror —
//! monitored simulation output streaming back out to viewers over the
//! same five middlewares — lives in [`monitor`]: typed sequence-numbered
//! [`MonitorFrame`]s fanned out by a [`MonitorHub`] to capability-
//! negotiated [`MonitorEndpoint`] subscribers, every one of them reached
//! through the single [`MonitorEndpoint::deliver`] path.

pub mod ckpt;
pub mod command;
pub mod covise;
pub mod endpoint;
pub mod hub;
pub mod log;
pub mod loopback;
pub mod monitor;
pub mod ogsa;
pub mod registry;
pub mod spec;
pub mod transport;
pub mod unicore;
pub mod value;
pub mod visit;

// Steering-plane unit tests of the middleware modules, mounted at the
// module paths the per-plane adapter files had (`visit_ep::tests::…`): a
// test's path is its name in every report and in the floor the suite is
// held to, so the fold moved the code and left the names alone. (The
// monitor-plane halves are mounted the same way in `monitor`.)
#[cfg(test)]
#[path = "middleware_tests/covise_steer.rs"]
mod covise_ep;
#[cfg(test)]
#[path = "middleware_tests/ogsa_steer.rs"]
mod ogsa_ep;
#[cfg(test)]
#[path = "middleware_tests/unicore_steer.rs"]
mod unicore_ep;
#[cfg(test)]
#[path = "middleware_tests/visit_steer.rs"]
mod visit_ep;

pub use command::{
    CommandBatch, CommitOutcome, CommitRecord, SteerCommand, SteerError, SteerNotice,
};
pub use covise::{CoviseEndpoint, SteerParamsModule};
pub use endpoint::{Capabilities, Drained, SteerEndpoint, Subscription};
pub use hub::SteerHub;
pub use log::{fnv1a, BoundedLog, LogEntry, Names, AUDIT_WINDOW, FNV_OFFSET};
pub use loopback::LoopbackEndpoint;
pub use monitor::{
    CoviseMonitor, FrameBytesCell, FrameChunk, FrameCodecError, HubFrameSink, LoopbackMonitor,
    MonitorCaps, MonitorEndpoint, MonitorError, MonitorFeedService, MonitorFrame, MonitorHub,
    MonitorKind, MonitorPayload, MonitorStats, OgsaMonitor, RelayHub, RelayPolicy, RelayReport,
    UnicoreMonitor, VisitMonitor,
};
pub use ogsa::{BusSteeringService, OgsaEndpoint};
pub use registry::{ParamRegistry, SharedRegistry};
pub use spec::{BoundsPolicy, ParamSpec};
pub use transport::Transport;
pub use unicore::UnicoreEndpoint;
pub use value::{ParamKind, ParamValue};
pub use visit::VisitEndpoint;
