//! # The typed monitor bus — the data-plane mirror of the steering bus
//!
//! PR 4 unified the *inbound* half of the paper's interoperability story:
//! steering commands flow into one simulation over every middleware
//! through the [`SteerEndpoint`](crate::SteerEndpoint) /
//! [`SteerHub`](crate::SteerHub) API. This module is the *outbound* half —
//! monitored results flowing from the simulation out to distributed
//! viewers fast enough to meet the §4.2–4.4 reaction-time budgets:
//!
//! * [`MonitorFrame`] / [`MonitorPayload`] / [`MonitorKind`] — typed,
//!   sequence-numbered output frames: scalar series points, 3-vectors,
//!   dense 2-D/3-D field slices, and encoded framebuffer frames (the viz
//!   codec output), with a lossless tagged binary reference codec.
//! * [`MonitorCaps`] / [`MonitorEndpoint`] — the subscriber contract:
//!   per-viewer capability negotiation (which payload kinds, what batch
//!   size, what decimation rate), then frames pushed through the genuine
//!   middleware machinery and drained on the viewer side.
//! * [`MonitorHub`] — the producer-side anchor: payloads published at
//!   simulation step boundaries are stamped with monotone sequence
//!   numbers and fanned out to every subscriber in attach order, filtered
//!   and decimated per the negotiated capability set. Batched publication
//!   ships one transport envelope per chunk instead of per frame.
//! * One delivery path: whatever a subscriber negotiated — full rate,
//!   every Nth frame, grids only — the hub hands its endpoint
//!   [`FrameChunk`]s that *view* the published frames and the
//!   publish-wide encode cache through the positions that subscriber is
//!   due. No payload is copied inside the hub, and a frame is serialized
//!   once per publish however many subscribers carry it.
//! * The monitor half of each middleware module, mirroring the steering
//!   set: [`LoopbackMonitor`] (in-process reference), [`VisitMonitor`]
//!   (real §3.2 wire frames, both byte orders), [`OgsaMonitor`] (a hosted
//!   [`MonitorFeedService`] discovered through the Figure-2 registry and
//!   *pulled* by the viewer), [`CoviseMonitor`] (grids-only shared data
//!   objects — negotiation is load-bearing), and [`UnicoreMonitor`]
//!   (batches consigned as staged-file AJOs the consumer polls). They
//!   live beside their steering twins in [`crate::loopback`],
//!   [`crate::visit`], [`crate::ogsa`], [`crate::covise`] and
//!   [`crate::unicore`], and are re-exported here.
//! * [`HubFrameSink`] — reroutes the VizServer compressed-bitmap path
//!   ([`viz::VizServerSession`]) onto the hub, so rendered frames travel
//!   the same data plane as field slices and series points.
//! * [`RelayHub`] — the hierarchical fan-out fabric: a relay subscribes
//!   to a parent hub as an ordinary endpoint and re-publishes decimated,
//!   keyframe-cached streams to its own children, composable into
//!   origin → region → edge trees where each tier applies its own
//!   backpressure and serves late joiners from its edge cache.

pub mod endpoint;
pub mod frame;
pub mod hub;
pub mod relay;
pub mod viz_sink;

// Monitor-plane unit tests of the middleware modules, at the module paths
// they have always had (see the note on the steering-plane mounts in the
// crate root).
#[cfg(test)]
#[path = "../middleware_tests/covise_monitor.rs"]
mod covise_ep;
#[cfg(test)]
#[path = "../middleware_tests/ogsa_monitor.rs"]
mod ogsa_ep;
#[cfg(test)]
#[path = "../middleware_tests/unicore_monitor.rs"]
mod unicore_ep;
#[cfg(test)]
#[path = "../middleware_tests/visit_monitor.rs"]
mod visit_ep;

pub use crate::covise::CoviseMonitor;
pub use crate::loopback::LoopbackMonitor;
pub use crate::ogsa::{MonitorFeedService, OgsaMonitor};
pub use crate::unicore::UnicoreMonitor;
pub use crate::visit::VisitMonitor;
pub use endpoint::{FrameBytesCell, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError};
pub use frame::{FrameCodecError, MonitorFrame, MonitorKind, MonitorPayload};
pub use hub::{MonitorHub, MonitorStats};
pub use relay::{RelayHub, RelayPolicy, RelayReport};
pub use viz_sink::{publish_render, HubFrameSink};
