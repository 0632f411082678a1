//! The transport-agnostic monitor-endpoint contract.
//!
//! A [`MonitorEndpoint`] is the subscriber side of the data plane: the hub
//! pushes sequence-numbered [`MonitorFrame`]s *through* the endpoint's
//! middleware machinery (VISIT wire frames, OGSA service invocations,
//! COVISE data objects, UNICORE staged files, or an in-process loopback),
//! and the viewer on the far side drains the decoded frames back out with
//! [`MonitorEndpoint::recv`]. Capability negotiation is per-subscriber:
//! a viewer offers what it can consume ([`MonitorCaps`]), the endpoint
//! answers with the intersection, and the hub then filters and decimates
//! each subscriber's stream against that negotiated set — a COVISE viewer
//! that only takes grids never sees a scalar frame, and a thin desktop
//! client can ask for every Nth frame instead of all of them.

use crate::monitor::frame::{FrameCodecError, MonitorFrame, MonitorKind};
use std::cell::OnceCell;
use std::collections::BTreeSet;
use std::sync::Arc;

/// What one side of a monitor connection can produce or consume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MonitorCaps {
    /// Transport label ("loopback", "visit", "ogsa", "covise", "unicore").
    pub transport: &'static str,
    /// Payload kinds this side can carry losslessly.
    pub kinds: BTreeSet<MonitorKind>,
    /// Largest delivery batch this side accepts.
    pub max_batch: usize,
    /// Decimation: deliver every Nth admissible frame (1 = every frame).
    /// Negotiation takes the *coarser* of the two rates — a slow viewer
    /// must never be forced to take more frames than it asked for.
    pub deliver_every: u32,
}

impl MonitorCaps {
    /// A capability set carrying every kind at full rate.
    pub fn full(transport: &'static str, max_batch: usize) -> MonitorCaps {
        MonitorCaps {
            transport,
            kinds: MonitorKind::ALL.into_iter().collect(),
            max_batch,
            deliver_every: 1,
        }
    }

    /// Request decimation to every `n`th frame (builder sugar).
    pub fn every(mut self, n: u32) -> MonitorCaps {
        self.deliver_every = n.max(1);
        self
    }

    /// The handshake result: what *both* sides can do, at the coarser
    /// delivery rate.
    pub fn intersect(&self, other: &MonitorCaps) -> MonitorCaps {
        MonitorCaps {
            transport: self.transport,
            kinds: self.kinds.intersection(&other.kinds).copied().collect(),
            max_batch: self.max_batch.min(other.max_batch),
            deliver_every: self.deliver_every.max(other.deliver_every).max(1),
        }
    }

    /// Stable one-line rendering (scenario `attach` lines, digests).
    pub fn render(&self) -> String {
        let kinds: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        format!(
            "transport={} kinds={} max_batch={} every={}",
            self.transport,
            kinds.join("+"),
            self.max_batch,
            self.deliver_every
        )
    }
}

/// Errors a monitor transport can raise while shipping frames.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MonitorError {
    /// An empty delivery batch.
    EmptyBatch,
    /// The batch exceeds the negotiated maximum size.
    TooLarge {
        /// Requested batch length.
        len: usize,
        /// Negotiated maximum.
        max: usize,
    },
    /// A frame's payload kind is outside the negotiated capability set.
    UnsupportedKind {
        /// Offending channel.
        channel: String,
        /// The kind the transport cannot carry.
        kind: &'static str,
    },
    /// A frame does not fit the reference codec's length fields.
    Codec(FrameCodecError),
    /// The transport failed to encode/decode the frames.
    Transport(String),
}

impl std::fmt::Display for MonitorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MonitorError::EmptyBatch => write!(f, "empty delivery batch"),
            MonitorError::TooLarge { len, max } => {
                write!(f, "batch of {len} exceeds negotiated max {max}")
            }
            MonitorError::UnsupportedKind { channel, kind } => {
                write!(f, "{channel}: kind {kind} not negotiated on this transport")
            }
            MonitorError::Codec(e) => write!(f, "codec error: {e}"),
            MonitorError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}

impl From<FrameCodecError> for MonitorError {
    fn from(e: FrameCodecError) -> MonitorError {
        MonitorError::Codec(e)
    }
}

/// Enforce a negotiated capability set on an outgoing delivery (shared by
/// every adapter).
pub(crate) fn check_delivery(
    caps: &MonitorCaps,
    chunk: &FrameChunk<'_>,
) -> Result<(), MonitorError> {
    if chunk.is_empty() {
        return Err(MonitorError::EmptyBatch);
    }
    if chunk.len() > caps.max_batch {
        return Err(MonitorError::TooLarge {
            len: chunk.len(),
            max: caps.max_batch,
        });
    }
    for f in chunk.iter() {
        if !caps.kinds.contains(&f.payload.kind()) {
            return Err(MonitorError::UnsupportedKind {
                channel: f.payload.name().to_string(),
                kind: f.payload.kind().name(),
            });
        }
    }
    Ok(())
}

/// One frame's canonical codec bytes, filled lazily (see [`FrameChunk`]).
pub type FrameBytesCell = OnceCell<Arc<Vec<u8>>>;

/// A delivery: some of one publish's frames, plus that publish's shared
/// per-frame encode cache.
///
/// The hub builds one cache slot per published frame and hands every
/// subscriber a chunk that *views* the publish-wide frame and cache
/// slices through the positions that subscriber is due — all of them for
/// a full-rate viewer, every Nth or only the grids for a decimated or
/// kind-filtered one. No payload is copied to build a chunk, and whichever
/// subscriber first needs a frame's reference-codec bytes encodes it once
/// via [`frame_bytes`](FrameChunk::frame_bytes); every later one (UNICORE
/// staging the same file payload, OGSA hexing the same frame) clones the
/// `Arc` instead of re-encoding. Transports with their own native
/// re-expression (VISIT, COVISE) ignore the cache and read the typed
/// frames directly.
pub struct FrameChunk<'a> {
    frames: &'a [MonitorFrame<'a>],
    cache: &'a [FrameBytesCell],
    picks: &'a [usize],
}

impl<'a> FrameChunk<'a> {
    /// The frames at positions `picks` of `frames`, in that order, backed
    /// by the parallel `cache` slice. Panics if the two slices' lengths
    /// disagree; a pick past their end panics when the chunk is read.
    pub fn new(
        frames: &'a [MonitorFrame<'a>],
        cache: &'a [FrameBytesCell],
        picks: &'a [usize],
    ) -> FrameChunk<'a> {
        assert_eq!(
            frames.len(),
            cache.len(),
            "encode cache must parallel the frame slice"
        );
        FrameChunk {
            frames,
            cache,
            picks,
        }
    }

    /// The typed frames in this chunk, in delivery order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a MonitorFrame<'a>> + '_ {
        self.picks.iter().map(|&at| &self.frames[at])
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.picks.len()
    }

    /// True when the chunk carries no frames.
    pub fn is_empty(&self) -> bool {
        self.picks.is_empty()
    }

    /// Canonical codec bytes of the chunk's `i`th frame: encoded at most
    /// once per publish, shared across every subscriber that asks.
    pub fn frame_bytes(&self, i: usize) -> Result<Arc<Vec<u8>>, FrameCodecError> {
        let at = self.picks[i];
        if let Some(bytes) = self.cache[at].get() {
            return Ok(bytes.clone());
        }
        let bytes = Arc::new(self.frames[at].try_to_bytes()?);
        // single-threaded under the hub mutex, so this set never races;
        // ignoring the result keeps the error path (above) alloc-free
        let _ = self.cache[at].set(bytes.clone());
        Ok(bytes)
    }
}

/// One attached monitor subscriber over some transport.
///
/// Implementations are *full round trips*: [`MonitorEndpoint::deliver`]
/// pushes frames through the genuine middleware encode/ship/decode path,
/// and [`MonitorEndpoint::recv`] drains what the viewer side decoded —
/// so the frames a viewer sees are exactly what that middleware would
/// hand a remote process.
pub trait MonitorEndpoint: Send {
    /// Transport label (matches [`MonitorCaps::transport`]).
    fn transport(&self) -> &'static str;

    /// Capability handshake: the viewer offers what it can consume, the
    /// endpoint answers with the negotiated intersection and enforces it
    /// on subsequent deliveries.
    fn negotiate(&mut self, viewer: &MonitorCaps) -> MonitorCaps;

    /// Ship a chunk of frames through the transport to the viewer side —
    /// the one way frames reach a subscriber, whatever its rate or kind
    /// set. Transports that serialize via the reference codec take the
    /// bytes from [`FrameChunk::frame_bytes`], so a frame is encoded once
    /// per publish however many subscribers carry it. Returns the number
    /// of frames that completed the trip.
    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError>;

    /// Drain the frames the viewer side has decoded, in delivery order.
    fn recv(&mut self) -> Vec<MonitorFrame<'static>>;

    /// Release transport-side resources when the subscriber detaches
    /// ([`MonitorHub::detach`](crate::MonitorHub::detach)): drop
    /// undrained frames, reclaim middleware state. Default is a no-op
    /// for stateless transports.
    fn close(&mut self) {}
}

/// The [`MonitorEndpoint`] methods that read the same over every
/// middleware, written once (the mirror of the steering plane's
/// `steer_endpoint_common!`). Expects the negotiated set as `self.caps`;
/// the `inbox` arm adds the plain drain for adapters whose viewer side
/// is a `self.inbox` of decoded frames.
macro_rules! monitor_endpoint_common {
    () => {
        fn transport(&self) -> &'static str {
            self.caps.transport
        }

        fn negotiate(&mut self, viewer: &$crate::MonitorCaps) -> $crate::MonitorCaps {
            self.caps = self.caps.intersect(viewer);
            self.caps.clone()
        }
    };
    (inbox) => {
        $crate::monitor::endpoint::monitor_endpoint_common!();

        fn recv(&mut self) -> Vec<$crate::MonitorFrame<'static>> {
            std::mem::take(&mut self.inbox)
        }
    };
}
pub(crate) use monitor_endpoint_common;

/// Test sugar: deliver all of `frames` as one chunk with a fresh cache.
#[cfg(test)]
pub(crate) fn deliver_all(
    ep: &mut dyn MonitorEndpoint,
    frames: &[MonitorFrame],
) -> Result<usize, MonitorError> {
    let cache = vec![FrameBytesCell::new(); frames.len()];
    let all: Vec<usize> = (0..frames.len()).collect();
    ep.deliver(&FrameChunk::new(frames, &cache, &all))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::frame::MonitorPayload;

    #[test]
    fn intersection_narrows_kinds_and_coarsens_rate() {
        let mut grids_only = MonitorCaps::full("covise", 16);
        grids_only
            .kinds
            .retain(|k| matches!(k, MonitorKind::Grid2 | MonitorKind::Grid3));
        let viewer = MonitorCaps::full("viewer", 64).every(3);
        let n = grids_only.intersect(&viewer);
        assert_eq!(n.kinds.len(), 2);
        assert!(!n.kinds.contains(&MonitorKind::Scalar));
        assert_eq!(n.max_batch, 16);
        assert_eq!(n.deliver_every, 3, "the coarser rate wins");
    }

    #[test]
    fn render_is_stable_and_ordered() {
        let caps = MonitorCaps::full("visit", 64);
        assert_eq!(
            caps.render(),
            "transport=visit kinds=scalar+vec3+grid2+grid3+frame max_batch=64 every=1"
        );
    }

    #[test]
    fn check_delivery_enforces_negotiated_set() {
        let mut caps = MonitorCaps::full("t", 2);
        caps.kinds.remove(&MonitorKind::Frame);
        let frames = [
            MonitorFrame {
                seq: 1,
                step: 0,
                payload: MonitorPayload::scalar("x", 1.0),
            },
            MonitorFrame {
                seq: 2,
                step: 0,
                payload: MonitorPayload::frame("viz", true, 0, Vec::new()),
            },
        ];
        let cache = vec![FrameBytesCell::new(); 2];
        let check =
            |picks: &[usize]| check_delivery(&caps, &FrameChunk::new(&frames, &cache, picks));
        assert_eq!(check(&[]), Err(MonitorError::EmptyBatch));
        assert!(check(&[0]).is_ok());
        assert!(matches!(
            check(&[1]),
            Err(MonitorError::UnsupportedKind { .. })
        ));
        assert!(matches!(
            check(&[0, 0, 0]),
            Err(MonitorError::TooLarge { len: 3, max: 2 })
        ));
    }

    #[test]
    fn zero_decimation_is_clamped() {
        let caps = MonitorCaps::full("t", 8).every(0);
        assert_eq!(caps.deliver_every, 1);
        let n = caps.intersect(&MonitorCaps::full("v", 8));
        assert_eq!(n.deliver_every, 1);
    }
}
