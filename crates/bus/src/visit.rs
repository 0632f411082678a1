//! The VISIT middleware, both planes: batches and frames travel as real
//! §3.2 wire frames.
//!
//! Every [`set_batch`](crate::SteerEndpoint::set_batch) and every monitor
//! delivery is one *envelope* of VISIT [`Frame`]s in a layout both planes
//! share — a begin frame carrying the item count, then per item a name
//! frame and a typed-value frame whose tag carries the kind's wire code
//! (monitor items put a header frame between the two: sequence, step, and
//! the payload's shape words), then a bare end frame — shipped through a [`MemLink`] pair using the
//! same length-prefixed framing as the TCP transport, and decoded on the
//! far side back into typed commands or frames. The bytes on the link are
//! exactly what a remote VISIT peer would see, including the
//! sender-native byte order that the receiving side converts
//! transparently (§3.2: the receiver converts; the sender never does).
//! Grids ride as `F32` arrays, scalar/vector samples as `F64`, encoded
//! framebuffer frames as opaque `Bytes`; because floats are moved as raw
//! bits, NaN-filled grids survive both byte orders exactly.

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::{MonitorFrame, MonitorKind, MonitorPayload};
use crate::value::{ParamKind, ParamValue};
use std::time::Duration;
use visit::link::FrameLink;
use visit::{Endianness, Frame, MemLink, MsgKind, VisitValue};

/// The transport label on both planes.
pub const LABEL: &str = "visit";

/// Tag base of the steering plane's envelope frames; a frame's tag is
/// its plane's base plus one of the offsets below.
const STEER: u32 = 0x00B5_0000;
/// Tag base of the monitor plane's envelope frames.
const MONITOR: u32 = 0x00B6_0000;
/// Envelope-open frame (payload: `I64[count]`).
const BEGIN: u32 = 1;
/// Item-name frame (payload: `Str`).
const NAME: u32 = 2;
/// Per-item header, monitor plane only (payload: `I64[seq, step, a, b, c]`
/// where `a..c` are payload-shape words: grid dims, or keyframe flag +
/// raw size for encoded frames).
const HEAD: u32 = 3;
/// Envelope-close frame (bare).
const END: u32 = 4;
/// Base of the typed-value frames; the low byte carries the kind's wire
/// code so the receiver decodes without guessing.
const VALUE: u32 = 0x1000;

/// The link hop both planes share: the sender writes an envelope into
/// `near`, the receiver drains it synchronously from `far`.
struct Hop {
    /// Tag base of the plane this hop carries.
    plane: u32,
    /// Sending link end (the "simulation is the client" side).
    near: MemLink,
    /// Receiving link end.
    far: MemLink,
    /// Byte order the sender encodes payloads in.
    order: Endianness,
}

impl Hop {
    fn new(plane: u32, order: Endianness) -> Hop {
        let (near, far) = MemLink::pair();
        Hop {
            plane,
            near,
            far,
            order,
        }
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.near
            .send(&frame.encode())
            .map_err(|e| format!("visit send: {e:?}"))
    }

    fn send_value(&mut self, offset: u32, value: VisitValue) -> Result<(), String> {
        let tag = self.plane + offset;
        self.send(&Frame::with_value(MsgKind::Data, tag, self.order, value))
    }

    /// Open an envelope of `count` items.
    fn send_begin(&mut self, count: usize) -> Result<(), String> {
        self.send_value(BEGIN, VisitValue::I64(vec![count as i64]))
    }

    /// Close the envelope.
    fn send_end(&mut self) -> Result<(), String> {
        self.send(&Frame::bare(MsgKind::Data, self.plane + END))
    }

    fn recv(&mut self) -> Result<Frame, String> {
        let bytes = self
            .far
            .recv_timeout(Duration::from_millis(50))
            .map_err(|e| format!("visit recv: {e:?}"))?;
        Frame::decode(&bytes).ok_or_else(|| "malformed frame".to_string())
    }

    /// Receive the frame at `offset`, carrying exactly `len` `I64` words.
    fn recv_words(&mut self, offset: u32, len: usize) -> Result<Vec<i64>, String> {
        let frame = self.recv()?;
        match frame.value.as_ref().and_then(VisitValue::to_i64) {
            Some(words) if frame.tag == self.plane + offset && words.len() == len => Ok(words),
            _ => Err(format!("expected {len}-word frame at offset {offset}")),
        }
    }

    /// Drain one envelope: the begin frame carries the item count, each
    /// item opens with its name frame and is finished by `item`, and the
    /// end frame must close the run. Strict: any frame out of place is a
    /// refusal, never a guess.
    fn recv_envelope<T>(
        &mut self,
        mut item: impl FnMut(&mut Hop, String) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        let count = match self.recv_words(BEGIN, 1)?[0] {
            n if n >= 0 => n as usize,
            _ => return Err("negative item count".into()),
        };
        let mut items = Vec::with_capacity(count);
        for _ in 0..count {
            let frame = self.recv()?;
            let name = match (frame.tag, frame.value) {
                (tag, Some(VisitValue::Str(s))) if tag == self.plane + NAME => s,
                _ => return Err("expected name frame".into()),
            };
            items.push(item(self, name)?);
        }
        if self.recv()?.tag != self.plane + END {
            return Err("expected envelope-end frame".into());
        }
        Ok(items)
    }

    /// Receive a typed-value frame: the kind wire code from the tag's low
    /// byte, and the payload.
    fn recv_value(&mut self) -> Result<(u8, VisitValue), String> {
        let frame = self.recv()?;
        let code = frame
            .tag
            .checked_sub(self.plane + VALUE)
            .and_then(|b| u8::try_from(b).ok())
            .ok_or("bad value tag")?;
        Ok((code, frame.value.ok_or("value frame without payload")?))
    }
}

/// Steering over the VISIT wire protocol.
pub struct VisitEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    hop: Hop,
}

impl VisitEndpoint {
    /// Attach to a hub as `origin`, encoding payloads in the client's
    /// native byte order.
    pub fn attach(hub: &SteerHub, origin: &str) -> VisitEndpoint {
        Self::attach_with_order(hub, origin, Endianness::native())
    }

    /// Attach with an explicit client byte order (the cross-endian tests
    /// force the mismatched case).
    pub fn attach_with_order(hub: &SteerHub, origin: &str, order: Endianness) -> VisitEndpoint {
        VisitEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps: Capabilities::full(LABEL, 256),
            hop: Hop::new(STEER, order),
        }
    }

    /// Encode one batch onto the link and decode it back off the far end.
    fn round_trip(&mut self, commands: &[SteerCommand]) -> Result<Vec<SteerCommand>, String> {
        let hop = &mut self.hop;
        hop.send_begin(commands.len())?;
        for cmd in commands {
            hop.send_value(NAME, VisitValue::Str(cmd.param.clone()))?;
            hop.send_value(VALUE + cmd.value.kind() as u32, cmd.value.to_visit())?;
        }
        hop.send_end()?;
        hop.recv_envelope(|hop, param| {
            let (code, payload) = hop.recv_value()?;
            let kind = ParamKind::from_byte(code).ok_or("bad value tag")?;
            let value = ParamValue::from_visit(kind, &payload).ok_or("typed payload mismatch")?;
            Ok(SteerCommand { param, value })
        })
    }
}

impl SteerEndpoint for VisitEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        let decoded = self.round_trip(&commands).map_err(SteerError::Transport)?;
        self.hub.stage(&self.origin, LABEL, decoded)
    }
}

/// Monitoring over the VISIT wire protocol.
pub struct VisitMonitor {
    caps: MonitorCaps,
    hop: Hop,
    inbox: Vec<MonitorFrame<'static>>,
}

impl VisitMonitor {
    /// A fresh endpoint encoding payloads in the producer's native byte
    /// order.
    pub fn new() -> VisitMonitor {
        Self::with_order(Endianness::native())
    }

    /// A fresh endpoint with an explicit producer byte order (the
    /// cross-endian tests force the mismatched case).
    pub fn with_order(order: Endianness) -> VisitMonitor {
        VisitMonitor {
            caps: MonitorCaps::full(LABEL, 256),
            hop: Hop::new(MONITOR, order),
            inbox: Vec::new(),
        }
    }

    /// Encode one chunk onto the link and decode it back off the viewer
    /// end.
    fn round_trip(&mut self, chunk: &FrameChunk<'_>) -> Result<Vec<MonitorFrame<'static>>, String> {
        let hop = &mut self.hop;
        hop.send_begin(chunk.len())?;
        for f in chunk.iter() {
            hop.send_value(NAME, VisitValue::Str(f.payload.name().to_string()))?;
            let (shape, value) = encode_payload(&f.payload);
            let head = vec![f.seq as i64, f.step as i64, shape[0], shape[1], shape[2]];
            hop.send_value(HEAD, VisitValue::I64(head))?;
            hop.send_value(VALUE + f.payload.kind() as u32, value)?;
        }
        hop.send_end()?;
        hop.recv_envelope(|hop, name| {
            let head = hop.recv_words(HEAD, 5)?;
            let (code, value) = hop.recv_value()?;
            let kind = MonitorKind::from_byte(code).ok_or("bad value tag")?;
            let payload =
                decode_payload(kind, name, &head[2..], value).ok_or("typed payload mismatch")?;
            Ok(MonitorFrame {
                seq: head[0] as u64,
                step: head[1] as u64,
                payload,
            })
        })
    }
}

impl Default for VisitMonitor {
    fn default() -> Self {
        VisitMonitor::new()
    }
}

/// Shape words `(a, b, c)` + typed value → payload. Strict: any mismatch
/// is a refusal, never a guess.
fn decode_payload(
    kind: MonitorKind,
    name: String,
    shape: &[i64],
    value: VisitValue,
) -> Option<MonitorPayload<'static>> {
    let name = std::borrow::Cow::Owned(name);
    let dim = |i: usize| u32::try_from(shape[i]).ok();
    Some(match (kind, value) {
        (MonitorKind::Scalar, VisitValue::F64(v)) if v.len() == 1 => {
            MonitorPayload::Scalar { name, value: v[0] }
        }
        (MonitorKind::Vec3, VisitValue::F64(v)) if v.len() == 3 => MonitorPayload::Vec3 {
            name,
            value: [v[0], v[1], v[2]],
        },
        (MonitorKind::Grid2, VisitValue::F32(data)) => {
            let (nx, ny) = (dim(0)?, dim(1)?);
            if data.len() != nx as usize * ny as usize {
                return None;
            }
            let data = data.into();
            MonitorPayload::Grid2 { name, nx, ny, data }
        }
        (MonitorKind::Grid3, VisitValue::F32(data)) => {
            let (nx, ny, nz) = (dim(0)?, dim(1)?, dim(2)?);
            if data.len() != nx as usize * ny as usize * nz as usize {
                return None;
            }
            MonitorPayload::Grid3 {
                name,
                nx,
                ny,
                nz,
                data: data.into(),
            }
        }
        (MonitorKind::Frame, VisitValue::Bytes(data)) => {
            let keyframe = match shape[0] {
                0 => false,
                1 => true,
                _ => return None,
            };
            MonitorPayload::Frame {
                name,
                keyframe,
                raw_size: u32::try_from(shape[1]).ok()?,
                data: data.into(),
            }
        }
        _ => return None,
    })
}

/// Payload → shape words + typed value.
fn encode_payload(p: &MonitorPayload) -> ([i64; 3], VisitValue) {
    match p {
        MonitorPayload::Scalar { value, .. } => ([0, 0, 0], VisitValue::F64(vec![*value])),
        MonitorPayload::Vec3 { value, .. } => ([0, 0, 0], VisitValue::F64(value.to_vec())),
        MonitorPayload::Grid2 { nx, ny, data, .. } => {
            ([*nx as i64, *ny as i64, 0], VisitValue::F32(data.to_vec()))
        }
        MonitorPayload::Grid3 {
            nx, ny, nz, data, ..
        } => (
            [*nx as i64, *ny as i64, *nz as i64],
            VisitValue::F32(data.to_vec()),
        ),
        MonitorPayload::Frame {
            keyframe,
            raw_size,
            data,
            ..
        } => (
            [i64::from(*keyframe), *raw_size as i64, 0],
            VisitValue::Bytes(data.to_vec()),
        ),
    }
}

impl MonitorEndpoint for VisitMonitor {
    monitor_endpoint_common!(inbox);

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        let decoded = self.round_trip(chunk).map_err(MonitorError::Transport)?;
        let n = decoded.len();
        self.inbox.extend(decoded);
        Ok(n)
    }

    fn close(&mut self) {
        // drop undrained frames and anything still queued on the link
        // pair — a departed viewer's end must not hold decoded payloads
        self.inbox.clear();
        while self.hop.far.recv_timeout(Duration::from_millis(0)).is_ok() {}
    }
}
