//! The VISIT middleware, both planes, and the TCP steering wire: batches,
//! frames and session requests travel as real §3.2 wire frames.
//!
//! Every [`set_batch`](crate::SteerEndpoint::set_batch) and every monitor
//! delivery is one *envelope* of VISIT [`Frame`]s in a layout both planes
//! share — a begin frame carrying the item count (on the steering plane
//! followed by the sender's batch number), then per item a name frame and
//! a typed-value frame whose tag carries the kind's wire code (monitor
//! items put a header frame between the two: sequence, step, and the
//! payload's shape words), then a bare end frame. The in-process
//! endpoints ship it through a [`looped`](MemLink::looped) link using the
//! same length-prefixed framing as the TCP transport, and decode what
//! comes back off it into typed commands or frames. The bytes on the link
//! are exactly what a remote VISIT peer would see, including the
//! sender-native byte order that the receiving side converts
//! transparently (§3.2: the receiver converts; the sender never does).
//! Grids ride as `F32` arrays, scalar/vector samples as `F64`, encoded
//! framebuffer frames as opaque `Bytes`; because floats are moved as raw
//! bits, NaN-filled grids survive both byte orders exactly.
//!
//! The steering envelope is also the wire of the TCP collab server
//! (`steer_core::server`): a [`VisitWire`] over a
//! [`TcpLink`](visit::TcpLink) carries a session [`Request`] — a join, a
//! command batch, a read or a master-token pass — and its one [`Reply`].
//! A batch request *is* the envelope an in-process [`VisitEndpoint`]
//! ships; every other exchange is one frame each way on the steering
//! plane's tags, its text a `Str` payload.

use crate::command::{name_len, SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::{MonitorFrame, MonitorKind, MonitorPayload};
use crate::value::{ParamKind, ParamValue};
use std::time::Duration;
use visit::link::{FrameLink, LinkError};
use visit::{Endianness, Frame, MemLink, MsgKind, VisitValue};

/// The transport label on both planes.
pub const LABEL: &str = "visit";

/// Tag base of the steering plane's envelope frames; a frame's tag is
/// its plane's base plus one of the offsets below.
const STEER: u32 = 0x00B5_0000;
/// Tag base of the monitor plane's envelope frames.
const MONITOR: u32 = 0x00B6_0000;
/// Envelope-open frame (payload: `I64[count]`, and on the steering plane
/// `I64[count, batch number]`).
const BEGIN: u32 = 1;
/// Item-name frame (payload: `Str`).
const NAME: u32 = 2;
/// Per-item header, monitor plane only (payload: `I64[seq, step, a, b, c]`
/// where `a..c` are payload-shape words: grid dims, or keyframe flag +
/// raw size for encoded frames).
const HEAD: u32 = 3;
/// Envelope-close frame (bare).
const END: u32 = 4;
/// Join request (payload: `Str`, the requested name).
const JOIN: u32 = 5;
/// Read request (payload: `Str`, the parameter).
const GET: u32 = 6;
/// Master-token pass request (payload: `Str`, the new master).
const PASS: u32 = 7;
/// Join reply (payload: `Str`, the assigned name); the tag is one higher
/// when the joiner holds the master token.
const WELCOME: u32 = 8;
/// Success reply (payload: `I64[n]`, the commands applied; 0 for a pass).
const DONE: u32 = 10;
/// Refusal reply (payload: `Str`, the reason).
const REFUSED: u32 = 11;
/// Base of the typed-value frames; the low byte carries the kind's wire
/// code so the receiver decodes without guessing.
const VALUE: u32 = 0x1000;
/// Most items one envelope carries, on either plane: both endpoints
/// offer it as their `max_batch`, and a receiver refuses a larger count
/// before reading any item.
const MAX_BATCH: usize = 256;
/// How long an in-process hop waits for a frame it has just sent.
const HOP_PATIENCE: Duration = Duration::from_millis(50);

/// What a steering client asks of a session over the wire.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Join under a requested display name.
    Join(String),
    /// A command batch, numbered by its sender.
    Batch {
        /// The sender's batch number (a server refuses one it has seen).
        seq: u64,
        /// The commands, in request order.
        commands: Vec<SteerCommand>,
    },
    /// Read one parameter.
    Get(String),
    /// Hand the master token to the named participant.
    Pass(String),
}

/// A session's answer to one [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Joined under `name`, holding the master token if `master`.
    Welcome {
        /// The name the session assigned.
        name: String,
        /// True if the joiner holds the master token.
        master: bool,
    },
    /// Done: the number of commands applied (0 for a pass).
    Done(u64),
    /// A parameter's current value.
    Value(ParamValue),
    /// Refused, and why.
    Refused(String),
}

/// One end of a VISIT link that speaks the envelope on one plane.
pub struct VisitWire<L> {
    link: L,
    /// Tag base of the plane this wire carries.
    plane: u32,
    /// Byte order this end encodes payloads in.
    order: Endianness,
    /// How long a frame the peer still owes may take to arrive.
    patience: Duration,
}

impl<L: FrameLink> VisitWire<L> {
    /// The steering plane over `link`, encoding in this machine's byte
    /// order and waiting up to `patience` for each frame a request or a
    /// reply still owes.
    pub fn steering(link: L, patience: Duration) -> VisitWire<L> {
        VisitWire {
            link,
            plane: STEER,
            order: Endianness::native(),
            patience,
        }
    }

    /// The link under the wire.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    fn send(&mut self, frame: &Frame) -> Result<(), String> {
        self.link
            .send(&frame.encode())
            .map_err(|e| format!("visit send: {e:?}"))
    }

    fn send_value(&mut self, offset: u32, value: VisitValue) -> Result<(), String> {
        let tag = self.plane + offset;
        self.send(&Frame::with_value(MsgKind::Data, tag, self.order, value))
    }

    /// Close the envelope.
    fn send_end(&mut self) -> Result<(), String> {
        self.send(&Frame::bare(MsgKind::Data, self.plane + END))
    }

    /// One typed value on the value tag of its kind.
    fn send_param(&mut self, value: &ParamValue) -> Result<(), String> {
        self.send_value(VALUE + value.kind() as u32, value.to_visit())
    }

    /// Send one request. What the wire cannot carry — a name over the
    /// `u16` limit, a batch over the envelope's 256 items — is refused
    /// before any frame leaves.
    pub fn send_request(&mut self, request: &Request) -> Result<(), String> {
        let (tag, name) = match request {
            Request::Join(name) => (JOIN, name),
            Request::Get(name) => (GET, name),
            Request::Pass(name) => (PASS, name),
            Request::Batch { seq, commands } => {
                if commands.len() > MAX_BATCH {
                    let n = commands.len();
                    return Err(format!("batch of {n} exceeds wire limit {MAX_BATCH}"));
                }
                for cmd in commands {
                    name_len(&cmd.param).map_err(|e| e.to_string())?;
                }
                self.send_value(
                    BEGIN,
                    VisitValue::I64(vec![commands.len() as i64, *seq as i64]),
                )?;
                for cmd in commands {
                    self.send_value(NAME, VisitValue::Str(cmd.param.clone()))?;
                    self.send_param(&cmd.value)?;
                }
                return self.send_end();
            }
        };
        name_len(name).map_err(|e| e.to_string())?;
        self.send_value(tag, VisitValue::Str(name.clone()))
    }

    /// The next request, waiting up to `idle` for its first frame
    /// (`Ok(None)` if nothing came) and up to the wire's patience for
    /// each frame after it. A frame out of place is an error naming what
    /// was expected.
    pub fn recv_request(&mut self, idle: Duration) -> Result<Option<Request>, String> {
        let frame = match self.link.recv_timeout(idle) {
            Err(LinkError::Timeout) => return Ok(None),
            got => decode(got)?,
        };
        let request = match frame.tag.wrapping_sub(self.plane) {
            BEGIN => {
                let (words, commands) = self.envelope(&frame, 2, |wire, param| {
                    let frame = wire.recv()?;
                    let value = wire.param_of(frame)?;
                    Ok(SteerCommand { param, value })
                })?;
                Request::Batch {
                    seq: words[1] as u64,
                    commands,
                }
            }
            JOIN => Request::Join(text_of(frame)?),
            GET => Request::Get(text_of(frame)?),
            PASS => Request::Pass(text_of(frame)?),
            _ => return Err(format!("unexpected request tag {:#x}", frame.tag)),
        };
        Ok(Some(request))
    }

    /// Send the reply to one request.
    pub fn send_reply(&mut self, reply: &Reply) -> Result<(), String> {
        match reply {
            Reply::Welcome { name, master } => {
                let tag = WELCOME + u32::from(*master);
                self.send_value(tag, VisitValue::Str(name.clone()))
            }
            Reply::Done(n) => self.send_value(DONE, VisitValue::I64(vec![*n as i64])),
            Reply::Value(value) => self.send_param(value),
            Reply::Refused(why) => self.send_value(REFUSED, VisitValue::Str(why.clone())),
        }
    }

    /// Send `request` and wait for its reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        self.send_request(request)?;
        let frame = self.recv()?;
        Ok(match frame.tag.wrapping_sub(self.plane) {
            o if o == WELCOME || o == WELCOME + 1 => Reply::Welcome {
                name: text_of(frame)?,
                master: o > WELCOME,
            },
            DONE => {
                let n = self.words(&frame, DONE, 1)?[0];
                Reply::Done(u64::try_from(n).map_err(|_| "negative count")?)
            }
            REFUSED => Reply::Refused(text_of(frame)?),
            o if o >= VALUE => Reply::Value(self.param_of(frame)?),
            _ => return Err(format!("unexpected reply tag {:#x}", frame.tag)),
        })
    }

    fn recv(&mut self) -> Result<Frame, String> {
        decode(self.link.recv_timeout(self.patience))
    }

    /// The `I64` words of `frame`, which must sit at `offset` and carry
    /// exactly `len` of them.
    fn words(&self, frame: &Frame, offset: u32, len: usize) -> Result<Vec<i64>, String> {
        match frame.value.as_ref().and_then(VisitValue::to_i64) {
            Some(words) if frame.tag == self.plane + offset && words.len() == len => Ok(words),
            _ => Err(format!("expected {len}-word frame at offset {offset}")),
        }
    }

    /// Read the rest of the envelope `begin` opened: its `words` begin
    /// words (the item count first), then per item the name frame, which
    /// `item` finishes, and the end frame that must close the run.
    /// Strict: any frame out of place is a refusal, never a guess. Items
    /// are kept as they arrive, so a count reserves nothing the frames
    /// behind it do not back.
    fn envelope<T>(
        &mut self,
        begin: &Frame,
        words: usize,
        mut item: impl FnMut(&mut Self, String) -> Result<T, String>,
    ) -> Result<(Vec<i64>, Vec<T>), String> {
        let words = self.words(begin, BEGIN, words)?;
        let count = match usize::try_from(words[0]) {
            Ok(n) if n <= MAX_BATCH => n,
            _ => return Err(format!("item count outside 0..={MAX_BATCH}")),
        };
        let mut items = Vec::new();
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
        Ok((words, items))
    }

    /// A typed-value frame's kind wire code (the tag's low byte) and
    /// payload.
    fn value_of(&self, frame: Frame) -> Result<(u8, VisitValue), String> {
        let code = frame
            .tag
            .checked_sub(self.plane + VALUE)
            .and_then(|b| u8::try_from(b).ok())
            .ok_or("bad value tag")?;
        Ok((code, frame.value.ok_or("value frame without payload")?))
    }

    /// A typed-value frame read back as a parameter value.
    fn param_of(&self, frame: Frame) -> Result<ParamValue, String> {
        let (code, payload) = self.value_of(frame)?;
        let kind = ParamKind::from_byte(code).ok_or("bad value tag")?;
        ParamValue::from_visit(kind, &payload).ok_or_else(|| "typed payload mismatch".into())
    }
}

/// A received frame's bytes parsed, or why there is no frame.
fn decode(got: Result<Vec<u8>, LinkError>) -> Result<Frame, String> {
    let bytes = got.map_err(|e| format!("visit recv: {e:?}"))?;
    Frame::decode(&bytes).ok_or_else(|| "malformed frame".to_string())
}

/// The `Str` payload of a one-frame request or reply.
fn text_of(frame: Frame) -> Result<String, String> {
    match frame.value {
        Some(VisitValue::Str(s)) => Ok(s),
        _ => Err(format!("expected text frame at tag {:#x}", frame.tag)),
    }
}

/// The in-process hop on `plane`: a wire over a
/// [`looped`](MemLink::looped) link, so what it sends it drains again.
fn hop(plane: u32, order: Endianness) -> VisitWire<MemLink> {
    VisitWire {
        link: MemLink::looped(),
        plane,
        order,
        patience: HOP_PATIENCE,
    }
}

/// Steering over the VISIT wire protocol.
pub struct VisitEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    wire: VisitWire<MemLink>,
    /// Batches this endpoint has sent: the number the next one carries.
    sent: u64,
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
            caps: Capabilities::full(LABEL, MAX_BATCH),
            wire: hop(STEER, order),
            sent: 0,
        }
    }

    /// Send one batch request onto the link and read it back off the far
    /// end, as the TCP server would.
    fn round_trip(&mut self, commands: Vec<SteerCommand>) -> Result<Vec<SteerCommand>, String> {
        self.sent += 1;
        let seq = self.sent;
        self.wire.send_request(&Request::Batch { seq, commands })?;
        match self.wire.recv_request(HOP_PATIENCE)? {
            Some(Request::Batch { commands, .. }) => Ok(commands),
            _ => Err("expected a batch request".into()),
        }
    }
}

impl SteerEndpoint for VisitEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        let decoded = self.round_trip(commands).map_err(SteerError::Transport)?;
        self.hub.stage(&self.origin, LABEL, decoded)
    }
}

/// Monitoring over the VISIT wire protocol.
pub struct VisitMonitor {
    caps: MonitorCaps,
    wire: VisitWire<MemLink>,
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
            caps: MonitorCaps::full(LABEL, MAX_BATCH),
            wire: hop(MONITOR, order),
            inbox: Vec::new(),
        }
    }

    /// Encode one chunk onto the link and decode it back off the viewer
    /// end.
    fn round_trip(&mut self, chunk: &FrameChunk<'_>) -> Result<Vec<MonitorFrame<'static>>, String> {
        let wire = &mut self.wire;
        wire.send_value(BEGIN, VisitValue::I64(vec![chunk.len() as i64]))?;
        for f in chunk.iter() {
            wire.send_value(NAME, VisitValue::Str(f.payload.name().to_string()))?;
            let (shape, value) = encode_payload(&f.payload);
            let head = vec![f.seq as i64, f.step as i64, shape[0], shape[1], shape[2]];
            wire.send_value(HEAD, VisitValue::I64(head))?;
            wire.send_value(VALUE + f.payload.kind() as u32, value)?;
        }
        wire.send_end()?;
        let begin = wire.recv()?;
        let (_, frames) = wire.envelope(&begin, 1, |wire, name| {
            let frame = wire.recv()?;
            let head = wire.words(&frame, HEAD, 5)?;
            let frame = wire.recv()?;
            let (code, value) = wire.value_of(frame)?;
            let kind = MonitorKind::from_byte(code).ok_or("bad value tag")?;
            let payload =
                decode_payload(kind, name, &head[2..], value).ok_or("typed payload mismatch")?;
            Ok(MonitorFrame {
                seq: head[0] as u64,
                step: head[1] as u64,
                payload,
            })
        })?;
        Ok(frames)
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
        while self.wire.link.recv_timeout(Duration::ZERO).is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steering-plane `BEGIN` announcing `count` items, then the
    /// envelope's end.
    fn announce(count: i64) -> Result<Option<Request>, String> {
        let mut wire = hop(STEER, Endianness::native());
        wire.send_value(BEGIN, VisitValue::I64(vec![count, 1]))
            .unwrap();
        wire.send_end().unwrap();
        wire.recv_request(HOP_PATIENCE)
    }

    #[test]
    fn a_count_past_the_batch_limit_is_refused_before_anything_is_reserved() {
        for count in [i64::MAX, MAX_BATCH as i64 + 1, -1] {
            assert!(announce(count).is_err(), "count {count}");
        }
        // an empty envelope is well formed
        let empty = Request::Batch {
            seq: 1,
            commands: Vec::new(),
        };
        assert_eq!(announce(0), Ok(Some(empty)));
    }

    #[test]
    fn every_request_and_reply_survives_both_byte_orders() {
        let requests = [
            Request::Join("brooke".into()),
            Request::Get("miscibility".into()),
            Request::Pass("woessner".into()),
            Request::Batch {
                seq: u64::MAX,
                commands: vec![
                    SteerCommand::f64("miscibility", 0.25),
                    SteerCommand::new("site", ParamValue::Str("jülich".into())),
                    SteerCommand::new("beam_dir", ParamValue::Vec3([0.0, 1.0, 0.0])),
                ],
            },
        ];
        let replies = [
            Reply::Welcome {
                name: "node-1".into(),
                master: false,
            },
            Reply::Welcome {
                name: "node".into(),
                master: true,
            },
            Reply::Done(3),
            Reply::Value(ParamValue::Bool(true)),
            Reply::Refused("not the master".into()),
        ];
        for order in [Endianness::Little, Endianness::Big] {
            let mut wire = hop(STEER, order);
            for request in &requests {
                wire.send_request(request).unwrap();
                let got = wire.recv_request(HOP_PATIENCE).unwrap();
                assert_eq!(got.as_ref(), Some(request));
            }
            // a reply read by `call` follows the request it answers
            for reply in &replies {
                wire.send_reply(reply).unwrap();
                assert_eq!(&wire.call(&requests[0]).unwrap(), reply);
                assert_eq!(
                    wire.recv_request(HOP_PATIENCE),
                    Ok(Some(requests[0].clone()))
                );
            }
        }
    }

    #[test]
    fn what_the_wire_cannot_carry_is_refused_before_a_frame_leaves() {
        let mut wire = hop(STEER, Endianness::native());
        let long = "n".repeat(usize::from(u16::MAX) + 1);
        let refusal = "parameter name of 65536 bytes exceeds wire limit 65535";
        for request in [
            Request::Join(long.clone()),
            Request::Get(long.clone()),
            Request::Pass(long.clone()),
            Request::Batch {
                seq: 1,
                commands: vec![SteerCommand::f64(&long, 0.5)],
            },
        ] {
            assert_eq!(wire.send_request(&request), Err(refusal.into()));
        }
        let over = Request::Batch {
            seq: 1,
            commands: vec![SteerCommand::f64("x", 0.5); MAX_BATCH + 1],
        };
        let refusal = "batch of 257 exceeds wire limit 256";
        assert_eq!(wire.send_request(&over), Err(refusal.into()));
        assert_eq!(wire.recv_request(Duration::ZERO), Ok(None), "nothing sent");
    }
}
