//! The VISIT middleware, both planes, and the TCP steering wire: batches,
//! frames and session requests travel as real §3.2 wire frames.
//!
//! Every [`set_batch`](crate::SteerEndpoint::set_batch) and every monitor
//! delivery is one *envelope* of VISIT [`Frame`](visit::Frame)s in a layout both planes
//! share — a begin frame carrying the item count (on the steering plane
//! followed by the sender's batch number), then per item a name frame and
//! a typed-value frame whose tag carries the kind's wire code (monitor
//! items put a header frame between the two: sequence, step, and the
//! payload's shape words), then a bare end frame. The in-process
//! endpoints ship it through a [`LoopLink`] — one queue, length-prefixed
//! as on the TCP transport, that the sending wire reads back — and decode
//! what comes back off it into typed commands (over the batch the caller
//! handed in, so a warm hop allocates nothing) or frames. Frames are
//! encoded from the data they carry, borrowed, into one buffer per wire,
//! and parsed in place ([`FrameView`]). The bytes on the link
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
use visit::link::{recycle, FrameLink, LinkError};
use visit::value::ValueRef;
use visit::wire::{encode_frame, FrameView};
use visit::{Endianness, LoopLink, MsgKind, VisitValue};

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

/// Why [`VisitWire::recv_request`] produced no request.
#[derive(Debug, Clone, PartialEq)]
pub enum RecvError {
    /// The frames did not make a request: the wire is out of step with
    /// its peer, so the connection is done.
    Malformed(String),
    /// A whole request arrived that says what the wire cannot carry on (a
    /// negative batch number): the wire is still in step, so the peer can
    /// hear the reason and go on.
    Refused(String),
}

impl From<String> for RecvError {
    fn from(why: String) -> RecvError {
        RecvError::Malformed(why)
    }
}

impl std::fmt::Display for RecvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecvError::Malformed(why) | RecvError::Refused(why) => f.write_str(why),
        }
    }
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
    /// The frame being sent, encoded in place (one buffer per wire).
    out: Vec<u8>,
    /// The frame last received (one buffer per wire).
    inbox: Vec<u8>,
    /// The name of the envelope item being read.
    name: String,
}

impl<L: FrameLink> VisitWire<L> {
    /// The steering plane over `link`, encoding in this machine's byte
    /// order and waiting up to `patience` for each frame a request or a
    /// reply still owes.
    pub fn steering(link: L, patience: Duration) -> VisitWire<L> {
        Self::steering_in(link, Endianness::native(), patience)
    }

    /// The steering plane over `link`, encoding payloads in `order` (the
    /// wire-byte pins force both).
    pub(crate) fn steering_in(link: L, order: Endianness, patience: Duration) -> VisitWire<L> {
        Self::on(link, STEER, order, patience)
    }

    fn on(link: L, plane: u32, order: Endianness, patience: Duration) -> VisitWire<L> {
        VisitWire {
            link,
            plane,
            order,
            patience,
            out: Vec::new(),
            inbox: Vec::new(),
            name: String::new(),
        }
    }

    /// The link under the wire.
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }

    /// One frame at `offset` on this plane: `value` in the wire's byte
    /// order, or bare (a bare frame declares little-endian, as
    /// [`Frame::bare`](visit::Frame::bare) does).
    fn send(&mut self, offset: u32, value: Option<ValueRef<'_>>) -> Result<(), String> {
        let order = value.map_or(Endianness::Little, |_| self.order);
        recycle(&mut self.out);
        encode_frame(
            MsgKind::Data,
            self.plane + offset,
            order,
            value,
            &mut self.out,
        );
        self.link
            .send(&self.out)
            .map_err(|e| format!("visit send: {e:?}"))
    }

    fn send_value(&mut self, offset: u32, value: ValueRef<'_>) -> Result<(), String> {
        self.send(offset, Some(value))
    }

    /// Close the envelope.
    fn send_end(&mut self) -> Result<(), String> {
        self.send(END, None)
    }

    /// One typed value on the value tag of its kind.
    fn send_param(&mut self, value: &ParamValue) -> Result<(), String> {
        self.send_value(VALUE + value.kind() as u32, value.to_visit())
    }

    /// Send one request. What the wire cannot carry — a name over the
    /// `u16` limit, a batch over the envelope's 256 items, a batch number
    /// past the `I64` word that carries it — is refused before any frame
    /// leaves.
    pub fn send_request(&mut self, request: &Request) -> Result<(), String> {
        let (tag, name) = match request {
            Request::Join(name) => (JOIN, name),
            Request::Get(name) => (GET, name),
            Request::Pass(name) => (PASS, name),
            Request::Batch { seq, commands } => return self.send_batch(*seq, commands),
        };
        name_len(name).map_err(|e| e.to_string())?;
        self.send_value(tag, ValueRef::Str(name))
    }

    /// A batch request, the commands borrowed from the caller.
    fn send_batch(&mut self, seq: u64, commands: &[SteerCommand]) -> Result<(), String> {
        if commands.len() > MAX_BATCH {
            let n = commands.len();
            return Err(format!("batch of {n} exceeds wire limit {MAX_BATCH}"));
        }
        for cmd in commands {
            name_len(&cmd.param).map_err(|e| e.to_string())?;
        }
        let seq = i64::try_from(seq)
            .map_err(|_| format!("batch number {seq} exceeds wire limit {}", i64::MAX))?;
        self.send_value(BEGIN, ValueRef::I64(&[commands.len() as i64, seq]))?;
        for cmd in commands {
            self.send_value(NAME, ValueRef::Str(&cmd.param))?;
            self.send_param(&cmd.value)?;
        }
        self.send_end()
    }

    /// The next request, waiting up to `idle` for its first frame
    /// (`Ok(None)` if nothing came) and up to the wire's patience for
    /// each frame after it. A frame out of place is
    /// [`RecvError::Malformed`], naming what was expected; a whole batch
    /// whose number is negative is [`RecvError::Refused`].
    pub fn recv_request(&mut self, idle: Duration) -> Result<Option<Request>, RecvError> {
        recycle(&mut self.inbox);
        match self.link.recv_into(idle, &mut self.inbox) {
            Err(LinkError::Timeout) => return Ok(None),
            got => got.map_err(recv_error)?,
        }
        let plane = self.plane;
        let frame = parse(&self.inbox)?;
        let request = match frame.tag.wrapping_sub(plane) {
            BEGIN => {
                let words = words(plane, &frame, BEGIN)?;
                let mut commands = Vec::new();
                let seq = self.batch_into(words, &mut commands)?;
                Request::Batch { seq, commands }
            }
            JOIN => Request::Join(text_of(&frame)?),
            GET => Request::Get(text_of(&frame)?),
            PASS => Request::Pass(text_of(&frame)?),
            _ => return Err(format!("unexpected request tag {:#x}", frame.tag).into()),
        };
        Ok(Some(request))
    }

    /// Send the reply to one request.
    pub fn send_reply(&mut self, reply: &Reply) -> Result<(), String> {
        match reply {
            Reply::Welcome { name, master } => {
                let tag = WELCOME + u32::from(*master);
                self.send_value(tag, ValueRef::Str(name))
            }
            Reply::Done(n) => self.send_value(DONE, ValueRef::I64(&[*n as i64])),
            Reply::Value(value) => self.send_param(value),
            Reply::Refused(why) => self.send_value(REFUSED, ValueRef::Str(why)),
        }
    }

    /// Send `request` and wait for its reply.
    pub fn call(&mut self, request: &Request) -> Result<Reply, String> {
        self.send_request(request)?;
        let plane = self.plane;
        let frame = self.recv()?;
        Ok(match frame.tag.wrapping_sub(plane) {
            o if o == WELCOME || o == WELCOME + 1 => Reply::Welcome {
                name: text_of(&frame)?,
                master: o > WELCOME,
            },
            DONE => {
                let [n] = words(plane, &frame, DONE)?;
                Reply::Done(u64::try_from(n).map_err(|_| "negative count")?)
            }
            REFUSED => Reply::Refused(text_of(&frame)?),
            o if o >= VALUE => Reply::Value(param_of(plane, &frame)?),
            _ => return Err(format!("unexpected reply tag {:#x}", frame.tag)),
        })
    }

    /// The next frame a request or reply still owes, parsed in place.
    fn recv(&mut self) -> Result<FrameView<'_>, String> {
        recycle(&mut self.inbox);
        self.link
            .recv_into(self.patience, &mut self.inbox)
            .map_err(recv_error)?;
        parse(&self.inbox)
    }

    /// Walk the rest of an envelope whose begin frame announced `count`
    /// items: per item its name frame, then `item` — given the item's
    /// index and name — reads the frames that finish it; then the end
    /// frame that must close the run. Strict: any frame out of place is a
    /// refusal, never a guess. Returns the count, which reserves nothing:
    /// `item` keeps each item as it arrives.
    fn items(
        &mut self,
        count: i64,
        mut item: impl FnMut(&mut Self, usize, &str) -> Result<(), String>,
    ) -> Result<usize, String> {
        let count = match usize::try_from(count) {
            Ok(n) if n <= MAX_BATCH => n,
            _ => return Err(format!("item count outside 0..={MAX_BATCH}")),
        };
        let plane = self.plane;
        // the name leaves the inbox, which `item` reads the next frame into
        let mut name = std::mem::take(&mut self.name);
        for i in 0..count {
            let frame = self.recv()?;
            match frame.text() {
                Some(text) if frame.tag == plane + NAME => {
                    name.clear();
                    name.push_str(text);
                }
                _ => return Err("expected name frame".into()),
            }
            item(self, i, &name)?;
        }
        self.name = name;
        if self.recv()?.tag != plane + END {
            return Err("expected envelope-end frame".into());
        }
        Ok(count)
    }

    /// The rest of a batch envelope whose begin frame carried `[count,
    /// seq]`, decoded over `commands` (see [`SteerCommand::slot`]).
    /// Returns the batch number.
    fn batch_into(
        &mut self,
        [count, seq]: [i64; 2],
        commands: &mut Vec<SteerCommand>,
    ) -> Result<u64, RecvError> {
        let plane = self.plane;
        let count = self.items(count, |wire, i, name| {
            let value = param_of(plane, &wire.recv()?)?;
            SteerCommand::slot(commands, i).set(name, value);
            Ok(())
        })?;
        commands.truncate(count);
        // a batch number is never negative: read as u64, -1 would be batch
        // u64::MAX and every later batch would look stale
        u64::try_from(seq)
            .map_err(|_| RecvError::Refused(format!("malformed envelope: batch number {seq}")))
    }
}

fn recv_error(e: LinkError) -> String {
    format!("visit recv: {e:?}")
}

/// A received frame's bytes parsed in place.
fn parse(bytes: &[u8]) -> Result<FrameView<'_>, String> {
    FrameView::parse(bytes).ok_or_else(|| "malformed frame".to_string())
}

/// The `N` integer words of `frame`, which must sit at `offset` on
/// `plane`.
fn words<const N: usize>(plane: u32, frame: &FrameView, offset: u32) -> Result<[i64; N], String> {
    let mut words = [0; N];
    if frame.tag == plane + offset && frame.integers_into(&mut words) {
        Ok(words)
    } else {
        Err(format!("expected {N}-word frame at offset {offset}"))
    }
}

/// A typed-value frame's kind wire code: the tag's low byte.
fn value_code(plane: u32, frame: &FrameView) -> Result<u8, String> {
    let code = frame
        .tag
        .checked_sub(plane + VALUE)
        .and_then(|b| u8::try_from(b).ok())
        .ok_or("bad value tag")?;
    match frame.dtype() {
        Some(_) => Ok(code),
        None => Err("value frame without payload".into()),
    }
}

/// A typed-value frame read back as a parameter value.
fn param_of(plane: u32, frame: &FrameView) -> Result<ParamValue, String> {
    let kind = ParamKind::from_byte(value_code(plane, frame)?).ok_or("bad value tag")?;
    ParamValue::from_visit(kind, frame).ok_or_else(|| "typed payload mismatch".into())
}

/// The `Str` payload of a one-frame request or reply.
fn text_of(frame: &FrameView) -> Result<String, String> {
    match frame.text() {
        Some(text) => Ok(text.to_string()),
        None => Err(format!("expected text frame at tag {:#x}", frame.tag)),
    }
}

/// The in-process hop on `plane`: a wire over a [`LoopLink`], so what it
/// sends it reads back.
fn hop(plane: u32, order: Endianness) -> VisitWire<LoopLink> {
    VisitWire::on(LoopLink::default(), plane, order, HOP_PATIENCE)
}

/// Steering over the VISIT wire protocol.
pub struct VisitEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    wire: VisitWire<LoopLink>,
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
    /// end, as the TCP server would, decoding it over the batch it was
    /// made from.
    fn round_trip(&mut self, commands: &mut Vec<SteerCommand>) -> Result<(), RecvError> {
        self.sent += 1;
        self.wire.send_batch(self.sent, commands)?;
        let wire = &mut self.wire;
        let words = words(wire.plane, &wire.recv()?, BEGIN)?;
        wire.batch_into(words, commands).map(drop)
    }
}

impl SteerEndpoint for VisitEndpoint {
    steer_endpoint_common!(hub_get);

    fn set_batch(&mut self, mut commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        self.round_trip(&mut commands)
            .map_err(|e| SteerError::Transport(e.to_string()))?;
        self.hub.stage(&self.origin, LABEL, commands)
    }
}

/// Monitoring over the VISIT wire protocol.
pub struct VisitMonitor {
    caps: MonitorCaps,
    wire: VisitWire<LoopLink>,
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
        wire.send_value(BEGIN, ValueRef::I64(&[chunk.len() as i64]))?;
        for f in chunk.iter() {
            wire.send_value(NAME, ValueRef::Str(f.payload.name()))?;
            let (shape, value) = encode_payload(&f.payload);
            let word = |n: u64| i64::try_from(n).map_err(|_| format!("{n} exceeds the I64 word"));
            let head = [word(f.seq)?, word(f.step)?, shape[0], shape[1], shape[2]];
            wire.send_value(HEAD, ValueRef::I64(&head))?;
            wire.send_value(VALUE + f.payload.kind() as u32, value)?;
        }
        wire.send_end()?;
        let plane = wire.plane;
        let [count] = words(plane, &wire.recv()?, BEGIN)?;
        let mut frames = Vec::new();
        wire.items(count, |wire, _, name| {
            let head: [i64; 5] = words(plane, &wire.recv()?, HEAD)?;
            let (Ok(seq), Ok(step)) = (u64::try_from(head[0]), u64::try_from(head[1])) else {
                return Err("malformed envelope: negative sequence or step".into());
            };
            let frame = wire.recv()?;
            let kind = MonitorKind::from_byte(value_code(plane, &frame)?).ok_or("bad value tag")?;
            let value = frame
                .value()
                .expect("value_code admits only a payload frame");
            let payload = decode_payload(kind, name.to_string(), &head[2..], value)
                .ok_or("typed payload mismatch")?;
            frames.push(MonitorFrame { seq, step, payload });
            Ok(())
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

/// Payload → shape words + typed value, the payload's data borrowed.
fn encode_payload<'a>(p: &'a MonitorPayload) -> ([i64; 3], ValueRef<'a>) {
    match p {
        MonitorPayload::Scalar { value, .. } => {
            ([0, 0, 0], ValueRef::F64(std::slice::from_ref(value)))
        }
        MonitorPayload::Vec3 { value, .. } => ([0, 0, 0], ValueRef::F64(value)),
        MonitorPayload::Grid2 { nx, ny, data, .. } => {
            ([*nx as i64, *ny as i64, 0], ValueRef::F32(data))
        }
        MonitorPayload::Grid3 {
            nx, ny, nz, data, ..
        } => ([*nx as i64, *ny as i64, *nz as i64], ValueRef::F32(data)),
        MonitorPayload::Frame {
            keyframe,
            raw_size,
            data,
            ..
        } => (
            [i64::from(*keyframe), *raw_size as i64, 0],
            ValueRef::Bytes(data),
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
        let wire = &mut self.wire;
        while wire.link.recv_into(Duration::ZERO, &mut wire.inbox).is_ok() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A steering-plane `BEGIN` announcing `count` items, then the
    /// envelope's end.
    fn announce(count: i64) -> Result<Option<Request>, RecvError> {
        let mut wire = hop(STEER, Endianness::native());
        wire.send_value(BEGIN, ValueRef::I64(&[count, 1])).unwrap();
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
                // the largest batch number the I64 word carries
                seq: i64::MAX as u64,
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
    fn a_batch_number_outside_the_i64_word_is_refused_at_both_ends() {
        let mut wire = hop(STEER, Endianness::native());
        let past = Request::Batch {
            seq: i64::MAX as u64 + 1,
            commands: vec![SteerCommand::f64("x", 0.5)],
        };
        let refusal = format!(
            "batch number {} exceeds wire limit {}",
            i64::MAX as u64 + 1,
            i64::MAX
        );
        assert_eq!(wire.send_request(&past), Err(refusal));
        assert_eq!(wire.recv_request(Duration::ZERO), Ok(None), "nothing sent");
        // a peer that writes -1 is refused, not read as batch u64::MAX
        wire.send_value(BEGIN, ValueRef::I64(&[0, -1])).unwrap();
        wire.send_end().unwrap();
        let refusal = "malformed envelope: batch number -1".to_string();
        assert_eq!(
            wire.recv_request(HOP_PATIENCE),
            Err(RecvError::Refused(refusal))
        );
        // the envelope was read whole: the wire is still in step
        let next = Request::Batch {
            seq: 1,
            commands: vec![SteerCommand::f64("x", 0.5)],
        };
        wire.send_request(&next).unwrap();
        assert_eq!(wire.recv_request(HOP_PATIENCE), Ok(Some(next)));
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
