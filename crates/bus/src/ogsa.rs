//! The OGSA middleware, both planes: batches and frames travel as
//! Grid-service invocations.
//!
//! Each endpoint hosts its service half — a [`BusSteeringService`] or a
//! [`MonitorFeedService`] — in a real [`HostingEnv`], publishes it in the
//! Figure-2 [`Registry`] under the service's port type, and discovers it
//! back (the client "chooses the services it will require and binds
//! them", §2.3). From then on everything is an operation on the bound
//! handle:
//!
//! * steering: every batch is one `setBatch` whose arguments are typed
//!   [`SdeValue`]s — floats and integers natively, booleans as SDE
//!   booleans, vectors as canonical-text component lists (the XML-ish
//!   text encoding OGSI services actually used, with shortest-round-trip
//!   float formatting so nothing is lost);
//! * monitoring: deliveries are `publishFrames` operations whose
//!   arguments carry the tagged binary frame encoding as hex text (the
//!   same XML-ish treatment for opaque payloads), and the viewer side
//!   *pulls* with a `pullFrames` round trip — OGSA serves monitored
//!   output on request rather than streaming it, so one invoke returns
//!   everything published since the last poll.
//!
//! What the monitor hop validates: `publishFrames` takes a call only if
//! *every* argument is text, un-hexes (even length, hex digits of either
//! case) and decodes as exactly one frame with no byte left over —
//! otherwise the whole call faults and nothing is buffered. The service
//! checks with [`MonitorFrame::decode_borrowed`] over one scratch buffer
//! it reuses and keeps the hex text it was handed; the viewer's
//! `pullFrames` un-hexes and decodes again, strictly, into the frames it
//! owns. The steering hop validates shape: `setBatch` faults on any
//! argument triple that is not (name text, known kind, payload of that
//! kind).

use crate::command::{SteerCommand, SteerError};
use crate::endpoint::{check_batch, steer_endpoint_common, Capabilities, SteerEndpoint};
use crate::hub::SteerHub;
use crate::monitor::endpoint::{
    check_delivery, monitor_endpoint_common, FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError,
};
use crate::monitor::frame::MonitorFrame;
use crate::value::{ParamKind, ParamValue};
use ogsa::{GridService, Gsh, HostingEnv, InvokeResult, Registry, SdeValue, ServiceData};
use parking_lot::Mutex;

/// The transport label on both planes.
pub const LABEL: &str = "ogsa";

/// A hosted service bound through the registry: the client half both
/// planes share.
struct Binding {
    /// The hosting environment (locked so reads work through `&self`).
    env: Mutex<HostingEnv>,
    gsh: Gsh,
}

impl Binding {
    /// The Figure-2 client flow: host `service` as `name` beside a
    /// registry, publish it under `port_type` for `origin`, discover it
    /// back by port type, and bind the handle.
    fn host(name: &str, service: Box<dyn GridService>, port_type: &str, origin: &str) -> Binding {
        let mut env = HostingEnv::new();
        let hosted = env.host(name, service, None);
        let registry = env.host("registry", Box::new(Registry::new()), None);
        let _ = env.invoke(
            &registry,
            "publish",
            &[
                SdeValue::Str(hosted.clone()),
                SdeValue::Str(port_type.into()),
                SdeValue::Str(origin.into()),
            ],
        );
        let gsh = env
            .invoke(&registry, "discover", &[SdeValue::Str(port_type.into())])
            .ok()
            .and_then(|r| {
                r.first()
                    .and_then(|v| v.as_list().and_then(|l| l.first().cloned()))
            })
            .unwrap_or(hosted);
        Binding {
            env: Mutex::new(env),
            gsh,
        }
    }

    /// One operation on the bound service — a real service round trip —
    /// with a fault or a hosting error mapped to its text.
    fn invoke(&self, op: &str, args: &[SdeValue]) -> Result<Vec<SdeValue>, String> {
        match self.env.lock().invoke(&self.gsh, op, args) {
            Ok(InvokeResult::Ok(out)) => Ok(out),
            Ok(InvokeResult::Fault(f)) => Err(f),
            Err(e) => Err(format!("{e:?}")),
        }
    }
}

/// Encode one typed value as service-operation arguments (kind tag +
/// payload).
fn to_sde(value: &ParamValue) -> (SdeValue, SdeValue) {
    let kind = SdeValue::Str(value.kind().name().to_string());
    let payload = match value {
        ParamValue::F64(v) => SdeValue::F64(*v),
        ParamValue::I64(v) => SdeValue::I64(*v),
        ParamValue::Bool(b) => SdeValue::Bool(*b),
        ParamValue::Vec3([x, y, z]) => {
            SdeValue::List(vec![format!("{x:?}"), format!("{y:?}"), format!("{z:?}")])
        }
        ParamValue::Str(s) => SdeValue::Str(s.clone()),
    };
    (kind, payload)
}

/// Decode service-operation arguments back into a typed value. Strict:
/// any shape mismatch is a fault, never a guess.
pub(crate) fn from_sde(kind: &SdeValue, payload: &SdeValue) -> Option<ParamValue> {
    let kind = match kind {
        SdeValue::Str(s) => *ParamKind::ALL.iter().find(|k| k.name() == s)?,
        _ => return None,
    };
    Some(match (kind, payload) {
        (ParamKind::F64, SdeValue::F64(v)) => ParamValue::F64(*v),
        (ParamKind::I64, SdeValue::I64(v)) => ParamValue::I64(*v),
        (ParamKind::Bool, SdeValue::Bool(b)) => ParamValue::Bool(*b),
        (ParamKind::Vec3, SdeValue::List(c)) if c.len() == 3 => {
            ParamValue::Vec3([c[0].parse().ok()?, c[1].parse().ok()?, c[2].parse().ok()?])
        }
        (ParamKind::Str, SdeValue::Str(s)) => ParamValue::Str(s.clone()),
        _ => return None,
    })
}

/// The hosted steering service: a [`GridService`] staging decoded batches
/// into the hub.
pub struct BusSteeringService {
    hub: SteerHub,
    origin: String,
    batches_staged: u64,
}

impl BusSteeringService {
    /// The port type published to the registry.
    pub const PORT_TYPE: &'static str = "gridsteer:bus-steering";

    /// A service staging batches for `origin`.
    pub fn new(hub: &SteerHub, origin: &str) -> BusSteeringService {
        BusSteeringService {
            hub: hub.clone(),
            origin: origin.to_string(),
            batches_staged: 0,
        }
    }

    /// The session's parameter names, as an SDE list.
    fn param_names(&self) -> SdeValue {
        SdeValue::List(self.hub.describe().into_iter().map(|s| s.name).collect())
    }
}

impl GridService for BusSteeringService {
    fn port_types(&self) -> Vec<String> {
        vec![Self::PORT_TYPE.to_string()]
    }

    fn service_data(&self) -> ServiceData {
        let mut sd = ServiceData::new();
        sd.set("origin", SdeValue::Str(self.origin.clone()));
        sd.set("paramNames", self.param_names());
        sd.set("batchesStaged", SdeValue::I64(self.batches_staged as i64));
        sd
    }

    fn invoke(&mut self, op: &str, args: &[SdeValue]) -> InvokeResult {
        match op {
            "describe" => InvokeResult::Ok(vec![self.param_names()]),
            "getParam" => {
                let Some(name) = args.first().and_then(SdeValue::as_str) else {
                    return InvokeResult::Fault("getParam needs (name)".into());
                };
                match self.hub.get(name) {
                    Some(v) => {
                        let (kind, payload) = to_sde(&v);
                        InvokeResult::Ok(vec![kind, payload])
                    }
                    None => InvokeResult::Fault(format!("unknown parameter: {name}")),
                }
            }
            "setBatch" => {
                if args.is_empty() || !args.len().is_multiple_of(3) {
                    return InvokeResult::Fault("setBatch needs (name, kind, value)+".into());
                }
                let mut commands = Vec::with_capacity(args.len() / 3);
                for triple in args.chunks_exact(3) {
                    let (Some(name), Some(value)) =
                        (triple[0].as_str(), from_sde(&triple[1], &triple[2]))
                    else {
                        return InvokeResult::Fault("setBatch: malformed triple".into());
                    };
                    commands.push(SteerCommand::new(name, value));
                }
                match self.hub.stage(&self.origin, LABEL, commands) {
                    Ok(seq) => {
                        self.batches_staged += 1;
                        InvokeResult::Ok(vec![SdeValue::I64(seq as i64)])
                    }
                    Err(e) => InvokeResult::Fault(e.to_string()),
                }
            }
            other => ogsa::service::unknown_op(other),
        }
    }
}

/// Steering through the OGSA hosting environment.
pub struct OgsaEndpoint {
    hub: SteerHub,
    origin: String,
    caps: Capabilities,
    service: Binding,
}

impl OgsaEndpoint {
    /// Attach to a hub as `origin`: host the service, publish it in a
    /// registry, discover it back, and bind to the handle.
    pub fn attach(hub: &SteerHub, origin: &str) -> OgsaEndpoint {
        OgsaEndpoint {
            hub: hub.clone(),
            origin: origin.to_string(),
            caps: Capabilities::full(LABEL, 128),
            service: Binding::host(
                "bus-steer",
                Box::new(BusSteeringService::new(hub, origin)),
                BusSteeringService::PORT_TYPE,
                origin,
            ),
        }
    }
}

impl SteerEndpoint for OgsaEndpoint {
    steer_endpoint_common!();

    fn get(&self, name: &str) -> Option<ParamValue> {
        // a real service round-trip, not a hub read
        match self
            .service
            .invoke("getParam", &[SdeValue::Str(name.into())])
        {
            Ok(out) if out.len() == 2 => from_sde(&out[0], &out[1]),
            _ => None,
        }
    }

    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError> {
        check_batch(&self.caps, &commands)?;
        let mut args = Vec::with_capacity(commands.len() * 3);
        for cmd in &commands {
            let (kind, payload) = to_sde(&cmd.value);
            args.push(SdeValue::Str(cmd.param.clone()));
            args.push(kind);
            args.push(payload);
        }
        let out = self
            .service
            .invoke("setBatch", &args)
            .map_err(SteerError::Transport)?;
        match out.first().and_then(SdeValue::as_i64) {
            Some(seq) if seq > 0 => Ok(seq as u64),
            _ => Err(SteerError::Transport("setBatch returned no seq".into())),
        }
    }
}

/// Both lowercase hex digits of every byte value (this codec is the
/// per-frame hot path of the OGSA hop — one table lookup per byte, no
/// formatter machinery).
const HEX: [[u8; 2]; 256] = {
    let digits = b"0123456789abcdef";
    let mut table = [[0u8; 2]; 256];
    let mut b = 0;
    while b < 256 {
        table[b] = [digits[b >> 4], digits[b & 0x0f]];
        b += 1;
    }
    table
};

/// Marks a byte that is not a hex digit in [`UNHEX`]: no digit's value
/// has a high nibble, so OR-ing looked-up values keeps the mark.
const NOT_HEX: u8 = 0xff;

/// Every byte's value as a hex digit of either case, or [`NOT_HEX`].
const UNHEX: [u8; 256] = {
    let mut table = [NOT_HEX; 256];
    let mut d = 0u8;
    while d < 16 {
        if d < 10 {
            table[(b'0' + d) as usize] = d;
        } else {
            table[(b'a' + d - 10) as usize] = d;
            table[(b'A' + d - 10) as usize] = d;
        }
        d += 1;
    }
    table
};

/// Lowercase hex encoding of a frame's binary form.
pub(crate) fn to_hex(bytes: &[u8]) -> String {
    let mut s = vec![0u8; bytes.len() * 2];
    for (pair, &b) in s.chunks_exact_mut(2).zip(bytes) {
        pair.copy_from_slice(&HEX[b as usize]);
    }
    // the table emits only ASCII hex digits
    String::from_utf8(s).expect("hex is ASCII")
}

/// Inverse of [`to_hex`], replacing the contents of `out`. `None` (and
/// `out` unspecified) on an odd length or any byte that is not a hex
/// digit.
pub(crate) fn from_hex(s: &str, out: &mut Vec<u8>) -> Option<()> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return None;
    }
    out.clear();
    let mut seen = 0u8;
    out.extend(bytes.chunks_exact(2).map(|pair| {
        let (hi, lo) = (UNHEX[pair[0] as usize], UNHEX[pair[1] as usize]);
        seen |= hi | lo;
        (hi << 4) | (lo & 0x0f)
    }));
    (seen & 0xf0 == 0).then_some(())
}

/// One hexed frame argument → the frame, consumed exactly and borrowing
/// from `scratch`, which takes the un-hexed bytes. `None` on any
/// malformation.
fn frame_from_hex<'s>(hex: &str, scratch: &'s mut Vec<u8>) -> Option<MonitorFrame<'s>> {
    from_hex(hex, scratch)?;
    let mut slice: &[u8] = scratch;
    let frame = MonitorFrame::decode_borrowed(&mut slice)?;
    slice.is_empty().then_some(frame)
}

/// The hosted monitor service: a [`GridService`] buffering published
/// frames until a viewer pulls them.
pub struct MonitorFeedService {
    origin: String,
    /// Published frames, each validated on the way in and kept in the
    /// hex form it is served back out in.
    pending: Vec<String>,
    frames_served: u64,
    /// Un-hexed bytes of the argument under validation, reused across
    /// arguments and calls.
    scratch: Vec<u8>,
}

impl MonitorFeedService {
    /// The port type published to the registry.
    pub const PORT_TYPE: &'static str = "gridsteer:monitor-feed";

    /// A feed service for `origin`.
    pub fn new(origin: &str) -> MonitorFeedService {
        MonitorFeedService {
            origin: origin.to_string(),
            pending: Vec::new(),
            frames_served: 0,
            scratch: Vec::new(),
        }
    }
}

impl GridService for MonitorFeedService {
    fn port_types(&self) -> Vec<String> {
        vec![Self::PORT_TYPE.to_string()]
    }

    fn service_data(&self) -> ServiceData {
        let mut sd = ServiceData::new();
        sd.set("origin", SdeValue::Str(self.origin.clone()));
        sd.set("pendingFrames", SdeValue::I64(self.pending.len() as i64));
        sd.set("framesServed", SdeValue::I64(self.frames_served as i64));
        sd
    }

    fn invoke(&mut self, op: &str, args: &[SdeValue]) -> InvokeResult {
        match op {
            "publishFrames" => {
                if args.is_empty() {
                    return InvokeResult::Fault("publishFrames needs (hexFrame)+".into());
                }
                // all or nothing: every argument must un-hex and decode
                // as exactly one frame before any of them is buffered
                let scratch = &mut self.scratch;
                let well_formed = |arg: &SdeValue| {
                    arg.as_str()
                        .is_some_and(|hex| frame_from_hex(hex, scratch).is_some())
                };
                if !args.iter().all(well_formed) {
                    return InvokeResult::Fault("malformed frame payload".into());
                }
                self.pending
                    .extend(args.iter().filter_map(SdeValue::as_str).map(String::from));
                InvokeResult::Ok(vec![SdeValue::I64(args.len() as i64)])
            }
            "pullFrames" => {
                let drained = std::mem::take(&mut self.pending);
                self.frames_served += drained.len() as u64;
                InvokeResult::Ok(vec![SdeValue::List(drained)])
            }
            other => ogsa::service::unknown_op(other),
        }
    }
}

/// Monitoring through the OGSA hosting environment.
pub struct OgsaMonitor {
    caps: MonitorCaps,
    service: Binding,
}

impl OgsaMonitor {
    /// A fresh endpoint: host the feed service, publish it in a registry,
    /// discover it back, and bind to the handle.
    pub fn new(origin: &str) -> OgsaMonitor {
        OgsaMonitor {
            caps: MonitorCaps::full(LABEL, 128),
            service: Binding::host(
                "monitor-feed",
                Box::new(MonitorFeedService::new(origin)),
                MonitorFeedService::PORT_TYPE,
                origin,
            ),
        }
    }
}

impl MonitorEndpoint for OgsaMonitor {
    monitor_endpoint_common!();

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        check_delivery(&self.caps, chunk)?;
        // hex each frame's canonical bytes out of the publish-wide shared
        // encode cache: the binary serialization happens once per
        // publish, not once per subscriber
        let mut args: Vec<SdeValue> = Vec::with_capacity(chunk.len());
        for i in 0..chunk.len() {
            args.push(SdeValue::Str(to_hex(&chunk.frame_bytes(i)?)));
        }
        let out = self
            .service
            .invoke("publishFrames", &args)
            .map_err(MonitorError::Transport)?;
        match out.first().and_then(SdeValue::as_i64) {
            Some(n) if n as usize == args.len() => Ok(n as usize),
            _ => Err(MonitorError::Transport(
                "publishFrames count mismatch".into(),
            )),
        }
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        // pull everything the service has buffered: a real service round
        // trip, so nothing waits on the viewer side between polls
        let pulled = self.service.invoke("pullFrames", &[]).unwrap_or_default();
        let hexes = pulled.first().and_then(SdeValue::as_list).unwrap_or(&[]);
        let mut scratch = Vec::new();
        hexes
            .iter()
            .filter_map(|hex| frame_from_hex(hex, &mut scratch).map(MonitorFrame::into_owned))
            .collect()
    }

    fn close(&mut self) {
        // a final service round trip drains whatever the feed buffered
        // for this viewer — the hosted service must not keep accumulating
        // for a departed subscriber
        let _ = self.service.invoke("pullFrames", &[]);
    }
}
