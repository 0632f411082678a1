//! Snapshot codec helpers for the bus's checkpointable state.
//!
//! The per-type `save_sections` / `restore_sections` methods live with
//! their types ([`SteerHub`](crate::SteerHub),
//! [`MonitorHub`](crate::monitor::MonitorHub),
//! [`RelayHub`](crate::monitor::RelayHub) — their state is private
//! there); this module is the shared vocabulary they encode with.
//! [`ParamValue`], [`SteerCommand`] and [`MonitorFrame`] bodies reuse the
//! wire codecs verbatim, length-prefixed: each body is read in place
//! through its own [`SectionReader`], so a malformed body is a typed error
//! (a body that runs short names itself), never a desync of the outer
//! stream.

use crate::command::SteerCommand;
use crate::monitor::endpoint::MonitorCaps;
use crate::monitor::frame::{MonitorFrame, MonitorKind};
use crate::spec::{BoundsPolicy, ParamSpec};
use crate::value::{ParamKind, ParamValue};
use gridsteer_ckpt::{CkptError, SectionReader, SectionWriter};

/// Labels the live structs carry as `&'static str` ([`CommandBatch`]
/// transports, [`MonitorCaps`] transports). Restore interns a decoded
/// label back into this set; a label outside it (tests invent them
/// freely) is leaked once per distinct string — checkpoints are cut
/// rarely and the label vocabulary is finite, so the leak is bounded.
///
/// [`CommandBatch`]: crate::command::CommandBatch
const KNOWN_LABELS: [&str; 9] = [
    crate::loopback::LABEL,
    crate::visit::LABEL,
    crate::ogsa::LABEL,
    crate::covise::LABEL,
    crate::unicore::LABEL,
    "relay",
    "viewer",
    "client",
    "fold",
];

/// Intern a decoded transport label as a `&'static str`.
pub fn intern_label(label: &str) -> &'static str {
    KNOWN_LABELS
        .iter()
        .find(|k| **k == label)
        .copied()
        .unwrap_or_else(|| Box::leak(label.to_string().into_boxed_str()))
}

fn corrupt(what: &str) -> CkptError {
    CkptError::Corrupt {
        context: what.to_string(),
    }
}

/// Write a length-prefixed [`ParamValue`] in its tagged wire encoding.
pub fn put_value(w: &mut SectionWriter, v: &ParamValue) {
    w.put_body(|b| v.encode_bytes(b));
}

/// Read one length-prefixed body in place with `read`, through a reader
/// whose truncations name `what`; the body must be read to its end.
fn get_body<T>(
    r: &mut SectionReader<'_>,
    what: &str,
    read: impl FnOnce(&mut SectionReader<'_>) -> Result<T, CkptError>,
) -> Result<T, CkptError> {
    let len = r.get_u64()? as usize;
    let mut body = SectionReader::new(r.take(len)?, what);
    let v = read(&mut body)?;
    body.expect_end()?;
    Ok(v)
}

/// Read a `u16` count, then that many items, each with `item` given its
/// index — the framing of a UNICORE staged file. Returns the count. Items
/// are stored by `item` as they are read, so a count the bytes cannot
/// hold reserves nothing before it fails.
pub fn get_counted<'a>(
    r: &mut SectionReader<'a>,
    mut item: impl FnMut(&mut SectionReader<'a>, usize) -> Result<(), CkptError>,
) -> Result<usize, CkptError> {
    let count = usize::from(r.get_u16()?);
    for i in 0..count {
        item(r, i)?;
    }
    Ok(count)
}

/// Read back one [`put_value`] encoding.
pub fn get_value(r: &mut SectionReader<'_>, what: &str) -> Result<ParamValue, CkptError> {
    get_body(r, what, ParamValue::read)
}

/// Write a length-prefixed [`SteerCommand`] in its shared wire encoding.
/// Commands reaching a checkpoint were staged, and
/// [`SteerHub::stage`](crate::SteerHub::stage) admits no name the wire
/// cannot frame.
pub fn put_command(w: &mut SectionWriter, c: &SteerCommand) {
    w.put_body(|b| c.encode_bytes(b))
        .expect("a staged command's name fits the wire");
}

/// Read back one [`put_command`] encoding.
pub fn get_command(r: &mut SectionReader<'_>, what: &str) -> Result<SteerCommand, CkptError> {
    get_body(r, what, SteerCommand::read)
}

/// Write a length-prefixed [`MonitorFrame`] in the reference codec.
/// Frames reaching a checkpoint have already crossed a hub (which
/// validates on delivery), so the panicking encoder is safe here.
pub fn put_frame(w: &mut SectionWriter, f: &MonitorFrame) {
    w.put_bytes(&f.to_bytes());
}

/// Read back one [`put_frame`] encoding.
pub fn get_frame(
    r: &mut SectionReader<'_>,
    what: &str,
) -> Result<MonitorFrame<'static>, CkptError> {
    get_body(r, what, |b| {
        MonitorFrame::read(b).map(MonitorFrame::into_owned)
    })
}

/// Write a [`MonitorCaps`] (transport label, kind set, batch size,
/// decimation rate).
pub fn put_caps(w: &mut SectionWriter, c: &MonitorCaps) {
    w.put_str(c.transport);
    w.put_u32(c.kinds.len() as u32);
    for k in &c.kinds {
        w.put_u8(*k as u8);
    }
    w.put_u64(c.max_batch as u64);
    w.put_u32(c.deliver_every);
}

/// Read back one [`put_caps`] encoding.
pub fn get_caps(r: &mut SectionReader<'_>) -> Result<MonitorCaps, CkptError> {
    let transport = intern_label(&r.get_str()?);
    let nkinds = r.get_u32()?;
    let mut kinds = std::collections::BTreeSet::new();
    for _ in 0..nkinds {
        let b = r.get_u8()?;
        kinds.insert(MonitorKind::from_byte(b).ok_or_else(|| corrupt("caps kind byte"))?);
    }
    let max_batch = r.get_u64()? as usize;
    // every live constructor clamps the rate to >= 1 and the hub divides
    // by it, so a zero can only be a corrupt or hostile section
    let deliver_every = match r.get_u32()? {
        0 => return Err(corrupt("caps decimation rate of zero")),
        n => n,
    };
    Ok(MonitorCaps {
        transport,
        kinds,
        max_batch,
        deliver_every,
    })
}

/// Write a [`ParamSpec`] (name, kind, bounds, initial value, policy).
pub fn put_spec(w: &mut SectionWriter, s: &ParamSpec) {
    w.put_str(&s.name);
    w.put_u8(s.kind as u8);
    put_opt_f64(w, s.min);
    put_opt_f64(w, s.max);
    put_value(w, &s.initial);
    w.put_u8(match s.policy {
        BoundsPolicy::Reject => 0,
        BoundsPolicy::Clamp => 1,
    });
}

/// Read back one [`put_spec`] encoding.
pub fn get_spec(r: &mut SectionReader<'_>) -> Result<ParamSpec, CkptError> {
    let name = r.get_str()?;
    let kind = ParamKind::from_byte(r.get_u8()?).ok_or_else(|| corrupt("spec kind byte"))?;
    let min = get_opt_f64(r)?;
    let max = get_opt_f64(r)?;
    let initial = get_value(r, "spec initial value")?;
    let policy = match r.get_u8()? {
        0 => BoundsPolicy::Reject,
        1 => BoundsPolicy::Clamp,
        _ => return Err(corrupt("spec policy byte")),
    };
    Ok(ParamSpec {
        name,
        kind,
        min,
        max,
        initial,
        policy,
    })
}

fn put_opt_f64(w: &mut SectionWriter, v: Option<f64>) {
    w.put_bool(v.is_some());
    w.put_f64(v.unwrap_or(0.0));
}

fn get_opt_f64(r: &mut SectionReader<'_>) -> Result<Option<f64>, CkptError> {
    let some = r.get_bool()?;
    let v = r.get_f64()?;
    Ok(some.then_some(v))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::monitor::frame::MonitorPayload;
    use bytes::BytesMut;

    #[test]
    fn labels_intern_known_and_unknown() {
        for l in KNOWN_LABELS {
            assert_eq!(intern_label(l), l);
        }
        assert_eq!(intern_label("made-up"), "made-up");
    }

    #[test]
    fn value_and_command_roundtrip_with_corrupt_detection() {
        let vals = [
            ParamValue::F64(f64::NAN),
            ParamValue::I64(-7),
            ParamValue::Bool(true),
            ParamValue::Vec3([1.0, -0.0, f64::INFINITY]),
            ParamValue::Str("φ".into()),
        ];
        let mut w = SectionWriter::new();
        for v in &vals {
            put_value(&mut w, v);
        }
        put_command(&mut w, &SteerCommand::f64("gain", 0.5));
        let body = w.finish();
        let mut r = SectionReader::new(&body, "t");
        for v in &vals {
            let back = get_value(&mut r, "v").unwrap();
            // NaN != NaN under PartialEq; compare the rendering instead
            assert_eq!(back.render(), v.render());
        }
        assert_eq!(
            get_command(&mut r, "c").unwrap(),
            SteerCommand::f64("gain", 0.5)
        );
        r.expect_end().unwrap();
        // a truncated inner body is a typed error naming the body, not a
        // panic or a desync
        let mut w = SectionWriter::new();
        w.put_bytes(&[1, 2]);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "t");
        assert_eq!(
            get_value(&mut r, "v"),
            Err(CkptError::Truncated {
                context: "v".into(),
                needed: 8,
                have: 1
            })
        );
    }

    #[test]
    fn caps_spec_and_frame_roundtrip() {
        let mut caps = MonitorCaps::full("visit", 32).every(3);
        caps.kinds.remove(&MonitorKind::Frame);
        let spec = ParamSpec::vec3("beam_dir", -1.0, 1.0, [1.0, 0.0, 0.0]);
        let frame = MonitorFrame {
            seq: 9,
            step: 4,
            payload: MonitorPayload::grid2("g", 2, 1, vec![0.5, -0.5]),
        };
        let mut w = SectionWriter::new();
        put_caps(&mut w, &caps);
        put_spec(&mut w, &spec);
        put_frame(&mut w, &frame);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "t");
        assert_eq!(get_caps(&mut r).unwrap(), caps);
        assert_eq!(get_spec(&mut r).unwrap(), spec);
        assert_eq!(get_frame(&mut r, "f").unwrap(), frame);
        r.expect_end().unwrap();
    }

    /// `read` over the front of `bytes`, and the count of bytes it took.
    pub(crate) fn front<'b, T>(
        bytes: &'b [u8],
        read: impl FnOnce(&mut SectionReader<'b>) -> Result<T, CkptError>,
    ) -> Result<(T, usize), CkptError> {
        let mut r = SectionReader::new(bytes, "front");
        let v = read(&mut r)?;
        Ok((v, bytes.len() - r.remaining()))
    }

    #[test]
    fn decoder_sweep_over_every_bus_codec() {
        use gridsteer_testkit::sweep_decoder;
        let put_value = |v: &ParamValue| {
            let mut out = BytesMut::new();
            v.encode_bytes(&mut out);
            out.to_vec()
        };
        let vec3 = ParamValue::Vec3([1.0, f64::NAN, -0.0]);
        for v in [vec3, ParamValue::Str("φ".into()), ParamValue::Bool(true)] {
            sweep_decoder(&put_value(&v), |b| front(b, ParamValue::read), put_value);
        }
        let put_command = |c: &SteerCommand| {
            let mut out = BytesMut::new();
            c.encode_bytes(&mut out).unwrap();
            out.to_vec()
        };
        let cmd = SteerCommand::new("beam_dir", ParamValue::I64(-3));
        sweep_decoder(
            &put_command(&cmd),
            |b| front(b, SteerCommand::read),
            put_command,
        );
        let frames = [
            MonitorFrame {
                seq: 3,
                step: 9,
                payload: MonitorPayload::grid3_borrowed(
                    "phi",
                    2,
                    1,
                    2,
                    &[0.5, f32::NAN, -1.0, 2.0],
                )
                .into_owned(),
            },
            MonitorFrame {
                seq: 4,
                step: 9,
                payload: MonitorPayload::frame("viz", true, 64, vec![1, 255, 0]),
            },
        ];
        let read_frame = |b: &[u8]| {
            let (f, used) = front(b, MonitorFrame::read)?;
            Ok::<_, CkptError>((f.into_owned(), used))
        };
        for f in &frames {
            sweep_decoder(&f.to_bytes(), read_frame, MonitorFrame::to_bytes);
        }
        // the UNICORE staged files: a counted run of either, each item
        // kept as its own encoding
        let staged = |items: &Vec<Vec<u8>>| {
            let mut out = Vec::new();
            crate::unicore::begin_payload(&mut out, items.len()).unwrap();
            items.iter().for_each(|i| out.extend_from_slice(i));
            out
        };
        let steer_file = |b: &[u8]| {
            let item = |r: &mut SectionReader<'_>| SteerCommand::read(r).map(|c| put_command(&c));
            Ok::<_, CkptError>((
                crate::unicore::decode_payload("steer.cmd", b, item)?,
                b.len(),
            ))
        };
        sweep_decoder(&staged(&vec![put_command(&cmd); 2]), steer_file, staged);
        let monitor_file = |b: &[u8]| {
            let item = |r: &mut SectionReader<'_>| MonitorFrame::read(r).map(|f| f.to_bytes());
            Ok::<_, CkptError>((crate::unicore::decode_payload("m.dat", b, item)?, b.len()))
        };
        let frames = frames.iter().map(MonitorFrame::to_bytes).collect();
        sweep_decoder(&staged(&frames), monitor_file, staged);
    }

    #[test]
    fn unbounded_spec_bounds_roundtrip_as_none() {
        let spec = ParamSpec::text("site", "london");
        let mut w = SectionWriter::new();
        put_spec(&mut w, &spec);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "t");
        let back = get_spec(&mut r).unwrap();
        assert_eq!(back.min, None);
        assert_eq!(back.max, None);
        assert_eq!(back, spec);
    }
}
