//! Typed monitored-output frames and their tagged binary codec.
//!
//! [`MonitorFrame`] is the data-plane mirror of the steering
//! [`SteerCommand`](crate::SteerCommand): where steering carries *requests
//! into* the simulation, a monitor frame carries *results out* to viewers.
//! Frames are sequence-numbered by the [`MonitorHub`](crate::MonitorHub)
//! and stamped with the simulation step they were emitted at, so any
//! viewer on any transport can order, decimate, and gap-detect the stream
//! it receives.
//!
//! The payload kinds cover the paper's output shapes: scalar series
//! points and 3-vectors (diagnostics like the demix metric or the PEPC
//! beam centroid), dense 2-D/3-D field slices (the order-parameter lattice
//! the Figure-1 pipeline ships to the isosurface stage), and encoded
//! framebuffer frames (the VizServer compressed-bitmap path). The tagged
//! binary codec here is the reference encoding — the UNICORE staged-file
//! and OGSA service adapters ride it directly; VISIT and COVISE re-express
//! payloads in their own native machinery and must round-trip losslessly
//! (floats travel as raw bits, so NaN-filled grids survive bit-exactly).

use crate::log::fnv1a;
use bytes::BufMut;
use gridsteer_ckpt::{CkptError, SectionReader};
use std::borrow::Cow;

/// A frame that cannot be represented in the tagged binary codec. Before
/// these were typed, oversized inputs were silently truncated by the
/// `as u16`/`as u32` length casts — corrupting the stream framing for
/// every frame that followed. Encoding now refuses instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameCodecError {
    /// The channel name exceeds the codec's u16 length field.
    NameTooLong {
        /// Offending name length in bytes.
        len: usize,
    },
    /// An encoded-frame payload exceeds the codec's u32 length field.
    DataTooLong {
        /// Offending payload length in bytes.
        len: usize,
    },
    /// A grid payload's data length disagrees with its declared dims
    /// (`nx * ny [* nz]`), so the decoder would mis-frame everything
    /// after it. Constructors enforce the shape; this catches payloads
    /// built by hand.
    GridShapeMismatch {
        /// `nx * ny [* nz]` as declared (`None` if the product itself
        /// overflows `usize`).
        expected: Option<usize>,
        /// Actual data length.
        len: usize,
    },
}

impl std::fmt::Display for FrameCodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameCodecError::NameTooLong { len } => write!(
                f,
                "channel name of {len} bytes exceeds the codec's u16 length field"
            ),
            FrameCodecError::DataTooLong { len } => write!(
                f,
                "frame payload of {len} bytes exceeds the codec's u32 length field"
            ),
            FrameCodecError::GridShapeMismatch { expected, len } => match expected {
                Some(e) => write!(f, "grid data length {len} != declared shape {e}"),
                None => write!(f, "grid shape overflows the codec ({len} values)"),
            },
        }
    }
}

impl std::error::Error for FrameCodecError {}

/// The declared payload kind of a monitor frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum MonitorKind {
    /// One scalar series point.
    Scalar = 1,
    /// One 3-component vector sample.
    Vec3 = 2,
    /// A dense 2-D `f32` field slice.
    Grid2 = 3,
    /// A dense 3-D `f32` field.
    Grid3 = 4,
    /// An encoded framebuffer frame (viz codec output).
    Frame = 5,
}

impl MonitorKind {
    /// All kinds, in wire-code order.
    pub const ALL: [MonitorKind; 5] = [
        MonitorKind::Scalar,
        MonitorKind::Vec3,
        MonitorKind::Grid2,
        MonitorKind::Grid3,
        MonitorKind::Frame,
    ];

    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Option<MonitorKind> {
        Some(match b {
            1 => MonitorKind::Scalar,
            2 => MonitorKind::Vec3,
            3 => MonitorKind::Grid2,
            4 => MonitorKind::Grid3,
            5 => MonitorKind::Frame,
            _ => return None,
        })
    }

    /// Stable lowercase name (capability sets, attach lines).
    pub fn name(self) -> &'static str {
        match self {
            MonitorKind::Scalar => "scalar",
            MonitorKind::Vec3 => "vec3",
            MonitorKind::Grid2 => "grid2",
            MonitorKind::Grid3 => "grid3",
            MonitorKind::Frame => "frame",
        }
    }
}

/// One typed monitored-output payload.
///
/// Names and bulk data are [`Cow`]s: the owning form (`'static`, what the
/// plain constructors build) behaves exactly as before, while the
/// `*_borrowed` constructors wrap the simulation's own buffers without
/// copying — the zero-copy publish path. A borrowed payload crossing into
/// storage calls [`into_owned`](MonitorPayload::into_owned).
#[derive(Debug, Clone, PartialEq)]
pub enum MonitorPayload<'a> {
    /// A scalar series point (named channel).
    Scalar {
        /// Channel name.
        name: Cow<'a, str>,
        /// Sample value.
        value: f64,
    },
    /// A 3-component vector sample (named channel).
    Vec3 {
        /// Channel name.
        name: Cow<'a, str>,
        /// Sample value.
        value: [f64; 3],
    },
    /// A dense 2-D field slice, row-major (`x` fastest).
    Grid2 {
        /// Channel name.
        name: Cow<'a, str>,
        /// Width.
        nx: u32,
        /// Height.
        ny: u32,
        /// `nx * ny` values.
        data: Cow<'a, [f32]>,
    },
    /// A dense 3-D field, x-fastest layout.
    Grid3 {
        /// Channel name.
        name: Cow<'a, str>,
        /// X extent.
        nx: u32,
        /// Y extent.
        ny: u32,
        /// Z extent.
        nz: u32,
        /// `nx * ny * nz` values.
        data: Cow<'a, [f32]>,
    },
    /// An encoded framebuffer frame (the viz delta+RLE codec output).
    Frame {
        /// Channel name (render session label).
        name: Cow<'a, str>,
        /// True if decodable without history.
        keyframe: bool,
        /// Uncompressed size in bytes.
        raw_size: u32,
        /// Codec payload.
        data: Cow<'a, [u8]>,
    },
}

impl MonitorPayload<'static> {
    /// Scalar-channel constructor.
    pub fn scalar(name: &str, value: f64) -> MonitorPayload<'static> {
        MonitorPayload::Scalar {
            name: Cow::Owned(name.to_string()),
            value,
        }
    }

    /// Vector-channel constructor.
    pub fn vec3(name: &str, value: [f64; 3]) -> MonitorPayload<'static> {
        MonitorPayload::Vec3 {
            name: Cow::Owned(name.to_string()),
            value,
        }
    }

    /// 2-D slice constructor. Panics if `data.len() != nx * ny`.
    pub fn grid2(name: &str, nx: u32, ny: u32, data: Vec<f32>) -> MonitorPayload<'static> {
        assert_eq!(
            data.len(),
            nx as usize * ny as usize,
            "grid2 shape mismatch"
        );
        MonitorPayload::Grid2 {
            name: Cow::Owned(name.to_string()),
            nx,
            ny,
            data: Cow::Owned(data),
        }
    }

    /// Encoded-frame constructor.
    pub fn frame(
        name: &str,
        keyframe: bool,
        raw_size: u32,
        data: Vec<u8>,
    ) -> MonitorPayload<'static> {
        MonitorPayload::Frame {
            name: Cow::Owned(name.to_string()),
            keyframe,
            raw_size,
            data: Cow::Owned(data),
        }
    }
}

impl<'a> MonitorPayload<'a> {
    /// Zero-copy 2-D slice constructor: borrows the producer's buffer for
    /// the duration of the publish. Panics if `data.len() != nx * ny`.
    pub fn grid2_borrowed(name: &'a str, nx: u32, ny: u32, data: &'a [f32]) -> MonitorPayload<'a> {
        assert_eq!(
            data.len(),
            nx as usize * ny as usize,
            "grid2 shape mismatch"
        );
        MonitorPayload::Grid2 {
            name: Cow::Borrowed(name),
            nx,
            ny,
            data: Cow::Borrowed(data),
        }
    }

    /// Zero-copy 3-D field constructor. Panics if
    /// `data.len() != nx * ny * nz`.
    pub fn grid3_borrowed(
        name: &'a str,
        nx: u32,
        ny: u32,
        nz: u32,
        data: &'a [f32],
    ) -> MonitorPayload<'a> {
        assert_eq!(
            data.len(),
            nx as usize * ny as usize * nz as usize,
            "grid3 shape mismatch"
        );
        MonitorPayload::Grid3 {
            name: Cow::Borrowed(name),
            nx,
            ny,
            nz,
            data: Cow::Borrowed(data),
        }
    }

    /// The payload's kind tag.
    pub fn kind(&self) -> MonitorKind {
        match self {
            MonitorPayload::Scalar { .. } => MonitorKind::Scalar,
            MonitorPayload::Vec3 { .. } => MonitorKind::Vec3,
            MonitorPayload::Grid2 { .. } => MonitorKind::Grid2,
            MonitorPayload::Grid3 { .. } => MonitorKind::Grid3,
            MonitorPayload::Frame { .. } => MonitorKind::Frame,
        }
    }

    /// Channel name.
    pub fn name(&self) -> &str {
        match self {
            MonitorPayload::Scalar { name, .. }
            | MonitorPayload::Vec3 { name, .. }
            | MonitorPayload::Grid2 { name, .. }
            | MonitorPayload::Grid3 { name, .. }
            | MonitorPayload::Frame { name, .. } => name,
        }
    }

    /// Detach from any borrowed buffers (copying them if still borrowed).
    pub fn into_owned(self) -> MonitorPayload<'static> {
        match self {
            MonitorPayload::Scalar { name, value } => MonitorPayload::Scalar {
                name: Cow::Owned(name.into_owned()),
                value,
            },
            MonitorPayload::Vec3 { name, value } => MonitorPayload::Vec3 {
                name: Cow::Owned(name.into_owned()),
                value,
            },
            MonitorPayload::Grid2 { name, nx, ny, data } => MonitorPayload::Grid2 {
                name: Cow::Owned(name.into_owned()),
                nx,
                ny,
                data: Cow::Owned(data.into_owned()),
            },
            MonitorPayload::Grid3 {
                name,
                nx,
                ny,
                nz,
                data,
            } => MonitorPayload::Grid3 {
                name: Cow::Owned(name.into_owned()),
                nx,
                ny,
                nz,
                data: Cow::Owned(data.into_owned()),
            },
            MonitorPayload::Frame {
                name,
                keyframe,
                raw_size,
                data,
            } => MonitorPayload::Frame {
                name: Cow::Owned(name.into_owned()),
                keyframe,
                raw_size,
                data: Cow::Owned(data.into_owned()),
            },
        }
    }
}

/// One sequence-numbered monitored-output frame, emitted at a simulation
/// step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorFrame<'a> {
    /// Hub-assigned monotone sequence number (global emission order).
    pub seq: u64,
    /// Simulation step the payload was sampled at.
    pub step: u64,
    /// The typed payload.
    pub payload: MonitorPayload<'a>,
}

impl<'a> MonitorFrame<'a> {
    /// Detach from any borrowed buffers (copying them if still borrowed).
    pub fn into_owned(self) -> MonitorFrame<'static> {
        MonitorFrame {
            seq: self.seq,
            step: self.step,
            payload: self.payload.into_owned(),
        }
    }

    /// Check that this frame fits the codec's length fields. `Ok(())`
    /// guarantees [`encode_bytes`](MonitorFrame::encode_bytes) succeeds.
    pub fn validate(&self) -> Result<(), FrameCodecError> {
        let name = self.payload.name();
        if name.len() > u16::MAX as usize {
            return Err(FrameCodecError::NameTooLong { len: name.len() });
        }
        match &self.payload {
            MonitorPayload::Scalar { .. } | MonitorPayload::Vec3 { .. } => Ok(()),
            MonitorPayload::Grid2 { nx, ny, data, .. } => {
                let expected = (*nx as usize).checked_mul(*ny as usize);
                if expected == Some(data.len()) {
                    Ok(())
                } else {
                    Err(FrameCodecError::GridShapeMismatch {
                        expected,
                        len: data.len(),
                    })
                }
            }
            MonitorPayload::Grid3 {
                nx, ny, nz, data, ..
            } => {
                let expected = (*nx as usize)
                    .checked_mul(*ny as usize)
                    .and_then(|p| p.checked_mul(*nz as usize));
                if expected == Some(data.len()) {
                    Ok(())
                } else {
                    Err(FrameCodecError::GridShapeMismatch {
                        expected,
                        len: data.len(),
                    })
                }
            }
            MonitorPayload::Frame { data, .. } => {
                if data.len() > u32::MAX as usize {
                    Err(FrameCodecError::DataTooLong { len: data.len() })
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Encode into the tagged binary form (little-endian; floats as raw
    /// bits, so NaN payloads are preserved exactly). Refuses frames the
    /// length fields cannot represent — the old `as u16`/`as u32` casts
    /// silently wrapped, corrupting the stream framing for every frame
    /// that followed.
    pub fn encode_bytes(&self, out: &mut impl BufMut) -> Result<(), FrameCodecError> {
        self.validate()?;
        out.put_u64_le(self.seq);
        out.put_u64_le(self.step);
        out.put_u8(self.payload.kind() as u8);
        let name = self.payload.name();
        out.put_u16_le(name.len() as u16);
        out.put_slice(name.as_bytes());
        match &self.payload {
            MonitorPayload::Scalar { value, .. } => out.put_u64_le(value.to_bits()),
            MonitorPayload::Vec3 { value, .. } => {
                for c in value {
                    out.put_u64_le(c.to_bits());
                }
            }
            MonitorPayload::Grid2 { nx, ny, data, .. } => {
                out.put_u32_le(*nx);
                out.put_u32_le(*ny);
                for v in data.iter() {
                    out.put_u32_le(v.to_bits());
                }
            }
            MonitorPayload::Grid3 {
                nx, ny, nz, data, ..
            } => {
                out.put_u32_le(*nx);
                out.put_u32_le(*ny);
                out.put_u32_le(*nz);
                for v in data.iter() {
                    out.put_u32_le(v.to_bits());
                }
            }
            MonitorPayload::Frame {
                keyframe,
                raw_size,
                data,
                ..
            } => {
                out.put_u8(u8::from(*keyframe));
                out.put_u32_le(*raw_size);
                out.put_u32_le(data.len() as u32);
                out.put_slice(data);
            }
        }
        Ok(())
    }

    /// Encode into a fresh byte vector, refusing unrepresentable frames.
    pub fn try_to_bytes(&self) -> Result<Vec<u8>, FrameCodecError> {
        let mut buf = Vec::with_capacity(self.wire_size());
        self.encode_bytes(&mut buf)?;
        Ok(buf)
    }

    /// Encode into a fresh byte vector. Panics on a frame the codec
    /// cannot represent — digest and test paths only handle frames that
    /// already crossed a hub, which validates on delivery; transports
    /// facing untrusted input use
    /// [`try_to_bytes`](MonitorFrame::try_to_bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        self.try_to_bytes()
            .expect("frame exceeds the codec's length fields")
    }

    /// Read one [`encode_bytes`](MonitorFrame::encode_bytes) encoding
    /// *borrowing* from the reader's bytes: the channel name and
    /// encoded-frame payload stay slices of the input (no per-frame
    /// allocation for them). Grid values still materialize a `Vec<f32>`
    /// because `f32` lanes cannot alias an arbitrary byte buffer's
    /// alignment, and only once the bytes behind the declared extents are
    /// there. Consumers that keep the frame past the buffer's life call
    /// [`into_owned`](MonitorFrame::into_owned).
    pub fn read<'b>(r: &mut SectionReader<'b>) -> Result<MonitorFrame<'b>, CkptError> {
        let seq = r.get_u64()?;
        let step = r.get_u64()?;
        let b = r.get_u8()?;
        let kind = MonitorKind::from_byte(b).ok_or_else(|| CkptError::Corrupt {
            context: format!("frame kind byte {b}"),
        })?;
        let name = Cow::Borrowed(r.get_name()?);
        // a cell count past `usize` saturates: no buffer holds that many
        let cells = |nx: u32, ny: u32| (nx as usize).saturating_mul(ny as usize);
        let payload = match kind {
            MonitorKind::Scalar => MonitorPayload::Scalar {
                name,
                value: r.get_f64()?,
            },
            MonitorKind::Vec3 => MonitorPayload::Vec3 {
                name,
                value: [r.get_f64()?, r.get_f64()?, r.get_f64()?],
            },
            MonitorKind::Grid2 => {
                let (nx, ny) = (r.get_u32()?, r.get_u32()?);
                let data = Cow::Owned(r.get_f32_run(cells(nx, ny))?);
                MonitorPayload::Grid2 { name, nx, ny, data }
            }
            MonitorKind::Grid3 => {
                let (nx, ny, nz) = (r.get_u32()?, r.get_u32()?, r.get_u32()?);
                let count = cells(nx, ny).saturating_mul(nz as usize);
                let data = Cow::Owned(r.get_f32_run(count)?);
                MonitorPayload::Grid3 {
                    name,
                    nx,
                    ny,
                    nz,
                    data,
                }
            }
            MonitorKind::Frame => {
                let keyframe = r.get_bool()?;
                let raw_size = r.get_u32()?;
                let len = r.get_u32()? as usize;
                MonitorPayload::Frame {
                    name,
                    keyframe,
                    raw_size,
                    data: Cow::Borrowed(r.take(len)?),
                }
            }
        };
        Ok(MonitorFrame { seq, step, payload })
    }

    /// [`read`](MonitorFrame::read) from the front of `buf`, advancing it
    /// past the frame; `None` on any malformation.
    pub fn decode_borrowed<'b>(buf: &mut &'b [u8]) -> Option<MonitorFrame<'b>> {
        let mut r = SectionReader::new(buf, "monitor frame");
        MonitorFrame::read(&mut r).ok().inspect(|_| *buf = r.rest())
    }

    /// Encoded size in bytes — what one frame costs on a byte-counted
    /// link (the harness charges deliveries at this size).
    pub fn wire_size(&self) -> usize {
        let header = 8 + 8 + 1 + 2 + self.payload.name().len();
        header
            + match &self.payload {
                MonitorPayload::Scalar { .. } => 8,
                MonitorPayload::Vec3 { .. } => 24,
                MonitorPayload::Grid2 { data, .. } => 8 + data.len() * 4,
                MonitorPayload::Grid3 { data, .. } => 12 + data.len() * 4,
                MonitorPayload::Frame { data, .. } => 9 + data.len(),
            }
    }

    /// Fold this frame's canonical bytes into a running FNV-1a 64 hash —
    /// the byte-stable digest viewers and scenario reports accumulate.
    pub fn fold_fnv(&self, h: u64) -> u64 {
        fnv1a(h, &self.to_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::FNV_OFFSET;
    use bytes::BytesMut;

    fn samples() -> Vec<MonitorFrame<'static>> {
        vec![
            MonitorFrame {
                seq: 1,
                step: 10,
                payload: MonitorPayload::scalar("demix", 0.125),
            },
            MonitorFrame {
                seq: 2,
                step: 10,
                payload: MonitorPayload::vec3("centroid", [1.0, -2.5, 1e-12]),
            },
            MonitorFrame {
                seq: 3,
                step: 11,
                payload: MonitorPayload::grid2(
                    "phi_mid",
                    3,
                    2,
                    vec![0.0, 1.5, -2.0, 0.5, 9.0, 4.5],
                ),
            },
            MonitorFrame {
                seq: 4,
                step: 11,
                payload: MonitorPayload::grid3_borrowed(
                    "phi",
                    2,
                    2,
                    2,
                    &(0..8).map(|i| i as f32).collect::<Vec<_>>(),
                )
                .into_owned(),
            },
            MonitorFrame {
                seq: 5,
                step: 12,
                payload: MonitorPayload::frame("viz", true, 4096, vec![1, 255, 0, 7]),
            },
            MonitorFrame {
                seq: 6,
                step: 12,
                payload: MonitorPayload::scalar("", f64::NEG_INFINITY),
            },
        ]
    }

    /// One frame read from the front of `bytes`, and the bytes it took.
    fn read(bytes: &[u8]) -> Result<(MonitorFrame<'_>, usize), CkptError> {
        crate::ckpt::tests::front(bytes, MonitorFrame::read)
    }

    #[test]
    fn binary_roundtrip_every_kind() {
        for f in samples() {
            let bytes = f.to_bytes();
            assert_eq!(bytes.len(), f.wire_size(), "{f:?}");
            assert_eq!(read(&bytes), Ok((f.clone(), bytes.len())));
            // the `Option` adapter advances past exactly the frame
            let mut slice: &[u8] = &bytes;
            assert_eq!(MonitorFrame::decode_borrowed(&mut slice), Some(f.clone()));
            assert!(slice.is_empty(), "decode must consume exactly: {f:?}");
        }
    }

    #[test]
    fn nan_grid_survives_bit_exact() {
        let bits = 0x7fc0_dead_u32;
        let f = MonitorFrame {
            seq: 9,
            step: 3,
            payload: MonitorPayload::grid2("nan", 2, 1, vec![f32::from_bits(bits), 1.0]),
        };
        let bytes = f.to_bytes();
        match read(&bytes).unwrap().0.payload {
            MonitorPayload::Grid2 { data, .. } => {
                assert_eq!(data[0].to_bits(), bits);
                assert_eq!(data[1], 1.0);
            }
            other => panic!("expected grid2, got {other:?}"),
        }
    }

    #[test]
    fn truncated_binary_rejected() {
        for f in samples() {
            let bytes = f.to_bytes();
            for cut in 0..bytes.len() {
                let err = read(&bytes[..cut]).unwrap_err();
                assert!(
                    matches!(err, CkptError::Truncated { .. }),
                    "cut={cut}: {err}"
                );
                let mut slice: &[u8] = &bytes[..cut];
                assert_eq!(MonitorFrame::decode_borrowed(&mut slice), None);
            }
        }
    }

    #[test]
    fn oversized_grid_dims_rejected_without_allocation() {
        // a frame whose declared dims wildly exceed the buffer must be
        // rejected before any giant allocation is attempted
        let mut buf = BytesMut::new();
        buf.put_u64_le(1);
        buf.put_u64_le(1);
        buf.put_u8(MonitorKind::Grid3 as u8);
        buf.put_u16_le(1);
        buf.put_slice(b"g");
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(u32::MAX);
        let (got, usage) = gridsteer_testkit::measure(|| read(&buf).map(|_| ()));
        assert!(matches!(got, Err(CkptError::Truncated { have: 0, .. })));
        assert!(
            usage.largest <= buf.len(),
            "{} bytes requested",
            usage.largest
        );
    }

    #[test]
    fn kind_bytes_roundtrip() {
        for k in MonitorKind::ALL {
            assert_eq!(MonitorKind::from_byte(k as u8), Some(k));
        }
        assert_eq!(MonitorKind::from_byte(0), None);
        assert_eq!(MonitorKind::from_byte(6), None);
        let mut bytes = samples()[0].to_bytes();
        bytes[16] = 6;
        assert_eq!(
            read(&bytes).unwrap_err().to_string(),
            "corrupt bytes at frame kind byte 6"
        );
    }

    #[test]
    fn fold_fnv_is_order_sensitive() {
        let s = samples();
        let a = s[1].fold_fnv(s[0].fold_fnv(FNV_OFFSET));
        let b = s[0].fold_fnv(s[1].fold_fnv(FNV_OFFSET));
        assert_ne!(a, b, "frame order must be part of the digest");
    }

    #[test]
    #[should_panic(expected = "grid2 shape mismatch")]
    fn grid_constructor_checks_shape() {
        let _ = MonitorPayload::grid2("bad", 3, 3, vec![0.0; 8]);
    }

    #[test]
    fn oversized_channel_name_fails_loudly_not_silently() {
        let f = MonitorFrame {
            seq: 1,
            step: 0,
            payload: MonitorPayload::scalar(&"x".repeat(65536), 0.0),
        };
        assert_eq!(
            f.try_to_bytes(),
            Err(FrameCodecError::NameTooLong { len: 65536 })
        );
        let mut out = BytesMut::new();
        assert!(f.encode_bytes(&mut out).is_err());
        assert!(out.is_empty(), "a refused encode must write nothing");
        assert!(FrameCodecError::NameTooLong { len: 65536 }
            .to_string()
            .contains("exceeds the codec's u16 length field"));
    }

    #[test]
    fn mismatched_grid_shape_refused_not_misframed() {
        // bypass the constructor's assert: a hand-built grid whose data
        // disagrees with its declared dims must not encode (the decoder
        // would read nx*ny values and mis-frame everything after)
        let f = MonitorFrame {
            seq: 1,
            step: 0,
            payload: MonitorPayload::Grid2 {
                name: "g".into(),
                nx: 3,
                ny: 3,
                data: vec![0.0; 8].into(),
            },
        };
        assert_eq!(
            f.try_to_bytes(),
            Err(FrameCodecError::GridShapeMismatch {
                expected: Some(9),
                len: 8
            })
        );
        // a declared shape whose product overflows the address space is
        // refused too, without attempting the multiply
        let f = MonitorFrame {
            seq: 1,
            step: 0,
            payload: MonitorPayload::Grid3 {
                name: "g".into(),
                nx: u32::MAX,
                ny: u32::MAX,
                nz: u32::MAX,
                data: vec![0.0; 4].into(),
            },
        };
        assert_eq!(
            f.try_to_bytes(),
            Err(FrameCodecError::GridShapeMismatch {
                expected: None,
                len: 4
            })
        );
    }

    #[test]
    #[should_panic(expected = "exceeds the codec's length fields")]
    fn infallible_to_bytes_panics_on_unrepresentable() {
        let f = MonitorFrame {
            seq: 1,
            step: 0,
            payload: MonitorPayload::scalar(&"x".repeat(65536), 0.0),
        };
        let _ = f.to_bytes();
    }
}
