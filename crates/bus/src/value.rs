//! Typed steering values.
//!
//! The paper steers heterogeneous codes through heterogeneous middlewares;
//! the least common denominator historically forced everything through
//! `f64`. A [`ParamValue`] is the bus's typed currency instead: every
//! transport adapter encodes it through its own wire machinery (VISIT
//! frames, OGSA service-data text, COVISE module parameters, UNICORE job
//! payloads) and must round-trip it losslessly.

use bytes::{BufMut, BytesMut};
use gridsteer_ckpt::{CkptError, SectionReader};
use visit::VisitValue;

/// The declared type of a steerable parameter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u8)]
pub enum ParamKind {
    /// Double-precision scalar.
    F64 = 1,
    /// 64-bit integer.
    I64 = 2,
    /// Boolean flag.
    Bool = 3,
    /// Three-component double vector (directions, positions).
    Vec3 = 4,
    /// UTF-8 string (labels, site names, file stems).
    Str = 5,
}

impl ParamKind {
    /// All kinds, in wire-code order.
    pub const ALL: [ParamKind; 5] = [
        ParamKind::F64,
        ParamKind::I64,
        ParamKind::Bool,
        ParamKind::Vec3,
        ParamKind::Str,
    ];

    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Option<ParamKind> {
        Some(match b {
            1 => ParamKind::F64,
            2 => ParamKind::I64,
            3 => ParamKind::Bool,
            4 => ParamKind::Vec3,
            5 => ParamKind::Str,
            _ => return None,
        })
    }

    /// Stable lowercase name (capability sets, attach lines).
    pub fn name(self) -> &'static str {
        match self {
            ParamKind::F64 => "f64",
            ParamKind::I64 => "i64",
            ParamKind::Bool => "bool",
            ParamKind::Vec3 => "vec3",
            ParamKind::Str => "str",
        }
    }
}

/// One typed steering value.
#[derive(Debug, Clone, PartialEq)]
pub enum ParamValue {
    /// Double-precision scalar.
    F64(f64),
    /// 64-bit integer.
    I64(i64),
    /// Boolean flag.
    Bool(bool),
    /// Three-component double vector.
    Vec3([f64; 3]),
    /// UTF-8 string.
    Str(String),
}

impl ParamValue {
    /// The value's kind tag.
    pub fn kind(&self) -> ParamKind {
        match self {
            ParamValue::F64(_) => ParamKind::F64,
            ParamValue::I64(_) => ParamKind::I64,
            ParamValue::Bool(_) => ParamKind::Bool,
            ParamValue::Vec3(_) => ParamKind::Vec3,
            ParamValue::Str(_) => ParamKind::Str,
        }
    }

    /// Exact scalar-to-kind conversion: the one rule for re-typing an
    /// f64 surface (COVISE module parameters, f64 shims) into a declared
    /// kind. `None` when the conversion would lose information.
    pub fn from_scalar(kind: ParamKind, v: f64) -> Option<ParamValue> {
        match kind {
            ParamKind::F64 => Some(ParamValue::F64(v)),
            ParamKind::I64 if v.fract() == 0.0 && v.abs() < 9.0e15 => {
                Some(ParamValue::I64(v as i64))
            }
            ParamKind::Bool if v == 0.0 || v == 1.0 => Some(ParamValue::Bool(v == 1.0)),
            _ => None,
        }
    }

    /// Numeric view: `F64` as-is, `I64` widened, `Bool` as 0/1. `None`
    /// for `Vec3`/`Str` (no canonical scalar).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            ParamValue::F64(v) => Some(*v),
            ParamValue::I64(v) => Some(*v as f64),
            ParamValue::Bool(b) => Some(f64::from(u8::from(*b))),
            _ => None,
        }
    }

    /// Canonical text rendering — byte-stable (used in session audit logs
    /// and scenario digests). `F64` uses Rust's shortest round-trip float
    /// formatting, so [`ParamValue::parse`] recovers it exactly.
    pub fn render(&self) -> String {
        match self {
            ParamValue::F64(v) => format!("{v:?}"),
            ParamValue::I64(v) => format!("{v}"),
            ParamValue::Bool(b) => format!("{b}"),
            ParamValue::Vec3([x, y, z]) => format!("[{x:?},{y:?},{z:?}]"),
            ParamValue::Str(s) => s.clone(),
        }
    }

    /// Parse the canonical text rendering back, directed by `kind` (text
    /// is untyped on its own — OGSA's XML-ish encoding works this way).
    pub fn parse(kind: ParamKind, text: &str) -> Option<ParamValue> {
        Some(match kind {
            ParamKind::F64 => ParamValue::F64(text.parse().ok()?),
            ParamKind::I64 => ParamValue::I64(text.parse().ok()?),
            ParamKind::Bool => ParamValue::Bool(text.parse().ok()?),
            ParamKind::Vec3 => {
                let inner = text.strip_prefix('[')?.strip_suffix(']')?;
                let mut it = inner.splitn(3, ',');
                let x = it.next()?.parse().ok()?;
                let y = it.next()?.parse().ok()?;
                let z = it.next()?.parse().ok()?;
                ParamValue::Vec3([x, y, z])
            }
            ParamKind::Str => ParamValue::Str(text.to_string()),
        })
    }

    /// Map onto the VISIT typed-payload layer (the §3.2 wire codec):
    /// scalars become length-1 arrays, `Vec3` a length-3 `F64` array,
    /// `Bool` a length-1 `I32`.
    pub fn to_visit(&self) -> VisitValue {
        match self {
            ParamValue::F64(v) => VisitValue::F64(vec![*v]),
            ParamValue::I64(v) => VisitValue::I64(vec![*v]),
            ParamValue::Bool(b) => VisitValue::I32(vec![i32::from(*b)]),
            ParamValue::Vec3(v) => VisitValue::F64(v.to_vec()),
            ParamValue::Str(s) => VisitValue::Str(s.clone()),
        }
    }

    /// Recover from a VISIT payload, directed by the declared `kind` (the
    /// frame tag carries it on the wire). Strict: shape mismatches return
    /// `None` rather than guessing — the round-trip must be lossless.
    pub fn from_visit(kind: ParamKind, v: &VisitValue) -> Option<ParamValue> {
        Some(match (kind, v) {
            (ParamKind::F64, VisitValue::F64(xs)) if xs.len() == 1 => ParamValue::F64(xs[0]),
            (ParamKind::I64, VisitValue::I64(xs)) if xs.len() == 1 => ParamValue::I64(xs[0]),
            (ParamKind::Bool, VisitValue::I32(xs)) if xs.len() == 1 && (0..=1).contains(&xs[0]) => {
                ParamValue::Bool(xs[0] == 1)
            }
            (ParamKind::Vec3, VisitValue::F64(xs)) if xs.len() == 3 => {
                ParamValue::Vec3([xs[0], xs[1], xs[2]])
            }
            (ParamKind::Str, VisitValue::Str(s)) => ParamValue::Str(s.clone()),
            _ => return None,
        })
    }

    /// Compact tagged binary encoding (kind byte + payload, little-endian)
    /// — the format the core TCP server and the UNICORE job payload use.
    pub fn encode_bytes(&self, out: &mut BytesMut) {
        out.put_u8(self.kind() as u8);
        match self {
            ParamValue::F64(v) => out.put_f64_le(*v),
            ParamValue::I64(v) => out.put_i64_le(*v),
            ParamValue::Bool(b) => out.put_u8(u8::from(*b)),
            ParamValue::Vec3(v) => {
                for c in v {
                    out.put_f64_le(*c);
                }
            }
            ParamValue::Str(s) => {
                out.put_u32_le(s.len() as u32);
                out.put_slice(s.as_bytes());
            }
        }
    }

    /// Read one [`encode_bytes`](ParamValue::encode_bytes) encoding.
    pub fn read(r: &mut SectionReader<'_>) -> Result<ParamValue, CkptError> {
        let b = r.get_u8()?;
        let kind = ParamKind::from_byte(b).ok_or_else(|| CkptError::Corrupt {
            context: format!("value kind byte {b}"),
        })?;
        Ok(match kind {
            ParamKind::F64 => ParamValue::F64(r.get_f64()?),
            ParamKind::I64 => ParamValue::I64(r.get_i64()?),
            ParamKind::Bool => ParamValue::Bool(r.get_bool()?),
            ParamKind::Vec3 => ParamValue::Vec3([r.get_f64()?, r.get_f64()?, r.get_f64()?]),
            ParamKind::Str => ParamValue::Str(r.get_str()?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<ParamValue> {
        vec![
            ParamValue::F64(0.25),
            ParamValue::F64(-1e300),
            ParamValue::I64(i64::MIN),
            ParamValue::Bool(true),
            ParamValue::Bool(false),
            ParamValue::Vec3([1.0, -2.5, 1e-9]),
            ParamValue::Str("manchester-csar".into()),
            ParamValue::Str(String::new()),
        ]
    }

    /// One value read from the front of `bytes`, and the bytes it took.
    fn read(bytes: &[u8]) -> Result<(ParamValue, usize), CkptError> {
        crate::ckpt::tests::front(bytes, ParamValue::read)
    }

    #[test]
    fn binary_roundtrip_every_variant() {
        for v in samples() {
            let mut buf = BytesMut::new();
            v.encode_bytes(&mut buf);
            // decode must consume exactly
            assert_eq!(read(&buf), Ok((v.clone(), buf.len())));
        }
    }

    #[test]
    fn visit_roundtrip_every_variant() {
        for v in samples() {
            let wire = v.to_visit();
            assert_eq!(ParamValue::from_visit(v.kind(), &wire), Some(v));
        }
    }

    #[test]
    fn text_roundtrip_every_variant() {
        for v in samples() {
            assert_eq!(ParamValue::parse(v.kind(), &v.render()), Some(v.clone()));
        }
    }

    #[test]
    fn nan_float_survives_binary_roundtrip_bit_exact() {
        let bits = 0x7ff8_dead_beef_0001u64;
        let v = ParamValue::F64(f64::from_bits(bits));
        let mut buf = BytesMut::new();
        v.encode_bytes(&mut buf);
        match read(&buf) {
            Ok((ParamValue::F64(x), 9)) => assert_eq!(x.to_bits(), bits),
            other => panic!("expected F64, got {other:?}"),
        }
    }

    #[test]
    fn shape_mismatch_from_visit_rejected() {
        assert_eq!(
            ParamValue::from_visit(ParamKind::F64, &VisitValue::F64(vec![1.0, 2.0])),
            None
        );
        assert_eq!(
            ParamValue::from_visit(ParamKind::Bool, &VisitValue::I32(vec![7])),
            None
        );
        assert_eq!(
            ParamValue::from_visit(ParamKind::Vec3, &VisitValue::F64(vec![1.0])),
            None
        );
    }

    #[test]
    fn truncated_binary_rejected() {
        for v in samples() {
            let mut buf = BytesMut::new();
            v.encode_bytes(&mut buf);
            for cut in 0..buf.len() {
                let err = read(&buf[..cut]).unwrap_err();
                assert!(
                    matches!(err, CkptError::Truncated { .. }),
                    "cut={cut}: {err}"
                );
            }
        }
    }

    #[test]
    fn kind_bytes_roundtrip() {
        for k in ParamKind::ALL {
            assert_eq!(ParamKind::from_byte(k as u8), Some(k));
        }
        assert_eq!(ParamKind::from_byte(0), None);
        assert_eq!(ParamKind::from_byte(9), None);
        assert_eq!(
            read(&[9]).unwrap_err().to_string(),
            "corrupt bytes at value kind byte 9"
        );
    }

    #[test]
    fn as_f64_views() {
        assert_eq!(ParamValue::F64(2.5).as_f64(), Some(2.5));
        assert_eq!(ParamValue::I64(-3).as_f64(), Some(-3.0));
        assert_eq!(ParamValue::Bool(true).as_f64(), Some(1.0));
        assert_eq!(ParamValue::Str("x".into()).as_f64(), None);
        assert_eq!(ParamValue::Vec3([0.0; 3]).as_f64(), None);
    }
}
