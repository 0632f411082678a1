//! Typed VISIT values and the transparent conversions of §3.2.
//!
//! "VISIT uses an MPI-like data transport mechanism based on messages that
//! are distinguished via tags to transfer simple data types like strings,
//! integers, floats, user defined structures, and arrays of these." A
//! [`VisitValue`] is one such payload; scalars are length-1 arrays, and
//! user-defined structures travel as [`VisitValue::Bytes`] (the application
//! owns their layout, as in the C API).
//!
//! "Any data conversions (byte order, precision, integer-float) are
//! performed transparently by the server" — [`VisitValue::decode`] performs
//! byte-order conversion from the client's declared [`Endianness`], and
//! [`FrameView::integers_into`](crate::wire::FrameView::integers_into)
//! performs the int-float conversion the steering plane reads integers
//! through.

use bytes::BufMut;

/// Byte order declared by a client at connection time. The paper's
/// "classic supercomputers" (Cray T3E, SGI Onyx, IBM SP2) were big-endian;
/// the laptops steering them were little-endian — conversion was a daily
/// reality, not an edge case.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endianness {
    Little,
    Big,
}

impl Endianness {
    /// The byte order of the machine this code runs on.
    pub fn native() -> Endianness {
        if cfg!(target_endian = "big") {
            Endianness::Big
        } else {
            Endianness::Little
        }
    }

    /// Encode as the wire flag byte.
    pub fn to_byte(self) -> u8 {
        match self {
            Endianness::Little => 0,
            Endianness::Big => 1,
        }
    }

    /// Decode from the wire flag byte.
    pub fn from_byte(b: u8) -> Option<Endianness> {
        match b {
            0 => Some(Endianness::Little),
            1 => Some(Endianness::Big),
            _ => None,
        }
    }
}

/// Data type codes on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum DType {
    I32 = 1,
    I64 = 2,
    F32 = 3,
    F64 = 4,
    Str = 5,
    Bytes = 6,
}

impl DType {
    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Option<DType> {
        Some(match b {
            1 => DType::I32,
            2 => DType::I64,
            3 => DType::F32,
            4 => DType::F64,
            5 => DType::Str,
            6 => DType::Bytes,
            _ => return None,
        })
    }
}

/// A fixed-width number a payload carries: its wire dtype, and its bytes
/// in either order. The one place a number meets the wire, so encode and
/// decode cannot disagree on a byte.
pub trait Element: Copy {
    /// The dtype a payload of these carries.
    const DTYPE: DType;
    /// Bytes per element.
    const SIZE: usize;
    /// Read one element from exactly [`SIZE`](Element::SIZE) bytes in
    /// `order`.
    fn get(bytes: &[u8], order: Endianness) -> Self;
    /// Append this element in `order`.
    fn put(self, order: Endianness, out: &mut impl BufMut);
}

macro_rules! element {
    ($ty:ty, $dtype:ident) => {
        impl Element for $ty {
            const DTYPE: DType = DType::$dtype;
            const SIZE: usize = std::mem::size_of::<$ty>();

            fn get(bytes: &[u8], order: Endianness) -> $ty {
                let raw = bytes.try_into().expect("a chunk of exactly SIZE bytes");
                match order {
                    Endianness::Little => <$ty>::from_le_bytes(raw),
                    Endianness::Big => <$ty>::from_be_bytes(raw),
                }
            }

            fn put(self, order: Endianness, out: &mut impl BufMut) {
                match order {
                    Endianness::Little => out.put_slice(&self.to_le_bytes()),
                    Endianness::Big => out.put_slice(&self.to_be_bytes()),
                }
            }
        }
    };
}

element!(i32, I32);
element!(i64, I64);
element!(f32, F32);
element!(f64, F64);

/// Decode `count` elements of `T` from exactly the bytes they fill.
fn elements<T: Element>(count: usize, order: Endianness, buf: &[u8]) -> Option<Vec<T>> {
    if Some(buf.len()) != count.checked_mul(T::SIZE) {
        return None;
    }
    Some(
        buf.chunks_exact(T::SIZE)
            .map(|c| T::get(c, order))
            .collect(),
    )
}

/// A `Str` payload of `count` bytes, in place: exactly `buf`, as UTF-8.
pub(crate) fn text(count: usize, buf: &[u8]) -> Option<&str> {
    if buf.len() != count {
        return None;
    }
    std::str::from_utf8(buf).ok()
}

/// A typed VISIT payload.
#[derive(Debug, Clone, PartialEq)]
pub enum VisitValue {
    /// 32-bit integers.
    I32(Vec<i32>),
    /// 64-bit integers.
    I64(Vec<i64>),
    /// Single-precision floats.
    F32(Vec<f32>),
    /// Double-precision floats.
    F64(Vec<f64>),
    /// A UTF-8 string.
    Str(String),
    /// Opaque bytes (user-defined structures).
    Bytes(Vec<u8>),
}

/// A payload borrowed from whoever owns it: what a [`VisitValue`] holds,
/// by reference, so a sender encodes its own data without first copying
/// it into a value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// 32-bit integers.
    I32(&'a [i32]),
    /// 64-bit integers.
    I64(&'a [i64]),
    /// Single-precision floats.
    F32(&'a [f32]),
    /// Double-precision floats.
    F64(&'a [f64]),
    /// A UTF-8 string.
    Str(&'a str),
    /// Opaque bytes.
    Bytes(&'a [u8]),
}

impl ValueRef<'_> {
    /// Wire dtype code.
    pub fn dtype(self) -> DType {
        match self {
            ValueRef::I32(_) => DType::I32,
            ValueRef::I64(_) => DType::I64,
            ValueRef::F32(_) => DType::F32,
            ValueRef::F64(_) => DType::F64,
            ValueRef::Str(_) => DType::Str,
            ValueRef::Bytes(_) => DType::Bytes,
        }
    }

    /// Element count (bytes/strings count bytes).
    pub fn count(self) -> usize {
        match self {
            ValueRef::I32(v) => v.len(),
            ValueRef::I64(v) => v.len(),
            ValueRef::F32(v) => v.len(),
            ValueRef::F64(v) => v.len(),
            ValueRef::Str(s) => s.len(),
            ValueRef::Bytes(b) => b.len(),
        }
    }

    /// Payload size on the wire in bytes.
    pub fn byte_len(self) -> usize {
        match self {
            ValueRef::I32(v) => v.len() * 4,
            ValueRef::I64(v) => v.len() * 8,
            ValueRef::F32(v) => v.len() * 4,
            ValueRef::F64(v) => v.len() * 8,
            ValueRef::Str(s) => s.len(),
            ValueRef::Bytes(b) => b.len(),
        }
    }

    /// Encode the payload in the given byte order (the *client's native*
    /// order — the client never converts; see module docs).
    pub fn encode(self, order: Endianness, out: &mut impl BufMut) {
        fn put_all<T: Element>(v: &[T], order: Endianness, out: &mut impl BufMut) {
            v.iter().for_each(|x| x.put(order, out));
        }
        match self {
            ValueRef::I32(v) => put_all(v, order, out),
            ValueRef::I64(v) => put_all(v, order, out),
            ValueRef::F32(v) => put_all(v, order, out),
            ValueRef::F64(v) => put_all(v, order, out),
            ValueRef::Str(s) => out.put_slice(s.as_bytes()),
            ValueRef::Bytes(b) => out.put_slice(b),
        }
    }
}

impl VisitValue {
    /// The payload, borrowed.
    pub fn view(&self) -> ValueRef<'_> {
        match self {
            VisitValue::I32(v) => ValueRef::I32(v),
            VisitValue::I64(v) => ValueRef::I64(v),
            VisitValue::F32(v) => ValueRef::F32(v),
            VisitValue::F64(v) => ValueRef::F64(v),
            VisitValue::Str(s) => ValueRef::Str(s),
            VisitValue::Bytes(b) => ValueRef::Bytes(b),
        }
    }

    /// Wire dtype code.
    pub fn dtype(&self) -> DType {
        self.view().dtype()
    }

    /// Element count (bytes/strings count bytes).
    pub fn count(&self) -> usize {
        self.view().count()
    }

    /// Payload size on the wire in bytes.
    pub fn byte_len(&self) -> usize {
        self.view().byte_len()
    }

    /// Encode the payload in the given byte order (the *client's native*
    /// order — the client never converts; see module docs).
    pub fn encode(&self, order: Endianness, out: &mut impl BufMut) {
        self.view().encode(order, out);
    }

    /// Decode a payload of `count` elements of `dtype`, converting from the
    /// client's byte order (the server-side conversion of §3.2). Returns
    /// `None` on malformed input.
    pub fn decode(dtype: DType, count: usize, order: Endianness, buf: &[u8]) -> Option<VisitValue> {
        Some(match dtype {
            DType::I32 => VisitValue::I32(elements(count, order, buf)?),
            DType::I64 => VisitValue::I64(elements(count, order, buf)?),
            DType::F32 => VisitValue::F32(elements(count, order, buf)?),
            DType::F64 => VisitValue::F64(elements(count, order, buf)?),
            DType::Str => VisitValue::Str(text(count, buf)?.to_string()),
            DType::Bytes if buf.len() == count => VisitValue::Bytes(buf.to_vec()),
            DType::Bytes => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Frame, FrameView, MsgKind};
    use bytes::BytesMut;

    fn roundtrip(v: &VisitValue, order: Endianness) -> VisitValue {
        let mut buf = BytesMut::new();
        v.encode(order, &mut buf);
        VisitValue::decode(v.dtype(), v.count(), order, &buf).unwrap()
    }

    #[test]
    fn roundtrip_all_types_both_orders() {
        let values = [
            VisitValue::I32(vec![1, -2, i32::MAX, i32::MIN]),
            VisitValue::I64(vec![42, -9e15 as i64]),
            VisitValue::F32(vec![1.5, -0.25, f32::MAX]),
            VisitValue::F64(vec![std::f64::consts::PI, -1e300]),
            VisitValue::Str("miscibility=0.08".to_string()),
            VisitValue::Bytes(vec![0, 255, 7, 8]),
        ];
        for v in &values {
            for order in [Endianness::Little, Endianness::Big] {
                assert_eq!(&roundtrip(v, order), v);
            }
        }
    }

    #[test]
    fn cross_endian_decode_differs_from_same_endian_bytes() {
        // encoding BE and decoding LE must NOT give the same numbers back
        let v = VisitValue::I32(vec![0x0102_0304]);
        let mut buf = BytesMut::new();
        v.encode(Endianness::Big, &mut buf);
        let wrong = VisitValue::decode(DType::I32, 1, Endianness::Little, &buf).unwrap();
        assert_eq!(wrong, VisitValue::I32(vec![0x0403_0201]));
    }

    #[test]
    fn decode_rejects_wrong_length() {
        assert!(VisitValue::decode(DType::F64, 2, Endianness::Little, &[0u8; 15]).is_none());
        assert!(VisitValue::decode(DType::I32, 1, Endianness::Little, &[0u8; 3]).is_none());
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        assert!(VisitValue::decode(DType::Str, 2, Endianness::Little, &[0xFF, 0xFE]).is_none());
    }

    /// The integers `value` reads as through a frame, if it holds `n`.
    pub(super) fn integers(value: VisitValue, n: usize) -> Option<Vec<i64>> {
        let wire = Frame::with_value(MsgKind::Data, 1, Endianness::Big, value).encode();
        let mut out = vec![0; n];
        FrameView::parse(&wire)?
            .integers_into(&mut out)
            .then_some(out)
    }

    #[test]
    fn int_float_conversion() {
        assert_eq!(
            integers(VisitValue::F64(vec![3.0, -4.0]), 2),
            Some(vec![3, -4])
        );
        assert_eq!(integers(VisitValue::F32(vec![-2.0]), 1), Some(vec![-2]));
        assert_eq!(integers(VisitValue::F64(vec![3.5]), 1), None);
        assert_eq!(integers(VisitValue::Str("x".into()), 1), None);
    }

    #[test]
    fn byte_len_matches_encoding() {
        let values = [
            VisitValue::I32(vec![0; 3]),
            VisitValue::F64(vec![0.0; 5]),
            VisitValue::Str("abc".into()),
        ];
        for v in values {
            let mut buf = BytesMut::new();
            v.encode(Endianness::Little, &mut buf);
            assert_eq!(buf.len(), v.byte_len());
        }
    }

    #[test]
    fn dtype_codes_roundtrip() {
        for d in [
            DType::I32,
            DType::I64,
            DType::F32,
            DType::F64,
            DType::Str,
            DType::Bytes,
        ] {
            assert_eq!(DType::from_byte(d as u8), Some(d));
        }
        assert_eq!(DType::from_byte(99), None);
    }
}

#[cfg(test)]
mod props {
    //! Property tests over the payload layer: encode/decode is byte-stable
    //! for every dtype and byte order, length mismatches are rejected, and
    //! the server-side conversions are total (no panics) on any value.

    use super::tests::integers;
    use super::*;
    use proptest::prelude::*;

    fn dtype_from(sel: u8) -> DType {
        DType::from_byte(1 + sel % 6).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// decode ∘ encode is byte-stable for every dtype/order, even for
        /// NaN float payloads where `PartialEq` can't witness it: the
        /// re-encoded bytes must match exactly.
        #[test]
        fn decode_encode_byte_stable(
            sel in any::<u8>(),
            raw in proptest::collection::vec(any::<u8>(), 0..160),
            big in any::<bool>(),
        ) {
            let order = if big { Endianness::Big } else { Endianness::Little };
            let dtype = dtype_from(sel);
            // trim to a whole number of elements (and valid UTF-8 for Str)
            let elem = match dtype {
                DType::I32 | DType::F32 => 4,
                DType::I64 | DType::F64 => 8,
                DType::Str | DType::Bytes => 1,
            };
            let buf: Vec<u8> = match dtype {
                DType::Str => String::from_utf8_lossy(&raw).into_owned().into_bytes(),
                _ => raw[..raw.len() - raw.len() % elem].to_vec(),
            };
            let count = buf.len() / elem;
            let v = VisitValue::decode(dtype, count, order, &buf).expect("aligned buffer parses");
            prop_assert_eq!(v.count(), count);
            prop_assert_eq!(v.byte_len(), buf.len());
            let mut out = bytes::BytesMut::new();
            v.encode(order, &mut out);
            prop_assert_eq!(&out[..], &buf[..]);
        }

        /// Any length mismatch between the declared count and the buffer is
        /// rejected, for every dtype.
        #[test]
        fn length_mismatch_rejected(
            sel in any::<u8>(),
            count in 0usize..32,
            delta in 1usize..8,
            shrink in any::<bool>(),
        ) {
            let dtype = dtype_from(sel);
            let elem = match dtype {
                DType::I32 | DType::F32 => 4,
                DType::I64 | DType::F64 => 8,
                DType::Str | DType::Bytes => 1,
            };
            let exact = count * elem;
            let len = if shrink { exact.saturating_sub(delta) } else { exact + delta };
            if len != exact {
                let buf = vec![b'a'; len];
                prop_assert!(VisitValue::decode(dtype, count, Endianness::Little, &buf).is_none());
            }
        }

        /// The §3.2 server-side conversions are total: no panic on any
        /// decodable value, and the integer view is exact when it exists.
        #[test]
        fn conversions_are_total(
            sel in any::<u8>(),
            raw in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let dtype = dtype_from(sel);
            let elem = match dtype {
                DType::I32 | DType::F32 => 4,
                DType::I64 | DType::F64 => 8,
                DType::Str | DType::Bytes => 1,
            };
            let buf: Vec<u8> = match dtype {
                DType::Str => String::from_utf8_lossy(&raw).into_owned().into_bytes(),
                _ => raw[..raw.len() - raw.len() % elem].to_vec(),
            };
            let v = VisitValue::decode(dtype, buf.len() / elem, Endianness::Big, &buf).unwrap();
            let n = v.count();
            if let (Some(ints), VisitValue::I32(orig)) = (integers(v.clone(), n), &v) {
                prop_assert_eq!(ints, orig.iter().map(|&x| x as i64).collect::<Vec<i64>>());
            }
        }
    }
}
