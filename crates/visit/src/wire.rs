//! Frame layout of the VISIT wire protocol.
//!
//! "The client either sends data along with a header describing its content
//! or requests data from the server by sending a header that describes what
//! is requested" (§3.2). A [`Frame`] is one such header+payload unit:
//!
//! ```text
//! offset  size  field
//! 0       1     message kind (Hello/Data/Request/Reply/…)
//! 1       1     payload byte order (Endianness)
//! 2       1     payload dtype (DType; 0 = no payload)
//! 3       1     reserved (must be 0)
//! 4       4     tag (u32, little-endian — header is always LE)
//! 8       4     element count (u32 LE)
//! 12      n     payload bytes, in the order declared at offset 1
//! ```
//!
//! The *header* is fixed little-endian so any server can parse it; the
//! *payload* stays in client-native order and is converted server-side —
//! the asymmetry that keeps the simulation cheap.

use crate::value::{DType, Element, Endianness, ValueRef, VisitValue};
use bytes::BufMut;

/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 12;

/// Protocol message kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgKind {
    /// Client → server: connection open (payload = password bytes).
    Hello = 1,
    /// Server → client: connection accepted.
    HelloAck = 2,
    /// Server → client: connection refused (bad password).
    HelloReject = 3,
    /// Client → server: here is data for tag T.
    Data = 4,
    /// Client → server: do you have new data for tag T?
    Request = 5,
    /// Server → client: reply carrying data for tag T.
    Reply = 6,
    /// Server → client: nothing pending for tag T.
    NoData = 7,
    /// Either direction: orderly shutdown.
    Bye = 8,
}

impl MsgKind {
    /// Decode from the wire byte.
    pub fn from_byte(b: u8) -> Option<MsgKind> {
        Some(match b {
            1 => MsgKind::Hello,
            2 => MsgKind::HelloAck,
            3 => MsgKind::HelloReject,
            4 => MsgKind::Data,
            5 => MsgKind::Request,
            6 => MsgKind::Reply,
            7 => MsgKind::NoData,
            8 => MsgKind::Bye,
            _ => return None,
        })
    }
}

/// One protocol frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Message kind.
    pub kind: MsgKind,
    /// MPI-like tag distinguishing data streams.
    pub tag: u32,
    /// Payload byte order (meaningful only when `value` is `Some`).
    pub order: Endianness,
    /// Optional typed payload.
    pub value: Option<VisitValue>,
}

impl Frame {
    /// A frame with no payload.
    pub fn bare(kind: MsgKind, tag: u32) -> Frame {
        Frame {
            kind,
            tag,
            order: Endianness::Little,
            value: None,
        }
    }

    /// A data-carrying frame in the given byte order.
    pub fn with_value(kind: MsgKind, tag: u32, order: Endianness, value: VisitValue) -> Frame {
        Frame {
            kind,
            tag,
            order,
            value: Some(value),
        }
    }

    /// Serialize to bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.wire_size());
        encode_frame(
            self.kind,
            self.tag,
            self.order,
            self.value.as_ref().map(VisitValue::view),
            &mut out,
        );
        out
    }

    /// Parse from bytes (performing the server-side byte-order conversion
    /// for the payload). Returns `None` on any malformation, so a frame
    /// that parses re-encodes to exactly its own bytes.
    pub fn decode(data: &[u8]) -> Option<Frame> {
        let view = FrameView::parse(data)?;
        Some(Frame {
            kind: view.kind,
            tag: view.tag,
            order: view.order,
            value: view.value(),
        })
    }

    /// Total encoded size.
    pub fn wire_size(&self) -> usize {
        HEADER_LEN + self.value.as_ref().map_or(0, |v| v.byte_len())
    }
}

/// Append one frame — header, then `value` encoded in `order` — to
/// `out`: [`Frame::encode`] for a payload its sender still owns, into a
/// buffer the sender reuses. The frame's room is reserved once.
pub fn encode_frame(
    kind: MsgKind,
    tag: u32,
    order: Endianness,
    value: Option<ValueRef<'_>>,
    out: &mut Vec<u8>,
) {
    out.reserve(HEADER_LEN + value.map_or(0, ValueRef::byte_len));
    let (dtype, count) = value.map_or((0, 0), |v| (v.dtype() as u8, v.count() as u32));
    out.put_slice(&[kind as u8, order.to_byte(), dtype, 0]);
    out.put_u32_le(tag);
    out.put_u32_le(count);
    if let Some(v) = value {
        v.encode(order, out);
    }
}

/// One frame parsed in place: its header checked and its payload checked
/// against the header — exactly what [`Frame::decode`] accepts — with the
/// payload bytes left where they are until a caller asks for them.
#[derive(Debug, Clone, Copy)]
pub struct FrameView<'a> {
    /// Message kind.
    pub kind: MsgKind,
    /// MPI-like tag distinguishing data streams.
    pub tag: u32,
    /// Payload byte order.
    pub order: Endianness,
    /// Payload dtype, `None` for a bare frame.
    dtype: Option<DType>,
    /// Element count (bytes for `Str`/`Bytes`).
    count: usize,
    payload: &'a [u8],
    /// A `Str` payload, as the UTF-8 it was checked to be.
    text: Option<&'a str>,
}

impl<'a> FrameView<'a> {
    /// Parse `data` as one whole frame, or `None` on any malformation.
    pub fn parse(data: &'a [u8]) -> Option<FrameView<'a>> {
        let (head, payload) = data.split_first_chunk::<HEADER_LEN>()?;
        let kind = MsgKind::from_byte(head[0])?;
        let order = Endianness::from_byte(head[1])?;
        if head[3] != 0 {
            return None;
        }
        let word =
            |at: usize| u32::from_le_bytes([head[at], head[at + 1], head[at + 2], head[at + 3]]);
        let (tag, count) = (word(4), word(8) as usize);
        let dtype = match head[2] {
            0 if payload.is_empty() && count == 0 => None,
            0 => return None,
            b => Some(DType::from_byte(b)?),
        };
        let text = match dtype {
            Some(DType::Str) => Some(crate::value::text(count, payload)?),
            _ => None,
        };
        let well_formed = match dtype {
            None | Some(DType::Str) => true,
            Some(DType::I32 | DType::F32) => Some(payload.len()) == count.checked_mul(4),
            Some(DType::I64 | DType::F64) => Some(payload.len()) == count.checked_mul(8),
            Some(DType::Bytes) => payload.len() == count,
        };
        well_formed.then_some(FrameView {
            kind,
            tag,
            order,
            dtype,
            count,
            payload,
            text,
        })
    }

    /// The payload's dtype, `None` for a bare frame.
    pub fn dtype(&self) -> Option<DType> {
        self.dtype
    }

    /// The payload decoded into an owned value (converted from the
    /// sender's byte order), `None` for a bare frame.
    pub fn value(&self) -> Option<VisitValue> {
        let decoded = VisitValue::decode(self.dtype?, self.count, self.order, self.payload);
        Some(decoded.expect("parse checked the payload against its header"))
    }

    /// A `Str` payload, in place.
    pub fn text(&self) -> Option<&'a str> {
        self.text
    }

    /// The payload as integers (floats only when integral), into `out`;
    /// false unless it holds exactly `out.len()` convertible numbers.
    pub fn integers_into(&self, out: &mut [i64]) -> bool {
        fn fill<T: Element>(
            view: &FrameView<'_>,
            out: &mut [i64],
            convert: impl Fn(T) -> Option<i64>,
        ) -> bool {
            match view.elements::<T>() {
                Some(xs) if xs.len() == out.len() => out
                    .iter_mut()
                    .zip(xs)
                    .all(|(o, x)| convert(x).map(|v| *o = v).is_some()),
                _ => false,
            }
        }
        match self.dtype {
            Some(DType::I32) => fill(self, out, |x: i32| Some(i64::from(x))),
            Some(DType::I64) => fill(self, out, Some),
            Some(DType::F32) => fill(self, out, |x: f32| integral(f64::from(x))),
            Some(DType::F64) => fill(self, out, integral),
            _ => false,
        }
    }

    /// The elements of a payload of `T`'s dtype, converted from the
    /// sender's byte order as they are read; `None` for any other dtype.
    pub fn elements<T: Element>(&self) -> Option<impl ExactSizeIterator<Item = T> + 'a> {
        let order = self.order;
        (self.dtype == Some(T::DTYPE)).then(|| {
            self.payload
                .chunks_exact(T::SIZE)
                .map(move |c| T::get(c, order))
        })
    }
}

/// A float as an integer, when it is one (saturating at the `i64` range,
/// as `as` does).
fn integral(x: f64) -> Option<i64> {
    (x.fract() == 0.0).then_some(x as i64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bare_frame_roundtrip() {
        let f = Frame::bare(MsgKind::Request, 77);
        let d = f.encode();
        assert_eq!(d.len(), HEADER_LEN);
        assert_eq!(Frame::decode(&d).unwrap(), f);
    }

    #[test]
    fn data_frame_roundtrip_little_endian() {
        let f = Frame::with_value(
            MsgKind::Data,
            3,
            Endianness::Little,
            VisitValue::F64(vec![1.5, -2.25]),
        );
        assert_eq!(Frame::decode(&f.encode()).unwrap(), f);
    }

    #[test]
    fn data_frame_roundtrip_big_endian() {
        // a big-endian client (the paper's Cray/SGI case) encodes BE; the
        // decode (server side) converts transparently.
        let f = Frame::with_value(
            MsgKind::Data,
            9,
            Endianness::Big,
            VisitValue::I32(vec![0x01020304, -7]),
        );
        let decoded = Frame::decode(&f.encode()).unwrap();
        assert_eq!(decoded.value, f.value);
    }

    #[test]
    fn truncated_frames_rejected() {
        let f = Frame::with_value(
            MsgKind::Data,
            1,
            Endianness::Little,
            VisitValue::I32(vec![1, 2, 3]),
        );
        let d = f.encode();
        for cut in 0..d.len() {
            assert!(Frame::decode(&d[..cut]).is_none(), "cut={cut}");
        }
    }

    #[test]
    fn garbage_kind_rejected() {
        let mut d = Frame::bare(MsgKind::Bye, 0).encode();
        d[0] = 200;
        assert!(Frame::decode(&d).is_none());
    }

    #[test]
    fn a_nonzero_reserved_byte_is_rejected() {
        let mut d =
            Frame::with_value(MsgKind::Data, 2, Endianness::Big, VisitValue::I32(vec![7])).encode();
        d[3] = 1;
        assert!(Frame::decode(&d).is_none());
    }

    #[test]
    fn bare_frame_with_trailing_bytes_rejected() {
        let mut d = Frame::bare(MsgKind::Bye, 0).encode();
        d.push(1);
        assert!(Frame::decode(&d).is_none());
    }

    #[test]
    fn wire_size_matches_encoding() {
        let f = Frame::with_value(
            MsgKind::Reply,
            5,
            Endianness::Little,
            VisitValue::Str("plasma".into()),
        );
        assert_eq!(f.encode().len(), f.wire_size());
    }
}

#[cfg(test)]
mod props {
    //! Property tests over the frame layer: arbitrary payloads round-trip,
    //! and malformed frames (truncated, oversized, garbage) are rejected
    //! without panicking — the server parses hostile bytes.

    use super::*;
    use proptest::prelude::*;

    /// Build a `VisitValue` of an arbitrary dtype from raw bytes (float
    /// variants go through `from_bits`, so NaN payloads are exercised).
    fn value_from(sel: u8, data: &[u8]) -> VisitValue {
        match sel % 6 {
            0 => VisitValue::I32(
                data.chunks_exact(4)
                    .map(|c| i32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            1 => VisitValue::I64(
                data.chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            2 => VisitValue::F32(
                data.chunks_exact(4)
                    .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().unwrap())))
                    .collect(),
            ),
            3 => VisitValue::F64(
                data.chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
                    .collect(),
            ),
            4 => VisitValue::Str(String::from_utf8_lossy(data).into_owned()),
            _ => VisitValue::Bytes(data.to_vec()),
        }
    }

    fn kind_from(sel: u8) -> MsgKind {
        MsgKind::from_byte(1 + sel % 8).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Encoding is a fixed point: decode(encode(f)).encode() == encode(f)
        /// for every kind/tag/order/dtype, including NaN float payloads
        /// (which defeat PartialEq but must survive byte-for-byte).
        #[test]
        fn frame_reencodes_identically(
            ksel in any::<u8>(),
            vsel in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..128),
            tag in any::<u32>(),
            big in any::<bool>(),
        ) {
            let order = if big { Endianness::Big } else { Endianness::Little };
            let f = Frame::with_value(kind_from(ksel), tag, order, value_from(vsel, &data));
            let bytes = f.encode();
            let decoded = Frame::decode(&bytes).expect("own encoding must parse");
            prop_assert_eq!(decoded.encode(), bytes);
        }

        /// Every strict prefix of a valid frame is rejected (no panic, no
        /// partial parse).
        #[test]
        fn truncated_frames_rejected(
            vsel in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 1..96),
            cut_sel in any::<u16>(),
        ) {
            let f = Frame::with_value(
                MsgKind::Data,
                1,
                Endianness::Little,
                value_from(vsel, &data),
            );
            let bytes = f.encode();
            let cut = cut_sel as usize % bytes.len();
            prop_assert!(Frame::decode(&bytes[..cut]).is_none(), "cut={}", cut);
        }

        /// Trailing garbage after a well-formed frame is rejected — the
        /// declared element count is authoritative.
        #[test]
        fn oversized_frames_rejected(
            vsel in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..64),
            extra in proptest::collection::vec(any::<u8>(), 1..16),
        ) {
            let f = Frame::with_value(
                MsgKind::Reply,
                9,
                Endianness::Little,
                value_from(vsel, &data),
            );
            let mut bytes = f.encode();
            bytes.extend_from_slice(&extra);
            prop_assert!(Frame::decode(&bytes).is_none());
        }

        /// Arbitrary byte soup never panics the decoder.
        #[test]
        fn garbage_never_panics(data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = Frame::decode(&data);
        }

        /// Single-byte corruption of a valid frame either still parses or
        /// is rejected — never a panic, and never a changed payload length.
        #[test]
        fn bit_flips_never_panic(
            vsel in any::<u8>(),
            data in proptest::collection::vec(any::<u8>(), 0..64),
            pos_sel in any::<u16>(),
            flip in 1u8..=255,
        ) {
            let f = Frame::with_value(
                MsgKind::Data,
                3,
                Endianness::Little,
                value_from(vsel, &data),
            );
            let mut bytes = f.encode();
            let pos = pos_sel as usize % bytes.len();
            bytes[pos] ^= flip;
            if let Some(parsed) = Frame::decode(&bytes) {
                prop_assert_eq!(parsed.wire_size(), bytes.len());
            }
        }
    }
}
