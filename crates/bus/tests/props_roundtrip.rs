//! Property tests for the typed-value codecs (ISSUE 4 satellite):
//! every [`ParamValue`] variant must ride the VISIT wire codec and the
//! loopback endpoint byte-stably and losslessly, and the tagged binary
//! codec (UNICORE payloads, checkpoints) must reject truncation.

use gridsteer_bus::{
    BoundsPolicy, ParamSpec, ParamValue, SteerCommand, SteerEndpoint, SteerHub, Transport,
};
use gridsteer_ckpt::SectionReader;
use proptest::prelude::*;
use visit::wire::{encode_frame, FrameView};
use visit::{Endianness, Frame, MsgKind};

/// Build a `ParamValue` of an arbitrary kind from raw bytes. Float
/// payloads go through `from_bits`, so NaN bit patterns are exercised —
/// the byte-stability assertions below don't rely on `PartialEq`.
fn value_from(sel: u8, data: &[u8]) -> ParamValue {
    let f64_at = |i: usize| {
        let mut b = [0u8; 8];
        for (j, slot) in b.iter_mut().enumerate() {
            *slot = data.get(i * 8 + j).copied().unwrap_or(0);
        }
        f64::from_bits(u64::from_le_bytes(b))
    };
    match sel % 5 {
        0 => ParamValue::F64(f64_at(0)),
        1 => ParamValue::I64(i64::from_le_bytes([
            data.first().copied().unwrap_or(0),
            data.get(1).copied().unwrap_or(0),
            data.get(2).copied().unwrap_or(0),
            data.get(3).copied().unwrap_or(0),
            data.get(4).copied().unwrap_or(0),
            data.get(5).copied().unwrap_or(0),
            data.get(6).copied().unwrap_or(0),
            data.get(7).copied().unwrap_or(0),
        ])),
        2 => ParamValue::Bool(data.first().copied().unwrap_or(0) & 1 == 1),
        3 => ParamValue::Vec3([f64_at(0), f64_at(1), f64_at(2)]),
        _ => ParamValue::Str(String::from_utf8_lossy(data).into_owned()),
    }
}

/// True if the value contains a NaN (defeats `PartialEq`; byte-level
/// assertions still hold for these).
fn has_nan(v: &ParamValue) -> bool {
    match v {
        ParamValue::F64(x) => x.is_nan(),
        ParamValue::Vec3(c) => c.iter().any(|x| x.is_nan()),
        _ => false,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// VISIT wire round-trip: value → borrowed payload → frame bytes →
    /// parse → value. The re-encoded frame must be byte-identical
    /// (including NaN payloads) — and so must the owned frame the same
    /// bytes decode to — and for comparable values the decoded value must
    /// equal the original.
    #[test]
    fn visit_wire_roundtrip_every_variant(
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        tag in any::<u32>(),
        big in any::<bool>(),
    ) {
        let v = value_from(sel, &data);
        let order = if big { Endianness::Big } else { Endianness::Little };
        let framed = |v: &ParamValue| {
            let mut bytes = Vec::new();
            encode_frame(MsgKind::Data, tag, order, Some(v.to_visit()), &mut bytes);
            bytes
        };
        let bytes = framed(&v);
        let owned = Frame::decode(&bytes).expect("own encoding must parse");
        prop_assert_eq!(owned.encode(), bytes.clone());
        let view = FrameView::parse(&bytes).expect("own encoding must parse");
        let back = ParamValue::from_visit(v.kind(), &view)
            .expect("kind-directed decode must succeed");
        // byte-stable: re-encoding the decoded value reproduces the wire
        prop_assert_eq!(framed(&back), bytes);
        // lossless: equal whenever PartialEq can witness it
        if !has_nan(&v) {
            prop_assert_eq!(back, v);
        }
    }

    /// Tagged binary codec round-trip (UNICORE / checkpoint
    /// payloads): decode(encode(v)) re-encodes byte-identically and
    /// consumes the buffer exactly.
    #[test]
    fn binary_codec_roundtrip_every_variant(
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let v = value_from(sel, &data);
        let mut buf = bytes::BytesMut::new();
        v.encode_bytes(&mut buf);
        let mut r = SectionReader::new(&buf, "value");
        let back = ParamValue::read(&mut r).expect("own encoding must parse");
        prop_assert!(r.expect_end().is_ok(), "decode must consume exactly");
        let mut buf2 = bytes::BytesMut::new();
        back.encode_bytes(&mut buf2);
        prop_assert_eq!(&buf2[..], &buf[..]);
        if !has_nan(&v) {
            prop_assert_eq!(back, v);
        }
    }

    /// Truncating a binary-encoded value is always rejected, never a
    /// panic or a partial parse.
    #[test]
    fn binary_codec_rejects_truncation(
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        cut_sel in any::<u16>(),
    ) {
        let v = value_from(sel, &data);
        let mut buf = bytes::BytesMut::new();
        v.encode_bytes(&mut buf);
        let cut = cut_sel as usize % buf.len();
        let mut r = SectionReader::new(&buf[..cut], "value");
        prop_assert!(ParamValue::read(&mut r).is_err(), "cut={}", cut);
    }

    /// Loopback-endpoint round-trip: a staged + committed value of every
    /// kind is read back identical through the endpoint.
    #[test]
    fn loopback_endpoint_roundtrip_every_variant(
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
    ) {
        let v = value_from(sel, &data);
        if has_nan(&v) {
            continue;
        }
        let spec = ParamSpec {
            name: "p".into(),
            kind: v.kind(),
            min: None,
            max: None,
            initial: v.clone(),
            policy: BoundsPolicy::Reject,
        };
        let hub = SteerHub::new(vec![spec]);
        let mut ep = Transport::Loopback.attach(&hub, "prop");
        ep.set_batch(vec![SteerCommand::new("p", v.clone())]).unwrap();
        let out = hub.commit();
        prop_assert_eq!(out.applied, 1);
        prop_assert_eq!(ep.get("p"), Some(v));
    }

    /// The VISIT *endpoint* (full frames-over-link path) agrees with the
    /// loopback endpoint for every kind the wire can carry.
    #[test]
    fn visit_endpoint_matches_loopback(
        sel in any::<u8>(),
        data in proptest::collection::vec(any::<u8>(), 0..48),
        big in any::<bool>(),
    ) {
        let v = value_from(sel, &data);
        if has_nan(&v) {
            continue;
        }
        let spec = ParamSpec {
            name: "p".into(),
            kind: v.kind(),
            min: None,
            max: None,
            initial: ParamValue::Bool(false),
            policy: BoundsPolicy::Reject,
        };
        let mk_hub = || SteerHub::new(vec![ParamSpec { initial: v.clone(), ..spec.clone() }]);
        let via_loopback = {
            let hub = mk_hub();
            let mut ep = Transport::Loopback.attach(&hub, "a");
            ep.set_batch(vec![SteerCommand::new("p", v.clone())]).unwrap();
            hub.commit();
            hub.get("p")
        };
        let via_visit = {
            let hub = mk_hub();
            let order = if big { Endianness::Big } else { Endianness::Little };
            let mut ep = gridsteer_bus::VisitEndpoint::attach_with_order(&hub, "a", order);
            ep.set_batch(vec![SteerCommand::new("p", v.clone())]).unwrap();
            hub.commit();
            hub.get("p")
        };
        prop_assert_eq!(via_loopback, via_visit);
    }
}
