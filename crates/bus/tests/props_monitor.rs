//! Property tests for the monitor-bus codecs (ISSUE 5 satellite): every
//! [`MonitorFrame`] payload kind must round-trip losslessly through the
//! tagged binary codec and through the VISIT wire adapter (both byte
//! orders, including NaN-filled grids, asserted at the bit level), the
//! binary codec must reject truncation, and the loopback and VISIT
//! endpoints must be observationally equivalent.

use gridsteer_bus::{
    FrameBytesCell, FrameChunk, FrameCodecError, LoopbackMonitor, MonitorCaps, MonitorEndpoint,
    MonitorFrame, MonitorHub, MonitorPayload, VisitMonitor,
};
use proptest::prelude::*;
use visit::Endianness;

/// Build a `MonitorPayload` of an arbitrary kind from raw bytes. Float
/// payloads go through `from_bits`, so NaN bit patterns are exercised —
/// the byte-stability assertions below don't rely on `PartialEq`.
fn payload_from(sel: u8, name: &str, data: &[u8]) -> MonitorPayload<'static> {
    let f64_at = |i: usize| {
        let mut b = [0u8; 8];
        for (j, slot) in b.iter_mut().enumerate() {
            *slot = data.get(i * 8 + j).copied().unwrap_or(0);
        }
        f64::from_bits(u64::from_le_bytes(b))
    };
    let f32s = || -> Vec<f32> {
        data.chunks(4)
            .map(|c| {
                let mut b = [0u8; 4];
                b[..c.len()].copy_from_slice(c);
                f32::from_bits(u32::from_le_bytes(b))
            })
            .collect()
    };
    match sel % 5 {
        0 => MonitorPayload::scalar(name, f64_at(0)),
        1 => MonitorPayload::vec3(name, [f64_at(0), f64_at(1), f64_at(2)]),
        2 => {
            let vals = f32s();
            MonitorPayload::grid2(name, vals.len() as u32, 1, vals)
        }
        3 => {
            let vals = f32s();
            MonitorPayload::grid3(name, 1, vals.len() as u32, 1, vals)
        }
        _ => MonitorPayload::frame(
            name,
            data.first().copied().unwrap_or(0) & 1 == 1,
            data.len() as u32,
            data.to_vec(),
        ),
    }
}

/// A lossless lowercase channel name derived from arbitrary bytes.
fn ascii_name(bytes: &[u8]) -> String {
    bytes.iter().map(|b| (b'a' + b % 26) as char).collect()
}

/// Drive an endpoint the way the hub does — through its one delivery
/// method — with a chunk over all of `frames` and a fresh encode cache.
fn deliver(ep: &mut dyn MonitorEndpoint, frames: &[MonitorFrame]) -> usize {
    let cache = vec![FrameBytesCell::new(); frames.len()];
    let all: Vec<usize> = (0..frames.len()).collect();
    ep.deliver(&FrameChunk::new(frames, &cache, &all)).unwrap()
}

/// Byte-level equality witness: canonical binary encodings are compared,
/// so NaN payloads count as equal iff their bits are.
fn bytes_of(f: &MonitorFrame) -> Vec<u8> {
    f.to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Binary codec round-trip: decode(encode(f)) re-encodes
    /// byte-identically and consumes the buffer exactly.
    #[test]
    fn binary_codec_roundtrip_every_kind(
        sel in any::<u8>(),
        seq in any::<u64>(),
        step in any::<u64>(),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..12),
        data in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let name = ascii_name(&name_bytes);
        let frame = MonitorFrame { seq, step, payload: payload_from(sel, &name, &data) };
        let bytes = bytes_of(&frame);
        prop_assert_eq!(bytes.len(), frame.wire_size());
        let mut slice: &[u8] = &bytes;
        let back = MonitorFrame::decode_bytes(&mut slice).expect("own encoding must parse");
        prop_assert!(slice.is_empty(), "decode must consume exactly");
        prop_assert_eq!(bytes_of(&back), bytes);
        prop_assert_eq!(back.seq, seq);
        prop_assert_eq!(back.step, step);
    }

    /// Truncating a binary-encoded frame is always rejected, never a
    /// panic or a partial parse.
    #[test]
    fn binary_codec_rejects_truncation(
        sel in any::<u8>(),
        name_bytes in proptest::collection::vec(any::<u8>(), 0..8),
        data in proptest::collection::vec(any::<u8>(), 0..48),
        cut_sel in any::<u16>(),
    ) {
        let name = ascii_name(&name_bytes);
        let frame = MonitorFrame { seq: 1, step: 2, payload: payload_from(sel, &name, &data) };
        let bytes = bytes_of(&frame);
        let cut = cut_sel as usize % bytes.len();
        let mut slice: &[u8] = &bytes[..cut];
        prop_assert!(MonitorFrame::decode_bytes(&mut slice).is_none(), "cut={}", cut);
    }

    /// VISIT wire round-trip, both byte orders: the frames a viewer
    /// receives re-encode to exactly the bytes that were delivered —
    /// including NaN-filled grids.
    #[test]
    fn visit_wire_roundtrip_every_kind(
        sel in any::<u8>(),
        seq in 0u64..1u64 << 62,
        step in 0u64..1u64 << 62,
        name_bytes in proptest::collection::vec(any::<u8>(), 0..12),
        data in proptest::collection::vec(any::<u8>(), 0..64),
        big in any::<bool>(),
    ) {
        let name = ascii_name(&name_bytes);
        let frame = MonitorFrame { seq, step, payload: payload_from(sel, &name, &data) };
        let order = if big { Endianness::Big } else { Endianness::Little };
        let mut ep = VisitMonitor::with_order(order);
        ep.negotiate(&MonitorCaps::full("prop", 8));
        prop_assert_eq!(deliver(&mut ep, std::slice::from_ref(&frame)), 1);
        let got = ep.recv();
        prop_assert_eq!(got.len(), 1);
        prop_assert_eq!(bytes_of(&got[0]), bytes_of(&frame));
    }

    /// Endpoint equivalence: for any frame batch, the VISIT endpoint
    /// (full frames-over-link path) delivers exactly what the loopback
    /// endpoint does.
    #[test]
    fn visit_endpoint_matches_loopback(
        sels in proptest::collection::vec(any::<u8>(), 1..6),
        data in proptest::collection::vec(any::<u8>(), 0..32),
        big in any::<bool>(),
    ) {
        let frames: Vec<MonitorFrame> = sels
            .iter()
            .enumerate()
            .map(|(i, sel)| MonitorFrame {
                seq: i as u64 + 1,
                step: 7,
                payload: payload_from(*sel, "ch", &data),
            })
            .collect();
        let via_loopback = {
            let mut ep = LoopbackMonitor::new();
            ep.negotiate(&MonitorCaps::full("prop", 64));
            deliver(&mut ep, &frames);
            ep.recv().iter().map(bytes_of).collect::<Vec<_>>()
        };
        let via_visit = {
            let order = if big { Endianness::Big } else { Endianness::Little };
            let mut ep = VisitMonitor::with_order(order);
            ep.negotiate(&MonitorCaps::full("prop", 64));
            deliver(&mut ep, &frames);
            ep.recv().iter().map(bytes_of).collect::<Vec<_>>()
        };
        prop_assert_eq!(via_loopback, via_visit);
    }

    /// Hub fan-out equivalence across *all five* transports: the same
    /// published stream reaches every subscriber with identical bytes in
    /// identical order (grids only — the kinds every transport carries).
    #[test]
    fn all_transports_agree_through_the_hub(
        grids in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 1..9),
            1..5
        ),
    ) {
        use gridsteer_bus::Transport;
        let payloads: Vec<MonitorPayload> = grids
            .iter()
            .map(|bits| {
                let vals: Vec<f32> = bits.iter().map(|b| f32::from_bits(*b)).collect();
                MonitorPayload::grid2("g", vals.len() as u32, 1, vals)
            })
            .collect();
        let mut streams: Vec<Vec<Vec<u8>>> = Vec::new();
        for t in Transport::ALL {
            let hub = MonitorHub::new();
            hub.attach_endpoint("v", t.attach_monitor("v"), &MonitorCaps::full("prop", 64));
            hub.publish_batch(3, payloads.clone());
            streams.push(hub.recv("v").iter().map(bytes_of).collect());
        }
        for pair in streams.windows(2) {
            prop_assert_eq!(&pair[0], &pair[1]);
        }
    }

    /// Channel names past the codec's u16 length field are rejected as a
    /// typed error, never silently truncated (ISSUE 7 bugfix): the old
    /// `as u16` cast wrapped the length prefix, desynchronising every
    /// frame that followed on the wire.
    #[test]
    fn codec_rejects_names_past_u16(
        extra in 0usize..512,
        value_bits in any::<u64>(),
    ) {
        let len = u16::MAX as usize + 1 + extra;
        let name = "n".repeat(len);
        let frame = MonitorFrame {
            seq: 1,
            step: 2,
            payload: MonitorPayload::scalar(&name, f64::from_bits(value_bits)),
        };
        prop_assert_eq!(frame.validate(), Err(FrameCodecError::NameTooLong { len }));
        prop_assert_eq!(frame.try_to_bytes(), Err(FrameCodecError::NameTooLong { len }));
        // A name exactly at the field's capacity still encodes.
        let fit = MonitorFrame {
            seq: 1,
            step: 2,
            payload: MonitorPayload::scalar(&name[..u16::MAX as usize], 0.0),
        };
        prop_assert!(fit.validate().is_ok());
    }

    /// Grid frames whose declared extents disagree with the payload —
    /// including extents whose product overflows past u32/usize — are
    /// rejected with the mismatch error instead of wrapping the length
    /// prefix (ISSUE 7 bugfix for the `as u32` cast).
    #[test]
    fn codec_rejects_grid_shape_mismatch(
        nx in 32u32..=u32::MAX,
        ny in 2u32..=u32::MAX,
        data in proptest::collection::vec(any::<u32>(), 0..32),
        three_d in any::<bool>(),
    ) {
        let vals: Vec<f32> = data.iter().map(|b| f32::from_bits(*b)).collect();
        // nx ≥ 32 and ny ≥ 2 ⇒ the declared extent (≥ 64) can never
        // match the < 32 elements actually carried.
        let expected = (nx as usize).checked_mul(ny as usize);
        let len = vals.len();
        // The `grid2`/`grid3` constructors assert the shape, so the
        // mismatched payload is built the way a buggy adapter would:
        // variant-literally, bypassing the checked constructors.
        let payload = if three_d {
            MonitorPayload::Grid3 {
                name: "phi".into(),
                nx,
                ny,
                nz: 1,
                data: vals.into(),
            }
        } else {
            MonitorPayload::Grid2 {
                name: "phi".into(),
                nx,
                ny,
                data: vals.into(),
            }
        };
        let frame = MonitorFrame { seq: 7, step: 9, payload };
        prop_assert_eq!(
            frame.validate(),
            Err(FrameCodecError::GridShapeMismatch { expected, len })
        );
        prop_assert_eq!(
            frame.try_to_bytes(),
            Err(FrameCodecError::GridShapeMismatch { expected, len })
        );
    }
}
