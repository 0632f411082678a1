//! Property tests for the snapshot codec: arbitrary section sets —
//! including NaN-bearing float grids and zero-length bodies — round-trip
//! bit-exactly through full encode/decode, deltas reconstruct the same
//! state as fulls, the wrong version, decode path or base is a typed
//! refusal, and random mutations never panic the decoder.

use gridsteer_ckpt::{CkptError, Section, SectionReader, SectionWriter, Snapshot, VERSION};
use proptest::prelude::*;

/// Build a snapshot from flat drawn primitives: `sizes[i]` bytes of body
/// for section `i`, drawn from `pool`, with `chunks[i]` as its grain.
fn build_snapshot(
    seq: u64,
    time_ns: u64,
    sizes: &[usize],
    chunks: &[u32],
    pool: &[u8],
) -> Snapshot {
    let mut snap = Snapshot::new(seq, time_ns);
    let mut off = 0usize;
    for (i, (&sz, &chunk)) in sizes.iter().zip(chunks).enumerate() {
        let bytes: Vec<u8> = (0..sz)
            .map(|j| pool[(off + j) % pool.len().max(1)])
            .collect();
        off += sz;
        snap.push(&format!("sec{i}"), chunk, bytes);
    }
    snap
}

proptest! {
    #[test]
    fn full_roundtrip(
        seq in any::<u64>(),
        time_ns in any::<u64>(),
        sizes in collection::vec(0usize..300, 0..6),
        chunks in collection::vec(0u32..=128, 6),
        pool in collection::vec(any::<u8>(), 1..512),
        version in any::<u16>(),
    ) {
        let snap = build_snapshot(seq, time_ns, &sizes, &chunks, &pool);
        let mut bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        prop_assert_eq!(back, snap);
        // any version but the reader's own is refused, never guessed at
        let version = if version == VERSION { version.wrapping_add(1) } else { version };
        bytes[6..8].copy_from_slice(&version.to_le_bytes());
        prop_assert_eq!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion { found: version, supported: VERSION })
        );
    }

    #[test]
    fn float_grids_roundtrip_bit_exact(bits in collection::vec(any::<u64>(), 0..256)) {
        // raw u64 bit patterns cover every NaN payload and signed zero
        let grid: Vec<f64> = bits.iter().copied().map(f64::from_bits).collect();
        let mut w = SectionWriter::new();
        w.put_u64(grid.len() as u64);
        grid.iter().for_each(|&v| w.put_f64(v));
        let mut snap = Snapshot::new(1, 2);
        snap.push("grid", 64, w.finish());
        let back = Snapshot::decode(&snap.encode()).unwrap();
        let mut r = SectionReader::new(back.section("grid").unwrap(), "grid");
        let n = r.get_u64().unwrap();
        let back_bits: Vec<u64> = (0..n).map(|_| r.get_f64().unwrap().to_bits()).collect();
        prop_assert_eq!(back_bits, bits);
        r.expect_end().unwrap();
    }

    #[test]
    fn delta_reconstructs_exact_state(
        sizes in collection::vec(0usize..300, 1..6),
        chunks in collection::vec(0u32..=64, 6),
        pool in collection::vec(any::<u8>(), 1..512),
        flips in collection::vec(any::<u64>(), 0..8),
    ) {
        let base = build_snapshot(7, 11, &sizes, &chunks, &pool);
        let mut next = base.clone();
        next.seq = 8;
        for f in flips {
            let s = (f as usize) % next.sections.len();
            let body = &mut next.sections[s].bytes;
            if body.is_empty() {
                continue;
            }
            let b = ((f >> 16) as usize) % body.len();
            body[b] ^= (f >> 40) as u8 | 1;
        }
        let delta = next.encode_delta(&base);
        let full = next.encode();
        let applied = Snapshot::decode_delta(&delta, &base).unwrap();
        prop_assert_eq!(&applied, &next);
        // and the delta path agrees exactly with the full path
        let via_full = Snapshot::decode(&full).unwrap();
        prop_assert_eq!(applied, via_full);
        // the wrong decode path and the wrong base are typed refusals
        prop_assert_eq!(Snapshot::decode(&delta), Err(CkptError::IsDelta));
        prop_assert_eq!(Snapshot::decode_delta(&full, &base), Err(CkptError::NotADelta));
        let mut stranger = base.clone();
        stranger.seq = 99;
        prop_assert_eq!(
            Snapshot::decode_delta(&delta, &stranger),
            Err(CkptError::BaseMismatch { expected: 7, found: 99 })
        );
    }

    #[test]
    fn truncation_never_panics(
        sizes in collection::vec(0usize..100, 0..4),
        chunks in collection::vec(0u32..=32, 4),
        pool in collection::vec(any::<u8>(), 1..128),
        cut_sel in any::<u64>(),
    ) {
        let snap = build_snapshot(1, 2, &sizes, &chunks, &pool);
        let bytes = snap.encode();
        let n = (cut_sel as usize) % bytes.len();
        let err = Snapshot::decode(&bytes[..n]).unwrap_err();
        prop_assert!(matches!(err, CkptError::Truncated { .. } | CkptError::BadMagic));
    }

    #[test]
    fn random_mutation_never_panics(
        sizes in collection::vec(0usize..100, 0..4),
        chunks in collection::vec(0u32..=32, 4),
        pool in collection::vec(any::<u8>(), 1..128),
        at_sel in any::<u64>(),
        x in 1u8..=255,
    ) {
        let snap = build_snapshot(1, 2, &sizes, &chunks, &pool);
        let mut bytes = snap.encode();
        let i = (at_sel as usize) % bytes.len();
        bytes[i] ^= x;
        // decode must return Ok or a typed error, never panic
        let _ = Snapshot::decode(&bytes);
        let _ = Snapshot::decode_delta(&bytes, &snap);
    }

    #[test]
    fn zero_length_sections_roundtrip(chunks in collection::vec(0u32..=16, 1..4)) {
        let mut snap = Snapshot::new(0, 0);
        for (i, &c) in chunks.iter().enumerate() {
            snap.push(&format!("empty{i}"), c, Vec::new());
        }
        let back = Snapshot::decode(&snap.encode()).unwrap();
        prop_assert_eq!(&back, &snap);
        // empty sections delta cleanly too
        let delta = snap.encode_delta(&back);
        prop_assert_eq!(Snapshot::decode_delta(&delta, &back).unwrap(), snap);
    }
}

/// The `Section` type is plain data; sanity-check its public construction.
#[test]
fn section_fields_are_public() {
    let s = Section {
        name: "x".into(),
        chunk: 8,
        bytes: vec![1, 2, 3],
    };
    let mut snap = Snapshot::new(1, 1);
    snap.sections.push(s);
    assert_eq!(snap.section("x"), Some(&[1u8, 2, 3][..]));
}
