//! Framebuffer codecs: delta + run-length encoding.
//!
//! §2.4: VizServer "greatly reduces network traffic since only compressed
//! bitmaps need to be sent to the participating sites". This module is that
//! compressed-bitmap path. The codec is deliberately simple and fast —
//! the point of experiment EC1 is the *byte-volume shape* (pixels vs
//! geometry vs parameter-sync), not codec sophistication:
//!
//! 1. **Delta stage** — XOR against the previous frame (inter-frame
//!    coherence: a slowly rotating isosurface changes few pixels).
//! 2. **RLE stage** — byte-wise run-length encoding of the (mostly zero)
//!    delta, or of the raw frame for keyframes.
//!
//! Encoding is parallel over row-aligned bands of at least
//! [`BAND_MIN_BYTES`] (each band is delta'd and RLE'd independently, then
//! the band payloads are concatenated in order). Band boundaries depend
//! only on the frame width, never on the thread count, so the wire bytes
//! are identical at any parallelism — and frames smaller than one band
//! (including the committed golden fixture) encode exactly as the serial
//! codec did. A run crossing a band boundary is emitted as two pairs,
//! which [`rle_decode`] reassembles transparently. The delta is never
//! built: the run scan reads `frame ^ previous` as it goes, and the
//! encoder's copy of the previous frame is refreshed in place.
//!
//! [`DeltaRleCodec::decode`] costs the runs it applies. It first checks
//! the whole run list against the frame size — even length, no zero
//! count, runs covering exactly `w×h×4` bytes — reading only the counts,
//! so a malformed or hostile payload is refused before anything is
//! reserved or written and the decoder's history is left as it was. A
//! delta's runs are then XORed into the history in place (runs of zero,
//! most of a delta, are skipped), and the caller gets one copy of it.

use crate::framebuffer::Framebuffer;

/// Minimum RLE band size; actual bands are whole rows. Fixed so the band
/// split (and therefore the payload bytes) never depends on thread count.
pub const BAND_MIN_BYTES: usize = 16 * 1024;

/// Band length in bytes for a frame of the given width: the smallest
/// whole-row multiple of the row stride that is ≥ [`BAND_MIN_BYTES`].
fn band_len(width: usize) -> usize {
    let row = (width * 4).max(1);
    row * BAND_MIN_BYTES.div_ceil(row)
}

/// An encoded frame: either a keyframe (self-contained) or a delta against
/// the previous frame.
#[derive(Debug, Clone, PartialEq)]
pub struct EncodedFrame {
    /// True if this frame can be decoded without history.
    pub keyframe: bool,
    /// RLE payload.
    pub payload: Vec<u8>,
    /// Original (uncompressed) size in bytes.
    pub raw_size: usize,
}

impl EncodedFrame {
    /// Compressed size in bytes (what actually crosses the network).
    pub fn wire_size(&self) -> usize {
        self.payload.len() + 8 // payload + tiny header
    }

    /// Compression ratio `raw / wire` (>1 means compression won). An
    /// empty frame (zero raw bytes, or a degenerate zero-byte wire size)
    /// reports 0.0 rather than dividing by zero.
    pub fn ratio(&self) -> f64 {
        let wire = self.wire_size();
        if wire == 0 || self.raw_size == 0 {
            return 0.0;
        }
        self.raw_size as f64 / wire as f64
    }
}

/// Byte-wise run-length encode: pairs `(count, byte)` with count ∈ 1..=255.
///
/// The run scan has a scalar reference and a SWAR fast path selected by
/// [`lanes::backend`]; both produce exactly the same run lengths, so the
/// wire bytes are identical on either backend.
pub fn rle_encode(data: &[u8]) -> Vec<u8> {
    rle_encode_src(data)
}

/// A byte sequence the run scan reads: a plain slice, or the XOR of two
/// equal-length slices — a delta frame, scanned without being built.
trait RunSource {
    fn len(&self) -> usize;
    fn byte(&self, i: usize) -> u8;
    /// The eight bytes from `j`, loaded little-endian (so byte order
    /// matches memory order).
    fn word(&self, j: usize) -> u64;
}

impl RunSource for [u8] {
    fn len(&self) -> usize {
        <[u8]>::len(self)
    }

    #[inline(always)]
    fn byte(&self, i: usize) -> u8 {
        self[i]
    }

    #[inline(always)]
    fn word(&self, j: usize) -> u64 {
        u64::from_le_bytes(self[j..j + 8].try_into().expect("an eight-byte slice"))
    }
}

/// `frame ^ previous`, byte by byte, read where it is needed.
struct Xor<'a>(&'a [u8], &'a [u8]);

impl RunSource for Xor<'_> {
    fn len(&self) -> usize {
        self.0.len()
    }

    #[inline(always)]
    fn byte(&self, i: usize) -> u8 {
        self.0[i] ^ self.1[i]
    }

    #[inline(always)]
    fn word(&self, j: usize) -> u64 {
        self.0.word(j) ^ self.1.word(j)
    }
}

/// [`rle_encode`] of whatever `data` reads as.
fn rle_encode_src<S: RunSource + ?Sized>(data: &S) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() / 4 + 16);
    let swar = lanes::simd_enabled();
    let mut i = 0;
    while i < data.len() {
        let b = data.byte(i);
        let run = if swar {
            run_len_swar(data, i, b)
        } else {
            run_len_scalar(data, i, b)
        };
        out.push(run as u8);
        out.push(b);
        i += run;
    }
    out
}

/// Reference run scan: length of the run of `b` starting at `data[i]`,
/// capped at 255.
#[inline(always)]
fn run_len_scalar<S: RunSource + ?Sized>(data: &S, i: usize, b: u8) -> usize {
    let mut run = 1usize;
    while run < 255 && i + run < data.len() && data.byte(i + run) == b {
        run += 1;
    }
    run
}

/// SWAR run scan: XORs eight input bytes at a time against the broadcast
/// run byte; the first mismatch position is the trailing-zero count of the
/// XOR word (bytes loaded little-endian, so byte order matches memory
/// order). Returns exactly [`run_len_scalar`]'s answer — this changes scan
/// speed, never the emitted pairs.
#[inline(always)]
fn run_len_swar<S: RunSource + ?Sized>(data: &S, i: usize, b: u8) -> usize {
    const W: usize = 8;
    let limit = data.len().min(i + 255);
    let splat = (b as u64) * 0x0101_0101_0101_0101;
    let mut j = i + 1;
    while j + W <= limit {
        let diff = data.word(j) ^ splat;
        if diff != 0 {
            return j - i + diff.trailing_zeros() as usize / 8;
        }
        j += W;
    }
    while j < limit && data.byte(j) == b {
        j += 1;
    }
    j - i
}

/// Inverse of [`rle_encode`]. Returns `None` on malformed input. The
/// reference expansion, bounded by nothing but its input (up to 255 bytes
/// per pair); [`DeltaRleCodec::decode`] checks a frame's runs against the
/// frame size before expanding them.
pub fn rle_decode(data: &[u8]) -> Option<Vec<u8>> {
    if !data.len().is_multiple_of(2) {
        return None;
    }
    let mut out = Vec::with_capacity(data.len() * 4);
    for pair in data.chunks_exact(2) {
        let (count, b) = (pair[0], pair[1]);
        if count == 0 {
            return None;
        }
        out.extend(std::iter::repeat_n(b, count as usize));
    }
    Some(out)
}

/// Stateful delta+RLE codec. Encoder and decoder each keep the previous
/// frame; a decoder fed every frame in order reconstructs exactly.
#[derive(Debug, Default)]
pub struct DeltaRleCodec {
    prev: Option<Vec<u8>>,
    /// Force a keyframe every `keyframe_interval` frames (0 = only first).
    pub keyframe_interval: usize,
    frame_count: usize,
}

impl DeltaRleCodec {
    /// New codec; first frame is always a keyframe.
    pub fn new() -> Self {
        DeltaRleCodec {
            prev: None,
            keyframe_interval: 0,
            frame_count: 0,
        }
    }

    /// Reset history (forces the next frame to be a keyframe).
    pub fn reset(&mut self) {
        self.prev = None;
        self.frame_count = 0;
    }

    /// Encode a framebuffer on the default shared executor pool.
    pub fn encode(&mut self, fb: &Framebuffer) -> EncodedFrame {
        self.encode_with(&gridsteer_exec::global(), fb)
    }

    /// Encode a framebuffer on an explicit executor pool. Parallel over
    /// row bands (see the module docs); output bytes are identical for any
    /// thread count.
    pub fn encode_with(
        &mut self,
        pool: &gridsteer_exec::ExecPool,
        fb: &Framebuffer,
    ) -> EncodedFrame {
        let raw = fb.bytes();
        let force_key =
            self.keyframe_interval > 0 && self.frame_count.is_multiple_of(self.keyframe_interval);
        self.frame_count += 1;
        let bl = band_len(fb.width());
        let bands = raw.len().div_ceil(bl);
        let band = |i: usize| i * bl..((i + 1) * bl).min(raw.len());
        let delta_base = self.prev.as_deref().filter(|prev| prev.len() == raw.len());
        let (keyframe, encoded) = match delta_base {
            Some(prev) if !force_key => (
                false,
                pool.map(bands, |i| {
                    rle_encode_src(&Xor(&raw[band(i)], &prev[band(i)]))
                }),
            ),
            _ => (true, pool.map(bands, |i| rle_encode(&raw[band(i)]))),
        };
        match &mut self.prev {
            Some(prev) if prev.len() == raw.len() => prev.copy_from_slice(raw),
            prev => *prev = Some(raw.to_vec()),
        }
        EncodedFrame {
            keyframe,
            payload: encoded.concat(), // ordered band concatenation
            raw_size: raw.len(),
        }
    }

    /// Decode into a framebuffer of the given dimensions. Returns `None` if
    /// the payload is malformed, sizes mismatch, or a delta frame arrives
    /// without history; the history is then left as it was.
    pub fn decode(
        &mut self,
        frame: &EncodedFrame,
        width: usize,
        height: usize,
    ) -> Option<Framebuffer> {
        let len = width.checked_mul(height)?.checked_mul(4)?;
        if !runs_cover(&frame.payload, len) {
            return None;
        }
        let runs = frame
            .payload
            .chunks_exact(2)
            .map(|p| (usize::from(p[0]), p[1]));
        let history = if frame.keyframe {
            let history = self.prev.get_or_insert_with(Vec::new);
            history.clear();
            history.reserve_exact(len);
            for (count, b) in runs {
                history.extend(std::iter::repeat_n(b, count));
            }
            history
        } else {
            let history = self.prev.as_mut().filter(|prev| prev.len() == len)?;
            let mut at = 0;
            for (count, b) in runs {
                if b != 0 {
                    for p in &mut history[at..at + count] {
                        *p ^= b;
                    }
                }
                at += count;
            }
            history
        };
        Some(Framebuffer::from_pixels(width, height, history.clone()))
    }
}

/// Whether `payload` is a well-formed run list — `(count, byte)` pairs,
/// no count zero — expanding to exactly `len` bytes. Reads the counts
/// only and stops at the first run past `len`.
fn runs_cover(payload: &[u8], len: usize) -> bool {
    if !payload.len().is_multiple_of(2) {
        return false;
    }
    let mut total = 0usize;
    for pair in payload.chunks_exact(2) {
        if pair[0] == 0 {
            return false;
        }
        total += usize::from(pair[0]);
        if total > len {
            return false;
        }
    }
    total == len
}

#[cfg(test)]
mod props {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The SWAR run scan answers exactly like the scalar reference at
        /// every start position — including runs crossing the 255 cap and
        /// mismatches at every offset inside a word. The tiny alphabet
        /// makes long runs (and 255-cap crossings) common.
        #[test]
        fn swar_run_scan_matches_scalar_reference(
            data in proptest::collection::vec(0u8..3, 1..600),
            start in 0usize..600,
        ) {
            let start = start % data.len();
            let b = data[start];
            prop_assert_eq!(
                run_len_swar(&data[..], start, b),
                run_len_scalar(&data[..], start, b)
            );
        }

        /// RLE is lossless over arbitrary bytes — the payload bytes of
        /// every encoded framebuffer plane.
        #[test]
        fn rle_roundtrips_arbitrary_bytes(
            data in proptest::collection::vec(any::<u8>(), 0..2048),
        ) {
            prop_assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
        }

        /// RLE is lossless over grids of raw f32 bit patterns including
        /// NaN payloads: the codec must treat float planes as opaque
        /// bytes, never canonicalizing a NaN.
        #[test]
        fn rle_roundtrips_nan_payload_grids(
            words in proptest::collection::vec(any::<u32>(), 1..256),
        ) {
            // steer a third of the lattice values into quiet/signalling
            // NaNs with arbitrary payload bits
            let grid: Vec<f32> = words
                .iter()
                .map(|&w| match w % 3 {
                    0 => f32::from_bits(0x7fc0_0000 | (w >> 10)),
                    1 => f32::from_bits(0xff80_0001 | (w >> 10)),
                    _ => f32::from_bits(w),
                })
                .collect();
            let bytes: Vec<u8> = grid.iter().flat_map(|v| v.to_bits().to_le_bytes()).collect();
            let back = rle_decode(&rle_encode(&bytes)).unwrap();
            prop_assert_eq!(back, bytes);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rle_roundtrip_simple() {
        let data = b"aaaabbbcccccccccccd";
        assert_eq!(rle_decode(&rle_encode(data)).unwrap(), data);
    }

    #[test]
    fn rle_handles_long_runs() {
        let data = vec![7u8; 1000];
        let enc = rle_encode(&data);
        assert!(enc.len() <= 10); // ceil(1000/255)*2
        assert_eq!(rle_decode(&enc).unwrap(), data);
    }

    #[test]
    fn rle_rejects_malformed() {
        assert!(rle_decode(&[1]).is_none()); // odd length
        assert!(rle_decode(&[0, 5]).is_none()); // zero count
    }

    #[test]
    fn rle_empty_input() {
        assert_eq!(rle_encode(&[]), Vec::<u8>::new());
        assert_eq!(rle_decode(&[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn rle_single_byte() {
        let enc = rle_encode(&[42]);
        assert_eq!(enc, vec![1, 42]);
        assert_eq!(rle_decode(&enc).unwrap(), vec![42]);
    }

    #[test]
    fn rle_single_run_entire_input() {
        // One homogeneous run shorter than the count limit → exactly one pair.
        let data = vec![9u8; 200];
        let enc = rle_encode(&data);
        assert_eq!(enc, vec![200, 9]);
        assert_eq!(rle_decode(&enc).unwrap(), data);
    }

    #[test]
    fn rle_max_length_run_boundary() {
        // Exactly 255: the maximum a single pair can carry.
        let exact = vec![3u8; 255];
        assert_eq!(rle_encode(&exact), vec![255, 3]);
        assert_eq!(rle_decode(&rle_encode(&exact)).unwrap(), exact);
        // 256: must split into 255 + 1, same byte in both pairs.
        let over = vec![3u8; 256];
        assert_eq!(rle_encode(&over), vec![255, 3, 1, 3]);
        assert_eq!(rle_decode(&rle_encode(&over)).unwrap(), over);
    }

    #[test]
    fn rle_run_boundary_then_different_byte() {
        // A max-length run followed by a different byte must not merge.
        let mut data = vec![8u8; 255];
        data.push(1);
        assert_eq!(rle_encode(&data), vec![255, 8, 1, 1]);
        assert_eq!(rle_decode(&rle_encode(&data)).unwrap(), data);
    }

    #[test]
    fn rle_worst_case_alternation_expands_2x() {
        // No two adjacent bytes equal → every byte costs a (count, byte) pair.
        let data: Vec<u8> = (0..100u8).collect();
        let enc = rle_encode(&data);
        assert_eq!(enc.len(), data.len() * 2);
        assert_eq!(rle_decode(&enc).unwrap(), data);
    }

    #[test]
    fn swar_and_scalar_run_scans_agree() {
        // Adversarial run shapes: boundary at 255, mismatches at every
        // offset within a SWAR word, tail shorter than a word.
        let mut cases: Vec<Vec<u8>> = vec![
            vec![],
            vec![5],
            vec![5; 254],
            vec![5; 255],
            vec![5; 256],
            vec![5; 1021],
            (0..100u8).collect(),
        ];
        for off in 0..9 {
            let mut v = vec![7u8; 40 + off];
            v.push(9);
            v.extend(vec![7u8; 3]);
            cases.push(v);
        }
        for data in cases.iter().map(Vec::as_slice) {
            let mut i = 0;
            while i < data.len() {
                let b = data[i];
                let s = run_len_scalar(data, i, b);
                let w = run_len_swar(data, i, b);
                assert_eq!(s, w, "len={} i={i}", data.len());
                i += s;
            }
        }
    }

    #[test]
    fn empty_framebuffer_encodes_and_ratio_is_finite() {
        let mut enc = DeltaRleCodec::new();
        let mut dec = DeltaRleCodec::new();
        let fb = Framebuffer::new(0, 0);
        for _ in 0..2 {
            let f = enc.encode(&fb);
            assert_eq!(f.raw_size, 0);
            assert!(f.payload.is_empty());
            assert_eq!(f.ratio(), 0.0, "no division by the 0-byte raw size");
            assert!(f.ratio().is_finite());
            assert_eq!(dec.decode(&f, 0, 0).unwrap(), fb);
        }
    }

    #[test]
    fn codec_minimal_framebuffer() {
        // 1×1 RGBA: the smallest frame the delta path can see.
        let mut enc = DeltaRleCodec::new();
        let mut dec = DeltaRleCodec::new();
        let mut fb = Framebuffer::new(1, 1);
        fb.set(0, 0, [1, 2, 3, 255]);
        for _ in 0..3 {
            let e = enc.encode(&fb);
            assert_eq!(dec.decode(&e, 1, 1).unwrap(), fb);
        }
    }

    #[test]
    fn codec_reset_forces_keyframe() {
        let mut enc = DeltaRleCodec::new();
        let fb = Framebuffer::new(4, 4);
        assert!(enc.encode(&fb).keyframe);
        assert!(!enc.encode(&fb).keyframe);
        enc.reset();
        assert!(enc.encode(&fb).keyframe);
    }

    #[test]
    fn first_frame_is_keyframe() {
        let mut c = DeltaRleCodec::new();
        let fb = Framebuffer::new(8, 8);
        let f = c.encode(&fb);
        assert!(f.keyframe);
    }

    #[test]
    fn static_scene_compresses_to_almost_nothing() {
        let mut enc = DeltaRleCodec::new();
        let fb = Framebuffer::new(64, 64);
        let _key = enc.encode(&fb);
        let delta = enc.encode(&fb);
        assert!(!delta.keyframe);
        // all-zero delta: one run pair per 255 bytes
        assert!(delta.wire_size() < fb.byte_size() / 100);
        assert!(delta.ratio() > 100.0);
    }

    #[test]
    fn encode_decode_roundtrip_over_changes() {
        let mut enc = DeltaRleCodec::new();
        let mut dec = DeltaRleCodec::new();
        let mut fb = Framebuffer::new(16, 16);
        for step in 0..10 {
            fb.set(step, step, [step as u8 * 20, 5, 200, 255]);
            let frame = enc.encode(&fb);
            let out = dec.decode(&frame, 16, 16).unwrap();
            assert_eq!(out, fb, "step {step}");
        }
    }

    #[test]
    fn delta_without_history_fails() {
        let mut enc = DeltaRleCodec::new();
        let fb = Framebuffer::new(4, 4);
        let _ = enc.encode(&fb);
        let delta = enc.encode(&fb);
        let mut fresh_dec = DeltaRleCodec::new();
        assert!(fresh_dec.decode(&delta, 4, 4).is_none());
    }

    #[test]
    fn keyframe_interval_forces_keys() {
        let mut enc = DeltaRleCodec::new();
        enc.keyframe_interval = 3;
        let fb = Framebuffer::new(4, 4);
        let kinds: Vec<bool> = (0..7).map(|_| enc.encode(&fb).keyframe).collect();
        assert_eq!(kinds, vec![true, false, false, true, false, false, true]);
    }

    #[test]
    fn malformed_frames_are_refused_and_leave_the_history_alone() {
        let (w, h) = (16, 8);
        let len = w * h * 4;
        let mut enc = DeltaRleCodec::new();
        let mut dec = DeltaRleCodec::new();
        let mut fb = Framebuffer::new(w, h);
        fb.set(1, 1, [9, 8, 7, 255]);
        assert_eq!(dec.decode(&enc.encode(&fb), w, h).unwrap(), fb);
        // a well-formed delta that would flip every byte, then broken: were
        // any of it applied before the refusal, the history would show it
        let flip = rle_encode(&vec![0x5a; len]);
        let with = |tail: &[u8]| [&flip[..], tail].concat();
        let malformed = [
            with(&[1]),                        // odd length
            with(&[0, 0x5a]),                  // a zero count
            with(&[1, 0x5a]),                  // runs past w×h×4
            flip[..flip.len() - 2].to_vec(),   // runs short of it
            [255, 0x5a].repeat(len / 255 + 2), // far past it
            Vec::new(),                        // no runs at all
        ];
        for (k, payload) in malformed.into_iter().enumerate() {
            for keyframe in [false, true] {
                let frame = EncodedFrame {
                    keyframe,
                    payload: payload.clone(),
                    raw_size: len,
                };
                assert!(dec.decode(&frame, w, h).is_none(), "case {k}");
            }
            fb.set(k, 2, [k as u8, 1, 2, 255]);
            let next = enc.encode(&fb);
            assert!(!next.keyframe);
            assert_eq!(dec.decode(&next, w, h).unwrap(), fb, "after case {k}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mut enc = DeltaRleCodec::new();
        let fb = Framebuffer::new(8, 8);
        let f = enc.encode(&fb);
        let mut dec = DeltaRleCodec::new();
        assert!(dec.decode(&f, 4, 4).is_none());
    }
}
