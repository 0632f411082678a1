//! Versioned binary snapshot format for full session state.
//!
//! The ROADMAP's checkpoint/restore item: a production steering service
//! needs crash recovery and rolling upgrades, not just the planned §2.4
//! hand-offs. This crate is the *wire format* half of that story — the
//! domain crates (LBM, PEPC, the steering/monitor hubs, sessions) each
//! know how to lay their own state into named [`Section`]s, and a
//! [`Snapshot`] frames those sections with a magic, an explicit version,
//! and little-endian integer fields throughout, so a snapshot written on
//! one host restores bit-exactly on any other.
//!
//! # Format
//!
//! ```text
//! header   := magic "GSCKPT" | version u16 | flags u8 | seq u64
//!           | base_seq u64 | time_ns u64 | section_count u32
//! section  := name_len u16 | name utf-8 | chunk u32 | body
//! body     := kind u8 (0 = full)   | len u64 | bytes            -- full
//!           | kind u8 (1 = sparse) | total u64 | ndirty u32
//!           | (index u32 | len u32 | bytes)*                    -- delta
//! ```
//!
//! All integers are little-endian; floats are carried as raw bit
//! patterns ([`SectionWriter::put_f64`] writes `to_bits()`), so
//! NaN-bearing grids round-trip bit-exactly.
//!
//! # Deltas
//!
//! A section's `chunk` field is its dirty-tracking granularity in bytes
//! (0 = the whole section is one chunk). Backends pick a granularity
//! aligned with their executor chunking — the LBM uses one z-plane of
//! distributions per chunk, matching the exec pool's fixed chunk→index
//! map — and [`Snapshot::encode_delta`] emits only the chunks whose
//! bytes changed against a base snapshot. [`Snapshot::decode_delta`]
//! replays them over the base; a chain `[full, delta, delta…]` restores
//! by decoding the full snapshot and applying each delta in order.
//!
//! A section with more than half of its chunks dirty is not worth a chunk
//! list: the delta carries it whole, with the `full` body a full snapshot
//! would give it (as it always has for a section the base lacks or holds
//! at another length). Classifying a section stops at the first chunk
//! past the half-way mark, so a delta in which everything changed — an
//! LBM after a step — costs one copy to write, is never larger than the
//! full snapshot, and decodes with one copy per section instead of a copy
//! of the base plus an overwrite. The threshold is fixed; it is not a
//! setting. [`Snapshot::delta_len`] is the exact length of that delta
//! blob — header, section heads, bodies and chunk index/length words —
//! without encoding it, so the keeper of a chain can cut a fresh full
//! snapshot once the blobs it holds would outweigh one.
//!
//! Both encoders reserve their output once, at its exact encoded size.
//! Section names are bounded by the header's `u16` length:
//! [`Snapshot::push`] panics on a longer one ([`MAX_SECTION_NAME`]), at
//! the cut, rather than letting the length wrap into a blob that fails at
//! the restore.
//!
//! # Version policy
//!
//! [`VERSION`] bumps on any layout change; a reader rejects snapshots
//! from a different version with
//! [`CkptError::UnsupportedVersion`] rather than guessing. There is no
//! cross-version migration — a checkpoint is a *short-lived* artifact
//! (crash recovery, migration transfer), not an archive format.
//!
//! The framing above has not changed since version 1; each bump records
//! a layout change *inside* sections. Version 2 made the session's event
//! log and the registry's change log bounded windows (`evicted u64 |
//! fold u64 | n u32 | entries`). Version 3 (current) drops state nothing
//! read back: the registry's change log and counter and the handshake
//! lines from `steer`, the handshake lines from `monitor` and
//! `relay/*/children`, the fan-out and per-participant sample counters
//! from `session/*`. A blob of another version is refused with
//! [`CkptError::UnsupportedVersion`].

use std::fmt;

/// Leading magic of every snapshot.
pub const MAGIC: [u8; 6] = *b"GSCKPT";

/// Current format version. Bumps on any layout change.
pub const VERSION: u16 = 3;

/// Header flag bit: the blob is a delta against a base snapshot.
const FLAG_DELTA: u8 = 1;

/// Encoded length of the snapshot header (see the module doc's layout).
const HEADER_BYTES: usize = MAGIC.len() + 2 + 1 + 8 + 8 + 8 + 4;

/// Longest section name the format's `u16` name length can carry.
pub const MAX_SECTION_NAME: usize = u16::MAX as usize;

/// Section body kind: complete bytes follow.
const KIND_FULL: u8 = 0;
/// Section body kind: sparse dirty chunks over a base section follow.
const KIND_SPARSE: u8 = 1;

/// Typed decode failures of the tree's bounded reader ([`SectionReader`]):
/// snapshots, and every wire codec that reads through it. Every variant
/// names what the reader was doing when the bytes ran out or disagreed,
/// so corrupt bytes produce an attributable error instead of a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// The blob does not start with [`MAGIC`].
    BadMagic,
    /// The blob's format version is not this reader's [`VERSION`].
    UnsupportedVersion {
        /// Version found in the header.
        found: u16,
        /// The only version this reader accepts.
        supported: u16,
    },
    /// The bytes ran out mid-field.
    Truncated {
        /// What was being read.
        context: String,
        /// Bytes the field needed.
        needed: usize,
        /// Bytes that were left.
        have: usize,
    },
    /// Decoding finished with unread bytes left over.
    TrailingBytes {
        /// Count of unconsumed bytes.
        extra: usize,
    },
    /// A full-snapshot decode was handed a delta blob.
    IsDelta,
    /// A delta decode was handed a full-snapshot blob.
    NotADelta,
    /// A delta's recorded base sequence number does not match the base
    /// snapshot it is being applied to.
    BaseMismatch {
        /// The base seq the delta was cut against.
        expected: u64,
        /// The seq of the snapshot offered as base.
        found: u64,
    },
    /// A delta references a section the base snapshot does not carry, or
    /// whose base length disagrees with the recorded total.
    MissingSection {
        /// The section name.
        name: String,
    },
    /// A structural invariant failed (bad UTF-8, an unknown kind byte, a
    /// dirty chunk out of bounds).
    Corrupt {
        /// What was being read.
        context: String,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a snapshot: bad magic"),
            CkptError::UnsupportedVersion { found, supported } => {
                write!(
                    f,
                    "snapshot version {found} unsupported (reader is v{supported})"
                )
            }
            CkptError::Truncated {
                context,
                needed,
                have,
            } => write!(
                f,
                "truncated at {context}: need {needed} bytes, have {have}"
            ),
            CkptError::TrailingBytes { extra } => {
                write!(f, "trailing bytes after the last field: {extra}")
            }
            CkptError::IsDelta => write!(f, "blob is a delta; decode it against its base"),
            CkptError::NotADelta => write!(f, "blob is a full snapshot, not a delta"),
            CkptError::BaseMismatch { expected, found } => {
                write!(
                    f,
                    "delta cut against base seq {expected}, applied to seq {found}"
                )
            }
            CkptError::MissingSection { name } => {
                write!(
                    f,
                    "delta references section {name:?} absent or resized in base"
                )
            }
            CkptError::Corrupt { context } => write!(f, "corrupt bytes at {context}"),
        }
    }
}

impl std::error::Error for CkptError {}

// ---------------------------------------------------------------------------
// section body writer / reader
// ---------------------------------------------------------------------------

/// Append-only builder for one section's body bytes. All integers are
/// little-endian; floats are written as raw bit patterns.
#[derive(Debug, Default)]
pub struct SectionWriter {
    buf: Vec<u8>,
}

impl SectionWriter {
    /// An empty body.
    pub fn new() -> SectionWriter {
        SectionWriter::default()
    }

    /// A body expecting roughly `cap` bytes.
    pub fn with_capacity(cap: usize) -> SectionWriter {
        SectionWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte (0/1).
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u16`, little-endian.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern (NaN-exact).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append an `f32` as its raw bit pattern (NaN-exact).
    pub fn put_f32(&mut self, v: f32) {
        self.put_u32(v.to_bits());
    }

    /// Append a length-prefixed UTF-8 string (u32 length).
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Append a length-prefixed byte string (u64 length).
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u64(b.len() as u64);
        self.buf.extend_from_slice(b);
    }

    /// Append a length-prefixed `f64` slice as raw bit patterns.
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        // an exact-size iterator: one reservation, then a straight copy
        let bytes = vs.iter().flat_map(|v| v.to_bits().to_le_bytes());
        self.buf.extend(bytes);
    }

    /// Append a length-prefixed `f32` slice as raw bit patterns.
    pub fn put_f32_slice(&mut self, vs: &[f32]) {
        self.put_u64(vs.len() as u64);
        let bytes = vs.iter().flat_map(|v| v.to_bits().to_le_bytes());
        self.buf.extend(bytes);
    }

    /// The accumulated body bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written so far, in place.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Forget what was written and keep the buffer (a writer reused to
    /// encode many small items one at a time).
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

/// The tree's one bounded little-endian reader — the decode twin of
/// [`SectionWriter`], and what checkpoint sections and the bus and core
/// wire codecs (values, commands, monitor frames, UNICORE staged files,
/// TCP session frames) decode through. Every read checks the bytes behind
/// it first and returns [`CkptError::Truncated`] instead of panicking when
/// they run out; a count is checked against the bytes before anything is
/// reserved for it.
#[derive(Debug)]
pub struct SectionReader<'a> {
    rest: &'a [u8],
    context: &'a str,
}

impl<'a> SectionReader<'a> {
    /// A reader over `bytes`; `context` names what is read in errors.
    pub fn new(bytes: &'a [u8], context: &'a str) -> SectionReader<'a> {
        SectionReader {
            rest: bytes,
            context,
        }
    }

    /// Read the next `n` bytes in place.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CkptError> {
        if self.rest.len() < n {
            return Err(CkptError::Truncated {
                context: self.context.to_string(),
                needed: n,
                have: self.rest.len(),
            });
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, CkptError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1).
    pub fn get_bool(&mut self) -> Result<bool, CkptError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CkptError::Corrupt {
                context: format!("{}: bool", self.context),
            }),
        }
    }

    /// Read a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, CkptError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Read a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CkptError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Read a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CkptError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read a little-endian `i64`.
    pub fn get_i64(&mut self) -> Result<i64, CkptError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Read an `f64` from its raw bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, CkptError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read an `f32` from its raw bit pattern.
    pub fn get_f32(&mut self) -> Result<f32, CkptError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, CkptError> {
        self.get_str_ref().map(str::to_string)
    }

    /// Read a length-prefixed UTF-8 string in place, borrowed from the
    /// section's bytes.
    pub fn get_str_ref(&mut self) -> Result<&'a str, CkptError> {
        let len = self.get_u32()? as usize;
        self.utf8(len, "utf-8 string")
    }

    /// Read a `u16`-length-prefixed UTF-8 name in place — the wire's
    /// short string (parameter and channel names, session names).
    pub fn get_name(&mut self) -> Result<&'a str, CkptError> {
        let len = usize::from(self.get_u16()?);
        self.utf8(len, "utf-8 name")
    }

    fn utf8(&mut self, len: usize, what: &str) -> Result<&'a str, CkptError> {
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| CkptError::Corrupt {
            context: format!("{}: {what}", self.context),
        })
    }

    /// Read a length-prefixed byte string.
    pub fn get_byte_vec(&mut self) -> Result<Vec<u8>, CkptError> {
        let len = self.get_u64()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed `f64` slice from raw bit patterns.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, CkptError> {
        let count = self.get_u64()? as usize;
        let raw = self.take(count.saturating_mul(8))?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
            .collect())
    }

    /// Read a length-prefixed `f32` slice from raw bit patterns.
    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>, CkptError> {
        let count = self.get_u64()? as usize;
        self.get_f32_run(count)
    }

    /// Read `count` `f32`s from raw bit patterns, with no length prefix
    /// (the count came from elsewhere, e.g. a grid's extents). Nothing is
    /// reserved unless the bytes are there.
    pub fn get_f32_run(&mut self, count: usize) -> Result<Vec<f32>, CkptError> {
        let raw = self.take(count.saturating_mul(4))?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| f32::from_bits(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
            .collect())
    }

    /// Unread bytes left.
    pub fn remaining(&self) -> usize {
        self.rest.len()
    }

    /// The unread tail, in place.
    pub fn rest(&self) -> &'a [u8] {
        self.rest
    }

    /// Succeed only if every byte was consumed.
    pub fn expect_end(&self) -> Result<(), CkptError> {
        if self.rest.is_empty() {
            Ok(())
        } else {
            Err(CkptError::TrailingBytes {
                extra: self.rest.len(),
            })
        }
    }
}

// ---------------------------------------------------------------------------
// snapshot
// ---------------------------------------------------------------------------

/// One named state section inside a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Section {
    /// Section name, unique within a snapshot (e.g. `"lbm/fa"`).
    pub name: String,
    /// Dirty-tracking granularity in bytes for delta checkpoints
    /// (0 = whole section). Pick the producer's executor chunk size so
    /// dirty chunks align with the exec pool's fixed chunk→index map.
    pub chunk: u32,
    /// The section body (typically built with [`SectionWriter`]).
    pub bytes: Vec<u8>,
}

/// A versioned, endianness-explicit snapshot of named state sections.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// Monotone checkpoint sequence number (delta chains reference it).
    pub seq: u64,
    /// Virtual-clock time the checkpoint was cut at, nanoseconds.
    pub time_ns: u64,
    /// The sections, in producer order.
    pub sections: Vec<Section>,
}

impl Snapshot {
    /// An empty snapshot.
    pub fn new(seq: u64, time_ns: u64) -> Snapshot {
        Snapshot {
            seq,
            time_ns,
            sections: Vec::new(),
        }
    }

    /// Append a section.
    ///
    /// Section names are code-chosen prefixes over validated names, so a
    /// name past the format's `u16` length is a programming error: it
    /// fails here, at the cut that made it, not at the restore that would
    /// read a wrapped length.
    pub fn push(&mut self, name: &str, chunk: u32, bytes: Vec<u8>) {
        assert!(
            name.len() <= MAX_SECTION_NAME,
            "section name {:?}… is {} bytes, over the format's {MAX_SECTION_NAME}",
            name.chars().take(32).collect::<String>(),
            name.len(),
        );
        self.sections.push(Section {
            name: name.to_string(),
            chunk,
            bytes,
        });
    }

    /// A section's body bytes by name.
    pub fn section(&self, name: &str) -> Option<&[u8]> {
        self.sections
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.bytes.as_slice())
    }

    /// A checked [`SectionReader`] over a named section, or
    /// [`CkptError::MissingSection`].
    pub fn reader<'a>(&'a self, name: &'a str) -> Result<SectionReader<'a>, CkptError> {
        self.section(name)
            .map(|b| SectionReader::new(b, name))
            .ok_or_else(|| CkptError::MissingSection {
                name: name.to_string(),
            })
    }

    /// Total body bytes across all sections.
    pub fn state_bytes(&self) -> usize {
        self.sections.iter().map(|s| s.bytes.len()).sum()
    }

    /// Encoded length of the header and every section head.
    fn frame_len(&self) -> usize {
        let heads: usize = self.sections.iter().map(|s| 2 + s.name.len() + 4).sum();
        HEADER_BYTES + heads
    }

    /// The blob's header, in a buffer reserved once for the header, every
    /// section head and `body_bytes` of section bodies — what the caller
    /// is about to append, so no blob is ever re-grown.
    fn encode_header(&self, flags: u8, base_seq: u64, body_bytes: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.frame_len() + body_bytes);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.push(flags);
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&base_seq.to_le_bytes());
        out.extend_from_slice(&self.time_ns.to_le_bytes());
        let count =
            u32::try_from(self.sections.len()).expect("section count fits the format's u32");
        out.extend_from_slice(&count.to_le_bytes());
        out
    }

    /// Serialize as a full snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let bodies = (self.sections.iter()).map(|s| DeltaBody::Full.encoded_len(s.bytes.len()));
        let mut out = self.encode_header(0, 0, bodies.sum());
        for s in &self.sections {
            put_section_head(&mut out, s);
            put_full_body(&mut out, &s.bytes);
        }
        out
    }

    /// Serialize as a delta against `base`: a section carries only the
    /// chunks whose bytes changed, unless more than half of them did —
    /// then it is written whole, exactly as in a full snapshot, so an
    /// all-dirty delta costs one copy to write and one to read back.
    /// Sections absent from `base` (or whose length changed — chunk
    /// indices would not line up) are written whole as well.
    pub fn encode_delta(&self, base: &Snapshot) -> Vec<u8> {
        let plans: Vec<DeltaBody> = self.sections.iter().map(|s| s.plan(base)).collect();
        let bodies = (plans.iter().zip(&self.sections)).map(|(p, s)| p.encoded_len(s.bytes.len()));
        let mut out = self.encode_header(FLAG_DELTA, base.seq, bodies.sum());
        for (s, plan) in self.sections.iter().zip(plans) {
            put_section_head(&mut out, s);
            let DeltaBody::Sparse { old, ndirty, .. } = plan else {
                put_full_body(&mut out, &s.bytes);
                continue;
            };
            out.push(KIND_SPARSE);
            out.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
            out.extend_from_slice(&ndirty.to_le_bytes());
            let grain = effective_chunk(s.chunk, s.bytes.len());
            let chunks = s.bytes.chunks(grain).zip(old.chunks(grain));
            for (i, (new, _)) in chunks.enumerate().filter(|(_, (new, old))| new != old) {
                let idx = u32::try_from(i).expect("chunk index fits the format's u32");
                let len = u32::try_from(new.len()).expect("a sparse chunk is at most `chunk` long");
                out.extend_from_slice(&idx.to_le_bytes());
                out.extend_from_slice(&len.to_le_bytes());
                out.extend_from_slice(new);
            }
        }
        out
    }

    /// The exact length of [`Snapshot::encode_delta`] against `base`,
    /// from the same cheap classification it starts with — nothing is
    /// encoded. A chain keeper compares what it holds plus this with
    /// [`Snapshot::state_bytes`] to decide when a full cut is cheaper to
    /// hold than one more delta.
    pub fn delta_len(&self, base: &Snapshot) -> usize {
        let bodies = (self.sections.iter()).map(|s| s.plan(base).encoded_len(s.bytes.len()));
        self.frame_len() + bodies.sum::<usize>()
    }

    /// Decode a full snapshot. Rejects deltas with [`CkptError::IsDelta`].
    pub fn decode(bytes: &[u8]) -> Result<Snapshot, CkptError> {
        decode_blob(bytes, None).map(|(snap, _)| snap)
    }

    /// Decode a delta blob and apply it over `base`, producing the full
    /// state at the delta's cut point. The delta must have been encoded
    /// against a base with `base.seq` ([`CkptError::BaseMismatch`]).
    pub fn decode_delta(bytes: &[u8], base: &Snapshot) -> Result<Snapshot, CkptError> {
        let (snap, base_seq) = decode_blob(bytes, Some(base))?;
        if base_seq != base.seq {
            return Err(CkptError::BaseMismatch {
                expected: base_seq,
                found: base.seq,
            });
        }
        Ok(snap)
    }

    /// Peek whether an encoded blob is a delta, validating only the
    /// header (magic + version).
    pub fn is_delta(bytes: &[u8]) -> Result<bool, CkptError> {
        let mut r = SectionReader::new(bytes, "header");
        check_magic_version(&mut r)?;
        Ok(r.get_u8()? & FLAG_DELTA != 0)
    }
}

/// How a delta writes one section.
enum DeltaBody<'a> {
    /// Whole, as in a full snapshot.
    Full,
    /// Only the `ndirty` chunks that differ from the base's bytes `old`,
    /// `bytes` long together.
    Sparse {
        old: &'a [u8],
        ndirty: u32,
        bytes: usize,
    },
}

impl DeltaBody<'_> {
    /// Encoded length of this body for a section of `len` bytes: kind and
    /// length, then the bytes — or the dirty count and, per dirty chunk,
    /// its index, length and bytes.
    fn encoded_len(&self, len: usize) -> usize {
        match *self {
            DeltaBody::Full => 1 + 8 + len,
            DeltaBody::Sparse { ndirty, bytes, .. } => 1 + 8 + 4 + 8 * ndirty as usize + bytes,
        }
    }
}

impl Section {
    /// Classify this section against `base` for a delta: whole when the
    /// base has no section of this name and length, or as soon as more
    /// than half of the chunks are seen to differ (slice `!=` stops at the
    /// first differing byte, so an all-dirty section is classified after
    /// touching a cache line in each of half its chunks).
    fn plan<'a>(&self, base: &'a Snapshot) -> DeltaBody<'a> {
        let same_len = |old: &&[u8]| old.len() == self.bytes.len();
        let Some(old) = base.section(&self.name).filter(same_len) else {
            return DeltaBody::Full;
        };
        let grain = effective_chunk(self.chunk, self.bytes.len());
        let nchunks = self.bytes.len().div_ceil(grain);
        let (mut ndirty, mut bytes) = (0usize, 0usize);
        for (new, old) in self.bytes.chunks(grain).zip(old.chunks(grain)) {
            if new != old {
                ndirty += 1;
                bytes += new.len();
                if 2 * ndirty > nchunks {
                    return DeltaBody::Full;
                }
            }
        }
        let ndirty = u32::try_from(ndirty).expect("chunk count fits the format's u32");
        DeltaBody::Sparse { old, ndirty, bytes }
    }
}

fn put_section_head(out: &mut Vec<u8>, s: &Section) {
    let name_len = u16::try_from(s.name.len()).expect("push bounds the section name");
    out.extend_from_slice(&name_len.to_le_bytes());
    out.extend_from_slice(s.name.as_bytes());
    out.extend_from_slice(&s.chunk.to_le_bytes());
}

fn put_full_body(out: &mut Vec<u8>, bytes: &[u8]) {
    out.push(KIND_FULL);
    out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The working dirty-chunk grain: `chunk` bytes, or the whole section
/// when `chunk` is 0 or the section is empty.
fn effective_chunk(chunk: u32, len: usize) -> usize {
    if chunk == 0 {
        len.max(1)
    } else {
        chunk as usize
    }
}

fn check_magic_version(r: &mut SectionReader<'_>) -> Result<(), CkptError> {
    let magic = r.take(MAGIC.len())?;
    if magic != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let version = r.get_u16()?;
    if version != VERSION {
        return Err(CkptError::UnsupportedVersion {
            found: version,
            supported: VERSION,
        });
    }
    Ok(())
}

/// Decode a blob into the snapshot it describes and the base seq its
/// header records: a full snapshot when `base` is `None`, a delta applied
/// over `base` otherwise. The other kind of blob is refused.
fn decode_blob(bytes: &[u8], base: Option<&Snapshot>) -> Result<(Snapshot, u64), CkptError> {
    let mut r = SectionReader::new(bytes, "header");
    check_magic_version(&mut r)?;
    match (r.get_u8()? & FLAG_DELTA != 0, base) {
        (true, None) => return Err(CkptError::IsDelta),
        (false, Some(_)) => return Err(CkptError::NotADelta),
        _ => {}
    }
    let seq = r.get_u64()?;
    let base_seq = r.get_u64()?;
    let time_ns = r.get_u64()?;
    let count = r.get_u32()?;
    let mut snap = Snapshot::new(seq, time_ns);
    for _ in 0..count {
        let (name, chunk) = get_section_head(&mut r)?;
        let corrupt = |what: std::fmt::Arguments<'_>| CkptError::Corrupt {
            context: format!("section {name}: {what}"),
        };
        let body = match (r.get_u8()?, base) {
            (KIND_FULL, _) => r.get_byte_vec()?,
            (KIND_SPARSE, None) => {
                return Err(corrupt(format_args!("sparse body in full snapshot")))
            }
            (KIND_SPARSE, Some(base)) => {
                let total = r.get_u64()? as usize;
                let old = base
                    .section(&name)
                    .filter(|old| old.len() == total)
                    .ok_or_else(|| CkptError::MissingSection { name: name.clone() })?;
                let mut body = old.to_vec();
                let grain = effective_chunk(chunk, total);
                let ndirty = r.get_u32()?;
                for _ in 0..ndirty {
                    let idx = r.get_u32()? as usize;
                    let len = r.get_u32()? as usize;
                    let bytes = r.take(len)?;
                    let start = idx.saturating_mul(grain);
                    let ok = start
                        .checked_add(len)
                        .is_some_and(|end| end <= total && len <= grain);
                    if !ok {
                        return Err(corrupt(format_args!("dirty chunk {idx} out of bounds")));
                    }
                    body[start..start + len].copy_from_slice(bytes);
                }
                body
            }
            (k, _) => return Err(corrupt(format_args!("unknown body kind {k}"))),
        };
        snap.push(&name, chunk, body);
    }
    r.expect_end()?;
    Ok((snap, base_seq))
}

fn get_section_head(r: &mut SectionReader<'_>) -> Result<(String, u32), CkptError> {
    let name = r.get_name()?.to_string();
    let chunk = r.get_u32()?;
    Ok((name, chunk))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::new(3, 1_200_000_000);
        let mut w = SectionWriter::new();
        w.put_u64(42);
        w.put_f64(f64::NAN);
        w.put_str("miscibility");
        snap.push("meta", 0, w.finish());
        let grid: Vec<f64> = (0..64).map(|i| (i as f64).sin()).collect();
        let mut w = SectionWriter::new();
        w.put_f64_slice(&grid);
        snap.push("field", 64, w.finish());
        snap.push("empty", 0, Vec::new());
        snap
    }

    #[test]
    fn full_roundtrip_is_exact() {
        let snap = sample();
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).unwrap();
        assert_eq!(back, snap);
        assert!(!Snapshot::is_delta(&bytes).unwrap());
    }

    #[test]
    fn nan_bits_survive() {
        let weird = f64::from_bits(0x7ff8_dead_beef_0001);
        let mut snap = Snapshot::new(0, 0);
        let mut w = SectionWriter::new();
        w.put_f64(weird);
        w.put_f64_slice(&[f64::NAN, -0.0, f64::INFINITY]);
        snap.push("nan", 0, w.finish());
        let back = Snapshot::decode(&snap.encode()).unwrap();
        let mut r = back.reader("nan").unwrap();
        assert_eq!(r.get_f64().unwrap().to_bits(), weird.to_bits());
        let vs = r.get_f64_vec().unwrap();
        assert_eq!(vs[0].to_bits(), f64::NAN.to_bits());
        assert_eq!(vs[1].to_bits(), (-0.0f64).to_bits());
        r.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] ^= 0xff;
        assert_eq!(Snapshot::decode(&bytes), Err(CkptError::BadMagic));
    }

    #[test]
    fn version_mismatch_rejected() {
        let mut bytes = sample().encode();
        bytes[6] = 0x7f; // version low byte
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion {
                found: 0x7f,
                supported: VERSION
            })
        );
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in 0..bytes.len() {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::BadMagic),
                "cut at {cut}: {err}"
            );
        }
        // and of a delta that carries a whole-written and a sparse section
        let (base, next) = (sample(), all_dirty_field());
        let delta = next.encode_delta(&base);
        assert_eq!(body_kinds(&delta), [KIND_SPARSE, KIND_FULL, KIND_SPARSE]);
        for cut in 0..delta.len() {
            let err = Snapshot::decode_delta(&delta[..cut], &base).unwrap_err();
            assert!(
                matches!(err, CkptError::Truncated { .. } | CkptError::BadMagic),
                "delta cut at {cut}: {err}"
            );
        }
    }

    /// [`sample`] one cut later, with every chunk of `field` changed.
    fn all_dirty_field() -> Snapshot {
        let mut next = sample();
        next.seq = 4;
        for b in &mut next.sections[1].bytes {
            *b ^= 0x5a;
        }
        next
    }

    /// The body kind byte of every section of an encoded blob, in order.
    fn body_kinds(blob: &[u8]) -> Vec<u8> {
        let mut r = SectionReader::new(&blob[HEADER_BYTES - 4..], "test");
        let count = r.get_u32().unwrap();
        let mut kinds = Vec::new();
        for _ in 0..count {
            get_section_head(&mut r).unwrap();
            kinds.push(r.get_u8().unwrap());
            let len = r.get_u64().unwrap() as usize;
            if *kinds.last().unwrap() == KIND_FULL {
                r.take(len).unwrap();
                continue;
            }
            for _ in 0..r.get_u32().unwrap() {
                r.get_u32().unwrap();
                let len = r.get_u32().unwrap() as usize;
                r.take(len).unwrap();
            }
        }
        r.expect_end().unwrap();
        kinds
    }

    #[test]
    fn an_all_dirty_section_is_written_whole_and_nothing_is_regrown() {
        let (base, next) = (sample(), all_dirty_field());
        let (full, delta) = (next.encode(), next.encode_delta(&base));
        assert_eq!(full.capacity(), full.len(), "full blob reserved exactly");
        assert_eq!(delta.capacity(), delta.len(), "delta blob reserved exactly");
        assert!(
            delta.len() <= full.len(),
            "all-dirty delta {} outweighs the full cut {}",
            delta.len(),
            full.len()
        );
        assert_eq!(Snapshot::decode_delta(&delta, &base).unwrap(), next);
        assert_eq!(next.delta_len(&base), delta.len());
        // against a base without the sections, a delta is a full cut
        // with the delta flag set
        assert_eq!(next.delta_len(&Snapshot::new(0, 0)), full.len());
    }

    #[test]
    fn a_half_dirty_section_stays_sparse() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        // `field` is 520 bytes in 64-byte chunks: nine of them. Four dirty
        // is under half; a fifth tips it over.
        let field = &mut next.sections[1].bytes;
        for chunk in [0, 2, 5, 8] {
            field[chunk * 64] ^= 1;
        }
        let delta = next.encode_delta(&base);
        assert_eq!(body_kinds(&delta), [KIND_SPARSE; 3]);
        assert_eq!(delta.capacity(), delta.len());
        // four chunk records of `field`, each an index and a length word
        // before its bytes (the last chunk is 8 long), and `meta` and
        // `empty` listing none
        let field = 1 + 8 + 4 + 4 * (4 + 4) + 3 * 64 + 8;
        let clean = 1 + 8 + 4;
        assert_eq!(next.delta_len(&base), next.frame_len() + field + 2 * clean);
        assert_eq!(Snapshot::decode_delta(&delta, &base).unwrap(), next);
        next.sections[1].bytes[6 * 64] ^= 1;
        let delta = next.encode_delta(&base);
        assert_eq!(body_kinds(&delta), [KIND_SPARSE, KIND_FULL, KIND_SPARSE]);
        assert_eq!(Snapshot::decode_delta(&delta, &base).unwrap(), next);
    }

    #[test]
    fn delta_len_is_the_length_encode_delta_writes() {
        let (base, empty) = (sample(), Snapshot::new(0, 0));
        let edited = |edit: fn(&mut Snapshot)| {
            let mut next = base.clone();
            edit(&mut next);
            next
        };
        let cases = [
            ("unchanged", &base, base.clone()),
            ("sparse", &base, edited(|n| n.sections[1].bytes[64] ^= 1)),
            ("all-dirty", &base, all_dirty_field()),
            (
                "new section",
                &base,
                edited(|n| n.push("fresh", 4, vec![7; 10])),
            ),
            (
                "resized",
                &base,
                edited(|n| n.sections[1].bytes.truncate(100)),
            ),
            ("empty base", &empty, base.clone()),
            ("empty", &empty, Snapshot::new(1, 0)),
        ];
        for (what, base, next) in cases {
            let delta = next.encode_delta(base);
            assert_eq!(next.delta_len(base), delta.len(), "{what}");
            assert_eq!(Snapshot::decode_delta(&delta, base), Ok(next), "{what}");
        }
    }

    #[test]
    fn a_delta_listing_every_chunk_as_sparse_still_decodes() {
        // what `encode_delta` wrote for an all-dirty section before it
        // learned to write such a section whole — same format version
        let (base, next) = (sample(), all_dirty_field());
        let mut blob = next.encode_header(FLAG_DELTA, base.seq, 0);
        for s in &next.sections {
            put_section_head(&mut blob, s);
            blob.push(KIND_SPARSE);
            blob.extend_from_slice(&(s.bytes.len() as u64).to_le_bytes());
            let grain = effective_chunk(s.chunk, s.bytes.len());
            let chunks: Vec<&[u8]> = s.bytes.chunks(grain).collect();
            blob.extend_from_slice(&(chunks.len() as u32).to_le_bytes());
            for (i, chunk) in chunks.into_iter().enumerate() {
                blob.extend_from_slice(&(i as u32).to_le_bytes());
                blob.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
                blob.extend_from_slice(chunk);
            }
        }
        assert_eq!(body_kinds(&blob), [KIND_SPARSE; 3]);
        assert_eq!(Snapshot::decode_delta(&blob, &base).unwrap(), next);
    }

    #[test]
    fn bulk_float_slices_roundtrip_every_bit_pattern() {
        let f64s = [
            f64::from_bits(0x7ff8_dead_beef_0001), // quiet NaN with a payload
            f64::from_bits(0x7ff0_0000_0000_0001), // signalling NaN
            f64::from_bits(0xfff8_0000_0000_0000), // negative NaN
            -0.0,
            0.0,
            f64::from_bits(1),                      // smallest subnormal
            f64::MIN_POSITIVE / 2.0,                // a subnormal
            -f64::from_bits(0x000f_ffff_ffff_ffff), // largest subnormal, negated
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
            1.0 / 3.0,
        ];
        let f32s = [
            f32::from_bits(0x7fc0_beef),
            f32::from_bits(0x7f80_0001),
            f32::from_bits(0xffc0_0000),
            -0.0,
            0.0,
            f32::from_bits(1),
            f32::MIN_POSITIVE / 2.0,
            f32::INFINITY,
            f32::MIN,
            0.1,
        ];
        let mut w = SectionWriter::new();
        w.put_u8(9); // the slices need not start aligned
        w.put_f64_slice(&f64s);
        w.put_f32_slice(&f32s);
        w.put_f64_slice(&[]);
        let body = w.finish();
        assert_eq!(body.len(), 1 + 8 + f64s.len() * 8 + 8 + f32s.len() * 4 + 8);
        let mut r = SectionReader::new(&body, "floats");
        assert_eq!(r.get_u8().unwrap(), 9);
        let back64: Vec<u64> = r
            .get_f64_vec()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(back64, f64s.map(f64::to_bits));
        let back32: Vec<u32> = r
            .get_f32_vec()
            .unwrap()
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(back32, f32s.map(f32::to_bits));
        assert!(r.get_f64_vec().unwrap().is_empty());
        r.expect_end().unwrap();
        // element by element, the bulk writer lays down what `put_f64` does
        let mut one_by_one = SectionWriter::new();
        one_by_one.put_u64(f64s.len() as u64);
        f64s.iter().for_each(|&v| one_by_one.put_f64(v));
        assert_eq!(&body[1..1 + 8 + f64s.len() * 8], one_by_one.as_bytes());
    }

    #[test]
    fn the_longest_section_name_roundtrips() {
        let mut snap = Snapshot::new(0, 0);
        snap.push(&"r".repeat(MAX_SECTION_NAME), 0, vec![1, 2, 3]);
        assert_eq!(Snapshot::decode(&snap.encode()).unwrap(), snap);
        assert_eq!(
            Snapshot::decode_delta(&snap.encode_delta(&snap), &snap).unwrap(),
            snap
        );
    }

    #[test]
    #[should_panic(expected = "is 65536 bytes, over the format's 65535")]
    fn a_section_name_the_format_cannot_carry_fails_at_the_cut() {
        // the u16 name length used to wrap: `encode` wrote a blob its own
        // `decode` refused, and the first to find out was a restore
        Snapshot::new(0, 0).push(&"r".repeat(MAX_SECTION_NAME + 1), 0, vec![1, 2, 3]);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert_eq!(
            Snapshot::decode(&bytes),
            Err(CkptError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn delta_roundtrip_equals_full() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        // dirty exactly one 64-byte chunk of the field section
        next.sections[1].bytes[200] ^= 0x55;
        // and grow nothing: meta changes entirely (chunk 0)
        next.sections[0].bytes[0] ^= 1;
        let delta = next.encode_delta(&base);
        let full = next.encode();
        assert!(Snapshot::is_delta(&delta).unwrap());
        assert!(
            delta.len() < full.len(),
            "delta {} >= full {}",
            delta.len(),
            full.len()
        );
        let applied = Snapshot::decode_delta(&delta, &base).unwrap();
        assert_eq!(applied, next);
    }

    #[test]
    fn unchanged_delta_is_tiny() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        let delta = next.encode_delta(&base);
        let applied = Snapshot::decode_delta(&delta, &base).unwrap();
        assert_eq!(applied, next);
        assert!(delta.len() < base.encode().len() / 2);
    }

    #[test]
    fn delta_against_wrong_base_rejected() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        let delta = next.encode_delta(&base);
        let mut other = base.clone();
        other.seq = 9;
        assert_eq!(
            Snapshot::decode_delta(&delta, &other),
            Err(CkptError::BaseMismatch {
                expected: 3,
                found: 9
            })
        );
    }

    #[test]
    fn delta_and_full_are_mutually_rejecting() {
        let base = sample();
        let delta = base.encode_delta(&base);
        let full = base.encode();
        assert_eq!(Snapshot::decode(&delta), Err(CkptError::IsDelta));
        assert_eq!(
            Snapshot::decode_delta(&full, &base),
            Err(CkptError::NotADelta)
        );
    }

    #[test]
    fn resized_section_falls_back_to_full_body_in_delta() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        next.sections[1].bytes.truncate(100);
        let delta = next.encode_delta(&base);
        let applied = Snapshot::decode_delta(&delta, &base).unwrap();
        assert_eq!(applied, next);
    }

    #[test]
    fn sparse_chunk_out_of_bounds_is_corrupt() {
        let base = sample();
        let mut next = base.clone();
        next.seq = 4;
        next.sections[1].bytes[0] ^= 1;
        let mut delta = next.encode_delta(&base);
        // find the dirty chunk index (first dirty record after the sparse
        // header of the "field" section) and poison it
        // layout scan: easier to corrupt by brute force — flip every u32
        // position until decode yields Corrupt
        let mut saw_corrupt = false;
        for i in 0..delta.len().saturating_sub(4) {
            let orig = delta[i..i + 4].to_vec();
            delta[i..i + 4].copy_from_slice(&u32::MAX.to_le_bytes());
            if matches!(
                Snapshot::decode_delta(&delta, &base),
                Err(CkptError::Corrupt { .. })
            ) {
                saw_corrupt = true;
            }
            delta[i..i + 4].copy_from_slice(&orig);
        }
        assert!(saw_corrupt, "no corruption point produced Corrupt");
    }

    #[test]
    fn reader_writer_cover_every_scalar() {
        let mut w = SectionWriter::new();
        w.put_u8(7);
        w.put_bool(true);
        w.put_u16(300);
        w.put_u32(70_000);
        w.put_u64(1 << 40);
        w.put_i64(-12);
        w.put_f32(1.5);
        w.put_bytes(b"abc");
        w.put_f32_slice(&[2.5, f32::NAN]);
        let body = w.finish();
        let mut r = SectionReader::new(&body, "test");
        assert_eq!(r.get_u8().unwrap(), 7);
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_u16().unwrap(), 300);
        assert_eq!(r.get_u32().unwrap(), 70_000);
        assert_eq!(r.get_u64().unwrap(), 1 << 40);
        assert_eq!(r.get_i64().unwrap(), -12);
        assert_eq!(r.get_f32().unwrap(), 1.5);
        assert_eq!(r.get_byte_vec().unwrap(), b"abc");
        let f = r.get_f32_vec().unwrap();
        assert_eq!(f[0], 2.5);
        assert!(f[1].is_nan());
        r.expect_end().unwrap();
        assert!(matches!(r.get_u8(), Err(CkptError::Truncated { .. })));
    }

    #[test]
    fn bool_other_than_01_is_corrupt() {
        let mut r = SectionReader::new(&[2], "b");
        assert!(matches!(r.get_bool(), Err(CkptError::Corrupt { .. })));
    }

    #[test]
    fn errors_render_and_implement_error() {
        let errs: Vec<Box<dyn std::error::Error>> = vec![
            Box::new(CkptError::BadMagic),
            Box::new(CkptError::UnsupportedVersion {
                found: 9,
                supported: 1,
            }),
            Box::new(CkptError::Truncated {
                context: "x".into(),
                needed: 8,
                have: 2,
            }),
            Box::new(CkptError::MissingSection { name: "f".into() }),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
