//! Steer commands, sequence-numbered batches, and commit outcomes.

use crate::value::ParamValue;
use bytes::{Buf, BufMut, BytesMut};

/// One requested parameter change.
#[derive(Debug, Clone, PartialEq)]
pub struct SteerCommand {
    /// Target parameter name.
    pub param: String,
    /// Requested value (may be clamped/coerced at commit).
    pub value: ParamValue,
}

impl SteerCommand {
    /// Convenience constructor.
    pub fn new(param: &str, value: ParamValue) -> SteerCommand {
        SteerCommand {
            param: param.to_string(),
            value,
        }
    }

    /// f64 shim constructor.
    pub fn f64(param: &str, value: f64) -> SteerCommand {
        SteerCommand::new(param, ParamValue::F64(value))
    }

    /// The name's length as the wire's `u16` field carries it, or the
    /// refusal — the one place the limit is checked (before a batch
    /// leaves an adapter, at the hub's door, and by the codec itself).
    pub(crate) fn wire_name_len(&self) -> Result<u16, SteerError> {
        u16::try_from(self.param.len()).map_err(|_| SteerError::NameTooLong {
            len: self.param.len(),
            max: usize::from(u16::MAX),
        })
    }

    /// The shared `(name, value)` wire codec: u16-LE name length + UTF-8
    /// name + tagged [`ParamValue`] bytes. Used by both the core TCP
    /// server's `OP_BATCH` and the UNICORE `steer.cmd` job payload, so
    /// the framing lives in exactly one place. A name the length field
    /// cannot hold is refused ([`SteerError::NameTooLong`]) with nothing
    /// written, never wrapped.
    pub fn encode_bytes(&self, out: &mut BytesMut) -> Result<(), SteerError> {
        out.put_u16_le(self.wire_name_len()?);
        out.put_slice(self.param.as_bytes());
        self.value.encode_bytes(out);
        Ok(())
    }

    /// Decode one `(name, value)` pair, advancing `buf` past it.
    pub fn decode_bytes(buf: &mut &[u8]) -> Option<SteerCommand> {
        if buf.len() < 2 {
            return None;
        }
        let len = buf.get_u16_le() as usize;
        if buf.len() < len {
            return None;
        }
        let param = String::from_utf8(buf[..len].to_vec()).ok()?;
        buf.advance(len);
        let value = ParamValue::decode_bytes(buf)?;
        Some(SteerCommand { param, value })
    }
}

/// A staged batch: the unit of atomic application at a step boundary.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandBatch {
    /// Hub-assigned monotone sequence number (global staging order).
    pub seq: u64,
    /// Originating participant (role checks happen at commit).
    pub origin: String,
    /// Transport the batch arrived over (for audit/digest lines).
    pub transport: &'static str,
    /// The commands, in request order.
    pub commands: Vec<SteerCommand>,
}

/// Everything one hub commit did, built once and shared (behind an
/// `Arc`) by every subscriber: the batches exactly as they were staged —
/// the commit already owns them — plus one outcome per command. A
/// [`SteerNotice`] is a borrowed view of one command's row.
#[derive(Debug)]
pub struct CommitRecord {
    pub(crate) commit: u64,
    pub(crate) batches: Vec<CommandBatch>,
    /// One per command, in batch order then request order: the value
    /// actually applied, or the refusal reason.
    pub(crate) outcomes: Vec<Result<ParamValue, String>>,
}

impl CommitRecord {
    /// Commit sequence number.
    pub fn commit(&self) -> u64 {
        self.commit
    }

    /// Number of notices (committed commands) in this record.
    pub fn len(&self) -> usize {
        self.outcomes.len()
    }

    /// True if the record carries no notice.
    pub fn is_empty(&self) -> bool {
        self.outcomes.is_empty()
    }

    /// One notice per committed command, in application order.
    pub fn iter(&self) -> impl Iterator<Item = SteerNotice<'_>> {
        let commands = self
            .batches
            .iter()
            .flat_map(|b| b.commands.iter().map(move |c| (b, c)));
        commands.zip(&self.outcomes).map(|((b, c), o)| SteerNotice {
            commit: self.commit,
            batch: b.seq,
            origin: &b.origin,
            param: &c.param,
            outcome: o.as_ref().map_err(String::as_str),
        })
    }
}

/// What happened to one staged command at commit, borrowed from the
/// [`CommitRecord`] that holds it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SteerNotice<'a> {
    /// Commit sequence number.
    pub commit: u64,
    /// Batch the command came from.
    pub batch: u64,
    /// Originating participant.
    pub origin: &'a str,
    /// Parameter name.
    pub param: &'a str,
    /// The value actually written (post-clamp/coercion), or why the
    /// command was refused (not master, out of bounds, unknown name,
    /// vanished sender…).
    pub outcome: Result<&'a ParamValue, &'a str>,
}

/// Aggregate result of one hub commit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommitOutcome {
    /// Commit sequence number (0 if nothing was staged).
    pub commit: u64,
    /// Commands applied.
    pub applied: u64,
    /// Commands refused.
    pub refused: u64,
}

/// Errors a transport can raise before a command ever reaches the hub.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SteerError {
    /// The batch was empty.
    EmptyBatch,
    /// The batch exceeds the negotiated maximum size.
    TooLarge {
        /// Requested batch length.
        len: usize,
        /// Negotiated maximum.
        max: usize,
    },
    /// A command's value kind is outside the negotiated capability set.
    UnsupportedKind {
        /// Offending parameter.
        param: String,
        /// The kind the transport cannot carry.
        kind: &'static str,
    },
    /// A command's parameter name does not fit the wire's `u16` length
    /// field.
    NameTooLong {
        /// Length of the offending name, in bytes.
        len: usize,
        /// The longest name the wire carries.
        max: usize,
    },
    /// The transport failed to encode/decode the batch.
    Transport(String),
}

impl std::fmt::Display for SteerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SteerError::EmptyBatch => write!(f, "empty batch"),
            SteerError::TooLarge { len, max } => {
                write!(f, "batch of {len} exceeds negotiated max {max}")
            }
            SteerError::UnsupportedKind { param, kind } => {
                write!(f, "{param}: kind {kind} not negotiated on this transport")
            }
            SteerError::NameTooLong { len, max } => {
                write!(f, "parameter name of {len} bytes exceeds wire limit {max}")
            }
            SteerError::Transport(e) => write!(f, "transport error: {e}"),
        }
    }
}
