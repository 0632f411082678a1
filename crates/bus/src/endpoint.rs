//! The transport-agnostic steering endpoint contract.
//!
//! A [`SteerEndpoint`] is *the one way anything steers a simulation*: the
//! same four-method surface over an in-process loopback, a VISIT wire
//! link, an OGSA grid service, a COVISE module, or a UNICORE job channel.
//! Clients open with a capability-negotiation handshake
//! ([`SteerEndpoint::negotiate`]), read the typed parameter surface
//! ([`SteerEndpoint::describe`] / [`SteerEndpoint::get`]), stage
//! sequence-numbered command batches ([`SteerEndpoint::set_batch`]), and
//! observe committed changes through [`SteerEndpoint::subscribe`].

use crate::command::{CommitRecord, SteerCommand, SteerError, SteerNotice};
use crate::spec::ParamSpec;
use crate::value::{ParamKind, ParamValue};
use parking_lot::Mutex;
use std::collections::{BTreeSet, VecDeque};
use std::sync::{Arc, Weak};

/// What one side of a steering connection can do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Capabilities {
    /// Transport label ("loopback", "visit", "ogsa", "covise", "unicore").
    pub transport: &'static str,
    /// Value kinds this side can carry losslessly.
    pub kinds: BTreeSet<ParamKind>,
    /// Largest batch this side accepts.
    pub max_batch: usize,
    /// True if committed-steer subscriptions are offered.
    pub subscribe: bool,
}

impl Capabilities {
    /// A capability set carrying every kind.
    pub fn full(transport: &'static str, max_batch: usize) -> Capabilities {
        Capabilities {
            transport,
            kinds: ParamKind::ALL.into_iter().collect(),
            max_batch,
            subscribe: true,
        }
    }

    /// The handshake result: what *both* sides can do.
    pub fn intersect(&self, other: &Capabilities) -> Capabilities {
        Capabilities {
            transport: self.transport,
            kinds: self.kinds.intersection(&other.kinds).copied().collect(),
            max_batch: self.max_batch.min(other.max_batch),
            subscribe: self.subscribe && other.subscribe,
        }
    }

    /// Stable one-line rendering (scenario `attach` lines, digests).
    pub fn render(&self) -> String {
        let kinds: Vec<&str> = self.kinds.iter().map(|k| k.name()).collect();
        format!(
            "transport={} kinds={} max_batch={} subscribe={}",
            self.transport,
            kinds.join("+"),
            self.max_batch,
            self.subscribe
        )
    }
}

/// A subscriber's undrained commits: the shared records, oldest first,
/// and how many notices they hold together.
#[derive(Debug, Default)]
pub(crate) struct Pending {
    records: VecDeque<Arc<CommitRecord>>,
    notices: usize,
}

impl Pending {
    /// Queue one commit's record (hub fan-out path): a reference to the
    /// shared record, not a copy of its notices.
    pub(crate) fn push(&mut self, record: Arc<CommitRecord>) {
        self.notices += record.len();
        self.records.push_back(record);
        while self.notices > MAX_PENDING_NOTICES {
            let shed = self
                .records
                .pop_front()
                .expect("notices are held by records");
            self.notices -= shed.len();
        }
    }
}

/// A drainable stream of committed-steer notices.
#[derive(Debug, Clone, Default)]
pub struct Subscription {
    queue: Arc<Mutex<Pending>>,
}

/// Upper bound on undrained notices retained per subscriber; whole
/// commit records are shed oldest first (a steering client that has not
/// drained for this long only cares about recent state anyway).
pub(crate) const MAX_PENDING_NOTICES: usize = 4096;

impl Subscription {
    pub(crate) fn new() -> Subscription {
        Subscription::default()
    }

    /// Weak handle for the hub's subscriber list: the hub must not keep
    /// a dropped subscriber's queue alive.
    pub(crate) fn downgrade(&self) -> Weak<Mutex<Pending>> {
        Arc::downgrade(&self.queue)
    }

    /// Take everything pending.
    pub fn drain(&self) -> Drained {
        Drained(std::mem::take(&mut *self.queue.lock()))
    }
}

/// What one [`Subscription::drain`] took: the pending commit records,
/// read in place. Notices borrow from the records, which every
/// subscriber of the hub shares.
#[derive(Debug)]
pub struct Drained(Pending);

impl Drained {
    /// Number of notices drained.
    pub fn len(&self) -> usize {
        self.0.notices
    }

    /// True if nothing was pending.
    pub fn is_empty(&self) -> bool {
        self.0.notices == 0
    }

    /// The drained notices, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = SteerNotice<'_>> {
        self.0.records.iter().flat_map(|r| r.iter())
    }

    /// The drained commit records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Arc<CommitRecord>> {
        self.0.records.iter()
    }
}

/// Enforce a negotiated capability set on an outgoing batch (shared by
/// every adapter).
pub(crate) fn check_batch(
    caps: &Capabilities,
    commands: &[SteerCommand],
) -> Result<(), SteerError> {
    if commands.is_empty() {
        return Err(SteerError::EmptyBatch);
    }
    if commands.len() > caps.max_batch {
        return Err(SteerError::TooLarge {
            len: commands.len(),
            max: caps.max_batch,
        });
    }
    for cmd in commands {
        cmd.wire_name_len()?;
        if !caps.kinds.contains(&cmd.value.kind()) {
            return Err(SteerError::UnsupportedKind {
                param: cmd.param.clone(),
                kind: cmd.value.kind().name(),
            });
        }
    }
    Ok(())
}

/// The [`SteerEndpoint`] methods that read the same over every
/// middleware, written once: each adapter's `impl SteerEndpoint` expands
/// this and adds what its wire actually does — `set_batch`, and `get`
/// where a read is more than a hub lookup (the `hub_get` arm supplies the
/// plain one). Expects the adapter's session half as `self.hub` and
/// `self.caps`; the label is the one the caps were built with, so it has
/// one source.
macro_rules! steer_endpoint_common {
    () => {
        fn transport(&self) -> &'static str {
            self.caps.transport
        }

        fn negotiate(&mut self, client: &$crate::Capabilities) -> $crate::Capabilities {
            // narrow to what both sides can do
            self.caps = self.caps.intersect(client);
            self.caps.clone()
        }

        fn describe(&self) -> Vec<$crate::ParamSpec> {
            self.hub.describe()
        }

        fn subscribe(&mut self) -> $crate::Subscription {
            self.hub.subscribe()
        }
    };
    (hub_get) => {
        $crate::endpoint::steer_endpoint_common!();

        fn get(&self, name: &str) -> Option<$crate::ParamValue> {
            self.hub.get(name)
        }
    };
}
pub(crate) use steer_endpoint_common;

/// One attached steering client over some transport.
pub trait SteerEndpoint: Send {
    /// Transport label (matches [`Capabilities::transport`]).
    fn transport(&self) -> &'static str;

    /// Capability handshake: the client offers what it can do, the
    /// endpoint answers with the negotiated intersection and enforces it
    /// on subsequent batches.
    fn negotiate(&mut self, client: &Capabilities) -> Capabilities;

    /// The typed parameter surface of the attached session.
    fn describe(&self) -> Vec<ParamSpec>;

    /// Current value of one parameter.
    fn get(&self, name: &str) -> Option<ParamValue>;

    /// Ship a command batch through the transport and stage it for the
    /// next step-boundary commit. Returns the hub-assigned batch sequence
    /// number; the per-command outcomes arrive via [`Self::subscribe`].
    fn set_batch(&mut self, commands: Vec<SteerCommand>) -> Result<u64, SteerError>;

    /// Subscribe to committed-steer notices.
    fn subscribe(&mut self) -> Subscription;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::command::CommandBatch;

    #[test]
    fn intersection_is_commutative_on_content() {
        let mut narrow = Capabilities::full("covise", 16);
        narrow.kinds.remove(&ParamKind::Str);
        narrow.kinds.remove(&ParamKind::Vec3);
        let full = Capabilities::full("client", 256);
        let a = narrow.intersect(&full);
        let b = full.intersect(&narrow);
        assert_eq!(a.kinds, b.kinds);
        assert_eq!(a.max_batch, 16);
        assert!(!a.kinds.contains(&ParamKind::Str));
        assert!(a.kinds.contains(&ParamKind::F64));
    }

    #[test]
    fn render_is_stable_and_ordered() {
        let caps = Capabilities::full("visit", 64);
        assert_eq!(
            caps.render(),
            "transport=visit kinds=f64+i64+bool+vec3+str max_batch=64 subscribe=true"
        );
    }

    #[test]
    fn subscription_fifo() {
        let sub = Subscription::new();
        for i in 0..3 {
            let record = CommitRecord {
                commit: i + 1,
                batches: vec![CommandBatch {
                    seq: i,
                    origin: "a".into(),
                    transport: "loopback",
                    commands: vec![SteerCommand::new("x", ParamValue::I64(i as i64))],
                }],
                outcomes: vec![Ok(ParamValue::I64(i as i64))],
            };
            sub.queue.lock().push(Arc::new(record));
        }
        let drained = sub.drain();
        assert_eq!(drained.len(), 3);
        let batches: Vec<u64> = drained.iter().map(|n| n.batch).collect();
        assert_eq!(batches, [0, 1, 2], "oldest first");
        let first = drained.iter().next().unwrap();
        assert_eq!((first.origin, first.param), ("a", "x"));
        assert_eq!(first.outcome, Ok(&ParamValue::I64(0)));
        assert!(sub.drain().is_empty(), "a drain takes everything");
    }
}
