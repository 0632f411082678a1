//! The steering hub: one shared registry + staged batches + subscribers.
//!
//! A [`SteerHub`] is the session-side anchor every endpoint adapter
//! attaches to. Transports *stage* decoded command batches here
//! ([`SteerHub::stage`]); the owner of the simulation loop *commits* them
//! atomically at a step boundary ([`SteerHub::commit_with`]), in global
//! staging order — which is what makes a multi-transport run replay
//! byte-identically: arrival order is deterministic under the virtual
//! clock, and application order equals arrival order regardless of which
//! middleware carried each command.

use crate::command::{CommandBatch, CommitOutcome, CommitRecord, SteerCommand, SteerError};
use crate::endpoint::{Pending, Subscription};
use crate::registry::{ParamRegistry, SharedRegistry};
use crate::spec::ParamSpec;
use crate::value::ParamValue;
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use parking_lot::Mutex;
use std::sync::{Arc, Weak};

#[derive(Default)]
struct HubState {
    staged: Vec<CommandBatch>,
    next_batch: u64,
    commit_seq: u64,
    /// Weak so a dropped subscriber's queue is reclaimed (dead entries
    /// are pruned at each commit).
    subscribers: Vec<Weak<Mutex<Pending>>>,
    /// Oracle probe: per-origin high-water mark of committed batch seqs.
    /// Cleared on restore — a restored process legitimately replays the
    /// staged batches the checkpoint captured.
    last_committed: std::collections::BTreeMap<String, u64>,
    /// Oracle probe: stale-seq commits observed (a batch applied at or
    /// below its origin's high-water mark). Survives restores — the
    /// violation happened in this process's history.
    probe_violations: Vec<String>,
}

/// The shared steering hub. Cheap to clone; all clones are one hub.
#[derive(Clone, Default)]
pub struct SteerHub {
    registry: SharedRegistry,
    state: Arc<Mutex<HubState>>,
}

impl SteerHub {
    /// A hub over a fresh registry declaring `specs`.
    pub fn new(specs: Vec<ParamSpec>) -> SteerHub {
        let mut registry = ParamRegistry::new();
        for spec in specs {
            registry.declare(spec);
        }
        SteerHub {
            registry: SharedRegistry::new(registry),
            state: Arc::default(),
        }
    }

    /// The shared registry — hand this to a `SteeringSession` (or any
    /// other authority) so endpoint reads and session writes see one
    /// value store.
    pub fn registry(&self) -> SharedRegistry {
        self.registry.clone()
    }

    /// The typed parameter surface.
    pub fn describe(&self) -> Vec<ParamSpec> {
        self.registry.specs()
    }

    /// Current value of one parameter.
    pub fn get(&self, name: &str) -> Option<ParamValue> {
        self.registry.get_value(name)
    }

    /// Stage a transport-decoded batch for the next commit. Returns the
    /// assigned batch sequence number.
    pub fn stage(
        &self,
        origin: &str,
        transport: &'static str,
        commands: Vec<SteerCommand>,
    ) -> Result<u64, SteerError> {
        if commands.is_empty() {
            return Err(SteerError::EmptyBatch);
        }
        // adapters refuse this before their wire; a caller with no
        // adapter meets it here, so a staged command always encodes
        for cmd in &commands {
            cmd.wire_name_len()?;
        }
        let mut st = self.state.lock();
        st.next_batch += 1;
        let seq = st.next_batch;
        st.staged.push(CommandBatch {
            seq,
            origin: origin.to_string(),
            transport,
            commands,
        });
        Ok(seq)
    }

    /// Number of batches waiting for the next commit.
    pub fn pending(&self) -> usize {
        self.state.lock().staged.len()
    }

    /// Register a subscriber fed by every subsequent commit. Dropping
    /// the returned [`Subscription`] unsubscribes; undrained notices are
    /// capped (oldest commits dropped first), so an idle subscriber
    /// cannot grow the hub without bound.
    pub fn subscribe(&self) -> Subscription {
        let sub = Subscription::new();
        self.state.lock().subscribers.push(sub.downgrade());
        sub
    }

    /// Commit every staged batch atomically, in staging order, applying
    /// each command through `apply`. The closure owns authority (role
    /// checks, registry write, backend propagation) and returns the value
    /// actually applied or a refusal reason. The outcomes fan out as one
    /// [`CommitRecord`] that every live subscriber shares; with nobody
    /// subscribed none is built.
    pub fn commit_with(
        &self,
        mut apply: impl FnMut(&CommandBatch, &SteerCommand) -> Result<ParamValue, String>,
    ) -> CommitOutcome {
        let (batches, commit, watched) = {
            let mut guard = self.state.lock();
            let st = &mut *guard;
            if st.staged.is_empty() {
                return CommitOutcome::default();
            }
            st.commit_seq += 1;
            // the commit keeps the staged batches (they become its record),
            // so the next step's staging buffer is made here, sized by the
            // load this one carried, not regrown push by push
            let next = Vec::with_capacity(st.staged.len());
            let batches = std::mem::replace(&mut st.staged, next);
            for b in &batches {
                match st.last_committed.get_mut(b.origin.as_str()) {
                    Some(hw) if b.seq > *hw => *hw = b.seq,
                    None if b.seq > 0 => {
                        st.last_committed.insert(b.origin.clone(), b.seq);
                    }
                    stale => st.probe_violations.push(format!(
                        "stale-seq commit: origin {} batch seq {} at/below high-water {}",
                        b.origin,
                        b.seq,
                        stale.map_or(0, |hw| *hw)
                    )),
                }
            }
            st.subscribers.retain(|w| w.strong_count() > 0);
            (batches, st.commit_seq, !st.subscribers.is_empty())
        };
        let mut outcome = CommitOutcome {
            commit,
            ..CommitOutcome::default()
        };
        let ncmds = batches.iter().map(|b| b.commands.len()).sum();
        let mut outcomes = Vec::with_capacity(if watched { ncmds } else { 0 });
        for batch in &batches {
            for cmd in &batch.commands {
                let applied = apply(batch, cmd);
                match applied {
                    Ok(_) => outcome.applied += 1,
                    Err(_) => outcome.refused += 1,
                }
                if watched {
                    outcomes.push(applied);
                }
            }
        }
        if watched {
            let record = Arc::new(CommitRecord {
                commit,
                batches,
                outcomes,
            });
            let st = self.state.lock();
            for queue in st.subscribers.iter().filter_map(Weak::upgrade) {
                queue.lock().push(record.clone());
            }
        }
        outcome
    }

    /// Stale-seq violations observed so far (oracle probe): commits that
    /// applied a batch at or below its origin's previously-committed
    /// high-water seq. Empty on every healthy run.
    pub fn probe_violations(&self) -> Vec<String> {
        self.state.lock().probe_violations.clone()
    }

    /// Commit with the hub's own registry as the only authority (no role
    /// checks) — the standalone path used by tests and benches.
    pub fn commit(&self) -> CommitOutcome {
        let registry = self.registry.clone();
        self.commit_with(|_batch, cmd| registry.set_value(&cmd.param, &cmd.value))
    }

    /// Serialize the full hub state — registry (specs, values), staged
    /// batches and the batch/commit sequence counters — into snapshot
    /// section `name`. Subscriber notice queues are process-local and are
    /// not serialized: endpoints re-subscribe after a restore.
    pub fn save_sections(&self, snap: &mut Snapshot, name: &str) {
        let mut w = SectionWriter::new();
        self.registry.save_into(&mut w);
        let st = self.state.lock();
        w.put_u64(st.next_batch);
        w.put_u64(st.commit_seq);
        w.put_u32(
            u32::try_from(st.staged.len()).expect("staged batch count fits the format's u32"),
        );
        for b in &st.staged {
            w.put_u64(b.seq);
            w.put_str(&b.origin);
            w.put_str(b.transport);
            w.put_u32(
                u32::try_from(b.commands.len()).expect("batch command count fits the format's u32"),
            );
            for c in &b.commands {
                crate::ckpt::put_command(&mut w, c);
            }
        }
        drop(st);
        snap.push(name, 0, w.finish());
    }

    /// Restore hub state from snapshot section `name`, replacing the
    /// registry contents, staged batches and counters behind the existing
    /// shared handles — clones held by sessions and endpoints observe the
    /// restored state. Subscribers are cleared (their queues did not
    /// survive the process); endpoints re-subscribe on reattach. Batch
    /// and commit numbering resume exactly where the checkpoint cut them.
    pub fn restore_sections(&self, snap: &Snapshot, name: &str) -> Result<(), CkptError> {
        let mut r = snap.reader(name)?;
        let registry = ParamRegistry::restore_from(&mut r)?;
        let next_batch = r.get_u64()?;
        let commit_seq = r.get_u64()?;
        let nbatches = r.get_u32()?;
        let mut staged = Vec::new();
        for _ in 0..nbatches {
            let seq = r.get_u64()?;
            let origin = r.get_str()?;
            let transport = crate::ckpt::intern_label(&r.get_str()?);
            let ncmds = r.get_u32()?;
            let mut commands = Vec::new();
            for i in 0..ncmds {
                let what = format!("{name}: batch {seq} command {i}");
                commands.push(crate::ckpt::get_command(&mut r, &what)?);
            }
            staged.push(CommandBatch {
                seq,
                origin,
                transport,
                commands,
            });
        }
        r.expect_end()?;
        self.registry.replace(registry);
        let mut st = self.state.lock();
        st.staged = staged;
        st.next_batch = next_batch;
        st.commit_seq = commit_seq;
        st.subscribers.clear();
        // batch numbering may rewind past commits the pre-crash process
        // made — replaying them is correct recovery, not a stale commit
        st.last_committed.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::ParamSpec;
    use crate::{Capabilities, Transport};

    fn hub() -> SteerHub {
        SteerHub::new(vec![
            ParamSpec::f64("miscibility", 0.0, 1.0, 1.0),
            ParamSpec::f64_clamped("gain", 0.0, 10.0, 1.0),
        ])
    }

    #[test]
    fn staged_batches_apply_in_order_at_commit() {
        let h = hub();
        h.stage("a", "loopback", vec![SteerCommand::f64("miscibility", 0.3)])
            .unwrap();
        h.stage("b", "loopback", vec![SteerCommand::f64("miscibility", 0.6)])
            .unwrap();
        assert_eq!(h.pending(), 2);
        // nothing applied until the step boundary
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(1.0)));
        let out = h.commit();
        assert_eq!(out.applied, 2);
        assert_eq!(h.pending(), 0);
        // staging order wins: b staged last, so b's value is final
        assert_eq!(h.get("miscibility"), Some(ParamValue::F64(0.6)));
    }

    #[test]
    fn refusals_are_counted_and_notified() {
        let h = hub();
        let sub = h.subscribe();
        h.stage(
            "a",
            "loopback",
            vec![
                SteerCommand::f64("miscibility", 9.0), // rejected (bounds)
                SteerCommand::f64("gain", 99.0),       // clamped to 10
            ],
        )
        .unwrap();
        let out = h.commit();
        assert_eq!(out.applied, 1);
        assert_eq!(out.refused, 1);
        let drained = sub.drain();
        let notices: Vec<_> = drained.iter().collect();
        assert_eq!(notices[0].param, "miscibility");
        assert!(notices[0].outcome.is_err());
        assert_eq!(notices[1].outcome, Ok(&ParamValue::F64(10.0)));
    }

    #[test]
    fn empty_batch_refused_at_stage_time() {
        let h = hub();
        assert_eq!(
            h.stage("a", "loopback", Vec::new()),
            Err(SteerError::EmptyBatch)
        );
    }

    #[test]
    fn overlong_param_name_refused_at_stage_time() {
        // adapters refuse this before their wire; the hub's own door
        // does too, so whatever is staged can be checkpointed
        let h = hub();
        let long = "x".repeat(usize::from(u16::MAX) + 1);
        assert_eq!(
            h.stage("a", "loopback", vec![SteerCommand::f64(&long, 0.5)]),
            Err(SteerError::NameTooLong {
                len: 65_536,
                max: 65_535
            })
        );
        assert_eq!(h.pending(), 0);
        h.stage("a", "loopback", vec![SteerCommand::f64(&long[1..], 0.5)])
            .unwrap();
        h.save_sections(&mut Snapshot::new(1, 0), "steer");
    }

    #[test]
    fn batch_seq_is_globally_monotone() {
        let h = hub();
        let s1 = h
            .stage("a", "visit", vec![SteerCommand::f64("gain", 1.0)])
            .unwrap();
        let s2 = h
            .stage("b", "ogsa", vec![SteerCommand::f64("gain", 2.0)])
            .unwrap();
        assert!(s2 > s1);
        h.commit();
        let s3 = h
            .stage("a", "visit", vec![SteerCommand::f64("gain", 3.0)])
            .unwrap();
        assert!(s3 > s2, "sequence survives commits");
    }

    #[test]
    fn commit_with_custom_authority() {
        let h = hub();
        h.stage("eve", "loopback", vec![SteerCommand::f64("gain", 5.0)])
            .unwrap();
        let out = h.commit_with(|batch, _cmd| {
            if batch.origin == "eve" {
                Err("not the master".into())
            } else {
                Ok(ParamValue::F64(0.0))
            }
        });
        assert_eq!(out.refused, 1);
        assert_eq!(
            h.get("gain"),
            Some(ParamValue::F64(1.0)),
            "refused steer must not touch the registry"
        );
    }

    #[test]
    fn dropped_subscribers_are_pruned_and_reclaimed() {
        let h = hub();
        let kept = h.subscribe();
        {
            let _dropped = h.subscribe();
        } // queue freed here; the hub holds only a weak handle
        h.stage("a", "loopback", vec![SteerCommand::f64("gain", 2.0)])
            .unwrap();
        h.commit(); // prunes the dead entry, feeds the live one
        assert_eq!(kept.drain().len(), 1);
        assert_eq!(h.state.lock().subscribers.len(), 1, "dead entry pruned");
    }

    #[test]
    fn unpolled_subscriber_queue_is_bounded() {
        let h = hub();
        let idle = h.subscribe();
        for i in 0..(crate::endpoint::MAX_PENDING_NOTICES + 10) {
            h.stage(
                "a",
                "loopback",
                vec![SteerCommand::f64("gain", (i % 10) as f64)],
            )
            .unwrap();
            h.commit();
        }
        assert_eq!(
            idle.drain().len(),
            crate::endpoint::MAX_PENDING_NOTICES,
            "oldest notices must be shed at the cap"
        );
    }

    #[test]
    fn idle_subscriber_sheds_whole_oldest_records() {
        let h = hub();
        let idle = h.subscribe();
        let per_commit = 6;
        let commits = crate::endpoint::MAX_PENDING_NOTICES / per_commit + 10;
        for _ in 0..commits {
            for origin in ["a", "b"] {
                h.stage(origin, "loopback", vec![SteerCommand::f64("gain", 1.0); 3])
                    .unwrap();
            }
            h.commit();
        }
        let drained = idle.drain();
        assert!(drained.len() <= crate::endpoint::MAX_PENDING_NOTICES);
        assert!(drained.len() > crate::endpoint::MAX_PENDING_NOTICES - per_commit);
        assert_eq!(drained.len(), drained.iter().count());
        // what is left is whole commits, and the newest ones
        assert!(drained.records().all(|r| r.len() == per_commit));
        let kept: Vec<u64> = drained.records().map(|r| r.commit()).collect();
        let newest = commits as u64;
        assert!(kept
            .iter()
            .copied()
            .eq(newest + 1 - kept.len() as u64..=newest));
    }

    #[test]
    fn with_nobody_subscribed_no_record_is_built() {
        let h = hub();
        h.stage("a", "loopback", vec![SteerCommand::f64("gain", 2.0)])
            .unwrap();
        assert_eq!(h.commit().applied, 1);
        // a subscriber sees commits made after it subscribed, not before
        let late = h.subscribe();
        assert!(late.drain().is_empty());
        h.stage("a", "loopback", vec![SteerCommand::f64("gain", 3.0)])
            .unwrap();
        h.commit();
        let also = h.subscribe();
        h.stage("a", "loopback", vec![SteerCommand::f64("gain", 4.0)])
            .unwrap();
        h.commit();
        let (late, also) = (late.drain(), also.drain());
        assert_eq!((late.len(), also.len()), (2, 1));
        assert!(
            Arc::ptr_eq(
                late.records().last().unwrap(),
                also.records().next().unwrap()
            ),
            "one record per commit, shared"
        );
    }

    #[test]
    fn hub_state_survives_snapshot_roundtrip() {
        let h = hub();
        h.stage("alice", "visit", vec![SteerCommand::f64("gain", 2.0)])
            .unwrap();
        h.commit();
        // leave one batch staged-but-uncommitted across the checkpoint
        h.stage("bob", "ogsa", vec![SteerCommand::f64("miscibility", 0.5)])
            .unwrap();
        let mut snap = Snapshot::new(1, 0);
        h.save_sections(&mut snap, "steer");
        let snap = Snapshot::decode(&snap.encode()).unwrap();

        let restored = SteerHub::default();
        restored.restore_sections(&snap, "steer").unwrap();
        assert_eq!(restored.describe(), h.describe());
        assert_eq!(restored.get("gain"), Some(ParamValue::F64(2.0)));
        assert_eq!(restored.pending(), 1, "staged batch survives");
        // numbering resumes, not restarts: the next batch seq is unique
        let s = restored
            .stage("carol", "loopback", vec![SteerCommand::f64("gain", 3.0)])
            .unwrap();
        assert_eq!(s, 3, "two batches staged pre-checkpoint");
        let out = restored.commit();
        assert_eq!(out.commit, 2, "commit numbering continues");
        assert_eq!(out.applied, 2, "staged batch applied with the new one");
        assert_eq!(restored.get("miscibility"), Some(ParamValue::F64(0.5)));
    }

    #[test]
    fn restore_rejects_missing_section_and_truncation() {
        let h = hub();
        let mut snap = Snapshot::new(1, 0);
        h.save_sections(&mut snap, "steer");
        assert!(matches!(
            h.restore_sections(&snap, "ghost"),
            Err(CkptError::MissingSection { .. })
        ));
        let body = snap.section("steer").unwrap();
        let mut cut = Snapshot::new(1, 0);
        cut.push("steer", 0, body[..body.len() - 4].to_vec());
        assert!(h.restore_sections(&cut, "steer").is_err());
    }

    #[test]
    fn a_staged_command_cut_short_restores_as_truncated_naming_it() {
        let h = hub();
        let cmd = SteerCommand::f64("miscibility", 0.5);
        h.stage("bob", "ogsa", vec![cmd.clone()]).unwrap();
        let mut snap = Snapshot::new(1, 0);
        h.save_sections(&mut snap, "steer");
        // the section ends with the command's length-prefixed encoding:
        // rewrite it one byte short, length prefix included
        let mut encoded = bytes::BytesMut::new();
        cmd.encode_bytes(&mut encoded).unwrap();
        let body = snap.section("steer").unwrap();
        let mut short = body[..body.len() - 8 - encoded.len()].to_vec();
        short.extend_from_slice(&(encoded.len() as u64 - 1).to_le_bytes());
        short.extend_from_slice(&encoded[..encoded.len() - 1]);
        let mut cut = Snapshot::new(1, 0);
        cut.push("steer", 0, short);
        assert_eq!(
            h.restore_sections(&cut, "steer"),
            Err(CkptError::Truncated {
                context: "steer: batch 1 command 0".into(),
                needed: 8,
                have: 7
            })
        );
    }

    #[test]
    fn attach_detach_cycles_leave_no_trace_in_the_section() {
        let section = |h: &SteerHub| {
            let mut snap = Snapshot::new(1, 0);
            h.save_sections(&mut snap, "steer");
            snap.section("steer").unwrap().to_vec()
        };
        // attach = negotiate + subscribe; detach = drop both
        let attach = |h: &SteerHub, t: Transport, who: &str| {
            let mut ep = t.attach(h, who);
            let caps = ep.negotiate(&Capabilities::full("client", 64));
            assert_eq!(caps.transport, t.label());
            let sub = ep.subscribe();
            (ep, sub)
        };
        let fresh = hub();
        let _live = attach(&fresh, Transport::Visit, "alice");
        let churned = hub();
        for i in 0..100 {
            let t = Transport::ALL[i % Transport::ALL.len()];
            drop(attach(&churned, t, &format!("guest{i}")));
        }
        let _live = attach(&churned, Transport::Visit, "alice");
        assert_eq!(section(&churned), section(&fresh));
    }
}
