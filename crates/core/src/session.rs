//! Collaborative steering sessions.
//!
//! The session layer merges the paper's two collaboration models: the
//! vbroker master semantics of §3.3 ("only that master is able to actively
//! steer the application. The master-role can be moved … allowing for a
//! coordinated cooperative steering") and the role split of §3.3's control
//! server ("one role allows to change visualization parameters … a second
//! role is just for passive viewers").

use crate::params::{ParamRegistry, ParamValue, SharedRegistry};
use gridsteer_bus::{BoundedLog, LogEntry, Names, SteerCommand};
use gridsteer_ckpt::{CkptError, SectionReader, SectionWriter, Snapshot};
use netsim::SimTime;
use std::sync::Arc;

/// What a participant may do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Holds the steering token: may change simulation parameters.
    Master,
    /// May request the token and change visualization parameters.
    Steerer,
    /// Watches only.
    Viewer,
}

/// A session participant.
#[derive(Debug, Clone)]
pub struct Participant {
    /// Display name.
    pub name: String,
    /// Current role.
    pub role: Role,
    /// Samples delivered to this participant.
    pub samples_received: u64,
    /// Monotone join sequence number — lower means longer-joined. A
    /// participant that leaves and rejoins gets a fresh (higher) number.
    pub joined_seq: u64,
    /// `name` as the audit log holds it: allocated once at join, cloned
    /// (a reference count) into every steer entry.
    who: Arc<str>,
}

/// Auditable session events.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// Someone joined.
    Joined(String),
    /// Someone left.
    Left(String),
    /// The master token moved.
    MasterPassed { from: String, to: String },
    /// A steer was applied; `value` is what the registry actually
    /// applied (post clamp/coercion). The names are shared with the
    /// participant and the registry — an entry allocates neither.
    Steered {
        who: Arc<str>,
        param: Arc<str>,
        value: ParamValue,
    },
    /// A steer was refused (not master / bad value).
    SteerRefused {
        who: Arc<str>,
        param: Arc<str>,
        reason: String,
    },
    /// A sample was fanned out to all participants.
    SampleBroadcast { seq: u64, bytes: usize },
}

/// The collaborative steering session.
pub struct SteeringSession {
    participants: Vec<Participant>,
    /// The shared parameter registry — a [`SharedRegistry`] handle, so a
    /// steering-bus hub and this session can be one authority.
    pub params: SharedRegistry,
    events: BoundedLog<SessionEvent>,
    sample_seq: u64,
    join_counter: u64,
    /// Total bytes fanned out (bytes × recipients).
    pub fanout_bytes: u64,
}

impl SteeringSession {
    /// Empty session around an owned parameter registry.
    pub fn new(params: ParamRegistry) -> Self {
        Self::with_registry(SharedRegistry::new(params))
    }

    /// Empty session around a shared registry (e.g. a
    /// `gridsteer_bus::SteerHub`'s — endpoint reads and session writes
    /// then see one value store).
    pub fn with_registry(params: SharedRegistry) -> Self {
        SteeringSession {
            participants: Vec::new(),
            params,
            events: BoundedLog::default(),
            sample_seq: 0,
            join_counter: 0,
            fanout_bytes: 0,
        }
    }

    /// Join; the first participant becomes master, later ones join as
    /// viewers (they can be promoted).
    pub fn join(&mut self, name: &str) -> usize {
        let role = if self.participants.iter().any(|p| p.role == Role::Master) {
            Role::Viewer
        } else {
            Role::Master
        };
        let joined_seq = self.join_counter;
        self.join_counter += 1;
        self.participants.push(Participant {
            name: name.to_string(),
            role,
            samples_received: 0,
            joined_seq,
            who: Arc::from(name),
        });
        self.events.push(SessionEvent::Joined(name.to_string()));
        self.participants.len() - 1
    }

    /// Leave. If the master leaves, the token deterministically passes to
    /// the longest-joined remaining participant — smallest `joined_seq`,
    /// not vector position — and a [`SessionEvent::MasterPassed`] is
    /// emitted (auto-promotion: the session must stay steerable, mirroring
    /// the vbroker rule).
    pub fn leave(&mut self, idx: usize) {
        if idx >= self.participants.len() {
            return;
        }
        let was_master = self.participants[idx].role == Role::Master;
        let name = self.participants.remove(idx).name;
        self.events.push(SessionEvent::Left(name.clone()));
        if was_master {
            if let Some(next) = self.participants.iter_mut().min_by_key(|p| p.joined_seq) {
                next.role = Role::Master;
                let to = next.name.clone();
                self.events
                    .push(SessionEvent::MasterPassed { from: name, to });
            }
        }
    }

    /// Leave by name. Returns false if no such participant is present.
    pub fn leave_by_name(&mut self, name: &str) -> bool {
        match self.index_of(name) {
            Some(idx) => {
                self.leave(idx);
                true
            }
            None => false,
        }
    }

    /// Number of participants.
    pub fn len(&self) -> usize {
        self.participants.len()
    }

    /// True if nobody is present.
    pub fn is_empty(&self) -> bool {
        self.participants.is_empty()
    }

    /// Participant accessor.
    pub fn participant(&self, idx: usize) -> Option<&Participant> {
        self.participants.get(idx)
    }

    /// Index of a participant by name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.participants.iter().position(|p| p.name == name)
    }

    /// Index of the current master.
    pub fn master(&self) -> Option<usize> {
        self.participants
            .iter()
            .position(|p| p.role == Role::Master)
    }

    /// Number of participants holding the master role. The session
    /// maintains exactly one whenever anyone is present and zero when
    /// empty — an invariant-oracle probe, not a lookup (use
    /// [`SteeringSession::master`] for that).
    pub fn master_count(&self) -> usize {
        self.participants
            .iter()
            .filter(|p| p.role == Role::Master)
            .count()
    }

    /// Pass the master token. Only the current master may pass it, and
    /// only to a present participant.
    pub fn pass_master(&mut self, from: usize, to: usize) -> bool {
        if from == to
            || from >= self.participants.len()
            || to >= self.participants.len()
            || self.participants[from].role != Role::Master
        {
            return false;
        }
        self.participants[from].role = Role::Steerer;
        self.participants[to].role = Role::Master;
        self.events.push(SessionEvent::MasterPassed {
            from: self.participants[from].name.clone(),
            to: self.participants[to].name.clone(),
        });
        true
    }

    /// Apply a typed steer from participant `idx`. Only the master
    /// steers the application; refusals are logged, not silent. Returns
    /// the value actually applied (post clamp/coercion).
    pub fn steer_value(
        &mut self,
        idx: usize,
        param: &str,
        value: &ParamValue,
    ) -> Result<ParamValue, String> {
        let Some(p) = self.participants.get(idx) else {
            return Err("no such participant".into());
        };
        let who = p.who.clone();
        let param = self.params.intern(param);
        let outcome = if p.role == Role::Master {
            self.params.set_value(&param, value)
        } else {
            Err("not the master".to_string())
        };
        self.events.push(match &outcome {
            Ok(applied) => SessionEvent::Steered {
                who,
                param,
                value: applied.clone(),
            },
            Err(reason) => SessionEvent::SteerRefused {
                who,
                param,
                reason: reason.clone(),
            },
        });
        outcome
    }

    /// Apply an f64 steer (shim over [`SteeringSession::steer_value`]).
    pub fn steer(&mut self, idx: usize, param: &str, value: f64) -> Result<(), String> {
        self.steer_value(idx, param, &ParamValue::F64(value))
            .map(|_| ())
    }

    /// Apply a command batch atomically: all commands are validated
    /// against the registry first, then applied in order — all or
    /// nothing, the bus's step-boundary semantics over the server wire.
    /// Returns the number of commands applied.
    pub fn steer_batch(&mut self, idx: usize, commands: &[SteerCommand]) -> Result<usize, String> {
        let Some(p) = self.participants.get(idx) else {
            return Err("no such participant".into());
        };
        let who = p.who.clone();
        if p.role != Role::Master {
            let reason = "not the master".to_string();
            // log every refused command, not just the first — the audit
            // trail must account for the whole batch
            for cmd in commands {
                self.events.push(SessionEvent::SteerRefused {
                    who: who.clone(),
                    param: self.params.intern(&cmd.param),
                    reason: reason.clone(),
                });
            }
            return Err(reason);
        }
        // validate-all before apply-any
        for cmd in commands {
            if let Err(reason) = self.params.validate(&cmd.param, &cmd.value) {
                self.events.push(SessionEvent::SteerRefused {
                    who,
                    param: self.params.intern(&cmd.param),
                    reason: reason.clone(),
                });
                return Err(reason);
            }
        }
        for cmd in commands {
            let applied = self.params.set_value(&cmd.param, &cmd.value)?;
            self.events.push(SessionEvent::Steered {
                who: who.clone(),
                param: self.params.intern(&cmd.param),
                value: applied,
            });
        }
        Ok(commands.len())
    }

    /// Broadcast one sample of `bytes` to every participant (accounting
    /// only; transport lives in the server/vbroker layers). Returns the
    /// sample sequence number.
    pub fn broadcast_sample(&mut self, bytes: usize) -> u64 {
        self.sample_seq += 1;
        for p in &mut self.participants {
            p.samples_received += 1;
            self.fanout_bytes += bytes as u64;
        }
        self.events.push(SessionEvent::SampleBroadcast {
            seq: self.sample_seq,
            bytes,
        });
        self.sample_seq
    }

    /// The retained tail of the audit log (oldest first) — at least the
    /// newest [`AUDIT_WINDOW`](gridsteer_bus::AUDIT_WINDOW) events.
    pub fn events(&self) -> &[SessionEvent] {
        self.events.retained()
    }

    /// The whole audit log: the retained tail plus the count and fold of
    /// what it has evicted.
    pub fn audit_log(&self) -> &BoundedLog<SessionEvent> {
        &self.events
    }

    /// Serialize the session — participants (names, roles, seniority,
    /// per-participant sample counts), the audit log (its retained tail,
    /// evicted count and fold), and the sample /
    /// join / fan-out counters — into snapshot section `name`. The
    /// parameter registry is *not* serialized here: it is shared with
    /// the steering hub, which owns its checkpoint section.
    pub fn save_sections(&self, snap: &mut Snapshot, name: &str) {
        let mut w = SectionWriter::new();
        w.put_u64(self.sample_seq);
        w.put_u64(self.join_counter);
        w.put_u64(self.fanout_bytes);
        w.put_u32(self.participants.len() as u32);
        for p in &self.participants {
            w.put_str(&p.name);
            w.put_u8(match p.role {
                Role::Master => 0,
                Role::Steerer => 1,
                Role::Viewer => 2,
            });
            w.put_u64(p.samples_received);
            w.put_u64(p.joined_seq);
        }
        self.events.save_into(&mut w);
        snap.push(name, 0, w.finish());
    }

    /// Rebuild a session from snapshot section `name` around `params`
    /// (the restored hub's shared registry, so the session and the bus
    /// stay one authority). Roles, seniority, the audit log and every
    /// counter resume exactly where the checkpoint cut them — a
    /// rejoining participant still gets a fresh `joined_seq`, and the
    /// next sample broadcast continues the sequence.
    pub fn restore_sections(
        snap: &Snapshot,
        name: &str,
        params: SharedRegistry,
    ) -> Result<SteeringSession, CkptError> {
        let mut r = snap.reader(name)?;
        let sample_seq = r.get_u64()?;
        let join_counter = r.get_u64()?;
        let fanout_bytes = r.get_u64()?;
        let nparts = r.get_u32()?;
        let mut participants = Vec::new();
        // participants and audit entries share one allocation per name
        let mut names = Names::default();
        for _ in 0..nparts {
            let pname = r.get_str()?;
            let role = match r.get_u8()? {
                0 => Role::Master,
                1 => Role::Steerer,
                2 => Role::Viewer,
                _ => {
                    return Err(CkptError::Corrupt {
                        context: format!("session {name}: role byte"),
                    })
                }
            };
            participants.push(Participant {
                who: names.intern(&pname),
                name: pname,
                role,
                samples_received: r.get_u64()?,
                joined_seq: r.get_u64()?,
            });
        }
        let events = BoundedLog::restore_from(&mut r, &mut names)?;
        r.expect_end()?;
        Ok(SteeringSession {
            participants,
            params,
            events,
            sample_seq,
            join_counter,
            fanout_bytes,
        })
    }

    /// §4.4's tolerance rule: the acceptable simulation-loop delay is
    /// ~60 s, and "this tolerance can even be increased if intermediate
    /// results … are displayed in-between". Returns the effective budget
    /// given how often intermediate samples arrive.
    pub fn effective_sim_budget(sample_interval: SimTime) -> SimTime {
        let base = SimTime::from_secs(60);
        if sample_interval <= SimTime::from_secs(10) {
            // steady intermediate results: tolerance roughly doubles
            SimTime::from_secs(120)
        } else {
            base
        }
    }
}

/// The event's checkpoint encoding — also what the audit log's eviction
/// fold runs over.
impl LogEntry for SessionEvent {
    fn put(&self, w: &mut SectionWriter) {
        match self {
            SessionEvent::Joined(name) => {
                w.put_u8(0);
                w.put_str(name);
            }
            SessionEvent::Left(name) => {
                w.put_u8(1);
                w.put_str(name);
            }
            SessionEvent::MasterPassed { from, to } => {
                w.put_u8(2);
                w.put_str(from);
                w.put_str(to);
            }
            SessionEvent::Steered { who, param, value } => {
                w.put_u8(3);
                w.put_str(who);
                w.put_str(param);
                gridsteer_bus::ckpt::put_value(w, value);
            }
            SessionEvent::SteerRefused { who, param, reason } => {
                w.put_u8(4);
                w.put_str(who);
                w.put_str(param);
                w.put_str(reason);
            }
            SessionEvent::SampleBroadcast { seq, bytes } => {
                w.put_u8(5);
                w.put_u64(*seq);
                w.put_u64(*bytes as u64);
            }
        }
    }

    fn get(r: &mut SectionReader<'_>, names: &mut Names) -> Result<SessionEvent, CkptError> {
        Ok(match r.get_u8()? {
            0 => SessionEvent::Joined(r.get_str()?),
            1 => SessionEvent::Left(r.get_str()?),
            2 => SessionEvent::MasterPassed {
                from: r.get_str()?,
                to: r.get_str()?,
            },
            3 => SessionEvent::Steered {
                who: names.intern(r.get_str_ref()?),
                param: names.intern(r.get_str_ref()?),
                value: gridsteer_bus::ckpt::get_value(r, "session event value")?,
            },
            4 => SessionEvent::SteerRefused {
                who: names.intern(r.get_str_ref()?),
                param: names.intern(r.get_str_ref()?),
                reason: r.get_str()?,
            },
            5 => SessionEvent::SampleBroadcast {
                seq: r.get_u64()?,
                bytes: r.get_u64()? as usize,
            },
            _ => {
                return Err(CkptError::Corrupt {
                    context: "session event tag".into(),
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamSpec;

    fn session() -> SteeringSession {
        let mut reg = ParamRegistry::new();
        reg.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
        SteeringSession::new(reg)
    }

    #[test]
    fn steer_batch_is_all_or_nothing() {
        let mut s = session();
        let a = s.join("a");
        // one bad command poisons the whole batch
        let r = s.steer_batch(
            a,
            &[
                SteerCommand::f64("miscibility", 0.25),
                SteerCommand::f64("miscibility", 7.0),
            ],
        );
        assert!(r.is_err());
        assert_eq!(
            s.params.get_value("miscibility"),
            Some(ParamValue::F64(1.0)),
            "nothing applied"
        );
        // a clean batch applies in order
        let n = s
            .steer_batch(
                a,
                &[
                    SteerCommand::f64("miscibility", 0.25),
                    SteerCommand::f64("miscibility", 0.75),
                ],
            )
            .unwrap();
        assert_eq!(n, 2);
        assert_eq!(
            s.params.get_value("miscibility"),
            Some(ParamValue::F64(0.75))
        );
        assert_eq!(
            s.events()
                .iter()
                .filter(|e| matches!(e, SessionEvent::Steered { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn viewer_batch_refused() {
        let mut s = session();
        let _a = s.join("a");
        let b = s.join("b");
        assert_eq!(
            s.steer_batch(b, &[SteerCommand::f64("miscibility", 0.5)])
                .unwrap_err(),
            "not the master"
        );
    }

    #[test]
    fn first_joiner_is_master() {
        let mut s = session();
        let a = s.join("brooke");
        let b = s.join("eickermann");
        assert_eq!(s.participant(a).unwrap().role, Role::Master);
        assert_eq!(s.participant(b).unwrap().role, Role::Viewer);
        assert_eq!(s.master(), Some(a));
    }

    #[test]
    fn only_master_steers() {
        let mut s = session();
        let a = s.join("master");
        let b = s.join("viewer");
        assert!(s.steer(a, "miscibility", 0.5).is_ok());
        assert!(s.steer(b, "miscibility", 0.2).is_err());
        assert_eq!(
            s.params.get_value("miscibility"),
            Some(ParamValue::F64(0.5))
        );
        assert!(matches!(
            s.events().last(),
            Some(SessionEvent::SteerRefused { .. })
        ));
    }

    #[test]
    fn token_passing_moves_steering_rights() {
        let mut s = session();
        let a = s.join("a");
        let b = s.join("b");
        assert!(s.pass_master(a, b));
        assert!(s.steer(a, "miscibility", 0.2).is_err());
        assert!(s.steer(b, "miscibility", 0.2).is_ok());
        // non-master cannot pass the token
        assert!(!s.pass_master(a, b));
        // passing to self is refused
        assert!(!s.pass_master(b, b));
    }

    #[test]
    fn master_departure_auto_promotes() {
        let mut s = session();
        let a = s.join("a");
        let _b = s.join("b");
        let _c = s.join("c");
        s.leave(a);
        assert_eq!(s.master(), Some(0)); // "b" promoted
        assert!(s
            .events()
            .iter()
            .any(|e| matches!(e, SessionEvent::MasterPassed { .. })));
    }

    #[test]
    fn departing_master_hands_off_to_longest_joined() {
        // a passes the token to c, then c leaves: the token must return to
        // a by explicit seniority (smallest joined_seq) — an invariant that
        // holds even if the participant storage is ever reordered — and the
        // handoff must be logged.
        let mut s = session();
        let a = s.join("a");
        let _b = s.join("b");
        let c = s.join("c");
        assert!(s.pass_master(a, c));
        let c = s.index_of("c").unwrap();
        s.leave(c);
        assert_eq!(s.master(), s.index_of("a"));
        assert_eq!(
            s.events().last(),
            Some(&SessionEvent::MasterPassed {
                from: "c".into(),
                to: "a".into()
            })
        );
    }

    #[test]
    fn rejoin_resets_seniority_for_handoff() {
        // a joins, b joins, a leaves and rejoins: b is now longest-joined.
        // When master b departs, the token must go to... well, a is the only
        // one left; make it three-way so the choice is real.
        let mut s = session();
        s.join("a");
        s.join("b"); // b is master? no — a is master (first joiner)
        s.join("c");
        assert!(s.leave_by_name("a")); // master leaves → b promoted
        assert_eq!(s.master(), s.index_of("b"));
        s.join("a"); // a rejoins, now junior to both b and c
        assert!(s.leave_by_name("b")); // master leaves again
        assert_eq!(
            s.master(),
            s.index_of("c"),
            "token must go to c (longest-joined), not the rejoined a"
        );
    }

    #[test]
    fn non_master_departure_passes_no_token() {
        let mut s = session();
        s.join("a");
        s.join("b");
        assert!(s.leave_by_name("b"));
        assert_eq!(s.master(), s.index_of("a"));
        assert!(!s
            .events()
            .iter()
            .any(|e| matches!(e, SessionEvent::MasterPassed { .. })));
    }

    #[test]
    fn leave_by_name_unknown_is_refused() {
        let mut s = session();
        s.join("a");
        assert!(!s.leave_by_name("ghost"));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn join_seq_is_monotone_and_survives_churn() {
        let mut s = session();
        s.join("a");
        s.join("b");
        s.leave_by_name("a");
        let idx = s.join("a");
        let rejoined = s.participant(idx).unwrap();
        let b = s.participant(s.index_of("b").unwrap()).unwrap();
        assert!(rejoined.joined_seq > b.joined_seq);
    }

    #[test]
    fn handoff_chain_drains_to_last_participant() {
        // masters keep leaving; the token must walk down the join order
        // deterministically until one participant remains.
        let mut s = session();
        for name in ["a", "b", "c", "d"] {
            s.join(name);
        }
        for expected in ["b", "c", "d"] {
            let m = s.master().unwrap();
            s.leave(m);
            assert_eq!(s.master(), s.index_of(expected));
        }
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn out_of_bounds_steer_logged_and_refused() {
        let mut s = session();
        let a = s.join("a");
        assert!(s.steer(a, "miscibility", 5.0).is_err());
        assert_eq!(
            s.params.get_value("miscibility"),
            Some(ParamValue::F64(1.0))
        );
    }

    #[test]
    fn sample_fanout_accounting() {
        let mut s = session();
        s.join("a");
        s.join("b");
        s.join("c");
        let seq = s.broadcast_sample(1000);
        assert_eq!(seq, 1);
        assert_eq!(s.fanout_bytes, 3000);
        assert!(s.participant(0).unwrap().samples_received == 1);
    }

    #[test]
    fn empty_session_edge_cases() {
        let mut s = session();
        assert!(s.is_empty());
        assert_eq!(s.master(), None);
        s.leave(0); // no panic
        assert!(s.steer(0, "miscibility", 0.5).is_err());
    }

    #[test]
    fn session_survives_snapshot_roundtrip_and_resumes_numbering() {
        let mut s = session();
        let a = s.join("a");
        let b = s.join("b");
        s.steer(a, "miscibility", 0.4).unwrap();
        assert!(s.steer(b, "miscibility", 0.1).is_err());
        s.pass_master(a, b);
        s.broadcast_sample(512);
        s.leave_by_name("a");

        let mut snap = Snapshot::new(1, 0);
        s.save_sections(&mut snap, "session/main");
        let snap = Snapshot::decode(&snap.encode()).unwrap();
        let mut restored =
            SteeringSession::restore_sections(&snap, "session/main", s.params.clone()).unwrap();

        assert_eq!(restored.len(), 1);
        assert_eq!(restored.master(), restored.index_of("b"));
        assert_eq!(restored.events(), s.events());
        assert_eq!(restored.fanout_bytes, s.fanout_bytes);
        // counters resume, not restart
        assert_eq!(restored.broadcast_sample(100), 2);
        let idx = restored.join("a");
        let rejoined = restored.participant(idx).unwrap();
        assert_eq!(rejoined.joined_seq, 2, "join counter survived the restore");
        assert_eq!(rejoined.role, Role::Viewer, "b still holds the token");
    }

    #[test]
    fn session_restore_rejects_bad_role_and_event_tags() {
        let s = session();
        let mut snap = Snapshot::new(1, 0);
        s.save_sections(&mut snap, "session/main");
        let body = snap.section("session/main").unwrap().to_vec();
        let mut poisoned = Snapshot::new(1, 0);
        // truncating mid-structure is a typed error, never a panic
        poisoned.push(
            "session/main",
            0,
            body[..body.len().saturating_sub(2)].to_vec(),
        );
        assert!(
            SteeringSession::restore_sections(&poisoned, "session/main", s.params.clone()).is_err()
        );
        assert!(matches!(
            SteeringSession::restore_sections(&poisoned, "ghost", s.params.clone()),
            Err(CkptError::MissingSection { .. })
        ));
    }

    // ---- bounded audit state ------------------------------------------

    use gridsteer_bus::{SteerHub, AUDIT_WINDOW};

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    fn fnv(h: u64, bytes: &[u8]) -> u64 {
        bytes.iter().fold(h, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    /// A hub and the session sharing its registry, with master `a` joined.
    fn hub_and_session() -> (SteerHub, SteeringSession) {
        let hub = SteerHub::new(vec![ParamSpec::f64("miscibility", 0.0, 1.0, 1.0)]);
        let mut s = SteeringSession::with_registry(hub.registry());
        s.join("a");
        (hub, s)
    }

    /// Steer number `i` of a fixed pattern with period 8: seven applied
    /// values and one out-of-bounds refusal — so any two windows of the
    /// log that start at the same phase encode to the same size.
    fn steer_nth(s: &mut SteeringSession, i: usize) {
        let v = match i % 8 {
            7 => 5.0,
            k => k as f64 / 8.0,
        };
        let _ = s.steer(0, "miscibility", v);
    }

    /// `(session section, steer section)` as a checkpoint would hold them.
    fn sections(hub: &SteerHub, s: &SteeringSession) -> (Vec<u8>, Vec<u8>) {
        let mut snap = Snapshot::new(1, 0);
        s.save_sections(&mut snap, "session/0");
        hub.save_sections(&mut snap, "steer");
        let snap = Snapshot::decode(&snap.encode()).unwrap();
        (
            snap.section("session/0").unwrap().to_vec(),
            snap.section("steer").unwrap().to_vec(),
        )
    }

    #[test]
    fn audit_log_holds_a_window_whatever_the_run_length() {
        let mut sizes = Vec::new();
        for steers in [3 * AUDIT_WINDOW, 12 * AUDIT_WINDOW] {
            let (hub, mut s) = hub_and_session();
            // the unbounded log the session used to keep
            let mut reference = vec![s.events()[0].clone()];
            for i in 0..steers {
                steer_nth(&mut s, i);
                reference.push(s.events().last().unwrap().clone());
                assert!(s.events().len() < 2 * AUDIT_WINDOW);
            }
            let log = s.audit_log();
            assert_eq!(log.total(), reference.len() as u64);
            assert_eq!(log.evicted() as usize + s.events().len(), reference.len());
            assert!(s.events().len() >= AUDIT_WINDOW);
            let (evicted, tail) = reference.split_at(log.evicted() as usize);
            assert_eq!(s.events(), tail);
            let mut w = SectionWriter::new();
            evicted.iter().for_each(|e| e.put(&mut w));
            assert_eq!(log.fold(), fnv(FNV_OFFSET, w.as_bytes()));
            sizes.push(sections(&hub, &s));
        }
        let (short, long) = (&sizes[0], &sizes[1]);
        assert!(
            long.0.len() <= short.0.len() && long.1.len() <= short.1.len(),
            "sections grew with the run: session {} -> {} B, steer {} -> {} B",
            short.0.len(),
            long.0.len(),
            short.1.len(),
            long.1.len()
        );
    }

    #[test]
    fn restore_after_an_eviction_resumes_the_same_window() {
        let (hub, mut s) = hub_and_session();
        let past_first_eviction = 2 * AUDIT_WINDOW + 100;
        (0..past_first_eviction).for_each(|i| steer_nth(&mut s, i));
        assert!(s.audit_log().evicted() > 0);

        let mut snap = Snapshot::new(1, 0);
        hub.save_sections(&mut snap, "steer");
        s.save_sections(&mut snap, "session/0");
        let snap = Snapshot::decode(&snap.encode()).unwrap();
        let hub2 = SteerHub::default();
        hub2.restore_sections(&snap, "steer").unwrap();
        let mut s2 =
            SteeringSession::restore_sections(&snap, "session/0", hub2.registry()).unwrap();
        assert_eq!(s2.events(), s.events(), "the tail at its saved length");

        // both copies run on across the next eviction and stay twins
        for i in past_first_eviction..past_first_eviction + AUDIT_WINDOW {
            steer_nth(&mut s, i);
            steer_nth(&mut s2, i);
        }
        assert!(s.audit_log().evicted() > AUDIT_WINDOW as u64);
        assert_eq!(s2.audit_log(), s.audit_log());
        assert_eq!(
            hub2.registry().history(),
            hub.registry().history(),
            "the change log too"
        );
        assert_eq!(sections(&hub2, &s2), sections(&hub, &s));
    }

    #[test]
    fn sim_budget_extends_with_intermediate_results() {
        let fast = SteeringSession::effective_sim_budget(SimTime::from_secs(2));
        let slow = SteeringSession::effective_sim_budget(SimTime::from_secs(30));
        assert_eq!(slow, SimTime::from_secs(60));
        assert!(fast > slow);
    }
}
