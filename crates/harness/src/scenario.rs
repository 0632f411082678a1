//! The scenario builder DSL: what a run is made of and what happens in it.
//! (The deterministic engine that executes a built scenario is the private
//! `engine` module.)
//!
//! A [`Scenario`] wires N steering participants, one simulation backend,
//! and per-participant [`netsim::FaultyLink`]s into a single run driven
//! entirely by the virtual clock ([`netsim::EventQueue`]) and a seeded RNG
//! — no wall-clock, no sockets, no threads. Everything that happens
//! mid-run (client churn, master handoff, fault injection, migration) is a
//! scripted [`Action`] at a virtual time, so a scenario replays
//! byte-identically for a given seed.
//!
//! Steering runs over the `gridsteer_bus`: every participant attaches a
//! [`gridsteer_bus::SteerEndpoint`] of a chosen [`Transport`] (loopback by
//! default; VISIT / OGSA / COVISE / UNICORE via
//! [`Scenario::participant_via`] / [`Scenario::route`]) to one
//! [`gridsteer_bus::SteerHub`] shared with the session, so one scenario
//! steers the same simulation over several middlewares at once — the
//! paper's interop demo. Steer commands that survive their link are
//! *staged* through the endpoint on arrival and *committed atomically at
//! the next sample/step boundary* in staging order, which keeps
//! multi-transport digests byte-stable at any `EXEC_THREADS`.
//!
//! The outbound half is symmetric: [`Scenario::viewer_via`] attaches
//! monitor-bus subscribers per transport to one
//! [`gridsteer_bus::MonitorHub`]. At every step boundary the backend
//! publishes its monitored quantities as one batch; the hub filters and
//! decimates per each viewer's negotiated capability set, admitted frames
//! ride that viewer's faulted link, and every arrival is scored against
//! the viewer's `LoopBudget` on the virtual clock — so reaction-budget
//! violations, per-transport delivery counts, and a byte-stable fold of
//! the received frames all land in the [`ScenarioReport`] digest.
//!
//! ```
//! use gridsteer_harness::Scenario;
//! use netsim::{Link, SimTime};
//!
//! let report = Scenario::named("loss-demo")
//!     .seed(7)
//!     .participant("alice", Link::uk_janet())
//!     .participant("bob", Link::transatlantic())
//!     .loss_at(SimTime::from_millis(200), "bob", 200_000)
//!     .steer_at(SimTime::from_millis(500), "alice", "miscibility", 0.3)
//!     .duration(SimTime::from_secs(1))
//!     .run();
//! assert_eq!(report.digest(), Scenario::named("loss-demo")
//!     .seed(7)
//!     .participant("alice", Link::uk_janet())
//!     .participant("bob", Link::transatlantic())
//!     .loss_at(SimTime::from_millis(200), "bob", 200_000)
//!     .steer_at(SimTime::from_millis(500), "alice", "miscibility", 0.3)
//!     .duration(SimTime::from_secs(1))
//!     .run()
//!     .digest());
//! ```

use crate::engine::World;
use crate::error::{ScenarioError, MAX_NAME_LEN};
use crate::report::ScenarioReport;
use gridsteer_bus::Transport;
use lbm::LbmConfig;
use netsim::{Link, SimTime};
use pepc::PepcConfig;
use std::collections::BTreeMap;
use steer_core::{LoopBudget, ParamValue};

/// A scripted occurrence at a virtual time.
#[derive(Debug, Clone)]
pub enum Action {
    /// A participant joins (or rejoins) over the given link. A rejoin is a
    /// new connection: the link (and any partition/loss/jitter fault state)
    /// is replaced, while delivery statistics accumulate across
    /// connections.
    Join {
        /// Participant name.
        name: String,
        /// Steady-state link profile (its seed is re-derived from the
        /// scenario seed).
        link: Link,
    },
    /// A participant leaves; a departing master hands the token to the
    /// longest-joined remaining participant.
    Leave {
        /// Participant name.
        name: String,
    },
    /// The master passes the token explicitly.
    PassMaster {
        /// Current master.
        from: String,
        /// Recipient.
        to: String,
    },
    /// A participant sends a steer command over their (possibly faulted)
    /// link; on arrival it is staged through the sender's bus endpoint
    /// and committed at the next step boundary — or lost in transit.
    Steer {
        /// Sender.
        who: String,
        /// Parameter name.
        param: String,
        /// Requested typed value.
        value: ParamValue,
    },
    /// Sever a participant's link until healed.
    Partition {
        /// Participant name.
        who: String,
    },
    /// Restore a partitioned link.
    Heal {
        /// Participant name.
        who: String,
    },
    /// Inject extra loss (ppm) on a participant's link.
    SetLoss {
        /// Participant name.
        who: String,
        /// Loss in parts-per-million.
        ppm: u32,
    },
    /// Inject extra jitter on a participant's link.
    SetJitter {
        /// Participant name.
        who: String,
        /// Maximum extra jitter.
        jitter: SimTime,
    },
    /// Migrate the computation between named `sc2003` sites; sampling
    /// pauses for the transfer + restart gap.
    Migrate {
        /// Source site.
        from: String,
        /// Destination site.
        to: String,
    },
    /// A monitor-bus viewer detaches mid-run: its subscription is pruned
    /// from the hub (or relay tier) it was attached to, its final
    /// delivery statistics are frozen into the report, and no further
    /// frames reach it.
    ViewerLeave {
        /// Viewer name.
        name: String,
    },
    /// A monitor-bus viewer attaches (or re-attaches) mid-run, at the
    /// origin or under a named relay tier — where the late joiner is
    /// served cached keyframes without the request travelling upstream.
    ViewerJoin {
        /// Viewer name.
        name: String,
        /// Link profile (its seed is re-derived from the scenario seed).
        link: Link,
        /// Monitor transport.
        transport: Transport,
        /// Relay tier to attach under (`None` = the origin hub).
        relay: Option<String>,
    },
    /// The simulation process dies: backend, steer hub, sessions and
    /// monitor hubs are lost; sample ticks black out (counted in
    /// `broadcasts_skipped`) until a [`Action::Restore`]. The crash
    /// itself is deliberately silent — no engine event, no counter — so
    /// that a recovery from an up-to-date checkpoint leaves the report
    /// byte-identical to an uncrashed run.
    Crash,
    /// Restart from the latest checkpoint chain (requires
    /// [`Scenario::checkpoint_every`]): the full snapshot plus every
    /// delta is decoded and the whole process state — backend fields,
    /// steer hub, session shards, monitor hub, relay tiers — is rebuilt
    /// from it. Steering clients and viewers reconnect over their
    /// declared transports; sequence numbering and delivery schedules
    /// resume exactly where the checkpoint cut them. A restore with no
    /// crash in effect is rejected by [`Scenario::validate`]; one that
    /// comes before the first checkpoint was cut has nothing to restart
    /// from — it is logged (`restore-miss no-checkpoint`) and the process
    /// stays down.
    Restore,
}

impl Action {
    /// Stable kind label — validation messages, the fuzzer's action-mix
    /// histogram, and the script text form all use these names.
    pub fn label(&self) -> &'static str {
        match self {
            Action::Join { .. } => "join",
            Action::Leave { .. } => "leave",
            Action::PassMaster { .. } => "pass",
            Action::Steer { .. } => "steer",
            Action::Partition { .. } => "partition",
            Action::Heal { .. } => "heal",
            Action::SetLoss { .. } => "loss",
            Action::SetJitter { .. } => "jitter",
            Action::Migrate { .. } => "migrate",
            Action::ViewerLeave { .. } => "viewer-leave",
            Action::ViewerJoin { .. } => "viewer-join",
            Action::Crash => "crash",
            Action::Restore => "restore",
        }
    }
}

#[derive(Debug, Clone)]
pub(crate) enum BackendSpec {
    Lbm(LbmConfig),
    Pepc(PepcConfig),
}

/// A declared monitor-bus viewer: a subscriber receiving the backend's
/// monitored output over a chosen transport, scored against a reaction
/// budget.
#[derive(Debug, Clone)]
pub(crate) struct ViewerSpec {
    pub(crate) name: String,
    pub(crate) link: Link,
    pub(crate) transport: Transport,
    pub(crate) budget: LoopBudget,
    /// Requested decimation (accept every Nth admissible frame).
    pub(crate) every: u32,
    /// Relay tier this viewer hangs off (`None` = the origin hub).
    pub(crate) relay: Option<String>,
}

/// A declared relay tier: a [`gridsteer_bus::RelayHub`] fed over its own
/// (faultable) uplink, fanning the stream to children — deeper relays or
/// viewers.
#[derive(Debug, Clone)]
pub(crate) struct RelaySpec {
    pub(crate) name: String,
    /// Parent relay name (`None` = fed directly by the origin hub).
    pub(crate) parent: Option<String>,
    pub(crate) uplink: Link,
    /// This tier's decimation rate (forward every Nth frame).
    pub(crate) every: u32,
    /// Default per-delivery send budget for children at this tier.
    pub(crate) child_budget: Option<usize>,
}

/// A deterministic end-to-end steering scenario (builder).
#[derive(Debug, Clone)]
pub struct Scenario {
    pub(crate) name: String,
    pub(crate) seed: u64,
    pub(crate) backend: BackendSpec,
    pub(crate) participants: Vec<(String, Link)>,
    /// Steering transport per participant (absent = loopback).
    pub(crate) transports: BTreeMap<String, Transport>,
    /// Monitor-bus viewers, in declaration order.
    pub(crate) viewers: Vec<ViewerSpec>,
    /// Relay tiers, in declaration order (parents before children).
    pub(crate) relays: Vec<RelaySpec>,
    /// Steering-session shards sharing one parameter authority.
    pub(crate) shards: usize,
    pub(crate) actions: Vec<(SimTime, Action)>,
    pub(crate) sample_every: SimTime,
    pub(crate) steps_per_sample: usize,
    pub(crate) duration: SimTime,
    /// Cut a process checkpoint at the first sample tick at/after every
    /// multiple of this interval (`None` = no checkpoints).
    pub(crate) checkpoint_every: Option<SimTime>,
    /// Executor pool the backend dispatches onto (`None` = the shared pool
    /// for the backend config's thread count). Never affects results.
    pub(crate) pool: Option<std::sync::Arc<gridsteer_exec::ExecPool>>,
}

impl Scenario {
    /// A named scenario with defaults: a small LBM backend, 100 ms sample
    /// interval, one simulation step per sample, 3 s duration, seed 1.
    pub fn named(name: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            seed: 1,
            backend: BackendSpec::Lbm(LbmConfig::small()),
            participants: Vec::new(),
            transports: BTreeMap::new(),
            viewers: Vec::new(),
            relays: Vec::new(),
            shards: 1,
            actions: Vec::new(),
            sample_every: SimTime::from_millis(100),
            steps_per_sample: 1,
            duration: SimTime::from_secs(3),
            checkpoint_every: None,
            pool: None,
        }
    }

    /// Run the backend on an explicit executor pool — scenario sweeps and
    /// the `gridsteer_bench` experiments pass one shared pool so every run reuses the
    /// same persistent workers. The pool never changes results (fixed
    /// chunking; see `gridsteer_exec`).
    pub fn pool(mut self, pool: std::sync::Arc<gridsteer_exec::ExecPool>) -> Self {
        self.pool = Some(pool);
        self
    }

    /// The seed every deterministic stream in the run derives from.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Use the LB two-fluid backend (its config seed is re-derived from
    /// the scenario seed).
    pub fn lbm(mut self, cfg: LbmConfig) -> Self {
        self.backend = BackendSpec::Lbm(cfg);
        self
    }

    /// Use the PEPC plasma backend (its config seed is re-derived from the
    /// scenario seed).
    pub fn pepc(mut self, cfg: PepcConfig) -> Self {
        self.backend = BackendSpec::Pepc(cfg);
        self
    }

    /// Add a participant present from t=0. The first participant becomes
    /// the session master. Steers over the in-process loopback transport.
    pub fn participant(mut self, name: &str, link: Link) -> Self {
        self.participants.push((name.to_string(), link));
        self
    }

    /// Add a t=0 participant steering over an explicit bus [`Transport`]
    /// (VISIT wire, OGSA service, COVISE module, UNICORE jobs…).
    pub fn participant_via(self, name: &str, link: Link, transport: Transport) -> Self {
        self.participant(name, link).route(name, transport)
    }

    /// Route a participant's steering traffic (present or future — also
    /// applies to mid-run [`Action::Join`]ers) over a bus transport.
    pub fn route(mut self, name: &str, transport: Transport) -> Self {
        self.transports.insert(name.to_string(), transport);
        self
    }

    /// Attach a monitor-bus viewer receiving the backend's monitored
    /// output over the given transport, with deliveries scored against
    /// the §4.2 desktop-render budget. Viewers are pure data-plane
    /// consumers: they do not join the steering session, but their links
    /// share the fault namespace (partition/loss/jitter actions find them
    /// by name).
    pub fn viewer_via(self, name: &str, link: Link, transport: Transport) -> Self {
        self.viewer_with_budget(name, link, transport, LoopBudget::DesktopRender)
    }

    /// Attach a viewer scored against an explicit [`LoopBudget`] (a CAVE
    /// wall wants `VrRender`; a post-processing site takes
    /// `PostProcessing`).
    pub fn viewer_with_budget(
        mut self,
        name: &str,
        link: Link,
        transport: Transport,
        budget: LoopBudget,
    ) -> Self {
        self.viewers.push(ViewerSpec {
            name: name.to_string(),
            link,
            transport,
            budget,
            every: 1,
            relay: None,
        });
        self
    }

    /// Attach a viewer under a declared relay tier instead of the origin
    /// hub: its frames arrive via the relay's uplink and the relay's own
    /// decimation/budget policy, and a late joiner is served keyframes
    /// from the relay's edge cache. Scored against the desktop-render
    /// budget.
    pub fn viewer_at_relay(
        mut self,
        name: &str,
        relay: &str,
        link: Link,
        transport: Transport,
    ) -> Self {
        self.viewers.push(ViewerSpec {
            name: name.to_string(),
            link,
            transport,
            budget: LoopBudget::DesktopRender,
            every: 1,
            relay: Some(relay.to_string()),
        });
        self
    }

    /// Declare a relay tier fed directly by the origin hub over the
    /// given uplink. Children (viewers via [`Scenario::viewer_at_relay`],
    /// deeper relays via [`Scenario::relay_under`]) fan out from it.
    pub fn relay(mut self, name: &str, uplink: Link) -> Self {
        self.relays.push(RelaySpec {
            name: name.to_string(),
            parent: None,
            uplink,
            every: 1,
            child_budget: None,
        });
        self
    }

    /// Declare a relay tier fed by another relay — tree composition. The
    /// parent must be declared first (tiers are pumped in declaration
    /// order, parents before children).
    pub fn relay_under(mut self, name: &str, parent: &str, uplink: Link) -> Self {
        self.relays.push(RelaySpec {
            name: name.to_string(),
            parent: Some(parent.to_string()),
            uplink,
            every: 1,
            child_budget: None,
        });
        self
    }

    /// Set a declared relay's decimation rate: forward only every `n`th
    /// frame downstream (keyframes always pass). Panics if no relay of
    /// that name was declared.
    pub fn relay_every(mut self, name: &str, n: u32) -> Self {
        let r = self
            .relays
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("relay_every: no relay named {name:?} declared"));
        r.every = n.max(1);
        self
    }

    /// Set a declared relay's default per-child send budget: at most
    /// this many frames per delivery per child, oldest shed first.
    /// Panics if no relay of that name was declared.
    pub fn relay_child_budget(mut self, name: &str, budget: usize) -> Self {
        let r = self
            .relays
            .iter_mut()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("relay_child_budget: no relay named {name:?} declared"));
        r.child_budget = Some(budget);
        self
    }

    /// Split the steering session into `n` shards: disjoint participant
    /// sets (round-robin by join order), each with its own master and
    /// audit log, all sharing one parameter authority through the same
    /// [`gridsteer_bus::SteerHub`] registry. `1` (the default) is the classic single
    /// session; with more shards, session events are prefixed `s{i}`.
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n.max(1);
        self
    }

    /// Request decimation for a declared viewer: accept only every `n`th
    /// admissible frame (the negotiated rate — a thin client's knob).
    /// Panics if no viewer of that name was declared (a silent no-op
    /// would leave the viewer at full rate with nothing in the report to
    /// say why).
    pub fn viewer_every(mut self, name: &str, n: u32) -> Self {
        let v = self
            .viewers
            .iter_mut()
            .find(|v| v.name == name)
            .unwrap_or_else(|| panic!("viewer_every: no viewer named {name:?} declared"));
        v.every = n.max(1);
        self
    }

    /// Sample (and step) interval.
    pub fn sample_every(mut self, t: SimTime) -> Self {
        self.sample_every = t;
        self
    }

    /// Simulation steps per sample tick.
    pub fn steps_per_sample(mut self, n: usize) -> Self {
        self.steps_per_sample = n.max(1);
        self
    }

    /// Virtual run length (samples stop after this time).
    pub fn duration(mut self, t: SimTime) -> Self {
        self.duration = t;
        self
    }

    /// Cut a process checkpoint every `t` of virtual time (at the end of
    /// the first sample tick at/after each due point). The first cut is
    /// a full snapshot in the `gridsteer_ckpt` wire format; later cuts
    /// are dirty-chunk deltas against the previous one. Cutting is
    /// side-effect free: it draws no randomness, logs nothing, and never
    /// changes the report — a run with checkpoints enabled digests
    /// byte-identically to one without.
    pub fn checkpoint_every(mut self, t: SimTime) -> Self {
        assert!(t > SimTime::ZERO, "checkpoint interval must be positive");
        self.checkpoint_every = Some(t);
        self
    }

    /// Schedule a raw [`Action`] at virtual time `t`.
    pub fn at(mut self, t: SimTime, action: Action) -> Self {
        self.actions.push((t, action));
        self
    }

    /// Sugar: a participant joins mid-run.
    pub fn join_at(self, t: SimTime, name: &str, link: Link) -> Self {
        self.at(
            t,
            Action::Join {
                name: name.to_string(),
                link,
            },
        )
    }

    /// Sugar: a participant leaves mid-run.
    pub fn leave_at(self, t: SimTime, name: &str) -> Self {
        self.at(
            t,
            Action::Leave {
                name: name.to_string(),
            },
        )
    }

    /// Sugar: an f64 steer command is sent.
    pub fn steer_at(self, t: SimTime, who: &str, param: &str, value: f64) -> Self {
        self.steer_value_at(t, who, param, ParamValue::F64(value))
    }

    /// Sugar: a typed steer command is sent.
    pub fn steer_value_at(self, t: SimTime, who: &str, param: &str, value: ParamValue) -> Self {
        self.at(
            t,
            Action::Steer {
                who: who.to_string(),
                param: param.to_string(),
                value,
            },
        )
    }

    /// Sugar: the master passes the token.
    pub fn pass_master_at(self, t: SimTime, from: &str, to: &str) -> Self {
        self.at(
            t,
            Action::PassMaster {
                from: from.to_string(),
                to: to.to_string(),
            },
        )
    }

    /// Sugar: partition a participant's link.
    pub fn partition_at(self, t: SimTime, who: &str) -> Self {
        self.at(
            t,
            Action::Partition {
                who: who.to_string(),
            },
        )
    }

    /// Sugar: heal a participant's link.
    pub fn heal_at(self, t: SimTime, who: &str) -> Self {
        self.at(
            t,
            Action::Heal {
                who: who.to_string(),
            },
        )
    }

    /// Sugar: inject extra loss on a participant's link.
    pub fn loss_at(self, t: SimTime, who: &str, ppm: u32) -> Self {
        self.at(
            t,
            Action::SetLoss {
                who: who.to_string(),
                ppm,
            },
        )
    }

    /// Sugar: inject extra jitter on a participant's link.
    pub fn jitter_at(self, t: SimTime, who: &str, jitter: SimTime) -> Self {
        self.at(
            t,
            Action::SetJitter {
                who: who.to_string(),
                jitter,
            },
        )
    }

    /// Sugar: the simulation process crashes at `t`.
    pub fn crash_at(self, t: SimTime) -> Self {
        self.at(t, Action::Crash)
    }

    /// Sugar: the process restarts from the latest checkpoint at `t`.
    pub fn restore_at(self, t: SimTime) -> Self {
        self.at(t, Action::Restore)
    }

    /// Sugar: migrate the computation between `sc2003` sites.
    pub fn migrate_at(self, t: SimTime, from: &str, to: &str) -> Self {
        self.at(
            t,
            Action::Migrate {
                from: from.to_string(),
                to: to.to_string(),
            },
        )
    }

    /// Sugar: a monitor viewer detaches mid-run.
    pub fn viewer_leave_at(self, t: SimTime, name: &str) -> Self {
        self.at(
            t,
            Action::ViewerLeave {
                name: name.to_string(),
            },
        )
    }

    /// Sugar: a monitor viewer attaches to the origin hub mid-run.
    pub fn viewer_join_at(self, t: SimTime, name: &str, link: Link, transport: Transport) -> Self {
        self.at(
            t,
            Action::ViewerJoin {
                name: name.to_string(),
                link,
                transport,
                relay: None,
            },
        )
    }

    /// Sugar: a monitor viewer attaches under a relay tier mid-run.
    pub fn viewer_join_relay_at(
        self,
        t: SimTime,
        name: &str,
        relay: &str,
        link: Link,
        transport: Transport,
    ) -> Self {
        self.at(
            t,
            Action::ViewerJoin {
                name: name.to_string(),
                link,
                transport,
                relay: Some(relay.to_string()),
            },
        )
    }

    /// Check the built script for structural defects — duplicate
    /// declarations, dangling relay references, actions scheduled past the
    /// duration, a restore with no checkpoint chain or no crash in effect.
    /// [`Scenario::run`] calls this first and panics with the error; the
    /// fuzzer calls it directly to keep its valid/invalid boundary crisp.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        self.checked_order().map(drop)
    }

    /// [`Scenario::validate`], handing back the schedule it replayed: the
    /// actions in engine order, which [`Scenario::run`] walks as is.
    fn checked_order(&self) -> Result<Vec<(SimTime, usize)>, ScenarioError> {
        if self.sample_every <= SimTime::ZERO {
            return Err(ScenarioError::ZeroSampleInterval);
        }
        self.check_name_lengths()?;
        let relay_names = self.check_namespace()?;
        let order = self.engine_order();
        self.check_schedule(&order, &relay_names)?;
        Ok(order)
    }

    /// Every action as `(time, index)`, in the order the engine applies
    /// them: time, then insertion. The indices are unique, so sorting the
    /// pairs is the stable sort by time.
    pub(crate) fn engine_order(&self) -> Vec<(SimTime, usize)> {
        let mut order: Vec<(SimTime, usize)> = (self.actions.iter().enumerate())
            .map(|(i, (t, _))| (*t, i))
            .collect();
        order.sort_unstable();
        order
    }

    /// Every name that will be attached — declared or joining mid-run —
    /// fits the wire.
    fn check_name_lengths(&self) -> Result<(), ScenarioError> {
        let declared = (self.participants.iter().map(|(name, _)| name))
            .chain(self.viewers.iter().map(|v| &v.name))
            .chain(self.relays.iter().map(|r| &r.name));
        let joining = self.actions.iter().filter_map(|(_, a)| match a {
            Action::Join { name, .. } | Action::ViewerJoin { name, .. } => Some(name),
            _ => None,
        });
        match declared.chain(joining).find(|n| n.len() > MAX_NAME_LEN) {
            Some(name) => Err(ScenarioError::NameTooLong {
                prefix: name.chars().take(16).collect(),
                len: name.len(),
            }),
            None => Ok(()),
        }
    }

    /// Declared participants, viewers and relays are each unique, share no
    /// name across kinds, and every relay reference resolves. Returns the
    /// relay names for the schedule check.
    fn check_namespace(&self) -> Result<Vec<&str>, ScenarioError> {
        let mut participant_names: Vec<&str> = Vec::new();
        for (name, _) in &self.participants {
            if participant_names.contains(&name.as_str()) {
                return Err(ScenarioError::DuplicateParticipant(name.clone()));
            }
            participant_names.push(name);
        }
        let mut viewer_names: Vec<&str> = Vec::new();
        for v in &self.viewers {
            if viewer_names.contains(&v.name.as_str()) {
                return Err(ScenarioError::DuplicateViewer(v.name.clone()));
            }
            viewer_names.push(&v.name);
        }
        let mut relay_names: Vec<&str> = Vec::new();
        for r in &self.relays {
            if relay_names.contains(&r.name.as_str()) {
                return Err(ScenarioError::DuplicateRelay(r.name.clone()));
            }
            if let Some(parent) = &r.parent {
                // declaration order is pump order: parents must come first
                if !relay_names.contains(&parent.as_str()) {
                    return Err(ScenarioError::UnknownRelayParent {
                        relay: r.name.clone(),
                        parent: parent.clone(),
                    });
                }
            }
            relay_names.push(&r.name);
        }
        // fault actions resolve targets across one shared namespace
        for v in &viewer_names {
            if participant_names.contains(v) {
                return Err(ScenarioError::NameCollision(v.to_string()));
            }
        }
        for r in &relay_names {
            if participant_names.contains(r) || viewer_names.contains(r) {
                return Err(ScenarioError::NameCollision(r.to_string()));
            }
        }
        for v in &self.viewers {
            if let Some(relay) = &v.relay {
                if !relay_names.contains(&relay.as_str()) {
                    return Err(ScenarioError::UnknownRelay {
                        viewer: v.name.clone(),
                        relay: relay.clone(),
                    });
                }
            }
        }
        Ok(relay_names)
    }

    /// Replay the schedule in engine order (time, then insertion): nothing
    /// is scheduled past the end, the crash/restore protocol holds, and a
    /// viewer joining at a relay names a declared one.
    fn check_schedule(
        &self,
        order: &[(SimTime, usize)],
        relay_names: &[&str],
    ) -> Result<(), ScenarioError> {
        let mut crashed = false;
        for &(_, i) in order {
            let (t, action) = &self.actions[i];
            if *t > self.duration {
                return Err(ScenarioError::ActionAfterEnd {
                    at: *t,
                    action: action.label(),
                    duration: self.duration,
                });
            }
            match action {
                Action::Crash => crashed = true,
                Action::Restore => {
                    if self.checkpoint_every.is_none() {
                        return Err(ScenarioError::RestoreWithoutCheckpoint);
                    }
                    if !crashed {
                        return Err(ScenarioError::RestoreWithoutCrash { at: *t });
                    }
                    crashed = false;
                }
                Action::ViewerJoin {
                    name,
                    relay: Some(relay),
                    ..
                } if !relay_names.contains(&relay.as_str()) => {
                    return Err(ScenarioError::UnknownRelay {
                        viewer: name.clone(),
                        relay: relay.clone(),
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// The scenario's name.
    pub fn label(&self) -> &str {
        &self.name
    }

    /// The scheduled actions, in insertion order (script introspection for
    /// the fuzzer/shrinker).
    pub fn actions(&self) -> &[(SimTime, Action)] {
        &self.actions
    }

    /// The sample interval.
    pub fn sample_interval(&self) -> SimTime {
        self.sample_every
    }

    /// The checkpoint cadence, if checkpointing is on.
    pub fn checkpoint_interval(&self) -> Option<SimTime> {
        self.checkpoint_every
    }

    /// Number of sample ticks the engine will schedule: every run ends
    /// with `broadcasts + broadcasts_skipped` equal to this (the fuzzer's
    /// loop-accounting invariant).
    pub fn ticks(&self) -> u64 {
        if self.sample_every <= SimTime::ZERO {
            return 0;
        }
        self.duration.as_nanos() / self.sample_every.as_nanos()
    }

    /// Number of session shards the run is split into.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// Declared t=0 participant names, in declaration order.
    pub fn participant_names(&self) -> Vec<&str> {
        self.participants.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Declared viewer names, in declaration order.
    pub fn viewer_names(&self) -> Vec<&str> {
        self.viewers.iter().map(|v| v.name.as_str()).collect()
    }

    /// Declared relay names, in declaration order.
    pub fn relay_names(&self) -> Vec<&str> {
        self.relays.iter().map(|r| r.name.as_str()).collect()
    }

    /// A copy without the `idx`th scheduled action (shrinker hook; no-op
    /// copy if out of range).
    pub fn without_action(&self, idx: usize) -> Scenario {
        let mut s = self.clone();
        if idx < s.actions.len() {
            s.actions.remove(idx);
        }
        s
    }

    /// A copy without one t=0 participant declaration (shrinker hook).
    /// Actions that reference the name stay — the engine logs them as
    /// misses, which is valid behaviour.
    pub fn without_participant(&self, name: &str) -> Scenario {
        let mut s = self.clone();
        s.participants.retain(|(n, _)| n != name);
        s.transports.remove(name);
        s
    }

    /// A copy without one declared viewer (shrinker hook).
    pub fn without_viewer(&self, name: &str) -> Scenario {
        let mut s = self.clone();
        s.viewers.retain(|v| v.name != name);
        s
    }

    /// A copy without one declared relay tier (shrinker hook). The copy
    /// may fail [`Scenario::validate`] if children still reference the
    /// tier — the shrinker skips such candidates.
    pub fn without_relay(&self, name: &str) -> Scenario {
        let mut s = self.clone();
        s.relays.retain(|r| r.name != name);
        s
    }

    /// A copy with checkpointing off (shrinker hook). The copy fails
    /// validation if a restore action remains.
    pub fn without_checkpoints(&self) -> Scenario {
        let mut s = self.clone();
        s.checkpoint_every = None;
        s
    }

    /// Execute the scenario and return its report. Running the same built
    /// scenario twice yields byte-identical reports.
    pub fn run(&self) -> ScenarioReport {
        let order = (self.checked_order())
            .unwrap_or_else(|e| panic!("scenario {:?} is malformed: {e}", self.name));
        let mut world = World::new(self, order);
        while world.step() {}
        world.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_lbm() -> LbmConfig {
        LbmConfig {
            nx: 6,
            ny: 6,
            nz: 6,
            threads: 1,
            ..Default::default()
        }
    }

    fn tiny(name: &str) -> Scenario {
        Scenario::named(name)
            .lbm(tiny_lbm())
            .participant("alice", Link::uk_janet())
            .participant("bob", Link::gwin())
            .duration(SimTime::from_secs(1))
    }

    #[test]
    fn produces_expected_broadcast_count() {
        let r = tiny("count").run();
        // samples at 100ms..1000ms inclusive
        assert_eq!(r.broadcasts, 10);
        assert_eq!(r.total_deliveries(), 20);
        assert_eq!(r.final_progress, 10);
        assert!(r.within_budget);
    }

    #[test]
    fn same_build_same_digest() {
        let a = tiny("det").jitter_at(SimTime::ZERO, "bob", SimTime::from_millis(5));
        let r1 = a.run();
        let r2 = a.run();
        assert_eq!(r1.render(), r2.render());
        assert_eq!(r1.digest(), r2.digest());
    }

    #[test]
    fn different_seed_different_behaviour() {
        let base = tiny("seeds").loss_at(SimTime::ZERO, "bob", 300_000);
        let r1 = base.clone().seed(10).run();
        let r2 = base.seed(11).run();
        assert_ne!(r1.digest(), r2.digest());
    }

    #[test]
    fn master_steer_is_applied() {
        let r = tiny("steer")
            .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.25)
            .run();
        assert_eq!(r.steers_applied, 1);
        assert!(r
            .session_events
            .iter()
            .any(|e| e.starts_with("Steered(alice,miscibility")));
    }

    #[test]
    fn viewer_steer_is_refused_not_lost() {
        let r = tiny("refuse")
            .steer_at(SimTime::from_millis(250), "bob", "miscibility", 0.25)
            .run();
        assert_eq!(r.steers_applied, 0);
        assert_eq!(r.steers_lost, 0);
        assert!(r
            .session_events
            .iter()
            .any(|e| e.starts_with("SteerRefused(bob")));
    }

    #[test]
    fn partitioned_steer_is_lost() {
        let r = tiny("part-steer")
            .partition_at(SimTime::from_millis(100), "alice")
            .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.25)
            .run();
        assert_eq!(r.steers_applied, 0);
        assert_eq!(r.steers_lost, 1);
        assert!(r.engine_events.iter().any(|e| e.contains("steer-lost")));
    }

    #[test]
    fn unknown_names_are_logged_not_fatal() {
        let r = tiny("misses")
            .partition_at(SimTime::from_millis(100), "ghost")
            .leave_at(SimTime::from_millis(200), "ghost")
            .steer_at(SimTime::from_millis(300), "ghost", "miscibility", 0.5)
            .migrate_at(SimTime::from_millis(400), "london", "atlantis")
            .run();
        assert!(r.engine_events.iter().any(|e| e.contains("fault-miss")));
        assert!(r.engine_events.iter().any(|e| e.contains("leave-miss")));
        assert!(r.engine_events.iter().any(|e| e.contains("steer-offline")));
        assert!(r.engine_events.iter().any(|e| e.contains("migrate-miss")));
    }

    #[test]
    fn migration_pauses_sampling_and_is_recorded() {
        let r = tiny("mig")
            .duration(SimTime::from_secs(4))
            .migrate_at(SimTime::from_millis(150), "london", "manchester")
            .run();
        assert_eq!(r.migrations.len(), 1);
        assert!(r.broadcasts_skipped > 0, "blackout must skip samples");
        assert!(r.migrations_within_budget());
        assert!(r.migrations[0].bytes > 0);
    }

    #[test]
    fn late_joiner_shows_up_in_links_and_events() {
        let r = tiny("late")
            .join_at(SimTime::from_millis(500), "carol", Link::transatlantic())
            .run();
        assert!(r.links.iter().any(|(n, s)| n == "carol" && s.delivered > 0));
        assert!(r.session_events.contains(&"Joined(carol)".to_string()));
        let carol = &r.links.iter().find(|(n, _)| n == "carol").unwrap().1;
        let alice = &r.links.iter().find(|(n, _)| n == "alice").unwrap().1;
        assert!(carol.delivered + carol.dropped < alice.delivered + alice.dropped);
    }

    #[test]
    fn rejoin_replaces_link_and_clears_faults() {
        // bob is partitioned, leaves, and rejoins over a fresh link: the
        // rejoin must shed the stale partition and receive samples again,
        // while his lifetime stats keep the pre-rejoin drops.
        let r = tiny("rejoin")
            .duration(SimTime::from_secs(3))
            .partition_at(SimTime::from_millis(200), "bob")
            .leave_at(SimTime::from_millis(500), "bob")
            .join_at(SimTime::from_millis(1000), "bob", Link::transatlantic())
            .run();
        let bob = &r.links.iter().find(|(n, _)| n == "bob").unwrap().1;
        assert!(
            bob.delivered > 1,
            "rejoined client must receive samples again: {bob:?}"
        );
        assert!(bob.dropped > 0, "pre-rejoin drops must stay counted");
        assert_eq!(
            r.session_events
                .iter()
                .filter(|e| *e == "Joined(bob)")
                .count(),
            2
        );
    }

    #[test]
    fn explicit_pool_does_not_change_digest() {
        // the pool is an execution detail: any thread count, same bytes —
        // including across a mid-run migration (checkpoint restore keeps
        // the scenario's pool)
        let base = tiny("pool")
            .duration(SimTime::from_secs(4))
            .steer_at(SimTime::from_millis(300), "alice", "miscibility", 0.4)
            .migrate_at(SimTime::from_millis(600), "london", "manchester");
        let r1 = base.clone().run();
        let r8 = base.clone().pool(gridsteer_exec::shared(8)).run();
        let r_serial = base.pool(gridsteer_exec::shared(1)).run();
        assert_eq!(r1.digest(), r8.digest());
        assert_eq!(r1.digest(), r_serial.digest());
    }

    #[test]
    fn pepc_backend_runs_and_steers() {
        let r = Scenario::named("pepc")
            .pepc(PepcConfig {
                n_target: 40,
                ranks: 1,
                ..PepcConfig::small()
            })
            .participant("alice", Link::uk_janet())
            .duration(SimTime::from_secs(1))
            .steer_at(SimTime::from_millis(300), "alice", "damping", 0.4)
            .run();
        assert_eq!(r.backend, "pepc");
        assert_eq!(r.steers_applied, 1);
        assert!(r.broadcasts > 0);
    }

    #[test]
    fn out_of_bounds_steer_rejected_by_registry() {
        let r = tiny("bounds")
            .steer_at(SimTime::from_millis(200), "alice", "miscibility", 7.0)
            .run();
        assert_eq!(r.steers_applied, 0);
        assert!(r
            .session_events
            .iter()
            .any(|e| e.starts_with("SteerRefused(alice")));
    }

    #[test]
    fn viewers_receive_monitor_frames_and_score_budgets() {
        let r = tiny("viewers")
            .viewer_via("desk", Link::uk_janet(), Transport::Visit)
            .viewer_via("grids", Link::gwin(), Transport::Covise)
            .run();
        assert_eq!(r.monitor_frames, 60, "6 channels x 10 sample ticks");
        let desk = r.viewer("desk").unwrap();
        assert_eq!(desk.delivered, 60, "full caps: every frame");
        assert_eq!(desk.budget, "desktop-render");
        assert_eq!(desk.budget_violations, 0, "janet latency is way inside");
        assert_eq!(desk.transport, "visit");
        let grids = r.viewer("grids").unwrap();
        assert_eq!(grids.delivered, 20, "grids-only caps: 2 of 6 channels");
        assert_eq!(grids.filtered, 40, "scalars+vec3 filtered out");
        assert_ne!(desk.frames_digest, grids.frames_digest);
        assert!(r.viewers_within_budget());
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("attach-viewer grids budget=desktop-render transport=covise")));
    }

    #[test]
    fn viewer_decimation_and_faults_apply() {
        let r = tiny("viewer-faults")
            .viewer_via("thin", Link::uk_janet(), Transport::Loopback)
            .viewer_every("thin", 3)
            .viewer_via("cut", Link::gwin(), Transport::Unicore)
            .partition_at(SimTime::from_millis(150), "cut")
            .heal_at(SimTime::from_millis(650), "cut")
            .run();
        let thin = r.viewer("thin").unwrap();
        assert_eq!(thin.delivered, 20, "every 3rd of 60");
        assert_eq!(thin.decimated, 40);
        let cut = r.viewer("cut").unwrap();
        assert!(cut.dropped >= 24, "5 partitioned ticks x 6 frames: {cut:?}");
        assert!(cut.delivered > 0, "deliveries resume after heal");
        assert!(r.engine_events.iter().any(|e| e.contains("partition cut")));
    }

    #[test]
    fn viewer_runs_replay_byte_identically_across_pools() {
        let build = || {
            tiny("viewer-det")
                .viewer_via("a", Link::uk_janet(), Transport::Visit)
                .viewer_via("b", Link::transatlantic(), Transport::Ogsa)
                .loss_at(SimTime::ZERO, "b", 300_000)
                .steer_at(SimTime::from_millis(400), "alice", "miscibility", 0.3)
        };
        let r1 = build().run();
        let r2 = build().run();
        assert_eq!(r1.render(), r2.render());
        let r8 = build().pool(gridsteer_exec::shared(8)).run();
        assert_eq!(r1.digest(), r8.digest());
        let b = r1.viewer("b").unwrap();
        assert!(b.dropped > 0, "30% loss must drop monitor frames: {b:?}");
    }

    #[test]
    fn pepc_viewer_gets_plasma_channels() {
        let r = Scenario::named("pepc-viewer")
            .pepc(PepcConfig {
                n_target: 40,
                ranks: 1,
                ..PepcConfig::small()
            })
            .participant("alice", Link::uk_janet())
            .viewer_via("v", Link::gwin(), Transport::Visit)
            .duration(SimTime::from_secs(1))
            .run();
        assert_eq!(r.monitor_frames, 30, "3 scalar channels x 10 ticks");
        assert_eq!(r.viewer("v").unwrap().delivered, 30);
    }

    #[test]
    fn viewer_leave_freezes_deliveries() {
        let r = tiny("churn")
            .viewer_via("v", Link::uk_janet(), Transport::Visit)
            .viewer_leave_at(SimTime::from_millis(450), "v")
            .viewer_leave_at(SimTime::from_millis(500), "ghost")
            .run();
        let v = r.viewer("v").unwrap();
        assert_eq!(v.delivered, 24, "4 ticks x 6 channels before the leave");
        assert!(r.engine_events.iter().any(|e| e.contains("viewer-leave v")));
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("viewer-leave-miss ghost")));
    }

    #[test]
    fn viewer_rejoin_resumes_and_accumulates() {
        let r = tiny("viewer-rejoin")
            .viewer_via("v", Link::uk_janet(), Transport::Visit)
            .viewer_leave_at(SimTime::from_millis(350), "v")
            .viewer_join_at(
                SimTime::from_millis(650),
                "v",
                Link::gwin(),
                Transport::Loopback,
            )
            .run();
        let v = r.viewer("v").unwrap();
        assert_eq!(
            v.delivered,
            18 + 24,
            "3 ticks before the leave + 4 after the rejoin, x 6 channels"
        );
        // a second join while online is refused
        let r2 = tiny("viewer-rejoin-dup")
            .viewer_via("v", Link::uk_janet(), Transport::Visit)
            .viewer_join_at(
                SimTime::from_millis(300),
                "v",
                Link::gwin(),
                Transport::Loopback,
            )
            .run();
        assert!(r2
            .engine_events
            .iter()
            .any(|e| e.contains("viewer-join-miss v")));
    }

    #[test]
    fn relay_tier_streams_byte_identical_to_direct_attach() {
        let r = tiny("relay")
            .relay("region", Link::campus())
            .relay_under("edge", "region", Link::uk_janet())
            .viewer_at_relay("leaf", "edge", Link::gwin(), Transport::Visit)
            .viewer_via("direct", Link::gwin(), Transport::Visit)
            .run();
        let leaf = r.viewer("leaf").unwrap();
        let direct = r.viewer("direct").unwrap();
        assert_eq!(leaf.delivered, 60, "nothing thinned across two tiers");
        assert_eq!(
            leaf.frames_digest, direct.frames_digest,
            "sequence numbers and bytes survive the tree"
        );
        let region = r.relay("region").unwrap();
        assert_eq!(region.parent, None);
        assert_eq!(region.ingested, 60);
        assert_eq!(region.forwarded, 60);
        assert_eq!(r.relay("edge").unwrap().parent.as_deref(), Some("region"));
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("attach-relay edge parent=region")));
    }

    #[test]
    fn relay_decimation_and_uplink_faults_are_reported() {
        let r = tiny("relay-faults")
            .relay("region", Link::campus())
            .relay_every("region", 3)
            .viewer_at_relay("leaf", "region", Link::uk_janet(), Transport::Loopback)
            .partition_at(SimTime::from_millis(150), "region")
            .heal_at(SimTime::from_millis(450), "region")
            .run();
        let region = r.relay("region").unwrap();
        assert!(
            region.uplink_dropped > 0,
            "partitioned uplink drops batches"
        );
        assert!(region.decimated > 0, "tier thins the stream");
        assert_eq!(region.ingested, region.forwarded + region.decimated);
        assert!(r.viewer("leaf").unwrap().delivered > 0);
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("partition region")));
    }

    #[test]
    fn late_relay_viewer_is_served_from_the_edge_cache() {
        let r = tiny("relay-late")
            .relay("edge", Link::campus())
            .viewer_at_relay("pioneer", "edge", Link::uk_janet(), Transport::Loopback)
            .viewer_join_relay_at(
                SimTime::from_millis(550),
                "late",
                "edge",
                Link::uk_janet(),
                Transport::Visit,
            )
            .run();
        // grid channels are self-contained, so the joiner starts from the
        // cached state plus everything published after the join
        let late = r.viewer("late").unwrap();
        assert!(
            late.delivered > 24,
            "cache serve + post-join ticks: {late:?}"
        );
        assert!(r.relay("edge").unwrap().keyframes_served > 0);
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("attach-viewer late via=edge")));
    }

    #[test]
    fn sharded_sessions_split_masters_and_share_authority() {
        let r = tiny("shards")
            .shards(2)
            .steer_at(SimTime::from_millis(250), "bob", "miscibility", 0.25)
            .pass_master_at(SimTime::from_millis(400), "alice", "bob")
            .run();
        assert_eq!(r.steers_applied, 1, "bob masters his own shard");
        assert!(r
            .engine_events
            .iter()
            .any(|e| e.contains("pass-shard-miss alice->bob")));
        assert!(r.session_events.contains(&"s0 Joined(alice)".to_string()));
        assert!(r.session_events.contains(&"s1 Joined(bob)".to_string()));
        assert_eq!(r.broadcasts, 10, "one backend sample stream, n shards");
    }

    #[test]
    fn single_shard_renders_without_prefix_and_relays_stay_deterministic() {
        let build = || {
            tiny("relay-det")
                .shards(2)
                .relay("region", Link::campus())
                .relay_under("edge", "region", Link::uk_janet())
                .viewer_at_relay("leaf", "edge", Link::transatlantic(), Transport::Ogsa)
                .viewer_leave_at(SimTime::from_millis(500), "leaf")
                .steer_at(SimTime::from_millis(300), "alice", "miscibility", 0.4)
        };
        let r1 = build().run();
        let r2 = build().run();
        assert_eq!(r1.render(), r2.render());
        let r8 = build().pool(gridsteer_exec::shared(8)).run();
        assert_eq!(r1.digest(), r8.digest());
        let plain = tiny("plain").run();
        assert!(
            plain.session_events.iter().all(|e| !e.starts_with("s0 ")),
            "single shard keeps the classic rendering"
        );
    }

    #[test]
    fn zero_sample_interval_panics() {
        let s = tiny("bad").sample_every(SimTime::ZERO);
        // AssertUnwindSafe: the optional pool handle holds sync primitives
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || s.run())).is_err());
    }

    #[test]
    fn checkpoint_cutting_is_invisible_in_the_report() {
        // cutting snapshots is pure observation: no rng draws, no events,
        // no counter changes — a checkpointed run renders byte-identically
        // to one that never checkpoints
        let plain = tiny("ckpt-inv").run();
        let cut = tiny("ckpt-inv")
            .checkpoint_every(SimTime::from_millis(300))
            .run();
        assert_eq!(plain.render(), cut.render());
    }

    #[test]
    fn crash_restore_replays_byte_identical_to_uncrashed() {
        // checkpoints at 500ms and 1000ms; the process dies at 1050ms and
        // is rebuilt at 1080ms from the 1000ms cut. Nothing happened in
        // between, so recovery is invisible: every sample, delivery,
        // viewer frame and post-restore steer replays byte-for-byte.
        let build = || {
            tiny("recover")
                .duration(SimTime::from_secs(2))
                .shards(2)
                .relay("region", Link::campus())
                .viewer_at_relay("leaf", "region", Link::uk_janet(), Transport::Visit)
                .viewer_via("direct", Link::gwin(), Transport::Covise)
                .checkpoint_every(SimTime::from_millis(500))
                .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.4)
                .steer_at(SimTime::from_millis(1450), "alice", "miscibility", 0.2)
        };
        let smooth = build().run();
        let recovered = build()
            .crash_at(SimTime::from_millis(1050))
            .restore_at(SimTime::from_millis(1080))
            .run();
        assert_eq!(smooth.render(), recovered.render());
        assert_eq!(smooth.digest(), recovered.digest());
    }

    #[test]
    fn crash_restore_after_an_audit_eviction_matches_the_uncrashed_twin() {
        // the session's audit log holds a window; this run pushes enough
        // steers through one shard to evict twice — once before the
        // checkpoint that gets restored, once after the restore — and the
        // restored process must evict at exactly the entries its uncrashed
        // twin does (the report's Evicted line carries the fold of both)
        const WINDOW: usize = gridsteer_bus::AUDIT_WINDOW;
        let build = || {
            let mut sc = tiny("evict")
                .duration(SimTime::from_secs(2))
                .checkpoint_every(SimTime::from_millis(500));
            let waves = [
                (0..2 * WINDOW + 64, SimTime::from_millis(10)),
                (0..WINDOW + 64, SimTime::from_millis(1100)),
            ];
            for (wave, start) in waves {
                for i in wave {
                    let at = start + SimTime::from_micros(40 * i as u64);
                    sc = sc.steer_at(at, "alice", "miscibility", (i % 8) as f64 / 8.0);
                }
            }
            sc
        };
        let smooth = build().run();
        let recovered = build()
            .crash_at(SimTime::from_millis(1050))
            .restore_at(SimTime::from_millis(1080))
            .run();
        assert_eq!(smooth.render(), recovered.render());
        assert_eq!(smooth.digest(), recovered.digest());
        let evicted = format!("Evicted({},", 2 * WINDOW);
        assert!(
            recovered.session_events[0].starts_with(&evicted),
            "the report says what the window dropped: {}",
            recovered.session_events[0]
        );
        assert!(recovered.session_events.len() < 2 * WINDOW + 1);
    }

    #[test]
    fn stale_checkpoint_restore_rewinds_state() {
        // sample ticks at 1100ms and 1200ms ran *past* the 1000ms cut
        // before the crash, so the restore rewinds the backend: progress
        // replays from the checkpoint and the report diverges
        let build = || {
            tiny("stale")
                .duration(SimTime::from_secs(2))
                .checkpoint_every(SimTime::from_millis(500))
        };
        let smooth = build().run();
        let rewound = build()
            .crash_at(SimTime::from_millis(1250))
            .restore_at(SimTime::from_millis(1280))
            .run();
        assert_ne!(smooth.digest(), rewound.digest());
        assert!(
            rewound.final_progress < smooth.final_progress,
            "rewound {} vs smooth {}",
            rewound.final_progress,
            smooth.final_progress
        );
    }

    #[test]
    fn crash_without_restore_blacks_out_sampling() {
        let r = tiny("dead").crash_at(SimTime::from_millis(550)).run();
        assert_eq!(r.broadcasts, 5, "ticks 100..500 ran");
        assert_eq!(
            r.broadcasts_skipped, 5,
            "ticks 600..1000 hit a dead process"
        );
    }

    #[test]
    fn restore_before_the_first_cut_is_a_logged_miss() {
        // validate() cannot know that no checkpoint exists yet at 250ms
        // (the cadence is longer than the run): the engine logs the miss
        // and the process stays down, it does not panic
        let s = tiny("early-restore")
            .checkpoint_every(SimTime::from_secs(10))
            .crash_at(SimTime::from_millis(150))
            .restore_at(SimTime::from_millis(250));
        assert_eq!(s.validate(), Ok(()));
        let r = s.run();
        let line = format!("{} restore-miss no-checkpoint", SimTime::from_millis(250));
        assert!(r.engine_events.contains(&line), "{:?}", r.engine_events);
        assert_eq!(r.broadcasts, 1, "only the 100ms tick ran");
        assert_eq!(r.broadcasts_skipped, 9);
        assert_eq!(r.broadcasts + r.broadcasts_skipped, s.ticks());
    }

    #[test]
    fn delta_checkpoint_chain_restores_identically() {
        // 200ms cadence: full snapshot at 200ms, sparse deltas at 400,
        // 600 and 800ms. The restore at 880ms decodes the head and folds
        // every delta — and still replays byte-identically to a run that
        // never checkpointed at all.
        let build = || {
            tiny("delta")
                .duration(SimTime::from_secs(2))
                .viewer_via("v", Link::uk_janet(), Transport::Visit)
                .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.35)
        };
        let smooth = build().run();
        let recovered = build()
            .checkpoint_every(SimTime::from_millis(200))
            .crash_at(SimTime::from_millis(850))
            .restore_at(SimTime::from_millis(880))
            .run();
        assert_eq!(smooth.render(), recovered.render());
    }

    #[test]
    fn restore_without_crash_panics() {
        let s = tiny("no-crash")
            .checkpoint_every(SimTime::from_millis(300))
            .restore_at(SimTime::from_millis(500));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || s.run())).is_err());
    }

    #[test]
    fn restore_without_checkpoint_panics() {
        let s = tiny("no-ckpt")
            .crash_at(SimTime::from_millis(300))
            .restore_at(SimTime::from_millis(400));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || s.run())).is_err());
    }

    #[test]
    fn validate_rejects_each_misuse_with_a_typed_error() {
        use crate::error::ScenarioError as E;
        assert_eq!(tiny("ok").validate(), Ok(()));
        assert_eq!(
            tiny("zero").sample_every(SimTime::ZERO).validate(),
            Err(E::ZeroSampleInterval)
        );
        assert_eq!(
            tiny("dup-p").participant("alice", Link::wan()).validate(),
            Err(E::DuplicateParticipant("alice".into()))
        );
        assert_eq!(
            tiny("dup-v")
                .viewer_via("desk", Link::wan(), Transport::Visit)
                .viewer_via("desk", Link::gwin(), Transport::Ogsa)
                .validate(),
            Err(E::DuplicateViewer("desk".into()))
        );
        assert_eq!(
            tiny("dup-r")
                .relay("region", Link::campus())
                .relay("region", Link::wan())
                .validate(),
            Err(E::DuplicateRelay("region".into()))
        );
        assert_eq!(
            tiny("collide")
                .viewer_via("alice", Link::wan(), Transport::Visit)
                .validate(),
            Err(E::NameCollision("alice".into()))
        );
    }

    #[test]
    fn validate_rejects_a_name_the_wire_cannot_hold() {
        use crate::error::ScenarioError as E;
        let (fits, long) = ("n".repeat(MAX_NAME_LEN), "n".repeat(MAX_NAME_LEN + 1));
        let too_long = Err(E::NameTooLong {
            prefix: "n".repeat(16),
            len: MAX_NAME_LEN + 1,
        });
        assert_eq!(tiny("fits").relay(&fits, Link::campus()).validate(), Ok(()));
        assert_eq!(
            tiny("long-r").relay(&long, Link::campus()).validate(),
            too_long
        );
        assert_eq!(
            tiny("long-p").participant(&long, Link::wan()).validate(),
            too_long
        );
        assert_eq!(
            tiny("long-v")
                .viewer_via(&long, Link::wan(), Transport::Visit)
                .validate(),
            too_long
        );
        assert_eq!(
            tiny("long-j")
                .join_at(SimTime::from_millis(100), &long, Link::wan())
                .validate(),
            too_long
        );
    }

    #[test]
    fn validate_rejects_a_relay_nobody_declared() {
        use crate::error::ScenarioError as E;
        assert_eq!(
            tiny("ghost-parent")
                .relay_under("edge", "region", Link::wan())
                .validate(),
            Err(E::UnknownRelayParent {
                relay: "edge".into(),
                parent: "region".into()
            })
        );
        assert_eq!(
            tiny("ghost-relay")
                .viewer_at_relay("desk", "region", Link::wan(), Transport::Visit)
                .validate(),
            Err(E::UnknownRelay {
                viewer: "desk".into(),
                relay: "region".into()
            })
        );
        assert_eq!(
            tiny("ghost-relay-join")
                .viewer_join_relay_at(
                    SimTime::from_millis(200),
                    "desk",
                    "region",
                    Link::wan(),
                    Transport::Visit
                )
                .validate(),
            Err(E::UnknownRelay {
                viewer: "desk".into(),
                relay: "region".into()
            })
        );
    }

    #[test]
    fn validate_rejects_a_schedule_the_engine_cannot_replay() {
        use crate::error::ScenarioError as E;
        assert_eq!(
            tiny("late")
                .partition_at(SimTime::from_secs(2), "bob")
                .validate(),
            Err(E::ActionAfterEnd {
                at: SimTime::from_secs(2),
                action: "partition",
                duration: SimTime::from_secs(1)
            })
        );
        assert_eq!(
            tiny("no-ckpt")
                .crash_at(SimTime::from_millis(300))
                .restore_at(SimTime::from_millis(400))
                .validate(),
            Err(E::RestoreWithoutCheckpoint)
        );
        assert_eq!(
            tiny("no-crash")
                .checkpoint_every(SimTime::from_millis(300))
                .restore_at(SimTime::from_millis(500))
                .validate(),
            Err(E::RestoreWithoutCrash {
                at: SimTime::from_millis(500)
            })
        );
        // order of builder calls must not matter: restore scheduled
        // before the crash textually, but after it in virtual time
        assert_eq!(
            tiny("order")
                .checkpoint_every(SimTime::from_millis(300))
                .restore_at(SimTime::from_millis(600))
                .crash_at(SimTime::from_millis(500))
                .validate(),
            Ok(())
        );
    }

    #[test]
    fn probes_stay_quiet_on_a_stormy_but_healthy_run() {
        let r = tiny("probe-clean")
            .shards(2)
            .viewer_via("desk", Link::wan(), Transport::Visit)
            .relay("region", Link::campus())
            .viewer_at_relay("cave", "region", Link::gwin(), Transport::Covise)
            .join_at(SimTime::from_millis(150), "carol", Link::wan())
            .leave_at(SimTime::from_millis(350), "alice")
            .steer_at(SimTime::from_millis(250), "bob", "miscibility", 0.4)
            .viewer_leave_at(SimTime::from_millis(400), "desk")
            .viewer_join_at(
                SimTime::from_millis(600),
                "desk",
                Link::wan(),
                Transport::Visit,
            )
            .checkpoint_every(SimTime::from_millis(300))
            .crash_at(SimTime::from_millis(650))
            .restore_at(SimTime::from_millis(680))
            .run();
        assert_eq!(r.probe_violations, Vec::<String>::new());
        assert!(r.broadcasts > 0);
    }
}
