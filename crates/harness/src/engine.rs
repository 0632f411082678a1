//! The deterministic engine behind [`Scenario::run`].
//!
//! One [`World`] owns every piece of run state — backend, steering bus,
//! session shards, links, monitor hub, relay tiers, viewers, the event
//! queue, the RNG, the counters and the checkpoint chain — and a sample
//! tick is an ordered list of plain method calls ([`World::sample_tick`]).
//! Nothing here is public: the contract is the bytes of the
//! [`ScenarioReport`], which follow from the order of RNG draws, of
//! `engine_events` lines and of checkpoint sections. A phase is reordered
//! only together with a deliberate re-bless of
//! `crates/fuzz/tests/fixtures/engine_digests.txt`.

use crate::backend::Backend;
use crate::report::{MigrationRecord, RelayRecord, ScenarioReport, ViewerRecord};
use crate::scenario::{Action, RelaySpec, Scenario, ViewerSpec};
use gridsteer_bus::{
    Capabilities, LoopbackMonitor, MonitorCaps, MonitorEndpoint, MonitorFrame, MonitorHub,
    MonitorStats, RelayHub, RelayPolicy, SteerCommand, SteerEndpoint, SteerHub, Transport,
};
use gridsteer_ckpt::Snapshot;
use netsim::{EventQueue, FaultyLink, Link, NetModel, SimTime, SiteId};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use std::collections::{BTreeMap, HashMap};
use steer_core::{
    LoopBudget, LoopMonitor, Migrator, MonitorScratch, ParamValue, SessionEvent, SteeringSession,
};

/// Wire size of one steer command frame.
const STEER_BYTES: usize = 64;

/// Runaway guard on total processed events.
const MAX_EVENTS: usize = 1_000_000;

/// One live monitor-bus viewer: its faulted link, its reaction-budget
/// scoring, and the byte-stable fold of everything it received.
struct ViewerState {
    name: String,
    /// Label of the transport the viewer first attached over — what the
    /// report shows.
    transport: &'static str,
    /// The transport of the current attachment — a restore reconnects the
    /// viewer's monitor endpoint through it.
    kind: Transport,
    budget: LoopBudget,
    link: FaultyLink,
    monitor: LoopMonitor,
    delivered: u64,
    dropped: u64,
    digest: u64,
    /// Index into the engine's relay table (`None` = origin-attached).
    relay: Option<usize>,
    /// Oracle probe: hub-assigned seq of the last frame this viewer saw.
    last_seq: Option<u64>,
    /// Oracle probe: skip the seq-monotonicity check for the first
    /// delivery batch after an attach or a restore — keyframe-cache
    /// serves and stale-restore rewinds legitimately replay old seqs.
    fresh_attach: bool,
    /// False after a [`Action::ViewerLeave`] detached the subscription.
    online: bool,
    /// Hub-side statistics frozen at detach time (a live viewer reads
    /// them from its hub when the report is cut).
    final_stats: Option<MonitorStats>,
}

/// One live relay tier: its hub, its faulted uplink, and when the last
/// uplink batch landed (the departure base for this tier's children).
struct RelayNode {
    name: String,
    /// Index of the parent relay (`None` = fed by the origin hub).
    parent: Option<usize>,
    uplink: FaultyLink,
    hub: RelayHub,
    arrival: Option<SimTime>,
    uplink_dropped: u64,
}

/// One connected (or disconnected) scenario participant.
struct Client {
    name: String,
    link: FaultyLink,
    online: bool,
    /// Stats accumulated over previous connections (a rejoin replaces the
    /// link — and with it the live counters — with a fresh one).
    prior_stats: netsim::LinkStats,
}

impl Client {
    /// Lifetime delivery statistics across all of this participant's
    /// connections.
    fn total_stats(&self) -> netsim::LinkStats {
        let cur = self.link.stats();
        netsim::LinkStats {
            delivered: self.prior_stats.delivered + cur.delivered,
            dropped: self.prior_stats.dropped + cur.dropped,
        }
    }
}

enum Ev {
    Sample,
    Act(usize),
    ApplySteer {
        who: String,
        param: String,
        value: ParamValue,
    },
}

/// Crash-recovery state: one full snapshot blob plus deltas, and the last
/// snapshot cut — the base of the next delta, stamped with its cut time.
/// The deltas of a chain never add up to a full snapshot's bytes: the cut
/// that would take them there starts a new chain instead.
#[derive(Default)]
struct Checkpoints {
    chain: Vec<Vec<u8>>,
    last_snap: Option<Snapshot>,
}

impl Checkpoints {
    /// Bytes held in the chain's deltas.
    fn delta_bytes(&self) -> usize {
        self.chain.iter().skip(1).map(Vec::len).sum()
    }
}

/// The surface a monitor subscriber hangs off — the origin hub or a relay
/// tier's child side. The one place that knows the two spell the same
/// operations differently.
enum Surface<'a> {
    Origin(&'a MonitorHub),
    Tier(&'a RelayNode),
}

impl<'a> Surface<'a> {
    fn of(mhub: &'a MonitorHub, relays: &'a [RelayNode], relay: Option<usize>) -> Surface<'a> {
        match relay {
            None => Surface::Origin(mhub),
            Some(i) => Surface::Tier(&relays[i]),
        }
    }

    /// Attach a viewer endpoint (under a tier: within its default child
    /// budget, served from its keyframe cache).
    fn attach(&self, name: &str, ep: Box<dyn MonitorEndpoint>, caps: &MonitorCaps) -> MonitorCaps {
        match self {
            Surface::Origin(hub) => hub.attach_endpoint(name, ep, caps),
            Surface::Tier(r) => r.hub.attach_child(name, ep, caps),
        }
    }

    /// Attach the collector a deeper tier's uplink drains. Never budgeted:
    /// thinning a relay's feed is that relay's own policy.
    fn attach_uplink(&self, name: &str) -> MonitorCaps {
        let ep = Box::new(LoopbackMonitor::new());
        let caps = RelayHub::uplink_caps();
        match self {
            Surface::Origin(hub) => hub.attach_endpoint(name, ep, &caps),
            Surface::Tier(r) => r.hub.attach_child_with_budget(name, ep, &caps, None),
        }
    }

    /// Drain what subscriber `name` received, with the time those frames
    /// leave this surface: now at the origin, the tier's last uplink
    /// arrival below it.
    fn drain(&self, name: &str, now: SimTime) -> (Vec<MonitorFrame<'static>>, SimTime) {
        match self {
            Surface::Origin(hub) => (hub.recv(name), now),
            Surface::Tier(r) => (r.hub.recv_child(name), r.arrival.unwrap_or(now)),
        }
    }

    fn stats_of(&self, name: &str) -> Option<MonitorStats> {
        match self {
            Surface::Origin(hub) => hub.stats_of(name),
            Surface::Tier(r) => r.hub.stats_of_child(name),
        }
    }

    fn detach(&self, name: &str) -> Option<MonitorStats> {
        match self {
            Surface::Origin(hub) => hub.detach(name),
            Surface::Tier(r) => r.hub.detach_child(name),
        }
    }
}

/// Everything one run owns. Built by [`World::new`], driven one event at
/// a time by [`World::step`], consumed by [`World::into_report`].
pub(crate) struct World<'s> {
    /// The script: schedule, cadences, routing table.
    sc: &'s Scenario,
    rng: StdRng,
    backend: Backend,
    /// One bus hub per run: every session shard shares its registry (one
    /// parameter authority), every participant attaches an endpoint of
    /// their routed transport.
    hub: SteerHub,
    /// Shards own disjoint participant sets, assigned round-robin by
    /// first-join order.
    sessions: Vec<SteeringSession>,
    shard_of: BTreeMap<String, usize>,
    next_shard: usize,
    endpoints: BTreeMap<String, Box<dyn SteerEndpoint>>,
    clients: Vec<Client>,
    /// The backend publishes its step-boundary output here; viewers and
    /// top-level relay tiers subscribe.
    mhub: MonitorHub,
    /// The grid buffers the backend's monitor payloads borrow, refilled
    /// in place by every publish.
    scratch: MonitorScratch,
    /// Declaration order, parents before children — also the pump order.
    relays: Vec<RelayNode>,
    viewers: Vec<ViewerState>,
    queue: EventQueue<Ev>,
    processed: usize,
    net: NetModel,
    sites: HashMap<String, SiteId>,
    post: LoopMonitor,
    migrations: Vec<MigrationRecord>,
    broadcasts: u64,
    skipped: u64,
    steers_applied: u64,
    steers_lost: u64,
    pause_until: SimTime,
    /// While set, sample ticks black out.
    crashed: bool,
    ckpt: Checkpoints,
    engine_events: Vec<String>,
    /// Invariant-oracle probes: structural properties checked as the run
    /// unfolds. Not part of the rendered report (digests are unchanged) —
    /// the fuzzer reads them off the report afterwards.
    probe_violations: Vec<String>,
}

impl<'s> World<'s> {
    /// Build the t=0 world: backend, bus, the declared participants, relay
    /// tiers (parents first) and viewers, and the initial event schedule.
    /// Every RNG draw is in declaration order.
    pub(crate) fn new(sc: &'s Scenario) -> World<'s> {
        let mut rng = StdRng::seed_from_u64(sc.seed);
        let mut backend = Backend::new(&sc.backend, rng.next_u64());
        if let Some(pool) = &sc.pool {
            backend.set_pool(pool.clone());
        }
        let hub = SteerHub::new(backend.param_specs());
        let sessions = (0..sc.shards)
            .map(|_| SteeringSession::with_registry(hub.registry()))
            .collect();
        let (net, sites) = NetModel::sc2003();
        let mut queue = EventQueue::new();
        for (i, (t, _)) in sc.actions.iter().enumerate() {
            queue.schedule(*t, Ev::Act(i));
        }
        if sc.sample_every <= sc.duration {
            queue.schedule(sc.sample_every, Ev::Sample);
        }
        let mut world = World {
            sc,
            rng,
            backend,
            hub,
            sessions,
            shard_of: BTreeMap::new(),
            next_shard: 0,
            endpoints: BTreeMap::new(),
            clients: Vec::new(),
            mhub: MonitorHub::new(),
            scratch: MonitorScratch::default(),
            relays: Vec::new(),
            viewers: Vec::new(),
            queue,
            processed: 0,
            net,
            sites,
            post: LoopMonitor::new(LoopBudget::PostProcessing),
            migrations: Vec::new(),
            broadcasts: 0,
            skipped: 0,
            steers_applied: 0,
            steers_lost: 0,
            pause_until: SimTime::ZERO,
            crashed: false,
            ckpt: Checkpoints::default(),
            engine_events: Vec::new(),
            probe_violations: Vec::new(),
        };
        for (name, link) in &sc.participants {
            world.join_client(SimTime::ZERO, name, link);
        }
        for spec in &sc.relays {
            world.attach_relay(spec);
        }
        for spec in &sc.viewers {
            world.attach_viewer(SimTime::ZERO, spec);
        }
        world
    }

    /// Pop and dispatch one event. False once the queue is empty (or the
    /// runaway guard tripped): the run is over.
    pub(crate) fn step(&mut self) -> bool {
        let Some(ev) = self.queue.pop() else {
            return false;
        };
        self.processed += 1;
        if self.processed > MAX_EVENTS {
            self.log(ev.at, "runaway-guard");
            return false;
        }
        let sc = self.sc;
        match ev.payload {
            Ev::Sample => self.sample_tick(ev.at),
            Ev::Act(i) => self.apply(ev.at, &sc.actions[i].1),
            Ev::ApplySteer { who, param, value } => self.stage_steer(ev.at, &who, &param, value),
        }
        true
    }

    /// Append one engine-event line, stamped with the virtual time.
    fn log(&mut self, now: SimTime, what: impl std::fmt::Display) {
        self.engine_events.push(format!("{now} {what}"));
    }

    /// One more steer that never reached the backend, and why.
    fn lose_steer(&mut self, now: SimTime, why: impl std::fmt::Display) {
        self.steers_lost += 1;
        self.log(now, why);
    }

    /// One sample tick: the closed loop, phase by phase. A crashed or
    /// migrating process skips the tick whole.
    fn sample_tick(&mut self, now: SimTime) {
        if now + self.sc.sample_every <= self.sc.duration {
            self.queue.schedule(now + self.sc.sample_every, Ev::Sample);
        }
        if self.crashed || now < self.pause_until {
            self.skipped += 1;
            return;
        }
        self.commit_staged(now);
        self.probe_masters(now);
        self.advance_and_broadcast(now);
        self.publish_monitor();
        self.pump_relays(now);
        self.serve_viewers(now);
        self.cut_checkpoint(now);
    }

    /// The step boundary: every staged bus batch applies atomically, in
    /// global staging order, before the physics advances. Commands flow
    /// through the origin's session shard (master/bounds checks, audit
    /// events) and into the backend.
    fn commit_staged(&mut self, now: SimTime) {
        if self.hub.pending() == 0 {
            return;
        }
        self.hub.commit_with(|batch, cmd| {
            let resolved = self
                .shard_of
                .get(&batch.origin)
                .and_then(|&s| self.sessions[s].index_of(&batch.origin).map(|idx| (s, idx)));
            let Some((s, idx)) = resolved else {
                self.steers_lost += 1;
                self.engine_events
                    .push(format!("{now} steer-sender-left {}", batch.origin));
                return Err("sender left before commit".into());
            };
            // refusals are already in the session audit log
            let applied = self.sessions[s].steer_value(idx, &cmd.param, &cmd.value)?;
            self.backend.apply_steer(&cmd.param, &applied);
            self.steers_applied += 1;
            Ok(applied)
        });
    }

    /// Oracle probe: the steering invariant — exactly one master per
    /// non-empty shard — must hold at every observable step boundary.
    fn probe_masters(&mut self, now: SimTime) {
        for (si, s) in self.sessions.iter().enumerate() {
            let masters = s.master_count();
            if masters != usize::from(!s.is_empty()) {
                self.probe_violations.push(format!(
                    "{now} shard {si}: {masters} masters among {} participants",
                    s.len()
                ));
            }
        }
    }

    /// Step the physics, log the sample in every shard, and ship it to
    /// each online participant over their faulted link, scoring arrivals
    /// against the post-processing budget and the spread against the skew
    /// budget.
    fn advance_and_broadcast(&mut self, now: SimTime) {
        self.backend.advance(self.sc.steps_per_sample);
        let bytes = self.backend.sample_bytes();
        for s in self.sessions.iter_mut() {
            s.broadcast_sample(bytes);
        }
        self.broadcasts += 1;
        let mut span: Option<(SimTime, SimTime)> = None;
        for c in self.clients.iter_mut().filter(|c| c.online) {
            if let Some(arrival) = c.link.deliver(now, bytes) {
                self.post.record(arrival.saturating_since(now));
                span = Some(span.map_or((arrival, arrival), |(lo, hi)| {
                    (lo.min(arrival), hi.max(arrival))
                }));
            }
        }
        if let Some((lo, hi)) = span {
            self.post.record_skew(hi.saturating_since(lo));
        }
    }

    /// The data plane's origin: the backend publishes its monitored
    /// quantities as one batch and the hub fans out per negotiated caps.
    /// Skipped when nobody subscribes — sampling the monitor surface
    /// costs full-lattice passes.
    fn publish_monitor(&mut self) {
        if !self.viewers.is_empty() || !self.relays.is_empty() {
            self.backend.publish_monitor(&self.mhub, &mut self.scratch);
        }
    }

    /// Relay tick, top-down: drain each tier's collector on its parent
    /// surface, ship the whole batch as one envelope over the tier's
    /// faulted uplink, and on arrival fan it out to the tier's children.
    fn pump_relays(&mut self, now: SimTime) {
        for i in 0..self.relays.len() {
            let parent = Surface::of(&self.mhub, &self.relays, self.relays[i].parent);
            let (frames, depart) = parent.drain(&self.relays[i].name, now);
            if frames.is_empty() {
                continue;
            }
            let bytes: usize = frames.iter().map(|f| f.wire_size()).sum();
            let tier = &mut self.relays[i];
            match tier.uplink.deliver(depart, bytes) {
                Some(arrival) => {
                    tier.arrival = Some(arrival);
                    tier.hub.ingest(&frames);
                }
                None => tier.uplink_dropped += frames.len() as u64,
            }
        }
    }

    /// Each online viewer's admitted frames ride its faulted link; every
    /// arrival is scored against that viewer's budget and folded into its
    /// digest.
    fn serve_viewers(&mut self, now: SimTime) {
        for v in self.viewers.iter_mut().filter(|v| v.online) {
            let (frames, depart) =
                Surface::of(&self.mhub, &self.relays, v.relay).drain(&v.name, now);
            let had_frames = !frames.is_empty();
            for frame in frames {
                let Some(arrival) = v.link.deliver(depart, frame.wire_size()) else {
                    v.dropped += 1;
                    continue;
                };
                // oracle probe: hub seqs must reach a subscriber strictly
                // increasing (gaps from decimation/loss are fine)
                if let Some(prev) = v.last_seq {
                    if !v.fresh_attach && frame.seq <= prev {
                        self.probe_violations.push(format!(
                            "{now} viewer {}: seq {} after {}",
                            v.name, frame.seq, prev
                        ));
                    }
                }
                v.last_seq = Some(frame.seq);
                v.monitor.record(arrival.saturating_since(now));
                v.delivered += 1;
                v.digest = frame.fold_fnv(v.digest);
            }
            if had_frames {
                v.fresh_attach = false;
            }
        }
    }

    /// Checkpoint cut, at the very end of the tick: the boundary state
    /// (post-commit, post-advance, post-fanout, queues drained) is exactly
    /// what a restore resumes from. Cutting reads state under locks and
    /// nothing else — no RNG draws, no events. The first cut is a full
    /// snapshot; a later one is a delta against the previous cut while the
    /// chain's deltas, this one included, stay under one full snapshot's
    /// bytes, and otherwise a full snapshot that starts the chain afresh —
    /// so a restore never replays more than it would cost to read the
    /// state once, and the chain stops growing.
    fn cut_checkpoint(&mut self, now: SimTime) {
        let Some(interval) = self.sc.checkpoint_every else {
            return;
        };
        let due = match &self.ckpt.last_snap {
            None => interval,
            Some(last) => SimTime::from_nanos(last.time_ns) + interval,
        };
        if now < due {
            return;
        }
        let seq = self.ckpt.last_snap.as_ref().map_or(0, |last| last.seq + 1);
        let mut snap = Snapshot::new(seq, now.as_nanos());
        self.save_process(&mut snap);
        let held = self.ckpt.delta_bytes();
        let base = self.ckpt.last_snap.as_ref();
        let blob = match base.filter(|b| held + snap.dirty_bytes(b) < snap.state_bytes()) {
            Some(base) => snap.encode_delta(base),
            None => {
                self.ckpt.chain.clear();
                snap.encode()
            }
        };
        self.ckpt.chain.push(blob);
        self.ckpt.last_snap = Some(snap);
    }

    /// Serialize the whole simulation-process state into one snapshot:
    /// backend fields (raw float bits), the steer hub (registry, staged
    /// batches, counters), every session shard, the monitor hub and each
    /// relay tier. Pure reads — the running state is not perturbed.
    fn save_process(&self, snap: &mut Snapshot) {
        self.backend.save_sections(snap);
        self.hub.save_sections(snap, "steer");
        for (i, s) in self.sessions.iter().enumerate() {
            s.save_sections(snap, &format!("session/{i}"));
        }
        self.mhub.save_sections(snap, "monitor");
        for r in &self.relays {
            r.hub.save_sections(snap, &format!("relay/{}", r.name));
        }
    }

    /// Apply one scripted action. Targets that do not resolve at run time
    /// are logged as `*-miss` lines, never fatal.
    fn apply(&mut self, now: SimTime, action: &Action) {
        match action {
            Action::Join { name, link } => self.join_client(now, name, link),
            Action::Leave { name } => self.leave(now, name),
            Action::PassMaster { from, to } => self.pass_master(now, from, to),
            Action::Steer { who, param, value } => self.send_steer(now, who, param, value),
            Action::Partition { who } => {
                self.fault(now, who, format_args!("partition {who}"), |l| l.partition());
            }
            Action::Heal { who } => {
                self.fault(now, who, format_args!("heal {who}"), |l| l.heal());
            }
            Action::SetLoss { who, ppm } => {
                self.fault(now, who, format_args!("loss {who} {ppm}ppm"), |l| {
                    l.set_extra_loss_ppm(*ppm)
                });
            }
            Action::SetJitter { who, jitter } => {
                self.fault(now, who, format_args!("jitter {who} {jitter}"), |l| {
                    l.set_extra_jitter(*jitter)
                });
            }
            Action::Migrate { from, to } => self.migrate(now, from, to),
            Action::ViewerLeave { name } => self.viewer_leave(now, name),
            Action::ViewerJoin {
                name,
                link,
                transport,
                relay,
            } => self.viewer_join(now, name, link, *transport, relay.as_deref()),
            // the process dies silently: no event, no counter — transparent
            // recovery means the report cannot record the crash itself
            Action::Crash => self.crashed = true,
            Action::Restore => self.restore_process(now),
        }
    }

    /// Join (or rejoin) a participant: session membership (first join
    /// assigns a shard round-robin; a rejoin returns to the same shard), a
    /// faulted link whose deterministic streams derive from the scenario
    /// RNG, and — on first join — a bus endpoint of the participant's
    /// routed transport, with its capability handshake logged (part of the
    /// report digest).
    fn join_client(&mut self, now: SimTime, name: &str, link: &Link) {
        let shard = *self.shard_of.entry(name.to_string()).or_insert_with(|| {
            let s = self.next_shard % self.sessions.len();
            self.next_shard += 1;
            s
        });
        let session = &mut self.sessions[shard];
        if session.index_of(name).is_none() {
            session.join(name);
        }
        if !self.endpoints.contains_key(name) {
            let transport = self.sc.transports.get(name).copied().unwrap_or_default();
            let mut ep = transport.attach(&self.hub, name);
            let negotiated = ep.negotiate(&Capabilities::full("scenario-client", 64));
            self.log(now, format_args!("attach {name} {}", negotiated.render()));
            self.endpoints.insert(name.to_string(), ep);
        }
        let fresh = self.fresh_link(link);
        match self.clients.iter_mut().find(|c| c.name == name) {
            Some(c) => {
                // a rejoin is a new connection: the given link replaces the old
                // one, clearing any partition/loss/jitter state; delivery stats
                // accumulate across connections
                c.prior_stats = c.total_stats();
                c.link = fresh;
                c.online = true;
            }
            None => self.clients.push(Client {
                name: name.to_string(),
                link: fresh,
                online: true,
                prior_stats: netsim::LinkStats::default(),
            }),
        }
    }

    /// A faulted link over `profile` whose two deterministic streams (the
    /// link's own, then the fault injector's) derive from the scenario RNG.
    fn fresh_link(&mut self, profile: &Link) -> FaultyLink {
        let mut base = profile.clone();
        base.seed = self.rng.next_u64();
        let fault_seed = self.rng.next_u64();
        FaultyLink::new(base, fault_seed)
    }

    fn leave(&mut self, now: SimTime, name: &str) {
        let left = self
            .shard_of
            .get(name)
            .is_some_and(|&s| self.sessions[s].leave_by_name(name));
        if !left {
            self.log(now, format_args!("leave-miss {name}"));
        } else if let Some(c) = self.clients.iter_mut().find(|c| c.name == name) {
            c.online = false;
        }
    }

    fn pass_master(&mut self, now: SimTime, from: &str, to: &str) {
        let shards = (self.shard_of.get(from), self.shard_of.get(to));
        let outcome = match shards {
            // shards own disjoint participant sets: the token never
            // crosses a shard boundary
            (Some(a), Some(b)) if a != b => "pass-shard-miss",
            (Some(&a), Some(_)) => {
                let session = &mut self.sessions[a];
                match (session.index_of(from), session.index_of(to)) {
                    (Some(f), Some(t)) => {
                        if session.pass_master(f, t) {
                            return;
                        }
                        "pass-refused"
                    }
                    _ => "pass-miss",
                }
            }
            _ => "pass-miss",
        };
        self.log(now, format_args!("{outcome} {from}->{to}"));
    }

    /// A participant sends a steer command over their link; if it
    /// survives, it is staged on arrival ([`World::stage_steer`]).
    fn send_steer(&mut self, now: SimTime, who: &str, param: &str, value: &ParamValue) {
        let sender = self.clients.iter_mut().find(|c| c.name == who && c.online);
        match sender.map(|c| c.link.deliver(now, STEER_BYTES)) {
            Some(Some(arrival)) => {
                let ev = Ev::ApplySteer {
                    who: who.to_string(),
                    param: param.to_string(),
                    value: value.clone(),
                };
                self.queue.schedule(arrival, ev);
            }
            Some(None) => self.lose_steer(now, format_args!("steer-lost {who} {param}")),
            None => self.lose_steer(now, format_args!("steer-offline {who} {param}")),
        }
    }

    /// A steer command arrives: ship it through the sender's middleware
    /// endpoint, where it stays staged until the next step boundary.
    fn stage_steer(&mut self, now: SimTime, who: &str, param: &str, value: ParamValue) {
        let joined = self
            .shard_of
            .get(who)
            .is_some_and(|&s| self.sessions[s].index_of(who).is_some());
        if !joined {
            return self.lose_steer(now, format_args!("steer-sender-left {who}"));
        }
        let ep = self
            .endpoints
            .get_mut(who)
            .expect("joined participants have endpoints");
        if let Err(e) = ep.set_batch(vec![SteerCommand::new(param, value)]) {
            self.lose_steer(now, format_args!("steer-unroutable {who} {param}: {e}"));
        }
    }

    /// Apply a link fault to whoever `who` names and log `hit`, or log the
    /// miss. Participants, viewers and relay uplinks share one name space
    /// for link faults (participants win a collision, then viewers).
    fn fault(
        &mut self,
        now: SimTime,
        who: &str,
        hit: impl std::fmt::Display,
        apply: impl FnOnce(&mut FaultyLink),
    ) {
        let clients = self.clients.iter_mut().map(|c| (&c.name, &mut c.link));
        let viewers = self.viewers.iter_mut().map(|v| (&v.name, &mut v.link));
        let relays = self.relays.iter_mut().map(|r| (&r.name, &mut r.uplink));
        let mut links = clients.chain(viewers).chain(relays);
        match links.find(|(name, _)| *name == who) {
            Some((_, link)) => {
                apply(link);
                self.log(now, hit);
            }
            None => self.log(now, format_args!("fault-miss {who}")),
        }
    }

    /// Migrate the computation between two `sc2003` sites: the checkpoint
    /// crosses the inter-site link and sampling pauses for the
    /// [`Migrator::frame_gap`] — the transfer plus the restart overhead.
    fn migrate(&mut self, now: SimTime, from: &str, to: &str) {
        let (Some(&a), Some(&b)) = (self.sites.get(from), self.sites.get(to)) else {
            return self.log(now, format_args!("migrate-miss {from}->{to}"));
        };
        let bytes = self.backend.checkpoint_roundtrip();
        let mut link = self.net.link(a, b);
        link.seed = self.rng.next_u64();
        let gap = Migrator::new(&self.net).frame_gap(link, bytes);
        self.pause_until = (now + gap).max(self.pause_until);
        self.log(
            now,
            format_args!("migrate {from}->{to} bytes={bytes} gap={gap}"),
        );
        self.migrations.push(MigrationRecord {
            from: from.to_string(),
            to: to.to_string(),
            bytes,
            gap,
        });
    }

    fn viewer_leave(&mut self, now: SimTime, name: &str) {
        match self.viewers.iter_mut().find(|v| v.name == name && v.online) {
            Some(v) => {
                v.final_stats = Surface::of(&self.mhub, &self.relays, v.relay).detach(name);
                v.online = false;
                self.log(now, format_args!("viewer-leave {name}"));
            }
            None => self.log(now, format_args!("viewer-leave-miss {name}")),
        }
    }

    fn viewer_join(
        &mut self,
        now: SimTime,
        name: &str,
        link: &Link,
        transport: Transport,
        relay: Option<&str>,
    ) {
        let known_relay = relay.is_none_or(|r| self.relays.iter().any(|n| n.name == r));
        if self.viewers.iter().any(|v| v.name == name && v.online) || !known_relay {
            return self.log(now, format_args!("viewer-join-miss {name}"));
        }
        let spec = ViewerSpec {
            name: name.to_string(),
            link: link.clone(),
            transport,
            budget: LoopBudget::DesktopRender,
            every: 1,
            relay: relay.map(str::to_string),
        };
        self.attach_viewer(now, &spec);
    }

    /// Index of a relay tier that is up. `validate()` vouches for every
    /// declared parent and viewer relay (parents first); a mid-run viewer
    /// join checks before it attaches.
    fn relay_index(&self, name: &str) -> usize {
        let found = self.relays.iter().position(|r| r.name == name);
        found.unwrap_or_else(|| panic!("no relay tier named {name:?} is up"))
    }

    /// Bring up a declared relay tier: it subscribes on its parent surface
    /// as an ordinary endpoint — the engine drains that collector and
    /// ships the batch over the relay's own faulted uplink.
    fn attach_relay(&mut self, spec: &RelaySpec) {
        let parent = spec.parent.as_deref().map(|p| self.relay_index(p));
        let negotiated = Surface::of(&self.mhub, &self.relays, parent).attach_uplink(&spec.name);
        self.log(
            SimTime::ZERO,
            format_args!(
                "attach-relay {} parent={} {}",
                spec.name,
                spec.parent.as_deref().unwrap_or("origin"),
                negotiated.render()
            ),
        );
        let uplink = self.fresh_link(&spec.uplink);
        self.relays.push(RelayNode {
            name: spec.name.clone(),
            parent,
            uplink,
            hub: RelayHub::new(RelayPolicy {
                deliver_every: spec.every,
                default_child_budget: spec.child_budget,
            }),
            arrival: None,
            uplink_dropped: 0,
        });
    }

    /// Attach (or re-attach) a monitor viewer at the origin hub or under a
    /// relay tier, logging the capability handshake and deriving the
    /// link's deterministic streams from the scenario RNG. A re-attach
    /// after a [`Action::ViewerLeave`] reuses the viewer's record:
    /// delivery counters and the frame digest keep accumulating across
    /// connections.
    fn attach_viewer(&mut self, now: SimTime, spec: &ViewerSpec) {
        let relay = spec.relay.as_deref().map(|r| self.relay_index(r));
        let caps = MonitorCaps::full("scenario-viewer", 64).every(spec.every);
        let ep = spec.transport.attach_monitor(&spec.name);
        let negotiated = Surface::of(&self.mhub, &self.relays, relay).attach(&spec.name, ep, &caps);
        let via = match &spec.relay {
            None => String::new(),
            Some(r) => format!("via={r} "),
        };
        self.log(
            now,
            format_args!(
                "attach-viewer {} {via}budget={} {}",
                spec.name,
                spec.budget.name(),
                negotiated.render()
            ),
        );
        let link = self.fresh_link(&spec.link);
        match self.viewers.iter_mut().find(|v| v.name == spec.name) {
            Some(v) => {
                v.link = link;
                v.kind = spec.transport;
                v.relay = relay;
                v.last_seq = None;
                v.fresh_attach = true;
                v.online = true;
                v.final_stats = None;
            }
            None => self.viewers.push(ViewerState {
                name: spec.name.clone(),
                transport: spec.transport.label(),
                kind: spec.transport,
                budget: spec.budget,
                link,
                monitor: LoopMonitor::new(spec.budget),
                delivered: 0,
                dropped: 0,
                digest: 0xcbf2_9ce4_8422_2325,
                relay,
                last_seq: None,
                fresh_attach: true,
                online: true,
                final_stats: None,
            }),
        }
    }

    /// Rebuild the crashed process from its checkpoint chain: decode the
    /// full snapshot, apply every delta, then restore state behind the
    /// existing shared handles (backend in place, hub registry and state,
    /// session shards, monitor hub, relay tiers). Steering clients and
    /// monitor viewers reconnect — fresh endpoints over their declared
    /// transports, negotiated against the *saved* capability sets — so
    /// sequence numbering and delivery schedules continue exactly where
    /// the checkpoint cut them. Draws no randomness and logs nothing:
    /// recovery from an up-to-date checkpoint is invisible in the report.
    ///
    /// A restore that comes before the first cut (a long cadence, a
    /// migration pause over the tick that would have cut) has nothing to
    /// restart from: it is logged and the process stays down.
    fn restore_process(&mut self, now: SimTime) {
        assert!(self.crashed, "restore_at without a preceding crash_at");
        let Some((head, deltas)) = self.ckpt.chain.split_first() else {
            return self.log(now, "restore-miss no-checkpoint");
        };
        let mut snap = Snapshot::decode(head).expect("checkpoint chain head decodes");
        for delta in deltas {
            snap = Snapshot::decode_delta(delta, &snap).expect("checkpoint delta chain applies");
        }
        self.backend
            .restore_sections(&snap)
            .expect("backend state restores");
        self.hub
            .restore_sections(&snap, "steer")
            .expect("steer hub restores");
        for (i, s) in self.sessions.iter_mut().enumerate() {
            let prefix = format!("session/{i}");
            *s = SteeringSession::restore_sections(&snap, &prefix, self.hub.registry())
                .expect("session shard restores");
        }
        // the steering clients are remote and reconnect: fresh endpoints,
        // re-subscribed to the restored hub (the old subscriptions died with
        // the process). The handshake is the same one the original attach
        // negotiated, so nothing new reaches the report.
        for (name, ep) in self.endpoints.iter_mut() {
            let transport = self.sc.transports.get(name).copied().unwrap_or_default();
            let mut fresh = transport.attach(&self.hub, name);
            fresh.negotiate(&Capabilities::full("scenario-client", 64));
            *ep = fresh;
        }
        // monitor side: relay tiers re-feed through loopback collectors,
        // viewers reconnect over their declared transports; both negotiate
        // against the saved caps inside restore_sections
        let (relays, viewers) = (&self.relays, &self.viewers);
        let mut resolver = |sub: &str, _caps: &MonitorCaps| -> Box<dyn MonitorEndpoint> {
            if relays.iter().any(|r| r.name == sub) {
                return Box::new(LoopbackMonitor::new());
            }
            match viewers.iter().find(|v| v.name == sub) {
                Some(v) => v.kind.attach_monitor(sub),
                None => Box::new(LoopbackMonitor::new()),
            }
        };
        self.mhub
            .restore_sections(&snap, "monitor", &mut resolver)
            .expect("monitor hub restores");
        for r in relays {
            r.hub
                .restore_sections(&snap, &format!("relay/{}", r.name), &mut resolver)
                .expect("relay tier restores");
        }
        // a stale restore rewinds hub seq numbering — the first delivery
        // batch each viewer sees afterwards may replay seqs, which is
        // recovery, not a monotonicity violation
        for v in self.viewers.iter_mut() {
            v.last_seq = None;
            v.fresh_attach = true;
        }
        self.crashed = false;
    }

    /// Cut the report. Steers that arrived after the last sample tick
    /// still commit first (the trailing boundary).
    pub(crate) fn into_report(mut self) -> ScenarioReport {
        self.commit_staged(self.sc.duration);
        let mut latencies = self.post.samples().to_vec();
        latencies.sort();
        let pct = |q: f64| -> SimTime {
            if latencies.is_empty() {
                SimTime::ZERO
            } else {
                latencies[((latencies.len() - 1) as f64 * q).round() as usize]
            }
        };
        let loop_report = self.post.report();
        self.probe_violations.extend(self.hub.probe_violations());
        ScenarioReport {
            name: self.sc.name.clone(),
            seed: self.sc.seed,
            backend: self.backend.kind(),
            broadcasts: self.broadcasts,
            broadcasts_skipped: self.skipped,
            p50: pct(0.5),
            p90: pct(0.9),
            p99: pct(0.99),
            max: loop_report.max,
            max_skew: loop_report.max_skew,
            within_budget: loop_report.within_budget,
            within_skew: loop_report.within_skew,
            post_budget_violations: loop_report.violations,
            steers_applied: self.steers_applied,
            steers_lost: self.steers_lost,
            monitor_frames: self.mhub.frames_published(),
            viewers: self.viewer_records(),
            relays: self.relay_records(),
            links: self
                .clients
                .iter()
                .map(|c| (c.name.clone(), c.total_stats()))
                .collect(),
            session_events: self.session_events(),
            final_progress: self.backend.steps(),
            migrations: self.migrations,
            engine_events: self.engine_events,
            probe_violations: self.probe_violations,
        }
    }

    fn viewer_records(&self) -> Vec<ViewerRecord> {
        let record = |v: &ViewerState| {
            let lr = v.monitor.report();
            // detached viewers report the stats frozen at leave time
            let stats = v.final_stats.unwrap_or_else(|| {
                Surface::of(&self.mhub, &self.relays, v.relay)
                    .stats_of(&v.name)
                    .unwrap_or_default()
            });
            ViewerRecord {
                name: v.name.clone(),
                transport: v.transport,
                budget: v.budget.name(),
                delivered: v.delivered,
                dropped: v.dropped,
                decimated: stats.decimated,
                filtered: stats.filtered,
                budget_violations: lr.violations,
                max_latency: lr.max,
                frames_digest: format!("{:016x}", v.digest),
            }
        };
        self.viewers.iter().map(record).collect()
    }

    fn relay_records(&self) -> Vec<RelayRecord> {
        let record = |r: &RelayNode| {
            let rep = r.hub.report();
            RelayRecord {
                name: r.name.clone(),
                parent: r.parent.map(|p| self.relays[p].name.clone()),
                ingested: rep.ingested,
                forwarded: rep.forwarded,
                decimated: rep.decimated,
                shed: rep.shed,
                keyframes_served: rep.keyframes_served,
                uplink_dropped: r.uplink_dropped,
            }
        };
        self.relays.iter().map(record).collect()
    }

    /// Every shard's audit log; with more than one shard each line is
    /// prefixed `s{i}`. The log retains a window: a shard that has evicted
    /// entries says so in a leading `Evicted(count,fold)` line, so a
    /// report never passes a tail off as the whole history.
    fn session_events(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for (i, s) in self.sessions.iter().enumerate() {
            let prefix = match self.sc.shards {
                1 => String::new(),
                _ => format!("s{i} "),
            };
            let log = s.audit_log();
            if log.evicted() > 0 {
                lines.push(format!(
                    "{prefix}Evicted({},{:016x})",
                    log.evicted(),
                    log.fold()
                ));
            }
            lines.extend(
                log.retained()
                    .iter()
                    .map(|e| prefix.clone() + &render_event(e)),
            );
        }
        lines
    }
}

/// Canonical, stable rendering of a session event for reports/digests.
fn render_event(e: &SessionEvent) -> String {
    match e {
        SessionEvent::Joined(n) => format!("Joined({n})"),
        SessionEvent::Left(n) => format!("Left({n})"),
        SessionEvent::MasterPassed { from, to } => format!("MasterPassed({from}->{to})"),
        SessionEvent::Steered { who, param, value } => {
            format!("Steered({who},{param},{})", value.render())
        }
        SessionEvent::SteerRefused { who, param, reason } => {
            format!("SteerRefused({who},{param},{reason})")
        }
        SessionEvent::SampleBroadcast { seq, bytes } => format!("Sample({seq},{bytes})"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbm::LbmConfig;

    const TICK: SimTime = SimTime::from_millis(100);

    fn tiny(name: &str) -> Scenario {
        Scenario::named(name)
            .lbm(LbmConfig {
                nx: 6,
                ny: 6,
                nz: 6,
                threads: 1,
                ..Default::default()
            })
            .duration(SimTime::from_secs(1))
    }

    fn process_bytes(w: &World<'_>) -> Vec<u8> {
        let mut snap = Snapshot::new(0, 0);
        w.save_process(&mut snap);
        snap.encode()
    }

    fn backend_bytes(w: &World<'_>) -> Vec<u8> {
        let mut snap = Snapshot::new(0, 0);
        w.backend.save_sections(&mut snap);
        snap.encode()
    }

    #[test]
    fn pump_relays_confines_a_partitioned_uplink_to_its_own_subtree() {
        let sc = tiny("pump")
            .relay("region", Link::campus())
            .relay_under("edge", "region", Link::uk_janet())
            .viewer_at_relay("near", "region", Link::gwin(), Transport::Loopback)
            .viewer_at_relay("far", "edge", Link::gwin(), Transport::Loopback);
        let mut w = World::new(&sc);
        w.apply(SimTime::ZERO, &Action::Partition { who: "edge".into() });
        w.publish_monitor();
        w.pump_relays(TICK);
        let batch = w.relays[0].hub.report().forwarded;
        assert!(batch > 0, "region ingested and forwarded the origin batch");
        let (region, edge) = (&w.relays[0], &w.relays[1]);
        assert_eq!(
            edge.uplink_dropped, batch,
            "the whole batch dies on the cut"
        );
        assert_eq!(edge.arrival, None);
        assert!(edge.hub.recv_child("far").is_empty());
        assert_eq!(region.uplink_dropped, 0);
        assert_eq!(region.hub.recv_child("near").len() as u64, batch);
    }

    #[test]
    fn cut_checkpoint_is_observation_only() {
        let cutting = tiny("cut")
            .participant("alice", Link::uk_janet())
            .relay("region", Link::campus())
            .viewer_at_relay("leaf", "region", Link::gwin(), Transport::Visit)
            .viewer_via("desk", Link::wan(), Transport::Covise)
            .steer_at(SimTime::from_millis(250), "alice", "miscibility", 0.3)
            .checkpoint_every(TICK);
        let never = cutting.without_checkpoints();
        let (mut cut, mut plain) = (World::new(&cutting), World::new(&never));
        while cut.step() {}
        while plain.step() {}
        let last = cut.ckpt.last_snap.as_ref().expect("ten ticks, ten cuts");
        assert_eq!(last.seq, 9, "one cut per tick");
        assert!(
            !cut.ckpt.chain.is_empty() && cut.ckpt.delta_bytes() < last.state_bytes(),
            "a full cut, then deltas that stay under one full cut's bytes"
        );
        assert!(plain.ckpt.chain.is_empty());
        assert_eq!(cut.engine_events, plain.engine_events);
        assert_eq!(process_bytes(&cut), process_bytes(&plain));
        assert_eq!(cut.rng.next_u64(), plain.rng.next_u64());
    }

    #[test]
    fn a_chain_rebases_before_its_deltas_outweigh_a_full_cut() {
        // a plasma of eight particles under four relay tiers, each with six
        // viewers, cut off after the first tick: what changes per tick
        // (particles, session log, origin hub) is a third of the process
        // state, the quiet tiers are the rest — so deltas really chain
        let mut sc = Scenario::named("quiet-tiers")
            .pepc(pepc::PepcConfig {
                n_target: 8,
                ranks: 1,
                ..pepc::PepcConfig::small()
            })
            .duration(SimTime::from_secs(1))
            .checkpoint_every(TICK);
        for r in 0..4 {
            let tier = format!("edge{r}");
            sc = sc
                .relay(&tier, Link::campus())
                .partition_at(SimTime::from_millis(150), &tier);
            for v in 0..6 {
                sc =
                    sc.viewer_at_relay(&format!("v{r}-{v}"), &tier, Link::gwin(), Transport::Visit);
            }
        }
        let smooth = sc.without_checkpoints().run();
        let crashing = sc
            .crash_at(SimTime::from_millis(450))
            .restore_at(SimTime::from_millis(480));
        let mut w = World::new(&crashing);
        let (mut longest, mut rebased, mut replayed) = (0, 0, 0);
        loop {
            let (was_down, held) = (w.crashed, w.ckpt.chain.len());
            let more = w.step();
            if let Some(last) = &w.ckpt.last_snap {
                assert!(
                    w.ckpt.delta_bytes() < last.state_bytes(),
                    "chain {:?} outweighs the {} bytes of a full cut",
                    w.ckpt.chain.iter().map(Vec::len).collect::<Vec<_>>(),
                    last.state_bytes()
                );
                rebased += usize::from(held > 1 && w.ckpt.chain.len() == 1);
            }
            longest = longest.max(w.ckpt.chain.len());
            if was_down && !w.crashed {
                replayed = w.ckpt.chain.len();
            }
            if !more {
                break;
            }
        }
        assert!(
            longest >= 3,
            "no multi-delta chain formed: longest {longest}"
        );
        assert!(rebased >= 1, "the chain never re-based");
        assert!(replayed >= 3, "the restore replayed {replayed} blobs");
        assert_eq!(w.into_report().render(), smooth.render());
    }

    #[test]
    fn commit_staged_drops_a_batch_whose_sender_left() {
        let sc = tiny("left")
            .participant("alice", Link::uk_janet())
            .participant("bob", Link::gwin());
        let steer = |w: &mut World<'_>| {
            w.stage_steer(TICK, "alice", "miscibility", ParamValue::F64(0.25));
            assert_eq!(w.hub.pending(), 1);
        };
        let mut w = World::new(&sc);
        let untouched = backend_bytes(&w);
        steer(&mut w);
        w.apply(
            TICK,
            &Action::Leave {
                name: "alice".into(),
            },
        );
        w.commit_staged(TICK);
        assert_eq!((w.steers_applied, w.steers_lost), (0, 1));
        let line = format!("{TICK} steer-sender-left alice");
        assert_eq!(w.engine_events.iter().filter(|e| **e == line).count(), 1);
        assert_eq!(backend_bytes(&w), untouched);
        // control: with alice still in the session the same batch lands
        let mut w = World::new(&sc);
        steer(&mut w);
        w.commit_staged(TICK);
        assert_eq!((w.steers_applied, w.steers_lost), (1, 0));
        assert_ne!(backend_bytes(&w), untouched);
    }

    #[test]
    fn every_action_applies_or_logs_a_miss_on_an_empty_world() {
        let ghost = || "ghost".to_string();
        // (action, the line it must log; `None` = silent)
        let table = [
            (Action::Leave { name: ghost() }, Some("leave-miss ghost")),
            (
                Action::PassMaster {
                    from: ghost(),
                    to: "nobody".into(),
                },
                Some("pass-miss ghost->nobody"),
            ),
            (
                Action::Steer {
                    who: ghost(),
                    param: "miscibility".into(),
                    value: ParamValue::F64(0.5),
                },
                Some("steer-offline ghost miscibility"),
            ),
            (Action::Partition { who: ghost() }, Some("fault-miss ghost")),
            (Action::Heal { who: ghost() }, Some("fault-miss ghost")),
            (
                Action::SetLoss {
                    who: ghost(),
                    ppm: 1,
                },
                Some("fault-miss ghost"),
            ),
            (
                Action::SetJitter {
                    who: ghost(),
                    jitter: TICK,
                },
                Some("fault-miss ghost"),
            ),
            (
                Action::Migrate {
                    from: "london".into(),
                    to: "atlantis".into(),
                },
                Some("migrate-miss london->atlantis"),
            ),
            (
                Action::ViewerLeave { name: ghost() },
                Some("viewer-leave-miss ghost"),
            ),
            (
                Action::ViewerJoin {
                    name: ghost(),
                    link: Link::wan(),
                    transport: Transport::Visit,
                    relay: Some("nowhere".into()),
                },
                Some("viewer-join-miss ghost"),
            ),
            (Action::Crash, None),
            (Action::Restore, Some("restore-miss no-checkpoint")),
            (
                Action::Join {
                    name: ghost(),
                    link: Link::wan(),
                },
                Some("attach ghost"),
            ),
        ];
        let mut kinds: Vec<&str> = table.iter().map(|(a, _)| a.label()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 13, "one row per Action variant");

        let sc = tiny("empty").checkpoint_every(TICK);
        let mut w = World::new(&sc);
        for (action, line) in &table {
            let logged = w.engine_events.len();
            w.apply(TICK, action);
            match line {
                Some(line) => {
                    assert_eq!(w.engine_events.len(), logged + 1, "{}", action.label());
                    let got = w.engine_events.last().unwrap();
                    assert!(got.starts_with(&format!("{TICK} {line}")), "{got}");
                }
                None => assert_eq!(w.engine_events.len(), logged, "{}", action.label()),
            }
        }
        assert!(
            w.crashed,
            "a restore with no checkpoint leaves the process down"
        );
        assert_eq!((w.steers_lost, w.clients.len()), (1, 1));
    }
}
