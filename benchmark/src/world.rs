//! The closed steering loop, driven from the layers' public functions in
//! the order `Scenario::run()`'s sample tick uses them.
//!
//! One tick: stage (`SteerEndpoint::set_batch`) → commit
//! (`SteerHub::commit_with` + `SteeringSession::steer_value`) → advance
//! (`step_n`) → publish (`MonitorSource::monitor_payloads_into` +
//! `MonitorHub::publish_batch`) → the Figure-1 branch if the workload has
//! one (`isosurface_with` → `Rasterizer::draw_mesh_with` →
//! `DeltaRleCodec::encode_with` → `HubFrameSink::publish_frame`) → relay
//! tiers top-down (`recv`/`recv_child` → `FaultyLink::deliver` →
//! `RelayHub::ingest`) → every viewer (`recv` → wire encode →
//! `FaultyLink::deliver` → `MonitorFrame::decode_borrowed` /
//! `DeltaRleCodec::decode`, verified) → a checkpoint cut when due. Tick
//! *k+1* starts when tick *k*'s last viewer has decoded: a closed loop with
//! one driver thread, exactly as the harness's virtual clock lets the
//! simulation run as fast as it computes.

use crate::clock::Clock;
use crate::load::Load;
use crate::trace::{Sp, Tracer};
use crate::workload::{Backend, Spec};
use gridsteer_bus::{
    Capabilities, HubFrameSink, LoopbackMonitor, MonitorCaps, MonitorEndpoint, MonitorFrame,
    MonitorHub, MonitorKind, MonitorPayload, MonitorStats, RelayHub, RelayPolicy, SteerCommand,
    SteerEndpoint, SteerHub, Subscription, Transport,
};
use gridsteer_ckpt::{CkptError, Snapshot};
use gridsteer_exec::ExecPool;
use lbm::{LbmConfig, TwoFluidLbm};
use netsim::{FaultyLink, Link, SimTime};
use pepc::{PepcConfig, PepcSim, TreeConfig};
use std::sync::Arc;
use steer_core::{
    MonitorScratch, MonitorSource, ParamSpec, ParamValue, SteerTarget, SteeringSession,
};
use viz::{Camera, DeltaRleCodec, EncodedFrame, Field3, FrameSink, Framebuffer, Rasterizer};

/// Virtual time between ticks (the harness's `sample_every`).
pub const TICK: SimTime = SimTime::from_millis(100);

/// Rendered frame size of the Figure-1 branch.
const FRAME_W: usize = 256;
const FRAME_H: usize = 256;

/// The render stream re-keys this often, so a viewer that lost a delta
/// frame (link loss, relay decimation, a partition) resynchronises.
pub const KEYFRAME_INTERVAL: usize = 240;

/// The pool width the configs record. The pool a world actually runs on is
/// passed explicitly, so the width-1 and width-2 runs save identical state
/// bytes.
const CONFIG_THREADS: usize = 2;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// The simulation under the loop.
pub enum Sim {
    Lbm(TwoFluidLbm),
    Pepc(PepcSim),
}

impl Sim {
    fn build(backend: Backend, seed: u64, preroll_steps: usize, pool: &Arc<ExecPool>) -> Sim {
        match backend {
            Backend::Lbm { n } => {
                let mut sim = TwoFluidLbm::with_pool(
                    LbmConfig {
                        nx: n,
                        ny: n,
                        nz: n,
                        seed,
                        threads: CONFIG_THREADS,
                        ..LbmConfig::default()
                    },
                    pool.clone(),
                );
                if preroll_steps > 0 {
                    sim.set_miscibility(0.0);
                    sim.step_n(preroll_steps);
                }
                Sim::Lbm(sim)
            }
            Backend::Pepc { n_target } => {
                let mut sim = PepcSim::new(PepcConfig {
                    n_target,
                    seed,
                    tree: TreeConfig {
                        threads: CONFIG_THREADS,
                        ..TreeConfig::default()
                    },
                    ..PepcConfig::small()
                });
                sim.set_pool(pool.clone());
                Sim::Pepc(sim)
            }
        }
    }

    fn from_snapshot(snap: &Snapshot, pool: &Arc<ExecPool>) -> Result<Sim, CkptError> {
        if snap.section(lbm::SEC_LBM_META).is_some() {
            let mut sim = TwoFluidLbm::from_snapshot(snap)?;
            sim.set_pool(pool.clone());
            Ok(Sim::Lbm(sim))
        } else {
            let mut sim = PepcSim::from_snapshot(snap)?;
            sim.set_pool(pool.clone());
            Ok(Sim::Pepc(sim))
        }
    }

    fn param_specs(&self) -> Vec<ParamSpec> {
        match self {
            Sim::Lbm(_) => TwoFluidLbm::specs(),
            Sim::Pepc(_) => PepcSim::specs(),
        }
    }

    fn step_n(&mut self, n: usize) {
        match self {
            Sim::Lbm(s) => s.step_n(n),
            Sim::Pepc(s) => s.step_n(n),
        }
    }

    pub fn steps(&self) -> u64 {
        match self {
            Sim::Lbm(s) => s.steps(),
            Sim::Pepc(s) => s.step_count(),
        }
    }

    fn write(&mut self, param: &str, value: &ParamValue) -> Result<(), String> {
        match self {
            Sim::Lbm(s) => s.write(param, value),
            Sim::Pepc(s) => s.write(param, value),
        }
    }

    fn read(&self, param: &str) -> Option<ParamValue> {
        match self {
            Sim::Lbm(s) => s.read(param),
            Sim::Pepc(s) => s.read(param),
        }
    }

    fn payloads<'a>(&self, scratch: &'a mut MonitorScratch) -> Vec<MonitorPayload<'a>> {
        match self {
            Sim::Lbm(s) => s.monitor_payloads_into(scratch),
            Sim::Pepc(s) => s.monitor_payloads_into(scratch),
        }
    }

    fn save_sections(&self, snap: &mut Snapshot) {
        match self {
            Sim::Lbm(s) => s.save_sections(snap),
            Sim::Pepc(s) => s.save_sections(snap),
        }
    }

    /// FNV over the full saved state (every float as raw bits).
    fn state_digest(&self, mut h: u64) -> u64 {
        let mut snap = Snapshot::new(0, 0);
        self.save_sections(&mut snap);
        for s in &snap.sections {
            h = fnv(h, s.name.as_bytes());
            h = fnv(h, &s.bytes);
        }
        h
    }
}

struct Client {
    name: &'static str,
    transport: Transport,
    shard: usize,
    ep: Box<dyn SteerEndpoint>,
    sub: Subscription,
}

struct RelayNode {
    name: &'static str,
    parent: Option<usize>,
    hub: RelayHub,
    uplink: FaultyLink,
    arrival: Option<SimTime>,
    uplink_dropped: u64,
}

struct Viewer {
    name: &'static str,
    transport: Transport,
    relay: Option<usize>,
    link: FaultyLink,
    /// `fold_fnv` over every frame that arrived, in arrival order.
    digest: u64,
    last_seq: Option<u64>,
    /// The first delivery batch after an attach or a restore may replay
    /// sequence numbers (keyframe-cache serves, rewinds).
    fresh: bool,
    /// Step stamped on the newest frame this viewer decoded.
    last_step: u64,
    arrived: u64,
    dropped: u64,
    codec: DeltaRleCodec,
    /// True while the viewer's render stream is contiguous since a
    /// keyframe, i.e. its codec history matches the encoder's.
    viz_sync: bool,
    viz_step: u64,
}

struct VizState {
    codec: DeltaRleCodec,
    camera: Camera,
    /// This tick's rendered frame — what every in-sync viewer must decode.
    fb: Framebuffer,
}

struct CkptState {
    chain: Vec<Vec<u8>>,
    last_snap: Option<Snapshot>,
}

/// Operation counts of one run. Each repeats exactly for a given seed.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    pub ticks: u64,
    pub cmds_staged: u64,
    pub cmds_applied: u64,
    pub cmds_refused: u64,
    pub notices_drained: u64,
    /// Frames that arrived at a viewer, decoded, and matched what was sent.
    pub frames_verified: u64,
    pub viz_frames: u64,
    pub viz_decoded: u64,
    /// Render deltas a viewer skipped because it was waiting for a keyframe.
    pub viz_skipped: u64,
    pub cuts: u64,
    pub restores: u64,
}

/// Timing and size samples of one run.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// Stage → last viewer decoded → cut if due, per tick.
    pub tick_ns: Vec<u64>,
    /// `tick_ns` plus the crash+restore that followed the tick, if any:
    /// these add up to the time the loop was busy.
    pub loop_ns: Vec<u64>,
    /// Frames decoded and verified at viewers, per tick.
    pub frames: Vec<u32>,
    /// `set_batch` call → every viewer has decoded a post-commit frame, as
    /// `(measured tick it completed in, nanoseconds)`.
    pub steer_seen: Vec<(u32, u64)>,
    /// Loop stall per checkpoint cut.
    pub pause_ns: Vec<u64>,
    /// Crash → all layers restored → first post-restore frames decoded.
    pub recover_ns: Vec<u64>,
    pub triangles: Vec<u64>,
    pub frame_wire_bytes: Vec<u64>,
    pub frame_raw_bytes: Vec<u64>,
    pub interactions: Vec<u64>,
    pub bytes_full: Vec<u64>,
    pub bytes_delta: Vec<u64>,
}

/// One workload's live state.
pub struct World {
    spec: Spec,
    pool: Arc<ExecPool>,
    sim: Sim,
    hub: SteerHub,
    sessions: Vec<SteeringSession>,
    clients: Vec<Client>,
    mhub: MonitorHub,
    relays: Vec<RelayNode>,
    viewers: Vec<Viewer>,
    scratch: MonitorScratch,
    viz: Option<VizState>,
    ckpt: Option<CkptState>,
    load: Load,
    /// Ticks run since the build, warm-up included.
    tick: u32,
    /// Value of `tick` when measuring started.
    measured_from: u32,
    /// Steers not yet seen by every viewer: `(set_batch time, step a frame
    /// must carry to be post-commit)`.
    pending_seen: Vec<(u64, u64)>,
    /// Restore time of a recovery whose first post-restore tick is next.
    recovering: Option<u64>,
    /// LBM mass right after the build, for the drift check.
    mass0: Option<f64>,
    pub counters: Counters,
    pub samples: Samples,
    /// Failed operations and checks, as readable lines.
    pub failures: Vec<String>,
}

fn stage_span(t: Transport) -> Sp {
    match t {
        Transport::Loopback => Sp::StageLoopback,
        Transport::Visit => Sp::StageVisit,
        Transport::Ogsa => Sp::StageOgsa,
        Transport::Covise => Sp::StageCovise,
        Transport::Unicore => Sp::StageUnicore,
    }
}

fn recv_span(t: Transport) -> Sp {
    match t {
        Transport::Loopback => Sp::RecvLoopback,
        Transport::Visit => Sp::RecvVisit,
        Transport::Ogsa => Sp::RecvOgsa,
        Transport::Covise => Sp::RecvCovise,
        Transport::Unicore => Sp::RecvUnicore,
    }
}

fn attach_client(
    hub: &SteerHub,
    name: &str,
    transport: Transport,
) -> (Box<dyn SteerEndpoint>, Subscription) {
    let mut ep = transport.attach(hub, name);
    ep.negotiate(&Capabilities::full("loopbench", 64));
    let sub = ep.subscribe();
    (ep, sub)
}

fn viewer_caps(scalars_only: bool) -> MonitorCaps {
    let mut caps = MonitorCaps::full("loopbench", 64);
    if scalars_only {
        caps.kinds.retain(|k| *k == MonitorKind::Scalar);
    }
    caps
}

fn link(base: Link, load: &mut Load) -> FaultyLink {
    let (seed, fault_seed) = load.link_seeds();
    let mut base = base;
    base.seed = seed;
    FaultyLink::new(base, fault_seed)
}

impl World {
    /// Build the workload's world on a pool of `width` workers: simulation,
    /// hubs, sessions, every endpoint negotiated, relay tiers, viewers.
    pub fn build(spec: &Spec, seed: u64, width: usize) -> World {
        let pool = gridsteer_exec::shared(width);
        let mut load = Load::new(seed);
        let (backend_seed, preroll_steps) = match spec.preroll {
            Some(p) => (p.seed, p.steps),
            None => (load.backend_seed, 0),
        };
        let sim = Sim::build(spec.backend, backend_seed, preroll_steps, &pool);
        let hub = SteerHub::new(sim.param_specs());
        let mut sessions: Vec<SteeringSession> = (0..spec.shards)
            .map(|_| SteeringSession::with_registry(hub.registry()))
            .collect();
        let clients = spec
            .participants
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let shard = i % spec.shards;
                sessions[shard].join(p.name);
                let (ep, sub) = attach_client(&hub, p.name, p.transport);
                Client {
                    name: p.name,
                    transport: p.transport,
                    shard,
                    ep,
                    sub,
                }
            })
            .collect();

        let mhub = MonitorHub::new();
        let mut relays: Vec<RelayNode> = Vec::new();
        for r in &spec.relays {
            let parent = r.parent.map(|p| {
                relays
                    .iter()
                    .position(|n| n.name == p)
                    .expect("relay parents are declared first")
            });
            let relay_hub = RelayHub::new(RelayPolicy {
                deliver_every: r.every,
                default_child_budget: None,
            });
            // as in the harness: a relay subscribes on its parent surface
            // through a loopback collector the loop drains and ships over
            // the relay's own faulted uplink
            let collector = Box::new(LoopbackMonitor::new());
            match parent {
                None => mhub.attach_endpoint(r.name, collector, &RelayHub::uplink_caps()),
                Some(p) => relays[p].hub.attach_child_with_budget(
                    r.name,
                    collector,
                    &RelayHub::uplink_caps(),
                    None,
                ),
            };
            relays.push(RelayNode {
                name: r.name,
                parent,
                hub: relay_hub,
                uplink: link(Link::campus(), &mut load),
                arrival: None,
                uplink_dropped: 0,
            });
        }
        let viewers = spec
            .viewers
            .iter()
            .map(|v| {
                let relay = v.relay.map(|r| {
                    relays
                        .iter()
                        .position(|n| n.name == r)
                        .expect("viewer relays are declared")
                });
                let ep = v.transport.attach_monitor(v.name);
                let caps = viewer_caps(v.scalars_only);
                match relay {
                    None => mhub.attach_endpoint(v.name, ep, &caps),
                    Some(i) => relays[i].hub.attach_child(v.name, ep, &caps),
                };
                let mut link = link(Link::uk_janet(), &mut load);
                link.set_extra_loss_ppm(v.loss_ppm);
                Viewer {
                    name: v.name,
                    transport: v.transport,
                    relay,
                    link,
                    digest: FNV_OFFSET,
                    last_seq: None,
                    fresh: true,
                    last_step: 0,
                    arrived: 0,
                    dropped: 0,
                    codec: DeltaRleCodec::new(),
                    viz_sync: false,
                    viz_step: 0,
                }
            })
            .collect();

        let viz = spec.viz.then(|| {
            let n = match spec.backend {
                Backend::Lbm { n } => n as f32,
                Backend::Pepc { .. } => 1.0,
            };
            let mut codec = DeltaRleCodec::new();
            codec.keyframe_interval = KEYFRAME_INTERVAL;
            VizState {
                codec,
                // the isosurface is in lattice coordinates: look at the
                // lattice centre from outside a corner
                camera: Camera::look_at(
                    viz::Vec3::new(2.2 * n, 1.7 * n, -1.4 * n),
                    viz::Vec3::new(0.5 * n, 0.5 * n, 0.5 * n),
                ),
                fb: Framebuffer::new(FRAME_W, FRAME_H),
            }
        });
        let mass0 = match &sim {
            Sim::Lbm(s) => {
                let (a, b) = s.total_mass();
                Some(a + b)
            }
            Sim::Pepc(_) => None,
        };
        World {
            spec: spec.clone(),
            pool,
            sim,
            hub,
            sessions,
            clients,
            mhub,
            relays,
            viewers,
            scratch: MonitorScratch::default(),
            viz,
            ckpt: spec.ckpt.map(|_| CkptState {
                chain: Vec::new(),
                last_snap: None,
            }),
            load,
            tick: 0,
            measured_from: 0,
            pending_seen: Vec::new(),
            recovering: None,
            mass0,
            counters: Counters::default(),
            samples: Samples::default(),
            failures: Vec::new(),
        }
    }

    /// Ticks run since the build, warm-up included.
    pub fn ticks_run(&self) -> u32 {
        self.tick
    }

    /// Drop the warm-up's samples and counts; state and tick number stay.
    pub fn start_measuring(&mut self) {
        self.measured_from = self.tick;
        self.counters = Counters::default();
        self.samples = Samples::default();
    }

    /// Run `n` ticks (and the crash/restore cycles that fall due).
    pub fn run(&mut self, n: u32, clock: &Clock, tr: &mut Tracer) {
        for _ in 0..n {
            let t0 = clock.ns();
            self.tick(clock, tr);
            if let Some(plan) = self.spec.ckpt {
                if self.tick.is_multiple_of(plan.crash_every) {
                    self.crash_and_restore(clock, tr);
                }
            }
            self.samples.loop_ns.push(clock.ns() - t0);
        }
    }

    fn fail(&mut self, what: String) {
        // keep the first lines readable; the count is what matters after
        if self.failures.len() < 32 {
            eprintln!("FAIL [{} tick {}] {what}", self.spec.name, self.tick);
        }
        self.failures.push(what);
    }

    fn tick(&mut self, clock: &Clock, tr: &mut Tracer) {
        let t0 = clock.ns();
        let verified_before = self.counters.frames_verified;
        tr.set_tick(self.tick - self.measured_from);
        let root = tr.enter(Sp::Tick);
        let now = SimTime::from_nanos(TICK.as_nanos() * (self.tick as u64 + 1));

        if let Some((relay, from, to)) = self.spec.partition {
            if self.tick == from || self.tick == to {
                let node = self
                    .relays
                    .iter_mut()
                    .find(|r| r.name == relay)
                    .expect("partitioned relay is declared");
                if self.tick == from {
                    node.uplink.partition();
                } else {
                    node.uplink.heal();
                }
            }
        }

        self.stage_and_commit(t0, tr);

        let step_span = match self.sim {
            Sim::Lbm(_) => Sp::LbmStep,
            Sim::Pepc(_) => Sp::PepcStep,
        };
        let s = tr.enter(step_span);
        self.sim.step_n(self.spec.steps_per_tick);
        tr.exit(s);
        if let Sim::Pepc(p) = &self.sim {
            self.samples.interactions.push(p.last_interactions());
        }

        self.publish(tr);
        self.pump_relays(now, tr);
        self.serve_viewers(now, tr);

        // a steer is seen once every viewer holds a post-commit frame
        let seen_at = clock.ns();
        let min_step = self.viewers.iter().map(|v| v.last_step).min().unwrap_or(0);
        let samples = &mut self.samples.steer_seen;
        let measured_tick = self.tick - self.measured_from;
        self.pending_seen.retain(|(staged_at, visible_step)| {
            let seen = min_step >= *visible_step;
            if seen {
                samples.push((measured_tick, seen_at - staged_at));
            }
            !seen
        });
        if let Some(restore_ns) = self.recovering.take() {
            self.samples.recover_ns.push(restore_ns + (seen_at - t0));
        }

        self.tick += 1;
        if let Some(plan) = self.spec.ckpt {
            if self.tick.is_multiple_of(plan.cut_every) {
                self.cut(now, clock, tr);
            }
        }
        tr.exit(root);
        self.counters.ticks += 1;
        self.samples.tick_ns.push(clock.ns() - t0);
        self.samples
            .frames
            .push((self.counters.frames_verified - verified_before) as u32);
    }

    /// The current master of `shard` stages this tick's batches; the hub
    /// commits them at the step boundary through the session's role and
    /// bounds checks and into the simulation.
    fn stage_and_commit(&mut self, t0: u64, tr: &mut Tracer) {
        let plan = self.spec.steer;
        if let Some(every) = plan.pass_master_every {
            if self.tick > 0 && self.tick.is_multiple_of(every) {
                for session in &mut self.sessions {
                    let from = session.master().expect("a non-empty shard has a master");
                    let to = (from + 1) % session.len();
                    if !session.pass_master(from, to) {
                        self.failures.push("pass_master refused".into());
                    }
                }
            }
        }
        if !self.tick.is_multiple_of(plan.every) {
            return;
        }
        let s = tr.enter(Sp::LoadGen);
        let mut batches: Vec<(usize, Vec<SteerCommand>)> = Vec::new();
        // the value each parameter must hold once this tick's commit is done
        let mut expected: Vec<(&'static str, f64)> = Vec::new();
        for _ in 0..plan.batches_per_shard {
            for session in &self.sessions {
                let master = session.master().expect("a non-empty shard has a master");
                let name = &session.participant(master).expect("master index").name;
                let client = self
                    .clients
                    .iter()
                    .position(|c| c.name == name.as_str())
                    .expect("every participant has an endpoint");
                let cmds = (0..plan.cmds_per_batch)
                    .map(|_| {
                        let (param, value) = self.load.next_steer(plan.ranges);
                        match expected.iter_mut().find(|(p, _)| *p == param) {
                            Some(e) => e.1 = value,
                            None => expected.push((param, value)),
                        }
                        SteerCommand::f64(param, value)
                    })
                    .collect();
                batches.push((client, cmds));
            }
        }
        tr.exit(s);

        for (client, cmds) in batches {
            let n = cmds.len() as u64;
            let c = &mut self.clients[client];
            let s = tr.enter(stage_span(c.transport));
            let staged = c.ep.set_batch(cmds);
            tr.exit(s);
            self.counters.cmds_staged += n;
            if let Err(e) = staged {
                let who = c.name;
                self.fail(format!("set_batch by {who}: {e}"));
            }
        }

        let s = tr.enter(Sp::Commit);
        let (sessions, sim, clients) = (&mut self.sessions, &mut self.sim, &self.clients);
        let outcome = self.hub.commit_with(|batch, cmd| {
            let c = clients
                .iter()
                .find(|c| c.name == batch.origin)
                .ok_or("unknown origin")?;
            let session = &mut sessions[c.shard];
            let idx = session.index_of(&batch.origin).ok_or("sender left")?;
            let s = tr.enter(Sp::SessionSteer);
            let applied = session.steer_value(idx, &cmd.param, &cmd.value);
            tr.exit(s);
            let applied = applied?;
            sim.write(&cmd.param, &applied)?;
            Ok(applied)
        });
        tr.exit(s);
        self.counters.cmds_applied += outcome.applied;
        self.counters.cmds_refused += outcome.refused;

        for c in &self.clients {
            let s = tr.enter(Sp::NotifyDrain);
            let n = c.sub.drain().len();
            tr.exit(s);
            self.counters.notices_drained += n as u64;
        }

        let s = tr.enter(Sp::Verify);
        for (param, value) in expected {
            let in_hub = self.hub.get(param).and_then(|v| v.as_f64());
            let in_sim = self.sim.read(param).and_then(|v| v.as_f64());
            // beam_theta reads back through cos/sin/atan2
            let sim_ok = in_sim.is_some_and(|v| (v - value).abs() <= 1e-9);
            if in_hub != Some(value) || !sim_ok {
                self.fail(format!(
                    "{param}: staged {value}, hub holds {in_hub:?}, sim holds {in_sim:?}"
                ));
            }
        }
        tr.exit(s);
        self.pending_seen
            .push((t0, self.sim.steps() + self.spec.steps_per_tick as u64));
    }

    /// Publish the step boundary's monitored output, then the rendered
    /// frame if the workload has the Figure-1 branch.
    fn publish(&mut self, tr: &mut Tracer) {
        let step = self.sim.steps();
        let s = tr.enter(Sp::MonitorBuild);
        let payloads = self.sim.payloads(&mut self.scratch);
        tr.exit(s);
        // the sample the visualization component consumes is the monitored
        // field itself, not a second pass over the distributions
        let field = self.viz.as_ref().and_then(|_| {
            payloads.iter().find_map(|p| match p {
                MonitorPayload::Grid3 {
                    nx, ny, nz, data, ..
                } => Some(Field3::from_vec(
                    *nx as usize,
                    *ny as usize,
                    *nz as usize,
                    data.to_vec(),
                )),
                _ => None,
            })
        });
        let s = tr.enter(Sp::MonitorPublish);
        self.mhub.publish_batch(step, payloads);
        tr.exit(s);

        let (Some(viz), Some(field)) = (self.viz.as_mut(), field) else {
            return;
        };
        let s = tr.enter(Sp::VizIsosurface);
        let mesh = viz::mc::isosurface_with(&self.pool, &field, 0.0);
        tr.exit(s);
        self.samples.triangles.push(mesh.tri_count() as u64);

        let s = tr.enter(Sp::VizRaster);
        let mut raster = Rasterizer::new(FRAME_W, FRAME_H);
        raster.clear([10, 10, 30, 255]);
        raster.draw_mesh_with(&self.pool, &viz.camera, &mesh, [90, 170, 230, 255]);
        viz.fb = raster.into_framebuffer();
        tr.exit(s);

        // what `VizServerSession::ship_frame_to` does, on the loop's own
        // pool and with the hub fan-out as a child span of the encode
        let s = tr.enter(Sp::VizEncode);
        let mut sink = HubFrameSink::new(&self.mhub, "viz", step);
        if sink.wants_keyframe() {
            viz.codec.reset();
        }
        let frame = viz.codec.encode_with(&self.pool, &viz.fb);
        let p = tr.enter(Sp::MonitorPublishFrame);
        sink.publish_frame(&frame);
        tr.exit(p);
        tr.exit(s);
        self.counters.viz_frames += 1;
        self.samples.frame_wire_bytes.push(frame.wire_size() as u64);
        self.samples.frame_raw_bytes.push(frame.raw_size as u64);
    }

    /// Relay tick, top-down: drain the tier's collector on its parent
    /// surface, ship the batch as one envelope over the faulted uplink, and
    /// on arrival fan it out to the tier's children.
    fn pump_relays(&mut self, now: SimTime, tr: &mut Tracer) {
        for i in 0..self.relays.len() {
            let s = tr.enter(Sp::RelayRecvChild);
            let (frames, depart) = match self.relays[i].parent {
                None => (self.mhub.recv(self.relays[i].name), now),
                Some(p) => (
                    self.relays[p].hub.recv_child(self.relays[i].name),
                    self.relays[p].arrival.unwrap_or(now),
                ),
            };
            tr.exit(s);
            if frames.is_empty() {
                continue;
            }
            let bytes: usize = frames.iter().map(|f| f.wire_size()).sum();
            let s = tr.enter(Sp::NetsimDeliver);
            let arrival = self.relays[i].uplink.deliver(depart, bytes);
            tr.exit(s);
            match arrival {
                Some(at) => {
                    self.relays[i].arrival = Some(at);
                    let s = tr.enter(Sp::RelayIngest);
                    self.relays[i].hub.ingest(&frames);
                    tr.exit(s);
                }
                None => self.relays[i].uplink_dropped += frames.len() as u64,
            }
        }
    }

    /// Every viewer drains its middleware endpoint; each frame is put on
    /// the wire, rides the viewer's faulted link, and is decoded and
    /// verified on arrival.
    fn serve_viewers(&mut self, now: SimTime, tr: &mut Tracer) {
        for vi in 0..self.viewers.len() {
            let s = tr.enter(recv_span(self.viewers[vi].transport));
            let (frames, depart) = match self.viewers[vi].relay {
                None => (self.mhub.recv(self.viewers[vi].name), now),
                Some(i) => (
                    self.relays[i].hub.recv_child(self.viewers[vi].name),
                    self.relays[i].arrival.unwrap_or(now),
                ),
            };
            tr.exit(s);
            let had_frames = !frames.is_empty();
            for frame in frames {
                if let Err(why) = self.deliver(vi, &frame, depart, tr) {
                    let who = self.viewers[vi].name;
                    self.fail(format!("viewer {who} seq {}: {why}", frame.seq));
                }
            }
            if had_frames {
                self.viewers[vi].fresh = false;
            }
        }
    }

    fn deliver(
        &mut self,
        vi: usize,
        frame: &MonitorFrame<'static>,
        depart: SimTime,
        tr: &mut Tracer,
    ) -> Result<(), String> {
        let v = &mut self.viewers[vi];
        let s = tr.enter(Sp::MonitorEncode);
        let wire = frame.try_to_bytes();
        tr.exit(s);
        let wire = wire.map_err(|e| format!("wire encode: {e}"))?;

        let s = tr.enter(Sp::NetsimDeliver);
        let arrival = v.link.deliver(depart, wire.len());
        tr.exit(s);
        if arrival.is_none() {
            v.dropped += 1;
            return Ok(());
        }
        v.arrived += 1;

        let s = tr.enter(Sp::MonitorDecode);
        let mut buf = &wire[..];
        let decoded = MonitorFrame::decode_borrowed(&mut buf);
        tr.exit(s);
        let decoded = decoded.ok_or("wire bytes do not decode")?;

        let s = tr.enter(Sp::Verify);
        let intact = buf.is_empty() && decoded == *frame;
        let in_order = v.fresh || v.last_seq.is_none_or(|prev| frame.seq > prev);
        v.last_seq = Some(frame.seq);
        v.last_step = v.last_step.max(frame.step);
        v.digest = decoded.fold_fnv(v.digest);
        tr.exit(s);
        if !intact {
            return Err("decoded frame differs from the frame sent".into());
        }
        if !in_order {
            return Err("sequence number did not increase".into());
        }
        self.counters.frames_verified += 1;

        let MonitorPayload::Frame {
            keyframe,
            raw_size,
            data,
            ..
        } = &decoded.payload
        else {
            return Ok(());
        };
        let contiguous = v.viz_sync && decoded.step == v.viz_step + self.spec.steps_per_tick as u64;
        if !(*keyframe || contiguous) {
            // a delta against a frame this viewer never got: wait for the
            // next keyframe, as any delta-stream client must
            v.viz_sync = false;
            self.counters.viz_skipped += 1;
            return Ok(());
        }
        let s = tr.enter(Sp::VizDecode);
        let image = v.codec.decode(
            &EncodedFrame {
                keyframe: *keyframe,
                payload: data.to_vec(),
                raw_size: *raw_size as usize,
            },
            FRAME_W,
            FRAME_H,
        );
        tr.exit(s);
        v.viz_sync = true;
        v.viz_step = decoded.step;
        let rendered = &self
            .viz
            .as_ref()
            .ok_or("render frame without a viz branch")?
            .fb;
        let s = tr.enter(Sp::Verify);
        let same = image.is_some_and(|img| img.bytes() == rendered.bytes());
        tr.exit(s);
        if !same {
            return Err("decoded image differs from the rendered frame".into());
        }
        self.counters.viz_decoded += 1;
        Ok(())
    }

    /// Serialize the whole process state, as the harness's `save_process`.
    fn save_process(&self, snap: &mut Snapshot) {
        self.sim.save_sections(snap);
        self.hub.save_sections(snap, "steer");
        for (i, s) in self.sessions.iter().enumerate() {
            s.save_sections(snap, &format!("session/{i}"));
        }
        self.mhub.save_sections(snap, "monitor");
        for r in &self.relays {
            r.hub.save_sections(snap, &format!("relay/{}", r.name));
        }
    }

    /// Cut a checkpoint at the end of the tick: full if the chain is empty,
    /// else a delta against the previous cut.
    fn cut(&mut self, now: SimTime, clock: &Clock, tr: &mut Tracer) {
        let t0 = clock.ns();
        let seq = self.ckpt.as_ref().map_or(0, |c| c.chain.len() as u64);
        let s = tr.enter(Sp::CkptSave);
        let mut snap = Snapshot::new(seq, now.as_nanos());
        self.save_process(&mut snap);
        tr.exit(s);
        let ckpt = self.ckpt.as_mut().expect("cut needs a checkpoint plan");
        let blob = match &ckpt.last_snap {
            None => {
                let s = tr.enter(Sp::CkptEncodeFull);
                let blob = snap.encode();
                tr.exit(s);
                self.samples.bytes_full.push(blob.len() as u64);
                blob
            }
            Some(base) => {
                let s = tr.enter(Sp::CkptEncodeDelta);
                let blob = snap.encode_delta(base);
                tr.exit(s);
                self.samples.bytes_delta.push(blob.len() as u64);
                blob
            }
        };
        ckpt.chain.push(blob);
        ckpt.last_snap = Some(snap);
        self.counters.cuts += 1;
        self.samples.pause_ns.push(clock.ns() - t0);
    }

    /// The process dies and a fresh one resumes from the checkpoint chain:
    /// decode the full snapshot and every delta, rebuild each layer from
    /// its sections, and let the steering clients and viewers reconnect.
    /// The chain then restarts with a full cut.
    fn crash_and_restore(&mut self, clock: &Clock, tr: &mut Tracer) {
        let root = tr.enter(Sp::Recover);
        let mut ckpt = self.ckpt.take().expect("crash needs a checkpoint plan");
        let cut = ckpt.last_snap.take().expect("a cut precedes every crash");
        match self.restore(&ckpt.chain, &cut, clock, tr) {
            Ok(restore_ns) => self.recovering = Some(restore_ns),
            Err(e) => self.fail(format!("restore: {e}")),
        }
        ckpt.chain.clear();
        self.ckpt = Some(ckpt);
        self.counters.restores += 1;
        tr.exit(root);
    }

    fn restore(
        &mut self,
        chain: &[Vec<u8>],
        cut: &Snapshot,
        clock: &Clock,
        tr: &mut Tracer,
    ) -> Result<u64, CkptError> {
        let t0 = clock.ns();
        let s = tr.enter(Sp::CkptDecode);
        let mut snap = Snapshot::decode(&chain[0]);
        for delta in &chain[1..] {
            snap = snap.and_then(|base| Snapshot::decode_delta(delta, &base));
        }
        tr.exit(s);
        let snap = snap?;

        let s = tr.enter(Sp::CkptRestore);
        let restored = self.restore_layers(&snap);
        tr.exit(s);
        restored?;
        let restored_at = clock.ns();

        // before anyone reconnects (a handshake is a new audit line), the
        // restored process must save exactly the bytes the cut saved
        let s = tr.enter(Sp::Verify);
        let mut again = Snapshot::new(cut.seq, cut.time_ns);
        self.save_process(&mut again);
        let identical = again == *cut;
        tr.exit(s);
        if !identical {
            self.fail("restored state differs from the state at its cut".into());
        }

        let t1 = clock.ns();
        let s = tr.enter(Sp::CkptReattach);
        for c in &mut self.clients {
            (c.ep, c.sub) = attach_client(&self.hub, c.name, c.transport);
        }
        for v in &mut self.viewers {
            v.last_seq = None;
            v.fresh = true;
        }
        tr.exit(s);
        Ok((restored_at - t0) + (clock.ns() - t1))
    }

    /// Rebuild every layer from its sections, with the harness's
    /// `restore_process` resolver pattern: relay tiers re-feed through
    /// loopback collectors, viewers reconnect over their own transports,
    /// both negotiated against the saved capability sets.
    fn restore_layers(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        self.sim = Sim::from_snapshot(snap, &self.pool)?;
        self.hub = SteerHub::default();
        self.hub.restore_sections(snap, "steer")?;
        for (i, s) in self.sessions.iter_mut().enumerate() {
            *s = SteeringSession::restore_sections(
                snap,
                &format!("session/{i}"),
                self.hub.registry(),
            )?;
        }
        let viewers = &self.viewers;
        let mut resolver = |sub: &str, _caps: &MonitorCaps| -> Box<dyn MonitorEndpoint> {
            match viewers.iter().find(|v| v.name == sub) {
                Some(v) => v.transport.attach_monitor(sub),
                None => Box::new(LoopbackMonitor::new()),
            }
        };
        self.mhub = MonitorHub::new();
        self.mhub.restore_sections(snap, "monitor", &mut resolver)?;
        for r in &mut self.relays {
            r.hub = RelayHub::new(RelayPolicy::default());
            r.hub
                .restore_sections(snap, &format!("relay/{}", r.name), &mut resolver)?;
        }
        self.scratch = MonitorScratch::default();
        Ok(())
    }

    /// The result digest: final simulation state bits, every viewer's
    /// `fold_fnv` stream, and the committed parameter values.
    pub fn digest(&self) -> u64 {
        let mut h = self.sim.state_digest(FNV_OFFSET);
        for v in &self.viewers {
            h = fnv(h, v.name.as_bytes());
            h = fnv(h, &v.digest.to_le_bytes());
        }
        for spec in self.hub.describe() {
            h = fnv(h, spec.name.as_bytes());
            if let Some(v) = self.hub.get(&spec.name) {
                h = fnv(h, v.render().as_bytes());
            }
        }
        h
    }

    /// Conservation and stability checks over the run so far; every
    /// violated one becomes a failure line.
    pub fn check_invariants(&mut self) {
        let mut bad: Vec<String> = Vec::new();
        let c = &self.counters;
        if c.cmds_staged != c.cmds_applied + c.cmds_refused {
            bad.push(format!(
                "staged {} != applied {} + refused {}",
                c.cmds_staged, c.cmds_applied, c.cmds_refused
            ));
        }
        if self.hub.pending() != 0 {
            bad.push(format!("{} batches left staged", self.hub.pending()));
        }
        for line in self.hub.probe_violations() {
            bad.push(format!("steer hub probe: {line}"));
        }
        for (si, s) in self.sessions.iter().enumerate() {
            if s.master_count() != 1 {
                bad.push(format!("shard {si} has {} masters", s.master_count()));
            }
        }
        match &self.sim {
            Sim::Lbm(s) => {
                let (a, b) = s.total_mass();
                let m0 = self.mass0.expect("lbm worlds record their initial mass");
                let drift = ((a + b) - m0).abs() / m0;
                if drift.is_nan() || drift >= 1e-9 {
                    bad.push(format!("LBM mass drifted by {drift:e} relative"));
                }
                if s.is_unstable() {
                    bad.push("LBM distributions are not finite".into());
                }
            }
            Sim::Pepc(s) => {
                if !s.kinetic_energy().is_finite() {
                    bad.push("PEPC kinetic energy is not finite".into());
                }
            }
        }
        // published × subscribers = delivered + decimated + filtered + shed
        // + dropped in transit, checked per subscriber at every tier
        for (tier, name, published, s) in self.subscriber_stats() {
            let accounted = s.delivered + s.decimated + s.filtered + s.shed + s.errors;
            if published != accounted || s.errors != 0 {
                bad.push(format!(
                    "{name} at {tier}: published {published} != delivered {} + decimated {} + filtered {} + shed {} (transport errors {})",
                    s.delivered, s.decimated, s.filtered, s.shed, s.errors
                ));
            }
            if let Some(v) = self.viewers.iter().find(|v| v.name == name) {
                if s.delivered != v.arrived + v.dropped {
                    bad.push(format!(
                        "viewer {name} at {tier}: hub delivered {} != arrived {} + dropped {}",
                        s.delivered, v.arrived, v.dropped
                    ));
                }
            }
            if let Some(r) = self.relays.iter().find(|r| r.name == name) {
                let ingested = r.hub.report().ingested;
                if s.delivered != ingested + r.uplink_dropped {
                    bad.push(format!(
                        "relay {name} under {tier}: parent delivered {} != ingested {ingested} + uplink-dropped {}",
                        s.delivered, r.uplink_dropped
                    ));
                }
            }
        }
        for r in &self.relays {
            let rep = r.hub.report();
            if rep.ingested != rep.forwarded + rep.decimated {
                bad.push(format!(
                    "relay {}: ingested {} != forwarded {} + decimated {}",
                    r.name, rep.ingested, rep.forwarded, rep.decimated
                ));
            }
        }
        for line in bad {
            self.fail(line);
        }
    }

    /// `(tier, subscriber, frames published at that tier, hub statistics)`
    /// for every subscriber of the origin hub and of each relay tier.
    fn subscriber_stats(&self) -> Vec<(&'static str, String, u64, MonitorStats)> {
        let origin = self.mhub.frames_published();
        let mut out: Vec<_> = self
            .mhub
            .stats()
            .into_iter()
            .map(|(name, s)| ("origin", name, origin, s))
            .collect();
        for (i, r) in self.relays.iter().enumerate() {
            let forwarded = r.hub.report().forwarded;
            let children = self
                .relays
                .iter()
                .filter(|c| c.parent == Some(i))
                .map(|c| c.name)
                .chain(
                    self.viewers
                        .iter()
                        .filter(|v| v.relay == Some(i))
                        .map(|v| v.name),
                );
            for child in children {
                let s = r.hub.stats_of_child(child).unwrap_or_default();
                out.push((r.name, child.to_string(), forwarded, s));
            }
        }
        out
    }

    /// Per-subscriber hub statistics summed over every tier.
    pub fn monitor_totals(&self) -> MonitorStats {
        let mut t = MonitorStats::default();
        for (_, _, _, s) in self.subscriber_stats() {
            t.delivered += s.delivered;
            t.decimated += s.decimated;
            t.filtered += s.filtered;
            t.errors += s.errors;
            t.shed += s.shed;
        }
        t
    }

    /// Frames published at the origin hub.
    pub fn frames_published(&self) -> u64 {
        self.mhub.frames_published()
    }

    /// Relay accounting summed over tiers.
    pub fn relay_totals(&self) -> gridsteer_bus::RelayReport {
        let mut t = gridsteer_bus::RelayReport::default();
        for r in &self.relays {
            let rep = r.hub.report();
            t.ingested += rep.ingested;
            t.forwarded += rep.forwarded;
            t.decimated += rep.decimated;
            t.shed += rep.shed;
            t.keyframes_served += rep.keyframes_served;
        }
        t
    }

    /// `(offered, delivered, dropped)` over every netsim link.
    pub fn link_totals(&self) -> (u64, u64, u64) {
        let stats = self
            .viewers
            .iter()
            .map(|v| v.link.stats())
            .chain(self.relays.iter().map(|r| r.uplink.stats()));
        let (mut delivered, mut dropped) = (0, 0);
        for s in stats {
            delivered += s.delivered;
            dropped += s.dropped;
        }
        (delivered + dropped, delivered, dropped)
    }

    /// Audit-log entries held by the session shards.
    pub fn session_events(&self) -> u64 {
        self.sessions.iter().map(|s| s.events().len() as u64).sum()
    }

    /// Bytes one LBM step reads and writes, computed from the array sizes
    /// of its three passes (0 for PEPC).
    pub fn lbm_bytes_per_step(&self) -> u64 {
        match &self.sim {
            Sim::Lbm(s) => {
                let (nx, ny, nz) = s.dims();
                let n = (nx * ny * nz) as u64;
                let q = lbm::Q as u64;
                // density: read fa, fb; write rho_a, rho_b
                // velocity: read fa, fb, rho_a, rho_b; write 6 velocity arrays
                // stream+collide: read fa, fb, 2 rho, 6 u; write fa_new, fb_new
                8 * n * ((2 * q + 2) + (2 * q + 2 + 6) + (2 * q + 8 + 2 * q))
            }
            Sim::Pepc(_) => 0,
        }
    }
}
