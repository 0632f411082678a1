//! Cross-crate integration tests: each exercises a full path through
//! several subsystems, mirroring the paper's demonstrations.

use gridsteer::bus::{BusSteeringService, SteerHub};
use gridsteer::covise::{
    CollabSession, Controller, IsoSurface, ModuleId, ReadField, Renderer, SyncMode,
};
use gridsteer::lbm::{LbmConfig, TwoFluidLbm};
use gridsteer::netsim::{Link, NetModel};
use gridsteer::ogsa::{HostingEnv, Registry, SdeValue, VisControl, VisService};
use gridsteer::pepc::{PepcConfig, PepcSim};
use gridsteer::steer_core::{
    ClientHandle, CollabServer, LoopBudget, LoopMonitor, Migrator, ParamRegistry, ParamSpec,
    ParamValue, SteerTarget, SteeringSession,
};
use gridsteer::unicore::{
    Ajo, CertAuthority, Gateway, Njs, ProxySessionId, Task, TrustStore, Tsi, UnicoreClient,
    VisitProxyServer,
};
use gridsteer::visit::vbroker::ViewerId;
use gridsteer::visit::{MemLink, Password, SteeringClient, VBroker, VisServer, VisitValue};
use gridsteer::viz::mc;
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Duration;

/// F1 smoke: simulation → sample → isosurface → render → compressed frame,
/// with a live steer changing the physics along the way.
#[test]
fn figure1_pipeline_end_to_end() {
    let mut sim = TwoFluidLbm::new(LbmConfig::small());
    sim.set_miscibility(0.0);
    sim.step_n(40);
    let phi = sim.order_parameter();
    let mesh = mc::isosurface_smooth(&phi, 0.0);
    assert!(!mesh.is_empty(), "demixed fluid must have an interface");
    let mut r = gridsteer::viz::Rasterizer::new(64, 64);
    r.clear([0, 0, 0, 255]);
    let cam = gridsteer::viz::Camera::look_at(
        gridsteer::viz::Vec3::new(6.0, 18.0, -14.0),
        gridsteer::viz::Vec3::new(5.5, 5.5, 5.5),
    );
    r.draw_mesh(&cam, &mesh, [200, 80, 80, 255]);
    let mut codec = gridsteer::viz::DeltaRleCodec::new();
    let key = codec.encode(r.framebuffer());
    assert!(key.wire_size() > 0);
    // inter-frame coherence is where VizServer-style shipping wins: a
    // second frame of the same scene collapses to a tiny delta
    let delta = codec.encode(r.framebuffer());
    assert!(
        delta.wire_size() < key.raw_size / 50,
        "delta {} vs raw {}",
        delta.wire_size(),
        key.raw_size
    );
}

/// The full VISIT steering loop between two threads: the simulation is the
/// client; a queued parameter reaches it; it reacts.
#[test]
fn visit_steering_changes_running_lbm() {
    const TAG_MISC: u32 = 2;
    // the solver is built before the server starts its idle clock, so the
    // first request leaves right after the connect, not after a debug-build
    // constructor has eaten the server's idle window
    let mut sim = TwoFluidLbm::new(LbmConfig::small());
    let (sim_link, vis_link) = MemLink::pair();
    let pw = Password::Keyed("job".into());
    let vis = std::thread::spawn(move || {
        let mut server = VisServer::accept(
            vis_link,
            &Password::Keyed("job".into()),
            9,
            Duration::from_secs(2),
        )
        .unwrap();
        server.queue_param(TAG_MISC, VisitValue::F64(vec![0.0]));
        server.serve_until_idle(Duration::from_millis(50), 4);
        server
    });
    let mut client = SteeringClient::connect(sim_link, &pw, 9, Duration::from_secs(2)).unwrap();
    for _ in 0..3 {
        if let Ok(Some(VisitValue::F64(v))) = client.request(TAG_MISC) {
            sim.set_miscibility(v[0]);
        }
        sim.step_n(2);
    }
    client.close();
    assert_eq!(sim.miscibility(), 0.0, "steer never arrived");
    vis.join().unwrap();
}

/// UNICORE path with an actual simulation installed as the application:
/// consign → incarnate → run LB steps inside the TSI → fetch the result.
#[test]
fn unicore_job_runs_simulation_and_spools_result() {
    let ca = CertAuthority::new("CA", 1);
    let mut trust = TrustStore::new();
    trust.trust(&ca);
    let (cert, key) = ca.issue("CN=porter");
    let mut tsi = Tsi::with_builtins();
    tsi.install_app(
        "lbm",
        Arc::new(
            |args: &[String], dir: &mut std::collections::BTreeMap<String, Vec<u8>>| {
                let steps: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(10);
                let mut sim = TwoFluidLbm::new(LbmConfig::small());
                sim.set_miscibility(0.0);
                sim.step_n(steps);
                dir.insert(
                    "output.dat".into(),
                    format!("{:.6e}", sim.demix_metric()).into_bytes(),
                );
                Ok(format!("ran {steps} steps"))
            },
        ),
    );
    let mut gw = Gateway::new("gw", trust);
    gw.add_vsite(Njs::new("csar", tsi));
    let client = UnicoreClient::new(cert, key);
    let mut ajo = Ajo::new("lbm-batch", "csar");
    let run = ajo.add_task(
        Task::Execute {
            command: "lbm".into(),
            args: vec!["20".into()],
        },
        &[],
    );
    ajo.add_task(
        Task::StageOut {
            path: "output.dat".into(),
        },
        &[run],
    );
    let id = client.consign(&mut gw, ajo).unwrap();
    client.run_queued(&mut gw, "csar").unwrap();
    let files = client.fetch(&mut gw, "csar", id).unwrap();
    let metric: f64 = String::from_utf8(files[0].1.clone())
        .unwrap()
        .parse()
        .unwrap();
    assert!(metric > 0.0, "simulation produced no demixing metric");
}

/// The Figure-2 flow against a *live* simulation: a steering service and a
/// visualization service published in one registry, discovered by port
/// type and bound; the steer commits at a step boundary, and both the
/// physics and the visualization respond.
#[test]
fn ogsa_service_steers_live_simulation() {
    let mut sim = TwoFluidLbm::new(LbmConfig::small());
    let hub = SteerHub::new(TwoFluidLbm::specs());
    let vis = Arc::new(Mutex::new(VisControl::default()));
    let mut env = HostingEnv::new();
    let reg = env.host("registry", Box::new(Registry::new()), None);
    let steer_gsh = env.host(
        "steer",
        Box::new(BusSteeringService::new(&hub, "client")),
        Some(300),
    );
    let vis_gsh = env.host("vis", Box::new(VisService::new(vis.clone())), Some(300));
    for (gsh, port) in [
        (&steer_gsh, BusSteeringService::PORT_TYPE),
        (&vis_gsh, VisService::PORT_TYPE),
    ] {
        let entry = [gsh.clone(), port.into(), "LB demo".into()].map(SdeValue::Str);
        env.invoke(&reg, "publish", &entry).unwrap();
    }
    // client side: discover each service by its port type and bind it
    let mut discover = |port: &str| {
        let found = env
            .invoke(&reg, "discover", &[SdeValue::Str(port.into())])
            .unwrap();
        found.first().unwrap().as_list().unwrap()[0].clone()
    };
    let steer = discover(BusSteeringService::PORT_TYPE);
    let vis_handle = discover(VisService::PORT_TYPE);
    assert_eq!((&steer, &vis_handle), (&steer_gsh, &vis_gsh));
    let batch = [
        SdeValue::Str("miscibility".into()),
        SdeValue::Str("f64".into()),
        SdeValue::F64(0.25),
    ];
    assert!(env.invoke(&steer, "setBatch", &batch).unwrap().is_ok());
    assert!(env
        .invoke(&vis_handle, "setIsovalue", &[SdeValue::F64(0.3)])
        .unwrap()
        .is_ok());
    // staged, not applied: the steer waits for the next step boundary
    assert_eq!((hub.pending(), sim.miscibility()), (1, 1.0));
    let registry = hub.registry();
    let committed = hub.commit_with(|_, cmd| {
        let applied = registry.set_value(&cmd.param, &cmd.value)?;
        sim.write(&cmd.param, &applied)?;
        Ok(applied)
    });
    assert_eq!((committed.applied, committed.refused), (1, 0));
    sim.step();
    assert_eq!(sim.miscibility(), 0.25);
    assert_eq!(hub.get("miscibility"), Some(ParamValue::F64(0.25)));
    assert_eq!(vis.lock().isovalue, 0.3);
}

/// Multi-process-shaped TCP steering with a real simulation thread: the
/// repro hint's "multi-client steering server" scenario.
#[test]
fn tcp_steering_server_drives_simulation_thread() {
    let sim = Arc::new(Mutex::new(TwoFluidLbm::new(LbmConfig::small())));
    let mut reg = ParamRegistry::new();
    reg.declare(ParamSpec::f64("miscibility", 0.0, 1.0, 1.0));
    let session = Arc::new(Mutex::new(SteeringSession::new(reg)));
    let server = CollabServer::start(session.clone()).unwrap();
    let addr = server.addr().to_string();
    // simulation thread applies the registry value each step
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let sim_thread = {
        let (sim, session, stop) = (sim.clone(), session.clone(), stop.clone());
        std::thread::spawn(move || {
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                let m = session
                    .lock()
                    .params
                    .get_value("miscibility")
                    .and_then(|v| v.as_f64())
                    .unwrap();
                let mut s = sim.lock();
                s.set_miscibility(m);
                s.step();
                drop(s);
                std::thread::sleep(Duration::from_millis(2));
            }
        })
    };
    let mut master = ClientHandle::connect(&addr, "master").unwrap();
    let mut viewer = ClientHandle::connect(&addr, "viewer").unwrap();
    master.set("miscibility", 0.05).unwrap();
    assert!(viewer.set("miscibility", 0.5).is_err());
    // wait for the simulation to pick the steer up
    let deadline = std::time::Instant::now() + Duration::from_secs(2);
    loop {
        if (sim.lock().miscibility() - 0.05).abs() < 1e-12 {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "steer never applied");
        std::thread::sleep(Duration::from_millis(5));
    }
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    sim_thread.join().unwrap();
}

/// Migration keeps a steering session live and within the §4.4 budget.
#[test]
fn migration_mid_session_stays_in_budget() {
    let (net, ids) = NetModel::sc2003();
    let migrator = Migrator::new(&net);
    let mut sim = TwoFluidLbm::new(LbmConfig::small());
    sim.set_miscibility(0.2);
    sim.step_n(5);
    let before = sim.steps();
    let (mut sim, report) = migrator.migrate(sim, ids["london"], ids["manchester"]);
    sim.step_n(5);
    assert_eq!(sim.steps(), before + 5);
    assert_eq!(sim.miscibility(), 0.2);
    let mut monitor = LoopMonitor::new(LoopBudget::Simulation);
    monitor.record(report.frame_gap);
    assert!(monitor.report().within_budget, "gap {}", report.frame_gap);
}

/// Three-site COVISE collaboration over PEPC-derived content stays
/// consistent across a master handoff (the F4 scenario, small).
#[test]
fn covise_collab_consistent_over_pepc_field() {
    // derive a density field from a PEPC snapshot
    let mut pepc = PepcSim::new(PepcConfig::small());
    pepc.step_n(3);
    let snap = pepc.snapshot();
    let n = 10usize;
    let mut field = gridsteer::viz::Field3::zeros(n, n, n);
    for p in &snap.positions {
        let q = |v: f32| (((v + 1.5) / 3.0).clamp(0.0, 0.999) * n as f32) as usize;
        let (x, y, z) = (q(p[0]), q(p[1]), q(p[2]));
        let cur = field.get(x, y, z);
        field.set(x, y, z, cur + 1.0);
    }
    let build = move |ctl: &mut Controller, host: usize| {
        let read = ctl.add_module(host, Box::new(ReadField::new(field.clone())));
        let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
        let render = ctl.add_module(host, Box::new(Renderer::new(32)));
        ctl.connect(read, "field", iso, "field").unwrap();
        ctl.connect(iso, "mesh", render, "mesh").unwrap();
        ctl.set_param(iso, "isovalue", 0.5);
        render
    };
    let mut session = CollabSession::new(
        &["juelich", "manchester", "phoenix"],
        SyncMode::ParamSync,
        build,
        |i| {
            if i == 2 {
                Link::transatlantic()
            } else {
                Link::gwin()
            }
        },
    );
    session.warm_up().unwrap();
    let r = session.change_param(ModuleId(1), "isovalue", 1.5).unwrap();
    assert!(r.consistent);
    assert!(session.pass_master(0, 1));
    let r = session.change_param(ModuleId(1), "isovalue", 2.5).unwrap();
    assert!(r.consistent);
}

/// The master rule of §3.3/§4.3 as each collaborative code exposes it,
/// over participants numbered in arrival order.
trait MasterRule {
    /// One more participant; returns its number.
    fn arrive(&mut self) -> usize;
    /// Participant `who` leaves (false: this code has fixed members).
    fn depart(&mut self, who: usize) -> bool;
    /// `from` hands the token to `to`.
    fn pass(&mut self, from: usize, to: usize) -> bool;
    /// The holder's number.
    fn master(&self) -> Option<usize>;
}

/// Numbers to ids for the codes that hand out their own ids.
fn id_of<Id: Copy>(ids: &[Id], who: usize, absent: Id) -> Id {
    ids.get(who).copied().unwrap_or(absent)
}

fn number_of<Id: PartialEq>(ids: &[Id], id: Option<Id>) -> Option<usize> {
    ids.iter().position(|i| Some(i) == id.as_ref())
}

struct Broker(VBroker<MemLink, MemLink>, Vec<ViewerId>);

impl MasterRule for Broker {
    fn arrive(&mut self) -> usize {
        self.1.push(self.0.attach(MemLink::pair().0));
        self.1.len() - 1
    }
    fn depart(&mut self, who: usize) -> bool {
        self.0.detach(self.1[who]);
        true
    }
    fn pass(&mut self, from: usize, to: usize) -> bool {
        let absent = ViewerId(u32::MAX);
        let (from, to) = (id_of(&self.1, from, absent), id_of(&self.1, to, absent));
        self.0.pass_master(from, to)
    }
    fn master(&self) -> Option<usize> {
        number_of(&self.1, self.0.master())
    }
}

struct Proxy(VisitProxyServer<MemLink>, Vec<ProxySessionId>);

impl MasterRule for Proxy {
    fn arrive(&mut self) -> usize {
        self.1.push(self.0.attach("u"));
        self.1.len() - 1
    }
    fn depart(&mut self, who: usize) -> bool {
        self.0.detach("u", self.1[who]);
        true
    }
    fn pass(&mut self, from: usize, to: usize) -> bool {
        let absent = ProxySessionId(u64::MAX);
        let (from, to) = (id_of(&self.1, from, absent), id_of(&self.1, to, absent));
        self.0.pass_master("u", from, to) == Some(true)
    }
    fn master(&self) -> Option<usize> {
        number_of(&self.1, self.0.master())
    }
}

/// The session's participants are named by number; an absent one is an
/// index past the end.
struct Session(SteeringSession, usize);

impl MasterRule for Session {
    fn arrive(&mut self) -> usize {
        self.0.join(&self.1.to_string());
        self.1 += 1;
        self.1 - 1
    }
    fn depart(&mut self, who: usize) -> bool {
        self.0.leave_by_name(&who.to_string());
        true
    }
    fn pass(&mut self, from: usize, to: usize) -> bool {
        let index = |who: usize| self.0.index_of(&who.to_string()).unwrap_or(usize::MAX);
        let (from, to) = (index(from), index(to));
        self.0.pass_master(from, to)
    }
    fn master(&self) -> Option<usize> {
        let m = self.0.participant(self.0.master()?)?;
        m.name.parse().ok()
    }
}

/// COVISE's sites are fixed at construction: an arrival is the next site.
struct Covise(CollabSession, usize);

impl MasterRule for Covise {
    fn arrive(&mut self) -> usize {
        self.1 += 1;
        self.1 - 1
    }
    fn depart(&mut self, _: usize) -> bool {
        false
    }
    fn pass(&mut self, from: usize, to: usize) -> bool {
        self.0.pass_master(from, to)
    }
    fn master(&self) -> Option<usize> {
        Some(self.0.master())
    }
}

/// One step of a master-rule case.
enum Op {
    Pass(usize, usize),
    Depart(usize),
}

const ABSENT: usize = 99;

/// Each case starts from participants 0, 1, 2 arriving in order; each
/// step names the holder after it. A pass must report whether the token
/// moved.
const MASTER_RULE_CASES: &[(&str, &[(Op, usize)])] = &[
    ("the first arrival holds the token", &[]),
    (
        "a pass from a non-holder is refused",
        &[(Op::Pass(1, 2), 0)],
    ),
    (
        "a pass to an absent id is refused",
        &[(Op::Pass(0, ABSENT), 0)],
    ),
    ("a pass to oneself is refused", &[(Op::Pass(0, 0), 0)]),
    ("the holder passes the token", &[(Op::Pass(0, 2), 2)]),
    (
        "a departing holder's token goes to the longest present",
        &[(Op::Pass(0, 2), 2), (Op::Depart(2), 0), (Op::Depart(0), 1)],
    ),
];

/// A fresh instance of each collaborative code, with nobody arrived.
fn master_rules() -> [(&'static str, Box<dyn MasterRule>); 4] {
    let (_, sim) = MemLink::pair();
    let proxy = VisitProxyServer::new("s", sim, Password::Open, 0);
    let build = |ctl: &mut Controller, host: usize| {
        let field = gridsteer::viz::Field3::zeros(2, 2, 2);
        let read = ctl.add_module(host, Box::new(ReadField::new(field)));
        let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
        let render = ctl.add_module(host, Box::new(Renderer::new(8)));
        ctl.connect(read, "field", iso, "field").unwrap();
        ctl.connect(iso, "mesh", render, "mesh").unwrap();
        render
    };
    let sites = ["a", "b", "c"];
    let covise = CollabSession::new(&sites, SyncMode::ParamSync, build, |_| Link::gwin());
    [
        (
            "vbroker",
            Box::new(Broker(VBroker::new(MemLink::pair().0), Vec::new())),
        ),
        ("unicore proxy", Box::new(Proxy(proxy, Vec::new()))),
        (
            "steering session",
            Box::new(Session(SteeringSession::new(ParamRegistry::new()), 0)),
        ),
        ("covise", Box::new(Covise(covise, 0))),
    ]
}

#[test]
fn one_master_rule_across_the_collaborative_codes() {
    for (case, steps) in MASTER_RULE_CASES {
        for (code, mut rule) in master_rules() {
            assert_eq!([rule.arrive(), rule.arrive(), rule.arrive()], [0, 1, 2]);
            assert_eq!(rule.master(), Some(0), "{code}: {case}");
            for (op, holder) in steps.iter() {
                let before = rule.master();
                match *op {
                    Op::Pass(from, to) => {
                        let moved = rule.pass(from, to);
                        assert_eq!(moved, before != Some(*holder), "{code}: {case}");
                    }
                    Op::Depart(who) => {
                        if !rule.depart(who) {
                            break;
                        }
                    }
                }
                assert_eq!(rule.master(), Some(*holder), "{code}: {case}");
            }
        }
    }
}
