//! The experiment table ([`EXPERIMENTS`]) and the function behind each row.

use crate::{fnv_fold, FNV_OFFSET};
use covise::{
    CollabSession, Controller, CutPlane, IsoSurface, ModuleId, ReadField, Renderer, SyncMode,
};
use gridsteer_bus::{
    BusSteeringService, ParamSpec as BusParamSpec, SteerCommand, SteerHub, Transport,
};
use gridsteer_harness::Scenario;
use lbm::{LbmConfig, TwoFluidLbm};
use netsim::{Link, NetModel, SimTime};
use ogsa::{HostingEnv, Registry, SdeValue, VisControl, VisService};
use pepc::{direct_forces, Octree, PepcConfig, PepcSim, TreeConfig};
use serde::Serialize;
use std::path::Path;
use std::time::{Duration, Instant};
use steer_core::{LoopBudget, Migrator, SteerTarget};
use visit::link::FrameLink;
use visit::{Frame, MemLink, MsgKind, Password, SteeringClient, VBroker, VisitValue};
use viz::codec::DeltaRleCodec;
use viz::{mc, Camera, Rasterizer, Vec3};

/// One row of the experiment table: everything `gridsteer_bench exp`
/// knows about an experiment before running it.
pub struct Experiment {
    /// What `exp <id>` takes and `EXP_<id>.json` is named after.
    pub id: &'static str,
    /// One line on what it measures: the header printed above its rows,
    /// and its line in `exp list`.
    pub summary: &'static str,
    /// Runs it and returns the rows.
    pub rows: fn() -> Vec<String>,
}

impl Experiment {
    /// Run the experiment and print its id, summary and rows.
    pub fn run(&self) -> ExpResult {
        let t0 = Instant::now();
        let rows = (self.rows)();
        let wall = t0.elapsed();
        println!("== {} ==", self.id);
        println!("{}", self.summary);
        for r in &rows {
            println!("{r}");
        }
        println!();
        ExpResult {
            id: self.id,
            wall,
            rows,
        }
    }
}

/// The file [`ExpResult::write_json`] writes for experiment `id`.
pub fn json_name(id: &str) -> String {
    format!("EXP_{id}.json")
}

/// What one run of an [`Experiment`] printed.
pub struct ExpResult {
    /// The table row's id.
    pub id: &'static str,
    /// Wall time of the whole experiment.
    pub wall: Duration,
    /// The rows, as printed to stdout.
    pub rows: Vec<String>,
}

#[derive(Serialize)]
struct JsonCell {
    /// The printed row (most rows embed their own timing measurements).
    row: String,
    /// FNV-1a 64 of the row text.
    digest: String,
}

#[derive(Serialize)]
struct JsonReport {
    id: String,
    /// Wall time of the whole experiment, in milliseconds.
    wall_ms: f64,
    /// FNV-1a 64 over all rows (same value as [`ExpResult::digest`]).
    digest: String,
    cells: Vec<JsonCell>,
}

impl ExpResult {
    /// FNV-1a 64 over the newline-joined rows, exactly as printed. For
    /// deterministic experiments (e.g. E50, whose rows carry virtual-clock
    /// numbers and scenario digests) this is a stable fingerprint a later
    /// PR can diff for output drift; rows that embed wall-clock timings
    /// legitimately change it run to run.
    pub fn digest(&self) -> u64 {
        self.rows.iter().fold(FNV_OFFSET, |h, row| {
            fnv_fold(fnv_fold(h, row.as_bytes()), b"\n")
        })
    }

    /// Write `EXP_<id>.json` into `dir`: the wall time, every row with its
    /// own digest, and the overall digest.
    pub fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        let report = JsonReport {
            id: self.id.to_string(),
            wall_ms: self.wall.as_secs_f64() * 1e3,
            digest: format!("{:016x}", self.digest()),
            cells: (self.rows.iter())
                .map(|row| JsonCell {
                    row: row.clone(),
                    digest: format!("{:016x}", fnv_fold(FNV_OFFSET, row.as_bytes())),
                })
                .collect(),
        };
        let body = serde_json::to_string(&report).expect("experiment report serializes");
        std::fs::write(dir.join(json_name(self.id)), body + "\n")
    }
}

fn sphere_pipeline(
    field: viz::Field3,
    res: usize,
) -> (Controller, covise::RequestBroker, ModuleId, ModuleId) {
    let mut rb = covise::RequestBroker::new();
    let host = rb.add_host("local", covise::broker::HostArch::Little);
    let mut ctl = Controller::new();
    let read = ctl.add_module(host, Box::new(ReadField::new(field)));
    let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
    let render = ctl.add_module(host, Box::new(Renderer::new(res)));
    ctl.connect(read, "field", iso, "field").unwrap();
    ctl.connect(iso, "mesh", render, "mesh").unwrap();
    (ctl, rb, read, render)
}

/// F1 — the RealityGrid Figure-1 pipeline across three sites. Every stage
/// (LBM step, isosurface, raster, codec) dispatches on one shared executor
/// pool — no thread spawning anywhere in the loop.
pub fn exp_f1_realitygrid() -> Vec<String> {
    let pool = gridsteer_exec::global();
    let (net, ids) = NetModel::sc2003();
    let compute = ids["london"];
    let vis = ids["manchester"];
    let client = ids["sheffield"];
    let mut sim = TwoFluidLbm::with_pool(
        LbmConfig {
            nx: 24,
            ny: 24,
            nz: 24,
            ..Default::default()
        },
        pool.clone(),
    );
    let mut codec = DeltaRleCodec::new();
    let mut rows = Vec::new();
    for round in 0..6 {
        if round == 3 {
            sim.set_miscibility(0.0);
            rows.push("steer: miscibility -> 0.0 (client -> compute, virtual RTT charged)".into());
        }
        sim.step_n(10);
        let phi = sim.order_parameter();
        // sample: compute → vis over Janet
        let l1 = net.link(compute, vis);
        let t_sample = l1.nominal_arrival(SimTime::ZERO, phi.byte_size());
        // isosurface + render at the vis site (wall)
        let t0 = Instant::now();
        let mesh = mc::isosurface_smooth_with(&pool, &phi, 0.0);
        let mut r = Rasterizer::new(256, 256);
        r.clear([10, 10, 30, 255]);
        let cam = Camera::look_at(Vec3::new(30.0, 30.0, -28.0), Vec3::new(11.5, 11.5, 11.5));
        r.draw_mesh_with(&pool, &cam, &mesh, [200, 90, 60, 255]);
        let wall = t0.elapsed();
        // compressed bitmap: vis → client
        let frame = codec.encode_with(&pool, r.framebuffer());
        let l2 = net.link(vis, client);
        let t_frame = l2.nominal_arrival(SimTime::ZERO, frame.wire_size());
        rows.push(format!(
            "step {:3}: sample {} B -> vis in {}, {} tris, render {:?}, frame {} B -> laptop in {}",
            sim.steps(),
            phi.byte_size(),
            t_sample,
            mesh.tri_count(),
            wall,
            frame.wire_size(),
            t_frame
        ));
    }
    // steering round trip client → compute
    let rtt = net.rtt(client, compute);
    rows.push(format!("steering round trip (sheffield <-> london): {rtt}"));
    rows
}

/// F2 — the Figure-2 flow: a bus steering service and a visualization
/// service published in one registry, discovered by port type, bound and
/// steered; the staged steers land in the live LBM at a step boundary.
pub fn exp_f2_ogsa_service() -> Vec<String> {
    let mut sim = TwoFluidLbm::new(LbmConfig::small());
    let hub = SteerHub::new(TwoFluidLbm::specs());
    let vis_state = std::sync::Arc::new(parking_lot::Mutex::new(VisControl::default()));
    let mut env = HostingEnv::new();
    let reg = env.host("registry", Box::new(Registry::new()), None);
    let steer = env.host(
        "steer",
        Box::new(BusSteeringService::new(&hub, "client")),
        Some(600),
    );
    let viss = env.host(
        "vis",
        Box::new(VisService::new(vis_state.clone())),
        Some(600),
    );
    for (h, t) in [
        (&steer, BusSteeringService::PORT_TYPE),
        (&viss, VisService::PORT_TYPE),
    ] {
        env.invoke(
            &reg,
            "publish",
            &[
                SdeValue::Str(h.clone()),
                SdeValue::Str(t.into()),
                SdeValue::Str("".into()),
            ],
        )
        .unwrap();
    }
    let mut rows = Vec::new();
    let t0 = Instant::now();
    let found = env
        .invoke(
            &reg,
            "discover",
            &[SdeValue::Str(BusSteeringService::PORT_TYPE.into())],
        )
        .unwrap();
    let handle = found.first().unwrap().as_list().unwrap()[0].clone();
    rows.push(format!(
        "discover: 1 steering service found in {:?}",
        t0.elapsed()
    ));
    let t0 = Instant::now();
    for k in 0..100 {
        env.invoke(
            &handle,
            "setBatch",
            &[
                SdeValue::Str("miscibility".into()),
                SdeValue::Str("f64".into()),
                SdeValue::F64((k % 10) as f64 / 10.0),
            ],
        )
        .unwrap();
    }
    rows.push(format!(
        "100 setBatch invocations: {:?} total ({:?}/op)",
        t0.elapsed(),
        t0.elapsed() / 100
    ));
    // the step boundary: the staged batches commit in staging order
    // through the registry's bounds and into the live simulation
    let registry = hub.registry();
    let committed = hub.commit_with(|_, cmd| {
        let applied = registry.set_value(&cmd.param, &cmd.value)?;
        sim.write(&cmd.param, &applied)?;
        Ok(applied)
    });
    sim.step();
    env.invoke(&viss, "setIsovalue", &[SdeValue::F64(0.25)])
        .unwrap();
    rows.push(format!(
        "vis service steered: isovalue={}, sim steered: miscibility={} ({} commands committed before step {})",
        vis_state.lock().isovalue,
        sim.miscibility(),
        committed.applied,
        sim.steps()
    ));
    // soft state: unextended services die
    let dead = env.sweep(601);
    rows.push(format!(
        "soft-state sweep after 601 s reaped {} services",
        dead.len()
    ));
    rows
}

/// F3 — PEPC shipped through VISIT: frames, bytes, beam steering effect.
pub fn exp_f3_pepc_visit() -> Vec<String> {
    const TAG_SNAP: u32 = 1;
    const TAG_BEAM: u32 = 2;
    let (sim_link, vis_link) = MemLink::pair();
    let pw = Password::Open;
    let server = std::thread::spawn(move || {
        let mut s =
            visit::VisServer::accept(vis_link, &Password::Open, 0, Duration::from_secs(2)).unwrap();
        s.queue_param(TAG_BEAM, VisitValue::F64(vec![2.0, 0.0, 0.0, 1.0]));
        s.serve_until_idle(Duration::from_millis(60), 5);
        s.stats()
    });
    let mut client = SteeringClient::connect(sim_link, &pw, 0, Duration::from_secs(2)).unwrap();
    let mut sim = PepcSim::new(PepcConfig {
        n_target: 800,
        ..PepcConfig::small()
    });
    sim.inject_beam(50, 0.5);
    let mut rows = Vec::new();
    for round in 0..6 {
        sim.step_n(2);
        let snap = sim.snapshot();
        let flat: Vec<f32> = snap.positions.iter().flatten().copied().collect();
        client.send(TAG_SNAP, VisitValue::F32(flat)).unwrap();
        if round == 2 {
            if let Ok(Some(VisitValue::F64(v))) = client.request(TAG_BEAM) {
                let mut p = sim.params();
                p.beam_intensity = v[0];
                p.beam_dir = [v[1], v[2], v[3]];
                sim.set_params(p);
                rows.push("steer applied: beam on, direction +z".into());
            }
        }
        let c = sim.beam_centroid().unwrap();
        rows.push(format!(
            "step {:2}: snapshot {} B ({} particles, {} domains), beam centroid z = {:+.3}",
            sim.step_count(),
            snap.byte_size(),
            snap.positions.len(),
            snap.domains.len(),
            c[2]
        ));
    }
    let st = client.stats();
    client.close();
    drop(client);
    let sst = server.join().unwrap();
    rows.push(format!(
        "sim-side: {} sends / {} requests, {:?} inside VISIT; vis-side received {} frames / {} B",
        st.sends, st.requests, st.time_in_calls, sst.data_frames, sst.bytes_received
    ));
    rows
}

/// F4 — AG/COVISE collaborative session: skew + consistency vs site count.
pub fn exp_f4_ag_covise() -> Vec<String> {
    let field = demo_field(20);
    let mut rows = Vec::new();
    for n in [2usize, 4, 8, 16] {
        let names: Vec<String> = (0..n).map(|i| format!("site{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let f = field.clone();
        let mut session = CollabSession::new(
            &refs,
            SyncMode::ParamSync,
            move |ctl, host| standard_pipeline(ctl, host, f.clone(), 64),
            |i| {
                if i % 3 == 2 {
                    Link::transatlantic()
                } else {
                    Link::gwin()
                }
            },
        );
        session.warm_up().unwrap();
        let r = session.change_param(ModuleId(1), "isovalue", 0.5).unwrap();
        rows.push(format!(
            "{n:2} sites: skew {} | {} B sync traffic | consistent = {}",
            r.skew, r.bytes_sent, r.consistent
        ));
    }
    rows
}

fn demo_field(n: usize) -> viz::Field3 {
    let c = (n as f32 - 1.0) / 2.0;
    viz::Field3::from_fn(n, n, n, |x, y, z| {
        (n as f32 / 3.0)
            - ((x as f32 - c).powi(2) + (y as f32 - c).powi(2) + (z as f32 - c).powi(2)).sqrt()
    })
}

fn standard_pipeline(
    ctl: &mut Controller,
    host: usize,
    field: viz::Field3,
    res: usize,
) -> ModuleId {
    let read = ctl.add_module(host, Box::new(ReadField::new(field)));
    let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
    let render = ctl.add_module(host, Box::new(Renderer::new(res)));
    ctl.connect(read, "field", iso, "field").unwrap();
    ctl.connect(iso, "mesh", render, "mesh").unwrap();
    render
}

/// E42 — rendering feedback loop: remote round trip vs local redraw.
pub fn exp_e42_render_loop() -> Vec<String> {
    let field = demo_field(24);
    let mesh = mc::isosurface_smooth(&field, 0.0);
    // measure one local redraw (wall)
    let render_once = || {
        let mut r = Rasterizer::new(512, 512);
        r.clear([0, 0, 0, 255]);
        let cam = Camera::look_at(Vec3::new(30.0, 30.0, -28.0), Vec3::new(11.5, 11.5, 11.5));
        r.draw_mesh(&cam, &mesh, [200, 90, 60, 255]);
        r.into_framebuffer()
    };
    let t0 = Instant::now();
    let fb = render_once();
    let local_wall = t0.elapsed();
    let mut codec = DeltaRleCodec::new();
    let t0 = Instant::now();
    let frame = codec.encode(&fb);
    let encode_wall = t0.elapsed();
    let mut rows = Vec::new();
    rows.push(format!(
        "local scene-graph redraw: {local_wall:?} ({:.0} fps) — meets VR budget = {}",
        1.0 / local_wall.as_secs_f64(),
        local_wall.as_secs_f64() < 0.1
    ));
    for (name, lat_ms) in [
        ("lan", 1u64),
        ("national", 5),
        ("continental", 18),
        ("transatlantic", 75),
    ] {
        let net_cost = SimTime::from_millis(2 * lat_ms)
            + Link::builder()
                .bandwidth_mbit(100)
                .build()
                .transfer_time(frame.wire_size());
        let total = net_cost.as_secs_f64() + local_wall.as_secs_f64() + encode_wall.as_secs_f64();
        let vr_ok = total < 0.1;
        let desktop_ok = total < 0.333;
        rows.push(format!(
            "remote render over {name} ({lat_ms} ms): {:.1} ms/update ({:.1} fps) — VR {} | desktop {}",
            total * 1e3,
            1.0 / total,
            if vr_ok { "OK" } else { "BUST" },
            if desktop_ok { "OK" } else { "BUST" },
        ));
    }
    rows.push(format!(
        "budgets (paper §4.2): VR <= {} , desktop <= {}",
        LoopBudget::VrRender.budget(),
        LoopBudget::DesktopRender.budget()
    ));
    rows
}

/// E43 — post-processing loop: cutting-plane change, local vs remote.
pub fn exp_e43_postproc_loop() -> Vec<String> {
    let mut rows = Vec::new();
    for n in [16usize, 32, 48] {
        let field = demo_field(n);
        let (mut ctl, mut rb, _read, render) = {
            let mut rb = covise::RequestBroker::new();
            let host = rb.add_host("local", covise::broker::HostArch::Little);
            let mut ctl = Controller::new();
            let read = ctl.add_module(host, Box::new(ReadField::new(field.clone())));
            let cut = ctl.add_module(host, Box::new(CutPlane::new()));
            let iso = ctl.add_module(host, Box::new(IsoSurface::new()));
            let render = ctl.add_module(host, Box::new(Renderer::new(128)));
            ctl.connect(read, "field", cut, "field").unwrap();
            ctl.connect(read, "field", iso, "field").unwrap();
            ctl.connect(iso, "mesh", render, "mesh").unwrap();
            (ctl, rb, read, render)
        };
        ctl.execute(&mut rb).unwrap();
        let t0 = Instant::now();
        ctl.set_param(ModuleId(1), "z_fraction", 0.8);
        ctl.execute(&mut rb).unwrap();
        let local = t0.elapsed();
        let img = ctl.image(&rb, render).unwrap();
        let mut codec = DeltaRleCodec::new();
        let frame = codec.encode(&img);
        let remote_ship = Link::transatlantic().nominal_arrival(SimTime::ZERO, frame.wire_size());
        rows.push(format!(
            "{n:2}^3 field: local recompute {:.1} ms + 32 B sync | remote content ship {} B -> {} | budget 5 s: OK",
            local.as_secs_f64() * 1e3, frame.wire_size(), remote_ship
        ));
    }
    rows
}

/// E44 — simulation feedback loop: steer -> visible change, with budget.
pub fn exp_e44_sim_loop() -> Vec<String> {
    let mut sim = TwoFluidLbm::new(LbmConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        ..Default::default()
    });
    sim.step_n(30); // mixed steady state
    let v0 = sim.demix_metric();
    let t0 = Instant::now();
    sim.set_miscibility(0.0);
    let mut steps = 0;
    while sim.demix_metric() < v0 * 10.0 && steps < 2000 {
        sim.step_n(10);
        steps += 10;
    }
    let wall = t0.elapsed();
    let mut rows = Vec::new();
    rows.push(format!(
        "steer applied -> structures visible (10x variance) after {steps} steps, {wall:?} wall"
    ));
    rows.push(format!(
        "within the 60 s budget of §4.4: {}",
        wall.as_secs_f64() < 60.0
    ));
    rows.push(
        "with intermediate samples every few steps the perceived latency is one sample interval (§4.4 tolerance doubles)".into(),
    );
    rows
}

/// EV1 — VISIT's minimal-load guarantee under responsive/slow/dead servers.
pub fn exp_ev1_visit_overhead() -> Vec<String> {
    let run = |server_kind: &str| -> (Duration, Duration) {
        const TAG: u32 = 1;
        let (sim_link, vis_link) = MemLink::pair();
        let kind = server_kind.to_string();
        let server = std::thread::spawn(move || match kind.as_str() {
            "responsive" => {
                let mut s =
                    visit::VisServer::accept(vis_link, &Password::Open, 0, Duration::from_secs(2))
                        .unwrap();
                s.serve_until_idle(Duration::from_millis(40), 8);
            }
            "dead-after-accept" => {
                let mut s =
                    visit::VisServer::accept(vis_link, &Password::Open, 0, Duration::from_secs(2))
                        .unwrap();
                // accept then vanish: never dispatch again
                let _ = s.link_mut();
                std::thread::sleep(Duration::from_millis(300));
            }
            _ => unreachable!(),
        });
        let mut client =
            SteeringClient::connect(sim_link, &Password::Open, 0, Duration::from_millis(20))
                .unwrap();
        let mut sim = TwoFluidLbm::new(LbmConfig {
            nx: 10,
            ny: 10,
            nz: 10,
            threads: 2,
            ..Default::default()
        });
        let t0 = Instant::now();
        for _ in 0..10 {
            sim.step();
            let phi = sim.order_parameter();
            let _ = client.send(TAG, VisitValue::F32(phi.data().to_vec()));
            let _ = client.request(TAG); // may time out: bounded by 20 ms
        }
        let total = t0.elapsed();
        let in_calls = client.stats().time_in_calls;
        client.close();
        drop(client);
        let _ = server.join();
        (total, in_calls)
    };
    let mut rows = Vec::new();
    let (base, _) = {
        // baseline: no visualization attached at all
        let mut sim = TwoFluidLbm::new(LbmConfig {
            nx: 10,
            ny: 10,
            nz: 10,
            threads: 2,
            ..Default::default()
        });
        let t0 = Instant::now();
        for _ in 0..10 {
            sim.step();
            let _ = sim.order_parameter();
        }
        (t0.elapsed(), Duration::ZERO)
    };
    rows.push(format!(
        "baseline (no steering attached): {base:?} for 10 steps"
    ));
    for kind in ["responsive", "dead-after-accept"] {
        let (total, in_calls) = run(kind);
        rows.push(format!(
            "{kind}: {total:?} total, {in_calls:?} inside VISIT calls, overhead bounded by 10 x 20 ms timeout = {}",
            total < base + Duration::from_millis(10 * 20 + 150)
        ));
    }
    rows
}

/// EV2 — vbroker fan-out cost vs viewer count.
pub fn exp_ev2_vbroker() -> Vec<String> {
    let mut rows = Vec::new();
    for n in [1usize, 4, 16, 32] {
        let (mut sim_side, broker_sim) = MemLink::pair();
        let mut broker = VBroker::new(broker_sim);
        let mut viewer_links = Vec::new();
        for _ in 0..n {
            let (v, b) = MemLink::pair();
            broker.attach(b);
            viewer_links.push(v);
        }
        let payload = VisitValue::Bytes(vec![0u8; 100_000]);
        let frame = Frame::with_value(MsgKind::Data, 1, visit::Endianness::native(), payload);
        let encoded = frame.encode();
        let t0 = Instant::now();
        for _ in 0..20 {
            sim_side.send(&encoded).unwrap();
            broker
                .pump(Duration::from_millis(50), Duration::from_millis(10))
                .unwrap();
        }
        let wall = t0.elapsed();
        let st = broker.stats();
        rows.push(format!(
            "{n:2} viewers: 20 x 100 KB -> {} B in, {} B out ({}x amplification), {wall:?} broker wall",
            st.bytes_in, st.bytes_out, st.bytes_out / st.bytes_in.max(1)
        ));
    }
    rows
}

/// EV3 — proxy polling emulation vs direct VISIT: steering latency vs
/// poll interval.
pub fn exp_ev3_proxy() -> Vec<String> {
    // direct: one WAN hop; proxy: expected wait of poll/2 + gateway hop
    let hop = Link::gwin().latency;
    let mut rows = Vec::new();
    rows.push(format!(
        "direct VISIT connection: steering latency = {hop} (one G-WiN hop)"
    ));
    for poll_ms in [1u64, 5, 20, 100] {
        let expected =
            SimTime::from_nanos(SimTime::from_millis(poll_ms).as_nanos() / 2) + hop + hop;
        rows.push(format!(
            "proxy pair, poll every {poll_ms:3} ms: expected steering latency = {expected} (poll/2 + 2 hops through the single-port gateway)"
        ));
    }
    rows.push("trade-off (paper §3.3): the polling plugin buys firewall traversal + UNICORE auth for one poll interval of latency".into());
    rows
}

/// EP1 — PEPC O(N log N) vs direct O(N²).
pub fn exp_ep1_pepc_scaling() -> Vec<String> {
    use rand::{Rng, SeedableRng};
    let mut rows = Vec::new();
    let mut crossover_seen = false;
    for n in [256usize, 512, 1024, 2048, 4096, 8192] {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let particles: Vec<pepc::Particle> = (0..n)
            .map(|i| {
                pepc::Particle::at(
                    [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ],
                    if i % 2 == 0 { 0.1 } else { -0.1 },
                    i as u32,
                )
            })
            .collect();
        let t0 = Instant::now();
        let tree = Octree::build(&particles, TreeConfig::default());
        let _tf = tree.forces(&particles);
        let tree_time = t0.elapsed();
        let t0 = Instant::now();
        let _df = direct_forces(&particles, 0.05);
        let direct_time = t0.elapsed();
        let winner = if tree_time < direct_time {
            "tree"
        } else {
            "direct"
        };
        if winner == "tree" {
            crossover_seen = true;
        }
        rows.push(format!(
            "N={n:5}: tree {tree_time:?} ({} interactions) | direct {direct_time:?} ({} pairs) | winner: {winner} ({:.1}x)",
            tree.last_interactions(),
            n * (n - 1),
            direct_time.as_secs_f64() / tree_time.as_secs_f64().max(1e-9)
        ));
    }
    rows.push(format!("tree wins beyond the crossover: {crossover_seen}"));
    rows
}

/// EC1 — collaboration traffic: geometry vs pixels vs parameters.
pub fn exp_ec1_collab_traffic() -> Vec<String> {
    let mut rows = Vec::new();
    let wan = Link::transatlantic();
    for n in [16usize, 24, 32, 48] {
        let field = demo_field(n);
        let mesh = mc::isosurface_smooth(&field, 0.0);
        let (mut ctl, mut rb, _read, render) = sphere_pipeline(field, 512);
        ctl.execute(&mut rb).unwrap();
        let img = ctl.image(&rb, render).unwrap();
        let mut codec = DeltaRleCodec::new();
        let frame = codec.encode(&img);
        let geom_bytes = mesh.byte_size();
        let pixel_bytes = frame.wire_size();
        let param_bytes = 32usize;
        let fps = |bytes: usize| 1.0 / wan.nominal_arrival(SimTime::ZERO, bytes).as_secs_f64();
        rows.push(format!(
            "{n:2}^3 / {:6} tris: geometry {geom_bytes:8} B ({:5.1} fps) | pixels {pixel_bytes:7} B ({:5.1} fps) | params {param_bytes} B ({:5.1} fps)",
            mesh.tri_count(), fps(geom_bytes), fps(pixel_bytes), fps(param_bytes)
        ));
    }
    rows.push("shape check: geometry grows with scene; pixels ~constant per resolution; params constant (the §4.6 claim)".into());
    rows
}

/// EU1 — UNICORE single-port gateway under concurrent clients.
pub fn exp_eu1_unicore() -> Vec<String> {
    use unicore::{Ajo, CertAuthority, Gateway, Njs, Task, TrustStore, Tsi, UnicoreClient};
    let ca = CertAuthority::new("CA", 1);
    let mut trust = TrustStore::new();
    trust.trust(&ca);
    let mut gw = Gateway::new("gw", trust);
    gw.add_vsite(Njs::new("csar", Tsi::with_builtins()));
    let gw = std::sync::Arc::new(parking_lot::Mutex::new(gw));
    let mut rows = Vec::new();
    for clients in [1usize, 8, 32, 64] {
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let gw = gw.clone();
                let (cert, key) = ca.issue(&format!("CN=user{c}"));
                std::thread::spawn(move || {
                    let client = UnicoreClient::new(cert, key);
                    for j in 0..10 {
                        let mut ajo = Ajo::new(&format!("job-{c}-{j}"), "csar");
                        let w = ajo.add_task(
                            Task::Execute {
                                command: "write".into(),
                                args: vec!["out".into(), "x".into()],
                            },
                            &[],
                        );
                        ajo.add_task(Task::StageOut { path: "out".into() }, &[w]);
                        let mut g = gw.lock();
                        let id = client.consign(&mut g, ajo).unwrap();
                        client.run_queued(&mut g, "csar").unwrap();
                        let _ = client.fetch(&mut g, "csar", id).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let wall = t0.elapsed();
        let tx = gw.lock().stats().transactions;
        rows.push(format!(
            "{clients:2} concurrent clients x 10 jobs: {wall:?} ({:.0} transactions/s, {tx} total so far)",
            (clients as f64 * 30.0) / wall.as_secs_f64()
        ));
    }
    rows
}

/// EM1 — mid-session migration: frame gap vs §4.4 budget.
pub fn exp_em1_migration() -> Vec<String> {
    let (net, ids) = NetModel::sc2003();
    let migrator = Migrator::new(&net);
    let mut rows = Vec::new();
    for (from, to) in [
        ("london", "manchester"),
        ("manchester", "juelich"),
        ("juelich", "phoenix"),
    ] {
        let sim = TwoFluidLbm::new(LbmConfig::default()); // 32^3
        let (_, report) = migrator.migrate(sim, ids[from], ids[to]);
        rows.push(format!(
            "{from} -> {to}: checkpoint {} MB, frame gap {} (within 60 s budget: {})",
            report.checkpoint_bytes / 1_000_000,
            report.frame_gap,
            report.frame_gap < SimTime::from_secs(60)
        ));
    }
    rows.push("clients keep their connections; only the sample stream pauses for the gap".into());
    rows
}

/// E50 — soak the scenario engine: sweep participant count × loss rate
/// through the same deterministic harness the tier-1 matrix uses, with
/// churn and a mid-run steer in every cell. Every row ends with the run's
/// report digest, so a soak regression is visible as a digest change.
pub fn exp_e50_soak() -> Vec<String> {
    // every cell of the sweep reuses one shared worker pool
    let pool = gridsteer_exec::global();
    let mut rows = Vec::new();
    for &n in &[2usize, 4, 8] {
        for &loss_ppm in &[0u32, 50_000, 200_000] {
            let name = format!("e50-n{n}-loss{loss_ppm}");
            let mut s = Scenario::named(&name)
                .seed(0xE50 + n as u64 + loss_ppm as u64)
                .lbm(LbmConfig::small())
                .pool(pool.clone())
                .duration(SimTime::from_secs(3));
            for i in 0..n {
                let link = match i % 3 {
                    0 => Link::uk_janet(),
                    1 => Link::gwin(),
                    _ => Link::transatlantic(),
                };
                let pname = format!("p{i}");
                s = s.participant(&pname, link);
                if loss_ppm > 0 {
                    s = s.loss_at(SimTime::ZERO, &pname, loss_ppm);
                }
            }
            // every cell exercises churn + steering, not just fan-out
            s = s
                .join_at(SimTime::from_millis(900), "late", Link::gwin())
                .steer_at(SimTime::from_millis(1200), "p0", "miscibility", 0.3)
                .leave_at(SimTime::from_millis(1800), "late");
            let r = s.run();
            rows.push(format!(
                "n={n} loss={loss_ppm}ppm: {} broadcasts, {} delivered, {} dropped, p50 {} p99 {} skew {} budget={} digest={}",
                r.broadcasts,
                r.total_deliveries(),
                r.total_drops(),
                r.p50,
                r.p99,
                r.max_skew,
                r.within_budget,
                r.digest()
            ));
        }
    }
    rows
}

/// BUS — steering-bus throughput: batched vs one-at-a-time command
/// staging over every transport adapter. One row per (transport, mode);
/// each row carries the commands-per-second the adapter sustained
/// through its full middleware encode/decode path plus the hub commit.
/// (Rows embed wall-clock rates, so this experiment's digest legitimately
/// changes run to run; the per-transport applied counts are asserted
/// deterministic in the unit tests.)
pub fn exp_bus() -> Vec<String> {
    const CMDS: usize = 2000;
    const BATCH: usize = 32;
    let mut rows = Vec::new();
    for transport in Transport::ALL {
        for (mode, batch_size) in [("single", 1), ("batched", BATCH)] {
            let hub = SteerHub::new(vec![BusParamSpec::f64_clamped("gain", 0.0, 1.0, 0.5)]);
            let mut ep = transport.attach(&hub, "bench");
            let t0 = Instant::now();
            let mut applied = 0u64;
            let mut sent = 0usize;
            while sent < CMDS {
                let n = batch_size.min(CMDS - sent);
                let batch: Vec<SteerCommand> = (0..n)
                    .map(|i| SteerCommand::f64("gain", ((sent + i) % 1000) as f64 / 1000.0))
                    .collect();
                sent += n;
                ep.set_batch(batch).expect("bench batch stages");
                applied += hub.commit().applied;
            }
            let wall = t0.elapsed();
            let rate = CMDS as f64 / wall.as_secs_f64();
            rows.push(format!(
                "transport={} mode={mode} cmds={CMDS} applied={applied} wall={:.2}ms rate={:.0}cmd/s",
                transport.label(),
                wall.as_secs_f64() * 1e3,
                rate
            ));
        }
    }
    rows
}

/// MONITOR — monitor-bus fan-out throughput: batched (one transport
/// envelope per step-boundary chunk) vs per-sample (one envelope per
/// frame) delivery, swept over every transport adapter and subscriber
/// count. Each row carries both sustained frame rates plus their ratio —
/// the number that justifies the hub's batched `publish_batch` path.
/// (Rows embed wall-clock rates, so this experiment's digest legitimately
/// changes run to run; the delivered counts are asserted deterministic in
/// the unit tests.)
pub fn exp_monitor_fanout() -> Vec<String> {
    use gridsteer_bus::{MonitorCaps, MonitorHub, MonitorPayload};
    const FRAMES: usize = 1200;
    const BATCH: usize = 32;
    // a 4x4 field slice: the smallest payload every transport carries
    // (COVISE's data plane is grids-only, so scalars would never reach it)
    let payloads = |n: usize| -> Vec<MonitorPayload> {
        (0..n)
            .map(|i| {
                let base = (i % 97) as f32;
                MonitorPayload::grid2("phi_mid", 4, 4, (0..16).map(|j| base + j as f32).collect())
            })
            .collect()
    };
    let build_hub = |transport: Transport, subs: usize| -> MonitorHub {
        let hub = MonitorHub::new();
        for s in 0..subs {
            hub.attach_endpoint(
                &format!("v{s}"),
                transport.attach_monitor(&format!("v{s}")),
                &MonitorCaps::full("bench-viewer", BATCH),
            );
        }
        hub
    };
    let drain = |hub: &MonitorHub, subs: usize| -> u64 {
        (0..subs)
            .map(|s| hub.recv(&format!("v{s}")).len() as u64)
            .sum()
    };
    // Per-sample mode is the full consumer loop at sample granularity:
    // publish one frame, every viewer polls. Batched mode does the same
    // work in step-boundary chunks: one envelope (and one poll) per
    // BATCH frames. The delta is the per-frame envelope cost each
    // middleware charges — job consignment, service invocation, wire
    // begin/end frames, queue handoff.
    let run_mode = |transport: Transport, subs: usize, batch: usize| -> (Duration, u64) {
        let hub = build_hub(transport, subs);
        let mut delivered = 0u64;
        let mut queue = payloads(FRAMES);
        let t0 = Instant::now();
        while !queue.is_empty() {
            let chunk: Vec<MonitorPayload> = queue.drain(..batch.min(queue.len())).collect();
            if chunk.len() == 1 {
                let [p] = <[MonitorPayload; 1]>::try_from(chunk).expect("len checked");
                hub.publish(0, p);
            } else {
                hub.publish_batch(0, chunk);
            }
            delivered += drain(&hub, subs);
        }
        (t0.elapsed(), delivered)
    };
    // best-of-N walls: the fast transports finish a whole pass in ~100µs,
    // where one scheduler blip would otherwise swamp the comparison
    let best_of = |transport: Transport, subs: usize, batch: usize| -> (Duration, u64) {
        (0..3)
            .map(|_| run_mode(transport, subs, batch))
            .min_by_key(|(wall, _)| *wall)
            .expect("nonempty")
    };
    let mut rows = Vec::new();
    for transport in Transport::ALL {
        for &subs in &[1usize, 4, 16] {
            // warm-up pass (allocators, caches) before either timing
            let _ = run_mode(transport, subs, BATCH);
            let (single_wall, single_recv) = best_of(transport, subs, 1);
            let (batched_wall, batched_recv) = best_of(transport, subs, BATCH);
            assert_eq!(
                single_recv, batched_recv,
                "both modes must deliver the same frames"
            );
            let rate = |wall: Duration| FRAMES as f64 * subs as f64 / wall.as_secs_f64();
            let (single_rate, batched_rate) = (rate(single_wall), rate(batched_wall));
            rows.push(format!(
                "transport={} subs={subs} frames={FRAMES} delivered={batched_recv} \
                 per_sample={single_rate:.0}fr/s batched={batched_rate:.0}fr/s \
                 speedup={:.2}x",
                transport.label(),
                batched_rate / single_rate,
            ));
        }
    }
    rows
}

/// FANOUT — hierarchical relay fan-out scaling (ROADMAP fan-out item):
/// origin publish cost vs subscriber count, a flat hub vs a 4-region x
/// 8-edge relay tree. The flat topology attaches one real sink per
/// subscriber, tractable to 10k; the tree's leaf tier is one aggregate
/// sink per edge standing in for `n/32` subscribers, which makes the 1M
/// row measurable — and the origin's own cost is 4 region envelopes per
/// step at any width, which is the architectural point. A loopback probe
/// rides edge 0; its frame digest must match the flat probe
/// byte-for-byte (relays preserve origin sequence numbers), and the
/// `digest=`/`delivered=` cells are the deterministic columns CI
/// compares across `EXEC_THREADS`. (Walls are wall-clock; those cells
/// legitimately drift run to run.)
pub fn exp_fanout_scale() -> Vec<String> {
    use gridsteer_bus::{
        FrameChunk, LoopbackMonitor, MonitorCaps, MonitorEndpoint, MonitorError, MonitorFrame,
        MonitorHub, MonitorPayload, RelayHub, RelayPolicy,
    };
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    const STEPS: u64 = 64;
    const FRAMES_PER_STEP: usize = 4;
    const REGIONS: usize = 4;
    const EDGES_PER_REGION: usize = 8;

    /// A leaf sink standing in for `weight` simulated subscribers: it
    /// counts what arrives and discards the frames.
    struct CountingSink {
        caps: MonitorCaps,
        weight: u64,
        counter: Arc<AtomicU64>,
    }
    impl MonitorEndpoint for CountingSink {
        fn transport(&self) -> &'static str {
            "sim"
        }
        fn negotiate(&mut self, viewer: &MonitorCaps) -> MonitorCaps {
            self.caps = self.caps.intersect(viewer);
            self.caps.clone()
        }
        fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
            self.counter
                .fetch_add(chunk.len() as u64 * self.weight, Ordering::Relaxed);
            Ok(chunk.len())
        }
        fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
            Vec::new()
        }
    }

    let caps = || MonitorCaps::full("sim-viewer", 64);
    let sink = |weight: u64, counter: &Arc<AtomicU64>| -> Box<dyn MonitorEndpoint> {
        Box::new(CountingSink {
            caps: caps(),
            weight,
            counter: counter.clone(),
        })
    };
    let payloads = |step: u64| -> Vec<MonitorPayload> {
        (0..FRAMES_PER_STEP)
            .map(|i| {
                let base = (step * FRAMES_PER_STEP as u64 + i as u64) as f32;
                MonitorPayload::grid2("phi_mid", 4, 4, (0..16).map(|j| base + j as f32).collect())
            })
            .collect()
    };
    let fold =
        |frames: &[MonitorFrame]| -> u64 { frames.iter().fold(FNV_OFFSET, |h, f| f.fold_fnv(h)) };

    // flat baseline: every subscriber is a direct child of the origin,
    // so one publish pays n envelopes
    let flat_pass = |n: u64| -> (Duration, u64, u64) {
        let hub = MonitorHub::new();
        let counter = Arc::new(AtomicU64::new(0));
        for i in 0..n {
            hub.attach_endpoint(&format!("v{i}"), sink(1, &counter), &caps());
        }
        hub.attach_endpoint("probe", Box::new(LoopbackMonitor::new()), &caps());
        let t0 = Instant::now();
        for step in 0..STEPS {
            hub.publish_batch(step, payloads(step));
        }
        let wall = t0.elapsed();
        (
            wall,
            counter.load(Ordering::Relaxed),
            fold(&hub.recv("probe")),
        )
    };

    // relay tree: the origin fans to 4 regions, each region to 8 edges,
    // and the leaf population hangs off the edges
    let relay_pass = |n: u64| -> (Duration, Duration, u64, u64) {
        let origin = MonitorHub::new();
        let counter = Arc::new(AtomicU64::new(0));
        let mut regions = Vec::new();
        let mut edges = Vec::new();
        for r in 0..REGIONS {
            let region = RelayHub::new(RelayPolicy::default());
            region.attach_to(&origin, &format!("region-{r}"));
            for e in 0..EDGES_PER_REGION {
                let edge = RelayHub::new(RelayPolicy::default());
                edge.attach_under(&region, &format!("edge-{r}-{e}"));
                edges.push(edge);
            }
            regions.push(region);
        }
        let leaves = (REGIONS * EDGES_PER_REGION) as u64;
        for (i, edge) in edges.iter().enumerate() {
            let share = n / leaves + u64::from((i as u64) < n % leaves);
            if share > 0 {
                edge.attach_child(&format!("leaf-{i}"), sink(share, &counter), &caps());
            }
        }
        edges[0].attach_child("probe", Box::new(LoopbackMonitor::new()), &caps());
        let t0 = Instant::now();
        for step in 0..STEPS {
            origin.publish_batch(step, payloads(step));
        }
        let origin_wall = t0.elapsed();
        assert_eq!(
            origin.subscribers(),
            REGIONS,
            "origin fan-out is structural: regions only, at any leaf width"
        );
        let t1 = Instant::now();
        for region in &regions {
            region.pump();
        }
        for edge in &edges {
            edge.pump();
        }
        let pump_wall = t1.elapsed();
        (
            origin_wall,
            pump_wall,
            counter.load(Ordering::Relaxed),
            fold(&edges[0].recv_child("probe")),
        )
    };

    let mut rows = Vec::new();
    let mut probe_digest: Option<u64> = None;
    for &n in &[1u64, 100, 10_000] {
        let _ = flat_pass(n); // warm-up (allocators, caches)
        let (wall, delivered, digest) = (0..3)
            .map(|_| flat_pass(n))
            .min_by_key(|(w, _, _)| *w)
            .expect("nonempty");
        assert_eq!(delivered, n * STEPS * FRAMES_PER_STEP as u64);
        let prev = *probe_digest.get_or_insert(digest);
        assert_eq!(prev, digest, "the probe stream is topology-independent");
        rows.push(format!(
            "topo=flat subs={n} steps={STEPS} delivered={delivered} \
             origin_pub={:.1}us/step digest={digest:016x}",
            wall.as_secs_f64() * 1e6 / STEPS as f64
        ));
    }
    for &n in &[1u64, 10_000, 1_000_000] {
        let _ = relay_pass(n); // warm-up
        let (origin_wall, pump_wall, delivered, digest) = (0..3)
            .map(|_| relay_pass(n))
            .min_by_key(|(w, ..)| *w)
            .expect("nonempty");
        assert_eq!(delivered, n * STEPS * FRAMES_PER_STEP as u64);
        assert_eq!(
            Some(digest),
            probe_digest,
            "bytes at the edge must equal bytes at the origin"
        );
        rows.push(format!(
            "topo=relay subs={n} regions={REGIONS} edges={} delivered={delivered} \
             origin_pub={:.1}us/step pump={:.1}us/step digest={digest:016x}",
            REGIONS * EDGES_PER_REGION,
            origin_wall.as_secs_f64() * 1e6 / STEPS as f64,
            pump_wall.as_secs_f64() * 1e6 / STEPS as f64
        ));
    }
    rows
}

/// FUZZ — generative scenario soak: run the invariant oracle over a
/// window of generated seeds (`FUZZ_SEED_START`, default 0, and
/// `FUZZ_SEEDS`, default 500) and report pass/fail counts, a fold of the
/// per-seed report digests, and the generated action mix. Every row but
/// the final wall-clock rate row is deterministic for a fixed window, so
/// CI diffs the output between `GRIDSTEER_SIMD=0` and `=1` runs — the
/// cross-process half of the scalar-vs-SIMD digest invariant (the SIMD
/// switch is a process-wide `OnceLock`, so one process can't compare
/// both).
pub fn exp_fuzz_soak() -> Vec<String> {
    let env_u64 = |key: &str, default: u64| {
        std::env::var(key)
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(default)
    };
    let start = env_u64("FUZZ_SEED_START", 0);
    let count = env_u64("FUZZ_SEEDS", 500);
    let cfg = gridsteer_fuzz::FuzzConfig::default();
    let runner = gridsteer_fuzz::PoolRunner;

    let t0 = Instant::now();
    let mut pass = 0u64;
    let mut fail = 0u64;
    let mut digest_fold = FNV_OFFSET;
    let mut mix: std::collections::BTreeMap<&'static str, u64> = std::collections::BTreeMap::new();
    let mut failures: Vec<String> = Vec::new();
    for seed in start..start + count {
        let s = gridsteer_fuzz::generate(seed, &cfg);
        for (_, a) in s.actions() {
            *mix.entry(a.label()).or_insert(0) += 1;
        }
        let audit = gridsteer_fuzz::audit_with(&runner, &s);
        digest_fold = fnv_fold(digest_fold, audit.digest.as_bytes());
        if audit.violations.is_empty() {
            pass += 1;
        } else {
            fail += 1;
            if failures.len() < 5 {
                for v in &audit.violations {
                    failures.push(format!("seed {seed}: {v}"));
                }
            }
        }
    }

    let mut rows = vec![format!(
        "seeds {start}..{}: pass={pass} fail={fail} digest={digest_fold:016x}",
        start + count
    )];
    rows.push(format!(
        "action mix: {}",
        mix.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    rows.extend(failures);
    let secs = t0.elapsed().as_secs_f64();
    rows.push(format!(
        "wall: {count} scenarios in {:.0} ms ({:.1}/s)",
        secs * 1e3,
        count as f64 / secs.max(1e-9)
    ));
    rows
}

/// The experiment table, in index order: one row per figure or
/// quantitative claim of the paper, then the four engineering sweeps.
/// `gridsteer_bench exp` resolves ids, lists and runs from this table and
/// nothing else.
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        id: "F1",
        rows: exp_f1_realitygrid,
        summary: "RealityGrid pipeline: compute(london) -> vis(manchester) -> laptop(sheffield)",
    },
    Experiment {
        id: "F2",
        rows: exp_f2_ogsa_service,
        summary: "OGSA steering architecture: registry -> bind -> steer sim + vis",
    },
    Experiment {
        id: "F3",
        rows: exp_f3_pepc_visit,
        summary: "PEPC online visualization via VISIT (particles + domain boxes + live beam steer)",
    },
    Experiment {
        id: "F4",
        rows: exp_f4_ag_covise,
        summary: "collaborative VR session: frame divergence vs participating sites (param-sync)",
    },
    Experiment {
        id: "E42",
        rows: exp_e42_render_loop,
        summary: "rendering feedback loop: viewer moves -> scene redrawn",
    },
    Experiment {
        id: "E43",
        rows: exp_e43_postproc_loop,
        summary: "post-processing loop: cutting-plane parameter -> updated scene",
    },
    Experiment {
        id: "E44",
        rows: exp_e44_sim_loop,
        summary: "simulation feedback loop: miscibility steer -> observable demixing",
    },
    Experiment {
        id: "EV1",
        rows: exp_ev1_visit_overhead,
        summary: "VISIT design goal: a slow or dead visualization cannot stall the simulation",
    },
    Experiment {
        id: "EV2",
        rows: exp_ev2_vbroker,
        summary: "vbroker multiplexer: broadcast cost scales with viewers; master alone steers",
    },
    Experiment {
        id: "EV3",
        rows: exp_ev3_proxy,
        summary: "VISIT-UNICORE proxy pair: polling emulation latency vs poll interval",
    },
    Experiment {
        id: "EP1",
        rows: exp_ep1_pepc_scaling,
        summary: "PEPC hierarchical tree O(N log N) vs direct O(N^2) force summation",
    },
    Experiment {
        id: "EC1",
        rows: exp_ec1_collab_traffic,
        summary: "collaboration traffic per update over a 45 Mbit transatlantic link",
    },
    Experiment {
        id: "EU1",
        rows: exp_eu1_unicore,
        summary: "UNICORE job path through one authenticated gateway port",
    },
    Experiment {
        id: "EM1",
        rows: exp_em1_migration,
        summary: "mid-session computation migration (the §2.4 capability)",
    },
    Experiment {
        id: "E50",
        rows: exp_e50_soak,
        summary: "scenario-engine soak: participants x loss rate, deterministic digests",
    },
    Experiment {
        id: "bus",
        rows: exp_bus,
        summary: "steering-bus throughput: batched vs one-at-a-time commands per transport",
    },
    Experiment {
        id: "monitor",
        rows: exp_monitor_fanout,
        summary: "monitor-bus fan-out: batched vs per-sample delivery per transport x subscribers",
    },
    Experiment {
        id: "fanout",
        rows: exp_fanout_scale,
        summary:
            "relay-fabric fan-out: flat hub vs 4x8 relay tree, origin publish cost vs subscribers",
    },
    Experiment {
        id: "fuzz",
        rows: exp_fuzz_soak,
        summary: "generative scenario soak: invariant oracle over a seeded window",
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn experiment_ids_are_unique() {
        let ids: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), EXPERIMENTS.len());
    }

    /// `exp all --out d` and `snap --out d` may share `d`: no file has two
    /// writers.
    #[test]
    fn exp_and_snap_write_disjoint_files() {
        let exp: BTreeSet<String> = EXPERIMENTS.iter().map(|e| json_name(e.id)).collect();
        let snap: BTreeSet<String> = (crate::gate::GATES.iter())
            .map(|g| crate::gate::json_name(g.id))
            .collect();
        assert_eq!(exp.len(), EXPERIMENTS.len());
        assert_eq!(snap.len(), crate::gate::GATES.len());
        assert!(exp.is_disjoint(&snap), "{exp:?} vs {snap:?}");
    }

    #[test]
    fn bus_throughput_covers_every_transport_and_mode() {
        let rows = exp_bus();
        assert_eq!(rows.len(), Transport::ALL.len() * 2);
        for t in Transport::ALL {
            assert!(
                rows.iter()
                    .any(|row| row.contains(&format!("transport={}", t.label()))),
                "missing transport {}",
                t.label()
            );
        }
        // every command must actually apply (clamped spec, in-bounds values)
        assert!(rows.iter().all(|row| row.contains("applied=2000")));
    }

    #[test]
    fn monitor_fanout_covers_every_transport_and_sub_count() {
        let rows = exp_monitor_fanout();
        assert_eq!(rows.len(), Transport::ALL.len() * 3);
        for t in Transport::ALL {
            for subs in [1usize, 4, 16] {
                assert!(
                    rows.iter()
                        .any(|row| row.contains(&format!("transport={} subs={subs} ", t.label()))),
                    "missing cell {} x {subs}",
                    t.label()
                );
            }
        }
        // delivery is deterministic: every subscriber gets every frame
        for row in &rows {
            let subs: u64 = row
                .split("subs=")
                .nth(1)
                .unwrap()
                .split(' ')
                .next()
                .unwrap()
                .parse()
                .unwrap();
            assert!(row.contains(&format!("delivered={}", 1200 * subs)), "{row}");
            assert!(row.contains("speedup="), "{row}");
        }
    }

    #[test]
    fn fanout_scale_is_flat_at_the_origin_and_byte_stable_at_the_edge() {
        let rows = exp_fanout_scale();
        assert_eq!(rows.len(), 6, "3 flat widths + 3 relay widths");
        assert!(rows.iter().take(3).all(|row| row.starts_with("topo=flat")));
        assert!(rows
            .iter()
            .skip(3)
            .all(|row| row.contains("regions=4 edges=32")));
        // every digest cell carries the same 16-hex value: the stream is
        // byte-identical at the origin and two relay tiers down
        let digests: Vec<&str> = rows
            .iter()
            .map(|row| row.split("digest=").nth(1).unwrap())
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "{digests:?}");
        // the simulated-subscriber math holds at the million-leaf row
        assert!(rows
            .iter()
            .any(|row| row.contains("subs=1000000 ") && row.contains("delivered=256000000")));
    }

    #[test]
    fn e50_soak_sweeps_every_cell() {
        let rows = exp_e50_soak();
        assert_eq!(rows.len(), 9, "3 participant counts x 3 loss rates");
        assert!(rows.iter().all(|row| row.contains("digest=")));
        // lossless cells drop nothing
        assert!(rows[0].contains(" 0 dropped"));
    }

    #[test]
    fn e50_soak_is_deterministic() {
        let a = exp_e50_soak();
        let b = exp_e50_soak();
        assert_eq!(a, b, "soak rows must replay identically");
    }
}
