//! One workload, one invocation: set up, measure, check, report.
//!
//! `--trace 0` measures the end-to-end metrics on one untraced run of the
//! workload's full tick count. `--trace 1` gives half that tick count to
//! each of two worlds built from the same seed, one untraced and one
//! traced, run in alternating blocks — the per-layer metrics come from the
//! traced world, the tracing overhead from comparing the two, and their
//! digests must agree. Both modes then re-run the first simulation steps on
//! a two-worker pool (traced) and compare digests, and time
//! `Scenario::run()` on the workload's twin `TWIN_RUNS` times.

use crate::clock::{peak_rss_kb, Clock};
use crate::json::{int, num, obj, text, Value};
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{best_window, median, percentile, Pct, MIN_BEYOND};
use crate::trace::{Sp, Tracer};
use crate::twin;
use crate::workload::{Backend, Spec};
use crate::world::{Counters, Samples, World};
use gridsteer_bus::{MonitorStats, RelayReport};
use std::collections::BTreeMap;
use std::hint::black_box;

/// Pool width of every measured run. One worker, although the reference
/// box has two cores: its two vCPUs are not steadily two cores' worth (a
/// 48³ LBM step on a two-worker pool wandered between 13 and 19 ms over a
/// minute while the same step on one worker held 25.4–27.7 ms), and no
/// estimator inside one run removes a drift that slow. Thread scaling is
/// still reported per layer, from the `CROSS_WIDTH` re-run.
const WIDTH: usize = 1;

/// Pool width of the cross-check run of the first simulation steps.
const CROSS_WIDTH: usize = 2;

/// The digest after the first this-many simulation steps must not depend
/// on pool width or on tracing.
const PREFIX_STEPS: u32 = 50;

/// A traced invocation alternates this many blocks of untraced and traced
/// ticks (two worlds, same seed), so machine drift and allocator warm-up
/// hit both sides alike and their difference is the tracing overhead.
const BLOCKS: u32 = 8;

/// `Scenario::run()` calls on the twin; `scenario_wall_s` is the fastest.
const TWIN_RUNS: usize = 5;

/// A run is cut into this many windows; each end-to-end rate or latency is
/// the best window's (see `stats::best_window`).
const QUIET_WINDOWS: usize = 20;

pub struct Args {
    pub spec: Spec,
    pub seed: u64,
    pub seconds: u32,
    pub trace: bool,
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every metric of the mode's table, in table order.
    pub metrics: Vec<(MetricDef, f64)>,
    /// How many samples stand behind each percentile metric.
    pub samples: Vec<(&'static str, Pct)>,
    /// Digest, layer shares, sample counts: for reports and `compare`.
    pub detail: Value,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// What is kept of a world once it has run.
struct Summary {
    counters: Counters,
    samples: Samples,
    failures: Vec<String>,
    digest: u64,
    busy_ns: u64,
    monitor: MonitorStats,
    relay: RelayReport,
    links: (u64, u64, u64),
    frames_published: u64,
    session_events: u64,
    lbm_bytes_per_step: u64,
}

impl Summary {
    fn of(mut world: World, busy_ns: u64) -> Summary {
        world.check_invariants();
        Summary {
            digest: world.digest(),
            busy_ns,
            monitor: world.monitor_totals(),
            relay: world.relay_totals(),
            links: world.link_totals(),
            frames_published: world.frames_published(),
            session_events: world.session_events(),
            lbm_bytes_per_step: world.lbm_bytes_per_step(),
            counters: std::mem::take(&mut world.counters),
            samples: std::mem::take(&mut world.samples),
            failures: std::mem::take(&mut world.failures),
        }
    }

    /// Operations attempted: staged commands, frame deliveries that
    /// reached a viewer, checkpoint cuts and restores.
    fn ops(&self) -> u64 {
        let c = &self.counters;
        c.cmds_staged + self.links.1 + c.cuts + c.restores
    }
}

/// Timed ticks of a run: fixed by the workload and `--seconds`, never by
/// how fast this machine is, so counts and digests repeat exactly.
fn timed_ticks(spec: &Spec, seconds: u32) -> u32 {
    let n = spec.ticks_per_second * seconds;
    match spec.ckpt {
        // whole crash cycles, so every recovery replays a full chain
        Some(plan) => (n / plan.crash_every).max(1) * plan.crash_every,
        None => n,
    }
}

/// Ticks per quiet window: one `QUIET_WINDOWS`-th of the run but at least
/// `2 * MIN_BEYOND` ticks (so a window's median has ten samples beyond it),
/// in whole cycles of the workload (a crash cycle, a full rotation of the
/// master token, a keyframe interval), so every window holds the same mix
/// of tick kinds.
fn window_ticks(spec: &Spec, n: usize) -> usize {
    let cycle = spec.cycle_ticks as usize;
    let want = (n / QUIET_WINDOWS).max(2 * MIN_BEYOND);
    (want.div_ceil(cycle) * cycle).min(n.max(1))
}

/// Run `n` ticks, pausing once — untimed — to take the digest when the
/// world reaches tick `mark`. Returns the nanoseconds spent running.
fn run_marked(
    world: &mut World,
    n: u32,
    mark: u32,
    marked: &mut Option<u64>,
    clock: &Clock,
    tr: &mut Tracer,
) -> u64 {
    let mut busy = 0;
    let mut left = n;
    while left > 0 {
        let to_mark = mark.saturating_sub(world.ticks_run());
        let chunk = if to_mark > 0 { left.min(to_mark) } else { left };
        let t0 = clock.ns();
        world.run(chunk, clock, tr);
        busy += clock.ns() - t0;
        left -= chunk;
        if world.ticks_run() == mark && marked.is_none() {
            *marked = Some(world.digest());
        }
    }
    busy
}

/// A fixed dependent floating-point + FNV chain. Its time is reported, not
/// used: a reader can tell machine drift from code drift with it.
fn calib_ms(clock: &Clock) -> f64 {
    let t0 = clock.ns();
    let mut x = 1.0f64;
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for _ in 0..20_000_000u32 {
        x = x * 1.000_000_1 + 1e-9;
        h = (h ^ (x.to_bits() & 0xff)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    black_box((x, h));
    (clock.ns() - t0) as f64 / 1e6
}

/// Round trip of an empty two-chunk `parallel_for` on a two-worker pool.
fn dispatch_ns(clock: &Clock) -> Vec<u64> {
    let pool = gridsteer_exec::shared(CROSS_WIDTH);
    (0..2000)
        .map(|_| {
            let t0 = clock.ns();
            pool.parallel_for(2, 1, |r| {
                black_box(r);
            });
            clock.ns() - t0
        })
        .collect()
}

struct TwinResult {
    wall_ns: Vec<u64>,
    ticks: u64,
    budget_violations: u64,
    probe_violations: u64,
    failures: Vec<String>,
}

fn run_twin(spec: &Spec, seed: u64, clock: &Clock) -> TwinResult {
    let scenario = twin::scenario(spec, seed, gridsteer_exec::shared(WIDTH));
    let mut out = TwinResult {
        wall_ns: Vec::new(),
        ticks: scenario.ticks(),
        budget_violations: 0,
        probe_violations: 0,
        failures: Vec::new(),
    };
    let mut first_digest = None;
    for i in 0..TWIN_RUNS {
        let t0 = clock.ns();
        let report = scenario.run();
        out.wall_ns.push(clock.ns() - t0);
        let digest = report.digest();
        if *first_digest.get_or_insert_with(|| digest.clone()) != digest {
            out.failures
                .push(format!("twin run {i}: digest differs from run 0"));
        }
        if report.broadcasts + report.broadcasts_skipped != scenario.ticks() {
            out.failures.push(format!(
                "twin run {i}: broadcasts {} + skipped {} != ticks {}",
                report.broadcasts,
                report.broadcasts_skipped,
                scenario.ticks()
            ));
        }
        if report.steers_applied == 0 || report.steers_lost != 0 {
            out.failures.push(format!(
                "twin run {i}: {} steers applied, {} lost",
                report.steers_applied, report.steers_lost
            ));
        }
        for line in &report.probe_violations {
            out.failures.push(format!("twin run {i} probe: {line}"));
        }
        out.probe_violations = report.probe_violations.len() as u64;
        out.budget_violations = report.post_budget_violations
            + report
                .viewers
                .iter()
                .map(|v| v.budget_violations)
                .sum::<u64>();
    }
    out
}

fn pct_detail(p: Pct) -> Value {
    obj(vec![
        ("n", int(p.n as u64)),
        ("beyond", int(p.beyond as u64)),
        ("resolved", Value::Bool(p.resolved())),
    ])
}

/// Run one workload once in the given mode.
pub fn run(args: &Args) -> Outcome {
    let clock = Clock::start();
    let spec = &args.spec;
    let n = timed_ticks(spec, args.seconds);
    let n_untraced = if args.trace { (n / 2).max(1) } else { n };
    let mark = PREFIX_STEPS
        .div_ceil(spec.steps_per_tick as u32)
        .min(spec.warmup_ticks + n_untraced);
    let mut off = Tracer::new(&clock, false);
    let mut tr = Tracer::new(&clock, true);

    let machine = args
        .trace
        .then(|| (calib_ms(&clock), median(&dispatch_ns(&clock)).value));

    // set up several times; the last world is the one measured
    let mut setup_ns = Vec::new();
    let mut built = None;
    let mut prefix_digest = None;
    for _ in 0..spec.setups {
        drop(built.take());
        prefix_digest = None;
        let t0 = clock.ns();
        let mut world = World::build(spec, args.seed, WIDTH);
        let build_ns = clock.ns() - t0;
        let warm_ns = run_marked(
            &mut world,
            spec.warmup_ticks,
            mark,
            &mut prefix_digest,
            &clock,
            &mut off,
        );
        setup_ns.push(build_ns + warm_ns);
        built = Some(world);
    }
    let mut world = built.expect("every workload sets up at least once");
    world.start_measuring();

    let (plain, traced, rss_kb) = if args.trace {
        let mut shadow = World::build(spec, args.seed, WIDTH);
        shadow.run(spec.warmup_ticks, &clock, &mut off);
        shadow.start_measuring();
        let (mut busy, mut shadow_busy) = (0, 0);
        for block in 0..BLOCKS {
            let ticks = n_untraced / BLOCKS + u32::from(block < n_untraced % BLOCKS);
            for traced_turn in [block % 2 == 1, block % 2 == 0] {
                if traced_turn {
                    let t0 = clock.ns();
                    shadow.run(ticks, &clock, &mut tr);
                    shadow_busy += clock.ns() - t0;
                } else {
                    busy += run_marked(
                        &mut world,
                        ticks,
                        mark,
                        &mut prefix_digest,
                        &clock,
                        &mut off,
                    );
                }
            }
        }
        (
            Summary::of(world, busy),
            Some(Summary::of(shadow, shadow_busy)),
            0,
        )
    } else {
        let busy = run_marked(
            &mut world,
            n_untraced,
            mark,
            &mut prefix_digest,
            &clock,
            &mut off,
        );
        let rss_kb = peak_rss_kb().unwrap_or(0);
        (Summary::of(world, busy), None, rss_kb)
    };
    let mut failures = plain.failures.clone();
    let mut attempted = plain.ops();
    if let Some(t) = &traced {
        attempted += t.ops();
        failures.extend(t.failures.iter().cloned());
        if t.digest != plain.digest {
            failures.push(format!(
                "traced digest {:016x} != untraced digest {:016x}",
                t.digest, plain.digest
            ));
        }
        if t.counters != plain.counters {
            failures.push("traced and untraced runs counted different operations".into());
        }
        let dir = std::path::Path::new("benchmark/out");
        let file = dir.join(format!("{}.trace.json", spec.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&file, tr.to_json(spec.name, args.seed)));
        if let Err(e) = written {
            failures.push(format!("writing {}: {e}", file.display()));
        }
    }

    // the first steps again on the other pool width, traced: same digest
    let mut tr_cross = Tracer::new(&clock, true);
    let mut cross = World::build(spec, args.seed, CROSS_WIDTH);
    cross.run(mark, &clock, &mut tr_cross);
    let cross = Summary::of(cross, 0);
    attempted += cross.ops();
    failures.extend(cross.failures.iter().cloned());
    if prefix_digest != Some(cross.digest) {
        failures.push(format!(
            "first {mark} ticks: width-{CROSS_WIDTH} traced digest {:016x} != width-{WIDTH} untraced digest {:016x?}",
            cross.digest, prefix_digest
        ));
    }

    let twin = run_twin(spec, args.seed, &clock);
    attempted += TWIN_RUNS as u64;
    failures.extend(twin.failures.iter().cloned());

    // whole-run percentiles (per-layer side) and quiet-window estimates
    // (end-to-end side) of the untraced run
    let smp = &plain.samples;
    let n_ticks = smp.tick_ns.len();
    let window = window_ticks(spec, n_ticks);
    let seen_ns: Vec<u64> = smp.steer_seen.iter().map(|(_, ns)| *ns).collect();
    let tick_p50 = median(&smp.tick_ns);
    let tick_p95 = percentile(&smp.tick_ns, 0.95);
    let seen_p50 = median(&seen_ns);
    let pause_p50 = median(&smp.pause_ns);
    let recover_p50 = median(&smp.recover_ns);
    let busy_ns_of = |r: std::ops::Range<usize>| smp.loop_ns[r].iter().sum::<u64>() as f64;
    let quiet_tick_ns = best_window(n_ticks, window, true, |r| {
        Some(median(&smp.tick_ns[r]).value)
    });
    let quiet_steps_per_s = best_window(n_ticks, window, false, |r| {
        Some((r.len() * spec.steps_per_tick) as f64 * 1e9 / busy_ns_of(r))
    });
    let quiet_frames_per_s = best_window(n_ticks, window, false, |r| {
        let frames: u64 = smp.frames[r.clone()].iter().map(|f| *f as u64).sum();
        Some(frames as f64 * 1e9 / busy_ns_of(r))
    });
    let quiet_seen_ns = best_window(n_ticks, window, true, |r| {
        let in_window: Vec<u64> = smp
            .steer_seen
            .iter()
            .filter(|(tick, _)| r.contains(&(*tick as usize)))
            .map(|(_, ns)| *ns)
            .collect();
        (!in_window.is_empty()).then(|| median(&in_window).value)
    });
    let twin_best_ns = twin.wall_ns.iter().copied().min().unwrap_or(0) as f64;

    let mut values: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut detail = vec![
        ("workload", text(spec.name)),
        ("seed", int(args.seed)),
        ("ticks", int(plain.counters.ticks)),
        ("digest", text(&format!("{:016x}", plain.digest))),
        ("twin_ticks", int(twin.ticks)),
        ("window_ticks", int(window as u64)),
        ("windows", int((n_ticks / window.max(1)) as u64)),
        ("timed_s", num(plain.busy_ns as f64 / 1e9)),
        // the whole-run median beside the quiet-window one, so a reader can
        // see what the estimator removed
        ("whole_run_tick_ms_p50", num(tick_p50.value / 1e6)),
        (
            "failures",
            Value::Array(failures.iter().take(8).map(|f| text(f)).collect()),
        ),
    ];
    // how many samples stand behind each percentile the tables quote
    let mut samples = vec![
        ("tick_ms_p50", median(&smp.tick_ns[..window.min(n_ticks)])),
        ("loop.tick_ms_p95", tick_p95),
        ("steer_seen_ms_p50", seen_p50),
        ("ckpt.pause_ms_p50", pause_p50),
        ("ckpt.recover_ms_p50", recover_p50),
    ];

    let table: &[MetricDef] = match (&traced, machine) {
        (Some(t), Some((calib, dispatch))) => {
            let is_lbm = matches!(spec.backend, Backend::Lbm { .. });
            let per_step = spec.steps_per_tick as f64;
            let p50 = |tr: &Tracer, k: Sp| median(tr.self_samples(k)).value;
            let med = |s: &[u64]| median(s).value;
            let c = &t.counters;
            let t_steps = (c.ticks * spec.steps_per_tick as u64) as f64;
            let mut put = |name: &'static str, v: f64| {
                values.insert(name, v);
            };
            let step_kind = if is_lbm { Sp::LbmStep } else { Sp::PepcStep };
            let step_ms = p50(&tr, step_kind) / 1e6 / per_step;
            let step_ms_t2 = p50(&tr_cross, step_kind) / 1e6 / per_step;
            if is_lbm {
                put("lbm.step_ms_p50", step_ms);
                put("lbm.steps", t_steps);
                put("lbm.bytes_per_step_computed", t.lbm_bytes_per_step as f64);
                put("lbm.step_ms_t2_p50", step_ms_t2);
                put("exec.speedup_lbm", step_ms / step_ms_t2);
            } else {
                put("pepc.step_ms_p50", step_ms);
                put("pepc.steps", t_steps);
                put("pepc.interactions_per_step", med(&t.samples.interactions));
            }
            put("exec.dispatch_us_p50", dispatch / 1e3);
            for (name, kind, scale) in [
                ("bus.steer.stage_us_p50.loopback", Sp::StageLoopback, 1e3),
                ("bus.steer.stage_us_p50.visit", Sp::StageVisit, 1e3),
                ("bus.steer.stage_us_p50.ogsa", Sp::StageOgsa, 1e3),
                ("bus.steer.stage_us_p50.covise", Sp::StageCovise, 1e3),
                ("bus.steer.stage_us_p50.unicore", Sp::StageUnicore, 1e3),
                ("bus.steer.commit_us_p50", Sp::Commit, 1e3),
                ("bus.steer.notify_drain_us_p50", Sp::NotifyDrain, 1e3),
                ("core.session_steer_us_p50", Sp::SessionSteer, 1e3),
                ("core.monitor_build_ms_p50", Sp::MonitorBuild, 1e6),
                ("bus.monitor.publish_ms_p50", Sp::MonitorPublish, 1e6),
                ("bus.monitor.recv_us_p50.visit", Sp::RecvVisit, 1e3),
                ("bus.monitor.recv_us_p50.ogsa", Sp::RecvOgsa, 1e3),
                ("bus.monitor.recv_us_p50.covise", Sp::RecvCovise, 1e3),
                ("bus.monitor.recv_us_p50.unicore", Sp::RecvUnicore, 1e3),
                ("bus.monitor.encode_us_p50", Sp::MonitorEncode, 1e3),
                ("bus.monitor.decode_us_p50", Sp::MonitorDecode, 1e3),
                ("bus.relay.ingest_ms_p50", Sp::RelayIngest, 1e6),
                ("bus.relay.recv_child_us_p50", Sp::RelayRecvChild, 1e3),
                ("viz.isosurface_ms_p50", Sp::VizIsosurface, 1e6),
                ("viz.raster_ms_p50", Sp::VizRaster, 1e6),
                ("viz.encode_ms_p50", Sp::VizEncode, 1e6),
                ("viz.decode_ms_p50", Sp::VizDecode, 1e6),
                ("netsim.deliver_us_p50", Sp::NetsimDeliver, 1e3),
                ("ckpt.save_ms_p50", Sp::CkptSave, 1e6),
                ("ckpt.encode_full_ms_p50", Sp::CkptEncodeFull, 1e6),
                ("ckpt.encode_delta_ms_p50", Sp::CkptEncodeDelta, 1e6),
                ("ckpt.decode_ms_p50", Sp::CkptDecode, 1e6),
                ("ckpt.restore_ms_p50", Sp::CkptRestore, 1e6),
            ] {
                put(name, p50(&tr, kind) / scale);
                samples.push((name, median(tr.self_samples(kind))));
            }
            put("bus.steer.cmds_staged", c.cmds_staged as f64);
            put("bus.steer.cmds_applied", c.cmds_applied as f64);
            put("bus.steer.cmds_refused", c.cmds_refused as f64);
            put("core.session_events", t.session_events as f64);
            put("bus.monitor.frames_published", t.frames_published as f64);
            put("bus.monitor.frames_delivered", t.monitor.delivered as f64);
            put("bus.monitor.decimated", t.monitor.decimated as f64);
            put("bus.monitor.filtered", t.monitor.filtered as f64);
            put("bus.monitor.shed", t.monitor.shed as f64);
            put("bus.relay.ingested", t.relay.ingested as f64);
            put("bus.relay.forwarded", t.relay.forwarded as f64);
            put("bus.relay.decimated", t.relay.decimated as f64);
            put("bus.relay.shed", t.relay.shed as f64);
            put(
                "bus.relay.keyframes_served",
                t.relay.keyframes_served as f64,
            );
            if t.relay.ingested > 0 {
                put(
                    "bus.relay.forward_ratio",
                    t.relay.forwarded as f64 / t.relay.ingested as f64,
                );
            }
            put("viz.triangles_per_frame", med(&t.samples.triangles));
            put("viz.bytes_per_frame", med(&t.samples.frame_wire_bytes));
            let wire: u64 = t.samples.frame_wire_bytes.iter().sum();
            if wire > 0 {
                let raw: u64 = t.samples.frame_raw_bytes.iter().sum();
                put("viz.compression_ratio", raw as f64 / wire as f64);
            }
            put("netsim.offered", t.links.0 as f64);
            put("netsim.delivered", t.links.1 as f64);
            put("netsim.dropped", t.links.2 as f64);
            // the tail and the two stalls a user sees: tracing off
            put("loop.tick_ms_p95", tick_p95.value / 1e6);
            put("ckpt.pause_ms_p50", pause_p50.value / 1e6);
            put("ckpt.recover_ms_p50", recover_p50.value / 1e6);
            let (full, delta) = (med(&t.samples.bytes_full), med(&t.samples.bytes_delta));
            put("ckpt.bytes_full", full);
            put("ckpt.bytes_delta", delta);
            if full > 0.0 {
                put("ckpt.delta_ratio", delta / full);
            }
            put("ckpt.cuts", c.cuts as f64);
            put("ckpt.restores", c.restores as f64);

            // what the traced loop's layers cost per tick, without the
            // Figure-1 branch the twin cannot express
            let groups = tr.group_ns();
            let layers_ns: u64 = groups
                .iter()
                .filter(|(g, _)| !matches!(*g, "viz" | "driver" | "uncovered"))
                .map(|(_, ns)| ns)
                .sum();
            let layer_ms_per_tick = layers_ns as f64 / 1e6 / c.ticks as f64;
            let twin_ms_per_tick = twin_best_ns / 1e6 / twin.ticks as f64;
            put("harness.scenario_ms_per_tick", twin_ms_per_tick);
            put(
                "harness.overhead_ms_per_tick",
                twin_ms_per_tick - layer_ms_per_tick,
            );
            put("harness.budget_violations", twin.budget_violations as f64);
            put("harness.probe_violations", twin.probe_violations as f64);
            let traced_p50 = med(&t.samples.tick_ns);
            put("trace.coverage_pct", tr.coverage_pct());
            put(
                "trace.overhead_pct",
                100.0 * (traced_p50 - tick_p50.value) / tick_p50.value,
            );
            put("trace.tick_ms_p50", traced_p50 / 1e6);
            put("trace.layer_ms_per_tick", layer_ms_per_tick);
            put("machine.calib_ms", calib);

            let total = tr.total_ns().max(1) as f64;
            detail.push((
                "shares_pct",
                Value::Object(
                    groups
                        .iter()
                        .map(|(g, ns)| (g.to_string(), num(100.0 * *ns as f64 / total)))
                        .collect(),
                ),
            ));
            &PER_LAYER
        }
        _ => {
            let setup_best_ns = setup_ns.iter().copied().min().unwrap_or(0);
            values.insert("setup_s", setup_best_ns as f64 / 1e9);
            values.insert("tick_ms_p50", quiet_tick_ns.unwrap_or(0.0) / 1e6);
            values.insert("steps_per_s", quiet_steps_per_s.unwrap_or(0.0));
            values.insert("viewer_frames_per_s", quiet_frames_per_s.unwrap_or(0.0));
            values.insert("steer_seen_ms_p50", quiet_seen_ns.unwrap_or(0.0) / 1e6);
            values.insert("scenario_wall_s", twin_best_ns / 1e9);
            values.insert("peak_rss_mb", rss_kb as f64 / 1024.0);
            &END_TO_END
        }
    };

    detail.push((
        "samples",
        obj(samples
            .iter()
            .map(|(name, p)| (*name, pct_detail(*p)))
            .collect()),
    ));
    let metrics: Vec<(MetricDef, f64)> = table
        .iter()
        .map(|d| (*d, values.remove(d.name).unwrap_or(0.0)))
        .collect();
    assert!(
        values.is_empty(),
        "metrics computed but not in the table: {:?}",
        values.keys()
    );
    Outcome {
        attempted,
        failed: (failures.len() as u64).min(attempted),
        metrics,
        samples,
        detail: obj(detail),
    }
}
