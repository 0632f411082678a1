//! The four workloads, as data. `world.rs` builds and drives any of them;
//! `twin.rs` turns the same description into a `Scenario`.
//!
//! Sizes are fixed; only tick counts scale with `--seconds`, through
//! `ticks_per_second`, which was calibrated on the reference box (one pool
//! worker) so that a run measures about `--seconds` seconds or a little
//! less. A run's tick count is
//! therefore the same on every machine, and so are its counts and digests.

use crate::load::SteerRange;
use gridsteer_bus::Transport;

#[derive(Debug, Clone, Copy)]
pub enum Backend {
    /// Two-fluid LBM on an `n`³ lattice.
    Lbm { n: usize },
    /// PEPC plasma with `n_target` particles.
    Pepc { n_target: usize },
}

#[derive(Debug, Clone, Copy)]
pub struct ParticipantSpec {
    pub name: &'static str,
    pub transport: Transport,
}

#[derive(Debug, Clone, Copy)]
pub struct ViewerSpec {
    pub name: &'static str,
    pub transport: Transport,
    /// Relay tier the viewer hangs off (`None` = the origin hub).
    pub relay: Option<&'static str>,
    /// Injected loss on the viewer's link, ppm.
    pub loss_ppm: u32,
    /// Offer a scalar-only capability set (a thin series plotter).
    pub scalars_only: bool,
}

#[derive(Debug, Clone, Copy)]
pub struct RelaySpec {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    /// Forward every Nth ingested frame (keyframes always pass).
    pub every: u32,
}

#[derive(Debug, Clone, Copy)]
pub struct SteerPlan {
    /// Stage on every Nth tick.
    pub every: u32,
    /// Batches each shard's master stages on a steering tick.
    pub batches_per_shard: usize,
    pub cmds_per_batch: usize,
    pub ranges: &'static [SteerRange],
    /// Rotate each shard's master token every N ticks.
    pub pass_master_every: Option<u32>,
}

#[derive(Debug, Clone, Copy)]
pub struct CkptPlan {
    /// Cut a process checkpoint at the end of every Nth tick.
    pub cut_every: u32,
    /// Crash and restore after every Nth tick (a multiple of
    /// `cut_every`, so a recovery replays the same chain shape each time).
    pub crash_every: u32,
}

/// A demixed starting state for the Figure-1 branch: the LBM runs `steps`
/// steps fully immiscible before anyone attaches, so the isosurface the
/// viewers watch is the steady domain wall, not the noisy transient of the
/// first few hundred steps. Part of `setup_s`.
///
/// The initial noise comes from `seed`, not from `--seed`: which wall a 16³
/// box demixes into (two flat walls, a diagonal pair, a single sheet) is
/// decided by that noise, and the triangle count differs by a quarter and
/// the bytes per rendered frame threefold between them. How much there is
/// to render is a property of the workload, so it is fixed here; `--seed`
/// still drives the steered values and every link's fault stream.
#[derive(Debug, Clone, Copy)]
pub struct Preroll {
    pub seed: u64,
    pub steps: usize,
}

#[derive(Debug, Clone)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists — one line, also in `BENCHMARK.json`.
    pub why: &'static str,
    pub backend: Backend,
    pub steps_per_tick: usize,
    /// Timed ticks per `--seconds` second (see the module docs).
    pub ticks_per_second: u32,
    pub preroll: Option<Preroll>,
    /// Untimed ticks after the build; part of `setup_s`.
    pub warmup_ticks: u32,
    /// Builds + warm-ups per invocation; `setup_s` is the fastest. A fixed
    /// count, so the allocator has seen the same history when `peak_rss_mb`
    /// is read.
    pub setups: usize,
    /// Sample ticks of the `Scenario::run()` twin.
    pub twin_ticks: u32,
    /// Ticks after which the mix of tick kinds repeats (steering ticks,
    /// cut ticks, whose turn it is to hold the master token, keyframes).
    pub cycle_ticks: u32,
    pub shards: usize,
    pub participants: Vec<ParticipantSpec>,
    pub steer: SteerPlan,
    pub relays: Vec<RelaySpec>,
    pub viewers: Vec<ViewerSpec>,
    /// `(relay, from_tick, to_tick)`: the relay's uplink is partitioned
    /// for ticks in `from..to`.
    pub partition: Option<(&'static str, u32, u32)>,
    /// Run the Figure-1 branch: isosurface → raster → delta+RLE → hub.
    pub viz: bool,
    pub ckpt: Option<CkptPlan>,
}

/// Well below the demixing threshold (about 0.55 at the default coupling):
/// every steer keeps the two fluids separated, so the domain wall the
/// viewers watch moves but never dissolves.
const MISCIBILITY: [SteerRange; 1] = [SteerRange {
    param: "miscibility",
    lo: 0.05,
    hi: 0.35,
}];

/// Small bands: the laser heats every particle and the beam knobs only
/// act on injected beam particles, so the plasma stays a compact target
/// and the tree (hence the step cost) does not drift with the seed.
const PLASMA: [SteerRange; 3] = [
    SteerRange {
        param: "laser_amplitude",
        lo: 0.0,
        hi: 0.02,
    },
    SteerRange {
        param: "beam_intensity",
        lo: 0.0,
        hi: 1.0,
    },
    SteerRange {
        param: "beam_theta",
        lo: -1.0,
        hi: 1.0,
    },
];

fn viewer(name: &'static str, transport: Transport) -> ViewerSpec {
    ViewerSpec {
        name,
        transport,
        relay: None,
        loss_ppm: 0,
        scalars_only: false,
    }
}

/// The workloads, in the order every table prints them.
pub fn specs() -> Vec<Spec> {
    let storm_names = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];
    vec![
        Spec {
            name: "sim_heavy",
            why: "LBM 48^3, 3 steps/tick: lbm+exec dominate the tick, so a kernel or thread-scaling change shows at nearly full strength and a bus, viz or ckpt change must show nothing",
            backend: Backend::Lbm { n: 48 },
            steps_per_tick: 3,
            ticks_per_second: 11,
            preroll: None,
            warmup_ticks: 2,
            setups: 5,
            twin_ticks: 12,
            cycle_ticks: 3,
            shards: 1,
            participants: vec![ParticipantSpec {
                name: "alice",
                transport: Transport::Visit,
            }],
            steer: SteerPlan {
                every: 3,
                batches_per_shard: 1,
                cmds_per_batch: 1,
                ranges: &MISCIBILITY,
                pass_master_every: None,
            },
            relays: vec![],
            viewers: vec![viewer("desk", Transport::Loopback)],
            partition: None,
            viz: false,
            ckpt: None,
        },
        Spec {
            name: "viz_fanout",
            why: "LBM 16^3 with the Figure-1 branch, 8 viewers over 4 middlewares and a 2-tier relay under loss and a partition: the data plane does most of the work, the mirror image of sim_heavy",
            backend: Backend::Lbm { n: 16 },
            steps_per_tick: 1,
            ticks_per_second: 120,
            // seed 2003 demixes into two flat walls (3600 triangles)
            preroll: Some(Preroll {
                seed: 2003,
                steps: 400,
            }),
            warmup_ticks: 50,
            setups: 4,
            twin_ticks: 400,
            cycle_ticks: crate::world::KEYFRAME_INTERVAL as u32,
            shards: 1,
            participants: vec![ParticipantSpec {
                name: "alice",
                transport: Transport::Loopback,
            }],
            steer: SteerPlan {
                every: 5,
                batches_per_shard: 1,
                cmds_per_batch: 1,
                ranges: &MISCIBILITY,
                pass_master_every: None,
            },
            relays: vec![
                RelaySpec {
                    name: "region",
                    parent: None,
                    every: 1,
                },
                RelaySpec {
                    name: "edge",
                    parent: Some("region"),
                    every: 2,
                },
            ],
            viewers: vec![
                viewer("o-visit", Transport::Visit),
                viewer("o-ogsa", Transport::Ogsa),
                ViewerSpec {
                    loss_ppm: 400_000,
                    ..viewer("o-covise", Transport::Covise)
                },
                viewer("o-unicore", Transport::Unicore),
                ViewerSpec {
                    relay: Some("region"),
                    ..viewer("r-visit", Transport::Visit)
                },
                ViewerSpec {
                    relay: Some("region"),
                    ..viewer("r-ogsa", Transport::Ogsa)
                },
                ViewerSpec {
                    relay: Some("edge"),
                    ..viewer("e-covise", Transport::Covise)
                },
                ViewerSpec {
                    relay: Some("edge"),
                    ..viewer("e-unicore", Transport::Unicore)
                },
            ],
            partition: Some(("region", 300, 340)),
            viz: true,
            ckpt: None,
        },
        Spec {
            name: "steer_storm",
            why: "PEPC n=100, 8 participants over all 5 transports in 2 shards staging 64 commands a tick: the bus in the write direction, and the only workload where stage/commit/audit is a visible share of the tick",
            backend: Backend::Pepc { n_target: 100 },
            steps_per_tick: 1,
            ticks_per_second: 2000,
            preroll: None,
            warmup_ticks: 2000,
            setups: 5,
            twin_ticks: 3000,
            cycle_ticks: 200,
            shards: 2,
            participants: storm_names
                .iter()
                .enumerate()
                .map(|(i, name)| ParticipantSpec {
                    name,
                    transport: Transport::ALL[i % Transport::ALL.len()],
                })
                .collect(),
            steer: SteerPlan {
                every: 1,
                batches_per_shard: 8,
                cmds_per_batch: 4,
                ranges: &PLASMA,
                pass_master_every: Some(50),
            },
            relays: vec![],
            viewers: vec![ViewerSpec {
                scalars_only: true,
                ..viewer("plot", Transport::Visit)
            }],
            partition: None,
            viz: false,
            ckpt: None,
        },
        Spec {
            name: "ckpt_recover",
            why: "LBM 32^3, a process checkpoint every 3rd tick and a crash+restore every 30: ckpt encode, decode and restore side by side with every LBM chunk dirty, the delta traffic the harness really generates",
            backend: Backend::Lbm { n: 32 },
            steps_per_tick: 1,
            ticks_per_second: 60,
            preroll: None,
            // one whole crash cycle, so the restore path is warm too
            warmup_ticks: 30,
            setups: 5,
            twin_ticks: 120,
            cycle_ticks: 30,
            shards: 1,
            participants: vec![ParticipantSpec {
                name: "alice",
                transport: Transport::Visit,
            }],
            steer: SteerPlan {
                every: 5,
                batches_per_shard: 1,
                cmds_per_batch: 1,
                ranges: &MISCIBILITY,
                pass_master_every: None,
            },
            relays: vec![RelaySpec {
                name: "site",
                parent: None,
                every: 1,
            }],
            viewers: vec![
                ViewerSpec {
                    relay: Some("site"),
                    ..viewer("leaf", Transport::Visit)
                },
                viewer("direct", Transport::Covise),
            ],
            partition: None,
            viz: false,
            ckpt: Some(CkptPlan {
                cut_every: 3,
                crash_every: 30,
            }),
        },
    ]
}

/// Look a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    specs().into_iter().find(|s| s.name == name)
}
