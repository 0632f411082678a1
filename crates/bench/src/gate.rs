//! The perf-regression gate: snapshot format, measured workloads, and the
//! baseline comparison CI enforces.
//!
//! The experiments' `EXP_*.json` rows embed their own wall-clock
//! numbers, so their digests change run to run — useless for an exact
//! compare. The gate uses its own snapshot shape (`BENCH_*.json`) instead,
//! keeping the two concerns separate per cell:
//!
//! * `wall_us` — the timing, compared *ratiometrically* against the
//!   committed baseline. Raw ratios would gate on machine speed, so every
//!   cell's `current/baseline` ratio is normalized by the **global median
//!   ratio across all cells of all snapshots**: a uniformly slower CI
//!   runner shifts every ratio equally and normalizes out, while one
//!   regressed kernel stands out against the fleet. The threshold is
//!   [`MAX_REGRESSION`] (>25% per-cell normalized wall regression fails).
//! * `digest` — an FNV-1a 64 fingerprint of the workload's *results*
//!   (distribution bits, delivered-frame bytes), with no timing folded
//!   in. Compared byte-exactly: any drift is a determinism break, not a
//!   perf question, and fails the gate outright.
//!
//! [`snapshot_all`] runs the gated workloads of [`GATES`] — LBM collide/stream
//! (the scalar×SIMD / 1×8-thread matrix, whose four digests must agree),
//! the exec-pool chunk kernel, the monitor publish path, the payload
//! build alone and one delivery through each middleware adapter, hub
//! fan-out over encoding subscribers, the checkpoint codec (section
//! save, full encode, delta encode, decode + restore),
//! the steering commit (64 commands through a session, watched by eight
//! subscribers and by none), and the Figure-1 frame (raster, delta encode
//! and delta decode of `viz_fanout`'s scene).

use crate::{fnv_fold as fold, FNV_OFFSET};
use gridsteer_bus::{
    FrameChunk, MonitorCaps, MonitorEndpoint, MonitorError, MonitorFrame, MonitorHub,
};
use serde::{Deserialize, Serialize};
use std::path::Path;
use std::time::Instant;

/// Maximum tolerated normalized per-cell wall ratio (1.25 = +25%).
pub const MAX_REGRESSION: f64 = 1.25;

/// One measured cell: a named workload configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateCell {
    /// Cell name, stable across runs (e.g. `collide_t8_simd`).
    pub cell: String,
    /// Mean wall time per unit of work, microseconds.
    pub wall_us: f64,
    /// FNV-1a 64 of the workload's result bits — no timing folded in.
    pub digest: String,
}

/// One snapshot file (`BENCH_<id>.json`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GateReport {
    /// Snapshot id: a row of [`GATES`].
    pub id: String,
    /// Measured cells, in a fixed order.
    pub cells: Vec<GateCell>,
}

/// One row of the gate table.
pub struct Gate {
    /// Snapshot id: `BENCH_<id>.json` here and under `baselines/`.
    pub id: &'static str,
    /// Measures the workload's cells.
    pub cells: fn() -> Vec<GateCell>,
}

/// The gate table, in run order. [`snapshot_all`] and [`compare`] walk
/// this and nothing else; every row has a committed
/// `baselines/BENCH_<id>.json`.
pub const GATES: &[Gate] = &[
    Gate {
        id: "lbm",
        cells: snap_lbm,
    },
    Gate {
        id: "pool",
        cells: snap_pool,
    },
    Gate {
        id: "monitor",
        cells: snap_monitor,
    },
    Gate {
        id: "fanout",
        cells: snap_fanout,
    },
    Gate {
        id: "ckpt",
        cells: snap_ckpt,
    },
    Gate {
        id: "steer",
        cells: snap_steer,
    },
    Gate {
        id: "viz",
        cells: snap_viz,
    },
];

/// Run every gated workload, in [`GATES`] order.
pub fn snapshot_all() -> impl Iterator<Item = GateReport> {
    GATES.iter().map(|g| GateReport {
        id: g.id.to_string(),
        cells: (g.cells)(),
    })
}

fn hex(h: u64) -> String {
    format!("{h:016x}")
}

/// The snapshot file of gate `id`.
pub fn json_name(id: &str) -> String {
    format!("BENCH_{id}.json")
}

/// Write `BENCH_<id>.json` into `dir`.
pub fn write_report(dir: &Path, report: &GateReport) -> std::io::Result<()> {
    let body = serde_json::to_string(report).expect("gate report serializes");
    std::fs::write(dir.join(json_name(&report.id)), body + "\n")
}

/// Read `BENCH_<id>.json` from `dir`.
pub fn read_report(dir: &Path, id: &str) -> Result<GateReport, String> {
    let path = dir.join(json_name(id));
    let body = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&body).map_err(|e| format!("{}: {e}", path.display()))
}

// ---------------------------------------------------------------------------
// workloads
// ---------------------------------------------------------------------------

/// LBM collide/stream over the {scalar, SIMD} × {1, 8 threads} matrix.
/// All four digests fold the full post-run distribution bits and must be
/// identical — the determinism contract extended to the SIMD axis.
fn snap_lbm() -> Vec<GateCell> {
    const STEPS: usize = 12;
    let mut cells = Vec::new();
    for &threads in &[1usize, 8] {
        for &backend in &[lanes::Backend::Scalar, lanes::Backend::Simd] {
            let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
                nx: 32,
                ny: 32,
                nz: 32,
                threads,
                ..Default::default()
            });
            sim.set_backend(backend);
            sim.step_n(2); // warm caches and the pool
            let t0 = Instant::now();
            sim.step_n(STEPS);
            let wall_us = t0.elapsed().as_secs_f64() * 1e6 / STEPS as f64;
            cells.push(GateCell {
                cell: format!("collide_stream_t{threads}_{}", backend.label()),
                wall_us,
                digest: hex(lbm_state_digest(&sim)),
            });
        }
    }
    let first = cells[0].digest.clone();
    assert!(
        cells.iter().all(|c| c.digest == first),
        "LBM digests diverged across the thread × backend matrix: {cells:?}"
    );
    cells
}

/// FNV-1a 64 over the solver's `lbm/fa` + `lbm/fb` checkpoint sections:
/// the bits of every distribution, component A then B.
fn lbm_state_digest(sim: &lbm::TwoFluidLbm) -> u64 {
    let mut snap = gridsteer_ckpt::Snapshot::new(0, 0);
    sim.save_sections(&mut snap);
    [lbm::SEC_LBM_FA, lbm::SEC_LBM_FB]
        .iter()
        .fold(FNV_OFFSET, |h, name| {
            fold(h, snap.section(name).expect("saved by save_sections"))
        })
}

/// The exec-pool deterministic chunk kernel at 8 workers.
fn snap_pool() -> Vec<GateCell> {
    const N: usize = 1 << 16;
    const ROUNDS: usize = 40;
    let pool = gridsteer_exec::shared(8);
    let mut data: Vec<f64> = (0..N).map(|i| (i as f64).sin()).collect();
    // warm-up round
    pool.parallel_chunks(&mut data, 1024, |ci, slot| {
        for (k, v) in slot.iter_mut().enumerate() {
            *v = (*v * 1.000001 + (ci * 1024 + k) as f64 * 1e-9).sqrt();
        }
    });
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        pool.parallel_chunks(&mut data, 1024, |ci, slot| {
            for (k, v) in slot.iter_mut().enumerate() {
                *v = (*v * 1.000001 + (ci * 1024 + k) as f64 * 1e-9).sqrt();
            }
        });
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let mut h = FNV_OFFSET;
    for v in &data {
        h = fold(h, &v.to_bits().to_le_bytes());
    }
    vec![GateCell {
        cell: "chunks_t8".into(),
        wall_us,
        digest: hex(h),
    }]
}

/// A subscriber that digests delivered frames in place, storing nothing —
/// the measured viewer for the monitor and fan-out snapshots.
struct FoldSink {
    caps: MonitorCaps,
    digest: u64,
}

impl FoldSink {
    fn new() -> FoldSink {
        FoldSink {
            caps: MonitorCaps::full("fold", 64),
            digest: FNV_OFFSET,
        }
    }
}

impl MonitorEndpoint for FoldSink {
    fn transport(&self) -> &'static str {
        "fold"
    }

    fn negotiate(&mut self, viewer: &MonitorCaps) -> MonitorCaps {
        self.caps = self.caps.intersect(viewer);
        self.caps.clone()
    }

    fn deliver(&mut self, chunk: &FrameChunk<'_>) -> Result<usize, MonitorError> {
        use gridsteer_bus::MonitorPayload;
        for f in chunk.iter() {
            self.digest = fold(self.digest, &f.seq.to_le_bytes());
            match &f.payload {
                MonitorPayload::Scalar { value, .. } => {
                    self.digest = fold(self.digest, &value.to_bits().to_le_bytes());
                }
                MonitorPayload::Vec3 { value, .. } => {
                    for c in value {
                        self.digest = fold(self.digest, &c.to_bits().to_le_bytes());
                    }
                }
                MonitorPayload::Grid2 { data, .. } | MonitorPayload::Grid3 { data, .. } => {
                    for v in data.iter() {
                        self.digest = fold(self.digest, &v.to_bits().to_le_bytes());
                    }
                }
                MonitorPayload::Frame { data, .. } => {
                    self.digest = fold(self.digest, data);
                }
            }
        }
        Ok(chunk.len())
    }

    fn recv(&mut self) -> Vec<MonitorFrame<'static>> {
        Vec::new()
    }
}

/// The monitor publish path — the LBM 16³ surface built into a retained
/// scratch and fanned out as borrowed payloads, the one path there is —
/// then the warm payload build alone at 32³ (`payloads_into_cell`) and the
/// four adapter cells of `deliver_cells`.
fn snap_monitor() -> Vec<GateCell> {
    use steer_core::{MonitorScratch, MonitorSource};
    const PUBLISHES: usize = 60;
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);
    let hub = MonitorHub::new();
    hub.attach_endpoint(
        "viewer",
        Box::new(FoldSink::new()),
        &MonitorCaps::full("viewer", 64),
    );
    let mut scratch = MonitorScratch::default();
    let mut publish =
        || hub.publish_batch(sim.monitor_step(), sim.monitor_payloads_into(&mut scratch));
    // warm-up publish (scratch takes capacity, hub takes shape)
    publish();
    let t0 = Instant::now();
    for _ in 0..PUBLISHES {
        publish();
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / PUBLISHES as f64;
    // fold the delivered-frame accounting, not the sink's internal
    // digest (seq numbers differ between runs of different lengths
    // only if the schedule drifted — which is exactly what to catch)
    let stats = hub.stats_of("viewer").expect("viewer attached");
    let mut h = FNV_OFFSET;
    h = fold(h, &stats.delivered.to_le_bytes());
    h = fold(h, &stats.errors.to_le_bytes());
    let mut cells = vec![GateCell {
        cell: "publish_borrowed".into(),
        wall_us,
        digest: hex(h),
    }];
    cells.push(payloads_into_cell());
    cells.extend(deliver_cells(&sim));
    cells
}

/// One warm `monitor_payloads_into` of the LBM at 32³ — what the engine
/// pays after every step to name its six monitored channels, before any
/// frame is encoded. The digest folds the six payloads' canonical frame
/// bytes.
fn payloads_into_cell() -> GateCell {
    use steer_core::{MonitorScratch, MonitorSource};
    const ROUNDS: usize = 40;
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 32,
        ny: 32,
        nz: 32,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);
    let mut scratch = MonitorScratch::default();
    sim.monitor_payloads_into(&mut scratch); // the scratch takes capacity
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        std::hint::black_box(sim.monitor_payloads_into(&mut scratch));
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let digest = sim
        .monitor_payloads_into(&mut scratch)
        .into_iter()
        .zip(1u64..)
        .fold(FNV_OFFSET, |h, (payload, seq)| {
            let frame = MonitorFrame {
                seq,
                step: sim.monitor_step(),
                payload,
            };
            fold(
                h,
                &frame.try_to_bytes().expect("the surface fits the codec"),
            )
        });
    GateCell {
        cell: "payloads_into_32c".into(),
        wall_us,
        digest: hex(digest),
    }
}

/// One `deliver` + `recv` of the LBM 16³ publish set (three scalars, a
/// vec3, the 16² mid-plane and the 16³ field — what loopbench's
/// `viz_fanout` publishes every tick) through each middleware adapter.
/// The reference encoding is filled once up front, as the hub shares it
/// across a publish's subscribers, so a cell times the adapter's own hop:
/// the mean round of the fastest of five batches, because a 10 µs cell
/// measured for a millisecond is at the mercy of one scheduling burst.
/// Each digest folds the frames `recv` returned and must equal what
/// loopback returns for the kinds that adapter negotiated.
fn deliver_cells(sim: &lbm::TwoFluidLbm) -> Vec<GateCell> {
    use gridsteer_bus::{FrameBytesCell, Transport};
    use steer_core::{MonitorScratch, MonitorSource};
    const BATCHES: usize = 5;
    const ROUNDS: usize = 100;
    let mut scratch = MonitorScratch::default();
    let frames: Vec<MonitorFrame> = sim
        .monitor_payloads_into(&mut scratch)
        .into_iter()
        .zip(1u64..)
        .map(|(payload, seq)| MonitorFrame {
            seq,
            step: sim.monitor_step(),
            payload,
        })
        .collect();
    let cache = vec![FrameBytesCell::new(); frames.len()];
    let all: Vec<usize> = (0..frames.len()).collect();
    let whole = FrameChunk::new(&frames, &cache, &all);
    for i in 0..whole.len() {
        whole
            .frame_bytes(i)
            .expect("the publish set fits the codec");
    }
    let viewer = MonitorCaps::full("viewer", 64);
    let digest_of =
        |received: &[MonitorFrame]| received.iter().fold(FNV_OFFSET, |h, f| f.fold_fnv(h));
    [
        Transport::Visit,
        Transport::Ogsa,
        Transport::Covise,
        Transport::Unicore,
    ]
    .into_iter()
    .map(|transport| {
        let mut ep = transport.attach_monitor("snap");
        let kinds = ep.negotiate(&viewer).kinds;
        let picks: Vec<usize> = (0..frames.len())
            .filter(|&i| kinds.contains(&frames[i].payload.kind()))
            .collect();
        let chunk = FrameChunk::new(&frames, &cache, &picks);
        let round = |ep: &mut dyn MonitorEndpoint| {
            ep.deliver(&chunk).expect("adapter carries its own kinds");
            ep.recv()
        };
        let received = round(ep.as_mut()); // warm-up
        let wall_us = (0..BATCHES)
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..ROUNDS {
                    std::hint::black_box(round(ep.as_mut()));
                }
                t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
            })
            .fold(f64::INFINITY, f64::min);
        let reference = round(Transport::Loopback.attach_monitor("snap").as_mut());
        assert_eq!(
            digest_of(&received),
            digest_of(&reference),
            "{} received different frames than loopback",
            transport.label()
        );
        GateCell {
            cell: format!("deliver_{}_16c", transport.label()),
            wall_us,
            digest: hex(digest_of(&received)),
        }
    })
    .collect()
}

/// Hub fan-out to UNICORE subscribers, whose staged-file payloads force a
/// real frame encode — the workload the encode-once chunk cache serves.
/// The digest folds every subscriber's received frames' canonical bytes.
fn snap_fanout() -> Vec<GateCell> {
    const SUBS: usize = 4;
    const PUBLISHES: usize = 30;
    let hub = MonitorHub::new();
    for s in 0..SUBS {
        hub.attach_endpoint(
            &format!("viewer{s}"),
            gridsteer_bus::Transport::Unicore.attach_monitor("snap"),
            &MonitorCaps::full("viewer", 64),
        );
    }
    let grid: Vec<f32> = (0..32 * 32).map(|i| (i as f32).cos()).collect();
    let publish = |step: u64| {
        hub.publish_batch(
            step,
            vec![
                gridsteer_bus::MonitorPayload::scalar("demix", 0.25 + step as f64),
                gridsteer_bus::MonitorPayload::grid2_borrowed("phi_mid", 32, 32, &grid),
            ],
        )
    };
    publish(0); // warm-up
    let t0 = Instant::now();
    for step in 1..=PUBLISHES as u64 {
        publish(step);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / PUBLISHES as f64;
    let mut h = FNV_OFFSET;
    for s in 0..SUBS {
        for frame in hub.recv(&format!("viewer{s}")) {
            h = fold(h, &frame.try_to_bytes().expect("canonical frame bytes"));
        }
    }
    vec![GateCell {
        cell: format!("unicore_subs{SUBS}_batched"),
        wall_us,
        digest: hex(h),
    }]
}

/// The checkpoint codec over a demo-scale LBM field (32³): laying the
/// solver state into sections, full-snapshot encode, delta encode after
/// one more step, and full decode + restore. Digests fold the section
/// bytes (save), the encoded blob bytes (full/delta) and the restored
/// field's distribution bits (restore) — all byte-stable for a fixed
/// field, so any drift is a codec determinism break.
fn snap_ckpt() -> Vec<GateCell> {
    use gridsteer_ckpt::Snapshot;
    const ROUNDS: usize = 8;
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 32,
        ny: 32,
        nz: 32,
        threads: 1,
        ..Default::default()
    });
    sim.step_n(2);
    let mut base = Snapshot::new(0, 0);
    sim.save_sections(&mut base);
    sim.step_n(1);
    let mut next = Snapshot::new(1, 1);
    sim.save_sections(&mut next);
    let mut cells = Vec::new();
    // laying the solver state into sections (two fresh 5 MB buffers a
    // round: in this process the wall is mostly their page faults)
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        next = Snapshot::new(1, 1);
        sim.save_sections(&mut next);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    let section_bytes = next.sections.iter().map(|s| s.bytes.as_slice());
    cells.push(GateCell {
        cell: "save_sections_32c".into(),
        wall_us,
        digest: hex(section_bytes.fold(FNV_OFFSET, fold)),
    });
    // full encode
    let blob = base.encode(); // warm-up
    let t0 = Instant::now();
    let mut full = blob;
    for _ in 0..ROUNDS {
        full = base.encode();
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    cells.push(GateCell {
        cell: "encode_full_32c".into(),
        wall_us,
        digest: hex(fold(FNV_OFFSET, &full)),
    });
    // delta encode against the previous cut
    let mut delta = next.encode_delta(&base); // warm-up
    let t0 = Instant::now();
    for _ in 0..ROUNDS {
        delta = next.encode_delta(&base);
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    cells.push(GateCell {
        cell: "encode_delta_32c".into(),
        wall_us,
        digest: hex(fold(FNV_OFFSET, &delta)),
    });
    // decode + restore into a fresh simulation
    let restored = lbm::TwoFluidLbm::from_snapshot(&Snapshot::decode(&full).unwrap()).unwrap();
    let t0 = Instant::now();
    let mut restored = restored;
    for _ in 0..ROUNDS {
        let decoded = Snapshot::decode(&full).expect("gate blob decodes");
        restored = lbm::TwoFluidLbm::from_snapshot(&decoded).expect("gate blob restores");
    }
    let wall_us = t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64;
    cells.push(GateCell {
        cell: "decode_restore_32c".into(),
        wall_us,
        digest: hex(lbm_state_digest(&restored)),
    });
    cells
}

/// The steering write path as `steer_storm` drives it, without the
/// simulation: one tick stages 16 batches of 4 commands over loopback,
/// commits them through a [`SteeringSession`](steer_core::SteeringSession)
/// (role check, registry write, audit entry) and drains every subscriber.
/// Two cells — eight subscribers watching, and none (the harness's case:
/// no commit record is built). A cell times the mean tick of the fastest
/// of five batches. Each digest folds the final registry values, the
/// notices drained and the session's event count — no timing.
fn snap_steer() -> Vec<GateCell> {
    use gridsteer_bus::{SteerCommand, SteerHub, Transport};
    use steer_core::{ParamSpec, SteeringSession};
    const PARAMS: [&str; 4] = ["beam_theta", "damping", "laser_a0", "theta"];
    const BATCHES: u64 = 16;
    const ROUNDS: u64 = 200;
    const TIMED: usize = 5;
    [8usize, 0]
        .into_iter()
        .map(|watchers| {
            let hub = SteerHub::new(PARAMS.map(|p| ParamSpec::f64(p, 0.0, 1.0, 0.5)).to_vec());
            let mut session = SteeringSession::with_registry(hub.registry());
            session.join("alice");
            let mut ep = Transport::Loopback.attach(&hub, "alice");
            let subs: Vec<_> = (0..watchers).map(|_| ep.subscribe()).collect();
            let mut staged = 0u64;
            let mut notices = 0u64;
            let mut tick = || {
                for _ in 0..BATCHES {
                    let cmds = PARAMS
                        .iter()
                        .map(|p| {
                            staged += 1;
                            SteerCommand::f64(p, (staged % 1000) as f64 / 1000.0)
                        })
                        .collect();
                    ep.set_batch(cmds).expect("loopback stages");
                }
                hub.commit_with(|batch, cmd| {
                    let idx = session.index_of(&batch.origin).ok_or("sender left")?;
                    session.steer_value(idx, &cmd.param, &cmd.value)
                });
                for sub in &subs {
                    notices += sub.drain().len() as u64;
                }
            };
            tick(); // warm-up
            let wall_us = (0..TIMED)
                .map(|_| {
                    let t0 = Instant::now();
                    for _ in 0..ROUNDS {
                        tick();
                    }
                    t0.elapsed().as_secs_f64() * 1e6 / ROUNDS as f64
                })
                .fold(f64::INFINITY, f64::min);
            let mut h = FNV_OFFSET;
            for p in PARAMS {
                let v = hub.get(p).and_then(|v| v.as_f64()).expect("declared f64");
                h = fold(h, &v.to_bits().to_le_bytes());
            }
            h = fold(h, &notices.to_le_bytes());
            h = fold(h, &session.audit_log().total().to_le_bytes());
            GateCell {
                cell: format!("commit_64c_{watchers}subs"),
                wall_us,
                digest: hex(h),
            }
        })
        .collect()
}

/// The side of `viz_fanout`'s square render target.
const VIZ_SIZE: usize = 256;

/// One `viz_fanout` frame of `mesh` (an isosurface of its 16³ lattice):
/// the workload's camera outside a corner, its clear and surface colours,
/// a fresh rasterizer as the loop makes one per frame.
fn viz_fanout_frame(pool: &gridsteer_exec::ExecPool, mesh: &viz::TriMesh) -> viz::Framebuffer {
    use viz::{Camera, Rasterizer, Vec3};
    let n = 16.0;
    let cam = Camera::look_at(
        Vec3::new(2.2 * n, 1.7 * n, -1.4 * n),
        Vec3::new(0.5 * n, 0.5 * n, 0.5 * n),
    );
    let mut r = Rasterizer::new(VIZ_SIZE, VIZ_SIZE);
    r.clear([10, 10, 30, 255]);
    r.draw_mesh_with(pool, &cam, mesh, [90, 170, 230, 255]);
    r.into_framebuffer()
}

/// The Figure-1 branch as loopbench's `viz_fanout` runs it, on a one-wide
/// pool as loopbench does: LBM 16³ (seed 2003, 400 steps at miscibility 0
/// — the workload's preroll), its φ = 0 isosurface (3 600 triangles)
/// rendered from the workload's camera into 256² (`raster_16c_3600t`:
/// rasterizer, clear and draw, as the `viz.raster` span times them), then
/// the delta stream of that scene — the frames of the next `STREAM` steps
/// at miscibility 0.2, the middle of the steered range — encoded after a
/// keyframe (`encode_delta_256`) and decoded in order
/// (`decode_delta_256`), one delta frame per unit. A cell is the mean of
/// the fastest of five batches. Digests fold the rendered framebuffer,
/// the stream's payload bytes and the decoded framebuffers.
fn snap_viz() -> Vec<GateCell> {
    use viz::{DeltaRleCodec, Framebuffer};
    const STREAM: usize = 16;
    const ROUNDS: usize = 20;
    const BATCHES: usize = 5;
    let pool = gridsteer_exec::shared(1);
    let mut sim = lbm::TwoFluidLbm::new(lbm::LbmConfig {
        nx: 16,
        ny: 16,
        nz: 16,
        seed: 2003,
        threads: 1,
        ..Default::default()
    });
    sim.set_miscibility(0.0);
    sim.step_n(400);
    let surface =
        |sim: &lbm::TwoFluidLbm| viz::mc::isosurface_with(&pool, &sim.order_parameter(), 0.0);
    let draw = |mesh: &viz::TriMesh| viz_fanout_frame(&pool, mesh);
    // the fastest of five batches, in µs per unit; `batch` returns seconds
    let fastest = |units: usize, batch: &mut dyn FnMut() -> f64| {
        (0..BATCHES)
            .map(|_| batch() * 1e6 / units as f64)
            .fold(f64::INFINITY, f64::min)
    };

    let mesh = surface(&sim);
    assert_eq!(mesh.tri_count(), 3600, "viz_fanout's scene changed");
    let frame = draw(&mesh); // warm-up
    let raster_us = fastest(ROUNDS, &mut || {
        let t0 = Instant::now();
        for _ in 0..ROUNDS {
            std::hint::black_box(draw(&mesh));
        }
        t0.elapsed().as_secs_f64()
    });

    sim.set_miscibility(0.2);
    let mut frames: Vec<Framebuffer> = vec![frame];
    for _ in 0..STREAM {
        sim.step_n(1);
        frames.push(draw(&surface(&sim)));
    }
    // one pass over the stream: a keyframe, untimed, then every delta
    let encode_pass = || {
        let mut codec = DeltaRleCodec::new();
        let mut stream = vec![codec.encode_with(&pool, &frames[0])];
        let mut secs = 0.0;
        for fb in &frames[1..] {
            let t0 = Instant::now();
            stream.push(codec.encode_with(&pool, fb));
            secs += t0.elapsed().as_secs_f64();
        }
        (secs, stream)
    };
    let (_, stream) = encode_pass(); // warm-up
    assert!(stream[0].keyframe && stream[1..].iter().all(|f| !f.keyframe));
    let encode_us = fastest(STREAM, &mut || encode_pass().0);
    let decode_pass = || {
        let mut codec = DeltaRleCodec::new();
        codec
            .decode(&stream[0], VIZ_SIZE, VIZ_SIZE)
            .expect("keyframe decodes");
        let mut secs = 0.0;
        let mut decoded = Vec::with_capacity(STREAM);
        for f in &stream[1..] {
            let t0 = Instant::now();
            let fb = codec.decode(f, VIZ_SIZE, VIZ_SIZE);
            secs += t0.elapsed().as_secs_f64();
            decoded.push(fb.expect("in-order delta decodes"));
        }
        (secs, decoded)
    };
    let (_, decoded) = decode_pass(); // warm-up
    assert!(
        decoded == frames[1..],
        "the delta stream decodes to the rendered frames"
    );
    let decode_us = fastest(STREAM, &mut || decode_pass().0);

    let payloads = stream.iter().map(|f| f.payload.as_slice());
    vec![
        GateCell {
            cell: "raster_16c_3600t".into(),
            wall_us: raster_us,
            digest: hex(fold(FNV_OFFSET, frames[0].bytes())),
        },
        GateCell {
            cell: "encode_delta_256".into(),
            wall_us: encode_us,
            digest: hex(payloads.fold(FNV_OFFSET, fold)),
        },
        GateCell {
            cell: "decode_delta_256".into(),
            wall_us: decode_us,
            digest: hex(decoded
                .iter()
                .map(Framebuffer::bytes)
                .fold(FNV_OFFSET, fold)),
        },
    ]
}

// ---------------------------------------------------------------------------
// comparison
// ---------------------------------------------------------------------------

/// Compare current snapshots in `current_dir` against committed baselines
/// in `baseline_dir`. Returns the list of violations (empty = gate
/// passes). Missing files, missing cells, digest drift, and normalized
/// wall regressions beyond [`MAX_REGRESSION`] are all violations.
pub fn compare(baseline_dir: &Path, current_dir: &Path) -> Vec<String> {
    let mut violations = Vec::new();
    // (id, cell, baseline wall, current wall) for every matched pair
    let mut pairs: Vec<(String, String, f64, f64)> = Vec::new();
    for id in GATES.iter().map(|g| g.id) {
        let base = match read_report(baseline_dir, id) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("[{id}] baseline unreadable: {e}"));
                continue;
            }
        };
        let cur = match read_report(current_dir, id) {
            Ok(r) => r,
            Err(e) => {
                violations.push(format!("[{id}] current snapshot unreadable: {e}"));
                continue;
            }
        };
        for bc in &base.cells {
            let Some(cc) = cur.cells.iter().find(|c| c.cell == bc.cell) else {
                violations.push(format!("[{id}] cell {} missing from current run", bc.cell));
                continue;
            };
            if cc.digest != bc.digest {
                violations.push(format!(
                    "[{id}] cell {} digest drift: baseline {} != current {}",
                    bc.cell, bc.digest, cc.digest
                ));
            }
            if bc.wall_us > 0.0 && cc.wall_us > 0.0 {
                pairs.push((id.to_string(), bc.cell.clone(), bc.wall_us, cc.wall_us));
            }
        }
    }
    if pairs.is_empty() {
        return violations;
    }
    // machine-speed normalization: divide every cell's ratio by the
    // global median ratio, so a uniformly faster/slower runner cancels
    // and only relative per-cell regressions remain
    let mut ratios: Vec<f64> = pairs.iter().map(|(_, _, b, c)| c / b).collect();
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite ratios"));
    let median = ratios[ratios.len() / 2];
    for (id, cell, base, cur) in &pairs {
        let normalized = (cur / base) / median;
        if normalized > MAX_REGRESSION {
            violations.push(format!(
                "[{id}] cell {cell} wall regression: {base:.1}us -> {cur:.1}us \
                 ({normalized:.2}x normalized, limit {MAX_REGRESSION:.2}x)"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(id: &str, cells: &[(&str, f64, &str)]) -> GateReport {
        GateReport {
            id: id.into(),
            cells: cells
                .iter()
                .map(|(c, w, d)| GateCell {
                    cell: (*c).to_string(),
                    wall_us: *w,
                    digest: (*d).to_string(),
                })
                .collect(),
        }
    }

    fn write_all(dir: &std::path::Path, scale: f64, slow_cell: Option<(&str, f64)>) {
        let mut reports = vec![
            report("lbm", &[("a", 100.0, "d1"), ("b", 50.0, "d2")]),
            report("pool", &[("c", 40.0, "d3")]),
            report("monitor", &[("d", 30.0, "d4"), ("e", 20.0, "d5")]),
            report("fanout", &[("f", 60.0, "d6")]),
            report("ckpt", &[("g", 25.0, "d7")]),
            report("steer", &[("h", 10.0, "d8")]),
            report("viz", &[("i", 90.0, "d9")]),
        ];
        for r in &mut reports {
            for cell in &mut r.cells {
                cell.wall_us *= scale;
                if let Some((name, factor)) = slow_cell {
                    if cell.cell == name {
                        cell.wall_us *= factor;
                    }
                }
            }
            write_report(dir, r).unwrap();
        }
    }

    #[test]
    fn uniform_machine_speed_shift_passes() {
        let base = tempdir("gate_base_shift");
        let cur = tempdir("gate_cur_shift");
        write_all(&base, 1.0, None);
        write_all(&cur, 3.0, None); // a 3x slower runner, uniformly
        assert_eq!(compare(&base, &cur), Vec::<String>::new());
    }

    #[test]
    fn single_cell_slowdown_fails() {
        let base = tempdir("gate_base_slow");
        let cur = tempdir("gate_cur_slow");
        write_all(&base, 1.0, None);
        write_all(&cur, 1.0, Some(("b", 2.0)));
        let v = compare(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("cell b wall regression"), "{}", v[0]);
    }

    #[test]
    fn digest_drift_fails_regardless_of_timing() {
        let base = tempdir("gate_base_digest");
        let cur = tempdir("gate_cur_digest");
        write_all(&base, 1.0, None);
        let mut r = report("lbm", &[("a", 100.0, "XX"), ("b", 50.0, "d2")]);
        write_report(&cur, &r).unwrap();
        r = report("pool", &[("c", 40.0, "d3")]);
        write_report(&cur, &r).unwrap();
        r = report("monitor", &[("d", 30.0, "d4"), ("e", 20.0, "d5")]);
        write_report(&cur, &r).unwrap();
        r = report("fanout", &[("f", 60.0, "d6")]);
        write_report(&cur, &r).unwrap();
        r = report("ckpt", &[("g", 25.0, "d7")]);
        write_report(&cur, &r).unwrap();
        r = report("steer", &[("h", 10.0, "d8")]);
        write_report(&cur, &r).unwrap();
        r = report("viz", &[("i", 90.0, "d9")]);
        write_report(&cur, &r).unwrap();
        let v = compare(&base, &cur);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("digest drift"), "{}", v[0]);
    }

    #[test]
    fn missing_cell_or_file_fails() {
        let base = tempdir("gate_base_missing");
        let cur = tempdir("gate_cur_missing");
        write_all(&base, 1.0, None);
        // current run lacks the fanout file and drops one monitor cell
        write_report(
            &cur,
            &report("lbm", &[("a", 100.0, "d1"), ("b", 50.0, "d2")]),
        )
        .unwrap();
        write_report(&cur, &report("pool", &[("c", 40.0, "d3")])).unwrap();
        write_report(&cur, &report("monitor", &[("d", 30.0, "d4")])).unwrap();
        write_report(&cur, &report("ckpt", &[("g", 25.0, "d7")])).unwrap();
        write_report(&cur, &report("steer", &[("h", 10.0, "d8")])).unwrap();
        write_report(&cur, &report("viz", &[("i", 90.0, "d9")])).unwrap();
        let v = compare(&base, &cur);
        assert!(v.iter().any(|m| m.contains("cell e missing")), "{v:?}");
        assert!(
            v.iter().any(|m| m.contains("current snapshot unreadable")),
            "{v:?}"
        );
    }

    #[test]
    fn gate_ids_are_unique() {
        let ids: std::collections::BTreeSet<&str> = GATES.iter().map(|g| g.id).collect();
        assert_eq!(ids.len(), GATES.len());
    }

    /// Every row of the table has a committed baseline that parses, and
    /// `baselines/` holds no file the table does not know.
    #[test]
    fn baselines_and_gate_table_match() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../baselines");
        for g in GATES {
            assert_eq!(read_report(&dir, g.id).unwrap().id, g.id);
        }
        let mut committed: Vec<String> = (std::fs::read_dir(&dir).unwrap())
            .map(|entry| entry.unwrap().file_name().into_string().unwrap())
            .collect();
        committed.sort();
        let mut expected: Vec<String> = GATES.iter().map(|g| json_name(g.id)).collect();
        expected.sort();
        assert_eq!(committed, expected);
    }

    /// The φ fixture `viz`'s reference-fill tests render is the field
    /// behind the gated `raster_16c_3600t` frame: rendered the way the gate
    /// renders it, it folds to the committed digest, which the gate itself
    /// recomputes from the LBM on every run.
    #[test]
    fn the_viz_raster_fixture_is_the_gated_scene() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let bytes =
            std::fs::read(root.join("crates/viz/tests/fixtures/phi_16c_seed2003_400steps.f32"))
                .unwrap();
        let phi = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        let pool = gridsteer_exec::shared(1);
        let mesh = viz::mc::isosurface_with(&pool, &viz::Field3::from_vec(16, 16, 16, phi), 0.0);
        let frame = viz_fanout_frame(&pool, &mesh);
        let committed = read_report(&root.join("baselines"), "viz").unwrap();
        let cell = committed
            .cells
            .iter()
            .find(|c| c.cell == "raster_16c_3600t")
            .unwrap();
        assert_eq!(hex(fold(FNV_OFFSET, frame.bytes())), cell.digest);
    }

    fn tempdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("gridsteer_{tag}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }
}
