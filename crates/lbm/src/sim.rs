//! The two-component solver.
//!
//! Physics: two BGK components A and B on D3Q19, coupled by the Shan–Chen
//! pseudopotential force with ψ = ρ:
//!
//! ```text
//! F_A(x) = −g ρ_A(x) Σ_i w_i ρ_B(x + c_i) c_i      (and symmetrically F_B)
//! ```
//!
//! `g` is the inter-component coupling. The *steering parameter* exposed to
//! users is the paper's **miscibility** m ∈ \[0, 1\], mapped as
//! `g = g_max · (1 − m)`: fully miscible fluids feel no coupling; as the
//! steerer lowers m the mixture crosses the spinodal and domains form —
//! the structures the SC2003 demo rendered as isosurfaces live.
//!
//! # The two sweeps
//!
//! A step reads the 38 distribution rows twice and writes them once:
//!
//! 1. **force + collide + push** — per *source* z-plane, in two stages.
//!    *Force*: for each node the Shan–Chen gradient from the neighbours'
//!    densities and the two shifted equilibrium velocities, kept in a
//!    plane-sized scratch of the task's own (ten values a node, never an
//!    `n`-sized array). *Relax*: the 19 relaxed values of each component
//!    written straight to the node's neighbours in `fa_new`/`fb_new`, a
//!    few directions at a time across the whole plane.
//! 2. **moments** — after the swap, one pass over the new `fa`/`fb`
//!    producing the densities `rho_a`, `rho_b` and the total momentum
//!    `j`, each a sum over the directions in ascending order.
//!
//! The moments close the step instead of opening it, so they always
//! describe the current distributions — at construction, after a step,
//! after a restore. The next step's force stage reads them, and so does
//! everything that observes the lattice: the order parameter is
//! `ρA − ρB` over two moment rows (the same ascending-direction sums a
//! pass over the 38 rows would form, so φ has the bits it always had),
//! total mass is the sum of a ρ row and total momentum the sum of a `j`
//! row, each one serial chain in ascending node order — 5·n values read
//! where three passes over 38·n were.
//!
//! The relax stage is direction-major on purpose. Taking all 19 directions
//! at each node keeps the velocities in registers and is the fastest form
//! on a quiet machine, but it walks 76 page-strided streams at once, 38 of
//! them stores, and its time swings by 2–3× with the state of the cache
//! and TLB (13–40 ms per 48³ step within one process on the reference
//! box). A handful of long linear runs per pass costs ~2 ms of the best
//! case and holds its time.
//!
//! The push is race-free in safe code. The push sweep runs one task per
//! source z-plane, and for a fixed direction `i` the map `z ↦ wrap(z + CZ[i])` is
//! a bijection on planes, so task `z` owns exactly the destination chunk
//! `i·nz + wrap(z + CZ[i])` of the output's plane-sized chunking: every
//! `(direction, node)` is written exactly once, by one task, at any thread
//! count — and [`DisjointChunks`] turns any violation into a panic.
//!
//! # Layout and backends
//!
//! State is structure-of-arrays: distributions live as `f[i*n + node]`
//! (direction-major, nodes contiguous within a direction row) and the
//! moments the same way, five rows `m[c*n + node]`. Both sweeps are
//! written once, generic over a private `Lane` trait, and run at two
//! widths behind [`lanes::Backend`]:
//!
//! * **scalar** — one node at a time, every neighbour through
//!   `Geom::neighbor` (the gradient read in the force stage, the push
//!   destination in the relax stage); this is the executable spec.
//! * **simd** (the default) — [`lanes::F64x4`], one node per lane, over
//!   the interior of each lattice row, where a block's neighbours are
//!   contiguous off 19 per-row bases; the row's edge nodes, where the x
//!   wrap can fire, run the same kernel at width one.
//!
//! Both widths execute the *identical* floating-point operation sequence
//! for every node — same association, no FMA, accumulations in ascending
//! direction order — so their results are bit-identical, and CI proves it
//! across the {1, 8} threads × {scalar, simd} matrix.
//!
//! Parallelism: the sweeps dispatch onto a persistent
//! [`gridsteer_exec::ExecPool`] in whole-z-plane tasks — a fixed
//! task→node mapping independent of the pool's thread count, so the
//! physics is bit-identical at any parallelism and no OS threads are
//! spawned on the per-step hot path.

use crate::lattice::{equilibrium_lane, uu15, Lane, CX, CY, CZ, Q, WEIGHTS};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use gridsteer_exec::{DisjointChunks, ExecPool};
use lanes::F64x4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::array::from_fn;
use std::sync::Arc;
use viz::Field3;

/// Lanes per SIMD block (one node per lane).
const L: usize = F64x4::LANES;

/// Solver configuration.
#[derive(Debug, Clone)]
pub struct LbmConfig {
    /// Grid extent in x.
    pub nx: usize,
    /// Grid extent in y.
    pub ny: usize,
    /// Grid extent in z.
    pub nz: usize,
    /// BGK relaxation time (both components).
    pub tau: f64,
    /// Coupling at miscibility 0 (full demixing).
    pub g_max: f64,
    /// Mean density per component.
    pub rho0: f64,
    /// Initial density perturbation amplitude (seeds spinodal noise).
    pub noise: f64,
    /// RNG seed for the initial perturbation.
    pub seed: u64,
    /// Worker threads for the parallel passes. Defaults to the detected
    /// parallelism (clamped; see [`gridsteer_exec::default_threads`]); an
    /// explicitly set value wins. The thread count never changes results —
    /// chunking is per z-plane regardless.
    pub threads: usize,
}

impl Default for LbmConfig {
    fn default() -> Self {
        LbmConfig {
            nx: 32,
            ny: 32,
            nz: 32,
            tau: 1.0,
            g_max: 2.5,
            rho0: 0.5,
            noise: 0.01,
            seed: 42,
            threads: gridsteer_exec::default_threads(),
        }
    }
}

impl LbmConfig {
    /// A small fast configuration for tests.
    pub fn small() -> Self {
        LbmConfig {
            nx: 12,
            ny: 12,
            nz: 12,
            ..Default::default()
        }
    }
}

/// Spatial variance of an order-parameter field — the demixing metric of
/// [`TwoFluidLbm::demix_metric`], exposed over a precomputed field so
/// callers that already hold φ (the monitor adapter publishes the full
/// lattice anyway) never pay a second distribution pass, and the metric
/// has exactly one definition.
pub fn demix_of(phi: &Field3) -> f64 {
    demix_of_slice(phi.data())
}

/// [`demix_of`] over the raw row-major field data — the borrowed-payload
/// monitor path holds φ as a reused `Vec<f32>` scratch buffer, never as a
/// [`Field3`]. Replicates `Field3::mean`'s rounding exactly (f64 sum
/// narrowed to f32, then widened), so both entry points produce the same
/// bits for the same field.
pub fn demix_of_slice(phi: &[f32]) -> f64 {
    let mean = if phi.is_empty() {
        0.0f32
    } else {
        phi.iter().map(|&v| v as f64).sum::<f64>() as f32 / phi.len() as f32
    } as f64;
    phi.iter()
        .map(|&v| {
            let d = v as f64 - mean;
            d * d
        })
        .sum::<f64>()
        / phi.len() as f64
}

/// `v + c` on a periodic axis of extent `n`, for a lattice offset
/// `c ∈ {−1, 0, 1}` — a compare, never a division.
#[inline(always)]
fn wrap(v: usize, c: i32, n: usize) -> usize {
    match c {
        1 if v + 1 == n => 0,
        1 => v + 1,
        -1 if v == 0 => n - 1,
        -1 => v - 1,
        _ => v,
    }
}

/// Copyable grid geometry shared by the parallel sweeps (avoids borrowing
/// `self` inside pool tasks).
#[derive(Debug, Clone, Copy)]
struct Geom {
    nx: usize,
    ny: usize,
    nz: usize,
}

impl Geom {
    #[inline]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    /// Periodic neighbour index in direction `i`.
    #[inline]
    fn neighbor(&self, x: usize, y: usize, z: usize, i: usize) -> usize {
        self.idx(
            wrap(x, CX[i], self.nx),
            wrap(y, CY[i], self.ny),
            wrap(z, CZ[i], self.nz),
        )
    }

    /// Per-direction neighbour *row bases* for the lattice row `(y, z)`:
    /// the neighbour of `(x, y, z)` in direction `i` is
    /// `base[i] + wrap(x, CX[i], nx)`, so the y and z wraps are resolved
    /// once per row.
    #[inline]
    fn row_bases(&self, y: usize, z: usize) -> [usize; Q] {
        from_fn(|i| self.idx(0, wrap(y, CY[i], self.ny), wrap(z, CZ[i], self.nz)))
    }
}

/// The moments sweep for the node (or block of consecutive nodes, one per
/// lane) at `node`: its moments `[ρA, ρB, jx, jy, jz]`, each summed over the
/// directions in ascending order, stored at `k` of the five `out` slices.
#[inline(always)]
fn moments<T: Lane>(
    fa: &[f64],
    fb: &[f64],
    n: usize,
    node: usize,
    out: &mut [&mut [f64]; 5],
    k: usize,
) {
    let mut m = [T::splat(0.0); 5];
    for i in 0..Q {
        let a = T::load(fa, i * n + node);
        let b = T::load(fb, i * n + node);
        m[0] += a;
        m[1] += b;
        let f = a + b;
        m[2] += f * T::splat(CX[i] as f64);
        m[3] += f * T::splat(CY[i] as f64);
        m[4] += f * T::splat(CZ[i] as f64);
    }
    for (v, o) in m.into_iter().zip(out) {
        v.store(o, k);
    }
}

/// Read-only inputs of the push sweep.
struct PushCtx<'a> {
    fa: &'a [f64],
    fb: &'a [f64],
    /// The five moment rows of `fa`/`fb`.
    moments: &'a [f64],
    n: usize,
    plane: usize,
    g: f64,
    tau: f64,
}

/// Where one push-sweep task writes: per direction, the destination plane's
/// chunk of each output buffer and that plane's first global node index.
struct PushDst<'a> {
    a: [&'a mut [f64]; Q],
    b: [&'a mut [f64]; Q],
    start: [usize; Q],
}

/// Per-node values the force stage of the push sweep hands to its relax
/// stage, a plane-sized row each: ρA, ρB, uA (3), uB (3), 1.5·uA·uA, 1.5·uB·uB.
const NODE_VALS: usize = 10;

/// Directions the relax stage streams at a time: 4·`DIR_GROUP` linear runs
/// (source and destination, both components) instead of all 76 at once.
const DIR_GROUP: usize = 5;

impl PushCtx<'_> {
    /// Force stage for the source node (or block of consecutive nodes, one
    /// per lane) at global index `node`: densities, the two shifted
    /// equilibrium velocities and their `1.5·u·u`, stored at `k` of the
    /// `NODE_VALS` rows of `vals`. `nb[i]` is the global index of the
    /// first node's neighbour in direction `i` (the other lanes'
    /// neighbours follow it), where the gradient reads the densities.
    #[inline(always)]
    fn force<T: Lane>(&self, node: usize, nb: &[usize; Q], vals: &mut [f64], k: usize) {
        // moment row c (ρA, ρB, jx, jy, jz) at a node
        let m = |c: usize, at: usize| T::load(self.moments, c * self.n + at);
        let (ra, rb) = (m(0, node), m(1, node));
        let rho_tot = (ra + rb).max(T::splat(1e-12));
        let u: [T; 3] = from_fn(|k| m(2 + k, node) / rho_tot);
        // Shan–Chen gradients of the *other* component's density
        let mut grad_b = [T::splat(0.0); 3];
        let mut grad_a = [T::splat(0.0); 3];
        for i in 1..Q {
            let w = T::splat(WEIGHTS[i]);
            let wb = w * m(1, nb[i]);
            let wa = w * m(0, nb[i]);
            let c = [CX[i], CY[i], CZ[i]].map(|c| T::splat(c as f64));
            for k in 0..3 {
                grad_b[k] += wb * c[k];
                grad_a[k] += wa * c[k];
            }
        }
        // per-component equilibrium velocity (velocity-shift forcing)
        let (ga, gb) = (T::splat(-self.g) * ra, T::splat(-self.g) * rb);
        let (ra_s, rb_s) = (ra.max(T::splat(1e-12)), rb.max(T::splat(1e-12)));
        let tau = T::splat(self.tau);
        let ua: [T; 3] = from_fn(|k| u[k] + tau * (ga * grad_b[k]) / ra_s);
        let ub: [T; 3] = from_fn(|k| u[k] + tau * (gb * grad_a[k]) / rb_s);
        let (uu_a, uu_b) = (uu15(ua), uu15(ub));
        let out = [ra, rb, ua[0], ua[1], ua[2], ub[0], ub[1], ub[2], uu_a, uu_b];
        for (c, v) in out.into_iter().enumerate() {
            v.store(vals, c * self.plane + k);
        }
    }

    /// Relax stage for the directions `dirs`: BGK relaxation of each `f_i`
    /// at the source node (or lane block) at global index `node`, whose
    /// force-stage values sit at `k` of `vals`, streamed to the neighbour
    /// `to(i)` (a global index) as it is produced.
    #[inline(always)]
    fn relax<T: Lane>(
        &self,
        dirs: std::ops::Range<usize>,
        node: usize,
        to: impl Fn(usize) -> usize,
        vals: &[f64],
        k: usize,
        dst: &mut PushDst<'_>,
    ) {
        let [ra, rb, uax, uay, uaz, ubx, uby, ubz, uu_a, uu_b]: [T; NODE_VALS] =
            from_fn(|c| T::load(vals, c * self.plane + k));
        let omega = T::splat(1.0 / self.tau);
        for i in dirs {
            let sa = T::load(self.fa, i * self.n + node);
            let sb = T::load(self.fb, i * self.n + node);
            let ea = equilibrium_lane(i, ra, [uax, uay, uaz], uu_a);
            let eb = equilibrium_lane(i, rb, [ubx, uby, ubz], uu_b);
            let at = to(i) - dst.start[i];
            (sa + omega * (ea - sa)).store(dst.a[i], at);
            (sb + omega * (eb - sb)).store(dst.b[i], at);
        }
    }
}

/// The two-fluid Lattice-Boltzmann simulation.
pub struct TwoFluidLbm {
    cfg: LbmConfig,
    /// Worker pool the sweeps dispatch onto (shared across sims with the
    /// same thread count; replaceable via [`TwoFluidLbm::set_pool`]).
    pool: Arc<ExecPool>,
    n: usize,
    plane: usize,
    /// Distributions, SoA layout `f[i*n + node]`, per component.
    fa: Vec<f64>,
    fb: Vec<f64>,
    /// Targets of the push sweep (same layout), swapped in after each step.
    fa_new: Vec<f64>,
    fb_new: Vec<f64>,
    /// Moments of `fa`/`fb`, five rows `m[c*n + node]` for c = ρA, ρB,
    /// jx, jy, jz. Always current: [`TwoFluidLbm::from_parts`] and every
    /// step end with the moments sweep, and nothing else writes `fa`/`fb`.
    moments: Vec<f64>,
    /// Current miscibility m ∈ \[0,1\].
    miscibility: f64,
    /// Kernel backend (defaults to the process-wide [`lanes::backend`]).
    backend: lanes::Backend,
    steps: u64,
}

impl TwoFluidLbm {
    /// Initialize a perturbed symmetric mixture at rest, on the shared
    /// pool for `cfg.threads`.
    pub fn new(cfg: LbmConfig) -> Self {
        let pool = gridsteer_exec::shared(cfg.threads);
        Self::with_pool(cfg, pool)
    }

    /// Initialize on an explicit executor pool (scenario runs and the
    /// `gridsteer_bench` experiments pass one pool to every subsystem).
    pub fn with_pool(cfg: LbmConfig, pool: Arc<ExecPool>) -> Self {
        assert!(cfg.nx >= 2 && cfg.ny >= 2 && cfg.nz >= 2, "grid too small");
        assert!(cfg.tau > 0.5, "tau must exceed 0.5 for stability");
        let n = cfg.nx * cfg.ny * cfg.nz;
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut fa = vec![0.0; n * Q];
        let mut fb = vec![0.0; n * Q];
        for node in 0..n {
            let eps: f64 = rng.gen_range(-1.0..1.0) * cfg.noise;
            let ra = cfg.rho0 * (1.0 + eps);
            let rb = cfg.rho0 * (1.0 - eps);
            for i in 0..Q {
                fa[i * n + node] = WEIGHTS[i] * ra;
                fb[i * n + node] = WEIGHTS[i] * rb;
            }
        }
        Self::from_parts(cfg, pool, fa, fb, 1.0, 0)
    }

    /// Assemble a solver around given distributions and take their
    /// moments. The push targets start empty; [`TwoFluidLbm::step`] sizes
    /// them.
    fn from_parts(
        cfg: LbmConfig,
        pool: Arc<ExecPool>,
        fa: Vec<f64>,
        fb: Vec<f64>,
        miscibility: f64,
        steps: u64,
    ) -> Self {
        let n = cfg.nx * cfg.ny * cfg.nz;
        let mut sim = TwoFluidLbm {
            plane: cfg.nx * cfg.ny,
            n,
            fa_new: Vec::new(),
            fb_new: Vec::new(),
            moments: vec![0.0; n * 5],
            fa,
            fb,
            miscibility,
            backend: lanes::backend(),
            pool,
            cfg,
            steps,
        };
        sim.sweep_moments();
        sim
    }

    /// Replace the executor pool (results are unaffected: tasks are fixed
    /// per z-plane, so any pool produces identical physics).
    pub fn set_pool(&mut self, pool: Arc<ExecPool>) {
        self.pool = pool;
    }

    /// The executor pool this simulation dispatches onto.
    pub fn pool(&self) -> &Arc<ExecPool> {
        &self.pool
    }

    /// The kernel backend in use (scalar reference or lane-blocked).
    pub fn backend(&self) -> lanes::Backend {
        self.backend
    }

    /// Override the kernel backend. Results are unaffected — the two
    /// backends are bit-identical (tested, proptested, and CI-gated);
    /// benches use this to measure both in one process.
    pub fn set_backend(&mut self, backend: lanes::Backend) {
        self.backend = backend;
    }

    /// Grid dimensions.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.cfg.nx, self.cfg.ny, self.cfg.nz)
    }

    /// Steps taken so far.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Current miscibility (the steering parameter of §2.2).
    pub fn miscibility(&self) -> f64 {
        self.miscibility
    }

    /// Steer the miscibility; values are clamped to \[0, 1\].
    pub fn set_miscibility(&mut self, m: f64) {
        self.miscibility = m.clamp(0.0, 1.0);
    }

    /// Effective inter-component coupling `g`.
    pub fn coupling(&self) -> f64 {
        self.cfg.g_max * (1.0 - self.miscibility)
    }

    fn geom(&self) -> Geom {
        Geom {
            nx: self.cfg.nx,
            ny: self.cfg.ny,
            nz: self.cfg.nz,
        }
    }

    fn simd(&self) -> bool {
        self.backend == lanes::Backend::Simd
    }

    /// Advance one time step.
    pub fn step(&mut self) {
        // the push targets are sized by the first step (a no-op
        // afterwards): a solver that is restored, forwarded or inspected
        // but never stepped does not pay for them
        self.fa_new.resize(self.n * Q, 0.0);
        self.fb_new.resize(self.n * Q, 0.0);
        self.sweep_collide_push();
        std::mem::swap(&mut self.fa, &mut self.fa_new);
        std::mem::swap(&mut self.fb, &mut self.fb_new);
        self.sweep_moments();
        self.steps += 1;
    }

    /// Advance `n` steps.
    pub fn step_n(&mut self, n: usize) {
        for _ in 0..n {
            self.step();
        }
    }

    /// The moments sweep: one task per z-plane fills that plane of the
    /// five moment arrays. No neighbour is read, so lane blocks run across
    /// row ends.
    fn sweep_moments(&mut self) {
        let (fa, fb, n, plane, simd) = (&self.fa, &self.fb, self.n, self.plane, self.simd());
        let nz = self.cfg.nz;
        let out = DisjointChunks::new(&mut self.moments, plane);
        self.pool.run(nz, |z| {
            let mut out = from_fn(|c| out.claim(c * nz + z));
            let mut k = 0;
            while simd && k + L <= plane {
                moments::<F64x4>(fa, fb, n, z * plane + k, &mut out, k);
                k += L;
            }
            for k in k..plane {
                moments::<f64>(fa, fb, n, z * plane + k, &mut out, k);
            }
        });
    }

    /// The push sweep: the task for source plane `z` claims, per direction, the
    /// one destination plane its nodes stream into (see the module doc),
    /// runs the force stage over the plane into a scratch of its own, then
    /// the relax stage a few directions at a time.
    fn sweep_collide_push(&mut self) {
        let ctx = PushCtx {
            fa: &self.fa,
            fb: &self.fb,
            moments: &self.moments,
            n: self.n,
            plane: self.plane,
            g: self.coupling(),
            tau: self.cfg.tau,
        };
        let (geom, plane, simd) = (self.geom(), self.plane, self.simd());
        let Geom { nx, ny, nz } = geom;
        let out_a = DisjointChunks::new(&mut self.fa_new, plane);
        let out_b = DisjointChunks::new(&mut self.fb_new, plane);
        self.pool.run(nz, |z| {
            let dz: [usize; Q] = from_fn(|i| wrap(z, CZ[i], nz));
            let mut dst = PushDst {
                a: from_fn(|i| out_a.claim(i * nz + dz[i])),
                b: from_fn(|i| out_b.claim(i * nz + dz[i])),
                start: dz.map(|d| d * plane),
            };
            // lane blocks cover x in 1..xe of every row, where x ± 1 cannot
            // wrap; the rest of the row — all of it on the scalar backend —
            // runs the same kernels at width one
            let xe = if simd && nx > L + 1 {
                1 + (nx - 2) / L * L
            } else {
                1
            };
            let edges = |xe: usize| std::iter::once(0).chain(xe..nx);
            let mut vals = vec![0.0; NODE_VALS * plane];
            for y in 0..ny {
                let (k, bases) = (y * nx, geom.row_bases(y, z));
                for x in (1..xe).step_by(L) {
                    let nb = from_fn(|i| bases[i] + wrap(x, CX[i], nx));
                    ctx.force::<F64x4>(z * plane + k + x, &nb, &mut vals, k + x);
                }
                for x in edges(xe) {
                    let nb = from_fn(|i| geom.neighbor(x, y, z, i));
                    ctx.force::<f64>(z * plane + k + x, &nb, &mut vals, k + x);
                }
            }
            for i0 in (0..Q).step_by(DIR_GROUP) {
                let dirs = i0..(i0 + DIR_GROUP).min(Q);
                for y in 0..ny {
                    let (k, bases) = (y * nx, geom.row_bases(y, z));
                    for x in (1..xe).step_by(L) {
                        let to = |i: usize| bases[i] + wrap(x, CX[i], nx);
                        ctx.relax::<F64x4>(
                            dirs.clone(),
                            z * plane + k + x,
                            to,
                            &vals,
                            k + x,
                            &mut dst,
                        );
                    }
                    for x in edges(xe) {
                        let to = |i: usize| geom.neighbor(x, y, z, i);
                        ctx.relax::<f64>(
                            dirs.clone(),
                            z * plane + k + x,
                            to,
                            &vals,
                            k + x,
                            &mut dst,
                        );
                    }
                }
            }
        });
    }

    /// Moment row `c` (ρA, ρB, jx, jy, jz) over the whole lattice.
    fn moment_row(&self, c: usize) -> &[f64] {
        &self.moments[c * self.n..(c + 1) * self.n]
    }

    /// Total mass per component: each density row summed over the nodes
    /// in ascending order.
    pub fn total_mass(&self) -> (f64, f64) {
        (
            self.moment_row(0).iter().sum(),
            self.moment_row(1).iter().sum(),
        )
    }

    /// Total momentum (both components): each `j` row summed over the
    /// nodes in ascending order.
    pub fn total_momentum(&self) -> [f64; 3] {
        from_fn(|k| self.moment_row(2 + k).iter().sum())
    }

    /// The order parameter φ = ρA − ρB as a renderable field — the
    /// "sample" the simulation component emits for the visualization
    /// (§2.1: "the simulation component periodically … emits 'samples' for
    /// consumption by the visualization component").
    pub fn order_parameter(&self) -> Field3 {
        let mut data = Vec::new();
        self.order_parameter_into(&mut data);
        Field3::from_vec(self.cfg.nx, self.cfg.ny, self.cfg.nz, data)
    }

    /// Fill `out` with the order parameter over the whole lattice
    /// (row-major, `x` fastest) without allocating when `out` already has
    /// capacity — the monitor publish path reuses one buffer per sample.
    pub fn order_parameter_into(&self, out: &mut Vec<f32>) {
        self.phi_into(0..self.n, out);
    }

    /// φ over a node range: ρA − ρB from the two density rows.
    fn phi_into(&self, nodes: std::ops::Range<usize>, out: &mut Vec<f32>) {
        let (ra, rb) = (
            &self.moment_row(0)[nodes.clone()],
            &self.moment_row(1)[nodes],
        );
        out.clear();
        out.extend(ra.iter().zip(rb).map(|(a, b)| (a - b) as f32));
    }

    /// One z-plane of the order parameter φ, row-major (`x` fastest) —
    /// the 2-D field slice the monitor bus ships to thin viewers that
    /// cannot afford the full lattice. Computes only the requested plane.
    /// Panics if `z` is out of range.
    pub fn order_parameter_slice(&self, z: usize) -> (usize, usize, Vec<f32>) {
        let mut data = Vec::new();
        self.order_parameter_slice_into(z, &mut data);
        (self.cfg.nx, self.cfg.ny, data)
    }

    /// Allocation-free variant of [`TwoFluidLbm::order_parameter_slice`]:
    /// fills `out` (cleared first) and returns the plane dims. The
    /// monitor adapter calls this every sample with a retained buffer, so
    /// steady-state publishing allocates nothing.
    pub fn order_parameter_slice_into(&self, z: usize, out: &mut Vec<f32>) -> (usize, usize) {
        assert!(
            z < self.cfg.nz,
            "slice plane {z} outside 0..{}",
            self.cfg.nz
        );
        self.phi_into(z * self.plane..(z + 1) * self.plane, out);
        (self.cfg.nx, self.cfg.ny)
    }

    /// Spatial variance of φ — a scalar demixing metric: near zero for a
    /// mixed state, growing as domains form.
    pub fn demix_metric(&self) -> f64 {
        demix_of(&self.order_parameter())
    }

    /// True if any distribution value is non-finite (stability check).
    pub fn is_unstable(&self) -> bool {
        self.fa.iter().chain(self.fb.iter()).any(|v| !v.is_finite())
    }

    /// Lay the full solver state into `snap` as the sections
    /// `lbm/meta` + `lbm/fa` + `lbm/fb`. The distribution sections use a
    /// dirty-chunk grain of one z-plane of doubles — the same fixed
    /// plane→chunk mapping the exec pool dispatches on — so delta
    /// checkpoints ship only the planes that changed.
    pub fn save_sections(&self, snap: &mut Snapshot) {
        let mut w = SectionWriter::with_capacity(96);
        w.put_u64(self.cfg.nx as u64);
        w.put_u64(self.cfg.ny as u64);
        w.put_u64(self.cfg.nz as u64);
        w.put_f64(self.cfg.tau);
        w.put_f64(self.cfg.g_max);
        w.put_f64(self.cfg.rho0);
        w.put_f64(self.cfg.noise);
        w.put_u64(self.cfg.seed);
        w.put_u64(self.cfg.threads as u64);
        w.put_f64(self.miscibility);
        w.put_u64(self.steps);
        snap.push(SEC_LBM_META, 0, w.finish());
        let chunk = (self.plane * 8) as u32;
        snap.push(SEC_LBM_FA, chunk, f64_raw_bytes(&self.fa));
        snap.push(SEC_LBM_FB, chunk, f64_raw_bytes(&self.fb));
    }

    /// Rebuild a solver from the `lbm/*` sections of `snap` — the
    /// fresh-process restore path, and the migration path of §2.4 ("migrate
    /// both computation and visualization within a session without any
    /// disturbance"). The header is validated like
    /// [`TwoFluidLbm::with_pool`] validates a config (a blob is untrusted
    /// input: a bad one is a typed error here, never a panic in `step`).
    /// The moments are taken here, from the restored distributions; the
    /// pool comes from the checkpointed thread count and the backend
    /// from the process-wide default.
    pub fn from_snapshot(snap: &Snapshot) -> Result<TwoFluidLbm, CkptError> {
        let mut r = snap.reader(SEC_LBM_META)?;
        let cfg = LbmConfig {
            nx: r.get_u64()? as usize,
            ny: r.get_u64()? as usize,
            nz: r.get_u64()? as usize,
            tau: r.get_f64()?,
            g_max: r.get_f64()?,
            rho0: r.get_f64()?,
            noise: r.get_f64()?,
            seed: r.get_u64()?,
            threads: r.get_u64()? as usize,
        };
        let miscibility = r.get_f64()?;
        let steps = r.get_u64()?;
        r.expect_end()?;
        let corrupt = |what: &str| CkptError::Corrupt {
            context: format!("{SEC_LBM_META}: {what}"),
        };
        if cfg.nx.min(cfg.ny).min(cfg.nz) < 2 {
            return Err(corrupt("grid extent below 2"));
        }
        if !(cfg.tau.is_finite() && cfg.tau > 0.5) {
            return Err(corrupt("tau not a finite value above 0.5"));
        }
        // n·Q·8 is the byte length the f sections are checked against
        let len = cfg
            .nx
            .checked_mul(cfg.ny)
            .and_then(|v| v.checked_mul(cfg.nz))
            .and_then(|n| n.checked_mul(Q))
            .filter(|len| len.checked_mul(8).is_some())
            .ok_or_else(|| corrupt("grid size overflows"))?;
        let fa = f64_section(snap, SEC_LBM_FA, len)?;
        let fb = f64_section(snap, SEC_LBM_FB, len)?;
        let pool = gridsteer_exec::shared(cfg.threads);
        Ok(Self::from_parts(cfg, pool, fa, fb, miscibility, steps))
    }

    /// Replace this solver's physics state from the `lbm/*` sections of
    /// `snap`, keeping the current pool and backend — the in-process
    /// restore path (crash recovery reuses the scenario's pool).
    pub fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let mut fresh = TwoFluidLbm::from_snapshot(snap)?;
        fresh.pool = Arc::clone(&self.pool);
        fresh.backend = self.backend;
        *self = fresh;
        Ok(())
    }
}

/// Snapshot section names for the LBM solver.
pub const SEC_LBM_META: &str = "lbm/meta";
/// Component-A distributions (raw f64 bits, SoA `f[i*n + node]`).
pub const SEC_LBM_FA: &str = "lbm/fa";
/// Component-B distributions (raw f64 bits, SoA `f[i*n + node]`).
pub const SEC_LBM_FB: &str = "lbm/fb";

/// A float slice as unprefixed raw little-endian bit patterns (section
/// length carries the count, so chunk boundaries stay plane-aligned).
fn f64_raw_bytes(vs: &[f64]) -> Vec<u8> {
    // an exact-size iterator: one allocation, then a straight copy
    let bytes = vs.iter().flat_map(|v| v.to_bits().to_le_bytes());
    bytes.collect()
}

/// Decode an unprefixed raw-bits float section, checking the exact
/// element count.
fn f64_section(snap: &Snapshot, name: &str, expect: usize) -> Result<Vec<f64>, CkptError> {
    let bytes = snap
        .section(name)
        .ok_or_else(|| CkptError::MissingSection {
            name: name.to_string(),
        })?;
    if bytes.len() != expect * 8 {
        return Err(CkptError::Truncated {
            context: name.to_string(),
            needed: expect * 8,
            have: bytes.len(),
        });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The observers as they were before the moment rows served them:
    /// three passes over the 38 distribution rows. The spec the moment-row
    /// forms are checked against.
    mod reference {
        use super::*;

        pub fn total_mass(sim: &TwoFluidLbm) -> (f64, f64) {
            let (mut ma, mut mb) = (0.0, 0.0);
            for (a, b) in sim.fa.iter().zip(&sim.fb) {
                ma += a;
                mb += b;
            }
            (ma, mb)
        }

        pub fn total_momentum(sim: &TwoFluidLbm) -> [f64; 3] {
            let mut p = [0.0f64; 3];
            for node in 0..sim.n {
                for i in 0..Q {
                    let f = sim.fa[i * sim.n + node] + sim.fb[i * sim.n + node];
                    p[0] += f * CX[i] as f64;
                    p[1] += f * CY[i] as f64;
                    p[2] += f * CZ[i] as f64;
                }
            }
            p
        }

        /// φ over the whole lattice, a block of nodes at a time, each
        /// node's two sums over the directions in ascending order.
        pub fn phi(sim: &TwoFluidLbm) -> Vec<f32> {
            const BLOCK: usize = 64;
            let mut out = Vec::with_capacity(sim.n);
            for start in (0..sim.n).step_by(BLOCK) {
                let len = BLOCK.min(sim.n - start);
                let (mut ra, mut rb) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
                for i in 0..Q {
                    let at = i * sim.n + start;
                    let (row_a, row_b) = (&sim.fa[at..at + len], &sim.fb[at..at + len]);
                    for k in 0..len {
                        ra[k] += row_a[k];
                        rb[k] += row_b[k];
                    }
                }
                out.extend((0..len).map(|k| (ra[k] - rb[k]) as f32));
            }
            out
        }
    }

    /// What the observers read off `sim` right now, as bit patterns.
    fn observed(sim: &TwoFluidLbm) -> (Vec<u32>, [u64; 5]) {
        let phi = sim.order_parameter();
        let ((ma, mb), p) = (sim.total_mass(), sim.total_momentum());
        (
            phi.data().iter().map(|v| v.to_bits()).collect(),
            [ma, mb, p[0], p[1], p[2]].map(f64::to_bits),
        )
    }

    /// The moments describe `fa`/`fb` as they are now: φ equals the
    /// 38-row reference bit for bit, mass and momentum to rounding.
    fn assert_moments_current(sim: &TwoFluidLbm, when: &str) {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(sim.order_parameter().data()),
            bits(&reference::phi(sim)),
            "{when}: φ moved off the 38-row sums"
        );
        let mid = sim.cfg.nz / 2;
        let (_, _, slice) = sim.order_parameter_slice(mid);
        assert_eq!(
            bits(&slice),
            bits(&reference::phi(sim)[mid * sim.plane..(mid + 1) * sim.plane]),
            "{when}: mid-plane slice"
        );
        let ((ma, mb), (ra, rb)) = (sim.total_mass(), reference::total_mass(sim));
        let scale = 1e-12 * (ra + rb);
        assert!((ma - ra).abs() <= scale, "{when}: mass A {ma} vs {ra}");
        assert!((mb - rb).abs() <= scale, "{when}: mass B {mb} vs {rb}");
        for (p, r) in sim
            .total_momentum()
            .iter()
            .zip(reference::total_momentum(sim))
        {
            assert!((p - r).abs() <= scale, "{when}: momentum {p} vs {r}");
        }
    }

    #[test]
    fn moments_always_describe_the_distributions() {
        let mut seen = Vec::new();
        for backend in [lanes::Backend::Scalar, lanes::Backend::Simd] {
            for threads in [1, 8] {
                let cfg = LbmConfig {
                    threads,
                    // odd x extent: the SIMD remainder path forms moments too
                    nx: 13,
                    ny: 10,
                    nz: 6,
                    ..LbmConfig::small()
                };
                let mut sim = TwoFluidLbm::new(cfg);
                sim.set_backend(backend);
                sim.set_miscibility(0.15);
                assert_moments_current(&sim, "after new");
                sim.step_n(7);
                assert_moments_current(&sim, "after step_n(7)");
                let stepped = observed(&sim);

                let mut snap = Snapshot::new(1, 0);
                sim.save_sections(&mut snap);
                let fresh = TwoFluidLbm::from_snapshot(&snap).unwrap();
                assert_moments_current(&fresh, "after from_snapshot");
                assert_eq!(observed(&fresh), stepped, "from_snapshot");

                // the moments of an unrelated state must not survive a restore
                let mut other = TwoFluidLbm::new(LbmConfig {
                    seed: 7,
                    ..sim.cfg.clone()
                });
                other.set_backend(backend);
                other.step_n(3);
                other.restore_sections(&snap).unwrap();
                assert_moments_current(&other, "after restore_sections");
                assert_eq!(observed(&other), stepped, "restore_sections");
                seen.push(stepped);
            }
        }
        assert!(
            seen.windows(2).all(|w| w[0] == w[1]),
            "φ, mass or momentum differ across backends or pool widths"
        );
    }

    #[test]
    fn mass_conserved_over_steps() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.2); // strong coupling
        let (ma0, mb0) = sim.total_mass();
        sim.step_n(30);
        let (ma, mb) = sim.total_mass();
        assert!(
            ((ma - ma0) / ma0).abs() < 1e-10,
            "A mass drift {}",
            ma - ma0
        );
        assert!(
            ((mb - mb0) / mb0).abs() < 1e-10,
            "B mass drift {}",
            mb - mb0
        );
    }

    #[test]
    fn momentum_conserved_without_coupling() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(1.0); // g = 0
        sim.step_n(20);
        let p = sim.total_momentum();
        for c in p {
            assert!(c.abs() < 1e-10, "momentum drift {c}");
        }
    }

    #[test]
    fn momentum_nearly_conserved_with_coupling() {
        // pairwise SC forces cancel globally on a periodic lattice up to
        // the O(F²) error of the velocity-shift forcing
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.3);
        sim.step_n(20);
        let p = sim.total_momentum();
        let (ma, mb) = sim.total_mass();
        for c in p {
            assert!(c.abs() / (ma + mb) < 1e-3, "momentum drift {c}");
        }
    }

    #[test]
    fn uniform_mixture_stays_uniform_without_noise() {
        let cfg = LbmConfig {
            noise: 0.0,
            ..LbmConfig::small()
        };
        let mut sim = TwoFluidLbm::new(cfg);
        sim.set_miscibility(0.0); // even at max coupling: no seed, no domains
        sim.step_n(10);
        assert!(sim.demix_metric() < 1e-20);
    }

    #[test]
    fn strong_coupling_demixes_weak_does_not() {
        let mut miscible = TwoFluidLbm::new(LbmConfig::small());
        miscible.set_miscibility(1.0);
        let mut immiscible = TwoFluidLbm::new(LbmConfig::small());
        immiscible.set_miscibility(0.0);
        let v0 = immiscible.demix_metric();
        miscible.step_n(60);
        immiscible.step_n(60);
        assert!(!immiscible.is_unstable(), "solver went unstable");
        let v_mix = miscible.demix_metric();
        let v_demix = immiscible.demix_metric();
        // the paper's observable: lowering miscibility forms structures
        assert!(
            v_demix > v0 * 3.0,
            "no domain growth: v0={v0:.3e} v={v_demix:.3e}"
        );
        assert!(
            v_demix > v_mix * 5.0,
            "demixed variance {v_demix:.3e} not ≫ mixed {v_mix:.3e}"
        );
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let mk = |threads| {
            let cfg = LbmConfig {
                threads,
                ..LbmConfig::small()
            };
            let mut sim = TwoFluidLbm::new(cfg);
            sim.set_miscibility(0.1);
            sim.step_n(10);
            sim.order_parameter()
        };
        let a = mk(1);
        let b = mk(4);
        assert_eq!(a.data(), b.data(), "thread count changed the physics");
    }

    #[test]
    fn scalar_and_simd_backends_are_bit_identical() {
        let run = |backend: lanes::Backend, threads: usize| {
            let cfg = LbmConfig {
                threads,
                // odd x extent: exercises the SIMD remainder path too
                nx: 13,
                ny: 10,
                nz: 6,
                ..LbmConfig::small()
            };
            let mut sim = TwoFluidLbm::new(cfg);
            sim.set_backend(backend);
            sim.set_miscibility(0.1);
            sim.step_n(12);
            sim
        };
        let scalar = run(lanes::Backend::Scalar, 1);
        for (backend, threads) in [
            (lanes::Backend::Simd, 1),
            (lanes::Backend::Simd, 4),
            (lanes::Backend::Scalar, 4),
        ] {
            let other = run(backend, threads);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&scalar.fa),
                bits(&other.fa),
                "fa diverged ({}, {threads} threads)",
                backend.label()
            );
            assert_eq!(
                bits(&scalar.fb),
                bits(&other.fb),
                "fb diverged ({}, {threads} threads)",
                backend.label()
            );
        }
    }

    #[test]
    fn tiny_grids_fall_back_to_scalar_rows() {
        // nx < lanes+2: no SIMD block ever fits a row interior, so the
        // lane kernels must degrade to the reference path cleanly
        for (nx, ny, nz) in [(2, 5, 5), (4, 4, 4), (5, 3, 3)] {
            let cfg = LbmConfig {
                nx,
                ny,
                nz,
                ..LbmConfig::small()
            };
            let mut simd = TwoFluidLbm::new(cfg.clone());
            simd.set_backend(lanes::Backend::Simd);
            let mut scalar = TwoFluidLbm::new(cfg);
            scalar.set_backend(lanes::Backend::Scalar);
            simd.set_miscibility(0.2);
            scalar.set_miscibility(0.2);
            simd.step_n(5);
            scalar.step_n(5);
            assert_eq!(
                simd.order_parameter().data(),
                scalar.order_parameter().data(),
                "{nx}x{ny}x{nz}"
            );
        }
    }

    #[test]
    fn explicit_pool_handle_matches_shared_pool() {
        let run = |mut sim: TwoFluidLbm| {
            sim.set_miscibility(0.2);
            sim.step_n(8);
            sim.order_parameter()
        };
        let a = run(TwoFluidLbm::new(LbmConfig::small()));
        let pool = gridsteer_exec::shared(3);
        let b = run(TwoFluidLbm::with_pool(LbmConfig::small(), pool.clone()));
        let mut c = TwoFluidLbm::new(LbmConfig::small());
        c.set_pool(pool);
        assert!(std::sync::Arc::ptr_eq(c.pool(), &gridsteer_exec::shared(3)));
        let c = run(c);
        assert_eq!(a.data(), b.data());
        assert_eq!(a.data(), c.data());
    }

    #[test]
    fn steering_mid_run_changes_behaviour() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(1.0);
        sim.step_n(30);
        let v_before = sim.demix_metric();
        // the SC2003 steering moment: turn the miscibility down live
        sim.set_miscibility(0.0);
        sim.step_n(60);
        let v_after = sim.demix_metric();
        assert!(
            v_after > v_before * 3.0,
            "steering had no effect: {v_before:.3e} → {v_after:.3e}"
        );
    }

    #[test]
    fn miscibility_is_clamped() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(7.0);
        assert_eq!(sim.miscibility(), 1.0);
        sim.set_miscibility(-2.0);
        assert_eq!(sim.miscibility(), 0.0);
        assert_eq!(sim.coupling(), sim.cfg.g_max);
    }

    #[test]
    fn order_parameter_field_has_grid_dims() {
        let sim = TwoFluidLbm::new(LbmConfig::small());
        let phi = sim.order_parameter();
        assert_eq!(phi.dims(), sim.dims());
        // symmetric mixture: mean φ ≈ 0
        assert!(phi.mean().abs() < 1e-2);
    }

    #[test]
    fn slice_into_reuses_capacity_and_matches_allocating_form() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.2);
        sim.step_n(3);
        let (nx, ny, owned) = sim.order_parameter_slice(5);
        let mut buf = Vec::new();
        let dims = sim.order_parameter_slice_into(5, &mut buf);
        assert_eq!(dims, (nx, ny));
        assert_eq!(buf, owned);
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        sim.step();
        sim.order_parameter_slice_into(5, &mut buf);
        assert_eq!(buf.capacity(), cap, "refill must not grow the buffer");
        assert_eq!(buf.as_ptr(), ptr, "refill must not reallocate");
    }

    #[test]
    fn checkpoint_restore_is_bit_identical() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.3);
        a.step_n(7);
        // the `lbm/*` sections are the one checkpoint format: the
        // distributions come back bit for bit, and so does the run
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        let mut b = TwoFluidLbm::from_snapshot(&snap).unwrap();
        assert_eq!((b.steps(), b.miscibility()), (7, 0.3));
        assert_eq!((bits(&a.fa), bits(&a.fb)), (bits(&b.fa), bits(&b.fb)));
        a.step_n(5);
        b.step_n(5);
        assert_eq!((bits(&a.fa), bits(&a.fb)), (bits(&b.fa), bits(&b.fb)));
    }

    #[test]
    fn snapshot_sections_roundtrip_bit_identical() {
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.3);
        a.step_n(7);
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        // through the wire format, into a fresh process
        let decoded = Snapshot::decode(&snap.encode()).unwrap();
        let mut b = TwoFluidLbm::from_snapshot(&decoded).unwrap();
        assert_eq!(b.steps(), 7);
        assert_eq!(b.miscibility(), 0.3);
        a.step_n(5);
        b.step_n(5);
        assert_eq!(a.order_parameter().data(), b.order_parameter().data());
    }

    #[test]
    fn snapshot_restore_in_place_keeps_pool() {
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.2);
        a.step_n(4);
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        a.step_n(6); // diverge past the checkpoint
        let pool = Arc::clone(a.pool());
        a.restore_sections(&snap).unwrap();
        assert!(Arc::ptr_eq(a.pool(), &pool), "restore must keep the pool");
        assert_eq!(a.steps(), 4);
    }

    #[test]
    fn snapshot_missing_or_short_sections_are_typed_errors() {
        let sim = TwoFluidLbm::new(LbmConfig::small());
        let mut snap = Snapshot::new(1, 0);
        sim.save_sections(&mut snap);
        let mut no_fb = snap.clone();
        no_fb.sections.retain(|s| s.name != SEC_LBM_FB);
        assert!(matches!(
            TwoFluidLbm::from_snapshot(&no_fb),
            Err(CkptError::MissingSection { .. })
        ));
        let mut short = snap.clone();
        short.sections[1].bytes.truncate(40);
        assert!(matches!(
            TwoFluidLbm::from_snapshot(&short),
            Err(CkptError::Truncated { .. })
        ));
    }

    #[test]
    fn hostile_meta_headers_are_typed_errors() {
        // `save_sections` field order: nx, ny, nz, tau, then the rest
        let blob = |nx: u64, ny: u64, nz: u64, tau: f64, f_len: usize| {
            let mut w = SectionWriter::with_capacity(96);
            for d in [nx, ny, nz] {
                w.put_u64(d);
            }
            for v in [tau, 2.5, 0.5, 0.01] {
                w.put_f64(v);
            }
            w.put_u64(42);
            w.put_u64(1);
            w.put_f64(1.0);
            w.put_u64(0);
            let mut snap = Snapshot::new(1, 0);
            snap.push(SEC_LBM_META, 0, w.finish());
            snap.push(SEC_LBM_FA, 8, vec![0u8; f_len]);
            snap.push(SEC_LBM_FB, 8, vec![0u8; f_len]);
            snap
        };
        let ok = 4 * 4 * 4 * Q * 8;
        assert!(TwoFluidLbm::from_snapshot(&blob(4, 4, 4, 1.0, ok)).is_ok());
        let big = 1u64 << 32;
        for (what, snap) in [
            ("nx = 0", blob(0, 4, 4, 1.0, 0)),
            ("ny = 0", blob(4, 0, 4, 1.0, 0)),
            ("nz = 1", blob(4, 4, 1, 1.0, 4 * 4 * Q * 8)),
            ("1x1x1", blob(1, 1, 1, 1.0, Q * 8)),
            ("n wraps to 0", blob(big, big, 2, 1.0, 0)),
            ("n*Q wraps", blob(big, 1 << 27, 2, 1.0, 0)),
            ("only n*Q*8 wraps", blob(big, 1 << 24, 2, 1.0, 0)),
            ("tau = 0.5", blob(4, 4, 4, 0.5, ok)),
            ("tau < 0", blob(4, 4, 4, -1.0, ok)),
            ("tau NaN", blob(4, 4, 4, f64::NAN, ok)),
            ("tau inf", blob(4, 4, 4, f64::INFINITY, ok)),
        ] {
            assert!(
                matches!(
                    TwoFluidLbm::from_snapshot(&snap),
                    Err(CkptError::Corrupt { .. })
                ),
                "{what} must be refused as Corrupt"
            );
        }
    }

    #[test]
    fn push_writes_every_direction_of_every_node() {
        // nz = 2 and ny = 2: both ±1 neighbours are the same plane / row
        for (nx, ny, nz) in [(7, 2, 2), (13, 5, 3), (4, 3, 2)] {
            for backend in [lanes::Backend::Scalar, lanes::Backend::Simd] {
                let mut sim = TwoFluidLbm::new(LbmConfig {
                    nx,
                    ny,
                    nz,
                    threads: 4,
                    ..LbmConfig::small()
                });
                sim.set_backend(backend);
                sim.set_miscibility(0.2);
                sim.fa_new = vec![f64::NAN; sim.n * Q];
                sim.fb_new = vec![f64::NAN; sim.n * Q];
                sim.step(); // swaps the pushed buffers in
                assert!(
                    !sim.is_unstable(),
                    "{nx}x{ny}x{nz} {}: a slot kept its NaN sentinel",
                    backend.label()
                );
            }
        }
    }

    #[test]
    fn restore_then_step_equals_the_uninterrupted_run() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut a = TwoFluidLbm::new(LbmConfig::small());
        a.set_miscibility(0.25);
        a.step_n(4);
        let mut snap = Snapshot::new(1, 0);
        a.save_sections(&mut snap);
        // b's moments describe an unrelated state when the restore lands
        let mut b = TwoFluidLbm::new(LbmConfig {
            seed: 7,
            ..LbmConfig::small()
        });
        b.set_miscibility(0.0);
        b.step_n(9);
        b.restore_sections(&snap).unwrap();
        a.step_n(6);
        b.step_n(6);
        assert_eq!(bits(&a.fa), bits(&b.fa));
        assert_eq!(bits(&a.fb), bits(&b.fb));
        assert_eq!((a.steps(), a.miscibility()), (b.steps(), b.miscibility()));
    }

    #[test]
    #[should_panic(expected = "tau must exceed 0.5")]
    fn invalid_tau_rejected() {
        let cfg = LbmConfig {
            tau: 0.4,
            ..LbmConfig::small()
        };
        let _ = TwoFluidLbm::new(cfg);
    }
}
