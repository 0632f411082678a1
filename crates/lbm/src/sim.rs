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
//! A step reads the 38 distribution rows twice and writes them once, in
//! place: each component has one distribution array, and successive steps
//! alternate between two layouts of it (the AA pattern of Bailey et al.,
//! ICPP 2009).
//!
//! 1. **force + collide** — per z-plane, in two stages.
//!    *Force*: for each node the Shan–Chen gradient from the neighbours'
//!    densities and the two shifted equilibrium velocities, kept in a
//!    plane-sized scratch of the task's own (ten values a node, never an
//!    `n`-sized array). The gradient skips the ×0 terms of the velocity
//!    set: each direction's `wᵢ·ρ` is added to a component where cᵢ is
//!    +1, subtracted where it is −1 and left out where it is 0 (60 adds
//!    or subtracts a node where multiplying by cᵢ costs 108 multiplies
//!    and 108 adds), bit-identical to the multiply-by-cᵢ sum on every
//!    finite state. *Relax*: the 19 relaxed values of each component
//!    written back into the array, a few opposite pairs at a time across
//!    the whole plane. Where they go depends on the layout the array is
//!    in:
//!    - *canonical* (row `i` holds `f_i` of every node): the **local**
//!      sweep relaxes each node's `f_i` and writes it into row `ī` (the
//!      opposite direction) of the same node. The array is then
//!      *swapped*: the value bound for `x + c_i` waits at row `ī` of `x`,
//!      so the new state's `f_i(x)` is row `ī` at the upwind node `x − c_i`.
//!    - *swapped*: the **streaming** sweep reads `f_i(x)` from row `ī` of
//!      the upwind node `x − c_i` and writes the relaxed value to row `i`
//!      of the downwind node `x + c_i`, which leaves the array canonical.
//!
//!    A node's directions are relaxed by opposite pairs — the rest
//!    direction alone, then `(2p − 1, 2p)` for p = 1..9 — and both slots
//!    of a pair are read before either is written: in the streaming sweep
//!    the slot `f_i` goes to is the one `f_ī` comes from.
//! 2. **moments** — one pass over the arrays producing the densities
//!    `rho_a`, `rho_b` and the total momentum `j`, each a sum over the
//!    directions in ascending order, reading every `f_i(x)` where the
//!    layout keeps it.
//!
//! Every relaxed value is the expression the two-buffer push step (source
//! node relaxes, writes to its neighbours in a second array) formed on the
//! same inputs, and the moments sum the same values in the same order, so
//! the in-place step is bit-identical to the push; the push survives as
//! the test module's executable spec. Which layout the arrays are in is a
//! fact of the storage (`swapped`), not of the step count: checkpoints
//! always carry the canonical layout, and a restored solver starts in it.
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
//! The relax stage is pair-major on purpose. Taking all 19 directions
//! at each node keeps the velocities in registers and is the fastest form
//! on a quiet machine, but it walks all 38 rows' page-strided streams at
//! once and its time swings by 2–3× with the state of the cache and TLB
//! (13–40 ms per 48³ step within one process on the reference box). A
//! handful of long linear runs per pass — two pairs at a time in the
//! local sweep, five in the streaming one — costs ~2 ms of the best case
//! and holds its time.
//!
//! Both sweeps are race-free in safe code, with one task per z-plane. The
//! local sweep's task `z` touches only plane `z` of every row. The
//! streaming sweep's task touches row `i` only at plane `wrap(z + CZ[i])`:
//! it writes `f_i` of its nodes there, and reads `f_ī` there too (the
//! upwind node of direction `ī` is `x − c_ī = x + c_i`). For a fixed `i`
//! the map `z ↦ wrap(z + CZ[i])` is a bijection on planes, so task `z`
//! owns exactly the chunks `i·nz + wrap(z + CZ[i])` of the plane-sized
//! chunking — every slot is read and written by one node of one task, at
//! any thread count — and [`DisjointChunks`] turns any violation into a
//! panic.
//!
//! # Layout and backends
//!
//! State is structure-of-arrays: distributions live as `f[i*n + node]`
//! (direction-major, nodes contiguous within a direction row) and the
//! moments the same way, five rows `m[c*n + node]`. Both sweeps are
//! written once, generic over a private `Lane` trait, and run at two
//! widths behind [`lanes::Backend`]:
//!
//! * **scalar** — one node at a time, every neighbour through the x wrap
//!   (`Geom::neighbor` for the gradient read in the force stage, a row
//!   base plus `wrap` for the streamed slots and the swapped moments);
//!   this is the executable spec.
//! * **simd** — [`lanes::F64x4`], one node per lane, over the interior of
//!   each lattice row, where a block's neighbours are contiguous off 19
//!   per-row bases; the row's edge nodes, where the x wrap can fire, run
//!   the same kernel at width one. A pass that reads no neighbour (the
//!   local relax, the canonical moments) runs its blocks across row ends.
//! * **wide** (the default on a CPU with AVX2) — the simd sweeps, compiled
//!   a second time under `#[target_feature(enable = "avx2")]`: each sweep's
//!   per-plane task is one `#[inline(always)]` function, called directly
//!   for `simd` and through an AVX2 wrapper for `wide`, so an `F64x4`
//!   operation is one 256-bit instruction instead of two 128-bit ones.
//!   [`lanes::Backend::resolve`] lets `wide` run only where AVX2 exists.
//!
//! All three execute the *identical* floating-point operation sequence
//! for every node — same association, no FMA, accumulations in ascending
//! direction order — so their results are bit-identical, and CI proves it
//! across the {1, 8} threads × {scalar, simd, wide} matrix.
//!
//! Parallelism: the sweeps dispatch onto a persistent
//! [`gridsteer_exec::ExecPool`] in whole-z-plane tasks — a fixed
//! task→node mapping independent of the pool's thread count, so the
//! physics is bit-identical at any parallelism and no OS threads are
//! spawned on the per-step hot path.

use crate::lattice::{equilibrium_lane, uu15, Lane, CX, CY, CZ, OPPOSITE, Q, WEIGHTS};
use gridsteer_ckpt::{CkptError, SectionWriter, Snapshot};
use gridsteer_exec::{DisjointChunks, ExecPool};
use lanes::F64x4;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::array::from_fn;
use std::ops::Range;
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

/// [`from_fn`] for the plane kernels, inlined wherever it is called. A
/// plane kernel is compiled twice (the baseline build and the AVX2 one);
/// left to its own judgement the inliner then turns some per-node arrays
/// into calls, ~20 % on the baseline step at 48³.
#[inline(always)]
fn kernel_array<T: Copy + Default, const N: usize>(mut f: impl FnMut(usize) -> T) -> [T; N] {
    let mut out = [T::default(); N];
    for (i, v) in out.iter_mut().enumerate() {
        *v = f(i);
    }
    out
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
    #[inline(always)]
    fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        x + self.nx * (y + self.ny * z)
    }

    /// Periodic neighbour index in direction `i`.
    #[inline(always)]
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
    #[inline(always)]
    fn row_bases(&self, y: usize, z: usize) -> [usize; Q] {
        kernel_array(|i| self.idx(0, wrap(y, CY[i], self.ny), wrap(z, CZ[i], self.nz)))
    }
}

/// End of a row's lane-blocked x range: with `lanes`, blocks cover x in
/// `1..xe`, where x ± 1 cannot wrap; otherwise (or on a row too short for
/// one block) there are none and `xe` is 1.
#[inline(always)]
fn lane_end(nx: usize, lanes: bool) -> usize {
    if lanes && nx > L + 1 {
        1 + (nx - 2) / L * L
    } else {
        1
    }
}

/// The x of a row that no lane block covers: 0 and `xe..nx`.
#[inline(always)]
fn row_edges(xe: usize, nx: usize) -> impl Iterator<Item = usize> {
    std::iter::once(0).chain(xe..nx)
}

/// The moments sweep for the node (or block of consecutive nodes, one per
/// lane) whose `f_i` sits at index `src(i)` of both arrays: its moments
/// `[ρA, ρB, jx, jy, jz]`, each summed over the directions in ascending
/// order, stored at `k` of the five `out` slices.
#[inline(always)]
fn moments<T: Lane>(
    fa: &[f64],
    fb: &[f64],
    src: impl Fn(usize) -> usize,
    out: &mut [&mut [f64]; 5],
    k: usize,
) {
    let mut m = [T::splat(0.0); 5];
    for i in 0..Q {
        let a = T::load(fa, src(i));
        let b = T::load(fb, src(i));
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

/// Read-only inputs of the collide sweeps.
struct SweepCtx<'a> {
    /// The five moment rows of the distributions.
    moments: &'a [f64],
    n: usize,
    plane: usize,
    g: f64,
    tau: f64,
}

/// The slots one collide-sweep task reads and writes: per direction row,
/// the one plane of each component's array it owns and that plane's first
/// global node index.
struct PlaneRows<'a> {
    a: [&'a mut [f64]; Q],
    b: [&'a mut [f64]; Q],
    start: [usize; Q],
}

/// Per-node values the force stage of the collide sweep hands to its
/// relax stage, a plane-sized row each: ρA, ρB, uA (3), uB (3), 1.5·uA·uA,
/// 1.5·uB·uB.
const NODE_VALS: usize = 10;

/// The relax stage's units: the rest direction alone, then the opposite
/// pairs `(2p − 1, 2p)` for p = 1..=9.
const PAIRS: usize = Q.div_ceil(2);

// the velocity set lists every moving direction next to its opposite
const _: () = {
    let mut p = 1;
    while p < PAIRS {
        assert!(OPPOSITE[2 * p - 1] == 2 * p);
        p += 1;
    }
};

/// Pairs the local relax takes at a time: 4·`LOCAL_GROUP` linear runs
/// (both slots of each pair, both components) instead of all 38 rows at
/// once. Its runs all sit in one plane, at the same offset within every
/// row's page-aligned stride; 2 measured fastest of 1, 2, 3 and 5.
const LOCAL_GROUP: usize = 2;

/// Pairs the streaming relax takes at a time; its runs are spread over
/// three planes and shifted by the neighbour offsets, and 5 measured
/// fastest of 2, 3 and 5.
const STREAM_GROUP: usize = 5;

/// The Shan–Chen gradients Σᵢ wᵢ ρ(x+cᵢ) cᵢ of both densities at one node
/// (or lane block), `(∇ρA, ∇ρB)`.
type Gradients<T> = ([T; 3], [T; 3]);

impl SweepCtx<'_> {
    /// Moment row `c` (ρA, ρB, jx, jy, jz) at global node `at`, one node
    /// per lane.
    #[inline(always)]
    fn moment<T: Lane>(&self, c: usize, at: usize) -> T {
        T::load(self.moments, c * self.n + at)
    }

    /// Force stage for the node (or block of consecutive nodes, one per
    /// lane) at global index `node`: densities, the two shifted
    /// equilibrium velocities and their `1.5·u·u`, stored at `k` of the
    /// `NODE_VALS` rows of `vals`. `nb[i]` is the global index of the
    /// first node's neighbour in direction `i` (the other lanes'
    /// neighbours follow it), where the gradient reads the densities.
    #[inline(always)]
    fn force<T: Lane>(&self, node: usize, nb: &[usize; Q], vals: &mut [f64], k: usize) {
        self.node_vals(node, self.gradients::<T>(nb), vals, k);
    }

    /// The Shan–Chen gradients at the node (or lane block) whose
    /// neighbours `nb` lists, one [`SweepCtx::grad_term`] per moving
    /// direction in ascending order.
    #[inline(always)]
    fn gradients<T: Lane>(&self, nb: &[usize; Q]) -> Gradients<T> {
        let mut grads = ([T::splat(0.0); 3], [T::splat(0.0); 3]);
        self.grad_term::<T, 1>(nb, &mut grads);
        self.grad_term::<T, 2>(nb, &mut grads);
        self.grad_term::<T, 3>(nb, &mut grads);
        self.grad_term::<T, 4>(nb, &mut grads);
        self.grad_term::<T, 5>(nb, &mut grads);
        self.grad_term::<T, 6>(nb, &mut grads);
        self.grad_term::<T, 7>(nb, &mut grads);
        self.grad_term::<T, 8>(nb, &mut grads);
        self.grad_term::<T, 9>(nb, &mut grads);
        self.grad_term::<T, 10>(nb, &mut grads);
        self.grad_term::<T, 11>(nb, &mut grads);
        self.grad_term::<T, 12>(nb, &mut grads);
        self.grad_term::<T, 13>(nb, &mut grads);
        self.grad_term::<T, 14>(nb, &mut grads);
        self.grad_term::<T, 15>(nb, &mut grads);
        self.grad_term::<T, 16>(nb, &mut grads);
        self.grad_term::<T, 17>(nb, &mut grads);
        self.grad_term::<T, 18>(nb, &mut grads);
        grads
    }

    /// Direction `I`'s terms of the two gradients: `wᵢ·ρ` at the
    /// neighbour, added to a component where cᵢ is +1, subtracted where it
    /// is −1 and skipped where it is 0. `I` is a constant, so every branch
    /// folds away and the 18 calls are straight-line code. Bit-identical
    /// to the multiply-by-cᵢ form (`reference::gradients`) on every finite
    /// state: `x·±1` and `a + (−b) = a − b` are exact, and a `±0` term only
    /// picks the sign of a zero sum, which starts at `+0` and stays there.
    #[inline(always)]
    fn grad_term<T: Lane, const I: usize>(&self, nb: &[usize; Q], grads: &mut Gradients<T>) {
        let w = T::splat(WEIGHTS[I]);
        let (wa, wb) = (w * self.moment(0, nb[I]), w * self.moment(1, nb[I]));
        let (grad_a, grad_b) = grads;
        for (k, c) in [CX[I], CY[I], CZ[I]].into_iter().enumerate() {
            match c {
                1 => {
                    grad_b[k] += wb;
                    grad_a[k] += wa;
                }
                -1 => {
                    grad_b[k] -= wb;
                    grad_a[k] -= wa;
                }
                _ => {}
            }
        }
    }

    /// The rest of the force stage, from the node's gradients: densities,
    /// shifted velocities and `1.5·u·u`, stored at `k` of `vals`.
    #[inline(always)]
    fn node_vals<T: Lane>(&self, node: usize, grads: Gradients<T>, vals: &mut [f64], k: usize) {
        let (grad_a, grad_b) = grads;
        let (ra, rb) = (self.moment::<T>(0, node), self.moment::<T>(1, node));
        let rho_tot = (ra + rb).max(T::splat(1e-12));
        let u: [T; 3] = kernel_array(|k| self.moment::<T>(2 + k, node) / rho_tot);
        // per-component equilibrium velocity (velocity-shift forcing)
        let (ga, gb) = (T::splat(-self.g) * ra, T::splat(-self.g) * rb);
        let (ra_s, rb_s) = (ra.max(T::splat(1e-12)), rb.max(T::splat(1e-12)));
        let tau = T::splat(self.tau);
        let ua: [T; 3] = kernel_array(|k| u[k] + tau * (ga * grad_b[k]) / ra_s);
        let ub: [T; 3] = kernel_array(|k| u[k] + tau * (gb * grad_a[k]) / rb_s);
        let (uu_a, uu_b) = (uu15(ua), uu15(ub));
        let out = [ra, rb, ua[0], ua[1], ua[2], ub[0], ub[1], ub[2], uu_a, uu_b];
        for (c, v) in out.into_iter().enumerate() {
            v.store(vals, c * self.plane + k);
        }
    }

    /// Relax stage for the units `pairs` (see [`PAIRS`]) of the node (or
    /// lane block) whose force-stage values sit at `k` of `vals`: BGK
    /// relaxation of each `f_i`, in place. `at(s)` is the global index of
    /// the node's slot in row `s` — the node itself in the local sweep
    /// (`STREAM` false), which reads `f_i` from row `i` and writes it to
    /// row `ī`; its neighbour in direction `s` in the streaming sweep,
    /// which reads `f_i` from row `ī` at the upwind node and writes it to
    /// row `i` at the downwind one. Both slots of a pair are read before
    /// either is written.
    #[inline(always)]
    fn relax<T: Lane, const STREAM: bool>(
        &self,
        pairs: Range<usize>,
        at: impl Fn(usize) -> usize,
        vals: &[f64],
        k: usize,
        f: &mut PlaneRows<'_>,
    ) {
        let [ra, rb, uax, uay, uaz, ubx, uby, ubz, uu_a, uu_b]: [T; NODE_VALS] =
            kernel_array(|c| T::load(vals, c * self.plane + k));
        let omega = T::splat(1.0 / self.tau);
        let (ua, ub) = ([uax, uay, uaz], [ubx, uby, ubz]);
        for p in pairs {
            if p == 0 {
                let at = at(0) - f.start[0];
                let (sa, sb) = (T::load(f.a[0], at), T::load(f.b[0], at));
                let (ea, eb) = (
                    equilibrium_lane(0, ra, ua, uu_a),
                    equilibrium_lane(0, rb, ub, uu_b),
                );
                (sa + omega * (ea - sa)).store(f.a[0], at);
                (sb + omega * (eb - sb)).store(f.b[0], at);
                continue;
            }
            let (i, j) = (2 * p - 1, 2 * p);
            let (at_i, at_j) = (at(i) - f.start[i], at(j) - f.start[j]);
            let (ai, aj) = (T::load(f.a[i], at_i), T::load(f.a[j], at_j));
            let (bi, bj) = (T::load(f.b[i], at_i), T::load(f.b[j], at_j));
            // f_i and f_j of each component, from the slots this sweep
            // reads them in…
            let [sai, saj, sbi, sbj] = if STREAM {
                [aj, ai, bj, bi]
            } else {
                [ai, aj, bi, bj]
            };
            let rai = sai + omega * (equilibrium_lane(i, ra, ua, uu_a) - sai);
            let rbi = sbi + omega * (equilibrium_lane(i, rb, ub, uu_b) - sbi);
            let raj = saj + omega * (equilibrium_lane(j, ra, ua, uu_a) - saj);
            let rbj = sbj + omega * (equilibrium_lane(j, rb, ub, uu_b) - sbj);
            // …relaxed into the slots it writes them to
            let [wai, waj, wbi, wbj] = if STREAM {
                [rai, raj, rbi, rbj]
            } else {
                [raj, rai, rbj, rbi]
            };
            wai.store(f.a[i], at_i);
            waj.store(f.a[j], at_j);
            wbi.store(f.b[i], at_i);
            wbj.store(f.b[j], at_j);
        }
    }
}

/// The moments sweep's task for plane `z`: the plane's moments into the
/// five plane-sized rows of `out`. Canonical storage keeps a node's `f_i`
/// in its own column, so lane blocks run across row ends and the tail
/// runs at width one; swapped storage keeps `f_i(x)` at row `ī` of the
/// upwind node `x − c_i`, so it walks rows as the force stage does.
#[inline(always)]
fn moments_plane<const SWAPPED: bool>(
    fa: &[f64],
    fb: &[f64],
    geom: Geom,
    lanes: bool,
    z: usize,
    mut out: [&mut [f64]; 5],
) {
    let Geom { nx, ny, nz } = geom;
    let (plane, n) = (nx * ny, nx * ny * nz);
    if SWAPPED {
        let xe = lane_end(nx, lanes);
        for y in 0..ny {
            let bases = geom.row_bases(y, z);
            // f_i of the row's node x sits at rows[i] + wrap(x, CX[ī], nx)
            let rows: [usize; Q] = kernel_array(|i| OPPOSITE[i] * n + bases[OPPOSITE[i]]);
            // …which in a lane block, where x cannot wrap, is blocks[i] + x − 1
            let blocks: [usize; Q] = kernel_array(|i| rows[i] + (1 + CX[OPPOSITE[i]]) as usize);
            for x in (1..xe).step_by(L) {
                let src = |i: usize| blocks[i] + x - 1;
                moments::<F64x4>(fa, fb, src, &mut out, y * nx + x);
            }
            for x in row_edges(xe, nx) {
                let src = |i: usize| rows[i] + wrap(x, CX[OPPOSITE[i]], nx);
                moments::<f64>(fa, fb, src, &mut out, y * nx + x);
            }
        }
        return;
    }
    let mut k = 0;
    while lanes && k + L <= plane {
        let node = z * plane + k;
        moments::<F64x4>(fa, fb, |i| i * n + node, &mut out, k);
        k += L;
    }
    for k in k..plane {
        let node = z * plane + k;
        moments::<f64>(fa, fb, |i| i * n + node, &mut out, k);
    }
}

/// The collide sweep's task for plane `z`: the force stage over the plane
/// into a scratch of its own, then the relax stage a few pairs at a time
/// over the slots of `f` — the streaming sweep if `STREAM`, the local one
/// otherwise. With `lanes`, lane blocks cover x in `1..xe` of every row
/// (the local relax, which reads no neighbour, runs them across row
/// ends); the rest — all of it without `lanes` — runs the same kernels at
/// width one.
#[inline(always)]
fn collide_plane<const STREAM: bool>(
    ctx: &SweepCtx<'_>,
    geom: Geom,
    lanes: bool,
    z: usize,
    mut f: PlaneRows<'_>,
) {
    let Geom { nx, ny, .. } = geom;
    let plane = ctx.plane;
    let xe = lane_end(nx, lanes);
    let mut vals = vec![0.0; NODE_VALS * plane];
    for y in 0..ny {
        let (k, bases) = (y * nx, geom.row_bases(y, z));
        for x in (1..xe).step_by(L) {
            let nb = kernel_array(|i| bases[i] + wrap(x, CX[i], nx));
            ctx.force::<F64x4>(z * plane + k + x, &nb, &mut vals, k + x);
        }
        for x in row_edges(xe, nx) {
            let nb = kernel_array(|i| geom.neighbor(x, y, z, i));
            ctx.force::<f64>(z * plane + k + x, &nb, &mut vals, k + x);
        }
    }
    let group = if STREAM { STREAM_GROUP } else { LOCAL_GROUP };
    for p0 in (0..PAIRS).step_by(group) {
        let pairs = p0..(p0 + group).min(PAIRS);
        if !STREAM {
            let mut k = 0;
            while lanes && k + L <= plane {
                let node = z * plane + k;
                ctx.relax::<F64x4, false>(pairs.clone(), |_| node, &vals, k, &mut f);
                k += L;
            }
            for k in k..plane {
                let node = z * plane + k;
                ctx.relax::<f64, false>(pairs.clone(), |_| node, &vals, k, &mut f);
            }
            continue;
        }
        for y in 0..ny {
            let (k, bases) = (y * nx, geom.row_bases(y, z));
            // in a lane block, where x cannot wrap, the slot of x in row s
            // is blocks[s] + x − 1
            let blocks: [usize; Q] = kernel_array(|s| bases[s] + (1 + CX[s]) as usize);
            for x in (1..xe).step_by(L) {
                let at = |s: usize| blocks[s] + x - 1;
                ctx.relax::<F64x4, true>(pairs.clone(), at, &vals, k + x, &mut f);
            }
            for x in row_edges(xe, nx) {
                let at = |s: usize| bases[s] + wrap(x, CX[s], nx);
                ctx.relax::<f64, true>(pairs.clone(), at, &vals, k + x, &mut f);
            }
        }
    }
}

/// [`moments_plane`] with lane blocks, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn moments_plane_avx2<const SWAPPED: bool>(
    fa: &[f64],
    fb: &[f64],
    geom: Geom,
    z: usize,
    out: [&mut [f64]; 5],
) {
    moments_plane::<SWAPPED>(fa, fb, geom, true, z, out);
}

/// [`collide_plane`] with lane blocks, compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn collide_plane_avx2<const STREAM: bool>(
    ctx: &SweepCtx<'_>,
    geom: Geom,
    z: usize,
    f: PlaneRows<'_>,
) {
    collide_plane::<STREAM>(ctx, geom, true, z, f);
}

/// The two-fluid Lattice-Boltzmann simulation.
pub struct TwoFluidLbm {
    cfg: LbmConfig,
    /// Worker pool the sweeps dispatch onto (shared across sims with the
    /// same thread count; replaceable via [`TwoFluidLbm::set_pool`]).
    pool: Arc<ExecPool>,
    n: usize,
    plane: usize,
    /// Distributions, SoA rows of `n` nodes per direction, per component:
    /// `f_i(x)` at `f[i*n + x]` (canonical) or, when `swapped`, at
    /// `f[ī*n + (x − c_i)]` (see the module doc).
    fa: Vec<f64>,
    fb: Vec<f64>,
    /// Which layout `fa`/`fb` are in: set by a local sweep, cleared by a
    /// streaming one and by every construction or restore.
    swapped: bool,
    /// Moments of the distributions, five rows `m[c*n + node]` for c = ρA,
    /// ρB, jx, jy, jz. Always current: [`TwoFluidLbm::from_parts`], every
    /// restore and every step end with the moments sweep, and nothing else
    /// writes `fa`/`fb`.
    moments: Vec<f64>,
    /// Current miscibility m ∈ \[0,1\].
    miscibility: f64,
    /// Kernel backend (defaults to the process-wide [`lanes::backend`]).
    /// Always a value [`lanes::Backend::resolve`] returned: the sweeps
    /// run their AVX2 builds on `Wide` without checking the CPU again.
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

    /// Assemble a solver around given canonical distributions and take
    /// their moments.
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
            moments: vec![0.0; n * 5],
            fa,
            fb,
            swapped: false,
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

    /// Override the kernel backend, as [`lanes::Backend::on_this_cpu`]
    /// resolves it (`Wide` on a CPU without AVX2 runs `Simd`). Results
    /// are unaffected — the backends are bit-identical (tested,
    /// proptested, and CI-gated); benches use this to measure each in one
    /// process.
    pub fn set_backend(&mut self, backend: lanes::Backend) {
        self.backend = backend.on_this_cpu();
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

    /// Advance one time step.
    pub fn step(&mut self) {
        self.sweep_collide();
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
    /// five moment arrays from the distributions in their current layout.
    fn sweep_moments(&mut self) {
        let (fa, fb, geom, plane) = (&self.fa[..], &self.fb[..], self.geom(), self.plane);
        let (nz, backend, swapped) = (geom.nz, self.backend, self.swapped);
        let out = DisjointChunks::new(&mut self.moments, plane);
        self.pool.run(nz, |z| {
            let out = from_fn(|c| out.claim(c * nz + z));
            match backend {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `self.backend` is always what `Backend::resolve`
                // returned for this CPU (the field's invariant), and that is
                // `Wide` only when the CPU has AVX2, the one feature
                // `moments_plane_avx2` enables.
                lanes::Backend::Wide => unsafe {
                    if swapped {
                        moments_plane_avx2::<true>(fa, fb, geom, z, out)
                    } else {
                        moments_plane_avx2::<false>(fa, fb, geom, z, out)
                    }
                },
                b if swapped => moments_plane::<true>(fa, fb, geom, b.lane_blocked(), z, out),
                b => moments_plane::<false>(fa, fb, geom, b.lane_blocked(), z, out),
            }
        });
    }

    /// The collide sweep, in place: the local sweep from canonical
    /// storage, the streaming sweep from swapped storage. The task for
    /// plane `z` claims, per direction row, the one plane its slots lie in
    /// (see the module doc) and runs [`collide_plane`]; the layout flips.
    fn sweep_collide(&mut self) {
        let ctx = SweepCtx {
            moments: &self.moments,
            n: self.n,
            plane: self.plane,
            g: self.coupling(),
            tau: self.cfg.tau,
        };
        let (geom, plane, backend, stream) = (self.geom(), self.plane, self.backend, self.swapped);
        let nz = geom.nz;
        let fa = DisjointChunks::new(&mut self.fa, plane);
        let fb = DisjointChunks::new(&mut self.fb, plane);
        self.pool.run(nz, |z| {
            let dz: [usize; Q] = from_fn(|i| if stream { wrap(z, CZ[i], nz) } else { z });
            let f = PlaneRows {
                a: from_fn(|i| fa.claim(i * nz + dz[i])),
                b: from_fn(|i| fb.claim(i * nz + dz[i])),
                start: dz.map(|d| d * plane),
            };
            match backend {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `self.backend` is always what `Backend::resolve`
                // returned for this CPU (the field's invariant), and that is
                // `Wide` only when the CPU has AVX2, the one feature
                // `collide_plane_avx2` enables.
                lanes::Backend::Wide => unsafe {
                    if stream {
                        collide_plane_avx2::<true>(&ctx, geom, z, f)
                    } else {
                        collide_plane_avx2::<false>(&ctx, geom, z, f)
                    }
                },
                b if stream => collide_plane::<true>(&ctx, geom, b.lane_blocked(), z, f),
                b => collide_plane::<false>(&ctx, geom, b.lane_blocked(), z, f),
            }
        });
        self.swapped = !stream;
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
    /// φ is ρA − ρB from the two density rows.
    pub fn order_parameter_into(&self, out: &mut Vec<f32>) {
        let (ra, rb) = (self.moment_row(0), self.moment_row(1));
        out.clear();
        out.extend(ra.iter().zip(rb).map(|(a, b)| (a - b) as f32));
    }

    /// Spatial variance of φ — a scalar demixing metric: near zero for a
    /// mixed state, growing as domains form.
    pub fn demix_metric(&self) -> f64 {
        demix_of(&self.order_parameter())
    }

    /// True if any distribution value is non-finite (stability check).
    /// Both layouts hold the same values, so the raw storage is scanned.
    pub fn is_unstable(&self) -> bool {
        self.fa.iter().chain(self.fb.iter()).any(|v| !v.is_finite())
    }

    /// Lay the full solver state into `snap` as the sections
    /// `lbm/meta` + `lbm/fa` + `lbm/fb`. The distribution sections hold
    /// the canonical layout whichever one the arrays are in, with a
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
        snap.push(SEC_LBM_FA, chunk, self.canonical_bytes(&self.fa));
        snap.push(SEC_LBM_FB, chunk, self.canonical_bytes(&self.fb));
    }

    /// One component's distributions in the canonical layout, as raw
    /// little-endian bit patterns. From swapped storage, canonical row
    /// `(i, y, z)` is row `(ī, y − cy, z − cz)` shifted by `−cx` with the
    /// x wrap: two contiguous runs a row, appended in order.
    fn canonical_bytes(&self, f: &[f64]) -> Vec<u8> {
        let mut out = Vec::with_capacity(f.len() * 8);
        if !self.swapped {
            put_f64s(&mut out, f);
            return out;
        }
        let geom = self.geom();
        let Geom { nx, ny, nz } = geom;
        // canonical row i comes from swapped row o = ī
        for o in OPPOSITE {
            for z in 0..nz {
                for y in 0..ny {
                    let at = o * self.n + geom.idx(0, wrap(y, CY[o], ny), wrap(z, CZ[o], nz));
                    let src = &f[at..at + nx];
                    // canonical x reads the swapped row at wrap(x, CX[o])
                    let (head, tail) = match CX[o] {
                        1 => (&src[1..], &src[..1]),
                        -1 => (&src[nx - 1..], &src[..nx - 1]),
                        _ => (src, &src[..0]),
                    };
                    put_f64s(&mut out, head);
                    put_f64s(&mut out, tail);
                }
            }
        }
        out
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
        let s = Sections::read(snap)?;
        let (mut fa, mut fb) = (Vec::new(), Vec::new());
        decode_f64s(s.fa, &mut fa);
        decode_f64s(s.fb, &mut fb);
        let pool = gridsteer_exec::shared(s.cfg.threads);
        Ok(Self::from_parts(
            s.cfg,
            pool,
            fa,
            fb,
            s.miscibility,
            s.steps,
        ))
    }

    /// Replace this solver's physics state from the `lbm/*` sections of
    /// `snap`, keeping the current pool and backend — the in-process
    /// restore path (crash recovery reuses the scenario's pool). The
    /// snapshot is validated in full before anything is written, so a
    /// refused one leaves the solver as it was; then the distributions
    /// are decoded into the arrays the solver already holds, with no
    /// second lattice alive at any point.
    pub fn restore_sections(&mut self, snap: &Snapshot) -> Result<(), CkptError> {
        let s = Sections::read(snap)?;
        decode_f64s(s.fa, &mut self.fa);
        decode_f64s(s.fb, &mut self.fb);
        self.n = s.cfg.nx * s.cfg.ny * s.cfg.nz;
        self.plane = s.cfg.nx * s.cfg.ny;
        self.moments.resize(self.n * 5, 0.0);
        self.swapped = false;
        self.cfg = s.cfg;
        self.miscibility = s.miscibility;
        self.steps = s.steps;
        self.sweep_moments();
        Ok(())
    }
}

/// Snapshot section names for the LBM solver.
pub const SEC_LBM_META: &str = "lbm/meta";
/// Component-A distributions (raw f64 bits, canonical SoA `f[i*n + node]`).
pub const SEC_LBM_FA: &str = "lbm/fa";
/// Component-B distributions (raw f64 bits, canonical SoA `f[i*n + node]`).
pub const SEC_LBM_FB: &str = "lbm/fb";

/// The `lbm/*` sections of a snapshot, validated: the header as a config
/// that [`TwoFluidLbm::with_pool`] would accept, and both distribution
/// sections present at exactly `n·Q·8` bytes.
struct Sections<'a> {
    cfg: LbmConfig,
    miscibility: f64,
    steps: u64,
    fa: &'a [u8],
    fb: &'a [u8],
}

impl<'a> Sections<'a> {
    fn read(snap: &'a Snapshot) -> Result<Sections<'a>, CkptError> {
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
        if cfg.threads > gridsteer_exec::MAX_RESTORED_THREADS {
            return Err(corrupt("thread count above MAX_RESTORED_THREADS"));
        }
        // n·Q·8 is the byte length the f sections are checked against
        let len = cfg
            .nx
            .checked_mul(cfg.ny)
            .and_then(|v| v.checked_mul(cfg.nz))
            .and_then(|n| n.checked_mul(Q))
            .filter(|len| len.checked_mul(8).is_some())
            .ok_or_else(|| corrupt("grid size overflows"))?;
        Ok(Sections {
            fa: f64_section(snap, SEC_LBM_FA, len)?,
            fb: f64_section(snap, SEC_LBM_FB, len)?,
            cfg,
            miscibility,
            steps,
        })
    }
}

/// Append `src` as unprefixed raw little-endian bit patterns (section
/// length carries the count, so chunk boundaries stay plane-aligned). An
/// exact-size iterator: a straight copy into reserved capacity.
fn put_f64s(out: &mut Vec<u8>, src: &[f64]) {
    out.extend(src.iter().flat_map(|v| v.to_bits().to_le_bytes()));
}

/// An unprefixed raw-bits float section, checked for its exact element
/// count.
fn f64_section<'a>(snap: &'a Snapshot, name: &str, expect: usize) -> Result<&'a [u8], CkptError> {
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
    Ok(bytes)
}

/// Decode a checked raw-bits float section into `out`, reusing its
/// allocation.
fn decode_f64s(bytes: &[u8], out: &mut Vec<f64>) {
    out.clear();
    out.extend(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes")))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The distributions in the canonical layout, `f[i*n + node]` per
    /// component, whichever layout the arrays are in: read back from the
    /// checkpoint sections, which always carry it.
    fn canonical(sim: &TwoFluidLbm) -> (Vec<f64>, Vec<f64>) {
        let mut snap = Snapshot::new(1, 0);
        sim.save_sections(&mut snap);
        let read = |name| {
            let mut out = Vec::new();
            decode_f64s(snap.section(name).expect("saved section"), &mut out);
            out
        };
        (read(SEC_LBM_FA), read(SEC_LBM_FB))
    }

    /// The specs the solver's kernels and observers are checked against.
    mod reference {
        use super::*;

        /// The observers as they were before the moment rows served them:
        /// three passes over the 38 canonical distribution rows.
        pub fn total_mass(sim: &TwoFluidLbm) -> (f64, f64) {
            let (fa, fb) = canonical(sim);
            let (mut ma, mut mb) = (0.0, 0.0);
            for (a, b) in fa.iter().zip(&fb) {
                ma += a;
                mb += b;
            }
            (ma, mb)
        }

        pub fn total_momentum(sim: &TwoFluidLbm) -> [f64; 3] {
            let (fa, fb) = canonical(sim);
            let mut p = [0.0f64; 3];
            for node in 0..sim.n {
                for i in 0..Q {
                    let f = fa[i * sim.n + node] + fb[i * sim.n + node];
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
            let (fa, fb) = canonical(sim);
            let mut out = Vec::with_capacity(sim.n);
            for start in (0..sim.n).step_by(BLOCK) {
                let len = BLOCK.min(sim.n - start);
                let (mut ra, mut rb) = ([0.0f64; BLOCK], [0.0f64; BLOCK]);
                for i in 0..Q {
                    let at = i * sim.n + start;
                    let (row_a, row_b) = (&fa[at..at + len], &fb[at..at + len]);
                    for k in 0..len {
                        ra[k] += row_a[k];
                        rb[k] += row_b[k];
                    }
                }
                out.extend((0..len).map(|k| (ra[k] - rb[k]) as f32));
            }
            out
        }

        /// The two-buffer push step the in-place sweeps replaced: per
        /// *source* plane, the force stage, then each node's 19 relaxed
        /// values written straight to its neighbours in a second pair of
        /// arrays, `DIR_GROUP` directions at a time; then the swap and the
        /// moments. `sim` must be canonical, and stays so.
        pub fn step(sim: &mut TwoFluidLbm) {
            assert!(!sim.swapped, "the push step reads canonical storage");
            let mut fa_new = vec![0.0; sim.n * Q];
            let mut fb_new = vec![0.0; sim.n * Q];
            let ctx = SweepCtx {
                moments: &sim.moments,
                n: sim.n,
                plane: sim.plane,
                g: sim.coupling(),
                tau: sim.cfg.tau,
            };
            let (geom, plane, lanes) = (sim.geom(), sim.plane, sim.backend.lane_blocked());
            let (fa, fb, nz) = (&sim.fa[..], &sim.fb[..], geom.nz);
            let out_a = DisjointChunks::new(&mut fa_new, plane);
            let out_b = DisjointChunks::new(&mut fb_new, plane);
            sim.pool.run(nz, |z| {
                let dz: [usize; Q] = from_fn(|i| wrap(z, CZ[i], nz));
                let dst = PushDst {
                    a: from_fn(|i| out_a.claim(i * nz + dz[i])),
                    b: from_fn(|i| out_b.claim(i * nz + dz[i])),
                    start: dz.map(|d| d * plane),
                };
                push_plane(&ctx, fa, fb, geom, lanes, z, dst);
            });
            sim.fa = fa_new;
            sim.fb = fb_new;
            sim.sweep_moments();
            sim.steps += 1;
        }

        /// Directions the push relax streams at a time.
        const DIR_GROUP: usize = 5;

        /// Where one push task writes: per direction, the destination
        /// plane's chunk of each output array and that plane's first
        /// global node index.
        struct PushDst<'a> {
            a: [&'a mut [f64]; Q],
            b: [&'a mut [f64]; Q],
            start: [usize; Q],
        }

        /// The push task for source plane `z`.
        fn push_plane(
            ctx: &SweepCtx<'_>,
            fa: &[f64],
            fb: &[f64],
            geom: Geom,
            lanes: bool,
            z: usize,
            mut dst: PushDst<'_>,
        ) {
            let Geom { nx, ny, .. } = geom;
            let plane = ctx.plane;
            let xe = lane_end(nx, lanes);
            let mut vals = vec![0.0; NODE_VALS * plane];
            for y in 0..ny {
                let (k, bases) = (y * nx, geom.row_bases(y, z));
                for x in (1..xe).step_by(L) {
                    let nb = from_fn(|i| bases[i] + wrap(x, CX[i], nx));
                    ctx.force::<F64x4>(z * plane + k + x, &nb, &mut vals, k + x);
                }
                for x in row_edges(xe, nx) {
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
                        let node = z * plane + k + x;
                        let src = (fa, fb, node);
                        push_relax::<F64x4>(ctx, dirs.clone(), src, to, &vals, k + x, &mut dst);
                    }
                    for x in row_edges(xe, nx) {
                        let to = |i: usize| geom.neighbor(x, y, z, i);
                        let node = z * plane + k + x;
                        let src = (fa, fb, node);
                        push_relax::<f64>(ctx, dirs.clone(), src, to, &vals, k + x, &mut dst);
                    }
                }
            }
        }

        /// BGK relaxation of each `f_i` in `dirs` at the source node (or
        /// lane block) `node` of `(fa, fb, node)`, whose force-stage values
        /// sit at `k` of `vals`, written to the neighbour `to(i)`.
        fn push_relax<T: Lane>(
            ctx: &SweepCtx<'_>,
            dirs: Range<usize>,
            (fa, fb, node): (&[f64], &[f64], usize),
            to: impl Fn(usize) -> usize,
            vals: &[f64],
            k: usize,
            dst: &mut PushDst<'_>,
        ) {
            let [ra, rb, uax, uay, uaz, ubx, uby, ubz, uu_a, uu_b]: [T; NODE_VALS] =
                from_fn(|c| T::load(vals, c * ctx.plane + k));
            let omega = T::splat(1.0 / ctx.tau);
            for i in dirs {
                let sa = T::load(fa, i * ctx.n + node);
                let sb = T::load(fb, i * ctx.n + node);
                let ea = equilibrium_lane(i, ra, [uax, uay, uaz], uu_a);
                let eb = equilibrium_lane(i, rb, [ubx, uby, ubz], uu_b);
                let at = to(i) - dst.start[i];
                (sa + omega * (ea - sa)).store(dst.a[i], at);
                (sb + omega * (eb - sb)).store(dst.b[i], at);
            }
        }

        /// The Shan–Chen gradients in their textbook form: every
        /// direction's `wᵢ·ρ` times each component of cᵢ, zeros included,
        /// summed in ascending i.
        pub fn gradients<T: Lane>(ctx: &SweepCtx<'_>, nb: &[usize; Q]) -> Gradients<T> {
            let mut grad_b = [T::splat(0.0); 3];
            let mut grad_a = [T::splat(0.0); 3];
            for i in 1..Q {
                let w = T::splat(WEIGHTS[i]);
                let wb = w * ctx.moment(1, nb[i]);
                let wa = w * ctx.moment(0, nb[i]);
                let c = [CX[i], CY[i], CZ[i]].map(|c| T::splat(c as f64));
                for k in 0..3 {
                    grad_b[k] += wb * c[k];
                    grad_a[k] += wa * c[k];
                }
            }
            (grad_a, grad_b)
        }

        /// The force stage over [`gradients`] — the spec
        /// `SweepCtx::force` is checked against.
        pub fn force<T: Lane>(
            ctx: &SweepCtx<'_>,
            node: usize,
            nb: &[usize; Q],
            vals: &mut [f64],
            k: usize,
        ) {
            ctx.node_vals(node, gradients::<T>(ctx, nb), vals, k);
        }
    }

    /// The force stage without its ×0 terms equals [`reference::force`]
    /// bit for bit, at width 4 on the lane blocks and at width 1 on every
    /// node, over seeded random moment planes mixing ordinary values with
    /// ±0, subnormals and ±1e300-scale densities. The lattice is 7 wide,
    /// so its row edges (x = 0, 5, 6) are the width-1 nodes of the SIMD
    /// sweep. The gradients, always finite here, match exactly; the
    /// velocities built from them may overflow at these scales, and a
    /// NaN matches a NaN whatever its payload. Non-finite *states* are
    /// outside the contract: at ρ = ∞ the reference's `wᵢ·ρ·0` is a NaN
    /// the lean form never forms.
    #[test]
    fn lean_force_matches_the_reference_bit_for_bit() {
        let geom = Geom {
            nx: 7,
            ny: 3,
            nz: 3,
        };
        let (plane, n) = (geom.nx * geom.ny, geom.nx * geom.ny * geom.nz);
        let xe = 1 + (geom.nx - 2) / L * L;
        let mut rng = StdRng::seed_from_u64(0x5c_f0ce);
        let mut pick = || match rng.gen_range(0..6) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::MIN_POSITIVE * rng.gen_range(-1.0..1.0),
            3 => 1e300 * rng.gen_range(-1.0..1.0),
            _ => rng.gen_range(-0.5..2.0),
        };
        // one f64 per value, `NaN` for any NaN
        let bits = |v: &[f64]| {
            v.iter()
                .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
                .collect::<Vec<_>>()
        };
        let grad_bits = |(a, b): Gradients<F64x4>| {
            a.iter()
                .chain(&b)
                .flat_map(|v| v.0.map(f64::to_bits))
                .collect::<Vec<_>>()
        };
        let widen = |(a, b): Gradients<f64>| (a.map(F64x4::splat), b.map(F64x4::splat));
        for _ in 0..16 {
            let moments: Vec<f64> = (0..5 * n).map(|_| pick()).collect();
            let ctx = SweepCtx {
                moments: &moments,
                n,
                plane,
                g: 2.5,
                tau: 0.9,
            };
            let (mut lean, mut spec) = (vec![0.0; NODE_VALS * plane], vec![0.0; NODE_VALS * plane]);
            for z in 0..geom.nz {
                for y in 0..geom.ny {
                    let (k, bases) = (y * geom.nx, geom.row_bases(y, z));
                    for x in (1..xe).step_by(L) {
                        let nb = from_fn(|i| bases[i] + wrap(x, CX[i], geom.nx));
                        let at = format!("width 4 at ({x}, {y}, {z})");
                        assert_eq!(
                            grad_bits(ctx.gradients(&nb)),
                            grad_bits(reference::gradients(&ctx, &nb)),
                            "{at}"
                        );
                        let node = z * plane + k + x;
                        ctx.force::<F64x4>(node, &nb, &mut lean, k + x);
                        reference::force::<F64x4>(&ctx, node, &nb, &mut spec, k + x);
                        assert_eq!(bits(&lean), bits(&spec), "{at}");
                    }
                    for x in 0..geom.nx {
                        let nb = from_fn(|i| geom.neighbor(x, y, z, i));
                        let at = format!("width 1 at ({x}, {y}, {z})");
                        assert_eq!(
                            grad_bits(widen(ctx.gradients(&nb))),
                            grad_bits(widen(reference::gradients(&ctx, &nb))),
                            "{at}"
                        );
                        let node = z * plane + k + x;
                        ctx.force::<f64>(node, &nb, &mut lean, k + x);
                        reference::force::<f64>(&ctx, node, &nb, &mut spec, k + x);
                        assert_eq!(bits(&lean), bits(&spec), "{at}");
                    }
                }
            }
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
        for backend in lanes::Backend::ALL {
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
        let matrix = lanes::Backend::ALL.map(|b| [(b, 1), (b, 4)]);
        for (backend, threads) in matrix.into_iter().flatten() {
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
            let phi = |backend| {
                let mut sim = TwoFluidLbm::new(cfg.clone());
                sim.set_backend(backend);
                sim.set_miscibility(0.2);
                sim.step_n(5);
                sim.order_parameter()
            };
            let scalar = phi(lanes::Backend::Scalar);
            for backend in lanes::Backend::ALL {
                assert_eq!(
                    phi(backend).data(),
                    scalar.data(),
                    "{nx}x{ny}x{nz} {}",
                    backend.label()
                );
            }
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
    fn order_parameter_into_reuses_capacity_and_matches_allocating_form() {
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.2);
        sim.step_n(3);
        let full = sim.order_parameter();
        let mut buf = Vec::new();
        sim.order_parameter_into(&mut buf);
        assert_eq!(buf, full.data());
        let cap = buf.capacity();
        let ptr = buf.as_ptr();
        sim.step();
        sim.order_parameter_into(&mut buf);
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
        let canonical_bits = |sim: &TwoFluidLbm| {
            let (fa, fb) = canonical(sim);
            (bits(&fa), bits(&fb))
        };
        assert_eq!(canonical_bits(&a), canonical_bits(&b));
        a.step_n(5);
        b.step_n(5);
        assert_eq!(canonical_bits(&a), canonical_bits(&b));
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
        // `save_sections` field order: nx, ny, nz, tau, .., seed, threads, ..
        let header = |[nx, ny, nz]: [u64; 3], tau: f64, threads: u64, f_len: usize| {
            let mut w = SectionWriter::with_capacity(96);
            for d in [nx, ny, nz] {
                w.put_u64(d);
            }
            for v in [tau, 2.5, 0.5, 0.01] {
                w.put_f64(v);
            }
            w.put_u64(42);
            w.put_u64(threads);
            w.put_f64(1.0);
            w.put_u64(0);
            let mut snap = Snapshot::new(1, 0);
            snap.push(SEC_LBM_META, 0, w.finish());
            snap.push(SEC_LBM_FA, 8, vec![0u8; f_len]);
            snap.push(SEC_LBM_FB, 8, vec![0u8; f_len]);
            snap
        };
        let blob = |nx, ny, nz, tau, f_len| header([nx, ny, nz], tau, 1, f_len);
        let ok = 4 * 4 * 4 * Q * 8;
        assert!(TwoFluidLbm::from_snapshot(&blob(4, 4, 4, 1.0, ok)).is_ok());
        let big = 1u64 << 32;
        let over = gridsteer_exec::MAX_RESTORED_THREADS as u64 + 1;
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
            // refused before `gridsteer_exec::shared` spawns a worker
            ("threads past the ceiling", header([4, 4, 4], 1.0, over, ok)),
            ("threads = 2^40", header([4, 4, 4], 1.0, 1 << 40, ok)),
            ("threads = u64::MAX", header([4, 4, 4], 1.0, u64::MAX, ok)),
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

    /// The in-place step equals the two-buffer push it replaced
    /// ([`reference::step`]) bit for bit: the canonical distributions and
    /// the five moment rows after 1, 2, 3 and 8 steps, so after local and
    /// streaming sweeps alike. nz = 2 and ny = 2 make both ±1 neighbours
    /// the same plane or row; 7 and 13 wide leave lane-block remainders; 4
    /// wide has no lane block at all.
    #[test]
    fn in_place_step_matches_the_push_spec() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (nx, ny, nz) in [(7, 2, 2), (13, 5, 3), (4, 3, 2), (16, 16, 16)] {
            for backend in lanes::Backend::ALL {
                for threads in [1, 4] {
                    let cfg = LbmConfig {
                        nx,
                        ny,
                        nz,
                        threads,
                        ..LbmConfig::small()
                    };
                    let mut sim = TwoFluidLbm::new(cfg.clone());
                    let mut spec = TwoFluidLbm::new(cfg);
                    for s in [&mut sim, &mut spec] {
                        s.set_backend(backend);
                        s.set_miscibility(0.2);
                    }
                    for step in 1..=8 {
                        sim.step();
                        reference::step(&mut spec);
                        if ![1, 2, 3, 8].contains(&step) {
                            continue;
                        }
                        let at =
                            format!("{nx}x{ny}x{nz} {} t{threads} step {step}", backend.label());
                        assert_eq!(sim.swapped, step % 2 == 1, "{at}");
                        let (fa, fb) = canonical(&sim);
                        assert_eq!(bits(&fa), bits(&spec.fa), "{at}: fa");
                        assert_eq!(bits(&fb), bits(&spec.fb), "{at}: fb");
                        assert_eq!(bits(&sim.moments), bits(&spec.moments), "{at}: moments");
                    }
                }
            }
        }
    }

    /// A snapshot refused part-way — here its `lbm/fb` is one value short —
    /// leaves the solver it was restored into exactly as it was: every
    /// section is checked before anything is decoded.
    #[test]
    fn a_refused_restore_overwrites_nothing() {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let state = |sim: &TwoFluidLbm| {
            let meta = (
                sim.steps(),
                sim.miscibility().to_bits(),
                sim.swapped,
                sim.dims(),
            );
            (meta, bits(&sim.fa), bits(&sim.fb), bits(&sim.moments))
        };
        let mut donor = TwoFluidLbm::new(LbmConfig {
            seed: 7,
            ..LbmConfig::small()
        });
        donor.step_n(2);
        let mut snap = Snapshot::new(1, 0);
        donor.save_sections(&mut snap);
        let fb = snap.sections.iter_mut().find(|s| s.name == SEC_LBM_FB);
        let fb = fb.expect("lbm/fb saved");
        fb.bytes.truncate(fb.bytes.len() - 8);
        let mut sim = TwoFluidLbm::new(LbmConfig::small());
        sim.set_miscibility(0.4);
        sim.step_n(3); // swapped storage
        let before = state(&sim);
        assert!(matches!(
            sim.restore_sections(&snap),
            Err(CkptError::Truncated { .. })
        ));
        assert!(
            state(&sim) == before,
            "a refused restore wrote into the solver"
        );
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
        let ((fa_a, fb_a), (fa_b, fb_b)) = (canonical(&a), canonical(&b));
        assert_eq!(bits(&fa_a), bits(&fa_b));
        assert_eq!(bits(&fb_a), bits(&fb_b));
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
