//! The Barnes–Hut octree.
//!
//! "The code uses a hierarchical tree algorithm to perform potential and
//! force summation for charged particles in a time O(N log N)" (§3.4).
//!
//! **Build.** Recursive octant subdivision down to small leaves, over one
//! index array that each split partitions stably in place: a node owns a
//! contiguous range of *leaf order* (its particles in ascending input
//! index), a node's children are consecutive nodes in octant order, and
//! no node owns a buffer. Each node carries its monopole (total charge +
//! centre of charge). Positions and charges are copied into leaf order,
//! padded with zeros to a lane multiple, so a walk reads them as
//! contiguous runs.
//!
//! **Evaluation.** Depth-first traversal accepting a node when
//! `size / distance < θ` (the multipole acceptance criterion), falling back
//! to direct summation in leaves. The scalar backend walks the tree once
//! per target (`walk_one`, the spec). The lane-blocked backends walk it
//! once per four consecutive leaf-order targets, one target per lane
//! (`walk_group`). Each lane carries a mask bit: at every node each lane
//! accepts or opens on its own, and a lane whose bit is clear — it
//! accepted an ancestor, or the term is its own particle's — adds ±0.0.
//! That is an exact no-op, because an accumulator that starts at +0.0 can
//! never become −0.0, so each lane performs its scalar walk's operations
//! in that walk's order, bit for bit. `simd` runs the group walk over the
//! portable [`lanes::F64x4`]; `wide` runs the same source compiled for
//! AVX2 (`chunk_groups_avx2`, the LBM sweeps' pattern).
//!
//! **Potential.** Each accepted node or leaf pair also adds `s · r²`
//! (= qᵢqⱼ/r, softened) from the `s = qᵢqⱼ/r³` its force has, so a walk
//! leaves U = ½ Σ qᵢφᵢ at the forces' accuracy: to rounding at θ = 0, ~5e-2
//! relative at n = 3000 and the default θ. [`crate::direct`] is its oracle.
//!
//! Force evaluation is parallel over fixed chunks of leaf-order positions
//! dispatched onto a persistent [`gridsteer_exec::ExecPool`] — the tree is
//! immutable during traversal, so this is race-free, and the fixed
//! chunk→target mapping makes the forces and U bit-identical for any
//! thread count.

// Component loops over `[f64; 3]` are written indexed (`for a in 0..3`);
// that is the clearest spelling for moment accumulation.
#![allow(clippy::needless_range_loop)]

use crate::morton::bounding_cube;
use crate::Particle;
use lanes::{F64x4, F64_LANES};
use std::sync::atomic::{AtomicU64, Ordering};

/// Tree-build and evaluation parameters.
#[derive(Debug, Clone, Copy)]
pub struct TreeConfig {
    /// Multipole acceptance parameter θ (smaller = more accurate, slower).
    pub theta: f64,
    /// Plummer softening length ε.
    pub eps: f64,
    /// Maximum particles per leaf.
    pub leaf_cap: usize,
    /// Worker threads for force evaluation. Defaults to the detected
    /// parallelism (clamped; see [`gridsteer_exec::default_threads`]); an
    /// explicitly set value wins. The thread count never changes results —
    /// targets are chunked at a fixed grain regardless.
    pub threads: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            theta: 0.5,
            eps: 0.05,
            leaf_cap: 8,
            threads: gridsteer_exec::default_threads(),
        }
    }
}

/// Depth at which subdivision stops whatever the leaf holds (coincident
/// particles would split forever).
const MAX_DEPTH: usize = 32;

/// The deepest stack a walk needs: at most seven pending siblings on each
/// of `MAX_DEPTH` levels, plus the eight children just pushed.
const STACK: usize = 8 * (MAX_DEPTH + 1);

/// One octree node.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Geometric centre of the octant.
    center: [f64; 3],
    /// Half edge length of the octant.
    half: f64,
    /// Total charge below this node.
    charge: f64,
    /// Absolute-charge-weighted centre (monopole expansion point; using
    /// |q| keeps the expansion point inside the mass of particles even for
    /// neutral mixtures).
    cocharge: [f64; 3],
    /// Sum of |q| below this node.
    abs_charge: f64,
    /// The leaf-order positions below this node: `start..end`.
    start: u32,
    end: u32,
    /// The children: nodes `first_child..first_child + children`, in
    /// octant order. A leaf has none.
    first_child: u32,
    children: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children == 0
    }

    fn child_range(&self) -> std::ops::Range<u32> {
        self.first_child..self.first_child + self.children
    }
}

/// A Barnes–Hut octree over a particle snapshot, immutable between
/// [`Octree::rebuild`]s.
pub struct Octree {
    nodes: Vec<Node>,
    /// Leaf order: position `p` holds input particle `order[p]`.
    order: Vec<u32>,
    /// The partition's staging copy of `order`.
    scratch: Vec<u32>,
    /// Positions and charges in leaf order, zero-padded to a lane multiple.
    x: Vec<f64>,
    y: Vec<f64>,
    z: Vec<f64>,
    q: Vec<f64>,
    cfg: TreeConfig,
    /// Kernel backend of the force walk (scalar reference or lane-blocked;
    /// bit-identical by construction). Defaults to the process-wide
    /// [`lanes::backend`] switch, and is always what
    /// [`lanes::Backend::on_this_cpu`] resolved.
    backend: lanes::Backend,
    /// Per force chunk, from the last `forces` call: its interaction count
    /// (node/particle acceptances, the O(N log N) work metric) and the bits
    /// of its targets' Σ qᵢφᵢ. Zeroed and sized by `rebuild`.
    chunks: Vec<[AtomicU64; 2]>,
}

impl Octree {
    /// Build a tree over the particles.
    pub fn build(particles: &[Particle], cfg: TreeConfig) -> Octree {
        let mut tree = Octree {
            nodes: Vec::new(),
            order: Vec::new(),
            scratch: Vec::new(),
            x: Vec::new(),
            y: Vec::new(),
            z: Vec::new(),
            q: Vec::new(),
            cfg,
            backend: lanes::backend(),
            chunks: Vec::new(),
        };
        tree.rebuild(particles);
        tree
    }

    /// Rebuild the tree over `particles`, reusing its buffers.
    pub fn rebuild(&mut self, particles: &[Particle]) {
        let n = particles.len();
        let (lo, extent) = bounding_cube(particles);
        let half = extent * 0.5;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.scratch.resize(n, 0);
        self.nodes.clear();
        self.nodes.push(Node {
            center: [lo[0] + half, lo[1] + half, lo[2] + half],
            half,
            charge: 0.0,
            cocharge: [0.0; 3],
            abs_charge: 0.0,
            start: 0,
            end: n as u32,
            first_child: 0,
            children: 0,
        });
        self.grow(0, particles, 0);
        let padded = n.next_multiple_of(F64_LANES);
        for (a, axis) in [&mut self.x, &mut self.y, &mut self.z]
            .into_iter()
            .enumerate()
        {
            axis.clear();
            axis.extend(self.order.iter().map(|&i| particles[i as usize].pos[a]));
            axis.resize(padded, 0.0);
        }
        self.q.clear();
        self.q
            .extend(self.order.iter().map(|&i| particles[i as usize].charge));
        self.q.resize(padded, 0.0);
        self.chunks.clear();
        self.chunks
            .resize_with(n.div_ceil(Self::FORCE_GRAIN), Default::default);
    }

    /// Split node `idx` until its leaves are small, then set its monopole
    /// bottom-up: a leaf folds its particles, an internal node its
    /// children, each in order.
    fn grow(&mut self, idx: usize, particles: &[Particle], depth: usize) {
        let Node {
            center,
            half,
            start,
            end,
            ..
        } = self.nodes[idx];
        let range = start as usize..end as usize;
        let mut q = 0.0;
        let mut aq = 0.0;
        let mut c = [0.0f64; 3];
        if range.len() > self.cfg.leaf_cap && depth < MAX_DEPTH {
            let octant = |m: u32| {
                let p = &particles[m as usize].pos;
                (usize::from(p[0] >= center[0]))
                    | (usize::from(p[1] >= center[1]) << 1)
                    | (usize::from(p[2] >= center[2]) << 2)
            };
            // stable counting partition of the range into octants
            let mut count = [0usize; 8];
            for &m in &self.order[range.clone()] {
                count[octant(m)] += 1;
            }
            let mut at = [0usize; 8];
            let mut next = range.start;
            for oct in 0..8 {
                at[oct] = next;
                next += count[oct];
            }
            let mut fill = at;
            for &m in &self.order[range.clone()] {
                let oct = octant(m);
                self.scratch[fill[oct]] = m;
                fill[oct] += 1;
            }
            self.order[range.clone()].copy_from_slice(&self.scratch[range]);
            let first = self.nodes.len();
            let quarter = half * 0.5;
            for oct in (0..8).filter(|&oct| count[oct] > 0) {
                let dx = if oct & 1 != 0 { quarter } else { -quarter };
                let dy = if oct & 2 != 0 { quarter } else { -quarter };
                let dz = if oct & 4 != 0 { quarter } else { -quarter };
                self.nodes.push(Node {
                    center: [center[0] + dx, center[1] + dy, center[2] + dz],
                    half: quarter,
                    charge: 0.0,
                    cocharge: [0.0; 3],
                    abs_charge: 0.0,
                    start: at[oct] as u32,
                    end: (at[oct] + count[oct]) as u32,
                    first_child: 0,
                    children: 0,
                });
            }
            let children = first..self.nodes.len();
            self.nodes[idx].first_child = first as u32;
            self.nodes[idx].children = children.len() as u32;
            for ch in children.clone() {
                self.grow(ch, particles, depth + 1);
            }
            for n in &self.nodes[children] {
                q += n.charge;
                aq += n.abs_charge;
                for a in 0..3 {
                    c[a] += n.abs_charge * n.cocharge[a];
                }
            }
        } else {
            for &m in &self.order[range] {
                let p = &particles[m as usize];
                q += p.charge;
                aq += p.charge.abs();
                for a in 0..3 {
                    c[a] += p.charge.abs() * p.pos[a];
                }
            }
        }
        if aq > 0.0 {
            for v in &mut c {
                *v /= aq;
            }
        } else {
            c = center;
        }
        let node = &mut self.nodes[idx];
        node.charge = q;
        node.abs_charge = aq;
        node.cocharge = c;
    }

    /// Maximum leaf depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize, d: usize) -> usize {
            nodes[idx]
                .child_range()
                .map(|c| walk(nodes, c as usize, d + 1))
                .max()
                .unwrap_or(d)
        }
        walk(&self.nodes, 0, 0)
    }

    /// Backend used for the force walk.
    pub fn backend(&self) -> lanes::Backend {
        self.backend
    }

    /// Override the force-walk backend, as [`lanes::Backend::on_this_cpu`]
    /// resolves it (benches and bit-identity tests compare them all in one
    /// process). `Wide` runs the group walk's AVX2 build.
    pub fn set_backend(&mut self, backend: lanes::Backend) {
        self.backend = backend.on_this_cpu();
    }

    /// Force on the particle at leaf-order position `p` and its potential
    /// term qₚφₚ, walking the tree for it alone — the spec the group walk
    /// must match bit for bit.
    fn walk_one(&self, p: usize) -> ([f64; 3], f64, u64) {
        let (tx, ty, tz, tq) = (self.x[p], self.y[p], self.z[p], self.q[p]);
        let theta2 = self.cfg.theta * self.cfg.theta;
        let eps2 = self.cfg.eps * self.cfg.eps;
        let mut f = [0.0f64; 3];
        let mut u = 0.0f64;
        let mut work = 0u64;
        let mut stack = [0u32; STACK];
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let node = &self.nodes[stack[top] as usize];
            if node.is_leaf() {
                for j in node.start as usize..node.end as usize {
                    if j == p {
                        continue;
                    }
                    let dx = tx - self.x[j];
                    let dy = ty - self.y[j];
                    let dz = tz - self.z[j];
                    let r2 = dx * dx + dy * dy + dz * dz + eps2;
                    let inv_r3 = 1.0 / (r2 * r2.sqrt());
                    let s = tq * self.q[j] * inv_r3;
                    f[0] += s * dx;
                    f[1] += s * dy;
                    f[2] += s * dz;
                    u += s * r2;
                    work += 1;
                }
                continue;
            }
            let dx = tx - node.cocharge[0];
            let dy = ty - node.cocharge[1];
            let dz = tz - node.cocharge[2];
            let r2 = dx * dx + dy * dy + dz * dz;
            let size = node.half * 2.0;
            if size * size < theta2 * r2 {
                // accepted: monopole interaction
                let r2s = r2 + eps2;
                let inv_r3 = 1.0 / (r2s * r2s.sqrt());
                let s = tq * node.charge * inv_r3;
                f[0] += s * dx;
                f[1] += s * dy;
                f[2] += s * dz;
                u += s * r2s;
                work += 1;
            } else {
                for ch in node.child_range() {
                    stack[top] = ch;
                    top += 1;
                }
            }
        }
        (f, u, work)
    }

    /// Forces and potential terms of the `live` (1..=4) targets at
    /// leaf-order positions `p..p + live`, one per lane, in one walk (see
    /// the module doc). A stack entry carries the lanes that opened its
    /// parent.
    #[inline(always)]
    fn walk_group(&self, p: usize, live: usize) -> ([[f64; 4]; 3], [f64; 4], u64) {
        let target = |v: &[f64]| F64x4::from_slice(&v[p..]);
        let (tx, ty, tz, tq) = (
            target(&self.x),
            target(&self.y),
            target(&self.z),
            target(&self.q),
        );
        let theta2 = F64x4::splat(self.cfg.theta * self.cfg.theta);
        let eps2 = F64x4::splat(self.cfg.eps * self.cfg.eps);
        // F and φ in one array, so LLVM packs all four alike (a separate φ
        // accumulator put lane reversals on the sqrt/divide path: +11 %)
        let mut acc = [F64x4::splat(0.0); 4];
        // acc += keep(qq / (r2·√r2), on) · [d, r2]: one pair or monopole term
        let mut pull = |d: [F64x4; 3], r2: F64x4, qq: F64x4, on: u8| {
            let s = keep(qq * (F64x4::splat(1.0) / (r2 * r2.sqrt())), on);
            let terms = [d[0], d[1], d[2], r2];
            for a in 0..4 {
                acc[a] += s * terms[a];
            }
        };
        let mut work = 0u64;
        let mut stack = [(0u32, 0u8); STACK];
        stack[0] = (0, (1u8 << live) - 1);
        let mut top = 1;
        while top > 0 {
            top -= 1;
            let (idx, lanes) = stack[top];
            let node = &self.nodes[idx as usize];
            if node.is_leaf() {
                for j in node.start as usize..node.end as usize {
                    let on = lanes & !own_lane(j, p);
                    let dx = tx - F64x4::splat(self.x[j]);
                    let dy = ty - F64x4::splat(self.y[j]);
                    let dz = tz - F64x4::splat(self.z[j]);
                    let r2 = dx * dx + dy * dy + dz * dz + eps2;
                    pull([dx, dy, dz], r2, tq * F64x4::splat(self.q[j]), on);
                    work += u64::from(on.count_ones());
                }
                continue;
            }
            let dx = tx - F64x4::splat(node.cocharge[0]);
            let dy = ty - F64x4::splat(node.cocharge[1]);
            let dz = tz - F64x4::splat(node.cocharge[2]);
            let r2 = dx * dx + dy * dy + dz * dz;
            let size = node.half * 2.0;
            let reach = theta2 * r2;
            let far = lanes & mask_of(|l| size * size < reach.0[l]);
            if far != 0 {
                pull([dx, dy, dz], r2 + eps2, tq * F64x4::splat(node.charge), far);
                work += u64::from(far.count_ones());
            }
            let open = lanes & !far;
            if open != 0 {
                for ch in node.child_range() {
                    stack[top] = (ch, open);
                    top += 1;
                }
            }
        }
        let [fx, fy, fz, u] = acc.map(F64x4::to_array);
        ([fx, fy, fz], u, work)
    }

    /// Fixed grain of the force evaluation, in leaf-order positions (a lane
    /// multiple, so no group straddles two chunks). Never derived from the
    /// thread count, so the chunk→target mapping, and with it the
    /// interaction accounting, is identical at any parallelism.
    const FORCE_GRAIN: usize = 64;

    /// The scalar walk over the targets at leaf-order positions
    /// `p..p + out.len()`; returns the chunk's interaction count and its
    /// Σ qᵢφᵢ in target order. φ is folded per chunk, not stored per target:
    /// `[f64; 4]` output rows made LLVM vectorize the store across components
    /// and left `chunk_groups_avx2` scalar (`vsqrtsd`/`vdivsd`, 3× slower,
    /// every test green); CI checks its disassembly.
    fn chunk_scalar(&self, p: usize, out: &mut [[f64; 3]]) -> (u64, f64) {
        let mut work = 0;
        let mut u = 0.0;
        for (k, f) in out.iter_mut().enumerate() {
            let (fk, uk, w) = self.walk_one(p + k);
            *f = fk;
            u += uk;
            work += w;
        }
        (work, u)
    }

    /// [`Octree::chunk_scalar`] one group walk per four targets.
    #[inline(always)]
    fn chunk_groups(&self, p: usize, out: &mut [[f64; 3]]) -> (u64, f64) {
        let mut work = 0;
        let mut u = 0.0;
        for (g, group) in out.chunks_mut(F64_LANES).enumerate() {
            let (f, ug, w) = self.walk_group(p + g * F64_LANES, group.len());
            for (l, fl) in group.iter_mut().enumerate() {
                *fl = [f[0][l], f[1][l], f[2][l]];
                u += ug[l];
            }
            work += w;
        }
        (work, u)
    }

    /// [`Octree::chunk_groups`] compiled for AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn chunk_groups_avx2(&self, p: usize, out: &mut [[f64; 3]]) -> (u64, f64) {
        self.chunk_groups(p, out)
    }

    /// Forces on all particles, in input order, parallel over fixed chunks
    /// of leaf-order positions on the shared pool for `cfg.threads`.
    pub fn forces(&self) -> Vec<[f64; 3]> {
        self.forces_with(&gridsteer_exec::shared(self.cfg.threads))
    }

    /// Forces on all particles, in input order, dispatched onto an
    /// explicit executor pool.
    pub fn forces_with(&self, pool: &gridsteer_exec::ExecPool) -> Vec<[f64; 3]> {
        let n = self.order.len();
        let mut by_leaf = vec![[0.0f64; 3]; n];
        let backend = self.backend;
        pool.parallel_chunks(&mut by_leaf, Self::FORCE_GRAIN, |ci, out| {
            let p = ci * Self::FORCE_GRAIN;
            let (work, u) = match backend {
                lanes::Backend::Scalar => self.chunk_scalar(p, out),
                #[cfg(target_arch = "x86_64")]
                // SAFETY: `self.backend` is always what `Backend::on_this_cpu`
                // resolved (the field's invariant), and that is `Wide` only
                // when the CPU has AVX2, the one feature `chunk_groups_avx2`
                // enables.
                lanes::Backend::Wide => unsafe { self.chunk_groups_avx2(p, out) },
                _ => self.chunk_groups(p, out),
            };
            self.chunks[ci][0].store(work, Ordering::Relaxed);
            self.chunks[ci][1].store(u.to_bits(), Ordering::Relaxed);
        });
        let mut out = vec![[0.0f64; 3]; n];
        for (f, &i) in by_leaf.iter().zip(&self.order) {
            out[i as usize] = *f;
        }
        out
    }

    /// Interactions counted in the last [`Octree::forces`] call.
    pub fn last_interactions(&self) -> u64 {
        self.chunks
            .iter()
            .map(|c| c[0].load(Ordering::Relaxed))
            .sum()
    }

    /// Softened potential energy U = ½ Σ qᵢφᵢ of the last
    /// [`Octree::forces`] call, its chunk sums folded in chunk order (so
    /// the same bits at any pool width).
    pub fn last_potential(&self) -> f64 {
        let load = |c: &[AtomicU64; 2]| f64::from_bits(c[1].load(Ordering::Relaxed));
        0.5 * self.chunks.iter().fold(0.0, |u, c| u + load(c))
    }
}

/// The lane of the group at `p` whose target is leaf-order position `j`,
/// as a bit (none if `j` is outside the group).
#[inline(always)]
fn own_lane(j: usize, p: usize) -> u8 {
    let l = j.wrapping_sub(p);
    if l < F64_LANES {
        1 << l
    } else {
        0
    }
}

/// The lanes `l` for which `pred(l)` holds, as bits.
#[inline(always)]
fn mask_of(pred: impl Fn(usize) -> bool) -> u8 {
    (0..F64_LANES).fold(0, |m, l| m | (u8::from(pred(l)) << l))
}

/// Per 4-bit lane mask, each lane's bits: all ones where the mask has the
/// lane, zero (the bits of +0.0) where it does not.
const LANE_BITS: [[u64; F64_LANES]; 16] = {
    let mut t = [[0u64; F64_LANES]; 16];
    let mut m = 0;
    while m < 16 {
        let mut l = 0;
        while l < F64_LANES {
            if m & (1 << l) != 0 {
                t[m][l] = u64::MAX;
            }
            l += 1;
        }
        m += 1;
    }
    t
};

/// `v` in the lanes `mask` names, +0.0 in the others.
#[inline(always)]
fn keep(v: F64x4, mask: u8) -> F64x4 {
    let bits = LANE_BITS[usize::from(mask)];
    F64x4(std::array::from_fn(|l| {
        f64::from_bits(v.0[l].to_bits() & bits[l])
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_forces;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn plasma_ball(n: usize, seed: u64) -> Vec<Particle> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                // alternate charges: a quasi-neutral plasma
                let q = if i % 2 == 0 { 1.0 } else { -1.0 };
                loop {
                    let p = [
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                        rng.gen_range(-1.0..1.0),
                    ];
                    if p[0] * p[0] + p[1] * p[1] + p[2] * p[2] <= 1.0 {
                        return Particle::at(p, q, i as u32);
                    }
                }
            })
            .collect()
    }

    #[test]
    fn tree_contains_all_particles() {
        let p = plasma_ball(500, 1);
        let t = Octree::build(&p, TreeConfig::default());
        assert_eq!((t.nodes[0].start, t.nodes[0].end), (0, 500));
        // leaf order is a permutation, and the leaves tile it in ascending
        // input order within each leaf
        let mut seen = vec![false; 500];
        for &i in &t.order {
            assert!(!seen[i as usize], "particle {i} placed twice");
            seen[i as usize] = true;
        }
        let mut leaves: Vec<_> = t.nodes.iter().filter(|n| n.is_leaf()).collect();
        leaves.sort_by_key(|n| n.start);
        let mut next = 0;
        for leaf in leaves {
            assert_eq!(leaf.start, next, "leaves tile leaf order");
            let members = &t.order[leaf.start as usize..leaf.end as usize];
            assert!(members.windows(2).all(|w| w[0] < w[1]), "stable partition");
            next = leaf.end;
        }
        assert_eq!(next, 500);
        for node in t.nodes.iter().filter(|n| !n.is_leaf()) {
            let kids = &t.nodes[node.first_child as usize..][..node.children as usize];
            assert_eq!(kids[0].start, node.start);
            assert_eq!(kids[kids.len() - 1].end, node.end);
        }
    }

    #[test]
    fn leaves_respect_capacity() {
        let p = plasma_ball(800, 2);
        let cfg = TreeConfig {
            leaf_cap: 4,
            ..Default::default()
        };
        let t = Octree::build(&p, cfg);
        for node in &t.nodes {
            if node.is_leaf() {
                assert!(node.end - node.start <= 4);
            }
        }
    }

    #[test]
    fn root_monopole_matches_total_charge() {
        let p = plasma_ball(301, 3); // odd count → net charge 1
        let t = Octree::build(&p, TreeConfig::default());
        let total: f64 = p.iter().map(|q| q.charge).sum();
        assert!((t.nodes[0].charge - total).abs() < 1e-9);
    }

    #[test]
    fn rebuild_reuses_the_tree_and_matches_a_fresh_build() {
        let a = plasma_ball(300, 9);
        let b = plasma_ball(120, 10);
        let mut t = Octree::build(&a, TreeConfig::default());
        t.rebuild(&b);
        let fresh = Octree::build(&b, TreeConfig::default());
        assert_eq!(t.order, fresh.order);
        assert_eq!(t.forces(), fresh.forces());
    }

    #[test]
    fn tree_forces_match_direct_within_tolerance() {
        let p = plasma_ball(400, 4);
        let cfg = TreeConfig {
            theta: 0.4,
            eps: 0.05,
            ..Default::default()
        };
        let t = Octree::build(&p, cfg);
        let tf = t.forces();
        let df = direct_forces(&p, 0.05);
        // RMS relative error
        let mut num = 0.0;
        let mut den = 0.0;
        for (a, b) in tf.iter().zip(df.iter()) {
            for c in 0..3 {
                num += (a[c] - b[c]).powi(2);
                den += b[c].powi(2);
            }
        }
        let rms = (num / den.max(1e-30)).sqrt();
        assert!(rms < 0.05, "tree vs direct RMS error {rms}");
    }

    #[test]
    fn theta_zero_equals_direct_exactly() {
        // θ=0 never accepts a multipole: traversal degenerates to direct
        let p = plasma_ball(100, 5);
        let cfg = TreeConfig {
            theta: 0.0,
            eps: 0.05,
            ..Default::default()
        };
        let t = Octree::build(&p, cfg);
        let tf = t.forces();
        let df = direct_forces(&p, 0.05);
        for (a, b) in tf.iter().zip(df.iter()) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scalar_and_group_walks_are_bit_identical() {
        // Same tree, every backend, two thread counts: force vectors must
        // match bit for bit (each lane of the group walk replays its
        // target's scalar walk, self-skip included).
        let p = plasma_ball(700, 11);
        let cfg = TreeConfig {
            leaf_cap: 11, // odd cap: leaves that are not lane multiples
            ..Default::default()
        };
        let mut t = Octree::build(&p, cfg);
        let mut runs: Vec<(String, Vec<[f64; 3]>, u64)> = Vec::new();
        for backend in lanes::Backend::ALL {
            t.set_backend(backend);
            for threads in [1usize, 4] {
                let pool = gridsteer_exec::shared(threads);
                let f = t.forces_with(&pool);
                runs.push((
                    format!("{}-t{threads}", backend.label()),
                    f,
                    t.last_interactions(),
                ));
            }
        }
        let (ref name0, ref f0, w0) = runs[0];
        for (name, f, w) in &runs[1..] {
            assert_eq!(w0, *w, "{name0} vs {name}: interaction counts differ");
            for (a, b) in f0.iter().zip(f.iter()) {
                for c in 0..3 {
                    assert_eq!(
                        a[c].to_bits(),
                        b[c].to_bits(),
                        "{name0} vs {name}: component {c} diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn masked_lanes_add_an_exact_zero() {
        // the group walk's premise: +0.0 added to any accumulator that
        // started at +0.0 leaves its bits alone
        for v in [0.0, 1.5, -2.25, f64::MIN_POSITIVE, f64::INFINITY] {
            let acc = 0.0 + v;
            assert_eq!((acc + 0.0).to_bits(), acc.to_bits(), "{v}");
        }
        assert_eq!((0.0f64 + -0.0).to_bits(), 0.0f64.to_bits());
        let v = F64x4([1.0, f64::NAN, f64::INFINITY, -3.0]);
        let kept = keep(v, 0b1001).to_array();
        assert_eq!(
            kept.map(f64::to_bits),
            [1.0, 0.0, 0.0, -3.0].map(f64::to_bits)
        );
    }

    #[test]
    fn larger_theta_does_less_work() {
        let p = plasma_ball(1000, 6);
        let loose = Octree::build(
            &p,
            TreeConfig {
                theta: 0.9,
                ..Default::default()
            },
        );
        let tight = Octree::build(
            &p,
            TreeConfig {
                theta: 0.2,
                ..Default::default()
            },
        );
        loose.forces();
        tight.forces();
        assert!(
            loose.last_interactions() < tight.last_interactions() / 2,
            "loose {} vs tight {}",
            loose.last_interactions(),
            tight.last_interactions()
        );
    }

    #[test]
    fn work_scales_sub_quadratically() {
        let count_work = |n: usize| {
            let p = plasma_ball(n, 7);
            let t = Octree::build(&p, TreeConfig::default());
            t.forces();
            t.last_interactions() as f64
        };
        let w1 = count_work(500);
        let w2 = count_work(2000);
        // Direct summation would grow 16×. Tree-code growth measures 9.11×
        // for this seed (pure N·logN would be ~4.9×, but the constant-radius
        // near-field term hasn't saturated at these N; 8.7–9.9 across other
        // seeds). The run is fully deterministic (fixed seed, deterministic
        // vendored RNG, order-independent interaction sum), so gate just
        // above the measured value — far below the quadratic signature.
        let growth = w2 / w1;
        assert!(growth < 10.0, "work grew {growth}× for 4× particles");
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let p = plasma_ball(300, 8);
        let f1 = Octree::build(
            &p,
            TreeConfig {
                threads: 1,
                ..Default::default()
            },
        )
        .forces();
        let f4 = Octree::build(
            &p,
            TreeConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .forces();
        assert_eq!(f1, f4);
    }

    #[test]
    fn coincident_particles_do_not_blow_the_stack() {
        // 20 particles at the same point: depth cap must stop subdivision
        let p: Vec<Particle> = (0..20)
            .map(|i| Particle::at([0.5, 0.5, 0.5], 1.0, i))
            .collect();
        let t = Octree::build(
            &p,
            TreeConfig {
                leaf_cap: 2,
                ..Default::default()
            },
        );
        assert!(t.depth() <= MAX_DEPTH);
        let f = t.forces();
        assert!(f.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_and_single_particle_edge_cases() {
        let none: Vec<Particle> = vec![];
        let t = Octree::build(&none, TreeConfig::default());
        assert!(t.forces().is_empty());
        let one = vec![Particle::at([0.0; 3], 1.0, 0)];
        let t = Octree::build(&one, TreeConfig::default());
        assert_eq!(t.forces(), vec![[0.0; 3]]);
    }
}
