//! The Barnes–Hut octree.
//!
//! "The code uses a hierarchical tree algorithm to perform potential and
//! force summation for charged particles in a time O(N log N)" (§3.4).
//! Build: recursive octant subdivision down to small leaves; each node
//! carries its monopole (total charge + centre of charge). Evaluation:
//! depth-first traversal accepting a node when `size / distance < θ`
//! (the multipole acceptance criterion), falling back to direct summation
//! in leaves. Force evaluation is parallel over fixed-size particle chunks
//! dispatched onto a persistent [`gridsteer_exec::ExecPool`] — the tree is
//! immutable during traversal, so this is race-free, and the fixed
//! chunk→particle mapping makes the forces bit-identical for any thread
//! count.

// Component loops over `[f64; 3]` are written indexed (`for a in 0..3`);
// that is the clearest spelling for moment accumulation.
#![allow(clippy::needless_range_loop)]

use crate::morton::bounding_cube;
use crate::Particle;

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
    /// particles are chunked at a fixed grain regardless.
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

/// One octree node.
#[derive(Debug, Clone)]
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
    /// Children indices (internal node) — 0 means "no child" (index 0 is
    /// the root, never a child).
    children: [u32; 8],
    /// Particle indices (leaf node).
    members: Vec<u32>,
    /// Number of particles below this node.
    count: u32,
}

impl Node {
    fn is_leaf(&self) -> bool {
        self.children.iter().all(|&c| c == 0)
    }
}

/// An immutable Barnes–Hut octree over a particle snapshot.
pub struct Octree {
    nodes: Vec<Node>,
    cfg: TreeConfig,
    /// Kernel backend for the leaf direct sum (scalar reference or
    /// lane-blocked; bit-identical by construction). Defaults to the
    /// process-wide [`lanes::backend`] switch.
    backend: lanes::Backend,
    /// Interaction counter from the last `forces` call (Σ node/particle
    /// acceptances) — the work metric for the O(N log N) experiment.
    pub interactions: std::sync::atomic::AtomicU64,
}

impl Octree {
    /// Build a tree over the particles.
    pub fn build(particles: &[Particle], cfg: TreeConfig) -> Octree {
        let (lo, extent) = bounding_cube(particles);
        let half = extent * 0.5;
        let root = Node {
            center: [lo[0] + half, lo[1] + half, lo[2] + half],
            half,
            charge: 0.0,
            cocharge: [0.0; 3],
            abs_charge: 0.0,
            children: [0; 8],
            members: (0..particles.len() as u32).collect(),
            count: particles.len() as u32,
        };
        let mut tree = Octree {
            nodes: vec![root],
            cfg,
            backend: lanes::backend(),
            interactions: std::sync::atomic::AtomicU64::new(0),
        };
        tree.split(0, particles, 0);
        tree.compute_moments(0, particles);
        tree
    }

    /// Recursively split node `idx` until leaves are small.
    fn split(&mut self, idx: usize, particles: &[Particle], depth: usize) {
        const MAX_DEPTH: usize = 32;
        if self.nodes[idx].members.len() <= self.cfg.leaf_cap || depth >= MAX_DEPTH {
            return;
        }
        let members = std::mem::take(&mut self.nodes[idx].members);
        let center = self.nodes[idx].center;
        let quarter = self.nodes[idx].half * 0.5;
        let mut buckets: [Vec<u32>; 8] = Default::default();
        for &m in &members {
            let p = &particles[m as usize].pos;
            let oct = (usize::from(p[0] >= center[0]))
                | (usize::from(p[1] >= center[1]) << 1)
                | (usize::from(p[2] >= center[2]) << 2);
            buckets[oct].push(m);
        }
        for (oct, bucket) in buckets.into_iter().enumerate() {
            if bucket.is_empty() {
                continue;
            }
            let dx = if oct & 1 != 0 { quarter } else { -quarter };
            let dy = if oct & 2 != 0 { quarter } else { -quarter };
            let dz = if oct & 4 != 0 { quarter } else { -quarter };
            let count = bucket.len() as u32;
            let child = Node {
                center: [center[0] + dx, center[1] + dy, center[2] + dz],
                half: quarter,
                charge: 0.0,
                cocharge: [0.0; 3],
                abs_charge: 0.0,
                children: [0; 8],
                members: bucket,
                count,
            };
            let child_idx = self.nodes.len();
            self.nodes.push(child);
            self.nodes[idx].children[oct] = child_idx as u32;
            self.split(child_idx, particles, depth + 1);
        }
    }

    /// Bottom-up monopole computation.
    fn compute_moments(&mut self, idx: usize, particles: &[Particle]) {
        if self.nodes[idx].is_leaf() {
            let mut q = 0.0;
            let mut aq = 0.0;
            let mut c = [0.0f64; 3];
            for &m in &self.nodes[idx].members {
                let p = &particles[m as usize];
                q += p.charge;
                aq += p.charge.abs();
                for a in 0..3 {
                    c[a] += p.charge.abs() * p.pos[a];
                }
            }
            if aq > 0.0 {
                for v in &mut c {
                    *v /= aq;
                }
            } else {
                c = self.nodes[idx].center;
            }
            self.nodes[idx].charge = q;
            self.nodes[idx].abs_charge = aq;
            self.nodes[idx].cocharge = c;
            return;
        }
        let children = self.nodes[idx].children;
        let mut q = 0.0;
        let mut aq = 0.0;
        let mut c = [0.0f64; 3];
        for &ch in &children {
            if ch == 0 {
                continue;
            }
            self.compute_moments(ch as usize, particles);
            let n = &self.nodes[ch as usize];
            q += n.charge;
            aq += n.abs_charge;
            for a in 0..3 {
                c[a] += n.abs_charge * n.cocharge[a];
            }
        }
        if aq > 0.0 {
            for v in &mut c {
                *v /= aq;
            }
        } else {
            c = self.nodes[idx].center;
        }
        self.nodes[idx].charge = q;
        self.nodes[idx].abs_charge = aq;
        self.nodes[idx].cocharge = c;
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum leaf depth (diagnostics).
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Node], idx: usize, d: usize) -> usize {
            let n = &nodes[idx];
            if n.is_leaf() {
                return d;
            }
            n.children
                .iter()
                .filter(|&&c| c != 0)
                .map(|&c| walk(nodes, c as usize, d + 1))
                .max()
                .unwrap_or(d)
        }
        walk(&self.nodes, 0, 0)
    }

    /// Backend used for the leaf direct sum.
    pub fn backend(&self) -> lanes::Backend {
        self.backend
    }

    /// Override the leaf-kernel backend, as
    /// [`lanes::Backend::on_this_cpu`] resolves it (benches and
    /// bit-identity tests compare them all in one process). The leaf
    /// kernel has no AVX2 build: `Wide` runs the lane-blocked kernel.
    pub fn set_backend(&mut self, backend: lanes::Backend) {
        self.backend = backend.on_this_cpu();
    }

    /// One pairwise contribution of the leaf direct sum — the scalar
    /// reference both backends must match bit for bit.
    #[inline(always)]
    fn accumulate_pair(pi: &Particle, pj: &Particle, eps2: f64, f: &mut [f64; 3]) {
        let dx = pi.pos[0] - pj.pos[0];
        let dy = pi.pos[1] - pj.pos[1];
        let dz = pi.pos[2] - pj.pos[2];
        let r2 = dx * dx + dy * dy + dz * dz + eps2;
        let inv_r3 = 1.0 / (r2 * r2.sqrt());
        let s = pi.charge * pj.charge * inv_r3;
        f[0] += s * dx;
        f[1] += s * dy;
        f[2] += s * dz;
    }

    /// Leaf direct sum over four members at once: every lane performs the
    /// exact [`Octree::accumulate_pair`] operation sequence (same
    /// association, no FMA), and the four contributions are folded into
    /// `f` lane by lane in member order — so the result is bit-identical
    /// to four scalar `accumulate_pair` calls.
    #[inline(always)]
    fn accumulate_quad(pi: &Particle, quad: [&Particle; 4], eps2: f64, f: &mut [f64; 3]) {
        use lanes::F64x4;
        let px = F64x4([
            quad[0].pos[0],
            quad[1].pos[0],
            quad[2].pos[0],
            quad[3].pos[0],
        ]);
        let py = F64x4([
            quad[0].pos[1],
            quad[1].pos[1],
            quad[2].pos[1],
            quad[3].pos[1],
        ]);
        let pz = F64x4([
            quad[0].pos[2],
            quad[1].pos[2],
            quad[2].pos[2],
            quad[3].pos[2],
        ]);
        let qj = F64x4([
            quad[0].charge,
            quad[1].charge,
            quad[2].charge,
            quad[3].charge,
        ]);
        let dx = F64x4::splat(pi.pos[0]) - px;
        let dy = F64x4::splat(pi.pos[1]) - py;
        let dz = F64x4::splat(pi.pos[2]) - pz;
        let r2 = dx * dx + dy * dy + dz * dz + F64x4::splat(eps2);
        let inv_r3 = F64x4::splat(1.0) / (r2 * r2.sqrt());
        let s = F64x4::splat(pi.charge) * qj * inv_r3;
        let fx = s * dx;
        let fy = s * dy;
        let fz = s * dz;
        // Sequential per-member fold: preserves the scalar loop's
        // accumulation order exactly (NOT an hsum — no reassociation).
        for l in 0..lanes::F64_LANES {
            f[0] += fx.0[l];
            f[1] += fy.0[l];
            f[2] += fz.0[l];
        }
    }

    /// Force on one particle via MAC traversal.
    fn force_on(&self, particles: &[Particle], i: usize) -> ([f64; 3], u64) {
        let pi = &particles[i];
        let theta = self.cfg.theta;
        let eps2 = self.cfg.eps * self.cfg.eps;
        let simd = self.backend.lane_blocked();
        let mut f = [0.0f64; 3];
        let mut work = 0u64;
        let mut stack: Vec<u32> = vec![0];
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if node.count == 0 {
                continue;
            }
            let dx = pi.pos[0] - node.cocharge[0];
            let dy = pi.pos[1] - node.cocharge[1];
            let dz = pi.pos[2] - node.cocharge[2];
            let r2 = dx * dx + dy * dy + dz * dz;
            let size = node.half * 2.0;
            if node.is_leaf() {
                let members = &node.members;
                let mut k = 0;
                if simd {
                    // Lane-blocked direct sum; a block containing the
                    // target particle itself falls back to the scalar
                    // reference so the self-skip stays exact.
                    while k + lanes::F64_LANES <= members.len() {
                        let blk = &members[k..k + lanes::F64_LANES];
                        if blk.iter().any(|&m| m as usize == i) {
                            for &m in blk {
                                if m as usize != i {
                                    Self::accumulate_pair(pi, &particles[m as usize], eps2, &mut f);
                                    work += 1;
                                }
                            }
                        } else {
                            Self::accumulate_quad(
                                pi,
                                [
                                    &particles[blk[0] as usize],
                                    &particles[blk[1] as usize],
                                    &particles[blk[2] as usize],
                                    &particles[blk[3] as usize],
                                ],
                                eps2,
                                &mut f,
                            );
                            work += lanes::F64_LANES as u64;
                        }
                        k += lanes::F64_LANES;
                    }
                }
                for &m in &members[k..] {
                    if m as usize == i {
                        continue;
                    }
                    Self::accumulate_pair(pi, &particles[m as usize], eps2, &mut f);
                    work += 1;
                }
            } else if size * size < theta * theta * r2 {
                // accepted: monopole interaction
                let r2s = r2 + eps2;
                let inv_r3 = 1.0 / (r2s * r2s.sqrt());
                let s = pi.charge * node.charge * inv_r3;
                f[0] += s * dx;
                f[1] += s * dy;
                f[2] += s * dz;
                work += 1;
            } else {
                for &ch in &node.children {
                    if ch != 0 {
                        stack.push(ch);
                    }
                }
            }
        }
        (f, work)
    }

    /// Particles per force-evaluation chunk. Fixed (never derived from the
    /// thread count) so the chunk→particle mapping, and with it the
    /// interaction accounting, is identical at any parallelism.
    const FORCE_GRAIN: usize = 64;

    /// Forces on all particles, parallel over fixed-size particle chunks
    /// on the shared pool for `cfg.threads`.
    pub fn forces(&self, particles: &[Particle]) -> Vec<[f64; 3]> {
        self.forces_with(&gridsteer_exec::shared(self.cfg.threads), particles)
    }

    /// Forces on all particles, dispatched onto an explicit executor pool.
    pub fn forces_with(
        &self,
        pool: &gridsteer_exec::ExecPool,
        particles: &[Particle],
    ) -> Vec<[f64; 3]> {
        use std::sync::atomic::Ordering;
        let n = particles.len();
        let mut out = vec![[0.0f64; 3]; n];
        let total_work = std::sync::atomic::AtomicU64::new(0);
        pool.parallel_chunks(&mut out, Self::FORCE_GRAIN, |ci, slot| {
            let base = ci * Self::FORCE_GRAIN;
            let mut local_work = 0u64;
            for (k, f) in slot.iter_mut().enumerate() {
                let (fi, w) = self.force_on(particles, base + k);
                *f = fi;
                local_work += w;
            }
            // u64 sum: order-independent, so the counter is deterministic
            total_work.fetch_add(local_work, Ordering::Relaxed);
        });
        self.interactions
            .store(total_work.load(Ordering::Relaxed), Ordering::Relaxed);
        out
    }

    /// Interactions counted in the last [`Octree::forces`] call.
    pub fn last_interactions(&self) -> u64 {
        self.interactions.load(std::sync::atomic::Ordering::Relaxed)
    }
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
        assert_eq!(t.nodes[0].count, 500);
        // leaf membership partitions the set
        let mut seen = vec![false; 500];
        for node in &t.nodes {
            if node.is_leaf() {
                for &m in &node.members {
                    assert!(!seen[m as usize], "particle {m} in two leaves");
                    seen[m as usize] = true;
                }
            }
        }
        assert!(seen.iter().all(|&s| s));
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
                assert!(node.members.len() <= 4);
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
    fn tree_forces_match_direct_within_tolerance() {
        let p = plasma_ball(400, 4);
        let cfg = TreeConfig {
            theta: 0.4,
            eps: 0.05,
            ..Default::default()
        };
        let t = Octree::build(&p, cfg);
        let tf = t.forces(&p);
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
        let tf = t.forces(&p);
        let df = direct_forces(&p, 0.05);
        for (a, b) in tf.iter().zip(df.iter()) {
            for c in 0..3 {
                assert!((a[c] - b[c]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn scalar_and_simd_leaf_kernels_are_bit_identical() {
        // Same tree, both backends, two thread counts: force vectors must
        // match bit for bit (the SIMD quad kernel replicates the scalar
        // operation sequence exactly, including the self-skip fallback).
        let p = plasma_ball(700, 11);
        let cfg = TreeConfig {
            leaf_cap: 11, // odd cap: exercises quad blocks AND scalar tails
            ..Default::default()
        };
        let mut t = Octree::build(&p, cfg);
        let mut runs: Vec<(String, Vec<[f64; 3]>, u64)> = Vec::new();
        for backend in lanes::Backend::ALL {
            t.set_backend(backend);
            for threads in [1usize, 4] {
                let pool = gridsteer_exec::shared(threads);
                let f = t.forces_with(&pool, &p);
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
        loose.forces(&p);
        tight.forces(&p);
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
            t.forces(&p);
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
        .forces(&p);
        let f4 = Octree::build(
            &p,
            TreeConfig {
                threads: 4,
                ..Default::default()
            },
        )
        .forces(&p);
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
        assert!(t.depth() <= 32);
        let f = t.forces(&p);
        assert!(f.iter().flatten().all(|v| v.is_finite()));
    }

    #[test]
    fn empty_and_single_particle_edge_cases() {
        let none: Vec<Particle> = vec![];
        let t = Octree::build(&none, TreeConfig::default());
        assert!(t.forces(&none).is_empty());
        let one = vec![Particle::at([0.0; 3], 1.0, 0)];
        let t = Octree::build(&one, TreeConfig::default());
        assert_eq!(t.forces(&one), vec![[0.0; 3]]);
    }
}
