//! Particle glyphs and domain boxes.
//!
//! §3.4: "Particles are displayed as points, diamond glyphs and vectors,
//! including time-histories over several time-steps; tree domains as
//! transparent or solid boxes, providing immediate insight into both the
//! physical and algorithmic workings of the parallel tree code." This
//! module turns particle data (positions, velocities, ranks) and domain
//! bounding boxes into renderable primitives.

use crate::mesh::TriMesh;
use crate::Vec3;

/// A renderable line segment with colour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub a: Vec3,
    pub b: Vec3,
    pub rgba: [u8; 4],
}

/// Expand particle velocities into vector glyph segments of length
/// `scale * |v|`.
pub fn velocity_vectors(
    pos: &[Vec3],
    vel: &[Vec3],
    colors: &[[u8; 4]],
    scale: f32,
) -> Vec<Segment> {
    pos.iter()
        .zip(vel.iter())
        .zip(colors.iter())
        .map(|((&p, &v), &rgba)| Segment {
            a: p,
            b: p.add(v.scale(scale)),
            rgba,
        })
        .collect()
}

/// Expand particles into diamond (octahedron) meshes of half-extent `r`.
/// Each diamond is 8 triangles; beyond a few thousand particles this is the
/// geometry-volume driver in the traffic experiments.
pub fn diamonds(pos: &[Vec3], r: f32) -> TriMesh {
    let mut m = TriMesh::new();
    for &p in pos {
        let xp = p.add(Vec3::new(r, 0.0, 0.0));
        let xm = p.add(Vec3::new(-r, 0.0, 0.0));
        let yp = p.add(Vec3::new(0.0, r, 0.0));
        let ym = p.add(Vec3::new(0.0, -r, 0.0));
        let zp = p.add(Vec3::new(0.0, 0.0, r));
        let zm = p.add(Vec3::new(0.0, 0.0, -r));
        let faces = [
            (yp, xp, zp),
            (yp, zp, xm),
            (yp, xm, zm),
            (yp, zm, xp),
            (ym, zp, xp),
            (ym, xm, zp),
            (ym, zm, xm),
            (ym, xp, zm),
        ];
        for (a, b, c) in faces {
            let n = b.sub(a).cross(c.sub(a)).normalized();
            m.push_tri(a, b, c, n);
        }
    }
    m
}

/// Time-history trails: for each particle, a polyline through its last
/// positions (§3.4 "time-histories over several time-steps").
/// `history[t][i]` is particle `i`'s position at step `t` (oldest first).
pub fn trails(history: &[Vec<Vec3>], rgba: [u8; 4]) -> Vec<Segment> {
    let mut out = Vec::new();
    for w in history.windows(2) {
        let (prev, next) = (&w[0], &w[1]);
        for (a, b) in prev.iter().zip(next.iter()) {
            out.push(Segment { a: *a, b: *b, rgba });
        }
    }
    out
}

/// An axis-aligned domain box (one per processor domain, §3.4).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DomainBox {
    pub min: Vec3,
    pub max: Vec3,
    /// Owning worker rank (colours the box).
    pub rank: usize,
}

/// The 12 wireframe edges of a domain box.
pub fn box_edges(b: &DomainBox) -> Vec<(Vec3, Vec3)> {
    let (lo, hi) = (b.min, b.max);
    let c = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
    let corners = [
        c(lo.x, lo.y, lo.z),
        c(hi.x, lo.y, lo.z),
        c(hi.x, hi.y, lo.z),
        c(lo.x, hi.y, lo.z),
        c(lo.x, lo.y, hi.z),
        c(hi.x, lo.y, hi.z),
        c(hi.x, hi.y, hi.z),
        c(lo.x, hi.y, hi.z),
    ];
    const EDGES: [(usize, usize); 12] = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 0),
        (4, 5),
        (5, 6),
        (6, 7),
        (7, 4),
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
    ];
    EDGES
        .iter()
        .map(|&(i, j)| (corners[i], corners[j]))
        .collect()
}

/// A solid box mesh (the "solid boxes" display mode).
pub fn box_mesh(b: &DomainBox) -> TriMesh {
    let mut m = TriMesh::unit_cube();
    let d = b.max.sub(b.min);
    for v in m.vertices.iter_mut() {
        *v = Vec3::new(
            b.min.x + v.x * d.x,
            b.min.y + v.y * d.y,
            b.min.z + v.z * d.z,
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_scale_with_velocity() {
        let pos = vec![Vec3::ZERO];
        let vel = vec![Vec3::new(2.0, 0.0, 0.0)];
        let col = vec![[255u8; 4]];
        let segs = velocity_vectors(&pos, &vel, &col, 0.5);
        assert_eq!(segs.len(), 1);
        assert_eq!(segs[0].b, Vec3::new(1.0, 0.0, 0.0));
    }

    #[test]
    fn diamonds_emit_8_tris_each() {
        let pos = vec![Vec3::ZERO, Vec3::new(5.0, 0.0, 0.0)];
        let m = diamonds(&pos, 0.5);
        assert_eq!(m.tri_count(), 16);
        let (lo, hi) = m.bounds().unwrap();
        assert_eq!(lo, Vec3::new(-0.5, -0.5, -0.5));
        assert_eq!(hi, Vec3::new(5.5, 0.5, 0.5));
    }

    #[test]
    fn trails_link_consecutive_steps() {
        let history = vec![
            vec![Vec3::ZERO, Vec3::new(1.0, 0.0, 0.0)],
            vec![Vec3::new(0.0, 1.0, 0.0), Vec3::new(1.0, 1.0, 0.0)],
            vec![Vec3::new(0.0, 2.0, 0.0), Vec3::new(1.0, 2.0, 0.0)],
        ];
        let segs = trails(&history, [255; 4]);
        assert_eq!(segs.len(), 4); // 2 particles × 2 windows
        assert_eq!(segs[0].a, Vec3::ZERO);
        assert_eq!(segs[0].b, Vec3::new(0.0, 1.0, 0.0));
    }

    #[test]
    fn box_edges_are_twelve_with_correct_lengths() {
        let b = DomainBox {
            min: Vec3::ZERO,
            max: Vec3::new(2.0, 3.0, 4.0),
            rank: 0,
        };
        let edges = box_edges(&b);
        assert_eq!(edges.len(), 12);
        let total: f32 = edges.iter().map(|(a, c)| c.sub(*a).len()).sum();
        assert!((total - 4.0 * (2.0 + 3.0 + 4.0)).abs() < 1e-4);
    }

    #[test]
    fn box_mesh_matches_bounds() {
        let b = DomainBox {
            min: Vec3::new(1.0, 2.0, 3.0),
            max: Vec3::new(4.0, 6.0, 8.0),
            rank: 1,
        };
        let m = box_mesh(&b);
        let (lo, hi) = m.bounds().unwrap();
        assert_eq!(lo, b.min);
        assert_eq!(hi, b.max);
        assert_eq!(m.tri_count(), 12);
    }

    #[test]
    fn empty_inputs_yield_empty_outputs() {
        assert!(diamonds(&[], 1.0).is_empty());
        assert!(velocity_vectors(&[], &[], &[], 1.0).is_empty());
        assert!(trails(&[], [0; 4]).is_empty());
    }
}
