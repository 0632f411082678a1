//! Triangle meshes.
//!
//! The output of isosurface extraction; the "large and
//! complex data sets" of §1 that are "too large to be visualized on a laptop
//! client" (§2.4). [`TriMesh::byte_size`] is the geometry-shipping cost used
//! by the collaboration-traffic experiment (EC1): the paper's argument for
//! VizServer is precisely that shipping compressed bitmaps beats shipping
//! this geometry.

use crate::Vec3;

/// The panic message of a mesh grown past what its `u32` indices address.
const INDEX_LIMIT: &str = "a TriMesh addresses at most 2^32 vertices with its u32 indices";

/// The index of the next vertex of a mesh holding `len`, when the `count`
/// vertices appended from there all have `u32` indices. Panics otherwise,
/// naming the limit, where a cast would wrap.
fn vertex_base(len: usize, count: usize) -> u32 {
    let last = len.checked_add(count.saturating_sub(1));
    match (u32::try_from(len), last.map(u32::try_from)) {
        (Ok(base), Some(Ok(_))) => base,
        _ => panic!("{INDEX_LIMIT}: {len} + {count} vertices"),
    }
}

/// An indexed triangle mesh with per-vertex normals.
#[derive(Debug, Clone, Default)]
pub struct TriMesh {
    /// Vertex positions.
    pub vertices: Vec<Vec3>,
    /// Per-vertex normals (same length as `vertices`).
    pub normals: Vec<Vec3>,
    /// Triangle vertex indices, three per triangle.
    pub indices: Vec<u32>,
}

impl TriMesh {
    /// Empty mesh.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of triangles.
    pub fn tri_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// True if the mesh contains no triangles.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Append a triangle given three positions and a shared normal,
    /// creating three new vertices (no deduplication — matches what a
    /// streaming marching-cubes extractor emits).
    pub fn push_tri(&mut self, a: Vec3, b: Vec3, c: Vec3, n: Vec3) {
        let base = vertex_base(self.vertices.len(), 3);
        self.vertices.extend_from_slice(&[a, b, c]);
        self.normals.extend_from_slice(&[n, n, n]);
        self.indices.extend_from_slice(&[base, base + 1, base + 2]);
    }

    /// Append another mesh. Panics if an index would pass `u32::MAX`.
    pub fn merge(&mut self, other: &TriMesh) {
        let base = vertex_base(self.vertices.len(), other.vertices.len());
        self.vertices.extend_from_slice(&other.vertices);
        self.normals.extend_from_slice(&other.normals);
        let offset = |&i: &u32| i.checked_add(base).expect(INDEX_LIMIT);
        self.indices.extend(other.indices.iter().map(offset));
    }

    /// Axis-aligned bounding box `(min, max)`, or `None` if empty.
    pub fn bounds(&self) -> Option<(Vec3, Vec3)> {
        let mut it = self.vertices.iter();
        let first = *it.next()?;
        let mut lo = first;
        let mut hi = first;
        for v in it {
            lo = Vec3::new(lo.x.min(v.x), lo.y.min(v.y), lo.z.min(v.z));
            hi = Vec3::new(hi.x.max(v.x), hi.y.max(v.y), hi.z.max(v.z));
        }
        Some((lo, hi))
    }

    /// Geometry payload size in bytes if shipped raw: positions + normals
    /// (3+3 f32) per vertex plus u32 indices.
    pub fn byte_size(&self) -> usize {
        self.vertices.len() * 24 + self.indices.len() * 4
    }

    /// Geometric surface area (sum of triangle areas).
    pub fn area(&self) -> f32 {
        let mut total = 0.0;
        for t in self.indices.chunks_exact(3) {
            let a = self.vertices[t[0] as usize];
            let b = self.vertices[t[1] as usize];
            let c = self.vertices[t[2] as usize];
            total += b.sub(a).cross(c.sub(a)).len() * 0.5;
        }
        total
    }

    /// The canonical unit cube (12 triangles): the reference scene of the
    /// mesh and rasterizer tests.
    #[cfg(test)]
    pub(crate) fn unit_cube() -> TriMesh {
        let mut m = TriMesh::new();
        let v = |x: f32, y: f32, z: f32| Vec3::new(x, y, z);
        // 6 faces, 2 triangles each, outward normals
        let faces: [([Vec3; 4], Vec3); 6] = [
            (
                [v(0., 0., 0.), v(0., 1., 0.), v(1., 1., 0.), v(1., 0., 0.)],
                v(0., 0., -1.),
            ),
            (
                [v(0., 0., 1.), v(1., 0., 1.), v(1., 1., 1.), v(0., 1., 1.)],
                v(0., 0., 1.),
            ),
            (
                [v(0., 0., 0.), v(0., 0., 1.), v(0., 1., 1.), v(0., 1., 0.)],
                v(-1., 0., 0.),
            ),
            (
                [v(1., 0., 0.), v(1., 1., 0.), v(1., 1., 1.), v(1., 0., 1.)],
                v(1., 0., 0.),
            ),
            (
                [v(0., 0., 0.), v(1., 0., 0.), v(1., 0., 1.), v(0., 0., 1.)],
                v(0., -1., 0.),
            ),
            (
                [v(0., 1., 0.), v(0., 1., 1.), v(1., 1., 1.), v(1., 1., 0.)],
                v(0., 1., 0.),
            ),
        ];
        for (quad, n) in faces {
            m.push_tri(quad[0], quad[1], quad[2], n);
            m.push_tri(quad[0], quad[2], quad[3], n);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_tri_counts() {
        let mut m = TriMesh::new();
        m.push_tri(
            Vec3::new(0., 0., 0.),
            Vec3::new(1., 0., 0.),
            Vec3::new(0., 1., 0.),
            Vec3::new(0., 0., 1.),
        );
        assert_eq!(m.tri_count(), 1);
        assert_eq!(m.vertices.len(), 3);
        assert_eq!(m.byte_size(), 3 * 24 + 3 * 4);
    }

    #[test]
    fn merge_offsets_indices() {
        let mut a = TriMesh::unit_cube();
        let b = TriMesh::unit_cube();
        let n = a.vertices.len() as u32;
        a.merge(&b);
        assert_eq!(a.tri_count(), 24);
        assert!(a.indices[36..].iter().all(|&i| i >= n));
    }

    #[test]
    fn vertex_indices_reach_u32_max_and_no_further() {
        let max = u32::MAX as usize;
        assert_eq!(vertex_base(0, 3), 0);
        assert_eq!(vertex_base(max - 2, 3), u32::MAX - 2);
        assert_eq!(vertex_base(max, 0), u32::MAX);
        assert_eq!(vertex_base(max, 1), u32::MAX);
        for (len, count) in [(max - 1, 3), (max, 2), (max + 1, 0), (usize::MAX, 2)] {
            let refused = std::panic::catch_unwind(|| vertex_base(len, count));
            assert!(refused.is_err(), "{len} + {count} vertices");
        }
    }

    #[test]
    #[should_panic(expected = "at most 2^32 vertices")]
    fn merge_refuses_an_index_that_would_wrap() {
        let mut a = TriMesh::unit_cube();
        let mut b = TriMesh::new();
        b.vertices.push(Vec3::ZERO);
        b.normals.push(Vec3::ZERO);
        b.indices.extend_from_slice(&[0, 0, u32::MAX]);
        a.merge(&b);
    }

    #[test]
    fn cube_bounds_and_area() {
        let c = TriMesh::unit_cube();
        let (lo, hi) = c.bounds().unwrap();
        assert_eq!(lo, Vec3::ZERO);
        assert_eq!(hi, Vec3::new(1., 1., 1.));
        assert!((c.area() - 6.0).abs() < 1e-5);
    }

    #[test]
    fn empty_mesh_has_no_bounds() {
        assert!(TriMesh::new().bounds().is_none());
        assert!(TriMesh::new().is_empty());
    }
}
