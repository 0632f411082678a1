//! A one-wide isosurface extraction allocates only the mesh it returns:
//! the growth of its three vectors (vertices, normals, indices), and no
//! per-slab meshes or merge copy beside them.
//!
//! The witness is `gridsteer_testkit`'s counting allocator, whose
//! counters are per thread; a one-wide pool runs the extraction on the
//! calling thread, so nothing it does escapes the count.

use gridsteer_testkit::{measure, CountingAlloc};
use viz::{mc, Field3, TriMesh};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// `viz_fanout`'s φ after its preroll (LBM 16³, seed 2003, 400 steps at
/// miscibility 0), the field behind the gate's `isosurface_16c` cell.
fn phi_16c() -> Field3 {
    let bytes = include_bytes!("fixtures/phi_16c_seed2003_400steps.f32");
    let data = bytes
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Field3::from_vec(16, 16, 16, data)
}

#[test]
fn a_one_wide_extraction_allocates_only_the_growth_of_its_mesh() {
    let pool = gridsteer_exec::shared(1);
    let field = phi_16c();
    let (mesh, usage) = measure(|| mc::isosurface_with(&pool, &field, 0.0));
    assert_eq!(mesh.tri_count(), 3600);
    // the same three vectors grown one triangle at a time, as extraction
    // grows them: every call and byte of this is the mesh's own
    let (grown, growth) = measure(|| {
        let mut m = TriMesh::new();
        for t in mesh.indices.chunks_exact(3) {
            let [a, b, c] = [0, 1, 2].map(|k| mesh.vertices[t[k] as usize]);
            m.push_tri(a, b, c, mesh.normals[t[0] as usize]);
        }
        m
    });
    assert_eq!(grown.indices, mesh.indices);
    // 39 calls and 458,752 live bytes. Per-slab extraction (15 slab
    // meshes and a result vector, merged into a fresh mesh) made 422 calls
    // for the same mesh.
    assert_eq!(
        usage, growth,
        "extraction allocated beyond its mesh's growth ({} calls vs {})",
        usage.calls, growth.calls
    );
}
