//! # viz — visualization substrate
//!
//! The paper's demonstrations depend on high-end visualization machinery
//! that we rebuild in software: isosurface extraction of Lattice-Boltzmann
//! order-parameter fields (§2.2), an SGI OpenGL VizServer-style
//! remote-rendering service that ships *compressed bitmaps* instead of
//! geometry (§2.4), and the vic-style framebuffer streaming used by the
//! vtkNetwork classes (§2.4).
//!
//! Modules:
//! * [`field`] — regular-grid scalar fields ([`Field3`]) with trilinear
//!   sampling and central-difference gradients.
//! * [`mc`] — marching-cubes isosurface extraction producing [`TriMesh`]es.
//! * [`mesh`] — triangle meshes, normals, bounds, byte-size accounting.
//! * [`camera`] — look-at + perspective camera.
//! * [`raster`] — z-buffered software rasterizer (points, lines, triangles,
//!   Lambert shading).
//! * [`framebuffer`] — RGBA framebuffer with PPM export.
//! * [`codec`] — delta + run-length framebuffer codec (the VizServer /
//!   vtkNetwork "compressed bitmap" path) with byte accounting.
//! * [`color`] — transfer-function colormaps.
//! * [`vizserver`] — shared remote-render sessions: one render host, many
//!   viewers receiving encoded frames, collaborative session semantics.
//!
//! The three hot paths — triangle fill ([`raster`]), isosurface extraction
//! ([`mc`]) and frame encoding ([`codec`]) — are parallel over the
//! persistent [`gridsteer_exec`] pool: framebuffer row bands, one
//! contiguous range of z-slabs per worker, and row-aligned byte bands
//! respectively. All three use ordered reductions, and the fill and the
//! codec fixed chunk boundaries, so their output is byte-identical for any
//! thread count; `*_with` variants accept an explicit pool handle, the
//! plain names use the shared default pool.

pub mod camera;
pub mod codec;
pub mod color;
pub mod field;
pub mod framebuffer;
pub mod mc;
pub mod mesh;
pub mod raster;
pub mod vizserver;

/// Fields the tests of several modules render.
#[cfg(test)]
mod fixtures {
    use crate::Field3;

    /// φ of the two-fluid LBM (`lbm::LbmConfig` with `nx = ny = nz = n`,
    /// `seed: 2003`, everything else default), stepped 400 times at
    /// miscibility 0 — `viz_fanout`'s preroll — as raw little-endian f32 in
    /// `order_parameter_into`'s x-fastest order. The 16³ file is the field
    /// behind the gate's `raster_16c_3600t` and `isosurface_16c` cells
    /// (`gridsteer_bench`'s `gate` tests check those digests against it).
    pub(crate) fn lbm_phi(n: usize) -> Field3 {
        let bytes: &[u8] = match n {
            16 => include_bytes!("../tests/fixtures/phi_16c_seed2003_400steps.f32"),
            32 => include_bytes!("../tests/fixtures/phi_32c_seed2003_400steps.f32"),
            _ => unreachable!("no fixture for {n}³"),
        };
        let data = bytes
            .chunks_exact(4)
            .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect();
        Field3::from_vec(n, n, n, data)
    }
}

pub use camera::Camera;
pub use codec::{DeltaRleCodec, EncodedFrame};
pub use color::ColorMap;
pub use field::Field3;
pub use framebuffer::Framebuffer;
pub use mesh::TriMesh;
pub use raster::Rasterizer;
pub use vizserver::{CollectSink, FrameSink, VizServerSession};

/// A 3-component f32 vector used across the crate (positions, normals,
/// velocities). Deliberately minimal: exactly the operations the substrate
/// needs.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    pub x: f32,
    pub y: f32,
    pub z: f32,
}

impl Vec3 {
    /// Construct from components.
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// The zero vector.
    pub const ZERO: Vec3 = Vec3::new(0.0, 0.0, 0.0);

    /// Component-wise addition (inherent, mirrored by `impl Add`).
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x + o.x, self.y + o.y, self.z + o.z)
    }

    /// Component-wise subtraction (inherent, mirrored by `impl Sub`).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, o: Vec3) -> Vec3 {
        Vec3::new(self.x - o.x, self.y - o.y, self.z - o.z)
    }

    /// Scalar multiplication.
    pub fn scale(self, s: f32) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }

    /// Dot product.
    pub fn dot(self, o: Vec3) -> f32 {
        self.x * o.x + self.y * o.y + self.z * o.z
    }

    /// Cross product.
    pub fn cross(self, o: Vec3) -> Vec3 {
        Vec3::new(
            self.y * o.z - self.z * o.y,
            self.z * o.x - self.x * o.z,
            self.x * o.y - self.y * o.x,
        )
    }

    /// Euclidean length.
    pub fn len(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Unit vector (zero stays zero).
    pub fn normalized(self) -> Vec3 {
        let l = self.len();
        if l > 0.0 {
            self.scale(1.0 / l)
        } else {
            self
        }
    }

    /// Linear interpolation `self + t (o - self)`.
    pub fn lerp(self, o: Vec3, t: f32) -> Vec3 {
        self.add(o.sub(self).scale(t))
    }
}

impl std::ops::Add for Vec3 {
    type Output = Vec3;
    fn add(self, o: Vec3) -> Vec3 {
        Vec3::add(self, o)
    }
}

impl std::ops::Sub for Vec3 {
    type Output = Vec3;
    fn sub(self, o: Vec3) -> Vec3 {
        Vec3::sub(self, o)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_algebra() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a.add(b), Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b.sub(a), Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a.dot(b), 32.0);
        assert_eq!(a.scale(2.0), Vec3::new(2.0, 4.0, 6.0));
    }

    #[test]
    fn cross_is_orthogonal() {
        let a = Vec3::new(1.0, 0.0, 0.0);
        let b = Vec3::new(0.0, 1.0, 0.0);
        let c = a.cross(b);
        assert_eq!(c, Vec3::new(0.0, 0.0, 1.0));
        assert_eq!(c.dot(a), 0.0);
        assert_eq!(c.dot(b), 0.0);
    }

    #[test]
    fn normalize_handles_zero() {
        assert_eq!(Vec3::ZERO.normalized(), Vec3::ZERO);
        let v = Vec3::new(3.0, 0.0, 4.0).normalized();
        assert!((v.len() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn lerp_endpoints() {
        let a = Vec3::new(0.0, 0.0, 0.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.0, 2.0, 4.0));
    }
}
