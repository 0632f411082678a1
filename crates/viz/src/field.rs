//! Regular-grid scalar fields.
//!
//! The RealityGrid demonstration visualizes the order parameter φ = ρA − ρB
//! of a two-fluid Lattice-Boltzmann mixture on a periodic 3-D grid (§2.2);
//! PEPC's planned extension maps diagnostics (charge density, fields, laser
//! intensity) onto a user-defined mesh (§3.4). [`Field3`] is the carrier for
//! both: a dense `f32` lattice with x-fastest layout, trilinear sampling and
//! central-difference gradients (used for isosurface normals).

use crate::Vec3;

/// A dense scalar field on an `nx × ny × nz` regular grid.
///
/// Storage is x-fastest (`idx = x + nx*(y + ny*z)`), the layout the LB
/// solver produces, so samples are handed to the visualization without a
/// transpose — the "zero-copy" the paper's shared-data-space design aims at.
#[derive(Debug, Clone, PartialEq)]
pub struct Field3 {
    nx: usize,
    ny: usize,
    nz: usize,
    data: Vec<f32>,
}

impl Field3 {
    /// Zero-filled field.
    pub fn zeros(nx: usize, ny: usize, nz: usize) -> Self {
        Field3 {
            nx,
            ny,
            nz,
            data: vec![0.0; nx * ny * nz],
        }
    }

    /// Wrap existing data (must have length `nx*ny*nz`).
    pub fn from_vec(nx: usize, ny: usize, nz: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), nx * ny * nz, "field data length mismatch");
        Field3 { nx, ny, nz, data }
    }

    /// Build by evaluating `f(x,y,z)` at every lattice point.
    pub fn from_fn(
        nx: usize,
        ny: usize,
        nz: usize,
        mut f: impl FnMut(usize, usize, usize) -> f32,
    ) -> Self {
        let mut data = Vec::with_capacity(nx * ny * nz);
        for z in 0..nz {
            for y in 0..ny {
                for x in 0..nx {
                    data.push(f(x, y, z));
                }
            }
        }
        Field3 { nx, ny, nz, data }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of lattice points.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if the field has no points.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Raw data slice (x-fastest).
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Linear index for `(x,y,z)`.
    #[inline]
    pub fn idx(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        x + self.nx * (y + self.ny * z)
    }

    /// Value at a lattice point.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.idx(x, y, z)]
    }

    /// Set a lattice point.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, z: usize, v: f32) {
        let i = self.idx(x, y, z);
        self.data[i] = v;
    }

    /// Value with periodic wrap-around (the LB grid has periodic boundary
    /// conditions, §2.2).
    #[inline]
    pub fn get_periodic(&self, x: isize, y: isize, z: isize) -> f32 {
        let w = |v: isize, n: usize| -> usize {
            let n = n as isize;
            (((v % n) + n) % n) as usize
        };
        self.get(w(x, self.nx), w(y, self.ny), w(z, self.nz))
    }

    /// Trilinear interpolation at a continuous position in lattice units.
    /// Coordinates are clamped to the grid.
    pub fn sample(&self, p: Vec3) -> f32 {
        let cx = p.x.clamp(0.0, (self.nx - 1) as f32);
        let cy = p.y.clamp(0.0, (self.ny - 1) as f32);
        let cz = p.z.clamp(0.0, (self.nz - 1) as f32);
        let x0 = cx.floor() as usize;
        let y0 = cy.floor() as usize;
        let z0 = cz.floor() as usize;
        let x1 = (x0 + 1).min(self.nx - 1);
        let y1 = (y0 + 1).min(self.ny - 1);
        let z1 = (z0 + 1).min(self.nz - 1);
        let fx = cx - x0 as f32;
        let fy = cy - y0 as f32;
        let fz = cz - z0 as f32;
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(self.get(x0, y0, z0), self.get(x1, y0, z0), fx);
        let c10 = lerp(self.get(x0, y1, z0), self.get(x1, y1, z0), fx);
        let c01 = lerp(self.get(x0, y0, z1), self.get(x1, y0, z1), fx);
        let c11 = lerp(self.get(x0, y1, z1), self.get(x1, y1, z1), fx);
        let c0 = lerp(c00, c10, fy);
        let c1 = lerp(c01, c11, fy);
        lerp(c0, c1, fz)
    }

    /// Central-difference gradient at a lattice point (periodic), used for
    /// isosurface normals.
    pub fn gradient(&self, x: usize, y: usize, z: usize) -> Vec3 {
        let (xi, yi, zi) = (x as isize, y as isize, z as isize);
        Vec3::new(
            (self.get_periodic(xi + 1, yi, zi) - self.get_periodic(xi - 1, yi, zi)) * 0.5,
            (self.get_periodic(xi, yi + 1, zi) - self.get_periodic(xi, yi - 1, zi)) * 0.5,
            (self.get_periodic(xi, yi, zi + 1) - self.get_periodic(xi, yi, zi - 1)) * 0.5,
        )
    }

    /// Minimum and maximum values.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Mean value.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            return 0.0;
        }
        self.data.iter().map(|&v| v as f64).sum::<f64>() as f32 / self.data.len() as f32
    }

    /// Extract an axis-aligned slice plane (z = k) as a row-major 2-D copy.
    /// This is the cheap "cutting plane" primitive behind the COVISE
    /// CutPlane module (§4.3).
    pub fn slice_z(&self, k: usize) -> Vec<f32> {
        assert!(k < self.nz);
        let base = self.nx * self.ny * k;
        self.data[base..base + self.nx * self.ny].to_vec()
    }

    /// Payload size in bytes when shipped as raw f32 samples — the unit of
    /// the sample-emission traffic accounting.
    pub fn byte_size(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_is_x_fastest() {
        let f = Field3::from_fn(3, 4, 5, |x, y, z| (x + 10 * y + 100 * z) as f32);
        assert_eq!(f.get(1, 2, 3), 321.0);
        assert_eq!(f.data()[f.idx(1, 2, 3)], 321.0);
        assert_eq!(f.idx(1, 0, 0), 1); // x stride is 1
    }

    #[test]
    fn periodic_wraps_both_directions() {
        let f = Field3::from_fn(4, 4, 4, |x, _, _| x as f32);
        assert_eq!(f.get_periodic(-1, 0, 0), 3.0);
        assert_eq!(f.get_periodic(4, 0, 0), 0.0);
        assert_eq!(f.get_periodic(-5, 0, 0), 3.0);
    }

    #[test]
    fn trilinear_sample_is_exact_on_linear_fields() {
        let f = Field3::from_fn(8, 8, 8, |x, y, z| {
            x as f32 + 2.0 * y as f32 + 3.0 * z as f32
        });
        let p = Vec3::new(2.5, 3.25, 4.75);
        let expect = 2.5 + 2.0 * 3.25 + 3.0 * 4.75;
        assert!((f.sample(p) - expect).abs() < 1e-4);
    }

    #[test]
    fn sample_clamps_outside() {
        let f = Field3::from_fn(4, 4, 4, |x, _, _| x as f32);
        assert_eq!(f.sample(Vec3::new(-5.0, 0.0, 0.0)), 0.0);
        assert_eq!(f.sample(Vec3::new(50.0, 0.0, 0.0)), 3.0);
    }

    #[test]
    fn gradient_of_linear_field() {
        let f = Field3::from_fn(8, 8, 8, |x, y, z| {
            // avoid the periodic seam by only checking interior points
            x as f32 + 2.0 * y as f32 - 1.5 * z as f32
        });
        let g = f.gradient(4, 4, 4);
        assert!((g.x - 1.0).abs() < 1e-5);
        assert!((g.y - 2.0).abs() < 1e-5);
        assert!((g.z + 1.5).abs() < 1e-5);
    }

    #[test]
    fn min_max_and_mean() {
        let f = Field3::from_vec(2, 2, 1, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.min_max(), (1.0, 4.0));
        assert_eq!(f.mean(), 2.5);
    }

    #[test]
    fn slice_z_extracts_plane() {
        let f = Field3::from_fn(2, 2, 3, |_, _, z| z as f32);
        assert_eq!(f.slice_z(1), vec![1.0; 4]);
        assert_eq!(f.slice_z(2), vec![2.0; 4]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn from_vec_checks_len() {
        let _ = Field3::from_vec(2, 2, 2, vec![0.0; 7]);
    }

    #[test]
    fn byte_size_counts_f32() {
        let f = Field3::zeros(8, 8, 8);
        assert_eq!(f.byte_size(), 512 * 4);
    }
}
