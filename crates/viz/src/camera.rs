//! Look-at perspective camera.
//!
//! The collaborative sessions of §4.2 synchronize exactly this object: "all
//! participants share the same viewer position". A [`Camera`] is therefore
//! both a rasterizer input and a tiny piece of *synchronization state* — the
//! parameter-sync collaboration mode ships cameras (tens of bytes) instead
//! of frames (megabytes).

use crate::Vec3;

/// Perspective camera defined by eye/target/up and a vertical field of view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Camera {
    /// Eye position (world space).
    pub eye: Vec3,
    /// Point the camera looks at.
    pub target: Vec3,
    /// Approximate up direction.
    pub up: Vec3,
    /// Vertical field of view in radians.
    pub fov_y: f32,
    /// Near clipping distance.
    pub near: f32,
}

impl Camera {
    /// A camera at `eye` looking at `target` with y-up and 60° fov.
    pub fn look_at(eye: Vec3, target: Vec3) -> Self {
        Camera {
            eye,
            target,
            up: Vec3::new(0.0, 1.0, 0.0),
            fov_y: std::f32::consts::FRAC_PI_3,
            near: 0.01,
        }
    }

    /// Orthonormal camera basis `(right, up, forward)`.
    pub fn basis(&self) -> (Vec3, Vec3, Vec3) {
        let fwd = self.target.sub(self.eye).normalized();
        let right = fwd.cross(self.up).normalized();
        let up = right.cross(fwd);
        (right, up, fwd)
    }

    /// Transform a world point into view space (x right, y up, z forward).
    pub fn to_view(&self, p: Vec3) -> Vec3 {
        let (r, u, f) = self.basis();
        view(p.sub(self.eye), r, u, f)
    }

    /// The per-frame projection constants for a `width × height` target:
    /// the basis, `tan(fov/2)` and the aspect ratio, computed once instead
    /// of once per projected point.
    pub fn projector(&self, width: usize, height: usize) -> Projector {
        let (right, up, fwd) = self.basis();
        let half_h = (self.fov_y * 0.5).tan();
        let aspect = width as f32 / height as f32;
        Projector {
            eye: self.eye,
            right,
            up,
            fwd,
            near: self.near,
            half_w: half_h * aspect,
            half_h,
            width: width as f32,
            height: height as f32,
        }
    }

    /// Project a world point to pixel coordinates plus view-space depth.
    /// Returns `None` when the point is behind the near plane. One point's
    /// worth of [`Camera::projector`]; a frame projects through one
    /// projector.
    pub fn project(&self, p: Vec3, width: usize, height: usize) -> Option<(f32, f32, f32)> {
        self.projector(width, height).project(p)
    }

    /// Orbit the eye around the target by `yaw` radians about the up axis —
    /// the canonical "viewer moved" interaction of §4.2.
    pub fn orbit(&mut self, yaw: f32) {
        let d = self.eye.sub(self.target);
        let (s, c) = yaw.sin_cos();
        let rotated = Vec3::new(d.x * c + d.z * s, d.y, -d.x * s + d.z * c);
        self.eye = self.target.add(rotated);
    }
}

/// `d` (a point relative to the eye) in the view basis `(r, u, f)`.
fn view(d: Vec3, r: Vec3, u: Vec3, f: Vec3) -> Vec3 {
    Vec3::new(d.dot(r), d.dot(u), d.dot(f))
}

/// A [`Camera`] bound to one render target size, from
/// [`Camera::projector`]: [`Projector::project`] is the whole projection,
/// so every point of a frame pays only its own arithmetic.
#[derive(Debug, Clone, Copy)]
pub struct Projector {
    eye: Vec3,
    right: Vec3,
    up: Vec3,
    fwd: Vec3,
    near: f32,
    half_w: f32,
    half_h: f32,
    width: f32,
    height: f32,
}

impl Projector {
    /// Project a world point to pixel coordinates plus view-space depth.
    /// Returns `None` when the point is behind the near plane.
    #[inline]
    pub fn project(&self, p: Vec3) -> Option<(f32, f32, f32)> {
        let v = view(p.sub(self.eye), self.right, self.up, self.fwd);
        if v.z <= self.near {
            return None;
        }
        let ndc_x = v.x / (v.z * self.half_w);
        let ndc_y = v.y / (v.z * self.half_h);
        let px = (ndc_x * 0.5 + 0.5) * self.width;
        let py = (0.5 - ndc_y * 0.5) * self.height;
        Some((px, py, v.z))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_is_orthonormal() {
        let c = Camera::look_at(Vec3::new(3.0, 2.0, 5.0), Vec3::ZERO);
        let (r, u, f) = c.basis();
        for v in [r, u, f] {
            assert!((v.len() - 1.0).abs() < 1e-5);
        }
        assert!(r.dot(u).abs() < 1e-5);
        assert!(r.dot(f).abs() < 1e-5);
        assert!(u.dot(f).abs() < 1e-5);
    }

    #[test]
    fn target_projects_to_center() {
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO);
        let (px, py, z) = c.project(Vec3::ZERO, 200, 100).unwrap();
        assert!((px - 100.0).abs() < 1e-3);
        assert!((py - 50.0).abs() < 1e-3);
        assert!((z - 10.0).abs() < 1e-5);
    }

    #[test]
    fn behind_camera_is_clipped() {
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO);
        assert!(c.project(Vec3::new(0.0, 0.0, -20.0), 100, 100).is_none());
    }

    #[test]
    fn nearer_points_have_smaller_depth() {
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO);
        let (_, _, z1) = c.project(Vec3::new(0.0, 0.0, -2.0), 100, 100).unwrap();
        let (_, _, z2) = c.project(Vec3::new(0.0, 0.0, 3.0), 100, 100).unwrap();
        assert!(z1 < z2);
    }

    /// The projection as it was before [`Projector`]: the basis and
    /// `tan(fov/2)` recomputed for every point.
    fn project_reference(
        c: &Camera,
        p: Vec3,
        width: usize,
        height: usize,
    ) -> Option<(f32, f32, f32)> {
        let v = c.to_view(p);
        if v.z <= c.near {
            return None;
        }
        let half_h = (c.fov_y * 0.5).tan();
        let aspect = width as f32 / height as f32;
        let half_w = half_h * aspect;
        let ndc_x = v.x / (v.z * half_w);
        let ndc_y = v.y / (v.z * half_h);
        let px = (ndc_x * 0.5 + 0.5) * width as f32;
        let py = (0.5 - ndc_y * 0.5) * height as f32;
        Some((px, py, v.z))
    }

    #[test]
    fn projector_matches_the_per_point_projection_bit_for_bit() {
        // splitmix64: a seeded cloud around the cameras, a third of it
        // behind each eye's near plane
        let mut s = 0x2003_u64;
        let mut unit = || {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32 * 2.0 - 1.0
        };
        let cloud: Vec<Vec3> = (0..2000)
            .map(|_| Vec3::new(unit() * 40.0, unit() * 40.0, unit() * 40.0))
            .collect();
        let cams = [
            Camera::look_at(Vec3::new(35.2, 27.2, -22.4), Vec3::new(8.0, 8.0, 8.0)),
            Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO),
            Camera::look_at(Vec3::new(3.0, -20.0, 1.0), Vec3::new(0.5, 0.5, 0.5)),
        ];
        let bits = |p: Option<(f32, f32, f32)>| p.map(|(x, y, z)| [x, y, z].map(f32::to_bits));
        let mut clipped = 0;
        // opaque cameras: a constant one lets a release build fold
        // `tan(fov/2)` at compile time, an ulp off glibc's `tanf`
        for cam in &std::hint::black_box(cams) {
            for (w, h) in [(256, 256), (61, 40), (1, 1)] {
                let proj = cam.projector(w, h);
                for &p in &cloud {
                    let want = bits(project_reference(cam, p, w, h));
                    assert_eq!(bits(proj.project(p)), want, "{cam:?} {w}x{h} {p:?}");
                    assert_eq!(bits(cam.project(p, w, h)), want);
                    clipped += usize::from(want.is_none());
                }
            }
        }
        assert!(clipped > 2000, "the cloud must reach behind the near plane");
    }

    #[test]
    fn orbit_preserves_distance() {
        let mut c = Camera::look_at(Vec3::new(5.0, 1.0, 0.0), Vec3::ZERO);
        let d0 = c.eye.sub(c.target).len();
        c.orbit(0.7);
        let d1 = c.eye.sub(c.target).len();
        assert!((d0 - d1).abs() < 1e-4);
        // full circle returns home
        let mut c2 = Camera::look_at(Vec3::new(5.0, 1.0, 0.0), Vec3::ZERO);
        for _ in 0..8 {
            c2.orbit(std::f32::consts::FRAC_PI_4);
        }
        assert!(c2.eye.sub(Vec3::new(5.0, 1.0, 0.0)).len() < 1e-4);
    }
}
