//! Z-buffered software rasterizer.
//!
//! Stands in for the SGI Onyx graphics pipes: renders triangle meshes
//! (isosurfaces, domain boxes) into a [`Framebuffer`] with flat Lambert
//! shading. Per-frame cost
//! is real CPU work, which is exactly what the remote-vs-local rendering
//! experiment (E42) needs: a render time that scales with scene complexity.
//!
//! A mesh frame costs the triangles it draws. The camera's basis,
//! `tan(fov/2)` and aspect are computed once per frame
//! ([`Camera::projector`]), not once per vertex; each triangle is then
//! projected, shaded and bounded once, and binned once, in mesh order,
//! into the fixed 32-row bands it overlaps, so a band fills only its own
//! triangles instead of testing every triangle of the mesh.
//!
//! Isosurface triangles are small (1.4 px of area in a 17 px box on
//! `viz_fanout`'s frame), yet the pixel work is not small beside the
//! per-triangle setup. Measured in-process on that frame (3,600 triangles,
//! 256², one worker, a two-vCPU x86-64 box): setup — projection, Lambert
//! term, bounds and record — ~160 µs, binning ~13 µs, and the fill
//! ~315 µs while its inside test ran one lane at a time, ~195 µs with
//! the packed mask of `fill_band_masked`. Almost every row of such a
//! box is shorter than eight pixels, so the fill works in masked 8-pixel
//! blocks rather than in full blocks plus a scalar tail.

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use crate::mesh::TriMesh;
use crate::Vec3;

/// Rasterizer state: framebuffer + z-buffer + light direction.
pub struct Rasterizer {
    fb: Framebuffer,
    zbuf: Vec<f32>,
    /// Directional light (towards the scene), unit length.
    light: Vec3,
    /// Triangles actually rasterized in the last `draw_mesh` call (after
    /// clipping/backface culling) — a cheap complexity metric.
    pub tris_drawn: usize,
}

impl Rasterizer {
    /// New rasterizer with a black framebuffer.
    pub fn new(width: usize, height: usize) -> Self {
        Rasterizer {
            fb: Framebuffer::new(width, height),
            zbuf: vec![f32::INFINITY; width * height],
            light: Vec3::new(0.4, 0.7, -0.6).normalized(),
            tris_drawn: 0,
        }
    }

    /// Clear colour and depth.
    pub fn clear(&mut self, rgba: [u8; 4]) {
        self.fb.clear(rgba);
        self.zbuf.fill(f32::INFINITY);
        self.tris_drawn = 0;
    }

    /// Borrow the framebuffer.
    pub fn framebuffer(&self) -> &Framebuffer {
        &self.fb
    }

    /// Take the framebuffer out (consumes the rasterizer).
    pub fn into_framebuffer(self) -> Framebuffer {
        self.fb
    }

    /// Draw a mesh with flat Lambert shading in `base` colour, on the
    /// default shared executor pool.
    pub fn draw_mesh(&mut self, cam: &Camera, mesh: &TriMesh, base: [u8; 4]) {
        self.draw_mesh_with(&gridsteer_exec::global(), cam, mesh, base);
    }

    /// [`Rasterizer::draw_mesh`] on an explicit executor pool. Every
    /// triangle is projected (through one per-frame [`Camera::projector`]),
    /// shaded and bounded once, then binned once, in mesh order, into the
    /// fixed-height framebuffer row bands its bbox overlaps; the fill is
    /// parallel over those bands, each filling its own bin in order. Every
    /// pixel is owned by exactly one band and sees its triangles in the
    /// same order as a serial fill, so the image is byte-identical for any
    /// thread count.
    pub fn draw_mesh_with(
        &mut self,
        pool: &gridsteer_exec::ExecPool,
        cam: &Camera,
        mesh: &TriMesh,
        base: [u8; 4],
    ) {
        self.draw_mesh_on(pool, cam, mesh, base, lanes::backend());
    }

    /// [`Rasterizer::draw_mesh_with`] with the fill of `backend`: the
    /// masked lane fill for a lane-blocked backend, the scalar spec for
    /// [`lanes::Backend::Scalar`]. Both leave the same bytes.
    pub(crate) fn draw_mesh_on(
        &mut self,
        pool: &gridsteer_exec::ExecPool,
        cam: &Camera,
        mesh: &TriMesh,
        base: [u8; 4],
        backend: lanes::Backend,
    ) {
        let (w, h) = (self.fb.width(), self.fb.height());
        if w == 0 || h == 0 {
            return;
        }
        let proj = cam.projector(w, h);
        let light = self.light;
        let mut tris: Vec<ShadedTri> = Vec::with_capacity(mesh.tri_count());
        for t in mesh.indices.chunks_exact(3) {
            let v = [t[0], t[1], t[2]].map(|i| mesh.vertices[i as usize]);
            // conservative near-plane clip
            let (Some(a), Some(b), Some(c)) =
                (proj.project(v[0]), proj.project(v[1]), proj.project(v[2]))
            else {
                continue;
            };
            self.tris_drawn += 1;
            let rgba = lambert_rgba(v, light, base);
            tris.extend(ShadedTri::prepare(a, b, c, rgba, w, h));
        }
        // fixed band height: the pixel→band mapping never depends on the
        // pool's thread count
        let mut bins: Vec<Vec<&ShadedTri>> = vec![Vec::new(); h.div_ceil(BAND_ROWS)];
        for t in &tris {
            for bin in &mut bins[t.bands()] {
                bin.push(t);
            }
        }
        let masked = backend.lane_blocked() && w <= LANE_EXACT_WIDTH;
        pool.parallel_chunks2(
            &mut self.zbuf,
            self.fb.bytes_mut(),
            BAND_ROWS * w,
            BAND_ROWS * w * 4,
            |bi, zband, cband| {
                let y0 = bi * BAND_ROWS;
                let y1 = y0 + zband.len() / w;
                for t in &bins[bi] {
                    fill_triangle_band(t, w, y0, y1, zband, cband, masked);
                }
            },
        );
    }
}

/// Rows per rasterization band (fixed; see [`Rasterizer::draw_mesh_with`]).
const BAND_ROWS: usize = 32;

/// `base` flat-shaded two-sided by the Lambert term of the face normal of
/// the world-space triangle `v`.
fn lambert_rgba(v: [Vec3; 3], light: Vec3, base: [u8; 4]) -> [u8; 4] {
    let n = v[1].sub(v[0]).cross(v[2].sub(v[0])).normalized();
    let lambert = n.dot(light).abs().clamp(0.05, 1.0);
    let shade = |c: u8| ((c as f32) * (0.2 + 0.8 * lambert)) as u8;
    [shade(base[0]), shade(base[1]), shade(base[2]), base[3]]
}

/// `x.ceil() as usize` without the `ceilf` call the baseline x86-64 target
/// makes for it: the truncating cast, plus one where it dropped a
/// fraction. Exact for every `x`: a truncated `f32` is itself an `f32`, so
/// the comparison is exact, and NaN and negatives give 0 as the cast does.
fn ceil_px(x: f32) -> usize {
    let t = x as usize;
    if (t as f32) < x {
        t.saturating_add(1)
    } else {
        t
    }
}

/// A projected, culled, shaded triangle that fills pixels, with its
/// clipped screen bbox and area reciprocal computed once.
struct ShadedTri {
    a: (f32, f32, f32),
    b: (f32, f32, f32),
    c: (f32, f32, f32),
    rgba: [u8; 4],
    min_x: usize,
    max_x: usize,
    min_y: usize,
    max_y: usize,
    inv_area: f32,
}

impl ShadedTri {
    /// The triangle with screen vertices `a`, `b`, `c` in colour `rgba`,
    /// or `None` if it is degenerate (near-zero area): such a triangle is
    /// counted in `tris_drawn` but fills no pixel.
    fn prepare(
        a: (f32, f32, f32),
        b: (f32, f32, f32),
        c: (f32, f32, f32),
        rgba: [u8; 4],
        w: usize,
        h: usize,
    ) -> Option<ShadedTri> {
        let area = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
        (area.abs() >= 1e-9).then(|| ShadedTri {
            // the cast truncates and saturates (negatives and NaN to 0):
            // `x.floor().max(0.0) as usize` without the `floorf` call
            min_x: a.0.min(b.0).min(c.0) as usize,
            max_x: ceil_px(a.0.max(b.0).max(c.0)).min(w.saturating_sub(1)),
            min_y: a.1.min(b.1).min(c.1) as usize,
            max_y: ceil_px(a.1.max(b.1).max(c.1)).min(h.saturating_sub(1)),
            inv_area: 1.0 / area,
            a,
            b,
            c,
            rgba,
        })
    }

    /// The bands whose rows `[y0, y1)` the fill visits for this triangle:
    /// those with `max_y >= y0 && min_y < y1`. Its bbox rows are clamped to
    /// the frame, so there are none only when the whole triangle is below
    /// it (`min_y > max_y`).
    fn bands(&self) -> std::ops::Range<usize> {
        if self.min_y > self.max_y {
            return 0..0;
        }
        self.min_y / BAND_ROWS..self.max_y / BAND_ROWS + 1
    }
}

/// Inside-test, z-test and write for one pixel given its barycentric
/// weights — the per-pixel tail shared by the scalar and lane-blocked
/// fills (so both backends write identical pixels by construction).
// the three weights and two band slices are hot-loop state; boxing them
// into a struct would cost the #[inline(always)] contract its point
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn shade_pixel(
    t: &ShadedTri,
    w0: f32,
    w1: f32,
    w2: f32,
    row_base: usize,
    x: usize,
    zband: &mut [f32],
    cband: &mut [u8],
) {
    let (a, b, c) = (t.a, t.b, t.c);
    // inside test; non-short-circuit, so the three comparisons are one
    // branch instead of a mispredicted chain. The weights are divided by
    // the signed area, so an inside pixel has all three `>= 0` under
    // either winding, and "all three `<= 0`" can never hold: `w2` is
    // `(1 − w0) − w1`, and with `w0, w1 <= 0` the exact values are
    // `1 − w0 >= 1` and then `>= 1` again, which rounding (monotone, and
    // 1 is representable) keeps `>= 1`; an infinite weight gives `+∞` and
    // a NaN fails every comparison.
    let inside = (w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0);
    if inside {
        // screen-space barycentric z with weights normalized to
        // tolerate either winding: w2→a, w0→b, w1→c
        let wsum = w0.abs() + w1.abs() + w2.abs();
        if wsum <= 0.0 {
            return;
        }
        let z = (w2.abs() * a.2 + w0.abs() * b.2 + w1.abs() * c.2) / wsum;
        let i = row_base + x;
        if z < zband[i] {
            zband[i] = z;
            cband[i * 4..i * 4 + 4].copy_from_slice(&t.rgba);
        }
    }
}

/// The widest frame the masked fill runs on. A lane's pixel centre is
/// `(x + 0.5) + l` where the scalar fill's is `(x + l) + 0.5`; both are
/// exact, hence equal, while `x + l` is below 2²² (then `x + l + 0.5`
/// needs at most 23 significant bits, and an `f32` has 24). Only lanes up
/// to `max_x < w` are shaded, so every width up to 2²² qualifies; a wider
/// frame fills with the scalar spec.
const LANE_EXACT_WIDTH: usize = 1 << 22;

/// Barycentric triangle fill with z interpolation, restricted to the
/// framebuffer rows `[y0, y1)` held by `zband`/`cband`. The arithmetic is
/// identical for every band split, so banded and whole-frame fills produce
/// the same pixels. `masked` picks [`fill_band_masked`], else the scalar
/// spec [`fill_band_scalar`]; the two write identical pixels.
fn fill_triangle_band(
    t: &ShadedTri,
    w: usize,
    y0: usize,
    y1: usize,
    zband: &mut [f32],
    cband: &mut [u8],
    masked: bool,
) {
    if masked {
        fill_band_masked(t, w, y0, y1, zband, cband);
    } else {
        fill_band_scalar(t, w, y0, y1, zband, cband);
    }
}

/// The rows of `[y0, y1)` the triangle's bbox covers.
fn band_rows(t: &ShadedTri, y0: usize, y1: usize) -> std::ops::RangeInclusive<usize> {
    t.min_y.max(y0)..=t.max_y.min(y1.saturating_sub(1))
}

/// The scalar fill, one pixel at a time: the spec of the masked fill and
/// the fill of `GRIDSTEER_SIMD=0`.
fn fill_band_scalar(
    t: &ShadedTri,
    w: usize,
    y0: usize,
    y1: usize,
    zband: &mut [f32],
    cband: &mut [u8],
) {
    let (a, b, c) = (t.a, t.b, t.c);
    for y in band_rows(t, y0, y1) {
        let py = y as f32 + 0.5;
        let row_base = (y - y0) * w;
        // per-row constants: exactly the per-pixel expression's
        // subexpressions, hoisted (same values, same rounding)
        let e0 = (b.0 - a.0) * (py - a.1);
        let e1 = (c.0 - b.0) * (py - b.1);
        for x in t.min_x..=t.max_x {
            let px = x as f32 + 0.5;
            let w0 = (e0 - (b.1 - a.1) * (px - a.0)) * t.inv_area;
            let w1 = (e1 - (c.1 - b.1) * (px - b.0)) * t.inv_area;
            let w2 = 1.0 - w0 - w1;
            shade_pixel(t, w0, w1, w2, row_base, x, zband, cband);
        }
    }
}

/// The lane fill: each row in blocks of eight pixels, the last block
/// reaching past `max_x`. A block's edge weights are [`F32x8`] lanes, each
/// the scalar fill's operation sequence (the per-row factors are the same
/// scalar subexpressions, broadcast; the pixel centre is exact, see
/// [`LANE_EXACT_WIDTH`]). The inside test is one packed compare per
/// weight, joined as bitmasks; only the set lanes that are
/// pixels of the bbox go through [`shade_pixel`], which every scalar
/// pixel the test admits also goes through, so both fills write the same
/// pixels. Kept out of line so its packed compares stay one symbol that
/// the CI disassembly check can find.
#[inline(never)]
fn fill_band_masked(
    t: &ShadedTri,
    w: usize,
    y0: usize,
    y1: usize,
    zband: &mut [f32],
    cband: &mut [u8],
) {
    use lanes::{F32x8, F32_LANES};
    let (a, b, c) = (t.a, t.b, t.c);
    // an off-screen triangle can have `min_x > max_x + 1`: no pixels
    let span = (t.max_x + 1).saturating_sub(t.min_x);
    let lane = F32x8(std::array::from_fn(|l| l as f32));
    let zero = F32x8::splat(0.0);
    let (ab_y, bc_y) = (F32x8::splat(b.1 - a.1), F32x8::splat(c.1 - b.1));
    let (ax, bx) = (F32x8::splat(a.0), F32x8::splat(b.0));
    let inv_area = F32x8::splat(t.inv_area);
    for y in band_rows(t, y0, y1) {
        let py = y as f32 + 0.5;
        let row_base = (y - y0) * w;
        let e0 = F32x8::splat((b.0 - a.0) * (py - a.1));
        let e1 = F32x8::splat((c.0 - b.0) * (py - b.1));
        for start in (0..span).step_by(F32_LANES) {
            let x = t.min_x + start;
            let px = F32x8::splat(x as f32 + 0.5) + lane;
            let w0 = (e0 - ab_y * (px - ax)) * inv_area;
            let w1 = (e1 - bc_y * (px - bx)) * inv_area;
            let w2 = F32x8::splat(1.0) - w0 - w1;
            // `shade_pixel`'s inside test, lane-wise
            let ge = w0.ge_mask(zero) & w1.ge_mask(zero) & w2.ge_mask(zero);
            // the lanes that are pixels of this row's bbox
            let live = u8::MAX >> (F32_LANES - (span - start).min(F32_LANES));
            let mut inside = ge & live;
            while inside != 0 {
                let l = inside.trailing_zeros() as usize;
                inside &= inside - 1;
                shade_pixel(t, w0.0[l], w1.0[l], w2.0[l], row_base, x + l, zband, cband);
            }
        }
    }
}

/// The rasterizer as it was before the per-frame projector, the band bins,
/// the clipped line walk and the masked lane fill — the executable spec
/// the fast paths are checked against, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    /// Every vertex projected through [`Camera::project`] (the basis and
    /// `tan(fov/2)` recomputed per vertex), every band scanning every
    /// triangle with the scalar fill.
    pub(super) fn draw_mesh_with(
        r: &mut Rasterizer,
        pool: &gridsteer_exec::ExecPool,
        cam: &Camera,
        mesh: &TriMesh,
        base: [u8; 4],
    ) {
        let (w, h) = (r.fb.width(), r.fb.height());
        if w == 0 || h == 0 {
            return;
        }
        let light = r.light;
        let tris: Vec<Option<ShadedTri>> = mesh
            .indices
            .chunks_exact(3)
            .filter_map(|t| {
                let va = mesh.vertices[t[0] as usize];
                let vb = mesh.vertices[t[1] as usize];
                let vc = mesh.vertices[t[2] as usize];
                let (pa, pb, pc) = match (
                    cam.project(va, w, h),
                    cam.project(vb, w, h),
                    cam.project(vc, w, h),
                ) {
                    (Some(a), Some(b), Some(c)) => (a, b, c),
                    _ => return None, // conservative near-plane clip
                };
                let rgba = lambert_rgba([va, vb, vc], light, base);
                Some(prepare(pa, pb, pc, rgba, w, h))
            })
            .collect();
        r.tris_drawn += tris.len();
        // degenerate (zero-area) triangles counted above never fill pixels
        let fillable: Vec<ShadedTri> = tris.into_iter().flatten().collect();
        pool.parallel_chunks2(
            &mut r.zbuf,
            r.fb.bytes_mut(),
            BAND_ROWS * w,
            BAND_ROWS * w * 4,
            |bi, zband, cband| {
                let y0 = bi * BAND_ROWS;
                let y1 = y0 + zband.len() / w;
                for t in &fillable {
                    if t.max_y < y0 || t.min_y >= y1 {
                        continue;
                    }
                    fill_band_scalar(t, w, y0, y1, zband, cband);
                }
            },
        );
    }

    /// A projected triangle with its bbox rounded through `floor`/`ceil`,
    /// or `None` if it is degenerate.
    fn prepare(
        a: (f32, f32, f32),
        b: (f32, f32, f32),
        c: (f32, f32, f32),
        rgba: [u8; 4],
        w: usize,
        h: usize,
    ) -> Option<ShadedTri> {
        let area = (b.0 - a.0) * (c.1 - a.1) - (b.1 - a.1) * (c.0 - a.0);
        (area.abs() >= 1e-9).then(|| ShadedTri {
            min_x: a.0.min(b.0).min(c.0).floor().max(0.0) as usize,
            max_x: (a.0.max(b.0).max(c.0).ceil() as usize).min(w.saturating_sub(1)),
            min_y: a.1.min(b.1).min(c.1).floor().max(0.0) as usize,
            max_y: (a.1.max(b.1).max(c.1).ceil() as usize).min(h.saturating_sub(1)),
            inv_area: 1.0 / area,
            a,
            b,
            c,
            rgba,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mc;

    fn cam() -> Camera {
        Camera::look_at(Vec3::new(0.5, 0.5, -4.0), Vec3::new(0.5, 0.5, 0.5))
    }

    fn nonblack_pixels(fb: &Framebuffer) -> usize {
        fb.bytes()
            .chunks_exact(4)
            .filter(|p| p[0] != 0 || p[1] != 0 || p[2] != 0)
            .count()
    }

    /// `cam` as a value the optimizer cannot see through. With a constant
    /// camera inlined into one side of a comparison, LLVM folds
    /// `tan(fov/2)` at compile time, and the folded value is an ulp off
    /// glibc's `tanf` for 60°: a release build would then compare two
    /// cameras, not two fills.
    fn opaque(cam: &Camera) -> Camera {
        std::hint::black_box(*cam)
    }

    /// Colour bytes and z-buffer bits: everything a draw call leaves.
    fn image(r: &Rasterizer) -> (Vec<u8>, Vec<u32>) {
        let z = r.zbuf.iter().map(|z| z.to_bits()).collect();
        (r.fb.bytes().to_vec(), z)
    }

    /// The fast fill and the reference fill leave the same colour bytes,
    /// z-buffer bits and triangle count, at pool widths 1 and 8, with the
    /// current backend (`GRIDSTEER_SIMD`). Returns the triangles drawn.
    fn assert_fill_matches_reference(
        mesh: &TriMesh,
        cam: &Camera,
        sizes: &[(usize, usize)],
    ) -> usize {
        let cam = &opaque(cam);
        let mut drawn = 0;
        for threads in [1, 8] {
            let pool = gridsteer_exec::shared(threads);
            for &(w, h) in sizes {
                let mut fast = Rasterizer::new(w, h);
                let mut spec = Rasterizer::new(w, h);
                for r in [&mut fast, &mut spec] {
                    r.clear([10, 10, 30, 255]);
                }
                fast.draw_mesh_with(&pool, cam, mesh, [90, 170, 230, 255]);
                reference::draw_mesh_with(&mut spec, &pool, cam, mesh, [90, 170, 230, 255]);
                assert_eq!(fast.tris_drawn, spec.tris_drawn, "{w}x{h} t{threads}");
                assert!(
                    image(&fast) == image(&spec),
                    "{w}x{h} at {threads} threads: the fill left other bytes than the reference"
                );
                drawn = fast.tris_drawn;
            }
        }
        drawn
    }

    #[test]
    fn the_viz_fanout_frame_is_the_reference_frame() {
        // LBM 16³, φ = 0, loopbench's camera (n = 16), its 256² target, and
        // sizes that are not multiples of 8 or of the 32-row band
        let mesh = mc::isosurface_with(
            &gridsteer_exec::global(),
            &crate::fixtures::lbm_phi(16),
            0.0,
        );
        assert_eq!(mesh.tri_count(), 3600);
        let n = 16.0;
        let cam = Camera::look_at(
            Vec3::new(2.2 * n, 1.7 * n, -1.4 * n),
            Vec3::new(0.5 * n, 0.5 * n, 0.5 * n),
        );
        let drawn = assert_fill_matches_reference(&mesh, &cam, &[(256, 256), (100, 75), (33, 1)]);
        assert_eq!(drawn, 3600);
    }

    #[test]
    fn lbm_32c_isosurfaces_are_the_reference_frames_from_three_cameras() {
        let mesh = mc::isosurface_with(
            &gridsteer_exec::global(),
            &crate::fixtures::lbm_phi(32),
            0.0,
        );
        let c = Vec3::new(15.5, 15.5, 15.5);
        let outside = [
            Camera::look_at(Vec3::new(70.0, 54.0, -45.0), c),
            Camera::look_at(Vec3::new(-20.0, 90.0, 10.0), c),
        ];
        for cam in &outside {
            let drawn = assert_fill_matches_reference(&mesh, cam, &[(160, 120), (67, 95)]);
            assert_eq!(drawn, mesh.tri_count(), "nothing is behind this eye");
        }
        // an eye inside the lattice: the triangles around it straddle the
        // near plane and are clipped
        let inside = Camera::look_at(Vec3::new(16.2, 15.7, 14.9), Vec3::new(31.0, 20.0, 9.0));
        let drawn = assert_fill_matches_reference(&mesh, &inside, &[(160, 120)]);
        assert!(
            drawn > 0 && drawn < mesh.tri_count(),
            "{drawn} of {}",
            mesh.tri_count()
        );
    }

    #[test]
    fn the_unit_cube_is_the_reference_frame() {
        let drawn =
            assert_fill_matches_reference(&TriMesh::unit_cube(), &cam(), &[(128, 128), (45, 70)]);
        assert_eq!(drawn, 12);
    }

    #[test]
    fn degenerate_and_off_screen_triangles_fill_like_the_reference() {
        let mut mesh = TriMesh::new();
        let n = Vec3::new(0.0, 0.0, -1.0);
        let v = Vec3::new;
        // zero area: a point, and three collinear vertices
        mesh.push_tri(v(0.5, 0.5, 0.5), v(0.5, 0.5, 0.5), v(0.5, 0.5, 0.5), n);
        mesh.push_tri(v(0.0, 0.0, 0.0), v(0.5, 0.5, 0.0), v(1.0, 1.0, 0.0), n);
        // wholly left of, right of, above and below the frame
        mesh.push_tri(
            v(-40.0, 0.0, 0.0),
            v(-39.0, 1.0, 0.0),
            v(-39.5, 0.0, 0.5),
            n,
        );
        mesh.push_tri(v(40.0, 0.0, 0.0), v(41.0, 1.0, 0.0), v(40.5, 0.0, 0.5), n);
        mesh.push_tri(v(0.0, 40.0, 0.0), v(1.0, 41.0, 0.0), v(0.5, 40.0, 0.5), n);
        mesh.push_tri(
            v(0.0, -40.0, 0.0),
            v(1.0, -41.0, 0.0),
            v(0.5, -40.0, 0.5),
            n,
        );
        // straddling the frame's corner, and one behind the eye
        mesh.push_tri(v(-3.0, -3.0, 0.0), v(0.5, 0.2, 0.0), v(0.1, 0.9, 0.3), n);
        mesh.push_tri(v(0.0, 0.0, -9.0), v(1.0, 0.0, -9.0), v(0.0, 1.0, -9.0), n);
        // a NaN vertex
        mesh.push_tri(v(f32::NAN, 0.0, 0.0), v(1.0, 0.0, 0.0), v(0.0, 1.0, 0.0), n);
        // and one ordinary triangle, so the frame is not empty
        mesh.push_tri(v(0.1, 0.1, 0.5), v(0.9, 0.2, 0.4), v(0.4, 0.9, 0.6), n);
        let drawn = assert_fill_matches_reference(&mesh, &cam(), &[(64, 64), (37, 29), (1, 1)]);
        assert_eq!(drawn, 9, "only the triangle behind the eye is clipped");
    }

    #[test]
    fn bbox_rounding_is_floor_and_ceil() {
        let mut xs = vec![
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            -1.0,
            255.99,
            256.0,
            256.01,
            16_777_215.0,
            16_777_216.0,
            1.0e19,
            1.9e19,
            f32::MAX,
            f32::MIN,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            f32::EPSILON,
            f32::MIN_POSITIVE,
        ];
        xs.extend((-2000..2000).map(|i| i as f32 * 0.37));
        for x in xs {
            assert_eq!(x as usize, x.floor().max(0.0) as usize, "floor of {x}");
            assert_eq!(ceil_px(x), x.ceil() as usize, "ceil of {x}");
        }
    }

    #[test]
    fn bins_hold_what_the_band_scan_would_visit() {
        // every band each triangle's bbox predicate admits, and no other
        let (w, h) = (40, 100);
        for (y0, y1) in [
            (0.2, 3.0),
            (31.0, 32.5),
            (-9.0, 70.0),
            (95.0, 130.0),
            (120.0, 140.0),
        ] {
            let t = ShadedTri::prepare(
                (1.0, y0, 1.0),
                (30.0, y1, 1.0),
                (5.0, y1, 1.0),
                [9; 4],
                w,
                h,
            )
            .unwrap();
            let scanned: Vec<usize> = (0..h.div_ceil(BAND_ROWS))
                .filter(|&bi| {
                    let (b0, b1) = (bi * BAND_ROWS, ((bi + 1) * BAND_ROWS).min(h));
                    !(t.max_y < b0 || t.min_y >= b1)
                })
                .collect();
            assert_eq!(t.bands().collect::<Vec<_>>(), scanned, "rows {y0}..{y1}");
        }
    }

    /// Triangles placed in screen space for the camera at `(0, 0, -10)`
    /// looking at the origin, on a `w × h` frame: small ones of every bbox
    /// width up to 17 px at every column (either winding, depths 2–8, so
    /// they overlap and z-test), ones past the right edge, wholly off
    /// screen to either side, degenerate, and with a NaN vertex.
    fn generated_mesh(w: usize, h: usize, seed: u64) -> TriMesh {
        let mut state = seed;
        // splitmix64, as a uniform f32 in [lo, hi)
        let mut uniform = |lo: f32, hi: f32| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            lo + (hi - lo) * ((z ^ (z >> 31)) >> 40) as f32 / (1u64 << 24) as f32
        };
        let (wf, hf) = (w as f32, h as f32);
        let half_h = (std::f32::consts::FRAC_PI_3 * 0.5).tan();
        let half_w = half_h * wf / hf;
        // the world point the camera projects to pixel (x, y) at depth d
        let at = |x: f32, y: f32, d: f32| {
            Vec3::new(
                (0.5 - x / wf) * 2.0 * d * half_w,
                (0.5 - y / hf) * 2.0 * d * half_h,
                d - 10.0,
            )
        };
        let mut mesh = TriMesh::new();
        let n = Vec3::new(0.0, 0.0, -1.0);
        for k in 0..400 {
            let span = uniform(0.05, 17.0);
            let x0 = match k % 8 {
                // past the right edge, or wholly right or left of the frame
                0 => wf - uniform(0.0, span),
                1 => wf + uniform(1.0, 6.0),
                2 => -span - uniform(0.5, 4.0),
                _ => uniform(-2.0, wf + 2.0),
            };
            let y0 = uniform(-1.0, hf);
            let tall = uniform(0.2, 6.0);
            let mut p = [
                (x0, y0 + uniform(0.0, tall)),
                (x0 + span, y0 + uniform(0.0, tall)),
                (x0 + uniform(0.0, span), y0 + tall),
            ];
            match k % 13 {
                // degenerate: three collinear vertices
                5 => p[2] = ((p[0].0 + p[1].0) * 0.5, (p[0].1 + p[1].1) * 0.5),
                // the other winding
                6 | 9 | 11 => p.swap(1, 2),
                _ => {}
            }
            let mut v = p.map(|(x, y)| at(x, y, uniform(2.0, 8.0)));
            if k % 17 == 3 {
                v[k % 3].x = f32::NAN;
            }
            mesh.push_tri(v[0], v[1], v[2], n);
        }
        mesh
    }

    #[test]
    fn generated_triangles_fill_alike_on_both_backends_and_as_the_reference() {
        use lanes::Backend;
        let cam = opaque(&Camera::look_at(Vec3::new(0.0, 0.0, -10.0), Vec3::ZERO));
        // what the generated scenes hold, to show the edge cases are covered
        let mut spans = [false; 18];
        let (mut at_last_column, mut off_screen, mut degenerate) = (0, 0, 0);
        let sizes = [(61, 23), (64, 40), (9, 9), (17, 70)];
        for (seed, &(w, h)) in sizes.iter().enumerate() {
            let mesh = generated_mesh(w, h, seed as u64);
            let proj = cam.projector(w, h);
            for t in mesh.indices.chunks_exact(3) {
                let [a, b, c] = [0, 1, 2].map(|i| proj.project(mesh.vertices[t[i] as usize]));
                match ShadedTri::prepare(a.unwrap(), b.unwrap(), c.unwrap(), [0; 4], w, h) {
                    None => degenerate += 1,
                    Some(t) if t.min_x > t.max_x => off_screen += 1,
                    Some(t) => {
                        spans[(t.max_x + 1 - t.min_x).min(17)] = true;
                        at_last_column += usize::from(t.max_x == w - 1);
                    }
                }
            }
            for threads in [1, 8] {
                let pool = gridsteer_exec::shared(threads);
                let mut images = Vec::new();
                for backend in [Backend::Scalar, Backend::Simd] {
                    let mut r = Rasterizer::new(w, h);
                    r.clear([10, 10, 30, 255]);
                    r.draw_mesh_on(&pool, &cam, &mesh, [90, 170, 230, 255], backend);
                    images.push((image(&r), r.tris_drawn));
                }
                let mut spec = Rasterizer::new(w, h);
                spec.clear([10, 10, 30, 255]);
                reference::draw_mesh_with(&mut spec, &pool, &cam, &mesh, [90, 170, 230, 255]);
                let filled = spec.zbuf.iter().filter(|z| z.is_finite()).count();
                assert!(filled > w, "{w}x{h}: the scene fills {filled} pixels");
                for ((img, drawn), backend) in images.iter().zip(["scalar", "lane"]) {
                    assert_eq!(*drawn, spec.tris_drawn, "{w}x{h} t{threads} {backend}");
                    assert!(
                        *img == image(&spec),
                        "{w}x{h} at {threads} threads: the {backend} fill left other bytes than the reference"
                    );
                }
            }
        }
        assert!(
            spans[1..].iter().all(|&seen| seen),
            "every bbox width of 1..=17 px: {spans:?}"
        );
        assert!(at_last_column > 0 && off_screen > 0 && degenerate > 0);
    }

    #[test]
    fn scalar_and_simd_triangle_fills_are_bit_identical() {
        // Same triangle, both fill backends, odd width so lane blocks AND
        // the scalar tail both run: z-band bits and pixels must match.
        let w = 61usize;
        let h = 40usize;
        let tris = [
            ShadedTri::prepare(
                (3.2, 2.1, 0.3),
                (57.9, 8.7, 0.9),
                (20.4, 37.5, 0.1),
                [200, 90, 40, 255],
                w,
                h,
            )
            .unwrap(),
            ShadedTri::prepare(
                (50.0, 35.0, 0.2),
                (5.5, 30.1, 0.8),
                (33.3, 1.1, 0.5),
                [10, 220, 120, 255],
                w,
                h,
            )
            .unwrap(),
        ];
        let mut out: Vec<(Vec<f32>, Vec<u8>)> = Vec::new();
        for simd in [false, true] {
            let mut zband = vec![f32::INFINITY; w * h];
            let mut cband = vec![0u8; w * h * 4];
            for t in &tris {
                fill_triangle_band(t, w, 0, h, &mut zband, &mut cband, simd);
            }
            out.push((zband, cband));
        }
        let zb: Vec<u32> = out[0].0.iter().map(|z| z.to_bits()).collect();
        let zs: Vec<u32> = out[1].0.iter().map(|z| z.to_bits()).collect();
        assert_eq!(zb, zs, "z-buffer bits diverged between backends");
        assert_eq!(out[0].1, out[1].1, "pixel bytes diverged between backends");
    }

    #[test]
    fn cube_renders_some_pixels() {
        let mut r = Rasterizer::new(128, 128);
        r.clear([0, 0, 0, 255]);
        r.draw_mesh(&cam(), &TriMesh::unit_cube(), [200, 100, 50, 255]);
        assert!(r.tris_drawn > 0);
        assert!(nonblack_pixels(r.framebuffer()) > 500);
    }

    /// A square facing the camera, `[-0.5, 0.5]²` at depth `z`.
    fn square_at(z: f32) -> TriMesh {
        let v = |x, y| Vec3::new(x, y, z);
        let n = Vec3::new(0.0, 0.0, -1.0);
        let mut m = TriMesh::new();
        m.push_tri(v(-0.5, -0.5), v(0.5, -0.5), v(0.5, 0.5), n);
        m.push_tri(v(-0.5, -0.5), v(0.5, 0.5), v(-0.5, 0.5), n);
        m
    }

    #[test]
    fn nearer_geometry_occludes() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        // far red square then near green square over the same pixels
        r.draw_mesh(&c, &square_at(1.0), [255, 0, 0, 255]);
        r.draw_mesh(&c, &square_at(-1.0), [0, 255, 0, 255]);
        let [red, green, ..] = r.framebuffer().get(32, 32);
        assert!(green > 0 && red == 0, "{red} {green}");
    }

    #[test]
    fn far_geometry_does_not_overwrite_near() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        r.draw_mesh(&c, &square_at(-1.0), [0, 255, 0, 255]);
        r.draw_mesh(&c, &square_at(1.0), [255, 0, 0, 255]);
        let [red, green, ..] = r.framebuffer().get(32, 32);
        assert!(green > 0 && red == 0, "{red} {green}");
    }

    #[test]
    fn clear_resets_everything() {
        let mut r = Rasterizer::new(32, 32);
        r.draw_mesh(&cam(), &TriMesh::unit_cube(), [255, 255, 255, 255]);
        r.clear([0, 0, 0, 255]);
        assert_eq!(nonblack_pixels(r.framebuffer()), 0);
        assert_eq!(r.tris_drawn, 0);
    }

    #[test]
    fn behind_camera_mesh_is_skipped() {
        let mut r = Rasterizer::new(32, 32);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, 5.0), Vec3::new(0.0, 0.0, 10.0));
        // cube at origin is behind this camera
        r.draw_mesh(&c, &TriMesh::unit_cube(), [255, 0, 0, 255]);
        assert_eq!(nonblack_pixels(r.framebuffer()), 0);
    }
}
