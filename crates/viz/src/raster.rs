//! Z-buffered software rasterizer.
//!
//! Stands in for the SGI Onyx graphics pipes: renders triangle meshes
//! (isosurfaces, domain boxes), points and lines (particle glyphs, velocity
//! vectors) into a [`Framebuffer`] with flat Lambert shading. Per-frame cost
//! is real CPU work, which is exactly what the remote-vs-local rendering
//! experiment (E42) needs: a render time that scales with scene complexity.
//!
//! A mesh frame costs the triangles it draws. The camera's basis,
//! `tan(fov/2)` and aspect are computed once per frame
//! ([`Camera::projector`]), not once per vertex; each triangle is then
//! projected, shaded and bounded once, and binned once, in mesh order,
//! into the fixed 32-row bands it overlaps, so a band fills only its own
//! triangles instead of testing every triangle of the mesh. Isosurface
//! triangles are small (1.4 px of area in a 17 px box on `viz_fanout`'s
//! frame), so this per-triangle overhead, not pixel work, is what a frame
//! is made of. A line likewise steps only through the part of its
//! projection that can land on the framebuffer.

use crate::camera::Camera;
use crate::framebuffer::Framebuffer;
use crate::mesh::TriMesh;
use crate::Vec3;
use std::ops::RangeInclusive;

/// Rasterizer state: framebuffer + z-buffer + light direction.
pub struct Rasterizer {
    fb: Framebuffer,
    zbuf: Vec<f32>,
    /// Directional light (towards the scene), normalized on set.
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

    /// Set the directional light.
    pub fn set_light(&mut self, dir: Vec3) {
        self.light = dir.normalized();
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

    fn put(&mut self, x: usize, y: usize, z: f32, rgba: [u8; 4]) {
        let w = self.fb.width();
        if x >= w || y >= self.fb.height() {
            return;
        }
        let i = y * w + x;
        if z < self.zbuf[i] {
            self.zbuf[i] = z;
            self.fb.set(x, y, rgba);
        }
    }

    /// Draw a world-space point as a small square splat.
    pub fn draw_point(&mut self, cam: &Camera, p: Vec3, size: usize, rgba: [u8; 4]) {
        if let Some((px, py, z)) = cam.project(p, self.fb.width(), self.fb.height()) {
            let half = (size / 2) as isize;
            for dy in -half..=half {
                for dx in -half..=half {
                    let x = px as isize + dx;
                    let y = py as isize + dy;
                    if x >= 0 && y >= 0 {
                        self.put(x as usize, y as usize, z, rgba);
                    }
                }
            }
        }
    }

    /// Draw a world-space line with DDA stepping: `steps + 1` samples one
    /// pixel apart along the projected segment's longer axis. Only the
    /// steps whose sample can land on the framebuffer are taken, widened by
    /// one step each side (each sample is still bounds-checked), so an
    /// off-screen stretch costs nothing however long it is; the samples
    /// taken are exactly the ones the full walk would write.
    pub fn draw_line(&mut self, cam: &Camera, a: Vec3, b: Vec3, rgba: [u8; 4]) {
        let (w, h) = (self.fb.width(), self.fb.height());
        let proj = cam.projector(w, h);
        let (pa, pb) = match (proj.project(a), proj.project(b)) {
            (Some(a), Some(b)) => (a, b),
            _ => return, // conservative clip: skip lines crossing the near plane
        };
        let dx = pb.0 - pa.0;
        let dy = pb.1 - pa.1;
        let steps = dx.abs().max(dy.abs()).ceil().max(1.0) as usize;
        let t = |i: usize| i as f32 / steps as f32;
        let x = |i| pa.0 + dx * t(i);
        let y = |i| pa.1 + dy * t(i);
        let (Some(xs), Some(ys)) = (on_screen(steps, dx, w, x), on_screen(steps, dy, h, y)) else {
            return;
        };
        let first = (*xs.start()).max(*ys.start()).saturating_sub(1);
        let last = (*xs.end()).min(*ys.end()).saturating_add(1).min(steps);
        for i in first..=last {
            let (x, y) = (x(i), y(i));
            let z = pa.2 + (pb.2 - pa.2) * t(i);
            if x >= 0.0 && y >= 0.0 {
                self.put(x as usize, y as usize, z, rgba);
            }
        }
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
        let simd = lanes::simd_enabled();
        pool.parallel_chunks2(
            &mut self.zbuf,
            self.fb.bytes_mut(),
            BAND_ROWS * w,
            BAND_ROWS * w * 4,
            |bi, zband, cband| {
                let y0 = bi * BAND_ROWS;
                let y1 = y0 + zband.len() / w;
                for t in &bins[bi] {
                    fill_triangle_band(t, w, y0, y1, zband, cband, simd);
                }
            },
        );
    }
}

/// The steps `i ∈ 0..=steps` whose coordinate `c(i)` lands in `[0, n)` as
/// [`Rasterizer::draw_line`]'s walk reads it (`c >= 0.0`, then
/// `(c as usize) < n`), or `None` if there are none. `c(i)` is
/// `a + d * (i / steps)` in `f32`, and every one of those roundings is
/// monotone, so `c` is non-decreasing in `i` when `d >= 0` and
/// non-increasing when `d < 0`: the range is found by bisection on the
/// expression the walk evaluates, not by solving for it in exact
/// arithmetic. A NaN `d` (a NaN endpoint) reaches no pixel.
fn on_screen(
    steps: usize,
    d: f32,
    n: usize,
    c: impl Fn(usize) -> f32,
) -> Option<RangeInclusive<usize>> {
    let before = |i| {
        let v = c(i);
        v < 0.0 || v.is_nan()
    };
    let past = |i| {
        let v = c(i);
        v >= 0.0 && v as usize >= n
    };
    let (start, end) = if d >= 0.0 {
        (first(steps, |i| !before(i))?, first(steps, past))
    } else if d < 0.0 {
        (first(steps, |i| !past(i))?, first(steps, before))
    } else {
        return None;
    };
    // `end` is the first step after the range; none means it runs to the end
    match end {
        None => Some(start..=steps),
        Some(end) if end > start => Some(start..=end - 1),
        Some(_) => None,
    }
}

/// The first `i ∈ 0..=steps` at which `p` holds, for a `p` that is false
/// then true along `0..=steps`; `None` if it never holds.
fn first(steps: usize, p: impl Fn(usize) -> bool) -> Option<usize> {
    if !p(steps) {
        return None;
    }
    let (mut lo, mut hi) = (0, steps);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if p(mid) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo)
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
    // inside test tolerant of either winding; non-short-circuit, so the
    // six comparisons are one branch instead of a mispredicted chain
    let inside =
        ((w0 >= 0.0) & (w1 >= 0.0) & (w2 >= 0.0)) | ((w0 <= 0.0) & (w1 <= 0.0) & (w2 <= 0.0));
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

/// Barycentric triangle fill with z interpolation, restricted to the
/// framebuffer rows `[y0, y1)` held by `zband`/`cband`. The arithmetic is
/// identical for every band split, so banded and whole-frame fills produce
/// the same pixels.
///
/// With `simd` set, the row's edge functions are evaluated eight pixels
/// per step in [`lanes::F32x8`] lanes; each lane performs exactly the
/// scalar expression's operation sequence (the per-row factors are the
/// same scalar subexpressions, broadcast), and the per-pixel tail is the
/// shared [`shade_pixel`] — so scalar and SIMD fills are bit-identical.
fn fill_triangle_band(
    t: &ShadedTri,
    w: usize,
    y0: usize,
    y1: usize,
    zband: &mut [f32],
    cband: &mut [u8],
    simd: bool,
) {
    use lanes::F32x8;
    let (a, b, c) = (t.a, t.b, t.c);
    let (min_x, max_x, min_y, max_y) = (t.min_x, t.max_x, t.min_y, t.max_y);
    let inv_area = t.inv_area;
    for y in min_y.max(y0)..=max_y.min(y1.saturating_sub(1)) {
        let py = y as f32 + 0.5;
        let row_base = (y - y0) * w;
        // per-row constants: exactly the scalar expression's
        // subexpressions, hoisted (same values, same rounding)
        let e0 = (b.0 - a.0) * (py - a.1);
        let e1 = (c.0 - b.0) * (py - b.1);
        let mut x = min_x;
        if simd {
            while x + lanes::F32_LANES <= max_x + 1 {
                let px = F32x8(std::array::from_fn(|l| (x + l) as f32 + 0.5));
                let w0 = (F32x8::splat(e0) - F32x8::splat(b.1 - a.1) * (px - F32x8::splat(a.0)))
                    * F32x8::splat(inv_area);
                let w1 = (F32x8::splat(e1) - F32x8::splat(c.1 - b.1) * (px - F32x8::splat(b.0)))
                    * F32x8::splat(inv_area);
                let w2 = F32x8::splat(1.0) - w0 - w1;
                for l in 0..lanes::F32_LANES {
                    shade_pixel(t, w0.0[l], w1.0[l], w2.0[l], row_base, x + l, zband, cband);
                }
                x += lanes::F32_LANES;
            }
        }
        for x in x..=max_x {
            let px = x as f32 + 0.5;
            let w0 = (e0 - (b.1 - a.1) * (px - a.0)) * inv_area;
            let w1 = (e1 - (c.1 - b.1) * (px - b.0)) * inv_area;
            let w2 = 1.0 - w0 - w1;
            shade_pixel(t, w0, w1, w2, row_base, x, zband, cband);
        }
    }
}

/// The rasterizer as it was before the per-frame projector, the band bins
/// and the clipped line walk — the executable spec the fast paths are
/// checked against, bit for bit.
#[cfg(test)]
mod reference {
    use super::*;

    /// Every vertex projected through [`Camera::project`] (the basis and
    /// `tan(fov/2)` recomputed per vertex), every band scanning every
    /// triangle.
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
        let simd = lanes::simd_enabled();
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
                    fill_triangle_band(t, w, y0, y1, zband, cband, simd);
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

    /// One DDA step per projected pixel of the whole segment, on screen or
    /// not.
    pub(super) fn draw_line(r: &mut Rasterizer, cam: &Camera, a: Vec3, b: Vec3, rgba: [u8; 4]) {
        let (w, h) = (r.fb.width(), r.fb.height());
        let (pa, pb) = match (cam.project(a, w, h), cam.project(b, w, h)) {
            (Some(a), Some(b)) => (a, b),
            _ => return,
        };
        let dx = pb.0 - pa.0;
        let dy = pb.1 - pa.1;
        let steps = dx.abs().max(dy.abs()).ceil().max(1.0) as usize;
        for i in 0..=steps {
            let t = i as f32 / steps as f32;
            let x = pa.0 + dx * t;
            let y = pa.1 + dy * t;
            let z = pa.2 + (pb.2 - pa.2) * t;
            if x >= 0.0 && y >= 0.0 {
                r.put(x as usize, y as usize, z, rgba);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mc, Field3};

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

    /// φ of the two-fluid LBM (`lbm::LbmConfig` with `nx = ny = nz = n`,
    /// `seed: 2003`, everything else default), stepped 400 times at
    /// miscibility 0 — `viz_fanout`'s preroll — as raw little-endian f32 in
    /// `order_parameter_into`'s x-fastest order. The 16³ file is the field
    /// behind the gate's `raster_16c_3600t` cell (`gridsteer_bench`'s
    /// `gate` tests check that digest against it).
    fn lbm_phi(n: usize) -> Field3 {
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
        let mesh = mc::isosurface(&lbm_phi(16), 0.0);
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
        let mesh = mc::isosurface(&lbm_phi(32), 0.0);
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

    /// Pixels and z bits after one `draw_line`, the fast walk and the
    /// reference walk.
    fn line_images(cam: &Camera, a: Vec3, b: Vec3) -> [(Vec<u8>, Vec<u32>); 2] {
        let cam = &opaque(cam);
        let mut fast = Rasterizer::new(64, 64);
        let mut spec = Rasterizer::new(64, 64);
        fast.draw_line(cam, a, b, [255, 255, 255, 255]);
        reference::draw_line(&mut spec, cam, a, b, [255, 255, 255, 255]);
        [image(&fast), image(&spec)]
    }

    #[test]
    fn a_clipped_line_walk_writes_the_full_walks_pixels() {
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        let v = Vec3::new;
        let segments = [
            // on screen, and crossing one, two and four edges
            (v(-0.5, -0.3, 0.0), v(0.4, 0.6, 1.0)),
            (v(0.0, 0.0, 0.0), v(30.0, 1.0, 0.0)),
            (v(-30.0, 2.0, 0.0), v(30.0, -1.0, 2.0)),
            (v(-30.0, -29.0, 0.0), v(31.0, 28.0, -1.0)),
            (v(0.5, -40.0, 0.0), v(-0.2, 40.0, 0.0)),
            // the issue's segment at k = 3
            (v(0.0, 0.0, 0.0), v(1.0e3, 0.0, -4.98)),
            // wholly off screen, on each side, and diagonally past a corner
            (v(-50.0, 0.0, 0.0), v(-40.0, 5.0, 0.0)),
            (v(40.0, -3.0, 0.0), v(60.0, 3.0, 0.0)),
            (v(0.0, 40.0, 0.0), v(2.0, 90.0, 0.0)),
            (v(-60.0, 10.0, 0.0), v(-10.0, 60.0, 0.0)),
            // zero length, on and off screen; NaN endpoints
            (v(0.2, 0.1, 0.0), v(0.2, 0.1, 0.0)),
            (v(50.0, 50.0, 0.0), v(50.0, 50.0, 0.0)),
            (v(f32::NAN, 0.0, 0.0), v(1.0, 0.0, 0.0)),
            (v(0.0, 0.0, 0.0), v(f32::NAN, f32::NAN, 0.0)),
            // crossing the near plane: skipped by both
            (v(0.0, 0.0, 0.0), v(0.0, 0.0, -10.0)),
        ];
        for (a, b) in segments {
            let [fast, spec] = line_images(&c, a, b);
            assert!(fast == spec, "segment {a:?} → {b:?}");
        }
    }

    #[test]
    fn a_line_ten_million_pixels_long_draws_only_its_on_screen_pixels() {
        // 10⁷ projected pixels: the full walk takes ~40 s in release
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        let mut r = Rasterizer::new(64, 64);
        r.draw_line(&c, Vec3::ZERO, Vec3::new(1.0e7, 0.0, -4.98), [255; 4]);
        let lit = nonblack_pixels(r.framebuffer());
        assert!((16..=64).contains(&lit), "{lit} pixels lit");
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

    #[test]
    fn nearer_geometry_occludes() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        // far red point then near green point at same screen location
        r.draw_point(&c, Vec3::new(0.0, 0.0, 1.0), 3, [255, 0, 0, 255]);
        r.draw_point(&c, Vec3::new(0.0, 0.0, -1.0), 3, [0, 255, 0, 255]);
        let center = r.framebuffer().get(32, 32);
        assert_eq!(center, [0, 255, 0, 255]);
    }

    #[test]
    fn far_geometry_does_not_overwrite_near() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        r.draw_point(&c, Vec3::new(0.0, 0.0, -1.0), 3, [0, 255, 0, 255]);
        r.draw_point(&c, Vec3::new(0.0, 0.0, 1.0), 3, [255, 0, 0, 255]);
        assert_eq!(r.framebuffer().get(32, 32), [0, 255, 0, 255]);
    }

    #[test]
    fn line_draws_continuous_pixels() {
        let mut r = Rasterizer::new(64, 64);
        r.clear([0, 0, 0, 255]);
        let c = Camera::look_at(Vec3::new(0.0, 0.0, -5.0), Vec3::ZERO);
        r.draw_line(
            &c,
            Vec3::new(-1.0, 0.0, 0.0),
            Vec3::new(1.0, 0.0, 0.0),
            [255, 255, 255, 255],
        );
        assert!(nonblack_pixels(r.framebuffer()) > 10);
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
