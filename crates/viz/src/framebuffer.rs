//! RGBA framebuffer.
//!
//! The end of every rendering pipeline in the paper: VizServer ships
//! framebuffer contents as compressed bitmaps (§2.4), the vtkNetwork render
//! class "streams updates to its framebuffer to a multicast address" (§2.4),
//! and vnc shares a desktop framebuffer (§1). Pixels are `[r,g,b,a]` bytes,
//! row-major.

/// A fixed-size RGBA8 framebuffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Framebuffer {
    width: usize,
    height: usize,
    /// RGBA bytes, row-major, 4 bytes per pixel.
    pixels: Vec<u8>,
}

impl Framebuffer {
    /// A black, opaque framebuffer.
    pub fn new(width: usize, height: usize) -> Self {
        Framebuffer::from_pixels(width, height, [0, 0, 0, 255].repeat(width * height))
    }

    /// Wrap `width × height` RGBA bytes, row-major.
    pub(crate) fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        debug_assert_eq!(pixels.len(), width * height * 4);
        Framebuffer {
            width,
            height,
            pixels,
        }
    }

    /// Width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw RGBA bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.pixels
    }

    /// Mutable raw RGBA bytes.
    pub fn bytes_mut(&mut self) -> &mut [u8] {
        &mut self.pixels
    }

    /// Uncompressed size in bytes (the baseline for codec ratios).
    pub fn byte_size(&self) -> usize {
        self.pixels.len()
    }

    /// Fill with a constant colour.
    pub fn clear(&mut self, rgba: [u8; 4]) {
        for p in self.pixels.chunks_exact_mut(4) {
            p.copy_from_slice(&rgba);
        }
    }

    /// Pixel at `(x, y)`; panics out of range.
    pub fn get(&self, x: usize, y: usize) -> [u8; 4] {
        let i = (y * self.width + x) * 4;
        [
            self.pixels[i],
            self.pixels[i + 1],
            self.pixels[i + 2],
            self.pixels[i + 3],
        ]
    }

    /// Set pixel at `(x, y)`; silently ignores out-of-range (clip).
    pub fn set(&mut self, x: usize, y: usize, rgba: [u8; 4]) {
        if x >= self.width || y >= self.height {
            return;
        }
        let i = (y * self.width + x) * 4;
        self.pixels[i..i + 4].copy_from_slice(&rgba);
    }

    /// Serialize as a binary PPM (P6) image — the portable dump format used
    /// by the examples to let a human inspect rendered frames.
    pub fn to_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        out.reserve(self.width * self.height * 3);
        for p in self.pixels.chunks_exact(4) {
            out.extend_from_slice(&p[..3]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_black_opaque() {
        let fb = Framebuffer::new(4, 3);
        assert_eq!(fb.get(0, 0), [0, 0, 0, 255]);
        assert_eq!(fb.byte_size(), 4 * 3 * 4);
    }

    #[test]
    fn set_get_roundtrip() {
        let mut fb = Framebuffer::new(8, 8);
        fb.set(3, 5, [10, 20, 30, 40]);
        assert_eq!(fb.get(3, 5), [10, 20, 30, 40]);
    }

    #[test]
    fn set_clips_out_of_range() {
        let mut fb = Framebuffer::new(2, 2);
        fb.set(5, 5, [255; 4]); // must not panic
        assert_eq!(fb.get(1, 1), [0, 0, 0, 255]);
    }

    #[test]
    fn clear_fills() {
        let mut fb = Framebuffer::new(2, 2);
        fb.clear([1, 2, 3, 4]);
        for y in 0..2 {
            for x in 0..2 {
                assert_eq!(fb.get(x, y), [1, 2, 3, 4]);
            }
        }
    }

    #[test]
    fn ppm_header_and_size() {
        let fb = Framebuffer::new(3, 2);
        let ppm = fb.to_ppm();
        assert!(ppm.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(ppm.len(), 11 + 3 * 2 * 3);
    }
}
