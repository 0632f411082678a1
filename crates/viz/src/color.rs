//! Transfer-function colormaps.
//!
//! Mapping scalar data to colour is the COVISE `Colors` module's job.

/// A colormap from `[0,1]` to RGBA.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ColorMap {
    /// Blue → cyan → green → yellow → red (the classic "rainbow").
    Rainbow,
    /// Black → white.
    Grayscale,
    /// Blue → white → red, for signed fields like the LB order parameter.
    CoolWarm,
}

impl ColorMap {
    /// Map `t ∈ \[0,1\]` (clamped) to RGBA.
    pub fn map(self, t: f32) -> [u8; 4] {
        let t = t.clamp(0.0, 1.0);
        let (r, g, b) = match self {
            ColorMap::Grayscale => (t, t, t),
            ColorMap::Rainbow => {
                // piecewise-linear rainbow over 4 segments
                let s = t * 4.0;
                match s as u32 {
                    0 => (0.0, s, 1.0),
                    1 => (0.0, 1.0, 1.0 - (s - 1.0)),
                    2 => (s - 2.0, 1.0, 0.0),
                    _ => (1.0, (4.0 - s).max(0.0), 0.0),
                }
            }
            ColorMap::CoolWarm => {
                if t < 0.5 {
                    let u = t * 2.0;
                    (u, u, 1.0)
                } else {
                    let u = (t - 0.5) * 2.0;
                    (1.0, 1.0 - u, 1.0 - u)
                }
            }
        };
        [
            (r * 255.0).round() as u8,
            (g * 255.0).round() as u8,
            (b * 255.0).round() as u8,
            255,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn endpoints() {
        assert_eq!(ColorMap::Grayscale.map(0.0), [0, 0, 0, 255]);
        assert_eq!(ColorMap::Grayscale.map(1.0), [255, 255, 255, 255]);
        assert_eq!(ColorMap::Rainbow.map(0.0), [0, 0, 255, 255]);
        assert_eq!(ColorMap::Rainbow.map(1.0), [255, 0, 0, 255]);
        assert_eq!(ColorMap::CoolWarm.map(0.0), [0, 0, 255, 255]);
        assert_eq!(ColorMap::CoolWarm.map(1.0), [255, 0, 0, 255]);
    }

    #[test]
    fn clamps_out_of_range() {
        assert_eq!(ColorMap::Rainbow.map(-3.0), ColorMap::Rainbow.map(0.0));
        assert_eq!(ColorMap::Rainbow.map(7.0), ColorMap::Rainbow.map(1.0));
    }

    #[test]
    fn coolwarm_midpoint_is_white() {
        assert_eq!(ColorMap::CoolWarm.map(0.5), [255, 255, 255, 255]);
    }
}
