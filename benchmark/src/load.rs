//! The seeded load generator: everything a run draws from `--seed`.
//!
//! The program under test never sees the seed, only what is generated from
//! it here: the backend's initial-condition seed, each link's jitter/loss
//! and fault stream seeds, and the sequence of steered values. The three
//! streams are independent, so adding a viewer does not shift the steer
//! sequence.

/// SplitMix64 — the same tiny generator family netsim's links use.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A steerable parameter and the band its generated values fall in (inside
/// the registry's bounds, so no steer is refused).
#[derive(Debug, Clone, Copy)]
pub struct SteerRange {
    pub param: &'static str,
    pub lo: f64,
    pub hi: f64,
}

/// One run's generated inputs.
#[derive(Debug, Clone)]
pub struct Load {
    /// Seed handed to the backend's config (initial conditions).
    pub backend_seed: u64,
    links: SplitMix64,
    steer: SplitMix64,
    /// Commands generated so far (picks the next parameter round-robin).
    steer_count: u64,
}

impl Load {
    pub fn new(seed: u64) -> Load {
        let mut root = SplitMix64::new(seed);
        Load {
            backend_seed: root.next_u64(),
            links: SplitMix64::new(root.next_u64()),
            steer: SplitMix64::new(root.next_u64()),
            steer_count: 0,
        }
    }

    /// `(base link seed, fault stream seed)` for the next link, in the
    /// fixed order the world builds its links.
    pub fn link_seeds(&mut self) -> (u64, u64) {
        (self.links.next_u64(), self.links.next_u64())
    }

    /// The next steer command: parameters round-robin over `ranges`, the
    /// value uniform in the parameter's band.
    pub fn next_steer(&mut self, ranges: &[SteerRange]) -> (&'static str, f64) {
        let r = ranges[(self.steer_count % ranges.len() as u64) as usize];
        self.steer_count += 1;
        (r.param, r.lo + (r.hi - r.lo) * self.steer.unit())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RANGES: [SteerRange; 2] = [
        SteerRange {
            param: "a",
            lo: 0.25,
            hi: 0.75,
        },
        SteerRange {
            param: "b",
            lo: -1.0,
            hi: 1.0,
        },
    ];

    /// `(backend seed, link seeds, steers as (parameter, value bits))`
    type Drawn = (u64, Vec<(u64, u64)>, Vec<(&'static str, u64)>);

    fn draw(seed: u64) -> Drawn {
        let mut load = Load::new(seed);
        let links = (0..4).map(|_| load.link_seeds()).collect();
        let steers = (0..64)
            .map(|_| {
                let (p, v) = load.next_steer(&RANGES);
                (p, v.to_bits())
            })
            .collect();
        (load.backend_seed, links, steers)
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(draw(2003), draw(2003));
    }

    #[test]
    fn different_seed_different_inputs() {
        let (a, b) = (draw(2003), draw(2004));
        assert_ne!(a.0, b.0, "backend seed");
        assert_ne!(a.1, b.1, "link seeds");
        assert_ne!(a.2, b.2, "steer sequence");
    }

    #[test]
    fn steers_cycle_parameters_and_stay_in_band() {
        let mut load = Load::new(7);
        for i in 0..100 {
            let (p, v) = load.next_steer(&RANGES);
            let r = RANGES[i % 2];
            assert_eq!(p, r.param);
            assert!(v >= r.lo && v < r.hi, "{p} = {v}");
        }
    }

    #[test]
    fn link_draws_do_not_shift_the_steer_stream() {
        let mut a = Load::new(11);
        let mut b = Load::new(11);
        for _ in 0..9 {
            b.link_seeds();
        }
        assert_eq!(a.next_steer(&RANGES), b.next_steer(&RANGES));
    }
}
