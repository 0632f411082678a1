//! The D3Q19 velocity set.
//!
//! Nineteen discrete velocities: the rest vector, six axis neighbours and
//! twelve edge diagonals, with the standard lattice weights (1/3, 1/18,
//! 1/36) and sound speed c_s² = 1/3.

use lanes::{F64x4, F64x8};
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of discrete velocities.
pub const Q: usize = 19;

/// Lattice sound speed squared: the isotropy reference the tests check
/// the velocity set against.
#[cfg(test)]
const CS2: f64 = 1.0 / 3.0;

/// x-components of the velocity set.
pub const CX: [i32; Q] = [0, 1, -1, 0, 0, 0, 0, 1, -1, 1, -1, 1, -1, 1, -1, 0, 0, 0, 0];
/// y-components of the velocity set.
pub const CY: [i32; Q] = [0, 0, 0, 1, -1, 0, 0, 1, -1, -1, 1, 0, 0, 0, 0, 1, -1, 1, -1];
/// z-components of the velocity set.
pub const CZ: [i32; Q] = [0, 0, 0, 0, 0, 1, -1, 0, 0, 0, 0, 1, -1, -1, 1, 1, -1, -1, 1];

/// Quadrature weights.
pub const WEIGHTS: [f64; Q] = [
    1.0 / 3.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 18.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
    1.0 / 36.0,
];

/// Index of the opposite velocity (−c_i), used for bounce-back and tests.
pub const OPPOSITE: [usize; Q] = {
    let mut opp = [0usize; Q];
    let mut i = 0;
    while i < Q {
        let mut j = 0;
        while j < Q {
            if CX[i] == -CX[j] && CY[i] == -CY[j] && CZ[i] == -CZ[j] {
                opp[i] = j;
            }
            j += 1;
        }
        i += 1;
    }
    opp
};

/// The element type the solver's kernels are written over: one lattice
/// node (`f64`, the scalar reference backend) or `LANES` consecutive ones
/// ([`F64x4`], [`F64x8`], one node per lane). A kernel generic over `Lane`
/// is *one* floating-point operation sequence instantiated at each width —
/// same association, no FMA — so the backends agree bit for bit by
/// construction, node for node.
pub(crate) trait Lane:
    Copy
    + Default
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + AddAssign
    + SubAssign
{
    /// Nodes per value.
    const LANES: usize;
    /// Every lane set to `v`.
    fn splat(v: f64) -> Self;
    /// One element per lane, from `s[at..]`.
    fn load(s: &[f64], at: usize) -> Self;
    /// Write one element per lane to `s[at..]`.
    fn store(self, s: &mut [f64], at: usize);
    /// Per-lane IEEE `max`.
    fn max(self, other: Self) -> Self;
}

impl Lane for f64 {
    const LANES: usize = 1;
    #[inline(always)]
    fn splat(v: f64) -> f64 {
        v
    }
    #[inline(always)]
    fn load(s: &[f64], at: usize) -> f64 {
        s[at]
    }
    #[inline(always)]
    fn store(self, s: &mut [f64], at: usize) {
        s[at] = self;
    }
    #[inline(always)]
    fn max(self, other: f64) -> f64 {
        f64::max(self, other)
    }
}

macro_rules! lane_impl {
    ($t:ident) => {
        impl Lane for $t {
            const LANES: usize = $t::LANES;
            #[inline(always)]
            fn splat(v: f64) -> $t {
                $t::splat(v)
            }
            #[inline(always)]
            fn load(s: &[f64], at: usize) -> $t {
                $t::from_slice(&s[at..])
            }
            #[inline(always)]
            fn store(self, s: &mut [f64], at: usize) {
                self.write_to(&mut s[at..]);
            }
            #[inline(always)]
            fn max(self, other: $t) -> $t {
                $t::max(self, other)
            }
        }
    };
}

lane_impl!(F64x4);
lane_impl!(F64x8);

/// The direction-independent term `1.5·(u·u)` of the equilibrium, which
/// the collide kernel computes once per node and component.
#[inline(always)]
pub(crate) fn uu15<T: Lane>(u: [T; 3]) -> T {
    T::splat(1.5) * (u[0] * u[0] + u[1] * u[1] + u[2] * u[2])
}

/// The one definition of the second-order equilibrium, over either lane
/// width, with [`uu15`] supplied by the caller.
#[inline(always)]
pub(crate) fn equilibrium_lane<T: Lane>(i: usize, rho: T, u: [T; 3], uu15: T) -> T {
    let cu = T::splat(CX[i] as f64) * u[0]
        + T::splat(CY[i] as f64) * u[1]
        + T::splat(CZ[i] as f64) * u[2];
    T::splat(WEIGHTS[i])
        * rho
        * (T::splat(1.0) + T::splat(3.0) * cu + T::splat(4.5) * cu * cu - uu15)
}

/// Discrete equilibrium distribution for direction `i` at density `rho`
/// and velocity `u` (second-order expansion): the scalar reference the
/// lane kernels are tested against.
#[cfg(test)]
fn equilibrium(i: usize, rho: f64, ux: f64, uy: f64, uz: f64) -> f64 {
    equilibrium_lane(i, rho, [ux, uy, uz], uu15([ux, uy, uz]))
}

/// Four-lane [`equilibrium`]: one lane per lattice node, every lane
/// performing *exactly* the scalar expression's operation sequence (same
/// association, no FMA), so a lane-blocked kernel is bit-identical to the
/// scalar reference node for node.
#[cfg(test)]
fn equilibrium_x4(i: usize, rho: F64x4, ux: F64x4, uy: F64x4, uz: F64x4) -> F64x4 {
    equilibrium_lane(i, rho, [ux, uy, uz], uu15([ux, uy, uz]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_sum_to_one() {
        let s: f64 = WEIGHTS.iter().sum();
        assert!((s - 1.0).abs() < 1e-15);
    }

    #[test]
    fn velocity_set_sums_to_zero() {
        assert_eq!(CX.iter().sum::<i32>(), 0);
        assert_eq!(CY.iter().sum::<i32>(), 0);
        assert_eq!(CZ.iter().sum::<i32>(), 0);
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // tensor components read best indexed
    fn second_moment_is_isotropic() {
        // Σ w_i c_iα c_iβ = c_s² δ_αβ
        let mut m = [[0.0f64; 3]; 3];
        for i in 0..Q {
            let c = [CX[i] as f64, CY[i] as f64, CZ[i] as f64];
            for a in 0..3 {
                for b in 0..3 {
                    m[a][b] += WEIGHTS[i] * c[a] * c[b];
                }
            }
        }
        for a in 0..3 {
            for b in 0..3 {
                let expect = if a == b { CS2 } else { 0.0 };
                assert!((m[a][b] - expect).abs() < 1e-15, "m[{a}][{b}]={}", m[a][b]);
            }
        }
    }

    #[test]
    fn opposites_are_involutive_and_correct() {
        for i in 0..Q {
            let j = OPPOSITE[i];
            assert_eq!(OPPOSITE[j], i);
            assert_eq!(CX[i], -CX[j]);
            assert_eq!(CY[i], -CY[j]);
            assert_eq!(CZ[i], -CZ[j]);
        }
        assert_eq!(OPPOSITE[0], 0);
    }

    #[test]
    fn velocities_are_distinct() {
        for i in 0..Q {
            for j in (i + 1)..Q {
                assert!(
                    CX[i] != CX[j] || CY[i] != CY[j] || CZ[i] != CZ[j],
                    "duplicate velocity {i},{j}"
                );
            }
        }
    }

    #[test]
    fn equilibrium_moments_at_rest() {
        // Σ f_eq = ρ, Σ f_eq c = 0 at u=0
        let rho = 0.8;
        let sum: f64 = (0..Q).map(|i| equilibrium(i, rho, 0.0, 0.0, 0.0)).sum();
        assert!((sum - rho).abs() < 1e-14);
        let px: f64 = (0..Q)
            .map(|i| equilibrium(i, rho, 0.0, 0.0, 0.0) * CX[i] as f64)
            .sum();
        assert!(px.abs() < 1e-15);
    }

    #[test]
    fn equilibrium_is_the_textbook_expression_bit_for_bit() {
        // hoisting 1.5·u·u out of the per-direction term moves no bit
        let (rho, ux, uy, uz) = (0.93, 0.013, -0.07, 0.052);
        for i in 0..Q {
            let cu = CX[i] as f64 * ux + CY[i] as f64 * uy + CZ[i] as f64 * uz;
            let uu = ux * ux + uy * uy + uz * uz;
            let spec = WEIGHTS[i] * rho * (1.0 + 3.0 * cu + 4.5 * cu * cu - 1.5 * uu);
            assert_eq!(equilibrium(i, rho, ux, uy, uz).to_bits(), spec.to_bits());
        }
    }

    #[test]
    fn lane_equilibrium_matches_scalar_bit_for_bit() {
        use lanes::F64x4;
        let rho = F64x4([0.93, 0.51, 1.7, 1e-9]);
        let ux = F64x4([0.01, -0.07, 0.002, 0.11]);
        let uy = F64x4([-0.03, 0.0, 0.04, -0.09]);
        let uz = F64x4([0.05, 0.021, -0.008, 0.0]);
        for i in 0..Q {
            let v = equilibrium_x4(i, rho, ux, uy, uz).to_array();
            for (l, lane) in v.iter().enumerate() {
                let s = equilibrium(i, rho.0[l], ux.0[l], uy.0[l], uz.0[l]);
                assert_eq!(lane.to_bits(), s.to_bits(), "i={i} lane={l}");
            }
        }
    }

    #[test]
    fn equilibrium_first_moment_matches_velocity() {
        let (rho, ux, uy, uz) = (1.0, 0.05, -0.02, 0.01);
        let mut p = [0.0f64; 3];
        for i in 0..Q {
            let f = equilibrium(i, rho, ux, uy, uz);
            p[0] += f * CX[i] as f64;
            p[1] += f * CY[i] as f64;
            p[2] += f * CZ[i] as f64;
        }
        assert!((p[0] - rho * ux).abs() < 1e-14);
        assert!((p[1] - rho * uy).abs() < 1e-14);
        assert!((p[2] - rho * uz).abs() < 1e-14);
    }
}
