//! Direct O(N²) Coulomb summation — the accuracy reference and the
//! baseline the tree code's O(N log N) is measured against (§3.4 claims
//! the tree makes mesh-free simulation feasible at scales where this
//! brute-force path is hopeless; experiment EP1 reproduces the crossover).
//! Nothing in a loop calls it: the simulation's forces and the monitored
//! potential both come from the tree walk, and these sums are its test
//! oracle and EP1's exact side.

use crate::Particle;

/// Plummer-softened Coulomb force on each particle:
/// `F_i = q_i Σ_j q_j r_ij / (|r_ij|² + ε²)^{3/2}`.
///
/// Softening keeps close encounters integrable — standard practice in
/// collisionless plasma tree codes, PEPC included.
pub fn direct_forces(particles: &[Particle], eps: f64) -> Vec<[f64; 3]> {
    let n = particles.len();
    let eps2 = eps * eps;
    let mut forces = vec![[0.0f64; 3]; n];
    for i in 0..n {
        let pi = &particles[i];
        let mut f = [0.0f64; 3];
        for (j, pj) in particles.iter().enumerate() {
            if i == j {
                continue;
            }
            let dx = pi.pos[0] - pj.pos[0];
            let dy = pi.pos[1] - pj.pos[1];
            let dz = pi.pos[2] - pj.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            let inv_r3 = 1.0 / (r2 * r2.sqrt());
            let s = pi.charge * pj.charge * inv_r3;
            f[0] += s * dx;
            f[1] += s * dy;
            f[2] += s * dz;
        }
        forces[i] = f;
    }
    forces
}

/// Total electrostatic potential energy (softened):
/// `U = Σ_{i<j} q_i q_j / sqrt(|r_ij|² + ε²)`, one scalar fold in `(i, j)`
/// order — the exact oracle for the U the tree walk sums
/// ([`crate::tree::Octree::last_potential`]), which is what the monitor
/// publishes.
pub fn potential_energy(particles: &[Particle], eps: f64) -> f64 {
    let eps2 = eps * eps;
    let mut u = 0.0;
    for (i, a) in particles.iter().enumerate() {
        for b in &particles[i + 1..] {
            let dx = a.pos[0] - b.pos[0];
            let dy = a.pos[1] - b.pos[1];
            let dz = a.pos[2] - b.pos[2];
            let r2 = dx * dx + dy * dy + dz * dz + eps2;
            u += a.charge * b.charge / r2.sqrt();
        }
    }
    u
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_like_charges_repel() {
        let p = vec![
            Particle::at([0.0, 0.0, 0.0], 1.0, 0),
            Particle::at([1.0, 0.0, 0.0], 1.0, 1),
        ];
        let f = direct_forces(&p, 0.0);
        assert!(f[0][0] < 0.0, "left particle pushed left");
        assert!(f[1][0] > 0.0, "right particle pushed right");
        assert!((f[1][0] - 1.0).abs() < 1e-12, "unit coulomb at r=1");
    }

    #[test]
    fn opposite_charges_attract() {
        let p = vec![
            Particle::at([0.0, 0.0, 0.0], 1.0, 0),
            Particle::at([2.0, 0.0, 0.0], -1.0, 1),
        ];
        let f = direct_forces(&p, 0.0);
        assert!(f[0][0] > 0.0);
        assert!(f[1][0] < 0.0);
        assert!((f[0][0] - 0.25).abs() < 1e-12, "1/r² at r=2");
    }

    #[test]
    fn newtons_third_law() {
        let p = vec![
            Particle::at([0.1, 0.2, 0.3], 2.0, 0),
            Particle::at([-0.4, 0.5, 0.6], -1.5, 1),
            Particle::at([0.7, -0.8, 0.9], 0.5, 2),
        ];
        let f = direct_forces(&p, 0.01);
        for a in 0..3 {
            let total: f64 = f.iter().map(|fi| fi[a]).sum();
            assert!(total.abs() < 1e-12, "net force component {total}");
        }
    }

    #[test]
    fn softening_bounds_close_encounters() {
        let p = vec![
            Particle::at([0.0; 3], 1.0, 0),
            Particle::at([1e-9, 0.0, 0.0], 1.0, 1),
        ];
        let f = direct_forces(&p, 0.05);
        // |F| ≤ q²·r/ε³ is tiny for r→0 with softening
        assert!(f[0][0].abs() < 1.0);
    }

    #[test]
    fn potential_energy_pairwise() {
        let p = vec![
            Particle::at([0.0; 3], 1.0, 0),
            Particle::at([1.0, 0.0, 0.0], 1.0, 1),
            Particle::at([0.0, 1.0, 0.0], 1.0, 2),
        ];
        let u = potential_energy(&p, 0.0);
        let expect = 1.0 + 1.0 + 1.0 / std::f64::consts::SQRT_2;
        assert!((u - expect).abs() < 1e-12);
    }
}
