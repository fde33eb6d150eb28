//! Stokes single-layer kernel (the Stokeslet): the vector potential of the
//! paper's Kraken runs, three unknowns per point.
//!
//! `K_ij(x, y) = (1 / 8πμ) (δ_ij / r + r_i r_j / r³)`, `r = x − y`.

use crate::kernel::Kernel;
use crate::Point3;

/// The free-space Green's function of the Stokes equations.
#[derive(Copy, Clone, Debug)]
pub struct Stokes {
    /// Dynamic viscosity μ.
    pub mu: f64,
}

impl Default for Stokes {
    fn default() -> Self {
        Stokes { mu: 1.0 }
    }
}

impl Kernel for Stokes {
    fn source_dim(&self) -> usize {
        3
    }

    fn target_dim(&self) -> usize {
        3
    }

    #[inline]
    fn eval_block(&self, x: &Point3, y: &Point3, block: &mut [f64]) {
        let c = 1.0 / (8.0 * std::f64::consts::PI * self.mu);
        let r = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        if r2 == 0.0 {
            block[..9].fill(0.0);
            return;
        }
        let rinv = 1.0 / r2.sqrt();
        let r3inv = rinv / r2;
        for i in 0..3 {
            for j in 0..3 {
                let diag = if i == j { rinv } else { 0.0 };
                block[i * 3 + j] = c * (diag + r[i] * r[j] * r3inv);
            }
        }
    }

    fn homogeneity(&self) -> Option<f64> {
        Some(-1.0)
    }

    fn flops_per_pair(&self) -> u64 {
        // The reference formula of one pair, an FMA counted as 2 flops
        // and the integer seed of the reciprocal root not counted:
        // 3 diffs; r² = 3 mul + 2 add (5); the guarded 1/r = four Newton
        // steps of 5 flops plus 1/r², g − g, the add and the max (24);
        // r³ = inv·inv·inv (2); f·r scaled by r³ = 3 mul + 2 add + 1 mul
        // (6); and per component `a += f·inv + d·fdr` = 2 mul + 2 add
        // (3 × 4 = 12). Total 3 + 5 + 24 + 2 + 6 + 12 = 52. The tile
        // body (`tile::stokes_tiles`) now makes the guard with a compare
        // in place of 1/r² and g − g, so it issues fewer operations; the
        // count is kept so that `tune::model_q`, and with it every tree,
        // does not move. The surface paths (W/X/D2T) run the same body.
        52
    }

    fn name(&self) -> &'static str {
        "stokes"
    }

    fn as_tile_kernel(&self) -> Option<&dyn crate::tile::TileKernel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(x: &Point3, y: &Point3) -> [f64; 9] {
        let mut b = [0.0; 9];
        Stokes::default().eval_block(x, y, &mut b);
        b
    }

    #[test]
    fn self_interaction_is_zero() {
        let p = [0.4, 0.4, 0.4];
        assert_eq!(eval(&p, &p), [0.0; 9]);
    }

    #[test]
    fn tensor_is_symmetric() {
        let b = eval(&[0.1, 0.5, 0.9], &[0.8, 0.2, 0.3]);
        for i in 0..3 {
            for j in 0..3 {
                assert!((b[i * 3 + j] - b[j * 3 + i]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn axis_aligned_value() {
        // x - y = (r, 0, 0): K = c * diag(2/r, 1/r, 1/r).
        let r = 0.5;
        let b = eval(&[0.75, 0.2, 0.2], &[0.25, 0.2, 0.2]);
        let c = 1.0 / (8.0 * std::f64::consts::PI);
        assert!((b[0] - c * 2.0 / r).abs() < 1e-14);
        assert!((b[4] - c / r).abs() < 1e-14);
        assert!((b[8] - c / r).abs() < 1e-14);
        assert!(b[1].abs() < 1e-15 && b[2].abs() < 1e-15 && b[5].abs() < 1e-15);
    }

    #[test]
    fn viscosity_scales_inverse() {
        let mut b1 = [0.0; 9];
        let mut b2 = [0.0; 9];
        let x = [0.9, 0.1, 0.4];
        let y = [0.3, 0.6, 0.2];
        Stokes { mu: 1.0 }.eval_block(&x, &y, &mut b1);
        Stokes { mu: 2.0 }.eval_block(&x, &y, &mut b2);
        for (a, b) in b1.iter().zip(&b2) {
            assert!((a - 2.0 * b).abs() < 1e-15);
        }
    }

    #[test]
    fn homogeneity_degree_minus_one() {
        let x = [0.1, 0.2, 0.3];
        let y = [0.5, 0.6, 0.7];
        let b1 = eval(&x, &y);
        let b2 = eval(
            &[3.0 * x[0], 3.0 * x[1], 3.0 * x[2]],
            &[3.0 * y[0], 3.0 * y[1], 3.0 * y[2]],
        );
        for (a, b) in b1.iter().zip(&b2) {
            assert!((a / 3.0 - b).abs() < 1e-15);
        }
    }
}
