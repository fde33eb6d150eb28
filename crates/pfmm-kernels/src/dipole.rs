//! Laplace double-layer (dipole) kernel:
//! `K(x, y)·d = (x−y)·d / (4π |x−y|³)` — the potential of a point dipole
//! with moment `d`.
//!
//! This is the kernel of double-layer boundary-integral formulations
//! (the usual well-conditioned form of Laplace BVPs). For the FMM it is
//! the interesting stress case: the source density has **three**
//! components while the potential has **one** (`source_dim ≠
//! target_dim`), and the homogeneity degree is **−2**, so it exercises
//! the rectangular translation operators and the non-unit scaling path
//! that the equal-dimension, degree −1 kernels never touch.

use crate::kernel::Kernel;
use crate::Point3;

const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// The free-space Laplace dipole kernel.
#[derive(Copy, Clone, Debug, Default)]
pub struct LaplaceDipole;

impl Kernel for LaplaceDipole {
    fn source_dim(&self) -> usize {
        3
    }

    fn target_dim(&self) -> usize {
        1
    }

    #[inline]
    fn eval_block(&self, x: &Point3, y: &Point3, block: &mut [f64]) {
        let r = [x[0] - y[0], x[1] - y[1], x[2] - y[2]];
        let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
        if r2 == 0.0 {
            block[..3].fill(0.0);
            return;
        }
        let c = INV_4PI / (r2 * r2.sqrt());
        block[0] = c * r[0];
        block[1] = c * r[1];
        block[2] = c * r[2];
    }

    fn homogeneity(&self) -> Option<f64> {
        // K(ax, ay) = a⁻² K(x, y): r scales linearly, r³ cubically.
        Some(-2.0)
    }

    fn flops_per_pair(&self) -> u64 {
        // diff (3), r² (5), rsqrt + r³ (≈6), 3 scaled components + dot
        // accumulate (≈9), an FMA counted as 2. It counts the reference
        // formula, not what the tile body (`tile::dipole_tiles`) issues,
        // and is kept so that `tune::model_q` does not move.
        25
    }

    fn name(&self) -> &'static str {
        "laplace-dipole"
    }

    fn as_tile_kernel(&self) -> Option<&dyn crate::tile::TileKernel> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(x: &Point3, y: &Point3) -> [f64; 3] {
        let mut b = [0.0; 3];
        LaplaceDipole.eval_block(x, y, &mut b);
        b
    }

    #[test]
    fn axial_dipole_value() {
        // Dipole at the origin pointing +x, observed on the +x axis at
        // distance 2: potential = 1/(4π·4).
        let b = eval(&[2.0, 0.0, 0.0], &[0.0, 0.0, 0.0]);
        assert!((b[0] - INV_4PI / 4.0).abs() < 1e-15);
        assert_eq!(b[1], 0.0);
        assert_eq!(b[2], 0.0);
    }

    #[test]
    fn equatorial_component_vanishes() {
        // On the z axis, the x and y moment components contribute nothing.
        let b = eval(&[0.0, 0.0, 1.5], &[0.0, 0.0, 0.0]);
        assert_eq!(b[0], 0.0);
        assert_eq!(b[1], 0.0);
        assert!(b[2] > 0.0);
    }

    #[test]
    fn antisymmetric_in_swap() {
        // K(x, y) = −K(y, x): the dipole potential is odd in r.
        let x = [0.2, 0.7, 0.4];
        let y = [0.9, 0.1, 0.6];
        let a = eval(&x, &y);
        let b = eval(&y, &x);
        for (p, q) in a.iter().zip(&b) {
            assert!((p + q).abs() < 1e-15);
        }
    }

    #[test]
    fn homogeneity_degree_minus_two() {
        let x = [0.1, 0.2, 0.3];
        let y = [0.6, 0.5, 0.9];
        let a = eval(&x, &y);
        let s = 3.0;
        let b = eval(
            &[s * x[0], s * x[1], s * x[2]],
            &[s * y[0], s * y[1], s * y[2]],
        );
        for (p, q) in a.iter().zip(&b) {
            assert!((p / (s * s) - q).abs() < 1e-15);
        }
    }

    #[test]
    fn self_interaction_zero() {
        let p = [0.4, 0.4, 0.4];
        assert_eq!(eval(&p, &p), [0.0; 3]);
    }

    #[test]
    fn matches_gradient_of_monopole() {
        // K_dipole(x, y)·d = d·∇_y (1/4π|x−y|) (since ∂/∂y_i |x−y|⁻¹ =
        // (x_i−y_i)/r³): check via finite differences of the Laplace
        // kernel.
        use crate::laplace::Laplace;
        let x = [0.8, 0.3, 0.5];
        let y = [0.2, 0.6, 0.1];
        let d = [0.3, -0.5, 0.7];
        let b = eval(&x, &y);
        let want_analytic: f64 = b.iter().zip(&d).map(|(k, m)| k * m).sum();
        let h = 1e-6;
        let lap = |yy: &Point3| {
            let mut v = [0.0];
            Laplace.eval_block(&x, yy, &mut v);
            v[0]
        };
        let mut fd = 0.0;
        for c in 0..3 {
            let mut yp = y;
            yp[c] += h;
            let mut ym = y;
            ym[c] -= h;
            fd += d[c] * (lap(&yp) - lap(&ym)) / (2.0 * h);
        }
        assert!((want_analytic - fd).abs() < 1e-8, "{want_analytic} vs {fd}");
    }
}
