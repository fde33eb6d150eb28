//! Laplace single-layer kernel: `K(x, y) = 1 / (4π |x − y|)`.

use crate::kernel::Kernel;
use crate::Point3;

const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// The free-space Green's function of the 3-D Laplacian (electrostatic /
/// gravitational potential). Scalar density, scalar potential.
#[derive(Copy, Clone, Debug, Default)]
pub struct Laplace;

impl Kernel for Laplace {
    fn source_dim(&self) -> usize {
        1
    }

    fn target_dim(&self) -> usize {
        1
    }

    #[inline]
    fn eval_block(&self, x: &Point3, y: &Point3, block: &mut [f64]) {
        let dx = x[0] - y[0];
        let dy = x[1] - y[1];
        let dz = x[2] - y[2];
        let r2 = dx * dx + dy * dy + dz * dz;
        block[0] = if r2 == 0.0 { 0.0 } else { INV_4PI / r2.sqrt() };
    }

    fn homogeneity(&self) -> Option<f64> {
        Some(-1.0)
    }

    fn flops_per_pair(&self) -> u64 {
        // diff (3), squares+adds (5), rsqrt (~4), scale+accumulate (~8):
        // the conventional 20 flops/interaction of N-body accounting, an
        // FMA counted as 2. It counts the reference formula, not what the
        // tile body (`tile::laplace_tiles`) issues, and is kept so that
        // `tune::model_q`, and with it every tree, does not move.
        20
    }

    fn name(&self) -> &'static str {
        "laplace"
    }

    fn as_tile_kernel(&self) -> Option<&dyn crate::tile::TileKernel> {
        Some(self)
    }

    fn eval_target(&self, x: &Point3, sources: &[Point3], densities: &[f64], out: &mut [f64]) {
        debug_assert_eq!(densities.len(), sources.len());
        let mut acc = 0.0;
        for (y, s) in sources.iter().zip(densities) {
            let dx = x[0] - y[0];
            let dy = x[1] - y[1];
            let dz = x[2] - y[2];
            let r2 = dx * dx + dy * dy + dz * dz;
            if r2 > 0.0 {
                acc += s / r2.sqrt();
            }
        }
        out[0] += acc * INV_4PI;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inverse_distance() {
        let k = Laplace;
        let mut b = [0.0];
        k.eval_block(&[0.0, 0.0, 0.0], &[2.0, 0.0, 0.0], &mut b);
        assert!((b[0] - INV_4PI / 2.0).abs() < 1e-15);
    }

    #[test]
    fn self_interaction_is_zero() {
        let k = Laplace;
        let mut b = [f64::NAN];
        let p = [0.3, 0.3, 0.3];
        k.eval_block(&p, &p, &mut b);
        assert_eq!(b[0], 0.0);
    }

    #[test]
    fn symmetry() {
        let k = Laplace;
        let (mut a, mut b) = ([0.0], [0.0]);
        let x = [0.1, 0.9, 0.4];
        let y = [0.7, 0.2, 0.5];
        k.eval_block(&x, &y, &mut a);
        k.eval_block(&y, &x, &mut b);
        assert_eq!(a[0], b[0]);
    }

    #[test]
    fn homogeneity_degree_minus_one() {
        let k = Laplace;
        let (mut a, mut b) = ([0.0], [0.0]);
        let x = [0.1, 0.2, 0.3];
        let y = [0.5, 0.6, 0.7];
        let a2 = |p: &Point3| [2.0 * p[0], 2.0 * p[1], 2.0 * p[2]];
        k.eval_block(&x, &y, &mut a);
        k.eval_block(&a2(&x), &a2(&y), &mut b);
        assert!((b[0] - a[0] / 2.0).abs() < 1e-15);
    }

    #[test]
    fn fused_eval_target_skips_self() {
        let k = Laplace;
        let x = [0.5, 0.5, 0.5];
        let srcs = vec![x, [0.25, 0.5, 0.5]];
        let mut out = [0.0];
        k.eval_target(&x, &srcs, &[5.0, 1.0], &mut out);
        assert!((out[0] - INV_4PI / 0.25).abs() < 1e-12);
    }
}
