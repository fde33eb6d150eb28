//! FFT-diagonalized V-list translation (paper §IV), one edge at a time
//! against a mutex-guarded kernel-spectrum cache. The CPU evaluator uses
//! the batched form in [`crate::m2l_batched`]; this engine backs the
//! simulated-GPU pipeline's full-spectrum f32 V-list (`pfmm-gpusim`).
//!
//! The surface points of order `p` are the boundary nodes of a `p³`
//! lattice, so the M2L map "source equivalent density → target downward
//! check potential" is a cross-correlation on that lattice:
//!
//! `check(t) = Σ_s K(D + h·(t − s)) · q(s)`,
//!
//! with `D` the box-center offset and `h` the lattice spacing. Embedding
//! both grids in a `(2p)³` torus turns each of the ≤316 V-list offsets
//! into a pointwise multiply in frequency space — the paper's "diagonal
//! translation". Source spectra depend only on the density values (the
//! geometry is folded into the kernel spectra), so each source octant is
//! transformed once regardless of how many V-lists it appears on.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use pfmm_fft::{Complex, Fft3};
use pfmm_kernels::Kernel;

use crate::ops::level_radius;
use crate::surface::{surface_grid_indices, RAD_INNER};

/// Cache of kernel spectra keyed by (level, V-list offset).
type SpectraCache = Mutex<HashMap<(u32, [i8; 3]), Arc<Vec<Complex>>>>;

/// The FFT M2L engine for one kernel and surface order.
pub struct FftM2l {
    kernel: Arc<dyn Kernel>,
    order: usize,
    /// Torus side `n = 2p`.
    n: usize,
    fft: Fft3,
    surf_idx: Vec<[usize; 3]>,
    /// Kernel spectra per (level, offset): `td*sd` concatenated grids.
    /// Homogeneous kernels store level 0 only and rescale.
    spectra: SpectraCache,
}

impl FftM2l {
    /// Create an engine; `order` must match the operator cache in use.
    pub fn new(kernel: Arc<dyn Kernel>, order: usize) -> FftM2l {
        let n = 2 * order;
        FftM2l {
            kernel,
            order,
            n,
            fft: Fft3::new(n),
            surf_idx: surface_grid_indices(order),
            spectra: Mutex::new(HashMap::new()),
        }
    }

    /// Grid cells per component spectrum.
    pub fn grid_len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Number of source-dimension components.
    pub fn sd(&self) -> usize {
        self.kernel.source_dim()
    }

    /// Number of target-dimension components.
    pub fn td(&self) -> usize {
        self.kernel.target_dim()
    }

    #[inline]
    fn grid_index(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Forward-transform a source octant's equivalent density
    /// (`n_surf * sd` packed values) into `sd` spectra.
    pub fn source_spectrum(&self, u: &[f64]) -> Vec<Complex> {
        let sd = self.sd();
        debug_assert_eq!(u.len(), self.surf_idx.len() * sd);
        let g = self.grid_len();
        let mut out = vec![Complex::ZERO; sd * g];
        for c in 0..sd {
            let grid = &mut out[c * g..(c + 1) * g];
            for (s, m) in self.surf_idx.iter().enumerate() {
                grid[self.grid_index(m[0], m[1], m[2])] = Complex::real(u[s * sd + c]);
            }
            self.fft.forward(grid);
        }
        out
    }

    /// The kernel spectra for a V-list `offset` at `level` and the scale
    /// to apply (1.0 for non-homogeneous kernels, which are cached per
    /// level).
    pub fn kernel_spectrum(&self, level: u32, offset: [i8; 3]) -> (Arc<Vec<Complex>>, f64) {
        let (base, scale) = match self.kernel.homogeneity() {
            Some(h) => (0, (level_radius(level) / level_radius(0)).powf(h)),
            None => (level, 1.0),
        };
        if let Some(spec) = self.spectra.lock().get(&(base, offset)).cloned() {
            return (spec, scale);
        }
        // Build outside the lock so concurrent first touches of distinct
        // offsets don't serialize; a racing duplicate build is dropped by
        // the re-check insert.
        let built = Arc::new(self.build_kernel_spectrum(base, offset));
        let spec = self
            .spectra
            .lock()
            .entry((base, offset))
            .or_insert(built)
            .clone();
        (spec, scale)
    }

    fn build_kernel_spectrum(&self, level: u32, offset: [i8; 3]) -> Vec<Complex> {
        let p = self.order;
        let n = self.n;
        let g = self.grid_len();
        let sd = self.sd();
        let td = self.td();
        let r = level_radius(level);
        let h = 2.0 * RAD_INNER * r / (p - 1) as f64;
        let d = [
            offset[0] as f64 * 2.0 * r,
            offset[1] as f64 * 2.0 * r,
            offset[2] as f64 * 2.0 * r,
        ];
        let mut block = vec![0.0; td * sd];
        let mut grids = vec![Complex::ZERO; td * sd * g];
        let half = p as i64 - 1;
        for mx in -half..=half {
            for my in -half..=half {
                for mz in -half..=half {
                    let x = [
                        d[0] + h * mx as f64,
                        d[1] + h * my as f64,
                        d[2] + h * mz as f64,
                    ];
                    self.kernel.eval_block(&x, &[0.0; 3], &mut block);
                    let gi = self.grid_index(
                        mx.rem_euclid(n as i64) as usize,
                        my.rem_euclid(n as i64) as usize,
                        mz.rem_euclid(n as i64) as usize,
                    );
                    for tc in 0..td {
                        for sc in 0..sd {
                            grids[(tc * sd + sc) * g + gi] = Complex::real(block[tc * sd + sc]);
                        }
                    }
                }
            }
        }
        for pair in 0..td * sd {
            self.fft.forward(&mut grids[pair * g..(pair + 1) * g]);
        }
        grids
    }

    /// Accumulate one V-list contribution into a target's spectral
    /// accumulator (`td` grids): `acc_i += scale * Σ_j K̂_ij ⊙ û_j`.
    pub fn accumulate(
        &self,
        acc: &mut [Complex],
        kernel_spec: &[Complex],
        source_spec: &[Complex],
        scale: f64,
    ) {
        let g = self.grid_len();
        let sd = self.sd();
        let td = self.td();
        debug_assert_eq!(acc.len(), td * g);
        debug_assert_eq!(kernel_spec.len(), td * sd * g);
        debug_assert_eq!(source_spec.len(), sd * g);
        for tc in 0..td {
            let a = &mut acc[tc * g..(tc + 1) * g];
            for sc in 0..sd {
                let k = &kernel_spec[(tc * sd + sc) * g..(tc * sd + sc + 1) * g];
                let u = &source_spec[sc * g..(sc + 1) * g];
                for i in 0..g {
                    a[i] += (k[i] * u[i]).scale(scale);
                }
            }
        }
    }

    /// Inverse-transform a target's accumulator and add the surface values
    /// into the packed downward check potential (`n_surf * td`).
    pub fn finish(&self, mut acc: Vec<Complex>, dcheck: &mut [f64]) {
        let g = self.grid_len();
        let td = self.td();
        debug_assert_eq!(dcheck.len(), self.surf_idx.len() * td);
        for tc in 0..td {
            let grid = &mut acc[tc * g..(tc + 1) * g];
            self.fft.inverse(grid);
            for (t, m) in self.surf_idx.iter().enumerate() {
                dcheck[t * td + tc] += grid[self.grid_index(m[0], m[1], m[2])].re;
            }
        }
    }

    /// A zeroed spectral accumulator for one target octant.
    pub fn new_accumulator(&self) -> Vec<Complex> {
        vec![Complex::ZERO; self.td() * self.grid_len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Ops;
    use pfmm_kernels::{Laplace, Stokes};

    fn check_matches_dense(kernel: Arc<dyn Kernel>, order: usize, level: u32, offset: [i8; 3]) {
        let ops = Ops::new(kernel.clone(), order, 1e-12);
        let eng = FftM2l::new(kernel, order);
        let nd = ops.density_len();
        let u: Vec<f64> = (0..nd).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();

        // Dense path.
        let (m, s) = ops.m2l(level, offset);
        let mut dense = vec![0.0; ops.check_len()];
        m.matvec_acc_scaled(&u, &mut dense, s);

        // FFT path.
        let uhat = eng.source_spectrum(&u);
        let (khat, scale) = eng.kernel_spectrum(level, offset);
        let mut acc = eng.new_accumulator();
        eng.accumulate(&mut acc, &khat, &uhat, scale);
        let mut fftv = vec![0.0; ops.check_len()];
        eng.finish(acc, &mut fftv);

        let denom = dense
            .iter()
            .map(|v| v.abs())
            .fold(0.0f64, f64::max)
            .max(1e-30);
        for (a, b) in fftv.iter().zip(&dense) {
            assert!(
                (a - b).abs() < 1e-10 * denom,
                "fft {a} vs dense {b} (order {order}, offset {offset:?})"
            );
        }
    }

    #[test]
    fn laplace_matches_dense_m2l() {
        check_matches_dense(Arc::new(Laplace), 4, 2, [2, 0, 0]);
        check_matches_dense(Arc::new(Laplace), 4, 3, [-3, 2, 1]);
        check_matches_dense(Arc::new(Laplace), 6, 1, [0, -2, 3]);
    }

    #[test]
    fn stokes_matches_dense_m2l() {
        check_matches_dense(Arc::new(Stokes::default()), 4, 2, [2, -2, 0]);
        check_matches_dense(Arc::new(Stokes { mu: 0.7 }), 4, 4, [3, 1, -2]);
    }

    #[test]
    fn accumulation_is_linear() {
        let eng = FftM2l::new(Arc::new(Laplace), 4);
        let nd = eng.surf_idx.len();
        let u1: Vec<f64> = (0..nd).map(|i| i as f64).collect();
        let u2: Vec<f64> = (0..nd).map(|i| (nd - i) as f64).collect();
        let (khat, s) = eng.kernel_spectrum(2, [0, 2, 0]);

        // Two accumulations vs the accumulation of the sum.
        let mut acc = eng.new_accumulator();
        eng.accumulate(&mut acc, &khat, &eng.source_spectrum(&u1), s);
        eng.accumulate(&mut acc, &khat, &eng.source_spectrum(&u2), s);
        let mut two = vec![0.0; nd];
        eng.finish(acc, &mut two);

        let sum: Vec<f64> = u1.iter().zip(&u2).map(|(a, b)| a + b).collect();
        let mut acc2 = eng.new_accumulator();
        eng.accumulate(&mut acc2, &khat, &eng.source_spectrum(&sum), s);
        let mut one = vec![0.0; nd];
        eng.finish(acc2, &mut one);

        for (a, b) in two.iter().zip(&one) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }
}
