//! One-sided Jacobi SVD and truncated-SVD pseudo-inverse.
//!
//! The check→equivalent density solves of the KIFMM are ill-conditioned by
//! construction (that is what makes the equivalent representation compress
//! the far field), so a plain solve is unusable; the reference
//! implementation regularizes with a truncated SVD. Matrices are at most a
//! few hundred per side, and one-sided Jacobi is accurate on them to the
//! last digits of the small singular values the truncation inspects. It
//! is the largest term of a cold start (the setup precomputes one solve
//! per base level, then caches it), so it runs at memory and SIMD speed:
//! the working copy is stored transposed, so every column the sweep
//! rotates is one contiguous row, and the two inner loops — the pair's
//! Gram entries and the plane rotation — are [`crate::simd_dispatch!`]
//! bodies that give the same bits on every instruction tier.

use crate::matrix::Matrix;

/// Lanes of the Gram accumulators. Fixed (not the tier's width), so the
/// summation order — hence every bit of the SVD — is the same on every
/// tier.
const LANES: usize = 8;

/// A thin singular value decomposition `A = U * diag(s) * Vᵀ`.
///
/// `u` is `m×r`, `vt` is `r×n`, `s` has length `r = min(m, n)`, sorted
/// descending.
pub struct Svd {
    /// Left singular vectors (columns), `m×r`.
    pub u: Matrix,
    /// Singular values, descending.
    pub s: Vec<f64>,
    /// Right singular vectors (rows), `r×n`.
    pub vt: Matrix,
}

impl Svd {
    /// Compute the thin SVD of `a` by one-sided Jacobi.
    pub fn new(a: &Matrix) -> Svd {
        if a.rows() >= a.cols() {
            svd_tall(a.transpose(), gram, rotate)
        } else {
            // SVD(Aᵀ) = (V, s, Uᵀ); the transposed working copy of the
            // tall Aᵀ is `a` itself. Swap the factors back.
            let t = svd_tall(a.clone(), gram, rotate);
            Svd {
                u: t.vt.transpose(),
                s: t.s,
                vt: t.u.transpose(),
            }
        }
    }

    /// Reconstruct `U * diag(s) * Vᵀ` (used by tests).
    pub fn reconstruct(&self) -> Matrix {
        let r = self.s.len();
        let mut us = self.u.clone();
        for i in 0..us.rows() {
            for j in 0..r {
                us[(i, j)] *= self.s[j];
            }
        }
        us.matmul(&self.vt)
    }
}

/// `out = [x·x, y·y, x·y]` over equal-length slices: `LANES` strided
/// partial sums per entry (the tail folds into the first lanes), reduced
/// by a fixed pairwise tree.
#[inline(always)]
fn gram_body(x: &[f64], y: &[f64], out: &mut [f64; 3]) {
    let (mut xx, mut yy, mut xy) = ([0.0f64; LANES], [0.0f64; LANES], [0.0f64; LANES]);
    let (xc, yc) = (x.chunks_exact(LANES), y.chunks_exact(LANES));
    let (xt, yt) = (xc.remainder(), yc.remainder());
    for (a, b) in xc.zip(yc) {
        let a: &[f64; LANES] = a.try_into().expect("exact chunk");
        let b: &[f64; LANES] = b.try_into().expect("exact chunk");
        for l in 0..LANES {
            xx[l] += a[l] * a[l];
            yy[l] += b[l] * b[l];
            xy[l] += a[l] * b[l];
        }
    }
    for (l, (a, b)) in xt.iter().zip(yt).enumerate() {
        xx[l] += a * a;
        yy[l] += b * b;
        xy[l] += a * b;
    }
    let sum = |v: [f64; LANES]| ((v[0] + v[4]) + (v[1] + v[5])) + ((v[2] + v[6]) + (v[3] + v[7]));
    *out = [sum(xx), sum(yy), sum(xy)];
}

/// The plane rotation `(x, y) ← (c·x − s·y, s·x + c·y)`, elementwise.
#[inline(always)]
fn rotate_body(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    for (a, b) in x.iter_mut().zip(y.iter_mut()) {
        let (xa, yb) = (*a, *b);
        *a = c * xa - s * yb;
        *b = s * xa + c * yb;
    }
}

crate::simd_dispatch!(fn gram(x: &[f64], y: &[f64], out: &mut [f64; 3]) => gram_body);
crate::simd_dispatch!(fn rotate(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) => rotate_body);

/// The two inner loops of a sweep; [`svd_tall`] takes them as arguments
/// so the tests can run the portable bodies against the dispatched
/// entries.
type GramFn = fn(&[f64], &[f64], &mut [f64; 3]);
type RotateFn = fn(f64, f64, &mut [f64], &mut [f64]);

/// Rows `p < q` of `m`, both mutable.
fn row_pair(m: &mut Matrix, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    debug_assert!(p < q);
    let cols = m.cols();
    let (lo, hi) = m.as_mut_slice().split_at_mut(q * cols);
    (&mut lo[p * cols..(p + 1) * cols], &mut hi[..cols])
}

/// One-sided Jacobi on a tall (or square) matrix `A`, given as its
/// transpose `wt = Aᵀ` (row `j` is column `j` of `A`): rotate column pairs
/// of the working copy `W = A·V` until all pairs are numerically
/// orthogonal. `V` is kept transposed too, so both rotations stream
/// contiguous rows.
fn svd_tall(mut wt: Matrix, gram: GramFn, rotate: RotateFn) -> Svd {
    let n = wt.rows();
    let m = wt.cols();
    debug_assert!(m >= n);
    let mut vt = Matrix::identity(n);
    let eps = 1e-15;
    let mut g = [0.0f64; 3];

    // Cyclic column-pair sweeps; n is a few hundred at most, convergence
    // is quadratic once rotations get small (the KIFMM check matrices
    // take 20–34 sweeps). 60 sweeps guards against pathological stalls.
    for _ in 0..60 {
        let mut off = 0.0f64;
        for p in 0..n {
            for q in (p + 1)..n {
                // Gram entries for the (p, q) column pair.
                gram(wt.row(p), wt.row(q), &mut g);
                let [app, aqq, apq] = g;
                if apq.abs() <= eps * (app * aqq).sqrt() {
                    continue;
                }
                off = off.max(apq.abs() / (app * aqq).sqrt().max(f64::MIN_POSITIVE));
                // Jacobi rotation zeroing the (p, q) Gram entry.
                let tau = (aqq - app) / (2.0 * apq);
                let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = c * t;
                let (wp, wq) = row_pair(&mut wt, p, q);
                rotate(c, s, wp, wq);
                let (vp, vq) = row_pair(&mut vt, p, q);
                rotate(c, s, vp, vq);
            }
        }
        if off < 1e-14 {
            break;
        }
    }

    // Singular values are the column norms of W; normalize into U.
    let s: Vec<f64> = (0..n)
        .map(|j| {
            gram(wt.row(j), wt.row(j), &mut g);
            g[0].sqrt()
        })
        .collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| s[b].partial_cmp(&s[a]).expect("singular values are finite"));

    let mut u = Matrix::zeros(m, n);
    let mut v_sorted = Matrix::zeros(n, n);
    let mut s_sorted = vec![0.0; n];
    for (new_j, &old_j) in order.iter().enumerate() {
        let sv = s[old_j];
        s_sorted[new_j] = sv;
        let inv = if sv > 0.0 { 1.0 / sv } else { 0.0 };
        for (i, &w) in wt.row(old_j).iter().enumerate() {
            u[(i, new_j)] = w * inv;
        }
        v_sorted.row_mut(new_j).copy_from_slice(vt.row(old_j));
    }
    Svd {
        u,
        s: s_sorted,
        vt: v_sorted,
    }
}

/// Truncated-SVD pseudo-inverse: singular values below
/// `rel_tol * s_max` are dropped.
///
/// This is the regularization the KIFMM uses for its UC2E/DC2E operators;
/// `rel_tol` around `1e-12` keeps full numerical rank, larger values trade
/// accuracy for stability.
///
/// ```
/// use pfmm_linalg::{pinv, Matrix};
///
/// let a = Matrix::from_vec(2, 2, vec![2.0, 0.0, 0.0, 4.0]);
/// let p = pinv(&a, 1e-12);
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-12);
/// assert!((p[(1, 1)] - 0.25).abs() < 1e-12);
/// ```
pub fn pinv(a: &Matrix, rel_tol: f64) -> Matrix {
    let svd = Svd::new(a);
    let smax = svd.s.first().copied().unwrap_or(0.0);
    let cut = smax * rel_tol;
    // pinv = V * diag(1/s) * Uᵀ, assembled as (row-scaled Vᵀ)ᵀ * Uᵀ.
    let mut vt = svd.vt;
    for (j, &sv) in svd.s.iter().enumerate() {
        let inv = if sv > cut && sv > 0.0 { 1.0 / sv } else { 0.0 };
        vt.row_mut(j).iter_mut().for_each(|v| *v *= inv);
    }
    vt.transpose().matmul(&svd.u.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &Matrix, b: &Matrix, tol: f64) {
        assert_eq!(a.rows(), b.rows());
        assert_eq!(a.cols(), b.cols());
        for i in 0..a.rows() {
            for j in 0..a.cols() {
                assert!(
                    (a[(i, j)] - b[(i, j)]).abs() < tol,
                    "entry ({i},{j}): {} vs {}",
                    a[(i, j)],
                    b[(i, j)]
                );
            }
        }
    }

    /// The KIFMM upward check matrix of the Laplace kernel at surface
    /// order `p` for the root octant (half-width 0.5): `1/(4π|x − y|)`
    /// from the boundary nodes of a `p³` lattice scaled by 2.95 (check)
    /// to the same nodes scaled by 1.05 (equivalent).
    fn laplace_check_matrix(p: usize) -> Matrix {
        let surface = |scale: f64| {
            let h = scale * 0.5;
            let f = |t: usize| h * (2.0 * t as f64 / (p - 1) as f64 - 1.0);
            let mut pts = Vec::new();
            for i in 0..p {
                for j in 0..p {
                    for k in 0..p {
                        if [i, j, k].iter().any(|&t| t == 0 || t == p - 1) {
                            pts.push([f(i), f(j), f(k)]);
                        }
                    }
                }
            }
            pts
        };
        let (check, equiv) = (surface(2.95), surface(1.05));
        Matrix::from_fn(check.len(), equiv.len(), |i, j| {
            let r2: f64 = (0..3).map(|d| (check[i][d] - equiv[j][d]).powi(2)).sum();
            0.25 / std::f64::consts::PI / r2.sqrt()
        })
    }

    /// The dispatched Gram and rotation entries give their portable
    /// bodies' bits: a whole SVD of a real check matrix, run once on the
    /// host's widest tier and once on the portable bodies, agrees bit for
    /// bit. Order 6 is the 152² Laplace matrix (lengths a multiple of the
    /// 8 lanes); order 5 (98²) exercises the lane tail.
    #[test]
    fn dispatched_tiers_match_portable_bitwise() {
        for p in [6, 5] {
            let wt = laplace_check_matrix(p).transpose();
            let bits = |svd: Svd| -> Vec<u64> {
                let (u, vt) = (svd.u.as_slice(), svd.vt.as_slice());
                u.iter()
                    .chain(&svd.s)
                    .chain(vt)
                    .map(|v| v.to_bits())
                    .collect()
            };
            let want = bits(svd_tall(wt.clone(), gram_body, rotate_body));
            assert_eq!(bits(svd_tall(wt, gram, rotate)), want, "order {p}");
        }
    }

    #[test]
    fn svd_reconstructs_random_tall() {
        let a = Matrix::from_fn(7, 4, |i, j| ((i * 31 + j * 17) % 13) as f64 - 6.0);
        let svd = Svd::new(&a);
        assert_close(&svd.reconstruct(), &a, 1e-10);
        for w in svd.s.windows(2) {
            assert!(w[0] >= w[1], "singular values sorted descending");
        }
    }

    #[test]
    fn svd_reconstructs_wide() {
        let a = Matrix::from_fn(3, 6, |i, j| (i as f64 + 1.0) * (j as f64 - 2.5));
        let svd = Svd::new(&a);
        assert_close(&svd.reconstruct(), &a, 1e-10);
    }

    #[test]
    fn svd_of_identity() {
        let svd = Svd::new(&Matrix::identity(5));
        for s in &svd.s {
            assert!((s - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn singular_values_of_diagonal() {
        let mut a = Matrix::zeros(4, 4);
        for (i, v) in [3.0, 1.0, 4.0, 2.0].iter().enumerate() {
            a[(i, i)] = *v;
        }
        let svd = Svd::new(&a);
        let want = [4.0, 3.0, 2.0, 1.0];
        for (got, want) in svd.s.iter().zip(want) {
            assert!((got - want).abs() < 1e-12);
        }
    }

    #[test]
    fn pinv_of_invertible_is_inverse() {
        let a = Matrix::from_vec(2, 2, vec![4.0, 7.0, 2.0, 6.0]);
        let p = pinv(&a, 1e-13);
        assert_close(&a.matmul(&p), &Matrix::identity(2), 1e-10);
        assert_close(&p.matmul(&a), &Matrix::identity(2), 1e-10);
    }

    #[test]
    fn pinv_moore_penrose_conditions() {
        // Rank-deficient: two identical columns.
        let a = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]);
        let p = pinv(&a, 1e-10);
        // A P A = A and P A P = P.
        assert_close(&a.matmul(&p).matmul(&a), &a, 1e-9);
        assert_close(&p.matmul(&a).matmul(&p), &p, 1e-9);
    }

    #[test]
    fn pinv_least_squares_solution() {
        // Overdetermined consistent system.
        let a = Matrix::from_vec(3, 2, vec![1.0, 0.0, 0.0, 1.0, 1.0, 1.0]);
        let x_true = [2.0, -1.0];
        let b = a.matvec(&x_true);
        let x = pinv(&a, 1e-13).matvec(&b);
        assert!((x[0] - 2.0).abs() < 1e-10 && (x[1] + 1.0).abs() < 1e-10);
    }
}
