//! Row-major dense matrices.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `f64` matrix.
///
/// Sized for the FMM's translation operators (up to ~10³ per side); all
/// kernels iterate rows in the outer loop so matvec streams memory.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)
    }
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Build by evaluating `f(i, j)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// The underlying row-major storage.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// The underlying row-major storage, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t[(j, i)] = self[(i, j)];
            }
        }
        t
    }

    /// `y += self * x`.
    ///
    /// Bitwise identical to `matvec_acc_scaled(x, y, 1.0)`: multiplying a
    /// completed dot product by exactly 1.0 never changes its bits.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn matvec_acc(&self, x: &[f64], y: &mut [f64]) {
        self.matvec_acc_scaled(x, y, 1.0);
    }

    /// `y += s * (self * x)` — the scaled accumulate used by the FMM's
    /// homogeneous-kernel operator rescaling.
    ///
    /// Rows are processed four at a time with one independent accumulator
    /// chain each, filling the FP add/mul pipelines; every row still sums
    /// `k` in ascending order with a single accumulator, so the result is
    /// bitwise identical to the plain row-at-a-time loop (property-tested
    /// in `tests/properties.rs`).
    pub fn matvec_acc_scaled(&self, x: &[f64], y: &mut [f64], s: f64) {
        assert_eq!(x.len(), self.cols, "matvec: x length");
        assert_eq!(y.len(), self.rows, "matvec: y length");
        if self.cols == 0 {
            return;
        }
        let nq = self.rows / 4 * 4;
        let (yq, yr) = y.split_at_mut(nq);
        let (dq, dr) = self.data.split_at(nq * self.cols);
        for (yy, quad) in yq.chunks_exact_mut(4).zip(dq.chunks_exact(4 * self.cols)) {
            let (r0, rest) = quad.split_at(self.cols);
            let (r1, rest) = rest.split_at(self.cols);
            let (r2, r3) = rest.split_at(self.cols);
            let (mut a0, mut a1, mut a2, mut a3) = (0.0f64, 0.0f64, 0.0f64, 0.0f64);
            for (((&v0, &v1), (&v2, &v3)), &xv) in r0.iter().zip(r1).zip(r2.iter().zip(r3)).zip(x) {
                a0 += v0 * xv;
                a1 += v1 * xv;
                a2 += v2 * xv;
                a3 += v3 * xv;
            }
            yy[0] += s * a0;
            yy[1] += s * a1;
            yy[2] += s * a2;
            yy[3] += s * a3;
        }
        for (yi, row) in yr.iter_mut().zip(dr.chunks_exact(self.cols)) {
            let mut acc = 0.0;
            for (a, b) in row.iter().zip(x) {
                acc += a * b;
            }
            *yi += s * acc;
        }
    }

    /// `self * x` as a fresh vector.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.rows];
        self.matvec_acc(x, &mut y);
        y
    }

    /// `self * other` as a fresh matrix.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "matmul: inner dimensions");
        // Column j of the product is `self · other[:, j]`: one multi-RHS
        // GEMM over the columns of `other` (the rows of its transpose),
        // giving the product column-major. Each entry is one ascending-k
        // accumulator of plain mul/add.
        let mut t = vec![0.0; self.rows * other.cols];
        crate::gemm::gemm_acc(self, other.transpose().as_slice(), &mut t, other.cols);
        Matrix::from_vec(other.cols, self.rows, t).transpose()
    }

    /// Scale every entry in place.
    pub fn scale(&mut self, s: f64) {
        for v in &mut self.data {
            *v *= s;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Maximum absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, v| m.max(v.abs()))
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_matvec_is_identity() {
        let m = Matrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.25];
        assert_eq!(m.matvec(&x), x);
    }

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        let b = Matrix::from_vec(3, 2, vec![7., 8., 9., 10., 11., 12.]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |i, j| (i * 5 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_acc_accumulates() {
        let a = Matrix::identity(3);
        let mut y = vec![1.0, 1.0, 1.0];
        a.matvec_acc(&[2.0, 3.0, 4.0], &mut y);
        assert_eq!(y, vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_vec(1, 2, vec![3.0, -4.0]);
        assert!((a.frobenius_norm() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
    }
}
