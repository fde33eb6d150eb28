//! Cache-blocked, register-tiled multi-RHS GEMM for the translation engine.
//!
//! The KIFMM upward/downward passes apply one shared per-level operator to
//! every box at that level. Applied box-by-box (`Matrix::matvec_acc_scaled`)
//! the operator is re-streamed from memory once per box and the pass is
//! GEMV-bound. This module provides the BLAS-3 reformulation: the density
//! vectors of `m` boxes are packed as the columns of a column-major RHS
//! panel and the operator is applied to all of them in one call, so each
//! operator element is loaded once per `GEMM_NR` right-hand sides instead
//! of once per box.
//!
//! Numerical contract (relied on by `pfmm-core::translate` for bitwise
//! schedule-equality): every output element keeps a **single accumulator**
//! and consumes `k` in ascending order with plain mul/add — the exact
//! operation sequence of `matvec_acc_scaled` on that column. Parallelism
//! comes only from *independent* accumulator chains across the MR×NR
//! register block, so `gemm_acc_scaled` is bitwise identical to calling
//! `matvec_acc_scaled` once per column, on every dispatch tier (rustc does
//! not contract `a * b + c` into an FMA, so the AVX2/AVX-512 clones of the
//! microkernel vectorize across lanes without changing any per-element
//! rounding).

use crate::Matrix;

/// Microkernel row block: independent accumulator chains per output row.
pub const GEMM_MR: usize = 16;
/// Microkernel column block: right-hand sides sharing one operator load.
pub const GEMM_NR: usize = 4;

/// Reusable pack/product panels for [`gemm_acc_scaled_with`]: a caller
/// that issues many GEMMs (the per-level translation sweep) reuses one
/// scratch so the steady state allocates nothing. A default (empty)
/// scratch works for any operator shape — panels grow to the high-water
/// mark and are then reused.
#[derive(Default)]
pub struct GemmScratch {
    ap: Vec<f64>,
    bp: Vec<f64>,
    out: Vec<f64>,
}

impl GemmScratch {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        (self.ap.capacity() + self.bp.capacity() + self.out.capacity()) * std::mem::size_of::<f64>()
    }
}

/// `y[:, j] += a · x[:, j]` for `m` column vectors.
///
/// `x` is a column-major panel of `m` columns of length `a.cols()`;
/// `y` is a column-major panel of `m` columns of length `a.rows()`.
pub fn gemm_acc(a: &Matrix, x: &[f64], y: &mut [f64], m: usize) {
    gemm_acc_scaled(a, x, y, m, 1.0);
}

/// `y[:, j] += s * (a · x[:, j])` for `m` column vectors, with the scale
/// applied to each completed dot product — the `matvec_acc_scaled`
/// convention, column by column, bitwise.
pub fn gemm_acc_scaled(a: &Matrix, x: &[f64], y: &mut [f64], m: usize, s: f64) {
    gemm_acc_scaled_with(a, x, y, m, s, &mut GemmScratch::default());
}

/// [`gemm_acc_scaled`] reusing caller-owned pack panels: alloc-free once
/// the scratch has warmed to the largest operator/panel shape, bitwise
/// identical results (the panels are re-zeroed identically each call).
pub fn gemm_acc_scaled_with(
    a: &Matrix,
    x: &[f64],
    y: &mut [f64],
    m: usize,
    s: f64,
    sc: &mut GemmScratch,
) {
    let (rows, cols) = (a.rows(), a.cols());
    assert_eq!(x.len(), cols * m, "gemm: x panel length");
    assert_eq!(y.len(), rows * m, "gemm: y panel length");
    if rows == 0 || cols == 0 || m == 0 {
        return;
    }
    let nrb = rows.div_ceil(GEMM_MR);
    let ncb = m.div_ceil(GEMM_NR);

    // Pack A into MR-row panels: panel `ib` holds rows [ib*MR, ib*MR+MR)
    // interleaved as [k*MR + r], zero-padded past the last real row. The
    // microkernel then streams both panels with unit stride.
    sc.ap.clear();
    sc.ap.resize(nrb * GEMM_MR * cols, 0.0);
    let ap = &mut sc.ap;
    for ib in 0..nrb {
        let panel = &mut ap[ib * GEMM_MR * cols..(ib + 1) * GEMM_MR * cols];
        for r in 0..GEMM_MR {
            let i = ib * GEMM_MR + r;
            if i >= rows {
                break;
            }
            for (k, &v) in a.row(i).iter().enumerate() {
                panel[k * GEMM_MR + r] = v;
            }
        }
    }

    // Pack the RHS into NR-column panels [k*NR + c], zero-padded past the
    // last real column (padded columns are computed and discarded).
    sc.bp.clear();
    sc.bp.resize(ncb * GEMM_NR * cols, 0.0);
    let bp = &mut sc.bp;
    for jb in 0..ncb {
        let panel = &mut bp[jb * GEMM_NR * cols..(jb + 1) * GEMM_NR * cols];
        for c in 0..GEMM_NR {
            let j = jb * GEMM_NR + c;
            if j >= m {
                break;
            }
            for (k, &v) in x[j * cols..(j + 1) * cols].iter().enumerate() {
                panel[k * GEMM_NR + c] = v;
            }
        }
    }

    // Compute into a padded column-major product panel, then fold the
    // scaled result into `y`. Per element this is `y += s * dot`, the
    // same two operations `matvec_acc_scaled` performs.
    let rows_p = nrb * GEMM_MR;
    sc.out.clear();
    sc.out.resize(rows_p * ncb * GEMM_NR, 0.0);
    let out = &mut sc.out;
    gemm_panels(ap, bp, nrb, ncb, cols, rows_p, out);
    for j in 0..m {
        let oc = &out[j * rows_p..j * rows_p + rows];
        for (yv, &ov) in y[j * rows..(j + 1) * rows].iter_mut().zip(oc) {
            *yv += s * ov;
        }
    }
}

/// Packed-panel product: for each (row block, column block) pair an MR×NR
/// register tile of accumulators walks `k` in ascending order. The B panel
/// for one column block (`cols * NR` doubles) stays L1/L2-resident across
/// all row blocks, and each A element is loaded once per NR columns — the
/// panel-level cache blocking that makes the pass BLAS-3.
#[inline(always)]
fn gemm_panels_body(
    ap: &[f64],
    bp: &[f64],
    nrb: usize,
    ncb: usize,
    k: usize,
    rows_p: usize,
    out: &mut [f64],
) {
    for jb in 0..ncb {
        let bpanel = &bp[jb * GEMM_NR * k..(jb + 1) * GEMM_NR * k];
        for ib in 0..nrb {
            let apanel = &ap[ib * GEMM_MR * k..(ib + 1) * GEMM_MR * k];
            let mut acc = [[0.0f64; GEMM_NR]; GEMM_MR];
            for (ak, bk) in apanel
                .chunks_exact(GEMM_MR)
                .zip(bpanel.chunks_exact(GEMM_NR))
            {
                for r in 0..GEMM_MR {
                    let av = ak[r];
                    for c in 0..GEMM_NR {
                        acc[r][c] += av * bk[c];
                    }
                }
            }
            for c in 0..GEMM_NR {
                let col = &mut out[(jb * GEMM_NR + c) * rows_p + ib * GEMM_MR..][..GEMM_MR];
                for (r, cv) in col.iter_mut().enumerate() {
                    *cv = acc[r][c];
                }
            }
        }
    }
}

crate::simd_dispatch!(
    fn gemm_panels(
        ap: &[f64],
        bp: &[f64],
        nrb: usize,
        ncb: usize,
        k: usize,
        rows_p: usize,
        out: &mut [f64],
    ) => gemm_panels_body
);

#[cfg(test)]
mod tests {
    use super::*;

    fn mat(rows: usize, cols: usize, seed: u64) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((j as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
                .wrapping_add(seed);
            (h % 1000) as f64 / 250.0 - 2.0
        })
    }

    fn panel(len: usize, m: usize, seed: u64) -> Vec<f64> {
        (0..len * m)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x94d0_49bb_1331_11eb)
                    .wrapping_add(seed);
                (h % 997) as f64 / 300.0 - 1.6
            })
            .collect()
    }

    /// The GEMM is bitwise identical to one matvec_acc_scaled per column —
    /// the contract the translation engine's scatter ordering relies on.
    #[test]
    fn gemm_bitwise_matches_per_column_matvec() {
        for &(rows, cols, m, s) in &[
            (1usize, 1usize, 1usize, 1.0f64),
            (4, 8, 8, 1.0),
            (5, 3, 2, -0.75),
            (17, 29, 11, 2.5),
            (152, 152, 37, 0.125),
            (96, 33, 1, 3.0),
            (3, 64, 23, -1.0),
        ] {
            let a = mat(rows, cols, 7);
            let x = panel(cols, m, 99);
            let mut y = panel(rows, m, 1234);
            let mut want = y.clone();
            for j in 0..m {
                a.matvec_acc_scaled(
                    &x[j * cols..(j + 1) * cols],
                    &mut want[j * rows..(j + 1) * rows],
                    s,
                );
            }
            gemm_acc_scaled(&a, &x, &mut y, m, s);
            for (j, (got, exp)) in y.iter().zip(&want).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    exp.to_bits(),
                    "({rows}x{cols}, m={m}, s={s}) element {j}: {got} vs {exp}"
                );
            }
        }
    }

    /// gemm_acc is the unscaled accumulate (s = 1 is exact).
    #[test]
    fn gemm_acc_matches_matvec_acc() {
        let a = mat(23, 17, 3);
        let x = panel(17, 9, 55);
        let mut y = vec![0.0; 23 * 9];
        gemm_acc(&a, &x, &mut y, 9);
        for j in 0..9 {
            let mut want = vec![0.0; 23];
            a.matvec_acc(&x[j * 17..(j + 1) * 17], &mut want);
            for (got, exp) in y[j * 23..(j + 1) * 23].iter().zip(&want) {
                assert_eq!(got.to_bits(), exp.to_bits());
            }
        }
    }

    /// Accumulation: existing y contents are preserved and added to.
    #[test]
    fn gemm_accumulates_into_existing_panel() {
        let a = mat(8, 8, 11);
        let x = panel(8, 4, 2);
        let mut y = panel(8, 4, 77);
        let base = y.clone();
        gemm_acc_scaled(&a, &x, &mut y, 4, 0.5);
        let mut fresh = vec![0.0; 8 * 4];
        gemm_acc_scaled(&a, &x, &mut fresh, 4, 0.5);
        for ((got, b), f) in y.iter().zip(&base).zip(&fresh) {
            assert_eq!(got.to_bits(), (b + f).to_bits());
        }
    }

    #[test]
    fn gemm_empty_panel_is_noop() {
        let a = mat(5, 5, 1);
        let mut y: Vec<f64> = vec![];
        gemm_acc_scaled(&a, &[], &mut y, 0, 2.0);
    }
}
