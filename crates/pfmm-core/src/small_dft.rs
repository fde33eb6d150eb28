//! Pruned, separable small DFTs on the batched-M2L translation torus.
//!
//! An order-`p` V-list translation is a circular convolution on an
//! `n = 2p` torus (paper §IV), but most of that torus is structurally
//! zero or never read:
//!
//! * a source grid is nonzero only in its `[0,p)³` corner (the surface
//!   points), so the forward transform needs only the `p²` z-rows and
//!   `p` x-planes that can hold data;
//! * the target reads back only the surface points inside the same
//!   corner, so the inverse computes only `x, y < p` and evaluates the
//!   real output at those points alone.
//!
//! `n` is small (8–20) and usually not a power of two, where a general
//! FFT falls back to Bluestein; a direct DFT against one precomputed
//! `n×n` twiddle table `e^{-2πi jk/n}` is cheaper at these sizes and
//! works for every even `n`. Each axis pass is a split-complex
//! multiply-accumulate over contiguous rows, the shape LLVM vectorizes.
//!
//! Conventions (the tests check both transforms against a DFT written
//! from its definition): grids are `[(x·e + y)·e + z]`, z fastest; half
//! spectra are `[(kx·n + ky)·h + kz]` with `h = n/2 + 1`; the forward
//! transform is unnormalized and the inverse carries `1/n³`.

/// The pruned transform pair for one torus side `n = 2p`.
pub struct PrunedDft3 {
    /// Corner extent (the surface order).
    p: usize,
    /// Torus side.
    n: usize,
    /// Half-spectrum z extent (`n/2 + 1`).
    h: usize,
    /// `e^{-2πi jk/n}` at `[k·n + j]`, split re/im (symmetric in `j, k`).
    tw_re: Vec<f64>,
    tw_im: Vec<f64>,
    /// c2r weights for `z < p`: `c_kz/n³ · tw[z·n + kz]` at `[z·h + kz]`.
    cz_re: Vec<f64>,
    cz_im: Vec<f64>,
}

/// Reusable split-complex staging for the axis passes. A default (empty)
/// scratch warms on first use and is then reused allocation-free.
#[derive(Default)]
pub struct DftScratch {
    a_re: Vec<f64>,
    a_im: Vec<f64>,
    b_re: Vec<f64>,
    b_im: Vec<f64>,
}

impl DftScratch {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        (self.a_re.capacity() + self.a_im.capacity() + self.b_re.capacity() + self.b_im.capacity())
            * std::mem::size_of::<f64>()
    }

    /// Size the two staging buffers (no allocation once warmed).
    fn size(&mut self, a: usize, b: usize) {
        for (v, len) in [
            (&mut self.a_re, a),
            (&mut self.a_im, a),
            (&mut self.b_re, b),
            (&mut self.b_im, b),
        ] {
            v.clear();
            v.resize(len, 0.0);
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Real multiply-adds executed by this thread's passes (test builds
    /// only), so the flop model can be checked against the loops.
    static MADDS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
fn count_madds(k: usize) {
    MADDS.with(|c| c.set(c.get() + k as u64));
}

#[cfg(not(test))]
#[inline(always)]
fn count_madds(_: usize) {}

impl PrunedDft3 {
    /// Plan the transforms for surface order `p >= 1` (torus side `2p`).
    pub fn new(p: usize) -> PrunedDft3 {
        assert!(p >= 1, "surface order must be positive");
        let n = 2 * p;
        let mut tw_re = vec![0.0; n * n];
        let mut tw_im = vec![0.0; n * n];
        for k in 0..n {
            for j in 0..n {
                // Reduce jk mod n first: angles stay in (-2π, 0], where
                // cos/sin lose no accuracy to argument reduction.
                let t = -2.0 * std::f64::consts::PI * ((j * k) % n) as f64 / n as f64;
                tw_re[k * n + j] = t.cos();
                tw_im[k * n + j] = t.sin();
            }
        }
        let h = n / 2 + 1;
        let norm = 1.0 / (n * n * n) as f64;
        let (mut cz_re, mut cz_im) = (vec![0.0; p * h], vec![0.0; p * h]);
        for z in 0..p {
            for kz in 0..h {
                let c = if kz == 0 || kz == n / 2 {
                    norm
                } else {
                    2.0 * norm
                };
                cz_re[z * h + kz] = c * tw_re[z * n + kz];
                cz_im[z * h + kz] = c * tw_im[z * n + kz];
            }
        }
        PrunedDft3 {
            p,
            n,
            h,
            tw_re,
            tw_im,
            cz_re,
            cz_im,
        }
    }

    /// Half-spectrum entries (`n²·(n/2 + 1)`).
    pub fn spectrum_len(&self) -> usize {
        self.n * self.n * self.h
    }

    /// Forward half-spectrum transform of a real grid supported on
    /// `[0,e)³` of the torus, given as the `e³` corner (`e = p` for a
    /// source surface, `e = n` for a full kernel grid). Writes the
    /// `n²·(n/2+1)` spectrum split-complex into `re`/`im`.
    pub fn forward(
        &self,
        grid: &[f64],
        e: usize,
        re: &mut [f64],
        im: &mut [f64],
        sc: &mut DftScratch,
    ) {
        let (n, h) = (self.n, self.h);
        assert!(e <= n, "support extent exceeds the torus");
        assert_eq!(grid.len(), e * e * e, "corner grid size");
        assert!(re.len() == self.spectrum_len() && im.len() == self.spectrum_len());
        sc.size(e * e * h, e * n * h);
        // z: real-to-half-complex per row, a[(x·e + y)·h + kz].
        for (row, (ar, ai)) in grid
            .chunks_exact(e)
            .zip(sc.a_re.chunks_exact_mut(h).zip(sc.a_im.chunks_exact_mut(h)))
        {
            for (z, &g) in row.iter().enumerate() {
                let (wr, wi) = (&self.tw_re[z * n..z * n + h], &self.tw_im[z * n..z * n + h]);
                for (((ar, ai), &wr), &wi) in ar.iter_mut().zip(ai.iter_mut()).zip(wr).zip(wi) {
                    *ar += g * wr;
                    *ai += g * wi;
                }
            }
        }
        count_madds(2 * e * e * e * h);
        // y: per x-plane, b[(x·n + ky)·h + kz] over e input rows.
        for x in 0..e {
            let (ir, ii) = (
                &sc.a_re[x * e * h..(x + 1) * e * h],
                &sc.a_im[x * e * h..(x + 1) * e * h],
            );
            let (or, oi) = (
                &mut sc.b_re[x * n * h..(x + 1) * n * h],
                &mut sc.b_im[x * n * h..(x + 1) * n * h],
            );
            self.pass(false, e, n, h, ir, ii, or, oi);
        }
        // x: whole (ky, kz) planes, straight into the output.
        self.pass(false, e, n, n * h, &sc.b_re, &sc.b_im, re, im);
    }

    /// Inverse of a half spectrum, evaluated only at `points` inside the
    /// `[0,p)³` corner: `out[t·stride] += x[points[t]]`, normalized by
    /// `1/n³`. The dropped `kz > n/2` half enters through the Hermitian
    /// weights `c_kz = 1` for `kz ∈ {0, n/2}` and `2` otherwise.
    pub fn inverse_at(
        &self,
        re: &[f64],
        im: &[f64],
        points: &[[usize; 3]],
        out: &mut [f64],
        stride: usize,
        sc: &mut DftScratch,
    ) {
        let (p, n, h) = (self.p, self.n, self.h);
        assert!(re.len() == self.spectrum_len() && im.len() == self.spectrum_len());
        assert!(points.is_empty() || out.len() > (points.len() - 1) * stride);
        sc.size(p * p * h, p * n * h);
        // x: b[(x·n + ky)·h + kz] for x < p.
        self.pass(true, n, p, n * h, re, im, &mut sc.b_re, &mut sc.b_im);
        // y: a[(x·p + y)·h + kz] for x, y < p.
        for x in 0..p {
            let (ir, ii) = (
                &sc.b_re[x * n * h..(x + 1) * n * h],
                &sc.b_im[x * n * h..(x + 1) * n * h],
            );
            let (or, oi) = (
                &mut sc.a_re[x * p * h..(x + 1) * p * h],
                &mut sc.a_im[x * p * h..(x + 1) * p * h],
            );
            self.pass(true, n, p, h, ir, ii, or, oi);
        }
        // z: c2r at the requested points only. Re(A·e^{+iθ}) with
        // e^{+iθ} = conj(tw) is `ar·tw_re + ai·tw_im`; the Hermitian
        // weights and 1/n³ are folded into the `cz` table.
        for (t, &[x, y, z]) in points.iter().enumerate() {
            assert!(x < p && y < p && z < p, "point outside the [0,p)³ corner");
            let row = (x * p + y) * h;
            let (ar, ai) = (&sc.a_re[row..row + h], &sc.a_im[row..row + h]);
            let (wr, wi) = (
                &self.cz_re[z * h..(z + 1) * h],
                &self.cz_im[z * h..(z + 1) * h],
            );
            let mut v = 0.0;
            for (((&ar, &ai), &wr), &wi) in ar.iter().zip(ai).zip(wr).zip(wi) {
                v += ar * wr + ai * wi;
            }
            out[t * stride] += v;
        }
        count_madds(2 * points.len() * h);
    }

    /// One complex axis pass over split rows of `len` values:
    /// `out[k] = Σ_{j<e} W(k,j)·in[j]` for `k < kout`, with
    /// `W(k,j) = e^{-2πi jk/n}`, conjugated when `inv`.
    #[allow(clippy::too_many_arguments)]
    fn pass(
        &self,
        inv: bool,
        e: usize,
        kout: usize,
        len: usize,
        in_re: &[f64],
        in_im: &[f64],
        out_re: &mut [f64],
        out_im: &mut [f64],
    ) {
        let n = self.n;
        let sign = if inv { -1.0 } else { 1.0 };
        for k in 0..kout {
            let or = &mut out_re[k * len..(k + 1) * len];
            let oi = &mut out_im[k * len..(k + 1) * len];
            or.fill(0.0);
            oi.fill(0.0);
            for j in 0..e {
                let (wr, wi) = (self.tw_re[k * n + j], sign * self.tw_im[k * n + j]);
                let (ir, ii) = (
                    &in_re[j * len..(j + 1) * len],
                    &in_im[j * len..(j + 1) * len],
                );
                for (((or, oi), &xr), &xi) in or.iter_mut().zip(oi.iter_mut()).zip(ir).zip(ii) {
                    *or += wr * xr - wi * xi;
                    *oi += wr * xi + wi * xr;
                }
            }
        }
        count_madds(4 * kout * e * len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::surface_grid_indices;
    use proptest::prelude::*;

    fn rand_real(len: usize, seed: u64) -> Vec<f64> {
        let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        (0..len)
            .map(|_| {
                s = s
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
            })
            .collect()
    }

    /// The half spectrum of a real grid supported on the `[0,e)³` corner
    /// of the `n³` torus, straight from the definition
    /// `X_k = Σ_j x_j e^{-2πi k·j/n}`, with one `n`-entry twiddle table
    /// indexed by `(k·j) mod n`.
    fn direct_half_spectrum(corner: &[f64], e: usize, n: usize) -> (Vec<f64>, Vec<f64>) {
        let h = n / 2 + 1;
        let (wr, wi): (Vec<f64>, Vec<f64>) = (0..n)
            .map(|m| {
                let t = -2.0 * std::f64::consts::PI * m as f64 / n as f64;
                (t.cos(), t.sin())
            })
            .unzip();
        (0..n * n * h)
            .map(|f| {
                let (kx, ky, kz) = (f / (n * h), f / h % n, f % h);
                let (mut re, mut im) = (0.0, 0.0);
                for (row, xs) in corner.chunks_exact(e).enumerate() {
                    // m = (kx·x + ky·y + kz·z) mod n along the z row.
                    let mut m = (kx * (row / e) + ky * (row % e)) % n;
                    for &v in xs {
                        re += v * wr[m];
                        im += v * wi[m];
                        m += kz;
                        if m >= n {
                            m -= n;
                        }
                    }
                }
                (re, im)
            })
            .unzip()
    }

    fn check_forward(p: usize, e: usize, seed: u64) {
        let n = 2 * p;
        let dft = PrunedDft3::new(p);
        let corner = rand_real(e * e * e, seed);
        let mut re = vec![0.0; dft.spectrum_len()];
        let mut im = vec![0.0; dft.spectrum_len()];
        dft.forward(&corner, e, &mut re, &mut im, &mut DftScratch::default());

        let (want_re, want_im) = direct_half_spectrum(&corner, e, n);
        let scale = want_re
            .iter()
            .zip(&want_im)
            .fold(0.0f64, |m, (r, i)| m.max(r.hypot(*i)));
        for (f, (wr, wi)) in want_re.iter().zip(&want_im).enumerate() {
            let err = (re[f] - wr).abs().max((im[f] - wi).abs());
            assert!(
                err <= 1e-12 * scale,
                "p={p} e={e} f={f}: ({}, {}) vs ({wr}, {wi})",
                re[f],
                im[f]
            );
        }
    }

    /// The inverse of the half spectrum of a real grid (built by the
    /// direct forward) gives the grid back at the surface indices.
    fn check_inverse(p: usize, seed: u64) {
        let n = 2 * p;
        let dft = PrunedDft3::new(p);
        let grid = rand_real(n * n * n, seed);
        let (re, im) = direct_half_spectrum(&grid, n, n);

        let surf = surface_grid_indices(p);
        // Strided accumulate: component 1 of 2, on top of a bias.
        let mut got = vec![0.5; 2 * surf.len()];
        dft.inverse_at(
            &re,
            &im,
            &surf,
            &mut got[1..],
            2,
            &mut DftScratch::default(),
        );
        let scale = grid.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for (t, m) in surf.iter().enumerate() {
            let want = grid[(m[0] * n + m[1]) * n + m[2]];
            assert!(
                (got[2 * t + 1] - 0.5 - want).abs() <= 1e-12 * scale,
                "p={p} {m:?}: {} vs {want}",
                got[2 * t + 1] - 0.5
            );
            assert_eq!(got[2 * t], 0.5, "stride respected");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

        /// Forward on `[0,p)³`-supported grids (sources) and on
        /// full-support grids (kernel tables) matches the direct DFT at
        /// every order 2..=10.
        #[test]
        fn forward_matches_direct_dft_on_corner_and_full_support(seed in 0u64..1_000_000) {
            for p in 2..=10 {
                check_forward(p, p, seed);
                check_forward(p, 2 * p, seed + 1);
            }
        }

        /// The inverse at the surface indices of a Hermitian half
        /// spectrum (the direct DFT of a real grid) recovers the grid
        /// there, at every order 2..=10.
        #[test]
        fn inverse_at_surface_recovers_the_grid(seed in 0u64..1_000_000) {
            for p in 2..=10 {
                check_inverse(p, seed);
            }
        }
    }

    /// The flop model charges exactly the real multiply-adds the passes
    /// execute (two flops each).
    #[test]
    fn flop_model_counts_executed_multiply_adds() {
        use crate::profile::flop_model;
        for p in [2usize, 4, 6, 8] {
            let n = 2 * p;
            let dft = PrunedDft3::new(p);
            let mut sc = DftScratch::default();
            let mut re = vec![0.0; dft.spectrum_len()];
            let mut im = vec![0.0; dft.spectrum_len()];
            let surf = surface_grid_indices(p);
            for e in [p, n] {
                MADDS.with(|c| c.set(0));
                dft.forward(&vec![1.0; e * e * e], e, &mut re, &mut im, &mut sc);
                let madds = MADDS.with(|c| c.get());
                assert_eq!(
                    2 * madds,
                    flop_model::pruned_dft_forward(n, e),
                    "p={p} e={e}"
                );
            }
            MADDS.with(|c| c.set(0));
            let mut out = vec![0.0; surf.len()];
            dft.inverse_at(&re, &im, &surf, &mut out, 1, &mut sc);
            let madds = MADDS.with(|c| c.get());
            assert_eq!(
                2 * madds,
                flop_model::pruned_dft_inverse(n, p, surf.len()),
                "p={p}"
            );
        }
    }
}
