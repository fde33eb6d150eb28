//! Branch-free SoA tile microkernels for the near field (U-list).
//!
//! The paper's GPU U-list kernel (Algorithm 4) owes its throughput to two
//! ideas: a padded, coalescing-friendly point layout, and the branch-free
//! `max(NaN, x)` self-interaction trick. This module is the f64 CPU
//! analogue. Points and densities arrive as separate x/y/z/density
//! *planes* whose source length is a multiple of [`LANE`]; padding lanes
//! carry zero density at a far-away sentinel position (see
//! `pfmm-core::nearfield` and `pfmm-gpusim::layout`), so they contribute
//! exactly `0.0` without any branch. Each kernel body is monomorphized —
//! there is no `dyn` dispatch inside the tile loop; the single virtual
//! call happens once per U-edge through [`TileKernel::eval_tiles`].
//!
//! # The guarded reciprocal distance
//!
//! The hot loop computes `1/r` with a bit-hack Newton reciprocal square
//! root (no hardware `sqrt`/`div` in the dependent chain — on wide SIMD
//! the whole body compiles to pipelined FMAs), then applies the paper's
//! trick literally: one division produces `g = 1/r²`, which is `+∞` at a
//! coincident pair, `g − g` is then `NaN` there and `0.0` everywhere
//! else, and `max(NaN, 0.0) = 0.0` in IEEE arithmetic zeroes the self
//! term without a branch.

use crate::dipole::LaplaceDipole;
use crate::kernel::Kernel;
use crate::laplace::Laplace;
use crate::stokes::Stokes;
use crate::yukawa::Yukawa;

/// SIMD lane width the source planes are padded to (f64 lanes of one
/// AVX-512 register / two AVX2 registers).
pub const LANE: usize = 8;

const INV_4PI: f64 = 1.0 / (4.0 * std::f64::consts::PI);

/// One U-edge worth of SoA planes: `nt` targets against `ns` sources,
/// `ns` a multiple of [`LANE`].
///
/// `den` holds `source_dim` planes of `ns` entries each, back to back
/// (plane-major per box), so lane `l` of chunk `k` reads component `c`
/// at `den[c*ns + k*LANE + l]`.
#[derive(Clone, Copy)]
pub struct Tiles<'a> {
    /// Target x/y/z planes, `nt` entries each (targets are not padded —
    /// the outer loop walks real targets only).
    pub tx: &'a [f64],
    pub ty: &'a [f64],
    pub tz: &'a [f64],
    /// Source x/y/z planes, `ns` entries each, `ns % LANE == 0`; padding
    /// lanes sit at the sentinel position `(−1e9, −1e9, −1e9)`.
    pub sx: &'a [f64],
    pub sy: &'a [f64],
    pub sz: &'a [f64],
    /// `source_dim` density planes of `ns` entries; padding lanes are 0.
    pub den: &'a [f64],
}

impl Tiles<'_> {
    #[inline]
    fn check(&self, sd: usize, td: usize, out: &[f64]) {
        let (nt, ns) = (self.tx.len(), self.sx.len());
        debug_assert_eq!(ns % LANE, 0, "source planes padded to LANE");
        debug_assert!(self.ty.len() == nt && self.tz.len() == nt);
        debug_assert!(self.sy.len() == ns && self.sz.len() == ns);
        debug_assert_eq!(self.den.len(), sd * ns, "density plane packing");
        debug_assert_eq!(out.len(), nt * td, "output packing");
    }
}

/// A kernel that provides monomorphized SoA tile microkernels for the
/// near field. Obtained from a `&dyn Kernel` via
/// [`Kernel::as_tile_kernel`]; kernels without an implementation fall
/// back to the scalar U-list path.
pub trait TileKernel: Kernel {
    /// Accumulate `out += Σ K(x_i, y_j) s_j` over all (target,
    /// source-lane) pairs of one U-edge. `out` is packed `target_dim`
    /// per target point. Padding lanes contribute exactly `0.0`; a
    /// coincident target/source pair contributes exactly `0.0` (the
    /// `max(NaN, x)` trick), bitwise independent of how callers batch
    /// source boxes.
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]);
}

/// Bit-hack Newton–Raphson reciprocal square root.
///
/// The magic-constant seed (Lomont's double-precision constant) is
/// accurate to ~3.4e-2; four Newton steps square that error down to a
/// couple of ulps (~1e-16 relative), well inside the near field's 1e-12
/// budget. Valid for normal `r2`; the FMM's unit-cube point sets produce
/// `r2 ≥ ~1e-32` (adjacent f64 coordinates), far from the subnormal
/// range where the exponent hack degrades.
#[inline(always)]
fn rsqrt_newton(r2: f64) -> f64 {
    let mut y = f64::from_bits(0x5FE6_EB50_C7B5_37A9u64.wrapping_sub(r2.to_bits() >> 1));
    y *= 1.5 - 0.5 * r2 * y * y;
    y *= 1.5 - 0.5 * r2 * y * y;
    y *= 1.5 - 0.5 * r2 * y * y;
    y *= 1.5 - 0.5 * r2 * y * y;
    y
}

/// Guarded reciprocal distance: `1/√r2` for `r2 > 0`, exactly `0.0` at
/// `r2 == 0` via the paper's `max(NaN, x)` idiom (see module docs).
#[inline(always)]
fn inv_r_guarded(r2: f64) -> f64 {
    let inv = rsqrt_newton(r2);
    let g = 1.0 / r2; // +∞ at a coincident pair
                      // Intentional self-subtraction: ∞ − ∞ = NaN, and max(NaN, 0) = 0
                      // suppresses the self term branch-free (finite g gives exactly 0).
    #[allow(clippy::eq_op)]
    let guard = g - g;
    (inv + guard).max(0.0)
}

/// Targets per register block: the Newton chain is a serial dependency
/// per lane vector, so a single target leaves the FMA pipeline mostly
/// idle; interleaving this many independent chains fills it. Per-target
/// accumulation order is unchanged by the blocking (each target owns its
/// accumulator and sees sources in the same sequence), so results are
/// bitwise identical to the unblocked loop.
const TB: usize = 4;

// Every tile body walks its coordinate and density planes through
// `chunks_exact(LANE)` zips, never through computed offsets like
// `den[k * LANE + l]`: the bounds checks on a computed index stay in the
// inner loop and keep LLVM from vectorizing it.

/// `K(x,y) = 1/(4π r)`, scalar density.
#[inline(always)]
fn laplace_tiles(t: Tiles<'_>, out: &mut [f64]) {
    let nt = out.len();
    let mut i = 0;
    while i + TB <= nt {
        let xs: [f64; TB] = t.tx[i..i + TB].try_into().expect("TB targets");
        let ys: [f64; TB] = t.ty[i..i + TB].try_into().expect("TB targets");
        let zs: [f64; TB] = t.tz[i..i + TB].try_into().expect("TB targets");
        let mut acc = [[0.0f64; LANE]; TB];
        for (((cx, cy), cz), cd) in
            t.sx.chunks_exact(LANE)
                .zip(t.sy.chunks_exact(LANE))
                .zip(t.sz.chunks_exact(LANE))
                .zip(t.den.chunks_exact(LANE))
        {
            for u in 0..TB {
                for l in 0..LANE {
                    let dx = xs[u] - cx[l];
                    let dy = ys[u] - cy[l];
                    let dz = zs[u] - cz[l];
                    let r2 = dx * dx + dy * dy + dz * dz;
                    acc[u][l] += cd[l] * inv_r_guarded(r2);
                }
            }
        }
        for u in 0..TB {
            out[i + u] += acc[u].iter().sum::<f64>() * INV_4PI;
        }
        i += TB;
    }
    for (o, i) in out[i..].iter_mut().zip(i..nt) {
        let (x, y, z) = (t.tx[i], t.ty[i], t.tz[i]);
        let mut acc = [0.0f64; LANE];
        for (((cx, cy), cz), cd) in
            t.sx.chunks_exact(LANE)
                .zip(t.sy.chunks_exact(LANE))
                .zip(t.sz.chunks_exact(LANE))
                .zip(t.den.chunks_exact(LANE))
        {
            for l in 0..LANE {
                let dx = x - cx[l];
                let dy = y - cy[l];
                let dz = z - cz[l];
                let r2 = dx * dx + dy * dy + dz * dz;
                acc[l] += cd[l] * inv_r_guarded(r2);
            }
        }
        *o += acc.iter().sum::<f64>() * INV_4PI;
    }
}

/// `K(x,y) = e^{−λr}/(4π r)`, scalar density. The `exp` is a scalar
/// libm call per lane, so this body is exp-bound rather than FMA-bound;
/// the tile layout still wins the memory traffic.
#[inline(always)]
fn yukawa_tiles(lambda: f64, t: Tiles<'_>, out: &mut [f64]) {
    for (i, o) in out.iter_mut().enumerate() {
        let (x, y, z) = (t.tx[i], t.ty[i], t.tz[i]);
        let mut acc = [0.0f64; LANE];
        for (((cx, cy), cz), cd) in
            t.sx.chunks_exact(LANE)
                .zip(t.sy.chunks_exact(LANE))
                .zip(t.sz.chunks_exact(LANE))
                .zip(t.den.chunks_exact(LANE))
        {
            for l in 0..LANE {
                let dx = x - cx[l];
                let dy = y - cy[l];
                let dz = z - cz[l];
                let r2 = dx * dx + dy * dy + dz * dz;
                let inv = inv_r_guarded(r2);
                // r = r2·(1/r): exactly 0 at a self pair (inv = 0), so
                // exp(0)·inv = 0 keeps the suppression intact.
                let r = r2 * inv;
                acc[l] += cd[l] * (-lambda * r).exp() * inv;
            }
        }
        *o += acc.iter().sum::<f64>() * INV_4PI;
    }
}

/// Stokeslet: `u_i += c (f_i/r + r_i (f·r)/r³)`, 3-vector density and
/// potential, `c = 1/(8πμ)`. One target at a time: each lane already
/// carries ~50 independent flops, and blocking [`TB`] targets the way
/// [`laplace_tiles`] does measured no faster (DESIGN §9).
#[inline(always)]
fn stokes_tiles(c: f64, t: Tiles<'_>, out: &mut [f64]) {
    let ns = t.sx.len();
    let (fx, rest) = t.den.split_at(ns);
    let (fy, fz) = rest.split_at(ns);
    for (((o, &x), &y), &z) in out.chunks_exact_mut(3).zip(t.tx).zip(t.ty).zip(t.tz) {
        let mut ax = [0.0f64; LANE];
        let mut ay = [0.0f64; LANE];
        let mut az = [0.0f64; LANE];
        for (((((cx, cy), cz), gx), gy), gz) in
            t.sx.chunks_exact(LANE)
                .zip(t.sy.chunks_exact(LANE))
                .zip(t.sz.chunks_exact(LANE))
                .zip(fx.chunks_exact(LANE))
                .zip(fy.chunks_exact(LANE))
                .zip(fz.chunks_exact(LANE))
        {
            for l in 0..LANE {
                let dx = x - cx[l];
                let dy = y - cy[l];
                let dz = z - cz[l];
                let r2 = dx * dx + dy * dy + dz * dz;
                let inv = inv_r_guarded(r2);
                let r3 = inv * inv * inv;
                let fdr = (gx[l] * dx + gy[l] * dy + gz[l] * dz) * r3;
                ax[l] += gx[l] * inv + dx * fdr;
                ay[l] += gy[l] * inv + dy * fdr;
                az[l] += gz[l] * inv + dz * fdr;
            }
        }
        o[0] += ax.iter().sum::<f64>() * c;
        o[1] += ay.iter().sum::<f64>() * c;
        o[2] += az.iter().sum::<f64>() * c;
    }
}

/// Laplace dipole: `pot += (r·d)/(4π r³)`, 3-vector moment density,
/// scalar potential. Register-blocked like [`laplace_tiles`], the ragged
/// tail one target at a time through the same body.
#[inline(always)]
fn dipole_tiles(t: Tiles<'_>, out: &mut [f64]) {
    let nt = out.len();
    let mut i = 0;
    while i + TB <= nt {
        dipole_block::<TB>(&t, i, out);
        i += TB;
    }
    for i in i..nt {
        dipole_block::<1>(&t, i, out);
    }
}

/// Targets `i..i + B` of [`dipole_tiles`].
#[inline(always)]
fn dipole_block<const B: usize>(t: &Tiles<'_>, i: usize, out: &mut [f64]) {
    let ns = t.sx.len();
    let (mx, rest) = t.den.split_at(ns);
    let (my, mz) = rest.split_at(ns);
    let xs: [f64; B] = t.tx[i..i + B].try_into().expect("B targets");
    let ys: [f64; B] = t.ty[i..i + B].try_into().expect("B targets");
    let zs: [f64; B] = t.tz[i..i + B].try_into().expect("B targets");
    let mut acc = [[0.0f64; LANE]; B];
    for (((((cx, cy), cz), gx), gy), gz) in
        t.sx.chunks_exact(LANE)
            .zip(t.sy.chunks_exact(LANE))
            .zip(t.sz.chunks_exact(LANE))
            .zip(mx.chunks_exact(LANE))
            .zip(my.chunks_exact(LANE))
            .zip(mz.chunks_exact(LANE))
    {
        for u in 0..B {
            for l in 0..LANE {
                let dx = xs[u] - cx[l];
                let dy = ys[u] - cy[l];
                let dz = zs[u] - cz[l];
                let r2 = dx * dx + dy * dy + dz * dz;
                let inv = inv_r_guarded(r2);
                let r3 = inv * inv * inv;
                acc[u][l] += (dx * gx[l] + dy * gy[l] + dz * gz[l]) * r3;
            }
        }
    }
    for u in 0..B {
        out[i + u] += acc[u].iter().sum::<f64>() * INV_4PI;
    }
}

// One runtime-dispatched entry per tile body (`pfmm_linalg::simd_dispatch!`:
// AVX-512 → AVX2+FMA → portable, bitwise identical across tiers).
pfmm_linalg::simd_dispatch!(fn laplace_eval(t: Tiles<'_>, out: &mut [f64]) => laplace_tiles);
pfmm_linalg::simd_dispatch!(
    fn yukawa_eval(lambda: f64, t: Tiles<'_>, out: &mut [f64]) => yukawa_tiles
);
pfmm_linalg::simd_dispatch!(fn stokes_eval(c: f64, t: Tiles<'_>, out: &mut [f64]) => stokes_tiles);
pfmm_linalg::simd_dispatch!(fn dipole_eval(t: Tiles<'_>, out: &mut [f64]) => dipole_tiles);

impl TileKernel for Laplace {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(1, 1, out);
        laplace_eval(t, out);
    }
}

impl TileKernel for Yukawa {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(1, 1, out);
        yukawa_eval(self.lambda, t, out);
    }
}

impl TileKernel for Stokes {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(3, 3, out);
        stokes_eval(1.0 / (8.0 * std::f64::consts::PI * self.mu), t, out);
    }
}

impl TileKernel for LaplaceDipole {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(3, 1, out);
        dipole_eval(t, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::direct::direct_eval;
    use crate::Point3;

    /// Sentinel position of padding lanes (mirrors `pfmm-gpusim`'s
    /// `[-1e9; 3]` source padding in f64).
    const PAD_POS: f64 = -1.0e9;

    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / (1u64 << 53) as f64
    }

    /// Pack AoS points + per-point densities into padded SoA planes.
    fn pack(src: &[Point3], den: &[f64], sd: usize) -> (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>) {
        let ns = src.len().div_ceil(LANE) * LANE;
        let mut sx = vec![PAD_POS; ns];
        let mut sy = vec![PAD_POS; ns];
        let mut sz = vec![PAD_POS; ns];
        let mut d = vec![0.0; sd * ns];
        for (j, p) in src.iter().enumerate() {
            sx[j] = p[0];
            sy[j] = p[1];
            sz[j] = p[2];
            for c in 0..sd {
                d[c * ns + j] = den[j * sd + c];
            }
        }
        (sx, sy, sz, d)
    }

    /// Clustered targets/sources with a coincident pair, evaluated both
    /// ways; `scale` normalizes the relative error.
    fn check_against_scalar<K: Kernel + TileKernel>(k: &K, tol: f64) {
        let (sd, td) = (k.source_dim(), k.target_dim());
        let mut st = 42u64;
        let mut tgts: Vec<Point3> = (0..13)
            .map(|_| [lcg(&mut st), lcg(&mut st), lcg(&mut st)])
            .collect();
        // Cluster half the sources tightly around the first target and
        // make one source exactly coincident with it.
        let mut srcs: Vec<Point3> = (0..21)
            .map(|i| {
                if i < 10 {
                    let c = tgts[0];
                    [
                        c[0] + 1e-4 * (lcg(&mut st) - 0.5),
                        c[1] + 1e-4 * (lcg(&mut st) - 0.5),
                        c[2] + 1e-4 * (lcg(&mut st) - 0.5),
                    ]
                } else {
                    [lcg(&mut st), lcg(&mut st), lcg(&mut st)]
                }
            })
            .collect();
        srcs[0] = tgts[0];
        tgts[7] = srcs[15];
        let den: Vec<f64> = (0..srcs.len() * sd).map(|_| lcg(&mut st) - 0.5).collect();

        let mut want = vec![0.0; tgts.len() * td];
        direct_eval(k, &tgts, &srcs, &den, &mut want);

        let (sx, sy, sz, d) = pack(&srcs, &den, sd);
        let tx: Vec<f64> = tgts.iter().map(|p| p[0]).collect();
        let ty: Vec<f64> = tgts.iter().map(|p| p[1]).collect();
        let tz: Vec<f64> = tgts.iter().map(|p| p[2]).collect();
        let mut got = vec![0.0; tgts.len() * td];
        k.eval_tiles(
            Tiles {
                tx: &tx,
                ty: &ty,
                tz: &tz,
                sx: &sx,
                sy: &sy,
                sz: &sz,
                den: &d,
            },
            &mut got,
        );

        let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= tol * scale,
                "{}: {g} vs {w} (scale {scale})",
                k.name()
            );
        }
    }

    #[test]
    fn laplace_matches_scalar_with_coincident_pairs() {
        check_against_scalar(&Laplace, 1e-13);
    }

    #[test]
    fn yukawa_matches_scalar_with_coincident_pairs() {
        check_against_scalar(&Yukawa { lambda: 2.5 }, 1e-13);
    }

    #[test]
    fn stokes_matches_scalar_with_coincident_pairs() {
        check_against_scalar(&Stokes { mu: 0.7 }, 1e-13);
    }

    #[test]
    fn dipole_matches_scalar_with_coincident_pairs() {
        check_against_scalar(&LaplaceDipole, 1e-13);
    }

    #[test]
    fn padding_lanes_contribute_nothing() {
        // 3 real sources → 8 padded lanes; the padded evaluation must
        // equal the 3-source scalar sum exactly (padding density is 0).
        let tgts: Vec<Point3> = vec![[0.1, 0.2, 0.3], [0.9, 0.4, 0.6]];
        let srcs: Vec<Point3> = vec![[0.5, 0.5, 0.5], [0.2, 0.8, 0.1], [0.7, 0.3, 0.9]];
        let den = [1.0, -2.0, 0.5];
        let (sx, sy, sz, d) = pack(&srcs, &den, 1);
        assert_eq!(sx.len(), LANE);
        let tx: Vec<f64> = tgts.iter().map(|p| p[0]).collect();
        let ty: Vec<f64> = tgts.iter().map(|p| p[1]).collect();
        let tz: Vec<f64> = tgts.iter().map(|p| p[2]).collect();
        let mut padded = vec![0.0; 2];
        Laplace.eval_tiles(
            Tiles {
                tx: &tx,
                ty: &ty,
                tz: &tz,
                sx: &sx,
                sy: &sy,
                sz: &sz,
                den: &d,
            },
            &mut padded,
        );
        let mut want = vec![0.0; 2];
        direct_eval(&Laplace, &tgts, &srcs, &den, &mut want);
        for (p, w) in padded.iter().zip(&want) {
            assert!((p - w).abs() < 1e-13 * w.abs().max(1.0));
        }
    }

    #[test]
    fn coincident_tile_is_exactly_zero() {
        // A box interacting with itself through a single coincident
        // point: the NaN-max trick must produce exactly 0.0, not NaN.
        let p: Vec<Point3> = vec![[0.5, 0.5, 0.5]];
        let (sx, sy, sz, d) = pack(&p, &[7.0], 1);
        let mut out = vec![0.0; 1];
        Laplace.eval_tiles(
            Tiles {
                tx: &[0.5],
                ty: &[0.5],
                tz: &[0.5],
                sx: &sx,
                sy: &sy,
                sz: &sz,
                den: &d,
            },
            &mut out,
        );
        assert_eq!(out[0], 0.0);
    }

    #[test]
    fn accumulation_is_deterministic_across_calls() {
        // Splitting the sources over two eval_tiles calls in fixed order
        // must be bitwise equal to any rerun of the same split — the
        // property thread-count invariance relies on.
        let mut st = 7u64;
        let srcs: Vec<Point3> = (0..20)
            .map(|_| [lcg(&mut st), lcg(&mut st), lcg(&mut st)])
            .collect();
        let den: Vec<f64> = (0..20).map(|_| lcg(&mut st) - 0.5).collect();
        let tgt = Tiles {
            tx: &[0.4],
            ty: &[0.5],
            tz: &[0.6],
            sx: &[],
            sy: &[],
            sz: &[],
            den: &[],
        };
        let eval_split = || {
            let mut out = vec![0.0; 1];
            for part in [&srcs[..8], &srcs[8..]] {
                let off = if part.len() == 8 { 0 } else { 8 };
                let (sx, sy, sz, d) = pack(part, &den[off..off + part.len()], 1);
                Laplace.eval_tiles(
                    Tiles {
                        sx: &sx,
                        sy: &sy,
                        sz: &sz,
                        den: &d,
                        ..tgt
                    },
                    &mut out,
                );
            }
            out[0]
        };
        assert_eq!(eval_split().to_bits(), eval_split().to_bits());
    }

    /// The Stokes and dipole tile bodies against per-target reference
    /// loops — plain indices, each lane accumulator fed in source order —
    /// compared bit for bit: neither the plane zips nor the dipole's
    /// register blocking may change any target's accumulation order.
    #[test]
    fn tile_bodies_match_per_target_reference_bitwise() {
        // 11 targets: two dipole TB blocks plus a ragged tail of 3; 21 sources
        // padded to 24 lanes; target 5 coincides with source 9.
        let mut st = 3u64;
        let mut tgts: Vec<Point3> = (0..11)
            .map(|_| [lcg(&mut st), lcg(&mut st), lcg(&mut st)])
            .collect();
        let srcs: Vec<Point3> = (0..21)
            .map(|_| [lcg(&mut st), lcg(&mut st), lcg(&mut st)])
            .collect();
        tgts[5] = srcs[9];
        let den: Vec<f64> = (0..srcs.len() * 3).map(|_| lcg(&mut st) - 0.5).collect();
        let (sx, sy, sz, d) = pack(&srcs, &den, 3);
        assert!(sx.len() > srcs.len() && !tgts.len().is_multiple_of(TB));
        let tx: Vec<f64> = tgts.iter().map(|p| p[0]).collect();
        let ty: Vec<f64> = tgts.iter().map(|p| p[1]).collect();
        let tz: Vec<f64> = tgts.iter().map(|p| p[2]).collect();
        let t = Tiles {
            tx: &tx,
            ty: &ty,
            tz: &tz,
            sx: &sx,
            sy: &sy,
            sz: &sz,
            den: &d,
        };
        let ns = sx.len();
        let geom = |i: usize, j: usize| {
            let (dx, dy, dz) = (tx[i] - sx[j], ty[i] - sy[j], tz[i] - sz[j]);
            let inv = inv_r_guarded(dx * dx + dy * dy + dz * dz);
            ([dx, dy, dz], inv, inv * inv * inv)
        };
        let g = |j: usize| [d[j], d[ns + j], d[2 * ns + j]];

        let stokes = Stokes { mu: 0.7 };
        let c = 1.0 / (8.0 * std::f64::consts::PI * stokes.mu);
        let mut want = vec![0.0; 3 * tgts.len()];
        for i in 0..tgts.len() {
            let mut a = [[0.0f64; LANE]; 3];
            for j in 0..ns {
                let ([dx, dy, dz], inv, r3) = geom(i, j);
                let [gx, gy, gz] = g(j);
                let fdr = (gx * dx + gy * dy + gz * dz) * r3;
                a[0][j % LANE] += gx * inv + dx * fdr;
                a[1][j % LANE] += gy * inv + dy * fdr;
                a[2][j % LANE] += gz * inv + dz * fdr;
            }
            for (o, ac) in want[3 * i..3 * i + 3].iter_mut().zip(&a) {
                *o += ac.iter().sum::<f64>() * c;
            }
        }
        let mut got = vec![0.0; 3 * tgts.len()];
        stokes.eval_tiles(t, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "stokes: {g} vs {w}");
        }

        let mut want = vec![0.0; tgts.len()];
        for (i, o) in want.iter_mut().enumerate() {
            let mut a = [0.0f64; LANE];
            for j in 0..ns {
                let ([dx, dy, dz], _, r3) = geom(i, j);
                let [gx, gy, gz] = g(j);
                a[j % LANE] += (dx * gx + dy * gy + dz * gz) * r3;
            }
            *o += a.iter().sum::<f64>() * INV_4PI;
        }
        let mut got = vec![0.0; tgts.len()];
        LaplaceDipole.eval_tiles(t, &mut got);
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.to_bits(), w.to_bits(), "dipole: {g} vs {w}");
        }
    }

    #[test]
    fn rsqrt_newton_is_accurate_over_wide_range() {
        // Covers the near field's whole dynamic range: adjacent unit-cube
        // coordinates (r2 ~ 1e-32) out to the padding sentinel (r2 ~ 1e19).
        for e in -32..=19 {
            for m in [1.0, 1.7, 3.2, 9.99] {
                let r2 = m * 10f64.powi(e);
                let got = rsqrt_newton(r2);
                let want = 1.0 / r2.sqrt();
                assert!(
                    ((got - want) / want).abs() < 1e-14,
                    "r2 = {r2}: {got} vs {want}"
                );
            }
        }
    }

    #[test]
    fn kernel_trait_exposes_tile_kernels() {
        let ks: [&dyn Kernel; 4] = [
            &Laplace,
            &Yukawa { lambda: 1.0 },
            &Stokes { mu: 1.0 },
            &LaplaceDipole,
        ];
        for k in ks {
            assert!(k.as_tile_kernel().is_some(), "{}", k.name());
        }
    }
}
