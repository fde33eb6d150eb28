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
//! root, then applies the paper's trick: a guard that is `NaN` at a
//! coincident pair and `0.0` everywhere else is added to `1/r`, and
//! `max(NaN, 0.0) = 0.0` in IEEE arithmetic zeroes the self term without
//! a branch. The guard is one compare, `r² > 2⁻¹⁰²⁴`, the condition for
//! `1/r²` to be finite. It used to be the division `g = 1/r²; g − g`,
//! which is `NaN` at exactly those `r²`, but a division costs as much as
//! the rest of the pair on AVX-512 (`vdivpd`). No `sqrt` or `div` is
//! left in a body.
//!
//! # Fused multiply-adds
//!
//! The bodies are bound by the FP issue ports, so they spell out their
//! FMAs with `f64::mul_add`: `r²`, each Newton step, the dot products and
//! every accumulation. `mul_add` is correctly rounded on every
//! `simd_dispatch!` tier — hardware FMA on AVX2 and AVX-512, libm `fma`
//! on the portable one — so the tiers stay bitwise equal
//! (`tests::dispatched_tiers_match_portable_bitwise`). The per-pair math
//! of each body is a set of `#[inline(always)]` helpers (`norm2`,
//! `inv_r_guarded`, `laplace_pair`, …) that the bitwise reference test
//! calls too.

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

/// Lomont's double-precision magic-constant seed of `1/√r2`, accurate
/// to ~3.4e-2 for normal `r2`.
#[inline(always)]
fn rsqrt_seed(r2: f64) -> f64 {
    f64::from_bits(0x5FE6_EB50_C7B5_37A9u64.wrapping_sub(r2.to_bits() >> 1))
}

/// Bit-hack Newton–Raphson reciprocal square root.
///
/// Four Newton steps `y ← y · fma(−r2/2, y², 1.5)` square the seed's
/// error down to a couple of ulps (~1e-16 relative), well inside the
/// near field's 1e-12 budget. Valid for normal `r2`; the FMM's unit-cube
/// point sets produce `r2 ≥ ~1e-32` (adjacent f64 coordinates), far from
/// the subnormal range where the exponent hack degrades.
#[inline(always)]
fn rsqrt_newton(r2: f64) -> f64 {
    let h = -0.5 * r2;
    let mut y = rsqrt_seed(r2);
    // Spelled out, not a `for` loop: unoptimized test builds would pay
    // a `Range::next` call per step.
    y *= h.mul_add(y * y, 1.5);
    y *= h.mul_add(y * y, 1.5);
    y *= h.mul_add(y * y, 1.5);
    y *= h.mul_add(y * y, 1.5);
    y
}

/// `2⁻¹⁰²⁴`, the largest `r²` whose reciprocal overflows to `+∞`: `1/r²`
/// is finite exactly when `r² > GUARD_R2`.
const GUARD_R2: f64 = f64::from_bits(1 << 50);

/// The self-interaction guard: `NaN` at a coincident pair, `+0.0`
/// elsewhere. One compare, `NaN` at exactly the `r²` where the division
/// form `g = 1/r²; g − g` is `NaN` (every `r² ≥ 0`, `+∞` and `NaN`
/// checked), so the guarded `1/r` is bit for bit the same.
#[inline(always)]
fn self_guard(r2: f64) -> f64 {
    if r2 > GUARD_R2 {
        0.0
    } else {
        f64::NAN
    }
}

/// Guarded reciprocal distance: `1/√r2` for `r2 > 0`, exactly `0.0` at
/// `r2 == 0` via the paper's `max(NaN, x)` idiom (see module docs).
#[inline(always)]
fn inv_r_guarded(r2: f64) -> f64 {
    (rsqrt_newton(r2) + self_guard(r2)).max(0.0)
}

/// `r² = fma(dz, dz, fma(dy, dy, dx·dx))`.
#[inline(always)]
fn norm2(d: [f64; 3]) -> f64 {
    d[2].mul_add(d[2], d[1].mul_add(d[1], d[0] * d[0]))
}

/// Laplace and its density: `acc + s/r`, one FMA.
#[inline(always)]
fn laplace_pair(acc: f64, s: f64, inv: f64) -> f64 {
    s.mul_add(inv, acc)
}

/// Yukawa: `acc + s·e^{−λr}/r`. `r = r2·(1/r)` is exactly 0 at a self
/// pair (`inv = 0`), so `exp(0)·inv = 0` keeps the suppression intact.
#[inline(always)]
fn yukawa_pair(lambda: f64, acc: f64, s: f64, r2: f64, inv: f64) -> f64 {
    (s * (-lambda * (r2 * inv)).exp()).mul_add(inv, acc)
}

/// Stokeslet without its constant: `a + f/r + d (f·d)/r³`, the dot
/// product and each component two FMAs.
#[inline(always)]
fn stokes_pair(a: [f64; 3], d: [f64; 3], f: [f64; 3], inv: f64) -> [f64; 3] {
    let fdr = f[2].mul_add(d[2], f[1].mul_add(d[1], f[0] * d[0])) * (inv * inv * inv);
    [
        d[0].mul_add(fdr, f[0].mul_add(inv, a[0])),
        d[1].mul_add(fdr, f[1].mul_add(inv, a[1])),
        d[2].mul_add(fdr, f[2].mul_add(inv, a[2])),
    ]
}

/// Laplace dipole without its constant: `acc + (d·m)/r³`, the dot
/// product two FMAs and the accumulation one.
#[inline(always)]
fn dipole_pair(acc: f64, d: [f64; 3], m: [f64; 3], inv: f64) -> f64 {
    let dot = d[2].mul_add(m[2], d[1].mul_add(m[1], d[0] * m[0]));
    dot.mul_add(inv * inv * inv, acc)
}

// Every tile body walks its coordinate and density planes through
// `chunks_exact(LANE)` zips, never through computed offsets like
// `den[k * LANE + l]`: the bounds checks on a computed index stay in the
// inner loop and keep LLVM from vectorizing it.
//
// Within a chunk, each body writes the whole per-pair chain — the
// differences, `norm2`, `inv_r_guarded` and the kernel's `*_pair` —
// in one `for l in 0..LANE` loop that updates the lane accumulator in
// place. LLVM's SLP vectorizer turns that loop into one zmm chain per
// target. Splitting it into whole-array steps (all differences, then
// all Newton steps, then the accumulation) left the accumulators as
// `<2 x double>` pieces that are repacked on every chunk, and ran about
// 2× slower; see DESIGN §9. No closure (`array::from_fn`, `map`) may hold
// per-pair math either: a closure is compiled as its own function,
// without the dispatch tier's target features, so a `mul_add` in it
// becomes a libm call (a 20× slower body when tried).

/// `K(x,y) = 1/(4π r)`, scalar density. One target at a time: blocking
/// 2, 3, 4 or 8 targets deep ran 1.5–5× slower in a microbenchmark,
/// because the SLP vectorizer then packed the block across targets
/// (ymm at 4, scalar at 8) or repacked its accumulators (DESIGN §9).
#[inline(always)]
fn laplace_tiles(t: Tiles<'_>, out: &mut [f64]) {
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
                let inv = inv_r_guarded(norm2([x - cx[l], y - cy[l], z - cz[l]]));
                acc[l] = laplace_pair(acc[l], cd[l], inv);
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
                let r2 = norm2([x - cx[l], y - cy[l], z - cz[l]]);
                acc[l] = yukawa_pair(lambda, acc[l], cd[l], r2, inv_r_guarded(r2));
            }
        }
        *o += acc.iter().sum::<f64>() * INV_4PI;
    }
}

// Two bodies are register-blocked: each block interleaves independent
// targets, and their chains still vectorize across lanes. Per-target
// accumulation order is unchanged by the blocking (each target owns its
// accumulators and sees sources in the same sequence), so results are
// bitwise identical to the unblocked loop.

/// Targets per register block of [`stokes_tiles`].
const STOKES_TB: usize = 2;

/// Targets per register block of [`dipole_tiles`].
const DIPOLE_TB: usize = 4;

/// Stokeslet: `u_i += c (f_i/r + r_i (f·r)/r³)`, 3-vector density and
/// potential, `c = 1/(8πμ)`. Register-blocked [`STOKES_TB`] targets
/// deep, the ragged tail one target at a time through the same body.
#[inline(always)]
fn stokes_tiles(c: f64, t: Tiles<'_>, out: &mut [f64]) {
    let nt = t.tx.len();
    let mut i = 0;
    while i + STOKES_TB <= nt {
        stokes_block::<STOKES_TB>(c, &t, i, out);
        i += STOKES_TB;
    }
    for i in i..nt {
        stokes_block::<1>(c, &t, i, out);
    }
}

/// Targets `i..i + B` of [`stokes_tiles`].
#[inline(always)]
fn stokes_block<const B: usize>(c: f64, t: &Tiles<'_>, i: usize, out: &mut [f64]) {
    let ns = t.sx.len();
    let (fx, rest) = t.den.split_at(ns);
    let (fy, fz) = rest.split_at(ns);
    let xs: [f64; B] = t.tx[i..i + B].try_into().expect("B targets");
    let ys: [f64; B] = t.ty[i..i + B].try_into().expect("B targets");
    let zs: [f64; B] = t.tz[i..i + B].try_into().expect("B targets");
    let mut ax = [[0.0f64; LANE]; B];
    let mut ay = [[0.0f64; LANE]; B];
    let mut az = [[0.0f64; LANE]; B];
    for (((((cx, cy), cz), gx), gy), gz) in
        t.sx.chunks_exact(LANE)
            .zip(t.sy.chunks_exact(LANE))
            .zip(t.sz.chunks_exact(LANE))
            .zip(fx.chunks_exact(LANE))
            .zip(fy.chunks_exact(LANE))
            .zip(fz.chunks_exact(LANE))
    {
        for u in 0..B {
            for l in 0..LANE {
                let d = [xs[u] - cx[l], ys[u] - cy[l], zs[u] - cz[l]];
                let inv = inv_r_guarded(norm2(d));
                [ax[u][l], ay[u][l], az[u][l]] = stokes_pair(
                    [ax[u][l], ay[u][l], az[u][l]],
                    d,
                    [gx[l], gy[l], gz[l]],
                    inv,
                );
            }
        }
    }
    for u in 0..B {
        let o = &mut out[3 * (i + u)..3 * (i + u + 1)];
        o[0] += ax[u].iter().sum::<f64>() * c;
        o[1] += ay[u].iter().sum::<f64>() * c;
        o[2] += az[u].iter().sum::<f64>() * c;
    }
}

/// Laplace dipole: `pot += (r·d)/(4π r³)`, 3-vector moment density,
/// scalar potential. Register-blocked [`DIPOLE_TB`] targets deep, the
/// ragged tail one target at a time through the same body.
#[inline(always)]
fn dipole_tiles(t: Tiles<'_>, out: &mut [f64]) {
    let nt = out.len();
    let mut i = 0;
    while i + DIPOLE_TB <= nt {
        dipole_block::<DIPOLE_TB>(&t, i, out);
        i += DIPOLE_TB;
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
                let d = [xs[u] - cx[l], ys[u] - cy[l], zs[u] - cz[l]];
                let inv = inv_r_guarded(norm2(d));
                acc[u][l] = dipole_pair(acc[u][l], d, [gx[l], gy[l], gz[l]], inv);
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

    /// 11 targets (ragged for both register blockings: two dipole
    /// blocks plus 3, five Stokes blocks plus 1) against 21 sources
    /// padded to 24 lanes, with 3 density planes; target 5 coincides
    /// with source 9.
    struct Fixture {
        tx: Vec<f64>,
        ty: Vec<f64>,
        tz: Vec<f64>,
        sx: Vec<f64>,
        sy: Vec<f64>,
        sz: Vec<f64>,
        d: Vec<f64>,
    }

    impl Fixture {
        fn new() -> Fixture {
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
            assert!(sx.len() > srcs.len());
            assert!(!tgts.len().is_multiple_of(DIPOLE_TB) && !tgts.len().is_multiple_of(STOKES_TB));
            Fixture {
                tx: tgts.iter().map(|p| p[0]).collect(),
                ty: tgts.iter().map(|p| p[1]).collect(),
                tz: tgts.iter().map(|p| p[2]).collect(),
                sx,
                sy,
                sz,
                d,
            }
        }

        /// The tiles with the first `sd` density planes.
        fn tiles(&self, sd: usize) -> Tiles<'_> {
            Tiles {
                tx: &self.tx,
                ty: &self.ty,
                tz: &self.tz,
                sx: &self.sx,
                sy: &self.sy,
                sz: &self.sz,
                den: &self.d[..sd * self.sx.len()],
            }
        }
    }

    /// Every tile body against a per-target reference loop — plain
    /// indices, each lane accumulator fed in source order through the
    /// bodies' own per-pair helpers, then summed and scaled — compared
    /// bit for bit: neither the plane zips, the dipole's register
    /// blocking nor the lane reduction may change any target's
    /// accumulation order.
    #[test]
    fn tile_bodies_match_per_target_reference_bitwise() {
        let f = Fixture::new();
        let (nt, ns) = (f.tx.len(), f.sx.len());
        let diff = |i: usize, j: usize| [f.tx[i] - f.sx[j], f.ty[i] - f.sy[j], f.tz[i] - f.sz[j]];
        let g = |j: usize| [f.d[j], f.d[ns + j], f.d[2 * ns + j]];
        // `pair(i, j, a)` adds source j to target i's `td` accumulators.
        let reference = |td: usize, c: f64, pair: &dyn Fn(usize, usize, &mut [f64])| {
            let mut want = vec![0.0; nt * td];
            for i in 0..nt {
                let mut lanes = vec![[0.0f64; LANE]; td];
                for j in 0..ns {
                    let mut a: Vec<f64> = lanes.iter().map(|lane| lane[j % LANE]).collect();
                    pair(i, j, &mut a);
                    for (lane, v) in lanes.iter_mut().zip(a) {
                        lane[j % LANE] = v;
                    }
                }
                for (o, lane) in want[td * i..td * (i + 1)].iter_mut().zip(&lanes) {
                    *o += lane.iter().sum::<f64>() * c;
                }
            }
            want
        };
        let check = |k: &dyn TileKernel, want: Vec<f64>| {
            let mut got = vec![0.0; want.len()];
            k.eval_tiles(f.tiles(k.source_dim()), &mut got);
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.to_bits(), w.to_bits(), "{}: {g} vs {w}", k.name());
            }
        };

        let want = reference(1, INV_4PI, &|i, j, a| {
            a[0] = laplace_pair(a[0], f.d[j], inv_r_guarded(norm2(diff(i, j))));
        });
        check(&Laplace, want);

        let yukawa = Yukawa { lambda: 2.5 };
        let want = reference(1, INV_4PI, &|i, j, a| {
            let r2 = norm2(diff(i, j));
            a[0] = yukawa_pair(yukawa.lambda, a[0], f.d[j], r2, inv_r_guarded(r2));
        });
        check(&yukawa, want);

        let stokes = Stokes { mu: 0.7 };
        let c = 1.0 / (8.0 * std::f64::consts::PI * stokes.mu);
        let want = reference(3, c, &|i, j, a| {
            let d = diff(i, j);
            let inv = inv_r_guarded(norm2(d));
            a.copy_from_slice(&stokes_pair([a[0], a[1], a[2]], d, g(j), inv));
        });
        check(&stokes, want);

        let want = reference(1, INV_4PI, &|i, j, a| {
            let d = diff(i, j);
            a[0] = dipole_pair(a[0], d, g(j), inv_r_guarded(norm2(d)));
        });
        check(&LaplaceDipole, want);
    }

    /// Each dispatched entry gives its portable body's bits. The bodies
    /// called directly here are compiled without target features, so
    /// every `mul_add` in them goes through libm's `fma`; the entries run
    /// the host's widest tier, with hardware FMA on AVX2 and AVX-512.
    #[test]
    fn dispatched_tiers_match_portable_bitwise() {
        let f = Fixture::new();
        let (t1, t3) = (f.tiles(1), f.tiles(3));
        let nt = f.tx.len();
        let bits = |td: usize, eval: &dyn Fn(&mut [f64])| -> Vec<u64> {
            let mut out = vec![0.0; nt * td];
            eval(&mut out);
            out.iter().map(|v| v.to_bits()).collect()
        };
        let c = 0.3;
        assert_eq!(
            bits(1, &|o| laplace_eval(t1, o)),
            bits(1, &|o| laplace_tiles(t1, o)),
            "laplace"
        );
        assert_eq!(
            bits(1, &|o| yukawa_eval(2.5, t1, o)),
            bits(1, &|o| yukawa_tiles(2.5, t1, o)),
            "yukawa"
        );
        assert_eq!(
            bits(3, &|o| stokes_eval(c, t3, o)),
            bits(3, &|o| stokes_tiles(c, t3, o)),
            "stokes"
        );
        assert_eq!(
            bits(1, &|o| dipole_eval(t3, o)),
            bits(1, &|o| dipole_tiles(t3, o)),
            "dipole"
        );
    }

    /// The compare-made guard is the division form's guard: `g = 1/r²;
    /// g − g` is NaN exactly where `1/r²` overflows or is NaN, and `+0.0`
    /// elsewhere, and so is [`self_guard`]. The NaNs may differ in sign
    /// (x86's `∞ − ∞` is the negative default NaN), which the `max`
    /// cannot see, so the guarded results are compared bit for bit.
    #[test]
    fn guard_matches_division_form_bitwise() {
        #[allow(clippy::eq_op)] // ∞ − ∞ = NaN is the point
        let division = |r2: f64| {
            let g = 1.0 / r2;
            g - g
        };
        let mut r2s = vec![
            0.0,
            5e-324,
            GUARD_R2,
            GUARD_R2.next_up(),
            1e-300,
            f64::INFINITY,
            f64::NAN,
        ];
        for e in -32..=19 {
            for m in [1.0, 1.7, 3.2, 9.99] {
                r2s.push(m * 10f64.powi(e));
            }
        }
        for r2 in r2s {
            let r2 = std::hint::black_box(r2);
            let (new, old) = (self_guard(r2), division(r2));
            assert_eq!(new.is_nan(), old.is_nan(), "r2 = {r2:e}");
            if !old.is_nan() {
                assert_eq!(new.to_bits(), old.to_bits(), "r2 = {r2:e}");
            }
            let inv = rsqrt_newton(r2);
            assert_eq!(
                (inv + new).max(0.0).to_bits(),
                (inv + old).max(0.0).to_bits(),
                "r2 = {r2:e}"
            );
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
