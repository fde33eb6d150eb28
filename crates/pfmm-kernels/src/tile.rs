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
//! # Mutual bodies
//!
//! Every kernel here is symmetric up to a sign, so one pass over the
//! points of two distinct boxes A and B can serve both directions:
//! [`TileKernel::eval_mutual`] computes each pair's `d`, guarded `1/r`
//! (and Yukawa's `exp`, Stokes' `1/r³`) once, adds B's sources into A's
//! potentials and A's sources into an unscaled *mirror* of B's lanes.
//! The caller folds the mirror into B's potentials, scaled by
//! [`TileKernel::tile_scale`], once every pair has run (see
//! `pfmm-core::nearfield`). The Laplace, Yukawa and Stokes kernels are
//! even in `d`; the dipole flips its sign.
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

/// One box's padded planes, as a mutual body reads each side of a pair:
/// the box's points are its targets and its sources at once.
#[derive(Clone, Copy)]
pub struct BoxTiles<'a> {
    /// Real point count; lanes `n..` are padding.
    pub n: usize,
    /// Padded x/y/z planes, a multiple of [`LANE`] entries each; padding
    /// lanes sit at the sentinel position.
    pub x: &'a [f64],
    pub y: &'a [f64],
    pub z: &'a [f64],
    /// `source_dim` density planes of `x.len()` entries; padding lanes
    /// are 0.
    pub den: &'a [f64],
}

impl<'a> BoxTiles<'a> {
    /// The one-way tiles of `src`'s sources onto this box's real points.
    pub fn from(self, src: BoxTiles<'a>) -> Tiles<'a> {
        Tiles {
            tx: &self.x[..self.n],
            ty: &self.y[..self.n],
            tz: &self.z[..self.n],
            sx: src.x,
            sy: src.y,
            sz: src.z,
            den: src.den,
        }
    }

    #[inline]
    fn check(&self, sd: usize) {
        let m = self.x.len();
        debug_assert_eq!(m % LANE, 0, "planes padded to LANE");
        debug_assert!(self.n <= m && self.y.len() == m && self.z.len() == m);
        debug_assert_eq!(self.den.len(), sd * m, "density plane packing");
    }
}

/// Shape checks of one mutual call.
#[inline]
fn check_mutual(
    sd: usize,
    td: usize,
    a: &BoxTiles<'_>,
    b: &BoxTiles<'_>,
    out_a: &[f64],
    mirror_b: &[f64],
) {
    a.check(sd);
    b.check(sd);
    debug_assert_eq!(out_a.len(), a.n * td, "output packing");
    debug_assert_eq!(mirror_b.len(), td * b.x.len(), "mirror plane packing");
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

    /// Both directions of one pair of distinct boxes, each point pair
    /// evaluated once: `out_a += K(A ← B)`, packed `target_dim` per real
    /// point of `a`, and `mirror_b += K(B ← A) / tile_scale` into
    /// `target_dim` planes of `b.x.len()` lanes (plane-major, like the
    /// densities). The mirror is left unscaled so that it can collect
    /// every pair of B before one scaled fold. Its padding lanes are
    /// left exactly `0.0`.
    fn eval_mutual(
        &self,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out_a: &mut [f64],
        mirror_b: &mut [f64],
    );

    /// The constant the bodies scale each lane sum by (`1/4π` or
    /// `1/(8πμ)`), for folding a mirror.
    fn tile_scale(&self) -> f64;
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

/// Yukawa's screening `e^{−λr}`. `r = r2·(1/r)` is exactly 0 at a self
/// pair (`inv = 0`), so `exp(0)·inv = 0` keeps the suppression intact.
#[inline(always)]
fn yukawa_exp(lambda: f64, r2: f64, inv: f64) -> f64 {
    (-lambda * (r2 * inv)).exp()
}

/// Yukawa: `acc + s·e^{−λr}/r`, given `e = yukawa_exp(..)`.
#[inline(always)]
fn yukawa_pair(acc: f64, s: f64, e: f64, inv: f64) -> f64 {
    (s * e).mul_add(inv, acc)
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
                let inv = inv_r_guarded(r2);
                acc[l] = yukawa_pair(acc[l], cd[l], yukawa_exp(lambda, r2, inv), inv);
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

// The mutual bodies follow the same rules. Each walks A's real points in
// the outer loop and B's padded lanes in the inner one, keeps A's lane
// accumulators in registers and adds A's side into B's mirror chunk by
// chunk, so every mirror lane sums A's points in order. Blocking depths
// match the one-way bodies (other depths measured within noise); within
// a block the mirror still sees the targets in order. B's padding lanes
// pick up A's sources at the sentinel distance and are cleared after the
// pass.

/// Mutual [`laplace_tiles`].
#[inline(always)]
fn laplace_mutual(a: BoxTiles<'_>, b: BoxTiles<'_>, out: &mut [f64], mirror: &mut [f64]) {
    for ((((o, &x), &y), &z), &s) in out.iter_mut().zip(a.x).zip(a.y).zip(a.z).zip(a.den) {
        let mut acc = [0.0f64; LANE];
        for ((((cx, cy), cz), cd), cm) in
            b.x.chunks_exact(LANE)
                .zip(b.y.chunks_exact(LANE))
                .zip(b.z.chunks_exact(LANE))
                .zip(b.den.chunks_exact(LANE))
                .zip(mirror.chunks_exact_mut(LANE))
        {
            for l in 0..LANE {
                let inv = inv_r_guarded(norm2([x - cx[l], y - cy[l], z - cz[l]]));
                acc[l] = laplace_pair(acc[l], cd[l], inv);
                cm[l] = laplace_pair(cm[l], s, inv);
            }
        }
        *o += acc.iter().sum::<f64>() * INV_4PI;
    }
    mirror[b.n..].fill(0.0);
}

/// Mutual [`yukawa_tiles`]: one `exp` per pair serves both sides.
#[inline(always)]
fn yukawa_mutual(
    lambda: f64,
    a: BoxTiles<'_>,
    b: BoxTiles<'_>,
    out: &mut [f64],
    mirror: &mut [f64],
) {
    for ((((o, &x), &y), &z), &s) in out.iter_mut().zip(a.x).zip(a.y).zip(a.z).zip(a.den) {
        let mut acc = [0.0f64; LANE];
        for ((((cx, cy), cz), cd), cm) in
            b.x.chunks_exact(LANE)
                .zip(b.y.chunks_exact(LANE))
                .zip(b.z.chunks_exact(LANE))
                .zip(b.den.chunks_exact(LANE))
                .zip(mirror.chunks_exact_mut(LANE))
        {
            for l in 0..LANE {
                let r2 = norm2([x - cx[l], y - cy[l], z - cz[l]]);
                let inv = inv_r_guarded(r2);
                let e = yukawa_exp(lambda, r2, inv);
                acc[l] = yukawa_pair(acc[l], cd[l], e, inv);
                cm[l] = yukawa_pair(cm[l], s, e, inv);
            }
        }
        *o += acc.iter().sum::<f64>() * INV_4PI;
    }
    mirror[b.n..].fill(0.0);
}

/// Mutual [`stokes_tiles`]: `d`, `1/r` and `1/r³` are shared, and the
/// Stokeslet is even in `d`, so B's side is the same `stokes_pair` with
/// A's force.
#[inline(always)]
fn stokes_mutual(c: f64, a: BoxTiles<'_>, b: BoxTiles<'_>, out: &mut [f64], mirror: &mut [f64]) {
    let mut i = 0;
    while i + STOKES_TB <= a.n {
        stokes_mutual_block::<STOKES_TB>(c, &a, &b, i, out, mirror);
        i += STOKES_TB;
    }
    for i in i..a.n {
        stokes_mutual_block::<1>(c, &a, &b, i, out, mirror);
    }
    let m = b.x.len();
    for plane in mirror.chunks_exact_mut(m) {
        plane[b.n..].fill(0.0);
    }
}

/// Targets `i..i + B` of A in [`stokes_mutual`].
#[inline(always)]
fn stokes_mutual_block<const B: usize>(
    c: f64,
    a: &BoxTiles<'_>,
    b: &BoxTiles<'_>,
    i: usize,
    out: &mut [f64],
    mirror: &mut [f64],
) {
    let (ma, mb) = (a.x.len(), b.x.len());
    let (fx, rest) = b.den.split_at(mb);
    let (fy, fz) = rest.split_at(mb);
    let (wx, rest) = mirror.split_at_mut(mb);
    let (wy, wz) = rest.split_at_mut(mb);
    let xs: [f64; B] = a.x[i..i + B].try_into().expect("B targets");
    let ys: [f64; B] = a.y[i..i + B].try_into().expect("B targets");
    let zs: [f64; B] = a.z[i..i + B].try_into().expect("B targets");
    let gx: [f64; B] = a.den[i..i + B].try_into().expect("B targets");
    let gy: [f64; B] = a.den[ma + i..ma + i + B].try_into().expect("B targets");
    let gz: [f64; B] = a.den[2 * ma + i..2 * ma + i + B]
        .try_into()
        .expect("B targets");
    let mut ax = [[0.0f64; LANE]; B];
    let mut ay = [[0.0f64; LANE]; B];
    let mut az = [[0.0f64; LANE]; B];
    for ((((((((cx, cy), cz), hx), hy), hz), mx), my), mz) in
        b.x.chunks_exact(LANE)
            .zip(b.y.chunks_exact(LANE))
            .zip(b.z.chunks_exact(LANE))
            .zip(fx.chunks_exact(LANE))
            .zip(fy.chunks_exact(LANE))
            .zip(fz.chunks_exact(LANE))
            .zip(wx.chunks_exact_mut(LANE))
            .zip(wy.chunks_exact_mut(LANE))
            .zip(wz.chunks_exact_mut(LANE))
    {
        // The mirror chunk goes through locals: updated in place in
        // memory, the lane loop stayed rolled and scalar.
        let mut w = [[0.0f64; LANE]; 3];
        w[0].copy_from_slice(mx);
        w[1].copy_from_slice(my);
        w[2].copy_from_slice(mz);
        for u in 0..B {
            for l in 0..LANE {
                let d = [xs[u] - cx[l], ys[u] - cy[l], zs[u] - cz[l]];
                let inv = inv_r_guarded(norm2(d));
                [ax[u][l], ay[u][l], az[u][l]] = stokes_pair(
                    [ax[u][l], ay[u][l], az[u][l]],
                    d,
                    [hx[l], hy[l], hz[l]],
                    inv,
                );
                [w[0][l], w[1][l], w[2][l]] =
                    stokes_pair([w[0][l], w[1][l], w[2][l]], d, [gx[u], gy[u], gz[u]], inv);
            }
        }
        mx.copy_from_slice(&w[0]);
        my.copy_from_slice(&w[1]);
        mz.copy_from_slice(&w[2]);
    }
    for u in 0..B {
        let o = &mut out[3 * (i + u)..3 * (i + u + 1)];
        o[0] += ax[u].iter().sum::<f64>() * c;
        o[1] += ay[u].iter().sum::<f64>() * c;
        o[2] += az[u].iter().sum::<f64>() * c;
    }
}

/// Mutual [`dipole_tiles`]: `1/r³` is shared, and B's side flips the
/// sign of `d`.
#[inline(always)]
fn dipole_mutual(a: BoxTiles<'_>, b: BoxTiles<'_>, out: &mut [f64], mirror: &mut [f64]) {
    let mut i = 0;
    while i + DIPOLE_TB <= a.n {
        dipole_mutual_block::<DIPOLE_TB>(&a, &b, i, out, mirror);
        i += DIPOLE_TB;
    }
    for i in i..a.n {
        dipole_mutual_block::<1>(&a, &b, i, out, mirror);
    }
    mirror[b.n..].fill(0.0);
}

/// Targets `i..i + B` of A in [`dipole_mutual`].
#[inline(always)]
fn dipole_mutual_block<const B: usize>(
    a: &BoxTiles<'_>,
    b: &BoxTiles<'_>,
    i: usize,
    out: &mut [f64],
    mirror: &mut [f64],
) {
    let (ma, mb) = (a.x.len(), b.x.len());
    let (mx, rest) = b.den.split_at(mb);
    let (my, mz) = rest.split_at(mb);
    let xs: [f64; B] = a.x[i..i + B].try_into().expect("B targets");
    let ys: [f64; B] = a.y[i..i + B].try_into().expect("B targets");
    let zs: [f64; B] = a.z[i..i + B].try_into().expect("B targets");
    let gx: [f64; B] = a.den[i..i + B].try_into().expect("B targets");
    let gy: [f64; B] = a.den[ma + i..ma + i + B].try_into().expect("B targets");
    let gz: [f64; B] = a.den[2 * ma + i..2 * ma + i + B]
        .try_into()
        .expect("B targets");
    let mut acc = [[0.0f64; LANE]; B];
    for ((((((cx, cy), cz), hx), hy), hz), cm) in
        b.x.chunks_exact(LANE)
            .zip(b.y.chunks_exact(LANE))
            .zip(b.z.chunks_exact(LANE))
            .zip(mx.chunks_exact(LANE))
            .zip(my.chunks_exact(LANE))
            .zip(mz.chunks_exact(LANE))
            .zip(mirror.chunks_exact_mut(LANE))
    {
        for u in 0..B {
            for l in 0..LANE {
                let d = [xs[u] - cx[l], ys[u] - cy[l], zs[u] - cz[l]];
                let inv = inv_r_guarded(norm2(d));
                acc[u][l] = dipole_pair(acc[u][l], d, [hx[l], hy[l], hz[l]], inv);
                cm[l] = dipole_pair(cm[l], [-d[0], -d[1], -d[2]], [gx[u], gy[u], gz[u]], inv);
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
pfmm_linalg::simd_dispatch!(
    fn laplace_mutual_eval(a: BoxTiles<'_>, b: BoxTiles<'_>, out: &mut [f64], mirror: &mut [f64])
        => laplace_mutual
);
pfmm_linalg::simd_dispatch!(
    fn yukawa_mutual_eval(
        lambda: f64,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out: &mut [f64],
        mirror: &mut [f64],
    ) => yukawa_mutual
);
pfmm_linalg::simd_dispatch!(
    fn stokes_mutual_eval(
        c: f64,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out: &mut [f64],
        mirror: &mut [f64],
    ) => stokes_mutual
);
pfmm_linalg::simd_dispatch!(
    fn dipole_mutual_eval(a: BoxTiles<'_>, b: BoxTiles<'_>, out: &mut [f64], mirror: &mut [f64])
        => dipole_mutual
);

impl TileKernel for Laplace {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(1, 1, out);
        laplace_eval(t, out);
    }

    fn eval_mutual(
        &self,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out_a: &mut [f64],
        mirror_b: &mut [f64],
    ) {
        check_mutual(1, 1, &a, &b, out_a, mirror_b);
        laplace_mutual_eval(a, b, out_a, mirror_b);
    }

    fn tile_scale(&self) -> f64 {
        INV_4PI
    }
}

impl TileKernel for Yukawa {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(1, 1, out);
        yukawa_eval(self.lambda, t, out);
    }

    fn eval_mutual(
        &self,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out_a: &mut [f64],
        mirror_b: &mut [f64],
    ) {
        check_mutual(1, 1, &a, &b, out_a, mirror_b);
        yukawa_mutual_eval(self.lambda, a, b, out_a, mirror_b);
    }

    fn tile_scale(&self) -> f64 {
        INV_4PI
    }
}

impl TileKernel for Stokes {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(3, 3, out);
        stokes_eval(self.tile_scale(), t, out);
    }

    fn eval_mutual(
        &self,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out_a: &mut [f64],
        mirror_b: &mut [f64],
    ) {
        check_mutual(3, 3, &a, &b, out_a, mirror_b);
        stokes_mutual_eval(self.tile_scale(), a, b, out_a, mirror_b);
    }

    fn tile_scale(&self) -> f64 {
        1.0 / (8.0 * std::f64::consts::PI * self.mu)
    }
}

impl TileKernel for LaplaceDipole {
    fn eval_tiles(&self, t: Tiles<'_>, out: &mut [f64]) {
        t.check(3, 1, out);
        dipole_eval(t, out);
    }

    fn eval_mutual(
        &self,
        a: BoxTiles<'_>,
        b: BoxTiles<'_>,
        out_a: &mut [f64],
        mirror_b: &mut [f64],
    ) {
        check_mutual(3, 1, &a, &b, out_a, mirror_b);
        dipole_mutual_eval(a, b, out_a, mirror_b);
    }

    fn tile_scale(&self) -> f64 {
        INV_4PI
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
            let inv = inv_r_guarded(r2);
            a[0] = yukawa_pair(a[0], f.d[j], yukawa_exp(yukawa.lambda, r2, inv), inv);
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

        // The mutual entries, output and mirror together.
        let bx = Boxes::new();
        let ((a1, b1), (a3, b3)) = (bx.tiles(1), bx.tiles(3));
        let mbits = |td: usize, eval: &dyn Fn(&mut [f64], &mut [f64])| -> Vec<u64> {
            let mut out = vec![0.0; a1.n * td];
            let mut mirror = vec![0.0; td * b1.x.len()];
            eval(&mut out, &mut mirror);
            out.iter().chain(&mirror).map(|v| v.to_bits()).collect()
        };
        assert_eq!(
            mbits(1, &|o, m| laplace_mutual_eval(a1, b1, o, m)),
            mbits(1, &|o, m| laplace_mutual(a1, b1, o, m)),
            "laplace mutual"
        );
        assert_eq!(
            mbits(1, &|o, m| yukawa_mutual_eval(2.5, a1, b1, o, m)),
            mbits(1, &|o, m| yukawa_mutual(2.5, a1, b1, o, m)),
            "yukawa mutual"
        );
        assert_eq!(
            mbits(3, &|o, m| stokes_mutual_eval(c, a3, b3, o, m)),
            mbits(3, &|o, m| stokes_mutual(c, a3, b3, o, m)),
            "stokes mutual"
        );
        assert_eq!(
            mbits(1, &|o, m| dipole_mutual_eval(a3, b3, o, m)),
            mbits(1, &|o, m| dipole_mutual(a3, b3, o, m)),
            "dipole mutual"
        );
    }

    /// Two boxes for the mutual bodies, each packed as its own padded
    /// planes with 3 density planes: A holds 11 points (ragged for both
    /// register blockings) padded to 16, B 21 points padded to 24, and
    /// A's point 3 sits 1e-9 from B's point 9.
    struct Boxes {
        a: Packed,
        b: Packed,
    }

    /// A box's real point count and its padded x/y/z/density planes.
    type Packed = (usize, Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);

    impl Boxes {
        fn new() -> Boxes {
            let mut st = 17u64;
            let mut pts = |n: usize| -> Vec<Point3> {
                (0..n)
                    .map(|_| [lcg(&mut st), lcg(&mut st), lcg(&mut st)])
                    .collect()
            };
            let mut pa = pts(11);
            let pb = pts(21);
            pa[3] = [pb[9][0] + 1e-9, pb[9][1], pb[9][2] - 1e-9];
            let mut st = 5u64;
            let mut den =
                |n: usize| -> Vec<f64> { (0..3 * n).map(|_| lcg(&mut st) - 0.5).collect() };
            let (da, db) = (den(pa.len()), den(pb.len()));
            let (ax, ay, az, ad) = pack(&pa, &da, 3);
            let (bx, by, bz, bd) = pack(&pb, &db, 3);
            assert!(ax.len() > pa.len() && bx.len() > pb.len());
            Boxes {
                a: (pa.len(), ax, ay, az, ad),
                b: (pb.len(), bx, by, bz, bd),
            }
        }

        /// A and B with their first `sd` density planes.
        fn tiles(&self, sd: usize) -> (BoxTiles<'_>, BoxTiles<'_>) {
            fn side(p: &Packed, sd: usize) -> BoxTiles<'_> {
                let (n, x, y, z, d) = p;
                BoxTiles {
                    n: *n,
                    x,
                    y,
                    z,
                    den: &d[..sd * x.len()],
                }
            }
            (side(&self.a, sd), side(&self.b, sd))
        }
    }

    /// One mutual call against the two one-way calls A ← B and B ← A:
    /// within 1e-14 of the largest potential on both sides (the mirror
    /// sums A's points in another order), with B's mirror folded through
    /// `tile_scale`. The mirror's padding lanes must come back exactly
    /// `+0.0`; the dipole's B side checks its sign flip.
    #[test]
    fn mutual_matches_two_one_way_calls() {
        let bx = Boxes::new();
        let ks: [&dyn TileKernel; 4] = [
            &Laplace,
            &Yukawa { lambda: 2.5 },
            &Stokes { mu: 0.7 },
            &LaplaceDipole,
        ];
        for k in ks {
            let (sd, td) = (k.source_dim(), k.target_dim());
            let (a, b) = bx.tiles(sd);
            let mut want_a = vec![0.0; a.n * td];
            k.eval_tiles(a.from(b), &mut want_a);
            let mut want_b = vec![0.0; b.n * td];
            k.eval_tiles(b.from(a), &mut want_b);

            let mb = b.x.len();
            let mut got_a = vec![0.0; a.n * td];
            let mut mirror = vec![0.0; td * mb];
            k.eval_mutual(a, b, &mut got_a, &mut mirror);
            let got_b: Vec<f64> = (0..b.n * td)
                .map(|k_| mirror[(k_ % td) * mb + k_ / td])
                .map(|v| v * k.tile_scale())
                .collect();
            for plane in mirror.chunks_exact(mb) {
                for v in &plane[b.n..] {
                    assert_eq!(v.to_bits(), 0, "{}: mirror padding {v}", k.name());
                }
            }
            for (got, want) in [(&got_a, &want_a), (&got_b, &want_b)] {
                let scale = want.iter().fold(0.0f64, |m, v| m.max(v.abs()));
                assert!(scale > 0.0);
                for (g, w) in got.iter().zip(want.iter()) {
                    assert!(
                        (g - w).abs() <= 1e-14 * scale,
                        "{}: {g} vs {w} (scale {scale})",
                        k.name()
                    );
                }
            }
        }
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
