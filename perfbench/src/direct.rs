//! Reference direct sums, written here rather than taken from
//! `pfmm-kernels`, so the check does not share code with what it checks.

use pfmm_tree::PointRec;

/// The kernels the workloads evaluate.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `1 / (4π r)`, one density and one potential per point.
    Laplace,
    /// The Stokeslet with μ = 1: `(I/r + r⊗r/r³) / (8π)`, three of each.
    Stokes,
}

impl Kind {
    pub fn dim(self) -> usize {
        match self {
            Kind::Laplace => 1,
            Kind::Stokes => 3,
        }
    }
}

/// Exact potentials at the `targets` (gids into `pts`) from every point,
/// skipping the self-interaction, packed `dim` per target.
pub fn potentials(kind: Kind, pts: &[PointRec], targets: &[usize]) -> Vec<f64> {
    let d = kind.dim();
    let mut out = vec![0.0; targets.len() * d];
    let half = targets.len().div_ceil(2);
    std::thread::scope(|s| {
        for (tchunk, ochunk) in targets
            .chunks(half.max(1))
            .zip(out.chunks_mut(half.max(1) * d))
        {
            s.spawn(move || {
                for (t, o) in tchunk.iter().zip(ochunk.chunks_mut(d)) {
                    at_target(kind, pts, pts[*t].pos, o);
                }
            });
        }
    });
    out
}

fn at_target(kind: Kind, pts: &[PointRec], x: [f64; 3], out: &mut [f64]) {
    match kind {
        Kind::Laplace => {
            let mut acc = 0.0;
            for p in pts {
                let r = [x[0] - p.pos[0], x[1] - p.pos[1], x[2] - p.pos[2]];
                let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
                if r2 > 0.0 {
                    acc += p.den[0] / r2.sqrt();
                }
            }
            out[0] = acc / (4.0 * std::f64::consts::PI);
        }
        Kind::Stokes => {
            let mut acc = [0.0; 3];
            for p in pts {
                let r = [x[0] - p.pos[0], x[1] - p.pos[1], x[2] - p.pos[2]];
                let r2 = r[0] * r[0] + r[1] * r[1] + r[2] * r[2];
                if r2 > 0.0 {
                    let rinv = 1.0 / r2.sqrt();
                    let rf =
                        (r[0] * p.den[0] + r[1] * p.den[1] + r[2] * p.den[2]) * rinv * rinv * rinv;
                    for k in 0..3 {
                        acc[k] += p.den[k] * rinv + r[k] * rf;
                    }
                }
            }
            for k in 0..3 {
                out[k] = acc[k] / (8.0 * std::f64::consts::PI);
            }
        }
    }
}

/// Relative ℓ² error of `got` (potentials indexed by gid, `dim` per
/// point) against the exact values at `targets`.
pub fn rel_error(kind: Kind, pts: &[PointRec], targets: &[usize], got: &[f64]) -> f64 {
    let d = kind.dim();
    let exact = potentials(kind, pts, targets);
    let (mut num, mut den) = (0.0, 0.0);
    for (k, &t) in targets.iter().enumerate() {
        for c in 0..d {
            let e = exact[k * d + c];
            num += (got[t * d + c] - e).powi(2);
            den += e * e;
        }
    }
    (num / den).sqrt()
}

/// `count` distinct target gids out of `0..n`, chosen by the seed.
pub fn sample_targets(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    crate::gen::Rng::new(seed, 0x007A_26E7).shuffle(&mut all);
    all.truncate(count.min(n));
    all.sort_unstable();
    all
}
