//! Seeded input generators: point geometries, densities and the serve
//! request schedule. Everything a workload feeds the program is a pure
//! function of `(seed, stream)`, and none of it comes from pfmm's own
//! generators, so a change to those cannot change a workload.

use pfmm_tree::PointRec;

/// SplitMix64: tiny, fast, and good enough for benchmark inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for one independent stream of one seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Point distributions used by the workloads.
#[derive(Copy, Clone, Debug)]
pub enum Dist {
    /// Uniform in the unit cube.
    Uniform,
    /// Surface of the 1:1:4 ellipsoid (semi-axes 0.12, 0.12, 0.48 around
    /// the cube centre) with uniform angular spacing, so points crowd at
    /// the poles and the octree is deep and adaptive.
    Ellipsoid,
}

/// `n` points of `dist` with densities of `sd` components; gids are
/// `0..n`, so a gid indexes the returned vector.
pub fn points(dist: Dist, n: usize, sd: usize, seed: u64, stream: u64) -> Vec<PointRec> {
    let mut rng = Rng::new(seed, stream);
    (0..n)
        .map(|i| {
            let pos = match dist {
                Dist::Uniform => [rng.unit(), rng.unit(), rng.unit()],
                Dist::Ellipsoid => {
                    let theta = rng.unit() * std::f64::consts::PI;
                    let phi = rng.unit() * 2.0 * std::f64::consts::PI;
                    [
                        0.5 + 0.12 * theta.sin() * phi.cos(),
                        0.5 + 0.12 * theta.sin() * phi.sin(),
                        0.5 + 0.48 * theta.cos(),
                    ]
                }
            };
            // Positive densities: every component in [0, 1).
            let mut den = [0.0; 3];
            for d in den.iter_mut().take(sd) {
                *d = rng.unit();
            }
            PointRec::vector(pos, den, i as u64)
        })
        .collect()
}

/// The densities of `pts` packed in the order of `gids` (a plan's owned
/// order), `sd` components per point.
pub fn densities_for(pts: &[PointRec], gids: &[u64], sd: usize) -> Vec<f64> {
    let mut out = Vec::with_capacity(gids.len() * sd);
    for &g in gids {
        out.extend_from_slice(&pts[g as usize].den[..sd]);
    }
    out
}

/// Rank `rank`'s share of the input when `ranks` ranks each pass part of
/// the points (round-robin, so every rank starts with a spread sample).
pub fn share(pts: &[PointRec], rank: usize, ranks: usize) -> Vec<PointRec> {
    pts.iter().skip(rank).step_by(ranks).copied().collect()
}

/// One scheduled request of the open loop.
#[derive(Copy, Clone, Debug)]
pub struct Arrival {
    /// Scheduled send time, µs after the loop starts.
    pub offset_us: u64,
    /// Geometry index: `0..hot` are the hot set, larger ones are cold
    /// geometries used by this request only.
    pub geom: usize,
    /// Seed of the request's densities.
    pub density_seed: u64,
}

/// Seed of the arrival-time trace, which is part of the workload like its
/// rate: the seed argument does not change it.
const TRACE_SEED: u64 = 0x0A77_1BA1;

/// An open-loop Poisson schedule of `n` requests at `rate_per_s`.
///
/// The arrival times are one fixed trace: the `n` stratified quantiles of
/// the exponential distribution in a random order drawn from
/// [`TRACE_SEED`]. Where the bursts fall drives the tail latency far more
/// than anything else in the run, so holding the trace fixed keeps
/// `serve.latency_p95_s` comparable across seeds. The seed picks which requests
/// go cold: exactly `round(cold_share · n)` of them, each to a fresh
/// geometry, while the rest cycle through the `hot` geometries in a
/// seeded order.
pub fn schedule(n: usize, rate_per_s: f64, hot: usize, cold_share: f64, seed: u64) -> Vec<Arrival> {
    let mut gaps: Vec<f64> = (0..n)
        .map(|k| -(1.0 - (k as f64 + 0.5) / n as f64).ln() / rate_per_s)
        .collect();
    Rng::new(TRACE_SEED, n as u64).shuffle(&mut gaps);
    let mut rng = Rng::new(seed, 0x5EED_5C4E);
    let n_cold = (cold_share * n as f64).round() as usize;
    let mut is_cold: Vec<bool> = (0..n).map(|k| k < n_cold).collect();
    rng.shuffle(&mut is_cold);
    let mut hot_order: Vec<usize> = (0..n - n_cold).map(|k| k % hot).collect();
    rng.shuffle(&mut hot_order);

    let mut t = 0.0f64;
    let mut next_cold = hot;
    let mut hot_iter = hot_order.into_iter();
    (0..n)
        .map(|k| {
            t += gaps[k];
            let geom = if is_cold[k] {
                next_cold += 1;
                next_cold - 1
            } else {
                hot_iter.next().expect("one hot slot per hot request")
            };
            Arrival {
                offset_us: (t * 1e6) as u64,
                geom,
                density_seed: rng.next_u64(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_pure_functions_of_the_seed() {
        let a = points(Dist::Ellipsoid, 100, 3, 5, 1);
        let b = points(Dist::Ellipsoid, 100, 3, 5, 1);
        let c = points(Dist::Ellipsoid, 100, 3, 6, 1);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let s = schedule(200, 7.0, 3, 0.2, 9);
        assert_eq!(s.iter().filter(|a| a.geom >= 3).count(), 40);
        let span = s.last().unwrap().offset_us as f64 * 1e-6;
        assert!((span - 200.0 / 7.0).abs() < 2.0, "{span}");
    }
}
