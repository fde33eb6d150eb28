//! A deterministic closed-loop/open-loop load generator.
//!
//! The workload is generated entirely from one seed: the geometries, the
//! hot/cold request mix, the arrival offsets, the priorities, and the
//! per-request density seeds are all fixed before the run starts. Two
//! runs with the same [`WorkloadConfig`] therefore offer the *identical*
//! request stream — the property the serve benchmark leans on when it
//! compares warm-cache batched serving against the cold baseline bitwise.
//!
//! Densities are never stored in requests: each request carries only a
//! `density_seed`, and [`densities`] derives the density vector as a pure
//! function of `(gid, seed)`. The same request evaluated through a cached
//! plan or a freshly built plan sees exactly the same input bits.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use pfmm_core::{plan_fingerprint, Fmm, FmmPlan, PlanFingerprint};
use pfmm_tree::PointRec;

use crate::service::Request;

/// How requests arrive.
#[derive(Copy, Clone, Debug, PartialEq)]
pub enum Arrival {
    /// Open loop: requests arrive on a fixed schedule at `rate_per_s`,
    /// independent of service progress (models external clients; this is
    /// the mode that can saturate the service).
    Open {
        /// Mean arrival rate, requests per second.
        rate_per_s: f64,
    },
    /// Closed loop: at most `concurrency` requests in flight; a new one
    /// is issued only when one resolves (models a fixed client pool).
    Closed {
        /// In-flight cap.
        concurrency: usize,
    },
}

/// Workload shape knobs.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Total requests to issue.
    pub requests: usize,
    /// Points per geometry.
    pub n_points: usize,
    /// Distinct hot geometries shared by the hot fraction of requests.
    pub hot_geometries: usize,
    /// Fraction of requests that hit a never-seen-again cold geometry.
    pub cold_fraction: f64,
    /// Arrival process.
    pub arrival: Arrival,
    /// Relative deadline per request, µs (0 = no deadline).
    pub deadline_us: u64,
    /// Priority levels: each request draws uniformly from `1..=levels`.
    pub priority_levels: u8,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            seed: 42,
            requests: 64,
            n_points: 500,
            hot_geometries: 3,
            cold_fraction: 0.15,
            arrival: Arrival::Closed { concurrency: 4 },
            deadline_us: 0,
            priority_levels: 3,
        }
    }
}

/// One pre-generated request: everything except its arrival time (open
/// mode fixes `offset_us`; closed mode stamps arrival when a slot frees).
#[derive(Clone, Debug)]
pub struct ReqSpec {
    /// Geometry index into [`Workload::geometries`].
    pub geom: usize,
    /// Plan-cache key of that geometry.
    pub key: PlanFingerprint,
    /// Arrival offset from run start, µs (open mode).
    pub offset_us: u64,
    /// Shedding priority.
    pub priority: u8,
    /// Seed of the pure density function.
    pub density_seed: u64,
}

/// The fully materialized deterministic workload.
pub struct Workload {
    /// All geometries (hot first, then one per cold request).
    pub geometries: Vec<Vec<PointRec>>,
    /// Requests in issue order.
    pub specs: Vec<ReqSpec>,
    /// The config that generated it.
    pub cfg: WorkloadConfig,
}

impl Workload {
    /// Generate the workload for `fmm` (the fingerprint binds the plan
    /// key to the kernel name and configuration, so the same geometry
    /// under a different kernel never aliases in the cache).
    pub fn generate(cfg: WorkloadConfig, fmm: &Fmm, kernel_name: &str) -> Workload {
        assert!(cfg.hot_geometries >= 1, "need at least one hot geometry");
        assert!(
            (0.0..=1.0).contains(&cfg.cold_fraction),
            "cold_fraction must be a fraction"
        );
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        let mut geometries: Vec<Vec<PointRec>> = (0..cfg.hot_geometries)
            .map(|i| {
                pfmm_core::distrib::uniform_cube(cfg.n_points, cfg.seed.wrapping_add(i as u64), 0)
            })
            .collect();
        let keys: Vec<PlanFingerprint> = geometries
            .iter()
            .map(|g| plan_fingerprint(kernel_name, fmm.config(), 1, g))
            .collect();

        let mean_gap_us = match cfg.arrival {
            Arrival::Open { rate_per_s } => {
                assert!(rate_per_s > 0.0, "open arrival needs a positive rate");
                1e6 / rate_per_s
            }
            Arrival::Closed { concurrency } => {
                assert!(concurrency >= 1, "closed arrival needs concurrency >= 1");
                0.0
            }
        };

        let mut specs = Vec::with_capacity(cfg.requests);
        let mut offset = 0.0f64;
        for i in 0..cfg.requests {
            let cold = (rng.random::<f64>()) < cfg.cold_fraction;
            let (geom, key) = if cold {
                // A unique geometry: seeded far away from the hot pool.
                let g = pfmm_core::distrib::uniform_cube(
                    cfg.n_points,
                    cfg.seed.wrapping_add(0x1000_0000 + i as u64),
                    0,
                );
                let k = plan_fingerprint(kernel_name, fmm.config(), 1, &g);
                geometries.push(g);
                (geometries.len() - 1, k)
            } else {
                let h = rng.random_below(cfg.hot_geometries as u64) as usize;
                (h, keys[h])
            };
            // Exponential inter-arrival (open mode): -ln(1-u) · mean.
            offset += -(1.0 - rng.random::<f64>()).ln() * mean_gap_us;
            specs.push(ReqSpec {
                geom,
                key,
                offset_us: offset as u64,
                priority: 1 + (rng.random_below(cfg.priority_levels.max(1) as u64) as u8),
                density_seed: rng.random::<u64>(),
            });
        }
        Workload {
            geometries,
            specs,
            cfg,
        }
    }

    /// Materialize spec `i` as a [`Request`] arriving at `arrive_us`,
    /// with cost estimates filled in by the caller's model.
    pub fn request(
        &self,
        i: usize,
        arrive_us: u64,
        est_cost_us: u64,
        est_build_us: u64,
    ) -> Request {
        let s = &self.specs[i];
        Request {
            id: i as u64,
            key: s.key,
            geom: s.geom,
            n: self.geometries[s.geom].len(),
            arrive_us,
            deadline_us: if self.cfg.deadline_us == 0 {
                u64::MAX
            } else {
                arrive_us.saturating_add(self.cfg.deadline_us)
            },
            priority: s.priority,
            density_seed: s.density_seed,
            est_cost_us,
            est_build_us,
        }
    }
}

/// The pure density function: component `c` of the point with global id
/// `gid`, under `seed`. SplitMix64 finalizer over `(gid, seed, c)` mapped
/// to `[-1, 1)` — deterministic, order-free, and cheap enough to derive
/// on the worker at evaluation time.
pub fn density_at(gid: u64, seed: u64, c: usize) -> f64 {
    let mut z = gid
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed)
        .wrapping_add((c as u64).wrapping_mul(0xD134_2543_DE82_EF95));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    (z >> 11) as f64 * (2.0 / (1u64 << 53) as f64) - 1.0
}

/// The density vector a request feeds to [`Fmm::apply`]: one value per
/// owned point per source component, in the plan's owned-gid order.
pub fn densities(plan: &FmmPlan, sd: usize, seed: u64) -> Vec<f64> {
    let gids = plan.owned_gids();
    let mut out = Vec::with_capacity(gids.len() * sd);
    for &gid in gids {
        for c in 0..sd {
            out.push(density_at(gid, seed, c));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_core::FmmConfig;
    use pfmm_kernels::Laplace;
    use std::sync::Arc;

    fn fmm() -> Fmm {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 3,
                q: 40,
                ..Default::default()
            },
        )
    }

    #[test]
    fn same_seed_same_workload() {
        let f = fmm();
        let cfg = WorkloadConfig {
            requests: 40,
            n_points: 120,
            arrival: Arrival::Open { rate_per_s: 500.0 },
            ..Default::default()
        };
        let a = Workload::generate(cfg.clone(), &f, "laplace");
        let b = Workload::generate(cfg, &f, "laplace");
        assert_eq!(a.specs.len(), b.specs.len());
        for (x, y) in a.specs.iter().zip(&b.specs) {
            assert_eq!(x.key, y.key);
            assert_eq!(x.offset_us, y.offset_us);
            assert_eq!(x.priority, y.priority);
            assert_eq!(x.density_seed, y.density_seed);
        }
    }

    #[test]
    fn hot_requests_share_keys_and_cold_ones_do_not() {
        let f = fmm();
        let w = Workload::generate(
            WorkloadConfig {
                requests: 60,
                n_points: 100,
                hot_geometries: 2,
                cold_fraction: 0.3,
                ..Default::default()
            },
            &f,
            "laplace",
        );
        let hot: Vec<_> = w.specs.iter().filter(|s| s.geom < 2).collect();
        let cold: Vec<_> = w.specs.iter().filter(|s| s.geom >= 2).collect();
        assert!(hot.len() > cold.len(), "mostly hot at 0.3 cold fraction");
        assert!(!cold.is_empty(), "some cold at 0.3 cold fraction");
        // Every cold geometry is unique.
        let mut cold_keys: Vec<_> = cold.iter().map(|s| s.key).collect();
        cold_keys.sort();
        cold_keys.dedup();
        assert_eq!(cold_keys.len(), cold.len());
        // Arrival offsets are non-decreasing.
        assert!(w.specs.windows(2).all(|p| p[0].offset_us <= p[1].offset_us));
        // Priorities stay in band.
        assert!(w.specs.iter().all(|s| (1..=3).contains(&s.priority)));
    }

    #[test]
    fn density_function_is_pure_and_bounded() {
        for gid in [0u64, 1, 77, 1 << 40] {
            for seed in [0u64, 9, u64::MAX] {
                for c in 0..3 {
                    let a = density_at(gid, seed, c);
                    assert_eq!(a.to_bits(), density_at(gid, seed, c).to_bits());
                    assert!((-1.0..1.0).contains(&a));
                }
            }
        }
        // Distinct inputs decorrelate.
        assert_ne!(density_at(1, 2, 0), density_at(2, 1, 0));
        assert_ne!(density_at(1, 2, 0), density_at(1, 2, 1));
    }
}
