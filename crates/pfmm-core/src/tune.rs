//! Points-per-box autotuning.
//!
//! The paper's Table III experiment "resembles the tuning phase and can
//! be part of an autotuning algorithm": the optimal `q` balances the
//! direct U-list work (grows with `q`) against the translation work
//! (shrinks with `q`), and the optimum depends on the kernel, the
//! surface order, and the architecture. [`autotune_q`] runs the real
//! pipeline on a subsample and picks the `q` minimizing measured
//! evaluation time; [`autotune_q_modeled`] minimizes modeled 2009-rate
//! time from the flop counters instead (deterministic, host-independent —
//! what a batch scheduler would use).
//!
//! [`m2l_level_stats`] / [`m2l_crossover`] apply the same modeled-cost
//! idea to the V-list mode: per tree level, compare the dense per-edge
//! operators against the batched half-spectrum path (whose per-source
//! and per-target transforms only pay off once the level carries enough
//! edges) using the shared [`flop_model`] formulas.
//!
//! [`translate_breakeven_boxes`] sizes the smallest operator group the
//! up/down translation engine hands to the GEMM microkernel; smaller
//! groups take the bitwise-identical per-box matvec inside the engine.

use pfmm_mpisim::run;
use pfmm_tree::{build_let, build_lists, octree_from_sorted, PointRec};

use crate::driver::{Fmm, FmmConfig};
use crate::profile::{flop_model, Phase};

/// Result of one tuning probe.
#[derive(Copy, Clone, Debug)]
pub struct TunePoint {
    /// Candidate points-per-box.
    pub q: usize,
    /// Measured evaluation seconds on the subsample.
    pub wall_secs: f64,
    /// Modeled 2009-rate seconds from the flop counters.
    pub modeled_secs: f64,
}

/// Probe every candidate `q` on (a subsample of) the points and return
/// the per-candidate costs. `sample` bounds the subsample size; the
/// subsample keeps the distribution's shape by striding.
pub fn tune_sweep(
    fmm_for: impl Fn(usize) -> Fmm,
    points: &[PointRec],
    candidates: &[usize],
    sample: usize,
) -> Vec<TunePoint> {
    let stride = (points.len() / sample.max(1)).max(1);
    let sub: Vec<PointRec> = points.iter().step_by(stride).copied().collect();
    candidates
        .iter()
        .map(|&q| {
            let fmm = fmm_for(q);
            let prof = run(1, |c| fmm.evaluate(c, sub.clone()).profile.clone())
                .pop()
                .expect("one rank");
            let modeled = Phase::ALL
                .iter()
                .map(|&ph| prof.flops(ph) as f64 / 0.5e9)
                .sum();
            TunePoint {
                q,
                wall_secs: prof.total_secs,
                modeled_secs: modeled,
            }
        })
        .collect()
}

/// Pick the `q` minimizing measured evaluation time on a subsample.
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn autotune_q(
    cfg: FmmConfig,
    kernel: std::sync::Arc<dyn pfmm_kernels::Kernel>,
    points: &[PointRec],
    candidates: &[usize],
    sample: usize,
) -> usize {
    assert!(!candidates.is_empty());
    let sweep = tune_sweep(
        |q| Fmm::new(kernel.clone(), FmmConfig { q, ..cfg }),
        points,
        candidates,
        sample,
    );
    sweep
        .iter()
        .min_by(|a, b| a.wall_secs.partial_cmp(&b.wall_secs).expect("finite times"))
        .expect("nonempty")
        .q
}

/// Pick the `q` minimizing *modeled* evaluation time (deterministic).
///
/// # Panics
/// Panics if `candidates` is empty.
pub fn autotune_q_modeled(
    cfg: FmmConfig,
    kernel: std::sync::Arc<dyn pfmm_kernels::Kernel>,
    points: &[PointRec],
    candidates: &[usize],
    sample: usize,
) -> usize {
    assert!(!candidates.is_empty());
    let sweep = tune_sweep(
        |q| Fmm::new(kernel.clone(), FmmConfig { q, ..cfg }),
        points,
        candidates,
        sample,
    );
    sweep
        .iter()
        .min_by(|a, b| {
            a.modeled_secs
                .partial_cmp(&b.modeled_secs)
                .expect("finite times")
        })
        .expect("nonempty")
        .q
}

/// V-list statistics of one tree level, gathered from a built LET.
#[derive(Copy, Clone, Debug)]
pub struct M2lLevelStats {
    /// Octant level.
    pub level: u32,
    /// V-list edges targeting octants of this level.
    pub edges: u64,
    /// Distinct V-list sources at this level (one forward transform each
    /// under the batched path).
    pub sources: u64,
    /// Targets with at least one V edge (one inverse transform each).
    pub targets: u64,
}

/// The modeled per-level verdict of [`m2l_crossover`].
#[derive(Copy, Clone, Debug)]
pub struct M2lChoice {
    /// Octant level.
    pub level: u32,
    /// Modeled flops of the dense per-edge operators at this level.
    pub dense_flops: u64,
    /// Modeled flops of the batched half-spectrum path (per-edge Hadamard
    /// plus the per-source/per-target transforms it must amortize).
    pub batched_flops: u64,
    /// True when the batched spectral path is modeled cheaper.
    pub use_batched: bool,
}

/// Gather per-level V-list statistics by building the tree (one rank,
/// no evaluation). Levels without V edges are omitted.
pub fn m2l_level_stats(fmm: &Fmm, points: &[PointRec]) -> Vec<M2lLevelStats> {
    let pts = points.to_vec();
    run(1, |c| {
        let (sorted, region) = crate::plan::sort_points(fmm, c, pts.clone());
        let tree = octree_from_sorted(c, sorted, region, fmm.config().q);
        let l = build_let(c, &tree);
        let lists = build_lists(&l);
        let maxlev = l.octs.iter().map(|o| o.level()).max().unwrap_or(0) as usize;
        let mut edges = vec![0u64; maxlev + 1];
        let mut targets = vec![0u64; maxlev + 1];
        let mut src_seen = vec![false; l.len()];
        for bi in 0..l.len() {
            if !l.local[bi] {
                continue;
            }
            let row = lists.v.row(bi);
            if row.is_empty() {
                continue;
            }
            let lev = l.octs[bi].level() as usize;
            edges[lev] += row.len() as u64;
            targets[lev] += 1;
            for &ai in row {
                src_seen[ai as usize] = true;
            }
        }
        let mut sources = vec![0u64; maxlev + 1];
        for (i, &s) in src_seen.iter().enumerate() {
            if s {
                sources[l.octs[i].level() as usize] += 1;
            }
        }
        (0..=maxlev)
            .filter(|&lv| edges[lv] > 0)
            .map(|lv| M2lLevelStats {
                level: lv as u32,
                edges: edges[lv],
                sources: sources[lv],
                targets: targets[lv],
            })
            .collect::<Vec<_>>()
    })
    .pop()
    .expect("one rank")
}

/// Model the per-level crossover between dense and batched M2L: the
/// batched path pays per-source/per-target transforms that only amortize
/// once a level carries enough V edges, so sparse coarse levels favor the
/// dense operators — the Table-III-style tuning decision, applied to the
/// V-list mode instead of `q`.
pub fn m2l_crossover(fmm: &Fmm, stats: &[M2lLevelStats]) -> Vec<M2lChoice> {
    let ops = fmm.ops();
    let fftb = fmm.fft_batched();
    let dense_edge = flop_model::m2l_dense_edge(ops.check_len(), ops.density_len());
    stats
        .iter()
        .map(|s| {
            let dense_flops = s.edges * dense_edge;
            let batched_flops = s.edges * fftb.flops_edge()
                + s.sources * fftb.flops_forward()
                + s.targets * fftb.flops_inverse();
            M2lChoice {
                level: s.level,
                dense_flops,
                batched_flops,
                use_batched: batched_flops < dense_flops,
            }
        })
        .collect()
}

/// Modeled per-element speedup of the register-tiled GEMM microkernel
/// over the per-box matvec on a full panel — a conservative floor.
pub const TRANSLATE_GEMM_SPEEDUP: f64 = 2.0;

/// Smallest boxes-per-class group at which the GEMM is modeled faster:
/// a group of `m` right-hand sides is zero-padded to a multiple of
/// [`pfmm_linalg::GEMM_NR`] columns, so the microkernel speedup must
/// outweigh the padding inflation `pad(m)/m`. With `GEMM_NR = 4` and a 2×
/// speedup this is 2; the engine's per-group dispatch uses this floor,
/// and because the sub-threshold fallback is bitwise identical to the
/// GEMM, the choice is numerics-free.
pub fn translate_breakeven_boxes() -> usize {
    (1..)
        .find(|&m: &usize| {
            (m.div_ceil(pfmm_linalg::GEMM_NR) * pfmm_linalg::GEMM_NR) as f64 / (m as f64)
                <= TRANSLATE_GEMM_SPEEDUP
        })
        .expect("padding ratio reaches 1")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::{randomize_densities, uniform_cube};
    use pfmm_kernels::Laplace;
    use std::sync::Arc;

    #[test]
    fn sweep_probes_every_candidate() {
        let mut pts = uniform_cube(3000, 41, 0);
        randomize_densities(&mut pts, 1, 2);
        let cfg = FmmConfig {
            order: 4,
            ..Default::default()
        };
        let sweep = tune_sweep(
            |q| Fmm::new(Arc::new(Laplace), FmmConfig { q, ..cfg }),
            &pts,
            &[10, 60, 400],
            1500,
        );
        assert_eq!(sweep.len(), 3);
        for t in &sweep {
            assert!(t.wall_secs > 0.0 && t.modeled_secs > 0.0);
        }
    }

    #[test]
    fn modeled_tuner_avoids_extremes() {
        // On a uniform cloud, a tiny q (all translation) and a huge q
        // (all direct) both lose to a middle q — the Table III shape.
        let mut pts = uniform_cube(6000, 43, 0);
        randomize_densities(&mut pts, 1, 3);
        let cfg = FmmConfig {
            order: 4,
            ..Default::default()
        };
        let sweep = tune_sweep(
            |q| Fmm::new(Arc::new(Laplace), FmmConfig { q, ..cfg }),
            &pts,
            &[2, 50, 6000],
            6000,
        );
        let best = sweep
            .iter()
            .min_by(|a, b| a.modeled_secs.partial_cmp(&b.modeled_secs).expect("finite"))
            .expect("nonempty");
        assert_eq!(best.q, 50, "{sweep:?}");
        let chosen = autotune_q_modeled(cfg, Arc::new(Laplace), &pts, &[2, 50, 6000], 6000);
        assert_eq!(chosen, 50);
    }

    #[test]
    fn crossover_prefers_dense_when_transforms_dominate() {
        // One edge per source and per target: the batched path pays a
        // forward and an inverse FFT to save a single mat-vec — dense
        // must win, and the flop totals must be consistent.
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 6,
                ..Default::default()
            },
        );
        let sparse = [M2lLevelStats {
            level: 2,
            edges: 1,
            sources: 1,
            targets: 1,
        }];
        let c = m2l_crossover(&fmm, &sparse);
        assert_eq!(c.len(), 1);
        assert!(!c[0].use_batched, "{:?}", c[0]);
        let fftb = fmm.fft_batched();
        assert_eq!(
            c[0].batched_flops,
            fftb.flops_edge() + fftb.flops_forward() + fftb.flops_inverse()
        );
    }

    #[test]
    fn crossover_prefers_batched_on_dense_levels() {
        // A deep uniform level: ~30 edges per target amortize the
        // per-octant transforms many times over.
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 6,
                ..Default::default()
            },
        );
        let busy = [M2lLevelStats {
            level: 4,
            edges: 30_000,
            sources: 1_000,
            targets: 1_000,
        }];
        let c = m2l_crossover(&fmm, &busy);
        assert!(c[0].use_batched, "{:?}", c[0]);
        assert!(c[0].batched_flops < c[0].dense_flops);
    }

    #[test]
    fn level_stats_count_a_uniform_cube() {
        let mut pts = uniform_cube(4000, 47, 0);
        randomize_densities(&mut pts, 1, 5);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 40,
                ..Default::default()
            },
        );
        let stats = m2l_level_stats(&fmm, &pts);
        assert!(!stats.is_empty());
        let total_edges: u64 = stats.iter().map(|s| s.edges).sum();
        assert!(total_edges > 0);
        for s in &stats {
            assert!(s.targets > 0 && s.sources > 0);
            // V-list fan-in is bounded by the 316 valid transfer vectors.
            assert!(s.edges <= s.targets * 316, "{s:?}");
        }
        // The crossover runs end to end on real stats.
        let choices = m2l_crossover(&fmm, &stats);
        assert_eq!(choices.len(), stats.len());
    }

    #[test]
    fn translate_breakeven_is_two_boxes() {
        // pad(m)/m with GEMM_NR = 4: 4/1=4, 4/2=2 (tie → GEMM, the
        // fallback is bitwise identical so the tie costs nothing).
        assert_eq!(translate_breakeven_boxes(), 2);
    }
}
