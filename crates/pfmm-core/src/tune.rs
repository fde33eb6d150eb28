//! Points-per-box tuning probes.
//!
//! The paper's Table III experiment "resembles the tuning phase and can
//! be part of an autotuning algorithm": the optimal `q` balances the
//! direct U-list work (grows with `q`) against the translation work
//! (shrinks with `q`), and the optimum depends on the kernel, the
//! surface order, and the architecture. [`tune_sweep`] runs the real
//! pipeline on a subsample for each candidate `q` and reports both the
//! measured evaluation time and the modeled 2009-rate time from the flop
//! counters (`pfmm tune` prints the sweep).
//!
//! [`translate_breakeven_boxes`] sizes the smallest operator group the
//! up/down translation engine hands to the GEMM microkernel; smaller
//! groups take the bitwise-identical per-box matvec inside the engine.

use pfmm_mpisim::run;
use pfmm_tree::PointRec;

use crate::driver::Fmm;
use crate::profile::Phase;

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
    use crate::driver::FmmConfig;
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
    }

    #[test]
    fn translate_breakeven_is_two_boxes() {
        // pad(m)/m with GEMM_NR = 4: 4/1=4, 4/2=2 (tie → GEMM, the
        // fallback is bitwise identical so the tie costs nothing).
        assert_eq!(translate_breakeven_boxes(), 2);
    }
}
