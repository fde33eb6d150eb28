//! Points-per-box choice and tuning probes.
//!
//! The paper's Table III experiment "resembles the tuning phase and can
//! be part of an autotuning algorithm": the optimal `q` balances the
//! direct U-list work (grows with `q`) against the translation work
//! (shrinks with `q`), and the optimum depends on the kernel, the
//! surface order, and the architecture. [`model_q`] picks it from the
//! flop models the executor charges, weighted by the phases' measured
//! rates; `Fmm::new` resolves `FmmConfig::q == 0` (the default) to it.
//! [`tune_sweep`] runs the real pipeline on a subsample for each
//! candidate `q` and reports the measured evaluation time (`pfmm tune`
//! prints the sweep beside the model's choice).
//!
//! [`translate_breakeven_boxes`] sizes the smallest operator group the
//! up/down translation engine hands to the GEMM microkernel; smaller
//! groups take the bitwise-identical per-box matvec inside the engine.

use pfmm_kernels::Kernel;
use pfmm_mpisim::run;
use pfmm_tree::PointRec;

use crate::driver::Fmm;
use crate::profile::flop_model;
use crate::surface::surface_size;

/// V-list edges of an interior leaf of a uniform tree: the 6³ children
/// of its parent's 27 colleagues, less the 27 boxes adjacent to it.
const V_EDGES_PER_LEAF: u64 = 189;

/// U-list sources of an interior leaf of a uniform tree: the 27 leaves
/// adjacent to it, itself included.
const U_LEAVES_PER_LEAF: u64 = 27;

/// Sustained U-list rate over sustained V-list rate (GF/s ÷ GF/s), the
/// one architecture constant of [`model_q`]. Source: the
/// `phase.ulist_gflops` / `phase.vlist_gflops` rows of
/// `perfbench --trace 1` on a 2-core AVX-512 host, read at the trees this
/// constant builds (the tiled U-list runs faster on fuller leaves, so
/// the ratio is taken where the model lands): `laplace-uniform-100k`
/// 1.53–1.84 over 3 seeds (median 1.70), `stokes-ellipsoid-p2`
/// 1.21–1.88 over 7 seeds (median 1.62); their geometric mean, 1.66, to
/// the one digit the host's noise supports. At the parent's q = 64
/// trees the same rows read 0.8–1.7: smaller leaves fill fewer tile
/// lanes, so the constant belongs to the trees it builds.
pub const ULIST_OVER_VLIST_RATE: f64 = 1.6;

/// Modeled flops of one leaf's far field, independent of its occupancy:
/// [`V_EDGES_PER_LEAF`] half-spectrum Hadamard edges, the pruned
/// forward and inverse transforms of the box, and its four
/// surface-to-surface translations (uc2e, U2U, D2D, dc2e).
fn far_flops_per_leaf(kernel: &dyn Kernel, order: usize) -> u64 {
    let (sd, td) = (kernel.source_dim(), kernel.target_dim());
    let n = 2 * order;
    let nf = n * n * (n / 2 + 1);
    let ns = surface_size(order);
    V_EDGES_PER_LEAF * flop_model::hadamard_edge(nf, sd, td)
        + flop_model::pruned_dft_forward(n, order) * sd as u64
        + flop_model::pruned_dft_inverse(n, order, ns) * td as u64
        + 4 * flop_model::translate_group(ns * td, ns * sd, 1)
}

/// Modeled near-field flops per (target point, source point of the
/// leaf's own occupancy): [`U_LEAVES_PER_LEAF`] adjacent leaves at the
/// kernel's per-pair cost.
fn near_flops_per_pair(kernel: &dyn Kernel) -> u64 {
    U_LEAVES_PER_LEAF * kernel.flops_per_pair()
}

/// The modeled leaf bound `q` for `kernel` at surface `order`.
///
/// With `s` points per leaf, the far field costs `far / s` and the near
/// field `near · s` per point, each at its phase's rate, so the cheapest
/// occupancy is `s* = √(far / near · ULIST_OVER_VLIST_RATE)`. A uniform
/// region splits a box of more than `q` points into eight, so its leaf
/// occupancies span `(q/8, q]`; `q = √8 · s*` centres that span on `s*`
/// (geometrically). The result depends on kernel and order only: no
/// timing, thread count or geometry enters it, so every evaluator built
/// from the same configuration builds the same trees.
pub fn model_q(kernel: &dyn Kernel, order: usize) -> usize {
    let far = far_flops_per_leaf(kernel, order) as f64;
    let near = near_flops_per_pair(kernel) as f64;
    let s = (far / near * ULIST_OVER_VLIST_RATE).sqrt();
    ((8f64.sqrt() * s).round() as usize).max(1)
}

/// Result of one tuning probe.
#[derive(Copy, Clone, Debug)]
pub struct TunePoint {
    /// Candidate points-per-box.
    pub q: usize,
    /// Measured evaluation seconds on the subsample.
    pub wall_secs: f64,
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
            let secs = run(1, |c| fmm.evaluate(c, sub.clone()).profile.total_secs)
                .pop()
                .expect("one rank");
            TunePoint { q, wall_secs: secs }
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
    use crate::profile::Phase;
    use pfmm_kernels::{Laplace, LaplaceDipole, Stokes, Yukawa};
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
        for (t, q) in sweep.iter().zip([10, 60, 400]) {
            assert_eq!(t.q, q);
            assert!(t.wall_secs > 0.0);
        }
    }

    /// The documented equal-rate figures: Laplace order 6 ≈ 166, Stokes
    /// order 4 ≈ 163; the rate constant scales both by its square root.
    #[test]
    fn model_matches_its_documented_figures() {
        let at_equal_rates = |k: &dyn Kernel, order| {
            (8.0 * far_flops_per_leaf(k, order) as f64 / near_flops_per_pair(k) as f64).sqrt()
        };
        for (k, order, want) in [
            (&Laplace as &dyn Kernel, 6, 166.0),
            (&Stokes::default(), 4, 163.0),
        ] {
            let q = at_equal_rates(k, order);
            assert!((q - want).abs() < 1.0, "{}: {q}", k.name());
            let scaled = q * ULIST_OVER_VLIST_RATE.sqrt();
            assert_eq!(model_q(k, order), scaled.round() as usize);
        }
    }

    #[test]
    fn model_q_does_not_decrease_with_order() {
        let kernels: [Arc<dyn Kernel>; 4] = [
            Arc::new(Laplace),
            Arc::new(Stokes::default()),
            Arc::new(Yukawa::default()),
            Arc::new(LaplaceDipole),
        ];
        for k in kernels {
            let qs: Vec<usize> = [4, 6, 8].iter().map(|&o| model_q(k.as_ref(), o)).collect();
            assert!(qs[0] > 0, "{}: {qs:?}", k.name());
            assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{}: {qs:?}", k.name());
        }
    }

    #[test]
    fn modeled_tuner_avoids_extremes() {
        // On a uniform cloud, the real pipeline's flop counters, weighted
        // by the model's rate constant, cost more at a tiny q (all
        // translation) and at a huge q (all direct) than at the model's
        // q — the Table III shape, read off the executed work.
        let mut pts = uniform_cube(6000, 43, 0);
        randomize_densities(&mut pts, 1, 3);
        let order = 4;
        let auto = model_q(&Laplace, order);
        let cost = |q: usize| {
            let fmm = Fmm::new(
                Arc::new(Laplace),
                FmmConfig {
                    order,
                    q,
                    ..Default::default()
                },
            );
            let prof = run(1, |c| fmm.evaluate(c, pts.clone()).profile.clone())
                .pop()
                .expect("one rank");
            Phase::ALL
                .iter()
                .map(|&ph| match ph {
                    Phase::UList => prof.flops(ph) as f64 / ULIST_OVER_VLIST_RATE,
                    _ => prof.flops(ph) as f64,
                })
                .sum::<f64>()
        };
        let mid = cost(auto);
        for q in [2, 6000] {
            assert!(cost(q) > mid, "q {q} vs model q {auto}");
        }
    }

    #[test]
    fn translate_breakeven_is_two_boxes() {
        // pad(m)/m with GEMM_NR = 4: 4/1=4, 4/2=2 (tie → GEMM, the
        // fallback is bitwise identical so the tie costs nothing).
        assert_eq!(translate_breakeven_boxes(), 2);
    }
}
