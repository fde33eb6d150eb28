//! FMM setup and evaluation — Algorithm 1 over the LET, instrumented per
//! phase.
//!
//! One [`Fmm`] object holds the kernel, the translation-operator caches,
//! and the configuration; [`Fmm::evaluate`] runs the full pipeline on any
//! communicator (including the trivial single-rank one) as a
//! [`Fmm::plan`] followed by one apply (both in [`crate::plan`]):
//!
//! setup — Morton sample sort → `Points2Octree` → LET → lists → (optional)
//! work-weighted repartition and rebuild;
//!
//! evaluation — S2U, U2U (upward), hypercube reduce-and-scatter of shared
//! up-densities, V/X into the downward check potentials, D2D + D2T
//! (downward), W, and the direct U-list, with per-phase wall-clock and
//! flop accounting matching the paper's Table II rows.

use std::sync::Arc;

use pfmm_kernels::Kernel;
use pfmm_mpisim::collectives::{allgatherv, allreduce};
use pfmm_mpisim::{Comm, CommStats};
use pfmm_trace::{TraceLevel, Tracer, TID_MAIN};
use pfmm_tree::{Let, PointRec, SetupPar};

use crate::m2l_batched::FftBatchedM2l;
use crate::ops::Ops;
use crate::profile::Profile;

/// How the V-list translation is evaluated.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum M2lMode {
    /// Dense per-offset operator matrices (the reference oracle).
    Dense,
    /// FFT-diagonalized translation (§IV): one lock-free kernel-spectrum
    /// table per `Fmm`, a sibling-blocked, frequency-chunked Hadamard
    /// over split-complex half spectra, and reusable scratch — the
    /// production path.
    FftBatched,
}

/// Parallel-sort backend for the setup phase (the paper's sort is a
/// "combination of sample sort and bitonic sort").
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum SortKind {
    /// Sample sort: one splitter round plus one all-to-all (default).
    Sample,
    /// Hypercube bitonic network; requires a power-of-two communicator
    /// (falls back to sample sort otherwise).
    Bitonic,
}

/// Which up-density reduction runs in the Comm phase.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Reduction {
    /// Hypercube reduce-and-scatter when `p` is a power of two, the
    /// owner-based scheme otherwise.
    Auto,
    /// Force Algorithm 3 (panics on non-power-of-two communicators).
    Hypercube,
    /// Force the owner-based baseline (the ablation path).
    Naive,
}

/// FMM parameters.
#[derive(Copy, Clone, Debug)]
pub struct FmmConfig {
    /// Surface order (points per cube edge); 4 ≈ 3 digits, 6 ≈ 5 digits.
    pub order: usize,
    /// Maximum points per leaf octant (the paper's `q`). `0`, the
    /// default, asks [`Fmm::new`] for the cost model's choice for this
    /// kernel and order ([`crate::tune::model_q`]); any other value is used
    /// as given. [`Fmm::config`] reports the resolved value.
    pub q: usize,
    /// V-list evaluation mode.
    pub m2l: M2lMode,
    /// Run the work-weighted repartition of §III-B (only meaningful for
    /// more than one rank).
    pub balance: bool,
    /// Up-density reduction scheme.
    pub reduction: Reduction,
    /// Intra-rank threads for the per-octant evaluation phases (S2U, V,
    /// X, D2T, W, U — the parallel set of §IV) and for the setup pipeline
    /// (sort, tree, LET, lists, plan precompute; clamped to the host's
    /// parallelism, bitwise independent of the count); 1 = fully
    /// sequential.
    pub threads: usize,
    /// Parallel-sort backend.
    pub sort: SortKind,
}

impl Default for FmmConfig {
    fn default() -> Self {
        FmmConfig {
            order: 6,
            q: 0,
            m2l: M2lMode::FftBatched,
            balance: true,
            reduction: Reduction::Auto,
            threads: 1,
            sort: SortKind::Sample,
        }
    }
}

/// Global tree shape statistics (all ranks agree on these).
#[derive(Copy, Clone, Debug, Default)]
pub struct TreeInfo {
    /// Leaves of the global tree.
    pub global_leaves: u64,
    /// Octants in this rank's LET.
    pub local_octants: u64,
    /// Coarsest leaf level.
    pub min_leaf_level: u32,
    /// Finest leaf level.
    pub max_leaf_level: u32,
}

/// The output of one evaluation on one rank.
pub struct PotentialResult {
    /// Global ids of the points this rank ended up owning.
    pub gids: Vec<u64>,
    /// Potentials, packed `target_dim` per point, aligned with `gids`.
    pub pot: Vec<f64>,
    /// Per-phase timings and flop counts.
    pub profile: Profile,
    /// Message/byte counters at completion.
    pub comm: CommStats,
    /// Traffic of the Comm phase alone (the reduce-and-scatter).
    pub comm_reduce: CommStats,
    /// Tree shape.
    pub info: TreeInfo,
}

/// A reusable FMM evaluator for one kernel and configuration.
///
/// `Fmm` is `Sync`: one instance can be shared by all rank threads of an
/// `mpisim::run` (the operator caches are internally locked and are warm
/// after the first evaluation). It owns the batched M2L's kernel-spectrum
/// table, built once on the first workspace that needs it and then read
/// lock-free by every plan, rank and workspace.
pub struct Fmm {
    kernel: Arc<dyn Kernel>,
    cfg: FmmConfig,
    ops: Ops,
    fftb: FftBatchedM2l,
}

impl Fmm {
    /// Create an evaluator. A `cfg.q` of 0 resolves to
    /// [`crate::tune::model_q`] for the kernel and order.
    pub fn new(kernel: Arc<dyn Kernel>, mut cfg: FmmConfig) -> Fmm {
        let ops = Ops::new(kernel.clone(), cfg.order);
        let fftb = FftBatchedM2l::new(kernel.clone(), cfg.order);
        if cfg.q == 0 {
            cfg.q = crate::tune::model_q(kernel.as_ref(), cfg.order);
        }
        Fmm {
            kernel,
            cfg,
            ops,
            fftb,
        }
    }

    /// The configuration in use, with `q` resolved (never 0).
    pub fn config(&self) -> &FmmConfig {
        &self.cfg
    }

    /// The kernel in use.
    pub fn kernel(&self) -> &dyn Kernel {
        self.kernel.as_ref()
    }

    /// The translation-operator cache (advanced use; shared with the
    /// plan-based evaluation path).
    pub fn ops(&self) -> &Ops {
        &self.ops
    }

    /// The batched lock-free spectral M2L engine, with the shared
    /// kernel-spectrum table.
    pub fn fft_batched(&self) -> &FftBatchedM2l {
        &self.fftb
    }

    /// The intra-rank parallelism of the setup pipeline (sort, tree,
    /// LET, lists, plan precompute): `threads` workers.
    ///
    /// The worker count is clamped to the host's available parallelism:
    /// the setup stages are memory-bound streaming passes, so workers
    /// beyond the hardware's concurrency only add spawn overhead and
    /// cache thrash (unlike the evaluation phases, whose `threads` knob
    /// also sizes simulated-rank interleaving). The structures built are
    /// bitwise independent of the worker count, so the clamp is
    /// numerics-free.
    pub(crate) fn setup_par(&self) -> SetupPar {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        SetupPar::Threads(self.cfg.threads.clamp(1, hw))
    }

    /// Evaluate the N-body sum on a communicator; every rank passes its
    /// share of the points (any distribution) and receives potentials for
    /// the points it owns afterwards.
    pub fn evaluate(&self, c: &Comm, points: Vec<PointRec>) -> PotentialResult {
        self.evaluate_observed(c, points, &Arc::new(Tracer::off()), pfmm_metrics::global())
    }

    /// [`Fmm::evaluate`] with structured span tracing, publishing this
    /// run's accounting into an explicit metrics registry. The one-shot
    /// evaluation is [`Fmm::plan`] followed by one apply of the points'
    /// own densities, so its potentials are bitwise those of
    /// `plan` + `apply` on the same input.
    ///
    /// Trace levels: `Phase` records setup and whole-phase spans, `Task`
    /// adds one span per chunk/task, `Comm` adds per-message instants and
    /// cross-rank flow arrows (the tracer is attached to the communicator
    /// for the duration of the call). Tracing never changes the
    /// arithmetic: a traced run's potentials are bitwise identical to an
    /// untraced one. Metrics are recorded after
    /// the arithmetic finishes, from the same `Profile`/`CommStats`
    /// values stored in the returned result, so they can never disagree
    /// with the result they describe.
    pub fn evaluate_observed(
        &self,
        c: &Comm,
        points: Vec<PointRec>,
        tracer: &Arc<Tracer>,
        reg: &pfmm_metrics::MetricsRegistry,
    ) -> PotentialResult {
        if tracer.enabled(TraceLevel::Comm) {
            c.set_tracer(tracer.local(c.rank() as u32, TID_MAIN));
        }
        let mut plan = self.plan_traced(c, points, tracer, true);
        let den = plan.owned_densities();
        let mut ws = plan.ws.take().expect("workspace built with the plan");
        let mut pot = Vec::with_capacity(plan.num_owned() * self.kernel.target_dim());
        let setup = plan.setup.clone();
        let (profile, comm_reduce) =
            self.apply_core(c, &mut plan, &mut ws, &den, &mut pot, tracer, setup);

        let info = tree_info(c, &plan.l);
        let comm = c.stats();
        if reg.enabled() {
            let (kernel, rank) = (self.kernel.name(), c.rank());
            crate::obs::record_evaluation(reg, kernel, rank, &profile, &plan.lists);
            pfmm_mpisim::obs::record_comm(reg, rank, &comm);
        }
        PotentialResult {
            gids: plan.owned_gids,
            pot,
            profile,
            comm,
            comm_reduce,
            info,
        }
    }
}

/// Global tree statistics via small all-reduces.
fn tree_info(c: &Comm, l: &Let) -> TreeInfo {
    let local_leaves = l.owned_indices().len() as u64;
    let mut minl = u32::MAX;
    let mut maxl = 0u32;
    for i in 0..l.len() {
        if l.owned[i] {
            minl = minl.min(l.octs[i].level());
            maxl = maxl.max(l.octs[i].level());
        }
    }
    let leaves = allreduce(c, vec![local_leaves], |a, b| a + b);
    let minmax = allreduce(c, vec![minl as u64], std::cmp::min);
    let maxmax = allreduce(c, vec![maxl as u64], std::cmp::max);
    TreeInfo {
        global_leaves: leaves[0],
        local_octants: l.len() as u64,
        min_leaf_level: minmax[0] as u32,
        max_leaf_level: maxmax[0] as u32,
    }
}

/// Gather every rank's (gid, potential) pairs — a test/report helper, not
/// part of the scalable pipeline.
pub fn gather_potentials(c: &Comm, res: &PotentialResult, td: usize) -> Vec<(u64, Vec<f64>)> {
    let gids = allgatherv(c, &res.gids);
    let pots = allgatherv(c, &res.pot);
    gids.into_iter()
        .enumerate()
        .map(|(i, g)| (g, pots[i * td..(i + 1) * td].to_vec()))
        .collect()
}

/// Route potentials back to their original contributors.
///
/// The pipeline owns the final point distribution ("the final
/// distribution of the points is determined by the algorithm", §III);
/// applications usually want each result back on the rank that supplied
/// the point. `owner_of(gid)` must be the same pure function on every
/// rank (typically derived from how the caller assigned gids); returns
/// this rank's `(gid, potential)` pairs. Scalable: one personalized
/// all-to-all, no global gather.
///
/// # Panics
/// Panics if `owner_of` names a rank outside the communicator or if the
/// potential packing disagrees with `td`.
pub fn route_potentials(
    c: &Comm,
    res: &PotentialResult,
    td: usize,
    owner_of: impl Fn(u64) -> usize,
) -> Vec<(u64, Vec<f64>)> {
    assert_eq!(res.pot.len(), res.gids.len() * td, "potential packing");
    let p = c.size();
    let mut out_gids: Vec<Vec<u64>> = vec![Vec::new(); p];
    let mut out_pots: Vec<Vec<f64>> = vec![Vec::new(); p];
    for (i, &g) in res.gids.iter().enumerate() {
        let dest = owner_of(g);
        assert!(dest < p, "owner_of({g}) = {dest} out of range");
        out_gids[dest].push(g);
        out_pots[dest].extend_from_slice(&res.pot[i * td..(i + 1) * td]);
    }
    let in_gids = pfmm_mpisim::collectives::alltoallv(c, out_gids);
    let in_pots = pfmm_mpisim::collectives::alltoallv(c, out_pots);
    let mut out = Vec::new();
    for (gids, pots) in in_gids.into_iter().zip(in_pots) {
        for (i, g) in gids.into_iter().enumerate() {
            out.push((g, pots[i * td..(i + 1) * td].to_vec()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
    use crate::profile::Phase;
    use pfmm_kernels::{direct_eval, Laplace, Point3, Stokes};
    use pfmm_mpisim::run;

    /// Relative ℓ² error of FMM potentials against the direct sum.
    fn rel_error(kernel: &dyn Kernel, pts: &[PointRec], gp: &[(u64, Vec<f64>)]) -> f64 {
        let td = kernel.target_dim();
        let sd = kernel.source_dim();
        let pos: Vec<Point3> = pts.iter().map(|p| p.pos).collect();
        let mut den = Vec::with_capacity(pts.len() * sd);
        for p in pts {
            den.extend_from_slice(&p.den[..sd]);
        }
        let mut want = vec![0.0; pts.len() * td];
        direct_eval(kernel, &pos, &pos, &den, &mut want);
        let gid_to_idx: std::collections::HashMap<u64, usize> =
            pts.iter().enumerate().map(|(i, p)| (p.gid, i)).collect();
        let mut num = 0.0;
        let mut denom = 0.0;
        assert_eq!(
            gp.len(),
            pts.len(),
            "every point gets a potential exactly once"
        );
        for (gid, got) in gp {
            let i = gid_to_idx[gid];
            for t in 0..td {
                let w = want[i * td + t];
                num += (got[t] - w) * (got[t] - w);
                denom += w * w;
            }
        }
        (num / denom).sqrt()
    }

    fn run_fmm(
        kernel: Arc<dyn Kernel>,
        cfg: FmmConfig,
        pts: Vec<PointRec>,
        p: usize,
    ) -> Vec<(u64, Vec<f64>)> {
        let td = kernel.target_dim();
        let fmm = Fmm::new(kernel, cfg);
        let mut out = run(p, |c| {
            let mine: Vec<PointRec> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
            let res = fmm.evaluate(c, mine);
            gather_potentials(c, &res, td)
        });
        out.pop().expect("at least one rank")
    }

    /// `q == 0` resolves to the cost model's choice: the same at every
    /// thread count and on every `Fmm::new`, never 0. An explicit `q`
    /// passes through unchanged.
    #[test]
    fn auto_q_is_deterministic_and_explicit_q_passes_through() {
        let kernels: [(Arc<dyn Kernel>, usize); 2] =
            [(Arc::new(Laplace), 6), (Arc::new(Stokes::default()), 4)];
        for (kernel, order) in kernels {
            let want = crate::tune::model_q(kernel.as_ref(), order);
            assert!(want > 0);
            for threads in [1, 2, 3] {
                let cfg = FmmConfig {
                    order,
                    threads,
                    ..Default::default()
                };
                assert_eq!(cfg.q, 0, "the default asks for the model");
                for _ in 0..2 {
                    let fmm = Fmm::new(kernel.clone(), cfg);
                    assert_eq!(fmm.config().q, want, "{} threads {threads}", kernel.name());
                }
                for q in [1, 37, want + 1] {
                    let fmm = Fmm::new(kernel.clone(), FmmConfig { q, ..cfg });
                    assert_eq!(fmm.config().q, q);
                }
            }
        }
    }

    #[test]
    fn laplace_uniform_accuracy_order6() {
        let mut pts = uniform_cube(1500, 11, 0);
        randomize_densities(&mut pts, 1, 5);
        let cfg = FmmConfig {
            order: 6,
            q: 60,
            ..Default::default()
        };
        let gp = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 1);
        let err = rel_error(&Laplace, &pts, &gp);
        assert!(err < 1e-5, "relative l2 error {err}");
    }

    /// Full-pipeline agreement of the batched spectral path with the
    /// dense operators — same truncation, so roundoff-level tolerance.
    #[test]
    fn laplace_dense_matches_fft_batched() {
        let mut pts = uniform_cube(800, 13, 0);
        randomize_densities(&mut pts, 1, 7);
        let base = FmmConfig {
            order: 4,
            q: 30,
            m2l: M2lMode::Dense,
            ..Default::default()
        };
        let dense = run_fmm(Arc::new(Laplace), base, pts.clone(), 1);
        let batched = run_fmm(
            Arc::new(Laplace),
            FmmConfig {
                m2l: M2lMode::FftBatched,
                ..base
            },
            pts.clone(),
            1,
        );
        let d: std::collections::HashMap<u64, Vec<f64>> = dense.into_iter().collect();
        for (gid, pf) in batched {
            let pd = &d[&gid];
            for (a, b) in pf.iter().zip(pd) {
                assert!((a - b).abs() < 1e-8 * b.abs().max(1e-3), "{a} vs {b}");
            }
        }
    }

    /// What the sibling-blocked V-list has to mask on one rank's plan,
    /// after an apply: `[ghost source parent, source child without upward
    /// data, local target without a V list, range cut inside a sibling
    /// group]` at `threads` range cuts.
    fn vlist_coverage(plan: &crate::plan::FmmPlan, threads: usize) -> [bool; 4] {
        let (l, lists) = (&plan.l, &plan.lists);
        let ws = plan.ws.as_ref().expect("applied");
        let mut seen = [false; 4];
        let targets: Vec<usize> = (0..l.len())
            .filter(|&bi| l.local[bi] && !lists.v.row(bi).is_empty())
            .collect();
        for bi in 0..l.len() {
            seen[2] |= l.local[bi] && lists.v.row(bi).is_empty();
        }
        for &bi in &targets {
            for &ai in lists.v.row(bi) {
                let ai = ai as usize;
                let q = l.octs[ai].parent().expect("V source has a parent");
                seen[0] |= l.find(&q).is_none_or(|qi| !l.local[qi]);
                seen[1] |= !ws.has_up[ai];
            }
        }
        let cuts = crate::par::weighted_cuts(threads, &ws.vli_weights);
        for &cut in &cuts[1..cuts.len() - 1] {
            let parent = |bi: usize| l.octs[bi].parent();
            let before = targets.iter().rev().find(|&&bi| bi < cut);
            seen[3] |= before.is_some_and(|&b| {
                targets
                    .iter()
                    .any(|&bi| bi >= cut && parent(bi) == parent(b))
            });
        }
        seen
    }

    /// Adaptive, distributed agreement of the sibling-blocked batched
    /// path with the dense operators (Stokes, ellipsoid, 2 ranks), at one
    /// thread and at three range cuts per rank. The geometry is checked to
    /// exercise every mask of the blocked kernel: ghost source parents,
    /// source children without upward data, targets without a V list, and
    /// a range cut through a sibling group.
    #[test]
    fn stokes_adaptive_distributed_dense_matches_fft_batched() {
        let mut pts = ellipsoid_1_1_4(600, 29, 0);
        randomize_densities(&mut pts, 3, 19);
        let kernel: Arc<dyn Kernel> = Arc::new(Stokes::default());
        let base = FmmConfig {
            order: 4,
            q: 20,
            m2l: M2lMode::Dense,
            ..Default::default()
        };
        // The dense oracle is itself thread-count invariant.
        let dense = run_fmm(kernel.clone(), base, pts.clone(), 2);
        let dense: std::collections::HashMap<u64, Vec<f64>> = dense.into_iter().collect();
        let mut covered = [false; 4];
        for threads in [1usize, 3] {
            let fmm = Fmm::new(
                kernel.clone(),
                FmmConfig {
                    threads,
                    m2l: M2lMode::FftBatched,
                    ..base
                },
            );
            let ranks = run(2, |c| {
                let mine: Vec<PointRec> = pts.iter().skip(c.rank()).step_by(2).copied().collect();
                let mut plan = fmm.plan(c, mine);
                // Generated gids are the point indices.
                let den: Vec<f64> = plan
                    .owned_gids()
                    .iter()
                    .flat_map(|&g| pts[g as usize].den[..3].to_vec())
                    .collect();
                let (pot, _) = fmm.apply(c, &mut plan, &den);
                let seen = vlist_coverage(&plan, threads);
                (plan.owned_gids().to_vec(), pot, seen)
            });
            let mut n = 0;
            for (gids, pot, seen) in ranks {
                for (c, s) in covered.iter_mut().zip(seen) {
                    *c |= s;
                }
                for (gid, pf) in gids.iter().zip(pot.chunks_exact(3)) {
                    n += 1;
                    for (a, b) in pf.iter().zip(&dense[gid]) {
                        assert!(
                            (a - b).abs() < 1e-8 * b.abs().max(1e-3),
                            "threads {threads} gid {gid}: {a} vs {b}"
                        );
                    }
                }
            }
            assert_eq!(n, pts.len());
        }
        assert_eq!(
            covered, [true; 4],
            "[ghost parent, masked has_up, no V list, split group]"
        );
    }

    /// Potentials are bitwise identical at any thread count: the range
    /// cuts move with `threads`, the per-target accumulation order does
    /// not. The 4-rank ellipsoid case runs two hypercube rounds on an
    /// adaptive tree, in both M2L modes.
    #[test]
    fn potentials_bitwise_invariant_in_threads() {
        let mut lap = uniform_cube(600, 37, 0);
        randomize_densities(&mut lap, 1, 21);
        let mut sto = ellipsoid_1_1_4(500, 41, 0);
        randomize_densities(&mut sto, 3, 23);
        let mut ell = ellipsoid_1_1_4(2000, 41, 0);
        randomize_densities(&mut ell, 1, 43);
        let (laplace, stokes): (Arc<dyn Kernel>, Arc<dyn Kernel>) =
            (Arc::new(Laplace), Arc::new(Stokes::default()));
        let cases = [
            (laplace.clone(), lap, 1, M2lMode::FftBatched),
            (stokes, sto, 2, M2lMode::FftBatched),
            (laplace.clone(), ell.clone(), 4, M2lMode::FftBatched),
            (laplace, ell, 4, M2lMode::Dense),
        ];
        for (kernel, pts, p, m2l) in cases {
            let bits = |threads: usize| {
                let cfg = FmmConfig {
                    order: 4,
                    q: 25,
                    m2l,
                    threads,
                    ..Default::default()
                };
                let mut gp = run_fmm(kernel.clone(), cfg, pts.clone(), p);
                gp.sort_by_key(|(g, _)| *g);
                gp.into_iter()
                    .flat_map(|(_, v)| v.into_iter().map(f64::to_bits))
                    .collect::<Vec<u64>>()
            };
            let one = bits(1);
            for threads in [2, 3] {
                let name = kernel.name();
                assert!(
                    bits(threads) == one,
                    "{name} p={p} {m2l:?}: threads {threads}"
                );
            }
        }
    }

    /// Which W/X pair kinds one rank's plan holds after demotion:
    /// `[W moved, W kept, X moved, X kept]`. A moved pair is a U entry
    /// not adjacent to its target leaf β — finer than β if it came from
    /// W, coarser if from X. Kept pairs count only where a move was
    /// possible (a leaf W source, an owned-leaf X target), so a kept pair
    /// is one the size test turned down.
    fn wx_demotion_mix(plan: &crate::plan::FmmPlan) -> [bool; 4] {
        let (l, lists) = (&plan.l, &plan.lists);
        let mut seen = [false; 4];
        for bi in (0..l.len()).filter(|&bi| l.owned[bi]) {
            let beta = l.octs[bi];
            for &ai in lists.u.row(bi) {
                let alpha = l.octs[ai as usize];
                if ai as usize != bi && !alpha.is_adjacent(&beta) {
                    seen[if alpha.level() > beta.level() { 0 } else { 2 }] = true;
                }
            }
            seen[1] |= lists.w.row(bi).iter().any(|&ai| l.is_leaf[ai as usize]);
            seen[3] |= !lists.x.row(bi).is_empty();
        }
        seen
    }

    /// Small W/X pairs demoted to direct interactions stay exact: on an
    /// adaptive distributed Stokes tree and a clustered Laplace tree
    /// holding both moved and kept W and X pairs, the potentials meet the
    /// direct sum and the dense-M2L oracle at the usual tolerances, and
    /// stay bitwise invariant in the thread count.
    #[test]
    fn demoted_wx_pairs_stay_exact_and_deterministic() {
        let mut sto = ellipsoid_1_1_4(1500, 43, 0);
        randomize_densities(&mut sto, 3, 25);
        // Half the points in a tight cluster over a uniform background.
        let mut lap = uniform_cube(1500, 47, 0);
        for pt in lap.iter_mut().step_by(2) {
            pt.pos = pt.pos.map(|x| 0.3 + 0.05 * x);
        }
        randomize_densities(&mut lap, 1, 27);
        // (kernel, points, ranks, direct-sum tolerance)
        type Case = (Arc<dyn Kernel>, Vec<PointRec>, usize, f64);
        let cases: [Case; 2] = [
            (Arc::new(Stokes::default()), sto, 2, 5e-3),
            (Arc::new(Laplace), lap, 1, 1e-3),
        ];
        for (kernel, pts, p, tol) in cases {
            let name = kernel.name();
            // q above the 56-point order-4 surface, so leaves fall on
            // both sides of the size test.
            let base = FmmConfig {
                order: 4,
                q: 80,
                ..Default::default()
            };
            // Plan + apply is bitwise the one-shot evaluation.
            let td = kernel.target_dim();
            let fmm = Fmm::new(kernel.clone(), base);
            let ranks = run(p, |c| {
                let mine: Vec<PointRec> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
                let mut plan = fmm.plan(c, mine);
                let den = plan.owned_densities();
                let (pot, _) = fmm.apply(c, &mut plan, &den);
                (wx_demotion_mix(&plan), plan.owned_gids().to_vec(), pot)
            });
            let mut mix = [false; 4];
            let mut got = Vec::new();
            for (m, gids, pot) in ranks {
                mix = std::array::from_fn(|k| mix[k] | m[k]);
                got.extend(
                    gids.into_iter()
                        .zip(pot.chunks_exact(td).map(<[f64]>::to_vec)),
                );
            }
            assert_eq!(mix, [true; 4], "{name}: [W moved, W kept, X moved, X kept]");
            let err = rel_error(kernel.as_ref(), &pts, &got);
            assert!(err < tol, "{name}: relative l2 error {err}");
            let dense = FmmConfig {
                m2l: M2lMode::Dense,
                ..base
            };
            let dense: std::collections::HashMap<u64, Vec<f64>> =
                run_fmm(kernel.clone(), dense, pts.clone(), p)
                    .into_iter()
                    .collect();
            for (gid, pf) in &got {
                for (a, b) in pf.iter().zip(&dense[gid]) {
                    assert!(
                        (a - b).abs() < 1e-8 * b.abs().max(1e-3),
                        "{name} gid {gid}: {a} vs {b}"
                    );
                }
            }

            let bits = |cfg: FmmConfig| {
                let mut gp = run_fmm(kernel.clone(), cfg, pts.clone(), p);
                gp.sort_by_key(|(g, _)| *g);
                gp.into_iter()
                    .flat_map(|(_, v)| v.into_iter().map(f64::to_bits))
                    .collect::<Vec<u64>>()
            };
            let one = bits(base);
            for threads in [2, 3] {
                let cfg = FmmConfig { threads, ..base };
                assert!(bits(cfg) == one, "{name}: {threads} threads");
            }
        }
    }

    #[test]
    fn laplace_nonuniform_accuracy() {
        let mut pts = ellipsoid_1_1_4(1200, 17, 0);
        randomize_densities(&mut pts, 1, 9);
        let cfg = FmmConfig {
            order: 6,
            q: 40,
            ..Default::default()
        };
        let gp = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 1);
        let err = rel_error(&Laplace, &pts, &gp);
        assert!(err < 1e-4, "nonuniform relative l2 error {err}");
    }

    #[test]
    fn stokes_uniform_accuracy() {
        let mut pts = uniform_cube(700, 19, 0);
        randomize_densities(&mut pts, 3, 11);
        let k = Stokes::default();
        let cfg = FmmConfig {
            order: 4,
            q: 50,
            ..Default::default()
        };
        let gp = run_fmm(Arc::new(k), cfg, pts.clone(), 1);
        let err = rel_error(&k, &pts, &gp);
        assert!(err < 5e-3, "stokes relative l2 error {err}");
    }

    #[test]
    fn distributed_matches_sequential() {
        let mut pts = uniform_cube(1000, 23, 0);
        randomize_densities(&mut pts, 1, 13);
        let cfg = FmmConfig {
            order: 4,
            q: 30,
            ..Default::default()
        };
        let seq = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 1);
        let seq: std::collections::HashMap<u64, Vec<f64>> = seq.into_iter().collect();
        for p in [2usize, 4] {
            let par = run_fmm(Arc::new(Laplace), cfg, pts.clone(), p);
            assert_eq!(par.len(), pts.len(), "p={p}: all points accounted for");
            for (gid, pot) in par {
                let want = &seq[&gid];
                for (a, b) in pot.iter().zip(want) {
                    // The distributed tree legitimately differs from the
                    // sequential one near region boundaries (finer splits),
                    // so agreement holds at truncation level, not roundoff.
                    assert!(
                        (a - b).abs() < 1e-3 * b.abs().max(1.0),
                        "p={p} gid={gid}: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn distributed_non_power_of_two_ranks() {
        let mut pts = uniform_cube(600, 29, 0);
        randomize_densities(&mut pts, 1, 15);
        let cfg = FmmConfig {
            order: 4,
            q: 30,
            m2l: M2lMode::Dense,
            ..Default::default()
        };
        let seq = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 1);
        let seq: std::collections::HashMap<u64, Vec<f64>> = seq.into_iter().collect();
        let par = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 3);
        for (gid, pot) in par {
            let want = &seq[&gid];
            for (a, b) in pot.iter().zip(want) {
                assert!((a - b).abs() < 1e-3 * b.abs().max(1.0));
            }
        }
    }

    #[test]
    fn single_leaf_tree_is_pure_direct() {
        // N <= q: the tree is the root only; FMM must equal direct
        // exactly (no approximation in play).
        let mut pts = uniform_cube(20, 31, 0);
        randomize_densities(&mut pts, 1, 17);
        let cfg = FmmConfig {
            order: 4,
            q: 64,
            ..Default::default()
        };
        let gp = run_fmm(Arc::new(Laplace), cfg, pts.clone(), 1);
        let err = rel_error(&Laplace, &pts, &gp);
        assert!(err < 1e-13, "direct-only error {err}");
    }

    #[test]
    fn profile_reports_phases() {
        let mut pts = uniform_cube(1000, 37, 0);
        randomize_densities(&mut pts, 1, 19);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 20,
                ..Default::default()
            },
        );
        let profs = run(1, |c| {
            let res = fmm.evaluate(c, pts.clone());
            res.profile.clone()
        });
        let p = &profs[0];
        assert!(p.flops(Phase::UList) > 0, "direct interactions counted");
        assert!(p.flops(Phase::VList) > 0, "V-list work counted");
        assert!(p.flops(Phase::Upward) > 0);
        assert!(p.total_secs > 0.0);
        assert!(p.setup_secs > 0.0);
        for (stage, secs) in [
            ("sort", p.sort_secs),
            ("tree", p.tree_secs),
            ("lists", p.lists_secs),
            ("plan", p.plan_secs),
        ] {
            assert!(secs > 0.0, "{stage} stage timed on the evaluate path");
        }
    }

    #[test]
    fn route_potentials_returns_to_contributors() {
        let mut pts = uniform_cube(1200, 43, 0);
        randomize_densities(&mut pts, 1, 21);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                ..Default::default()
            },
        );
        let p = 4;
        // Rank r contributes gids with gid % p == r.
        let out = run(p, |c| {
            let mine: Vec<PointRec> = pts
                .iter()
                .filter(|pt| pt.gid as usize % p == c.rank())
                .copied()
                .collect();
            let n_in = mine.len();
            let res = fmm.evaluate(c, mine);
            let routed = route_potentials(c, &res, 1, |g| g as usize % p);
            (c.rank(), n_in, routed)
        });
        for (rank, n_in, routed) in out {
            assert_eq!(routed.len(), n_in, "every contributed point came home");
            for (g, v) in routed {
                assert_eq!(g as usize % p, rank);
                assert_eq!(v.len(), 1);
                assert!(v[0].is_finite());
            }
        }
    }

    /// The tiled near-field build time is charged to the U-list phase —
    /// once, centrally, before the phases run — and recorded separately
    /// in `nf_build_secs`.
    #[test]
    fn nearfield_build_charged_to_ulist() {
        let mut pts = uniform_cube(1500, 53, 0);
        randomize_densities(&mut pts, 1, 23);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                ..Default::default()
            },
        );
        let profs = run(1, |c| fmm.evaluate(c, pts.clone()).profile.clone());
        let p = &profs[0];
        assert!(p.nf_build_secs > 0.0, "near-field build time recorded");
        assert!(
            p.secs(Phase::UList) >= p.nf_build_secs,
            "build time folded into U-list ({} < {})",
            p.secs(Phase::UList),
            p.nf_build_secs
        );
    }

    /// Tracing must be an observer: at full (Comm) level the potentials
    /// stay bitwise identical to an untraced run, and the emitted event
    /// stream is structurally valid Chrome trace material carrying every
    /// rank's setup stages (emitted by the plan pipeline; the balance
    /// rebuild adds a second tree/lists pair).
    #[test]
    fn traced_evaluation_is_bitwise_identical_and_emits_valid_spans() {
        use pfmm_trace::{chrome, EventKind, TraceLevel, Tracer};
        let mut pts = uniform_cube(800, 61, 0);
        randomize_densities(&mut pts, 1, 31);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                threads: 2,
                ..Default::default()
            },
        );
        let tracer = Arc::new(Tracer::new(TraceLevel::Comm));
        let p = 2;
        run(p, |c| {
            let mine: Vec<PointRec> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
            let plain = fmm.evaluate(c, mine.clone());
            let traced = fmm.evaluate_observed(c, mine, &tracer, pfmm_metrics::global());
            assert_eq!(plain.pot.len(), traced.pot.len());
            for (a, b) in plain.pot.iter().zip(&traced.pot) {
                assert_eq!(a.to_bits(), b.to_bits(), "traced != plain");
            }
        });
        let evs = tracer.drain();
        assert!(!evs.is_empty(), "events recorded");
        let st = chrome::validate(&evs).expect("structurally valid trace");
        assert!(st.spans > 0, "spans present");
        for rank in 0..p as u32 {
            let opened = |name: &str| {
                evs.iter()
                    .filter(|e| e.kind == EventKind::Begin && e.rank == rank && e.name == name)
                    .count()
            };
            assert_eq!(opened("Sort"), 1, "rank {rank}: one Sort span");
            for stage in ["Setup:Tree", "Setup:Lists", "Setup:Plan"] {
                assert!(opened(stage) >= 1, "rank {rank}: {stage} span");
            }
        }
    }

    #[test]
    fn tree_info_sane() {
        let pts = uniform_cube(2000, 41, 0);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 25,
                ..Default::default()
            },
        );
        let infos = run(2, |c| {
            let mine: Vec<PointRec> = pts.iter().skip(c.rank()).step_by(2).copied().collect();
            fmm.evaluate(c, mine).info
        });
        assert_eq!(infos[0].global_leaves, infos[1].global_leaves);
        assert!(infos[0].global_leaves > 64, "tree actually refined");
        assert!(infos[0].max_leaf_level >= infos[0].min_leaf_level);
    }
}
