//! Kernel workloads: timed calls into `Fmm::plan`, `Fmm::apply_into`,
//! `Fmm::evaluate` and `Fmm::new`, checked against each other and
//! against a direct sum; and the traced per-layer run, which replays the
//! stages of `Fmm::plan` through public calls and reads the `Profile` and
//! `CommStats` each apply returns.

use std::sync::Arc;
use std::time::Instant;

use pfmm_core::exec::EvalData;
use pfmm_core::{Fmm, FmmConfig, Phase, Profile};
use pfmm_kernels::{Kernel, Laplace, Stokes};
use pfmm_mpisim::{run, Comm};
use pfmm_trace::{TraceLevel, Tracer};
use pfmm_tree::lists::leaf_weights;
use pfmm_tree::{
    build_let_with, build_lists_with, octree_from_sorted_with, repartition_by_weight,
    sample_sort_points_with, ListStats, PointRec, SetupPar, TreeStats,
};

use crate::direct::{self, Kind};
use crate::gen::{self, Dist};
use crate::report::Report;
use crate::stats::{max, mean, median, ratio};

/// Bound within which the replayed setup stages must sum to a timed
/// `Fmm::plan` (the `setup_s` bound of BENCHMARK.json).
pub const SETUP_REPLAY_BOUND: f64 = 0.25;

/// Relative per-point tolerance between one-shot `evaluate` and
/// `plan` + `apply` potentials of the same geometry and densities.
const EVAL_VS_APPLY_TOL: f64 = 1e-10;

/// Warm applies per measurement round. Each is one `apply_s` sample; two
/// a round give `apply_s` twice the samples of the other timings while
/// a 100k-point Laplace run still holds 3–4 rounds.
const WARM_APPLIES: usize = 2;

/// Direct-sum targets of the error check.
const ERROR_TARGETS: usize = 2000;

/// One evaluator configuration over one kind of input.
pub struct Spec {
    pub kind: Kind,
    pub dist: Dist,
    pub n: usize,
    pub order: usize,
    pub ranks: usize,
    pub threads: usize,
}

/// How a kernel workload is measured and checked.
pub struct Rounds {
    /// `Fmm::plan` calls timed together as one `setup_s` sample, and
    /// such samples per round.
    pub setup_group: usize,
    pub setup_groups: usize,
    /// Warm applies in the traced run.
    pub traced_applies: usize,
    /// Geometries per replay group and replay groups in the traced run.
    pub replay_group: usize,
    pub replay_groups: usize,
    /// Ceiling on the sampled relative error.
    pub err_ceiling: f64,
}

impl Spec {
    pub fn kernel(&self) -> Arc<dyn Kernel> {
        match self.kind {
            Kind::Laplace => Arc::new(Laplace),
            Kind::Stokes => Arc::new(Stokes::default()),
        }
    }

    /// The workload's evaluator: `FmmConfig::default()` except kernel,
    /// order and threads.
    pub fn fmm(&self, threads: usize) -> Fmm {
        Fmm::new(
            self.kernel(),
            FmmConfig {
                order: self.order,
                threads,
                ..Default::default()
            },
        )
    }

    pub fn geometry(&self, seed: u64, stream: u64) -> Vec<PointRec> {
        gen::points(self.dist, self.n, self.kind.dim(), seed, stream)
    }

    fn setup_par(&self, threads: usize) -> SetupPar {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        SetupPar::Threads(threads.clamp(1, hw))
    }
}

/// Time `f`, returning its value and the elapsed seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64())
}

/// [`timed`], also recorded as a span on `rank`'s driver lane of `tr`.
pub fn timed_span<T>(
    tr: &Tracer,
    rank: usize,
    name: &'static str,
    cat: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let t0 = tr.now_us();
    let (v, dt) = timed(f);
    tr.record_span(rank as u32, 0, name, cat, t0, tr.now_us(), &[]);
    (v, dt)
}

/// One rank's potentials, with the gids they belong to.
struct RankPot {
    gids: Vec<u64>,
    pot: Vec<f64>,
}

/// Scatter per-rank potentials into one gid-indexed array; `None` when a
/// gid is missing or repeated.
fn assemble<'a>(
    parts: impl IntoIterator<Item = &'a RankPot>,
    n: usize,
    d: usize,
) -> Option<Vec<f64>> {
    let mut out = vec![f64::NAN; n * d];
    let mut seen = vec![false; n];
    for p in parts {
        if p.pot.len() != p.gids.len() * d {
            return None;
        }
        for (k, &g) in p.gids.iter().enumerate() {
            let g = g as usize;
            if g >= n || seen[g] {
                return None;
            }
            seen[g] = true;
            out[g * d..(g + 1) * d].copy_from_slice(&p.pot[k * d..(k + 1) * d]);
        }
    }
    seen.iter().all(|&s| s).then_some(out)
}

fn bitwise_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Largest per-point deviation of `b` from `a`, relative to the RMS of `a`.
fn max_rel_dev(a: &[f64], b: &[f64]) -> f64 {
    let rms = (a.iter().map(|x| x * x).sum::<f64>() / a.len().max(1) as f64).sqrt();
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs() / rms.max(f64::MIN_POSITIVE))
        .fold(
            0.0,
            |m, v| if v.is_nan() { f64::INFINITY } else { m.max(v) },
        )
}

/// Timing samples of the end-to-end metrics, seconds per call.
#[derive(Default)]
pub struct Samples {
    pub setup: Vec<f64>,
    pub first_apply: Vec<f64>,
    pub apply: Vec<f64>,
    pub evaluate: Vec<f64>,
    pub cold_start: Vec<f64>,
}

/// What one rank saw in a measurement round.
struct RoundRank {
    setup_secs: Vec<f64>,
    first_secs: f64,
    warm_secs: Vec<f64>,
    eval_secs: f64,
    first: RankPot,
    warm_bitwise: Vec<bool>,
    eval: RankPot,
    plan_bytes: usize,
}

/// The warm evaluator's round: `setup_groups × setup_group` plans of
/// unseen geometries, then a fresh plan of the round geometry with its
/// first apply, `WARM_APPLIES` warm applies, and a one-shot evaluation.
fn round_ranks(
    r: &Rounds,
    w: &Fmm,
    c: &Comm,
    sd: usize,
    setup_geoms: &[Vec<PointRec>],
    geom: &[PointRec],
) -> RoundRank {
    let (rank, p) = (c.rank(), c.size());

    let mut setup_secs = Vec::with_capacity(r.setup_groups);
    for group in setup_geoms.chunks(r.setup_group) {
        let shares: Vec<Vec<PointRec>> = group.iter().map(|g| gen::share(g, rank, p)).collect();
        let mut t = 0.0;
        let mut keep = Vec::with_capacity(shares.len());
        for s in shares {
            let (plan, dt) = timed(|| w.plan(c, s));
            t += dt;
            keep.push(plan);
        }
        drop(keep);
        setup_secs.push(t);
    }

    let mine = gen::share(geom, rank, p);
    let mut plan = w.plan(c, mine.clone());
    let den = gen::densities_for(geom, plan.owned_gids(), sd);
    let mut first_pot = Vec::new();
    let (_, first_secs) = timed(|| w.apply_into(c, &mut plan, &den, &mut first_pot));
    let plan_bytes = plan.memory_bytes();

    let mut warm_secs = Vec::with_capacity(WARM_APPLIES);
    let mut warm_bitwise = Vec::with_capacity(WARM_APPLIES);
    let mut out = Vec::with_capacity(first_pot.len());
    for _ in 0..WARM_APPLIES {
        let (_, dt) = timed(|| w.apply_into(c, &mut plan, &den, &mut out));
        warm_secs.push(dt);
        warm_bitwise.push(bitwise_eq(&out, &first_pot));
    }
    let first = RankPot {
        gids: plan.owned_gids().to_vec(),
        pot: first_pot,
    };
    drop(plan);

    let (res, eval_secs) = timed(|| w.evaluate(c, mine));
    RoundRank {
        setup_secs,
        first_secs,
        warm_secs,
        eval_secs,
        first,
        warm_bitwise,
        eval: RankPot {
            gids: res.gids,
            pot: res.pot,
        },
        plan_bytes,
    }
}

/// A cold start on `geom`: a fresh `Fmm::new`, `plan` and first
/// `apply_into`, until the last rank holds its potentials. Returns the
/// seconds and the potentials.
fn cold_start(spec: &Spec, geom: &[PointRec]) -> (f64, Vec<RankPot>) {
    let sd = spec.kind.dim();
    let shares: Vec<Vec<PointRec>> = (0..spec.ranks)
        .map(|r| gen::share(geom, r, spec.ranks))
        .collect();
    let t0 = Instant::now();
    let fmm = spec.fmm(spec.threads);
    let parts = run(spec.ranks, |c| {
        let mut plan = fmm.plan(c, shares[c.rank()].clone());
        let den = gen::densities_for(geom, plan.owned_gids(), sd);
        let mut out = Vec::new();
        fmm.apply_into(c, &mut plan, &den, &mut out);
        let done = t0.elapsed().as_secs_f64();
        (
            done,
            RankPot {
                gids: plan.owned_gids().to_vec(),
                pot: out,
            },
        )
    });
    let secs = max(&parts.iter().map(|p| p.0).collect::<Vec<_>>());
    (secs, parts.into_iter().map(|p| p.1).collect())
}

/// A warmed evaluator: one plan and apply on a throwaway geometry so
/// the operator caches hold what the workload's geometries need. Returns
/// the seconds from `Fmm::new` to the last rank's potentials.
pub fn warm_evaluator(spec: &Spec, seed: u64) -> (Fmm, f64) {
    let geom = spec.geometry(seed, 0);
    let t0 = Instant::now();
    let fmm = spec.fmm(spec.threads);
    let done = run(spec.ranks, |c| {
        let mut plan = fmm.plan(c, gen::share(&geom, c.rank(), spec.ranks));
        let den = gen::densities_for(&geom, plan.owned_gids(), spec.kind.dim());
        fmm.apply(c, &mut plan, &den);
        t0.elapsed().as_secs_f64()
    });
    (fmm, max(&done))
}

/// Run measurement rounds on the warm evaluator `w` until `budget_s`
/// seconds are spent (at least `min_rounds`), checking every output, and
/// return their timings. Round 0 also sets `rel_error` and `plan_bytes`.
pub fn measure(
    spec: &Spec,
    r: &Rounds,
    w: &Fmm,
    seed: u64,
    budget_s: f64,
    min_rounds: usize,
    rep: &mut Report,
) -> Samples {
    let d = spec.kind.dim();
    let mut s = Samples::default();
    let t_start = Instant::now();
    let mut round = 0usize;
    loop {
        let base = 1 + 64 * round as u64;
        let geom = spec.geometry(seed, base);
        let setup_geoms: Vec<Vec<PointRec>> = (0..r.setup_group * r.setup_groups)
            .map(|k| spec.geometry(seed, base + 1 + k as u64))
            .collect();
        let ranks = run(spec.ranks, |c| round_ranks(r, w, c, d, &setup_geoms, &geom));
        let (cold_secs, cold_parts) = cold_start(spec, &geom);

        let per = |f: &dyn Fn(&RoundRank) -> f64| max(&ranks.iter().map(f).collect::<Vec<_>>());
        for k in 0..r.setup_groups {
            s.setup
                .push(per(&|rr| rr.setup_secs[k]) / r.setup_group as f64);
        }
        s.first_apply.push(per(&|rr| rr.first_secs));
        for k in 0..WARM_APPLIES {
            s.apply.push(per(&|rr| rr.warm_secs[k]));
        }
        s.evaluate.push(per(&|rr| rr.eval_secs));
        s.cold_start.push(cold_secs);

        // Checks: warm applies and the cold start reproduce the first
        // apply bit for bit; one-shot evaluate agrees point by point.
        for (rk, rr) in ranks.iter().enumerate() {
            for (k, ok) in rr.warm_bitwise.iter().enumerate() {
                rep.check(*ok, || {
                    format!("round {round} rank {rk}: warm apply {k} differs from the first apply")
                });
            }
        }
        let first = assemble(ranks.iter().map(|rr| &rr.first), spec.n, d);
        rep.check(first.is_some(), || {
            format!("round {round}: apply did not return every point exactly once")
        });
        let Some(first) = first else { break };
        let cold = assemble(&cold_parts, spec.n, d);
        rep.check(
            cold.as_deref().is_some_and(|c| bitwise_eq(c, &first)),
            || format!("round {round}: cold-start potentials differ from the warm evaluator's"),
        );
        let eval = assemble(ranks.iter().map(|rr| &rr.eval), spec.n, d);
        let dev = eval
            .as_deref()
            .map_or(f64::INFINITY, |e| max_rel_dev(&first, e));
        rep.check(dev <= EVAL_VS_APPLY_TOL, || {
            format!("round {round}: evaluate deviates from plan + apply by {dev:e} (tolerance {EVAL_VS_APPLY_TOL:e})")
        });
        if round == 0 {
            let targets = direct::sample_targets(spec.n, ERROR_TARGETS, seed);
            let err = direct::rel_error(spec.kind, &geom, &targets, &first);
            rep.check(err <= r.err_ceiling, || {
                format!(
                    "sampled relative error {err:e} exceeds the ceiling {:e}",
                    r.err_ceiling
                )
            });
            rep.set("rel_error", err, "1");
            rep.set(
                "plan_bytes",
                ranks.iter().map(|rr| rr.plan_bytes as f64).sum(),
                "B",
            );
        }

        // Start another round while it is expected to end no later than
        // half a round past the budget.
        round += 1;
        let elapsed = t_start.elapsed().as_secs_f64();
        let per_round = elapsed / round as f64;
        if round >= min_rounds && elapsed + per_round / 2.0 > budget_s {
            break;
        }
    }
    eprintln!(
        "  {} rounds in {:.1} s; samples: {} setup, {} first-apply, {} apply, {} evaluate, {} cold-start",
        round,
        t_start.elapsed().as_secs_f64(),
        s.setup.len(),
        s.first_apply.len(),
        s.apply.len(),
        s.evaluate.len(),
        s.cold_start.len()
    );
    s
}

/// Record the medians of the timing samples as end-to-end metrics.
pub fn set_timings(s: &Samples, rep: &mut Report) {
    for (name, v) in [
        ("setup_s", &s.setup),
        ("first_apply_s", &s.first_apply),
        ("apply_s", &s.apply),
        ("evaluate_s", &s.evaluate),
        ("cold_start_s", &s.cold_start),
    ] {
        let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        eprintln!("  {name} samples: {}", shown.join(" "));
        rep.set(name, median(v), "s");
    }
}

/// Replayed setup-stage seconds of one geometry on one rank.
#[derive(Clone, Copy, Default)]
struct Stages {
    sort: f64,
    octree: f64,
    let_: f64,
    lists: f64,
    balance: f64,
    evaldata: f64,
    ops_warm: f64,
    plan: f64,
    workspace: f64,
}

impl Stages {
    fn replayed(&self) -> f64 {
        self.sort
            + self.octree
            + self.let_
            + self.lists
            + self.balance
            + self.evaldata
            + self.ops_warm
    }

    fn add(&mut self, o: &Stages) {
        self.sort += o.sort;
        self.octree += o.octree;
        self.let_ += o.let_;
        self.lists += o.lists;
        self.balance += o.balance;
        self.evaldata += o.evaldata;
        self.ops_warm += o.ops_warm;
        self.plan += o.plan;
        self.workspace += o.workspace;
    }
}

/// Shape counts of the replayed structures on one rank.
#[derive(Default)]
struct Shape {
    tree: TreeStats,
    lists: ListStats,
    owned_points: usize,
    plan_octants: usize,
    plan_owned: usize,
    workspace_bytes: usize,
}

/// Replay the stage sequence of `Fmm::plan` on one geometry through the
/// public calls, then time the real `Fmm::plan` and `Fmm::workspace`.
fn replay_rank(spec: &Spec, w: &Fmm, c: &Comm, pts: Vec<PointRec>, tr: &Tracer) -> (Stages, Shape) {
    let cfg = *w.config();
    let par = spec.setup_par(cfg.threads);
    let rank = c.rank();
    let sd = spec.kind.dim();
    let mut st = Stages::default();

    let plan_pts = pts.clone();
    let ((sorted, region), t) = timed_span(tr, rank, "sample_sort_points_with", "setup", || {
        sample_sort_points_with(c, pts, par)
    });
    st.sort = t;
    let (mut tree, t) = timed_span(tr, rank, "octree_from_sorted_with", "setup", || {
        octree_from_sorted_with(c, sorted, region, cfg.q, par)
    });
    st.octree = t;
    let (mut l, t) = timed_span(tr, rank, "build_let_with", "setup", || {
        build_let_with(c, &tree, par)
    });
    st.let_ = t;
    let (mut lists, t) = timed_span(tr, rank, "build_lists_with", "setup", || {
        build_lists_with(&l, par)
    });
    st.lists = t;
    if cfg.balance && c.size() > 1 {
        let ((t2, l2, lists2), t) = timed_span(
            tr,
            rank,
            "leaf_weights + repartition_by_weight + rebuild",
            "setup",
            || {
                let wts = leaf_weights(&l, &lists);
                let t2 = repartition_by_weight(c, tree, &wts);
                let l2 = build_let_with(c, &t2, par);
                let lists2 = build_lists_with(&l2, par);
                (t2, l2, lists2)
            },
        );
        (tree, l, lists) = (t2, l2, lists2);
        st.balance = t;
    }
    drop(tree);
    let (data, t) = timed_span(tr, rank, "EvalData::new_with", "setup", || {
        EvalData::new_with(&l, sd, par)
    });
    st.evaldata = t;
    let (_, t) = timed_span(tr, rank, "Ops::warm", "setup", || {
        w.ops().warm(data.max_level, par)
    });
    st.ops_warm = t;

    let owned_points = (0..l.len())
        .filter(|&i| l.owned[i])
        .map(|i| l.points_of(i).len())
        .sum();
    let tree_stats = TreeStats::of(&l);
    let list_stats = ListStats::of(&l, &lists);
    drop((data, lists, l));

    let (plan, t) = timed_span(tr, rank, "Fmm::plan", "setup", || w.plan(c, plan_pts));
    st.plan = t;
    let (ws, t) = timed_span(tr, rank, "Fmm::workspace", "setup", || w.workspace(&plan));
    st.workspace = t;
    let shape = Shape {
        tree: tree_stats,
        lists: list_stats,
        owned_points,
        plan_octants: plan.num_octants(),
        plan_owned: plan.num_owned(),
        workspace_bytes: ws.memory_bytes(),
    };
    (st, shape)
}

/// What one rank measured over the traced applies.
struct ApplyRank {
    first: Vec<f64>,
    bitwise: Vec<bool>,
    profiles: Vec<Profile>,
    walls: Vec<f64>,
    traced: Vec<bool>,
    msgs: Vec<u64>,
    bytes: Vec<u64>,
}

/// The traced per-layer run of a kernel workload on the warm evaluator.
pub fn layers(spec: &Spec, r: &Rounds, w: &Fmm, seed: u64, tr: &Tracer, rep: &mut Report) {
    // Setup stages, replayed on fresh geometries in groups.
    let mut group_stages: Vec<Stages> = Vec::new();
    // Per group: (replayed, planned) seconds, each the slowest rank's total.
    let mut group_totals: Vec<(f64, f64)> = Vec::new();
    let mut shape0: Option<Vec<Shape>> = None;
    for gi in 0..r.replay_groups {
        let mut acc = Stages::default();
        let mut totals = (0.0, 0.0);
        for k in 0..r.replay_group {
            let geom = spec.geometry(seed, 5000 + (gi * r.replay_group + k) as u64);
            let (res, _) = timed_span(tr, 0, "replay Fmm::plan stages", "setup", || {
                run(spec.ranks, |c| {
                    replay_rank(spec, w, c, gen::share(&geom, c.rank(), spec.ranks), tr)
                })
            });
            // Multi-rank stage times take the slowest rank.
            let pick =
                |f: &dyn Fn(&Stages) -> f64| max(&res.iter().map(|x| f(&x.0)).collect::<Vec<_>>());
            acc.add(&Stages {
                sort: pick(&|s| s.sort),
                octree: pick(&|s| s.octree),
                let_: pick(&|s| s.let_),
                lists: pick(&|s| s.lists),
                balance: pick(&|s| s.balance),
                evaldata: pick(&|s| s.evaldata),
                ops_warm: pick(&|s| s.ops_warm),
                plan: pick(&|s| s.plan),
                workspace: pick(&|s| s.workspace),
            });
            totals.0 += pick(&|s| s.replayed());
            totals.1 += pick(&|s| s.plan);
            for (rk, (_, sh)) in res.iter().enumerate() {
                rep.check(
                    sh.tree.octants == sh.plan_octants && sh.owned_points == sh.plan_owned,
                    || {
                        format!(
                            "replay rank {rk}: {} octants / {} owned points, plan has {} / {}",
                            sh.tree.octants, sh.owned_points, sh.plan_octants, sh.plan_owned
                        )
                    },
                );
            }
            if shape0.is_none() {
                shape0 = Some(res.into_iter().map(|x| x.1).collect());
            }
        }
        group_stages.push(acc);
        group_totals.push(totals);
    }
    let g = r.replay_group as f64;
    let med = |f: &dyn Fn(&Stages) -> f64| {
        median(&group_stages.iter().map(|s| f(s) / g).collect::<Vec<_>>())
    };
    // Each group's replay and plan ran interleaved on the same
    // geometries, so their ratio is compared group by group.
    let replay_ratio = median(&group_totals.iter().map(|t| t.0 / t.1).collect::<Vec<_>>());
    let replayed = median(&group_totals.iter().map(|t| t.0 / g).collect::<Vec<_>>());
    let planned = median(&group_totals.iter().map(|t| t.1 / g).collect::<Vec<_>>());
    rep.set("bench.replay_ratio", replay_ratio, "1");
    rep.check((replay_ratio - 1.0).abs() <= SETUP_REPLAY_BOUND, || {
        format!("replayed setup stages sum to {replayed:.4} s but Fmm::plan takes {planned:.4} s")
    });
    rep.set("tree.sort_s", med(&|s| s.sort), "s");
    rep.set("tree.octree_s", med(&|s| s.octree), "s");
    rep.set("tree.let_s", med(&|s| s.let_), "s");
    rep.set("tree.lists_s", med(&|s| s.lists), "s");
    rep.set("tree.balance_s", med(&|s| s.balance), "s");
    rep.set("core.evaldata_s", med(&|s| s.evaldata), "s");
    rep.set("core.ops_warm_s", med(&|s| s.ops_warm), "s");
    rep.set("core.workspace_s", med(&|s| s.workspace), "s");
    let shapes = shape0.expect("at least one replay");
    let sum = |f: &dyn Fn(&Shape) -> usize| shapes.iter().map(f).sum::<usize>() as f64;
    rep.set("tree.leaves", sum(&|s| s.tree.owned_leaves), "count");
    rep.set("tree.octants", sum(&|s| s.tree.octants), "count");
    rep.set(
        "tree.max_level",
        shapes
            .iter()
            .map(|s| s.tree.leaf_levels.1)
            .max()
            .unwrap_or(0) as f64,
        "level",
    );
    rep.set("lists.u", sum(&|s| s.lists.u.0), "count");
    rep.set("lists.v", sum(&|s| s.lists.v.0), "count");
    rep.set("lists.w", sum(&|s| s.lists.w.0), "count");
    rep.set("lists.x", sum(&|s| s.lists.x.0), "count");
    rep.set(
        "lists.direct_pairs",
        shapes.iter().map(|s| s.lists.direct_pairs as f64).sum(),
        "count",
    );
    rep.set("core.workspace_bytes", sum(&|s| s.workspace_bytes), "B");

    // Applies: profiles, comm deltas and wall times; spans recorded on
    // every other warm apply so the traced/untraced ratio is the
    // recorder's own overhead.
    let geom = spec.geometry(seed, 9000);
    let sd = spec.kind.dim();
    let quiet = Tracer::off();
    let per_rank = run(spec.ranks, |c| {
        let mut plan = w.plan(c, gen::share(&geom, c.rank(), spec.ranks));
        let den = gen::densities_for(&geom, plan.owned_gids(), sd);
        let mut first = Vec::new();
        w.apply_into(c, &mut plan, &den, &mut first);
        let mut a = ApplyRank {
            first,
            bitwise: Vec::new(),
            profiles: Vec::new(),
            walls: Vec::new(),
            traced: Vec::new(),
            msgs: Vec::new(),
            bytes: Vec::new(),
        };
        let mut out = Vec::new();
        for k in 0..r.traced_applies {
            let sink = if k % 2 == 0 { tr } else { &quiet };
            let before = c.stats();
            let (prof, wall) =
                timed_span(sink, c.rank(), "Fmm::apply_into (warm)", "apply", || {
                    w.apply_into(c, &mut plan, &den, &mut out)
                });
            let delta = c.stats().delta_since(&before);
            a.bitwise.push(bitwise_eq(&out, &a.first));
            a.profiles.push(prof);
            a.walls.push(wall);
            a.traced.push(sink.enabled(TraceLevel::Phase));
            a.msgs.push(delta.sent_msgs);
            a.bytes.push(delta.sent_bytes);
        }
        a
    });
    for (rk, r) in per_rank.iter().enumerate() {
        for (k, ok) in r.bitwise.iter().enumerate() {
            rep.check(*ok, || {
                format!("traced apply {k} on rank {rk} differs from the first apply")
            });
        }
    }
    let applies = r.traced_applies;
    let secs = |ph: &[Phase]| -> Vec<f64> {
        (0..applies)
            .map(|k| {
                max(&per_rank
                    .iter()
                    .map(|r| ph.iter().map(|&p| r.profiles[k].secs(p)).sum())
                    .collect::<Vec<_>>())
            })
            .collect()
    };
    let rate = |ph: &[Phase]| -> f64 {
        let v: Vec<f64> = (0..applies)
            .map(|k| {
                let fl: u64 = per_rank
                    .iter()
                    .map(|r| ph.iter().map(|&p| r.profiles[k].flops(p)).sum::<u64>())
                    .sum();
                let t = max(&per_rank
                    .iter()
                    .map(|r| ph.iter().map(|&p| r.profiles[k].secs(p)).sum())
                    .collect::<Vec<_>>());
                ratio(fl as f64, t) * 1e-9
            })
            .collect();
        median(&v)
    };
    rep.set("phase.vlist_s", median(&secs(&[Phase::VList])), "s");
    rep.set("phase.vlist_gflops", rate(&[Phase::VList]), "GF/s");
    rep.set("phase.ulist_s", median(&secs(&[Phase::UList])), "s");
    rep.set("phase.ulist_gflops", rate(&[Phase::UList]), "GF/s");
    rep.set("phase.wlist_s", median(&secs(&[Phase::WList])), "s");
    rep.set("phase.xlist_s", median(&secs(&[Phase::XList])), "s");
    rep.set(
        "phase.wx_gflops",
        rate(&[Phase::WList, Phase::XList]),
        "GF/s",
    );
    rep.set("phase.upward_s", median(&secs(&[Phase::Upward])), "s");
    rep.set("phase.downward_s", median(&secs(&[Phase::Downward])), "s");
    rep.set(
        "phase.updown_gflops",
        rate(&[Phase::Upward, Phase::Downward]),
        "GF/s",
    );
    rep.set("phase.comm_s", median(&secs(&[Phase::Comm])), "s");
    let per_apply = |f: &dyn Fn(&ApplyRank, usize) -> u64| -> f64 {
        median(
            &(0..applies)
                .map(|k| per_rank.iter().map(|r| f(r, k)).sum::<u64>() as f64)
                .collect::<Vec<_>>(),
        )
    };
    rep.set("comm.msgs_per_apply", per_apply(&|r, k| r.msgs[k]), "count");
    rep.set("comm.bytes_per_apply", per_apply(&|r, k| r.bytes[k]), "B");
    let walls: Vec<f64> = (0..applies)
        .map(|k| max(&per_rank.iter().map(|r| r.walls[k]).collect::<Vec<_>>()))
        .collect();
    let imbalance: Vec<f64> = (0..applies)
        .map(|k| {
            let v: Vec<f64> = per_rank.iter().map(|r| r.walls[k]).collect();
            max(&v) / mean(&v)
        })
        .collect();
    rep.set("rank.apply_imbalance", median(&imbalance), "1");
    let pick = |traced: bool| -> Vec<f64> {
        (0..applies)
            .filter(|&k| per_rank[0].traced[k] == traced)
            .map(|k| walls[k])
            .collect()
    };
    let (on, off) = (pick(true), pick(false));
    rep.set(
        "bench.trace_overhead",
        if on.is_empty() || off.is_empty() {
            1.0
        } else {
            median(&on) / median(&off)
        },
        "1",
    );

    // Intra-rank threads: one rank, 1 vs 2 threads, same geometry.
    let speed = |threads: usize| -> f64 {
        let fmm = spec.fmm(threads);
        run(1, |c| {
            let mut plan = fmm.plan(c, geom.clone());
            let den = gen::densities_for(&geom, plan.owned_gids(), sd);
            let mut out = Vec::new();
            fmm.apply_into(c, &mut plan, &den, &mut out);
            let name = if threads == 1 {
                "Fmm::apply_into (1 thread)"
            } else {
                "Fmm::apply_into (2 threads)"
            };
            let (_, t) = timed_span(tr, 0, name, "threads", || {
                fmm.apply_into(c, &mut plan, &den, &mut out)
            });
            t
        })[0]
    };
    let one = speed(1);
    let two = speed(2);
    rep.set("core.thread_speedup", one / two, "1");
}
