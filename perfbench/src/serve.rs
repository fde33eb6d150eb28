//! The serve loop, an open loop driven from the outside over
//! `ServiceCore::offer`/`poll` and `ExecPool::submit`/`drain_done`.
//!
//! Every arrival is stamped with its *scheduled* send time, so a stall
//! of the loop or of the worker shows up in the latency of the requests
//! that were due during it. Latencies are kept as exact samples.
//!
//! Geometries and the schedule come from `gen`, but the served densities
//! do not: `Executor` derives them itself with `pfmm_serve::densities`
//! (from `loadgen`), and offers no way to pass others in. The check of
//! served requests uses the same function, so it cannot catch a defect
//! in it.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use pfmm_core::{plan_fingerprint, Fmm, PlanFingerprint};
use pfmm_mpisim::run;
use pfmm_serve::{
    Admission, Batch, CostModel, ExecPool, Executor, PlanCache, Request, ServiceConfig,
    ServiceCore, WorkspacePool,
};
use pfmm_trace::{TraceLevel, Tracer};
use pfmm_tree::PointRec;

use crate::gen;
use crate::kernel::Spec;
use crate::report::Report;
use crate::stats::{quantile, ratio};

/// The open loop's fixed parameters.
pub struct Load {
    /// Poisson arrival rate, requests per second: about half of what one
    /// worker with one thread completes on this workload's mix.
    pub rate_per_s: f64,
    /// Geometries that repeat.
    pub hot: usize,
    /// Share of requests whose geometry never repeats.
    pub cold_share: f64,
    /// Requests per run.
    pub requests: usize,
    /// Cost-model probe constants (plan µs, apply µs at the workload's
    /// size), so admission and batching do not depend on a timing taken
    /// during the run.
    pub probe_plan_us: u64,
    pub probe_apply_us: u64,
    /// Plan-cache budget: the hot plans plus this many plan-sizes of
    /// room, so one cold plan fits and a second evicts.
    pub spare_plans: f64,
    /// Every `check_every`-th request is checked against a standalone
    /// plan + apply.
    pub check_every: u64,
}

/// Trace lane of request 0; request `k` records on lane `REQUEST_TID + k`.
const REQUEST_TID: u32 = 10_000;

/// Exact per-request samples, seconds.
#[derive(Default)]
struct Samples {
    latency: Vec<f64>,
    queue_wait: Vec<f64>,
    resolve: Vec<f64>,
    execute: Vec<f64>,
    gen_lag: Vec<f64>,
}

/// Run the open loop on the warm evaluator `w`, recording its spans in
/// `tr`.
pub fn open_loop(spec: &Spec, load: &Load, w: Arc<Fmm>, seed: u64, tr: &Tracer, rep: &mut Report) {
    let n_req = load.requests;
    let sched = gen::schedule(n_req, load.rate_per_s, load.hot, load.cold_share, seed);
    let n_geom = load.hot + sched.iter().filter(|a| a.geom >= load.hot).count();
    let geometries: Vec<Vec<PointRec>> = (0..n_geom)
        .map(|g| spec.geometry(seed, 20_000 + g as u64))
        .collect();
    let kname = w.kernel().name();
    let keys: Vec<PlanFingerprint> = geometries
        .iter()
        .map(|g| plan_fingerprint(kname, w.config(), 1, g))
        .collect();

    // Budget: the hot set plus room for `spare_plans` more plans.
    let hot_total: usize = geometries[..load.hot]
        .iter()
        .map(|g| run(1, |c| w.plan(c, g.clone()).memory_bytes())[0])
        .sum();
    let budget = hot_total + (load.spare_plans * hot_total as f64 / load.hot as f64) as usize;

    let cache = Arc::new(PlanCache::new(budget));
    let workspaces = Arc::new(WorkspacePool::new(1));
    let exec = Arc::new(Executor {
        fmm: Arc::clone(&w),
        cache: Arc::clone(&cache),
        workspaces: Arc::clone(&workspaces),
        geometries: Arc::new(geometries),
        tracer: Arc::new(Tracer::off()),
        flight: None,
        exec_delay_us: 0,
    });
    let cost = CostModel::from_probe_us(spec.n, load.probe_plan_us, load.probe_apply_us);
    let request = |id: u64, geom: usize, at_us: u64, density_seed: u64| Request {
        id,
        key: keys[geom],
        geom,
        n: spec.n,
        arrive_us: at_us,
        deadline_us: u64::MAX,
        priority: 1,
        density_seed,
        est_cost_us: cost.eval_us(spec.n),
        est_build_us: cost.build_us(spec.n),
    };

    // Steady state first: the hot plans resident, their workspace pooled.
    for (g, key) in keys.iter().enumerate().take(load.hot) {
        let now = exec.now_us();
        exec.execute_batch(Batch {
            key: *key,
            reqs: vec![request((n_req + g) as u64, g, now, g as u64)],
            opened_us: now,
            flushed_us: now,
            charged_us: 0,
        });
    }
    let cache0 = cache.stats();
    let ws0 = workspaces.stats();

    let pool = ExecPool::new(1, Arc::clone(&exec));
    let mut core = ServiceCore::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    let clock_offset_us = tr.now_us() - exec.now_us() as f64;
    let root_us = tr.now_us();

    let mut s = Samples::default();
    let mut kept: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    let (mut sent, mut completed, mut rejected) = (0u64, 0u64, 0u64);
    // Scheduled send times of refused requests, and of accepted ones
    // not yet completed (by id).
    let mut refused_at: Vec<u64> = Vec::new();
    let mut pending: BTreeMap<u64, u64> = BTreeMap::new();
    let mut batches_out = 0usize;
    let start_us = exec.now_us();
    let t0 = start_us + 1_000;
    let give_up_us = t0 + sched.last().map_or(0, |a| a.offset_us) + 120_000_000;
    let mut next = 0usize;
    loop {
        let now = exec.now_us();
        for done in pool.drain_done() {
            batches_out -= 1;
            core.on_batch_done(done.charged_us);
            for r in done.reqs {
                completed += 1;
                pending.remove(&r.id);
                let sec = |a: u64, b: u64| b.saturating_sub(a) as f64 * 1e-6;
                s.latency.push(sec(r.arrive_us, r.done_us));
                s.queue_wait.push(sec(r.arrive_us, r.flushed_us));
                s.resolve.push(sec(r.flushed_us, r.exec_start_us));
                s.execute.push(sec(r.exec_start_us, r.done_us));
                if tr.enabled(TraceLevel::Phase) {
                    // One lane per request, from `REQUEST_TID` on.
                    let tid = REQUEST_TID + r.id as u32;
                    let at = |t: u64| t as f64 + clock_offset_us;
                    for (name, a, b) in [
                        ("queue-wait", r.arrive_us, r.flushed_us),
                        ("resolve (plan + densities)", r.flushed_us, r.exec_start_us),
                        ("execute", r.exec_start_us, r.done_us),
                    ] {
                        tr.record_span(0, tid, name, "request", at(a), at(b), &[]);
                    }
                }
                if r.id % load.check_every == 0 {
                    kept.insert(r.id, r.pot);
                }
            }
        }
        while next < sched.len() && now >= t0 + sched[next].offset_us {
            let a = sched[next];
            let due = t0 + a.offset_us;
            s.gen_lag.push((now - due) as f64 * 1e-6);
            let req = request(next as u64, a.geom, due, a.density_seed);
            let warm = cache.contains(&req.key);
            sent += 1;
            next += 1;
            pending.insert(req.id, due);
            match core.offer(req, now, warm) {
                Admission::Accepted { displaced } => {
                    for d in displaced {
                        rejected += 1;
                        refused_at.extend(pending.remove(&d.id));
                    }
                }
                Admission::Rejected(r) => {
                    rejected += 1;
                    refused_at.extend(pending.remove(&r.id));
                }
            }
        }
        for batch in core.poll(now) {
            batches_out += 1;
            pool.submit(batch);
        }
        let drained = pending.is_empty() && batches_out == 0;
        if (next == sched.len() && drained) || now > give_up_us {
            break;
        }
        let wake = sched.get(next).map_or(now + 500, |a| t0 + a.offset_us);
        std::thread::sleep(Duration::from_micros(
            wake.saturating_sub(now).clamp(50, 500),
        ));
    }
    let end_us = exec.now_us();
    tr.record_span(0, 0, "open loop", "serve", root_us, tr.now_us(), &[]);
    drop(pool.shutdown());
    let errored = pending.len() as u64;

    // A refused or lost request counts as waiting until the loop ended.
    for due in refused_at.into_iter().chain(pending.into_values()) {
        s.latency.push(end_us.saturating_sub(due) as f64 * 1e-6);
    }

    // Check a sample of the served potentials against a standalone
    // evaluator's plan + apply of the same geometry and densities.
    let standalone = spec.fmm(spec.threads);
    let mut wrong = 0u64;
    for (id, pot) in &kept {
        let a = sched[*id as usize];
        let geom = &exec.geometries[a.geom];
        let want = run(1, |c| {
            let mut plan = standalone.plan(c, geom.clone());
            let den = pfmm_serve::densities(&plan, spec.kind.dim(), a.density_seed);
            standalone.apply(c, &mut plan, &den).0
        })
        .pop()
        .expect("one rank");
        let same = want.len() == pot.len()
            && want
                .iter()
                .zip(pot)
                .all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            wrong += 1;
            rep.failures.push(format!(
                "served request {id} differs from a standalone plan + apply"
            ));
        }
    }
    rep.attempted += sent;
    rep.failed += rejected + errored + wrong;
    if rejected + errored > 0 {
        rep.failures
            .push(format!("{rejected} requests refused, {errored} lost"));
    }

    let cache1 = cache.stats();
    let ws1 = workspaces.stats();
    let svc = core.stats();
    let hits = cache1.hits - cache0.hits;
    let misses = cache1.misses - cache0.misses;
    eprintln!(
        "  open loop: {sent} sent, {completed} completed, {rejected} refused, {errored} lost, {wrong} wrong of {} checked; \
         {:.1} s at {} req/s, cache budget {} B, {} hits / {} misses / {} evictions",
        kept.len(),
        (end_us - start_us) as f64 * 1e-6,
        load.rate_per_s,
        budget,
        hits,
        misses,
        cache1.evictions - cache0.evictions,
    );
    eprintln!(
        "  latency p50/p95 {:.4}/{:.4} s; queue-wait p50 {:.4} s, resolve p50/p95 {:.4}/{:.4} s, execute p50/p95 {:.4}/{:.4} s",
        quantile(&s.latency, 0.5),
        quantile(&s.latency, 0.95),
        quantile(&s.queue_wait, 0.5),
        quantile(&s.resolve, 0.5),
        quantile(&s.resolve, 0.95),
        quantile(&s.execute, 0.5),
        quantile(&s.execute, 0.95),
    );
    rep.set("serve.latency_p50_s", quantile(&s.latency, 0.5), "s");
    rep.set("serve.latency_p95_s", quantile(&s.latency, 0.95), "s");
    let q = |v: &[f64], p: f64| if v.is_empty() { 0.0 } else { quantile(v, p) };
    rep.set("serve.queue_wait_p50_s", q(&s.queue_wait, 0.5), "s");
    rep.set("serve.queue_wait_p95_s", q(&s.queue_wait, 0.95), "s");
    rep.set("serve.resolve_p50_s", q(&s.resolve, 0.5), "s");
    rep.set("serve.execute_p50_s", q(&s.execute, 0.5), "s");
    rep.set(
        "serve.cache_hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "1",
    );
    rep.set("serve.plan_builds", misses as f64, "count");
    rep.set(
        "serve.evictions",
        (cache1.evictions - cache0.evictions) as f64,
        "count",
    );
    rep.set(
        "serve.ws_miss_ratio",
        ratio(
            (ws1.misses - ws0.misses) as f64,
            (ws1.checkouts - ws0.checkouts) as f64,
        ),
        "1",
    );
    rep.set(
        "serve.batch_mean",
        ratio(svc.batched_reqs as f64, svc.batches as f64),
        "count",
    );
    rep.set("serve.gen_lag_p95_s", q(&s.gen_lag, 0.95), "s");
}
