//! The cache-correctness keystone: re-evaluating a cached [`FmmPlan`]
//! with fresh densities is *bitwise* identical to planning from scratch
//! and evaluating once.
//!
//! This is the property that makes plan caching a pure optimization.
//! `Fmm::plan` is deterministic for a fixed geometry (same tree, same
//! LET, same lists, same operator pseudo-inverses), and `Fmm::apply`
//! fixes every floating-point accumulation order, so a plan that has
//! already served other densities must produce the same bits for a new
//! density set as a freshly planned evaluation of it, for a scalar
//! (Laplace) and a vector (Stokes) kernel.

use std::sync::{Arc, Mutex};

use pfmm_core::{Fmm, FmmConfig};
use pfmm_kernels::{Kernel, Laplace, Stokes};
use pfmm_mpisim::run;
use pfmm_serve::{densities, density_at};
use proptest::prelude::*;

fn config() -> FmmConfig {
    FmmConfig {
        order: 3,
        q: 30,
        ..Default::default()
    }
}

/// Plan once, serve `pre_applies` other density sets through the plan
/// (dirtying every workspace), then evaluate `seed`'s densities — and
/// compare against a from-scratch plan+apply of the same request.
fn reused_equals_fresh(
    kernel: Arc<dyn Kernel>,
    n: usize,
    geom_seed: u64,
    density_seed: u64,
    pre_applies: usize,
) {
    let fmm = Fmm::new(kernel, config());
    let sd = fmm.kernel().source_dim();
    let pts = pfmm_core::distrib::uniform_cube(n, geom_seed, 0);

    // The cached path: one plan, several applies, ours last.
    let cached_plan = run(1, |c| fmm.plan(c, pts.clone())).pop().unwrap();
    let cached_plan = Mutex::new(cached_plan);
    let reused = run(1, |c| {
        let mut plan = cached_plan.lock().unwrap();
        for k in 0..pre_applies {
            let other = densities(&plan, sd, density_seed ^ (0xA5A5_0000 + k as u64));
            fmm.apply(c, &mut plan, &other);
        }
        let den = densities(&plan, sd, density_seed);
        fmm.apply(c, &mut plan, &den).0
    })
    .pop()
    .unwrap();

    // The fresh path: plan and evaluate this request alone.
    let fresh_plan = Mutex::new(run(1, |c| fmm.plan(c, pts.clone())).pop().unwrap());
    let fresh = run(1, |c| {
        let mut plan = fresh_plan.lock().unwrap();
        let den = densities(&plan, sd, density_seed);
        fmm.apply(c, &mut plan, &den).0
    })
    .pop()
    .unwrap();

    assert_eq!(reused.len(), fresh.len());
    for (i, (a, b)) in reused.iter().zip(&fresh).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "component {i} differs: reused {a:e} vs fresh {b:e} \
             (n {n}, geom {geom_seed}, density {density_seed})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn laplace_cached_plan_is_bitwise_fresh(
        n in 150usize..400,
        geom_seed in 0u64..1000,
        density_seed in 0u64..1000,
        pre_applies in 0usize..3,
    ) {
        reused_equals_fresh(Arc::new(Laplace), n, geom_seed, density_seed, pre_applies);
    }

    #[test]
    fn stokes_cached_plan_is_bitwise_fresh(
        n in 120usize..250,
        geom_seed in 0u64..1000,
        density_seed in 0u64..1000,
        pre_applies in 0usize..2,
    ) {
        reused_equals_fresh(
            Arc::new(Stokes::default()),
            n,
            geom_seed,
            density_seed,
            pre_applies,
        );
    }
}

/// The same property through the serve stack proper: the `Executor`
/// serving a request out of a warm, already-used cache entry matches a
/// standalone plan+apply bit for bit.
#[test]
fn warm_cache_service_matches_standalone_evaluation() {
    use pfmm_core::plan_fingerprint;
    use pfmm_serve::{Batch, Executor, PlanCache, Request};
    use pfmm_trace::Tracer;

    let fmm = Arc::new(Fmm::new(Arc::new(Laplace), config()));
    let pts = pfmm_core::distrib::uniform_cube(300, 77, 0);
    let key = plan_fingerprint("laplace", fmm.config(), 1, &pts);
    let exec = Executor {
        fmm: Arc::clone(&fmm),
        cache: Arc::new(PlanCache::new(1 << 30)),
        workspaces: Arc::new(pfmm_serve::WorkspacePool::new(2)),
        geometries: Arc::new(vec![pts.clone()]),
        tracer: Arc::new(Tracer::off()),
        flight: None,
        exec_delay_us: 0,
    };
    let mk_batch = |ids: &[u64]| Batch {
        key,
        reqs: ids
            .iter()
            .map(|&id| Request {
                id,
                key,
                geom: 0,
                n: 300,
                arrive_us: 0,
                deadline_us: u64::MAX,
                priority: 1,
                density_seed: 5000 + id,
                est_cost_us: 1,
                est_build_us: 1,
            })
            .collect(),
        opened_us: 0,
        flushed_us: 0,
        charged_us: 0,
    };
    // Warm the cache with two unrelated requests, then serve ours.
    exec.execute_batch(mk_batch(&[0, 1]));
    let served = exec.execute_batch(mk_batch(&[2]));
    assert!(exec.cache.stats().hits >= 1, "second batch must hit");

    let plan = Mutex::new(run(1, |c| fmm.plan(c, pts.clone())).pop().unwrap());
    let standalone = run(1, |c| {
        let mut plan = plan.lock().unwrap();
        let den: Vec<f64> = plan
            .owned_gids()
            .iter()
            .map(|&g| density_at(g, 5002, 0))
            .collect();
        fmm.apply(c, &mut plan, &den).0
    })
    .pop()
    .unwrap();

    assert_eq!(served.reqs[0].pot.len(), standalone.len());
    for (a, b) in served.reqs[0].pot.iter().zip(&standalone) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Two batches racing on one plan through a workspace pool of size 1:
/// the checkouts serialize (the pool cap blocks the loser until the
/// winner returns its workspace) and both batches stay bitwise identical
/// to unraced executions of the same requests.
#[test]
fn pool_of_one_serializes_concurrent_batches_bitwise() {
    use pfmm_core::plan_fingerprint;
    use pfmm_serve::{Batch, Executor, PlanCache, Request, WorkspacePool};
    use pfmm_trace::Tracer;

    let fmm = Arc::new(Fmm::new(Arc::new(Laplace), config()));
    let pts = pfmm_core::distrib::uniform_cube(250, 91, 0);
    let key = plan_fingerprint("laplace", fmm.config(), 1, &pts);
    let mk_exec = |pool_cap: usize| Executor {
        fmm: Arc::clone(&fmm),
        cache: Arc::new(PlanCache::new(1 << 30)),
        workspaces: Arc::new(WorkspacePool::new(pool_cap)),
        geometries: Arc::new(vec![pts.clone()]),
        tracer: Arc::new(Tracer::off()),
        flight: None,
        exec_delay_us: 0,
    };
    let mk_batch = |ids: &[u64]| Batch {
        key,
        reqs: ids
            .iter()
            .map(|&id| Request {
                id,
                key,
                geom: 0,
                n: 250,
                arrive_us: 0,
                deadline_us: u64::MAX,
                priority: 1,
                density_seed: 9000 + id,
                est_cost_us: 1,
                est_build_us: 1,
            })
            .collect(),
        opened_us: 0,
        flushed_us: 0,
        charged_us: 0,
    };

    // Race two batches through a pool capped at one workspace.
    let exec = Arc::new(mk_exec(1));
    // Warm plan and workspace so both racers contend on checkout.
    exec.execute_batch(mk_batch(&[99]));
    let (a, b) = std::thread::scope(|s| {
        let ea = Arc::clone(&exec);
        let eb = Arc::clone(&exec);
        let ha = s.spawn(move || ea.execute_batch(mk_batch(&[0, 1])));
        let hb = s.spawn(move || eb.execute_batch(mk_batch(&[2, 3])));
        (ha.join().expect("batch a"), hb.join().expect("batch b"))
    });
    let s = exec.workspaces.stats();
    assert_eq!(s.checkouts, 3, "warm-up + both racers checked out");
    assert_eq!(s.misses, 1, "cap 1: one workspace ever built");
    assert_eq!(s.pooled, 1, "returned after the race");

    // Unraced reference runs through a fresh executor.
    let fresh = mk_exec(1);
    let ra = fresh.execute_batch(mk_batch(&[0, 1]));
    let rb = fresh.execute_batch(mk_batch(&[2, 3]));
    for (got, want) in [(&a, &ra), (&b, &rb)] {
        for (g, w) in got.reqs.iter().zip(&want.reqs) {
            assert_eq!(g.pot.len(), w.pot.len());
            for (x, y) in g.pot.iter().zip(&w.pot) {
                assert_eq!(x.to_bits(), y.to_bits(), "req {}", g.id);
            }
        }
    }
}
