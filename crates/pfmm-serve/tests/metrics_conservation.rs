//! Request conservation for the serve telemetry (DESIGN.md §14).
//!
//! Every request offered to the service must be accounted for exactly
//! once at drain: `pfmm_serve_offered_total` equals completions plus
//! the sum of every typed rejection (deadline_infeasible / shedding /
//! displaced), with nothing in flight. Metrics recording must leave the
//! computed potentials bitwise identical.

use std::sync::Arc;

use pfmm_core::{Fmm, FmmConfig};
use pfmm_kernels::Laplace;
use pfmm_metrics::MetricsRegistry;
use pfmm_serve::{run_sim, Arrival, ObsConfig, ServiceConfig, SimConfig, WorkloadConfig};
use pfmm_trace::Tracer;

fn fmm() -> Arc<Fmm> {
    Arc::new(Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 3,
            q: 40,
            ..Default::default()
        },
    ))
}

fn cfg(deadline_us: u64, reg: &Arc<MetricsRegistry>) -> SimConfig {
    SimConfig {
        workload: WorkloadConfig {
            seed: 42,
            requests: 24,
            n_points: 150,
            hot_geometries: 2,
            cold_fraction: 0.2,
            arrival: Arrival::Closed { concurrency: 4 },
            deadline_us,
            priority_levels: 2,
        },
        service: ServiceConfig {
            max_batch: 4,
            max_linger_us: 500,
            workers: 2,
            shed_high_us: u64::MAX,
            shed_low_us: u64::MAX,
        },
        cache_budget_bytes: 64 << 20,
        keep_potentials: true,
        obs: ObsConfig {
            registry: Some(Arc::clone(reg)),
            ..ObsConfig::default()
        },
    }
}

fn balance_holds(deadline_us: u64) -> (u64, u64) {
    let reg = Arc::new(MetricsRegistry::new());
    let report = run_sim(
        fmm(),
        "laplace",
        cfg(deadline_us, &reg),
        Arc::new(Tracer::off()),
    );
    let kl: &[(&str, &str)] = &[("kernel", "laplace")];
    let offered = reg
        .counter_value("pfmm_serve_offered_total", kl)
        .expect("offered counter exists");
    assert_eq!(
        offered,
        report.completed + report.rejected(),
        "at drain every offered request completed or was rejected \
         (deadline {deadline_us})"
    );
    assert_eq!(
        reg.counter_value("pfmm_serve_completed_total", kl),
        Some(report.completed),
        "completed counter mirrors the report"
    );
    for (reason, n) in &report.rejections {
        assert_eq!(
            reg.counter_value(
                "pfmm_serve_rejected_total",
                &[("kernel", "laplace"), ("reason", reason)],
            ),
            Some(*n),
            "typed rejection counter mirrors the report ({reason})"
        );
    }
    (report.completed, report.rejected())
}

#[test]
fn offered_equals_completed_plus_rejected() {
    let (completed, _) = balance_holds(0);
    assert_eq!(completed, 24, "no deadline: everything completes");
    // A 1 µs relative deadline is infeasible for every request, so the
    // balance must hold entirely through the rejection side too.
    let (completed, rejected) = balance_holds(1);
    assert_eq!(completed, 0, "1 µs deadline admits nothing");
    assert_eq!(rejected, 24);
}

#[test]
fn potentials_bitwise_identical_with_metrics_enabled() {
    let on = Arc::new(MetricsRegistry::new());
    let off = Arc::new(MetricsRegistry::new());
    off.set_enabled(false);
    let a = run_sim(fmm(), "laplace", cfg(0, &on), Arc::new(Tracer::off()));
    let b = run_sim(fmm(), "laplace", cfg(0, &off), Arc::new(Tracer::off()));
    assert!(!on.is_empty(), "enabled registry recorded instruments");
    let (pa, pb) = (
        a.potentials.as_ref().expect("kept"),
        b.potentials.as_ref().expect("kept"),
    );
    assert_eq!(pa.len(), pb.len());
    for (id, va) in pa {
        let vb = &pb[id];
        assert_eq!(va.len(), vb.len(), "request {id} length");
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "request {id}: metrics changed bits"
            );
        }
    }
}
