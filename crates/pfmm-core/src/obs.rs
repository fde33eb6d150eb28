//! Mirror of per-evaluation results into the always-on telemetry
//! registry (`pfmm-metrics`).
//!
//! Recording is strictly *post hoc*: the driver finishes an evaluation
//! with its usual `Profile`/`CommStats` accounting and this module
//! re-publishes those authoritative numbers as registry instruments,
//! once per run. The arithmetic path never touches an atomic, so
//! potentials with metrics enabled are bitwise identical to a run with
//! them disabled (asserted by `tests/metrics_conservation.rs`).
//!
//! Naming scheme (see DESIGN.md §14): `pfmm_<layer>_<what>_<unit>`,
//! counters suffixed `_total`, durations accumulated as integer
//! microseconds, throughput gauges in GF/s. Labels are drawn from the
//! closed sets `kernel`, `phase`, `rank`, `stage`, `list`.

use pfmm_metrics::MetricsRegistry;
use pfmm_tree::lists::Lists;

use crate::profile::{Phase, Profile};

/// Publish one finished evaluation: per-phase wall time and flop-model
/// GF/s, setup-stage times, U/V/W/X edge counts.
pub fn record_evaluation(
    reg: &MetricsRegistry,
    kernel: &str,
    rank: usize,
    prof: &Profile,
    lists: &Lists,
) {
    if !reg.enabled() {
        return;
    }
    let r = rank.to_string();
    reg.counter(
        "pfmm_evaluations_total",
        &[("kernel", kernel), ("rank", &r)],
    )
    .inc();
    for ph in Phase::ALL {
        let labels: &[(&str, &str)] = &[("kernel", kernel), ("phase", ph.label()), ("rank", &r)];
        let secs = prof.secs(ph);
        let flops = prof.flops(ph);
        reg.counter("pfmm_phase_us_total", labels)
            .add((secs * 1e6) as u64);
        reg.counter("pfmm_phase_flops_total", labels).add(flops);
        if secs > 0.0 {
            reg.gauge("pfmm_phase_gflops", labels)
                .set(flops as f64 / secs / 1e9);
        }
    }
    for (stage, secs) in [
        ("sort", prof.sort_secs),
        ("tree", prof.tree_secs),
        ("lists", prof.lists_secs),
        ("plan", prof.plan_secs),
    ] {
        reg.counter("pfmm_setup_us_total", &[("rank", &r), ("stage", stage)])
            .add((secs * 1e6) as u64);
    }
    for (list, csr) in [
        ("u", &lists.u),
        ("v", &lists.v),
        ("w", &lists.w),
        ("x", &lists.x),
    ] {
        reg.counter("pfmm_edges_total", &[("list", list), ("rank", &r)])
            .add(csr.total() as u64);
    }
}

/// Count a plan build (geometry-dependent setup paid once).
pub fn record_plan_build(kernel: &str) {
    let reg = pfmm_metrics::global();
    if reg.enabled() {
        reg.counter("pfmm_plan_builds_total", &[("kernel", kernel)])
            .inc();
    }
}

/// Resolve the `pfmm_plan_applies_total` handle once, so apply hot paths
/// can bump it without the registry's find-or-create lock (and its key
/// allocations). Resolved unconditionally: the registry may be enabled
/// after the workspace is built, and a pre-resolved handle must still
/// count from that point on.
pub fn plan_apply_counter(kernel: &str) -> std::sync::Arc<pfmm_metrics::Counter> {
    pfmm_metrics::global().counter("pfmm_plan_applies_total", &[("kernel", kernel)])
}
