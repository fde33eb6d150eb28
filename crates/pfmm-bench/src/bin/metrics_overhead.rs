//! Overhead budget for the always-on telemetry (pfmm-metrics).
//!
//! DESIGN.md §14 promises the registry is cheap enough to leave armed
//! in every build: recording is post hoc (one batch of counter adds
//! after each evaluation) and the background sampler only reads relaxed
//! atomics. This harness measures the full armed configuration — global
//! registry enabled *and* a 10 ms snapshot sampler scraping it — against
//! the same evaluation with the registry disabled, interleaved
//! round-robin after a warm-up pass, taking the minimum busiest-rank
//! evaluation time per side (the minimum filters host scheduling noise).
//! The armed overhead must stay within the 1% phase budget.
//!
//! Usage: `metrics_overhead [n_points] [runs] [budget_pct] [sampler_ms]`
//! (defaults 100 000, 7, 1.0, 10). Honors `PFMM_BENCH_REPS` /
//! `PFMM_BENCH_WARMUP`. Writes `results/BENCH_metrics_overhead.json`
//! and exits nonzero when the armed overhead exceeds the budget.

use std::sync::Arc;
use std::time::Duration;

use pfmm_bench::{run_case, Distribution};
use pfmm_core::profile::Phase;
use pfmm_core::FmmConfig;
use pfmm_kernels::Laplace;
use pfmm_metrics::Sampler;

const P: usize = 4;

fn one_eval(n: usize) -> pfmm_bench::RunSummary {
    let cfg = FmmConfig {
        order: 4,
        q: 60,
        threads: 2,
        ..Default::default()
    };
    run_case(Arc::new(Laplace), cfg, Distribution::Uniform, n, P, 31)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("n_points must be an integer"))
        .unwrap_or(100_000);
    let runs: usize = args
        .next()
        .map(|a| a.parse().expect("runs must be an integer"))
        .unwrap_or_else(|| pfmm_bench::bench_reps(7));
    let budget_pct: f64 = args
        .next()
        .map(|a| a.parse().expect("budget_pct must be a number"))
        .unwrap_or(1.0);
    let sampler_ms: u64 = args
        .next()
        .map(|a| a.parse().expect("sampler_ms must be an integer"))
        .unwrap_or(10);
    println!(
        "Metrics overhead: N = {n}, p = {P}, {sampler_ms} ms sampler, \
         min of {runs} interleaved runs, budget {budget_pct}%\n"
    );

    let reg = pfmm_metrics::global();
    for _ in 0..pfmm_bench::bench_warmup(1) {
        reg.set_enabled(false);
        one_eval(n); // warm-up, not measured
    }

    // Interleave disabled and armed (enabled + live sampler) evals so
    // host drift hits both alike; keep the per-phase minima too.
    let mut best = [f64::INFINITY; 2]; // [disabled, armed]
    let mut phase_best = [[f64::INFINITY; Phase::ALL.len()]; 2];
    let mut snapshots = 0usize;
    for _ in 0..runs.max(1) {
        for side in 0..2 {
            let armed = side == 1;
            reg.set_enabled(armed);
            let sampler = armed
                .then(|| Sampler::spawn(Arc::clone(reg), Duration::from_millis(sampler_ms), 4096));
            let s = one_eval(n);
            if let Some(sampler) = sampler {
                snapshots += sampler.stop().len();
            }
            best[side] = best[side].min(s.max_eval());
            for (i, ph) in Phase::ALL.iter().enumerate() {
                phase_best[side][i] = phase_best[side][i].min(s.max_secs(*ph));
            }
        }
    }
    reg.set_enabled(true); // leave the process in the default state

    let pct = 100.0 * (best[1] - best[0]) / best[0];
    println!(
        "{:<12} {:>14} {:>14} {:>10}",
        "phase", "disabled (s)", "armed (s)", "overhead"
    );
    for (i, ph) in Phase::ALL.iter().enumerate() {
        let (off, on) = (phase_best[0][i], phase_best[1][i]);
        let p = if off > 0.0 {
            100.0 * (on - off) / off
        } else {
            0.0
        };
        println!("{:<12} {:>14.4} {:>14.4} {:>9.2}%", ph.label(), off, on, p);
    }
    println!(
        "{:<12} {:>14.4} {:>14.4} {:>9.2}%",
        "total", best[0], best[1], pct
    );
    println!(
        "\nregistry: {} series, {} sampler snapshots taken while evaluating",
        reg.len(),
        snapshots
    );

    let json = format!(
        "{{\n  \"bench\": \"metrics_overhead\",\n  \"n\": {n},\n  \"p\": {P},\n  \
         \"runs\": {runs},\n  \"sampler_ms\": {sampler_ms},\n  \
         \"budget_pct\": {budget_pct},\n  \"disabled_eval_s\": {:.6},\n  \
         \"armed_eval_s\": {:.6},\n  \"series\": {},\n  \
         \"sampler_snapshots\": {snapshots},\n  \"overhead_pct\": {:.3}\n}}\n",
        best[0],
        best[1],
        reg.len(),
        pct
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_metrics_overhead.json", &json)
        .expect("write results/BENCH_metrics_overhead.json");
    println!("wrote results/BENCH_metrics_overhead.json");

    assert!(
        pct <= budget_pct,
        "armed telemetry overhead {pct:.2}% exceeds the {budget_pct}% budget"
    );
    println!("armed overhead {pct:.2}% within the {budget_pct}% budget");
}
