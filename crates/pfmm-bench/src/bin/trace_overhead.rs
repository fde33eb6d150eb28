//! Overhead budget for the tracing instrumentation (pfmm-trace).
//!
//! DESIGN.md §10 promises the span hooks are free when disabled and
//! cheap at phase granularity; this harness measures it. It runs the
//! same evaluation three ways — tracer off, phase-level
//! spans, and full comm-level recording — interleaved round-robin after
//! a warm-up pass (so allocator/page-cache effects and host drift hit
//! all three levels alike), taking the minimum busiest-rank evaluation
//! time per level (the minimum filters host scheduling noise, which on
//! an oversubscribed `mpisim` host dwarfs the instrumentation itself).
//! The phase-level overhead must stay within the 2% budget; comm level
//! is reported for information (it records one event pair per message,
//! so its cost scales with traffic, not with N).
//!
//! Usage: `trace_overhead [n_points] [runs] [budget_pct]`
//! (defaults 100 000, 3, 2.0). Writes `results/BENCH_trace_overhead.json`
//! and exits nonzero when phase-level overhead exceeds the budget.

use std::sync::Arc;

use pfmm_bench::{run_case_traced, Distribution};
use pfmm_core::FmmConfig;
use pfmm_kernels::Laplace;
use pfmm_trace::{TraceLevel, Tracer};

const P: usize = 4;

fn one_eval(n: usize, level: TraceLevel) -> (f64, usize) {
    let cfg = FmmConfig {
        order: 4,
        q: 60,
        threads: 2,
        ..Default::default()
    };
    let tracer = Arc::new(Tracer::new(level));
    let s = run_case_traced(
        Arc::new(Laplace),
        cfg,
        Distribution::Uniform,
        n,
        P,
        31,
        &tracer,
    );
    (s.max_eval(), tracer.drain().len())
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
        .unwrap_or_else(|| pfmm_bench::bench_reps(3));
    let budget_pct: f64 = args
        .next()
        .map(|a| a.parse().expect("budget_pct must be a number"))
        .unwrap_or(2.0);
    println!(
        "Trace overhead: N = {n}, p = {P}, min of {runs} \
         interleaved runs, budget {budget_pct}%\n"
    );

    let levels = [TraceLevel::Off, TraceLevel::Phase, TraceLevel::Comm];
    let names = ["off", "phase", "comm"];
    for _ in 0..pfmm_bench::bench_warmup(1) {
        one_eval(n, TraceLevel::Off); // warm-up, not measured
    }
    let mut best = [f64::INFINITY; 3];
    let mut events = [0usize; 3];
    for _ in 0..runs {
        for (i, &level) in levels.iter().enumerate() {
            let (secs, evs) = one_eval(n, level);
            best[i] = best[i].min(secs);
            events[i] = evs;
        }
    }
    let pct: Vec<f64> = best
        .iter()
        .map(|b| 100.0 * (b - best[0]) / best[0])
        .collect();

    println!(
        "{:<12} {:>12} {:>10} {:>10}",
        "level", "eval (s)", "events", "overhead"
    );
    for i in 0..3 {
        println!(
            "{:<12} {:>12.4} {:>10} {:>9.2}%",
            names[i], best[i], events[i], pct[i]
        );
    }

    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"n\": {n},\n  \"p\": {P},\n  \
         \"runs\": {runs},\n  \"budget_pct\": {budget_pct},\n  \
         \"off_eval_s\": {:.6},\n  \"phase_eval_s\": {:.6},\n  \
         \"comm_eval_s\": {:.6},\n  \"phase_events\": {},\n  \
         \"comm_events\": {},\n  \"phase_overhead_pct\": {:.3},\n  \
         \"comm_overhead_pct\": {:.3}\n}}\n",
        best[0], best[1], best[2], events[1], events[2], pct[1], pct[2]
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_trace_overhead.json", &json)
        .expect("write results/BENCH_trace_overhead.json");
    println!("\nwrote results/BENCH_trace_overhead.json");

    assert!(
        pct[1] <= budget_pct,
        "phase-level tracing overhead {:.2}% exceeds the {budget_pct}% budget",
        pct[1]
    );
    println!(
        "phase-level overhead {:.2}% within the {budget_pct}% budget",
        pct[1]
    );
}
