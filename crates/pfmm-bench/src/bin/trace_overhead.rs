//! Overhead budget for the tracing instrumentation (pfmm-trace).
//!
//! DESIGN.md §10 promises the span hooks are free when disabled and
//! cheap at phase granularity; this harness measures it two ways.
//!
//! - **Hook cost (the gate).** A phase-level evaluation records one span
//!   per phase per rank; each costs two clock reads and one
//!   `Tracer::record_span`, the work the executor's phase hook adds
//!   around a phase. The harness counts the spans a traced evaluation
//!   records, times that many hook calls over many replays, and divides
//!   by the median tracer-off evaluation time. The replay resolves far
//!   below the 2% budget; that budget fails the run.
//! - **End to end (reported).** Tracer off and phase level run in
//!   adjacent pairs, the order alternating per round, and the overhead is
//!   the median per-pair phase/off ratio; comm level (one event pair per
//!   message, so its cost scales with traffic, not with N) is paired with
//!   off in rounds of its own. On an oversubscribed `mpisim` host one
//!   pair's ratio spreads by about ±10% (4 ranks × 2 threads on 2 cores),
//!   so a 2% difference needs hundreds of pairs to show; the quartiles
//!   printed with the median state the run's own resolution.
//!
//! Usage: `trace_overhead [n_points] [rounds] [budget_pct]`
//! (defaults 100 000, 3, 2.0). Writes `results/BENCH_trace_overhead.json`
//! and exits nonzero when the phase-level hook cost exceeds the budget.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use pfmm_bench::{run_case_traced, Distribution};
use pfmm_core::FmmConfig;
use pfmm_kernels::Laplace;
use pfmm_trace::{TraceLevel, Tracer, TID_MAIN};

const P: usize = 4;

/// Replays of one evaluation's phase-level hooks timed per estimate.
const HOOK_REPLAYS: usize = 2000;

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

/// Seconds the phase-level hooks of one evaluation take: `spans` times
/// the work the executor's phase hook adds around a phase, averaged over
/// [`HOOK_REPLAYS`] replays into one phase-level tracer.
fn hook_secs(spans: usize) -> f64 {
    let tracer = Tracer::new(TraceLevel::Phase);
    let t = Instant::now();
    for _ in 0..HOOK_REPLAYS {
        for _ in 0..spans {
            let t0 = tracer.now_us();
            let t1 = black_box(tracer.now_us());
            tracer.record_span(0, TID_MAIN, "phase", "phase", t0, t1, &[]);
        }
    }
    let secs = t.elapsed().as_secs_f64() / HOOK_REPLAYS as f64;
    black_box(tracer.drain());
    secs
}

/// The `q`-quantile of `v` (nearest rank).
fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[((s.len() - 1) as f64 * q).round() as usize]
}

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args
        .next()
        .map(|a| a.parse().expect("n_points must be an integer"))
        .unwrap_or(100_000);
    let rounds: usize = args
        .next()
        .map(|a| a.parse().expect("rounds must be an integer"))
        .unwrap_or_else(|| pfmm_bench::bench_reps(3));
    let budget_pct: f64 = args
        .next()
        .map(|a| a.parse().expect("budget_pct must be a number"))
        .unwrap_or(2.0);
    println!(
        "Trace overhead: N = {n}, p = {P}, {rounds} rounds of adjacent \
         level/off pairs, budget {budget_pct}%\n"
    );

    for _ in 0..pfmm_bench::bench_warmup(1) {
        one_eval(n, TraceLevel::Off); // warm-up, not measured
    }
    let mut off_secs = Vec::with_capacity(2 * rounds);
    let mut level_secs = [Vec::new(), Vec::new()];
    let mut ratios = [Vec::new(), Vec::new()];
    let mut events = [0usize; 2];
    for (i, level) in [TraceLevel::Phase, TraceLevel::Comm]
        .into_iter()
        .enumerate()
    {
        for r in 0..rounds {
            let ((off, _), (on, evs)) = if r % 2 == 0 {
                let off = one_eval(n, TraceLevel::Off);
                (off, one_eval(n, level))
            } else {
                let on = one_eval(n, level);
                (one_eval(n, TraceLevel::Off), on)
            };
            off_secs.push(off);
            level_secs[i].push(on);
            ratios[i].push(on / off);
            events[i] = evs;
        }
    }
    let off_med = quantile(&off_secs, 0.5);
    let pct = |r: &[f64], q: f64| 100.0 * (quantile(r, q) - 1.0);

    // Each phase-level span is one Begin/End event pair.
    let hook = hook_secs(events[0] / 2);
    let hook_pct = 100.0 * hook / off_med;

    println!(
        "{:<8} {:>10} {:>8} {:>10} {:>20}",
        "level", "eval (s)", "events", "overhead", "quartiles"
    );
    println!("{:<8} {:>10.4} {:>8} {:>10}", "off", off_med, 0, "-");
    for (i, name) in ["phase", "comm"].iter().enumerate() {
        println!(
            "{:<8} {:>10.4} {:>8} {:>9.2}% {:>8.2}% .. {:.2}%",
            name,
            quantile(&level_secs[i], 0.5),
            events[i],
            pct(&ratios[i], 0.5),
            pct(&ratios[i], 0.25),
            pct(&ratios[i], 0.75),
        );
    }
    println!(
        "\nphase-level hooks: {} spans, {:.2} us per evaluation = {:.4}% of the off evaluation",
        events[0] / 2,
        hook * 1e6,
        hook_pct
    );

    let json = format!(
        "{{\n  \"bench\": \"trace_overhead\",\n  \"n\": {n},\n  \"p\": {P},\n  \
         \"rounds\": {rounds},\n  \"budget_pct\": {budget_pct},\n  \
         \"off_eval_s\": {off_med:.6},\n  \"phase_eval_s\": {:.6},\n  \
         \"comm_eval_s\": {:.6},\n  \"phase_events\": {},\n  \
         \"comm_events\": {},\n  \"phase_hook_s\": {hook:.9},\n  \
         \"phase_hook_pct\": {hook_pct:.5},\n  \
         \"phase_overhead_pct\": {:.3},\n  \"phase_overhead_iqr_pct\": [{:.3}, {:.3}],\n  \
         \"comm_overhead_pct\": {:.3}\n}}\n",
        quantile(&level_secs[0], 0.5),
        quantile(&level_secs[1], 0.5),
        events[0],
        events[1],
        pct(&ratios[0], 0.5),
        pct(&ratios[0], 0.25),
        pct(&ratios[0], 0.75),
        pct(&ratios[1], 0.5),
    );
    std::fs::create_dir_all("results").expect("create results dir");
    std::fs::write("results/BENCH_trace_overhead.json", &json)
        .expect("write results/BENCH_trace_overhead.json");
    println!("\nwrote results/BENCH_trace_overhead.json");

    assert!(
        hook_pct <= budget_pct,
        "phase-level tracing hooks cost {hook_pct:.4}% of an evaluation, over the {budget_pct}% budget",
    );
    println!("phase-level hook cost {hook_pct:.4}% within the {budget_pct}% budget");
}
