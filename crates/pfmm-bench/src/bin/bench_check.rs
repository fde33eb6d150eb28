//! Perf-regression sentinel over the committed benchmark baselines.
//!
//! Several design choices this repo ships are gated by a number in a
//! committed `results/BENCH_*.json` file (batched-FFT vs dense M2L,
//! pooled vs fresh workspaces, warm vs cold serving, tracing and
//! telemetry overhead). Those files are regenerated rarely; nothing
//! re-checks the claims day to day. This sentinel does: it loads each
//! committed baseline and re-measures the same gate in a fast smoke
//! configuration (smaller N, reps-1 unless `PFMM_BENCH_REPS` raises it).
//! It fails — with a structured JSON report — when
//!
//! * a speedup falls below `committed × (1 − tolerance)`; the generous
//!   default tolerance (30%) absorbs the size difference and host noise
//!   while still catching a halved speedup;
//! * an overhead budget is breached: over interleaved off/on pairs, the
//!   median on/off wall ratio exceeds `1 + budget + noise`, where
//!   `noise` is the quartile spread of the off/off ratios of consecutive
//!   off runs in the same invocation.
//!
//! Usage: `bench_check [--results <dir>] [--tolerance <frac>]
//! [--inject <factor>] [--report <path>]`. `--inject` makes every
//! measurement `<factor>` times worse (speedups divided, overhead ratios
//! multiplied) — a self-test hook: CI runs `bench_check --inject 2` and
//! requires the nonzero exit.

use std::sync::Arc;

use pfmm_bench::{bench_reps, run_case_best, Distribution, RunSummary};
use pfmm_core::profile::Phase;
use pfmm_core::{Fmm, FmmConfig, M2lMode};
use pfmm_kernels::Laplace;
use pfmm_serve::{run_sim, Arrival, ObsConfig, ServiceConfig, SimConfig, WorkloadConfig};
use pfmm_trace::json::{parse, push_escaped, Value};
use pfmm_trace::{TraceLevel, Tracer};

/// Which side of its bound a gated number must stay on.
#[derive(Copy, Clone, PartialEq)]
enum Gate {
    /// A speedup: pass while `measured >= bound`.
    Floor,
    /// An overhead ratio: pass while `measured <= bound`.
    Ceiling,
}

/// One gated number: where it came from, what we re-measured, verdict.
struct Check {
    baseline: &'static str,
    key: &'static str,
    gate: Gate,
    committed: f64,
    measured: f64,
    bound: f64,
}

impl Check {
    fn pass(&self) -> bool {
        match self.gate {
            Gate::Floor => self.measured >= self.bound,
            Gate::Ceiling => self.measured <= self.bound,
        }
    }

    /// Make the measurement `factor` times worse (`--inject`).
    fn inject(&mut self, factor: f64) {
        match self.gate {
            Gate::Floor => self.measured /= factor,
            Gate::Ceiling => self.measured *= factor,
        }
    }
}

/// Linear-interpolated quantile of an unsorted, nonempty sample.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    let pos = q * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Overhead of `on` over `off` from `pairs` interleaved off/on runs
/// (alternating which goes first, so slow drift cancels). Returns the
/// median on/off ratio and the noise floor: the quartile spread of the
/// ratios of consecutive off runs, i.e. how far two identical runs
/// disagree on this host right now.
fn overhead(pairs: usize, mut off: impl FnMut() -> f64, mut on: impl FnMut() -> f64) -> (f64, f64) {
    let mut offs = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (t_off, t_on) = if i % 2 == 0 {
            let t = off();
            (t, on())
        } else {
            let t = on();
            (off(), t)
        };
        offs.push(t_off);
        ratios.push(t_on / t_off.max(1e-12));
    }
    let noise: Vec<f64> = offs.windows(2).map(|w| w[1] / w[0].max(1e-12)).collect();
    let spread = quantile(&noise, 0.75) - quantile(&noise, 0.25);
    (quantile(&ratios, 0.5), spread)
}

fn load(dir: &str, file: &str) -> Option<Value> {
    let path = format!("{dir}/{file}");
    let text = std::fs::read_to_string(&path).ok()?;
    Some(parse(&text).unwrap_or_else(|e| panic!("{path}: malformed baseline: {e}")))
}

fn num(v: &Value, key: &str) -> f64 {
    v.get(key)
        .and_then(|x| x.as_num())
        .unwrap_or_else(|| panic!("baseline missing numeric key '{key}'"))
}

/// Smallest value of `key` across the baseline's `rows` — the weakest
/// committed gate is the one the sentinel re-checks.
fn min_row(v: &Value, key: &str) -> f64 {
    v.get("rows")
        .and_then(|r| r.as_arr())
        .unwrap_or_else(|| panic!("baseline missing 'rows'"))
        .iter()
        .map(|row| num(row, key))
        .fold(f64::INFINITY, f64::min)
}

fn smoke_cfg() -> FmmConfig {
    FmmConfig {
        order: 4,
        q: 60,
        ..Default::default()
    }
}

fn eval_secs(cfg: FmmConfig, n: usize, reps: usize) -> RunSummary {
    run_case_best(
        Arc::new(Laplace),
        cfg,
        Distribution::Uniform,
        n,
        1,
        23,
        reps,
    )
}

fn phase_ratio(a: &RunSummary, b: &RunSummary, phases: &[Phase]) -> f64 {
    let secs = |s: &RunSummary| phases.iter().map(|&p| s.max_secs(p)).sum::<f64>();
    secs(a) / secs(b).max(1e-12)
}

fn serve_cfg(warm: bool) -> SimConfig {
    SimConfig {
        workload: WorkloadConfig {
            seed: 2009,
            requests: 12,
            n_points: 6_000,
            hot_geometries: 3,
            cold_fraction: 0.1,
            arrival: Arrival::Closed { concurrency: 6 },
            deadline_us: 0,
            priority_levels: 1,
        },
        service: ServiceConfig {
            max_batch: if warm { 6 } else { 1 },
            max_linger_us: if warm { 1_500 } else { 0 },
            workers: 2,
            shed_high_us: u64::MAX,
            shed_low_us: u64::MAX,
        },
        cache_budget_bytes: if warm { 1 << 30 } else { 0 },
        keep_potentials: false,
        obs: ObsConfig::default(),
    }
}

fn serve_throughput(warm: bool) -> f64 {
    let fmm = Arc::new(Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 2,
            q: 24,
            ..Default::default()
        },
    ));
    run_sim(fmm, "laplace", serve_cfg(warm), Arc::new(Tracer::off())).throughput_rps
}

fn main() {
    let mut dir = "results".to_string();
    let mut tolerance = 0.30f64;
    let mut inject = 1.0f64;
    let mut report_path = "results/BENCH_check_report.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut val = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
        };
        match a.as_str() {
            "--results" => dir = val("--results"),
            "--tolerance" => tolerance = val("--tolerance").parse().expect("tolerance"),
            "--inject" => inject = val("--inject").parse().expect("inject factor"),
            "--report" => report_path = val("--report"),
            other => panic!("unknown argument '{other}'"),
        }
    }
    let reps = bench_reps(1);
    println!(
        "bench_check: baselines from {dir}/, tolerance {:.0}%, reps {reps}{}\n",
        tolerance * 100.0,
        if inject != 1.0 {
            format!(", INJECTING {inject}x regression")
        } else {
            String::new()
        }
    );

    let speedup = |baseline, key, committed: f64, measured| Check {
        baseline,
        key,
        gate: Gate::Floor,
        committed,
        measured,
        bound: committed * (1.0 - tolerance),
    };
    let mut checks: Vec<Check> = Vec::new();
    let n = 40_000;

    if let Some(b) = load(&dir, "BENCH_m2l.json") {
        let key = "speedup_batched_vs_dense";
        let committed = min_row(&b, key);
        let run = |m2l| {
            eval_secs(
                FmmConfig {
                    q: 40,
                    m2l,
                    ..smoke_cfg()
                },
                n,
                reps,
            )
        };
        let batched = run(M2lMode::FftBatched);
        let dense = run(M2lMode::Dense);
        checks.push(speedup(
            "BENCH_m2l.json",
            key,
            committed,
            phase_ratio(&dense, &batched, &[Phase::VList]),
        ));
    }

    if let Some(b) = load(&dir, "BENCH_workspace.json") {
        // Same deep-tree shape as the committed run (order 4, q 16),
        // smaller N; sum over a few applies so one noisy sample cannot
        // flip the verdict.
        let committed = num(&b, "wall_ratio_alloc_over_pooled");
        let wcfg = FmmConfig {
            q: 16,
            ..smoke_cfg()
        };
        let applies = reps.max(1) * 3;
        let pooled: f64 = pfmm_bench::workspace_apply_secs(wcfg, 20_000, 23, 2, applies, true)
            .iter()
            .sum();
        let fresh: f64 = pfmm_bench::workspace_apply_secs(wcfg, 20_000, 23, 1, applies, false)
            .iter()
            .sum();
        checks.push(speedup(
            "BENCH_workspace.json",
            "wall_ratio_alloc_over_pooled",
            committed,
            fresh / pooled.max(1e-12),
        ));
    }

    if let Some(b) = load(&dir, "BENCH_serve.json") {
        let committed = num(&b, "speedup");
        let mut best_cold = 0.0f64;
        let mut best_warm = 0.0f64;
        for _ in 0..reps.max(1) {
            best_cold = best_cold.max(serve_throughput(false));
            best_warm = best_warm.max(serve_throughput(true));
        }
        checks.push(speedup(
            "BENCH_serve.json",
            "speedup",
            committed,
            best_warm / best_cold.max(1e-12),
        ));
    }

    // Enough interleaved pairs for a median and a quartile spread even
    // at reps 1.
    let pairs = 2 * reps + 5;

    if let Some(b) = load(&dir, "BENCH_trace_overhead.json") {
        let budget = num(&b, "budget_pct") / 100.0;
        let (ratio, noise) = overhead(
            pairs,
            || run_case_traced_secs(smoke_cfg(), n, &Arc::new(Tracer::off())),
            || run_case_traced_secs(smoke_cfg(), n, &Arc::new(Tracer::new(TraceLevel::Phase))),
        );
        checks.push(overhead_check(
            "BENCH_trace_overhead.json",
            "phase_overhead_ratio",
            budget,
            ratio,
            noise,
        ));
    }

    if let Some(b) = load(&dir, "BENCH_metrics_overhead.json") {
        // Same gate for the telemetry budget: registry armed vs disabled.
        let budget = num(&b, "budget_pct") / 100.0;
        let reg = pfmm_metrics::global();
        let was_enabled = reg.enabled();
        let timed = |enabled: bool| {
            reg.set_enabled(enabled);
            eval_secs(smoke_cfg(), n, 1).max_eval()
        };
        let (ratio, noise) = overhead(pairs, || timed(false), || timed(true));
        reg.set_enabled(was_enabled);
        checks.push(overhead_check(
            "BENCH_metrics_overhead.json",
            "overhead_ratio",
            budget,
            ratio,
            noise,
        ));
    }

    assert!(!checks.is_empty(), "no baselines found under {dir}/");
    for c in &mut checks {
        c.inject(inject);
    }

    println!(
        "{:<30} {:<28} {:>10} {:>10} {:>8} {:>6}",
        "baseline", "key", "committed", "measured", "bound", "ok"
    );
    let mut failed = 0usize;
    for c in &checks {
        println!(
            "{:<30} {:<28} {:>10.3} {:>10.3} {:>7.3}{} {:>6}",
            c.baseline,
            c.key,
            c.committed,
            c.measured,
            c.bound,
            if c.gate == Gate::Floor { '>' } else { '<' },
            if c.pass() { "pass" } else { "FAIL" }
        );
        failed += usize::from(!c.pass());
    }

    let mut json = String::from("{\n  \"bench\": \"bench_check\",\n");
    json.push_str(&format!(
        "  \"tolerance\": {tolerance},\n  \"inject\": {inject},\n  \
         \"reps\": {reps},\n  \"failed\": {failed},\n  \"checks\": [\n"
    ));
    for (i, c) in checks.iter().enumerate() {
        json.push_str("    {\"baseline\": ");
        push_escaped(&mut json, c.baseline);
        json.push_str(", \"key\": ");
        push_escaped(&mut json, c.key);
        json.push_str(", \"gate\": ");
        push_escaped(
            &mut json,
            if c.gate == Gate::Floor {
                "floor"
            } else {
                "ceiling"
            },
        );
        json.push_str(&format!(
            ", \"committed\": {:.4}, \"measured\": {:.4}, \"bound\": {:.4}, \"pass\": {}}}{}\n",
            c.committed,
            c.measured,
            c.bound,
            c.pass(),
            if i + 1 < checks.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    if let Some(parent) = std::path::Path::new(&report_path).parent() {
        std::fs::create_dir_all(parent).expect("create report dir");
    }
    std::fs::write(&report_path, &json).unwrap_or_else(|e| panic!("write {report_path}: {e}"));
    println!("\nwrote {report_path}");

    assert!(
        failed == 0,
        "{failed} of {} gates regressed past their bound (see {report_path})",
        checks.len()
    );
    println!("all {} gates hold", checks.len());
}

fn run_case_traced_secs(cfg: FmmConfig, n: usize, tracer: &Arc<Tracer>) -> f64 {
    pfmm_bench::run_case_traced(
        Arc::new(Laplace),
        cfg,
        Distribution::Uniform,
        n,
        1,
        23,
        tracer,
    )
    .max_eval()
}

/// An overhead gate: the committed number is the budgeted ratio
/// `1 + budget`, the bound adds this invocation's noise floor.
fn overhead_check(
    baseline: &'static str,
    key: &'static str,
    budget: f64,
    ratio: f64,
    noise: f64,
) -> Check {
    Check {
        baseline,
        key,
        gate: Gate::Ceiling,
        committed: 1.0 + budget,
        measured: ratio,
        bound: 1.0 + budget + noise,
    }
}
