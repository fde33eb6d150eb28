//! pfmm benchmark: two kernel workloads and a serve loop, measured from
//! outside the program.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload laplace-uniform-100k --seed 1 --seconds 58 --trace 0
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and writes the spans it
//! took around each call as a Perfetto-loadable trace under
//! `perfbench/out/`. The traced run of `laplace-uniform-100k` also runs
//! the serve loop, which reports the `serve.*` metrics. Progress and a
//! metric table go to standard error; the last line of standard output
//! is the JSON result. A failed output check makes the run exit with
//! code 1.

mod direct;
mod gen;
mod kernel;
mod probe;
mod report;
mod serve;
mod stats;

use std::sync::Arc;

use direct::Kind;
use gen::Dist;
use kernel::{Rounds, Spec};
use pfmm_trace::{chrome, TraceLevel, Tracer};
use report::Report;

const END_TO_END: &[&str] = &[
    "setup_s",
    "first_apply_s",
    "apply_s",
    "evaluate_s",
    "cold_start_s",
    "rel_error",
    "plan_bytes",
];

const PER_LAYER: &[&str] = &[
    "tree.sort_s",
    "tree.octree_s",
    "tree.let_s",
    "tree.lists_s",
    "tree.balance_s",
    "tree.leaves",
    "tree.octants",
    "tree.max_level",
    "lists.u",
    "lists.v",
    "lists.w",
    "lists.x",
    "lists.direct_pairs",
    "core.evaldata_s",
    "core.ops_warm_s",
    "core.workspace_s",
    "core.workspace_bytes",
    "phase.vlist_s",
    "phase.vlist_gflops",
    "phase.ulist_s",
    "phase.ulist_gflops",
    "phase.wlist_s",
    "phase.xlist_s",
    "phase.wx_gflops",
    "phase.upward_s",
    "phase.downward_s",
    "phase.updown_gflops",
    "phase.comm_s",
    "comm.msgs_per_apply",
    "comm.bytes_per_apply",
    "rank.apply_imbalance",
    "core.thread_speedup",
    "serve.latency_p50_s",
    "serve.latency_p95_s",
    "serve.queue_wait_p50_s",
    "serve.queue_wait_p95_s",
    "serve.resolve_p50_s",
    "serve.execute_p50_s",
    "serve.cache_hit_ratio",
    "serve.plan_builds",
    "serve.evictions",
    "serve.ws_miss_ratio",
    "serve.batch_mean",
    "serve.gen_lag_p95_s",
    "host.fma_gflops",
    "host.triad_gbs",
    "bench.trace_overhead",
    "bench.replay_ratio",
];

const SERVE_METRICS: &[(&str, &str)] = &[
    ("serve.latency_p50_s", "s"),
    ("serve.latency_p95_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p95_s", "s"),
    ("serve.resolve_p50_s", "s"),
    ("serve.execute_p50_s", "s"),
    ("serve.cache_hit_ratio", "1"),
    ("serve.plan_builds", "count"),
    ("serve.evictions", "count"),
    ("serve.ws_miss_ratio", "1"),
    ("serve.batch_mean", "count"),
    ("serve.gen_lag_p95_s", "s"),
];

/// Laplace, 100k uniform points, order 6, one rank with two threads:
/// the V-list is most of an apply.
fn laplace_uniform_100k() -> (Spec, Rounds) {
    (
        Spec {
            kind: Kind::Laplace,
            dist: Dist::Uniform,
            n: 100_000,
            order: 6,
            ranks: 1,
            threads: 2,
        },
        Rounds {
            setup_group: 3,
            setup_groups: 2,
            traced_applies: 4,
            replay_group: 3,
            replay_groups: 3,
            err_ceiling: 1e-6,
        },
    )
}

/// Stokes, 50k points on the 1:1:4 ellipsoid, order 4, two simulated
/// ranks with one thread each: adaptive lists and the distributed layers.
fn stokes_ellipsoid_p2() -> (Spec, Rounds) {
    (
        Spec {
            kind: Kind::Stokes,
            dist: Dist::Ellipsoid,
            n: 50_000,
            order: 4,
            ranks: 2,
            threads: 1,
        },
        Rounds {
            setup_group: 2,
            setup_groups: 3,
            traced_applies: 6,
            replay_group: 2,
            replay_groups: 5,
            err_ceiling: 1.5e-3,
        },
    )
}

/// The serve loop: Laplace, 8k uniform points per geometry, order 4, one
/// worker with one thread. It runs inside the traced run of
/// `laplace-uniform-100k`; it is not a workload of its own, because its
/// memory-bound calls drift too much on a shared host for a 0.25 bound.
fn serve_hot_cold() -> (Spec, serve::Load) {
    (
        Spec {
            kind: Kind::Laplace,
            dist: Dist::Uniform,
            n: 8_000,
            order: 4,
            ranks: 1,
            threads: 1,
        },
        serve::Load {
            rate_per_s: 6.0,
            hot: 3,
            cold_share: 0.2,
            requests: 200,
            probe_plan_us: 7_000,
            probe_apply_us: 70_000,
            spare_plans: 3.5,
            check_every: 13,
        },
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(58.0),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let start = std::time::Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let ((spec, rounds), serve_in_trace) = match args.workload.as_str() {
        "laplace-uniform-100k" => (laplace_uniform_100k(), true),
        "stokes-ellipsoid-p2" => (stokes_ellipsoid_p2(), false),
        other => {
            eprintln!("error: unknown workload {other}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench {} seed {} ({} s, trace {}), {} threads available",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    let mut rep = Report::default();
    let tr = Tracer::new(if args.trace {
        TraceLevel::Phase
    } else {
        TraceLevel::Off
    });

    // Host probe on every run, before anything else touches memory.
    let ((fma, triad), _) = kernel::timed_span(&tr, 0, "host probe", "host", || {
        (probe::fma_gflops(), probe::triad_gbs())
    });
    rep.set("host.fma_gflops", fma, "GF/s");
    rep.set("host.triad_gbs", triad, "GB/s");
    eprintln!("  host: {fma:.2} GF/s multiply-add in cache, {triad:.2} GB/s triad");

    let ((w, warm_s), _) = kernel::timed_span(&tr, 0, "warm evaluator", "setup", || {
        kernel::warm_evaluator(&spec, args.seed)
    });
    eprintln!("  evaluator warmed in {warm_s:.3} s");

    if args.trace {
        kernel::layers(&spec, &rounds, &w, args.seed, &tr, &mut rep);
        if serve_in_trace {
            // The serve loop on its own evaluator.
            let (sspec, sload) = serve_hot_cold();
            let (sw, _) = kernel::warm_evaluator(&sspec, args.seed);
            serve::open_loop(&sspec, &sload, Arc::new(sw), args.seed, &tr, &mut rep);
        } else {
            for (m, unit) in SERVE_METRICS {
                rep.set(m, 0.0, unit);
            }
        }
    } else {
        // Rounds fill what is left of `--seconds` after the probe and
        // the warm-up.
        let left = args.seconds - start.elapsed().as_secs_f64();
        let samples = kernel::measure(&spec, &rounds, &w, args.seed, left, 3, &mut rep);
        kernel::set_timings(&samples, &mut rep);
    }

    let names = if args.trace { PER_LAYER } else { END_TO_END };
    if args.trace {
        let path = std::path::PathBuf::from(format!(
            "perfbench/out/trace-{}-seed{}.json",
            args.workload, args.seed
        ));
        let events = tr.drain();
        let written = chrome::validate(&events).and_then(|v| {
            std::fs::create_dir_all("perfbench/out")
                .and_then(|_| std::fs::write(&path, chrome::to_json_string(&events)))
                .map(|_| v.spans)
                .map_err(|e| e.to_string())
        });
        match written {
            Ok(n) => eprintln!("  wrote {n} spans to {}", path.display()),
            Err(e) => {
                rep.failed += 1;
                rep.failures.push(format!("trace {}: {e}", path.display()));
            }
        }
    }
    rep.print_table(names);
    for f in &rep.failures {
        eprintln!("  CHECK FAILED: {f}");
    }
    match rep.json(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(3);
        }
    }
    if rep.failed > 0 {
        std::process::exit(1);
    }
}
