//! `pfmm` — command-line driver for the FMM library.
//!
//! Subcommands:
//!
//! - `run` — evaluate an N-body sum and report per-phase profile, tree
//!   shape, and (optionally) the sampled error vs the direct sum;
//! - `tune` — sweep points-per-box candidates and report the optimum;
//! - `gpu` — run the §IV GPU pipeline on the simulated device and report
//!   modeled per-phase times and speedup;
//! - `solve` — GMRES over one FMM plan for a second-kind system;
//! - `serve-sim` — closed-loop simulation of the batched evaluation
//!   service, with SLO tracking and an always-armed flight recorder.
//!
//! Run `pfmm help` for the options of each. The crate exposes
//! [`cli_main`] so both the workspace-root `pfmm` binary and the
//! `pfmm-cli` binary are one-line wrappers around the same dispatcher.

mod args;

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use args::Args;
use pfmm_core::distrib::{ellipsoid_1_1_4, plummer, randomize_densities, uniform_cube};
use pfmm_core::driver::gather_potentials;
use pfmm_core::profile::{Phase, ProfileSummary};
use pfmm_core::tune::{model_q, tune_sweep};
use pfmm_core::verify::sampled_rel_error;
use pfmm_core::{Fmm, FmmConfig, M2lMode, Reduction, SortKind};
use pfmm_gpusim::{run_gpu_fmm, run_gpu_fmm_wx, DeviceSpec, GpuPhase};
use pfmm_kernels::{Kernel, Laplace, LaplaceDipole, Stokes, Yukawa};
use pfmm_metrics::{FlightConfig, Sampler, SloConfig};
use pfmm_trace::{TraceLevel, Tracer};
use pfmm_tree::PointRec;

const HELP: &str = "\
pfmm — parallel kernel-independent fast multipole method

USAGE: pfmm <run|tune|gpu|solve|serve-sim|help> [--key value | --key=value]...

common options:
  --n <int>            points (default 20000)
  --dist <uniform|ellipsoid|plummer>  particle distribution (default uniform)
  --kernel <laplace|stokes|yukawa|dipole>  (default laplace; run/tune only)
  --order <int>        surface order: accuracy (default 6)
  --q <int|auto>       max points per leaf; auto (the default) picks it
                       per kernel and order from the engines' cost model
  --seed <int>         RNG seed (default 1)

run options:
  --ranks <int>        simulated MPI ranks (default 1)
  --threads <int>      intra-rank threads for the parallel phases (default 1)
  --m2l <fft-batched|dense>  V-list mode (default fft-batched:
                       lock-free sibling-blocked half-spectrum
                       Hadamard; dense = per-offset operator matrices,
                       the reference oracle)
  --sort <sample|bitonic>      parallel sort backend (default sample)
  --reduction <auto|hypercube|naive>  up-density reduction (default auto;
                       hypercube needs a power-of-two --ranks)
  --balance <true|false>       work-weighted repartition (default true)
  --check <int>        verify every k-th point against the direct sum
                       (0 = skip; default 0)
  --trace <path.json>  write a Chrome/Perfetto trace of the run (load in
                       ui.perfetto.dev or chrome://tracing; also accepted
                       by `gpu` for the modeled device timeline)
  --trace-level <off|phase|task|comm>  trace detail: phase spans only,
                       + per-chunk task spans, + per-message comm events
                       with cross-rank flow arrows and the p×p byte
                       matrix (default comm when --trace is given)

metrics options (run and serve-sim):
  --metrics <path>     export the telemetry registry after the run:
                       Prometheus text at <path>, JSON snapshots at
                       <path>.json
  --metrics-interval <ms>  also sample the registry every <ms> ms on a
                       background thread; all sampled snapshots land in
                       the JSON export (default 0 = final snapshot only)

tune options:
  --candidates <q1,q2,...>     candidate q values (default 32,64,128,256,512)
  --sample <int>       subsample size for probing (default n/4)

gpu options:
  --gpu-q <int>        points per box on the device (default 400)
  --wx-on-gpu <true|false>     run W/X on the device too (default false)

solve options (second-kind system (I + c·K)σ = b, GMRES over one plan):
  --ranks <int>        simulated MPI ranks (default 2)
  --scale <float>      the coupling c (default 1/n)
  --tol <float>        GMRES relative tolerance (default 1e-10)

serve-sim options (closed-loop simulation of the pfmm-serve batched
evaluation service: plan caching, deadline admission, load shedding):
  --requests <int>     requests to issue (default 64)
  --n <int>            points per geometry (default 500)
  --q <int|auto>       max points per leaf (default 60: the small
                       geometries still get a multi-level tree)
  --hot-geoms <int>    distinct hot geometries (default 3)
  --cold-frac <float>  fraction of one-off cold geometries (default 0.15)
  --arrival <closed|open>      closed-loop client pool or open-loop
                       fixed-rate arrivals (default closed)
  --concurrency <int>  closed-loop in-flight cap (default 4)
  --rate <float>       open-loop arrivals per second (default 200)
  --deadline-us <int>  relative deadline per request, 0 = none (default 0)
  --priorities <int>   priority levels drawn uniformly (default 3)
  --max-batch <int>    batch size flush threshold (default 8)
  --max-linger-us <int>  batch age flush threshold (default 2000)
  --workers <int>      executor pool threads (default 2)
  --shed-high-us <int> backlog µs engaging load shedding (default 2000000)
  --shed-low-us <int>  backlog µs disengaging it (default 1000000)
  --cache-mb <int>     plan-cache budget in MiB, 0 = no caching (default 256)
  --slo-budget <float> deadline-miss error budget for the SLO report,
                       as a fraction of requests (default 0.01)
  --flight-recorder <dir>  arm the per-thread span ring; on a deadline
                       violation, shedding engagement, or phase anomaly
                       an incident file (Perfetto JSON + metrics
                       snapshot) is dumped into <dir>
  --exec-delay-us <int>  fault injection: stall every executor batch by
                       this much after admission (default 0; violations
                       under injection are reported, not fatal)
  --trace <path.json>  write per-request lifecycle spans (queue-wait /
                       batch-assembly / execute, one lane per request)
";

/// Parse `std::env::args` and run the selected subcommand; this is the
/// whole `main` of both `pfmm` binaries.
pub fn cli_main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return ExitCode::SUCCESS;
    }
    match dispatch(argv.into_iter()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n\nrun `pfmm help` for usage");
            ExitCode::FAILURE
        }
    }
}

/// Flags shared by every geometry-taking subcommand.
const COMMON_FLAGS: &[&str] = &["n", "dist", "seed"];
/// Flags consumed by `config_of` (run/tune/solve).
const CONFIG_FLAGS: &[&str] = &[
    "kernel",
    "order",
    "q",
    "m2l",
    "sort",
    "reduction",
    "balance",
    "threads",
];
const TRACE_FLAGS: &[&str] = &["trace", "trace-level"];
/// Flags consumed by `metrics_of` (run/serve-sim).
const METRICS_FLAGS: &[&str] = &["metrics", "metrics-interval"];

/// One subcommand: name, shared flag groups, command-specific flags.
type CommandSpec = (
    &'static str,
    &'static [&'static [&'static str]],
    &'static [&'static str],
);

/// Every subcommand with the exact flag set it accepts — misspellings
/// and flags of *other* subcommands are both rejected with a pointer.
const COMMANDS: &[CommandSpec] = &[
    (
        "run",
        &[COMMON_FLAGS, CONFIG_FLAGS, TRACE_FLAGS, METRICS_FLAGS],
        &["ranks", "check"],
    ),
    (
        "tune",
        &[COMMON_FLAGS, CONFIG_FLAGS],
        &["candidates", "sample"],
    ),
    (
        "gpu",
        &[COMMON_FLAGS, TRACE_FLAGS],
        &["order", "gpu-q", "wx-on-gpu"],
    ),
    (
        "solve",
        &[COMMON_FLAGS, CONFIG_FLAGS],
        &["ranks", "scale", "tol"],
    ),
    (
        "serve-sim",
        &[TRACE_FLAGS, METRICS_FLAGS],
        &[
            "kernel",
            "order",
            "q",
            "seed",
            "n",
            "requests",
            "hot-geoms",
            "cold-frac",
            "arrival",
            "rate",
            "concurrency",
            "deadline-us",
            "priorities",
            "max-batch",
            "max-linger-us",
            "workers",
            "shed-high-us",
            "shed-low-us",
            "cache-mb",
            "slo-budget",
            "flight-recorder",
            "exec-delay-us",
        ],
    ),
];

/// Flags a subcommand accepts, or `None` for an unknown subcommand.
fn flags_of(command: &str) -> Option<Vec<&'static str>> {
    COMMANDS
        .iter()
        .find(|(c, _, _)| *c == command)
        .map(|(_, groups, own)| {
            let mut v: Vec<&'static str> = groups.iter().flat_map(|g| g.iter().copied()).collect();
            v.extend(own.iter().copied());
            v
        })
}

/// Levenshtein distance — small inputs, the O(a·b) table is fine.
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, &cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

/// The rejection message for `--unknown` under `command`: prefer a
/// close spelling from the command's own flags ("did you mean"), then
/// point at the subcommand that does accept the flag verbatim.
fn unknown_flag_error(command: &str, unknown: &str, known: &[&'static str]) -> String {
    let nearest = known
        .iter()
        .map(|k| (edit_distance(unknown, k), *k))
        .min()
        .filter(|(d, k)| *d <= 2.max(k.len() / 3))
        .map(|(_, k)| k);
    if let Some(k) = nearest {
        return format!("unknown option --{unknown} for '{command}' (did you mean --{k}?)");
    }
    let owner = COMMANDS
        .iter()
        .filter(|(c, _, _)| *c != command)
        .find(|(c, _, _)| flags_of(c).is_some_and(|f| f.contains(&unknown)))
        .map(|(c, _, _)| *c);
    if let Some(c) = owner {
        return format!("unknown option --{unknown} for '{command}' (it is a '{c}' option)");
    }
    format!("unknown option --{unknown} for '{command}'")
}

fn dispatch(argv: impl Iterator<Item = String>) -> Result<(), String> {
    let args = Args::parse(argv)?;
    let known = flags_of(&args.command).ok_or_else(|| {
        let names: Vec<&str> = COMMANDS.iter().map(|(c, _, _)| *c).collect();
        format!(
            "unknown subcommand '{}' (expected one of {})",
            args.command,
            names.join(", ")
        )
    })?;
    let mut keys: Vec<&str> = args.keys().collect();
    keys.sort();
    if let Some(unknown) = keys.iter().find(|k| !known.contains(*k)) {
        return Err(unknown_flag_error(&args.command, unknown, &known));
    }
    match args.command.as_str() {
        "run" => cmd_run(&args),
        "tune" => cmd_tune(&args),
        "gpu" => cmd_gpu(&args),
        "solve" => cmd_solve(&args),
        "serve-sim" => cmd_serve_sim(&args),
        _ => unreachable!("flags_of accepted the command"),
    }
}

fn kernel_of(args: &Args) -> Result<Arc<dyn Kernel>, String> {
    Ok(match args.get("kernel").unwrap_or("laplace") {
        "laplace" => Arc::new(Laplace),
        "stokes" => Arc::new(Stokes::default()),
        "yukawa" => Arc::new(Yukawa::default()),
        "dipole" => Arc::new(LaplaceDipole),
        other => return Err(format!("unknown kernel '{other}'")),
    })
}

fn points_of(args: &Args, kdim: usize) -> Result<Vec<PointRec>, String> {
    let n: usize = args.get_or("n", 20_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let mut pts = match args.get("dist").unwrap_or("uniform") {
        "uniform" => uniform_cube(n, seed, 0),
        "ellipsoid" => ellipsoid_1_1_4(n, seed, 0),
        "plummer" => plummer(n, seed, 0),
        other => return Err(format!("unknown distribution '{other}'")),
    };
    randomize_densities(&mut pts, kdim, seed ^ 0x5a5a);
    Ok(pts)
}

/// `--q`: `auto` (0 in [`FmmConfig::q`], resolved per kernel and order
/// by `Fmm::new`) or a fixed positive bound; `default` is the spelling
/// used when the flag is absent.
fn q_of(args: &Args, default: &str) -> Result<usize, String> {
    match args.get("q").unwrap_or(default) {
        "auto" => Ok(0),
        v => match v.parse::<usize>() {
            Ok(0) => Err("--q must be positive; use --q=auto for the model's choice".into()),
            Ok(q) => Ok(q),
            Err(_) => Err(format!(
                "--q: cannot parse '{v}' (a positive integer or auto)"
            )),
        },
    }
}

fn config_of(args: &Args) -> Result<FmmConfig, String> {
    Ok(FmmConfig {
        order: args.get_or("order", 6)?,
        q: q_of(args, "auto")?,
        m2l: match args.get("m2l").unwrap_or("fft-batched") {
            "fft-batched" => M2lMode::FftBatched,
            "dense" => M2lMode::Dense,
            other => return Err(format!("unknown m2l mode '{other}'")),
        },
        balance: args.get_or("balance", true)?,
        reduction: match args.get("reduction").unwrap_or("auto") {
            "auto" => Reduction::Auto,
            "hypercube" => Reduction::Hypercube,
            "naive" => Reduction::Naive,
            other => return Err(format!("unknown reduction '{other}'")),
        },
        threads: args.get_or("threads", 1)?,
        sort: match args.get("sort").unwrap_or("sample") {
            "sample" => SortKind::Sample,
            "bitonic" => SortKind::Bitonic,
            other => return Err(format!("unknown sort backend '{other}'")),
        },
    })
}

/// Parse `--trace` / `--trace-level` into a tracer and output path. The
/// level defaults to `comm` (full detail) when a path is given and `off`
/// otherwise; `--trace-level` without `--trace` is rejected since the
/// events would have nowhere to go.
fn tracer_of(args: &Args) -> Result<(Arc<Tracer>, Option<String>), String> {
    let path = args.get("trace").map(str::to_string);
    let level = match args.get("trace-level") {
        None => {
            if path.is_some() {
                TraceLevel::Comm
            } else {
                TraceLevel::Off
            }
        }
        Some(_) if path.is_none() => {
            return Err("--trace-level needs --trace <path.json>".into());
        }
        Some("off") => TraceLevel::Off,
        Some("phase") => TraceLevel::Phase,
        Some("task") => TraceLevel::Task,
        Some("comm") => TraceLevel::Comm,
        Some(other) => return Err(format!("unknown trace level '{other}'")),
    };
    Ok((Arc::new(Tracer::new(level)), path))
}

/// Validate, serialize, and write a drained trace; prints a one-line
/// summary of what landed in the file.
fn write_trace(tracer: &Tracer, path: &str) -> Result<(), String> {
    let events = tracer.drain();
    let stats = pfmm_trace::chrome::validate(&events)
        .map_err(|e| format!("internal error: recorded trace is malformed: {e}"))?;
    std::fs::write(path, pfmm_trace::chrome::to_json_string(&events))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    println!(
        "trace: {} spans, {} flow arrows, {} instants -> {path}",
        stats.spans, stats.flows, stats.instants
    );
    Ok(())
}

/// Parsed `--metrics` / `--metrics-interval`: the export path and the
/// optional background-sampler cadence. `--metrics-interval` without
/// `--metrics` is rejected since the snapshots would have nowhere to go.
struct MetricsOpts {
    path: Option<String>,
    interval_ms: u64,
}

fn metrics_of(args: &Args) -> Result<MetricsOpts, String> {
    let path = args.get("metrics").map(str::to_string);
    let interval_ms: u64 = args.get_or("metrics-interval", 0)?;
    if interval_ms > 0 && path.is_none() {
        return Err("--metrics-interval needs --metrics <path>".into());
    }
    Ok(MetricsOpts { path, interval_ms })
}

impl MetricsOpts {
    /// Start the background sampler over the global registry when both
    /// a path and a nonzero interval were requested.
    fn spawn_sampler(&self) -> Option<Sampler> {
        if self.path.is_some() && self.interval_ms > 0 {
            Some(Sampler::spawn(
                Arc::clone(pfmm_metrics::global()),
                Duration::from_millis(self.interval_ms),
                1024,
            ))
        } else {
            None
        }
    }

    /// Export the global registry: Prometheus text at `path`, JSON at
    /// `path.json` (every sampled snapshot, then a final scan).
    fn write(&self, sampler: Option<Sampler>) -> Result<(), String> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let reg = pfmm_metrics::global();
        let last = reg.snapshot(pfmm_metrics::now_us());
        std::fs::write(path, pfmm_metrics::prometheus(&last))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        let mut json = String::from("{\"snapshots\":[");
        let mut sampled = 0usize;
        if let Some(s) = sampler {
            for snap in s.stop().all() {
                pfmm_metrics::push_json_snapshot(&mut json, &snap);
                json.push(',');
                sampled += 1;
            }
        }
        pfmm_metrics::push_json_snapshot(&mut json, &last);
        json.push_str("]}\n");
        let jpath = format!("{path}.json");
        std::fs::write(&jpath, json).map_err(|e| format!("cannot write {jpath}: {e}"))?;
        println!(
            "metrics: {} series ({} sampled snapshots) -> {path} (+ {jpath})",
            last.entries.len(),
            sampled,
        );
        Ok(())
    }
}

/// `--ranks`, rejecting a forced hypercube reduction the rank count
/// cannot run (Algorithm 3 needs a power-of-two communicator).
fn ranks_of(args: &Args, default: usize, cfg: &FmmConfig) -> Result<usize, String> {
    let ranks: usize = args.get_or("ranks", default)?;
    if cfg.reduction == Reduction::Hypercube && !ranks.is_power_of_two() {
        return Err(format!(
            "--reduction=hypercube needs a power-of-two --ranks, got {ranks}"
        ));
    }
    Ok(ranks)
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let kernel = kernel_of(args)?;
    let cfg = config_of(args)?;
    let ranks = ranks_of(args, 1, &cfg)?;
    let check: usize = args.get_or("check", 0)?;
    let (tracer, trace_path) = tracer_of(args)?;
    let metrics = metrics_of(args)?;
    let kd = kernel.source_dim();
    let td = kernel.target_dim();
    let pts = points_of(args, kd)?;
    let fmm = Fmm::new(kernel.clone(), cfg);
    println!("{}", run_header(pts.len(), &fmm, ranks));

    let sampler = metrics.spawn_sampler();
    let out = pfmm_mpisim::run(ranks, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(ranks).copied().collect();
        let res = fmm.evaluate_observed(c, mine, &tracer, pfmm_metrics::global());
        (
            res.profile.clone(),
            res.info,
            gather_potentials(c, &res, td),
            c.stats(),
        )
    });

    let profiles: Vec<_> = out.iter().map(|(p, _, _, _)| p.clone()).collect();
    let info = out[0].1;
    println!(
        "tree: {} leaves, levels {}..{}",
        info.global_leaves, info.min_leaf_level, info.max_leaf_level
    );
    println!("{}", ProfileSummary::from_ranks(&profiles).render());
    let total_flops: u64 = profiles.iter().map(|p| p.total_flops()).sum();
    println!("total flops: {:.3e}", total_flops as f64);

    if tracer.enabled(TraceLevel::Comm) {
        let stats: Vec<_> = out.iter().map(|(_, _, _, s)| s.clone()).collect();
        let matrix = pfmm_mpisim::CommMatrix::from_stats(&stats);
        println!("\ncomm matrix (bytes):\n{}", matrix.render());
    }
    if let Some(path) = &trace_path {
        write_trace(&tracer, path)?;
    }
    metrics.write(sampler)?;

    if check > 0 {
        let err = sampled_rel_error(kernel.as_ref(), &pts, &out[0].2, check);
        println!("sampled relative l2 error vs direct sum (stride {check}): {err:.3e}");
    }
    Ok(())
}

/// The first line `run` prints, with the evaluator's resolved `q`.
fn run_header(n: usize, fmm: &Fmm, ranks: usize) -> String {
    let cfg = fmm.config();
    format!(
        "run: {n} points, kernel {}, order {}, q {}, p {ranks}, threads {}",
        fmm.kernel().name(),
        cfg.order,
        cfg.q,
        cfg.threads
    )
}

fn cmd_tune(args: &Args) -> Result<(), String> {
    let kernel = kernel_of(args)?;
    let cfg = config_of(args)?;
    let pts = points_of(args, kernel.source_dim())?;
    let candidates: Vec<usize> = args
        .get("candidates")
        .unwrap_or("32,64,128,256,512")
        .split(',')
        .map(|s| s.trim().parse().map_err(|_| format!("bad candidate '{s}'")))
        .collect::<Result<_, _>>()?;
    let sample: usize = args.get_or("sample", pts.len() / 4)?;
    println!(
        "tune: {} candidates on a {}-point subsample ({} total)",
        candidates.len(),
        sample.min(pts.len()),
        pts.len()
    );
    let sweep = tune_sweep(
        |q| Fmm::new(kernel.clone(), FmmConfig { q, ..cfg }),
        &pts,
        &candidates,
        sample,
    );
    println!("{:>8} {:>12}", "q", "wall (s)");
    for t in &sweep {
        println!("{:>8} {:>12.4}", t.q, t.wall_secs);
    }
    let best = sweep
        .iter()
        .min_by(|a, b| a.wall_secs.partial_cmp(&b.wall_secs).expect("finite"))
        .expect("candidates nonempty");
    println!("best (measured): q = {}", best.q);
    println!(
        "model (--q=auto): q = {}",
        model_q(kernel.as_ref(), cfg.order)
    );
    Ok(())
}

fn cmd_gpu(args: &Args) -> Result<(), String> {
    let order: usize = args.get_or("order", 4)?;
    let q: usize = args.get_or("gpu-q", 400)?;
    let wx: bool = args.get_or("wx-on-gpu", false)?;
    let (_, trace_path) = tracer_of(args)?;
    let pts = points_of(args, 1)?;
    let dev = DeviceSpec::tesla_s1070();
    println!(
        "gpu: {} points on {} (order {order}, q {q}, W/X on GPU: {wx})",
        pts.len(),
        dev.name
    );
    let rep = if wx {
        run_gpu_fmm_wx(pts, q, order, &dev, true)
    } else {
        run_gpu_fmm(pts, q, order, &dev, true)
    };
    println!(
        "{:<14} {:>12} {:>12}",
        "phase", "GPU/CPU (s)", "CPU-only (s)"
    );
    for (i, ph) in GpuPhase::ALL.iter().enumerate() {
        println!(
            "{:<14} {:>12.4} {:>12.4}",
            ph.label(),
            rep.gpu_secs[i],
            rep.cpu2009_secs[i]
        );
    }
    println!("{:<14} {:>12.4}", "PCIe transfer", rep.transfer_secs);
    println!(
        "{:<14} {:>12.4} {:>12.4}",
        "total",
        rep.total_gpu(),
        rep.total_cpu2009()
    );
    println!("layout translation (host): {:.4}s", rep.translate_secs);
    println!("modeled speedup: {:.1}x", rep.speedup());
    println!("f32 pipeline error vs f64: {:.2e}", rep.rel_err_vs_f64);
    if let Some(path) = &trace_path {
        let events = rep.trace_events(0, 0.0);
        std::fs::write(path, pfmm_trace::chrome::to_json_string(&events))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("trace: modeled device timeline -> {path}");
    }
    let _ = Phase::ALL; // re-exported set used by `run`
    Ok(())
}

fn cmd_solve(args: &Args) -> Result<(), String> {
    use pfmm_core::solve::solve_second_kind;
    let kernel = kernel_of(args)?;
    if kernel.source_dim() != kernel.target_dim() {
        return Err("solve needs a square kernel (laplace/stokes/yukawa)".into());
    }
    let cfg = config_of(args)?;
    let ranks = ranks_of(args, 2, &cfg)?;
    let pts = points_of(args, kernel.source_dim())?;
    let n = pts.len();
    let scale: f64 = args.get_or("scale", 1.0 / n as f64)?;
    let tol: f64 = args.get_or("tol", 1e-10)?;
    println!(
        "solve: (I + {scale:.2e}·K)σ = b, kernel {}, {} points, p {ranks}",
        kernel.name(),
        n
    );
    let kd = kernel.source_dim();
    let fmm = Fmm::new(kernel, cfg);
    let outs = pfmm_mpisim::run(ranks, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(ranks).copied().collect();
        let mut plan = fmm.plan(c, mine);
        let b: Vec<f64> = plan
            .owned_gids()
            .iter()
            .flat_map(|g| (0..kd).map(move |d| 1.0 + ((*g as f64 + d as f64) * 0.013).sin()))
            .collect();
        match solve_second_kind(&fmm, c, &mut plan, &b, scale, tol, 200) {
            Ok((_, rep)) => (true, rep.matvecs, rep.final_residual()),
            Err(rep) => (false, rep.matvecs, rep.final_residual()),
        }
    });
    let (ok, matvecs, res) = outs[0];
    if ok {
        println!("converged in {matvecs} FMM applications, residual {res:.2e}");
        Ok(())
    } else {
        Err(format!(
            "GMRES stalled after {matvecs} applications at residual {res:.2e}"
        ))
    }
}

fn cmd_serve_sim(args: &Args) -> Result<(), String> {
    use pfmm_serve::{run_sim, Arrival, ObsConfig, ServiceConfig, SimConfig, WorkloadConfig};

    let kernel = kernel_of(args)?;
    let cfg = FmmConfig {
        order: args.get_or("order", 4)?,
        q: q_of(args, "60")?,
        ..Default::default()
    };
    let arrival = match args.get("arrival").unwrap_or("closed") {
        "closed" => Arrival::Closed {
            concurrency: args.get_or("concurrency", 4)?,
        },
        "open" => Arrival::Open {
            rate_per_s: args.get_or("rate", 200.0)?,
        },
        other => return Err(format!("unknown arrival mode '{other}'")),
    };
    let slo_budget: f64 = args.get_or("slo-budget", 0.01)?;
    if !(slo_budget > 0.0 && slo_budget <= 1.0) {
        return Err(format!("--slo-budget must be in (0, 1], got {slo_budget}"));
    }
    let exec_delay_us: u64 = args.get_or("exec-delay-us", 0)?;
    let flight_dir = args.get("flight-recorder").map(str::to_string);
    let metrics = metrics_of(args)?;
    let sim = SimConfig {
        workload: WorkloadConfig {
            seed: args.get_or("seed", 1)?,
            requests: args.get_or("requests", 64)?,
            n_points: args.get_or("n", 500)?,
            hot_geometries: args.get_or("hot-geoms", 3)?,
            cold_fraction: args.get_or("cold-frac", 0.15)?,
            arrival,
            deadline_us: args.get_or("deadline-us", 0)?,
            priority_levels: args.get_or("priorities", 3)?,
        },
        service: ServiceConfig {
            max_batch: args.get_or("max-batch", 8)?,
            max_linger_us: args.get_or("max-linger-us", 2_000)?,
            workers: args.get_or("workers", 2)?,
            shed_high_us: args.get_or("shed-high-us", 2_000_000)?,
            shed_low_us: args.get_or("shed-low-us", 1_000_000)?,
        },
        cache_budget_bytes: args.get_or("cache-mb", 256usize)? << 20,
        keep_potentials: false,
        obs: ObsConfig {
            registry: None, // the always-on global registry
            slo: Some(SloConfig {
                budget: slo_budget,
                ..SloConfig::default()
            }),
            flight: flight_dir.map(|dir| FlightConfig {
                dir: dir.into(),
                ..FlightConfig::default()
            }),
            exec_delay_us,
        },
    };
    let (tracer, trace_path) = tracer_of(args)?;
    println!(
        "serve-sim: {} requests over {} hot geometries ({} pts, kernel {}), \
         cache {} MiB, batch ≤{} / {} µs linger, {} workers",
        sim.workload.requests,
        sim.workload.hot_geometries,
        sim.workload.n_points,
        kernel.name(),
        sim.cache_budget_bytes >> 20,
        sim.service.max_batch,
        sim.service.max_linger_us,
        sim.service.workers,
    );
    let sampler = metrics.spawn_sampler();
    let name = kernel.name();
    let report = run_sim(Arc::new(Fmm::new(kernel, cfg)), name, sim, tracer.clone());

    println!("\n{}", report.summary());
    println!(
        "\n{:<14} {:>10} {:>10} {:>10} {:>10}",
        "span (µs)", "p50", "p95", "p99", "mean"
    );
    for (label, h) in [
        ("latency", &report.latency_us),
        ("queue-wait", &report.queue_wait_us),
        ("execute", &report.execute_us),
    ] {
        println!(
            "{:<14} {:>10.0} {:>10.0} {:>10.0} {:>10.0}",
            label,
            h.p50(),
            h.p95(),
            h.p99(),
            h.mean()
        );
    }
    let c = &report.cache;
    println!(
        "\ncache: {} hits / {} misses (rate {:.2}), {} evictions, {} resident plans, {:.1} MiB",
        c.hits,
        c.misses,
        c.hit_rate(),
        c.evictions,
        c.resident_plans,
        c.resident_bytes as f64 / (1 << 20) as f64
    );
    if !report.rejections.is_empty() {
        let parts: Vec<String> = report
            .rejections
            .iter()
            .map(|(r, n)| format!("{r}: {n}"))
            .collect();
        println!("rejections: {}", parts.join(", "));
    }
    if let Some(slo) = &report.slo {
        println!(
            "\nSLO: error budget {:.2}% of requests | {} violations / {} completed \
             (ratio {:.4}) | budget remaining {:.0}% | {}",
            slo.budget * 100.0,
            slo.violations,
            slo.total,
            slo.ratio,
            slo.budget_remaining * 100.0,
            if slo.healthy() { "healthy" } else { "BURNED" },
        );
        println!(
            "{:<12} {:>10} {:>12} {:>10}",
            "window (s)", "requests", "violations", "burn"
        );
        for w in &slo.windows {
            println!(
                "{:<12} {:>10} {:>12} {:>10.2}",
                w.window_us as f64 / 1e6,
                w.total,
                w.violations,
                w.burn
            );
        }
    }
    for d in &report.incident_dumps {
        println!("flight recorder: incident dump -> {}", d.display());
    }
    if let Some(path) = &trace_path {
        write_trace(&tracer, path)?;
    }
    metrics.write(sampler)?;
    if report.deadline_violations > 0 {
        // Under explicit fault injection the violations are the point
        // of the exercise (they arm the flight recorder); report them
        // without failing so the incident files can be inspected.
        if exec_delay_us > 0 {
            println!(
                "note: {} deadline violations under --exec-delay-us={exec_delay_us} fault injection",
                report.deadline_violations
            );
        } else {
            return Err(format!(
                "{} requests completed past their deadline",
                report.deadline_violations
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string())).expect("parses")
    }

    #[test]
    fn kernel_selection() {
        assert_eq!(
            kernel_of(&args(&["run"])).expect("default").name(),
            "laplace"
        );
        assert_eq!(
            kernel_of(&args(&["run", "--kernel", "yukawa"]))
                .expect("yukawa")
                .name(),
            "yukawa"
        );
        assert!(kernel_of(&args(&["run", "--kernel", "nope"])).is_err());
    }

    /// `--q` is `auto` unless given, and `run` prints the value the
    /// evaluator resolved it to; `--q=N` is a fixed choice; `--q=0` is
    /// an error that names `auto`.
    #[test]
    fn q_defaults_to_auto_and_zero_is_rejected() {
        for cmd in ["run", "tune", "solve"] {
            assert_eq!(config_of(&args(&[cmd])).expect("default").q, 0, "{cmd}");
            assert_eq!(config_of(&args(&[cmd, "--q=auto"])).expect("auto").q, 0);
            assert_eq!(config_of(&args(&[cmd, "--q", "77"])).expect("fixed").q, 77);
            assert!(config_of(&args(&[cmd, "--q=-3"])).is_err(), "{cmd}");
        }
        for cmd in ["run", "tune", "solve", "serve-sim"] {
            let err = dispatch([cmd, "--n=100", "--q=0"].iter().map(|s| s.to_string()))
                .expect_err("q = 0 rejected");
            assert!(err.contains("--q=auto"), "{cmd}: {err}");
        }
        let q = model_q(&Laplace, 4);
        let fmm = Fmm::new(
            Arc::new(Laplace),
            config_of(&args(&["run", "--order=4"])).expect("valid"),
        );
        assert_eq!(fmm.config().q, q);
        assert_eq!(
            run_header(10, &fmm, 2),
            format!("run: 10 points, kernel laplace, order 4, q {q}, p 2, threads 1")
        );
    }

    #[test]
    fn config_round_trips() {
        let cfg = config_of(&args(&[
            "run",
            "--order",
            "4",
            "--q",
            "33",
            "--m2l",
            "dense",
            "--sort",
            "bitonic",
            "--reduction",
            "naive",
            "--threads",
            "3",
            "--balance",
            "false",
        ]))
        .expect("valid");
        assert_eq!(cfg.order, 4);
        assert_eq!(cfg.q, 33);
        assert_eq!(cfg.m2l, M2lMode::Dense);
        assert_eq!(cfg.sort, SortKind::Bitonic);
        assert_eq!(cfg.reduction, Reduction::Naive);
        assert_eq!(cfg.threads, 3);
        assert!(!cfg.balance);
    }

    #[test]
    fn m2l_mode_selection() {
        assert_eq!(
            config_of(&args(&["run"])).expect("default").m2l,
            M2lMode::FftBatched
        );
        assert_eq!(
            config_of(&args(&["run", "--m2l", "fft-batched"]))
                .expect("batched")
                .m2l,
            M2lMode::FftBatched
        );
        assert_eq!(
            config_of(&args(&["run", "--m2l=dense"]))
                .expect("dense")
                .m2l,
            M2lMode::Dense
        );
        // `fft` named the retired per-edge spectral path.
        for bad in ["nope", "fft"] {
            assert!(config_of(&args(&["run", "--m2l", bad])).is_err(), "{bad}");
            assert!(dispatch(
                ["run", "--n=100", &format!("--m2l={bad}")]
                    .iter()
                    .map(|s| s.to_string())
            )
            .is_err());
        }
    }

    #[test]
    fn run_command_end_to_end() {
        // Small end-to-end exercise through the real dispatcher.
        dispatch(
            [
                "run", "--n", "1500", "--order", "4", "--q", "40", "--ranks", "2", "--check", "97",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("run succeeds");
    }

    /// Algorithm 3 panics on a non-power-of-two communicator; the CLI
    /// refuses the combination before any rank starts.
    #[test]
    fn forced_hypercube_needs_power_of_two_ranks() {
        for cmd in ["run", "solve"] {
            let err = dispatch(
                [cmd, "--n=200", "--ranks=3", "--reduction=hypercube"]
                    .iter()
                    .map(|s| s.to_string()),
            )
            .expect_err("hypercube on 3 ranks rejected");
            assert_eq!(
                err, "--reduction=hypercube needs a power-of-two --ranks, got 3",
                "{cmd}"
            );
        }
    }

    #[test]
    fn bad_distribution_is_an_error() {
        assert!(dispatch(["run", "--dist", "torus"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn solve_command_end_to_end() {
        dispatch(
            [
                "solve", "--n", "1200", "--order", "4", "--q", "40", "--ranks", "2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("solve succeeds");
    }

    #[test]
    fn plummer_distribution_accepted() {
        dispatch(
            [
                "run", "--n", "900", "--dist", "plummer", "--order", "4", "--q", "30",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("plummer run succeeds");
    }

    #[test]
    fn gpu_command_end_to_end() {
        dispatch(
            [
                "gpu",
                "--n",
                "1500",
                "--order",
                "4",
                "--gpu-q",
                "150",
                "--wx-on-gpu",
                "true",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("gpu succeeds");
    }

    #[test]
    fn tune_command_end_to_end() {
        dispatch(
            [
                "tune",
                "--n",
                "1500",
                "--order",
                "4",
                "--candidates",
                "20,200",
                "--sample",
                "700",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("tune succeeds");
    }

    #[test]
    fn unknown_flag_is_an_error() {
        assert!(dispatch(["run", "--frobnicate", "1"].iter().map(|s| s.to_string())).is_err());
        // Flags of the retired engine modes are unknown flags now.
        for retired in [
            "--translate=matvec",
            "--ulist=scalar",
            "--setup=serial",
            "--schedule=graph",
        ] {
            for cmd in ["run", "tune", "solve"] {
                let err = dispatch([cmd, "--n=100", retired].iter().map(|s| s.to_string()))
                    .expect_err("retired flag rejected");
                assert!(
                    err.starts_with("unknown option --"),
                    "{cmd} {retired}: {err}"
                );
            }
        }
    }

    #[test]
    fn misspelled_flag_gets_a_suggestion() {
        let err = dispatch(["run", "--reducton", "naive"].iter().map(|s| s.to_string()))
            .expect_err("misspelling rejected");
        assert!(
            err.contains("did you mean --reduction"),
            "suggestion missing: {err}"
        );
        let err = dispatch(["run", "--kernal=stokes"].iter().map(|s| s.to_string()))
            .expect_err("misspelling rejected");
        assert!(err.contains("did you mean --kernel"), "{err}");
    }

    #[test]
    fn other_commands_flag_is_rejected_with_a_pointer() {
        // Before per-command flag sets, `run --gpu-q` was silently
        // accepted and ignored; now it is an error naming the owner.
        let err = dispatch(["run", "--gpu-q", "150"].iter().map(|s| s.to_string()))
            .expect_err("wrong-command flag rejected");
        assert!(err.contains("'gpu' option"), "owner missing: {err}");
        let err = dispatch(["tune", "--check=5"].iter().map(|s| s.to_string()))
            .expect_err("wrong-command flag rejected");
        assert!(err.contains("'run' option"), "owner missing: {err}");
    }

    #[test]
    fn unknown_subcommand_lists_the_valid_ones() {
        let err = dispatch(["serve", "--n=10"].iter().map(|s| s.to_string()))
            .expect_err("unknown subcommand");
        assert!(err.contains("serve-sim"), "candidates missing: {err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("reduction", "reducton"), 1);
        assert_eq!(edit_distance("kernel", "kernal"), 1);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("q", "gpu-q"), 4);
    }

    #[test]
    fn serve_sim_end_to_end() {
        dispatch(
            [
                "serve-sim",
                "--requests=10",
                "--n=150",
                "--order=3",
                "--q=40",
                "--hot-geoms=2",
                "--cold-frac=0.2",
                "--concurrency=3",
                "--max-batch=4",
                "--max-linger-us=500",
                "--workers=2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("serve-sim succeeds");
    }

    #[test]
    fn serve_sim_writes_a_valid_lifecycle_trace() {
        let path = std::env::temp_dir().join("pfmm_serve_sim_trace_test.json");
        let path_s = path.to_str().expect("utf-8 temp path").to_string();
        dispatch(
            [
                "serve-sim",
                "--requests=6",
                "--n=120",
                "--order=3",
                "--q=40",
                "--trace",
                &path_s,
                "--trace-level=phase",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("traced serve-sim succeeds");
        let json = std::fs::read_to_string(&path).expect("trace file written");
        let events = pfmm_trace::chrome::parse(&json).expect("trace parses");
        let st = pfmm_trace::chrome::validate(&events).expect("trace is well-formed");
        // 6 requests × 3 lifecycle spans each.
        assert!(st.spans >= 18, "lifecycle spans recorded: {}", st.spans);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn trace_level_selection() {
        let (t, path) = tracer_of(&args(&["run"])).expect("default off");
        assert!(!t.enabled(TraceLevel::Phase));
        assert!(path.is_none());
        let (t, path) = tracer_of(&args(&["run", "--trace", "out.json"])).expect("default comm");
        assert!(t.enabled(TraceLevel::Comm));
        assert_eq!(path.as_deref(), Some("out.json"));
        let (t, _) = tracer_of(&args(&["run", "--trace=o.json", "--trace-level=phase"]))
            .expect("explicit phase");
        assert!(t.enabled(TraceLevel::Phase));
        assert!(!t.enabled(TraceLevel::Task));
        assert!(tracer_of(&args(&["run", "--trace-level=comm"])).is_err());
        assert!(tracer_of(&args(&["run", "--trace=o.json", "--trace-level=verbose"])).is_err());
    }

    #[test]
    fn run_command_writes_a_loadable_trace() {
        let path = std::env::temp_dir().join("pfmm_cli_trace_test.json");
        let path_s = path.to_str().expect("utf-8 temp path").to_string();
        dispatch(
            [
                "run",
                "--n=1500",
                "--order=4",
                "--q=40",
                "--ranks=2",
                "--trace",
                &path_s,
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("traced run succeeds");
        let json = std::fs::read_to_string(&path).expect("trace file written");
        let events = pfmm_trace::chrome::parse(&json).expect("trace parses");
        let st = pfmm_trace::chrome::validate(&events).expect("trace is well-formed");
        assert!(st.spans > 0, "spans recorded");
        assert!(st.flows > 0, "cross-rank flow arrows recorded");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn metrics_flag_selection() {
        let m = metrics_of(&args(&["run"])).expect("defaults");
        assert!(m.path.is_none());
        assert_eq!(m.interval_ms, 0);
        let m = metrics_of(&args(&["run", "--metrics=out.prom"])).expect("path only");
        assert_eq!(m.path.as_deref(), Some("out.prom"));
        let m = metrics_of(&args(&["run", "--metrics=o.prom", "--metrics-interval=5"]))
            .expect("path + interval");
        assert_eq!(m.interval_ms, 5);
        assert!(metrics_of(&args(&["run", "--metrics-interval=5"])).is_err());
    }

    #[test]
    fn serve_sim_writes_metrics_exports() {
        let path = std::env::temp_dir().join("pfmm_serve_sim_metrics_test.prom");
        let path_s = path.to_str().expect("utf-8 temp path").to_string();
        dispatch(
            [
                "serve-sim",
                "--requests=8",
                "--n=120",
                "--order=3",
                "--q=40",
                "--metrics",
                &path_s,
                "--metrics-interval=2",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("serve-sim with metrics succeeds");
        let prom = std::fs::read_to_string(&path).expect("prometheus file written");
        assert!(
            prom.contains("# TYPE pfmm_serve_offered_total counter"),
            "offered counter exported:\n{prom}"
        );
        assert!(
            prom.contains("pfmm_serve_latency_us{kernel=\"laplace\",quantile=\"0.99\"}"),
            "latency summary exported"
        );
        let jpath = format!("{path_s}.json");
        let json = std::fs::read_to_string(&jpath).expect("json file written");
        let v = pfmm_trace::json::parse(&json).expect("json export parses");
        let snaps = v
            .get("snapshots")
            .and_then(|s| s.as_arr())
            .expect("snapshots array");
        assert!(!snaps.is_empty(), "at least the final snapshot present");
        for s in snaps {
            assert!(s.get("entries").and_then(|e| e.as_arr()).is_some());
        }
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&jpath);
    }

    #[test]
    fn serve_sim_fault_injection_dumps_an_incident() {
        let dir = std::env::temp_dir().join("pfmm_cli_flight_test");
        let _ = std::fs::remove_dir_all(&dir);
        let dir_s = dir.to_str().expect("utf-8 temp path").to_string();
        // The deadline must clear the admission estimate (which cannot
        // see the injected delay) while the delay pushes every actual
        // completion past it: generous 800 ms deadline, 1 s injection.
        dispatch(
            [
                "serve-sim",
                "--requests=6",
                "--n=120",
                "--order=3",
                "--q=40",
                "--deadline-us=800000",
                "--exec-delay-us=1000000",
                &format!("--flight-recorder={dir_s}"),
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .expect("fault-injected serve-sim succeeds (violations non-fatal under injection)");
        let dumps: Vec<_> = std::fs::read_dir(&dir)
            .expect("incident dir created")
            .map(|e| e.expect("dir entry").path())
            .collect();
        assert_eq!(dumps.len(), 1, "exactly one incident dump: {dumps:?}");
        let json = std::fs::read_to_string(&dumps[0]).expect("dump readable");
        let events = pfmm_trace::chrome::parse(&json).expect("dump parses as a trace");
        pfmm_trace::chrome::validate(&events).expect("dump spans well-formed");
        let v = pfmm_trace::json::parse(&json).expect("dump parses as json");
        assert!(v.get("incident").is_some(), "incident member present");
        assert!(v.get("metrics").is_some(), "metrics snapshot present");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
