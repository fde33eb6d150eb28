//! Shared harness for the paper-reproduction benchmark binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure of the
//! paper's §V (see DESIGN.md for the experiment index); this library
//! provides the common machinery: distributed runs over `mpisim`,
//! per-phase summaries, model calibration, and table formatting.

use std::sync::Arc;

use pfmm_core::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm_core::driver::TreeInfo;
use pfmm_core::profile::Profile;
use pfmm_core::{Fmm, FmmConfig, Phase};
use pfmm_kernels::{Kernel, Laplace};
use pfmm_mpisim::{run, CommStats};
use pfmm_perfmodel::Sample;
use pfmm_tree::PointRec;

/// The paper's two particle distributions.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform random in the unit cube.
    Uniform,
    /// 1:1:4 ellipsoid surface with uniform angular spacing (nonuniform).
    Ellipsoid,
}

impl Distribution {
    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Uniform => "uniform",
            Distribution::Ellipsoid => "nonuniform",
        }
    }

    /// Generate `n` points with densities, deterministic in `seed`.
    pub fn generate(&self, n: usize, seed: u64, gid_base: u64, kdim: usize) -> Vec<PointRec> {
        let mut pts = match self {
            Distribution::Uniform => uniform_cube(n, seed, gid_base),
            Distribution::Ellipsoid => ellipsoid_1_1_4(n, seed, gid_base),
        };
        randomize_densities(&mut pts, kdim, seed ^ 0xABCD);
        pts
    }
}

/// Everything one distributed run produces, per rank.
pub struct RunSummary {
    /// Ranks used.
    pub p: usize,
    /// Global point count.
    pub n: usize,
    /// Per-rank phase profiles.
    pub profiles: Vec<Profile>,
    /// Per-rank reduce-and-scatter traffic.
    pub comm_reduce: Vec<CommStats>,
    /// Global tree shape.
    pub info: TreeInfo,
}

impl RunSummary {
    /// Maximum (over ranks) seconds of a phase.
    pub fn max_secs(&self, ph: Phase) -> f64 {
        self.profiles
            .iter()
            .map(|pr| pr.secs(ph))
            .fold(0.0, f64::max)
    }

    /// Average (over ranks) seconds of a phase.
    pub fn avg_secs(&self, ph: Phase) -> f64 {
        self.profiles.iter().map(|pr| pr.secs(ph)).sum::<f64>() / self.p as f64
    }

    /// Maximum total evaluation seconds (the paper's black dot).
    pub fn max_eval(&self) -> f64 {
        self.profiles
            .iter()
            .map(|pr| pr.total_secs)
            .fold(0.0, f64::max)
    }

    /// Maximum setup seconds.
    pub fn max_setup(&self) -> f64 {
        self.profiles
            .iter()
            .map(|pr| pr.setup_secs)
            .fold(0.0, f64::max)
    }

    /// Maximum sort seconds.
    pub fn max_sort(&self) -> f64 {
        self.profiles
            .iter()
            .map(|pr| pr.sort_secs)
            .fold(0.0, f64::max)
    }

    /// Per-rank total flops.
    pub fn rank_flops(&self) -> Vec<u64> {
        self.profiles.iter().map(|pr| pr.total_flops()).collect()
    }

    /// Busiest rank's reduce-and-scatter sent bytes.
    pub fn max_comm_bytes(&self) -> u64 {
        self.comm_reduce
            .iter()
            .map(|c| c.sent_bytes)
            .max()
            .unwrap_or(0)
    }

    /// Busiest rank's reduce-and-scatter message count.
    pub fn max_comm_msgs(&self) -> u64 {
        self.comm_reduce
            .iter()
            .map(|c| c.sent_msgs)
            .max()
            .unwrap_or(0)
    }

    /// Convert to a calibration sample for the scaling model.
    pub fn to_sample(&self) -> Sample {
        Sample {
            n: self.n as f64,
            p: self.p as f64,
            sort_secs: self.max_sort(),
            setup_rest_secs: (self.max_setup() - self.max_sort()).max(0.0),
            eval_secs: self
                .profiles
                .iter()
                .map(|pr| pr.comp_secs())
                .fold(0.0, f64::max),
            comm_bytes: self.max_comm_bytes() as f64,
        }
    }
}

/// Run one distributed FMM evaluation: `n_total` points of `dist` spread
/// evenly over `p` ranks.
pub fn run_case(
    kernel: Arc<dyn Kernel>,
    cfg: FmmConfig,
    dist: Distribution,
    n_total: usize,
    p: usize,
    seed: u64,
) -> RunSummary {
    run_case_traced(
        kernel,
        cfg,
        dist,
        n_total,
        p,
        seed,
        &Arc::new(pfmm_trace::Tracer::off()),
    )
}

/// [`run_case`] with a shared tracer attached to every simulated rank;
/// drain the tracer afterwards for the recorded spans/flows.
#[allow(clippy::too_many_arguments)]
pub fn run_case_traced(
    kernel: Arc<dyn Kernel>,
    cfg: FmmConfig,
    dist: Distribution,
    n_total: usize,
    p: usize,
    seed: u64,
    tracer: &Arc<pfmm_trace::Tracer>,
) -> RunSummary {
    let kdim = kernel.source_dim();
    let fmm = Fmm::new(kernel, cfg);
    let per = n_total / p;
    let out = run(p, |c| {
        let pts = dist.generate(per, seed + c.rank() as u64, (c.rank() * per) as u64, kdim);
        let res = fmm.evaluate_observed(c, pts, tracer, pfmm_metrics::global());
        (res.profile.clone(), res.comm_reduce, res.info)
    });
    let info = out[0].2;
    RunSummary {
        p,
        n: per * p,
        profiles: out.iter().map(|(pr, _, _)| pr.clone()).collect(),
        comm_reduce: out.iter().map(|(_, cr, _)| cr.clone()).collect(),
        info,
    }
}

/// [`run_case`] honoring `PFMM_BENCH_WARMUP` / `PFMM_BENCH_REPS`:
/// `bench_warmup(0)` unmeasured passes, then the best (smallest
/// `max_eval`) of `bench_reps(default_reps)` measured ones. The
/// table/figure and ablation bins route their measurements through
/// this so one environment knob controls every binary's rep count.
pub fn run_case_best(
    kernel: Arc<dyn Kernel>,
    cfg: FmmConfig,
    dist: Distribution,
    n_total: usize,
    p: usize,
    seed: u64,
    default_reps: usize,
) -> RunSummary {
    for _ in 0..bench_warmup(0) {
        run_case(kernel.clone(), cfg, dist, n_total, p, seed);
    }
    let mut best: Option<RunSummary> = None;
    for _ in 0..bench_reps(default_reps).max(1) {
        let s = run_case(kernel.clone(), cfg, dist, n_total, p, seed);
        if best.as_ref().is_none_or(|b| s.max_eval() < b.max_eval()) {
            best = Some(s);
        }
    }
    best.expect("reps >= 1")
}

/// Per-apply evaluation wall times through a single cached plan
/// (Laplace, uniform cube, one rank). `pooled` reuses the plan-owned
/// [`pfmm_core::EvalWorkspace`] — the zero-allocation steady state;
/// otherwise every timed apply builds and drops a fresh workspace,
/// reproducing the allocate-per-apply behavior a solver loop used to
/// pay. Shared by `ablation_workspace` and the `bench_check` sentinel
/// so both gate the same measurement.
pub fn workspace_apply_secs(
    cfg: FmmConfig,
    n: usize,
    seed: u64,
    warmup: usize,
    applies: usize,
    pooled: bool,
) -> Vec<f64> {
    let f = Fmm::new(Arc::new(Laplace), cfg);
    let pts = Distribution::Uniform.generate(n, seed, 0, 1);
    run(1, |c| {
        let mut plan = f.plan(c, pts.clone());
        let den = vec![0.5f64; plan.num_owned()];
        let mut out = Vec::new();
        // Warm-up always runs pooled: it settles the operator caches and
        // (in pooled mode) every workspace capacity.
        for _ in 0..warmup {
            f.apply_into(c, &mut plan, &den, &mut out);
        }
        (0..applies)
            .map(|_| {
                let t = std::time::Instant::now();
                if pooled {
                    f.apply_into(c, &mut plan, &den, &mut out);
                } else {
                    let mut ws = f.workspace(&plan);
                    f.apply_ws(c, &mut plan, &mut ws, &den, &mut out);
                }
                t.elapsed().as_secs_f64()
            })
            .collect()
    })
    .pop()
    .expect("one rank")
}

/// Repetitions for a measured benchmark: the binary's default, unless
/// the `PFMM_BENCH_REPS` environment variable overrides it (CI smoke
/// runs set 1; precision runs raise it).
///
/// # Panics
/// Panics when the variable is set but not a positive integer — a
/// silently ignored typo would invalidate the numbers.
pub fn bench_reps(default: usize) -> usize {
    env_count("PFMM_BENCH_REPS", default)
}

/// Warm-up passes before measurement, overridable via
/// `PFMM_BENCH_WARMUP` (same contract as [`bench_reps`]; 0 is allowed).
pub fn bench_warmup(default: usize) -> usize {
    match std::env::var("PFMM_BENCH_WARMUP") {
        Err(_) => default,
        Ok(v) => v
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("PFMM_BENCH_WARMUP must be an integer, got '{v}'")),
    }
}

fn env_count(var: &str, default: usize) -> usize {
    match std::env::var(var) {
        Err(_) => default,
        Ok(v) => {
            let n: usize = v
                .trim()
                .parse()
                .unwrap_or_else(|_| panic!("{var} must be a positive integer, got '{v}'"));
            assert!(n >= 1, "{var} must be at least 1, got {n}");
            n
        }
    }
}

/// Rank counts to exercise (powers of two up to `max`). `mpisim` ranks
/// are threads, so any count runs on any host; on an oversubscribed host
/// the *wall* clocks time-share, which is why the harness reports modeled
/// per-rank times from the exact flop/byte counters (see
/// [`modeled_rank_secs`]).
pub fn rank_series(max: usize) -> Vec<usize> {
    let mut v = Vec::new();
    let mut p = 1;
    while p <= max {
        v.push(p);
        p *= 2;
    }
    v
}

/// Per-rank, per-phase modeled seconds at the paper's 2009 rates: compute
/// phases at the paper's sustained 500 Mflop/s per core (§VI), the Comm
/// phase from this rank's *measured* reduce-and-scatter bytes at
/// Kraken-like latency/bandwidth.
///
/// Every input is an exact counter from the real run — only the
/// *throughputs* are modeled — so load imbalance, list sizes, and the
/// √p communication growth all come from the actual algorithm execution.
pub fn modeled_rank_secs(prof: &Profile, comm: &CommStats, p: usize) -> [f64; 7] {
    const CPU09: f64 = 0.5e9;
    let machine = pfmm_perfmodel::MachineParams::kraken();
    let mut out = [0.0f64; 7];
    for ph in Phase::ALL {
        out[ph as usize] = match ph {
            Phase::Comm => {
                machine.ts * (p as f64).log2().max(0.0) + machine.tw * comm.sent_bytes as f64
            }
            _ => prof.flops(ph) as f64 / CPU09,
        };
    }
    out
}

/// (max over ranks, avg over ranks) of summed modeled phase times.
pub fn modeled_eval_secs(s: &RunSummary) -> (f64, f64) {
    let totals: Vec<f64> = s
        .profiles
        .iter()
        .zip(&s.comm_reduce)
        .map(|(pr, cr)| modeled_rank_secs(pr, cr, s.p).iter().sum())
        .collect();
    let max = totals.iter().copied().fold(0.0, f64::max);
    let avg = totals.iter().sum::<f64>() / totals.len() as f64;
    (max, avg)
}

/// A fixed-width table printer for the harness binaries.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(header: &[&str]) -> Table {
        Table {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "table row width");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut w = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            w[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                w[i] = w[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], w: &[usize]| -> String {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>width$}", c, width = w[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &w));
        out.push('\n');
        out.push_str(&"-".repeat(w.iter().sum::<usize>() + 2 * (ncol - 1)));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&fmt_row(r, &w));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_kernels::Laplace;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["p", "time"]);
        t.row(vec!["1".into(), "1.23".into()]);
        t.row(vec!["128".into(), "0.5".into()]);
        let s = t.render();
        assert!(s.contains("  1"));
        assert!(s.contains("128"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    fn rank_series_is_powers_of_two() {
        let v = rank_series(64);
        assert_eq!(v[0], 1);
        for w in v.windows(2) {
            assert_eq!(w[1], w[0] * 2);
        }
    }

    #[test]
    fn run_case_produces_profiles() {
        let cfg = FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        };
        let s = run_case(Arc::new(Laplace), cfg, Distribution::Uniform, 2000, 2, 7);
        assert_eq!(s.p, 2);
        assert_eq!(s.profiles.len(), 2);
        assert!(s.max_eval() > 0.0);
        assert!(s.info.global_leaves > 1);
        let sample = s.to_sample();
        assert!(sample.eval_secs > 0.0);
    }

    #[test]
    fn bench_counts_honor_env_overrides() {
        // One test covers both variables so the env mutations cannot
        // race each other under the parallel test runner.
        assert_eq!(bench_reps(3), 3, "unset: default");
        assert_eq!(bench_warmup(1), 1, "unset: default");
        std::env::set_var("PFMM_BENCH_REPS", "7");
        std::env::set_var("PFMM_BENCH_WARMUP", "0");
        assert_eq!(bench_reps(3), 7, "override wins");
        assert_eq!(bench_warmup(1), 0, "warmup may be zero");
        std::env::remove_var("PFMM_BENCH_REPS");
        std::env::remove_var("PFMM_BENCH_WARMUP");
    }

    #[test]
    fn distributions_generate_requested_counts() {
        for d in [Distribution::Uniform, Distribution::Ellipsoid] {
            let pts = d.generate(100, 3, 50, 3);
            assert_eq!(pts.len(), 100);
            assert_eq!(pts[0].gid, 50);
            assert!(pts.iter().any(|p| p.den[2] != 0.0), "vector densities set");
        }
    }
}
