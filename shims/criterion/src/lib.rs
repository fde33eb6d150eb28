//! Offline stand-in for `criterion`: the harness subset pfmm's benches
//! use (`benchmark_group`, `throughput`, `bench_function`, `iter`,
//! `iter_batched`, `criterion_group!`/`criterion_main!`).
//!
//! The build environment has no crates.io access. Like the real crate,
//! the harness distinguishes `cargo bench` from `cargo test`: cargo
//! passes `--bench` to bench binaries only under `cargo bench`, so
//! without it every benchmark body runs exactly once as a smoke test.
//! Under `cargo bench` each benchmark is warmed once and then sampled
//! `sample_size` times; min/mean/max wall-clock are printed per sample,
//! and with a [`Throughput`] set, the minimum time per element too.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup (accepted for API compatibility;
/// the shim always runs one setup per timed invocation).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// Work done by one iteration of a benchmark, for a per-element time.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level harness state.
pub struct Criterion {
    default_sample_size: usize,
    bench_mode: bool,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            default_sample_size: 10,
            bench_mode: std::env::args().any(|a| a == "--bench"),
        }
    }
}

impl Criterion {
    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: self.default_sample_size,
            bench_mode: self.bench_mode,
            throughput: None,
            _c: self,
        }
    }

    /// Run a single benchmark outside any group.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<String>,
        F: FnMut(&mut Bencher),
    {
        let mode = self.bench_mode;
        let n = self.default_sample_size;
        run_one("", &id.into(), n, mode, None, f);
        self
    }
}

/// A named set of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    bench_mode: bool,
    throughput: Option<Throughput>,
    _c: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Set the work per iteration of the benchmarks defined after it.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Define and immediately run one benchmark.
    pub fn bench_function<I, F>(&mut self, id: I, f: F) -> &mut Self
    where
        I: Into<String>,
        F: FnMut(&mut Bencher),
    {
        run_one(
            &self.name,
            &id.into(),
            self.sample_size,
            self.bench_mode,
            self.throughput,
            f,
        );
        self
    }

    /// End the group (no-op; exists for API compatibility).
    pub fn finish(self) {}
}

fn run_one<F: FnMut(&mut Bencher)>(
    group: &str,
    id: &str,
    samples: usize,
    bench_mode: bool,
    throughput: Option<Throughput>,
    mut f: F,
) {
    let label = if group.is_empty() {
        id.to_string()
    } else {
        format!("{group}/{id}")
    };
    let mut b = Bencher {
        samples: if bench_mode { samples } else { 1 },
        warmup: bench_mode,
        times: Vec::new(),
    };
    f(&mut b);
    if !bench_mode {
        println!("bench {label}: ok (smoke, 1 iteration)");
        return;
    }
    let n = b.times.len().max(1) as f64;
    let mean = b.times.iter().sum::<Duration>().as_secs_f64() / n;
    let min = b
        .times
        .iter()
        .min()
        .copied()
        .unwrap_or_default()
        .as_secs_f64();
    let max = b
        .times
        .iter()
        .max()
        .copied()
        .unwrap_or_default()
        .as_secs_f64();
    let per = match throughput {
        Some(Throughput::Elements(n)) => format!("  {:.4e}s/elem", min / n.max(1) as f64),
        None => String::new(),
    };
    println!(
        "bench {label}: min {:.4e}s  mean {:.4e}s  max {:.4e}s  ({} samples){per}",
        min,
        mean,
        max,
        b.times.len()
    );
}

/// Passed to each benchmark closure; times the routine it is given.
pub struct Bencher {
    samples: usize,
    warmup: bool,
    times: Vec<Duration>,
}

impl Bencher {
    /// Time `routine` `sample_size` times (once in test mode).
    pub fn iter<R>(&mut self, mut routine: impl FnMut() -> R) {
        if self.warmup {
            black_box(routine());
        }
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(routine());
            self.times.push(t0.elapsed());
        }
    }

    /// Time `routine` on fresh inputs from `setup` (setup not timed).
    pub fn iter_batched<S, R>(
        &mut self,
        mut setup: impl FnMut() -> S,
        mut routine: impl FnMut(S) -> R,
        _size: BatchSize,
    ) {
        if self.warmup {
            black_box(routine(setup()));
        }
        for _ in 0..self.samples {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            self.times.push(t0.elapsed());
        }
    }
}

/// Bundle benchmark functions into a runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Generate `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_mode_runs_once() {
        let mut count = 0;
        let mut b = Bencher {
            samples: 1,
            warmup: false,
            times: Vec::new(),
        };
        b.iter(|| count += 1);
        assert_eq!(count, 1);
    }

    #[test]
    fn batched_setup_per_sample() {
        let mut setups = 0;
        let mut b = Bencher {
            samples: 3,
            warmup: false,
            times: Vec::new(),
        };
        b.iter_batched(
            || {
                setups += 1;
                vec![1u8; 4]
            },
            |v| v.len(),
            BatchSize::SmallInput,
        );
        assert_eq!(setups, 3);
        assert_eq!(b.times.len(), 3);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion {
            default_sample_size: 2,
            bench_mode: false,
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(2)
            .throughput(Throughput::Elements(2))
            .bench_function("noop", |b| b.iter(|| 1 + 1));
        g.finish();
    }
}
