//! End-to-end pipeline benchmarks: full FMM evaluations (setup +
//! evaluation) at fixed sizes, sequential and distributed, plus the
//! direct-sum baseline that motivates the whole method.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use pfmm_core::distrib::{randomize_densities, uniform_cube};
use pfmm_core::{Fmm, FmmConfig};
use pfmm_kernels::{direct_eval, Laplace};
use pfmm_mpisim::run;
use std::hint::black_box;

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);

    let n = 10_000;
    let mut pts = uniform_cube(n, 9, 0);
    randomize_densities(&mut pts, 1, 10);

    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 60,
            ..Default::default()
        },
    );
    // Warm the operator caches so the benchmark measures evaluation, not
    // one-time setup.
    run(1, |comm| fmm.evaluate(comm, pts.clone()).gids.len());

    g.bench_function("fmm_laplace_10k_seq", |b| {
        b.iter(|| {
            run(1, |comm| {
                black_box(fmm.evaluate(comm, pts.clone())).gids.len()
            })
        })
    });

    g.bench_function("fmm_laplace_10k_p4", |b| {
        b.iter(|| {
            run(4, |comm| {
                let mine: Vec<_> = pts.iter().skip(comm.rank()).step_by(4).copied().collect();
                black_box(fmm.evaluate(comm, mine)).gids.len()
            })
        })
    });

    // The O(N²) baseline the FMM replaces (at a smaller N so the
    // benchmark stays sane; the asymptotic gap is the point).
    let small = &pts[..2000];
    let pos: Vec<[f64; 3]> = small.iter().map(|p| p.pos).collect();
    let den: Vec<f64> = small.iter().map(|p| p.den[0]).collect();
    g.bench_function("direct_sum_2k", |b| {
        b.iter(|| {
            let mut out = vec![0.0; pos.len()];
            direct_eval(
                &Laplace,
                black_box(&pos),
                black_box(&pos),
                black_box(&den),
                &mut out,
            );
            black_box(out)
        })
    });

    g.finish();
}

criterion_group!(benches, bench_pipeline);
criterion_main!(benches);
