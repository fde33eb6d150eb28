//! Micro-benchmarks of the tree substrate: distributed sorts, LET
//! construction, list building, and a small GMRES solve.

use criterion::{criterion_group, criterion_main, Criterion};
use pfmm_core::distrib::{randomize_densities, uniform_cube};
use pfmm_core::solve::gmres;
use pfmm_mpisim::run;
use pfmm_tree::{
    bitonic_sort_points, build_let, build_lists, points_to_octree, sample_sort_points,
};
use std::hint::black_box;

fn bench_tree(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree");
    g.sample_size(10);

    let mut pts = uniform_cube(50_000, 3, 0);
    randomize_densities(&mut pts, 1, 4);

    g.bench_function("sample_sort_50k_p4", |b| {
        b.iter(|| {
            run(4, |comm| {
                let mine: Vec<_> = pts.iter().skip(comm.rank()).step_by(4).copied().collect();
                black_box(sample_sort_points(comm, mine).0.len())
            })
        })
    });

    g.bench_function("bitonic_sort_50k_p4", |b| {
        b.iter(|| {
            run(4, |comm| {
                let mine: Vec<_> = pts.iter().skip(comm.rank()).step_by(4).copied().collect();
                black_box(bitonic_sort_points(comm, mine).0.len())
            })
        })
    });

    g.bench_function("tree_let_lists_50k_seq", |b| {
        b.iter(|| {
            run(1, |comm| {
                let t = points_to_octree(comm, pts.clone(), 100);
                let l = build_let(comm, &t);
                let lists = build_lists(&l);
                black_box(lists.u.total())
            })
        })
    });

    g.bench_function("gmres_identity_64", |b| {
        let rhs: Vec<f64> = (0..64).map(|i| (i as f64 * 0.1).sin()).collect();
        b.iter(|| {
            black_box(
                gmres(|v| v.to_vec(), &rhs, 1e-12, 4)
                    .expect("one step")
                    .1
                    .matvecs,
            )
        })
    });

    g.finish();
}

criterion_group!(benches, bench_tree);
criterion_main!(benches);
