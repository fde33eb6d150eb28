//! Near-field (U-list) throughput per pair: one thread of
//! `NearField::eval_range` over every target box of a one-rank tree, at
//! the cost model's q, on the two benchmark geometries — 100k uniform
//! Laplace points (order 6) and 50k Stokes points on the 1:1:4
//! ellipsoid (order 4, small W/X pairs demoted to direct rows as the
//! plan does). The throughput is the real (unpadded) pair count, so the
//! harness prints seconds per pair.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfmm_core::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm_core::exec::EvalData;
use pfmm_core::surface::surface_points;
use pfmm_core::tune::model_q;
use pfmm_core::NearField;
use pfmm_kernels::{Kernel, Laplace, Stokes};
use pfmm_mpisim::run;
use pfmm_tree::{build_let, build_lists, points_to_octree, PointRec, SetupPar};
use std::hint::black_box;

fn bench_case(
    c: &mut Criterion,
    name: &str,
    kernel: &dyn Kernel,
    pts: Vec<PointRec>,
    order: usize,
) {
    let q = model_q(kernel, order);
    let n_surf = surface_points(order, &[0.0; 3], 1.0, 1.0).len();
    let (l, lists) = run(1, |comm| {
        let t = points_to_octree(comm, pts.clone(), q);
        let l = build_let(comm, &t);
        let mut lists = build_lists(&l);
        lists.demote_small_wx(&l, n_surf);
        (l, lists)
    })
    .pop()
    .expect("one rank");
    let (sd, td) = (kernel.source_dim(), kernel.target_dim());
    let data = EvalData::new_with(&l, sd, SetupPar::Serial);
    let nf = NearField::build(&l, &lists, &data.leaf_pos, &data.leaf_den, sd);
    let tk = kernel.as_tile_kernel().expect("built-in kernel");
    let mut out = vec![0.0f64; l.pts.len() * td];

    let mut g = c.benchmark_group("nearfield");
    g.sample_size(10)
        .throughput(Throughput::Elements(nf.real_pairs));
    g.bench_function(format!("{name}_q{q}"), |b| {
        b.iter(|| {
            black_box(nf.eval_range(tk, td, kernel.flops_per_pair(), 0..l.len(), &mut out, 0))
        })
    });
    g.finish();
}

fn bench_nearfield(c: &mut Criterion) {
    let mut pts = uniform_cube(100_000, 1, 0);
    randomize_densities(&mut pts, 1, 2);
    bench_case(c, "laplace_uniform_100k_p6", &Laplace, pts, 6);

    let mut pts = ellipsoid_1_1_4(50_000, 3, 0);
    randomize_densities(&mut pts, 3, 4);
    bench_case(c, "stokes_ellipsoid_50k_p4", &Stokes::default(), pts, 4);
}

criterion_group!(benches, bench_nearfield);
criterion_main!(benches);
