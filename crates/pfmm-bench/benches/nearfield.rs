//! Near-field (U-list) throughput per pair: `NearField::eval` (own rows,
//! colored mutual pairs, mirror fold) over every target box of a
//! one-rank tree at 1 and 2 threads, at the cost model's q, on the two
//! benchmark geometries — 100k uniform Laplace points (order 6) and 50k
//! Stokes points on the 1:1:4 ellipsoid (order 4, small W/X pairs
//! demoted to direct rows as the plan does) — plus Yukawa on the uniform
//! set, whose libm `exp` the mutual body calls once per pair. The
//! throughput is the delivered one-way real (unpadded) pair count, so the
//! harness prints seconds per delivered pair.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use pfmm_core::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm_core::exec::EvalData;
use pfmm_core::surface::surface_points;
use pfmm_core::tune::model_q;
use pfmm_core::NearField;
use pfmm_kernels::{Kernel, Laplace, Stokes, Yukawa};
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
    for threads in [1, 2] {
        let mut sw = nf.sweep(threads, td);
        g.bench_function(format!("{name}_q{q}_t{threads}"), |b| {
            b.iter(|| black_box(nf.eval(tk, &mut sw, &mut out, &|part| part())))
        });
    }
    g.finish();
}

fn bench_nearfield(c: &mut Criterion) {
    let mut pts = uniform_cube(100_000, 1, 0);
    randomize_densities(&mut pts, 1, 2);
    bench_case(c, "laplace_uniform_100k_p6", &Laplace, pts.clone(), 6);
    bench_case(c, "yukawa_uniform_100k_p6", &Yukawa { lambda: 3.0 }, pts, 6);

    let mut pts = ellipsoid_1_1_4(50_000, 3, 0);
    randomize_densities(&mut pts, 3, 4);
    bench_case(c, "stokes_ellipsoid_50k_p4", &Stokes::default(), pts, 4);
}

criterion_group!(benches, bench_nearfield);
criterion_main!(benches);
