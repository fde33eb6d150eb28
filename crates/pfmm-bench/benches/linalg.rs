//! Micro-benchmarks of the dense-algebra substrate: the matvec sizes of
//! the KIFMM translations and the setup-time SVD/pseudo-inverse.

use criterion::{criterion_group, criterion_main, Criterion};
use pfmm_core::ops::{Ops, PINV_REL_TOL};
use pfmm_kernels::{assemble, Kernel, Laplace, Stokes};
use pfmm_linalg::{pinv, Matrix, Svd};
use std::hint::black_box;
use std::sync::Arc;

fn test_matrix(n: usize, m: usize) -> Matrix {
    Matrix::from_fn(n, m, |i, j| {
        ((i * 31 + j * 17) % 23) as f64 / 23.0 - 0.5 + if i == j { 2.0 } else { 0.0 }
    })
}

/// The root octant's upward check matrix `K(up check, up equivalent)`:
/// the matrix `Ops::uc2e` inverts. Its Jacobi SVD takes 20–34 sweeps,
/// where the diagonally dominant `test_matrix` converges in a few.
fn check_matrix(kernel: Arc<dyn Kernel>, order: usize) -> Matrix {
    let ops = Ops::new(kernel.clone(), order);
    let c = [0.0; 3];
    assemble(
        kernel.as_ref(),
        &ops.up_check_surface(&c, 0.5),
        &ops.up_equiv_surface(&c, 0.5),
    )
}

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");

    // Matvec at the surface sizes: order 4 → 56, order 6 → 152 (×3 for
    // Stokes).
    for n in [56usize, 152, 456] {
        let m = test_matrix(n, n);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.3).sin()).collect();
        let mut y = vec![0.0; n];
        g.bench_function(format!("matvec_{n}"), |b| {
            b.iter(|| {
                m.matvec_acc_scaled(black_box(&x), black_box(&mut y), 1.0);
            })
        });
    }

    g.bench_function("matmul_152", |b| {
        let a = test_matrix(152, 152);
        let m = test_matrix(152, 152);
        b.iter(|| black_box(a.matmul(&m)))
    });

    // Setup-time operators (amortized over the run, but worth tracking).
    g.sample_size(10);
    for n in [56usize, 152] {
        let m = test_matrix(n, n);
        g.bench_function(format!("jacobi_svd_{n}"), |b| {
            b.iter(|| black_box(Svd::new(&m)))
        });
        g.bench_function(format!("pinv_{n}"), |b| {
            b.iter(|| black_box(pinv(&m, 1e-12)))
        });
    }

    // The pseudo-inverses the FMM actually solves (one per base level at
    // cold start): Laplace order 6 (152²), Stokes order 4 (168²),
    // Laplace order 8 (296²).
    let cases: [(&str, Arc<dyn Kernel>, usize); 3] = [
        ("laplace_p6", Arc::new(Laplace), 6),
        ("stokes_p4", Arc::new(Stokes::default()), 4),
        ("laplace_p8", Arc::new(Laplace), 8),
    ];
    for (name, kernel, order) in cases {
        let k = check_matrix(kernel, order);
        g.bench_function(format!("pinv_check_{name}_{}", k.rows()), |b| {
            b.iter(|| black_box(pinv(&k, PINV_REL_TOL)))
        });
    }

    g.finish();
}

criterion_group!(benches, bench_linalg);
criterion_main!(benches);
