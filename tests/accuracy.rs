//! Cross-crate accuracy tests: the full FMM pipeline against the exact
//! direct sum, across kernels, distributions, orders, and M2L modes.

use std::sync::Arc;

use pfmm::fmm::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm::fmm::driver::gather_potentials;
use pfmm::fmm::{Fmm, FmmConfig, M2lMode};
use pfmm::kernels::{direct_eval, Kernel, Laplace, Stokes};
use pfmm::mpisim;
use pfmm::tree::PointRec;

fn fmm_rel_error(kernel: Arc<dyn Kernel>, cfg: FmmConfig, pts: &[PointRec]) -> f64 {
    let td = kernel.target_dim();
    let sd = kernel.source_dim();
    let k2 = kernel.clone();
    let fmm = Fmm::new(kernel, cfg);
    let pts_owned = pts.to_vec();
    let gathered = mpisim::run(1, move |c| {
        let res = fmm.evaluate(c, pts_owned.clone());
        gather_potentials(c, &res, td)
    })
    .pop()
    .expect("one rank");

    let pos: Vec<[f64; 3]> = pts.iter().map(|p| p.pos).collect();
    let mut den = Vec::with_capacity(pts.len() * sd);
    for p in pts {
        den.extend_from_slice(&p.den[..sd]);
    }
    let mut want = vec![0.0; pts.len() * td];
    direct_eval(k2.as_ref(), &pos, &pos, &den, &mut want);

    let idx: std::collections::HashMap<u64, usize> =
        pts.iter().enumerate().map(|(i, p)| (p.gid, i)).collect();
    let mut num = 0.0f64;
    let mut dnm = 0.0f64;
    assert_eq!(gathered.len(), pts.len());
    for (gid, got) in gathered {
        let i = idx[&gid];
        for t in 0..td {
            num += (got[t] - want[i * td + t]).powi(2);
            dnm += want[i * td + t].powi(2);
        }
    }
    (num / dnm).sqrt()
}

#[test]
fn laplace_error_decreases_with_order() {
    let mut pts = uniform_cube(2500, 101, 0);
    randomize_densities(&mut pts, 1, 5);
    let mut errs = Vec::new();
    for order in [2usize, 4, 6] {
        let cfg = FmmConfig {
            order,
            q: 40,
            ..Default::default()
        };
        errs.push(fmm_rel_error(Arc::new(Laplace), cfg, &pts));
    }
    assert!(errs[0] < 0.2, "order 2 is crude but bounded: {errs:?}");
    assert!(errs[1] < 1e-3, "order 4 gives ~3 digits: {errs:?}");
    assert!(errs[2] < 1e-5, "order 6 gives ~5 digits: {errs:?}");
    assert!(
        errs[2] < errs[1] && errs[1] < errs[0],
        "monotone convergence: {errs:?}"
    );
}

#[test]
fn laplace_nonuniform_tree_accuracy() {
    let mut pts = ellipsoid_1_1_4(2000, 103, 0);
    randomize_densities(&mut pts, 1, 7);
    let cfg = FmmConfig {
        order: 6,
        q: 30,
        ..Default::default()
    };
    let err = fmm_rel_error(Arc::new(Laplace), cfg, &pts);
    assert!(err < 1e-4, "deep adaptive tree error {err}");
}

#[test]
fn stokes_vector_kernel_accuracy() {
    let mut pts = uniform_cube(1200, 107, 0);
    randomize_densities(&mut pts, 3, 9);
    let cfg = FmmConfig {
        order: 6,
        q: 60,
        ..Default::default()
    };
    let err = fmm_rel_error(Arc::new(Stokes { mu: 0.8 }), cfg, &pts);
    assert!(err < 1e-4, "stokes error {err}");
}

/// The production V-list path (fft-batched) against the dense M2L
/// oracle on an adaptive 1:1:4 ellipsoid tree, where the W and X lists
/// are active — the uniform-cube check in pfmm-core covers V alone.
#[test]
fn dense_and_fft_m2l_agree_on_mixed_tree() {
    let mut pts = ellipsoid_1_1_4(1500, 109, 0);
    randomize_densities(&mut pts, 1, 11);
    let dense = fmm_rel_error(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 25,
            m2l: M2lMode::Dense,
            ..Default::default()
        },
        &pts,
    );
    let fft = fmm_rel_error(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 25,
            m2l: M2lMode::FftBatched,
            ..Default::default()
        },
        &pts,
    );
    assert!(
        (dense - fft).abs() < 1e-6,
        "same operator, same error: dense {dense} vs fft-batched {fft}"
    );
}

#[test]
fn clustered_plus_background_distribution() {
    // A stress mix: half the points in a tight cluster, half uniform —
    // exercises U/V/W/X all at once with large level differences.
    let mut pts = uniform_cube(800, 113, 0);
    let cluster = uniform_cube(800, 127, 800);
    for (i, c) in cluster.iter().enumerate() {
        let mut p = *c;
        p.pos = [
            0.4 + 0.01 * c.pos[0],
            0.4 + 0.01 * c.pos[1],
            0.4 + 0.01 * c.pos[2],
        ];
        p.gid = 800 + i as u64;
        pts.push(p);
    }
    randomize_densities(&mut pts, 1, 13);
    let cfg = FmmConfig {
        order: 6,
        q: 20,
        ..Default::default()
    };
    let err = fmm_rel_error(Arc::new(Laplace), cfg, &pts);
    assert!(err < 1e-4, "cluster+background error {err}");
}

#[test]
fn tiny_problems_are_exact() {
    // Everything fits in the root leaf: the FMM must reduce to the
    // direct sum with zero approximation error.
    for n in [2usize, 7, 30] {
        let mut pts = uniform_cube(n, 131 + n as u64, 0);
        randomize_densities(&mut pts, 1, 17);
        let cfg = FmmConfig {
            order: 4,
            q: 64,
            ..Default::default()
        };
        let err = fmm_rel_error(Arc::new(Laplace), cfg, &pts);
        assert!(err < 1e-12, "n={n}: {err}");
    }
    // A single point has zero potential (self-interaction excluded); the
    // error metric degenerates, so check the value directly.
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 64,
            ..Default::default()
        },
    );
    let lone = vec![PointRec::scalar([0.5, 0.5, 0.5], 3.0, 0)];
    let out = mpisim::run(1, |c| {
        let res = fmm.evaluate(c, lone.clone());
        gather_potentials(c, &res, 1)
    })
    .pop()
    .expect("one rank");
    assert_eq!(out.len(), 1);
    assert_eq!(out[0].1[0], 0.0, "lone charge sees no potential");
}

#[test]
fn yukawa_non_homogeneous_kernel_accuracy() {
    // Yukawa is not homogeneous, so every translation operator is built
    // per level — the production path homogeneous kernels skip.
    use pfmm::kernels::Yukawa;
    let mut pts = uniform_cube(1500, 137, 0);
    randomize_densities(&mut pts, 1, 19);
    let cfg = FmmConfig {
        order: 6,
        q: 50,
        ..Default::default()
    };
    let err = fmm_rel_error(Arc::new(Yukawa { lambda: 3.0 }), cfg, &pts);
    assert!(err < 1e-4, "yukawa error {err}");
}

#[test]
fn yukawa_matches_laplace_at_zero_screening() {
    use pfmm::kernels::Yukawa;
    let mut pts = uniform_cube(900, 139, 0);
    randomize_densities(&mut pts, 1, 23);
    let cfg = FmmConfig {
        order: 4,
        q: 40,
        ..Default::default()
    };
    let e_yuk = fmm_rel_error(Arc::new(Yukawa { lambda: 0.0 }), cfg, &pts);
    let e_lap = fmm_rel_error(Arc::new(Laplace), cfg, &pts);
    assert!(
        (e_yuk - e_lap).abs() < 1e-6,
        "λ=0 Yukawa is Laplace: {e_yuk} vs {e_lap}"
    );
}

#[test]
fn dipole_rectangular_kernel_accuracy() {
    // source_dim = 3, target_dim = 1 and homogeneity −2: the rectangular
    // operator shapes and the non-unit scaling exponent.
    use pfmm::kernels::LaplaceDipole;
    let mut pts = uniform_cube(1200, 149, 0);
    randomize_densities(&mut pts, 3, 21);
    let cfg = FmmConfig {
        order: 6,
        q: 50,
        ..Default::default()
    };
    let err = fmm_rel_error(Arc::new(LaplaceDipole), cfg, &pts);
    assert!(err < 1e-3, "dipole error {err}");
}
