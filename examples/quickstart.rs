//! Quickstart: evaluate an electrostatic N-body potential with the FMM
//! and check it against the exact direct sum.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use pfmm::fmm::driver::gather_potentials;
use pfmm::fmm::{Fmm, FmmConfig};
use pfmm::kernels::{direct_eval, Kernel, Laplace};
use pfmm::mpisim;
use pfmm::tree::PointRec;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn main() {
    // 20,000 random charges in the unit cube.
    let n = 20_000;
    let mut rng = StdRng::seed_from_u64(1);
    let points: Vec<PointRec> = (0..n)
        .map(|i| {
            PointRec::scalar(
                [rng.random(), rng.random(), rng.random()],
                rng.random::<f64>() * 2.0 - 1.0,
                i as u64,
            )
        })
        .collect();

    // An FMM evaluator for the Laplace kernel. Order 6 gives ~5 digits;
    // the points-per-leaf bound q is left to the cost model. See
    // FmmConfig for the other knobs (M2L mode, load balancing).
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 6,
            ..Default::default()
        },
    );
    println!("q = {} points per leaf", fmm.config().q);

    // Evaluate on a single rank (pass p > 1 for distributed execution —
    // the API is identical).
    let result = mpisim::run(1, |comm| {
        let res = fmm.evaluate(comm, points.clone());
        println!(
            "tree: {} leaves, levels {}..{}; evaluation {:.3}s (setup {:.3}s)",
            res.info.global_leaves,
            res.info.min_leaf_level,
            res.info.max_leaf_level,
            res.profile.total_secs,
            res.profile.setup_secs,
        );
        gather_potentials(comm, &res, 1)
    })
    .pop()
    .expect("one rank");

    // Verify a random subsample against the O(N²) direct sum.
    let pos: Vec<[f64; 3]> = points.iter().map(|p| p.pos).collect();
    let den: Vec<f64> = points.iter().map(|p| p.den[0]).collect();
    let by_gid: std::collections::HashMap<u64, f64> =
        result.into_iter().map(|(g, v)| (g, v[0])).collect();

    let mut num = 0.0f64;
    let mut dnm = 0.0f64;
    for i in (0..n).step_by(97) {
        let mut exact = [0.0f64];
        direct_eval(&Laplace, &[pos[i]], &pos, &den, &mut exact);
        let fmm_v = by_gid[&(i as u64)];
        num += (fmm_v - exact[0]).powi(2);
        dnm += exact[0].powi(2);
    }
    let rel = (num / dnm).sqrt();
    println!("relative l2 error vs direct sum (subsample): {rel:.2e}");
    assert!(rel < 1e-4, "FMM accuracy regression");
    println!(
        "ok: {} potentials computed with kernel '{}'",
        n,
        Laplace.name()
    );
}
