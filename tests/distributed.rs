//! Cross-crate distributed-execution tests: any rank count must produce
//! the sequential answer (at truncation accuracy — region boundaries
//! refine the tree differently), conserve all points, and exercise the
//! communication machinery the paper introduces.

use std::sync::Arc;

use pfmm::fmm::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm::fmm::driver::gather_potentials;
use pfmm::fmm::{Fmm, FmmConfig, Reduction};
use pfmm::kernels::{Laplace, Stokes};
use pfmm::mpisim;
use pfmm::tree::PointRec;

type RunOutput = (Vec<(u64, Vec<f64>)>, Vec<u64>, Vec<u64>);

fn run_p(fmm: &Fmm, pts: &[PointRec], p: usize, td: usize) -> RunOutput {
    let out = mpisim::run(p, |c| {
        let mine: Vec<_> = pts.iter().skip(c.rank()).step_by(p).copied().collect();
        let res = fmm.evaluate(c, mine);
        (
            gather_potentials(c, &res, td),
            res.comm_reduce.sent_msgs,
            res.comm_reduce.sent_bytes,
        )
    });
    let gathered = out[0].0.clone();
    let msgs = out.iter().map(|(_, m, _)| *m).collect();
    let bytes = out.iter().map(|(_, _, b)| *b).collect();
    (gathered, msgs, bytes)
}

fn assert_matches_reference(
    reference: &std::collections::HashMap<u64, Vec<f64>>,
    got: &[(u64, Vec<f64>)],
    tol: f64,
    label: &str,
) {
    assert_eq!(got.len(), reference.len(), "{label}: point count");
    for (gid, v) in got {
        let want = &reference[gid];
        for (a, b) in v.iter().zip(want) {
            assert!(
                (a - b).abs() < tol * b.abs().max(1.0),
                "{label} gid {gid}: {a} vs {b}"
            );
        }
    }
}

#[test]
fn all_rank_counts_agree_laplace() {
    let mut pts = uniform_cube(2400, 211, 0);
    randomize_densities(&mut pts, 1, 3);
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        },
    );
    let seq: std::collections::HashMap<u64, Vec<f64>> =
        run_p(&fmm, &pts, 1, 1).0.into_iter().collect();
    for p in [2usize, 3, 4, 5, 8] {
        let (got, _, _) = run_p(&fmm, &pts, p, 1);
        assert_matches_reference(&seq, &got, 5e-3, &format!("p={p}"));
    }
}

#[test]
fn nonuniform_stokes_distributed() {
    let mut pts = ellipsoid_1_1_4(1600, 223, 0);
    randomize_densities(&mut pts, 3, 5);
    let fmm = Fmm::new(
        Arc::new(Stokes::default()),
        FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        },
    );
    let seq: std::collections::HashMap<u64, Vec<f64>> =
        run_p(&fmm, &pts, 1, 3).0.into_iter().collect();
    let (got, msgs, _) = run_p(&fmm, &pts, 4, 3);
    // Order-4 Stokes truncation is ~5e-3 l2; the worst pointwise
    // deviation between the differently-refined trees sits near 1%.
    assert_matches_reference(&seq, &got, 3e-2, "stokes p=4");
    assert!(
        msgs.iter().all(|&m| m > 0),
        "every rank communicated: {msgs:?}"
    );
}

#[test]
fn hypercube_and_naive_reductions_agree_exactly() {
    // Same tree, same partial sums — only the communication schedule
    // differs, so results must agree to rounding.
    let mut pts = uniform_cube(2000, 227, 0);
    randomize_densities(&mut pts, 1, 7);
    let mk = |reduction| {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                reduction,
                ..Default::default()
            },
        )
    };
    let hc: std::collections::HashMap<u64, Vec<f64>> = run_p(&mk(Reduction::Hypercube), &pts, 8, 1)
        .0
        .into_iter()
        .collect();
    let (nv, _, _) = run_p(&mk(Reduction::Naive), &pts, 8, 1);
    assert_matches_reference(&hc, &nv, 1e-11, "naive vs hypercube");
}

#[test]
fn hypercube_message_count_is_logarithmic() {
    let mut pts = uniform_cube(3200, 229, 0);
    randomize_densities(&mut pts, 1, 9);
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        },
    );
    for p in [2usize, 4, 8, 16] {
        let (_, msgs, _) = run_p(&fmm, &pts, p, 1);
        let expect = 2 * (p.trailing_zeros() as u64); // keys+densities per round
        assert!(
            msgs.iter().all(|&m| m == expect),
            "p={p}: per-rank messages {msgs:?}, expected {expect}"
        );
    }
}

#[test]
fn skewed_initial_distribution_is_rebalanced() {
    // All input points start on rank 0; the pipeline must still spread
    // the evaluation.
    let mut pts = uniform_cube(3000, 233, 0);
    randomize_densities(&mut pts, 1, 11);
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 40,
            ..Default::default()
        },
    );
    let out = mpisim::run(4, |c| {
        let mine = if c.rank() == 0 {
            pts.clone()
        } else {
            Vec::new()
        };
        let res = fmm.evaluate(c, mine);
        (res.gids.len(), res.profile.total_flops())
    });
    let counts: Vec<usize> = out.iter().map(|(n, _)| *n).collect();
    assert_eq!(counts.iter().sum::<usize>(), 3000);
    assert!(
        counts.iter().all(|&n| n > 300),
        "points spread across ranks: {counts:?}"
    );
    let flops: Vec<u64> = out.iter().map(|(_, f)| *f).collect();
    let max = *flops.iter().max().expect("ranks") as f64;
    let min = *flops.iter().min().expect("ranks") as f64;
    assert!(max / min.max(1.0) < 3.0, "work roughly balanced: {flops:?}");
}

#[test]
fn repeated_evaluation_reuses_operator_cache() {
    // Second evaluation on the same Fmm must be no less accurate and the
    // operator cache must not corrupt across runs.
    let mut pts = uniform_cube(1000, 239, 0);
    randomize_densities(&mut pts, 1, 13);
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 30,
            ..Default::default()
        },
    );
    let a: std::collections::HashMap<u64, Vec<f64>> =
        run_p(&fmm, &pts, 2, 1).0.into_iter().collect();
    let (b, _, _) = run_p(&fmm, &pts, 2, 1);
    assert_matches_reference(&a, &b, 1e-14, "identical reruns");
}

#[test]
fn threaded_evaluation_matches_sequential() {
    // Intra-rank threading (the §IV parallel phase set) must be
    // bitwise-identical in structure: same tree, same operators, only the
    // loop scheduling differs; results agree to rounding.
    let mut pts = pfmm::fmm::distrib::ellipsoid_1_1_4(2000, 241, 0);
    pfmm::fmm::distrib::randomize_densities(&mut pts, 1, 15);
    let mk = |threads| {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 25,
                threads,
                ..Default::default()
            },
        )
    };
    let seq: std::collections::HashMap<u64, Vec<f64>> =
        run_p(&mk(1), &pts, 1, 1).0.into_iter().collect();
    for threads in [2usize, 4] {
        let (par, _, _) = run_p(&mk(threads), &pts, 1, 1);
        assert_matches_reference(&seq, &par, 1e-12, &format!("threads={threads}"));
    }
    // Threading composes with distributed ranks.
    let (both, _, _) = run_p(&mk(3), &pts, 2, 1);
    let seq2: std::collections::HashMap<u64, Vec<f64>> =
        run_p(&mk(1), &pts, 2, 1).0.into_iter().collect();
    assert_matches_reference(&seq2, &both, 1e-12, "threads=3 p=2");
}

#[test]
fn bitonic_sort_backend_matches_sample() {
    use pfmm::fmm::SortKind;
    let mut pts = uniform_cube(1600, 251, 0);
    randomize_densities(&mut pts, 1, 17);
    let mk = |sort| {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                sort,
                ..Default::default()
            },
        )
    };
    // Same points, p = 4 (power of two): both backends must produce the
    // same global Morton distribution, hence identical trees and results.
    let sample: std::collections::HashMap<u64, Vec<f64>> = run_p(&mk(SortKind::Sample), &pts, 4, 1)
        .0
        .into_iter()
        .collect();
    let (bitonic, _, _) = run_p(&mk(SortKind::Bitonic), &pts, 4, 1);
    // Region fences may differ (different chunk boundaries), so agreement
    // holds at truncation accuracy.
    assert_matches_reference(&sample, &bitonic, 5e-3, "bitonic backend");
    // Non-power-of-two falls back to sample sort: exact match.
    let s3: std::collections::HashMap<u64, Vec<f64>> = run_p(&mk(SortKind::Sample), &pts, 3, 1)
        .0
        .into_iter()
        .collect();
    let (b3, _, _) = run_p(&mk(SortKind::Bitonic), &pts, 3, 1);
    assert_matches_reference(&s3, &b3, 1e-12, "bitonic fallback");
}
