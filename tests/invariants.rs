//! Property-based invariants across the tree and FMM pipeline, on
//! randomized point clouds (proptest drives the randomness).

use proptest::prelude::*;
use std::sync::Arc;

use pfmm::fmm::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm::fmm::driver::gather_potentials;
use pfmm::fmm::{Fmm, FmmConfig, Phase};
use pfmm::kernels::{direct_eval, Kernel, Laplace, Stokes};
use pfmm::morton::{is_complete_linear, MortonKey};
use pfmm::mpisim;
use pfmm::tree::{build_let, build_lists, points_to_octree, PointRec};

fn arb_points(max_n: usize) -> impl Strategy<Value = Vec<PointRec>> {
    prop::collection::vec(
        (0.0f64..1.0, 0.0f64..1.0, 0.0f64..1.0, -1.0f64..1.0),
        1..max_n,
    )
    .prop_map(|v| {
        v.into_iter()
            .enumerate()
            .map(|(i, (x, y, z, d))| PointRec::scalar([x, y, z], d, i as u64))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The global leaf set is always a complete linear octree and every
    /// point lands in exactly one leaf that contains it.
    #[test]
    fn tree_complete_and_points_contained(pts in arb_points(300), q in 1usize..20) {
        let n = pts.len();
        let trees = mpisim::run(1, |c| points_to_octree(c, pts.clone(), q));
        let t = &trees[0];
        prop_assert!(is_complete_linear(&t.leaves));
        let mut total = 0;
        for i in 0..t.num_leaves() {
            for p in t.leaf_points(i) {
                prop_assert!(t.leaves[i].contains_point(&p.pos));
                total += 1;
            }
        }
        prop_assert_eq!(total, n);
    }

    /// List symmetries of Table I hold on arbitrary adaptive trees:
    /// U and V are symmetric, W and X are mutual duals.
    #[test]
    fn list_symmetries(pts in arb_points(200), q in 1usize..8) {
        let l = mpisim::run(1, |c| build_let(c, &points_to_octree(c, pts.clone(), q)))
            .pop().expect("one rank");
        let lists = build_lists(&l);
        for bi in 0..l.len() {
            for &ai in lists.u.row(bi) {
                prop_assert!(lists.u.row(ai as usize).contains(&(bi as u32)));
            }
            for &ai in lists.v.row(bi) {
                prop_assert!(lists.v.row(ai as usize).contains(&(bi as u32)));
            }
            for &ai in lists.w.row(bi) {
                prop_assert!(lists.x.row(ai as usize).contains(&(bi as u32)));
            }
            for &ai in lists.x.row(bi) {
                prop_assert!(lists.w.row(ai as usize).contains(&(bi as u32)));
            }
        }
    }

    /// Morton-key algebra: parent/child, ancestor ordering, and the
    /// rank-interval nesting that the whole pipeline relies on.
    #[test]
    fn morton_key_algebra(
        x in 0.0f64..1.0, y in 0.0f64..1.0, z in 0.0f64..1.0,
        level in 1u32..12,
    ) {
        let k = MortonKey::from_point(&[x, y, z], level);
        let parent = k.parent().expect("level >= 1");
        prop_assert!(parent.is_ancestor_of(&k));
        prop_assert!(parent < k);
        prop_assert!(parent.rank() <= k.rank());
        prop_assert!(k.rank_end() <= parent.rank_end());
        prop_assert_eq!(parent.child(k.child_index()), k);
        // Colleague relation is symmetric and same-level.
        for c in k.colleagues() {
            prop_assert_eq!(c.level(), k.level());
            prop_assert!(c.colleagues().contains(&k));
        }
    }

    /// End-to-end linearity: FMM(αs) == α·FMM(s) to rounding — the whole
    /// pipeline is a linear operator in the densities.
    #[test]
    fn fmm_is_linear_in_densities(pts in arb_points(150), alpha in 0.25f64..4.0) {
        let cfg = FmmConfig { order: 4, q: 10, ..Default::default() };
        let fmm = Fmm::new(Arc::new(Laplace), cfg);
        let eval = |pts: Vec<PointRec>| -> std::collections::HashMap<u64, f64> {
            let f = &fmm;
            mpisim::run(1, move |c| {
                let res = f.evaluate(c, pts.clone());
                gather_potentials(c, &res, 1)
            })
            .pop()
            .expect("one rank")
            .into_iter()
            .map(|(g, v)| (g, v[0]))
            .collect()
        };
        let base = eval(pts.clone());
        let mut scaled_pts = pts.clone();
        for p in &mut scaled_pts {
            p.den[0] *= alpha;
        }
        let scaled = eval(scaled_pts);
        for (gid, v) in &scaled {
            let want = alpha * base[gid];
            prop_assert!(
                (v - want).abs() <= 1e-9 * want.abs().max(1.0),
                "gid {}: {} vs {}", gid, v, want
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Distributed evaluation equals sequential at truncation accuracy
    /// for random clouds, rank counts, and points-per-box bounds.
    #[test]
    fn distributed_equals_sequential(
        pts in arb_points(250),
        p in 1usize..5,
        q in 2usize..24,
    ) {
        let cfg = FmmConfig { order: 4, q, ..Default::default() };
        let fmm = Fmm::new(Arc::new(Laplace), cfg);
        let eval_at = |ranks: usize| -> std::collections::HashMap<u64, f64> {
            let f = &fmm;
            let pts = &pts;
            mpisim::run(ranks, move |c| {
                let mine: Vec<_> =
                    pts.iter().skip(c.rank()).step_by(ranks).copied().collect();
                let res = f.evaluate(c, mine);
                gather_potentials(c, &res, 1)
            })
            .pop()
            .expect("rank 0")
            .into_iter()
            .map(|(g, v)| (g, v[0]))
            .collect()
        };
        let seq = eval_at(1);
        let par = eval_at(p);
        prop_assert_eq!(seq.len(), par.len());
        for (gid, v) in &par {
            let w = seq[gid];
            prop_assert!(
                (v - w).abs() <= 5e-3 * w.abs().max(1.0),
                "gid {}: {} vs {}", gid, v, w
            );
        }
    }
}

/// Deterministic spot-check kept outside proptest: the direct sum and
/// the FMM agree on a fixed cloud (guards the test harness itself).
#[test]
fn harness_sanity() {
    let pts: Vec<PointRec> = (0..64)
        .map(|i| {
            let f = i as f64 / 64.0;
            PointRec::scalar([f, (3.0 * f) % 1.0, (7.0 * f) % 1.0], 1.0, i as u64)
        })
        .collect();
    let cfg = FmmConfig {
        order: 6,
        q: 8,
        ..Default::default()
    };
    let fmm = Fmm::new(Arc::new(Laplace), cfg);
    let got = mpisim::run(1, |c| {
        let res = fmm.evaluate(c, pts.clone());
        gather_potentials(c, &res, 1)
    })
    .pop()
    .expect("one rank");
    let pos: Vec<[f64; 3]> = pts.iter().map(|p| p.pos).collect();
    let den: Vec<f64> = vec![1.0; 64];
    let mut want = vec![0.0; 64];
    direct_eval(&Laplace, &pos, &pos, &den, &mut want);
    for (gid, v) in got {
        assert!((v[0] - want[gid as usize]).abs() < 1e-5 * want[gid as usize].abs().max(1.0));
    }
}

/// A fresh evaluator reproduces a warm one bit for bit under the default
/// configuration, whose leaf bound `q` comes from the cost model: a new
/// `Fmm::new` resolves the same `q`, builds the same tree, and its
/// plan + apply gives the same potentials as an evaluator whose caches
/// an earlier geometry filled. Laplace at the default order on one
/// rank, Stokes at order 4 on two ranks over the adaptive ellipsoid.
#[test]
fn cold_start_matches_warm_evaluator_bitwise_at_default_config() {
    type Case = (
        Arc<dyn Kernel>,
        usize,
        usize,
        fn(usize, u64, u64) -> Vec<PointRec>,
    );
    let cases: [Case; 2] = [
        (
            Arc::new(Laplace),
            FmmConfig::default().order,
            1,
            uniform_cube,
        ),
        (Arc::new(Stokes::default()), 4, 2, ellipsoid_1_1_4),
    ];
    for (kernel, order, ranks, dist) in cases {
        let name = kernel.name();
        let (sd, td) = (kernel.source_dim(), kernel.target_dim());
        let geometry = |seed: u64| {
            let mut pts = dist(3000, seed, 0);
            randomize_densities(&mut pts, sd, seed + 1);
            pts
        };
        // (gid, potential bits) over all ranks, and the V-list flops.
        let plan_apply = |fmm: &Fmm, pts: &[PointRec]| {
            let parts = mpisim::run(ranks, |c| {
                let mine: Vec<PointRec> =
                    pts.iter().skip(c.rank()).step_by(ranks).copied().collect();
                let mut plan = fmm.plan(c, mine);
                // Generated gids are the point indices.
                let den: Vec<f64> = plan
                    .owned_gids()
                    .iter()
                    .flat_map(|&g| pts[g as usize].den[..sd].to_vec())
                    .collect();
                let (pot, prof) = fmm.apply(c, &mut plan, &den);
                (plan.owned_gids().to_vec(), pot, prof.flops(Phase::VList))
            });
            let vflops: u64 = parts.iter().map(|p| p.2).sum();
            let mut bits: Vec<(u64, Vec<u64>)> = Vec::new();
            for (gids, pot, _) in parts {
                for (g, row) in gids.into_iter().zip(pot.chunks_exact(td)) {
                    bits.push((g, row.iter().map(|v| v.to_bits()).collect()));
                }
            }
            bits.sort();
            (bits, vflops)
        };
        let cfg = FmmConfig {
            order,
            ..Default::default()
        };
        let warm = Fmm::new(kernel.clone(), cfg);
        plan_apply(&warm, &geometry(11));
        let (want, vflops) = plan_apply(&warm, &geometry(12));
        let cold = Fmm::new(kernel.clone(), cfg);
        let (got, _) = plan_apply(&cold, &geometry(12));
        assert!(warm.config().q > 0, "{name}: q resolved");
        assert_eq!(cold.config().q, warm.config().q, "{name}: same q");
        assert!(vflops > 0, "{name}: the tree has V lists");
        assert_eq!(got.len(), 3000, "{name}: every point once");
        assert!(
            got == want,
            "{name}: cold start differs from the warm evaluator"
        );
    }
}
