//! Failure injection: the library must fail loudly and precisely on
//! misuse, not corrupt results. Every contract documented with a
//! `# Panics` section gets exercised here.

use std::sync::Arc;

use pfmm::fmm::{Fmm, FmmConfig};
use pfmm::kernels::Laplace;
use pfmm::linalg::Matrix;
use pfmm::morton::{cover_interval, MortonKey, MAX_DEPTH, RANK_SPAN};
use pfmm::mpisim;
use pfmm::tree::PointRec;

#[test]
#[should_panic(expected = "level")]
fn morton_rejects_depth_overflow() {
    MortonKey::from_point(&[0.5, 0.5, 0.5], MAX_DEPTH + 1);
}

#[test]
#[should_panic(expected = "unaligned")]
fn morton_rejects_unaligned_anchor() {
    // Anchor 1 is not a multiple of the level-0 cell size.
    MortonKey::new([1, 0, 0], 0);
}

#[test]
#[should_panic(expected = "outside")]
fn morton_rejects_out_of_grid_anchor() {
    MortonKey::new([u32::MAX, 0, 0], MAX_DEPTH);
}

#[test]
#[should_panic(expected = "root has no child index")]
fn morton_root_has_no_child_index() {
    MortonKey::root().child_index();
}

#[test]
#[should_panic(expected = "empty interval")]
fn cover_interval_rejects_empty() {
    cover_interval(5, 4);
}

#[test]
#[should_panic(expected = "outside the unit cube")]
fn cover_interval_rejects_overflow() {
    cover_interval(0, RANK_SPAN);
}

#[test]
#[should_panic(expected = "shape mismatch")]
fn matrix_rejects_bad_shape() {
    Matrix::from_vec(2, 3, vec![1.0; 5]);
}

#[test]
#[should_panic(expected = "matvec: x length")]
fn matvec_rejects_bad_vector() {
    let m = Matrix::zeros(2, 3);
    m.matvec(&[1.0, 2.0]);
}

#[test]
#[should_panic(expected = "inner dimensions")]
fn matmul_rejects_bad_inner() {
    Matrix::zeros(2, 3).matmul(&Matrix::zeros(2, 3));
}

#[test]
#[should_panic(expected = "need at least one rank")]
fn mpisim_rejects_zero_ranks() {
    mpisim::run(0, |_| ());
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn mpisim_send_out_of_range_panics() {
    mpisim::run(1, |c| c.send(5, 0, &[1u8]));
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn mpisim_type_mismatch_panics() {
    // Sending u32 and receiving f64 must be a loud failure (a real MPI
    // would silently reinterpret bytes).
    mpisim::run(2, |c| {
        if c.rank() == 0 {
            c.send(1, 0, &[7u32]);
        } else {
            let _ = c.recv::<f64>(0, 0);
        }
    });
}

#[test]
#[should_panic(expected = "surface order must be at least 2")]
fn fmm_rejects_order_one() {
    Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 1,
            ..Default::default()
        },
    );
}

/// `FmmConfig::q == 0` means "the model's choice", so the zero bound is
/// rejected where it would do harm: the octree refinement.
#[test]
#[should_panic(expected = "rank thread panicked")]
fn octree_rejects_zero_q() {
    mpisim::run(1, |c| {
        let pts = vec![PointRec::scalar([0.5, 0.5, 0.5], 1.0, 0)];
        pfmm::tree::points_to_octree(c, pts, 0);
    });
}

#[test]
#[should_panic(expected = "rank thread panicked")]
fn plan_apply_rejects_misaligned_densities() {
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 8,
            ..Default::default()
        },
    );
    let pts: Vec<PointRec> = (0..20)
        .map(|i| PointRec::scalar([i as f64 / 20.0, 0.5, 0.5], 1.0, i))
        .collect();
    mpisim::run(1, |c| {
        let mut plan = fmm.plan(c, pts.clone());
        let _ = fmm.apply(c, &mut plan, &[1.0; 3]); // wrong length
    });
}

#[test]
fn evaluate_with_no_points_is_empty_not_crash() {
    // Degenerate but legal: a rank (here, all ranks) with nothing to do.
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 8,
            ..Default::default()
        },
    );
    let out = mpisim::run(2, |c| {
        let res = fmm.evaluate(c, Vec::new());
        (res.gids.len(), res.pot.len())
    });
    for (g, p) in out {
        assert_eq!((g, p), (0, 0));
    }
}

#[test]
fn points_on_cube_boundary_are_clamped_not_lost() {
    // Coordinates at exactly 1.0 (and 0.0) must land in edge cells.
    let pts = vec![
        PointRec::scalar([0.0, 0.0, 0.0], 1.0, 0),
        PointRec::scalar([1.0, 1.0, 1.0], 1.0, 1),
        PointRec::scalar([1.0, 0.0, 0.5], 1.0, 2),
    ];
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 2,
            ..Default::default()
        },
    );
    let out = mpisim::run(1, |c| fmm.evaluate(c, pts.clone()).gids.len());
    assert_eq!(out[0], 3);
}

#[test]
fn duplicate_positions_with_distinct_gids_survive() {
    // Coincident points stress the MAX_DEPTH refinement cap and the
    // self-interaction exclusion (which is positional, so coincident
    // distinct points DO interact — only the true self term is dropped).
    let pts: Vec<PointRec> = (0..12)
        .map(|i| PointRec::scalar([0.25, 0.5, 0.75], 1.0, i))
        .collect();
    let fmm = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            order: 4,
            q: 4,
            ..Default::default()
        },
    );
    let out = mpisim::run(1, |c| {
        let res = fmm.evaluate(c, pts.clone());
        pfmm::fmm::driver::gather_potentials(c, &res, 1)
    })
    .pop()
    .expect("one rank");
    assert_eq!(out.len(), 12);
    for (_, v) in out {
        // Coincident pairs have r = 0 and are excluded pairwise, exactly
        // like the direct sum's convention: potential is 0.
        assert_eq!(v[0], 0.0);
    }
}
