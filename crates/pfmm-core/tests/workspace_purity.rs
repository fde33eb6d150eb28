//! Workspace reuse is *bitwise* pure: applying densities through a plan
//! whose [`pfmm_core::EvalWorkspace`] has already served other density
//! sets produces exactly the bits of a fresh plan + single apply.
//!
//! This is the property that makes the zero-allocation steady state a
//! pure optimization: every buffer the workspace keeps warm (equivalent
//! and check densities, batched-M2L spectra and accumulators, near-field
//! density panels, pooled tile/translation scratch) is either zeroed at
//! the top of the sweep or fully overwritten, so no bit of a previous
//! apply can leak into the next. Pinned across four kernels (scalar, dipole, vector, screened) on a clustered adaptive
//! distribution where the U/V/W/X lists are all non-trivial.

use std::sync::{Arc, Mutex};

use pfmm_core::distrib::plummer;
use pfmm_core::{Fmm, FmmConfig};
use pfmm_kernels::{Kernel, Laplace, LaplaceDipole, Stokes, Yukawa};
use pfmm_mpisim::run;

fn config() -> FmmConfig {
    FmmConfig {
        order: 3,
        q: 30,
        ..Default::default()
    }
}

/// Deterministic density for global point `g`, component `k`.
fn density_at(g: u64, seed: u64, k: usize) -> f64 {
    let mut x = g
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seed)
        .wrapping_add(k as u64);
    x ^= x >> 33;
    x = x.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    x ^= x >> 33;
    (x as f64 / u64::MAX as f64) * 2.0 - 1.0
}

fn densities(plan: &pfmm_core::FmmPlan, sd: usize, seed: u64) -> Vec<f64> {
    plan.owned_gids()
        .iter()
        .flat_map(|&g| (0..sd).map(move |k| density_at(g, seed, k)))
        .collect()
}

fn dirty_workspace_matches_fresh(kernel: Arc<dyn Kernel>) {
    let name = kernel.name();
    let sd = kernel.source_dim();
    let f = Fmm::new(kernel, config());
    // Centrally clustered points force uneven refinement, so the
    // workspace's V/W/X machinery is genuinely exercised.
    let pts = plummer(500, 2026, 0);

    // Dirty path: one plan, three unrelated applies, then ours.
    let dirty_plan = Mutex::new(run(1, |c| f.plan(c, pts.clone())).pop().expect("one rank"));
    let dirty = run(1, |c| {
        let mut plan = dirty_plan.lock().unwrap();
        for pre in 0..3 {
            let other = densities(&plan, sd, 0xD1B7 + pre);
            f.apply(c, &mut plan, &other);
        }
        let den = densities(&plan, sd, 42);
        f.apply(c, &mut plan, &den).0
    })
    .pop()
    .expect("one rank");

    // Fresh path: plan and evaluate the target densities once.
    let fresh_plan = Mutex::new(run(1, |c| f.plan(c, pts.clone())).pop().expect("one rank"));
    let fresh = run(1, |c| {
        let mut plan = fresh_plan.lock().unwrap();
        let den = densities(&plan, sd, 42);
        f.apply(c, &mut plan, &den).0
    })
    .pop()
    .expect("one rank");

    assert_eq!(dirty.len(), fresh.len(), "{name}");
    for (i, (a, b)) in dirty.iter().zip(&fresh).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{name} component {i}: dirty {a:e} vs fresh {b:e}"
        );
    }
}

#[test]
fn laplace_dirty_workspace_is_bitwise_fresh() {
    dirty_workspace_matches_fresh(Arc::new(Laplace));
}

#[test]
fn laplace_dipole_dirty_workspace_is_bitwise_fresh() {
    dirty_workspace_matches_fresh(Arc::new(LaplaceDipole));
}

#[test]
fn stokes_dirty_workspace_is_bitwise_fresh() {
    dirty_workspace_matches_fresh(Arc::new(Stokes { mu: 0.9 }));
}

#[test]
fn yukawa_dirty_workspace_is_bitwise_fresh() {
    dirty_workspace_matches_fresh(Arc::new(Yukawa { lambda: 3.0 }));
}

/// An externally owned workspace (the serve-pool path, `apply_ws`)
/// carried across plans: the generation tag forces a rebuild for the
/// new plan, and the result still matches a fresh plan + apply.
#[test]
fn stale_external_workspace_is_rebuilt_and_bitwise_fresh() {
    let f = Fmm::new(Arc::new(Laplace) as Arc<dyn Kernel>, config());
    let pts_a = plummer(400, 11, 0);
    let pts_b = plummer(450, 22, 0);

    // Build a workspace against plan A and dirty it with one apply.
    let plan_a = Mutex::new(
        run(1, |c| f.plan(c, pts_a.clone()))
            .pop()
            .expect("one rank"),
    );
    let plan_b = Mutex::new(
        run(1, |c| f.plan(c, pts_b.clone()))
            .pop()
            .expect("one rank"),
    );
    let via_stale = run(1, |c| {
        let mut a = plan_a.lock().unwrap();
        let mut b = plan_b.lock().unwrap();
        let mut ws = f.workspace(&a);
        let den_a = densities(&a, 1, 7);
        let mut out = Vec::new();
        f.apply_ws(c, &mut a, &mut ws, &den_a, &mut out);
        // Same workspace against plan B: generation mismatch → rebuild.
        let den_b = densities(&b, 1, 8);
        f.apply_ws(c, &mut b, &mut ws, &den_b, &mut out);
        assert_eq!(ws.plan_uid(), b.uid(), "workspace retagged to plan B");
        out
    })
    .pop()
    .expect("one rank");

    let fresh_plan = Mutex::new(
        run(1, |c| f.plan(c, pts_b.clone()))
            .pop()
            .expect("one rank"),
    );
    let fresh = run(1, |c| {
        let mut plan = fresh_plan.lock().unwrap();
        let den = densities(&plan, 1, 8);
        f.apply(c, &mut plan, &den).0
    })
    .pop()
    .expect("one rank");

    assert_eq!(via_stale.len(), fresh.len());
    for (a, b) in via_stale.iter().zip(&fresh) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
