//! Cross-crate GPU-simulation tests: the single-precision streaming
//! pipeline against the f64 CPU FMM, and the §IV performance structure.

use pfmm::fmm::distrib::{ellipsoid_1_1_4, randomize_densities, uniform_cube};
use pfmm::gpusim::{run_gpu_fmm, DeviceSpec};

#[test]
fn gpu_pipeline_accuracy_uniform() {
    let mut pts = uniform_cube(2000, 301, 0);
    randomize_densities(&mut pts, 1, 3);
    let rep = run_gpu_fmm(pts, 60, 4, &DeviceSpec::tesla_s1070(), true);
    assert!(
        rep.rel_err_vs_f64 < 5e-4,
        "f32 vs f64: {}",
        rep.rel_err_vs_f64
    );
}

/// The f32 pipeline keeps its accuracy as the surface order grows: the
/// device S2U applies a pseudo-inverse truncated for f32
/// (`PINV_F32_REL_TOL`), not the f64 one, which at order 6 amplified f32
/// rounding into a 0.3 relative error. 4000 uniform points at q = 150,
/// the configuration of the modeled-speedup test.
#[test]
fn f32_pipeline_accuracy_at_orders_4_and_6() {
    for (order, bound) in [(4, 5e-4), (6, 1e-4)] {
        let mut pts = uniform_cube(4000, 5, 0);
        randomize_densities(&mut pts, 1, 6);
        let rep = run_gpu_fmm(pts, 150, order, &DeviceSpec::tesla_s1070(), true);
        assert!(
            rep.rel_err_vs_f64 <= bound,
            "order {order}: f32 vs f64 {}",
            rep.rel_err_vs_f64
        );
    }
}

#[test]
fn gpu_pipeline_accuracy_nonuniform() {
    // The adaptive tree exercises the CPU-resident W/X phases of the GPU
    // split as well.
    let mut pts = ellipsoid_1_1_4(1500, 307, 0);
    randomize_densities(&mut pts, 1, 5);
    let rep = run_gpu_fmm(pts, 30, 4, &DeviceSpec::tesla_s1070(), true);
    // 2e-3 matches the W/X-on-GPU test below: the adaptive ellipsoid at
    // q=30 sits right at the f32 pipeline's accuracy floor, so the bound
    // cannot be tighter without becoming sensitive to the RNG stream.
    assert!(
        rep.rel_err_vs_f64 < 2e-3,
        "f32 vs f64 (adaptive): {}",
        rep.rel_err_vs_f64
    );
    assert!(
        rep.gpu_secs[3] > 0.0,
        "W/X phase actually ran on the adaptive tree"
    );
}

#[test]
fn phase_structure_matches_paper() {
    let mut pts = uniform_cube(30_000, 311, 0);
    randomize_densities(&mut pts, 1, 7);
    let dev = DeviceSpec::tesla_s1070();
    let rep = run_gpu_fmm(pts, 100, 4, &dev, false);
    // Every modeled phase positive, totals consistent.
    for (g, c) in rep.gpu_secs.iter().zip(&rep.cpu2009_secs) {
        assert!(*g >= 0.0 && *c >= 0.0);
    }
    assert!(rep.total_gpu() < rep.total_cpu2009(), "acceleration helps");
    // U-list speedup is the largest (compute-bound phase) — the paper's
    // central GPU observation.
    let uli_speedup = rep.cpu2009_secs[1] / rep.gpu_secs[1].max(1e-12);
    let vli_speedup = rep.cpu2009_secs[2] / rep.gpu_secs[2].max(1e-12);
    assert!(
        uli_speedup > vli_speedup,
        "compute-bound U-list gains more than bandwidth-bound V-list: {uli_speedup} vs {vli_speedup}"
    );
}

#[test]
fn translation_and_transfer_are_minor() {
    let mut pts = uniform_cube(20_000, 313, 0);
    randomize_densities(&mut pts, 1, 9);
    let rep = run_gpu_fmm(pts, 150, 4, &DeviceSpec::tesla_s1070(), false);
    assert!(
        rep.translate_secs < 0.5 * rep.total_cpu2009(),
        "layout translation minor: {} vs {}",
        rep.translate_secs,
        rep.total_cpu2009()
    );
    assert!(rep.transfer_secs < rep.total_cpu2009());
}

#[test]
fn device_parameters_affect_model_sensibly() {
    let mut pts = uniform_cube(8_000, 317, 0);
    randomize_densities(&mut pts, 1, 11);
    let base = DeviceSpec::tesla_s1070();
    let mut slow = base;
    slow.flops_per_sec /= 10.0;
    let fast = run_gpu_fmm(pts.clone(), 200, 4, &base, false);
    let slowed = run_gpu_fmm(pts, 200, 4, &slow, false);
    // The compute-bound U-list must slow ~10x; bandwidth-bound phases
    // change less.
    let ratio = slowed.gpu_secs[1] / fast.gpu_secs[1];
    assert!(ratio > 5.0, "U-list tracks the flop rate: {ratio}");
}

#[test]
fn wx_on_gpu_matches_host_wx() {
    // The paper's stated future work ("transferring the W,X-lists on the
    // GPU"): the device path must agree with the host path and with the
    // f64 reference on an adaptive tree where W/X carry real work.
    use pfmm::gpusim::run_gpu_fmm_wx;
    let mut pts = ellipsoid_1_1_4(1500, 331, 0);
    randomize_densities(&mut pts, 1, 13);
    let dev = DeviceSpec::tesla_s1070();
    let host = run_gpu_fmm(pts.clone(), 30, 4, &dev, true);
    let device = run_gpu_fmm_wx(pts, 30, 4, &dev, true);
    assert!(
        host.gpu_secs[3] > 0.0 && device.gpu_secs[3] > 0.0,
        "W/X ran in both"
    );
    assert!(
        device.rel_err_vs_f64 < 2e-3,
        "GPU W/X accuracy: {}",
        device.rel_err_vs_f64
    );
    // The device path streams block-padded source tiles, so its flop
    // tally is inflated by the padding factor (~4x at q=30 with b=64) —
    // the same coalescing/padding trade the U-list makes.
    let ratio = device.cpu2009_secs[3] / host.cpu2009_secs[3];
    assert!(
        (1.0..10.0).contains(&ratio),
        "padded W/X work factor: {ratio}"
    );
}

#[test]
fn distributed_gpu_pipeline_accuracy() {
    // The full heterogeneous configuration of the paper: p ranks, one
    // simulated device each, real LET exchange and a real hypercube
    // reduce-and-scatter between the device phases.
    use pfmm::gpusim::run_gpu_fmm_distributed;
    let mut pts = uniform_cube(3000, 401, 0);
    randomize_densities(&mut pts, 1, 7);
    let dev = DeviceSpec::tesla_s1070();
    let reports = run_gpu_fmm_distributed(4, pts, 60, 4, &dev, true);
    assert_eq!(reports.len(), 4);
    let err = reports[0].rel_err_vs_f64;
    assert!(err < 1e-3, "distributed f32 pipeline vs f64: {err}");
    let total_pts: usize = reports.iter().map(|r| r.n).sum();
    assert_eq!(total_pts, 3000);
    for r in &reports {
        assert!(
            r.comm_wall_secs > 0.0,
            "the reduce-and-scatter actually ran"
        );
        assert!(r.total_gpu() > 0.0);
    }
}
