//! The allocation-regression gate: a warm `Fmm::apply_into` performs
//! ZERO heap allocations, asserted with a counting `#[global_allocator]`.
//!
//! The guarantee covers the default engine selection (gemm translations,
//! batched-FFT M2L, tiled U-list) at `threads = 1` on a single rank —
//! the steady state an iterative solver sits in. Two warm-up applies let every pooled buffer reach its steady-state capacity; the
//! gate then counts allocator hits across five more applies and demands
//! zero.
//!
//! At `threads = 2` the gate is weaker but still structural: the
//! allocations of a warm apply must not grow with the tree.
//!
//! The same counting allocator also validates the plan's byte
//! accounting: `FmmPlan::memory_bytes` (which includes the workspace)
//! must land within 1% of the live-byte delta the allocator actually
//! observed while the plan and its workspace were built.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pfmm_core::distrib::{plummer, randomize_densities};
use pfmm_core::{Fmm, FmmConfig, Phase};
use pfmm_kernels::{Kernel, Laplace, Stokes};
use pfmm_mpisim::run;

/// Counts every allocator call and the net live bytes. Installed for the
/// whole test binary, so alloc/dealloc pairs always balance.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);

static TRAP: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, l: Layout) -> *mut u8 {
        if TRAP.swap(false, Ordering::Relaxed) {
            eprintln!(
                "TRAP alloc {} bytes\n{}",
                l.size(),
                std::backtrace::Backtrace::force_capture()
            );
        }
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc(l) }
    }

    unsafe fn alloc_zeroed(&self, l: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(l.size() as u64, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(l) }
    }

    unsafe fn dealloc(&self, p: *mut u8, l: Layout) {
        LIVE_BYTES.fetch_sub(l.size() as u64, Ordering::Relaxed);
        unsafe { System.dealloc(p, l) }
    }

    unsafe fn realloc(&self, p: *mut u8, l: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        LIVE_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        LIVE_BYTES.fetch_sub(l.size() as u64, Ordering::Relaxed);
        unsafe { System.realloc(p, l, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters are process-global, so tests that read them must not
/// overlap with other allocating tests in this binary.
static SERIAL: Mutex<()> = Mutex::new(());

/// Plan, warm up, then demand an allocation delta of exactly zero across
/// `reps` further applies.
fn assert_zero_alloc_steady_state(kernel: Arc<dyn Kernel>) {
    let name = kernel.name();
    let sd = kernel.source_dim();
    // The default engines are the gated configuration (fft-batched M2L,
    // threads 1). `q` is pinned: the model's default would leave 1500
    // points too few leaves to populate every list.
    let f = Fmm::new(
        kernel,
        FmmConfig {
            q: 64,
            ..Default::default()
        },
    );
    // Plummer is centrally clustered, so the adaptive tree refines
    // unevenly and the U/V/W/X lists are all non-trivially populated.
    let mut pts = plummer(1500, 4242, 0);
    randomize_densities(&mut pts, sd, 7);
    run(1, |c| {
        let mut plan = f.plan(c, pts.clone());
        let den: Vec<f64> = plan
            .owned_gids()
            .iter()
            .flat_map(|&g| pts[g as usize].den[..sd].to_vec())
            .collect();
        let mut out = Vec::new();
        // Two warm-ups: the first builds the workspace and near field,
        // the second settles every lazily grown scratch capacity.
        let prof = f.apply_into(c, &mut plan, &den, &mut out);
        for ph in [Phase::UList, Phase::VList, Phase::WList, Phase::XList] {
            assert!(prof.flops(ph) > 0, "{name}: {} is empty", ph.label());
        }
        f.apply_into(c, &mut plan, &den, &mut out);
        let warm = out.clone();
        let before = ALLOC_CALLS.load(Ordering::Relaxed);
        let reps = 5;
        for _ in 0..reps {
            TRAP.store(true, Ordering::Relaxed);
            f.apply_into(c, &mut plan, &den, &mut out);
            TRAP.store(false, Ordering::Relaxed);
        }
        let delta = ALLOC_CALLS.load(Ordering::Relaxed) - before;
        assert_eq!(
            delta, 0,
            "{name}: {delta} heap allocations across {reps} warm applies (want 0)"
        );
        // The gated applies are also bitwise identical to the warm-up.
        assert_eq!(warm.len(), out.len());
        for (a, b) in warm.iter().zip(&out) {
            assert_eq!(a.to_bits(), b.to_bits(), "{name} drifted");
        }
    });
}

#[test]
fn warm_apply_allocates_nothing_laplace() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_zero_alloc_steady_state(Arc::new(Laplace));
}

#[test]
fn warm_apply_allocates_nothing_stokes() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    assert_zero_alloc_steady_state(Arc::new(Stokes { mu: 0.9 }));
}

/// Fewest allocator calls over five warm applies, and the octant count,
/// of a `threads = 2` plan over `n` Plummer points. The minimum, because
/// which pooled scratch slot a worker checks out is timing-dependent: a
/// slot first used late warms once, on one apply.
fn two_thread_allocs_per_apply(n: usize) -> (u64, usize) {
    let f = Fmm::new(
        Arc::new(Laplace),
        FmmConfig {
            threads: 2,
            order: 4,
            q: 20,
            ..Default::default()
        },
    );
    let mut pts = plummer(n, 4242, 0);
    randomize_densities(&mut pts, 1, 7);
    run(1, |c| {
        let mut plan = f.plan(c, pts.clone());
        let den = vec![0.5f64; plan.num_owned()];
        let mut out = Vec::new();
        f.apply_into(c, &mut plan, &den, &mut out);
        f.apply_into(c, &mut plan, &den, &mut out);
        let fewest = (0..5)
            .map(|_| {
                let before = ALLOC_CALLS.load(Ordering::Relaxed);
                f.apply_into(c, &mut plan, &den, &mut out);
                ALLOC_CALLS.load(Ordering::Relaxed) - before
            })
            .min()
            .expect("five applies");
        (fewest, plan.num_octants())
    })
    .pop()
    .expect("one rank")
}

/// At `threads = 2` the fan-out itself allocates (worker spawns and
/// their chunk lists, a fixed number per phase), but nothing per V-list
/// source: the parallel forward transforms write straight into disjoint
/// windows of the workspace's source spectra on pooled scratch. A tree
/// several times larger must not cost a single extra allocation.
#[test]
fn two_thread_warm_apply_allocations_do_not_grow_with_vlist_sources() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (small, small_octs) = two_thread_allocs_per_apply(600);
    let (large, large_octs) = two_thread_allocs_per_apply(4000);
    assert!(
        large_octs >= 3 * small_octs,
        "trees too close in size: {small_octs} vs {large_octs} octants"
    );
    assert!(
        large <= small,
        "warm 2-thread apply: {small} allocations at {small_octs} octants, \
         {large} at {large_octs}"
    );
}

/// `FmmPlan::memory_bytes` (LET + lists + eval data + schedules +
/// workspace) within 1% of the live bytes the allocator measured while
/// the plan and its workspace were built.
#[test]
fn memory_bytes_matches_measured_live_bytes_within_1pct() {
    let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let f = Fmm::new(Arc::new(Laplace), FmmConfig::default());
    let mut pts = plummer(2000, 999, 0);
    randomize_densities(&mut pts, 1, 3);

    // Pre-warm every process-global side table (operator caches, FFT
    // plans, metrics registry entries) with a throwaway plan + apply of
    // the same configuration, so the measured delta isolates the plan.
    run(1, |c| {
        let mut warm = f.plan(c, pts.clone());
        let den = vec![0.5f64; warm.num_owned()];
        let mut out = Vec::new();
        let _ = f.apply_into(c, &mut warm, &den, &mut out);
    });

    // `den` lives across both snapshots, so it cancels out of the delta;
    // `out` is created and dropped between them.
    let den = vec![0.5f64; pts.len()];
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let plan = Mutex::new(run(1, |c| f.plan(c, pts.clone())).pop().expect("one rank"));
    run(1, |c| {
        let mut g = plan.lock().unwrap();
        let mut out = Vec::new();
        let _ = f.apply_into(c, &mut g, &den, &mut out);
        let _ = f.apply_into(c, &mut g, &den, &mut out);
    });
    let measured = LIVE_BYTES.load(Ordering::Relaxed) - before;
    let claimed = plan.lock().unwrap().memory_bytes() as u64;
    let err = (claimed as f64 - measured as f64).abs() / measured as f64;
    assert!(
        err < 0.01,
        "memory_bytes {claimed} vs measured live {measured} ({:.2}% off)",
        err * 100.0
    );
}
