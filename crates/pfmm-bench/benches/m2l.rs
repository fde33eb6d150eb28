//! Micro-benchmark of the central FMM design choice: one V-list
//! interaction via the dense operator vs the batched FFT diagonalization
//! (per-application cost; the harness binary `ablation_m2l` measures the
//! whole phase).

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use pfmm_core::m2l_batched::{offset_index, EdgeBatch, FftBatchedM2l, BATCH_TARGETS};
use pfmm_core::ops::Ops;
use pfmm_core::small_dft::{DftScratch, PrunedDft3};
use pfmm_core::surface::surface_grid_indices;
use pfmm_fft::{Complex, RFft3, RFftScratch};
use pfmm_kernels::Laplace;
use std::hint::black_box;

fn bench_m2l(c: &mut Criterion) {
    let mut g = c.benchmark_group("m2l");

    for order in [4usize, 6] {
        let ops = Ops::new(Arc::new(Laplace), order);
        let nd = ops.density_len();
        let u: Vec<f64> = (0..nd).map(|i| (i as f64 * 0.13).sin()).collect();
        let offset = [2i8, -1, 3];
        let level = 4u32;

        // Dense: one matvec per interaction.
        let (m, s) = ops.m2l(level, offset);
        let mut dcheck = vec![0.0; ops.check_len()];
        g.bench_function(format!("dense_apply_order{order}"), |b| {
            b.iter(|| m.matvec_acc_scaled(black_box(&u), black_box(&mut dcheck), s))
        });
    }

    // Batched half-spectrum path: the sibling-blocked Hadamard for one
    // (target parent, source parent) pair — the 8 target children against
    // the 8 source children of a face colleague, 48 non-adjacent child
    // edges — and for one interior sibling group (all 26 colleagues,
    // 1512 child edges). Divide by the edge count for µs per child edge.
    for order in [4usize, 6, 8] {
        let ops = Ops::new(Arc::new(Laplace), order);
        let eng = FftBatchedM2l::new(Arc::new(Laplace), order);
        let nd = ops.density_len();
        let level = 4u32;
        eng.ensure_levels(&[level], 1);
        let mut all: Vec<[i8; 3]> = Vec::new();
        for x in -1i8..=1 {
            for y in -1i8..=1 {
                for z in -1i8..=1 {
                    if [x, y, z] != [0, 0, 0] {
                        all.push([x, y, z]);
                    }
                }
            }
        }
        for (name, dirs) in [("parent_pair", vec![[1, 0, 0]]), ("sibling_group", all)] {
            let nsrc = 8 * dirs.len();
            let u: Vec<f64> = (0..nsrc * nd).map(|i| (i as f64 * 0.13).sin()).collect();
            let sources: Vec<usize> = (0..nsrc).collect();
            let src = eng.source_spectra(&sources, nsrc, &u, nd, 1);
            let mut eb = EdgeBatch::default();
            eb.clear(level);
            let pos = |c: usize| [(c >> 2) as i8 & 1, (c >> 1) as i8 & 1, c as i8 & 1];
            for t in 0..8 {
                for (di, d) in dirs.iter().enumerate() {
                    for s in 0..8 {
                        let off: [i8; 3] =
                            std::array::from_fn(|a| -2 * d[a] + pos(t)[a] - pos(s)[a]);
                        if off.iter().any(|o| o.abs() >= 2) {
                            eb.push_edge(offset_index(off), src.index(8 * di + s));
                        }
                    }
                }
                eb.end_target(t as u32);
            }
            let edges = eb.num_edges();
            let mut scratch = eng.new_scratch(BATCH_TARGETS);
            g.bench_function(
                format!("blocked_hadamard_{name}_{edges}edges_order{order}"),
                |b| b.iter(|| eng.hadamard_batch(black_box(&eb), black_box(&src), &mut scratch)),
            );
        }
    }

    // Per-component transforms of the batched path (the pruned small
    // DFTs) against the general real FFT on the same torus, 64 transforms
    // per sample: a source forward on its [0,p)³ corner, and a target
    // inverse evaluated at the surface points.
    const REPS: usize = 64;
    for order in [4usize, 6, 8] {
        let n = 2 * order;
        let dft = PrunedDft3::new(order);
        let rfft = RFft3::new(n);
        let surf = surface_grid_indices(order);
        let corner: Vec<f64> = (0..order * order * order)
            .map(|i| (i as f64 * 0.13).sin())
            .collect();
        let mut full = vec![0.0; n * n * n];
        for (i, &v) in corner.iter().enumerate() {
            let (x, y, z) = (i / (order * order), (i / order) % order, i % order);
            full[(x * n + y) * n + z] = v;
        }
        let gh = dft.spectrum_len();
        let (mut re, mut im) = (vec![0.0; gh], vec![0.0; gh]);
        let mut dsc = DftScratch::default();
        let mut spec = vec![Complex::ZERO; gh];
        let mut fsc = RFftScratch::default();
        g.bench_function(format!("pruned_forward_x{REPS}_order{order}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    dft.forward(black_box(&corner), order, &mut re, &mut im, &mut dsc);
                }
            })
        });
        g.bench_function(format!("rfft3_forward_x{REPS}_order{order}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    rfft.forward_with(black_box(&full), &mut spec, &mut fsc);
                }
            })
        });
        let mut out = vec![0.0; surf.len()];
        g.bench_function(format!("pruned_inverse_x{REPS}_order{order}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    dft.inverse_at(black_box(&re), &im, &surf, &mut out, 1, &mut dsc);
                }
            })
        });
        // The general inverse consumes its spectrum, so each rep restores
        // it first (a copy, small next to the transform).
        let spec0 = spec.clone();
        let mut grid = vec![0.0; n * n * n];
        g.bench_function(format!("rfft3_inverse_x{REPS}_order{order}"), |b| {
            b.iter(|| {
                for _ in 0..REPS {
                    spec.copy_from_slice(&spec0);
                    rfft.inverse_with(black_box(&mut spec), &mut grid, &mut fsc);
                }
            })
        });
    }

    g.finish();
}

criterion_group!(benches, bench_m2l);
criterion_main!(benches);
