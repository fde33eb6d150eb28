//! Host probe: what this machine can do right now, measured without
//! calling pfmm, so phase rates can be read as a share of the hardware
//! and drift between runs can be told apart from a change in the code.

use std::hint::black_box;
use std::time::Instant;

/// Arrays of the triad are each at least four times this last-level
/// cache size (105 MiB on the reference host).
const LLC_BYTES: usize = 105 << 20;

/// Multiply-add throughput in GF/s on in-cache data, over two threads:
/// independent accumulator lanes the compiler can keep in vector
/// registers, two flops per lane step. Best of five short trials.
pub fn fma_gflops() -> f64 {
    const LANES: usize = 32;
    const STEPS: usize = 4_000_000;
    let trial = || {
        let t = Instant::now();
        std::thread::scope(|s| {
            for k in 0..2 {
                s.spawn(move || {
                    let mut acc = [0.0f64; LANES];
                    let x = black_box(0.999_999_9f64);
                    let y = black_box(1e-7 * (k + 1) as f64);
                    for _ in 0..STEPS {
                        for a in acc.iter_mut() {
                            *a = *a * x + y;
                        }
                    }
                    black_box(acc);
                });
            }
        });
        (2 * 2 * LANES * STEPS) as f64 / t.elapsed().as_secs_f64() * 1e-9
    };
    (0..5).map(|_| trial()).fold(0.0, f64::max)
}

/// STREAM-style triad `a = b + s·c` over two threads, in GB/s counted as
/// 24 bytes per element. Each array is 4× the last-level cache; the
/// median of three timed passes after one untimed first-touch pass.
pub fn triad_gbs() -> f64 {
    let n = 4 * LLC_BYTES / 8;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let pass = |a: &mut [f64], s: f64| {
        let t = Instant::now();
        let half = n / 2;
        let (a0, a1) = a.split_at_mut(half);
        std::thread::scope(|sc| {
            for (ax, off) in [(a0, 0usize), (a1, half)] {
                let (b, c) = (&b[off..off + ax.len()], &c[off..off + ax.len()]);
                sc.spawn(move || {
                    for ((x, y), z) in ax.iter_mut().zip(b).zip(c) {
                        *x = y + s * z;
                    }
                });
            }
        });
        (24 * n) as f64 / t.elapsed().as_secs_f64() * 1e-9
    };
    pass(&mut a, 3.0);
    let mut rates: Vec<f64> = (0..3).map(|k| pass(&mut a, black_box(k as f64))).collect();
    black_box(&a);
    rates.sort_by(f64::total_cmp);
    rates[1]
}
