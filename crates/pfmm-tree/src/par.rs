//! Intra-rank shared-memory parallelism, shared by the setup pipeline
//! (sort/tree/lists, this crate) and the evaluation phases
//! (`pfmm-core`, which re-exports this module as `pfmm_core::par`).
//!
//! The paper notes (§IV) that "the S2U, D2T, ULI, WLI, VLI, XLI steps can
//! be implemented in parallel" — each visits target octants independently
//! and writes disjoint per-octant output — while U2U and D2D would need
//! Euler-tour techniques it does not use. This module parallelizes
//! exactly that set on a host thread pool: octants are split into
//! contiguous index ranges, and each worker receives the matching
//! disjoint window of the output array, so the parallelism is safe by
//! construction (no atomics, no locks on the data path).
//!
//! The setup engine (DESIGN.md §13) reuses the same machinery: the radix
//! sort, octree refinement, and interaction-list rows all decompose into
//! contiguous index ranges whose outputs are reassembled in input order,
//! so every parallel setup stage is bitwise identical to its serial
//! counterpart.

/// How much intra-rank parallelism the setup pipeline may use.
///
/// `Serial` is the original single-threaded path — comparison sorts and
/// plain loops — kept as the ablation baseline. `Threads(t)` enables the
/// radix sort and range-parallel construction with `t` workers; both
/// produce bitwise-identical structures (property-tested), so the choice
/// is numerics-free.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetupPar {
    /// Original serial path (comparison sort, sequential loops).
    Serial,
    /// Radix sort + range-parallel construction on this many workers.
    Threads(usize),
}

impl SetupPar {
    /// Worker count for range-parallel stages (`Serial` runs inline).
    pub fn threads(self) -> usize {
        match self {
            SetupPar::Serial => 1,
            SetupPar::Threads(t) => t.max(1),
        }
    }
}

/// Process octants `0..noct` in parallel: the index space is split into
/// up to `threads` contiguous ranges, and each worker gets the matching
/// window of `out` (`offset_of(i)` maps octant `i` to its element offset;
/// it must be monotone with `offset_of(noct) == out.len()`).
///
/// `work(range, window, base)` processes octants `range` writing into
/// `window`, whose element 0 corresponds to global offset `base`
/// (= `offset_of(range.start)`); it returns the flops it performed.
/// Returns the summed flops.
///
/// With `threads <= 1` the work runs inline on the caller's thread.
pub fn par_windows<F>(
    threads: usize,
    noct: usize,
    out: &mut [f64],
    offset_of: &(dyn Fn(usize) -> usize + Sync),
    work: F,
) -> u64
where
    F: Fn(std::ops::Range<usize>, &mut [f64], usize) -> u64 + Sync,
{
    // Contiguous octant ranges of roughly equal length. (Phase work
    // correlates with octant count well enough when no better weight is
    // known; phases with per-octant interaction counts should use
    // `par_windows_weighted`.)
    let t = threads.min(noct.max(1));
    if t <= 1 || noct < 2 {
        debug_assert_eq!(offset_of(noct), out.len(), "offset map covers the output");
        return work(0..noct, out, 0);
    }
    let mut cuts = Vec::with_capacity(t + 1);
    for k in 0..=t {
        cuts.push(k * noct / t);
    }
    par_windows_at(&cuts, noct, out, offset_of, work)
}

/// [`par_windows`] with interaction-count-weighted range boundaries:
/// `weight[i]` estimates octant `i`'s work, and the contiguous cuts
/// equalize cumulative weight instead of octant count — adaptive trees
/// concentrate their U/V interactions in the refined regions, which
/// leaves count-based chunks nearly idle.
///
/// The weights steer only where the ranges are cut; the per-octant
/// arithmetic (and its floating-point order) is unchanged.
pub fn par_windows_weighted<F>(
    threads: usize,
    weights: &[u64],
    out: &mut [f64],
    offset_of: &(dyn Fn(usize) -> usize + Sync),
    work: F,
) -> u64
where
    F: Fn(std::ops::Range<usize>, &mut [f64], usize) -> u64 + Sync,
{
    let noct = weights.len();
    let t = threads.min(noct.max(1));
    if t <= 1 || noct < 2 {
        debug_assert_eq!(offset_of(noct), out.len(), "offset map covers the output");
        return work(0..noct, out, 0);
    }
    let cuts = weighted_cuts(t, weights);
    par_windows_at(&cuts, noct, out, offset_of, work)
}

/// Contiguous cut points splitting `weights` into `parts` ranges of
/// roughly equal cumulative weight (cut `k` is the first index whose
/// prefix sum reaches `k/parts` of the total). Monotone, first 0, last
/// `weights.len()`.
pub fn weighted_cuts(parts: usize, weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    let total: u128 = weights.iter().map(|&w| w as u128).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    if total == 0 {
        // Degenerate: fall back to count-based cuts.
        for k in 1..=parts {
            cuts.push(k * n / parts.max(1));
        }
        return cuts;
    }
    let mut acc: u128 = 0;
    let mut i = 0;
    for k in 1..parts {
        let target = total * k as u128 / parts as u128;
        while i < n && acc < target {
            acc += weights[i] as u128;
            i += 1;
        }
        cuts.push(i);
    }
    cuts.push(n);
    cuts
}

fn par_windows_at<F>(
    cuts: &[usize],
    noct: usize,
    out: &mut [f64],
    offset_of: &(dyn Fn(usize) -> usize + Sync),
    work: F,
) -> u64
where
    F: Fn(std::ops::Range<usize>, &mut [f64], usize) -> u64 + Sync,
{
    debug_assert_eq!(offset_of(noct), out.len(), "offset map covers the output");
    let t = cuts.len() - 1;
    if t <= 1 || noct < 2 {
        return work(0..noct, out, 0);
    }

    let mut tasks: Vec<(std::ops::Range<usize>, &mut [f64], usize)> = Vec::with_capacity(t);
    let mut rest = out;
    let mut consumed = 0usize;
    for k in 0..t {
        let (lo, hi) = (cuts[k], cuts[k + 1]);
        let base = offset_of(lo);
        let end = offset_of(hi);
        debug_assert_eq!(base, consumed);
        let (window, tail) = rest.split_at_mut(end - base);
        rest = tail;
        consumed = end;
        tasks.push((lo..hi, window, base));
    }
    debug_assert!(rest.is_empty());

    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = tasks
            .into_iter()
            .map(|(range, window, base)| scope.spawn(move || work(range, window, base)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("evaluation worker panicked"))
            .sum()
    })
}

/// Parallel map over an index list, each element producing a value; the
/// results come back in input order. Used for the V-list source spectra
/// (each source octant transformed once, independently) and the setup
/// pipeline's per-box interaction-list rows.
pub fn par_map<T, F>(threads: usize, items: &[usize], f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || items.len() < 2 {
        return items.iter().map(|&i| f(i)).collect();
    }
    let next = std::sync::atomic::AtomicUsize::new(0);
    let f = &f;
    let mut slots: Vec<Option<T>> = (0..items.len()).map(|_| None).collect();
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.min(items.len()))
            .map(|_| {
                let next = &next;
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let k = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        if k >= items.len() {
                            break;
                        }
                        mine.push((k, f(items[k])));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("par_map worker panicked"))
            .collect::<Vec<_>>()
    });
    for (k, v) in results {
        slots[k] = Some(v);
    }
    slots
        .into_iter()
        .map(|o| o.expect("every item mapped"))
        .collect()
}

/// [`par_map`] over the index range `0..n` — the common setup-pipeline
/// shape (per-box rows, per-level groups, contiguous chunks).
pub fn par_map_n<T, F>(threads: usize, n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if threads <= 1 || n < 2 {
        return (0..n).map(f).collect();
    }
    let items: Vec<usize> = (0..n).collect();
    par_map(threads, &items, f)
}

/// Contiguous chunk boundaries splitting `0..n` into at most `threads`
/// ranges (`cuts[k]..cuts[k+1]` is worker `k`'s range). Monotone, first
/// 0, last `n`; degenerates to one range when `threads <= 1`.
pub fn chunk_cuts(threads: usize, n: usize) -> Vec<usize> {
    let t = threads.max(1).min(n.max(1));
    (0..=t).map(|k| k * n / t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_cover_and_write_disjointly() {
        let noct = 17;
        let stride = 3;
        let mut out = vec![0.0f64; noct * stride];
        let flops = par_windows(4, noct, &mut out, &|i| i * stride, |range, window, base| {
            let mut n = 0;
            for i in range {
                let w = &mut window[i * stride - base..(i + 1) * stride - base];
                for (j, v) in w.iter_mut().enumerate() {
                    *v = (i * 10 + j) as f64;
                }
                n += 1;
            }
            n
        });
        assert_eq!(flops, 17);
        for i in 0..noct {
            for j in 0..stride {
                assert_eq!(out[i * stride + j], (i * 10 + j) as f64);
            }
        }
    }

    #[test]
    fn single_thread_matches_parallel() {
        let noct = 23;
        let run = |threads| {
            let mut out = vec![0.0f64; noct * 2];
            par_windows(
                threads,
                noct,
                &mut out,
                &|i| i * 2,
                |range, window, base| {
                    for i in range {
                        window[i * 2 - base] = (i * i) as f64;
                        window[i * 2 + 1 - base] = -(i as f64);
                    }
                    0
                },
            );
            out
        };
        assert_eq!(run(1), run(5));
    }

    #[test]
    fn irregular_offsets() {
        // Variable-size per-octant windows (like per-leaf point counts).
        let sizes = [3usize, 0, 5, 1, 0, 2];
        let offs: Vec<usize> = sizes
            .iter()
            .scan(0, |acc, s| {
                let o = *acc;
                *acc += s;
                Some(o)
            })
            .chain(std::iter::once(sizes.iter().sum()))
            .collect();
        let total: usize = sizes.iter().sum();
        let mut out = vec![0.0f64; total];
        par_windows(
            3,
            sizes.len(),
            &mut out,
            &|i| offs[i],
            |range, window, base| {
                for i in range.clone() {
                    for k in offs[i]..offs[i + 1] {
                        window[k - base] = i as f64;
                    }
                }
                0
            },
        );
        let mut want = Vec::new();
        for (i, s) in sizes.iter().enumerate() {
            want.extend(std::iter::repeat_n(i as f64, *s));
        }
        assert_eq!(out, want);
    }

    #[test]
    fn weighted_cuts_balance_cumulative_weight() {
        // Heavy tail: count-based cuts would give three idle ranges.
        let w: Vec<u64> = (0..16).map(|i| if i < 12 { 0 } else { 100 }).collect();
        let cuts = weighted_cuts(4, &w);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&16));
        assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
        let total: u64 = w.iter().sum();
        for k in 0..4 {
            let s: u64 = w[cuts[k]..cuts[k + 1]].iter().sum();
            // No range exceeds its fair share by more than one item.
            assert!(s <= total / 4 + 100, "range {k} carries {s}");
        }
    }

    #[test]
    fn weighted_cuts_zero_weights_fall_back() {
        let cuts = weighted_cuts(3, &[0u64; 9]);
        assert_eq!(cuts, vec![0, 3, 6, 9]);
    }

    #[test]
    fn weighted_windows_match_uniform_numerics() {
        let noct = 29;
        let weights: Vec<u64> = (0..noct as u64).map(|i| i * i % 17).collect();
        let run_uniform = || {
            let mut out = vec![0.0f64; noct * 2];
            par_windows(4, noct, &mut out, &|i| i * 2, fill);
            out
        };
        let run_weighted = || {
            let mut out = vec![0.0f64; noct * 2];
            par_windows_weighted(4, &weights, &mut out, &|i| i * 2, fill);
            out
        };
        fn fill(range: std::ops::Range<usize>, window: &mut [f64], base: usize) -> u64 {
            for i in range {
                window[i * 2 - base] = (i * 3) as f64;
                window[i * 2 + 1 - base] = -(i as f64);
            }
            0
        }
        assert_eq!(run_uniform(), run_weighted());
    }

    #[test]
    fn par_map_ordered() {
        let items: Vec<usize> = (0..50).map(|i| i * 2).collect();
        let got = par_map(4, &items, |i| i + 1);
        let want: Vec<usize> = items.iter().map(|i| i + 1).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn par_map_n_ordered() {
        assert_eq!(
            par_map_n(4, 37, |i| i * i),
            (0..37).map(|i| i * i).collect::<Vec<_>>()
        );
        assert_eq!(par_map_n(1, 3, |i| i), vec![0, 1, 2]);
        assert!(par_map_n(4, 0, |i| i).is_empty());
    }

    #[test]
    fn chunk_cuts_cover() {
        assert_eq!(chunk_cuts(1, 10), vec![0, 10]);
        assert_eq!(chunk_cuts(4, 0), vec![0, 0]);
        let cuts = chunk_cuts(4, 10);
        assert_eq!(cuts.first(), Some(&0));
        assert_eq!(cuts.last(), Some(&10));
        assert!(cuts.windows(2).all(|c| c[0] <= c[1]));
    }
}
