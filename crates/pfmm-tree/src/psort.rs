//! Multithreaded stable LSD radix sort on `(Morton rank, gid)`.
//!
//! The paper reports the parallel sort as the dominant setup cost (15 of
//! 27 seconds at 65,536 ranks); within a rank the seed implementation
//! spent that time in `sort_unstable_by_key(|r| (r.key_rank(), r.gid))`,
//! which re-derives the 90-bit Morton rank from the coordinates on
//! *every comparison*. This module replaces the local sort with a
//! least-significant-digit radix sort over the 160-bit composite key
//! `(rank: u128, gid: u64)`: keys are derived once per record, then
//! sorted in digit passes (per-thread histogram, exclusive prefix sum,
//! stable scatter). Large arrays fuse adjacent active bytes into 16-bit
//! digits, halving the pass count; small ones keep 8-bit digits, whose
//! 256-bin bookkeeping amortizes at any size.
//!
//! # Determinism
//!
//! Point gids are globally unique, so the composite key is unique per
//! record and *any* correct sort — stable or not — produces the same
//! permutation as the serial `sort_unstable_by_key`. LSD radix is
//! additionally stable by construction (each pass scatters chunk
//! fragments in input order at per-(thread, digit) offsets), so the
//! equality holds byte-for-byte regardless of worker count; the
//! property tests in this module pin it on 1/2/8 threads against
//! random, duplicate-key, and coincident-point inputs.
//!
//! # Pass skipping
//!
//! The composite key spans 20 bytes, but `rank < 8^MAX_DEPTH = 2^90`
//! zeroes the top bytes and real inputs rarely vary in more than a few
//! gid bytes. One AND/OR reduction over the keys (folded into the
//! key-derivation pass) detects bytes on which all records agree; those
//! passes are skipped entirely, and the surviving ~12–15 active bytes
//! fuse pairwise into ~6–8 scatter passes on large arrays.

use crate::par::{chunk_cuts, SetupPar};
use crate::point::PointRec;

/// One sortable record: the composite key plus the index of the payload
/// record it came from (payloads are gathered once at the end, so the
/// digit passes move 32-byte entries instead of 56-byte `PointRec`s).
#[derive(Clone, Copy, Default)]
struct Ent {
    rank: u128,
    gid: u64,
    idx: u32,
}

impl Ent {
    /// Composite-key byte `b`, little-endian: bytes 0..8 are the gid
    /// (least significant field), bytes 8..24 the rank.
    #[inline(always)]
    fn byte(&self, b: usize) -> usize {
        if b < 8 {
            ((self.gid >> (8 * b)) & 0xFF) as usize
        } else {
            ((self.rank >> (8 * (b - 8))) & 0xFF) as usize
        }
    }

    /// Digit value for one pass.
    #[inline(always)]
    fn digit(&self, d: DigitSpec) -> usize {
        match d.hi {
            None => self.byte(d.lo),
            Some(h) => self.byte(d.lo) | (self.byte(h) << 8),
        }
    }
}

/// One LSD pass: a single active key byte, or two fused into a 16-bit
/// digit (`hi` the more significant). Fusing *active* bytes — even
/// non-adjacent ones — is sound: constant bytes order nothing, and the
/// passes still consume the varying bytes least-significant first.
#[derive(Clone, Copy)]
struct DigitSpec {
    lo: usize,
    hi: Option<usize>,
}

impl DigitSpec {
    fn bins(self) -> usize {
        if self.hi.is_some() {
            1 << 16
        } else {
            1 << 8
        }
    }
}

/// Below this many records the 65,536-bin histogram/prefix bookkeeping
/// of fused digits outweighs the saved passes; use 8-bit digits.
const PAIR_MIN: usize = 1 << 16;

/// Pass plan over the active bytes, least significant first.
fn digit_plan(active: &[usize], n: usize) -> Vec<DigitSpec> {
    if n < PAIR_MIN {
        return active
            .iter()
            .map(|&b| DigitSpec { lo: b, hi: None })
            .collect();
    }
    active
        .chunks(2)
        .map(|c| DigitSpec {
            lo: c[0],
            hi: c.get(1).copied(),
        })
        .collect()
}

/// Total composite-key bytes: 8 gid + 16 rank (the top rank bytes are
/// always skipped via the AND/OR reduction since rank < 2^90).
const KEY_BYTES: usize = 24;

/// Below this many records the scoped-thread setup costs more than the
/// sort; fall back to a single-threaded pass structure.
const PAR_MIN: usize = 1 << 14;

/// Sort points by `(key_rank(), gid)` — bitwise the same permutation as
/// `pts.sort_unstable_by_key(|r| (r.key_rank(), r.gid))`, which is what
/// [`SetupPar::Serial`] runs.
pub fn sort_points(par: SetupPar, mut pts: Vec<PointRec>) -> Vec<PointRec> {
    match par {
        SetupPar::Serial => {
            pts.sort_unstable_by_key(|r| (r.key_rank(), r.gid));
            pts
        }
        SetupPar::Threads(t) => {
            let ents = build_ents(t, &pts, |r| r.key_rank());
            gather(pts, radix_sort(t, ents))
        }
    }
}

/// Sort pre-keyed records by `(key, gid)` — the bitonic backend derives
/// Morton ranks up front for its compare-split network, so the local
/// sort receives `(rank, record)` pairs. Serial runs the original
/// `sort_unstable_by_key(|(k, r)| (*k, r.gid))`.
pub fn sort_keyed(par: SetupPar, mut recs: Vec<(u128, PointRec)>) -> Vec<(u128, PointRec)> {
    match par {
        SetupPar::Serial => {
            recs.sort_unstable_by_key(|(k, r)| (*k, r.gid));
            recs
        }
        SetupPar::Threads(t) => {
            let ents = build_ents(t, &recs, |&(k, _)| k);
            gather(recs, radix_sort(t, ents))
        }
    }
}

/// Derive each record's Morton rank in parallel (the derivation walks
/// 30 levels of bit interleaving per point — the expensive part the
/// serial comparison sort repeats O(n log n) times).
pub fn ranks_of(par: SetupPar, pts: &[PointRec]) -> Vec<u128> {
    let t = par.threads();
    if t <= 1 || pts.len() < PAR_MIN {
        return pts.iter().map(|r| r.key_rank()).collect();
    }
    let cuts = chunk_cuts(t, pts.len());
    let mut out = vec![0u128; pts.len()];
    let mut tasks: Vec<(&[PointRec], &mut [u128])> = Vec::new();
    let mut rest = &mut out[..];
    for w in cuts.windows(2) {
        let (window, tail) = rest.split_at_mut(w[1] - w[0]);
        rest = tail;
        tasks.push((&pts[w[0]..w[1]], window));
    }
    std::thread::scope(|scope| {
        for (chunk, window) in tasks {
            scope.spawn(move || {
                for (r, o) in chunk.iter().zip(window.iter_mut()) {
                    *o = r.key_rank();
                }
            });
        }
    });
    out
}

trait GidOf {
    fn gid_of(&self) -> u64;
}
impl GidOf for PointRec {
    fn gid_of(&self) -> u64 {
        self.gid
    }
}
impl GidOf for (u128, PointRec) {
    fn gid_of(&self) -> u64 {
        self.1.gid
    }
}

/// Key-derivation pass: one `Ent` per record, chunk-parallel.
fn build_ents<R, K>(threads: usize, recs: &[R], key: K) -> Vec<Ent>
where
    R: GidOf + Sync,
    K: Fn(&R) -> u128 + Sync,
{
    let n = recs.len();
    let fill = |chunk: &[R], out: &mut [Ent], base: usize| {
        for (i, (r, e)) in chunk.iter().zip(out.iter_mut()).enumerate() {
            *e = Ent {
                rank: key(r),
                gid: r.gid_of(),
                idx: (base + i) as u32,
            };
        }
    };
    let mut ents = vec![Ent::default(); n];
    if threads <= 1 || n < PAR_MIN {
        fill(recs, &mut ents, 0);
        return ents;
    }
    let cuts = chunk_cuts(threads, n);
    let mut tasks: Vec<(&[R], &mut [Ent], usize)> = Vec::new();
    let mut rest = &mut ents[..];
    for w in cuts.windows(2) {
        let (window, tail) = rest.split_at_mut(w[1] - w[0]);
        rest = tail;
        tasks.push((&recs[w[0]..w[1]], window, w[0]));
    }
    let fill = &fill;
    std::thread::scope(|scope| {
        for (chunk, window, base) in tasks {
            scope.spawn(move || fill(chunk, window, base));
        }
    });
    ents
}

/// Bytes on which the records actually differ, least significant first:
/// byte `b` needs a pass iff the AND and OR of all composite keys
/// disagree on it.
fn active_bytes(ents: &[Ent]) -> Vec<usize> {
    let mut and = (u128::MAX, u64::MAX);
    let mut or = (0u128, 0u64);
    for e in ents {
        and = (and.0 & e.rank, and.1 & e.gid);
        or = (or.0 | e.rank, or.1 | e.gid);
    }
    let (dr, dg) = (and.0 ^ or.0, and.1 ^ or.1);
    (0..KEY_BYTES)
        .filter(|&b| {
            if b < 8 {
                (dg >> (8 * b)) & 0xFF != 0
            } else {
                (dr >> (8 * (b - 8))) & 0xFF != 0
            }
        })
        .collect()
}

/// Stable LSD radix sort of the entry array; returns the sorted entries.
fn radix_sort(threads: usize, mut ents: Vec<Ent>) -> Vec<Ent> {
    let n = ents.len();
    if n < 2 {
        return ents;
    }
    let digits = digit_plan(&active_bytes(&ents), n);
    let mut spare = vec![Ent::default(); n];
    if threads <= 1 || n < PAR_MIN {
        for &d in &digits {
            serial_pass(d, &ents, &mut spare);
            std::mem::swap(&mut ents, &mut spare);
        }
        return ents;
    }
    let cuts = chunk_cuts(threads, n);
    for &d in &digits {
        parallel_pass(d, &cuts, &ents, &mut spare);
        std::mem::swap(&mut ents, &mut spare);
    }
    ents
}

/// One serial counting pass on digit `spec`: histogram, exclusive
/// prefix, stable scatter `src -> dst`.
fn serial_pass(spec: DigitSpec, src: &[Ent], dst: &mut [Ent]) {
    let bins = spec.bins();
    let mut hist = vec![0usize; bins];
    for e in src {
        hist[e.digit(spec)] += 1;
    }
    let mut off = hist;
    let mut acc = 0;
    for o in off.iter_mut() {
        let count = *o;
        *o = acc;
        acc += count;
    }
    for e in src {
        let d = e.digit(spec);
        dst[off[d]] = *e;
        off[d] += 1;
    }
}

/// Scatter destination shared across workers. Each worker writes the
/// disjoint index set carved out by the per-(thread, digit) offsets, so
/// no two threads ever touch the same element (see the offset
/// construction in [`parallel_pass`]).
struct ScatterOut(*mut Ent);
unsafe impl Send for ScatterOut {}
unsafe impl Sync for ScatterOut {}

/// One parallel counting pass on digit `spec` over fixed contiguous
/// chunks.
///
/// Phase 1 (chunk-parallel): per-thread histograms.
/// Phase 2 (serial, O(bins·t)): exclusive prefix in (digit, thread)
/// order, giving worker `t` its starting offset for each digit —
/// `global digit base + counts of that digit in chunks < t`.
/// Phase 3 (chunk-parallel): each worker scatters its chunk in input
/// order at those offsets. Within a digit, earlier chunks land first
/// and each chunk's records stay in order: the pass is stable, and the
/// output is identical to [`serial_pass`] on the same input.
fn parallel_pass(spec: DigitSpec, cuts: &[usize], src: &[Ent], dst: &mut [Ent]) {
    let bins = spec.bins();
    let t = cuts.len() - 1;
    // Phase 1: per-chunk histograms.
    let hists: Vec<Vec<usize>> = {
        let mut slots: Vec<Vec<usize>> = vec![vec![0; bins]; t];
        std::thread::scope(|scope| {
            let mut rest = &mut slots[..];
            for w in cuts.windows(2) {
                let (slot, tail) = rest.split_at_mut(1);
                rest = tail;
                let chunk = &src[w[0]..w[1]];
                let hist = &mut slot[0];
                scope.spawn(move || {
                    for e in chunk {
                        hist[e.digit(spec)] += 1;
                    }
                });
            }
        });
        slots
    };
    // Phase 2: starting offset of (digit d, chunk k) = sum over all
    // (d', k') with d' < d, plus chunks k' < k within d.
    let mut offs: Vec<Vec<usize>> = vec![vec![0; bins]; t];
    let mut acc = 0usize;
    for d in 0..bins {
        for k in 0..t {
            offs[k][d] = acc;
            acc += hists[k][d];
        }
    }
    debug_assert_eq!(acc, src.len());
    // Phase 3: stable scatter. The (digit, chunk) offset runs partition
    // 0..n, so each destination index is written by exactly one worker.
    let out = ScatterOut(dst.as_mut_ptr());
    let out = &out;
    std::thread::scope(|scope| {
        for (off, w) in offs.into_iter().zip(cuts.windows(2)) {
            let chunk = &src[w[0]..w[1]];
            let mut off = off;
            scope.spawn(move || {
                for e in chunk {
                    let d = e.digit(spec);
                    // SAFETY: off starts at this chunk's disjoint
                    // per-digit ranges (phase 2 partitions 0..n across
                    // (digit, chunk) pairs) and each write advances the
                    // cursor, so every index is written exactly once.
                    unsafe { *out.0.add(off[d]) = *e };
                    off[d] += 1;
                }
            });
        }
    });
}

/// Apply the sorted permutation to the payload records.
fn gather<R: Copy>(recs: Vec<R>, ents: Vec<Ent>) -> Vec<R> {
    ents.into_iter().map(|e| recs[e.idx as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64) -> Vec<PointRec> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                PointRec::scalar(
                    [
                        rng.random::<f64>(),
                        rng.random::<f64>(),
                        rng.random::<f64>(),
                    ],
                    1.0,
                    i as u64,
                )
            })
            .collect()
    }

    /// A handful of coincident clusters: every cluster shares one Morton
    /// key, so the sort is decided by the gid tiebreak.
    fn coincident_points(n: usize, clusters: usize, seed: u64) -> Vec<PointRec> {
        let mut rng = StdRng::seed_from_u64(seed);
        let sites: Vec<[f64; 3]> = (0..clusters)
            .map(|_| {
                [
                    rng.random::<f64>(),
                    rng.random::<f64>(),
                    rng.random::<f64>(),
                ]
            })
            .collect();
        // Shuffled gids: adversarial for stability (descending runs).
        (0..n)
            .map(|i| PointRec::scalar(sites[i % clusters], 1.0, (n - 1 - i) as u64))
            .collect()
    }

    fn serial_reference(mut pts: Vec<PointRec>) -> Vec<PointRec> {
        pts.sort_unstable_by_key(|r| (r.key_rank(), r.gid));
        pts
    }

    fn assert_same(a: &[PointRec], b: &[PointRec]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.gid, y.gid);
            assert_eq!(x.pos, y.pos);
            assert_eq!(x.den, y.den);
        }
    }

    #[test]
    fn radix_matches_serial_permutation_random() {
        for n in [0usize, 1, 2, 100, 5000] {
            let pts = random_points(n, 42 + n as u64);
            let want = serial_reference(pts.clone());
            for threads in [1usize, 2, 8] {
                let got = sort_points(SetupPar::Threads(threads), pts.clone());
                assert_same(&got, &want);
            }
        }
    }

    #[test]
    fn radix_matches_serial_permutation_coincident() {
        for (n, clusters) in [(1000usize, 1usize), (1000, 7), (4096, 64)] {
            let pts = coincident_points(n, clusters, 9);
            let want = serial_reference(pts.clone());
            for threads in [1usize, 2, 8] {
                let got = sort_points(SetupPar::Threads(threads), pts.clone());
                assert_same(&got, &want);
            }
        }
    }

    #[test]
    fn radix_crosses_parallel_threshold() {
        // Above PAR_MIN the chunked histogram/scatter path actually runs.
        let pts = coincident_points(PAR_MIN + 1234, 16, 3);
        let want = serial_reference(pts.clone());
        for threads in [2usize, 8] {
            let got = sort_points(SetupPar::Threads(threads), pts.clone());
            assert_same(&got, &want);
        }
    }

    #[test]
    fn radix_crosses_pair_threshold() {
        // Above PAIR_MIN the active bytes fuse into 16-bit digits.
        let mut pts = random_points(PAIR_MIN + 1000, 11);
        // Splice in coincident runs so the gid tiebreak crosses fused
        // digit boundaries too.
        for (i, p) in pts.iter_mut().enumerate().take(4096) {
            p.pos = [0.125, 0.625, 0.875];
            p.gid = (PAIR_MIN + 4096 - i) as u64;
        }
        let want = serial_reference(pts.clone());
        for threads in [1usize, 8] {
            let got = sort_points(SetupPar::Threads(threads), pts.clone());
            assert_same(&got, &want);
        }
    }

    #[test]
    fn keyed_variant_matches_serial() {
        let pts = coincident_points(3000, 5, 17);
        let keyed: Vec<(u128, PointRec)> = pts.iter().map(|r| (r.key_rank(), *r)).collect();
        let mut want = keyed.clone();
        want.sort_unstable_by_key(|(k, r)| (*k, r.gid));
        for threads in [1usize, 2, 8] {
            let got = sort_keyed(SetupPar::Threads(threads), keyed.clone());
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                assert_eq!(g.0, w.0);
                assert_eq!(g.1.gid, w.1.gid);
            }
        }
    }

    #[test]
    fn serial_mode_is_the_comparison_sort() {
        let pts = random_points(500, 23);
        assert_same(
            &sort_points(SetupPar::Serial, pts.clone()),
            &serial_reference(pts),
        );
    }

    #[test]
    fn ranks_of_matches_per_record_derivation() {
        let pts = random_points(PAR_MIN + 100, 5);
        let want: Vec<u128> = pts.iter().map(|r| r.key_rank()).collect();
        for par in [
            SetupPar::Serial,
            SetupPar::Threads(1),
            SetupPar::Threads(2),
            SetupPar::Threads(8),
        ] {
            assert_eq!(ranks_of(par, &pts), want);
        }
    }

    #[test]
    fn active_bytes_skips_constant_bytes() {
        // All gids equal, ranks equal: nothing active.
        let pts: Vec<PointRec> = (0..10)
            .map(|_| PointRec::scalar([0.25, 0.5, 0.75], 1.0, 7))
            .collect();
        let ents = build_ents(1, &pts, |r| r.key_rank());
        assert!(active_bytes(&ents).is_empty());
        // Distinct gids under 256: exactly byte 0.
        let pts: Vec<PointRec> = (0..10)
            .map(|i| PointRec::scalar([0.25, 0.5, 0.75], 1.0, i as u64))
            .collect();
        let ents = build_ents(1, &pts, |r| r.key_rank());
        assert_eq!(active_bytes(&ents), vec![0]);
    }
}
