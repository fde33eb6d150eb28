//! Up-density communication: the paper's Algorithm 3 (hypercube
//! reduce-and-scatter) and the owner-based scheme it replaced.
//!
//! After the local upward pass, each rank holds *partial* upward densities
//! for the octants it shares with other ranks (partial = contributions of
//! its own leaves only). Algorithm 3 simultaneously (a) sums the partials
//! and (b) delivers the complete densities to every rank that uses the
//! octant, in `log p` hypercube rounds with per-rank traffic
//! `O(m (3√p − 2))` — the bound derived in §III-C.
//!
//! The owner-based scheme ("each octant was assigned an owner, the owner
//! received partials and sent the result to each user") is kept as
//! [`reduce_scatter_naive`]: it is the fallback for non-power-of-two
//! communicators and the baseline of the communication ablation bench —
//! the paper reports it "worked well up to 32K processes, but failed in
//! the 64K case".

use pfmm_morton::{MortonKey, RANK_SPAN};
use pfmm_mpisim::collectives::alltoallv;
use pfmm_mpisim::{CollectiveKind, Comm};
use pfmm_tree::Let;

/// The rank-space intervals of the "user region" of an octant: its
/// parent's colleagues-and-self (the area whose owners may appear in an
/// interaction list involving β). Root-adjacent octants are used
/// everywhere.
fn halo_intervals(key: &MortonKey) -> Vec<(u128, u128)> {
    match key.parent() {
        None => vec![(0, RANK_SPAN - 1)],
        Some(par) => par
            .colleagues_and_self()
            .iter()
            .map(|c| (c.rank(), c.rank_end()))
            .collect(),
    }
}

fn intervals_overlap_range(intervals: &[(u128, u128)], lo: u128, hi: u128) -> bool {
    lo < hi && intervals.iter().any(|&(a, b)| a < hi && lo <= b)
}

/// Ranks whose regions intersect the halo of `key`.
fn halo_ranks(key: &MortonKey, region: &[u128]) -> Vec<usize> {
    let p = region.len() - 1;
    let mut out = Vec::new();
    for &(a, b) in &halo_intervals(key) {
        let lo = region[1..p].partition_point(|&s| s <= a);
        let hi = region[1..p].partition_point(|&s| s <= b);
        out.extend(lo..=hi);
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// True if more than one rank contributes to or uses `key` — the paper's
/// "shared octant" predicate.
pub fn is_shared(key: &MortonKey, region: &[u128]) -> bool {
    halo_ranks(key, region).len() > 1
}

/// One entry of the circulating working set.
struct SharedEntry {
    key: MortonKey,
    halo: Vec<(u128, u128)>,
    dens: Vec<f64>,
}

/// Gather this rank's shared octants with their partial densities.
fn collect_shared(l: &Let, ulen: usize, u: &[f64]) -> Vec<SharedEntry> {
    let mut out = Vec::new();
    for i in 0..l.len() {
        if !l.local[i] {
            continue;
        }
        let key = l.octs[i];
        if halo_ranks(&key, &l.region).len() < 2 {
            continue;
        }
        out.push(SharedEntry {
            key,
            halo: halo_intervals(&key),
            dens: u[i * ulen..(i + 1) * ulen].to_vec(),
        });
    }
    out
}

/// Merge-by-key, summing densities of duplicates (Algorithm 3 steps
/// 9–10).
fn merge_entries(mut entries: Vec<SharedEntry>) -> Vec<SharedEntry> {
    entries.sort_by_key(|e| e.key);
    let mut out: Vec<SharedEntry> = Vec::with_capacity(entries.len());
    for e in entries {
        match out.last_mut() {
            Some(last) if last.key == e.key => {
                for (a, b) in last.dens.iter_mut().zip(&e.dens) {
                    *a += b;
                }
            }
            _ => out.push(e),
        }
    }
    out
}

/// Write completed densities back into the rank's density array.
fn write_back(l: &Let, ulen: usize, u: &mut [f64], entries: &[SharedEntry]) -> usize {
    let mut updated = 0;
    for e in entries {
        if let Some(i) = l.find(&e.key) {
            u[i * ulen..(i + 1) * ulen].copy_from_slice(&e.dens);
            updated += 1;
        }
    }
    updated
}

const TAG_HC_KEYS: u32 = 0x10;
const TAG_HC_DENS: u32 = 0x11;

/// Algorithm 3: hypercube reduce-and-scatter of shared upward densities.
///
/// `u` is the packed per-octant density array (stride `ulen`, aligned
/// with `l.octs`); on return, every octant this rank uses holds its
/// complete (globally summed) density. Requires a power-of-two
/// communicator, like the paper ("we assume that the size of the MPI
/// communicator is a power of two").
///
/// Returns the number of octants whose density was updated.
///
/// # Panics
/// Panics if `c.size()` is not a power of two.
pub fn reduce_scatter_hypercube(c: &Comm, l: &Let, ulen: usize, u: &mut [f64]) -> usize {
    let p = c.size();
    assert!(
        p.is_power_of_two(),
        "Algorithm 3 requires a power-of-two communicator"
    );
    if p == 1 {
        return 0;
    }
    let r = c.rank();
    let d = p.trailing_zeros() as usize;
    let mut set = collect_shared(l, ulen, u);

    for i in (0..d).rev() {
        let bit = 1usize << i;
        let s = r ^ bit;
        // Destination range: the sub-cube containing s reachable in the
        // remaining rounds (steps 2–3).
        let u_s = s & (p - bit);
        let u_e = s | (bit - 1);
        let dest_lo = l.region[u_s];
        let dest_hi = l.region[u_e + 1];
        let mut keys = Vec::new();
        let mut dens = Vec::new();
        for e in &set {
            if intervals_overlap_range(&e.halo, dest_lo, dest_hi) {
                keys.push(e.key);
                dens.extend_from_slice(&e.dens);
            }
        }
        c.collective(CollectiveKind::HypercubeReduce, || {
            c.send_vec(s, TAG_HC_KEYS, keys);
            c.send_vec(s, TAG_HC_DENS, dens);
        });

        // Prune entries useless to our own remaining sub-cube (steps 5–7).
        let q_s = r & (p - bit);
        let q_e = r | (bit - 1);
        let keep_lo = l.region[q_s];
        let keep_hi = l.region[q_e + 1];
        set.retain(|e| intervals_overlap_range(&e.halo, keep_lo, keep_hi));

        // Receive and fold in the partner's contribution (steps 8–10).
        let rkeys = c.recv::<MortonKey>(s, TAG_HC_KEYS);
        let rdens = c.recv::<f64>(s, TAG_HC_DENS);
        debug_assert_eq!(rdens.len(), rkeys.len() * ulen);
        for (j, key) in rkeys.into_iter().enumerate() {
            set.push(SharedEntry {
                key,
                halo: halo_intervals(&key),
                dens: rdens[j * ulen..(j + 1) * ulen].to_vec(),
            });
        }
        set = merge_entries(set);
    }
    write_back(l, ulen, u, &set)
}

/// The owner-based reduction the paper replaced: contributors send
/// partials to each shared octant's owner (the rank whose region contains
/// its anchor), the owner sums and sends the result to every user.
///
/// Works for any communicator size; used as the non-power-of-two fallback
/// and as the ablation baseline (its aggregate message count grows like
/// the user counts, which for coarse octants approach `p`).
pub fn reduce_scatter_naive(c: &Comm, l: &Let, ulen: usize, u: &mut [f64]) -> usize {
    let p = c.size();
    if p == 1 {
        return 0;
    }
    let r = c.rank();
    let owner_of =
        |key: &MortonKey| -> usize { l.region[1..p].partition_point(|&s| s <= key.rank()) };

    // Phase 1: partials to owners.
    let set = collect_shared(l, ulen, u);
    let mut out_keys: Vec<Vec<MortonKey>> = vec![Vec::new(); p];
    let mut out_dens: Vec<Vec<f64>> = vec![Vec::new(); p];
    for e in &set {
        let o = owner_of(&e.key);
        out_keys[o].push(e.key);
        out_dens[o].extend_from_slice(&e.dens);
    }
    let in_keys = alltoallv(c, out_keys);
    let in_dens = alltoallv(c, out_dens);

    // Owner sums.
    let mut owned: Vec<SharedEntry> = Vec::new();
    for (keys, dens) in in_keys.into_iter().zip(in_dens) {
        for (j, key) in keys.into_iter().enumerate() {
            owned.push(SharedEntry {
                key,
                halo: halo_intervals(&key),
                dens: dens[j * ulen..(j + 1) * ulen].to_vec(),
            });
        }
    }
    let owned = merge_entries(owned);

    // Phase 2: complete densities to users.
    let mut out_keys: Vec<Vec<MortonKey>> = vec![Vec::new(); p];
    let mut out_dens: Vec<Vec<f64>> = vec![Vec::new(); p];
    for e in &owned {
        debug_assert_eq!(owner_of(&e.key), r);
        for k in halo_ranks(&e.key, &l.region) {
            out_keys[k].push(e.key);
            out_dens[k].extend_from_slice(&e.dens);
        }
    }
    let in_keys = alltoallv(c, out_keys);
    let in_dens = alltoallv(c, out_dens);
    let mut complete = Vec::new();
    for (keys, dens) in in_keys.into_iter().zip(in_dens) {
        for (j, key) in keys.into_iter().enumerate() {
            complete.push(SharedEntry {
                key,
                halo: Vec::new(),
                dens: dens[j * ulen..(j + 1) * ulen].to_vec(),
            });
        }
    }
    write_back(l, ulen, u, &complete)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distrib::uniform_cube;
    use pfmm_mpisim::collectives::allgatherv;
    use pfmm_mpisim::run;
    use pfmm_tree::{build_let, points_to_octree};

    /// Fill per-octant "densities" deterministically from the key so each
    /// rank's partial is identifiable: partial(β, rank) = hash(β) + rank.
    fn fill_partials(l: &Let, ulen: usize, rank: usize) -> Vec<f64> {
        let mut u = vec![0.0; l.len() * ulen];
        for i in 0..l.len() {
            if !l.local[i] {
                continue;
            }
            let h = (l.octs[i].rank() % 1000) as f64;
            for j in 0..ulen {
                u[i * ulen + j] = h + rank as f64 + j as f64 * 0.5;
            }
        }
        u
    }

    /// Reference: gather everything, sum by key globally.
    fn global_sums(
        c: &Comm,
        l: &Let,
        ulen: usize,
        u: &[f64],
    ) -> std::collections::HashMap<MortonKey, Vec<f64>> {
        let mut keys = Vec::new();
        let mut dens = Vec::new();
        for i in 0..l.len() {
            if l.local[i] {
                keys.push(l.octs[i]);
                dens.extend_from_slice(&u[i * ulen..(i + 1) * ulen]);
            }
        }
        let all_keys = allgatherv(c, &keys);
        let all_dens = allgatherv(c, &dens);
        let mut map: std::collections::HashMap<MortonKey, Vec<f64>> = Default::default();
        for (j, k) in all_keys.into_iter().enumerate() {
            let slice = &all_dens[j * ulen..(j + 1) * ulen];
            map.entry(k)
                .and_modify(|v| v.iter_mut().zip(slice).for_each(|(a, b)| *a += b))
                .or_insert_with(|| slice.to_vec());
        }
        map
    }

    fn check_scheme(p: usize, hypercube: bool) {
        let ulen = 3usize;
        let oks = run(p, |c| {
            let pts = uniform_cube(300, 7 + c.rank() as u64, (c.rank() * 300) as u64);
            let t = points_to_octree(c, pts, 8);
            let l = build_let(c, &t);
            let mut u = fill_partials(&l, ulen, c.rank());
            let want = global_sums(c, &l, ulen, &u);
            if hypercube {
                reduce_scatter_hypercube(c, &l, ulen, &mut u);
            } else {
                reduce_scatter_naive(c, &l, ulen, &mut u);
            }
            // Every octant this rank *uses* (it is in the LET) that is
            // shared must now hold the global sum; non-shared local
            // octants keep their local value.
            let mut checked = 0;
            for i in 0..l.len() {
                let key = l.octs[i];
                let complete = &u[i * ulen..(i + 1) * ulen];
                if is_shared(&key, &l.region) {
                    // Ghosts in the LET are exactly the used octants.
                    let w = want.get(&key).map(|v| v.as_slice());
                    if let Some(w) = w {
                        for (a, b) in complete.iter().zip(w) {
                            assert!(
                                (a - b).abs() < 1e-9,
                                "rank {} octant {key:?}: {a} vs {b}",
                                c.rank()
                            );
                        }
                        checked += 1;
                    }
                } else if l.local[i] {
                    let w = want.get(&key).expect("local octant is global");
                    for (a, b) in complete.iter().zip(w) {
                        assert!((a - b).abs() < 1e-12);
                    }
                }
            }
            checked
        });
        assert!(
            oks.iter().sum::<usize>() > 0,
            "some shared octants were exercised"
        );
    }

    #[test]
    fn hypercube_p2() {
        check_scheme(2, true);
    }

    #[test]
    fn hypercube_p4() {
        check_scheme(4, true);
    }

    #[test]
    fn hypercube_p8() {
        check_scheme(8, true);
    }

    #[test]
    fn naive_p3() {
        check_scheme(3, false);
    }

    #[test]
    fn naive_p4() {
        check_scheme(4, false);
    }

    #[test]
    #[should_panic(expected = "rank thread panicked")]
    fn hypercube_rejects_non_power_of_two() {
        run(3, |c| {
            let pts = uniform_cube(30, 1, c.rank() as u64 * 30);
            let t = points_to_octree(c, pts, 8);
            let l = build_let(c, &t);
            let mut u = vec![0.0; l.len()];
            reduce_scatter_hypercube(c, &l, 1, &mut u);
        });
    }

    /// §III-C derives per-rank reduce-and-scatter traffic `O(m(3√p − 2))`
    /// where `m` is the size of a rank's shared-octant data. Check the
    /// measured per-peer traffic (attributed to the HypercubeReduce
    /// class) against that bound, with a 2× allowance for the
    /// implementation constant (keys ride along with the densities) —
    /// and check that *all* of the reduction's traffic carries the
    /// HypercubeReduce attribution.
    #[test]
    fn hypercube_volume_within_paper_bound() {
        let ulen = 3usize;
        let p = 16usize;
        run(p, |c| {
            let pts = uniform_cube(400, 11 + c.rank() as u64, (c.rank() * 400) as u64);
            let t = points_to_octree(c, pts, 8);
            let l = build_let(c, &t);
            let mut u = fill_partials(&l, ulen, c.rank());
            // m: bytes of this rank's shared partials (key + densities
            // per entry), maxed over ranks — the paper's per-rank m.
            let entry_bytes = (std::mem::size_of::<MortonKey>() + ulen * 8) as u64;
            let m_local = collect_shared(&l, ulen, &u).len() as u64 * entry_bytes;
            let m = pfmm_mpisim::collectives::allreduce(c, vec![m_local], std::cmp::max)[0];

            let before = c.stats();
            reduce_scatter_hypercube(c, &l, ulen, &mut u);
            let delta = c.stats().delta_since(&before);
            let hc = delta.kind_totals(CollectiveKind::HypercubeReduce);

            assert!(hc.sent_msgs > 0, "rank {} sent nothing", c.rank());
            assert_eq!(
                hc.sent_bytes, delta.sent_bytes,
                "all reduction traffic is attributed to HypercubeReduce"
            );
            let bound = 2.0 * m as f64 * (3.0 * (p as f64).sqrt() - 2.0);
            assert!(
                (hc.sent_bytes as f64) <= bound,
                "rank {}: sent {} bytes > bound {bound} (m = {m})",
                c.rank(),
                hc.sent_bytes
            );
        });
    }

    #[test]
    fn single_rank_is_noop() {
        run(1, |c| {
            let pts = uniform_cube(50, 2, 0);
            let t = points_to_octree(c, pts, 8);
            let l = build_let(c, &t);
            let mut u = fill_partials(&l, 2, 0);
            let before = u.clone();
            assert_eq!(reduce_scatter_hypercube(c, &l, 2, &mut u), 0);
            assert_eq!(u, before);
        });
    }
}
