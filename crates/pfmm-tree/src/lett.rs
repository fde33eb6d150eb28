//! Local Essential Tree construction — Algorithm 2 of the paper.
//!
//! Each rank's LET is the union of its own leaves, their ancestors, and
//! the *ghost* octants other ranks contribute: rank `k` sends octant
//! `β ∈ B_k` to rank `k'` whenever the colleagues of `β`'s parent overlap
//! `Ω_{k'}` (the "user" test of §III-A). Ghost leaves travel with their
//! points so the U- and X-list direct interactions need no further
//! communication; ghost up-densities are filled in later by the
//! reduce-and-scatter of the evaluation phase.

use crate::dtree::DistTree;
use crate::lists::sorted_dedup;
use crate::par::{chunk_cuts, par_map_n, SetupPar};
use crate::point::PointRec;
use pfmm_morton::{MortonKey, RANK_SPAN};
use pfmm_mpisim::collectives::alltoallv;
use pfmm_mpisim::Comm;

/// The Local Essential Tree: every octant this rank needs to evaluate the
/// potential on its owned leaves, in one Morton-sorted array.
#[derive(Clone, Debug)]
pub struct Let {
    /// All LET octants, Morton-sorted, deduplicated.
    pub octs: Vec<MortonKey>,
    /// Packed `(rank << 5) | level` sort keys, aligned with `octs`. The
    /// interaction-list walks probe the LET thousands of times per box;
    /// comparing precomputed `u128`s keeps those probes from re-deriving
    /// the 90-bit rank interleave on every comparison.
    pub keys: Vec<u128>,
    /// Octant is a leaf of the *global* tree.
    pub is_leaf: Vec<bool>,
    /// Octant is an owned leaf (this rank computes its potentials).
    pub owned: Vec<bool>,
    /// Octant is local (owned leaf or ancestor of one): the set `B_k` the
    /// rank evaluates lists and down-densities for.
    pub local: Vec<bool>,
    /// CSR offsets into [`Let::pts`]: points of octant `i` (nonempty only
    /// for owned leaves and ghost leaves).
    pub pt_off: Vec<usize>,
    /// Point records (owned ones first per octant order, ghosts merged in).
    pub pts: Vec<PointRec>,
    /// Region fence (`p + 1` entries), shared by all ranks.
    pub region: Vec<u128>,
}

impl Let {
    /// Binary search for an exact octant key.
    pub fn find(&self, k: &MortonKey) -> Option<usize> {
        self.keys.binary_search(&k.sort_key()).ok()
    }

    /// Points stored for octant `i`.
    pub fn points_of(&self, i: usize) -> &[PointRec] {
        &self.pts[self.pt_off[i]..self.pt_off[i + 1]]
    }

    /// Number of octants in the LET.
    pub fn len(&self) -> usize {
        self.octs.len()
    }

    /// True when the LET is empty (a rank with an empty region).
    pub fn is_empty(&self) -> bool {
        self.octs.is_empty()
    }

    /// Indices of owned leaves, in Morton order.
    pub fn owned_indices(&self) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.owned[i]).collect()
    }

    /// Contiguous index range `[start, end)` of the subtree rooted at
    /// octant `i` (descendants including `i` itself).
    pub fn subtree_range(&self, key: &MortonKey) -> (usize, usize) {
        let sk = key.sort_key();
        let re = key.rank_end();
        let start = self.keys.partition_point(|&pk| pk < sk);
        let end = self.keys.partition_point(|&pk| (pk >> 5) <= re);
        (start, end)
    }

    /// Heap bytes held by this LET (element counts × element sizes; used
    /// for the serve-layer plan-cache budget accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.octs.len() * size_of::<MortonKey>()
            + self.keys.len() * size_of::<u128>()
            + self.is_leaf.len()
            + self.owned.len()
            + self.local.len()
            + self.pt_off.len() * size_of::<usize>()
            + self.pts.len() * size_of::<crate::PointRec>()
            + self.region.len() * size_of::<u128>()
    }
}

/// Ghost-octant wire record.
#[derive(Copy, Clone)]
struct OctMsg {
    key: MortonKey,
    is_leaf: bool,
    npts: u32,
}

/// The ranks whose regions the "user" area of `β` (the colleagues of its
/// parent, §III-A) intersects. The root and level-1 octants are used by
/// everyone. Deterministic in (β, region): senders and receivers can
/// derive matching exchange plans without communicating.
pub fn user_ranks(beta: &MortonKey, region: &[u128], out: &mut Vec<usize>) {
    out.clear();
    let p = region.len() - 1;
    let push_interval = |a: u128, b: u128, out: &mut Vec<usize>| {
        let lo = region[1..p].partition_point(|&s| s <= a);
        let hi = region[1..p].partition_point(|&s| s <= b);
        for k in lo..=hi {
            out.push(k);
        }
    };
    match beta.parent() {
        None => push_interval(0, RANK_SPAN - 1, out),
        Some(par) => {
            for c in par.colleagues_and_self() {
                push_interval(c.rank(), c.rank_end(), out);
            }
        }
    }
    sorted_dedup(out);
}

/// Build this rank's LET from its share of the distributed tree
/// (Algorithm 2). The tree's points are *moved* into the LET.
pub fn build_let(c: &Comm, tree: &DistTree) -> Let {
    build_let_with(c, tree, SetupPar::Serial)
}

/// [`build_let`] with a parallelism budget. The ancestor collection and
/// the per-β user-rank derivation are chunk-parallel (both are pure
/// functions of the leaf array and the region fence, reassembled in
/// input order); the message fills, exchanges, and the ghost merge stay
/// serial so every destination sees its octants in the exact order the
/// serial path sends them.
pub fn build_let_with(c: &Comm, tree: &DistTree, par: SetupPar) -> Let {
    let p = c.size();
    let my = c.rank();
    let region = tree.region.clone();
    let t = par.threads();

    // B_k: owned leaves and all their ancestors, with origin bookkeeping.
    let mut b: Vec<(MortonKey, bool, u32)> = Vec::with_capacity(tree.leaves.len() * 2);
    for (i, leaf) in tree.leaves.iter().enumerate() {
        b.push((*leaf, true, i as u32));
    }
    {
        let cuts = chunk_cuts(t, tree.leaves.len());
        let chunks = par_map_n(t, cuts.len() - 1, |k| {
            let mut anc: Vec<MortonKey> = Vec::new();
            for leaf in &tree.leaves[cuts[k]..cuts[k + 1]] {
                anc.extend(leaf.ancestors());
            }
            anc
        });
        let mut anc: Vec<MortonKey> = chunks.into_iter().flatten().collect();
        sorted_dedup(&mut anc);
        for a in anc {
            b.push((a, false, u32::MAX));
        }
    }
    b.sort_unstable_by_key(|(k, _, _)| *k);

    // Step 3–4: route every β ∈ B_k to its user ranks, leaves carrying
    // their points. The user sets are derived in parallel; the fill
    // below walks them in β order, so each destination's message stream
    // is identical to the serial build's.
    let users_of: Vec<Vec<usize>> = par_map_n(t, b.len(), |i| {
        let mut users = Vec::new();
        user_ranks(&b[i].0, &region, &mut users);
        users
    });
    let mut out_octs: Vec<Vec<OctMsg>> = vec![Vec::new(); p];
    let mut out_pts: Vec<Vec<PointRec>> = vec![Vec::new(); p];
    for (&(key, is_leaf, leaf_idx), users) in b.iter().zip(&users_of) {
        for &k in users {
            if k == my {
                continue;
            }
            let pts: &[PointRec] = if is_leaf {
                let i = leaf_idx as usize;
                &tree.pts[tree.leaf_off[i]..tree.leaf_off[i + 1]]
            } else {
                &[]
            };
            out_octs[k].push(OctMsg {
                key,
                is_leaf,
                npts: pts.len() as u32,
            });
            out_pts[k].extend_from_slice(pts);
        }
    }
    let in_octs = alltoallv(c, out_octs);
    let in_pts = alltoallv(c, out_pts);

    // Merge local B with received ghosts; duplicates are non-leaf
    // ancestors shared between contributors (leaves have unique owners).
    struct Entry {
        key: MortonKey,
        is_leaf: bool,
        owned: bool,
        local: bool,
        pts: Vec<PointRec>,
    }
    let mut entries: Vec<Entry> = Vec::with_capacity(b.len() * 2);
    for (key, is_leaf, leaf_idx) in b {
        let pts = if is_leaf {
            let i = leaf_idx as usize;
            tree.pts[tree.leaf_off[i]..tree.leaf_off[i + 1]].to_vec()
        } else {
            Vec::new()
        };
        entries.push(Entry {
            key,
            is_leaf,
            owned: is_leaf,
            local: true,
            pts,
        });
    }
    for (msgs, pts) in in_octs.into_iter().zip(in_pts) {
        let mut off = 0usize;
        for m in msgs {
            let take = m.npts as usize;
            entries.push(Entry {
                key: m.key,
                is_leaf: m.is_leaf,
                owned: false,
                local: false,
                pts: pts[off..off + take].to_vec(),
            });
            off += take;
        }
        debug_assert_eq!(off, pts.len());
    }
    entries.sort_by_key(|e| e.key);

    let mut octs = Vec::with_capacity(entries.len());
    let mut is_leaf = Vec::with_capacity(entries.len());
    let mut owned = Vec::with_capacity(entries.len());
    let mut local = Vec::with_capacity(entries.len());
    let mut pt_off = vec![0usize];
    let mut pts = Vec::new();
    let mut iter = entries.into_iter().peekable();
    while let Some(e) = iter.next() {
        let mut merged = e;
        while let Some(next) = iter.peek() {
            if next.key != merged.key {
                break;
            }
            let dup = iter.next().expect("peeked");
            debug_assert_eq!(dup.is_leaf, merged.is_leaf, "leaf flag consistent");
            merged.owned |= dup.owned;
            merged.local |= dup.local;
            if merged.pts.is_empty() {
                merged.pts = dup.pts;
            }
        }
        octs.push(merged.key);
        is_leaf.push(merged.is_leaf);
        owned.push(merged.owned);
        local.push(merged.local);
        pts.extend(merged.pts);
        pt_off.push(pts.len());
    }

    let keys = octs.iter().map(|o| o.sort_key()).collect();
    Let {
        octs,
        keys,
        is_leaf,
        owned,
        local,
        pt_off,
        pts,
        region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dtree::points_to_octree;
    use pfmm_mpisim::run;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_points(n: usize, seed: u64, base_gid: u64) -> Vec<PointRec> {
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
                    base_gid + i as u64,
                )
            })
            .collect()
    }

    fn build(p: usize, n_per: usize, q: usize) -> Vec<Let> {
        run(p, |c| {
            let t = points_to_octree(
                c,
                random_points(n_per, 31 + c.rank() as u64, (c.rank() * n_per) as u64),
                q,
            );
            build_let(c, &t)
        })
    }

    #[test]
    fn sequential_let_is_whole_tree() {
        let lets = build(1, 400, 8);
        let l = &lets[0];
        // p=1: every octant local, leaves owned, no ghosts.
        assert!(l.local.iter().all(|&x| x));
        for i in 0..l.len() {
            assert_eq!(l.owned[i], l.is_leaf[i]);
        }
        // Leaves of the LET form a complete linear octree.
        let leaves: Vec<MortonKey> = (0..l.len())
            .filter(|&i| l.is_leaf[i])
            .map(|i| l.octs[i])
            .collect();
        assert!(pfmm_morton::is_complete_linear(&leaves));
        // Every ancestor of every leaf is present.
        for leaf in &leaves {
            for a in leaf.ancestors() {
                assert!(l.find(&a).is_some());
            }
        }
    }

    #[test]
    fn let_octants_sorted_unique() {
        for lets in [build(2, 250, 6), build(4, 250, 6)] {
            for l in &lets {
                for w in l.octs.windows(2) {
                    assert!(w[0] < w[1], "sorted, deduplicated");
                }
                assert_eq!(l.pt_off.len(), l.len() + 1);
            }
        }
    }

    #[test]
    fn parallel_let_matches_serial() {
        for p in [1usize, 4] {
            let serial = build(p, 250, 6);
            for t in [2usize, 8] {
                let par = run(p, |c| {
                    let tr = points_to_octree(
                        c,
                        random_points(250, 31 + c.rank() as u64, (c.rank() * 250) as u64),
                        6,
                    );
                    build_let_with(c, &tr, SetupPar::Threads(t))
                });
                for (a, s) in par.iter().zip(&serial) {
                    assert_eq!(a.octs, s.octs, "p={p} t={t}");
                    assert_eq!(a.is_leaf, s.is_leaf, "p={p} t={t}");
                    assert_eq!(a.owned, s.owned, "p={p} t={t}");
                    assert_eq!(a.local, s.local, "p={p} t={t}");
                    assert_eq!(a.pt_off, s.pt_off, "p={p} t={t}");
                    assert_eq!(a.pts, s.pts, "p={p} t={t}");
                    assert_eq!(a.region, s.region, "p={p} t={t}");
                }
            }
        }
    }

    #[test]
    fn owned_leaves_match_tree_partition() {
        let p = 4;
        let n = 250;
        let pairs = run(p, |c| {
            let t = points_to_octree(
                c,
                random_points(n, 31 + c.rank() as u64, (c.rank() * n) as u64),
                6,
            );
            let leaves = t.leaves.clone();
            (leaves, build_let(c, &t))
        });
        for (leaves, l) in &pairs {
            let owned: Vec<MortonKey> = l.owned_indices().into_iter().map(|i| l.octs[i]).collect();
            assert_eq!(&owned, leaves);
        }
    }

    #[test]
    fn ghost_leaves_carry_points() {
        let lets = build(4, 250, 6);
        let mut saw_ghost_with_points = false;
        for l in &lets {
            for i in 0..l.len() {
                if !l.local[i] && l.is_leaf[i] && !l.points_of(i).is_empty() {
                    saw_ghost_with_points = true;
                    for pr in l.points_of(i) {
                        assert!(l.octs[i].contains_point(&pr.pos));
                    }
                }
            }
        }
        assert!(
            saw_ghost_with_points,
            "some ghost leaf with points expected"
        );
    }

    /// The LET invariant of the paper's correctness argument: for every
    /// owned leaf β and every octant α in the *globally built* interaction
    /// region of β, α is present in the LET.
    #[test]
    fn let_contains_interaction_sources() {
        let p = 4;
        let n = 200;
        let q = 6;
        // Build the same global tree sequentially as ground truth.
        let mut all_pts = Vec::new();
        for r in 0..p {
            all_pts.extend(random_points(n, 31 + r as u64, (r * n) as u64));
        }
        let seq = run(1, |c| {
            let t = points_to_octree(c, all_pts.clone(), q);
            build_let(c, &t)
        });
        let global = &seq[0];
        let lets = build(p, n, q);

        for l in &lets {
            for &bi in &l.owned_indices() {
                let beta = l.octs[bi];
                // All global-tree octants adjacent to β (U/W/X sources are
                // always adjacent to β or to its parent; V sources are
                // children of parent's colleagues). Check the V condition
                // and plain adjacency as a superset probe.
                if let Some(par) = beta.parent() {
                    for c in par.colleagues_and_self() {
                        for ch in c.children() {
                            if global.find(&ch).is_some() {
                                assert!(
                                    l.find(&ch).is_some(),
                                    "V-candidate {ch:?} of owned leaf {beta:?} missing"
                                );
                            }
                        }
                    }
                }
                for (gi, ga) in global.octs.iter().enumerate() {
                    if global.is_leaf[gi] && ga.is_adjacent(&beta) {
                        assert!(
                            l.find(ga).is_some(),
                            "adjacent leaf {ga:?} of owned leaf {beta:?} missing"
                        );
                    }
                }
            }
        }
    }
}
