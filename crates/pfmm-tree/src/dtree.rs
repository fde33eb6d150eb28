//! Distributed `Points2Octree` and the work-weighted repartition.
//!
//! Construction follows the paper's bottom-up scheme (§III-A): after the
//! global Morton sort, rank `k` controls the region `Ω_k` between two
//! fence entries; it tiles that region with the coarsest aligned octants
//! and refines every octant holding more than `q` points. Because the
//! fence also bucketed the points, every leaf's points are local, and the
//! union of all ranks' leaves is a complete linear octree of the cube.
//!
//! Region boundaries fall on arbitrary finest-grid cells, so octants that
//! straddle a boundary are split finer than strictly necessary — exactly
//! the "finer than necessary" DENDRO behaviour the paper notes and
//! tolerates.

use crate::par::{par_map_n, SetupPar};
use crate::point::PointRec;
use crate::psort;
use crate::sort::sample_sort_points;
use pfmm_morton::{cover_interval, MortonKey, MAX_DEPTH, RANK_SPAN};
use pfmm_mpisim::collectives::{allgather_one, allreduce, alltoallv, exscan_sum_u64};
use pfmm_mpisim::Comm;

/// This rank's share of the distributed tree: a contiguous run of the
/// global Morton-sorted leaf array, with the points of each leaf.
#[derive(Clone, Debug)]
pub struct DistTree {
    /// Owned leaves, Morton-sorted; a complete tiling of this rank's
    /// region (may be empty if the region is empty).
    pub leaves: Vec<MortonKey>,
    /// CSR offsets: leaf `i` holds `pts[leaf_off[i]..leaf_off[i+1]]`.
    pub leaf_off: Vec<usize>,
    /// Points, Morton-sorted, aligned with the leaf CSR.
    pub pts: Vec<PointRec>,
    /// Region fence in rank space (`p + 1` entries): rank `k` controls
    /// `[region[k], region[k+1])`.
    pub region: Vec<u128>,
}

impl DistTree {
    /// Points of leaf `i`.
    pub fn leaf_points(&self, i: usize) -> &[PointRec] {
        &self.pts[self.leaf_off[i]..self.leaf_off[i + 1]]
    }

    /// Number of owned leaves.
    pub fn num_leaves(&self) -> usize {
        self.leaves.len()
    }
}

/// Build the distributed linear octree: sort the points, carve the cube
/// into per-rank regions, and refine until every leaf holds at most `q`
/// points (or `MAX_DEPTH` is reached, for pathological coincident
/// points).
///
/// # Panics
/// Panics if `q == 0`.
pub fn points_to_octree(c: &Comm, pts: Vec<PointRec>, q: usize) -> DistTree {
    let (pts, region) = sample_sort_points(c, pts);
    octree_from_sorted(c, pts, region, q)
}

/// Refine an already-sorted, already-partitioned point set into the
/// distributed tree (the non-sort half of [`points_to_octree`], split out
/// so drivers can time the sort separately, as the paper reports it).
///
/// # Panics
/// Panics if `q == 0`.
pub fn octree_from_sorted(c: &Comm, pts: Vec<PointRec>, region: Vec<u128>, q: usize) -> DistTree {
    octree_from_sorted_with(c, pts, region, q, SetupPar::Serial)
}

/// Tasks per worker when expanding the refinement frontier: enough
/// slack that the work-stealing `par_map` can absorb the skew of an
/// adaptive tree's subtree sizes.
const FRONTIER_SLACK: usize = 8;

/// [`octree_from_sorted`] with a parallelism budget. The per-region
/// cover blocks (one Morton-ordered subtree each) are expanded into a
/// frontier of independent subtrees, refined in parallel, and the
/// per-subtree leaf runs concatenated in frontier order — the frontier
/// expansion replays `refine`'s own splitting rule, so the leaf array
/// and CSR are identical to the serial recursion's.
pub fn octree_from_sorted_with(
    c: &Comm,
    pts: Vec<PointRec>,
    region: Vec<u128>,
    q: usize,
    par: SetupPar,
) -> DistTree {
    assert!(q >= 1, "points-per-box bound must be positive");
    let lo = region[c.rank()];
    let hi = region[c.rank() + 1];
    let mut leaves = Vec::new();
    let mut leaf_off = vec![0usize];
    if lo < hi {
        let ranks = psort::ranks_of(par, &pts);
        let mut frontier: Vec<(MortonKey, usize, usize)> = cover_interval(lo, hi - 1)
            .into_iter()
            .map(|block| {
                // Points of this block: a contiguous run of the sorted array.
                let s = ranks.partition_point(|&r| r < block.rank());
                let e = ranks.partition_point(|&r| r <= block.rank_end());
                (block, s, e)
            })
            .collect();
        let t = par.threads();
        if t > 1 {
            frontier = expand_frontier(frontier, &ranks, q, t * FRONTIER_SLACK);
        }
        let parts = par_map_n(t, frontier.len(), |i| {
            let (block, s, e) = frontier[i];
            let mut lv = Vec::new();
            let mut off = Vec::new();
            refine(block, s, e, &ranks, q, &mut lv, &mut off);
            (lv, off)
        });
        for (lv, off) in parts {
            leaves.extend(lv);
            leaf_off.extend(off);
        }
    }
    DistTree {
        leaves,
        leaf_off,
        pts,
        region,
    }
}

/// Split frontier subtrees breadth-first until at least `target` remain
/// (or nothing can split). A subtree splits exactly when [`refine`]
/// would split it — more than `q` points above `MAX_DEPTH` — and its
/// children enter in Morton order, so refining the frontier left to
/// right emits the same leaves as refining the original blocks.
fn expand_frontier(
    mut frontier: Vec<(MortonKey, usize, usize)>,
    ranks: &[u128],
    q: usize,
    target: usize,
) -> Vec<(MortonKey, usize, usize)> {
    while frontier.len() < target {
        let mut next = Vec::with_capacity(frontier.len() * 8);
        let mut grew = false;
        for &(oct, start, end) in &frontier {
            if end - start <= q || oct.level() == MAX_DEPTH {
                next.push((oct, start, end));
                continue;
            }
            grew = true;
            let mut s = start;
            for child in oct.children() {
                let e = s + ranks[s..end].partition_point(|&r| r <= child.rank_end());
                next.push((child, s, e));
                s = e;
            }
            debug_assert_eq!(s, end, "children partition the parent's points");
        }
        frontier = next;
        if !grew {
            break;
        }
    }
    frontier
}

/// Recursively split `oct` while it holds more than `q` points, emitting
/// leaves (and their point ranges) in Morton order.
fn refine(
    oct: MortonKey,
    start: usize,
    end: usize,
    ranks: &[u128],
    q: usize,
    leaves: &mut Vec<MortonKey>,
    leaf_off: &mut Vec<usize>,
) {
    if end - start <= q || oct.level() == MAX_DEPTH {
        leaves.push(oct);
        leaf_off.push(end);
        return;
    }
    let mut s = start;
    for child in oct.children() {
        let e = s + ranks[s..end].partition_point(|&r| r <= child.rank_end());
        refine(child, s, e, ranks, q, leaves, leaf_off);
        s = e;
    }
    debug_assert_eq!(s, end, "children partition the parent's points");
}

/// Wire record for migrating a leaf during repartitioning.
#[derive(Copy, Clone)]
struct LeafMsg {
    key: MortonKey,
    npts: u32,
}

/// Repartition leaves so each rank's total weight is approximately equal
/// (paper §III-B; Algorithm 1 of Sundar et al.). `weights[i]` is the
/// interaction-list work estimate of `tree.leaves[i]`. Leaves keep their
/// global Morton order; each rank again receives a contiguous chunk.
///
/// # Panics
/// Panics if `weights.len() != tree.num_leaves()`.
pub fn repartition_by_weight(c: &Comm, tree: DistTree, weights: &[f64]) -> DistTree {
    assert_eq!(weights.len(), tree.num_leaves(), "one weight per leaf");
    let p = c.size();

    // Work in integer milli-units so prefix sums are exact and identical
    // across ranks.
    let to_units = |w: f64| -> u64 { (w.max(0.0) * 1000.0).round() as u64 + 1 };
    let local: u64 = weights.iter().map(|&w| to_units(w)).sum();
    let before = exscan_sum_u64(c, local);
    let total = allreduce(c, vec![local], |a, b| a + b)[0];

    // Leaf i goes to the rank whose equal-weight band contains the leaf's
    // weight midpoint.
    let mut outgoing_leaves: Vec<Vec<LeafMsg>> = vec![Vec::new(); p];
    let mut outgoing_pts: Vec<Vec<PointRec>> = vec![Vec::new(); p];
    let mut cum = before;
    for (i, leaf) in tree.leaves.iter().enumerate() {
        let w = to_units(weights[i]);
        let mid = cum + w / 2;
        cum += w;
        let dest = (((mid as u128) * p as u128) / total.max(1) as u128) as usize;
        let dest = dest.min(p - 1);
        let pts = tree.leaf_points(i);
        outgoing_leaves[dest].push(LeafMsg {
            key: *leaf,
            npts: pts.len() as u32,
        });
        outgoing_pts[dest].extend_from_slice(pts);
    }

    let in_leaves = alltoallv(c, outgoing_leaves);
    let in_pts = alltoallv(c, outgoing_pts);

    // Sources arrive in rank order and each source's leaves are sorted, so
    // concatenation preserves global Morton order.
    let mut leaves = Vec::new();
    let mut leaf_off = vec![0usize];
    let mut pts = Vec::new();
    for (lv, pv) in in_leaves.into_iter().zip(in_pts) {
        let mut consumed = 0usize;
        for msg in lv {
            leaves.push(msg.key);
            consumed += msg.npts as usize;
            leaf_off.push(pts.len() + consumed);
        }
        debug_assert_eq!(consumed, pv.len());
        pts.extend(pv);
    }
    debug_assert!(leaves.windows(2).all(|w| w[0] < w[1]), "global order kept");

    // Rebuild the region fence from the new first-leaf ranks; empty ranks
    // inherit their right neighbor's start (an empty region).
    let first = leaves.first().map(|l| l.rank()).unwrap_or(u128::MAX);
    let firsts = allgather_one(c, first);
    let mut region = vec![0u128; p + 1];
    region[p] = RANK_SPAN;
    for k in (1..p).rev() {
        region[k] = if firsts[k] != u128::MAX {
            firsts[k]
        } else {
            region[k + 1]
        };
    }
    DistTree {
        leaves,
        leaf_off,
        pts,
        region,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_morton::is_complete_linear;
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

    /// Gather all ranks' leaves and check global-tree invariants.
    fn check_global(trees: &[DistTree], q: usize, n_total: usize) {
        let mut all: Vec<MortonKey> = Vec::new();
        let mut pts_total = 0usize;
        for t in trees {
            assert_eq!(t.leaf_off.len(), t.leaves.len() + 1);
            pts_total += t.pts.len();
            for (i, leaf) in t.leaves.iter().enumerate() {
                let pts = t.leaf_points(i);
                assert!(pts.len() <= q, "leaf respects q");
                for pr in pts {
                    assert!(leaf.contains_point(&pr.pos), "point inside its leaf");
                }
                all.push(*leaf);
            }
        }
        assert_eq!(pts_total, n_total, "no point lost");
        assert!(is_complete_linear(&all), "global tree complete and sorted");
    }

    #[test]
    fn sequential_tree_invariants() {
        let q = 8;
        let trees = run(1, |c| points_to_octree(c, random_points(500, 3, 0), q));
        check_global(&trees, q, 500);
    }

    #[test]
    fn distributed_tree_invariants() {
        for p in [2usize, 3, 4, 8] {
            let q = 10;
            let n = 300;
            let trees = run(p, |c| {
                points_to_octree(
                    c,
                    random_points(n, c.rank() as u64, (c.rank() * n) as u64),
                    q,
                )
            });
            check_global(&trees, q, p * n);
        }
    }

    #[test]
    fn region_fence_matches_ownership() {
        let trees = run(4, |c| {
            points_to_octree(c, random_points(200, 5, c.rank() as u64 * 200), 6)
        });
        let region = trees[0].region.clone();
        for (k, t) in trees.iter().enumerate() {
            for leaf in &t.leaves {
                assert!(leaf.rank() >= region[k] && leaf.rank_end() < region[k + 1]);
            }
        }
    }

    #[test]
    fn parallel_refinement_matches_serial() {
        // Frontier-parallel refinement must reproduce the serial DFS
        // leaf array and CSR exactly, including on clustered inputs
        // where one subtree carries most of the frontier's work.
        let clustered = |n: usize, seed: u64, base: u64| -> Vec<PointRec> {
            let mut pts = random_points(n / 2, seed, base);
            let mut rng = StdRng::seed_from_u64(seed + 99);
            pts.extend((0..n - n / 2).map(|i| {
                PointRec::scalar(
                    [
                        0.1 + 0.01 * rng.random::<f64>(),
                        0.2 + 0.01 * rng.random::<f64>(),
                        0.3 + 0.01 * rng.random::<f64>(),
                    ],
                    1.0,
                    base + (n / 2 + i) as u64,
                )
            }));
            pts
        };
        for p in [1usize, 3] {
            let serial = run(p, |c| {
                let (pts, region) = sample_sort_points(
                    c,
                    clustered(400, 7 + c.rank() as u64, c.rank() as u64 * 400),
                );
                octree_from_sorted(c, pts, region, 6)
            });
            for t in [2usize, 8] {
                let par = run(p, |c| {
                    let (pts, region) = sample_sort_points(
                        c,
                        clustered(400, 7 + c.rank() as u64, c.rank() as u64 * 400),
                    );
                    octree_from_sorted_with(c, pts, region, 6, SetupPar::Threads(t))
                });
                for (a, b) in par.iter().zip(&serial) {
                    assert_eq!(a.leaves, b.leaves, "p={p} t={t}");
                    assert_eq!(a.leaf_off, b.leaf_off, "p={p} t={t}");
                    assert_eq!(a.pts, b.pts, "p={p} t={t}");
                    assert_eq!(a.region, b.region, "p={p} t={t}");
                }
            }
        }
    }

    #[test]
    fn coincident_points_capped_by_max_depth() {
        let pts: Vec<PointRec> = (0..20)
            .map(|i| PointRec::scalar([0.3, 0.3, 0.3], 1.0, i))
            .collect();
        let trees = run(1, |c| points_to_octree(c, pts.clone(), 4));
        // The deepest octant holds all 20 coincident points.
        let t = &trees[0];
        let counts: Vec<usize> = (0..t.num_leaves())
            .map(|i| t.leaf_points(i).len())
            .collect();
        assert_eq!(*counts.iter().max().unwrap(), 20);
        assert!(t.leaves.iter().any(|l| l.level() == MAX_DEPTH));
    }

    #[test]
    fn repartition_balances_weight() {
        let p = 4;
        let n = 400;
        let trees = run(p, |c| {
            let t = points_to_octree(
                c,
                random_points(n, 11 + c.rank() as u64, (c.rank() * n) as u64),
                4,
            );
            // Weight = point count: balancing particles across ranks.
            let w: Vec<f64> = (0..t.num_leaves())
                .map(|i| t.leaf_points(i).len() as f64)
                .collect();
            repartition_by_weight(c, t, &w)
        });
        check_global(&trees, 4, p * n);
        let counts: Vec<usize> = trees.iter().map(|t| t.pts.len()).collect();
        let max = *counts.iter().max().unwrap();
        let min = *counts.iter().min().unwrap();
        assert!(
            max - min < p * n / 4,
            "weighted repartition should roughly balance points: {counts:?}"
        );
    }

    #[test]
    fn repartition_preserves_regions_tiling() {
        let trees = run(3, |c| {
            let t = points_to_octree(c, random_points(150, 21, c.rank() as u64 * 150), 5);
            let w = vec![1.0; t.num_leaves()];
            repartition_by_weight(c, t, &w)
        });
        let region = &trees[0].region;
        assert_eq!(region[0], 0);
        assert_eq!(region[region.len() - 1], RANK_SPAN);
        for w in region.windows(2) {
            assert!(w[0] <= w[1]);
        }
        for t in &trees[1..] {
            assert_eq!(&t.region, region);
        }
    }
}
