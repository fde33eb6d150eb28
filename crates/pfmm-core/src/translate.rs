//! Level-batched multi-RHS grouping for the up/down translations.
//!
//! The S2U check-solves, U2U, DC2E, and D2D translations all apply one
//! *shared* per-level operator to many boxes: every box at a level uses
//! the same `uc2e`/`dc2e` pseudo-inverse, and the eight U2U/D2D variants
//! are determined entirely by the child index within the parent. Applied
//! box-by-box the operator is re-streamed from memory once per box and
//! the pass is GEMV-bound; grouped, the operator is loaded once per
//! `GEMM_NR` right-hand sides and the pass becomes BLAS-3 (Kailasa,
//! Betcke & El Kazdadi; DESIGN.md §12).
//!
//! [`TranslatePlan::build`] buckets boxes per `(level, operator)` at plan
//! time from the LET geometry alone — group membership never depends on
//! density values, so a cached plan replays identically with fresh
//! densities. At run time each group gathers its source vectors into a
//! column-major panel ([`TranslateGroup::pack`]), applies the operator
//! with one [`pfmm_linalg::gemm_acc_scaled`] call, and scatter-adds the
//! scaled product into its destination slices ([`TranslateGroup::apply`]).
//!
//! # Why this preserves bitwise thread-invariance
//!
//! Per destination element the grouped path performs `dst += s * dot`
//! with the dot product summed in ascending `k` by a single accumulator —
//! exactly the operation sequence of a per-box `matvec_acc_scaled`
//! (`gemm_acc_scaled` is bitwise identical to a per-column matvec, see
//! `group_apply_bitwise_matches_per_box_matvec`; groups are walked in a
//! fixed level/class/box order that fixes each destination's
//! accumulation order). The result is independent of executor chunking,
//! so every thread count gives bitwise-identical potentials.
//!
//! The W/X lists and D2T are *not* groupable this way in the KIFMM: they
//! are direct kernel evaluations against box-specific point/surface
//! geometry, so no two boxes share an operator matrix (they are already
//! handled by the tiled near-field and direct-eval paths).

use crate::par::par_map_n;
use pfmm_linalg::{gemm_acc_scaled_with, GemmScratch, Matrix};
use pfmm_tree::{Let, SetupPar};

/// One `(level, operator)` bucket: column `j` of the RHS panel is
/// gathered from octant `src[j]` and its scaled product is scatter-added
/// into octant `dst[j]`. Destinations within a group are distinct (a
/// parent has at most one child per child-index class), so the scatter is
/// a set of disjoint accumulates in a fixed order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslateGroup {
    /// Octant gathered into column `j`.
    pub src: Vec<u32>,
    /// Octant receiving column `j`'s product.
    pub dst: Vec<u32>,
}

/// Reusable pack/product panels, so a pass over all levels allocates O(1)
/// times once warm.
#[derive(Default)]
pub struct Scratch {
    xp: Vec<f64>,
    yp: Vec<f64>,
    gs: GemmScratch,
}

impl Scratch {
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        (self.xp.capacity() + self.yp.capacity()) * std::mem::size_of::<f64>()
            + self.gs.memory_bytes()
    }
}

impl TranslateGroup {
    fn push(&mut self, src: u32, dst: u32) {
        self.src.push(src);
        self.dst.push(dst);
    }

    /// Number of right-hand sides in the group.
    pub fn len(&self) -> usize {
        self.src.len()
    }

    pub fn is_empty(&self) -> bool {
        self.src.is_empty()
    }

    /// Gather the group's source vectors (`in_len` each, at
    /// `buf[src[j] * in_len ..]`) into the scratch column panel.
    pub fn pack(&self, in_len: usize, buf: &[f64], sc: &mut Scratch) {
        sc.xp.clear();
        sc.xp.reserve(in_len * self.len());
        for &si in &self.src {
            sc.xp
                .extend_from_slice(&buf[si as usize * in_len..(si as usize + 1) * in_len]);
        }
    }

    /// Apply `op` (with post-dot scale `s`) to the packed panel and
    /// scatter-add the products into `buf[dst[j] * out_len ..]`.
    ///
    /// Groups below `min_rhs` right-hand sides fall back to one matvec
    /// per column — bitwise identical to the GEMM (same per-element
    /// accumulation order), so the break-even choice is numerics-free.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        op: &Matrix,
        s: f64,
        in_len: usize,
        out_len: usize,
        min_rhs: usize,
        sc: &mut Scratch,
        buf: &mut [f64],
    ) {
        let m = self.len();
        debug_assert_eq!(sc.xp.len(), in_len * m, "pack() must precede apply()");
        sc.yp.clear();
        sc.yp.resize(out_len * m, 0.0);
        let Scratch { xp, yp, gs } = sc;
        if m < min_rhs {
            for (j, col) in yp.chunks_exact_mut(out_len).enumerate() {
                op.matvec_acc_scaled(&xp[j * in_len..(j + 1) * in_len], col, s);
            }
        } else {
            gemm_acc_scaled_with(op, xp, yp, m, s, gs);
        }
        for (j, &di) in self.dst.iter().enumerate() {
            let dst = &mut buf[di as usize * out_len..(di as usize + 1) * out_len];
            for (dv, &pv) in dst.iter_mut().zip(&yp[j * out_len..(j + 1) * out_len]) {
                *dv += pv;
            }
        }
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.src.len() + self.dst.len()) * size_of::<u32>() + 2 * size_of::<Vec<u32>>()
    }
}

/// Plan-time `(level, operator-class)` grouping of the up/down pass,
/// derived from the LET geometry and leaf occupancy alone.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TranslatePlan {
    /// Per level: the uc2e solve group — owned point-carrying leaves, in
    /// ascending octant order (src == dst; gathered from the check
    /// buffer, scattered into the upward densities).
    pub s2u: Vec<TranslateGroup>,
    /// Per level: the dc2e solve group — every local octant (src == dst;
    /// gathered from the downward-check buffer, scattered into the
    /// downward densities).
    pub dc2e: Vec<TranslateGroup>,
    /// Per level, per child-index class: U2U groups (src = child with a
    /// nonempty owned subtree, dst = its parent). Index 0 is empty.
    pub u2u: Vec<[TranslateGroup; 8]>,
    /// Per level, per child-index class: D2D groups (src = parent present
    /// in the LET, dst = the local child). Index 0 is empty.
    pub d2d: Vec<[TranslateGroup; 8]>,
}

impl TranslatePlan {
    /// Bucket the LET's octants. `occupied[i]` is the initial upward
    /// occupancy (owned, point-carrying leaf) — the same predicate the
    /// executor's `mark_has_up_range` uses; U2U membership propagates it
    /// bottom-up level by level.
    pub fn build(l: &Let, by_level: &[Vec<u32>], occupied: &[bool]) -> TranslatePlan {
        TranslatePlan::build_with(l, by_level, occupied, SetupPar::Serial)
    }

    /// [`TranslatePlan::build`] with the per-level solve groups assembled
    /// in parallel under `par`. Each level's s2u/dc2e bucket depends only
    /// on that level's octants, so levels are independent tasks; the U2U
    /// and D2D grouping propagates occupancy bottom-up across levels and
    /// stays serial. Results are reassembled in level order, so the plan
    /// is identical to the serial build.
    pub fn build_with(
        l: &Let,
        by_level: &[Vec<u32>],
        occupied: &[bool],
        par: SetupPar,
    ) -> TranslatePlan {
        let nlev = by_level.len();
        let empty8 = || std::array::from_fn(|_| TranslateGroup::default());
        let solves: Vec<(TranslateGroup, TranslateGroup)> = par_map_n(par.threads(), nlev, |lev| {
            let mut s2u = TranslateGroup::default();
            let mut dc2e = TranslateGroup::default();
            for &iu in &by_level[lev] {
                if occupied[iu as usize] {
                    s2u.push(iu, iu);
                }
                dc2e.push(iu, iu);
            }
            (s2u, dc2e)
        });
        let (s2u, dc2e) = solves.into_iter().unzip();
        let mut plan = TranslatePlan {
            s2u,
            dc2e,
            u2u: (0..nlev).map(|_| empty8()).collect(),
            d2d: (0..nlev).map(|_| empty8()).collect(),
        };
        // Upward occupancy propagated deepest-first: a box feeds its
        // parent iff it is an occupied leaf or any child already fed it.
        let mut sub_up = occupied.to_vec();
        for lev in (1..nlev).rev() {
            for &iu in &by_level[lev] {
                let i = iu as usize;
                let key = l.octs[i];
                let parent = key.parent().expect("level >= 1");
                if sub_up[i] {
                    let pi = l.find(&parent).expect("parent of a local octant is local");
                    plan.u2u[lev][key.child_index()].push(iu, pi as u32);
                    sub_up[pi] = true;
                }
                if let Some(pi) = l.find(&parent) {
                    plan.d2d[lev][key.child_index()].push(pi as u32, iu);
                }
            }
        }
        plan
    }

    /// Heap bytes held by the grouping (feeds the serve-layer plan-cache
    /// budget accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let flat: usize = self
            .s2u
            .iter()
            .chain(&self.dc2e)
            .map(TranslateGroup::memory_bytes)
            .sum();
        let classed: usize = self
            .u2u
            .iter()
            .chain(&self.d2d)
            .flat_map(|cls| cls.iter())
            .map(TranslateGroup::memory_bytes)
            .sum();
        flat + classed
            + (self.s2u.len() + self.dc2e.len()) * size_of::<TranslateGroup>()
            + (self.u2u.len() + self.d2d.len()) * size_of::<[TranslateGroup; 8]>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group(pairs: &[(u32, u32)]) -> TranslateGroup {
        let mut g = TranslateGroup::default();
        for &(s, d) in pairs {
            g.push(s, d);
        }
        g
    }

    /// pack/apply reproduces per-box matvec_acc_scaled bitwise, for both
    /// the GEMM path and the small-group matvec fallback.
    #[test]
    fn group_apply_bitwise_matches_per_box_matvec() {
        let (in_len, out_len) = (7, 5);
        let op = Matrix::from_fn(out_len, in_len, |i, j| ((i * 13 + j * 7) % 17) as f64 - 8.0);
        let src: Vec<f64> = (0..4 * in_len).map(|i| (i as f64 * 0.31).sin()).collect();
        let g = group(&[(0, 3), (1, 0), (2, 2), (3, 1)]);
        for min_rhs in [1usize, 100] {
            let mut buf = vec![0.25f64; 4 * out_len];
            let mut want = buf.clone();
            for (j, &di) in g.dst.iter().enumerate() {
                let si = g.src[j] as usize;
                op.matvec_acc_scaled(
                    &src[si * in_len..(si + 1) * in_len],
                    &mut want[di as usize * out_len..(di as usize + 1) * out_len],
                    -1.5,
                );
            }
            let mut sc = Scratch::new();
            g.pack(in_len, &src, &mut sc);
            g.apply(&op, -1.5, in_len, out_len, min_rhs, &mut sc, &mut buf);
            for (got, exp) in buf.iter().zip(&want) {
                assert_eq!(got.to_bits(), exp.to_bits(), "min_rhs={min_rhs}");
            }
        }
    }

    /// Gather and scatter may alias the same buffer (U2U/D2D): packing
    /// completes before any write, so a child can feed its parent slice
    /// in place.
    #[test]
    fn group_apply_supports_aliased_buffer() {
        let n = 3;
        let op = Matrix::identity(n);
        // Octant 1 accumulates octant 0's vector (scaled by 2).
        let g = group(&[(0, 1)]);
        let mut buf = vec![1.0, 2.0, 3.0, 10.0, 20.0, 30.0];
        let mut sc = Scratch::new();
        g.pack(n, &buf, &mut sc);
        g.apply(&op, 2.0, n, n, 1, &mut sc, &mut buf);
        assert_eq!(buf, vec![1.0, 2.0, 3.0, 12.0, 24.0, 36.0]);
    }
}
