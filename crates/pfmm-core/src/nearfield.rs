//! Tiled SoA near-field (U-list) engine — the CPU analogue of the GPU
//! U-list data structure (`pfmm-gpusim::layout`, paper §IV).
//!
//! The scalar U-list path walks AoS `[f64; 3]` points through a `&dyn
//! Kernel` per edge; it neither vectorizes nor amortizes layout work.
//! [`NearField`] pays a one-time translation cost instead (the
//! Hu/Gumerov/Duraiswami argument: flat interaction representations beat
//! pointer walks): leaf points and densities are packed into separate
//! x/y/z/density *planes* whose per-box source length is padded to
//! [`LANE`], padding lanes carrying zero density at a far-away sentinel —
//! exactly the GPU layout's discipline, in f64. The direct rows it
//! evaluates are the plan's `lists.u`: the U-list proper plus the small
//! W/X pairs the plan demoted to direct interactions
//! ([`pfmm_tree::Lists::demote_small_wx`]) — every pair whose sources are
//! cheaper to evaluate point by point than through a surface. They
//! become a CSR over target boxes with each row's entries **sorted by
//! source box id**, so consecutive target boxes (which share most of
//! their U neighbours) walk source tiles in the same ascending order and
//! each tile is resolved once per batch while hot in cache.
//!
//! Evaluation goes through [`pfmm_kernels::TileKernel::eval_tiles`] —
//! one virtual call per U-edge, monomorphized branch-free microkernels
//! inside (the `max(NaN, x)` self-interaction trick; see
//! `pfmm-kernels::tile`). Per-target accumulation order is fixed by the
//! sorted CSR and the microkernels' lane reduction, so any chunking of
//! the octant range produces bitwise-identical potentials.

use std::ops::Range;
use std::time::Instant;

use pfmm_kernels::{Point3, TileKernel, Tiles, LANE};
use pfmm_tree::{Let, Lists, SetupPar};

use crate::par::{chunk_cuts, par_map_n};
use crate::profile::flop_model;

/// Sentinel position of padding lanes: far outside the unit cube, so a
/// padded source can never coincide with a real target (its huge `r²`
/// meets a zero density and contributes exactly `0.0`). The f64 twin of
/// `pfmm-gpusim`'s `[-1e9; 3]` source padding.
pub const PAD_POS: f64 = -1.0e9;

/// Padded SoA tiles for the near field plus the CSR U-list over target
/// boxes, and the measured cost of building them.
pub struct NearField {
    /// Density components per source point.
    pub sd: usize,

    /// Source box id for each LET octant (`-1` if not a point-carrying
    /// leaf). Source boxes can be any leaf in the LET, owned or ghost.
    pub src_box_of_oct: Vec<i32>,
    /// Per source box: start of its padded range in the source planes
    /// (a multiple of [`LANE`]).
    pub src_off: Vec<u32>,
    /// Per source box: real (unpadded) point count.
    pub src_cnt: Vec<u32>,
    /// Per source box: the LET octant it packs (the inverse of
    /// `src_box_of_oct`, kept so [`NearField::refresh_densities`] can
    /// re-gather from `leaf_den` without a rebuild).
    pub src_oct: Vec<u32>,
    /// Padded source coordinate planes; padding lanes sit at [`PAD_POS`].
    pub sx: Vec<f64>,
    pub sy: Vec<f64>,
    pub sz: Vec<f64>,
    /// Padded densities, `sd` planes per box back to back: box `b` with
    /// padded range `off..end` holds component `c` of its point `j` at
    /// `sden[off*sd + c*(end-off) + j]`. Padding lanes are `0.0`.
    pub sden: Vec<f64>,

    /// Target box id for each LET octant (`-1` if not an owned
    /// point-carrying leaf) — the same skip condition as the scalar path.
    pub tgt_box_of_oct: Vec<i32>,
    /// Per target box: the LET octant it evaluates.
    pub tgt_oct: Vec<u32>,
    /// Per target box: offset into the LET point storage (`l.pt_off`),
    /// for indexing the output potential array.
    pub tgt_pt_off: Vec<u32>,
    /// Per target box: offset into the (unpadded) target planes.
    pub tgt_coff: Vec<u32>,
    /// Per target box: point count.
    pub tgt_cnt: Vec<u32>,
    /// Target coordinate planes, unpadded — the outer microkernel loop
    /// walks real targets only.
    pub tx: Vec<f64>,
    pub ty: Vec<f64>,
    pub tz: Vec<f64>,

    /// U-list in CSR over target boxes; entries are source box ids,
    /// sorted ascending within each row (source boxes are numbered in
    /// octant order, so this is Morton order — the fixed accumulation
    /// order at every chunking).
    pub ulist_off: Vec<u32>,
    pub ulist: Vec<u32>,

    /// Per-octant padded pair counts (`nt · ns_padded` summed over the
    /// row) — the U-list chunk weights: wall time follows
    /// padded lanes, not real pairs.
    weights: Vec<u64>,
    /// Total real source/target pairs (flop accounting stays real).
    pub real_pairs: u64,
    /// Total padded pairs actually evaluated.
    pub padded_pairs: u64,

    /// Wall-clock seconds spent building this layout (charged to the
    /// U-list phase, the same way the GPU run charges translation).
    pub build_secs: f64,
}

impl NearField {
    /// Build the tiled layout from a LET, its lists, and the per-octant
    /// geometry of `EvalData`.
    pub fn build(
        l: &Let,
        lists: &Lists,
        leaf_pos: &[Vec<Point3>],
        leaf_den: &[Vec<f64>],
        sd: usize,
    ) -> NearField {
        NearField::build_with(l, lists, leaf_pos, leaf_den, sd, SetupPar::Serial)
    }

    /// [`NearField::build`] with the plane fills and per-row CSR
    /// construction parallelized under `par`. The source planes are
    /// filled chunk-by-chunk (chunk boundaries fall on padded box
    /// boundaries, so chunks own disjoint ranges and concatenate to the
    /// serial layout byte for byte); the per-target sorted U rows are
    /// independent and reassembled in octant order. The result is
    /// identical to the serial build.
    pub fn build_with(
        l: &Let,
        lists: &Lists,
        leaf_pos: &[Vec<Point3>],
        leaf_den: &[Vec<f64>],
        sd: usize,
        par: SetupPar,
    ) -> NearField {
        let t0 = Instant::now();
        let noct = l.len();
        let pad = |n: usize| n.div_ceil(LANE) * LANE;

        // Source boxes: every leaf with points (owned or ghost).
        let mut src_box_of_oct = vec![-1i32; noct];
        let mut src_off = Vec::new();
        let mut src_cnt = Vec::new();
        let mut src_oct = Vec::new();
        let mut total = 0usize;
        for i in 0..noct {
            if !l.is_leaf[i] || leaf_pos[i].is_empty() {
                continue;
            }
            src_box_of_oct[i] = src_off.len() as i32;
            src_off.push(total as u32);
            src_cnt.push(leaf_pos[i].len() as u32);
            src_oct.push(i as u32);
            total += pad(leaf_pos[i].len());
        }
        let nsrc = src_off.len();
        let cuts = chunk_cuts(par.threads(), nsrc);
        // (sx, sy, sz, sden) plane segments for one contiguous box range.
        type PlaneChunk = (Vec<f64>, Vec<f64>, Vec<f64>, Vec<f64>);
        let chunks: Vec<PlaneChunk> = par_map_n(par.threads(), cuts.len() - 1, |k| {
            let (b0, b1) = (cuts[k], cuts[k + 1]);
            let start = if b0 < nsrc {
                src_off[b0] as usize
            } else {
                total
            };
            let end = if b1 < nsrc {
                src_off[b1] as usize
            } else {
                total
            };
            let span = end - start;
            let mut sx = vec![PAD_POS; span];
            let mut sy = vec![PAD_POS; span];
            let mut sz = vec![PAD_POS; span];
            let mut sden = vec![0.0f64; span * sd];
            for sb in b0..b1 {
                let i = src_oct[sb] as usize;
                let off = src_off[sb] as usize - start;
                let n = src_cnt[sb] as usize;
                let m = pad(n);
                for (j, p) in leaf_pos[i].iter().enumerate() {
                    sx[off + j] = p[0];
                    sy[off + j] = p[1];
                    sz[off + j] = p[2];
                }
                // AoS (sd per point) → sd planes of m padded lanes.
                let planes = &mut sden[off * sd..(off + m) * sd];
                for (j, d) in leaf_den[i].chunks_exact(sd).enumerate() {
                    for (c, v) in d.iter().enumerate() {
                        planes[c * m + j] = *v;
                    }
                }
            }
            (sx, sy, sz, sden)
        });
        let mut sx = Vec::with_capacity(total);
        let mut sy = Vec::with_capacity(total);
        let mut sz = Vec::with_capacity(total);
        let mut sden = Vec::with_capacity(total * sd);
        for (cx, cy, cz, cd) in chunks {
            sx.extend_from_slice(&cx);
            sy.extend_from_slice(&cy);
            sz.extend_from_slice(&cz);
            sden.extend_from_slice(&cd);
        }

        // Per-target sorted U rows, built in parallel; the serial
        // assembly below consumes them in octant order.
        let rows: Vec<Vec<u32>> = par_map_n(par.threads(), noct, |i| {
            if !l.owned[i] || leaf_pos[i].is_empty() {
                return Vec::new();
            }
            let mut row: Vec<u32> = lists
                .u
                .row(i)
                .iter()
                .filter_map(|&ai| {
                    let sb = src_box_of_oct[ai as usize];
                    (sb >= 0).then_some(sb as u32)
                })
                .collect();
            row.sort_unstable();
            row
        });

        // Target boxes: owned leaves with points (the scalar path's skip
        // condition), plus the sorted CSR and the chunk weights.
        let mut tgt_box_of_oct = vec![-1i32; noct];
        let mut tgt_oct = Vec::new();
        let mut tgt_pt_off = Vec::new();
        let mut tgt_coff = Vec::new();
        let mut tgt_cnt = Vec::new();
        let (mut tx, mut ty, mut tz) = (Vec::new(), Vec::new(), Vec::new());
        let mut ulist_off = vec![0u32];
        let mut ulist: Vec<u32> = Vec::new();
        let mut weights = vec![0u64; noct];
        let (mut real_pairs, mut padded_pairs) = (0u64, 0u64);
        for i in 0..noct {
            if !l.owned[i] || leaf_pos[i].is_empty() {
                continue;
            }
            tgt_box_of_oct[i] = tgt_oct.len() as i32;
            tgt_oct.push(i as u32);
            tgt_pt_off.push(l.pt_off[i] as u32);
            tgt_coff.push(tx.len() as u32);
            let nt = leaf_pos[i].len();
            tgt_cnt.push(nt as u32);
            for p in &leaf_pos[i] {
                tx.push(p[0]);
                ty.push(p[1]);
                tz.push(p[2]);
            }
            ulist.extend_from_slice(&rows[i]);
            for &sb in &rows[i] {
                let ns = src_cnt[sb as usize] as u64;
                real_pairs += nt as u64 * ns;
                padded_pairs += nt as u64 * pad(ns as usize) as u64;
                weights[i] += nt as u64 * pad(ns as usize) as u64;
            }
            ulist_off.push(ulist.len() as u32);
        }

        NearField {
            sd,
            src_box_of_oct,
            src_off,
            src_cnt,
            src_oct,
            sx,
            sy,
            sz,
            sden,
            tgt_box_of_oct,
            tgt_oct,
            tgt_pt_off,
            tgt_coff,
            tgt_cnt,
            tx,
            ty,
            tz,
            ulist_off,
            ulist,
            weights,
            real_pairs,
            padded_pairs,
            build_secs: t0.elapsed().as_secs_f64(),
        }
    }

    /// Number of target boxes.
    pub fn num_tgt_boxes(&self) -> usize {
        self.tgt_oct.len()
    }

    /// Number of source boxes.
    pub fn num_src_boxes(&self) -> usize {
        self.src_off.len()
    }

    /// Padded source-plane range of a source box.
    pub fn src_range(&self, b: usize) -> Range<usize> {
        let start = self.src_off[b] as usize;
        let end = if b + 1 < self.src_off.len() {
            self.src_off[b + 1] as usize
        } else {
            self.sx.len()
        };
        start..end
    }

    /// Per-octant padded-pair weights for interaction-weighted range
    /// splitting (`par_windows_weighted` / `weighted_cuts`).
    pub fn oct_weights(&self) -> &[u64] {
        &self.weights
    }

    /// Re-gather the density planes from fresh `leaf_den` without
    /// rebuilding the layout: per-box point counts are fixed by the
    /// geometry, so every real lane is rewritten (padding lanes keep the
    /// `0.0` they got at build time) and the planes end up byte-identical
    /// to a fresh [`NearField::build_with`] of the same densities. This
    /// is the plan-reuse path: O(points · sd) instead of a full rebuild,
    /// and allocation-free.
    pub fn refresh_densities(&mut self, leaf_den: &[Vec<f64>]) {
        let sd = self.sd;
        for sb in 0..self.src_oct.len() {
            let i = self.src_oct[sb] as usize;
            let r = self.src_range(sb);
            let m = r.len();
            let planes = &mut self.sden[r.start * sd..r.end * sd];
            for (j, d) in leaf_den[i].chunks_exact(sd).enumerate() {
                for (c, &v) in d.iter().enumerate() {
                    planes[c * m + j] = v;
                }
            }
        }
    }

    /// Heap bytes held by the layout (element counts × element sizes);
    /// feeds the workspace/plan memory accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.src_box_of_oct.len() + self.tgt_box_of_oct.len()) * size_of::<i32>()
            + (self.src_off.len()
                + self.src_cnt.len()
                + self.src_oct.len()
                + self.tgt_oct.len()
                + self.tgt_pt_off.len()
                + self.tgt_coff.len()
                + self.tgt_cnt.len()
                + self.ulist_off.len()
                + self.ulist.len())
                * size_of::<u32>()
            + (self.sx.len()
                + self.sy.len()
                + self.sz.len()
                + self.sden.len()
                + self.tx.len()
                + self.ty.len()
                + self.tz.len())
                * size_of::<f64>()
            + self.weights.len() * size_of::<u64>()
    }

    /// Evaluate the U-list for target octants in `range` through the
    /// tiled microkernels; `window` is the matching point-potential
    /// slice (element 0 at global offset `base`), exactly like the
    /// scalar `uli_range`. Returns real-pair flops.
    pub fn eval_range(
        &self,
        tk: &dyn TileKernel,
        td: usize,
        flops_pair: u64,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
    ) -> u64 {
        let sd = self.sd;
        let mut fl = 0u64;
        for bi in range {
            let tb = self.tgt_box_of_oct[bi];
            if tb < 0 {
                continue;
            }
            let tb = tb as usize;
            let nt = self.tgt_cnt[tb] as usize;
            let po = self.tgt_pt_off[tb] as usize;
            let co = self.tgt_coff[tb] as usize;
            let out = &mut window[po * td - base..(po + nt) * td - base];
            let (tx, ty, tz) = (
                &self.tx[co..co + nt],
                &self.ty[co..co + nt],
                &self.tz[co..co + nt],
            );
            let (r0, r1) = (self.ulist_off[tb] as usize, self.ulist_off[tb + 1] as usize);
            for &sb in &self.ulist[r0..r1] {
                let sb = sb as usize;
                let sr = self.src_range(sb);
                tk.eval_tiles(
                    Tiles {
                        tx,
                        ty,
                        tz,
                        sx: &self.sx[sr.clone()],
                        sy: &self.sy[sr.clone()],
                        sz: &self.sz[sr.clone()],
                        den: &self.sden[sr.start * sd..sr.end * sd],
                    },
                    out,
                );
                fl += flop_model::ulist_edge(nt, self.src_cnt[sb] as usize, flops_pair);
            }
        }
        fl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_kernels::{direct_eval, Kernel, Laplace, LaplaceDipole, Stokes, Yukawa};
    use pfmm_mpisim::run;
    use pfmm_tree::{build_let, build_lists, points_to_octree, PointRec};

    /// Clustered, nonuniform point set with exact duplicates (coincident
    /// target/source pairs within a leaf): half the points bunch into a
    /// small ball, and every 10th point duplicates its predecessor.
    fn clustered_points(n: usize) -> Vec<PointRec> {
        let mut st = 99u64;
        let mut rng = move || {
            st = st
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((st >> 11) as f64) / (1u64 << 53) as f64
        };
        let mut pts = Vec::with_capacity(n);
        for i in 0..n {
            let pos = if i % 2 == 0 {
                [0.3 + 0.02 * rng(), 0.6 + 0.02 * rng(), 0.2 + 0.02 * rng()]
            } else {
                [rng(), rng(), rng()]
            };
            let pos = if i % 10 == 3 && i > 0 {
                let prev: &PointRec = &pts[i - 1];
                prev.pos
            } else {
                pos
            };
            pts.push(PointRec::vector(
                pos,
                [1.0 - rng(), rng() - 0.5, 0.25 * rng()],
                i as u64,
            ));
        }
        pts
    }

    fn small_let(n: usize, q: usize) -> (Let, Lists) {
        let pts = clustered_points(n);
        run(1, |c| {
            let t = points_to_octree(c, pts.clone(), q);
            let l = build_let(c, &t);
            let lists = build_lists(&l);
            (l, lists)
        })
        .pop()
        .expect("one rank")
    }

    fn eval_data(l: &Let, sd: usize) -> (Vec<Vec<Point3>>, Vec<Vec<f64>>) {
        let data = crate::exec::EvalData::new_with(l, sd, pfmm_tree::SetupPar::Serial);
        (data.leaf_pos, data.leaf_den)
    }

    /// The scalar U-list reference: the same loop `Ctx::uli_range` runs.
    fn scalar_ulist(
        kernel: &dyn Kernel,
        l: &Let,
        lists: &Lists,
        leaf_pos: &[Vec<Point3>],
        leaf_den: &[Vec<f64>],
    ) -> Vec<f64> {
        let td = kernel.target_dim();
        let mut f = vec![0.0f64; l.pts.len() * td];
        for bi in 0..l.len() {
            if !l.owned[bi] || leaf_pos[bi].is_empty() {
                continue;
            }
            let (off, n) = (l.pt_off[bi], leaf_pos[bi].len());
            for &ai in lists.u.row(bi) {
                let ai = ai as usize;
                if leaf_pos[ai].is_empty() {
                    continue;
                }
                direct_eval(
                    kernel,
                    &leaf_pos[bi],
                    &leaf_pos[ai],
                    &leaf_den[ai],
                    &mut f[off * td..(off + n) * td],
                );
            }
        }
        f
    }

    fn check_tiled_matches_scalar(kernel: &dyn Kernel, tol: f64) {
        // Demoted rows hold non-adjacent sources too; both paths see them.
        let (l, mut lists) = small_let(700, 12);
        lists.demote_small_wx(&l, 8);
        let sd = kernel.source_dim();
        let td = kernel.target_dim();
        let (leaf_pos, leaf_den) = eval_data(&l, sd);
        let want = scalar_ulist(kernel, &l, &lists, &leaf_pos, &leaf_den);

        let nf = NearField::build(&l, &lists, &leaf_pos, &leaf_den, sd);
        let tk = kernel.as_tile_kernel().expect("built-in kernel");
        let mut got = vec![0.0f64; l.pts.len() * td];
        nf.eval_range(tk, td, kernel.flops_per_pair(), 0..l.len(), &mut got, 0);

        let scale = want.iter().fold(0.0f64, |a, v| a.max(v.abs()));
        assert!(scale > 0.0, "degenerate reference");
        for (g, w) in got.iter().zip(&want) {
            assert!(
                (g - w).abs() <= tol * scale,
                "{}: {g} vs {w} (scale {scale})",
                kernel.name()
            );
        }
    }

    #[test]
    fn tiled_matches_scalar_laplace() {
        check_tiled_matches_scalar(&Laplace, 1e-13);
    }

    #[test]
    fn tiled_matches_scalar_yukawa() {
        check_tiled_matches_scalar(&Yukawa { lambda: 3.0 }, 1e-13);
    }

    #[test]
    fn tiled_matches_scalar_stokes() {
        check_tiled_matches_scalar(&Stokes { mu: 0.9 }, 1e-13);
    }

    #[test]
    fn tiled_matches_scalar_dipole() {
        check_tiled_matches_scalar(&LaplaceDipole, 1e-13);
    }

    #[test]
    fn layout_invariants() {
        let (l, lists) = small_let(500, 9);
        let (leaf_pos, leaf_den) = eval_data(&l, 1);
        let nf = NearField::build(&l, &lists, &leaf_pos, &leaf_den, 1);
        assert_eq!(nf.sx.len() % LANE, 0);
        let real: u32 = nf.src_cnt.iter().sum();
        assert_eq!(real as usize, 500);
        for b in 0..nf.num_src_boxes() {
            let r = nf.src_range(b);
            assert_eq!(r.len() % LANE, 0);
            let n = nf.src_cnt[b] as usize;
            assert!(r.len() >= n);
            // Padding: sentinel position, zero density in every plane.
            for j in r.start + n..r.end {
                assert_eq!(nf.sx[j], PAD_POS);
                assert_eq!(nf.sy[j], PAD_POS);
                assert_eq!(nf.sz[j], PAD_POS);
            }
            let m = r.len();
            let planes = &nf.sden[r.start..r.start + m];
            for &v in &planes[n..m] {
                assert_eq!(v, 0.0);
            }
        }
        // CSR rows sorted ascending — the fixed accumulation order.
        for tb in 0..nf.num_tgt_boxes() {
            let row = &nf.ulist[nf.ulist_off[tb] as usize..nf.ulist_off[tb + 1] as usize];
            assert!(row.windows(2).all(|w| w[0] < w[1]), "sorted, unique");
        }
        assert!(nf.real_pairs > 0 && nf.padded_pairs >= nf.real_pairs);
        assert!(nf.build_secs > 0.0);
    }

    #[test]
    fn eval_is_deterministic_across_chunkings() {
        // Chunking the octant range differently (other thread counts)
        // must be bitwise irrelevant: each target box is wholly inside
        // one chunk and its row order is fixed.
        let (l, lists) = small_let(600, 11);
        let (leaf_pos, leaf_den) = eval_data(&l, 1);
        let nf = NearField::build(&l, &lists, &leaf_pos, &leaf_den, 1);
        let tk = Laplace.as_tile_kernel().expect("tile kernel");
        let mut whole = vec![0.0f64; l.pts.len()];
        nf.eval_range(tk, 1, 20, 0..l.len(), &mut whole, 0);
        let mut split = vec![0.0f64; l.pts.len()];
        let mid = l.len() / 3;
        for r in [0..mid, mid..l.len()] {
            let b0 = l.pt_off[r.start];
            let b1 = l.pt_off[r.end.min(l.len())];
            nf.eval_range(tk, 1, 20, r, &mut split[b0..b1], b0);
        }
        for (a, b) in whole.iter().zip(&split) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
