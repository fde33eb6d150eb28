//! Tiled SoA near-field (U-list) engine — the CPU analogue of the GPU
//! U-list data structure (`pfmm-gpusim::layout`, paper §IV).
//!
//! The scalar U-list path walks AoS `[f64; 3]` points through a `&dyn
//! Kernel` per edge; it neither vectorizes nor amortizes layout work.
//! [`NearField`] pays a one-time translation cost instead (the
//! Hu/Gumerov/Duraiswami argument: flat interaction representations beat
//! pointer walks): leaf points and densities are packed into separate
//! x/y/z/density *planes* whose per-box length is padded to [`LANE`],
//! padding lanes carrying zero density at a far-away sentinel — exactly
//! the GPU layout's discipline, in f64. An owned target box's points are
//! the first lanes of its own source box, so targets and their densities
//! are read from the same planes. The direct rows it evaluates are the
//! plan's `lists.u`: the U-list proper plus the small W/X pairs the plan
//! demoted to direct interactions ([`pfmm_tree::Lists::demote_small_wx`])
//! — every pair whose sources are cheaper to evaluate point by point than
//! through a surface.
//!
//! # Own rows and mutual pairs
//!
//! The direct rows are symmetric between owned boxes (U is adjacency, and
//! a W pair is demoted exactly when its mirror X pair is), so the build
//! splits each row in two:
//!
//! * **own-row entries** — the self tile and every source box with no
//!   owned target box (ghost leaves on multi-rank runs) — run one way
//!   through [`TileKernel::eval_tiles`], parallel over target boxes;
//! * **mutual pairs** `(A, B)`, `A < B`, both owned target boxes, run once
//!   through [`TileKernel::eval_mutual`], which adds B's sources into A's
//!   potentials and A's sources into a mirror of B's lanes. After the
//!   last pair the mirror is folded into the potentials, scaled by
//!   [`TileKernel::tile_scale`].
//!
//! The mutual pairs are greedily edge-colored at build time, in `(A, B)`
//! order: each pair takes the first color free at both of its boxes. No
//! box appears twice in one color, so the pairs of a color write disjoint
//! potentials and mirror lanes and may run on any threads. The colors run
//! in a fixed order with a barrier between them ([`NearField::eval`]), so
//! every point's summation order — own rows in source-box order, then its
//! mutual pairs as A in color order, then the folded mirror, whose lanes
//! sum in color order too — is fixed by the plan, and the potentials are
//! bitwise identical at every thread count. The per-thread cuts and the
//! mirror live in a [`Sweep`], built once per workspace.

use std::ops::Range;
use std::sync::Barrier;
use std::time::Instant;

use pfmm_kernels::{BoxTiles, Point3, TileKernel, LANE};
use pfmm_tree::{Let, Lists, SetupPar};

use crate::par::{chunk_cuts, par_map_n, weighted_cuts, Disjoint};
use crate::profile::flop_model;

/// Sentinel position of padding lanes: far outside the unit cube, so a
/// padded source can never coincide with a real target (its huge `r²`
/// meets a zero density and contributes exactly `0.0`). The f64 twin of
/// `pfmm-gpusim`'s `[-1e9; 3]` source padding.
pub const PAD_POS: f64 = -1.0e9;

/// Lanes a box of `n` points occupies in the planes.
fn pad(n: usize) -> usize {
    n.div_ceil(LANE) * LANE
}

/// Padded SoA tiles for the near field, the split direct rows and their
/// pair schedule, and the measured cost of building them.
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

    /// Per target box (an owned point-carrying leaf, the scalar path's
    /// skip condition): the LET octant it evaluates.
    pub tgt_oct: Vec<u32>,

    // The fields below decide which potentials and mirror lanes each
    // worker of `eval` writes, so they stay private to this module: the
    // disjointness its unsafe writes rely on is set up here and nowhere
    // else.
    /// Per target box: offset into the LET point storage (`l.pt_off`),
    /// for indexing the output potential array.
    tgt_pt_off: Vec<u32>,
    /// Per target box: point count.
    tgt_cnt: Vec<u32>,
    /// Per target box: its source box, whose first `tgt_cnt` lanes are
    /// the box's points in the same order.
    tgt_src: Vec<u32>,
    /// Per target box: start of its padded lanes in the mirror (`td`
    /// planes per box, so its mirror starts at `td · tgt_moff`).
    tgt_moff: Vec<u32>,
    /// Padded lanes of all target boxes together: the mirror holds `td`
    /// times this many values.
    mirror_lanes: usize,
    /// Own-row entries in CSR over target boxes: source box ids, sorted
    /// ascending within each row (source boxes are numbered in octant
    /// order, so this is Morton order).
    own_off: Vec<u32>,
    own: Vec<u32>,
    /// Mutual pairs `[A, B]` of target boxes, `A < B`, grouped by color;
    /// within a color in `(A, B)` order.
    pairs: Vec<[u32; 2]>,
    /// CSR over colors into `pairs`.
    color_off: Vec<u32>,

    /// Total real source/target pairs the rows deliver, one way (flop
    /// accounting stays real).
    pub real_pairs: u64,
    /// Total padded pairs the bodies actually evaluate: each mutual
    /// pair's points counted once.
    pub padded_pairs: u64,

    /// Wall-clock seconds spent building this layout (charged to the
    /// U-list phase, the same way the GPU run charges translation).
    pub build_secs: f64,
}

/// The per-thread work split of one [`NearField`] schedule and the mirror
/// it accumulates into: built once, so that a warm [`NearField::eval`]
/// allocates nothing.
pub struct Sweep {
    threads: usize,
    /// `threads + 1` cuts over target boxes for the own-row part.
    own_cuts: Vec<u32>,
    /// Per color, `threads + 1` cuts into `NearField::pairs`.
    pair_cuts: Vec<u32>,
    /// `threads + 1` cuts over target boxes for the mirror fold.
    fold_cuts: Vec<u32>,
    /// `td` planes of padded lanes per target box; all zero between
    /// evaluations (the fold clears what it reads).
    mirror: Vec<f64>,
}

impl Sweep {
    /// Whether this sweep splits `nf`'s schedule for `td`-component
    /// potentials: every part's cuts span exactly its range, so the
    /// (monotone) cuts hand each worker a disjoint share of it.
    fn fits(&self, nf: &NearField, td: usize) -> bool {
        let (t, ntgt) = (self.threads, nf.num_tgt_boxes() as u32);
        let spans =
            |cuts: &[u32], lo: u32, hi: u32| cuts.first() == Some(&lo) && cuts.last() == Some(&hi);
        self.mirror.len() == td * nf.mirror_lanes
            && self.own_cuts.len() == t + 1
            && spans(&self.own_cuts, 0, ntgt)
            && self.fold_cuts.len() == t + 1
            && spans(&self.fold_cuts, 0, ntgt)
            && self.pair_cuts.len() == nf.num_colors() * (t + 1)
            && self
                .pair_cuts
                .chunks_exact(t + 1)
                .zip(nf.color_off.windows(2))
                .all(|(cuts, c)| spans(cuts, c[0], c[1]))
    }

    /// Heap bytes held by the cuts and the mirror.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.own_cuts.capacity() + self.pair_cuts.capacity() + self.fold_cuts.capacity())
            * size_of::<u32>()
            + self.mirror.capacity() * size_of::<f64>()
    }
}

/// Contiguous weighted cuts as `u32`.
fn cuts_u32(parts: usize, weights: &[u64], base: usize) -> impl Iterator<Item = u32> {
    weighted_cuts(parts, weights)
        .into_iter()
        .map(move |c| (base + c) as u32)
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

    /// [`NearField::build`] with the plane fills and per-row sorting
    /// parallelized under `par`. The source planes are filled
    /// chunk-by-chunk (chunk boundaries fall on padded box boundaries, so
    /// chunks own disjoint ranges and concatenate to the serial layout
    /// byte for byte); the per-target sorted rows are independent and
    /// reassembled in octant order; the row split and the coloring run
    /// serially. The result is identical to the serial build.
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
                let m = pad(src_cnt[sb] as usize);
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

        // Per-target sorted direct rows, built in parallel; consumed in
        // octant order below.
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

        // Target boxes: owned leaves with points.
        let mut tgt_oct = Vec::new();
        let mut tgt_pt_off = Vec::new();
        let mut tgt_cnt = Vec::new();
        let mut tgt_src = Vec::new();
        let mut tgt_moff = Vec::new();
        let mut tgt_of_src = vec![-1i32; nsrc];
        let mut mirror_lanes = 0usize;
        for i in 0..noct {
            if !l.owned[i] || leaf_pos[i].is_empty() {
                continue;
            }
            let sb = src_box_of_oct[i] as usize;
            tgt_of_src[sb] = tgt_oct.len() as i32;
            tgt_oct.push(i as u32);
            tgt_pt_off.push(l.pt_off[i] as u32);
            tgt_cnt.push(leaf_pos[i].len() as u32);
            tgt_src.push(sb as u32);
            tgt_moff.push(mirror_lanes as u32);
            mirror_lanes += pad(leaf_pos[i].len());
        }
        let ntgt = tgt_oct.len();
        let row = |tb: usize| &rows[tgt_oct[tb] as usize][..];

        // Split every row: an entry whose source box is another owned
        // target box listing this box back becomes a mutual pair, held
        // by the lower box; the rest run one way.
        let mut own_off = Vec::with_capacity(ntgt + 1);
        own_off.push(0u32);
        let mut own = Vec::new();
        let mut pairs: Vec<[u32; 2]> = Vec::new();
        let (mut real_pairs, mut padded_pairs) = (0u64, 0u64);
        for a in 0..ntgt {
            let na = tgt_cnt[a] as u64;
            for &sb in row(a) {
                let ns = src_cnt[sb as usize] as usize;
                real_pairs += na * ns as u64;
                let b = tgt_of_src[sb as usize];
                let mutual =
                    b >= 0 && b as usize != a && row(b as usize).binary_search(&tgt_src[a]).is_ok();
                if !mutual {
                    own.push(sb);
                } else if b as usize > a {
                    pairs.push([a as u32, b as u32]);
                } else {
                    continue;
                }
                padded_pairs += na * pad(ns) as u64;
            }
            own_off.push(own.len() as u32);
        }

        // Greedy edge coloring in (A, B) order, then a stable counting
        // sort by color.
        let mut used: Vec<Vec<u64>> = vec![Vec::new(); ntgt];
        let mut colors = Vec::with_capacity(pairs.len());
        let mut ncolors = 0usize;
        for &[a, b] in &pairs {
            let (ua, ub) = (&used[a as usize], &used[b as usize]);
            let mut k = 0;
            let c = loop {
                let w = ua.get(k).copied().unwrap_or(0) | ub.get(k).copied().unwrap_or(0);
                if w != u64::MAX {
                    break 64 * k + w.trailing_ones() as usize;
                }
                k += 1;
            };
            for bx in [a, b] {
                let u = &mut used[bx as usize];
                if u.len() <= c / 64 {
                    u.resize(c / 64 + 1, 0);
                }
                u[c / 64] |= 1 << (c % 64);
            }
            colors.push(c);
            ncolors = ncolors.max(c + 1);
        }
        let mut color_off = vec![0u32; ncolors + 1];
        for &c in &colors {
            color_off[c + 1] += 1;
        }
        for k in 0..ncolors {
            color_off[k + 1] += color_off[k];
        }
        let mut next = color_off.clone();
        let mut sched = vec![[0u32; 2]; pairs.len()];
        for (p, &c) in pairs.iter().zip(&colors) {
            sched[next[c] as usize] = *p;
            next[c] += 1;
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
            tgt_oct,
            tgt_pt_off,
            tgt_cnt,
            tgt_src,
            tgt_moff,
            mirror_lanes,
            own_off,
            own,
            pairs: sched,
            color_off,
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

    /// Per target box: point count.
    pub fn tgt_cnt(&self) -> &[u32] {
        &self.tgt_cnt
    }

    /// Number of edge colors of the mutual pairs.
    pub fn num_colors(&self) -> usize {
        self.color_off.len() - 1
    }

    /// The mutual pairs of color `k`.
    pub fn color(&self, k: usize) -> &[[u32; 2]] {
        &self.pairs[self.color_off[k] as usize..self.color_off[k + 1] as usize]
    }

    /// The own-row entries (source boxes) of target box `tb`.
    pub fn own_row(&self, tb: usize) -> &[u32] {
        &self.own[self.own_off[tb] as usize..self.own_off[tb + 1] as usize]
    }

    /// The whole direct row of target box `tb` as sorted source box ids:
    /// its own-row entries plus the source box of every pair partner.
    /// Reassembled by a scan of the pairs, for tests and diagnostics.
    pub fn row(&self, tb: usize) -> Vec<u32> {
        let mut row = self.own_row(tb).to_vec();
        for &[a, b] in &self.pairs {
            if a as usize == tb {
                row.push(self.tgt_src[b as usize]);
            } else if b as usize == tb {
                row.push(self.tgt_src[a as usize]);
            }
        }
        row.sort_unstable();
        row
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

    /// Source box `b`'s planes.
    fn side(&self, b: u32) -> BoxTiles<'_> {
        let r = self.src_range(b as usize);
        BoxTiles {
            n: self.src_cnt[b as usize] as usize,
            x: &self.sx[r.clone()],
            y: &self.sy[r.clone()],
            z: &self.sz[r.clone()],
            den: &self.sden[r.start * self.sd..r.end * self.sd],
        }
    }

    /// Target box `tb`'s range in the potentials, `td` per point.
    fn pts(&self, tb: usize, td: usize) -> Range<usize> {
        let po = self.tgt_pt_off[tb] as usize;
        po * td..(po + self.tgt_cnt[tb] as usize) * td
    }

    /// Target box `tb`'s range in the mirror.
    fn lanes(&self, tb: usize, td: usize) -> Range<usize> {
        let mo = self.tgt_moff[tb] as usize;
        mo * td..(mo + pad(self.tgt_cnt[tb] as usize)) * td
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

    /// Heap bytes held by the layout and its schedule (element counts ×
    /// element sizes); feeds the workspace/plan memory accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.src_box_of_oct.len() * size_of::<i32>()
            + (self.src_off.len()
                + self.src_cnt.len()
                + self.src_oct.len()
                + self.tgt_oct.len()
                + self.tgt_pt_off.len()
                + self.tgt_cnt.len()
                + self.tgt_src.len()
                + self.tgt_moff.len()
                + self.own_off.len()
                + self.own.len()
                + self.color_off.len())
                * size_of::<u32>()
            + self.pairs.len() * size_of::<[u32; 2]>()
            + (self.sx.len() + self.sy.len() + self.sz.len() + self.sden.len()) * size_of::<f64>()
    }

    /// The work split of this schedule over `threads` workers, with a
    /// zeroed mirror for `td`-component potentials. Each part is cut
    /// into contiguous ranges of equal padded-pair (own rows, each color)
    /// or point (fold) weight.
    pub fn sweep(&self, threads: usize, td: usize) -> Sweep {
        let t = threads.max(1);
        let cnt = |tb: u32| self.tgt_cnt[tb as usize] as u64;
        let own_w: Vec<u64> = (0..self.num_tgt_boxes())
            .map(|tb| {
                self.own_row(tb)
                    .iter()
                    .map(|&sb| cnt(tb as u32) * pad(self.src_cnt[sb as usize] as usize) as u64)
                    .sum()
            })
            .collect();
        let mut pair_cuts = Vec::with_capacity(self.num_colors() * (t + 1));
        for k in 0..self.num_colors() {
            let w: Vec<u64> = self
                .color(k)
                .iter()
                .map(|&[a, b]| cnt(a) * pad(cnt(b) as usize) as u64)
                .collect();
            pair_cuts.extend(cuts_u32(t, &w, self.color_off[k] as usize));
        }
        let pts: Vec<u64> = self.tgt_cnt.iter().map(|&n| n as u64).collect();
        Sweep {
            threads: t,
            own_cuts: cuts_u32(t, &own_w, 0).collect(),
            pair_cuts,
            fold_cuts: cuts_u32(t, &pts, 0).collect(),
            mirror: vec![0.0; td * self.mirror_lanes],
        }
    }

    /// Evaluate every direct row into the potentials `f` (`td` per LET
    /// point) on `sw.threads` workers: the own rows, then the mutual
    /// pairs color by color behind a barrier, then the mirror fold (see
    /// the module docs for why the result does not depend on the thread
    /// count). `span` wraps each worker's part — once per part, not per
    /// color — for the task trace. Returns the delivered one-way flops
    /// ([`flop_model::ulist_edge`] per row entry).
    pub fn eval(
        &self,
        tk: &dyn TileKernel,
        sw: &mut Sweep,
        f: &mut [f64],
        span: &(dyn Fn(&mut dyn FnMut() -> u64) -> u64 + Sync),
    ) -> u64 {
        let (td, fp, scale) = (tk.target_dim(), tk.flops_per_pair(), tk.tile_scale());
        let t = sw.threads;
        // Checked before any worker starts: a worker that panics leaves
        // the others waiting at the barrier.
        assert_eq!(
            tk.source_dim(),
            self.sd,
            "layout built for the kernel's density"
        );
        assert!(sw.fits(self, td), "sweep built for another schedule or td");
        let (own_cuts, pair_cuts, fold_cuts) = (&sw.own_cuts, &sw.pair_cuts, &sw.fold_cuts);
        let out = Disjoint::new(f);
        let mirror = Disjoint::new(&mut sw.mirror);
        let (out, mirror) = (&out, &mirror);
        let worker = |w: usize, bar: Option<&Barrier>| -> u64 {
            let mut fl = span(&mut || {
                let mut fl = 0;
                for a in own_cuts[w] as usize..own_cuts[w + 1] as usize {
                    // SAFETY: the own-row cuts give each worker its own
                    // range of target boxes, and a box writes only its
                    // own points.
                    let o = unsafe { out.slice(self.pts(a, td)) };
                    let ta = self.side(self.tgt_src[a]);
                    for &sb in self.own_row(a) {
                        let sb_tiles = self.side(sb);
                        tk.eval_tiles(ta.from(sb_tiles), o);
                        fl += flop_model::ulist_edge(ta.n, sb_tiles.n, fp);
                    }
                }
                fl
            });
            if let Some(bar) = bar {
                bar.wait();
            }
            fl += span(&mut || {
                let mut fl = 0;
                for cuts in pair_cuts.chunks_exact(t + 1) {
                    for &[a, b] in &self.pairs[cuts[w] as usize..cuts[w + 1] as usize] {
                        let (a, b) = (a as usize, b as usize);
                        // SAFETY: the coloring puts no target box in two
                        // pairs of one color, and a barrier separates the
                        // colors and the parts; so this pair is the only
                        // writer of A's points and B's mirror lanes.
                        let (o, m) = unsafe {
                            (out.slice(self.pts(a, td)), mirror.slice(self.lanes(b, td)))
                        };
                        let (ta, tb) = (self.side(self.tgt_src[a]), self.side(self.tgt_src[b]));
                        tk.eval_mutual(ta, tb, o, m);
                        fl += flop_model::ulist_edge(ta.n, tb.n, fp)
                            + flop_model::ulist_edge(tb.n, ta.n, fp);
                    }
                    if let Some(bar) = bar {
                        bar.wait();
                    }
                }
                fl
            });
            fl + span(&mut || {
                for b in fold_cuts[w] as usize..fold_cuts[w + 1] as usize {
                    // SAFETY: the fold cuts give each worker its own range
                    // of target boxes, after the last color's barrier.
                    let (o, m) =
                        unsafe { (out.slice(self.pts(b, td)), mirror.slice(self.lanes(b, td))) };
                    let mb = m.len() / td;
                    for (c, plane) in m.chunks_exact_mut(mb).enumerate() {
                        for (v, o) in plane.iter_mut().zip(o[c..].iter_mut().step_by(td)) {
                            *o += *v * scale;
                            *v = 0.0;
                        }
                    }
                }
                0
            })
        };
        if t == 1 {
            return worker(0, None);
        }
        let barrier = Barrier::new(t);
        let (worker, barrier) = (&worker, &barrier);
        std::thread::scope(|s| {
            let rest: Vec<_> = (1..t)
                .map(|w| s.spawn(move || worker(w, Some(barrier))))
                .collect();
            let mine = worker(0, Some(barrier));
            mine + rest
                .into_iter()
                .map(|h| h.join().expect("near-field worker panicked"))
                .sum::<u64>()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_kernels::{direct_eval, Kernel, Laplace, LaplaceDipole, Stokes, Yukawa};
    use pfmm_mpisim::run;

    /// Run every part inline, untraced.
    fn untraced(run: &mut dyn FnMut() -> u64) -> u64 {
        run()
    }

    /// `nf.eval` on `threads` workers into fresh potentials.
    fn eval_at(nf: &NearField, kernel: &dyn Kernel, threads: usize, npts: usize) -> Vec<f64> {
        let tk = kernel.as_tile_kernel().expect("built-in kernel");
        let td = kernel.target_dim();
        let mut sw = nf.sweep(threads, td);
        let mut f = vec![0.0f64; npts * td];
        nf.eval(tk, &mut sw, &mut f, &untraced);
        f
    }
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
        assert!(
            nf.num_colors() > 0 && !nf.own.is_empty(),
            "both parts exercised"
        );
        let got = eval_at(&nf, kernel, 2, l.pts.len());
        assert_eq!(got.len(), l.pts.len() * td);

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
        // Own rows sorted ascending — the fixed accumulation order — and
        // every target box's points the first lanes of its source box.
        for tb in 0..nf.num_tgt_boxes() {
            assert!(
                nf.own_row(tb).windows(2).all(|w| w[0] < w[1]),
                "sorted, unique"
            );
            let i = nf.tgt_oct[tb] as usize;
            let r = nf.src_range(nf.tgt_src[tb] as usize);
            for (j, p) in leaf_pos[i].iter().enumerate() {
                assert_eq!(
                    [nf.sx[r.start + j], nf.sy[r.start + j], nf.sz[r.start + j]],
                    *p
                );
            }
        }
        assert!(nf.real_pairs > 0 && nf.padded_pairs >= nf.real_pairs / 2);
        assert!(nf.build_secs > 0.0);
    }

    /// The schedule's invariants on one rank's layout: every unordered
    /// pair of owned target boxes whose rows list each other is in
    /// exactly one color, never twice in a row; no color holds a box
    /// twice; the own rows hold exactly the self entry and the sources
    /// without an owned target box; each row reassembles to the plan's
    /// row; and a second build is identical.
    fn check_schedule(l: &Let, lists: &Lists, leaf_pos: &[Vec<Point3>], leaf_den: &[Vec<f64>]) {
        let nf = NearField::build(l, lists, leaf_pos, leaf_den, 1);
        let ntgt = nf.num_tgt_boxes();
        let mut tgt_of_src = vec![-1i64; nf.num_src_boxes()];
        for tb in 0..ntgt {
            tgt_of_src[nf.tgt_src[tb] as usize] = tb as i64;
        }
        let mut seen = std::collections::HashSet::new();
        for k in 0..nf.num_colors() {
            let mut boxes = std::collections::HashSet::new();
            assert!(!nf.color(k).is_empty(), "color {k} empty");
            for &[a, b] in nf.color(k) {
                assert!(a < b, "pairs held by the lower box");
                assert!(boxes.insert(a) && boxes.insert(b), "box twice in color {k}");
                assert!(seen.insert([a, b]), "pair ({a}, {b}) in two colors");
            }
        }
        for tb in 0..ntgt {
            let i = nf.tgt_oct[tb] as usize;
            let mut want: Vec<u32> = lists
                .u
                .row(i)
                .iter()
                .map(|&ai| nf.src_box_of_oct[ai as usize])
                .filter(|&sb| sb >= 0)
                .map(|sb| sb as u32)
                .collect();
            want.sort_unstable();
            assert_eq!(nf.row(tb), want, "row of target box {tb}");
            for &sb in nf.own_row(tb) {
                let b = tgt_of_src[sb as usize];
                assert!(
                    b < 0 || b as usize == tb,
                    "own row of {tb} holds owned box {b}"
                );
            }
            for &sb in &want {
                let b = tgt_of_src[sb as usize];
                if b >= 0 && b as usize != tb {
                    let (lo, hi) = ((b as u32).min(tb as u32), (b as u32).max(tb as u32));
                    assert!(seen.contains(&[lo, hi]), "pair ({lo}, {hi}) unscheduled");
                }
            }
        }
        let again = NearField::build(l, lists, leaf_pos, leaf_den, 1);
        assert_eq!(
            (&again.own_off, &again.own, &again.pairs, &again.color_off),
            (&nf.own_off, &nf.own, &nf.pairs, &nf.color_off)
        );
        let par = NearField::build_with(l, lists, leaf_pos, leaf_den, 1, SetupPar::Threads(3));
        assert_eq!((&par.own, &par.pairs), (&nf.own, &nf.pairs));
    }

    #[test]
    fn schedule_covers_each_pair_once_with_demoted_wx() {
        let (l, mut lists) = small_let(700, 12);
        let (w, x) = lists.demote_small_wx(&l, 8);
        assert!(w + x > 0, "fixture demotes W/X pairs");
        let (leaf_pos, leaf_den) = eval_data(&l, 1);
        check_schedule(&l, &lists, &leaf_pos, &leaf_den);
    }

    #[test]
    fn schedule_keeps_ghost_sources_one_way_on_two_ranks() {
        let pts = crate::distrib::ellipsoid_1_1_4(3000, 5, 0);
        let ghosts = run(2, |c| {
            let share: Vec<PointRec> = pts
                .iter()
                .skip(c.rank())
                .step_by(c.size())
                .cloned()
                .collect();
            let t = points_to_octree(c, share, 20);
            let l = build_let(c, &t);
            let mut lists = build_lists(&l);
            lists.demote_small_wx(&l, 26);
            let (leaf_pos, leaf_den) = eval_data(&l, 1);
            check_schedule(&l, &lists, &leaf_pos, &leaf_den);
            let nf = NearField::build(&l, &lists, &leaf_pos, &leaf_den, 1);
            nf.own
                .iter()
                .filter(|&&sb| !l.owned[nf.src_oct[sb as usize] as usize])
                .count()
        });
        assert!(
            ghosts.iter().all(|&g| g > 0),
            "ghost sources on every rank: {ghosts:?}"
        );
    }

    /// The colored sweep gives the same bits at every thread count, and
    /// an evaluation leaves the mirror zeroed, so a second one repeats
    /// the first.
    #[test]
    fn eval_is_bitwise_identical_at_threads_1_2_3() {
        let (l, mut lists) = small_let(900, 11);
        lists.demote_small_wx(&l, 8);
        for kernel in [&Laplace as &dyn Kernel, &Stokes { mu: 0.9 }] {
            let sd = kernel.source_dim();
            let (leaf_pos, leaf_den) = eval_data(&l, sd);
            let nf = NearField::build(&l, &lists, &leaf_pos, &leaf_den, sd);
            let one = eval_at(&nf, kernel, 1, l.pts.len());
            let bits = |f: &[f64]| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            for threads in [2, 3] {
                assert_eq!(
                    bits(&eval_at(&nf, kernel, threads, l.pts.len())),
                    bits(&one)
                );
            }
            let tk = kernel.as_tile_kernel().expect("tile kernel");
            let mut sw = nf.sweep(2, kernel.target_dim());
            let mut twice = vec![0.0; one.len()];
            nf.eval(tk, &mut sw, &mut twice, &untraced);
            twice.fill(0.0);
            // One span per worker per part (own rows, colors, fold),
            // however many colors there are.
            let spans = std::sync::atomic::AtomicUsize::new(0);
            nf.eval(tk, &mut sw, &mut twice, &|run| {
                spans.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                run()
            });
            assert_eq!(bits(&twice), bits(&one), "{}", kernel.name());
            assert!(nf.num_colors() > 3);
            assert_eq!(spans.into_inner(), 2 * 3);
        }
    }
}
