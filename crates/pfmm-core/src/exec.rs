//! The evaluation phases of Algorithm 1, shared by [`Fmm::evaluate`] and
//! the reusable [`crate::plan::FmmPlan`].
//!
//! [`EvalData`] caches the per-leaf point geometry and level buckets of a
//! LET; [`run_phases`] executes S2U, U2U, the reduce-and-scatter, the
//! U/V/W/X lists and the downward pass against it, accumulating per-phase
//! times and flops. The densities live in `EvalData` and can be replaced
//! between runs without rebuilding anything else.
//!
//! The phases run bulk-synchronously in the canonical order Upward →
//! Comm → U → X → V → Downward → W. With `FmmConfig::threads > 1` the
//! per-octant phases fan out over a host thread pool via [`crate::par`];
//! the rank blocks inside Comm. Each output slice is accumulated in a
//! fixed order (`f`: U, then D2T, then W; `dcheck`: X, then V; `u`: S2U,
//! then U2U in level/index order, then the reduction write-back), and no
//! per-octant kernel depends on where the range cuts fall, so the
//! potentials are bitwise identical at every thread count and trace
//! level.
//!
//! The shared-operator up/down translations (uc2e/dc2e solves, U2U, D2D)
//! run level by level as batched multi-RHS GEMMs over the plan-time
//! groups of [`crate::translate`]; each level is one task on one thread.

use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

use pfmm_kernels::{direct_eval, Kernel, Point3, TileKernel, Tiles, LANE};
use pfmm_morton::MortonKey;
use pfmm_mpisim::{Comm, CommStats};
use pfmm_trace::{tid_worker, TraceLevel, Tracer, TID_MAIN};
use pfmm_tree::{Let, Lists};

use crate::driver::{Fmm, M2lMode, Reduction};
use crate::nearfield::NearField;
use crate::translate::TranslatePlan;

use crate::m2l_batched::{FftBatchedM2l, LendTmp, SiblingIndex, SourceSpectra, BATCH_TARGETS};
use crate::ops::Ops;
use crate::par::{par_map_n, par_windows, par_windows_weighted, SetupPar};
use crate::profile::{flop_model, Phase, Profile};
use crate::reduce::{reduce_scatter_hypercube, reduce_scatter_naive};
use crate::workspace::{EvalWorkspace, WorkerScratch};

/// Per-LET evaluation workspace: leaf geometry, packed densities, and the
/// level ordering of the up/down traversals.
pub struct EvalData {
    /// Positions per octant (nonempty only for point-carrying leaves).
    pub leaf_pos: Vec<Vec<Point3>>,
    /// Packed densities per octant, `source_dim` per point.
    pub leaf_den: Vec<Vec<f64>>,
    /// Local octant indices grouped by level.
    pub by_level: Vec<Vec<u32>>,
    /// Deepest level present in the LET.
    pub max_level: u32,
    /// Plan-time `(level, operator-class)` grouping of the up/down
    /// translations (geometry-only; replayed as-is by `Fmm::apply`).
    pub translate: TranslatePlan,
}

impl EvalData {
    /// Extract the evaluation workspace from a LET; densities are taken
    /// from the point records (replace them later via `leaf_den`). The
    /// per-octant geometry/density extraction and the translate grouping
    /// run under `par`; every per-octant result is reassembled in octant
    /// order, so the workspace is identical to the serial build.
    pub fn new_with(l: &Let, sd: usize, par: SetupPar) -> EvalData {
        let noct = l.len();
        let filled: Vec<(Vec<Point3>, Vec<f64>)> = par_map_n(par.threads(), noct, |i| {
            let pts = l.points_of(i);
            if pts.is_empty() {
                return (Vec::new(), Vec::new());
            }
            let pos = pts.iter().map(|p| p.pos).collect();
            let mut den = Vec::with_capacity(pts.len() * sd);
            for p in pts {
                den.extend_from_slice(&p.den[..sd]);
            }
            (pos, den)
        });
        let (leaf_pos, leaf_den): (Vec<Vec<Point3>>, Vec<Vec<f64>>) = filled.into_iter().unzip();
        let max_level = l.octs.iter().map(|o| o.level()).max().unwrap_or(0);
        let mut by_level: Vec<Vec<u32>> = vec![Vec::new(); max_level as usize + 1];
        for i in 0..noct {
            if l.local[i] {
                by_level[l.octs[i].level() as usize].push(i as u32);
            }
        }
        let occupied: Vec<bool> = (0..noct)
            .map(|i| l.owned[i] && !leaf_pos[i].is_empty())
            .collect();
        let translate = TranslatePlan::build_with(l, &by_level, &occupied, par);
        EvalData {
            leaf_pos,
            leaf_den,
            by_level,
            max_level,
            translate,
        }
    }

    /// Heap bytes held by the workspace (element counts × element sizes;
    /// feeds the serve-layer plan-cache budget accounting).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let nested = |vv: &Vec<Vec<f64>>| {
            vv.iter().map(|v| v.len() * size_of::<f64>()).sum::<usize>()
                + vv.len() * size_of::<Vec<f64>>()
        };
        self.leaf_pos
            .iter()
            .map(|v| v.len() * size_of::<Point3>())
            .sum::<usize>()
            + self.leaf_pos.len() * size_of::<Vec<Point3>>()
            + nested(&self.leaf_den)
            + self
                .by_level
                .iter()
                .map(|v| v.len() * size_of::<u32>())
                .sum::<usize>()
            + self.by_level.len() * size_of::<Vec<u32>>()
            + self.translate.memory_bytes()
    }
}

/// Offset of the target `beta` relative to the source `alpha` in units of
/// the octant side — the argument convention of `Ops::m2l` and the
/// batched kernel spectra (both build the operator with the source
/// centered at the origin and the target displaced by `offset · 2r`).
pub(crate) fn offset_of(alpha: &MortonKey, beta: &MortonKey) -> [i8; 3] {
    debug_assert_eq!(alpha.level(), beta.level());
    let cu = beta.cell_units() as i64;
    let a = alpha.anchor();
    let b = beta.anchor();
    [
        ((b[0] as i64 - a[0] as i64) / cu) as i8,
        ((b[1] as i64 - a[1] as i64) / cu) as i8,
        ((b[2] as i64 - a[2] as i64) / cu) as i8,
    ]
}

/// Reusable SoA scratch for routing per-box point↔surface direct evals
/// (S2U check potentials, D2T, W, X) through the branch-free tile
/// microkernels instead of the scalar per-target `direct_eval` loop. At
/// practical leaf occupancies the scalar path is call-overhead bound
/// (one virtual `eval_target` per surface point over a handful of
/// sources); packing both sides as planes and making a single
/// monomorphized `eval_tiles` call per box amortizes that away and lets
/// the kernel body vectorize.
///
/// It leaves every bitwise-equality invariant intact (`eval_tiles` keeps
/// one accumulator per target output walking sources in order; padding
/// lanes contribute exactly `0.0`).
#[derive(Default)]
pub(crate) struct TileEval {
    tx: Vec<f64>,
    ty: Vec<f64>,
    tz: Vec<f64>,
    sx: Vec<f64>,
    sy: Vec<f64>,
    sz: Vec<f64>,
    den: Vec<f64>,
}

impl TileEval {
    /// Heap bytes held (allocated capacities; workspace accounting).
    pub(crate) fn memory_bytes(&self) -> usize {
        (self.tx.capacity()
            + self.ty.capacity()
            + self.tz.capacity()
            + self.sx.capacity()
            + self.sy.capacity()
            + self.sz.capacity()
            + self.den.capacity())
            * std::mem::size_of::<f64>()
    }

    /// `out += Σ_j K(x_i, y_j) s_j`, via `tk` when the kernel provides
    /// tile microkernels and the scalar `direct_eval` otherwise.
    pub(crate) fn eval(
        &mut self,
        tk: Option<&dyn TileKernel>,
        kernel: &dyn Kernel,
        targets: &[Point3],
        sources: &[Point3],
        densities: &[f64],
        out: &mut [f64],
    ) {
        let Some(tk) = tk else {
            direct_eval(kernel, targets, sources, densities, out);
            return;
        };
        let sd = kernel.source_dim();
        let nsp = sources.len().div_ceil(LANE) * LANE;
        self.tx.clear();
        self.ty.clear();
        self.tz.clear();
        for p in targets {
            self.tx.push(p[0]);
            self.ty.push(p[1]);
            self.tz.push(p[2]);
        }
        self.sx.clear();
        self.sy.clear();
        self.sz.clear();
        for p in sources {
            self.sx.push(p[0]);
            self.sy.push(p[1]);
            self.sz.push(p[2]);
        }
        self.sx.resize(nsp, crate::nearfield::PAD_POS);
        self.sy.resize(nsp, crate::nearfield::PAD_POS);
        self.sz.resize(nsp, crate::nearfield::PAD_POS);
        self.den.clear();
        self.den.resize(sd * nsp, 0.0);
        for (j, d) in densities.chunks_exact(sd).enumerate() {
            for (c, &v) in d.iter().enumerate() {
                self.den[c * nsp + j] = v;
            }
        }
        tk.eval_tiles(
            Tiles {
                tx: &self.tx,
                ty: &self.ty,
                tz: &self.tz,
                sx: &self.sx,
                sy: &self.sy,
                sz: &self.sz,
                den: &self.den,
            },
            out,
        );
    }
}

/// Borrowed evaluation context shared by every chunk kernel, so the
/// per-octant arithmetic (and its floating-point order) does not depend
/// on the range cuts.
struct Ctx<'a> {
    kernel: &'a dyn Kernel,
    ops: &'a Ops,
    fftb: &'a FftBatchedM2l,
    l: &'a Let,
    lists: &'a Lists,
    leaf_pos: &'a [Vec<Point3>],
    leaf_den: &'a [Vec<f64>],
    /// Tiled near-field layout; `None` only for a kernel without tile
    /// microkernels, which runs the scalar U-list path.
    nf: Option<&'a NearField>,
    /// Workspace-owned V list regrouped by target parent (fft-batched
    /// mode).
    sib: &'a SiblingIndex,
    /// Tile microkernels for the U-list and the per-box point↔surface
    /// direct evals (S2U check, D2T, W, X); `None` falls back to the
    /// scalar `direct_eval`.
    tk: Option<&'a dyn TileKernel>,
    ulen: usize,
    clen: usize,
    td: usize,
    flops_pair: u64,
    /// Plan-time translation grouping.
    tp: &'a TranslatePlan,
    /// Groups below this many right-hand sides use the per-box matvec
    /// fallback (bitwise identical — the break-even is numerics-free).
    gemm_min: usize,
}

impl Ctx<'_> {
    fn new<'a>(
        fmm: &'a Fmm,
        l: &'a Let,
        lists: &'a Lists,
        data: &'a EvalData,
        nf: Option<&'a NearField>,
        sib: &'a SiblingIndex,
    ) -> Ctx<'a> {
        Ctx {
            kernel: fmm.kernel(),
            ops: fmm.ops(),
            fftb: fmm.fft_batched(),
            l,
            lists,
            leaf_pos: &data.leaf_pos,
            leaf_den: &data.leaf_den,
            nf,
            sib,
            tk: fmm.kernel().as_tile_kernel(),
            ulen: fmm.ops().density_len(),
            clen: fmm.ops().check_len(),
            td: fmm.kernel().target_dim(),
            flops_pair: fmm.kernel().flops_per_pair(),
            tp: &data.translate,
            gemm_min: crate::tune::translate_breakeven_boxes(),
        }
    }

    /// Initial upward occupancy for octants in `range` (`window[0]`
    /// corresponds to octant `range.start`).
    fn mark_has_up_range(&self, range: Range<usize>, window: &mut [bool]) {
        let base = range.start;
        for i in range {
            window[i - base] = self.l.owned[i] && !self.leaf_pos[i].is_empty();
        }
    }

    /// (1a) S2U check potentials: sources evaluated onto the up-check
    /// surface for owned leaves in `range`, written into the matching
    /// slice of the check buffer (zero on entry). The per-level uc2e
    /// solves run afterwards as level-batched GEMMs
    /// ([`Ctx::s2u_solve_levels`]).
    fn s2u_check_range(
        &self,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, clen) = (self.l, self.ops, self.clen);
        let mut fl = 0u64;
        for i in range {
            if !l.owned[i] || self.leaf_pos[i].is_empty() {
                continue;
            }
            let key = l.octs[i];
            ops.up_check_surface_into(&key.center(), key.radius(), &mut sc.surf);
            sc.te.eval(
                self.tk,
                self.kernel,
                &sc.surf,
                &self.leaf_pos[i],
                &self.leaf_den[i],
                &mut window[i * clen - base..(i + 1) * clen - base],
            );
            fl += self.leaf_pos[i].len() as u64 * sc.surf.len() as u64 * self.flops_pair;
        }
        fl
    }

    /// (1b) Per-level uc2e solves, one batched group per level: gather
    /// the occupied leaves' check potentials as RHS columns, solve them
    /// together, scatter into the upward densities. Per box this is
    /// `u += s * (uc2e · ucheck)` with the per-box matvec's accumulation
    /// order (`crate::translate`).
    fn s2u_solve_levels(&self, ucheck: &[f64], u: &mut [f64], sc: &mut WorkerScratch) -> u64 {
        let (ops, ulen, clen) = (self.ops, self.ulen, self.clen);
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for (lev, g) in self.tp.s2u.iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let (m, s) = ops.uc2e(lev as u32);
            g.pack(clen, ucheck, sc);
            g.apply(&m, s, clen, ulen, self.gemm_min, sc, u);
            fl += g.len() as u64 * 2 * (ulen * clen) as u64;
        }
        fl
    }

    /// (2) One U2U level as up to 8 class-grouped GEMMs. Children of one
    /// parent arrive in ascending child-index order, a fixed per-parent
    /// merge order.
    fn u2u_level_gemm(
        &self,
        level: u32,
        u: &mut [f64],
        has_up: &mut [bool],
        sc: &mut WorkerScratch,
    ) -> u64 {
        let ulen = self.ulen;
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for (ci, g) in self.tp.u2u[level as usize].iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let (m, s) = self.ops.u2u(level, ci);
            g.pack(ulen, u, sc);
            g.apply(&m, s, ulen, ulen, self.gemm_min, sc, u);
            for &pi in &g.dst {
                has_up[pi as usize] = true;
            }
            fl += g.len() as u64 * 2 * (ulen * ulen) as u64;
        }
        fl
    }

    /// (4) D2D over the whole LET: per level one batched dc2e solve over
    /// every local octant, then up to 8 class-grouped L2L GEMMs gathering
    /// the (already final) parent densities. Per octant the accumulation
    /// order is `d = s₁·(dc2e·dcheck) + s₂·(d2d·parent)`.
    fn d2d_levels_gemm(
        &self,
        max_level: u32,
        dcheck: &[f64],
        d: &mut [f64],
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (ops, ulen, clen) = (self.ops, self.ulen, self.clen);
        let sc = &mut sc.tsc;
        let mut fl = 0u64;
        for level in 0..=max_level {
            let lv = level as usize;
            let g = &self.tp.dc2e[lv];
            if g.is_empty() {
                continue;
            }
            let (dm, s) = ops.dc2e(level);
            g.pack(clen, dcheck, sc);
            g.apply(&dm, s, clen, ulen, self.gemm_min, sc, d);
            // Charged as solve + translation per box, whether or not the
            // parent is present.
            fl += g.len() as u64 * (2 * (ulen * clen) as u64 + 2 * (ulen * ulen) as u64);
            if level == 0 {
                continue;
            }
            for (ci, cg) in self.tp.d2d[lv].iter().enumerate() {
                if cg.is_empty() {
                    continue;
                }
                let (m, s) = ops.d2d(level, ci);
                cg.pack(ulen, d, sc);
                cg.apply(&m, s, ulen, ulen, self.gemm_min, sc, d);
            }
        }
        fl
    }

    /// Direct near-field interactions (U-list) for target leaves in
    /// `range`; `window` is the matching point-potential slice. With a
    /// tiled layout present this dispatches to the SoA microkernels —
    /// same target boxes, same per-target accumulation order (CSR rows
    /// sorted by source box), so any range cut stays bitwise identical.
    /// Kernels without tile microkernels take the scalar loop below.
    fn uli_range(&self, range: Range<usize>, window: &mut [f64], base: usize) -> u64 {
        if let (Some(nf), Some(tk)) = (self.nf, self.tk) {
            return nf.eval_range(tk, self.td, self.flops_pair, range, window, base);
        }
        let (l, td) = (self.l, self.td);
        let mut fl = 0u64;
        for bi in range {
            if !l.owned[bi] || self.leaf_pos[bi].is_empty() {
                continue;
            }
            let (off, n) = (l.pt_off[bi], self.leaf_pos[bi].len());
            for &ai in self.lists.u.row(bi) {
                let ai = ai as usize;
                if self.leaf_pos[ai].is_empty() {
                    continue;
                }
                direct_eval(
                    self.kernel,
                    &self.leaf_pos[bi],
                    &self.leaf_pos[ai],
                    &self.leaf_den[ai],
                    &mut window[off * td - base..(off + n) * td - base],
                );
                fl += (n * self.leaf_pos[ai].len()) as u64 * self.flops_pair;
            }
        }
        fl
    }

    /// (3b) X-list for target octants in `range`; `window` is the
    /// matching downward-check slice.
    fn xli_range(
        &self,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, clen) = (self.l, self.clen);
        let mut fl = 0u64;
        for bi in range {
            if !l.local[bi] || self.lists.x.row(bi).is_empty() {
                continue;
            }
            let key = l.octs[bi];
            self.ops
                .down_check_surface_into(&key.center(), key.radius(), &mut sc.surf);
            for &ai in self.lists.x.row(bi) {
                let ai = ai as usize;
                if self.leaf_pos[ai].is_empty() {
                    continue;
                }
                sc.te.eval(
                    self.tk,
                    self.kernel,
                    &sc.surf,
                    &self.leaf_pos[ai],
                    &self.leaf_den[ai],
                    &mut window[bi * clen - base..(bi + 1) * clen - base],
                );
                fl += self.leaf_pos[ai].len() as u64 * sc.surf.len() as u64 * self.flops_pair;
            }
        }
        fl
    }

    /// (3a) V-list via dense per-offset operators.
    fn vli_dense_range(
        &self,
        has_up: &[bool],
        u: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
    ) -> u64 {
        let (l, ops, ulen, clen) = (self.l, self.ops, self.ulen, self.clen);
        let mut fl = 0u64;
        for bi in range {
            if !l.local[bi] {
                continue;
            }
            let beta = l.octs[bi];
            for &ai in self.lists.v.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                let (m, s) = ops.m2l(beta.level(), offset_of(&alpha, &beta));
                m.matvec_acc_scaled(
                    &u[ai * ulen..(ai + 1) * ulen],
                    &mut window[bi * clen - base..(bi + 1) * clen - base],
                    s,
                );
                fl += flop_model::m2l_dense_edge(clen, ulen);
            }
        }
        fl
    }

    /// Mark every V-list source with upward data and list them in octant
    /// order, reusing the workspace-owned flag/index buffers.
    fn vli_mark_sources(&self, has_up: &[bool], needed: &mut Vec<bool>, sources: &mut Vec<usize>) {
        let l = self.l;
        let noct = l.len();
        needed.clear();
        needed.resize(noct, false);
        for bi in 0..noct {
            if !l.local[bi] {
                continue;
            }
            for &ai in self.lists.v.row(bi) {
                if has_up[ai as usize] {
                    needed[ai as usize] = true;
                }
            }
        }
        sources.clear();
        sources.extend((0..noct).filter(|&i| needed[i]));
    }

    /// V-list batched pass 1: half-spectrum transform every V-list
    /// source once into the workspace-owned spectra, each worker on
    /// scratch lent by `with_tmp`. The kernel-spectrum table is *not*
    /// built here — it belongs to the `Fmm` (density-independent; its
    /// levels are built at workspace creation).
    #[allow(clippy::too_many_arguments)]
    fn vli_batched_spectra_into(
        &self,
        has_up: &[bool],
        u: &[f64],
        threads: usize,
        needed: &mut Vec<bool>,
        sources: &mut Vec<usize>,
        with_tmp: &LendTmp,
        out: &mut SourceSpectra,
    ) -> u64 {
        let (fftb, ulen) = (self.fftb, self.ulen);
        let noct = self.l.len();
        self.vli_mark_sources(has_up, needed, sources);
        let fl = sources.len() as u64 * fftb.flops_forward();
        fftb.source_spectra_into(sources, noct, u, ulen, threads, with_tmp, out);
        fl
    }

    /// V-list batched pass 2: the sibling-blocked Hadamard. The
    /// targets in `range` are taken from the sibling index in batches of
    /// up to four same-level parents; each batch runs the chunked kernel
    /// into reusable scratch accumulators, then each target with at least
    /// one edge is inverse-transformed into its check potential. A parent
    /// group split by the range cut contributes only its in-range
    /// children. Per-target results do not depend on the batching, so
    /// every cut accumulates identically.
    fn vli_batched_range(
        &self,
        has_up: &[bool],
        src: &SourceSpectra,
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (fftb, clen) = (self.fftb, self.clen);
        let mut fl = 0u64;
        let WorkerScratch { batch, edges, .. } = sc;
        let scratch = batch.get_or_insert_with(|| fftb.new_scratch(BATCH_TARGETS));
        let mut cursor = 0;
        while self.sib.next_batch(&mut cursor, &range, has_up, src, edges) {
            if edges.targets().is_empty() {
                continue;
            }
            fl += fftb.hadamard_batch(edges, src, scratch);
            for (t, &bi) in edges.targets().iter().enumerate() {
                let bi = bi as usize;
                fftb.finish(
                    scratch,
                    t,
                    &mut window[bi * clen - base..(bi + 1) * clen - base],
                );
                fl += fftb.flops_inverse();
            }
        }
        fl
    }

    /// (5b) D2T for owned leaves in `range`.
    fn d2t_range(
        &self,
        d: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, ulen, td) = (self.l, self.ops, self.ulen, self.td);
        let mut fl = 0u64;
        for i in range {
            if !l.owned[i] || self.leaf_pos[i].is_empty() {
                continue;
            }
            let key = l.octs[i];
            ops.down_equiv_surface_into(&key.center(), key.radius(), &mut sc.surf);
            let (off, n) = (l.pt_off[i], self.leaf_pos[i].len());
            sc.te.eval(
                self.tk,
                self.kernel,
                &self.leaf_pos[i],
                &sc.surf,
                &d[i * ulen..(i + 1) * ulen],
                &mut window[off * td - base..(off + n) * td - base],
            );
            fl += n as u64 * sc.surf.len() as u64 * self.flops_pair;
        }
        fl
    }

    /// (5a) W-list for owned target leaves in `range`.
    #[allow(clippy::too_many_arguments)]
    fn wli_range(
        &self,
        has_up: &[bool],
        u: &[f64],
        range: Range<usize>,
        window: &mut [f64],
        base: usize,
        sc: &mut WorkerScratch,
    ) -> u64 {
        let (l, ops, ulen, td) = (self.l, self.ops, self.ulen, self.td);
        let mut fl = 0u64;
        for bi in range {
            if !l.owned[bi] || self.lists.w.row(bi).is_empty() || self.leaf_pos[bi].is_empty() {
                continue;
            }
            let (off, n) = (l.pt_off[bi], self.leaf_pos[bi].len());
            for &ai in self.lists.w.row(bi) {
                let ai = ai as usize;
                if !has_up[ai] {
                    continue;
                }
                let alpha = l.octs[ai];
                ops.up_equiv_surface_into(&alpha.center(), alpha.radius(), &mut sc.surf);
                sc.te.eval(
                    self.tk,
                    self.kernel,
                    &self.leaf_pos[bi],
                    &sc.surf,
                    &u[ai * ulen..(ai + 1) * ulen],
                    &mut window[off * td - base..(off + n) * td - base],
                );
                fl += n as u64 * sc.surf.len() as u64 * self.flops_pair;
            }
        }
        fl
    }
}

/// Ghost octants receive their densities in the reduction; mark the ones
/// that arrived so the V/W lists use them.
fn refresh_ghost_has_up(ulen: usize, u: &[f64], has_up: &mut [bool]) {
    for (i, h) in has_up.iter_mut().enumerate() {
        if !*h {
            *h = u[i * ulen..(i + 1) * ulen].iter().any(|&v| v != 0.0);
        }
    }
}

/// Span recorder for the phases: whole-phase spans on the
/// driver lane at [`TraceLevel::Phase`], plus one span per parallel chunk
/// at [`TraceLevel::Task`]. Chunk lanes are handed out from a counter
/// that resets per phase, so every span gets a lane of its own and the
/// Chrome nesting invariant holds trivially. Recording happens strictly
/// *around* the chunk closures — the arithmetic, its ordering, and the
/// `Profile` timings are untouched, so a traced run stays bitwise
/// identical to an untraced one.
struct PhaseTrace<'a> {
    tracer: &'a Tracer,
    rank: u32,
    lane: AtomicU32,
}

impl PhaseTrace<'_> {
    fn new<'a>(tracer: &'a Tracer, c: &Comm) -> PhaseTrace<'a> {
        PhaseTrace {
            tracer,
            rank: c.rank() as u32,
            lane: AtomicU32::new(0),
        }
    }

    /// Whole-phase span (driver lane, cat `"phase"`); resets the chunk
    /// lane counter so each phase's chunks start at worker lane 0.
    fn phase<T>(&self, ph: Phase, f: impl FnOnce() -> T) -> T {
        if !self.tracer.enabled(TraceLevel::Phase) {
            return f();
        }
        self.lane.store(0, Ordering::Relaxed);
        let t0 = self.tracer.now_us();
        let out = f();
        let t1 = self.tracer.now_us();
        self.tracer
            .record_span(self.rank, TID_MAIN, ph.label(), "phase", t0, t1, &[]);
        out
    }

    /// Per-chunk span (next free worker lane, cat `"task"`).
    fn chunk(&self, ph: Phase, f: impl FnOnce() -> u64) -> u64 {
        if !self.tracer.enabled(TraceLevel::Task) {
            return f();
        }
        let t0 = self.tracer.now_us();
        let fl = f();
        let t1 = self.tracer.now_us();
        let lane = self.lane.fetch_add(1, Ordering::Relaxed) as usize;
        self.tracer
            .record_span(self.rank, tid_worker(lane), ph.label(), "task", t0, t1, &[]);
        fl
    }
}

/// Execute the FMM evaluation phases against the workspace's reusable buffers. The potentials (packed
/// `target_dim` per point, aligned with `l`'s point storage) are left in
/// `ws.f`; the return value is the Comm-phase traffic delta.
#[allow(clippy::too_many_arguments)]
pub fn run_phases(
    fmm: &Fmm,
    c: &Comm,
    l: &Let,
    lists: &Lists,
    data: &EvalData,
    ws: &mut EvalWorkspace,
    prof: &mut Profile,
    tracer: &Tracer,
) -> CommStats {
    // The tiled near-field layout is built on the workspace's first run, density-refreshed in place afterwards.
    // Both costs are charged to the U-list phase, the same way the GPU
    // pipeline charges its data-structure translation. Kernels without
    // tile microkernels have no layout and run the scalar U-list.
    if fmm.kernel().as_tile_kernel().is_some() {
        match ws.nf.as_mut() {
            Some(nf) => {
                let t0 = std::time::Instant::now();
                nf.refresh_densities(&data.leaf_den);
                let secs = t0.elapsed().as_secs_f64();
                prof.add_secs(Phase::UList, secs);
                prof.nf_build_secs += secs;
            }
            None => {
                let nf = NearField::build_with(
                    l,
                    lists,
                    &data.leaf_pos,
                    &data.leaf_den,
                    fmm.kernel().source_dim(),
                    fmm.setup_par(),
                );
                prof.add_secs(Phase::UList, nf.build_secs);
                prof.nf_build_secs += nf.build_secs;
                ws.nf = Some(nf);
            }
        }
    }
    // U-list chunk weights, cached on first use: tiled chunks are
    // weighted by padded pairs (wall time follows the lanes actually
    // evaluated), scalar chunks by real pairs.
    if ws.uli_weights.is_empty() {
        ws.uli_weights = match ws.nf.as_ref() {
            Some(nf) => nf.oct_weights().to_vec(),
            None => (0..l.len())
                .map(|bi| {
                    if !l.owned[bi] || data.leaf_pos[bi].is_empty() {
                        return 0;
                    }
                    let n = data.leaf_pos[bi].len() as u64;
                    lists
                        .u
                        .row(bi)
                        .iter()
                        .map(|&ai| n * data.leaf_pos[ai as usize].len() as u64)
                        .sum()
                })
                .collect(),
        };
    }
    // Zero the phase accumulators (sized once at workspace creation).
    ws.u.fill(0.0);
    ws.has_up.fill(false);
    ws.ucheck.fill(0.0);
    ws.dcheck.fill(0.0);
    ws.d.fill(0.0);
    ws.f.fill(0.0);

    let cfg = fmm.config();
    // Disjoint borrows of the workspace fields, so the context can hold
    // the near field and spectrum table while the phase buffers are
    // written and worker scratch is checked out of the pool.
    let EvalWorkspace {
        ref nf,
        ref sib,
        ref pool,
        ref uli_weights,
        ref vli_weights,
        ref mut u,
        ref mut has_up,
        ref mut ucheck,
        ref mut dcheck,
        ref mut d,
        ref mut f,
        ref mut needed,
        ref mut sources,
        ref mut src,
        ..
    } = *ws;
    let cx = Ctx::new(fmm, l, lists, data, nf.as_ref(), sib);
    let threads = cfg.threads.max(1);
    let noct = l.len();
    let (ulen, clen, td) = (cx.ulen, cx.clen, cx.td);
    let max_level = data.max_level;
    let cxr = &cx;
    let pt = PhaseTrace::new(tracer, c);
    let pt = &pt;

    // (1) S2U and (2) U2U — the upward pass. The per-leaf pass computes
    // only the check potentials (per-leaf parallel); the uc2e solves and
    // the U2U translations then run as level-batched multi-RHS GEMMs over
    // the plan-time groups (`crate::translate`).
    pt.phase(Phase::Upward, || {
        prof.timed(Phase::Upward, |prof| {
            let flops = par_windows(
                threads,
                noct,
                ucheck,
                &|i| i * clen,
                |range, window, base| {
                    pt.chunk(Phase::Upward, || {
                        pool.with(|sc| cxr.s2u_check_range(range, window, base, sc))
                    })
                },
            );
            prof.add_flops(Phase::Upward, flops);
            cx.mark_has_up_range(0..noct, has_up);
            let fl = pt.chunk(Phase::Upward, || {
                pool.with(|sc| cx.s2u_solve_levels(ucheck, u, sc))
            });
            prof.add_flops(Phase::Upward, fl);
            for level in (1..=max_level).rev() {
                let fl = pt.chunk(Phase::Upward, || {
                    pool.with(|sc| cx.u2u_level_gemm(level, u, has_up, sc))
                });
                prof.add_flops(Phase::Upward, fl);
            }
        })
    });

    // Reduce-and-scatter of shared upward densities (Algorithm 3). A
    // single rank exchanges nothing, so skip the snapshots entirely —
    // `Comm::stats` clones the per-peer breakdown map, which would be
    // the only steady-state allocation left in a warm apply.
    let comm_before = (c.size() > 1).then(|| c.stats());
    pt.phase(Phase::Comm, || {
        prof.timed(Phase::Comm, |_| {
            if c.size() > 1 {
                let hypercube = match cfg.reduction {
                    Reduction::Auto => c.size().is_power_of_two(),
                    Reduction::Hypercube => true,
                    Reduction::Naive => false,
                };
                if hypercube {
                    reduce_scatter_hypercube(c, l, ulen, u);
                } else {
                    reduce_scatter_naive(c, l, ulen, u);
                }
            }
        })
    });
    let comm_reduce = match comm_before {
        Some(b) => c.stats().delta_since(&b),
        None => CommStats::default(),
    };
    // Ghost densities may have arrived: refresh occupancy.
    refresh_ghost_has_up(ulen, u, has_up);
    let u: &[f64] = u; // read-only from here on
    let has_up: &[bool] = has_up;

    // Direct interactions (U-list); parallel over target leaves, with
    // ranges cut by interaction count (source·target point products) —
    // adaptive trees concentrate the near-field work in the refined
    // regions, which starves count-based chunks. Runs first among the
    // potential writers: the per-point accumulation order is U, D2T, W.
    let pt_base = &|i: usize| l.pt_off[i.min(noct)] * td;
    pt.phase(Phase::UList, || {
        prof.timed(Phase::UList, |prof| {
            let flops =
                par_windows_weighted(threads, uli_weights, f, pt_base, |range, window, base| {
                    pt.chunk(Phase::UList, || cxr.uli_range(range, window, base))
                });
            prof.add_flops(Phase::UList, flops);
        })
    });

    // (3b) X-list: sources of big adjacent leaves onto our downward check
    // surfaces; before V for the same accumulation-order reason.
    pt.phase(Phase::XList, || {
        prof.timed(Phase::XList, |prof| {
            let flops = par_windows(
                threads,
                noct,
                dcheck,
                &|i| i * clen,
                |range, window, base| {
                    pt.chunk(Phase::XList, || {
                        pool.with(|sc| cxr.xli_range(range, window, base, sc))
                    })
                },
            );
            prof.add_flops(Phase::XList, flops);
        })
    });

    // (3a) V-list, parallel over target octants with edge-count-weighted
    // range cuts (every V edge costs the same within a mode).
    pt.phase(Phase::VList, || {
        prof.timed(Phase::VList, |prof| match cfg.m2l {
            M2lMode::Dense => {
                let flops = par_windows_weighted(
                    threads,
                    vli_weights,
                    dcheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::VList, || {
                            cxr.vli_dense_range(has_up, u, range, window, base)
                        })
                    },
                );
                prof.add_flops(Phase::VList, flops);
            }
            M2lMode::FftBatched => {
                let fl = cx.vli_batched_spectra_into(
                    has_up,
                    u,
                    threads,
                    needed,
                    sources,
                    &|f| pool.with(|sc| f(&mut sc.tmp)),
                    src,
                );
                prof.add_flops(Phase::VList, fl);
                let src: &SourceSpectra = src;
                let flops = par_windows_weighted(
                    threads,
                    vli_weights,
                    dcheck,
                    &|i| i * clen,
                    |range, window, base| {
                        pt.chunk(Phase::VList, || {
                            pool.with(|sc| {
                                cxr.vli_batched_range(has_up, src, range, window, base, sc)
                            })
                        })
                    },
                );
                prof.add_flops(Phase::VList, flops);
            }
        })
    });
    let dcheck: &[f64] = dcheck;

    // (4) D2D + (5b) D2T — the downward pass.
    pt.phase(Phase::Downward, || {
        prof.timed(Phase::Downward, |prof| {
            let fl = pt.chunk(Phase::Downward, || {
                pool.with(|sc| cx.d2d_levels_gemm(max_level, dcheck, d, sc))
            });
            prof.add_flops(Phase::Downward, fl);
            let d: &[f64] = d;
            let flops = par_windows(threads, noct, f, pt_base, |range, window, base| {
                pt.chunk(Phase::Downward, || {
                    pool.with(|sc| cxr.d2t_range(d, range, window, base, sc))
                })
            });
            prof.add_flops(Phase::Downward, flops);
        })
    });

    // (5a) W-list: multipoles of small far leaves directly to targets.
    pt.phase(Phase::WList, || {
        prof.timed(Phase::WList, |prof| {
            let flops = par_windows(threads, noct, f, pt_base, |range, window, base| {
                pt.chunk(Phase::WList, || {
                    pool.with(|sc| cxr.wli_range(has_up, u, range, window, base, sc))
                })
            });
            prof.add_flops(Phase::WList, flops);
        })
    });

    comm_reduce
}
