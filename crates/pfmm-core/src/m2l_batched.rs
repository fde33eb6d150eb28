//! Batched, lock-free spectral M2L: transfer-vector-grouped Hadamard
//! products over split-complex half spectra.
//!
//! The plain FFT path ([`crate::m2l_fft::FftM2l`]) resolves a kernel
//! spectrum from a mutex-guarded cache on every V-list edge and multiplies
//! AoS `Complex` values. This module restructures the same translation so
//! the V-list phase runs at memory bandwidth:
//!
//! * **Immutable [`SpectraTable`]**: every (level, transfer-vector) kernel
//!   spectrum present in the tree is built up front — homogeneous kernels
//!   build each offset once at the base level and share it across levels
//!   with a per-level scale — and the edge loop resolves spectra by a
//!   dense array index (7³ = 343 slots per level). No lock anywhere in
//!   the per-edge loop.
//! * **Half spectra**: equivalent densities and kernel samples are real,
//!   so only the Hermitian non-redundant `n²·(n/2+1)` frequencies are
//!   kept — half the Hadamard flops and spectrum memory of the complex
//!   path.
//! * **Pruned small DFTs**: the transforms are
//!   [`crate::small_dft::PrunedDft3`] axis passes against one `n×n`
//!   twiddle table. A source transform reads only the `[0,p)³` corner
//!   that can be nonzero; a target inverse computes only `x, y < p` and
//!   evaluates the real output at the surface points alone.
//! * **Split-complex SoA**: spectra are stored as separate re/im planes
//!   with frequency fastest, so the inner `td×sd` multiply-accumulate is
//!   a shuffle-free fused-multiply-add chain over contiguous `f64`s that
//!   autovectorizes.
//! * **Transfer-vector buckets + reusable scratch**: targets are processed
//!   in small batches whose edges are sorted by (level, offset), so each
//!   kernel spectrum is loaded once per bucket and streamed against a run
//!   of sources, accumulating into a reusable [`BatchScratch`] instead of
//!   a fresh allocation per target.
//!
//! Per target the edges are applied in ascending offset-slot order — an
//! order that depends only on the target's own V-list geometry, never on
//! chunk boundaries or thread count — so the barrier and graph executors
//! produce bitwise-identical potentials.

use std::sync::Arc;

use pfmm_kernels::Kernel;

use crate::ops::level_radius;
use crate::par::par_map;
use crate::profile::flop_model;
use crate::small_dft::{DftScratch, PrunedDft3};
use crate::surface::{surface_grid_indices, RAD_INNER};

/// Number of dense transfer-vector slots per level: components in
/// `-3..=3` along each axis.
pub const N_SLOTS: usize = 7 * 7 * 7;

/// Dense index of a V-list transfer vector (components in `-3..=3`).
#[inline]
pub fn offset_slot(offset: [i8; 3]) -> usize {
    debug_assert!(offset.iter().all(|&o| (-3..=3).contains(&o)));
    (((offset[0] + 3) as usize * 7) + (offset[1] + 3) as usize) * 7 + (offset[2] + 3) as usize
}

/// One kernel's spectra for a single transfer vector: `td·sd` half-
/// spectrum planes stored split-complex, frequency fastest, plane
/// `(tc·sd + sc)` at `[(tc·sd + sc)·gh .. ][..gh]`.
pub struct KernelSpectra {
    re: Vec<f64>,
    im: Vec<f64>,
}

struct LevelSpectra {
    /// Homogeneity rescale from the build level (1.0 when built in place).
    scale: f64,
    /// Spectra by dense transfer-vector slot.
    by_offset: Vec<Option<Arc<KernelSpectra>>>,
}

/// Immutable per-level table of kernel spectra, built before the V-list
/// edge loop; lookups are two array indexes and never lock.
pub struct SpectraTable {
    levels: Vec<Option<LevelSpectra>>,
}

impl SpectraTable {
    /// The spectra and homogeneity scale for an edge. Panics if the
    /// (level, offset) pair was not enumerated at build time.
    #[inline]
    pub fn get(&self, level: u32, slot: usize) -> (&KernelSpectra, f64) {
        let ls = self.levels[level as usize]
            .as_ref()
            .expect("level enumerated at table build");
        let spec = ls.by_offset[slot]
            .as_deref()
            .expect("offset enumerated at table build");
        (spec, ls.scale)
    }

    /// Number of distinct spectra held (shared Arcs counted once).
    pub fn distinct_spectra(&self) -> usize {
        let mut seen: Vec<*const KernelSpectra> = Vec::new();
        for ls in self.levels.iter().flatten() {
            for spec in ls.by_offset.iter().flatten() {
                let p = Arc::as_ptr(spec);
                if !seen.contains(&p) {
                    seen.push(p);
                }
            }
        }
        seen.len()
    }

    /// Heap bytes held by the table (distinct spectra counted once, plus
    /// the per-level slot arrays); feeds the workspace memory accounting.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut seen: Vec<*const KernelSpectra> = Vec::new();
        let mut planes = 0usize;
        let mut slots = 0usize;
        for ls in self.levels.iter().flatten() {
            slots += ls.by_offset.len();
            for spec in ls.by_offset.iter().flatten() {
                let p = Arc::as_ptr(spec);
                if !seen.contains(&p) {
                    seen.push(p);
                    planes += spec.re.len() + spec.im.len();
                }
            }
        }
        planes * size_of::<f64>()
            + seen.len() * (size_of::<KernelSpectra>() + 2 * size_of::<usize>())
            + slots * size_of::<Option<Arc<KernelSpectra>>>()
            + self.levels.len() * size_of::<Option<LevelSpectra>>()
    }
}

/// Forward-transformed equivalent densities for the V-list sources of one
/// evaluation, packed split-complex: source `s` holds `sd` planes of `gh`
/// frequencies each at `[(idx[s]·sd + c)·gh .. ][..gh]`.
pub struct SourceSpectra {
    /// Compact plane index per octant; `u32::MAX` for octants that are
    /// not a V-list source.
    idx: Vec<u32>,
    re: Vec<f64>,
    im: Vec<f64>,
    /// Values per source (`sd·gh`).
    stride: usize,
}

impl SourceSpectra {
    /// An empty table, warmed in place by
    /// [`FftBatchedM2l::source_spectra_into`].
    pub fn empty() -> SourceSpectra {
        SourceSpectra {
            idx: Vec::new(),
            re: Vec::new(),
            im: Vec::new(),
            stride: 0,
        }
    }

    /// Heap bytes held (element counts × element sizes).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.idx.len() * size_of::<u32>() + (self.re.len() + self.im.len()) * size_of::<f64>()
    }

    /// The split-complex planes of octant `oct` (`sd·gh` values each).
    #[inline]
    pub fn planes(&self, oct: usize) -> (&[f64], &[f64]) {
        let s = self.idx[oct];
        debug_assert_ne!(s, u32::MAX, "octant was not transformed");
        let lo = s as usize * self.stride;
        (
            &self.re[lo..lo + self.stride],
            &self.im[lo..lo + self.stride],
        )
    }
}

/// Reusable accumulator scratch for a batch of targets, plus the inverse-
/// transform staging buffers. One per worker, reused across batches.
pub struct BatchScratch {
    /// Targets the accumulators can hold.
    slots: usize,
    /// Values per target (`td·gh`).
    stride: usize,
    acc_re: Vec<f64>,
    acc_im: Vec<f64>,
    dft: DftScratch,
}

impl BatchScratch {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        (self.acc_re.capacity() + self.acc_im.capacity()) * std::mem::size_of::<f64>()
            + self.dft.memory_bytes()
    }

    /// Zero the first `n` target accumulators for a new batch.
    pub fn reset(&mut self, n: usize) {
        assert!(n <= self.slots);
        self.acc_re[..n * self.stride].fill(0.0);
        self.acc_im[..n * self.stride].fill(0.0);
    }
}

/// Per-worker scratch for the forward source transforms (pass 1 of the
/// batched V-list): the `p³` corner grid and the transform staging. A
/// default (empty) scratch warms on first use.
#[derive(Default)]
pub struct SpectraTmp {
    grid: Vec<f64>,
    dft: DftScratch,
}

impl SpectraTmp {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        self.grid.capacity() * std::mem::size_of::<f64>() + self.dft.memory_bytes()
    }
}

/// Lends the calling worker a [`SpectraTmp`] for the duration of the
/// callback: the workspace lends pooled per-worker scratch, one-off
/// callers a fresh one.
pub type LendTmp<'a> = dyn Fn(&mut dyn FnMut(&mut SpectraTmp)) + Sync + 'a;

/// The batched spectral M2L engine for one kernel and surface order
/// (`--m2l=fft-batched`).
pub struct FftBatchedM2l {
    kernel: Arc<dyn Kernel>,
    order: usize,
    /// Torus side `n = 2p`.
    n: usize,
    dft: PrunedDft3,
    surf_idx: Vec<[usize; 3]>,
}

impl FftBatchedM2l {
    /// Create an engine; `order` must match the operator cache in use.
    pub fn new(kernel: Arc<dyn Kernel>, order: usize) -> FftBatchedM2l {
        let n = 2 * order;
        FftBatchedM2l {
            kernel,
            order,
            n,
            dft: PrunedDft3::new(order),
            surf_idx: surface_grid_indices(order),
        }
    }

    /// Real grid cells (`n³`).
    pub fn grid_len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Retained frequencies per half-spectrum plane (`n²·(n/2+1)`).
    pub fn spectrum_len(&self) -> usize {
        self.dft.spectrum_len()
    }

    /// Number of source-dimension components.
    pub fn sd(&self) -> usize {
        self.kernel.source_dim()
    }

    /// Number of target-dimension components.
    pub fn td(&self) -> usize {
        self.kernel.target_dim()
    }

    #[inline]
    fn grid_index(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Build the immutable kernel-spectrum table for the distinct
    /// (level, offset) pairs present in the tree. Homogeneous kernels
    /// build each offset once at the base level and share the spectra
    /// across levels with a per-level scale.
    pub fn build_table(&self, keys: &[(u32, [i8; 3])], threads: usize) -> SpectraTable {
        let max_level = keys.iter().map(|&(l, _)| l).max().unwrap_or(0) as usize;
        let mut levels: Vec<Option<LevelSpectra>> = (0..=max_level).map(|_| None).collect();
        match self.kernel.homogeneity() {
            Some(h) => {
                // Distinct offsets across all levels, built once at the
                // base level 0 in a deterministic (sorted) order.
                let mut seen = [false; N_SLOTS];
                let mut offsets: Vec<[i8; 3]> = Vec::new();
                for &(_, o) in keys {
                    let s = offset_slot(o);
                    if !seen[s] {
                        seen[s] = true;
                        offsets.push(o);
                    }
                }
                offsets.sort_unstable();
                let idxs: Vec<usize> = (0..offsets.len()).collect();
                let specs = par_map(threads, &idxs, |i| {
                    Arc::new(self.build_kernel_spectrum(0, offsets[i]))
                });
                let mut base: Vec<Option<Arc<KernelSpectra>>> = vec![None; N_SLOTS];
                for (o, spec) in offsets.iter().zip(specs) {
                    base[offset_slot(*o)] = Some(spec);
                }
                for &(level, _) in keys {
                    if levels[level as usize].is_none() {
                        levels[level as usize] = Some(LevelSpectra {
                            scale: (level_radius(level) / level_radius(0)).powf(h),
                            by_offset: base.clone(),
                        });
                    }
                }
            }
            None => {
                let idxs: Vec<usize> = (0..keys.len()).collect();
                let specs = par_map(threads, &idxs, |i| {
                    let (level, offset) = keys[i];
                    Arc::new(self.build_kernel_spectrum(level, offset))
                });
                for (&(level, offset), spec) in keys.iter().zip(specs) {
                    let ls = levels[level as usize].get_or_insert_with(|| LevelSpectra {
                        scale: 1.0,
                        by_offset: vec![None; N_SLOTS],
                    });
                    ls.by_offset[offset_slot(offset)] = Some(spec);
                }
            }
        }
        SpectraTable { levels }
    }

    /// Sample the kernel on the translation torus and half-spectrum
    /// transform each of the `td·sd` component grids.
    fn build_kernel_spectrum(&self, level: u32, offset: [i8; 3]) -> KernelSpectra {
        let p = self.order;
        let n = self.n;
        let g = self.grid_len();
        let gh = self.spectrum_len();
        let sd = self.sd();
        let td = self.td();
        let r = level_radius(level);
        let h = 2.0 * RAD_INNER * r / (p - 1) as f64;
        let d = [
            offset[0] as f64 * 2.0 * r,
            offset[1] as f64 * 2.0 * r,
            offset[2] as f64 * 2.0 * r,
        ];
        let mut block = vec![0.0; td * sd];
        let mut grids = vec![0.0f64; td * sd * g];
        let half = p as i64 - 1;
        for mx in -half..=half {
            for my in -half..=half {
                for mz in -half..=half {
                    let x = [
                        d[0] + h * mx as f64,
                        d[1] + h * my as f64,
                        d[2] + h * mz as f64,
                    ];
                    self.kernel.eval_block(&x, &[0.0; 3], &mut block);
                    let gi = self.grid_index(
                        mx.rem_euclid(n as i64) as usize,
                        my.rem_euclid(n as i64) as usize,
                        mz.rem_euclid(n as i64) as usize,
                    );
                    for pair in 0..td * sd {
                        grids[pair * g + gi] = block[pair];
                    }
                }
            }
        }
        let mut re = vec![0.0f64; td * sd * gh];
        let mut im = vec![0.0f64; td * sd * gh];
        let mut sc = DftScratch::default();
        for pair in 0..td * sd {
            self.dft.forward(
                &grids[pair * g..(pair + 1) * g],
                n,
                &mut re[pair * gh..(pair + 1) * gh],
                &mut im[pair * gh..(pair + 1) * gh],
                &mut sc,
            );
        }
        KernelSpectra { re, im }
    }

    /// Forward-transform the equivalent densities of the given source
    /// octants (pass 1). `u` is the packed upward-density array with
    /// `ulen` values per octant; `noct` sizes the octant index.
    pub fn source_spectra(
        &self,
        sources: &[usize],
        noct: usize,
        u: &[f64],
        ulen: usize,
        threads: usize,
    ) -> SourceSpectra {
        let mut out = SourceSpectra::empty();
        self.source_spectra_into(
            sources,
            noct,
            u,
            ulen,
            threads,
            &|f| f(&mut SpectraTmp::default()),
            &mut out,
        );
        out
    }

    /// [`Self::source_spectra`] writing into a caller-owned table.
    /// `with_tmp` lends each worker a [`SpectraTmp`] for the duration of
    /// its run of sources (the workspace lends pooled per-worker scratch).
    /// At `threads > 1` the sources are cut into contiguous runs, each
    /// transformed straight into its disjoint window of `out`, so the
    /// pass is alloc-free apart from the worker spawns once `out` and the
    /// lent scratch have warmed. Transforms are independent, so results
    /// are bitwise identical at any thread count.
    #[allow(clippy::too_many_arguments)]
    pub fn source_spectra_into(
        &self,
        sources: &[usize],
        noct: usize,
        u: &[f64],
        ulen: usize,
        threads: usize,
        with_tmp: &LendTmp,
        out: &mut SourceSpectra,
    ) {
        let stride = self.sd() * self.spectrum_len();
        out.stride = stride;
        out.idx.clear();
        out.idx.resize(noct, u32::MAX);
        for (s, &ai) in sources.iter().enumerate() {
            out.idx[ai] = s as u32;
        }
        out.re.clear();
        out.re.resize(sources.len() * stride, 0.0);
        out.im.clear();
        out.im.resize(sources.len() * stride, 0.0);
        let run = |srcs: &[usize], re: &mut [f64], im: &mut [f64]| {
            with_tmp(&mut |tmp| {
                for ((&ai, re), im) in srcs
                    .iter()
                    .zip(re.chunks_exact_mut(stride))
                    .zip(im.chunks_exact_mut(stride))
                {
                    self.transform_source_into(&u[ai * ulen..(ai + 1) * ulen], tmp, re, im);
                }
            })
        };
        if threads <= 1 || sources.len() < 2 {
            run(sources, &mut out.re, &mut out.im);
            return;
        }
        let per = sources.len().div_ceil(threads);
        let run = &run;
        crossbeam::thread::scope(|scope| {
            for ((srcs, re), im) in sources
                .chunks(per)
                .zip(out.re.chunks_mut(per * stride))
                .zip(out.im.chunks_mut(per * stride))
            {
                scope.spawn(move |_| run(srcs, re, im));
            }
        })
        .expect("source spectra scope");
    }

    /// Embed one octant's `n_surf·sd` packed density in the `[0,p)³`
    /// torus corner and half-spectrum transform each component, writing
    /// the split-complex planes in place.
    fn transform_source_into(
        &self,
        u: &[f64],
        tmp: &mut SpectraTmp,
        re: &mut [f64],
        im: &mut [f64],
    ) {
        let (p, sd, gh) = (self.order, self.sd(), self.spectrum_len());
        debug_assert_eq!(u.len(), self.surf_idx.len() * sd);
        tmp.grid.clear();
        tmp.grid.resize(p * p * p, 0.0);
        for c in 0..sd {
            for (s, m) in self.surf_idx.iter().enumerate() {
                tmp.grid[(m[0] * p + m[1]) * p + m[2]] = u[s * sd + c];
            }
            self.dft.forward(
                &tmp.grid,
                p,
                &mut re[c * gh..(c + 1) * gh],
                &mut im[c * gh..(c + 1) * gh],
                &mut tmp.dft,
            );
        }
    }

    /// Fresh accumulator scratch able to hold `slots` targets.
    pub fn new_scratch(&self, slots: usize) -> BatchScratch {
        let stride = self.td() * self.spectrum_len();
        BatchScratch {
            slots,
            stride,
            acc_re: vec![0.0f64; slots * stride],
            acc_im: vec![0.0f64; slots * stride],
            dft: DftScratch::default(),
        }
    }

    /// Accumulate one edge into target accumulator `slot`:
    /// `acc_tc += scale · Σ_sc K̂_(tc,sc) ⊙ û_sc`, split-complex.
    pub fn accumulate(
        &self,
        scratch: &mut BatchScratch,
        slot: usize,
        k: &KernelSpectra,
        src_re: &[f64],
        src_im: &[f64],
        scale: f64,
    ) {
        let gh = self.spectrum_len();
        let sd = self.sd();
        let td = self.td();
        debug_assert_eq!(k.re.len(), td * sd * gh);
        debug_assert_eq!(src_re.len(), sd * gh);
        let lo = slot * scratch.stride;
        let acc_re = &mut scratch.acc_re[lo..lo + scratch.stride];
        let acc_im = &mut scratch.acc_im[lo..lo + scratch.stride];
        for tc in 0..td {
            let ar = &mut acc_re[tc * gh..(tc + 1) * gh];
            let ai = &mut acc_im[tc * gh..(tc + 1) * gh];
            for sc in 0..sd {
                let pair = (tc * sd + sc) * gh;
                madd(
                    ar,
                    ai,
                    &k.re[pair..pair + gh],
                    &k.im[pair..pair + gh],
                    &src_re[sc * gh..(sc + 1) * gh],
                    &src_im[sc * gh..(sc + 1) * gh],
                    scale,
                );
            }
        }
    }

    /// Inverse-transform target accumulator `slot` at the surface points
    /// and add them into the packed downward check potential
    /// (`n_surf·td`).
    pub fn finish(&self, scratch: &mut BatchScratch, slot: usize, dcheck: &mut [f64]) {
        let gh = self.spectrum_len();
        let td = self.td();
        debug_assert_eq!(dcheck.len(), self.surf_idx.len() * td);
        let lo = slot * scratch.stride;
        for tc in 0..td {
            self.dft.inverse_at(
                &scratch.acc_re[lo + tc * gh..lo + (tc + 1) * gh],
                &scratch.acc_im[lo + tc * gh..lo + (tc + 1) * gh],
                &self.surf_idx,
                &mut dcheck[tc..],
                td,
                &mut scratch.dft,
            );
        }
    }

    /// Flops for one edge's half-spectrum Hadamard accumulation.
    pub fn flops_edge(&self) -> u64 {
        flop_model::hadamard_edge(self.spectrum_len(), self.sd(), self.td())
    }

    /// Flops for one source's pruned forward transforms (`[0,p)³`
    /// support, one per source component).
    pub fn flops_forward(&self) -> u64 {
        flop_model::pruned_dft_forward(self.n, self.order) * self.sd() as u64
    }

    /// Flops for one target's pruned inverse transforms (surface points
    /// only, one per target component).
    pub fn flops_inverse(&self) -> u64 {
        flop_model::pruned_dft_inverse(self.n, self.order, self.surf_idx.len()) * self.td() as u64
    }
}

/// The split-complex multiply-accumulate kernel: 4 FMAs per frequency,
/// no shuffles — every operand is a contiguous `f64` run of one length,
/// which is the shape LLVM autovectorizes.
#[inline]
fn madd(ar: &mut [f64], ai: &mut [f64], kr: &[f64], ki: &[f64], ur: &[f64], ui: &[f64], s: f64) {
    let n = ar.len();
    assert!(
        ai.len() == n && kr.len() == n && ki.len() == n && ur.len() == n && ui.len() == n,
        "plane length mismatch"
    );
    for f in 0..n {
        ar[f] += s * (kr[f] * ur[f] - ki[f] * ui[f]);
        ai[f] += s * (kr[f] * ui[f] + ki[f] * ur[f]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Ops;
    use pfmm_kernels::{Laplace, Stokes};

    /// All valid V-list transfer vectors: components in −3..=3 with
    /// ∞-norm ≥ 2 (316 of them).
    fn all_offsets() -> Vec<[i8; 3]> {
        let mut out = Vec::new();
        for x in -3i8..=3 {
            for y in -3i8..=3 {
                for z in -3i8..=3 {
                    if x.abs().max(y.abs()).max(z.abs()) >= 2 {
                        out.push([x, y, z]);
                    }
                }
            }
        }
        out
    }

    /// Sweep every valid offset at one level, comparing the batched
    /// half-spectrum path against the dense operators.
    fn sweep_all_offsets(kernel: Arc<dyn Kernel>, order: usize, level: u32) {
        let ops = Ops::new(kernel.clone(), order, 1e-12);
        let eng = FftBatchedM2l::new(kernel, order);
        let offsets = all_offsets();
        assert_eq!(offsets.len(), 316);
        let keys: Vec<(u32, [i8; 3])> = offsets.iter().map(|&o| (level, o)).collect();
        let table = eng.build_table(&keys, 2);

        let nd = ops.density_len();
        let u: Vec<f64> = (0..nd).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
        let noct = 1;
        let src = eng.source_spectra(&[0], noct, &u, nd, 1);
        let (sre, sim) = src.planes(0);
        let mut scratch = eng.new_scratch(1);

        for &offset in &offsets {
            let (m, s) = ops.m2l(level, offset);
            let mut dense = vec![0.0; ops.check_len()];
            m.matvec_acc_scaled(&u, &mut dense, s);

            let (k, scale) = table.get(level, offset_slot(offset));
            scratch.reset(1);
            eng.accumulate(&mut scratch, 0, k, sre, sim, scale);
            let mut got = vec![0.0; ops.check_len()];
            eng.finish(&mut scratch, 0, &mut got);

            let denom = dense
                .iter()
                .map(|v| v.abs())
                .fold(0.0f64, f64::max)
                .max(1e-30);
            for (a, b) in got.iter().zip(&dense) {
                assert!(
                    (a - b).abs() < 1e-10 * denom,
                    "batched {a} vs dense {b} (order {order}, offset {offset:?})"
                );
            }
        }
    }

    /// Orders 4 (n = 8, radix-2 sized), 6 (n = 12) and 8 (n = 16).
    #[test]
    fn laplace_all_offsets_match_dense() {
        for order in [4, 6, 8] {
            sweep_all_offsets(Arc::new(Laplace), order, 2);
        }
    }

    #[test]
    fn stokes_all_offsets_match_dense() {
        sweep_all_offsets(Arc::new(Stokes::default()), 4, 3);
    }

    #[test]
    fn homogeneous_table_shares_base_spectra_across_levels() {
        let eng = FftBatchedM2l::new(Arc::new(Laplace), 4);
        let keys = vec![
            (1, [2, 0, 0]),
            (2, [2, 0, 0]),
            (5, [2, 0, 0]),
            (2, [0, -3, 1]),
        ];
        let table = eng.build_table(&keys, 1);
        // 2 distinct offsets, shared by every level.
        assert_eq!(table.distinct_spectra(), 2);
        let (k1, s1) = table.get(1, offset_slot([2, 0, 0]));
        let (k5, s5) = table.get(5, offset_slot([2, 0, 0]));
        assert!(std::ptr::eq(k1, k5));
        // Laplace is 1/r: scale ratio across 4 levels is 2⁴.
        assert!((s5 / s1 - 16.0).abs() < 1e-12);
    }

    #[test]
    fn batch_accumulation_is_linear() {
        let eng = FftBatchedM2l::new(Arc::new(Laplace), 4);
        let nd = eng.surf_idx.len();
        let table = eng.build_table(&[(2, [0, 2, 0])], 1);
        let (k, s) = table.get(2, offset_slot([0, 2, 0]));

        let u1: Vec<f64> = (0..nd).map(|i| i as f64).collect();
        let u2: Vec<f64> = (0..nd).map(|i| (nd - i) as f64).collect();
        let sum: Vec<f64> = u1.iter().zip(&u2).map(|(a, b)| a + b).collect();
        let mut all = Vec::new();
        all.extend_from_slice(&u1);
        all.extend_from_slice(&u2);
        all.extend_from_slice(&sum);
        let src = eng.source_spectra(&[0, 1, 2], 3, &all, nd, 1);

        let mut scratch = eng.new_scratch(2);
        scratch.reset(2);
        let (r0, i0) = src.planes(0);
        eng.accumulate(&mut scratch, 0, k, r0, i0, s);
        let (r1, i1) = src.planes(1);
        eng.accumulate(&mut scratch, 0, k, r1, i1, s);
        let (r2, i2) = src.planes(2);
        eng.accumulate(&mut scratch, 1, k, r2, i2, s);

        let mut two = vec![0.0; nd];
        eng.finish(&mut scratch, 0, &mut two);
        let mut one = vec![0.0; nd];
        eng.finish(&mut scratch, 1, &mut one);
        for (a, b) in two.iter().zip(&one) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }
}
