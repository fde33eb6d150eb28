//! Batched, lock-free spectral M2L: sibling-blocked, frequency-chunked
//! Hadamard products over split-complex half spectra.
//!
//! The V-list translation is diagonal in frequency space: a target's
//! check spectrum is `Σ_edges scale · K̂_offset ⊙ û_source`. This module
//! lays that sum out so the phase runs from cache instead of re-streaming
//! a source and an accumulator spectrum per edge:
//!
//! * **One kernel table per [`crate::Fmm`]** ([`SpectraTable`]): the
//!   spectra of all 316 V-list transfer vectors, built once, lazily and
//!   thread-safely. Homogeneous kernels build them at the base level and
//!   scale per level by `(r_level/r_base)^h`; other kernels (Yukawa) build
//!   one set per level on first use. Every plan, rank and workspace of
//!   the `Fmm` reads the same table; lookups are two array indexes and
//!   never lock.
//! * **Half spectra**: equivalent densities and kernel samples are real,
//!   so only the Hermitian non-redundant `gh = n²·(n/2+1)` frequencies are
//!   kept — half the Hadamard flops and spectrum memory of a complex FFT.
//! * **Pruned small DFTs**: the transforms are
//!   [`crate::small_dft::PrunedDft3`] axis passes against one `n×n`
//!   twiddle table. A source transform reads only the `[0,p)³` corner
//!   that can be nonzero; a target inverse computes only `x, y < p` and
//!   evaluates the real output at the surface points alone.
//! * **Frequency-chunk-major layout**: kernel and source spectra are
//!   stored as [`Lanes`] blocks `[chunk][offset|source][component]`, each
//!   block the 8 real then 8 imaginary values of one 8-frequency chunk of
//!   one component (`gh` is a multiple of 8 for every order). Every
//!   operand of the inner loop is one contiguous, cache-line-aligned
//!   8-wide load.
//! * **Sibling blocking** (`SiblingIndex`): every V edge `(β, α)` has
//!   `parent(α)` among the colleagues of `parent(β)`, so a target's V list
//!   is a mask over (26 colleague directions × 8 source children). Targets
//!   are processed in batches of up to 4 same-level parents (32 targets);
//!   within a batch the kernel loops over frequency chunks and, per target,
//!   keeps its `td` accumulators in registers across all of its edges,
//!   then writes each (target, chunk) once, scaled. The batch's source and
//!   kernel chunks stay in L1/L2 while its targets sweep them.
//! * **Runtime SIMD dispatch**: the inner body is instantiated per tier
//!   (AVX-512 → AVX2+FMA → portable) by [`pfmm_linalg::simd_dispatch!`].
//!   It uses plain `*`/`+`, which rustc never contracts, so every tier
//!   produces the same bits.
//!
//! Per target the accumulation order is: by chunk, then source-parent
//! direction, then source child — it depends only on the target's own V
//! list and the source occupancy, never on range cuts, batch composition,
//! thread count or SIMD tier, so any thread count produces
//! bitwise-identical potentials.

use std::ops::Range;
use std::sync::{Arc, OnceLock};

use pfmm_kernels::Kernel;
use pfmm_tree::{Let, Lists};

use crate::ops::level_radius;
use crate::par::{par_map_n, Disjoint};
use crate::profile::flop_model;
use crate::small_dft::{DftScratch, PrunedDft3};
use crate::surface::{surface_grid_indices, RAD_INNER};

/// Number of valid V-list transfer vectors: components in `-3..=3` with
/// ∞-norm ≥ 2.
pub const N_OFFSETS: usize = 316;

/// Frequencies per chunk (one AVX-512 register of `f64`).
pub const LANES: usize = 8;

/// Target parents per batch of the blocked kernel.
const BATCH_PARENTS: usize = 4;

/// Targets per batch: 8 children of each of `BATCH_PARENTS` parents.
pub const BATCH_TARGETS: usize = 8 * BATCH_PARENTS;

/// Colleague directions `Q − P ∈ {-1,0,1}³` (the center is never a V
/// source parent: siblings are always adjacent).
const N_DIRS: usize = 27;

/// Compact index per dense `7³` slot (`u16::MAX` for adjacent vectors),
/// in ascending `[x, y, z]` order.
const OFFSET_INDEX: [u16; 343] = {
    let mut t = [u16::MAX; 343];
    let (mut i, mut k) = (0usize, 0u16);
    while i < 343 {
        if (i / 49).abs_diff(3) >= 2 || (i / 7 % 7).abs_diff(3) >= 2 || (i % 7).abs_diff(3) >= 2 {
            t[i] = k;
            k += 1;
        }
        i += 1;
    }
    assert!(k as usize == N_OFFSETS);
    t
};

/// Kernel-table index per (colleague direction, target child, source
/// child): the transfer vector `−2·dir + pos_t − pos_s`, compact-indexed
/// (`u16::MAX` where the two children are adjacent). Child positions are
/// `(x<<2)|(y<<1)|z` of the child's corner within its parent.
const SIBLING_OFFSET: [u16; N_DIRS * 64] = {
    let mut t = [u16::MAX; N_DIRS * 64];
    let mut i = 0usize;
    while i < N_DIRS * 64 {
        let (dir, tp, sp) = (i / 64, i / 8 % 8, i % 8);
        let d = [dir / 9, dir / 3 % 3, dir % 3];
        let mut slot = 0usize;
        let mut a = 0;
        while a < 3 {
            let bit = 2 - a;
            let o = 2 * (1 - d[a] as i64) + ((tp >> bit) & 1) as i64 - ((sp >> bit) & 1) as i64;
            slot = slot * 7 + (o + 3) as usize;
            a += 1;
        }
        t[i] = OFFSET_INDEX[slot];
        i += 1;
    }
    t
};

/// Compact index (`0..316`) of a V-list transfer vector. Panics on a
/// vector that is not a V-list offset.
#[inline]
pub fn offset_index(offset: [i8; 3]) -> usize {
    assert!(offset.iter().all(|&o| (-3..=3).contains(&o)));
    let slot =
        (((offset[0] + 3) as usize * 7) + (offset[1] + 3) as usize) * 7 + (offset[2] + 3) as usize;
    let k = OFFSET_INDEX[slot];
    assert_ne!(k, u16::MAX, "{offset:?} is not a V-list transfer vector");
    k as usize
}

/// All 316 V-list transfer vectors, in [`offset_index`] order.
pub(crate) fn all_offsets() -> Vec<[i8; 3]> {
    let mut out = Vec::with_capacity(N_OFFSETS);
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

/// One 8-frequency chunk of one split-complex spectrum component: the
/// unit every operand of the blocked Hadamard loads. Cache-line aligned,
/// so each half is one aligned AVX-512 load.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(C, align(64))]
pub struct Lanes {
    pub re: [f64; LANES],
    pub im: [f64; LANES],
}

impl Lanes {
    pub const ZERO: Lanes = Lanes {
        re: [0.0; LANES],
        im: [0.0; LANES],
    };
}

/// Scatter `sd` split-complex planes of `gh` values each into the
/// chunk-major blocks of item `item` (of `items`):
/// `[chunk][item][component]`.
///
/// # Safety
/// No other thread may write item `item`'s blocks concurrently.
unsafe fn scatter_chunks(
    re: &[f64],
    im: &[f64],
    sd: usize,
    gh: usize,
    item: usize,
    items: usize,
    out: &Disjoint<'_, Lanes>,
) {
    for c in 0..gh / LANES {
        for comp in 0..sd {
            let lo = comp * gh + c * LANES;
            let mut b = Lanes::ZERO;
            b.re.copy_from_slice(&re[lo..lo + LANES]);
            b.im.copy_from_slice(&im[lo..lo + LANES]);
            out.write((c * items + item) * sd + comp, b);
        }
    }
}

/// The `[(kx·n + ky)·h + kz]`-ordered half spectrum of component `comp`
/// of item `item` in chunk-major blocks `[chunk][item][component]`
/// (`items` items of `width` components).
fn plane(
    blocks: &[Lanes],
    items: usize,
    width: usize,
    item: usize,
    comp: usize,
) -> impl Iterator<Item = (f64, f64)> + '_ {
    blocks
        .iter()
        .skip(item * width + comp)
        .step_by(items * width)
        .flat_map(|b| (0..LANES).map(move |l| (b.re[l], b.im[l])))
}

/// The kernel spectra of every V-list transfer vector, shared by every
/// plan, rank and workspace of one [`crate::Fmm`]: per built level,
/// `[chunk][offset][tc·sd + sc]` blocks (`N_OFFSETS·td·sd` per chunk).
/// Homogeneous kernels hold one base-level set and a per-level scale;
/// other kernels one set per level. Sets are built on first request and
/// read without locking afterwards.
pub struct SpectraTable {
    /// Homogeneity degree; `Some` means entry 0 serves every level.
    homogeneity: Option<f64>,
    /// Component pairs per transfer vector (`td·sd`).
    pairs: usize,
    levels: Vec<OnceLock<Vec<Lanes>>>,
}

impl SpectraTable {
    fn new(homogeneity: Option<f64>, pairs: usize) -> SpectraTable {
        let n = match homogeneity {
            Some(_) => 1,
            None => pfmm_morton::MAX_DEPTH as usize + 1,
        };
        SpectraTable {
            homogeneity,
            pairs,
            levels: (0..n).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Where level `level`'s spectra live and the scale to apply.
    fn entry(&self, level: u32) -> (usize, f64) {
        match self.homogeneity {
            Some(h) => (0, (level_radius(level) / level_radius(0)).powf(h)),
            None => (level as usize, 1.0),
        }
    }

    /// The chunk-major spectra and homogeneity scale for targets at
    /// `level`. Panics if the level was not built
    /// ([`FftBatchedM2l::ensure_levels`]).
    #[inline]
    pub fn get(&self, level: u32) -> (&[Lanes], f64) {
        let (i, scale) = self.entry(level);
        let k = self.levels[i]
            .get()
            .expect("spectra built for the level before the V-list");
        (k, scale)
    }

    /// The half spectrum of component pair `pair` (`tc·sd + sc`) of
    /// transfer vector `offset` ([`offset_index`]) for targets at `level`,
    /// in `[(kx·n + ky)·h + kz]` order, and the level's scale. Panics if the
    /// level was not built.
    pub fn spectrum(
        &self,
        level: u32,
        offset: usize,
        pair: usize,
    ) -> (impl Iterator<Item = (f64, f64)> + '_, f64) {
        let (k, scale) = self.get(level);
        (plane(k, N_OFFSETS, self.pairs, offset, pair), scale)
    }

    /// Heap bytes held by the built spectrum sets (counted once per
    /// `Fmm`, not per plan or workspace).
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.levels
            .iter()
            .filter_map(|l| l.get())
            .map(|k| k.capacity() * size_of::<Lanes>())
            .sum::<usize>()
            + self.levels.len() * size_of::<OnceLock<Vec<Lanes>>>()
    }
}

/// Forward-transformed equivalent densities for the V-list sources of one
/// evaluation, chunk-major: source `s`, component `c`, chunk `k` is block
/// `(k·nsrc + s)·sd + c`.
pub struct SourceSpectra {
    /// Compact source index per octant; `u32::MAX` for octants that are
    /// not a V-list source.
    idx: Vec<u32>,
    blocks: Vec<Lanes>,
    nsrc: usize,
    /// Components per source.
    sd: usize,
}

impl SourceSpectra {
    /// An empty table, warmed in place by
    /// [`FftBatchedM2l::source_spectra_into`].
    pub fn empty() -> SourceSpectra {
        SourceSpectra {
            idx: Vec::new(),
            blocks: Vec::new(),
            nsrc: 0,
            sd: 0,
        }
    }

    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.idx.capacity() * size_of::<u32>() + self.blocks.capacity() * size_of::<Lanes>()
    }

    /// Compact source index of octant `oct`.
    #[inline]
    pub fn index(&self, oct: usize) -> u32 {
        let s = self.idx[oct];
        debug_assert_ne!(s, u32::MAX, "octant was not transformed");
        s
    }

    /// The half spectrum of component `comp` of source `s`
    /// ([`Self::index`]), in `[(kx·n + ky)·h + kz]` order.
    pub fn spectrum(&self, s: u32, comp: usize) -> impl Iterator<Item = (f64, f64)> + '_ {
        plane(&self.blocks, self.nsrc, self.sd, s as usize, comp)
    }
}

/// Reusable accumulator scratch for a batch of targets, plus the inverse-
/// transform staging buffers. One per worker, reused across batches;
/// the blocked kernel writes every (target, chunk) it accumulates, so no
/// reset is needed between batches.
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
}

/// Per-worker scratch for the forward source transforms (pass 1 of the
/// batched V-list): the `p³` corner grid, the split-complex planes of one
/// source and the transform staging. A default (empty) scratch warms on
/// first use.
#[derive(Default)]
pub struct SpectraTmp {
    grid: Vec<f64>,
    re: Vec<f64>,
    im: Vec<f64>,
    dft: DftScratch,
}

impl SpectraTmp {
    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        (self.grid.capacity() + self.re.capacity() + self.im.capacity())
            * std::mem::size_of::<f64>()
            + self.dft.memory_bytes()
    }
}

/// Lends the calling worker a [`SpectraTmp`] for the duration of the
/// callback: the workspace lends pooled per-worker scratch, one-off
/// callers a fresh one.
pub type LendTmp<'a> = dyn Fn(&mut dyn FnMut(&mut SpectraTmp)) + Sync + 'a;

/// The edges of one batch of same-level targets, per target in
/// accumulation order: `(offset index, source index)` pairs. Targets are
/// closed with [`EdgeBatch::end_target`]; a target without edges is
/// dropped.
#[derive(Default)]
pub struct EdgeBatch {
    level: u32,
    edges: Vec<(u32, u32)>,
    /// Edge-range end per target.
    ends: Vec<u32>,
    /// Caller tag (the target octant) per target.
    tags: Vec<u32>,
}

impl EdgeBatch {
    /// Start a new batch for targets at `level`.
    pub fn clear(&mut self, level: u32) {
        self.level = level;
        self.edges.clear();
        self.ends.clear();
        self.tags.clear();
    }

    /// Append an edge to the open target: kernel spectrum `offset`
    /// ([`offset_index`]) against source `source`
    /// ([`SourceSpectra::index`]).
    #[inline]
    pub fn push_edge(&mut self, offset: usize, source: u32) {
        debug_assert!(offset < N_OFFSETS);
        self.edges.push((offset as u32, source));
    }

    /// Close the open target under `tag`; dropped if it has no edges.
    #[inline]
    pub fn end_target(&mut self, tag: u32) {
        let start = self.ends.last().copied().unwrap_or(0);
        if self.edges.len() as u32 > start {
            self.ends.push(self.edges.len() as u32);
            self.tags.push(tag);
        }
    }

    /// Tags of the targets with at least one edge, in batch order.
    pub fn targets(&self) -> &[u32] {
        &self.tags
    }

    /// Number of edges in the batch.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Heap bytes held, by allocated capacity.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.edges.capacity() * size_of::<(u32, u32)>()
            + (self.ends.capacity() + self.tags.capacity()) * size_of::<u32>()
    }
}

/// One V-list target of the [`SiblingIndex`].
struct SibTarget {
    oct: u32,
    group: u32,
    /// Child position within its parent (`(x<<2)|(y<<1)|z`).
    pos: u8,
    /// Per colleague direction, the source children in this target's V
    /// list (bit = source child position).
    mask: [u8; N_DIRS],
}

/// The source children of one target parent's colleagues.
struct SibGroup {
    level: u32,
    /// Source octant per (direction, child position); `u32::MAX` where
    /// no target of the group has that child in its V list.
    src: [[u32; 8]; N_DIRS],
}

/// The V list regrouped by target parent: each local target holds a
/// (colleague direction × source child) mask and each parent group the
/// source octants, so the blocked kernel reads no per-edge list. Built
/// from the geometry alone; source occupancy (`has_up`) masks further at
/// apply time.
#[derive(Default)]
pub(crate) struct SiblingIndex {
    /// Sorted by (level, parent, child position).
    targets: Vec<SibTarget>,
    groups: Vec<SibGroup>,
    /// Distinct target levels, ascending.
    levels: Vec<u32>,
}

impl SiblingIndex {
    /// Index the V rows of the local targets of `l`.
    pub(crate) fn build(l: &Let, lists: &Lists) -> SiblingIndex {
        let pos_in = |child: &pfmm_morton::MortonKey, parent: &pfmm_morton::MortonKey| {
            let (c, p, cu) = (child.anchor(), parent.anchor(), child.cell_units());
            ((((c[0] - p[0]) / cu) << 2) | (((c[1] - p[1]) / cu) << 1) | ((c[2] - p[2]) / cu)) as u8
        };
        // (level, parent sort key, position, octant) per V target.
        let mut order: Vec<(u32, u128, u8, u32)> = (0..l.len())
            .filter(|&bi| l.local[bi] && !lists.v.row(bi).is_empty())
            .map(|bi| {
                let beta = l.octs[bi];
                let parent = beta.parent().expect("a V target has a parent");
                (
                    beta.level(),
                    parent.sort_key(),
                    pos_in(&beta, &parent),
                    bi as u32,
                )
            })
            .collect();
        order.sort_unstable();
        let mut idx = SiblingIndex::default();
        let mut last: Option<(u32, u128)> = None;
        for &(level, pkey, pos, bi) in &order {
            if last != Some((level, pkey)) {
                last = Some((level, pkey));
                idx.groups.push(SibGroup {
                    level,
                    src: [[u32::MAX; 8]; N_DIRS],
                });
                if idx.levels.last() != Some(&level) {
                    idx.levels.push(level);
                }
            }
            let gi = idx.groups.len() - 1;
            let beta = l.octs[bi as usize];
            let parent = beta.parent().expect("a V target has a parent");
            let (pa, pcu) = (parent.anchor(), parent.cell_units() as i64);
            let mut mask = [0u8; N_DIRS];
            for &ai in lists.v.row(bi as usize) {
                let alpha = l.octs[ai as usize];
                let q = alpha.parent().expect("a V source has a parent");
                let qa = q.anchor();
                let mut dir = 0usize;
                for a in 0..3 {
                    let d = (qa[a] as i64 - pa[a] as i64) / pcu;
                    assert!((-1..=1).contains(&d), "V source parent is not a colleague");
                    dir = dir * 3 + (d + 1) as usize;
                }
                let sp = pos_in(&alpha, &q);
                debug_assert_ne!(
                    SIBLING_OFFSET[(dir * 8 + pos as usize) * 8 + sp as usize],
                    u16::MAX
                );
                mask[dir] |= 1 << sp;
                idx.groups[gi].src[dir][sp as usize] = ai;
            }
            idx.targets.push(SibTarget {
                oct: bi,
                group: gi as u32,
                pos,
                mask,
            });
        }
        idx
    }

    /// Distinct levels of the indexed targets.
    pub(crate) fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Fill `eb` with the next batch of targets in `range`, starting the
    /// scan at `*cursor`: up to [`BATCH_PARENTS`] parent groups of one
    /// level, each target's edges in (direction, source child) order,
    /// sources without upward data masked. Returns `false` once the index
    /// is exhausted.
    pub(crate) fn next_batch(
        &self,
        cursor: &mut usize,
        range: &Range<usize>,
        has_up: &[bool],
        src: &SourceSpectra,
        eb: &mut EdgeBatch,
    ) -> bool {
        let mut groups = 0usize;
        let mut last = u32::MAX;
        while let Some(t) = self.targets.get(*cursor) {
            if !range.contains(&(t.oct as usize)) {
                *cursor += 1;
                continue;
            }
            let g = &self.groups[t.group as usize];
            if t.group != last {
                if groups == BATCH_PARENTS || (groups > 0 && g.level != eb.level) {
                    break;
                }
                if groups == 0 {
                    eb.clear(g.level);
                }
                groups += 1;
                last = t.group;
            }
            let kslots = &SIBLING_OFFSET[t.pos as usize * 8..];
            for (dir, &m) in t.mask.iter().enumerate() {
                let mut m = m;
                while m != 0 {
                    let sp = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let ai = g.src[dir][sp] as usize;
                    if has_up[ai] {
                        eb.push_edge(kslots[dir * 64 + sp] as usize, src.index(ai));
                    }
                }
            }
            eb.end_target(t.oct);
            *cursor += 1;
        }
        groups > 0
    }

    /// Heap bytes held, by allocated capacity.
    pub(crate) fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.targets.capacity() * size_of::<SibTarget>()
            + self.groups.capacity() * size_of::<SibGroup>()
            + self.levels.capacity() * size_of::<u32>()
    }
}

/// The batched spectral M2L engine for one kernel and surface order
/// (`--m2l=fft-batched`), owning the kernel [`SpectraTable`].
pub struct FftBatchedM2l {
    kernel: Arc<dyn Kernel>,
    order: usize,
    /// Torus side `n = 2p`.
    n: usize,
    dft: PrunedDft3,
    surf_idx: Vec<[usize; 3]>,
    table: SpectraTable,
}

impl FftBatchedM2l {
    /// Create an engine; `order` must match the operator cache in use.
    /// No spectrum is built until [`Self::ensure_levels`].
    pub fn new(kernel: Arc<dyn Kernel>, order: usize) -> FftBatchedM2l {
        let n = 2 * order;
        let table = SpectraTable::new(
            kernel.homogeneity(),
            kernel.target_dim() * kernel.source_dim(),
        );
        FftBatchedM2l {
            kernel,
            order,
            n,
            dft: PrunedDft3::new(order),
            surf_idx: surface_grid_indices(order),
            table,
        }
    }

    /// Real grid cells (`n³`).
    pub fn grid_len(&self) -> usize {
        self.n * self.n * self.n
    }

    /// Retained frequencies per half-spectrum plane (`n²·(n/2+1)`, a
    /// multiple of [`LANES`]).
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

    /// The shared kernel-spectrum table.
    pub fn table(&self) -> &SpectraTable {
        &self.table
    }

    #[inline]
    fn grid_index(&self, x: usize, y: usize, z: usize) -> usize {
        (x * self.n + y) * self.n + z
    }

    /// Build the kernel spectra the given target levels need, unless
    /// already built (once per `Fmm`; concurrent callers wait for the
    /// first). Each set holds all 316 transfer vectors, built on
    /// `threads` workers.
    pub fn ensure_levels(&self, levels: &[u32], threads: usize) {
        for &level in levels {
            // Entry `i` holds the spectra built at level `i` (the base
            // level 0 for a homogeneous kernel).
            let (i, _) = self.table.entry(level);
            self.table.levels[i].get_or_init(|| self.build_level(i as u32, threads));
        }
    }

    /// All 316 kernel spectra at `level`, chunk-major.
    fn build_level(&self, level: u32, threads: usize) -> Vec<Lanes> {
        let (gh, pairs) = (self.spectrum_len(), self.td() * self.sd());
        let mut out = vec![Lanes::ZERO; gh / LANES * N_OFFSETS * pairs];
        let dst = Disjoint::new(&mut out);
        let offsets = all_offsets();
        par_map_n(threads, N_OFFSETS, |i| {
            let (re, im) = self.build_kernel_spectrum(level, offsets[i]);
            // SAFETY: offset `i` owns blocks `(c·316 + i)·pairs + pair`.
            unsafe { scatter_chunks(&re, &im, pairs, gh, i, N_OFFSETS, &dst) };
        });
        out
    }

    /// Sample the kernel on the translation torus and half-spectrum
    /// transform each of the `td·sd` component grids: split-complex
    /// planes, plane `tc·sd + sc` at `[(tc·sd + sc)·gh ..][..gh]`.
    fn build_kernel_spectrum(&self, level: u32, offset: [i8; 3]) -> (Vec<f64>, Vec<f64>) {
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
        (re, im)
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

    /// [`Self::source_spectra`] writing into a caller-owned table, in
    /// place. `with_tmp` lends each worker a [`SpectraTmp`] for the
    /// duration of its run of sources (the workspace lends pooled
    /// per-worker scratch). Each source is transformed into the lent
    /// planes and scattered into its own blocks of every chunk; at
    /// `threads > 1` the sources are cut into contiguous runs, so the
    /// pass allocates nothing apart from the worker spawns once `out` and
    /// the lent scratch have warmed. Transforms are independent, so
    /// results are bitwise identical at any thread count.
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
        let (sd, gh) = (self.sd(), self.spectrum_len());
        let nsrc = sources.len();
        out.nsrc = nsrc;
        out.sd = sd;
        out.idx.clear();
        out.idx.resize(noct, u32::MAX);
        for (s, &ai) in sources.iter().enumerate() {
            out.idx[ai] = s as u32;
        }
        // Every block is overwritten below, so a same-size table is
        // reused without clearing.
        out.blocks.resize(gh / LANES * nsrc * sd, Lanes::ZERO);
        let dst = Disjoint::new(&mut out.blocks);
        let run = |first: usize, srcs: &[usize]| {
            with_tmp(&mut |tmp| {
                for (j, &ai) in srcs.iter().enumerate() {
                    self.transform_source(&u[ai * ulen..(ai + 1) * ulen], tmp);
                    // SAFETY: source `first + j` owns blocks
                    // `(c·nsrc + first + j)·sd + comp`; runs are disjoint.
                    unsafe { scatter_chunks(&tmp.re, &tmp.im, sd, gh, first + j, nsrc, &dst) };
                }
            })
        };
        if threads <= 1 || nsrc < 2 {
            run(0, sources);
            return;
        }
        let per = nsrc.div_ceil(threads);
        let run = &run;
        std::thread::scope(|scope| {
            for (k, srcs) in sources.chunks(per).enumerate() {
                scope.spawn(move || run(k * per, srcs));
            }
        });
    }

    /// Embed one octant's `n_surf·sd` packed density in the `[0,p)³`
    /// torus corner and half-spectrum transform each component into
    /// `tmp.re`/`tmp.im` (`sd` planes of `gh`).
    fn transform_source(&self, u: &[f64], tmp: &mut SpectraTmp) {
        let (p, sd, gh) = (self.order, self.sd(), self.spectrum_len());
        debug_assert_eq!(u.len(), self.surf_idx.len() * sd);
        tmp.grid.clear();
        tmp.grid.resize(p * p * p, 0.0);
        tmp.re.resize(sd * gh, 0.0);
        tmp.im.resize(sd * gh, 0.0);
        for c in 0..sd {
            for (s, m) in self.surf_idx.iter().enumerate() {
                tmp.grid[(m[0] * p + m[1]) * p + m[2]] = u[s * sd + c];
            }
            self.dft.forward(
                &tmp.grid,
                p,
                &mut tmp.re[c * gh..(c + 1) * gh],
                &mut tmp.im[c * gh..(c + 1) * gh],
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

    /// Run the blocked Hadamard over one batch: target `t` of `eb` gets
    /// `acc_t = scale · Σ_edges K̂_offset ⊙ û_source` in scratch slot `t`
    /// (overwritten). The batch's level must have been built. Returns
    /// the flops.
    pub fn hadamard_batch(
        &self,
        eb: &EdgeBatch,
        src: &SourceSpectra,
        scratch: &mut BatchScratch,
    ) -> u64 {
        let (k, scale) = self.table.get(eb.level);
        let a = HadamardArgs {
            k,
            src: &src.blocks,
            nsrc: src.nsrc,
            edges: &eb.edges,
            ends: &eb.ends,
            scale,
            gh: self.spectrum_len(),
        };
        assert!(eb.ends.len() <= scratch.slots, "batch exceeds the scratch");
        let (re, im) = (&mut scratch.acc_re[..], &mut scratch.acc_im[..]);
        match (self.td(), self.sd()) {
            (1, 1) => hadamard_1x1(&a, re, im),
            (1, 3) => hadamard_1x3(&a, re, im),
            (3, 3) => hadamard_3x3(&a, re, im),
            (td, sd) => hadamard_any(td, sd, &a, re, im),
        }
        eb.edges.len() as u64 * self.flops_edge()
    }

    /// Inverse-transform target accumulator `slot` at the surface points
    /// and add them into the packed downward check potential
    /// (`n_surf·td`).
    pub fn finish(&self, scratch: &mut BatchScratch, slot: usize, dcheck: &mut [f64]) {
        let gh = self.spectrum_len();
        let lo = slot * scratch.stride;
        for tc in 0..self.td() {
            self.finish_component(
                &scratch.acc_re[lo + tc * gh..lo + (tc + 1) * gh],
                &scratch.acc_im[lo + tc * gh..lo + (tc + 1) * gh],
                tc,
                dcheck,
                &mut scratch.dft,
            );
        }
    }

    /// Inverse-transform the half spectrum `re`/`im` of one target
    /// component `tc` at the surface points and add the values into that
    /// component of the packed downward check potential (`n_surf·td`).
    pub fn finish_component(
        &self,
        re: &[f64],
        im: &[f64],
        tc: usize,
        dcheck: &mut [f64],
        sc: &mut DftScratch,
    ) {
        let td = self.td();
        debug_assert_eq!(dcheck.len(), self.surf_idx.len() * td);
        self.dft
            .inverse_at(re, im, &self.surf_idx, &mut dcheck[tc..], td, sc);
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

/// Operands of one blocked-Hadamard batch.
struct HadamardArgs<'a> {
    /// Kernel spectra of the batch's level, `[chunk][offset][tc·sd+sc]`.
    k: &'a [Lanes],
    /// Source spectra, `[chunk][source][sc]`.
    src: &'a [Lanes],
    nsrc: usize,
    /// `(offset index, source index)` per edge, grouped by target.
    edges: &'a [(u32, u32)],
    /// Edge-range end per target.
    ends: &'a [u32],
    scale: f64,
    /// Frequencies per plane.
    gh: usize,
}

/// The blocked Hadamard, monomorphized per (target, source) dimension:
/// chunk-outer, then target; each target's `TD` split-complex chunk
/// accumulators stay in registers across all its edges (each edge adding
/// its components in source-component order) and are written once,
/// scaled, into the target's `[tc][gh]` planes of `acc_re`/`acc_im`.
#[inline(always)]
fn hadamard_body<const TD: usize, const SD: usize>(
    a: &HadamardArgs<'_>,
    acc_re: &mut [f64],
    acc_im: &mut [f64],
) {
    let (kpc, spc, gh) = (N_OFFSETS * TD * SD, a.nsrc * SD, a.gh);
    let nt = a.ends.len();
    assert!(gh % LANES == 0 && acc_re.len() >= nt * TD * gh && acc_im.len() >= nt * TD * gh);
    for c in 0..gh / LANES {
        let kc = &a.k[c * kpc..(c + 1) * kpc];
        let sc = &a.src[c * spc..(c + 1) * spc];
        let mut lo = 0usize;
        for (t, &hi) in a.ends.iter().enumerate() {
            let mut ar = [[0.0f64; LANES]; TD];
            let mut ai = [[0.0f64; LANES]; TD];
            for &(ko, so) in &a.edges[lo..hi as usize] {
                let kb = &kc[ko as usize * TD * SD..][..TD * SD];
                let sb = &sc[so as usize * SD..][..SD];
                for tc in 0..TD {
                    for (s, u) in sb.iter().enumerate() {
                        let kk = &kb[tc * SD + s];
                        for l in 0..LANES {
                            ar[tc][l] += kk.re[l] * u.re[l] - kk.im[l] * u.im[l];
                            ai[tc][l] += kk.re[l] * u.im[l] + kk.im[l] * u.re[l];
                        }
                    }
                }
            }
            for tc in 0..TD {
                let o = (t * TD + tc) * gh + c * LANES;
                let (wr, wi) = (&mut acc_re[o..o + LANES], &mut acc_im[o..o + LANES]);
                for l in 0..LANES {
                    wr[l] = ar[tc][l] * a.scale;
                    wi[l] = ai[tc][l] * a.scale;
                }
            }
            lo = hi as usize;
        }
    }
}

/// [`hadamard_body`] for dimensions without a monomorphized instance:
/// the same per-element operation order, one target component at a time.
fn hadamard_any(
    td: usize,
    sd: usize,
    a: &HadamardArgs<'_>,
    acc_re: &mut [f64],
    acc_im: &mut [f64],
) {
    let (kpc, spc, gh) = (N_OFFSETS * td * sd, a.nsrc * sd, a.gh);
    for c in 0..gh / LANES {
        let kc = &a.k[c * kpc..(c + 1) * kpc];
        let sc = &a.src[c * spc..(c + 1) * spc];
        let mut lo = 0usize;
        for (t, &hi) in a.ends.iter().enumerate() {
            for tc in 0..td {
                let (mut ar, mut ai) = ([0.0f64; LANES], [0.0f64; LANES]);
                for &(ko, so) in &a.edges[lo..hi as usize] {
                    let kb = &kc[(ko as usize * td + tc) * sd..][..sd];
                    let sb = &sc[so as usize * sd..][..sd];
                    for (kk, u) in kb.iter().zip(sb) {
                        for l in 0..LANES {
                            ar[l] += kk.re[l] * u.re[l] - kk.im[l] * u.im[l];
                            ai[l] += kk.re[l] * u.im[l] + kk.im[l] * u.re[l];
                        }
                    }
                }
                let o = (t * td + tc) * gh + c * LANES;
                for l in 0..LANES {
                    acc_re[o + l] = ar[l] * a.scale;
                    acc_im[o + l] = ai[l] * a.scale;
                }
            }
            lo = hi as usize;
        }
    }
}

pfmm_linalg::simd_dispatch!(
    fn hadamard_1x1(a: &HadamardArgs<'_>, acc_re: &mut [f64], acc_im: &mut [f64])
        => hadamard_body::<1, 1>
);
pfmm_linalg::simd_dispatch!(
    fn hadamard_1x3(a: &HadamardArgs<'_>, acc_re: &mut [f64], acc_im: &mut [f64])
        => hadamard_body::<1, 3>
);
pfmm_linalg::simd_dispatch!(
    fn hadamard_3x3(a: &HadamardArgs<'_>, acc_re: &mut [f64], acc_im: &mut [f64])
        => hadamard_body::<3, 3>
);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::Ops;
    use pfmm_kernels::{Laplace, Stokes};

    /// Sweep every valid offset at one level, comparing the blocked
    /// half-spectrum path against the dense operators: one source, one
    /// target per offset, 32 targets per batch.
    fn sweep_all_offsets(kernel: Arc<dyn Kernel>, order: usize, level: u32) {
        let ops = Ops::new(kernel.clone(), order);
        let eng = FftBatchedM2l::new(kernel, order);
        let offsets = all_offsets();
        assert_eq!(offsets.len(), N_OFFSETS);
        eng.ensure_levels(&[level], 2);

        let nd = ops.density_len();
        let u: Vec<f64> = (0..nd).map(|i| (i as f64 * 0.37).sin() + 0.2).collect();
        let src = eng.source_spectra(&[0], 1, &u, nd, 1);
        let mut scratch = eng.new_scratch(BATCH_TARGETS);
        let mut eb = EdgeBatch::default();

        for batch in offsets.chunks(BATCH_TARGETS) {
            eb.clear(level);
            for (t, &offset) in batch.iter().enumerate() {
                eb.push_edge(offset_index(offset), src.index(0));
                eb.end_target(t as u32);
            }
            eng.hadamard_batch(&eb, &src, &mut scratch);
            for (t, &offset) in batch.iter().enumerate() {
                let (m, s) = ops.m2l(level, offset);
                let mut dense = vec![0.0; ops.check_len()];
                m.matvec_acc_scaled(&u, &mut dense, s);
                let mut got = vec![0.0; ops.check_len()];
                eng.finish(&mut scratch, t, &mut got);

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
    }

    /// Orders 4 (n = 8), 6 (n = 12) and 8 (n = 16).
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
        eng.ensure_levels(&[1, 2, 5], 1);
        // One base set serves every level.
        let (k1, s1) = eng.table().get(1);
        let (k5, s5) = eng.table().get(5);
        assert!(std::ptr::eq(k1, k5) && std::ptr::eq(k1, eng.table().get(2).0));
        // Laplace is 1/r: scale ratio across 4 levels is 2⁴.
        assert!((s5 / s1 - 16.0).abs() < 1e-12);
    }

    #[test]
    fn batch_accumulation_is_linear() {
        let eng = FftBatchedM2l::new(Arc::new(Laplace), 4);
        let nd = eng.surf_idx.len();
        eng.ensure_levels(&[2], 1);
        let k = offset_index([0, 2, 0]);

        let u1: Vec<f64> = (0..nd).map(|i| i as f64).collect();
        let u2: Vec<f64> = (0..nd).map(|i| (nd - i) as f64).collect();
        let sum: Vec<f64> = u1.iter().zip(&u2).map(|(a, b)| a + b).collect();
        let mut all = Vec::new();
        all.extend_from_slice(&u1);
        all.extend_from_slice(&u2);
        all.extend_from_slice(&sum);
        let src = eng.source_spectra(&[0, 1, 2], 3, &all, nd, 1);

        let mut eb = EdgeBatch::default();
        eb.clear(2);
        eb.push_edge(k, src.index(0));
        eb.push_edge(k, src.index(1));
        eb.end_target(0);
        eb.push_edge(k, src.index(2));
        eb.end_target(1);
        let mut scratch = eng.new_scratch(2);
        eng.hadamard_batch(&eb, &src, &mut scratch);

        let mut two = vec![0.0; nd];
        eng.finish(&mut scratch, 0, &mut two);
        let mut one = vec![0.0; nd];
        eng.finish(&mut scratch, 1, &mut one);
        for (a, b) in two.iter().zip(&one) {
            assert!((a - b).abs() < 1e-9 * b.abs().max(1.0));
        }
    }

    /// The dispatched entries (widest tier this host has), the portable
    /// body and the per-component fallback agree bit for bit on random
    /// spectra and ragged edge lists.
    #[test]
    fn dispatched_tiers_match_portable_bitwise() {
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (gh, nsrc) = (4 * LANES, 5);
        let mut lanes = |n: usize| -> Vec<Lanes> {
            (0..n)
                .map(|_| Lanes {
                    re: std::array::from_fn(|_| 2.0 * rng.random::<f64>() - 1.0),
                    im: std::array::from_fn(|_| 2.0 * rng.random::<f64>() - 1.0),
                })
                .collect()
        };
        let (k, src) = (
            lanes(gh / LANES * N_OFFSETS * 9),
            lanes(gh / LANES * nsrc * 3),
        );
        let mut edges = Vec::new();
        let mut ends = Vec::new();
        for t in 0..6 {
            for e in 0..(3 * t + 1) {
                edges.push((rng.random_below(N_OFFSETS as u64) as u32, (e % nsrc) as u32));
            }
            ends.push(edges.len() as u32);
        }
        let a = HadamardArgs {
            k: &k,
            src: &src,
            nsrc,
            edges: &edges,
            ends: &ends,
            scale: 0.37,
            gh,
        };
        type Entry = fn(&HadamardArgs<'_>, &mut [f64], &mut [f64]);
        let cases: [(usize, usize, Entry, Entry); 3] = [
            (1, 1, hadamard_1x1, hadamard_body::<1, 1>),
            (1, 3, hadamard_1x3, hadamard_body::<1, 3>),
            (3, 3, hadamard_3x3, hadamard_body::<3, 3>),
        ];
        for (td, sd, dispatched, portable) in cases {
            let n = ends.len() * td * gh;
            let run = |f: &dyn Fn(&mut [f64], &mut [f64])| {
                let (mut re, mut im) = (vec![0.0; n], vec![0.0; n]);
                f(&mut re, &mut im);
                re.iter()
                    .chain(&im)
                    .map(|v| v.to_bits())
                    .collect::<Vec<u64>>()
            };
            let want = run(&|re, im| portable(&a, re, im));
            assert_eq!(run(&|re, im| dispatched(&a, re, im)), want, "{td}x{sd}");
            assert_eq!(
                run(&|re, im| hadamard_any(td, sd, &a, re, im)),
                want,
                "{td}x{sd}"
            );
            assert!(want.iter().any(|&b| b != 0));
        }
    }

    #[test]
    fn sibling_offsets_cover_every_transfer_vector() {
        let mut seen = [false; N_OFFSETS];
        for &k in SIBLING_OFFSET.iter().filter(|&&k| k != u16::MAX) {
            seen[k as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
        // Direction (+1, 0, 0), both children at the origin corner: the
        // source is two child widths along +x, so the target sits at −2.
        let dir = 2 * 9 + 3 + 1;
        assert_eq!(SIBLING_OFFSET[dir * 64], offset_index([-2, 0, 0]) as u16);
    }
}
