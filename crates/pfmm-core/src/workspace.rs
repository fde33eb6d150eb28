//! Plan-owned evaluation workspaces: every buffer an apply needs, sized
//! once from the plan's LET and reused across applies so a warm
//! [`crate::driver::Fmm::apply`] performs zero steady-state heap
//! allocations (asserted by `tests/alloc_gate.rs`).
//!
//! Lifecycle: an [`EvalWorkspace`] is created lazily on the first apply
//! (or explicitly via [`crate::driver::Fmm::workspace`]) and tagged with
//! the owning plan's generation uid. Every entry point that accepts an
//! external workspace checks the tag and rebuilds the workspace in place
//! on a mismatch, so a pooled workspace can never carry stale buffers
//! into a different plan. The zero-allocation guarantee covers the
//! default configuration (`--m2l=fft-batched`) at `threads = 1` on a
//! single rank; the dense M2L oracle, `threads > 1` fan-out (a fixed
//! number of worker spawns per apply, nothing per octant) and the
//! multi-rank ghost exchange stay correct but may allocate, as
//! documented in DESIGN.md §15.
//!
//! Contents:
//! * the phase accumulators (`u`, `has_up`, `ucheck`, `dcheck`, `d`,
//!   `f`) that the phases fill;
//! * the V-list `SiblingIndex` (fft-batched mode): the local targets'
//!   V rows regrouped by target parent, built once at creation from the
//!   geometry alone. The kernel-spectrum table it is applied with is not
//!   here: it belongs to the `Fmm` and is shared by every plan, rank and
//!   workspace; creation only makes sure the levels this LET needs are
//!   built;
//! * the lazily built tiled near-field layout, density-refreshed in
//!   place on later applies;
//! * a [`ScratchPool`] of per-worker scratch (tile-eval SoA panels,
//!   GEMM pack panels, FFT work vectors, batched-M2L accumulators and
//!   edge batches)
//!   checked out by the chunk kernels.

use std::sync::{Arc, Mutex};

use pfmm_kernels::Point3;
use pfmm_metrics::Counter;
use pfmm_tree::{Let, Lists};

use crate::driver::{Fmm, M2lMode};
use crate::exec::TileEval;
use crate::m2l_batched::{BatchScratch, EdgeBatch, SiblingIndex, SourceSpectra, SpectraTmp};
use crate::nearfield::NearField;
use crate::translate::Scratch as TranslateScratch;

/// Per-worker reusable scratch, checked out of a [`ScratchPool`] by the
/// chunk kernels. Buffers warm to their steady-state
/// sizes during the first apply and are reused thereafter.
#[derive(Default)]
pub(crate) struct WorkerScratch {
    /// SoA panels for the point↔surface tile microkernels.
    pub(crate) te: TileEval,
    /// Equivalent/check surface points (one surface live at a time).
    pub(crate) surf: Vec<Point3>,
    /// GEMM pack/product panels for the grouped translations.
    pub(crate) tsc: TranslateScratch,
    /// Batched-M2L target accumulators (lazily sized to the batch).
    pub(crate) batch: Option<BatchScratch>,
    /// Forward-transform staging for the batched-M2L pass 1.
    pub(crate) tmp: SpectraTmp,
    /// Edge lists of the current batched-M2L batch.
    pub(crate) edges: EdgeBatch,
}

impl WorkerScratch {
    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.te.memory_bytes()
            + self.surf.capacity() * size_of::<Point3>()
            + self.tsc.memory_bytes()
            + self.batch.as_ref().map_or(0, |b| b.memory_bytes())
            + self.tmp.memory_bytes()
            + self.edges.memory_bytes()
    }
}

/// Fixed set of [`WorkerScratch`] slots, one per configured worker.
/// Checkout spins over `try_lock` — with at most `threads` concurrent
/// chunk kernels and `threads` slots a free slot always exists, so the
/// spin is bounded by lock-handoff time and never allocates.
pub(crate) struct ScratchPool {
    slots: Vec<Mutex<WorkerScratch>>,
}

impl ScratchPool {
    fn new(workers: usize) -> ScratchPool {
        ScratchPool {
            slots: (0..workers.max(1))
                .map(|_| Mutex::new(WorkerScratch::default()))
                .collect(),
        }
    }

    /// Run `f` with an exclusive worker scratch.
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut WorkerScratch) -> R) -> R {
        loop {
            for s in &self.slots {
                if let Ok(mut g) = s.try_lock() {
                    return f(&mut g);
                }
            }
            std::hint::spin_loop();
        }
    }

    fn memory_bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Mutex<WorkerScratch>>()
            + self
                .slots
                .iter()
                .map(|s| s.lock().map_or(0, |g| g.memory_bytes()))
                .sum::<usize>()
    }
}

/// Plan-owned reusable evaluation buffers (see the module docs).
pub struct EvalWorkspace {
    /// Generation tag of the owning plan; a mismatch forces a rebuild
    /// before the workspace is used, so pooled workspaces can never
    /// serve stale buffers.
    plan_uid: u64,
    /// Upward equivalent densities, `ulen` per octant.
    pub(crate) u: Vec<f64>,
    /// Upward occupancy per octant.
    pub(crate) has_up: Vec<bool>,
    /// S2U check potentials, `clen` per octant.
    pub(crate) ucheck: Vec<f64>,
    /// Downward check potentials, `clen` per octant.
    pub(crate) dcheck: Vec<f64>,
    /// Downward equivalent densities, `ulen` per octant.
    pub(crate) d: Vec<f64>,
    /// Potentials, `target_dim` per point, aligned with the LET storage.
    pub(crate) f: Vec<f64>,
    /// U-list chunk weights (cached after the first apply; tiled mode
    /// weights come from the near-field layout).
    pub(crate) uli_weights: Vec<u64>,
    /// V-list chunk weights (pure geometry, computed at creation).
    pub(crate) vli_weights: Vec<u64>,
    /// Tiled near-field layout: built on the first apply, then
    /// density-refreshed in place.
    pub(crate) nf: Option<NearField>,
    /// V list regrouped by target parent (fft-batched mode; empty under
    /// dense M2L).
    pub(crate) sib: SiblingIndex,
    /// Batched-M2L source spectra, rewritten each apply.
    pub(crate) src: SourceSpectra,
    /// V-list source octants of the current apply.
    pub(crate) sources: Vec<usize>,
    /// Source-needed flags of the current apply.
    pub(crate) needed: Vec<bool>,
    /// Per-worker scratch slots.
    pub(crate) pool: ScratchPool,
    /// `pfmm_plan_applies_total` handle, resolved once so the hot path
    /// never touches the registry lock.
    applies: Arc<Counter>,
}

impl EvalWorkspace {
    pub(crate) fn new(fmm: &Fmm, l: &Let, lists: &Lists, plan_uid: u64) -> EvalWorkspace {
        let cfg = fmm.config();
        let noct = l.len();
        let ulen = fmm.ops().density_len();
        let clen = fmm.ops().check_len();
        let td = fmm.kernel().target_dim();
        let sib = if cfg.m2l == M2lMode::FftBatched {
            let sib = SiblingIndex::build(l, lists);
            fmm.fft_batched()
                .ensure_levels(sib.levels(), fmm.setup_par().threads());
            sib
        } else {
            SiblingIndex::default()
        };
        let vli_weights = (0..noct)
            .map(|bi| {
                if l.local[bi] {
                    lists.v.row(bi).len() as u64
                } else {
                    0
                }
            })
            .collect();
        EvalWorkspace {
            plan_uid,
            u: vec![0.0; noct * ulen],
            has_up: vec![false; noct],
            ucheck: vec![0.0; noct * clen],
            dcheck: vec![0.0; noct * clen],
            d: vec![0.0; noct * ulen],
            f: vec![0.0; l.pts.len() * td],
            uli_weights: Vec::new(),
            vli_weights,
            nf: None,
            sib,
            src: SourceSpectra::empty(),
            sources: Vec::new(),
            needed: Vec::new(),
            pool: ScratchPool::new(cfg.threads.max(1)),
            applies: crate::obs::plan_apply_counter(fmm.kernel().name()),
        }
    }

    /// Generation tag of the plan this workspace was built for.
    pub fn plan_uid(&self) -> u64 {
        self.plan_uid
    }

    /// Count one apply against the pre-resolved registry counter.
    pub(crate) fn record_apply(&self) {
        if pfmm_metrics::global().enabled() {
            self.applies.inc();
        }
    }

    /// Heap bytes held by the workspace, by allocated capacity (the
    /// scratch buffers warm dynamically, so capacity — what the
    /// allocator actually handed out — is the honest figure). Feeds
    /// `FmmPlan::memory_bytes` and the serve-layer pool gauge. The
    /// kernel-spectrum table is the `Fmm`'s and is not counted here.
    pub fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.u.capacity() + self.ucheck.capacity() + self.dcheck.capacity() + self.d.capacity())
            * size_of::<f64>()
            + self.f.capacity() * size_of::<f64>()
            + self.has_up.capacity() * size_of::<bool>()
            + (self.uli_weights.capacity() + self.vli_weights.capacity()) * size_of::<u64>()
            + self.nf.as_ref().map_or(0, |n| n.memory_bytes())
            + self.sib.memory_bytes()
            + self.src.memory_bytes()
            + self.sources.capacity() * size_of::<usize>()
            + self.needed.capacity() * size_of::<bool>()
            + self.pool.memory_bytes()
            + size_of::<EvalWorkspace>()
    }
}
