//! The kernel-independent fast multipole method — sequential and
//! distributed (the paper's primary contribution, Algorithm 1 + §III).
//!
//! # Method
//!
//! Every octant carries an *upward equivalent density* `u` (a compressed
//! far-field representation of its sources, valid outside its colleague
//! halo) and a *downward equivalent density* `d` (a compressed
//! representation of the field generated by everything outside the halo,
//! valid inside the octant). The translations of Algorithm 1 — S2U, U2U,
//! V/X into the downward check potential, D2D, W, D2T, and the direct
//! U-list — are kernel evaluations between *equivalent* and *check*
//! surfaces plus regularized pseudo-inverse solves (Ying et al. 2004).
//!
//! # Layout
//!
//! - [`surface`] — equivalent/check surface point generation
//! - [`ops`] — the per-level translation-operator cache (UC2E, U2U, DC2E,
//!   D2D, dense M2L), with the homogeneous-kernel fast path
//! - [`m2l_batched`] — the one spectral V-list engine (§IV): split-complex
//!   half spectra, one immutable kernel table per `Fmm`, the
//!   sibling-blocked Hadamard; the simulated-GPU pipeline takes its
//!   spectra and pruned inverse too
//! - [`small_dft`] — the pruned separable small DFTs the batched path
//!   transforms with (`[0,p)³` support in, surface points out)
//! - [`reduce`] — the hypercube reduce-and-scatter of Algorithm 3, plus
//!   the naive owner-based reduction it replaced (kept as the ablation
//!   baseline)
//! - [`nearfield`] — the tiled SoA U-list engine: padded lane-aligned
//!   point/density planes walked as a sorted CSR with branch-free
//!   monomorphized microkernels (the CPU analogue of the GPU U-list
//!   data structure; kernels without microkernels use the scalar loop)
//! - [`translate`] — the level-batched multi-RHS GEMM engine for the
//!   shared-operator up/down translations (uc2e/dc2e solves, U2U, D2D):
//!   plan-time (level, operator-class) grouping, padded column-panel
//!   packing, one BLAS-3 call per group
//! - [`driver`] — the `Fmm` evaluator, its configuration, and the
//!   one-shot evaluation (a plan followed by one apply)
//! - [`plan`] — the one setup pipeline (sort, tree, LET, lists, load
//!   balancing, plan precompute) and the one apply body, instrumented per
//!   phase like the paper's Table II
//! - [`exec`] — the bulk-synchronous executor of the phases
//! - [`profile`] — phase timers and flop counters
//! - [`distrib`] — the paper's two point distributions (uniform cube,
//!   1:1:4 ellipsoid surface)

pub mod distrib;
pub mod driver;
pub mod exec;
pub mod m2l_batched;
pub mod nearfield;
pub mod obs;
pub mod ops;
pub mod par;
pub mod plan;
pub mod profile;
pub mod reduce;
pub mod small_dft;
pub mod solve;
pub mod surface;
pub mod translate;
pub mod tune;
pub mod verify;
pub mod workspace;

pub use driver::{
    gather_potentials, route_potentials, Fmm, FmmConfig, M2lMode, PotentialResult, Reduction,
    SortKind,
};
pub use nearfield::{NearField, Sweep};
pub use plan::{plan_fingerprint, FmmPlan, PlanFingerprint};
pub use profile::{Phase, Profile};
pub use workspace::EvalWorkspace;
