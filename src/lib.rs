//! # pfmm — a massively parallel adaptive kernel-independent FMM
//!
//! Rust reproduction of Lashuk et al., *"A massively parallel adaptive
//! fast-multipole method on heterogeneous architectures"* (SC 2009).
//!
//! This umbrella crate re-exports the workspace's public API:
//!
//! - [`morton`] — Morton octant keys and linear-octree algorithms
//! - [`linalg`] — dense matrices, SVD, pseudo-inverse
//! - [`fft`] — general complex and real 3-D FFTs (the test oracle of the
//!   pruned small DFTs the V-list translation runs on)
//! - [`kernels`] — Laplace / Stokes kernels and the direct baseline
//! - [`mpisim`] — the in-process message-passing runtime (MPI stand-in)
//! - [`tree`] — distributed adaptive octree, LET, interaction lists
//! - [`fmm`] — the FMM itself, sequential and distributed
//! - [`gpusim`] — the CUDA-like streaming executor and GPU FMM kernels
//! - [`perfmodel`] — analytic scaling model for paper-scale extrapolation
//! - [`trace`] — span tracing, comm attribution, Chrome/Perfetto export
//!
//! See `examples/quickstart.rs` for a five-minute tour.
//!
//! ```
//! use std::sync::Arc;
//! use pfmm::fmm::{driver::gather_potentials, Fmm, FmmConfig};
//! use pfmm::fmm::verify::sampled_rel_error;
//! use pfmm::kernels::Laplace;
//! use pfmm::mpisim;
//! use pfmm::tree::PointRec;
//!
//! // A small charge cloud, evaluated on two simulated ranks.
//! let pts: Vec<PointRec> = (0..300)
//!     .map(|i| {
//!         let t = i as f64 / 300.0;
//!         PointRec::scalar([t, (3.3 * t) % 1.0, (7.7 * t) % 1.0], 1.0 - t, i as u64)
//!     })
//!     .collect();
//! let fmm = Fmm::new(Arc::new(Laplace), FmmConfig { order: 4, q: 20, ..Default::default() });
//! let results = mpisim::run(2, |comm| {
//!     let mine: Vec<_> = pts.iter().skip(comm.rank()).step_by(2).copied().collect();
//!     let res = fmm.evaluate(comm, mine);
//!     gather_potentials(comm, &res, 1)
//! });
//! let err = sampled_rel_error(&Laplace, &pts, &results[0], 11);
//! assert!(err < 1e-3, "{err}");
//! ```

pub use pfmm_fft as fft;
pub use pfmm_gpusim as gpusim;
pub use pfmm_kernels as kernels;
pub use pfmm_linalg as linalg;
pub use pfmm_morton as morton;
pub use pfmm_mpisim as mpisim;
pub use pfmm_perfmodel as perfmodel;
pub use pfmm_trace as trace;
pub use pfmm_tree as tree;

/// The FMM core (re-export of `pfmm-core`).
pub use pfmm_core as fmm;

pub mod prelude {
    //! Convenience imports for applications.
    pub use crate::kernels::{Kernel, Laplace, Stokes};
    pub use crate::morton::{MortonKey, Point3, MAX_DEPTH};
}
