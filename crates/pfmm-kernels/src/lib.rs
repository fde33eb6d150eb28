//! Interaction kernels for the FMM.
//!
//! The paper evaluates two kernels: the Laplace single layer (scalar, used
//! for the GPU experiments) and the Stokes single layer (a 3×3 tensor — the
//! "three unknowns per point" of the Kraken runs). The FMM core is
//! *kernel-independent*: everything it needs is the [`Kernel`] trait —
//! pointwise interaction blocks, the density/potential dimensions, and the
//! homogeneity degree used to rescale cached translation operators across
//! tree levels.

pub mod dipole;
pub mod direct;
pub mod kernel;
pub mod laplace;
pub mod stokes;
pub mod tile;
pub mod yukawa;

pub use dipole::LaplaceDipole;
pub use direct::{
    direct_eval, direct_eval_f32, direct_eval_f32_stokes, direct_eval_f32_yukawa, direct_eval_typed,
};
pub use kernel::{assemble, Kernel};
pub use laplace::Laplace;
pub use stokes::Stokes;
pub use tile::{BoxTiles, TileKernel, Tiles, LANE};
pub use yukawa::Yukawa;

/// A point in the unit cube (re-exported convention shared with
/// `pfmm-morton`).
pub type Point3 = [f64; 3];
