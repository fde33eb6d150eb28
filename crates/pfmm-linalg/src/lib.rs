//! Small dense linear algebra for the kernel-independent FMM.
//!
//! The KIFMM translation operators are dense matrices of dimension a few
//! hundred (kernel evaluations between equivalent and check surfaces); the
//! check→equivalent conversions require a *regularized pseudo-inverse*
//! (Ying et al. 2004, §3). This crate provides exactly that substrate:
//! row-major matrices, matvec/matmul, a one-sided Jacobi SVD, and
//! truncated-SVD pseudo-inversion.

pub mod gemm;
pub mod matrix;
pub mod simd;
pub mod svd;

pub use gemm::{gemm_acc, gemm_acc_scaled, gemm_acc_scaled_with, GemmScratch, GEMM_MR, GEMM_NR};
pub use matrix::Matrix;
pub use svd::{pinv, Svd};
