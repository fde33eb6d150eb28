//! Distributed adaptive linear octree, Local Essential Trees, and the
//! U/V/W/X interaction lists (paper §II–III).
//!
//! The pipeline mirrors the paper's tree-construction phase:
//!
//! 1. [`sort::sample_sort_points`] — globally Morton-sort the points so
//!    each rank owns a contiguous chunk (sample sort, the dominant setup
//!    cost in the paper's Table II).
//! 2. [`dtree::points_to_octree`] — each rank refines its region of the
//!    unit cube into leaves with at most `q` points (the distributed
//!    `Points2Octree` of DENDRO).
//! 3. [`lett::build_let`] — add ancestors, exchange ghost octants per
//!    Algorithm 2, producing the Local Essential Tree.
//! 4. [`lists::build_lists`] — construct the U-, V-, W- and X-lists of
//!    Table I for every octant this rank evaluates.
//! 5. [`dtree::repartition_by_weight`] — the work-based load balancing of
//!    §III-B (repartition leaves by interaction-list weight, then rebuild
//!    the LET and lists).
//!
//! Everything works unchanged at `p = 1`, which is how the sequential FMM
//! driver uses it.

pub mod bitonic;
pub mod dtree;
pub mod lett;
pub mod lists;
pub mod par;
pub mod point;
pub mod psort;
pub mod sort;
pub mod stats;

pub use bitonic::{bitonic_sort_points, bitonic_sort_points_with};
pub use dtree::{
    octree_from_sorted, octree_from_sorted_with, points_to_octree, repartition_by_weight, DistTree,
};
pub use lett::{build_let, build_let_with, user_ranks, Let};
pub use lists::{build_lists, build_lists_with, Csr, Lists};
pub use par::SetupPar;
pub use point::PointRec;
pub use sort::{sample_sort_points, sample_sort_points_with};
pub use stats::{ListStats, TreeStats};
