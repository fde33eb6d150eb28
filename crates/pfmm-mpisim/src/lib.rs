//! An in-process message-passing runtime — the reproduction's stand-in for
//! MPI.
//!
//! The paper runs on 65,536 MPI processes; this crate provides the same
//! programming model at laptop scale: an SPMD [`run`] launcher where every
//! *rank* is an OS thread, tagged point-to-point [`Comm::send`] /
//! [`Comm::recv`] with per-pair FIFO ordering, and the collectives the
//! paper's algorithms use (barrier, allgather(v), alltoallv, allreduce,
//! exclusive scan). Sends are buffered (unbounded channels), so the
//! communication patterns of the paper — pairwise LET exchanges, hypercube
//! rounds — cannot deadlock on rendezvous.
//!
//! Every rank records message and byte counters ([`CommStats`]); the
//! scaling harnesses read them to verify the paper's communication-volume
//! claims (e.g. the `O(√p)` growth of shared-octant traffic) for real.

pub mod collectives;
pub mod comm;
pub mod obs;

pub use comm::{run, CollectiveKind, Comm, CommMatrix, CommStats, PeerStats, Wire};
