//! A sans-IO batched evaluation service on top of the pfmm pipeline.
//!
//! The paper's decomposition of an FMM into *setup* (sort, tree, LET,
//! interaction lists, exchange schedules) and *evaluation* (the
//! density-dependent sweeps) is not just a scaling argument — it is a
//! serving opportunity: a solver or client that evaluates many densities
//! against a handful of geometries should pay setup once per geometry,
//! not once per request. This crate is that serving layer:
//!
//! - [`cache`] — [`pfmm_core::FmmPlan`]s keyed by geometry/config
//!   fingerprint, LRU within a byte budget, build-outside-the-lock.
//! - [`service`] — the sans-IO core: deadline admission control against
//!   a cost-model estimate, per-plan batching with size/linger flush,
//!   and watermark load shedding with priority displacement. Pure state
//!   machine; time is injected.
//! - [`cost`] — per-request time estimates from `pfmm-perfmodel`,
//!   calibrated at startup against one measured probe.
//! - [`pool`] — worker threads driving flushed batches through
//!   [`pfmm_core::Fmm::apply_ws`] (and thereby the existing phase
//!   executor), emitting per-request lifecycle spans.
//! - [`loadgen`] — a seeded open/closed-loop workload generator whose
//!   request stream (geometries, hot/cold mix, densities, priorities)
//!   is a pure function of the seed.
//! - [`sim`] — the driver loop tying it together, reporting latency
//!   histograms ([`pfmm_trace::metrics::Histogram`]), cache/service
//!   counters, and optionally every potential bit for run-to-run
//!   comparison.
//!
//! The serve layer adds no numerical path: a batch of one through a cold
//! cache is bit-for-bit a plain `plan` + `apply`, and the plan-reuse
//! property test pins that equivalence.

pub mod cache;
pub mod cost;
pub mod loadgen;
pub mod pool;
pub mod service;
pub mod sim;
pub mod workspace;

pub use cache::{CacheStats, PlanCache, SharedPlan};
pub use cost::CostModel;
pub use loadgen::{densities, density_at, Arrival, ReqSpec, Workload, WorkloadConfig};
pub use pool::{BatchDone, ExecPool, Executor, ReqDone, TID_REQ_BASE};
pub use service::{
    Admission, Batch, RejectReason, Rejected, Request, ServiceConfig, ServiceCore, ServiceStats,
};
pub use sim::{run_sim, ObsConfig, ServeReport, SimConfig};
pub use workspace::{WorkspacePool, WorkspaceStats};
