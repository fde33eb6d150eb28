//! The execution pool: persistent workers draining flushed batches
//! through the existing evaluation machinery.
//!
//! A worker resolves the batch's plan through the [`PlanCache`] (build
//! outside the cache lock on a miss), derives each request's densities
//! from its seed, and drives the whole batch under a single plan lock,
//! one [`Fmm::apply_ws`] per request against a pooled workspace — which
//! in turn runs the phases exactly as a standalone evaluation would.
//! The serve layer adds no numerical path of its own: a batch of one
//! through a cold plan is bit-for-bit a plain `plan` + `apply`.
//!
//! Each request gets its own trace lane (`tid = TID_REQ_BASE + id`) with
//! three back-to-back spans — `queue-wait`, `batch-assembly`, `execute` —
//! so a request's whole lifecycle reads off one Perfetto row.

use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;

use pfmm_core::{Fmm, PlanFingerprint};
use pfmm_mpisim::run;
use pfmm_trace::Tracer;
use pfmm_tree::PointRec;

use crate::cache::PlanCache;
use crate::loadgen::densities;
use crate::service::Batch;
use crate::workspace::WorkspacePool;

/// First trace lane used for request lifecycles (clear of the driver,
/// worker, and GPU lanes used by the evaluation itself).
pub const TID_REQ_BASE: u32 = 4000;

/// One request's outcome.
#[derive(Clone, Debug)]
pub struct ReqDone {
    /// Request id.
    pub id: u64,
    /// Arrival, µs.
    pub arrive_us: u64,
    /// Absolute deadline, µs (`u64::MAX` = none).
    pub deadline_us: u64,
    /// When its batch left the queue, µs.
    pub flushed_us: u64,
    /// When evaluation started (plan resolved, densities built), µs.
    pub exec_start_us: u64,
    /// Completion, µs.
    pub done_us: u64,
    /// Potentials, packed `target_dim` per owned point.
    pub pot: Vec<f64>,
}

/// One batch's outcome.
#[derive(Clone, Debug)]
pub struct BatchDone {
    /// Plan key served.
    pub key: PlanFingerprint,
    /// Backlog charge to return to the service core.
    pub charged_us: u64,
    /// Whether the plan came out of the cache warm.
    pub cache_hit: bool,
    /// Per-request results, batch order.
    pub reqs: Vec<ReqDone>,
}

/// Shared executor state: everything a worker needs to turn a [`Batch`]
/// into a [`BatchDone`].
pub struct Executor {
    /// The evaluator (kernel + config).
    pub fmm: Arc<Fmm>,
    /// The plan cache.
    pub cache: Arc<PlanCache>,
    /// Pooled evaluation workspaces, keyed by plan generation — warm
    /// batches reuse scratch instead of allocating per apply.
    pub workspaces: Arc<WorkspacePool>,
    /// All workload geometries, indexed by `Request::geom`.
    pub geometries: Arc<Vec<Vec<PointRec>>>,
    /// Span sink; its epoch is also the service clock.
    pub tracer: Arc<Tracer>,
    /// Always-armed incident ring; completed lifecycle spans are fed
    /// here regardless of the tracer level.
    pub flight: Option<Arc<pfmm_metrics::FlightRecorder>>,
    /// Artificial extra latency per batch execution, µs — fault
    /// injection so tests/CI can force deadline violations the
    /// admission estimator cannot foresee. 0 in production.
    pub exec_delay_us: u64,
}

impl Executor {
    /// µs since the tracer epoch — the single clock every serve
    /// timestamp shares.
    pub fn now_us(&self) -> u64 {
        self.tracer.now_us() as u64
    }

    /// Run one batch to completion on the calling thread.
    pub fn execute_batch(&self, batch: Batch) -> BatchDone {
        let (plan, hit) = self.cache.get_or_build(batch.key, || {
            let pts = &self.geometries[batch.reqs[0].geom];
            run(1, |c| self.fmm.plan(c, pts.clone()))
                .pop()
                .expect("one rank")
        });

        let sd = self.fmm.kernel().source_dim();
        let dens: Vec<Vec<f64>> = {
            let g = plan.lock().unwrap();
            batch
                .reqs
                .iter()
                .map(|r| densities(&g, sd, r.density_seed))
                .collect()
        };

        let exec_start_us = self.now_us();
        let results = run(1, |c| {
            let mut g = plan.lock().unwrap();
            let uid = g.uid();
            let mut ws = self.workspaces.checkout(uid, || self.fmm.workspace(&g));
            let out: Vec<Vec<f64>> = dens
                .iter()
                .map(|den| {
                    let mut pot = Vec::new();
                    self.fmm.apply_ws(c, &mut g, &mut ws, den, &mut pot);
                    pot
                })
                .collect();
            self.workspaces.put_back(uid, ws);
            out
        })
        .pop()
        .expect("one rank");
        if self.exec_delay_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(self.exec_delay_us));
        }
        let done_us = self.now_us();

        let reqs: Vec<ReqDone> = batch
            .reqs
            .iter()
            .zip(results)
            .map(|(r, pot)| ReqDone {
                id: r.id,
                arrive_us: r.arrive_us,
                deadline_us: r.deadline_us,
                flushed_us: batch.flushed_us,
                exec_start_us,
                done_us,
                pot,
            })
            .collect();
        for r in &reqs {
            self.trace_request(r);
        }
        BatchDone {
            key: batch.key,
            charged_us: batch.charged_us,
            cache_hit: hit,
            reqs,
        }
    }

    /// Emit the three lifecycle spans on the request's own lane. The
    /// spans are sequential and disjoint, so the lane is trivially
    /// well-nested for the Chrome exporter.
    fn trace_request(&self, r: &ReqDone) {
        let tid = TID_REQ_BASE + (r.id as u32);
        if let Some(f) = &self.flight {
            for (name, t0, t1) in [
                ("queue-wait", r.arrive_us, r.flushed_us),
                ("batch-assembly", r.flushed_us, r.exec_start_us),
                ("execute", r.exec_start_us, r.done_us),
            ] {
                f.record_span(0, tid, name, "serve", t0 as f64, t1 as f64);
            }
        }
        let args = [("req", r.id)];
        self.tracer.record_span(
            0,
            tid,
            "queue-wait",
            "serve",
            r.arrive_us as f64,
            r.flushed_us as f64,
            &args,
        );
        self.tracer.record_span(
            0,
            tid,
            "batch-assembly",
            "serve",
            r.flushed_us as f64,
            r.exec_start_us as f64,
            &args,
        );
        self.tracer.record_span(
            0,
            tid,
            "execute",
            "serve",
            r.exec_start_us as f64,
            r.done_us as f64,
            &args,
        );
    }
}

/// A fixed pool of worker threads executing batches; completions come
/// back through [`ExecPool::drain_done`].
pub struct ExecPool {
    tx: Option<mpsc::Sender<Batch>>,
    done_rx: mpsc::Receiver<BatchDone>,
    workers: Vec<JoinHandle<()>>,
}

impl ExecPool {
    /// Spawn `workers` threads over a shared [`Executor`].
    pub fn new(workers: usize, exec: Arc<Executor>) -> ExecPool {
        assert!(workers >= 1, "need at least one worker");
        let (tx, rx) = mpsc::channel::<Batch>();
        let rx = Arc::new(std::sync::Mutex::new(rx));
        let (done_tx, done_rx) = mpsc::channel::<BatchDone>();
        let handles = (0..workers)
            .map(|_| {
                let rx = Arc::clone(&rx);
                let done_tx = done_tx.clone();
                let exec = Arc::clone(&exec);
                std::thread::spawn(move || loop {
                    let batch = match rx.lock().unwrap().recv() {
                        Ok(b) => b,
                        Err(_) => return,
                    };
                    // Receiver disconnect means the pool is shutting
                    // down mid-flight; drop the result.
                    let _ = done_tx.send(exec.execute_batch(batch));
                })
            })
            .collect();
        ExecPool {
            tx: Some(tx),
            done_rx,
            workers: handles,
        }
    }

    /// Hand a flushed batch to the workers.
    pub fn submit(&self, batch: Batch) {
        self.tx
            .as_ref()
            .expect("pool open")
            .send(batch)
            .expect("workers alive");
    }

    /// Collect every completion available right now, without blocking.
    pub fn drain_done(&self) -> Vec<BatchDone> {
        let mut out = Vec::new();
        while let Ok(d) = self.done_rx.try_recv() {
            out.push(d);
        }
        out
    }

    /// Close the queue and join the workers, returning any last
    /// completions.
    pub fn shutdown(mut self) -> Vec<BatchDone> {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            w.join().expect("worker panicked");
        }
        self.drain_done()
    }
}

impl Drop for ExecPool {
    fn drop(&mut self) {
        drop(self.tx.take());
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_core::{plan_fingerprint, FmmConfig};
    use pfmm_kernels::Laplace;
    use pfmm_trace::TraceLevel;

    fn executor(level: TraceLevel) -> (Arc<Executor>, PlanFingerprint) {
        let fmm = Arc::new(Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 3,
                q: 40,
                ..Default::default()
            },
        ));
        let pts = pfmm_core::distrib::uniform_cube(200, 11, 0);
        let key = plan_fingerprint("laplace", fmm.config(), 1, &pts);
        let exec = Arc::new(Executor {
            fmm,
            cache: Arc::new(PlanCache::new(1 << 30)),
            workspaces: Arc::new(WorkspacePool::new(2)),
            geometries: Arc::new(vec![pts]),
            tracer: Arc::new(Tracer::new(level)),
            flight: None,
            exec_delay_us: 0,
        });
        (exec, key)
    }

    fn batch(key: PlanFingerprint, ids: &[u64], now: u64) -> Batch {
        Batch {
            key,
            reqs: ids
                .iter()
                .map(|&id| crate::service::Request {
                    id,
                    key,
                    geom: 0,
                    n: 200,
                    arrive_us: now,
                    deadline_us: u64::MAX,
                    priority: 1,
                    density_seed: 100 + id,
                    est_cost_us: 1,
                    est_build_us: 1,
                })
                .collect(),
            opened_us: now,
            flushed_us: now,
            charged_us: 7,
        }
    }

    #[test]
    fn pool_executes_batches_and_reports_done() {
        let (exec, key) = executor(TraceLevel::Off);
        let pool = ExecPool::new(2, Arc::clone(&exec));
        let now = exec.now_us();
        pool.submit(batch(key, &[0, 1], now));
        pool.submit(batch(key, &[2], now));
        let done = pool.shutdown();
        assert_eq!(done.len(), 2);
        let total: usize = done.iter().map(|d| d.reqs.len()).sum();
        assert_eq!(total, 3);
        for d in &done {
            assert_eq!(d.charged_us, 7);
            for r in &d.reqs {
                assert_eq!(r.pot.len(), 200, "one potential per point");
                assert!(r.pot.iter().all(|v| v.is_finite()));
                assert!(r.done_us >= r.exec_start_us);
            }
        }
        // Two lookups on one key: either the second hits, or both missed
        // concurrently and the loser's build was dropped as a race.
        let s = exec.cache.stats();
        assert_eq!(s.hits + s.misses, 2);
        assert_eq!(s.resident_plans, 1);
        assert_eq!(s.build_races, s.misses - 1);
    }

    #[test]
    fn request_lifecycle_spans_are_emitted_per_lane() {
        let (exec, key) = executor(TraceLevel::Phase);
        let done = exec.execute_batch(batch(key, &[0, 1], exec.now_us()));
        assert_eq!(done.reqs.len(), 2);
        let events = exec.tracer.drain();
        for id in [0u32, 1] {
            let lane: Vec<_> = events
                .iter()
                .filter(|e| e.tid == TID_REQ_BASE + id)
                .collect();
            // 3 spans × (Begin + End).
            assert_eq!(lane.len(), 6, "lane {id}: {lane:?}");
            let names: Vec<&str> = lane
                .iter()
                .filter(|e| e.kind == pfmm_trace::EventKind::Begin)
                .map(|e| e.name.as_ref())
                .collect();
            assert_eq!(names, ["queue-wait", "batch-assembly", "execute"]);
        }
    }

    #[test]
    fn same_seed_same_bits_across_batch_shapes() {
        let (exec, key) = executor(TraceLevel::Off);
        let a = exec.execute_batch(batch(key, &[0, 1], 0));
        let b0 = exec.execute_batch(batch(key, &[0], 0));
        let b1 = exec.execute_batch(batch(key, &[1], 0));
        assert_eq!(a.reqs[0].pot, b0.reqs[0].pot, "batching changes no bits");
        assert_eq!(a.reqs[1].pot, b1.reqs[0].pot);
        assert_ne!(a.reqs[0].pot, a.reqs[1].pot, "different seeds differ");
    }
}
