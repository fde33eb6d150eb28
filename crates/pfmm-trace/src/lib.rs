//! Structured span tracing for the pfmm pipeline.
//!
//! The model is deliberately small: a run owns one [`Tracer`] shared by
//! every simulated rank (so all timestamps share one epoch and cross-rank
//! flow arrows line up), threads record [`Event`]s through per-thread
//! [`Local`] buffers (lock-free pushes; one mutex acquisition when a
//! buffer is submitted), and exporters/consumers operate on the drained
//! event list:
//!
//! - [`chrome`] — Chrome trace-event JSON (`chrome://tracing` /
//!   [Perfetto](https://ui.perfetto.dev) compatible): one pid per
//!   simulated rank, one tid per worker lane, flow events rendering
//!   message sends as arrows.
//! - [`metrics`] — load imbalance, per-lane Gantt utilization and the
//!   comm matrix, all derived purely from events.
//!
//! Recording is zero-cost when off: every hook is gated on
//! [`Tracer::enabled`] (an inline level compare), and the `noop` cargo
//! feature compiles even that to a constant `false`.

use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub mod chrome;
pub mod json;
pub mod metrics;

/// Interned-or-owned event string. `'static` borrows are free to record;
/// owned strings appear only when parsing traces back in.
pub type Str = Cow<'static, str>;

/// How much a run records. Levels are cumulative: `Comm` implies `Task`
/// implies `Phase`.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum TraceLevel {
    /// Record nothing (the default; all hooks early-return).
    Off,
    /// One span per FMM phase per rank, plus GPU pipeline stages.
    Phase,
    /// Plus one span per executor chunk, with counter payloads.
    Task,
    /// Plus per-message send/recv instants with flow arrows linking a
    /// send to its matching recv.
    Comm,
}

impl TraceLevel {
    /// Parse a CLI-style level name.
    pub fn parse(s: &str) -> Option<TraceLevel> {
        match s {
            "off" => Some(TraceLevel::Off),
            "phase" => Some(TraceLevel::Phase),
            "task" => Some(TraceLevel::Task),
            "comm" => Some(TraceLevel::Comm),
            _ => None,
        }
    }

    /// The CLI-style name.
    pub fn label(&self) -> &'static str {
        match self {
            TraceLevel::Off => "off",
            TraceLevel::Phase => "phase",
            TraceLevel::Task => "task",
            TraceLevel::Comm => "comm",
        }
    }
}

/// The kind of a recorded event, mirroring the Chrome trace-event phases
/// we emit (`B`/`E`/`i`/`s`/`f`/`C`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span open (`ph:"B"`).
    Begin,
    /// Span close (`ph:"E"`). Name may be empty; spans close LIFO per tid.
    End,
    /// Zero-duration marker (`ph:"i"`, thread scope).
    Instant,
    /// Flow-arrow tail (`ph:"s"`); `flow` pairs it with a [`Self::FlowEnd`].
    FlowStart,
    /// Flow-arrow head (`ph:"f"`, binding point `"e"`).
    FlowEnd,
    /// Counter sample (`ph:"C"`); args are the counter series.
    Counter,
}

/// One recorded trace event.
///
/// `rank` maps to the Chrome pid, `tid` to the thread lane within the
/// rank (0 is the rank's driver/main thread, `1..` are workers — see
/// [`tid_worker`] — and [`TID_GPU`] is the modeled GPU stream).
/// Timestamps are microseconds since the owning tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// What the record is (span edge, instant, flow edge, counter).
    pub kind: EventKind,
    /// Display name (phase label, task label, "send", ...).
    pub name: Str,
    /// Category: "phase", "task", "comm", "gpu", "setup".
    pub cat: Str,
    /// Simulated rank (Chrome pid).
    pub rank: u32,
    /// Lane within the rank (Chrome tid).
    pub tid: u32,
    /// Microseconds since the tracer epoch.
    pub ts_us: f64,
    /// Flow id pairing a `FlowStart` with its `FlowEnd`; 0 = none.
    pub flow: u64,
    /// Integer payloads (peer, bytes, task id, level, ...).
    pub args: Vec<(Str, u64)>,
}

impl Event {
    /// Convenience constructor with no flow id and no args.
    pub fn new(kind: EventKind, name: &'static str, cat: &'static str) -> Event {
        Event {
            kind,
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            rank: 0,
            tid: 0,
            ts_us: 0.0,
            flow: 0,
            args: Vec::new(),
        }
    }
}

/// Driver/main lane of a rank.
pub const TID_MAIN: u32 = 0;
/// The modeled GPU stream lane.
pub const TID_GPU: u32 = 1000;

/// Lane of worker thread `w` (0-based).
#[inline]
pub fn tid_worker(w: usize) -> u32 {
    1 + w as u32
}

/// Human name of a lane, used for Chrome thread-name metadata.
pub fn tid_label(tid: u32) -> String {
    match tid {
        TID_MAIN => "driver".to_string(),
        TID_GPU => "gpu".to_string(),
        w => format!("worker {}", w - 1),
    }
}

/// The per-run event sink. One instance is shared (via `Arc` or borrow)
/// across every rank of a simulated run so all events share one clock.
pub struct Tracer {
    level: TraceLevel,
    epoch: Instant,
    events: Mutex<Vec<Event>>,
    next_flow: AtomicU64,
}

impl Tracer {
    /// A tracer recording at `level`.
    pub fn new(level: TraceLevel) -> Tracer {
        Tracer {
            level,
            epoch: Instant::now(),
            events: Mutex::new(Vec::new()),
            next_flow: AtomicU64::new(1),
        }
    }

    /// A disabled tracer (every hook is a no-op).
    pub fn off() -> Tracer {
        Tracer::new(TraceLevel::Off)
    }

    /// The configured level.
    #[inline]
    pub fn level(&self) -> TraceLevel {
        self.level
    }

    /// Whether events at `at` should be recorded. This is the fast path
    /// every hook checks first; with the `noop` feature it is constant
    /// `false` and the recording code compiles away.
    #[inline]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        #[cfg(feature = "noop")]
        {
            let _ = at;
            false
        }
        #[cfg(not(feature = "noop"))]
        {
            at != TraceLevel::Off && self.level >= at
        }
    }

    /// Microseconds since this tracer's epoch.
    #[inline]
    pub fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Allocate one globally unique (per tracer) flow id.
    #[inline]
    pub fn alloc_flow(&self) -> u64 {
        self.next_flow.fetch_add(1, Ordering::Relaxed)
    }

    /// Record a single event (one mutex acquisition; prefer [`Local`]
    /// buffers on hot paths).
    pub fn record(&self, e: Event) {
        if self.enabled(TraceLevel::Phase) {
            self.events.lock().unwrap().push(e);
        }
    }

    /// Record a batch of events in one mutex acquisition.
    pub fn record_many(&self, evs: Vec<Event>) {
        if self.enabled(TraceLevel::Phase) && !evs.is_empty() {
            self.events.lock().unwrap().extend(evs);
        }
    }

    /// Record a complete span `[t0_us, t1_us]` on `(rank, tid)` in one
    /// mutex acquisition. Used for coarse spans measured externally.
    #[allow(clippy::too_many_arguments)]
    pub fn record_span(
        &self,
        rank: u32,
        tid: u32,
        name: &'static str,
        cat: &'static str,
        t0_us: f64,
        t1_us: f64,
        args: &[(&'static str, u64)],
    ) {
        if !self.enabled(TraceLevel::Phase) {
            return;
        }
        let mk = |kind, ts_us: f64, args: Vec<(Str, u64)>| Event {
            kind,
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            rank,
            tid,
            ts_us,
            flow: 0,
            args,
        };
        let open_args = args
            .iter()
            .map(|&(k, v)| (Cow::Borrowed(k), v))
            .collect::<Vec<_>>();
        let mut g = self.events.lock().unwrap();
        g.push(mk(EventKind::Begin, t0_us, open_args));
        g.push(mk(EventKind::End, t1_us, Vec::new()));
    }

    /// A per-thread recording buffer bound to `(rank, tid)`.
    pub fn local(self: &Arc<Self>, rank: u32, tid: u32) -> Local {
        Local {
            tracer: Arc::clone(self),
            rank,
            tid,
            buf: Vec::new(),
        }
    }

    /// Take all recorded events, sorted by timestamp (stable, so
    /// same-timestamp Begin/End pairs keep their recording order).
    pub fn drain(&self) -> Vec<Event> {
        let mut evs = std::mem::take(&mut *self.events.lock().unwrap());
        evs.sort_by(|a, b| a.ts_us.partial_cmp(&b.ts_us).unwrap());
        evs
    }
}

/// A per-thread event buffer: pushes are plain `Vec` appends (no lock,
/// no atomics); the buffer drains into its [`Tracer`] on [`Local::submit`]
/// or drop.
pub struct Local {
    tracer: Arc<Tracer>,
    rank: u32,
    tid: u32,
    buf: Vec<Event>,
}

impl Local {
    /// Fast level check (see [`Tracer::enabled`]).
    #[inline]
    pub fn enabled(&self, at: TraceLevel) -> bool {
        self.tracer.enabled(at)
    }

    /// The owning tracer.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// The rank this buffer records for.
    pub fn rank(&self) -> u32 {
        self.rank
    }

    #[inline]
    fn push(
        &mut self,
        kind: EventKind,
        name: &'static str,
        cat: &'static str,
        flow: u64,
        args: &[(&'static str, u64)],
    ) {
        let ts_us = self.tracer.now_us();
        self.buf.push(Event {
            kind,
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            rank: self.rank,
            tid: self.tid,
            ts_us,
            flow,
            args: args.iter().map(|&(k, v)| (Cow::Borrowed(k), v)).collect(),
        });
    }

    /// Open a span. Spans must close LIFO per `(rank, tid)` lane.
    #[inline]
    pub fn begin(&mut self, name: &'static str, cat: &'static str, args: &[(&'static str, u64)]) {
        self.push(EventKind::Begin, name, cat, 0, args);
    }

    /// Close the innermost open span on this lane.
    #[inline]
    pub fn end(&mut self) {
        self.push(EventKind::End, "", "", 0, &[]);
    }

    /// Record a zero-duration marker.
    #[inline]
    pub fn instant(&mut self, name: &'static str, cat: &'static str, args: &[(&'static str, u64)]) {
        self.push(EventKind::Instant, name, cat, 0, args);
    }

    /// Record a flow-arrow tail with id `flow`.
    #[inline]
    pub fn flow_start(
        &mut self,
        name: &'static str,
        cat: &'static str,
        flow: u64,
        args: &[(&'static str, u64)],
    ) {
        self.push(EventKind::FlowStart, name, cat, flow, args);
    }

    /// Record a flow-arrow head with id `flow`.
    #[inline]
    pub fn flow_end(
        &mut self,
        name: &'static str,
        cat: &'static str,
        flow: u64,
        args: &[(&'static str, u64)],
    ) {
        self.push(EventKind::FlowEnd, name, cat, flow, args);
    }

    /// Record a counter sample.
    #[inline]
    pub fn counter(&mut self, name: &'static str, args: &[(&'static str, u64)]) {
        self.push(EventKind::Counter, name, "counter", 0, args);
    }

    /// Drain the buffer into the tracer (one mutex acquisition).
    pub fn submit(&mut self) {
        if !self.buf.is_empty() {
            self.tracer.record_many(std::mem::take(&mut self.buf));
        }
    }
}

impl Drop for Local {
    fn drop(&mut self) {
        self.submit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_ordering_and_parse() {
        assert!(TraceLevel::Comm > TraceLevel::Task);
        assert!(TraceLevel::Task > TraceLevel::Phase);
        assert!(TraceLevel::Phase > TraceLevel::Off);
        for l in [
            TraceLevel::Off,
            TraceLevel::Phase,
            TraceLevel::Task,
            TraceLevel::Comm,
        ] {
            assert_eq!(TraceLevel::parse(l.label()), Some(l));
        }
        assert_eq!(TraceLevel::parse("verbose"), None);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let t = Arc::new(Tracer::off());
        assert!(!t.enabled(TraceLevel::Phase));
        let mut l = t.local(0, 0);
        l.begin("x", "phase", &[]);
        l.end();
        l.submit();
        t.record_span(0, 0, "y", "phase", 0.0, 1.0, &[]);
        // Local pushes unconditionally into its buffer; record_many and
        // record_span drop everything when the level is Off.
        assert!(t.drain().is_empty());
    }

    #[test]
    fn local_buffers_submit_in_order() {
        let t = Arc::new(Tracer::new(TraceLevel::Comm));
        let mut l = t.local(2, 1);
        l.begin("U-list", "task", &[("task", 7)]);
        l.instant("send", "comm", &[("peer", 3), ("bytes", 64)]);
        l.end();
        drop(l); // implicit submit
        let evs = t.drain();
        assert_eq!(evs.len(), 3);
        assert_eq!(evs[0].kind, EventKind::Begin);
        assert_eq!(evs[0].rank, 2);
        assert_eq!(evs[0].tid, 1);
        assert_eq!(evs[0].args, vec![(Cow::Borrowed("task"), 7)]);
        assert!(evs[0].ts_us <= evs[1].ts_us && evs[1].ts_us <= evs[2].ts_us);
    }

    #[test]
    fn flow_ids_unique_across_threads() {
        let t = Arc::new(Tracer::new(TraceLevel::Comm));
        let mut ids: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let t = Arc::clone(&t);
                    s.spawn(move || (0..100).map(|_| t.alloc_flow()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn tid_labels() {
        assert_eq!(tid_label(TID_MAIN), "driver");
        assert_eq!(tid_label(tid_worker(0)), "worker 0");
        assert_eq!(tid_label(tid_worker(3)), "worker 3");
        assert_eq!(tid_label(TID_GPU), "gpu");
    }
}
