//! Instrument registry: named counters, gauges, and atomic histograms.
//!
//! Design rules, in priority order:
//!
//! 1. **Hot paths touch only their own cache line.** `inc`/`set`/
//!    `record` are relaxed atomic ops on an `Arc`'d instrument the call
//!    site obtained once; no lock, no hash lookup.
//! 2. **Registration is rare and may lock.** `counter()`/`gauge()`/
//!    `histogram()` take a mutex to find-or-create the instrument;
//!    callers are expected to cache the handle outside loops.
//! 3. **Reads are approximate but self-consistent.** A snapshot loads
//!    each atomic individually; cross-instrument skew is bounded by the
//!    time the scan takes (microseconds), and a histogram's `count` is
//!    derived from its bucket array so it always equals the bucket sum.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pfmm_trace::metrics::Histogram;

/// Monotonic counter. Relaxed increments; totals only ever grow.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins gauge holding an `f64` as its bit pattern.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge(AtomicU64::new(0f64.to_bits()))
    }

    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Add `d` to the gauge (CAS loop; gauges are low-rate by design).
    pub fn add(&self, d: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + d).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Concurrent log-bucketed histogram sharing the exact bucket layout of
/// [`pfmm_trace::metrics::Histogram`]. Recording is one relaxed
/// `fetch_add` on the bucket plus CAS updates of sum/min/max;
/// [`AtomicHistogram::materialize`] rehydrates a plain `Histogram`
/// through [`Histogram::from_parts`] so quantile math lives in exactly
/// one place.
#[derive(Debug)]
pub struct AtomicHistogram {
    counts: Vec<AtomicU64>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl AtomicHistogram {
    pub fn new() -> AtomicHistogram {
        let mut counts = Vec::with_capacity(Histogram::num_buckets());
        counts.resize_with(Histogram::num_buckets(), || AtomicU64::new(0));
        AtomicHistogram {
            counts,
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    #[inline]
    pub fn record(&self, v: f64) {
        self.counts[Histogram::bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        cas_f64(&self.sum_bits, |s| s + v);
        cas_f64(&self.min_bits, |m| m.min(v));
        cas_f64(&self.max_bits, |m| m.max(v));
    }

    pub fn count(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Load every bucket into a plain (single-threaded) histogram with
    /// identical layout, on which quantiles can be computed.
    pub fn materialize(&self) -> Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        // ±inf sentinels while empty match Histogram::new() exactly.
        Histogram::from_parts(
            counts,
            f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
        )
    }
}

fn cas_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(seen) => cur = seen,
        }
    }
}

/// `(name, sorted labels)` — the identity of one instrument.
pub type InstrumentKey = (String, Vec<(String, String)>);

#[derive(Clone)]
pub(crate) enum Instrument {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<AtomicHistogram>),
}

/// Registry of named instruments. See the module docs for the
/// locking/consistency contract.
pub struct MetricsRegistry {
    enabled: AtomicBool,
    inner: Mutex<HashMap<InstrumentKey, Instrument>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            enabled: AtomicBool::new(true),
            inner: Mutex::new(HashMap::new()),
        }
    }

    /// Always-on by default; disabling lets the overhead benchmark
    /// measure a true no-telemetry baseline and lets embedders opt out.
    /// Wiring call sites check this once per run, not per sample.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Find-or-create the counter `name{labels}`.
    ///
    /// Panics if the same key is already registered as a different
    /// instrument type (a naming bug worth failing loudly on).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = key_of(name, labels);
        let mut map = lock(&self.inner);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Counter(Arc::new(Counter::new())))
        {
            Instrument::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = key_of(name, labels);
        let mut map = lock(&self.inner);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Gauge(Arc::new(Gauge::new())))
        {
            Instrument::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Arc<AtomicHistogram> {
        let key = key_of(name, labels);
        let mut map = lock(&self.inner);
        match map
            .entry(key)
            .or_insert_with(|| Instrument::Histogram(Arc::new(AtomicHistogram::new())))
        {
            Instrument::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name} already registered with a different type"),
        }
    }

    /// Number of registered instruments.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Clone the instrument table (cheap: `Arc`s only) so readers can
    /// load values without holding the registry lock.
    pub(crate) fn instruments(&self) -> Vec<(InstrumentKey, Instrument)> {
        lock(&self.inner)
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Fetch the current value of counter `name{labels}` if it exists
    /// (test/assertion helper; not a hot path).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<u64> {
        match lock(&self.inner).get(&key_of(name, labels)) {
            Some(Instrument::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }
}

fn key_of(name: &str, labels: &[(&str, &str)]) -> InstrumentKey {
    let mut ls: Vec<(String, String)> = labels
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    ls.sort();
    (name.to_string(), ls)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_key_and_label_order_is_canonical() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x_total", &[("kernel", "laplace"), ("rank", "0")]);
        let b = reg.counter("x_total", &[("rank", "0"), ("kernel", "laplace")]);
        a.add(3);
        b.inc();
        assert_eq!(a.get(), 4);
        assert_eq!(reg.len(), 1);
        assert_eq!(
            reg.counter_value("x_total", &[("kernel", "laplace"), ("rank", "0")]),
            Some(4)
        );
    }

    #[test]
    #[should_panic(expected = "different type")]
    fn type_confusion_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(2.5);
        g.add(-1.0);
        assert_eq!(g.get(), 1.5);
    }

    #[test]
    fn atomic_histogram_matches_plain_recording() {
        let ah = AtomicHistogram::new();
        let mut plain = Histogram::new();
        for i in 0..1000 {
            let v = 1.0 + (i as f64) * 3.7;
            ah.record(v);
            plain.record(v);
        }
        let m = ah.materialize();
        assert_eq!(m.count(), plain.count());
        assert_eq!(m.sum(), plain.sum());
        assert_eq!(m.min(), plain.min());
        assert_eq!(m.max(), plain.max());
        for q in [0.0, 0.5, 0.95, 0.99, 0.999, 1.0] {
            assert_eq!(m.quantile(q), plain.quantile(q));
        }
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let ah = Arc::new(AtomicHistogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let ah = Arc::clone(&ah);
                std::thread::spawn(move || {
                    for i in 0..5000u64 {
                        ah.record((t * 5000 + i) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let m = ah.materialize();
        assert_eq!(m.count(), 20_000);
        assert_eq!(m.min(), 1.0);
        assert_eq!(m.max(), 20_000.0);
    }

    #[test]
    fn empty_atomic_histogram_materializes_like_empty_plain() {
        let m = AtomicHistogram::new().materialize();
        let plain = Histogram::new();
        assert_eq!(m.count(), 0);
        assert_eq!(m.min(), plain.min());
        assert_eq!(m.max(), plain.max());
        assert_eq!(m.quantile(0.5), plain.quantile(0.5));
    }
}
