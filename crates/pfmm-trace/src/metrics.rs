//! Trace-derived metrics: everything here is computed purely from a
//! drained event list, so the same numbers can be recovered from an
//! exported Chrome-trace JSON file as from a live run.

use crate::{Event, EventKind};
use std::collections::HashMap;

/// A reconstructed `B`/`E` span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Simulated rank.
    pub rank: u32,
    /// Lane within the rank.
    pub tid: u32,
    /// Name from the opening event.
    pub name: String,
    /// Category from the opening event.
    pub cat: String,
    /// Open timestamp (µs since epoch).
    pub t0_us: f64,
    /// Close timestamp (µs since epoch).
    pub t1_us: f64,
    /// Args from the opening event.
    pub args: Vec<(String, u64)>,
}

impl Span {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        (self.t1_us - self.t0_us) / 1e6
    }
}

/// Pair `Begin`/`End` events into spans (LIFO per `(rank, tid)` lane).
/// Unclosed spans are dropped.
pub fn spans(events: &[Event]) -> Vec<Span> {
    let mut stacks: HashMap<(u32, u32), Vec<Span>> = HashMap::new();
    let mut out = Vec::new();
    for e in events {
        match e.kind {
            EventKind::Begin => stacks.entry((e.rank, e.tid)).or_default().push(Span {
                rank: e.rank,
                tid: e.tid,
                name: e.name.to_string(),
                cat: e.cat.to_string(),
                t0_us: e.ts_us,
                t1_us: e.ts_us,
                args: e.args.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            }),
            EventKind::End => {
                if let Some(mut s) = stacks.entry((e.rank, e.tid)).or_default().pop() {
                    s.t1_us = e.ts_us;
                    out.push(s);
                }
            }
            _ => {}
        }
    }
    out
}

/// Max/avg seconds over ranks for one span name.
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseStat {
    /// Span name (phase or task label).
    pub name: String,
    /// Max over ranks of that rank's summed seconds.
    pub max_secs: f64,
    /// Average over the ranks present in the trace.
    pub avg_secs: f64,
}

/// Load imbalance per span name in `cat`: per rank, sum the seconds of
/// all spans with that name; report (max, avg) over ranks — the two
/// columns of the paper's Table II, recovered from the trace. The
/// average divides by the number of distinct ranks in the trace (ranks
/// without the phase count as zero).
pub fn load_imbalance(events: &[Event], cat: &str) -> Vec<PhaseStat> {
    let mut ranks: Vec<u32> = events.iter().map(|e| e.rank).collect();
    ranks.sort_unstable();
    ranks.dedup();
    let nr = ranks.len().max(1) as f64;
    let mut per: HashMap<String, HashMap<u32, f64>> = HashMap::new();
    let mut order: Vec<String> = Vec::new();
    for s in spans(events) {
        if s.cat != cat {
            continue;
        }
        if !per.contains_key(&s.name) {
            order.push(s.name.clone());
        }
        *per.entry(s.name.clone())
            .or_default()
            .entry(s.rank)
            .or_default() += s.secs();
    }
    order
        .into_iter()
        .map(|name| {
            let by_rank = &per[&name];
            let max_secs = by_rank.values().fold(0.0, |a: f64, &b| a.max(b));
            let avg_secs = by_rank.values().sum::<f64>() / nr;
            PhaseStat {
                name,
                max_secs,
                avg_secs,
            }
        })
        .collect()
}

/// Busy fraction of one `(rank, tid)` Gantt lane.
#[derive(Clone, Debug, PartialEq)]
pub struct LaneUtil {
    /// Simulated rank.
    pub rank: u32,
    /// Lane within the rank.
    pub tid: u32,
    /// Seconds covered by at least one span on the lane.
    pub busy_secs: f64,
    /// Busy seconds over the trace's global time window.
    pub utilization: f64,
}

/// Per-lane Gantt utilization: union length of each lane's spans over
/// the global `[min ts, max ts]` window of the trace.
pub fn utilization(events: &[Event]) -> Vec<LaneUtil> {
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for e in events {
        lo = lo.min(e.ts_us);
        hi = hi.max(e.ts_us);
    }
    let window = (hi - lo).max(0.0);
    let mut by_lane: HashMap<(u32, u32), Vec<(f64, f64)>> = HashMap::new();
    for s in spans(events) {
        by_lane
            .entry((s.rank, s.tid))
            .or_default()
            .push((s.t0_us, s.t1_us));
    }
    let mut lanes: Vec<_> = by_lane.into_iter().collect();
    lanes.sort_by_key(|((r, t), _)| (*r, *t));
    lanes
        .into_iter()
        .map(|((rank, tid), ivs)| {
            let busy_us = merged_len(ivs);
            LaneUtil {
                rank,
                tid,
                busy_secs: busy_us / 1e6,
                utilization: if window > 0.0 { busy_us / window } else { 0.0 },
            }
        })
        .collect()
}

/// Sort, merge, and total a set of intervals.
fn merged_len(mut ivs: Vec<(f64, f64)>) -> f64 {
    ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in ivs {
        match &mut cur {
            Some(c) if c.1 >= a => c.1 = c.1.max(b),
            _ => {
                if let Some((x, y)) = cur {
                    total += y - x;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((x, y)) = cur {
        total += y - x;
    }
    total
}

/// Sub-buckets per power of two in a [`Histogram`] (the HDR-style
/// mantissa subdivision). Relative bucket width is `1/SUB_BUCKETS` ≈ 3%.
const SUB_BUCKETS: usize = 32;
/// Smallest binary exponent a [`Histogram`] distinguishes; values below
/// `2^MIN_EXP` land in the first bucket. With microsecond latencies this
/// is ~1e-9 µs — far below anything a service records.
const MIN_EXP: i32 = -30;
/// Largest binary exponent; values at or above `2^(MAX_EXP+1)` clamp to
/// the last bucket (~2e12 µs ≈ 25 days).
const MAX_EXP: i32 = 41;

/// A log-bucketed histogram for latency-like nonnegative samples.
///
/// Buckets subdivide each power of two into [`SUB_BUCKETS`] linear
/// sub-buckets (the HDR-histogram layout), so bucketing is exact integer
/// arithmetic on the float's bits — no `log2` rounding, identical on
/// every platform. Quantile estimates are therefore within one bucket
/// width (≈3% relative) of the exact order statistic, which the property
/// test in `tests/histogram.rs` checks against a sorted oracle.
///
/// Histograms from different workers [`Histogram::merge`] losslessly:
/// the layout is fixed, so merging is element-wise count addition.
#[derive(Clone, Debug, PartialEq)]
pub struct Histogram {
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; Histogram::num_buckets()],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Total buckets in the fixed layout (shared with any other
    /// histogram implementation that wants to interoperate, e.g. the
    /// atomic variant in `pfmm-metrics`).
    pub fn num_buckets() -> usize {
        (MAX_EXP - MIN_EXP + 1) as usize * SUB_BUCKETS
    }

    /// Public bucket index of a value — the same clamped bit-exact
    /// mapping [`Histogram::record`] uses. External atomic collectors
    /// bucket with this and later rehydrate via
    /// [`Histogram::from_parts`], so quantile arithmetic lives in
    /// exactly one place and the two representations cannot drift.
    pub fn bucket_index(v: f64) -> usize {
        Histogram::bucket_of(v)
    }

    /// Rebuild a histogram from externally collected parts. `counts`
    /// must use the layout of [`Histogram::bucket_index`] (length
    /// [`Histogram::num_buckets`]); `count` is derived from the bucket
    /// totals. `min`/`max` of an empty histogram are `(∞, −∞)`.
    ///
    /// # Panics
    /// Panics when `counts` has the wrong length.
    pub fn from_parts(counts: Vec<u64>, sum: f64, min: f64, max: f64) -> Histogram {
        assert_eq!(counts.len(), Histogram::num_buckets(), "bucket layout");
        let count = counts.iter().sum();
        Histogram {
            counts,
            count,
            sum,
            min,
            max,
        }
    }

    /// Bucket index of a value (clamped to the representable range).
    fn bucket_of(v: f64) -> usize {
        if v <= 0.0 || !v.is_finite() {
            return 0;
        }
        // Normalized doubles are m·2^e with m ∈ [1, 2); recover e and the
        // top mantissa bits directly so bucketing is bit-exact.
        let bits = v.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i32 - 1023;
        if e < MIN_EXP {
            return 0;
        }
        let last = (MAX_EXP - MIN_EXP + 1) as usize * SUB_BUCKETS - 1;
        if e > MAX_EXP {
            return last;
        }
        let mantissa = bits & ((1u64 << 52) - 1);
        let sub = (mantissa >> (52 - SUB_BUCKETS.trailing_zeros())) as usize;
        ((e - MIN_EXP) as usize * SUB_BUCKETS + sub).min(last)
    }

    /// Lower edge of bucket `k`.
    fn bucket_lo(k: usize) -> f64 {
        let e = MIN_EXP + (k / SUB_BUCKETS) as i32;
        let sub = (k % SUB_BUCKETS) as f64;
        (2.0f64).powi(e) * (1.0 + sub / SUB_BUCKETS as f64)
    }

    /// Upper edge of bucket `k` (the lower edge of `k + 1`).
    fn bucket_hi(k: usize) -> f64 {
        Histogram::bucket_lo(k + 1)
    }

    /// Record one sample (negative/NaN samples count into the first
    /// bucket rather than being dropped, so totals always balance).
    pub fn record(&mut self, v: f64) {
        self.counts[Histogram::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of the recorded samples (0 when empty) — with
    /// [`Histogram::count`] this is the pair Prometheus summaries
    /// export as `_sum`/`_count`.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum sample (∞ when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact maximum sample (−∞ when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fold another histogram into this one (element-wise; both use the
    /// same fixed layout).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The `q`-quantile (`q ∈ [0, 1]`), estimated as the upper edge of
    /// the bucket holding the order statistic — within one bucket width
    /// of the exact value, and clamped to the exact observed `[min, max]`
    /// so `quantile(0)`/`quantile(1)` are exact. Returns 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        // The k-th order statistic (1-based), matching the oracle
        // `sorted[ceil(q·n) - 1]`.
        let want = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= want {
                return Histogram::bucket_hi(k).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 95th percentile.
    pub fn p95(&self) -> f64 {
        self.quantile(0.95)
    }

    /// 99th percentile.
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile (the tail SLO quantile).
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Worst-case relative half-width of the bucket containing `v` —
    /// the tolerance the quantile estimate is good to.
    pub fn relative_error_at(v: f64) -> f64 {
        let k = Histogram::bucket_of(v);
        let (lo, hi) = (Histogram::bucket_lo(k), Histogram::bucket_hi(k));
        (hi - lo) / lo
    }
}

/// Msgs/bytes matrices recovered from per-message `send` instants.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommMatrixCounts {
    /// Number of ranks (matrix side).
    pub p: usize,
    /// `msgs[src * p + dst]`.
    pub msgs: Vec<u64>,
    /// `bytes[src * p + dst]`.
    pub bytes: Vec<u64>,
}

/// Build the p×p comm matrix from `cat=="comm"` `send` instants (args
/// `peer` and `bytes`); `p` is inferred from the largest rank/peer seen.
pub fn comm_matrix(events: &[Event]) -> CommMatrixCounts {
    let mut p = 0usize;
    let mut sends: Vec<(usize, usize, u64)> = Vec::new();
    for e in events {
        if e.kind == EventKind::Instant && e.cat == "comm" && e.name == "send" {
            let peer = e
                .args
                .iter()
                .find(|(k, _)| k == "peer")
                .map(|(_, v)| *v as usize);
            let bytes = e
                .args
                .iter()
                .find(|(k, _)| k == "bytes")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            if let Some(peer) = peer {
                p = p.max(e.rank as usize + 1).max(peer + 1);
                sends.push((e.rank as usize, peer, bytes));
            }
        }
    }
    let mut msgs = vec![0u64; p * p];
    let mut bytes = vec![0u64; p * p];
    for (src, dst, b) in sends {
        msgs[src * p + dst] += 1;
        bytes[src * p + dst] += b;
    }
    CommMatrixCounts { p, msgs, bytes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TraceLevel, Tracer};
    use std::borrow::Cow;
    use std::sync::Arc;

    fn span_ev(
        kind: EventKind,
        name: &'static str,
        cat: &'static str,
        rank: u32,
        tid: u32,
        ts: f64,
    ) -> Event {
        Event {
            kind,
            name: Cow::Borrowed(name),
            cat: Cow::Borrowed(cat),
            rank,
            tid,
            ts_us: ts,
            flow: 0,
            args: Vec::new(),
        }
    }

    #[test]
    fn spans_pair_lifo_per_lane() {
        let evs = vec![
            span_ev(EventKind::Begin, "outer", "phase", 0, 0, 0.0),
            span_ev(EventKind::Begin, "inner", "task", 0, 0, 1.0),
            span_ev(EventKind::Begin, "other", "task", 1, 0, 2.0),
            span_ev(EventKind::End, "", "", 0, 0, 3.0),
            span_ev(EventKind::End, "", "", 1, 0, 4.0),
            span_ev(EventKind::End, "", "", 0, 0, 5.0),
        ];
        let sp = spans(&evs);
        assert_eq!(sp.len(), 3);
        let inner = sp.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!((inner.t0_us, inner.t1_us), (1.0, 3.0));
        let outer = sp.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!((outer.t0_us, outer.t1_us), (0.0, 5.0));
    }

    #[test]
    fn imbalance_max_avg() {
        // rank 0: 3s of U-list; rank 1: 1s.
        let evs = vec![
            span_ev(EventKind::Begin, "U-list", "phase", 0, 0, 0.0),
            span_ev(EventKind::End, "", "", 0, 0, 3e6),
            span_ev(EventKind::Begin, "U-list", "phase", 1, 0, 0.0),
            span_ev(EventKind::End, "", "", 1, 0, 1e6),
        ];
        let st = load_imbalance(&evs, "phase");
        assert_eq!(st.len(), 1);
        assert!((st[0].max_secs - 3.0).abs() < 1e-12);
        assert!((st[0].avg_secs - 2.0).abs() < 1e-12);
    }

    #[test]
    fn utilization_unions_overlaps() {
        // One lane busy [0,2]∪[1,3] = 3 of a 4-unit window.
        let evs = vec![
            span_ev(EventKind::Begin, "a", "task", 0, 1, 0.0),
            span_ev(EventKind::End, "", "", 0, 1, 2e6),
            span_ev(EventKind::Begin, "b", "task", 0, 1, 1e6),
            span_ev(EventKind::End, "", "", 0, 1, 3e6),
            span_ev(EventKind::Instant, "end", "comm", 0, 0, 4e6),
        ];
        let u = utilization(&evs);
        let lane = u.iter().find(|l| l.tid == 1).unwrap();
        assert!((lane.busy_secs - 3.0).abs() < 1e-12);
        assert!((lane.utilization - 0.75).abs() < 1e-12);
    }

    #[test]
    fn comm_matrix_from_sends() {
        let t = Arc::new(Tracer::new(TraceLevel::Comm));
        let mut l0 = t.local(0, 0);
        l0.instant("send", "comm", &[("peer", 1), ("bytes", 100), ("tag", 5)]);
        l0.instant("send", "comm", &[("peer", 1), ("bytes", 50), ("tag", 5)]);
        l0.instant("recv", "comm", &[("peer", 1), ("bytes", 7)]);
        l0.submit();
        let mut l1 = t.local(1, 0);
        l1.instant("send", "comm", &[("peer", 0), ("bytes", 7), ("tag", 5)]);
        l1.submit();
        let m = comm_matrix(&t.drain());
        assert_eq!(m.p, 2);
        assert_eq!(m.msgs, vec![0, 2, 1, 0]);
        assert_eq!(m.bytes, vec![0, 150, 7, 0]);
    }
}
