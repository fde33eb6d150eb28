//! The plan cache: [`FmmPlan`]s keyed by their [`PlanFingerprint`], LRU
//! with byte-accurate accounting against a configurable budget.
//!
//! Plans are the expensive half of an FMM evaluation (tree, LET,
//! interaction lists, exchange schedules — Hu, Gumerov & Duraiswami show
//! data-structure construction dominating evaluation); caching one
//! amortizes that cost over every request against the same geometry.
//! Inserts follow the same *build-outside-the-lock* discipline as the
//! `Ops` operator cache in `pfmm-core`: a miss releases the
//! lock, builds the plan (seconds, potentially), then re-checks under the
//! lock so a racing builder's copy wins and the loser's work is dropped —
//! the cache mutex is never held across a build.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use pfmm_core::{FmmPlan, PlanFingerprint};

/// A cached plan: callers lock it for the duration of a batch (applies
/// mutate the plan's density workspace, so batches against one plan
/// serialize — which is exactly what batching is for).
pub type SharedPlan = Arc<Mutex<FmmPlan>>;

/// Monotonic counters describing cache behavior since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a resident plan.
    pub hits: u64,
    /// Lookups that had to build.
    pub misses: u64,
    /// Plans dropped to fit the byte budget.
    pub evictions: u64,
    /// Builds discarded because a racing thread inserted first.
    pub build_races: u64,
    /// Bytes currently resident.
    pub resident_bytes: u64,
    /// Plans currently resident.
    pub resident_plans: u64,
}

impl CacheStats {
    /// Hits over lookups (0 when nothing has been looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: SharedPlan,
    bytes: usize,
    /// LRU stamp: the cache-wide tick at last touch.
    last_use: u64,
}

struct Inner {
    map: HashMap<PlanFingerprint, Entry>,
    tick: u64,
    bytes: usize,
}

/// An LRU plan cache with a byte budget.
pub struct PlanCache {
    inner: Mutex<Inner>,
    budget_bytes: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    build_races: AtomicU64,
}

impl PlanCache {
    /// A cache that holds at most `budget_bytes` of plan memory
    /// ([`FmmPlan::memory_bytes`] accounting). A budget of 0 caches
    /// nothing — every lookup builds and the result is returned uncached,
    /// which is the cold-baseline mode of the serve benchmark.
    pub fn new(budget_bytes: usize) -> PlanCache {
        PlanCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                tick: 0,
                bytes: 0,
            }),
            budget_bytes,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            build_races: AtomicU64::new(0),
        }
    }

    /// The configured budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }

    /// Whether a plan is resident *now* (no LRU touch — admission control
    /// peeks at warmth without distorting recency).
    pub fn contains(&self, key: &PlanFingerprint) -> bool {
        self.inner.lock().unwrap().map.contains_key(key)
    }

    /// Fetch the plan for `key`, building it with `build` on a miss.
    /// Returns `(plan, hit)`. The build runs with no cache lock held;
    /// when two threads race on the same key, the first insert wins and
    /// the loser's build is dropped (counted in
    /// [`CacheStats::build_races`]).
    pub fn get_or_build(
        &self,
        key: PlanFingerprint,
        build: impl FnOnce() -> FmmPlan,
    ) -> (SharedPlan, bool) {
        if let Some(p) = self.touch(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return (p, true);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = build();
        let bytes = built.memory_bytes();
        let shared: SharedPlan = Arc::new(Mutex::new(built));

        let mut g = self.inner.lock().unwrap();
        if g.map.contains_key(&key) {
            // Double-checked insert: someone built it while we did.
            g.tick += 1;
            let t = g.tick;
            let e = g.map.get_mut(&key).expect("checked above");
            e.last_use = t;
            self.build_races.fetch_add(1, Ordering::Relaxed);
            return (Arc::clone(&e.plan), false);
        }
        g.tick += 1;
        let t = g.tick;
        g.map.insert(
            key,
            Entry {
                plan: Arc::clone(&shared),
                bytes,
                last_use: t,
            },
        );
        g.bytes += bytes;
        self.evict_over_budget(&mut g, key);
        (shared, false)
    }

    /// Evict least-recently-used entries until within budget. The entry
    /// just inserted (`keep_last`) is evicted only as a last resort —
    /// when it alone exceeds the budget — so an over-sized plan still
    /// serves its batch, it just doesn't stay resident.
    fn evict_over_budget(&self, g: &mut Inner, keep_last: PlanFingerprint) {
        while g.bytes > self.budget_bytes {
            let victim = g
                .map
                .iter()
                .filter(|(k, _)| **k != keep_last)
                .min_by_key(|(k, e)| (e.last_use, **k))
                .map(|(k, _)| *k);
            let victim = match victim {
                Some(v) => v,
                None => {
                    // Only the fresh insert remains and it is over budget
                    // by itself: drop it too (budget 0 = cache nothing).
                    if let Some(e) = g.map.remove(&keep_last) {
                        g.bytes -= e.bytes;
                        self.evictions.fetch_add(1, Ordering::Relaxed);
                    }
                    return;
                }
            };
            let e = g.map.remove(&victim).expect("victim resident");
            g.bytes -= e.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Hit path: bump recency and clone the handle.
    fn touch(&self, key: &PlanFingerprint) -> Option<SharedPlan> {
        let mut g = self.inner.lock().unwrap();
        g.tick += 1;
        let t = g.tick;
        let e = g.map.get_mut(key)?;
        e.last_use = t;
        Some(Arc::clone(&e.plan))
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().unwrap();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            build_races: self.build_races.load(Ordering::Relaxed),
            resident_bytes: g.bytes as u64,
            resident_plans: g.map.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfmm_core::{plan_fingerprint, Fmm, FmmConfig};
    use pfmm_kernels::Laplace;
    use pfmm_mpisim::run;
    use pfmm_tree::PointRec;

    fn fmm() -> Fmm {
        Fmm::new(
            Arc::new(Laplace),
            FmmConfig {
                order: 4,
                q: 30,
                ..Default::default()
            },
        )
    }

    fn geometry(n: usize, seed: u64) -> Vec<PointRec> {
        pfmm_core::distrib::uniform_cube(n, seed, 0)
    }

    fn build_plan(f: &Fmm, pts: &[PointRec]) -> FmmPlan {
        run(1, |c| f.plan(c, pts.to_vec())).pop().expect("one rank")
    }

    #[test]
    fn hit_after_miss_and_counters() {
        let f = fmm();
        let pts = geometry(300, 3);
        let key = plan_fingerprint("laplace", f.config(), 1, &pts);
        let cache = PlanCache::new(1 << 30);
        let (_, hit) = cache.get_or_build(key, || build_plan(&f, &pts));
        assert!(!hit);
        let (_, hit) = cache.get_or_build(key, || panic!("must not rebuild"));
        assert!(hit);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_plans, 1);
        assert!(s.resident_bytes > 0);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        let f = fmm();
        let geos: Vec<Vec<PointRec>> = (0..3).map(|s| geometry(400, 10 + s)).collect();
        let keys: Vec<PlanFingerprint> = geos
            .iter()
            .map(|g| plan_fingerprint("laplace", f.config(), 1, g))
            .collect();
        let one = build_plan(&f, &geos[0]).memory_bytes();
        // Budget fits two plans of this size, not three.
        let cache = PlanCache::new(one * 2 + one / 2);
        cache.get_or_build(keys[0], || build_plan(&f, &geos[0]));
        cache.get_or_build(keys[1], || build_plan(&f, &geos[1]));
        // Touch 0 so 1 becomes the LRU victim.
        cache.get_or_build(keys[0], || panic!("resident"));
        cache.get_or_build(keys[2], || build_plan(&f, &geos[2]));
        assert!(cache.contains(&keys[0]), "recently touched survives");
        assert!(!cache.contains(&keys[1]), "LRU evicted");
        assert!(cache.contains(&keys[2]), "fresh insert resident");
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert!(s.resident_bytes <= cache.budget_bytes() as u64);
    }

    #[test]
    fn zero_budget_caches_nothing_but_still_serves() {
        let f = fmm();
        let pts = geometry(250, 21);
        let key = plan_fingerprint("laplace", f.config(), 1, &pts);
        let cache = PlanCache::new(0);
        let (p, hit) = cache.get_or_build(key, || build_plan(&f, &pts));
        assert!(!hit);
        assert!(p.lock().unwrap().num_owned() == 250);
        assert!(!cache.contains(&key), "nothing stays resident");
        let (_, hit) = cache.get_or_build(key, || build_plan(&f, &pts));
        assert!(!hit, "every lookup is a miss");
        let s = cache.stats();
        assert_eq!(s.misses, 2);
        assert_eq!(s.resident_bytes, 0);
    }

    #[test]
    fn concurrent_same_key_builds_race_to_one_entry() {
        let f = Arc::new(fmm());
        let pts = Arc::new(geometry(350, 33));
        let key = plan_fingerprint("laplace", f.config(), 1, &pts);
        let cache = Arc::new(PlanCache::new(1 << 30));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let (cache, f, pts) = (Arc::clone(&cache), Arc::clone(&f), Arc::clone(&pts));
                s.spawn(move || {
                    let (p, _) = cache.get_or_build(key, || build_plan(&f, &pts));
                    assert_eq!(p.lock().unwrap().num_owned(), 350);
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.resident_plans, 1, "one winner");
        assert_eq!(s.hits + s.misses, 4);
        assert!(s.misses >= 1);
        // Every miss beyond the winner's was a dropped duplicate build.
        assert_eq!(s.build_races, s.misses - 1);
    }
}
