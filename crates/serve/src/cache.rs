//! The cross-request factorization cache.
//!
//! The paper's cost asymmetry — assembling and factoring the
//! control-independent operator is `O(N³)`, evaluating an objective
//! against the prepared operator is `O(N²)` — is what a long-lived
//! service amortizes across *requests*, not just across the iterations
//! of one run. [`FactorCache`] holds built problems ([`BuiltProblem`]:
//! the dense `Lu` factors or the sparse envelope factor behind an
//! `Arc<dyn LinearBackend>`, the assembled Navier–Stokes
//! operator blocks) keyed by [`ProblemSpec::build_key`], shared by every
//! connected client.
//!
//! # Budget and eviction
//!
//! Entries are metered by [`BuiltProblem::memory_bytes`] (for Laplace
//! problems the backend plus the constant tensors the build keeps) against
//! a byte budget (`MESHFREE_CACHE_BYTES`, default 256 MiB). Eviction is strict
//! least-recently-used on a logical access counter — never wall-clock —
//! so which keys survive a request sequence is a pure function of that
//! sequence: independent of thread count, pool width, and timing. After
//! every insertion the cache evicts until resident bytes are within
//! budget, so the `serve_cache_bytes` counter never exceeds it; a single
//! build larger than the whole budget is served to the requester but not
//! retained.
//!
//! # Telemetry
//!
//! Every operation reports on the serve trace layer via counters:
//! `serve_cache_hit`, `serve_cache_miss`, `serve_cache_evict` (all with
//! the entry's byte size as value) and `serve_cache_bytes` (resident
//! total after the operation).

use control::api::{BuiltProblem, ControlError, ProblemSpec};
use meshfree_runtime::trace;
use std::sync::{Arc, Mutex};

/// Environment variable holding the cache budget in bytes (re-exported
/// from [`meshfree_runtime::config`], where all `MESHFREE_*` knobs now
/// resolve).
pub const CACHE_BYTES_ENV: &str = meshfree_runtime::config::CACHE_BYTES_ENV;

/// Default budget when [`CACHE_BYTES_ENV`] is unset: 256 MiB.
pub const DEFAULT_CACHE_BYTES: usize = meshfree_runtime::config::DEFAULT_CACHE_BYTES;

/// Outcome of one cache lookup, for per-client event reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The build was already resident.
    Hit,
    /// The problem was built (and retained if it fits the budget).
    Miss,
}

struct Entry {
    key: String,
    built: Arc<BuiltProblem>,
    bytes: usize,
    last_used: u64,
}

struct Inner {
    entries: Vec<Entry>,
    /// Logical clock: bumped once per lookup. LRU decisions compare these
    /// counters, never wall-clock, so eviction order is deterministic.
    seq: u64,
    bytes: usize,
}

/// Shared LRU cache of built problems, keyed by
/// [`ProblemSpec::build_key`].
pub struct FactorCache {
    budget: usize,
    inner: Mutex<Inner>,
}

impl FactorCache {
    /// Creates a cache with an explicit byte budget.
    pub fn new(budget: usize) -> FactorCache {
        FactorCache {
            budget,
            inner: Mutex::new(Inner {
                entries: Vec::new(),
                seq: 0,
                bytes: 0,
            }),
        }
    }

    /// Creates a cache budgeted from the process-wide
    /// [`RuntimeConfig`](meshfree_runtime::RuntimeConfig) — i.e.
    /// [`CACHE_BYTES_ENV`] when set, [`DEFAULT_CACHE_BYTES`] otherwise.
    pub fn from_env() -> FactorCache {
        FactorCache::new(meshfree_runtime::RuntimeConfig::global().cache_bytes)
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Resident bytes right now.
    pub fn bytes(&self) -> usize {
        self.inner.lock().expect("cache lock poisoned").bytes
    }

    /// Resident keys in least-recently-used-first order (test hook: the
    /// deterministic-eviction gate asserts on this ordering).
    pub fn keys_lru_first(&self) -> Vec<String> {
        let inner = self.inner.lock().expect("cache lock poisoned");
        let mut keyed: Vec<(u64, String)> = inner
            .entries
            .iter()
            .map(|e| (e.last_used, e.key.clone()))
            .collect();
        keyed.sort();
        keyed.into_iter().map(|(_, k)| k).collect()
    }

    /// Returns the build for `spec`, building it on a miss.
    ///
    /// The lock is held across the build on purpose: two clients racing
    /// on the same key pay one build (the second lookup hits), and the
    /// hit/miss/eviction sequence stays a pure function of the request
    /// order. The underlying kernels parallelize internally on the
    /// `runtime::par` pool, which serializes submissions safely.
    pub fn get_or_build(
        &self,
        spec: &ProblemSpec,
    ) -> Result<(Arc<BuiltProblem>, Lookup), ControlError> {
        let key = spec.build_key();
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.seq += 1;
        let seq = inner.seq;
        if let Some(e) = inner.entries.iter_mut().find(|e| e.key == key) {
            e.last_used = seq;
            let built = Arc::clone(&e.built);
            let bytes = e.bytes;
            trace::counter("serve_cache_hit", bytes as f64);
            trace::counter("serve_cache_bytes", inner.bytes as f64);
            return Ok((built, Lookup::Hit));
        }
        let built = Arc::new(BuiltProblem::build(spec)?);
        let bytes = built.memory_bytes();
        trace::counter("serve_cache_miss", bytes as f64);
        if bytes <= self.budget {
            inner.entries.push(Entry {
                key,
                built: Arc::clone(&built),
                bytes,
                last_used: seq,
            });
            inner.bytes += bytes;
            // Evict least-recently-used entries (never the one just
            // inserted: it holds seq, the maximum) until within budget.
            while inner.bytes > self.budget {
                let lru = inner
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("over budget implies at least one entry");
                let evicted = inner.entries.remove(lru);
                inner.bytes -= evicted.bytes;
                trace::counter("serve_cache_evict", evicted.bytes as f64);
            }
        }
        trace::counter("serve_cache_bytes", inner.bytes as f64);
        Ok((built, Lookup::Miss))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use control::api::RunSpec;

    fn synthetic_spec(n: usize) -> ProblemSpec {
        RunSpec::synthetic(n).build().problem
    }

    fn laplace_spec(nx: usize) -> ProblemSpec {
        RunSpec::laplace().nx(nx).build().problem
    }

    #[test]
    fn same_key_hits_and_shares_one_build() {
        let cache = FactorCache::new(DEFAULT_CACHE_BYTES);
        let spec = laplace_spec(8);
        let (a, l1) = cache.get_or_build(&spec).unwrap();
        let (b, l2) = cache.get_or_build(&spec).unwrap();
        assert_eq!(l1, Lookup::Miss);
        assert_eq!(l2, Lookup::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit must return the same build");
        assert_eq!(cache.bytes(), a.memory_bytes());
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn lru_eviction_respects_the_budget_and_access_order() {
        // Budget sized for the nx=8 and nx=10 builds together (builds grow
        // with nx): the third distinct key must evict the least recently
        // *used* (not least recently inserted) entry.
        let probe = FactorCache::new(usize::MAX);
        let measure = |nx| {
            probe
                .get_or_build(&laplace_spec(nx))
                .unwrap()
                .0
                .memory_bytes()
        };
        let (b8, b10) = (measure(8), measure(10));

        let cache = FactorCache::new(b8 + b10);
        cache.get_or_build(&laplace_spec(8)).unwrap();
        cache.get_or_build(&laplace_spec(9)).unwrap();
        // Touch nx=8 so nx=9 becomes the LRU entry.
        let (_, l) = cache.get_or_build(&laplace_spec(8)).unwrap();
        assert_eq!(l, Lookup::Hit);
        cache.get_or_build(&laplace_spec(10)).unwrap();
        let keys = cache.keys_lru_first();
        assert!(
            keys.contains(&"laplace-nx8".to_string())
                && keys.contains(&"laplace-nx10".to_string())
                && !keys.contains(&"laplace-nx9".to_string()),
            "nx9 was the LRU entry and must be evicted: {keys:?}"
        );
        assert!(cache.bytes() <= cache.budget());
    }

    #[test]
    fn oversized_builds_are_served_but_not_retained() {
        let cache = FactorCache::new(16); // smaller than any real build
        let (built, l) = cache.get_or_build(&laplace_spec(8)).unwrap();
        assert_eq!(l, Lookup::Miss);
        assert!(built.memory_bytes() > 16);
        assert_eq!(cache.bytes(), 0, "oversized build must not be retained");
        // And the next request builds again (still a miss).
        let (_, l) = cache.get_or_build(&laplace_spec(8)).unwrap();
        assert_eq!(l, Lookup::Miss);
    }

    #[test]
    fn synthetic_builds_are_weightless() {
        let cache = FactorCache::new(DEFAULT_CACHE_BYTES);
        let (built, _) = cache.get_or_build(&synthetic_spec(6)).unwrap();
        assert_eq!(built.memory_bytes(), 0);
        assert_eq!(cache.bytes(), 0);
        let (_, l) = cache.get_or_build(&synthetic_spec(6)).unwrap();
        assert_eq!(l, Lookup::Hit);
    }

    #[test]
    fn eviction_order_is_invariant_under_pool_width() {
        // The same request sequence must leave the same resident keys and
        // byte total whether the builds ran on the parallel pool or fully
        // serial — eviction depends only on logical access order.
        let sequence = [8usize, 9, 8, 10, 11, 9, 8];
        let run = |serial: bool| {
            let probe = FactorCache::new(usize::MAX);
            let one = probe
                .get_or_build(&laplace_spec(8))
                .unwrap()
                .0
                .memory_bytes();
            let cache = FactorCache::new(3 * one);
            let mut lookups = Vec::new();
            let mut drive = || {
                for &nx in &sequence {
                    let (_, l) = cache.get_or_build(&laplace_spec(nx)).unwrap();
                    lookups.push(l);
                }
            };
            if serial {
                meshfree_runtime::par::serial_scope(&mut drive);
            } else {
                drive();
            }
            (lookups, cache.keys_lru_first(), cache.bytes())
        };
        assert_eq!(run(false), run(true));
    }
}
