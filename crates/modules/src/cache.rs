//! Cross-pipeline invocation cache: one module invocation per distinct
//! `(module, input value vector)` across the whole process.
//!
//! In the paper's setting (§3.2) modules are remote, metered SOAP/REST
//! services, so the invocation is the dominant cost of every downstream
//! workload. The pipeline re-invokes the same module on the same value
//! vector many times over — generation retries, the matcher's aligned
//! generation at multiple value offsets, repair verification, workflow
//! re-enactment. An [`InvocationCache`] memoizes the full outcome (outputs
//! *or* error — modules are deterministic, so a `Rejected` is as cacheable
//! as a result vector) behind sharded locks, and guarantees that concurrent
//! readers racing on the same key trigger exactly one invocation.
//!
//! **Transient errors are never memoized.** `Unavailable` and `Fault` are
//! state-dependent (a withdrawn module can be restored; a crashed call can
//! succeed on retry — see [`InvocationError::is_transient`]), so memoizing
//! one would poison the key for the rest of the process. The cache hands
//! the transient outcome to the callers that raced on it, then forgets the
//! entry so the next lookup invokes afresh.

use crate::blackbox::BlackBox;
use crate::invoke::InvocationError;
use crate::module::ModuleId;
use dex_values::Value;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// The memoized result of one invocation: the module's outputs, or the error
/// that prevented normal termination.
pub type InvocationOutcome = Result<Vec<Value>, InvocationError>;

/// Cache key: module identity plus the exact input value vector. The hash is
/// precomputed once (vectors can hold large flat-file texts) and reused by
/// both shard selection and the shard's `HashMap`.
#[derive(Debug, PartialEq, Eq)]
struct CacheKey {
    module: ModuleId,
    inputs: Vec<Value>,
    precomputed_hash: u64,
}

impl CacheKey {
    fn new(module: &ModuleId, inputs: &[Value]) -> CacheKey {
        let mut hasher = DefaultHasher::new();
        module.hash(&mut hasher);
        inputs.hash(&mut hasher);
        CacheKey {
            module: module.clone(),
            inputs: inputs.to_vec(),
            precomputed_hash: hasher.finish(),
        }
    }
}

impl Hash for CacheKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.precomputed_hash);
    }
}

/// One entry: a `OnceLock` cell so the first arrival invokes and every
/// concurrent arrival blocks on the same initialization instead of invoking
/// a duplicate.
type CacheCell = Arc<OnceLock<Arc<InvocationOutcome>>>;

/// One lock-sharded slice of the key space.
type Shard = HashMap<CacheKey, CacheCell>;

/// Snapshot of an [`InvocationCache`]'s behavior, serializable into run
/// reports (`TELEMETRY.json`, `BENCH_invocation.json`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct InvocationCacheStats {
    /// Lookups answered by an existing entry (including entries still being
    /// initialized by another thread — the caller waits, it never re-invokes).
    /// A waiter whose entry resolves to a transient outcome is counted under
    /// `transients` instead: the entry is forgotten immediately, so no
    /// invocation was durably saved.
    pub hits: u64,
    /// Lookups that created a fresh entry and invoked the module.
    pub misses: u64,
    /// Transient outcomes handed through (and immediately forgotten) instead
    /// of being memoized.
    pub transients: u64,
    /// Entries currently held across all shards.
    pub entries: usize,
    /// Initialized entries currently holding a transient error — the
    /// invariant is that this is always `0` *at every instant*, not just at
    /// quiescence: transient entries are forgotten before their cell is
    /// published, so even a `stats()` racing with the failing invocation
    /// cannot observe one. Reported so callers (and the stress tests) can
    /// assert it mid-run.
    pub memoized_transients: usize,
}

impl InvocationCacheStats {
    /// Hit fraction in `[0, 1]`; `0.0` before any lookup.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Invocations avoided by the cache — one per hit.
    pub fn invocations_saved(&self) -> u64 {
        self.hits
    }
}

/// Process-global telemetry counters for cache traffic, interned once.
fn cache_counters() -> &'static (
    dex_telemetry::Counter,
    dex_telemetry::Counter,
    dex_telemetry::Counter,
) {
    static COUNTERS: OnceLock<(
        dex_telemetry::Counter,
        dex_telemetry::Counter,
        dex_telemetry::Counter,
    )> = OnceLock::new();
    COUNTERS.get_or_init(|| {
        (
            dex_telemetry::counter("dex.invoke.cache.hits"),
            dex_telemetry::counter("dex.invoke.cache.misses"),
            dex_telemetry::counter("dex.invoke.cache.transients"),
        )
    })
}

/// A concurrency-safe memo of invocation outcomes keyed by
/// `(module id, input value vector)`.
///
/// * **Sharded**: keys hash to one of [`InvocationCache::SHARDS`] mutexed
///   maps, so the hot path never serializes on a global lock.
/// * **Exactly-once**: each entry is a `OnceLock`; when N threads race on a
///   missing key, one invokes and N−1 block on the cell, so a vector is
///   never invoked twice (see the `tests/invocation_cache.rs` concurrency
///   suite).
/// * **Transient-aware**: outcomes whose error
///   [`InvocationError::is_transient`] holds are handed through to the
///   racing callers and then *forgotten* — only successes and permanent
///   errors are memoized.
/// * **Observable**: per-cache atomic counters plus `dex.invoke.cache.*`
///   telemetry counters when the global subscriber is on.
pub struct InvocationCache {
    shards: Box<[Mutex<Shard>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    transients: AtomicU64,
}

impl Default for InvocationCache {
    fn default() -> Self {
        InvocationCache::new()
    }
}

impl InvocationCache {
    /// Number of lock shards (power of two; shard = hash low bits).
    pub const SHARDS: usize = 16;

    /// An empty, unbounded cache: an entry lives as long as the cache.
    pub fn new() -> InvocationCache {
        InvocationCache {
            shards: (0..Self::SHARDS)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            transients: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: &CacheKey) -> &Mutex<Shard> {
        &self.shards[(key.precomputed_hash as usize) & (Self::SHARDS - 1)]
    }

    /// Invokes `module` on `inputs` through the cache: the first call for a
    /// distinct `(module, inputs)` pair invokes the black box; every later
    /// (or concurrent) call returns the memoized outcome.
    ///
    /// The invocation itself runs *outside* the shard lock — only the cell
    /// lookup/insert is locked — so a slow remote module never blocks cache
    /// traffic for other keys, and concurrent misses on different keys
    /// proceed in parallel.
    pub fn invoke(&self, module: &dyn BlackBox, inputs: &[Value]) -> Arc<InvocationOutcome> {
        let key = CacheKey::new(&module.descriptor().id, inputs);
        let telemetry_on = dex_telemetry::is_enabled();
        let (cell, fresh) = {
            let mut shard = self.shard(&key).lock().expect("no poisoning");
            match shard.entry(key) {
                Entry::Occupied(occupied) => (Arc::clone(occupied.get()), false),
                Entry::Vacant(vacant) => (Arc::clone(vacant.insert(CacheCell::default())), true),
            }
        };
        if fresh {
            self.misses.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                cache_counters().1.add(1);
            }
        }
        // `get_or_init` runs the invocation at most once per cell; racing
        // readers block here until the winner's outcome is published.
        let outcome = Arc::clone(cell.get_or_init(|| {
            let outcome = Arc::new(module.invoke(inputs));
            if dex_telemetry::flight_on() {
                let detail = match outcome.as_ref() {
                    Ok(values) => format!("ok ({} outputs)", values.len()),
                    Err(error) => format!("{error:?}"),
                };
                dex_telemetry::flight(
                    dex_telemetry::FlightKind::Invocation,
                    module.descriptor().id.as_str(),
                    detail,
                    0,
                );
            }
            if matches!(outcome.as_ref(), Err(e) if e.is_transient()) {
                // State-dependent failure: forget the entry *before* the
                // cell is published, so no concurrent `stats()` can ever
                // observe a memoized transient — the waiters blocked on
                // this cell still receive the outcome, but the map never
                // holds an initialized transient entry.
                self.forget_transient(module, inputs, &cell);
            }
            outcome
        }));
        let transient = matches!(outcome.as_ref(), Err(e) if e.is_transient());
        if transient {
            self.transients.fetch_add(1, Ordering::Relaxed);
            if telemetry_on {
                cache_counters().2.add(1);
            }
        }
        if !fresh {
            // Hits are counted only once the outcome is known memoizable: a
            // waiter that raced onto a cell which resolves transient did
            // not durably save an invocation (the entry is forgotten and
            // the next lookup re-invokes), so counting it as a hit would
            // inflate `hit_rate` under exactly the contention the batched
            // executor produces.
            if !transient {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if telemetry_on {
                    cache_counters().0.add(1);
                }
            }
        }
        outcome
    }

    /// Removes the entry for `(module, inputs)` if it still holds `cell` —
    /// a newer cell (inserted after an earlier forget) must not be clobbered
    /// by a stale transient outcome.
    fn forget_transient(&self, module: &dyn BlackBox, inputs: &[Value], cell: &CacheCell) {
        let key = CacheKey::new(&module.descriptor().id, inputs);
        let mut shard = self.shard(&key).lock().expect("no poisoning");
        if shard
            .get(&key)
            .is_some_and(|current| Arc::ptr_eq(current, cell))
        {
            shard.remove(&key);
        }
    }

    /// Snapshot of the cache's lifetime behavior.
    pub fn stats(&self) -> InvocationCacheStats {
        let mut entries = 0;
        let mut memoized_transients = 0;
        for shard in self.shards.iter() {
            let shard = shard.lock().expect("no poisoning");
            entries += shard.len();
            memoized_transients += shard
                .values()
                .filter(|cell| {
                    matches!(cell.get().map(|o| o.as_ref()), Some(Err(e)) if e.is_transient())
                })
                .count();
        }
        InvocationCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            transients: self.transients.load(Ordering::Relaxed),
            entries,
            memoized_transients,
        }
    }

    /// Publishes this cache's stats as `dex.invoke.cache.*` gauges so they
    /// appear in `TELEMETRY.json` (no-op while telemetry is disabled —
    /// gauges are point-in-time, unlike the live hit/miss counters).
    pub fn publish_telemetry(&self) {
        if !dex_telemetry::is_enabled() {
            return;
        }
        let stats = self.stats();
        dex_telemetry::gauge_set("dex.invoke.cache.entries", stats.entries as i64);
        dex_telemetry::gauge_set(
            "dex.invoke.cache.hit_rate_pct",
            (stats.hit_rate() * 100.0) as i64,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blackbox::FnModule;
    use crate::module::{ModuleDescriptor, ModuleKind};
    use crate::param::Parameter;
    use dex_values::StructuralType;
    use std::sync::atomic::AtomicUsize;

    fn counted_upper() -> (FnModule, Arc<AtomicUsize>) {
        let count = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&count);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:upper",
                "ToUpper",
                ModuleKind::RestService,
                vec![Parameter::required(
                    "text",
                    StructuralType::Text,
                    "Document",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |inputs| {
                seen.fetch_add(1, Ordering::Relaxed);
                let text = inputs[0].as_text().expect("validated");
                if text.is_empty() {
                    return Err(InvocationError::rejected("empty"));
                }
                Ok(vec![Value::text(text.to_uppercase())])
            },
        );
        (module, count)
    }

    #[test]
    fn second_lookup_is_a_hit_and_skips_the_module() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        let a = cache.invoke(&module, &[Value::text("abc")]);
        let b = cache.invoke(&module, &[Value::text("abc")]);
        assert_eq!(a.as_ref().as_ref().unwrap(), &vec![Value::text("ABC")]);
        assert!(Arc::ptr_eq(&a, &b), "same memoized outcome");
        assert_eq!(invoked.load(Ordering::Relaxed), 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
        assert_eq!(stats.hit_rate(), 0.5);
        assert_eq!(stats.invocations_saved(), 1);
    }

    #[test]
    fn errors_are_memoized_too() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        for _ in 0..3 {
            let out = cache.invoke(&module, &[Value::text("")]);
            assert!(matches!(
                out.as_ref(),
                Err(InvocationError::Rejected { .. })
            ));
        }
        assert_eq!(invoked.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn distinct_vectors_are_distinct_entries() {
        let cache = InvocationCache::new();
        let (module, invoked) = counted_upper();
        for text in ["a", "b", "c"] {
            cache.invoke(&module, &[Value::text(text)]);
        }
        assert_eq!(invoked.load(Ordering::Relaxed), 3);
        assert_eq!(cache.stats().entries, 3);
        cache.invoke(&module, &[Value::text("b")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 3, "\"b\" is memoized");
        cache.invoke(&module, &[Value::text("z")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 4, "\"z\" is not");
        assert_eq!(cache.stats().entries, 4);
    }

    #[test]
    fn invoke_all_parallel_matches_sequential_order() {
        let (module, invoked) = counted_upper();
        let cache = InvocationCache::new();
        let vectors: Vec<Vec<Value>> = (0..50)
            .map(|i| vec![Value::text(format!("t{}", i % 7))])
            .collect();
        let results =
            crate::retry::invoke_all_retrying(&module, &vectors, &cache, &crate::Retrier::none());
        assert_eq!(results.len(), vectors.len());
        for (vector, outcome) in vectors.iter().zip(&results) {
            let expected = vector[0].as_text().unwrap().to_uppercase();
            assert_eq!(
                outcome.as_ref().as_ref().unwrap(),
                &vec![Value::text(expected)]
            );
        }
        // 7 distinct vectors → exactly 7 invocations despite 50 requests.
        assert_eq!(invoked.load(Ordering::Relaxed), 7);
    }

    /// A module that fails `Unavailable` while the flag is raised — the
    /// cache must re-invoke it every time instead of memoizing the outage.
    fn flagged_module() -> (
        FnModule,
        Arc<AtomicUsize>,
        Arc<std::sync::atomic::AtomicBool>,
    ) {
        let count = Arc::new(AtomicUsize::new(0));
        let down = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let seen = Arc::clone(&count);
        let outage = Arc::clone(&down);
        let module = FnModule::new(
            ModuleDescriptor::new(
                "op:flagged",
                "Flagged",
                ModuleKind::SoapService,
                vec![Parameter::required(
                    "text",
                    StructuralType::Text,
                    "Document",
                )],
                vec![Parameter::required("out", StructuralType::Text, "Document")],
            ),
            move |inputs| {
                seen.fetch_add(1, Ordering::Relaxed);
                if outage.load(Ordering::Relaxed) {
                    return Err(InvocationError::Unavailable);
                }
                Ok(vec![Value::text(
                    inputs[0].as_text().unwrap().to_uppercase(),
                )])
            },
        );
        (module, count, down)
    }

    #[test]
    fn transient_outcomes_are_passed_through_not_memoized() {
        let cache = InvocationCache::new();
        let (module, invoked, down) = flagged_module();
        down.store(true, Ordering::Relaxed);
        for _ in 0..3 {
            let out = cache.invoke(&module, &[Value::text("x")]);
            assert_eq!(out.as_ref(), &Err(InvocationError::Unavailable));
        }
        // Every lookup re-invoked — no poisoned cell.
        assert_eq!(invoked.load(Ordering::Relaxed), 3);
        let stats = cache.stats();
        assert_eq!(stats.transients, 3);
        assert_eq!(stats.memoized_transients, 0, "invariant: never stored");
        assert_eq!(stats.entries, 0);

        // Recovery: once the outage lifts, the success is memoized again.
        down.store(false, Ordering::Relaxed);
        let ok = cache.invoke(&module, &[Value::text("x")]);
        assert_eq!(ok.as_ref().as_ref().unwrap(), &vec![Value::text("X")]);
        cache.invoke(&module, &[Value::text("x")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 4, "second lookup hit");
        assert_eq!(cache.stats().memoized_transients, 0);
    }

    #[test]
    fn transient_forget_does_not_clobber_a_newer_success() {
        // Sequence: outage outcome obtained, key re-invoked successfully,
        // then the stale forget path must leave the fresh entry in place.
        // (Exercised here sequentially; the Arc::ptr_eq guard is what makes
        // the interleaved version safe.)
        let cache = InvocationCache::new();
        let (module, invoked, down) = flagged_module();
        down.store(true, Ordering::Relaxed);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        down.store(false, Ordering::Relaxed);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        let _ = cache.invoke(&module, &[Value::text("k")]);
        assert_eq!(invoked.load(Ordering::Relaxed), 2, "outage + one success");
        assert_eq!(cache.stats().entries, 1);
    }
}
