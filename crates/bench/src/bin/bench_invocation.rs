//! Emits `BENCH_invocation.json`: before/after numbers for the invocation
//! planner + shared invocation cache, measured on the aligned-matching
//! workload (generation at value offsets `0..k` over a module sample, then
//! all-pairs example replay — the §6 matching pipeline).
//!
//! The "uncached" baseline reproduces the pre-planner pipeline: per-offset
//! memoized generation via the sequential reference path, with every replay
//! invoking the candidate afresh. The "cached" run is today's pipeline: one
//! [`MatchSession`] whose generations and replays share an
//! [`InvocationCache`](dex_modules::InvocationCache).
//!
//! Gate: the cache must record hits on this workload — zero would mean the
//! planner's sharing is broken, and CI treats it as a regression.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_invocation [OUT.json]`

use dex_bench::harness::{self, measure, Bench, Op};
use dex_bench::ordered_pairs;
use dex_core::{
    generate_examples_sequential, match_against_examples, GenerationConfig, GenerationReport,
    MappingMode, MatchSession,
};
use dex_modules::{BlackBox, InvocationError, ModuleDescriptor, ModuleId, SharedModule};
use dex_pool::build_synthetic_pool;
use dex_values::Value;
use serde::Serialize;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Wraps a catalog module, counting every invocation that actually reaches
/// the black box (cache hits never get here).
struct Counted {
    inner: SharedModule,
    invocations: Arc<AtomicU64>,
}

impl BlackBox for Counted {
    fn descriptor(&self) -> &ModuleDescriptor {
        self.inner.descriptor()
    }

    fn invoke(&self, inputs: &[Value]) -> Result<Vec<Value>, InvocationError> {
        self.invocations.fetch_add(1, Ordering::Relaxed);
        self.inner.invoke(inputs)
    }
}

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    aligned_matching: AlignedMatching,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct AlignedMatching {
    modules: usize,
    offsets: usize,
    ordered_pairs: usize,
    uncached: Uncached,
    cached: Cached,
    invocation_drop_pct: f64,
}

#[derive(Serialize)]
struct Uncached {
    module_invocations: u64,
    ms: f64,
}

#[derive(Serialize)]
struct Cached {
    module_invocations: u64,
    ms: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_entries: usize,
    hit_rate_pct: f64,
}

fn main() {
    let mut bench = Bench::from_env("bench_invocation", &[]);

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(
        &universe.ontology,
        dex_experiments::POOL_PER_CONCEPT,
        dex_experiments::POOL_SEED,
    );
    let config = GenerationConfig::default();
    let offsets = 3usize;

    // Sample lookalike families: modules sharing an input-concept signature
    // are the pairs aligned matching actually replays against each other (a
    // uniformly thinned sample is almost entirely incomparable pairs, which
    // exercises neither the baseline nor the cache).
    let mut families: BTreeMap<Vec<String>, Vec<ModuleId>> = BTreeMap::new();
    for id in universe.available_ids() {
        let module = universe.catalog.get(&id).expect("available");
        let mut signature: Vec<String> = module
            .descriptor()
            .inputs
            .iter()
            .map(|p| p.semantic.clone())
            .collect();
        signature.sort();
        families.entry(signature).or_default().push(id);
    }
    let mut families: Vec<Vec<ModuleId>> = families
        .into_values()
        .filter(|members| members.len() >= 2)
        .collect();
    families.sort_by_key(|members| std::cmp::Reverse(members.len()));
    let ids: Vec<ModuleId> = families.into_iter().flatten().take(16).collect();
    let counter = Arc::new(AtomicU64::new(0));
    let modules: Vec<Counted> = ids
        .iter()
        .map(|id| Counted {
            inner: universe.catalog.get(id).expect("available").clone(),
            invocations: Arc::clone(&counter),
        })
        .collect();
    let pairs = ids.len() * (ids.len() - 1);

    // Each measured run starts from scratch (fresh report memo / fresh
    // session+cache); wall-clock is the median of `REPS` runs, invocation
    // counts come from the last run (they are identical across runs).
    const REPS: usize = 5;

    // --- Baseline: pre-planner pipeline ----------------------------------
    // Generation memoized per (module, offset) — the old MatchSession did
    // that much — but produced by the sequential loop, and every replay
    // re-invokes the candidate.
    let (uncached, _reports) = measure(REPS, 1, || {
        counter.store(0, Ordering::Relaxed);
        let mut reports: HashMap<(usize, usize), GenerationReport> = HashMap::new();
        for offset in 0..offsets {
            let config = GenerationConfig {
                value_offset: offset,
                ..config.clone()
            };
            for (i, module) in modules.iter().enumerate() {
                let report =
                    generate_examples_sequential(module, &universe.ontology, &pool, &config)
                        .unwrap_or_else(|e| panic!("{}: {e}", ids[i]));
                reports.insert((offset, i), report);
            }
            for (t, c) in ordered_pairs(modules.len()) {
                let _ = match_against_examples(
                    modules[t].descriptor(),
                    &reports[&(offset, t)].examples,
                    &modules[c],
                    &universe.ontology,
                    MappingMode::Strict,
                );
            }
        }
        reports
    });
    let uncached_invocations = counter.load(Ordering::Relaxed);

    // --- Cached: the planner pipeline ------------------------------------
    let (cached, session) = measure(REPS, 1, || {
        counter.store(0, Ordering::Relaxed);
        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        for offset in 0..offsets {
            for (t, target) in modules.iter().enumerate() {
                let report = session.report_at(target, offset);
                let Ok(report) = report.as_ref() else {
                    panic!("{}: generation failed", ids[t])
                };
                for (c, candidate) in modules.iter().enumerate() {
                    if t == c {
                        continue;
                    }
                    let _ = dex_core::match_against_examples_retrying(
                        target.descriptor(),
                        &report.examples,
                        candidate,
                        &universe.ontology,
                        MappingMode::Strict,
                        session.invocation_cache(),
                        &dex_modules::Retrier::none(),
                    );
                }
            }
        }
        session
    });
    let cached_invocations = counter.load(Ordering::Relaxed);
    let stats = session.invocation_stats();

    let drop_pct = if uncached_invocations > 0 {
        100.0 * (uncached_invocations.saturating_sub(cached_invocations)) as f64
            / uncached_invocations as f64
    } else {
        0.0
    };

    bench.gate("cached.cache_hits", Op::Gt, 0.0, stats.hits as f64);
    bench.finish(|gates| Report {
        profile: harness::profile(),
        aligned_matching: AlignedMatching {
            modules: ids.len(),
            offsets,
            ordered_pairs: pairs,
            uncached: Uncached {
                module_invocations: uncached_invocations,
                ms: uncached.median(),
            },
            cached: Cached {
                module_invocations: cached_invocations,
                ms: cached.median(),
                cache_hits: stats.hits,
                cache_misses: stats.misses,
                cache_entries: stats.entries,
                hit_rate_pct: stats.hit_rate() * 100.0,
            },
            invocation_drop_pct: drop_pct,
        },
        gates,
    });
}
