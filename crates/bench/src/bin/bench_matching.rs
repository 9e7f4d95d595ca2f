//! Emits a machine-readable `BENCH_matching.json` summary of the
//! performance-pass hot paths, so successive PRs can track the trajectory
//! without parsing criterion output.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_matching [OUT.json]`
//! (default output path: `BENCH_matching.json` in the working directory).
//! Sample counts are sized for a few seconds of wall clock in release mode;
//! debug-mode numbers are labeled as such in the `profile` field.

use dex_bench::harness::{self, measure, timed, Bench};
use dex_bench::ordered_pairs;
use dex_core::{compare_modules, GenerationConfig, MatchSession};
use dex_experiments::parallel::{match_pairs_blocked, BatchConfig};
use dex_modules::ModuleId;
use dex_ontology::{ConceptId, Ontology};
use dex_pool::build_synthetic_pool;
use serde::Serialize;

/// Median nanoseconds per call of `f` over `rounds` timed batches of
/// `batch` calls each.
fn median_ns(rounds: usize, batch: usize, f: impl FnMut()) -> f64 {
    measure(rounds, batch, f).0.median() * 1e6
}

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    subsumes_ns_by_depth: Vec<SubsumesRow>,
    instances_of_ns_by_pool_size: Vec<PoolRow>,
    all_pairs_ms_by_catalog: Vec<AllPairsRow>,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct SubsumesRow {
    depth: usize,
    interval_ns: f64,
    walk_ns: f64,
}

#[derive(Serialize)]
struct PoolRow {
    pool_size: usize,
    indexed_ns: f64,
    scan_ns: f64,
}

#[derive(Serialize)]
struct AllPairsRow {
    modules: usize,
    pairs: usize,
    serial_uncached_ms: f64,
    cached_serial_ms: f64,
    cached_parallel_ms: f64,
}

fn chain_ontology(depth: usize) -> Ontology {
    let mut b = Ontology::builder(format!("chain{depth}"));
    b.root("N0").unwrap();
    for i in 1..depth {
        b.child(&format!("N{i}"), &format!("N{}", i - 1)).unwrap();
    }
    b.child("Leaf", &format!("N{}", depth - 1)).unwrap();
    b.build().unwrap()
}

fn subsumes_walk(o: &Ontology, general: ConceptId, specific: ConceptId) -> bool {
    let dg = o.depth(general);
    let mut cur = specific;
    while o.depth(cur) > dg {
        cur = match o.parent(cur) {
            Some(p) => p,
            None => return false,
        };
    }
    cur == general
}

fn main() {
    let bench = Bench::from_env("bench_matching", &[]);

    // --- Subsumption across ontology depth -------------------------------
    let subsumes_ns_by_depth = [4usize, 16, 64, 256]
        .into_iter()
        .map(|depth| {
            let o = chain_ontology(depth);
            let root = o.id("N0").unwrap();
            let leaf = o.id("Leaf").unwrap();
            SubsumesRow {
                depth,
                interval_ns: median_ns(21, 100_000, || {
                    std::hint::black_box(o.subsumes(std::hint::black_box(root), leaf));
                }),
                walk_ns: median_ns(21, 10_000, || {
                    std::hint::black_box(subsumes_walk(&o, std::hint::black_box(root), leaf));
                }),
            }
        })
        .collect();

    // --- Pool lookups across pool size -----------------------------------
    let onto = dex_ontology::mygrid::ontology();
    let identifier = onto.id("Identifier").unwrap();
    let instances_of_ns_by_pool_size = [2usize, 8, 32]
        .into_iter()
        .map(|per_concept| {
            let pool = build_synthetic_pool(&onto, per_concept, 42);
            PoolRow {
                pool_size: pool.len(),
                indexed_ns: median_ns(11, 2_000, || {
                    std::hint::black_box(pool.instances_of("Identifier", &onto).count());
                }),
                scan_ns: median_ns(11, 500, || {
                    std::hint::black_box(
                        pool.iter()
                            .filter(|inst| {
                                onto.id(&inst.concept)
                                    .is_some_and(|c| onto.subsumes(identifier, c))
                            })
                            .count(),
                    );
                }),
            }
        })
        .collect();

    // --- All-pairs matching across catalog size --------------------------
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let config = GenerationConfig::default();
    let all_ids = universe.available_ids();
    let mut all_pairs_ms_by_catalog = Vec::new();
    for n in [8usize, 16, 32] {
        let ids: Vec<ModuleId> = all_ids
            .iter()
            .step_by((all_ids.len() / n).max(1))
            .take(n)
            .cloned()
            .collect();

        let pair = |(t, c): (usize, usize)| {
            let target = universe.catalog.get(&ids[t]).unwrap();
            (target, universe.catalog.get(&ids[c]).unwrap())
        };
        let (serial_pairs, serial_ms) = timed(|| {
            let mut compared = 0usize;
            for (t, c) in ordered_pairs(ids.len()).map(pair) {
                let _ = compare_modules(t.as_ref(), c.as_ref(), &universe.ontology, &pool, &config);
                compared += 1;
            }
            compared
        });

        let session = MatchSession::new(&universe.ontology, &pool, config.clone());
        let ((), cached_ms) = timed(|| {
            for (target, candidate) in ordered_pairs(ids.len()).map(pair) {
                let _ = session.compare_report(target.as_ref(), candidate.as_ref());
            }
        });

        // The deployment configuration: one worker per hardware thread.
        // Below the crossover (or on a single-core host) the batched
        // executor runs the sweep on the calling thread by design.
        let batch = BatchConfig::with_threads(harness::threads());
        let (matrix, parallel_ms) =
            timed(|| match_pairs_blocked(&universe, &ids, &pool, &config, &batch).reports);
        assert_eq!(matrix.len(), serial_pairs);

        all_pairs_ms_by_catalog.push(AllPairsRow {
            modules: n,
            pairs: serial_pairs,
            serial_uncached_ms: serial_ms,
            cached_serial_ms: cached_ms,
            cached_parallel_ms: parallel_ms,
        });
    }

    bench.finish(|gates| Report {
        profile: harness::profile(),
        subsumes_ns_by_depth,
        instances_of_ns_by_pool_size,
        all_pairs_ms_by_catalog,
        gates,
    });
}
