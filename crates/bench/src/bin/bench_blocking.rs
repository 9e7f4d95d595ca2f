//! Emits `BENCH_blocking.json`: the fingerprint-blocking + batched-executor
//! numbers of ISSUE 6 — all-pairs vs blocked matching, serial vs
//! batched-parallel vs the per-pair channel executor it replaced, and the
//! pair-pruning ratio — at paper scale (252 modules, the catalog size of
//! Belhajjame et al.'s EDBT 2014 evaluation) and at 2.5k / 25k synthetic
//! registry scale.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_blocking [--ci] [OUT.json]
//!
//! `--ci` skips the 25k catalog and shortens the crossover sweep so the
//! smoke step stays within CI budget; the default output path is
//! `BENCH_blocking.json` in the working directory.
//!
//! Methodology (DESIGN.md §12):
//! - Every timed configuration gets a warm-up run first, and serial/batched
//!   runs alternate A/B with the minimum reported — mass allocation in one
//!   run otherwise bleeds into the next run's wall clock through the
//!   allocator, which on this workload can inflate a timing by 10x.
//! - The all-pairs baseline tallies verdicts without materializing the
//!   dense matrix (at 2.5k that matrix holds 6.25M reports, and building
//!   then dropping it poisons every timing that follows). Its tallies must
//!   equal the blocked summary's — the bench doubles as an equivalence
//!   check at a scale the proptest suite cannot afford.
//! - `perpair_parallel_ms` reproduces the executor this PR replaced:
//!   per-pair atomic claiming, one mpsc send per report, dense collection.
//!   That is the `cached_parallel` that *lost* to `cached_serial` at every
//!   catalog size in the pre-PR BENCH_matching.json.
//! - `blocked_serial_ms` times the *unprepared* summary path forced onto
//!   one thread — the executor as it shipped before the prepared rework:
//!   two catalog lookups and a session memo-lock acquisition (with a
//!   `ModuleId` key clone) on every pair. `blocked_parallel_ms` times the
//!   prepared executor at the host's thread count: handles resolved once
//!   per id, each target's report parked in a lock-free cell, workers
//!   running only the candidate replay. The columns measure *different
//!   code* by construction (the `serial_path`/`parallel_path` fields say
//!   which), so `parallel_speedup` is a real end-to-end win even on a
//!   single-core host — lock/hash/clone traffic removed from the hot loop —
//!   and on multi-core hosts additionally reflects thread fan-out, which
//!   the old global-memo-lock path serialized away (the
//!   `blocked_parallel_ms == blocked_serial_ms` collapse this PR fixes).
//!   At 25k the bench gates `parallel_speedup >= 1.0`.
//!
//! The synthetic registries amplify the shipped 252-module universe: one
//! base module per fingerprint bucket (up to 64 distinct interface shapes)
//! is cloned under fresh ids, and every third clone's text outputs are
//! perturbed so same-shape pairs split across equivalent / overlapping /
//! disjoint verdicts instead of collapsing into one class.

use dex_bench::harness::{self, interleave, measure, timed, Bench, Op};
use dex_bench::{amplified_universe, ordered_pairs};
use dex_core::{FingerprintIndex, GenerationConfig, MatchReport, MatchSession};
use dex_experiments::parallel::{
    match_pairs_blocked, match_pairs_blocked_summary, match_pairs_blocked_summary_unprepared,
    match_pairs_exhaustive, verdict_slot,
};
use dex_experiments::BatchConfig;
use dex_modules::ModuleId;
use dex_pool::{build_synthetic_pool, InstancePool};
use dex_universe::Universe;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Measured cost of standing up and tearing down `workers` scoped threads —
/// the fixed overhead the batched executor pays before any pair is matched.
/// Minimum over many reps: spawn cost has a heavy scheduling tail, and the
/// crossover model wants the floor, not the tail.
fn spawn_overhead_ms(workers: usize) -> f64 {
    let (samples, ()) = measure(200, 1, || {
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| std::hint::black_box(0u64));
            }
        })
    });
    samples.min()
}

/// The exhaustive all-pairs baseline, tallying verdicts without
/// materializing the dense matrix: every ordered pair runs the full
/// comparison serially through one shared session, no blocking.
fn allpairs_tally(
    universe: &Universe,
    ids: &[ModuleId],
    pool: &InstancePool,
    config: &GenerationConfig,
) -> [usize; 4] {
    let session = MatchSession::new(&universe.ontology, pool, config.clone());
    let mut tally = [0usize; 4];
    for (t, c) in ordered_pairs(ids.len()) {
        let target = universe.catalog.get(&ids[t]).expect("available");
        let candidate = universe.catalog.get(&ids[c]).expect("available");
        let report = session.compare_report(target.as_ref(), candidate.as_ref());
        tally[verdict_slot(&report.outcome)] += 1;
    }
    tally
}

/// The executor this PR replaced, reproduced faithfully for comparison:
/// workers claim ONE pair per atomic fetch and ship every report over an
/// mpsc channel to a dense `BTreeMap` collector. Run over the same blocked
/// pair list so the difference is pure executor overhead.
fn perpair_channel(
    universe: &Universe,
    ids: &[ModuleId],
    pairs: &[(usize, usize)],
    pool: &InstancePool,
    config: &GenerationConfig,
    threads: usize,
) -> BTreeMap<(ModuleId, ModuleId), MatchReport> {
    let session = MatchSession::new(&universe.ontology, pool, config.clone());
    let cursor = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<((ModuleId, ModuleId), MatchReport)>();
    std::thread::scope(|scope| {
        for _ in 0..threads.max(1) {
            let tx = tx.clone();
            let session = &session;
            let cursor = &cursor;
            scope.spawn(move || loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= pairs.len() {
                    break;
                }
                let (t, c) = pairs[i];
                let key = (ids[t].clone(), ids[c].clone());
                let target = universe.catalog.get(&ids[t]).expect("available");
                let candidate = universe.catalog.get(&ids[c]).expect("available");
                let report = session.compare_report(target.as_ref(), candidate.as_ref());
                tx.send((key, report)).expect("collector alive");
            });
        }
        drop(tx);
        rx.into_iter().collect()
    })
}

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    threads: usize,
    blocked_matching_by_catalog: Vec<CatalogRow>,
    crossover_threads: usize,
    crossover: Vec<CrossoverRow>,
    spawn_overhead_ms: f64,
    measured_crossover_pairs: Option<usize>,
    crossover_basis: &'static str,
    serial_cutoff_pairs: usize,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct CatalogRow {
    modules: usize,
    pairs_total: usize,
    pairs_compared: usize,
    pairs_pruned: usize,
    prune_ratio: f64,
    buckets: usize,
    largest_bucket: usize,
    allpairs_serial_ms: Option<f64>,
    blocked_serial_ms: f64,
    serial_path: &'static str,
    blocked_parallel_ms: f64,
    parallel_path: String,
    perpair_parallel_ms: Option<f64>,
    parallel_speedup: f64,
    batched_vs_perpair_speedup: Option<f64>,
    verdicts: Verdicts,
}

#[derive(Serialize)]
struct Verdicts {
    equivalent: usize,
    overlapping: usize,
    disjoint: usize,
    incomparable: usize,
}

#[derive(Serialize)]
struct CrossoverRow {
    modules: usize,
    pairs_compared: usize,
    serial_ms: f64,
    batched_ms: f64,
}

fn main() {
    let mut bench = Bench::from_env("bench_blocking", &["--ci"]);
    let ci = bench.ci();
    let threads = harness::threads();
    // The crossover sweep's whole point is exercising the spawn path, so it
    // forces at least two workers even on a single-core host.
    let crossover_threads = threads.max(2);

    // --- Catalog-scale sweep ---------------------------------------------
    // 252 = the paper's catalog (natural shape diversity); 2.5k and 25k =
    // amplified registries. The all-pairs baseline and the per-pair
    // executor column are only feasible through 2.5k (6.25M mapping
    // attempts / 95k channel sends); at 25k (625M ordered pairs) only the
    // blocked summary paths run, which is rather the point of this PR.
    let config = GenerationConfig::default();
    let sizes: &[usize] = if ci {
        &[252, 2_500]
    } else {
        &[252, 2_500, 25_000]
    };
    let mut catalog_rows = Vec::new();
    for &n in sizes {
        let universe = if n == 252 {
            dex_universe::build()
        } else {
            amplified_universe(n)
        };
        let pool = build_synthetic_pool(&universe.ontology, 3, 42);
        let ids = universe.available_ids();
        assert_eq!(ids.len(), n);
        let index = FingerprintIndex::build(
            ids.iter()
                .map(|id| universe.catalog.get(id).map(|m| m.descriptor())),
            &universe.ontology,
        );
        let pairs = index.comparable_pairs();

        let serial = BatchConfig {
            threads: 1,
            serial_cutoff: BatchConfig::SERIAL_CUTOFF_PAIRS,
            chunk: BatchConfig::CHUNK_PAIRS,
        };
        let batched = BatchConfig::with_threads(threads);

        // Warm-up, then alternate the unprepared-serial baseline and the
        // prepared batched executor, keeping each one's minimum.
        let warm = match_pairs_blocked_summary(&universe, &ids, &pool, &config, &serial);
        let mut summary = warm;
        let rounds = if n <= 2_500 { 3 } else { 2 };
        let mut unprepared_serial = || {
            let s =
                match_pairs_blocked_summary_unprepared(&universe, &ids, &pool, &config, &serial);
            assert_eq!(warm.tallies(), s.tallies(), "serial sweep unstable at {n}");
        };
        let mut prepared_batched = || {
            summary = match_pairs_blocked_summary(&universe, &ids, &pool, &config, &batched);
            assert_eq!(
                warm.tallies(),
                summary.tallies(),
                "serial and batched disagree at {n}"
            );
        };
        let [serial_samples, batched_samples] = interleave(
            rounds,
            1,
            true,
            [&mut unprepared_serial, &mut prepared_batched],
        );
        let (blocked_serial_ms, blocked_parallel_ms) =
            (serial_samples.min(), batched_samples.min());

        // The replaced executor, over the same compared pairs.
        let perpair_parallel_ms = (n <= 2_500).then(|| {
            let run = || perpair_channel(&universe, &ids, &pairs, &pool, &config, threads);
            run(); // warm-up
            let (samples, dense) = measure(2, 1, run);
            assert_eq!(dense.len(), pairs.len());
            samples.min()
        });

        // The all-pairs baseline, last in the row so its long serial sweep
        // cannot bleed into the executor timings. Its verdict tally must
        // agree with the blocked summary exactly.
        let allpairs_serial_ms = (n <= 2_500).then(|| {
            let (tally, elapsed) = timed(|| allpairs_tally(&universe, &ids, &pool, &config));
            assert_eq!(
                (tally[0], tally[1], tally[2], tally[3]),
                summary.tallies(),
                "blocked summary diverged from the exhaustive sweep at {n}"
            );
            elapsed
        });

        let stats = summary.stats;
        // The two columns time *different code paths* by construction —
        // the unprepared pre-rework executor pinned to one thread vs the
        // prepared executor at the host's thread count — so the ratio is a
        // real end-to-end speedup, not pooled-identical-code noise.
        let parallel_speedup = blocked_serial_ms / blocked_parallel_ms.max(1e-9);
        let (compared, parallel) = (stats.pairs_compared as f64, blocked_parallel_ms);
        if n == 2_500 {
            let ratio = compared / stats.pairs_total as f64;
            bench.gate("pairs_compared/pairs_total@2500", Op::Lt, 0.5, ratio);
            let serial = blocked_serial_ms;
            bench.gate(
                "blocked_parallel_ms@2500 vs blocked_serial",
                Op::Lt,
                serial,
                parallel,
            );
        }
        if let Some(perpair) = perpair_parallel_ms {
            let metric = format!("blocked_parallel_ms@{n} vs perpair_parallel");
            bench.gate(metric, Op::Lt, perpair, parallel);
        }
        // The 25k regression pin: the prepared executor must never lose to
        // the unprepared serial baseline at the largest scale.
        if n == 25_000 {
            bench.gate("parallel_speedup@25000", Op::Ge, 1.0, parallel_speedup);
        }
        catalog_rows.push(CatalogRow {
            modules: n,
            pairs_total: stats.pairs_total,
            pairs_compared: stats.pairs_compared,
            pairs_pruned: stats.pairs_pruned,
            prune_ratio: stats.prune_ratio(),
            buckets: stats.buckets,
            largest_bucket: stats.largest_bucket,
            allpairs_serial_ms,
            blocked_serial_ms,
            serial_path: "unprepared_1_thread",
            blocked_parallel_ms,
            parallel_path: format!("prepared_{threads}_threads"),
            perpair_parallel_ms,
            parallel_speedup,
            batched_vs_perpair_speedup: perpair_parallel_ms
                .map(|v| v / blocked_parallel_ms.max(1e-9)),
            verdicts: Verdicts {
                equivalent: summary.equivalent,
                overlapping: summary.overlapping,
                disjoint: summary.disjoint,
                incomparable: summary.incomparable,
            },
        });
    }

    // --- Serial/parallel crossover sweep ---------------------------------
    // Slices of the 2.5k registry with growing compared-pair counts, each
    // timed with the executor forced serial and forced batched (at least
    // two workers, so the spawn path actually runs). The smallest
    // compared-pair count where batched wins is the measured crossover
    // behind `BatchConfig::SERIAL_CUTOFF_PAIRS`; on a single-core host no
    // such count exists and the overhead model below stands in.
    let universe = amplified_universe(2_500);
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let all_ids = universe.available_ids();
    // Slices start at 128: the first 64 ids cover each of the 64 shapes
    // exactly once, a degenerate all-singleton-buckets plan with zero
    // compared pairs and nothing to time.
    let slice_sizes: &[usize] = if ci {
        &[128, 384]
    } else {
        &[128, 192, 256, 384, 512, 768]
    };
    let mut crossover_rows = Vec::new();
    let mut crossover_pairs: Option<usize> = None;
    let mut best_perpair: Option<(usize, f64)> = None;
    for &m in slice_sizes {
        let ids: Vec<ModuleId> = all_ids.iter().take(m).cloned().collect();
        let forced_serial = BatchConfig {
            threads: 1,
            serial_cutoff: usize::MAX,
            chunk: BatchConfig::CHUNK_PAIRS,
        };
        let forced_batched = BatchConfig {
            threads: crossover_threads,
            serial_cutoff: 0,
            chunk: BatchConfig::CHUNK_PAIRS,
        };
        // Warm the generation memo out of the timings with a throwaway run,
        // then alternate the executors and keep each one's minimum.
        let sweep = |batch| match_pairs_blocked_summary(&universe, &ids, &pool, &config, batch);
        let warm = sweep(&forced_serial);
        let [serial_samples, batched_samples] = interleave(
            2,
            1,
            true,
            [
                &mut || assert_eq!(warm.tallies(), sweep(&forced_serial).tallies()),
                &mut || assert_eq!(warm.tallies(), sweep(&forced_batched).tallies()),
            ],
        );
        let (serial_ms, batched_ms) = (serial_samples.min(), batched_samples.min());
        let pairs = warm.stats.pairs_compared;
        if pairs > 0 && batched_ms < serial_ms && crossover_pairs.is_none() {
            crossover_pairs = Some(pairs);
        }
        // Warm per-pair cost from the largest sweep row: the denominator of
        // the overhead-model fallback below.
        if pairs > 0 && best_perpair.is_none_or(|(p, _)| pairs > p) {
            best_perpair = Some((pairs, serial_ms / pairs as f64));
        }
        crossover_rows.push(CrossoverRow {
            modules: m,
            pairs_compared: pairs,
            serial_ms,
            batched_ms,
        });
    }

    // --- Crossover derivation ----------------------------------------------
    // `measured_crossover_pairs` is either the first sweep size where
    // batched actually beat serial ("observed"), or — when no such size
    // exists, the unavoidable outcome on a single-core host where extra
    // workers add overhead and no parallelism — a spawn-overhead model
    // ("overhead_model"): batched pays a fixed measured spawn/join cost
    // and, with `w` workers, removes a `1 - 1/w` fraction of the serial
    // work, so it breaks even at
    //   spawn_ms / (per_pair_ms * (1 - 1/w))
    // compared pairs. A crossover neither derivation can compute is null,
    // and null fails the cutoff gate.
    let spawn_ms = spawn_overhead_ms(crossover_threads);
    let (derived_crossover, crossover_basis) = match crossover_pairs {
        Some(observed) => (Some(observed), "observed"),
        None => {
            let workers = crossover_threads as f64;
            let modeled = best_perpair
                .filter(|&(_, t)| t > 0.0)
                .map(|(_, per_pair_ms)| spawn_ms / (per_pair_ms * (1.0 - 1.0 / workers)))
                .filter(|m| m.is_finite());
            (modeled.map(|m| m.ceil() as usize), "overhead_model")
        }
    };
    // Regression pin: the shipped cutoff must sit at or above the derived
    // crossover — a constant below it would fan out in a measured-loss
    // region on this host.
    bench.gate(
        "measured_crossover_pairs vs SERIAL_CUTOFF_PAIRS",
        Op::Le,
        BatchConfig::SERIAL_CUTOFF_PAIRS as f64,
        derived_crossover.map_or(f64::NAN, |c| c as f64),
    );

    // Sanity tie-back to the dense path at paper scale: the matrix agrees
    // with the exhaustive oracle (the proptest suite covers this broadly;
    // this keeps the bench itself honest about what it measures).
    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 3, 42);
    let ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(9).collect();
    let oracle = match_pairs_exhaustive(&universe, &ids, &pool, &config);
    let blocked = match_pairs_blocked(
        &universe,
        &ids,
        &pool,
        &config,
        &BatchConfig::with_threads(threads),
    );
    assert_eq!(oracle, blocked.reports, "dense blocked matrix diverged");

    bench.finish(|gates| Report {
        profile: harness::profile(),
        threads,
        blocked_matching_by_catalog: catalog_rows,
        crossover_threads,
        crossover: crossover_rows,
        spawn_overhead_ms: spawn_ms,
        measured_crossover_pairs: derived_crossover,
        crossover_basis,
        serial_cutoff_pairs: BatchConfig::SERIAL_CUTOFF_PAIRS,
        gates,
    });
}
