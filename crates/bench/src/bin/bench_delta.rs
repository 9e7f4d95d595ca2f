//! Emits `BENCH_delta.json`: the incremental-recomputation numbers of
//! ISSUE 7 — delta-driven re-annotation via `IncrementalPipeline` against
//! the cold full-pipeline baseline, at paper scale (252 modules) and at
//! 2.5k / 25k synthetic registry scale.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_delta [--ci] [OUT.json]
//!
//! `--ci` skips the 25k catalog so the smoke step stays within CI budget;
//! the default output path is `BENCH_delta.json` in the working directory.
//!
//! Workloads, applied to one live engine per catalog size:
//! - **single_insert** — one pool instance appended to one concept bucket.
//!   The engine signature-checks the concept's dependent modules; with the
//!   bench's depth-6 pool the append lands beyond every candidate-probe
//!   window, so the signatures *prove* zero cells dirty and the whole
//!   matrix carries forward. This is the gated workload: it may recompute
//!   at most 5% of cells at any size, and at 2.5k apply must beat the cold
//!   run by >= 10x while recomputing < 5% of cells.
//! - **churn_1pct** — ~1% of pool instances removed at occurrence 0 and
//!   replaced with fresh values: bucket heads shift, signatures really
//!   change, dirty modules regenerate (through the warm invocation cache)
//!   and re-match their rows.
//! - **flap_window** — ~1% of modules withdraw (substitutes are captured
//!   from the live matrix) and then restore in a second apply; signatures
//!   are unchanged, so the cost is pure matrix maintenance — dropped rows,
//!   then recomputed bucket rows/columns.
//!
//! The cold baseline (`cold_full_ms`) is what a delta-less pipeline redoes
//! per change: full fleet generation plus the blocked matching summary over
//! the current state. At 252 modules the bench also replays the final
//! engine state through the cold dense path and asserts the maintained
//! matrix is byte-identical — the proptest contract, re-checked at bench
//! scale.

use dex_bench::amplified_universe;
use dex_bench::harness::{self, measure, timed, Bench, Op};
use dex_core::delta::{Delta, DeltaReport};
use dex_core::GenerationConfig;
use dex_experiments::parallel::{generate_fleet, match_pairs_blocked, match_pairs_blocked_summary};
use dex_experiments::{BatchConfig, IncrementalPipeline};
use dex_modules::Retrier;
use dex_pool::{build_synthetic_pool, AnnotatedInstance};
use dex_values::Value;
use serde::Serialize;

/// Pool depth for the delta bench: deep enough that appending an instance
/// to a bucket's tail sits beyond the generator's candidate-probe window
/// (base pick + 3 retry skips), which is exactly the case the signature
/// check is supposed to prove clean.
const POOL_DEPTH: usize = 6;

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    threads: usize,
    pool_depth: usize,
    delta_by_catalog: Vec<CatalogRow>,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct CatalogRow {
    modules: usize,
    bootstrap_ms: f64,
    cold_full_ms: f64,
    workloads: Vec<WorkloadRow>,
}

#[derive(Serialize)]
struct WorkloadRow {
    workload: &'static str,
    apply_ms: f64,
    speedup_vs_cold: f64,
    events: usize,
    dirty_candidates: usize,
    regenerated_modules: usize,
    cells_total: usize,
    cells_dirty: usize,
    dirty_cell_ratio: f64,
    examples_changed: usize,
    fingerprints_changed: usize,
    recomputed_pairs: usize,
    carried_forward: usize,
    dropped_pairs: usize,
}

impl WorkloadRow {
    fn new(workload: &'static str, apply_ms: f64, cold_ms: f64, r: &DeltaReport) -> WorkloadRow {
        WorkloadRow {
            workload,
            apply_ms,
            speedup_vs_cold: cold_ms / apply_ms.max(1e-9),
            events: r.events,
            dirty_candidates: r.dirty_candidates,
            regenerated_modules: r.regenerated_modules,
            cells_total: r.cells_total,
            cells_dirty: r.cells_dirty,
            dirty_cell_ratio: r.dirty_cell_ratio(),
            examples_changed: r.examples_changed,
            fingerprints_changed: r.fingerprints_changed,
            recomputed_pairs: r.recomputed_pairs,
            carried_forward: r.carried_forward,
            dropped_pairs: r.dropped_pairs,
        }
    }
}

fn main() {
    let mut bench = Bench::from_env("bench_delta", &["--ci"]);
    let threads = harness::threads();
    let config = GenerationConfig::default();
    let batch = BatchConfig::with_threads(threads);
    let sizes: &[usize] = if bench.ci() {
        &[252, 2_500]
    } else {
        &[252, 2_500, 25_000]
    };

    let mut rows = Vec::new();
    for &n in sizes {
        let universe = if n == 252 {
            dex_universe::build()
        } else {
            amplified_universe(n)
        };
        let pool = build_synthetic_pool(&universe.ontology, POOL_DEPTH, 42);
        let ids = universe.available_ids();
        assert_eq!(ids.len(), n);

        // Cold full-run baseline over the same state: fleet generation plus
        // the blocked matching summary. Two reps at small sizes (min), one
        // at 25k.
        let reps = if n <= 2_500 { 2 } else { 1 };
        let (cold, (fleet, summary)) = measure(reps, 1, || {
            let retrier = Retrier::new(config.retry);
            let fleet = generate_fleet(&universe, &pool, &config, threads, &retrier, true);
            let summary = match_pairs_blocked_summary(&universe, &ids, &pool, &config, &batch);
            (fleet, summary)
        });
        let cold_full_ms = cold.min();
        assert!(!fleet.reports.is_empty());
        assert!(summary.stats.pairs_total > 0);
        drop(fleet);

        let (mut engine, bootstrap_ms) =
            timed(|| IncrementalPipeline::bootstrap(universe, pool, config.clone()));

        let concepts: Vec<String> = engine
            .pool()
            .covered_concepts()
            .into_iter()
            .map(str::to_string)
            .collect();

        // --- single_insert ------------------------------------------------
        let deltas = [Delta::PoolInsert {
            instance: AnnotatedInstance::synthetic(Value::text("GATTACA-delta-0"), "DNASequence"),
        }];
        let (single, single_ms) = timed(|| engine.apply(&deltas));

        // --- churn_1pct ---------------------------------------------------
        let churn = (engine.pool().len() / 100).max(1);
        let mut deltas = Vec::with_capacity(churn * 2);
        for k in 0..churn {
            let concept = concepts[k % concepts.len()].clone();
            deltas.push(Delta::PoolRemove {
                concept: concept.clone(),
                occurrence: 0,
            });
            deltas.push(Delta::PoolInsert {
                instance: AnnotatedInstance::synthetic(
                    Value::text(format!("CHURN-{k:04}")),
                    concept,
                ),
            });
        }
        let (churn_report, churn_ms) = timed(|| engine.apply(&deltas));

        // --- flap_window --------------------------------------------------
        let flapping: Vec<_> = engine
            .tracked_ids()
            .iter()
            .step_by((n / (n / 100).max(1)).max(1))
            .take((n / 100).max(1))
            .cloned()
            .collect();
        let withdraw: Vec<Delta> = flapping
            .iter()
            .map(|id| Delta::ModuleWithdraw { id: id.clone() })
            .collect();
        let restore: Vec<Delta> = flapping
            .iter()
            .map(|id| Delta::ModuleRestore { id: id.clone() })
            .collect();
        let ((down, up), flap_ms) = timed(|| (engine.apply(&withdraw), engine.apply(&restore)));
        let flap_report = DeltaReport {
            events: down.events + up.events,
            dirty_candidates: down.dirty_candidates + up.dirty_candidates,
            regenerated_modules: down.regenerated_modules + up.regenerated_modules,
            cells_total: up.cells_total,
            cells_dirty: down.cells_dirty + up.cells_dirty,
            examples_changed: down.examples_changed + up.examples_changed,
            fingerprints_changed: down.fingerprints_changed + up.fingerprints_changed,
            recomputed_pairs: down.recomputed_pairs + up.recomputed_pairs,
            carried_forward: up.carried_forward,
            dropped_pairs: down.dropped_pairs + up.dropped_pairs,
        };

        // A single pool insert recomputes at most 5% of cells at every
        // size; at 2.5k, the acceptance scale, strictly under 5% and at
        // least 10x faster than the cold run.
        bench.gate(
            format!("single_insert.dirty_cell_ratio@{n}"),
            if n == 2_500 { Op::Lt } else { Op::Le },
            0.05,
            single.dirty_cell_ratio(),
        );
        if n == 2_500 {
            bench.gate(
                "single_insert.speedup_vs_cold@2500",
                Op::Ge,
                10.0,
                cold_full_ms / single_ms.max(1e-9),
            );
        }

        // Equivalence tie-back at paper scale: the maintained matrix equals
        // a cold dense run over the engine's final state.
        if n == 252 {
            let ids = engine.universe().available_ids();
            let cold = match_pairs_blocked(engine.universe(), &ids, engine.pool(), &config, &batch);
            assert_eq!(
                engine.matrix(),
                cold.reports,
                "incremental matrix diverged from cold run at {n}"
            );
        }

        rows.push(CatalogRow {
            modules: n,
            bootstrap_ms,
            cold_full_ms,
            workloads: vec![
                WorkloadRow::new("single_insert", single_ms, cold_full_ms, &single),
                WorkloadRow::new("churn_1pct", churn_ms, cold_full_ms, &churn_report),
                WorkloadRow::new("flap_window", flap_ms, cold_full_ms, &flap_report),
            ],
        });
    }

    bench.finish(|gates| Report {
        profile: harness::profile(),
        threads,
        pool_depth: POOL_DEPTH,
        delta_by_catalog: rows,
        gates,
    });
}
