//! Emits `BENCH_repair.json`: the continuous decay-and-repair numbers of
//! ISSUE 9 — scaled universes decay wave by wave through the incremental
//! delta pipeline while the repair engine substitutes matched modules into
//! every workflow each wave breaks.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_repair [--ci] [OUT.json]
//!
//! `--ci` runs only the 10k scale so the smoke step stays within CI budget;
//! the default output path is `BENCH_repair.json` in the working directory.
//!
//! Each scale runs [`dex_experiments::run_continuous`]: build a heavy-tailed
//! `build_scaled` universe, bootstrap the `IncrementalPipeline`, stream the
//! pre-decay provenance harvest through a `HarvestSink`, then withdraw 10%
//! of the surviving modules per wave (3 waves) as `Delta::ModuleWithdraw`
//! batches and repair every currently broken workflow — the wave's own
//! victims plus the carried-forward broken set from earlier waves (so
//! `re_repaired` tracks recoveries the old per-wave driver missed).
//! Reported per wave: throughput (repairs/s) and p50/p95/p99 per-workflow
//! repair latency from the telemetry histogram buckets.
//!
//! SLO gates, checked at every scale:
//! - every wave must report **zero** cold regenerations (the withdraw-only
//!   contract of the incremental engine — decay never re-runs modules);
//! - per-wave repair throughput must stay >= 500 repairs/s;
//! - overall p99 per-workflow repair latency must stay <= 50 ms;
//! - every affected workflow must be accounted full/partial/unrepaired.

use dex_bench::harness::{self, timed, Bench, Op};
use dex_experiments::{run_continuous, ContinuousConfig};
use serde::Serialize;

/// Decay waves per scale.
const WAVES: usize = 3;
/// Percentage of surviving modules withdrawn per wave.
const FAULT_PCT: u32 = 10;
/// Gate floor: per-wave repair throughput (repairs/s).
const MIN_REPAIRS_PER_SEC: f64 = 500.0;
/// Gate ceiling: overall p99 per-workflow repair latency (ms).
const MAX_P99_MS: f64 = 50.0;

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    threads: usize,
    waves: usize,
    fault_pct: u32,
    repair_by_scale: Vec<ScaleRow>,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct ScaleRow {
    modules: usize,
    families: usize,
    concepts: usize,
    workflows: usize,
    build_ms: f64,
    bootstrap_ms: f64,
    harvest_ms: f64,
    harvested_instances: usize,
    total_ms: f64,
    total_substitutions: usize,
    total_re_repaired: usize,
    min_repairs_per_sec: f64,
    overall_p50_ms: f64,
    overall_p95_ms: f64,
    overall_p99_ms: f64,
    waves: Vec<WaveRow>,
}

#[derive(Serialize)]
struct WaveRow {
    wave: usize,
    withdrawals: usize,
    affected_workflows: usize,
    carried_broken: usize,
    re_repaired: usize,
    fully_repaired: usize,
    partially_repaired: usize,
    unrepaired: usize,
    substitutions: usize,
    broken_after: usize,
    regenerated_modules: usize,
    repair_ms: f64,
    repairs_per_sec: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn main() {
    let mut bench = Bench::from_env("bench_repair", &["--ci"]);
    let sizes: &[usize] = if bench.ci() {
        &[10_000]
    } else {
        &[10_000, 50_000, 100_000]
    };

    let mut rows = Vec::new();
    for &n in sizes {
        let cfg = ContinuousConfig::at_scale(n, WAVES, 42);
        let (report, total_ms) = timed(|| run_continuous(&cfg));

        let mut waves = Vec::new();
        for w in &report.waves {
            let at = format!("@{n}.wave{}", w.wave);
            // Withdraw-only decay must never trigger a cold re-run; the
            // driver asserts this too, but the gate keeps the guarantee
            // visible in the artifact.
            let regenerated = w.delta.regenerated_modules as f64;
            bench.gate(format!("regenerated_modules{at}"), Op::Eq, 0.0, regenerated);
            let (affected, accounted) = (
                w.affected_workflows as f64,
                (w.fully_repaired + w.partially_repaired + w.unrepaired) as f64,
            );
            let metric = format!("full+partial+none{at} vs affected");
            bench.gate(metric, Op::Eq, affected, accounted);
            let rate = w.repairs_per_sec;
            bench.gate(
                format!("repairs_per_sec{at}"),
                Op::Ge,
                MIN_REPAIRS_PER_SEC,
                rate,
            );
            waves.push(WaveRow {
                wave: w.wave,
                withdrawals: w.withdrawals,
                affected_workflows: w.affected_workflows,
                carried_broken: w.carried_broken,
                re_repaired: w.re_repaired,
                fully_repaired: w.fully_repaired,
                partially_repaired: w.partially_repaired,
                unrepaired: w.unrepaired,
                substitutions: w.substitutions,
                broken_after: w.broken_after,
                regenerated_modules: w.delta.regenerated_modules,
                repair_ms: w.repair_ms,
                repairs_per_sec: w.repairs_per_sec,
                p50_ms: ns_to_ms(w.latency.p50_ns),
                p95_ms: ns_to_ms(w.latency.p95_ns),
                p99_ms: ns_to_ms(w.latency.p99_ns),
            });
        }
        let overall_p99_ms = ns_to_ms(report.latency_overall.p99_ns);
        bench.gate(
            format!("overall_p99_ms@{n}"),
            Op::Le,
            MAX_P99_MS,
            overall_p99_ms,
        );

        let p = &report.prepare;
        rows.push(ScaleRow {
            modules: n,
            families: p.families,
            concepts: p.concepts,
            workflows: p.workflows,
            build_ms: p.build_ms,
            bootstrap_ms: p.bootstrap_ms,
            harvest_ms: p.harvest_ms,
            harvested_instances: p.harvested_instances,
            total_ms,
            total_substitutions: report.total_substitutions(),
            total_re_repaired: report.total_re_repaired(),
            min_repairs_per_sec: report.min_repairs_per_sec(),
            overall_p50_ms: ns_to_ms(report.latency_overall.p50_ns),
            overall_p95_ms: ns_to_ms(report.latency_overall.p95_ns),
            overall_p99_ms,
            waves,
        });
    }

    bench.finish(|gates| Report {
        profile: harness::profile(),
        threads: harness::threads(),
        waves: WAVES,
        fault_pct: FAULT_PCT,
        repair_by_scale: rows,
        gates,
    });
}
