//! The `annotate_repair` workload: the paper's batch pipeline at 50k
//! modules, in this process, through the `ContinuousState` public API.
//!
//! A run first takes [`COLD_SAMPLES`] cold samples of set-up and bootstrap,
//! each in a fresh process (see `cold`). It then prepares the state (world,
//! pool and repository build, `IncrementalPipeline::bootstrap`, streaming
//! harvest) and repeats a cycle until two fifths of the window have passed: one
//! seeded `decay_wave` (withdraw 10% of the modules and repair every broken
//! workflow), then a wave that restores exactly the withdrawn modules, so
//! every cycle starts from a full registry. The prepared run is then
//! replayed on the same seed for the same number of cycles, and both runs
//! must accept the same substitutions.

use crate::cold;
use crate::layers::Inherited;
use crate::report::Report;
use crate::stats::{calm, calm_median, median, peak_rss_mb, quantile, StealMeter, Summary};
use crate::trace::SpanBuf;
use dex_core::delta::Delta;
use dex_experiments::{ContinuousConfig, ContinuousState, WaveReport};
use dex_modules::ModuleId;
use dex_telemetry::HistogramSnapshot;
use std::time::{Duration, Instant};

/// Modules in the batch world.
pub const SCALE: usize = 50_000;
/// Fresh-process samples of set-up and bootstrap per run.
pub const COLD_SAMPLES: usize = 8;

/// One prepared state driven through its cycles.
struct Pass {
    bootstrap_ms: f64,
    harvest_ms: f64,
    harvest_instances: usize,
    decay_ms: Vec<f64>,
    decay_steal: Vec<f64>,
    restore_ms: Vec<f64>,
    /// Accepted substitutions per wave, in order.
    substitutions: Vec<usize>,
    latency: Option<HistogramSnapshot>,
    regenerated_in_restores: usize,
}

/// Runs one prepared state: cycles until `window` has passed, or exactly
/// `cycles` of them when given. Spans are recorded around the prepare and
/// around the waves of every second cycle (the 2nd, 4th, …).
fn pass(
    cfg: &ContinuousConfig,
    window: Duration,
    cycles: Option<usize>,
    spans: &mut SpanBuf,
    report: &mut Report,
) -> Pass {
    let root = spans.root("batch.prepare");
    let mut state = ContinuousState::prepare(cfg);
    spans.close(root);
    let prep = state.prepare_stats().clone();
    let ids: Vec<ModuleId> = state.pipeline().tracked_ids().to_vec();
    let mut out = Pass {
        bootstrap_ms: prep.bootstrap_ms,
        harvest_ms: prep.harvest_ms,
        harvest_instances: prep.harvested_instances,
        decay_ms: Vec::new(),
        decay_steal: Vec::new(),
        restore_ms: Vec::new(),
        substitutions: Vec::new(),
        latency: None,
        regenerated_in_restores: 0,
    };
    let end = Instant::now() + window;
    let mut cycle = 0usize;
    loop {
        let more = match cycles {
            Some(n) => cycle < n,
            None => Instant::now() < end || cycle == 0,
        };
        if !more {
            break;
        }
        cycle += 1;
        let traced = cycle.is_multiple_of(2);

        let root = traced.then(|| spans.root("batch.decay_wave"));
        let meter = StealMeter::start();
        let t = Instant::now();
        let wave = state.decay_wave().cloned();
        out.decay_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.decay_steal.push(meter.share());
        if let Some(root) = root {
            spans.close(root);
        }
        let Some(wave) = wave else {
            report.check(false, || "decay_wave found nothing to withdraw".to_string());
            break;
        };
        check_wave(&wave, report);
        report.check(wave.delta.regenerated_modules == 0, || {
            format!(
                "withdraw-only wave {} regenerated {} modules",
                wave.wave, wave.delta.regenerated_modules
            )
        });
        out.substitutions.push(wave.substitutions);

        let catalog = &state.pipeline().universe().catalog;
        let restore: Vec<Delta> = ids
            .iter()
            .filter(|id| !catalog.is_available(id))
            .map(|id| Delta::ModuleRestore { id: id.clone() })
            .collect();
        report.check(restore.len() == wave.withdrawals, || {
            format!(
                "wave {} withdrew {} modules but {} are down",
                wave.wave,
                wave.withdrawals,
                restore.len()
            )
        });
        let root = traced.then(|| spans.root("batch.restore_wave"));
        let t = Instant::now();
        let back = state.apply_wave(restore).clone();
        out.restore_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Some(root) = root {
            spans.close(root);
        }
        check_wave(&back, report);
        out.regenerated_in_restores += back.delta.regenerated_modules;
        out.substitutions.push(back.substitutions);
    }
    out.latency = Some(state.finish().latency_overall);
    out
}

/// Every repair attempt of a wave ends full, partial or unrepaired.
fn check_wave(w: &WaveReport, report: &mut Report) {
    let accounted = w.fully_repaired + w.partially_repaired + w.unrepaired;
    report.check(accounted == w.affected_workflows, || {
        format!(
            "wave {}: {} affected workflows but {accounted} outcomes",
            w.wave, w.affected_workflows
        )
    });
}

/// Runs `annotate_repair`. `spans` records the first replay only.
///
/// Returns the repair and harvest figures the layer report takes from this
/// run, and the tracing overhead on decay waves (%): the replay's time over
/// the first run's time for the same wave, traced against untraced cycles.
pub fn run(seed: u64, seconds: f64, spans: &mut SpanBuf, report: &mut Report) -> (Inherited, f64) {
    let cfg = ContinuousConfig::at_scale(SCALE, 0, seed);
    report.note(format!(
        "  world: {} modules, {} workflows, {}% withdrawn per decay wave, seed {seed}",
        cfg.scale, cfg.workflows, cfg.fault_pct
    ));

    // Set-up and bootstrap, each sample in a fresh process.
    let mut setups = Vec::new();
    let mut rates = Vec::new();
    for _ in 0..COLD_SAMPLES {
        let root = spans.root("batch.cold_sample");
        let sample = cold::sample(cfg.scale, seed, cfg.workflows);
        spans.close(root);
        match sample {
            Ok(c) => {
                setups.push((c.setup_s, c.steal));
                rates.push((c.modules as f64 / c.bootstrap_s, c.steal));
            }
            Err(e) => report.check(false, || e),
        }
    }

    // The first run cycles for two fifths of the window; the replay runs
    // the same cycles, so every wave is measured twice.
    let mut untraced = SpanBuf::new(false, 0, Instant::now());
    let first = pass(
        &cfg,
        Duration::from_secs_f64(seconds * 0.4),
        None,
        &mut untraced,
        report,
    );
    let cycles = first.decay_ms.len();
    let second = pass(&cfg, Duration::ZERO, Some(cycles), spans, report);
    report.check(first.substitutions == second.substitutions, || {
        format!(
            "substitutions differ between two runs on seed {seed}: {:?} vs {:?}",
            first.substitutions, second.substitutions
        )
    });
    let passes = [&first, &second];

    // Gated figures come from the calm samples (see `stats::calm`).
    let setup_s = calm_median(&setups);
    let rate = calm_median(&rates);
    let decay_all: Vec<(f64, f64)> = passes
        .iter()
        .flat_map(|p| {
            p.decay_ms
                .iter()
                .copied()
                .zip(p.decay_steal.iter().copied())
        })
        .collect();
    let mut decay_calm = calm(&decay_all);
    decay_calm.sort_by(f64::total_cmp);
    let decay = Summary::of(&decay_all.iter().map(|x| x.0).collect::<Vec<_>>());
    let restore = Summary::of(
        &passes
            .iter()
            .flat_map(|p| p.restore_ms.iter().copied())
            .collect::<Vec<_>>(),
    );
    let rss = peak_rss_mb(None).unwrap_or(f64::NAN);
    let subs: usize = first.substitutions.iter().sum();
    let latency = first.latency.clone().expect("pass finished");

    report.note("  -- end to end (tracing off)");
    report.info("annotate_modules_per_s", rate, "modules/s");
    report.info("decay_wave_ms", decay.p50, "ms");
    report.note(format!("  {:<34} {}", "decay wave", decay.describe("ms")));
    report.note(format!(
        "  {:<34} {}",
        "restore wave",
        restore.describe("ms")
    ));
    report.note(format!(
        "  {:<34} p50 {:.3} us | p99 {:.3} us (n={}, bucketed)",
        "repair per workflow",
        latency.p50_ns as f64 / 1e3,
        latency.p99_ns as f64 / 1e3,
        latency.count
    ));
    report.note(format!(
        "  {cycles} cycles x 2 runs; bootstrap ms in the prepared runs {}; {subs} substitutions, equal in both runs: {}; {} regenerations in restore waves",
        passes.iter().map(|p| format!("{:.0}", p.bootstrap_ms)).collect::<Vec<_>>().join(" / "),
        passes.iter().all(|p| p.substitutions == first.substitutions),
        first.regenerated_in_restores
    ));
    report.note(format!(
        "  cold set-up samples, s (host steal %): {}",
        setups
            .iter()
            .map(|(s, st)| format!("{s:.3} ({:.0})", st * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    report.note("  -- gated metrics");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    report.metric("throughput_per_s", rate, "1/s");
    report.metric("p50_ms", quantile(&decay_calm, 0.5), "ms");
    report.metric("tail_ms", quantile(&decay_calm, 0.9), "ms");
    report.note(format!(
        "  ({} of {} decay waves calm; gated p50 and p90 over those)",
        decay_calm.len(),
        decay_all.len()
    ));

    let inherited = Inherited {
        harvest_ms: first.harvest_ms,
        harvest_instances: first.harvest_instances as f64,
        repair_p50_us: latency.p50_ns as f64 / 1e3,
        repair_p99_us: latency.p99_ns as f64 / 1e3,
        substitutions: subs as f64,
    };
    (
        inherited,
        replay_overhead_pct(&first.decay_ms, &second.decay_ms),
    )
}

/// Median replay/first ratio of traced cycles over that of untraced
/// cycles, as a percentage above 1. Cycle `k` (1-based) is traced when
/// `k` is even; the replay runs the same waves, so the ratio cancels the
/// differences between waves.
fn replay_overhead_pct(first: &[f64], replay: &[f64]) -> f64 {
    let ratio = |traced: bool| {
        let r: Vec<f64> = first
            .iter()
            .zip(replay)
            .enumerate()
            .filter(|(k, _)| ((k + 1) % 2 == 0) == traced)
            .map(|(_, (a, b))| b / a)
            .collect();
        median(&r)
    };
    (ratio(true) / ratio(false) - 1.0) * 100.0
}
