//! Emits `BENCH_dexd.json`: the resident-service numbers — what a
//! registry query costs when the operating state is built once and
//! kept warm, versus the batch-pipeline cost of rebuilding everything for
//! a single answer.
//!
//! Usage:
//!   cargo run --release -p dex-bench --bin bench_dexd -- \
//!     [--ci] [--smoke] [--scale N] [--seed N] [--threads N] [--requests N] \
//!     [OUT.json] [--trace-out PATH] [--telemetry[=OUT]]
//!
//! Phases:
//!
//! 1. **Cold baseline** — build the scaled world and pool, bootstrap the
//!    pipeline inside [`Dexd::launch_with`], and answer one
//!    `FindSubstitutes`. The summed wall time is what a batch run pays for
//!    a single query (`cold_single_query_ms`).
//! 2. **Steady state** — client threads drive a mixed workload (60%
//!    substitute lookups, 25% annotations, 10% workflow validations, 5%
//!    stats) through the in-process [`Client`] while the main thread
//!    interleaves `ApplyDelta` waves (withdraw + restore batches) through
//!    the write lock. Per-endpoint p50/p95/p99 come from the merged
//!    per-thread samples; `amortization_ratio` is the cold single-query
//!    cost over the steady-state substitute-lookup p50.
//! 3. **Socket smoke** (`--smoke`) — a second, small service behind
//!    [`serve_unix`]: ~100 mixed requests through [`SocketClient`]
//!    including an `ApplyDelta`, then a `Stats` check (nonzero cache hit
//!    rate, the delta counted) and a clean `Shutdown`. When tracing was
//!    requested, only this phase records spans — the 10k phase would swamp
//!    the trace buffer — so the exported trace is the smoke's.
//!
//! Gates:
//! - release builds, `--ci`, scale >= 10000: the steady-state
//!   `FindSubstitutes` p50 must be at least **100x** faster than the cold
//!   batch-pipeline single query;
//! - `--ci`: the socket smoke must have run;
//! - when the smoke ran: its cache hit rate is nonzero, its `ApplyDelta`
//!   was counted, and the daemon shut down cleanly.

use dex_bench::harness::{self, timed, Bench, Op};
use dex_core::delta::Delta;
use dex_experiments::telemetry::TelemetryRun;
use dex_pool::{build_text_pool, InstancePool};
use dex_repair::{generate_repository, RepositoryPlan};
use dex_universe::scale::{build_scaled, ScalePlan};
use dex_universe::Universe;
use dex_workflow::Workflow;
use dexd::{serve_unix, Client, Dexd, Request, Response, ServiceConfig, SocketClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Gate floor: cold single query over steady-state substitutes p50.
const MIN_AMORTIZATION: f64 = 100.0;
/// `ApplyDelta` waves interleaved with the read workload.
const DELTA_WAVES: usize = 4;
/// Modules withdrawn (then restored) per wave.
const DELTA_BATCH: usize = 8;
/// Unrecorded warm-up lookups before sampling starts.
const WARMUP: usize = 256;

/// Request kinds, as sample labels.
const KIND_SUBSTITUTES: u8 = 0;
const KIND_ANNOTATE: u8 = 1;
const KIND_VALIDATE: u8 = 2;
const KIND_STATS: u8 = 3;
const KIND_DELTA: u8 = 4;
const KIND_NAMES: [&str; 5] = ["substitutes", "annotate", "validate", "stats", "delta"];

/// `healthy` intact workflows over the world: the validate traffic.
fn healthy_workflows(
    universe: &Universe,
    pool: &InstancePool,
    healthy: usize,
    seed: u64,
) -> Vec<Workflow> {
    let plan = RepositoryPlan {
        healthy,
        equivalent_full: 0,
        equivalent_partial: 0,
        overlap_full: 0,
        overlap_partial: 0,
        overlap_odd: 0,
        none_only: 0,
        seed,
    };
    let repo = generate_repository(universe, pool, &plan);
    repo.workflows.into_iter().map(|s| s.workflow).collect()
}

/// A read request of `kind` (not `KIND_DELTA`) on a random module or
/// workflow.
fn read_request(kind: u8, rng: &mut StdRng, ids: &[String], workflows: &[Workflow]) -> Request {
    let id = |rng: &mut StdRng| ids[rng.gen_range(0..ids.len())].clone();
    match kind {
        KIND_SUBSTITUTES => Request::FindSubstitutes { id: id(rng) },
        KIND_ANNOTATE => Request::AnnotateModule { id: id(rng) },
        KIND_VALIDATE => Request::ValidateWorkflow {
            workflow: workflows[rng.gen_range(0..workflows.len())].clone(),
        },
        _ => Request::Stats,
    }
}

/// Nearest-rank percentile `p` of ascending `sorted` samples (0 when empty).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    scale: usize,
    seed: u64,
    client_threads: usize,
    service_workers: usize,
    queue_capacity: usize,
    build_ms: f64,
    bootstrap_ms: f64,
    cold_first_lookup_ms: f64,
    cold_single_query_ms: f64,
    steady_ms: f64,
    amortization_ratio: f64,
    busy_retries: u64,
    endpoints: Vec<EndpointRow>,
    service: ServiceRow,
    smoke: Option<SmokeReport>,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct EndpointRow {
    endpoint: &'static str,
    count: usize,
    p50_us: f64,
    p95_us: f64,
    p99_us: f64,
}

#[derive(Serialize)]
struct ServiceRow {
    requests_served: u64,
    batch_passes: u64,
    coalesced_lookups: u64,
    deltas_applied: u64,
    handler_panics: u64,
    busy_rejections: u64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
}

#[derive(Serialize)]
struct SmokeReport {
    requests: u64,
    cache_hit_rate: f64,
    deltas_applied: u64,
    clean_shutdown: bool,
}

fn main() {
    let mut bench = Bench::from_env(
        "bench_dexd",
        &[
            "--ci",
            "--smoke",
            "--scale=",
            "--seed=",
            "--threads=",
            "--requests=",
            "--telemetry",
            "--telemetry-out=",
            "--trace-out=",
            "--flight-out=",
        ],
    );
    let ci = bench.ci();
    let smoke = bench.has("--smoke");
    let scale = bench.value("--scale", if ci { 10_000 } else { 2_500 });
    let seed = bench.value("--seed", 42u64);
    let threads = bench.value("--threads", 4usize);
    let per_thread = bench.value("--requests", 1_200usize);

    let run = TelemetryRun::from_env();
    // The steady-state phase at CI scale would record hundreds of
    // thousands of spans; keep tracing for the smoke phase only.
    let tracing_requested = dex_telemetry::is_enabled();
    if tracing_requested {
        dex_telemetry::disable();
    }

    // ---- Phase 1: cold baseline. ---------------------------------------
    // What a batch run pays to answer one substitute lookup: build the
    // world, bootstrap the pipeline, ask the question.
    eprintln!("bench_dexd: cold build at scale {scale} (seed {seed})...");
    let cfg = ServiceConfig {
        scale,
        seed,
        queue_capacity: 256,
        ..ServiceConfig::default()
    };
    let ((world, pool), build_ms) = timed(|| {
        let world = build_scaled(&ScalePlan::new(scale, seed));
        let pool = build_text_pool(&world.universe.ontology, cfg.pool_depth, seed);
        (world, pool)
    });
    let anchor = world.families[0].members[0].clone();

    let workflows = Arc::new(healthy_workflows(&world.universe, &pool, 40, seed));

    let ((svc, cold_first_lookup_ms), launch_ms) = timed(|| {
        let svc = Dexd::launch_with(world.universe, pool, &cfg);
        let (resp, first_ms) = timed(|| {
            Client::new(Arc::clone(&svc)).call(Request::FindSubstitutes {
                id: anchor.0.clone(),
            })
        });
        assert!(
            matches!(resp, Response::Substitutes(_)),
            "anchor lookup failed: {resp:?}"
        );
        (svc, first_ms)
    });
    let client = Client::new(Arc::clone(&svc));
    let bootstrap_ms = svc.bootstrap_ms();
    let cold_single_query_ms = build_ms + launch_ms;
    eprintln!(
        "bench_dexd: cold single query {cold_single_query_ms:.0} ms \
         (build {build_ms:.0}, bootstrap {bootstrap_ms:.0})"
    );

    // ---- Phase 2: steady state. ----------------------------------------
    let ids: Arc<Vec<String>> = Arc::new(svc.tracked_ids().into_iter().map(|m| m.0).collect());
    for w in 0..WARMUP {
        client.call(Request::FindSubstitutes {
            id: ids[w % ids.len()].clone(),
        });
    }

    eprintln!(
        "bench_dexd: steady state — {threads} client thread(s) x {per_thread} requests \
         + {DELTA_WAVES} delta waves..."
    );
    // Latency samples: (request kind, microseconds).
    let ((samples, busy_retries), steady_ms) = timed(|| {
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let client = client.clone();
                let ids = Arc::clone(&ids);
                let workflows = Arc::clone(&workflows);
                std::thread::spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((tid as u64 + 1) * 0x9E37_79B9));
                    let mut samples: Vec<(u8, f64)> = Vec::with_capacity(per_thread);
                    let mut busy_retries = 0u64;
                    for _ in 0..per_thread {
                        let kind = match rng.gen_range(0..100u32) {
                            0..60 => KIND_SUBSTITUTES,
                            60..85 => KIND_ANNOTATE,
                            85..95 => KIND_VALIDATE,
                            _ => KIND_STATS,
                        };
                        let req = read_request(kind, &mut rng, &ids, &workflows);
                        let (resp, ms) = timed(|| {
                            let mut resp = client.call(req.clone());
                            while matches!(resp, Response::Busy) {
                                busy_retries += 1;
                                std::thread::yield_now();
                                resp = client.call(req.clone());
                            }
                            resp
                        });
                        assert!(
                            !matches!(resp, Response::Error { .. }),
                            "steady-state request failed: {resp:?}"
                        );
                        samples.push((kind, ms * 1_000.0));
                    }
                    (samples, busy_retries)
                })
            })
            .collect();

        // Interleave write traffic from the main thread: withdraw a batch,
        // restore it, let the readers run between waves.
        let mut samples: Vec<(u8, f64)> = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xD311A);
        for _ in 0..DELTA_WAVES {
            std::thread::sleep(Duration::from_millis(25));
            let victims: Vec<String> = (0..DELTA_BATCH)
                .map(|_| ids[rng.gen_range(0..ids.len())].clone())
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect();
            for mk in [
                |id: &String| Delta::ModuleWithdraw {
                    id: id.as_str().into(),
                },
                |id: &String| Delta::ModuleRestore {
                    id: id.as_str().into(),
                },
            ] {
                let deltas: Vec<Delta> = victims.iter().map(mk).collect();
                let (resp, ms) = timed(|| client.call(Request::ApplyDelta { deltas }));
                assert!(
                    matches!(resp, Response::DeltaApplied(_)),
                    "delta wave failed: {resp:?}"
                );
                samples.push((KIND_DELTA, ms * 1_000.0));
            }
        }

        let mut busy_retries = 0u64;
        for h in handles {
            let (s, b) = h.join().expect("client thread");
            samples.extend(s);
            busy_retries += b;
        }
        (samples, busy_retries)
    });

    let final_stats = match client.call(Request::Stats) {
        Response::Stats(s) => s,
        other => panic!("final stats failed: {other:?}"),
    };
    svc.shutdown();
    svc.join();

    // ---- Percentiles per endpoint. -------------------------------------
    let mut by_kind: Vec<Vec<f64>> = vec![Vec::new(); KIND_NAMES.len()];
    for (kind, us) in &samples {
        by_kind[*kind as usize].push(*us);
    }
    for v in &mut by_kind {
        v.sort_by(f64::total_cmp);
    }
    let sub_p50_us = percentile(&by_kind[KIND_SUBSTITUTES as usize], 0.50);
    let amortization_ratio = if sub_p50_us > 0.0 {
        (cold_single_query_ms * 1000.0) / sub_p50_us
    } else {
        f64::INFINITY
    };
    eprintln!(
        "bench_dexd: substitutes p50 {sub_p50_us:.1} us steady-state — \
         amortization {amortization_ratio:.0}x over cold"
    );

    // ---- Phase 3: socket smoke (traced when tracing was requested). ----
    let smoke_report = smoke.then(|| {
        if tracing_requested {
            dex_telemetry::enable();
        }
        run_smoke(seed ^ 0x5107)
    });

    // ---- Gates. ---------------------------------------------------------
    if ci && harness::profile() == "release" && scale >= 10_000 {
        bench.gate(
            "amortization_ratio",
            Op::Ge,
            MIN_AMORTIZATION,
            amortization_ratio,
        );
    }
    if ci {
        let ran = smoke_report.is_some();
        bench.gate("smoke.ran", Op::Eq, 1.0, f64::from(u8::from(ran)));
    }
    if let Some(s) = &smoke_report {
        bench.gate("smoke.cache_hit_rate", Op::Gt, 0.0, s.cache_hit_rate);
        bench.gate("smoke.deltas_applied", Op::Ge, 1.0, s.deltas_applied as f64);
        let clean = f64::from(u8::from(s.clean_shutdown));
        bench.gate("smoke.clean_shutdown", Op::Eq, 1.0, clean);
    }
    run.finish("bench_dexd");

    bench.finish(|gates| Report {
        profile: harness::profile(),
        scale,
        seed,
        client_threads: threads,
        service_workers: cfg.workers,
        queue_capacity: cfg.queue_capacity,
        build_ms,
        bootstrap_ms,
        cold_first_lookup_ms,
        cold_single_query_ms,
        steady_ms,
        amortization_ratio,
        busy_retries,
        endpoints: KIND_NAMES
            .iter()
            .zip(&by_kind)
            .map(|(&endpoint, v)| EndpointRow {
                endpoint,
                count: v.len(),
                p50_us: percentile(v, 0.50),
                p95_us: percentile(v, 0.95),
                p99_us: percentile(v, 0.99),
            })
            .collect(),
        service: ServiceRow {
            requests_served: final_stats.requests_served,
            batch_passes: final_stats.batch_passes,
            coalesced_lookups: final_stats.coalesced_lookups,
            deltas_applied: final_stats.deltas_applied,
            handler_panics: final_stats.handler_panics,
            busy_rejections: final_stats.busy_rejections,
            cache_hits: final_stats.cache_hits,
            cache_misses: final_stats.cache_misses,
            cache_hit_rate: final_stats.cache_hit_rate,
        },
        smoke: smoke_report,
        gates,
    });
}

/// The socket smoke: a small service behind `serve_unix`, ~100 mixed
/// requests over a real `SocketClient`, one `ApplyDelta`, a `Stats`
/// readout, and a `Shutdown`. Panics on any protocol-level surprise; what
/// the readout and the shutdown must show is gated by the caller.
fn run_smoke(seed: u64) -> SmokeReport {
    eprintln!("bench_dexd: socket smoke...");
    let scale = 300;
    let cfg = ServiceConfig {
        scale,
        seed,
        pool_depth: 3,
        workers: 2,
        queue_capacity: 32,
        ..ServiceConfig::default()
    };
    let world = build_scaled(&ScalePlan::new(scale, seed));
    let pool = build_text_pool(&world.universe.ontology, cfg.pool_depth, seed);
    let workflows = healthy_workflows(&world.universe, &pool, 6, seed);
    let svc = Dexd::launch_with(world.universe, pool, &cfg);
    let ids: Vec<String> = svc.tracked_ids().into_iter().map(|m| m.0).collect();

    let path = std::env::temp_dir().join(format!("dexd-smoke-{}.sock", std::process::id()));
    let server = {
        let svc = Arc::clone(&svc);
        let path = path.clone();
        std::thread::spawn(move || serve_unix(svc, &path))
    };
    let started = Instant::now();
    let mut client = loop {
        match SocketClient::connect(&path) {
            Ok(c) => break c,
            Err(e) => {
                assert!(
                    started.elapsed() < Duration::from_secs(10),
                    "smoke: daemon never bound {}: {e}",
                    path.display()
                );
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut requests = 0u64;
    for i in 0..100usize {
        let req = if i == 50 {
            // One write in the middle of the read traffic: withdraw a
            // module and restore it in the same atomic batch.
            let id = ids[rng.gen_range(0..ids.len())].clone();
            Request::ApplyDelta {
                deltas: vec![
                    Delta::ModuleWithdraw {
                        id: id.as_str().into(),
                    },
                    Delta::ModuleRestore {
                        id: id.as_str().into(),
                    },
                ],
            }
        } else {
            let kind = match i % 10 {
                0..=4 => KIND_SUBSTITUTES,
                5..=7 => KIND_ANNOTATE,
                8 => KIND_VALIDATE,
                _ => KIND_STATS,
            };
            read_request(kind, &mut rng, &ids, &workflows)
        };
        let resp = client.call(&req).expect("smoke: socket call");
        assert!(
            !matches!(resp, Response::Error { .. } | Response::Busy),
            "smoke request {i} failed: {resp:?}"
        );
        requests += 1;
    }

    let stats = match client.call(&Request::Stats).expect("smoke: stats call") {
        Response::Stats(s) => s,
        other => panic!("smoke: stats answered {other:?}"),
    };
    let resp = client
        .call(&Request::Shutdown)
        .expect("smoke: shutdown call");
    let served = server.join().expect("smoke: server thread");
    svc.join();
    let clean_shutdown = matches!(resp, Response::ShuttingDown) && served.is_ok();
    eprintln!(
        "bench_dexd: smoke done — {requests} requests, hit rate {:.1}%, {} shutdown",
        stats.cache_hit_rate * 100.0,
        if clean_shutdown { "clean" } else { "unclean" }
    );
    SmokeReport {
        requests: requests + 2,
        cache_hit_rate: stats.cache_hit_rate,
        deltas_applied: stats.deltas_applied,
        clean_shutdown,
    }
}
