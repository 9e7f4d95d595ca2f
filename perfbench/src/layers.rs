//! The traced run's layer probes: the benchmark calls each layer's public
//! functions itself, at the workload's scale, and times them.
//!
//! The probes run in this order, each under a root span of its own:
//!
//! 1. `probe.world` — `build_scaled` and `build_text_pool`.
//! 2. `probe.decomposed_bootstrap` — what a cold bootstrap does, one layer
//!    at a time: `generate_examples_retrying` per module,
//!    `FingerprintIndex::build`, and `match_against_examples_retrying` per
//!    comparable pair, through one fresh invocation cache.
//! 3. `probe.pipeline` — a real `IncrementalPipeline::bootstrap`, then its
//!    read functions, `InvocationCache::stats`, `dex_workflow::validate`,
//!    and withdraw / restore / pool-replacement deltas through `apply`.
//! 4. `probe.service` — an in-process `Dexd` over the same world: the read
//!    mix through `Dexd::call` from two client threads, then one client
//!    reading while deltas arrive open-loop, then the protocol codec on the
//!    recorded replies.
//! 5. `probe.repair` — `ContinuousState` decay waves (`serve_read` only;
//!    `annotate_repair` reports its own).

use crate::report::Report;
use crate::serve::{
    expected_annotation, expected_substitutes, ClientWorld, Kind, DELTA_PERIOD, POOL_DEPTH,
};
use crate::stats::{mean, median, ns_since, Summary};
use crate::trace::SpanBuf;
use dex_core::{
    generate_examples_retrying, match_against_examples_retrying, FingerprintIndex,
    GenerationConfig, MappingMode,
};
use dex_experiments::{ContinuousConfig, ContinuousState, IncrementalPipeline};
use dex_modules::{InvocationCache, ModuleId, Retrier};
use dex_pool::build_text_pool;
use dex_universe::scale::{build_scaled, ScalePlan};
use dexd::{read_message, write_message, Client, Dexd, Request, Response, ServiceConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Direct calls per read function.
const QUERY_CALLS: usize = 3_000;
/// Requests through `Dexd::call` in the service probe (both threads).
const SERVICE_CALLS: usize = 6_000;
/// Delta cycles (withdraw, restore, pool) on the probe pipeline.
const DELTA_CYCLES: usize = 3;
/// Length of the in-process read-while-writing probe.
const CHURN_PROBE: Duration = Duration::from_secs(2);
/// Decay waves of the repair probe.
const REPAIR_WAVES: usize = 3;

/// Results of the workload's own run that the layer report needs.
pub struct Inherited {
    pub harvest_ms: f64,
    pub harvest_instances: f64,
    pub repair_p50_us: f64,
    pub repair_p99_us: f64,
    pub substitutions: f64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs every probe at `scale` and adds the per-layer metrics to `report`.
pub fn probe(
    scale: usize,
    seed: u64,
    inherited: Option<Inherited>,
    spans: &mut SpanBuf,
    report: &mut Report,
) {
    // ---- 1. World. --------------------------------------------------------
    let root = spans.root("probe.world");
    let t = Instant::now();
    let world = spans.time("universe.build_scaled", &root, || {
        build_scaled(&ScalePlan::new(scale, seed))
    });
    let universe_ms = ms(t);
    let t = Instant::now();
    let pool = spans.time("pool.build_text_pool", &root, || {
        build_text_pool(&world.universe.ontology, POOL_DEPTH, seed)
    });
    let pool_ms = ms(t);
    spans.close(root);
    report.metric("universe.build_ms", universe_ms, "ms");
    report.metric("pool.build_ms", pool_ms, "ms");
    let mut client = ClientWorld::from_parts(world, pool, seed);
    let universe = client.universe.take().expect("fresh world");
    let pool = client.pool.take().expect("fresh world");
    let config = GenerationConfig::default();

    // ---- 2. Decomposed bootstrap. ----------------------------------------
    let root = spans.root("probe.decomposed_bootstrap");
    let ids = universe.available_ids();
    let n = ids.len();
    let cache = InvocationCache::new();
    let retrier = Retrier::new(config.retry);
    let open = spans.child("generate.modules", &root);
    let t = Instant::now();
    let reports: Vec<_> = ids
        .iter()
        .map(|id| {
            let module = universe.catalog.get(id).expect("available id");
            generate_examples_retrying(
                module.as_ref(),
                &universe.ontology,
                &pool,
                &config,
                &cache,
                &retrier,
            )
        })
        .collect();
    let gen_ms = ms(t);
    spans.close(open);
    let invocations: usize = reports
        .iter()
        .map(|r| r.as_ref().map_or(0, |r| r.invocations))
        .sum();
    let t = Instant::now();
    let index = spans.time("matching.index_build", &root, || {
        FingerprintIndex::build(
            ids.iter()
                .map(|id| universe.catalog.get(id).map(|m| m.descriptor())),
            &universe.ontology,
        )
    });
    let index_ms = ms(t);
    let pairs = index.comparable_pairs();
    let open = spans.child("matching.pairs", &root);
    let t = Instant::now();
    for &(a, b) in &pairs {
        let target = universe.catalog.get(&ids[a]).expect("available id");
        let candidate = universe.catalog.get(&ids[b]).expect("available id");
        if let Ok(report) = &reports[a] {
            let verdict = match_against_examples_retrying(
                target.descriptor(),
                &report.examples,
                candidate.as_ref(),
                &universe.ontology,
                MappingMode::Strict,
                &cache,
                &retrier,
            );
            std::hint::black_box(verdict.is_ok());
        }
    }
    let pairs_ms = ms(t);
    spans.close(open);
    spans.close(root);
    let decomposed_cache = cache.stats();
    drop((reports, index, cache));
    let pairs_compared = pairs.len();
    report.metric("generate.module_us", gen_ms * 1e3 / n as f64, "us");
    report.metric(
        "generate.invocations_per_module",
        invocations as f64 / n as f64,
        "count",
    );
    report.metric("matching.index_build_ms", index_ms, "ms");
    report.metric("matching.pairs_compared", pairs_compared as f64, "count");
    report.metric(
        "matching.prune_ratio",
        1.0 - pairs_compared as f64 / (n as f64 * (n as f64 - 1.0)),
        "ratio",
    );
    report.metric(
        "matching.pair_us",
        pairs_ms * 1e3 / pairs_compared.max(1) as f64,
        "us",
    );

    // ---- 3. Pipeline. -----------------------------------------------------
    let root = spans.root("probe.pipeline");
    let cold = spans.time("cold.sample", &root, || {
        crate::cold::sample(scale, seed, crate::serve::WORKFLOWS)
    });
    let t = Instant::now();
    let mut pipeline = spans.time("incremental.bootstrap", &root, || {
        IncrementalPipeline::bootstrap(universe, pool, config.clone())
    });
    let bootstrap_ms = ms(t);
    report.metric("incremental.bootstrap_s", bootstrap_ms / 1e3, "s");
    report.metric(
        "incremental.bootstrap_other_ms",
        bootstrap_ms - gen_ms - index_ms - pairs_ms,
        "ms",
    );
    report.metric("incremental.verdicts", pairs_compared as f64, "count");
    report.metric(
        "incremental.bytes_per_verdict",
        cold.map_or(f64::NAN, |c| c.rss_growth / pairs_compared.max(1) as f64),
        "bytes",
    );

    let stats = pipeline.invocation_cache().stats();
    report.metric("cache.hits", stats.hits as f64, "count");
    report.metric("cache.misses", stats.misses as f64, "count");
    report.metric("cache.hit_rate", stats.hit_rate(), "ratio");
    report.metric("cache.entries", stats.entries as f64, "count");
    report.note(format!(
        "  decomposed bootstrap cache: {} hits, {} misses",
        decomposed_cache.hits, decomposed_cache.misses
    ));
    let open = spans.child("cache.stats", &root);
    let stats_us: Vec<f64> = (0..51)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(pipeline.invocation_cache().stats());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    spans.close(open);
    report.metric("cache.stats_us", median(&stats_us), "us");

    // Handler time per read kind, and over the read mix, on direct calls.
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1A7E);
    let order = client.hot_order(0);
    let timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64() * 1e6
    };
    let open = spans.child("incremental.substitutes", &root);
    let subs_us: Vec<f64> = (0..QUERY_CALLS)
        .map(|_| {
            let id = ModuleId(client.hot_id(&mut rng, &order));
            timed(&mut || {
                std::hint::black_box(pipeline.substitutes(&id));
            })
        })
        .collect();
    spans.close(open);
    let open = spans.child("incremental.annotation", &root);
    let annot_us: Vec<f64> = (0..QUERY_CALLS)
        .map(|_| {
            let id = ModuleId(client.hot_id(&mut rng, &order));
            timed(&mut || {
                std::hint::black_box(pipeline.annotation(&id).map(|(a, _)| a));
            })
        })
        .collect();
    spans.close(open);
    let open = spans.child("workflow.validate", &root);
    let validate_us: Vec<f64> = (0..QUERY_CALLS)
        .map(|i| {
            let wf = &client.workflows[i % client.workflows.len()];
            let u = pipeline.universe();
            timed(&mut || {
                std::hint::black_box(dex_workflow::validate(wf, &u.catalog, &u.ontology).is_ok());
            })
        })
        .collect();
    spans.close(open);
    report.metric("incremental.substitutes_us", median(&subs_us), "us");
    report.metric("incremental.annotation_us", median(&annot_us), "us");
    report.metric("workflow.validate_us", median(&validate_us), "us");

    // The handler side of the mix: the reply `dexd` would build, per request.
    let mut mix_rng = StdRng::seed_from_u64(seed ^ 0x5E41);
    let open = spans.child("handler.mix", &root);
    let handler_us: Vec<f64> = (0..QUERY_CALLS)
        .map(|_| {
            let (_, req) = client.draw_read(&mut mix_rng, &order);
            timed(&mut || {
                let resp = match &req {
                    Request::FindSubstitutes { id } => expected_substitutes(&pipeline, id),
                    Request::AnnotateModule { id } => expected_annotation(&pipeline, id),
                    Request::ValidateWorkflow { workflow } => {
                        let u = pipeline.universe();
                        let ok = dex_workflow::validate(workflow, &u.catalog, &u.ontology).is_ok();
                        let broken = workflow
                            .steps
                            .iter()
                            .filter(|s| !u.catalog.is_available(&s.module))
                            .count();
                        std::hint::black_box((ok, broken));
                        Response::ShuttingDown
                    }
                    _ => {
                        std::hint::black_box(pipeline.invocation_cache().stats());
                        Response::ShuttingDown
                    }
                };
                std::hint::black_box(resp);
            })
        })
        .collect();
    spans.close(open);
    let handler_p50 = median(&handler_us);

    // Deltas.
    let mut withdraw_ms = Vec::new();
    let mut restore_ms = Vec::new();
    let mut pool_ms = Vec::new();
    let (mut regenerated, mut recomputed, mut dropped) = (0usize, 0usize, 0usize);
    let mut victims = Vec::new();
    let mut delta_rng = StdRng::seed_from_u64(seed ^ 0xDE17A);
    for step in 0..3 * DELTA_CYCLES {
        let deltas = client.delta_batch(step, &mut delta_rng, &mut victims);
        let name = [
            "incremental.apply_withdraw",
            "incremental.apply_restore",
            "incremental.apply_pool",
        ][step % 3];
        let t = Instant::now();
        let r = spans.time(name, &root, || pipeline.apply(&deltas));
        let took = ms(t);
        [&mut withdraw_ms, &mut restore_ms, &mut pool_ms][step % 3].push(took);
        regenerated += r.regenerated_modules;
        recomputed += r.recomputed_pairs;
        dropped += r.dropped_pairs;
    }
    spans.close(root);
    let cycles = DELTA_CYCLES as f64;
    report.metric("incremental.apply_withdraw_ms", median(&withdraw_ms), "ms");
    report.metric("incremental.apply_restore_ms", median(&restore_ms), "ms");
    report.metric("incremental.apply_pool_ms", median(&pool_ms), "ms");
    report.metric(
        "incremental.regenerated_modules",
        regenerated as f64 / cycles,
        "count",
    );
    report.metric(
        "incremental.recomputed_pairs",
        recomputed as f64 / cycles,
        "count",
    );
    report.metric(
        "incremental.dropped_pairs",
        dropped as f64 / cycles,
        "count",
    );
    drop(pipeline);

    // ---- 4. Service. --------------------------------------------------------
    let root = spans.root("probe.service");
    let world = build_scaled(&ScalePlan::new(scale, seed));
    let pool = build_text_pool(&world.universe.ontology, POOL_DEPTH, seed);
    let universe = world.universe;
    let svc = spans.time("dexd.launch_with", &root, || {
        Dexd::launch_with(universe, pool, &ServiceConfig::at_scale(scale, seed))
    });
    let origin = Instant::now();
    let open = spans.child("service.mix", &root);
    let results: Vec<(Vec<f64>, Vec<Response>, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2u64)
            .map(|k| {
                let client_world = &client;
                let order = &order;
                let client = Client::new(Arc::clone(&svc));
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E41 ^ (k + 1));
                    let mut lat = Vec::with_capacity(SERVICE_CALLS / 2);
                    let mut keep = Vec::new();
                    let mut substitutes = 0u64;
                    for i in 0..SERVICE_CALLS / 2 {
                        let (kind, req) = client_world.draw_read(&mut rng, order);
                        if kind == Kind::Substitutes {
                            substitutes += 1;
                        }
                        let t = Instant::now();
                        let resp = client.call(req);
                        lat.push(t.elapsed().as_secs_f64() * 1e6);
                        if i % 8 == 0 {
                            keep.push(resp);
                        }
                    }
                    (lat, keep, substitutes)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("service probe client"))
            .collect()
    });
    spans.close(open);
    let call_us: Vec<f64> = results.iter().flat_map(|r| r.0.iter().copied()).collect();
    let replies: Vec<&Response> = results.iter().flat_map(|r| r.1.iter()).collect();
    let substitute_calls: u64 = results.iter().map(|r| r.2).sum();
    let call_p50 = median(&call_us);
    report.metric("service.call_us", call_p50, "us");
    report.metric("service.handoff_us", call_p50 - handler_p50, "us");

    // One client reads while deltas arrive on a fixed schedule.
    let open = spans.child("service.churn", &root);
    let end = Instant::now() + CHURN_PROBE;
    let (reads, writes, late) = std::thread::scope(|s| {
        let reader = {
            let client_world = &client;
            let order = &order;
            let client = Client::new(Arc::clone(&svc));
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ 0x2EAD);
                let mut iv = Vec::new();
                while Instant::now() < end {
                    let (_, req) = client_world.draw_read(&mut rng, order);
                    let a = ns_since(origin);
                    std::hint::black_box(client.call(req));
                    iv.push((a, ns_since(origin)));
                }
                iv
            })
        };
        let client_api = Client::new(Arc::clone(&svc));
        let mut writes = Vec::new();
        let mut late = Vec::new();
        let mut victims = Vec::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xC4A);
        let start = Instant::now();
        for i in 0.. {
            let due = start + DELTA_PERIOD * i as u32;
            if due >= end {
                break;
            }
            let now = Instant::now();
            if now < due {
                std::thread::sleep(due - now);
            }
            late.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            let deltas = client.delta_batch(i, &mut rng, &mut victims);
            let a = ns_since(origin);
            std::hint::black_box(client_api.call(Request::ApplyDelta { deltas }));
            writes.push((a, ns_since(origin)));
        }
        (reader.join().expect("churn probe reader"), writes, late)
    });
    spans.close(open);
    let during = Summary::of(&crate::serve::reads_during_deltas(&reads, &writes));
    report.metric("churn.read_during_delta_p99_us", during.p99, "us");
    report.metric(
        "churn.generator_late_ms",
        late.iter().copied().fold(0.0, f64::max),
        "ms",
    );

    let stats = match Client::new(Arc::clone(&svc)).call(Request::Stats) {
        Response::Stats(s) => Some(s),
        _ => None,
    };
    svc.shutdown();
    svc.join();
    let (coalesced, busy) = stats.map_or((f64::NAN, f64::NAN), |s| {
        (s.coalesced_lookups as f64, s.busy_rejections as f64)
    });
    report.metric(
        "service.coalesce_ratio",
        coalesced / substitute_calls.max(1) as f64,
        "ratio",
    );
    report.metric("service.busy_rejections", busy, "count");

    // Protocol codec on the recorded replies.
    let open = spans.child("proto.codec", &root);
    let mut bytes = Vec::new();
    let mut codec_us = Vec::new();
    for resp in &replies {
        let t = Instant::now();
        let mut buf = Vec::new();
        write_message(&mut buf, *resp).expect("encode reply");
        let back: Response = read_message(&mut &buf[..]).expect("decode reply");
        codec_us.push(t.elapsed().as_secs_f64() * 1e6);
        bytes.push(buf.len() as f64 - 4.0);
        std::hint::black_box(back);
    }
    spans.close(open);
    spans.close(root);
    report.metric("proto.reply_bytes", mean(&bytes), "bytes");
    report.metric("proto.codec_us", median(&codec_us), "us");

    // ---- 5. Repair. --------------------------------------------------------
    let inherited = inherited.unwrap_or_else(|| {
        let root = spans.root("probe.repair");
        let cfg = ContinuousConfig::at_scale(scale, 0, seed);
        let mut state = spans.time("continuous.prepare", &root, || {
            ContinuousState::prepare(&cfg)
        });
        let mut substitutions = 0usize;
        for _ in 0..REPAIR_WAVES {
            if let Some(w) = spans.time("continuous.decay_wave", &root, || {
                state.decay_wave().cloned()
            }) {
                substitutions += w.substitutions;
            }
        }
        spans.close(root);
        let prep = state.prepare_stats().clone();
        let latency = state.finish().latency_overall;
        Inherited {
            harvest_ms: prep.harvest_ms,
            harvest_instances: prep.harvested_instances as f64,
            repair_p50_us: latency.p50_ns as f64 / 1e3,
            repair_p99_us: latency.p99_ns as f64 / 1e3,
            substitutions: substitutions as f64,
        }
    });
    report.metric("repair.workflow_p50_us", inherited.repair_p50_us, "us");
    report.metric("repair.workflow_p99_us", inherited.repair_p99_us, "us");
    report.metric("repair.substitutions", inherited.substitutions, "count");
    report.metric("harvest.ms", inherited.harvest_ms, "ms");
    report.metric("harvest.instances", inherited.harvest_instances, "count");
}
