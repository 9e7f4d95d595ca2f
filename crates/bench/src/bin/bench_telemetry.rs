//! Measures the overhead of the `dex-telemetry` subscriber on the two
//! parallel hot paths — plus per-call microcosts of the span guard and the
//! flight recorder — and emits a machine-readable `BENCH_telemetry.json`.
//!
//! Usage: `cargo run --release -p dex-bench --bin bench_telemetry [OUT.json]`
//! (default output path: `BENCH_telemetry.json` in the working directory).
//!
//! Each workload runs several interleaved repetitions with the subscriber
//! off and on; the reported overhead compares the medians. Release builds
//! **gate** the results: enabled tracing must cost at most
//! [`OVERHEAD_BUDGET_PCT`] on the workload medians, and a *disabled* span
//! site — one relaxed atomic load and an early return, no allocation — must
//! stay under [`DISABLED_SPAN_BUDGET_NS`] per call. Breaching either budget
//! exits nonzero so CI treats instrumentation creep as a regression.

use dex_bench::harness::{self, interleave, measure, Bench, Op};
use dex_core::GenerationConfig;
use dex_experiments::parallel::{generate_all_parallel, match_pairs_blocked, BatchConfig};
use dex_modules::ModuleId;
use dex_pool::build_synthetic_pool;
use serde::Serialize;

/// Maximum median slowdown tracing may inflict on an instrumented workload.
const OVERHEAD_BUDGET_PCT: f64 = 10.0;

/// Ceiling for a disabled span site, per call. The guard is a single
/// relaxed load (~1 ns on current hardware); the budget leaves headroom for
/// noisy CI hosts while still catching an accidental allocation or clock
/// read on the disabled path, which would cost 20–60 ns.
const DISABLED_SPAN_BUDGET_NS: f64 = 20.0;

#[derive(Serialize)]
struct Report {
    profile: &'static str,
    threads: usize,
    overhead_budget_pct: f64,
    generate_all: Overhead,
    match_pairs: MatchOverhead,
    span_call: SpanCall,
    flight_event: FlightEvent,
    gate: &'static str,
    gates: Vec<harness::Gate>,
}

#[derive(Serialize)]
struct Overhead {
    off_ms: f64,
    on_ms: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct MatchOverhead {
    modules: usize,
    off_ms: f64,
    on_ms: f64,
    overhead_pct: f64,
}

#[derive(Serialize)]
struct SpanCall {
    disabled_ns: f64,
    enabled_ns: f64,
    disabled_budget_ns: f64,
}

#[derive(Serialize)]
struct FlightEvent {
    disabled_ns: f64,
    enabled_ns: f64,
}

fn main() {
    let mut bench = Bench::from_env("bench_telemetry", &[]);
    let (reps, batch): (usize, usize) = if cfg!(debug_assertions) {
        (3, 1)
    } else {
        (15, 4)
    };

    let universe = dex_universe::build();
    let pool = build_synthetic_pool(&universe.ontology, 4, 42);
    let config = GenerationConfig::default();
    let threads = harness::threads();
    let match_ids: Vec<ModuleId> = universe.available_ids().into_iter().step_by(11).collect();

    // Off and on batches alternate so slow machine drift (frequency
    // scaling, background load) hits both sides equally instead of biasing
    // whichever side ran later. Returns the per-call medians in ms.
    let section = |name: &str, run: &dyn Fn()| -> (f64, f64) {
        let [off, on] = interleave(
            reps,
            batch,
            false,
            [
                &mut || {
                    dex_telemetry::disable();
                    run();
                },
                &mut || {
                    dex_telemetry::enable();
                    run();
                },
            ],
        );
        dex_telemetry::disable();
        dex_telemetry::reset();
        let (off_ms, on_ms) = (off.median(), on.median());
        eprintln!("{name}: off {off_ms:.2} ms, on {on_ms:.2} ms");
        (off_ms, on_ms)
    };

    let (gen_off, gen_on) = section("generate_all_parallel", &|| {
        std::hint::black_box(generate_all_parallel(&universe, &pool, &config, threads));
    });
    let batched = BatchConfig::with_threads(threads);
    let (match_off, match_on) = section("match_pairs_blocked", &|| {
        std::hint::black_box(match_pairs_blocked(
            &universe, &match_ids, &pool, &config, &batched,
        ));
    });

    // Microcosts. Disabled sites must be inert: the span guard is a relaxed
    // load + None, the flight gate a pair of relaxed loads — no clock read,
    // no allocation, no formatting (call sites gate on `flight_on()` before
    // building the detail string).
    let micro_calls = if cfg!(debug_assertions) {
        10_000
    } else {
        1_000_000
    };
    // Median nanoseconds per call of `f` over `reps` batches of `calls`.
    let ns_per_call = |calls: usize, f: &mut dyn FnMut()| measure(reps, calls, f).0.median() * 1e6;
    dex_telemetry::disable();
    let span_off_ns = ns_per_call(micro_calls, &mut || {
        drop(std::hint::black_box(dex_telemetry::span("bench.micro")));
    });
    let flight_off_ns = ns_per_call(micro_calls, &mut || {
        if std::hint::black_box(dex_telemetry::flight_on()) {
            dex_telemetry::flight(
                dex_telemetry::FlightKind::Invocation,
                "bench.micro",
                "never reached while disabled".to_string(),
                0,
            );
        }
    });
    dex_telemetry::enable();
    // Enabled spans fold into the root list; keep batches modest and reset
    // between them so the forest doesn't grow monotonically.
    let span_calls = (micro_calls / 10).max(1);
    let span_on_ns = ns_per_call(span_calls, &mut || {
        drop(std::hint::black_box(dex_telemetry::span("bench.micro")));
    });
    dex_telemetry::reset();
    // The flight ring overwrites in place, so volume is free; each recorded
    // event costs one format + one boxed slot swap.
    let flight_on_ns = ns_per_call(span_calls, &mut || {
        if dex_telemetry::flight_on() {
            dex_telemetry::flight(
                dex_telemetry::FlightKind::Invocation,
                "bench.micro",
                "ok (1 outputs)".to_string(),
                1,
            );
        }
    });
    dex_telemetry::disable();
    dex_telemetry::reset();
    eprintln!(
        "span: disabled {span_off_ns:.1} ns/call, enabled {span_on_ns:.1} ns/call; \
         flight: disabled {flight_off_ns:.1} ns/call, enabled {flight_on_ns:.1} ns/call"
    );

    let pct = |off: f64, on: f64| (on - off) / off * 100.0;
    let gen_pct = pct(gen_off, gen_on);
    let match_pct = pct(match_off, match_on);

    // Gate only in release: debug medians measure the lack of optimization,
    // not the instrumentation.
    if !cfg!(debug_assertions) {
        let budget_pct = OVERHEAD_BUDGET_PCT;
        bench.gate("generate_all.overhead_pct", Op::Le, budget_pct, gen_pct);
        bench.gate("match_pairs.overhead_pct", Op::Le, budget_pct, match_pct);
        let budget_ns = DISABLED_SPAN_BUDGET_NS;
        bench.gate("span_call.disabled_ns", Op::Le, budget_ns, span_off_ns);
        bench.gate("flight_event.disabled_ns", Op::Le, budget_ns, flight_off_ns);
    }

    bench.finish(|gates| Report {
        profile: harness::profile(),
        threads,
        overhead_budget_pct: OVERHEAD_BUDGET_PCT,
        generate_all: Overhead {
            off_ms: gen_off,
            on_ms: gen_on,
            overhead_pct: gen_pct,
        },
        match_pairs: MatchOverhead {
            modules: match_ids.len(),
            off_ms: match_off,
            on_ms: match_on,
            overhead_pct: match_pct,
        },
        span_call: SpanCall {
            disabled_ns: span_off_ns,
            enabled_ns: span_on_ns,
            disabled_budget_ns: DISABLED_SPAN_BUDGET_NS,
        },
        flight_event: FlightEvent {
            disabled_ns: flight_off_ns,
            enabled_ns: flight_on_ns,
        },
        gate: if gates.iter().all(|g| g.pass) {
            "pass"
        } else {
            "fail"
        },
        gates,
    });
}
