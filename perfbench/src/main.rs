//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <serve_read|annotate_repair> --seed N \
//!           --seconds S --trace <0|1> --dexd PATH [--out DIR]
//! ```
//!
//! Usually started through `python3 perfbench/run.py`, which builds `dexd`
//! and this program from source first. With `--trace 0` the run measures
//! the workload's end-to-end metrics with tracing off; with `--trace 1` it
//! runs the workload with spans around a share of its own calls, then
//! probes every layer in process, and reports per-layer metrics, the
//! tracing overhead, and self time per span name. The last line of
//! standard output is one JSON object; the exit code is nonzero when any
//! correctness check failed.

mod batch;
mod cold;
mod layers;
mod report;
mod serve;
mod stats;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::time::Instant;
use trace::{Span, SpanBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    dexd: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut dexd = None;
    let mut out = PathBuf::from(".perfbench_out");
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        match argv[i].as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = value.parse().map_err(|_| "--seed: integer")?,
            "--seconds" => seconds = value.parse().map_err(|_| "--seconds: number")?,
            "--trace" => trace = value == "1",
            "--dexd" => dexd = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            other => return Err(format!("unknown argument `{other}`")),
        }
        i += 2;
    }
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        dexd: dexd.ok_or("--dexd is required")?,
        out,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(cold::COLD_SAMPLE) {
        cold::child(&argv[1..]);
        return;
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("perfbench: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }
    let mut report = Report::default();
    let origin = Instant::now();
    let mut spans = SpanBuf::new(args.trace, 3, origin);
    let title = format!(
        "{} seed {} ({} s window, trace {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );

    let (scale, inherited, workload_spans, overhead) = match args.workload.as_str() {
        "serve_read" => {
            let opts = serve::ServeOpts {
                dexd: &args.dexd,
                seed: args.seed,
                seconds: args.seconds,
                traced: args.trace,
                out_dir: &args.out,
            };
            match serve::run(&opts, &mut report) {
                Ok((spans, overhead)) => (serve::SCALE, None, spans, overhead),
                Err(e) => {
                    report.attempted += 1;
                    report.fail(e);
                    report.print(&title);
                    std::process::exit(1);
                }
            }
        }
        "annotate_repair" => {
            // The batch replays its own waves; in a traced run the replay
            // records spans on every other cycle, which gives the overhead.
            let (inherited, overhead) =
                batch::run(args.seed, args.seconds, &mut spans, &mut report);
            (batch::SCALE, Some(inherited), Vec::new(), overhead)
        }
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            std::process::exit(2);
        }
    };

    if args.trace {
        // The traced run reports per-layer metrics only; the workload's
        // own numbers stay in the human-readable section.
        report.metrics.clear();
        report.note("  -- per layer (traced run)");
        layers::probe(scale, args.seed, inherited, &mut spans, &mut report);
        report.metric("trace.overhead_pct", overhead, "%");
        let mut all: Vec<Span> = workload_spans;
        all.extend(spans.into_spans());
        write_trace(&args, &all, &mut report);
    }

    report.print(&title);
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// Writes the spans as Chrome trace JSON, validates the file, and prints
/// self time per span name.
fn write_trace(args: &Args, spans: &[Span], report: &mut Report) {
    let json = trace::chrome_json(spans);
    let path = args
        .out
        .join(format!("trace-{}-{}.json", args.workload, args.seed));
    let written = std::fs::write(&path, &json);
    report.check(written.is_ok(), || {
        format!("cannot write {}", path.display())
    });
    let defects = match trace::validate(&json) {
        Ok(d) => d,
        Err(e) => vec![format!("unparseable trace: {e}")],
    };
    report.check(defects.is_empty(), || format!("trace defects: {defects:?}"));
    report.metric("trace.spans", spans.len() as f64, "count");
    report.metric("trace.defects", defects.len() as f64, "count");
    report.note(format!(
        "  trace written to {} ({} spans)",
        path.display(),
        spans.len()
    ));
    report.note(format!(
        "  {:<34} {:>8} {:>14} {:>14}",
        "self time per span name", "count", "total ms", "self ms"
    ));
    for (name, t) in trace::self_times(spans) {
        report.note(format!(
            "  {name:<34} {:>8} {:>14.3} {:>14.3}",
            t.count,
            t.total_ns as f64 / 1e6,
            t.self_ns as f64 / 1e6
        ));
    }
}
