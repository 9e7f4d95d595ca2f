//! The `dexd` daemon: build the operating state once, serve the registry
//! protocol on a Unix socket until a `Shutdown` request arrives.
//!
//! Usage:
//!   cargo run --release -p dexd --bin dexd -- \
//!     [--socket PATH] [--scale N] [--seed N] [--workers N] [--queue N] \
//!     [--pool-depth N] [--telemetry[=OUT]] [--trace-out PATH] [--flight-out PATH]
//!
//! `--scale 0` (the default) serves the paper's byte-frozen 252-module
//! profile; any other value builds a heavy-tailed scaled universe of that
//! many modules. The telemetry flags are shared with the experiment bins:
//! `--trace-out` exports a Chrome trace of every request span on exit.
//!
//! Talk to it with `bench_dexd --smoke` or any client that frames JSON as
//! `proto` documents (length-prefixed, little-endian `u32`).

use dex_experiments::telemetry::TelemetryRun;
use dexd::{serve_unix, Dexd, ServiceConfig};
use std::path::PathBuf;

/// Options `TelemetryRun::from_env` owns; the daemon parser skips them
/// (and their space-separated values).
fn is_telemetry_flag(arg: &str) -> bool {
    [
        "--telemetry",
        "--telemetry-out",
        "--trace-out",
        "--flight-out",
    ]
    .iter()
    .any(|f| arg == *f || arg.starts_with(&format!("{f}=")))
}

fn main() {
    let run = TelemetryRun::from_env();

    let mut socket = PathBuf::from("/tmp/dexd.sock");
    let mut cfg = ServiceConfig::default();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| {
                    eprintln!("dexd: {arg} needs a value");
                    std::process::exit(2);
                })
                .clone()
        };
        match arg.as_str() {
            "--socket" => socket = PathBuf::from(take(&mut i)),
            "--scale" => cfg.scale = take(&mut i).parse().expect("--scale: integer"),
            "--seed" => cfg.seed = take(&mut i).parse().expect("--seed: integer"),
            "--workers" => cfg.workers = take(&mut i).parse().expect("--workers: integer"),
            "--queue" => cfg.queue_capacity = take(&mut i).parse().expect("--queue: integer"),
            "--pool-depth" => cfg.pool_depth = take(&mut i).parse().expect("--pool-depth: integer"),
            other if is_telemetry_flag(other) => {
                // Skip a space-separated value too.
                if !other.contains('=')
                    && args.get(i + 1).is_some_and(|next| !next.starts_with("--"))
                {
                    i += 1;
                }
            }
            other => {
                eprintln!("dexd: unknown argument `{other}`");
                std::process::exit(2);
            }
        }
        i += 1;
    }

    eprintln!(
        "dexd: building operating state (scale {}, seed {})...",
        cfg.scale, cfg.seed
    );
    let svc = Dexd::launch(&cfg);
    eprintln!(
        "dexd: serving {} modules on {} ({} workers, queue {}, bootstrap {:.0} ms)",
        svc.tracked_ids().len(),
        socket.display(),
        cfg.workers,
        cfg.queue_capacity,
        svc.bootstrap_ms()
    );
    if let Err(e) = serve_unix(svc.clone(), &socket) {
        eprintln!("dexd: socket error: {e}");
    }
    svc.shutdown();
    svc.join();
    eprintln!("dexd: stopped");
    run.finish("dexd");
}
