//! Cold samples: set-up and bootstrap timed in a fresh process of this
//! program, the way a batch run pays them. Every sample starts from the
//! same empty heap, so earlier work in the calling process (freed memory,
//! allocator state) cannot make one sample cheaper than another.

use crate::serve::{repository_plan, POOL_DEPTH};
use crate::stats::{rss_bytes, StealMeter};
use dex_core::GenerationConfig;
use dex_experiments::IncrementalPipeline;
use dex_pool::build_text_pool;
use dex_repair::generate_repository;
use dex_universe::scale::{build_scaled, ScalePlan};
use std::process::Command;
use std::time::Instant;

/// First argument of the child mode.
pub const COLD_SAMPLE: &str = "--cold-sample";

/// One cold sample.
#[derive(Debug, Clone, Copy)]
pub struct ColdSample {
    /// `build_scaled` + `build_text_pool` + `generate_repository`, s.
    pub setup_s: f64,
    /// Cold `IncrementalPipeline::bootstrap`, s.
    pub bootstrap_s: f64,
    /// Modules the bootstrap annotated.
    pub modules: usize,
    /// RSS growth across the bootstrap, bytes.
    pub rss_growth: f64,
    /// Host steal share over the sample.
    pub steal: f64,
}

/// Runs one cold sample in a child process.
pub fn sample(scale: usize, seed: u64, workflows: usize) -> Result<ColdSample, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let meter = StealMeter::start();
    let out = Command::new(exe)
        .args([
            COLD_SAMPLE,
            &scale.to_string(),
            &seed.to_string(),
            &workflows.to_string(),
        ])
        .output()
        .map_err(|e| format!("cold sample: {e}"))?;
    let steal = meter.share();
    if !out.status.success() {
        return Err(format!("cold sample exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let f: Vec<f64> = text
        .split_whitespace()
        .filter_map(|x| x.parse().ok())
        .collect();
    match f[..] {
        [setup_s, bootstrap_s, modules, rss_growth] => Ok(ColdSample {
            setup_s,
            bootstrap_s,
            modules: modules as usize,
            rss_growth,
            steal,
        }),
        _ => Err(format!("cold sample printed `{}`", text.trim())),
    }
}

/// The child side: `--cold-sample SCALE SEED WORKFLOWS` prints the set-up
/// time (s), the bootstrap time (s), the modules bootstrapped and the RSS
/// growth across the bootstrap (bytes).
pub fn child(args: &[String]) {
    let arg = |i: usize| -> u64 {
        args.get(i)
            .and_then(|a| a.parse().ok())
            .expect("--cold-sample SCALE SEED WORKFLOWS")
    };
    let (scale, seed, workflows) = (arg(0) as usize, arg(1), arg(2) as usize);
    let t = Instant::now();
    let world = build_scaled(&ScalePlan::new(scale, seed));
    let pool = build_text_pool(&world.universe.ontology, POOL_DEPTH, seed);
    let repo = generate_repository(&world.universe, &pool, &repository_plan(workflows, seed));
    let setup_s = t.elapsed().as_secs_f64();
    std::hint::black_box(repo.len());
    let before = rss_bytes().expect("VmRSS readable");
    let t = Instant::now();
    let pipeline =
        IncrementalPipeline::bootstrap(world.universe, pool, GenerationConfig::default());
    let bootstrap_s = t.elapsed().as_secs_f64();
    let after = rss_bytes().expect("VmRSS readable");
    println!(
        "{setup_s:?} {bootstrap_s:?} {} {}",
        pipeline.tracked_ids().len(),
        after.saturating_sub(before)
    );
}
