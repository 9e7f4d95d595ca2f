//! The serving workload, `serve_read`. `dexd` runs as a child process on a
//! Unix socket and this process drives it over at most two connections, each
//! owned by one client thread.
//!
//! * The timed window: two closed-loop connections send the read mix.
//! * The churn phase after it: one connection keeps sending the read mix
//!   while the other sends `ApplyDelta` batches open-loop on a fixed
//!   schedule, cycling withdraw → restore → pool replacement. The delta log
//!   is then replayed on a freshly bootstrapped `IncrementalPipeline` and
//!   sampled daemon answers must equal the replica's.

use crate::report::Report;
use crate::stats::{
    calm_median, ns_since, peak_rss_mb, permutation, quantile, StealMeter, Summary, Zipf,
};
use crate::trace::{Open, Span, SpanBuf};
use dex_core::delta::{Delta, DeltaReport};
use dex_core::GenerationConfig;
use dex_experiments::IncrementalPipeline;
use dex_modules::ModuleId;
use dex_pool::{build_text_pool, AnnotatedInstance, InstancePool};
use dex_repair::{generate_repository, RepositoryPlan};
use dex_universe::scale::{build_scaled, ScalePlan, ScaledWorld};
use dex_universe::Universe;
use dex_values::Value;
use dex_workflow::Workflow;
use dexd::{
    read_frame, write_frame, AnnotationReply, Request, Response, StatsReply, SubstitutesReply,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashSet};
use std::io;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Modules in the served world.
pub const SCALE: usize = 10_000;
/// Per-concept pool depth; `dexd` builds its pool with
/// `ServiceConfig::default().pool_depth`, which is 4.
pub const POOL_DEPTH: usize = 4;
/// Healthy workflows generated for `ValidateWorkflow` requests.
pub const WORKFLOWS: usize = 200;
/// Daemon launches per run; `setup_s` is their median.
pub const SETUP_SPAWNS: usize = 3;
/// Untimed requests per connection before the window opens.
pub const WARMUP: Duration = Duration::from_millis(500);
/// The window is cut into slices of this length; the gated metrics are
/// medians over slices.
pub const SLICE: Duration = Duration::from_secs(1);
/// The Zipf hot set is re-drawn this often (the same draw for every
/// connection), so each slice averages several hot sets.
pub const HOT_EPOCH: Duration = Duration::from_millis(100);
/// Modules per withdraw (and matching restore) batch.
pub const WITHDRAW_BATCH: usize = 8;
/// Concepts per pool-replacement batch.
pub const POOL_CONCEPTS: usize = 4;
/// Open-loop delta schedule of the churn phase: one batch every 200 ms.
pub const DELTA_PERIOD: Duration = Duration::from_millis(200);
/// Length of the churn phase: five withdraw / restore / pool cycles.
pub const CHURN_PHASE: Duration = Duration::from_secs(3);
/// Module ids whose daemon answers are compared with the replica.
pub const REPLICA_SAMPLES: usize = 64;
/// In a traced run, every n-th read records spans; the others are timed as
/// usual, so the two sets give the per-request tracing overhead.
const TRACE_EVERY: u64 = 16;

/// Request kinds of the read mix, plus deltas.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Substitutes,
    Annotate,
    Validate,
    Stats,
}

pub const READ_KINDS: [Kind; 4] = [
    Kind::Substitutes,
    Kind::Annotate,
    Kind::Validate,
    Kind::Stats,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Substitutes => "substitutes",
            Kind::Annotate => "annotate",
            Kind::Validate => "validate",
            Kind::Stats => "stats",
        }
    }
}

/// The inputs the benchmark generates from the seed: the same scaled world
/// `dexd --scale 10000 --seed <seed>` builds, the workflows to validate, and
/// the Zipf-skewed id distribution with its hot set per slice.
pub struct ClientWorld {
    pub seed: u64,
    pub universe: Option<Universe>,
    pub pool: Option<InstancePool>,
    pub ids: Vec<String>,
    pub tracked: HashSet<String>,
    pub zipf: Zipf,
    pub workflows: Vec<Workflow>,
    /// Leaf concepts that modules partition their inputs on: replacing
    /// their first pool instance forces regeneration.
    pub churn_concepts: Vec<String>,
}

impl ClientWorld {
    pub fn build(scale: usize, seed: u64) -> ClientWorld {
        let world = build_scaled(&ScalePlan::new(scale, seed));
        let pool = build_text_pool(&world.universe.ontology, POOL_DEPTH, seed);
        ClientWorld::from_parts(world, pool, seed)
    }

    /// The client inputs over an already built world and pool.
    pub fn from_parts(world: ScaledWorld, pool: InstancePool, seed: u64) -> ClientWorld {
        let repo = generate_repository(&world.universe, &pool, &repository_plan(WORKFLOWS, seed));
        let ids: Vec<String> = world
            .universe
            .available_ids()
            .into_iter()
            .map(|m| m.0)
            .collect();
        let zipf = Zipf::new(ids.len());
        let churn_concepts: Vec<String> = world
            .families
            .iter()
            .map(|f| f.divergent_concept.clone())
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        ClientWorld {
            seed,
            tracked: ids.iter().cloned().collect(),
            ids,
            zipf,
            workflows: repo.workflows.into_iter().map(|s| s.workflow).collect(),
            churn_concepts,
            universe: Some(world.universe),
            pool: Some(pool),
        }
    }

    /// The Zipf rank → module order of hot epoch `epoch` (shared by every
    /// connection, so concurrent lookups hit the same hot buckets).
    pub fn hot_order(&self, epoch: u64) -> Vec<usize> {
        permutation(
            self.ids.len(),
            self.seed ^ 0x21FF ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    /// A Zipf-skewed module id under `order`.
    pub fn hot_id(&self, rng: &mut StdRng, order: &[usize]) -> String {
        self.ids[order[self.zipf.rank(rng)]].clone()
    }

    /// One request of the read mix: 60% `FindSubstitutes`, 25%
    /// `AnnotateModule`, 10% `ValidateWorkflow`, 5% `Stats`.
    pub fn draw_read(&self, rng: &mut StdRng, order: &[usize]) -> (Kind, Request) {
        let roll = rng.gen_range(0..100u32);
        if roll < 60 {
            let id = self.hot_id(rng, order);
            (Kind::Substitutes, Request::FindSubstitutes { id })
        } else if roll < 85 {
            let id = self.hot_id(rng, order);
            (Kind::Annotate, Request::AnnotateModule { id })
        } else if roll < 95 {
            let workflow = self.workflows[rng.gen_range(0..self.workflows.len())].clone();
            (Kind::Validate, Request::ValidateWorkflow { workflow })
        } else {
            (Kind::Stats, Request::Stats)
        }
    }

    /// Checks a read reply: it must echo the request's id, rank only
    /// tracked modules, and (on an intact registry) report everything
    /// available and every workflow valid.
    pub fn check_read(&self, req: &Request, resp: &Response, intact: bool) -> Result<(), String> {
        match (req, resp) {
            (Request::FindSubstitutes { id }, Response::Substitutes(r)) => {
                if &r.id != id {
                    return Err(format!("substitutes for `{id}` answered for `{}`", r.id));
                }
                if let Some((bad, _)) = r
                    .ranked
                    .iter()
                    .find(|(c, _)| c == id || !self.tracked.contains(c))
                {
                    return Err(format!("substitutes for `{id}` ranked `{bad}`"));
                }
                if intact && !r.available {
                    return Err(format!("`{id}` reported unavailable on an intact registry"));
                }
                Ok(())
            }
            (Request::AnnotateModule { id }, Response::Annotation(r)) => {
                if &r.id != id {
                    return Err(format!("annotation for `{id}` answered for `{}`", r.id));
                }
                if intact && !r.available {
                    return Err(format!("`{id}` reported unavailable on an intact registry"));
                }
                Ok(())
            }
            (Request::ValidateWorkflow { workflow }, Response::Validation(r)) => {
                if r.id != workflow.id {
                    return Err(format!(
                        "validation of `{}` answered for `{}`",
                        workflow.id, r.id
                    ));
                }
                for step in &r.broken_steps {
                    let sub_ok = step
                        .substitute
                        .as_ref()
                        .is_none_or(|(s, _)| self.tracked.contains(s));
                    if !self.tracked.contains(&step.module) || !sub_ok {
                        return Err(format!("validation of `{}` names untracked ids", r.id));
                    }
                }
                if intact && !r.ok {
                    return Err(format!("healthy workflow `{}` failed validation", r.id));
                }
                Ok(())
            }
            (Request::Stats, Response::Stats(s)) => {
                if s.modules_tracked != self.ids.len() {
                    return Err(format!(
                        "stats tracks {} modules, expected {}",
                        s.modules_tracked,
                        self.ids.len()
                    ));
                }
                Ok(())
            }
            (req, resp) => Err(format!("{} answered {}", req.endpoint(), brief(resp))),
        }
    }

    /// The delta batch of cycle step `i`: withdraw a fresh batch of
    /// modules, restore it, then replace the first pool instance of a few
    /// partition concepts with a fresh value.
    pub fn delta_batch(&self, i: usize, rng: &mut StdRng, victims: &mut Vec<String>) -> Vec<Delta> {
        match i % 3 {
            0 => {
                let mut chosen = BTreeSet::new();
                while chosen.len() < WITHDRAW_BATCH.min(self.ids.len()) {
                    chosen.insert(self.ids[rng.gen_range(0..self.ids.len())].clone());
                }
                *victims = chosen.into_iter().collect();
                victims
                    .iter()
                    .map(|id| Delta::ModuleWithdraw {
                        id: ModuleId(id.clone()),
                    })
                    .collect()
            }
            1 => victims
                .iter()
                .map(|id| Delta::ModuleRestore {
                    id: ModuleId(id.clone()),
                })
                .collect(),
            _ => {
                let mut concepts = BTreeSet::new();
                while concepts.len() < POOL_CONCEPTS.min(self.churn_concepts.len()) {
                    concepts.insert(
                        self.churn_concepts[rng.gen_range(0..self.churn_concepts.len())].clone(),
                    );
                }
                let mut deltas = Vec::new();
                for (k, concept) in concepts.into_iter().enumerate() {
                    deltas.push(Delta::PoolRemove {
                        concept: concept.clone(),
                        occurrence: 0,
                    });
                    deltas.push(Delta::PoolInsert {
                        instance: AnnotatedInstance::synthetic(
                            Value::text(format!("perfbench-{}-{i}-{k}", self.seed)),
                            concept,
                        ),
                    });
                }
                deltas
            }
        }
    }
}

/// The repository plan of healthy workflows the workloads draw from.
pub fn repository_plan(healthy: usize, seed: u64) -> RepositoryPlan {
    RepositoryPlan {
        healthy,
        equivalent_full: 0,
        equivalent_partial: 0,
        overlap_full: 0,
        overlap_partial: 0,
        overlap_odd: 0,
        none_only: 0,
        seed,
    }
}

/// A response shortened for failure messages.
fn brief(resp: &Response) -> String {
    let s = format!("{resp:?}");
    s.chars().take(160).collect()
}

/// One client connection speaking the `dexd` frame protocol.
pub struct Conn {
    stream: UnixStream,
}

impl Conn {
    pub fn connect(path: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(path)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream })
    }

    /// Sends one request and waits for its reply; returns the reply and
    /// its payload size in bytes.
    pub fn call(&mut self, req: &Request) -> io::Result<(Response, usize)> {
        let json = serde_json::to_string(req).map_err(invalid)?;
        write_frame(&mut self.stream, json.as_bytes())?;
        let payload = read_frame(&mut self.stream)?;
        Ok((decode(&payload)?, payload.len()))
    }

    /// [`Conn::call`] with one span per client-side step under `root`.
    pub fn call_traced(
        &mut self,
        req: &Request,
        spans: &mut SpanBuf,
        root: &Open,
    ) -> io::Result<(Response, usize)> {
        let json = spans
            .time("client.encode", root, || serde_json::to_string(req))
            .map_err(invalid)?;
        let stream = &mut self.stream;
        spans.time("client.send", root, || write_frame(stream, json.as_bytes()))?;
        let payload = spans.time("client.wait_reply", root, || read_frame(stream))?;
        let resp = spans.time("client.decode", root, || decode(&payload))?;
        Ok((resp, payload.len()))
    }
}

fn invalid(e: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.to_string())
}

fn decode(payload: &[u8]) -> io::Result<Response> {
    let text = std::str::from_utf8(payload).map_err(invalid)?;
    serde_json::from_str(text).map_err(invalid)
}

/// A `dexd` child process. Dropping it kills the process if it is still
/// running and waits for it.
pub struct Daemon {
    child: Child,
}

impl Daemon {
    /// Launches `dexd` over the seed's world and waits for its first
    /// `Stats` reply. Returns the daemon, the connection that got the
    /// reply, and the launch-to-reply time in seconds.
    pub fn spawn(dexd: &Path, seed: u64, sock: &Path) -> Result<(Daemon, Conn, f64), String> {
        let t = Instant::now();
        let child = Command::new(dexd)
            .arg("--socket")
            .arg(sock)
            .args(["--scale", &SCALE.to_string(), "--seed", &seed.to_string()])
            .env_remove("DEX_TELEMETRY")
            .env_remove("DEX_TELEMETRY_OUT")
            .env_remove("DEX_TRACE_OUT")
            .env_remove("DEX_FLIGHT_OUT")
            .env_remove("DEX_LOG")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", dexd.display()))?;
        let mut daemon = Daemon { child };
        let mut conn = loop {
            if let Ok(Some(status)) = daemon.child.try_wait() {
                return Err(format!("dexd exited during start-up: {status}"));
            }
            match Conn::connect(sock) {
                Ok(c) => break c,
                Err(_) if t.elapsed() < Duration::from_secs(120) => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(format!("dexd never accepted on {}: {e}", sock.display())),
            }
        };
        match conn.call(&Request::Stats) {
            Ok((Response::Stats(_), _)) => Ok((daemon, conn, t.elapsed().as_secs_f64())),
            Ok((other, _)) => Err(format!("first Stats answered {}", brief(&other))),
            Err(e) => Err(format!("first Stats: {e}")),
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `Shutdown` on `conn` (every other connection must be closed
    /// first) and waits for the process to exit.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let answer = conn.call(&Request::Shutdown);
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("dexd exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return Err("dexd did not stop after Shutdown".to_string()),
            }
        }
        match answer {
            Ok((Response::ShuttingDown, _)) => Ok(()),
            Ok((other, _)) => Err(format!("Shutdown answered {}", brief(&other))),
            Err(e) => Err(format!("Shutdown: {e}")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Client-side accounting of one connection.
#[derive(Default)]
pub struct Ledger {
    /// Requests sent (warm-up included).
    pub attempted: u64,
    /// Failed requests: errors, `Busy`, wrong replies, socket errors.
    pub failures: Vec<String>,
    pub failed: u64,
    /// Replies other than `Busy` (what the daemon counts as served).
    pub served: u64,
    pub busy: u64,
    pub deltas_applied: u64,
}

impl Ledger {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 10 {
            self.failures.push(what);
        }
    }

    fn absorb(&mut self, other: Ledger) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.served += other.served;
        self.busy += other.busy;
        self.deltas_applied += other.deltas_applied;
        self.failures.extend(other.failures);
    }

    /// Counts one reply in the daemon's terms.
    fn count(&mut self, resp: &Response) {
        match resp {
            Response::Busy => self.busy += 1,
            Response::DeltaApplied(_) => {
                self.served += 1;
                self.deltas_applied += 1;
            }
            _ => self.served += 1,
        }
    }

    pub fn into_report(self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
        for f in self.failures {
            if report.failures.len() < 20 {
                report.failures.push(f);
            }
        }
    }
}

/// What one closed-loop reader measured.
#[derive(Default)]
pub struct ReadLog {
    pub ledger: Ledger,
    /// Latency per read kind (ns), timed window only.
    pub lat_ns: [Vec<u64>; 4],
    /// `(start, end)` of each timed read, ns from the run origin.
    pub intervals: Vec<(u64, u64)>,
    /// Correct replies inside the timed window.
    pub correct_in_window: u64,
    pub reply_bytes: u64,
    pub replies_in_window: u64,
    /// `(start, end)` of each traced read, timed window only.
    pub traced: Vec<(u64, u64)>,
    pub spans: Vec<Span>,
}

/// Sends the read mix closed-loop on `conn` until `end`; reads that start
/// before `window` are warm-up and untimed. When `spans` records, every
/// n-th read records client-side spans and is kept out of the latencies.
#[allow(clippy::too_many_arguments)]
pub fn read_loop(
    conn: &mut Conn,
    world: &ClientWorld,
    mut rng: StdRng,
    origin: Instant,
    window: Instant,
    end: Instant,
    intact: bool,
    traced: bool,
    mut spans: SpanBuf,
) -> ReadLog {
    let mut log = ReadLog::default();
    let mut n = 0u64;
    let mut epoch = 0u64;
    let mut order = world.hot_order(epoch);
    loop {
        let now = Instant::now();
        if now >= end {
            break;
        }
        let now_epoch =
            (now.saturating_duration_since(window).as_nanos() / HOT_EPOCH.as_nanos()) as u64;
        if now_epoch != epoch {
            epoch = now_epoch;
            order = world.hot_order(epoch);
        }
        let (kind, req) = world.draw_read(&mut rng, &order);
        n += 1;
        let this_traced = traced && n.is_multiple_of(TRACE_EVERY);
        let start = ns_since(origin);
        let result = if this_traced {
            let root = spans.root(request_span(kind));
            let out = conn.call_traced(&req, &mut spans, &root);
            spans.close(root);
            out
        } else {
            conn.call(&req)
        };
        let stop = ns_since(origin);
        log.ledger.attempted += 1;
        let timed = now >= window;
        match result {
            Ok((resp, bytes)) => {
                log.ledger.count(&resp);
                match world.check_read(&req, &resp, intact) {
                    Ok(()) if timed && this_traced => {
                        log.correct_in_window += 1;
                        log.traced.push((start, stop));
                    }
                    Ok(()) if timed => {
                        log.correct_in_window += 1;
                        log.lat_ns[kind as usize].push(stop - start);
                        log.intervals.push((start, stop));
                        log.reply_bytes += bytes as u64;
                        log.replies_in_window += 1;
                    }
                    Ok(()) => {}
                    Err(e) => log.ledger.fail(e),
                }
            }
            Err(e) => {
                log.ledger
                    .fail(format!("{} socket error: {e}", kind.name()));
                break;
            }
        }
    }
    log.spans = spans.into_spans();
    log
}

fn request_span(kind: Kind) -> &'static str {
    match kind {
        Kind::Substitutes => "request.substitutes",
        Kind::Annotate => "request.annotate",
        Kind::Validate => "request.validate",
        Kind::Stats => "request.stats",
    }
}

/// What the open-loop delta generator measured.
#[derive(Default)]
pub struct ChurnLog {
    pub ledger: Ledger,
    /// Reply time minus due time, ms.
    pub due_lat_ms: Vec<f64>,
    /// Send time minus due time, ms.
    pub late_ms: Vec<f64>,
    /// `(send, reply)` of each batch, ns from the run origin.
    pub intervals: Vec<(u64, u64)>,
    /// Applied batches in order, with the daemon's accounting.
    pub applied: Vec<(Vec<Delta>, DeltaReport)>,
    /// Every module withdrawn at some point.
    pub touched: BTreeSet<String>,
    pub spans: Vec<Span>,
}

/// Sends delta batches on a fixed schedule from `start` until `end`: batch
/// `i` is due at `start + i * period` whatever happened before it, and its
/// latency is timed from that due time.
#[allow(clippy::too_many_arguments)]
pub fn churn_loop(
    conn: &mut Conn,
    world: &ClientWorld,
    mut rng: StdRng,
    origin: Instant,
    start: Instant,
    end: Instant,
    period: Duration,
    traced: bool,
    mut spans: SpanBuf,
) -> ChurnLog {
    let mut log = ChurnLog::default();
    let mut victims: Vec<String> = Vec::new();
    for i in 0.. {
        let due = start + period * i as u32;
        if due >= end {
            break;
        }
        let now = Instant::now();
        if now < due {
            std::thread::sleep(due - now);
        }
        let deltas = world.delta_batch(i, &mut rng, &mut victims);
        if i % 3 == 0 {
            log.touched.extend(victims.iter().cloned());
        }
        let req = Request::ApplyDelta { deltas };
        let sent = Instant::now();
        let send_ns = ns_since(origin);
        let result = if traced {
            let root = spans.root(delta_span(i));
            let out = conn.call_traced(&req, &mut spans, &root);
            spans.close(root);
            out
        } else {
            conn.call(&req)
        };
        let reply_ns = ns_since(origin);
        log.ledger.attempted += 1;
        log.late_ms
            .push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        match result {
            Ok((resp, _)) => {
                log.ledger.count(&resp);
                match resp {
                    Response::DeltaApplied(report) => {
                        log.due_lat_ms.push(due.elapsed().as_secs_f64() * 1e3);
                        log.intervals.push((send_ns, reply_ns));
                        let Request::ApplyDelta { deltas } = req else {
                            unreachable!("built as ApplyDelta")
                        };
                        log.applied.push((deltas, report));
                    }
                    other => log
                        .ledger
                        .fail(format!("ApplyDelta answered {}", brief(&other))),
                }
            }
            Err(e) => {
                log.ledger.fail(format!("ApplyDelta socket error: {e}"));
                break;
            }
        }
    }
    log.spans = spans.into_spans();
    log
}

fn delta_span(i: usize) -> &'static str {
    match i % 3 {
        0 => "request.delta_withdraw",
        1 => "request.delta_restore",
        _ => "request.delta_pool",
    }
}

/// Full slices in a window of length `window`.
fn slice_count(window: Duration) -> usize {
    ((window.as_secs_f64() / SLICE.as_secs_f64()).floor() as usize).max(1)
}

/// Per full slice of the window: correct reads per second, and the p50 and
/// p99 latency (µs) of the untraced reads that started in it.
fn slice_stats(reads: &[&ReadLog], window_ns: u64, window_s: f64) -> Vec<(f64, f64, f64)> {
    let slices = slice_count(Duration::from_secs_f64(window_s));
    let slice_ns = SLICE.as_nanos() as u64;
    let mut count = vec![0u64; slices];
    let mut lat: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let slot = |start: u64| {
        let k = (start.saturating_sub(window_ns) / slice_ns) as usize;
        (k < slices).then_some(k)
    };
    for log in reads {
        for &(a, b) in &log.intervals {
            if let Some(k) = slot(a) {
                count[k] += 1;
                lat[k].push((b - a) as f64 / 1e3);
            }
        }
        for &(a, _) in &log.traced {
            if let Some(k) = slot(a) {
                count[k] += 1;
            }
        }
    }
    count
        .iter()
        .zip(lat.iter_mut())
        .map(|(&n, l)| {
            l.sort_by(f64::total_cmp);
            (
                n as f64 / SLICE.as_secs_f64(),
                quantile(l, 0.5),
                quantile(l, 0.99),
            )
        })
        .collect()
}

/// Latencies (µs) of reads that overlap an in-flight delta batch.
pub fn reads_during_deltas(reads: &[(u64, u64)], deltas: &[(u64, u64)]) -> Vec<f64> {
    let mut deltas = deltas.to_vec();
    deltas.sort_unstable();
    reads
        .iter()
        .filter(|&&(a, b)| {
            let i = deltas.partition_point(|&(_, e)| e <= a);
            deltas.get(i).is_some_and(|&(s, _)| s < b)
        })
        .map(|&(a, b)| (b - a) as f64 / 1e3)
        .collect()
}

/// Options of one serving run.
pub struct ServeOpts<'a> {
    pub dexd: &'a Path,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub out_dir: &'a Path,
}

/// Runs `serve_read`. Returns the client-side spans and
/// the tracing overhead (%): p50 of the traced reads over p50 of the
/// untraced reads of the same window.
pub fn run(opts: &ServeOpts, report: &mut Report) -> Result<(Vec<Span>, f64), String> {
    let world = ClientWorld::build(SCALE, opts.seed);
    report.note(format!(
        "  world: {} tracked modules, {} workflows, seed {}",
        world.ids.len(),
        world.workflows.len(),
        opts.seed
    ));

    let sock = |k: usize| -> PathBuf {
        opts.out_dir
            .join(format!("dexd-{}-{k}.sock", std::process::id()))
    };
    let mut setups = Vec::new();
    for k in 0..SETUP_SPAWNS - 1 {
        let meter = StealMeter::start();
        let (daemon, conn, s) = Daemon::spawn(opts.dexd, opts.seed, &sock(k))?;
        setups.push((s, meter.share()));
        daemon.shutdown(conn)?;
    }
    let meter = StealMeter::start();
    let (daemon, conn_a, s) = Daemon::spawn(opts.dexd, opts.seed, &sock(SETUP_SPAWNS - 1))?;
    setups.push((s, meter.share()));
    let setup_s = calm_median(&setups);
    let mut conn_b = Conn::connect(&sock(SETUP_SPAWNS - 1)).map_err(|e| e.to_string())?;
    let mut conn_a = conn_a;

    let origin = Instant::now();
    let window = origin + WARMUP;
    let end = window + Duration::from_secs_f64(opts.seconds);
    let seed = opts.seed;
    let mut steal: Vec<f64> = Vec::new();
    let reader = |conn: &mut Conn, salt: u64, track: u64| {
        read_loop(
            conn,
            &world,
            StdRng::seed_from_u64(seed ^ salt),
            origin,
            window,
            end,
            true,
            opts.traced,
            SpanBuf::new(opts.traced, track, origin),
        )
    };
    let (mut log_a, log_b) = std::thread::scope(|s| {
        let a = s.spawn(|| reader(&mut conn_a, 0xA11, 1));
        let b = s.spawn(|| reader(&mut conn_b, 0xB22, 2));
        // Host steal per slice, measured from slice boundary to boundary.
        let mut meter = StealMeter::start();
        for k in 1..=slice_count(end - window) {
            let boundary = window + SLICE * k as u32;
            let now = Instant::now();
            if boundary > now {
                std::thread::sleep(boundary - now);
            }
            steal.push(meter.share());
            meter = StealMeter::start();
        }
        (
            a.join().expect("reader thread"),
            b.join().expect("reader thread"),
        )
    });
    let window_s = (end - window).as_secs_f64();

    // ---- Read latencies. -------------------------------------------------
    let reads: Vec<&ReadLog> = vec![&log_a, &log_b];
    let read = Summary::of(
        &reads
            .iter()
            .flat_map(|l| l.intervals.iter().map(|&(a, b)| (b - a) as f64 / 1e3))
            .collect::<Vec<_>>(),
    );
    let traced_reads = Summary::of(
        &reads
            .iter()
            .flat_map(|l| l.traced.iter().map(|&(a, b)| (b - a) as f64 / 1e3))
            .collect::<Vec<_>>(),
    );
    let correct: u64 = reads.iter().map(|l| l.correct_in_window).sum();
    let read_rps = correct as f64 / window_s;
    let sliced = slice_stats(&reads, WARMUP.as_nanos() as u64, window_s);

    report.note("  -- end to end (tracing off)");
    report.info("read_rps", read_rps, "req/s");
    report.info("read_p50_us", read.p50, "us");
    report.info("read_p99_us", read.p99, "us");
    report.note(format!("  {:<34} {}", "read latency", read.describe("us")));
    for kind in READ_KINDS {
        let lat: Vec<f64> = reads
            .iter()
            .flat_map(|l| l.lat_ns[kind as usize].iter().map(|&ns| ns as f64 / 1e3))
            .collect();
        let s = Summary::of(&lat);
        report.info(&format!("{}_p50_us", kind.name()), s.p50, "us");
        report.note(format!(
            "  {:<34} {}",
            format!("{} latency", kind.name()),
            s.describe("us")
        ));
    }
    let bytes: u64 = reads.iter().map(|l| l.reply_bytes).sum();
    let replies: u64 = reads.iter().map(|l| l.replies_in_window).sum();
    report.info(
        "reply_bytes_mean",
        bytes as f64 / replies.max(1) as f64,
        "bytes",
    );

    let mut ledger = Ledger::default();
    // The first Stats of the serving daemon was answered and counted.
    ledger.served += 1;
    let mut spans = std::mem::take(&mut log_a.spans);
    spans.extend(log_b.spans);
    ledger.absorb(log_a.ledger);
    ledger.absorb(log_b.ledger);

    // ---- Churn phase: after the window, one connection keeps reading
    // while the other sends delta batches open-loop; then the delta log
    // is replayed on a replica. Not part of the gated figures.
    let start = Instant::now();
    let stop = start + CHURN_PHASE;
    let (reader, mut churn) = std::thread::scope(|s| {
        let world = &world;
        let r = s.spawn(|| {
            read_loop(
                &mut conn_a,
                world,
                StdRng::seed_from_u64(seed ^ 0xA12),
                origin,
                start,
                stop,
                false,
                false,
                SpanBuf::new(false, 1, origin),
            )
        });
        let c = s.spawn(|| {
            churn_loop(
                &mut conn_b,
                world,
                StdRng::seed_from_u64(seed ^ 0xC4A),
                origin,
                start,
                stop,
                DELTA_PERIOD,
                opts.traced,
                // Track 4: tracks 1 and 2 are the window's readers, 3 the
                // layer probes; span ids are unique per track.
                SpanBuf::new(opts.traced, 4, origin),
            )
        });
        (
            r.join().expect("churn reader thread"),
            c.join().expect("churn thread"),
        )
    });
    spans.append(&mut churn.spans);
    report.note("  -- churn phase (after the window, not gated)");
    let d = Summary::of(&churn.due_lat_ms);
    report.info("delta_p50_ms", d.p50, "ms");
    report.info("delta_p95_ms", d.p95, "ms");
    report.note(format!(
        "  {:<34} {}",
        "delta latency from due time",
        d.describe("ms")
    ));
    let late = Summary::of(&churn.late_ms);
    report.info("churn.generator_late_ms", late.max, "ms");
    report.note(format!(
        "  {:<34} {}",
        "generator lateness",
        late.describe("ms")
    ));
    let during = Summary::of(&reads_during_deltas(&reader.intervals, &churn.intervals));
    report.info("churn.read_during_delta_p99_us", during.p99, "us");
    report.note(format!(
        "  {:<34} {}",
        "reads overlapping a delta",
        during.describe("us")
    ));
    report.note(format!(
        "  delta schedule: open loop, one batch per {} ms; {} batches applied",
        DELTA_PERIOD.as_millis(),
        churn.applied.len()
    ));
    ledger.absorb(reader.ledger);
    ledger.absorb(std::mem::take(&mut churn.ledger));
    replica_check(&mut conn_a, world, &churn, &mut ledger, report)?;

    // ---- Ledger reconciliation and memory. -------------------------------
    drop(conn_b);
    let (stats, _) = conn_a
        .call(&Request::Stats)
        .map_err(|e| format!("final Stats: {e}"))?;
    let Response::Stats(stats) = stats else {
        return Err(format!("final Stats answered {}", brief(&stats)));
    };
    reconcile(&stats, &ledger, report);
    let rss = peak_rss_mb(Some(daemon.pid())).ok_or("daemon VmHWM unreadable")?;
    daemon.shutdown(conn_a)?;
    ledger.into_report(report);

    report.note("  -- gated metrics");
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", rss, "MB");
    let calm = |f: fn(&(f64, f64, f64)) -> f64| -> f64 {
        calm_median(
            &sliced
                .iter()
                .zip(&steal)
                .map(|(x, &st)| (f(x), st))
                .collect::<Vec<_>>(),
        )
    };
    report.metric("throughput_per_s", calm(|x| x.0), "1/s");
    report.metric("p50_ms", calm(|x| x.1) / 1e3, "ms");
    report.metric("tail_ms", calm(|x| x.2) / 1e3, "ms");
    report.note(format!(
        "  per-slice req/s: {}",
        sliced
            .iter()
            .map(|s| format!("{:.0}", s.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "  per-slice read p99 us: {}",
        sliced
            .iter()
            .map(|s| format!("{:.0}", s.2))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "  per-slice host steal %: {}",
        steal
            .iter()
            .map(|s| format!("{:.0}", s * 100.0))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "  (medians over the calm slices of {} x {} s: the least stolen half, and any with <= 1% steal)",
        sliced.len(),
        SLICE.as_secs_f64()
    ));
    report.note(format!(
        "  set-up samples, s (host steal %): {}",
        setups
            .iter()
            .map(|(s, st)| format!("{s:.3} ({:.0})", st * 100.0))
            .collect::<Vec<_>>()
            .join(", ")
    ));

    Ok((spans, (traced_reads.p50 / read.p50 - 1.0) * 100.0))
}

/// Replays the applied delta log on a fresh replica and compares sampled
/// daemon answers (and the daemon's per-batch accounting) with it.
fn replica_check(
    conn: &mut Conn,
    mut world: ClientWorld,
    churn: &ChurnLog,
    ledger: &mut Ledger,
    report: &mut Report,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(world.seed ^ 0x5EED);
    let mut sample: BTreeSet<String> = churn
        .touched
        .iter()
        .take(REPLICA_SAMPLES / 2)
        .cloned()
        .collect();
    let order = world.hot_order(0);
    while sample.len() < REPLICA_SAMPLES.min(world.ids.len()) {
        sample.insert(world.hot_id(&mut rng, &order));
    }
    let mut answers = Vec::new();
    for id in &sample {
        for req in [
            Request::FindSubstitutes { id: id.clone() },
            Request::AnnotateModule { id: id.clone() },
        ] {
            ledger.attempted += 1;
            let (resp, _) = conn
                .call(&req)
                .map_err(|e| format!("replica sample: {e}"))?;
            ledger.count(&resp);
            answers.push((req, resp));
        }
    }

    let t = Instant::now();
    let universe = world.universe.take().expect("world still owned");
    let pool = world.pool.take().expect("world still owned");
    let mut replica = IncrementalPipeline::bootstrap(universe, pool, GenerationConfig::default());
    let mut report_mismatches = 0;
    for (k, (deltas, daemon_report)) in churn.applied.iter().enumerate() {
        let ours = replica.apply(deltas);
        report.check(&ours == daemon_report, || {
            format!("delta batch {k}: daemon accounting {daemon_report:?} != replica {ours:?}")
        });
        if &ours != daemon_report {
            report_mismatches += 1;
        }
    }
    let mut mismatches = 0;
    for (req, resp) in &answers {
        let expected = match req {
            Request::FindSubstitutes { id } => expected_substitutes(&replica, id),
            Request::AnnotateModule { id } => expected_annotation(&replica, id),
            _ => unreachable!("only substitutes and annotations are sampled"),
        };
        let ok = &expected == resp;
        if !ok {
            mismatches += 1;
        }
        report.check(ok, || {
            format!(
                "{} diverged from the replica: daemon {} vs replica {}",
                req.endpoint(),
                brief(resp),
                brief(&expected)
            )
        });
    }
    report.note(format!(
        "  replica check: {} batches replayed in {:.0} ms, {} sampled answers compared, {} answer and {} accounting mismatches",
        churn.applied.len(),
        t.elapsed().as_secs_f64() * 1e3,
        answers.len(),
        mismatches,
        report_mismatches
    ));
    Ok(())
}

/// The `FindSubstitutes` reply `dexd` builds from a pipeline.
pub fn expected_substitutes(p: &IncrementalPipeline, id: &str) -> Response {
    match p.substitutes(&ModuleId(id.to_string())) {
        None => Response::Error {
            message: format!("module `{id}` is not tracked by this registry"),
        },
        Some(answer) => Response::Substitutes(SubstitutesReply {
            id: id.to_string(),
            available: answer.available,
            candidates_compared: answer.candidates_compared,
            ranked: answer.ranked.into_iter().map(|(m, v)| (m.0, v)).collect(),
        }),
    }
}

/// The `AnnotateModule` reply `dexd` builds from a pipeline.
pub fn expected_annotation(p: &IncrementalPipeline, id: &str) -> Response {
    match p.annotation(&ModuleId(id.to_string())) {
        None => Response::Error {
            message: format!("module `{id}` is not tracked by this registry"),
        },
        Some((available, outcome)) => Response::Annotation(AnnotationReply {
            id: id.to_string(),
            available,
            examples: outcome.as_ref().ok().map(|r| r.examples.clone()),
            error: outcome.as_ref().err().map(|e| e.to_string()),
            invocations: outcome.as_ref().map(|r| r.invocations).unwrap_or(0),
            transient_failures: outcome.as_ref().map(|r| r.transient_failures).unwrap_or(0),
        }),
    }
}

/// Compares the daemon's own counters with what the clients saw.
fn reconcile(stats: &StatsReply, ledger: &Ledger, report: &mut Report) {
    let rows = [
        ("requests_served", stats.requests_served, ledger.served),
        (
            "deltas_applied",
            stats.deltas_applied,
            ledger.deltas_applied,
        ),
        ("busy_rejections", stats.busy_rejections, ledger.busy),
    ];
    for (name, daemon, client) in rows {
        let diff = daemon as i64 - client as i64;
        report.note(format!(
            "  ledger {name:<18} daemon {daemon:>9}  client {client:>9}  difference {diff:+}"
        ));
    }
    report.note(format!(
        "  daemon: {} batch passes, {} coalesced lookups, {} handler panics, cache hit rate {:.4}",
        stats.batch_passes, stats.coalesced_lookups, stats.handler_panics, stats.cache_hit_rate
    ));
}
