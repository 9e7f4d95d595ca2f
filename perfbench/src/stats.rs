//! Sample summaries, process memory readings and seeded input helpers.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Percentiles tried, highest first, when reporting a latency tail.
const TAIL_CANDIDATES: [f64; 5] = [0.999, 0.99, 0.95, 0.9, 0.5];

/// Value at quantile `q` of an ascending slice, interpolating between the
/// two nearest ranks. `NaN` for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    quantile(&v, 0.5)
}

/// Mean of a sample (`NaN` when empty).
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// A latency sample reduced to what the report prints: its size, median,
/// p99, and the highest percentile with at least ten samples beyond it.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub top_q: f64,
    pub top: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let top_q = TAIL_CANDIDATES
            .iter()
            .copied()
            .find(|q| (n as f64) * (1.0 - q) >= 10.0)
            .unwrap_or(0.5);
        Summary {
            n,
            p50: quantile(&v, 0.5),
            p95: quantile(&v, 0.95),
            p99: quantile(&v, 0.99),
            top_q,
            top: quantile(&v, top_q),
            max: v.last().copied().unwrap_or(f64::NAN),
        }
    }

    /// `p50 … | pXX … (n=…)` in the given unit, for the human report.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.3} {unit} | p{} {:.3} {unit} | max {:.3} {unit} (n={})",
            self.p50,
            trim_q(self.top_q),
            self.top,
            self.max,
            self.n
        )
    }
}

fn trim_q(q: f64) -> String {
    let s = format!("{:.1}", q * 100.0);
    s.trim_end_matches(".0").to_string()
}

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Reads a `Vm*` field (kB) from `/proc/<pid>/status`; `None` for the
/// calling process.
pub fn proc_status_kb(pid: Option<u32>, field: &str) -> Option<u64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).ok()?;
    text.lines()
        .find(|l| l.starts_with(field))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

/// Peak resident set size (VmHWM), MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    proc_status_kb(pid, "VmHWM:").map(|kb| kb as f64 / 1024.0)
}

/// Current resident set size (VmRSS), bytes.
pub fn rss_bytes() -> Option<u64> {
    proc_status_kb(None, "VmRSS:").map(|kb| kb * 1024)
}

/// Host CPU time so far, from the aggregate `cpu` line of `/proc/stat`:
/// `(stolen, total)` in clock ticks. Stolen time is time the hypervisor ran
/// something else while this machine's CPUs had work.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let line = text.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}

/// Measures the host's steal share over an interval.
pub struct StealMeter(Option<(u64, u64)>);

impl StealMeter {
    pub fn start() -> StealMeter {
        StealMeter(cpu_ticks())
    }

    /// Stolen share of host CPU time since [`StealMeter::start`]; `NaN`
    /// when `/proc/stat` is unreadable or no tick has passed.
    pub fn share(&self) -> f64 {
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => f64::NAN,
        }
    }
}

/// Steal share up to which a sample counts as calm whatever the others.
const CALM_STEAL: f64 = 0.01;

/// The calm samples of `(value, steal share)` pairs: the least stolen
/// half (at least one sample), plus every other sample whose steal share is
/// at most 1% or no higher than the half's worst. Samples taken while the
/// hypervisor ran something else measure the host, not the program.
pub fn calm(samples: &[(f64, f64)]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.1.total_cmp(&b.1));
    let half = v.len().div_ceil(2);
    let Some(worst) = half.checked_sub(1).map(|i| v[i].1) else {
        return Vec::new();
    };
    let cutoff = worst.max(CALM_STEAL);
    v.iter()
        .enumerate()
        .filter(|(i, x)| *i < half || x.1 <= cutoff)
        .map(|(_, x)| x.0)
        .collect()
}

/// Median of the [`calm`] samples.
pub fn calm_median(samples: &[(f64, f64)]) -> f64 {
    median(&calm(samples))
}

/// Zipf-skewed (s = 1) ranks: rank `k` is drawn with weight `1 / (k + 1)`.
/// Callers map ranks to items through a [`permutation`], so the hot items
/// are spread over the id space rather than sorted first.
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 0..n {
            total += 1.0 / (k + 1) as f64;
            cumulative.push(total);
        }
        Zipf { cumulative }
    }

    /// One rank in `0..n`.
    pub fn rank(&self, rng: &mut StdRng) -> usize {
        let total = *self.cumulative.last().expect("non-empty support");
        let u = rng.gen::<f64>() * total;
        self.cumulative
            .partition_point(|&c| c < u)
            .min(self.cumulative.len() - 1)
    }
}

/// A seeded permutation of `0..n` (Fisher–Yates).
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        order.swap(i, j);
    }
    order
}
