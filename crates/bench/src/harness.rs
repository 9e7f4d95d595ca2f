//! The one harness every `bench_*` report binary runs through: command-line
//! parsing, repeated wall-clock timing, serde-written reports, and
//! performance gates declared once as data.
//!
//! A binary parses its flags into a [`Bench`], times its workloads with
//! [`timed`], [`measure`] or [`interleave`], declares each contract with
//! [`Bench::gate`] as `(metric, op, bound, value)`, and ends with
//! [`Bench::finish`]: the gate table is printed, the report (with its
//! `gates` record) is always written, and only then does the process exit 1
//! if any gate failed.

use serde::Serialize;
use std::str::FromStr;
use std::time::Instant;

/// `"release"` or `"debug"`, recorded in every report so debug-build
/// numbers are never mistaken for measurements.
pub fn profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Hardware threads of the host (4 when the platform cannot say).
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(4, |n| n.get())
}

// ---------------------------------------------------------------------------
// Timing
// ---------------------------------------------------------------------------

/// Wall-clock milliseconds of one call of `f`, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64() * 1_000.0)
}

/// Per-call wall-clock samples in milliseconds, one per round.
#[derive(Debug)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// The fastest sample: the floor a workload reaches once allocator and
    /// scheduling noise stay out of the way.
    pub fn min(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The upper median sample.
    pub fn median(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2]
    }
}

/// One sample: per-call milliseconds over `batch` back-to-back calls, and
/// the last call's result, which the caller drops after the clock stopped.
fn sample<T>(batch: usize, f: &mut impl FnMut() -> T) -> (f64, T) {
    assert!(batch > 0, "a sample needs at least one call");
    let start = Instant::now();
    let mut out = f();
    for _ in 1..batch {
        out = f();
    }
    (start.elapsed().as_secs_f64() * 1_000.0 / batch as f64, out)
}

/// Times `rounds` samples of `batch` calls of `f`. Returns the samples and
/// the last call's result; every result is dropped outside the clock.
pub fn measure<T>(rounds: usize, batch: usize, mut f: impl FnMut() -> T) -> (Samples, T) {
    let mut samples = Vec::with_capacity(rounds);
    let mut last = None;
    for _ in 0..rounds {
        let (ms, out) = sample(batch, &mut f);
        samples.push(ms);
        last = Some(out);
    }
    (Samples(samples), last.expect("at least one round"))
}

/// Times several legs round by round, one sample of `batch` calls per leg
/// per round, so slow machine drift (frequency scaling, background load)
/// lands on all legs alike. With `alternate`, odd rounds run the legs in
/// reverse order, so whatever cost a position in the round carries (page
/// cache, allocator debris from the previous leg) is shared too.
pub fn interleave<const N: usize>(
    rounds: usize,
    batch: usize,
    alternate: bool,
    mut legs: [&mut dyn FnMut(); N],
) -> [Samples; N] {
    let mut samples: [Vec<f64>; N] = std::array::from_fn(|_| Vec::with_capacity(rounds));
    for round in 0..rounds {
        for pos in 0..N {
            let leg = if alternate && round % 2 == 1 {
                N - 1 - pos
            } else {
                pos
            };
            samples[leg].push(sample(batch, &mut legs[leg]).0);
        }
    }
    samples.map(Samples)
}

// ---------------------------------------------------------------------------
// Gates
// ---------------------------------------------------------------------------

/// A gate's comparison: `value OP bound` must hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `value < bound`
    Lt,
    /// `value <= bound`
    Le,
    /// `value == bound`
    Eq,
    /// `value >= bound`
    Ge,
    /// `value > bound`
    Gt,
}

impl Op {
    /// The operator as written in reports and the gate table.
    fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Eq => "==",
            Op::Ge => ">=",
            Op::Gt => ">",
        }
    }

    /// Whether `value OP bound` holds. A NaN value (a metric that could not
    /// be measured) fails every op.
    fn holds(self, value: f64, bound: f64) -> bool {
        match self {
            Op::Lt => value < bound,
            Op::Le => value <= bound,
            Op::Eq => value == bound,
            Op::Ge => value >= bound,
            Op::Gt => value > bound,
        }
    }
}

/// One evaluated gate, as recorded in a report's `gates` array.
#[derive(Debug, Serialize)]
pub struct Gate {
    /// What was measured, `field@rows` style.
    pub metric: String,
    /// The comparison: `<`, `<=`, `==`, `>=` or `>`.
    pub op: &'static str,
    /// The bound the value is held to.
    pub bound: f64,
    /// The measured value (`null` in the report when it could not be
    /// measured).
    pub value: f64,
    /// Whether `value op bound` held.
    pub pass: bool,
}

// ---------------------------------------------------------------------------
// The running bench
// ---------------------------------------------------------------------------

/// A running bench binary: its command line and the gates it has declared.
#[derive(Debug)]
pub struct Bench {
    name: &'static str,
    out: String,
    given: Vec<(String, Option<String>)>,
    gates: Vec<Gate>,
}

impl Bench {
    /// Parses the process arguments of the binary `name` against the
    /// `flags` it accepts. A flag written with a trailing `=` (`"--scale="`)
    /// takes a value, as `--scale N` or `--scale=N`; any other flag is a
    /// switch (`--name=VALUE` is kept for switches whose value another
    /// reader parses, like `--telemetry=OUT`). The last argument that is
    /// not a flag is the report path, by default `BENCH_<suffix>.json` for
    /// a binary named `bench_<suffix>`. An unknown flag or a missing value
    /// exits 2.
    pub fn from_env(name: &'static str, flags: &[&str]) -> Bench {
        Bench::parse(name, flags, std::env::args().skip(1)).unwrap_or_else(|e| {
            eprintln!("{name}: {e}");
            std::process::exit(2);
        })
    }

    /// [`Bench::from_env`] over `args`, with the error returned.
    fn parse(
        name: &'static str,
        flags: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Bench, String> {
        let suffix = name.strip_prefix("bench_").unwrap_or(name);
        let mut out = format!("BENCH_{suffix}.json");
        let mut given = Vec::new();
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            if !arg.starts_with("--") {
                out = arg;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((flag, value)) => (flag.to_string(), Some(value.to_string())),
                None => (arg.clone(), None),
            };
            let value = if flags.contains(&format!("{flag}=").as_str()) {
                Some(match inline {
                    Some(value) => value,
                    None => args.next().ok_or(format!("{flag} needs a value"))?,
                })
            } else if flags.contains(&flag.as_str()) {
                inline
            } else {
                return Err(format!("unknown argument `{arg}`"));
            };
            given.push((flag, value));
        }
        Ok(Bench {
            name,
            out,
            given,
            gates: Vec::new(),
        })
    }

    /// Whether the flag `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, _)| f == flag)
    }

    /// Whether `--ci` was given.
    pub fn ci(&self) -> bool {
        self.has("--ci")
    }

    /// The last value given for `flag`, or `default`; an unparsable value
    /// exits 2.
    pub fn value<T: FromStr>(&self, flag: &str, default: T) -> T {
        let given = self.given.iter().rev().find(|(f, _)| f == flag);
        let Some(raw) = given.and_then(|(_, v)| v.as_deref()) else {
            return default;
        };
        raw.parse().unwrap_or_else(|_| {
            eprintln!("{}: {flag}: cannot parse `{raw}`", self.name);
            std::process::exit(2);
        })
    }

    /// Declares a gate: `value op bound` must hold.
    pub fn gate(&mut self, metric: impl Into<String>, op: Op, bound: f64, value: f64) {
        self.gates.push(Gate {
            metric: metric.into(),
            op: op.symbol(),
            bound,
            value,
            pass: op.holds(value, bound),
        });
    }

    /// Prints the gate table, builds the report from the evaluated gates,
    /// writes it as pretty JSON (to the report path, and to stdout), and
    /// then exits 1 if a gate failed or the report could not be written.
    pub fn finish<R: Serialize>(self, report: impl FnOnce(Vec<Gate>) -> R) {
        let name = self.name;
        let passed = self.gates.iter().all(|g| g.pass);
        let width = self.gates.iter().map(|g| g.metric.len()).max();
        if let Some(width) = width {
            eprintln!("{name} gates:");
            for g in &self.gates {
                let status = if g.pass { "pass" } else { "FAIL" };
                let (metric, value, op, bound) = (&g.metric, g.value, g.op, g.bound);
                eprintln!("  {status}  {metric:<width$}  {value:.4} {op} {bound}");
            }
        }
        let json = serde_json::to_string_pretty(&report(self.gates)).expect("report serializes");
        if let Err(e) = std::fs::write(&self.out, json.clone() + "\n") {
            eprintln!("{name}: cannot write {}: {e}", self.out);
            std::process::exit(1);
        }
        println!("{json}");
        eprintln!("wrote {}", self.out);
        if !passed {
            eprintln!("{name}: gate failed");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Bench, String> {
        let flags = ["--ci", "--scale=", "--telemetry"];
        Bench::parse("bench_test", &flags, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_switches_values_and_the_report_path() {
        let b = parse(&["--ci", "--scale", "7", "OUT.json"]).unwrap();
        assert!(b.ci());
        assert_eq!(
            (b.value("--scale", 0usize), b.out.as_str()),
            (7, "OUT.json")
        );
        let b = parse(&["--scale=9", "--telemetry=T.json"]).unwrap();
        assert!(!b.ci() && b.has("--telemetry"));
        assert_eq!(
            (b.value("--scale", 0usize), b.out.as_str()),
            (9, "BENCH_test.json")
        );
        assert_eq!(b.value("--missing", 3u32), 3);
        assert!(parse(&["--smoke"]).unwrap_err().contains("--smoke"));
        assert!(parse(&["--scale"]).unwrap_err().contains("needs a value"));
    }

    #[test]
    fn every_op_compares_value_against_bound() {
        // Expected outcome for values above, at and below a bound of 1.0.
        let cases = [
            (Op::Lt, [false, false, true]),
            (Op::Le, [false, true, true]),
            (Op::Eq, [false, true, false]),
            (Op::Ge, [true, true, false]),
            (Op::Gt, [true, false, false]),
        ];
        for (op, expected) in cases {
            for (value, want) in [2.0, 1.0, 0.5].into_iter().zip(expected) {
                assert_eq!(op.holds(value, 1.0), want, "{value} {} 1", op.symbol());
            }
            assert!(!op.holds(f64::NAN, 1.0), "NaN must fail {}", op.symbol());
        }
    }

    #[test]
    fn measure_and_interleave_run_every_round() {
        let mut calls = 0;
        let (samples, last) = measure(3, 4, || {
            calls += 1;
            calls
        });
        assert_eq!((samples.0.len(), last), (3, 12));
        let s = Samples(vec![3.0, 1.0, 4.0, 2.0]);
        assert_eq!((s.min(), s.median()), (1.0, 3.0));

        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let [a, b] = interleave(2, 1, true, [&mut a, &mut b]);
        assert_eq!((a.0.len(), b.0.len()), (2, 2));
        assert_eq!(*order.borrow(), ['a', 'b', 'b', 'a']);
    }

    #[derive(Serialize)]
    struct Report {
        modules: usize,
        gates: Vec<Gate>,
    }

    /// Env var that turns the test below into the child process it spawns.
    const CHILD_OUT: &str = "DEX_BENCH_HARNESS_CHILD_OUT";

    #[test]
    fn a_failed_gate_exits_nonzero_after_writing_the_report() {
        if let Ok(out) = std::env::var(CHILD_OUT) {
            let mut bench = parse(&[&out]).unwrap();
            bench.gate("speedup@2500", Op::Ge, 10.0, 12.5);
            bench.gate("dirty_cell_ratio@2500", Op::Lt, 0.05, 0.5);
            bench.finish(|gates| Report {
                modules: 2500,
                gates,
            });
            unreachable!("finish must exit on a failed gate");
        }
        let out = std::env::temp_dir().join(format!("harness-exit-{}.json", std::process::id()));
        let status = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "harness::tests::a_failed_gate_exits_nonzero_after_writing_the_report",
            ])
            .env(CHILD_OUT, &out)
            .output()
            .unwrap()
            .status;
        let written = std::fs::read_to_string(&out);
        let _ = std::fs::remove_file(&out);
        assert_eq!(status.code(), Some(1));
        let written = written.expect("report written before the exit");
        for field in [
            "\"modules\": 2500",
            "\"metric\": \"speedup@2500\"",
            "\"pass\": true",
            "\"pass\": false",
        ] {
            assert!(written.contains(field), "{field} missing from {written}");
        }
    }
}
