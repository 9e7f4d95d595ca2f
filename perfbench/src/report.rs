//! What one run prints: a human-readable section naming every metric with
//! its unit, then, as the last line of standard output, one JSON object
//! with `correct`, `attempted`, `failed` and the gated `metrics`.

use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything a run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics that go into the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable lines (printed before the JSON line).
    pub lines: Vec<String>,
    /// Operations attempted (requests, deltas, waves, checks).
    pub attempted: u64,
    /// Attempts that failed: errors, `Busy`, wrong replies, socket errors
    /// and violated correctness checks.
    pub failed: u64,
    /// The first few failures, for the human report.
    pub failures: Vec<String>,
}

impl Report {
    /// Adds a metric to the JSON line and prints it by name.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines
            .push(format!("  {name:<34} {value:>14.4} {unit}"));
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Prints a value by name without putting it in the JSON line.
    pub fn info(&mut self, name: &str, value: f64, unit: &str) {
        self.lines
            .push(format!("  {name:<34} {value:>14.4} {unit}"));
    }

    /// Prints a free-form line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.lines.push(line.into());
    }

    /// Records one correctness check; a failed check counts as a failed
    /// attempt.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one failure that belongs to an attempt already counted.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 20 {
            self.failures.push(what);
        }
    }

    /// Failures over attempts.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // Non-finite values are not JSON; they already make the run
            // incorrect, so print them as null.
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }

    /// Prints the human section and then the JSON line.
    pub fn print(&self, title: &str) {
        println!("== {title}");
        for line in &self.lines {
            println!("{line}");
        }
        println!(
            "  {:<34} {:>14.6} ratio ({} failed / {} attempted)",
            "failed_frac",
            self.failed_frac(),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            println!("  FAILED: {f}");
        }
        println!("{}", self.json_line());
    }
}
