//! Metric values and the two ways a run reports them: the one-line
//! result the benchmark contract reads (last line of stdout) and the
//! fuller per-workload report file `compare` reads back.

use crate::json;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Ms,
    Us,
    S,
    PerS,
    SPerT,
    MiB,
    MbPerS,
    GflopsPerS,
    Ratio,
    Count,
    PerRequest,
}

impl Unit {
    pub fn as_str(self) -> &'static str {
        match self {
            Unit::Ms => "ms",
            Unit::Us => "us",
            Unit::S => "s",
            Unit::PerS => "1/s",
            Unit::SPerT => "s/T",
            Unit::MiB => "MiB",
            Unit::MbPerS => "MB/s",
            Unit::GflopsPerS => "GFLOP/s",
            Unit::Ratio => "ratio",
            Unit::Count => "count",
            Unit::PerRequest => "1/request",
        }
    }
}

/// One named measurement. `value` is `None` when it could not be
/// measured (a tail percentile with too few samples beyond it); `n` is
/// the sample count behind it, where one applies.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: Option<f64>,
    pub unit: Unit,
    pub n: Option<usize>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: Unit) -> Metric {
        Metric { name: name.into(), value: Some(value), unit, n: None }
    }

    pub fn maybe(name: impl Into<String>, value: Option<f64>, unit: Unit) -> Metric {
        Metric { name: name.into(), value, unit, n: None }
    }

    pub fn with_n(mut self, n: usize) -> Metric {
        self.n = Some(n);
        self
    }

    /// `"name": {"value": …, "unit": …[, "n": …]}`.
    fn json(&self, with_n: bool) -> String {
        let n = match self.n {
            Some(n) if with_n => format!(", \"n\": {n}"),
            _ => String::new(),
        };
        format!(
            "{}: {{\"value\": {}, \"unit\": {}{n}}}",
            json::string(&self.name),
            json::number(self.value),
            json::string(self.unit.as_str())
        )
    }
}

/// Everything one workload run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub attempted: usize,
    pub failed: usize,
    /// Run-level failures that are not a single request's: a failed
    /// reconciliation check, a metric that could not be measured.
    pub problems: Vec<String>,
    /// The metrics the contract asks of this mode: every end-to-end
    /// metric untraced, every per-layer metric traced.
    pub metrics: Vec<Metric>,
    /// Report-file-only detail: tails with their sample counts,
    /// workload-specific layers (router hop, the Fig. 9(d) curve).
    pub extras: Vec<Metric>,
    pub verify_digest: String,
    pub model_fingerprint: String,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The contract's result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self.metrics.iter().map(|m| m.json(false)).collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The report file `report-<workload>.json`.
    pub fn report_json(&self) -> String {
        let block = |ms: &[Metric]| {
            let lines: Vec<String> = ms.iter().map(|m| format!("    {}", m.json(true))).collect();
            format!("{{\n{}\n  }}", lines.join(",\n"))
        };
        let problems: Vec<String> = self.problems.iter().map(|p| json::string(p)).collect();
        format!(
            "{{\n  \"workload\": {},\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"problems\": [{}],\n  \
             \"verify_digest\": {},\n  \"model_fingerprint\": {},\n  \"metrics\": {},\n  \
             \"extras\": {}\n}}\n",
            json::string(self.workload),
            self.seed,
            self.seconds,
            self.trace,
            self.correct(),
            self.attempted,
            self.failed,
            problems.join(", "),
            json::string(&self.verify_digest),
            json::string(&self.model_fingerprint),
            block(&self.metrics),
            block(&self.extras),
        )
    }

    /// Human-readable listing: every metric with its unit.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} seed={} window={}s trace={}: {} attempted, {} failed, verify_digest {}, model {}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.attempted,
            self.failed,
            self.verify_digest,
            self.model_fingerprint
        );
        for m in self.metrics.iter().chain(&self.extras) {
            let value = m.value.map_or("unresolved".to_string(), |v| format!("{v:.4}"));
            let n = m.n.map_or(String::new(), |n| format!("  (n={n})"));
            out.push_str(&format!("  {:<36} {:>14} {}{n}\n", m.name, value, m.unit.as_str()));
        }
        for p in &self.problems {
            out.push_str(&format!("  PROBLEM: {p}\n"));
        }
        out
    }
}
