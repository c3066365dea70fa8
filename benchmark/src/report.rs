//! What a run reports, and the one-line JSON the driver reads.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result of one run of one workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops started in the timed phases (and scripted traffic).
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The metrics the contract asks for: every end-to-end metric for an
    /// untraced run, every per-layer metric for a traced one.
    pub metrics: Vec<Metric>,
    /// Further numbers worth a line of output (a workload's own headline
    /// figures, sample counts); printed, not part of the JSON.
    pub info: Vec<Metric>,
    /// Output checks that failed; empty means the run is correct.
    pub problems: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push(Metric {
            name: name.into(),
            value,
            unit,
        });
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .chain(&self.info)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Every metric by name with its unit, one per line.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.info) {
            let _ = writeln!(
                out,
                "  {:<34} {:>16} {}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        for p in &self.problems {
            let _ = writeln!(out, "  CHECK FAILED: {p}");
        }
        out
    }

    /// The contract's result line.
    pub fn render_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_value(m.value),
                m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// A number as measured, with all its digits, in a form JSON accepts.
fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_is_the_contracts_json() {
        let mut o = Outcome {
            attempted: 1000,
            ..Outcome::default()
        };
        o.metric("latency_p50_us", 612.25, "us");
        o.metric("setup_s", 0.8127, "s");
        o.info("extra", 3.0, "count");
        assert_eq!(
            o.render_json(),
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"latency_p50_us\": {\"value\": 612.25, \"unit\": \"us\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        o.problem("boom");
        assert!(o.render_json().starts_with("{\"correct\": false"));
        assert!(o.render_table().contains("extra"));
        assert!(o.render_table().contains("CHECK FAILED: boom"));
        assert_eq!(fmt_value(f64::NAN), "0");
        assert_eq!(fmt_value(100.0), "100");
    }
}
