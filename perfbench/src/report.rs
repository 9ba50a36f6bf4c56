//! What a run prints: human-readable metric and check lines, then one
//! JSON result line (the last line of standard output).

use std::fmt::Write as _;

/// Which kind of clock a metric reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// What the simulator and controller take on this machine.
    Host,
    /// What the modelled switch would take; repeats exactly per seed.
    Sim,
    /// A count or share that is neither.
    Count,
}

impl Kind {
    fn label(self) -> &'static str {
        match self {
            Kind::Host => "host",
            Kind::Sim => "sim",
            Kind::Count => "count",
        }
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Host or sim time, or a plain count.
    pub kind: Kind,
    /// Samples behind the value, where it summarises a sample set.
    pub n: Option<usize>,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (the untraced result line).
    pub e2e: Vec<Metric>,
    /// Per-layer metrics (the traced result line).
    pub layer: Vec<Metric>,
    /// Per-workload metric lines (throughput, latency percentiles, sim
    /// figures) and other informational lines.
    pub lines: Vec<String>,
    /// Correctness checks: name, passed, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted: packets injected, deploys, revokes, requests.
    pub attempted: u64,
    /// Operations that errored or were refused.
    pub failed_ops: u64,
}

impl Report {
    /// Record a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.checks.push((name.to_string(), ok, detail.into()));
    }

    /// Record an end-to-end metric.
    pub fn e2e(
        &mut self,
        name: &str,
        unit: &'static str,
        kind: Kind,
        value: f64,
        n: Option<usize>,
    ) {
        self.e2e.push(Metric {
            name: name.to_string(),
            unit,
            value,
            kind,
            n,
        });
    }

    /// Record a per-layer metric.
    pub fn layer(
        &mut self,
        name: &str,
        unit: &'static str,
        kind: Kind,
        value: f64,
        n: Option<usize>,
    ) {
        self.layer.push(Metric {
            name: name.to_string(),
            unit,
            value,
            kind,
            n,
        });
    }

    /// Record an informational line (digest, note).
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// A metric line: name, value, unit, kind, sample count.
    pub fn metric_line(&mut self, name: &str, value: f64, unit: &str, kind: Kind, n: usize) {
        self.lines.push(format!(
            "metric {name} = {value:.6} {unit} [{}] n={n}",
            kind.label()
        ));
    }

    /// Metric lines for the p50 and the highest of p99 / p95 / p90 that has
    /// enough samples beyond it, of an ascending-sorted sample set; a p99
    /// that lacks them is named as unavailable.
    pub fn percentile_lines(&mut self, name: &str, sorted: &[f64], unit: &str, kind: Kind) {
        use crate::stats::{min_samples, percentile};
        if let Some(p) = percentile(sorted, 0.5) {
            self.metric_line(&format!("{name}_p50"), p.value, unit, kind, p.n);
        }
        for (q, tag) in [(0.99, "p99"), (0.95, "p95"), (0.9, "p90")] {
            if let Some(p) = percentile(sorted, q) {
                self.metric_line(&format!("{name}_{tag}"), p.value, unit, kind, p.n);
                return;
            }
            if tag == "p99" {
                self.line(format!(
                    "metric {name}_p99 = unavailable: {} samples, a p99 needs {}",
                    sorted.len(),
                    min_samples(q)
                ));
            }
        }
    }

    /// Failed checks plus failed operations.
    pub fn failed(&self) -> u64 {
        self.failed_ops + self.checks.iter().filter(|c| !c.1).count() as u64
    }

    /// Operations plus checks.
    pub fn attempted_total(&self) -> u64 {
        self.attempted + self.checks.len() as u64
    }

    /// Every check passed, no operation failed, and every reported value
    /// is a finite number.
    pub fn correct(&self) -> bool {
        self.failed() == 0
            && self
                .e2e
                .iter()
                .chain(&self.layer)
                .all(|m| m.value.is_finite())
    }

    /// Print the human-readable lines and the final JSON line; `traced`
    /// selects the per-layer metric set.
    pub fn print(&self, workload: &str, traced: bool) {
        println!("workload {workload}");
        for l in &self.lines {
            println!("{l}");
        }
        for (name, ok, detail) in &self.checks {
            println!(
                "check {name}: {} {detail}",
                if *ok { "ok" } else { "FAILED" }
            );
        }
        let set = if traced { &self.layer } else { &self.e2e };
        for m in set {
            let n = m.n.map(|n| format!(" n={n}")).unwrap_or_default();
            println!(
                "{} {} = {} {} [{}]{n}",
                if traced { "layer" } else { "e2e" },
                m.name,
                m.value,
                m.unit,
                m.kind.label()
            );
        }
        println!("{}", self.result_json(traced));
    }

    /// The one-line JSON result.
    pub fn result_json(&self, traced: bool) -> String {
        let set = if traced { &self.layer } else { &self.e2e };
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted_total().max(1),
            self.failed()
        );
        for (i, m) in set.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let mut r = Report {
            attempted: 10,
            ..Default::default()
        };
        r.e2e("setup_s", "s", Kind::Host, 0.5, None);
        r.layer("parser.parse_ns", "ns", Kind::Host, 41.0, Some(100));
        r.check("audit", true, "");
        let doc = serde::json::parse(&r.result_json(false)).unwrap();
        assert_eq!(doc.get("correct"), Some(&serde::Value::Bool(true)));
        assert_eq!(doc.get("attempted"), Some(&serde::Value::U64(11)));
        assert_eq!(doc.get("failed"), Some(&serde::Value::U64(0)));
        let m = doc.get("metrics").unwrap();
        assert!(m.get("parser.parse_ns").is_none());
        let s = m.get("setup_s").unwrap();
        assert_eq!(s.get("unit"), Some(&serde::Value::Str("s".into())));
        let traced = serde::json::parse(&r.result_json(true)).unwrap();
        assert!(traced
            .get("metrics")
            .unwrap()
            .get("parser.parse_ns")
            .is_some());
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut r = Report::default();
        r.check("conservation", false, "3 packets unaccounted");
        assert!(!r.correct());
        assert_eq!(r.failed(), 1);
    }
}
