//! What one run reports, and how it is printed.

use crate::json::Json;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// The result of one run of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutput {
    /// Queries that finished (either way) inside a counted window.
    pub attempted: u64,
    /// Of those: failed, refused, or answered differently from the oracle.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Human-readable lines: every metric by name with its unit, then the
    /// counts. The suite parses these back (see [`parse_lines`]).
    pub fn lines(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            out.push_str(&format!("metric {} {} {}\n", m.name, m.value, m.unit));
        }
        out.push_str(&format!(
            "count attempted {}\ncount failed {}\n",
            self.attempted, self.failed
        ));
        out
    }

    /// The one-line JSON object the benchmark contract asks for.
    pub fn json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.as_str(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
    }
}

/// Parse the `metric`/`count` lines of [`RunOutput::lines`] out of a child's
/// standard output: `(name, value)` pairs, counts included.
pub fn parse_lines(stdout: &str) -> Vec<(String, f64)> {
    stdout
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            match parts.next()? {
                "metric" | "count" => {
                    Some((parts.next()?.to_string(), parts.next()?.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RunOutput {
        RunOutput {
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("throughput_qps", 25.125, "1/s"),
                Metric::new("setup_s", 0.5, "s"),
            ],
        }
    }

    #[test]
    fn json_has_exactly_the_contract_keys() {
        assert_eq!(
            sample().json().render(),
            r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"throughput_qps": {"value": 25.125, "unit": "1/s"}, "setup_s": {"value": 0.5, "unit": "s"}}}"#
        );
    }

    #[test]
    fn a_failure_or_an_empty_run_is_not_correct() {
        assert!(!RunOutput { failed: 1, ..sample() }.correct());
        assert!(!RunOutput { attempted: 0, ..sample() }.correct());
    }

    #[test]
    fn lines_round_trip_through_the_parser() {
        let parsed = parse_lines(&format!("# header\n{}{{\"json\": 1}}\n", sample().lines()));
        assert_eq!(
            parsed,
            vec![
                ("throughput_qps".to_string(), 25.125),
                ("setup_s".to_string(), 0.5),
                ("attempted".to_string(), 10.0),
                ("failed".to_string(), 0.0),
            ]
        );
    }
}
