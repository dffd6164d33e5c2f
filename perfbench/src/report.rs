//! The metric catalogue and the result line.
//!
//! Every run prints a human-readable report (one `name = value unit`
//! line per measured quantity, with sample counts) and then, as its last
//! line, the machine-readable result: one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. The metrics of that object are
//! exactly [`END_TO_END`] (untraced run) or [`PER_LAYER`] (traced run);
//! `BENCHMARK.json` lists the same names, which a test checks.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric. Each is defined on every
/// workload (see README.md for what it measures on each).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("tasks_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// `(name, unit)` of every per-layer metric printed by the traced run.
/// Layer timings that only some workloads exercise are printed on the
/// report lines instead (README.md lists them with their workloads).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("instance.build_us.p50", "us"),
    ("instance.build_us.p99", "us"),
    ("schedule.validate_share", "ratio"),
    ("schedule.columns", "count"),
    ("schedule.nnz", "count"),
    ("flow.phases", "count"),
    ("flow.augmentations", "count"),
    ("flow.repair_paths", "count"),
    ("probe.probes", "count"),
    ("probe.warm_solves", "count"),
    ("probe.cold_rebuilds", "count"),
    ("wdeq.events", "count"),
    ("wf.tree_visits", "count"),
    ("bigratio.promoted_frac", "ratio"),
    ("parallel.busy_frac", "ratio"),
    ("cost_ratio_mean", "ratio"),
    ("failed_frac", "ratio"),
    ("fail.protocol", "count"),
    ("fail.policy_error", "count"),
    ("fail.invalid_schedule", "count"),
    ("fail.unanswered", "count"),
    ("trace.overhead_frac", "ratio"),
];

/// Failure tallies by the layer that failed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Fails {
    /// `ok:false` answers to requests the protocol layer rejected.
    pub protocol: u64,
    /// `ok:false` answers from a policy/simulation error or a rejected
    /// submit, and `Err` returns of in-process policy runs.
    pub policy_error: u64,
    /// Schedules that failed validation.
    pub invalid_schedule: u64,
    /// Requests with no answer before the drain deadline.
    pub unanswered: u64,
}

impl Fails {
    pub fn total(&self) -> u64 {
        self.protocol + self.policy_error + self.invalid_schedule + self.unanswered
    }

    pub fn add(&mut self, other: &Fails) {
        self.protocol += other.protocol;
        self.policy_error += other.policy_error;
        self.invalid_schedule += other.invalid_schedule;
        self.unanswered += other.unanswered;
    }
}

/// Collected output of one run.
#[derive(Debug, Default)]
pub struct Report {
    metrics: BTreeMap<String, (f64, String)>,
    pub attempted: u64,
    pub fails: Fails,
    /// Output-check failures; any entry makes the run incorrect.
    pub check_errors: Vec<String>,
    /// Open-loop or sample-size violations; any entry makes the run
    /// invalid (it prints no result).
    pub invalid: Vec<String>,
}

impl Report {
    /// Record a metric for the result line and echo it as a report line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &str) {
        self.line(name, value, unit, "");
        self.metrics
            .insert(name.to_string(), (value, unit.to_string()));
    }

    /// Echo a report-only quantity (not part of the result line).
    pub fn line(&self, name: &str, value: f64, unit: &str, note: &str) {
        if note.is_empty() {
            println!("  {name} = {value} {unit}");
        } else {
            println!("  {name} = {value} {unit}  ({note})");
        }
    }

    /// Record the failure breakdown and `failed_frac`.
    pub fn fail_metrics(&mut self) {
        let f = self.fails;
        self.metric("fail.protocol", f.protocol as f64, "count");
        self.metric("fail.policy_error", f.policy_error as f64, "count");
        self.metric("fail.invalid_schedule", f.invalid_schedule as f64, "count");
        self.metric("fail.unanswered", f.unanswered as f64, "count");
        let frac = f.total() as f64 / self.attempted.max(1) as f64;
        self.metric("failed_frac", frac, "ratio");
    }

    /// The result line for `catalogue`, or an error naming what is
    /// missing, non-finite, or invalid.
    pub fn result_line(&self, catalogue: &[(&str, &str)]) -> Result<String, String> {
        if !self.invalid.is_empty() {
            return Err(format!("run invalid: {}", self.invalid.join("; ")));
        }
        if self.attempted == 0 {
            return Err("run attempted nothing".into());
        }
        let mut fields = Vec::new();
        for (name, unit) in catalogue {
            let (value, got_unit) = self
                .metrics
                .get(*name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            if got_unit != unit {
                return Err(format!(
                    "metric {name} has unit {got_unit}, expected {unit}"
                ));
            }
            fields.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.check_errors.is_empty(),
            self.attempted,
            self.fails.total(),
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use malleable_bench::jsonin::{self, Json};

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        jsonin::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(json: &Json, key: &str) -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| {
                    m.get(k)
                        .and_then(Json::as_str)
                        .expect("string field")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{unit}");
        }
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let json = benchmark_json();
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&json, "per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, crate::WORKLOADS);
    }

    #[test]
    fn result_line_parses_and_rejects_gaps() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.metric("setup_s", 0.5, "s");
        assert!(
            r.result_line(END_TO_END).is_err(),
            "missing metrics must fail"
        );
        for (name, unit) in END_TO_END {
            r.metric(name, 1.25, unit);
        }
        let line = r.result_line(END_TO_END).unwrap();
        let v = jsonin::parse(&line).unwrap();
        assert_eq!(v.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(v.get("attempted").and_then(Json::as_f64), Some(3.0));
        r.invalid.push("late".into());
        assert!(r.result_line(END_TO_END).is_err());
    }
}
