//! The metric catalogue and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the single list of metric names
//! and units; `BENCHMARK.json` at the repository root must name exactly
//! these (a test checks it). A workload fills in the values that apply to
//! it; a per-layer metric it does not exercise prints as `n/a` in the text
//! report and as `0` in the result line.

use crate::stats::Samples;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("throughput_qps", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("htl.parse_us", "us"),
    ("picture.pin_us.p50", "us"),
    ("picture.pin_us.max", "us"),
    ("picture.eval_shard_ms.p50", "ms"),
    ("picture.eval_shard_ms.p99", "ms"),
    ("picture.shard_skew", "ratio"),
    ("core.gather_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "1/req"),
    ("cache.coalesced", "1/req"),
    ("cache.bytes_resident", "MiB"),
    ("engine.prune_ratio", "ratio"),
    ("shard.early_terminated", "1/req"),
    ("shard.candidates_pruned", "1/req"),
    ("engine.memo.hit_ratio", "ratio"),
    ("live.apply_ms", "ms"),
    ("model.store_clone_ms", "ms"),
    ("model.store_apply_ms", "ms"),
    ("cache.retained_ratio", "ratio"),
    ("core.list.and_us", "us"),
    ("core.list.until_us", "us"),
    ("core.list.eventually_us", "us"),
    ("relal.sql_ms.table5", "ms"),
    ("relal.sql_ms.table6", "ms"),
    ("relal.sql_ms.complex1", "ms"),
    ("relal.sql_ms.complex2", "ms"),
    ("relal.sql_over_direct.table5", "ratio"),
    ("relal.sql_over_direct.table6", "ratio"),
    ("relal.sql_over_direct.complex1", "ratio"),
    ("relal.sql_over_direct.complex2", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.remainder_ms", "ms"),
    ("gen.lateness_ms", "ms"),
    ("query.samples", "count"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests (and mutation batches) attempted.
    pub attempted: u64,
    /// Attempts that returned an error. Any failure or wrong answer also
    /// fails the run, so a printed result always has `failed == 0`.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Run metadata printed before the result line.
    pub meta: Vec<(String, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        if value.is_finite() {
            self.values.insert(name, value);
        }
    }

    pub fn set_opt(&mut self, name: &'static str, value: Option<f64>) {
        if let Some(v) = value {
            self.set(name, v);
        }
    }

    pub fn meta(&mut self, key: &str, value: impl std::fmt::Display) {
        self.meta.push((key.to_owned(), value.to_string()));
    }

    /// Records `setup_s` as the median (nearest rank) of the set-up
    /// repetitions and lists each of them.
    pub fn setup_times(&mut self, mut times: Samples) {
        self.set_opt("setup_s", times.quantile(0.5).map(|ms| ms / 1e3));
        self.meta("set-up repetitions (ms)", times.list());
    }

    /// The text report and the result line for the chosen metric set.
    /// Fails if an end-to-end metric is missing: those apply everywhere.
    pub fn render(&self, traced: bool) -> Result<String, String> {
        let set = if traced { PER_LAYER } else { END_TO_END };
        let mut text = String::new();
        for (k, v) in &self.meta {
            let _ = writeln!(text, "# {k}: {v}");
        }
        let mut json = Vec::new();
        for (name, unit) in set {
            let value = match self.values.get(name) {
                Some(v) => {
                    let _ = writeln!(text, "{name:<32} {v:>16.6} {unit}");
                    *v
                }
                None if traced => {
                    let _ = writeln!(text, "{name:<32} {:>16} {unit}", "n/a");
                    0.0
                }
                None => return Err(format!("end-to-end metric {name} was not measured")),
            };
            json.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        let _ = writeln!(
            text,
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            json.join(", ")
        );
        Ok(text)
    }
}

/// A finite `f64` as JSON, with every digit Rust's shortest round-trip
/// formatting gives.
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER)
            .map(|(n, _)| *n)
            .collect();
        for (i, n) in all.iter().enumerate() {
            assert!(!all[..i].contains(n), "{n} listed twice");
            assert!(n.len() <= 64 && n.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(n
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
        }
    }

    /// `BENCHMARK.json` names exactly the catalogue, with the same units.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let Ok(doc) = std::fs::read_to_string(path) else {
            return; // Building outside a checkout of the repository.
        };
        let compact: String = doc.chars().filter(|c| !c.is_whitespace()).collect();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\"");
            assert!(compact.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = compact.matches("{\"name\":").count();
        let workloads = compact.matches("\"why\":").count();
        assert_eq!(listed - workloads, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn render_marks_missing_layer_metrics_and_rejects_missing_end_to_end() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        r.set("htl.parse_us", 1.5);
        let out = r.render(true).unwrap();
        assert!(out.contains("n/a"));
        let last = out.lines().last().unwrap();
        assert!(last.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        assert!(last.contains("\"htl.parse_us\": {\"value\": 1.5, \"unit\": \"us\"}"));
        assert!(last.contains("\"query.samples\": {\"value\": 0.0, \"unit\": \"count\"}"));
        assert!(r.render(false).is_err());
    }
}
