//! The metric catalogue, the run report and its one-line JSON form.

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 15] = [
    ("setup_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p95_ms", "ms"),
    ("query_qps", "1/s"),
    ("topk_p50_ms", "ms"),
    ("topk_p90_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("insert_p95_ms", "ms"),
    ("remove_p50_ms", "ms"),
    ("answer_precision", "ratio"),
    ("answer_recall", "ratio"),
    ("topk_overlap", "ratio"),
    ("success_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("index_bytes", "bytes"),
];

/// Per-layer metrics of the traced replay, `(name, unit)`, in
/// `BENCHMARK.json` order.  Per-query means unless the unit says otherwise.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("structural.ms", "ms"),
    ("structural.posting_entries", "count"),
    ("structural.filter_survivors", "count"),
    ("structural.candidates", "count"),
    ("structural.yield", "ratio"),
    ("relax.ms", "ms"),
    ("relax.patterns", "count"),
    ("prune.build_ms", "ms"),
    ("prune.usim_ms", "ms"),
    ("prune.lsim_ms", "ms"),
    ("prune.pruned", "count"),
    ("prune.accepted", "count"),
    ("prune.decided_frac", "ratio"),
    ("embed.ms", "ms"),
    ("embed.embeddings", "count"),
    ("embed.capped", "count"),
    ("exact.ms", "ms"),
    ("exact.calls", "count"),
    ("exact.relevant_edges", "count"),
    ("sampler.build_ms", "ms"),
    ("sampler.builds", "count"),
    ("sampler.tables", "count"),
    ("trials.ms", "ms"),
    ("trials.drawn", "count"),
    ("trials.saved", "count"),
    ("trials.per_s", "1/s"),
    ("trials.early_frac", "ratio"),
    ("topk.pruned", "count"),
    ("topk.verified", "count"),
    ("index.mine_s", "s"),
    ("index.sindex_s", "s"),
    ("index.build_s", "s"),
    ("index.features", "count"),
    ("index.append_ms", "ms"),
    ("index.remove_ms", "ms"),
    ("pool.utilization", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The outcome of one benchmark run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Whether every correctness check passed.
    pub correct: bool,
    /// Operations attempted (each engine call, each write).
    pub attempted: usize,
    /// Operations that returned an error or failed a correctness check.
    pub failed: usize,
    /// `(name, value, unit)`, in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Human-readable context: resolved configuration, seed, sample counts.
    pub info: Vec<String>,
}

impl Report {
    /// Fills `metrics` from `values` (looked up by name) in the order of
    /// `catalogue`; a missing or non-finite value marks the run incorrect.
    pub fn set_metrics(
        &mut self,
        catalogue: &[(&'static str, &'static str)],
        values: &[(&str, f64)],
    ) {
        self.metrics.clear();
        for &(name, unit) in catalogue {
            match values.iter().find(|(n, _)| *n == name) {
                Some(&(_, v)) if v.is_finite() => self.metrics.push((name, v, unit)),
                _ => {
                    self.correct = false;
                    self.info.push(format!("metric {name} was not measured"));
                }
            }
        }
    }

    /// The report as the one-line JSON object the benchmark prints last.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_number(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A finite `f64` in JSON syntax, with every digit Rust's shortest
/// round-trip formatting gives it.
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
}

/// Nearest-rank percentile `p` (0–100) of `samples`; `NaN` when empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `samples` (nearest rank); `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `NaN` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&[3.0], 90.0), 3.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn json_is_one_line_with_units() {
        let mut r = Report {
            correct: true,
            attempted: 3,
            ..Report::default()
        };
        r.set_metrics(&[("a", "ms"), ("b", "s")], &[("a", 1.25), ("b", 2.0)]);
        assert_eq!(
            r.to_json(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        r.set_metrics(&[("c", "ms")], &[("c", f64::NAN)]);
        assert!(!r.correct);
    }
}
