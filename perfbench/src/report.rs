//! Metric names, summary statistics and the output format.
//!
//! Every run prints a machine header line, a human-readable table, and as
//! its last line one JSON object with the keys `correct`, `attempted`,
//! `failed` and `metrics`. The metric names here are the ones
//! `BENCHMARK.json` declares; a test keeps the two lists equal.

use std::fmt::Write as _;

/// End-to-end metrics, printed by every run with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("sessions_per_s", "1/s"),
    ("delivered_bits_per_s", "bit/s"),
    ("delivered_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
];

/// Per-layer metrics, printed by every traced run. A layer that does no
/// work on a workload reports 0 there (see `NOTES.md`).
pub const PER_LAYER: [(&str, &str); 40] = [
    ("robots.step_ns", "ns"),
    ("robots.self_ns_per_step", "ns"),
    ("robots.build_us", "us"),
    ("robots.steps_per_s", "1/s"),
    ("core.protocol_ns_per_activation", "ns"),
    ("core.preprocess_us", "us"),
    ("scheduler.ns_per_step", "ns"),
    ("trace_codec.ns_per_step", "ns"),
    ("trace_codec.bytes_per_step", "B"),
    ("geometry.granular_radii_us", "us"),
    ("geometry.sec_us", "us"),
    ("fleet.busy_s", "s"),
    ("fleet.idle_share", "ratio"),
    ("fleet.session_p50_ms", "ms"),
    ("fleet.session_max_ms", "ms"),
    ("fleet.undelivered_step_share", "ratio"),
    ("fleet.steps_per_delivered_bit", "count"),
    ("coding.fec_corrected", "count"),
    ("coding.fec_rejected", "count"),
    ("coding.reject_share", "ratio"),
    ("algo.session_ms", "ms"),
    ("algo.activations_to_decision", "count"),
    ("algo.bits", "bit"),
    ("algo.rounds", "count"),
    ("gateway.admit_ms", "ms"),
    ("gateway.queue_ms", "ms"),
    ("gateway.run_ms", "ms"),
    ("gateway.server_e2e_ms", "ms"),
    ("gateway.server_queue_ms", "ms"),
    ("gateway.unaccounted_ms", "ms"),
    ("gateway.frames_per_job", "count"),
    ("gateway.encode_us", "us"),
    ("gateway.decode_us", "us"),
    ("bench.clock_read_ns", "ns"),
    ("bench.trace_overhead", "x"),
    ("bench.untraced_s", "s"),
    ("bench.traced_s", "s"),
    ("bench.unaccounted_share", "ratio"),
    ("bench.replayed_sessions", "count"),
    ("bench.whole_timed_sessions", "count"),
];

/// Samples a tail percentile must leave beyond it to be reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `samples`; `None` when
/// empty.
#[must_use]
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples strictly above the nearest-rank percentile `p`.
#[must_use]
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.min(n)
}

/// The highest of `ladder` (percentiles, ascending) that leaves at least
/// [`MIN_TAIL_SAMPLES`] samples beyond it, if any does.
#[must_use]
pub fn highest_qualified_percentile(n: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_beyond(n, p) >= MIN_TAIL_SAMPLES)
}

/// Median of `samples`: the middle value, or the mean of the two middle
/// values of an even count (0 when empty).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Mean of `samples` (0 when empty).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
#[must_use]
pub fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Resets this process's peak resident set size to its current size, so
/// [`peak_rss_mb`] measures the peak of what follows. Writes `5` to the
/// process's own `/proc/self/clear_refs`.
///
/// # Errors
///
/// When the kernel refuses the reset.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("resetting the peak RSS through /proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or lacks the field.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// A JSON string literal.
#[must_use]
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite values as measured (shortest round-trip form),
/// anything else as 0.
#[must_use]
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

/// The values a run measured, in the order of one of the metric lists.
#[derive(Debug, Default)]
pub struct Metrics {
    values: Vec<(&'static str, f64)>,
}

impl Metrics {
    /// Records `value` under `name`, replacing an earlier value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    /// The value recorded under `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Checks that exactly the metrics of `list` were recorded, under
    /// legal names.
    ///
    /// # Errors
    ///
    /// Names the first missing or unexpected metric.
    pub fn check_complete(&self, list: &[(&str, &str)]) -> Result<(), String> {
        if let Some((name, _)) = list.iter().find(|(n, _)| !valid_metric_name(n)) {
            return Err(format!("metric name {name:?} is not [A-Za-z0-9_.-]+"));
        }
        if let Some((name, _)) = list.iter().find(|(n, _)| self.get(n).is_none()) {
            return Err(format!("metric {name} was not measured"));
        }
        if let Some((name, _)) = self
            .values
            .iter()
            .find(|(n, _)| !list.iter().any(|(l, _)| l == n))
        {
            return Err(format!("metric {name} is not declared"));
        }
        Ok(())
    }

    /// Human-readable table, one metric per line, in `list` order.
    #[must_use]
    pub fn table(&self, list: &[(&str, &str)]) -> String {
        let mut out = String::new();
        for (name, unit) in list {
            let v = self.get(name).unwrap_or(0.0);
            let _ = writeln!(out, "  {name:<34} {v:>16.4} {unit}");
        }
        out
    }

    /// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
    #[must_use]
    pub fn result_json(
        &self,
        list: &[(&str, &str)],
        correct: bool,
        attempted: u64,
        failed: u64,
    ) -> String {
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(self.get(name).unwrap_or(0.0)),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
            metrics.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50.0), Some(50.0));
        assert_eq!(percentile(&samples, 90.0), Some(90.0));
        assert_eq!(percentile(&samples, 100.0), Some(100.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 50.0), Some(2.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let ladder = [50.0, 90.0, 99.0, 99.9];
        // p90 of 100 samples leaves exactly 10 beyond it.
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(highest_qualified_percentile(100, &ladder), Some(90.0));
        // One sample short: p90 leaves 9 beyond, only the median qualifies.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(highest_qualified_percentile(99, &ladder), Some(50.0));
        // p99 needs 1000 samples.
        assert_eq!(highest_qualified_percentile(999, &ladder), Some(90.0));
        assert_eq!(highest_qualified_percentile(1000, &ladder), Some(99.0));
        // Too few for any tail at all.
        assert_eq!(highest_qualified_percentile(19, &ladder), None);
        assert_eq!(highest_qualified_percentile(0, &ladder), None);
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|(n, _)| *n)
            .collect();
        for name in &all {
            assert!(valid_metric_name(name), "illegal metric name {name}");
        }
        let mut sorted = all.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len(), "duplicate metric name");
        assert!(!valid_metric_name("bad name"));
        assert!(!valid_metric_name(".leading"));
        assert!(!valid_metric_name(""));
    }

    /// The lists above are the ones `BENCHMARK.json` declares, with the
    /// same units, in the same order.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let declared = |section: &str| -> Vec<(String, String)> {
            let start = json
                .find(&format!("\"{section}\""))
                .unwrap_or_else(|| panic!("no {section} section"));
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            body.split('{')
                .skip(1)
                .map(|entry| {
                    let field = |key: &str| {
                        let at = entry.find(&format!("\"{key}\"")).expect("field present");
                        let rest = &entry[at + key.len() + 2..];
                        let open = rest.find('"').expect("string value") + 1;
                        let close = open + rest[open..].find('"').expect("string closes");
                        rest[open..close].to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let expect = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), expect(&END_TO_END));
        assert_eq!(declared("per_layer"), expect(&PER_LAYER));
    }

    #[test]
    fn result_line_lists_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        m.set("setup_s", 0.5);
        m.set("setup_s", 0.25);
        let line = m.result_json(&END_TO_END[..1], true, 3, 0);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        assert!(m.check_complete(&END_TO_END[..1]).is_ok());
        assert!(m.check_complete(&END_TO_END[..2]).is_err());
    }
}
