//! `stigbench`: the engine hot-path macro-benchmark suite and the perf
//! regression gate behind CI's `perf-gate` job.
//!
//! Three workload families, all fully deterministic in their *work
//! counters* (steps, activations, trace fingerprints — byte-pinned by
//! the session specs) and measured for wall-clock throughput:
//!
//! 1. **`sweep-864`** — the full conformance matrix (6 protocols × 3
//!    adversarial schedules × 3 fault plans × 16 seeds = 864 sessions)
//!    through the fleet runtime, the workload the hot-path rewrite was
//!    profiled against.
//! 2. **`e12`** — distributed computation over movement signals (flood,
//!    leader election and binary agreement on the synchronous network),
//!    the title-claim workload.
//! 3. **`micro-<protocol>`** — one adversarial session per conformance
//!    protocol, so a regression in a single protocol's hot path can't
//!    hide inside the sweep aggregate.
//!
//! The suite serializes to `BENCH_engine.json` with a stable key order.
//! [`check`] compares a fresh run against the committed baseline: any
//! drift in a work counter is a hard failure (the engine did different
//! work — determinism broke), while wall-clock is compared under a
//! relative tolerance and reported separately (advisory in CI, since
//! shared runners have noisy clocks).

use std::time::Instant;

use stigmergy_fleet::{
    fnv1a64_update, run_batch, run_session, BatchSpec, ProtocolKind, SessionSpec, CONFORMANCE,
    DEFAULT_PAYLOAD,
};
use stigmergy_scheduler::{CodingSpec, FaultSpec, ScheduleSpec};

use crate::experiments::claims_c::{e12_rows, E12Row};
use crate::table::Table;

/// Document format version; bump when the JSON shape changes.
pub const FORMAT_VERSION: u32 = 1;

/// One timed workload: deterministic work counters plus wall-clock rates.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Stable workload name (`sweep-864`, `e12`, `micro-sync2`, …).
    pub name: String,
    /// Work counters, in stable emission order. Bit-deterministic for a
    /// given spec: two builds doing the same work agree exactly.
    pub counters: Vec<(&'static str, u64)>,
    /// Wall-clock of the workload, in seconds.
    pub wall_seconds: f64,
    /// Engine instants executed per second of wall-clock.
    pub steps_per_sec: f64,
    /// Robot activations per second of wall-clock.
    pub activations_per_sec: f64,
}

impl WorkloadResult {
    fn counter(&self, key: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, v)| v)
    }
}

/// Knobs for a suite run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuiteConfig {
    /// Seeds for the conformance sweep (16 → 864 sessions, the baseline).
    pub seeds: u64,
    /// Worker threads for the sweep. The baseline is measured at 1 so
    /// `steps_per_sec` reflects single-core engine throughput.
    pub workers: usize,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        Self {
            seeds: 16,
            workers: 1,
        }
    }
}

/// Runs the whole suite in stable order.
#[must_use]
pub fn run_suite(config: &SuiteConfig) -> Vec<WorkloadResult> {
    let mut results = vec![sweep_workload(config), e12_workload()];
    for kind in CONFORMANCE {
        results.push(micro_workload(kind));
    }
    results
}

/// The conformance-matrix sweep: 6 × 3 × 3 × `seeds` sessions through
/// the fleet. `trace_fingerprint` folds every session's trace hash in
/// report order, so a single flipped byte in any of the sweep's traces
/// shows up as counter drift.
#[must_use]
pub fn sweep_workload(config: &SuiteConfig) -> WorkloadResult {
    let spec = BatchSpec::conformance_matrix((0..config.seeds).collect());
    let sessions = spec.sessions().len() as u64;
    batch_workload(format!("sweep-{sessions}"), &spec, config.workers)
}

/// Runs an arbitrary batch as a timed workload under a caller-chosen
/// name — the shared engine behind [`sweep_workload`] and the
/// `fleet-scaling` suite's per-worker-count rows.
#[must_use]
pub fn batch_workload(name: String, spec: &BatchSpec, workers: usize) -> WorkloadResult {
    let t0 = Instant::now();
    let report = run_batch(spec, workers);
    let wall = t0.elapsed().as_secs_f64();
    let m = &report.metrics;
    let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
    for run in &report.runs {
        fingerprint = fnv1a64_update(fingerprint, &run.trace_hash.to_le_bytes());
        fingerprint = fnv1a64_update(fingerprint, &(run.trace_len as u64).to_le_bytes());
    }
    WorkloadResult {
        name,
        counters: vec![
            ("sessions", m.sessions),
            ("delivered", m.delivered),
            ("timed_out", m.timed_out),
            ("steps", m.steps),
            ("activations", m.activations),
            ("faults", m.faults),
            ("retransmissions", m.retransmissions),
            ("corrupt", m.corrupt),
            ("delivered_bits", m.delivered_bits),
            ("fec_corrected", m.fec_corrected),
            ("fec_rejected", m.fec_rejected),
            ("delivered_rate_ppm", m.delivered_rate_ppm()),
            ("steps_per_delivered_bit", m.steps_per_delivered_bit()),
            ("trace_fingerprint", fingerprint),
        ],
        wall_seconds: wall,
        steps_per_sec: rate(m.steps, wall),
        activations_per_sec: rate(m.activations, wall),
    }
}

/// Shortest wall-clock the `e12` workload measures its rates over. One
/// E12 run takes a few milliseconds, too short for a timer to tell a
/// regression from noise, so the workload repeats it until this much
/// time has passed.
pub const E12_MIN_SECONDS: f64 = 0.25;

/// The E12 workload: flood, election and agreement on three rings
/// (n = 4, 5, 6) over movement signals — [`e12_rows`], with every
/// engine's instants, activations and moves and every run's rounds
/// summed into the counters. The counters are one run's; the wall-clock
/// rates cover as many identical runs as fit in [`E12_MIN_SECONDS`].
///
/// # Panics
///
/// Panics if an algorithm fails to decide or decides wrongly (see
/// [`e12_rows`]) — a benchmark of a broken run would be meaningless.
#[must_use]
pub fn e12_workload() -> WorkloadResult {
    let t0 = Instant::now();
    let rows = e12_rows();
    let mut runs = 1;
    while t0.elapsed().as_secs_f64() < E12_MIN_SECONDS {
        let _ = e12_rows();
        runs += 1;
    }
    let wall = t0.elapsed().as_secs_f64();
    let sum = |f: fn(&E12Row) -> u64| rows.iter().map(f).sum::<u64>();
    let (steps, activations) = (sum(|r| r.stats.steps), sum(|r| r.stats.activations));
    WorkloadResult {
        name: "e12".into(),
        counters: vec![
            ("steps", steps),
            ("activations", activations),
            ("moves", sum(|r| r.stats.moves)),
            ("rounds", sum(|r| r.rounds)),
        ],
        wall_seconds: wall,
        steps_per_sec: rate(steps * runs, wall),
        activations_per_sec: rate(activations * runs, wall),
    }
}

/// One adversarial session for a single protocol: lagging-receiver
/// schedule, non-rigid motion — the hottest per-activation path each
/// protocol has. The session's trace hash and length ride along as
/// counters, so per-protocol byte-identity is gated too.
#[must_use]
pub fn micro_workload(kind: ProtocolKind) -> WorkloadResult {
    let spec = SessionSpec {
        protocol: kind,
        algorithm: None,
        schedule: ScheduleSpec::LaggingReceiver { max_gap: 8 },
        plan: FaultSpec::NonRigid {
            delta: 0.35,
            prob: 0.5,
        },
        seed: 0,
        cohort: 3,
        payload: DEFAULT_PAYLOAD.to_vec(),
        budget_cap: None,
        keep_trace: false,
        // The same coding the conformance sweep runs, so each micro row
        // exercises the exact per-cell hot path.
        coding: CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        },
    };
    let t0 = Instant::now();
    let report = run_session(&spec);
    let wall = t0.elapsed().as_secs_f64();
    assert!(
        report.error.is_none(),
        "micro workload {} errored: {:?}",
        kind.name(),
        report.error
    );
    WorkloadResult {
        name: format!("micro-{}", kind.name()),
        counters: vec![
            ("steps", report.steps),
            ("activations", report.activations),
            ("moves", report.moves),
            ("faults", report.faults),
            ("delivered", u64::from(report.delivered)),
            ("delivered_bits", report.delivered_bits),
            ("fec_corrected", report.fec_corrected),
            ("fec_rejected", report.fec_rejected),
            ("trace_len", report.trace_len as u64),
            ("trace_hash", report.trace_hash),
        ],
        wall_seconds: wall,
        steps_per_sec: rate(report.steps, wall),
        activations_per_sec: rate(report.activations, wall),
    }
}

fn rate(count: u64, wall: f64) -> f64 {
    if wall > 0.0 {
        count as f64 / wall
    } else {
        0.0
    }
}

/// Serializes a suite run as the `BENCH_engine.json` document. Key order
/// is fixed, so two runs doing identical work differ only in the
/// wall-clock fields.
#[must_use]
pub fn to_json(results: &[WorkloadResult]) -> String {
    to_json_named("stigbench-engine", results)
}

/// Serializes a suite run under an explicit benchmark name — the same
/// stable document shape as [`to_json`], reused by the `fleet-scaling`
/// suite for `BENCH_fleet.json`.
#[must_use]
pub fn to_json_named(benchmark: &str, results: &[WorkloadResult]) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(&format!("{{\"benchmark\":\"{benchmark}\","));
    out.push_str(&format!("\"version\":{FORMAT_VERSION},"));
    out.push_str("\"workloads\":[");
    for (i, w) in results.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"wall_seconds\":{:.3},\"steps_per_sec\":{:.0},\"activations_per_sec\":{:.0},\"counters\":{{",
            w.name, w.wall_seconds, w.steps_per_sec, w.activations_per_sec
        ));
        for (j, (key, value)) in w.counters.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{key}\":{value}"));
        }
        out.push_str("}}");
    }
    out.push_str("]}\n");
    out
}

/// Summary table for the console.
#[must_use]
pub fn suite_table(results: &[WorkloadResult]) -> Table {
    let mut t = Table::new(
        "stigbench: engine hot-path workloads",
        [
            "workload",
            "steps",
            "activations",
            "wall s",
            "steps/s",
            "activations/s",
        ],
    );
    for w in results {
        t.row([
            w.name.clone(),
            w.counter("steps").unwrap_or(0).to_string(),
            w.counter("activations").unwrap_or(0).to_string(),
            format!("{:.3}", w.wall_seconds),
            format!("{:.0}", w.steps_per_sec),
            format!("{:.0}", w.activations_per_sec),
        ]);
    }
    t
}

/// The verdict of comparing a fresh run against a committed baseline.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CheckOutcome {
    /// Exact-match failures: the engine did *different work* than the
    /// baseline — a determinism or behavior regression. Hard failures.
    pub counter_drift: Vec<String>,
    /// Throughput drops beyond tolerance. Advisory in CI (noisy clocks),
    /// hard only for a human reading the report.
    pub wall_regressions: Vec<String>,
}

impl CheckOutcome {
    /// Whether the run matched the baseline's work counters exactly.
    #[must_use]
    pub fn counters_ok(&self) -> bool {
        self.counter_drift.is_empty()
    }

    /// Whether throughput stayed within tolerance of the baseline.
    #[must_use]
    pub fn wall_ok(&self) -> bool {
        self.wall_regressions.is_empty()
    }
}

/// Compares a fresh suite run against the baseline document.
///
/// Every workload in the current run must exist in the baseline with
/// exactly equal counters (and vice versa — a vanished workload is
/// drift too). `steps_per_sec` may degrade by at most `tolerance`
/// (relative): `current >= baseline * (1 - tolerance)`.
///
/// The `delivered` counter additionally acts as a **ratchet**: falling
/// below the baseline is reported as its own hard failure, separately
/// from plain drift, so a change that costs delivered sessions can never
/// be waved through as "just refresh the baseline" without the loss
/// being named in the gate output.
#[must_use]
pub fn check(baseline: &str, current: &[WorkloadResult], tolerance: f64) -> CheckOutcome {
    let mut outcome = CheckOutcome::default();
    for w in current {
        let Some(block) = extract_workload(baseline, &w.name) else {
            outcome
                .counter_drift
                .push(format!("{}: missing from baseline", w.name));
            continue;
        };
        for &(key, value) in &w.counters {
            match extract_u64(block, key) {
                Some(expected) if expected == value => {}
                Some(expected) => {
                    if key == "delivered" && value < expected {
                        outcome.counter_drift.push(format!(
                            "{}: delivered ratchet violated: {value} < baseline {expected}",
                            w.name
                        ));
                    }
                    outcome
                        .counter_drift
                        .push(format!("{}: {key} = {value}, baseline {expected}", w.name));
                }
                None => outcome
                    .counter_drift
                    .push(format!("{}: {key} missing from baseline", w.name)),
            }
        }
        if let Some(baseline_sps) = extract_f64(block, "steps_per_sec") {
            let floor = baseline_sps * (1.0 - tolerance);
            if w.steps_per_sec < floor {
                outcome.wall_regressions.push(format!(
                    "{}: {:.0} steps/s < {:.0} (baseline {:.0} - {:.0}% tolerance)",
                    w.name,
                    w.steps_per_sec,
                    floor,
                    baseline_sps,
                    tolerance * 100.0
                ));
            }
        }
    }
    for name in baseline_workload_names(baseline) {
        if !current.iter().any(|w| w.name == name) {
            outcome
                .counter_drift
                .push(format!("{name}: in baseline but not produced by this run"));
        }
    }
    outcome
}

/// Extracts one workload object (from `{"name":"…"` to its closing
/// braces) out of a baseline document. The format is our own stable
/// emission, so plain string scanning is exact — no JSON parser needed
/// in an offline workspace.
#[must_use]
pub fn extract_workload<'a>(doc: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("{{\"name\":\"{name}\",");
    let start = doc.find(&tag)?;
    let end = doc[start..].find("}}")? + start + 2;
    Some(&doc[start..end])
}

/// All workload names in a baseline document, in order.
#[must_use]
pub fn baseline_workload_names(doc: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = doc;
    while let Some(at) = rest.find("{\"name\":\"") {
        let tail = &rest[at + 9..];
        if let Some(q) = tail.find('"') {
            names.push(tail[..q].to_string());
            rest = &tail[q..];
        } else {
            break;
        }
    }
    names
}

/// Reads an unsigned integer field out of a workload block.
#[must_use]
pub fn extract_u64(block: &str, key: &str) -> Option<u64> {
    extract_raw(block, key)?.parse().ok()
}

/// Reads a float field out of a workload block.
#[must_use]
pub fn extract_f64(block: &str, key: &str) -> Option<f64> {
    extract_raw(block, key)?.parse().ok()
}

fn extract_raw<'a>(block: &'a str, key: &str) -> Option<&'a str> {
    let tag = format!("\"{key}\":");
    let start = block.find(&tag)? + tag.len();
    let tail = &block[start..];
    let end = tail.find([',', '}']).unwrap_or(tail.len());
    Some(&tail[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fake(name: &str, steps: u64, sps: f64) -> WorkloadResult {
        WorkloadResult {
            name: name.into(),
            counters: vec![("steps", steps), ("activations", steps * 2)],
            wall_seconds: 1.0,
            steps_per_sec: sps,
            activations_per_sec: sps * 2.0,
        }
    }

    #[test]
    fn json_roundtrips_through_the_extractors() {
        let results = vec![fake("alpha", 100, 50_000.0), fake("beta", 7, 9.0)];
        let doc = to_json(&results);
        assert!(doc.starts_with("{\"benchmark\":\"stigbench-engine\","));
        assert_eq!(
            baseline_workload_names(&doc),
            vec!["alpha".to_string(), "beta".to_string()]
        );
        let block = extract_workload(&doc, "alpha").unwrap();
        assert_eq!(extract_u64(block, "steps"), Some(100));
        assert_eq!(extract_u64(block, "activations"), Some(200));
        assert_eq!(extract_f64(block, "steps_per_sec"), Some(50_000.0));
        let beta = extract_workload(&doc, "beta").unwrap();
        assert_eq!(extract_u64(beta, "steps"), Some(7));
    }

    #[test]
    fn identical_run_passes_check() {
        let results = vec![fake("alpha", 100, 50_000.0)];
        let doc = to_json(&results);
        let outcome = check(&doc, &results, 0.25);
        assert!(outcome.counters_ok());
        assert!(outcome.wall_ok());
    }

    #[test]
    fn counter_drift_is_detected() {
        let baseline = to_json(&[fake("alpha", 100, 50_000.0)]);
        let outcome = check(&baseline, &[fake("alpha", 101, 50_000.0)], 0.25);
        assert!(!outcome.counters_ok());
        assert!(outcome.counter_drift[0].contains("steps = 101, baseline 100"));
    }

    #[test]
    fn missing_and_extra_workloads_are_drift() {
        let baseline = to_json(&[fake("alpha", 1, 1.0), fake("beta", 2, 2.0)]);
        let outcome = check(
            &baseline,
            &[fake("alpha", 1, 1.0), fake("gamma", 3, 3.0)],
            0.25,
        );
        assert!(outcome
            .counter_drift
            .iter()
            .any(|d| d.contains("gamma: missing from baseline")));
        assert!(outcome
            .counter_drift
            .iter()
            .any(|d| d.contains("beta: in baseline but not produced")));
    }

    #[test]
    fn delivered_ratchet_names_the_loss() {
        let with_delivered = |n: u64| {
            let mut w = fake("sweep-864", 100, 1.0);
            w.counters.push(("delivered", n));
            w
        };
        let baseline = to_json(&[with_delivered(200)]);
        let dropped = check(&baseline, &[with_delivered(150)], 0.25);
        assert!(!dropped.counters_ok());
        assert!(dropped
            .counter_drift
            .iter()
            .any(|d| d.contains("delivered ratchet violated: 150 < baseline 200")));
        // An improvement is still exact-match drift (refresh the
        // baseline), but it is not a ratchet violation.
        let improved = check(&baseline, &[with_delivered(250)], 0.25);
        assert!(!improved.counters_ok());
        assert!(!improved.counter_drift.iter().any(|d| d.contains("ratchet")));
    }

    #[test]
    fn wall_regression_respects_tolerance() {
        let baseline = to_json(&[fake("alpha", 100, 100_000.0)]);
        // 25% tolerance: 76k passes, 74k fails.
        assert!(check(&baseline, &[fake("alpha", 100, 76_000.0)], 0.25).wall_ok());
        let slow = check(&baseline, &[fake("alpha", 100, 74_000.0)], 0.25);
        assert!(!slow.wall_ok());
        assert!(slow.counters_ok(), "wall-only regression is not drift");
        assert!(slow.wall_regressions[0].contains("steps/s"));
    }

    #[test]
    fn micro_workloads_are_deterministic_in_counters() {
        let a = micro_workload(ProtocolKind::Sync2);
        let b = micro_workload(ProtocolKind::Sync2);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.name, "micro-sync2");
        assert!(a.counter("trace_hash").is_some());
    }

    #[test]
    fn e12_workload_counts_real_work() {
        let w = e12_workload();
        assert!(w.counter("steps").unwrap() > 0);
        assert!(w.counter("rounds").unwrap() > 0);
        assert_eq!(w.counters, e12_workload().counters, "e12 is deterministic");
    }

    #[test]
    fn tiny_sweep_matches_itself() {
        // A 1-seed sweep keeps the test fast; counters must replay.
        let config = SuiteConfig {
            seeds: 1,
            workers: 2,
        };
        let a = sweep_workload(&config);
        let b = sweep_workload(&config);
        assert_eq!(a.counters, b.counters);
        assert_eq!(a.name, "sweep-54");
        assert!(a.counter("trace_fingerprint").is_some());
    }
}
