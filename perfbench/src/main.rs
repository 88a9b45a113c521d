//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <conformance|swarm|gateway> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run measures the end-to-end metrics with no
//! instrumentation in the way; with `--trace 1` it measures the per-layer
//! metrics instead (see `layers`). Either way it prints a machine header,
//! a table, and as its last line a JSON result; it exits 1 when a
//! correctness check fails and 2 when the run could not be set up or
//! left nothing to measure (no gateway job completed). The
//! workloads, metrics and what each layer metric should move are
//! described in `NOTES.md`.

// The workspace lint configuration bans clock reads so that the
// simulation stays deterministic; the benchmark is the harness that owns
// the clock, and nothing it times feeds back into a session.
#![allow(clippy::disallowed_methods)]

mod gateway_load;
mod layers;
mod report;
mod workloads;

use std::time::{Duration, Instant};

use stigmergy_fleet::{run_batch_with, BatchReport, BatchSpec, CancelToken};

use report::{
    highest_qualified_percentile, json_str, median, peak_rss_mb, percentile, ratio, reset_peak_rss,
    samples_beyond, Metrics, END_TO_END, PER_LAYER,
};
use workloads::{describe_failures, Counters, Workload};

/// Set-ups of each block's inputs; the median over every block's set-ups
/// is reported. One set-up takes tens of microseconds, so its time moves
/// with the machine's state; repeating it before every block samples that
/// state across the whole run rather than in its first milliseconds.
const SETUP_REPS: usize = 5;

/// Tail percentiles considered for the sample-count note in the header.
const TAIL_LADDER: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value:?}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                });
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Pool workers (and client connections): two, or fewer on a smaller
/// machine.
fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// What a run found, before printing.
struct Outcome {
    metrics: Metrics,
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Extra header fields, as JSON members.
    header: Vec<String>,
    /// Check failures and failed operations, one per line.
    notes: Vec<String>,
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <conformance|swarm|gateway> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let outcome = match (args.workload, args.trace) {
        (Workload::Gateway, false) => gateway_untraced(&args),
        (Workload::Gateway, true) => gateway_traced(&args),
        (_, false) => batch_untraced(&args),
        (_, true) => batch_traced(&args),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} run failed: {e}", args.workload.name());
            std::process::exit(2);
        }
    };
    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if let Err(e) = outcome.metrics.check_complete(list) {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    }
    let mut header = vec![
        format!(
            "\"nproc\": {}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
        format!("\"rustc\": {}", json_str(env!("PERFBENCH_RUSTC"))),
        format!("\"profile\": {}", json_str(env!("PERFBENCH_PROFILE"))),
        format!("\"workload\": {}", json_str(args.workload.name())),
        format!("\"seed\": {}", args.seed),
        format!("\"seconds\": {}", args.seconds),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"workers\": {}", workers()),
    ];
    header.extend(outcome.header);
    println!("# perfbench {{{}}}", header.join(", "));
    for note in &outcome.notes {
        println!("# {note}");
    }
    print!("{}", outcome.metrics.table(list));
    println!(
        "{}",
        outcome
            .metrics
            .result_json(list, outcome.correct, outcome.attempted, outcome.failed)
    );
    if !outcome.correct {
        eprintln!("perfbench: correctness check failed (see the # lines above)");
        std::process::exit(1);
    }
}

/// Checks a batch report against its spec: one report per session, in
/// spec order, and merged metrics that agree with the reports.
fn check_report(spec: &BatchSpec, report: &BatchReport) -> Result<(), String> {
    let sessions = spec.sessions();
    if report.runs.len() != sessions.len() {
        return Err(format!(
            "{} reports for {} sessions",
            report.runs.len(),
            sessions.len()
        ));
    }
    if let Some((s, r)) = sessions
        .iter()
        .zip(&report.runs)
        .find(|(s, r)| s.seed != r.seed || s.protocol.name() != r.protocol)
    {
        return Err(format!(
            "report for {} seed {} where the spec has {} seed {}",
            r.protocol,
            r.seed,
            s.protocol.name(),
            s.seed
        ));
    }
    let c = Counters::of_batch(report);
    let m = &report.metrics;
    if (
        m.sessions,
        m.delivered,
        m.steps,
        m.delivered_bits,
        m.corrupt,
    ) != (
        c.sessions,
        c.delivered,
        c.steps,
        c.delivered_bits,
        c.corrupt,
    ) {
        return Err("merged metrics disagree with the session reports".to_string());
    }
    Ok(())
}

/// Records the job-latency metrics and returns the header fields that
/// state their sample counts. A job is one submit-and-wait on the gateway
/// workload, and one session on the batch workloads, where its latency is
/// the time from the start of its block's `run_batch` until its result
/// reaches the caller (so there `jobs_per_s` repeats `sessions_per_s`).
/// The percentiles pool every block's jobs: the blocks' own medians
/// cluster around two values, so a median over blocks jumps between them.
///
/// # Errors
///
/// When no job completed: a latency with no samples is not reported.
fn job_latency(m: &mut Metrics, jobs_ms: &[f64], wall_s: f64) -> Result<Vec<String>, String> {
    let p90 = percentile(jobs_ms, 90.0)
        .ok_or("no job completed, so there is no job latency to report")?;
    m.set("jobs_per_s", ratio(jobs_ms.len() as f64, wall_s));
    m.set("job_p50_ms", median(jobs_ms));
    m.set("job_p90_ms", p90);
    let tail = highest_qualified_percentile(jobs_ms.len(), &TAIL_LADDER)
        .map_or("null".to_string(), |p| p.to_string());
    Ok(vec![
        format!("\"jobs\": {}", jobs_ms.len()),
        format!(
            "\"job_p90_samples_beyond\": {}",
            samples_beyond(jobs_ms.len(), 90.0)
        ),
        format!("\"highest_tail_percentile_with_10_beyond\": {tail}"),
    ])
}

fn batch_untraced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let blocks = w.blocks(args.seconds);
    let workers = workers();
    let mut setups = Vec::new();
    let mut specs = Vec::new();
    let mut reports = Vec::new();
    let mut jobs_ms = Vec::new();
    let mut peaks = Vec::new();
    let mut wall = 0.0;
    for b in 0..blocks {
        let mut spec = None;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            let built = w.block_spec(w.session_seeds(args.seed, b));
            std::hint::black_box(built.sessions().len());
            setups.push(t.elapsed().as_secs_f64());
            spec = Some(built);
        }
        let spec = spec.expect("at least one set-up");
        // A block's peak RSS is set by its heaviest sessions, which change
        // with the seeds; the median over blocks is steadier than the
        // run's maximum.
        reset_peak_rss()?;
        // `run_batch` itself, with a progress observer that notes when each
        // session's result reaches the caller.
        let t = Instant::now();
        let report = run_batch_with(
            &spec,
            workers,
            |_| jobs_ms.push(t.elapsed().as_secs_f64() * 1e3),
            &CancelToken::new(),
        )
        .map_err(|e| e.to_string())?;
        let elapsed = t.elapsed().as_secs_f64();
        peaks.push(peak_rss_mb()?);
        wall += elapsed;
        reports.push(report);
        specs.push(spec);
    }

    let mut notes = Vec::new();
    let mut check_failures = Vec::new();
    let mut total = Counters::empty();
    let mut block_json = Vec::new();
    for (b, (spec, report)) in specs.iter().zip(&reports).enumerate() {
        if let Err(e) = check_report(spec, report) {
            check_failures.push(format!("check failed: block {b}: {e}"));
        }
        let c = Counters::of_batch(report);
        total.absorb(&c);
        block_json.push(format!(
            "{{\"block\": {b}, \"session_seeds\": \"{}..{}\", \"wall_s\": {:.3}, \"peak_rss_mb\": {:.1}, \"counters\": {}}}",
            spec.seeds.first().copied().unwrap_or(0),
            spec.seeds.last().map_or(0, |s| s + 1),
            report.wall.as_secs_f64(),
            peaks[b],
            c.to_json()
        ));
        notes.extend(
            describe_failures(&report.runs)
                .into_iter()
                .map(|f| format!("failed session: {f}")),
        );
    }

    let mut m = Metrics::default();
    m.set("setup_s", median(&setups));
    m.set("sessions_per_s", ratio(total.sessions as f64, wall));
    m.set(
        "delivered_bits_per_s",
        ratio(total.delivered_bits as f64, wall),
    );
    m.set(
        "delivered_ratio",
        ratio(total.delivered as f64, total.sessions as f64),
    );
    m.set("peak_rss_mb", median(&peaks));
    let mut header = job_latency(&mut m, &jobs_ms, wall)?;
    header.push(format!("\"setup_samples\": {}", setups.len()));
    header.push(format!("\"sessions\": {}", total.sessions));
    header.push(format!("\"blocks\": [{}]", block_json.join(", ")));
    if total.errors > 0 {
        check_failures.push(format!(
            "check failed: {} sessions reported a model error",
            total.errors
        ));
    }
    let correct = check_failures.is_empty();
    notes.extend(check_failures);
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: total.sessions,
        failed: total.failed,
        header,
        notes,
    })
}

/// Per-layer metrics of a layer that does no work on this workload.
fn idle_layers(m: &mut Metrics, prefixes: &[&str]) {
    for (name, _) in PER_LAYER {
        if prefixes.iter().any(|p| name.starts_with(p)) && m.get(name).is_none() {
            m.set(name, 0.0);
        }
    }
}

/// Notes the tracing overhead next to the clock calibration, turns a
/// layer run's checks into notes, and returns their verdict.
fn layer_checks(run: &layers::LayerRun, m: &Metrics, notes: &mut Vec<String>) -> bool {
    let get = |name| m.get(name).unwrap_or(0.0);
    notes.push(format!(
        "tracing overhead {:.3}x ({:.3} s traced vs {:.3} s untraced); clock read {:.1} ns",
        get("bench.trace_overhead"),
        get("bench.traced_s"),
        get("bench.untraced_s"),
        get("bench.clock_read_ns"),
    ));
    notes.extend(
        run.mismatches
            .iter()
            .map(|mm| format!("check failed: replay mismatch: {mm}")),
    );
    let accounted = run.unaccounted_share <= layers::ACCOUNTING_TOLERANCE;
    notes.push(format!(
        "self-check: timed segments leave {:.4} of the replayed sessions' traced time unaccounted (tolerance {})",
        run.unaccounted_share,
        layers::ACCOUNTING_TOLERANCE
    ));
    if !accounted {
        notes.push("check failed: traced time is not accounted for within tolerance".to_string());
    }
    if run.errors > 0 {
        notes.push(format!(
            "check failed: {} sessions reported a model error",
            run.errors
        ));
    }
    run.mismatches.is_empty() && accounted && run.errors == 0
}

fn batch_traced(args: &Args) -> Result<Outcome, String> {
    let w = args.workload;
    let spec = w.block_spec(w.session_seeds(args.seed, 0));
    let sessions = spec.sessions();
    let mut m = Metrics::default();
    let clock = layers::clock_read_ns();
    m.set("bench.clock_read_ns", clock);
    let run = layers::trace_batch(&sessions, workers(), clock, &mut m);
    idle_layers(&mut m, &["gateway.", "algo."]);
    let mut notes = Vec::new();
    let correct = layer_checks(&run, &m, &mut notes);
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: run.sessions,
        failed: run.failed,
        header: vec![
            "\"traced_block\": 0".to_string(),
            format!("\"sessions\": {}", run.sessions),
        ],
        notes,
    })
}

fn gateway_untraced(args: &Args) -> Result<Outcome, String> {
    let seeds = Workload::Gateway.session_seeds(args.seed, 0);
    reset_peak_rss()?;
    let run = gateway_load::run(&seeds, Duration::from_secs(args.seconds))?;
    let peak = peak_rss_mb()?;
    let refs = gateway_load::references(&seeds);
    let checked = gateway_load::check(&run.jobs, &refs);
    let wall = run.wall.as_secs_f64();
    let jobs_ms: Vec<f64> = run
        .jobs
        .iter()
        .filter(|j| j.result.is_ok())
        .map(|j| j.latency.as_secs_f64() * 1e3)
        .collect();
    let c = checked.counters;
    let mut m = Metrics::default();
    m.set("setup_s", run.setup_s);
    m.set("sessions_per_s", ratio(c.sessions as f64, wall));
    m.set("delivered_bits_per_s", ratio(c.delivered_bits as f64, wall));
    m.set(
        "delivered_ratio",
        ratio(c.delivered as f64, c.sessions as f64),
    );
    m.set("peak_rss_mb", peak);
    let mut header = job_latency(&mut m, &jobs_ms, wall).map_err(|e| {
        let first = checked.failures.first().map_or("", String::as_str);
        format!("{e}; first failed job: {first}")
    })?;
    header.push(format!("\"setup_samples\": {}", gateway_load::SETUP_REPS));
    header.push(format!("\"counters\": {}", c.to_json()));
    let mut notes: Vec<String> = checked
        .failures
        .iter()
        .map(|f| format!("failed job: {f}"))
        .collect();
    notes.extend(
        checked
            .check_failures
            .iter()
            .map(|f| format!("check failed: {f}")),
    );
    Ok(Outcome {
        metrics: m,
        correct: checked.check_failures.is_empty(),
        attempted: run.jobs.len() as u64,
        failed: checked.failed,
        header,
        notes,
    })
}

fn gateway_traced(args: &Args) -> Result<Outcome, String> {
    let seeds = Workload::Gateway.session_seeds(args.seed, 0);
    let mut m = Metrics::default();
    let clock = layers::clock_read_ns();
    m.set("bench.clock_read_ns", clock);
    let run = gateway_load::run(&seeds, Duration::from_secs(args.seconds))?;
    let refs = gateway_load::references(&seeds);
    let checked = gateway_load::check(&run.jobs, &refs);
    gateway_load::record_spans(&run, &mut m)?;
    let (encode, decode) = gateway_load::codec_us(seeds[0], &refs[&seeds[0]]);
    m.set("gateway.encode_us", encode);
    m.set("gateway.decode_us", decode);

    // The layers under the server, on the sessions its jobs ran, at the
    // jobs' worker count.
    let sessions: Vec<_> = seeds
        .iter()
        .flat_map(|&s| workloads::gateway_job_spec(s).sessions())
        .collect();
    let job_workers = usize::try_from(workloads::GATEWAY_JOB_WORKERS).expect("small worker count");
    let layer_run = layers::trace_batch(&sessions, job_workers, clock, &mut m);
    idle_layers(&mut m, &["algo."]);

    let mut notes = Vec::new();
    let correct = layer_checks(&layer_run, &m, &mut notes) && checked.check_failures.is_empty();
    notes.extend(checked.failures.iter().map(|f| format!("failed job: {f}")));
    notes.extend(
        checked
            .check_failures
            .iter()
            .map(|f| format!("check failed: {f}")),
    );
    Ok(Outcome {
        metrics: m,
        correct,
        attempted: run.jobs.len() as u64,
        failed: checked.failed,
        header: vec![
            format!("\"jobs\": {}", run.jobs.len()),
            format!("\"sessions\": {}", layer_run.sessions),
        ],
        notes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args(&[
            "--workload",
            "swarm",
            "--seed",
            "7",
            "--seconds",
            "30",
            "--trace",
            "1",
        ])
        .expect("valid arguments");
        assert_eq!(a.workload, Workload::Swarm);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 30, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "swarm", "--seed", "1", "--seconds", "1"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--bogus", "1"]).is_err());
    }
}
