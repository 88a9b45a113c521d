//! The gateway workload: an in-process `Gateway` on `127.0.0.1:0`, two
//! client connections in a closed loop, each submitting one capped
//! conformance job and waiting for it before the next.
//!
//! Job `j` of a run runs [`gateway_job_spec`] over the `j mod 256`-th
//! session seed of the workload seed's block. Every served result is
//! compared, outside the timed loop, with a direct `run_batch` of the
//! same spec: fingerprints and metrics JSON must be byte-identical.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use stigmergy_fleet::{run_batch, BatchReport};
use stigmergy_gateway::{Client, Gateway, GatewayConfig, JobRequest, JobResult, Message};

use crate::report::{mean, median, Metrics};
use crate::workloads::{gateway_job_spec, Counters, GATEWAY_JOB_WORKERS};

/// Client connections, each a closed loop.
pub const CLIENTS: usize = 2;

/// Jobs a run completes at least, whatever its length: enough for a p90
/// with ten samples beyond it.
pub const MIN_JOBS: u64 = 100;

/// Set-ups (bind, connect, handshake) per run; the median is reported.
/// A handshake waits for the listener's accept poll, so single set-ups
/// take either about 5 or about 10 ms.
pub const SETUP_REPS: usize = 9;

/// One finished (or failed) job, as its client saw it.
#[derive(Debug)]
pub struct JobRecord {
    /// Index of the job in the run.
    pub index: u64,
    /// Session seed of its spec.
    pub seed: u64,
    /// Submit to Done.
    pub latency: Duration,
    /// Submit to Accepted.
    pub admit: Duration,
    /// Accepted to the first Progress frame.
    pub queue: Duration,
    /// First Progress frame to Done.
    pub run: Duration,
    /// Frames exchanged for the job: Submit, Accepted, every Progress,
    /// Done.
    pub frames: u64,
    /// The served result, or why there is none.
    pub result: Result<JobResult, String>,
}

/// A finished load phase.
#[derive(Debug)]
pub struct GatewayRun {
    /// Median set-up time (bind, two connects and handshakes).
    pub setup_s: f64,
    /// Wall time of the timed loop.
    pub wall: Duration,
    /// Every job, in completion order per client.
    pub jobs: Vec<JobRecord>,
    /// Server-side metrics after the loop.
    pub server_e2e_ms: f64,
    /// Server-side mean queue wait after the loop.
    pub server_queue_ms: f64,
}

fn setup() -> Result<(Gateway, Vec<Client>), String> {
    let gateway = Gateway::bind(("127.0.0.1", 0), GatewayConfig::default())
        .map_err(|e| format!("binding the gateway to 127.0.0.1:0: {e}"))?;
    let addr = gateway.local_addr();
    let mut clients = Vec::with_capacity(CLIENTS);
    for _ in 0..CLIENTS {
        match Client::connect(addr) {
            Ok(c) => clients.push(c),
            Err(e) => {
                drop(clients);
                gateway.shutdown_and_join();
                return Err(format!("connecting to the gateway at {addr}: {e}"));
            }
        }
    }
    Ok((gateway, clients))
}

/// One client's closed loop.
fn client_loop(
    client: &mut Client,
    seeds: &[u64],
    next: &AtomicU64,
    done: &AtomicU64,
    start: Instant,
    seconds: Duration,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    loop {
        if start.elapsed() >= seconds && done.load(Ordering::SeqCst) >= MIN_JOBS {
            return records;
        }
        let index = next.fetch_add(1, Ordering::SeqCst);
        let seed = seeds[(index % seeds.len() as u64) as usize];
        let request = JobRequest {
            spec: gateway_job_spec(seed),
            workers: GATEWAY_JOB_WORKERS,
            deadline_ms: 0,
        };
        let mut record = JobRecord {
            index,
            seed,
            latency: Duration::ZERO,
            admit: Duration::ZERO,
            queue: Duration::ZERO,
            run: Duration::ZERO,
            frames: 2,
            result: Err(String::new()),
        };
        let t = Instant::now();
        let mut first_progress = None;
        let mut progress = 0u64;
        let result = client.submit(&request).and_then(|ticket| {
            record.admit = t.elapsed();
            client.wait(ticket.job, |_, _| {
                first_progress.get_or_insert_with(Instant::now);
                progress += 1;
            })
        });
        let end = Instant::now();
        record.latency = end.duration_since(t);
        if let Some(p) = first_progress {
            record.queue = p.duration_since(t).saturating_sub(record.admit);
            record.run = end.duration_since(p);
        }
        record.frames += progress + 1;
        let ok = result.is_ok();
        record.result = result.map_err(|e| e.to_string());
        records.push(record);
        done.fetch_add(1, Ordering::SeqCst);
        if !ok {
            // The connection's state is unknown after a failed job.
            return records;
        }
    }
}

/// Sets the gateway up [`SETUP_REPS`] times (keeping the last), runs the
/// closed loop for at least `seconds` and [`MIN_JOBS`] jobs, then drains
/// and joins every serving thread.
///
/// # Errors
///
/// When the gateway cannot bind or a client cannot connect.
pub fn run(seeds: &[u64], seconds: Duration) -> Result<GatewayRun, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for _ in 0..SETUP_REPS {
        if let Some((gateway, clients)) = live.take() {
            drop::<Vec<Client>>(clients);
            Gateway::shutdown_and_join(gateway);
        }
        let t = Instant::now();
        live = Some(setup()?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (gateway, mut clients) = live.expect("at least one set-up");

    let next = AtomicU64::new(0);
    let done = AtomicU64::new(0);
    let jobs = Mutex::new(Vec::new());
    let start = Instant::now();
    std::thread::scope(|scope| {
        for client in &mut clients {
            let (next, done, jobs) = (&next, &done, &jobs);
            scope.spawn(move || {
                let records = client_loop(client, seeds, next, done, start, seconds);
                jobs.lock().expect("no client panicked").extend(records);
            });
        }
    });
    let wall = start.elapsed();
    drop(clients);
    let server = gateway.metrics();
    gateway.shutdown_and_join();
    let mut jobs = jobs.into_inner().expect("no client panicked");
    jobs.sort_by_key(|j| j.index);
    Ok(GatewayRun {
        setup_s: median(&setups),
        wall,
        jobs,
        server_e2e_ms: server.e2e_ms.mean().unwrap_or(0.0),
        server_queue_ms: server.queue_wait_ms.mean().unwrap_or(0.0),
    })
}

/// Direct `run_batch` results of every job spec the run used.
#[must_use]
pub fn references(seeds: &[u64]) -> BTreeMap<u64, BatchReport> {
    seeds
        .iter()
        .map(|&seed| {
            let workers = usize::try_from(GATEWAY_JOB_WORKERS).expect("small worker count");
            (seed, run_batch(&gateway_job_spec(seed), workers))
        })
        .collect()
}

/// Outcome of checking a run's jobs against the direct references.
#[derive(Debug, Default)]
pub struct Checked {
    /// Jobs that failed: refused or failed by the server, served with a
    /// result that differs from the reference, or with failed sessions.
    pub failed: u64,
    /// Why the run is not correct (must be empty): a served result that
    /// differs from the reference, a job the server refused or failed, a
    /// session with a model error, or fewer than [`MIN_JOBS`] completed
    /// jobs.
    pub check_failures: Vec<String>,
    /// Every failed job, described.
    pub failures: Vec<String>,
    /// Counters of the sessions of every completed job, in job order.
    pub counters: Counters,
}

/// Compares every job with its reference.
#[must_use]
pub fn check(jobs: &[JobRecord], refs: &BTreeMap<u64, BatchReport>) -> Checked {
    let per_seed: BTreeMap<u64, Counters> = refs
        .iter()
        .map(|(&seed, report)| (seed, Counters::of_batch(report)))
        .collect();
    let mut out = Checked {
        counters: Counters::empty(),
        ..Checked::default()
    };
    let mut completed = 0u64;
    for job in jobs {
        let reference = &refs[&job.seed];
        let name = format!("job {} (session seed {})", job.index, job.seed);
        let problem = match &job.result {
            Err(e) => {
                let p = format!("{name}: {e}");
                out.check_failures.push(p.clone());
                Some(p)
            }
            Ok(served) => {
                completed += 1;
                let direct: Vec<u64> = reference.runs.iter().map(|r| r.trace_hash).collect();
                let mismatch = if served.fingerprints != direct {
                    Some("fingerprints")
                } else if served.metrics_json != reference.metrics.to_json() {
                    Some("metrics JSON")
                } else {
                    None
                };
                out.counters.absorb(&per_seed[&job.seed]);
                if let Some(what) = mismatch {
                    let m = format!("{name}: {what} differ from a direct run_batch");
                    out.check_failures.push(m.clone());
                    Some(m)
                } else {
                    let failed = per_seed[&job.seed].failed;
                    (failed > 0).then(|| format!("{name}: {failed} failed sessions"))
                }
            }
        };
        if let Some(p) = problem {
            out.failed += 1;
            out.failures.push(p);
        }
    }
    if out.counters.errors > 0 {
        out.check_failures.push(format!(
            "{} served sessions reported a model error",
            out.counters.errors
        ));
    }
    if completed < MIN_JOBS {
        out.check_failures.push(format!(
            "{completed} jobs completed, fewer than the {MIN_JOBS} a run needs"
        ));
    }
    out
}

/// Mean microseconds of `Message::encode` and `Message::decode` over the
/// workload's Submit frame and one of its Done frames.
#[must_use]
pub fn codec_us(seed: u64, reference: &BatchReport) -> (f64, f64) {
    const REPS: u32 = 2_000;
    let frames = [
        Message::Submit {
            request: JobRequest {
                spec: gateway_job_spec(seed),
                workers: GATEWAY_JOB_WORKERS,
                deadline_ms: 0,
            },
        },
        Message::Done {
            job: 0,
            fingerprints: reference.runs.iter().map(|r| r.trace_hash).collect(),
            metrics_json: reference.metrics.to_json(),
        },
    ];
    let bodies: Vec<Vec<u8>> = frames.iter().map(Message::encode).collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for f in &frames {
            std::hint::black_box(std::hint::black_box(f).encode());
        }
    }
    let encode = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    let t = Instant::now();
    for _ in 0..REPS {
        for b in &bodies {
            let _ = std::hint::black_box(Message::decode(std::hint::black_box(b)));
        }
    }
    let decode = t.elapsed().as_secs_f64() * 1e6 / f64::from(REPS);
    (encode, decode)
}

/// Records the client-side spans and the server's view of a traced run.
///
/// # Errors
///
/// When no job completed, so there is no span to report.
pub fn record_spans(run: &GatewayRun, m: &mut Metrics) -> Result<(), String> {
    let ok: Vec<&JobRecord> = run.jobs.iter().filter(|j| j.result.is_ok()).collect();
    if ok.is_empty() {
        return Err("no gateway job completed, so there are no spans to report".to_string());
    }
    let ms = |f: fn(&JobRecord) -> Duration| -> f64 {
        mean(
            &ok.iter()
                .map(|j| f(j).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    let latency = ms(|j| j.latency);
    m.set("gateway.admit_ms", ms(|j| j.admit));
    m.set("gateway.queue_ms", ms(|j| j.queue));
    m.set("gateway.run_ms", ms(|j| j.run));
    m.set("gateway.server_e2e_ms", run.server_e2e_ms);
    m.set("gateway.server_queue_ms", run.server_queue_ms);
    m.set("gateway.unaccounted_ms", latency - run.server_e2e_ms);
    m.set(
        "gateway.frames_per_job",
        mean(&ok.iter().map(|j| j.frames as f64).collect::<Vec<_>>()),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(index: u64, seed: u64, result: Result<JobResult, String>) -> JobRecord {
        JobRecord {
            index,
            seed,
            latency: Duration::from_millis(1),
            admit: Duration::ZERO,
            queue: Duration::ZERO,
            run: Duration::ZERO,
            frames: 2,
            result,
        }
    }

    fn served(reference: &BatchReport) -> JobResult {
        JobResult {
            job: 0,
            fingerprints: reference.runs.iter().map(|r| r.trace_hash).collect(),
            metrics_json: reference.metrics.to_json(),
        }
    }

    #[test]
    fn only_a_full_run_of_matching_jobs_passes_the_check() {
        let refs = references(&[5]);
        let good = |i| job(i, 5, Ok(served(&refs[&5])));
        let full: Vec<JobRecord> = (0..MIN_JOBS).map(good).collect();
        assert!(check(&full, &refs).check_failures.is_empty());

        // A refused job fails the run, even among enough good ones.
        let mut refused: Vec<JobRecord> = (0..MIN_JOBS).map(good).collect();
        refused.push(job(MIN_JOBS, 5, Err("refused".to_string())));
        let c = check(&refused, &refs);
        assert_eq!(c.check_failures.len(), 1, "{:?}", c.check_failures);
        assert!(c.failed >= 1);

        // A run that stops short fails, and so does a differing result.
        assert_eq!(check(&full[..2], &refs).check_failures.len(), 1);
        let mut differing = served(&refs[&5]);
        differing.fingerprints[0] ^= 1;
        let mut mixed: Vec<JobRecord> = (0..MIN_JOBS).map(good).collect();
        mixed[0] = job(0, 5, Ok(differing));
        assert_eq!(check(&mixed, &refs).check_failures.len(), 1);
    }
}
