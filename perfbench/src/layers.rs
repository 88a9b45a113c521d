//! The traced run: per-layer time, measured from outside the crates.
//!
//! Protocol sessions are replayed with the shape `fleet::batch` drives
//! them with — `Engine::builder`, `WakeAllFirst`, `FaultSpec::plan`, a
//! `TraceEncoder` observer — but with a timed [`MovementProtocol`]
//! wrapper, a timed [`Schedule`] wrapper and a timed observer, and with
//! every instant timed on its own. The replay must reproduce the
//! session's `trace_hash` exactly, or the run is not correct. Hardened and
//! algorithm sessions have no replay shape outside `fleet` and are timed
//! whole.
//!
//! Engine self time is an instant's time minus the schedule, protocol and
//! observer time inside it: snapshot, view building, frame transforms,
//! move application and the collision margin. Every timed span carries
//! about one clock read its own timer does not see, so the run calibrates
//! the cost of a read and takes one read per nested span out of the
//! engine's self time, and one per timed segment out of the self-check.

use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::time::{Duration, Instant};

use stigmergy::async2::{Async2, DriftPolicy};
use stigmergy::async_n::AsyncSwarm;
use stigmergy::paced::{Paced2, PacedConfig, PacedSwarm};
use stigmergy::{label_by_id, label_by_lex, label_by_sec};
use stigmergy_fleet::{
    ring, run_indexed, run_session, run_session_contained, ProtocolKind, RunReport, SessionSpec,
    TraceEncoder,
};
use stigmergy_geometry::voronoi::granular_radii;
use stigmergy_geometry::{smallest_enclosing_circle, Point};
use stigmergy_robots::{Capabilities, Engine, MovementProtocol, View};
use stigmergy_scheduler::{ActivationSet, CodingSpec, Schedule, WakeAllFirst};

use crate::report::{mean, median, percentile, ratio, Metrics};

/// Largest share of the replayed sessions' traced time the timed
/// segments may leave unaccounted for.
pub const ACCOUNTING_TOLERANCE: f64 = 0.05;

/// Repetitions of each direct geometry call, so one call's cost rises
/// well above the clock resolution.
const GEOMETRY_REPS: u32 = 64;

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Nanoseconds spent inside the wrapped layers of one replay.
#[derive(Debug, Default)]
struct Probe {
    schedule_ns: Cell<u64>,
    protocol_ns: Cell<u64>,
    activations: Cell<u64>,
    trace_ns: Cell<u64>,
    spans: Cell<u64>,
}

impl Probe {
    fn add(&self, cell: &Cell<u64>, since: Instant) {
        cell.set(cell.get() + ns(since.elapsed()));
        self.spans.set(self.spans.get() + 1);
    }
}

/// A protocol that times every activation of the protocol it wraps.
struct TimedProtocol<P> {
    inner: P,
    probe: Rc<Probe>,
}

impl<P: MovementProtocol> MovementProtocol for TimedProtocol<P> {
    fn on_activate(&mut self, view: &View) -> Point {
        let t = Instant::now();
        let target = self.inner.on_activate(view);
        self.probe.add(&self.probe.protocol_ns, t);
        self.probe.activations.set(self.probe.activations.get() + 1);
        target
    }
}

/// A schedule that times every activation set of the schedule it wraps.
struct TimedSchedule<S> {
    inner: S,
    probe: Rc<Probe>,
}

impl<S: Schedule> Schedule for TimedSchedule<S> {
    fn activations(&mut self, t: u64, n: usize) -> ActivationSet {
        let start = Instant::now();
        let set = self.inner.activations(t, n);
        self.probe.add(&self.probe.schedule_ns, start);
        set
    }

    fn activations_into(&mut self, t: u64, n: usize, out: &mut ActivationSet) {
        let start = Instant::now();
        self.inner.activations_into(t, n, out);
        self.probe.add(&self.probe.schedule_ns, start);
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// What one traced session measured.
#[derive(Debug, Clone, Default)]
pub struct SessionTrace {
    /// Replayed with per-layer timing (otherwise timed whole).
    pub replayed: bool,
    /// Whole traced time of the session.
    pub traced_ns: u64,
    /// Sum of the independently timed segments (replays only).
    pub accounted_ns: u64,
    /// Segments timed.
    pub segments: u64,
    /// Spans timed inside the instants (schedule, protocol, observer).
    pub nested_spans: u64,
    /// Engine build.
    pub build_ns: u64,
    /// Instants timed (instant 0 included).
    pub steps: u64,
    /// Time inside those instants.
    pub step_ns: u64,
    /// Schedule time inside them.
    pub schedule_ns: u64,
    /// Protocol time at instants after 0.
    pub protocol_ns: u64,
    /// Activations at instants after 0.
    pub activations: u64,
    /// Protocol time at instant 0 (pre-processing).
    pub preprocess_ns: u64,
    /// Observer (trace encoding) time inside the instants.
    pub trace_ns: u64,
    /// Encoded trace bytes.
    pub trace_len: u64,
    /// The replay's trace fingerprint.
    pub fingerprint: u64,
    /// Whether the replay delivered.
    pub delivered: bool,
}

/// Replays one protocol session the way `fleet::batch::drive` runs it.
fn replay<P, Q, D>(
    spec: &SessionSpec,
    positions: Vec<Point>,
    protocols: Vec<P>,
    capabilities: Option<Capabilities>,
    queue: Q,
    delivered: D,
) -> SessionTrace
where
    P: MovementProtocol + 'static,
    Q: FnOnce(&mut Engine<TimedProtocol<P>>),
    D: Fn(&Engine<TimedProtocol<P>>) -> bool,
{
    let start = Instant::now();
    let mut out = SessionTrace {
        replayed: true,
        ..SessionTrace::default()
    };
    let probe = Rc::new(Probe::default());
    let n = positions.len();

    let t = Instant::now();
    let schedule = TimedSchedule {
        inner: WakeAllFirst::new(
            spec.schedule
                .build_faulted(n, &spec.plan.plan(spec.plan_seed())),
        ),
        probe: Rc::clone(&probe),
    };
    let mut builder = Engine::builder()
        .positions(positions)
        .protocols(protocols.into_iter().map(|inner| TimedProtocol {
            inner,
            probe: Rc::clone(&probe),
        }))
        .schedule(schedule)
        .frame_seed(spec.frame_seed())
        .record_trace(false);
    if let Some(caps) = capabilities {
        builder = builder.capabilities(caps);
    }
    let mut engine = builder
        .build()
        .expect("the session's configuration is valid");
    let encoder = Rc::new(RefCell::new(TraceEncoder::new(engine.positions())));
    let sink = Rc::clone(&encoder);
    let observer_probe = Rc::clone(&probe);
    engine.observe_trace(move |ev| {
        let t = Instant::now();
        sink.borrow_mut().record_event(&ev);
        observer_probe.add(&observer_probe.trace_ns, t);
    });
    out.build_ns = ns(t.elapsed());
    let mut accounted = out.build_ns;
    let mut segments = 1;

    let t = Instant::now();
    let first = engine.run(1);
    let step0 = ns(t.elapsed());
    out.preprocess_ns = probe.protocol_ns.replace(0);
    probe.activations.set(0);
    out.steps = 1;
    out.step_ns = step0;
    accounted += step0;
    segments += 1;
    if first.is_ok() {
        let t = Instant::now();
        engine.set_fault_plan(spec.plan.plan(spec.plan_seed()));
        queue(&mut engine);
        accounted += ns(t.elapsed());
        segments += 1;
        for _ in 0..spec.budget() {
            let t = Instant::now();
            let stepped = engine.run_until(1, |_| false);
            let d = ns(t.elapsed());
            out.step_ns += d;
            out.steps += 1;
            accounted += d;
            segments += 1;
            if stepped.is_err() {
                break;
            }
            let t = Instant::now();
            let done = delivered(&engine);
            accounted += ns(t.elapsed());
            segments += 1;
            if done {
                out.delivered = true;
                break;
            }
        }
    }
    let t = Instant::now();
    {
        let encoder = encoder.borrow();
        out.fingerprint = encoder.fingerprint();
        out.trace_len = encoder.encoded_len() as u64;
    }
    accounted += ns(t.elapsed());
    out.segments = segments + 1;
    out.nested_spans = probe.spans.get();
    out.schedule_ns = probe.schedule_ns.get();
    out.protocol_ns = probe.protocol_ns.get();
    out.activations = probe.activations.get();
    out.trace_ns = probe.trace_ns.get();
    out.accounted_ns = accounted;
    out.traced_ns = ns(start.elapsed());
    out
}

/// The paced channel a coding spec selects (`None`: the binary protocols).
fn paced_config(coding: CodingSpec) -> Option<PacedConfig> {
    let (levels, dwell, fec) = match coding {
        CodingSpec::Binary => return None,
        CodingSpec::MultiLevel { levels, dwell } => (levels, dwell, false),
        CodingSpec::Fec { levels, dwell } => (levels, dwell, true),
    };
    Some(
        PacedConfig::new(usize::from(levels), u32::from(dwell), fec)
            .expect("the workload's coding spec is valid"),
    )
}

/// The two-robot start configuration `fleet` uses.
fn pair_positions() -> Vec<Point> {
    vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)]
}

/// The start configuration of a session.
#[must_use]
pub fn start_positions(spec: &SessionSpec) -> Vec<Point> {
    match spec.protocol {
        ProtocolKind::Sync2 | ProtocolKind::Async2 if spec.algorithm.is_none() => pair_positions(),
        _ => ring(spec.cohort, 18.0),
    }
}

fn swarm<P, F, L>(spec: &SessionSpec, make: F, caps: Capabilities, label_of: L) -> SessionTrace
where
    P: MovementProtocol + 'static,
    F: Fn() -> P,
    L: Fn(&Engine<TimedProtocol<P>>, usize) -> Option<usize>,
    TimedProtocol<P>: SwarmInbox,
{
    let n = spec.cohort;
    let receiver = n - 1;
    let payload = spec.payload.clone();
    replay(
        spec,
        ring(n, 18.0),
        (0..n).map(|_| make()).collect(),
        Some(caps),
        |e| {
            let label = label_of(e, receiver).expect("receiver must be nameable");
            e.protocol_mut(0).send_to(label, &payload);
        },
        |e| e.protocol(receiver).has_payload(&spec.payload),
    )
}

/// Queue and inbox access of the swarm protocols.
trait SwarmInbox {
    fn send_to(&mut self, label: usize, payload: &[u8]);
    fn has_payload(&self, payload: &[u8]) -> bool;
}

impl SwarmInbox for TimedProtocol<PacedSwarm> {
    fn send_to(&mut self, label: usize, payload: &[u8]) {
        self.inner.send_label(label, payload);
    }
    fn has_payload(&self, payload: &[u8]) -> bool {
        self.inner.inbox().iter().any(|m| m.payload == payload)
    }
}

impl SwarmInbox for TimedProtocol<AsyncSwarm> {
    fn send_to(&mut self, label: usize, payload: &[u8]) {
        self.inner.send_label(label, payload);
    }
    fn has_payload(&self, payload: &[u8]) -> bool {
        self.inner.inbox().iter().any(|m| m.payload == payload)
    }
}

/// Traces one session: a timed replay for the protocol sessions the
/// paced FEC channel and the asynchronous protocols run, whole timing for
/// hardened and algorithm sessions.
#[must_use]
pub fn trace_session(spec: &SessionSpec) -> SessionTrace {
    if spec.algorithm.is_some() {
        return whole(spec);
    }
    let payload = spec.payload.clone();
    match (spec.protocol, paced_config(spec.coding)) {
        (ProtocolKind::Sync2, Some(cfg)) => replay(
            spec,
            pair_positions(),
            vec![Paced2::new(cfg), Paced2::new(cfg)],
            None,
            |e| e.protocol_mut(0).inner.send(&payload),
            |e| {
                e.protocol(1)
                    .inner
                    .inbox()
                    .iter()
                    .any(|m| m == &spec.payload)
            },
        ),
        (ProtocolKind::Async2, _) => replay(
            spec,
            pair_positions(),
            vec![
                Async2::new(DriftPolicy::Diverge),
                Async2::new(DriftPolicy::Diverge),
            ],
            None,
            |e| e.protocol_mut(0).inner.send(&payload),
            |e| {
                e.protocol(1)
                    .inner
                    .inbox()
                    .iter()
                    .any(|m| m == &spec.payload)
            },
        ),
        (ProtocolKind::SyncSwarmRouted, Some(cfg)) => swarm(
            spec,
            move || PacedSwarm::routed(cfg),
            Capabilities::identified_with_direction(),
            |e, to| label_by_id(e.ids()?).ok()?.label_of(to),
        ),
        (ProtocolKind::SyncSwarmLex, Some(cfg)) => swarm(
            spec,
            move || PacedSwarm::anonymous_with_direction(cfg),
            Capabilities::anonymous_with_direction(),
            |e, to| label_by_lex(e.trace().initial()).ok()?.label_of(to),
        ),
        (ProtocolKind::SyncSwarmSec, Some(cfg)) => swarm(
            spec,
            move || PacedSwarm::anonymous(cfg),
            Capabilities::anonymous(),
            |e, to| label_by_sec(e.trace().initial(), 0).ok()?.label_of(to),
        ),
        (ProtocolKind::AsyncSwarm, _) => swarm(
            spec,
            AsyncSwarm::anonymous,
            Capabilities::anonymous(),
            |e, to| label_by_sec(e.trace().initial(), 0).ok()?.label_of(to),
        ),
        // Hardened sessions, and the binary synchronous protocols no
        // workload runs.
        _ => whole(spec),
    }
}

/// Times a session whole through `fleet::run_session`.
fn whole(spec: &SessionSpec) -> SessionTrace {
    let t = Instant::now();
    let report = run_session(spec);
    SessionTrace {
        replayed: false,
        traced_ns: ns(t.elapsed()),
        fingerprint: report.trace_hash,
        trace_len: report.trace_len as u64,
        delivered: report.delivered,
        ..SessionTrace::default()
    }
}

/// Cost of one `Instant::now()`, in nanoseconds (median of 9 rounds).
#[must_use]
pub fn clock_read_ns() -> f64 {
    const READS: u32 = 100_000;
    let rounds: Vec<f64> = (0..9)
        .map(|_| {
            let t = Instant::now();
            let mut last = t;
            for _ in 0..READS {
                last = std::hint::black_box(Instant::now());
            }
            ns(last.duration_since(t)) as f64 / f64::from(READS)
        })
        .collect();
    median(&rounds)
}

/// Mean microseconds of `granular_radii` and `smallest_enclosing_circle`
/// over the sessions' start configurations.
#[must_use]
pub fn geometry_us(sessions: &[SessionSpec]) -> (f64, f64) {
    let mut radii = Vec::with_capacity(sessions.len());
    let mut sec = Vec::with_capacity(sessions.len());
    for spec in sessions {
        let sites = start_positions(spec);
        let t = Instant::now();
        for _ in 0..GEOMETRY_REPS {
            let _ = std::hint::black_box(granular_radii(std::hint::black_box(&sites)));
        }
        radii.push(ns(t.elapsed()) as f64 / f64::from(GEOMETRY_REPS) / 1e3);
        let t = Instant::now();
        for _ in 0..GEOMETRY_REPS {
            let _ = std::hint::black_box(smallest_enclosing_circle(std::hint::black_box(&sites)));
        }
        sec.push(ns(t.elapsed()) as f64 / f64::from(GEOMETRY_REPS) / 1e3);
    }
    (mean(&radii), mean(&sec))
}

/// The traced run of one set of sessions, with its checks.
#[derive(Debug)]
pub struct LayerRun {
    /// Sessions traced.
    pub sessions: u64,
    /// Replays whose fingerprint, length, steps or delivery differ from
    /// `run_session`'s report (must be 0).
    pub mismatches: Vec<String>,
    /// Sessions with a model error or a corrupt delivery.
    pub failed: u64,
    /// Sessions with a model error (must be 0).
    pub errors: u64,
    /// Unaccounted share of the replayed sessions' traced time.
    pub unaccounted_share: f64,
}

/// Runs the untraced pass and the traced pass over `sessions` at
/// `workers`, checks the replays against the untraced reports, and
/// records the batch layers' metrics into `m`. `clock_ns` is the
/// calibrated cost of one clock read.
pub fn trace_batch(
    sessions: &[SessionSpec],
    workers: usize,
    clock_ns: f64,
    m: &mut Metrics,
) -> LayerRun {
    // Untraced pass: the fleet's own session runner, timed per session
    // from inside the pool.
    let t = Instant::now();
    let untraced: Vec<(RunReport, u64)> = run_indexed(sessions.to_vec(), workers, |s| {
        let t = Instant::now();
        let report = run_session_contained(s);
        (report, ns(t.elapsed()))
    });
    let untraced_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let traced: Vec<SessionTrace> = run_indexed(sessions.to_vec(), workers, trace_session);
    let traced_s = t.elapsed().as_secs_f64();

    let mut mismatches = Vec::new();
    for ((spec, (report, _)), tr) in sessions.iter().zip(&untraced).zip(&traced) {
        if report.error.is_some() {
            // A failed session's replay stops at the error like the
            // original; the error fails the run, and is not compared.
            continue;
        }
        let expect = (report.trace_hash, report.trace_len as u64, report.delivered);
        let got = (tr.fingerprint, tr.trace_len, tr.delivered);
        if expect != got || (tr.replayed && tr.steps != report.steps) {
            mismatches.push(format!(
                "{} {} {} seed {}: replay {got:?} in {} steps, run_session {expect:?} in {} steps",
                spec.protocol.name(),
                spec.schedule.name(),
                spec.plan.name(),
                spec.seed,
                tr.steps,
                report.steps
            ));
        }
    }

    // Fleet layer, from the untraced pass.
    let busy_ns: u64 = untraced.iter().map(|(_, d)| d).sum();
    let session_ms: Vec<f64> = untraced.iter().map(|(_, d)| *d as f64 / 1e6).collect();
    let steps: u64 = untraced.iter().map(|(r, _)| r.steps).sum();
    let undelivered_steps: u64 = untraced
        .iter()
        .filter(|(r, _)| !r.delivered)
        .map(|(r, _)| r.steps)
        .sum();
    let bits: u64 = untraced.iter().map(|(r, _)| r.delivered_bits).sum();
    let corrected: u64 = untraced.iter().map(|(r, _)| r.fec_corrected).sum();
    let rejected: u64 = untraced.iter().map(|(r, _)| r.fec_rejected).sum();
    let failed = untraced
        .iter()
        .filter(|(r, _)| crate::workloads::is_failure(r))
        .count() as u64;
    let errors = untraced.iter().filter(|(r, _)| r.error.is_some()).count() as u64;
    m.set("fleet.busy_s", busy_ns as f64 / 1e9);
    m.set(
        "fleet.idle_share",
        1.0 - ratio(busy_ns as f64 / 1e9, untraced_s * workers as f64),
    );
    m.set("fleet.session_p50_ms", median(&session_ms));
    m.set(
        "fleet.session_max_ms",
        percentile(&session_ms, 100.0).unwrap_or(0.0),
    );
    m.set(
        "fleet.undelivered_step_share",
        ratio(undelivered_steps as f64, steps as f64),
    );
    m.set(
        "fleet.steps_per_delivered_bit",
        ratio(steps as f64, bits as f64),
    );
    m.set("robots.steps_per_s", ratio(steps as f64, untraced_s));
    m.set("coding.fec_corrected", corrected as f64);
    m.set("coding.fec_rejected", rejected as f64);
    m.set(
        "coding.reject_share",
        ratio(rejected as f64, (corrected + rejected) as f64),
    );

    // Algorithm layer: whole-timed sessions of the traced pass.
    let algo: Vec<(&RunReport, &SessionTrace)> = untraced
        .iter()
        .zip(&traced)
        .filter(|((r, _), _)| r.algo.is_some())
        .map(|((r, _), t)| (r, t))
        .collect();
    let outcomes: Vec<_> = algo.iter().filter_map(|(r, _)| r.algo).collect();
    m.set(
        "algo.session_ms",
        mean(
            &algo
                .iter()
                .map(|(_, t)| t.traced_ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "algo.activations_to_decision",
        mean(
            &outcomes
                .iter()
                .filter_map(|a| a.activations_to_decision)
                .map(|a| a as f64)
                .collect::<Vec<_>>(),
        ),
    );
    m.set(
        "algo.bits",
        mean(&outcomes.iter().map(|a| a.bits as f64).collect::<Vec<_>>()),
    );
    m.set(
        "algo.rounds",
        mean(&outcomes.iter().map(|a| a.rounds as f64).collect::<Vec<_>>()),
    );

    // Engine, protocol, schedule and trace-codec layers: the replays.
    let replays: Vec<&SessionTrace> = traced.iter().filter(|t| t.replayed).collect();
    let sum = |f: fn(&SessionTrace) -> u64| replays.iter().map(|t| f(t)).sum::<u64>() as f64;
    let steps = sum(|t| t.steps);
    let step_ns = sum(|t| t.step_ns);
    let schedule_ns = sum(|t| t.schedule_ns);
    let protocol_ns = sum(|t| t.protocol_ns) + sum(|t| t.preprocess_ns);
    let trace_ns = sum(|t| t.trace_ns);
    let n_replays = replays.len() as f64;
    m.set("robots.step_ns", ratio(step_ns, steps));
    let nested_reads_ns = sum(|t| t.nested_spans) * clock_ns;
    m.set(
        "robots.self_ns_per_step",
        ratio(
            step_ns - schedule_ns - protocol_ns - trace_ns - nested_reads_ns,
            steps,
        ),
    );
    m.set(
        "robots.build_us",
        ratio(sum(|t| t.build_ns), n_replays) / 1e3,
    );
    m.set(
        "core.protocol_ns_per_activation",
        ratio(sum(|t| t.protocol_ns), sum(|t| t.activations)),
    );
    m.set(
        "core.preprocess_us",
        ratio(sum(|t| t.preprocess_ns), n_replays) / 1e3,
    );
    m.set("scheduler.ns_per_step", ratio(schedule_ns, steps));
    m.set("trace_codec.ns_per_step", ratio(trace_ns, steps));
    m.set(
        "trace_codec.bytes_per_step",
        ratio(sum(|t| t.trace_len), steps),
    );
    let (radii_us, sec_us) = geometry_us(sessions);
    m.set("geometry.granular_radii_us", radii_us);
    m.set("geometry.sec_us", sec_us);

    let traced_ns = sum(|t| t.traced_ns);
    let segment_reads_ns = sum(|t| t.segments) * clock_ns;
    let unaccounted_share = ratio(
        (traced_ns - sum(|t| t.accounted_ns) - segment_reads_ns).abs(),
        traced_ns,
    );
    m.set("bench.unaccounted_share", unaccounted_share);
    m.set("bench.untraced_s", untraced_s);
    m.set("bench.traced_s", traced_s);
    m.set("bench.trace_overhead", ratio(traced_s, untraced_s));
    m.set("bench.replayed_sessions", n_replays);
    m.set(
        "bench.whole_timed_sessions",
        (traced.len() - replays.len()) as f64,
    );
    if step_ns < schedule_ns + protocol_ns + trace_ns {
        mismatches.push("nested layer time exceeds the instants' time".to_string());
    }
    LayerRun {
        sessions: sessions.len() as u64,
        mismatches,
        failed,
        errors,
        unaccounted_share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Workload;
    use stigmergy_fleet::BatchSpec;

    #[test]
    fn replays_reproduce_every_trace_hash() {
        for w in [Workload::Conformance, Workload::Swarm] {
            let spec = BatchSpec {
                budget_cap: Some(400),
                ..w.block_spec(vec![5])
            };
            let mut m = Metrics::default();
            let run = trace_batch(&spec.sessions(), 2, clock_read_ns(), &mut m);
            assert!(run.mismatches.is_empty(), "{:?}", run.mismatches);
            assert!(m.get("bench.replayed_sessions").unwrap() > 0.0);
            assert!(m.get("robots.step_ns").unwrap() > 0.0);
        }
    }

    #[test]
    fn clock_calibration_is_positive() {
        assert!(clock_read_ns() > 0.0);
    }
}
