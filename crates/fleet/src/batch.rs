//! Batch execution: a [`BatchSpec`] fans out into sessions, the pool runs
//! them on N workers, and each session comes back as a [`RunReport`].
//!
//! Determinism contract: a session is a pure function of its
//! [`SessionSpec`] — schedules and fault plans are built from Send-safe
//! specs *inside* the worker, every RNG is seeded from the spec, and the
//! pool returns reports in submission order — so `workers = 1` and
//! `workers = N` produce identical report vectors, byte-identical encoded
//! traces, and equal metrics snapshots. The conformance matrix from the
//! adversarial suite ships as [`BatchSpec::conformance_matrix`], with the
//! same cohorts, schedules, plans, and budgets as the hand-rolled loops
//! it replaces.

use crate::metrics::{FleetMetrics, MetricsSnapshot, SessionOutcome};
use crate::pool::{run_indexed_observed, CancelToken};
use crate::trace_codec::{fnv1a64, TraceEncoder};
use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::rc::Rc;
use std::time::Duration;
use std::time::Instant;
use stigmergy::ack::RetransmitPolicy;
use stigmergy::async2::{Async2, DriftPolicy};
use stigmergy::async_n::AsyncSwarm;
use stigmergy::backup::Wireless;
use stigmergy::paced::{Paced2, PacedConfig, PacedSwarm};
use stigmergy::session::{
    self, HardenedSession, Network, Pair, PairProtocol, SessionReport, SwarmProtocol,
};
use stigmergy::sync2::Sync2;
use stigmergy::sync_swarm::SyncSwarm;
use stigmergy::{CoreError, NamingScheme};
use stigmergy_algo::Status;
use stigmergy_geometry::{Point, Vec2};
use stigmergy_robots::engine::DEFAULT_COLLISION_EPS;
use stigmergy_robots::{Capabilities, Engine, ModelError, MovementProtocol};
use stigmergy_scheduler::rng::SplitMix64;
use stigmergy_scheduler::{
    AlgorithmSpec, CodingSpec, FaultPlan, FaultSpec, ScheduleSpec, WakeAllFirst,
};

/// Payload every batch session sends, unless overridden.
pub const DEFAULT_PAYLOAD: &[u8] = b"adv";

/// The protocol a session exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolKind {
    /// §3 two-robot synchronous chat.
    Sync2,
    /// §4 two-robot asynchronous chat.
    Async2,
    /// §3 swarm, identified robots (ById naming).
    SyncSwarmRouted,
    /// §3 swarm, anonymous with sense of direction (ByLex naming).
    SyncSwarmLex,
    /// §3 swarm, fully anonymous (BySec naming).
    SyncSwarmSec,
    /// §4 swarm, fully anonymous.
    AsyncSwarm,
    /// Hardened session: movement-first with retransmission and a
    /// CRC-protected wireless secondary. Runs its own internal
    /// synchronous network, so the session's `ScheduleSpec` is unused.
    Hardened,
}

/// The six paper protocols of the conformance matrix, in the order the
/// adversarial suite historically ran them.
pub const CONFORMANCE: [ProtocolKind; 6] = [
    ProtocolKind::Sync2,
    ProtocolKind::Async2,
    ProtocolKind::SyncSwarmRouted,
    ProtocolKind::SyncSwarmLex,
    ProtocolKind::SyncSwarmSec,
    ProtocolKind::AsyncSwarm,
];

impl ProtocolKind {
    /// A short name for reports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ProtocolKind::Sync2 => "sync2",
            ProtocolKind::Async2 => "async2",
            ProtocolKind::SyncSwarmRouted => "sync-swarm-routed",
            ProtocolKind::SyncSwarmLex => "sync-swarm-lex",
            ProtocolKind::SyncSwarmSec => "sync-swarm-sec",
            ProtocolKind::AsyncSwarm => "async-swarm",
            ProtocolKind::Hardened => "hardened",
        }
    }

    /// The default step budget, matching the adversarial suite's.
    #[must_use]
    pub fn default_budget(self) -> u64 {
        match self {
            ProtocolKind::Sync2
            | ProtocolKind::SyncSwarmRouted
            | ProtocolKind::SyncSwarmLex
            | ProtocolKind::SyncSwarmSec => 40_000,
            ProtocolKind::Async2 => 600_000,
            ProtocolKind::AsyncSwarm => 800_000,
            // Budget per retransmission attempt; the policy does backoff.
            ProtocolKind::Hardened => 4_000,
        }
    }

    /// The protocol's wire tag — one byte, stable across releases, used
    /// by the gateway's `BatchSpec` encoding.
    #[must_use]
    pub fn wire_code(self) -> u8 {
        match self {
            ProtocolKind::Sync2 => 0,
            ProtocolKind::Async2 => 1,
            ProtocolKind::SyncSwarmRouted => 2,
            ProtocolKind::SyncSwarmLex => 3,
            ProtocolKind::SyncSwarmSec => 4,
            ProtocolKind::AsyncSwarm => 5,
            ProtocolKind::Hardened => 6,
        }
    }

    /// Decodes a [`ProtocolKind::wire_code`] tag.
    #[must_use]
    pub fn from_wire_code(code: u8) -> Option<Self> {
        Some(match code {
            0 => ProtocolKind::Sync2,
            1 => ProtocolKind::Async2,
            2 => ProtocolKind::SyncSwarmRouted,
            3 => ProtocolKind::SyncSwarmLex,
            4 => ProtocolKind::SyncSwarmSec,
            5 => ProtocolKind::AsyncSwarm,
            6 => ProtocolKind::Hardened,
            _ => return None,
        })
    }

    /// The capabilities a swarm protocol assumes and the naming scheme
    /// its robots address each other by (the §4 swarm, and the algorithm
    /// transport riding it, are fully anonymous).
    fn naming(self) -> (Capabilities, NamingScheme) {
        match self {
            ProtocolKind::SyncSwarmRouted => (
                Capabilities::identified_with_direction(),
                NamingScheme::ById,
            ),
            ProtocolKind::SyncSwarmLex => (
                Capabilities::anonymous_with_direction(),
                NamingScheme::ByLex,
            ),
            _ => (Capabilities::anonymous(), NamingScheme::BySec),
        }
    }

    fn tag(self) -> u64 {
        match self {
            ProtocolKind::Sync2 => 0xFA01,
            ProtocolKind::Async2 => 0xFA02,
            ProtocolKind::SyncSwarmRouted => 0xB0_01,
            ProtocolKind::SyncSwarmLex => 0xB0_02,
            ProtocolKind::SyncSwarmSec => 0xB0_03,
            ProtocolKind::AsyncSwarm => 0xB0_04,
            ProtocolKind::Hardened => 0xB0_05,
        }
    }
}

/// The irregular ring the swarm sessions start from — same construction
/// as the integration-test helper, so fleet-driven conformance runs the
/// exact cohorts the hand-rolled loops did.
#[must_use]
pub fn ring(n: usize, radius: f64) -> Vec<Point> {
    (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
            let r = radius * (1.0 + 0.03 * (k as f64 + 1.0) / (n as f64));
            let dir = Vec2::from_bearing(theta);
            Point::new(r * dir.x, r * dir.y)
        })
        .collect()
}

fn pair_positions() -> Vec<Point> {
    vec![Point::new(0.0, 0.0), Point::new(14.0, 0.0)]
}

/// A whole sweep: the cross product of protocols × schedules × plans ×
/// seeds, plus the knobs shared by every session.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchSpec {
    /// Protocols to exercise.
    pub protocols: Vec<ProtocolKind>,
    /// Distributed algorithms to run over the async-swarm transport
    /// (each expands into its own sessions after the protocol block).
    pub algorithms: Vec<AlgorithmSpec>,
    /// Activation schedules (each wrapped in `WakeAllFirst`).
    pub schedules: Vec<ScheduleSpec>,
    /// Fault plans.
    pub plans: Vec<FaultSpec>,
    /// Per-session seeds: each seed derives the frame seed and the fault
    /// plan seed for its session.
    pub seeds: Vec<u64>,
    /// Swarm cohort size.
    pub cohort: usize,
    /// Payload to send.
    pub payload: Vec<u8>,
    /// The channel coding every synchronous session runs under.
    /// [`CodingSpec::Binary`] reproduces the historical one-bit-per-
    /// excursion protocols byte for byte; multi-level and FEC codings
    /// instantiate the paced protocols instead. Asynchronous protocols
    /// ignore this knob — their zone-entry decoding carries no magnitude.
    pub coding: CodingSpec,
    /// Optional ceiling on every session's step budget — determinism
    /// tests run the full matrix at a small cap so whole traces fit in
    /// memory.
    pub budget_cap: Option<u64>,
    /// Whether reports retain the full encoded trace (`RunReport::trace`)
    /// or only its hash.
    pub keep_traces: bool,
}

impl BatchSpec {
    /// The adversarial suite's conformance matrix over the given seeds:
    /// 6 protocols × 3 adversarial-but-legal schedules × 3 fault plans,
    /// with the historical cohort, payload, and budgets.
    #[must_use]
    pub fn conformance_matrix(seeds: Vec<u64>) -> Self {
        Self {
            protocols: CONFORMANCE.to_vec(),
            algorithms: Vec::new(),
            schedules: vec![
                // The message's receiver is the starved victim.
                ScheduleSpec::LaggingReceiver { max_gap: 8 },
                ScheduleSpec::Bursty {
                    seed: 0x0AD5_CEDD,
                    burst_len: 3,
                    lull_len: 5,
                },
                ScheduleSpec::WorstCaseFair { max_gap: 6 },
            ],
            plans: vec![
                FaultSpec::NonRigid {
                    delta: 0.35,
                    prob: 0.5,
                },
                FaultSpec::Dropout { prob: 0.1 },
                // Robot 1 crash-stops mid-run: the receiver in a pair, an
                // essential bystander in a swarm, so senders stall.
                FaultSpec::Crash {
                    robot: 1,
                    time: 35,
                    delta: 0.5,
                    prob: 0.25,
                },
            ],
            seeds,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            // The paced multi-symbol channel with FEC: the synchronous
            // protocols survive the adversarial schedules and fault plans
            // the binary channel loses every cell of (the delivered-rate
            // ratchet in CI pins the gain).
            coding: CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
            budget_cap: None,
            keep_traces: false,
        }
    }

    /// The algorithm conformance matrix over the given seeds: the three
    /// distributed algorithms × a fair schedule with and without the
    /// crash-filtering wrapper × a benign-ish and a crash-stop fault
    /// plan. Every cell must terminate with consistent decisions among
    /// the non-crashed robots.
    #[must_use]
    pub fn algorithm_matrix(seeds: Vec<u64>) -> Self {
        Self {
            protocols: Vec::new(),
            algorithms: vec![
                AlgorithmSpec::Flood { initiator: 0 },
                AlgorithmSpec::Election,
                AlgorithmSpec::Agreement { inputs: 0b101 },
            ],
            schedules: vec![
                ScheduleSpec::WorstCaseFair { max_gap: 6 },
                ScheduleSpec::CrashFiltered {
                    inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 6 }),
                },
            ],
            plans: vec![
                FaultSpec::NonRigid {
                    delta: 0.35,
                    prob: 0.5,
                },
                // Robot 1 crash-stops before any frame can complete
                // (the shortest algorithm frame is 32 bits > 35
                // instants), so every algorithm must decide among the
                // survivors.
                FaultSpec::Crash {
                    robot: 1,
                    time: 35,
                    delta: 0.5,
                    prob: 0.25,
                },
            ],
            seeds,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            // Algorithms ride the asynchronous transport, which has no
            // magnitude channel; binary keeps their traces pinned.
            coding: CodingSpec::Binary,
            budget_cap: None,
            keep_traces: false,
        }
    }

    /// Expands the cross product into individual session specs, in the
    /// canonical order: protocol-major (then schedule, plan, seed),
    /// followed by the algorithm block in the same inner order.
    #[must_use]
    pub fn sessions(&self) -> Vec<SessionSpec> {
        let mut out = Vec::with_capacity(
            (self.protocols.len() + self.algorithms.len())
                * self.schedules.len()
                * self.plans.len()
                * self.seeds.len(),
        );
        let mut push_block = |protocol: ProtocolKind, algorithm: Option<AlgorithmSpec>| {
            for schedule in &self.schedules {
                for plan in &self.plans {
                    for &seed in &self.seeds {
                        out.push(SessionSpec {
                            protocol,
                            algorithm,
                            schedule: schedule.clone(),
                            plan: plan.clone(),
                            seed,
                            cohort: self.cohort,
                            payload: self.payload.clone(),
                            coding: if algorithm.is_some() {
                                CodingSpec::Binary
                            } else {
                                self.coding
                            },
                            budget_cap: self.budget_cap,
                            keep_trace: self.keep_traces,
                        });
                    }
                }
            }
        };
        for &protocol in &self.protocols {
            push_block(protocol, None);
        }
        for &algorithm in &self.algorithms {
            // Algorithms ride the §4 anonymous swarm transport.
            push_block(ProtocolKind::AsyncSwarm, Some(algorithm));
        }
        out
    }
}

/// Everything one session needs — plain data, `Send`, built inside the
/// worker that runs it.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionSpec {
    /// The protocol under test.
    pub protocol: ProtocolKind,
    /// The distributed algorithm to run over it, if any. Set only with
    /// [`ProtocolKind::AsyncSwarm`]: fleet runs algorithm sessions over
    /// the §4 anonymous swarm.
    pub algorithm: Option<AlgorithmSpec>,
    /// The activation schedule (wrapped in `WakeAllFirst` at build time).
    pub schedule: ScheduleSpec,
    /// The fault plan.
    pub plan: FaultSpec,
    /// The session seed; frame and plan seeds derive from it.
    pub seed: u64,
    /// Swarm cohort size (pairs ignore this).
    pub cohort: usize,
    /// Payload to send.
    pub payload: Vec<u8>,
    /// The channel coding (synchronous protocols only — see
    /// [`BatchSpec::coding`]).
    pub coding: CodingSpec,
    /// Optional budget ceiling.
    pub budget_cap: Option<u64>,
    /// Whether to retain the encoded trace in the report.
    pub keep_trace: bool,
}

impl SessionSpec {
    /// Frame-generation seed: the protocol's historical base perturbed by
    /// the session seed (seed 0 reproduces the adversarial suite's fixed
    /// frames exactly). Algorithm sessions fold in a per-algorithm tag so
    /// the three algorithms never share frames.
    #[must_use]
    pub fn frame_seed(&self) -> u64 {
        let tag = match self.algorithm {
            Some(AlgorithmSpec::Flood { .. }) => 0xA1_60_01,
            Some(AlgorithmSpec::Election) => 0xA1_60_02,
            Some(AlgorithmSpec::Agreement { .. }) => 0xA1_60_03,
            None => self.protocol.tag(),
        };
        if self.seed == 0 {
            tag
        } else {
            SplitMix64::new(tag ^ self.seed).next_u64()
        }
    }

    /// Fault-plan seed, mirroring the adversarial suite's `seed ^ 0x5EED`
    /// derivation from the frame seed.
    #[must_use]
    pub fn plan_seed(&self) -> u64 {
        match self.protocol {
            // The pair runners historically used fixed plan seeds.
            ProtocolKind::Sync2 => 0xA1 ^ self.seed,
            ProtocolKind::Async2 => 0xA2 ^ self.seed,
            _ => self.frame_seed() ^ 0x5EED,
        }
    }

    /// The effective step budget: the protocol default, capped for crash
    /// plans (which can only time out, so a full budget is waste) and by
    /// the spec's explicit ceiling. Algorithm sessions get per-algorithm
    /// budgets instead and are exempt from the crash cap — crash-stop is
    /// exactly the regime they must *terminate* under, not time out.
    #[must_use]
    pub fn budget(&self) -> u64 {
        let mut budget = match self.algorithm {
            Some(AlgorithmSpec::Flood { .. }) => 600_000,
            Some(AlgorithmSpec::Election) => 900_000,
            Some(AlgorithmSpec::Agreement { .. }) => 1_200_000,
            None => {
                let mut budget = self.protocol.default_budget();
                if self.plan.crashes() {
                    budget = budget.min(20_000);
                }
                budget
            }
        };
        if let Some(cap) = self.budget_cap {
            budget = budget.min(cap);
        }
        budget
    }
}

/// What came back from one session.
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Protocol name.
    pub protocol: &'static str,
    /// Algorithm name, for algorithm sessions.
    pub algorithm: Option<&'static str>,
    /// Schedule name.
    pub schedule: &'static str,
    /// Fault plan name.
    pub plan: &'static str,
    /// The session seed.
    pub seed: u64,
    /// Whether the payload arrived within budget.
    pub delivered: bool,
    /// Instants executed (including the preprocessing instant).
    pub steps: u64,
    /// Instants from queueing to delivery, when delivered.
    pub steps_to_delivery: Option<u64>,
    /// Total robot activations.
    pub activations: u64,
    /// Activations that moved a robot.
    pub moves: u64,
    /// Faults injected.
    pub faults: u64,
    /// Retransmissions issued (hardened sessions; 0 elsewhere).
    pub retransmissions: u64,
    /// Inbox entries that did not match the sent payload (must be 0:
    /// detect-or-reject end to end).
    pub corrupt: u64,
    /// Payload bits delivered end to end (0 when undelivered, and for
    /// algorithm sessions, whose traffic `algo.bits` counts).
    pub delivered_bits: u64,
    /// FEC symbol corrections (paced protocols; hardened secondary).
    pub fec_corrected: u64,
    /// FEC blocks rejected as beyond the correction radius.
    pub fec_rejected: u64,
    /// Smallest pairwise distance over the recorded trace.
    pub min_distance: f64,
    /// Encoded trace length in bytes.
    pub trace_len: usize,
    /// FNV-1a 64 of the encoded trace.
    pub trace_hash: u64,
    /// The encoded trace itself, when `keep_trace` was set.
    pub trace: Option<Vec<u8>>,
    /// Algorithm counters, for algorithm sessions.
    pub algo: Option<AlgoOutcome>,
    /// A model violation (collision, degenerate naming), if the session
    /// died. Invariant sessions must report `None`.
    pub error: Option<String>,
}

/// What a distributed-algorithm session measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlgoOutcome {
    /// Protocol rounds executed (1 for flood and election; the highest
    /// FloodSet round any live robot reached for agreement).
    pub rounds: u64,
    /// Channel cost of every frame enqueued, in bits: 16 header bits
    /// plus 8 per payload byte (`bits(L) = 16 + 8L`).
    pub bits: u64,
    /// Engine activations consumed when the last live robot reached a
    /// terminal status, if the run terminated in budget.
    pub activations_to_decision: Option<u64>,
    /// The common decision value, when every live robot decided (flood:
    /// the initiator's coverage count; election: the winning signature;
    /// agreement: the agreed bit).
    pub decision: Option<u64>,
    /// Whether the algorithm *rejected* the configuration (e.g. a
    /// symmetric election) — terminal, but not a decision.
    pub rejected: bool,
}

impl RunReport {
    /// The report of a session whose worker closure panicked: zero work
    /// counters, no trace, and the panic message preserved as the
    /// session's `error`. Panic containment is per session — one
    /// poisoned spec fails its own `RunReport` while the rest of the
    /// batch (and the pool) carries on — and stays deterministic: the
    /// same spec panics with the same message at every worker count.
    #[must_use]
    pub fn poisoned(spec: &SessionSpec, message: &str) -> Self {
        Self {
            protocol: spec.protocol.name(),
            algorithm: spec.algorithm.map(|a| a.name()),
            schedule: spec.schedule.name(),
            plan: spec.plan.name(),
            seed: spec.seed,
            delivered: false,
            steps: 0,
            steps_to_delivery: None,
            activations: 0,
            moves: 0,
            faults: 0,
            retransmissions: 0,
            corrupt: 0,
            delivered_bits: 0,
            fec_corrected: 0,
            fec_rejected: 0,
            min_distance: f64::INFINITY,
            trace_len: 0,
            trace_hash: fnv1a64(&[]),
            trace: None,
            algo: None,
            error: Some(format!("session panicked: {message}")),
        }
    }

    fn outcome(&self) -> SessionOutcome {
        SessionOutcome {
            delivered: self.delivered,
            steps_to_delivery: self.steps_to_delivery.unwrap_or(0),
            steps: self.steps,
            activations: self.activations,
            faults: self.faults,
            retransmissions: self.retransmissions,
            corrupt: self.corrupt,
            delivered_bits: self.delivered_bits,
            fec_corrected: self.fec_corrected,
            fec_rejected: self.fec_rejected,
            algo_rounds: self.algo.map_or(0, |a| a.rounds),
            algo_bits: self.algo.map_or(0, |a| a.bits),
            algo_decided: self
                .algo
                .is_some_and(|a| a.activations_to_decision.is_some()),
            activations_to_decision: self
                .algo
                .and_then(|a| a.activations_to_decision)
                .unwrap_or(0),
        }
    }
}

/// A finished batch: per-session reports (in spec order), merged metrics,
/// and wall-clock accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchReport {
    /// One report per session, in [`BatchSpec::sessions`] order.
    pub runs: Vec<RunReport>,
    /// Metrics aggregated across all sessions.
    pub metrics: MetricsSnapshot,
    /// Worker threads used.
    pub workers: usize,
    /// Wall-clock time for the whole batch.
    pub wall: Duration,
}

impl BatchReport {
    /// Reports for one protocol.
    pub fn for_protocol<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a RunReport> {
        self.runs.iter().filter(move |r| r.protocol == name)
    }
}

/// Runs every session of `spec` on `workers` threads.
///
/// # Panics
///
/// Panics if `workers == 0`, or if a worker thread panics.
#[must_use]
pub fn run_batch(spec: &BatchSpec, workers: usize) -> BatchReport {
    run_batch_with(spec, workers, |_| {}, &CancelToken::new())
        .expect("un-cancelled batch runs to completion")
}

/// Where a batch stands, as reported to a progress observer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Sessions finished so far.
    pub completed: usize,
    /// Sessions in the batch.
    pub total: usize,
}

/// A batch stopped by its [`CancelToken`] before every session ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchInterrupted {
    /// Sessions that finished before cancellation took effect.
    pub completed: usize,
    /// Sessions the spec expanded to.
    pub total: usize,
}

impl std::fmt::Display for BatchInterrupted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "batch cancelled after {} of {} sessions",
            self.completed, self.total
        )
    }
}

impl std::error::Error for BatchInterrupted {}

/// [`run_batch`] with streaming progress and cooperative cancellation —
/// the entry point the gateway serves jobs through.
///
/// `on_progress` fires on the calling thread after every finished
/// session, with `completed` strictly increasing; an un-cancelled batch
/// fires it exactly `spec.sessions().len()` times. Cancellation is
/// checked between sessions only, so every session that *did* run is the
/// same pure function of its spec as under [`run_batch`] — a job that
/// completes despite a late cancel request is byte-identical to one that
/// was never cancelled.
///
/// # Errors
///
/// Returns [`BatchInterrupted`] when `cancel` stopped any session from
/// running.
///
/// # Panics
///
/// Panics if `workers == 0`, or if a worker thread panics.
pub fn run_batch_with<F>(
    spec: &BatchSpec,
    workers: usize,
    mut on_progress: F,
    cancel: &CancelToken,
) -> Result<BatchReport, BatchInterrupted>
where
    F: FnMut(Progress),
{
    #[allow(clippy::disallowed_methods)]
    // stiglint: allow(determinism) -- feeds only the `wall` duration of BatchReport, never traces, fingerprints, or metrics
    let start = Instant::now();
    let metrics = FleetMetrics::new();
    let sessions = spec.sessions();
    let runs = run_indexed_observed(
        sessions,
        workers,
        |session| {
            let report = run_session_contained(session);
            metrics.record_session(&report.outcome());
            report
        },
        |completed, total| on_progress(Progress { completed, total }),
        cancel,
    )
    .map_err(|i| BatchInterrupted {
        completed: i.completed,
        total: i.total,
    })?;
    Ok(BatchReport {
        runs,
        metrics: metrics.snapshot(),
        workers,
        wall: start.elapsed(),
    })
}

/// [`run_session`] with panic containment: a panic anywhere inside the
/// session (a degenerate spec tripping a constructor `expect`, an engine
/// invariant assertion) is caught and converted into
/// [`RunReport::poisoned`] instead of unwinding through the worker pool.
/// One poisoned chunk fails its own report; the batch completes.
#[must_use]
pub fn run_session_contained(spec: &SessionSpec) -> RunReport {
    catch_unwind(AssertUnwindSafe(|| run_session(spec)))
        .unwrap_or_else(|payload| RunReport::poisoned(spec, &panic_message(payload.as_ref())))
}

/// Renders a panic payload as text. `panic!`/`assert!`/`expect` payloads
/// are `&str` or `String`; both forms are deterministic for a given
/// spec, which keeps poisoned reports byte-identical across worker
/// counts.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs one session to completion. Pure: same spec, same report (modulo
/// nothing — even the trace bytes are pinned by the spec).
#[must_use]
pub fn run_session(spec: &SessionSpec) -> RunReport {
    if let Some(algorithm) = spec.algorithm {
        return run_algo_session(spec, algorithm);
    }
    let paced = paced_config(spec.coding);
    match (spec.protocol, paced) {
        (ProtocolKind::Sync2, Some(cfg)) => run_pair(spec, move || Paced2::new(cfg)),
        (ProtocolKind::Sync2, None) => run_pair(spec, Sync2::new),
        (ProtocolKind::Async2, _) => run_pair(spec, || Async2::new(DriftPolicy::Diverge)),
        (ProtocolKind::SyncSwarmRouted, Some(cfg)) => {
            run_swarm(spec, move || PacedSwarm::routed(cfg))
        }
        (ProtocolKind::SyncSwarmRouted, None) => run_swarm(spec, SyncSwarm::routed),
        (ProtocolKind::SyncSwarmLex, Some(cfg)) => {
            run_swarm(spec, move || PacedSwarm::anonymous_with_direction(cfg))
        }
        (ProtocolKind::SyncSwarmLex, None) => run_swarm(spec, SyncSwarm::anonymous_with_direction),
        (ProtocolKind::SyncSwarmSec, Some(cfg)) => {
            run_swarm(spec, move || PacedSwarm::anonymous(cfg))
        }
        (ProtocolKind::SyncSwarmSec, None) => run_swarm(spec, SyncSwarm::anonymous),
        (ProtocolKind::AsyncSwarm, _) => run_swarm(spec, AsyncSwarm::anonymous),
        (ProtocolKind::Hardened, _) => run_hardened(spec),
    }
}

/// Translates a [`CodingSpec`] into the paced channel's config — `None`
/// for binary, which keeps the historical protocols (and their traces)
/// untouched.
///
/// # Panics
///
/// Panics on an invalid spec (non-power-of-two levels, zero dwell);
/// `run_session_contained` turns that into a poisoned report.
fn paced_config(coding: CodingSpec) -> Option<PacedConfig> {
    let (levels, dwell, fec) = match coding {
        CodingSpec::Binary => return None,
        CodingSpec::MultiLevel { levels, dwell } => (levels, dwell, false),
        CodingSpec::Fec { levels, dwell } => (levels, dwell, true),
    };
    Some(
        PacedConfig::new(usize::from(levels), u32::from(dwell), fec)
            .expect("coding spec with valid levels and dwell"),
    )
}

/// Builds a session's engine from its spec: `make()` per robot, the
/// spec's schedule (crash-aware wrappers armed with `plan`) behind
/// `WakeAllFirst`, and the spec's frame seed. The engine records no step
/// history — [`stream_trace`] encodes the trace as it happens.
fn session_engine<P: MovementProtocol>(
    spec: &SessionSpec,
    positions: Vec<Point>,
    make: impl Fn() -> P,
    caps: Capabilities,
    plan: &FaultPlan,
) -> Result<Engine<P>, ModelError> {
    let n = positions.len();
    Engine::builder()
        .positions(positions)
        .protocols((0..n).map(|_| make()))
        .capabilities(caps)
        .schedule(WakeAllFirst::new(spec.schedule.build_faulted(n, plan)))
        .frame_seed(spec.frame_seed())
        .record_trace(false)
        .build()
}

/// Attaches a [`TraceEncoder`] as `engine`'s trace observer: the canonical
/// trace bytes are produced incrementally, bit-identical to encoding a
/// fully recorded trace (the golden-trace suite pins this).
fn stream_trace<P: MovementProtocol>(engine: &mut Engine<P>) -> Rc<RefCell<TraceEncoder>> {
    let encoder = Rc::new(RefCell::new(TraceEncoder::new(engine.positions())));
    let sink = Rc::clone(&encoder);
    engine.observe_trace(move |ev| sink.borrow_mut().record_event(&ev));
    encoder
}

/// Builds a [`RunReport`] from a finished session's [`SessionReport`],
/// its streamed trace, and how it ended: `steps_to_delivery` is `Some`
/// exactly when the session delivered. A collision-margin breach the
/// engine did not already report becomes the session's error.
fn run_report(
    spec: &SessionSpec,
    report: SessionReport,
    steps_to_delivery: Option<u64>,
    mut error: Option<String>,
    encoder: &RefCell<TraceEncoder>,
) -> RunReport {
    let encoder = encoder.borrow();
    let delivered = steps_to_delivery.is_some();
    if error.is_none() && report.min_distance < DEFAULT_COLLISION_EPS {
        error = Some(format!(
            "collision invariant violated: min distance {}",
            report.min_distance
        ));
    }
    RunReport {
        protocol: spec.protocol.name(),
        algorithm: spec.algorithm.map(|a| a.name()),
        schedule: spec.schedule.name(),
        plan: spec.plan.name(),
        seed: spec.seed,
        delivered,
        steps: report.steps,
        steps_to_delivery,
        activations: report.activations,
        moves: report.moves,
        faults: report.faults_injected,
        retransmissions: report.retransmissions,
        corrupt: report.corrupt,
        delivered_bits: delivered_payload_bits(spec, delivered),
        fec_corrected: report.fec_corrected,
        fec_rejected: report.fec_rejected,
        min_distance: report.min_distance,
        trace_len: encoder.encoded_len(),
        trace_hash: encoder.fingerprint(),
        trace: spec.keep_trace.then(|| encoder.to_bytes()),
        algo: None,
        error,
    }
}

/// Splits a session's result into `(steps_to_delivery, error)`: running
/// out of budget is an undelivered session, not an error.
fn ended(outcome: Result<u64, CoreError>) -> (Option<u64>, Option<String>) {
    match outcome {
        Ok(steps) => (Some(steps), None),
        Err(CoreError::Timeout { .. }) => (None, None),
        Err(e) => (None, Some(error_text(e))),
    }
}

/// A session error as reports print it; model violations read as the
/// engine states them.
fn error_text(e: CoreError) -> String {
    match e {
        CoreError::Model(e) => e.to_string(),
        e => e.to_string(),
    }
}

/// The payload bits a delivered session moved end to end. Algorithm
/// sessions report 0 here — their traffic is metered in `algo.bits`.
fn delivered_payload_bits(spec: &SessionSpec, delivered: bool) -> u64 {
    if delivered && spec.algorithm.is_none() {
        8 * spec.payload.len() as u64
    } else {
        0
    }
}

/// A two-robot session, shaped like the adversarial suite: one benign
/// preprocessing instant, arm the fault plan, queue the message, run to
/// delivery or budget exhaustion.
fn run_pair<P: PairProtocol + 'static>(spec: &SessionSpec, make: impl Fn() -> P) -> RunReport {
    let plan = spec.plan.plan(spec.plan_seed());
    let engine = session_engine(
        spec,
        pair_positions(),
        make,
        Capabilities::anonymous(),
        &plan,
    )
    .expect("pair configuration is always valid");
    let mut pair = Pair::from_engine(engine);
    let encoder = stream_trace(pair.engine_mut());
    let outcome = pair.run(1).and_then(|()| {
        pair.engine_mut().set_fault_plan(plan);
        pair.send(0, &spec.payload)?;
        pair.run_until_delivered(spec.budget())
    });
    let (steps, error) = ended(outcome);
    run_report(spec, pair.report(), steps, error, &encoder)
}

/// A swarm session on the irregular ring: the same shape as
/// [`run_pair`], with robot 0 messaging robot `n − 1`.
fn run_swarm<P: SwarmProtocol + 'static>(spec: &SessionSpec, make: impl Fn() -> P) -> RunReport {
    let receiver = spec.cohort - 1;
    let plan = spec.plan.plan(spec.plan_seed());
    let (caps, scheme) = spec.protocol.naming();
    let engine = session_engine(spec, ring(spec.cohort, 18.0), make, caps, &plan)
        .expect("ring configuration is always valid");
    let mut net = Network::from_engine(engine, scheme);
    let encoder = stream_trace(net.engine_mut());
    let outcome = net.run(1).and_then(|()| {
        net.engine_mut().set_fault_plan(plan);
        net.send(0, receiver, &spec.payload)
            .expect("receiver must be nameable");
        net.run_until_delivered(spec.budget())
    });
    let (steps, error) = ended(outcome);
    run_report(spec, net.report(), steps, error, &encoder)
}

/// A hardened session on the irregular ring: movement first, with
/// retransmission and the wireless secondary behind it.
fn run_hardened(spec: &SessionSpec) -> RunReport {
    let policy = RetransmitPolicy::new(3, spec.budget().max(1), 2);
    let mut session = HardenedSession::with_faults(
        ring(spec.cohort, 18.0),
        spec.frame_seed(),
        policy,
        Wireless::reliable(spec.frame_seed()),
        spec.plan.plan(spec.plan_seed()),
    )
    .expect("ring configuration is always valid");
    let encoder = stream_trace(session.network_mut().engine_mut());
    let outcome = session
        .send(0, spec.cohort - 1, &spec.payload)
        .map(|_| session.stats().movement_steps);
    let (steps, error) = ended(outcome);
    run_report(spec, session.report(), steps, error, &encoder)
}

/// Runs one distributed-algorithm session over the async-swarm movement
/// channel.
///
/// Fleet builds the engine, runs the benign preprocessing instant, arms
/// the fault plan, builds each robot's stack with
/// [`Network::algorithm_stacks`], and hands the stacks to
/// [`Network::run_stacks`] — the driver `DESIGN.md` §13 specifies, whose
/// failure detector reads the armed plan's crash-stops. It then extracts
/// the session decision.
fn run_algo_session(spec: &SessionSpec, algorithm: AlgorithmSpec) -> RunReport {
    let n = spec.cohort;
    assert!(
        (2..=64).contains(&n),
        "algorithm sessions need a cohort in 2..=64, got {n}"
    );
    if let AlgorithmSpec::Flood { initiator } = algorithm {
        assert!(
            initiator < n,
            "flood initiator {initiator} outside cohort {n}"
        );
    }
    let plan = spec.plan.plan(spec.plan_seed());
    let (caps, scheme) = spec.protocol.naming();
    let engine = session_engine(spec, ring(n, 18.0), AsyncSwarm::anonymous, caps, &plan)
        .expect("ring configuration is always valid");
    let mut net = Network::from_engine(engine, scheme);
    let encoder = stream_trace(net.engine_mut());
    let mut algo = AlgoOutcome {
        rounds: 0,
        bits: 0,
        activations_to_decision: None,
        decision: None,
        rejected: false,
    };
    let mut corrupt = 0;
    let (steps, error) =
        match drive_algorithm(spec, algorithm, plan, &mut net, &mut algo, &mut corrupt) {
            Ok(steps) => (steps, None),
            Err(e) => (None, Some(e)),
        };
    // Frames that failed demux count as corrupt (a garbled frame cannot
    // carry a registered protocol id).
    let report = SessionReport {
        corrupt,
        ..net.report()
    };
    let mut report = run_report(spec, report, steps, error, &encoder);
    report.algo = Some(algo);
    report
}

/// [`run_algo_session`]'s run proper. Returns the instants to a
/// consistent decision, `None` when the budget ran out or the run ended
/// without one, or the error that killed the session.
fn drive_algorithm(
    spec: &SessionSpec,
    algorithm: AlgorithmSpec,
    plan: FaultPlan,
    net: &mut Network<AsyncSwarm>,
    algo: &mut AlgoOutcome,
    corrupt: &mut u64,
) -> Result<Option<u64>, String> {
    let n = spec.cohort;
    // One benign preprocessing instant (geometries build), then arm the
    // fault plan — the same shape as every other session.
    net.run(1).map_err(error_text)?;
    net.engine_mut().set_fault_plan(plan);
    if let Some(i) = (0..n).find(|&i| net.engine().protocol(i).geometry().is_none()) {
        return Err(format!("robot {i}: degenerate configuration, no geometry"));
    }
    let mut stacks = net
        .algorithm_stacks(algorithm, &spec.payload)
        .map_err(error_text)?;
    let run = net.run_stacks(&mut stacks, spec.budget());
    algo.bits = run.bits;
    algo.activations_to_decision = run.activations_to_decision;
    *corrupt = run.unroutable;
    let Some(taken) = run.terminal_after.map_err(error_text)? else {
        return Ok(None); // timed out: counters stand, no decision
    };

    // Decision extraction.
    let proto_id = session::algorithm_protocol_id(algorithm);
    let mut statuses = Vec::with_capacity(n);
    for (stack, _) in stacks.iter().zip(&run.live).filter(|(_, &live)| live) {
        algo.rounds = algo.rounds.max(stack.rounds_of(proto_id).unwrap_or(1));
        statuses.push(stack.status_of(proto_id).expect("session registered"));
    }
    algo.rejected = statuses.iter().any(|s| matches!(s, Status::Rejected(_)));
    match algorithm {
        AlgorithmSpec::Flood { initiator } => {
            // The initiator's coverage count is the session decision
            // (followers decide 1). A crashed initiator leaves the
            // followers rejecting: terminal, but no decision.
            if run.live[initiator] {
                algo.decision = stacks[initiator]
                    .status_of(proto_id)
                    .and_then(|s| s.decision());
            }
        }
        AlgorithmSpec::Election | AlgorithmSpec::Agreement { .. } => {
            // Every live robot must land on the same terminal status —
            // the agreement property itself for FloodSet, and the
            // common-knowledge property for election (identical
            // electorates see the same unique-or-tied minimum).
            let first = statuses.first().copied();
            if statuses.iter().any(|s| Some(*s) != first) {
                return Err(format!(
                    "split decision: live robots disagree ({statuses:?})"
                ));
            }
            algo.decision = first.and_then(|s| s.decision());
        }
    }
    // "Delivered" for an algorithm session = terminated with a consistent
    // decision (a rejection terminates but delivers no decision,
    // mirroring undelivered payloads).
    Ok(algo.decision.is_some().then_some(taken))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> BatchSpec {
        BatchSpec {
            budget_cap: Some(1_500),
            keep_traces: true,
            ..BatchSpec::conformance_matrix(vec![0, 1])
        }
    }

    #[test]
    fn sessions_expand_the_full_cross_product() {
        let spec = tiny_spec();
        let sessions = spec.sessions();
        assert_eq!(sessions.len(), 6 * 3 * 3 * 2);
        // Protocol-major order: first block is all sync2.
        assert!(sessions[..18]
            .iter()
            .all(|s| s.protocol == ProtocolKind::Sync2));
        assert_eq!(sessions[0].seed, 0);
        assert_eq!(sessions[1].seed, 1);
    }

    #[test]
    fn seed_zero_reproduces_historical_frame_seeds() {
        let spec = SessionSpec {
            protocol: ProtocolKind::Sync2,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous,
            plan: FaultSpec::Benign,
            seed: 0,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        assert_eq!(spec.frame_seed(), 0xFA01);
        assert_eq!(spec.plan_seed(), 0xA1);
    }

    #[test]
    fn crash_plans_get_capped_budgets() {
        let mut spec = tiny_spec().sessions().pop().unwrap();
        spec.protocol = ProtocolKind::AsyncSwarm;
        spec.budget_cap = None;
        spec.plan = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        assert_eq!(spec.budget(), 20_000);
        spec.plan = FaultSpec::Benign;
        assert_eq!(spec.budget(), 800_000);
        spec.budget_cap = Some(100);
        assert_eq!(spec.budget(), 100);
    }

    #[test]
    fn single_session_is_reproducible() {
        let spec = SessionSpec {
            protocol: ProtocolKind::SyncSwarmLex,
            algorithm: None,
            schedule: ScheduleSpec::Bursty {
                seed: 0x0AD5_CEDD,
                burst_len: 3,
                lull_len: 5,
            },
            plan: FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
            seed: 7,
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: Some(2_000),
            keep_trace: true,
            coding: CodingSpec::Binary,
        };
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a, b);
        assert!(a.trace.is_some());
        assert!(a.error.is_none());
        assert!(a.faults > 0, "non-rigid plan at p=0.5 must fire");
    }

    #[test]
    fn batch_report_aggregates_all_sessions() {
        let spec = BatchSpec {
            protocols: vec![ProtocolKind::Sync2, ProtocolKind::SyncSwarmLex],
            algorithms: vec![],
            schedules: vec![ScheduleSpec::WorstCaseFair { max_gap: 6 }],
            plans: vec![FaultSpec::Benign],
            seeds: vec![0, 1, 2],
            cohort: 3,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: Some(3_000),
            keep_traces: false,
            coding: CodingSpec::Binary,
        };
        let report = run_batch(&spec, 2);
        assert_eq!(report.runs.len(), 6);
        assert_eq!(report.metrics.sessions, 6);
        assert_eq!(report.workers, 2);
        assert_eq!(
            report.metrics.steps,
            report.runs.iter().map(|r| r.steps).sum::<u64>()
        );
        assert_eq!(report.for_protocol("sync2").count(), 3);
        assert!(report.runs.iter().all(|r| r.error.is_none()));
        assert!(report.runs.iter().all(|r| r.trace.is_none()));
        assert!(report.runs.iter().all(|r| r.trace_len > 0));
    }

    #[test]
    fn observed_batch_equals_plain_batch_and_streams_progress() {
        let spec = BatchSpec {
            budget_cap: Some(500),
            ..BatchSpec::conformance_matrix(vec![0])
        };
        let plain = run_batch(&spec, 2);
        let mut progress = Vec::new();
        let observed = run_batch_with(&spec, 2, |p| progress.push(p), &CancelToken::new()).unwrap();
        assert_eq!(plain.runs, observed.runs);
        assert_eq!(plain.metrics, observed.metrics);
        let total = spec.sessions().len();
        assert_eq!(progress.len(), total, "one event per session");
        assert_eq!(
            progress.last(),
            Some(&Progress {
                completed: total,
                total
            })
        );
        assert!(progress.windows(2).all(|w| w[0].completed < w[1].completed));
    }

    #[test]
    fn cancelled_batch_reports_interruption() {
        let spec = BatchSpec {
            budget_cap: Some(500),
            ..BatchSpec::conformance_matrix(vec![0])
        };
        let token = CancelToken::new();
        token.cancel();
        let err = run_batch_with(&spec, 2, |_| {}, &token).expect_err("pre-cancelled");
        assert_eq!(err.completed, 0);
        assert_eq!(err.total, spec.sessions().len());
        assert!(err.to_string().contains("cancelled after 0 of"));
    }

    #[test]
    fn wire_codes_round_trip_and_cover_every_protocol() {
        let mut all = CONFORMANCE.to_vec();
        all.push(ProtocolKind::Hardened);
        for kind in all {
            assert_eq!(ProtocolKind::from_wire_code(kind.wire_code()), Some(kind));
        }
        assert_eq!(ProtocolKind::from_wire_code(7), None);
    }

    #[test]
    fn poisoned_session_is_contained_and_deterministic() {
        // cohort = 0 trips a constructor invariant inside run_session
        // (empty ring) in every build profile; the containment wrapper
        // must turn the panic into a failed report, not an unwind.
        let spec = SessionSpec {
            protocol: ProtocolKind::SyncSwarmSec,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous,
            plan: FaultSpec::Benign,
            seed: 0,
            cohort: 0,
            payload: DEFAULT_PAYLOAD.to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        let report = run_session_contained(&spec);
        let error = report.error.as_deref().expect("poisoned report errors");
        assert!(error.starts_with("session panicked:"), "{error}");
        assert!(!report.delivered);
        assert_eq!(report.steps, 0);
        assert_eq!(report.trace_len, 0);
        assert_eq!(
            run_session_contained(&spec),
            report,
            "poisoned reports replay byte-identically"
        );
    }

    #[test]
    fn panic_messages_render_str_string_and_other() {
        let a: Box<dyn std::any::Any + Send> = Box::new("boom");
        let b: Box<dyn std::any::Any + Send> = Box::new(String::from("owned boom"));
        let c: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(a.as_ref()), "boom");
        assert_eq!(panic_message(b.as_ref()), "owned boom");
        assert_eq!(panic_message(c.as_ref()), "non-string panic payload");
    }

    #[test]
    fn hardened_sessions_deliver_and_count_retransmissions() {
        let spec = SessionSpec {
            protocol: ProtocolKind::Hardened,
            algorithm: None,
            schedule: ScheduleSpec::Synchronous, // unused by hardened
            plan: FaultSpec::Benign,
            seed: 3,
            cohort: 3,
            payload: b"hardened".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        };
        let report = run_session(&spec);
        assert!(report.delivered);
        assert!(report.error.is_none());
        assert_eq!(report.corrupt, 0);
        assert_eq!(run_session(&spec), report, "hardened runs replay too");
    }

    fn paced_spec(coding: CodingSpec) -> SessionSpec {
        SessionSpec {
            protocol: ProtocolKind::Sync2,
            algorithm: None,
            schedule: ScheduleSpec::LaggingReceiver { max_gap: 8 },
            plan: FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
            seed: 0,
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding,
        }
    }

    #[test]
    fn paced_sync_pair_delivers_where_legacy_times_out() {
        // The adversarial cell that zeroes every legacy sync protocol:
        // lagging receiver plus non-rigid movement. The paced coding
        // layer's dwell/terminator framing survives it.
        let legacy = run_session(&paced_spec(CodingSpec::Binary));
        assert!(!legacy.delivered, "legacy sync2 should still time out");
        let paced = run_session(&paced_spec(CodingSpec::Fec {
            levels: 8,
            dwell: 10,
        }));
        assert!(paced.delivered, "paced sync2 must get the payload through");
        assert!(paced.error.is_none());
        assert_eq!(paced.corrupt, 0, "detect-or-reject holds under coding");
        assert_eq!(paced.delivered_bits, 24, "3 payload bytes delivered");
    }

    #[test]
    fn paced_sessions_replay_byte_identically() {
        let spec = SessionSpec {
            keep_trace: true,
            ..paced_spec(CodingSpec::MultiLevel {
                levels: 4,
                dwell: 10,
            })
        };
        let a = run_session(&spec);
        let b = run_session(&spec);
        assert_eq!(a, b, "paced runs replay byte-identically");
        assert!(a.trace.is_some());
    }

    #[test]
    fn invalid_coding_spec_is_poisoned_not_fatal() {
        // 3 levels is not a power of two: `PacedConfig::new` rejects it,
        // and the containment wrapper turns the panic into a report.
        let spec = paced_spec(CodingSpec::MultiLevel {
            levels: 3,
            dwell: 10,
        });
        let report = run_session_contained(&spec);
        let error = report.error.as_deref().expect("poisoned report errors");
        assert!(error.starts_with("session panicked:"), "{error}");
        assert!(!report.delivered);
    }

    #[test]
    fn worker_count_is_invisible_for_coded_batches() {
        // A k>2 batch must fingerprint identically whether one worker or
        // four drive it — the steal schedule cannot leak into coded runs.
        let spec = BatchSpec {
            protocols: vec![ProtocolKind::Sync2, ProtocolKind::SyncSwarmLex],
            algorithms: vec![],
            schedules: vec![ScheduleSpec::LaggingReceiver { max_gap: 8 }],
            plans: vec![FaultSpec::Dropout { prob: 0.1 }],
            seeds: vec![0, 1],
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: Some(50_000),
            keep_traces: false,
            coding: CodingSpec::Fec {
                levels: 8,
                dwell: 10,
            },
        };
        let serial = run_batch(&spec, 1);
        let pooled = run_batch(&spec, 4);
        assert_eq!(serial.runs, pooled.runs);
        assert_eq!(serial.metrics, pooled.metrics);
        assert!(serial
            .runs
            .iter()
            .zip(pooled.runs.iter())
            .all(|(a, b)| a.trace_hash == b.trace_hash));
    }

    fn algo_spec(algorithm: AlgorithmSpec, plan: FaultSpec) -> SessionSpec {
        SessionSpec {
            protocol: ProtocolKind::AsyncSwarm,
            algorithm: Some(algorithm),
            schedule: ScheduleSpec::WorstCaseFair { max_gap: 6 },
            plan,
            seed: 1,
            cohort: 3,
            payload: b"adv".to_vec(),
            budget_cap: None,
            keep_trace: false,
            coding: CodingSpec::Binary,
        }
    }

    #[test]
    fn algorithm_matrix_expands_algorithm_sessions() {
        let spec = BatchSpec::algorithm_matrix(vec![0, 1]);
        let sessions = spec.sessions();
        assert_eq!(sessions.len(), 3 * 2 * 2 * 2);
        assert!(sessions
            .iter()
            .all(|s| s.protocol == ProtocolKind::AsyncSwarm && s.algorithm.is_some()));
        // Algorithm-major order, same inner order as protocol blocks.
        assert!(sessions[..8]
            .iter()
            .all(|s| matches!(s.algorithm, Some(AlgorithmSpec::Flood { initiator: 0 }))));
    }

    #[test]
    fn algorithm_budgets_are_exempt_from_the_crash_cap() {
        let crash = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let spec = algo_spec(AlgorithmSpec::Election, crash);
        assert_eq!(spec.budget(), 900_000, "crash cap must not strangle algos");
        assert_eq!(
            algo_spec(AlgorithmSpec::Flood { initiator: 0 }, FaultSpec::Benign).budget(),
            600_000
        );
        assert_eq!(
            algo_spec(AlgorithmSpec::Agreement { inputs: 0 }, FaultSpec::Benign).budget(),
            1_200_000
        );
    }

    #[test]
    fn flood_session_covers_the_cohort_and_reproduces() {
        let spec = algo_spec(AlgorithmSpec::Flood { initiator: 0 }, FaultSpec::Benign);
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        assert_eq!(algo.decision, Some(3), "full coverage of a 3-cohort");
        assert!(!algo.rejected);
        assert!(algo.bits > 0);
        assert!(algo.activations_to_decision.is_some());
        assert_eq!(
            run_session(&spec),
            report,
            "algo runs replay byte-identically"
        );
    }

    #[test]
    fn election_session_elects_one_leader() {
        let spec = algo_spec(
            AlgorithmSpec::Election,
            FaultSpec::NonRigid {
                delta: 0.35,
                prob: 0.5,
            },
        );
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        assert!(
            algo.decision.is_some(),
            "ring cohort has distinct signatures"
        );
        assert!(!algo.rejected);
    }

    #[test]
    fn agreement_decides_among_survivors_of_a_crash() {
        let crash = FaultSpec::Crash {
            robot: 1,
            time: 35,
            delta: 0.5,
            prob: 0.25,
        };
        let spec = SessionSpec {
            schedule: ScheduleSpec::CrashFiltered {
                inner: Box::new(ScheduleSpec::WorstCaseFair { max_gap: 6 }),
            },
            ..algo_spec(AlgorithmSpec::Agreement { inputs: 0b101 }, crash)
        };
        let report = run_session(&spec);
        assert!(report.error.is_none(), "{:?}", report.error);
        assert!(report.delivered);
        let algo = report.algo.as_ref().expect("algo outcome populated");
        // Robot 1 (input 0) crash-stops before its first vote frame can
        // complete, so the AND fold over the survivors (inputs 1, 1)
        // decides `true`.
        assert_eq!(algo.decision, Some(1));
        assert!(algo.rounds >= 1);
        assert_eq!(run_session(&spec), report);
    }
}
