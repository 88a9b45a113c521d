//! High-level sessions: a message-passing channel over movement signals.
//!
//! This module is the one place an [`Engine`] becomes a session. The
//! protocols address peers by *labels* in a naming scheme, while an
//! application thinks in robot indices. [`Network`] bridges the two for
//! the swarm protocols: it owns the engine, translates indices to labels
//! (the naming functions are similarity-invariant, so labels computed
//! from world positions agree with what each robot computes in its
//! private frame), tracks what was sent, and runs the system until
//! everything is delivered. [`Pair`] does the same for the two-robot
//! protocols, whose only peer needs no address, and [`HardenedSession`]
//! layers retransmission and a secondary channel over a [`SyncNetwork`].
//! [`Network::run_stacks`] runs the distributed algorithms of
//! `stigmergy_algo` — one [`NodeStack`] per robot — over any swarm
//! protocol.
//!
//! The convenience constructors build a ready-made engine; batch runtimes
//! configure their own (schedule, fault plan, trace observer) and wrap it
//! with [`Network::from_engine`] or [`Pair::from_engine`].
//!
//! ```
//! use stigmergy::session::SyncNetwork;
//! use stigmergy_geometry::Point;
//!
//! let mut net = SyncNetwork::anonymous_with_direction(
//!     vec![Point::new(0.0, 0.0), Point::new(10.0, 0.0), Point::new(5.0, 8.0)],
//!     7,
//! )?;
//! net.send(0, 1, b"hi")?;
//! net.send(1, 2, b"there")?;
//! net.run_until_delivered(10_000)?;
//! assert_eq!(net.inbox(1), vec![(0, b"hi".to_vec())]);
//! assert_eq!(net.inbox(2), vec![(1, b"there".to_vec())]);
//! # Ok::<(), stigmergy::CoreError>(())
//! ```

use crate::ack::{AdaptiveBudget, RetransmitPolicy};
use crate::async2::{Async2, DriftPolicy};
use crate::async_n::AsyncSwarm;
use crate::backup::{Channel, Delivery, Wireless};
use crate::decode::InboxEntry;
use crate::naming::{election_signature, label_by_id, label_by_lex, label_by_sec};
use crate::preprocess::{NamingScheme, SwarmGeometry};
use crate::sync_swarm::SyncSwarm;
use crate::CoreError;
use stigmergy_algo::{
    agreement, election, flood, AgreementSession, ElectionSession, FloodSession, NodeStack,
    Outgoing, Session,
};
use stigmergy_coding::fec::{protect_bytes, recover_bytes};
use stigmergy_geometry::Point;
use stigmergy_robots::{Capabilities, Engine, MovementProtocol};
use stigmergy_scheduler::{
    AlgorithmSpec, FairAsync, FaultPlan, Schedule, Synchronous, WakeAllFirst,
};

/// The protocol-side interface a [`Network`] drives.
///
/// Implemented by [`SyncSwarm`], [`AsyncSwarm`], and
/// [`crate::paced::PacedSwarm`]; sealed in spirit — the session layer is
/// written against exactly these semantics.
pub trait SwarmProtocol: MovementProtocol {
    /// Queues a message for the robot labelled `label` (in this robot's
    /// naming).
    fn queue_label(&mut self, label: usize, payload: &[u8]);
    /// Queues a broadcast.
    fn queue_broadcast(&mut self, payload: &[u8]);
    /// Messages received so far.
    fn inbox_entries(&self) -> &[InboxEntry];
    /// The preprocessed geometry, if built.
    fn swarm_geometry(&self) -> Option<&SwarmGeometry>;
    /// A preprocessing failure, if any.
    fn failure(&self) -> Option<&CoreError>;
    /// `(corrected, rejected)` FEC counters; protocols without a coded
    /// channel report zeros.
    fn fec_stats(&self) -> (u64, u64) {
        (0, 0)
    }
    /// The failure detector reports that the robot at this robot's home
    /// index `home` crashed. Protocols whose sending rule waits on every
    /// peer stop waiting on it; the synchronous swarms, which wait on
    /// nobody, ignore it.
    fn suspect(&mut self, _home: usize) {}
}

/// The protocol-side interface a [`Pair`] drives: the two-robot
/// protocols, whose only possible peer needs no address.
///
/// Implemented by [`crate::sync2::Sync2`], [`Async2`], and
/// [`crate::paced::Paced2`].
pub trait PairProtocol: MovementProtocol {
    /// Queues a message for the peer.
    fn send(&mut self, payload: &[u8]);
    /// Messages received so far, in order.
    fn inbox(&self) -> &[Vec<u8>];
    /// `(corrected, rejected)` FEC counters; protocols without a coded
    /// channel report zeros.
    fn fec_stats(&self) -> (u64, u64) {
        (0, 0)
    }
}

/// A plain-data summary of a session: how much work the engine did,
/// whether every queued message arrived, and what the channel corrected
/// or let through.
///
/// Extracted via [`Network::report`] (and the other sessions'
/// equivalents); all fields are order-independent sums, minima, or
/// booleans, so reports aggregate the same way regardless of which
/// worker thread ran the session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SessionReport {
    /// Number of robots.
    pub cohort: usize,
    /// Whether every queued expectation has been met.
    pub delivered: bool,
    /// Instants executed.
    pub steps: u64,
    /// Robot activations (after crash filtering).
    pub activations: u64,
    /// Activations that changed a position.
    pub moves: u64,
    /// Faults injected by the engine's plan.
    pub faults_injected: u64,
    /// Inbox entries, at robots still owed a message, that matched none
    /// of the messages owed to them — garbled or misattributed
    /// deliveries. Detect-or-reject demands 0.
    pub corrupt: u64,
    /// FEC symbol corrections (coded protocols; the hardened secondary).
    pub fec_corrected: u64,
    /// FEC blocks rejected as beyond the correction radius.
    pub fec_rejected: u64,
    /// Retransmissions issued (hardened sessions; 0 elsewhere).
    pub retransmissions: u64,
    /// Smallest pairwise distance over every configuration the engine
    /// produced — the collision margin.
    pub min_distance: f64,
}

impl SessionReport {
    /// The engine's share of a report: cohort, work counters, and the
    /// collision margin.
    fn of_engine<P: MovementProtocol>(engine: &Engine<P>) -> Self {
        let stats = engine.stats();
        Self {
            cohort: engine.cohort(),
            steps: stats.steps,
            activations: stats.activations,
            moves: stats.moves,
            faults_injected: stats.faults_injected,
            min_distance: engine.min_pairwise_distance(),
            ..Self::default()
        }
    }
}

/// The protocol id `algorithm`'s session registers under in the stacks
/// [`Network::algorithm_stacks`] builds.
#[must_use]
pub fn algorithm_protocol_id(algorithm: AlgorithmSpec) -> u8 {
    match algorithm {
        AlgorithmSpec::Flood { .. } => flood::PROTOCOL_ID,
        AlgorithmSpec::Election => election::PROTOCOL_ID,
        AlgorithmSpec::Agreement { .. } => agreement::PROTOCOL_ID,
    }
}

/// What [`Network::run_stacks`] measured. The counters cover the whole
/// run, however it ended.
#[derive(Debug, Clone, PartialEq)]
pub struct StackRun {
    /// How the run ended: `Ok(Some(t))` when every live stack was
    /// terminal after `t` instants, `Ok(None)` when the budget ran out
    /// first, or the error that stopped the run.
    pub terminal_after: Result<Option<u64>, CoreError>,
    /// Channel cost of every frame queued, in bits: 16 header bits plus
    /// 8 per payload byte (`bits(L) = 16 + 8L`, one excursion per bit).
    pub bits: u64,
    /// Frames no stack could demultiplex, summed over every robot.
    pub unroutable: u64,
    /// Engine activations when the last live stack turned terminal.
    pub activations_to_decision: Option<u64>,
    /// Per robot: `false` once the failure detector reported its crash.
    pub live: Vec<bool>,
}

/// The messages a session queued and has not yet seen arrive.
///
/// Delivery is checked incrementally: each check scans only the inbox
/// entries that arrived since the previous one, and only at robots still
/// owed a message, so an instant without new traffic costs a few
/// comparisons and allocates nothing. Matching respects multiplicity —
/// each inbox entry meets at most one owed message.
#[derive(Debug)]
struct Expectations {
    /// `(from, to, payload)` still owed.
    owed: Vec<(usize, usize, Vec<u8>)>,
    /// Per robot: inbox entries already scanned.
    scanned: Vec<usize>,
    /// Scanned entries that matched nothing owed to their robot.
    unmatched: u64,
}

impl Expectations {
    fn new(cohort: usize) -> Self {
        Self {
            owed: Vec::new(),
            scanned: vec![0; cohort],
            unmatched: 0,
        }
    }

    fn expect(&mut self, from: usize, to: usize, payload: &[u8]) {
        self.owed.push((from, to, payload.to_vec()));
    }

    fn all_met(&self) -> bool {
        self.owed.is_empty()
    }

    /// Where robot `to`'s unscanned inbox entries start, if its inbox
    /// has grown past them to `len` and it is still owed a message.
    fn unscanned(&self, to: usize, len: usize) -> Option<usize> {
        let start = self.scanned[to];
        (len > start && self.owed.iter().any(|(_, t, _)| *t == to)).then_some(start)
    }

    /// Marks robot `to`'s first `len` inbox entries as scanned without
    /// matching them: another consumer (an algorithm stack) read them.
    fn consumed(&mut self, to: usize, len: usize) {
        self.scanned[to] = self.scanned[to].max(len);
    }

    /// Scans robot `to`'s new inbox entries, given as `(sender, payload)`;
    /// a sender of `None` could not be identified and matches nothing.
    fn receive<'a>(&mut self, to: usize, entries: impl Iterator<Item = (Option<usize>, &'a [u8])>) {
        for (from, payload) in entries {
            self.scanned[to] += 1;
            let owed = self
                .owed
                .iter()
                .position(|(f, t, p)| Some(*f) == from && *t == to && p == payload);
            match owed {
                Some(k) => drop(self.owed.swap_remove(k)),
                None => self.unmatched += 1,
            }
        }
    }
}

/// A message-passing network over movement signals.
#[derive(Debug)]
pub struct Network<P> {
    engine: Engine<P>,
    scheme: NamingScheme,
    expected: Expectations,
}

/// A synchronous network (protocols P1–P4 territory).
pub type SyncNetwork = Network<SyncSwarm>;
/// An asynchronous network (protocol P6).
pub type AsyncNetwork = Network<AsyncSwarm>;

impl SyncNetwork {
    /// Anonymous robots with chirality only (§3.4 naming).
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations (coincident robots; a robot at
    /// the SEC centre surfaces on the first send/run).
    pub fn anonymous(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build_sync(
            positions,
            seed,
            NamingScheme::BySec,
            Capabilities::anonymous(),
            SyncSwarm::anonymous,
        )
    }

    /// Anonymous robots with a common North (§3.3 naming).
    ///
    /// # Errors
    ///
    /// As [`SyncNetwork::anonymous`].
    pub fn anonymous_with_direction(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build_sync(
            positions,
            seed,
            NamingScheme::ByLex,
            Capabilities::anonymous_with_direction(),
            SyncSwarm::anonymous_with_direction,
        )
    }

    /// Identified robots with a common North (§3.2 routing).
    ///
    /// # Errors
    ///
    /// As [`SyncNetwork::anonymous`].
    pub fn identified(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::build_sync(
            positions,
            seed,
            NamingScheme::ById,
            Capabilities::identified_with_direction(),
            SyncSwarm::routed,
        )
    }

    fn build_sync(
        positions: Vec<Point>,
        seed: u64,
        scheme: NamingScheme,
        caps: Capabilities,
        proto: fn() -> SyncSwarm,
    ) -> Result<Self, CoreError> {
        let n = positions.len();
        let engine = Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| proto()))
            .capabilities(caps)
            .schedule(Synchronous)
            .frame_seed(seed)
            .build()?;
        Ok(Self::from_engine(engine, scheme))
    }
}

impl AsyncNetwork {
    /// Anonymous asynchronous robots (§4.2) under a seeded fair scheduler.
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations.
    pub fn anonymous(positions: Vec<Point>, seed: u64) -> Result<Self, CoreError> {
        Self::anonymous_with_schedule(positions, seed, FairAsync::new(seed, 0.5, 16))
    }

    /// Anonymous asynchronous robots under a caller-supplied scheduler
    /// (wrapped so every robot wakes at `t0`, the §4.2 assumption).
    ///
    /// # Errors
    ///
    /// Fails on degenerate configurations.
    pub fn anonymous_with_schedule<S: Schedule + 'static>(
        positions: Vec<Point>,
        seed: u64,
        schedule: S,
    ) -> Result<Self, CoreError> {
        let n = positions.len();
        let engine = Engine::builder()
            .positions(positions)
            .protocols((0..n).map(|_| AsyncSwarm::anonymous()))
            .capabilities(Capabilities::anonymous())
            .schedule(WakeAllFirst::new(schedule))
            .frame_seed(seed)
            .build()?;
        Ok(Self::from_engine(engine, NamingScheme::BySec))
    }
}

impl<P: SwarmProtocol> Network<P> {
    /// Wraps an engine the caller configured — schedule, capabilities,
    /// fault plan, trace observers — whose robots address each other
    /// under `scheme`. The scheme must be the one the protocols were
    /// built with, or sends reach the wrong robots.
    #[must_use]
    pub fn from_engine(engine: Engine<P>, scheme: NamingScheme) -> Self {
        let expected = Expectations::new(engine.cohort());
        Self {
            engine,
            scheme,
            expected,
        }
    }

    /// Number of robots.
    #[must_use]
    pub fn cohort(&self) -> usize {
        self.engine.cohort()
    }

    /// The underlying engine (positions, trace, frames).
    #[must_use]
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine. Instants stepped through
    /// it directly are accounted for delivery at the network's next run.
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// Queues a message from robot `from` to robot `to` (engine indices).
    ///
    /// # Errors
    ///
    /// * [`CoreError::UnknownDestination`] for out-of-range indices.
    /// * [`CoreError::SelfAddressed`] if `from == to` (use
    ///   [`Network::broadcast`]).
    /// * [`CoreError::Naming`] if the configuration admits no naming.
    pub fn send(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<(), CoreError> {
        let n = self.cohort();
        if from >= n || to >= n {
            return Err(CoreError::UnknownDestination {
                dest: from.max(to),
                cohort: n,
            });
        }
        if from == to {
            return Err(CoreError::SelfAddressed);
        }
        if payload.len() > stigmergy_coding::framing::MAX_PAYLOAD {
            return Err(CoreError::PayloadTooLarge { len: payload.len() });
        }
        let label = self.label(from, to)?;
        self.engine.protocol_mut(from).queue_label(label, payload);
        self.expected.expect(from, to, payload);
        Ok(())
    }

    /// Queues a broadcast from robot `from` to everyone (§5 one-to-all).
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDestination`] for an out-of-range index.
    pub fn broadcast(&mut self, from: usize, payload: &[u8]) -> Result<(), CoreError> {
        if from >= self.cohort() {
            return Err(CoreError::UnknownDestination {
                dest: from,
                cohort: self.cohort(),
            });
        }
        if payload.len() > stigmergy_coding::framing::MAX_PAYLOAD {
            return Err(CoreError::PayloadTooLarge { len: payload.len() });
        }
        self.engine.protocol_mut(from).queue_broadcast(payload);
        for to in (0..self.cohort()).filter(|&i| i != from) {
            self.expected.expect(from, to, payload);
        }
        Ok(())
    }

    /// Runs until every queued message has been delivered.
    ///
    /// Returns the number of instants executed.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Timeout`] if `max_steps` elapse first.
    /// * Any robot's preprocessing failure, surfaced after the first
    ///   instant.
    /// * [`CoreError::Model`] on a model violation (collision).
    pub fn run_until_delivered(&mut self, max_steps: u64) -> Result<u64, CoreError> {
        for step in 0..max_steps {
            self.engine.run(1)?;
            if step == 0 {
                if let Some(e) = self.engine.protocols().iter().find_map(P::failure) {
                    return Err(e.clone());
                }
            }
            self.note_deliveries();
            if self.expected.all_met() {
                return Ok(step + 1);
            }
        }
        if self.expected.all_met() {
            Ok(max_steps)
        } else {
            Err(CoreError::Timeout { steps: max_steps })
        }
    }

    /// Runs exactly `steps` instants.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] on a model violation.
    pub fn run(&mut self, steps: u64) -> Result<(), CoreError> {
        self.engine.run(steps)?;
        self.note_deliveries();
        Ok(())
    }

    /// Whether every queued message has reached its addressee, as of the
    /// last instant this network ran.
    ///
    /// Matching respects multiplicity: sending the same payload to the
    /// same robot twice requires two inbox entries. Delivery is tracked
    /// incrementally as the network runs, so this is a constant-time read.
    #[must_use]
    pub fn all_delivered(&self) -> bool {
        self.expected.all_met()
    }

    /// Summarizes the session so far: cohort size, delivery status, the
    /// engine's cumulative counters, and the protocols' FEC counters.
    ///
    /// Plain copyable data, independent of trace recording — this is the
    /// currency batch runtimes collect from finished sessions.
    #[must_use]
    pub fn report(&self) -> SessionReport {
        let (fec_corrected, fec_rejected) = self
            .engine
            .protocols()
            .iter()
            .map(P::fec_stats)
            .fold((0, 0), |(c, r), (ci, ri)| (c + ci, r + ri));
        SessionReport {
            delivered: self.all_delivered(),
            corrupt: self.expected.unmatched,
            fec_corrected,
            fec_rejected,
            ..SessionReport::of_engine(&self.engine)
        }
    }

    /// Robot `robot`'s inbox as `(sender_engine_index, payload)` pairs.
    ///
    /// Empty before the first instant (geometry not yet built).
    #[must_use]
    pub fn inbox(&self, robot: usize) -> Vec<(usize, Vec<u8>)> {
        self.engine
            .protocol(robot)
            .inbox_entries()
            .iter()
            .filter_map(|e| Some((self.robot_at(robot, e.sender)?, e.payload.clone())))
            .collect()
    }

    /// The engine index of home `home` in robot `robot`'s geometry — how
    /// a protocol-level address (an inbox sender, an algorithm peer)
    /// becomes a robot. `None` before preprocessing, or if no robot
    /// started there.
    #[must_use]
    pub fn robot_at(&self, robot: usize, home: usize) -> Option<usize> {
        let g = self.engine.protocol(robot).swarm_geometry()?;
        home_to_engine(&self.engine, robot, g, home)
    }

    /// The inverse of [`Network::robot_at`]: robot `other` as a home
    /// index of robot `robot`'s geometry. `None` before preprocessing.
    #[must_use]
    pub fn home_of(&self, robot: usize, other: usize) -> Option<usize> {
        let g = self.engine.protocol(robot).swarm_geometry()?;
        let local = self.engine.frames()[robot].to_local(self.engine.trace().initial()[other]);
        (0..g.cohort()).find(|&h| g.home(h).approx_eq(local))
    }

    /// The label of `to` in `from`'s naming, computed from world positions
    /// (valid because every naming scheme is similarity-invariant).
    ///
    /// # Errors
    ///
    /// [`CoreError::Naming`] if the configuration admits no naming;
    /// [`CoreError::UnknownDestination`] if `to` has no label.
    pub fn label(&self, from: usize, to: usize) -> Result<usize, CoreError> {
        let homes = self.engine.trace().initial();
        let labeling = match self.scheme {
            NamingScheme::ByLex => label_by_lex(homes)?,
            NamingScheme::BySec => label_by_sec(homes, from)?,
            NamingScheme::ById => {
                let ids = self
                    .engine
                    .ids()
                    .expect("identified networks always carry IDs");
                label_by_id(ids)?
            }
        };
        labeling.label_of(to).ok_or(CoreError::UnknownDestination {
            dest: to,
            cohort: homes.len(),
        })
    }

    /// One single-layer [`NodeStack`] per robot, ready for
    /// [`Network::run_stacks`]: each runs `algorithm`, with its peers
    /// addressed by its robot's home indices. A flood initiator floods
    /// `payload`; an election candidate claims its robot's
    /// [`election_signature`] truncated to the 32-bit wire width (which
    /// preserves symmetry ties); agreement runs `f + 1` FloodSet rounds,
    /// `f` the number of crash-stops in the engine's fault plan. Call it
    /// once the robots have preprocessed and the fault plan is armed.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDestination`] if a robot cannot place the
    /// flood initiator among its homes, or [`CoreError::Naming`] if the
    /// configuration has no election signatures.
    pub fn algorithm_stacks(
        &self,
        algorithm: AlgorithmSpec,
        payload: &[u8],
    ) -> Result<Vec<NodeStack>, CoreError> {
        let n = self.cohort();
        let max_rounds = self.engine.fault_plan().crash_stops().len() as u64 + 1;
        let mut stacks = Vec::with_capacity(n);
        for i in 0..n {
            let session: Box<dyn Session> = match algorithm {
                AlgorithmSpec::Flood { initiator } if i == initiator => {
                    Box::new(FloodSession::initiator(payload.to_vec(), n))
                }
                AlgorithmSpec::Flood { initiator } => {
                    let home = self
                        .home_of(i, initiator)
                        .ok_or(CoreError::UnknownDestination {
                            dest: initiator,
                            cohort: n,
                        })?;
                    Box::new(FloodSession::follower(home))
                }
                AlgorithmSpec::Election => {
                    // Similarity-invariant, so the world-frame snapshot
                    // gives each robot's own local-frame signature.
                    let sig = election_signature(self.engine.trace().initial(), i)?;
                    Box::new(ElectionSession::new(sig as u32, n))
                }
                AlgorithmSpec::Agreement { inputs } => {
                    Box::new(AgreementSession::new((inputs >> i) & 1 == 1, n, max_rounds))
                }
            };
            let mut stack = NodeStack::new();
            stack.register(algorithm_protocol_id(algorithm), session);
            stacks.push(stack);
        }
        Ok(stacks)
    }

    /// Runs one [`NodeStack`] per robot over the movement channel until
    /// every live stack is terminal or `budget` instants have run. This
    /// is the only code that binds algorithm stacks to robots.
    ///
    /// A stack's peers are its robot's home indices (`0` is the robot
    /// itself); the network translates them to addresses, and every frame
    /// a stack returns is queued on its robot's protocol at once. After
    /// starting every stack, each instant:
    ///
    /// 1. steps the engine;
    /// 2. acts as the perfect failure detector: for each crash-stop of
    ///    the engine's fault plan ([`FaultPlan::crash_stops`], taken in
    ///    `(instant, robot)` order; robots outside the cohort are
    ///    ignored) whose instant has run, every surviving robot, in robot
    ///    order, gets [`SwarmProtocol::suspect`] and
    ///    [`NodeStack::on_crash`];
    /// 3. routes every live robot's fresh inbox frames into its stack;
    /// 4. stops once every live stack is terminal.
    ///
    /// The stacks consume every inbox entry, so a later [`Network::send`]
    /// or [`Network::broadcast`] does not count the algorithm's frames
    /// as corrupt. Identical stacks and engine give identical runs. Call
    /// it once the robots have preprocessed (after their first instant)
    /// and the fault plan is armed.
    ///
    /// # Panics
    ///
    /// Panics unless there is exactly one stack per robot.
    pub fn run_stacks(&mut self, stacks: &mut [NodeStack], budget: u64) -> StackRun {
        let n = self.cohort();
        assert_eq!(stacks.len(), n, "one stack per robot");
        let mut run = StackRun {
            terminal_after: Ok(None),
            bits: 0,
            unroutable: 0,
            activations_to_decision: None,
            live: vec![true; n],
        };
        run.terminal_after = self.pump_stacks(stacks, budget, &mut run);
        run.unroutable = stacks.iter().map(NodeStack::unroutable).sum();
        for (i, protocol) in self.engine.protocols().iter().enumerate() {
            self.expected.consumed(i, protocol.inbox_entries().len());
        }
        run
    }

    /// [`Network::run_stacks`]'s loop; counters accumulate in `run`.
    fn pump_stacks(
        &mut self,
        stacks: &mut [NodeStack],
        budget: u64,
        run: &mut StackRun,
    ) -> Result<Option<u64>, CoreError> {
        let n = self.cohort();
        for (i, stack) in stacks.iter_mut().enumerate() {
            run.bits += self.queue_frames(i, stack.start())?;
        }
        let mut crashes = self.engine.fault_plan().crash_stops().to_vec();
        crashes.retain(|&(robot, _)| robot < n);
        crashes.sort_unstable_by_key(|&(robot, time)| (time, robot));
        let mut cursor = vec![0usize; n];
        for taken in 1..=budget {
            self.run(1)?;
            let now = self.engine.stats().steps;
            for &(robot, when) in &crashes {
                // `steps` counts executed instants, so `now > when` means
                // instant `when` — where the engine froze the robot — has
                // already run: the detector never accuses a live robot.
                if !run.live[robot] || now <= when {
                    continue;
                }
                run.live[robot] = false;
                for i in (0..n).filter(|&i| run.live[i]) {
                    let home = self
                        .home_of(i, robot)
                        .ok_or(CoreError::UnknownDestination {
                            dest: robot,
                            cohort: n,
                        })?;
                    self.engine.protocol_mut(i).suspect(home);
                    run.bits += self.queue_frames(i, stacks[i].on_crash(home))?;
                }
            }
            for i in (0..n).filter(|&i| run.live[i]) {
                let fresh: Vec<(usize, Vec<u8>)> = self.engine.protocol(i).inbox_entries()
                    [cursor[i]..]
                    .iter()
                    .map(|m| (m.sender, m.payload.clone()))
                    .collect();
                cursor[i] += fresh.len();
                for (sender, payload) in fresh {
                    run.bits += self.queue_frames(i, stacks[i].on_frame(sender, &payload))?;
                }
            }
            if (0..n)
                .filter(|&i| run.live[i])
                .all(|i| stacks[i].all_terminal())
            {
                run.activations_to_decision = Some(self.engine.stats().activations);
                return Ok(Some(taken));
            }
        }
        Ok(None)
    }

    /// Queues a stack's frames on robot `robot`'s protocol and returns
    /// their channel cost in bits (`16 + 8L` per frame).
    fn queue_frames(&mut self, robot: usize, frames: Vec<Outgoing>) -> Result<u64, CoreError> {
        let mut bits = 0;
        for frame in frames {
            bits += 16 + 8 * frame.body().len() as u64;
            match frame {
                Outgoing::Broadcast { body } => {
                    self.engine.protocol_mut(robot).queue_broadcast(&body);
                }
                Outgoing::Unicast { peer, body } => {
                    let to = self
                        .robot_at(robot, peer)
                        .ok_or(CoreError::UnknownDestination {
                            dest: peer,
                            cohort: self.cohort(),
                        })?;
                    let label = self.label(robot, to)?;
                    self.engine.protocol_mut(robot).queue_label(label, &body);
                }
            }
        }
        Ok(bits)
    }

    /// Matches newly arrived inbox entries against the owed messages.
    fn note_deliveries(&mut self) {
        let engine = &self.engine;
        for (to, protocol) in engine.protocols().iter().enumerate() {
            let inbox = protocol.inbox_entries();
            let Some(start) = self.expected.unscanned(to, inbox.len()) else {
                continue;
            };
            let geometry = protocol.swarm_geometry();
            let entries = inbox[start..].iter().map(|e| {
                let from = geometry.and_then(|g| home_to_engine(engine, to, g, e.sender));
                (from, e.payload.as_slice())
            });
            self.expected.receive(to, entries);
        }
    }
}

/// Translates one robot's home index into an engine index by matching
/// world home positions.
fn home_to_engine<P: MovementProtocol>(
    engine: &Engine<P>,
    robot: usize,
    g: &SwarmGeometry,
    home: usize,
) -> Option<usize> {
    let world = engine.frames()[robot].to_world(g.home(home));
    engine
        .trace()
        .initial()
        .iter()
        .position(|&p| p.approx_eq(world))
}

/// A two-robot chat session over a [`PairProtocol`].
///
/// Tracks what was sent exactly like [`Network`] does, with the sender
/// of every inbox entry implied: the peer.
#[derive(Debug)]
pub struct Pair<P> {
    engine: Engine<P>,
    expected: Expectations,
}

/// A ready-made two-robot asynchronous chat session (protocol P5).
pub type AsyncPair = Pair<Async2>;

impl AsyncPair {
    /// Creates a two-robot asynchronous session under a seeded fair
    /// scheduler.
    ///
    /// # Errors
    ///
    /// Fails if the two positions coincide.
    pub fn new(a: Point, b: Point, policy: DriftPolicy, seed: u64) -> Result<Self, CoreError> {
        Self::with_schedule(a, b, policy, seed, FairAsync::new(seed, 0.5, 16))
    }

    /// As [`AsyncPair::new`] with a caller-supplied scheduler.
    ///
    /// # Errors
    ///
    /// Fails if the two positions coincide.
    pub fn with_schedule<S: Schedule + 'static>(
        a: Point,
        b: Point,
        policy: DriftPolicy,
        seed: u64,
        schedule: S,
    ) -> Result<Self, CoreError> {
        let engine = Engine::builder()
            .positions([a, b])
            .protocols([Async2::new(policy), Async2::new(policy)])
            .schedule(WakeAllFirst::new(schedule))
            .frame_seed(seed)
            .build()?;
        Ok(Self::from_engine(engine))
    }
}

impl<P: PairProtocol> Pair<P> {
    /// Wraps a two-robot engine the caller configured — schedule, fault
    /// plan, trace observers.
    #[must_use]
    pub fn from_engine(engine: Engine<P>) -> Self {
        debug_assert_eq!(engine.cohort(), 2, "a pair has two robots");
        Self {
            engine,
            expected: Expectations::new(2),
        }
    }

    /// Queues a message from robot `from` (0 or 1) to the other robot.
    ///
    /// # Errors
    ///
    /// [`CoreError::UnknownDestination`] unless `from` is 0 or 1.
    pub fn send(&mut self, from: usize, payload: &[u8]) -> Result<(), CoreError> {
        if from > 1 {
            return Err(CoreError::UnknownDestination {
                dest: from,
                cohort: 2,
            });
        }
        self.engine.protocol_mut(from).send(payload);
        self.expected.expect(from, 1 - from, payload);
        Ok(())
    }

    /// Runs until every queued message is in its receiver's inbox, or
    /// `max_steps` elapse. Returns the number of instants executed: the
    /// first instant at which the last message arrived.
    ///
    /// # Errors
    ///
    /// [`CoreError::Timeout`] / [`CoreError::Model`].
    pub fn run_until_delivered(&mut self, max_steps: u64) -> Result<u64, CoreError> {
        for step in 0..max_steps {
            self.engine.run(1)?;
            self.note_deliveries();
            if self.expected.all_met() {
                return Ok(step + 1);
            }
        }
        if self.expected.all_met() {
            Ok(max_steps)
        } else {
            Err(CoreError::Timeout { steps: max_steps })
        }
    }

    /// Runs exactly `steps` instants.
    ///
    /// # Errors
    ///
    /// [`CoreError::Model`] on a model violation.
    pub fn run(&mut self, steps: u64) -> Result<(), CoreError> {
        self.engine.run(steps)?;
        self.note_deliveries();
        Ok(())
    }

    /// Messages received by robot `robot`.
    #[must_use]
    pub fn inbox(&self, robot: usize) -> &[Vec<u8>] {
        self.engine.protocol(robot).inbox()
    }

    /// The underlying engine.
    #[must_use]
    pub fn engine(&self) -> &Engine<P> {
        &self.engine
    }

    /// Mutable access to the underlying engine. Instants stepped through
    /// it directly are accounted for delivery at the pair's next run.
    pub fn engine_mut(&mut self) -> &mut Engine<P> {
        &mut self.engine
    }

    /// Summarizes the session so far; `delivered` means every queued
    /// message is in its receiver's inbox.
    #[must_use]
    pub fn report(&self) -> SessionReport {
        let (a, b) = (
            self.engine.protocol(0).fec_stats(),
            self.engine.protocol(1).fec_stats(),
        );
        SessionReport {
            delivered: self.expected.all_met(),
            corrupt: self.expected.unmatched,
            fec_corrected: a.0 + b.0,
            fec_rejected: a.1 + b.1,
            ..SessionReport::of_engine(&self.engine)
        }
    }

    /// Matches newly arrived inbox entries against the owed messages.
    fn note_deliveries(&mut self) {
        for (to, protocol) in self.engine.protocols().iter().enumerate() {
            let inbox = protocol.inbox();
            let Some(start) = self.expected.unscanned(to, inbox.len()) else {
                continue;
            };
            let entries = inbox[start..].iter().map(|m| (Some(1 - to), m.as_slice()));
            self.expected.receive(to, entries);
        }
    }
}

/// Why a hardened session abandoned the movement channel for a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// An endpoint of the message crash-stopped; a crashed robot can
    /// neither signal nor observe, so movement delivery is hopeless.
    PeerCrashed {
        /// The crashed endpoint.
        robot: usize,
    },
    /// Every retransmission attempt exhausted its step budget.
    MovementExhausted,
}

/// How a hardened delivery ultimately got through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionRoute {
    /// Delivered by movement signals.
    Movement {
        /// Attempts used (1 = no retransmission needed).
        attempts: u32,
        /// Engine instants spent across all attempts.
        steps: u64,
    },
    /// Delivered over the secondary wireless channel after degradation.
    Secondary {
        /// Why the session degraded.
        reason: DegradeReason,
        /// Secondary transmissions used.
        attempts: u32,
    },
}

/// Hardened-session delivery statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Messages delivered over movement signals.
    pub movement_ok: u64,
    /// Retransmissions issued (attempts beyond each message's first).
    pub retransmissions: u64,
    /// Degradations caused by a crash-stopped endpoint.
    pub degraded_crash: u64,
    /// Degradations caused by exhausted movement budgets.
    pub degraded_timeout: u64,
    /// Messages recovered over the secondary channel.
    pub secondary_ok: u64,
    /// Engine instants spent on movement delivery.
    pub movement_steps: u64,
    /// Symbol corrections the secondary channel's FEC performed.
    pub fec_corrected: u64,
    /// Secondary frames rejected as beyond the correction radius.
    pub fec_rejected: u64,
}

/// A fault-tolerant session: movement signals first, with per-message
/// timeout budgets and bounded backed-off retransmission, degrading to a
/// secondary wireless channel when an endpoint crash-stops or the
/// budgets run dry.
///
/// This is [`crate::backup::BackupChannel`] inverted. There, wireless is
/// primary and movement is the backup; here the movement channel — the
/// paper's subject — carries the traffic, and the wireless device is the
/// contingency for faults movement cannot survive (a crash-stopped
/// robot cannot wiggle out a frame). Payloads crossing the secondary
/// channel are protected by the symbol-level forward error correction of
/// [`stigmergy_coding::fec`]: a single corrupted byte per block is
/// repaired in place instead of paying CRC-8's reject-and-retransmit
/// round trip, and only noise beyond the correction radius forces a
/// retry.
///
/// The retransmission schedule is *adaptive* ([`AdaptiveBudget`]): FEC
/// corrections on the secondary path back off the movement budgets
/// (the secondary is evidently needed and working), and an
/// uncorrectable block escalates — subsequent sends spend a single
/// minimal movement attempt before failing over, because one wireless
/// retry costs a transmission while one movement attempt costs
/// thousands of instants.
#[derive(Debug)]
pub struct HardenedSession {
    net: SyncNetwork,
    adaptive: AdaptiveBudget,
    secondary: Wireless,
    secondary_inbox: Vec<(usize, usize, Vec<u8>)>,
    stats: SessionStats,
    sends: u64,
}

impl HardenedSession {
    /// Builds a hardened session over the robots at `positions`, with a
    /// benign fault plan.
    ///
    /// # Errors
    ///
    /// Fails on configurations the movement network rejects.
    pub fn new(
        positions: Vec<Point>,
        seed: u64,
        policy: RetransmitPolicy,
        secondary: Wireless,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            net: SyncNetwork::anonymous_with_direction(positions, seed)?,
            adaptive: AdaptiveBudget::new(policy),
            secondary,
            secondary_inbox: Vec::new(),
            stats: SessionStats::default(),
            sends: 0,
        })
    }

    /// As [`HardenedSession::new`], with a fault plan injected into the
    /// movement engine.
    ///
    /// # Errors
    ///
    /// As [`HardenedSession::new`].
    pub fn with_faults(
        positions: Vec<Point>,
        seed: u64,
        policy: RetransmitPolicy,
        secondary: Wireless,
        plan: FaultPlan,
    ) -> Result<Self, CoreError> {
        let mut session = Self::new(positions, seed, policy, secondary)?;
        session.net.engine_mut().set_fault_plan(plan);
        Ok(session)
    }

    /// Sends `payload` from `from` to `to` and drives the session until
    /// the message is through (movement or secondary) or every recourse
    /// is exhausted.
    ///
    /// # Errors
    ///
    /// * Validation errors from the movement network (bad indices,
    ///   oversized payload, degenerate naming).
    /// * [`CoreError::Timeout`] when the movement budgets *and* the
    ///   secondary retries are exhausted — the clean-failure outcome the
    ///   adversarial suite asserts on.
    /// * [`CoreError::Model`] on a model violation (collision).
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        payload: &[u8],
    ) -> Result<SessionRoute, CoreError> {
        let n = self.net.cohort();
        if from >= n || to >= n {
            return Err(CoreError::UnknownDestination {
                dest: from.max(to),
                cohort: n,
            });
        }
        if from == to {
            return Err(CoreError::SelfAddressed);
        }
        self.sends += 1;
        let baseline = self.delivered_copies(from, to, payload);
        let mut total_steps = 0u64;
        for attempt in 0..self.adaptive.max_attempts() {
            if let Some(robot) = self.crashed_endpoint(from, to) {
                self.stats.degraded_crash += 1;
                return self.send_secondary(
                    from,
                    to,
                    payload,
                    DegradeReason::PeerCrashed { robot },
                );
            }
            self.net.send(from, to, payload)?;
            if attempt > 0 {
                self.stats.retransmissions += 1;
            }
            let budget = self.adaptive.budget_for(attempt);
            let mut crashed = None;
            for step in 0..budget {
                self.net.run(1)?;
                total_steps += 1;
                self.stats.movement_steps += 1;
                if attempt == 0 && step == 0 {
                    for i in 0..self.net.cohort() {
                        if let Some(e) = self.net.engine().protocol(i).failure() {
                            return Err(e.clone());
                        }
                    }
                }
                if self.delivered_copies(from, to, payload) > baseline {
                    self.stats.movement_ok += 1;
                    return Ok(SessionRoute::Movement {
                        attempts: attempt + 1,
                        steps: total_steps,
                    });
                }
                if let Some(robot) = self.crashed_endpoint(from, to) {
                    crashed = Some(robot);
                    break;
                }
            }
            if let Some(robot) = crashed {
                self.stats.degraded_crash += 1;
                return self.send_secondary(
                    from,
                    to,
                    payload,
                    DegradeReason::PeerCrashed { robot },
                );
            }
        }
        self.stats.degraded_timeout += 1;
        self.send_secondary(from, to, payload, DegradeReason::MovementExhausted)
    }

    fn send_secondary(
        &mut self,
        from: usize,
        to: usize,
        payload: &[u8],
        reason: DegradeReason,
    ) -> Result<SessionRoute, CoreError> {
        let framed = protect_bytes(payload)
            .map_err(|_| CoreError::PayloadTooLarge { len: payload.len() })?;
        for attempt in 1..=self.adaptive.policy().max_attempts() {
            if let Delivery::Arrived(data) = self.secondary.transmit(from, to, &framed) {
                match recover_bytes(&data) {
                    Ok((recovered, corrected)) if recovered == payload => {
                        self.stats.fec_corrected += corrected;
                        if corrected > 0 {
                            self.adaptive.record_corrected(corrected);
                        } else {
                            self.adaptive.record_clean();
                        }
                        self.secondary_inbox.push((from, to, payload.to_vec()));
                        self.stats.secondary_ok += 1;
                        return Ok(SessionRoute::Secondary {
                            reason,
                            attempts: attempt,
                        });
                    }
                    // Uncorrectable, or miscorrected into a frame that
                    // is not ours — both mean noise beyond the radius.
                    _ => {
                        self.stats.fec_rejected += 1;
                        self.adaptive.record_uncorrectable();
                    }
                }
            }
        }
        Err(CoreError::Timeout {
            steps: self.adaptive.policy().total_budget(),
        })
    }

    fn crashed_endpoint(&self, from: usize, to: usize) -> Option<usize> {
        [from, to]
            .into_iter()
            .find(|&r| self.net.engine().is_crashed(r))
    }

    fn delivered_copies(&self, from: usize, to: usize, payload: &[u8]) -> usize {
        self.net
            .inbox(to)
            .iter()
            .filter(|(s, p)| *s == from && p == payload)
            .count()
    }

    /// Robot `robot`'s combined inbox: movement deliveries first, then
    /// secondary-channel recoveries, each as `(sender, payload)`.
    #[must_use]
    pub fn inbox(&self, robot: usize) -> Vec<(usize, Vec<u8>)> {
        let mut entries = self.net.inbox(robot);
        entries.extend(
            self.secondary_inbox
                .iter()
                .filter(|(_, to, _)| *to == robot)
                .map(|(from, _, p)| (*from, p.clone())),
        );
        entries
    }

    /// Delivery statistics so far.
    #[must_use]
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Summarizes the session: the movement network's report, with
    /// `delivered` meaning every [`HardenedSession::send`] so far got its
    /// payload through (over movement or the secondary channel), and the
    /// retransmission and FEC counters of the hardening layer.
    #[must_use]
    pub fn report(&self) -> SessionReport {
        SessionReport {
            delivered: self.stats.movement_ok + self.stats.secondary_ok == self.sends,
            retransmissions: self.stats.retransmissions,
            fec_corrected: self.stats.fec_corrected,
            fec_rejected: self.stats.fec_rejected,
            ..self.net.report()
        }
    }

    /// The underlying movement network.
    #[must_use]
    pub fn network(&self) -> &SyncNetwork {
        &self.net
    }

    /// Mutable access to the movement network — for installing trace
    /// observers on its engine before the first send. Messages sent
    /// through it directly bypass the hardening layer.
    pub fn network_mut(&mut self) -> &mut SyncNetwork {
        &mut self.net
    }

    /// The configured (pre-adaptation) retransmission policy.
    #[must_use]
    pub fn policy(&self) -> RetransmitPolicy {
        self.adaptive.policy()
    }

    /// The adaptive controller's current pressure level — 0 when the
    /// secondary channel has been clean, up to
    /// [`crate::ack::MAX_PRESSURE`] after uncorrectable noise.
    #[must_use]
    pub fn pressure(&self) -> u32 {
        self.adaptive.pressure()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_algo::{PeerId, Status};

    fn triangle() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(12.0, 0.0),
            Point::new(5.0, 9.0),
        ]
    }

    #[test]
    fn report_summarizes_engine_work_and_delivery() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 1).unwrap();
        assert_eq!(
            net.report(),
            SessionReport {
                cohort: 3,
                delivered: true, // nothing queued yet
                min_distance: net.engine().min_pairwise_distance(),
                ..SessionReport::default()
            }
        );
        net.send(0, 2, b"hi").unwrap();
        let steps = net.run_until_delivered(5_000).unwrap();
        let report = net.report();
        assert!(report.delivered);
        assert_eq!(report.cohort, 3);
        assert_eq!(report.steps, steps);
        assert_eq!(report.activations, steps * 3, "synchronous schedule");
        assert!(report.moves > 0);
        assert_eq!(report.faults_injected, 0);
    }

    #[test]
    fn sync_anonymous_with_direction_end_to_end() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 1).unwrap();
        net.send(0, 2, b"up").unwrap();
        net.send(2, 1, b"across").unwrap();
        let steps = net.run_until_delivered(5_000).unwrap();
        assert!(steps > 0);
        assert_eq!(net.inbox(2), vec![(0, b"up".to_vec())]);
        assert_eq!(net.inbox(1), vec![(2, b"across".to_vec())]);
        assert!(net.all_delivered());
    }

    #[test]
    fn sync_identified_end_to_end() {
        let mut net = SyncNetwork::identified(triangle(), 2).unwrap();
        net.send(1, 0, b"routed").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(0), vec![(1, b"routed".to_vec())]);
    }

    #[test]
    fn sync_chirality_only_end_to_end() {
        let mut net = SyncNetwork::anonymous(triangle(), 3).unwrap();
        net.send(0, 1, b"sec").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(1), vec![(0, b"sec".to_vec())]);
    }

    #[test]
    fn async_network_end_to_end() {
        let mut net = AsyncNetwork::anonymous(triangle(), 4).unwrap();
        net.send(0, 2, b"async swarm").unwrap();
        net.run_until_delivered(200_000).unwrap();
        assert_eq!(net.inbox(2), vec![(0, b"async swarm".to_vec())]);
    }

    #[test]
    fn broadcast_end_to_end() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 5).unwrap();
        net.broadcast(1, b"everyone").unwrap();
        net.run_until_delivered(5_000).unwrap();
        assert_eq!(net.inbox(0), vec![(1, b"everyone".to_vec())]);
        assert_eq!(net.inbox(2), vec![(1, b"everyone".to_vec())]);
    }

    #[test]
    fn send_validation() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 6).unwrap();
        assert!(matches!(
            net.send(0, 9, b"x"),
            Err(CoreError::UnknownDestination { dest: 9, cohort: 3 })
        ));
        assert!(matches!(
            net.send(1, 1, b"x"),
            Err(CoreError::SelfAddressed)
        ));
        assert!(matches!(
            net.broadcast(7, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
    }

    #[test]
    fn timeout_reported() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 7).unwrap();
        net.send(0, 1, b"too slow").unwrap();
        // 4 steps cannot carry a 40-bit frame.
        assert!(matches!(
            net.run_until_delivered(4),
            Err(CoreError::Timeout { steps: 4 })
        ));
    }

    #[test]
    fn degenerate_configuration_surfaces() {
        // Robot at the SEC centre with BySec naming: send() fails eagerly.
        let pts = vec![Point::new(0.0, 5.0), Point::new(0.0, -5.0), Point::ORIGIN];
        let mut net = SyncNetwork::anonymous(pts, 8).unwrap();
        assert!(matches!(net.send(0, 1, b"x"), Err(CoreError::Naming(_))));
    }

    #[test]
    fn async_pair_chat() {
        let mut pair = AsyncPair::new(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            DriftPolicy::Diverge,
            9,
        )
        .unwrap();
        pair.send(0, b"marco").unwrap();
        pair.send(1, b"polo").unwrap();
        pair.run_until_delivered(50_000).unwrap();
        assert_eq!(pair.inbox(1), &[b"marco".to_vec()]);
        assert_eq!(pair.inbox(0), &[b"polo".to_vec()]);
        assert!(!pair.engine().trace().is_empty());
    }

    #[test]
    fn async_pair_validation() {
        let mut pair = AsyncPair::new(
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            DriftPolicy::Diverge,
            10,
        )
        .unwrap();
        assert!(matches!(
            pair.send(2, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 13).unwrap();
        let big = vec![0u8; 70_000];
        assert!(matches!(
            net.send(0, 1, &big),
            Err(CoreError::PayloadTooLarge { len: 70_000 })
        ));
        assert!(matches!(
            net.broadcast(0, &big),
            Err(CoreError::PayloadTooLarge { .. })
        ));
    }

    #[test]
    fn inbox_before_running_is_empty() {
        let net = SyncNetwork::anonymous_with_direction(triangle(), 11).unwrap();
        assert!(net.inbox(0).is_empty());
        assert_eq!(net.cohort(), 3);
    }

    #[test]
    fn hardened_delivers_over_movement_when_healthy() {
        let mut s = HardenedSession::new(
            triangle(),
            21,
            RetransmitPolicy::default(),
            Wireless::reliable(21),
        )
        .unwrap();
        let route = s.send(0, 2, b"primary path").unwrap();
        assert!(
            matches!(route, SessionRoute::Movement { attempts: 1, steps } if steps > 0),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"primary path".to_vec())]);
        let stats = s.stats();
        assert_eq!(stats.movement_ok, 1);
        assert_eq!(stats.retransmissions, 0);
        assert_eq!(stats.secondary_ok, 0);
    }

    #[test]
    fn hardened_degrades_to_secondary_on_peer_crash() {
        let mut s = HardenedSession::with_faults(
            triangle(),
            22,
            RetransmitPolicy::default(),
            Wireless::reliable(22),
            FaultPlan::new(22).crash_stop(2, 0),
        )
        .unwrap();
        let route = s.send(0, 2, b"rescued").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::PeerCrashed { robot: 2 },
                    ..
                }
            ),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"rescued".to_vec())]);
        assert_eq!(s.stats().degraded_crash, 1);
        assert_eq!(s.stats().secondary_ok, 1);
    }

    #[test]
    fn hardened_crash_mid_delivery_degrades() {
        // The receiver crashes 10 instants in — long before a 40-bit frame
        // can cross the movement channel.
        let mut s = HardenedSession::with_faults(
            triangle(),
            23,
            RetransmitPolicy::new(3, 2_000, 2),
            Wireless::reliable(23),
            FaultPlan::new(23).crash_stop(1, 10),
        )
        .unwrap();
        let route = s.send(0, 1, b"mid-crash").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::PeerCrashed { robot: 1 },
                    ..
                }
            ),
            "got {route:?}"
        );
        assert_eq!(s.inbox(1), vec![(0, b"mid-crash".to_vec())]);
    }

    #[test]
    fn hardened_retransmits_then_degrades_on_exhausted_budgets() {
        // Budgets of 4 + 8 instants cannot carry any frame, so both
        // movement attempts time out and the secondary channel recovers.
        let mut s = HardenedSession::new(
            triangle(),
            24,
            RetransmitPolicy::new(2, 4, 2),
            Wireless::reliable(24),
        )
        .unwrap();
        let route = s.send(1, 0, b"slow road").unwrap();
        assert!(
            matches!(
                route,
                SessionRoute::Secondary {
                    reason: DegradeReason::MovementExhausted,
                    ..
                }
            ),
            "got {route:?}"
        );
        let stats = s.stats();
        assert_eq!(
            stats.retransmissions, 1,
            "second attempt was a retransmission"
        );
        assert_eq!(stats.degraded_timeout, 1);
        assert_eq!(stats.movement_steps, 12);
        assert_eq!(s.inbox(0), vec![(1, b"slow road".to_vec())]);
    }

    #[test]
    fn hardened_total_failure_is_clean_timeout() {
        // Receiver crashed AND the secondary device is dead: the send must
        // fail with a clean timeout, never hang or panic.
        let mut s = HardenedSession::with_faults(
            triangle(),
            25,
            RetransmitPolicy::new(2, 50, 2),
            Wireless::new(25, 0.0, 0.0, Some(0)),
            FaultPlan::new(25).crash_stop(2, 0),
        )
        .unwrap();
        let err = s.send(0, 2, b"doomed").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert!(s.inbox(2).is_empty());
    }

    #[test]
    fn hardened_secondary_heals_single_bit_corruption() {
        // 100% corruption rate, single-bit bursts: every CRC-8 scheme
        // would reject every frame, but the FEC repairs each one in
        // place, so the first secondary attempt succeeds.
        let mut s = HardenedSession::with_faults(
            triangle(),
            27,
            RetransmitPolicy::default(),
            Wireless::new(27, 0.0, 1.0, None),
            FaultPlan::new(27).crash_stop(2, 0),
        )
        .unwrap();
        let route = s.send(0, 2, b"healed").unwrap();
        assert!(
            matches!(route, SessionRoute::Secondary { attempts: 1, .. }),
            "got {route:?}"
        );
        assert_eq!(s.inbox(2), vec![(0, b"healed".to_vec())]);
        let stats = s.stats();
        assert!(stats.fec_corrected >= 1, "the flip was corrected");
        assert_eq!(stats.fec_rejected, 0);
        assert_eq!(s.pressure(), 1, "one correction event");
    }

    #[test]
    fn hardened_corrections_back_off_movement_budgets() {
        // Budgets 4 + 8 instants cannot carry any frame, so each send
        // times out of movement and recovers over the (always-corrupted,
        // always-corrected) secondary. The correction raises pressure,
        // halving the second send's movement budgets: 12 then 6 instants.
        let mut s = HardenedSession::new(
            triangle(),
            28,
            RetransmitPolicy::new(2, 4, 2),
            Wireless::new(28, 0.0, 1.0, None),
        )
        .unwrap();
        s.send(0, 1, b"first").unwrap();
        assert_eq!(s.stats().movement_steps, 12);
        assert_eq!(s.pressure(), 1);
        s.send(0, 1, b"second").unwrap();
        assert_eq!(s.stats().movement_steps, 12 + 6, "budgets halved");
        assert_eq!(s.stats().secondary_ok, 2);
        assert!(s.stats().fec_corrected >= 2);
    }

    #[test]
    fn hardened_uncorrectable_bursts_escalate_to_failover() {
        // An 8-byte burst in every frame puts at least one FEC block
        // beyond the correction radius (a "healed" frame is 14 bytes in
        // 2 blocks), so every secondary attempt is rejected and the send
        // fails cleanly. The escalation collapses the next send's
        // movement schedule to a single 1-instant attempt.
        let mut s = HardenedSession::new(
            triangle(),
            29,
            RetransmitPolicy::new(3, 4, 2),
            Wireless::noisy(29, 0.0, 1.0, 8, None),
        )
        .unwrap();
        let err = s.send(0, 1, b"jam").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert_eq!(s.stats().movement_steps, 4 + 8 + 16);
        assert_eq!(s.stats().fec_rejected, 3, "every retry was jammed");
        assert_eq!(s.pressure(), crate::ack::MAX_PRESSURE);
        let err = s.send(0, 1, b"jam").unwrap_err();
        assert!(matches!(err, CoreError::Timeout { .. }), "got {err:?}");
        assert_eq!(
            s.stats().movement_steps,
            28 + 1,
            "escalated: one minimal movement attempt before failover"
        );
        assert_eq!(s.stats().fec_rejected, 6);
        assert!(s.inbox(1).is_empty());
    }

    #[test]
    fn hardened_validation_errors_propagate() {
        let mut s = HardenedSession::new(
            triangle(),
            26,
            RetransmitPolicy::default(),
            Wireless::reliable(26),
        )
        .unwrap();
        assert!(matches!(
            s.send(0, 9, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
        assert!(matches!(s.send(1, 1, b"x"), Err(CoreError::SelfAddressed)));
    }

    /// The irregular ring the e12 experiment runs on: radii jittered by
    /// `0.02 (k + 1) / n`. At n = 4, robots 0 and 2 share `x` up to a
    /// rounding error, so observers' frames can disagree on their order.
    fn jittered_ring(n: usize, radius: f64) -> Vec<Point> {
        (0..n)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / (n as f64);
                let r = radius * (1.0 + 0.02 * (k as f64 + 1.0) / (n as f64));
                Point::new(r * theta.sin(), r * theta.cos())
            })
            .collect()
    }

    #[test]
    fn lex_near_tie_ring_routes_every_message_to_its_addressees() {
        let mut net = SyncNetwork::anonymous_with_direction(jittered_ring(4, 48.0), 0xE12).unwrap();
        let mut expected: Vec<Vec<(usize, Vec<u8>)>> = vec![Vec::new(); 4];
        for from in 0..4 {
            net.broadcast(from, &[0xB0 | from as u8]).unwrap();
            for to in (0..4).filter(|&to| to != from) {
                expected[to].push((from, vec![0xB0 | from as u8]));
                let unicast = [from as u8, to as u8];
                net.send(from, to, &unicast).unwrap();
                expected[to].push((from, unicast.to_vec()));
            }
        }
        net.run_until_delivered(100_000).unwrap();
        for (robot, mut want) in expected.into_iter().enumerate() {
            let mut got = net.inbox(robot);
            got.sort();
            want.sort();
            assert_eq!(got, want, "robot {robot}");
        }
        assert_eq!(net.report().corrupt, 0);
    }

    /// Broadcasts one frame at start, then never terminates.
    struct Chatter;

    impl Session for Chatter {
        fn on_start(&mut self, out: &mut Vec<Outgoing>) {
            out.push(Outgoing::Broadcast { body: vec![0xAA] });
        }
        fn on_message(&mut self, _: PeerId, _: &[u8], _: &mut Vec<Outgoing>) {}
        fn on_crash(&mut self, _: PeerId, _: &mut Vec<Outgoing>) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }

    fn stack_of(id: u8, session: Box<dyn Session>) -> NodeStack {
        let mut stack = NodeStack::new();
        stack.register(id, session);
        stack
    }

    /// The statuses of every stack's session registered under `id`.
    fn statuses(stacks: &[NodeStack], id: u8) -> Vec<Status> {
        stacks.iter().map(|s| s.status_of(id).unwrap()).collect()
    }

    #[test]
    fn election_stacks_agree_on_one_leader() {
        let ring = jittered_ring(5, 60.0);
        let sigs: Vec<u32> = (0..5)
            .map(|i| crate::election_signature(&ring, i).unwrap() as u32)
            .collect();
        let mut net = SyncNetwork::anonymous_with_direction(ring, 0xA99).unwrap();
        net.run(1).unwrap();
        let mut stacks = net.algorithm_stacks(AlgorithmSpec::Election, b"").unwrap();
        let run = net.run_stacks(&mut stacks, 400_000);
        assert!(matches!(run.terminal_after, Ok(Some(_))), "{run:?}");
        let leader = *sigs.iter().min().unwrap();
        assert_eq!(sigs.iter().filter(|&&s| s == leader).count(), 1);
        assert_eq!(
            statuses(&stacks, election::PROTOCOL_ID),
            vec![Status::Decided(u64::from(leader)); 5]
        );
        // Five claims of `[id, op, sig: u32]`.
        assert_eq!(run.bits, 5 * (16 + 8 * 6));
        assert_eq!(run.unroutable, 0);
    }

    #[test]
    fn messages_after_stacks_do_not_count_algorithm_frames_as_corrupt() {
        let mut net = SyncNetwork::anonymous_with_direction(jittered_ring(5, 60.0), 0xA99).unwrap();
        net.run(1).unwrap();
        let mut stacks = net.algorithm_stacks(AlgorithmSpec::Election, b"").unwrap();
        let run = net.run_stacks(&mut stacks, 400_000);
        assert!(matches!(run.terminal_after, Ok(Some(_))), "{run:?}");
        net.broadcast(2, b"after").unwrap();
        net.send(0, 3, b"too").unwrap();
        net.run_until_delivered(100_000).unwrap();
        let report = net.report();
        assert!(report.delivered);
        assert_eq!(report.corrupt, 0);
    }

    #[test]
    fn flood_stacks_cover_a_chirality_only_network() {
        let mut net = SyncNetwork::anonymous(jittered_ring(4, 30.0), 0xF1).unwrap();
        net.run(1).unwrap();
        let mut stacks: Vec<NodeStack> = (0..4)
            .map(|i| {
                let session: Box<dyn Session> = if i == 2 {
                    Box::new(FloodSession::initiator(b"flood".to_vec(), 4))
                } else {
                    Box::new(FloodSession::follower(net.home_of(i, 2).unwrap()))
                };
                stack_of(flood::PROTOCOL_ID, session)
            })
            .collect();
        let run = net.run_stacks(&mut stacks, 400_000);
        assert!(matches!(run.terminal_after, Ok(Some(_))), "{run:?}");
        assert_eq!(
            statuses(&stacks, flood::PROTOCOL_ID),
            [1, 1, 4, 1].map(Status::Decided).to_vec()
        );
        // One DATA broadcast `[id, op, b"flood"]` and three `[id, op]` acks.
        assert_eq!(run.bits, (16 + 8 * 7) + 3 * (16 + 8 * 2));
    }

    #[test]
    fn agreement_stacks_fold_every_input() {
        let mut net = SyncNetwork::anonymous_with_direction(jittered_ring(4, 30.0), 0xA6).unwrap();
        net.run(1).unwrap();
        let mut stacks: Vec<NodeStack> = [true, true, false, true]
            .into_iter()
            .map(|input| {
                stack_of(
                    agreement::PROTOCOL_ID,
                    Box::new(AgreementSession::new(input, 4, 1)),
                )
            })
            .collect();
        let run = net.run_stacks(&mut stacks, 400_000);
        assert!(matches!(run.terminal_after, Ok(Some(_))), "{run:?}");
        assert_eq!(
            statuses(&stacks, agreement::PROTOCOL_ID),
            vec![Status::Decided(0); 4]
        );
        assert!(stacks
            .iter()
            .all(|s| s.rounds_of(agreement::PROTOCOL_ID) == Some(1)));
    }

    #[test]
    fn agreement_stacks_decide_among_survivors_of_a_crash() {
        // Robot 3 crash-stops at instant 5, before its first vote frame
        // can complete: the survivors fold only their own inputs.
        let mut net = SyncNetwork::anonymous_with_direction(jittered_ring(4, 30.0), 0xA7).unwrap();
        net.run(1).unwrap();
        net.engine_mut()
            .set_fault_plan(FaultPlan::new(7).crash_stop(3, 5));
        let inputs = AlgorithmSpec::Agreement { inputs: 0b0111 };
        let mut stacks = net.algorithm_stacks(inputs, b"").unwrap();
        let run = net.run_stacks(&mut stacks, 400_000);
        assert!(matches!(run.terminal_after, Ok(Some(_))), "{run:?}");
        assert_eq!(run.live, [true, true, true, false]);
        assert_eq!(
            statuses(&stacks[..3], agreement::PROTOCOL_ID),
            vec![Status::Decided(1); 3]
        );
    }

    #[test]
    fn empty_stacks_are_terminal_after_one_instant() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 4).unwrap();
        let mut stacks = vec![NodeStack::new(), NodeStack::new(), NodeStack::new()];
        let run = net.run_stacks(&mut stacks, 10_000);
        assert_eq!(run.terminal_after, Ok(Some(1)));
        assert_eq!(run.bits, 0);
        assert_eq!(run.activations_to_decision, Some(3));
    }

    #[test]
    fn crash_stops_outside_the_cohort_are_ignored() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 4).unwrap();
        net.engine_mut()
            .set_fault_plan(FaultPlan::new(1).crash_stop(9, 0));
        let mut stacks = vec![NodeStack::new(), NodeStack::new(), NodeStack::new()];
        let run = net.run_stacks(&mut stacks, 10);
        assert_eq!(run.terminal_after, Ok(Some(1)));
        assert_eq!(run.live, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "one stack per robot")]
    fn run_stacks_needs_one_stack_per_robot() {
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 5).unwrap();
        let _ = net.run_stacks(&mut [NodeStack::new()], 10);
    }

    #[test]
    fn timed_out_run_counts_unroutable_frames() {
        // Robot 0 chatters under protocol id 0x7f and its peers under
        // 0x01, so each broadcast is unroutable at the robots running the
        // other id. Nobody ever terminates, so the budget runs out.
        let mut net = SyncNetwork::anonymous_with_direction(triangle(), 6).unwrap();
        net.run(1).unwrap();
        let mut stacks = vec![
            stack_of(0x7f, Box::new(Chatter)),
            stack_of(0x01, Box::new(Chatter)),
            stack_of(0x01, Box::new(Chatter)),
        ];
        let run = net.run_stacks(&mut stacks, 3_000);
        assert_eq!(run.terminal_after, Ok(None));
        assert_eq!(run.activations_to_decision, None);
        assert_eq!(run.unroutable, 2 + 1 + 1);
        assert_eq!(run.bits, 3 * (16 + 8 * 2));
    }

    #[test]
    fn larger_swarm_many_messages() {
        let positions: Vec<Point> = (0..7)
            .map(|k| {
                let theta = std::f64::consts::TAU * (k as f64) / 7.0;
                Point::new(15.0 * theta.cos() + (k as f64) * 0.05, 15.0 * theta.sin())
            })
            .collect();
        let mut net = SyncNetwork::anonymous_with_direction(positions, 12).unwrap();
        for i in 0..7 {
            net.send(i, (i + 2) % 7, format!("msg-{i}").as_bytes())
                .unwrap();
        }
        net.run_until_delivered(20_000).unwrap();
        for i in 0..7 {
            let to = (i + 2) % 7;
            assert!(net
                .inbox(to)
                .contains(&(i, format!("msg-{i}").into_bytes())));
        }
    }
}
