//! The stackable protocol layer: sessions, frames, and the demux stack.
//!
//! A [`Session`] is one distributed algorithm running at one robot. It
//! never touches the movement channel directly — it reads and emits
//! *payload bytes* addressed by *local peer index* (the observer-relative
//! home indices of `stigmergy::naming`, where `0` is always the robot
//! itself). The [`NodeStack`] composes any number of sessions at one
//! robot: outgoing payloads gain a one-byte protocol-id header, incoming
//! frames are demultiplexed by stripping that byte and routing to the
//! session registered under it.
//!
//! The driver contract, implemented once for every swarm protocol by
//! `stigmergy::session::Network::run_stacks`:
//!
//! 1. call [`NodeStack::start`] once, transmit the returned frames;
//! 2. for every frame delivered by the channel, call
//!    [`NodeStack::on_frame`] and transmit what it returns;
//! 3. when the perfect failure detector reports a crash, call
//!    [`NodeStack::on_crash`] **on every live robot, in a fixed robot
//!    order**, and transmit what it returns;
//! 4. stop once every live stack reports [`NodeStack::all_terminal`].
//!
//! Sessions are deterministic state machines: identical call sequences
//! yield identical outputs, so a deterministic channel plus this contract
//! gives bit-identical runs.

use std::fmt;

/// A local peer index: the observer-relative home index of a robot in
/// `stigmergy::naming` terms. `0` is the robot itself; peers are
/// `1..cohort`.
pub type PeerId = usize;

/// An outgoing message emitted by a session (payload bytes, no header)
/// or by a stack (wire frame, header included).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outgoing {
    /// Deliver to exactly one peer.
    Unicast {
        /// Local peer index of the recipient (never `0`).
        peer: PeerId,
        /// Payload (session level) or header-framed bytes (stack level).
        body: Vec<u8>,
    },
    /// Deliver to every peer via the self-slice convention.
    Broadcast {
        /// Payload (session level) or header-framed bytes (stack level).
        body: Vec<u8>,
    },
}

impl Outgoing {
    /// The message body, regardless of addressing.
    #[must_use]
    pub fn body(&self) -> &[u8] {
        match self {
            Outgoing::Unicast { body, .. } | Outgoing::Broadcast { body } => body,
        }
    }

    fn map_body(self, f: impl FnOnce(Vec<u8>) -> Vec<u8>) -> Outgoing {
        match self {
            Outgoing::Unicast { peer, body } => Outgoing::Unicast {
                peer,
                body: f(body),
            },
            Outgoing::Broadcast { body } => Outgoing::Broadcast { body: f(body) },
        }
    }
}

/// Where a session stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Still exchanging messages.
    Active,
    /// Terminated with a result value (algorithm-specific encoding).
    Decided(u64),
    /// Terminated by refusing the configuration (e.g. a symmetric ring
    /// that provably admits no leader).
    Rejected(&'static str),
}

impl Status {
    /// True once the session will emit no further messages.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        !matches!(self, Status::Active)
    }

    /// The decision value, if decided.
    #[must_use]
    pub fn decision(&self) -> Option<u64> {
        match self {
            Status::Decided(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Status::Active => write!(f, "active"),
            Status::Decided(v) => write!(f, "decided({v})"),
            Status::Rejected(why) => write!(f, "rejected({why})"),
        }
    }
}

/// One distributed algorithm at one robot.
///
/// Implementations are pure state machines over `(event, peer, bytes)`
/// inputs; they must not read clocks, randomness, or global state. After
/// [`Session::status`] turns terminal the stack stops routing events to
/// the session, so implementations need not defend against late calls.
pub trait Session {
    /// Called once before any message flows; queue initial sends here.
    fn on_start(&mut self, out: &mut Vec<Outgoing>);

    /// A payload from peer `from` (header already stripped).
    fn on_message(&mut self, from: PeerId, body: &[u8], out: &mut Vec<Outgoing>);

    /// The perfect failure detector reports `peer` crashed. A session
    /// must re-evaluate any wait that `peer` could be blocking.
    fn on_crash(&mut self, peer: PeerId, out: &mut Vec<Outgoing>);

    /// Current status; the stack polls it after every event.
    fn status(&self) -> Status;

    /// Protocol rounds executed so far. Round-free algorithms report 1;
    /// round-structured ones (FloodSet agreement) override this.
    fn rounds(&self) -> u64 {
        1
    }
}

/// A composed stack of sessions at one robot, demuxed by protocol id.
///
/// The stack is the only place headers exist: `register` assigns each
/// session a one-byte protocol id, outgoing payloads are prefixed with
/// it, and incoming frames are routed by it. Frames carrying an id with
/// no registered session are counted in [`NodeStack::unroutable`] and
/// dropped — a stack must tolerate peers running a superset of its
/// protocols.
#[derive(Default)]
pub struct NodeStack {
    layers: Vec<(u8, Box<dyn Session>)>,
    unroutable: u64,
}

impl NodeStack {
    /// An empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `session` under protocol id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is already registered — two sessions demuxing the
    /// same header byte is a composition bug, not a runtime condition.
    pub fn register(&mut self, id: u8, session: Box<dyn Session>) {
        assert!(
            !self.layers.iter().any(|&(l, _)| l == id),
            "protocol id {id:#04x} registered twice"
        );
        self.layers.push((id, session));
    }

    /// Starts every session (registration order) and returns their
    /// initial frames, headers attached.
    pub fn start(&mut self) -> Vec<Outgoing> {
        let mut frames = Vec::new();
        for (id, session) in &mut self.layers {
            let mut out = Vec::new();
            session.on_start(&mut out);
            frames.extend(out.into_iter().map(|m| frame(*id, m)));
        }
        frames
    }

    /// Routes one delivered frame from peer `from`; returns reply frames.
    ///
    /// Empty frames and frames for unregistered ids bump the
    /// [`NodeStack::unroutable`] counter. Frames for a terminal session
    /// are silently dropped (late channel deliveries are expected).
    pub fn on_frame(&mut self, from: PeerId, payload: &[u8]) -> Vec<Outgoing> {
        let Some((&id, body)) = payload.split_first() else {
            self.unroutable += 1;
            return Vec::new();
        };
        let Some((_, session)) = self.layers.iter_mut().find(|&&mut (l, _)| l == id) else {
            self.unroutable += 1;
            return Vec::new();
        };
        if session.status().is_terminal() {
            return Vec::new();
        }
        let mut out = Vec::new();
        session.on_message(from, body, &mut out);
        out.into_iter().map(|m| frame(id, m)).collect()
    }

    /// Notifies every non-terminal session that `peer` crashed; returns
    /// reply frames.
    pub fn on_crash(&mut self, peer: PeerId) -> Vec<Outgoing> {
        let mut frames = Vec::new();
        for (id, session) in &mut self.layers {
            if session.status().is_terminal() {
                continue;
            }
            let mut out = Vec::new();
            session.on_crash(peer, &mut out);
            frames.extend(out.into_iter().map(|m| frame(*id, m)));
        }
        frames
    }

    /// The status of the session registered under `id`, if any.
    #[must_use]
    pub fn status_of(&self, id: u8) -> Option<Status> {
        self.layers
            .iter()
            .find(|&&(l, _)| l == id)
            .map(|(_, s)| s.status())
    }

    /// The rounds counter of the session registered under `id`, if any.
    #[must_use]
    pub fn rounds_of(&self, id: u8) -> Option<u64> {
        self.layers
            .iter()
            .find(|&&(l, _)| l == id)
            .map(|(_, s)| s.rounds())
    }

    /// True once every registered session is terminal (vacuously true
    /// for an empty stack).
    #[must_use]
    pub fn all_terminal(&self) -> bool {
        self.layers.iter().all(|(_, s)| s.status().is_terminal())
    }

    /// Frames dropped because no session claimed their protocol id.
    #[must_use]
    pub fn unroutable(&self) -> u64 {
        self.unroutable
    }
}

impl fmt::Debug for NodeStack {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ids: Vec<u8> = self.layers.iter().map(|&(id, _)| id).collect();
        f.debug_struct("NodeStack")
            .field("layers", &ids)
            .field("unroutable", &self.unroutable)
            .finish()
    }
}

fn frame(id: u8, msg: Outgoing) -> Outgoing {
    msg.map_body(|body| {
        let mut framed = Vec::with_capacity(body.len() + 1);
        framed.push(id);
        framed.extend_from_slice(&body);
        framed
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every payload back to its sender once, then decides.
    struct EchoOnce {
        done: bool,
    }

    impl Session for EchoOnce {
        fn on_start(&mut self, out: &mut Vec<Outgoing>) {
            out.push(Outgoing::Broadcast {
                body: b"hello".to_vec(),
            });
        }

        fn on_message(&mut self, from: PeerId, body: &[u8], out: &mut Vec<Outgoing>) {
            out.push(Outgoing::Unicast {
                peer: from,
                body: body.to_vec(),
            });
            self.done = true;
        }

        fn on_crash(&mut self, _peer: PeerId, _out: &mut Vec<Outgoing>) {}

        fn status(&self) -> Status {
            if self.done {
                Status::Decided(1)
            } else {
                Status::Active
            }
        }
    }

    struct Inert;

    impl Session for Inert {
        fn on_start(&mut self, _out: &mut Vec<Outgoing>) {}
        fn on_message(&mut self, _from: PeerId, _body: &[u8], _out: &mut Vec<Outgoing>) {}
        fn on_crash(&mut self, _peer: PeerId, _out: &mut Vec<Outgoing>) {}
        fn status(&self) -> Status {
            Status::Active
        }
    }

    #[test]
    fn headers_are_added_and_stripped() {
        let mut stack = NodeStack::new();
        stack.register(0x07, Box::new(EchoOnce { done: false }));
        let frames = stack.start();
        assert_eq!(
            frames,
            vec![Outgoing::Broadcast {
                body: b"\x07hello".to_vec()
            }]
        );
        // Incoming frame: header stripped before the session sees it,
        // re-added on the reply.
        let replies = stack.on_frame(3, b"\x07yo");
        assert_eq!(
            replies,
            vec![Outgoing::Unicast {
                peer: 3,
                body: b"\x07yo".to_vec()
            }]
        );
        assert_eq!(stack.status_of(0x07), Some(Status::Decided(1)));
        assert!(stack.all_terminal());
    }

    #[test]
    fn demux_routes_by_protocol_id() {
        let mut stack = NodeStack::new();
        stack.register(0x01, Box::new(EchoOnce { done: false }));
        stack.register(0x02, Box::new(Inert));
        stack.start();
        // A frame for the inert layer produces nothing and leaves the
        // echo layer untouched.
        assert!(stack.on_frame(1, b"\x02data").is_empty());
        assert_eq!(stack.status_of(0x01), Some(Status::Active));
        assert!(!stack.all_terminal());
        // Unknown id and empty frame are counted, not routed.
        assert!(stack.on_frame(1, b"\x7fjunk").is_empty());
        assert!(stack.on_frame(1, b"").is_empty());
        assert_eq!(stack.unroutable(), 2);
    }

    #[test]
    fn terminal_sessions_ignore_late_frames() {
        let mut stack = NodeStack::new();
        stack.register(0x01, Box::new(EchoOnce { done: false }));
        stack.start();
        assert_eq!(stack.on_frame(2, b"\x01a").len(), 1);
        // Second delivery: session already decided, no reply.
        assert!(stack.on_frame(2, b"\x01b").is_empty());
        assert_eq!(stack.unroutable(), 0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_protocol_id_panics() {
        let mut stack = NodeStack::new();
        stack.register(0x01, Box::new(Inert));
        stack.register(0x01, Box::new(Inert));
    }

    #[test]
    fn status_helpers() {
        assert!(!Status::Active.is_terminal());
        assert!(Status::Decided(7).is_terminal());
        assert!(Status::Rejected("x").is_terminal());
        assert_eq!(Status::Decided(7).decision(), Some(7));
        assert_eq!(Status::Active.decision(), None);
        assert_eq!(Status::Rejected("x").decision(), None);
        assert_eq!(format!("{}", Status::Decided(7)), "decided(7)");
        assert_eq!(format!("{}", Status::Rejected("sym")), "rejected(sym)");
        assert_eq!(format!("{}", Status::Active), "active");
    }

    #[test]
    fn debug_formats() {
        let mut stack = NodeStack::new();
        stack.register(0x01, Box::new(Inert));
        let dbg = format!("{stack:?}");
        assert!(dbg.contains("NodeStack"), "{dbg}");
        assert!(dbg.contains("unroutable"), "{dbg}");
    }
}
