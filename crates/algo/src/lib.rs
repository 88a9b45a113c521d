//! Stackable distributed algorithms over the movement-signal channel.
//!
//! *Deaf, Dumb, and Chatting Robots* closes by noting that once robots
//! can chat through motion, the classic distributed-algorithm toolbox
//! opens up. This crate is that toolbox: message-level protocol machines
//! that run unchanged over any reliable FIFO transport, including the
//! bit-by-excursion movement channel of `stigmergy::async_n`.
//!
//! The crate is deliberately **zero-dependency and channel-agnostic**.
//! Sessions speak in local peer indices (`stigmergy::naming` home
//! indices, `0` = self) and payload bytes; `stigmergy::session` owns the
//! one driver (`Network::run_stacks`) that binds a [`NodeStack`] to real
//! robots over any swarm protocol, feeds it delivered frames, and relays
//! crash reports from the engine's fault plan (a perfect failure
//! detector, justified by the freeze-detection argument in `DESIGN.md`
//! §13).
//!
//! Three algorithms ship, each one layer in the stack:
//!
//! | layer | id | decides |
//! |---|---|---|
//! | [`flood`] — broadcast + convergecast ack | `0x01` | coverage count |
//! | [`election`] — leader election over SEC signatures | `0x02` | winner's signature |
//! | [`agreement`] — FloodSet binary agreement | `0x03` | the agreed bit |
//!
//! ```
//! use stigmergy_algo::{FloodSession, NodeStack, Outgoing, Status};
//!
//! // Robot 0 floods "hi" to a cohort of three.
//! let mut stack = NodeStack::new();
//! stack.register(
//!     stigmergy_algo::flood::PROTOCOL_ID,
//!     Box::new(FloodSession::initiator(b"hi".to_vec(), 3)),
//! );
//! let frames = stack.start();
//! assert!(matches!(&frames[0], Outgoing::Broadcast { body } if body == b"\x01\x01hi"));
//! // …the driver transmits, and acks come back as frames:
//! stack.on_frame(1, b"\x01\x02");
//! stack.on_frame(2, b"\x01\x02");
//! assert_eq!(
//!     stack.status_of(stigmergy_algo::flood::PROTOCOL_ID),
//!     Some(Status::Decided(3))
//! );
//! ```

pub mod agreement;
pub mod election;
pub mod flood;
pub mod stack;

pub use agreement::{AbaProtocol, AgreementSession, FloodSet, ProcessOutcome};
pub use election::ElectionSession;
pub use flood::FloodSession;
pub use stack::{NodeStack, Outgoing, PeerId, Session, Status};

#[cfg(test)]
mod tests {
    use super::*;

    /// The three shipped layers compose in one stack without protocol-id
    /// collisions, and demux keeps their events separate.
    #[test]
    fn full_stack_composes() {
        let ids = [
            flood::PROTOCOL_ID,
            election::PROTOCOL_ID,
            agreement::PROTOCOL_ID,
        ];
        assert_eq!(
            {
                let mut sorted = ids.to_vec();
                sorted.dedup();
                sorted.len()
            },
            3,
            "protocol ids must be distinct"
        );

        let mut stack = NodeStack::new();
        stack.register(
            flood::PROTOCOL_ID,
            Box::new(FloodSession::initiator(b"p".to_vec(), 2)),
        );
        stack.register(election::PROTOCOL_ID, Box::new(ElectionSession::new(5, 2)));
        stack.register(
            agreement::PROTOCOL_ID,
            Box::new(AgreementSession::new(true, 2, 1)),
        );
        let frames = stack.start();
        assert_eq!(frames.len(), 3, "one initial frame per layer");
        assert!(!stack.all_terminal());

        // The single peer answers every layer.
        stack.on_frame(1, b"\x01\x02"); // flood ack
        let mut claim = vec![election::PROTOCOL_ID, 0x01];
        claim.extend_from_slice(&9u32.to_le_bytes());
        stack.on_frame(1, &claim);
        stack.on_frame(1, &[agreement::PROTOCOL_ID, 0x01, 1, 0]); // vote(1, false)

        assert_eq!(
            stack.status_of(flood::PROTOCOL_ID),
            Some(Status::Decided(2))
        );
        assert_eq!(
            stack.status_of(election::PROTOCOL_ID),
            Some(Status::Decided(5))
        );
        assert_eq!(
            stack.status_of(agreement::PROTOCOL_ID),
            Some(Status::Decided(0))
        );
        assert!(stack.all_terminal());
        assert_eq!(stack.unroutable(), 0);
        assert_eq!(stack.rounds_of(flood::PROTOCOL_ID), Some(1));
        assert_eq!(stack.rounds_of(agreement::PROTOCOL_ID), Some(1));
        assert_eq!(stack.rounds_of(0x7f), None);
    }

    /// One crash report fans out to every layer and none of them wedge.
    #[test]
    fn crash_fans_out_across_layers() {
        let mut stack = NodeStack::new();
        stack.register(
            flood::PROTOCOL_ID,
            Box::new(FloodSession::initiator(b"p".to_vec(), 3)),
        );
        stack.register(election::PROTOCOL_ID, Box::new(ElectionSession::new(5, 3)));
        stack.register(
            agreement::PROTOCOL_ID,
            Box::new(AgreementSession::new(false, 3, 2)),
        );
        stack.start();
        stack.on_crash(2);
        // Remaining peer 1 answers; every layer must reach terminal.
        stack.on_frame(1, b"\x01\x02");
        let mut claim = vec![election::PROTOCOL_ID, 0x01];
        claim.extend_from_slice(&9u32.to_le_bytes());
        stack.on_frame(1, &claim);
        stack.on_frame(1, &[agreement::PROTOCOL_ID, 0x01, 1, 1]);
        stack.on_frame(1, &[agreement::PROTOCOL_ID, 0x01, 2, 0]);
        assert!(stack.all_terminal(), "{stack:?}");
    }
}
