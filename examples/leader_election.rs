//! Distributed leader election where every message is a dance.
//!
//! ```text
//! cargo run -p stigmergy-examples --bin leader_election
//! ```
//!
//! The paper's point is not chatting for its own sake: once deaf and dumb
//! robots can exchange messages, **any** message-passing distributed
//! algorithm runs on top. Here six anonymous robots elect a leader: each
//! broadcasts the election signature of the configuration as seen from
//! its own position, and the unique minimum wins — with every protocol
//! message travelling as granular excursions.

use stigmergy::election_signatures;
use stigmergy::session::SyncNetwork;
use stigmergy_algo::{election, Status};
use stigmergy_geometry::Point;
use stigmergy_scheduler::AlgorithmSpec;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 6;
    let positions: Vec<Point> = (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * k as f64 / n as f64;
            Point::new(40.0 * theta.cos(), 40.0 * theta.sin() + k as f64 * 0.1)
        })
        .collect();
    // Signatures are similarity-invariant: computed here from world
    // positions, they equal what each robot computes from its own view.
    // They travel truncated to 32 bits.
    let signatures: Vec<u32> = election_signatures(&positions)?
        .into_iter()
        .map(|s| s as u32)
        .collect();
    println!("election signatures: {signatures:08x?}\n");

    let mut net = SyncNetwork::anonymous_with_direction(positions, 2026)?;
    net.run(1)?; // every robot preprocesses its view
    let mut stacks = net.algorithm_stacks(AlgorithmSpec::Election, b"")?;
    let run = net.run_stacks(&mut stacks, 400_000);
    let instants = run
        .terminal_after?
        .ok_or("no decision within 400000 instants")?;

    println!(
        "decided after {instants} movement instants ({} frame bits)",
        run.bits
    );
    let decisions: Vec<Status> = stacks
        .iter()
        .map(|s| s.status_of(election::PROTOCOL_ID).expect("registered"))
        .collect();
    for (i, decision) in decisions.iter().enumerate() {
        println!("  robot {i}: {decision}");
    }
    let winner = decisions[0].decision().ok_or("robot 0 did not decide")?;
    assert!(
        decisions.iter().all(|&d| d == Status::Decided(winner)),
        "agreement violated"
    );
    let leader = signatures
        .iter()
        .position(|&s| u64::from(s) == winner)
        .expect("the winner is a robot's signature");
    println!("\nagreement: all {n} robots elected robot {leader} — without a single radio packet");
    Ok(())
}
