//! A full coordination task enabled by movement-signal communication.
//!
//! ```text
//! cargo run -p stigmergy-examples --bin rendezvous
//! ```
//!
//! The paper's motivation is not chat but *coordination*: once deaf and
//! dumb robots can exchange messages, classical swarm tasks follow. This
//! example runs a complete mission with zero radio packets:
//!
//! 1. **Elect** a leader by broadcasting election signatures over the
//!    movement channel; the unique minimum wins.
//! 2. **Agree on a point**: the leader broadcasts a rendezvous target
//!    encoded in the only shared coordinate system anonymous robots have —
//!    offsets from the smallest-enclosing-circle centre, in units of its
//!    radius. Every robot decodes it into its *own* frame.
//! 3. **Converge**: robots approach the target, each stopping on its own
//!    ring (ranked by the leader's SEC naming) so nobody collides.

use stigmergy::election_signatures;
use stigmergy::naming::label_by_sec;
use stigmergy::session::SyncNetwork;
use stigmergy_algo::{election, Status};
use stigmergy_geometry::{smallest_enclosing_circle, Point};
use stigmergy_robots::{Engine, MovementProtocol, View};
use stigmergy_scheduler::AlgorithmSpec;

/// Phase-3 protocol: walk toward a (locally computed) target, stop on
/// your assigned ring.
struct Approach {
    target: Point,
    stop_radius: f64,
    step: f64,
}

impl MovementProtocol for Approach {
    fn on_activate(&mut self, view: &View) -> Point {
        let own = view.own_position();
        let dist = own.distance(self.target);
        if dist <= self.stop_radius {
            return own; // parked on my ring
        }
        let advance = (dist - self.stop_radius).min(self.step);
        own.lerp(self.target, advance / dist)
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 5usize;
    let seed = 4242u64;
    let positions: Vec<Point> = (0..n)
        .map(|k| {
            let theta = std::f64::consts::TAU * k as f64 / n as f64;
            Point::new(45.0 * theta.cos() + k as f64 * 0.3, 45.0 * theta.sin())
        })
        .collect();

    // ---- Phase 1: leader election over movement signals --------------
    // Each robot broadcasts the election signature of the configuration
    // as seen from its position (similarity-invariant, so computing it
    // from world positions here gives the same values); the unique
    // minimum wins.
    let signatures: Vec<u32> = election_signatures(&positions)?
        .into_iter()
        .map(|s| s as u32)
        .collect();
    let mut net = SyncNetwork::anonymous_with_direction(positions.clone(), seed)?;
    net.run(1)?; // every robot preprocesses its view
    let mut stacks = net.algorithm_stacks(AlgorithmSpec::Election, b"")?;
    net.run_stacks(&mut stacks, 400_000)
        .terminal_after?
        .ok_or("no decision within 400000 instants")?;
    let winner = stacks[0]
        .status_of(election::PROTOCOL_ID)
        .and_then(|s| s.decision())
        .ok_or("robot 0 did not decide")?;
    assert!(stacks
        .iter()
        .all(|s| s.status_of(election::PROTOCOL_ID) == Some(Status::Decided(winner))));
    let leader = signatures
        .iter()
        .position(|&s| u64::from(s) == winner)
        .expect("the winner is a robot's signature");
    println!("phase 1: elected robot {leader} (signature {winner:08x})");

    // ---- Phase 2: leader broadcasts the rendezvous point --------------
    // Encoded as (dx, dy) from the SEC centre in milli-radii — the shared
    // frame anonymous robots with a compass can all reconstruct.
    let (dx_milli, dy_milli) = (250i16, -150i16);
    let mut payload = Vec::new();
    payload.extend_from_slice(&dx_milli.to_be_bytes());
    payload.extend_from_slice(&dy_milli.to_be_bytes());
    net.broadcast(leader, &payload)?;
    net.run_until_delivered(100_000)?;
    println!(
        "phase 2: leader broadcast target ({}, {}) milli-radii from the SEC centre",
        dx_milli, dy_milli
    );

    // ---- Phase 3: decode locally and converge --------------------------
    // Each robot reconstructs the target from ITS OWN local geometry (its
    // preprocessed homes) plus the received bytes — no world data leaks.
    let chat_engine = net.engine();
    let mut approaches = Vec::with_capacity(n);
    for i in 0..n {
        let g = chat_engine.protocol(i).geometry().expect("preprocessed");
        let homes = g.homes().to_vec();
        let sec = smallest_enclosing_circle(&homes)?;
        let bytes: Vec<u8> = if i == leader {
            payload.clone()
        } else {
            // The leader's latest message; its election claim came first.
            net.inbox(i)
                .into_iter()
                .rev()
                .find(|(s, _)| *s == leader)
                .map(|(_, p)| p)
                .expect("broadcast received")
        };
        let dx = f64::from(i16::from_be_bytes([bytes[0], bytes[1]])) / 1000.0;
        let dy = f64::from(i16::from_be_bytes([bytes[2], bytes[3]])) / 1000.0;
        let target = Point::new(
            sec.center.x + dx * sec.radius,
            sec.center.y + dy * sec.radius,
        );
        // Parking ring: ranked by the leader's SEC-relative naming —
        // computable by every robot from positions alone, so all robots
        // agree on who parks where without any extra messages.
        let my_rank = rank_under_leader(&net, i, leader);
        let spacing = sec.radius * 0.08;
        approaches.push(Approach {
            target,
            stop_radius: spacing * (1.0 + my_rank as f64),
            step: sec.radius * 0.05,
        });
    }

    // Same frames (same seed AND same capabilities), same world
    // positions: the motion phase continues where the chat phase stood.
    let mut motion = Engine::builder()
        .positions(positions.clone())
        .protocols(approaches)
        .capabilities(stigmergy_robots::Capabilities::anonymous_with_direction())
        .frame_seed(seed)
        .build()?;
    let out = motion.run_until(5_000, |e| {
        // Everyone parked: the last two instants saw no movement.
        let steps = e.trace().steps();
        steps.len() > 10 && steps[steps.len() - 1].positions == steps[steps.len() - 2].positions
    })?;
    assert!(out.satisfied);

    let world_sec = smallest_enclosing_circle(&positions)?;
    let world_target = Point::new(
        world_sec.center.x + 0.25 * world_sec.radius,
        world_sec.center.y - 0.15 * world_sec.radius,
    );
    println!("phase 3: converged after {} instants", motion.trace().len());
    for i in 0..n {
        println!(
            "  robot {i}: {:.1} units from the rendezvous point",
            motion.positions()[i].distance(world_target)
        );
    }
    let max_d = (0..n)
        .map(|i| motion.positions()[i].distance(world_target))
        .fold(0.0f64, f64::max);
    assert!(
        max_d < world_sec.radius * 0.6,
        "swarm failed to gather (worst {max_d:.1})"
    );
    println!("\nmission complete: elected, agreed, converged — all by dancing");
    Ok(())
}

/// Robot `i`'s parking rank: its label in the leader's SEC-relative
/// naming. Computed here from world positions for brevity; the naming is
/// similarity-invariant, so it equals what each robot derives from its
/// own local homes.
fn rank_under_leader(net: &SyncNetwork, i: usize, leader: usize) -> usize {
    label_by_sec(net.engine().trace().initial(), leader)
        .expect("valid configuration")
        .label_of(i)
        .expect("in range")
}
