//! The workloads: which sessions each one runs, and how the workload seed
//! becomes session seeds.
//!
//! A batch workload runs a fixed number of *blocks*; a block is one
//! `run_batch` of one [`BatchSpec`] over a block of session seeds. Block
//! `b` of workload seed `s` covers the session seeds
//! `(s * BLOCK_STRIDE + b) * block_seeds ..` (`block_seeds` of them), so
//! seed 0's first conformance block is session seeds `0..16` — the
//! stigbench `sweep-864` row — and different workload seeds never share a
//! session seed.

use stigmergy_fleet::{fnv1a64_update, BatchReport, BatchSpec, ProtocolKind, RunReport};

/// Blocks reserved per workload seed; a run uses far fewer.
pub const BLOCK_STRIDE: u64 = 1 << 10;

/// Seconds of `--seconds` per conformance block. A block takes 5–12 s at 2
/// workers on the reference machine (2 cores), 7.5–9 s typically, so a
/// conformance run lasts about 1.5–2× `--seconds` there: 6 blocks, 41–61
/// s, at `--seconds 30`. One block per 8 s (4 blocks) matched the run length,
/// but then the ten-seed spread of `sessions_per_s` reached 0.25, its
/// bound, because block times vary that much with the seeds.
pub const CONFORMANCE_BLOCK_SECONDS: u64 = 5;

/// Seconds of `--seconds` per swarm block: about one block's wall time on
/// the reference machine (3–4 s), so a swarm run lasts about `--seconds`
/// there.
pub const SWARM_BLOCK_SECONDS: u64 = 3;

/// Step cap of every gateway job: the smallest round cap at which every
/// job delivers some sessions (at 200 none does, so delivered bits would
/// read 0), while the engine still takes a small share of a job's
/// latency.
pub const GATEWAY_BUDGET_CAP: u64 = 300;

/// Pool workers per job on the gateway workload.
pub const GATEWAY_JOB_WORKERS: u64 = 1;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's conformance matrix, cohort 3: engine, scheduler,
    /// protocol, decode and trace encoding do nearly all the work.
    Conformance,
    /// Cohort-12 swarms and the distributed algorithms: per-step cost
    /// grows with the square of the cohort, set-up with its geometry.
    Swarm,
    /// Small jobs through an in-process gateway: the serving path sets
    /// the latency.
    Gateway,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Conformance, Workload::Swarm, Workload::Gateway];

    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the valid names.
    pub fn parse(name: &str) -> Result<Self, String> {
        Self::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = Self::ALL.iter().map(|w| w.name()).collect();
                format!("unknown workload {name:?}; expected one of {names:?}")
            })
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Conformance => "conformance",
            Workload::Swarm => "swarm",
            Workload::Gateway => "gateway",
        }
    }

    /// Session seeds per block. A gateway job runs one session seed, and
    /// which of its sessions deliver within the step cap depends on that
    /// seed, so a gateway run cycles through many seeds.
    #[must_use]
    pub fn block_seeds(self) -> u64 {
        match self {
            Workload::Conformance => 16,
            Workload::Swarm => 10,
            Workload::Gateway => 256,
        }
    }

    /// Blocks a run of `seconds` covers: one per block's nominal seconds
    /// ([`CONFORMANCE_BLOCK_SECONDS`], [`SWARM_BLOCK_SECONDS`]) for the
    /// batch workloads, so a run's inputs depend only on the seed and
    /// `--seconds`, never on the speed of the build under test; a faster
    /// build runs the same blocks in less time. A gateway run is a timed
    /// loop over one block of job seeds.
    #[must_use]
    pub fn blocks(self, seconds: u64) -> u64 {
        let per_block = match self {
            Workload::Conformance => CONFORMANCE_BLOCK_SECONDS,
            Workload::Swarm => SWARM_BLOCK_SECONDS,
            Workload::Gateway => return 1,
        };
        seconds.div_ceil(per_block).clamp(1, BLOCK_STRIDE)
    }

    /// The session seeds of block `block` under workload seed `seed`.
    #[must_use]
    pub fn session_seeds(self, seed: u64, block: u64) -> Vec<u64> {
        let per = self.block_seeds();
        let first = (seed.wrapping_mul(BLOCK_STRIDE).wrapping_add(block)).wrapping_mul(per);
        (0..per).map(|k| first.wrapping_add(k)).collect()
    }

    /// The batch of one block (for the gateway: every job of the block
    /// concatenated, as the server would run them one after another).
    #[must_use]
    pub fn block_spec(self, seeds: Vec<u64>) -> BatchSpec {
        match self {
            Workload::Conformance => BatchSpec::conformance_matrix(seeds),
            Workload::Swarm => swarm_spec(seeds),
            Workload::Gateway => BatchSpec {
                budget_cap: Some(GATEWAY_BUDGET_CAP),
                ..BatchSpec::conformance_matrix(seeds)
            },
        }
    }
}

/// The swarm workload's batch: the four swarm protocols and the hardened
/// session, plus the three distributed algorithms, at cohort 12 under the
/// algorithm matrix's schedules and fault plans, on the conformance
/// matrix's FEC channel.
#[must_use]
pub fn swarm_spec(seeds: Vec<u64>) -> BatchSpec {
    BatchSpec {
        protocols: vec![
            ProtocolKind::SyncSwarmRouted,
            ProtocolKind::SyncSwarmLex,
            ProtocolKind::SyncSwarmSec,
            ProtocolKind::AsyncSwarm,
            ProtocolKind::Hardened,
        ],
        cohort: 12,
        coding: BatchSpec::conformance_matrix(Vec::new()).coding,
        ..BatchSpec::algorithm_matrix(seeds)
    }
}

/// One gateway job: the conformance matrix over one session seed, capped
/// at [`GATEWAY_BUDGET_CAP`] steps (54 sessions).
#[must_use]
pub fn gateway_job_spec(seed: u64) -> BatchSpec {
    Workload::Gateway.block_spec(vec![seed])
}

/// Work counters of a set of sessions, with the stigbench fingerprint
/// fold (trace hash and length of every session, in report order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Sessions run.
    pub sessions: u64,
    /// Sessions that delivered their payload (or decided, for algorithms).
    pub delivered: u64,
    /// Instants executed.
    pub steps: u64,
    /// Payload bits delivered end to end.
    pub delivered_bits: u64,
    /// Inbox entries that differ from the payload sent.
    pub corrupt: u64,
    /// Sessions that failed: a model error, or any corrupt delivery.
    pub failed: u64,
    /// Sessions that reported a model error (a collision, degenerate
    /// naming or a contained panic). Any makes a run incorrect.
    pub errors: u64,
    /// The fingerprint fold.
    pub fingerprint: u64,
}

impl Counters {
    /// No sessions yet.
    #[must_use]
    pub fn empty() -> Self {
        Counters {
            fingerprint: 0xCBF2_9CE4_8422_2325,
            ..Counters::default()
        }
    }

    /// Folds `runs`, in order.
    #[must_use]
    pub fn of(runs: &[RunReport]) -> Self {
        let mut c = Self::empty();
        for run in runs {
            c.sessions += 1;
            c.delivered += u64::from(run.delivered);
            c.steps += run.steps;
            c.delivered_bits += run.delivered_bits;
            c.corrupt += run.corrupt;
            c.failed += u64::from(is_failure(run));
            c.errors += u64::from(run.error.is_some());
            c.fingerprint = fnv1a64_update(c.fingerprint, &run.trace_hash.to_le_bytes());
            c.fingerprint = fnv1a64_update(c.fingerprint, &(run.trace_len as u64).to_le_bytes());
        }
        c
    }

    /// Adds the sessions `other` counted, folding its fingerprint in.
    pub fn absorb(&mut self, other: &Counters) {
        self.sessions += other.sessions;
        self.delivered += other.delivered;
        self.steps += other.steps;
        self.delivered_bits += other.delivered_bits;
        self.corrupt += other.corrupt;
        self.failed += other.failed;
        self.errors += other.errors;
        self.fingerprint = fnv1a64_update(self.fingerprint, &other.fingerprint.to_le_bytes());
    }

    /// The counters of a finished batch.
    #[must_use]
    pub fn of_batch(report: &BatchReport) -> Self {
        Self::of(&report.runs)
    }

    /// Header form.
    #[must_use]
    pub fn to_json(self) -> String {
        format!(
            "{{\"sessions\": {}, \"delivered\": {}, \"steps\": {}, \"delivered_bits\": {}, \"corrupt\": {}, \"failed\": {}, \"errors\": {}, \"fingerprint\": {}}}",
            self.sessions,
            self.delivered,
            self.steps,
            self.delivered_bits,
            self.corrupt,
            self.failed,
            self.errors,
            self.fingerprint
        )
    }
}

/// A failed session: a model error (collision, degenerate naming, a
/// contained panic) or a corrupt delivery. An undelivered session is not
/// a failure.
#[must_use]
pub fn is_failure(run: &RunReport) -> bool {
    run.error.is_some() || run.corrupt > 0
}

/// One line per failed session, for the header.
#[must_use]
pub fn describe_failures(runs: &[RunReport]) -> Vec<String> {
    runs.iter()
        .filter(|r| is_failure(r))
        .map(|r| {
            format!(
                "{}{} {} {} seed {}: corrupt {} error {:?}",
                r.protocol,
                r.algorithm.map(|a| format!("/{a}")).unwrap_or_default(),
                r.schedule,
                r.plan,
                r.seed,
                r.corrupt,
                r.error
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use stigmergy_fleet::run_batch;

    /// A capped slice of a block, small enough for a debug-build test.
    fn slice(workload: Workload, seed: u64) -> BatchSpec {
        BatchSpec {
            budget_cap: Some(300),
            ..workload.block_spec(workload.session_seeds(seed, 0)[..1].to_vec())
        }
    }

    #[test]
    fn seed_zero_is_the_sweep_864_block() {
        assert_eq!(
            Workload::Conformance.session_seeds(0, 0),
            (0..16).collect::<Vec<u64>>()
        );
        let spec = Workload::Conformance.block_spec(Workload::Conformance.session_seeds(0, 0));
        assert_eq!(spec, BatchSpec::conformance_matrix((0..16).collect()));
        assert_eq!(spec.sessions().len(), 864);
        assert_eq!(swarm_spec(vec![0; 10]).sessions().len(), 320);
        assert_eq!(gateway_job_spec(0).sessions().len(), 54);
        assert_eq!(Workload::Gateway.session_seeds(1, 0)[0], 1024 * 256);
    }

    #[test]
    fn different_seeds_give_different_session_seeds() {
        for w in Workload::ALL {
            let mut seen = std::collections::BTreeSet::new();
            for seed in 0..8 {
                for block in 0..4 {
                    for s in w.session_seeds(seed, block) {
                        assert!(seen.insert(s), "{} reuses session seed {s}", w.name());
                    }
                }
            }
            assert_ne!(w.session_seeds(1, 0), w.session_seeds(2, 0));
        }
    }

    #[test]
    fn same_seed_gives_identical_counters_and_fingerprint() {
        for w in [Workload::Conformance, Workload::Swarm] {
            let a = Counters::of_batch(&run_batch(&slice(w, 3), 2));
            let b = Counters::of_batch(&run_batch(&slice(w, 3), 2));
            assert_eq!(a, b, "{} is not deterministic", w.name());
            let other = Counters::of_batch(&run_batch(&slice(w, 4), 2));
            assert_ne!(a.fingerprint, other.fingerprint);
        }
    }

    #[test]
    fn worker_count_does_not_change_counters() {
        for w in Workload::ALL {
            let spec = slice(w, 1);
            let one = Counters::of_batch(&run_batch(&spec, 1));
            let two = Counters::of_batch(&run_batch(&spec, 2));
            assert_eq!(one, two, "{} differs between 1 and 2 workers", w.name());
            assert_eq!(one.sessions, spec.sessions().len() as u64);
        }
    }

    #[test]
    fn block_counts_follow_the_run_length() {
        assert_eq!(Workload::Conformance.blocks(30), 6);
        assert_eq!(Workload::Conformance.blocks(1), 1);
        assert_eq!(Workload::Swarm.blocks(30), 10);
        assert_eq!(Workload::Gateway.blocks(30), 1);
    }
}
