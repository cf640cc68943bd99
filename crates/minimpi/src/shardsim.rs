//! The sharded LULESH proxy: one shard per rank's subdomain.
//!
//! The analytic proxy in [`lulesh`](crate::lulesh) advances every rank
//! on a single thread. This variant maps each rank's subdomain onto a
//! fabric-backed shard ([`popper_sim::FabricSim`]) and drives the same
//! compute / halo-exchange loop as discrete events: a rank computes
//! over its cells, ships one halo face to each neighbor *through the
//! shard-native fabric* — paying NIC serialization, core contention
//! and ingress incast, not just a fixed delay — and may not start step
//! `s + 1` until its own step-`s` compute is done *and* every
//! neighbor's step-`s` halo has arrived. That nearest-neighbor
//! synchronization lets distant subdomains drift apart by a step while
//! adjacent ones stay in lock-step (LULESH proper also agrees on a
//! global timestep; the sharded proxy keeps the halo dependency, which
//! is the part that partitions).
//!
//! One step loop (`begin_step` / `complete_step` / `try_advance`) has
//! two chaos entry points:
//!
//! * [`run_sharded_chaos`] rides crashes out: a crashed rank's NIC is
//!   down but its subdomain is not dead, so its halos retry with
//!   backoff until the restart crosses a barrier.
//! * [`run_sharded_recovery`] treats a crash as a rank failure and
//!   resolves it with a [`RecoveryPolicy`]. Ranks sit round-robin on a
//!   cluster's nodes (rank `r` on node `r % nodes`), so a node crash
//!   fails every rank on that node. The run is a sequence of
//!   communicator epochs, one fabric world each: an epoch ends at the
//!   first halo send that finds its peer (or itself) crashed, and the
//!   policy builds the next epoch. **Shrink** (ULFM-style) prices an
//!   agreement vote, re-boxes the survivors ([`boxiest_grid`],
//!   conserving total cells) and ships the lost subdomains through the
//!   fabric before the survivors resume: capacity is lost, no step is
//!   redone. **Checkpoint-restart** writes each rank's surface state to
//!   disk every `interval` steps; after a failure everyone waits for the
//!   node's scheduled restart (or respawns its ranks on the survivors
//!   when it never restarts), reloads the last checkpoint and replays
//!   the steps since: the problem is conserved, time is paid.
//!
//! Partitions and packet loss are not failures on either path: a send
//! that finds its peer partitioned away retries with backoff, and one
//! that never gets through leaves its run incomplete (corrupt), never
//! hung.
//!
//! The fabric's propagation latency is the conservative lookahead: a
//! halo can never land earlier than `now + latency`, so all ranks can
//! fire events within one lookahead window in parallel while the
//! shared core stage is replayed deterministically at each epoch
//! barrier. Determinism is inherited from the engine —
//! `run_sharded(n)` produces the same per-rank finish times and the
//! same trace bytes for every `n`, and so does every communicator
//! epoch of a recovery run.

use crate::comm::MpiWorld;
use crate::lulesh::LuleshConfig;
use popper_format::Value;
use popper_sim::{
    backoff, FabricSim, FaultPlane, Nanos, NetCtx, PlaneCmd, PlatformSpec, RetryStats, MAX_ATTEMPTS,
};
use std::sync::Arc;

/// Checkpoint device bandwidth (GB/s) before the fault plane's
/// disk-slowdown factor is applied.
const CHECKPOINT_DISK_GBPS: f64 = 2.0;

/// How a recovery run resolves a rank failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RecoveryPolicy {
    /// ULFM-style communicator shrink: drop the dead ranks, rebuild
    /// the decomposition over the survivors, redistribute the lost
    /// subdomains, keep going at reduced capacity.
    #[default]
    Shrink,
    /// Periodic checkpoints + rollback: respawn the dead ranks (after
    /// the schedule's restart, or on a surviving node), reload the
    /// last consistent checkpoint, replay the lost steps.
    CheckpointRestart {
        /// Steps between checkpoints (>= 1).
        interval: usize,
    },
}

impl RecoveryPolicy {
    /// Short label for result tables and `recovery.json`.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryPolicy::Shrink => "shrink",
            RecoveryPolicy::CheckpointRestart { .. } => "checkpoint-restart",
        }
    }

    /// Decode from an experiment's `vars.pml`: `faults.policy` is
    /// `shrink` (the default) or `checkpoint-restart`, with
    /// `faults.checkpoint_interval` sizing the latter (default 5).
    pub fn from_vars(vars: &Value) -> Result<RecoveryPolicy, String> {
        let Some(spec) = vars.get("faults") else { return Ok(RecoveryPolicy::default()) };
        let interval = spec.get_num("checkpoint_interval").unwrap_or(5.0).max(1.0) as usize;
        match spec.get_str("policy") {
            None | Some("shrink") => Ok(RecoveryPolicy::Shrink),
            Some("checkpoint-restart") => Ok(RecoveryPolicy::CheckpointRestart { interval }),
            Some(other) => Err(format!(
                "unknown recovery policy '{other}' (expected 'shrink' or 'checkpoint-restart')"
            )),
        }
    }
}

/// The most cube-like factorization `a·b·c = n`: the decomposition a
/// shrunken communicator rebuilds over, minimizing surface area (halo
/// traffic) deterministically.
pub fn boxiest_grid(n: usize) -> (usize, usize, usize) {
    let mut best = (n, 1, 1);
    let mut best_surface = usize::MAX;
    for a in 1..=n {
        if !n.is_multiple_of(a) {
            continue;
        }
        let m = n / a;
        for b in 1..=m {
            if !m.is_multiple_of(b) {
                continue;
            }
            let c = m / b;
            let surface = a * b + b * c + a * c;
            if surface < best_surface {
                best_surface = surface;
                best = (a, b, c);
            }
        }
    }
    best
}

/// Per-rank (per-shard) state of the sharded proxy.
struct RankState {
    /// Face neighbors of this rank in the decomposition.
    neighbors: Vec<usize>,
    /// Own compute finished, per step.
    compute_done: Vec<bool>,
    /// Halos received, per step.
    halos: Vec<usize>,
    /// Next step already started, per step (guards double advance).
    advanced: Vec<bool>,
    /// Virtual time this rank finished its last step.
    finish: Nanos,
    /// Halo send failures this rank observed and retried halos it
    /// received.
    retry: RetryStats,
    /// Recovery runs only: the first rank failure this rank observed
    /// (when, and which rank was found crashed). A rank that saw one
    /// stops stepping.
    failure: Option<(Nanos, usize)>,
    /// Recovery runs only: lost subdomains still to arrive before this
    /// rank may resume.
    awaiting: usize,
    /// Recovery runs only: when this rank resumed stepping.
    resumed: Nanos,
}

impl RankState {
    fn new(neighbors: Vec<usize>, iterations: usize) -> Self {
        RankState {
            neighbors,
            compute_done: vec![false; iterations],
            halos: vec![0; iterations],
            advanced: vec![false; iterations],
            finish: Nanos::ZERO,
            retry: RetryStats::default(),
            failure: None,
            awaiting: 0,
            resumed: Nanos::ZERO,
        }
    }

    /// Steps this rank has completed, halo exchange included.
    fn completed(&self, first: usize, iterations: usize) -> usize {
        if self.compute_done[iterations - 1] {
            return iterations;
        }
        first + self.advanced[first..].iter().filter(|a| **a).count()
    }
}

/// Result of one sharded proxy run.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshRun {
    /// End-to-end virtual runtime (latest rank finish).
    pub elapsed: Nanos,
    /// Per-rank finish times, rank order.
    pub per_rank_finish: Vec<Nanos>,
    /// Halo bytes every rank put on the wire (from the fabric's
    /// traffic counters).
    pub wire_bytes: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// Result of one sharded chaos run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshChaosRun {
    /// End-to-end virtual runtime (latest rank finish).
    pub elapsed: Nanos,
    /// Per-rank finish times, rank order.
    pub per_rank_finish: Vec<Nanos>,
    /// Halo bytes on the wire (retransmit draws included).
    pub wire_bytes: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Halo sends the workload issues in a fault-free run.
    pub halos: u64,
    /// Send timeouts observed across the ranks.
    pub detections: u64,
    /// Halos delivered after one or more retries.
    pub recovered: u64,
    /// Halo sends abandoned after `MAX_ATTEMPTS` (expected 0 for every
    /// schedule that ends healed).
    pub lost: u64,
    /// First failure to last recovered delivery, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of halo sends that saw any failure.
    pub degraded_fraction: f64,
}

/// One communicator epoch of a recovery run: the ranks alive between
/// two recoveries.
#[derive(Debug, Clone, PartialEq)]
pub struct CommEpoch {
    /// Ranks alive during the epoch.
    pub ranks: usize,
    /// Steps completed during the epoch.
    pub steps: usize,
    /// Send timeouts observed during the epoch (partition stalls and
    /// the rank failure that ended it).
    pub detections: u64,
    /// Checkpoints every rank wrote during the epoch.
    pub checkpoints: usize,
    /// Steps rolled back and replayed at the start of the epoch.
    pub replayed: usize,
    /// Ranks lost entering the epoch (shrink; 0 for epoch 0 and under
    /// checkpoint-restart, which respawns them).
    pub ranks_lost: usize,
    /// Detection → resume cost of the recovery that opened the epoch,
    /// in virtual milliseconds (0 for epoch 0).
    pub recovery_ms: f64,
    /// Cumulative capacity lost by the epoch's start: lost ranks /
    /// initial ranks.
    pub degraded_fraction: f64,
    /// When the epoch closed: the rank failure that ended it, or the
    /// last rank's finish.
    pub end: Nanos,
}

/// Result of one recovery run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedLuleshRecoveryRun {
    /// The policy that resolved rank failures.
    pub policy: RecoveryPolicy,
    /// Ranks at the start.
    pub initial_ranks: usize,
    /// Ranks at the end (shrink loses some).
    pub final_ranks: usize,
    /// Steps completed by every rank (the configured count on success).
    pub iterations: usize,
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// One record per communicator epoch.
    pub epochs: Vec<CommEpoch>,
    /// True when the run could not complete: a halo never got through,
    /// or no node was left to run on.
    pub corrupt: bool,
    /// Total events dispatched over all epochs.
    pub events: u64,
}

impl ShardedLuleshRecoveryRun {
    /// Total send timeouts observed.
    pub fn detections(&self) -> u64 {
        self.epochs.iter().map(|e| e.detections).sum()
    }

    /// Total steps replayed across all rollbacks.
    pub fn replayed_steps(&self) -> usize {
        self.epochs.iter().map(|e| e.replayed).sum()
    }

    /// Total checkpoints written.
    pub fn checkpoints(&self) -> usize {
        self.epochs.iter().map(|e| e.checkpoints).sum()
    }

    /// Final capacity loss (the last epoch's fraction).
    pub fn degraded_fraction(&self) -> f64 {
        self.epochs.last().map_or(0.0, |e| e.degraded_fraction)
    }
}

struct Timing {
    step: Nanos,
    halo_bytes: u64,
    iterations: usize,
    /// Gap between step start slots, so the step loop spans the fault
    /// schedule: a chaos run must still be exchanging halos when the
    /// last fault lands. Zero without a schedule.
    pace: Nanos,
    /// Recovery runs only: the policy, which also says whether and how
    /// often ranks checkpoint. `None` rides crashes out.
    policy: Option<RecoveryPolicy>,
    /// Bytes of one rank's checkpoint.
    checkpoint_bytes: u64,
}

impl Timing {
    fn new(config: &LuleshConfig, platform: &PlatformSpec, pace: Nanos, policy: Option<RecoveryPolicy>) -> Self {
        let cells = (config.elements_per_rank as f64).powi(3);
        Timing {
            step: platform.execute(&config.demand_per_element.scaled(cells)),
            halo_bytes: config.halo_bytes(),
            iterations: config.iterations,
            pace,
            policy,
            checkpoint_bytes: checkpoint_bytes(config),
        }
    }
}

/// Run the healthy sharded proxy with `workers` threads (1 = the
/// single-threaded reference execution; results are identical either
/// way): the chaos run with an empty timeline, projected onto its
/// fault-free fields. The platform supplies both the compute rate and
/// the fabric the halo exchanges are routed through.
pub fn run_sharded(config: &LuleshConfig, platform: &PlatformSpec, workers: usize) -> ShardedLuleshRun {
    let run = run_sharded_chaos(config, platform, workers, 0, Vec::new());
    ShardedLuleshRun {
        elapsed: run.elapsed,
        per_rank_finish: run.per_rank_finish,
        wire_bytes: run.wire_bytes,
        events: run.events,
        epochs: run.epochs,
        workers: run.workers,
    }
}

/// Run the sharded proxy under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]) whose node ids are
/// ranks: faults land at epoch barriers mid-run and ranks retry failed
/// halo sends with [`NetCtx::transfer_retry`] until the fault heals. A
/// crashed rank keeps computing (its NIC is down, its subdomain is not
/// dead — [`run_sharded_recovery`] is the path where it dies); its
/// outgoing and incoming halos queue behind retries until the restart
/// crosses a barrier. An empty timeline is the healthy run.
/// Deterministic at every worker count.
pub fn run_sharded_chaos(
    config: &LuleshConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> ShardedLuleshChaosRun {
    let ranks = config.ranks();
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let pace = pace_for(&timeline, config.iterations);
    let timing = Arc::new(Timing::new(config, platform, pace, None));

    let adjacency = adjacency(config);
    let halos: u64 = adjacency.iter().map(|n| n.len() as u64).sum::<u64>() * (config.iterations as u64 - 1);
    let states: Vec<RankState> =
        adjacency.into_iter().map(|neighbors| RankState::new(neighbors, config.iterations)).collect();

    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    sim.set_fault_timeline(seed, timeline);
    for rank in 0..ranks {
        let timing = Arc::clone(&timing);
        sim.schedule(rank, Nanos::ZERO, move |ctx| begin_step(ctx, 0, timing));
    }
    let elapsed = sim.run_sharded(workers);
    let retry = RetryStats::fold(sim.states().map(|s| &s.retry));
    ShardedLuleshChaosRun {
        elapsed,
        per_rank_finish: sim.states().map(|s| s.finish).collect(),
        wire_bytes: sim.total_bytes(),
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
        halos,
        detections: retry.detections,
        recovered: retry.recovered,
        lost: retry.lost,
        recovery_ms: retry.recovery_ms(),
        degraded_fraction: retry.degraded as f64 / halos.max(1) as f64,
    }
}

/// Start gap between step slots: the step loop spans 1.25x the fault
/// schedule's horizon.
fn pace_for(timeline: &[(Nanos, PlaneCmd)], iterations: usize) -> Nanos {
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    Nanos(horizon.0 * 5 / 4 / (iterations as u64).max(1))
}

/// Face neighbors of every rank of the decomposition.
fn adjacency(config: &LuleshConfig) -> Vec<Vec<usize>> {
    let mut adjacency = vec![Vec::new(); config.ranks()];
    for (a, b) in config.neighbor_pairs() {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    adjacency
}

/// Run the sharded proxy on `nodes` nodes under a node-level
/// scheduled-fault timeline (a `popper-chaos` schedule lowered with
/// `plane_timeline`), resolving every rank failure with `policy`
/// (see the module docs). The timeline's node ids are below `nodes`.
/// Rank `r` starts on node `r % nodes`, and each node-level command
/// applies to every rank on its node. A partition
/// that never heals, or a cluster with no node left, ends the run
/// `corrupt` instead of hanging it. Deterministic: the same seed and
/// timeline give the same run at every worker count.
pub fn run_sharded_recovery(
    config: &LuleshConfig,
    platform: &PlatformSpec,
    workers: usize,
    nodes: usize,
    seed: u64,
    mut timeline: Vec<(Nanos, PlaneCmd)>,
    policy: RecoveryPolicy,
) -> ShardedLuleshRecoveryRun {
    timeline.sort_by_key(|(at, _)| *at);
    let nodes = nodes.max(1);
    let initial_ranks = config.ranks();
    let pace = pace_for(&timeline, config.iterations);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let world = World { platform, workers, nodes, seed, timeline: &timeline, latency, pace, policy };

    let mut plan = EpochPlan {
        config: config.clone(),
        placement: (0..initial_ranks).map(|r| r % nodes).collect(),
        start: Nanos::ZERO,
        first: 0,
        resume: vec![Nanos::ZERO; initial_ranks],
        shipments: Vec::new(),
        replayed: 0,
        ranks_lost: 0,
        detected: None,
    };
    // Shrink never reuses a node it declared failed.
    let mut failed_nodes = vec![false; nodes];
    let mut lost_total = 0;
    let mut epochs = Vec::new();
    let mut events = 0;
    let (completed, elapsed, corrupt) = loop {
        let out = world.run_epoch(&plan);
        events += out.events;
        let mut record = CommEpoch {
            ranks: plan.placement.len(),
            steps: out.completed - plan.first,
            detections: out.detections,
            checkpoints: match policy {
                RecoveryPolicy::CheckpointRestart { interval } => {
                    (plan.first + 1..=out.completed.min(config.iterations - 1))
                        .filter(|k| k.is_multiple_of(interval))
                        .count()
                }
                RecoveryPolicy::Shrink => 0,
            },
            replayed: plan.replayed,
            ranks_lost: plan.ranks_lost,
            recovery_ms: plan.detected.map_or(0.0, |at| out.resumed.saturating_sub(at).as_millis_f64()),
            degraded_fraction: lost_total as f64 / initial_ranks as f64,
            end: out.finish,
        };
        let Some((detected, mut failed)) = out.failure else {
            epochs.push(record);
            break (out.completed, out.finish, out.completed < config.iterations);
        };
        record.end = detected;
        epochs.push(record);
        // The agreement declares every node crashed at the detection
        // failed, besides the ones a send found crashed.
        failed.extend(node_plane(nodes, &timeline, detected).crashed_nodes());
        failed.sort_unstable();
        failed.dedup();
        let next = match policy {
            RecoveryPolicy::Shrink => {
                for n in &failed {
                    failed_nodes[*n] = true;
                }
                world.shrink(&plan, &failed_nodes, detected, out.completed)
            }
            RecoveryPolicy::CheckpointRestart { interval } => {
                world.respawn(&plan, &failed, detected, out.completed, interval)
            }
        };
        match next {
            Some(next) => {
                lost_total += next.ranks_lost;
                plan = next;
            }
            None => break (out.completed, detected, true),
        }
    };
    ShardedLuleshRecoveryRun {
        policy,
        initial_ranks,
        final_ranks: plan.placement.len(),
        iterations: completed,
        elapsed,
        epochs,
        corrupt,
        events,
    }
}

/// What one communicator epoch starts from.
struct EpochPlan {
    /// The decomposition (shrink re-boxes it).
    config: LuleshConfig,
    /// Node of every rank.
    placement: Vec<usize>,
    /// Fault commands at or before `start` are already in effect.
    start: Nanos,
    /// The step every rank resumes at.
    first: usize,
    /// When each rank may resume, unless it awaits a lost subdomain.
    resume: Vec<Nanos>,
    /// Lost subdomains shipped at `start`: `(from, to, bytes)`; the
    /// receiver resumes on arrival.
    shipments: Vec<(usize, usize, u64)>,
    /// Steps rolled back by the recovery that opened the epoch.
    replayed: usize,
    /// Ranks lost by the recovery that opened the epoch.
    ranks_lost: usize,
    /// The failure detection the epoch recovers from.
    detected: Option<Nanos>,
}

/// What one communicator epoch ended with.
struct EpochOutcome {
    /// Steps every rank completed.
    completed: usize,
    /// The first rank failure observed, and the nodes found crashed.
    failure: Option<(Nanos, Vec<usize>)>,
    detections: u64,
    /// When the last rank resumed.
    resumed: Nanos,
    /// The last rank's finish.
    finish: Nanos,
    events: u64,
}

/// The fixed inputs of a recovery run.
struct World<'a> {
    platform: &'a PlatformSpec,
    workers: usize,
    /// Cluster size.
    nodes: usize,
    seed: u64,
    /// The node-level fault timeline, time-ordered.
    timeline: &'a [(Nanos, PlaneCmd)],
    latency: Nanos,
    pace: Nanos,
    policy: RecoveryPolicy,
}

impl World<'_> {
    /// Run one communicator epoch to quiescence on a fresh fabric world:
    /// the node-level commands up to `plan.start` are lowered onto the
    /// plan's ranks as the starting plane, the later ones as the
    /// timeline.
    fn run_epoch(&self, plan: &EpochPlan) -> EpochOutcome {
        let config = &plan.config;
        let ranks = plan.placement.len();
        let timing = Arc::new(Timing::new(config, self.platform, self.pace, Some(self.policy)));
        let mut states: Vec<RankState> =
            adjacency(config).into_iter().map(|neighbors| RankState::new(neighbors, config.iterations)).collect();
        for &(_, to, _) in &plan.shipments {
            states[to].awaiting += 1;
        }
        let mut plane = FaultPlane::new(ranks);
        plane.set_seed(self.seed);
        let mut later = Vec::new();
        for (at, cmd) in self.timeline {
            for lowered in lower(cmd, &plan.placement) {
                if *at <= plan.start {
                    plane.apply(&lowered);
                } else {
                    later.push((*at, lowered));
                }
            }
        }
        let mut sim = FabricSim::with_faults(states, self.platform.nic_gbit, self.latency, 1.0, plane);
        sim.set_fault_timeline(self.seed, later);
        for &(from, to, bytes) in &plan.shipments {
            let (timing, first) = (Arc::clone(&timing), plan.first);
            sim.schedule(from, plan.start, move |ctx| send(ctx, to, bytes, Payload::Subdomain(first), timing, 0));
        }
        for (rank, at) in plan.resume.iter().enumerate() {
            if sim.state(rank).awaiting == 0 {
                let (timing, first) = (Arc::clone(&timing), plan.first);
                sim.schedule(rank, *at, move |ctx| resume(ctx, first, timing));
            }
        }
        sim.run_sharded(self.workers);

        let completed =
            sim.states().map(|s| s.completed(plan.first, config.iterations)).min().unwrap_or(plan.first);
        let detected = sim.states().filter_map(|s| s.failure.map(|(at, _)| at)).min();
        let failure = detected.map(|at| {
            (at, sim.states().filter_map(|s| s.failure).map(|(_, r)| plan.placement[r]).collect())
        });
        EpochOutcome {
            completed,
            failure,
            detections: RetryStats::fold(sim.states().map(|s| &s.retry)).detections,
            resumed: sim.states().map(|s| s.resumed).max().unwrap_or(plan.start),
            finish: sim.states().map(|s| s.finish).max().unwrap_or(plan.start),
            events: sim.events_fired(),
        }
    }

    /// ULFM-style shrink: the survivors vote on the failure and the new
    /// epoch (two allreduce-shaped rounds), re-box the decomposition
    /// over themselves conserving total cells, and ship the lost
    /// subdomains through the fabric. `None` when nothing survives.
    fn shrink(&self, plan: &EpochPlan, failed_nodes: &[bool], detected: Nanos, completed: usize) -> Option<EpochPlan> {
        let config = &plan.config;
        let survivors = plan.placement.iter().filter(|n| !failed_nodes[**n]).count();
        if survivors == 0 {
            return None;
        }
        let alive: Vec<usize> = (0..self.nodes).filter(|n| !failed_nodes[*n]).collect();
        let ranks_lost = plan.placement.len() - survivors;
        // One round of the vote: an 8-byte message over the fabric.
        let vote = self.latency + Nanos::from_secs_f64(64.0 / (self.platform.nic_gbit * 1e9));
        let start = detected + vote * u64::from(4 * MpiWorld::log2_ceil(survivors.max(2)));
        let e = config.elements_per_rank as u64;
        let subdomain = e * e * e * config.bytes_per_face_cell;
        let total_cells = config.ranks() as f64 * (config.elements_per_rank as f64).powi(3);
        let mut next = config.clone();
        next.grid = boxiest_grid(survivors);
        next.elements_per_rank = (((total_cells / survivors as f64).cbrt()).round() as usize).max(2);
        Some(EpochPlan {
            config: next,
            placement: (0..survivors).map(|r| alive[r % alive.len()]).collect(),
            start,
            first: completed,
            resume: vec![start; survivors],
            // Lost subdomain j is adopted by survivor j, shipped from
            // the survivor after it.
            shipments: (0..ranks_lost).map(|j| ((j + 1) % survivors, j % survivors, subdomain)).collect(),
            replayed: 0,
            ranks_lost,
            detected: Some(detected),
        })
    }

    /// Checkpoint-restart: wait for the failed nodes' scheduled restart
    /// (a node that never restarts has its ranks respawned on the
    /// survivors), then every rank reloads the last checkpoint from
    /// disk and the steps since are replayed. `None` when no node is
    /// left.
    fn respawn(
        &self,
        plan: &EpochPlan,
        failed: &[usize],
        detected: Nanos,
        completed: usize,
        interval: usize,
    ) -> Option<EpochPlan> {
        let crashed = node_plane(self.nodes, self.timeline, detected);
        let mut wait_until = detected;
        for &n in failed.iter().filter(|n| crashed.is_crashed(**n)) {
            let restart = self.timeline.iter().find(|(at, cmd)| *at >= detected && *cmd == PlaneCmd::Restart(n));
            if let Some((at, _)) = restart {
                wait_until = wait_until.max(*at);
            }
        }
        let plane = node_plane(self.nodes, self.timeline, wait_until);
        let alive: Vec<usize> = (0..self.nodes).filter(|n| !plane.is_crashed(*n)).collect();
        if alive.is_empty() {
            return None;
        }
        let placement: Vec<usize> = (0..plan.placement.len())
            .map(|r| if plane.is_crashed(r % self.nodes) { alive[r % alive.len()] } else { r % self.nodes })
            .collect();
        let checkpoint = completed / interval * interval;
        let bytes = checkpoint_bytes(&plan.config);
        Some(EpochPlan {
            config: plan.config.clone(),
            resume: placement.iter().map(|n| wait_until + disk_time(bytes, plane.disk_factor(*n))).collect(),
            placement,
            start: wait_until,
            first: checkpoint,
            shipments: Vec::new(),
            replayed: completed - checkpoint,
            ranks_lost: 0,
            detected: Some(detected),
        })
    }
}

/// The node-level fault state after every command at or before `at`.
fn node_plane(nodes: usize, timeline: &[(Nanos, PlaneCmd)], at: Nanos) -> FaultPlane {
    let mut plane = FaultPlane::new(nodes);
    for (_, cmd) in timeline.iter().take_while(|(t, _)| *t <= at) {
        plane.apply(cmd);
    }
    plane
}

/// One node-level fault command, applied to every rank `placement`
/// puts on its node(s).
fn lower(cmd: &PlaneCmd, placement: &[usize]) -> Vec<PlaneCmd> {
    let on = |node: usize| placement.iter().enumerate().filter(move |(_, n)| **n == node).map(|(r, _)| r);
    match cmd {
        PlaneCmd::Crash(n) => on(*n).map(PlaneCmd::Crash).collect(),
        PlaneCmd::Restart(n) => on(*n).map(PlaneCmd::Restart).collect(),
        PlaneCmd::Partition(side) => {
            vec![PlaneCmd::Partition((0..placement.len()).filter(|r| side.contains(&placement[*r])).collect())]
        }
        PlaneCmd::Loss { node, p } => on(*node).map(|r| PlaneCmd::Loss { node: r, p: *p }).collect(),
        PlaneCmd::LossOneWay { from, to, p } => {
            on(*from).flat_map(|f| on(*to).map(move |t| PlaneCmd::LossOneWay { from: f, to: t, p: *p })).collect()
        }
        PlaneCmd::Latency { node, factor } => {
            on(*node).map(|r| PlaneCmd::Latency { node: r, factor: *factor }).collect()
        }
        PlaneCmd::DiskSlow { node, factor } => {
            on(*node).map(|r| PlaneCmd::DiskSlow { node: r, factor: *factor }).collect()
        }
        PlaneCmd::HealPartition | PlaneCmd::ClearDegradation => vec![cmd.clone()],
    }
}

/// A rank's checkpoint: its six halo faces, the surface state its
/// neighbors need to resume the stencil.
fn checkpoint_bytes(config: &LuleshConfig) -> u64 {
    6 * config.halo_bytes()
}

/// Durable I/O time for `bytes` at the checkpoint device rate, scaled
/// by the node's disk-slowdown factor.
fn disk_time(bytes: u64, factor: f64) -> Nanos {
    Nanos::from_secs_f64(bytes as f64 / (CHECKPOINT_DISK_GBPS * 1e9)).scale(factor.max(1.0))
}

type Ctx<'a, 'b> = NetCtx<'a, 'b, RankState>;

/// Begin step `step`, no earlier than its pacing slot.
fn begin_step(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    let start = (timing.pace * step as u64).max(ctx.now());
    ctx.schedule_at(start + timing.step, move |c| complete_step(c, step, timing));
}

fn complete_step(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    ctx.state().compute_done[step] = true;
    let neighbors = ctx.state().neighbors.clone();
    if step + 1 == timing.iterations {
        // Last step: nothing downstream needs this halo.
        let now = ctx.now();
        ctx.state().finish = now;
        return;
    }
    for nb in neighbors {
        let timing = Arc::clone(&timing);
        if timing.policy.is_some() {
            let bytes = timing.halo_bytes;
            send(ctx, nb, bytes, Payload::Halo(step), timing, 0);
            continue;
        }
        ctx.transfer_retry(nb, timing.halo_bytes, |s| &mut s.retry, move |c, sent| {
            if sent.is_ok() {
                receive_halo(c, step, timing);
            }
        });
    }
    try_advance(ctx, step, timing);
}

fn receive_halo(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    ctx.state().halos[step] += 1;
    try_advance(ctx, step, timing);
}

/// Start step `step + 1` once this rank's own compute for `step` is
/// done and every neighbor's halo for `step` has arrived — after
/// writing a checkpoint when the recovery policy asks for one there.
fn try_advance(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    let state = ctx.state();
    let ready = state.compute_done[step]
        && state.halos[step] == state.neighbors.len()
        && !state.advanced[step]
        && state.failure.is_none();
    if !ready {
        return;
    }
    state.advanced[step] = true;
    let pause = match timing.policy {
        Some(RecoveryPolicy::CheckpointRestart { interval }) if (step + 1).is_multiple_of(interval) => {
            disk_time(timing.checkpoint_bytes, ctx.disk_factor())
        }
        _ => Nanos::ZERO,
    };
    ctx.schedule_in(pause, move |c| begin_step(c, step + 1, timing));
}

/// What a recovery run's transfer carries.
#[derive(Clone, Copy)]
enum Payload {
    /// One halo face of the given step.
    Halo(usize),
    /// A lost subdomain the receiver adopts before resuming at the
    /// given step.
    Subdomain(usize),
}

/// A recovery run's transfer: a peer found crashed is a rank failure
/// (the sender stops stepping and the epoch ends); any other failure —
/// a partition — retries with backoff like
/// [`NetCtx::transfer_retry`], and is abandoned after `MAX_ATTEMPTS`.
fn send(ctx: &mut Ctx<'_, '_>, dst: usize, bytes: u64, payload: Payload, timing: Arc<Timing>, attempt: usize) {
    let retry_timing = Arc::clone(&timing);
    ctx.transfer_or(
        dst,
        bytes,
        move |c| {
            if attempt > 0 {
                let now = c.now();
                c.state().retry.note_recovery(now);
            }
            match payload {
                Payload::Halo(step) => receive_halo(c, step, timing),
                Payload::Subdomain(step) => {
                    let state = c.state();
                    state.awaiting -= 1;
                    if state.awaiting == 0 {
                        resume(c, step, timing);
                    }
                }
            }
        },
        move |c, u| {
            let state = c.state();
            state.retry.note_detection(u.gave_up_at);
            state.retry.degraded += u64::from(attempt == 0);
            if let Some(rank) = u.crashed {
                state.failure = Some(state.failure.unwrap_or((u.gave_up_at, rank)));
            } else if attempt + 1 >= MAX_ATTEMPTS {
                state.retry.lost += 1;
            } else {
                c.schedule_in(backoff(attempt), move |c| send(c, dst, bytes, payload, retry_timing, attempt + 1));
            }
        },
    );
}

/// Resume stepping at `step` after a recovery (or at the start).
fn resume(ctx: &mut Ctx<'_, '_>, step: usize, timing: Arc<Timing>) {
    let now = ctx.now();
    ctx.state().resumed = now;
    begin_step(ctx, step, timing);
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn sharded_proxy_matches_reference_at_every_worker_count() {
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let reference = run_sharded(&config, &platform, 1);
        assert!(reference.elapsed >= Nanos(1));
        assert_eq!(reference.per_rank_finish.len(), config.ranks());
        assert!(reference.per_rank_finish.iter().all(|f| *f > Nanos::ZERO));
        for workers in [2, 4, 8] {
            let parallel = run_sharded(&config, &platform, workers);
            assert_eq!(parallel.elapsed, reference.elapsed, "workers={workers}");
            assert_eq!(parallel.per_rank_finish, reference.per_rank_finish);
            assert_eq!(parallel.events, reference.events);
            assert_eq!(parallel.wire_bytes, reference.wire_bytes);
        }
    }

    #[test]
    fn halo_dependencies_gate_progress() {
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let run = run_sharded(&config, &platform, 1);
        let cells = (config.elements_per_rank as f64).powi(3);
        let step = platform.execute(&config.demand_per_element.scaled(cells));
        // Every rank must pay at least its own serial compute, and the
        // halo round trips push the total past it.
        assert!(run.elapsed > step * config.iterations as u64);
        // Multiple epochs: the lookahead is far smaller than a step.
        assert!(run.epochs > 1);
    }

    #[test]
    fn halo_traffic_is_on_the_wire() {
        // Every non-final step ships one halo face per neighbor pair,
        // in both directions, through the fabric.
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let run = run_sharded(&config, &platform, 2);
        let faces = 2 * config.neighbor_pairs().len() as u64;
        let expected = faces * (config.iterations as u64 - 1) * config.halo_bytes();
        assert_eq!(run.wire_bytes, expected);
    }

    #[test]
    fn chaos_run_retries_halos_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        // Crash rank 1's NIC mid-run and restart it: its halo exchanges
        // (both directions) retry with backoff until the restart
        // crosses a barrier. The schedule heals, so nothing is lost.
        let timeline = vec![
            (Nanos::from_millis(3), PlaneCmd::Crash(1)),
            (Nanos::from_millis(8), PlaneCmd::Restart(1)),
        ];
        let reference = run_sharded_chaos(&config, &platform, 1, 11, timeline.clone());
        assert!(reference.per_rank_finish.iter().all(|f| *f > Nanos::ZERO));
        assert!(reference.detections > 0, "the crash must be detected by halo timeouts");
        assert!(reference.recovered > 0);
        assert_eq!(reference.lost, 0, "the schedule heals; no halo may be abandoned");
        assert!(reference.recovery_ms > 0.0);
        assert!(reference.degraded_fraction > 0.0 && reference.degraded_fraction < 1.0);
        for workers in [2, 8] {
            let parallel = run_sharded_chaos(&config, &platform, workers, 11, timeline.clone());
            assert_eq!(
                ShardedLuleshChaosRun { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chaos_run_with_empty_timeline_matches_an_unpaced_healthy_run() {
        // No horizon, no pacing, no faults: the chaos loop degenerates
        // to the healthy loop and must agree on timing and traffic.
        let config = LuleshConfig::small();
        let platform = platforms::hpc_node();
        let healthy = run_sharded(&config, &platform, 2);
        let chaos = run_sharded_chaos(&config, &platform, 2, 1, Vec::new());
        assert_eq!(chaos.elapsed, healthy.elapsed);
        assert_eq!(chaos.per_rank_finish, healthy.per_rank_finish);
        assert_eq!(chaos.wire_bytes, healthy.wire_bytes);
        assert_eq!(chaos.detections + chaos.recovered + chaos.lost, 0);
    }

    /// The template's shape: 27 ranks of 20³ cells, 40 steps.
    fn template() -> LuleshConfig {
        LuleshConfig { elements_per_rank: 20, iterations: 40, ..LuleshConfig::paper() }
    }

    fn recover(
        config: &LuleshConfig,
        nodes: usize,
        timeline: Vec<(Nanos, PlaneCmd)>,
        policy: RecoveryPolicy,
    ) -> ShardedLuleshRecoveryRun {
        run_sharded_recovery(config, &platforms::hpc_node(), 1, nodes, 3, timeline, policy)
    }

    const CR: RecoveryPolicy = RecoveryPolicy::CheckpointRestart { interval: 4 };

    #[test]
    fn policy_parses_from_vars() {
        let vars = popper_format::pml::parse(
            "faults:\n  schedule: node-crash\n  policy: checkpoint-restart\n  checkpoint_interval: 3\n",
        )
        .unwrap();
        assert_eq!(
            RecoveryPolicy::from_vars(&vars).unwrap(),
            RecoveryPolicy::CheckpointRestart { interval: 3 }
        );
        let vars = popper_format::pml::parse("faults: {schedule: node-crash, policy: checkpoint-restart}\n").unwrap();
        assert_eq!(RecoveryPolicy::from_vars(&vars).unwrap(), RecoveryPolicy::CheckpointRestart { interval: 5 });
        let vars = popper_format::pml::parse("faults: {schedule: node-crash}\n").unwrap();
        assert_eq!(RecoveryPolicy::from_vars(&vars).unwrap(), RecoveryPolicy::Shrink);
        let vars = popper_format::pml::parse("faults: {policy: ouija}\n").unwrap();
        assert!(RecoveryPolicy::from_vars(&vars).is_err());
        assert_eq!(RecoveryPolicy::from_vars(&Value::empty_map()).unwrap(), RecoveryPolicy::Shrink);
    }

    #[test]
    fn boxiest_grid_prefers_cubes() {
        assert_eq!(boxiest_grid(27), (3, 3, 3));
        assert_eq!(boxiest_grid(8), (2, 2, 2));
        let (a, b, c) = boxiest_grid(24);
        assert_eq!(a * b * c, 24);
        assert_eq!(a * b + b * c + a * c, 2 * 3 + 3 * 4 + 2 * 4);
        // Primes degrade to pencils but stay valid.
        let (a, b, c) = boxiest_grid(13);
        assert_eq!(a * b * c, 13);
    }

    #[test]
    fn shrink_drops_the_crashed_nodes_ranks_and_completes_every_step() {
        // 8 ranks over 4 nodes; node 3 (ranks 3 and 7) is dead from the
        // start and never restarts.
        let config = LuleshConfig { iterations: 8, ..LuleshConfig::small() };
        let run = recover(&config, 4, vec![(Nanos::ZERO, PlaneCmd::Crash(3))], RecoveryPolicy::Shrink);
        assert!(!run.corrupt);
        assert_eq!(run.iterations, config.iterations, "every configured step must complete");
        assert_eq!((run.initial_ranks, run.final_ranks), (8, 6));
        assert_eq!(run.epochs.len(), 2);
        let recovered = &run.epochs[1];
        assert_eq!((recovered.ranks, recovered.ranks_lost, recovered.replayed), (6, 2, 0));
        assert!(recovered.recovery_ms > 0.0, "the vote and the shipped subdomains cost time");
        assert!((run.degraded_fraction() - 0.25).abs() < 1e-9, "2 of 8 ranks lost");
        assert_eq!(run.checkpoints(), 0);
    }

    #[test]
    fn checkpoint_restart_waits_for_the_restart_and_conserves_the_problem() {
        let config = LuleshConfig { iterations: 12, ..LuleshConfig::small() };
        let timeline = vec![(Nanos::ZERO, PlaneCmd::Crash(3)), (Nanos::from_millis(5), PlaneCmd::Restart(3))];
        let run = recover(&config, 4, timeline, CR);
        assert!(!run.corrupt);
        assert_eq!(run.iterations, 12);
        assert_eq!(run.final_ranks, 8, "respawn keeps the world full-size");
        assert_eq!(run.degraded_fraction(), 0.0, "checkpoint-restart conserves the problem");
        assert!(run.checkpoints() > 0, "periodic checkpoints must be written");
        // The crash struck before the first exchange: nothing to roll
        // back, but the survivors still waited for the restart.
        assert_eq!(run.replayed_steps(), 0);
        assert!(run.epochs[1].recovery_ms > 0.0);
        assert!(run.elapsed > Nanos::from_millis(5));
    }

    #[test]
    fn checkpoint_restart_replays_the_steps_since_the_last_checkpoint() {
        let config = LuleshConfig { iterations: 10, ..LuleshConfig::small() };
        let healthy = recover(&config, 4, Vec::new(), CR);
        let midrun = Nanos(healthy.elapsed.0 * 6 / 10);
        let timeline = vec![(midrun, PlaneCmd::Crash(2)), (midrun + Nanos::from_millis(2), PlaneCmd::Restart(2))];
        let run = recover(&config, 4, timeline, CR);
        assert!(!run.corrupt);
        assert_eq!(run.iterations, 10);
        assert_eq!(run.epochs.len(), 2);
        assert!(run.replayed_steps() > 0, "a mid-run crash must cost replay");
        assert!(run.replayed_steps() < 4, "rollback depth is bounded by the interval");
        assert!(run.elapsed > healthy.elapsed, "resilience has a measurable cost");
    }

    #[test]
    fn a_node_that_never_restarts_has_its_ranks_respawned_on_the_survivors() {
        let config = LuleshConfig { iterations: 6, ..LuleshConfig::small() };
        let run = recover(&config, 4, vec![(Nanos::ZERO, PlaneCmd::Crash(2))], CR);
        assert!(!run.corrupt);
        assert_eq!(run.iterations, 6);
        assert_eq!(run.final_ranks, 8, "ranks respawn on surviving nodes");
        assert_eq!(run.epochs.len(), 2);
    }

    #[test]
    fn a_healing_partition_is_ridden_out_without_a_recovery() {
        let config = LuleshConfig { iterations: 4, ..LuleshConfig::small() };
        let timeline =
            vec![(Nanos::ZERO, PlaneCmd::Partition(vec![0, 1])), (Nanos::from_millis(25), PlaneCmd::HealPartition)];
        for policy in [RecoveryPolicy::Shrink, CR] {
            let run = recover(&config, 4, timeline.clone(), policy);
            assert!(!run.corrupt, "{policy:?}");
            assert_eq!(run.iterations, 4);
            assert_eq!(run.epochs.len(), 1, "partitions are not rank failures");
            assert!(run.detections() > 0, "the stall must be detected");
            assert!(run.elapsed >= Nanos::from_millis(25), "the run waited for the heal");
        }
    }

    #[test]
    fn a_partition_that_never_heals_is_corrupt_not_a_hang() {
        let config = LuleshConfig { iterations: 3, ..LuleshConfig::small() };
        for policy in [RecoveryPolicy::Shrink, CR] {
            let run = recover(&config, 4, vec![(Nanos::ZERO, PlaneCmd::Partition(vec![0]))], policy);
            assert!(run.corrupt, "{policy:?}: a partition that never heals must fail the run");
            assert!(run.iterations < 3);
        }
    }

    #[test]
    fn a_crash_fails_every_rank_on_its_node() {
        // 27 ranks over 9 nodes: node 8 hosts ranks 8, 17 and 26.
        let timeline = vec![(Nanos::from_millis(40), PlaneCmd::Crash(8)), (Nanos::from_millis(120), PlaneCmd::Restart(8))];
        let shrink = recover(&template(), 9, timeline.clone(), RecoveryPolicy::Shrink);
        let cr = recover(&template(), 9, timeline, RecoveryPolicy::CheckpointRestart { interval: 5 });
        for run in [&shrink, &cr] {
            assert!(!run.corrupt);
            assert_eq!(run.iterations, 40);
            assert_eq!(run.epochs.len(), 2);
            assert!(run.epochs[0].end >= Nanos::from_millis(40), "detected after the crash");
        }
        // Shrink loses capacity but replays nothing; checkpoint-restart
        // conserves the problem, pays checkpoints and replay, and waits
        // for the restart.
        assert_eq!(shrink.final_ranks, 24);
        assert!((shrink.degraded_fraction() - 3.0 / 27.0).abs() < 1e-12);
        assert_eq!(shrink.replayed_steps(), 0);
        assert_eq!(cr.final_ranks, 27);
        assert_eq!(cr.degraded_fraction(), 0.0);
        assert!(cr.checkpoints() > 0);
        assert!(cr.replayed_steps() >= 1, "the mid-run crash must cost replay");
        assert!(cr.epochs[1].recovery_ms > shrink.epochs[1].recovery_ms);
        let until_restart = (Nanos::from_millis(120) - cr.epochs[0].end).as_millis_f64();
        assert!(cr.epochs[1].recovery_ms >= until_restart, "the respawn waits for the restart");
    }

    #[test]
    fn recovery_runs_are_identical_at_every_worker_count() {
        let config = LuleshConfig { iterations: 12, ..LuleshConfig::small() };
        let timeline = vec![
            (Nanos::from_millis(4), PlaneCmd::Loss { node: 1, p: 0.3 }),
            (Nanos::from_millis(6), PlaneCmd::Crash(2)),
            (Nanos::from_millis(9), PlaneCmd::Partition(vec![0, 1])),
            (Nanos::from_millis(14), PlaneCmd::HealPartition),
            (Nanos::from_millis(20), PlaneCmd::Restart(2)),
        ];
        for policy in [RecoveryPolicy::Shrink, CR] {
            let reference = recover(&config, 4, timeline.clone(), policy);
            assert!(reference.epochs.len() > 1, "{policy:?}: the crash must be recovered");
            for workers in [2, 8] {
                let parallel =
                    run_sharded_recovery(&config, &platforms::hpc_node(), workers, 4, 3, timeline.clone(), policy);
                assert_eq!(parallel, reference, "{policy:?} workers={workers}");
            }
        }
    }
}
