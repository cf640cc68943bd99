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
//! The fabric's propagation latency is the conservative lookahead: a
//! halo can never land earlier than `now + latency`, so all ranks can
//! fire events within one lookahead window in parallel while the
//! shared core stage is replayed deterministically at each epoch
//! barrier. Determinism is inherited from the engine —
//! `run_sharded(n)` produces the same per-rank finish times and the
//! same trace bytes for every `n`.

use crate::lulesh::LuleshConfig;
use popper_sim::shard::partition;
use popper_sim::{FabricSim, Nanos, NetCtx, PlaneCmd, PlatformSpec, RetryStats};
use std::sync::Arc;

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

struct Timing {
    step: Nanos,
    halo_bytes: u64,
    iterations: usize,
    /// Gap between step start slots, so the step loop spans the fault
    /// schedule: a chaos run must still be exchanging halos when the
    /// last fault lands. Zero without a schedule.
    pace: Nanos,
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
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run and ranks retry failed halo sends with
/// [`NetCtx::transfer_retry`] until the fault heals. A crashed rank
/// keeps computing (its NIC is down, its subdomain is not dead — ULFM
/// shrink stays on the serial path); its outgoing and incoming halos
/// queue behind retries until the restart crosses a barrier. An empty
/// timeline is the healthy run. Deterministic at every worker count.
pub fn run_sharded_chaos(
    config: &LuleshConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> ShardedLuleshChaosRun {
    let ranks = config.ranks();
    let cells = (config.elements_per_rank as f64).powi(3);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    let timing = Arc::new(Timing {
        step: platform.execute(&config.demand_per_element.scaled(cells)),
        halo_bytes: config.halo_bytes(),
        iterations: config.iterations,
        pace: Nanos(horizon.0 * 5 / 4 / (config.iterations as u64).max(1)),
    });

    let mut adjacency = vec![Vec::new(); ranks];
    for (a, b) in config.neighbor_pairs() {
        adjacency[a].push(b);
        adjacency[b].push(a);
    }
    let halos: u64 = adjacency.iter().map(|n| n.len() as u64).sum::<u64>() * (config.iterations as u64 - 1);
    let states: Vec<RankState> = adjacency
        .into_iter()
        .map(|neighbors| RankState {
            neighbors,
            compute_done: vec![false; config.iterations],
            halos: vec![0; config.iterations],
            advanced: vec![false; config.iterations],
            finish: Nanos::ZERO,
            retry: RetryStats::default(),
        })
        .collect();

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

/// Begin step `step`, no earlier than its pacing slot.
fn begin_step(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: Arc<Timing>) {
    let start = (timing.pace * step as u64).max(ctx.now());
    ctx.schedule_at(start + timing.step, move |c| complete_step(c, step, timing));
}

fn complete_step(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: Arc<Timing>) {
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
        ctx.transfer_retry(nb, timing.halo_bytes, |s| &mut s.retry, move |c, sent| {
            if sent.is_ok() {
                receive_halo(c, step, timing);
            }
        });
    }
    try_advance(ctx, step, timing);
}

fn receive_halo(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: Arc<Timing>) {
    ctx.state().halos[step] += 1;
    try_advance(ctx, step, timing);
}

/// Start step `step + 1` once this rank's own compute for `step` is
/// done and every neighbor's halo for `step` has arrived.
fn try_advance(ctx: &mut NetCtx<'_, '_, RankState>, step: usize, timing: Arc<Timing>) {
    let state = ctx.state();
    let ready = state.compute_done[step]
        && state.halos[step] == state.neighbors.len()
        && !state.advanced[step];
    if !ready {
        return;
    }
    state.advanced[step] = true;
    ctx.schedule_in(Nanos::ZERO, move |c| begin_step(c, step + 1, timing));
}

/// Map the decomposition's ranks onto at most `shards` balanced,
/// contiguous groups — the subdomain partition a coarser-grained
/// deployment would use. Exposed for callers that batch several ranks
/// per shard; the proxy itself runs one rank per shard.
pub fn subdomain_partition(config: &LuleshConfig, shards: usize) -> Vec<std::ops::Range<usize>> {
    partition(config.ranks(), shards)
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

    #[test]
    fn subdomain_partition_covers_all_ranks() {
        let config = LuleshConfig::paper();
        let parts = subdomain_partition(&config, 4);
        assert_eq!(parts.iter().map(|r| r.len()).sum::<usize>(), config.ranks());
    }
}
