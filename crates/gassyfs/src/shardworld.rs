//! The sharded GassyFS world: one fabric shard per gasnet node.
//!
//! The serial scalability experiment ([`experiment`](crate::experiment))
//! walks a page workload through [`Cluster`](popper_sim::Cluster) on a
//! single thread. This world maps each gasnet node onto a shard of the
//! shard-native fabric ([`popper_sim::FabricSim`]) and replays the
//! store's write path as cross-shard transfers: the client streams
//! pages out round-robin, each page lands on its primary (`page %
//! nodes`), the primary forwards a replica copy to the next node
//! (`(primary + 1) % nodes` — the same placement
//! [`GasnetStore`](crate::gasnet::GasnetStore) uses), and the replica
//! acks back to the client with a small control message. The client
//! keeps `streams` pages in flight, so primaries and replicas across
//! the cluster serialize concurrently while the shared fabric core and
//! each node's ingress meter the contention.
//!
//! Determinism is inherited from the engine: per-node page counts,
//! traffic counters, the virtual clock and the trace bytes are
//! identical at every worker count.

use crate::gasnet::PAGE_SIZE;
use popper_sim::{backoff, FabricSim, Nanos, NetCtx, NodeTraffic, PlaneCmd, PlatformSpec, RetryStats, MAX_ATTEMPTS};

/// Size of the replica's acknowledgement back to the client.
const CTRL_BYTES: u64 = 64;

/// Configuration of one sharded world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGassyConfig {
    /// Gasnet nodes (= shards). Node 0 is also the writing client.
    pub nodes: usize,
    /// Pages the client writes, round-robin across primaries.
    pub pages: u64,
    /// Write chains the client keeps in flight.
    pub streams: usize,
}

impl Default for ShardedGassyConfig {
    fn default() -> Self {
        ShardedGassyConfig { nodes: 8, pages: 256, streams: 4 }
    }
}

/// Per-node (per-shard) state.
struct NodeState {
    /// Pages this node holds as primary.
    primary_pages: u64,
    /// Pages this node holds as replica.
    replica_pages: u64,
    /// Client only: next page index to push.
    next_page: u64,
    /// Client only: pages acked.
    completed: u64,
    /// Client only: acked pages that needed a failover or retry.
    degraded: u64,
    /// Pages written straight to the replica after a primary failure.
    failovers: u64,
    /// Send timeouts this node observed; on the client, the latest
    /// recovered ack.
    retry: RetryStats,
    /// Client only: virtual time the last ack landed.
    finish: Nanos,
}

/// Result of one sharded world run — identical at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedGassyReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Virtual time the client saw its last ack.
    pub client_finish: Nanos,
    /// Primary page placement, node order.
    pub per_node_primary: Vec<u64>,
    /// Replica page placement, node order.
    pub per_node_replica: Vec<u64>,
    /// Fabric traffic counters, node order.
    pub traffic: Vec<NodeTraffic>,
    /// Pages written (echoes the config).
    pub pages: u64,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// Result of one sharded chaos run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedGassyChaosReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Primary page placement, node order.
    pub per_node_primary: Vec<u64>,
    /// Replica page placement, node order.
    pub per_node_replica: Vec<u64>,
    /// Fabric traffic counters, node order.
    pub traffic: Vec<NodeTraffic>,
    /// Pages the client attempted.
    pub pages: u64,
    /// Pages acked back to the client.
    pub completed: u64,
    /// Pages that needed a failover or retry before acking.
    pub degraded: u64,
    /// Pages the client never saw acked — abandoned after
    /// `MAX_ATTEMPTS`, stranded by a lost ack, or never written because
    /// their stream died (the corruption signal; `completed + lost ==
    /// pages`, and 0 for every schedule that ends healed).
    pub lost: u64,
    /// Pages written straight to the replica after a primary failure.
    pub failovers: u64,
    /// Send timeouts observed across the cluster.
    pub detections: u64,
    /// First failure to last recovered ack, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of pages that saw any failure.
    pub degraded_fraction: f64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

/// Run the healthy sharded world with `workers` threads (1 = the
/// single-threaded reference; results are identical either way): the
/// chaos run with an empty timeline, projected onto its fault-free
/// fields. The platform supplies the NIC the fabric is built from.
pub fn run_sharded(config: &ShardedGassyConfig, platform: &PlatformSpec, workers: usize) -> ShardedGassyReport {
    let (run, client_finish, events) = run_world(config, platform, workers, 0, Vec::new());
    ShardedGassyReport {
        elapsed: run.elapsed,
        client_finish,
        per_node_primary: run.per_node_primary,
        per_node_replica: run.per_node_replica,
        traffic: run.traffic,
        pages: run.pages,
        events,
        epochs: run.epochs,
        workers: run.workers,
    }
}

/// Run the sharded world under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run, the client fails over to the replica when a
/// primary is unreachable and retries with backoff when both copies
/// are, and the primary acks degraded (single-copy) pages when the
/// replica is down. An empty timeline is the healthy run.
/// Deterministic: the same seed and timeline produce identical reports
/// and trace bytes at every worker count.
pub fn run_sharded_chaos(
    config: &ShardedGassyConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> ShardedGassyChaosReport {
    run_world(config, platform, workers, seed, timeline).0
}

/// The one model behind both entry points: the chaos report, plus the
/// client's finish time and the event count only the healthy report
/// carries.
fn run_world(
    config: &ShardedGassyConfig,
    platform: &PlatformSpec,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> (ShardedGassyChaosReport, Nanos, u64) {
    assert!(config.nodes >= 2, "a gasnet world needs at least two nodes");
    assert!(config.pages >= 1 && config.streams >= 1);
    let latency = Nanos(platform.nic_lat_ns as u64).max(Nanos(1));
    let states = (0..config.nodes)
        .map(|_| NodeState {
            primary_pages: 0,
            replica_pages: 0,
            next_page: 0,
            completed: 0,
            degraded: 0,
            failovers: 0,
            retry: RetryStats::default(),
            finish: Nanos::ZERO,
        })
        .collect();
    let mut sim = FabricSim::new(states, platform.nic_gbit, latency, 1.0);
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    sim.set_fault_timeline(seed, timeline);
    let total = config.pages;
    // Start gap between consecutive pages so the workload spans the
    // schedule (1.25x its horizon): a chaos run must still be mid-write
    // when the last fault lands.
    let pace = Nanos(horizon.0 * 5 / 4 / total);
    let streams = (config.streams as u64).min(total);
    for _ in 0..streams {
        sim.schedule(0, Nanos::ZERO, move |ctx| write_next(ctx, total, pace));
    }
    let elapsed = sim.run_sharded(workers);

    let retry = RetryStats::fold(sim.states().map(|s| &s.retry));
    let client = sim.state(0);
    let (completed, degraded, lost) = (client.completed, client.degraded, total - client.completed);
    let report = ShardedGassyChaosReport {
        elapsed,
        per_node_primary: sim.states().map(|s| s.primary_pages).collect(),
        per_node_replica: sim.states().map(|s| s.replica_pages).collect(),
        traffic: (0..config.nodes).map(|n| sim.traffic(n)).collect(),
        pages: total,
        completed,
        degraded,
        lost,
        failovers: sim.states().map(|s| s.failovers).sum(),
        detections: retry.detections,
        recovery_ms: retry.recovery_ms(),
        degraded_fraction: (degraded + lost) as f64 / total as f64,
        epochs: sim.epochs(),
        workers: workers.max(1),
    };
    (report, client.finish, sim.events_fired())
}

type Ctx<'a, 'b> = NetCtx<'a, 'b, NodeState>;

/// Client: pop the next page (paced onto its start slot) and push it
/// down the replication chain — primary write, replica forward, ack.
/// The chain re-enters here on ack, so each call keeps exactly one
/// stream busy.
fn write_next(ctx: &mut Ctx<'_, '_>, total: u64, pace: Nanos) {
    let now = ctx.now();
    let state = ctx.state();
    if state.next_page >= total {
        return;
    }
    let page = state.next_page;
    state.next_page += 1;
    let slot = pace * page;
    if slot > now {
        ctx.schedule_at(slot, move |c| write_page(c, page, 0, false, total, pace));
    } else {
        write_page(ctx, page, 0, false, total, pace);
    }
}

/// One write attempt of `page`: primary first; on a primary timeout,
/// fail over to the replica; when both are unreachable, back off and
/// retry the whole page — abandoning it after `MAX_ATTEMPTS`.
fn write_page(ctx: &mut Ctx<'_, '_>, page: u64, attempt: usize, touched: bool, total: u64, pace: Nanos) {
    if attempt >= MAX_ATTEMPTS {
        write_next(ctx, total, pace);
        return;
    }
    let primary = (page % ctx.nodes() as u64) as usize;
    let replica = (primary + 1) % ctx.nodes();
    ctx.transfer_or(
        primary,
        PAGE_SIZE,
        move |c| primary_store(c, replica, touched, total, pace),
        move |c, u| {
            c.state().retry.note_detection(u.gave_up_at);
            // Replica failover: write the single surviving copy
            // directly (the gasnet store's recovery path).
            c.transfer_or(
                replica,
                PAGE_SIZE,
                move |cc| {
                    let st = cc.state();
                    st.replica_pages += 1;
                    st.failovers += 1;
                    send_ack(cc, true, total, pace);
                },
                move |cc, u2| {
                    cc.state().retry.note_detection(u2.gave_up_at);
                    cc.schedule_in(backoff(attempt), move |c3| {
                        write_page(c3, page, attempt + 1, true, total, pace)
                    });
                },
            );
        },
    );
}

/// Primary: store the page and forward the replica copy; when the
/// replica is unreachable, ack the client directly (the page survives
/// with one copy — degraded, not lost).
fn primary_store(ctx: &mut Ctx<'_, '_>, replica: usize, touched: bool, total: u64, pace: Nanos) {
    ctx.state().primary_pages += 1;
    ctx.transfer_or(
        replica,
        PAGE_SIZE,
        move |c| {
            c.state().replica_pages += 1;
            send_ack(c, touched, total, pace);
        },
        move |c, u| {
            c.state().retry.note_detection(u.gave_up_at);
            send_ack(c, true, total, pace);
        },
    );
}

/// Ack the client, retried with backoff; the chain re-enters
/// `write_next` there. An ack abandoned after `MAX_ATTEMPTS` strands
/// its write stream, and the client reports the page lost.
fn send_ack(ctx: &mut Ctx<'_, '_>, degraded: bool, total: u64, pace: Nanos) {
    ctx.transfer_retry(0, CTRL_BYTES, |s| &mut s.retry, move |c, sent| {
        if sent.is_err() {
            return;
        }
        let now = c.now();
        let state = c.state();
        state.completed += 1;
        state.finish = now;
        if degraded {
            state.degraded += 1;
            state.retry.note_recovery(now);
        }
        write_next(c, total, pace);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn sharded_world_matches_reference_at_every_worker_count() {
        let config = ShardedGassyConfig { nodes: 6, pages: 96, streams: 3 };
        let platform = platforms::gassyfs_node();
        let reference = run_sharded(&config, &platform, 1);
        assert!(reference.client_finish > Nanos::ZERO);
        for workers in [2, 4, 8] {
            let parallel = run_sharded(&config, &platform, workers);
            assert_eq!(
                ShardedGassyReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn placement_matches_the_gasnet_store() {
        // Round-robin primaries, replica one node over — the same
        // layout GasnetStore::alloc produces.
        let config = ShardedGassyConfig { nodes: 4, pages: 10, streams: 2 };
        let report = run_sharded(&config, &platforms::gassyfs_node(), 2);
        assert_eq!(report.per_node_primary, vec![3, 3, 2, 2]);
        assert_eq!(report.per_node_replica, vec![2, 3, 3, 2]);
    }

    #[test]
    fn every_page_pays_two_copies_and_an_ack() {
        let config = ShardedGassyConfig { nodes: 5, pages: 40, streams: 4 };
        let report = run_sharded(&config, &platforms::gassyfs_node(), 2);
        let wire: u64 = report.traffic.iter().map(|t| t.tx_bytes).sum();
        assert_eq!(wire, config.pages * (2 * PAGE_SIZE + CTRL_BYTES));
    }

    #[test]
    fn chaos_run_fails_over_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = ShardedGassyConfig { nodes: 6, pages: 64, streams: 3 };
        let platform = platforms::gassyfs_node();
        // Crash the primary for pages ≡ 2 mid-run, restart it later:
        // in-flight writes fail over to the replica, later writes land
        // on the primary again once the restart crosses a barrier.
        let timeline = vec![
            (Nanos::from_millis(2), PlaneCmd::Crash(2)),
            (Nanos::from_millis(9), PlaneCmd::Restart(2)),
        ];
        let reference = run_sharded_chaos(&config, &platform, 1, 7, timeline.clone());
        assert_eq!(reference.completed, config.pages);
        assert_eq!(reference.lost, 0, "the schedule heals; no page may be abandoned");
        assert!(reference.failovers > 0, "the crash must force replica failovers");
        assert!(reference.degraded > 0);
        assert!(reference.recovery_ms > 0.0);
        for workers in [2, 8] {
            let parallel = run_sharded_chaos(&config, &platform, workers, 7, timeline.clone());
            assert_eq!(
                ShardedGassyChaosReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn packet_loss_slows_writes_without_failover() {
        use popper_sim::PlaneCmd;
        // Loss costs retransmits, not placement: every page still lands
        // on its primary and replica.
        let config = ShardedGassyConfig { nodes: 4, pages: 32, streams: 2 };
        let platform = platforms::gassyfs_node();
        let healthy = run_sharded_chaos(&config, &platform, 1, 7, Vec::new());
        let timeline = (1..4).map(|n| (Nanos::ZERO, PlaneCmd::Loss { node: n, p: 0.3 })).collect();
        let lossy = run_sharded_chaos(&config, &platform, 1, 7, timeline);
        assert_eq!((lossy.completed, lossy.failovers, lossy.lost), (config.pages, 0, 0));
        assert_eq!(lossy.per_node_replica, healthy.per_node_replica);
        assert!(lossy.elapsed > healthy.elapsed, "lossy {} vs healthy {}", lossy.elapsed, healthy.elapsed);
    }

    #[test]
    fn chaos_run_with_empty_timeline_sees_no_failures() {
        let config = ShardedGassyConfig { nodes: 4, pages: 24, streams: 2 };
        let report = run_sharded_chaos(&config, &platforms::gassyfs_node(), 2, 1, Vec::new());
        assert_eq!(report.completed, config.pages);
        assert_eq!(report.degraded + report.lost + report.failovers + report.detections, 0);
        assert_eq!(report.recovery_ms, 0.0);
    }

    #[test]
    fn pages_a_crashed_client_never_sees_acked_are_reported_lost() {
        use popper_sim::PlaneCmd;
        // The client (node 0) crashes for good at 3 ms: acks to it are
        // abandoned and their write streams die, so most pages are never
        // acked. Each of them must surface as lost, not vanish.
        let config = ShardedGassyConfig { nodes: 6, pages: 64, streams: 3 };
        let platform = platforms::gassyfs_node();
        let timeline = vec![(Nanos::from_millis(3), PlaneCmd::Crash(0))];
        let report = run_sharded_chaos(&config, &platform, 1, 7, timeline.clone());
        assert!(report.completed < config.pages);
        assert_eq!(report.completed + report.lost, config.pages);
        // Likewise when a primary/replica crashes for good: a page both
        // copies of which stay unreachable is abandoned and lost.
        let timeline = vec![(Nanos::from_millis(3), PlaneCmd::Crash(3))];
        let report = run_sharded_chaos(&config, &platform, 2, 7, timeline);
        assert!(report.lost > 0);
        assert_eq!(report.completed + report.lost, config.pages);
    }

    #[test]
    fn more_streams_finish_no_later() {
        let platform = platforms::gassyfs_node();
        let narrow = run_sharded(&ShardedGassyConfig { streams: 1, ..Default::default() }, &platform, 2);
        let wide = run_sharded(&ShardedGassyConfig { streams: 8, ..Default::default() }, &platform, 2);
        assert!(wide.elapsed <= narrow.elapsed);
    }
}
