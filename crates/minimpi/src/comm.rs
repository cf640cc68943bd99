//! The message-passing runtime.
//!
//! Ranks are placed round-robin over the cluster's nodes (one rank per
//! core slot). Every rank owns a virtual-time cursor; compute advances
//! one cursor, communication couples them: an exchange completes for
//! both peers when the message has crossed the (contended) fabric, and
//! a collective synchronizes everyone. The coupling is what turns one
//! noisy node into whole-application variability — the effect the use
//! case studies.

use crate::profiler::{MpiOp, MpiProfile};
use popper_sim::{Cluster, Demand, Nanos};
use std::fmt;

/// A typed MPI failure surfaced by the fault-aware `try_*` operations.
/// Without these, an operation against a crashed peer would simply
/// charge the fault plane's timeout and carry on — the `try_*` family
/// turns that into an error the application can react to. The split
/// mirrors ULFM: a [`RankFailed`](MpiError::RankFailed) is permanent
/// until the communicator is rebuilt (shrink or respawn), while a
/// [`PeerUnreachable`](MpiError::PeerUnreachable) partition may heal on
/// its own and is worth retrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MpiError {
    /// A peer's node is *crashed*: its rank is dead and will not come
    /// back in this communicator epoch. Recovery means rebuilding the
    /// world (ULFM `MPI_Comm_shrink`, or respawn + rollback).
    RankFailed {
        /// The failed rank.
        rank: usize,
        /// The crashed node hosting it.
        node: usize,
        /// The communicator epoch the failure was detected in.
        epoch: u64,
        /// Virtual time when the failure detector gave up.
        detected_at: Nanos,
    },
    /// A peer is alive but partitioned away; every retry timed out.
    PeerUnreachable {
        /// The unreachable rank.
        rank: usize,
        /// The node hosting it.
        node: usize,
        /// Send attempts made before giving up.
        attempts: u32,
        /// Virtual time when the operation gave up.
        gave_up_at: Nanos,
    },
}

impl fmt::Display for MpiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MpiError::RankFailed { rank, node, epoch, detected_at } => write!(
                f,
                "rank {rank} (node {node}) failed in epoch {epoch} (detected at {detected_at})"
            ),
            MpiError::PeerUnreachable { rank, node, attempts, gave_up_at } => write!(
                f,
                "rank {rank} (node {node}) unreachable after {attempts} attempts (gave up at {gave_up_at})"
            ),
        }
    }
}

impl std::error::Error for MpiError {}

/// Retry-with-exponential-backoff policy for fault-aware operations:
/// attempt `max_attempts` times, waiting `base_delay * 2^(n-1)` after
/// the n-th timeout. All delays are charged to the involved ranks'
/// virtual clocks, so resilience has a measurable (and deterministic)
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Attempts before giving up (>= 1).
    pub max_attempts: u32,
    /// Backoff after the first failed attempt; doubles per attempt.
    pub base_delay: Nanos,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 4, base_delay: Nanos::from_micros(50) }
    }
}

impl RetryPolicy {
    /// The backoff slept after failed attempt `attempt` (1-based).
    /// Saturates at [`Nanos::MAX`]: the exponent is capped at 63 (a
    /// `2^64` shift factor is already unrepresentable) and the multiply
    /// saturates, so absurd attempt counts stay well-defined instead of
    /// overflowing.
    pub fn backoff(&self, attempt: u32) -> Nanos {
        let exp = attempt.saturating_sub(1).min(63);
        self.base_delay.saturating_mul(1u64 << exp)
    }

    /// Total virtual time burned by a full round of failed attempts,
    /// given the fault plane's per-attempt `timeout`. Saturates at
    /// [`Nanos::MAX`] for pathological policies.
    pub fn total_penalty(&self, timeout: Nanos) -> Nanos {
        (1..=self.max_attempts.max(1)).fold(Nanos::ZERO, |acc, a| {
            acc.saturating_add(timeout).saturating_add(self.backoff(a))
        })
    }
}

/// The world: a communicator over a simulated cluster.
#[derive(Debug, Clone)]
pub struct MpiWorld {
    /// The underlying cluster.
    pub cluster: Cluster,
    rank_node: Vec<usize>,
    rank_time: Vec<Nanos>,
    /// The mpiP-style profiler.
    pub profile: MpiProfile,
    retry: RetryPolicy,
    /// Communicator epoch: bumped by recovery layers each time the
    /// world is rebuilt after a rank failure (ULFM-style).
    epoch: u64,
}

impl MpiWorld {
    /// Create `ranks` ranks over `cluster`, placed round-robin across
    /// nodes (block placement would under-use the fabric model).
    pub fn new(cluster: Cluster, ranks: usize) -> Self {
        let nodes = cluster.len();
        let rank_node = (0..ranks).map(|r| r % nodes).collect();
        Self::with_placement(cluster, rank_node)
    }

    /// Create a world with an explicit rank → node placement. Recovery
    /// layers use this to rebuild a shrunken (or respawned)
    /// communicator over the surviving nodes.
    pub fn with_placement(cluster: Cluster, rank_node: Vec<usize>) -> Self {
        assert!(!rank_node.is_empty(), "a world needs at least one rank");
        assert!(
            rank_node.iter().all(|n| *n < cluster.len()),
            "placement references a node outside the cluster"
        );
        let ranks = rank_node.len();
        MpiWorld {
            cluster,
            rank_node,
            rank_time: vec![Nanos::ZERO; ranks],
            profile: MpiProfile::new(ranks),
            retry: RetryPolicy::default(),
            epoch: 0,
        }
    }

    /// The current communicator epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Set the communicator epoch (recovery layers bump this when they
    /// rebuild the world).
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = epoch;
    }

    /// Advance every rank's clock to at least `t` (clocks already past
    /// `t` are untouched). A rebuilt post-recovery world starts its
    /// ranks where the recovery protocol finished, not at time zero.
    pub fn advance_all_to(&mut self, t: Nanos) {
        for rt in self.rank_time.iter_mut() {
            *rt = (*rt).max(t);
        }
    }

    /// Charge `dur` of non-MPI work (checkpoint I/O, recovery protocol
    /// steps) to one rank's clock, attributed as application time and
    /// traced under `name`.
    pub fn charge(&mut self, rank: usize, dur: Nanos, name: &'static str) {
        let start = self.rank_time[rank];
        let end = start + dur;
        self.profile.record_app(rank, dur);
        Self::trace_op(name, rank, start, end);
        self.rank_time[rank] = end;
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.rank_node.len()
    }

    /// The node hosting a rank.
    pub fn node_of(&self, rank: usize) -> usize {
        self.rank_node[rank]
    }

    /// A rank's current virtual time.
    pub fn time_of(&self, rank: usize) -> Nanos {
        self.rank_time[rank]
    }

    /// The application's elapsed time (the last rank's clock).
    pub fn elapsed(&self) -> Nanos {
        self.rank_time.iter().copied().max().unwrap_or(Nanos::ZERO)
    }

    /// Record one operation's span on `rank`'s timeline track (virtual
    /// time). No-op without an ambient tracer.
    fn trace_op(name: &'static str, rank: usize, start: Nanos, end: Nanos) {
        let tracer = popper_trace::current();
        if tracer.is_enabled() && end > start {
            tracer.span_at("mpi", format!("mpi/rank{rank}"), name, start.0, end.0);
        }
    }

    /// Rank `r` computes `demand` (noise on its node applies).
    pub fn compute(&mut self, rank: usize, demand: &Demand) {
        let node = self.rank_node[rank];
        let start = self.rank_time[rank];
        let base = self.cluster.compute_duration(node, demand);
        let finish = match self.cluster.node(node).noise {
            Some(noise) => noise.finish(start, base),
            None => start + base,
        };
        self.profile.record_app(rank, finish - start);
        Self::trace_op("compute", rank, start, finish);
        self.rank_time[rank] = finish;
    }

    /// A bulk-synchronous halo exchange: every `(a, b, bytes)` pair
    /// swaps `bytes` in both directions. All sends post at their
    /// sender's current time; every participating rank then advances to
    /// the completion of all messages it is involved in.
    pub fn exchange(&mut self, pairs: &[(usize, usize, u64)]) {
        let before = self.rank_time.clone();
        let mut done = self.rank_time.clone();
        for &(a, b, bytes) in pairs {
            assert!(a != b, "self-exchange");
            let (na, nb) = (self.rank_node[a], self.rank_node[b]);
            // a -> b
            let t_ab = self.cluster.transfer(na, nb, bytes, before[a]);
            // b -> a
            let t_ba = self.cluster.transfer(nb, na, bytes, before[b]);
            done[a] = done[a].max(t_ab).max(t_ba);
            done[b] = done[b].max(t_ab).max(t_ba);
        }
        for &(a, b, bytes) in pairs {
            for r in [a, b] {
                let elapsed = done[r] - before[r];
                // Attribute the whole wait once per rank per call; split
                // evenly over the pairs the rank participates in.
                let pairs_of_r = pairs.iter().filter(|(x, y, _)| *x == r || *y == r).count() as u64;
                self.profile.record_mpi(r, MpiOp::Exchange, elapsed / pairs_of_r.max(1), bytes);
            }
        }
        for (r, t) in done.into_iter().enumerate() {
            if t > self.rank_time[r] {
                Self::trace_op("exchange", r, before[r], t);
            }
            self.rank_time[r] = self.rank_time[r].max(t);
        }
    }

    /// Tree-based collective cost: `rounds` sequential hops of
    /// `latency + serialization(bytes)` over the fabric's parameters.
    /// Public so recovery layers can price agreement rounds and bulk
    /// state redistribution with the same model the collectives use.
    pub fn collective_cost(&self, rounds: u32, bytes: u64) -> Nanos {
        let lat = self.cluster.fabric.latency();
        let ser = Nanos::from_secs_f64(bytes as f64 * 8.0 / (self.cluster.fabric.link_gbit() * 1e9));
        (lat + ser) * rounds as u64
    }

    /// ⌈log2 n⌉ (minimum 1): rounds in a dissemination/tree collective.
    pub fn log2_ceil(n: usize) -> u32 {
        (usize::BITS - (n - 1).leading_zeros()).max(1)
    }

    /// Synchronize all ranks (dissemination barrier).
    pub fn barrier(&mut self) {
        let arrive = self.elapsed();
        let cost = self.collective_cost(Self::log2_ceil(self.size()), 0);
        let done = arrive + cost;
        for r in 0..self.size() {
            let waited = done - self.rank_time[r];
            self.profile.record_mpi(r, MpiOp::Barrier, waited, 0);
            Self::trace_op("barrier", r, self.rank_time[r], done);
            self.rank_time[r] = done;
        }
    }

    /// Allreduce `bytes` (reduce-then-broadcast tree: 2·⌈log2 n⌉ rounds).
    pub fn allreduce(&mut self, bytes: u64) {
        let arrive = self.elapsed();
        let cost = self.collective_cost(2 * Self::log2_ceil(self.size()), bytes);
        let done = arrive + cost;
        for r in 0..self.size() {
            let waited = done - self.rank_time[r];
            self.profile.record_mpi(r, MpiOp::Allreduce, waited, bytes);
            Self::trace_op("allreduce", r, self.rank_time[r], done);
            self.rank_time[r] = done;
        }
    }

    /// Broadcast from `root` (⌈log2 n⌉ rounds).
    pub fn bcast(&mut self, root: usize, bytes: u64) {
        let start = self.rank_time[root];
        let cost = self.collective_cost(Self::log2_ceil(self.size()), bytes);
        let done = start.max(self.elapsed()) + cost;
        for r in 0..self.size() {
            let waited = done.saturating_sub(self.rank_time[r]);
            self.profile.record_mpi(r, MpiOp::Bcast, waited, if r == root { bytes } else { 0 });
            Self::trace_op("bcast", r, self.rank_time[r], done);
            self.rank_time[r] = self.rank_time[r].max(done);
        }
    }

    // ---- fault-aware operations ----

    /// The first rank whose node is crashed or cut off from rank 0's
    /// side of a partition, if any.
    fn unreachable_participant(&self) -> Option<(usize, usize)> {
        if !self.cluster.faults().is_active() {
            return None;
        }
        for r in 0..self.size() {
            let n = self.rank_node[r];
            if self.cluster.faults().is_crashed(n) {
                return Some((r, n));
            }
        }
        let n0 = self.rank_node[0];
        for r in 1..self.size() {
            let n = self.rank_node[r];
            if !self.cluster.faults().reachable(n0, n) {
                return Some((r, n));
            }
        }
        None
    }

    /// Charge a full round of failed attempts (timeouts + exponential
    /// backoff) to `ranks` and build the resulting error: a crashed
    /// node is a permanent [`MpiError::RankFailed`], anything else
    /// (partition) a retryable [`MpiError::PeerUnreachable`].
    fn give_up(&mut self, op: MpiOp, name: &'static str, ranks: &[usize], rank: usize, node: usize) -> MpiError {
        let penalty = self.retry.total_penalty(self.cluster.faults().timeout());
        let tracer = popper_trace::current();
        let mut gave_up_at = Nanos::ZERO;
        for &r in ranks {
            let start = self.rank_time[r];
            let end = start + penalty;
            self.profile.record_mpi(r, op, penalty, 0);
            Self::trace_op(name, r, start, end);
            self.rank_time[r] = end;
            gave_up_at = gave_up_at.max(end);
        }
        if self.cluster.faults().is_crashed(node) {
            if tracer.is_enabled() {
                tracer.instant_at("chaos", format!("mpi/rank{rank}"), "rank failed", gave_up_at.0);
            }
            MpiError::RankFailed { rank, node, epoch: self.epoch, detected_at: gave_up_at }
        } else {
            if tracer.is_enabled() {
                tracer.instant_at("chaos", format!("mpi/rank{rank}"), "peer unreachable", gave_up_at.0);
            }
            MpiError::PeerUnreachable { rank, node, attempts: self.retry.max_attempts, gave_up_at }
        }
    }

    /// Lightweight failure detector: a zero-byte probe round. Free
    /// against a healthy plane (the steady state pays one branch), it
    /// consults the fault plane's [`probe`](popper_sim::FaultPlane::probe)
    /// and reports the first dead or cut-off participant after charging
    /// a single detection timeout to every rank — the path that turns a
    /// would-be hang (a crash between collectives) into a detection
    /// even when no payload traffic is pending.
    pub fn try_heartbeat(&mut self) -> Result<(), MpiError> {
        if !self.cluster.faults().is_active() {
            return Ok(());
        }
        let Some((rank, node)) = self.unreachable_participant() else {
            return Ok(());
        };
        let probe = self
            .cluster
            .faults()
            .probe(self.rank_node[0], node, self.elapsed())
            .expect("unreachable participant must fail the probe");
        let timeout = self.cluster.faults().timeout();
        let tracer = popper_trace::current();
        let mut detected_at = Nanos::ZERO;
        for r in 0..self.size() {
            let start = self.rank_time[r];
            let end = start + timeout;
            self.profile.record_mpi(r, MpiOp::Barrier, timeout, 0);
            Self::trace_op("heartbeat (timeout)", r, start, end);
            self.rank_time[r] = end;
            detected_at = detected_at.max(end);
        }
        Err(if probe.crashed.is_some() || self.cluster.faults().is_crashed(node) {
            if tracer.is_enabled() {
                tracer.instant_at("chaos", format!("mpi/rank{rank}"), "rank failed", detected_at.0);
            }
            MpiError::RankFailed { rank, node, epoch: self.epoch, detected_at }
        } else {
            if tracer.is_enabled() {
                tracer.instant_at("chaos", format!("mpi/rank{rank}"), "peer unreachable", detected_at.0);
            }
            MpiError::PeerUnreachable { rank, node, attempts: 1, gave_up_at: detected_at }
        })
    }

    /// Fault-aware point-to-point send (`from` → `to`, the receiver
    /// blocked in a matching recv). Against a healthy plane this is one
    /// directed transfer; when the peer is crashed or partitioned away
    /// it retries with exponential backoff and returns
    /// [`MpiError::PeerUnreachable`] instead of hanging.
    pub fn try_send(&mut self, from: usize, to: usize, bytes: u64) -> Result<(), MpiError> {
        assert!(from != to, "self-send");
        let (nf, nt) = (self.rank_node[from], self.rank_node[to]);
        let start = self.rank_time[from];
        match self.cluster.try_transfer(nf, nt, bytes, start) {
            Ok(done) => {
                let done = done.max(self.rank_time[to]);
                for r in [from, to] {
                    self.profile.record_mpi(r, MpiOp::Exchange, done.saturating_sub(self.rank_time[r]), bytes);
                    Self::trace_op("send", r, self.rank_time[r], done);
                    self.rank_time[r] = done;
                }
                Ok(())
            }
            Err(u) => {
                let node = u.crashed.unwrap_or(nt);
                let rank = if node == nf { from } else { to };
                Err(self.give_up(MpiOp::Exchange, "send (unreachable)", &[from, to], rank, node))
            }
        }
    }

    /// Fault-aware halo exchange: checks every pair's reachability up
    /// front, then delegates to [`exchange`](Self::exchange). On an
    /// unreachable pair, all involved ranks pay the retry penalty.
    pub fn try_exchange(&mut self, pairs: &[(usize, usize, u64)]) -> Result<(), MpiError> {
        if self.cluster.faults().is_active() {
            for &(a, b, _) in pairs {
                let (na, nb) = (self.rank_node[a], self.rank_node[b]);
                if na != nb && !self.cluster.faults().reachable(na, nb) {
                    let node = self.cluster.faults().crashed_endpoint(na, nb).unwrap_or(nb);
                    let rank = if node == na { a } else { b };
                    let involved: Vec<usize> =
                        pairs.iter().flat_map(|&(x, y, _)| [x, y]).collect();
                    return Err(self.give_up(MpiOp::Exchange, "exchange (unreachable)", &involved, rank, node));
                }
            }
        }
        self.exchange(pairs);
        Ok(())
    }

    /// Fault-aware barrier: fails with the first unreachable
    /// participant after charging the retry penalty to every rank.
    pub fn try_barrier(&mut self) -> Result<(), MpiError> {
        if let Some((rank, node)) = self.unreachable_participant() {
            let all: Vec<usize> = (0..self.size()).collect();
            return Err(self.give_up(MpiOp::Barrier, "barrier (unreachable)", &all, rank, node));
        }
        self.barrier();
        Ok(())
    }

    /// Fault-aware allreduce; see [`try_barrier`](Self::try_barrier).
    pub fn try_allreduce(&mut self, bytes: u64) -> Result<(), MpiError> {
        if let Some((rank, node)) = self.unreachable_participant() {
            let all: Vec<usize> = (0..self.size()).collect();
            return Err(self.give_up(MpiOp::Allreduce, "allreduce (unreachable)", &all, rank, node));
        }
        self.allreduce(bytes);
        Ok(())
    }

    /// Reduce to `root` (⌈log2 n⌉ rounds); only the root advances to the
    /// reduced time, other ranks continue after their send.
    pub fn reduce(&mut self, root: usize, bytes: u64) {
        let arrive = self.elapsed();
        let cost = self.collective_cost(Self::log2_ceil(self.size()), bytes);
        let done = arrive + cost;
        let waited_root = done - self.rank_time[root];
        self.profile.record_mpi(root, MpiOp::Reduce, waited_root, 0);
        Self::trace_op("reduce", root, self.rank_time[root], done);
        self.rank_time[root] = done;
        for r in 0..self.size() {
            if r != root {
                self.profile.record_mpi(r, MpiOp::Reduce, Nanos::ZERO, bytes);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::noise::{NoisyNeighbor, OsNoise};
    use popper_sim::platforms;

    fn world(nodes: usize, ranks: usize) -> MpiWorld {
        MpiWorld::new(Cluster::new(platforms::hpc_node(), nodes), ranks)
    }

    #[test]
    fn placement_is_round_robin() {
        let w = world(4, 8);
        assert_eq!((0..8).map(|r| w.node_of(r)).collect::<Vec<_>>(), vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn compute_advances_one_rank_only() {
        let mut w = world(2, 4);
        let d = Demand { fp_ops: 1e8, ..Default::default() };
        w.compute(1, &d);
        assert!(w.time_of(1) > Nanos::ZERO);
        assert_eq!(w.time_of(0), Nanos::ZERO);
        assert!(w.profile.ranks[1].app_time > Nanos::ZERO);
    }

    #[test]
    fn barrier_synchronizes_to_slowest() {
        let mut w = world(2, 4);
        let d = Demand { fp_ops: 2e8, ..Default::default() };
        w.compute(2, &d); // one rank races ahead
        let ahead = w.time_of(2);
        w.barrier();
        let t = w.time_of(0);
        assert!(t > ahead);
        for r in 0..4 {
            assert_eq!(w.time_of(r), t);
        }
        // The idle ranks logged barrier wait.
        assert!(w.profile.ranks[0].mpi_time[MpiOp::Barrier as usize] > Nanos::ZERO);
    }

    #[test]
    fn exchange_couples_peers() {
        let mut w = world(4, 4);
        let d = Demand { fp_ops: 1e8, ..Default::default() };
        w.compute(0, &d);
        // 0<->1 exchange: rank 1 must wait for 0's (later) send.
        w.exchange(&[(0, 1, 64 * 1024)]);
        assert_eq!(w.time_of(0), w.time_of(1));
        assert!(w.time_of(1) > Nanos::ZERO);
        // Uninvolved ranks unaffected.
        assert_eq!(w.time_of(2), Nanos::ZERO);
        assert!(w.profile.ranks[1].mpi_time[MpiOp::Exchange as usize] > Nanos::ZERO);
    }

    #[test]
    fn same_node_exchange_is_cheap() {
        let mut w = world(1, 2); // both ranks on node 0
        w.exchange(&[(0, 1, 1 << 20)]);
        assert_eq!(w.time_of(0), Nanos::ZERO, "loopback messages are free in the fabric model");
    }

    #[test]
    fn allreduce_cost_grows_logarithmically() {
        let cost = |ranks: usize| {
            let mut w = world(ranks, ranks);
            w.allreduce(8);
            w.elapsed()
        };
        let c2 = cost(2);
        let c16 = cost(16);
        let c64 = cost(64);
        assert!(c16 > c2);
        // log2(64)/log2(16) = 1.5: far from linear in ranks.
        let ratio = c64.as_secs_f64() / c16.as_secs_f64();
        assert!(ratio < 2.0, "allreduce must scale ~log n, got ratio {ratio}");
    }

    #[test]
    fn bcast_and_reduce() {
        let mut w = world(4, 4);
        let d = Demand { fp_ops: 1e8, ..Default::default() };
        w.compute(0, &d);
        w.bcast(0, 4096);
        let t_after = w.time_of(3);
        assert!(t_after >= w.time_of(0));
        w.reduce(0, 8);
        assert!(w.time_of(0) >= t_after);
    }

    #[test]
    fn noise_on_one_node_slows_everyone_via_collectives() {
        let run = |noisy: bool| {
            let mut cluster = Cluster::new(platforms::hpc_node(), 4);
            if noisy {
                cluster.set_noise(2, Some(OsNoise::new(Nanos::from_millis(1), Nanos::from_micros(200), Nanos::ZERO)));
            }
            let mut w = MpiWorld::new(cluster, 4);
            let d = Demand { fp_ops: 5e8, ..Default::default() };
            for _ in 0..5 {
                for r in 0..4 {
                    w.compute(r, &d);
                }
                w.allreduce(8);
            }
            w
        };
        let quiet = run(false);
        let noisy = run(true);
        assert!(noisy.elapsed() > quiet.elapsed());
        // Root cause is attributable: the noisy node's rank has the
        // highest app time; some *other* rank has the most MPI wait.
        let (victim, straggler) = noisy.profile.extremes().unwrap();
        assert_eq!(noisy.node_of(straggler), 2);
        assert_ne!(victim, straggler);
    }

    #[test]
    fn neighbor_contention_slows_compute() {
        let mut cluster = Cluster::new(platforms::hpc_node(), 2);
        cluster.set_neighbor(1, NoisyNeighbor::new(0.3, 0.0));
        let mut w = MpiWorld::new(cluster, 2);
        let d = Demand { fp_ops: 1e9, ..Default::default() };
        w.compute(0, &d);
        w.compute(1, &d);
        assert!(w.time_of(1) > w.time_of(0));
    }

    #[test]
    fn try_send_to_crashed_peer_errors_instead_of_hanging() {
        let mut w = world(4, 4);
        w.cluster.faults_mut().crash(1);
        let before = w.time_of(0);
        let err = w.try_send(0, 1, 4096).unwrap_err();
        match err {
            MpiError::RankFailed { rank, node, epoch, detected_at } => {
                assert_eq!((rank, node, epoch), (1, 1, 0));
                assert!(detected_at > before, "retries must burn virtual time");
                assert_eq!(w.time_of(0), detected_at);
            }
            other => panic!("a crash must surface as RankFailed, got {other}"),
        }
        // Healthy peers still work.
        assert!(w.try_send(0, 2, 4096).is_ok());
    }

    #[test]
    fn crash_is_rank_failed_partition_is_peer_unreachable() {
        // The ULFM distinction the recovery policies depend on: a
        // crashed node is permanent (rebuild the world), a partition is
        // transient (retry until it heals).
        let mut w = world(4, 4);
        w.cluster.faults_mut().partition(&[0, 1]);
        assert!(matches!(w.try_allreduce(8), Err(MpiError::PeerUnreachable { .. })));
        w.cluster.faults_mut().heal_partition();
        w.cluster.faults_mut().crash(2);
        match w.try_barrier() {
            Err(MpiError::RankFailed { rank, node, epoch, .. }) => {
                assert_eq!((rank, node, epoch), (2, 2, 0));
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    #[test]
    fn heartbeat_is_free_when_healthy_and_detects_failures() {
        let mut w = world(4, 4);
        assert!(w.try_heartbeat().is_ok());
        assert_eq!(w.elapsed(), Nanos::ZERO, "healthy heartbeats are free");
        w.cluster.faults_mut().crash(3);
        let timeout = w.cluster.faults().timeout();
        match w.try_heartbeat() {
            Err(MpiError::RankFailed { rank, node, detected_at, .. }) => {
                assert_eq!((rank, node), (3, 3));
                assert_eq!(detected_at, timeout, "detection costs one timeout");
                assert_eq!(w.elapsed(), timeout);
            }
            other => panic!("expected RankFailed, got {other:?}"),
        }
        // A partition is detected too, but as retryable.
        w.cluster.faults_mut().restart(3);
        w.cluster.faults_mut().partition(&[0]);
        assert!(matches!(w.try_heartbeat(), Err(MpiError::PeerUnreachable { .. })));
    }

    #[test]
    fn epoch_is_carried_in_failures() {
        let mut w = world(4, 4);
        w.set_epoch(3);
        assert_eq!(w.epoch(), 3);
        w.cluster.faults_mut().crash(1);
        match w.try_send(0, 1, 64) {
            Err(MpiError::RankFailed { epoch, .. }) => assert_eq!(epoch, 3),
            other => panic!("expected RankFailed, got {other:?}"),
        }
    }

    #[test]
    fn with_placement_and_advance_all_to_rebuild_worlds() {
        let cluster = Cluster::new(platforms::hpc_node(), 4);
        // A shrunken world over the surviving nodes {0, 2, 3}.
        let mut w = MpiWorld::with_placement(cluster, vec![0, 2, 3, 0, 2, 3]);
        assert_eq!(w.size(), 6);
        assert_eq!(w.node_of(1), 2);
        let t = Nanos::from_millis(70);
        w.advance_all_to(t);
        for r in 0..6 {
            assert_eq!(w.time_of(r), t);
        }
        // Clocks already past t are untouched.
        w.charge(0, Nanos::from_millis(5), "checkpoint");
        w.advance_all_to(t);
        assert_eq!(w.time_of(0), t + Nanos::from_millis(5));
        assert!(w.profile.ranks[0].app_time >= Nanos::from_millis(5));
    }

    #[test]
    fn try_ops_survive_one_way_link_loss() {
        // Asymmetric loss degrades (retransmits) but never partitions:
        // the try_* family must slow down, not error out.
        let clean = {
            let mut w = world(4, 4);
            w.try_exchange(&[(0, 1, 64 * 1024), (2, 3, 64 * 1024)]).unwrap();
            w.try_allreduce(8).unwrap();
            w.try_barrier().unwrap();
            w.elapsed()
        };
        let mut w = world(4, 4);
        w.cluster.faults_mut().set_seed(9);
        w.cluster.faults_mut().set_loss_oneway(0, 1, 0.9);
        w.try_exchange(&[(0, 1, 64 * 1024), (2, 3, 64 * 1024)]).unwrap();
        w.try_allreduce(8).unwrap();
        w.try_barrier().unwrap();
        assert!(w.elapsed() > clean, "90% one-way loss must cost retransmissions");
        assert!(w.try_heartbeat().is_ok(), "loss is not a failure");
    }

    #[test]
    fn try_ops_ride_out_flapping_partitions() {
        // A flapping partition: split → heal → split → heal. Every
        // split surfaces as a retryable error, every heal restores the
        // full collective set — no state is wedged in between.
        let mut w = world(4, 8);
        for _flap in 0..2 {
            w.cluster.faults_mut().partition(&[0, 1]);
            assert!(matches!(w.try_barrier(), Err(MpiError::PeerUnreachable { .. })));
            assert!(matches!(
                w.try_exchange(&[(0, 2, 1024)]),
                Err(MpiError::PeerUnreachable { .. })
            ));
            w.cluster.faults_mut().heal_partition();
            assert!(w.try_barrier().is_ok());
            assert!(w.try_allreduce(8).is_ok());
            assert!(w.try_exchange(&[(0, 2, 1024)]).is_ok());
        }
    }

    #[test]
    fn backoff_saturates_instead_of_overflowing() {
        let p = RetryPolicy { max_attempts: 4, base_delay: Nanos::from_micros(50) };
        // Attempt numbers far past the shift width must not panic.
        assert_eq!(p.backoff(65), p.backoff(200));
        assert_eq!(p.backoff(200), Nanos::MAX, "saturated, not wrapped");
        // And a pathological policy's total penalty saturates too.
        let absurd = RetryPolicy { max_attempts: 256, base_delay: Nanos::MAX };
        assert_eq!(absurd.total_penalty(Nanos::from_millis(10)), Nanos::MAX);
    }

    #[test]
    fn try_collectives_fail_under_partition_then_recover() {
        let mut w = world(4, 4);
        w.cluster.faults_mut().partition(&[0, 1]);
        assert!(w.try_barrier().is_err());
        assert!(w.try_allreduce(8).is_err());
        assert!(w.try_exchange(&[(0, 2, 1024)]).is_err());
        let stalled = w.elapsed();
        assert!(stalled > Nanos::ZERO, "failed collectives must charge their timeouts");
        w.cluster.faults_mut().heal_partition();
        assert!(w.try_barrier().is_ok());
        assert!(w.try_exchange(&[(0, 2, 1024)]).is_ok());
    }

    #[test]
    fn backoff_grows_exponentially_and_scales_penalty() {
        let p = RetryPolicy { max_attempts: 3, base_delay: Nanos::from_micros(10) };
        assert_eq!(p.backoff(1), Nanos::from_micros(10));
        assert_eq!(p.backoff(2), Nanos::from_micros(20));
        assert_eq!(p.backoff(3), Nanos::from_micros(40));
        let timeout = Nanos::from_millis(1);
        let short = RetryPolicy { max_attempts: 2, ..p }.total_penalty(timeout);
        let long = RetryPolicy { max_attempts: 5, ..p }.total_penalty(timeout);
        assert!(long > short * 2);
    }

    #[test]
    fn healthy_plane_try_ops_match_plain_ops() {
        let run = |fallible: bool| {
            let mut w = world(3, 6);
            let d = Demand { fp_ops: 2e8, ..Default::default() };
            for r in 0..6 {
                w.compute(r, &d);
            }
            if fallible {
                w.try_exchange(&[(0, 1, 8192)]).unwrap();
                w.try_allreduce(8).unwrap();
                w.try_barrier().unwrap();
            } else {
                w.exchange(&[(0, 1, 8192)]);
                w.allreduce(8);
                w.barrier();
            }
            w.elapsed()
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut w = world(3, 9);
            let d = Demand { fp_ops: 2e8, mem_stream_bytes: 1e6, ..Default::default() };
            for step in 0..4 {
                for r in 0..9 {
                    w.compute(r, &d);
                }
                w.exchange(&[(0, 1, 8192), (2, 3, 8192), (4, 5, 8192)]);
                if step % 2 == 0 {
                    w.allreduce(8);
                } else {
                    w.barrier();
                }
            }
            (w.elapsed(), w.profile)
        };
        let (t1, p1) = run();
        let (t2, p2) = run();
        assert_eq!(t1, t2);
        assert_eq!(p1, p2);
    }
}
