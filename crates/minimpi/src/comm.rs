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
use popper_trace::NumberedTracks;

/// The world: a communicator over a simulated cluster.
#[derive(Debug, Clone)]
pub struct MpiWorld {
    /// The underlying cluster.
    pub cluster: Cluster,
    rank_node: Vec<usize>,
    rank_time: Vec<Nanos>,
    /// The mpiP-style profiler.
    pub profile: MpiProfile,
    /// The ranks' trace tracks.
    tracks: NumberedTracks,
}

impl MpiWorld {
    /// Create `ranks` ranks over `cluster`, placed round-robin across
    /// nodes (block placement would under-use the fabric model).
    pub fn new(cluster: Cluster, ranks: usize) -> Self {
        assert!(ranks > 0, "a world needs at least one rank");
        let nodes = cluster.len();
        MpiWorld {
            cluster,
            rank_node: (0..ranks).map(|r| r % nodes).collect(),
            rank_time: vec![Nanos::ZERO; ranks],
            profile: MpiProfile::new(ranks),
            tracks: NumberedTracks::new("mpi/rank"),
        }
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
    fn trace_op(&mut self, name: &'static str, rank: usize, start: Nanos, end: Nanos) {
        let tracer = popper_trace::current();
        if tracer.is_enabled() && end > start {
            tracer.span_at("mpi", self.tracks.get(rank), name, start.0, end.0);
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
        self.trace_op("compute", rank, start, finish);
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
                self.trace_op("exchange", r, before[r], t);
            }
            self.rank_time[r] = self.rank_time[r].max(t);
        }
    }

    /// Tree-based collective cost: `rounds` sequential hops of
    /// `latency + serialization(bytes)` over the fabric's parameters.
    fn collective_cost(&self, rounds: u32, bytes: u64) -> Nanos {
        let lat = self.cluster.fabric.latency();
        let ser = Nanos::from_secs_f64(bytes as f64 * 8.0 / (self.cluster.fabric.link_gbit() * 1e9));
        (lat + ser) * rounds as u64
    }

    /// ⌈log2 n⌉ (minimum 1): rounds in a dissemination/tree collective.
    pub(crate) fn log2_ceil(n: usize) -> u32 {
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
            self.trace_op("barrier", r, self.rank_time[r], done);
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
            self.trace_op("allreduce", r, self.rank_time[r], done);
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
            self.trace_op("bcast", r, self.rank_time[r], done);
            self.rank_time[r] = self.rank_time[r].max(done);
        }
    }

    /// Reduce to `root` (⌈log2 n⌉ rounds); only the root advances to the
    /// reduced time, other ranks continue after their send.
    pub fn reduce(&mut self, root: usize, bytes: u64) {
        let arrive = self.elapsed();
        let cost = self.collective_cost(Self::log2_ceil(self.size()), bytes);
        let done = arrive + cost;
        let waited_root = done - self.rank_time[root];
        self.profile.record_mpi(root, MpiOp::Reduce, waited_root, 0);
        self.trace_op("reduce", root, self.rank_time[root], done);
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
