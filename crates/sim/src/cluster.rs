//! A simulated cluster: N identical nodes plus a fabric.
//!
//! This is the object the use-case crates program against — the stand-in
//! for a CloudLab allocation (`popper-gassyfs`), an HPC partition
//! (`popper-minimpi`) or a single old workstation (`popper-torpor` with
//! one node).

use crate::hardware::{Demand, PlatformSpec};
use crate::network::Fabric;
use crate::noise::{NoisyNeighbor, OsNoise};
use crate::resource::MultiServer;
use crate::time::Nanos;

/// Mutable per-node state.
#[derive(Debug, Clone)]
pub struct Node {
    /// Core pool used for compute admission.
    pub cores: MultiServer,
    /// Bytes of memory allocated on this node (GassyFS bookkeeping).
    pub mem_used: u64,
    /// Optional periodic OS noise on this node.
    pub noise: Option<OsNoise>,
    /// Optional co-located tenant.
    pub neighbor: NoisyNeighbor,
}

/// A cluster of identical nodes.
#[derive(Debug, Clone)]
pub struct Cluster {
    platform: PlatformSpec,
    nodes: Vec<Node>,
    /// The network connecting the nodes.
    pub fabric: Fabric,
}

impl Cluster {
    /// Build a cluster of `n` nodes of the given platform, connected by a
    /// full-bisection fabric derived from the platform's NIC.
    pub fn new(platform: PlatformSpec, n: usize) -> Self {
        assert!(n >= 1, "cluster needs at least one node");
        let fabric = Fabric::new(n, platform.nic_gbit, Nanos::from_nanos(platform.nic_lat_ns as u64), 1.0);
        let nodes = (0..n)
            .map(|_| Node {
                cores: MultiServer::new(platform.cores),
                mem_used: 0,
                noise: None,
                neighbor: NoisyNeighbor::none(),
            })
            .collect();
        Cluster { platform, nodes, fabric }
    }

    /// The platform every node runs.
    pub fn platform(&self) -> &PlatformSpec {
        &self.platform
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True for a zero-node cluster (never constructed, but keeps clippy
    /// and callers honest).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Borrow a node.
    pub fn node(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    /// Install periodic OS noise on one node.
    pub fn set_noise(&mut self, node: usize, noise: Option<OsNoise>) {
        self.nodes[node].noise = noise;
    }

    /// Install a noisy neighbor on one node.
    pub fn set_neighbor(&mut self, node: usize, neighbor: NoisyNeighbor) {
        self.nodes[node].neighbor = neighbor;
    }

    /// Admit `demand` as one task on `node` starting no earlier than
    /// `now`; returns its completion time. The task occupies one core;
    /// noise and neighbor inflation apply.
    pub fn compute(&mut self, node: usize, demand: &Demand, now: Nanos) -> Nanos {
        let base = self.platform.execute(demand);
        let nd = &mut self.nodes[node];
        let inflated = nd.neighbor.inflate_compute(base);
        let (_, start, _) = nd.cores.admit(now, inflated);
        match nd.noise {
            // Under noise, the busy interval stretches: recompute the
            // finish by walking noise windows from the start time.
            Some(noise) => noise.finish(start, inflated),
            None => start + inflated,
        }
    }

    /// Pure function variant of [`compute`](Self::compute): duration of
    /// `demand` on `node` including neighbor inflation but with no core
    /// queueing (used by analytic callers that manage their own
    /// schedules).
    pub fn compute_duration(&self, node: usize, demand: &Demand) -> Nanos {
        self.nodes[node].neighbor.inflate_compute(self.platform.execute(demand))
    }

    /// Transfer `bytes` between nodes through the fabric, applying the
    /// sender's neighbor network inflation as reduced effective bandwidth
    /// (approximated by inflating the completion span).
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: u64, now: Nanos) -> Nanos {
        let done = self.fabric.transfer(src, dst, bytes, now);
        let span = done.saturating_sub(now);
        now + self.nodes[src].neighbor.inflate_network(span)
    }

    /// Allocate `bytes` of memory on `node`; errors if the platform's
    /// capacity would be exceeded.
    pub fn alloc_mem(&mut self, node: usize, bytes: u64) -> Result<(), String> {
        let cap = (self.platform.mem_gib * 1024.0 * 1024.0 * 1024.0) as u64;
        let nd = &mut self.nodes[node];
        if nd.mem_used + bytes > cap {
            return Err(format!(
                "node {node} out of memory: {} + {} > {} bytes",
                nd.mem_used, bytes, cap
            ));
        }
        nd.mem_used += bytes;
        Ok(())
    }

    /// Free `bytes` on `node` (saturating).
    pub fn free_mem(&mut self, node: usize, bytes: u64) {
        let nd = &mut self.nodes[node];
        nd.mem_used = nd.mem_used.saturating_sub(bytes);
    }

    /// Total memory allocated across the cluster.
    pub fn total_mem_used(&self) -> u64 {
        self.nodes.iter().map(|n| n.mem_used).sum()
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platforms;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(platforms::cloudlab_c220g(), n)
    }

    #[test]
    fn compute_occupies_cores_fifo() {
        let mut c = cluster(1);
        let d = Demand { int_ops: 2.4e9 * 3.0, ..Default::default() }; // ~1 s on c220g
        let cores = c.platform().cores;
        // Fill every core once: all finish at ~1 s.
        let first: Vec<Nanos> = (0..cores).map(|_| c.compute(0, &d, Nanos::ZERO)).collect();
        // One more queues behind.
        let extra = c.compute(0, &d, Nanos::ZERO);
        assert!(extra > first[0]);
        assert!((extra.as_secs_f64() / first[0].as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn neighbor_slows_compute() {
        let mut quiet = cluster(1);
        let mut noisy = cluster(1);
        noisy.set_neighbor(0, NoisyNeighbor::new(0.5, 0.0));
        let d = Demand { fp_ops: 1e9, ..Default::default() };
        let tq = quiet.compute(0, &d, Nanos::ZERO);
        let tn = noisy.compute(0, &d, Nanos::ZERO);
        assert!((tn.as_secs_f64() / tq.as_secs_f64() - 2.0).abs() < 0.01);
    }

    #[test]
    fn os_noise_inflates_finish() {
        let mut c = cluster(1);
        c.set_noise(0, Some(OsNoise::new(Nanos::from_millis(10), Nanos::from_millis(1), Nanos::from_millis(3))));
        let d = Demand { int_ops: 2.4e9 * 3.0, ..Default::default() }; // ~1 s
        let done = c.compute(0, &d, Nanos::ZERO);
        let inflation = done.as_secs_f64() / 1.0;
        assert!(inflation > 1.08 && inflation < 1.13, "inflation {inflation}");
    }

    #[test]
    fn memory_accounting_enforces_capacity() {
        let mut c = cluster(2);
        let gib = 1u64 << 30;
        c.alloc_mem(0, 100 * gib).unwrap();
        assert!(c.alloc_mem(0, 50 * gib).is_err()); // 128 GiB/node
        c.free_mem(0, 90 * gib);
        c.alloc_mem(0, 50 * gib).unwrap();
        assert_eq!(c.total_mem_used(), 60 * gib);
    }

    #[test]
    fn transfer_neighbor_inflation() {
        let mut quiet = cluster(2);
        let mut noisy = cluster(2);
        noisy.set_neighbor(0, NoisyNeighbor::new(0.0, 0.5));
        let bytes = 12_500_000; // 10 ms at 10 Gbit
        let tq = quiet.transfer(0, 1, bytes, Nanos::ZERO);
        let tn = noisy.transfer(0, 1, bytes, Nanos::ZERO);
        assert!(tn > tq);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut c = cluster(4);
            c.set_noise(2, Some(OsNoise::new(Nanos::from_millis(5), Nanos::from_micros(200), Nanos::ZERO)));
            let d = Demand { int_ops: 1e8, mem_stream_bytes: 1e7, ..Default::default() };
            let mut acc = Vec::new();
            for i in 0..16 {
                let node = i % 4;
                acc.push(c.compute(node, &d, Nanos::from_micros(i as u64 * 10)));
                acc.push(c.transfer(node, (node + 1) % 4, 4096, Nanos::from_micros(i as u64 * 10)));
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
