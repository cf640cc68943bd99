//! The GASNet-like remote-memory page store.
//!
//! GassyFS "stripes file data across the aggregated memory of the
//! cluster". Pages are allocated round-robin over the nodes; an access
//! from the client node pays nothing for local pages and one fabric
//! transfer for remote pages. The store also keeps the *contents* of
//! pages (for checkpoint fidelity) and locality counters (for the
//! experiment's metrics).

use crate::vfs::PageId;
use popper_sim::{Cluster, Nanos};
use popper_trace::NumberedTracks;
use std::collections::BTreeMap;

/// Page size in bytes (FUSE default transfer granularity).
pub const PAGE_SIZE: u64 = 4096;

/// Locality counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AccessStats {
    /// Page accesses served from the client's own memory.
    pub local: u64,
    /// Page accesses that crossed the fabric.
    pub remote: u64,
}

impl AccessStats {
    /// Fraction of accesses that were remote (0 when idle).
    pub fn remote_fraction(&self) -> f64 {
        let total = self.local + self.remote;
        if total == 0 {
            return 0.0;
        }
        self.remote as f64 / total as f64
    }

}

/// The striped page store.
#[derive(Debug, Clone)]
pub struct GasnetStore {
    /// Which node each page resides on, indexed by page id (ids are
    /// dense from 1; `None` for id 0 and for freed pages).
    placement: Vec<Option<usize>>,
    /// Contents of the pages written with contents; every other page is
    /// a zero page and keeps none, which bounds memory in big
    /// simulations.
    contents: BTreeMap<PageId, Vec<u8>>,
    next_node: usize,
    /// The node issuing I/O (where FUSE is mounted).
    pub client: usize,
    stats: AccessStats,
    /// The serving nodes' trace tracks.
    tracks: NumberedTracks,
}

impl GasnetStore {
    /// A store for a cluster whose client (FUSE mount) is `client`.
    pub fn new(client: usize) -> Self {
        GasnetStore {
            placement: vec![None],
            contents: BTreeMap::new(),
            next_node: 0,
            client,
            stats: AccessStats::default(),
            tracks: NumberedTracks::new("gassyfs/node"),
        }
    }

    /// Allocate `n` pages striped over the cluster, charging the
    /// cluster's memory accounting. Returns the new page ids.
    pub fn alloc(&mut self, cluster: &mut Cluster, n: usize) -> Result<Vec<PageId>, String> {
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let node = self.next_node % cluster.len();
            cluster.alloc_mem(node, PAGE_SIZE)?;
            self.next_node += 1;
            out.push(self.placement.len() as PageId);
            self.placement.push(Some(node));
        }
        Ok(out)
    }

    /// Free pages.
    pub fn free(&mut self, cluster: &mut Cluster, pages: &[PageId]) {
        for p in pages {
            if let Some(node) = self.placement.get_mut(*p as usize).and_then(Option::take) {
                cluster.free_mem(node, PAGE_SIZE);
            }
            self.contents.remove(p);
        }
    }

    /// The node a page lives on.
    pub fn node_of(&self, page: PageId) -> Option<usize> {
        self.placement.get(page as usize).copied().flatten()
    }


    /// Size of a GASNet control message (read request / write ack).
    const CTRL_BYTES: u64 = 64;

    /// Charge one page *read* from the client at `now`; returns the
    /// completion time. A remote read is an RPC: request out, page back.
    pub fn read_page(&mut self, cluster: &mut Cluster, page: PageId, now: Nanos) -> Nanos {
        let node = self.node_of(page).expect("page is allocated");
        if node == self.client {
            self.stats.local += 1;
            now
        } else {
            self.stats.remote += 1;
            let arrived = cluster.transfer(self.client, node, Self::CTRL_BYTES, now);
            let done = cluster.transfer(node, self.client, PAGE_SIZE, arrived);
            self.trace_rpc("read_page", node, now, done);
            done
        }
    }

    /// Record one remote-page RPC on the serving node's track.
    fn trace_rpc(&mut self, name: &'static str, node: usize, start: Nanos, end: Nanos) {
        let tracer = popper_trace::current();
        if tracer.is_enabled() {
            tracer.span_at("rpc", self.tracks.get(node), name, start.0, end.0);
        }
    }

    /// Charge one page *write* from the client at `now`; returns the
    /// completion time. A remote write is an RPC: page out, ack back.
    pub fn write_page(&mut self, cluster: &mut Cluster, page: PageId, now: Nanos) -> Nanos {
        let node = self.node_of(page).expect("page is allocated");
        if node == self.client {
            self.stats.local += 1;
            now
        } else {
            self.stats.remote += 1;
            let arrived = cluster.transfer(self.client, node, PAGE_SIZE, now);
            let done = cluster.transfer(node, self.client, Self::CTRL_BYTES, arrived);
            self.trace_rpc("write_page", node, now, done);
            done
        }
    }

    /// Store page contents (checkpoint fidelity; timing is charged
    /// separately by the caller via write_page).
    pub fn set_contents(&mut self, page: PageId, data: Vec<u8>) {
        debug_assert!(data.len() as u64 <= PAGE_SIZE);
        self.contents.insert(page, data);
    }

    /// Fetch page contents (zero page if never written).
    pub fn get_contents(&self, page: PageId) -> Vec<u8> {
        match self.contents.get(&page) {
            Some(d) => d.clone(),
            None => vec![0; PAGE_SIZE as usize],
        }
    }

    /// Bytes of page contents the store keeps (pages never written
    /// with contents are zero pages and keep none).
    pub fn content_bytes(&self) -> u64 {
        self.contents.values().map(|d| d.len() as u64).sum()
    }

    /// Locality counters so far.
    pub fn stats(&self) -> AccessStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    fn cluster(n: usize) -> Cluster {
        Cluster::new(platforms::gassyfs_node(), n)
    }

    #[test]
    fn round_robin_striping() {
        let mut c = cluster(4);
        let mut s = GasnetStore::new(0);
        let pages = s.alloc(&mut c, 8).unwrap();
        let nodes: Vec<usize> = pages.iter().map(|p| s.node_of(*p).unwrap()).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        assert_eq!(c.total_mem_used(), 8 * PAGE_SIZE);
    }

    #[test]
    fn local_access_is_free_remote_pays_fabric() {
        let mut c = cluster(2);
        let mut s = GasnetStore::new(0);
        let pages = s.alloc(&mut c, 2).unwrap();
        let t_local = s.read_page(&mut c, pages[0], Nanos::ZERO); // node 0
        let t_remote = s.read_page(&mut c, pages[1], Nanos::ZERO); // node 1
        assert_eq!(t_local, Nanos::ZERO);
        assert!(t_remote > Nanos::ZERO);
        assert_eq!(s.stats(), AccessStats { local: 1, remote: 1 });
        assert_eq!(s.stats().remote_fraction(), 0.5);
    }

    #[test]
    fn single_node_cluster_is_all_local() {
        let mut c = cluster(1);
        let mut s = GasnetStore::new(0);
        let pages = s.alloc(&mut c, 16).unwrap();
        let mut t = Nanos::ZERO;
        for p in &pages {
            t = s.read_page(&mut c, *p, t);
        }
        assert_eq!(t, Nanos::ZERO);
        assert_eq!(s.stats().remote_fraction(), 0.0);
    }

    #[test]
    fn free_releases_memory() {
        let mut c = cluster(2);
        let mut s = GasnetStore::new(0);
        let pages = s.alloc(&mut c, 4).unwrap();
        s.free(&mut c, &pages);
        assert_eq!(c.total_mem_used(), 0);
    }

    #[test]
    fn contents_round_trip() {
        let mut c = cluster(2);
        let mut s = GasnetStore::new(0);
        let pages = s.alloc(&mut c, 2).unwrap();
        assert_eq!(s.get_contents(pages[0]), vec![0; PAGE_SIZE as usize]);
        s.set_contents(pages[0], b"checkpoint me".to_vec());
        assert_eq!(s.get_contents(pages[0]), b"checkpoint me");
    }

    #[test]
    fn alloc_fails_when_cluster_memory_exhausted() {
        // Tiny-memory platform to hit the wall fast.
        let mut platform = platforms::gassyfs_node();
        platform.mem_gib = PAGE_SIZE as f64 * 3.0 / (1024.0 * 1024.0 * 1024.0);
        let mut c = Cluster::new(platform, 1);
        let mut s = GasnetStore::new(0);
        assert!(s.alloc(&mut c, 3).is_ok());
        assert!(s.alloc(&mut c, 1).is_err());
    }
}
