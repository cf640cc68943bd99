//! GassyFS proper: VFS + page store + virtual-time accounting +
//! checkpoint/restore.
//!
//! Every operation takes the caller's current virtual time and returns
//! the completion time, so concurrent "make jobs" (see
//! [`crate::workload`]) can interleave their I/O through the shared
//! fabric exactly like processes sharing one FUSE mount. Each operation
//! also pays a FUSE/syscall overhead on the client node — the paper
//! notes GassyFS "uses FUSE, which can be given more than 30 different
//! options"; the ones that matter to performance are modeled in
//! [`MountOptions`].

use crate::cache::PageCache;
use crate::gasnet::{GasnetStore, PAGE_SIZE};
use crate::vfs::{FsError, Stat, Vfs};
use popper_sim::{Cluster, Demand, Nanos};
use popper_store::{ChunkStore, Manifest};

/// FUSE mount options that affect the performance model. (The real
/// mount accepts 30+; these are the load-bearing ones.)
#[derive(Debug, Clone, PartialEq)]
pub struct MountOptions {
    /// Keep a client-side page cache of this many pages (0 disables —
    /// FUSE `direct_io`).
    pub page_cache_pages: usize,
    /// Maximum bytes per FUSE write request (`max_write`).
    pub max_write: u64,
    /// Writeback caching: object writes return after the local copy
    /// (remote placement happens asynchronously and is charged at half
    /// cost to model overlap).
    pub writeback: bool,
    /// Extra syscall cost multiplier for FUSE user-kernel crossings.
    pub fuse_crossing_cost: f64,
}

impl Default for MountOptions {
    fn default() -> Self {
        MountOptions { page_cache_pages: 1024, max_write: 128 * 1024, writeback: false, fuse_crossing_cost: 1.0 }
    }
}

/// The mounted filesystem.
#[derive(Debug, Clone)]
pub struct GassyFs {
    vfs: Vfs,
    store: GasnetStore,
    /// The simulated cluster backing the mount.
    pub cluster: Cluster,
    opts: MountOptions,
    /// The client's LRU page cache (a hit refreshes the page).
    cache: PageCache,
    ops: u64,
}

impl GassyFs {
    /// Mount GassyFS over `cluster` with the client (FUSE) on node 0.
    pub fn mount(cluster: Cluster, opts: MountOptions) -> Self {
        let cache = PageCache::new(opts.page_cache_pages);
        GassyFs { vfs: Vfs::new(), store: GasnetStore::new(0), cluster, opts, cache, ops: 0 }
    }

    /// The FUSE/syscall overhead of one operation.
    fn op_overhead(&mut self) -> Nanos {
        self.ops += 1;
        let d = Demand { syscalls: 2.0 * self.opts.fuse_crossing_cost, int_ops: 2_000.0, ..Default::default() };
        self.cluster.compute_duration(self.store.client, &d)
    }

    // ---- namespace operations ----

    /// `mkdir -p`.
    pub fn mkdir_p(&mut self, path: &str, now: Nanos) -> Result<Nanos, FsError> {
        self.vfs.mkdir_p(path)?;
        Ok(now + self.op_overhead())
    }

    /// Create an empty file.
    pub fn create(&mut self, path: &str, now: Nanos) -> Result<Nanos, FsError> {
        self.vfs.create(path)?;
        Ok(now + self.op_overhead())
    }

    /// Write a whole file (create-or-truncate then append), returning
    /// the completion time: [`GassyFs::write_timing`] plus the page
    /// contents.
    pub fn write_file(&mut self, path: &str, data: &[u8], now: Nanos) -> Result<Nanos, FsError> {
        let t = self.write_timing(path, data.len(), now)?;
        let ino = self.vfs.file_ino(path)?;
        for (page, chunk) in self.vfs.pages(ino).iter().zip(data.chunks(PAGE_SIZE as usize)) {
            self.store.set_contents(*page, chunk.to_vec());
        }
        Ok(t)
    }

    /// Timing-only write of `len` bytes (pages allocated and charged,
    /// contents left as zero pages) — what workload replay uses.
    pub fn write_timing(&mut self, path: &str, len: usize, now: Nanos) -> Result<Nanos, FsError> {
        let ino = match self.vfs.file_ino(path) {
            Ok(ino) => {
                let freed = self.vfs.truncate(ino);
                self.store.free(&mut self.cluster, &freed);
                self.cache.evict(&freed);
                ino
            }
            Err(FsError::NotFound(_)) => {
                self.vfs.create(path)?;
                self.vfs.file_ino(path)?
            }
            Err(e) => return Err(e),
        };
        let mut t = now + self.op_overhead();
        let n_pages = len.div_ceil(PAGE_SIZE as usize);
        let pages = self.store.alloc(&mut self.cluster, n_pages).map_err(|_| FsError::NoSpace)?;
        // One FUSE crossing per max_write request.
        let requests = (len as u64).div_ceil(self.opts.max_write).max(1);
        for _ in 1..requests {
            t += self.op_overhead();
        }
        for page in &pages {
            let done = self.store.write_page(&mut self.cluster, *page, t);
            t = if self.opts.writeback {
                // Overlap remote placement with the writer: charge half.
                t + (done.saturating_sub(t)) / 2
            } else {
                done
            };
            self.cache.insert(*page);
        }
        self.vfs.append_pages(ino, &pages, len as u64);
        Ok(t)
    }

    /// Read a whole file; returns `(contents, completion time)`.
    pub fn read_file(&mut self, path: &str, now: Nanos) -> Result<(Vec<u8>, Nanos), FsError> {
        let ino = self.vfs.file_ino(path)?;
        let size = self.vfs.stat(path)?.size as usize;
        let mut t = now + self.op_overhead();
        let mut out = Vec::with_capacity(size);
        for &page in self.vfs.pages(ino) {
            if !self.cache.hit(page) {
                t = self.store.read_page(&mut self.cluster, page, t);
                self.cache.insert(page);
            }
            out.extend_from_slice(&self.store.get_contents(page));
        }
        out.truncate(size);
        Ok((out, t))
    }

    /// Timing-only read (contents discarded) — what workload replay uses.
    pub fn read_timing(&mut self, path: &str, now: Nanos) -> Result<Nanos, FsError> {
        let ino = self.vfs.file_ino(path)?;
        let mut t = now + self.op_overhead();
        for &page in self.vfs.pages(ino) {
            if !self.cache.hit(page) {
                t = self.store.read_page(&mut self.cluster, page, t);
                self.cache.insert(page);
            }
        }
        Ok(t)
    }

    /// Unlink a file.
    pub fn unlink(&mut self, path: &str, now: Nanos) -> Result<Nanos, FsError> {
        let freed = self.vfs.unlink(path)?;
        self.store.free(&mut self.cluster, &freed);
        self.cache.evict(&freed);
        Ok(now + self.op_overhead())
    }

    /// Rename.
    pub fn rename(&mut self, from: &str, to: &str, now: Nanos) -> Result<Nanos, FsError> {
        self.vfs.rename(from, to)?;
        Ok(now + self.op_overhead())
    }

    /// Stat.
    pub fn stat(&self, path: &str) -> Result<Stat, FsError> {
        self.vfs.stat(path)
    }

    /// Readdir.
    pub fn readdir(&self, path: &str) -> Result<Vec<String>, FsError> {
        self.vfs.readdir(path)
    }

    /// Locality counters.
    pub fn access_stats(&self) -> crate::gasnet::AccessStats {
        self.store.stats()
    }

    /// Bytes of file contents the page store keeps; timing-only
    /// writes keep none.
    pub fn content_bytes(&self) -> u64 {
        self.store.content_bytes()
    }

    /// FUSE operations served.
    pub fn op_count(&self) -> u64 {
        self.ops
    }

    // ---- persistence (the paper: "file systems in GassyFS are
    // ephemeral … explicitly saved/loaded to/from durable storage,
    // e.g. local disk or Amazon S3") ----

    /// Checkpoint every file into `durable`; returns `(path, manifest)`
    /// pairs plus the completion time (reading remote pages + writing
    /// to the client's disk).
    pub fn checkpoint(
        &mut self,
        durable: &mut ChunkStore,
        now: Nanos,
    ) -> Result<(Vec<(String, Manifest)>, Nanos), FsError> {
        let mut t = now;
        let mut out = Vec::new();
        let files = self.vfs.walk_files();
        for (path, _ino) in files {
            let (data, t2) = self.read_file(&path, t)?;
            // Disk write on the client.
            let disk = self.cluster.platform().disk_io(data.len() as u64);
            t = t2 + disk;
            out.push((path.clone(), durable.put(&data)));
        }
        Ok((out, t))
    }

    /// Restore a checkpoint into this (empty) filesystem.
    pub fn restore(
        &mut self,
        durable: &ChunkStore,
        checkpoint: &[(String, Manifest)],
        now: Nanos,
    ) -> Result<Nanos, FsError> {
        let mut t = now;
        for (path, manifest) in checkpoint {
            let data = durable.get(manifest).map_err(|_| FsError::NotFound(path.clone()))?;
            if let Some(dir) = path.rfind('/') {
                if dir > 0 {
                    self.mkdir_p(&path[..dir], t)?;
                }
            }
            let disk = self.cluster.platform().disk_io(data.len() as u64);
            t = self.write_file(path, &data, t + disk)?;
        }
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    fn mount(nodes: usize) -> GassyFs {
        GassyFs::mount(Cluster::new(platforms::gassyfs_node(), nodes), MountOptions::default())
    }

    #[test]
    fn write_read_round_trip() {
        let mut fs = mount(4);
        fs.mkdir_p("/src", Nanos::ZERO).unwrap();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let t1 = fs.write_file("/src/main.c", &data, Nanos::ZERO).unwrap();
        assert!(t1 > Nanos::ZERO);
        let (back, _t2) = fs.read_file("/src/main.c", t1).unwrap();
        assert_eq!(back, data);
        assert_eq!(fs.stat("/src/main.c").unwrap().size, 20_000);
        assert_eq!(fs.stat("/src/main.c").unwrap().pages, 5);
    }

    #[test]
    fn overwrite_frees_old_pages() {
        let mut fs = mount(2);
        fs.write_file("/f", &[1u8; 8192], Nanos::ZERO).unwrap();
        let used_before = fs.cluster.total_mem_used();
        fs.write_file("/f", &[2u8; 4096], Nanos::ZERO).unwrap();
        assert!(fs.cluster.total_mem_used() < used_before);
        let (back, _) = fs.read_file("/f", Nanos::ZERO).unwrap();
        assert_eq!(back, vec![2u8; 4096]);
    }

    #[test]
    fn more_nodes_more_remote_accesses() {
        let data = vec![7u8; 64 * PAGE_SIZE as usize];
        let frac = |nodes: usize| {
            let mut fs = GassyFs::mount(
                Cluster::new(platforms::gassyfs_node(), nodes),
                MountOptions { page_cache_pages: 0, ..Default::default() },
            );
            fs.write_file("/big", &data, Nanos::ZERO).unwrap();
            fs.read_timing("/big", Nanos::ZERO).unwrap();
            fs.access_stats().remote_fraction()
        };
        assert_eq!(frac(1), 0.0);
        let f2 = frac(2);
        let f4 = frac(4);
        let f8 = frac(8);
        assert!(f2 > 0.4 && f2 < 0.6, "f2={f2}");
        assert!(f4 > f2 && f8 > f4, "remote fraction must grow: {f2} {f4} {f8}");
    }

    #[test]
    fn page_cache_eliminates_repeat_transfers() {
        let data = vec![1u8; 32 * PAGE_SIZE as usize];
        let mut fs = mount(4);
        fs.write_file("/f", &data, Nanos::ZERO).unwrap();
        // Writes populated the cache, so reads never touch the fabric.
        let remote_after_write = fs.access_stats().remote;
        let t1 = fs.read_timing("/f", Nanos::ZERO).unwrap();
        fs.read_timing("/f", t1).unwrap();
        assert_eq!(fs.access_stats().remote, remote_after_write);
        // A cached read costs only the FUSE overhead — far less than one
        // fabric latency per page.
        assert!(t1 < fs.cluster.fabric.latency(), "cached read {t1} should beat one fabric RTT");
    }

    #[test]
    fn direct_io_disables_cache() {
        let data = vec![1u8; 8 * PAGE_SIZE as usize];
        let mut fs = GassyFs::mount(
            Cluster::new(platforms::gassyfs_node(), 4),
            MountOptions { page_cache_pages: 0, ..Default::default() },
        );
        fs.write_file("/f", &data, Nanos::ZERO).unwrap();
        let before = fs.access_stats().remote;
        fs.read_timing("/f", Nanos::ZERO).unwrap();
        fs.read_timing("/f", Nanos::ZERO).unwrap();
        let after = fs.access_stats().remote;
        assert!(after >= before + 12, "both reads must hit the fabric (remote {before} -> {after})");
    }

    #[test]
    fn writeback_mode_is_faster() {
        let data = vec![1u8; 128 * PAGE_SIZE as usize];
        let mut sync_fs = GassyFs::mount(Cluster::new(platforms::gassyfs_node(), 4), MountOptions::default());
        let mut wb_fs = GassyFs::mount(
            Cluster::new(platforms::gassyfs_node(), 4),
            MountOptions { writeback: true, ..Default::default() },
        );
        let t_sync = sync_fs.write_file("/f", &data, Nanos::ZERO).unwrap();
        let t_wb = wb_fs.write_file("/f", &data, Nanos::ZERO).unwrap();
        assert!(t_wb < t_sync, "writeback {t_wb} should beat sync {t_sync}");
    }

    #[test]
    fn unlink_returns_memory() {
        let mut fs = mount(2);
        fs.write_file("/f", &[1u8; 4 * PAGE_SIZE as usize], Nanos::ZERO).unwrap();
        assert!(fs.cluster.total_mem_used() > 0);
        fs.unlink("/f", Nanos::ZERO).unwrap();
        assert_eq!(fs.cluster.total_mem_used(), 0);
    }

    #[test]
    fn checkpoint_restore_round_trip() {
        let mut fs = mount(4);
        fs.mkdir_p("/proj/src", Nanos::ZERO).unwrap();
        fs.write_file("/proj/src/a.c", b"int a;", Nanos::ZERO).unwrap();
        fs.write_file("/proj/Makefile", b"all: a.o", Nanos::ZERO).unwrap();
        let mut durable = ChunkStore::new();
        let (ckpt, t) = fs.checkpoint(&mut durable, Nanos::ZERO).unwrap();
        assert_eq!(ckpt.len(), 2);
        assert!(t > Nanos::ZERO);

        // Cluster "crashes"; restore into a fresh mount.
        let mut fresh = mount(2);
        fresh.restore(&durable, &ckpt, Nanos::ZERO).unwrap();
        let (a, _) = fresh.read_file("/proj/src/a.c", Nanos::ZERO).unwrap();
        assert_eq!(a, b"int a;");
        let (mk, _) = fresh.read_file("/proj/Makefile", Nanos::ZERO).unwrap();
        assert_eq!(mk, b"all: a.o");
    }

    #[test]
    fn op_count_tracks_fuse_crossings() {
        let mut fs = mount(1);
        fs.mkdir_p("/d", Nanos::ZERO).unwrap();
        fs.write_file("/d/f", &[0u8; 10], Nanos::ZERO).unwrap();
        fs.read_timing("/d/f", Nanos::ZERO).unwrap();
        assert!(fs.op_count() >= 3);
    }
}
