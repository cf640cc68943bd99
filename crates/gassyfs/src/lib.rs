//! # popper-gassyfs
//!
//! **GassyFS** — the in-memory distributed filesystem of the paper's
//! flagship use case (§Use case: *Evaluating the Scalability of an
//! In-memory File System*). GassyFS aggregates the memory of multiple
//! nodes over a GASNet-like remote-memory fabric into a single
//! POSIX-ish namespace mounted through a FUSE-like layer; data is
//! *ephemeral* — persistence is an explicit checkpoint to stable
//! storage.
//!
//! This reproduction implements the whole stack:
//!
//! * [`vfs`] — the metadata layer: inodes, directories, open files,
//!   page-granular extents, and the (in)famous pile of mount options.
//! * [`gasnet`] — the remote-memory page store: pages striped
//!   round-robin across the cluster's nodes, every access charged
//!   through the [`popper_sim`] fabric (local pages are free — the
//!   property the scalability experiment hinges on).
//! * [`cache`] — the client's LRU page cache, O(1) per page access.
//! * [`fs`] — GassyFS proper: VFS + page store + virtual-time
//!   accounting + checkpoint/restore into a
//!   [`popper_store::ChunkStore`] ("file systems in GassyFS are
//!   explicitly saved/loaded to/from durable storage").
//! * [`workload`] — the paper's workload: a synthetic *compile git*
//!   build DAG, replayed by parallel "make jobs".
//! * [`experiment`] — Figure `gassyfs-git`: runtime vs cluster size,
//!   with the Listing-3 Aver assertion (`sublinear(nodes, time)`)
//!   checked over the result table.
//! * [`shardworld`] — the store's replicated write path on the
//!   shard-native fabric, one shard per node; its chaos entry point
//!   (replica failover, retry with backoff) is what `popper chaos`
//!   runs for GassyFS.

pub mod cache;
pub mod checkpointing;
pub mod experiment;
pub mod fs;
pub mod gasnet;
pub mod shardworld;
pub mod vfs;
pub mod workload;

pub use checkpointing::{run_checkpoint_study, CheckpointStudy};
pub use experiment::{run_scalability, ScalabilityConfig, ScalabilityPoint};
pub use fs::{GassyFs, MountOptions};
pub use gasnet::{GasnetStore, PAGE_SIZE};
pub use shardworld::{run_sharded, run_sharded_chaos, ShardedGassyChaosReport, ShardedGassyConfig, ShardedGassyReport};
pub use vfs::{FsError, Vfs};
