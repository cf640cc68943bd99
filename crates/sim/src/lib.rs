//! # popper-sim
//!
//! A deterministic discrete-event simulation substrate. This crate stands
//! in for every piece of hardware the Popper paper's evaluation runs on —
//! CloudLab bare-metal nodes, a 10-year-old Xeon, EC2 virtual machines and
//! HPC allocations — following the reproduction's substitution rule:
//! where the paper needs hardware we do not have, we build a calibrated
//! model that exercises the same code paths.
//!
//! Contents:
//!
//! * [`time`] — nanosecond-resolution virtual time ([`Nanos`]).
//! * [`shard`] — the event engine ([`ShardedSim`]): per-shard event
//!   queues with deterministic tie-breaking (events at equal times fire
//!   in schedule order), advanced in epoch-synchronized windows bounded
//!   by a conservative lookahead, with a deterministic cross-shard merge
//!   so the trace is byte-identical at every worker count. A one-shard
//!   `ShardedSim` is the serial engine.
//! * [`resource`] — analytic queueing primitives: serial servers
//!   ([`resource::Serial`]) and multi-server pools
//!   ([`resource::MultiServer`]) used to model cores, NICs and disks.
//! * [`hardware`] — platform models: a [`hardware::PlatformSpec`] is a
//!   vector of per-resource capabilities (clock, IPC, memory bandwidth and
//!   latency, SIMD width, cache, branch-predictor quality …) and a
//!   workload is a vector of demands; runtime is their inner product.
//! * [`network`] — a switched-fabric model with per-node ingress/egress
//!   serialization and a core-capacity term, split into per-endpoint
//!   state and a shared core stage.
//! * [`netshard`] — the shard-native fabric ([`FabricSim`]): per-shard
//!   fabric endpoints plus a barrier-replayed shared-core stage, so
//!   fabric-backed worlds run on the sharded engine with contention
//!   intact and byte-identical results at every worker count.
//! * [`fault`] — the [`FaultPlane`]: node crashes, partitions, packet
//!   loss, latency inflation and disk slowdown, consulted by the fabric
//!   (one branch when healthy) and driven by `popper-chaos` schedules.
//! * [`noise`] — OS-noise and noisy-neighbor models used by the MPI
//!   variability use case.
//! * [`platforms`] — calibrated presets for the machines the paper names.
//! * [`cluster`] — a set of identical nodes plus a fabric.
//!
//! Determinism is a hard invariant: the same seed and the same schedule of
//! events produce bit-identical metrics. Property tests in this crate and
//! integration tests at the workspace root enforce it, because "the
//! experiment re-executes exactly" is the Popper convention's core claim.

pub mod cluster;
pub mod fault;
pub mod hardware;
pub mod netshard;
pub mod network;
pub mod noise;
pub mod platforms;
pub mod resource;
pub mod shard;
pub mod time;

pub use cluster::Cluster;
pub use fault::{FaultPlane, PlaneCmd, Unreachable};
pub use hardware::{Demand, PlatformSpec, ResourceDim};
pub use netshard::{backoff, replay_records_serial, FabricSim, NetCtx, ReplayEntry, ReplayRecord, RetryStats, MAX_ATTEMPTS};
pub use network::{Fabric, FabricParams, NodeTraffic, TransferDemand};
pub use shard::{EpochStage, EpochView, ShardCtx, ShardedSim};
pub use time::Nanos;
