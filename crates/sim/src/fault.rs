//! The fault plane: deterministic infrastructure faults for the simulator.
//!
//! A [`FaultPlane`] holds the *current* fault state of a cluster — which
//! nodes are crashed, how the network is partitioned, per-node packet
//! loss and latency inflation, and disk slowdown. The fabric consults it
//! on every admission; higher layers (GassyFS failover, MPI retries)
//! consult it to decide whether a peer is worth waiting for. Schedules
//! of fault *events* live one layer up in `popper-chaos`; this type is
//! only the state they mutate, so `popper-sim` stays dependency-free.
//!
//! Determinism is preserved: packet loss is not sampled from a global
//! RNG but derived from a counter hashed with the plane's seed, so the
//! same sequence of transfers sees the same sequence of drops.

use crate::time::Nanos;

/// Default virtual time a sender waits before declaring a peer
/// unreachable (the "timeout path" that replaces an infinite hang).
pub const DEFAULT_TIMEOUT: Nanos = Nanos(10_000_000); // 10 ms

/// Cap on loss-driven retransmissions of a single message.
pub const MAX_RETRANSMITS: u32 = 8;

/// Why a transfer could not be delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unreachable {
    /// Sending endpoint.
    pub src: usize,
    /// Receiving endpoint.
    pub dst: usize,
    /// The crashed endpoint, if the cause was a crash (`None` means the
    /// endpoints are alive but partitioned from each other).
    pub crashed: Option<usize>,
    /// Virtual time at which the sender gives up (`now + timeout`).
    pub gave_up_at: Nanos,
}

impl std::fmt::Display for Unreachable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.crashed {
            Some(n) => write!(f, "node {n} crashed ({} -> {} undeliverable)", self.src, self.dst),
            None => write!(f, "nodes {} and {} partitioned", self.src, self.dst),
        }
    }
}

/// One mutation of a [`FaultPlane`] — the vocabulary a fault timeline
/// is written in. `popper-chaos` lowers its schedule events to these so
/// the sharded fabric can apply them at epoch barriers without
/// `popper-sim` depending on the schedule layer.
#[derive(Debug, Clone, PartialEq)]
pub enum PlaneCmd {
    /// Crash a node.
    Crash(usize),
    /// Restart a crashed node.
    Restart(usize),
    /// Partition the cluster: the listed nodes vs everyone else.
    Partition(Vec<usize>),
    /// Heal any partition.
    HealPartition,
    /// Set symmetric packet loss on links touching `node`.
    Loss {
        /// Affected node.
        node: usize,
        /// Loss probability.
        p: f64,
    },
    /// Set directional packet loss on `from` → `to` only.
    LossOneWay {
        /// Sending side of the lossy direction.
        from: usize,
        /// Receiving side of the lossy direction.
        to: usize,
        /// Loss probability.
        p: f64,
    },
    /// Set the latency inflation factor on links touching `node`.
    Latency {
        /// Affected node.
        node: usize,
        /// Inflation factor (clamped to >= 1.0 on apply).
        factor: f64,
    },
    /// Set the disk-slowdown factor on `node`.
    DiskSlow {
        /// Affected node.
        node: usize,
        /// Slowdown factor (clamped to >= 1.0 on apply).
        factor: f64,
    },
    /// Clear loss, latency and disk degradation.
    ClearDegradation,
}

impl PlaneCmd {
    /// A short human label (mirrors `FaultKind::label` in
    /// `popper-chaos` so barrier-applied events trace identically to
    /// driver-applied ones).
    pub fn label(&self) -> String {
        match self {
            PlaneCmd::Crash(n) => format!("crash node {n}"),
            PlaneCmd::Restart(n) => format!("restart node {n}"),
            PlaneCmd::Partition(side) => format!("partition {side:?}"),
            PlaneCmd::HealPartition => "heal partition".to_string(),
            PlaneCmd::Loss { node, p } => format!("loss node {node} p={p}"),
            PlaneCmd::LossOneWay { from, to, p } => format!("loss {from}->{to} p={p}"),
            PlaneCmd::Latency { node, factor } => format!("latency node {node} x{factor}"),
            PlaneCmd::DiskSlow { node, factor } => format!("disk node {node} x{factor}"),
            PlaneCmd::ClearDegradation => "clear degradation".to_string(),
        }
    }
}

/// Current fault state of a cluster. Starts fully healthy; a healthy
/// plane costs exactly one branch on the fabric admit path.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlane {
    /// True iff any fault is in effect (the fast-path gate).
    active: bool,
    crashed: Vec<bool>,
    /// Partition group per node; nodes in different groups can't talk.
    group: Vec<u8>,
    /// Per-node packet-loss probability on links touching the node.
    loss: Vec<f64>,
    /// Directional packet loss: `(from, to, p)` applies only to
    /// transfers from `from` to `to` (sparse; most links are clean).
    loss_oneway: Vec<(usize, usize, f64)>,
    /// Per-node latency inflation factor (>= 1.0).
    latency_factor: Vec<f64>,
    /// Per-node disk-slowdown factor (>= 1.0), consulted by layers that
    /// model durable I/O (GassyFS checkpoint/restore).
    disk_factor: Vec<f64>,
    seed: u64,
    /// Per-source monotonic draw counters for deterministic loss
    /// sampling. Counting per source (not globally) makes the draw
    /// sequence a function of each sender's own transfer order, so a
    /// per-endpoint clone of the plane — a shard owning one endpoint —
    /// reproduces exactly the draws the shared plane would have made
    /// for that sender, regardless of how other senders interleave.
    draws: Vec<u64>,
}

impl FaultPlane {
    /// A healthy plane for `nodes` endpoints.
    pub fn new(nodes: usize) -> Self {
        FaultPlane {
            active: false,
            crashed: vec![false; nodes],
            group: vec![0; nodes],
            loss: vec![0.0; nodes],
            loss_oneway: Vec::new(),
            latency_factor: vec![1.0; nodes],
            disk_factor: vec![1.0; nodes],
            seed: 0,
            draws: vec![0; nodes],
        }
    }

    /// Number of endpoints covered.
    pub fn nodes(&self) -> usize {
        self.crashed.len()
    }

    /// True iff any fault is currently in effect.
    #[inline]
    pub fn is_active(&self) -> bool {
        self.active
    }

    fn refresh(&mut self) {
        self.active = self.crashed.iter().any(|c| *c)
            || self.group.iter().any(|g| *g != 0)
            || self.loss.iter().any(|p| *p > 0.0)
            || self.loss_oneway.iter().any(|(_, _, p)| *p > 0.0)
            || self.latency_factor.iter().any(|f| *f != 1.0)
            || self.disk_factor.iter().any(|f| *f != 1.0);
    }

    /// Seed the deterministic loss sampler.
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// The unreachable-peer timeout.
    pub fn timeout(&self) -> Nanos {
        DEFAULT_TIMEOUT
    }

    // ---- node crash / restart ----

    /// Crash a node: it can neither send nor receive.
    pub fn crash(&mut self, node: usize) {
        self.crashed[node] = true;
        self.refresh();
    }

    /// Restart a crashed node.
    pub fn restart(&mut self, node: usize) {
        self.crashed[node] = false;
        self.refresh();
    }

    /// Is `node` currently crashed?
    pub fn is_crashed(&self, node: usize) -> bool {
        self.crashed[node]
    }

    /// Currently crashed nodes, ascending.
    pub fn crashed_nodes(&self) -> Vec<usize> {
        (0..self.crashed.len()).filter(|n| self.crashed[*n]).collect()
    }

    /// The crashed endpoint of a prospective transfer, if any (`src`
    /// first, mirroring who notices first).
    pub fn crashed_endpoint(&self, src: usize, dst: usize) -> Option<usize> {
        if self.crashed[src] {
            Some(src)
        } else if self.crashed[dst] {
            Some(dst)
        } else {
            None
        }
    }

    // ---- network partitions ----

    /// Partition the cluster: the listed nodes form one side, everyone
    /// else the other. Replaces any previous partition.
    pub fn partition(&mut self, side: &[usize]) {
        for g in self.group.iter_mut() {
            *g = 0;
        }
        for n in side {
            self.group[*n] = 1;
        }
        self.refresh();
    }

    /// Heal any partition.
    pub fn heal_partition(&mut self) {
        for g in self.group.iter_mut() {
            *g = 0;
        }
        self.refresh();
    }

    /// Can `src` and `dst` exchange messages (both alive, same side)?
    pub fn reachable(&self, src: usize, dst: usize) -> bool {
        !self.crashed[src] && !self.crashed[dst] && self.group[src] == self.group[dst]
    }

    /// A failure detector's view of a prospective transfer, without
    /// sending anything: `Some` when `src` and `dst` cannot currently
    /// exchange messages, carrying the reason (the crashed endpoint, if
    /// any) and the virtual time at which a prober started at `now`
    /// would give up. Heartbeat paths use this to turn what would be a
    /// hang on the fabric admit path into a typed detection.
    pub fn probe(&self, src: usize, dst: usize, now: Nanos) -> Option<Unreachable> {
        if !self.active || self.reachable(src, dst) {
            return None;
        }
        Some(Unreachable {
            src,
            dst,
            crashed: self.crashed_endpoint(src, dst),
            gave_up_at: now + DEFAULT_TIMEOUT,
        })
    }

    // ---- link degradation ----

    /// Set the packet-loss probability on links touching `node`.
    pub fn set_loss(&mut self, node: usize, p: f64) {
        self.loss[node] = p.clamp(0.0, 0.99);
        self.refresh();
    }

    /// Set the packet-loss probability on the directed link `from` →
    /// `to` only; the reverse direction stays clean. Replaces any
    /// previous one-way loss on that link.
    pub fn set_loss_oneway(&mut self, from: usize, to: usize, p: f64) {
        self.loss_oneway.retain(|(f, t, _)| !(*f == from && *t == to));
        self.loss_oneway.push((from, to, p.clamp(0.0, 0.99)));
        self.refresh();
    }

    /// Set the latency inflation factor on links touching `node`.
    pub fn set_latency_factor(&mut self, node: usize, factor: f64) {
        self.latency_factor[node] = factor.max(1.0);
        self.refresh();
    }

    /// Set the disk-slowdown factor on `node`.
    pub fn set_disk_factor(&mut self, node: usize, factor: f64) {
        self.disk_factor[node] = factor.max(1.0);
        self.refresh();
    }

    /// Clear loss, latency and disk degradation (crashes and partitions
    /// are untouched).
    pub fn clear_degradation(&mut self) {
        for p in self.loss.iter_mut() {
            *p = 0.0;
        }
        self.loss_oneway.clear();
        for f in self.latency_factor.iter_mut() {
            *f = 1.0;
        }
        for f in self.disk_factor.iter_mut() {
            *f = 1.0;
        }
        self.refresh();
    }

    /// Return the plane to fully healthy.
    pub fn heal_all(&mut self) {
        for c in self.crashed.iter_mut() {
            *c = false;
        }
        self.heal_partition();
        self.clear_degradation();
    }

    /// Apply one timeline command to the plane.
    pub fn apply(&mut self, cmd: &PlaneCmd) {
        match cmd {
            PlaneCmd::Crash(n) => self.crash(*n),
            PlaneCmd::Restart(n) => self.restart(*n),
            PlaneCmd::Partition(side) => self.partition(side),
            PlaneCmd::HealPartition => self.heal_partition(),
            PlaneCmd::Loss { node, p } => self.set_loss(*node, *p),
            PlaneCmd::LossOneWay { from, to, p } => self.set_loss_oneway(*from, *to, *p),
            PlaneCmd::Latency { node, factor } => self.set_latency_factor(*node, *factor),
            PlaneCmd::DiskSlow { node, factor } => self.set_disk_factor(*node, *factor),
            PlaneCmd::ClearDegradation => self.clear_degradation(),
        }
    }

    /// Overwrite this plane's fault *state* (crashes, partition, loss,
    /// degradation, seed) from `master`, preserving this plane's own
    /// draw counters. This is how the sharded fabric
    /// refreshes per-endpoint plane snapshots after barrier-applied
    /// fault events: each shard keeps its per-source draw position, so
    /// its loss-draw sequence stays identical to the one a single
    /// shared plane would have produced for that sender.
    pub fn sync_from(&mut self, master: &FaultPlane) {
        debug_assert_eq!(self.nodes(), master.nodes());
        self.crashed.clone_from(&master.crashed);
        self.group.clone_from(&master.group);
        self.loss.clone_from(&master.loss);
        self.loss_oneway.clone_from(&master.loss_oneway);
        self.latency_factor.clone_from(&master.latency_factor);
        self.disk_factor.clone_from(&master.disk_factor);
        self.seed = master.seed;
        self.active = master.active;
    }

    /// Latency inflation for a transfer between two nodes.
    pub fn latency_factor_between(&self, src: usize, dst: usize) -> f64 {
        self.latency_factor[src].max(self.latency_factor[dst])
    }

    /// Disk-slowdown factor for a node.
    pub fn disk_factor(&self, node: usize) -> f64 {
        self.disk_factor[node]
    }

    /// Number of retransmissions a message between `src` and `dst`
    /// suffers, sampled deterministically from the plane's seed and a
    /// per-source monotonic draw counter (same per-sender transfer
    /// sequence ⇒ same drops, independent of how senders interleave).
    pub fn retransmits(&mut self, src: usize, dst: usize) -> u32 {
        let oneway = self
            .loss_oneway
            .iter()
            .filter(|(f, t, _)| *f == src && *t == dst)
            .map(|(_, _, p)| *p)
            .fold(0.0f64, f64::max);
        let p = self.loss[src].max(self.loss[dst]).max(oneway);
        if p <= 0.0 {
            return 0;
        }
        let mut n = 0u32;
        while n < MAX_RETRANSMITS {
            self.draws[src] += 1;
            let h = splitmix64(
                self.seed
                    ^ splitmix64(src as u64)
                    ^ self.draws[src].wrapping_mul(0x2545f4914f6cdd1d),
            );
            // Map the hash to [0, 1) and compare against the loss rate.
            let u = (h >> 11) as f64 / (1u64 << 53) as f64;
            if u >= p {
                break;
            }
            n += 1;
        }
        n
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_plane_is_inactive() {
        let p = FaultPlane::new(4);
        assert!(!p.is_active());
        assert!(p.reachable(0, 3));
        assert_eq!(p.crashed_nodes(), Vec::<usize>::new());
    }

    #[test]
    fn crash_restart_round_trip() {
        let mut p = FaultPlane::new(4);
        p.crash(2);
        assert!(p.is_active());
        assert!(p.is_crashed(2));
        assert!(!p.reachable(0, 2));
        assert_eq!(p.crashed_endpoint(0, 2), Some(2));
        assert_eq!(p.crashed_endpoint(2, 0), Some(2));
        p.restart(2);
        assert!(!p.is_active());
        assert!(p.reachable(0, 2));
    }

    #[test]
    fn partition_splits_and_heals() {
        let mut p = FaultPlane::new(4);
        p.partition(&[0, 1]);
        assert!(p.reachable(0, 1));
        assert!(p.reachable(2, 3));
        assert!(!p.reachable(0, 2));
        p.heal_partition();
        assert!(p.reachable(0, 2));
        assert!(!p.is_active());
    }

    #[test]
    fn probe_reports_crashes_and_partitions_without_sending() {
        let mut p = FaultPlane::new(4);
        let now = Nanos::from_millis(5);
        assert_eq!(p.probe(0, 2, now), None, "healthy plane: nothing to detect");
        p.crash(2);
        let u = p.probe(0, 2, now).unwrap();
        assert_eq!(u.crashed, Some(2));
        assert_eq!(u.gave_up_at, now + p.timeout());
        p.restart(2);
        p.partition(&[0, 1]);
        let u = p.probe(0, 2, now).unwrap();
        assert_eq!(u.crashed, None, "partitioned, not crashed");
        assert!(p.probe(0, 1, now).is_none(), "same side stays reachable");
    }

    #[test]
    fn loss_draws_are_deterministic() {
        let run = || {
            let mut p = FaultPlane::new(2);
            p.set_seed(7);
            p.set_loss(1, 0.5);
            (0..64).map(|_| p.retransmits(0, 1)).collect::<Vec<u32>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.iter().any(|n| *n > 0), "50% loss must retransmit sometimes");
        assert!(a.iter().all(|n| *n <= MAX_RETRANSMITS));
    }

    #[test]
    fn zero_loss_never_retransmits() {
        let mut p = FaultPlane::new(2);
        assert_eq!(p.retransmits(0, 1), 0);
    }

    #[test]
    fn one_way_loss_is_directional() {
        let mut p = FaultPlane::new(2);
        p.set_seed(11);
        p.set_loss_oneway(0, 1, 0.9);
        assert!(p.is_active());
        let forward: Vec<u32> = (0..64).map(|_| p.retransmits(0, 1)).collect();
        let reverse: Vec<u32> = (0..64).map(|_| p.retransmits(1, 0)).collect();
        assert!(forward.iter().any(|n| *n > 0), "90% loss must retransmit");
        assert!(reverse.iter().all(|n| *n == 0), "reverse direction is clean");
        // Re-setting the same link replaces, not stacks.
        p.set_loss_oneway(0, 1, 0.0);
        assert!(!p.is_active());
        p.set_loss_oneway(0, 1, 0.5);
        p.clear_degradation();
        assert!(!p.is_active());
        assert_eq!(p.retransmits(0, 1), 0);
    }

    #[test]
    fn degradation_factors_clamp_and_clear() {
        let mut p = FaultPlane::new(2);
        p.set_latency_factor(0, 0.5); // clamped up to 1.0
        assert!(!p.is_active());
        p.set_latency_factor(0, 3.0);
        p.set_disk_factor(1, 8.0);
        assert!(p.is_active());
        assert_eq!(p.latency_factor_between(0, 1), 3.0);
        assert_eq!(p.disk_factor(1), 8.0);
        p.clear_degradation();
        assert!(!p.is_active());
    }

    #[test]
    fn heal_all_resets_everything() {
        let mut p = FaultPlane::new(3);
        p.crash(1);
        p.partition(&[0]);
        p.set_loss(2, 0.3);
        p.heal_all();
        assert_eq!(p, {
            let mut q = FaultPlane::new(3);
            q.draws = p.draws.clone();
            q.seed = p.seed;
            q
        });
    }

    #[test]
    fn plane_cmds_mirror_the_direct_setters() {
        let mut direct = FaultPlane::new(4);
        direct.crash(1);
        direct.partition(&[0, 1]);
        direct.set_loss(2, 0.25);
        direct.set_loss_oneway(0, 3, 0.5);
        direct.set_latency_factor(3, 4.0);
        direct.set_disk_factor(0, 8.0);
        let mut via_cmds = FaultPlane::new(4);
        for cmd in [
            PlaneCmd::Crash(1),
            PlaneCmd::Partition(vec![0, 1]),
            PlaneCmd::Loss { node: 2, p: 0.25 },
            PlaneCmd::LossOneWay { from: 0, to: 3, p: 0.5 },
            PlaneCmd::Latency { node: 3, factor: 4.0 },
            PlaneCmd::DiskSlow { node: 0, factor: 8.0 },
        ] {
            via_cmds.apply(&cmd);
        }
        assert_eq!(via_cmds, direct);
        via_cmds.apply(&PlaneCmd::Restart(1));
        via_cmds.apply(&PlaneCmd::HealPartition);
        via_cmds.apply(&PlaneCmd::ClearDegradation);
        assert!(!via_cmds.is_active());
    }

    #[test]
    fn sync_from_refreshes_state_but_preserves_draws() {
        let mut master = FaultPlane::new(3);
        master.set_seed(9);
        master.set_loss(2, 0.5);
        // A shard's snapshot that has already consumed some draws.
        let mut snapshot = master.clone();
        let consumed: Vec<u32> = (0..8).map(|_| snapshot.retransmits(0, 2)).collect();
        assert!(consumed.iter().any(|n| *n > 0));
        // The master mutates mid-run; the refreshed snapshot must see
        // the new fault state yet continue its own draw sequence.
        master.apply(&PlaneCmd::Crash(1));
        snapshot.sync_from(&master);
        assert!(snapshot.is_crashed(1));
        let mut oracle = {
            let mut p = FaultPlane::new(3);
            p.set_seed(9);
            p.set_loss(2, 0.5);
            p
        };
        let mut expect: Vec<u32> = (0..16).map(|_| oracle.retransmits(0, 2)).collect();
        let tail: Vec<u32> = (0..8).map(|_| snapshot.retransmits(0, 2)).collect();
        assert_eq!(tail, expect.split_off(8), "draw counter must survive the refresh");
    }

    #[test]
    fn loss_draws_are_per_source_interleave_invariant() {
        // A per-endpoint clone of the plane must reproduce the shared
        // plane's draw sequence for its own source no matter how other
        // senders' draws interleave on the shared plane.
        let mut shared = FaultPlane::new(3);
        shared.set_seed(9);
        shared.set_loss(2, 0.5);
        let mut solo = shared.clone();
        let mut interleaved = Vec::new();
        for _ in 0..32 {
            interleaved.push(shared.retransmits(0, 2));
            shared.retransmits(1, 2); // another sender's draws
        }
        let alone: Vec<u32> = (0..32).map(|_| solo.retransmits(0, 2)).collect();
        assert_eq!(interleaved, alone);
    }
}
