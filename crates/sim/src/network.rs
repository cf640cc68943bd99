//! A switched-fabric network model.
//!
//! Every node has an egress and an ingress link (full duplex) feeding a
//! core switch with finite aggregate capacity. A transfer is pipelined
//! through the three stages: its completion is the propagation latency
//! plus the latest stage finish, where each downstream stage may start as
//! soon as the upstream stage *starts* (cut-through), but every stage
//! serializes its own queue. This captures the two effects the GassyFS
//! and MPI use cases depend on: incast (many senders to one receiver
//! serialize at the ingress link) and bisection saturation (the core
//! capacity term).
//!
//! The model is split along the ownership boundary the sharded engine
//! needs (see [`crate::netshard`]): a [`FabricEndpoint`] holds the state
//! only its own node ever touches — the egress queue and the traffic
//! counters — and admits transfers into a [`TransferDemand`] that
//! carries the full serialization demand; a [`FabricCore`] holds the
//! stages every transfer contends on — the core switch and all ingress
//! links — and replays admissions in a deterministic order. The serial
//! [`Fabric`] is the composition of the two plus a [`FaultPlane`], and
//! is the reference the sharded path must match byte for byte.

use crate::fault::{FaultPlane, Unreachable};
use crate::resource::Serial;
use crate::time::Nanos;
use popper_trace::{NumberedTracks, Tracer};

/// Per-node traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeTraffic {
    /// Bytes this node put on the wire, counting every fault-driven
    /// retransmission of a message (a message that took `tries`
    /// attempts charges `bytes * tries`).
    pub tx_bytes: u64,
    /// Bytes received by this node (only the delivered copy counts).
    pub rx_bytes: u64,
    /// Message attempts sent (retransmissions count).
    pub tx_msgs: u64,
    /// Messages received.
    pub rx_msgs: u64,
}

/// Link and core timing parameters, shared by every stage of a fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FabricParams {
    /// One-way propagation latency.
    pub latency: Nanos,
    /// Per-link bandwidth in Gbit/s.
    pub link_gbit: f64,
    /// Aggregate core bandwidth in Gbit/s.
    pub core_gbit: f64,
}

impl FabricParams {
    /// Parameters for `nodes` endpoints with per-link bandwidth
    /// `link_gbit`, one-way propagation latency `latency`, and a core
    /// with `oversubscription`:1 ratio (1.0 = full bisection bandwidth).
    pub fn new(nodes: usize, link_gbit: f64, latency: Nanos, oversubscription: f64) -> Self {
        assert!(nodes >= 1 && link_gbit > 0.0 && oversubscription >= 1.0);
        FabricParams { latency, link_gbit, core_gbit: link_gbit * nodes as f64 / oversubscription }
    }

    fn serialize_time(&self, bytes: u64, gbit: f64) -> Nanos {
        Nanos::from_secs_f64(bytes as f64 * 8.0 / (gbit * 1e9))
    }
}

/// The serialization demand of one admitted transfer: everything the
/// shared stages need to finish it, computed at the sender. Stage
/// times and the propagation latency are already scaled by `tries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferDemand {
    /// Sending endpoint.
    pub src: usize,
    /// Receiving endpoint.
    pub dst: usize,
    /// Payload bytes (one copy).
    pub bytes: u64,
    /// Attempts on the wire (1 + fault-driven retransmits).
    pub tries: u64,
    /// Time the sender issued the transfer.
    pub sent: Nanos,
    /// Egress admission interval at the sender.
    pub e_start: Nanos,
    /// Egress finish at the sender.
    pub e_fin: Nanos,
    /// Link serialization time (`tries` copies).
    pub link_t: Nanos,
    /// Core serialization time (`tries` copies).
    pub core_t: Nanos,
    /// Propagation latency (`tries` traversals, fault-inflated).
    pub latency: Nanos,
}

impl TransferDemand {
    /// True for a local (src == dst) transfer: it completes at `sent`
    /// and never touches the egress, core or ingress stages.
    pub fn is_loopback(&self) -> bool {
        self.src == self.dst
    }
}

/// The per-endpoint half of the fabric: the state only node `node`
/// ever touches on the send path. In the serial [`Fabric`] these live
/// in one vector; in the sharded fabric each shard owns its own.
#[derive(Debug, Clone)]
pub struct FabricEndpoint {
    node: usize,
    params: FabricParams,
    egress: Serial,
    traffic: NodeTraffic,
}

impl FabricEndpoint {
    /// The endpoint for `node` under `params`.
    pub fn new(node: usize, params: FabricParams) -> Self {
        FabricEndpoint { node, params, egress: Serial::new(), traffic: NodeTraffic::default() }
    }

    /// The node this endpoint belongs to.
    pub fn node(&self) -> usize {
        self.node
    }

    /// This endpoint's traffic counters.
    pub fn traffic(&self) -> NodeTraffic {
        self.traffic
    }

    /// Admit a transfer of `bytes` to `dst` at `now`: consult the fault
    /// plane, charge the sender for every attempt, and reserve the
    /// egress link. Returns the demand the shared stages need to finish
    /// the transfer, or [`Unreachable`] (nothing is charged then — the
    /// message was never put on the wire).
    pub fn admit(
        &mut self,
        dst: usize,
        bytes: u64,
        now: Nanos,
        faults: &mut FaultPlane,
    ) -> Result<TransferDemand, Unreachable> {
        let src = self.node;
        // The healthy-plane cost of fault support is this one branch.
        let mut latency = self.params.latency;
        let mut tries = 1u64;
        if faults.is_active() {
            if faults.crashed_endpoint(src, dst).is_some() || !faults.reachable(src, dst) {
                return Err(Unreachable {
                    src,
                    dst,
                    crashed: faults.crashed_endpoint(src, dst),
                    gave_up_at: now + faults.timeout(),
                });
            }
            if src != dst {
                latency = latency.scale(faults.latency_factor_between(src, dst));
                tries += faults.retransmits(src, dst) as u64;
            }
        }
        // Every attempt puts the full message on the wire, so the
        // sender pays `bytes * tries`; the receiver counts only the
        // copy that is delivered (see `deliver`).
        self.traffic.tx_bytes += bytes * tries;
        self.traffic.tx_msgs += tries;
        if src == dst {
            // Locality is free: no stage is reserved, completion is now.
            return Ok(TransferDemand {
                src,
                dst,
                bytes,
                tries,
                sent: now,
                e_start: now,
                e_fin: now,
                link_t: Nanos::ZERO,
                core_t: Nanos::ZERO,
                latency: Nanos::ZERO,
            });
        }
        // Each lost attempt re-serializes the message and pays the
        // (possibly inflated) propagation latency again.
        let link_t = self.params.serialize_time(bytes, self.params.link_gbit) * tries;
        let core_t = self.params.serialize_time(bytes, self.params.core_gbit) * tries;
        let latency = latency * tries;
        // Relaxed admission: senders are independent virtual-time
        // cursors, so arrivals are not globally ordered (see
        // `Serial::admit_relaxed`).
        let (e_start, e_fin) = self.egress.admit_relaxed(now, link_t);
        Ok(TransferDemand { src, dst, bytes, tries, sent: now, e_start, e_fin, link_t, core_t, latency })
    }

    /// Count a delivered message on the receive side.
    pub fn deliver(&mut self, bytes: u64) {
        self.traffic.rx_bytes += bytes;
        self.traffic.rx_msgs += 1;
    }

    /// Egress-link utilization over `[0, horizon]`.
    pub fn egress_utilization(&self, horizon: Nanos) -> f64 {
        self.egress.utilization(horizon)
    }
}

/// The shared half of the fabric: the core switch and every ingress
/// link — the stages where transfers from *different* senders contend.
/// Admission order into these queues is what the sharded fabric must
/// replay deterministically.
#[derive(Debug, Clone)]
pub struct FabricCore {
    core: Serial,
    ingress: Vec<Serial>,
    /// The senders' trace tracks.
    tracks: NumberedTracks,
}

impl FabricCore {
    /// A core stage for `nodes` endpoints.
    pub fn new(nodes: usize) -> Self {
        FabricCore {
            core: Serial::new(),
            ingress: vec![Serial::new(); nodes],
            tracks: NumberedTracks::new("sim/net/node"),
        }
    }

    /// Finish an admitted transfer: run it through the core switch and
    /// the destination's ingress link, and return the completion time
    /// at the receiver. Emits the per-transfer trace spans.
    pub fn complete(&mut self, d: &TransferDemand, tracer: &Tracer) -> Nanos {
        debug_assert!(!d.is_loopback());
        let (c_start, c_fin) = self.core.admit_relaxed(d.e_start, d.core_t);
        let (_i_start, i_fin) = self.ingress[d.dst].admit_relaxed(c_start, d.link_t);
        let done = d.latency + d.e_fin.max(c_fin).max(i_fin);
        if tracer.is_enabled() {
            // One span per transfer on the sender's egress track, from
            // egress admission to receiver completion, plus a child span
            // for the queueing-sensitive egress stage itself.
            let (dst, bytes) = (d.dst, d.bytes);
            let track = self.tracks.get(d.src);
            let xfer = tracer.span_at("net", track, format!("xfer {bytes}B ->{dst}"), d.e_start.0, done.0);
            tracer.span_at_child(xfer, "net", track, "egress", d.e_start.0, d.e_fin.0);
        }
        done
    }
}

/// The fabric connecting a cluster's nodes: per-endpoint state, the
/// shared core stage and the fault plane, driven serially.
#[derive(Debug, Clone)]
pub struct Fabric {
    params: FabricParams,
    endpoints: Vec<FabricEndpoint>,
    core: FabricCore,
    faults: FaultPlane,
}

impl Fabric {
    /// A fabric for `nodes` endpoints with per-link bandwidth
    /// `link_gbit`, one-way propagation latency `latency`, and a core
    /// with `oversubscription`:1 ratio (1.0 = full bisection bandwidth).
    pub fn new(nodes: usize, link_gbit: f64, latency: Nanos, oversubscription: f64) -> Self {
        let params = FabricParams::new(nodes, link_gbit, latency, oversubscription);
        Fabric {
            params,
            endpoints: (0..nodes).map(|n| FabricEndpoint::new(n, params)).collect(),
            core: FabricCore::new(nodes),
            faults: FaultPlane::new(nodes),
        }
    }

    /// The fault plane (healthy by default).
    pub fn faults(&self) -> &FaultPlane {
        &self.faults
    }

    /// Mutably borrow the fault plane to inject or heal faults.
    pub fn faults_mut(&mut self) -> &mut FaultPlane {
        &mut self.faults
    }

    /// Number of endpoints.
    pub fn nodes(&self) -> usize {
        self.endpoints.len()
    }

    /// One-way propagation latency.
    pub fn latency(&self) -> Nanos {
        self.params.latency
    }

    /// Per-link bandwidth in Gbit/s.
    pub fn link_gbit(&self) -> f64 {
        self.params.link_gbit
    }

    /// The timing parameters.
    pub fn params(&self) -> FabricParams {
        self.params
    }

    /// Send `bytes` from `src` to `dst` starting at `now`; returns the
    /// completion time at the receiver. A loopback transfer (src == dst)
    /// completes immediately — locality is free, which is exactly the
    /// property GassyFS scalability hinges on.
    ///
    /// On a faulted fabric an unreachable destination is charged the
    /// fault plane's timeout and the message is silently dropped; use
    /// [`try_transfer`](Self::try_transfer) to observe the failure.
    pub fn transfer(&mut self, src: usize, dst: usize, bytes: u64, now: Nanos) -> Nanos {
        match self.try_transfer(src, dst, bytes, now) {
            Ok(done) => done,
            Err(u) => u.gave_up_at,
        }
    }

    /// Fallible transfer: returns [`Unreachable`] when a crash or
    /// partition makes delivery impossible (the sender still pays the
    /// timeout encoded in `gave_up_at`). Packet loss and latency
    /// inflation degrade the completion time but never fail delivery.
    pub fn try_transfer(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        now: Nanos,
    ) -> Result<Nanos, Unreachable> {
        assert!(src < self.nodes() && dst < self.nodes(), "endpoint out of range");
        let demand = self.endpoints[src].admit(dst, bytes, now, &mut self.faults)?;
        self.endpoints[dst].deliver(bytes);
        if demand.is_loopback() {
            return Ok(now);
        }
        Ok(self.core.complete(&demand, &popper_trace::current()))
    }

    /// Admit a transfer without delivering or completing it: the sender
    /// is charged (retransmit draws, traffic counters, egress
    /// reservation) exactly as [`try_transfer`](Self::try_transfer)
    /// would, but the core, the ingress link and the receiver are never
    /// touched. This replays a sharded-run admission whose demand a
    /// barrier-applied fault later left undeliverable — the bytes went
    /// on the wire, nothing arrived (see
    /// [`crate::netshard::ReplayRecord::Failed`]).
    pub fn admit_only(
        &mut self,
        src: usize,
        dst: usize,
        bytes: u64,
        now: Nanos,
    ) -> Result<TransferDemand, Unreachable> {
        assert!(src < self.nodes() && dst < self.nodes(), "endpoint out of range");
        self.endpoints[src].admit(dst, bytes, now, &mut self.faults)
    }

    /// A small-message round trip between two nodes (an RPC): two
    /// latencies plus both serializations.
    ///
    /// On a faulted fabric an unreachable peer costs exactly the
    /// timeout of the leg that failed — like the infallible
    /// [`transfer`](Self::transfer), the caller is charged `gave_up_at`
    /// and nothing more. The reply leg is neither attempted nor
    /// charged, and no traffic is counted for a round trip that never
    /// completed.
    pub fn rpc(&mut self, a: usize, b: usize, req_bytes: u64, resp_bytes: u64, now: Nanos) -> Nanos {
        match self.try_rpc(a, b, req_bytes, resp_bytes, now) {
            Ok(done) => done,
            Err(u) => u.gave_up_at,
        }
    }

    /// Fallible RPC; fails if either direction is undeliverable.
    pub fn try_rpc(
        &mut self,
        a: usize,
        b: usize,
        req_bytes: u64,
        resp_bytes: u64,
        now: Nanos,
    ) -> Result<Nanos, Unreachable> {
        let arrived = self.try_transfer(a, b, req_bytes, now)?;
        self.try_transfer(b, a, resp_bytes, arrived)
    }

    /// Traffic counters for one node.
    pub fn traffic(&self, node: usize) -> NodeTraffic {
        self.endpoints[node].traffic()
    }

    /// Total wire bytes moved through the fabric (tx side): each
    /// transfer counts once per attempt, so fault-driven retransmits
    /// are included; loopback copies count once.
    pub fn total_bytes(&self) -> u64 {
        self.endpoints.iter().map(|e| e.traffic().tx_bytes).sum()
    }

    /// Egress-link utilization of a node over `[0, horizon]`.
    pub fn egress_utilization(&self, node: usize, horizon: Nanos) -> f64 {
        self.endpoints[node].egress_utilization(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(n: usize) -> Fabric {
        // 10 Gbit links, 10 us latency, full bisection.
        Fabric::new(n, 10.0, Nanos::from_micros(10), 1.0)
    }

    #[test]
    fn loopback_is_free() {
        let mut f = fabric(2);
        let t = f.transfer(0, 0, 1 << 20, Nanos(123));
        assert_eq!(t, Nanos(123));
    }

    #[test]
    fn uncontended_transfer_is_latency_plus_serialization() {
        let mut f = fabric(2);
        let bytes = 1_250_000; // 1 ms at 10 Gbit
        let done = f.transfer(0, 1, bytes as u64, Nanos::ZERO);
        let expected = Nanos::from_micros(10) + Nanos::from_millis(1);
        // Cut-through pipelining: within one serialization of the ideal.
        assert!(done >= expected && done < expected + Nanos::from_millis(1), "done={done}");
    }

    #[test]
    fn zero_byte_message_costs_latency() {
        let mut f = fabric(2);
        let done = f.transfer(0, 1, 0, Nanos::ZERO);
        assert_eq!(done, Nanos::from_micros(10));
    }

    #[test]
    fn incast_serializes_at_receiver() {
        let mut f = fabric(5);
        let bytes = 1_250_000u64; // 1 ms each
        let mut finishes: Vec<Nanos> = (1..5).map(|s| f.transfer(s, 0, bytes, Nanos::ZERO)).collect();
        finishes.sort();
        // Four senders into one link: completions spaced ~1 ms apart.
        let spread = finishes[3] - finishes[0];
        assert!(spread >= Nanos::from_millis(2), "incast spread too small: {spread}");
    }

    #[test]
    fn sender_link_serializes_fanout() {
        let mut f = fabric(5);
        let bytes = 1_250_000u64;
        let t1 = f.transfer(0, 1, bytes, Nanos::ZERO);
        let t2 = f.transfer(0, 2, bytes, Nanos::ZERO);
        assert!(t2 > t1, "second fan-out transfer must queue behind the first");
    }

    #[test]
    fn oversubscribed_core_throttles_bisection() {
        let n = 8;
        let bytes = 1_250_000u64;
        let mut full = Fabric::new(n, 10.0, Nanos::ZERO, 1.0);
        let mut over = Fabric::new(n, 10.0, Nanos::ZERO, 4.0);
        // Disjoint pairs: (0→1), (2→3), (4→5), (6→7).
        let full_done: Nanos = (0..4).map(|i| full.transfer(2 * i, 2 * i + 1, bytes, Nanos::ZERO)).max().unwrap();
        let over_done: Nanos = (0..4).map(|i| over.transfer(2 * i, 2 * i + 1, bytes, Nanos::ZERO)).max().unwrap();
        assert!(over_done > full_done, "oversubscription must slow disjoint pairs: {over_done} vs {full_done}");
    }

    #[test]
    fn rpc_round_trip() {
        let mut f = fabric(2);
        let done = f.rpc(0, 1, 100, 100, Nanos::ZERO);
        assert!(done >= Nanos::from_micros(20), "RPC must pay two latencies, got {done}");
    }

    #[test]
    fn traffic_accounting() {
        let mut f = fabric(3);
        f.transfer(0, 1, 1000, Nanos::ZERO);
        f.transfer(0, 2, 500, Nanos::ZERO);
        f.transfer(1, 0, 200, Nanos::ZERO);
        assert_eq!(f.traffic(0).tx_bytes, 1500);
        assert_eq!(f.traffic(0).rx_bytes, 200);
        assert_eq!(f.traffic(0).tx_msgs, 2);
        assert_eq!(f.total_bytes(), 1700);
    }

    #[test]
    fn lossy_schedule_charges_every_attempt_to_the_sender() {
        let mut f = fabric(2);
        f.faults_mut().set_seed(3);
        f.faults_mut().set_loss(1, 0.6);
        // An oracle plane with the same seed replays the draw sequence
        // to predict how many attempts each transfer takes.
        let mut oracle = f.faults().clone();
        let bytes = 10_000u64;
        let (mut wire_bytes, mut wire_msgs) = (0u64, 0u64);
        for i in 0..20 {
            let tries = 1 + u64::from(oracle.retransmits(0, 1));
            f.transfer(0, 1, bytes, Nanos::from_millis(i));
            wire_bytes += bytes * tries;
            wire_msgs += tries;
        }
        assert!(wire_msgs > 20, "60% loss must retransmit within 20 sends");
        // The sender is charged for every attempt on the wire ...
        assert_eq!(f.traffic(0).tx_bytes, wire_bytes);
        assert_eq!(f.traffic(0).tx_msgs, wire_msgs);
        assert_eq!(f.total_bytes(), wire_bytes);
        // ... while the receiver counts only the delivered copies.
        assert_eq!(f.traffic(1).rx_bytes, bytes * 20);
        assert_eq!(f.traffic(1).rx_msgs, 20);
    }

    #[test]
    fn crashed_destination_times_out() {
        let mut f = fabric(3);
        f.faults_mut().crash(2);
        let err = f.try_transfer(0, 2, 1000, Nanos(50)).unwrap_err();
        assert_eq!(err.crashed, Some(2));
        assert_eq!(err.gave_up_at, Nanos(50) + f.faults().timeout());
        // The infallible path charges the timeout instead of hanging.
        assert_eq!(f.transfer(0, 2, 1000, Nanos(50)), Nanos(50) + f.faults().timeout());
        // Unrelated traffic is unaffected.
        assert!(f.try_transfer(0, 1, 1000, Nanos(50)).is_ok());
        // Dropped messages are not counted as delivered traffic.
        assert_eq!(f.traffic(2).rx_msgs, 0);
    }

    #[test]
    fn rpc_on_crashed_destination_stops_at_the_timeout() {
        let mut f = fabric(3);
        f.faults_mut().crash(1);
        let before = (f.traffic(0), f.traffic(1));
        let done = f.rpc(0, 1, 4096, 4096, Nanos(100));
        // One timeout — the request leg's gave_up_at — not a fabricated
        // reply leg on top of it.
        assert_eq!(done, Nanos(100) + f.faults().timeout());
        // The dropped round trip is not counted as delivered traffic in
        // either direction.
        assert_eq!((f.traffic(0), f.traffic(1)), before);
        assert_eq!(f.total_bytes(), 0);
        // Partitioned peers behave the same way.
        let mut p = fabric(4);
        p.faults_mut().partition(&[0, 1]);
        let done = p.rpc(0, 2, 128, 128, Nanos::ZERO);
        assert_eq!(done, p.faults().timeout());
        assert_eq!(p.traffic(0).tx_msgs, 0);
        assert_eq!(p.traffic(2).rx_msgs, 0);
        // A healthy RPC still pays both legs.
        assert!(p.rpc(2, 3, 128, 128, Nanos::ZERO) >= Nanos::from_micros(20));
    }

    #[test]
    fn partition_blocks_cross_traffic_until_heal() {
        let mut f = fabric(4);
        f.faults_mut().partition(&[0, 1]);
        assert!(f.try_transfer(0, 1, 100, Nanos::ZERO).is_ok());
        assert!(f.try_transfer(2, 3, 100, Nanos::ZERO).is_ok());
        let err = f.try_transfer(0, 2, 100, Nanos::ZERO).unwrap_err();
        assert_eq!(err.crashed, None);
        f.faults_mut().heal_partition();
        assert!(f.try_transfer(0, 2, 100, Nanos::ZERO).is_ok());
    }

    #[test]
    fn loss_and_latency_inflation_degrade_but_deliver() {
        let bytes = 1_250_000u64;
        let clean = fabric(2).transfer(0, 1, bytes, Nanos::ZERO);
        let mut lossy = fabric(2);
        lossy.faults_mut().set_seed(3);
        lossy.faults_mut().set_loss(1, 0.6);
        let worst: Nanos =
            (0..20).map(|i| lossy.transfer(0, 1, bytes, Nanos::from_millis(100 * i))).max().unwrap();
        assert!(worst.saturating_sub(Nanos::from_millis(100 * 19)) > clean, "loss must retransmit");
        let mut slow = fabric(2);
        slow.faults_mut().set_latency_factor(0, 10.0);
        let t = slow.transfer(0, 1, 0, Nanos::ZERO);
        assert_eq!(t, Nanos::from_micros(100), "latency factor scales propagation");
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Completion is never before arrival + latency, and repeated
            /// runs with the same schedule are identical (determinism).
            #[test]
            fn transfers_respect_causality_and_determinism(
                xfers in proptest::collection::vec((0usize..4, 0usize..4, 0u64..1_000_000, 0u64..1_000_000), 1..30)
            ) {
                let run = |xfers: &[(usize, usize, u64, u64)]| -> Vec<Nanos> {
                    let mut f = fabric(4);
                    let mut sorted = xfers.to_vec();
                    sorted.sort_by_key(|x| x.3);
                    sorted.iter().map(|&(s, d, b, t)| f.transfer(s, d, b, Nanos(t))).collect()
                };
                let a = run(&xfers);
                let b = run(&xfers);
                prop_assert_eq!(&a, &b);
                let mut sorted = xfers.clone();
                sorted.sort_by_key(|x| x.3);
                for (done, (s, d, _, t)) in a.iter().zip(&sorted) {
                    if s == d {
                        prop_assert_eq!(*done, Nanos(*t));
                    } else {
                        prop_assert!(*done >= Nanos(*t) + Nanos::from_micros(10));
                    }
                }
            }
        }
    }
}
