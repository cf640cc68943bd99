//! The shard-native fabric: [`FabricSim`] runs a fabric-backed world on
//! the sharded engine with network contention intact.
//!
//! The serial [`Fabric`](crate::Fabric) is a single mutable object —
//! unusable from shards running in parallel. This module splits it
//! along its ownership seams instead of locking it:
//!
//! * each shard owns its node's [`FabricEndpoint`] (egress queue +
//!   traffic counters) and a clone of the [`FaultPlane`], whose
//!   per-source draw counters make the clone's retransmit draws for
//!   this node identical to a shared plane's;
//! * a transfer is *admitted* shard-side — fault check, retransmit
//!   draws, sender accounting, egress reservation — producing a
//!   [`TransferDemand`] that carries the full serialization demand and
//!   is buffered in the shard's state;
//! * at every epoch barrier a `FabricStage` (an [`EpochStage`]) drains
//!   all buffered demands in `(source shard, admission seq)` order and
//!   replays the shared stages — the core switch and the destinations'
//!   ingress links — through the same [`FabricCore`] the serial fabric uses,
//!   then schedules each completion onto its destination shard.
//!
//! Delivery at the barrier is always causally safe: a demand admitted
//! at `sent` inside the window `[h, h + lookahead)` completes no
//! earlier than `sent + latency >= h + lookahead`, i.e. at or beyond
//! the window end every shard stopped at (the engine's lookahead *is*
//! the fabric latency).
//!
//! The stage also keeps a [`ReplayRecord`] log. Feeding that log, in
//! order, through a fresh serial `Fabric` (see
//! [`replay_records_serial`]) reproduces the sharded run's completion
//! times and traffic counters exactly — the equivalence contract
//! `tests/fabric_shard.rs` pins.
//!
//! # Mid-run fault injection
//!
//! Fault *schedules* (the chaos drivers' territory) are applied at
//! epoch barriers by the same stage: [`FabricSim::set_fault_timeline`]
//! installs a time-ordered list of [`PlaneCmd`]s on the stage's
//! *master* plane. At the barrier closing the window `[h, h + la)`,
//! every command with `at < h + la` is applied to the master — in
//! timeline order, on the calling thread, at the same point of every
//! epoch whatever the worker count — then each buffered demand is checked
//! against the *post-event* master (so a mid-epoch crash resolves as
//! [`Unreachable`] on the replayed core stage, never as a delivery),
//! and finally every shard's plane snapshot is refreshed via
//! [`FaultPlane::sync_from`], which preserves the shard's per-source
//! draw counters so its loss-draw sequence stays byte-identical to a
//! single shared plane's. A fault event at time `t` therefore affects
//! the deliveries of the window containing `t` and the admissions of
//! every later window; a crash healed within a single window is
//! invisible. Loopback transfers observe faults at admission only —
//! they never cross the wire, so the barrier does not re-check them.
//!
//! # The conservative-lookahead contract under latency inflation
//!
//! The engine's lookahead is the fabric's *healthy* propagation
//! latency, and [`FaultPlane::set_latency_factor`] clamps inflation
//! factors to `>= 1.0`: a faulted transfer's latency is always at
//! least the healthy latency, so inflation only *lengthens* delays and
//! every completion still lands at or beyond the window end the shards
//! stopped at. The stage asserts `done >= window_end` on every
//! non-loopback delivery — the invariant that keeps the epoch width
//! safe while chaos schedules inflate latencies mid-run.

use crate::fault::{FaultPlane, PlaneCmd, Unreachable};
use crate::network::{FabricCore, FabricEndpoint, FabricParams, NodeTraffic, TransferDemand};
use crate::shard::{EpochStage, EpochView, ShardCtx, ShardedSim};
use crate::time::Nanos;
use popper_trace::Tracer;
use std::sync::{Arc, Mutex};

/// A transfer's one continuation: `Ok` runs on the destination shard at
/// the completion time, `Err` on the source shard when the sender gives
/// up.
type NetAction<S> = Box<dyn for<'a, 'b> FnOnce(&mut NetCtx<'a, 'b, S>, Result<(), Unreachable>) + Send>;

/// Send attempts a [`NetCtx::transfer_retry`] makes before abandoning
/// the transfer.
pub const MAX_ATTEMPTS: usize = 12;

/// Backoff before retry `attempt + 1`: 1, 2, 4, ... ms, capped at 32 ms
/// — generous enough that any schedule ending healed is outlasted.
pub fn backoff(attempt: usize) -> Nanos {
    Nanos::from_millis(1 << attempt.min(5))
}

/// Failure and recovery bookkeeping of retried transfers. Each shard
/// keeps one; [`NetCtx::transfer_retry`] charges failures to the sender's
/// and recoveries to the receiver's, and [`RetryStats::fold`] sums a
/// run's shards into one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RetryStats {
    /// Send timeouts observed.
    pub detections: u64,
    /// Transfers whose first attempt failed.
    pub degraded: u64,
    /// Transfers delivered after one or more retries.
    pub recovered: u64,
    /// Transfers abandoned after [`MAX_ATTEMPTS`].
    pub lost: u64,
    /// Earliest failure observed.
    pub first_fail: Option<Nanos>,
    /// Latest recovered delivery observed.
    pub last_recovery: Nanos,
}

impl RetryStats {
    /// A send timed out at `at`.
    pub fn note_detection(&mut self, at: Nanos) {
        self.detections += 1;
        self.first_fail = Some(self.first_fail.map_or(at, |f| f.min(at)));
    }

    /// A retried transfer landed at `at`.
    pub fn note_recovery(&mut self, at: Nanos) {
        self.recovered += 1;
        self.last_recovery = self.last_recovery.max(at);
    }

    /// Totals over a run's shards: counters add, the earliest failure
    /// and the latest recovery win.
    pub fn fold<'a>(all: impl IntoIterator<Item = &'a RetryStats>) -> RetryStats {
        all.into_iter().fold(RetryStats::default(), |acc, s| RetryStats {
            detections: acc.detections + s.detections,
            degraded: acc.degraded + s.degraded,
            recovered: acc.recovered + s.recovered,
            lost: acc.lost + s.lost,
            first_fail: acc.first_fail.into_iter().chain(s.first_fail).min(),
            last_recovery: acc.last_recovery.max(s.last_recovery),
        })
    }

    /// First failure to last recovery, in milliseconds (0 without both).
    pub fn recovery_ms(&self) -> f64 {
        match self.first_fail {
            Some(f) if self.last_recovery > f => (self.last_recovery - f).0 as f64 / 1e6,
            _ => 0.0,
        }
    }
}

/// One shard of a fabric-backed world: the node's endpoint state, its
/// fault view, the demands admitted this epoch, and the user state.
pub struct NetShard<S> {
    endpoint: FabricEndpoint,
    faults: FaultPlane,
    pending: Vec<PendingTransfer<S>>,
    state: S,
}

struct PendingTransfer<S> {
    demand: TransferDemand,
    /// The continuation (`None` for loopback, which is delivered locally
    /// at send time).
    then: Option<NetAction<S>>,
    /// Whether a barrier-applied fault that leaves the demand
    /// undeliverable runs `then` with `Err` on the *source* shard
    /// ([`NetCtx::transfer_or`]) or drops it ([`NetCtx::transfer`]).
    observe_fail: bool,
}

/// One transfer in the core stage's replay log, in the deterministic
/// `(epoch, source shard, admission seq)` completion order. Replaying
/// the log through a fresh serial [`Fabric`](crate::Fabric) — one
/// `try_transfer(src, dst, bytes, sent)` per entry, in order —
/// reproduces every `done` and every traffic counter of the sharded
/// run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayEntry {
    /// Sending node.
    pub src: usize,
    /// Receiving node.
    pub dst: usize,
    /// Payload bytes.
    pub bytes: u64,
    /// Admission time at the sender.
    pub sent: Nanos,
    /// Completion time at the receiver (`sent` for loopback).
    pub done: Nanos,
}

/// One entry of the core stage's full admission log — everything a
/// serial [`Fabric`](crate::Fabric) needs to reproduce the sharded
/// run, faults included, byte for byte (see [`replay_records_serial`]).
/// Within one barrier the order is: the window's admissions (in
/// `(source shard, admission seq)` order), then the fault commands the
/// barrier applied — so a replaying fabric admits each window's
/// demands against exactly the plane state the shards admitted them
/// against.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplayRecord {
    /// A delivered transfer.
    Transfer(ReplayEntry),
    /// A demand admitted shard-side that a barrier-applied fault left
    /// undeliverable: the sender's admission charges stand (the bytes
    /// went on the wire), nothing arrived. Replay with
    /// [`Fabric::admit_only`](crate::Fabric::admit_only).
    Failed {
        /// Sending node.
        src: usize,
        /// Receiving node.
        dst: usize,
        /// Payload bytes.
        bytes: u64,
        /// Admission time at the sender.
        sent: Nanos,
    },
    /// A fault-plane mutation applied at the barrier closing the
    /// window whose admissions precede it in the log.
    Fault(PlaneCmd),
}

/// The scheduled-fault state the barrier stage owns: the master plane
/// every failure decision consults, and the timeline of commands still
/// to apply. Shards hold per-endpoint snapshots of the master,
/// refreshed (draw counters preserved) whenever a barrier applies one
/// or more commands.
struct ShardedFaultPlane {
    master: FaultPlane,
    /// Time-ordered `(at, cmd)` pairs; `next` indexes the first not yet
    /// applied.
    timeline: Vec<(Nanos, PlaneCmd)>,
    next: usize,
}

impl ShardedFaultPlane {
    /// Apply every command due strictly before `window_end` to the
    /// master, returning the `(at, cmd)` pairs applied (empty almost
    /// always — the healthy-path cost is one bounds check).
    fn apply_due(&mut self, window_end: Nanos) -> Vec<(Nanos, PlaneCmd)> {
        let mut applied = Vec::new();
        while let Some((at, cmd)) = self.timeline.get(self.next) {
            if *at >= window_end {
                break;
            }
            self.master.apply(cmd);
            applied.push((*at, cmd.clone()));
            self.next += 1;
        }
        applied
    }
}

struct CoreState {
    core: FabricCore,
    log: Vec<ReplayRecord>,
    faults: ShardedFaultPlane,
}

/// The barrier-replayed shared-core stage (install via
/// [`FabricSim`]; public only through its effects).
struct FabricStage {
    core: Arc<Mutex<CoreState>>,
}

impl<S: Send + 'static> EpochStage<NetShard<S>> for FabricStage {
    fn reconcile(&mut self, view: &mut EpochView<'_, NetShard<S>>) {
        let window_end = view.window_end();
        let mut core = self.core.lock().expect("fabric core");
        // Scheduled fault events due inside the window this barrier
        // closes take effect now, before any of the window's demands
        // are completed: a mid-epoch crash resolves as `Unreachable`
        // on the replayed core stage, never as a delivery.
        let applied = core.faults.apply_due(window_end);
        for (at, cmd) in &applied {
            view.tracer().instant_at("chaos", "chaos/faults", cmd.label(), at.0);
        }
        for src in 0..view.shards() {
            let pending = std::mem::take(&mut view.state(src).pending);
            for p in pending {
                let d = p.demand;
                if d.is_loopback() {
                    // Counted and delivered locally at send time (faults
                    // were observed at admission only — a loopback never
                    // crosses the wire); logged so the serial replay
                    // counts the same traffic.
                    core.log.push(ReplayRecord::Transfer(ReplayEntry {
                        src: d.src,
                        dst: d.dst,
                        bytes: d.bytes,
                        sent: d.sent,
                        done: d.sent,
                    }));
                    continue;
                }
                if core.faults.master.is_active() && !core.faults.master.reachable(d.src, d.dst) {
                    // The sender's admission charges stand — the bytes
                    // went on the wire — but the core and the receiver
                    // are never touched. The sender observes the failure
                    // at the serial fabric's timeout.
                    core.log.push(ReplayRecord::Failed {
                        src: d.src,
                        dst: d.dst,
                        bytes: d.bytes,
                        sent: d.sent,
                    });
                    if let Some(then) = p.then.filter(|_| p.observe_fail) {
                        let gave_up_at = d.sent + core.faults.master.timeout();
                        let u = Unreachable {
                            src: d.src,
                            dst: d.dst,
                            crashed: core.faults.master.crashed_endpoint(d.src, d.dst),
                            gave_up_at,
                        };
                        let at = gave_up_at.max(view.now(d.src));
                        view.schedule(d.src, at, move |ctx| then(&mut NetCtx { inner: ctx }, Err(u)));
                    }
                    continue;
                }
                let done = {
                    let CoreState { core, log, .. } = &mut *core;
                    let done = core.complete(&d, view.tracer());
                    log.push(ReplayRecord::Transfer(ReplayEntry {
                        src: d.src,
                        dst: d.dst,
                        bytes: d.bytes,
                        sent: d.sent,
                        done,
                    }));
                    done
                };
                // The conservative-lookahead contract: latency factors
                // are clamped to >= 1.0, so fault inflation only
                // lengthens delays and every delivery still lands at or
                // beyond the window end the shards stopped at.
                assert!(
                    done >= window_end,
                    "fabric delivery at {done} inside the window ending {window_end}: \
                     latency inflation must only lengthen delays"
                );
                view.state(d.dst).endpoint.deliver(d.bytes);
                if let Some(then) = p.then {
                    view.schedule(d.dst, done, move |ctx| then(&mut NetCtx { inner: ctx }, Ok(())));
                }
            }
        }
        // The commands land in the log *after* the window's admissions:
        // a replaying serial fabric then admits each window's demands
        // against the plane state the shards admitted them against.
        let refreshed = !applied.is_empty();
        for (_, cmd) in applied {
            core.log.push(ReplayRecord::Fault(cmd));
        }
        if refreshed {
            // Redistribute the post-event plane to every shard (cheap:
            // fault state only, draw counters are preserved shard-side).
            let master = core.faults.master.clone();
            for node in 0..view.shards() {
                view.state(node).faults.sync_from(&master);
            }
        }
    }
}

/// The view a fabric-world event gets: the user state, the local clock,
/// local scheduling, and fabric transfers.
pub struct NetCtx<'a, 'b, S> {
    inner: &'a mut ShardCtx<'b, NetShard<S>>,
}

impl<S: Send + 'static> NetCtx<'_, '_, S> {
    /// This shard's node id.
    pub fn node(&self) -> usize {
        self.inner.shard_id()
    }

    /// Number of nodes (= shards) on the fabric.
    pub fn nodes(&self) -> usize {
        self.inner.shards()
    }

    /// The shard-local virtual time.
    pub fn now(&self) -> Nanos {
        self.inner.now()
    }

    /// The user state of this shard.
    pub fn state(&mut self) -> &mut S {
        &mut self.inner.state().state
    }

    /// This node's disk-slowdown factor, as of the last barrier that
    /// applied a fault command.
    pub fn disk_factor(&mut self) -> f64 {
        let node = self.node();
        self.inner.state().faults.disk_factor(node)
    }

    /// This node's traffic counters so far (deliveries land at epoch
    /// barriers, so mid-epoch reads may trail in-flight transfers).
    pub fn traffic(&mut self) -> NodeTraffic {
        self.inner.state().endpoint.traffic()
    }

    /// Schedule a local event `delay` after now.
    pub fn schedule_in(
        &mut self,
        delay: Nanos,
        action: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>) + Send + 'static,
    ) {
        self.inner.schedule_in(delay, move |ctx| action(&mut NetCtx { inner: ctx }));
    }

    /// Schedule a local event at absolute time `at`.
    pub fn schedule_at(
        &mut self,
        at: Nanos,
        action: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>) + Send + 'static,
    ) {
        self.inner.schedule_at(at, move |ctx| action(&mut NetCtx { inner: ctx }));
    }

    /// Send `bytes` to `dst` over the fabric; `on_done` runs on the
    /// destination shard at the transfer's completion time (for
    /// loopback: locally, at the current time). If a fault makes the
    /// destination unreachable — at admission, or via a scheduled
    /// fault applied at the epoch barrier while the demand was in
    /// flight — the message is dropped silently; use
    /// [`transfer_or`](Self::transfer_or) to observe the failure.
    pub fn transfer(
        &mut self,
        dst: usize,
        bytes: u64,
        on_done: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>) + Send + 'static,
    ) {
        self.transfer_impl(dst, bytes, false, move |c, sent| {
            if sent.is_ok() {
                on_done(c)
            }
        });
    }

    /// Like [`transfer`](Self::transfer), but on an unreachable
    /// destination `on_fail` runs on *this* shard at the time the
    /// sender gives up (`now + timeout`), mirroring the serial fabric's
    /// timeout charge. The failure is observed both at admission (the
    /// plane already marks the peer unreachable) and at the epoch
    /// barrier (a scheduled fault struck while the demand was in
    /// flight; the sender's admission charges stand).
    pub fn transfer_or(
        &mut self,
        dst: usize,
        bytes: u64,
        on_done: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>) + Send + 'static,
        on_fail: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>, Unreachable) + Send + 'static,
    ) {
        self.transfer_impl(dst, bytes, true, move |c, sent| match sent {
            Ok(()) => on_done(c),
            Err(u) => on_fail(c, u),
        });
    }

    /// Like [`transfer_or`](Self::transfer_or) with one continuation,
    /// re-sending on every failure after a capped [`backoff`] until the
    /// transfer lands or [`MAX_ATTEMPTS`] attempts have failed. `then`
    /// runs once: with `Ok` on the destination shard when a transfer
    /// lands, with the last failure on this shard once the attempts are
    /// spent. `stats` picks the [`RetryStats`] out of a shard's state;
    /// failures are charged to the sender's, deliveries after a retry
    /// to the receiver's. A retry issued right after a heal can still
    /// fail once — its shard sees the refreshed fault snapshot only
    /// after the heal's barrier — so the loop runs until the plane
    /// catches up.
    pub fn transfer_retry(
        &mut self,
        dst: usize,
        bytes: u64,
        stats: fn(&mut S) -> &mut RetryStats,
        then: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>, Result<(), Unreachable>) + Send + 'static,
    ) {
        self.retry_from(dst, bytes, stats, 0, then);
    }

    fn retry_from<F>(
        &mut self,
        dst: usize,
        bytes: u64,
        stats: fn(&mut S) -> &mut RetryStats,
        attempt: usize,
        then: F,
    ) where
        F: for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>, Result<(), Unreachable>) + Send + 'static,
    {
        self.transfer_impl(dst, bytes, true, move |c, sent| match sent {
            Ok(()) => {
                if attempt > 0 {
                    let now = c.now();
                    stats(c.state()).note_recovery(now);
                }
                then(c, Ok(()));
            }
            Err(u) => {
                let s = stats(c.state());
                s.note_detection(u.gave_up_at);
                s.degraded += u64::from(attempt == 0);
                if attempt + 1 >= MAX_ATTEMPTS {
                    s.lost += 1;
                    then(c, Err(u));
                } else {
                    c.schedule_in(backoff(attempt), move |c| c.retry_from(dst, bytes, stats, attempt + 1, then));
                }
            }
        });
    }

    fn transfer_impl(
        &mut self,
        dst: usize,
        bytes: u64,
        observe_fail: bool,
        then: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>, Result<(), Unreachable>) + Send + 'static,
    ) {
        assert!(dst < self.inner.shards(), "destination node {dst} out of range");
        let now = self.inner.now();
        let admitted = {
            let NetShard { endpoint, faults, .. } = self.inner.state();
            endpoint.admit(dst, bytes, now, faults)
        };
        match admitted {
            Ok(demand) if demand.is_loopback() => {
                let shard = self.inner.state();
                shard.endpoint.deliver(bytes);
                shard.pending.push(PendingTransfer { demand, then: None, observe_fail });
                // Locality is free: deliver at the current time, after
                // the in-flight event finishes.
                self.schedule_in(Nanos::ZERO, move |ctx| then(ctx, Ok(())));
            }
            Ok(demand) => {
                let then: NetAction<S> = Box::new(then);
                self.inner.state().pending.push(PendingTransfer { demand, then: Some(then), observe_fail });
            }
            Err(u) if observe_fail => {
                self.inner.schedule_at(u.gave_up_at, move |ctx| then(&mut NetCtx { inner: ctx }, Err(u)));
            }
            Err(_) => {}
        }
    }
}

/// A sharded simulator whose shards are fabric endpoints: the
/// shard-native counterpart of driving a serial
/// [`Fabric`](crate::Fabric) from a single event loop. The engine's
/// conservative lookahead is the fabric's propagation latency.
pub struct FabricSim<S> {
    sim: ShardedSim<NetShard<S>>,
    core: Arc<Mutex<CoreState>>,
}

impl<S: Send + 'static> FabricSim<S> {
    /// A fabric-backed world with one shard (= fabric node) per entry
    /// of `states`; `link_gbit`, `latency` and `oversubscription` are
    /// the serial fabric's parameters. The latency is clamped to at
    /// least 1 ns — it doubles as the engine lookahead.
    pub fn new(states: Vec<S>, link_gbit: f64, latency: Nanos, oversubscription: f64) -> Self {
        let nodes = states.len();
        Self::with_faults(states, link_gbit, latency, oversubscription, FaultPlane::new(nodes))
    }

    /// Like [`new`](Self::new) with a pre-configured fault plane. The
    /// plane is snapshotted per shard at construction and doubles as
    /// the barrier stage's master; schedule mid-run fault events with
    /// [`set_fault_timeline`](Self::set_fault_timeline).
    pub fn with_faults(
        states: Vec<S>,
        link_gbit: f64,
        latency: Nanos,
        oversubscription: f64,
        faults: FaultPlane,
    ) -> Self {
        let nodes = states.len();
        assert_eq!(faults.nodes(), nodes, "fault plane covers a different node count");
        let latency = latency.max(Nanos(1));
        let params = FabricParams::new(nodes, link_gbit, latency, oversubscription);
        let shards: Vec<NetShard<S>> = states
            .into_iter()
            .enumerate()
            .map(|(node, state)| NetShard {
                endpoint: FabricEndpoint::new(node, params),
                faults: faults.clone(),
                pending: Vec::new(),
                state,
            })
            .collect();
        let mut sim = ShardedSim::new(shards, latency);
        let core = Arc::new(Mutex::new(CoreState {
            core: FabricCore::new(nodes),
            log: Vec::new(),
            faults: ShardedFaultPlane { master: faults, timeline: Vec::new(), next: 0 },
        }));
        sim.set_stage(FabricStage { core: Arc::clone(&core) });
        FabricSim { sim, core }
    }

    /// Install a scheduled-fault timeline: `seed` feeds the
    /// deterministic loss sampler on every plane (master and shard
    /// snapshots — first-window admissions precede any barrier sync),
    /// and each `(at, cmd)` is applied to the master plane at the
    /// barrier closing the window containing `at`, then redistributed
    /// to the shards. The timeline is stable-sorted by time, so
    /// same-instant commands keep the caller's order. Replaces any
    /// previous timeline; call before running.
    pub fn set_fault_timeline(&mut self, seed: u64, mut timeline: Vec<(Nanos, PlaneCmd)>) {
        timeline.sort_by_key(|(at, _)| *at);
        {
            let mut core = self.core.lock().expect("fabric core");
            core.faults.master.set_seed(seed);
            core.faults.timeline = timeline;
            core.faults.next = 0;
        }
        for node in 0..self.sim.shards() {
            self.sim.state_mut(node).faults.set_seed(seed);
        }
    }

    /// Replace the tracer captured at construction.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.sim.set_tracer(tracer);
    }

    /// Seed an event on `node` at absolute time `at`.
    pub fn schedule(
        &mut self,
        node: usize,
        at: Nanos,
        action: impl for<'x, 'y> FnOnce(&mut NetCtx<'x, 'y, S>) + Send + 'static,
    ) {
        self.sim.schedule(node, at, move |ctx| action(&mut NetCtx { inner: ctx }));
    }

    /// Run single-threaded (the reference execution).
    pub fn run(&mut self) -> Nanos {
        self.sim.run()
    }

    /// Run with `workers` threads; results and trace bytes are
    /// identical to [`run`](Self::run) for every worker count.
    pub fn run_sharded(&mut self, workers: usize) -> Nanos {
        self.sim.run_sharded(workers)
    }

    /// Borrow one node's user state.
    pub fn state(&self, node: usize) -> &S {
        &self.sim.state(node).state
    }

    /// Iterate over all user states in node order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.sim.states().map(|s| &s.state)
    }

    /// Traffic counters for one node.
    pub fn traffic(&self, node: usize) -> NodeTraffic {
        self.sim.state(node).endpoint.traffic()
    }

    /// Total wire bytes (tx side, retransmits included), matching
    /// `Fabric::total_bytes`.
    pub fn total_bytes(&self) -> u64 {
        self.sim.states().map(|s| s.endpoint.traffic().tx_bytes).sum()
    }

    /// Total events dispatched.
    pub fn events_fired(&self) -> u64 {
        self.sim.events_fired()
    }

    /// Epoch barriers crossed.
    pub fn epochs(&self) -> u64 {
        self.sim.epochs()
    }

    /// The final virtual time.
    pub fn now(&self) -> Nanos {
        self.sim.now()
    }

    /// The completed-transfer log, in deterministic completion order
    /// (see [`ReplayEntry`]). Failed demands and fault commands are
    /// omitted — use [`replay_records`](Self::replay_records) for the
    /// full log a faulted run needs.
    pub fn replay_log(&self) -> Vec<ReplayEntry> {
        self.core
            .lock()
            .expect("fabric core")
            .log
            .iter()
            .filter_map(|r| match r {
                ReplayRecord::Transfer(e) => Some(*e),
                _ => None,
            })
            .collect()
    }

    /// The full admission log — transfers, barrier-failed demands and
    /// barrier-applied fault commands, in deterministic order (see
    /// [`ReplayRecord`]).
    pub fn replay_records(&self) -> Vec<ReplayRecord> {
        self.core.lock().expect("fabric core").log.clone()
    }
}

/// Replay a sharded run's full admission log through a serial
/// [`Fabric`](crate::Fabric), checking the equivalence contract record
/// by record: every [`ReplayRecord::Transfer`] must reproduce its
/// logged completion time via `try_transfer`, every
/// [`ReplayRecord::Failed`] must admit cleanly via `admit_only` (the
/// serial plane trails the sharded master by the commands logged after
/// the window's admissions, so admission-time state matches), and
/// every [`ReplayRecord::Fault`] mutates the serial plane in place.
/// The caller seeds the serial fabric's plane (and any static faults)
/// to match the sharded run before calling. After a clean replay the
/// serial fabric's traffic counters equal the sharded run's.
pub fn replay_records_serial(
    records: &[ReplayRecord],
    fabric: &mut crate::Fabric,
) -> Result<(), String> {
    for (i, rec) in records.iter().enumerate() {
        match rec {
            ReplayRecord::Transfer(e) => {
                let done = fabric
                    .try_transfer(e.src, e.dst, e.bytes, e.sent)
                    .map_err(|u| format!("record {i}: serial replay refused {e:?}: {u}"))?;
                if done != e.done {
                    return Err(format!(
                        "record {i}: serial replay of {e:?} completed at {done}, sharded run saw {}",
                        e.done
                    ));
                }
            }
            ReplayRecord::Failed { src, dst, bytes, sent } => {
                fabric.admit_only(*src, *dst, *bytes, *sent).map_err(|u| {
                    format!("record {i}: serial replay could not admit failed demand: {u}")
                })?;
            }
            ReplayRecord::Fault(cmd) => fabric.faults_mut().apply(cmd),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Fabric;

    /// Build an n-node world where each listed `(src, dst, bytes, at)`
    /// transfer is issued at its time and the completion time is logged
    /// into the source node's state.
    fn world(n: usize, xfers: &[(usize, usize, u64, u64)]) -> FabricSim<Vec<(usize, Nanos)>> {
        let mut sim = FabricSim::new(vec![Vec::new(); n], 10.0, Nanos::from_micros(10), 1.0);
        for &(src, dst, bytes, at) in xfers {
            sim.schedule(src, Nanos(at), move |ctx| {
                ctx.transfer(dst, bytes, move |done_ctx| {
                    let t = done_ctx.now();
                    done_ctx.state().push((dst, t));
                });
            });
        }
        sim
    }

    #[test]
    fn single_transfer_matches_the_serial_fabric() {
        let mut sim = world(2, &[(0, 1, 1_250_000, 0)]);
        sim.run();
        let mut serial = Fabric::new(2, 10.0, Nanos::from_micros(10), 1.0);
        let done = serial.try_transfer(0, 1, 1_250_000, Nanos::ZERO).unwrap();
        assert_eq!(sim.replay_log(), vec![ReplayEntry { src: 0, dst: 1, bytes: 1_250_000, sent: Nanos::ZERO, done }]);
        // The completion callback fired on the destination shard at `done`.
        assert_eq!(sim.state(1), &vec![(1, done)]);
        assert!(sim.state(0).is_empty());
        assert_eq!(sim.now(), done);
        assert_eq!(sim.traffic(0).tx_bytes, serial.traffic(0).tx_bytes);
        assert_eq!(sim.traffic(1).rx_bytes, serial.traffic(1).rx_bytes);
    }

    #[test]
    fn loopback_is_free_and_counted() {
        let mut sim = world(2, &[(0, 0, 4096, 7)]);
        sim.run();
        assert_eq!(sim.traffic(0).tx_bytes, 4096);
        assert_eq!(sim.traffic(0).rx_bytes, 4096);
        let log = sim.replay_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].done, Nanos(7));
        assert_eq!(sim.now(), Nanos(7));
    }

    #[test]
    fn unreachable_destination_runs_on_fail_at_the_timeout() {
        let mut faults = FaultPlane::new(2);
        faults.crash(1);
        let mut sim: FabricSim<Vec<Nanos>> =
            FabricSim::with_faults(vec![Vec::new(); 2], 10.0, Nanos::from_micros(10), 1.0, faults.clone());
        sim.schedule(0, Nanos(100), move |ctx| {
            ctx.transfer_or(
                1,
                4096,
                |_| panic!("delivered to a crashed node"),
                |ctx, u| {
                    let t = ctx.now();
                    assert_eq!(u.crashed, Some(1));
                    ctx.state().push(t);
                },
            );
        });
        sim.run();
        assert_eq!(sim.state(0), &vec![Nanos(100) + faults.timeout()]);
        // Nothing was put on the wire and nothing was logged.
        assert_eq!(sim.total_bytes(), 0);
        assert!(sim.replay_log().is_empty());
    }

    /// Retry-with-backoff until the restarted peer's heal has crossed a
    /// barrier and reached this shard's plane snapshot.
    fn retry(c: &mut NetCtx<'_, '_, Vec<(&'static str, Nanos)>>, attempt: usize) {
        assert!(attempt < 8, "retry never succeeded");
        c.transfer_or(
            1,
            4096,
            |cc| {
                let t = cc.now();
                cc.state().push(("retried", t));
            },
            move |cc, _| retry(cc, attempt + 1),
        );
    }

    #[test]
    fn scheduled_crash_fails_in_flight_demands_and_the_log_replays_serially() {
        // Timeline: node 1 crashes at 50 us, restarts at 200 us. The
        // sender transfers at 0 (healthy), 60 us (admitted, then the
        // barrier applies the crash -> Failed) and retries from the
        // failure callback (lands after the restart).
        let run = |workers: usize| {
            let mut sim: FabricSim<Vec<(&'static str, Nanos)>> =
                FabricSim::new(vec![Vec::new(); 2], 10.0, Nanos::from_micros(10), 1.0);
            sim.set_fault_timeline(
                5,
                vec![
                    (Nanos::from_micros(50), PlaneCmd::Crash(1)),
                    (Nanos::from_micros(200), PlaneCmd::Restart(1)),
                ],
            );
            sim.schedule(0, Nanos::ZERO, |ctx| {
                ctx.transfer(1, 4096, |c| {
                    let t = c.now();
                    c.state().push(("first", t));
                });
            });
            sim.schedule(0, Nanos::from_micros(60), |ctx| {
                ctx.transfer_or(
                    1,
                    4096,
                    |_| panic!("delivered through a crash"),
                    |c, u| {
                        assert_eq!(u.crashed, Some(1));
                        let t = c.now();
                        c.state().push(("failed", t));
                        retry(c, 0);
                    },
                );
            });
            sim.run_sharded(workers);
            sim
        };
        let reference = run(1);
        // The in-flight demand failed at the sender's timeout ...
        let fails: Vec<_> = reference.state(0).iter().filter(|(k, _)| *k == "failed").collect();
        assert_eq!(fails.len(), 1);
        assert_eq!(fails[0].1, Nanos::from_micros(60) + crate::fault::DEFAULT_TIMEOUT);
        // ... and the retry landed on the restarted node.
        assert_eq!(reference.state(1).iter().filter(|(k, _)| *k == "retried").count(), 1);
        // The sender was charged for the failed attempt (3 admissions on
        // the wire), the receiver only saw the two deliveries.
        assert_eq!(reference.traffic(0).tx_bytes, 3 * 4096);
        assert_eq!(reference.traffic(1).rx_bytes, 2 * 4096);
        // The full log replays through a serial fabric byte for byte.
        let records = reference.replay_records();
        assert!(records.iter().any(|r| matches!(r, ReplayRecord::Failed { .. })));
        assert!(records.iter().any(|r| matches!(r, ReplayRecord::Fault(PlaneCmd::Crash(1)))));
        let mut serial = Fabric::new(2, 10.0, Nanos::from_micros(10), 1.0);
        serial.faults_mut().set_seed(5);
        replay_records_serial(&records, &mut serial).expect("serial replay");
        assert_eq!(serial.traffic(0), reference.traffic(0));
        assert_eq!(serial.traffic(1), reference.traffic(1));
        // Every worker count produces the identical log and state.
        for workers in [2, 4] {
            let parallel = run(workers);
            assert_eq!(parallel.replay_records(), records, "workers={workers}");
            assert_eq!(parallel.state(0), reference.state(0));
            assert_eq!(parallel.state(1), reference.state(1));
        }
    }

    #[test]
    fn transfer_retry_backs_off_recovers_and_gives_up_at_the_cap() {
        // Node 1 is down from the start; `restart` brings it back at
        // 10 ms. Each run sends one retried transfer 0 -> 1 and logs the
        // outcome on whichever shard the continuation runs.
        let run = |restart: bool| {
            let mut sim: FabricSim<(Vec<bool>, RetryStats)> =
                FabricSim::new(vec![(Vec::new(), RetryStats::default()); 2], 10.0, Nanos::from_micros(10), 1.0);
            let mut timeline = vec![(Nanos::ZERO, PlaneCmd::Crash(1))];
            if restart {
                timeline.push((Nanos::from_millis(10), PlaneCmd::Restart(1)));
            }
            sim.set_fault_timeline(1, timeline);
            sim.schedule(0, Nanos::from_micros(20), |ctx| {
                ctx.transfer_retry(1, 4096, |s| &mut s.1, |c, sent| c.state().0.push(sent.is_ok()));
            });
            sim.run();
            let stats = RetryStats::fold(sim.states().map(|s| &s.1));
            (sim.state(0).0.clone(), sim.state(1).0.clone(), stats)
        };
        let (src, dst, healed) = run(true);
        assert_eq!((src, dst), (vec![], vec![true]), "landed once, on the receiver");
        assert_eq!((healed.degraded, healed.recovered, healed.lost), (1, 1, 0));
        assert!(healed.detections >= 1 && healed.recovery_ms() > 0.0);
        let (src, dst, dead) = run(false);
        assert_eq!((src, dst), (vec![false], vec![]), "given up once, on the sender");
        assert_eq!((dead.detections, dead.degraded, dead.recovered, dead.lost), (MAX_ATTEMPTS as u64, 1, 0, 1));
        assert_eq!(dead.recovery_ms(), 0.0);
        assert_eq!(backoff(0), Nanos::from_millis(1));
        assert_eq!(backoff(MAX_ATTEMPTS), Nanos::from_millis(32));
    }

    #[test]
    fn latency_inflation_respects_the_lookahead_contract() {
        // A mid-run latency inflation must only lengthen delays; the
        // stage asserts every delivery lands at or beyond its window
        // end, so a clean run *is* the proof.
        let mut sim: FabricSim<Vec<Nanos>> =
            FabricSim::new(vec![Vec::new(); 2], 10.0, Nanos::from_micros(10), 1.0);
        sim.set_fault_timeline(
            1,
            vec![(Nanos::from_micros(5), PlaneCmd::Latency { node: 1, factor: 8.0 })],
        );
        sim.schedule(0, Nanos::ZERO, |ctx| {
            ctx.transfer(1, 0, |c| {
                let t = c.now();
                c.state().push(t);
            });
        });
        // Admitted before the inflation lands: healthy latency.
        sim.schedule(0, Nanos::from_micros(100), |ctx| {
            ctx.transfer(1, 0, |c| {
                let t = c.now();
                c.state().push(t);
            });
        });
        sim.run();
        let dones = sim.state(1).clone();
        assert_eq!(dones[0], Nanos::from_micros(10));
        assert_eq!(dones[1], Nanos::from_micros(100) + Nanos::from_micros(80));
    }

    #[test]
    fn fan_out_and_incast_match_worker_counts() {
        let xfers: Vec<(usize, usize, u64, u64)> =
            (1..6).map(|s| (s, 0, 1_250_000u64, 0u64)).collect();
        let reference = {
            let mut sim = world(6, &xfers);
            sim.run();
            (sim.replay_log(), sim.now(), sim.events_fired())
        };
        for workers in [2, 4, 8] {
            let mut sim = world(6, &xfers);
            sim.run_sharded(workers);
            assert_eq!(sim.replay_log(), reference.0, "workers={workers}");
            assert_eq!(sim.now(), reference.1);
            assert_eq!(sim.events_fired(), reference.2);
        }
    }
}
