//! The sharded discrete-event engine.
//!
//! [`ShardedSim<S>`] partitions a simulation into shards — one per
//! simulated node, domain or tenant — each with its own event queue,
//! virtual clock and sequence counter. Shards advance in lock-step
//! *epochs*: a conservative lookahead window derived from the fabric's
//! propagation latency bounds how far any shard may run ahead, because
//! no cross-shard message can arrive earlier than `send_time +
//! lookahead`. Within one epoch every shard's events are causally
//! independent of every other shard's, so a thick epoch can run on
//! scoped threads in parallel, one contiguous slice of shards each.
//!
//! [`ShardedSim::run`] and [`ShardedSim::run_sharded`] are one epoch
//! loop: the calling thread computes each window, runs it (inline, or
//! across `std::thread::scope` threads when at least
//! [`FAN_OUT_MIN_QUEUED`] events are queued), then runs the epoch
//! boundary alone. A panicking event action therefore propagates out of
//! the run on every path instead of stranding its peers.
//!
//! Determinism is the hard invariant (the Popper convention's "the
//! experiment re-executes exactly"): regardless of how many workers run
//! an epoch or how the OS interleaves them,
//!
//! * each shard fires its own events in `(time, seq)` order: time first,
//!   and events at equal times in the order they were scheduled;
//! * cross-shard messages are buffered in per-shard outboxes and merged
//!   at the epoch boundary in a fixed `(epoch, source shard, send
//!   seq)` order, so destination queues are populated identically on
//!   every run;
//! * trace events are buffered per shard and flushed by the
//!   calling thread in shard order, so the recorded trace is
//!   byte-identical to the single-threaded reference execution.
//!
//! A one-shard `ShardedSim` with a lookahead of [`Nanos::MAX`] is the
//! serial engine: nothing crosses shards, so the run is one epoch.
//!
//! The property tests at the bottom (and `tests/sim_shard.rs` at the
//! workspace root) pin the `(time, seq)` firing order and `run()` ≡
//! `run_sharded(n)` for every `n`; the models in `tests/sim_shard.rs`
//! and `tests/fabric_shard.rs` that queue more than
//! [`FAN_OUT_MIN_QUEUED`] events pin it on the fan-out branch.

use crate::time::Nanos;
use popper_trace::Tracer;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How many shard-local dispatches between `pending` counter samples.
/// Sampling (rather than recording every queue length) keeps tracing
/// overhead bounded on event-dense models.
const COUNTER_EVERY: u64 = 64;

/// Fewest events queued across all shards at the start of an epoch for
/// [`ShardedSim::run_sharded`] to fan its window out over scoped
/// threads; a thinner epoch runs inline on the calling thread. A
/// spawned thread costs tens of microseconds, and the sharded worlds'
/// epochs are thin (3 to 108 queued events at their golden and
/// perfbench sizes): fanning every epoch out ran perfbench's orchestra
/// world at 2 workers in 128 ms, against 2.2 ms inline, on a 2-vCPU
/// host. Output does not depend on which branch runs, so this changes
/// no byte.
pub const FAN_OUT_MIN_QUEUED: usize = 256;

type ShardAction<S> = Box<dyn FnOnce(&mut ShardCtx<'_, S>) + Send>;

struct ShardEvent<S> {
    at: Nanos,
    seq: u64,
    action: ShardAction<S>,
}

impl<S> PartialEq for ShardEvent<S> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<S> Eq for ShardEvent<S> {}
impl<S> PartialOrd for ShardEvent<S> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<S> Ord for ShardEvent<S> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap: invert so the earliest (time, seq) pops first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A cross-shard message produced during an epoch, waiting in its
/// source shard's outbox for the boundary merge.
struct Outgoing<S> {
    dst: usize,
    at: Nanos,
    action: ShardAction<S>,
}

/// A trace record buffered inside a shard during an epoch, forwarded to
/// the real [`Tracer`] by the calling thread in shard order.
enum TraceRec {
    Dispatch { ts: u64 },
    Pending { ts: u64, depth: f64 },
}

struct Shard<S> {
    id: usize,
    now: Nanos,
    seq: u64,
    fired: u64,
    queue: BinaryHeap<ShardEvent<S>>,
    outbox: Vec<Outgoing<S>>,
    trace: Vec<TraceRec>,
    /// True once a drain-time `pending = 0` sample has been emitted and
    /// no dispatch has happened since.
    drain_sampled: bool,
    state: S,
}

impl<S> Shard<S> {
    fn new(id: usize, state: S) -> Self {
        Shard {
            id,
            now: Nanos::ZERO,
            seq: 0,
            fired: 0,
            queue: BinaryHeap::new(),
            outbox: Vec::new(),
            trace: Vec::new(),
            drain_sampled: true,
            state,
        }
    }

    fn push(&mut self, at: Nanos, action: ShardAction<S>) {
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(ShardEvent { at, seq, action });
    }

    fn next_at(&self) -> Option<Nanos> {
        self.queue.peek().map(|ev| ev.at)
    }

    /// Fire every event strictly before `window_end`, including events
    /// those events schedule locally inside the window. A window that
    /// saturates at [`Nanos::MAX`] includes it, or such events would
    /// never fire and the run would never end.
    fn process_window(&mut self, window_end: Nanos, lookahead: Nanos, shards: usize, trace_on: bool) {
        let last = if window_end == Nanos::MAX { window_end } else { Nanos(window_end.0 - 1) };
        loop {
            match self.queue.peek() {
                Some(ev) if ev.at <= last => {}
                _ => break,
            }
            let ev = self.queue.pop().expect("peeked");
            debug_assert!(ev.at >= self.now);
            self.now = ev.at;
            self.fired += 1;
            if trace_on {
                self.trace.push(TraceRec::Dispatch { ts: self.now.0 });
                if self.fired % COUNTER_EVERY == 1 {
                    self.trace.push(TraceRec::Pending { ts: self.now.0, depth: self.queue.len() as f64 });
                }
                self.drain_sampled = false;
            }
            let mut ctx = ShardCtx { shard: self, lookahead, shards };
            (ev.action)(&mut ctx);
        }
    }
}

/// A deterministic reconciliation stage run at every epoch barrier,
/// when the calling thread has exclusive access to every shard.
///
/// This is the hook shared-resource models hang off the engine: during
/// an epoch each shard only *records* its demand on a shared stage
/// (e.g. a network core switch) in its own state; at the barrier the
/// stage's `reconcile` drains those demands in shard order — a fixed
/// order independent of worker count — replays the shared admissions,
/// and schedules the resulting completion events onto the destination
/// shards. The engine calls it at the same point of every epoch,
/// whether that epoch ran inline or on scoped threads, so anything it
/// does (including trace emission through [`EpochView::tracer`]) is
/// byte-identical at every worker count.
pub trait EpochStage<S>: Send {
    /// Reconcile shared state at an epoch barrier. Runs on the
    /// calling thread with every shard quiescent.
    fn reconcile(&mut self, view: &mut EpochView<'_, S>);
}

/// The calling thread's view of all shards at an epoch barrier, handed
/// to [`EpochStage::reconcile`]: every shard's state, plus the ability
/// to schedule events onto any shard.
pub struct EpochView<'a, S> {
    shards: &'a mut [Shard<S>],
    tracer: &'a Tracer,
    window_end: Nanos,
}

impl<S> EpochView<'_, S> {
    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// The exclusive end of the window this barrier closes: every shard
    /// has fired all its events strictly before this time. Stages use
    /// it to decide which timeline entries (e.g. scheduled fault
    /// events) are due at this barrier — a worker-count-invariant cut,
    /// because the calling thread computes the window bounds the same
    /// way at every worker count.
    pub fn window_end(&self) -> Nanos {
        self.window_end
    }

    /// Mutably borrow one shard's state.
    pub fn state(&mut self, shard: usize) -> &mut S {
        &mut self.shards[shard].state
    }

    /// A shard's local virtual clock.
    pub fn now(&self, shard: usize) -> Nanos {
        self.shards[shard].now
    }

    /// The engine's tracer. Emission from here happens on the
    /// calling thread at a fixed point of the epoch, so it is
    /// deterministic across worker counts.
    pub fn tracer(&self) -> &Tracer {
        self.tracer
    }

    /// Schedule an event on `dst` at absolute time `at`. Scheduling in
    /// the destination shard's past panics, exactly like
    /// [`ShardCtx::schedule_at`].
    pub fn schedule(
        &mut self,
        dst: usize,
        at: Nanos,
        action: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        let shard = &mut self.shards[dst];
        assert!(at >= shard.now, "stage cannot schedule into shard {dst}'s past ({at} < {now})", now = shard.now);
        shard.push(at, Box::new(action));
    }
}

/// The view an event action gets of its shard: local state, the local
/// clock, local scheduling, and cross-shard sends.
pub struct ShardCtx<'a, S> {
    shard: &'a mut Shard<S>,
    lookahead: Nanos,
    shards: usize,
}

impl<S> ShardCtx<'_, S> {
    /// This shard's id.
    pub fn shard_id(&self) -> usize {
        self.shard.id
    }

    /// Total number of shards in the simulation.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard-local virtual time.
    pub fn now(&self) -> Nanos {
        self.shard.now
    }

    /// The conservative lookahead: the minimum delay of any cross-shard
    /// send.
    pub fn lookahead(&self) -> Nanos {
        self.lookahead
    }

    /// The shard's mutable state.
    pub fn state(&mut self) -> &mut S {
        &mut self.shard.state
    }

    /// Schedule a local event `delay` after the shard's current time.
    pub fn schedule_in(&mut self, delay: Nanos, action: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        self.schedule_at(self.shard.now + delay, action);
    }

    /// Schedule a local event at absolute time `at`. Scheduling in the
    /// shard's past panics — it would silently reorder causality.
    pub fn schedule_at(&mut self, at: Nanos, action: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        assert!(at >= self.shard.now, "cannot schedule into the past ({at} < {now})", now = self.shard.now);
        self.shard.push(at, Box::new(action));
    }

    /// Send an event to another shard, to fire `delay` after this
    /// shard's current time. The delay must be at least the lookahead —
    /// that bound is exactly what lets shards run an epoch in parallel
    /// without seeing each other's sends early. A send to the local
    /// shard is just a schedule.
    pub fn send_to(
        &mut self,
        dst: usize,
        delay: Nanos,
        action: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static,
    ) {
        assert!(dst < self.shards, "destination shard {dst} out of range");
        if dst == self.shard.id {
            self.schedule_in(delay, action);
            return;
        }
        assert!(
            delay >= self.lookahead,
            "cross-shard delay {delay} below the lookahead {la} breaks conservative sharding",
            la = self.lookahead
        );
        self.shard.outbox.push(Outgoing { dst, at: self.shard.now + delay, action: Box::new(action) });
    }
}

/// A sharded discrete-event simulator over per-shard states `S`.
///
/// Seed it with [`ShardedSim::schedule`], then either [`ShardedSim::run`]
/// (one worker — the default) or [`ShardedSim::run_sharded`] with a
/// worker count. Both produce byte-identical traces and final states.
pub struct ShardedSim<S> {
    shards: Vec<Shard<S>>,
    lookahead: Nanos,
    tracer: Tracer,
    epochs: u64,
    stage: Option<Box<dyn EpochStage<S>>>,
}

impl<S: Send> ShardedSim<S> {
    /// A sharded simulator with one shard per entry of `states` and the
    /// given conservative lookahead (clamped to at least 1 ns: a zero
    /// lookahead would admit same-instant cross-shard messages, which
    /// no conservative window can order in parallel). Captures the
    /// ambient [`popper_trace::current`] tracer.
    pub fn new(states: Vec<S>, lookahead: Nanos) -> Self {
        assert!(!states.is_empty(), "a sharded sim needs at least one shard");
        ShardedSim {
            shards: states.into_iter().enumerate().map(|(i, s)| Shard::new(i, s)).collect(),
            lookahead: lookahead.max(Nanos(1)),
            tracer: popper_trace::current(),
            epochs: 0,
            stage: None,
        }
    }

    /// Install an [`EpochStage`] reconciled at every barrier. At most
    /// one stage; installing replaces any previous one.
    pub fn set_stage(&mut self, stage: impl EpochStage<S> + 'static) {
        self.stage = Some(Box::new(stage));
    }

    /// Replace the tracer captured at construction.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Borrow one shard's state.
    pub fn state(&self, shard: usize) -> &S {
        &self.shards[shard].state
    }

    /// Mutably borrow one shard's state (between runs).
    pub fn state_mut(&mut self, shard: usize) -> &mut S {
        &mut self.shards[shard].state
    }

    /// Iterate over all shard states in shard order.
    pub fn states(&self) -> impl Iterator<Item = &S> {
        self.shards.iter().map(|s| &s.state)
    }

    /// Total events fired across all shards.
    pub fn events_fired(&self) -> u64 {
        self.shards.iter().map(|s| s.fired).sum()
    }

    /// Epoch barriers crossed so far.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    /// The latest shard clock (the virtual completion time after a run).
    pub fn now(&self) -> Nanos {
        self.shards.iter().map(|s| s.now).max().unwrap_or(Nanos::ZERO)
    }

    /// Seed an event on `shard` at absolute time `at`.
    pub fn schedule(&mut self, shard: usize, at: Nanos, action: impl FnOnce(&mut ShardCtx<'_, S>) + Send + 'static) {
        assert!(at >= self.shards[shard].now, "cannot schedule into the past");
        self.shards[shard].push(at, Box::new(action));
    }

    /// Emit the drain-time `pending = 0` sample for every shard that
    /// fired events (the counter would otherwise end on a stale depth),
    /// then flush.
    fn finish(&mut self, trace_on: bool) -> Nanos {
        if trace_on {
            for shard in self.shards.iter_mut() {
                if shard.fired > 0 && !shard.drain_sampled && shard.queue.is_empty() {
                    shard.trace.push(TraceRec::Pending { ts: shard.now.0, depth: 0.0 });
                    shard.drain_sampled = true;
                }
            }
            flush_trace(&mut self.shards, &self.tracer);
        }
        self.now()
    }

    /// Run on the calling thread until every queue drains; the same as
    /// `run_sharded(1)`. Returns the final virtual time.
    pub fn run(&mut self) -> Nanos {
        self.run_sharded(1)
    }

    /// Run until every queue drains, with up to `workers` threads (the
    /// calling thread included; 0 counts as 1) sharing each thick
    /// epoch's shards. The trace and every shard's final state are
    /// byte-identical at every `workers` and under any OS scheduling. A
    /// panicking event action panics the run. Returns the final virtual
    /// time.
    pub fn run_sharded(&mut self, workers: usize) -> Nanos {
        let trace_on = self.tracer.is_enabled();
        let lookahead = self.lookahead;
        let n = self.shards.len();
        let chunk = n.div_ceil(workers.clamp(1, n));
        let window = move |end: Nanos, shards: &mut [Shard<S>]| {
            for shard in shards {
                shard.process_window(end, lookahead, n, trace_on);
            }
        };
        while let Some((h, queued)) = scan(&self.shards) {
            let end = h.saturating_add(lookahead);
            if chunk == n || queued < FAN_OUT_MIN_QUEUED {
                window(end, &mut self.shards);
            } else {
                std::thread::scope(|scope| {
                    let mut slices = self.shards.chunks_mut(chunk);
                    let first = slices.next().expect("at least one shard");
                    for slice in slices {
                        scope.spawn(move || window(end, slice));
                    }
                    window(end, first);
                });
            }
            epoch_boundary(&mut self.shards, self.stage.as_deref_mut(), &self.tracer, trace_on, end);
            self.epochs += 1;
        }
        self.finish(trace_on)
    }
}

/// The earliest pending event time across all shards and the number of
/// events queued, in one pass; `None` once every queue is empty.
fn scan<S>(shards: &[Shard<S>]) -> Option<(Nanos, usize)> {
    let mut horizon: Option<Nanos> = None;
    let mut queued = 0;
    for shard in shards {
        queued += shard.queue.len();
        if let Some(at) = shard.next_at() {
            horizon = Some(horizon.map_or(at, |h| h.min(at)));
        }
    }
    horizon.map(|h| (h, queued))
}

/// The epoch boundary, run by the calling thread after every window:
/// merge every shard's outbox into the destination queues in the fixed
/// `(source shard, send seq)` order that makes the merge — and therefore
/// all downstream dispatch order — independent of which thread ran which
/// shard, then reconcile the epoch stage (if any) and forward buffered
/// trace records in shard order.
fn epoch_boundary<S>(
    shards: &mut [Shard<S>],
    stage: Option<&mut (dyn EpochStage<S> + 'static)>,
    tracer: &Tracer,
    trace_on: bool,
    window_end: Nanos,
) {
    for src in 0..shards.len() {
        // Moved out and back so the drained outbox keeps its capacity.
        let mut outbox = std::mem::take(&mut shards[src].outbox);
        for out in outbox.drain(..) {
            // Conservative lookahead guarantees the arrival is at or
            // beyond the next window's start.
            debug_assert!(out.at >= shards[out.dst].now);
            shards[out.dst].push(out.at, out.action);
        }
        shards[src].outbox = outbox;
    }
    if let Some(stage) = stage {
        stage.reconcile(&mut EpochView { shards, tracer, window_end });
    }
    if trace_on {
        flush_trace(shards, tracer);
    }
}

/// Forward per-shard trace buffers to the tracer, in shard order. Only
/// ever called from the calling thread, so the sink receives one
/// deterministic stream.
fn flush_trace<S>(shards: &mut [Shard<S>], tracer: &Tracer) {
    for shard in shards.iter_mut().filter(|s| !s.trace.is_empty()) {
        let track = format!("sim/shard{}", shard.id);
        for rec in shard.trace.drain(..) {
            match rec {
                TraceRec::Dispatch { ts } => tracer.instant_at("sim", &track, "dispatch", ts),
                TraceRec::Pending { ts, depth } => tracer.counter_at(&track, "pending", depth, ts),
            }
        }
    }
}

/// The worker count configured in the environment (`POPPER_SIM_WORKERS`,
/// set by the CLI's `--sim-workers` flag). Defaults to 1: the
/// single-threaded reference execution.
pub fn configured_workers() -> usize {
    std::env::var("POPPER_SIM_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_trace::{ClockDomain, TraceSink};

    /// A model that logs (shard, time, tag) into each shard's state and
    /// bounces messages around the ring.
    fn ring_model(shards: usize, hops: u32, lookahead: Nanos) -> ShardedSim<Vec<(usize, Nanos, u32)>> {
        let mut sim = ShardedSim::new(vec![Vec::new(); shards], lookahead);
        for s in 0..shards {
            sim.schedule(s, Nanos(s as u64), move |ctx| hop(ctx, hops));
        }
        sim
    }

    fn hop(ctx: &mut ShardCtx<'_, Vec<(usize, Nanos, u32)>>, remaining: u32) {
        let (id, now) = (ctx.shard_id(), ctx.now());
        ctx.state().push((id, now, remaining));
        if remaining > 0 {
            let dst = (id + 1) % ctx.shards();
            let la = ctx.lookahead();
            ctx.send_to(dst, la + Nanos(3), move |c| hop(c, remaining - 1));
            ctx.schedule_in(Nanos(1), move |c| {
                let (id, now) = (c.shard_id(), c.now());
                c.state().push((id, now, u32::MAX));
            });
        }
    }

    fn collect(sim: &ShardedSim<Vec<(usize, Nanos, u32)>>) -> Vec<Vec<(usize, Nanos, u32)>> {
        sim.states().cloned().collect()
    }

    #[test]
    fn serial_and_sharded_agree() {
        for workers in [1, 2, 3, 8] {
            let mut reference = ring_model(5, 7, Nanos(10));
            reference.run();
            let mut parallel = ring_model(5, 7, Nanos(10));
            parallel.run_sharded(workers);
            assert_eq!(collect(&reference), collect(&parallel), "workers={workers}");
            assert_eq!(reference.events_fired(), parallel.events_fired());
            assert_eq!(reference.now(), parallel.now());
        }
    }

    #[test]
    fn traces_are_byte_identical_across_worker_counts() {
        let trace_of = |workers: usize| {
            let sink = TraceSink::new();
            let tracer = sink.tracer(ClockDomain::Virtual);
            let mut sim = ring_model(6, 9, Nanos(5));
            sim.set_tracer(tracer);
            if workers == 0 {
                sim.run();
            } else {
                sim.run_sharded(workers);
            }
            popper_trace::export::chrome_trace_json(&sink.drain())
        };
        let reference = trace_of(0);
        assert!(reference.contains("dispatch"));
        assert!(reference.contains("pending"));
        for workers in [1, 2, 4, 8] {
            assert_eq!(trace_of(workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn local_ties_fire_in_schedule_order() {
        let mut sim: ShardedSim<Vec<u32>> = ShardedSim::new(vec![Vec::new()], Nanos(1));
        for i in 0..50 {
            sim.schedule(0, Nanos(5), move |ctx| ctx.state().push(i));
        }
        sim.run();
        assert_eq!(sim.state(0), &(0..50).collect::<Vec<_>>());
    }

    #[test]
    fn cross_shard_merge_orders_by_source_shard_then_seq() {
        // Three shards all send to shard 0 with identical arrival times;
        // delivery must come out (src 1, src 1, src 2, src 3) in send
        // order, regardless of worker interleaving.
        let build = || {
            let mut sim: ShardedSim<Vec<(usize, u32)>> = ShardedSim::new(vec![Vec::new(); 4], Nanos(10));
            for src in [3, 1, 2, 1usize] {
                // Distinct tags per (src, occurrence).
                let tag = src as u32;
                sim.schedule(src, Nanos::ZERO, move |ctx| {
                    ctx.send_to(0, Nanos(10), move |c| {
                        c.state().push((tag as usize, tag));
                    });
                });
            }
            sim
        };
        let mut a = build();
        a.run();
        let mut b = build();
        b.run_sharded(4);
        assert_eq!(a.state(0), b.state(0));
        // Source-shard order at equal arrival time.
        let srcs: Vec<usize> = a.state(0).iter().map(|(s, _)| *s).collect();
        assert_eq!(srcs, vec![1, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "below the lookahead")]
    fn undershooting_the_lookahead_panics() {
        let mut sim: ShardedSim<()> = ShardedSim::new(vec![(), ()], Nanos(100));
        sim.schedule(0, Nanos::ZERO, |ctx| {
            ctx.send_to(1, Nanos(50), |_| {});
        });
        sim.run();
    }

    #[test]
    fn events_fire_in_time_order_and_can_schedule_events() {
        let mut sim: ShardedSim<Vec<u64>> = ShardedSim::new(vec![Vec::new()], Nanos::MAX);
        for t in [30, 10, 20] {
            sim.schedule(0, Nanos(t), move |ctx| {
                ctx.state().push(t);
                ctx.schedule_in(Nanos(5), move |c| c.state().push(t + 5));
            });
        }
        assert_eq!(sim.run(), Nanos(35));
        assert_eq!(sim.state(0), &[10, 15, 20, 25, 30, 35]);
        assert_eq!((sim.events_fired(), sim.epochs()), (6, 1));
    }

    #[test]
    fn an_event_at_the_end_of_time_fires() {
        let mut sim: ShardedSim<u32> = ShardedSim::new(vec![0], Nanos::MAX);
        sim.schedule(0, Nanos::MAX, |ctx| *ctx.state() += 1);
        assert_eq!((sim.run(), *sim.state(0)), (Nanos::MAX, 1));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn an_action_scheduling_into_the_past_panics() {
        let mut sim: ShardedSim<()> = ShardedSim::new(vec![()], Nanos::MAX);
        sim.schedule(0, Nanos(100), |ctx| ctx.schedule_at(Nanos(50), |_| {}));
        sim.run();
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn seeding_into_the_past_panics() {
        let mut sim: ShardedSim<()> = ShardedSim::new(vec![()], Nanos::MAX);
        sim.schedule(0, Nanos(100), |_| {});
        sim.run();
        sim.schedule(0, Nanos(50), |_| {});
    }

    #[test]
    fn trace_ends_with_one_drain_time_pending_sample() {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Virtual);
        let mut sim: ShardedSim<()> = ShardedSim::new(vec![()], Nanos::MAX);
        sim.set_tracer(tracer.clone());
        // 70 events: the periodic sample (every 64th dispatch) last fires
        // at dispatch 65 with 5 still queued; the drain sample reads 0.
        for t in 1..=70 {
            sim.schedule(0, Nanos(t), |_| {});
        }
        sim.run();
        let pending: Vec<(u64, f64)> = sink
            .drain()
            .iter()
            .filter_map(|e| match e.kind {
                popper_trace::EventKind::Counter { ts_ns, value } => Some((ts_ns, value)),
                _ => None,
            })
            .collect();
        assert_eq!(pending, vec![(1, 69.0), (65, 5.0), (70, 0.0)]);
        // A second run emits no further sample, and a sim that never
        // dispatched emits no trace events at all.
        sim.run();
        let mut empty: ShardedSim<()> = ShardedSim::new(vec![()], Nanos::MAX);
        empty.set_tracer(tracer);
        empty.run();
        assert!(sink.drain().is_empty());
    }

    #[test]
    fn configured_workers_defaults_to_one() {
        // The env var is not set under `cargo test`; the default is the
        // single-threaded reference.
        assert_eq!(configured_workers(), 1);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// Whatever order events are scheduled in, one shard fires
            /// them in nondecreasing time order and ties respect
            /// schedule order.
            #[test]
            fn firing_order_is_deterministic(times in proptest::collection::vec(0u64..1000, 1..60)) {
                let mut sim: ShardedSim<Vec<(Nanos, usize)>> = ShardedSim::new(vec![Vec::new()], Nanos::MAX);
                for (i, t) in times.iter().enumerate() {
                    sim.schedule(0, Nanos(*t), move |ctx| {
                        let now = ctx.now();
                        ctx.state().push((now, i));
                    });
                }
                sim.run();
                // Expected: stable sort of (time, schedule index).
                let mut expected: Vec<(Nanos, usize)> =
                    times.iter().enumerate().map(|(i, t)| (Nanos(*t), i)).collect();
                expected.sort_by_key(|(t, i)| (*t, *i));
                prop_assert_eq!(sim.state(0), &expected);
            }

            /// Random seed schedules with random fan-out produce the
            /// same per-shard logs and the same byte-identical trace at
            /// every worker count.
            #[test]
            fn sharded_execution_is_deterministic(
                seeds in proptest::collection::vec((0usize..6, 0u64..200, 0u32..4), 1..25),
                lookahead in 1u64..40,
                workers in 2usize..6,
            ) {
                let build = |seeds: Vec<(usize, u64, u32)>| {
                    let mut sim: ShardedSim<Vec<(usize, Nanos, u32)>> =
                        ShardedSim::new(vec![Vec::new(); 6], Nanos(lookahead));
                    for (shard, t, hops) in seeds {
                        sim.schedule(shard, Nanos(t), move |ctx| hop(ctx, hops));
                    }
                    sim
                };
                let run = |workers: usize, seeds: Vec<(usize, u64, u32)>| {
                    let sink = TraceSink::new();
                    let tracer = sink.tracer(ClockDomain::Virtual);
                    let mut sim = build(seeds);
                    sim.set_tracer(tracer);
                    let end = if workers <= 1 { sim.run() } else { sim.run_sharded(workers) };
                    (collect(&sim), popper_trace::export::chrome_trace_json(&sink.drain()), end, sim.events_fired())
                };
                let reference = run(1, seeds.clone());
                let parallel = run(workers, seeds.clone());
                prop_assert_eq!(&reference.0, &parallel.0);
                prop_assert_eq!(&reference.1, &parallel.1);
                prop_assert_eq!(reference.2, parallel.2);
                prop_assert_eq!(reference.3, parallel.3);
            }
        }
    }
}
