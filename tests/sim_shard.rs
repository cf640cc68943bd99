//! Sharded-engine determinism, end to end: the same model must produce
//! byte-identical traces and identical results at every worker count.
//!
//! The CI job `sim-shard-determinism` runs this file. The contract it
//! pins is the one the whole sharding design hangs on: `run_sharded(n)`
//! is an *implementation detail* — no observable output (state, event
//! counts, virtual clock, trace bytes) may depend on `n` or on how the
//! OS interleaves the workers.

use popper_minimpi::lulesh::LuleshConfig;
use popper_sim::shard::FAN_OUT_MIN_QUEUED;
use popper_sim::{platforms, Nanos, ShardCtx, ShardedSim};
use popper_trace::{ClockDomain, TraceSink};
use std::collections::HashSet;
use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::Duration;

/// Deterministic 64-bit mixer for the synthetic workload below.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A PHOLD-style model: `shards` logical processes, each seeded with a
/// few in-flight events; every event hops to a hashed destination with
/// a hashed delay at or beyond the lookahead, and each shard logs the
/// virtual times it fired at.
fn phold(shards: usize, hops: u32, seed: u64) -> ShardedSim<Vec<u64>> {
    const LOOKAHEAD: Nanos = Nanos(50);
    let mut sim: ShardedSim<Vec<u64>> = ShardedSim::new(vec![Vec::new(); shards], LOOKAHEAD);
    fn hop(ctx: &mut ShardCtx<'_, Vec<u64>>, ttl: u32, key: u64) {
        let now = ctx.now();
        ctx.state().push(now.0);
        if ttl == 0 {
            return;
        }
        let h = mix(key ^ u64::from(ttl));
        let dst = (h as usize) % ctx.shards();
        let delay = Nanos(50 + h % 400);
        if dst == ctx.shard_id() {
            ctx.schedule_in(delay, move |c| hop(c, ttl - 1, h));
        } else {
            ctx.send_to(dst, delay, move |c| hop(c, ttl - 1, h));
        }
    }
    for s in 0..shards {
        for i in 0..3u64 {
            let key = mix(seed ^ ((s as u64) << 20) ^ i);
            sim.schedule(s, Nanos(key % 200), move |ctx| hop(ctx, hops, key));
        }
    }
    sim
}

fn phold_outcome(shards: usize, workers: usize) -> (Vec<Vec<u64>>, u64, Nanos, String) {
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let mut sim = phold(shards, 12, 42);
    sim.set_tracer(tracer);
    sim.run_sharded(workers);
    let logs = sim.states().cloned().collect();
    let trace = popper_trace::export::chrome_trace_json(&sink.drain());
    (logs, sim.events_fired(), sim.now(), trace)
}

#[test]
fn thousand_shard_phold_trace_bytes_are_identical_at_1_2_8_workers() {
    let reference = phold_outcome(1000, 1);
    assert!(reference.1 > 3000, "events fired: {}", reference.1);
    assert!(reference.3.contains("dispatch"));
    for workers in [2, 8] {
        let outcome = phold_outcome(1000, workers);
        assert_eq!(outcome.0, reference.0, "shard logs, workers={workers}");
        assert_eq!(outcome.1, reference.1, "event count, workers={workers}");
        assert_eq!(outcome.2, reference.2, "virtual clock, workers={workers}");
        assert_eq!(outcome.3, reference.3, "trace bytes, workers={workers}");
    }
}

/// The threads that fired a one-epoch model of `shards` shards with one
/// event each, run at `workers`.
fn firing_threads(shards: usize, workers: usize) -> HashSet<ThreadId> {
    let mut sim: ShardedSim<Vec<ThreadId>> = ShardedSim::new(vec![Vec::new(); shards], Nanos(50));
    for s in 0..shards {
        sim.schedule(s, Nanos(s as u64 % 50), |ctx| ctx.state().push(std::thread::current().id()));
    }
    sim.run_sharded(workers);
    assert_eq!(sim.epochs(), 1);
    sim.states().flatten().copied().collect()
}

#[test]
fn an_epoch_fans_out_only_from_the_queue_threshold() {
    let caller = std::thread::current().id();
    let thin = FAN_OUT_MIN_QUEUED - 1;
    assert_eq!(firing_threads(thin, 8), HashSet::from([caller]), "a thin epoch runs inline");
    for workers in [2, 8] {
        let threads = firing_threads(FAN_OUT_MIN_QUEUED * 4, workers);
        assert_eq!(threads.len(), workers, "workers={workers}");
        assert!(threads.contains(&caller), "the calling thread takes the first slice");
    }
}

#[test]
fn a_panicking_action_in_a_thick_epoch_panics_the_run_instead_of_hanging() {
    // 400 shards with one event each queue more than the fan-out
    // threshold. One action sends below the lookahead, which panics; the
    // run must propagate that panic whichever thread's slice held it.
    const { assert!(400 >= FAN_OUT_MIN_QUEUED) };
    for workers in [2, 8] {
        for culprit in [0, 399] {
            let (tx, rx) = mpsc::channel();
            std::thread::spawn(move || {
                let outcome = std::panic::catch_unwind(move || {
                    let mut sim: ShardedSim<()> = ShardedSim::new(vec![(); 400], Nanos(100));
                    for s in 0..400 {
                        sim.schedule(s, Nanos::ZERO, move |ctx| {
                            if s == culprit {
                                ctx.send_to((s + 1) % 400, Nanos(1), |_| {});
                            }
                        });
                    }
                    sim.run_sharded(workers);
                });
                let _ = tx.send(outcome.is_err());
            });
            let panicked = rx
                .recv_timeout(Duration::from_secs(20))
                .unwrap_or_else(|_| panic!("run hung after a panic, workers={workers} culprit={culprit}"));
            assert!(panicked, "the run returned normally, workers={workers} culprit={culprit}");
        }
    }
}

#[test]
fn sharded_lulesh_proxy_is_identical_at_1_2_8_workers() {
    let config = LuleshConfig::small();
    let platform = platforms::hpc_node();
    let reference = popper_minimpi::run_sharded(&config, &platform, 1);
    for workers in [2, 8] {
        let run = popper_minimpi::run_sharded(&config, &platform, workers);
        assert_eq!(run.per_rank_finish, reference.per_rank_finish, "workers={workers}");
        assert_eq!(run.elapsed, reference.elapsed);
        assert_eq!(run.events, reference.events);
    }
}

#[test]
fn sharded_farm_model_is_identical_at_1_2_8_workers() {
    let config = popper_farm::FarmSimConfig::default();
    let reference = popper_farm::simulate(&config, 1);
    for workers in [2, 8] {
        assert_eq!(popper_farm::simulate(&config, workers), reference, "workers={workers}");
    }
}

#[test]
fn sharded_engine_emits_a_drain_sample_per_shard() {
    // The trace must end with every shard's pending counter back at
    // zero — the engine-level drain fix, surfaced per shard.
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let mut sim = phold(4, 12, 42);
    sim.set_tracer(tracer);
    sim.run_sharded(2);
    let events = sink.drain();
    let mut last_pending: std::collections::BTreeMap<String, f64> =
        std::collections::BTreeMap::new();
    for e in &events {
        if let popper_trace::EventKind::Counter { value, .. } = e.kind {
            if e.name == "pending" {
                last_pending.insert(e.track.to_string(), value);
            }
        }
    }
    assert!(!last_pending.is_empty(), "no pending counter samples in the trace");
    for (track, value) in &last_pending {
        assert_eq!(*value, 0.0, "track {track} ends on a stale pending depth");
    }
}
