//! Shard-native fabric determinism, end to end.
//!
//! Two contracts are pinned here. First, **serial equivalence**: the
//! sharded fabric's barrier-replayed core stage must reproduce the
//! serial [`Fabric`] byte for byte — replaying the admission log
//! through a fresh serial fabric yields the same completion times and
//! the same traffic counters, retransmits included. Second, **worker
//! invariance**: every fabric-backed world (the gassyfs page-striping
//! world, the orchestra fan-out world, the sharded LULESH proxy, the
//! farm capacity model) produces identical state, counters, virtual
//! clock and trace bytes at 1, 2 and 8 workers.
//!
//! The CI job `fabric-shard-determinism` runs all of this file.

use popper_sim::{platforms, Fabric, FabricSim, FaultPlane, Nanos, PlaneCmd, ReplayRecord};
use popper_trace::{ClockDomain, TraceSink};

const LINK_GBIT: f64 = 10.0;
const LATENCY: Nanos = Nanos::from_micros(5);
const OVERSUB: f64 = 2.0;

/// Replay a sharded run's admission log through a fresh serial
/// [`Fabric`] in log order and demand identical completion times and
/// identical per-node counters.
fn assert_matches_serial<S: Send + 'static>(sim: &FabricSim<S>, serial: &mut Fabric) {
    let log = sim.replay_log();
    assert!(!log.is_empty(), "run produced no transfers");
    for e in &log {
        let done = serial
            .try_transfer(e.src, e.dst, e.bytes, e.sent)
            .expect("the log only records delivered transfers");
        assert_eq!(done, e.done, "completion of {} -> {} at {:?}", e.src, e.dst, e.sent);
    }
    for node in 0..serial.nodes() {
        assert_eq!(sim.traffic(node), serial.traffic(node), "traffic counters, node {node}");
    }
    assert_eq!(sim.total_bytes(), serial.total_bytes());
}

/// Eight sources pour into node 0 within one epoch: the canonical
/// incast. Each destination-side arrival time is logged.
fn fan_in(workers: usize) -> FabricSim<Vec<(usize, u64)>> {
    let nodes = 9;
    let mut sim = FabricSim::new(vec![Vec::new(); nodes], LINK_GBIT, LATENCY, OVERSUB);
    for src in 1..nodes {
        // All sends land in the same lookahead window.
        sim.schedule(src, Nanos(src as u64), move |ctx| {
            let bytes = 256 * 1024 + src as u64 * 4096;
            ctx.transfer(0, bytes, move |c| {
                let now = c.now();
                c.state().push((src, now.0));
            });
        });
    }
    sim.run_sharded(workers);
    sim
}

#[test]
fn same_epoch_fan_in_matches_the_serial_fabric_byte_for_byte() {
    let reference = fan_in(1);
    let mut serial = Fabric::new(9, LINK_GBIT, LATENCY, OVERSUB);
    assert_matches_serial(&reference, &mut serial);
    // The incast genuinely contends: the destination's ingress spreads
    // the deliveries out instead of stacking them at one instant.
    let arrivals: Vec<u64> = reference.state(0).iter().map(|&(_, t)| t).collect();
    assert_eq!(arrivals.len(), 8);
    assert!(arrivals.windows(2).all(|w| w[0] < w[1]), "arrivals not serialized: {arrivals:?}");
    for workers in [2, 8] {
        let sim = fan_in(workers);
        assert_eq!(sim.replay_log(), reference.replay_log(), "workers={workers}");
        assert_eq!(sim.state(0), reference.state(0), "workers={workers}");
        assert_eq!(sim.now(), reference.now(), "workers={workers}");
    }
}

#[test]
fn lossy_fan_in_matches_the_serial_fabric_including_retransmits() {
    let nodes = 5;
    let mut plane = FaultPlane::new(nodes);
    plane.set_seed(41);
    plane.set_loss(0, 0.5);
    let run = |workers: usize| {
        // Each source chains three sends so every per-source fault-draw
        // sequence is exercised past its first draw.
        fn send(ctx: &mut popper_sim::NetCtx<'_, '_, u64>, round: u64) {
            if round == 3 {
                return;
            }
            ctx.transfer(0, 100_000 + round * 7_000, move |c| {
                *c.state() += 1;
                send(c, round + 1);
            });
        }
        let mut sim =
            FabricSim::with_faults(vec![0u64; 5], LINK_GBIT, LATENCY, OVERSUB, plane_for(41));
        for src in 1..5 {
            sim.schedule(src, Nanos(src as u64 * 10), move |ctx| send(ctx, 0));
        }
        sim.run_sharded(workers);
        sim
    };
    fn plane_for(seed: u64) -> FaultPlane {
        let mut p = FaultPlane::new(5);
        p.set_seed(seed);
        p.set_loss(0, 0.5);
        p
    }
    let reference = run(1);
    assert_eq!(*reference.state(0), 12, "all chained sends delivered");
    let wire: u64 = (0..nodes).map(|n| reference.traffic(n).tx_bytes).sum();
    let payload: u64 = (0..nodes).map(|n| reference.traffic(n).rx_bytes).sum();
    assert!(wire > payload, "the lossy path must retransmit (wire {wire} <= payload {payload})");
    let mut serial = Fabric::new(nodes, LINK_GBIT, LATENCY, OVERSUB);
    *serial.faults_mut() = plane_for(41);
    assert_matches_serial(&reference, &mut serial);
    for workers in [2, 8] {
        let sim = run(workers);
        assert_eq!(sim.replay_log(), reference.replay_log(), "workers={workers}");
        assert_eq!(sim.traffic(0), reference.traffic(0), "workers={workers}");
    }
}

#[test]
fn scheduled_faults_with_loss_replay_serially_and_are_worker_invariant() {
    // The extended oracle: a run that mixes sampled loss (per-source
    // draw sequences) with scheduled mid-run faults (crash + restart
    // at epoch barriers) must still replay byte-for-byte through a
    // serial fabric — Transfer records as transfers, Failed records as
    // admissions, Fault records as plane mutations, in log order.
    let nodes = 5;
    let timeline = || {
        vec![
            (Nanos::ZERO, PlaneCmd::Loss { node: 0, p: 0.4 }),
            (Nanos::from_micros(40), PlaneCmd::Crash(2)),
            (Nanos::from_micros(120), PlaneCmd::Restart(2)),
        ]
    };
    let run = |workers: usize| {
        // Each source fires three rounds at node 0 on its own clock
        // (the delivery callback runs on the *receiver*, so chaining
        // there would turn later rounds into loss-free loopbacks),
        // retrying with backoff when the crash swallows one.
        fn send(ctx: &mut popper_sim::NetCtx<'_, '_, u64>, round: u64, attempt: u32) {
            assert!(attempt < 8, "retries must converge after the restart");
            ctx.transfer_or(
                0,
                100_000 + round * 7_000,
                |c| *c.state() += 1,
                move |c, _| {
                    c.schedule_in(Nanos::from_micros(50 << attempt), move |cc| {
                        send(cc, round, attempt + 1)
                    });
                },
            );
        }
        let mut sim = FabricSim::new(vec![0u64; 5], LINK_GBIT, LATENCY, OVERSUB);
        sim.set_fault_timeline(41, timeline());
        // Keep the early windows non-empty so barriers stay aligned to
        // lookahead multiples through the crash/restart interval; node
        // 2's round 0 at 41 us is then admitted inside the window
        // [40, 45) us whose closing barrier applies the 40 us crash —
        // an in-flight demand killed mid-epoch.
        for tick in 0..=140 {
            sim.schedule(0, Nanos::from_micros(tick), |_| {});
        }
        for src in 1..5usize {
            for round in 0..3u64 {
                let at = if src == 2 && round == 0 {
                    Nanos::from_micros(41)
                } else {
                    Nanos::from_micros(round * 80) + Nanos(src as u64 * 10)
                };
                sim.schedule(src, at, move |ctx| send(ctx, round, 0));
            }
        }
        sim.run_sharded(workers);
        sim
    };
    let reference = run(1);
    assert_eq!(*reference.state(0), 12, "all sends delivered eventually");
    let wire: u64 = (0..nodes).map(|n| reference.traffic(n).tx_bytes).sum();
    let payload: u64 = (0..nodes).map(|n| reference.traffic(n).rx_bytes).sum();
    let attempts: u64 = (0..nodes).map(|n| reference.traffic(n).tx_msgs).sum();
    assert!(wire > payload, "the lossy path must retransmit");
    // 12 deliveries + 1 barrier-killed demand; anything beyond that is
    // a sampled retransmission, which the killed demand alone cannot
    // explain.
    assert!(attempts > 13, "loss draws must retransmit (attempts {attempts})");
    let records = reference.replay_records();
    assert!(records.iter().any(|r| matches!(r, ReplayRecord::Failed { src: 2, .. })),
        "the crash must kill node 2's in-flight demand");
    assert!(records.iter().any(|r| matches!(r, ReplayRecord::Fault(PlaneCmd::Restart(2)))));
    let mut serial = Fabric::new(nodes, LINK_GBIT, LATENCY, OVERSUB);
    serial.faults_mut().set_seed(41);
    popper_sim::replay_records_serial(&records, &mut serial).expect("serial replay");
    for node in 0..nodes {
        assert_eq!(reference.traffic(node), serial.traffic(node), "traffic counters, node {node}");
    }
    for workers in [2, 8] {
        let parallel = run(workers);
        assert_eq!(parallel.replay_records(), records, "workers={workers}");
        assert_eq!(parallel.state(0), reference.state(0), "workers={workers}");
        assert_eq!(parallel.now(), reference.now(), "workers={workers}");
    }
}

#[test]
fn flapping_partition_healing_on_an_epoch_boundary_applies_next_barrier() {
    // A fault command due check is `at < window_end`: a heal landing
    // exactly ON a window boundary belongs to the *next* barrier.
    // Admissions in the window starting at the heal instant still see
    // the partitioned snapshot (and fail); the window after sees the
    // healed one. The partition side of the flap behaves symmetrically
    // — admitted in-flight demands are killed at the barrier that
    // applies it. LATENCY = 5 us, so windows close at 5 us multiples
    // (keep-alive events pin the alignment).
    let l = LATENCY.0; // 5_000 ns
    let timeline = vec![
        (Nanos::ZERO, PlaneCmd::Partition(vec![0])),
        (Nanos(4 * l), PlaneCmd::HealPartition),     // exactly on a boundary
        (Nanos(8 * l), PlaneCmd::Partition(vec![0])), // flap, on a boundary
        (Nanos(12 * l), PlaneCmd::HealPartition),    // heal again, on a boundary
    ];
    let run = |workers: usize| {
        let mut sim: FabricSim<Vec<(&'static str, bool)>> =
            FabricSim::new(vec![Vec::new(); 3], LINK_GBIT, LATENCY, OVERSUB);
        sim.set_fault_timeline(3, timeline.clone());
        // Keep every 5 us window non-empty so barriers stay aligned to
        // multiples of the lookahead.
        for tick in 0..=(14 * l / 1000) {
            sim.schedule(2, Nanos(tick * 1000), |_| {});
        }
        let mut probe = |tag: &'static str, at: u64| {
            sim.schedule(0, Nanos(at), move |ctx| {
                ctx.transfer_or(
                    1,
                    4096,
                    move |c| c.state().push((tag, true)),
                    move |c, _| c.state().push((tag, false)),
                );
            });
        };
        probe("in-flight-at-first-barrier", 1_000); // killed when the partition applies
        probe("window-starting-at-heal", 4 * l); // stale snapshot: fails at admission
        probe("window-after-heal", 5 * l + 1_000); // healed snapshot: delivered
        probe("in-flight-at-flap", 8 * l + 1_000); // killed when the flap applies
        probe("window-starting-at-reheal", 12 * l); // stale snapshot again
        probe("window-after-reheal", 13 * l + 1_000); // delivered
        sim.run_sharded(workers);
        sim
    };
    let reference = run(1);
    let outcomes: Vec<(&str, bool)> = reference
        .state(0)
        .iter()
        .chain(reference.state(1).iter())
        .cloned()
        .collect();
    let outcome = |tag: &str| {
        outcomes
            .iter()
            .find(|(t, _)| *t == tag)
            .unwrap_or_else(|| panic!("probe '{tag}' never resolved"))
            .1
    };
    assert!(!outcome("in-flight-at-first-barrier"));
    assert!(!outcome("window-starting-at-heal"), "a boundary heal must not apply early");
    assert!(outcome("window-after-heal"));
    assert!(!outcome("in-flight-at-flap"));
    assert!(!outcome("window-starting-at-reheal"));
    assert!(outcome("window-after-reheal"));
    for workers in [2, 8] {
        let parallel = run(workers);
        assert_eq!(parallel.replay_records(), reference.replay_records(), "workers={workers}");
        for node in 0..3 {
            assert_eq!(parallel.state(node), reference.state(node), "workers={workers}");
        }
    }
}

mod random_schedules {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any transfer schedule — arbitrary sources, destinations
        /// (loopbacks included), sizes and start times — replays
        /// byte-for-byte against the serial fabric and is invariant
        /// across worker counts.
        #[test]
        fn any_schedule_matches_serial_and_worker_counts(
            transfers in proptest::collection::vec(
                (0usize..6, 0usize..6, 1u64..200_000, 0u64..50_000),
                1..24,
            ),
        ) {
            let run = |workers: usize| {
                let mut sim = FabricSim::new(vec![0u64; 6], LINK_GBIT, LATENCY, OVERSUB);
                for &(src, dst, bytes, at) in &transfers {
                    sim.schedule(src, Nanos(at), move |ctx| {
                        ctx.transfer(dst, bytes, |c| *c.state() += 1);
                    });
                }
                sim.run_sharded(workers);
                sim
            };
            let reference = run(1);
            let mut serial = Fabric::new(6, LINK_GBIT, LATENCY, OVERSUB);
            for e in reference.replay_log() {
                let done = serial.try_transfer(e.src, e.dst, e.bytes, e.sent).unwrap();
                prop_assert_eq!(done, e.done);
            }
            for node in 0..6 {
                prop_assert_eq!(reference.traffic(node), serial.traffic(node));
            }
            let delivered: u64 = (0..6).map(|n| *reference.state(n)).sum();
            prop_assert_eq!(delivered as usize, transfers.len());
            let sharded = run(4);
            prop_assert_eq!(sharded.replay_log(), reference.replay_log());
            prop_assert_eq!(sharded.now(), reference.now());
        }
    }
}

// ---- world-level determinism, trace bytes included ------------------

/// Run `f` under a fresh virtual-clock trace sink and return its result
/// plus the exported trace bytes.
fn traced<R>(f: impl FnOnce() -> R) -> (R, String) {
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let out = popper_trace::with_current(tracer.clone(), f);
    tracer.flush();
    (out, popper_trace::export::chrome_trace_json(&sink.drain()))
}

#[test]
fn gassyfs_world_is_identical_at_1_2_8_workers_including_trace_bytes() {
    let config = popper_gassyfs::ShardedGassyConfig { nodes: 6, pages: 72, streams: 3 };
    let platform = platforms::gassyfs_node();
    let (reference, ref_trace) = traced(|| popper_gassyfs::shardworld::run_sharded(&config, &platform, 1));
    assert!(ref_trace.contains("xfer"), "fabric spans missing from the trace");
    for workers in [2, 8] {
        let (run, trace) =
            traced(|| popper_gassyfs::shardworld::run_sharded(&config, &platform, workers));
        assert_eq!(
            popper_gassyfs::ShardedGassyReport { workers: 1, ..run },
            reference,
            "workers={workers}"
        );
        assert_eq!(trace, ref_trace, "trace bytes, workers={workers}");
    }
}

#[test]
fn orchestra_world_is_identical_at_1_2_8_workers_including_trace_bytes() {
    let config = popper_orchestra::ShardedOrchestraConfig::default();
    let (reference, ref_trace) = traced(|| popper_orchestra::shardworld::run_sharded(&config, 1));
    assert!(ref_trace.contains("xfer"), "fabric spans missing from the trace");
    for workers in [2, 8] {
        let (run, trace) = traced(|| popper_orchestra::shardworld::run_sharded(&config, workers));
        assert_eq!(
            popper_orchestra::ShardedOrchestraReport { workers: 1, ..run },
            reference,
            "workers={workers}"
        );
        assert_eq!(trace, ref_trace, "trace bytes, workers={workers}");
    }
}

/// This repository eats its own dog food: the root `.popper-ci.pml`
/// carries the shard-determinism jobs that run this file and
/// `tests/sim_shard.rs`. Those tests loop over worker counts against the
/// serial run themselves, so a `workers` matrix axis would only repeat
/// the same work.
#[test]
fn own_ci_config_has_shard_determinism_jobs() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(".popper-ci.pml");
    let text = std::fs::read_to_string(path).expect(".popper-ci.pml at the workspace root");
    let config = popper::ci::PipelineConfig::from_pml(&text).expect("config parses");
    let no_workers_axis = |m: &popper::ci::Matrix| m.axes.iter().all(|(axis, _)| axis != "workers");
    assert!(no_workers_axis(&config.matrix), "pipeline-wide workers axis");
    for name in ["sim-shard-determinism", "fabric-shard-determinism"] {
        let job = config.jobs.iter().find(|j| j.name == name);
        let job = job.unwrap_or_else(|| panic!("missing CI job '{name}'"));
        assert!(no_workers_axis(&job.matrix), "CI job '{name}' fans out over workers");
    }
}

// ---- chaos determinism: scheduled mid-run faults, every world -------

#[test]
fn chaos_gassyfs_world_has_identical_trace_bytes_at_1_2_8_workers() {
    let config = popper_gassyfs::ShardedGassyConfig { nodes: 6, pages: 48, streams: 3 };
    let platform = platforms::gassyfs_node();
    let timeline = || {
        vec![
            (Nanos::from_millis(2), PlaneCmd::Crash(2)),
            (Nanos::from_millis(9), PlaneCmd::Restart(2)),
        ]
    };
    let (reference, ref_trace) =
        traced(|| popper_gassyfs::shardworld::run_sharded_chaos(&config, &platform, 1, 7, timeline()));
    assert!(reference.failovers > 0 && reference.lost == 0);
    assert!(ref_trace.contains("chaos/faults"), "fault instants missing from the trace");
    assert!(ref_trace.contains("crash node 2"), "{ref_trace:.300}");
    for workers in [2, 8] {
        let (run, trace) = traced(|| {
            popper_gassyfs::shardworld::run_sharded_chaos(&config, &platform, workers, 7, timeline())
        });
        assert_eq!(
            popper_gassyfs::ShardedGassyChaosReport { workers: 1, ..run },
            reference,
            "workers={workers}"
        );
        assert_eq!(trace, ref_trace, "trace bytes, workers={workers}");
    }
}

#[test]
fn chaos_orchestra_world_has_identical_trace_bytes_at_1_2_8_workers() {
    let config = popper_orchestra::ShardedOrchestraConfig::default();
    let timeline = || {
        vec![
            (Nanos::from_millis(1), PlaneCmd::Crash(3)),
            (Nanos::from_millis(6), PlaneCmd::Restart(3)),
        ]
    };
    let (reference, ref_trace) =
        traced(|| popper_orchestra::shardworld::run_sharded_chaos(&config, 1, 13, timeline()));
    assert!(reference.detections > 0 && reference.lost == 0);
    assert!(ref_trace.contains("chaos/faults"));
    for workers in [2, 8] {
        let (run, trace) =
            traced(|| popper_orchestra::shardworld::run_sharded_chaos(&config, workers, 13, timeline()));
        assert_eq!(
            popper_orchestra::ShardedOrchestraChaosReport { workers: 1, ..run },
            reference,
            "workers={workers}"
        );
        assert_eq!(trace, ref_trace, "trace bytes, workers={workers}");
    }
}

#[test]
fn chaos_lulesh_and_farm_worlds_have_identical_trace_bytes_at_1_2_8_workers() {
    let app = popper_minimpi::lulesh::LuleshConfig::small();
    let platform = platforms::hpc_node();
    let lulesh_timeline = || {
        vec![
            (Nanos::from_millis(3), PlaneCmd::Crash(1)),
            (Nanos::from_millis(8), PlaneCmd::Restart(1)),
        ]
    };
    let (lulesh_ref, lulesh_trace) =
        traced(|| popper_minimpi::run_sharded_chaos(&app, &platform, 1, 11, lulesh_timeline()));
    assert!(lulesh_ref.detections > 0 && lulesh_ref.lost == 0);
    assert!(lulesh_trace.contains("chaos/faults"));
    let farm = popper_farm::FarmSimConfig { tenants: 5, jobs_per_tenant: 16, ..Default::default() };
    let farm_timeline = || {
        vec![
            (Nanos::from_millis(4), PlaneCmd::Crash(0)),
            (Nanos::from_millis(11), PlaneCmd::Restart(0)),
        ]
    };
    let (farm_ref, farm_trace) =
        traced(|| popper_farm::simulate_chaos(&farm, 1, 17, farm_timeline()));
    assert!(farm_ref.requeued > 0 && farm_ref.lost == 0);
    assert!(farm_trace.contains("chaos/faults"));
    for workers in [2, 8] {
        let (run, trace) =
            traced(|| popper_minimpi::run_sharded_chaos(&app, &platform, workers, 11, lulesh_timeline()));
        assert_eq!(
            popper_minimpi::ShardedLuleshChaosRun { workers: 1, ..run },
            lulesh_ref,
            "workers={workers}"
        );
        assert_eq!(trace, lulesh_trace, "lulesh chaos trace bytes, workers={workers}");
        let (run, trace) = traced(|| popper_farm::simulate_chaos(&farm, workers, 17, farm_timeline()));
        assert_eq!(
            popper_farm::FarmChaosSimReport { workers: 1, ..run },
            farm_ref,
            "workers={workers}"
        );
        assert_eq!(trace, farm_trace, "farm chaos trace bytes, workers={workers}");
    }
}

#[test]
fn lulesh_and_farm_worlds_have_identical_trace_bytes_at_1_2_8_workers() {
    let app = popper_minimpi::lulesh::LuleshConfig::small();
    let platform = platforms::hpc_node();
    let (_, lulesh_ref) = traced(|| popper_minimpi::run_sharded(&app, &platform, 1));
    assert!(lulesh_ref.contains("xfer"));
    let farm = popper_farm::FarmSimConfig { tenants: 4, jobs_per_tenant: 8, ..Default::default() };
    let (_, farm_ref) = traced(|| popper_farm::simulate(&farm, 1));
    assert!(farm_ref.contains("xfer"));
    for workers in [2, 8] {
        let (_, t) = traced(|| popper_minimpi::run_sharded(&app, &platform, workers));
        assert_eq!(t, lulesh_ref, "lulesh trace bytes, workers={workers}");
        let (_, t) = traced(|| popper_farm::simulate(&farm, workers));
        assert_eq!(t, farm_ref, "farm trace bytes, workers={workers}");
    }
}

// ---- golden pin: the report and trace bytes of every world -----------

/// SHA-256 of a report's `Debug` bytes and of the virtual-clock trace.
fn pin(report: &str, trace: &str) -> (String, String) {
    let hex = |s: &str| popper_vcs::sha256::to_hex(&popper_vcs::sha256::digest(s.as_bytes()));
    (hex(report), hex(trace))
}

/// The built-in `node-crash` schedule sized to a world's node count.
fn node_crash(nodes: usize) -> Vec<(Nanos, PlaneCmd)> {
    popper_chaos::FaultSchedule::named("node-crash", nodes, 3).expect("built-in schedule").plane_timeline()
}

/// A named world run: worker count in, the report's `Debug` bytes out.
type WorldRun<'a> = (&'static str, Box<dyn Fn(usize) -> String + 'a>);

/// Byte-level pins of all four worlds, healthy and under `node-crash`:
/// the `Debug` bytes of each report (worker count reset) and the trace
/// bytes. Any change to a world's model or to the engine beneath it
/// that moves a single byte of either fails here, at every worker
/// count.
#[test]
fn world_reports_and_traces_match_their_golden_digests() {
    let lulesh = popper_minimpi::lulesh::LuleshConfig::small();
    let hpc = platforms::hpc_node();
    let gassy = popper_gassyfs::ShardedGassyConfig { nodes: 6, pages: 48, streams: 3 };
    let gassy_node = platforms::gassyfs_node();
    let orchestra = popper_orchestra::ShardedOrchestraConfig::default();
    let farm = popper_farm::FarmSimConfig { tenants: 5, jobs_per_tenant: 16, ..Default::default() };
    let runs: Vec<WorldRun> = vec![
        ("lulesh", Box::new(|w| {
            let r = popper_minimpi::run_sharded(&lulesh, &hpc, w);
            format!("{:?}", popper_minimpi::ShardedLuleshRun { workers: 0, ..r })
        })),
        ("lulesh-chaos", Box::new(|w| {
            let r = popper_minimpi::run_sharded_chaos(&lulesh, &hpc, w, 3, node_crash(lulesh.ranks()));
            format!("{:?}", popper_minimpi::ShardedLuleshChaosRun { workers: 0, ..r })
        })),
        ("gassyfs", Box::new(|w| {
            let r = popper_gassyfs::shardworld::run_sharded(&gassy, &gassy_node, w);
            format!("{:?}", popper_gassyfs::ShardedGassyReport { workers: 0, ..r })
        })),
        ("gassyfs-chaos", Box::new(|w| {
            let r = popper_gassyfs::shardworld::run_sharded_chaos(&gassy, &gassy_node, w, 3, node_crash(gassy.nodes));
            format!("{:?}", popper_gassyfs::ShardedGassyChaosReport { workers: 0, ..r })
        })),
        ("orchestra", Box::new(|w| {
            let r = popper_orchestra::shardworld::run_sharded(&orchestra, w);
            format!("{:?}", popper_orchestra::ShardedOrchestraReport { workers: 0, ..r })
        })),
        ("orchestra-chaos", Box::new(|w| {
            let r = popper_orchestra::shardworld::run_sharded_chaos(&orchestra, w, 3, node_crash(orchestra.hosts + 1));
            format!("{:?}", popper_orchestra::ShardedOrchestraChaosReport { workers: 0, ..r })
        })),
        ("farm", Box::new(|w| format!("{:?}", popper_farm::simulate(&farm, w)))),
        ("farm-chaos", Box::new(|w| {
            let r = popper_farm::simulate_chaos(&farm, w, 3, node_crash(farm.tenants + 1));
            format!("{:?}", popper_farm::FarmChaosSimReport { workers: 0, ..r })
        })),
    ];
    let golden: [(&str, &str, &str); 8] = [
        (
            "lulesh",
            "e91b62f2e1a1f8d0fd09e1e07f55fa8f8f1dbf73f7fbd4ff979bd0844844c642",
            "cde86b604aa5342c3539eeb5ba1f9c2754d3fac9557d83352b58801e812beb23",
        ),
        (
            "lulesh-chaos",
            "51b13e9c7193a0737bff5204b08dc86c669c3172156c03bbb80bdbd9957a76cc",
            "405738b409c7256bf604c6030c2143be2e6c1e4ff335dcd46964bf6f01e49285",
        ),
        (
            "gassyfs",
            "b8c700ee21a2a7cfcc3924ee08763a259be262e8dcc027a6474467331011a8e1",
            "f0741a9cc291622bece5046294c3d63d04773f73e03c51399c8c1be98685d6cb",
        ),
        (
            "gassyfs-chaos",
            "c07d95241dc13856737a8e1cba549cd06693d0fa26c63d3b8cd8647a8eda1fc3",
            "412e37bf0eb97477d2b26185e84c4d2ef827adbaf361e12d8ba57c905fac1738",
        ),
        (
            "orchestra",
            "7277dc295f7cadd20fa2b2a2aded405792c963c9453efe070fee8ccf3dc6cdd7",
            "fcad0b5ab242c5f48677515d2bde01254b90e7154b48b8d5a8ce816077402ee0",
        ),
        (
            "orchestra-chaos",
            "33500accc001f95b62899ce75d257916746750a6e14e63887151e9119cb478f9",
            "9ba7b8da0025d855ee4cda238311c0280c681ba105072d22e28bb7868bf894db",
        ),
        (
            "farm",
            "ac31efa10462f847fe994f1236495a04ea4fa2074f4c8c88fe0135c1bb3a4d9a",
            "33dd4dda8b6b3fbed44bc5e0e4bf47c4f59fd80b03a591f1f66bbf1c76c98074",
        ),
        (
            "farm-chaos",
            "3048fe8cbbb15d3dedb7615d6dbb5bea576ba68587b7d4e5144241631e03fc82",
            "d6450dd2fd42391c982bff3788d4f640b2f7d85a359edc52578efceae1f355cc",
        ),
    ];
    let actual: Vec<(&str, String, String)> = runs
        .iter()
        .map(|(name, run)| {
            let (report, trace) = traced(|| run(1));
            let (r, t) = pin(&report, &trace);
            let (report2, trace2) = traced(|| run(2));
            assert_eq!((report2, trace2), (report, trace), "{name} at workers=2");
            (*name, r, t)
        })
        .collect();
    let listing: Vec<String> = actual.iter().map(|(n, r, t)| format!("(\"{n}\", \"{r}\", \"{t}\"),")).collect();
    for ((name, r, t), (golden_name, report_sha, trace_sha)) in actual.iter().zip(golden) {
        assert_eq!(*name, golden_name);
        assert!(
            (r.as_str(), t.as_str()) == (report_sha, trace_sha),
            "{name} moved off its golden digests; every world now pins as:\n{}",
            listing.join("\n")
        );
    }
}
