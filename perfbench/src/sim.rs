//! The `sim` workload: every sharded model through its library entry
//! point, at 1 and 2 workers, in rounds until `--seconds` runs out.
//!
//! * `phold`: PHOLD on `ShardedSim`, the engine alone (queues, epochs,
//!   outbox merges).
//! * The worlds: `minimpi::run_sharded` (LULESH), `gassyfs::run_sharded`,
//!   `orchestra::run_sharded`, `farm::simulate` and a fan-in
//!   `FabricSim`, which also replay the fabric core at epoch barriers.
//! * The chaos worlds: the same four worlds' `run_sharded_chaos` /
//!   `simulate_chaos` under one fixed fault timeline.
//!
//! A round is every model at 1 worker and then at 2; `round_s` is the
//! 1-worker half. The 2-worker runs carry a few events per epoch, so
//! their wall time follows the host's cross-core wake-up latency more
//! than the code; they are reported per layer.
//!
//! Worker counts go to the entry points directly; the CLI's
//! `--sim-workers` is not used because it sets `POPPER_SIM_WORKERS`
//! for the whole process.

use crate::report::Report;
use crate::{mix, RunCtx};
use popper_sim::{platforms, FabricSim, Nanos, NetCtx, ShardCtx, ShardedSim};
use std::time::Instant;

/// PHOLD: shards, chains seeded per shard, hops per chain.
const PHOLD_NODES: usize = 1000;
const PHOLD_SEEDS: u64 = 3;
const PHOLD_HOPS: u32 = 40;
/// Fan-in: sources pouring request/ack round trips into one hub.
const FAN_NODES: usize = 64;
const FAN_ROUNDS: u64 = 64;
/// World sizes: large enough that one 1-worker run takes milliseconds.
const GASSY_PAGES: u64 = 2048;
const ORCHESTRA_HOSTS: usize = 32;
const ORCHESTRA_TASKS: usize = 48;
const FARM_JOBS_PER_TENANT: usize = 128;
/// The fault schedule every chaos world runs under.
const CHAOS_SCHEDULE: &str = "node-crash";

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    Phold,
    World,
    Chaos,
}

/// Which figures a model's entry point reports.
#[derive(Clone, Copy)]
struct Figures {
    events: bool,
    epochs: bool,
    wire_bytes: bool,
    replay_entries: bool,
}

/// What most sharded worlds report: everything but the replay log,
/// which they build inside their entry points and do not return.
const WORLD: Figures = Figures {
    events: true,
    epochs: true,
    wire_bytes: true,
    replay_entries: false,
};

/// What one model run returns. A figure the model's [`Figures`] leaves
/// out is 0 and is not reported.
#[derive(Clone, PartialEq, Debug, Default)]
struct Outcome {
    events: u64,
    epochs: u64,
    wire_bytes: u64,
    replay_entries: u64,
    /// Fingerprint of everything the run computed except its worker
    /// count; equal at every worker count by the determinism contract.
    fingerprint: u64,
    /// Operations a chaos world gave up on (its `corrupt` column).
    corrupt: u64,
}

struct Model {
    name: &'static str,
    kind: Kind,
    figures: Figures,
    run: Box<dyn Fn(usize) -> Outcome>,
}

/// Hash a report's `Debug` text.
fn fingerprint(debug: &str) -> u64 {
    debug.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
    })
}

fn traffic_bytes(traffic: &[popper_sim::NodeTraffic]) -> u64 {
    traffic.iter().map(|t| t.tx_bytes).sum()
}

fn phold(seed: u64, workers: usize) -> Outcome {
    const LOOKAHEAD: Nanos = Nanos(100);
    let mut sim: ShardedSim<u64> = ShardedSim::new(vec![0u64; PHOLD_NODES], LOOKAHEAD);
    fn hop(ctx: &mut ShardCtx<'_, u64>, ttl: u32, key: u64) {
        let mut acc = key;
        for _ in 0..32 {
            acc = mix(acc);
        }
        *ctx.state() ^= acc;
        if ttl == 0 {
            return;
        }
        let h = mix(key ^ u64::from(ttl));
        let dst = (h as usize) % ctx.shards();
        let delay = Nanos(100 + h % 900);
        if dst == ctx.shard_id() {
            ctx.schedule_in(delay, move |c| hop(c, ttl - 1, h));
        } else {
            ctx.send_to(dst, delay, move |c| hop(c, ttl - 1, h));
        }
    }
    for node in 0..PHOLD_NODES {
        for i in 0..PHOLD_SEEDS {
            let key = mix(seed ^ ((node as u64) << 24) ^ i);
            sim.schedule(node, Nanos(key % 500), move |ctx| hop(ctx, PHOLD_HOPS, key));
        }
    }
    sim.run_sharded(workers);
    Outcome {
        events: sim.events_fired(),
        epochs: sim.epochs(),
        fingerprint: sim.states().fold(mix(sim.now().0), |a, s| mix(a ^ *s)),
        ..Default::default()
    }
}

fn fanin(seed: u64, workers: usize) -> Outcome {
    const LATENCY: Nanos = Nanos::from_micros(50);
    let mut sim = FabricSim::new(vec![0u64; FAN_NODES], 10.0, LATENCY, 2.0);
    fn churn(state: &mut u64, key: u64) {
        let mut acc = key;
        for _ in 0..32 {
            acc = mix(acc);
        }
        *state ^= acc;
    }
    fn send(ctx: &mut NetCtx<'_, '_, u64>, seed: u64, round: u64) {
        if round == 0 {
            return;
        }
        let src = ctx.node();
        let key = mix(seed ^ ((src as u64) << 32) | round);
        churn(ctx.state(), key);
        ctx.transfer(0, 8_192 + key % 8_192, move |hub| {
            churn(hub.state(), key);
            hub.transfer(src, 64, move |c| send(c, seed, round - 1));
        });
    }
    for src in 1..FAN_NODES {
        sim.schedule(src, Nanos(mix(seed ^ src as u64) % 1_000), move |ctx| {
            send(ctx, seed, FAN_ROUNDS)
        });
    }
    sim.run_sharded(workers);
    Outcome {
        events: sim.events_fired(),
        epochs: sim.epochs(),
        wire_bytes: sim.total_bytes(),
        replay_entries: sim.replay_log().len() as u64,
        fingerprint: sim.states().fold(mix(sim.now().0), |a, s| mix(a ^ *s)),
        corrupt: 0,
    }
}

fn models(seed: u64) -> Vec<Model> {
    let lulesh = popper_minimpi::lulesh::LuleshConfig::paper();
    let hpc = platforms::hpc_node();
    let gassy = popper_gassyfs::ShardedGassyConfig {
        pages: GASSY_PAGES,
        ..Default::default()
    };
    let gassy_node = platforms::gassyfs_node();
    let orchestra = popper_orchestra::ShardedOrchestraConfig {
        hosts: ORCHESTRA_HOSTS,
        tasks: ORCHESTRA_TASKS,
        seed,
        ..Default::default()
    };
    let farm = popper_farm::FarmSimConfig {
        jobs_per_tenant: FARM_JOBS_PER_TENANT,
        seed,
        ..Default::default()
    };
    let timeline = |nodes: usize| {
        popper_chaos::FaultSchedule::named(CHAOS_SCHEDULE, nodes, seed)
            .expect("built-in fault schedule")
            .plane_timeline()
    };
    let lulesh_tl = timeline(lulesh.ranks());
    let gassy_tl = timeline(gassy.nodes);
    let orchestra_tl = timeline(orchestra.hosts + 1);
    let farm_tl = timeline(farm.tenants + 1);

    let (l1, h1) = (lulesh.clone(), hpc.clone());
    let (l2, h2) = (lulesh, hpc);
    let (g1, n1) = (gassy.clone(), gassy_node.clone());
    let (g2, n2) = (gassy, gassy_node);
    let (o1, o2) = (orchestra.clone(), orchestra);
    let (f1, f2) = (farm.clone(), farm);
    vec![
        Model {
            name: "phold",
            kind: Kind::Phold,
            figures: Figures {
                events: true,
                epochs: true,
                wire_bytes: false,
                replay_entries: false,
            },
            run: Box::new(move |w| phold(seed, w)),
        },
        Model {
            name: "fanin",
            kind: Kind::World,
            figures: Figures {
                replay_entries: true,
                ..WORLD
            },
            run: Box::new(move |w| fanin(seed, w)),
        },
        Model {
            name: "lulesh",
            kind: Kind::World,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_minimpi::run_sharded(&l1, &h1, w);
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: r.wire_bytes,
                    fingerprint: fingerprint(&format!("{r:?}")),
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "gassyfs",
            kind: Kind::World,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_gassyfs::run_sharded(&g1, &n1, w);
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: traffic_bytes(&r.traffic),
                    fingerprint: fingerprint(&format!("{r:?}")),
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "orchestra",
            kind: Kind::World,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_orchestra::run_sharded(&o1, w);
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: traffic_bytes(&r.traffic),
                    fingerprint: fingerprint(&format!("{r:?}")),
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "farm",
            kind: Kind::World,
            // `FarmSimReport` has no epoch count.
            figures: Figures {
                epochs: false,
                ..WORLD
            },
            run: Box::new(move |w| {
                let r = popper_farm::simulate(&f1, w);
                Outcome {
                    events: r.events,
                    wire_bytes: r.wire_bytes,
                    fingerprint: fingerprint(&format!("{r:?}")),
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "lulesh_chaos",
            kind: Kind::Chaos,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_minimpi::run_sharded_chaos(&l2, &h2, w, seed, lulesh_tl.clone());
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: r.wire_bytes,
                    fingerprint: fingerprint(&format!("{r:?}")),
                    corrupt: r.lost,
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "gassyfs_chaos",
            kind: Kind::Chaos,
            // `ShardedGassyChaosReport` has no event count.
            figures: Figures {
                events: false,
                ..WORLD
            },
            run: Box::new(move |w| {
                let mut r = popper_gassyfs::run_sharded_chaos(&g2, &n2, w, seed, gassy_tl.clone());
                r.workers = 0;
                Outcome {
                    epochs: r.epochs,
                    wire_bytes: traffic_bytes(&r.traffic),
                    fingerprint: fingerprint(&format!("{r:?}")),
                    corrupt: r.lost,
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "orchestra_chaos",
            kind: Kind::Chaos,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_orchestra::run_sharded_chaos(&o2, w, seed, orchestra_tl.clone());
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: traffic_bytes(&r.traffic),
                    fingerprint: fingerprint(&format!("{r:?}")),
                    corrupt: r.lost,
                    ..Default::default()
                }
            }),
        },
        Model {
            name: "farm_chaos",
            kind: Kind::Chaos,
            figures: WORLD,
            run: Box::new(move |w| {
                let mut r = popper_farm::simulate_chaos(&f2, w, seed, farm_tl.clone());
                r.workers = 0;
                Outcome {
                    events: r.events,
                    epochs: r.epochs,
                    wire_bytes: r.wire_bytes,
                    fingerprint: fingerprint(&format!("{r:?}")),
                    corrupt: r.lost,
                    ..Default::default()
                }
            }),
        },
    ]
}

/// Per-model layer metrics, leaving out what a model's entry point
/// does not report.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for Model { name, figures, .. } in models(0) {
        if figures.events {
            out.push((format!("sim.{name}.events"), "count"));
        }
        if figures.epochs {
            out.push((format!("sim.{name}.epochs"), "count"));
        }
        if figures.events && figures.epochs {
            out.push((format!("sim.{name}.events_per_epoch"), "ratio"));
        }
        out.push((format!("sim.{name}.wall_ms_1w"), "ms"));
        out.push((format!("sim.{name}.wall_ms_2w"), "ms"));
        out.push((format!("sim.{name}.rate_2w_over_1w"), "ratio"));
        if figures.wire_bytes {
            out.push((format!("sim.{name}.wire_mb"), "MB"));
        }
        if figures.replay_entries {
            out.push((format!("sim.{name}.replay_entries"), "count"));
        }
    }
    out.push(("sim.worlds_events_per_s_2w".to_string(), "1/s"));
    out.push(("sim.traced_wall_s".to_string(), "s"));
    out
}

/// Host events per second over the models of `kind` that report an
/// event count, from one round's wall times.
fn rate(models: &[Model], reference: &[Outcome], walls: &[f64], kind: Kind) -> f64 {
    let (mut events, mut wall) = (0u64, 0.0);
    for (i, m) in models.iter().enumerate() {
        if m.kind == kind && m.figures.events {
            events += reference[i].events;
            wall += walls[i];
        }
    }
    events as f64 / wall
}

pub fn run(ctx: &RunCtx, report: &mut Report) {
    let two = ctx.workers(2);
    report.threads.push(("sim_workers_1w", 1));
    report.threads.push(("sim_workers_2w", two));
    let models = models(ctx.seed);

    // Set-up: a reference pass at 1 worker, the outputs every later
    // run must reproduce.
    let t = Instant::now();
    let reference: Vec<Outcome> = models.iter().map(|m| (m.run)(1)).collect();
    let mut setup = vec![t.elapsed().as_secs_f64()];
    for (m, o) in models.iter().zip(&reference) {
        report.check(
            !m.figures.events || o.events > 0,
            format!("{}: no events fired", m.name),
        );
    }

    // Rounds: every model at 1 and at 2 workers.
    let mut walls: Vec<[Vec<f64>; 2]> = models.iter().map(|_| [Vec::new(), Vec::new()]).collect();
    let mut rates: [Vec<f64>; 5] = Default::default();
    let mut serial_rounds = Vec::new();
    let started = Instant::now();
    let mut rounds = 0;
    loop {
        let round = Instant::now();
        // A timed run repeats the set-up before each round, so that its
        // median covers the whole run, as the rounds' median does.
        if !ctx.trace {
            let t = Instant::now();
            let pass: Vec<Outcome> = models.iter().map(|m| (m.run)(1)).collect();
            setup.push(t.elapsed().as_secs_f64());
            report.check(
                pass == reference,
                "a 1-worker reference pass did not repeat",
            );
        }
        let mut this: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        for (i, m) in models.iter().enumerate() {
            for (slot, workers) in [(0, 1), (1, two)] {
                let t = Instant::now();
                let o = (m.run)(workers);
                let dt = t.elapsed().as_secs_f64();
                let same = o == reference[i];
                report.op(same && o.corrupt == 0, || {
                    format!(
                        "{} at {workers} worker(s): {o:?} differs from the 1-worker reference {:?}",
                        m.name, reference[i]
                    )
                });
                walls[i][slot].push(dt);
                this[slot].push(dt);
            }
        }
        let phold = models
            .iter()
            .position(|m| m.kind == Kind::Phold)
            .expect("phold model");
        let phold_events = reference[phold].events as f64;
        rates[0].push(phold_events / this[0][phold]);
        rates[1].push(phold_events / this[1][phold]);
        rates[2].push(rate(&models, &reference, &this[0], Kind::World));
        rates[3].push(rate(&models, &reference, &this[1], Kind::World));
        rates[4].push(rate(&models, &reference, &this[0], Kind::Chaos));
        serial_rounds.push(this[0].iter().sum::<f64>());
        rounds += 1;
        let took = round.elapsed().as_secs_f64();
        if started.elapsed().as_secs_f64() + took > ctx.seconds {
            break;
        }
    }
    let traced_wall = started.elapsed().as_secs_f64();
    report.note(format!(
        "{rounds} round(s) of {} models at 1 and {two} worker(s); chaos schedule {CHAOS_SCHEDULE}, seed {}; \
         gassyfs_chaos reports no event count, so chaos_events_per_s leaves it out",
        models.len(),
        ctx.seed
    ));

    if !ctx.trace {
        report.median("setup_s", "s", &setup);
        report.median("round_s", "s", &serial_rounds);
        report.part("phold_events_per_s", "1/s", &rates[0]);
        report.part("phold_events_per_s_2w", "1/s", &rates[1]);
        report.part("worlds_events_per_s", "1/s", &rates[2]);
        report.part("chaos_events_per_s", "1/s", &rates[4]);
        return;
    }
    for (i, m) in models.iter().enumerate() {
        let (o, f, name) = (&reference[i], m.figures, m.name);
        if f.events {
            report.value(format!("sim.{name}.events"), "count", o.events as f64);
        }
        if f.epochs {
            report.value(format!("sim.{name}.epochs"), "count", o.epochs as f64);
        }
        if f.events && f.epochs {
            report.value(
                format!("sim.{name}.events_per_epoch"),
                "ratio",
                o.events as f64 / o.epochs.max(1) as f64,
            );
        }
        let ms = |s: &Vec<f64>| s.iter().map(|x| x * 1e3).collect::<Vec<f64>>();
        report.median(format!("sim.{name}.wall_ms_1w"), "ms", &ms(&walls[i][0]));
        report.median(format!("sim.{name}.wall_ms_2w"), "ms", &ms(&walls[i][1]));
        let (one, two) = (
            crate::stats::median(&walls[i][0]),
            crate::stats::median(&walls[i][1]),
        );
        if let (Some(one), Some(two)) = (one, two) {
            report.value(format!("sim.{name}.rate_2w_over_1w"), "ratio", one / two);
        }
        if f.wire_bytes {
            report.value(
                format!("sim.{name}.wire_mb"),
                "MB",
                o.wire_bytes as f64 / 1e6,
            );
        }
        if f.replay_entries {
            report.value(
                format!("sim.{name}.replay_entries"),
                "count",
                o.replay_entries as f64,
            );
        }
    }
    // Per-layer, not end to end: the 2-worker worlds run 1 to 7 events
    // per epoch, so this rate follows the host's cross-core wake-up
    // latency at each barrier, which moved it by up to half between runs
    // on a shared 2-vCPU host.
    report.median("sim.worlds_events_per_s_2w", "1/s", &rates[3]);
    report.value("sim.traced_wall_s", "s", traced_wall);
    report.note(
        "replay_entries: only the fan-in FabricSim is built here; the worlds build theirs inside their entry \
         points and do not expose the replay log. Tracing overhead: none beyond the per-run timing the \
         untraced run also takes",
    );
}
