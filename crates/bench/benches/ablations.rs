//! A1/A2 + design ablations called out in DESIGN.md:
//!
//! * **hypervisor tax** (§Common Practice: VM overheads "cannot be
//!   accounted for easily") — the Torpor battery on bare metal vs. a VM
//!   model; only syscall-heavy stressors move.
//! * **baseline gate** — cost of the sanitization step (it must be
//!   cheap enough to run before *every* experiment).
//! * **controlled vs statistical reproducibility** (§Discussion) — the
//!   two hypothesis tests on realistic runtime samples.
//! * **FUSE writeback option** — the packaging-choice effect the
//!   GassyFS use case motivates.
//! * **tracing overhead** (`ablate_trace_overhead`) — the sim dispatch
//!   path (a one-shard `ShardedSim`) with a disabled vs. an enabled
//!   `popper-trace` sink; the print reports the disabled-sink branch's
//!   share of that path against the 5% budget.
//! * **fault-plane overhead** (`ablate_fault_overhead`) — the fabric
//!   admit path with a healthy vs. an active `FaultPlane`; a healthy
//!   plane is one branch per transfer and must stay below 5% so fault
//!   support can stay compiled into every run.

use criterion::{criterion_group, Criterion};
use popper_monitor::stressors::STRESSORS;
use popper_monitor::{mann_whitney_u, welch_t_test, Baseline, BaselineGate};
use popper_sim::platforms;
use rand::{Rng, SeedableRng};

fn print_hypervisor_ablation() {
    eprintln!("{}", popper_bench::banner("A1: hypervisor tax"));
    let bare = platforms::cloudlab_c220g();
    let vm = bare.virtualized(1.35, "same-hw-vm");
    eprintln!("{:<14} {:>12} {:>12} {:>8}", "stressor", "bare (s)", "vm (s)", "tax");
    for s in STRESSORS {
        let tb = s.simulated_runtime(&bare, 1.0).as_secs_f64();
        let tv = s.simulated_runtime(&vm, 1.0).as_secs_f64();
        eprintln!("{:<14} {tb:>12.5} {tv:>12.5} {:>7.1}%", s.name, (tv / tb - 1.0) * 100.0);
    }
    eprintln!("shape: only syscall-touching stressors pay the tax.\n");
}

fn print_statistics_ablation() {
    eprintln!("{}", popper_bench::banner("A2: controlled vs statistical"));
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let sample = |mean: f64, sd: f64, rng: &mut rand::rngs::StdRng| -> Vec<f64> {
        (0..10)
            .map(|_| {
                let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.gen_range(0.0..1.0);
                mean + sd * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect()
    };
    let a = sample(100.0, 4.0, &mut rng);
    let b = sample(106.0, 4.0, &mut rng);
    let w = welch_t_test(&a, &b).unwrap();
    let u = mann_whitney_u(&a, &b).unwrap();
    eprintln!("10-run samples, 6% true slowdown, 4% noise:");
    eprintln!("  welch   p = {:.4}", w.p_value);
    eprintln!("  mann-whitney p = {:.4}", u.p_value);
    eprintln!("(controlled/simulated runs need no statistics: CoV = 0.)\n");
}

fn bench_baseline_gate(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/baseline_gate");
    let stored = Baseline::of_platform(&platforms::cloudlab_c220g());
    let gate = BaselineGate::new(stored, 0.25);
    group.bench_function("fingerprint_and_check", |b| {
        b.iter(|| {
            let current = Baseline::of_platform(&platforms::cloudlab_c220g());
            criterion::black_box(gate.check(&current).may_run())
        });
    });
    group.finish();
}

fn bench_statistics(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/statistics");
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let a: Vec<f64> = (0..100).map(|_| 100.0 + rng.gen::<f64>() * 8.0).collect();
    let b2: Vec<f64> = (0..100).map(|_| 104.0 + rng.gen::<f64>() * 8.0).collect();
    group.bench_function("welch_100v100", |bch| {
        bch.iter(|| criterion::black_box(welch_t_test(&a, &b2).unwrap().p_value));
    });
    group.bench_function("mann_whitney_100v100", |bch| {
        bch.iter(|| criterion::black_box(mann_whitney_u(&a, &b2).unwrap().p_value));
    });
    group.finish();
}

/// The instrumented sim hot path: a burst of fabric transfers. Each
/// call to [`popper_sim::Fabric::transfer`] consults the ambient tracer
/// (one TLS read + branch when disabled, two span records when enabled).
fn transfer_loop(n: u64) -> u64 {
    use popper_sim::{Fabric, Nanos};
    let mut fabric = Fabric::new(8, 10.0, Nanos::from_micros(5), 1.0);
    let mut acc = 0u64;
    for i in 0..n {
        let done = fabric.transfer(
            (i % 8) as usize,
            ((i + 3) % 8) as usize,
            4096 + (i * 37) % 65536,
            Nanos(i * 1_000),
        );
        acc ^= done.0;
    }
    acc
}

/// The engine hot path: a self-rescheduling tick chain dispatched `n`
/// times on a one-shard [`popper_sim::ShardedSim`], the serial engine
/// every world runs on. The shard state is `(world, ticks left)`. The
/// engine holds its tracer as a field, so a disabled sink costs one
/// branch per dispatch.
fn dispatch_loop(tracer: Option<popper_trace::Tracer>, n: u64) -> u64 {
    use popper_sim::{Nanos, ShardCtx, ShardedSim};
    fn tick(ctx: &mut ShardCtx<'_, (u64, u64)>) {
        let (world, left) = ctx.state();
        *world = world.wrapping_mul(6364136223846793005).wrapping_add(1);
        *left -= 1;
        if *left > 0 {
            let delay = Nanos(1 + (*world >> 60));
            ctx.schedule_in(delay, tick);
        }
    }
    let mut sim = ShardedSim::new(vec![(0x9e3779b9, n)], Nanos::MAX);
    if let Some(t) = tracer {
        sim.set_tracer(t);
    }
    sim.schedule(0, Nanos(1), tick);
    sim.run();
    sim.state(0).0
}

/// The fabric admit path under an optionally-active fault plane. With
/// a healthy plane [`popper_sim::Fabric::try_transfer`] pays exactly
/// one `is_active()` branch; with faults injected it also consults
/// per-link latency factors, loss, and reachability.
fn fault_loop(faulted: bool, n: u64) -> u64 {
    use popper_sim::{Fabric, Nanos};
    let mut fabric = Fabric::new(8, 10.0, Nanos::from_micros(5), 1.0);
    if faulted {
        fabric.faults_mut().set_seed(11);
        fabric.faults_mut().set_latency_factor(1, 4.0);
        fabric.faults_mut().set_loss(2, 0.05);
    }
    let mut acc = 0u64;
    for i in 0..n {
        let done = fabric.transfer(
            (i % 8) as usize,
            ((i + 3) % 8) as usize,
            4096 + (i * 37) % 65536,
            Nanos(i * 1_000),
        );
        acc ^= done.0;
    }
    acc
}

fn print_fault_overhead_ablation() {
    use popper_sim::FaultPlane;
    use std::time::Instant;
    const N: u64 = 500_000;
    eprintln!("{}", popper_bench::banner("A4: fault-plane overhead (healthy vs active)"));

    // Warm the code paths.
    fault_loop(false, 10_000);

    let t0 = Instant::now();
    let a = fault_loop(false, N);
    let healthy = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let b = fault_loop(true, N);
    let active = t0.elapsed().as_secs_f64();
    criterion::black_box(a ^ b);

    // Marginal cost of the healthy-plane branch in isolation.
    let plane = FaultPlane::new(8);
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..N {
        if criterion::black_box(&plane).is_active() {
            hits += 1;
        }
    }
    criterion::black_box(hits);
    let check = t0.elapsed().as_secs_f64();

    eprintln!("{N} fabric transfers:");
    eprintln!("  healthy plane: {:>9.3} ms", healthy * 1e3);
    eprintln!("  active plane:  {:>9.3} ms  (latency x4 + 5% loss)", active * 1e3);
    let pct = check / healthy * 100.0;
    eprintln!("  healthy-plane branch alone: {:.3} ms = {pct:.2}% of the admit path", check * 1e3);
    assert!(pct < 5.0, "healthy FaultPlane branch exceeds the 5% budget: {pct:.2}%");
    eprintln!("shape: a healthy plane is one branch per admit — under the 5% budget.\n");
}

fn ablate_fault_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablations/fault_overhead");
    group.bench_function("admit_healthy", |b| {
        b.iter(|| criterion::black_box(fault_loop(false, 2_000)));
    });
    group.bench_function("admit_faulted", |b| {
        b.iter(|| criterion::black_box(fault_loop(true, 2_000)));
    });
    group.finish();
}

fn print_trace_overhead_ablation() {
    use popper_trace::{ClockDomain, TraceSink, Tracer};
    use std::time::Instant;
    const N: u64 = 500_000;
    eprintln!("{}", popper_bench::banner("A3: tracing overhead (disabled vs enabled sink)"));

    // Warm the code paths.
    dispatch_loop(None, 10_000);

    let t0 = Instant::now();
    let a = dispatch_loop(None, N);
    let disabled = t0.elapsed().as_secs_f64();

    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    let t0 = Instant::now();
    let b = dispatch_loop(Some(tracer.clone()), N);
    tracer.flush();
    let enabled = t0.elapsed().as_secs_f64();
    let events = sink.drain().len();
    criterion::black_box(a ^ b);

    // Marginal cost of the disabled-sink branch in isolation.
    let off = Tracer::disabled();
    let t0 = Instant::now();
    let mut hits = 0u64;
    for _ in 0..N {
        if criterion::black_box(&off).is_enabled() {
            hits += 1;
        }
    }
    criterion::black_box(hits);
    let check = t0.elapsed().as_secs_f64();

    eprintln!("{N} engine dispatches:");
    eprintln!("  disabled sink: {:>9.3} ms", disabled * 1e3);
    eprintln!("  enabled sink:  {:>9.3} ms  ({events} events collected)", enabled * 1e3);
    let pct = check / disabled * 100.0;
    eprintln!("  disabled-sink branch alone: {:.3} ms = {pct:.2}% of the dispatch path", check * 1e3);
    // The isolated loop also times its own loop overhead, so this is an
    // upper bound on the branch's share; it is reported, not asserted.
    let verdict = if pct < 5.0 { "within" } else { "over" };
    eprintln!("shape: a disabled sink is one branch per dispatch — {pct:.2}%, {verdict} the 5% budget.\n");
}

fn ablate_trace_overhead(c: &mut Criterion) {
    use popper_trace::{ClockDomain, TraceSink, Tracer};
    let mut group = c.benchmark_group("ablations/trace_overhead");
    group.bench_function("dispatch_disabled", |b| {
        b.iter(|| criterion::black_box(dispatch_loop(None, 10_000)));
    });
    let sink = TraceSink::new();
    let tracer = sink.tracer(ClockDomain::Virtual);
    group.bench_function("dispatch_enabled", |b| {
        b.iter(|| {
            let out = criterion::black_box(dispatch_loop(Some(tracer.clone()), 10_000));
            tracer.flush();
            out ^ sink.drain().len() as u64
        });
    });
    // The ambient-tracer sites (fabric, RPCs, collectives) pay a TLS
    // read on top of the branch; keep them visible too.
    group.bench_function("transfers_disabled", |b| {
        b.iter(|| {
            popper_trace::with_current(Tracer::disabled(), || {
                criterion::black_box(transfer_loop(2_000))
            })
        });
    });
    let xfer_tracer = sink.tracer(ClockDomain::Virtual);
    group.bench_function("transfers_enabled", |b| {
        b.iter(|| {
            let out = popper_trace::with_current(xfer_tracer.clone(), || {
                criterion::black_box(transfer_loop(2_000))
            });
            xfer_tracer.flush();
            out ^ sink.drain().len() as u64
        });
    });
    group.finish();
}

fn bench_writeback_ablation(c: &mut Criterion) {
    use popper_gassyfs::fs::{GassyFs, MountOptions};
    use popper_gassyfs::workload::{run_compile, CompileWorkload};
    use popper_sim::Cluster;

    // Print the virtual-time effect once.
    let run_with = |writeback: bool| {
        let cluster = Cluster::new(platforms::gassyfs_node(), 8);
        let mut fs = GassyFs::mount(cluster, MountOptions { writeback, ..Default::default() });
        run_compile(&mut fs, &CompileWorkload::small()).unwrap().elapsed.as_secs_f64()
    };
    let sync_t = run_with(false);
    let wb_t = run_with(true);
    eprintln!("{}", popper_bench::banner("FUSE writeback ablation (8 nodes)"));
    eprintln!("sync writes: {sync_t:.3} s   writeback: {wb_t:.3} s   ({:.1}% faster)\n", (1.0 - wb_t / sync_t) * 100.0);

    let mut group = c.benchmark_group("ablations/fuse_writeback");
    group.sample_size(10);
    group.bench_function("compile_writeback_on", |b| {
        b.iter(|| criterion::black_box(run_with(true)));
    });
    group.finish();
}

fn print_checkpoint_ablation() {
    use popper_gassyfs::checkpointing::{run_checkpoint_study, to_table, CheckpointStudy};
    eprintln!("{}", popper_bench::banner("GassyFS checkpoint-interval ablation"));
    let points = run_checkpoint_study(&CheckpointStudy::default()).expect("study runs");
    eprint!("{}", to_table(&points).to_pretty());
    eprintln!("shape: pauses fall and the loss window grows with the interval;\nincremental dedup keeps stored << ingested.\n");
}

criterion_group!(
    benches,
    bench_baseline_gate,
    bench_statistics,
    ablate_trace_overhead,
    ablate_fault_overhead,
    bench_writeback_ablation
);

fn main() {
    print_hypervisor_ablation();
    print_statistics_ablation();
    print_trace_overhead_ablation();
    print_fault_overhead_ablation();
    print_checkpoint_ablation();
    benches();
    criterion::Criterion::default().configure_from_args().final_summary();
}
