//! The sharded orchestra world: one fabric shard per managed host,
//! plus one for the controller.
//!
//! The live executor ([`executor`](crate::executor)) fans each task
//! out to every host over OS threads and synchronizes before the next
//! — Ansible's "linear" strategy. This world replays that strategy on
//! the shard-native fabric ([`popper_sim::FabricSim`]): the controller
//! (shard 0) pushes the task's module payload to every host as a
//! cross-shard transfer, each host runs the module for a
//! deterministically hashed duration, ships its result back, and the
//! controller releases the next task once every ack has landed. The
//! result fan-in is the interesting part: all hosts answer within one
//! task's jitter window, so the controller's ingress link becomes an
//! incast that the fabric meters — exactly the contention a fixed
//! per-RPC delay would hide.
//!
//! Determinism is inherited from the engine: task release times,
//! per-host busy time, traffic counters and trace bytes are identical
//! at every worker count.

use popper_sim::{FabricSim, Nanos, NetCtx, NodeTraffic, PlaneCmd, RetryStats};
use std::sync::Arc;

/// The controller owns shard 0; host `h` (1-based id) is shard `h`.
const CONTROLLER: usize = 0;

/// Configuration of one sharded world run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedOrchestraConfig {
    /// Managed hosts (shards 1..=hosts).
    pub hosts: usize,
    /// Tasks in the playbook, dispatched linearly.
    pub tasks: usize,
    /// Seed for the per-(host, task) duration hash.
    pub seed: u64,
    /// Module payload the controller ships to each host per task.
    pub task_bytes: u64,
    /// Result payload each host ships back per task.
    pub result_bytes: u64,
    /// Mean module execution time on a host.
    pub mean_task: Nanos,
    /// Link speed of every endpoint's NIC.
    pub link_gbit_x10: u64,
    /// Propagation latency — also the conservative lookahead.
    pub latency: Nanos,
}

impl Default for ShardedOrchestraConfig {
    fn default() -> Self {
        ShardedOrchestraConfig {
            hosts: 8,
            tasks: 12,
            seed: 11,
            task_bytes: 64 * 1024,
            result_bytes: 4096,
            mean_task: Nanos::from_micros(200),
            link_gbit_x10: 100, // 10 Gbit/s
            latency: Nanos::from_micros(10),
        }
    }
}

/// What one shard models.
enum OrchShard {
    Controller {
        /// RPCs resolved for the in-flight task (ack landed, or the
        /// dispatch was abandoned).
        resolved: usize,
        /// Index of the in-flight (or next) task.
        task: usize,
        /// Virtual time each task resolved.
        task_finish: Vec<Nanos>,
        /// Virtual time the playbook completed.
        finish: Nanos,
        /// Task-push failures and retried acks.
        retry: RetryStats,
    },
    Host {
        /// 1-based host id (= shard index).
        id: usize,
        /// Tasks this host has executed.
        ran: usize,
        /// Total module execution time on this host.
        busy: Nanos,
        /// Ack failures and retried task pushes.
        retry: RetryStats,
    },
}

impl OrchShard {
    fn retry(&mut self) -> &mut RetryStats {
        match self {
            OrchShard::Controller { retry, .. } | OrchShard::Host { retry, .. } => retry,
        }
    }
}

/// Result of one sharded world run — identical at every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedOrchestraReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Virtual time the controller saw each task complete.
    pub task_finish: Vec<Nanos>,
    /// Tasks each host ran, host order.
    pub per_host_ran: Vec<usize>,
    /// Module execution time per host, host order.
    pub per_host_busy: Vec<Nanos>,
    /// Fabric traffic counters, shard order (controller first).
    pub traffic: Vec<NodeTraffic>,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Deterministic module duration on `host` for `task`: `0.5x .. 1.5x`
/// of the mean — the same hashed-jitter idiom the farm model uses.
fn module_duration(config: &ShardedOrchestraConfig, host: usize, task: usize) -> Nanos {
    let key = splitmix(splitmix(config.seed) ^ ((host as u64) << 32) ^ task as u64);
    let jitter = (key % 1000) as f64 / 1000.0; // [0, 1)
    config.mean_task.scale(0.5 + jitter)
}

/// Result of one sharded chaos run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedOrchestraChaosReport {
    /// End-to-end virtual runtime.
    pub elapsed: Nanos,
    /// Virtual time the controller saw each task resolve.
    pub task_finish: Vec<Nanos>,
    /// Tasks each host ran, host order.
    pub per_host_ran: Vec<usize>,
    /// Module execution time per host, host order.
    pub per_host_busy: Vec<Nanos>,
    /// Fabric traffic counters, shard order (controller first).
    pub traffic: Vec<NodeTraffic>,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
    /// RPCs the playbook issues in a fault-free run (2 per host-task).
    pub rpcs: u64,
    /// RPC timeouts observed across the cluster.
    pub detections: u64,
    /// RPCs delivered after one or more retries.
    pub recovered: u64,
    /// RPCs abandoned after `MAX_ATTEMPTS` (expected 0 for every
    /// schedule that ends healed).
    pub lost: u64,
    /// First failure to last recovered delivery, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of RPCs that saw any failure.
    pub degraded_fraction: f64,
}

/// Run the healthy sharded world with `workers` threads (1 = the
/// single-threaded reference; results are identical either way): the
/// chaos run with an empty timeline, projected onto its fault-free
/// fields.
pub fn run_sharded(config: &ShardedOrchestraConfig, workers: usize) -> ShardedOrchestraReport {
    let run = run_sharded_chaos(config, workers, 0, Vec::new());
    ShardedOrchestraReport {
        elapsed: run.elapsed,
        task_finish: run.task_finish,
        per_host_ran: run.per_host_ran,
        per_host_busy: run.per_host_busy,
        traffic: run.traffic,
        events: run.events,
        epochs: run.epochs,
        workers: run.workers,
    }
}

/// Run the sharded world under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run, the controller retries task pushes with
/// [`NetCtx::transfer_retry`] (abandoning a host after `MAX_ATTEMPTS`
/// — the linear barrier then releases without it), and hosts retry
/// result acks the same way. An empty timeline is the healthy run.
/// Deterministic at every worker count.
pub fn run_sharded_chaos(
    config: &ShardedOrchestraConfig,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> ShardedOrchestraChaosReport {
    assert!(config.hosts >= 1 && config.tasks >= 1);
    let mut states = vec![OrchShard::Controller {
        resolved: 0,
        task: 0,
        task_finish: Vec::with_capacity(config.tasks),
        finish: Nanos::ZERO,
        retry: RetryStats::default(),
    }];
    states.extend((1..=config.hosts).map(|id| OrchShard::Host {
        id,
        ran: 0,
        busy: Nanos::ZERO,
        retry: RetryStats::default(),
    }));

    let link_gbit = config.link_gbit_x10 as f64 / 10.0;
    let mut sim = FabricSim::new(states, link_gbit, config.latency, 1.0);
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    sim.set_fault_timeline(seed, timeline);
    // Gap between task release slots, so the playbook is still running
    // when late faults land.
    let pace = Nanos(horizon.0 * 5 / 4 / config.tasks as u64);
    let cfg = Arc::new(config.clone());
    sim.schedule(CONTROLLER, Nanos::ZERO, move |ctx| dispatch_task(ctx, pace, cfg));
    let elapsed = sim.run_sharded(workers);

    let OrchShard::Controller { task_finish, .. } = sim.state(CONTROLLER) else {
        unreachable!("shard 0 is the controller")
    };
    let mut per_host_ran = vec![0; config.hosts];
    let mut per_host_busy = vec![Nanos::ZERO; config.hosts];
    for state in sim.states() {
        if let OrchShard::Host { id, ran, busy, .. } = state {
            per_host_ran[*id - 1] = *ran;
            per_host_busy[*id - 1] = *busy;
        }
    }
    let retry = RetryStats::fold(sim.states().map(|s| match s {
        OrchShard::Controller { retry, .. } | OrchShard::Host { retry, .. } => retry,
    }));
    let rpcs = 2 * (config.hosts * config.tasks) as u64;
    ShardedOrchestraChaosReport {
        elapsed,
        task_finish: task_finish.clone(),
        per_host_ran,
        per_host_busy,
        traffic: (0..=config.hosts).map(|n| sim.traffic(n)).collect(),
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
        rpcs,
        detections: retry.detections,
        recovered: retry.recovered,
        lost: retry.lost,
        recovery_ms: retry.recovery_ms(),
        degraded_fraction: retry.degraded as f64 / rpcs.max(1) as f64,
    }
}

type Ctx<'a, 'b> = NetCtx<'a, 'b, OrchShard>;

/// Controller: fan the current task's payload out to every host, no
/// earlier than the task's pacing slot.
fn dispatch_task(ctx: &mut Ctx<'_, '_>, pace: Nanos, cfg: Arc<ShardedOrchestraConfig>) {
    let OrchShard::Controller { task, resolved, .. } = ctx.state() else {
        unreachable!("dispatch runs on the controller shard")
    };
    let task = *task;
    *resolved = 0;
    let slot = pace * task as u64;
    if slot > ctx.now() {
        ctx.schedule_at(slot, move |c| fan_out(c, task, pace, cfg));
    } else {
        fan_out(ctx, task, pace, cfg);
    }
}

/// Controller → host task pushes, retried; a push abandoned after
/// `MAX_ATTEMPTS` resolves the host for this task, so the linear
/// barrier does not hang on an unreachable machine.
fn fan_out(ctx: &mut Ctx<'_, '_>, task: usize, pace: Nanos, cfg: Arc<ShardedOrchestraConfig>) {
    for host in 1..=cfg.hosts {
        let cfg = Arc::clone(&cfg);
        ctx.transfer_retry(host, cfg.task_bytes, OrchShard::retry, move |c, sent| match sent {
            Ok(()) => run_module(c, task, pace, cfg),
            Err(_) => resolve(c, pace, cfg),
        });
    }
}

/// Host: execute the module for the hashed duration, then ship the
/// result back to the controller (retried). An ack abandoned after
/// `MAX_ATTEMPTS` stalls the playbook on this task — the corruption
/// shows up as a missing finish.
fn run_module(ctx: &mut Ctx<'_, '_>, task: usize, pace: Nanos, cfg: Arc<ShardedOrchestraConfig>) {
    let host = ctx.node();
    let duration = module_duration(&cfg, host, task);
    ctx.schedule_in(duration, move |c| {
        let OrchShard::Host { ran, busy, .. } = c.state() else {
            unreachable!("modules run on host shards")
        };
        *ran += 1;
        *busy += duration;
        c.transfer_retry(CONTROLLER, cfg.result_bytes, OrchShard::retry, move |ctrl, sent| {
            if sent.is_ok() {
                resolve(ctrl, pace, cfg);
            }
        });
    });
}

/// Controller: count the resolution (ack or abandoned dispatch); when
/// every host is accounted for, record the task and release the next.
fn resolve(ctx: &mut Ctx<'_, '_>, pace: Nanos, cfg: Arc<ShardedOrchestraConfig>) {
    let now = ctx.now();
    let OrchShard::Controller { resolved, task, task_finish, finish, .. } = ctx.state() else {
        unreachable!("resolutions land on the controller shard")
    };
    *resolved += 1;
    if *resolved < cfg.hosts {
        return;
    }
    task_finish.push(now);
    *task += 1;
    if *task == cfg.tasks {
        *finish = now;
        return;
    }
    ctx.schedule_in(Nanos::ZERO, move |c| dispatch_task(c, pace, cfg));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharded_world_matches_reference_at_every_worker_count() {
        let config = ShardedOrchestraConfig::default();
        let reference = run_sharded(&config, 1);
        assert_eq!(reference.task_finish.len(), config.tasks);
        assert!(reference.per_host_ran.iter().all(|r| *r == config.tasks));
        for workers in [2, 4, 8] {
            let parallel = run_sharded(&config, workers);
            assert_eq!(
                ShardedOrchestraReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn linear_strategy_orders_task_finishes() {
        let report = run_sharded(&ShardedOrchestraConfig::default(), 2);
        assert!(report.task_finish.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn every_task_round_trips_every_host() {
        let config = ShardedOrchestraConfig { hosts: 5, tasks: 7, ..Default::default() };
        let report = run_sharded(&config, 2);
        let rounds = (config.hosts * config.tasks) as u64;
        assert_eq!(report.traffic[CONTROLLER].tx_bytes, rounds * config.task_bytes);
        assert_eq!(report.traffic[CONTROLLER].rx_bytes, rounds * config.result_bytes);
        let host_tx: u64 = report.traffic[1..].iter().map(|t| t.tx_bytes).sum();
        assert_eq!(host_tx, rounds * config.result_bytes);
    }

    #[test]
    fn stragglers_gate_the_barrier() {
        // The linear barrier means every task takes at least the
        // slowest host's module time plus two fabric trips.
        let config = ShardedOrchestraConfig::default();
        let report = run_sharded(&config, 2);
        let floor = config.mean_task.scale(0.5) + config.latency + config.latency;
        let mut prev = Nanos::ZERO;
        for f in &report.task_finish {
            assert!(*f >= prev + floor);
            prev = *f;
        }
    }

    #[test]
    fn chaos_run_retries_rpcs_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = ShardedOrchestraConfig::default();
        // Crash host 3 mid-playbook and restart it: dispatches to it
        // and its acks retry with backoff; the schedule heals, so no
        // RPC is abandoned and every host runs every task.
        let timeline = vec![
            (Nanos::from_millis(1), PlaneCmd::Crash(3)),
            (Nanos::from_millis(6), PlaneCmd::Restart(3)),
        ];
        let reference = run_sharded_chaos(&config, 1, 13, timeline.clone());
        assert_eq!(reference.task_finish.len(), config.tasks);
        assert!(reference.per_host_ran.iter().all(|r| *r == config.tasks));
        assert!(reference.detections > 0, "the crash must be detected by RPC timeouts");
        assert!(reference.recovered > 0);
        assert_eq!(reference.lost, 0, "the schedule heals; no RPC may be abandoned");
        assert!(reference.recovery_ms > 0.0);
        assert!(reference.degraded_fraction > 0.0 && reference.degraded_fraction < 1.0);
        for workers in [2, 8] {
            let parallel = run_sharded_chaos(&config, workers, 13, timeline.clone());
            assert_eq!(
                ShardedOrchestraChaosReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chaos_run_with_empty_timeline_matches_the_healthy_world() {
        let config = ShardedOrchestraConfig::default();
        let healthy = run_sharded(&config, 2);
        let chaos = run_sharded_chaos(&config, 2, 1, Vec::new());
        assert_eq!(chaos.elapsed, healthy.elapsed);
        assert_eq!(chaos.task_finish, healthy.task_finish);
        assert_eq!(chaos.per_host_busy, healthy.per_host_busy);
        assert_eq!(chaos.traffic, healthy.traffic);
        assert_eq!(chaos.detections + chaos.recovered + chaos.lost, 0);
    }

    #[test]
    fn seeds_move_the_schedule_not_the_workload() {
        let a = run_sharded(&ShardedOrchestraConfig::default(), 2);
        let b = run_sharded(&ShardedOrchestraConfig { seed: 12, ..Default::default() }, 2);
        assert_ne!(a.task_finish, b.task_finish);
        assert_eq!(a.per_host_ran, b.per_host_ran);
        assert_eq!(
            a.traffic.iter().map(|t| t.tx_bytes).sum::<u64>(),
            b.traffic.iter().map(|t| t.tx_bytes).sum::<u64>()
        );
    }
}
