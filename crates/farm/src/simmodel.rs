//! A sharded discrete-event model of the farm: one shard per tenant
//! pipeline, plus a shard for the shared chunk store.
//!
//! The live farm (see [`service`](crate::service)) schedules real jobs
//! over OS threads; capacity questions — how many tenants fit a worker
//! pool, what a store slowdown does to tail latency — are answered
//! faster on a model. Each tenant's pipeline is an independent event
//! stream (jobs arrive, build, test, archive), which is exactly the
//! partition [`FabricSim`] wants: tenants only meet at the shared
//! store, and that interaction ships as archive transfers through the
//! shard-native fabric — paying egress serialization, shared-core
//! contention and the store's ingress incast — bounded by the
//! admission latency, so the model parallelizes with the same
//! byte-identical-trace guarantee as every other sharded workload.
//!
//! Job durations derive from a splitmix over `(seed, tenant, job)` —
//! the same deterministic-hash idiom the farm's chaos projection uses —
//! so the model is a pure function of its config at every worker count.

use popper_sim::{FabricSim, Nanos, NetCtx, PlaneCmd, RetryStats};
use std::sync::Arc;

/// Shard 0 is the store; tenant `t` (0-based) is shard `t + 1`.
const STORE: usize = 0;

/// Link speed of every endpoint's NIC. The store's shared ingress at
/// this rate is what turns a crowd of tenants into an incast.
const LINK_GBIT: f64 = 10.0;

/// Model configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmSimConfig {
    /// Independent tenant pipelines.
    pub tenants: usize,
    /// Jobs each tenant runs, back to back.
    pub jobs_per_tenant: usize,
    /// Seed for the per-job duration hash.
    pub seed: u64,
    /// Mean build+test duration per job.
    pub mean_job: Nanos,
    /// Store admission latency — also the conservative lookahead.
    pub store_latency: Nanos,
}

impl Default for FarmSimConfig {
    fn default() -> Self {
        FarmSimConfig {
            tenants: 8,
            jobs_per_tenant: 32,
            seed: 7,
            mean_job: Nanos::from_micros(500),
            store_latency: Nanos::from_micros(10),
        }
    }
}

/// What one shard models.
enum FarmShard {
    Store {
        jobs: u64,
        bytes: u64,
        last_arrival: Nanos,
        /// Archives that landed after one or more requeues.
        retry: RetryStats,
    },
    Tenant {
        id: usize,
        done: usize,
        finish: Nanos,
        /// Archive timeouts this tenant observed (requeues issued).
        retry: RetryStats,
    },
}

impl FarmShard {
    fn retry(&mut self) -> &mut RetryStats {
        match self {
            FarmShard::Store { retry, .. } | FarmShard::Tenant { retry, .. } => retry,
        }
    }
}

/// Result of a model run — identical for every worker count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FarmSimReport {
    /// Per-tenant pipeline completion times.
    pub tenant_finish: Vec<Nanos>,
    /// Jobs the store archived.
    pub store_jobs: u64,
    /// Bytes the store ingested.
    pub store_bytes: u64,
    /// Bytes on the wire (fabric traffic counters; equals
    /// `store_bytes` since archives are the only traffic and the
    /// model runs lossless).
    pub wire_bytes: u64,
    /// Virtual time the last archive landed.
    pub elapsed: Nanos,
    /// Total events dispatched.
    pub events: u64,
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// Hash key for job `(tenant, job)` under `seed`. The seed is pre-mixed
/// through splitmix before the counters are XORed in: a raw small seed
/// XOR a dense job range `0..n` merely permutes the same input set, so
/// any *sum* over a pipeline's jobs (e.g. its finish time) would come
/// out seed-invariant.
fn job_key(config: &FarmSimConfig, salt: u64, tenant: usize, job: usize) -> u64 {
    splitmix(splitmix(config.seed ^ salt) ^ ((tenant as u64) << 32) ^ job as u64)
}

/// Deterministic per-job duration: `0.5x .. 1.5x` of the mean.
fn job_duration(config: &FarmSimConfig, tenant: usize, job: usize) -> Nanos {
    let jitter = (job_key(config, 0, tenant, job) % 1000) as f64 / 1000.0; // [0, 1)
    config.mean_job.scale(0.5 + jitter)
}

/// Bytes a job archives: a small manifest plus a hash-sized payload.
fn job_bytes(config: &FarmSimConfig, tenant: usize, job: usize) -> u64 {
    4096 + job_key(config, 0xfa12, tenant, job) % 65536
}

/// Result of one chaos model run — identical at every worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct FarmChaosSimReport {
    /// Per-tenant pipeline completion times.
    pub tenant_finish: Vec<Nanos>,
    /// Jobs the store archived.
    pub store_jobs: u64,
    /// Bytes the store ingested.
    pub store_bytes: u64,
    /// Bytes on the wire (retransmit draws included).
    pub wire_bytes: u64,
    /// Virtual time the last event fired.
    pub elapsed: Nanos,
    /// Total events dispatched.
    pub events: u64,
    /// Epoch barriers the engine crossed.
    pub epochs: u64,
    /// Worker threads used.
    pub workers: usize,
    /// Jobs the pipelines ran (the archive workload size).
    pub jobs: u64,
    /// Archive timeouts observed (requeues issued).
    pub requeued: u64,
    /// Archives delivered after one or more requeues.
    pub recovered: u64,
    /// Archives abandoned after `MAX_ATTEMPTS` (expected 0 for every
    /// schedule that ends healed).
    pub lost: u64,
    /// First failure to last recovered archive, in milliseconds.
    pub recovery_ms: f64,
    /// Fraction of archives that saw any failure.
    pub degraded_fraction: f64,
}

/// Run the healthy model with `workers` threads (1 = single-threaded
/// reference): the chaos run with an empty timeline, projected onto
/// its fault-free fields. The report has no worker count, so it is
/// comparable across worker counts as is.
pub fn simulate(config: &FarmSimConfig, workers: usize) -> FarmSimReport {
    let run = simulate_chaos(config, workers, 0, Vec::new());
    FarmSimReport {
        tenant_finish: run.tenant_finish,
        store_jobs: run.store_jobs,
        store_bytes: run.store_bytes,
        wire_bytes: run.wire_bytes,
        elapsed: run.elapsed,
        events: run.events,
    }
}

/// Run the model under a scheduled-fault timeline (see
/// [`popper_sim::FabricSim::set_fault_timeline`]): faults land at
/// epoch barriers mid-run and tenants requeue failed archive uploads
/// with [`NetCtx::transfer_retry`] — the farm service's worker-crash
/// requeue, projected onto the store link. Pipelines never block on
/// the store: a requeue rides alongside the next job. An empty
/// timeline is the healthy model. Deterministic at every worker count.
pub fn simulate_chaos(
    config: &FarmSimConfig,
    workers: usize,
    seed: u64,
    timeline: Vec<(Nanos, PlaneCmd)>,
) -> FarmChaosSimReport {
    assert!(config.tenants >= 1 && config.jobs_per_tenant >= 1);
    let mut states =
        vec![FarmShard::Store { jobs: 0, bytes: 0, last_arrival: Nanos::ZERO, retry: RetryStats::default() }];
    states.extend((0..config.tenants).map(|id| FarmShard::Tenant {
        id,
        done: 0,
        finish: Nanos::ZERO,
        retry: RetryStats::default(),
    }));

    let mut sim = FabricSim::new(states, LINK_GBIT, config.store_latency, 1.0);
    let horizon = timeline.iter().map(|(at, _)| *at).max().unwrap_or(Nanos::ZERO);
    sim.set_fault_timeline(seed, timeline);
    // Gap between a pipeline's job start slots, so the workload spans
    // the schedule (1.25x its horizon).
    let pace = Nanos(horizon.0 * 5 / 4 / config.jobs_per_tenant as u64);
    let cfg = Arc::new(config.clone());
    for t in 0..config.tenants {
        let cfg = Arc::clone(&cfg);
        // Stagger arrivals so tenants are not artificially phase-locked.
        sim.schedule(t + 1, Nanos(t as u64), move |ctx| run_job(ctx, 0, pace, cfg));
    }
    let elapsed = sim.run_sharded(workers);

    let mut tenant_finish = vec![Nanos::ZERO; config.tenants];
    let (mut store_jobs, mut store_bytes) = (0, 0);
    for state in sim.states() {
        match state {
            FarmShard::Store { jobs, bytes, .. } => (store_jobs, store_bytes) = (*jobs, *bytes),
            FarmShard::Tenant { id, finish, .. } => tenant_finish[*id] = *finish,
        }
    }
    let retry = RetryStats::fold(sim.states().map(|s| match s {
        FarmShard::Store { retry, .. } | FarmShard::Tenant { retry, .. } => retry,
    }));
    let jobs = (config.tenants * config.jobs_per_tenant) as u64;
    FarmChaosSimReport {
        tenant_finish,
        store_jobs,
        store_bytes,
        wire_bytes: sim.total_bytes(),
        elapsed,
        events: sim.events_fired(),
        epochs: sim.epochs(),
        workers: workers.max(1),
        jobs,
        requeued: retry.detections,
        recovered: retry.recovered,
        lost: retry.lost,
        recovery_ms: retry.recovery_ms(),
        degraded_fraction: retry.degraded as f64 / jobs.max(1) as f64,
    }
}

/// One job, started no earlier than its pacing slot: build+test for the
/// hashed duration, then fire the archive into the fabric and start the
/// next job. Archives are asynchronous — the pipeline does not wait for
/// the store, so tenant finish times stay independent of store-side
/// contention. A store timeout requeues the archive with backoff — the
/// same recovery the live farm applies when a worker crashes with jobs
/// in flight.
fn run_job(ctx: &mut NetCtx<'_, '_, FarmShard>, job: usize, pace: Nanos, cfg: Arc<FarmSimConfig>) {
    let FarmShard::Tenant { id, .. } = ctx.state() else {
        unreachable!("jobs run on tenant shards")
    };
    let tenant = *id;
    let duration = job_duration(&cfg, tenant, job);
    let start = (pace * job as u64).max(ctx.now());
    ctx.schedule_at(start + duration, move |c| {
        let bytes = job_bytes(&cfg, tenant, job);
        c.transfer_retry(STORE, bytes, FarmShard::retry, move |store, sent| {
            if sent.is_err() {
                return;
            }
            let now = store.now();
            let FarmShard::Store { jobs, bytes: total, last_arrival, .. } = store.state() else {
                unreachable!("shard 0 is the store")
            };
            *jobs += 1;
            *total += bytes;
            *last_arrival = now;
        });
        let now = c.now();
        let FarmShard::Tenant { done, finish, .. } = c.state() else { unreachable!() };
        *done = job + 1;
        if job + 1 == cfg.jobs_per_tenant {
            *finish = now;
        } else {
            run_job(c, job + 1, pace, cfg);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    #[test]
    fn model_is_identical_at_every_worker_count() {
        let config = FarmSimConfig { tenants: 6, jobs_per_tenant: 20, ..Default::default() };
        let reference = simulate(&config, 1);
        assert_eq!(reference.store_jobs, 6 * 20);
        assert!(reference.store_bytes > 0);
        assert_eq!(reference.wire_bytes, reference.store_bytes);
        assert_eq!(reference.tenant_finish.len(), 6);
        assert!(reference.tenant_finish.iter().all(|f| *f > Nanos::ZERO));
        for workers in [2, 4, 8] {
            assert_eq!(simulate(&config, workers), reference, "workers={workers}");
        }
    }

    #[test]
    fn chaos_model_requeues_archives_and_stays_deterministic() {
        use popper_sim::PlaneCmd;
        let config = FarmSimConfig { tenants: 6, jobs_per_tenant: 24, ..Default::default() };
        // Crash the store mid-run and restart it: every in-flight
        // archive requeues with backoff until the restart crosses a
        // barrier. The schedule heals, so nothing is abandoned.
        let timeline = vec![
            (Nanos::from_millis(4), PlaneCmd::Crash(STORE)),
            (Nanos::from_millis(11), PlaneCmd::Restart(STORE)),
        ];
        let reference = simulate_chaos(&config, 1, 17, timeline.clone());
        assert_eq!(reference.store_jobs, reference.jobs, "the schedule heals; every archive lands");
        assert_eq!(reference.lost, 0);
        assert!(reference.requeued > 0, "the store crash must force requeues");
        assert!(reference.recovered > 0);
        assert!(reference.recovery_ms > 0.0);
        assert!(reference.degraded_fraction > 0.0 && reference.degraded_fraction < 1.0);
        for workers in [2, 8] {
            let parallel = simulate_chaos(&config, workers, 17, timeline.clone());
            assert_eq!(
                FarmChaosSimReport { workers: 1, ..parallel },
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn chaos_model_with_empty_timeline_matches_the_healthy_model() {
        let config = FarmSimConfig::default();
        let healthy = simulate(&config, 2);
        let chaos = simulate_chaos(&config, 2, 1, Vec::new());
        assert_eq!(chaos.tenant_finish, healthy.tenant_finish);
        assert_eq!(chaos.store_jobs, healthy.store_jobs);
        assert_eq!(chaos.store_bytes, healthy.store_bytes);
        assert_eq!(chaos.wire_bytes, healthy.wire_bytes);
        assert_eq!(chaos.requeued + chaos.recovered + chaos.lost, 0);
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let a = simulate(&FarmSimConfig::default(), 2);
        let b = simulate(&FarmSimConfig { seed: 8, ..Default::default() }, 2);
        assert_ne!(a.tenant_finish, b.tenant_finish);
        assert_eq!(a.store_jobs, b.store_jobs, "workload size is seed-independent");
    }

    #[test]
    fn tenants_are_independent_until_the_store() {
        // A lone tenant's finish time does not change when other
        // tenants are added: pipelines only share the store, archives
        // are fire-and-forget, and the contention they meet lives in
        // the fabric's shared core and the store's ingress — after the
        // tenant has already moved on.
        let solo = simulate(&FarmSimConfig { tenants: 1, ..Default::default() }, 1);
        let crowd = simulate(&FarmSimConfig { tenants: 8, ..Default::default() }, 2);
        assert_eq!(solo.tenant_finish[0], crowd.tenant_finish[0]);
    }

    #[test]
    fn store_incast_delays_delivery_not_pipelines() {
        // More tenants pushing into one store stretches the gap
        // between a pipeline's finish and its last archive landing.
        let solo = simulate(&FarmSimConfig { tenants: 1, ..Default::default() }, 1);
        let crowd = simulate(&FarmSimConfig { tenants: 8, ..Default::default() }, 2);
        let solo_lag = solo.elapsed - solo.tenant_finish[0];
        let crowd_last = crowd.tenant_finish.iter().max().copied().unwrap();
        let crowd_lag = crowd.elapsed - crowd_last;
        assert!(crowd_lag >= solo_lag);
    }
}
