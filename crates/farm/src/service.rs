//! The farm itself: tenants, workers, the shared store, and reports.
//!
//! A [`Farm`] multiplexes many tenants' Popper pipelines over one
//! worker pool:
//!
//! * **Admission** goes through the DRR scheduler's bounded per-tenant
//!   queues; a full queue rejects with a retry-after hint
//!   ([`SubmitError::QueueFull`]) instead of queueing without bound.
//! * **Execution** locks the tenant's repo, attaches a popper-memo
//!   session, and runs the standard five-stage lifecycle — a repeated
//!   submission of an unchanged experiment replays from cache.
//! * **Archival** ingests each job's result artifacts into one chunk
//!   store shared by all tenants (identical artifacts dedup across
//!   tenants) and commits the resulting manifests back into tenant
//!   repos in batches, amortizing commit overhead.
//! * **Chaos** (optional) crashes workers mid-job per the projected
//!   [`FarmChaos`]; crashed jobs re-enter at the head of their queue
//!   with their attempt count bumped. The crash cap sits strictly below
//!   the retry budget, so no job is ever lost — and the report counts
//!   `lost` jobs so an Aver gate can check it rather than trust it.
//!
//! Scheduler state lives behind one `Mutex` + `Condvar`; everything
//! heavier — repos, store, records — has its own lock so workers
//! serialize only where they actually share data. Every lock is taken
//! poison-tolerantly: a worker that panicked mid-job must not take the
//! whole farm down with it.

use crate::chaos::FarmChaos;
use crate::events::{canonical_log, JobOutcome, JobRecord};
use crate::http::{FarmServer, FarmView};
use crate::queue::{DrrScheduler, QueuedJob};
use popper_chaos::FaultSchedule;
use popper_ci::history::BuildHistory;
use popper_core::templates::find_template;
use popper_core::{ExperimentEngine, Lifecycle, PopperRepo, RunContext};
use popper_format::sync::{lock, wait};
use popper_format::{Table, Value};
use popper_store::ChunkStore;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Farm sizing and policy knobs.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker threads draining the shared queue.
    pub workers: usize,
    /// Per-tenant queue capacity (admission bound).
    pub queue_capacity: usize,
    /// DRR quantum, in cost units granted per visit.
    pub quantum: u64,
    /// Dispatch attempts per job (1 = no retries).
    pub max_attempts: u32,
    /// Artifacts buffered before a batched store ingest + commit.
    pub commit_batch: usize,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig { workers: 2, queue_capacity: 64, quantum: 2, max_attempts: 3, commit_batch: 8 }
    }
}

/// Handle for a submitted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobId {
    /// Tenant the job belongs to.
    pub tenant: String,
    /// Per-tenant sequence number (1-based).
    pub seq: u64,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The tenant's queue is at capacity; try again after the hint.
    QueueFull {
        /// Current queue depth (== capacity).
        depth: usize,
        /// Suggested back-off before resubmitting, in milliseconds.
        retry_after_ms: u64,
    },
    /// No tenant registered under that name.
    UnknownTenant(String),
    /// The farm is shutting down.
    ShuttingDown,
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::QueueFull { depth, retry_after_ms } => {
                write!(f, "queue full ({depth} deep); retry after {retry_after_ms}ms")
            }
            SubmitError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            SubmitError::ShuttingDown => write!(f, "farm is shutting down"),
        }
    }
}

/// One tenant: a popper-vcs repo, its build history, counters.
struct TenantState {
    name: String,
    repo: Mutex<PopperRepo>,
    history: Mutex<BuildHistory>,
    passed: AtomicU64,
    failed: AtomicU64,
}

/// Scheduler state guarded by the condvar'd mutex.
struct Sched {
    drr: DrrScheduler,
    /// Next sequence number per tenant (assigned at admission).
    next_seq: Vec<u64>,
    in_flight: usize,
    stop: bool,
}

/// An artifact awaiting the next batched store ingest.
struct PendingArtifact {
    tenant: usize,
    manifest_path: String,
    bytes: Vec<u8>,
}

struct FarmInner {
    config: FarmConfig,
    engine: Arc<ExperimentEngine>,
    tenants: Vec<TenantState>,
    sched: Mutex<Sched>,
    cv: Condvar,
    store: Mutex<ChunkStore>,
    pending: Mutex<Vec<PendingArtifact>>,
    records: Mutex<BTreeMap<(usize, u64), JobRecord>>,
    chaos: Option<FarmChaos>,
    seed: u64,
    schedule_name: String,
    epoch: Instant,
}

/// Builds a [`Farm`]: engine, config, tenants, optional chaos.
pub struct FarmBuilder {
    config: FarmConfig,
    engine: Arc<ExperimentEngine>,
    chaos: Option<FaultSchedule>,
    tenants: Vec<(String, PopperRepo)>,
}

impl FarmBuilder {
    /// A builder over the given engine (shared by all workers).
    pub fn new(engine: Arc<ExperimentEngine>) -> FarmBuilder {
        FarmBuilder { config: FarmConfig::default(), engine, chaos: None, tenants: Vec::new() }
    }

    /// Replace the sizing/policy knobs.
    pub fn config(mut self, config: FarmConfig) -> FarmBuilder {
        self.config = config;
        self
    }

    /// Turn chaos on: `schedule` is projected onto the worker pool and
    /// store (see [`FarmChaos::project`]).
    pub fn chaos(mut self, schedule: FaultSchedule) -> FarmBuilder {
        self.chaos = Some(schedule);
        self
    }

    /// Register a tenant seeded from an experiment template (the same
    /// templates `popper add` uses).
    pub fn tenant(mut self, name: &str, template: &str, experiment: &str) -> Result<FarmBuilder, String> {
        let tpl = find_template(template).ok_or_else(|| format!("unknown template '{template}'"))?;
        let mut repo = PopperRepo::init(name).map_err(|e| e.to_string())?;
        for (path, contents) in tpl.files(experiment) {
            repo.write(&path, contents).map_err(|e| e.to_string())?;
        }
        repo.commit(&format!("popper add {template} {experiment}")).map_err(|e| e.to_string())?;
        self.tenants.push((name.to_string(), repo));
        Ok(self)
    }

    /// Register a tenant around an existing repo (e.g. a clone of the
    /// repo `popper farm submit` runs in).
    pub fn tenant_repo(mut self, name: &str, repo: PopperRepo) -> FarmBuilder {
        self.tenants.push((name.to_string(), repo));
        self
    }

    /// Spawn the workers and return the running farm.
    pub fn build(self) -> Result<Farm, String> {
        if self.tenants.is_empty() {
            return Err("a farm needs at least one tenant".into());
        }
        let n = self.tenants.len();
        let chaos = self.chaos.as_ref().map(|s| FarmChaos::project(s, self.config.max_attempts));
        let inner = Arc::new(FarmInner {
            sched: Mutex::new(Sched {
                drr: DrrScheduler::new(n, self.config.quantum, self.config.queue_capacity),
                next_seq: vec![0; n],
                in_flight: 0,
                stop: false,
            }),
            cv: Condvar::new(),
            tenants: self
                .tenants
                .into_iter()
                .map(|(name, repo)| TenantState {
                    name,
                    repo: Mutex::new(repo),
                    history: Mutex::new(BuildHistory::new()),
                    passed: AtomicU64::new(0),
                    failed: AtomicU64::new(0),
                })
                .collect(),
            store: Mutex::new(ChunkStore::new()),
            pending: Mutex::new(Vec::new()),
            records: Mutex::new(BTreeMap::new()),
            seed: self.chaos.as_ref().map(|s| s.seed).unwrap_or(0),
            schedule_name: self
                .chaos
                .as_ref()
                .map(|s| s.name.clone())
                .unwrap_or_else(|| "none".to_string()),
            chaos,
            engine: self.engine,
            config: self.config,
            epoch: Instant::now(),
        });
        let workers = (0..inner.config.workers.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("farm-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Farm { inner, workers })
    }
}

/// Per-tenant summary in the final report.
#[derive(Debug, Clone)]
pub struct TenantSummary {
    /// Tenant name.
    pub name: String,
    /// Jobs that ran and passed.
    pub passed: u64,
    /// Jobs that ran and failed their pipeline.
    pub failed: u64,
    /// Total worker crashes survived by this tenant's jobs.
    pub crashes: u64,
    /// Mean queue wait across the tenant's builds, ms.
    pub mean_queue_wait_ms: f64,
}

/// What a farm did over its lifetime.
#[derive(Debug, Clone)]
pub struct FarmReport {
    /// Per-tenant completion summary.
    pub tenants: Vec<TenantSummary>,
    /// Jobs admitted.
    pub submitted: u64,
    /// Jobs that reached a terminal outcome.
    pub completed: u64,
    /// Admitted jobs with no terminal outcome — must be zero.
    pub lost: u64,
    /// Worker crashes injected (and survived) across all jobs.
    pub crashes: u64,
    /// The canonical event log (see [`crate::events::canonical_log`]).
    pub event_log: String,
    /// Shared-store dedup ratio (ingested/stored).
    pub dedup_ratio: f64,
}

impl fmt::Display for FarmReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "farm: {} submitted, {} completed, {} lost, {} crash(es), dedup {:.2}x",
            self.submitted, self.completed, self.lost, self.crashes, self.dedup_ratio
        )?;
        for t in &self.tenants {
            writeln!(
                f,
                "  {:<12} {} passed / {} failed, {} crash(es), mean wait {:.1}ms",
                t.name, t.passed, t.failed, t.crashes, t.mean_queue_wait_ms
            )?;
        }
        Ok(())
    }
}

/// A running multi-tenant CI farm.
pub struct Farm {
    inner: Arc<FarmInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Farm {
    /// Submit one run of `experiment` for `tenant`. Returns the job id,
    /// or a rejection (full queue, unknown tenant, shutdown).
    pub fn submit(&self, tenant: &str, experiment: &str) -> Result<JobId, SubmitError> {
        let inner = &self.inner;
        let idx = inner
            .tenants
            .iter()
            .position(|t| t.name == tenant)
            .ok_or_else(|| SubmitError::UnknownTenant(tenant.to_string()))?;
        let mut sched = lock(&inner.sched);
        if sched.stop {
            return Err(SubmitError::ShuttingDown);
        }
        let seq = sched.next_seq[idx] + 1;
        let job = QueuedJob {
            tenant: idx,
            seq,
            experiment: experiment.to_string(),
            cost: 1,
            attempt: 0,
            enqueued: Instant::now(),
            queue_wait_ms: None,
        };
        if let Err(depth) = sched.drr.enqueue(job) {
            // Back-off hint: the backlog ahead of a resubmission, at a
            // nominal per-job cost. Deliberately coarse — the point is
            // a bounded, monotone signal, not a latency oracle.
            let backlog = (sched.drr.total_depth() + sched.in_flight) as u64;
            return Err(SubmitError::QueueFull {
                depth,
                retry_after_ms: (backlog * 20).max(1),
            });
        }
        sched.next_seq[idx] = seq;
        // Insert the record BEFORE releasing the scheduler lock: workers
        // need that lock to pop, so the record provably exists by the
        // time the first dispatch tries to annotate it. (Inserting after
        // the drop loses events under load.)
        lock(&inner.records).insert((idx, seq), JobRecord::new(tenant, seq, experiment));
        drop(sched);
        inner.cv.notify_one();
        Ok(JobId { tenant: tenant.to_string(), seq })
    }

    /// Block until every admitted job has reached a terminal outcome.
    pub fn drain(&self) {
        let mut sched = lock(&self.inner.sched);
        while !(sched.drr.is_empty() && sched.in_flight == 0) {
            sched = wait(&self.inner.cv, sched);
        }
    }

    /// Drain, stop the workers, flush the artifact batch, and report.
    pub fn shutdown(mut self) -> FarmReport {
        self.drain();
        {
            let mut sched = lock(&self.inner.sched);
            sched.stop = true;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        flush_pending(&self.inner);
        self.report()
    }

    /// The canonical, deterministic farm event log.
    pub fn event_log(&self) -> String {
        let records: Vec<JobRecord> = lock(&self.inner.records).values().cloned().collect();
        canonical_log(self.inner.seed, &self.inner.schedule_name, &records)
    }

    /// The dispatch order so far, as (tenant index, seq).
    pub fn dispatch_log(&self) -> Vec<(usize, u64)> {
        lock(&self.inner.sched).drr.dispatch_log().to_vec()
    }

    /// Shared-store statistics.
    pub fn store_stats(&self) -> popper_store::StoreStats {
        lock(&self.inner.store).stats()
    }

    /// A snapshot of one tenant's build history (badges, provenance).
    #[cfg(test)]
    fn tenant_history(&self, tenant: &str) -> Option<BuildHistory> {
        let t = self.inner.tenants.iter().find(|t| t.name == tenant)?;
        Some(lock(&t.history).clone())
    }

    /// A snapshot of every job record (the HTTP layer renders these).
    pub fn job_records(&self) -> Vec<JobRecord> {
        lock(&self.inner.records).values().cloned().collect()
    }

    /// Completed-jobs-per-tenant, for fairness checks.
    pub fn completed_per_tenant(&self) -> Vec<(String, u64)> {
        self.inner
            .tenants
            .iter()
            .map(|t| {
                (
                    t.name.clone(),
                    t.passed.load(Ordering::Relaxed) + t.failed.load(Ordering::Relaxed),
                )
            })
            .collect()
    }

    /// The farm status document (what `/status` serves).
    pub fn status(&self) -> Value {
        self.inner.status_value()
    }

    /// Start the status/badge HTTP endpoint on `addr` (use port 0 to
    /// let the OS pick; the returned server knows the real address).
    pub fn serve(&self, addr: &str) -> Result<FarmServer, String> {
        FarmServer::start(Arc::clone(&self.inner) as Arc<dyn FarmView>, addr)
    }

    /// Per-job results as a table Aver gates can run over: columns
    /// `tenant, seq, attempts, retries, crashes, lost, queue_wait_ms,
    /// passed`.
    pub fn results_table(&self) -> Table {
        let mut t = Table::new([
            "tenant",
            "seq",
            "attempts",
            "retries",
            "crashes",
            "lost",
            "queue_wait_ms",
            "passed",
        ]);
        for r in lock(&self.inner.records).values() {
            let lost = matches!(r.outcome, JobOutcome::Pending) as i64;
            t.push_record(&[
                ("tenant", Value::from(r.tenant.as_str())),
                ("seq", Value::from(r.seq as i64)),
                ("attempts", Value::from(r.attempts as i64)),
                ("retries", Value::from(r.attempts.saturating_sub(1) as i64)),
                ("crashes", Value::from(r.crashes as i64)),
                ("lost", Value::from(lost)),
                ("queue_wait_ms", Value::from(r.queue_wait_ms as i64)),
                ("passed", Value::from(matches!(r.outcome, JobOutcome::Passed) as i64)),
            ])
            .expect("fixed schema");
        }
        t
    }

    /// Build the final report (also what [`Farm::shutdown`] returns).
    pub fn report(&self) -> FarmReport {
        let inner = &self.inner;
        let records = lock(&inner.records);
        let submitted = records.len() as u64;
        let completed =
            records.values().filter(|r| !matches!(r.outcome, JobOutcome::Pending)).count() as u64;
        let crashes: u64 = records.values().map(|r| r.crashes as u64).sum();
        let tenants = inner
            .tenants
            .iter()
            .map(|t| {
                let history = lock(&t.history);
                TenantSummary {
                    name: t.name.clone(),
                    passed: t.passed.load(Ordering::Relaxed),
                    failed: t.failed.load(Ordering::Relaxed),
                    crashes: records
                        .values()
                        .filter(|r| r.tenant == t.name)
                        .map(|r| r.crashes as u64)
                        .sum(),
                    mean_queue_wait_ms: history.mean_queue_wait_ms(),
                }
            })
            .collect();
        let event_log = {
            let rs: Vec<JobRecord> = records.values().cloned().collect();
            canonical_log(inner.seed, &inner.schedule_name, &rs)
        };
        FarmReport {
            tenants,
            submitted,
            completed,
            lost: submitted - completed,
            crashes,
            event_log,
            dedup_ratio: lock(&inner.store).stats().dedup_ratio(),
        }
    }
}

impl FarmInner {
    fn status_value(&self) -> Value {
        let (depths, in_flight) = {
            let sched = lock(&self.sched);
            let d: Vec<usize> = (0..self.tenants.len()).map(|i| sched.drr.depth(i)).collect();
            (d, sched.in_flight)
        };
        let mut tenants = Value::empty_map();
        for (i, t) in self.tenants.iter().enumerate() {
            let history = lock(&t.history);
            let mut doc = Value::empty_map();
            doc.insert("queued", Value::from(depths[i] as i64));
            doc.insert("passed", Value::from(t.passed.load(Ordering::Relaxed) as i64));
            doc.insert("failed", Value::from(t.failed.load(Ordering::Relaxed) as i64));
            doc.insert("pass_rate", Value::Num(history.pass_rate()));
            doc.insert("mean_queue_wait_ms", Value::Num(history.mean_queue_wait_ms()));
            doc.insert("retries", Value::from(history.total_retries() as i64));
            tenants.insert(&t.name, doc);
        }
        let stats = lock(&self.store).stats();
        let mut store = Value::empty_map();
        store.insert("unique_chunks", Value::from(stats.unique_chunks as i64));
        store.insert("stored_bytes", Value::from(stats.stored_bytes as i64));
        store.insert("ingested_bytes", Value::from(stats.ingested_bytes as i64));
        store.insert("dedup_ratio", Value::Num(stats.dedup_ratio()));
        let mut doc = Value::empty_map();
        doc.insert("service", Value::from("popper-farm"));
        doc.insert("workers", Value::from(self.config.workers as i64));
        doc.insert("in_flight", Value::from(in_flight as i64));
        doc.insert("chaos", Value::from(self.schedule_name.as_str()));
        doc.insert("tenants", tenants);
        doc.insert("store", store);
        doc
    }

    fn tenant_index(&self, tenant: &str) -> Option<usize> {
        self.tenants.iter().position(|t| t.name == tenant)
    }
}

impl FarmView for FarmInner {
    fn status_json(&self) -> String {
        popper_format::json::to_string_pretty(&self.status_value()) + "\n"
    }

    fn overall_passing(&self) -> Option<bool> {
        let mut any = false;
        let mut all = true;
        for t in &self.tenants {
            if let Some(passed) = lock(&t.history).latest().map(|r| r.passed) {
                any = true;
                all &= passed;
            }
        }
        any.then_some(all)
    }

    fn tenant_passing(&self, tenant: &str) -> Option<Option<bool>> {
        let i = self.tenant_index(tenant)?;
        Some(lock(&self.tenants[i].history).latest().map(|r| r.passed))
    }

    fn tenant_builds_json(&self, tenant: &str) -> Option<String> {
        let i = self.tenant_index(tenant)?;
        let history = lock(&self.tenants[i].history);
        let builds: Vec<Value> = history
            .records()
            .iter()
            .map(|r| {
                let mut b = Value::empty_map();
                b.insert("number", Value::from(r.number as i64));
                b.insert("commit", Value::from(r.commit.as_str()));
                b.insert("passed", Value::from(r.passed));
                b.insert("queue_wait_ms", Value::from(r.queue_wait_ms as i64));
                b.insert("retries", Value::from(r.retries as i64));
                b
            })
            .collect();
        let mut doc = Value::empty_map();
        doc.insert("tenant", Value::from(tenant));
        doc.insert("builds", Value::List(builds));
        Some(popper_format::json::to_string_pretty(&doc) + "\n")
    }

    fn tenant_timeline_svg(&self, tenant: &str) -> Option<String> {
        self.tenant_index(tenant)?;
        // Synthesize one span per completed job from the record
        // timings; the farm's epoch is time zero.
        let track = popper_trace::Label::from(format!("{tenant}/jobs"));
        let events: Vec<popper_trace::TraceEvent> = lock(&self.records)
            .values()
            .filter(|r| r.tenant == tenant && !matches!(r.outcome, JobOutcome::Pending))
            .map(|r| popper_trace::TraceEvent {
                name: format!("{} #{} ({})", r.experiment, r.seq, r.outcome.label()).into(),
                category: "farm",
                track: track.clone(),
                kind: popper_trace::EventKind::Span {
                    start_ns: r.started_ms * 1_000_000,
                    end_ns: r.ended_ms.max(r.started_ms + 1) * 1_000_000,
                },
                id: popper_trace::SpanId(r.seq),
                parent: popper_trace::SpanId::NONE,
            })
            .collect();
        Some(popper_trace::timeline_svg_filtered(&events, tenant))
    }
}

impl Drop for Farm {
    fn drop(&mut self) {
        {
            let mut sched = lock(&self.inner.sched);
            sched.stop = true;
        }
        self.inner.cv.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(inner: &Arc<FarmInner>) {
    loop {
        let mut job = {
            let mut sched = lock(&inner.sched);
            loop {
                if sched.stop {
                    return;
                }
                if let Some(job) = sched.drr.pop() {
                    sched.in_flight += 1;
                    break job;
                }
                sched = wait(&inner.cv, sched);
            }
        };

        let tenant = &inner.tenants[job.tenant];
        let now_ms = inner.epoch.elapsed().as_millis() as u64;
        if job.queue_wait_ms.is_none() {
            job.queue_wait_ms = Some(job.enqueued.elapsed().as_millis() as u64);
            with_record(inner, &job, |r| {
                r.queue_wait_ms = job.queue_wait_ms.unwrap_or(0);
                r.started_ms = now_ms;
            });
        }
        with_record(inner, &job, |r| r.events.push("dispatch".into()));

        // Chaos: does this attempt's worker crash before committing
        // anything? The crash leaves no partial state — the job simply
        // re-enters at the head of its queue with the attempt bumped.
        let crashes = inner
            .chaos
            .as_ref()
            .map(|c| c.crashes_for(&tenant.name, job.seq))
            .unwrap_or(0);
        if job.attempt < crashes {
            job.attempt += 1;
            with_record(inner, &job, |r| {
                r.events.push("crash".into());
                r.crashes += 1;
            });
            let mut sched = lock(&inner.sched);
            sched.drr.requeue_front(job);
            sched.in_flight -= 1;
            drop(sched);
            inner.cv.notify_all();
            continue;
        }

        // The surviving attempt: run the lifecycle against the tenant's
        // repo, riding the memo cache when it is enabled.
        let attempt = job.attempt + 1;
        let outcome = run_job(inner, job.tenant, &job.experiment, attempt, &job);
        let passed = matches!(outcome, JobOutcome::Passed);
        if passed {
            tenant.passed.fetch_add(1, Ordering::Relaxed);
        } else {
            tenant.failed.fetch_add(1, Ordering::Relaxed);
        }
        let ended_ms = inner.epoch.elapsed().as_millis() as u64;
        with_record(inner, &job, |r| {
            r.attempts = attempt;
            r.outcome = outcome;
            r.ended_ms = ended_ms;
            r.events.push(if passed { "done".into() } else { "failed".into() });
        });

        let mut sched = lock(&inner.sched);
        sched.in_flight -= 1;
        drop(sched);
        inner.cv.notify_all();
    }
}

fn with_record(inner: &FarmInner, job: &QueuedJob, f: impl FnOnce(&mut JobRecord)) {
    if let Some(r) = lock(&inner.records).get_mut(&(job.tenant, job.seq)) {
        f(r);
    }
}

/// Run the pipeline for one attempt and archive its artifacts.
fn run_job(
    inner: &FarmInner,
    tenant_idx: usize,
    experiment: &str,
    attempt: u32,
    job: &QueuedJob,
) -> JobOutcome {
    let tenant = &inner.tenants[tenant_idx];
    let mut repo = lock(&tenant.repo);
    let run = inner.engine.run_lifecycle(&mut repo, experiment, &Lifecycle::Run, true);
    let ctx = run.as_ref().map(|finished| &finished.ctx);
    let passed = ctx.is_ok_and(RunContext::success);
    if let Some(stats) = ctx.ok().and_then(RunContext::memo_stats) {
        let (hits, misses) = (stats.hits() as u64, stats.misses() as u64);
        with_record(inner, job, |r| {
            r.memo_hits = hits;
            r.memo_misses = misses;
        });
    }
    let commit = ctx.ok().and_then(|c| c.commit).map(|c| c.short()).unwrap_or_else(|| "worktree".to_string());

    // Archive result artifacts into the shared store: buffer now, batch
    // later. Manifests land under farm/ in the tenant repo.
    if run.is_ok() {
        let mut pending = lock(&inner.pending);
        for artifact in ["results.csv", "figure.txt"] {
            let path = format!("experiments/{experiment}/{artifact}");
            if let Some(bytes) = repo.vcs.read_file(&path) {
                pending.push(PendingArtifact {
                    tenant: tenant_idx,
                    manifest_path: format!("farm/{experiment}-{artifact}.manifest"),
                    bytes: bytes.to_vec(),
                });
            }
        }
        let full = pending.len() >= inner.config.commit_batch;
        drop(pending);
        drop(repo); // flush takes tenant repo locks itself
        if full {
            flush_pending(inner);
        }
    } else {
        drop(repo);
    }

    lock(&tenant.history).record_outcome(
        &commit,
        passed,
        job.queue_wait_ms.unwrap_or(0),
        attempt.saturating_sub(1),
    );
    if passed {
        JobOutcome::Passed
    } else {
        JobOutcome::Failed
    }
}

/// Ingest every buffered artifact into the shared store in one batch
/// and commit the manifests into their tenant repos, one commit per
/// tenant per flush.
fn flush_pending(inner: &FarmInner) {
    let batch: Vec<PendingArtifact> = {
        let mut pending = lock(&inner.pending);
        std::mem::take(&mut *pending)
    };
    if batch.is_empty() {
        return;
    }
    let manifests = {
        let mut store = lock(&inner.store);
        if let Some(chaos) = &inner.chaos {
            let delay = chaos.store_delay();
            if !delay.is_zero() {
                std::thread::sleep(delay);
            }
        }
        store.put_batch(batch.iter().map(|a| a.bytes.as_slice()))
    };
    let mut per_tenant: BTreeMap<usize, Vec<(String, Vec<u8>)>> = BTreeMap::new();
    for (artifact, manifest) in batch.iter().zip(manifests) {
        per_tenant
            .entry(artifact.tenant)
            .or_default()
            .push((artifact.manifest_path.clone(), manifest.to_text().into_bytes()));
    }
    for (tenant_idx, files) in per_tenant {
        let tenant = &inner.tenants[tenant_idx];
        let mut repo = lock(&tenant.repo);
        let count = files.len();
        if repo.vcs.write_files(files).is_ok() {
            let _ = repo.commit(&format!("farm: archive {count} artifact manifest(s)"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_farm(tenants: usize, chaos: Option<FaultSchedule>) -> Farm {
        let mut b = FarmBuilder::new(Arc::new(ExperimentEngine::new())).config(FarmConfig {
            workers: 2,
            queue_capacity: 32,
            quantum: 2,
            max_attempts: 3,
            commit_batch: 4,
        });
        if let Some(s) = chaos {
            b = b.chaos(s);
        }
        for i in 0..tenants {
            b = b.tenant(&format!("tenant-{i}"), "ceph-rados", "exp").unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn jobs_run_and_are_recorded() {
        let farm = small_farm(2, None);
        for _ in 0..3 {
            farm.submit("tenant-0", "exp").unwrap();
            farm.submit("tenant-1", "exp").unwrap();
        }
        assert!(matches!(
            farm.submit("nope", "exp"),
            Err(SubmitError::UnknownTenant(_))
        ));
        let report = farm.shutdown();
        assert_eq!(report.submitted, 6);
        assert_eq!(report.completed, 6);
        assert_eq!(report.lost, 0);
        for t in &report.tenants {
            assert_eq!(t.passed, 3, "{report}");
        }
        // Identical artifacts across tenants dedup in the shared store.
        assert!(report.dedup_ratio > 1.0, "dedup {:.2}", report.dedup_ratio);
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        let mut b = FarmBuilder::new(Arc::new(ExperimentEngine::new())).config(FarmConfig {
            workers: 1,
            queue_capacity: 2,
            quantum: 1,
            max_attempts: 1,
            commit_batch: 64,
        });
        b = b.tenant("t", "ceph-rados", "exp").unwrap();
        let farm = b.build().unwrap();
        // Saturate: with capacity 2 a burst of 12 must hit the bound.
        let mut rejected = None;
        for _ in 0..12 {
            if let Err(e) = farm.submit("t", "exp") {
                rejected = Some(e);
                break;
            }
        }
        match rejected {
            Some(SubmitError::QueueFull { depth, retry_after_ms }) => {
                assert_eq!(depth, 2);
                assert!(retry_after_ms >= 1);
            }
            other => panic!("expected QueueFull, got {other:?}"),
        }
        farm.shutdown();
    }

    #[test]
    fn tenant_repos_accumulate_manifests() {
        let farm = small_farm(1, None);
        for _ in 0..4 {
            farm.submit("tenant-0", "exp").unwrap();
        }
        farm.drain();
        let history = farm.tenant_history("tenant-0").unwrap();
        assert_eq!(history.records().len(), 4);
        let report = farm.shutdown();
        assert_eq!(report.lost, 0);
    }
}
