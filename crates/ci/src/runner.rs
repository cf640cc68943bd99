//! The pipeline runner.

use crate::config::{Job, PipelineConfig};
use crossbeam::channel;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// What a step sees when it runs.
#[derive(Debug, Clone)]
pub struct StepCtx {
    /// The step command string from the config.
    pub command: String,
    /// Job environment (config env + matrix combo).
    pub env: BTreeMap<String, String>,
    /// Job name (for logs).
    pub job: String,
}

/// What a step returns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StepOutcome {
    /// Success?
    pub success: bool,
    /// Log text appended to the job log.
    pub log: String,
}

impl StepOutcome {
    /// A passing step with a log line.
    pub fn pass(log: impl Into<String>) -> Self {
        StepOutcome { success: true, log: log.into() }
    }

    /// A failing step with a log line.
    pub fn fail(log: impl Into<String>) -> Self {
        StepOutcome { success: false, log: log.into() }
    }
}

/// Step semantics are supplied by the embedder.
pub type Executor = Arc<dyn Fn(&StepCtx) -> StepOutcome + Send + Sync>;

/// Final state of one job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// All steps passed.
    Passed,
    /// A step failed.
    Failed,
    /// A step failed but the job allows failure.
    SoftFailed,
    /// The job's stage never ran (an earlier stage failed).
    Canceled,
}

/// The record of one job run.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Job name (matrix-expanded).
    pub name: String,
    /// Stage name.
    pub stage: String,
    /// Final status.
    pub status: JobStatus,
    /// Concatenated step logs.
    pub log: String,
    /// How many steps ran (including the failing one).
    pub steps_run: usize,
}

/// The whole build's report.
#[derive(Debug, Clone)]
pub struct BuildReport {
    /// Per-job results in execution order (stage order, then job order).
    pub jobs: Vec<JobResult>,
}

impl BuildReport {
    /// A build passes when no job hard-failed and no stage was canceled.
    pub fn passed(&self) -> bool {
        self.jobs
            .iter()
            .all(|j| matches!(j.status, JobStatus::Passed | JobStatus::SoftFailed))
    }

    /// Results for one stage.
    pub fn stage(&self, stage: &str) -> Vec<&JobResult> {
        self.jobs.iter().filter(|j| j.stage == stage).collect()
    }

    /// Travis-style one-line-per-job summary.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        for j in &self.jobs {
            let mark = match j.status {
                JobStatus::Passed => "ok",
                JobStatus::Failed => "FAILED",
                JobStatus::SoftFailed => "failed (allowed)",
                JobStatus::Canceled => "canceled",
            };
            out.push_str(&format!("{:<10} {:<40} {mark}\n", j.stage, j.name));
        }
        out
    }
}

impl fmt::Display for BuildReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.summary())
    }
}

/// Run a pipeline: stages sequentially; a stage's (matrix-expanded)
/// jobs in parallel on `workers` threads; if any hard-failing job fails
/// in a stage, later stages are canceled (their jobs report
/// [`JobStatus::Canceled`]).
pub fn run_pipeline(config: &PipelineConfig, executor: Executor, workers: usize) -> BuildReport {
    run_pipeline_traced(config, executor, workers, popper_trace::Tracer::disabled())
}

/// [`run_pipeline`] with a wall-clock [`popper_trace::Tracer`]: one span
/// per stage (`ci/pipeline` track) and one span per job on the worker
/// thread that ran it (`ci/worker-N` tracks).
pub fn run_pipeline_traced(
    config: &PipelineConfig,
    executor: Executor,
    workers: usize,
    tracer: popper_trace::Tracer,
) -> BuildReport {
    assert!(workers >= 1);
    let all_jobs = config.expanded_jobs();
    let mut report = BuildReport { jobs: Vec::with_capacity(all_jobs.len()) };
    let mut canceled = false;

    for stage in &config.stages {
        let stage_jobs: Vec<&Job> = all_jobs.iter().filter(|j| &j.stage == stage).collect();
        if stage_jobs.is_empty() {
            continue;
        }
        if canceled {
            for job in stage_jobs {
                report.jobs.push(JobResult {
                    name: job.name.clone(),
                    stage: stage.clone(),
                    status: JobStatus::Canceled,
                    log: String::new(),
                    steps_run: 0,
                });
            }
            continue;
        }

        // Work queue: indices into stage_jobs; results slot per job.
        let (tx, rx) = channel::unbounded::<usize>();
        for i in 0..stage_jobs.len() {
            tx.send(i).expect("queue open");
        }
        drop(tx);
        let results: Vec<parking_lot::Mutex<Option<JobResult>>> =
            stage_jobs.iter().map(|_| parking_lot::Mutex::new(None)).collect();

        let _stage_span = tracer.span("ci", "ci/pipeline", format!("stage {stage}"));
        crossbeam::scope(|scope| {
            for w in 0..workers.min(stage_jobs.len()) {
                let rx = rx.clone();
                let executor = executor.clone();
                let results = &results;
                let stage_jobs = &stage_jobs;
                let tracer = tracer.clone();
                scope.spawn(move |_| {
                    while let Ok(i) = rx.recv() {
                        let job = stage_jobs[i];
                        let _job_span = tracer.span("ci", format!("ci/worker-{w}"), &job.name);
                        *results[i].lock() = Some(run_job(job, &executor));
                    }
                    // Flush before the scope returns, not in the TLS
                    // destructor that runs after it.
                    tracer.flush();
                });
            }
        })
        .expect("CI worker threads must not panic");

        for slot in results {
            let result = slot.into_inner().expect("job ran");
            if result.status == JobStatus::Failed {
                canceled = true;
            }
            report.jobs.push(result);
        }
    }
    report
}

fn run_job(job: &Job, executor: &Executor) -> JobResult {
    let mut log = String::new();
    let mut steps_run = 0;
    let mut failed = false;
    for step in &job.steps {
        steps_run += 1;
        let ctx = StepCtx { command: step.clone(), env: job.env.clone(), job: job.name.clone() };
        // Flaky-job policy: a failing step gets `retries` extra attempts
        // before it fails the job; every attempt is logged.
        let mut outcome = executor(&ctx);
        log.push_str(&format!("$ {step}\n{}\n", outcome.log.trim_end()));
        let mut attempt = 1;
        while !outcome.success && attempt <= job.retries {
            attempt += 1;
            outcome = executor(&ctx);
            log.push_str(&format!(
                "$ {step} (retry {}/{})\n{}\n",
                attempt - 1,
                job.retries,
                outcome.log.trim_end()
            ));
        }
        if !outcome.success {
            failed = true;
            break;
        }
    }
    let status = if !failed {
        JobStatus::Passed
    } else if job.allow_failure {
        JobStatus::SoftFailed
    } else {
        JobStatus::Failed
    };
    JobResult { name: job.name.clone(), stage: job.stage.clone(), status, log, steps_run }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn config(text: &str) -> PipelineConfig {
        PipelineConfig::from_pml(text).unwrap()
    }

    fn echo_executor() -> Executor {
        Arc::new(|ctx: &StepCtx| {
            if ctx.command.starts_with("fail") {
                StepOutcome::fail(format!("step '{}' exploded", ctx.command))
            } else {
                StepOutcome::pass(format!("ran '{}'", ctx.command))
            }
        })
    }

    const GREEN: &str = "\
stages: [lint, test]
jobs:
  - name: syntax
    stage: lint
    steps: [check-a, check-b]
  - name: exp
    stage: test
    steps: [run]
";

    #[test]
    fn green_pipeline_passes() {
        let report = run_pipeline(&config(GREEN), echo_executor(), 4);
        assert!(report.passed());
        assert_eq!(report.jobs.len(), 2);
        assert!(report.jobs.iter().all(|j| j.status == JobStatus::Passed));
        assert!(report.jobs[0].log.contains("ran 'check-b'"));
        assert_eq!(report.jobs[0].steps_run, 2);
    }

    #[test]
    fn failing_step_stops_job_and_cancels_later_stages() {
        let src = "\
stages: [build, test]
jobs:
  - name: broken
    stage: build
    steps: [ok-step, fail-here, never-runs]
  - name: exp
    stage: test
    steps: [run]
";
        let report = run_pipeline(&config(src), echo_executor(), 2);
        assert!(!report.passed());
        let broken = &report.jobs[0];
        assert_eq!(broken.status, JobStatus::Failed);
        assert_eq!(broken.steps_run, 2, "third step must not run");
        assert!(!broken.log.contains("never-runs\n$"));
        let exp = &report.jobs[1];
        assert_eq!(exp.status, JobStatus::Canceled);
    }

    #[test]
    fn allow_failure_keeps_build_green() {
        let src = "\
stages: [test]
jobs:
  - name: flaky
    stage: test
    steps: [fail-flaky]
    allow_failure: true
  - name: solid
    stage: test
    steps: [run]
";
        let report = run_pipeline(&config(src), echo_executor(), 2);
        assert!(report.passed());
        assert!(report.jobs.iter().any(|j| j.status == JobStatus::SoftFailed));
    }

    #[test]
    fn retries_rescue_flaky_jobs_and_log_attempts() {
        let src = "\
stages: [test]
jobs:
  - name: flaky
    stage: test
    steps: [sometimes]
    retries: 2
  - name: fragile
    stage: test
    steps: [sometimes]
";
        // Fails the first two calls per run, then passes: the retried
        // job recovers, the unretried one does not.
        let calls = Arc::new(AtomicUsize::new(0));
        let c2 = calls.clone();
        let executor: Executor = Arc::new(move |ctx: &StepCtx| {
            // Count per job: the first two attempts of 'flaky' fail, the
            // single attempt of 'fragile' fails.
            if ctx.job == "flaky" && c2.fetch_add(1, Ordering::SeqCst) < 2 {
                StepOutcome::fail("transient network burp")
            } else if ctx.job == "fragile" {
                StepOutcome::fail("no retries for me")
            } else {
                StepOutcome::pass("made it")
            }
        });
        let report = run_pipeline(&config(src), executor, 1);
        let flaky = report.jobs.iter().find(|j| j.name == "flaky").unwrap();
        assert_eq!(flaky.status, JobStatus::Passed, "{}", flaky.log);
        assert!(flaky.log.contains("(retry 1/2)"), "{}", flaky.log);
        assert!(flaky.log.contains("(retry 2/2)"), "{}", flaky.log);
        let fragile = report.jobs.iter().find(|j| j.name == "fragile").unwrap();
        assert_eq!(fragile.status, JobStatus::Failed);
        assert!(!fragile.log.contains("retry"));
    }

    #[test]
    fn negative_retries_rejected() {
        let src = "stages: [t]\njobs:\n  - name: j\n    stage: t\n    steps: [x]\n    retries: -1\n";
        assert!(PipelineConfig::from_pml(src).unwrap_err().contains("retries"));
    }

    #[test]
    fn matrix_jobs_get_their_env() {
        let src = "\
stages: [test]
matrix:
  machine: [a, b, c]
jobs:
  - name: exp
    stage: test
    steps: [show-machine]
";
        let executor: Executor = Arc::new(|ctx: &StepCtx| StepOutcome::pass(format!("machine={}", ctx.env["machine"])));
        let report = run_pipeline(&config(src), executor, 2);
        assert_eq!(report.jobs.len(), 3);
        let logs: Vec<&str> = report.jobs.iter().map(|j| j.log.as_str()).collect();
        assert!(logs.iter().any(|l| l.contains("machine=a")));
        assert!(logs.iter().any(|l| l.contains("machine=c")));
    }

    #[test]
    fn jobs_run_in_parallel() {
        // 4 jobs that each wait for the others via a barrier-ish counter
        // would deadlock on a single worker; with 4 workers they finish.
        let src = "\
stages: [test]
jobs:
  - name: j1
    stage: test
    steps: [sync]
  - name: j2
    stage: test
    steps: [sync]
  - name: j3
    stage: test
    steps: [sync]
  - name: j4
    stage: test
    steps: [sync]
";
        let arrived = Arc::new(AtomicUsize::new(0));
        let a2 = arrived.clone();
        let executor: Executor = Arc::new(move |_ctx: &StepCtx| {
            a2.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while a2.load(Ordering::SeqCst) < 4 {
                if std::time::Instant::now() > deadline {
                    return StepOutcome::fail("peers never arrived: jobs did not run in parallel");
                }
                std::thread::yield_now();
            }
            StepOutcome::pass("all four ran concurrently")
        });
        let report = run_pipeline(&config(src), executor, 4);
        assert!(report.passed(), "{}", report.summary());
    }

    /// Regression: a worker's job spans used to reach the sink only in
    /// its thread-local destructor, which runs after the scoped pool has
    /// returned, so a caller draining right away lost them. Here every
    /// worker's exit is held until after the drain (thread-local
    /// destructors run in reverse order of first use, and the job span
    /// is recorded before the executor arms the hold).
    #[test]
    fn worker_job_spans_reach_the_sink_before_the_pipeline_returns() {
        use std::cell::RefCell;
        use std::sync::{Condvar, Mutex};

        struct Hold(Arc<(Mutex<bool>, Condvar)>);
        impl Drop for Hold {
            fn drop(&mut self) {
                let (open, cv) = &*self.0;
                let open = open.lock().unwrap();
                let _ = cv.wait_timeout_while(open, std::time::Duration::from_secs(10), |o| !*o);
            }
        }
        thread_local! {
            static HOLD: RefCell<Option<Hold>> = const { RefCell::new(None) };
        }

        let gate: Arc<(Mutex<bool>, Condvar)> = Arc::default();
        let g = gate.clone();
        let executor: Executor = Arc::new(move |_ctx: &StepCtx| {
            HOLD.with(|h| {
                h.borrow_mut().get_or_insert_with(|| Hold(g.clone()));
            });
            StepOutcome::pass("held")
        });
        let sink = popper_trace::TraceSink::new();
        let tracer = sink.tracer(popper_trace::ClockDomain::Wall);
        let report = run_pipeline_traced(&config(GREEN), executor, 2, tracer.clone());
        tracer.flush();
        let events = sink.drain();
        *gate.0.lock().unwrap() = true;
        gate.1.notify_all();
        assert!(report.passed(), "{}", report.summary());
        let jobs: Vec<&str> = events
            .iter()
            .filter(|e| e.track.starts_with("ci/worker-"))
            .map(|e| e.name.as_str())
            .collect();
        assert_eq!(jobs.len(), 2, "both job spans arrive: {events:?}");
    }

    #[test]
    fn report_accessors() {
        let report = run_pipeline(&config(GREEN), echo_executor(), 1);
        assert_eq!(report.stage("lint").len(), 1);
        assert_eq!(report.stage("test").len(), 1);
        assert!(report.summary().contains("syntax"));
        assert!(report.to_string().contains("ok"));
    }

    #[test]
    fn results_are_in_deterministic_order() {
        let src = "\
stages: [test]
matrix:
  m: [a, b]
jobs:
  - name: x
    stage: test
    steps: [run]
  - name: y
    stage: test
    steps: [run]
";
        let names = |workers| -> Vec<String> {
            run_pipeline(&config(src), echo_executor(), workers)
                .jobs
                .into_iter()
                .map(|j| j.name)
                .collect()
        };
        let expected = names(1);
        for w in [2, 4, 8] {
            assert_eq!(names(w), expected, "order must not depend on worker count");
        }
    }
}
