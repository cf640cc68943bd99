//! The `farm` workload: `popper_farm::Farm`s on the CLI's full engine,
//! 8 tenants over the four paper templates, driven by one generator
//! thread.
//!
//! * Set-up builds a farm and runs every tenant's first (cold) job.
//! * Open loop, on the first farm: jobs are due at a fixed rate below
//!   capacity, with seeded jitter and tenant choice, and
//!   `GET /badge.svg` requests are due at a fixed rate in between, one
//!   socket at a time. A job's latency runs from its due time to the
//!   completion the generator sees by polling
//!   `Farm::completed_per_tenant`, so a stall counts against every job
//!   due behind it.
//! * Closed loop, in rounds until the time is up: each round sets up a
//!   fresh farm, then keeps every tenant's queue full, backing off on
//!   `QueueFull`, until [`ROUND_JOBS`] jobs are admitted, and waits for
//!   them all. A farm's records and histories grow with every job, so a
//!   fresh farm per round makes each round the same work.
//!
//! Jobs are memo-warm lifecycle runs with a vcs commit and a store
//! ingest per batch; no persist and no sharded simulation run here.

use crate::report::{Report, Spans};
use crate::{mix, stats, RunCtx};
use popper_farm::{Farm, FarmBuilder, FarmConfig, JobOutcome, JobRecord, SubmitError};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TEMPLATES: [&str; 4] = ["torpor", "gassyfs", "mpi-comm-variability", "jupyter-bww"];
/// Two tenants per template (see [`assignment`]).
const TENANTS: usize = 2 * TEMPLATES.len();
const EXPERIMENT: &str = "exp";

/// Open-loop job arrivals per second: well below the saturated rate of
/// 2 workers (see README), so the queue stays short.
const JOB_RATE: f64 = 500.0;
/// Open-loop badge requests per second.
const BADGE_RATE: f64 = 500.0;
/// Share of `--seconds` spent in the open loop; the rest is closed loop.
const OPEN_SHARE: f64 = 0.25;
/// Longest back-off after a `QueueFull` in the closed loop. The 8
/// queues of 64 hold over 100 ms of work at saturation, so the workers
/// never run dry, and the generator wakes rarely enough that it takes
/// little of the 2 cores the workers share with it.
const MAX_BACKOFF: Duration = Duration::from_millis(20);
/// Jobs in a closed-loop round: `round_s` is the time a fresh,
/// saturated farm takes to complete this many.
const ROUND_JOBS: usize = 1000;

pub fn per_layer() -> Vec<(String, &'static str)> {
    [
        ("farm.job_p50_ms", "ms"),
        ("farm.job_p99_ms", "ms"),
        ("farm.badge_p50_ms", "ms"),
        ("farm.badge_p99_ms", "ms"),
        ("farm.submit_us_p50", "us"),
        ("farm.submit_us_p99", "us"),
        ("farm.queue_full", "count"),
        ("farm.queue_wait_ms_p50", "ms"),
        ("farm.queue_wait_ms_p99", "ms"),
        ("farm.status_ms", "ms"),
        ("farm.memo_hit_ratio", "ratio"),
        ("farm.generator_late_ms_p99", "ms"),
        ("farm.traced_jobs_per_s", "1/s"),
        ("store.put_batch_ms", "ms"),
        ("store.ingested_mb", "MB"),
        ("store.dedup_ratio", "ratio"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// Seeded tenant -> template assignment: tenants `2k` and `2k + 1`
/// share a template, and the seed shuffles which pair gets which. With
/// pairs side by side, the two workers run the set-up's cold jobs two of
/// a kind at a time, so the set-up time does not hinge on the shuffle.
fn assignment(seed: u64) -> Vec<&'static str> {
    let mut templates = TEMPLATES;
    for i in (1..templates.len()).rev() {
        let j = (mix(seed ^ ((i as u64) << 8)) % (i as u64 + 1)) as usize;
        templates.swap(i, j);
    }
    templates.iter().flat_map(|&t| [t, t]).collect()
}

fn tenant(i: usize) -> String {
    format!("t{}", i + 1)
}

fn build(workers: usize, templates: &[&str]) -> Result<Farm, String> {
    let mut b = FarmBuilder::new(Arc::new(popper_cli::runners::full_engine())).config(FarmConfig {
        workers,
        ..Default::default()
    });
    for (i, tpl) in templates.iter().enumerate() {
        b = b.tenant(&tenant(i), tpl, EXPERIMENT)?;
    }
    let farm = b.build()?;
    for i in 0..TENANTS {
        farm.submit(&tenant(i), EXPERIMENT)
            .map_err(|e| e.to_string())?;
    }
    farm.drain();
    Ok(farm)
}

/// Completions the generator has seen since it started watching.
struct Watcher {
    seen: Vec<u64>,
    base: u64,
    /// (tenant, seconds since the phase origin) per completion seen.
    completions: Vec<(usize, f64)>,
}

impl Watcher {
    fn new(farm: &Farm) -> Watcher {
        let seen = counts(farm);
        Watcher {
            base: seen.iter().sum(),
            seen,
            completions: Vec::new(),
        }
    }

    fn poll(&mut self, farm: &Farm, origin: Instant) {
        let now = origin.elapsed().as_secs_f64();
        for (t, n) in counts(farm).into_iter().enumerate() {
            while self.seen[t] < n {
                self.seen[t] += 1;
                self.completions.push((t, now));
            }
        }
    }

    /// Completions seen since the watcher was created.
    fn total(&self) -> u64 {
        self.seen.iter().sum::<u64>() - self.base
    }
}

fn counts(farm: &Farm) -> Vec<u64> {
    farm.completed_per_tenant()
        .into_iter()
        .map(|(_, n)| n)
        .collect()
}

fn badge_get(addr: SocketAddr) -> Result<(), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.write_all(b"GET /badge.svg HTTP/1.1\r\nHost: farm\r\n\r\n")
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    s.read_to_string(&mut response).map_err(|e| e.to_string())?;
    if response.starts_with("HTTP/1.1 200") && response.contains("passing") {
        Ok(())
    } else {
        Err(format!(
            "unexpected badge response: {}",
            response.lines().next().unwrap_or("")
        ))
    }
}

/// Wait until `at` (seconds since `origin`), polling completions.
fn wait_until(at: f64, farm: &Farm, watcher: &mut Watcher, origin: Instant) {
    loop {
        watcher.poll(farm, origin);
        let left = at - origin.elapsed().as_secs_f64();
        if left <= 0.0 {
            return;
        }
        std::thread::sleep(Duration::from_secs_f64(left.min(100e-6)));
    }
}

/// Submit, timing the call when tracing. Only admitted jobs are timed:
/// a `QueueFull` answer is a different, cheaper path.
fn submit(farm: &Farm, t: usize, spans: &mut Option<Spans>) -> Result<(), SubmitError> {
    let start = Instant::now();
    let admitted = farm.submit(&tenant(t), EXPERIMENT).map(drop);
    if let (Some(s), Ok(())) = (spans, &admitted) {
        s.record("farm.submit", start.elapsed());
    }
    admitted
}

/// One closed-loop round on `farm`: keep every tenant's queue full,
/// backing off on `QueueFull`, until [`ROUND_JOBS`] jobs are admitted,
/// then wait for all of them. Returns the seconds from the first
/// submission to the last completion, or `None` if a submission failed
/// for another reason than a full queue.
fn round(
    farm: &Farm,
    report: &mut Report,
    spans: &mut Option<Spans>,
    queue_full: &mut u64,
) -> Option<f64> {
    let start = Instant::now();
    let mut admitted = 0;
    while admitted < ROUND_JOBS {
        let mut backoff = MAX_BACKOFF;
        for t in 0..TENANTS {
            while admitted < ROUND_JOBS {
                match submit(farm, t, spans) {
                    Ok(()) => {
                        admitted += 1;
                        report.op(true, String::new);
                    }
                    Err(SubmitError::QueueFull { retry_after_ms, .. }) => {
                        *queue_full += 1;
                        backoff = backoff.min(Duration::from_millis(retry_after_ms));
                        break;
                    }
                    Err(e) => {
                        report.op(false, || format!("closed-loop submit: {e}"));
                        return None;
                    }
                }
            }
        }
        if admitted < ROUND_JOBS {
            std::thread::sleep(backoff);
        }
    }
    farm.drain();
    Some(start.elapsed().as_secs_f64())
}

/// Shut `farm` down and check that it lost no job and that every job
/// passed. Returns its job records.
fn finish(farm: Farm, report: &mut Report) -> Vec<JobRecord> {
    let records = farm.job_records();
    let farm_report = farm.shutdown();
    report.check(
        farm_report.lost == 0,
        format!("farm lost {} job(s)", farm_report.lost),
    );
    let not_passed = records
        .iter()
        .filter(|r| r.outcome != JobOutcome::Passed)
        .count();
    report.check(
        not_passed == 0,
        format!("{not_passed} farm job(s) did not pass"),
    );
    records
}

pub fn run(ctx: &RunCtx, report: &mut Report) {
    let workers = ctx.workers(2);
    report.threads.push(("farm_workers", workers));
    report.threads.push(("farm_http", 1));
    report.threads.push(("generator", 1));
    let templates = assignment(ctx.seed);
    report.note(format!("tenant templates: {}", templates.join(", ")));

    let mut setup = Vec::new();
    let timed_build = |setup: &mut Vec<f64>| {
        let t = Instant::now();
        let farm = build(workers, &templates)?;
        setup.push(t.elapsed().as_secs_f64());
        Ok::<Farm, String>(farm)
    };
    let farm = match timed_build(&mut setup) {
        Ok(f) => f,
        Err(e) => return report.check(false, format!("farm set-up: {e}")),
    };
    let server = match farm.serve("127.0.0.1:0") {
        Ok(s) => s,
        Err(e) => return report.check(false, format!("farm serve: {e}")),
    };
    let mut spans = ctx.trace.then(Spans::new);

    // ---- open loop ----
    let open_s = ctx.seconds * OPEN_SHARE;
    let n_jobs = (open_s * JOB_RATE) as usize;
    let n_badges = (open_s * BADGE_RATE) as usize;
    let job_due: Vec<(usize, f64)> = (0..n_jobs)
        .map(|i| {
            let h = mix(ctx.seed.wrapping_mul(0x1000_0001) ^ i as u64);
            let jitter = (h >> 11) as f64 / (1u64 << 53) as f64;
            (
                (h % TENANTS as u64) as usize,
                (i as f64 + jitter) / JOB_RATE,
            )
        })
        .collect();
    let badge_due: Vec<f64> = (0..n_badges)
        .map(|i| (i as f64 + 0.5) / BADGE_RATE)
        .collect();
    let origin = Instant::now();
    let mut watcher = Watcher::new(&farm);
    let (mut next_job, mut next_badge) = (0, 0);
    let mut late_ms = Vec::new();
    let mut badge_ms = Vec::new();
    while next_job < n_jobs || next_badge < n_badges {
        let job_at = job_due.get(next_job).map_or(f64::INFINITY, |d| d.1);
        let badge_at = badge_due.get(next_badge).copied().unwrap_or(f64::INFINITY);
        let at = job_at.min(badge_at);
        wait_until(at, &farm, &mut watcher, origin);
        late_ms.push((origin.elapsed().as_secs_f64() - at) * 1e3);
        if job_at <= badge_at {
            let (t, _) = job_due[next_job];
            let submitted = submit(&farm, t, &mut spans);
            report.op(submitted.is_ok(), || {
                format!("open-loop job {next_job} refused: {submitted:?}")
            });
            next_job += 1;
        } else {
            let got = badge_get(server.addr());
            badge_ms.push((origin.elapsed().as_secs_f64() - at) * 1e3);
            report.op(got.is_ok(), || format!("badge GET {next_badge}: {got:?}"));
            next_badge += 1;
        }
    }
    // Every open-loop job must complete before the closed loop starts.
    let expected = n_jobs as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while watcher.total() < expected && Instant::now() < deadline {
        wait_until(
            origin.elapsed().as_secs_f64() + 200e-6,
            &farm,
            &mut watcher,
            origin,
        );
    }
    report.check(
        watcher.total() >= expected,
        "open-loop jobs did not all complete within 60 s",
    );
    let job_ms: Vec<f64> = stats::due_latencies(&job_due, &watcher.completions)
        .into_iter()
        .map(|l| l * 1e3)
        .collect();
    let probes = spans
        .is_some()
        .then(|| (status_ms(&farm), farm.store_stats()));
    server.stop();
    finish(farm, report);

    // ---- closed loop ----
    let closed_s = ctx.seconds - open_s;
    let origin = Instant::now();
    let mut rounds = Vec::new();
    let mut records = Vec::new();
    let mut queue_full = 0u64;
    while origin.elapsed().as_secs_f64() < closed_s {
        let farm = match timed_build(&mut setup) {
            Ok(f) => f,
            Err(e) => return report.check(false, format!("farm set-up: {e}")),
        };
        rounds.extend(round(&farm, report, &mut spans, &mut queue_full));
        records.extend(finish(farm, report));
    }
    let jobs_per_s: Vec<f64> = rounds.iter().map(|s| ROUND_JOBS as f64 / s).collect();

    report.note(format!(
        "set-up s: {}",
        setup
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "open loop {open_s:.1} s: {n_jobs} jobs at {JOB_RATE}/s, {n_badges} badge GETs at {BADGE_RATE}/s; \
         generator late p50 {:.3} ms, p99 {:.3} ms",
        stats::percentile(&late_ms, 50.0).unwrap_or(0.0),
        stats::percentile(&late_ms, 99.0).unwrap_or(0.0),
    ));
    report.note(format!(
        "closed loop {closed_s:.1} s: {} rounds of {ROUND_JOBS} jobs, {queue_full} QueueFull; round s: {}",
        rounds.len(),
        rounds.iter().map(|r| format!("{r:.3}")).collect::<Vec<_>>().join(" ")
    ));

    match spans.zip(probes) {
        None => {
            report.median("setup_s", "s", &setup);
            report.median("round_s", "s", &rounds);
            report.part("farm_jobs_per_s", "1/s", &jobs_per_s);
        }
        Some((spans, (status_ms, store))) => {
            let submit_us: Vec<f64> = spans
                .durations("farm.submit")
                .iter()
                .map(|ms| ms * 1e3)
                .collect();
            report.percentile("farm.submit_us_p50", "us", &submit_us, 50.0);
            report.percentile("farm.submit_us_p99", "us", &submit_us, 99.0);
            report.value("farm.queue_full", "count", queue_full as f64);
            let waits: Vec<f64> = records.iter().map(|r| r.queue_wait_ms as f64).collect();
            report.percentile("farm.queue_wait_ms_p50", "ms", &waits, 50.0);
            report.percentile("farm.queue_wait_ms_p99", "ms", &waits, 99.0);
            report.median("farm.status_ms", "ms", &status_ms);
            let hits: u64 = records.iter().map(|r| r.memo_hits).sum();
            let misses: u64 = records.iter().map(|r| r.memo_misses).sum();
            report.value(
                "farm.memo_hit_ratio",
                "ratio",
                hits as f64 / ((hits + misses) as f64).max(1.0),
            );
            report.percentile("farm.job_p50_ms", "ms", &job_ms, 50.0);
            report.percentile("farm.job_p99_ms", "ms", &job_ms, 99.0);
            report.percentile("farm.badge_p50_ms", "ms", &badge_ms, 50.0);
            report.percentile("farm.badge_p99_ms", "ms", &badge_ms, 99.0);
            report.percentile("farm.generator_late_ms_p99", "ms", &late_ms, 99.0);
            report.median("farm.traced_jobs_per_s", "1/s", &jobs_per_s);
            let put_batch = put_batch_ms(report);
            report.median("store.put_batch_ms", "ms", &put_batch);
            report.value("store.ingested_mb", "MB", store.ingested_bytes as f64 / 1e6);
            report.value("store.dedup_ratio", "ratio", store.dedup_ratio());
            report.note(
                "tracing overhead: compare farm.traced_jobs_per_s with a timed run's farm_jobs_per_s part; \
                 the traced run times every admitted Farm::submit",
            );
        }
    }
}

/// `Farm::status()` timings, taken on the loaded farm with no socket.
fn status_ms(farm: &Farm) -> Vec<f64> {
    let mut spans = Spans::new();
    for _ in 0..200 {
        std::hint::black_box(spans.time("farm.status", || farm.status()));
    }
    spans.durations("farm.status")
}

/// `ChunkStore::put_batch` timings over one batch of the artifacts the
/// farm archives (each template's `results.csv` and `figure.txt`),
/// produced by one cold lifecycle run per template, each into a fresh
/// store as the farm's first flush would.
fn put_batch_ms(report: &mut Report) -> Vec<f64> {
    let engine = popper_cli::runners::full_engine();
    let mut artifacts = Vec::new();
    for tpl in TEMPLATES {
        let made = (|| -> Result<(), String> {
            let tpl_def = popper_core::templates::find_template(tpl).ok_or("unknown template")?;
            let mut repo = popper_core::PopperRepo::init("perfbench").map_err(|e| e.to_string())?;
            for (path, contents) in tpl_def.files(EXPERIMENT) {
                repo.write(&path, contents).map_err(|e| e.to_string())?;
            }
            repo.commit("add").map_err(|e| e.to_string())?;
            let mut ctx = popper_core::RunContext::for_experiment(&repo, EXPERIMENT)?;
            engine.run_pipeline(&mut repo, &mut ctx)?;
            for name in ["results.csv", "figure.txt"] {
                let bytes = repo
                    .vcs
                    .read_file(&format!("experiments/{EXPERIMENT}/{name}"))
                    .ok_or("missing artifact")?;
                artifacts.push(bytes.to_vec());
            }
            Ok(())
        })();
        report.check(
            made.is_ok(),
            format!("{tpl}: artifacts for the store probe: {made:?}"),
        );
    }
    let mut spans = Spans::new();
    for _ in 0..50 {
        let mut store = popper_store::ChunkStore::new();
        let manifests = spans.time("store.put_batch", || {
            store.put_batch(artifacts.iter().map(Vec::as_slice))
        });
        std::hint::black_box(manifests);
    }
    spans.durations("store.put_batch")
}
