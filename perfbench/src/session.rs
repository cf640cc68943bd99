//! The `session` workload: one researcher driving the `popper` CLI
//! in-process through [`popper_cli::run`], closed loop (each command
//! starts when the previous one returned).
//!
//! Set-up brings a fresh repository to its first results:
//!
//! * create: `init`, `add` of the four paper templates and a commit of
//!   a `.popper-ci.pml`;
//! * cold: `chaos` (where the template has a chaos mode), `run` and
//!   `verify` of each experiment.
//!
//! A round is then three timed phases on that repository:
//!
//! * trace: `trace` of each experiment, which grows `.popper/state` to
//!   tens of MB;
//! * warm: memo-warm `chaos` and `run`, then `status`, `log` and
//!   `validate`, on the grown repository;
//! * ci: `popper ci --workers 2`, three passes on the same repository.
//!
//! A set-up takes well under a second, so each iteration also repeats it
//! on throwaway repositories between the phases. The workload seed
//! drives each set-up's `chaos --seed`.

use crate::report::{Report, Spans};
use crate::{mix, RunCtx};
use popper_trace::{ClockDomain, EventKind, TraceEvent, TraceSink, Tracer};
use std::path::{Path, PathBuf};
use std::time::Instant;

const AUTHOR: &str = "perfbench";

/// (template, experiment name, has a chaos mode). Torpor's runner has
/// no fault-injection mode, so `popper chaos` does not apply to it.
const EXPERIMENTS: [(&str, &str, bool); 4] = [
    ("torpor", "torpor", false),
    ("gassyfs", "gassyfs", true),
    ("mpi-comm-variability", "mpi", true),
    ("jupyter-bww", "bww", true),
];

/// Set-ups per iteration, each on a fresh repository: the kept one
/// and throwaway ones spread between the phases.
const SETUP_REPEATS: usize = 8;

/// `popper ci` passes per iteration.
const CI_PASSES: usize = 3;

/// Runs of `lifecycle_session` timed per experiment at each phase end.
const SESSION_PROBES: usize = 20;

/// Bytes hashed for `vcs.sha256_mb_per_s`.
const SHA_BYTES: usize = 16 << 20;

pub fn per_layer() -> Vec<(String, &'static str)> {
    [
        ("cli.persist.load_ms", "ms"),
        ("cli.persist.save_ms", "ms"),
        ("cli.persist.state_mb", "MB"),
        ("vcs.import_state_ms", "ms"),
        ("vcs.export_state_ms", "ms"),
        ("vcs.sha256_mb_per_s", "MB/s"),
        ("vcs.commits", "count"),
        ("vcs.commit_ms", "ms"),
        ("memo.session_ms", "ms"),
        ("memo.hits", "count"),
        ("memo.misses", "count"),
        ("memo.hit_ratio", "ratio"),
        ("core.run_pipeline_cold_ms", "ms"),
        ("core.run_pipeline_warm_ms", "ms"),
        ("core.stage.execute_ms", "ms"),
        ("core.stage.record_ms", "ms"),
        ("core.stage.validate_ms", "ms"),
        ("trace.export_ms", "ms"),
        ("trace.json_mb", "MB"),
        ("aver.check_ms", "ms"),
        ("ci.jobs", "count"),
        ("ci.job_ms", "ms"),
        ("session.traced_phases_s", "s"),
        ("session.probe_s", "s"),
    ]
    .iter()
    .map(|&(n, u)| (n.to_string(), u))
    .collect()
}

/// The `.popper-ci.pml` the ci phase runs: one job per experiment
/// (run + validate), then the memo self-check and the store report.
fn ci_config() -> String {
    let mut pml = String::from("stages: [run, check]\njobs:\n");
    for (_, name, _) in EXPERIMENTS {
        pml.push_str(&format!(
            "  - name: run-{name}\n    stage: run\n    steps: [run-experiment {name}, validate {name}]\n"
        ));
    }
    pml.push_str("  - name: memo\n    stage: check\n    steps: [memo-selfcheck torpor]\n");
    pml.push_str("  - name: store\n    stage: check\n    steps: [store-stats]\n");
    pml
}

/// Phase wall times of every iteration.
#[derive(Default)]
struct Samples {
    /// Create plus cold, per set-up.
    setup: Vec<f64>,
    create: Vec<f64>,
    cold: Vec<f64>,
    trace: Vec<f64>,
    warm: Vec<f64>,
    ci: Vec<f64>,
    /// Trace, warm and the median ci pass, per iteration.
    round: Vec<f64>,
}

/// One repository's session: runs commands, counts them, checks them.
struct Session<'r> {
    dir: PathBuf,
    report: &'r mut Report,
    /// The ambient tracer commands run under in a traced run.
    tracer: Option<Tracer>,
    memo_hits: u64,
    memo_misses: u64,
    /// Warm `run` and `chaos`: the command must report a memo line
    /// with 0 misses. Without one (caching off, say) it fails too.
    expect_warm: bool,
}

impl Session<'_> {
    /// Run one CLI command; `None` if it failed (counted and explained).
    fn cmd(&mut self, argv: &[&str]) -> Option<String> {
        let result = match &self.tracer {
            Some(t) => popper_trace::with_current(t.clone(), || popper_cli::run(argv, &self.dir)),
            None => popper_cli::run(argv, &self.dir),
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                let first = e.lines().next().unwrap_or("").to_string();
                self.report
                    .op(false, || format!("popper {}: {first}", argv.join(" ")));
                return None;
            }
        };
        let memo = out.lines().find_map(parse_memo_line);
        let replayed = memo.is_some_and(|(_, misses)| misses == 0);
        self.report.op(!self.expect_warm || replayed, || {
            format!(
                "popper {}: did not replay from the memo cache on a warm repository ({})",
                argv.join(" "),
                memo.map_or("no memo line".into(), |(_, m)| format!("{m} misses"))
            )
        });
        if let Some((hits, misses)) = memo {
            self.memo_hits += hits;
            self.memo_misses += misses;
        }
        Some(out)
    }

    fn results_csv(&self, name: &str) -> Option<Vec<u8>> {
        std::fs::read(self.dir.join(format!("experiments/{name}/results.csv"))).ok()
    }

    fn create(&mut self) {
        self.cmd(&["init"]);
        for (template, name, _) in EXPERIMENTS {
            self.cmd(&["add", template, name]);
        }
        let written = std::fs::write(self.dir.join(".popper-ci.pml"), ci_config());
        self.report
            .check(written.is_ok(), "could not write .popper-ci.pml");
        self.cmd(&["commit", "add ci pipeline"]);
    }

    /// Returns each experiment's `results.csv` after its cold `run`.
    fn cold(&mut self, chaos_seed: &str) -> Vec<Option<Vec<u8>>> {
        let mut results = Vec::new();
        for (_, name, chaos) in EXPERIMENTS {
            if chaos {
                self.cmd(&["chaos", name, "--seed", chaos_seed]);
            }
            self.cmd(&["run", name]);
            results.push(self.results_csv(name));
            self.cmd(&["verify", name]);
        }
        results
    }

    fn trace(&mut self) {
        for (_, name, _) in EXPERIMENTS {
            self.cmd(&["trace", name]);
        }
    }

    fn warm(&mut self, chaos_seed: &str, cold_results: &[Option<Vec<u8>>]) {
        for (i, (_, name, chaos)) in EXPERIMENTS.into_iter().enumerate() {
            self.expect_warm = true;
            if chaos {
                self.cmd(&["chaos", name, "--seed", chaos_seed]);
            }
            self.cmd(&["run", name]);
            self.expect_warm = false;
            let same = cold_results[i].is_some() && self.results_csv(name) == cold_results[i];
            self.report.check(
                same,
                format!("{name}: results.csv differs between the cold and the warm run"),
            );
        }
        self.cmd(&["status"]);
        self.cmd(&["log"]);
        for (_, name, _) in EXPERIMENTS {
            self.cmd(&["validate", name]);
        }
    }

    fn ci(&mut self, workers: usize) {
        let workers = workers.to_string();
        if let Some(out) = self.cmd(&["ci", "--workers", &workers]) {
            self.report.check(
                out.contains("[build: passing]"),
                "popper ci did not report a passing build",
            );
        }
    }
}

/// `memo: N hits / M misses (...)` -> (N, M).
fn parse_memo_line(line: &str) -> Option<(u64, u64)> {
    let rest = line.strip_prefix("memo: ")?;
    let (hits, rest) = rest.split_once(" hits / ")?;
    let (misses, _) = rest.split_once(" misses")?;
    Some((hits.parse().ok()?, misses.parse().ok()?))
}

/// The `chaos --seed` of set-up `r`: each set-up draws its own fault
/// timeline from the workload seed, so `setup_s`, a median over the
/// set-ups, does not hinge on one timeline's cost.
fn chaos_seed(seed: u64, r: usize) -> String {
    (mix(seed ^ ((r as u64) << 32)) % 1_000_000).to_string()
}

fn fresh_dir(path: &Path) -> PathBuf {
    let _ = std::fs::remove_dir_all(path);
    std::fs::create_dir_all(path).expect("create session directory inside the work directory");
    path.to_path_buf()
}

pub fn run(ctx: &RunCtx, report: &mut Report) {
    let ci_workers = ctx.workers(2);
    report.threads.push(("ci", ci_workers));
    let mut samples = Samples::default();
    let mut traced = ctx.trace.then(Traced::new);
    let started = Instant::now();
    let mut iterations = 0;
    loop {
        let iteration = Instant::now();
        iterate(ctx, report, &mut samples, traced.as_mut(), ci_workers);
        iterations += 1;
        // A traced run needs one iteration; a timed run goes on while
        // another iteration fits in the time left.
        let took = iteration.elapsed().as_secs_f64();
        if ctx.trace || started.elapsed().as_secs_f64() + took > ctx.seconds {
            break;
        }
    }
    let setups = if ctx.trace { 1 } else { SETUP_REPEATS };
    report.note(format!(
        "{iterations} iteration(s), {setups} set-up(s) and {CI_PASSES} ci passes each"
    ));
    report.note(format!(
        "set-up s: {}",
        samples
            .setup
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    report.note(format!(
        "chaos seeds of the set-ups: {}; torpor has no chaos mode, so its cold and warm phases skip chaos",
        (0..setups)
            .map(|r| chaos_seed(ctx.seed, r))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    match traced {
        None => {
            report.median("setup_s", "s", &samples.setup);
            report.median("round_s", "s", &samples.round);
            report.part("create_s", "s", &samples.create);
            report.part("cold_s", "s", &samples.cold);
            report.part("trace_s", "s", &samples.trace);
            report.part("warm_s", "s", &samples.warm);
            report.part("ci_s", "s", &samples.ci);
        }
        Some(t) => {
            // A traced run is one iteration: the first sample of each
            // phase is the kept repository's, the one run under the tracer.
            let phases: f64 = [&samples.cold, &samples.trace, &samples.warm, &samples.ci]
                .iter()
                .map(|s| s.first().copied().unwrap_or(0.0))
                .sum();
            t.finish(report, phases);
        }
    }
}

/// Run `f` as one timed phase on the repository in `dir`. Returns its
/// result, its wall time and the memo hits and misses it reported.
fn timed<R>(
    dir: &Path,
    report: &mut Report,
    traced: &Option<&mut Traced>,
    f: impl FnOnce(&mut Session) -> R,
) -> (R, f64, (u64, u64)) {
    let mut s = Session {
        dir: dir.to_path_buf(),
        report,
        tracer: traced.as_ref().map(|t| t.tracer.clone()),
        memo_hits: 0,
        memo_misses: 0,
        expect_warm: false,
    };
    let t = Instant::now();
    let out = f(&mut s);
    (out, t.elapsed().as_secs_f64(), (s.memo_hits, s.memo_misses))
}

fn iterate(
    ctx: &RunCtx,
    report: &mut Report,
    samples: &mut Samples,
    mut traced: Option<&mut Traced>,
    ci_workers: usize,
) {
    // The kept repository goes through every phase.
    let dir = fresh_dir(&ctx.work.join("repo"));
    let seed = chaos_seed(ctx.seed, 0);
    let ((), create_s, _) = timed(&dir, report, &traced, |s| s.create());
    let (cold_results, cold_s, memo) = timed(&dir, report, &traced, |s| s.cold(&seed));
    samples.create.push(create_s);
    samples.cold.push(cold_s);
    samples.setup.push(create_s + cold_s);
    if let Some(t) = traced.as_deref_mut() {
        t.end_phase(report, &dir, Phase::Cold, memo);
    }
    // Spare set-ups on throwaway repositories, spread between the phases
    // so that their median covers the whole run: on a shared host the
    // host's speed moves within a run, and a median over the whole run
    // moves less from run to run than one taken in a single stretch. A
    // traced run reports no set-up time and takes none.
    let mut spares = 1..if traced.is_some() { 1 } else { SETUP_REPEATS };
    let mut take_spares = |report: &mut Report, samples: &mut Samples, n: usize| {
        for r in spares.by_ref().take(n) {
            spare(ctx, report, samples, r);
        }
    };
    let slot = (SETUP_REPEATS - 1).div_ceil(4);
    take_spares(report, samples, slot);

    let ((), trace_s, memo) = timed(&dir, report, &traced, |s| s.trace());
    samples.trace.push(trace_s);
    let state = std::fs::metadata(dir.join(".popper/state")).map_or(0, |m| m.len());
    report.note(format!(
        "state after the trace phase: {:.3} MB",
        state as f64 / 1e6
    ));
    if let Some(t) = traced.as_deref_mut() {
        t.end_phase(report, &dir, Phase::Trace, memo);
    }

    take_spares(report, samples, slot);
    let ((), warm_s, memo) = timed(&dir, report, &traced, |s| s.warm(&seed, &cold_results));
    samples.warm.push(warm_s);
    if let Some(t) = traced.as_deref_mut() {
        t.end_phase(report, &dir, Phase::Warm, memo);
    }

    take_spares(report, samples, slot);
    // CI passes repeat on the same repository; each is a `ci_s` sample.
    let mut memo = (0, 0);
    let mut ci = Vec::new();
    for _ in 0..CI_PASSES {
        let ((), ci_s, (hits, misses)) = timed(&dir, report, &traced, |s| s.ci(ci_workers));
        ci.push(ci_s);
        memo = (memo.0 + hits, memo.1 + misses);
    }
    let ci_median = crate::stats::median(&ci).unwrap_or(0.0);
    samples.round.push(trace_s + warm_s + ci_median);
    samples.ci.extend(ci);
    if let Some(t) = traced {
        t.end_phase(report, &dir, Phase::Ci, memo);
    }
    let _ = std::fs::remove_dir_all(&dir);
    take_spares(report, samples, slot);
}

/// Spare set-up `r` on a throwaway repository, with its own chaos seed.
fn spare(ctx: &RunCtx, report: &mut Report, samples: &mut Samples, r: usize) {
    let dir = fresh_dir(&ctx.work.join(format!("spare-{r}")));
    let seed = chaos_seed(ctx.seed, r);
    let ((), create_s, _) = timed(&dir, report, &None, |s| s.create());
    let (_, cold_s, _) = timed(&dir, report, &None, |s| s.cold(&seed));
    samples.create.push(create_s);
    samples.cold.push(cold_s);
    samples.setup.push(create_s + cold_s);
    let _ = std::fs::remove_dir_all(&dir);
}

#[derive(Clone, Copy, PartialEq)]
enum Phase {
    Cold,
    Trace,
    Warm,
    Ci,
}

/// The traced run's state: the ambient tracer the program's own
/// `core/lifecycle` and `ci/worker-*` spans land in, and the
/// benchmark's spans around direct calls into each layer, made on the
/// repository as each phase leaves it.
struct Traced {
    sink: TraceSink,
    tracer: Tracer,
    spans: Spans,
    cold_events: Vec<TraceEvent>,
    warm_events: Vec<TraceEvent>,
    ci_events: Vec<TraceEvent>,
    memo: (u64, u64),
    state_mb: f64,
    trace_json_mb: f64,
    commits: u64,
}

impl Traced {
    fn new() -> Traced {
        let sink = TraceSink::new();
        let tracer = sink.tracer(ClockDomain::Wall);
        Traced {
            sink,
            tracer,
            spans: Spans::new(),
            cold_events: Vec::new(),
            warm_events: Vec::new(),
            ci_events: Vec::new(),
            memo: (0, 0),
            state_mb: 0.0,
            trace_json_mb: 0.0,
            commits: 0,
        }
    }

    /// The program's lifecycle and CI spans recorded since the last
    /// drain. Simulation events that ride the same ambient tracer are
    /// dropped here.
    fn drain(&mut self) -> Vec<TraceEvent> {
        self.tracer.flush();
        self.sink
            .drain()
            .into_iter()
            .filter(|e| {
                matches!(e.kind, EventKind::Span { .. })
                    && (e.track == "core/lifecycle" || e.track.starts_with("ci/worker-"))
            })
            .collect()
    }

    /// Close a phase: keep its program spans and memo counts, then probe
    /// the layers on the repository the phase left behind.
    fn end_phase(
        &mut self,
        report: &mut Report,
        dir: &Path,
        phase: Phase,
        (hits, misses): (u64, u64),
    ) {
        let events = self.drain();
        match phase {
            Phase::Cold => self.cold_events = events,
            Phase::Warm => self.warm_events = events,
            Phase::Ci => self.ci_events = events,
            Phase::Trace => {}
        }
        self.memo.0 += hits;
        self.memo.1 += misses;
        self.probe(report, dir, phase);
    }

    /// Time direct calls into each layer on the repository `dir` holds.
    fn probe(&mut self, report: &mut Report, dir: &Path, phase: Phase) {
        let spans = &mut self.spans;
        let repo = match spans.time("cli.persist.load", || {
            popper_cli::persist::load(dir, AUTHOR)
        }) {
            Ok(repo) => repo,
            Err(e) => return report.check(false, format!("persist::load: {e}")),
        };
        let state_bytes = std::fs::metadata(dir.join(".popper/state"))
            .map(|m| m.len())
            .unwrap_or(0);
        self.state_mb = self.state_mb.max(state_bytes as f64 / 1e6);
        let saved = spans.time("cli.persist.save", || popper_cli::persist::save(&repo, dir));
        report.check(saved.is_ok(), "persist::save failed");
        let state = spans.time("vcs.export_state", || repo.vcs.export_state());
        let imported = spans.time("vcs.import_state", || {
            popper_vcs::Repository::import_state(state)
        });
        report.check(
            imported.is_ok(),
            "Repository::import_state failed on an exported state",
        );
        for (_, name, _) in EXPERIMENTS {
            for _ in 0..SESSION_PROBES {
                let key = spans.time("memo.session", || {
                    popper_core::lifecycle_session(&repo, name, "run", &[])
                });
                std::hint::black_box(key);
            }
        }
        if let Some(head) = repo.vcs.head_commit() {
            self.commits = repo.vcs.log(head).map(|l| l.len() as u64).unwrap_or(0);
        }
        // A commit of one changed file, on a copy that is not saved.
        let mut scratch = repo;
        let wrote = scratch.write("perfbench-probe.txt", format!("{:?}\n", phase as u8));
        report.check(wrote.is_ok(), "probe write failed");
        let committed = spans.time("vcs.commit", || scratch.commit("perfbench probe"));
        report.check(committed.is_ok(), "probe commit failed");

        match phase {
            Phase::Cold => {
                for (_, name, _) in EXPERIMENTS {
                    let csv = std::fs::read_to_string(
                        dir.join(format!("experiments/{name}/results.csv")),
                    );
                    let aver = std::fs::read_to_string(
                        dir.join(format!("experiments/{name}/validations.aver")),
                    );
                    let (Ok(csv), Ok(aver)) = (csv, aver) else {
                        report.check(
                            false,
                            format!(
                                "{name}: no results.csv or validations.aver after the cold phase"
                            ),
                        );
                        continue;
                    };
                    let Ok(table) = popper_format::Table::from_csv(&csv) else {
                        report.check(false, format!("{name}: results.csv does not parse"));
                        continue;
                    };
                    let verdict = spans.time("aver.check", || popper_aver::check(&aver, &table));
                    report.check(
                        verdict.is_ok_and(|v| v.passed),
                        format!("{name}: validations.aver does not hold"),
                    );
                }
            }
            Phase::Trace => {
                for (_, name, _) in EXPERIMENTS {
                    let Ok(json) =
                        std::fs::read_to_string(dir.join(format!("experiments/{name}/trace.json")))
                    else {
                        report.check(
                            false,
                            format!("{name}: no trace.json after the trace phase"),
                        );
                        continue;
                    };
                    self.trace_json_mb += json.len() as f64 / 1e6;
                    let Ok(events) = popper_trace::parse_chrome_trace(&json) else {
                        report.check(false, format!("{name}: trace.json does not parse"));
                        continue;
                    };
                    let out =
                        spans.time("trace.export", || popper_trace::chrome_trace_json(&events));
                    std::hint::black_box(out);
                }
            }
            Phase::Warm | Phase::Ci => {}
        }
        if phase == Phase::Ci {
            let buf: Vec<u8> = (0..SHA_BYTES)
                .map(|i| (i as u64).wrapping_mul(0x9e37_79b9) as u8)
                .collect();
            for _ in 0..3 {
                std::hint::black_box(spans.time("vcs.sha256", || popper_vcs::sha256::digest(&buf)));
            }
        }
    }

    fn finish(self, report: &mut Report, traced_phases_s: f64) {
        let s = &self.spans;
        report.median(
            "cli.persist.load_ms",
            "ms",
            &s.durations("cli.persist.load"),
        );
        report.median(
            "cli.persist.save_ms",
            "ms",
            &s.durations("cli.persist.save"),
        );
        report.value("cli.persist.state_mb", "MB", self.state_mb);
        report.median(
            "vcs.import_state_ms",
            "ms",
            &s.durations("vcs.import_state"),
        );
        report.median(
            "vcs.export_state_ms",
            "ms",
            &s.durations("vcs.export_state"),
        );
        let sha: Vec<f64> = s
            .durations("vcs.sha256")
            .iter()
            .map(|ms| SHA_BYTES as f64 / 1e6 / (ms / 1e3))
            .collect();
        report.median("vcs.sha256_mb_per_s", "MB/s", &sha);
        report.value("vcs.commits", "count", self.commits as f64);
        report.median("vcs.commit_ms", "ms", &s.durations("vcs.commit"));
        report.median("memo.session_ms", "ms", &s.durations("memo.session"));
        let (hits, misses) = self.memo;
        report.value("memo.hits", "count", hits as f64);
        report.value("memo.misses", "count", misses as f64);
        report.value(
            "memo.hit_ratio",
            "ratio",
            hits as f64 / ((hits + misses) as f64).max(1.0),
        );
        let pipelines = |events: &[TraceEvent]| -> Vec<f64> {
            events
                .iter()
                .filter(|e| e.name.starts_with("run "))
                .map(|e| e.duration_ns() as f64 / 1e6)
                .collect()
        };
        report.median(
            "core.run_pipeline_cold_ms",
            "ms",
            &pipelines(&self.cold_events),
        );
        report.median(
            "core.run_pipeline_warm_ms",
            "ms",
            &pipelines(&self.warm_events),
        );
        // Stage totals over the cold phase's run and verify lifecycles.
        for stage in ["execute", "record", "validate"] {
            let total: f64 = self
                .cold_events
                .iter()
                .filter(|e| e.track == "core/lifecycle" && e.name == stage)
                .map(|e| e.duration_ns() as f64 / 1e6)
                .sum();
            report.value(format!("core.stage.{stage}_ms"), "ms", total);
        }
        report.value(
            "trace.export_ms",
            "ms",
            s.durations("trace.export").iter().sum(),
        );
        report.value("trace.json_mb", "MB", self.trace_json_mb);
        report.value(
            "aver.check_ms",
            "ms",
            s.durations("aver.check").iter().sum(),
        );
        let jobs: Vec<f64> = self
            .ci_events
            .iter()
            .filter(|e| e.track.starts_with("ci/worker-"))
            .map(|e| e.duration_ns() as f64 / 1e6)
            .collect();
        report.value("ci.jobs", "count", (jobs.len() / CI_PASSES) as f64);
        report.median("ci.job_ms", "ms", &jobs);
        report.value("session.traced_phases_s", "s", traced_phases_s);
        report.value("session.probe_s", "s", s.total_s());
        report.note(
            "tracing overhead: compare session.traced_phases_s with the sum of a timed run's cold_s, trace_s, \
             warm_s and ci_s parts; session.probe_s is spent outside the phases",
        );
    }
}
