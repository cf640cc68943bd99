//! The chaos experiment lifecycle: `popper chaos <experiment>`.
//!
//! A chaos run is the ordinary lifecycle with a fault plane switched
//! on: resolve the fault schedule (from `--schedule`/`--seed`
//! overrides, the experiment's `faults:` spec in `vars.pml`, or the
//! `node-crash` default), hand the augmented vars to the experiment's
//! runner (fault-aware runners apply the schedule's
//! [`popper_chaos::FaultSchedule::plane_timeline`] to their simulated
//! cluster), then record `chaos-results.csv`, `faults.json`,
//! `recovery.json` and `chaos-figure.txt` as committed artifacts,
//! beside the `results.csv` and `figure.txt` that `popper run`
//! records, and check the experiment's `chaos.aver` (or the
//! [`popper_chaos::DEFAULT_ASSERTIONS`]) over the results.

use crate::experiment::ExperimentEngine;
use crate::lifecycle::Lifecycle;
use crate::pipeline::{stages, CommitPolicy, Pipeline, RunContext, StageControl};
use crate::repo::PopperRepo;
use popper_aver::Verdict;
use popper_chaos::FaultSchedule;
use popper_format::{json, Table, Value};
use std::fmt;

/// The outcome of one `popper chaos` run.
#[derive(Debug)]
pub struct ChaosRunReport {
    /// Experiment name.
    pub experiment: String,
    /// The resolved fault schedule (what `faults.json` records).
    pub schedule: FaultSchedule,
    /// The results table.
    pub results: Table,
    /// The recovery metrics recorded to `recovery.json`.
    pub metrics: Value,
    /// The Aver verdict over the results (`chaos.aver` or defaults).
    pub verdict: Verdict,
    /// The commit that recorded the artifacts.
    pub commit: Option<popper_vcs::ObjectId>,
}

impl ChaosRunReport {
    /// Did the system survive the schedule (validations hold)?
    pub fn success(&self) -> bool {
        self.verdict.passed
    }

    /// Distill a completed chaos pipeline context into the report.
    pub fn from_ctx(ctx: RunContext) -> Result<ChaosRunReport, String> {
        let schedule = ctx
            .schedule
            .ok_or_else(|| format!("experiment '{}': no fault schedule resolved", ctx.experiment))?;
        let verdict = ctx
            .verdict
            .unwrap_or(Verdict { passed: true, failures: vec![], assertions: 0, groups: 0 });
        Ok(ChaosRunReport {
            experiment: ctx.experiment,
            schedule,
            results: ctx.results.unwrap_or_else(|| Table::new(["empty"])),
            metrics: ctx.metrics,
            verdict,
            commit: ctx.commit,
        })
    }
}

impl fmt::Display for ChaosRunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos '{}' [{} seed {}]: {}",
            self.experiment,
            self.schedule.name,
            self.schedule.seed,
            if self.success() { "SURVIVED" } else { "FAILED" }
        )?;
        writeln!(f, "  faults: {} events over {} nodes", self.schedule.events.len(), self.schedule.nodes)?;
        if let Some(r) = self.metrics.get_num("recovery_ms") {
            writeln!(f, "  recovery: {r:.2} ms")?;
        }
        // What the fraction counts depends on the runner (accesses,
        // pages, halos, ranks), so it is printed as recovery.json has it.
        if let Some(d) = self.metrics.get("degraded_fraction") {
            writeln!(f, "  degraded_fraction: {}", json::to_string(d))?;
        }
        write!(f, "  validation: {}", self.verdict)
    }
}

impl ExperimentEngine {
    /// Run one chaos experiment end to end, uncached, recording its
    /// trace pair as `popper chaos` does. `schedule`/`seed` override the
    /// experiment's own `faults:` spec; with neither, `node-crash` is
    /// assumed.
    pub fn run_chaos(
        &self,
        repo: &mut PopperRepo,
        experiment: &str,
        schedule: Option<&str>,
        seed: Option<u64>,
    ) -> Result<ChaosRunReport, String> {
        let lifecycle = Lifecycle::Chaos { schedule: schedule.map(str::to_string), seed };
        ChaosRunReport::from_ctx(self.run_lifecycle(repo, experiment, &lifecycle, false)?.ctx)
    }

    /// The `popper chaos` stage composition: the ordinary lifecycle
    /// with a fault-arming decorator ahead of the *shared* execute
    /// stage — schedule → execute → record → validate.
    pub fn chaos_pipeline(
        &self,
        repo: &mut PopperRepo,
        ctx: &mut RunContext,
        schedule: Option<&str>,
        seed: Option<u64>,
    ) -> Result<(), String> {
        let runner_name = ctx.runner_name()?;
        if self.runner(runner_name).is_none() {
            return Err(format!("unknown runner '{runner_name}' (registered: {:?})", self.runners()));
        }
        Pipeline::new(format!("chaos {}", ctx.experiment))
            .stage("schedule", arm_faults(schedule.map(str::to_string), seed))
            .stage("execute", stages::execute(self))
            .stage("record", record_chaos())
            .stage("validate", stages::validate(stages::ValidationSource::Chaos))
            .run(repo, ctx)
    }
}

/// The fault-replay decorator: resolve the schedule (overrides >
/// `vars.pml` `faults:` > the `node-crash` default), arm it on the
/// context, and augment the vars so the shared execute stage's runner
/// replays it.
fn arm_faults(
    schedule: Option<String>,
    seed: Option<u64>,
) -> impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> {
    move |_repo, ctx| {
        let mut faults = ctx.vars.get("faults").cloned().unwrap_or_else(Value::empty_map);
        if let Some(name) = schedule {
            faults.insert("schedule", Value::from(name.as_str()));
            faults.remove("events");
        }
        if let Some(seed) = seed {
            faults.insert("seed", Value::from(seed as i64));
        }
        if faults.get("schedule").is_none() && faults.get("events").is_none() {
            faults.insert("schedule", Value::from("node-crash"));
        }
        ctx.vars.insert("faults", faults);
        ctx.schedule = Some(FaultSchedule::from_vars(&ctx.vars)?.ok_or_else(|| {
            format!("experiment '{}': no fault schedule resolved", ctx.experiment)
        })?);
        Ok(StageControl::Continue)
    }
}

/// The chaos record stage: results + fault timeline + recovery
/// metrics + figure, committed as one atomic unit.
fn record_chaos() -> impl FnOnce(&mut PopperRepo, &mut RunContext) -> Result<StageControl, String> {
    move |repo, ctx| {
        let results = ctx.results.as_ref().ok_or("record: no results to record")?;
        let sched = ctx.schedule.as_ref().ok_or("record: no fault schedule armed")?;
        ctx.metrics = recovery_metrics(results, sched);
        let staged = vec![
            (ctx.artifact_path("chaos-results.csv"), results.to_csv()),
            (ctx.artifact_path("faults.json"), sched.to_json()),
            (ctx.artifact_path("recovery.json"), json::to_string_pretty(&ctx.metrics)),
            (ctx.artifact_path("chaos-figure.txt"), results.to_pretty()),
        ];
        for (path, bytes) in staged {
            ctx.artifacts.stage(path, bytes);
        }
        let msg =
            format!("popper chaos {}: record fault timeline + recovery metrics", ctx.experiment);
        ctx.commit = ctx.artifacts.commit_into(repo, &msg, CommitPolicy::Always)?;
        Ok(StageControl::Continue)
    }
}

/// Distill recovery metrics from a chaos results table. Aggregate
/// columns (`recovery_ms`, `degraded_fraction`, `corrupt`) repeat per
/// row, so they reduce by max. Counters add up across epochs: a table
/// with an `epoch` column has one row per epoch, so its counters sum;
/// any other table is one run seen per node, rank or task, each row
/// repeating the run-wide count, so a counter counts once.
fn recovery_metrics(results: &Table, sched: &FaultSchedule) -> Value {
    let mut m = Value::empty_map();
    m.insert("schedule", Value::from(sched.name.as_str()));
    m.insert("seed", Value::from(sched.seed as i64));
    m.insert("faults", Value::from(sched.events.len()));
    let max = |vals: Vec<f64>| vals.into_iter().fold(0.0f64, f64::max);
    let per_epoch = results.column_index("epoch").is_some();
    for name in ["recovery_ms", "degraded_fraction", "corrupt"] {
        if let Ok(vals) = results.numeric_column(name) {
            m.insert(name, Value::Num(max(vals)));
        }
    }
    for name in ["failovers", "reads", "detections", "recovered", "checkpoints", "replayed"] {
        if let Ok(vals) = results.numeric_column(name) {
            m.insert(name, Value::Num(if per_epoch { vals.iter().sum() } else { max(vals) }));
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::find_template;

    fn chaos_repo() -> PopperRepo {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("gassyfs").unwrap().files("g") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("popper add gassyfs g").unwrap();
        repo
    }

    /// A miniature fault-aware runner: shapes its table like the real
    /// gassyfs chaos runner, driven entirely by the `faults:` vars.
    fn stub_engine() -> ExperimentEngine {
        let mut engine = ExperimentEngine::new();
        engine.register("gassyfs-scalability", |vars| {
            let sched = FaultSchedule::from_vars(vars)?.expect("chaos vars present");
            let mut t = Table::new(["schedule", "epoch", "recovery_ms", "degraded_fraction", "corrupt", "failovers"]);
            for epoch in 0..4u32 {
                t.push_row(vec![
                    Value::from(sched.name.as_str()),
                    Value::from(epoch as i64),
                    Value::Num(80.0 + sched.seed as f64),
                    Value::Num(0.2),
                    Value::Num(0.0),
                    Value::Num(epoch as f64),
                ])
                .unwrap();
            }
            Ok(t)
        });
        engine
    }

    #[test]
    fn chaos_lifecycle_records_artifacts_and_validates() {
        let mut repo = chaos_repo();
        let engine = stub_engine();
        let report = engine.run_chaos(&mut repo, "g", Some("node-crash"), Some(7)).unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        assert_eq!(report.schedule.name, "node-crash");
        assert_eq!(report.schedule.seed, 7);
        assert!(repo.exists("experiments/g/chaos-results.csv"));
        assert!(repo.exists("experiments/g/faults.json"));
        assert!(repo.exists("experiments/g/recovery.json"));
        assert!(repo.vcs.status().unwrap().is_empty(), "artifacts must be committed");
        assert_eq!(report.metrics.get_num("recovery_ms"), Some(87.0));
        assert_eq!(report.metrics.get_num("failovers"), Some(6.0));
        let faults = repo.read("experiments/g/faults.json").unwrap();
        assert!(faults.contains("crash"), "{faults}");
    }

    #[test]
    fn same_seed_records_identical_fault_timeline() {
        let run = |seed| {
            let mut repo = chaos_repo();
            stub_engine().run_chaos(&mut repo, "g", Some("gremlin"), Some(seed)).unwrap();
            repo.read("experiments/g/faults.json").unwrap()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }

    #[test]
    fn chaos_aver_overrides_default_assertions() {
        let mut repo = chaos_repo();
        repo.write("experiments/g/chaos.aver", "expect max(recovery_ms) < 1\n").unwrap();
        repo.commit("impossible chaos bound").unwrap();
        let report = stub_engine().run_chaos(&mut repo, "g", None, None).unwrap();
        assert!(!report.success(), "1ms recovery bound must fail");
        // Default schedule kicked in even with no overrides.
        assert_eq!(report.schedule.name, "node-crash");
    }

    #[test]
    fn unknown_runner_is_an_error() {
        let mut repo = chaos_repo();
        let engine = ExperimentEngine::new();
        let err = engine.run_chaos(&mut repo, "g", None, None).unwrap_err();
        assert!(err.contains("unknown runner"), "{err}");
    }
}
