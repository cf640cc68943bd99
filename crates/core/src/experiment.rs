//! The experiment lifecycle engine.
//!
//! `popper run <experiment>` executes the generic workflow of the
//! paper's Figure 1 end to end, with every stage automated:
//!
//! 1. **sanitize** — compare the environment's baseline fingerprint
//!    against the one stored with the experiment; refuse to run on a
//!    platform that cannot reproduce the baseline (§Automated
//!    Validation). The first run records the fingerprint.
//! 2. **orchestrate** — run the experiment's `setup.pml` playbook over
//!    an inventory derived from `vars.pml`.
//! 3. **execute** — invoke the experiment's *runner* (a registered
//!    function; use-case crates provide `gassyfs-scalability`,
//!    `torpor-variability`, `mpi-variability`, `bww-airtemp`; the
//!    engine ships a `synthetic` runner for the remaining templates).
//! 4. **record** — write `results.csv` and `figure.txt` and commit them
//!    ("validate and version the results").
//! 5. **validate** — check `validations.aver` against the results.

use crate::lifecycle::Lifecycle;
use crate::pipeline::{stages, ArtifactSet, CommitPolicy, Pipeline, RunContext, StageControl};
use crate::repo::PopperRepo;
use popper_aver::Verdict;
use popper_format::{Table, Value};
use popper_monitor::{Baseline, BaselineGate, GateOutcome};
use popper_orchestra::{Inventory, Playbook};
use popper_sim::platforms;
use popper_sim::rng::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// A registered experiment runner: vars → results table.
pub type RunnerFn = Box<dyn Fn(&Value) -> Result<Table, String> + Send + Sync>;

/// The outcome of one `popper run`.
#[derive(Debug)]
pub struct RunReport {
    /// Experiment name.
    pub experiment: String,
    /// Baseline-gate outcome.
    pub gate: GateOutcome,
    /// Orchestration recap (empty if the experiment has no playbook).
    pub orchestration: String,
    /// The results table.
    pub results: Table,
    /// The Aver verdict over the results.
    pub verdict: Verdict,
    /// The commit that recorded the results.
    pub commit: Option<popper_vcs::ObjectId>,
}

impl RunReport {
    /// Did everything succeed (gate passed, orchestration ok,
    /// validations hold)?
    pub fn success(&self) -> bool {
        self.gate.may_run() && self.verdict.passed
    }

    /// Distill a completed (or gate-stopped) pipeline context into the
    /// report the callers and tests consume.
    pub fn from_ctx(ctx: RunContext) -> RunReport {
        let gate = ctx.gate.unwrap_or(GateOutcome::Proceed);
        let verdict = ctx.verdict.unwrap_or_else(|| {
            if gate.may_run() {
                Verdict { passed: true, failures: vec![], assertions: 0, groups: 0 }
            } else {
                Verdict {
                    passed: false,
                    failures: vec!["baseline gate blocked execution".into()],
                    assertions: 0,
                    groups: 0,
                }
            }
        });
        RunReport {
            experiment: ctx.experiment,
            gate,
            orchestration: ctx.orchestration,
            results: ctx.results.unwrap_or_else(|| Table::new(["empty"])),
            verdict,
            commit: ctx.commit,
        }
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "experiment '{}': {}", self.experiment, if self.success() { "OK" } else { "FAILED" })?;
        writeln!(f, "  gate: {}", self.gate)?;
        writeln!(f, "  results: {} rows", self.results.len())?;
        write!(f, "  validation: {}", self.verdict)
    }
}

/// The engine: runner registry plus policy knobs.
pub struct ExperimentEngine {
    runners: BTreeMap<String, RunnerFn>,
    /// Baseline-gate relative tolerance (default 25%).
    pub baseline_tolerance: f64,
}

impl Default for ExperimentEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for ExperimentEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ExperimentEngine")
            .field("runners", &self.runners.keys().collect::<Vec<_>>())
            .field("baseline_tolerance", &self.baseline_tolerance)
            .finish()
    }
}

impl ExperimentEngine {
    /// An engine with the built-in `synthetic` runner registered.
    pub fn new() -> Self {
        let mut engine = ExperimentEngine { runners: BTreeMap::new(), baseline_tolerance: 0.25 };
        engine.register("synthetic", synthetic_runner);
        engine
    }

    /// Register a runner by name.
    pub fn register(
        &mut self,
        name: &str,
        f: impl Fn(&Value) -> Result<Table, String> + Send + Sync + 'static,
    ) {
        self.runners.insert(name.to_string(), Box::new(f));
    }

    /// Registered runner names.
    pub fn runners(&self) -> Vec<&str> {
        self.runners.keys().map(String::as_str).collect()
    }

    /// Look up a registered runner by name.
    pub(crate) fn runner(&self, name: &str) -> Option<&RunnerFn> {
        self.runners.get(name)
    }

    /// Run one experiment end to end, uncached. With an ambient
    /// wall-clock [`popper_trace::current`] tracer, each lifecycle stage
    /// records a span on the `core/lifecycle` track.
    pub fn run(&self, repo: &mut PopperRepo, experiment: &str) -> Result<RunReport, String> {
        let finished = self.run_lifecycle(repo, experiment, &Lifecycle::Run, false)?;
        Ok(RunReport::from_ctx(finished.ctx))
    }

    /// The `popper run` stage composition (the paper's Figure 1):
    /// sanitize → orchestrate → execute → record → validate, over a
    /// caller-built context (which may carry a trace recorder).
    pub fn run_pipeline(&self, repo: &mut PopperRepo, ctx: &mut RunContext) -> Result<(), String> {
        let runner_name = ctx.runner_name()?;
        if self.runner(runner_name).is_none() {
            return Err(format!("unknown runner '{runner_name}' (registered: {:?})", self.runners()));
        }
        Pipeline::new(format!("run {}", ctx.experiment))
            .stage("sanitize", |repo, ctx| {
                let gate = self.baseline_gate(repo, &ctx.experiment, &ctx.vars)?;
                let control =
                    if gate.may_run() { StageControl::Continue } else { StageControl::Stop };
                ctx.gate = Some(gate);
                Ok(control)
            })
            .stage("orchestrate", |repo, ctx| {
                ctx.orchestration = self.orchestrate(repo, &ctx.experiment, &ctx.vars)?;
                Ok(StageControl::Continue)
            })
            .stage("execute", stages::execute(self))
            .stage("record", stages::record_results())
            .stage("validate", stages::validate(stages::ValidationSource::Validations))
            .run(repo, ctx)
    }

    /// The baseline fingerprint check. The platform named in
    /// `vars.machine` (default `cloudlab-c220g`) is fingerprinted; the
    /// stored fingerprint lives in `datasets/baseline.csv`.
    fn baseline_gate(
        &self,
        repo: &mut PopperRepo,
        experiment: &str,
        vars: &Value,
    ) -> Result<GateOutcome, String> {
        let machine = vars.get_str("machine").unwrap_or("cloudlab-c220g");
        let platform = platforms::by_name(machine)
            .ok_or_else(|| format!("unknown machine '{machine}' (known: {:?})", platforms::names()))?;
        let current = Baseline::of_platform(&platform);
        let path = format!("experiments/{experiment}/datasets/baseline.csv");
        match repo.read(&path) {
            Some(text) => {
                let table = Table::from_csv(&text).map_err(|e| e.to_string())?;
                let stored = Baseline::from_table(&table)?;
                Ok(BaselineGate::new(stored, self.baseline_tolerance).check(&current))
            }
            None => {
                // First run: record the fingerprint with the experiment.
                let mut set = ArtifactSet::default();
                set.stage(path.as_str(), current.to_table().to_csv());
                set.commit_into(
                    repo,
                    &format!("record baseline fingerprint for '{experiment}'"),
                    CommitPolicy::Always,
                )?;
                Ok(GateOutcome::Proceed)
            }
        }
    }

    /// Run `setup.pml` (if present) against an inventory derived from
    /// the playbook's host patterns and `vars.nodes`.
    fn orchestrate(&self, repo: &PopperRepo, experiment: &str, vars: &Value) -> Result<String, String> {
        let Some(text) = repo.read(&format!("experiments/{experiment}/setup.pml")) else {
            return Ok(String::new());
        };
        let playbook = Playbook::from_pml(&text)?;
        let inventory = inventory_for(&playbook, vars);
        let controller: BTreeMap<String, Vec<u8>> = repo
            .experiment_files(experiment)
            .into_iter()
            .filter_map(|p| {
                let data = repo.vcs.read_file(&p)?.to_vec();
                let rel = p.strip_prefix(&format!("experiments/{experiment}/"))?.to_string();
                Some((rel, data))
            })
            .collect();
        let report = popper_orchestra::run_playbook(
            &playbook,
            &inventory,
            BTreeMap::new(),
            controller,
            popper_trace::current(),
        );
        if !report.success() {
            return Err(format!("orchestration failed:\n{}", report.recap()));
        }
        Ok(report.recap())
    }
}

/// Build an inventory that satisfies a playbook: for every host pattern
/// used by a play, `n` hosts in a group of that name (`n` from
/// `vars.nodes`, a number or a list whose maximum is used; default 3).
/// Scalar vars become host vars so `{{ var }}` templating works.
pub fn inventory_for(playbook: &Playbook, vars: &Value) -> Inventory {
    let n = match vars.get("nodes") {
        Some(Value::Num(n)) => (*n as usize).max(1),
        Some(Value::List(items)) => items
            .iter()
            .filter_map(Value::as_num)
            .fold(1.0f64, f64::max) as usize,
        _ => 3,
    };
    let mut inv = Inventory::new();
    let mut groups: Vec<String> = Vec::new();
    for play in &playbook.plays {
        for pat in play.hosts.split(',').map(str::trim) {
            if pat != "all" && !groups.contains(&pat.to_string()) {
                groups.push(pat.to_string());
            }
        }
    }
    if groups.is_empty() {
        groups.push("node".into());
    }
    let host_vars = {
        let mut m = Value::empty_map();
        if let Some(entries) = vars.as_map() {
            for (k, v) in entries {
                if !matches!(v, Value::Map(_) | Value::List(_)) {
                    m.insert(k.clone(), v.clone());
                }
            }
        }
        m
    };
    for group in &groups {
        for i in 0..n {
            inv.add(popper_orchestra::Host {
                name: format!("{group}{i}"),
                groups: vec![group.clone()],
                vars: host_vars.clone(),
            });
        }
    }
    inv
}

/// The built-in `synthetic` runner: produces a `(workload, machine, x,
/// y)` table from a declarative model in vars:
///
/// ```text
/// workload: rados-bench-write
/// machine: cloudlab-c220g
/// model: {trend: sublinear, base: 120, factor: 0.55, noise: 0.01, seed: 1}
/// xs: [1, 2, 4, 8]
/// ```
pub fn synthetic_runner(vars: &Value) -> Result<Table, String> {
    // The synthetic model has no sharded world: asking it to shard
    // (via vars or the CLI's --sim-workers) is a configuration error,
    // not a silent no-op — the same contract the use-case runners
    // enforce.
    if vars.get("sim_workers").is_some() || std::env::var("POPPER_SIM_WORKERS").is_ok() {
        return Err(
            "runner 'synthetic' has no sharded world; drop 'sim_workers:' / --sim-workers"
                .to_string(),
        );
    }
    let workload = vars.get_str("workload").unwrap_or("synthetic");
    let machine = vars.get_str("machine").unwrap_or("cloudlab-c220g");
    let model = vars.get("model").ok_or("synthetic runner needs a 'model'")?;
    let trend = model.get_str("trend").ok_or("model needs 'trend'")?;
    let base = model.get_num("base").ok_or("model needs 'base'")?;
    let factor = model.get_num("factor").unwrap_or(1.0);
    let noise = model.get_num("noise").unwrap_or(0.0);
    let seed = model.get_num("seed").unwrap_or(0.0) as u64;
    let xs: Vec<f64> = vars
        .get_list("xs")
        .ok_or("synthetic runner needs 'xs'")?
        .iter()
        .filter_map(Value::as_num)
        .collect();
    if xs.is_empty() {
        return Err("'xs' has no numeric entries".into());
    }
    let mut rng = Rng::new(seed);
    let mut t = Table::new(["workload", "machine", "x", "y"]);
    for &x in &xs {
        let y = match trend {
            "linear" => base * factor * x,
            "sublinear" => base * x.powf(factor.clamp(0.05, 0.95)),
            "superlinear" => base * x.powf(factor.max(1.1)),
            "constant" => base,
            other => return Err(format!("unknown trend '{other}'")),
        };
        let jitter = 1.0 + noise * (rng.f64() - 0.5) * 2.0;
        t.push_row(vec![
            Value::from(workload),
            Value::from(machine),
            Value::Num(x),
            Value::Num(y * jitter),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::templates::find_template;

    fn repo_with(tpl: &str, name: &str) -> PopperRepo {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template(tpl).unwrap().files(name) {
            repo.write(&path, contents).unwrap();
        }
        repo.commit(&format!("popper add {tpl} {name}")).unwrap();
        repo
    }

    #[test]
    fn synthetic_template_runs_end_to_end() {
        let mut repo = repo_with("ceph-rados", "rados");
        let engine = ExperimentEngine::new();
        let report = engine.run(&mut repo, "rados").unwrap();
        assert!(report.success(), "{report}");
        assert!(report.gate.may_run());
        assert_eq!(report.results.len(), 4);
        assert!(report.orchestration.contains("PLAY RECAP"));
        // Artifacts were recorded and committed.
        assert!(repo.exists("experiments/rados/results.csv"));
        assert!(repo.exists("experiments/rados/figure.txt"));
        assert!(repo.exists("experiments/rados/datasets/baseline.csv"));
        assert!(repo.vcs.status().unwrap().is_empty());
    }

    #[test]
    fn all_synthetic_templates_run_and_validate() {
        for tpl in ["ceph-rados", "cloverleaf", "spark-standalone", "proteustm", "zlog", "malacology"] {
            let mut repo = repo_with(tpl, "e");
            let engine = ExperimentEngine::new();
            let report = engine.run(&mut repo, "e").unwrap();
            assert!(report.success(), "template {tpl}: {:?}", report.verdict.failures);
        }
    }

    #[test]
    fn custom_runner_is_used() {
        let mut repo = repo_with("gassyfs", "g");
        let mut engine = ExperimentEngine::new();
        engine.register("gassyfs-scalability", |vars| {
            let nodes: Vec<f64> =
                vars.get_list("nodes").unwrap().iter().filter_map(Value::as_num).collect();
            let mut t = Table::new(["workload", "machine", "nodes", "time"]);
            for n in nodes {
                t.push_row(vec![
                    Value::from("git"),
                    Value::from("gassyfs-node"),
                    Value::Num(n),
                    Value::Num(100.0 * n.powf(0.4)),
                ])
                .unwrap();
            }
            Ok(t)
        });
        let report = engine.run(&mut repo, "g").unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        assert_eq!(report.results.len(), 5);
    }

    #[test]
    fn unknown_runner_errors() {
        let mut repo = repo_with("gassyfs", "g");
        let engine = ExperimentEngine::new(); // gassyfs runner not registered
        let err = engine.run(&mut repo, "g").unwrap_err();
        assert!(err.contains("unknown runner 'gassyfs-scalability'"));
    }

    #[test]
    fn failing_validation_reports_failure() {
        let mut repo = repo_with("ceph-rados", "e");
        repo.write("experiments/e/validations.aver", "expect max(y) < 0\n").unwrap();
        repo.commit("impossible validation").unwrap();
        let engine = ExperimentEngine::new();
        let report = engine.run(&mut repo, "e").unwrap();
        assert!(!report.success());
        assert!(!report.verdict.passed);
        // Results are still recorded (the falsification is preserved!).
        assert!(repo.exists("experiments/e/results.csv"));
    }

    #[test]
    fn baseline_gate_blocks_platform_changes() {
        let mut repo = repo_with("ceph-rados", "e");
        let engine = ExperimentEngine::new();
        // First run records the cloudlab fingerprint.
        engine.run(&mut repo, "e").unwrap();
        // Re-point the experiment at a very different machine.
        let vars = repo.read("experiments/e/vars.pml").unwrap();
        repo.write("experiments/e/vars.pml", vars.replace("cloudlab-c220g", "xeon-2006"))
            .unwrap();
        repo.commit("move to old machine").unwrap();
        let report = engine.run(&mut repo, "e").unwrap();
        assert!(!report.gate.may_run(), "{}", report.gate);
        assert!(!report.success());
        assert!(report.commit.is_none(), "no results recorded when gated");
    }

    #[test]
    fn rerun_on_same_platform_passes_gate() {
        let mut repo = repo_with("ceph-rados", "e");
        let engine = ExperimentEngine::new();
        engine.run(&mut repo, "e").unwrap();
        let report = engine.run(&mut repo, "e").unwrap();
        assert!(report.gate.may_run());
        assert!(report.success());
    }

    #[test]
    fn synthetic_runner_trends() {
        let run = |trend: &str, factor: f64| -> Vec<f64> {
            let mut vars = Value::empty_map();
            vars.insert("workload", Value::from("w"));
            let mut model = Value::empty_map();
            model.insert("trend", Value::from(trend));
            model.insert("base", Value::from(10i64));
            model.insert("factor", Value::Num(factor));
            vars.insert("model", model);
            vars.insert("xs", Value::from(vec![1i64, 2, 4, 8]));
            synthetic_runner(&vars).unwrap().numeric_column("y").unwrap()
        };
        let lin = run("linear", 1.0);
        assert_eq!(lin, vec![10.0, 20.0, 40.0, 80.0]);
        let sub = run("sublinear", 0.5);
        assert!((sub[3] - 10.0 * 8f64.sqrt()).abs() < 1e-9);
        let cons = run("constant", 1.0);
        assert!(cons.iter().all(|&y| y == 10.0));
        assert!(synthetic_runner(&Value::empty_map()).is_err());
    }

    #[test]
    fn inventory_scales_with_vars() {
        let pb = Playbook::from_pml("- name: p\n  hosts: osds,monitors\n  tasks: []\n").unwrap();
        let mut vars = Value::empty_map();
        vars.insert("nodes", Value::from(vec![1i64, 2, 8]));
        let inv = inventory_for(&pb, &vars);
        assert_eq!(inv.select("osds").len(), 8);
        assert_eq!(inv.select("monitors").len(), 8);
        // Scalars flow into host vars.
        let mut vars = Value::empty_map();
        vars.insert("nodes", Value::from(2i64));
        vars.insert("workload", Value::from("git"));
        let pb = Playbook::from_pml("- name: p\n  hosts: all\n  tasks: []\n").unwrap();
        let inv = inventory_for(&pb, &vars);
        assert_eq!(inv.select("all").len(), 2);
        assert_eq!(inv.hosts()[0].vars.get_str("workload"), Some("git"));
    }
}

#[cfg(test)]
mod figure_tests {
    use super::*;
    use crate::templates::find_template;

    #[test]
    fn figure_spec_renders_svg_and_ascii() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("ceph-rados").unwrap().files("e") {
            let contents = if path.ends_with("vars.pml") {
                format!("{contents}figure:\n  kind: line\n  title: RADOS scaling\n  x: x\n  y: y\n")
            } else {
                contents
            };
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = ExperimentEngine::new();
        let report = engine.run(&mut repo, "e").unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        let svg = repo.read("experiments/e/figure.svg").unwrap();
        assert!(svg.starts_with("<svg"));
        assert!(svg.contains("RADOS scaling"));
        let ascii = repo.read("experiments/e/figure.txt").unwrap();
        assert!(ascii.contains('*'), "{ascii}");
    }

    #[test]
    fn without_spec_figure_is_pretty_table() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("zlog").unwrap().files("z") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = ExperimentEngine::new();
        engine.run(&mut repo, "z").unwrap();
        assert!(!repo.exists("experiments/z/figure.svg"));
        let txt = repo.read("experiments/z/figure.txt").unwrap();
        assert!(txt.contains("workload"));
    }

    #[test]
    fn bad_figure_spec_is_a_run_error() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("zlog").unwrap().files("z") {
            let contents = if path.ends_with("vars.pml") {
                format!("{contents}figure:\n  kind: line\n  x: nope\n  y: y\n")
            } else {
                contents
            };
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = ExperimentEngine::new();
        let err = engine.run(&mut repo, "z").unwrap_err();
        assert!(err.contains("nope"), "{err}");
    }
}
