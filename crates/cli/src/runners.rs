//! Registration of the real experiment runners.
//!
//! Each use-case crate exposes its experiment as a library function;
//! these adapters translate `vars.pml` into the crate's configuration
//! and its results into a table. This is the "toolchain agnosticism"
//! seam: the engine only knows runner names.

use popper_core::ExperimentEngine;
use popper_format::{Table, Value};
use popper_gassyfs::experiment as gassyfs_exp;
use popper_gassyfs::workload::CompileWorkload;
use popper_minimpi::experiment as mpi_exp;
use popper_minimpi::lulesh::LuleshConfig;
use popper_sim::platforms;
use popper_torpor::experiment as torpor_exp;
use popper_weather::{analyze, generate, ReanalysisConfig};

/// Which runs of a runner drive a sharded world, and so take
/// `sim_workers:` / `--sim-workers`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Sharding {
    /// Every run.
    Always,
    /// Only a chaos run (one with a `faults:` spec).
    Chaos,
    /// None: the runner rejects the flag.
    Never,
}

type Runner = fn(&Value) -> Result<Table, String>;

/// The use-case runners: name, entry point, and which runs shard.
pub(crate) const RUNNERS: [(&str, Runner, Sharding); 9] = [
    ("gassyfs-scalability", gassyfs_runner, Sharding::Chaos),
    ("torpor-variability", torpor_runner, Sharding::Never),
    ("mpi-variability", mpi_runner, Sharding::Chaos),
    ("lulesh-chaos", lulesh_chaos_runner, Sharding::Always),
    ("lulesh-sharded", lulesh_sharded_runner, Sharding::Always),
    ("gassyfs-sharded", gassyfs_sharded_runner, Sharding::Always),
    ("orchestra-sharded", orchestra_sharded_runner, Sharding::Always),
    ("farm-sharded", farm_sharded_runner, Sharding::Always),
    ("bww-airtemp", bww_runner, Sharding::Never),
];

/// Register the use-case runners with an engine.
pub fn register_builtin_runners(engine: &mut ExperimentEngine) {
    for (name, runner, _) in RUNNERS {
        engine.register(name, runner);
    }
}

/// The runners that take `--sim-workers`, as a phrase:
/// "a, b, and the chaos modes of c and d".
pub(crate) fn sharded_runners() -> String {
    let named = |sharding| RUNNERS.iter().filter(|r| r.2 == sharding).map(|r| r.0).collect::<Vec<_>>();
    let chaos = named(Sharding::Chaos);
    let chaos = match chaos.split_last() {
        Some((last, [])) => last.to_string(),
        Some((last, rest)) => format!("{} and {last}", rest.join(", ")),
        None => return named(Sharding::Always).join(", "),
    };
    format!("{}, and the chaos modes of {chaos}", named(Sharding::Always).join(", "))
}

/// Parse the worker count for a sharded runner from `sim_workers:` (or
/// the CLI's `--sim-workers`, via `POPPER_SIM_WORKERS`).
fn sharded_workers(vars: &Value) -> Result<usize, String> {
    match vars.get_num("sim_workers") {
        Some(w) if w >= 1.0 => Ok(w as usize),
        Some(w) => Err(format!("'sim_workers' must be >= 1, got {w}")),
        None => Ok(popper_sim::shard::configured_workers()),
    }
}

/// Guard for runners whose healthy mode has no sharded world: asking
/// them to shard is a configuration error, not a silent no-op.
fn reject_sim_workers(vars: &Value, runner: &str) -> Result<(), String> {
    if vars.get("sim_workers").is_some() || std::env::var("POPPER_SIM_WORKERS").is_ok() {
        return Err(format!(
            "runner '{runner}' has no sharded world; drop 'sim_workers:' / --sim-workers \
             (sharded runners: {})",
            sharded_runners()
        ));
    }
    Ok(())
}

/// A sharded runner's chaos schedule must fit its world: every shard a
/// fault event targets must exist. The schedule's node count comes
/// from `faults.nodes` (else the top-level `nodes`, else 8 — see
/// [`popper_chaos::FaultSchedule::from_vars`]), so a smaller world
/// needs it set explicitly.
fn check_schedule_fits(
    schedule: &popper_chaos::FaultSchedule,
    world_nodes: usize,
    runner: &str,
) -> Result<(), String> {
    if schedule.nodes > world_nodes {
        return Err(format!(
            "runner '{runner}': fault schedule '{}' targets {} nodes but the world has \
             {world_nodes} shards; set 'faults: nodes:' to the world size",
            schedule.name, schedule.nodes
        ));
    }
    Ok(())
}

/// An engine with both the synthetic and the use-case runners.
pub fn full_engine() -> ExperimentEngine {
    let mut engine = ExperimentEngine::new();
    register_builtin_runners(&mut engine);
    engine
}

fn num_list(vars: &Value, key: &str) -> Option<Vec<f64>> {
    vars.get_list(key)
        .map(|l| l.iter().filter_map(Value::as_num).collect())
}

fn gassyfs_runner(vars: &Value) -> Result<Table, String> {
    // A `faults:` spec flips the runner into chaos mode: the sharded
    // world's replicated write path, sized by the schedule's node
    // count, with the fault schedule landing mid-run.
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        let machine = vars.get_str("machine").unwrap_or("gassyfs-node");
        let platform =
            platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
        let config = popper_gassyfs::ShardedGassyConfig { nodes: schedule.nodes.max(2), ..Default::default() };
        return Ok(gassyfs_chaos_table(&config, &platform, machine, sharded_workers(vars)?, &schedule));
    }
    reject_sim_workers(vars, "gassyfs-scalability")?;
    let nodes: Vec<usize> = num_list(vars, "nodes")
        .unwrap_or_else(|| vec![1.0, 2.0, 4.0, 8.0, 16.0])
        .into_iter()
        .map(|n| n.max(1.0) as usize)
        .collect();
    let machine = vars.get_str("machine").unwrap_or("gassyfs-node");
    let platform = platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let mut workload = CompileWorkload::git();
    if let Some(tu) = vars.get_num("translation_units") {
        workload.translation_units = tu.max(1.0) as usize;
    }
    if let Some(jobs) = vars.get_num("jobs") {
        workload.jobs = jobs.max(1.0) as usize;
    }
    let config = gassyfs_exp::ScalabilityConfig {
        node_counts: nodes,
        platform,
        workload,
        machine_label: machine.to_string(),
        ..Default::default()
    };
    let points = gassyfs_exp::run_scalability(&config).map_err(|e| e.to_string())?;
    let workload_name = vars.get_str("workload").unwrap_or("git");
    Ok(gassyfs_exp::to_table(&points, workload_name, machine))
}

fn torpor_runner(vars: &Value) -> Result<Table, String> {
    reject_sim_workers(vars, "torpor-variability")?;
    let base_name = vars.get_str("base").unwrap_or("xeon-2006");
    let base =
        platforms::by_name(base_name).ok_or_else(|| format!("unknown base machine '{base_name}'"))?;
    let targets = match vars.get_list("targets") {
        Some(list) => list
            .iter()
            .filter_map(Value::as_str)
            .map(|n| platforms::by_name(n).ok_or_else(|| format!("unknown target machine '{n}'")))
            .collect::<Result<Vec<_>, _>>()?,
        None => vec![platforms::cloudlab_c220g()],
    };
    let config = torpor_exp::VariabilityExperiment {
        base,
        targets,
        units: vars.get_num("units").unwrap_or(1.0),
        bin_width: vars.get_num("bin_width").unwrap_or(0.1),
    };
    let results = torpor_exp::run_variability_experiment(&config);
    Ok(torpor_exp::results_table(&results))
}

/// Decode the shared LULESH app shape (`grid`, `elements`,
/// `iterations`) used by both MPI runners.
fn lulesh_app(vars: &Value) -> Result<LuleshConfig, String> {
    let grid = num_list(vars, "grid").unwrap_or_else(|| vec![3.0, 3.0, 3.0]);
    if grid.len() != 3 {
        return Err("'grid' must have three entries".into());
    }
    let mut app = LuleshConfig::paper();
    app.grid = (grid[0] as usize, grid[1] as usize, grid[2] as usize);
    if let Some(e) = vars.get_num("elements") {
        app.elements_per_rank = e.max(2.0) as usize;
    }
    if let Some(i) = vars.get_num("iterations") {
        app.iterations = i.max(1.0) as usize;
    }
    Ok(app)
}

fn mpi_runner(vars: &Value) -> Result<Table, String> {
    // A `faults:` spec flips the runner into chaos mode: the sharded
    // LULESH proxy, with the configured recovery policy (shrink /
    // checkpoint-restart) resolving the rank failures the schedule
    // causes; the table carries recovery metrics.
    if vars.get("faults").is_some() {
        return lulesh_chaos_runner(vars);
    }
    reject_sim_workers(vars, "mpi-variability")?;
    let app = lulesh_app(vars)?;
    let machine = vars.get_str("machine").unwrap_or("hpc-node");
    let platform = platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let study = mpi_exp::VariabilityStudy {
        app,
        platform,
        nodes: vars.get_num("nodes").unwrap_or(9.0).max(1.0) as usize,
        repetitions: vars.get_num("repetitions").unwrap_or(10.0).max(1.0) as usize,
        seed: vars.get_num("seed").unwrap_or(7.0) as u64,
        ..Default::default()
    };
    let result = mpi_exp::run_variability_study(&study);
    Ok(result.to_table())
}

/// The fault-tolerant LULESH experiment: the sharded proxy, ranks
/// round-robin over the schedule's nodes, run to completion while the
/// schedule plays out, rank failures resolved per `faults.policy`
/// (`shrink` or `checkpoint-restart`). One row per communicator epoch,
/// identical at every worker count.
fn lulesh_chaos_runner(vars: &Value) -> Result<Table, String> {
    let schedule = popper_chaos::FaultSchedule::from_vars(vars)?.ok_or_else(|| {
        "lulesh-chaos needs a 'faults:' spec (run it via 'popper chaos')".to_string()
    })?;
    let policy = popper_minimpi::RecoveryPolicy::from_vars(vars)?;
    let machine = vars.get_str("machine").unwrap_or("hpc-node");
    let platform =
        platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let run = popper_minimpi::run_sharded_recovery(
        &lulesh_app(vars)?,
        &platform,
        sharded_workers(vars)?,
        schedule.nodes,
        schedule.seed,
        schedule.plane_timeline(),
        policy,
    );
    let mut t = Table::new([
        "schedule",
        "policy",
        "epoch",
        "ranks",
        "steps",
        "detections",
        "checkpoints",
        "replayed",
        "failovers",
        "recovery_ms",
        "degraded_fraction",
        "corrupt",
        "time_ms",
    ]);
    for (epoch, e) in run.epochs.iter().enumerate() {
        t.push_row(vec![
            Value::from(schedule.name.as_str()),
            Value::from(policy.label()),
            Value::from(epoch),
            Value::from(e.ranks),
            Value::from(e.steps),
            Value::from(e.detections as usize),
            Value::from(e.checkpoints),
            Value::from(e.replayed),
            Value::from(e.ranks_lost),
            Value::Num(e.recovery_ms),
            Value::Num(e.degraded_fraction),
            Value::from(usize::from(run.corrupt)),
            Value::Num(e.end.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

/// The sharded LULESH proxy: one shard per rank, run across the worker
/// count from `sim_workers:` (or the CLI's `--sim-workers`, via
/// `POPPER_SIM_WORKERS`). One row per rank; the table is identical at
/// every worker count, so an Aver gate over it doubles as a
/// determinism check.
fn lulesh_sharded_runner(vars: &Value) -> Result<Table, String> {
    let app = lulesh_app(vars)?;
    let machine = vars.get_str("machine").unwrap_or("hpc-node");
    let platform =
        platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let workers = sharded_workers(vars)?;
    // A `faults:` spec flips the runner into chaos mode: the same
    // sharded proxy, but the schedule lands at epoch barriers mid-run
    // and ranks retry halos with backoff; the table carries the
    // recovery metrics the chaos gate asserts on.
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        check_schedule_fits(&schedule, app.ranks(), "lulesh-sharded")?;
        let run = popper_minimpi::run_sharded_chaos(
            &app,
            &platform,
            workers,
            schedule.seed,
            schedule.plane_timeline(),
        );
        let mut t = Table::new([
            "schedule",
            "machine",
            "workers",
            "epochs",
            "rank",
            "finish_ms",
            "elapsed_ms",
            "detections",
            "recovered",
            "recovery_ms",
            "degraded_fraction",
            "corrupt",
        ]);
        for (rank, finish) in run.per_rank_finish.iter().enumerate() {
            t.push_row(vec![
                Value::from(schedule.name.as_str()),
                Value::from(machine),
                Value::from(run.workers),
                Value::from(run.epochs as usize),
                Value::from(rank),
                Value::Num(finish.as_millis_f64()),
                Value::Num(run.elapsed.as_millis_f64()),
                Value::from(run.detections as usize),
                Value::from(run.recovered as usize),
                Value::Num(run.recovery_ms),
                Value::Num(run.degraded_fraction),
                Value::from(run.lost as usize),
            ])
            .expect("fixed schema");
        }
        return Ok(t);
    }
    let run = popper_minimpi::run_sharded(&app, &platform, workers);
    let mut t = Table::new(["machine", "workers", "epochs", "rank", "finish_ms", "elapsed_ms"]);
    for (rank, finish) in run.per_rank_finish.iter().enumerate() {
        t.push_row(vec![
            Value::from(machine),
            Value::from(run.workers),
            Value::from(run.epochs as usize),
            Value::from(rank),
            Value::Num(finish.as_millis_f64()),
            Value::Num(run.elapsed.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

/// The sharded GassyFS world: one shard per gasnet node, page writes
/// replicated primary-then-replica through the shard-native fabric.
/// One row per node; like every sharded runner, the table is identical
/// at every worker count.
fn gassyfs_sharded_runner(vars: &Value) -> Result<Table, String> {
    let machine = vars.get_str("machine").unwrap_or("gassyfs-node");
    let platform =
        platforms::by_name(machine).ok_or_else(|| format!("unknown machine '{machine}'"))?;
    let mut config = popper_gassyfs::ShardedGassyConfig::default();
    if let Some(n) = vars.get_num("nodes") {
        config.nodes = n.max(2.0) as usize;
    }
    if let Some(p) = vars.get_num("pages") {
        config.pages = p.max(1.0) as u64;
    }
    if let Some(s) = vars.get_num("streams") {
        config.streams = s.max(1.0) as usize;
    }
    let workers = sharded_workers(vars)?;
    // Chaos mode: the same sharded write path, but the schedule lands
    // at epoch barriers mid-run and the client fails over to replicas.
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        check_schedule_fits(&schedule, config.nodes, "gassyfs-sharded")?;
        return Ok(gassyfs_chaos_table(&config, &platform, machine, workers, &schedule));
    }
    let report = popper_gassyfs::shardworld::run_sharded(&config, &platform, workers);
    let mut t = Table::new([
        "machine",
        "workers",
        "epochs",
        "node",
        "primary_pages",
        "replica_pages",
        "tx_bytes",
        "rx_bytes",
        "elapsed_ms",
    ]);
    for node in 0..config.nodes {
        t.push_row(vec![
            Value::from(machine),
            Value::from(report.workers),
            Value::from(report.epochs as usize),
            Value::from(node),
            Value::from(report.per_node_primary[node] as usize),
            Value::from(report.per_node_replica[node] as usize),
            Value::from(report.traffic[node].tx_bytes as usize),
            Value::from(report.traffic[node].rx_bytes as usize),
            Value::Num(report.elapsed.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

/// The sharded GassyFS world's chaos table: one row per node, the
/// run's recovery metrics repeated on each.
fn gassyfs_chaos_table(
    config: &popper_gassyfs::ShardedGassyConfig,
    platform: &popper_sim::PlatformSpec,
    machine: &str,
    workers: usize,
    schedule: &popper_chaos::FaultSchedule,
) -> Table {
    let report = popper_gassyfs::shardworld::run_sharded_chaos(
        config,
        platform,
        workers,
        schedule.seed,
        schedule.plane_timeline(),
    );
    let mut t = Table::new([
        "schedule",
        "machine",
        "workers",
        "epochs",
        "node",
        "primary_pages",
        "replica_pages",
        "failovers",
        "detections",
        "recovery_ms",
        "degraded_fraction",
        "corrupt",
        "elapsed_ms",
    ]);
    for node in 0..config.nodes {
        t.push_row(vec![
            Value::from(schedule.name.as_str()),
            Value::from(machine),
            Value::from(report.workers),
            Value::from(report.epochs as usize),
            Value::from(node),
            Value::from(report.per_node_primary[node] as usize),
            Value::from(report.per_node_replica[node] as usize),
            Value::from(report.failovers as usize),
            Value::from(report.detections as usize),
            Value::Num(report.recovery_ms),
            Value::Num(report.degraded_fraction),
            Value::from(report.lost as usize),
            Value::Num(report.elapsed.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    t
}

/// The sharded orchestra world: one shard per managed host plus the
/// controller, playbook tasks fanned out and collected through the
/// shard-native fabric. One row per task.
fn orchestra_sharded_runner(vars: &Value) -> Result<Table, String> {
    let mut config = popper_orchestra::ShardedOrchestraConfig::default();
    if let Some(h) = vars.get_num("hosts") {
        config.hosts = h.max(1.0) as usize;
    }
    if let Some(t) = vars.get_num("tasks") {
        config.tasks = t.max(1.0) as usize;
    }
    if let Some(s) = vars.get_num("seed") {
        config.seed = s as u64;
    }
    let workers = sharded_workers(vars)?;
    // Chaos mode: the same linear strategy, but the schedule lands at
    // epoch barriers mid-playbook and RPCs retry with backoff.
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        check_schedule_fits(&schedule, config.hosts + 1, "orchestra-sharded")?;
        let report = popper_orchestra::shardworld::run_sharded_chaos(
            &config,
            workers,
            schedule.seed,
            schedule.plane_timeline(),
        );
        let mut t = Table::new([
            "schedule",
            "hosts",
            "workers",
            "epochs",
            "task",
            "finish_ms",
            "elapsed_ms",
            "detections",
            "recovered",
            "recovery_ms",
            "degraded_fraction",
            "corrupt",
        ]);
        for (task, finish) in report.task_finish.iter().enumerate() {
            t.push_row(vec![
                Value::from(schedule.name.as_str()),
                Value::from(config.hosts),
                Value::from(report.workers),
                Value::from(report.epochs as usize),
                Value::from(task),
                Value::Num(finish.as_millis_f64()),
                Value::Num(report.elapsed.as_millis_f64()),
                Value::from(report.detections as usize),
                Value::from(report.recovered as usize),
                Value::Num(report.recovery_ms),
                Value::Num(report.degraded_fraction),
                Value::from(report.lost as usize),
            ])
            .expect("fixed schema");
        }
        return Ok(t);
    }
    let report = popper_orchestra::shardworld::run_sharded(&config, workers);
    let mut t =
        Table::new(["hosts", "workers", "epochs", "task", "finish_ms", "elapsed_ms"]);
    for (task, finish) in report.task_finish.iter().enumerate() {
        t.push_row(vec![
            Value::from(config.hosts),
            Value::from(report.workers),
            Value::from(report.epochs as usize),
            Value::from(task),
            Value::Num(finish.as_millis_f64()),
            Value::Num(report.elapsed.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

/// The sharded farm model: one shard per tenant pipeline plus the
/// shared chunk store, archives shipped through the shard-native
/// fabric. One row per tenant. A `faults:` spec flips it into chaos
/// mode — the schedule lands at epoch barriers mid-run and tenants
/// requeue failed archives with backoff (the service's worker-crash
/// requeue, projected onto the store link).
fn farm_sharded_runner(vars: &Value) -> Result<Table, String> {
    let mut config = popper_farm::FarmSimConfig::default();
    if let Some(t) = vars.get_num("tenants") {
        config.tenants = t.max(1.0) as usize;
    }
    if let Some(j) = vars.get_num("jobs") {
        config.jobs_per_tenant = j.max(1.0) as usize;
    }
    if let Some(s) = vars.get_num("seed") {
        config.seed = s as u64;
    }
    let workers = sharded_workers(vars)?;
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        check_schedule_fits(&schedule, config.tenants + 1, "farm-sharded")?;
        let report = popper_farm::simulate_chaos(
            &config,
            workers,
            schedule.seed,
            schedule.plane_timeline(),
        );
        let mut t = Table::new([
            "schedule",
            "tenants",
            "workers",
            "epochs",
            "tenant",
            "finish_ms",
            "requeued",
            "recovered",
            "recovery_ms",
            "degraded_fraction",
            "corrupt",
            "elapsed_ms",
        ]);
        for (tenant, finish) in report.tenant_finish.iter().enumerate() {
            t.push_row(vec![
                Value::from(schedule.name.as_str()),
                Value::from(config.tenants),
                Value::from(report.workers),
                Value::from(report.epochs as usize),
                Value::from(tenant),
                Value::Num(finish.as_millis_f64()),
                Value::from(report.requeued as usize),
                Value::from(report.recovered as usize),
                Value::Num(report.recovery_ms),
                Value::Num(report.degraded_fraction),
                Value::from(report.lost as usize),
                Value::Num(report.elapsed.as_millis_f64()),
            ])
            .expect("fixed schema");
        }
        return Ok(t);
    }
    let report = popper_farm::simulate(&config, workers);
    let mut t = Table::new([
        "tenants",
        "workers",
        "tenant",
        "finish_ms",
        "store_jobs",
        "store_bytes",
        "elapsed_ms",
    ]);
    for (tenant, finish) in report.tenant_finish.iter().enumerate() {
        t.push_row(vec![
            Value::from(config.tenants),
            Value::from(workers.max(1)),
            Value::from(tenant),
            Value::Num(finish.as_millis_f64()),
            Value::from(report.store_jobs as usize),
            Value::from(report.store_bytes as usize),
            Value::Num(report.elapsed.as_millis_f64()),
        ])
        .expect("fixed schema");
    }
    Ok(t)
}

fn bww_runner(vars: &Value) -> Result<Table, String> {
    reject_sim_workers(vars, "bww-airtemp")?;
    let mut config = ReanalysisConfig::default();
    if let Some(y) = vars.get_num("years") {
        config.years = y.max(1.0) as usize;
    }
    if let Some(grid) = num_list(vars, "grid") {
        if grid.len() == 2 {
            config.n_lat = (grid[0] as usize).max(2);
            config.n_lon = (grid[1] as usize).max(2);
        }
    }
    // A `faults:` spec flips the runner into chaos mode: the same
    // dataset, but fetched chunk-by-chunk from datapackage mirrors
    // under the fault schedule, with retry/backoff and failover; the
    // table carries the recovery metrics the chaos gate asserts on.
    if let Some(schedule) = popper_chaos::FaultSchedule::from_vars(vars)? {
        let mut fetch = popper_weather::FetchConfig { data: config, ..Default::default() };
        if let Some(b) = vars.get_num("fetch_ms") {
            fetch.base_ms = b.max(0.1);
        }
        let report = popper_weather::fetch_with_faults(&fetch, &schedule)?;
        return Ok(popper_weather::chaos::to_table(&report));
    }
    let data = generate(&config);
    let analysis = analyze(&data);
    Ok(analysis.zonal_table())
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_core::{templates::find_template, PopperRepo};

    fn run_template(tpl: &str) -> popper_core::RunReport {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template(tpl).unwrap().files("e") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = full_engine();
        engine.run(&mut repo, "e").unwrap()
    }

    #[test]
    fn gassyfs_template_runs_and_validates() {
        // Use the template but shrink the workload for test speed.
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("gassyfs").unwrap().files("e") {
            let contents = if path.ends_with("vars.pml") {
                format!("{contents}translation_units: 60\njobs: 4\n")
            } else {
                contents
            };
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = full_engine();
        let report = engine.run(&mut repo, "e").unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        assert_eq!(report.results.len(), 5);
        // The recorded CSV carries the paper's columns.
        let csv = repo.read("experiments/e/results.csv").unwrap();
        assert!(csv.starts_with("workload,machine,nodes,time"));
    }

    #[test]
    fn torpor_template_runs_and_validates() {
        let report = run_template("torpor");
        assert!(report.success(), "{:?}", report.verdict.failures);
        // 3 targets × battery size rows.
        assert_eq!(report.results.len() % 3, 0);
        assert!(report.results.len() >= 48);
    }

    #[test]
    fn mpi_template_runs_and_validates() {
        let report = run_template("mpi-comm-variability");
        assert!(report.success(), "{:?}", report.verdict.failures);
        // 3 scenarios × 8 repetitions.
        assert_eq!(report.results.len(), 24);
    }

    #[test]
    fn bww_template_runs_and_validates() {
        let report = run_template("jupyter-bww");
        assert!(report.success(), "{:?}", report.verdict.failures);
        assert_eq!(report.results.len(), 19);
    }

    #[test]
    fn bww_chaos_fetch_survives_node_crash() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("jupyter-bww").unwrap().files("e") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = full_engine();
        let report = engine.run_chaos(&mut repo, "e", Some("node-crash"), Some(7)).unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        // The fetch failed over and the template's tighter degraded
        // bound (25% of the record) held.
        assert!(report.metrics.get_num("failovers").unwrap_or(0.0) > 0.0);
        assert!(report.metrics.get_num("degraded_fraction").unwrap() <= 0.25);
        assert_eq!(report.metrics.get_num("corrupt"), Some(0.0));
        let csv = repo.read("experiments/e/chaos-results.csv").unwrap();
        assert!(csv.starts_with("schedule,mirrors,epoch"), "{csv}");
    }

    #[test]
    fn bww_chaos_same_seed_is_byte_identical() {
        let run = |seed| {
            let mut repo = PopperRepo::init("t").unwrap();
            for (path, contents) in find_template("jupyter-bww").unwrap().files("e") {
                repo.write(&path, contents).unwrap();
            }
            repo.commit("add").unwrap();
            full_engine().run_chaos(&mut repo, "e", Some("gremlin"), Some(seed)).unwrap();
            (
                repo.read("experiments/e/chaos-results.csv").unwrap(),
                repo.read("experiments/e/faults.json").unwrap(),
            )
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5).1, run(6).1);
    }

    #[test]
    fn full_engine_lists_all_runners() {
        let engine = full_engine();
        let names = engine.runners();
        for expected in ["synthetic", "gassyfs-scalability", "torpor-variability", "mpi-variability", "lulesh-chaos", "lulesh-sharded", "gassyfs-sharded", "orchestra-sharded", "bww-airtemp"] {
            assert!(names.contains(&expected), "missing {expected}");
        }
    }

    #[test]
    fn lulesh_chaos_survives_node_crash_and_shrinks() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("mpi-comm-variability").unwrap().files("e") {
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let engine = full_engine();
        let report = engine.run_chaos(&mut repo, "e", Some("node-crash"), Some(7)).unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        // Default policy is shrink: one failover, bounded degradation.
        assert!(report.metrics.get_num("failovers").unwrap_or(0.0) > 0.0);
        let degraded = report.metrics.get_num("degraded_fraction").unwrap();
        assert!(degraded > 0.0 && degraded <= 0.5, "degraded {degraded}");
        assert_eq!(report.metrics.get_num("corrupt"), Some(0.0));
        let csv = repo.read("experiments/e/chaos-results.csv").unwrap();
        assert!(csv.starts_with("schedule,policy,epoch"), "{csv}");
        assert!(repo.exists("experiments/e/recovery.json"));
    }

    #[test]
    fn lulesh_chaos_checkpoint_restart_policy_from_vars() {
        let mut repo = PopperRepo::init("t").unwrap();
        for (path, contents) in find_template("mpi-comm-variability").unwrap().files("e") {
            let contents = if path.ends_with("vars.pml") {
                format!("{contents}faults:\n  schedule: node-crash\n  policy: checkpoint-restart\n  checkpoint_interval: 5\n")
            } else {
                contents
            };
            repo.write(&path, contents).unwrap();
        }
        repo.commit("add").unwrap();
        let report = full_engine().run_chaos(&mut repo, "e", None, None).unwrap();
        assert!(report.success(), "{:?}", report.verdict.failures);
        // Checkpoint-restart conserves the problem: zero degradation,
        // paid for in checkpoints and replayed steps.
        assert_eq!(report.metrics.get_num("degraded_fraction"), Some(0.0));
        assert!(report.metrics.get_num("checkpoints").unwrap_or(0.0) > 0.0);
        assert!(report.metrics.get_num("replayed").unwrap_or(0.0) > 0.0);
        let csv = repo.read("experiments/e/chaos-results.csv").unwrap();
        assert!(csv.contains("checkpoint-restart"), "{csv}");
    }

    #[test]
    fn lulesh_chaos_same_seed_is_byte_identical() {
        let run = |seed| {
            let mut repo = PopperRepo::init("t").unwrap();
            for (path, contents) in find_template("mpi-comm-variability").unwrap().files("e") {
                repo.write(&path, contents).unwrap();
            }
            repo.commit("add").unwrap();
            full_engine().run_chaos(&mut repo, "e", Some("gremlin"), Some(seed)).unwrap();
            (
                repo.read("experiments/e/chaos-results.csv").unwrap(),
                repo.read("experiments/e/faults.json").unwrap(),
                repo.read("experiments/e/recovery.json").unwrap(),
            )
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).1, run(12).1);
    }

    #[test]
    fn lulesh_sharded_runner_is_worker_count_invariant() {
        let vars_for = |workers: i64| {
            let mut vars = Value::empty_map();
            vars.insert("grid", Value::from(vec![2i64, 2, 2]));
            vars.insert("elements", Value::from(4i64));
            vars.insert("iterations", Value::from(10i64));
            vars.insert("sim_workers", Value::from(workers));
            vars
        };
        let serial = lulesh_sharded_runner(&vars_for(1)).unwrap();
        assert_eq!(serial.len(), 8); // 2x2x2 ranks, one row each
        let sharded = lulesh_sharded_runner(&vars_for(4)).unwrap();
        // Everything but the recorded worker count is identical.
        for (a, b) in serial.iter().zip(sharded.iter()) {
            assert_eq!(a.get("finish_ms"), b.get("finish_ms"));
            assert_eq!(a.get("elapsed_ms"), b.get("elapsed_ms"));
            assert_eq!(a.get("epochs"), b.get("epochs"));
        }
        assert!(lulesh_sharded_runner(&vars_for(0)).is_err());
    }

    #[test]
    fn gassyfs_sharded_runner_is_worker_count_invariant() {
        let vars_for = |workers: i64| {
            let mut vars = Value::empty_map();
            vars.insert("nodes", Value::from(5i64));
            vars.insert("pages", Value::from(60i64));
            vars.insert("streams", Value::from(3i64));
            vars.insert("sim_workers", Value::from(workers));
            vars
        };
        let serial = gassyfs_sharded_runner(&vars_for(1)).unwrap();
        assert_eq!(serial.len(), 5); // one row per node
        let sharded = gassyfs_sharded_runner(&vars_for(4)).unwrap();
        for (a, b) in serial.iter().zip(sharded.iter()) {
            assert_eq!(a.get("primary_pages"), b.get("primary_pages"));
            assert_eq!(a.get("tx_bytes"), b.get("tx_bytes"));
            assert_eq!(a.get("elapsed_ms"), b.get("elapsed_ms"));
            assert_eq!(a.get("epochs"), b.get("epochs"));
        }
        assert!(gassyfs_sharded_runner(&vars_for(0)).is_err());
    }

    #[test]
    fn orchestra_sharded_runner_is_worker_count_invariant() {
        let vars_for = |workers: i64| {
            let mut vars = Value::empty_map();
            vars.insert("hosts", Value::from(6i64));
            vars.insert("tasks", Value::from(5i64));
            vars.insert("sim_workers", Value::from(workers));
            vars
        };
        let serial = orchestra_sharded_runner(&vars_for(1)).unwrap();
        assert_eq!(serial.len(), 5); // one row per task
        let sharded = orchestra_sharded_runner(&vars_for(8)).unwrap();
        for (a, b) in serial.iter().zip(sharded.iter()) {
            assert_eq!(a.get("finish_ms"), b.get("finish_ms"));
            assert_eq!(a.get("elapsed_ms"), b.get("elapsed_ms"));
            assert_eq!(a.get("epochs"), b.get("epochs"));
        }
    }

    #[test]
    fn runners_without_a_sharded_world_reject_sim_workers() {
        let mut vars = Value::empty_map();
        vars.insert("sim_workers", Value::from(4i64));
        let healthy_unsharded = RUNNERS.iter().filter(|r| r.2 != Sharding::Always).map(|r| (r.0, r.1));
        for (name, runner) in healthy_unsharded.chain([("synthetic", popper_core::experiment::synthetic_runner as Runner)]) {
            let err = runner(&vars).unwrap_err();
            assert!(err.contains("no sharded world"), "{name}: {err}");
            assert!(err.contains(name), "{name}: {err}");
        }
    }

    /// Vars that arm every sharded runner's chaos mode with the same
    /// healing built-in schedule.
    fn chaos_vars(extra: &[(&str, i64)]) -> Value {
        let mut vars = Value::empty_map();
        let mut faults = Value::empty_map();
        faults.insert("schedule", Value::from("node-crash"));
        faults.insert("seed", Value::from(7i64));
        vars.insert("faults", faults);
        for &(k, v) in extra {
            vars.insert(k, Value::from(v));
        }
        vars
    }

    /// `chaos_vars` for a recovery run under `policy`.
    fn policy_vars(policy: &str, extra: &[(&str, i64)]) -> Value {
        let mut vars = chaos_vars(extra);
        let mut faults = vars.get("faults").cloned().unwrap();
        faults.insert("policy", Value::from(policy));
        vars.insert("faults", faults);
        vars
    }

    #[test]
    fn sharded_chaos_runners_are_worker_count_invariant() {
        type Runner = fn(&Value) -> Result<Table, String>;
        let lulesh = [("elements", 4), ("iterations", 10), ("nodes", 9)];
        let cases: [(&str, Runner, Value); 10] = [
            ("lulesh-sharded", lulesh_sharded_runner, chaos_vars(&[("elements", 4), ("iterations", 10), ("nodes", 8)])),
            ("gassyfs-sharded", gassyfs_sharded_runner, chaos_vars(&[("nodes", 6), ("pages", 48)])),
            ("orchestra-sharded", orchestra_sharded_runner, chaos_vars(&[("hosts", 6), ("tasks", 6), ("nodes", 6)])),
            ("farm-sharded", farm_sharded_runner, chaos_vars(&[("tenants", 5), ("jobs", 16), ("nodes", 5)])),
            ("gassyfs-scalability", gassyfs_runner, chaos_vars(&[("nodes", 6)])),
            ("mpi-variability", mpi_runner, chaos_vars(&lulesh)),
            ("lulesh-chaos", lulesh_chaos_runner, chaos_vars(&lulesh)),
            ("lulesh-chaos shrink", lulesh_chaos_runner, policy_vars("shrink", &lulesh)),
            ("lulesh-chaos checkpoint-restart", lulesh_chaos_runner, policy_vars("checkpoint-restart", &lulesh)),
            ("mpi-variability checkpoint-restart", mpi_runner, policy_vars("checkpoint-restart", &lulesh)),
        ];
        for (name, runner, vars) in cases {
            let table_for = |workers: i64| {
                let mut vars = vars.clone();
                vars.insert("sim_workers", Value::from(workers));
                runner(&vars).unwrap_or_else(|e| panic!("{name}: {e}"))
            };
            let serial = table_for(1);
            // The schedule heals, so the run must end clean.
            for row in serial.iter() {
                assert_eq!(row.get("corrupt").and_then(Value::as_num), Some(0.0), "{name}");
            }
            assert!(
                serial.iter().any(|r| r.get("detections").is_none_or(|d| d.as_num() != Some(0.0))
                    || r.get("requeued").is_none_or(|d| d.as_num() != Some(0.0))),
                "{name}: mid-run faults must be observed"
            );
            for workers in [2, 8] {
                let sharded = table_for(workers);
                assert_eq!(sharded.len(), serial.len(), "{name} workers={workers}");
                for (a, b) in serial.iter().zip(sharded.iter()) {
                    for col in serial.columns() {
                        let col = col.name.as_str();
                        if col == "workers" {
                            continue;
                        }
                        assert_eq!(a.get(col), b.get(col), "{name} workers={workers} col={col}");
                    }
                }
            }
        }
    }

    /// `popper chaos` over `vars`, returning `recovery.json`'s numbers.
    fn recovery_json(vars: &str) -> Value {
        let mut repo = PopperRepo::init("t").unwrap();
        repo.write("experiments/e/vars.pml", vars).unwrap();
        repo.commit("add").unwrap();
        full_engine().run_chaos(&mut repo, "e", Some("node-crash"), Some(7)).unwrap();
        popper_format::json::parse(&repo.read("experiments/e/recovery.json").unwrap()).unwrap()
    }

    #[test]
    fn recovery_json_counters_equal_the_world_reports() {
        let schedule = |nodes| popper_chaos::FaultSchedule::named("node-crash", nodes, 7).unwrap();
        let hpc = platforms::hpc_node();
        let gassy_node = platforms::gassyfs_node();
        let check = |name: &str, metrics: Value, counters: &[(&str, u64)]| {
            for &(counter, want) in counters {
                assert_eq!(metrics.get_num(counter), Some(want as f64), "{name}: {counter} in {metrics:?}");
            }
        };

        let s = schedule(16);
        let r = popper_gassyfs::run_sharded_chaos(
            &popper_gassyfs::ShardedGassyConfig { nodes: 16, ..Default::default() },
            &gassy_node,
            1,
            7,
            s.plane_timeline(),
        );
        check(
            "gassyfs-scalability",
            recovery_json("runner: gassyfs-scalability\nnodes: [1, 2, 4, 8, 16]\n"),
            &[("failovers", r.failovers), ("detections", r.detections)],
        );
        check(
            "gassyfs-sharded",
            recovery_json("runner: gassyfs-sharded\nnodes: 16\n"),
            &[("failovers", r.failovers), ("detections", r.detections)],
        );

        let app = LuleshConfig { elements_per_rank: 6, iterations: 12, ..LuleshConfig::paper() };
        let lulesh = "grid: [3, 3, 3]\nelements: 6\niterations: 12\nnodes: 9\n";
        for policy in [popper_minimpi::RecoveryPolicy::Shrink, popper_minimpi::RecoveryPolicy::CheckpointRestart { interval: 5 }] {
            let r = popper_minimpi::run_sharded_recovery(&app, &hpc, 1, 9, 7, schedule(9).plane_timeline(), policy);
            let lost: usize = r.epochs.iter().map(|e| e.ranks_lost).sum();
            check(
                policy.label(),
                recovery_json(&format!("runner: mpi-variability\n{lulesh}faults: {{policy: {}}}\n", policy.label())),
                &[
                    ("detections", r.detections()),
                    ("failovers", lost as u64),
                    ("checkpoints", r.checkpoints() as u64),
                    ("replayed", r.replayed_steps() as u64),
                ],
            );
        }
        let r = popper_minimpi::run_sharded_chaos(&app, &hpc, 1, 7, schedule(9).plane_timeline());
        check(
            "lulesh-sharded",
            recovery_json(&format!("runner: lulesh-sharded\n{lulesh}")),
            &[("detections", r.detections), ("recovered", r.recovered)],
        );

        let config = popper_orchestra::ShardedOrchestraConfig { hosts: 6, tasks: 6, ..Default::default() };
        let r = popper_orchestra::shardworld::run_sharded_chaos(&config, 1, 7, schedule(6).plane_timeline());
        check(
            "orchestra-sharded",
            recovery_json("runner: orchestra-sharded\nhosts: 6\ntasks: 6\nnodes: 6\n"),
            &[("detections", r.detections), ("recovered", r.recovered)],
        );

        let config = popper_farm::FarmSimConfig { tenants: 5, jobs_per_tenant: 16, ..Default::default() };
        let r = popper_farm::simulate_chaos(&config, 1, 7, schedule(5).plane_timeline());
        check(
            "farm-sharded",
            recovery_json("runner: farm-sharded\ntenants: 5\njobs: 16\nnodes: 5\n"),
            &[("recovered", r.recovered)],
        );

        let fetch = popper_weather::FetchConfig::default();
        let r = popper_weather::fetch_with_faults(&fetch, &schedule(8)).unwrap();
        check(
            "bww-airtemp",
            recovery_json("runner: bww-airtemp\n"),
            &[("failovers", r.failovers), ("reads", r.fetched as u64)],
        );
    }

    #[test]
    fn farm_sharded_runner_is_worker_count_invariant() {
        let vars_for = |workers: i64| {
            let mut vars = Value::empty_map();
            vars.insert("tenants", Value::from(5i64));
            vars.insert("jobs", Value::from(12i64));
            vars.insert("sim_workers", Value::from(workers));
            vars
        };
        let serial = farm_sharded_runner(&vars_for(1)).unwrap();
        assert_eq!(serial.len(), 5); // one row per tenant
        let sharded = farm_sharded_runner(&vars_for(4)).unwrap();
        for (a, b) in serial.iter().zip(sharded.iter()) {
            assert_eq!(a.get("finish_ms"), b.get("finish_ms"));
            assert_eq!(a.get("store_jobs"), b.get("store_jobs"));
            assert_eq!(a.get("elapsed_ms"), b.get("elapsed_ms"));
        }
        assert!(farm_sharded_runner(&vars_for(0)).is_err());
    }

    #[test]
    fn sharded_chaos_schedule_must_fit_the_world() {
        // 8-node default schedule against a 4-node world: a clear
        // error, not an out-of-range fault.
        let mut vars = chaos_vars(&[("hosts", 3)]);
        vars.insert("faults", {
            let mut f = Value::empty_map();
            f.insert("schedule", Value::from("node-crash"));
            f.insert("nodes", Value::from(8i64));
            f
        });
        let err = orchestra_sharded_runner(&vars).unwrap_err();
        assert!(err.contains("targets 8 nodes"), "{err}");
        assert!(err.contains("4 shards"), "{err}");
    }

    #[test]
    fn sharded_chaos_lifecycle_artifacts_are_worker_count_invariant() {
        // The full `popper chaos` lifecycle over a sharded world:
        // faults.json and recovery.json must come out byte-identical
        // at every worker count (results.csv differs only in the
        // recorded `workers` column).
        let run = |workers: i64| {
            let mut repo = PopperRepo::init("t").unwrap();
            repo.write(
                "experiments/e/vars.pml",
                format!("runner: gassyfs-sharded\nnodes: 6\npages: 48\nsim_workers: {workers}\n"),
            )
            .unwrap();
            repo.commit("add").unwrap();
            let report = full_engine().run_chaos(&mut repo, "e", Some("node-crash"), Some(7)).unwrap();
            assert!(report.success(), "{:?}", report.verdict.failures);
            assert!(report.metrics.get_num("failovers").unwrap_or(0.0) > 0.0);
            assert_eq!(report.metrics.get_num("corrupt"), Some(0.0));
            (
                repo.read("experiments/e/faults.json").unwrap(),
                repo.read("experiments/e/recovery.json").unwrap(),
            )
        };
        let reference = run(1);
        assert_eq!(run(2), reference);
        assert_eq!(run(8), reference);
    }

    #[test]
    fn runner_errors_are_reported() {
        let mut vars = Value::empty_map();
        vars.insert("machine", Value::from("warp-drive"));
        assert!(gassyfs_runner(&vars).is_err());
        let mut vars = Value::empty_map();
        vars.insert("grid", Value::from(vec![1i64, 2]));
        assert!(mpi_runner(&vars).is_err());
        let mut vars = Value::empty_map();
        vars.insert("base", Value::from("nope"));
        assert!(torpor_runner(&vars).is_err());
    }
}
