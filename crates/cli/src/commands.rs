//! The `popper` subcommands.

use crate::argparse::Parsed;
use crate::error::OrFail;
use crate::persist;
use crate::runners::full_engine;
use parking_lot::Mutex;
use popper_core::{
    check::check_compliance,
    cipipeline::run_ci,
    paper::build_paper,
    templates::{experiment_templates, find_template, paper_template_files, paper_templates},
    PopperRepo,
};
use std::path::Path;
use std::sync::Arc;

/// Dispatch a parsed command line in `dir`.
///
/// `--sim-workers N` shards every simulation this command drives across
/// N worker threads (results are byte-identical to N=1; see
/// `popper_sim::shard`). Runners pick it up via `POPPER_SIM_WORKERS` so
/// the knob reaches simulations behind any pipeline depth; the previous
/// value is restored when the command returns, `Ok` or `Err`, so a
/// later command in the same process does not inherit it.
pub fn dispatch(parsed: &Parsed, dir: &Path) -> Result<String, String> {
    const VAR: &str = "POPPER_SIM_WORKERS";
    if parsed.flag_value("sim-workers").is_none() {
        return dispatch_command(parsed, dir);
    }
    let n = parsed.flag_count("sim-workers", 1)?;
    let previous = std::env::var_os(VAR);
    std::env::set_var(VAR, n.to_string());
    let out = dispatch_command(parsed, dir);
    match previous {
        Some(p) => std::env::set_var(VAR, p),
        None => std::env::remove_var(VAR),
    }
    out
}

fn dispatch_command(parsed: &Parsed, dir: &Path) -> Result<String, String> {
    let author = parsed.flag_value("author").unwrap_or("anonymous researcher").to_string();
    match parsed.command() {
        None => Ok(help_text()),
        Some("help") => {
            parsed.expect("help", &[], 0)?;
            Ok(help_text())
        }
        Some("init") => {
            parsed.expect("init", &[], 0)?;
            cmd_init(dir, &author)
        }
        Some("experiment") => match parsed.pos(1) {
            Some("list") | None => {
                parsed.expect("experiment list", &[], 0)?;
                Ok(template_listing())
            }
            Some("add") => {
                parsed.expect("experiment add", &[], 2)?;
                let tpl = parsed.pos(2).ok_or("usage: popper experiment add <template> <name>")?;
                let name = parsed.pos(3).ok_or("usage: popper experiment add <template> <name>")?;
                cmd_add(dir, &author, tpl, name)
            }
            Some(other) => Err(format!("unknown experiment subcommand '{other}'")),
        },
        Some("add") => {
            parsed.expect("add", &[], 2)?;
            let tpl = parsed.pos(1).ok_or("usage: popper add <template> <name>")?;
            let name = parsed.pos(2).ok_or("usage: popper add <template> <name>")?;
            cmd_add(dir, &author, tpl, name)
        }
        Some("paper") => match parsed.pos(1) {
            Some("list") | None => {
                parsed.expect("paper list", &[], 0)?;
                let mut out = String::from("-- available paper templates ---------\n");
                for (name, desc) in paper_templates() {
                    out.push_str(&format!("{name:<10} {desc}\n"));
                }
                Ok(out)
            }
            Some("add") => {
                parsed.expect("paper add", &[], 1)?;
                let tpl = parsed.pos(2).ok_or("usage: popper paper add <template>")?;
                cmd_paper_add(dir, &author, tpl)
            }
            Some("build") => {
                parsed.expect("paper build", &[], 0)?;
                let repo = persist::load(dir, &author)?;
                let built = build_paper(&repo).map_err(|e| e.to_string())?;
                Ok(format!(
                    "-- built '{}' ({} sections, {} figures)\n\n{}",
                    built.title,
                    built.sections.len(),
                    built.figures.len(),
                    built.output
                ))
            }
            Some(other) => Err(format!("unknown paper subcommand '{other}'")),
        },
        Some("check") => {
            parsed.expect("check", &[], 0)?;
            let repo = persist::load(dir, &author)?;
            let violations = check_compliance(&repo);
            if violations.is_empty() {
                Ok("-- repository is Popper-compliant\n".into())
            } else {
                let fatal = violations.iter().filter(|v| v.fatal).count();
                let mut out = String::new();
                for v in &violations {
                    out.push_str(&format!("{v}\n"));
                }
                if fatal > 0 {
                    Err(format!("{out}-- {fatal} fatal violation(s)"))
                } else {
                    Ok(format!("{out}-- compliant with warnings\n"))
                }
            }
        }
        Some("run") => {
            parsed.expect("run", &["no-cache"], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper run <experiment> [--no-cache]")?;
            let mut repo = persist::load(dir, &author)?;
            let engine = full_engine();
            let mut ctx = popper_core::RunContext::for_experiment(&repo, name)?;
            if cache_enabled(parsed) {
                ctx = ctx.with_memo(popper_core::lifecycle_session(&repo, name, "run", &[]));
            }
            engine.run_pipeline(&mut repo, &mut ctx)?;
            let memo = memo_line(ctx.memo_stats());
            let report = popper_core::experiment::RunReport::from_ctx(ctx);
            persist::save(&repo, dir)?;
            if report.success() {
                Ok(format!("{report}\n{memo}"))
            } else {
                Err(format!("{report}"))
            }
        }
        Some("validate") => {
            parsed.expect("validate", &[], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper validate <experiment>")?;
            let verdict = popper_core::cipipeline::validate_recorded(&persist::load(dir, &author)?, name)?;
            if verdict.passed {
                Ok(format!("{verdict}\n"))
            } else {
                Err(verdict.to_string())
            }
        }
        Some("ci") => {
            parsed.expect("ci", &["workers"], 0)?;
            let workers = parsed.flag_count("workers", 4)?;
            let repo = Arc::new(Mutex::new(persist::load(dir, &author)?));
            let engine = Arc::new(full_engine());
            let report = run_ci(repo.clone(), engine, workers)?;
            persist::save(&repo.lock(), dir)?;
            let badge = if report.passed() { "build: passing" } else { "build: failing" };
            let out = format!("{}\n[{badge}]\n", report.summary());
            if report.passed() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        Some("status") => {
            parsed.expect("status", &[], 0)?;
            let repo = persist::load(dir, &author)?;
            let mut out = String::new();
            out.push_str(&repo.tree());
            let status = repo.vcs.status().map_err(|e| e.to_string())?;
            if status.is_empty() {
                out.push_str("\n-- working tree clean\n");
            } else {
                out.push_str("\n-- uncommitted changes:\n");
                for c in status {
                    out.push_str(&format!("  {c:?}\n"));
                }
            }
            Ok(out)
        }
        Some("log") => {
            parsed.expect("log", &[], 0)?;
            let repo = persist::load(dir, &author)?;
            let head = repo.vcs.head_commit().ok_or("no commits yet")?;
            let mut out = String::new();
            for (id, commit) in repo.vcs.log(head).map_err(|e| e.to_string())? {
                out.push_str(&format!("{} {}\n", id.short(), commit.message));
            }
            Ok(out)
        }
        Some("diff") => {
            parsed.expect("diff", &[], 1)?;
            let path = parsed.pos(1).ok_or("usage: popper diff <path>")?;
            let repo = persist::load(dir, &author)?;
            let head = repo.vcs.head_commit().ok_or("no commits yet")?;
            let d = repo.vcs.diff_file(head, path).map_err(|e| e.to_string())?;
            if d.is_empty() {
                Ok(format!("-- '{path}' unchanged since HEAD\n"))
            } else {
                Ok(d)
            }
        }
        Some("verify") => {
            parsed.expect("verify", &["no-cache"], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper verify <experiment> [--no-cache]")?;
            let mut repo = persist::load(dir, &author)?;
            let engine = full_engine();
            let mut ctx = popper_core::RunContext::for_experiment(&repo, name)?;
            if cache_enabled(parsed) {
                ctx = ctx.with_memo(popper_core::lifecycle_session(&repo, name, "verify", &[]));
            }
            engine.verify_pipeline(&mut repo, &mut ctx)?;
            let memo = memo_line(ctx.memo_stats());
            let verdict = popper_core::ReproVerdict::from_ctx(&ctx)?;
            persist::save(&repo, dir)?;
            match verdict {
                popper_core::ReproVerdict::Identical => Ok(format!("{verdict}\n{memo}")),
                other => Err(other.to_string()),
            }
        }
        Some("figure") => {
            parsed.expect("figure", &[], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper figure <experiment>")?;
            let repo = persist::load(dir, &author)?;
            repo.read(&format!("experiments/{name}/figure.txt"))
                .ok_or_else(|| format!("experiment '{name}' has no figure.txt (run it first)"))
        }
        Some("regression") => {
            parsed.expect("regression", &["column"], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper regression <experiment> --column <col>")?;
            let column = parsed.flag_value("column").ok_or("usage: popper regression <experiment> --column <col>")?;
            let repo = Arc::new(Mutex::new(persist::load(dir, &author)?));
            let executor = popper_core::cipipeline::popper_steps(repo, Arc::new(full_engine()));
            let outcome = executor(&popper_ci::StepCtx {
                command: format!("regression-gate {name} {column}"),
                env: Default::default(),
                job: "regression".into(),
            });
            if outcome.success {
                Ok(format!("{}\n", outcome.log))
            } else {
                Err(outcome.log)
            }
        }
        Some("branch") => {
            parsed.expect("branch", &[], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper branch <name>")?;
            let mut repo = persist::load(dir, &author)?;
            repo.vcs.create_branch(name).map_err(|e| e.to_string())?;
            persist::save(&repo, dir)?;
            Ok(format!("-- created and switched to branch '{name}'\n"))
        }
        Some("checkout") => {
            parsed.expect("checkout", &[], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper checkout <branch>")?;
            let mut repo = persist::load(dir, &author)?;
            repo.vcs.checkout(name).map_err(|e| e.to_string())?;
            persist::save(&repo, dir)?;
            Ok(format!("-- switched to branch '{name}'\n"))
        }
        Some("merge") => {
            parsed.expect("merge", &[], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper merge <branch>")?;
            let mut repo = persist::load(dir, &author)?;
            let outcome = repo.vcs.merge_branch(name, &author).map_err(|e| e.to_string())?;
            persist::save(&repo, dir)?;
            match outcome {
                popper_vcs::MergeOutcome::Merged(id) => Ok(format!("-- merged '{name}' ({})\n", id.short())),
                popper_vcs::MergeOutcome::FastForward(id) => {
                    Ok(format!("-- fast-forwarded to '{name}' ({})\n", id.short()))
                }
                popper_vcs::MergeOutcome::UpToDate => Ok("-- already up to date\n".into()),
                popper_vcs::MergeOutcome::Conflicted(conflicts) => {
                    let mut out = String::from("-- merge conflicts; resolve the markers and `popper commit`:\n");
                    for c in conflicts {
                        out.push_str(&format!("   {}\n", c.path));
                    }
                    Err(out)
                }
            }
        }
        Some("pack") => {
            parsed.expect("pack", &["show-popperfile"], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper pack <experiment>")?;
            let repo = persist::load(dir, &author)?;
            if parsed.has_flag("show-popperfile") {
                return popper_core::pack::popperfile_for(&repo, name).map_err(|e| e.to_string());
            }
            let mut registry = popper_container::ImageRegistry::new();
            let mut cache = popper_container::BuildCache::new();
            let image = popper_core::pack::pack_experiment(&repo, name, &mut registry, &mut cache)
                .map_err(|e| e.to_string())?;
            let commit = image
                .config
                .labels
                .get("org.popper.commit")
                .and_then(|c| c.get(..10))
                .unwrap_or("?");
            Ok(format!(
                "-- packed experiment '{name}' as {} ({} layer(s), commit {commit})\n",
                image.reference(),
                image.layers.len(),
            ))
        }
        Some("trace") => {
            parsed.expect("trace", &["no-cache"], 1)?;
            let name = parsed.pos(1).ok_or("usage: popper trace <experiment> [--no-cache]")?;
            let mut repo = persist::load(dir, &author)?;
            let engine = full_engine();
            // The run pipeline with a recorder attached: the recorder
            // buffers the whole lifecycle (engine/CI/orchestra
            // wall-clock spans plus any simulation the runner drives)
            // so the JSON, SVG and summary can render from the events.
            let mut ctx = popper_core::RunContext::for_experiment(&repo, name)?
                .with_recorder(popper_trace::TraceRecorder::new());
            if cache_enabled(parsed) {
                ctx = ctx.with_memo(popper_core::lifecycle_session(&repo, name, "trace", &[]));
            }
            engine.run_pipeline(&mut repo, &mut ctx)?;
            let mut artifacts = std::mem::take(&mut ctx.artifacts);
            let events = ctx
                .finish_recording()
                .or_fail("popper trace", "no trace recorder attached to the run context")?;
            let memo = memo_line(ctx.memo_stats());
            let report = popper_core::experiment::RunReport::from_ctx(ctx);
            let (json, svg, summary) = render_trace(&events);
            artifacts.stage(format!("experiments/{name}/trace.json"), json);
            artifacts.stage(format!("experiments/{name}/trace.svg"), svg);
            artifacts.commit_into(
                &mut repo,
                &format!("popper trace {name}: record trace"),
                popper_core::CommitPolicy::Always,
            )?;
            persist::save(&repo, dir)?;
            let out = format!(
                "{}\n-- traced {} event(s) -> experiments/{name}/trace.json, trace.svg\n{memo}{summary}",
                report,
                events.len(),
            );
            if report.success() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        Some("trace-diff") => {
            parsed.expect("trace-diff", &["tolerance", "structure-only", "no-cache"], 2)?;
            let usage = "usage: popper trace-diff <experiment> <refA>..<refB> [--tolerance <pct>] [--structure-only] [--no-cache]";
            let name = parsed.pos(1).ok_or(usage)?;
            let range = parsed.pos(2).ok_or(usage)?;
            let (ref_a, ref_b) = range
                .split_once("..")
                .filter(|(a, b)| !a.is_empty() && !b.is_empty())
                .ok_or(usage)?;
            let tolerance = parsed.flag_num("tolerance", 0.0)?;
            let options = if parsed.has_flag("structure-only") {
                popper_trace::DiffOptions::structure_only()
            } else {
                popper_trace::DiffOptions { tolerance_pct: tolerance, compare_durations: true }
            };
            let mut repo = persist::load(dir, &author)?;
            let engine = full_engine();
            let (report, stats) =
                engine.trace_diff(&mut repo, name, ref_a, ref_b, options, cache_enabled(parsed))?;
            persist::save(&repo, dir)?;
            let memo = memo_line(stats.as_ref());
            let out = format!(
                "{report}\n-- recorded experiments/{name}/trace-diff.json, trace-diff.txt\n{memo}"
            );
            if report.success() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        Some("chaos") => {
            parsed.expect("chaos", &["schedule", "seed", "no-cache"], 1)?;
            let name = parsed
                .pos(1)
                .ok_or("usage: popper chaos <experiment> [--schedule <name>] [--seed <n>]")?;
            let schedule = parsed.flag_value("schedule");
            let seed = parsed.flag_u64("seed")?;
            let mut repo = persist::load(dir, &author)?;
            let engine = full_engine();
            // Trace the run so faults and failovers are visible on the
            // recorded timeline next to the lifecycle spans.
            let mut ctx = popper_core::RunContext::for_experiment(&repo, name)?
                .with_recorder(popper_trace::TraceRecorder::new());
            if cache_enabled(parsed) {
                let mut salt = Vec::new();
                if let Some(s) = schedule {
                    salt.push(("schedule".to_string(), s.to_string()));
                }
                if let Some(n) = seed {
                    salt.push(("seed".to_string(), n.to_string()));
                }
                ctx = ctx.with_memo(popper_core::lifecycle_session(&repo, name, "chaos", &salt));
            }
            engine.chaos_pipeline(&mut repo, &mut ctx, schedule, seed)?;
            let mut artifacts = std::mem::take(&mut ctx.artifacts);
            let events = ctx
                .finish_recording()
                .or_fail("popper chaos", "no trace recorder attached to the run context")?;
            let memo = memo_line(ctx.memo_stats());
            let report = popper_core::chaosrun::ChaosRunReport::from_ctx(ctx)?;
            artifacts.stage(format!("experiments/{name}/trace.json"), popper_trace::chrome_trace_json(&events));
            artifacts.commit_into(
                &mut repo,
                &format!("popper chaos {name}: record trace"),
                popper_core::CommitPolicy::Always,
            )?;
            persist::save(&repo, dir)?;
            let out = format!(
                "{report}\n-- recorded experiments/{name}/chaos-results.csv, chaos-figure.txt, faults.json, recovery.json, trace.json ({} event(s))\n{memo}",
                events.len(),
            );
            if report.success() {
                Ok(out)
            } else {
                Err(out)
            }
        }
        Some("farm") => match parsed.pos(1) {
            Some("serve") => {
                parsed.expect("farm serve", &["tenants", "jobs", "workers", "template", "schedule", "seed", "port"], 0)?;
                cmd_farm_serve(parsed, dir)
            }
            Some("submit") => {
                parsed.expect("farm submit", &["tenants", "jobs", "workers"], 1)?;
                cmd_farm_submit(parsed, dir, &author)
            }
            Some(other) => Err(format!("unknown farm subcommand '{other}'; try serve or submit")),
            None => Err("usage: popper farm serve|submit [--tenants N] [--jobs M]".into()),
        },
        Some("store") => match parsed.pos(1) {
            Some("stats") => {
                parsed.expect("store stats", &[], 0)?;
                let repo = persist::load(dir, &author)?;
                Ok(format!("-- {}\n", popper_core::cipipeline::store_stats_report(&repo)))
            }
            Some(other) => Err(format!("unknown store subcommand '{other}'; try stats")),
            None => Err("usage: popper store stats".into()),
        },
        Some("commit") => {
            parsed.expect("commit", &[], 1)?;
            let mut repo = persist::load(dir, &author)?;
            let message = parsed.pos(1).unwrap_or("checkpoint").to_string();
            let id = repo.commit(&message).map_err(|e| e.to_string())?;
            persist::save(&repo, dir)?;
            Ok(format!("-- committed {}\n", id.short()))
        }
        Some(other) => Err(format!("unknown command '{other}'; try `popper help`")),
    }
}

/// What `popper trace` renders from a drained recording: the Chrome
/// JSON, the timeline SVG and the summary table. The JSON renders on a
/// scoped thread of its own while the calling thread renders the other
/// two.
pub fn render_trace(events: &[popper_trace::TraceEvent]) -> (String, String, String) {
    std::thread::scope(|scope| {
        let json = scope.spawn(|| popper_trace::chrome_trace_json(events));
        let svg = popper_trace::timeline_svg(events);
        let summary = popper_trace::summary_table(events);
        let json = json.join().unwrap_or_else(|panic| std::panic::resume_unwind(panic));
        (json, svg, summary)
    })
}

/// Stage memoization is on unless `--no-cache` or `POPPER_NO_CACHE`
/// turns it off for this invocation.
fn cache_enabled(parsed: &Parsed) -> bool {
    !parsed.has_flag("no-cache") && !popper_core::cache_disabled_by_env()
}

/// The one-line `memo: N hits / M misses (X ms saved)` summary, or
/// nothing when the lifecycle ran without a session.
fn memo_line(stats: Option<&popper_core::MemoStats>) -> String {
    match stats {
        Some(s) => format!("{}\n", s.summary()),
        None => String::new(),
    }
}

fn cmd_init(dir: &Path, author: &str) -> Result<String, String> {
    if persist::is_initialized(dir) {
        return Err("already a Popper repository (found .popper/state)".into());
    }
    let repo = PopperRepo::init(author).map_err(|e| e.to_string())?;
    persist::save(&repo, dir)?;
    Ok("-- Initialized Popper repo\n".into())
}

fn cmd_add(dir: &Path, author: &str, tpl: &str, name: &str) -> Result<String, String> {
    let template = find_template(tpl)
        .ok_or_else(|| format!("unknown template '{tpl}'; see `popper experiment list`"))?;
    let mut repo = persist::load(dir, author)?;
    if repo.experiments().contains(&name.to_string()) {
        return Err(format!("experiment '{name}' already exists"));
    }
    for (path, contents) in template.files(name) {
        repo.write(&path, contents).map_err(|e| e.to_string())?;
    }
    repo.commit(&format!("popper add {tpl} {name}")).map_err(|e| e.to_string())?;
    persist::save(&repo, dir)?;
    Ok(format!("-- added experiment '{name}' from template '{tpl}'\n"))
}

fn cmd_paper_add(dir: &Path, author: &str, tpl: &str) -> Result<String, String> {
    let files = paper_template_files(tpl)
        .ok_or_else(|| format!("unknown paper template '{tpl}'; see `popper paper list`"))?;
    let mut repo = persist::load(dir, author)?;
    for (path, contents) in files {
        repo.write(&path, contents).map_err(|e| e.to_string())?;
    }
    repo.commit(&format!("popper paper add {tpl}")).map_err(|e| e.to_string())?;
    persist::save(&repo, dir)?;
    Ok(format!("-- installed paper template '{tpl}'\n"))
}

/// The most farm workers `--workers` may ask for. A farm spawns one OS
/// thread per worker, so the count is checked before any farm is built.
const MAX_FARM_WORKERS: usize = 64;

/// `--workers` for `popper farm serve|submit`: 1..=[`MAX_FARM_WORKERS`],
/// default 2.
fn farm_workers(parsed: &Parsed) -> Result<usize, String> {
    let workers = parsed.flag_count("workers", 2)?;
    if workers > MAX_FARM_WORKERS {
        return Err(format!("--workers {workers} is above the farm's limit of {MAX_FARM_WORKERS}"));
    }
    Ok(workers)
}

/// `popper farm serve`: spin up a multi-tenant farm with synthetic
/// tenants seeded from a template, push a batch of jobs through it
/// (optionally under chaos and/or with the status endpoint bound), and
/// print the final report. The canonical event log — deterministic for
/// a given seed — is written to `farm-events.log`.
fn cmd_farm_serve(parsed: &Parsed, dir: &Path) -> Result<String, String> {
    let tenants = parsed.flag_count("tenants", 4)?;
    let jobs = parsed.flag_count("jobs", 4)?;
    let workers = farm_workers(parsed)?;
    let template = parsed.flag_value("template").unwrap_or("ceph-rados");
    let seed = parsed.flag_u64("seed")?.unwrap_or(7);
    let mut builder = popper_farm::FarmBuilder::new(Arc::new(full_engine()))
        .config(popper_farm::FarmConfig { workers, ..Default::default() });
    if let Some(name) = parsed.flag_value("schedule") {
        let schedule = popper_chaos::FaultSchedule::named(name, workers.max(2), seed)
            .or_fail("popper farm serve", "bad --schedule")?;
        builder = builder.chaos(schedule);
    }
    for i in 1..=tenants {
        builder = builder.tenant(&format!("t{i}"), template, "exp")?;
    }
    let farm = builder.build()?;
    let server = match parsed.flag_value("port") {
        Some(p) => Some(farm.serve(&format!("127.0.0.1:{p}"))?),
        None => None,
    };
    let mut out = format!("-- popper farm: {tenants} tenant(s) x {jobs} job(s), {workers} worker(s)\n");
    if let Some(s) = &server {
        out.push_str(&format!("-- serving status/badges on http://{}\n", s.addr()));
    }
    for _ in 0..jobs {
        for i in 1..=tenants {
            submit_with_backoff(&farm, &format!("t{i}"), "exp")?;
        }
    }
    farm.drain();
    if let Some(s) = &server {
        // Round-trip the badge through the real socket so the endpoint
        // is exercised, not just bound.
        let badge = http_get(s.addr(), "/badge.svg")
            .or_fail("popper farm serve", "badge fetch failed")?;
        let state = ["passing", "failing", "unknown"]
            .iter()
            .find(|w| badge.contains(*w))
            .unwrap_or(&"?");
        out.push_str(&format!("-- badge: {state}\n"));
    }
    std::fs::write(dir.join("farm-events.log"), farm.event_log())
        .or_fail("popper farm serve", "writing farm-events.log")?;
    let report = farm.shutdown();
    if let Some(s) = server {
        s.stop();
    }
    out.push_str(&format!("{report}-- wrote farm-events.log\n"));
    if report.lost == 0 {
        Ok(out)
    } else {
        Err(format!("{out}-- {} job(s) lost\n", report.lost))
    }
}

/// `popper farm submit`: run an experiment from *this* repo across N
/// tenant clones — the "is my experiment farm-ready?" smoke test.
fn cmd_farm_submit(parsed: &Parsed, dir: &Path, author: &str) -> Result<String, String> {
    let name = parsed
        .pos(2)
        .ok_or("usage: popper farm submit <experiment> [--tenants N] [--jobs M]")?;
    let tenants = parsed.flag_count("tenants", 2)?;
    let jobs = parsed.flag_count("jobs", 2)?;
    let workers = farm_workers(parsed)?;
    let repo = persist::load(dir, author)?;
    if !repo.experiments().contains(&name.to_string()) {
        return Err(format!("experiment '{name}' not found; `popper add` it first"));
    }
    let mut builder = popper_farm::FarmBuilder::new(Arc::new(full_engine()))
        .config(popper_farm::FarmConfig { workers, ..Default::default() });
    for i in 1..=tenants {
        builder = builder.tenant_repo(&format!("t{i}"), repo.clone());
    }
    let farm = builder.build()?;
    for _ in 0..jobs {
        for i in 1..=tenants {
            submit_with_backoff(&farm, &format!("t{i}"), name)?;
        }
    }
    let report = farm.shutdown();
    let out = format!("-- popper farm: {tenants} clone(s) of this repo, {jobs} job(s) each\n{report}");
    if report.lost == 0 && report.tenants.iter().all(|t| t.failed == 0) {
        Ok(out)
    } else {
        Err(out)
    }
}

/// Submit one job, honoring the farm's retry-after backpressure hint.
fn submit_with_backoff(
    farm: &popper_farm::Farm,
    tenant: &str,
    experiment: &str,
) -> Result<(), String> {
    for _ in 0..1000 {
        match farm.submit(tenant, experiment) {
            Ok(_) => return Ok(()),
            Err(popper_farm::SubmitError::QueueFull { retry_after_ms, .. }) => {
                std::thread::sleep(std::time::Duration::from_millis(retry_after_ms.min(50)));
            }
            Err(e) => return Err(format!("popper farm: submit for '{tenant}': {e}")),
        }
    }
    Err(format!("popper farm: tenant '{tenant}' queue stayed full"))
}

/// Minimal HTTP GET against the farm's own endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Result<String, String> {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .write_all(format!("GET {path} HTTP/1.1\r\nHost: farm\r\n\r\n").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(|e| e.to_string())?;
    Ok(response)
}

/// The Listing-2 style template listing (three columns).
fn template_listing() -> String {
    let mut out = String::from("-- available templates ---------------\n");
    let templates = experiment_templates();
    let names: Vec<&str> = templates.iter().map(|t| t.name).collect();
    let rows = names.len().div_ceil(3);
    let width = names.iter().map(|n| n.len()).max().unwrap_or(0) + 2;
    for r in 0..rows {
        for c in 0..3 {
            if let Some(name) = names.get(c * rows + r) {
                out.push_str(&format!("{name:<width$}"));
            }
        }
        out.push('\n');
    }
    out
}

fn help_text() -> String {
    "\
popper — the Popper convention CLI

USAGE:
    popper <command> [args] [--author <name>]

COMMANDS:
    init                      initialize a Popper repository here
    experiment list           list curated experiment templates
    add <template> <name>     add an experiment from a template
    paper list|add <tpl>      manuscript templates
    paper build               assemble the article (resolves figures)
    check                     compliance check (is this Popperized?)
    run <experiment>          run the full experiment lifecycle
                              [--sim-workers N] shard simulations across N cores
                              (byte-identical results at every N; sharded
                              runners: lulesh-sharded, gassyfs-sharded,
                              orchestra-sharded — others reject the flag)
    trace <experiment>        run with tracing; records trace.json + trace.svg
    trace-diff <exp> <a>..<b> diff recorded traces between two commits; exit 1 on divergence
                              [--tolerance <pct>] [--structure-only]
    chaos <experiment>        run under fault injection; records faults.json + recovery.json
                              [--schedule node-crash|partition|packet-loss|slow-disk|gremlin] [--seed N]
    validate <experiment>     re-check Aver validations on stored results\n    verify <experiment>       numerical reproducibility: re-execute and compare bytes
    pack <experiment>         build a provenance-labeled container image\n    ci [--workers N]          run .popper-ci.pml
    farm serve                multi-tenant CI farm over synthetic tenants
                              [--tenants N] [--jobs M] [--workers W] [--template T]
                              [--schedule S] [--seed K] [--port P]
    farm submit <experiment>  run this repo's experiment across tenant clones
                              [--tenants N] [--jobs M] [--workers W]
    store stats               content-addressed store dedup ratio for this repo
    status | log | commit     repository plumbing\n    branch | checkout | merge collaboration plumbing

CACHING:
    run/trace/chaos/verify/trace-diff memoize their stages: a repeat
    with unchanged inputs replays recorded outputs byte-identically and
    prints `memo: N hits / M misses (X ms saved)`. Disable per
    invocation with --no-cache, or globally with POPPER_NO_CACHE=1.
"
    .to_string()
}

#[cfg(test)]
mod tests {
    use crate::run;
    use std::fs;
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "popper-cli-{tag}-{}",
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn listing_two_session() {
        // The exact session of Listing 2.
        let dir = temp_dir("listing2");
        let out = run(&["init"], &dir).unwrap();
        assert!(out.contains("-- Initialized Popper repo"));

        let out = run(&["experiment", "list"], &dir).unwrap();
        assert!(out.contains("-- available templates"));
        for name in ["ceph-rados", "proteustm", "mpi-comm-variability", "cloverleaf", "gassyfs", "zlog", "spark-standalone", "torpor", "malacology"] {
            assert!(out.contains(name), "listing missing {name}:\n{out}");
        }

        let out = run(&["add", "torpor", "myexp"], &dir).unwrap();
        assert!(out.contains("added experiment 'myexp'"));
        assert!(dir.join("experiments/myexp/vars.pml").is_file());
        assert!(dir.join("experiments/myexp/validations.aver").is_file());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unknown_flags_and_extra_arguments_are_refused() {
        let dir = temp_dir("flags");
        for (argv, names) in [
            (&["chaos", "g", "--seeed", "3"][..], "--seeed"),
            (&["run", "g", "--no-cahce"], "--no-cahce"),
            (&["run", "g", "--seed", "3"], "--seed"),
            (&["ci", "--wokers", "2"], "--wokers"),
            (&["status", "extra"], "'extra'"),
            (&["add", "torpor", "t", "more"], "'more'"),
            (&["farm", "submit", "e", "f"], "'f'"),
        ] {
            let err = run(argv, &dir).unwrap_err();
            assert!(err.contains(names), "{argv:?}: {err}");
        }
        let err = run(&["chaos", "g", "--seeed", "3"], &dir).unwrap_err();
        assert!(err.contains("--seed, --no-cache, --author, --sim-workers"), "{err}");
        assert!(!dir.join(".popper").exists(), "refused before anything ran");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn every_accepted_command_line_passes_the_check() {
        // Outside a repository each line gets past its command's check
        // and fails, if at all, on what comes after it.
        let dir = temp_dir("accepted");
        for argv in [
            &["chaos", "e", "--seed", "5"][..],
            &["chaos", "e", "--schedule", "gremlin", "--seed=5", "--no-cache"],
            &["ci", "--workers", "2"],
            &["commit", "add ci pipeline"],
            &["commit"],
            &["add", "torpor", "t"],
            &["experiment", "add", "torpor", "t"],
            &["experiment", "list"],
            &["run", "e", "--sim-workers", "2", "--author", "a"],
            &["verify", "e", "--no-cache"],
            &["status", "--author=a"],
            &["regression", "e", "--column", "x"],
            &["pack", "e", "--show-popperfile"],
            &["trace-diff", "e", "a..b", "--tolerance", "5", "--structure-only"],
            &["farm", "serve", "--tenants", "0", "--jobs", "1", "--port", "0", "--seed", "1"],
            &["farm", "submit", "e", "--tenants", "0", "--workers", "1"],
            &["paper", "add", "acm"],
            &["store", "stats"],
            &["experiment", "nope", "x", "y"],
            &["nope", "--anything"],
            &["--author", "a"],
        ] {
            let out = run(argv, &dir).unwrap_or_else(|e| e);
            assert!(!out.contains("unknown flag") && !out.contains("unexpected argument"), "{argv:?}: {out}");
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn double_init_fails() {
        let dir = temp_dir("doubleinit");
        run(&["init"], &dir).unwrap();
        assert!(run(&["init"], &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_and_status() {
        let dir = temp_dir("check");
        run(&["init"], &dir).unwrap();
        run(&["add", "ceph-rados", "e"], &dir).unwrap();
        let out = run(&["check"], &dir).unwrap();
        assert!(out.contains("results.csv"), "warns about missing results: {out}");
        let out = run(&["status"], &dir).unwrap();
        assert!(out.contains("paper-repo"));
        assert!(out.contains("working tree clean"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_and_validate_synthetic_experiment() {
        let dir = temp_dir("run");
        run(&["init"], &dir).unwrap();
        run(&["add", "ceph-rados", "e"], &dir).unwrap();
        let out = run(&["run", "e"], &dir).unwrap();
        assert!(out.contains("OK"), "{out}");
        assert!(dir.join("experiments/e/results.csv").is_file());
        assert!(dir.join("experiments/e/figure.txt").is_file());
        let out = run(&["validate", "e"], &dir).unwrap();
        assert!(out.contains("PASS"));
        let out = run(&["log"], &dir).unwrap();
        assert!(out.contains("record results"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn ci_pipeline_via_cli() {
        let dir = temp_dir("ci");
        run(&["init"], &dir).unwrap();
        run(&["add", "zlog", "z"], &dir).unwrap();
        let out = run(&["ci", "--workers=2"], &dir).unwrap();
        assert!(out.contains("build: passing"), "{out}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paper_build_via_cli() {
        let dir = temp_dir("paper");
        run(&["init"], &dir).unwrap();
        let out = run(&["paper", "build"], &dir).unwrap();
        assert!(out.contains("built"));
        let out = run(&["paper", "list"], &dir).unwrap();
        assert!(out.contains("bams"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn external_edit_then_commit() {
        let dir = temp_dir("edit");
        run(&["init"], &dir).unwrap();
        fs::write(dir.join("README.md"), "# my paper\n").unwrap();
        let out = run(&["status"], &dir).unwrap();
        assert!(out.contains("uncommitted"));
        run(&["commit", "edit readme"], &dir).unwrap();
        let out = run(&["status"], &dir).unwrap();
        assert!(out.contains("working tree clean"));
        let out = run(&["log"], &dir).unwrap();
        assert!(out.contains("edit readme"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chaos_via_cli() {
        let dir = temp_dir("chaos");
        run(&["init"], &dir).unwrap();
        run(&["add", "gassyfs", "g"], &dir).unwrap();
        let out = run(&["chaos", "g", "--schedule", "node-crash", "--seed", "7"], &dir).unwrap();
        assert!(out.contains("SURVIVED"), "{out}");
        assert!(out.contains("recovery:"), "{out}");
        for artifact in ["faults.json", "recovery.json", "chaos-results.csv", "trace.json"] {
            assert!(dir.join(format!("experiments/g/{artifact}")).is_file(), "missing {artifact}");
        }
        let faults = fs::read_to_string(dir.join("experiments/g/faults.json")).unwrap();
        assert!(faults.contains("\"crash\""), "{faults}");
        let trace = fs::read_to_string(dir.join("experiments/g/trace.json")).unwrap();
        assert!(trace.contains("chaos"), "fault injections must appear in the trace");
        let log = run(&["log"], &dir).unwrap();
        assert!(log.contains("record fault timeline"), "{log}");
        assert!(run(&["chaos", "g", "--schedule", "warp"], &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farm_serve_via_cli() {
        let dir = temp_dir("farm-serve");
        // No repo needed: farm serve seeds synthetic tenants. Bind port
        // 0 so the badge round-trip exercises the real HTTP endpoint.
        let out = run(
            &["farm", "serve", "--tenants", "2", "--jobs", "2", "--port", "0"],
            &dir,
        )
        .unwrap();
        assert!(out.contains("serving status/badges"), "{out}");
        assert!(out.contains("badge: passing"), "{out}");
        assert!(out.contains("0 lost"), "{out}");
        let log = fs::read_to_string(dir.join("farm-events.log")).unwrap();
        assert!(log.starts_with("farm-events v1"), "{log}");
        assert!(log.contains("t1#1"), "{log}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farm_count_flags_reject_fractions_instead_of_truncating() {
        let dir = temp_dir("farm-fractions");
        let argv = ["farm", "serve", "--tenants", "2.5", "--jobs", "1.9", "--workers", "1.5"];
        let err = run(&argv, &dir).unwrap_err();
        assert!(err.contains("--tenants expects a positive integer, got '2.5'"), "{err}");
        assert!(!dir.join("farm-events.log").exists(), "no farm may run on a rejected flag");
        let err = run(&["farm", "serve", "--seed", "7.5"], &dir).unwrap_err();
        assert!(err.contains("--seed expects an unsigned integer"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn farm_workers_are_bounded_before_a_farm_is_built() {
        use super::{farm_workers, MAX_FARM_WORKERS};
        let workers = |argv: &[&str]| farm_workers(&crate::argparse::parse(argv).unwrap());
        assert_eq!(workers(&["farm", "serve"]), Ok(2));
        let max = MAX_FARM_WORKERS.to_string();
        assert_eq!(workers(&["farm", "serve", "--workers", &max]), Ok(MAX_FARM_WORKERS));
        let above = (MAX_FARM_WORKERS + 1).to_string();
        for bad in [above.as_str(), "1000000000"] {
            let err = workers(&["farm", "serve", "--workers", bad]).unwrap_err();
            assert!(err.contains("above the farm's limit"), "{err}");
        }
    }

    #[test]
    fn farm_submit_via_cli() {
        let dir = temp_dir("farm-submit");
        run(&["init"], &dir).unwrap();
        run(&["add", "ceph-rados", "e"], &dir).unwrap();
        let out = run(&["farm", "submit", "e", "--tenants", "2", "--jobs", "2"], &dir).unwrap();
        assert!(out.contains("2 clone(s)"), "{out}");
        assert!(out.contains("0 lost"), "{out}");
        assert!(run(&["farm", "submit", "ghost"], &dir).is_err());
        assert!(run(&["farm", "frobnicate"], &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn store_stats_via_cli() {
        let dir = temp_dir("store-stats");
        run(&["init"], &dir).unwrap();
        run(&["add", "ceph-rados", "e"], &dir).unwrap();
        let out = run(&["store", "stats"], &dir).unwrap();
        assert!(out.contains("vcs object(s)"), "{out}");
        assert!(out.contains("dedup"), "{out}");
        assert!(run(&["store", "frobnicate"], &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn error_paths() {
        let dir = temp_dir("errors");
        assert!(run(&["run", "e"], &dir).is_err(), "not initialized");
        run(&["init"], &dir).unwrap();
        assert!(run(&["add", "no-such-template", "e"], &dir).is_err());
        assert!(run(&["frobnicate"], &dir).is_err());
        assert!(run(&["validate", "ghost"], &dir).is_err());
        run(&["add", "zlog", "z"], &dir).unwrap();
        assert!(run(&["add", "zlog", "z"], &dir).is_err(), "duplicate experiment");
        let help = run(&[], &dir).unwrap();
        assert!(help.contains("USAGE"));
        fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod pack_tests {
    use crate::run;
    use std::fs;

    #[test]
    fn pack_via_cli() {
        let dir = std::env::temp_dir().join(format!(
            "popper-cli-pack-{}",
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        run(&["init"], &dir).unwrap();
        run(&["add", "torpor", "t"], &dir).unwrap();
        let out = run(&["pack", "t"], &dir).unwrap();
        assert!(out.contains("packed experiment 't' as popper/t:"), "{out}");
        let pf = run(&["pack", "t", "--show-popperfile"], &dir).unwrap();
        assert!(pf.starts_with("FROM scratch"));
        assert!(pf.contains("LABEL org.popper.commit"));
        assert!(run(&["pack", "ghost"], &dir).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod merge_tests {
    use crate::run;
    use std::fs;

    #[test]
    fn reviewer_branch_merge_via_cli() {
        let dir = std::env::temp_dir().join(format!(
            "popper-cli-merge-{}",
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        run(&["init"], &dir).unwrap();
        run(&["add", "zlog", "z"], &dir).unwrap();

        // Reviewer scales the experiment on a branch.
        run(&["branch", "reviewer"], &dir).unwrap();
        let vars = fs::read_to_string(dir.join("experiments/z/vars.pml")).unwrap();
        fs::write(dir.join("experiments/z/vars.pml"), vars.replace("[1, 2, 4, 8]", "[1, 2, 4, 8, 16]")).unwrap();
        run(&["commit", "reviewer: scale to 16"], &dir).unwrap();

        // Authors edit the paper on main.
        run(&["checkout", "main"], &dir).unwrap();
        assert!(fs::read_to_string(dir.join("experiments/z/vars.pml")).unwrap().contains("[1, 2, 4, 8]"));
        fs::write(dir.join("paper/paper.md"), "# updated on main\n").unwrap();
        run(&["commit", "main: paper edit"], &dir).unwrap();

        // Merge the reviewer branch; both changes land.
        let out = run(&["merge", "reviewer"], &dir).unwrap();
        assert!(out.contains("merged 'reviewer'"), "{out}");
        assert!(fs::read_to_string(dir.join("experiments/z/vars.pml")).unwrap().contains("16]"));
        assert!(fs::read_to_string(dir.join("paper/paper.md")).unwrap().contains("updated on main"));
        let log = run(&["log"], &dir).unwrap();
        assert!(log.contains("merge 'reviewer'"));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn conflicting_merge_reports_paths() {
        let dir = std::env::temp_dir().join(format!(
            "popper-cli-conflict-{}",
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        run(&["init"], &dir).unwrap();
        run(&["branch", "other"], &dir).unwrap();
        fs::write(dir.join("README.md"), "# other version\n").unwrap();
        run(&["commit", "other readme"], &dir).unwrap();
        run(&["checkout", "main"], &dir).unwrap();
        fs::write(dir.join("README.md"), "# main version\n").unwrap();
        run(&["commit", "main readme"], &dir).unwrap();
        let err = run(&["merge", "other"], &dir).unwrap_err();
        assert!(err.contains("README.md"), "{err}");
        // The marked file is on disk for manual resolution.
        let text = fs::read_to_string(dir.join("README.md")).unwrap();
        assert!(text.contains("<<<<<<< ours"));
        fs::remove_dir_all(&dir).ok();
    }
}

#[cfg(test)]
mod diff_verify_tests {
    use crate::run;
    use std::fs;

    #[test]
    fn diff_and_verify_via_cli() {
        let dir = std::env::temp_dir().join(format!(
            "popper-cli-dv-{}",
            std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        run(&["init"], &dir).unwrap();
        run(&["add", "proteustm", "p"], &dir).unwrap();
        run(&["run", "p"], &dir).unwrap();

        // verify: deterministic re-execution matches.
        let out = run(&["verify", "p"], &dir).unwrap();
        assert!(out.contains("byte-identical"), "{out}");

        // diff: edit a file, see the hunk.
        let out = run(&["diff", "README.md"], &dir).unwrap();
        assert!(out.contains("unchanged"));
        fs::write(dir.join("README.md"), "# changed title\n").unwrap();
        let out = run(&["diff", "README.md"], &dir).unwrap();
        assert!(out.contains("+# changed title"), "{out}");

        // verify fails after tampering with results.
        let results = dir.join("experiments/p/results.csv");
        let csv = fs::read_to_string(&results).unwrap();
        fs::write(&results, csv.replacen('1', "9", 1)).unwrap();
        run(&["commit", "tamper"], &dir).unwrap();
        let err = run(&["verify", "p"], &dir).unwrap_err();
        assert!(err.contains("NOT reproducible"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }
}
