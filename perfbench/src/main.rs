//! End-to-end and per-layer benchmark of what a Popper user runs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session|farm|sim --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. `--trace 0` measures the end-to-end
//! metrics of the named workload with no spans recorded; every workload
//! reports the same two, `setup_s` and `round_s`. `--trace 1` is a
//! separate run that records the benchmark's own spans around calls into
//! each layer and reports the per-layer metrics instead; it makes one
//! traced pass of every workload, so that each layer is measured on the
//! workload that uses it. The last line of standard output is one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (name -> value
//! and unit). See `perfbench/README.md` for the workloads and what each
//! metric should move.

mod farm;
mod report;
mod session;
mod sim;
mod stats;

use popper_format::{json, Value};
use report::Report;
use std::path::{Path, PathBuf};

/// SplitMix64 finaliser: the seeded hash every workload draws from.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What every workload gets from the command line and the host.
pub struct RunCtx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub host_cores: usize,
    /// Scratch directory for this run, removed when it ends.
    pub work: PathBuf,
}

impl RunCtx {
    /// Worker threads to give a layer that asks for `wanted`: never
    /// more than the host has cores.
    pub fn workers(&self, wanted: usize) -> usize {
        wanted.min(self.host_cores).max(1)
    }
}

/// The end-to-end metrics every workload reports: the median set-up
/// time and the wall time of one round of the workload's timed work.
const END_TO_END: [(&str, &str); 2] = [("setup_s", "s"), ("round_s", "s")];

/// A workload: its per-layer metric list and its run function.
struct Workload {
    name: &'static str,
    per_layer: fn() -> Vec<(String, &'static str)>,
    run: fn(&RunCtx, &mut Report),
}

const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "session",
        per_layer: session::per_layer,
        run: session::run,
    },
    Workload {
        name: "farm",
        per_layer: farm::per_layer,
        run: farm::run,
    },
    Workload {
        name: "sim",
        per_layer: sim::per_layer,
        run: sim::run,
    },
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                let s = value
                    .parse::<u64>()
                    .map_err(|_| format!("bad --seed '{value}'"))?;
                // The output records the seed as a JSON number, exact
                // up to 2^53.
                if s > 1 << 53 {
                    return Err(format!("--seed must be at most 2^53, got {s}"));
                }
                seed = Some(s)
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| format!("bad --seconds '{value}'"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// The commit of the checkout, when it is a git work tree.
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| format!("unknown ({r} is packed)")),
        None => head,
    }
}

/// The manifest key and the `(name, unit)` pairs a run reports: every
/// workload's per-layer metrics in a traced run, else the end-to-end ones.
fn reported(trace: bool) -> (&'static str, Vec<(String, String)>) {
    if trace {
        let all = WORKLOADS.iter().flat_map(|w| (w.per_layer)());
        ("per_layer", all.map(|(n, u)| (n, u.to_string())).collect())
    } else {
        let all = END_TO_END.iter();
        (
            "end_to_end",
            all.map(|&(n, u)| (n.into(), u.into())).collect(),
        )
    }
}

/// The `(name, unit)` pairs the manifest text `manifest` declares under
/// `key`.
fn declared(manifest: &str, key: &str) -> Result<Vec<(String, String)>, String> {
    let doc = json::parse(manifest).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .get(key)
        .and_then(Value::as_list)
        .ok_or(format!("BENCHMARK.json has no '{key}' list"))?;
    list.iter()
        .map(|m| match (m.get_str("name"), m.get_str("unit")) {
            (Some(n), Some(u)) => Ok((n.to_string(), u.to_string())),
            _ => Err(format!(
                "BENCHMARK.json: '{key}' entry without name or unit"
            )),
        })
        .collect()
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--spread") {
        return spread(&argv[1..]);
    }
    match run(&argv) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Print each metric's quartile spread (as a share of its median) over
/// the result lines saved in `files`, one run per file: the check a
/// metric's bound in `BENCHMARK.json` must pass.
fn spread(files: &[String]) {
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).unwrap_or_default();
        let Some(doc) = text
            .lines()
            .rev()
            .find_map(|l| json::parse(l).ok().filter(|d| d.get("metrics").is_some()))
        else {
            println!("{file}: no result line");
            continue;
        };
        for (name, m) in doc.get("metrics").and_then(Value::as_map).unwrap_or(&[]) {
            let Some(v) = m.get("value").and_then(Value::as_num) else {
                continue;
            };
            match values.iter_mut().find(|(n, _)| n == name) {
                Some((_, vs)) => vs.push(v),
                None => values.push((name.clone(), vec![v])),
            }
        }
    }
    for (name, vs) in values {
        let median = stats::median(&vs).unwrap_or(f64::NAN);
        let spread = stats::quartile_spread(&vs).unwrap_or(f64::NAN);
        println!(
            "{name:<40} runs {:>3}  median {median:>16.6}  spread {spread:.4}",
            vs.len()
        );
    }
}

fn run(argv: &[String]) -> Result<bool, String> {
    let args = parse_args(argv)?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == args.workload)
        .ok_or_else(|| format!("unknown workload '{}' (session, farm, sim)", args.workload))?;
    let (kind, expected) = reported(args.trace);
    let manifest = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json: {e} (run from the repository root)"))?;
    let problems = stats::check_metric_names(&declared(&manifest, kind)?, &expected);
    if !problems.is_empty() {
        return Err(format!(
            "BENCHMARK.json '{kind}' does not match what the benchmark reports: {}",
            problems.join("; ")
        ));
    }
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let work = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".bench_work")
        .join(format!("{}-{}", workload.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;

    // A timed run measures the named workload; a traced run makes one
    // pass of each, sharing the time among them.
    let passes: Vec<&Workload> = if args.trace {
        WORKLOADS.iter().collect()
    } else {
        vec![workload]
    };
    let ctx = RunCtx {
        seed: args.seed,
        seconds: args.seconds / passes.len() as f64,
        trace: args.trace,
        host_cores,
        work,
    };
    let mut report = Report::default();
    for pass in passes {
        let notes = report.notes.len();
        (pass.run)(&ctx, &mut report);
        for note in &mut report.notes[notes..] {
            *note = format!("{}: {note}", pass.name);
        }
    }
    let _ = std::fs::remove_dir_all(&ctx.work);
    // `.bench_work` itself goes too once no other run is using it.
    if let Some(parent) = ctx.work.parent() {
        let _ = std::fs::remove_dir(parent);
    }

    let produced: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect();
    for problem in stats::check_metric_names(&expected, &produced) {
        report.check(false, problem);
    }

    println!(
        "workload {} seed {} seconds {} trace {}",
        workload.name, ctx.seed, args.seconds, args.trace as u8
    );
    println!(
        "{:<40} {:>16} {:<8} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<40} {:>16.6} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for m in &report.parts {
        println!(
            "part {:<35} {:>16.6} {:<8} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &report.check_failures {
        println!("FAILED: {failure}");
    }
    let threads = report
        .threads
        .iter()
        .map(|&(layer, n)| (layer.to_string(), Value::from(n)))
        .collect();
    let samples = report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), Value::from(m.samples)))
        .collect();
    let parts = report
        .parts
        .iter()
        .map(|m| {
            let part = Value::Map(vec![
                ("value".into(), m.value.into()),
                ("unit".into(), m.unit.into()),
                ("samples".into(), m.samples.into()),
            ]);
            (m.name.clone(), part)
        })
        .collect();
    let context = Value::Map(vec![
        ("workload".into(), workload.name.into()),
        ("seed".into(), Value::Num(ctx.seed as f64)),
        ("seconds".into(), args.seconds.into()),
        ("trace".into(), Value::from(args.trace as usize)),
        ("host_cores".into(), host_cores.into()),
        ("commit".into(), commit().into()),
        ("threads".into(), Value::Map(threads)),
        ("samples".into(), Value::Map(samples)),
        ("parts".into(), Value::Map(parts)),
    ]);
    println!("{}", json::to_string(&context));
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            let metric = Value::Map(vec![
                ("value".into(), m.value.into()),
                ("unit".into(), m.unit.into()),
            ]);
            (m.name.clone(), metric)
        })
        .collect();
    let correct = report.correct();
    let result = Value::Map(vec![
        ("correct".into(), correct.into()),
        ("attempted".into(), Value::Num(report.attempted as f64)),
        ("failed".into(), Value::Num(report.failed as f64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", json::to_string(&result));
    Ok(correct)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every run, whatever its workload, reports exactly the metrics
    /// the manifest declares for its mode.
    #[test]
    fn manifest_declares_what_every_run_reports() {
        let manifest = include_str!("../../BENCHMARK.json");
        for trace in [false, true] {
            let (kind, expected) = reported(trace);
            let declared = declared(manifest, kind).unwrap();
            assert_eq!(
                stats::check_metric_names(&declared, &expected),
                Vec::<String>::new()
            );
        }
    }
}
