//! Workloads replayed against GassyFS.
//!
//! The paper's Figure `gassyfs-git` uses "a workload \[that\] compiles
//! Git": several hundred translation units reading shared headers and
//! writing object files, followed by a link step, driven by parallel
//! make jobs. [`CompileWorkload::git`] reproduces that shape
//! synthetically (≈450 TUs, ≈200 shared headers); [`run_compile`]
//! replays it with a greedy parallel-job scheduler over virtual time.
//! It is the only workload this module defines.

use crate::fs::GassyFs;
use crate::vfs::FsError;
use popper_sim::rng::Rng;
use popper_sim::{Demand, Nanos};

/// The compile-a-project workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileWorkload {
    /// Number of translation units (git ≈ 450).
    pub translation_units: usize,
    /// Number of shared headers (git ≈ 200).
    pub shared_headers: usize,
    /// Headers each TU includes (sampled with the seed).
    pub headers_per_tu: usize,
    /// Average source-file size, bytes.
    pub source_bytes: usize,
    /// Average header size, bytes.
    pub header_bytes: usize,
    /// Average object-file size, bytes.
    pub object_bytes: usize,
    /// Parallel make jobs.
    pub jobs: usize,
    /// CPU demand to compile one KiB of source.
    pub compile_demand_per_kib: Demand,
    /// Workload seed (header sampling, size jitter).
    pub seed: u64,
}

impl CompileWorkload {
    /// The git-compilation shape used by the paper's figure.
    pub fn git() -> Self {
        CompileWorkload {
            translation_units: 450,
            shared_headers: 200,
            headers_per_tu: 15,
            source_bytes: 12 * 1024,
            header_bytes: 6 * 1024,
            object_bytes: 30 * 1024,
            jobs: 8,
            compile_demand_per_kib: Demand {
                int_ops: 2.5e5,
                branch_misses: 5.0e3,
                mem_stream_bytes: 8.0e3,
                mem_random_accesses: 2.5e2,
                ..Default::default()
            },
            seed: 42,
        }
    }

    /// A scaled-down variant for fast tests.
    pub fn small() -> Self {
        CompileWorkload { translation_units: 40, shared_headers: 30, headers_per_tu: 6, jobs: 4, ..Self::git() }
    }
}

/// What a workload run produced.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Wall-clock (virtual) time of the measured phase.
    pub elapsed: Nanos,
    /// FUSE operations during the whole run.
    pub ops: u64,
    /// Fraction of page accesses that crossed the fabric.
    pub remote_fraction: f64,
    /// Bytes written by the measured phase.
    pub bytes_written: u64,
}

/// One translation unit of the replay: its source, the shared headers
/// it includes, and the object file it writes.
struct TuPlan {
    source: String,
    size: usize,
    included: Vec<usize>,
    object: String,
    obj_size: usize,
}

fn jitter(rng: &mut Rng, base: usize) -> usize {
    // ±25% size jitter, never zero.
    let lo = (base as f64 * 0.75) as usize;
    let hi = (base as f64 * 1.25) as usize;
    rng.range(lo.max(1)..hi.max(2) + 1)
}

/// Replay the compile workload. Populates the tree (untimed), then
/// measures compile + link under `jobs` parallel make jobs.
pub fn run_compile(fs: &mut GassyFs, w: &CompileWorkload) -> Result<WorkloadResult, FsError> {
    assert!(w.jobs >= 1 && w.translation_units >= 1 && w.shared_headers >= 1);
    let mut rng = Rng::new(w.seed);

    // --- populate (untimed: `git clone` happened before the benchmark) ---
    fs.mkdir_p("/git/src", Nanos::ZERO)?;
    fs.mkdir_p("/git/include", Nanos::ZERO)?;
    fs.mkdir_p("/git/obj", Nanos::ZERO)?;
    let mut headers = Vec::with_capacity(w.shared_headers);
    for h in 0..w.shared_headers {
        let size = jitter(&mut rng, w.header_bytes);
        let path = format!("/git/include/h{h}.h");
        fs.write_timing(&path, size, Nanos::ZERO)?;
        headers.push((path, size));
    }
    let mut tu_plans = Vec::with_capacity(w.translation_units);
    for tu in 0..w.translation_units {
        let size = jitter(&mut rng, w.source_bytes);
        let source = format!("/git/src/tu{tu}.c");
        fs.write_timing(&source, size, Nanos::ZERO)?;
        let included: Vec<usize> = (0..w.headers_per_tu).map(|_| rng.range(0..w.shared_headers)).collect();
        let obj_size = jitter(&mut rng, w.object_bytes);
        tu_plans.push(TuPlan { source, size, included, object: format!("/git/obj/tu{tu}.o"), obj_size });
    }

    // --- measured phase: parallel make ---
    let ops_before = fs.op_count();
    let stats_before = fs.access_stats();
    let mut bytes_written = 0u64;
    // Greedy list scheduling: each job owns a time cursor; the
    // least-loaded job takes the next TU. Deterministic (ties by index).
    let mut job_time = vec![Nanos::ZERO; w.jobs];
    for plan in &tu_plans {
        let (j, _) = job_time
            .iter()
            .enumerate()
            .min_by_key(|(i, t)| (**t, *i))
            .expect("jobs >= 1");
        let mut t = job_time[j];
        // Read headers then the source.
        for &h in &plan.included {
            t = fs.read_timing(&headers[h].0, t)?;
        }
        t = fs.read_timing(&plan.source, t)?;
        // Compile on one client core.
        let kib = (plan.size as f64 + plan.included.iter().map(|&h| headers[h].1 as f64).sum::<f64>()) / 1024.0;
        let demand = w.compile_demand_per_kib.scaled(kib);
        t += fs.cluster.compute_duration(0, &demand);
        // Write the object file.
        t = fs.write_timing(&plan.object, plan.obj_size, t)?;
        bytes_written += plan.obj_size as u64;
        job_time[j] = t;
    }
    let compile_done = job_time.iter().copied().max().unwrap_or(Nanos::ZERO);

    // Link: read every object, write the binary.
    let mut t = compile_done;
    let mut binary_size = 0usize;
    for plan in &tu_plans {
        t = fs.read_timing(&plan.object, t)?;
        binary_size += plan.obj_size / 3;
    }
    let link_demand = w.compile_demand_per_kib.scaled(binary_size as f64 / 1024.0);
    t += fs.cluster.compute_duration(0, &link_demand);
    t = fs.write_timing("/git/git-binary", binary_size.max(1), t)?;
    bytes_written += binary_size as u64;

    let stats_after = fs.access_stats();
    let delta_local = stats_after.local - stats_before.local;
    let delta_remote = stats_after.remote - stats_before.remote;
    let remote_fraction = if delta_local + delta_remote == 0 {
        0.0
    } else {
        delta_remote as f64 / (delta_local + delta_remote) as f64
    };
    Ok(WorkloadResult {
        elapsed: t,
        ops: fs.op_count() - ops_before,
        remote_fraction,
        bytes_written,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MountOptions;
    use popper_sim::{platforms, Cluster};

    fn mount(nodes: usize) -> GassyFs {
        GassyFs::mount(Cluster::new(platforms::gassyfs_node(), nodes), MountOptions::default())
    }

    #[test]
    fn compile_runs_and_produces_objects() {
        let mut fs = mount(2);
        let w = CompileWorkload::small();
        let r = run_compile(&mut fs, &w).unwrap();
        assert!(r.elapsed > Nanos::ZERO);
        assert!(r.ops > w.translation_units as u64 * 2);
        assert!(r.bytes_written > 0);
        // All objects plus the binary exist.
        assert_eq!(fs.readdir("/git/obj").unwrap().len(), w.translation_units);
        assert!(fs.stat("/git/git-binary").unwrap().size > 0);
    }

    #[test]
    fn compile_is_deterministic() {
        let run = || {
            let mut fs = mount(4);
            run_compile(&mut fs, &CompileWorkload::small()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn single_node_is_fastest_and_fully_local() {
        let w = CompileWorkload::small();
        let mut one = mount(1);
        let r1 = run_compile(&mut one, &w).unwrap();
        assert_eq!(r1.remote_fraction, 0.0);
        let mut eight = mount(8);
        let r8 = run_compile(&mut eight, &w).unwrap();
        assert!(r8.remote_fraction > 0.5);
        assert!(r8.elapsed > r1.elapsed, "remote traffic must cost time: {} vs {}", r8.elapsed, r1.elapsed);
    }

    #[test]
    fn more_jobs_help_when_local() {
        let mut w = CompileWorkload::small();
        w.jobs = 1;
        let mut fs1 = mount(1);
        let serial = run_compile(&mut fs1, &w).unwrap();
        w.jobs = 8;
        let mut fs8 = mount(1);
        let parallel = run_compile(&mut fs8, &w).unwrap();
        assert!(
            parallel.elapsed < serial.elapsed,
            "8 jobs {} must beat 1 job {}",
            parallel.elapsed,
            serial.elapsed
        );
    }
}
