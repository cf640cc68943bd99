//! The scalability experiment (Figure `gassyfs-git`).
//!
//! "We evaluate the scalability of GassyFS … as the number of nodes in
//! the GASNet cluster increases. The workload in question compiles
//! Git. … as we increase the number of nodes, performance degrades
//! sublinearly, which is expected for workloads such as the one in
//! question." The Listing-3 Aver assertion
//! (`when workload=* and machine=* expect sublinear(nodes, time)`)
//! guards exactly this table.

use crate::fs::{GassyFs, MountOptions};
use crate::workload::{run_compile, CompileWorkload};
use crate::vfs::FsError;
use popper_format::{Table, Value};
use popper_sim::{Cluster, PlatformSpec};

/// Configuration of the scalability sweep.
#[derive(Debug, Clone)]
pub struct ScalabilityConfig {
    /// Cluster sizes to sweep (the paper's x axis).
    pub node_counts: Vec<usize>,
    /// The node platform.
    pub platform: PlatformSpec,
    /// Mount options.
    pub mount: MountOptions,
    /// The workload.
    pub workload: CompileWorkload,
    /// Label recorded in the `machine` column.
    pub machine_label: String,
}

impl Default for ScalabilityConfig {
    fn default() -> Self {
        ScalabilityConfig {
            node_counts: vec![1, 2, 4, 8, 16],
            platform: popper_sim::platforms::gassyfs_node(),
            mount: MountOptions::default(),
            workload: CompileWorkload::git(),
            machine_label: "cloudlab".into(),
        }
    }
}

/// One point of the figure.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalabilityPoint {
    /// Cluster size.
    pub nodes: usize,
    /// Compile time in seconds (virtual).
    pub time_secs: f64,
    /// Remote page-access fraction during the measured phase.
    pub remote_fraction: f64,
    /// FUSE operations during the measured phase.
    pub ops: u64,
}

/// Run the sweep.
pub fn run_scalability(config: &ScalabilityConfig) -> Result<Vec<ScalabilityPoint>, FsError> {
    let mut out = Vec::with_capacity(config.node_counts.len());
    for &nodes in &config.node_counts {
        let cluster = Cluster::new(config.platform.clone(), nodes);
        let mut fs = GassyFs::mount(cluster, config.mount.clone());
        let result = run_compile(&mut fs, &config.workload)?;
        out.push(ScalabilityPoint {
            nodes,
            time_secs: result.elapsed.as_secs_f64(),
            remote_fraction: result.remote_fraction,
            ops: result.ops,
        });
    }
    Ok(out)
}

/// Render sweep results as the experiment's `results.csv` table with
/// the columns the paper's Aver assertion names.
pub fn to_table(points: &[ScalabilityPoint], workload: &str, machine: &str) -> Table {
    let mut t = Table::new(["workload", "machine", "nodes", "time", "remote_fraction", "ops"]);
    for p in points {
        t.push_row(vec![
            Value::from(workload),
            Value::from(machine),
            Value::from(p.nodes),
            Value::Num(p.time_secs),
            Value::Num(p.remote_fraction),
            Value::from(p.ops as i64),
        ])
        .expect("fixed schema");
    }
    t
}

/// The Listing-3 assertion, verbatim.
pub const LISTING3_ASSERTION: &str =
    "when workload=* and machine=* expect sublinear(nodes, time)";

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config() -> ScalabilityConfig {
        ScalabilityConfig {
            node_counts: vec![1, 2, 4, 8],
            workload: CompileWorkload::small(),
            ..Default::default()
        }
    }

    #[test]
    fn sweep_produces_monotone_sublinear_degradation() {
        let points = run_scalability(&small_config()).unwrap();
        assert_eq!(points.len(), 4);
        // Time grows with nodes…
        for w in points.windows(2) {
            assert!(
                w[1].time_secs >= w[0].time_secs,
                "time must not drop when adding nodes: {w:?}"
            );
        }
        // …and the increments shrink (remote fraction saturates at 1-1/N).
        let d1 = points[1].time_secs - points[0].time_secs; // 1 -> 2
        let d2 = points[3].time_secs - points[2].time_secs; // 4 -> 8
        assert!(d2 < d1, "degradation must flatten: +{d1:.4}s then +{d2:.4}s");
    }

    #[test]
    fn listing3_assertion_passes_on_results() {
        let points = run_scalability(&small_config()).unwrap();
        let table = to_table(&points, "git", "cloudlab");
        let verdict = popper_aver::check(LISTING3_ASSERTION, &table).unwrap();
        assert!(verdict.passed, "{:?}", verdict.failures);
        assert_eq!(verdict.groups, 1);
    }

    #[test]
    fn listing3_assertion_rejects_tampered_results() {
        let points = run_scalability(&small_config()).unwrap();
        let mut table = to_table(&points, "git", "cloudlab");
        // Tamper: make the largest cluster catastrophically slow
        // (superlinear blow-up), as a broken re-execution would.
        let csv = table.to_csv();
        let last_time = points.last().unwrap().time_secs;
        let tampered = csv.replace(&format!("{last_time}"), &format!("{}", last_time * 400.0));
        table = Table::from_csv(&tampered).unwrap();
        let verdict = popper_aver::check(LISTING3_ASSERTION, &table).unwrap();
        assert!(!verdict.passed);
    }

    #[test]
    fn remote_fraction_tracks_one_minus_one_over_n() {
        let points = run_scalability(&small_config()).unwrap();
        for p in &points {
            let expected = 1.0 - 1.0 / p.nodes as f64;
            assert!(
                (p.remote_fraction - expected).abs() < 0.15,
                "nodes={} remote={} expected≈{expected}",
                p.nodes,
                p.remote_fraction
            );
        }
    }

    #[test]
    fn table_shape_matches_paper_columns() {
        let points = run_scalability(&ScalabilityConfig {
            node_counts: vec![1, 2],
            workload: CompileWorkload::small(),
            ..Default::default()
        })
        .unwrap();
        let t = to_table(&points, "git", "cloudlab");
        assert_eq!(t.len(), 2);
        let names = t.column_names();
        assert!(names.contains(&"workload") && names.contains(&"nodes") && names.contains(&"time"));
        // Round-trips through results.csv.
        let t2 = Table::from_csv(&t.to_csv()).unwrap();
        assert_eq!(t, t2);
    }
}
