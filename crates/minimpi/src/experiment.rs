//! The noisy-neighborhood variability study.
//!
//! "An MPI application runs multiple times and its communication
//! performance is measured with mpiP. The goal in this experiment is to
//! identify root causes of variability across executions." The study
//! runs the LULESH proxy repeatedly under a *quiet* configuration and
//! under *noisy* ones (periodic OS noise with a per-repetition phase,
//! and/or a co-located tenant), then compares the runtime
//! distributions and attributes the cause from the mpiP profiles.

use crate::comm::MpiWorld;
use crate::lulesh::{run, LuleshConfig};
use popper_aver::stats;
use popper_format::{Table, Value};
use popper_sim::noise::{NoisyNeighbor, OsNoise};
use popper_sim::rng::Rng;
use popper_sim::{platforms, Cluster, Nanos, PlatformSpec};

/// What disturbs the cluster in a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum NoiseScenario {
    /// Dedicated, quiet nodes (the HPC ideal).
    Quiet,
    /// Periodic OS noise on `nodes` with the given period/duration; the
    /// phase is re-drawn per repetition (that's where run-to-run
    /// variability comes from).
    OsNoise {
        /// Affected node ids.
        nodes: Vec<usize>,
        /// Noise period.
        period: Nanos,
        /// Stolen window per period.
        duration: Nanos,
    },
    /// A co-located tenant stealing CPU/NIC shares on `nodes`, with the
    /// share re-drawn per repetition in `cpu_share ± spread`.
    Neighbor {
        /// Affected node ids.
        nodes: Vec<usize>,
        /// Mean stolen CPU share.
        cpu_share: f64,
        /// Per-repetition uniform spread around the mean.
        spread: f64,
    },
}

impl NoiseScenario {
    /// Short label for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            NoiseScenario::Quiet => "quiet",
            NoiseScenario::OsNoise { .. } => "os-noise",
            NoiseScenario::Neighbor { .. } => "neighbor",
        }
    }
}

/// The study configuration.
#[derive(Debug, Clone)]
pub struct VariabilityStudy {
    /// The proxy configuration.
    pub app: LuleshConfig,
    /// The platform.
    pub platform: PlatformSpec,
    /// Cluster size.
    pub nodes: usize,
    /// Repetitions per scenario (the paper's community habit: ~10).
    pub repetitions: usize,
    /// The scenarios to compare.
    pub scenarios: Vec<NoiseScenario>,
    /// RNG seed (phases and shares derive from it).
    pub seed: u64,
}

impl Default for VariabilityStudy {
    fn default() -> Self {
        VariabilityStudy {
            app: LuleshConfig::paper(),
            platform: platforms::hpc_node(),
            nodes: 9,
            repetitions: 10,
            scenarios: vec![
                NoiseScenario::Quiet,
                NoiseScenario::OsNoise {
                    nodes: vec![4],
                    period: Nanos::from_millis(10),
                    duration: Nanos::from_millis(1),
                },
                NoiseScenario::Neighbor { nodes: vec![2, 5], cpu_share: 0.2, spread: 0.15 },
            ],
            seed: 7,
        }
    }
}

/// One repetition's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct Repetition {
    /// Scenario label.
    pub scenario: &'static str,
    /// Repetition index.
    pub rep: usize,
    /// Runtime in seconds.
    pub time_secs: f64,
    /// Mean MPI fraction.
    pub mpi_fraction: f64,
    /// The rank with the most compute time (the straggler) — root-cause
    /// attribution.
    pub straggler_rank: usize,
}

/// The study's full outcome.
#[derive(Debug, Clone)]
pub struct StudyResult {
    /// All repetitions, scenario-major.
    pub repetitions: Vec<Repetition>,
}

impl StudyResult {
    /// Runtimes of one scenario.
    pub fn times(&self, scenario: &str) -> Vec<f64> {
        self.repetitions
            .iter()
            .filter(|r| r.scenario == scenario)
            .map(|r| r.time_secs)
            .collect()
    }

    /// Coefficient of variation of a scenario's runtimes.
    pub fn cov(&self, scenario: &str) -> f64 {
        let times = self.times(scenario);
        if times.len() < 2 {
            return 0.0;
        }
        stats::stddev(&times) / stats::mean(&times)
    }

    /// Long-format results table: `scenario, rep, time, mpi_fraction,
    /// straggler`.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["scenario", "rep", "time", "mpi_fraction", "straggler"]);
        for r in &self.repetitions {
            t.push_row(vec![
                Value::from(r.scenario),
                Value::from(r.rep),
                Value::Num(r.time_secs),
                Value::Num(r.mpi_fraction),
                Value::from(r.straggler_rank),
            ])
            .expect("fixed schema");
        }
        t
    }
}

/// Run the study.
pub fn run_variability_study(study: &VariabilityStudy) -> StudyResult {
    let mut rng = Rng::new(study.seed);
    let mut repetitions = Vec::new();
    for scenario in &study.scenarios {
        for rep in 0..study.repetitions {
            let mut cluster = Cluster::new(study.platform.clone(), study.nodes);
            match scenario {
                NoiseScenario::Quiet => {}
                NoiseScenario::OsNoise { nodes, period, duration } => {
                    for &n in nodes {
                        let phase = Nanos::from_nanos(rng.range(0..period.as_nanos().max(1)));
                        cluster.set_noise(n, Some(OsNoise::new(*period, *duration, phase)));
                    }
                }
                NoiseScenario::Neighbor { nodes, cpu_share, spread } => {
                    for &n in nodes {
                        let share = (cpu_share + rng.range(-*spread..*spread)).clamp(0.0, 0.9);
                        cluster.set_neighbor(n, NoisyNeighbor::new(share, share / 2.0));
                    }
                }
            }
            let mut world = MpiWorld::new(cluster, study.app.ranks());
            let result = run(&mut world, &study.app);
            let (_victim, straggler) = world.profile.extremes().unwrap_or((0, 0));
            repetitions.push(Repetition {
                scenario: scenario.label(),
                rep,
                time_secs: result.elapsed.as_secs_f64(),
                mpi_fraction: result.mpi_fraction,
                straggler_rank: straggler,
            });
        }
    }
    StudyResult { repetitions }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> VariabilityStudy {
        VariabilityStudy {
            app: LuleshConfig::small(),
            nodes: 4,
            repetitions: 6,
            scenarios: vec![
                NoiseScenario::Quiet,
                NoiseScenario::OsNoise {
                    nodes: vec![1],
                    period: Nanos::from_millis(1),
                    duration: Nanos::from_micros(150),
                },
                NoiseScenario::Neighbor { nodes: vec![2], cpu_share: 0.25, spread: 0.2 },
            ],
            ..Default::default()
        }
    }

    #[test]
    fn quiet_runs_are_identical_noisy_runs_vary() {
        let result = run_variability_study(&small_study());
        let quiet = result.times("quiet");
        assert_eq!(quiet.len(), 6);
        assert!(quiet.windows(2).all(|w| w[0] == w[1]), "controlled runs must be bit-identical");
        assert!(result.cov("quiet") < 1e-12);
        // OS noise with random phases: repetitions differ.
        assert!(result.cov("os-noise") > 0.0);
        // Neighbor share varies per rep: strong variability.
        assert!(result.cov("neighbor") > result.cov("quiet"));
    }

    #[test]
    fn noise_slows_the_application() {
        let result = run_variability_study(&small_study());
        let quiet_mean = stats::mean(&result.times("quiet"));
        let noise_mean = stats::mean(&result.times("os-noise"));
        let neighbor_mean = stats::mean(&result.times("neighbor"));
        assert!(noise_mean > quiet_mean);
        assert!(neighbor_mean > quiet_mean);
    }

    #[test]
    fn straggler_attribution_points_at_noisy_node() {
        let study = small_study();
        let result = run_variability_study(&study);
        // Under the neighbor scenario node 2 is disturbed; with 8 ranks
        // on 4 nodes, ranks 2 and 6 live there.
        for r in result.repetitions.iter().filter(|r| r.scenario == "neighbor") {
            assert!(
                r.straggler_rank % study.nodes == 2,
                "straggler rank {} not on the noisy node",
                r.straggler_rank
            );
        }
    }

    #[test]
    fn statistical_comparison_detects_noise() {
        // The §Discussion "statistical reproducibility" method: a rank
        // test distinguishes noisy from quiet distributions.
        let result = run_variability_study(&small_study());
        let quiet = result.times("quiet");
        let neighbor = result.times("neighbor");
        let test = popper_monitor::mann_whitney_u(&quiet, &neighbor).unwrap();
        assert!(test.p_value < 0.05, "p={}", test.p_value);
    }

    #[test]
    fn table_round_trips_and_aver_checks() {
        let result = run_variability_study(&small_study());
        let t = result.to_table();
        assert_eq!(t.len(), 18);
        let verdict = popper_aver::check(
            "when scenario = quiet expect constant(time, 1); \
             when scenario=* expect count(time) = 6",
            &t,
        )
        .unwrap();
        assert!(verdict.passed, "{:?}", verdict.failures);
    }

    #[test]
    fn study_is_deterministic_given_seed() {
        let a = run_variability_study(&small_study());
        let b = run_variability_study(&small_study());
        assert_eq!(a.repetitions, b.repetitions);
        let mut different_seed = small_study();
        different_seed.seed = 99;
        let c = run_variability_study(&different_seed);
        // Quiet repetitions are seed-independent…
        assert_eq!(a.times("quiet"), c.times("quiet"));
        // …noisy ones are not.
        assert_ne!(a.times("os-noise"), c.times("os-noise"));
    }
}
