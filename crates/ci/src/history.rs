//! Build history, badges, and the performance-regression gate step.

use crate::runner::{BuildReport, StepOutcome};
use popper_monitor::{RegressionCheck, RegressionVerdict};
use std::fmt;

/// One recorded build.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BuildRecord {
    /// Monotonic build number.
    pub number: u64,
    /// Commit the build ran against (opaque id).
    pub commit: String,
    /// Did the build pass?
    pub passed: bool,
    /// Milliseconds the build sat in a scheduler queue before its
    /// first dispatch (0 when the build ran immediately — the
    /// single-pipeline `popper ci` path has no queue).
    pub queue_wait_ms: u64,
    /// Times the build was re-dispatched after a worker loss (0 when
    /// the first attempt completed).
    pub retries: u32,
}

/// The project's build history (what the badge and "last good commit"
/// queries read, and what the farm's fairness evidence is built from).
#[derive(Debug, Clone, Default)]
pub struct BuildHistory {
    records: Vec<BuildRecord>,
}

impl BuildHistory {
    /// Empty history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a finished build; returns its number.
    pub fn record(&mut self, commit: &str, report: &BuildReport) -> u64 {
        self.record_outcome(commit, report.passed(), 0, 0)
    }

    /// Record a finished build with scheduler provenance: how long it
    /// queued before dispatch and how many times it was retried. The
    /// farm uses this for per-tenant fairness evidence.
    pub fn record_outcome(
        &mut self,
        commit: &str,
        passed: bool,
        queue_wait_ms: u64,
        retries: u32,
    ) -> u64 {
        let number = self.records.len() as u64 + 1;
        self.records.push(BuildRecord {
            number,
            commit: commit.to_string(),
            passed,
            queue_wait_ms,
            retries,
        });
        number
    }

    /// The latest build, if any.
    pub fn latest(&self) -> Option<&BuildRecord> {
        self.records.last()
    }

    /// The most recent passing build.
    pub fn last_good(&self) -> Option<&BuildRecord> {
        self.records.iter().rev().find(|r| r.passed)
    }

    /// All records, oldest first.
    pub fn records(&self) -> &[BuildRecord] {
        &self.records
    }

    /// Pass rate over the whole history (1.0 for empty).
    pub fn pass_rate(&self) -> f64 {
        if self.records.is_empty() {
            return 1.0;
        }
        self.records.iter().filter(|r| r.passed).count() as f64 / self.records.len() as f64
    }

    /// Mean queue wait across the history, in milliseconds (0 for
    /// empty histories).
    pub fn mean_queue_wait_ms(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(|r| r.queue_wait_ms as f64).sum::<f64>()
            / self.records.len() as f64
    }

    /// Total retries across the history.
    pub fn total_retries(&self) -> u64 {
        self.records.iter().map(|r| r.retries as u64).sum()
    }

    /// Serialize to the on-disk history format. Emits the v2 format,
    /// which carries queue-wait and retry provenance per record:
    ///
    /// ```text
    /// popper-history v2
    /// #1 abc123 passed wait_ms=12 retries=0
    /// ```
    pub fn to_text(&self) -> String {
        let mut out = String::from("popper-history v2\n");
        for r in &self.records {
            out.push_str(&format!(
                "#{} {} {} wait_ms={} retries={}\n",
                r.number,
                r.commit,
                if r.passed { "passed" } else { "failed" },
                r.queue_wait_ms,
                r.retries
            ));
        }
        out
    }

    /// Parse the on-disk history format. Accepts both the v2 header
    /// and headerless v1 files (`#1 abc123 passed` lines only — old
    /// histories predate queue/retry provenance, which defaults to 0).
    pub fn from_text(text: &str) -> Result<BuildHistory, String> {
        let mut records = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line == "popper-history v2" {
                continue;
            }
            if line.starts_with("popper-history") {
                return Err(format!("unknown history version '{line}'"));
            }
            let mut parts = line.split_whitespace();
            let number: u64 = parts
                .next()
                .and_then(|p| p.strip_prefix('#'))
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("line {}: expected '#<number>'", i + 1))?;
            let commit = parts
                .next()
                .ok_or_else(|| format!("line {}: missing commit", i + 1))?
                .to_string();
            let passed = match parts.next() {
                Some("passed") => true,
                Some("failed") => false,
                other => {
                    return Err(format!("line {}: expected passed/failed, got {other:?}", i + 1))
                }
            };
            // v1 lines stop here; v2 appends key=value provenance.
            let mut queue_wait_ms = 0;
            let mut retries = 0;
            for extra in parts {
                match extra.split_once('=') {
                    Some(("wait_ms", v)) => {
                        queue_wait_ms = v
                            .parse()
                            .map_err(|_| format!("line {}: bad wait_ms '{v}'", i + 1))?;
                    }
                    Some(("retries", v)) => {
                        retries = v
                            .parse()
                            .map_err(|_| format!("line {}: bad retries '{v}'", i + 1))?;
                    }
                    // Unknown keys from future versions are skipped, not
                    // fatal — old binaries must keep reading new files.
                    Some(_) => {}
                    None => return Err(format!("line {}: bad field '{extra}'", i + 1)),
                }
            }
            records.push(BuildRecord { number, commit, passed, queue_wait_ms, retries });
        }
        Ok(BuildHistory { records })
    }
}

impl fmt::Display for BuildHistory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.records {
            write!(
                f,
                "#{:<4} {}  {}",
                r.number,
                &r.commit[..r.commit.len().min(10)],
                if r.passed { "passed" } else { "failed" }
            )?;
            if r.queue_wait_ms > 0 || r.retries > 0 {
                write!(f, "  (waited {}ms, {} retr{})", r.queue_wait_ms, r.retries, if r.retries == 1 { "y" } else { "ies" })?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// The README badge text for the latest build.
pub fn badge(history: &BuildHistory) -> String {
    match history.latest() {
        None => "build: unknown".to_string(),
        Some(r) if r.passed => "build: passing".to_string(),
        Some(_) => "build: failing".to_string(),
    }
}

/// Run a performance-regression gate as a CI step: compares candidate
/// runtimes against the baseline with `check` and converts the verdict
/// into a [`StepOutcome`] (regressions fail, improvements and no-change
/// pass, inconclusive fails loudly — silence must never masquerade as
/// green).
pub fn regression_gate_step(
    metric: &str,
    baseline: &[f64],
    candidate: &[f64],
    check: &RegressionCheck,
) -> StepOutcome {
    let verdict = check.compare(baseline, candidate);
    let line = format!("regression gate [{metric}]: {verdict}");
    match verdict {
        RegressionVerdict::Regression { .. } => StepOutcome::fail(line),
        RegressionVerdict::Inconclusive => {
            StepOutcome::fail(format!("{line} — collect more samples"))
        }
        _ => StepOutcome::pass(line),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PipelineConfig;
    use crate::runner::{run_pipeline, Executor, StepCtx};
    use popper_trace::Tracer;
    use std::sync::Arc;

    fn report(pass: bool) -> BuildReport {
        let cfg = PipelineConfig::from_pml(
            "stages: [t]\njobs:\n  - name: j\n    stage: t\n    steps: [s]\n",
        )
        .unwrap();
        let executor: Executor = Arc::new(move |_: &StepCtx| {
            if pass {
                StepOutcome::pass("ok")
            } else {
                StepOutcome::fail("boom")
            }
        });
        run_pipeline(&cfg, executor, 1, Tracer::disabled())
    }

    #[test]
    fn history_and_badge() {
        let mut h = BuildHistory::new();
        assert_eq!(badge(&h), "build: unknown");
        h.record("abc123", &report(true));
        assert_eq!(badge(&h), "build: passing");
        h.record("def456", &report(false));
        assert_eq!(badge(&h), "build: failing");
        assert_eq!(h.latest().unwrap().number, 2);
        assert_eq!(h.last_good().unwrap().commit, "abc123");
        assert_eq!(h.pass_rate(), 0.5);
        let text = h.to_string();
        assert!(text.contains("#1"));
        assert!(text.contains("failed"));
    }

    #[test]
    fn queue_and_retry_provenance_round_trips() {
        let mut h = BuildHistory::new();
        h.record_outcome("abc123", true, 42, 0);
        h.record_outcome("def456", false, 0, 3);
        assert_eq!(h.latest().unwrap().retries, 3);
        assert_eq!(h.mean_queue_wait_ms(), 21.0);
        assert_eq!(h.total_retries(), 3);
        let text = h.to_text();
        assert!(text.starts_with("popper-history v2\n"), "{text}");
        assert!(text.contains("wait_ms=42"), "{text}");
        assert!(text.contains("retries=3"), "{text}");
        let parsed = BuildHistory::from_text(&text).unwrap();
        assert_eq!(parsed.records(), h.records());
        // Display annotates only records with provenance.
        let shown = h.to_string();
        assert!(shown.contains("waited 42ms"), "{shown}");
        assert!(shown.contains("3 retries"), "{shown}");
    }

    #[test]
    fn parses_v1_history_files() {
        // Old histories: no header, no provenance fields.
        let old = "#1 abc123 passed\n#2 def456 failed\n";
        let h = BuildHistory::from_text(old).unwrap();
        assert_eq!(h.records().len(), 2);
        assert_eq!(h.records()[0].queue_wait_ms, 0);
        assert_eq!(h.records()[0].retries, 0);
        assert!(h.records()[0].passed);
        assert!(!h.records()[1].passed);
        // Unknown future keys are tolerated; junk fields are not.
        assert!(BuildHistory::from_text("#1 abc passed shards=4\n").is_ok());
        assert!(BuildHistory::from_text("#1 abc passed garbage\n").is_err());
        assert!(BuildHistory::from_text("popper-history v9\n").is_err());
        assert!(BuildHistory::from_text("#x abc passed\n").is_err());
        assert!(BuildHistory::from_text("#1 abc maybe\n").is_err());
    }

    #[test]
    fn regression_gate_outcomes() {
        let check = RegressionCheck::default();
        let baseline: Vec<f64> = (0..20).map(|i| 100.0 + (i % 5) as f64).collect();
        // Clearly slower candidate fails the gate.
        let slower: Vec<f64> = baseline.iter().map(|v| v * 1.3).collect();
        let out = regression_gate_step("gassyfs-git", &baseline, &slower, &check);
        assert!(!out.success);
        assert!(out.log.contains("REGRESSION"));
        // Same distribution passes.
        let out = regression_gate_step("gassyfs-git", &baseline, &baseline.clone(), &check);
        assert!(out.success);
        // Faster candidate passes and says so.
        let faster: Vec<f64> = baseline.iter().map(|v| v * 0.7).collect();
        let out = regression_gate_step("gassyfs-git", &baseline, &faster, &check);
        assert!(out.success);
        assert!(out.log.contains("improvement"));
        // Too little data fails loudly.
        let out = regression_gate_step("gassyfs-git", &[1.0], &[2.0], &check);
        assert!(!out.success);
        assert!(out.log.contains("more samples"));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// A history line: a build number, a commit, a verdict and
        /// provenance fields, each well formed or arbitrary.
        fn line() -> BoxedStrategy<String> {
            let number = prop_oneof!["#[0-9]{1,4}", "#[0-9]{1,4}", "#-?[0-9]{0,21}", "\\PC{0,4}"];
            let commit = prop_oneof!["[0-9a-f]{1,12}", "\\PC{0,6}"];
            let verdict = prop_oneof![Just("passed".to_string()), Just("failed".to_string()), "\\PC{0,6}"];
            let field = || ((0..3usize), "-?[0-9]{0,21}").prop_map(|(k, v)| format!("{}={v}", ["wait_ms", "retries", "x"][k]));
            let extra = prop_oneof![field(), field(), field(), "\\PC{0,6}"];
            (number, commit, verdict, proptest::collection::vec(extra, 0..3))
                .prop_map(|(number, commit, verdict, extra)| format!("{number} {commit} {verdict} {}", extra.join(" ")))
                .boxed()
        }

        proptest! {
            /// Any short history text parses or gives an error, never a
            /// panic; what parses renders and round-trips.
            #[test]
            fn from_text_never_panics(
                texts in proptest::collection::vec(
                    proptest::collection::vec(
                        prop_oneof![line(), line(), line(), Just("popper-history v2".to_string()), "popper-history \\PC{0,3}"],
                        0..4,
                    ),
                    1..16,
                ),
            ) {
                for lines in &texts {
                    let Ok(history) = BuildHistory::from_text(&lines.join("\n")) else { continue };
                    let _ = history.to_string();
                    let again = BuildHistory::from_text(&history.to_text()).map(|h| h.records);
                    prop_assert_eq!(again, Ok(history.records));
                }
            }
        }
    }
}
