//! Baseliner-style platform fingerprints and the execution gate.
//!
//! §Automated Validation: *"an important step is to corroborate that the
//! baseline performance of the experiment for a new environment can be
//! reproduced … If the baseline performance cannot be reproduced, there
//! is no point in executing the experiment."* A [`Baseline`] is that
//! fingerprint; a [`BaselineGate`] compares a stored baseline against
//! the current environment and decides whether the experiment may run.

use popper_format::{Table, Value};
use popper_sim::PlatformSpec;
use std::collections::BTreeMap;
use std::fmt;

/// A platform fingerprint: named capability measurements.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The platform the fingerprint was taken on.
    pub platform: String,
    /// Dimension name -> measured capability.
    pub dims: BTreeMap<String, f64>,
}

impl Baseline {
    /// Fingerprint a platform model (the simulated "measurement").
    pub fn of_platform(p: &PlatformSpec) -> Baseline {
        Baseline {
            platform: p.name.clone(),
            dims: p.fingerprint().into_iter().map(|(k, v)| (k.to_string(), v)).collect(),
        }
    }

    /// Build from explicit measurements.
    #[cfg(test)]
    fn from_measurements(platform: &str, dims: impl IntoIterator<Item = (String, f64)>) -> Baseline {
        Baseline { platform: platform.to_string(), dims: dims.into_iter().collect() }
    }

    /// Serialize as a CSV table (`dim,value` plus a platform column) —
    /// the artifact stored in the experiment's `datasets/` folder.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["platform", "dim", "value"]);
        for (k, v) in &self.dims {
            t.push_row(vec![
                Value::from(self.platform.as_str()),
                Value::from(k.as_str()),
                Value::Num(*v),
            ])
            .expect("fixed schema");
        }
        t
    }

    /// Parse back from the CSV table form.
    pub fn from_table(t: &Table) -> Result<Baseline, String> {
        if t.is_empty() {
            return Err("empty baseline table".into());
        }
        let platform = t
            .cell(0, "platform")
            .and_then(Value::as_str)
            .ok_or("missing platform column")?
            .to_string();
        let mut dims = BTreeMap::new();
        for row in t.iter() {
            let dim = row.str("dim").ok_or("missing dim")?.to_string();
            let value = row.num("value").ok_or("missing value")?;
            dims.insert(dim, value);
        }
        Ok(Baseline { platform, dims })
    }

    /// Per-dimension relative deviation of `other` from `self`:
    /// `(dim, self value, other value, |rel dev|)`.
    pub fn deviations(&self, other: &Baseline) -> Vec<(String, f64, f64, f64)> {
        let mut out = Vec::new();
        for (dim, &expected) in &self.dims {
            match other.dims.get(dim) {
                Some(&actual) => {
                    let dev = if expected == 0.0 {
                        if actual == 0.0 {
                            0.0
                        } else {
                            f64::INFINITY
                        }
                    } else {
                        ((actual - expected) / expected).abs()
                    };
                    out.push((dim.clone(), expected, actual, dev));
                }
                None => out.push((dim.clone(), expected, f64::NAN, f64::INFINITY)),
            }
        }
        out
    }
}

/// The outcome of the baseline gate.
#[derive(Debug, Clone, PartialEq)]
pub enum GateOutcome {
    /// Every dimension is within tolerance; the experiment may run.
    Proceed,
    /// The environment does not reproduce the baseline; lists
    /// `(dimension, expected, actual, relative deviation)` offenders.
    Blocked(Vec<(String, f64, f64, f64)>),
}

impl GateOutcome {
    /// True when the experiment may run.
    pub fn may_run(&self) -> bool {
        matches!(self, GateOutcome::Proceed)
    }
}

impl fmt::Display for GateOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateOutcome::Proceed => write!(f, "baseline reproduced; proceeding"),
            GateOutcome::Blocked(offenders) => {
                writeln!(f, "baseline NOT reproduced; refusing to run:")?;
                for (dim, exp, act, dev) in offenders {
                    writeln!(f, "  {dim}: expected {exp:.3}, measured {act:.3} ({:.1}% off)", dev * 100.0)?;
                }
                Ok(())
            }
        }
    }
}

/// The sanitization gate: a stored baseline plus a tolerance.
#[derive(Debug, Clone)]
pub struct BaselineGate {
    /// The fingerprint recorded with the original experiment.
    pub expected: Baseline,
    /// Maximum allowed relative deviation per dimension (e.g. 0.25).
    pub tolerance: f64,
}

impl BaselineGate {
    /// A gate with the given tolerance.
    pub fn new(expected: Baseline, tolerance: f64) -> Self {
        assert!(tolerance >= 0.0);
        BaselineGate { expected, tolerance }
    }

    /// Check the current environment's fingerprint.
    pub fn check(&self, current: &Baseline) -> GateOutcome {
        let offenders: Vec<_> = self
            .expected
            .deviations(current)
            .into_iter()
            .filter(|(_, _, _, dev)| *dev > self.tolerance)
            .collect();
        if offenders.is_empty() {
            GateOutcome::Proceed
        } else {
            GateOutcome::Blocked(offenders)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn fingerprint_covers_platform_dims() {
        let b = Baseline::of_platform(&platforms::xeon_2006());
        assert_eq!(b.platform, "xeon-2006");
        assert_eq!(b.dims.len(), 7);
        assert!(b.dims.contains_key("mem_bw"));
    }

    #[test]
    fn same_platform_passes_gate() {
        let p = platforms::cloudlab_c220g();
        let gate = BaselineGate::new(Baseline::of_platform(&p), 0.05);
        assert!(gate.check(&Baseline::of_platform(&p)).may_run());
    }

    #[test]
    fn different_platform_blocked() {
        let gate = BaselineGate::new(Baseline::of_platform(&platforms::xeon_2006()), 0.25);
        let outcome = gate.check(&Baseline::of_platform(&platforms::cloudlab_c220g()));
        match outcome {
            GateOutcome::Blocked(offenders) => {
                assert!(!offenders.is_empty());
                // Memory bandwidth is off by ~10x between these machines.
                assert!(offenders.iter().any(|(d, ..)| d == "mem_bw"));
            }
            GateOutcome::Proceed => panic!("a 10-year gap must not reproduce the baseline"),
        }
    }

    #[test]
    fn tolerance_widens_the_gate() {
        let base = Baseline::of_platform(&platforms::cloudlab_c220g());
        // Same platform with small drift (e.g. thermal conditions).
        let drifted = Baseline::from_measurements(
            "cloudlab-c220g",
            base.dims.iter().map(|(k, v)| (k.clone(), v * 1.08)),
        );
        assert!(!BaselineGate::new(base.clone(), 0.05).check(&drifted).may_run());
        assert!(BaselineGate::new(base, 0.10).check(&drifted).may_run());
    }

    #[test]
    fn missing_dimension_blocks() {
        let base = Baseline::of_platform(&platforms::hpc_node());
        let partial = Baseline::from_measurements("hpc-node", [("int_ops".to_string(), 6.72)]);
        let outcome = BaselineGate::new(base, 0.5).check(&partial);
        assert!(!outcome.may_run());
    }

    #[test]
    fn table_round_trip() {
        let b = Baseline::of_platform(&platforms::ec2_vm());
        let t = b.to_table();
        let parsed = Baseline::from_table(&t).unwrap();
        assert_eq!(parsed, b);
        // And it survives the CSV file on disk.
        let reparsed = Baseline::from_table(&Table::from_csv(&t.to_csv()).unwrap()).unwrap();
        assert_eq!(reparsed, b);
    }

    #[test]
    fn gate_outcome_display() {
        let gate = BaselineGate::new(Baseline::of_platform(&platforms::xeon_2006()), 0.1);
        let blocked = gate.check(&Baseline::of_platform(&platforms::hpc_node()));
        let text = blocked.to_string();
        assert!(text.contains("NOT reproduced"));
        assert!(GateOutcome::Proceed.to_string().contains("proceeding"));
    }

    #[test]
    fn hypervisor_tax_shows_in_fingerprint() {
        // The EC2 fingerprint differs from bare CloudLab only in the
        // syscall dimension — the gate catches a silent VM substitution.
        let bare = Baseline::of_platform(&platforms::cloudlab_c220g());
        let mut vm_platform = platforms::cloudlab_c220g().virtualized(1.35, "vm");
        vm_platform.cores = platforms::cloudlab_c220g().cores;
        let vm = Baseline::of_platform(&vm_platform);
        let gate = BaselineGate::new(bare, 0.2);
        let outcome = gate.check(&vm);
        match outcome {
            GateOutcome::Blocked(offenders) => {
                assert_eq!(offenders.len(), 1);
                assert_eq!(offenders[0].0, "syscall");
            }
            GateOutcome::Proceed => panic!("hypervisor tax must trip the gate"),
        }
    }
}
