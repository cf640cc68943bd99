//! Performance profiles: the battery's runtimes on one platform.

use popper_format::{Table, Value};
use popper_monitor::stressors::STRESSORS;
use popper_sim::PlatformSpec;

/// A platform's performance profile: one runtime per stressor.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceProfile {
    /// Platform name.
    pub platform: String,
    /// `(stressor name, runtime seconds)` in battery order.
    pub entries: Vec<(String, f64)>,
}

impl PerformanceProfile {
    /// Profile a platform *model*: simulated runtime of `units` work
    /// units of every stressor.
    pub fn of_platform(spec: &PlatformSpec, units: f64) -> PerformanceProfile {
        assert!(units > 0.0);
        PerformanceProfile {
            platform: spec.name.clone(),
            entries: STRESSORS
                .iter()
                .map(|s| (s.name.to_string(), s.simulated_runtime(spec, units).as_secs_f64()))
                .collect(),
        }
    }

    /// Runtime of one stressor.
    pub fn runtime(&self, stressor: &str) -> Option<f64> {
        self.entries.iter().find(|(n, _)| n == stressor).map(|(_, t)| *t)
    }

    /// Export as the experiment's `results.csv` rows.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["machine", "stressor", "time"]);
        for (name, secs) in &self.entries {
            t.push_row(vec![
                Value::from(self.platform.as_str()),
                Value::from(name.as_str()),
                Value::Num(*secs),
            ])
            .expect("fixed schema");
        }
        t
    }

    /// Parse back from the table form (inverse of [`to_table`](Self::to_table)).
    pub fn from_table(t: &Table) -> Result<PerformanceProfile, String> {
        if t.is_empty() {
            return Err("empty profile table".into());
        }
        let platform = t
            .cell(0, "machine")
            .and_then(Value::as_str)
            .ok_or("missing machine column")?
            .to_string();
        let mut entries = Vec::with_capacity(t.len());
        for row in t.iter() {
            entries.push((
                row.str("stressor").ok_or("missing stressor")?.to_string(),
                row.num("time").ok_or("missing time")?,
            ));
        }
        Ok(PerformanceProfile { platform, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::platforms;

    #[test]
    fn profiles_cover_the_battery() {
        let p = PerformanceProfile::of_platform(&platforms::xeon_2006(), 1.0);
        assert_eq!(p.entries.len(), STRESSORS.len());
        assert!(p.entries.iter().all(|(_, t)| *t > 0.0));
        assert_eq!(p.platform, "xeon-2006");
        assert!(p.runtime("cpu-int").unwrap() > 0.0);
        assert!(p.runtime("nope").is_none());
    }

    #[test]
    fn profile_scales_with_units() {
        let one = PerformanceProfile::of_platform(&platforms::hpc_node(), 1.0);
        let five = PerformanceProfile::of_platform(&platforms::hpc_node(), 5.0);
        for ((_, a), (_, b)) in one.entries.iter().zip(&five.entries) {
            assert!((b / a - 5.0).abs() < 1e-5);
        }
    }

    #[test]
    fn old_machine_is_slower_everywhere() {
        let old = PerformanceProfile::of_platform(&platforms::xeon_2006(), 1.0);
        let new = PerformanceProfile::of_platform(&platforms::cloudlab_c220g(), 1.0);
        for ((name, t_old), (_, t_new)) in old.entries.iter().zip(&new.entries) {
            assert!(t_old > t_new, "{name}: old {t_old} vs new {t_new}");
        }
    }

    #[test]
    fn table_round_trip() {
        let p = PerformanceProfile::of_platform(&platforms::ec2_vm(), 2.0);
        let t = p.to_table();
        assert_eq!(PerformanceProfile::from_table(&t).unwrap(), p);
        // And through CSV text (the on-disk artifact).
        let t2 = Table::from_csv(&t.to_csv()).unwrap();
        assert_eq!(PerformanceProfile::from_table(&t2).unwrap(), p);
    }
}
