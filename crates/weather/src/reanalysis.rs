//! The synthetic NCEP/NCAR-Reanalysis-1-like generator.
//!
//! Surface air temperature with the dataset's real dimensions (monthly,
//! 73 × 144 on the 2.5° grid) and its gross structure:
//!
//! * a latitudinal gradient (~303 K at the equator falling toward the
//!   poles);
//! * a seasonal cycle with opposite phase in the two hemispheres and an
//!   amplitude that grows with |lat| (continental climates swing more);
//! * longitudinal texture (land/ocean contrast as a low-order harmonic);
//! * seeded weather noise and an optional linear trend.

use crate::grid::Grid;
use popper_format::{csv, Table};
use popper_sim::rng::Rng;

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ReanalysisConfig {
    /// First year of the record.
    pub start_year: i32,
    /// Number of years (12 monthly steps each).
    pub years: usize,
    /// Latitude points (73 for the real 2.5° grid).
    pub n_lat: usize,
    /// Longitude points (144 for the real 2.5° grid).
    pub n_lon: usize,
    /// Equatorial annual-mean temperature, K.
    pub equator_k: f64,
    /// Equator-to-pole temperature drop, K.
    pub pole_drop_k: f64,
    /// Seasonal half-amplitude at the poles, K.
    pub seasonal_k: f64,
    /// Weather-noise standard deviation, K.
    pub noise_k: f64,
    /// Linear trend, K per decade.
    pub trend_k_per_decade: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ReanalysisConfig {
    fn default() -> Self {
        ReanalysisConfig {
            start_year: 2013,
            years: 4,
            n_lat: 73,
            n_lon: 144,
            equator_k: 300.0,
            pole_drop_k: 45.0,
            seasonal_k: 15.0,
            noise_k: 1.2,
            trend_k_per_decade: 0.2,
            seed: 1948, // the Reanalysis-1 epoch
        }
    }
}

impl ReanalysisConfig {
    /// A small grid for fast tests.
    pub fn small() -> Self {
        ReanalysisConfig { years: 2, n_lat: 19, n_lon: 36, ..Default::default() }
    }
}

/// Generate the dataset.
pub fn generate(config: &ReanalysisConfig) -> Grid {
    assert!(config.years >= 1 && config.n_lat >= 2 && config.n_lon >= 2);
    let times: Vec<(i32, u32)> = (0..config.years)
        .flat_map(|y| (1..=12u32).map(move |m| (config.start_year + y as i32, m)))
        .collect();
    let lats: Vec<f64> = (0..config.n_lat)
        .map(|i| 90.0 - 180.0 * i as f64 / (config.n_lat - 1) as f64)
        .collect();
    let lons: Vec<f64> = (0..config.n_lon).map(|i| 360.0 * i as f64 / config.n_lon as f64).collect();
    let mut grid = Grid::zeros(times.clone(), lats.clone(), lons.clone());
    let mut rng = Rng::new(config.seed);

    for (t, (year, month)) in times.iter().enumerate() {
        let months_elapsed = (year - config.start_year) as f64 * 12.0 + (*month as f64 - 1.0);
        let trend = config.trend_k_per_decade * months_elapsed / 120.0;
        // Seasonal phase: peak NH summer in July (month 7).
        let season = ((*month as f64 - 7.0) / 12.0 * std::f64::consts::TAU).cos();
        for (la, &lat) in lats.iter().enumerate() {
            let lat_rad = lat.to_radians();
            let base = config.equator_k - config.pole_drop_k * lat_rad.sin().powi(2) * 1.6;
            // Hemisphere-opposed cycle, growing with |lat|.
            let seasonal = config.seasonal_k * (lat / 90.0) * season;
            for (lo, &lon) in lons.iter().enumerate() {
                // Land/ocean texture: a stationary wavenumber-2 pattern
                // stronger at mid-latitudes.
                let texture = 3.0
                    * (2.0 * lon.to_radians()).cos()
                    * (2.0 * lat_rad).sin().abs();
                let noise = {
                    // Box–Muller.
                    let u1: f64 = rng.range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = rng.range(0.0..1.0);
                    config.noise_k * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
                };
                grid.set(t, la, lo, base + seasonal + texture + trend + noise);
            }
        }
    }
    grid
}

/// Serialize a grid as the long-format CSV the datapackage serves:
/// `year,month,lat,lon,temp_k`.
pub fn to_csv(grid: &Grid) -> String {
    let mut rows: Vec<Vec<String>> =
        vec![vec!["year".into(), "month".into(), "lat".into(), "lon".into(), "temp_k".into()]];
    for (t, (year, month)) in grid.times.iter().enumerate() {
        for (la, lat) in grid.lats.iter().enumerate() {
            for (lo, lon) in grid.lons.iter().enumerate() {
                rows.push(vec![
                    year.to_string(),
                    month.to_string(),
                    format!("{lat}"),
                    format!("{lon}"),
                    format!("{:.4}", grid.get(t, la, lo)),
                ]);
            }
        }
    }
    csv::to_string(&rows)
}

/// Parse the long-format CSV back into a grid. The input must be a
/// complete, rectangular record.
pub fn from_csv(text: &str) -> Result<Grid, String> {
    let table = Table::from_csv(text).map_err(|e| e.to_string())?;
    if table.is_empty() {
        return Err("empty dataset".into());
    }
    let mut times: Vec<(i32, u32)> = Vec::new();
    let mut lats: Vec<f64> = Vec::new();
    let mut lons: Vec<f64> = Vec::new();
    for row in table.iter() {
        let t = (
            row.num("year").ok_or("missing year")? as i32,
            row.num("month").ok_or("missing month")? as u32,
        );
        let lat = row.num("lat").ok_or("missing lat")?;
        let lon = row.num("lon").ok_or("missing lon")?;
        if !times.contains(&t) {
            times.push(t);
        }
        if !lats.contains(&lat) {
            lats.push(lat);
        }
        if !lons.contains(&lon) {
            lons.push(lon);
        }
    }
    let mut grid = Grid::zeros(times, lats, lons);
    if table.len() != grid.len() {
        return Err(format!("expected {} cells, found {} rows", grid.len(), table.len()));
    }
    for row in table.iter() {
        let t = (
            row.num("year").expect("validated") as i32,
            row.num("month").expect("validated") as u32,
        );
        let lat = row.num("lat").expect("validated");
        let lon = row.num("lon").expect("validated");
        let temp = row.num("temp_k").ok_or("missing temp_k")?;
        let ti = grid.times.iter().position(|x| *x == t).expect("seen");
        let lai = grid.lats.iter().position(|x| *x == lat).expect("seen");
        let loi = grid.lons.iter().position(|x| *x == lon).expect("seen");
        grid.set(ti, lai, loi, temp);
    }
    Ok(grid)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dimensions_match_reanalysis_one() {
        let g = generate(&ReanalysisConfig::default());
        assert_eq!(g.times.len(), 48);
        assert_eq!(g.lats.len(), 73);
        assert_eq!(g.lons.len(), 144);
        assert_eq!(g.lats[0], 90.0);
        assert_eq!(*g.lats.last().unwrap(), -90.0);
        assert!((g.lats[0] - g.lats[1] - 2.5).abs() < 1e-9, "2.5 degree grid");
    }

    #[test]
    fn physics_shape_equator_warm_poles_cold() {
        let g = generate(&ReanalysisConfig::small());
        let z = g.zonal_mean();
        let eq = z[g.lat_index(0.0)];
        let np = z[g.lat_index(90.0)];
        let sp = z[g.lat_index(-90.0)];
        assert!(eq > np + 20.0, "equator {eq} vs north pole {np}");
        assert!(eq > sp + 20.0, "equator {eq} vs south pole {sp}");
        // Everything in a plausible Kelvin band.
        assert!(z.iter().all(|&k| (200.0..330.0).contains(&k)), "{z:?}");
    }

    #[test]
    fn seasonal_cycle_opposes_hemispheres() {
        let g = generate(&ReanalysisConfig::small());
        let clim = g.monthly_climatology();
        let jan = &clim.iter().find(|(m, _)| *m == 1).unwrap().1;
        let jul = &clim.iter().find(|(m, _)| *m == 7).unwrap().1;
        let nh = g.lat_index(50.0);
        let sh = g.lat_index(-50.0);
        assert!(jul[nh] > jan[nh] + 5.0, "NH summer in July");
        assert!(jan[sh] > jul[sh] + 5.0, "SH summer in January");
    }

    #[test]
    fn seasonal_amplitude_grows_poleward() {
        let g = generate(&ReanalysisConfig::small());
        let amp = g.seasonal_amplitude();
        let high = amp[g.lat_index(70.0)];
        let low = amp[g.lat_index(0.0)];
        assert!(high > low + 5.0, "high-lat amplitude {high} vs tropical {low}");
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&ReanalysisConfig::small());
        let b = generate(&ReanalysisConfig::small());
        assert_eq!(a, b);
        let mut other = ReanalysisConfig::small();
        other.seed = 2;
        assert_ne!(a, generate(&other));
    }

    #[test]
    fn csv_round_trip() {
        let mut cfg = ReanalysisConfig::small();
        cfg.n_lat = 5;
        cfg.n_lon = 6;
        cfg.years = 1;
        let g = generate(&cfg);
        let text = to_csv(&g);
        let back = from_csv(&text).unwrap();
        assert_eq!(back.times, g.times);
        assert_eq!(back.lats, g.lats);
        assert_eq!(back.lons, g.lons);
        for t in 0..g.times.len() {
            for la in 0..g.lats.len() {
                for lo in 0..g.lons.len() {
                    assert!((back.get(t, la, lo) - g.get(t, la, lo)).abs() < 1e-3);
                }
            }
        }
    }

    #[test]
    fn from_csv_rejects_incomplete_records() {
        let mut cfg = ReanalysisConfig::small();
        cfg.n_lat = 3;
        cfg.n_lon = 3;
        cfg.years = 1;
        let g = generate(&cfg);
        let text = to_csv(&g);
        // Drop one data row.
        let mut lines: Vec<&str> = text.lines().collect();
        lines.remove(5);
        assert!(from_csv(&lines.join("\n")).is_err());
        assert!(from_csv("year,month,lat,lon,temp_k\n").is_err());
    }

    #[test]
    fn trend_is_recoverable() {
        let mut cfg = ReanalysisConfig::small();
        cfg.years = 10;
        cfg.noise_k = 0.1;
        cfg.trend_k_per_decade = 2.0;
        let g = generate(&cfg);
        let series = g.anomalies().global_mean_series();
        // Mean of the last year minus mean of the first year ≈ 9/10 of
        // a decade of trend.
        let first: f64 = series[..12].iter().sum::<f64>() / 12.0;
        let last: f64 = series[series.len() - 12..].iter().sum::<f64>() / 12.0;
        let warming = last - first;
        assert!((warming - 1.8).abs() < 0.3, "recovered warming {warming}");
    }
}
