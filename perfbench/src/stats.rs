//! Summary statistics and the open-loop latency rule.
//!
//! Everything here is pure: the workloads feed in samples, these
//! functions reduce them. The unit tests pin the conventions the
//! report relies on.

/// Median of `samples` (mean of the two middle values for an even
/// count). `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// Nearest-rank percentile `p` (0 < p <= 100) of `samples`: the
/// smallest sample with at least `p`% of the samples at or below it.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    let s = sorted(samples);
    if s.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Samples strictly beyond the nearest-rank percentile `p` position.
/// A tail percentile is only reported when this is at least
/// [`MIN_TAIL`].
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n.saturating_sub(rank)
}

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL: usize = 10;

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default "exclusive" method). Needs at least two values.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64, f64)> {
    let s = sorted(samples);
    let ld = s.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Distance between the first and third quartile as a share of the
/// median: the run-to-run spread a metric's bound must cover.
pub fn quartile_spread(samples: &[f64]) -> Option<f64> {
    let (q1, _, q3) = quartiles(samples)?;
    let mid = median(samples)?;
    (mid != 0.0).then(|| (q3 - q1) / mid.abs())
}

/// Open-loop job latencies. `due` holds each submitted job's tenant
/// and the time it was due to be sent, in submission order;
/// `completions` holds each completion the generator observed, as the
/// tenant and the time it saw it. The k-th completion seen for a
/// tenant closes that tenant's k-th due job, so every latency runs from
/// the schedule, not from when the generator got round to sending: a
/// generator or service stall is charged to every job due behind it.
/// Jobs with no completion yet are left out.
pub fn due_latencies(due: &[(usize, f64)], completions: &[(usize, f64)]) -> Vec<f64> {
    let tenants = due
        .iter()
        .chain(completions)
        .map(|&(t, _)| t + 1)
        .max()
        .unwrap_or(0);
    let mut per_tenant: Vec<std::collections::VecDeque<f64>> = vec![Default::default(); tenants];
    for &(t, at) in due {
        per_tenant[t].push_back(at);
    }
    completions
        .iter()
        .filter_map(|&(t, seen)| per_tenant[t].pop_front().map(|at| seen - at))
        .collect()
}

/// Does `name` follow the metric naming rule: starts with a letter or
/// digit, at most 64 letters, digits, `_`, `.` and `-`?
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Does `unit` follow the unit rule: 1 to 16 letters, digits, `_`,
/// `/`, `%`, `.` and `-`?
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Check the metrics a run produced against the ones it declares:
/// every name and unit well formed, each name once, and the produced
/// set equal to the declared `(name, unit)` set. Returns every problem
/// found.
pub fn check_metric_names(
    declared: &[(String, String)],
    produced: &[(String, String)],
) -> Vec<String> {
    let mut problems = Vec::new();
    for (name, unit) in produced {
        if !valid_name(name) {
            problems.push(format!("metric name '{name}' is malformed"));
        }
        if !valid_unit(unit) {
            problems.push(format!("unit '{unit}' of '{name}' is malformed"));
        }
        if produced.iter().filter(|(n, _)| n == name).count() > 1 {
            problems.push(format!("metric '{name}' is reported more than once"));
        }
        match declared.iter().find(|(n, _)| n == name) {
            None => problems.push(format!("metric '{name}' is not declared")),
            Some((_, u)) if u != unit => problems.push(format!(
                "metric '{name}' is declared in '{u}' but reported in '{unit}'"
            )),
            Some(_) => {}
        }
    }
    for (name, _) in declared {
        if !produced.iter().any(|(n, _)| n == name) {
            problems.push(format!("declared metric '{name}' was not reported"));
        }
    }
    problems.sort();
    problems.dedup();
    problems
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn p99_of_a_thousand_samples_leaves_ten_beyond_it() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99.0), Some(990.0));
        assert_eq!(samples.iter().filter(|&&s| s > 990.0).count(), 10);
        assert_eq!(beyond(1000, 99.0), MIN_TAIL);
        // One sample short of a thousand and the tail is too thin.
        assert!(beyond(999, 99.0) < MIN_TAIL);
        assert_eq!(percentile(&samples, 50.0), Some(500.0));
        assert_eq!(percentile(&samples, 100.0), Some(1000.0));
        assert_eq!(percentile(&samples, 0.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&s), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([7, 1, 4], n=4) == [1.0, 4.0, 7.0]
        assert_eq!(quartiles(&[7.0, 1.0, 4.0]), Some((1.0, 4.0, 7.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quartile_spread_is_a_share_of_the_median() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&s).unwrap();
        assert!((spread - 5.5 / 5.5).abs() < 1e-12, "{spread}");
        let steady = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        assert!(quartile_spread(&steady).unwrap() < 0.01);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn open_loop_latency_charges_a_stall_to_later_jobs() {
        // Jobs due every 10 ms on one tenant; the service answers each
        // in 1 ms, except that it stalls for 50 ms before job 2.
        let due: Vec<(usize, f64)> = (0..5).map(|i| (0, i as f64 * 10.0)).collect();
        let completions = [(0, 1.0), (0, 11.0), (0, 71.0), (0, 72.0), (0, 73.0)];
        let lat = due_latencies(&due, &completions);
        assert_eq!(lat, vec![1.0, 1.0, 51.0, 42.0, 33.0]);
        // Timed from when each job was actually sent (after the stall)
        // the later jobs would look fast; from the schedule they do not.
        assert!(lat[3] > 30.0 && lat[4] > 30.0);
    }

    #[test]
    fn open_loop_latency_pairs_completions_per_tenant_in_order() {
        let due = [(0, 0.0), (1, 1.0), (0, 2.0), (1, 3.0)];
        let completions = [(1, 4.0), (0, 5.0), (0, 6.0)];
        // Tenant 1's second job has not completed and is left out.
        assert_eq!(due_latencies(&due, &completions), vec![3.0, 5.0, 4.0]);
    }

    #[test]
    fn metric_names_and_units_follow_the_rules() {
        assert!(valid_name("cli.persist.load_ms"));
        assert!(valid_name("9lives"));
        assert!(!valid_name("_hidden"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_unit("1/s") && valid_unit("%") && valid_unit("count"));
        assert!(!valid_unit("") && !valid_unit("events per s"));
    }

    #[test]
    fn metric_name_check_reports_every_mismatch() {
        let s = |a: &str, b: &str| (a.to_string(), b.to_string());
        let declared = vec![s("setup_s", "s"), s("cold_s", "s")];
        assert!(check_metric_names(&declared, &declared).is_empty());
        let produced = vec![s("setup_s", "ms"), s("extra", "s"), s("bad name", "s")];
        let problems = check_metric_names(&declared, &produced);
        assert!(
            problems
                .iter()
                .any(|p| p.contains("'setup_s' is declared in 's'")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("'extra' is not declared")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("'bad name' is malformed")),
            "{problems:?}"
        );
        assert!(
            problems
                .iter()
                .any(|p| p.contains("'cold_s' was not reported")),
            "{problems:?}"
        );
        let twice = vec![s("setup_s", "s"), s("setup_s", "s"), s("cold_s", "s")];
        assert!(check_metric_names(&declared, &twice)
            .iter()
            .any(|p| p.contains("more than once")));
    }
}
