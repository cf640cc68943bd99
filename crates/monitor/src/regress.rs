//! Statistical performance-regression detection.
//!
//! §Toolkit (*Automated Performance Regression Testing*) observes that
//! regression testing "can be automated … using statistical techniques"
//! (citing Nguyen et al.); §Discussion contrasts *controlled* with
//! *statistical* reproducibility, where claims take the form "with 95%
//! confidence one system is 10x better than the other". This module
//! implements both standard tests:
//!
//! * [`welch_t_test`] — Welch's unequal-variance t-test with the
//!   Welch–Satterthwaite degrees of freedom and an exact Student-t
//!   p-value (via the incomplete beta function).
//! * [`mann_whitney_u`] — the Mann–Whitney U rank test with tie
//!   correction and normal approximation, for non-normal latency data.
//! * [`RegressionCheck`] — the CI-facing wrapper: compares a baseline
//!   sample with a candidate sample and reports a verdict.

use crate::special::{normal_cdf, t_sf_two_sided};
use popper_aver::stats;
use std::fmt;

/// Result of a two-sample hypothesis test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TestResult {
    /// The test statistic (t for Welch, z for Mann–Whitney).
    pub statistic: f64,
    /// Two-sided p-value.
    pub p_value: f64,
}

/// Welch's two-sample t-test (two-sided). Returns `None` when either
/// sample has fewer than 2 points or both variances are zero.
pub fn welch_t_test(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.len() < 2 || b.len() < 2 {
        return None;
    }
    let (ma, mb) = (stats::mean(a), stats::mean(b));
    let (va, vb) = (stats::variance(a), stats::variance(b));
    let (na, nb) = (a.len() as f64, b.len() as f64);
    let se2 = va / na + vb / nb;
    if se2 == 0.0 {
        // Identical constants: no evidence of difference unless means differ.
        return Some(TestResult { statistic: 0.0, p_value: if ma == mb { 1.0 } else { 0.0 } });
    }
    let t = (ma - mb) / se2.sqrt();
    // Welch–Satterthwaite degrees of freedom.
    let df = se2 * se2 / ((va / na).powi(2) / (na - 1.0) + (vb / nb).powi(2) / (nb - 1.0));
    let p = t_sf_two_sided(t, df);
    Some(TestResult { statistic: t, p_value: p })
}

/// Mann–Whitney U test (two-sided, normal approximation with tie
/// correction). Returns `None` for empty samples.
pub fn mann_whitney_u(a: &[f64], b: &[f64]) -> Option<TestResult> {
    if a.is_empty() || b.is_empty() {
        return None;
    }
    let na = a.len() as f64;
    let nb = b.len() as f64;
    // Rank the pooled sample (average ranks for ties).
    let mut pooled: Vec<(f64, usize)> = a
        .iter()
        .map(|&v| (v, 0usize))
        .chain(b.iter().map(|&v| (v, 1usize)))
        .collect();
    pooled.sort_by(|x, y| x.0.partial_cmp(&y.0).unwrap_or(std::cmp::Ordering::Equal));
    let n = pooled.len();
    let mut ranks = vec![0.0f64; n];
    let mut tie_term = 0.0f64;
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && pooled[j + 1].0 == pooled[i].0 {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for r in ranks.iter_mut().take(j + 1).skip(i) {
            *r = avg_rank;
        }
        let t = (j - i + 1) as f64;
        tie_term += t * t * t - t;
        i = j + 1;
    }
    let r_a: f64 = pooled
        .iter()
        .zip(&ranks)
        .filter(|((_, side), _)| *side == 0)
        .map(|(_, r)| *r)
        .sum();
    let u_a = r_a - na * (na + 1.0) / 2.0;
    let mean_u = na * nb / 2.0;
    let n_tot = na + nb;
    let var_u = na * nb / 12.0 * ((n_tot + 1.0) - tie_term / (n_tot * (n_tot - 1.0)));
    if var_u <= 0.0 {
        return Some(TestResult { statistic: 0.0, p_value: 1.0 });
    }
    // Continuity correction.
    let z = (u_a - mean_u - 0.5 * (u_a - mean_u).signum()) / var_u.sqrt();
    let p = 2.0 * (1.0 - normal_cdf(z.abs()));
    Some(TestResult { statistic: z, p_value: p.clamp(0.0, 1.0) })
}

/// Which test a [`RegressionCheck`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestKind {
    /// Welch's t-test (means; assumes roughly normal samples).
    Welch,
    /// Mann–Whitney U (medians/ranks; distribution-free).
    MannWhitney,
}

/// The verdict of a regression check.
#[derive(Debug, Clone, PartialEq)]
pub enum RegressionVerdict {
    /// No statistically significant change.
    NoChange {
        /// The achieved p-value.
        p_value: f64,
    },
    /// Significant change and the candidate is *slower/larger*.
    Regression {
        /// The achieved p-value.
        p_value: f64,
        /// candidate mean / baseline mean.
        ratio: f64,
    },
    /// Significant change and the candidate is *faster/smaller*.
    Improvement {
        /// The achieved p-value.
        p_value: f64,
        /// candidate mean / baseline mean.
        ratio: f64,
    },
    /// Not enough data to decide.
    Inconclusive,
}

impl RegressionVerdict {
    /// True when CI should fail the build.
    pub fn is_regression(&self) -> bool {
        matches!(self, RegressionVerdict::Regression { .. })
    }
}

impl fmt::Display for RegressionVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegressionVerdict::NoChange { p_value } => write!(f, "no change (p={p_value:.3})"),
            RegressionVerdict::Regression { p_value, ratio } => {
                write!(f, "REGRESSION: {:.1}% slower (p={p_value:.4})", (ratio - 1.0) * 100.0)
            }
            RegressionVerdict::Improvement { p_value, ratio } => {
                write!(f, "improvement: {:.1}% faster (p={p_value:.4})", (1.0 - ratio) * 100.0)
            }
            RegressionVerdict::Inconclusive => write!(f, "inconclusive (not enough samples)"),
        }
    }
}

/// A configured regression check: significance level plus a minimum
/// effect size (ratio) so that trivial-but-significant changes don't
/// fail CI.
#[derive(Debug, Clone, Copy)]
pub struct RegressionCheck {
    /// Significance level, e.g. 0.05.
    pub alpha: f64,
    /// Minimum relevant relative change, e.g. 0.03 for 3%.
    pub min_effect: f64,
    /// Which test to run.
    pub kind: TestKind,
}

impl Default for RegressionCheck {
    fn default() -> Self {
        RegressionCheck { alpha: 0.05, min_effect: 0.03, kind: TestKind::Welch }
    }
}

impl RegressionCheck {
    /// Compare `candidate` against `baseline` (both are samples of the
    /// metric where *larger is worse*, e.g. runtimes).
    pub fn compare(&self, baseline: &[f64], candidate: &[f64]) -> RegressionVerdict {
        let result = match self.kind {
            TestKind::Welch => welch_t_test(candidate, baseline),
            TestKind::MannWhitney => mann_whitney_u(candidate, baseline),
        };
        let Some(result) = result else {
            return RegressionVerdict::Inconclusive;
        };
        let mb = stats::mean(baseline);
        let mc = stats::mean(candidate);
        if mb == 0.0 {
            return RegressionVerdict::Inconclusive;
        }
        let ratio = mc / mb;
        if result.p_value >= self.alpha || (ratio - 1.0).abs() < self.min_effect {
            return RegressionVerdict::NoChange { p_value: result.p_value };
        }
        if ratio > 1.0 {
            RegressionVerdict::Regression { p_value: result.p_value, ratio }
        } else {
            RegressionVerdict::Improvement { p_value: result.p_value, ratio }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use popper_sim::rng::Rng;

    fn normal_sample(n: usize, mean: f64, sd: f64, seed: u64) -> Vec<f64> {
        let mut rng = Rng::new(seed);
        (0..n)
            .map(|_| {
                let u1: f64 = rng.range(f64::MIN_POSITIVE..1.0);
                let u2: f64 = rng.range(0.0..1.0);
                mean + sd * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn welch_reference_value() {
        // Hand-computed reference: a=[1,2,3,4], b=[2,4,6,8] gives
        // t = -1.7320508, Welch-Satterthwaite df = 4.41176, and a
        // two-sided p of 0.15158 (numerically integrated t pdf).
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        let r = welch_t_test(&a, &b).unwrap();
        assert!((r.statistic + 1.732_050_8).abs() < 1e-6, "t={}", r.statistic);
        assert!((r.p_value - 0.151_58).abs() < 1e-3, "p={}", r.p_value);
    }

    #[test]
    fn welch_identical_samples() {
        let a = [1.0, 2.0, 3.0];
        let r = welch_t_test(&a, &a).unwrap();
        assert_eq!(r.statistic, 0.0);
        assert!((r.p_value - 1.0).abs() < 1e-12);
    }

    #[test]
    fn welch_needs_two_points() {
        assert!(welch_t_test(&[1.0], &[1.0, 2.0]).is_none());
    }

    #[test]
    fn welch_detects_separated_means() {
        let a = normal_sample(30, 100.0, 5.0, 1);
        let b = normal_sample(30, 110.0, 5.0, 2);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value < 0.001, "p={}", r.p_value);
    }

    #[test]
    fn welch_same_distribution_not_significant() {
        let a = normal_sample(30, 100.0, 5.0, 3);
        let b = normal_sample(30, 100.0, 5.0, 4);
        let r = welch_t_test(&a, &b).unwrap();
        assert!(r.p_value > 0.05, "p={}", r.p_value);
    }

    #[test]
    fn mann_whitney_reference() {
        // scipy.stats.mannwhitneyu([1,2,3,4,5], [6,7,8,9,10],
        // alternative='two-sided'): U=0, p=0.00793 (exact) — the normal
        // approximation with continuity gives ~0.009.
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [6.0, 7.0, 8.0, 9.0, 10.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value < 0.02, "p={}", r.p_value);
        assert!(r.statistic < 0.0, "z should be negative for a << b");
    }

    #[test]
    fn mann_whitney_handles_ties() {
        let a = [1.0, 1.0, 1.0, 2.0];
        let b = [1.0, 2.0, 2.0, 2.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.05); // weak evidence with n=4
        assert!(r.p_value <= 1.0);
    }

    #[test]
    fn mann_whitney_identical_constant() {
        let a = [5.0; 6];
        let r = mann_whitney_u(&a, &a).unwrap();
        assert_eq!(r.p_value, 1.0);
    }

    #[test]
    fn mann_whitney_robust_to_outliers() {
        // An outlier that would fool a naive mean comparison.
        let a = [10.0, 11.0, 9.0, 10.5, 9.5, 10.2, 9.8, 10.1];
        let b = [10.1, 10.9, 9.2, 10.4, 9.6, 10.0, 9.9, 500.0];
        let r = mann_whitney_u(&a, &b).unwrap();
        assert!(r.p_value > 0.05, "rank test should shrug off one outlier, p={}", r.p_value);
    }

    #[test]
    fn regression_check_flags_slowdown() {
        let baseline = normal_sample(20, 100.0, 3.0, 5);
        let slower = normal_sample(20, 115.0, 3.0, 6);
        let verdict = RegressionCheck::default().compare(&baseline, &slower);
        assert!(verdict.is_regression(), "{verdict}");
        match verdict {
            RegressionVerdict::Regression { ratio, .. } => assert!(ratio > 1.1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn regression_check_reports_improvement() {
        let baseline = normal_sample(20, 100.0, 3.0, 7);
        let faster = normal_sample(20, 85.0, 3.0, 8);
        let verdict = RegressionCheck::default().compare(&baseline, &faster);
        assert!(matches!(verdict, RegressionVerdict::Improvement { .. }), "{verdict}");
    }

    #[test]
    fn regression_check_ignores_tiny_effects() {
        // 1% change, statistically significant with huge n, but below
        // the 3% effect floor.
        let baseline = normal_sample(500, 100.0, 1.0, 9);
        let slightly = normal_sample(500, 101.0, 1.0, 10);
        let verdict = RegressionCheck::default().compare(&baseline, &slightly);
        assert!(matches!(verdict, RegressionVerdict::NoChange { .. }), "{verdict}");
    }

    #[test]
    fn regression_check_inconclusive_on_tiny_samples() {
        let verdict = RegressionCheck::default().compare(&[1.0], &[2.0]);
        assert_eq!(verdict, RegressionVerdict::Inconclusive);
    }

    #[test]
    fn mann_whitney_kind_works_in_check() {
        let baseline = normal_sample(20, 100.0, 3.0, 11);
        let slower = normal_sample(20, 120.0, 3.0, 12);
        let check = RegressionCheck { kind: TestKind::MannWhitney, ..Default::default() };
        assert!(check.compare(&baseline, &slower).is_regression());
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn p_values_are_probabilities(
                a in proptest::collection::vec(0.0f64..1000.0, 2..20),
                b in proptest::collection::vec(0.0f64..1000.0, 2..20),
            ) {
                if let Some(r) = welch_t_test(&a, &b) {
                    prop_assert!((0.0..=1.0).contains(&r.p_value));
                }
                if let Some(r) = mann_whitney_u(&a, &b) {
                    prop_assert!((0.0..=1.0).contains(&r.p_value));
                }
            }

            #[test]
            fn welch_is_antisymmetric(
                a in proptest::collection::vec(0.0f64..100.0, 3..15),
                b in proptest::collection::vec(0.0f64..100.0, 3..15),
            ) {
                let ab = welch_t_test(&a, &b);
                let ba = welch_t_test(&b, &a);
                if let (Some(x), Some(y)) = (ab, ba) {
                    prop_assert!((x.statistic + y.statistic).abs() < 1e-9);
                    prop_assert!((x.p_value - y.p_value).abs() < 1e-9);
                }
            }
        }
    }
}
