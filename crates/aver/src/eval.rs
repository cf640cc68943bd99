//! The Aver evaluator: assertions × result table → verdict.

use crate::ast::*;
use crate::stats;
use popper_format::{Table, Value};
use std::fmt;

/// An error in the assertion itself (as opposed to a *failed* assertion):
/// syntax errors, unknown columns, non-numeric data where numbers are
/// required.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AverError {
    /// Lexing or parsing failed.
    Syntax(String),
    /// Evaluation hit a semantic problem.
    Eval(String),
}

impl fmt::Display for AverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AverError::Syntax(m) => write!(f, "aver syntax error: {m}"),
            AverError::Eval(m) => write!(f, "aver evaluation error: {m}"),
        }
    }
}

impl std::error::Error for AverError {}

/// The outcome of checking a program against a table.
#[derive(Debug, Clone, PartialEq)]
pub struct Verdict {
    /// True when every assertion held in every group.
    pub passed: bool,
    /// One message per failed (assertion, group) pair.
    pub failures: Vec<String>,
    /// Number of assertions evaluated.
    pub assertions: usize,
    /// Total number of groups evaluated across all assertions.
    pub groups: usize,
}

impl Verdict {
    fn merge(&mut self, other: Verdict) {
        self.passed &= other.passed;
        self.failures.extend(other.failures);
        self.assertions += other.assertions;
        self.groups += other.groups;
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.passed {
            write!(f, "PASS ({} assertions over {} groups)", self.assertions, self.groups)
        } else {
            writeln!(f, "FAIL ({} failures)", self.failures.len())?;
            for failure in &self.failures {
                writeln!(f, "  - {failure}")?;
            }
            Ok(())
        }
    }
}

/// Parse `source` and check it against `table`.
pub fn check(source: &str, table: &Table) -> Result<Verdict, AverError> {
    let assertions = crate::parse(source)?;
    check_all(&assertions, table)
}

/// Check pre-parsed assertions against `table`.
pub fn check_all(assertions: &[Assertion], table: &Table) -> Result<Verdict, AverError> {
    let mut verdict = Verdict { passed: true, failures: Vec::new(), assertions: 0, groups: 0 };
    for a in assertions {
        verdict.merge(check_one(a, table)?);
    }
    Ok(verdict)
}

fn check_one(a: &Assertion, table: &Table) -> Result<Verdict, AverError> {
    // Split the when-clause into grouping columns and a filter predicate.
    let mut wildcards: Vec<String> = Vec::new();
    if let Some(cond) = &a.when {
        collect_wildcards(cond, &mut wildcards);
        for col in &wildcards {
            if table.column_index(col).is_none() {
                return Err(AverError::Eval(format!("unknown column '{col}' in when-clause")));
            }
        }
        validate_filter_columns(cond, table)?;
    }

    let filtered = match &a.when {
        Some(cond) => table.filter(|row| filter_matches(cond, &row)),
        None => table.clone(),
    };
    if filtered.is_empty() {
        return Ok(Verdict {
            passed: false,
            failures: vec![format!("'{}': no rows matched the when-clause", a.source)],
            assertions: 1,
            groups: 0,
        });
    }

    let groups: Vec<(String, Table)> = if wildcards.is_empty() {
        vec![(String::new(), filtered)]
    } else {
        let keys: Vec<&str> = wildcards.iter().map(String::as_str).collect();
        filtered
            .group_by(&keys)
            .map_err(|e| AverError::Eval(e.to_string()))?
            .into_iter()
            .map(|(key, t)| {
                let desc = wildcards
                    .iter()
                    .zip(&key)
                    .map(|(c, v)| format!("{c}={}", v.to_display_string()))
                    .collect::<Vec<_>>()
                    .join(", ");
                (desc, t)
            })
            .collect()
    };

    let mut verdict = Verdict { passed: true, failures: Vec::new(), assertions: 1, groups: 0 };
    for (desc, group) in groups {
        verdict.groups += 1;
        match eval_expr(&a.expect, &group)? {
            true => {}
            false => {
                verdict.passed = false;
                let at = if desc.is_empty() { String::new() } else { format!(" [{desc}]") };
                verdict.failures.push(format!("'{}' failed{at}", a.source));
            }
        }
    }
    Ok(verdict)
}

fn collect_wildcards(c: &Cond, out: &mut Vec<String>) {
    match c {
        Cond::Wildcard(col) => {
            if !out.contains(col) {
                out.push(col.clone());
            }
        }
        Cond::And(a, b) => {
            collect_wildcards(a, out);
            collect_wildcards(b, out);
        }
        // Parser guarantees no wildcards under Or/Not.
        Cond::Or(..) | Cond::Not(_) | Cond::Filter(..) => {}
    }
}

fn validate_filter_columns(c: &Cond, table: &Table) -> Result<(), AverError> {
    match c {
        Cond::Filter(col, ..) => {
            if table.column_index(col).is_none() {
                return Err(AverError::Eval(format!("unknown column '{col}' in when-clause")));
            }
            Ok(())
        }
        Cond::And(a, b) | Cond::Or(a, b) => {
            validate_filter_columns(a, table)?;
            validate_filter_columns(b, table)
        }
        Cond::Not(a) => validate_filter_columns(a, table),
        Cond::Wildcard(_) => Ok(()),
    }
}

/// Row-level filter semantics; wildcards are `true` (they only group).
fn filter_matches(c: &Cond, row: &popper_format::Row<'_>) -> bool {
    match c {
        Cond::Wildcard(_) => true,
        Cond::Filter(col, op, lit) => {
            let Some(cell) = row.get(col) else {
                return false;
            };
            match (cell, lit) {
                (Value::Num(n), Literal::Num(m)) => op.holds_f64(*n, *m),
                (Value::Str(s), Literal::Str(t)) => op.holds_str(s, t),
                (Value::Bool(b), Literal::Bool(c)) => op.holds_f64(*b as u8 as f64, *c as u8 as f64),
                // Mixed types: compare displayed forms for (in)equality,
                // false for orderings.
                (cell, lit) => {
                    let ls = match lit {
                        Literal::Num(n) => popper_format::Value::Num(*n).to_display_string(),
                        Literal::Str(s) => s.clone(),
                        Literal::Bool(b) => b.to_string(),
                    };
                    match op {
                        CmpOp::Eq => cell.to_display_string() == ls,
                        CmpOp::Ne => cell.to_display_string() != ls,
                        _ => false,
                    }
                }
            }
        }
        Cond::And(a, b) => filter_matches(a, row) && filter_matches(b, row),
        Cond::Or(a, b) => filter_matches(a, row) || filter_matches(b, row),
        Cond::Not(a) => !filter_matches(a, row),
    }
}

fn eval_expr(e: &Expr, group: &Table) -> Result<bool, AverError> {
    match e {
        Expr::Const(b) => Ok(*b),
        Expr::And(a, b) => Ok(eval_expr(a, group)? && eval_expr(b, group)?),
        Expr::Or(a, b) => Ok(eval_expr(a, group)? || eval_expr(b, group)?),
        Expr::Not(a) => Ok(!eval_expr(a, group)?),
        Expr::Cmp(l, op, r) => {
            let a = eval_arith(l, group)?;
            let b = eval_arith(r, group)?;
            Ok(op.holds_f64(a, b))
        }
        Expr::Call(f, args) => eval_call(*f, args, group),
    }
}

/// Relative tolerance around the linear log-log slope.
const SLOPE_TOL: f64 = 0.05;

fn eval_call(f: BoolFn, args: &[Arg], group: &Table) -> Result<bool, AverError> {
    match f {
        BoolFn::Sublinear | BoolFn::Superlinear | BoolFn::Linear => {
            let (x, y) = trend_columns(f, args, group)?;
            let (k, _r2) = stats::loglog_slope(&x, &y).ok_or_else(|| {
                AverError::Eval(format!(
                    "{}: needs >= 2 distinct positive x values (got {} points)",
                    f.name(),
                    x.len()
                ))
            })?;
            Ok(match f {
                BoolFn::Sublinear => k < 1.0 - SLOPE_TOL,
                BoolFn::Superlinear => k > 1.0 + SLOPE_TOL,
                BoolFn::Linear => (k - 1.0).abs() <= 2.0 * SLOPE_TOL,
                _ => unreachable!(),
            })
        }
        BoolFn::Increasing | BoolFn::Decreasing => {
            let (x, y) = trend_pairs(f, args, group)?;
            let (_, ys) = stats::collapse_by_x(&x, &y);
            if ys.len() < 2 {
                return Err(AverError::Eval(format!("{}: needs >= 2 distinct x values", f.name())));
            }
            let ok = match f {
                BoolFn::Increasing => ys.windows(2).all(|w| w[1] >= w[0]),
                BoolFn::Decreasing => ys.windows(2).all(|w| w[1] <= w[0]),
                _ => unreachable!(),
            };
            Ok(ok)
        }
        BoolFn::Constant => {
            let col = arg_column(&args[0], "constant")?;
            let ys = numeric(group, col)?;
            if ys.is_empty() {
                return Err(AverError::Eval("constant: empty column".into()));
            }
            let tol_pct = match args.get(1) {
                Some(arg) => eval_arith(arg_arith(arg)?, group)?,
                None => 5.0,
            };
            let mn = ys.iter().cloned().fold(f64::INFINITY, f64::min);
            let mx = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let m = stats::mean(&ys).abs();
            if m == 0.0 {
                return Ok(mx == mn);
            }
            Ok((mx - mn) / m <= tol_pct / 100.0)
        }
        BoolFn::Within => {
            let a = eval_arith(arg_arith(&args[0])?, group)?;
            let b = eval_arith(arg_arith(&args[1])?, group)?;
            let pct = eval_arith(arg_arith(&args[2])?, group)?;
            if b == 0.0 {
                return Ok(a == 0.0);
            }
            Ok(((a - b) / b).abs() * 100.0 <= pct)
        }
        BoolFn::RecoversWithin | BoolFn::DegradedAtMost => {
            let col = arg_column(&args[0], f.name())?;
            let ys = numeric(group, col)?;
            if ys.is_empty() {
                return Err(AverError::Eval(format!("{}: empty column '{col}'", f.name())));
            }
            let bound = eval_arith(arg_arith(&args[1])?, group)?;
            Ok(ys.iter().all(|y| *y <= bound))
        }
        BoolFn::TraceEquivalent => {
            // Evaluates over a trace-diff summary table (one row per
            // diff): zero structural divergences, and all observed
            // drift within the tolerance (default 0% — exact).
            let tol = match args.first() {
                Some(arg) => eval_arith(arg_arith(arg)?, group)?,
                None => 0.0,
            };
            let structural = numeric(group, "structural")?;
            let drift = numeric(group, "max_drift_pct")?;
            if structural.is_empty() {
                return Err(AverError::Eval(
                    "trace_equivalent: empty 'structural' column (not a trace-diff summary table?)".into(),
                ));
            }
            Ok(structural.iter().all(|s| *s == 0.0) && drift.iter().all(|d| *d <= tol))
        }
    }
}

fn trend_columns(f: BoolFn, args: &[Arg], group: &Table) -> Result<(Vec<f64>, Vec<f64>), AverError> {
    let (x, y) = trend_pairs(f, args, group)?;
    Ok(stats::collapse_by_x(&x, &y))
}

fn trend_pairs(f: BoolFn, args: &[Arg], group: &Table) -> Result<(Vec<f64>, Vec<f64>), AverError> {
    let xc = arg_column(&args[0], f.name())?;
    let yc = arg_column(&args[1], f.name())?;
    let x = numeric(group, xc)?;
    let y = numeric(group, yc)?;
    if x.len() != y.len() {
        return Err(AverError::Eval(format!(
            "{}: columns '{xc}' and '{yc}' have different non-null counts ({} vs {})",
            f.name(),
            x.len(),
            y.len()
        )));
    }
    Ok((x, y))
}

fn arg_column<'a>(arg: &'a Arg, fname: &str) -> Result<&'a str, AverError> {
    match arg {
        Arg::Column(c) => Ok(c),
        Arg::Arith(_) => Err(AverError::Eval(format!("{fname}: expected a column name argument"))),
    }
}

fn arg_arith(arg: &Arg) -> Result<&Arith, AverError> {
    match arg {
        Arg::Arith(a) => Ok(a),
        // Allow a bare column where arithmetic is expected only if it is
        // itself not meaningful — reject with a clear message instead.
        Arg::Column(c) => Err(AverError::Eval(format!(
            "expected a number or aggregate, found bare column '{c}' (wrap it in an aggregate, e.g. avg({c}))"
        ))),
    }
}

fn numeric(group: &Table, col: &str) -> Result<Vec<f64>, AverError> {
    group.numeric_column(col).map_err(|e| AverError::Eval(e.to_string()))
}

fn eval_arith(a: &Arith, group: &Table) -> Result<f64, AverError> {
    match a {
        Arith::Num(n) => Ok(*n),
        Arith::Neg(inner) => Ok(-eval_arith(inner, group)?),
        Arith::Agg(f, col) => {
            let xs = numeric(group, col)?;
            if xs.is_empty() && !matches!(f, AggFn::Count) {
                return Err(AverError::Eval(format!("aggregate over empty column '{col}'")));
            }
            Ok(match f {
                AggFn::Avg => stats::mean(&xs),
                AggFn::Sum => xs.iter().sum(),
                AggFn::Min => xs.iter().cloned().fold(f64::INFINITY, f64::min),
                AggFn::Max => xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
                AggFn::Count => xs.len() as f64,
                AggFn::Median => stats::median(&xs),
                AggFn::Stddev => {
                    if xs.len() < 2 {
                        0.0
                    } else {
                        stats::stddev(&xs)
                    }
                }
                AggFn::P90 => stats::percentile(&xs, 90.0),
                AggFn::P95 => stats::percentile(&xs, 95.0),
                AggFn::P99 => stats::percentile(&xs, 99.0),
            })
        }
        Arith::Bin(l, op, r) => {
            let a = eval_arith(l, group)?;
            let b = eval_arith(r, group)?;
            Ok(match op {
                ArithOp::Add => a + b,
                ArithOp::Sub => a - b,
                ArithOp::Mul => a * b,
                ArithOp::Div => a / b,
                ArithOp::Mod => a % b,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gassyfs_table() -> Table {
        Table::from_csv(
            "workload,machine,nodes,time\n\
             git,cloudlab,1,100\n\
             git,cloudlab,2,128\n\
             git,cloudlab,4,160\n\
             git,cloudlab,8,198\n\
             git,ec2,1,140\n\
             git,ec2,2,185\n\
             git,ec2,4,238\n\
             git,ec2,8,300\n",
        )
        .unwrap()
    }

    fn assert_passes(src: &str, table: &Table) {
        let v = check(src, table).unwrap();
        assert!(v.passed, "{src} should pass: {:?}", v.failures);
    }

    fn assert_fails(src: &str, table: &Table) {
        let v = check(src, table).unwrap();
        assert!(!v.passed, "{src} should fail");
    }

    #[test]
    fn sublinear_per_group() {
        let t = gassyfs_table();
        let v = check("when workload=* and machine=* expect sublinear(nodes, time)", &t).unwrap();
        assert!(v.passed);
        assert_eq!(v.groups, 2); // (git, cloudlab), (git, ec2)
        assert_eq!(v.assertions, 1);
    }

    #[test]
    fn one_bad_group_fails_with_description() {
        let mut t = gassyfs_table();
        // Make ec2 superlinear.
        t = Table::from_csv(&t.to_csv().replace("git,ec2,8,300", "git,ec2,8,3000")).unwrap();
        let v = check("when machine=* expect sublinear(nodes, time)", &t).unwrap();
        assert!(!v.passed);
        assert_eq!(v.failures.len(), 1);
        assert!(v.failures[0].contains("machine=ec2"), "{}", v.failures[0]);
    }

    #[test]
    fn filters_restrict_rows() {
        let t = gassyfs_table();
        assert_passes("when machine = cloudlab expect max(time) < 200", &t);
        assert_fails("when machine = ec2 expect max(time) < 200", &t);
        assert_passes("when machine = ec2 and nodes <= 4 expect max(time) < 250", &t);
    }

    #[test]
    fn no_matching_rows_is_a_failure() {
        let t = gassyfs_table();
        let v = check("when machine = 'does-not-exist' expect true", &t).unwrap();
        assert!(!v.passed);
        assert!(v.failures[0].contains("no rows matched"));
    }

    #[test]
    fn unknown_column_is_an_error_not_a_failure() {
        let t = gassyfs_table();
        assert!(matches!(
            check("when bogus=* expect true", &t),
            Err(AverError::Eval(_))
        ));
        assert!(matches!(
            check("expect avg(bogus) < 1", &t),
            Err(AverError::Eval(_))
        ));
        assert!(matches!(
            check("when bogus > 5 expect true", &t),
            Err(AverError::Eval(_))
        ));
    }

    #[test]
    fn aggregates() {
        let t = Table::from_csv("v\n1\n2\n3\n4\n5\n").unwrap();
        assert_passes("expect avg(v) = 3", &t);
        assert_passes("expect sum(v) = 15", &t);
        assert_passes("expect min(v) = 1 and max(v) = 5", &t);
        assert_passes("expect count(v) = 5", &t);
        assert_passes("expect median(v) = 3", &t);
        assert_passes("expect p90(v) > 4 and p90(v) <= 5", &t);
        assert_passes("expect stddev(v) > 1.5 and stddev(v) < 1.6", &t);
    }

    #[test]
    fn arithmetic_in_expectations() {
        let t = Table::from_csv("a,b\n10,2\n20,4\n").unwrap();
        assert_passes("expect avg(a) / avg(b) = 5", &t);
        assert_passes("expect avg(a) - 3 * avg(b) > 5", &t);
        assert_passes("expect -avg(b) < 0", &t);
        assert_passes("expect (avg(a) + avg(b)) / 2 = 9", &t);
    }

    #[test]
    fn boolean_combinators_and_not() {
        let t = gassyfs_table();
        assert_passes("expect not superlinear(nodes, time)", &t);
        assert_passes("expect sublinear(nodes, time) and count(time) >= 8", &t);
        assert_passes("expect superlinear(nodes, time) or sublinear(nodes, time)", &t);
    }

    #[test]
    fn trend_functions() {
        let lin = Table::from_csv("x,y\n1,10\n2,20\n4,40\n8,80\n").unwrap();
        assert_passes("expect linear(x, y)", &lin);
        assert_fails("expect sublinear(x, y)", &lin);
        assert_fails("expect superlinear(x, y)", &lin);

        let sup = Table::from_csv("x,y\n1,1\n2,4\n4,16\n").unwrap();
        assert_passes("expect superlinear(x, y)", &sup);

        let inc = Table::from_csv("x,y\n1,5\n2,6\n3,6\n4,9\n").unwrap();
        assert_passes("expect increasing(x, y)", &inc);
        assert_fails("expect decreasing(x, y)", &inc);

        let dec = Table::from_csv("x,y\n1,9\n2,7\n3,7\n4,1\n").unwrap();
        assert_passes("expect decreasing(x, y)", &dec);
    }

    #[test]
    fn trend_repetitions_are_averaged() {
        // Repeated measurements at each scale; means are sublinear even
        // though raw points are noisy.
        let t = Table::from_csv(
            "n,t\n1,95\n1,105\n2,125\n2,131\n4,158\n4,162\n8,196\n8,200\n",
        )
        .unwrap();
        assert_passes("expect sublinear(n, t)", &t);
        assert_passes("expect increasing(n, t)", &t);
    }

    #[test]
    fn constant_and_within() {
        let t = Table::from_csv("v\n100\n101\n99\n100\n").unwrap();
        assert_passes("expect constant(v)", &t);
        assert_passes("expect constant(v, 2)", &t);
        assert_fails("expect constant(v, 0.5)", &t);
        assert_passes("expect within(avg(v), 100, 1)", &t);
        assert_fails("expect within(avg(v), 90, 1)", &t);
    }

    #[test]
    fn chaos_recovery_predicates() {
        let t = Table::from_csv(
            "schedule,recovery_ms,degraded_fraction\n\
             node-crash,84.2,0.21\n\
             node-crash,84.2,0.21\n\
             partition,70.0,0.33\n",
        )
        .unwrap();
        assert_passes("when schedule=* expect recovers_within(recovery_ms, 5000)", &t);
        assert_fails("when schedule=* expect recovers_within(recovery_ms, 80)", &t);
        assert_passes("expect degraded_at_most(degraded_fraction, 0.5)", &t);
        assert_fails("expect degraded_at_most(degraded_fraction, 0.3)", &t);
        // Bounds may be arithmetic, columns must be columns.
        assert_passes("expect recovers_within(recovery_ms, 50 + 50)", &t);
        assert!(matches!(
            check("expect recovers_within(bogus, 1)", &t),
            Err(AverError::Eval(_))
        ));
    }

    #[test]
    fn trace_equivalent_over_summary_table() {
        // The shape `TraceDiff::to_table()` produces.
        let clean = Table::from_csv(
            "events_a,events_b,divergences,structural,max_drift_pct\n12,12,0,0,0\n",
        )
        .unwrap();
        assert_passes("expect trace_equivalent", &clean);
        assert_passes("expect trace_equivalent within 5", &clean);
        assert_passes("expect trace_equivalent(5)", &clean);

        let drifted = Table::from_csv(
            "events_a,events_b,divergences,structural,max_drift_pct\n12,12,1,0,3.4\n",
        )
        .unwrap();
        assert_fails("expect trace_equivalent", &drifted);
        assert_passes("expect trace_equivalent within 5", &drifted);
        assert_fails("expect trace_equivalent within 2", &drifted);

        let structural = Table::from_csv(
            "events_a,events_b,divergences,structural,max_drift_pct\n12,13,1,1,0\n",
        )
        .unwrap();
        // Structural divergence fails regardless of tolerance.
        assert_fails("expect trace_equivalent within 1000", &structural);

        // Not a summary table: error, not a silent pass.
        let t = gassyfs_table();
        assert!(matches!(check("expect trace_equivalent", &t), Err(AverError::Eval(_))));
    }

    #[test]
    fn trend_on_nonpositive_is_error() {
        let t = Table::from_csv("x,y\n0,1\n1,2\n").unwrap();
        assert!(matches!(check("expect sublinear(x, y)", &t), Err(AverError::Eval(_))));
    }

    #[test]
    fn trend_on_single_point_is_error() {
        let t = Table::from_csv("x,y\n1,1\n").unwrap();
        assert!(matches!(check("expect linear(x, y)", &t), Err(AverError::Eval(_))));
        assert!(matches!(check("expect increasing(x, y)", &t), Err(AverError::Eval(_))));
    }

    #[test]
    fn multiple_assertions_all_reported() {
        let t = gassyfs_table();
        let src = "when machine=* expect sublinear(nodes, time); expect max(time) < 50";
        let v = check(src, &t).unwrap();
        assert!(!v.passed);
        assert_eq!(v.assertions, 2);
        assert_eq!(v.failures.len(), 1); // only the second fails
    }

    #[test]
    fn or_and_not_filters() {
        let t = gassyfs_table();
        assert_passes(
            "when (machine = cloudlab or machine = ec2) and nodes < 2 expect count(time) = 2",
            &t,
        );
        assert_passes("when not machine = ec2 expect max(time) < 200", &t);
    }

    #[test]
    fn numeric_filter_on_numeric_column() {
        let t = gassyfs_table();
        assert_passes("when nodes >= 4 expect min(nodes) = 4", &t);
        assert_passes("when nodes != 8 expect max(nodes) = 4", &t);
    }

    #[test]
    fn verdict_display() {
        let t = gassyfs_table();
        let ok = check("expect count(time) = 8", &t).unwrap();
        assert!(ok.to_string().starts_with("PASS"));
        let bad = check("expect count(time) = 9", &t).unwrap();
        assert!(bad.to_string().starts_with("FAIL"));
    }

    #[test]
    fn paper_example_prose_assertions() {
        // "throughput is sustained at 2 GB/s up to 4 concurrent threads"
        // from §Automated Validation, recast on a synthetic table.
        let t = Table::from_csv(
            "threads,throughput_gbs\n1,2.05\n2,2.02\n4,1.98\n8,1.2\n16,0.7\n",
        )
        .unwrap();
        assert_passes(
            "when threads <= 4 expect min(throughput_gbs) >= 1.9 and constant(throughput_gbs, 10)",
            &t,
        );
        assert_passes("when threads >= 4 expect decreasing(threads, throughput_gbs)", &t);
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        const COLUMNS: &[&str] = &["workload", "machine", "nodes", "time", "ghost"];
        const TRENDS: &[&str] = &["sublinear", "superlinear", "linear", "increasing", "decreasing", "constant"];
        const AGGREGATES: &[&str] = &["avg", "sum", "min", "max", "count", "median", "stddev", "p90", "p95", "p99"];
        const COMPARISONS: &[&str] = &["=", "!=", "<", "<=", ">", ">="];
        const CONNECTIVES: &[&str] = &["and", "and", "or", "and not", "+"];

        fn pick(words: &'static [&'static str]) -> BoxedStrategy<String> {
            (0..words.len()).prop_map(move |i| words[i].to_string()).boxed()
        }

        fn number() -> BoxedStrategy<String> {
            prop_oneof!["-?[0-9]{1,3}\\.?[0-9]{0,2}", "[0-9]e[0-9]{1,3}"].boxed()
        }

        /// A `when` term: a column compared with a value or a wildcard.
        fn filter() -> BoxedStrategy<String> {
            let value = prop_oneof![number(), number(), Just("*".to_string()), Just("git".to_string()), "\\PC{0,4}"];
            (pick(COLUMNS), pick(COMPARISONS), value).prop_map(|(c, op, v)| format!("{c} {op} {v}")).boxed()
        }

        /// An `expect` term: a trend, an aggregate compared with a
        /// number, a tolerance check, or a short arbitrary string.
        fn expectation() -> BoxedStrategy<String> {
            let aggregate = || {
                (pick(AGGREGATES), pick(COLUMNS), pick(COMPARISONS), number())
                    .prop_map(|(f, c, op, n)| format!("{f}({c}) {op} {n}"))
            };
            prop_oneof![
                (pick(TRENDS), pick(COLUMNS), pick(COLUMNS)).prop_map(|(f, a, b)| format!("{f}({a}, {b})")),
                aggregate(),
                aggregate(),
                (pick(AGGREGATES), pick(COLUMNS), number(), number())
                    .prop_map(|(f, c, a, b)| format!("within({f}({c}), {a}, {b})")),
                "\\PC{0,8}",
            ]
            .boxed()
        }

        /// Terms joined by connectives.
        fn joined(term: BoxedStrategy<String>) -> BoxedStrategy<String> {
            (term.clone(), proptest::collection::vec((pick(CONNECTIVES), term), 0..3))
                .prop_map(|(first, rest)| rest.iter().fold(first, |out, (c, t)| format!("{out} {c} {t}")))
                .boxed()
        }

        proptest! {
            /// Any short assertion checks against a fixed table or gives
            /// an error, never a panic.
            #[test]
            fn check_never_panics(
                assertions in proptest::collection::vec(
                    (proptest::strategy::option_of(joined(filter())), joined(expectation())),
                    1..16,
                ),
            ) {
                for (when, expect) in &assertions {
                    let source = match when {
                        Some(when) => format!("when {when} expect {expect}"),
                        None => format!("expect {expect}"),
                    };
                    let _ = check(&source, &gassyfs_table());
                }
            }
        }
    }
}
