//! A time-series metric store.
//!
//! The paper's workflow captures runtime metrics during execution and
//! feeds "many of the graphs included in the article … directly from
//! running analysis scripts on top of this data" (§Toolkit, *Performance
//! Monitoring*). [`MetricStore`] is that capture point: thread-safe,
//! tag-aware, and exportable as a [`Table`] for Aver and plotting.

use popper_aver::stats;
use popper_format::sync::{read, write};
use popper_format::{Table, Value};
use popper_sim::Nanos;
use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

/// One sample of one metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Virtual (or logical) timestamp.
    pub at: Nanos,
    /// The measured value.
    pub value: f64,
}

/// Summary statistics of a series.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Mean value.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Sample standard deviation (0 for < 2 samples).
    pub stddev: f64,
    /// 95th percentile.
    pub p95: f64,
}

#[derive(Debug, Default)]
struct Inner {
    /// Keyed by (metric name, tag string).
    series: BTreeMap<(String, String), Vec<Sample>>,
}

/// A shareable, thread-safe metric store.
///
/// Cloning is cheap (an `Arc`); the CI job runner and the orchestration
/// engine hand clones to worker threads.
#[derive(Debug, Clone, Default)]
pub struct MetricStore {
    inner: Arc<RwLock<Inner>>,
}

impl MetricStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a sample for `metric` with an optional `tag` (e.g. a node
    /// name or rank). Untagged samples use the empty tag.
    pub fn record(&self, metric: &str, tag: &str, at: Nanos, value: f64) {
        let mut inner = write(&self.inner);
        inner
            .series
            .entry((metric.to_string(), tag.to_string()))
            .or_default()
            .push(Sample { at, value });
    }

    /// All samples of `(metric, tag)`, in record order.
    pub fn samples(&self, metric: &str, tag: &str) -> Vec<Sample> {
        read(&self.inner)
            .series
            .get(&(metric.to_string(), tag.to_string()))
            .cloned()
            .unwrap_or_default()
    }

    /// Just the values of `(metric, tag)`.
    pub fn values(&self, metric: &str, tag: &str) -> Vec<f64> {
        self.samples(metric, tag).into_iter().map(|s| s.value).collect()
    }

    /// The distinct `(metric, tag)` keys currently held.
    pub fn keys(&self) -> Vec<(String, String)> {
        read(&self.inner).series.keys().cloned().collect()
    }

    /// Summary of one series; `None` if it has no samples.
    pub fn summary(&self, metric: &str, tag: &str) -> Option<Summary> {
        let values = self.values(metric, tag);
        if values.is_empty() {
            return None;
        }
        Some(Summary {
            count: values.len(),
            mean: stats::mean(&values),
            min: values.iter().cloned().fold(f64::INFINITY, f64::min),
            max: values.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
            stddev: if values.len() < 2 { 0.0 } else { stats::stddev(&values) },
            p95: stats::percentile(&values, 95.0),
        })
    }

    /// Export every sample as a long-format table with columns
    /// `metric, tag, t_ns, value` — the shape Aver assertions and the
    /// analysis notebooks consume.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(["metric", "tag", "t_ns", "value"]);
        let inner = read(&self.inner);
        for ((metric, tag), samples) in &inner.series {
            for s in samples {
                t.push_row(vec![
                    Value::from(metric.as_str()),
                    Value::from(tag.as_str()),
                    Value::from(s.at.as_nanos() as i64),
                    Value::Num(s.value),
                ])
                .expect("schema is fixed");
            }
        }
        t
    }

    /// Total number of samples across all series.
    pub fn len(&self) -> usize {
        read(&self.inner).series.values().map(Vec::len).sum()
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Remove all samples (between experiment repetitions).
    pub fn clear(&self) {
        write(&self.inner).series.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_summarize() {
        let m = MetricStore::new();
        for (i, v) in [10.0, 12.0, 11.0, 13.0, 9.0].iter().enumerate() {
            m.record("latency_ms", "node0", Nanos::from_millis(i as u64), *v);
        }
        let s = m.summary("latency_ms", "node0").unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean, 11.0);
        assert_eq!(s.min, 9.0);
        assert_eq!(s.max, 13.0);
        assert!(s.stddev > 0.0);
        assert!(m.summary("latency_ms", "other").is_none());
    }

    #[test]
    fn tags_are_separate_series() {
        let m = MetricStore::new();
        m.record("t", "a", Nanos(1), 1.0);
        m.record("t", "b", Nanos(1), 2.0);
        assert_eq!(m.values("t", "a"), vec![1.0]);
        assert_eq!(m.values("t", "b"), vec![2.0]);
        assert_eq!(m.keys().len(), 2);
    }

    #[test]
    fn table_export_has_long_format() {
        let m = MetricStore::new();
        m.record("mpi_time", "rank0", Nanos(5), 0.5);
        m.record("mpi_time", "rank1", Nanos(5), 0.7);
        let t = m.to_table();
        assert_eq!(t.len(), 2);
        assert_eq!(t.column_names(), ["metric", "tag", "t_ns", "value"]);
        assert_eq!(t.cell(0, "tag").unwrap().as_str(), Some("rank0"));
        assert_eq!(t.cell(1, "value").unwrap().as_num(), Some(0.7));
    }

    #[test]
    fn clear_empties_store() {
        let m = MetricStore::new();
        m.record("x", "", Nanos(0), 1.0);
        assert!(!m.is_empty());
        m.clear();
        assert!(m.is_empty());
    }

    #[test]
    fn concurrent_recording() {
        let m = MetricStore::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let m = m.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        m.record("par", &format!("t{t}"), Nanos(i), i as f64);
                    }
                });
            }
        });
        assert_eq!(m.len(), 800);
        for t in 0..8 {
            assert_eq!(m.values("par", &format!("t{t}")).len(), 100);
        }
    }

    #[test]
    fn aver_assertion_over_exported_table() {
        // End-to-end: metrics -> table -> Aver, the paper's validation
        // pipeline.
        let m = MetricStore::new();
        for i in 0..10u64 {
            m.record("throughput", "gassyfs", Nanos(i), 2.0 + (i as f64) * 0.001);
        }
        let verdict = popper_aver::check(
            "when metric = throughput expect min(value) >= 2 and constant(value, 5)",
            &m.to_table(),
        )
        .unwrap();
        assert!(verdict.passed, "{:?}", verdict.failures);
    }
}
