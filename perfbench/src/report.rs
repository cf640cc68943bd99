//! What one run reports: metrics with their sample counts, operations
//! attempted and failed, failed output checks, and the benchmark's own
//! spans around calls into each layer.

use crate::stats;
use std::time::{Duration, Instant};

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples the value summarises (1 for a count or a single timing).
    pub samples: usize,
}

/// Everything a run measured and checked.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// What a timed run's `round_s` or `setup_s` is made of, each the
    /// median of its own samples: printed beside the metrics, not gated.
    pub parts: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold.
    pub check_failures: Vec<String>,
    /// Facts about the run worth printing beside the numbers.
    pub notes: Vec<String>,
    /// Worker threads each layer was given.
    pub threads: Vec<(&'static str, usize)>,
}

impl Report {
    /// Record a single value (a count, a ratio, or one timing).
    pub fn value(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.push(name.into(), unit, value, 1);
    }

    /// Record the median of `samples`.
    pub fn median(&mut self, name: impl Into<String>, unit: &'static str, samples: &[f64]) {
        let name = name.into();
        match stats::median(samples) {
            Some(v) => self.push(name, unit, v, samples.len()),
            None => self.check(false, format!("no samples for '{name}'")),
        }
    }

    /// Record the median of `samples` as a part of a metric.
    pub fn part(&mut self, name: &str, unit: &'static str, samples: &[f64]) {
        if let Some(value) = stats::median(samples) {
            self.parts.push(Metric {
                name: name.into(),
                unit,
                value,
                samples: samples.len(),
            });
        }
    }

    /// Record nearest-rank percentile `p` of `samples`; a tail
    /// percentile needs at least [`stats::MIN_TAIL`] samples beyond it.
    pub fn percentile(
        &mut self,
        name: impl Into<String>,
        unit: &'static str,
        samples: &[f64],
        p: f64,
    ) {
        let name = name.into();
        let beyond = stats::beyond(samples.len(), p);
        if p > 50.0 && beyond < stats::MIN_TAIL {
            self.check(
                false,
                format!(
                    "'{name}': {} samples leave {beyond} beyond p{p}, need {}",
                    samples.len(),
                    stats::MIN_TAIL
                ),
            );
            return;
        }
        match stats::percentile(samples, p) {
            Some(v) => self.push(name, unit, v, samples.len()),
            None => self.check(false, format!("no samples for '{name}'")),
        }
    }

    fn push(&mut self, name: String, unit: &'static str, value: f64, samples: usize) {
        if !value.is_finite() {
            self.check(false, format!("'{name}' is not a finite number ({value})"));
            return;
        }
        self.metrics.push(Metric {
            name,
            unit,
            value,
            samples,
        });
    }

    /// Count one operation; a failed one is counted and explained.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.check_failures.push(what());
        }
    }

    /// Record an output check that is not itself an operation.
    pub fn check(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.check_failures.push(what.into());
        }
    }

    pub fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}

/// One span the benchmark recorded around a call into a layer.
pub struct Span {
    pub name: &'static str,
    pub dur_ms: f64,
}

/// The benchmark's in-memory span log for a traced run. Spans are
/// named after the metric they feed (`cli.persist.load`, ...).
pub struct Spans {
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { spans: Vec::new() }
    }

    /// Run `f` inside a span called `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, start.elapsed());
        out
    }

    /// Record a span called `name` that the caller timed.
    pub fn record(&mut self, name: &'static str, took: Duration) {
        self.spans.push(Span {
            name,
            dur_ms: took.as_secs_f64() * 1e3,
        });
    }

    /// Durations of every span called `name`, in milliseconds.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ms)
            .collect()
    }

    /// Total time spent inside spans, in seconds.
    pub fn total_s(&self) -> f64 {
        self.spans.iter().map(|s| s.dur_ms).sum::<f64>() / 1e3
    }
}
