//! Chaos for the data-centric use case: the datapackage fetch under
//! network faults.
//!
//! The BWW experiment's external dependency is its dataset: monthly
//! reanalysis chunks served by a pool of datapackage mirrors. This
//! module simulates that fetch against a [`FaultPlane`] that applies the
//! schedule's [`FaultSchedule::plane_timeline`] as the fetch's clock
//! advances: node 0 is the analysis client, nodes `1..n` are mirrors,
//! and one chunk is one month of the record. Lossy links cost
//! exponential-backoff retries (deterministic, from the plane's seeded
//! sampler); an unreachable mirror fails over to the next one; a chunk
//! that exhausts its retransmission budget — or finds every mirror
//! unreachable for longer than the client's patience — is *dropped*,
//! and the analysis runs over the degraded record. The headline gate
//! is `degraded_at_most(degraded_fraction, …)`: how much of the record
//! may be missing before the figure is meaningless.

use crate::analysis::{analyze, AirTempAnalysis};
use crate::grid::Grid;
use crate::reanalysis::{generate, ReanalysisConfig};
use popper_chaos::FaultSchedule;
use popper_format::{Table, Value};
use popper_sim::fault::MAX_RETRANSMITS;
use popper_sim::{FaultPlane, Nanos};

/// Configuration of a faulted datapackage fetch.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchConfig {
    /// The dataset being fetched (one chunk per month).
    pub data: ReanalysisConfig,
    /// Healthy per-chunk fetch time, ms.
    pub base_ms: f64,
    /// First retry backoff, ms; doubles per retransmission.
    pub backoff_ms: f64,
    /// Total-outage waits (timeout each) before a chunk is dropped.
    pub patience: u32,
}

impl Default for FetchConfig {
    fn default() -> Self {
        FetchConfig { data: ReanalysisConfig::default(), base_ms: 4.0, backoff_ms: 2.0, patience: 4 }
    }
}

/// One fetch epoch (a year of monthly chunks).
#[derive(Debug, Clone, PartialEq)]
pub struct FetchEpoch {
    /// Epoch index.
    pub epoch: usize,
    /// Chunks attempted this epoch.
    pub chunks: usize,
    /// Chunks fetched intact this epoch.
    pub fetched: usize,
    /// Fetches served by a non-preferred mirror.
    pub failovers: u64,
    /// Loss-driven retransmissions this epoch.
    pub retries: u64,
    /// Virtual time spent fetching this epoch.
    pub duration: Nanos,
}

/// The result of a faulted fetch plus the degraded analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct FetchReport {
    /// Schedule name.
    pub schedule: String,
    /// Schedule seed.
    pub seed: u64,
    /// Mirror-pool size (client + mirrors).
    pub nodes: usize,
    /// Per-year measurements.
    pub epochs: Vec<FetchEpoch>,
    /// Chunks fetched intact.
    pub fetched: usize,
    /// Chunks dropped (outage outlasted patience, or retransmission
    /// budget exhausted).
    pub dropped: usize,
    /// Total mirror failovers.
    pub failovers: u64,
    /// Total loss-driven retransmissions.
    pub retries: u64,
    /// Chunks whose bytes came back wrong (checksummed: always 0 —
    /// a bad chunk is retried or dropped, never kept).
    pub corrupt: u64,
    /// Time from the first fault to the first clean fetch after it, ms.
    pub recovery_ms: f64,
    /// Fraction of the record dropped.
    pub degraded_fraction: f64,
    /// The analysis over the surviving months (`None` when the whole
    /// record was dropped).
    pub analysis: Option<AirTempAnalysis>,
    /// Virtual end time of the fetch.
    pub elapsed: Nanos,
}

/// Fetch the dataset through the fault plane and analyze what survives.
pub fn fetch_with_faults(
    cfg: &FetchConfig,
    schedule: &FaultSchedule,
) -> Result<FetchReport, String> {
    if schedule.nodes < 2 {
        return Err("datapackage fetch needs at least one mirror (faults.nodes >= 2)".into());
    }
    let nodes = schedule.nodes;
    let mirrors = nodes - 1;
    let full = generate(&cfg.data);
    let chunks = full.times.len();
    let mut plane = FaultPlane::new(nodes);
    plane.set_seed(schedule.seed);
    // Apply every fault due at or before `now`, each marked by a
    // `chaos/faults` instant.
    let (timeline, tracer, mut next) = (schedule.plane_timeline(), popper_trace::current(), 0);
    let mut advance = |plane: &mut FaultPlane, now: Nanos| {
        while let Some((at, cmd)) = timeline.get(next).filter(|(at, _)| *at <= now) {
            plane.apply(cmd);
            if tracer.is_enabled() {
                tracer.instant_at("chaos", "chaos/faults", cmd.label(), at.0);
            }
            next += 1;
        }
    };
    let mut t = Nanos::ZERO;
    let mut dropped_months = vec![false; chunks];
    let mut epochs: Vec<FetchEpoch> = Vec::new();
    let (mut failovers, mut retries) = (0u64, 0u64);
    let first_fault = schedule.events.first().map(|e| e.at);
    let mut recovery_end: Option<Nanos> = None;

    for (chunk, dropped) in dropped_months.iter_mut().enumerate() {
        let epoch = chunk / 12;
        if epochs.len() <= epoch {
            epochs.push(FetchEpoch {
                epoch,
                chunks: 0,
                fetched: 0,
                failovers: 0,
                retries: 0,
                duration: Nanos::ZERO,
            });
        }
        let start = t;
        advance(&mut plane, t);

        // Pick a mirror: round-robin preference, failover to the next
        // live one; wait out a total outage up to `patience` timeouts.
        let preferred = 1 + chunk % mirrors;
        let mut mirror = None;
        let mut waits = 0u32;
        loop {
            let found = (0..mirrors)
                .map(|k| 1 + (preferred - 1 + k) % mirrors)
                .enumerate()
                .find(|(_, m)| plane.reachable(0, *m));
            match found {
                Some((skipped, m)) => {
                    failovers += skipped as u64;
                    epochs[epoch].failovers += skipped as u64;
                    mirror = Some(m);
                    break;
                }
                None if waits < cfg.patience => {
                    waits += 1;
                    t += plane.timeout();
                    advance(&mut plane, t);
                }
                None => break,
            }
        }

        let mut clean = waits == 0 && mirror == Some(preferred);
        match mirror {
            None => *dropped = true,
            Some(m) => {
                let r = plane.retransmits(0, m);
                // Exponential backoff: backoff_ms, 2×, 4×, … per retry.
                let backoff: f64 =
                    (0..r).map(|k| cfg.backoff_ms * (1u64 << k.min(16)) as f64).sum();
                let slow = plane.latency_factor_between(0, m);
                t += Nanos::from_secs_f64((cfg.base_ms * slow + backoff) / 1e3);
                retries += r as u64;
                epochs[epoch].retries += r as u64;
                if r >= MAX_RETRANSMITS {
                    // Still lost after the whole budget: give up on the
                    // chunk rather than stall the record.
                    *dropped = true;
                } else {
                    epochs[epoch].fetched += 1;
                    clean &= r == 0 && slow == 1.0;
                    if clean && recovery_end.is_none() {
                        if let Some(f) = first_fault {
                            if start >= f {
                                recovery_end = Some(t);
                            }
                        }
                    }
                }
            }
        }
        epochs[epoch].chunks += 1;
        epochs[epoch].duration += t - start;
    }
    // Let the rest of the schedule play out for the trace timeline.
    advance(&mut plane, schedule.horizon().max(t));

    let dropped = dropped_months.iter().filter(|d| **d).count();
    let fetched = chunks - dropped;
    let degraded = drop_months(&full, &dropped_months);
    let recovery_ms = match (first_fault, recovery_end) {
        (Some(f), Some(r)) => (r - f).0 as f64 / 1e6,
        (Some(f), None) => (t.max(schedule.horizon()) - f).0 as f64 / 1e6,
        (None, _) => 0.0,
    };
    Ok(FetchReport {
        schedule: schedule.name.clone(),
        seed: schedule.seed,
        nodes,
        epochs,
        fetched,
        dropped,
        failovers,
        retries,
        corrupt: 0,
        recovery_ms,
        degraded_fraction: dropped as f64 / chunks.max(1) as f64,
        analysis: degraded.as_ref().map(analyze),
        elapsed: t,
    })
}

/// The record with the dropped months removed (`None` if nothing
/// survived).
fn drop_months(grid: &Grid, dropped: &[bool]) -> Option<Grid> {
    if dropped.iter().all(|d| !*d) {
        return Some(grid.clone());
    }
    let keep: Vec<usize> = (0..grid.times.len()).filter(|i| !dropped[*i]).collect();
    if keep.is_empty() {
        return None;
    }
    let times = keep.iter().map(|&i| grid.times[i]).collect();
    let mut out = Grid::zeros(times, grid.lats.clone(), grid.lons.clone());
    for (new_t, &old_t) in keep.iter().enumerate() {
        for la in 0..grid.lats.len() {
            for lo in 0..grid.lons.len() {
                out.set(new_t, la, lo, grid.get(old_t, la, lo));
            }
        }
    }
    Some(out)
}

/// Render a fetch report as the experiment's `results.csv` with the
/// columns the chaos Aver assertions name (aggregates repeat per row,
/// as in the GassyFS chaos table).
pub fn to_table(report: &FetchReport) -> Table {
    let mut t = Table::new([
        "schedule",
        "mirrors",
        "epoch",
        "time_ms",
        "reads",
        "failovers",
        "retries",
        "corrupt",
        "recovery_ms",
        "degraded_fraction",
    ]);
    for e in &report.epochs {
        t.push_row(vec![
            Value::from(report.schedule.as_str()),
            Value::from(report.nodes - 1),
            Value::from(e.epoch),
            Value::Num(e.duration.0 as f64 / 1e6),
            Value::from(e.fetched),
            Value::from(e.failovers as i64),
            Value::from(e.retries as i64),
            Value::from(report.corrupt as i64),
            Value::Num(report.recovery_ms),
            Value::Num(report.degraded_fraction),
        ])
        .expect("fixed schema");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cfg() -> FetchConfig {
        FetchConfig { data: ReanalysisConfig::small(), ..Default::default() }
    }

    #[test]
    fn healthy_schedule_fetches_everything() {
        let schedule = FaultSchedule { name: "idle".into(), seed: 1, nodes: 4, events: vec![] };
        let report = fetch_with_faults(&small_cfg(), &schedule).unwrap();
        assert_eq!(report.dropped, 0);
        assert_eq!(report.fetched, 24);
        assert_eq!(report.degraded_fraction, 0.0);
        assert_eq!(report.recovery_ms, 0.0);
        let analysis = report.analysis.expect("nothing dropped");
        assert_eq!(analysis.global_series.len(), 24);
    }

    #[test]
    fn node_crash_fails_over_and_recovers() {
        let schedule = FaultSchedule::named("node-crash", 4, 7).unwrap();
        let sink = popper_trace::TraceSink::new();
        let tracer = sink.tracer(popper_trace::ClockDomain::Virtual);
        let report =
            popper_trace::with_current(tracer, || fetch_with_faults(&small_cfg(), &schedule)).unwrap();
        // Every injected fault is marked on the timeline under its
        // `PlaneCmd` label.
        let faults: Vec<String> = sink.drain().into_iter().map(|e| e.name.to_string()).collect();
        assert_eq!(faults, ["crash node 3", "restart node 3"]);
        assert!(report.failovers > 0, "crashed mirror must force failovers");
        assert_eq!(report.corrupt, 0);
        assert!(report.recovery_ms < 5000.0, "default recovers_within bound");
        // Failover keeps the record whole: degraded but correct.
        assert!(report.degraded_fraction <= 0.5, "default degraded_at_most bound");
    }

    #[test]
    fn packet_loss_costs_retries_deterministically() {
        let run = || {
            let schedule = FaultSchedule::named("packet-loss", 3, 11).unwrap();
            fetch_with_faults(&small_cfg(), &schedule).unwrap()
        };
        let a = run();
        assert!(a.retries > 0, "25% loss must retransmit");
        assert_eq!(a, run(), "same seed, same fetch");
        let table = to_table(&a);
        assert_eq!(table.len(), 2, "one row per year");
        assert!(table.numeric_column("degraded_fraction").is_ok());
        assert!(table.numeric_column("recovery_ms").is_ok());
    }

    #[test]
    fn dropped_months_shrink_the_analysis_not_the_profile() {
        let full = generate(&ReanalysisConfig::small());
        let mut dropped = vec![false; full.times.len()];
        dropped[0] = true;
        dropped[13] = true;
        let degraded = drop_months(&full, &dropped).unwrap();
        assert_eq!(degraded.times.len(), full.times.len() - 2);
        assert_eq!(degraded.lats, full.lats);
        assert_eq!(degraded.get(0, 3, 5), full.get(1, 3, 5));
        assert!(drop_months(&full, &vec![true; full.times.len()]).is_none());
    }

    #[test]
    fn needs_a_mirror() {
        let schedule = FaultSchedule { name: "idle".into(), seed: 1, nodes: 1, events: vec![] };
        assert!(fetch_with_faults(&small_cfg(), &schedule).is_err());
    }
}
