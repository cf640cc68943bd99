//! The checkpoint-interval study.
//!
//! GassyFS data is ephemeral: "file systems in GassyFS are explicitly
//! saved/loaded to/from durable storage". That turns checkpoint policy
//! into a classic trade-off — checkpoint often and pay overhead, or
//! rarely and risk losing work when a node dies. This study drives a
//! write workload and a periodic stop-the-world checkpoint daemon as
//! *concurrent processes on the discrete-event engine* (a one-shard
//! [`popper_sim::ShardedSim`]), sweeping the interval.
//!
//! Two effects fall out:
//!
//! * overhead decreases as the interval grows (fewer pauses);
//! * the worst-case loss window grows with the interval;
//! * checkpoints are *incremental for free*: the durable store is
//!   content-chunked, so unchanged files dedup across checkpoints.

use crate::fs::{GassyFs, MountOptions};
use crate::vfs::FsError;
use popper_format::{Table, Value};
use popper_sim::{platforms, Cluster, Nanos, ShardCtx, ShardedSim};
use popper_store::ChunkStore;

/// Study configuration.
#[derive(Debug, Clone)]
pub struct CheckpointStudy {
    /// Checkpoint intervals to sweep (virtual time). `Nanos::MAX` means
    /// "never checkpoint" and provides the overhead baseline.
    pub intervals: Vec<Nanos>,
    /// Number of files the workload writes.
    pub files: usize,
    /// Bytes per file.
    pub file_bytes: usize,
    /// Cluster size.
    pub nodes: usize,
}

impl Default for CheckpointStudy {
    fn default() -> Self {
        CheckpointStudy {
            intervals: vec![
                Nanos::from_millis(25),
                Nanos::from_millis(100),
                Nanos::from_millis(400),
                Nanos::MAX,
            ],
            files: 400,
            file_bytes: 64 * 1024,
            nodes: 4,
        }
    }
}

/// One interval's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointPoint {
    /// The interval (`None` = never).
    pub interval: Option<Nanos>,
    /// Workload completion time.
    pub completion: Nanos,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Total virtual time spent inside checkpoints.
    pub pause_total: Nanos,
    /// Worst-case loss window observed (longest gap between consecutive
    /// checkpoint completions, or the whole run when never).
    pub worst_loss_window: Nanos,
    /// Durable bytes actually stored (after chunk dedup).
    pub durable_stored_bytes: u64,
    /// Durable bytes ingested (before dedup) — the incremental savings
    /// are the gap to `durable_stored_bytes`.
    pub durable_ingested_bytes: u64,
}

/// The event-driven world.
struct World {
    fs: GassyFs,
    durable: ChunkStore,
    files: usize,
    file_bytes: usize,
    next_file: usize,
    /// The FS is unavailable until this time (stop-the-world checkpoint).
    busy_until: Nanos,
    checkpoints: u64,
    pause_total: Nanos,
    last_ckpt_done: Nanos,
    worst_loss_window: Nanos,
    done_at: Option<Nanos>,
    error: Option<FsError>,
}

fn write_next(ctx: &mut ShardCtx<'_, World>) {
    let now = ctx.now();
    let w = ctx.state();
    if w.error.is_some() {
        return;
    }
    let i = w.next_file;
    if i >= w.files {
        w.done_at = Some(w.done_at.map_or(now, |d| d.max(now)));
        return;
    }
    w.next_file += 1;
    let data = vec![(i % 251) as u8; w.file_bytes];
    match w.fs.write_file(&format!("/work/f{i}"), &data, now.max(w.busy_until)) {
        // Chain the next write at this one's completion.
        Ok(done) => ctx.schedule_at(done, write_next),
        Err(e) => w.error = Some(e),
    }
}

fn checkpoint_tick(ctx: &mut ShardCtx<'_, World>, interval: Nanos) {
    let now = ctx.now();
    let w = ctx.state();
    if w.done_at.is_some() || w.error.is_some() {
        return; // workload finished; daemon stops
    }
    let start = now.max(w.busy_until);
    match w.fs.checkpoint(&mut w.durable, start) {
        Ok((_manifests, done)) => {
            w.busy_until = done;
            w.checkpoints += 1;
            w.pause_total += done.saturating_sub(start);
            w.worst_loss_window = w.worst_loss_window.max(done.saturating_sub(w.last_ckpt_done));
            w.last_ckpt_done = done;
            ctx.schedule_at(done + interval, move |c| checkpoint_tick(c, interval));
        }
        Err(e) => w.error = Some(e),
    }
}

/// Run one interval.
pub fn run_one(study: &CheckpointStudy, interval: Option<Nanos>) -> Result<CheckpointPoint, FsError> {
    let cluster = Cluster::new(platforms::gassyfs_node(), study.nodes);
    let mut fs = GassyFs::mount(cluster, MountOptions::default());
    fs.mkdir_p("/work", Nanos::ZERO)?;
    let world = World {
        fs,
        durable: ChunkStore::new(),
        files: study.files,
        file_bytes: study.file_bytes,
        next_file: 0,
        busy_until: Nanos::ZERO,
        checkpoints: 0,
        pause_total: Nanos::ZERO,
        last_ckpt_done: Nanos::ZERO,
        worst_loss_window: Nanos::ZERO,
        done_at: None,
        error: None,
    };
    // One shard sends nothing across shards, so a lookahead as wide as
    // the run is safe: the whole study is one epoch.
    let mut sim = ShardedSim::new(vec![world], Nanos::MAX);
    sim.schedule(0, Nanos::ZERO, write_next);
    if let Some(iv) = interval {
        sim.schedule(0, iv, move |c| checkpoint_tick(c, iv));
    }
    sim.run();
    let w = sim.state_mut(0);
    if let Some(e) = w.error.take() {
        return Err(e);
    }
    let completion = w.done_at.expect("workload finished");
    let worst = if w.checkpoints == 0 {
        completion
    } else {
        // Tail window: work after the last checkpoint is also at risk.
        w.worst_loss_window.max(completion.saturating_sub(w.last_ckpt_done))
    };
    let stats = w.durable.stats();
    Ok(CheckpointPoint {
        interval,
        completion,
        checkpoints: w.checkpoints,
        pause_total: w.pause_total,
        worst_loss_window: worst,
        durable_stored_bytes: stats.stored_bytes,
        durable_ingested_bytes: stats.ingested_bytes,
    })
}

/// Run the sweep.
pub fn run_checkpoint_study(study: &CheckpointStudy) -> Result<Vec<CheckpointPoint>, FsError> {
    study
        .intervals
        .iter()
        .map(|&iv| run_one(study, if iv == Nanos::MAX { None } else { Some(iv) }))
        .collect()
}

/// Results table: `interval_ms, time_s, checkpoints, pause_s,
/// loss_window_ms, stored_mb, ingested_mb`.
pub fn to_table(points: &[CheckpointPoint]) -> Table {
    let mut t = Table::new([
        "interval_ms",
        "time_s",
        "checkpoints",
        "pause_s",
        "loss_window_ms",
        "stored_mb",
        "ingested_mb",
    ]);
    for p in points {
        t.push_row(vec![
            match p.interval {
                Some(iv) => Value::Num(iv.as_millis_f64()),
                None => Value::Str("never".into()),
            },
            Value::Num(p.completion.as_secs_f64()),
            Value::from(p.checkpoints as i64),
            Value::Num(p.pause_total.as_secs_f64()),
            Value::Num(p.worst_loss_window.as_millis_f64()),
            Value::Num(p.durable_stored_bytes as f64 / 1e6),
            Value::Num(p.durable_ingested_bytes as f64 / 1e6),
        ])
        .expect("fixed schema");
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_study() -> CheckpointStudy {
        CheckpointStudy {
            intervals: vec![Nanos::from_millis(5), Nanos::from_millis(100), Nanos::MAX],
            files: 60,
            file_bytes: 32 * 1024,
            nodes: 2,
        }
    }

    #[test]
    fn overhead_falls_and_risk_rises_with_interval() {
        let points = run_checkpoint_study(&small_study()).unwrap();
        assert_eq!(points.len(), 3);
        let frequent = &points[0];
        let rare = &points[1];
        let never = &points[2];
        // More checkpoints at the short interval.
        assert!(frequent.checkpoints > rare.checkpoints, "{frequent:?} vs {rare:?}");
        assert_eq!(never.checkpoints, 0);
        // Checkpointing costs completion time.
        assert!(frequent.completion > never.completion);
        assert!(frequent.pause_total > rare.pause_total);
        // Risk ordering: worst loss window grows with the interval.
        assert!(frequent.worst_loss_window <= rare.worst_loss_window);
        assert!(rare.worst_loss_window <= never.worst_loss_window);
        assert_eq!(never.worst_loss_window, never.completion);
    }

    #[test]
    fn checkpoints_are_incremental_via_dedup() {
        let points = run_checkpoint_study(&small_study()).unwrap();
        let frequent = &points[0];
        assert!(frequent.checkpoints >= 2);
        // Ingested counts every checkpointed byte; stored dedups the
        // unchanged prefix of the namespace across checkpoints.
        assert!(
            frequent.durable_ingested_bytes > 2 * frequent.durable_stored_bytes,
            "dedup should save >2x: stored {} ingested {}",
            frequent.durable_stored_bytes,
            frequent.durable_ingested_bytes
        );
    }

    #[test]
    fn study_is_deterministic() {
        let a = run_checkpoint_study(&small_study()).unwrap();
        let b = run_checkpoint_study(&small_study()).unwrap();
        assert_eq!(a, b);
    }

    /// SHA-256 of the study's `Debug` bytes. `study_is_deterministic`
    /// compares two runs of the same build; this pins the bytes across
    /// changes to the event engine underneath.
    #[test]
    fn study_results_match_their_golden_digests() {
        let digest = |study: &CheckpointStudy| {
            let bytes = format!("{:?}", run_checkpoint_study(study));
            popper_vcs::sha256::to_hex(&popper_vcs::sha256::digest(bytes.as_bytes()))
        };
        assert_eq!(digest(&CheckpointStudy::default()), "2761a40d86b1cc9147bce49e8621ec9838f2c1aa8ee6c44b4686ae040660f5cf");
        assert_eq!(digest(&small_study()), "1d79e845a4c61f7551df768d1fb8b552dfec09f8a7971f17e3fddf5411a4213f");
    }

    #[test]
    fn table_and_aver_shape_check() {
        let points = run_checkpoint_study(&small_study()).unwrap();
        let t = to_table(&points);
        assert_eq!(t.len(), 3);
        // Among the finite intervals: pauses shrink as the interval grows.
        let finite = t.filter(|r| r.str("interval_ms").is_none());
        let verdict =
            popper_aver::check("expect decreasing(interval_ms, pause_s)", &finite).unwrap();
        assert!(verdict.passed, "{:?}", verdict.failures);
    }
}
