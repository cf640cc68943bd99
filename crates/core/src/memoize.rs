//! Memoized stage execution: the engine-side half of popper-memo.
//!
//! `popper-memo` provides keys, entries and the table; this module
//! decides *what is keyed* and *what replay means* for a
//! [`RunContext`]:
//!
//! * a **base key** per pipeline run — engine version, lifecycle mode
//!   (`run`/`trace`/`chaos`/`verify`/`trace-diff`), experiment name,
//!   caller-supplied salt (chaos schedule/seed overrides, trace-diff
//!   refs) and a hash of every *input* file under the experiment
//!   directory (generated artifacts excluded, so a warm re-run is not
//!   invalidated by the outputs of the cold one);
//! * a **per-stage key** — base, stage index and name, the serialized
//!   vars visible at stage entry, and the chained digest of every
//!   upstream stage's recorded output, which makes hits prefix-closed:
//!   editing anything invalidates the stage that reads it *and*
//!   everything downstream, never an interior stage alone;
//! * **capture** — after a miss, the stage's effect is reduced to the
//!   serialized `RunContext` field deltas plus every commit it made
//!   (message + exact bytes written), and stored in the object layer;
//! * **replay** — on a hit, recorded commits are re-applied (skipped
//!   entirely when the working tree already holds identical bytes, so
//!   warm runs are churn-free) and the field deltas are decoded back
//!   into the context. Determinism is the contract: a replayed run
//!   must be byte-identical to an executed one.
//!
//! A stage whose effects the entry format cannot represent (file
//! removals, merges, foreign commit ids) simply isn't recorded, and the
//! session is poisoned for the rest of the run so no downstream stage
//! can hit on a stale chain.

use crate::pipeline::{ArtifactSet, RunContext, Stage, StageControl};
use crate::repo::PopperRepo;
use popper_aver::Verdict;
use popper_chaos::FaultSchedule;
use popper_format::{json, Table, Value};
use popper_memo::{KeyBuilder, MemoTable, ReplayCommit, StageEntry};
use popper_monitor::GateOutcome;
use popper_vcs::repo::Change;
use popper_vcs::{sha256, ObjectId};

pub use popper_memo::{cache_disabled_by_env, MemoSession, MemoStats, StageOutcome};

/// Artifact names the lifecycles themselves produce. They are excluded
/// from the input manifest: run N's outputs must not invalidate run
/// N+1's keys, or nothing would ever be warm.
const GENERATED_ARTIFACTS: &[&str] = &[
    "results.csv",
    "figure.txt",
    "figure.svg",
    "chaos-results.csv",
    "chaos-figure.txt",
    "faults.json",
    "recovery.json",
    "trace.json",
    "trace.svg",
    "trace-diff.json",
    "trace-diff.txt",
    "verify.json",
    "datasets/baseline.csv",
];

fn is_generated(rel: &str) -> bool {
    GENERATED_ARTIFACTS.contains(&rel)
}

/// Build the memo session for one lifecycle run: the base key over
/// everything the whole pipeline can observe before any stage runs.
pub fn lifecycle_session(
    repo: &PopperRepo,
    experiment: &str,
    mode: &str,
    salt: &[(String, String)],
) -> MemoSession {
    let mut key = KeyBuilder::new("popper-memo/base/v2")
        .text("engine", env!("CARGO_PKG_VERSION"))
        .text("mode", mode)
        .text("experiment", experiment);
    for (name, value) in salt {
        key = key.text(&format!("salt:{name}"), value);
    }
    // Artifacts one mode consumes as inputs even though another mode
    // produced them: verify re-checks the recorded results, so their
    // bytes must key its cache (a tampered results.csv is a new
    // verification question, not a warm repeat).
    let consumed_by_mode: &[&str] = match mode {
        "verify" => &["results.csv"],
        _ => &[],
    };
    // Input manifest: every committed-or-edited file under the
    // experiment directory, hashed with the streaming hasher.
    // `Repository::files` iterates the worktree BTreeMap, so the order
    // is sorted and deterministic.
    let prefix = format!("experiments/{experiment}/");
    let paths: Vec<String> = repo
        .vcs
        .files()
        .filter(|p| p.starts_with(&prefix))
        .map(str::to_string)
        .collect();
    for path in paths {
        let rel = &path[prefix.len()..];
        if is_generated(rel) && !consumed_by_mode.contains(&rel) {
            continue;
        }
        if let Some(mut bytes) = repo.vcs.read_file(&path) {
            let digest = sha256::digest_reader(&mut bytes).expect("reading a byte slice cannot fail");
            key = key.bytes(&format!("input:{path}"), &digest);
        }
    }
    MemoSession::new(key.finish())
}

// ------------------------------------------------------- field codecs
//
// Context fields are serialized with the formats the lifecycles already
// commit (CSV for tables, JSON for values) so replay exercises the same
// canonical-round-trip guarantees the artifact layer depends on.

const OPT_NONE: u8 = 0;
const OPT_SOME: u8 = 1;
/// "Set `ctx.commit` to the commit this entry's replay lands (or
/// `None` when the replay skipped an identical-bytes commit)."
const COMMIT_REPLAYED: u8 = 2;

fn opt_bytes(inner: Option<Vec<u8>>) -> Vec<u8> {
    match inner {
        None => vec![OPT_NONE],
        Some(bytes) => {
            let mut out = vec![OPT_SOME];
            out.extend_from_slice(&bytes);
            out
        }
    }
}

fn opt_body(bytes: &[u8]) -> Result<Option<&[u8]>, String> {
    match bytes.split_first() {
        Some((&OPT_NONE, [])) => Ok(None),
        Some((&OPT_SOME, body)) => Ok(Some(body)),
        _ => Err("bad optional field encoding".into()),
    }
}

fn encode_gate(gate: &GateOutcome) -> Vec<u8> {
    let value = match gate {
        GateOutcome::Proceed => Value::Map(vec![("outcome".into(), Value::Str("proceed".into()))]),
        GateOutcome::Blocked(offenders) => Value::Map(vec![
            ("outcome".into(), Value::Str("blocked".into())),
            (
                "offenders".into(),
                Value::List(
                    offenders
                        .iter()
                        .map(|(dim, expected, actual, deviation)| {
                            Value::List(vec![
                                Value::Str(dim.clone()),
                                Value::Num(*expected),
                                Value::Num(*actual),
                                Value::Num(*deviation),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]),
    };
    json::to_string(&value).into_bytes()
}

fn decode_gate(bytes: &[u8]) -> Result<GateOutcome, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "gate field is not utf-8")?;
    let value = json::parse(text).map_err(|e| format!("gate field: {e}"))?;
    match value.get_str("outcome") {
        Some("proceed") => Ok(GateOutcome::Proceed),
        Some("blocked") => {
            let mut offenders = Vec::new();
            for entry in value.get_list("offenders").unwrap_or(&[]) {
                let parts = entry.as_list().ok_or("bad gate offender")?;
                match parts {
                    [Value::Str(dim), Value::Num(e), Value::Num(a), Value::Num(d)] => {
                        offenders.push((dim.clone(), *e, *a, *d))
                    }
                    _ => return Err("bad gate offender".into()),
                }
            }
            Ok(GateOutcome::Blocked(offenders))
        }
        _ => Err("bad gate outcome".into()),
    }
}

fn encode_verdict(verdict: &Verdict) -> Vec<u8> {
    let value = Value::Map(vec![
        ("passed".into(), Value::Bool(verdict.passed)),
        (
            "failures".into(),
            Value::List(verdict.failures.iter().map(|f| Value::Str(f.clone())).collect()),
        ),
        ("assertions".into(), Value::Num(verdict.assertions as f64)),
        ("groups".into(), Value::Num(verdict.groups as f64)),
    ]);
    json::to_string(&value).into_bytes()
}

fn decode_verdict(bytes: &[u8]) -> Result<Verdict, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "verdict field is not utf-8")?;
    let value = json::parse(text).map_err(|e| format!("verdict field: {e}"))?;
    let failures = value
        .get_list("failures")
        .unwrap_or(&[])
        .iter()
        .map(|f| f.as_str().map(str::to_string).ok_or("bad verdict failure"))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Verdict {
        passed: value.get_bool("passed").ok_or("verdict missing 'passed'")?,
        failures,
        assertions: value.get_num("assertions").ok_or("verdict missing 'assertions'")? as usize,
        groups: value.get_num("groups").ok_or("verdict missing 'groups'")? as usize,
    })
}

fn encode_artifacts(set: &ArtifactSet) -> Vec<u8> {
    let mut out = Vec::new();
    for (path, bytes) in set.staged() {
        out.extend_from_slice(&(path.len() as u64).to_le_bytes());
        out.extend_from_slice(path.as_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(bytes);
    }
    out
}

fn decode_artifacts(mut bytes: &[u8]) -> Result<ArtifactSet, String> {
    fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Result<&'a [u8], String> {
        if n > bytes.len() {
            return Err("truncated artifacts field".into());
        }
        let (head, rest) = bytes.split_at(n);
        *bytes = rest;
        Ok(head)
    }
    let mut set = ArtifactSet::default();
    while !bytes.is_empty() {
        let path_len = u64::from_le_bytes(take(&mut bytes, 8)?.try_into().unwrap()) as usize;
        let path =
            String::from_utf8(take(&mut bytes, path_len)?.to_vec()).map_err(|_| "bad artifact path")?;
        let data_len = u64::from_le_bytes(take(&mut bytes, 8)?.try_into().unwrap()) as usize;
        set.stage(path, take(&mut bytes, data_len)?.to_vec());
    }
    Ok(set)
}

fn encode_commit(commit: &Option<ObjectId>) -> Vec<u8> {
    match commit {
        None => vec![OPT_NONE],
        Some(id) => {
            let mut out = vec![OPT_SOME];
            out.extend_from_slice(&id.0);
            out
        }
    }
}

/// Serialize every context field a stage can change, in a fixed order
/// (`vars` first: schedule replay re-derives from the restored vars).
pub(crate) fn snapshot_ctx(ctx: &RunContext) -> Vec<(String, Vec<u8>)> {
    vec![
        ("vars".into(), json::to_string(&ctx.vars).into_bytes()),
        ("schedule".into(), vec![ctx.schedule.is_some() as u8]),
        ("gate".into(), opt_bytes(ctx.gate.as_ref().map(encode_gate))),
        ("orchestration".into(), ctx.orchestration.clone().into_bytes()),
        (
            "results".into(),
            opt_bytes(ctx.results.as_ref().map(|t| t.to_csv().into_bytes())),
        ),
        ("metrics".into(), json::to_string(&ctx.metrics).into_bytes()),
        ("verdict".into(), opt_bytes(ctx.verdict.as_ref().map(encode_verdict))),
        ("artifacts".into(), encode_artifacts(&ctx.artifacts)),
        ("commit".into(), encode_commit(&ctx.commit)),
    ]
}

fn apply_field(
    ctx: &mut RunContext,
    name: &str,
    value: &[u8],
    replayed_commit: Option<ObjectId>,
) -> Result<(), String> {
    let as_text = |bytes: &[u8]| -> Result<String, String> {
        String::from_utf8(bytes.to_vec()).map_err(|_| format!("memo field '{name}' is not utf-8"))
    };
    match name {
        "vars" => ctx.vars = json::parse(&as_text(value)?).map_err(|e| e.to_string())?,
        "schedule" => {
            ctx.schedule = match value {
                [0] => None,
                [1] => Some(
                    FaultSchedule::from_vars(&ctx.vars)?
                        .ok_or("memo replay: vars carry no fault schedule")?,
                ),
                _ => return Err("bad schedule marker".into()),
            }
        }
        "gate" => ctx.gate = opt_body(value)?.map(decode_gate).transpose()?,
        "orchestration" => ctx.orchestration = as_text(value)?,
        "results" => {
            ctx.results = opt_body(value)?
                .map(|b| Table::from_csv(&String::from_utf8_lossy(b)).map_err(|e| e.to_string()))
                .transpose()?
        }
        "metrics" => ctx.metrics = json::parse(&as_text(value)?).map_err(|e| e.to_string())?,
        "verdict" => ctx.verdict = opt_body(value)?.map(decode_verdict).transpose()?,
        "artifacts" => ctx.artifacts = decode_artifacts(value)?,
        "commit" => {
            ctx.commit = match value {
                [b] if *b == OPT_NONE => None,
                [b] if *b == COMMIT_REPLAYED => replayed_commit,
                _ => return Err("bad commit marker in memo entry".into()),
            }
        }
        other => return Err(format!("unknown memo field '{other}'")),
    }
    Ok(())
}

// --------------------------------------------------- capture / replay

/// Reduce an executed stage to a cacheable entry. `Err` means the
/// effects cannot be represented (the stage still ran correctly; the
/// session is poisoned so nothing downstream hits a stale chain).
fn capture_entry(
    repo: &PopperRepo,
    ctx: &RunContext,
    pre: &[(String, Vec<u8>)],
    pre_head: Option<ObjectId>,
    control: StageControl,
    duration_us: u64,
) -> Result<StageEntry, String> {
    // Commits the stage made, oldest first.
    let mut commits = Vec::new();
    let mut last_new_commit = None;
    let post_head = repo.vcs.head_commit();
    if post_head != pre_head {
        let head = post_head.ok_or("stage unset HEAD")?;
        let base = pre_head.ok_or("stage created the root commit")?;
        let log = repo.vcs.log(head).map_err(|e| e.to_string())?;
        let mut newer = Vec::new();
        let mut found_base = false;
        for (id, commit) in log {
            if id == base {
                found_base = true;
                break;
            }
            newer.push((id, commit));
        }
        if !found_base {
            return Err("stage rewrote history".into());
        }
        newer.reverse();
        for (id, commit) in newer {
            if commit.parents.len() != 1 {
                return Err("stage made a merge commit".into());
            }
            let parent = commit.parents[0];
            let mut writes = Vec::new();
            for change in repo.vcs.changes(parent, id).map_err(|e| e.to_string())? {
                match change {
                    Change::Removed(path) => {
                        return Err(format!("stage removed '{path}'"));
                    }
                    Change::Added(path) | Change::Modified(path) => {
                        let bytes = repo
                            .vcs
                            .file_at(id, &path)
                            .map_err(|e| e.to_string())?
                            .ok_or("changed path missing from its commit")?;
                        writes.push((path, bytes));
                    }
                }
            }
            commits.push(ReplayCommit { message: commit.message, writes });
            last_new_commit = Some(id);
        }
    }

    let post = snapshot_ctx(ctx);
    let mut fields = Vec::new();
    for ((name, pre_value), (_, post_value)) in pre.iter().zip(&post) {
        if pre_value == post_value {
            continue;
        }
        if name == "commit" {
            // A commit id is clock-dependent, so the entry stores *which*
            // commit to point at (the one replay lands), not the id.
            match post_value.split_first() {
                Some((&OPT_NONE, [])) => fields.push((name.clone(), vec![OPT_NONE])),
                Some((&OPT_SOME, id_bytes)) => {
                    let id = ObjectId(id_bytes.try_into().map_err(|_| "bad commit id length")?);
                    if Some(id) != last_new_commit {
                        return Err("stage set a commit it did not make".into());
                    }
                    fields.push((name.clone(), vec![COMMIT_REPLAYED]));
                }
                _ => return Err("bad commit encoding".into()),
            }
        } else {
            fields.push((name.clone(), post_value.clone()));
        }
    }
    Ok(StageEntry { stop: control == StageControl::Stop, duration_us, fields, commits })
}

/// Re-apply a recorded entry: land its commits (skipping any whose
/// bytes are already in the working tree — warm runs stay churn-free,
/// tampered artifacts are restored) and decode its field deltas.
fn replay_entry(
    repo: &mut PopperRepo,
    ctx: &mut RunContext,
    entry: &StageEntry,
) -> Result<StageControl, String> {
    let mut replayed_commit = None;
    for commit in &entry.commits {
        let unchanged = commit
            .writes
            .iter()
            .all(|(path, bytes)| repo.vcs.file_equals(path, bytes));
        if unchanged {
            continue;
        }
        for (path, bytes) in &commit.writes {
            repo.write(path, bytes.clone()).map_err(|e| e.to_string())?;
        }
        replayed_commit = Some(repo.commit(&commit.message).map_err(|e| e.to_string())?);
    }
    for (name, value) in &entry.fields {
        apply_field(ctx, name, value, replayed_commit)?;
    }
    Ok(if entry.stop { StageControl::Stop } else { StageControl::Continue })
}

/// Run one pipeline stage through the context's memo session (execute
/// directly when none is attached or it is poisoned).
pub(crate) fn execute_stage(
    repo: &mut PopperRepo,
    ctx: &mut RunContext,
    index: usize,
    stage: Stage<'_>,
) -> Result<StageControl, String> {
    if !ctx.memo.as_ref().map(MemoSession::active).unwrap_or(false) {
        return (stage.f)(repo, ctx);
    }
    let vars_json = json::to_string(&ctx.vars);
    let key = ctx
        .memo
        .as_ref()
        .expect("checked above")
        .stage_key(index, stage.name, &vars_json);

    if let Some(entry) = MemoTable::lookup(&repo.vcs, &key) {
        let control = replay_entry(repo, ctx, &entry)?;
        let session = ctx.memo.as_mut().expect("still attached");
        session.stats.hit(stage.name, entry.duration_us);
        session.advance(&entry);
        return Ok(control);
    }

    let pre = snapshot_ctx(ctx);
    let pre_head = repo.vcs.head_commit();
    let started = std::time::Instant::now();
    let control = (stage.f)(repo, ctx)?;
    let duration_us = started.elapsed().as_micros() as u64;
    let session_entry = capture_entry(repo, ctx, &pre, pre_head, control, duration_us);
    let session = ctx.memo.as_mut().expect("still attached");
    session.stats.miss(stage.name);
    match session_entry {
        Ok(entry) => {
            session.advance(&entry);
            MemoTable::store(&mut repo.vcs, &key, &entry)?;
        }
        Err(_unrecordable) => session.poison(),
    }
    Ok(control)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Pipeline;
    use crate::templates::find_template;

    fn seeded_repo(template: &str, name: &str) -> PopperRepo {
        let mut repo = PopperRepo::init("memo-test").unwrap();
        for (path, contents) in find_template(template).unwrap().files(name) {
            repo.write(&path, contents).unwrap();
        }
        repo.commit(&format!("add {template} {name}")).unwrap();
        repo
    }

    #[test]
    fn input_manifest_ignores_generated_artifacts() {
        let mut repo = seeded_repo("ceph-rados", "e");
        let before = lifecycle_session(&repo, "e", "run", &[]);
        repo.write("experiments/e/results.csv", "a\n1\n").unwrap();
        repo.write("experiments/e/datasets/baseline.csv", "b\n2\n").unwrap();
        repo.commit("generated artifacts land").unwrap();
        let after = lifecycle_session(&repo, "e", "run", &[]);
        assert_eq!(before.stage_key(0, "s", "{}"), after.stage_key(0, "s", "{}"));
        // …but editing a real input changes every key.
        repo.write("experiments/e/vars.pml", "runner: synthetic\nmodel:\n  seed: 9\n").unwrap();
        let edited = lifecycle_session(&repo, "e", "run", &[]);
        assert_ne!(before.stage_key(0, "s", "{}"), edited.stage_key(0, "s", "{}"));
    }

    #[test]
    fn mode_and_salt_namespace_the_cache() {
        let repo = seeded_repo("gassyfs", "g");
        let run = lifecycle_session(&repo, "g", "run", &[]);
        let chaos = lifecycle_session(&repo, "g", "chaos", &[]);
        assert_ne!(run.stage_key(0, "s", "{}"), chaos.stage_key(0, "s", "{}"));
        let salted = lifecycle_session(
            &repo,
            "g",
            "chaos",
            &[("seed".to_string(), "7".to_string())],
        );
        assert_ne!(chaos.stage_key(0, "s", "{}"), salted.stage_key(0, "s", "{}"));
    }

    #[test]
    fn gate_and_verdict_codecs_round_trip() {
        for gate in [
            GateOutcome::Proceed,
            GateOutcome::Blocked(vec![("cpu_score".into(), 1.0, 0.5, 0.5), ("ram".into(), 2.0, 1.0, 0.5)]),
        ] {
            assert_eq!(decode_gate(&encode_gate(&gate)).unwrap(), gate);
        }
        let verdict = Verdict {
            passed: false,
            failures: vec!["expect x > 1 failed".into()],
            assertions: 3,
            groups: 2,
        };
        assert_eq!(decode_verdict(&encode_verdict(&verdict)).unwrap(), verdict);
    }

    #[test]
    fn artifact_codec_round_trips() {
        let mut set = ArtifactSet::default();
        set.stage("experiments/e/results.csv", b"a,b\n1,2\n".to_vec());
        set.stage("experiments/e/figure.txt", vec![0u8, 255, 3]);
        let decoded = decode_artifacts(&encode_artifacts(&set)).unwrap();
        assert_eq!(decoded.staged(), set.staged());
        assert!(decode_artifacts(&encode_artifacts(&ArtifactSet::default())).unwrap().is_empty());
        assert!(decode_artifacts(&[1, 2, 3]).is_err());
    }

    #[test]
    fn capture_and_replay_round_trip_a_committing_stage() {
        let mut repo = seeded_repo("ceph-rados", "e");
        let mut ctx = RunContext::for_experiment(&repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "e", "run", &[]));
        let body = |repo: &mut PopperRepo, ctx: &mut RunContext| {
            ctx.orchestration = "did things".into();
            ctx.artifacts.stage("experiments/e/results.csv", "payload");
            ctx.commit = ctx
                .artifacts
                .commit_into(repo, "record out", crate::pipeline::CommitPolicy::Always)?;
            Ok(StageControl::Continue)
        };
        Pipeline::new("run e").stage("record", body).run(&mut repo, &mut ctx).unwrap();
        let cold_commit = ctx.commit.expect("cold run commits");
        let cold_stats = ctx.memo_stats().unwrap().clone();
        assert_eq!((cold_stats.hits(), cold_stats.misses()), (0, 1));

        // Warm: same pipeline, fresh context — the stage body panics if
        // it ever executes.
        let mut warm_ctx = RunContext::for_experiment(&repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "e", "run", &[]));
        Pipeline::new("run e")
            .stage("record", |_r: &mut PopperRepo, _c: &mut RunContext| {
                panic!("stage body must not execute on a hit")
            })
            .run(&mut repo, &mut warm_ctx)
            .unwrap();
        let stats = warm_ctx.memo_stats().unwrap();
        assert_eq!((stats.hits(), stats.misses()), (1, 0));
        assert_eq!(warm_ctx.orchestration, "did things");
        // Bytes unchanged ⇒ the replay skipped the commit and cleared
        // the commit field rather than inventing provenance.
        assert_eq!(repo.vcs.head_commit(), Some(cold_commit));
        assert_eq!(warm_ctx.commit, None);
        assert_eq!(repo.read("experiments/e/results.csv").as_deref(), Some("payload"));

        // Tamper with the artifact: replay restores the bytes and lands
        // a commit this time.
        repo.write("experiments/e/results.csv", "tampered").unwrap();
        repo.commit("tamper").unwrap();
        let mut restore_ctx = RunContext::for_experiment(&repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "e", "run", &[]));
        Pipeline::new("run e")
            .stage("record", |_r: &mut PopperRepo, _c: &mut RunContext| {
                panic!("stage body must not execute on a hit")
            })
            .run(&mut repo, &mut restore_ctx)
            .unwrap();
        assert_eq!(repo.read("experiments/e/results.csv").as_deref(), Some("payload"));
        assert_eq!(restore_ctx.commit, repo.vcs.head_commit());
    }

    #[test]
    fn unrecordable_effects_poison_the_session_instead_of_caching() {
        let mut repo = seeded_repo("ceph-rados", "e");
        repo.write("experiments/e/doomed.txt", "bytes").unwrap();
        repo.commit("add doomed file").unwrap();
        let mut ctx = RunContext::for_experiment(&repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "e", "run", &[]));
        let removal = |repo: &mut PopperRepo, _ctx: &mut RunContext| {
            assert!(repo.vcs.remove_file("experiments/e/doomed.txt"));
            repo.commit("remove doomed").map_err(|e| e.to_string())?;
            Ok(StageControl::Continue)
        };
        let executed = std::cell::Cell::new(false);
        Pipeline::new("run e")
            .stage("remove", removal)
            .stage("after", |_r, _c| {
                executed.set(true);
                Ok(StageControl::Continue)
            })
            .run(&mut repo, &mut ctx)
            .unwrap();
        assert!(executed.get());
        let stats = ctx.memo_stats().unwrap();
        assert_eq!((stats.hits(), stats.misses()), (0, 2));

        // Nothing downstream of the unrecordable stage may ever hit.
        let ran_again = std::cell::Cell::new(0);
        let mut ctx2 = RunContext::for_experiment(&repo, "e")
            .unwrap()
            .with_memo(lifecycle_session(&repo, "e", "run", &[]));
        Pipeline::new("run e")
            .stage("noop", |_r, _c| {
                ran_again.set(ran_again.get() + 1);
                Ok(StageControl::Continue)
            })
            .run(&mut repo, &mut ctx2)
            .unwrap();
        assert_eq!(ran_again.get(), 1, "fresh input state, fresh keys: stage executes");
    }
}
