//! The playbook executor.
//!
//! Plays run in order; within a play, each task runs across the selected
//! hosts in parallel (one `std::thread::scope` thread per host), then the
//! executor synchronizes before the next task — Ansible's "linear"
//! strategy. A host that fails a task skips that play's remaining tasks
//! but other hosts continue; the playbook as a whole fails if any host
//! failed.

use crate::inventory::Inventory;
use crate::modules::{run_module, HostState};
use crate::playbook::{eval_when, template, Playbook};
use popper_format::sync::lock;
use popper_format::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Per-(host, task) outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskStatus {
    /// Ran, no changes.
    Ok,
    /// Ran and changed host state.
    Changed,
    /// Guard was false.
    Skipped,
    /// Module failed with this message.
    Failed(String),
    /// Not attempted because an earlier task failed on this host.
    Unreachable,
}

impl TaskStatus {
    /// True for `Failed`.
    pub fn is_failed(&self) -> bool {
        matches!(self, TaskStatus::Failed(_))
    }
}

/// The report for one host.
#[derive(Debug, Clone, Default)]
pub struct HostReport {
    /// `(play name, task name, status)` in execution order.
    pub entries: Vec<(String, String, TaskStatus)>,
}

impl HostReport {
    /// Count entries with a given predicate.
    fn count(&self, f: impl Fn(&TaskStatus) -> bool) -> usize {
        self.entries.iter().filter(|(_, _, s)| f(s)).count()
    }
}

/// The full playbook run report.
#[derive(Debug, Default)]
pub struct PlaybookReport {
    /// Per-host reports.
    pub hosts: BTreeMap<String, HostReport>,
    /// Final host states (facts, files, packages, logs).
    pub states: BTreeMap<String, HostState>,
    /// Files fetched back to the controller.
    pub controller_files: BTreeMap<String, Vec<u8>>,
}

impl PlaybookReport {
    /// True when no host failed any task.
    pub fn success(&self) -> bool {
        self.hosts.values().all(|h| h.count(TaskStatus::is_failed) == 0)
    }

    /// `ansible-playbook`-style recap.
    pub fn recap(&self) -> String {
        let mut out = String::from("PLAY RECAP\n");
        for (host, report) in &self.hosts {
            out.push_str(&format!(
                "{host:<16} ok={} changed={} skipped={} failed={} unreachable={}\n",
                report.count(|s| matches!(s, TaskStatus::Ok)),
                report.count(|s| matches!(s, TaskStatus::Changed)),
                report.count(|s| matches!(s, TaskStatus::Skipped)),
                report.count(TaskStatus::is_failed),
                report.count(|s| matches!(s, TaskStatus::Unreachable)),
            ));
        }
        out
    }
}

impl fmt::Display for PlaybookReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.recap())
    }
}

/// Run `playbook` against `inventory`. `initial_states` seeds per-host
/// state (facts such as platform characteristics); hosts not present
/// start empty. `controller_files` is the control node's file area
/// (experiment scripts for `copy`, destination for `fetch`). `tracer`
/// (wall clock, or [`popper_trace::Tracer::disabled`]) records one span
/// per play on the `orchestra/controller` track and one span per
/// `(task, host)` on that host's thread (`orchestra/<host>` tracks).
pub fn run_playbook(
    playbook: &Playbook,
    inventory: &Inventory,
    mut initial_states: BTreeMap<String, HostState>,
    controller_files: BTreeMap<String, Vec<u8>>,
    tracer: popper_trace::Tracer,
) -> PlaybookReport {
    let mut report = PlaybookReport { controller_files, ..Default::default() };

    // Materialize state for every inventory host.
    for host in inventory.hosts() {
        let mut state = initial_states.remove(&host.name).unwrap_or_default();
        // Standard facts.
        state.facts.insert("hostname".into(), Value::Str(host.name.clone()));
        state
            .facts
            .insert("groups".into(), Value::List(host.groups.iter().map(|g| Value::Str(g.clone())).collect()));
        // Inventory vars become host vars.
        if let Some(entries) = host.vars.as_map() {
            for (k, v) in entries {
                state.vars.insert(k.clone(), v.clone());
            }
        }
        report.states.insert(host.name.clone(), state);
        report.hosts.insert(host.name.clone(), HostReport::default());
    }

    for play in &playbook.plays {
        let _play_span = tracer.span("orchestra", "orchestra/controller", format!("play {}", play.name));
        let selected: Vec<String> = inventory.select(&play.hosts).iter().map(|h| h.name.clone()).collect();
        let mut dead: BTreeMap<String, bool> = selected.iter().map(|h| (h.clone(), false)).collect();

        for task in &play.tasks {
            // One slot per selected host; threads fill them in parallel.
            let controller = Mutex::new(std::mem::take(&mut report.controller_files));
            let mut results: Vec<OnceLock<(TaskStatus, HostState)>> =
                selected.iter().map(|_| OnceLock::new()).collect();

            std::thread::scope(|scope| {
                for (i, host_name) in selected.iter().enumerate() {
                    if dead[host_name] {
                        continue;
                    }
                    let mut state = report.states.get(host_name).cloned().expect("state exists");
                    let slot = &results[i];
                    let controller = &controller;
                    let tracer = tracer.clone();
                    scope.spawn(move || {
                        let _task_span =
                            tracer.span("orchestra", format!("orchestra/{host_name}"), &task.name);
                        let status =
                            run_task_on_host(task, host_name, &mut state, controller, &tracer);
                        slot.get_or_init(|| (status, state));
                    });
                }
            });

            report.controller_files = controller.into_inner().unwrap_or_else(PoisonError::into_inner);
            for (i, host_name) in selected.iter().enumerate() {
                let host_report = report.hosts.get_mut(host_name).expect("report exists");
                if dead[host_name] {
                    host_report.entries.push((
                        play.name.clone(),
                        task.name.clone(),
                        TaskStatus::Unreachable,
                    ));
                    continue;
                }
                let (status, state) = results[i].take().expect("slot filled");
                if status.is_failed() {
                    dead.insert(host_name.clone(), true);
                }
                report.states.insert(host_name.clone(), state);
                host_report.entries.push((play.name.clone(), task.name.clone(), status));
            }
        }
    }
    report
}

/// Run one task on one host, retrying failures up to the task's
/// `max_attempts` (the host-unreachable resilience knob). Each retry is
/// an instant on the host's trace track; the final failure message
/// carries the attempt count.
fn run_task_on_host(
    task: &crate::playbook::Task,
    host_name: &str,
    state: &mut HostState,
    controller: &Mutex<BTreeMap<String, Vec<u8>>>,
    tracer: &popper_trace::Tracer,
) -> TaskStatus {
    let attempts = task.max_attempts.max(1);
    let mut status = run_task_attempt(task, state, controller);
    let mut made = 1;
    while status.is_failed() && made < attempts {
        made += 1;
        tracer.instant(
            "chaos",
            format!("orchestra/{host_name}"),
            format!("retry '{}' (attempt {made}/{attempts}, after {}ms)", task.name, task.retry_delay_ms),
        );
        status = run_task_attempt(task, state, controller);
    }
    match status {
        TaskStatus::Failed(msg) if attempts > 1 => {
            TaskStatus::Failed(format!("{msg} (after {attempts} attempts)"))
        }
        other => other,
    }
}

fn run_task_attempt(
    task: &crate::playbook::Task,
    state: &mut HostState,
    controller: &Mutex<BTreeMap<String, Vec<u8>>>,
) -> TaskStatus {
    // Variable lookup: vars shadow facts.
    let lookup = |name: &str| -> Option<Value> {
        state.vars.get(name).or_else(|| state.facts.get(name)).cloned()
    };
    if let Some(when) = &task.when {
        match eval_when(when, &lookup) {
            Ok(false) => return TaskStatus::Skipped,
            Ok(true) => {}
            Err(e) => return TaskStatus::Failed(e),
        }
    }
    // `with_items` expands the task once per item with `item` bound;
    // a task without it runs once with no binding.
    let items: Vec<Option<Value>> = match &task.with_items {
        Some(list) => list.iter().cloned().map(Some).collect(),
        None => vec![None],
    };
    let mut any_changed = false;
    let mut outputs: Vec<Value> = Vec::with_capacity(items.len());
    for item in items {
        let lookup_item = |name: &str| -> Option<Value> {
            if name == "item" {
                return item.clone();
            }
            state.vars.get(name).or_else(|| state.facts.get(name)).cloned()
        };
        let args = match template(&task.args, &lookup_item) {
            Ok(a) => a,
            Err(e) => return TaskStatus::Failed(e),
        };
        // Modules need &mut controller map; take the lock for the module
        // duration (fetch/copy are the only users and are short).
        let mut ctl = lock(controller);
        match run_module(&task.module, &args, state, &mut ctl) {
            Ok(result) => {
                any_changed |= result.changed;
                outputs.push(result.output);
            }
            Err(e) => return TaskStatus::Failed(e),
        }
    }
    if let Some(reg) = &task.register {
        let value = if task.with_items.is_some() {
            Value::List(outputs)
        } else {
            outputs.pop().unwrap_or(Value::Null)
        };
        state.vars.insert(reg.clone(), value);
    }
    if any_changed {
        TaskStatus::Changed
    } else {
        TaskStatus::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::playbook::Playbook;
    use popper_trace::Tracer;

    fn inventory() -> Inventory {
        let mut inv = Inventory::new();
        inv.add_cluster("node", 4, &["gassyfs"]);
        inv.add(crate::inventory::Host {
            name: "head0".into(),
            groups: vec!["head".into(), "gassyfs".into()],
            vars: {
                let mut m = Value::empty_map();
                m.insert("role", Value::from("coordinator"));
                m
            },
        });
        inv
    }

    const PLAYBOOK: &str = "\
- name: provision
  hosts: gassyfs
  tasks:
    - name: install gassyfs
      package: {name: gassyfs, version: \"2.1\"}
    - name: drop config
      copy: {content: \"nodes: 5\", dest: etc/gassyfs.conf}
    - name: start daemon
      service: {name: gassyfs-daemon, state: started}
    - name: coordinator marker
      command: init-coordinator
      when: role == coordinator
- name: benchmark
  hosts: head
  tasks:
    - name: run benchmark
      command: gassyfs-bench --workload {{ workload }}
      register: bench_cmd
    - name: record result
      copy: {content: \"time,42\", dest: results.csv}
    - name: fetch results
      fetch: {src: results.csv, dest: collected/results.csv}
";

    fn run_sample() -> PlaybookReport {
        let pb = Playbook::from_pml(PLAYBOOK).unwrap();
        let inv = inventory();
        let mut initial = BTreeMap::new();
        let mut head = HostState::default();
        head.vars.insert("workload".into(), Value::Str("git".into()));
        initial.insert("head0".to_string(), head);
        run_playbook(&pb, &inv, initial, BTreeMap::new(), Tracer::disabled())
    }

    #[test]
    fn end_to_end_playbook() {
        let report = run_sample();
        assert!(report.success(), "{}", report.recap());
        // All 5 gassyfs hosts got the package and service.
        for node in ["node0", "node1", "node2", "node3", "head0"] {
            let st = &report.states[node];
            assert_eq!(st.packages["gassyfs"], "2.1");
            assert!(st.services["gassyfs-daemon"]);
            assert_eq!(st.files["etc/gassyfs.conf"], b"nodes: 5");
        }
        // Only the coordinator ran the marker command.
        assert_eq!(report.states["head0"].command_log[0], "init-coordinator");
        assert!(report.states["node0"].command_log.is_empty());
        // Fetch pulled results back to the controller.
        assert_eq!(report.controller_files["collected/results.csv"], b"time,42");
        // Templating resolved the registered variable.
        assert_eq!(
            report.states["head0"].vars["bench_cmd"].as_str(),
            Some("gassyfs-bench --workload git")
        );
    }

    #[test]
    fn recap_shape() {
        let report = run_sample();
        let recap = report.recap();
        assert!(recap.contains("head0"));
        assert!(recap.contains("failed=0"));
        // node0 in play 1: 3 changed + 1 skipped.
        let node0 = &report.hosts["node0"];
        assert_eq!(node0.count(|s| matches!(s, TaskStatus::Changed)), 3);
        assert_eq!(node0.count(|s| matches!(s, TaskStatus::Skipped)), 1);
    }

    #[test]
    fn failure_stops_that_host_only() {
        let pb = Playbook::from_pml(
            "\
- name: p
  hosts: all
  tasks:
    - name: only-head-has-this
      fetch: {src: special.txt, dest: out.txt}
    - name: after
      command: echo done
",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("node", 2, &["g"]);
        let mut initial = BTreeMap::new();
        let mut with_file = HostState::default();
        with_file.files.insert("special.txt".into(), b"x".to_vec());
        initial.insert("node0".to_string(), with_file);
        let report = run_playbook(&pb, &inv, initial, BTreeMap::new(), Tracer::disabled());
        assert!(!report.success());
        // node0 completed both tasks; node1 failed the first and was
        // unreachable for the second.
        assert_eq!(report.hosts["node0"].entries[1].2, TaskStatus::Changed);
        assert!(report.hosts["node1"].entries[0].2.is_failed());
        assert_eq!(report.hosts["node1"].entries[1].2, TaskStatus::Unreachable);
        assert_eq!(report.states["node0"].command_log, vec!["echo done"]);
        assert!(report.states["node1"].command_log.is_empty());
    }

    #[test]
    fn retries_exhaust_and_report_attempt_count() {
        let pb = Playbook::from_pml(
            "\
- name: p
  hosts: all
  tasks:
    - name: fetch the missing file
      fetch: {src: ghost.txt, dest: out.txt}
      max_attempts: 3
      retry_delay: 10
    - name: unretried failure
      fetch: {src: ghost.txt, dest: out.txt}
",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("n", 1, &[]);
        let report = run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
        assert!(!report.success());
        match &report.hosts["n0"].entries[0].2 {
            TaskStatus::Failed(msg) => {
                assert!(msg.contains("after 3 attempts"), "{msg}");
            }
            other => panic!("{other:?}"),
        }
        // The host is dead after the first task; no second attempt count.
        assert_eq!(report.hosts["n0"].entries[1].2, TaskStatus::Unreachable);
    }

    #[test]
    fn retries_emit_chaos_instants_on_the_host_track() {
        let pb = Playbook::from_pml(
            "- name: p\n  hosts: all\n  tasks:\n    - name: t\n      fetch: {src: nope, dest: d}\n      max_attempts: 2\n",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("n", 1, &[]);
        let sink = popper_trace::TraceSink::new();
        let tracer = sink.tracer(popper_trace::ClockDomain::Wall);
        run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), tracer);
        let events = sink.drain();
        assert!(
            events.iter().any(|e| e.category == "chaos" && e.name.contains("retry 't'")),
            "{events:?}"
        );
    }

    #[test]
    fn undefined_template_variable_fails_task() {
        let pb = Playbook::from_pml(
            "- name: p\n  hosts: all\n  tasks:\n    - name: t\n      command: run {{ missing }}\n",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("n", 1, &[]);
        let report = run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
        assert!(!report.success());
        match &report.hosts["n0"].entries[0].2 {
            TaskStatus::Failed(msg) => assert!(msg.contains("undefined variable")),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn facts_available_to_templates() {
        let pb = Playbook::from_pml(
            "- name: p\n  hosts: all\n  tasks:\n    - name: t\n      command: hello-from-{{ hostname }}\n",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("node", 2, &[]);
        let report = run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
        assert!(report.success());
        assert_eq!(report.states["node1"].command_log, vec!["hello-from-node1"]);
    }

    #[test]
    fn parallel_execution_is_deterministic_in_outcome() {
        // Run the same playbook many times; the final states must be
        // identical despite thread scheduling.
        let first = run_sample();
        for _ in 0..5 {
            let again = run_sample();
            assert_eq!(first.states, again.states);
        }
    }
}

#[cfg(test)]
mod with_items_tests {
    use super::*;
    use crate::playbook::Playbook;
    use popper_trace::Tracer;

    #[test]
    fn with_items_expands_and_registers_list() {
        let pb = Playbook::from_pml(
            "\
- name: p
  hosts: all
  tasks:
    - name: install the stack
      package: {name: \"{{ item }}\"}
      with_items: [gassyfs, fuse, gasnet]
      register: installed
    - name: echo each
      command: provision-{{ item }}
      with_items: [a, b]
",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("n", 1, &[]);
        let report = run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
        assert!(report.success(), "{}", report.recap());
        let st = &report.states["n0"];
        for pkg in ["gassyfs", "fuse", "gasnet"] {
            assert_eq!(st.packages[pkg], "latest");
        }
        // Registered output is the list of per-item outputs.
        let reg = st.vars["installed"].as_list().unwrap();
        assert_eq!(reg.len(), 3);
        assert_eq!(st.command_log, vec!["provision-a", "provision-b"]);
    }

    #[test]
    fn with_items_idempotence_marks_ok_on_second_run() {
        let pb = Playbook::from_pml(
            "- name: p\n  hosts: all\n  tasks:\n    - name: t\n      package: {name: \"{{ item }}\"}\n      with_items: [x, y]\n",
        )
        .unwrap();
        let mut inv = Inventory::new();
        inv.add_cluster("n", 1, &[]);
        let first = run_playbook(&pb, &inv, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
        assert_eq!(first.hosts["n0"].entries[0].2, TaskStatus::Changed);
        // Re-run with the resulting state: nothing changes.
        let second = run_playbook(&pb, &inv, first.states, BTreeMap::new(), Tracer::disabled());
        assert_eq!(second.hosts["n0"].entries[0].2, TaskStatus::Ok);
    }

    #[test]
    fn with_items_must_be_a_list() {
        let err = Playbook::from_pml(
            "- name: p\n  hosts: all\n  tasks:\n    - name: t\n      command: x\n      with_items: notalist\n",
        )
        .unwrap_err();
        assert!(err.contains("with_items"));
    }
}
