//! Cross-substrate integration: the DevOps toolkit composed the way a
//! Popperized experiment composes it — container image for packaging,
//! playbook for orchestration, datapackage for data, VCS for
//! everything, metrics + Aver for validation.

use popper::container::{build_image, BuildCache, Container, ImageRegistry, Popperfile, ProgramRegistry};
use popper::monitor::MetricStore;
use popper::orchestra::{run_playbook, Inventory, Playbook};
use popper::sim::Nanos;
use popper::store::Registry;
use popper::trace::Tracer;
use popper::vcs::Repository;
use std::collections::BTreeMap;

#[test]
fn experiment_artifacts_flow_through_all_substrates() {
    // 1. The experiment's files live in version control.
    let mut vcs = Repository::init();
    vcs.write_file("experiments/demo/run.sh", "#!/bin/sh\ndemo-bench\n").unwrap();
    vcs.write_file("experiments/demo/vars.pml", "nodes: 3\n").unwrap();
    vcs.stage(".").unwrap();
    let commit = vcs.commit("author", "experiment v1").unwrap();

    // 2. Packaging: the experiment is baked into a container image,
    //    labeled with its provenance (the commit id).
    let popperfile = Popperfile::parse(&format!(
        "FROM scratch\nLABEL org.popper.commit {}\nCOPY run.sh exp/run.sh\nRUN install-pkg demo-bench\nENTRYPOINT cat exp/run.sh\n",
        commit.to_hex()
    ))
    .unwrap();
    let mut context = BTreeMap::new();
    context.insert("run.sh".to_string(), vcs.read_file("experiments/demo/run.sh").unwrap().to_vec());
    let mut images = ImageRegistry::new();
    let programs = ProgramRegistry::with_builtins();
    let mut cache = BuildCache::new();
    let image =
        build_image(&popperfile, &context, &mut images, &programs, &mut cache, "demo", "v1").unwrap();
    assert_eq!(image.config.labels["org.popper.commit"], commit.to_hex());

    // 3. Data: the input dataset is referenced through a datapackage.
    let mut data = Registry::new();
    data.publish("demo-input", "1.0", "input", &[("d", "input.csv", b"a,b\n1,2\n")]).unwrap();
    let installed = data.install("demo-input").unwrap();
    assert_eq!(installed[0].1, b"a,b\n1,2\n");

    // 4. Orchestration: provision three nodes and run the container's
    //    entry point everywhere.
    let playbook = Playbook::from_pml(
        "- name: run demo\n  hosts: bench\n  tasks:\n    - name: install image\n      package: {name: demo, version: v1}\n    - name: execute\n      command: docker run demo:v1\n",
    )
    .unwrap();
    let mut inventory = Inventory::new();
    inventory.add_cluster("node", 3, &["bench"]);
    let report = run_playbook(&playbook, &inventory, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
    assert!(report.success(), "{}", report.recap());
    for n in 0..3 {
        assert_eq!(report.states[&format!("node{n}")].command_log, vec!["docker run demo:v1"]);
    }

    // 5. The container actually runs and reproduces the checked-in
    //    script byte for byte.
    let mut c = Container::create(&images, "demo:v1").unwrap();
    let st = c.run(&programs, &[]).unwrap();
    assert!(st.success());
    assert_eq!(st.stdout.as_bytes(), vcs.read_file("experiments/demo/run.sh").unwrap());

    // 6. Metrics + validation close the loop.
    let metrics = MetricStore::new();
    for rep in 0..5u64 {
        metrics.record("runtime_s", "demo", Nanos::from_secs(rep), 10.0 + rep as f64 * 0.01);
    }
    let verdict = popper::aver::check(
        "when metric = runtime_s expect constant(value, 2) and count(value) = 5",
        &metrics.to_table(),
    )
    .unwrap();
    assert!(verdict.passed, "{:?}", verdict.failures);
}

#[test]
fn container_rebuild_from_history_is_bit_identical() {
    // Immutability + content addressing: rebuilding the image from the
    // same commit yields the same layer ids — the substrate behind
    // "results can be reproduced by an identifier".
    let mut vcs = Repository::init();
    vcs.write_file("run.sh", "#!/bin/sh\nexact bytes\n").unwrap();
    vcs.stage(".").unwrap();
    let commit = vcs.commit("a", "v1").unwrap();

    let build_from_commit = |vcs: &Repository| {
        let snapshot = vcs.snapshot_of(commit).unwrap();
        let mut context = BTreeMap::new();
        context.insert("run.sh".to_string(), snapshot["run.sh"].clone());
        let popperfile =
            Popperfile::parse("FROM scratch\nCOPY run.sh exp/run.sh\nRUN install-pkg bench\n").unwrap();
        let mut images = ImageRegistry::new();
        let mut cache = BuildCache::new();
        build_image(
            &popperfile,
            &context,
            &mut images,
            &ProgramRegistry::with_builtins(),
            &mut cache,
            "x",
            "v",
        )
        .unwrap()
        .layers
    };
    // Mutate the worktree after committing — the rebuild reads history,
    // so the image is unaffected.
    let layers1 = build_from_commit(&vcs);
    vcs.write_file("run.sh", "#!/bin/sh\ndrifted\n").unwrap();
    let layers2 = build_from_commit(&vcs);
    assert_eq!(layers1, layers2);
}
