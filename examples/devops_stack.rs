//! A tour of the DevOps substrates (§Toolkit): build a container image
//! from a Popperfile, push it to a registry, provision a cluster with a
//! playbook, capture metrics, and gate on a baseline fingerprint — the
//! machinery Popper composes.
//!
//! ```text
//! cargo run --example devops_stack
//! ```

use popper::container::{build_image, BuildCache, Container, ImageRegistry, Popperfile, ProgramRegistry};
use popper::monitor::{Baseline, BaselineGate, MetricStore};
use popper::orchestra::{run_playbook, Inventory, Playbook};
use popper::sim::{platforms, Nanos};
use popper::trace::Tracer;
use std::collections::BTreeMap;

fn main() -> Result<(), String> {
    // --- package management: docker-slot -----------------------------
    let popperfile = Popperfile::parse(
        "FROM scratch\n\
         LABEL org.popper.experiment gassyfs\n\
         ENV GASNET_NODES 4\n\
         COPY run.sh experiments/gassyfs/run.sh\n\
         RUN install-pkg gassyfs 2.1\n\
         ENTRYPOINT cat experiments/gassyfs/run.sh\n",
    )
    .map_err(|e| e.to_string())?;
    let mut context = BTreeMap::new();
    context.insert("run.sh".to_string(), b"#!/bin/sh\ngassyfs-bench --all\n".to_vec());
    let mut local = ImageRegistry::new();
    let programs = ProgramRegistry::with_builtins();
    let mut cache = BuildCache::new();
    let image = build_image(&popperfile, &context, &mut local, &programs, &mut cache, "popper/gassyfs", "v1")
        .map_err(|e| e.to_string())?;
    println!("built image {} with {} layer(s)", image.reference(), image.layers.len());

    // Push to the hub; rebuild is fully cached.
    let mut hub = ImageRegistry::new();
    let moved = local.push_to("popper/gassyfs:v1", &mut hub).map_err(|e| e.to_string())?;
    println!("pushed {moved} layer blob(s) to the hub");
    build_image(&popperfile, &context, &mut local, &programs, &mut cache, "popper/gassyfs", "v2")
        .map_err(|e| e.to_string())?;
    println!("rebuild: {} cache hit(s), {} miss(es)", cache.hits(), cache.misses());

    // Run a container; prove immutability.
    let mut c = Container::create(&hub, "popper/gassyfs:v1").map_err(|e| e.to_string())?;
    let st = c.run(&programs, &[]).map_err(|e| e.to_string())?;
    println!("container entrypoint output: {}", st.stdout.trim());
    c.run(&programs, &["install-pkg", "sneaky-tool"]).map_err(|e| e.to_string())?;
    let fresh = Container::create(&hub, "popper/gassyfs:v1").map_err(|e| e.to_string())?;
    println!(
        "immutable infrastructure: relaunched container has sneaky-tool? {}",
        fresh.fs.exists("usr/bin/sneaky-tool")
    );

    // --- orchestration: ansible-slot ----------------------------------
    let playbook = Playbook::from_pml(
        "- name: provision gassyfs cluster\n\
         \x20 hosts: gassyfs\n\
         \x20 tasks:\n\
         \x20   - name: install gassyfs\n\
         \x20     package: {name: gassyfs, version: \"2.1\"}\n\
         \x20   - name: start daemon\n\
         \x20     service: {name: gassyfs-daemon, state: started}\n\
         \x20   - name: run benchmark\n\
         \x20     command: gassyfs-bench --host {{ hostname }}\n",
    )?;
    let mut inventory = Inventory::new();
    inventory.add_cluster("node", 4, &["gassyfs"]);
    let report = run_playbook(&playbook, &inventory, BTreeMap::new(), BTreeMap::new(), Tracer::disabled());
    println!("\n{}", report.recap());

    // --- monitoring + baseline gate ------------------------------------
    let metrics = MetricStore::new();
    for (i, host) in ["node0", "node1", "node2", "node3"].iter().enumerate() {
        metrics.record("daemon_start_ms", host, Nanos::from_millis(i as u64), 12.0 + i as f64);
    }
    println!("captured {} metric samples:\n{}", metrics.len(), metrics.to_table().to_pretty());

    let stored = Baseline::of_platform(&platforms::cloudlab_c220g());
    let gate = BaselineGate::new(stored, 0.25);
    println!("re-run on the same platform:  {}", gate.check(&Baseline::of_platform(&platforms::cloudlab_c220g())));
    println!("re-run on a 10y-old machine:\n{}", gate.check(&Baseline::of_platform(&platforms::xeon_2006())));
    Ok(())
}
