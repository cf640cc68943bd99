//! Quickstart: the Listing-2 session of the paper, in-process.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Initializes a Popper repository, lists the curated templates, adds
//! the `torpor` experiment, runs it end to end (baseline gate →
//! orchestration → execution → recorded results → Aver validation) and
//! finishes with the compliance check and the CI pipeline.

use popper::cli::runners::full_engine;
use popper::core::{check::check_compliance, templates, PopperRepo};
use std::sync::{Arc, Mutex};

fn main() -> Result<(), String> {
    // $ popper init
    let mut repo = PopperRepo::init("quickstart <qs@example.org>").map_err(|e| e.to_string())?;
    println!("-- Initialized Popper repo\n");

    // $ popper experiment list
    println!("-- available templates ---------------");
    for t in templates::experiment_templates() {
        println!("{:<22} {}", t.name, t.description);
    }
    println!();

    // $ popper add torpor myexp
    let template = templates::find_template("torpor").expect("curated template");
    for (path, contents) in template.files("myexp") {
        repo.write(&path, contents).map_err(|e| e.to_string())?;
    }
    repo.commit("popper add torpor myexp").map_err(|e| e.to_string())?;
    println!("-- added experiment 'myexp' from template 'torpor'\n");

    // $ popper run myexp
    let engine = full_engine();
    let report = engine.run(&mut repo, "myexp")?;
    println!("{report}\n");
    println!("results.csv (first lines):");
    let csv = repo.read("experiments/myexp/results.csv").expect("recorded");
    for line in csv.lines().take(6) {
        println!("  {line}");
    }
    println!();

    // $ popper check
    let violations = check_compliance(&repo);
    println!("-- compliance: {} violation(s)", violations.len());
    for v in &violations {
        println!("   {v}");
    }
    println!();

    // $ popper ci
    let shared = Arc::new(Mutex::new(repo));
    let build = popper::core::cipipeline::run_ci(shared, Arc::new(full_engine()), 2)?;
    println!("{}", build.summary());
    println!("[{}]", if build.passed() { "build: passing" } else { "build: failing" });
    Ok(())
}
