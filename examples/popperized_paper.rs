//! The whole convention in one run: a paper repository with all four
//! use-case experiments, every figure regenerated, the manuscript
//! built with those figures, CI green — the reviewer workflow of the
//! paper's Fig. `review-workflow`.
//!
//! ```text
//! cargo run --release --example popperized_paper
//! ```

use popper::cli::runners::full_engine;
use popper::core::{check, cipipeline, paper, templates, PopperRepo};
use popper::format::sync::lock;
use std::sync::{Arc, Mutex};

fn main() -> Result<(), String> {
    let mut repo = PopperRepo::init("the authors <authors@systemslab>").map_err(|e| e.to_string())?;

    // Add all four use cases from the curated templates; shrink the
    // heavy ones so this example finishes in seconds.
    type Overrides = &'static [(&'static str, &'static str)];
    let experiments: [(&str, &str, Overrides); 4] = [
        ("gassyfs", "gassyfs", &[("nodes: [1, 2, 4, 8, 16]", "nodes: [1, 2, 4, 8, 16]\ntranslation_units: 120\njobs: 4")]),
        ("torpor", "torpor", &[]),
        (
            "mpi-comm-variability",
            "mpi-var",
            &[("iterations: 20", "iterations: 10"), ("elements: 20", "elements: 12")],
        ),
        ("jupyter-bww", "airtemp-analysis", &[]),
    ];
    for (tpl, name, overrides) in experiments {
        let template = templates::find_template(tpl).expect("curated");
        for (path, contents) in template.files(name) {
            let contents = if path.ends_with("vars.pml") {
                overrides.iter().fold(contents, |acc, (from, to)| acc.replace(from, to))
            } else {
                contents
            };
            repo.write(&path, contents).map_err(|e| e.to_string())?;
        }
    }
    repo.commit("add the four use-case experiments").map_err(|e| e.to_string())?;

    // The manuscript references every experiment's figure.
    repo.write(
        "paper/paper.md",
        "---\ntitle: \"The Popper Convention (reproduction)\"\n---\n\n\
         # Introduction\n\nTreat the article as an OSS project.\n\n\
         # Torpor\n\n![variability](experiments/torpor/figure.txt)\n\n\
         # GassyFS\n\n![scalability](experiments/gassyfs/figure.txt)\n\n@experiment:gassyfs\n\n\
         # MPI\n\n![noise](experiments/mpi-var/figure.txt)\n\n\
         # Weather\n\n![airtemp](experiments/airtemp-analysis/figure.txt)\n",
    )
    .map_err(|e| e.to_string())?;
    repo.commit("write the manuscript").map_err(|e| e.to_string())?;

    // Building the paper now fails — figures don't exist yet. That is
    // the CI check doing its job.
    match paper::build_paper(&repo) {
        Err(e) => println!("paper build before experiments (expected failure): {e}\n"),
        Ok(_) => return Err("build should fail before experiments run".into()),
    }

    // Run every experiment (gate → orchestrate → execute → record →
    // validate).
    let engine = full_engine();
    for name in ["gassyfs", "torpor", "mpi-var", "airtemp-analysis"] {
        let report = engine.run(&mut repo, name)?;
        println!("{report}\n");
        if !report.success() {
            return Err(format!("experiment '{name}' failed"));
        }
    }

    // Now the paper builds, with every figure resolved from results.
    let built = paper::build_paper(&repo).map_err(|e| e.to_string())?;
    println!(
        "built '{}': {} sections, {} figures resolved from experiment output",
        built.title,
        built.sections.len(),
        built.figures.len()
    );

    // Compliance + CI.
    let violations = check::check_compliance(&repo);
    println!("compliance violations: {}", violations.len());
    let shared = Arc::new(Mutex::new(repo));
    let build = cipipeline::run_ci(shared.clone(), Arc::new(full_engine()), 4)?;
    println!("\n{}", build.summary());
    println!("[{}]", if build.passed() { "build: passing" } else { "build: failing" });

    // The lab notebook: the full history of the exploration.
    let repo = lock(&shared);
    let head = repo.vcs.head_commit().expect("committed");
    println!("\nhistory ({} commits):", repo.vcs.log(head).map_err(|e| e.to_string())?.len());
    for (id, c) in repo.vcs.log(head).map_err(|e| e.to_string())?.iter().take(8) {
        println!("  {} {}", id.short(), c.message);
    }
    Ok(())
}
