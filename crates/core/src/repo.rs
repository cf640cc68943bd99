//! The Popper repository model.
//!
//! Listing 1 of the paper defines the canonical layout:
//!
//! ```text
//! paper-repo
//! | README.md
//! | .popper.pml            (CLI configuration; .travis.yml analogue is .popper-ci.pml)
//! | .popper-ci.pml
//! | experiments
//! |   |-- myexp
//! |   |   |-- datasets/
//! |   |   |-- figure.txt
//! |   |   |-- process-result.sh
//! |   |   |-- setup.pml
//! |   |   |-- results.csv
//! |   |   |-- run.sh
//! |   |   |-- validations.aver
//! |   |    -- vars.pml
//! | paper
//! |   |-- build.sh
//! |   |-- figures/
//! |   |-- paper.md
//! |    -- references.bib
//! ```

use popper_format::{pml, Value};
use popper_vcs::{Repository, VcsError};
use std::collections::BTreeSet;

/// A Popperized repository: a thin, layout-aware wrapper over the VCS.
#[derive(Debug, Clone)]
pub struct PopperRepo {
    /// The underlying version-controlled tree.
    pub vcs: Repository,
    author: String,
    /// Tracked files read from disk when this repository was loaded.
    tracked_on_disk: BTreeSet<String>,
}

/// The files `popper init` seeds.
const INIT_FILES: &[(&str, &str)] = &[
    (
        "README.md",
        "# A Popperized paper repository\n\n\
         [build: unknown]\n\n\
         Experiments live under `experiments/`; the manuscript under `paper/`.\n\
         Every figure in the paper is regenerated by `popper run <experiment>`.\n",
    ),
    (
        ".popper.pml",
        "# Popper CLI configuration\nversion: \"1.0\"\nmetadata:\n  convention: popper\n",
    ),
    (
        ".popper-ci.pml",
        "stages: [lint, build, test]\n\
         jobs:\n\
         \x20 - name: paper-builds\n\
         \x20   stage: build\n\
         \x20   steps: [build-paper]\n\
         \x20 - name: orchestration-syntax\n\
         \x20   stage: lint\n\
         \x20   steps: [validate-playbooks, validate-pipelines]\n",
    ),
    (
        "paper/build.sh",
        "#!/bin/sh\n# Assemble the article; executed by the `build-paper` CI step.\npopper-build-paper .\n",
    ),
    (
        "paper/paper.md",
        "---\ntitle: \"An article following the Popper convention\"\n---\n\n# Introduction\n\n\
         Validating experimental results is hard; this article's artifacts\nare all here.\n",
    ),
    ("paper/references.bib", "@inproceedings{jimenez_popper_2017, title={The Popper Convention}}\n"),
];

impl PopperRepo {
    /// `popper init`: create the skeleton in a fresh VCS repository and
    /// commit it.
    pub fn init(author: &str) -> Result<PopperRepo, VcsError> {
        let mut vcs = Repository::init();
        for (path, contents) in INIT_FILES {
            vcs.write_file(path, *contents)?;
        }
        let mut repo = PopperRepo::from_vcs(vcs, author);
        repo.commit("popper init")?;
        Ok(repo)
    }

    /// Wrap an existing repository.
    pub fn from_vcs(vcs: Repository, author: &str) -> PopperRepo {
        PopperRepo { vcs, author: author.to_string(), tracked_on_disk: BTreeSet::new() }
    }

    /// Wrap a repository whose working tree was read from disk, naming
    /// the tracked files found there. Saving deletes those the working
    /// tree no longer holds, and no other file.
    pub fn from_disk(vcs: Repository, author: &str, tracked_on_disk: BTreeSet<String>) -> PopperRepo {
        PopperRepo { vcs, author: author.to_string(), tracked_on_disk }
    }

    /// The tracked files read from disk at load (empty unless built by
    /// [`PopperRepo::from_disk`]).
    pub fn tracked_on_disk(&self) -> &BTreeSet<String> {
        &self.tracked_on_disk
    }

    /// Write a file and stage it.
    pub fn write(&mut self, path: &str, contents: impl Into<Vec<u8>>) -> Result<(), VcsError> {
        self.vcs.write_file(path, contents)?;
        self.vcs.stage(path)
    }

    /// Read a file as UTF-8 (lossy).
    pub fn read(&self, path: &str) -> Option<String> {
        self.vcs.read_file(path).map(|b| String::from_utf8_lossy(b).into_owned())
    }

    /// Does a path exist in the working tree? Reads no file.
    pub fn exists(&self, path: &str) -> bool {
        self.vcs.has_file(path)
    }

    /// Stage everything and commit.
    pub fn commit(&mut self, message: &str) -> Result<popper_vcs::ObjectId, VcsError> {
        self.vcs.stage(".")?;
        let author = self.author.clone();
        self.vcs.commit(&author, message)
    }

    /// The experiment names present (`experiments/<name>/…`).
    pub fn experiments(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .vcs
            .files()
            .filter_map(|p| p.strip_prefix("experiments/"))
            .filter_map(|rest| rest.split('/').next())
            .map(str::to_string)
            .collect();
        names.sort();
        names.dedup();
        names
    }

    /// All files of one experiment.
    pub fn experiment_files(&self, name: &str) -> Vec<String> {
        let prefix = format!("experiments/{name}/");
        self.vcs.files().filter(|p| p.starts_with(&prefix)).map(str::to_string).collect()
    }

    /// Parse an experiment's `vars.pml`.
    pub fn experiment_vars(&self, name: &str) -> Result<Value, String> {
        let path = format!("experiments/{name}/vars.pml");
        let text = self.read(&path).ok_or_else(|| format!("{path} not found"))?;
        pml::parse(&text).map_err(|e| e.to_string())
    }

    /// Read an experiment's Aver validations source.
    pub fn experiment_validations(&self, name: &str) -> Option<String> {
        self.read(&format!("experiments/{name}/validations.aver"))
    }

    /// Store an experiment's results table (CSV) and commit it — "an
    /// important component of the experimental stage is to validate and
    /// version the results".
    pub fn record_results(&mut self, name: &str, csv: &str) -> Result<(), VcsError> {
        self.write(&format!("experiments/{name}/results.csv"), csv.as_bytes().to_vec())?;
        self.commit(&format!("record results for experiment '{name}'"))?;
        Ok(())
    }

    /// Render the Listing-1 style tree (for `popper status` and the
    /// README).
    pub fn tree(&self) -> String {
        let mut out = String::from("paper-repo\n");
        let files: Vec<&str> = self.vcs.files().collect();
        for f in files {
            let depth = f.matches('/').count();
            let name = f.rsplit('/').next().expect("non-empty path");
            out.push_str(&format!("|{} {}\n", "  ".repeat(depth), name));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_seeds_the_listing_one_skeleton() {
        let repo = PopperRepo::init("tester <t@t>").unwrap();
        for path in ["README.md", ".popper.pml", ".popper-ci.pml", "paper/build.sh", "paper/paper.md", "paper/references.bib"] {
            assert!(repo.exists(path), "missing {path}");
        }
        // Seed is committed.
        assert!(repo.vcs.head_commit().is_some());
        assert!(repo.vcs.status().unwrap().is_empty());
        // Config parses as PML.
        let cfg = pml::parse(&repo.read(".popper.pml").unwrap()).unwrap();
        assert_eq!(cfg.get_str("version"), Some("1.0"));
    }

    #[test]
    fn experiments_listing() {
        let mut repo = PopperRepo::init("t").unwrap();
        assert!(repo.experiments().is_empty());
        repo.write("experiments/gassyfs/vars.pml", "nodes: 4\n").unwrap();
        repo.write("experiments/gassyfs/run.sh", "#!/bin/sh\n").unwrap();
        repo.write("experiments/torpor/vars.pml", "machine: xeon-2006\n").unwrap();
        assert_eq!(repo.experiments(), vec!["gassyfs", "torpor"]);
        assert_eq!(repo.experiment_files("gassyfs").len(), 2);
    }

    #[test]
    fn vars_and_validations_accessors() {
        let mut repo = PopperRepo::init("t").unwrap();
        repo.write("experiments/e/vars.pml", "nodes: [1, 2, 4]\nworkload: git\n").unwrap();
        repo.write("experiments/e/validations.aver", "expect sublinear(nodes, time)\n").unwrap();
        let vars = repo.experiment_vars("e").unwrap();
        assert_eq!(vars.get_str("workload"), Some("git"));
        assert_eq!(vars.get_list("nodes").unwrap().len(), 3);
        assert!(repo.experiment_validations("e").unwrap().contains("sublinear"));
        assert!(repo.experiment_vars("missing").is_err());
        assert!(repo.experiment_validations("missing").is_none());
    }

    #[test]
    fn record_results_commits() {
        let mut repo = PopperRepo::init("t").unwrap();
        repo.write("experiments/e/vars.pml", "x: 1\n").unwrap();
        repo.commit("add experiment").unwrap();
        let commits_before = repo.vcs.log(repo.vcs.head_commit().unwrap()).unwrap().len();
        repo.record_results("e", "nodes,time\n1,10\n").unwrap();
        let log = repo.vcs.log(repo.vcs.head_commit().unwrap()).unwrap();
        assert_eq!(log.len(), commits_before + 1);
        assert!(log[0].1.message.contains("record results"));
        assert!(repo.read("experiments/e/results.csv").unwrap().contains("nodes,time"));
    }

    #[test]
    fn results_history_is_recoverable() {
        // The lab-notebook property: previous results remain reachable
        // through history even after re-running.
        let mut repo = PopperRepo::init("t").unwrap();
        repo.write("experiments/e/vars.pml", "x: 1\n").unwrap();
        repo.record_results("e", "v\n1\n").unwrap();
        let first = repo.vcs.head_commit().unwrap();
        repo.record_results("e", "v\n2\n").unwrap();
        assert!(repo.read("experiments/e/results.csv").unwrap().contains('2'));
        let old = repo.vcs.snapshot_of(first).unwrap();
        assert_eq!(old["experiments/e/results.csv"], b"v\n1\n");
    }

    #[test]
    fn tree_rendering_mentions_structure() {
        let mut repo = PopperRepo::init("t").unwrap();
        repo.write("experiments/myexp/run.sh", "#!/bin/sh\n").unwrap();
        let tree = repo.tree();
        assert!(tree.starts_with("paper-repo\n"));
        assert!(tree.contains("run.sh"));
        assert!(tree.contains("paper.md"));
    }
}
