//! The union filesystem: a stack of immutable layers plus a writable
//! top layer.
//!
//! Resolution walks from the top down; the first layer mentioning a path
//! decides (a `Write` provides content, a `Delete` hides lower layers).

use crate::layer::{Layer, LayerChange};
use std::collections::BTreeSet;

/// A mounted union view.
#[derive(Debug, Clone, Default)]
pub struct UnionFs {
    /// Immutable lower layers, bottom first.
    lower: Vec<Layer>,
    /// The writable top layer.
    top: Layer,
}

impl UnionFs {
    /// Mount a stack of immutable layers (bottom first) with a fresh
    /// writable top.
    pub fn mount(lower: Vec<Layer>) -> Self {
        UnionFs { lower, top: Layer::new() }
    }

    /// Read a file through the union.
    pub fn read(&self, path: &str) -> Option<&[u8]> {
        match self.top.get(path) {
            Some(LayerChange::Write(d)) => return Some(d),
            Some(LayerChange::Delete) => return None,
            None => {}
        }
        for layer in self.lower.iter().rev() {
            match layer.get(path) {
                Some(LayerChange::Write(d)) => return Some(d),
                Some(LayerChange::Delete) => return None,
                None => {}
            }
        }
        None
    }

    /// True if the path resolves to a file.
    pub fn exists(&self, path: &str) -> bool {
        self.read(path).is_some()
    }

    /// Write a file into the top layer.
    pub fn write(&mut self, path: &str, contents: impl Into<Vec<u8>>) {
        self.top.write(path, contents);
    }

    /// Delete a file (records a whiteout in the top layer). Returns true
    /// if the path existed.
    pub fn delete(&mut self, path: &str) -> bool {
        let existed = self.exists(path);
        self.top.delete(path);
        existed
    }

    /// All live paths, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut candidates: BTreeSet<&str> = BTreeSet::new();
        for layer in self.lower.iter() {
            for (p, _) in layer.iter() {
                candidates.insert(p);
            }
        }
        for (p, _) in self.top.iter() {
            candidates.insert(p);
        }
        candidates
            .into_iter()
            .filter(|p| self.exists(p))
            .map(str::to_string)
            .collect()
    }

    /// Live paths under a directory prefix (`prefix/…`).
    pub fn list_dir(&self, prefix: &str) -> Vec<String> {
        let want = format!("{}/", prefix.trim_end_matches('/'));
        self.list().into_iter().filter(|p| p.starts_with(&want)).collect()
    }

    /// Detach the writable top layer (the `docker commit` primitive),
    /// leaving a fresh empty top.
    pub fn take_top(&mut self) -> Layer {
        std::mem::take(&mut self.top)
    }

    /// Has anything been written/deleted since mount (or last take_top)?
    pub fn dirty(&self) -> bool {
        !self.top.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_layer() -> Layer {
        let mut l = Layer::new();
        l.write("etc/os-release", b"popperlinux 1.0".to_vec());
        l.write("bin/sh", b"#!shell".to_vec());
        l.write("usr/lib/libm.so", b"math".to_vec());
        l
    }

    #[test]
    fn reads_fall_through_layers() {
        let mut pkg = Layer::new();
        pkg.write("usr/bin/gassyfs", b"fsbin".to_vec());
        let fs = UnionFs::mount(vec![base_layer(), pkg]);
        assert_eq!(fs.read("bin/sh"), Some(b"#!shell" as &[u8]));
        assert_eq!(fs.read("usr/bin/gassyfs"), Some(b"fsbin" as &[u8]));
        assert_eq!(fs.read("missing"), None);
    }

    #[test]
    fn upper_layer_shadows_lower() {
        let mut upgrade = Layer::new();
        upgrade.write("usr/lib/libm.so", b"math-v2".to_vec());
        let fs = UnionFs::mount(vec![base_layer(), upgrade]);
        assert_eq!(fs.read("usr/lib/libm.so"), Some(b"math-v2" as &[u8]));
    }

    #[test]
    fn whiteout_hides_lower_file() {
        let mut rm = Layer::new();
        rm.delete("usr/lib/libm.so");
        let fs = UnionFs::mount(vec![base_layer(), rm]);
        assert!(!fs.exists("usr/lib/libm.so"));
        assert!(!fs.list().contains(&"usr/lib/libm.so".to_string()));
    }

    #[test]
    fn top_layer_writes_and_deletes() {
        let mut fs = UnionFs::mount(vec![base_layer()]);
        assert!(!fs.dirty());
        fs.write("tmp/out.csv", b"a,b\n".to_vec());
        assert!(fs.dirty());
        assert!(fs.exists("tmp/out.csv"));
        assert!(fs.delete("bin/sh"));
        assert!(!fs.exists("bin/sh"));
        assert!(!fs.delete("never-existed"));
        // Write over a whiteout resurrects the path.
        fs.write("bin/sh", b"new shell".to_vec());
        assert_eq!(fs.read("bin/sh"), Some(b"new shell" as &[u8]));
    }

    #[test]
    fn list_and_list_dir() {
        let mut fs = UnionFs::mount(vec![base_layer()]);
        fs.write("usr/bin/tool", b"t".to_vec());
        let all = fs.list();
        assert_eq!(all, vec!["bin/sh", "etc/os-release", "usr/bin/tool", "usr/lib/libm.so"]);
        assert_eq!(fs.list_dir("usr"), vec!["usr/bin/tool", "usr/lib/libm.so"]);
        assert_eq!(fs.list_dir("usr/bin"), vec!["usr/bin/tool"]);
        assert!(fs.list_dir("nothing").is_empty());
    }

    #[test]
    fn take_top_snapshots_changes() {
        let mut fs = UnionFs::mount(vec![base_layer()]);
        fs.write("opt/app", b"v1".to_vec());
        fs.delete("etc/os-release");
        let snap = fs.take_top();
        assert_eq!(snap.len(), 2);
        assert!(!fs.dirty());
        // The union no longer carries those changes.
        assert!(fs.exists("etc/os-release"));
        assert!(!fs.exists("opt/app"));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        /// Random op sequences against the union match a flat model map.
        #[test]
        fn union_matches_flat_model() {
            use proptest::test_runner::TestRunner;
            let mut runner = TestRunner::default();
            runner
                .run(
                    &proptest::collection::vec(
                        ("[a-d]", prop_oneof![Just(None), Just(Some(0u8)), Just(Some(1u8))]),
                        0..40,
                    ),
                    |ops| {
                        let mut fs = UnionFs::mount(vec![base_layer()]);
                        let mut model: std::collections::BTreeMap<String, Vec<u8>> = [
                            ("etc/os-release".to_string(), b"popperlinux 1.0".to_vec()),
                            ("bin/sh".to_string(), b"#!shell".to_vec()),
                            ("usr/lib/libm.so".to_string(), b"math".to_vec()),
                        ]
                        .into_iter()
                        .collect();
                        for (path, op) in &ops {
                            match op {
                                None => {
                                    fs.delete(path);
                                    model.remove(path);
                                }
                                Some(v) => {
                                    fs.write(path, vec![*v]);
                                    model.insert(path.clone(), vec![*v]);
                                }
                            }
                        }
                        prop_assert_eq!(fs.list(), model.keys().cloned().collect::<Vec<_>>());
                        for (p, d) in &model {
                            prop_assert_eq!(fs.read(p), Some(d.as_slice()));
                        }
                        Ok(())
                    },
                )
                .unwrap();
        }
    }
}
