//! Datapackage descriptors and a `dpm`-style registry.
//!
//! The paper's weather use case references its input dataset through the
//! datapackage manager (`dpm install datapackages/air-temperature`,
//! Listing `bootstrap`). A [`DataPackage`] is the small descriptor that
//! lives *inside* the Popper repository; the bytes live in a
//! [`Registry`] (standing in for a remote datapackage host) backed by
//! the chunk store.

use crate::chunkstore::{ChunkStore, Manifest, StoreError};
use popper_format::{pml, Value};
use std::collections::BTreeMap;
use std::fmt;

/// One file within a data package.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Resource {
    /// Resource name (unique within the package).
    pub name: String,
    /// Relative path the resource materializes at on install.
    pub path: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Hex SHA-256 of the contents.
    pub hash: String,
    /// Free-form format tag ("csv", "netcdf", …).
    pub format: String,
}

/// A datapackage descriptor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataPackage {
    /// Package name, e.g. `air-temperature`.
    pub name: String,
    /// Semantic-ish version string.
    pub version: String,
    /// Human description.
    pub description: String,
    /// The package's resources.
    pub resources: Vec<Resource>,
}

impl DataPackage {
    /// Serialize the descriptor as PML (the file checked into a Popper
    /// repository's `datasets/` folder).
    pub fn to_pml(&self) -> String {
        let mut root = Value::empty_map();
        root.insert("name", Value::from(self.name.as_str()));
        root.insert("version", Value::from(self.version.as_str()));
        root.insert("description", Value::from(self.description.as_str()));
        let resources: Vec<Value> = self
            .resources
            .iter()
            .map(|r| {
                let mut m = Value::empty_map();
                m.insert("name", Value::from(r.name.as_str()));
                m.insert("path", Value::from(r.path.as_str()));
                m.insert("bytes", Value::from(r.bytes as i64));
                m.insert("hash", Value::from(r.hash.as_str()));
                m.insert("format", Value::from(r.format.as_str()));
                m
            })
            .collect();
        root.insert("resources", Value::List(resources));
        pml::to_string(&root)
    }

    /// Parse a PML descriptor.
    pub fn from_pml(text: &str) -> Result<DataPackage, String> {
        let v = pml::parse(text).map_err(|e| e.to_string())?;
        let name = v.get_str("name").ok_or("missing 'name'")?.to_string();
        let version = v.get_str("version").map(str::to_string).unwrap_or_else(|| "0.0.0".into());
        let description = v.get_str("description").unwrap_or("").to_string();
        let mut resources = Vec::new();
        for r in v.get_list("resources").unwrap_or(&[]) {
            resources.push(Resource {
                name: r.get_str("name").ok_or("resource missing 'name'")?.to_string(),
                path: r.get_str("path").ok_or("resource missing 'path'")?.to_string(),
                bytes: r.get_num("bytes").unwrap_or(0.0) as u64,
                hash: r.get_str("hash").unwrap_or("").to_string(),
                format: r.get_str("format").unwrap_or("bin").to_string(),
            });
        }
        Ok(DataPackage { name, version, description, resources })
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No package with that name.
    UnknownPackage(String),
    /// Resource contents failed integrity or were missing.
    Store(String),
    /// Publishing with a resource whose bytes were not supplied.
    MissingResource(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownPackage(p) => write!(f, "unknown data package '{p}'"),
            RegistryError::Store(e) => write!(f, "store error: {e}"),
            RegistryError::MissingResource(r) => write!(f, "no bytes supplied for resource '{r}'"),
        }
    }
}

impl std::error::Error for RegistryError {}

impl From<StoreError> for RegistryError {
    fn from(e: StoreError) -> Self {
        RegistryError::Store(e.to_string())
    }
}

/// A datapackage registry: descriptors plus a chunk store holding the
/// bytes. Models the remote host `dpm install` talks to.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    packages: BTreeMap<String, (DataPackage, BTreeMap<String, Manifest>)>,
    store: ChunkStore,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Publish a package: `files` maps resource names to their bytes.
    /// The descriptor's hashes and sizes are computed here, so published
    /// metadata can never disagree with the data.
    pub fn publish(
        &mut self,
        name: &str,
        version: &str,
        description: &str,
        files: &[(&str, &str, &[u8])], // (resource name, path, bytes)
    ) -> Result<DataPackage, RegistryError> {
        let mut resources = Vec::new();
        let mut manifests = BTreeMap::new();
        for (res_name, path, bytes) in files {
            let manifest = self.store.put(bytes);
            resources.push(Resource {
                name: res_name.to_string(),
                path: path.to_string(),
                bytes: bytes.len() as u64,
                hash: manifest.blob_hex(),
                format: path.rsplit('.').next().unwrap_or("bin").to_string(),
            });
            manifests.insert(res_name.to_string(), manifest);
        }
        let pkg = DataPackage {
            name: name.to_string(),
            version: version.to_string(),
            description: description.to_string(),
            resources,
        };
        self.packages.insert(name.to_string(), (pkg.clone(), manifests));
        Ok(pkg)
    }

    /// The descriptor for a package.
    #[cfg(test)]
    fn describe(&self, name: &str) -> Result<&DataPackage, RegistryError> {
        self.packages
            .get(name)
            .map(|(p, _)| p)
            .ok_or_else(|| RegistryError::UnknownPackage(name.to_string()))
    }

    /// List package names.
    pub fn list(&self) -> Vec<&str> {
        self.packages.keys().map(String::as_str).collect()
    }

    /// Install a package: fetch and verify every resource, returning
    /// `(path, bytes)` pairs ready to materialize. This is the `dpm
    /// install` step of the weather use case.
    pub fn install(&self, name: &str) -> Result<Vec<(String, Vec<u8>)>, RegistryError> {
        let (pkg, manifests) = self
            .packages
            .get(name)
            .ok_or_else(|| RegistryError::UnknownPackage(name.to_string()))?;
        let mut out = Vec::with_capacity(pkg.resources.len());
        for r in &pkg.resources {
            let manifest = manifests
                .get(&r.name)
                .ok_or_else(|| RegistryError::MissingResource(r.name.clone()))?;
            let bytes = self.store.get(manifest)?;
            debug_assert_eq!(manifest.blob_hex(), r.hash);
            out.push((r.path.clone(), bytes));
        }
        Ok(out)
    }

    /// Total unique bytes stored (after dedup) — for reporting.
    pub fn stored_bytes(&self) -> u64 {
        self.store.stats().stored_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn publish_sample(reg: &mut Registry) -> DataPackage {
        reg.publish(
            "air-temperature",
            "1.0.0",
            "NCEP/NCAR Reanalysis 1 surface air temperature (synthetic stand-in)",
            &[
                ("grid", "air-temperature/air.mon.mean.csv", b"time,lat,lon,temp\n" as &[u8]),
                ("readme", "air-temperature/README.md", b"# dataset\n"),
            ],
        )
        .unwrap()
    }

    #[test]
    fn publish_and_install() {
        let mut reg = Registry::new();
        let pkg = publish_sample(&mut reg);
        assert_eq!(pkg.resources.len(), 2);
        assert_eq!(pkg.resources[0].format, "csv");
        let files = reg.install("air-temperature").unwrap();
        assert_eq!(files.len(), 2);
        assert_eq!(files[0].0, "air-temperature/air.mon.mean.csv");
        assert_eq!(files[0].1, b"time,lat,lon,temp\n");
    }

    #[test]
    fn install_unknown_package_fails() {
        let reg = Registry::new();
        assert!(matches!(reg.install("nope"), Err(RegistryError::UnknownPackage(_))));
    }

    #[test]
    fn descriptor_hashes_match_contents() {
        let mut reg = Registry::new();
        let pkg = publish_sample(&mut reg);
        let files = reg.install("air-temperature").unwrap();
        for (r, (_, bytes)) in pkg.resources.iter().zip(&files) {
            assert_eq!(r.hash, popper_vcs::sha256::to_hex(&popper_vcs::sha256::digest(bytes)));
            assert_eq!(r.bytes, bytes.len() as u64);
        }
    }

    #[test]
    fn pml_descriptor_round_trip() {
        let mut reg = Registry::new();
        let pkg = publish_sample(&mut reg);
        let text = pkg.to_pml();
        let parsed = DataPackage::from_pml(&text).unwrap();
        assert_eq!(parsed, pkg);
    }

    #[test]
    fn from_pml_requires_name() {
        assert!(DataPackage::from_pml("version: \"1.0\"\n").is_err());
        let minimal = DataPackage::from_pml("name: x\n").unwrap();
        assert_eq!(minimal.name, "x");
        assert!(minimal.resources.is_empty());
    }

    #[test]
    fn list_and_describe() {
        let mut reg = Registry::new();
        publish_sample(&mut reg);
        reg.publish("other", "0.1.0", "", &[]).unwrap();
        assert_eq!(reg.list(), vec!["air-temperature", "other"]);
        assert_eq!(reg.describe("other").unwrap().version, "0.1.0");
        assert!(reg.describe("missing").is_err());
    }

    #[test]
    fn republish_replaces_version() {
        let mut reg = Registry::new();
        publish_sample(&mut reg);
        reg.publish("air-temperature", "2.0.0", "", &[("grid", "f.csv", b"v2")]).unwrap();
        assert_eq!(reg.describe("air-temperature").unwrap().version, "2.0.0");
        let files = reg.install("air-temperature").unwrap();
        assert_eq!(files.len(), 1);
        assert_eq!(files[0].1, b"v2");
    }

    #[test]
    fn dedup_across_packages() {
        let mut reg = Registry::new();
        let big = vec![42u8; 100_000];
        reg.publish("p1", "1", "", &[("d", "d.bin", &big)]).unwrap();
        let after_one = reg.stored_bytes();
        reg.publish("p2", "1", "", &[("d", "d.bin", &big)]).unwrap();
        assert_eq!(reg.stored_bytes(), after_one, "identical resources must dedup");
    }
}
