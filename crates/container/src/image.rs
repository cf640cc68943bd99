//! Images and the image registry.

use crate::layer::{Layer, LayerId};
use std::collections::{BTreeMap, HashMap};
use std::fmt;

/// Image configuration (the OCI-config analogue).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ImageConfig {
    /// Environment variables baked into the image.
    pub env: BTreeMap<String, String>,
    /// Default program + arguments to run.
    pub entrypoint: Vec<String>,
    /// Free-form labels (provenance metadata — Popper stores the source
    /// repo and commit here).
    pub labels: BTreeMap<String, String>,
}

/// An image: an ordered stack of layer ids plus configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    /// Repository name, e.g. `popper/gassyfs`.
    pub name: String,
    /// Tag, e.g. `latest` or `v2.1`.
    pub tag: String,
    /// Layer ids, bottom first.
    pub layers: Vec<LayerId>,
    /// Image config.
    pub config: ImageConfig,
}

impl Image {
    /// `name:tag` reference.
    pub fn reference(&self) -> String {
        format!("{}:{}", self.name, self.tag)
    }
}

/// Errors from registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// No image with that reference.
    UnknownImage(String),
    /// An image references a layer the registry does not hold.
    MissingLayer(String),
}

impl fmt::Display for RegistryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RegistryError::UnknownImage(r) => write!(f, "unknown image '{r}'"),
            RegistryError::MissingLayer(id) => write!(f, "missing layer {id}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// An image registry: layer blobs (deduplicated by content address)
/// plus tagged image manifests. Models both the local daemon store and
/// a remote hub — `push`/`pull` between two registries moves only the
/// layers the receiver lacks.
#[derive(Debug, Clone, Default)]
pub struct ImageRegistry {
    layers: HashMap<LayerId, Layer>,
    images: BTreeMap<String, Image>,
}

impl ImageRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Store a layer blob, returning its id. Idempotent.
    pub fn put_layer(&mut self, layer: Layer) -> LayerId {
        let id = layer.id();
        self.layers.entry(id).or_insert(layer);
        id
    }

    /// Fetch a layer blob.
    pub fn layer(&self, id: LayerId) -> Option<&Layer> {
        self.layers.get(&id)
    }

    /// Tag an image manifest. Every referenced layer must already be
    /// stored.
    pub fn tag(&mut self, image: Image) -> Result<(), RegistryError> {
        for lid in &image.layers {
            if !self.layers.contains_key(lid) {
                return Err(RegistryError::MissingLayer(lid.short()));
            }
        }
        self.images.insert(image.reference(), image);
        Ok(())
    }

    /// Look up an image by `name:tag`.
    pub fn get(&self, reference: &str) -> Result<&Image, RegistryError> {
        self.images
            .get(reference)
            .ok_or_else(|| RegistryError::UnknownImage(reference.to_string()))
    }

    /// Materialize an image's layer stack (bottom first).
    pub fn layers_of(&self, reference: &str) -> Result<Vec<Layer>, RegistryError> {
        let image = self.get(reference)?;
        image
            .layers
            .iter()
            .map(|lid| {
                self.layers
                    .get(lid)
                    .cloned()
                    .ok_or_else(|| RegistryError::MissingLayer(lid.short()))
            })
            .collect()
    }

    /// All image references.
    pub fn list(&self) -> Vec<&str> {
        self.images.keys().map(String::as_str).collect()
    }

    /// Push an image (manifest + missing layers) into another registry.
    /// Returns the number of layer blobs actually transferred.
    pub fn push_to(&self, reference: &str, dest: &mut ImageRegistry) -> Result<usize, RegistryError> {
        let image = self.get(reference)?.clone();
        let mut moved = 0;
        for lid in &image.layers {
            let blob = self
                .layers
                .get(lid)
                .ok_or_else(|| RegistryError::MissingLayer(lid.short()))?;
            if !dest.layers.contains_key(lid) {
                dest.layers.insert(*lid, blob.clone());
                moved += 1;
            }
        }
        dest.images.insert(image.reference(), image);
        Ok(moved)
    }

    /// Number of unique layer blobs stored.
    #[cfg(test)]
    fn layer_count(&self) -> usize {
        self.layers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer_with(path: &str, data: &[u8]) -> Layer {
        let mut l = Layer::new();
        l.write(path, data.to_vec());
        l
    }

    fn sample_image(reg: &mut ImageRegistry, name: &str, data: &[u8]) -> Image {
        let base = reg.put_layer(layer_with("bin/sh", b"shell"));
        let app = reg.put_layer(layer_with("bin/app", data));
        let image = Image {
            name: name.to_string(),
            tag: "latest".to_string(),
            layers: vec![base, app],
            config: ImageConfig::default(),
        };
        reg.tag(image.clone()).unwrap();
        image
    }

    #[test]
    fn tag_and_get() {
        let mut reg = ImageRegistry::new();
        let img = sample_image(&mut reg, "popper/gassyfs", b"v1");
        assert_eq!(reg.get("popper/gassyfs:latest").unwrap(), &img);
        assert!(matches!(reg.get("nope:latest"), Err(RegistryError::UnknownImage(_))));
    }

    #[test]
    fn tag_requires_layers_present() {
        let mut reg = ImageRegistry::new();
        let ghost = layer_with("f", b"x").id();
        let image = Image {
            name: "broken".into(),
            tag: "latest".into(),
            layers: vec![ghost],
            config: ImageConfig::default(),
        };
        assert!(matches!(reg.tag(image), Err(RegistryError::MissingLayer(_))));
    }

    #[test]
    fn layers_dedup_across_images() {
        let mut reg = ImageRegistry::new();
        sample_image(&mut reg, "a", b"same");
        sample_image(&mut reg, "b", b"same");
        // base + identical app layer are shared: 2 unique blobs total.
        assert_eq!(reg.layer_count(), 2);
        sample_image(&mut reg, "c", b"different");
        assert_eq!(reg.layer_count(), 3);
    }

    #[test]
    fn layers_of_returns_stack_in_order() {
        let mut reg = ImageRegistry::new();
        let img = sample_image(&mut reg, "x", b"v");
        let stack = reg.layers_of("x:latest").unwrap();
        assert_eq!(stack.len(), 2);
        assert_eq!(stack[0].id(), img.layers[0]);
        assert_eq!(stack[1].id(), img.layers[1]);
    }

    #[test]
    fn push_moves_only_missing_layers() {
        let mut local = ImageRegistry::new();
        let mut hub = ImageRegistry::new();
        sample_image(&mut local, "popper/torpor", b"v1");
        let moved = local.push_to("popper/torpor:latest", &mut hub).unwrap();
        assert_eq!(moved, 2);
        assert!(hub.get("popper/torpor:latest").is_ok());
        // Re-push: nothing to move.
        assert_eq!(local.push_to("popper/torpor:latest", &mut hub).unwrap(), 0);
        // A second image sharing the base: only its app layer moves.
        sample_image(&mut local, "popper/mpi", b"other");
        assert_eq!(local.push_to("popper/mpi:latest", &mut hub).unwrap(), 1);
    }

    #[test]
    fn config_is_part_of_image() {
        let mut reg = ImageRegistry::new();
        let mut img = sample_image(&mut reg, "cfg", b"v");
        img.config.env.insert("GASNET_NODES".into(), "4".into());
        img.config.entrypoint = vec!["run.sh".into(), "--all".into()];
        img.config.labels.insert("org.popper.commit".into(), "abc123".into());
        reg.tag(img.clone()).unwrap();
        let got = reg.get("cfg:latest").unwrap();
        assert_eq!(got.config.env["GASNET_NODES"], "4");
        assert_eq!(got.config.entrypoint.len(), 2);
    }
}

impl Image {
    /// `docker inspect`-style text description (layers, config,
    /// provenance labels).
    pub fn inspect(&self, registry: &ImageRegistry) -> String {
        let mut out = format!("Image: {}\n", self.reference());
        if !self.config.entrypoint.is_empty() {
            out.push_str(&format!("Entrypoint: {}\n", self.config.entrypoint.join(" ")));
        }
        for (k, v) in &self.config.env {
            out.push_str(&format!("Env: {k}={v}\n"));
        }
        for (k, v) in &self.config.labels {
            out.push_str(&format!("Label: {k}={v}\n"));
        }
        out.push_str("Layers (bottom first):\n");
        for lid in &self.layers {
            match registry.layer(*lid) {
                Some(layer) => out.push_str(&format!(
                    "  {}  {} change(s), {} bytes\n",
                    lid.short(),
                    layer.len(),
                    layer.content_bytes()
                )),
                None => out.push_str(&format!("  {}  <missing>\n", lid.short())),
            }
        }
        out
    }
}

impl ImageRegistry {
    /// Garbage-collect layers unreferenced by any tagged image. Returns
    /// the number of layer blobs dropped.
    pub fn gc(&mut self) -> usize {
        let live: std::collections::HashSet<LayerId> =
            self.images.values().flat_map(|i| i.layers.iter().copied()).collect();
        let before = self.layers.len();
        self.layers.retain(|id, _| live.contains(id));
        before - self.layers.len()
    }
}

#[cfg(test)]
mod inspect_tests {
    use super::*;
    use crate::layer::Layer;

    #[test]
    fn inspect_shows_layers_and_labels() {
        let mut reg = ImageRegistry::new();
        let mut l = Layer::new();
        l.write("bin/app", b"x".to_vec());
        let id = reg.put_layer(l);
        let mut config = ImageConfig::default();
        config.labels.insert("org.popper.commit".into(), "abc".into());
        config.entrypoint = vec!["app".into()];
        let image = Image { name: "x".into(), tag: "v1".into(), layers: vec![id], config };
        reg.tag(image.clone()).unwrap();
        let text = image.inspect(&reg);
        assert!(text.contains("Image: x:v1"));
        assert!(text.contains("Entrypoint: app"));
        assert!(text.contains("org.popper.commit=abc"));
        assert!(text.contains("1 change(s), 1 bytes"));
    }

    #[test]
    fn gc_drops_unreferenced_layers() {
        let mut reg = ImageRegistry::new();
        let mut a = Layer::new();
        a.write("a", b"1".to_vec());
        let ida = reg.put_layer(a);
        let mut b = Layer::new();
        b.write("b", b"2".to_vec());
        let idb = reg.put_layer(b);
        reg.tag(Image { name: "keep".into(), tag: "v".into(), layers: vec![ida], config: ImageConfig::default() })
            .unwrap();
        assert_eq!(reg.layer_count(), 2);
        assert_eq!(reg.gc(), 1);
        assert!(reg.layer(ida).is_some());
        assert!(reg.layer(idb).is_none());
    }
}
