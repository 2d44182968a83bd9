//! Persistence for profiled model fleets.
//!
//! Profiling is the expensive part of the methodology (that is the whole
//! point of §4); a production deployment profiles each application once
//! and reuses the models until the binary or the hardware changes
//! (§4.4). [`ModelStore`] is that registry: a named collection of
//! [`InterferenceModel`]s with JSON (de)serialization to any
//! reader/writer, plus convenience file helpers.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;

use crate::error::ModelError;
use crate::model::InterferenceModel;

/// Current on-disk format version; bumped on breaking schema changes.
pub const STORE_VERSION: u32 = 2;

/// A persistent, named collection of interference models.
///
/// # Example
///
/// ```
/// use icm_core::store::ModelStore;
///
/// let mut store = ModelStore::new();
/// assert!(store.is_empty());
/// // store.insert(model); store.save_to(&mut file)?;
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelStore {
    version: u32,
    models: BTreeMap<String, InterferenceModel>,
}

icm_json::impl_json!(struct ModelStore { version, models });

impl ModelStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self {
            version: STORE_VERSION,
            models: BTreeMap::new(),
        }
    }

    /// Builds a store from models (keyed by their application names).
    pub fn from_models(models: impl IntoIterator<Item = InterferenceModel>) -> Self {
        let mut store = Self::new();
        for model in models {
            store.insert(model);
        }
        store
    }

    /// Inserts (or replaces) a model, returning the previous one for the
    /// same application, if any.
    pub fn insert(&mut self, model: InterferenceModel) -> Option<InterferenceModel> {
        self.models.insert(model.app().to_owned(), model)
    }

    /// Looks up a model by application name.
    pub fn get(&self, app: &str) -> Option<&InterferenceModel> {
        self.models.get(app)
    }

    /// Removes a model.
    pub fn remove(&mut self, app: &str) -> Option<InterferenceModel> {
        self.models.remove(app)
    }

    /// Application names, sorted.
    pub fn apps(&self) -> Vec<&str> {
        self.models.keys().map(String::as_str).collect()
    }

    /// Number of stored models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }

    /// Borrows the underlying map (e.g. for
    /// [`Estimator::from_map`](https://docs.rs/icm-placement)).
    pub fn models(&self) -> &BTreeMap<String, InterferenceModel> {
        &self.models
    }

    /// Serializes the store as pretty JSON to a writer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] on serialization or I/O
    /// failure.
    pub fn save_to<W: Write>(&self, mut writer: W) -> Result<(), ModelError> {
        writer
            .write_all(icm_json::to_string_pretty(self).as_bytes())
            .map_err(|e| ModelError::InvalidData(format!("cannot serialize model store: {e}")))
    }

    /// Deserializes a store from a reader, checking the format version.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] on parse failure or version
    /// mismatch.
    pub fn load_from<R: Read>(mut reader: R) -> Result<Self, ModelError> {
        let mut text = String::new();
        reader
            .read_to_string(&mut text)
            .map_err(|e| ModelError::InvalidData(format!("cannot read model store: {e}")))?;
        let store: Self = icm_json::from_str(&text)
            .map_err(|e| ModelError::InvalidData(format!("cannot parse model store: {e}")))?;
        if store.version != STORE_VERSION {
            return Err(ModelError::InvalidData(format!(
                "model store version {} unsupported (expected {STORE_VERSION})",
                store.version
            )));
        }
        Ok(store)
    }

    /// Saves to a file path (creating parent directories). The write is
    /// atomic — tmp-file, fsync, rename — so a crash mid-save leaves
    /// either the previous store or the new one, never a torn file.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] on I/O failure.
    pub fn save_to_path<P: AsRef<Path>>(&self, path: P) -> Result<(), ModelError> {
        let path = path.as_ref();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).map_err(|e| {
                ModelError::InvalidData(format!("cannot create {}: {e}", parent.display()))
            })?;
        }
        icm_json::fs::atomic_write(path, icm_json::to_string_pretty(self).as_bytes())
            .map_err(|e| ModelError::InvalidData(format!("cannot write {}: {e}", path.display())))
    }

    /// Loads from a file path.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] on I/O or parse failure.
    pub fn load_from_path<P: AsRef<Path>>(path: P) -> Result<Self, ModelError> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)
            .map_err(|e| ModelError::InvalidData(format!("cannot open {}: {e}", path.display())))?;
        Self::load_from(std::io::BufReader::new(file))
    }
}

impl Default for ModelStore {
    fn default() -> Self {
        Self::new()
    }
}

impl Extend<InterferenceModel> for ModelStore {
    fn extend<T: IntoIterator<Item = InterferenceModel>>(&mut self, iter: T) {
        for model in iter {
            self.insert(model);
        }
    }
}

impl FromIterator<InterferenceModel> for ModelStore {
    fn from_iter<T: IntoIterator<Item = InterferenceModel>>(iter: T) -> Self {
        Self::from_models(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::testbed::mock::MockTestbed;

    fn model(name: &str) -> InterferenceModel {
        let mut tb = MockTestbed::default();
        ModelBuilder::new(name)
            .policy_samples(6)
            .build(&mut tb)
            .expect("builds")
    }

    #[test]
    fn insert_get_remove() {
        let mut store = ModelStore::new();
        assert!(store.insert(model("a")).is_none());
        assert!(
            store.insert(model("a")).is_some(),
            "replacement returns old"
        );
        store.insert(model("b"));
        assert_eq!(store.len(), 2);
        assert_eq!(store.apps(), vec!["a", "b"]);
        assert!(store.get("a").is_some());
        assert!(store.remove("a").is_some());
        assert!(store.get("a").is_none());
    }

    #[test]
    fn round_trips_through_a_buffer() {
        let store = ModelStore::from_models([model("x"), model("y")]);
        let mut buffer = Vec::new();
        store.save_to(&mut buffer).expect("saves");
        let restored = ModelStore::load_from(buffer.as_slice()).expect("loads");
        assert_eq!(restored.len(), 2);
        let probe = vec![3.0; 8];
        assert!(
            (restored.get("x").expect("present").predict(&probe)
                - store.get("x").expect("present").predict(&probe))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn round_trips_through_a_file() {
        let dir = std::env::temp_dir().join("icm-store-test");
        let path = dir.join("models.json");
        let store = ModelStore::from_models([model("fleet")]);
        store.save_to_path(&path).expect("saves");
        let restored = ModelStore::load_from_path(&path).expect("loads");
        assert_eq!(restored.apps(), vec!["fleet"]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rejects_wrong_version() {
        let json = r#"{"version": 99, "models": {}}"#;
        let err = ModelStore::load_from(json.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("version"));
    }

    #[test]
    fn refuses_a_version_1_store_by_its_version() {
        // A real store in the previous layout: version 1, whose models
        // carried `"tie_tolerance": 0.25`.
        let mut buffer = Vec::new();
        ModelStore::from_models([model("old")])
            .save_to(&mut buffer)
            .expect("saves");
        let text = String::from_utf8(buffer).expect("utf-8");
        assert!(text.contains("\"version\": 2"), "{text}");
        assert!(text.contains("\"profiling_cost\":"), "{text}");
        let older = text
            .replacen("\"version\": 2", "\"version\": 1", 1)
            .replace(
                "\"profiling_cost\":",
                "\"tie_tolerance\": 0.25,\n      \"profiling_cost\":",
            );
        let err = ModelStore::load_from(older.as_bytes()).unwrap_err();
        assert!(
            err.to_string()
                .contains("model store version 1 unsupported (expected 2)"),
            "{err}"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(ModelStore::load_from(&b"not json"[..]).is_err());
        assert!(ModelStore::load_from_path("/definitely/not/a/path.json").is_err());
    }

    #[test]
    fn collect_and_extend() {
        let mut store: ModelStore = [model("p")].into_iter().collect();
        store.extend([model("q")]);
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert!(store.models().contains_key("q"));
    }
}
