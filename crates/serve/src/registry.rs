//! Named, thread-safe registry of trained model artifacts.
//!
//! The registry stores the *serialized* form of each model (the
//! `vrdag::persist` binary format) behind an `Arc`, because the in-memory
//! `Vrdag` is intentionally single-threaded (`Rc`-based autograd
//! tensors). A [`ModelHandle`] is therefore `Send + Sync` and cheap to
//! clone; workers call [`ModelHandle::instantiate`] once and reuse the
//! instance for every subsequent request against the same artifact
//! (each service-core worker keeps one instance, switched only when a
//! cache miss needs another artifact).

use crate::{ServeError, SnapshotStream};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, RwLock};
use vrdag::Vrdag;

/// A cheap shared handle to a registered model artifact.
///
/// Cloning copies two `Arc`s. The handle pins the artifact bytes alive
/// even if the model is later [`remove`](ModelRegistry::remove)d or
/// re-registered, so in-flight jobs are never invalidated.
#[derive(Clone)]
pub struct ModelHandle {
    name: Arc<str>,
    bytes: Arc<Vec<u8>>,
    fingerprint: u64,
    n_nodes: usize,
    n_attrs: usize,
}

impl ModelHandle {
    /// The name the artifact was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Size of the serialized artifact in bytes.
    pub fn size_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Stable content fingerprint of the artifact
    /// (`vrdag::artifact_fingerprint` over the serialized bytes, computed
    /// once at registration). Equal fingerprints mean byte-identical
    /// artifacts — the identity the snapshot cache keys on, so identical
    /// bytes registered under different names share cache entries.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Node universe size of the trained model.
    pub fn n_nodes(&self) -> usize {
        self.n_nodes
    }

    /// Attribute dimensionality of the trained model.
    pub fn n_attrs(&self) -> usize {
        self.n_attrs
    }

    /// The raw serialized artifact.
    pub fn bytes(&self) -> &Arc<Vec<u8>> {
        &self.bytes
    }

    /// Two handles are the same artifact iff they share bytes. Used by
    /// worker-side instance caches to detect re-registration.
    pub fn same_artifact(&self, other: &ModelHandle) -> bool {
        Arc::ptr_eq(&self.bytes, &other.bytes)
    }

    /// Deserialize a private, generation-ready [`Vrdag`] instance.
    pub fn instantiate(&self) -> Result<Vrdag, ServeError> {
        Ok(Vrdag::from_bytes(&self.bytes)?)
    }

    /// Start a seed-addressed streaming generation run against a fresh
    /// instance of this artifact.
    pub fn stream(&self, t_len: usize, seed: u64) -> Result<SnapshotStream, ServeError> {
        SnapshotStream::new(self.instantiate()?, t_len, seed)
    }
}

impl std::fmt::Debug for ModelHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ModelHandle")
            .field("name", &self.name)
            .field("fingerprint", &self.fingerprint)
            .field("size_bytes", &self.bytes.len())
            .field("n_nodes", &self.n_nodes)
            .field("n_attrs", &self.n_attrs)
            .finish()
    }
}

/// Thread-safe map from model name to [`ModelHandle`].
///
/// Clone the registry freely: clones share the underlying map (the
/// registry itself is an `Arc` around a `RwLock`ed table).
#[derive(Clone, Default)]
pub struct ModelRegistry {
    inner: Arc<RwLock<HashMap<String, ModelHandle>>>,
}

impl ModelRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    fn insert_validated(&self, name: &str, bytes: Vec<u8>) -> Result<ModelHandle, ServeError> {
        // Validate eagerly: a corrupt artifact should fail at registration,
        // not inside a worker thread mid-batch. The probe instance also
        // supplies the shape metadata and is dropped immediately.
        let probe = Vrdag::from_bytes(&bytes)?;
        let fingerprint = vrdag::artifact_fingerprint(&bytes);
        let handle = ModelHandle {
            name: Arc::from(name),
            bytes: Arc::new(bytes),
            fingerprint,
            n_nodes: probe.n_nodes().unwrap_or(0),
            n_attrs: probe.n_attrs().unwrap_or(0),
        };
        self.inner
            .write()
            .expect("registry lock poisoned")
            .insert(name.to_string(), handle.clone());
        Ok(handle)
    }

    /// Register a fitted model under `name` (serializes it once).
    /// Re-registering a name atomically replaces the artifact; existing
    /// handles keep the old bytes alive.
    pub fn register(&self, name: &str, model: &Vrdag) -> Result<ModelHandle, ServeError> {
        self.insert_validated(name, model.to_bytes()?)
    }

    /// Register an already-serialized artifact (validated eagerly).
    pub fn register_bytes(&self, name: &str, bytes: Vec<u8>) -> Result<ModelHandle, ServeError> {
        self.insert_validated(name, bytes)
    }

    /// Load a `.vrdg` file saved by [`Vrdag::save`] and register it.
    pub fn load_file(&self, name: &str, path: impl AsRef<Path>) -> Result<ModelHandle, ServeError> {
        let bytes = std::fs::read(path)?;
        self.insert_validated(name, bytes)
    }

    /// Look up a handle by name.
    pub fn get(&self, name: &str) -> Option<ModelHandle> {
        self.inner.read().expect("registry lock poisoned").get(name).cloned()
    }

    /// Like [`get`](Self::get) but with a typed error for schedulers.
    pub fn resolve(&self, name: &str) -> Result<ModelHandle, ServeError> {
        self.get(name).ok_or_else(|| ServeError::UnknownModel(name.to_string()))
    }

    /// Drop a model from the registry. In-flight handles stay valid.
    pub fn remove(&self, name: &str) -> bool {
        self.inner.write().expect("registry lock poisoned").remove(name).is_some()
    }

    /// Registered names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> =
            self.inner.read().expect("registry lock poisoned").keys().cloned().collect();
        names.sort();
        names
    }

    /// All registered handles, sorted by name — one consistent snapshot
    /// of the table, so wire-protocol listings (`MODELS`) cannot race a
    /// concurrent `register`/`remove` between a name lookup and its
    /// handle fetch.
    pub fn handles(&self) -> Vec<ModelHandle> {
        let mut handles: Vec<ModelHandle> =
            self.inner.read().expect("registry lock poisoned").values().cloned().collect();
        handles.sort_by(|a, b| a.name().cmp(b.name()));
        handles
    }

    pub fn len(&self) -> usize {
        self.inner.read().expect("registry lock poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use vrdag::VrdagConfig;

    fn fitted() -> Vrdag {
        let g = vrdag_datasets::generate(&vrdag_datasets::tiny(), 3);
        let mut cfg = VrdagConfig::test_small();
        cfg.epochs = 2;
        let mut m = Vrdag::new(cfg);
        let mut rng = StdRng::seed_from_u64(1);
        m.fit(&g, &mut rng).unwrap();
        m
    }

    #[test]
    fn register_get_instantiate_round_trip() {
        let registry = ModelRegistry::new();
        let model = fitted();
        let handle = registry.register("tiny", &model).unwrap();
        assert_eq!(handle.name(), "tiny");
        assert!(handle.size_bytes() > 0);
        assert_eq!(handle.n_nodes(), model.n_nodes().unwrap());
        assert_eq!(registry.names(), vec!["tiny".to_string()]);

        let inst = registry.get("tiny").unwrap().instantiate().unwrap();
        let mut r1 = StdRng::seed_from_u64(9);
        let mut r2 = StdRng::seed_from_u64(9);
        assert_eq!(model.generate(2, &mut r1).unwrap(), inst.generate(2, &mut r2).unwrap());
    }

    #[test]
    fn unknown_and_removed_models_resolve_to_errors() {
        let registry = ModelRegistry::new();
        assert!(matches!(registry.resolve("nope"), Err(ServeError::UnknownModel(_))));
        let model = fitted();
        registry.register("m", &model).unwrap();
        assert!(registry.remove("m"));
        assert!(!registry.remove("m"));
        assert!(registry.get("m").is_none());
    }

    #[test]
    fn reregistration_replaces_but_old_handles_survive() {
        let registry = ModelRegistry::new();
        let model = fitted();
        let old = registry.register("m", &model).unwrap();
        let new = registry.register("m", &model).unwrap();
        assert!(!old.same_artifact(&new));
        // The old handle still instantiates fine.
        old.instantiate().unwrap();
        // Serialization is deterministic, so re-registering the same model
        // keeps the content fingerprint even though the Arc differs.
        assert_eq!(old.fingerprint(), new.fingerprint());
    }

    #[test]
    fn fingerprint_distinguishes_models_but_not_names() {
        let registry = ModelRegistry::new();
        let model = fitted();
        let bytes = model.to_bytes().unwrap();
        let a = registry.register_bytes("a", bytes.clone()).unwrap();
        let b = registry.register_bytes("b", bytes).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "same bytes, same identity");
        assert_eq!(a.fingerprint(), model.fingerprint().unwrap());
    }

    #[test]
    fn corrupt_bytes_rejected_at_registration() {
        let registry = ModelRegistry::new();
        assert!(registry.register_bytes("bad", b"not a model".to_vec()).is_err());
        assert!(registry.is_empty());
    }
}
