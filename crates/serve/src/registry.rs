//! The model registry: artifacts on disk → immutable served snapshots.
//!
//! A registry is a flat directory of `psm-persist` artifacts named
//! `<model>@<version>.json` (a bare `<model>.json` is version 1) — the
//! layout `psm_persist::list_artifacts` enumerates. [`Registry::open`]
//! loads every artifact into a [`Snapshot`]; [`Registry::reload`]
//! rebuilds a complete new snapshot from disk and swaps it in **only if
//! every artifact loaded** — a half-written registry can never replace a
//! working one.
//!
//! Atomicity towards in-flight work is structural: estimation jobs hold
//! an `Arc<ServedModel>` captured at dispatch time, so a reload (or even
//! a model's removal from disk) never invalidates a request that already
//! resolved its model. The old snapshot simply drops when its last
//! request finishes.
//!
//! # Artifact formats
//!
//! Every loaded model answers through the flat-table [`CompiledModel`] of
//! `psm-compile`. A `psmgen-artifact/v3` file ships that compiled section
//! pre-built (`psmctl compile` writes these); the registry *verifies* it
//! against a fresh compilation of the table/PSM/HMM it rides with and
//! refuses artifacts where the two disagree — a v3 file can never smuggle
//! in divergent serving tables. v1/v2 artifacts are compiled at load time.

use psm_compile::CompiledModel;
use psm_core::{classify_trace, Psm};
use psm_hmm::{Hmm, HmmOutcome};
use psm_mining::{PropositionId, PropositionTable};
use psm_persist::{decode_artifact, ArtifactEntry, Persist, PersistError};
use psm_trace::FunctionalTrace;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// A registry failure, naming the artifact that caused it when there is
/// one.
#[derive(Debug)]
pub struct RegistryError {
    /// The artifact at fault, `None` for directory-level failures.
    pub path: Option<PathBuf>,
    /// The underlying persistence failure.
    pub source: PersistError,
}

impl RegistryError {
    fn of(path: &Path, source: PersistError) -> Self {
        RegistryError {
            path: Some(path.to_path_buf()),
            source,
        }
    }
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.path {
            Some(path) => write!(f, "registry artifact {}: {}", path.display(), self.source),
            None => write!(f, "registry: {}", self.source),
        }
    }
}

impl std::error::Error for RegistryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// One loaded model, ready to estimate: the proposition table that
/// classifies raw cycles and the compiled PSM+HMM runtime.
///
/// This mirrors the facade's `TrainedModel` minus the training stats —
/// the daemon reads the same artifact files `PsmFlow` writes, but only
/// needs the estimation path, so it parses the substrate fields directly
/// and stays off the facade crate.
#[derive(Debug)]
pub struct ServedModel {
    /// The model name (registry file stem up to `@`).
    pub name: String,
    /// The model version (`@<N>` stem suffix; bare stems are 1).
    pub version: u64,
    /// The artifact *format* version the file was probed at.
    pub format_version: u32,
    table: PropositionTable,
    compiled: CompiledModel,
}

impl ServedModel {
    /// Loads one registry artifact.
    ///
    /// A v3 artifact must carry a `compiled` section, which is verified
    /// against a fresh compilation of the `table`/`psm`/`hmm` it ships
    /// with; v1/v2 artifacts are compiled on the fly.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] naming the artifact when the file cannot be
    /// read, is truncated/wrong-magic, its body does not hold the
    /// `table`/`psm`/`hmm` fields of a flat trained model (hierarchical
    /// artifacts are not servable), or its compiled section is missing,
    /// malformed, or disagrees with the model it ships with.
    pub fn load(entry: &ArtifactEntry) -> Result<ServedModel, RegistryError> {
        let text = std::fs::read_to_string(&entry.path)
            .map_err(|e| RegistryError::of(&entry.path, PersistError::Io(e)))?;
        let (format_version, doc) =
            decode_artifact(&text).map_err(|e| RegistryError::of(&entry.path, e))?;
        let parse = || -> Result<(PropositionTable, Psm, Hmm), PersistError> {
            Ok((
                Persist::from_json(doc.field("table")?)?,
                Persist::from_json(doc.field("psm")?)?,
                Persist::from_json(doc.field("hmm")?)?,
            ))
        };
        let (table, psm, hmm) = parse().map_err(|e| RegistryError::of(&entry.path, e))?;
        let compile_fresh = || {
            CompiledModel::compile_with_dictionary(&table, &psm, &hmm)
                .map_err(|e| PersistError::schema(e.to_string()))
        };
        let compiled = if format_version >= psm_persist::ARTIFACT_VERSION_COMPILED {
            // The shipped section must be the *exact* compilation of the
            // model beside it — compared on the canonical render, which
            // distinguishes even -0.0 from 0.0.
            let verify = || -> Result<CompiledModel, PersistError> {
                let shipped: CompiledModel = Persist::from_json(doc.field("compiled")?)?;
                if shipped.to_json().render() != compile_fresh()?.to_json().render() {
                    return Err(PersistError::schema(
                        "compiled section disagrees with the model it ships with",
                    ));
                }
                Ok(shipped)
            };
            verify()
        } else {
            compile_fresh()
        }
        .map_err(|e| RegistryError::of(&entry.path, e))?;
        Ok(ServedModel {
            name: entry.name.clone(),
            version: entry.version,
            format_version,
            table,
            compiled,
        })
    }

    /// Number of PSM states.
    pub fn state_count(&self) -> usize {
        self.compiled.num_states()
    }

    /// Number of mined propositions in the classification table.
    pub fn proposition_count(&self) -> usize {
        self.table.len()
    }

    /// The compiled runtime (shipped by v3 artifacts, compiled at load
    /// time from v1/v2).
    pub fn compiled(&self) -> &CompiledModel {
        &self.compiled
    }

    /// Estimates one trace. Identical, instant for instant, to the
    /// facade's `PsmFlow::estimate_from_trace` on the same loaded model.
    pub fn estimate(&self, trace: &FunctionalTrace) -> HmmOutcome {
        let observations = classify_trace(&self.table, trace);
        let hamming = trace.input_hamming_series();
        self.compiled.run(&observations, &hamming)
    }

    /// Classifies one chunk of a streamed trace against the model's
    /// proposition table. Classification is per-instant, so chunked
    /// classification equals classification of the concatenated trace.
    pub fn classify_chunk(&self, chunk: &FunctionalTrace) -> Vec<Option<PropositionId>> {
        classify_trace(&self.table, chunk)
    }
}

/// An immutable set of loaded models, sorted by name then version.
#[derive(Debug, Default)]
pub struct Snapshot {
    models: Vec<Arc<ServedModel>>,
}

impl Snapshot {
    /// Resolves a model by name; `version: None` picks the highest
    /// loaded version of that name.
    pub fn lookup(&self, name: &str, version: Option<u64>) -> Option<Arc<ServedModel>> {
        match version {
            Some(v) => self
                .models
                .iter()
                .find(|m| m.name == name && m.version == v),
            // Sorted by (name, version): the last match is the highest.
            None => self.models.iter().rev().find(|m| m.name == name),
        }
        .cloned()
    }

    /// Every loaded model, sorted by name then version.
    pub fn models(&self) -> &[Arc<ServedModel>] {
        &self.models
    }

    /// Number of loaded models.
    pub fn len(&self) -> usize {
        self.models.len()
    }

    /// Whether the snapshot holds no models.
    pub fn is_empty(&self) -> bool {
        self.models.is_empty()
    }
}

/// The registry: a directory plus the current [`Snapshot`], swapped
/// atomically by [`reload`](Registry::reload).
#[derive(Debug)]
pub struct Registry {
    dir: PathBuf,
    current: Mutex<Arc<Snapshot>>,
}

impl Registry {
    /// Opens a registry directory and loads every artifact in it.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] when the directory cannot be listed or any
    /// artifact fails to load — an unreadable registry never comes up
    /// half-populated.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Registry, RegistryError> {
        let dir = dir.into();
        let snapshot = Self::scan(&dir)?;
        Ok(Registry {
            dir,
            current: Mutex::new(Arc::new(snapshot)),
        })
    }

    /// The registry directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The current snapshot. Cheap: one mutex lock and an `Arc` clone.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.current.lock().expect("registry lock poisoned").clone()
    }

    /// Re-scans the directory and atomically swaps in the new snapshot.
    ///
    /// All-or-nothing: if *any* artifact fails to load, the previous
    /// snapshot stays current and the error is returned. Requests
    /// already holding a model from the old snapshot are unaffected
    /// either way.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Registry::open`].
    pub fn reload(&self) -> Result<Arc<Snapshot>, RegistryError> {
        let snapshot = Arc::new(Self::scan(&self.dir)?);
        *self.current.lock().expect("registry lock poisoned") = snapshot.clone();
        Ok(snapshot)
    }

    fn scan(dir: &Path) -> Result<Snapshot, RegistryError> {
        let entries = psm_persist::list_artifacts(dir)
            .map_err(|source| RegistryError { path: None, source })?;
        let models = entries
            .iter()
            .map(|e| ServedModel::load(e).map(Arc::new))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Snapshot { models })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::{toy_model_json, toy_trace};
    use psm_persist::JsonValue;

    fn write_artifact(dir: &Path, file: &str, body: &JsonValue) {
        std::fs::write(dir.join(file), psm_persist::encode_artifact(body)).unwrap();
    }

    fn temp_registry(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psm-serve-registry-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn open_lookup_and_version_pinning() {
        let dir = temp_registry("lookup");
        let body = toy_model_json();
        write_artifact(&dir, "ram@1.json", &body);
        write_artifact(&dir, "ram@2.json", &body);
        // A legacy headerless artifact still serves.
        std::fs::write(dir.join("mac.json"), body.render()).unwrap();

        let registry = Registry::open(&dir).unwrap();
        let snap = registry.snapshot();
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.lookup("ram", None).unwrap().version, 2);
        assert_eq!(snap.lookup("ram", Some(1)).unwrap().version, 1);
        assert!(snap.lookup("ram", Some(9)).is_none());
        assert!(snap.lookup("fft", None).is_none());
        let mac = snap.lookup("mac", None).unwrap();
        assert_eq!(mac.format_version, 1);
        assert!(mac.state_count() > 0);
        assert!(mac.proposition_count() > 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Parses the three substrate fields back out of a rendered body.
    fn substrate(body: &JsonValue) -> (PropositionTable, Psm, Hmm) {
        (
            Persist::from_json(body.field("table").unwrap()).unwrap(),
            Persist::from_json(body.field("psm").unwrap()).unwrap(),
            Persist::from_json(body.field("hmm").unwrap()).unwrap(),
        )
    }

    /// Renders `body` plus a `compiled` section as a v3 artifact.
    fn v3_text(body: JsonValue, compiled: &CompiledModel) -> String {
        let JsonValue::Obj(mut fields) = body else {
            unreachable!("model bodies are objects")
        };
        fields.push(("compiled".to_owned(), compiled.to_json()));
        psm_persist::encode_artifact_versioned(
            &JsonValue::Obj(fields),
            psm_persist::ARTIFACT_VERSION_COMPILED,
        )
    }

    #[test]
    fn v3_artifacts_serve_identically_to_v2() {
        let dir = temp_registry("v3");
        let body = toy_model_json();
        write_artifact(&dir, "toy@1.json", &body);
        let (table, psm, hmm) = substrate(&body);
        let compiled = CompiledModel::compile_with_dictionary(&table, &psm, &hmm).unwrap();
        std::fs::write(dir.join("toy@2.json"), v3_text(body, &compiled)).unwrap();

        let registry = Registry::open(&dir).unwrap();
        let v2 = registry.snapshot().lookup("toy", Some(1)).unwrap();
        let v3 = registry.snapshot().lookup("toy", Some(2)).unwrap();
        assert_eq!(v2.format_version, 2);
        assert_eq!(v3.format_version, 3);
        assert_eq!(v3.compiled().num_states(), v3.state_count());

        // Compiled on the fly and shipped pre-compiled agree to the bit,
        // and both match the reference simulator.
        let trace = toy_trace();
        let a = v2.estimate(&trace);
        let b = v3.estimate(&trace);
        let observations = classify_trace(&table, &trace);
        let want =
            psm_hmm::HmmSimulator::new(&psm, hmm).run(&observations, &trace.input_hamming_series());
        assert_eq!(a, want);
        assert_eq!(a.estimate.len(), trace.len());
        for (x, y) in a.estimate.iter().zip(b.estimate.iter()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_artifact_with_divergent_compiled_section_is_rejected() {
        let dir = temp_registry("v3-divergent");
        let body = toy_model_json();
        let (_, psm, hmm) = substrate(&body);
        // Structurally valid, but compiled without the classification
        // dictionary the shipped table would produce.
        let divergent = CompiledModel::compile(&psm, &hmm).unwrap();
        std::fs::write(dir.join("toy@1.json"), v3_text(body, &divergent)).unwrap();
        let err = Registry::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("toy@1.json") && msg.contains("disagrees"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn v3_artifact_missing_its_compiled_section_is_rejected() {
        let dir = temp_registry("v3-missing");
        std::fs::write(
            dir.join("toy@1.json"),
            psm_persist::encode_artifact_versioned(
                &toy_model_json(),
                psm_persist::ARTIFACT_VERSION_COMPILED,
            ),
        )
        .unwrap();
        let err = Registry::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("toy@1.json") && msg.contains("compiled"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_reload_keeps_the_old_snapshot() {
        let dir = temp_registry("reload");
        write_artifact(&dir, "toy@1.json", &toy_model_json());
        let registry = Registry::open(&dir).unwrap();
        assert_eq!(registry.snapshot().len(), 1);

        // A corrupt newcomer fails the reload atomically…
        std::fs::write(dir.join("bad@1.json"), "not an artifact").unwrap();
        let err = registry.reload().unwrap_err();
        assert!(err.to_string().contains("bad@1.json"), "{err}");
        assert_eq!(registry.snapshot().len(), 1, "old snapshot survives");

        // …and fixing the directory makes the next reload land.
        std::fs::remove_file(dir.join("bad@1.json")).unwrap();
        write_artifact(&dir, "toy@2.json", &toy_model_json());
        let snap = registry.reload().unwrap();
        assert_eq!(snap.len(), 2);
        assert_eq!(registry.snapshot().lookup("toy", None).unwrap().version, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reload_never_invalidates_a_held_model() {
        let dir = temp_registry("held");
        write_artifact(&dir, "toy@1.json", &toy_model_json());
        let registry = Registry::open(&dir).unwrap();
        let held = registry.snapshot().lookup("toy", None).unwrap();

        // The artifact disappears from disk; the reload drops it from the
        // registry, but the held Arc keeps estimating.
        std::fs::remove_file(dir.join("toy@1.json")).unwrap();
        let snap = registry.reload().unwrap();
        assert!(snap.is_empty());
        let out = held.estimate(&toy_trace());
        assert_eq!(out.estimate.len(), toy_trace().len());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn structured_errors_for_unservable_artifacts() {
        let dir = temp_registry("unservable");
        // Well-formed JSON, but not a flat trained model.
        std::fs::write(
            dir.join("hier@1.json"),
            psm_persist::encode_artifact(&JsonValue::obj([
                ("domains", JsonValue::arr([])),
                ("models", JsonValue::arr([])),
            ])),
        )
        .unwrap();
        let err = Registry::open(&dir).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("hier@1.json") && msg.contains("table"),
            "{msg}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directory_is_a_directory_level_error() {
        let err = Registry::open("/nonexistent/psmd/registry").unwrap_err();
        assert!(err.path.is_none());
        assert!(matches!(err.source, PersistError::Io(_)));
    }
}
