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
//! `psm-compile`, compiled here from the artifact's PSM and HMM. v1, v2
//! and v3 artifacts load the same way. A `psmgen-artifact/v3` file is a
//! v2 body plus a `"compiled"` section that earlier builds wrote; the
//! registry never reads that section, so a v3 file serves exactly what
//! its v2 body serves.

use psm_compile::{CompiledModel, RowEstimator};
use psm_core::Psm;
use psm_hmm::{Hmm, HmmOutcome};
use psm_mining::PropositionTable;
use psm_persist::{decode_artifact, ArtifactEntry, Persist, PersistError};
use psm_trace::{FunctionalTrace, SignalSet};
use std::borrow::Cow;
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

/// One loaded model, ready to estimate: the [`RowEstimator`] that owns
/// its proposition table, classifies raw cycles against it and steps the
/// compiled PSM+HMM runtime.
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
    estimator: RowEstimator<'static>,
}

impl ServedModel {
    /// Loads one registry artifact, compiles its PSM and HMM, and
    /// resolves its table's atoms against the table's own interface.
    ///
    /// # Errors
    ///
    /// [`RegistryError`] naming the artifact when the file cannot be
    /// read, is truncated/wrong-magic, its body does not hold the
    /// `table`/`psm`/`hmm` fields of a flat trained model (hierarchical
    /// artifacts are not servable), the PSM and HMM do not compile, or an
    /// atom of the table reads a signal its interface cannot hold.
    pub fn load(entry: &ArtifactEntry) -> Result<ServedModel, RegistryError> {
        let text = std::fs::read_to_string(&entry.path)
            .map_err(|e| RegistryError::of(&entry.path, PersistError::Io(e)))?;
        let (format_version, doc) =
            decode_artifact(&text).map_err(|e| RegistryError::of(&entry.path, e))?;
        let parse = || -> Result<RowEstimator<'static>, PersistError> {
            let table: PropositionTable = Persist::from_json(doc.field("table")?)?;
            let psm: Psm = Persist::from_json(doc.field("psm")?)?;
            let hmm: Hmm = Persist::from_json(doc.field("hmm")?)?;
            let compiled = CompiledModel::compile(&psm, &hmm)
                .map_err(|e| PersistError::schema(e.to_string()))?;
            let signals = table.vocabulary().signals().clone();
            RowEstimator::new(Cow::Owned(table), &signals, compiled)
                .map_err(|e| PersistError::schema(e.to_string()))
        };
        let estimator = parse().map_err(|e| RegistryError::of(&entry.path, e))?;
        Ok(ServedModel {
            name: entry.name.clone(),
            version: entry.version,
            format_version,
            estimator,
        })
    }

    /// Number of PSM states.
    pub fn state_count(&self) -> usize {
        self.compiled().num_states()
    }

    /// Number of mined propositions in the classification table.
    pub fn proposition_count(&self) -> usize {
        self.estimator.table().len()
    }

    /// The compiled runtime, built when the artifact loaded.
    pub fn compiled(&self) -> &CompiledModel {
        self.estimator.model()
    }

    /// The row estimator every request runs through, resolved against
    /// the model's interface when the artifact loaded.
    pub fn estimator(&self) -> &RowEstimator<'static> {
        &self.estimator
    }

    /// Checks that a request's signal dictionary lays out rows the way
    /// this model reads them: the same number of signals, and each with
    /// the model's width and direction, in order. Names are not compared.
    ///
    /// Every trace or stream reaching [`estimate`](Self::estimate) or a
    /// session must pass this first: the estimator reads rows laid out by
    /// the model's signals.
    ///
    /// # Errors
    ///
    /// A message naming the first difference.
    pub fn check_interface(&self, signals: &SignalSet) -> Result<(), String> {
        let model = self.estimator.table().vocabulary().signals();
        if signals.len() != model.len() {
            return Err(format!(
                "interface mismatch: request declares {} signal(s), model {}@{} reads {}",
                signals.len(),
                self.name,
                self.version,
                model.len()
            ));
        }
        for (i, ((_, got), (_, want))) in signals.iter().zip(model.iter()).enumerate() {
            if got.width() != want.width() || got.direction() != want.direction() {
                return Err(format!(
                    "interface mismatch: request signal {i} `{}` is a {}-bit {}, \
                     model {}@{} reads a {}-bit {} `{}`",
                    got.name(),
                    got.width(),
                    got.direction(),
                    self.name,
                    self.version,
                    want.width(),
                    want.direction(),
                    want.name()
                ));
            }
        }
        Ok(())
    }

    /// Estimates one trace. Identical, instant for instant, to the
    /// facade's `PsmFlow::estimate_from_trace` on the same loaded model.
    ///
    /// # Panics
    ///
    /// Panics when the trace's rows are not as wide as the model's
    /// (see [`check_interface`](Self::check_interface)).
    pub fn estimate(&self, trace: &FunctionalTrace) -> HmmOutcome {
        self.estimator.run(trace)
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

    /// Renders `body`, plus `compiled` when given, under a v3 header.
    fn v3_text(body: &JsonValue, compiled: Option<&str>) -> String {
        let JsonValue::Obj(mut fields) = body.clone() else {
            unreachable!("model bodies are objects")
        };
        if let Some(section) = compiled {
            fields.push(("compiled".to_owned(), JsonValue::parse(section).unwrap()));
        }
        format!("psmgen-artifact/v3\n{}\n", JsonValue::Obj(fields).render())
    }

    #[test]
    fn v3_artifacts_serve_their_v2_body_whatever_their_compiled_section() {
        let dir = temp_registry("v3");
        let body = toy_model_json();
        write_artifact(&dir, "toy@1.json", &body);
        // A section in the layout earlier builds wrote, but for a one-state
        // model whose only state outputs 1 W: it disagrees with the body.
        let divergent = r#"{"states":1,"symbols":1,"props":1,"at":[1.0],"bt":[1.0],
            "emission":[1.0],"emission_ok":[true],"chain_off":[0,1],"part_off":[0,1],
            "part_left":[0],"part_right":[0],"part_next":[false],"entry_off":[0,1],
            "entry_state":[0],"trans_off":[0,0],"trans_to":[],"trans_guard":[],
            "out_kind":[0],"out_slope":[0.0],"out_offset":[1000.0],"initial":0}"#;
        let sections = [None, Some(divergent), Some(r#"{"at":[1e308]}"#), Some("5")];
        for (i, section) in sections.iter().enumerate() {
            let file = format!("toy@{}.json", i + 2);
            std::fs::write(dir.join(file), v3_text(&body, *section)).unwrap();
        }

        let registry = Registry::open(&dir).unwrap();
        let snap = registry.snapshot();
        let v2 = snap.lookup("toy", Some(1)).unwrap();
        assert_eq!(v2.format_version, 2);
        let trace = toy_trace();
        let want = v2.estimate(&trace);
        let (table, psm, hmm) = substrate(&body);
        let observations = psm_core::classify_trace(&table, &trace);
        let oracle =
            psm_hmm::HmmSimulator::new(&psm, hmm).run(&observations, &trace.input_hamming_series());
        assert_eq!(want, oracle);
        assert_eq!(want.estimate.len(), trace.len());
        for (i, section) in sections.iter().enumerate() {
            let v3 = snap.lookup("toy", Some(i as u64 + 2)).unwrap();
            assert_eq!(v3.format_version, 3, "{section:?}");
            assert_eq!(v3.compiled().num_states(), v2.state_count());
            let got = v3.estimate(&trace);
            assert_eq!(got.wrong_state_predictions, want.wrong_state_predictions);
            assert_eq!(got.unknown_instants, want.unknown_instants);
            for (x, y) in got.estimate.iter().zip(want.estimate.iter()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{section:?}");
            }
        }
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
