//! JSON persistence for the facade model types.
//!
//! The substrate impls (`Psm`, `Hmm`, `PropositionTable`, …) live in their
//! owning crates; this module adds the facade closure — [`TrainingStats`],
//! [`TrainedModel`], [`HierarchicalModel`] — plus the path-level
//! save/load helpers that wrap failures in [`FlowError::Persistence`].
//!
//! The serialised form is canonical: field order is fixed, numbers render
//! through the deterministic `psm-persist` writer, and the wall-clock
//! `Duration` fields of [`TrainingStats`] are excluded (they depend on the
//! machine and the worker schedule, and would break the parallel engine's
//! byte-identity guarantee).

use crate::flow::{FlowError, HierarchicalModel, TrainedModel, TrainingStats};
use psm_persist::{JsonValue, Persist, PersistError};
use std::path::Path;

impl Persist for TrainingStats {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("training_instants", JsonValue::from(self.training_instants)),
            ("states", JsonValue::from(self.states)),
            ("transitions", JsonValue::from(self.transitions)),
            (
                "states_before_optimisation",
                JsonValue::from(self.states_before_optimisation),
            ),
            ("states_merged", JsonValue::from(self.states_merged)),
            ("calibrated_states", JsonValue::from(self.calibrated_states)),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        Ok(TrainingStats {
            training_instants: v.usize_field("training_instants")?,
            states: v.usize_field("states")?,
            transitions: v.usize_field("transitions")?,
            states_before_optimisation: v.usize_field("states_before_optimisation")?,
            states_merged: v.usize_field("states_merged")?,
            calibrated_states: v.usize_field("calibrated_states")?,
            ..TrainingStats::default()
        })
    }
}

impl Persist for TrainedModel {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("table", self.table.to_json()),
            ("psm", self.psm.to_json()),
            ("hmm", self.hmm.to_json()),
            ("stats", self.stats.to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        Ok(TrainedModel {
            table: Persist::from_json(v.field("table")?)?,
            psm: Persist::from_json(v.field("psm")?)?,
            hmm: Persist::from_json(v.field("hmm")?)?,
            stats: Persist::from_json(v.field("stats")?)?,
        })
    }
}

impl Persist for HierarchicalModel {
    fn to_json(&self) -> JsonValue {
        JsonValue::obj([
            ("domains", self.domains.to_json()),
            ("models", self.models.to_json()),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<Self, PersistError> {
        let model = HierarchicalModel {
            domains: Persist::from_json(v.field("domains")?)?,
            models: Persist::from_json(v.field("models")?)?,
        };
        if model.domains.len() != model.models.len() {
            return Err(PersistError::schema(format!(
                "{} domains but {} models",
                model.domains.len(),
                model.models.len()
            )));
        }
        Ok(model)
    }
}

/// The canonical serialised JSON body of a model — the byte string the
/// parallel-equivalence tests compare. [`TrainedModel::save`] wraps this
/// body in the versioned artifact container
/// (`psm_persist::encode_artifact`, header `psmgen-artifact/v2`).
pub(crate) fn render_model<T: Persist>(value: &T) -> String {
    value.to_json().render()
}

pub(crate) fn save_to_path<T: Persist>(value: &T, path: &Path) -> Result<(), FlowError> {
    std::fs::write(path, psm_persist::encode_artifact(&value.to_json()))
        .map_err(|e| FlowError::persistence_io(path, e))
}

pub(crate) fn load_from_path<T: Persist>(path: &Path) -> Result<T, FlowError> {
    let text = std::fs::read_to_string(path).map_err(|e| FlowError::persistence_io(path, e))?;
    // Every container version loads: v2, v3 (its `compiled` section is
    // ignored) and the bare JSON of v1. Truncated or wrong-magic files
    // fail structurally here.
    let (_, doc) =
        psm_persist::decode_artifact(&text).map_err(|e| FlowError::persistence_format(path, e))?;
    T::from_json(&doc).map_err(|e| FlowError::persistence_format(path, e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_round_trip_without_durations() {
        let stats = TrainingStats {
            training_instants: 1234,
            reference_power_time: std::time::Duration::from_millis(5),
            generation_time: std::time::Duration::from_millis(7),
            states: 9,
            transitions: 14,
            states_before_optimisation: 31,
            states_merged: 22,
            calibrated_states: 3,
        };
        let back = TrainingStats::from_json(&stats.to_json()).unwrap();
        assert_eq!(back.training_instants, stats.training_instants);
        assert_eq!(back.states, stats.states);
        assert_eq!(back.transitions, stats.transitions);
        assert_eq!(
            back.states_before_optimisation,
            stats.states_before_optimisation
        );
        assert_eq!(back.states_merged, stats.states_merged);
        assert_eq!(back.calibrated_states, stats.calibrated_states);
        assert_eq!(back.reference_power_time, std::time::Duration::ZERO);
        assert_eq!(back.generation_time, std::time::Duration::ZERO);
        // Serialisation is schedule-independent: two runs differing only in
        // wall-clock render identically.
        let other = TrainingStats {
            reference_power_time: std::time::Duration::from_secs(60),
            generation_time: std::time::Duration::from_secs(61),
            ..stats.clone()
        };
        assert_eq!(stats.to_json().render(), other.to_json().render());
    }

    #[test]
    fn hierarchical_schema_rejects_misaligned_lengths() {
        let doc = JsonValue::parse(r#"{"domains":["core"],"models":[]}"#).unwrap();
        assert!(HierarchicalModel::from_json(&doc).is_err());
    }
}
