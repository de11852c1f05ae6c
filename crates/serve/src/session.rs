//! Streaming estimation sessions: resumable per-stream forward state.
//!
//! A [`StreamSession`] is the server-side object behind one `STREAM_OPEN`.
//! It pins an `Arc<ServedModel>` (so registry reloads never invalidate a
//! live stream) and carries the allocation-free
//! [`CompiledForwardState`] of the model's compiled runtime, plus the
//! last cycle of the previous chunk, which stitches the input-Hamming
//! series across chunk boundaries. Feeding chunks c₁, …, cₖ produces,
//! instant for instant, the *bit-identical* estimate of a one-shot run
//! over the concatenated trace c₁‖…‖cₖ — the session is the one-shot path
//! with a pause button, not an approximation of it.

use crate::registry::ServedModel;
use psm_compile::CompiledForwardState;
use psm_trace::{Bits, FunctionalTrace, PowerTrace, TraceError};
use std::sync::Arc;

/// The incremental result of feeding one chunk into a session.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkOutcome {
    /// Per-instant power estimate (mW) for *this chunk only*.
    pub estimate: PowerTrace,
    /// Cumulative wrong-state predictions across the whole stream so far.
    pub wrong_state_predictions: usize,
    /// Cumulative unknown instants across the whole stream so far.
    pub unknown_instants: usize,
    /// Total instants estimated across the whole stream so far.
    pub instants: usize,
}

/// One live estimation stream over a pinned model.
#[derive(Debug)]
pub struct StreamSession {
    model: Arc<ServedModel>,
    state: CompiledForwardState,
    prev_cycle: Option<Vec<Bits>>,
}

impl StreamSession {
    /// Opens a session against `model`, positioned before the first
    /// instant. No allocation beyond the forward state itself happens per
    /// chunk after this point.
    pub fn open(model: Arc<ServedModel>) -> StreamSession {
        let state = model.compiled().begin();
        StreamSession {
            model,
            state,
            prev_cycle: None,
        }
    }

    /// The model this stream is pinned to.
    pub fn model(&self) -> &Arc<ServedModel> {
        &self.model
    }

    /// Total instants estimated so far.
    pub fn instants(&self) -> usize {
        self.state.instants()
    }

    /// Cumulative wrong-state predictions so far.
    pub fn wrong_state_predictions(&self) -> usize {
        self.state.wrong_state_predictions()
    }

    /// Cumulative unknown instants so far.
    pub fn unknown_instants(&self) -> usize {
        self.state.unknown_instants()
    }

    /// Feeds the next chunk of the trace and returns its estimate plus
    /// the stream's cumulative counters.
    ///
    /// # Errors
    ///
    /// [`TraceError::CycleShapeMismatch`] when the chunk's interface
    /// does not match the previous chunk's (the daemon decodes chunks
    /// against the `STREAM_OPEN` dictionary, so this is defensive).
    pub fn feed(&mut self, chunk: &FunctionalTrace) -> Result<ChunkOutcome, TraceError> {
        let observations = self.model.classify_chunk(chunk);
        let mut hamming = chunk.input_hamming_series();
        if let (Some(prev), Some(first)) = (&self.prev_cycle, hamming.first_mut()) {
            *first = chunk.input_hamming_vs(prev, 0)?;
        }
        let mut estimate = PowerTrace::with_capacity(chunk.len());
        self.model
            .compiled()
            .resume(&mut self.state, &observations, &hamming, &mut estimate);
        if !chunk.is_empty() {
            self.prev_cycle = Some(chunk.cycle(chunk.len() - 1).to_vec());
        }
        Ok(ChunkOutcome {
            estimate,
            wrong_state_predictions: self.wrong_state_predictions(),
            unknown_instants: self.unknown_instants(),
            instants: self.instants(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::test_support::{toy_model_json, toy_trace};

    fn toy_model() -> Arc<ServedModel> {
        let dir = std::env::temp_dir().join("psm-serve-session-toy");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("toy@1.json"),
            psm_persist::encode_artifact(&toy_model_json()),
        )
        .unwrap();
        let model = Registry::open(&dir)
            .unwrap()
            .snapshot()
            .lookup("toy", None)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        model
    }

    #[test]
    fn chunked_stream_is_bit_identical_to_one_shot() {
        let model = toy_model();
        let trace = toy_trace();
        let oneshot = model.estimate(&trace);
        for window in 1..=trace.len() {
            let mut session = StreamSession::open(model.clone());
            let mut streamed: Vec<f64> = Vec::new();
            let mut last = None;
            for chunk in trace.split_windows(window) {
                let out = session.feed(&chunk).unwrap();
                streamed.extend(out.estimate.iter());
                last = Some(out);
            }
            let last = last.unwrap();
            assert_eq!(streamed.len(), oneshot.estimate.len());
            for (s, o) in streamed.iter().zip(oneshot.estimate.iter()) {
                assert_eq!(s.to_bits(), o.to_bits(), "window {window}");
            }
            assert_eq!(
                last.wrong_state_predictions,
                oneshot.wrong_state_predictions
            );
            assert_eq!(last.unknown_instants, oneshot.unknown_instants);
            assert_eq!(last.instants, trace.len());
        }
    }

    #[test]
    fn empty_chunk_is_a_no_op() {
        let model = toy_model();
        let trace = toy_trace();
        let mut session = StreamSession::open(model.clone());
        let empty = FunctionalTrace::new(trace.signals().clone());
        let out = session.feed(&empty).unwrap();
        assert!(out.estimate.is_empty());
        assert_eq!(out.instants, 0);
        // Estimation continues unperturbed after the empty chunk.
        let out = session.feed(&trace).unwrap();
        assert_eq!(out.instants, trace.len());
        let oneshot = model.estimate(&trace);
        for (s, o) in out.estimate.iter().zip(oneshot.estimate.iter()) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
    }

    #[test]
    fn shape_drift_is_rejected() {
        let model = toy_model();
        let trace = toy_trace();
        let mut session = StreamSession::open(model);
        session.feed(&trace).unwrap();
        // A chunk over a wider interface cannot follow.
        let mut wide = psm_trace::SignalSet::new();
        wide.push("en", 1, psm_trace::Direction::Input).unwrap();
        wide.push("extra", 1, psm_trace::Direction::Input).unwrap();
        let mut bad = FunctionalTrace::new(wide);
        bad.push_cycle(vec![Bits::from_bool(true), Bits::from_bool(false)])
            .unwrap();
        assert!(matches!(
            session.feed(&bad),
            Err(TraceError::CycleShapeMismatch { .. })
        ));
    }

    #[test]
    fn session_pins_its_model() {
        let model = toy_model();
        let session = StreamSession::open(model.clone());
        assert!(Arc::ptr_eq(session.model(), &model));
    }
}
