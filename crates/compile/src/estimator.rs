//! The row estimator: classify, input Hamming distance and one compiled
//! forward step per trace row, in one pass over the rows.

use std::borrow::Cow;

use psm_hmm::HmmOutcome;
use psm_mining::{ClassifyError, PropositionTable, RowClassifier};
use psm_trace::{FunctionalTrace, InputSpans, PowerTrace, SignalSet, TraceError};

use crate::model::CompiledModel;
use crate::pass::CompiledForwardState;

/// A compiled model and its proposition table's classifier, both resolved
/// against one row layout: everything that turns functional-trace rows
/// into power estimates. The flow's estimation borrows its model's table;
/// `psmd`'s served models own theirs, and their one-shot and streamed
/// requests all run through it.
///
/// Each row costs one pass:
///
/// 1. the row is classified only when it differs from the previous row
///    of the same chunk in a word the table's atoms read
///    ([`RowClassifier::classify_rows`]); otherwise the previous class is
///    kept, which is exact because a class is a pure function of those
///    words. The first row of every chunk is classified afresh;
/// 2. the input Hamming distance to the previous row — the last row of
///    the previous chunk, for a chunk's first row — is taken in the same
///    pass;
/// 3. one [`CompiledModel::step`] turns both into the row's estimate.
///
/// The result is bit-identical to classifying the whole trace
/// (`PropositionTable::classify_trace`), taking its
/// `FunctionalTrace::input_hamming_series`, and running
/// `psm_hmm::HmmSimulator::run` over both, one-shot and under any
/// chunking.
///
/// # Examples
///
/// ```
/// use std::borrow::Cow;
///
/// use psm_compile::{CompiledModel, RowEstimator};
/// use psm_core::{classify_trace, generate_psm, join, MergePolicy};
/// use psm_hmm::{build_hmm, HmmSimulator};
/// use psm_mining::{Miner, MiningConfig};
/// use psm_trace::{Bits, Direction, FunctionalTrace, PowerTrace, SignalSet};
///
/// let mut signals = SignalSet::new();
/// signals.push("en", 1, Direction::Input)?;
/// let mut phi = FunctionalTrace::new(signals);
/// for v in [1u64, 1, 1, 0, 0, 1, 1, 0] {
///     phi.push_cycle(vec![Bits::from_u64(v, 1)])?;
/// }
/// let power: PowerTrace = phi.iter().map(|row| 2.0 + 5.0 * row.as_words()[0] as f64).collect();
/// let mined = Miner::new(MiningConfig::default()).mine(&[&phi])?;
/// let psm = join(&[generate_psm(&mined.traces[0], &power, 0)?], &MergePolicy::default());
/// let hmm = build_hmm(&psm, mined.table.len());
///
/// let compiled = CompiledModel::compile(&psm, &hmm)?;
/// let estimator = RowEstimator::new(Cow::Borrowed(&mined.table), phi.signals(), compiled)?;
/// let reference = HmmSimulator::new(&psm, hmm)
///     .run(&classify_trace(&mined.table, &phi), &phi.input_hamming_series());
/// assert_eq!(estimator.run(&phi), reference);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct RowEstimator<'t> {
    classifier: RowClassifier<'t>,
    inputs: InputSpans,
    model: CompiledModel,
}

/// The resumable state of a [`RowEstimator`] run: the compiled forward
/// state, the last row fed, and the classifier's scratch. Every buffer is
/// sized by [`RowEstimator::begin`], so feeding rows allocates nothing
/// but the caller's output trace.
#[derive(Debug, Clone)]
pub struct EstimatorState {
    forward: CompiledForwardState,
    /// The last row fed, once `has_prev`.
    prev: Vec<u64>,
    has_prev: bool,
    truths: Vec<u64>,
}

impl EstimatorState {
    /// Wrong-state predictions so far.
    pub fn wrong_state_predictions(&self) -> usize {
        self.forward.wrong_state_predictions()
    }

    /// Unknown instants so far.
    pub fn unknown_instants(&self) -> usize {
        self.forward.unknown_instants()
    }

    /// Rows estimated so far.
    pub fn instants(&self) -> usize {
        self.forward.instants()
    }
}

impl<'t> RowEstimator<'t> {
    /// Resolves `table`'s atoms and the input words against the row
    /// layout of `signals`, around the model compiled from the same
    /// training run.
    ///
    /// # Errors
    ///
    /// The [`ClassifyError`] of [`RowClassifier::new`] when `signals`
    /// cannot hold the table's atoms.
    pub fn new(
        table: Cow<'t, PropositionTable>,
        signals: &SignalSet,
        model: CompiledModel,
    ) -> Result<RowEstimator<'t>, ClassifyError> {
        Ok(RowEstimator {
            classifier: RowClassifier::new(table, signals)?,
            inputs: InputSpans::new(signals),
            model,
        })
    }
}

impl RowEstimator<'_> {
    /// The proposition table the estimator classifies rows against.
    pub fn table(&self) -> &PropositionTable {
        self.classifier.table()
    }

    /// The compiled model the estimator steps.
    pub fn model(&self) -> &CompiledModel {
        &self.model
    }

    /// Words per row of the layout the estimator was resolved against.
    pub fn row_words(&self) -> usize {
        self.classifier.row_words()
    }

    /// A fresh state, positioned before the first row.
    pub fn begin(&self) -> EstimatorState {
        EstimatorState {
            forward: self.model.begin(),
            prev: Vec::with_capacity(self.row_words()),
            has_prev: false,
            truths: self.classifier.truth_buffer(),
        }
    }

    /// Estimates every row of `chunk`, appending one power estimate per
    /// row to `estimate`, and leaves `state` after the chunk's last row.
    ///
    /// # Errors
    ///
    /// [`TraceError::CycleShapeMismatch`] (counting words) when `chunk`'s
    /// rows are not as wide as the estimator's layout; nothing is
    /// estimated then.
    pub fn feed(
        &self,
        state: &mut EstimatorState,
        chunk: &FunctionalTrace,
        estimate: &mut PowerTrace,
    ) -> Result<(), TraceError> {
        let width = self.row_words();
        let actual = chunk.signals().words_per_cycle();
        if actual != width {
            return Err(TraceError::CycleShapeMismatch {
                expected: width,
                actual,
            });
        }
        // `prev` is the row before the current one; before a stream's
        // first row there is none, and that row's distance is 0.
        let EstimatorState {
            forward,
            prev: last,
            has_prev,
            truths,
        } = state;
        let mut prev: Option<&[u64]> = has_prev.then_some(last);
        for (row, class) in self.classifier.classify_rows(chunk, truths) {
            let hamming = prev.map_or(0, |prev| self.inputs.distance(prev, row));
            estimate.push(self.model.step(forward, class, hamming));
            prev = Some(row);
        }
        if let Some(t) = chunk.len().checked_sub(1) {
            last.clear();
            last.extend_from_slice(chunk.cycle(t).as_words());
            *has_prev = true;
        }
        Ok(())
    }

    /// Estimates a whole trace from a fresh state — the one-shot twin of
    /// `HmmSimulator::run` over the trace's classes and input Hamming
    /// series.
    ///
    /// # Panics
    ///
    /// Panics when `trace`'s rows are not as wide as the estimator's
    /// layout.
    pub fn run(&self, trace: &FunctionalTrace) -> HmmOutcome {
        let mut state = self.begin();
        let mut estimate = PowerTrace::with_capacity(trace.len());
        if let Err(e) = self.feed(&mut state, trace, &mut estimate) {
            panic!("the trace is not laid out as the estimator's rows: {e}");
        }
        state.forward.outcome(estimate)
    }
}
