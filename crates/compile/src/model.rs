//! The compiled model: flat, index-addressed tables lowered from a trained
//! `(Psm, Hmm)` pair.

use std::error::Error;
use std::fmt;

use psm_core::{OutputFunction, Psm, StateId};
use psm_hmm::Hmm;
use psm_mining::TemporalPattern;

use crate::filter::ForwardFilter;

/// Failures while compiling a model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The PSM and the HMM disagree on the number of states, so the belief
    /// vector cannot index PSM states.
    StateSpaceMismatch {
        /// States in the PSM.
        psm_states: usize,
        /// States in the HMM.
        hmm_states: usize,
    },
    /// The model has no states at all; there is nothing to compile.
    EmptyModel,
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::StateSpaceMismatch {
                psm_states,
                hmm_states,
            } => write!(
                f,
                "PSM has {psm_states} states but HMM has {hmm_states}; the models are not a pair"
            ),
            CompileError::EmptyModel => write!(f, "cannot compile a model with zero states"),
        }
    }
}

impl Error for CompileError {}

/// A trained PSM+HMM lowered to flat tables for serving.
///
/// Every probability, guard, chain part and output coefficient the forward
/// pass reads is re-laid-out into contiguous `Vec`s addressed by dense
/// integer ids — no boxed state objects, no hash lookups, no per-instant
/// allocation. The numeric tables hold exactly the same `f64` values the
/// interpreter reads (no reassociation, no renormalisation), which is why
/// the compiled forward pass is bit-identical to `psm_hmm::HmmSimulator`.
///
/// Only what the forward pass reads is kept: observations arrive already
/// classified (`PropositionTable::classify_trace` is the one classifier),
/// and the state attributes and π stay with the source model.
#[derive(Debug, Clone)]
pub struct CompiledModel {
    /// The HMM side: sparse A and B and the emission fallback beliefs.
    pub(crate) filter: ForwardFilter,
    // ---- PSM structure ----
    /// CSR offsets into the global chain id space: state `s` owns chains
    /// `chain_off[s]..chain_off[s+1]`, its distinct chains in the source
    /// enumeration order.
    pub(crate) chain_off: Vec<u32>,
    /// CSR offsets into the part arrays: chain `c` spans parts
    /// `part_off[c]..part_off[c+1]` (chains are never empty).
    pub(crate) part_off: Vec<u32>,
    /// Left proposition of each chain part (`p` in `p U q` / `p X q`).
    pub(crate) part_left: Vec<u32>,
    /// Right proposition of each chain part.
    pub(crate) part_right: Vec<u32>,
    /// `true` when the part's pattern is `Next` (`false` ⇔ `Until`; the
    /// temporal alphabet has exactly those two patterns).
    pub(crate) part_next: Vec<bool>,
    /// The per-symbol entry table and the alternative-buffer capacity,
    /// both derived from the chain table.
    pub(crate) entries: EntryTable,
    /// CSR offsets: state `s` has outgoing transitions
    /// `trans_off[s]..trans_off[s+1]`, preserving source declaration order.
    pub(crate) trans_off: Vec<u32>,
    /// Target state of each transition.
    pub(crate) trans_to: Vec<u32>,
    /// Guard proposition of each transition.
    pub(crate) trans_guard: Vec<u32>,
    /// Output-function kind per state: 0 = constant, 1 = regression. Kept
    /// as an explicit discriminant — lowering a constant to a slope-0
    /// regression is not bit-safe (`0.0 * h + μ` rewrites `μ = -0.0` to
    /// `+0.0`), and the interpreter evaluates constants without arithmetic.
    pub(crate) out_kind: Vec<u8>,
    /// Regression slope per state (unused slots are 0).
    pub(crate) out_slope: Vec<f64>,
    /// Constant μ or regression intercept per state.
    pub(crate) out_offset: Vec<f64>,
    /// Walker start state: first initial state, or state 0.
    pub(crate) initial_state: u32,
}

/// The states each observation code can enter, bucketed for the resync
/// scan, and the widest state's distinct-chain count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct EntryTable {
    /// Width of the table: one past the largest proposition id that opens
    /// any chain.
    pub(crate) props: usize,
    /// CSR offsets per observation code: symbol `o` opens chains of the
    /// states listed at `state[off[o]..off[o+1]]`.
    pub(crate) off: Vec<u32>,
    /// States with a chain entered by the symbol, ascending per symbol —
    /// the resynchronisation scan order of the interpreter. A state with
    /// several such chains holds one slot: its extra slots would carry an
    /// equal score, which never wins under strict `>`.
    pub(crate) state: Vec<u32>,
    /// Largest per-state count of distinct chains — the alternative-buffer
    /// capacity that makes the compiled step allocation-free.
    pub(crate) max_chains: usize,
}

impl EntryTable {
    /// Buckets the states of a compiled chain table by the entry
    /// propositions of their chains. Walking chains in global order
    /// (states ascending, chains ascending) keeps each symbol's slots in
    /// the interpreter's scan order.
    fn derive(chain_off: &[u32], part_off: &[u32], part_left: &[u32]) -> EntryTable {
        let entry = |c: u32| part_left[part_off[c as usize] as usize] as usize;
        let chains = *chain_off.last().expect("one offset per state plus one");
        let props = (0..chains).map(|c| entry(c) + 1).max().unwrap_or(0);
        let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); props];
        for (s, span) in chain_off.windows(2).enumerate() {
            for c in span[0]..span[1] {
                let bucket = &mut buckets[entry(c)];
                if bucket.last() != Some(&(s as u32)) {
                    bucket.push(s as u32);
                }
            }
        }
        let mut off = Vec::with_capacity(props + 1);
        off.push(0);
        let mut state = Vec::with_capacity(chains as usize);
        for bucket in &buckets {
            state.extend_from_slice(bucket);
            off.push(state.len() as u32);
        }
        let max_chains = chain_off
            .windows(2)
            .map(|span| (span[1] - span[0]) as usize)
            .max()
            .unwrap_or(0);
        EntryTable {
            props,
            off,
            state,
            max_chains,
        }
    }
}

impl CompiledModel {
    /// Compiles a PSM/HMM pair. Observations are `PropositionId`s, as
    /// `PropositionTable::classify_trace` produces them.
    ///
    /// # Errors
    ///
    /// [`CompileError::StateSpaceMismatch`] when the PSM and HMM disagree on
    /// the state count, [`CompileError::EmptyModel`] for zero-state models.
    pub fn compile(psm: &Psm, hmm: &Hmm) -> Result<Self, CompileError> {
        let m = psm.state_count();
        if m != hmm.num_states() {
            return Err(CompileError::StateSpaceMismatch {
                psm_states: m,
                hmm_states: hmm.num_states(),
            });
        }
        if m == 0 {
            return Err(CompileError::EmptyModel);
        }
        // PSM structure, flattened in source enumeration order (states
        // ascending, chains in declaration order) so every tie-break of the
        // interpreted walker is reproduced.
        let mut chain_off: Vec<u32> = Vec::with_capacity(m + 1);
        chain_off.push(0);
        let mut part_off: Vec<u32> = vec![0];
        let mut part_left: Vec<u32> = Vec::new();
        let mut part_right: Vec<u32> = Vec::new();
        let mut part_next: Vec<bool> = Vec::new();
        let mut out_kind: Vec<u8> = Vec::with_capacity(m);
        let mut out_slope: Vec<f64> = Vec::with_capacity(m);
        let mut out_offset: Vec<f64> = Vec::with_capacity(m);
        for (_, state) in psm.states() {
            for chain in state.chains() {
                for part in chain.parts() {
                    part_left.push(part.left().index() as u32);
                    part_right.push(part.right().index() as u32);
                    part_next.push(part.pattern() == TemporalPattern::Next);
                }
                part_off.push(part_left.len() as u32);
            }
            // One part offset per chain so far, after the leading zero.
            chain_off.push((part_off.len() - 1) as u32);
            match state.output() {
                OutputFunction::Constant(mu) => {
                    out_kind.push(0);
                    out_slope.push(0.0);
                    out_offset.push(mu);
                }
                OutputFunction::Regression { slope, intercept } => {
                    out_kind.push(1);
                    out_slope.push(slope);
                    out_offset.push(intercept);
                }
            }
        }
        let entries = EntryTable::derive(&chain_off, &part_off, &part_left);

        // Transitions grouped by source state; `successors` filters the
        // global declaration-ordered vector, so relative order per source
        // is preserved and best-exit ties break exactly as interpreted.
        let mut trans_off: Vec<u32> = Vec::with_capacity(m + 1);
        trans_off.push(0);
        let mut trans_to: Vec<u32> = Vec::new();
        let mut trans_guard: Vec<u32> = Vec::new();
        for s in 0..m {
            for t in psm.successors(StateId::from_index(s)) {
                trans_to.push(t.to.index() as u32);
                trans_guard.push(t.guard.index() as u32);
            }
            trans_off.push(trans_to.len() as u32);
        }

        let initial_state = psm.initials().first().map_or(0, |(s, _)| s.index()) as u32;

        Ok(CompiledModel {
            filter: ForwardFilter::new(hmm),
            chain_off,
            part_off,
            part_left,
            part_right,
            part_next,
            entries,
            trans_off,
            trans_to,
            trans_guard,
            out_kind,
            out_slope,
            out_offset,
            initial_state,
        })
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.filter.m
    }

    /// Number of emission symbols.
    pub fn num_symbols(&self) -> usize {
        self.filter.k
    }
}
