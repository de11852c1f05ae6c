//! Dynamic mining of propositions and temporal assertions from functional
//! traces — the §III-A front-end of Danese et al. (DATE 2016), implementing
//! the two-phase procedure of their ref.\[9\] (Danese et al., DATE 2015).
//!
//! # The two phases
//!
//! 1. **Atomic-proposition extraction** ([`Miner::mine_vocabulary`]): scan a
//!    set of training functional traces and collect atomic propositions
//!    that hold *frequently* — `v = c` for control-like signals with a small
//!    observed domain, and `v ∘ w` (for ∘ ∈ {=, <, >}) between equal-width
//!    signals. The result is a [`PropositionVocabulary`]: the columns of the
//!    paper's truth matrix *m*.
//!
//! 2. **Composition** ([`Miner::mine`], through
//!    [`PropositionTable::intern_trace`]): evaluate every atom at every
//!    instant (a row of *m*) and intern each distinct row as one
//!    [`Proposition`] — an AND-composition of the atoms. By construction
//!    **exactly one proposition holds at every instant**: propositions are
//!    identified with full truth-value rows (closed-world composition), so
//!    they are mutually exclusive on *any* trace, including traces unseen
//!    during mining. An unseen row during later simulation classifies as
//!    *unknown behaviour* — the trigger for the HMM resynchronisation of
//!    paper §V.
//!
//! The proposition trace is then scanned for `next`/`until` temporal
//! patterns ([`TemporalAssertion`]) by the XU automaton in `psm-core`.
//!
//! # Examples
//!
//! Reproduce the paper's Fig. 3 (functional trace → proposition trace):
//!
//! ```
//! use psm_mining::{Miner, MiningConfig};
//! use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
//!
//! let mut signals = SignalSet::new();
//! signals.push("v1", 1, Direction::Input)?;
//! signals.push("v2", 1, Direction::Input)?;
//! signals.push("v3", 4, Direction::Output)?;
//! signals.push("v4", 4, Direction::Output)?;
//! let mut phi = FunctionalTrace::new(signals);
//! let rows: [(u64, u64, u64, u64); 8] = [
//!     (1, 0, 3, 1), (1, 0, 3, 1), (1, 0, 3, 1),   // p_a
//!     (0, 1, 3, 3), (0, 1, 4, 4), (0, 1, 2, 2),   // p_b
//!     (1, 1, 0, 0),                               // p_c
//!     (1, 1, 3, 1),                               // p_d
//! ];
//! for (v1, v2, v3, v4) in rows {
//!     phi.push_cycle(vec![
//!         Bits::from_u64(v1, 1),
//!         Bits::from_u64(v2, 1),
//!         Bits::from_u64(v3, 4),
//!         Bits::from_u64(v4, 4),
//!     ])?;
//! }
//!
//! let miner = Miner::new(MiningConfig::default());
//! let mined = miner.mine(&[&phi])?;
//! let gamma = &mined.traces[0];
//! // Four distinct propositions, grouped exactly as the paper's Γ.
//! assert_eq!(mined.table.len(), 4);
//! assert_eq!(gamma.id(0), gamma.id(2));
//! assert_eq!(gamma.id(3), gamma.id(5));
//! assert_ne!(gamma.id(5), gamma.id(6));
//! assert_ne!(gamma.id(6), gamma.id(7));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![deny(missing_docs)]

mod atom;
mod config;
mod miner;
mod proposition;
mod report;
mod temporal;
mod trace;

pub use atom::{AtomicProposition, Comparison};
pub use config::MiningConfig;
pub use miner::{MinedTraces, Miner};
pub use proposition::{
    ClassifyError, Proposition, PropositionId, PropositionTable, PropositionVocabulary,
    RowClassifier,
};
pub use report::{AtomSupport, MiningReport};
pub use temporal::{TemporalAssertion, TemporalPattern};
pub use trace::PropositionTrace;

use std::error::Error;
use std::fmt;

/// Errors produced by the mining flow.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MiningError {
    /// No trace (or an empty trace) was supplied; nothing can be mined.
    EmptyTrace,
    /// Traces passed to one mining run declare different interfaces.
    SignalSetMismatch,
    /// No atomic proposition survived the support thresholds, so instants
    /// cannot be distinguished at all.
    EmptyVocabulary,
}

impl fmt::Display for MiningError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MiningError::EmptyTrace => write!(f, "cannot mine from an empty trace set"),
            MiningError::SignalSetMismatch => {
                write!(f, "traces in one mining run must share a signal interface")
            }
            MiningError::EmptyVocabulary => {
                write!(f, "no atomic proposition survived the support thresholds")
            }
        }
    }
}

impl Error for MiningError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        for e in [
            MiningError::EmptyTrace,
            MiningError::SignalSetMismatch,
            MiningError::EmptyVocabulary,
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
