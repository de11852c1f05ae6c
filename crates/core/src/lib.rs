//! Power state machines generated from mined temporal assertions — the core
//! contribution of Danese, Pravadelli and Zandonà, *“Automatic generation of
//! power state machines through dynamic mining of temporal assertions”*
//! (DATE 2016).
//!
//! # Pipeline
//!
//! 1. [`mine_xu_assertions`] walks a proposition trace with the paper's
//!    **XU automaton** (Fig. 5), recognising LTL `next`/`until` patterns;
//! 2. [`generate_psm`] (the paper's `PSMGenerator`, Fig. 4) turns each
//!    recognised assertion into a power state annotated with power
//!    attributes ⟨μ, σ, n⟩ from the reference power trace, chained by
//!    transitions guarded with the exit propositions;
//! 3. [`simplify`] merges *adjacent* mergeable states into sequence-states
//!    `{p_i; p_{i+1}; …}` (paper §IV, Fig. 6a);
//! 4. [`join`] merges mergeable states *across* PSMs into
//!    concurrent-states `{p_i ‖ p_j ‖ …}`, producing one combined model
//!    with multiple initial states (paper §IV, Fig. 6b) — possibly
//!    non-deterministic;
//! 5. [`calibrate`] replaces the constant μ of data-dependent states (high
//!    σ, strong Hamming/power correlation) with a linear-regression output
//!    function (paper §IV);
//! 6. [`classify_trace`] turns a fresh functional trace into the
//!    observation stream of simulation (§III-C): one mined proposition per
//!    instant, `None` for behaviour unseen in training. The HMM forward
//!    pass of `psm-hmm` (compiled by `psm-compile`) walks that stream and
//!    estimates power per instant, for deterministic and joined,
//!    non-deterministic models alike (§V).
//!
//! Mergeability (§IV-A) is decided by [`MergePolicy`]: ε-tolerance between
//! two `next` states (case 1), Welch's t-test between two `until` states
//! (case 2) and a one-sample t-test between an `until` and a `next` state
//! (case 3).
//!
//! # Examples
//!
//! Generate the PSM of the paper's Fig. 5 walk-through:
//!
//! ```
//! use psm_core::{generate_psm, mine_xu_assertions};
//! use psm_mining::{PropositionTrace, TemporalPattern};
//! use psm_trace::PowerTrace;
//!
//! // Γ from the paper's Fig. 3: p_a p_a p_a p_b p_b p_b p_c p_d
//! let gamma = PropositionTrace::from_indices(&[0, 0, 0, 1, 1, 1, 2, 3]);
//! let delta: PowerTrace =
//!     [3.349, 3.339, 3.353, 1.902, 1.906, 1.944, 3.350, 3.343]
//!         .into_iter()
//!         .collect();
//!
//! let mined = mine_xu_assertions(&gamma);
//! assert_eq!(mined.len(), 3); // p_a U p_b, p_b U p_c, p_c X p_d
//! assert_eq!(mined[0].assertion.pattern(), TemporalPattern::Until);
//! assert_eq!(mined[2].assertion.pattern(), TemporalPattern::Next);
//!
//! let psm = generate_psm(&gamma, &delta, 0)?;
//! assert_eq!(psm.state_count(), 3);
//! assert_eq!(psm.transition_count(), 2);
//! # Ok::<(), psm_core::CoreError>(())
//! ```

#![warn(missing_docs)]

mod attrs;
mod calibrate;
mod classify;
mod dot;
mod generator;
mod merge;
mod probe;
mod psm;
mod report;
mod simplify;
mod xu;

pub use attrs::PowerAttributes;
pub use calibrate::{calibrate, CalibrationConfig, CalibrationReport};
pub use classify::classify_trace;
pub use dot::to_dot;
pub use generator::generate_psm;
pub use merge::{join, MergePolicy};
pub use psm::{ChainAssertion, OutputFunction, PowerState, Psm, SourceWindow, StateId, Transition};
pub use report::report;
pub use simplify::simplify;
pub use xu::{mine_xu_assertions, MinedAssertion};

use std::error::Error;
use std::fmt;

/// Errors produced by PSM generation and simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// The proposition and power traces have different lengths.
    TraceLengthMismatch {
        /// Proposition-trace length.
        propositions: usize,
        /// Power-trace length.
        power: usize,
    },
    /// The trace was too short to expose any temporal pattern, so the PSM
    /// would have no states.
    NoBehaviours,
    /// A state id did not belong to the PSM.
    UnknownState(usize),
    /// Calibration referenced a training trace index that was not supplied.
    MissingTrainingTrace(usize),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TraceLengthMismatch {
                propositions,
                power,
            } => write!(
                f,
                "proposition trace has {propositions} instant(s) but power trace has {power}"
            ),
            CoreError::NoBehaviours => {
                write!(
                    f,
                    "trace exposes no temporal pattern; the PSM would be empty"
                )
            }
            CoreError::UnknownState(s) => write!(f, "state s{s} does not belong to this PSM"),
            CoreError::MissingTrainingTrace(i) => {
                write!(
                    f,
                    "calibration needs training trace {i}, which was not supplied"
                )
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs = [
            CoreError::TraceLengthMismatch {
                propositions: 3,
                power: 4,
            },
            CoreError::NoBehaviours,
            CoreError::UnknownState(9),
            CoreError::MissingTrainingTrace(1),
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
