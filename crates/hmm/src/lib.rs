//! Hidden-Markov-Model simulation of combined power state machines —
//! §V of Danese et al. (DATE 2016).
//!
//! After `join`, a PSM may be **non-deterministic**: a state can carry
//! several alternative assertion chains with the same entry proposition,
//! and several initial states may compete at time zero. The paper resolves
//! every such choice statistically with an HMM λ = (A, B, π):
//!
//! * hidden states **Q** — the states of all generated PSMs
//!   ([`build_hmm`] maps them 1:1 from the joined [`Psm`](psm_core::Psm));
//! * observable events **E** — the mined propositions observed each
//!   instant;
//! * `A[i][j]` — from the PSM's transition structure, with self-loop
//!   probabilities matching each state's expected dwell time (geometric
//!   approximation of its mean training-run length);
//! * `B[j][k]` — how often proposition `k` characterises state `j`,
//!   counting the multiplicity introduced by `join` (the paper's b_jk);
//! * `π` — how many training traces started in each initial state.
//!
//! [`HmmSimulator`] then replays fresh observations with the **filtering**
//! approach: the belief over hidden states is propagated through A and
//! conditioned on each observation; the maximum-likelihood state supplies
//! the power estimate. When the belief collapses to zero mass the previous
//! prediction was wrong — a **wrong-state prediction** (the paper's WSP
//! column) — and the simulator re-synchronises from the emission model
//! alone; if even that fails the behaviour is unknown and the simulator
//! holds the last valid state until a known behaviour reappears.
//!
//! [`HmmSimulator`] is the reference semantics of that walk, written for
//! legibility rather than speed. The flow and the `psmd` daemon estimate
//! through the table-driven `psm-compile` runtime, which the workspace's
//! `tests/compile.rs` pins bit for bit against this simulator.
//!
//! # Examples
//!
//! ```
//! use psm_core::{generate_psm, join, MergePolicy};
//! use psm_hmm::{build_hmm, HmmSimulator};
//! use psm_mining::PropositionTrace;
//! use psm_trace::PowerTrace;
//!
//! // Train on an alternating idle/busy workload.
//! let gamma = PropositionTrace::from_indices(&[0, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0]);
//! let delta: PowerTrace = [3.0, 3.0, 3.0, 9.0, 9.0, 3.0, 3.0, 3.0, 9.0, 9.0, 3.0, 3.0]
//!     .into_iter()
//!     .collect();
//! let psm = generate_psm(&gamma, &delta, 0)?;
//! let joined = join(&[psm], &MergePolicy::default());
//!
//! let hmm = build_hmm(&joined, 2);
//! let sim = HmmSimulator::new(&joined, hmm);
//! let obs: Vec<_> = gamma.iter().map(Some).collect();
//! let outcome = sim.run(&obs, &vec![0; obs.len()]);
//! assert_eq!(outcome.wrong_state_predictions, 0);
//! assert!((outcome.estimate[0] - 3.0).abs() < 0.1);
//! assert!((outcome.estimate[3] - 9.0).abs() < 0.1);
//! # Ok::<(), psm_core::CoreError>(())
//! ```

#![deny(missing_docs)]

mod build;
mod model;
mod simulate;

pub use build::build_hmm;
pub use model::Hmm;
pub use simulate::{HmmOutcome, HmmSimulator};

use std::error::Error;
use std::fmt;

/// Errors produced while constructing an HMM.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum HmmError {
    /// A probability matrix had inconsistent dimensions.
    DimensionMismatch(&'static str),
    /// A probability row summed to zero and cannot be normalised.
    DegenerateDistribution {
        /// Which matrix ("A", "B" or "pi").
        matrix: &'static str,
        /// Offending row.
        row: usize,
    },
    /// The observation sequence referenced an out-of-range symbol.
    UnknownSymbol {
        /// The symbol index.
        symbol: usize,
        /// Number of symbols the model knows.
        known: usize,
    },
}

impl fmt::Display for HmmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HmmError::DimensionMismatch(what) => write!(f, "dimension mismatch: {what}"),
            HmmError::DegenerateDistribution { matrix, row } => {
                write!(f, "row {row} of {matrix} sums to zero")
            }
            HmmError::UnknownSymbol { symbol, known } => {
                write!(
                    f,
                    "observation symbol {symbol} out of range (model knows {known})"
                )
            }
        }
    }
}

impl Error for HmmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs = [
            HmmError::DimensionMismatch("B rows"),
            HmmError::DegenerateDistribution {
                matrix: "A",
                row: 2,
            },
            HmmError::UnknownSymbol {
                symbol: 9,
                known: 4,
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }
}
