//! Trace substrate for the `psmgen` workspace.
//!
//! The PSM-generation methodology of Danese et al. (DATE 2016) consumes two
//! kinds of *training traces* (paper Def. 2):
//!
//! * a **functional trace** Φ = ⟨φ₁, …, φₙ⟩ — the evaluation of an IP's
//!   primary inputs (PIs) and primary outputs (POs) at each simulation
//!   instant, modelled here by [`FunctionalTrace`];
//! * a **power trace** Δ = ⟨δ₁, …, δₙ⟩ — the IP's dynamic energy consumption
//!   per instant, modelled by [`PowerTrace`].
//!
//! Signal values are arbitrary-width bit-vectors ([`Bits`]) because the
//! paper's benchmarks have interfaces up to 262 bits wide (Camellia).
//! [`SignalSet`] describes an IP's PI/PO interface; Hamming-distance helpers
//! support the paper's §IV regression calibration of data-dependent states.
//!
//! # Examples
//!
//! Build the start of the 8-instant functional trace of the paper's Fig. 3:
//!
//! ```
//! use psm_trace::{Bits, Direction, FunctionalTrace, SignalSet};
//!
//! let mut signals = SignalSet::new();
//! let v1 = signals.push("v1", 1, Direction::Input)?;
//! let v2 = signals.push("v2", 1, Direction::Input)?;
//! let v3 = signals.push("v3", 4, Direction::Output)?;
//! let v4 = signals.push("v4", 4, Direction::Output)?;
//!
//! let mut trace = FunctionalTrace::new(signals);
//! trace.push_cycle(vec![
//!     Bits::from_u64(1, 1),
//!     Bits::from_u64(0, 1),
//!     Bits::from_u64(3, 4),
//!     Bits::from_u64(1, 4),
//! ])?;
//! assert_eq!(trace.len(), 1);
//! assert_eq!(trace.cycle(0).bits(v3).to_u64()?, 3);
//! # let _ = (v1, v2, v4);
//! # Ok::<(), psm_trace::TraceError>(())
//! ```
#![deny(missing_docs)]

mod activity;
pub mod binary;
mod bits;
mod functional;
mod io;
mod persist;
mod power;
mod signal;

pub use activity::{activity_profile, SignalActivity};
pub use bits::Bits;
pub use functional::{FunctionalTrace, InputSpans, Row};
pub use io::{
    read_functional_csv, read_power_csv, write_functional_csv, write_power_csv, write_vcd,
};
pub use power::PowerTrace;
pub use signal::{Direction, SignalDecl, SignalId, SignalSet};

use std::error::Error;
use std::fmt;

/// Errors produced by trace construction and I/O.
#[derive(Debug)]
#[non_exhaustive]
pub enum TraceError {
    /// A bit-vector operation mixed operands of different widths.
    WidthMismatch {
        /// Width of the left operand.
        left: usize,
        /// Width of the right operand.
        right: usize,
    },
    /// A value was too wide for the requested conversion.
    Overflow {
        /// Width of the value in bits.
        width: usize,
        /// Maximum width supported by the conversion.
        max: usize,
    },
    /// A signal name was declared twice in the same [`SignalSet`].
    DuplicateSignal(String),
    /// A pushed cycle did not match the trace's signal interface.
    CycleShapeMismatch {
        /// Number of values expected (one per declared signal).
        expected: usize,
        /// Number of values provided.
        actual: usize,
    },
    /// A pushed value's width did not match its signal declaration.
    SignalWidthMismatch {
        /// Name of the offending signal.
        signal: String,
        /// Declared width.
        expected: usize,
        /// Width of the provided value.
        actual: usize,
    },
    /// Zero-width signals are not representable.
    ZeroWidth,
    /// Underlying I/O failure during trace serialisation.
    Io(std::io::Error),
    /// A serialised trace file could not be parsed.
    Parse {
        /// 1-based line number of the offending record.
        line: usize,
        /// Description of the problem.
        message: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::WidthMismatch { left, right } => {
                write!(f, "bit-vector width mismatch ({left} vs {right})")
            }
            TraceError::Overflow { width, max } => {
                write!(f, "value of width {width} exceeds the maximum of {max}")
            }
            TraceError::DuplicateSignal(name) => {
                write!(f, "signal `{name}` declared twice")
            }
            TraceError::CycleShapeMismatch { expected, actual } => {
                write!(f, "cycle has {actual} value(s), interface has {expected}")
            }
            TraceError::SignalWidthMismatch {
                signal,
                expected,
                actual,
            } => write!(
                f,
                "signal `{signal}` declared {expected} bit(s) wide, got a {actual}-bit value"
            ),
            TraceError::ZeroWidth => write!(f, "zero-width signals are not representable"),
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::Parse { line, message } => {
                write!(f, "trace parse error at line {line}: {message}")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for TraceError {
    fn from(e: std::io::Error) -> Self {
        TraceError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_nonempty() {
        let errs: Vec<TraceError> = vec![
            TraceError::WidthMismatch { left: 3, right: 4 },
            TraceError::Overflow { width: 80, max: 64 },
            TraceError::DuplicateSignal("clk".into()),
            TraceError::CycleShapeMismatch {
                expected: 2,
                actual: 3,
            },
            TraceError::SignalWidthMismatch {
                signal: "a".into(),
                expected: 8,
                actual: 4,
            },
            TraceError::ZeroWidth,
            TraceError::Parse {
                line: 7,
                message: "bad float".into(),
            },
        ];
        for e in errs {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TraceError>();
    }
}
