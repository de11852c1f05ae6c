//! Table-driven compiled PSM+HMM serving runtime.
//!
//! Training (mining → PSM generation → HMM calibration) produces a model
//! built for *introspection*: states own boxed chain vectors, the HMM keeps
//! row-of-rows matrices, and the assertion-driven walker of `psm-hmm`
//! allocates a fresh alternative set at every instant. Serving is the
//! opposite workload — the same small model executed millions of instants —
//! so this crate **compiles** a trained `(PropositionTable, Psm, Hmm)`
//! triple into a [`CompiledModel`]: one contiguous bundle of flat,
//! index-addressed tables plus an allocation-free resumable forward pass
//! ([`CompiledForwardState`]).
//!
//! The compiled form is behaviour-preserving to the bit: every estimate,
//! wrong-state-prediction count and unknown-instant count equals the
//! reference `HmmSimulator::run` result exactly, one-shot and under any
//! chunking of the same trace (the workspace's `tests/compile.rs` asserts
//! this on all four paper benchmarks). It is the only estimation runtime
//! of the flow and of `psmd`; `HmmSimulator` remains as the test oracle. See `DESIGN.md` § *Compiled
//! serving runtime* for the table layout and the bit-identity argument.
//!
//! # Examples
//!
//! Compile a hand-built model and run the compiled walker:
//!
//! ```
//! use psm_compile::CompiledModel;
//! use psm_core::{generate_psm, join, MergePolicy};
//! use psm_hmm::{build_hmm, HmmSimulator};
//! use psm_mining::{PropositionId, PropositionTrace};
//! use psm_trace::PowerTrace;
//!
//! let props = [0u32, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0, 0];
//! let power: PowerTrace = props.iter().map(|&p| if p == 0 { 3.0 } else { 9.0 }).collect();
//! let psm = generate_psm(&PropositionTrace::from_indices(&props), &power, 0)?;
//! let joined = join(&[psm], &MergePolicy::default());
//! let hmm = build_hmm(&joined, 2);
//!
//! let compiled = CompiledModel::compile(&joined, &hmm)?;
//! let obs: Vec<_> = [0u32, 0, 1, 1, 0, 0]
//!     .iter()
//!     .map(|&i| Some(PropositionId::from_index(i)))
//!     .collect();
//! let out = compiled.run(&obs, &[0; 6]);
//!
//! // Bit-identical to the interpreted walker.
//! let interp = HmmSimulator::new(&joined, hmm).run(&obs, &[0; 6]);
//! assert_eq!(out, interp);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
#![deny(missing_docs)]

mod model;
mod pass;
mod persist;

pub use model::{CompileError, CompiledModel};
pub use pass::CompiledForwardState;
