//! Table-driven compiled PSM+HMM serving runtime.
//!
//! Training (mining → PSM generation → HMM calibration) produces a model
//! built for *introspection*: states own boxed chain vectors, the HMM keeps
//! row-of-rows matrices, and the assertion-driven walker of `psm-hmm`
//! allocates a fresh alternative set at every instant. Serving is the
//! opposite workload — the same small model executed millions of instants —
//! so this crate **compiles** a trained `(Psm, Hmm)` pair into a
//! [`CompiledModel`]: one contiguous bundle of flat, index-addressed tables
//! plus an allocation-free resumable forward pass
//! ([`CompiledForwardState`]).
//!
//! The model holds only the tables that pass reads. π and the per-state
//! power attributes stay with the source `Hmm` and `Psm`. Around it, a
//! [`RowEstimator`] turns functional-trace rows into estimates in one
//! pass per row: it classifies a row with the proposition table's
//! `RowClassifier` (only when a word the atoms read changed), takes the
//! row's input Hamming distance and makes one [`CompiledModel::step`].
//! It is the one estimation path of the flow and of `psmd`, one-shot
//! and streamed alike.
//!
//! A compiled model is never written to disk. Compiling takes tens of
//! microseconds, so every consumer — the flow's estimation and `psmd`'s
//! registry alike — calls [`CompiledModel::compile`] on the PSM and HMM
//! it loaded, and a model artifact carries only the trained model.
//!
//! The compiled form is behaviour-preserving to the bit: every estimate,
//! wrong-state-prediction count and unknown-instant count equals the
//! reference `HmmSimulator::run` result exactly, one-shot and under any
//! chunking of the same trace (the workspace's `tests/compile.rs` asserts
//! this on all four paper benchmarks). It is the only estimation runtime
//! of the flow and of `psmd`; `HmmSimulator` remains as the test oracle.
//! The compiled walk does only the work that can change its answer: its
//! filter step skips the zero entries of A and B.
//! See `DESIGN.md` § *Compiled serving runtime* for the table layout and
//! the bit-identity argument.
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

mod estimator;
mod filter;
mod model;
mod pass;

pub use estimator::{EstimatorState, RowEstimator};
pub use model::{CompileError, CompiledModel};
pub use pass::CompiledForwardState;
