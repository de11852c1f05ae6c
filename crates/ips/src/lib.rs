//! Benchmark IPs for the `psmgen` workspace — Rust re-implementations of
//! the four designs evaluated in Danese et al. (DATE 2016), Table I:
//!
//! * [`Ram1k`] — a 1 KB (256 × 32) synchronous RAM;
//! * [`MultSum`] — a multiplier-accumulator (the paper's DesignWare MAC);
//! * [`Aes128`] — round-iterative AES-128 encryption/decryption;
//! * [`Camellia128`] — round-iterative Camellia-128 encryption/decryption
//!   (RFC 3713).
//!
//! Every IP exists twice, kept bit- and cycle-equivalent by construction
//! and by the equivalence tests in `tests/`:
//!
//! * a **behavioural model** (the [`Ip`] trait's `step`, one clock cycle
//!   over word rows), playing the role of the paper's SystemC functional
//!   model — fast, used for functional traces and the Table III `IP sim.`
//!   column;
//! * a **structural twin** (`netlist()`), a gate-level netlist built with
//!   `psm-rtl`'s synthesis builder, playing the role of the
//!   DesignCompiler output on which PrimeTime PX estimates power — slow
//!   and golden, used for reference power traces.
//!
//! [`testbench`] generates the paper's two stimulus families: *short-TS*
//! (verification-style directed sequences) and *long-TS* (long randomised
//! re-stimulation).
//!
//! # Examples
//!
//! ```
//! use psm_ips::{Ip, Ram1k};
//! use psm_trace::Bits;
//!
//! let mut ram = Ram1k::new();
//! // One word per port: addr, wdata, we, re, ce, clr in; rdata out.
//! let mut rdata = [0u64];
//! ram.step(&[7, 0xDEAD, 1, 0, 1, 0], &mut rdata); // write 0xDEAD at 7
//! // Read it back: the read loads the output register at the clock edge,
//! // so the value is visible on the following cycle.
//! let read_cycle = [7, 0, 0, 1, 1, 0];
//! ram.step(&read_cycle, &mut rdata);
//! ram.step(&read_cycle, &mut rdata);
//! assert_eq!(rdata, [0xDEAD]);
//!
//! // The same cycle with one `Bits` per port, for tests and examples.
//! let outs = ram.step_bits(&[
//!     Bits::from_u64(7, 8),
//!     Bits::from_u64(0, 32),
//!     Bits::from_bool(false),
//!     Bits::from_bool(true),
//!     Bits::from_bool(true),
//!     Bits::from_bool(false),
//! ]);
//! assert_eq!(outs[0].to_u64()?, 0xDEAD);
//! # Ok::<(), psm_trace::TraceError>(())
//! ```
#![deny(missing_docs)]

mod aes;
mod camellia;
mod harness;
mod multsum;
mod ram;
pub mod testbench;
mod traits;

pub use aes::{encrypt_block as aes_encrypt_block, Aes128};
pub use camellia::{process_block as camellia_process_block, Camellia128, Camellia128Whitebox};
pub use harness::{behavioural_trace, ip_by_name, BENCHMARK_NAMES};
pub use multsum::MultSum;
pub use ram::Ram1k;
pub use traits::Ip;
