//! The psmgen estimation service: daemon, wire protocol, registry, pool.
//!
//! The paper's headline result is that simulating mined PSMs through an
//! HMM estimates power orders of magnitude faster than gate-level
//! simulation — fast enough to sit behind an interactive service. This
//! crate is that service:
//!
//! * [`protocol`] — the `psmd/v2` framed wire protocol (magic, version,
//!   request id, opcode, payload) spoken over `std::net` TCP: JSON
//!   control payloads, binary trace frames ([`psm_trace::binary`]) for
//!   one-shot and streamed estimates. v2 is the only version; the v1
//!   JSON `ESTIMATE` dialect is retired and a v1 frame gets one `ERROR`;
//! * [`registry`] — a directory of `psm-persist` artifacts
//!   (`<model>@<version>.json`) loaded into an immutable snapshot that
//!   the `RELOAD` opcode swaps atomically, never failing in-flight
//!   requests;
//! * [`pool`] — a fixed worker pool with a bounded queue and explicit
//!   backpressure (`BUSY`), answering one job per worker turn and
//!   running per-stream session turns for the streaming opcodes; a job
//!   that panics is answered with an error and its worker serves on;
//! * [`session`] — resumable per-stream forward state: chunked
//!   estimation bit-identical to the one-shot path;
//! * [`daemon`] — the connection engine: a readiness-driven `poll(2)`
//!   event loop ([`poll`]) with non-blocking reads and writes; `STATS`
//!   reports through [`psm_telemetry`] from fixed named counters and
//!   gauges (no per-request spans, so its size does not grow with
//!   requests served), graceful drain on `SHUTDOWN` or SIGTERM
//!   (self-pipe, [`signals`]);
//! * [`client`] — the blocking client the `psmctl` CLI and the loopback
//!   tests/benches use, including the streaming session API.
//!
//! Everything is `std`-only: the workspace builds fully offline.

#![deny(missing_docs)]

pub mod client;
pub mod daemon;
pub mod poll;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod session;
pub mod signals;

#[cfg(test)]
pub(crate) mod test_support;

pub use client::{
    ChunkReply, Client, ClientError, EstimateReply, EstimateStream, ModelInfo, StreamSummary,
};
pub use daemon::{RunningServer, ServeError, Server, ServerConfig, ServerHandle, DEFAULT_ADDR};
pub use pool::PoolConfig;
pub use registry::{Registry, RegistryError, ServedModel, Snapshot};
pub use session::{ChunkOutcome, StreamSession};
