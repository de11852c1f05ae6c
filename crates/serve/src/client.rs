//! The blocking `psmd` client — what `psmctl` and the loopback tests
//! and benches speak.
//!
//! A [`Client`] owns one connection and keeps one request in flight at
//! a time, so every response on the socket is the answer to its last
//! request (the id is still checked). Concurrency comes from opening
//! more clients — each daemon connection multiplexes through the
//! daemon's readiness loop and submits into the shared pool.
//!
//! The client speaks protocol v2, the only version there is: one-shot
//! estimates travel as binary trace frames ([`Client::estimate_binary`])
//! and chunked traces stream through [`Client::open_stream`]. The bench
//! harness bypasses the one-in-flight discipline via
//! [`Client::pipeline_request`]/[`Client::pipeline_response`].

use crate::protocol::{self, Frame, Opcode, ProtocolError, Status, PROTOCOL_VERSION};
use psm_persist::{JsonValue, PersistError};
use psm_trace::{FunctionalTrace, SignalSet};
use std::io;
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The daemon (or an imposter) sent bytes that are not `psmd`.
    Protocol(ProtocolError),
    /// The daemon's estimation queue is full — retry later. This is the
    /// wire-level `BUSY` status, surfaced as its own variant because
    /// callers handle it differently from a hard error.
    Busy,
    /// The daemon answered with an error message.
    Server(String),
    /// The response payload does not match the documented schema.
    Schema(PersistError),
    /// The daemon closed the connection before answering.
    Disconnected,
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy => write!(f, "daemon busy: estimation queue is full, retry later"),
            ClientError::Server(msg) => write!(f, "daemon error: {msg}"),
            ClientError::Schema(e) => write!(f, "malformed daemon response: {e}"),
            ClientError::Disconnected => write!(f, "daemon closed the connection"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Io(e) => Some(e),
            ClientError::Protocol(e) => Some(e),
            ClientError::Schema(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<ProtocolError> for ClientError {
    fn from(e: ProtocolError) -> Self {
        ClientError::Protocol(e)
    }
}

impl From<PersistError> for ClientError {
    fn from(e: PersistError) -> Self {
        ClientError::Schema(e)
    }
}

/// A successful `ESTIMATE_BIN` response.
#[derive(Debug, Clone, PartialEq)]
pub struct EstimateReply {
    /// The model that served the estimate.
    pub model: String,
    /// Its registry version (resolved, when the request left it open).
    pub version: u64,
    /// Per-instant power estimate (mW) — bit-exact across the wire.
    pub estimate: Vec<f64>,
    /// The paper's wrong-state-prediction count for this run.
    pub wrong_state_predictions: usize,
    /// Instants of behaviour unknown to the model.
    pub unknown_instants: usize,
}

impl EstimateReply {
    /// Arithmetic mean of the estimate (0.0 when empty).
    pub fn mean_power(&self) -> f64 {
        if self.estimate.is_empty() {
            0.0
        } else {
            self.estimate.iter().sum::<f64>() / self.estimate.len() as f64
        }
    }
}

/// The incremental answer to one `STREAM_CHUNK`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkReply {
    /// Per-instant power estimate (mW) for *this chunk only*.
    pub estimate: Vec<f64>,
    /// Cumulative wrong-state predictions across the stream so far.
    pub wrong_state_predictions: usize,
    /// Cumulative unknown instants across the stream so far.
    pub unknown_instants: usize,
}

/// The `STREAM_CLOSE` answer: the session's lifetime totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// The model that served the stream.
    pub model: String,
    /// Its resolved registry version.
    pub version: u64,
    /// Total instants estimated across all chunks.
    pub instants: usize,
    /// Total wrong-state predictions.
    pub wrong_state_predictions: usize,
    /// Total unknown instants.
    pub unknown_instants: usize,
}

/// One model of a `LIST`/`RELOAD` response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelInfo {
    /// Model name.
    pub name: String,
    /// Registry version.
    pub version: u64,
    /// Artifact format version of the backing file.
    pub format_version: u32,
    /// PSM state count.
    pub states: usize,
    /// Mined proposition count.
    pub propositions: usize,
}

/// A blocking `psmd` client over one TCP connection.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    next_stream: u32,
}

impl Client {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// The socket-level [`io::Error`].
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        Ok(Client {
            stream,
            next_id: 1,
            next_stream: 1,
        })
    }

    /// One request/response exchange.
    fn call(&mut self, op: Opcode, payload: Vec<u8>) -> Result<Frame, ClientError> {
        let id = self.pipeline_request(op, payload)?;
        let frame = protocol::read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)?;
        if frame.request_id != id {
            return Err(ClientError::Server(format!(
                "response id {} does not match request id {id}",
                frame.request_id
            )));
        }
        match frame.status() {
            Some(Status::Ok) => Ok(frame),
            Some(Status::Busy) => Err(ClientError::Busy),
            Some(Status::Error) => Err(ClientError::Server(protocol::parse_error(&frame))),
            None => Err(ClientError::Protocol(ProtocolError::UnknownKind(
                frame.kind,
            ))),
        }
    }

    /// Liveness probe.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`]; also checks the daemon names this build's
    /// protocol version.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        let frame = self.call(Opcode::Ping, Vec::new())?;
        let tag = protocol::parse_ping_reply(&frame)?;
        let expected = format!("psmd/v{PROTOCOL_VERSION}");
        if tag != expected {
            return Err(ClientError::Server(format!(
                "peer answers {tag:?} where {expected:?} was expected"
            )));
        }
        Ok(())
    }

    /// Estimates `trace` against `model` over the v2 binary codec —
    /// the fast path for large traces (`version: None` = latest).
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] under backpressure — the request was *not*
    /// queued and can safely be retried; [`ClientError::Server`] for an
    /// unknown model or a draining daemon.
    pub fn estimate_binary(
        &mut self,
        model: &str,
        version: Option<u64>,
        trace: &FunctionalTrace,
    ) -> Result<EstimateReply, ClientError> {
        protocol::validate_model_name(model)?;
        let payload = protocol::estimate_bin_request(model, version, trace);
        let frame = self.call(Opcode::EstimateBin, payload)?;
        let bin = protocol::parse_estimate_bin_reply(&frame)?;
        Ok(EstimateReply {
            model: bin.model,
            version: bin.version,
            estimate: bin.estimate,
            wrong_state_predictions: bin.wrong_state_predictions as usize,
            unknown_instants: bin.unknown_instants as usize,
        })
    }

    /// Opens a streaming estimation session: the daemon pins the model
    /// and interns `signals` once; chunks are cycles-only afterwards.
    /// The concatenated chunk estimates are bit-identical to a one-shot
    /// estimate of the concatenated trace.
    ///
    /// # Errors
    ///
    /// [`ClientError::Server`] for an unknown model or a draining
    /// daemon.
    pub fn open_stream(
        &mut self,
        model: &str,
        version: Option<u64>,
        signals: &SignalSet,
    ) -> Result<EstimateStream<'_>, ClientError> {
        protocol::validate_model_name(model)?;
        let stream = self.next_stream;
        self.next_stream += 1;
        let payload = protocol::stream_open_request(stream, model, version, signals);
        let frame = self.call(Opcode::StreamOpen, payload)?;
        let doc = frame.json()?;
        let echoed = doc.u64_field("stream")?;
        if echoed != u64::from(stream) {
            return Err(ClientError::Server(format!(
                "daemon opened stream {echoed}, not the requested {stream}"
            )));
        }
        Ok(EstimateStream {
            model: doc.str_field("model")?.to_owned(),
            version: doc.u64_field("version")?,
            client: self,
            stream,
            closed: false,
        })
    }

    /// The daemon's telemetry report, rendered as text.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats_text(&mut self) -> Result<String, ClientError> {
        let payload = JsonValue::obj([("format", JsonValue::from("text"))]);
        let frame = self.call(Opcode::Stats, payload.render().into_bytes())?;
        Ok(frame.json()?.str_field("stats")?.to_owned())
    }

    /// The daemon's telemetry report, as its JSON document.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn stats_json(&mut self) -> Result<JsonValue, ClientError> {
        let payload = JsonValue::obj([("format", JsonValue::from("json"))]);
        let frame = self.call(Opcode::Stats, payload.render().into_bytes())?;
        Ok(frame.json()?.field("stats")?.clone())
    }

    /// Lists the models of the daemon's current registry snapshot.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn list(&mut self) -> Result<Vec<ModelInfo>, ClientError> {
        let frame = self.call(Opcode::List, Vec::new())?;
        parse_models(&frame)
    }

    /// Asks the daemon to reload its registry; returns the new model
    /// list on success. A failed reload leaves the old snapshot serving
    /// and surfaces here as [`ClientError::Server`].
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn reload(&mut self) -> Result<Vec<ModelInfo>, ClientError> {
        let frame = self.call(Opcode::Reload, Vec::new())?;
        parse_models(&frame)
    }

    /// Asks the daemon to drain and exit.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.call(Opcode::Shutdown, Vec::new())?;
        Ok(())
    }

    /// Writes one request frame without waiting for its response,
    /// returning the request id. Pair each call with one
    /// [`Client::pipeline_response`] — the bench harness uses this to
    /// keep several requests in flight on one connection.
    ///
    /// # Errors
    ///
    /// The socket-level [`ClientError::Io`].
    pub fn pipeline_request(&mut self, op: Opcode, payload: Vec<u8>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        protocol::write_frame(&mut self.stream, &Frame::request(op, id, payload))?;
        Ok(id)
    }

    /// Reads one response frame of a pipelined exchange, whatever its
    /// status. The daemon answers a connection's requests in submission
    /// order, so responses pair with [`Client::pipeline_request`] ids
    /// first-in-first-out.
    ///
    /// # Errors
    ///
    /// [`ClientError::Disconnected`] on EOF, otherwise socket or framing
    /// errors.
    pub fn pipeline_response(&mut self) -> Result<Frame, ClientError> {
        protocol::read_frame(&mut self.stream)?.ok_or(ClientError::Disconnected)
    }
}

/// One open streaming session (see [`Client::open_stream`]). Borrows
/// the client exclusively: a session owns the connection's
/// request/response discipline until closed. Dropping it without
/// [`EstimateStream::close`] sends a best-effort close so the daemon
/// frees the session.
#[derive(Debug)]
pub struct EstimateStream<'a> {
    client: &'a mut Client,
    stream: u32,
    model: String,
    version: u64,
    closed: bool,
}

impl EstimateStream<'_> {
    /// The model serving this stream.
    pub fn model(&self) -> &str {
        &self.model
    }

    /// The resolved registry version serving this stream.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Feeds the next chunk and returns its incremental estimate.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] when this session's daemon-side queue is
    /// full — the chunk was *not* applied and resending it preserves the
    /// stream; any other [`ClientError`] for decode failures.
    pub fn send_chunk(&mut self, chunk: &FunctionalTrace) -> Result<ChunkReply, ClientError> {
        let payload = protocol::stream_chunk_request(self.stream, chunk);
        let frame = self.client.call(Opcode::StreamChunk, payload)?;
        let bin = protocol::parse_estimate_bin_reply(&frame)?;
        Ok(ChunkReply {
            estimate: bin.estimate,
            wrong_state_predictions: bin.wrong_state_predictions as usize,
            unknown_instants: bin.unknown_instants as usize,
        })
    }

    /// Closes the stream and returns its lifetime totals.
    ///
    /// # Errors
    ///
    /// Any [`ClientError`].
    pub fn close(mut self) -> Result<StreamSummary, ClientError> {
        self.closed = true;
        let payload = protocol::stream_close_request(self.stream);
        let frame = self.client.call(Opcode::StreamClose, payload)?;
        let doc = frame.json()?;
        Ok(StreamSummary {
            model: doc.str_field("model")?.to_owned(),
            version: doc.u64_field("version")?,
            instants: doc.usize_field("instants")?,
            wrong_state_predictions: doc.usize_field("wrong_state_predictions")?,
            unknown_instants: doc.usize_field("unknown_instants")?,
        })
    }
}

impl Drop for EstimateStream<'_> {
    fn drop(&mut self) {
        if !self.closed {
            let payload = protocol::stream_close_request(self.stream);
            let _ = self.client.call(Opcode::StreamClose, payload);
        }
    }
}

fn parse_models(frame: &Frame) -> Result<Vec<ModelInfo>, ClientError> {
    let doc = frame.json()?;
    doc.arr_field("models")?
        .iter()
        .map(|m| {
            Ok(ModelInfo {
                name: m.str_field("name")?.to_owned(),
                version: m.u64_field("version")?,
                format_version: u32::try_from(m.u64_field("format_version")?)
                    .map_err(|_| PersistError::schema("format_version out of range"))?,
                states: m.usize_field("states")?,
                propositions: m.usize_field("propositions")?,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{Server, ServerConfig};
    use crate::pool::PoolConfig;
    use crate::registry::Registry;
    use crate::test_support::{toy_model_json, toy_trace};
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_registry(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("psm-serve-client-{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("toy@1.json"),
            psm_persist::encode_artifact(&toy_model_json()),
        )
        .unwrap();
        dir
    }

    #[test]
    fn full_session_over_loopback() {
        let dir = temp_registry("session");
        let server = Server::bind(ServerConfig::new(&dir)).unwrap();
        let running = server.spawn();
        let mut client = Client::connect(running.addr()).unwrap();

        client.ping().unwrap();

        let models = client.list().unwrap();
        assert_eq!(models.len(), 1);
        assert_eq!((models[0].name.as_str(), models[0].version), ("toy", 1));
        assert!(models[0].states > 0);

        // The daemon's estimate is bit-identical to estimating directly
        // against the same artifact.
        let local = Registry::open(&dir)
            .unwrap()
            .snapshot()
            .lookup("toy", None)
            .unwrap();
        let trace = toy_trace();
        let expected = local.estimate(&trace);
        let expected_bits: Vec<u64> = expected.estimate.iter().map(f64::to_bits).collect();
        let reply = client.estimate_binary("toy", None, &trace).unwrap();
        assert_eq!(reply.model, "toy");
        assert_eq!(reply.version, 1);
        assert_eq!(reply.estimate.len(), trace.len());
        let got_bits: Vec<u64> = reply.estimate.iter().map(|v| v.to_bits()).collect();
        assert_eq!(
            got_bits, expected_bits,
            "estimates must survive the wire bit-exactly"
        );
        assert_eq!(
            reply.wrong_state_predictions,
            expected.wrong_state_predictions
        );
        assert!(reply.mean_power() > 0.0);

        // Unknown models are structured errors, not hangs.
        let err = client.estimate_binary("fft", None, &trace).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(msg) if msg.contains("fft")),
            "{err}"
        );
        let err = client.estimate_binary("toy", Some(9), &trace).unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(msg) if msg.contains("toy@9")),
            "{err}"
        );

        // Stats see the traffic, in both formats.
        let text = client.stats_text().unwrap();
        assert!(text.contains("serve.op.estimate_bin=3"), "{text}");
        assert!(!text.contains("serve.op.estimate="), "{text}");
        assert!(text.contains("serve.op.list=1"), "{text}");
        let stats = client.stats_json().unwrap();
        let named = stats.arr_field("named_counters").unwrap();
        assert!(!named.is_empty());

        // Hot-reload picks up a new version atomically.
        std::fs::write(
            dir.join("toy@2.json"),
            psm_persist::encode_artifact(&toy_model_json()),
        )
        .unwrap();
        let models = client.reload().unwrap();
        assert_eq!(models.len(), 2);
        let reply = client.estimate_binary("toy", None, &trace).unwrap();
        assert_eq!(reply.version, 2);

        // A corrupt artifact fails the reload but keeps serving.
        std::fs::write(dir.join("bad@1.json"), "not an artifact").unwrap();
        let err = client.reload().unwrap_err();
        assert!(
            matches!(&err, ClientError::Server(msg) if msg.contains("bad@1.json")),
            "{err}"
        );
        client.estimate_binary("toy", None, &trace).unwrap();

        client.shutdown().unwrap();
        let report = running.join().unwrap();
        assert_eq!(report.named_counter("serve.op.shutdown"), 1);
        assert_eq!(report.named_counter("serve.op.estimate_bin"), 5);
        assert_eq!(report.named_counter("serve.unknown_model"), 2);
        assert_eq!(report.named_counter("serve.reload_failures"), 1);
        assert!(report.named_counter("serve.connections") >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn backpressure_surfaces_as_busy() {
        let dir = temp_registry("busy");
        let mut cfg = ServerConfig::new(&dir);
        cfg.pool = PoolConfig {
            workers: 1,
            queue_capacity: 1,
            stall: Duration::from_millis(500),
        };
        let running = Server::bind(cfg).unwrap().spawn();
        let addr = running.addr();
        let trace = toy_trace();

        // A occupies the worker (stalled 500 ms), B fills the single
        // queue slot, C must bounce with BUSY.
        let t = trace.clone();
        let a = std::thread::spawn(move || {
            Client::connect(addr)
                .unwrap()
                .estimate_binary("toy", None, &t)
        });
        std::thread::sleep(Duration::from_millis(150));
        let t = trace.clone();
        let b = std::thread::spawn(move || {
            Client::connect(addr)
                .unwrap()
                .estimate_binary("toy", None, &t)
        });
        std::thread::sleep(Duration::from_millis(100));
        let mut c = Client::connect(addr).unwrap();
        let err = c.estimate_binary("toy", None, &trace).unwrap_err();
        assert!(matches!(err, ClientError::Busy), "{err}");

        // The accepted requests still complete.
        a.join().unwrap().unwrap();
        b.join().unwrap().unwrap();

        c.shutdown().unwrap();
        let report = running.join().unwrap();
        assert!(report.named_counter("serve.busy") >= 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shutdown_drains_in_flight_estimates() {
        let dir = temp_registry("drain");
        let mut cfg = ServerConfig::new(&dir);
        cfg.pool = PoolConfig {
            workers: 1,
            queue_capacity: 8,
            stall: Duration::from_millis(300),
        };
        let running = Server::bind(cfg).unwrap().spawn();
        let addr = running.addr();
        let trace = toy_trace();

        // Two estimates queue behind the stalled worker…
        let mut workers = Vec::new();
        for _ in 0..2 {
            let t = trace.clone();
            workers.push(std::thread::spawn(move || {
                Client::connect(addr)
                    .unwrap()
                    .estimate_binary("toy", None, &t)
            }));
        }
        std::thread::sleep(Duration::from_millis(100));
        // …and a shutdown lands while they are still in flight.
        Client::connect(addr).unwrap().shutdown().unwrap();
        for w in workers {
            let reply = w.join().unwrap().unwrap();
            assert_eq!(reply.estimate.len(), trace.len(), "drained, not dropped");
        }
        let report = running.join().unwrap();
        assert_eq!(report.named_counter("serve.op.estimate_bin"), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
