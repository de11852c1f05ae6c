//! The `psmd` framed wire protocol, versions 1 (`psmd/v1`) and 2
//! (`psmd/v2`).
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic `PSMD`
//! 4       1     protocol version (1 or 2)
//! 5       1     kind: request opcode (0x01..) or response status (0x80..)
//! 6       8     request id, u64 little-endian (echoed in the response)
//! 14      4     payload length, u32 little-endian (≤ 64 MiB)
//! 18      n     payload: a UTF-8 JSON document or a binary blob
//! ```
//!
//! The fixed header makes the protocol self-describing enough to fail
//! fast: a client that connects to the wrong port gets a structured
//! [`ProtocolError::BadMagic`], not a hung read. The 64 MiB payload cap
//! bounds what one malicious or confused peer can make the daemon
//! allocate.
//!
//! **v1** payloads are JSON via [`psm_persist::JsonValue`] — the same
//! dependency-free document model the artifact files use — so an
//! estimate travels the wire through the identical shortest-round-trip
//! float writer that persisted the model, and survives bit-exactly.
//!
//! **v2** keeps JSON for control opcodes but moves bulk numeric data to
//! the compact binary codec of [`psm_trace::binary`]: the
//! [`Opcode::EstimateBin`] one-shot and the
//! [`Opcode::StreamOpen`]/[`Opcode::StreamChunk`]/[`Opcode::StreamClose`]
//! session opcodes frame traces as an interned-signal dictionary plus raw
//! little-endian cycle words, and estimates return as raw `f64` bits —
//! still bit-exact, without the JSON tax. Responses echo the request
//! frame's version byte, so a v1-built client never sees a version it
//! would reject; negotiation rides on `PING` (see
//! [`ping_reply`]/[`parse_ping_reply`]).

use psm_hmm::HmmOutcome;
use psm_persist::{JsonValue, Persist, PersistError};
use psm_trace::binary::{self, BinCodecError, Reader};
use psm_trace::{FunctionalTrace, SignalSet};
use std::io::{self, Read, Write};

/// First bytes of every frame.
pub const MAGIC: [u8; 4] = *b"PSMD";

/// The newest wire protocol version this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// The oldest wire protocol version this build still accepts.
pub const MIN_PROTOCOL_VERSION: u8 = 1;

/// Upper bound on a frame payload, in bytes.
pub const MAX_PAYLOAD: u32 = 64 << 20;

/// Size of the fixed frame header.
pub const HEADER_LEN: usize = 18;

/// A request kind (client → daemon).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Opcode {
    /// Estimate power for a submitted functional trace.
    Estimate,
    /// Fetch the daemon's telemetry report (text or JSON).
    Stats,
    /// Atomically reload the model registry from disk.
    Reload,
    /// List the models of the current registry snapshot.
    List,
    /// Liveness probe.
    Ping,
    /// Drain in-flight work, flush stats, exit.
    Shutdown,
    /// Estimate power for a binary-encoded trace (v2).
    EstimateBin,
    /// Open a streaming estimation session (v2).
    StreamOpen,
    /// Feed one chunk of cycles into an open session (v2).
    StreamChunk,
    /// Close a session, collecting its summary (v2).
    StreamClose,
}

impl Opcode {
    /// The wire byte of this opcode.
    pub fn as_u8(self) -> u8 {
        match self {
            Opcode::Estimate => 0x01,
            Opcode::Stats => 0x02,
            Opcode::Reload => 0x03,
            Opcode::List => 0x04,
            Opcode::Ping => 0x05,
            Opcode::Shutdown => 0x06,
            Opcode::EstimateBin => 0x07,
            Opcode::StreamOpen => 0x08,
            Opcode::StreamChunk => 0x09,
            Opcode::StreamClose => 0x0a,
        }
    }

    /// Decodes a wire byte, `None` when it is not a request opcode.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Estimate),
            0x02 => Some(Opcode::Stats),
            0x03 => Some(Opcode::Reload),
            0x04 => Some(Opcode::List),
            0x05 => Some(Opcode::Ping),
            0x06 => Some(Opcode::Shutdown),
            0x07 => Some(Opcode::EstimateBin),
            0x08 => Some(Opcode::StreamOpen),
            0x09 => Some(Opcode::StreamChunk),
            0x0a => Some(Opcode::StreamClose),
            _ => None,
        }
    }

    /// Lower-case opcode name, used for per-opcode telemetry counters.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Estimate => "estimate",
            Opcode::Stats => "stats",
            Opcode::Reload => "reload",
            Opcode::List => "list",
            Opcode::Ping => "ping",
            Opcode::Shutdown => "shutdown",
            Opcode::EstimateBin => "estimate_bin",
            Opcode::StreamOpen => "stream_open",
            Opcode::StreamChunk => "stream_chunk",
            Opcode::StreamClose => "stream_close",
        }
    }

    /// The lowest protocol version whose frames may carry this opcode.
    /// The daemon rejects v2-only opcodes arriving in v1 frames with a
    /// structured `ERROR` instead of guessing at the payload format.
    pub fn min_version(self) -> u8 {
        match self {
            Opcode::Estimate
            | Opcode::Stats
            | Opcode::Reload
            | Opcode::List
            | Opcode::Ping
            | Opcode::Shutdown => 1,
            Opcode::EstimateBin
            | Opcode::StreamOpen
            | Opcode::StreamChunk
            | Opcode::StreamClose => 2,
        }
    }

    /// Every opcode, in wire-byte order.
    pub const ALL: [Opcode; 10] = [
        Opcode::Estimate,
        Opcode::Stats,
        Opcode::Reload,
        Opcode::List,
        Opcode::Ping,
        Opcode::Shutdown,
        Opcode::EstimateBin,
        Opcode::StreamOpen,
        Opcode::StreamChunk,
        Opcode::StreamClose,
    ];
}

/// A response kind (daemon → client).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// The request succeeded; the payload is the result.
    Ok,
    /// The request failed; the payload carries `{"error": …}`.
    Error,
    /// The estimation queue is full — explicit backpressure. Retry later.
    Busy,
}

impl Status {
    /// The wire byte of this status.
    pub fn as_u8(self) -> u8 {
        match self {
            Status::Ok => 0x80,
            Status::Error => 0x81,
            Status::Busy => 0x82,
        }
    }

    /// Decodes a wire byte, `None` when it is not a response status.
    pub fn from_u8(b: u8) -> Option<Status> {
        match b {
            0x80 => Some(Status::Ok),
            0x81 => Some(Status::Error),
            0x82 => Some(Status::Busy),
            _ => None,
        }
    }
}

/// One decoded frame: the version and kind bytes, the request id and the
/// raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The protocol version byte of this frame. Requests carry the
    /// version the client chose; responses echo the request's version so
    /// old clients never see a byte they would reject.
    pub version: u8,
    /// The kind byte: a request [`Opcode`] or a response [`Status`].
    pub kind: u8,
    /// Correlates a response with its request. The daemon echoes it
    /// verbatim, which is what lets the pool answer batched requests out
    /// of submission order.
    pub request_id: u64,
    /// The payload bytes (possibly empty).
    pub payload: Vec<u8>,
}

impl Frame {
    /// Builds a request frame speaking the newest protocol version.
    pub fn request(op: Opcode, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame::request_v(PROTOCOL_VERSION, op, request_id, payload)
    }

    /// Builds a request frame pinned to a specific protocol version.
    pub fn request_v(version: u8, op: Opcode, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            version,
            kind: op.as_u8(),
            request_id,
            payload,
        }
    }

    /// Builds a response frame speaking the newest protocol version.
    pub fn response(status: Status, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame::response_v(PROTOCOL_VERSION, status, request_id, payload)
    }

    /// Builds a response frame pinned to a specific protocol version —
    /// the daemon answers every request with the request's own version.
    pub fn response_v(version: u8, status: Status, request_id: u64, payload: Vec<u8>) -> Frame {
        Frame {
            version,
            kind: status.as_u8(),
            request_id,
            payload,
        }
    }

    /// The frame's request opcode, if it is a request.
    pub fn opcode(&self) -> Option<Opcode> {
        Opcode::from_u8(self.kind)
    }

    /// The frame's response status, if it is a response.
    pub fn status(&self) -> Option<Status> {
        Status::from_u8(self.kind)
    }

    /// Parses the payload as a JSON document; an empty payload is `Null`.
    pub fn json(&self) -> Result<JsonValue, ProtocolError> {
        if self.payload.is_empty() {
            return Ok(JsonValue::Null);
        }
        let text = std::str::from_utf8(&self.payload)
            .map_err(|_| ProtocolError::Payload(PersistError::schema("payload is not UTF-8")))?;
        JsonValue::parse(text).map_err(ProtocolError::Payload)
    }
}

/// A wire-level failure: bad bytes, an unsupported peer, or a payload
/// that is not the JSON the opcode requires.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying socket failed.
    Io(io::Error),
    /// The peer did not send the `PSMD` magic — wrong port or protocol.
    BadMagic([u8; 4]),
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversize(u32),
    /// The kind byte is neither a known opcode nor a known status.
    UnknownKind(u8),
    /// The payload is not the JSON document the opcode requires.
    Payload(PersistError),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "socket error: {e}"),
            ProtocolError::BadMagic(bytes) => {
                write!(f, "bad frame magic {bytes:?} (expected \"PSMD\")")
            }
            ProtocolError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported protocol version {v} (this build speaks v{PROTOCOL_VERSION})"
                )
            }
            ProtocolError::Oversize(n) => {
                write!(
                    f,
                    "frame payload of {n} bytes exceeds the {MAX_PAYLOAD} cap"
                )
            }
            ProtocolError::UnknownKind(b) => write!(f, "unknown frame kind byte {b:#04x}"),
            ProtocolError::Payload(e) => write!(f, "malformed payload: {e}"),
        }
    }
}

impl std::error::Error for ProtocolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ProtocolError::Io(e) => Some(e),
            ProtocolError::Payload(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for ProtocolError {
    fn from(e: io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl From<PersistError> for ProtocolError {
    fn from(e: PersistError) -> Self {
        ProtocolError::Payload(e)
    }
}

/// Binary-codec failures surface as payload errors: the frame itself was
/// sound, its body was not.
impl From<BinCodecError> for ProtocolError {
    fn from(e: BinCodecError) -> Self {
        ProtocolError::Payload(PersistError::schema(e.to_string()))
    }
}

/// Writes one frame.
///
/// # Errors
///
/// Propagates the writer's [`io::Error`]s. Panics are impossible: an
/// oversize payload is rejected as [`io::ErrorKind::InvalidInput`].
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> io::Result<()> {
    let len = u32::try_from(frame.payload.len())
        .ok()
        .filter(|&n| n <= MAX_PAYLOAD)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "payload of {} bytes exceeds the frame cap",
                    frame.payload.len()
                ),
            )
        })?;
    let mut header = [0u8; HEADER_LEN];
    header[..4].copy_from_slice(&MAGIC);
    header[4] = frame.version;
    header[5] = frame.kind;
    header[6..14].copy_from_slice(&frame.request_id.to_le_bytes());
    header[14..18].copy_from_slice(&len.to_le_bytes());
    w.write_all(&header)?;
    w.write_all(&frame.payload)?;
    w.flush()
}

/// Reads one frame; `Ok(None)` means the peer closed the connection
/// cleanly at a frame boundary.
///
/// # Errors
///
/// [`ProtocolError::Io`] mid-frame (including EOF inside a frame, which
/// surfaces as [`io::ErrorKind::UnexpectedEof`]), or a structural error
/// for bad magic / version / kind / oversize payloads.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ProtocolError> {
    let mut header = [0u8; HEADER_LEN];
    // EOF before the first byte is a clean close; anywhere later the
    // frame has started, so EOF is an error.
    loop {
        match r.read(&mut header[..1]) {
            Ok(0) => return Ok(None),
            Ok(_) => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(ProtocolError::Io(e)),
        }
    }
    r.read_exact(&mut header[1..])?;
    let (version, kind, request_id, len) = validate_header(&header)?;
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(Frame {
        version,
        kind,
        request_id,
        payload,
    }))
}

/// Validates a complete frame header, returning `(version, kind,
/// request_id, payload_len)`.
fn validate_header(header: &[u8; HEADER_LEN]) -> Result<(u8, u8, u64, u32), ProtocolError> {
    if header[..4] != MAGIC {
        return Err(ProtocolError::BadMagic([
            header[0], header[1], header[2], header[3],
        ]));
    }
    let version = header[4];
    if !(MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&version) {
        return Err(ProtocolError::UnsupportedVersion(version));
    }
    let kind = header[5];
    if Opcode::from_u8(kind).is_none() && Status::from_u8(kind).is_none() {
        return Err(ProtocolError::UnknownKind(kind));
    }
    let request_id = u64::from_le_bytes(header[6..14].try_into().expect("8-byte slice"));
    let len = u32::from_le_bytes(header[14..18].try_into().expect("4-byte slice"));
    if len > MAX_PAYLOAD {
        return Err(ProtocolError::Oversize(len));
    }
    Ok((version, kind, request_id, len))
}

/// Extracts one complete frame from the front of an in-memory buffer —
/// the zero-copy entry point of the daemon's readiness loop, which
/// accumulates nonblocking reads and parses at frame granularity.
///
/// Returns `Ok(None)` when the buffer holds only a prefix of a frame
/// (more bytes must arrive), or `Ok(Some((frame, consumed)))` where
/// `consumed` bytes should be drained from the buffer's front.
///
/// # Errors
///
/// Structural errors (bad magic / version / kind / oversize) surface as
/// soon as the 18-byte header is present, so a peer streaming garbage is
/// rejected without waiting for its declared payload.
pub fn parse_frame_bytes(buf: &[u8]) -> Result<Option<(Frame, usize)>, ProtocolError> {
    if buf.len() < HEADER_LEN {
        return Ok(None);
    }
    let header: &[u8; HEADER_LEN] = buf[..HEADER_LEN].try_into().expect("18-byte slice");
    let (version, kind, request_id, len) = validate_header(header)?;
    let total = HEADER_LEN + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    Ok(Some((
        Frame {
            version,
            kind,
            request_id,
            payload: buf[HEADER_LEN..total].to_vec(),
        },
        total,
    )))
}

// ---------------------------------------------------------------------
// Payload builders/parsers shared by the daemon and the client.
// ---------------------------------------------------------------------

/// Builds an `ESTIMATE` request payload: the target model (optionally
/// pinned to a version) and the functional trace to estimate.
pub fn estimate_request(model: &str, version: Option<u64>, trace: &FunctionalTrace) -> Vec<u8> {
    let mut fields = vec![("model", JsonValue::from(model))];
    if let Some(v) = version {
        fields.push(("version", JsonValue::from(v)));
    }
    fields.push(("trace", trace.to_json()));
    JsonValue::obj(fields).render().into_bytes()
}

/// Parses an `ESTIMATE` request payload.
///
/// # Errors
///
/// [`ProtocolError::Payload`] when the payload is not the documented
/// shape or the embedded trace is malformed.
pub fn parse_estimate_request(
    payload: &Frame,
) -> Result<(String, Option<u64>, FunctionalTrace), ProtocolError> {
    let doc = payload.json()?;
    let model = doc.str_field("model")?.to_owned();
    let version = match doc.get("version") {
        Some(v) => Some(v.as_u64()?),
        None => None,
    };
    let trace = FunctionalTrace::from_json(doc.field("trace")?)?;
    Ok((model, version, trace))
}

/// Builds the `OK` payload of an `ESTIMATE` response.
///
/// The per-instant estimate travels as a JSON array rendered through the
/// shortest-round-trip float writer, so the client recovers the daemon's
/// `f64`s bit-exactly.
pub fn estimate_reply(model: &str, version: u64, outcome: &HmmOutcome) -> Vec<u8> {
    JsonValue::obj([
        ("model", JsonValue::from(model)),
        ("version", JsonValue::from(version)),
        (
            "estimate",
            JsonValue::arr(outcome.estimate.iter().map(JsonValue::from_f64)),
        ),
        (
            "wrong_state_predictions",
            JsonValue::from(outcome.wrong_state_predictions),
        ),
        (
            "unknown_instants",
            JsonValue::from(outcome.unknown_instants),
        ),
    ])
    .render()
    .into_bytes()
}

// ---------------------------------------------------------------------
// v2 binary payloads: one-shot and streaming estimation.
// ---------------------------------------------------------------------

/// Magic bytes opening a binary estimate *reply* payload.
pub const BIN_REPLY_MAGIC: [u8; 4] = *b"PSTE";

/// Greatest model-name length in bytes the binary payloads can carry
/// (they length-prefix the name with a `u16`).
pub const MAX_MODEL_NAME_BYTES: usize = u16::MAX as usize;

/// Checks that `model` fits the binary payloads' `u16` length prefix.
///
/// Request builders call `put_name` infallibly, so every path that
/// accepts an arbitrary model name must validate it first — truncating
/// would silently ask the daemon about a *different* (shortened) name.
///
/// # Errors
///
/// [`ProtocolError::Payload`] for names over [`MAX_MODEL_NAME_BYTES`].
pub fn validate_model_name(model: &str) -> Result<(), ProtocolError> {
    if model.len() > MAX_MODEL_NAME_BYTES {
        return Err(ProtocolError::Payload(PersistError::schema(format!(
            "model name of {} bytes exceeds the wire limit of {MAX_MODEL_NAME_BYTES}",
            model.len()
        ))));
    }
    Ok(())
}

/// Appends `u16 len + bytes` of a model name.
///
/// Callers with externally supplied names go through
/// [`validate_model_name`] first; names decoded off the wire and
/// registry names (bounded by the filesystem) always fit.
fn put_name(out: &mut Vec<u8>, model: &str) {
    let name = model.as_bytes();
    debug_assert!(
        name.len() <= MAX_MODEL_NAME_BYTES,
        "model name exceeds the u16 length prefix; call validate_model_name first"
    );
    let len = name.len().min(MAX_MODEL_NAME_BYTES);
    out.extend_from_slice(&(len as u16).to_le_bytes());
    out.extend_from_slice(&name[..len]);
}

/// Reads a `u16 len + bytes` model name.
fn take_name(r: &mut Reader<'_>) -> Result<String, ProtocolError> {
    let len = r.u16()? as usize;
    let raw = r.bytes(len)?;
    std::str::from_utf8(raw)
        .map(str::to_owned)
        .map_err(|_| ProtocolError::Payload(PersistError::schema("model name is not UTF-8")))
}

/// Appends the optional pinned model version.
fn put_version(out: &mut Vec<u8>, version: Option<u64>) {
    match version {
        Some(v) => {
            out.push(1);
            out.extend_from_slice(&v.to_le_bytes());
        }
        None => out.push(0),
    }
}

/// Reads the optional pinned model version.
fn take_version(r: &mut Reader<'_>) -> Result<Option<u64>, ProtocolError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        other => Err(ProtocolError::Payload(PersistError::schema(format!(
            "version presence byte must be 0 or 1, got {other}"
        )))),
    }
}

/// Builds an `ESTIMATE_BIN` request payload: binary codec header, model
/// selector, then the trace as dictionary + cycles frames.
pub fn estimate_bin_request(model: &str, version: Option<u64>, trace: &FunctionalTrace) -> Vec<u8> {
    let mut out = Vec::new();
    binary::write_header(&mut out);
    put_name(&mut out, model);
    put_version(&mut out, version);
    binary::write_dict(trace.signals(), &mut out);
    binary::write_cycles(trace, &mut out);
    out
}

/// Parses an `ESTIMATE_BIN` request payload.
///
/// # Errors
///
/// [`ProtocolError::Payload`] for truncated, bad-magic or otherwise
/// malformed binary bodies — always a structured error, never a panic.
pub fn parse_estimate_bin_request(
    frame: &Frame,
) -> Result<(String, Option<u64>, FunctionalTrace), ProtocolError> {
    let mut r = Reader::new(&frame.payload);
    binary::read_header(&mut r)?;
    let model = take_name(&mut r)?;
    let version = take_version(&mut r)?;
    let signals = binary::read_dict(&mut r)?;
    let mut trace = FunctionalTrace::new(signals);
    while !r.is_empty() {
        binary::read_cycles_into(&mut r, &mut trace)?;
    }
    Ok((model, version, trace))
}

/// Builds a `STREAM_OPEN` request payload: the client-chosen stream id,
/// the model selector and the session's signal dictionary (sent once —
/// chunks are cycles-only afterwards).
pub fn stream_open_request(
    stream: u32,
    model: &str,
    version: Option<u64>,
    signals: &SignalSet,
) -> Vec<u8> {
    let mut out = Vec::new();
    binary::write_header(&mut out);
    out.extend_from_slice(&stream.to_le_bytes());
    put_name(&mut out, model);
    put_version(&mut out, version);
    binary::write_dict(signals, &mut out);
    out
}

/// Parses a `STREAM_OPEN` request payload.
pub fn parse_stream_open_request(
    frame: &Frame,
) -> Result<(u32, String, Option<u64>, SignalSet), ProtocolError> {
    let mut r = Reader::new(&frame.payload);
    binary::read_header(&mut r)?;
    let stream = r.u32()?;
    let model = take_name(&mut r)?;
    let version = take_version(&mut r)?;
    let signals = binary::read_dict(&mut r)?;
    if !r.is_empty() {
        return Err(ProtocolError::Payload(PersistError::schema(
            "trailing bytes after STREAM_OPEN dictionary",
        )));
    }
    Ok((stream, model, version, signals))
}

/// Builds a `STREAM_CHUNK` request payload: the stream id plus the
/// chunk's cycles (no dictionary — the session interned it at open).
pub fn stream_chunk_request(stream: u32, chunk: &FunctionalTrace) -> Vec<u8> {
    let mut out = Vec::new();
    binary::write_header(&mut out);
    out.extend_from_slice(&stream.to_le_bytes());
    binary::write_cycles(chunk, &mut out);
    out
}

/// Builds a `STREAM_CLOSE` request payload: just the stream id.
pub fn stream_close_request(stream: u32) -> Vec<u8> {
    let mut out = Vec::new();
    binary::write_header(&mut out);
    out.extend_from_slice(&stream.to_le_bytes());
    out
}

/// Parses the stream id common to `STREAM_CHUNK`/`STREAM_CLOSE` payloads
/// without touching the cycle data that may follow.
pub fn parse_stream_id(frame: &Frame) -> Result<u32, ProtocolError> {
    let mut r = Reader::new(&frame.payload);
    binary::read_header(&mut r)?;
    Ok(r.u32()?)
}

/// Parses the cycles of a `STREAM_CHUNK` payload against the session's
/// interned dictionary, returning the decoded chunk.
pub fn parse_stream_chunk_cycles(
    frame: &Frame,
    signals: &SignalSet,
) -> Result<FunctionalTrace, ProtocolError> {
    let mut r = Reader::new(&frame.payload);
    binary::read_header(&mut r)?;
    let _stream = r.u32()?;
    let mut chunk = FunctionalTrace::new(signals.clone());
    while !r.is_empty() {
        binary::read_cycles_into(&mut r, &mut chunk)?;
    }
    Ok(chunk)
}

/// A parsed binary estimate reply — the v2 counterpart of the JSON
/// `ESTIMATE` response body.
#[derive(Debug, Clone, PartialEq)]
pub struct BinEstimate {
    /// Name of the model that produced the estimate.
    pub model: String,
    /// Registry version of that model.
    pub version: u64,
    /// Per-instant power estimate, recovered bit-exactly from raw
    /// little-endian `f64` bits.
    pub estimate: Vec<f64>,
    /// Wrong-state predictions (cumulative across a stream's chunks).
    pub wrong_state_predictions: u64,
    /// Unknown instants (cumulative across a stream's chunks).
    pub unknown_instants: u64,
}

/// Builds the binary `OK` payload answering `ESTIMATE_BIN` and
/// `STREAM_CHUNK`: raw `f64` bits, no JSON float round-trip needed.
///
/// ```text
/// "PSTE" ver:u8 model_len:u16 model version:u64 wrong:u64 unknown:u64
/// n:u32 { estimate_bits:u64 }*
/// ```
pub fn estimate_bin_reply(
    model: &str,
    version: u64,
    estimate: &[f64],
    wrong_state_predictions: u64,
    unknown_instants: u64,
) -> Vec<u8> {
    let mut out = Vec::with_capacity(31 + model.len() + estimate.len() * 8);
    out.extend_from_slice(&BIN_REPLY_MAGIC);
    out.push(binary::VERSION);
    put_name(&mut out, model);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&wrong_state_predictions.to_le_bytes());
    out.extend_from_slice(&unknown_instants.to_le_bytes());
    out.extend_from_slice(&(estimate.len() as u32).to_le_bytes());
    for v in estimate {
        out.extend_from_slice(&v.to_bits().to_le_bytes());
    }
    out
}

/// Parses a binary estimate reply payload.
pub fn parse_estimate_bin_reply(frame: &Frame) -> Result<BinEstimate, ProtocolError> {
    let mut r = Reader::new(&frame.payload);
    let magic = r.bytes(4)?;
    if magic != BIN_REPLY_MAGIC {
        return Err(ProtocolError::Payload(PersistError::schema(
            "binary estimate reply does not start with PSTE",
        )));
    }
    let codec = r.u8()?;
    if codec != binary::VERSION {
        return Err(ProtocolError::Payload(PersistError::schema(format!(
            "unsupported binary reply codec version {codec}"
        ))));
    }
    let model = take_name(&mut r)?;
    let version = r.u64()?;
    let wrong_state_predictions = r.u64()?;
    let unknown_instants = r.u64()?;
    let n = r.u32()? as usize;
    if (r.remaining() as u64) < (n as u64) * 8 {
        return Err(BinCodecError::Truncated {
            offset: r.offset(),
            need: n * 8,
            have: r.remaining(),
        }
        .into());
    }
    let mut estimate = Vec::with_capacity(n);
    for _ in 0..n {
        estimate.push(f64::from_bits(r.u64()?));
    }
    Ok(BinEstimate {
        model,
        version,
        estimate,
        wrong_state_predictions,
        unknown_instants,
    })
}

/// Builds the JSON `OK` payload of a `STREAM_OPEN` response.
pub fn stream_open_reply(stream: u32, model: &str, version: u64) -> Vec<u8> {
    JsonValue::obj([
        ("stream", JsonValue::from(stream as u64)),
        ("model", JsonValue::from(model)),
        ("version", JsonValue::from(version)),
    ])
    .render()
    .into_bytes()
}

/// Builds the JSON `OK` payload of a `STREAM_CLOSE` response: the
/// session's lifetime totals.
pub fn stream_close_reply(
    stream: u32,
    model: &str,
    version: u64,
    instants: u64,
    wrong_state_predictions: u64,
    unknown_instants: u64,
) -> Vec<u8> {
    JsonValue::obj([
        ("stream", JsonValue::from(stream as u64)),
        ("model", JsonValue::from(model)),
        ("version", JsonValue::from(version)),
        ("instants", JsonValue::from(instants)),
        (
            "wrong_state_predictions",
            JsonValue::from(wrong_state_predictions),
        ),
        ("unknown_instants", JsonValue::from(unknown_instants)),
    ])
    .render()
    .into_bytes()
}

// ---------------------------------------------------------------------
// Version negotiation over PING.
// ---------------------------------------------------------------------

/// Builds the `OK` payload of a `PING` response for a request that
/// arrived with protocol version `version`.
///
/// The `protocol` field names the version the conversation is using —
/// v1-built clients assert it is exactly `"psmd/v1"` — while the
/// `versions` array advertises everything this daemon accepts, which is
/// what lets a v2-capable client upgrade after a v1 probe. v1 clients
/// ignore unknown fields, so the advertisement is fully backward
/// compatible.
pub fn ping_reply(version: u8) -> Vec<u8> {
    JsonValue::obj([
        ("protocol", JsonValue::from(format!("psmd/v{version}"))),
        (
            "versions",
            JsonValue::arr(
                (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).map(|v| JsonValue::from(v as u64)),
            ),
        ),
    ])
    .render()
    .into_bytes()
}

/// Parses a `PING` response: the protocol tag plus the peer's supported
/// versions. A v1 daemon predates the `versions` field; its absence
/// means "v1 only".
pub fn parse_ping_reply(frame: &Frame) -> Result<(String, Vec<u8>), ProtocolError> {
    let doc = frame.json()?;
    let protocol = doc.str_field("protocol")?.to_owned();
    let versions = match doc.get("versions") {
        Some(JsonValue::Arr(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for v in items {
                out.push(u8::try_from(v.as_u64()?).map_err(|_| {
                    ProtocolError::Payload(PersistError::schema("protocol version exceeds u8"))
                })?);
            }
            out
        }
        _ => vec![1],
    };
    Ok((protocol, versions))
}

/// Builds an `ERROR` response payload.
pub fn error_payload(message: &str) -> Vec<u8> {
    JsonValue::obj([("error", JsonValue::from(message))])
        .render()
        .into_bytes()
}

/// Extracts the message of an `ERROR` response payload, falling back to
/// a generic description when the payload itself is malformed.
pub fn parse_error(frame: &Frame) -> String {
    frame
        .json()
        .ok()
        .and_then(|doc| doc.str_field("error").map(str::to_owned).ok())
        .unwrap_or_else(|| "unspecified server error".to_owned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use psm_trace::{Bits, Direction, SignalSet};

    fn round_trip(frame: &Frame) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, frame).unwrap();
        let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
        assert_eq!(&got, frame);
        got
    }

    #[test]
    fn frames_round_trip() {
        round_trip(&Frame::request(Opcode::Ping, 7, Vec::new()));
        round_trip(&Frame::request(Opcode::Estimate, u64::MAX, b"{}".to_vec()));
        for status in [Status::Ok, Status::Error, Status::Busy] {
            round_trip(&Frame::response(status, 42, b"{\"a\":1}".to_vec()));
        }
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_an_error() {
        assert!(read_frame(&mut [].as_slice()).unwrap().is_none());
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::request(Opcode::Ping, 1, Vec::new())).unwrap();
        buf.truncate(HEADER_LEN - 3);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ProtocolError::Io(_)), "{err}");
    }

    #[test]
    fn structural_failures_are_structured() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::request(Opcode::Ping, 1, Vec::new())).unwrap();

        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ProtocolError::BadMagic(_))
        ));

        let mut bad = buf.clone();
        bad[4] = 9;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ProtocolError::UnsupportedVersion(9))
        ));

        let mut bad = buf.clone();
        bad[5] = 0x7f;
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ProtocolError::UnknownKind(0x7f))
        ));

        let mut bad = buf;
        bad[14..18].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()),
            Err(ProtocolError::Oversize(_))
        ));
    }

    #[test]
    fn oversize_writes_are_rejected_without_panicking() {
        // Fake the length without allocating 64 MiB: write_frame checks the
        // declared length before touching the wire.
        let frame = Frame {
            version: PROTOCOL_VERSION,
            kind: Opcode::Estimate.as_u8(),
            request_id: 1,
            payload: vec![0u8; (MAX_PAYLOAD as usize) + 1],
        };
        let err = write_frame(&mut Vec::new(), &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn estimate_request_round_trips() {
        let mut signals = SignalSet::new();
        signals.push("en", 1, Direction::Input).unwrap();
        let mut trace = FunctionalTrace::new(signals);
        trace.push_cycle(vec![Bits::from_bool(true)]).unwrap();

        let payload = estimate_request("ram1k", Some(3), &trace);
        let frame = Frame::request(Opcode::Estimate, 5, payload);
        let (model, version, back) = parse_estimate_request(&frame).unwrap();
        assert_eq!(model, "ram1k");
        assert_eq!(version, Some(3));
        assert_eq!(back, trace);

        let payload = estimate_request("ram1k", None, &trace);
        let frame = Frame::request(Opcode::Estimate, 6, payload);
        let (_, version, _) = parse_estimate_request(&frame).unwrap();
        assert_eq!(version, None);
    }

    #[test]
    fn error_payloads_degrade_gracefully() {
        let frame = Frame::response(Status::Error, 1, error_payload("no such model"));
        assert_eq!(parse_error(&frame), "no such model");
        let frame = Frame::response(Status::Error, 1, b"garbage".to_vec());
        assert_eq!(parse_error(&frame), "unspecified server error");
    }

    #[test]
    fn opcode_bytes_and_names_are_stable() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_u8(op.as_u8()), Some(op));
            assert!(Status::from_u8(op.as_u8()).is_none());
            assert!(!op.name().is_empty());
            assert!(op.min_version() >= 1 && op.min_version() <= PROTOCOL_VERSION);
        }
        assert!(Opcode::from_u8(0x80).is_none());
        // The v1 wire bytes must never move.
        assert_eq!(Opcode::Estimate.as_u8(), 0x01);
        assert_eq!(Opcode::Shutdown.as_u8(), 0x06);
        assert_eq!(Opcode::EstimateBin.as_u8(), 0x07);
        assert_eq!(Opcode::StreamClose.as_u8(), 0x0a);
    }

    #[test]
    fn both_protocol_versions_round_trip_and_are_preserved() {
        for version in [1u8, 2] {
            let frame = Frame::request_v(version, Opcode::Ping, 9, Vec::new());
            let mut buf = Vec::new();
            write_frame(&mut buf, &frame).unwrap();
            assert_eq!(buf[4], version, "header carries the frame's version");
            let got = read_frame(&mut buf.as_slice()).unwrap().unwrap();
            assert_eq!(got.version, version);
        }
    }

    #[test]
    fn parse_frame_bytes_handles_partials_and_pipelining() {
        let mut buf = Vec::new();
        write_frame(&mut buf, &Frame::request(Opcode::Ping, 1, Vec::new())).unwrap();
        write_frame(&mut buf, &Frame::request(Opcode::List, 2, Vec::new())).unwrap();

        // Every proper prefix of the first frame parses to "need more".
        for cut in 0..HEADER_LEN {
            assert!(parse_frame_bytes(&buf[..cut]).unwrap().is_none());
        }
        // Both pipelined frames come out in order.
        let (first, used) = parse_frame_bytes(&buf).unwrap().unwrap();
        assert_eq!(first.opcode(), Some(Opcode::Ping));
        let (second, used2) = parse_frame_bytes(&buf[used..]).unwrap().unwrap();
        assert_eq!(second.opcode(), Some(Opcode::List));
        assert_eq!(used + used2, buf.len());

        // Structural garbage fails as soon as the header is complete.
        let mut bad = buf.clone();
        bad[0] = b'Z';
        assert!(matches!(
            parse_frame_bytes(&bad),
            Err(ProtocolError::BadMagic(_))
        ));
        let mut bad = buf;
        bad[4] = 77;
        assert!(matches!(
            parse_frame_bytes(&bad),
            Err(ProtocolError::UnsupportedVersion(77))
        ));
    }

    fn two_cycle_trace() -> FunctionalTrace {
        let mut signals = SignalSet::new();
        signals.push("en", 1, Direction::Input).unwrap();
        signals.push("q", 8, Direction::Output).unwrap();
        let mut trace = FunctionalTrace::new(signals);
        trace
            .push_cycle(vec![Bits::from_bool(true), Bits::from_u64(3, 8)])
            .unwrap();
        trace
            .push_cycle(vec![Bits::from_bool(false), Bits::from_u64(250, 8)])
            .unwrap();
        trace
    }

    #[test]
    fn estimate_bin_request_round_trips() {
        let trace = two_cycle_trace();
        let payload = estimate_bin_request("aes", Some(4), &trace);
        let frame = Frame::request(Opcode::EstimateBin, 11, payload);
        let (model, version, back) = parse_estimate_bin_request(&frame).unwrap();
        assert_eq!(model, "aes");
        assert_eq!(version, Some(4));
        assert_eq!(back, trace);

        let frame = Frame::request(
            Opcode::EstimateBin,
            12,
            estimate_bin_request("aes", None, &trace),
        );
        let (_, version, _) = parse_estimate_bin_request(&frame).unwrap();
        assert_eq!(version, None);
    }

    #[test]
    fn oversized_model_names_are_rejected_not_truncated() {
        assert!(validate_model_name("aes").is_ok());
        assert!(validate_model_name(&"x".repeat(MAX_MODEL_NAME_BYTES)).is_ok());
        let err = validate_model_name(&"x".repeat(MAX_MODEL_NAME_BYTES + 1)).unwrap_err();
        assert!(err.to_string().contains("wire limit"), "{err}");
    }

    #[test]
    fn malformed_binary_estimate_requests_are_structured_errors() {
        let trace = two_cycle_trace();
        let good = estimate_bin_request("aes", None, &trace);

        // Truncation at every prefix: error or shorter trace, no panic.
        for cut in 0..good.len() {
            let frame = Frame::request(Opcode::EstimateBin, 1, good[..cut].to_vec());
            if let Ok((_, _, partial)) = parse_estimate_bin_request(&frame) {
                assert!(partial.len() < trace.len(), "cut at {cut}");
            }
        }

        // Bad inner magic.
        let mut bad = good.clone();
        bad[0] = b'J';
        let frame = Frame::request(Opcode::EstimateBin, 1, bad);
        assert!(matches!(
            parse_estimate_bin_request(&frame),
            Err(ProtocolError::Payload(_))
        ));
    }

    #[test]
    fn stream_payloads_round_trip() {
        let trace = two_cycle_trace();
        let open = Frame::request(
            Opcode::StreamOpen,
            1,
            stream_open_request(7, "multsum", Some(2), trace.signals()),
        );
        let (stream, model, version, signals) = parse_stream_open_request(&open).unwrap();
        assert_eq!((stream, model.as_str(), version), (7, "multsum", Some(2)));
        assert_eq!(signals.len(), trace.signals().len());

        let chunk = Frame::request(Opcode::StreamChunk, 2, stream_chunk_request(7, &trace));
        assert_eq!(parse_stream_id(&chunk).unwrap(), 7);
        let decoded = parse_stream_chunk_cycles(&chunk, &signals).unwrap();
        assert_eq!(decoded, trace);

        let close = Frame::request(Opcode::StreamClose, 3, stream_close_request(7));
        assert_eq!(parse_stream_id(&close).unwrap(), 7);
    }

    #[test]
    fn binary_estimate_reply_is_bit_exact() {
        let estimate = [1.0_f64 / 3.0, f64::MIN_POSITIVE, 0.1 + 0.2, -0.0];
        let payload = estimate_bin_reply("ram1k", 9, &estimate, 3, 1);
        let frame = Frame::response(Status::Ok, 5, payload);
        let got = parse_estimate_bin_reply(&frame).unwrap();
        assert_eq!(got.model, "ram1k");
        assert_eq!(got.version, 9);
        assert_eq!(got.wrong_state_predictions, 3);
        assert_eq!(got.unknown_instants, 1);
        let got_bits: Vec<u64> = got.estimate.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = estimate.iter().map(|v| v.to_bits()).collect();
        assert_eq!(got_bits, want_bits);

        // A reply lying about its estimate count is a structured error.
        let mut bad = estimate_bin_reply("ram1k", 9, &estimate, 3, 1);
        let n_at = bad.len() - estimate.len() * 8 - 4;
        bad[n_at..n_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let frame = Frame::response(Status::Ok, 5, bad);
        assert!(matches!(
            parse_estimate_bin_reply(&frame),
            Err(ProtocolError::Payload(_))
        ));
    }

    #[test]
    fn ping_negotiation_is_backward_compatible() {
        // The v1 conversation still reads exactly "psmd/v1" …
        let v1 = Frame::response_v(1, Status::Ok, 1, ping_reply(1));
        let (protocol, versions) = parse_ping_reply(&v1).unwrap();
        assert_eq!(protocol, "psmd/v1");
        // … while advertising the upgrade path.
        assert_eq!(versions, vec![1, 2]);

        let v2 = Frame::response(Status::Ok, 1, ping_reply(2));
        let (protocol, _) = parse_ping_reply(&v2).unwrap();
        assert_eq!(protocol, "psmd/v2");

        // A legacy daemon's reply (no `versions` field) means v1-only.
        let legacy = Frame::response_v(
            1,
            Status::Ok,
            1,
            JsonValue::obj([("protocol", JsonValue::from("psmd/v1"))])
                .render()
                .into_bytes(),
        );
        let (_, versions) = parse_ping_reply(&legacy).unwrap();
        assert_eq!(versions, vec![1]);
    }

    #[test]
    fn stream_control_replies_parse() {
        let open = Frame::response(Status::Ok, 1, stream_open_reply(3, "aes", 2));
        let doc = open.json().unwrap();
        assert_eq!(doc.u64_field("stream").unwrap(), 3);
        assert_eq!(doc.str_field("model").unwrap(), "aes");

        let close = Frame::response(Status::Ok, 2, stream_close_reply(3, "aes", 2, 100, 4, 1));
        let doc = close.json().unwrap();
        assert_eq!(doc.u64_field("instants").unwrap(), 100);
        assert_eq!(doc.u64_field("wrong_state_predictions").unwrap(), 4);
        assert_eq!(doc.u64_field("unknown_instants").unwrap(), 1);
    }
}
