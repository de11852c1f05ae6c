//! The `psmd` daemon: connection engine, dispatch, stats, graceful drain.
//!
//! A single event-loop thread drives every connection through `poll(2)`
//! ([`poll`](crate::poll)): non-blocking accepts, per-connection read
//! buffers parsed at frame granularity ([`protocol::parse_frame_bytes`]),
//! and per-connection outboxes flushed as sockets become writable. A peer
//! trickling a frame in byte-sized writes owns a buffer, not a thread — it
//! cannot stall other connections. Worker-pool callbacks append responses
//! to the outbox and wake the loop through the wake pipe. The daemon
//! needs `poll(2)`, so it serves on Unix targets only.
//!
//! Estimations go through the [`pool`](crate::pool) (bounded queue, one
//! job per worker turn, per-stream session turns); everything else is
//! answered inline. Each opcode's dispatcher returns either an inline
//! answer, which `dispatch` sends once, or hands the request to the pool,
//! whose callback sends the reply.
//!
//! The daemon speaks protocol v2 only. A frame whose header fails
//! validation — a v1 frame, the retired `ESTIMATE` kind 0x01, bad magic,
//! an oversize length — gets one `ERROR`
//! ([`protocol::header_error_reply`]), then the connection closes.
//!
//! Shutdown — the `SHUTDOWN` opcode or SIGTERM via
//! [`signals::on_sigterm`](crate::signals::on_sigterm) — is graceful by
//! construction: the flag stops accepts and reads, the pool drains
//! (every accepted job still gets its response), outboxes flush, stats
//! land in the final [`TelemetryReport`], and [`Server::run`] returns it.

use crate::poll::Waker;
use crate::pool::{EstimateJob, JobError, Pool, PoolConfig, Refused, SessionEntry, StreamJob};
use crate::protocol::{self, Frame, Opcode, Status};
use crate::registry::{Registry, RegistryError, ServedModel, Snapshot};
use psm_persist::JsonValue;
use psm_telemetry::{Stage, Telemetry, TelemetryReport};
use psm_trace::{PowerTrace, SignalSet};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default listen address of `psmd` (and default target of `psmctl`).
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";

/// The event loop's poll timeout: how often an idle loop re-checks the
/// shutdown flag.
const IDLE_POLL: Duration = Duration::from_millis(100);

/// How long the readiness loop keeps flushing outboxes after drain.
const FLUSH_DEADLINE: Duration = Duration::from_secs(5);

/// Daemon configuration: where to listen, what to serve, how to pool.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address; `127.0.0.1:0` (the default) takes an ephemeral
    /// loopback port, reported by [`Server::local_addr`].
    pub addr: String,
    /// The model registry directory (see [`Registry`]).
    pub registry_dir: PathBuf,
    /// Worker-pool tuning.
    pub pool: PoolConfig,
}

impl ServerConfig {
    /// A loopback config serving `registry_dir` with default pooling.
    pub fn new(registry_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            registry_dir: registry_dir.into(),
            pool: PoolConfig::default(),
        }
    }
}

/// A daemon startup or accept-loop failure.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept, local_addr).
    Io(io::Error),
    /// The model registry could not be loaded.
    Registry(RegistryError),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "server socket error: {e}"),
            ServeError::Registry(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Io(e) => Some(e),
            ServeError::Registry(e) => Some(e),
        }
    }
}

impl From<io::Error> for ServeError {
    fn from(e: io::Error) -> Self {
        ServeError::Io(e)
    }
}

impl From<RegistryError> for ServeError {
    fn from(e: RegistryError) -> Self {
        ServeError::Registry(e)
    }
}

/// Shared daemon state: everything a connection needs.
struct Ctx {
    registry: Registry,
    pool: Pool,
    telemetry: Arc<Telemetry>,
    shutdown: AtomicBool,
    local: SocketAddr,
}

impl Ctx {
    /// Sets the shutdown flag and pokes the event loop awake.
    fn trigger_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // A throwaway connection makes the event loop's listener fd
        // readable; the loop re-checks the flag before serving it.
        let _ = TcpStream::connect_timeout(&self.local, Duration::from_secs(1));
    }
}

/// A cloneable shutdown trigger, usable from another thread or a signal
/// watcher ([`crate::signals::on_sigterm`]).
#[derive(Clone)]
pub struct ServerHandle {
    ctx: Arc<Ctx>,
}

impl ServerHandle {
    /// Requests a graceful shutdown: drain, flush stats, exit.
    pub fn shutdown(&self) {
        self.ctx.trigger_shutdown();
    }
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("addr", &self.ctx.local)
            .finish()
    }
}

/// A bound (not yet running) daemon.
pub struct Server {
    listener: TcpListener,
    ctx: Arc<Ctx>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server")
            .field("addr", &self.ctx.local)
            .finish()
    }
}

impl Server {
    /// Loads the registry and binds the listen socket.
    ///
    /// # Errors
    ///
    /// [`ServeError::Registry`] when any registry artifact fails to
    /// load (the daemon never comes up half-populated), or
    /// [`ServeError::Io`] when the address cannot be bound.
    pub fn bind(cfg: ServerConfig) -> Result<Server, ServeError> {
        let telemetry = Arc::new(Telemetry::new());
        let registry = telemetry.time(Stage::Serve, "registry load", || {
            Registry::open(&cfg.registry_dir)
        })?;
        let listener = TcpListener::bind(cfg.addr.as_str())?;
        let local = listener.local_addr()?;
        let pool = Pool::new(cfg.pool, telemetry.clone());
        Ok(Server {
            listener,
            ctx: Arc::new(Ctx {
                registry,
                pool,
                telemetry,
                shutdown: AtomicBool::new(false),
                local,
            }),
        })
    }

    /// The bound address (resolves the ephemeral port of `:0` configs).
    pub fn local_addr(&self) -> SocketAddr {
        self.ctx.local
    }

    /// The daemon's telemetry sink (the `STATS` opcode reports it).
    pub fn telemetry(&self) -> Arc<Telemetry> {
        self.ctx.telemetry.clone()
    }

    /// A shutdown trigger independent of the serving thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            ctx: self.ctx.clone(),
        }
    }

    /// Serves until shutdown, then drains and returns the final stats.
    ///
    /// # Errors
    ///
    /// [`ServeError::Io`] for fatal listener/poll failures, including a
    /// wake pipe that cannot be opened and a target without `poll(2)`;
    /// per-connection errors are answered on that connection and logged
    /// to the telemetry counters instead.
    pub fn run(self) -> Result<TelemetryReport, ServeError> {
        self.event_loop()
    }

    #[cfg(not(unix))]
    fn event_loop(self) -> Result<TelemetryReport, ServeError> {
        Err(ServeError::Io(io::Error::new(
            io::ErrorKind::Unsupported,
            "psmd serves through poll(2), which this target lacks",
        )))
    }

    #[cfg(unix)]
    fn event_loop(self) -> Result<TelemetryReport, ServeError> {
        use crate::poll::{poll_fds, PollFd, WakePipe, POLLHUP, POLLIN, POLLOUT};
        use std::os::unix::io::AsRawFd;
        use std::time::Instant;

        let wake = WakePipe::new()?;
        self.listener.set_nonblocking(true)?;
        let listener_fd = self.listener.as_raw_fd();
        let waker = wake.waker();
        let mut conns: Vec<Conn> = Vec::new();

        while !self.ctx.shutdown.load(Ordering::SeqCst) {
            let mut fds = Vec::with_capacity(2 + conns.len());
            fds.push(PollFd::new(listener_fd, POLLIN));
            fds.push(PollFd::new(wake.read_fd(), POLLIN));
            for conn in &conns {
                let (outbox_empty, outbox_bytes) = {
                    let ob = conn.outbox.lock().expect("outbox poisoned");
                    (ob.is_empty(), ob.bytes)
                };
                let mut events = 0i16;
                // Backpressure: a peer whose outbox is over the cap
                // (it pipelines requests without reading responses)
                // stops being read until the queue drains.
                if !conn.closing && outbox_bytes < OUTBOX_BACKPRESSURE_BYTES {
                    events |= POLLIN;
                }
                if !outbox_empty {
                    events |= POLLOUT;
                }
                fds.push(PollFd::new(conn.fd, events));
            }
            poll_fds(&mut fds, IDLE_POLL.as_millis() as i32)?;

            if fds[1].ready(POLLIN) {
                wake.drain();
            }
            if fds[0].ready(POLLIN) && !self.ctx.shutdown.load(Ordering::SeqCst) {
                loop {
                    match self.listener.accept() {
                        Ok((stream, _)) => {
                            if let Some(conn) = Conn::accept(stream, &self.ctx, waker) {
                                conns.push(conn);
                            }
                        }
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                        // Transient accept failures (EMFILE and friends)
                        // must not kill the daemon.
                        Err(_) => break,
                    }
                }
            }
            // Connections accepted above have no pollfd entry yet; they
            // are serviced from the next iteration on.
            for (i, conn) in conns.iter_mut().take(fds.len() - 2).enumerate() {
                let pfd = fds[i + 2];
                if pfd.failed() {
                    conn.dead = true;
                    continue;
                }
                if pfd.ready(POLLIN | POLLHUP) && !conn.closing {
                    conn.service_read(&self.ctx);
                }
                conn.flush_outbox();
            }
            // A closing conn survives while the pool still owes it
            // responses; `inflight` is checked before the outbox so a
            // response queued between the two loads is never missed
            // (the guard decrements only after the response is queued).
            conns.retain(|c| {
                !(c.dead
                    || c.closing
                        && c.inflight.load(Ordering::SeqCst) == 0
                        && c.outbox.lock().expect("outbox poisoned").is_empty())
            });
        }

        // Drain: reads have stopped (the loop exited); every accepted
        // job still runs, its response landing in an outbox…
        self.ctx.pool.drain();
        // …then flush what remains, bounded so a vanished peer cannot
        // wedge shutdown.
        let deadline = Instant::now() + FLUSH_DEADLINE;
        loop {
            for conn in conns.iter_mut() {
                conn.flush_outbox();
            }
            conns.retain(|c| !c.dead && !c.outbox.lock().expect("outbox poisoned").is_empty());
            if conns.is_empty() || Instant::now() >= deadline {
                break;
            }
            let mut fds: Vec<PollFd> = conns.iter().map(|c| PollFd::new(c.fd, POLLOUT)).collect();
            let _ = poll_fds(&mut fds, 50);
        }
        Ok(self.ctx.telemetry.report())
    }

    /// Runs the daemon on a background thread.
    pub fn spawn(self) -> RunningServer {
        let addr = self.ctx.local;
        let handle = self.handle();
        let thread = std::thread::Builder::new()
            .name("psmd-accept".to_owned())
            .spawn(move || self.run())
            .expect("spawn server thread");
        RunningServer {
            addr,
            handle,
            thread,
        }
    }
}

/// A daemon running on a background thread (see [`Server::spawn`]).
#[derive(Debug)]
pub struct RunningServer {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: std::thread::JoinHandle<Result<TelemetryReport, ServeError>>,
}

impl RunningServer {
    /// The daemon's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A shutdown trigger for this daemon.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Waits for the daemon to exit and returns its final stats.
    ///
    /// # Errors
    ///
    /// The daemon's own [`ServeError`]; a panicked serving thread
    /// surfaces as [`ServeError::Io`].
    pub fn join(self) -> Result<TelemetryReport, ServeError> {
        self.thread
            .join()
            .map_err(|_| ServeError::Io(io::Error::other("daemon thread panicked")))?
    }
}

// ---------------------------------------------------------------------
// Connection state.
// ---------------------------------------------------------------------

/// Bytes a peer may queue in its outbox before the daemon stops
/// reading (and so stops accepting) further requests from it. A peer
/// that pipelines requests without ever reading responses hits this cap
/// and stalls itself instead of growing daemon memory without bound;
/// responses already owed by the pool still land and flush normally.
const OUTBOX_BACKPRESSURE_BYTES: usize = 8 * 1024 * 1024;

/// Bytes queued towards one peer, flushed as the socket drains.
#[derive(Default)]
struct Outbox {
    queue: std::collections::VecDeque<Vec<u8>>,
    /// How much of the front entry has been written.
    offset: usize,
    /// Total bytes across `queue` (the front entry counts in full
    /// until it is popped) — the backpressure gauge.
    bytes: usize,
}

impl Outbox {
    fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    fn push(&mut self, buf: Vec<u8>) {
        self.bytes += buf.len();
        self.queue.push_back(buf);
    }
}

/// One connection: non-blocking socket, accumulated read buffer,
/// response outbox, and this connection's open streams.
struct Conn {
    stream: TcpStream,
    fd: i32,
    rbuf: Vec<u8>,
    outbox: Arc<Mutex<Outbox>>,
    /// Pool jobs submitted for this connection whose responses have not
    /// been queued yet; a closing connection is retired only once this
    /// reaches zero *and* the outbox is flushed, so a peer that sends
    /// requests and immediately `shutdown(SHUT_WR)`s still gets its
    /// responses.
    inflight: Arc<AtomicU64>,
    sink: ResponseSink,
    sessions: HashMap<u32, ConnSession>,
    /// Stop reading; close once the outbox is flushed.
    closing: bool,
    /// Remove immediately (peer gone or socket error).
    dead: bool,
}

impl Conn {
    #[cfg(unix)]
    fn accept(stream: TcpStream, ctx: &Arc<Ctx>, waker: Waker) -> Option<Conn> {
        use std::os::unix::io::AsRawFd;
        ctx.telemetry.add_named("serve.connections", 1);
        let _ = stream.set_nodelay(true);
        stream.set_nonblocking(true).ok()?;
        let fd = stream.as_raw_fd();
        let outbox = Arc::new(Mutex::new(Outbox::default()));
        let inflight = Arc::new(AtomicU64::new(0));
        Some(Conn {
            stream,
            fd,
            rbuf: Vec::new(),
            sink: ResponseSink {
                outbox: outbox.clone(),
                inflight: inflight.clone(),
                waker,
            },
            outbox,
            inflight,
            sessions: HashMap::new(),
            closing: false,
            dead: false,
        })
    }

    /// Reads until the socket would block, then dispatches every
    /// complete frame in the buffer.
    fn service_read(&mut self, ctx: &Arc<Ctx>) {
        let mut buf = [0u8; 64 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    // Peer closed. Parse what already arrived, then go.
                    self.closing = true;
                    break;
                }
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        let mut consumed = 0;
        loop {
            match protocol::parse_frame_bytes(&self.rbuf[consumed..]) {
                Ok(None) => break,
                Ok(Some((frame, used))) => {
                    consumed += used;
                    if !dispatch(ctx, &self.sink, &mut self.sessions, frame) {
                        self.closing = true;
                        break;
                    }
                }
                Err(e) => {
                    // A malformed frame desynchronises the stream:
                    // answer once, then hang up (after the flush).
                    ctx.telemetry.add_named("serve.protocol_errors", 1);
                    let reply = protocol::header_error_reply(&e, &self.rbuf[consumed..]);
                    self.sink.push(reply);
                    self.closing = true;
                    break;
                }
            }
        }
        self.rbuf.drain(..consumed);
        if self.closing {
            self.rbuf.clear();
        }
    }

    /// Writes queued responses until the socket would block.
    fn flush_outbox(&mut self) {
        if self.dead {
            return;
        }
        let mut ob = self.outbox.lock().expect("outbox poisoned");
        while let Some(front) = ob.queue.front() {
            match self.stream.write(&front[ob.offset..]) {
                Ok(n) => {
                    ob.offset += n;
                    if ob.offset == ob.queue.front().expect("front exists").len() {
                        let done = ob.queue.pop_front().expect("front exists");
                        ob.bytes -= done.len();
                        ob.offset = 0;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
    }
}

/// One open stream on a connection: the pool-side session plus the
/// interned dictionary chunks decode against.
struct ConnSession {
    entry: Arc<SessionEntry>,
    signals: SignalSet,
}

/// Where a connection's responses go: queued on its outbox, with the
/// event loop woken to flush them.
#[derive(Clone)]
struct ResponseSink {
    outbox: Arc<Mutex<Outbox>>,
    inflight: Arc<AtomicU64>,
    waker: Waker,
}

impl ResponseSink {
    /// Queues encoded frames and wakes the event loop to flush them.
    fn push(&self, bytes: Vec<u8>) {
        self.outbox.lock().expect("outbox poisoned").push(bytes);
        self.waker.wake();
    }

    /// The reply half of a request handed to the pool. It registers one
    /// job against this connection, so the event loop will not retire a
    /// half-closed peer before the job's response lands in the outbox.
    fn defer(&self, frame: &Frame) -> Deferred {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        Deferred {
            sink: self.clone(),
            request_id: frame.request_id,
        }
    }
}

/// A pool job's way back to its connection. Dropping it — after the job
/// responded, or with a job the pool refused — releases the
/// [`ResponseSink::defer`] registration and wakes the event loop so it
/// re-evaluates the connection.
struct Deferred {
    sink: ResponseSink,
    request_id: u64,
}

impl Deferred {
    fn send(self, status: Status, payload: Vec<u8>) {
        respond(&self.sink, status, self.request_id, payload);
    }

    fn send_error(self, message: &str) {
        self.send(Status::Error, protocol::error_payload(message));
    }
}

impl Drop for Deferred {
    fn drop(&mut self) {
        self.sink.inflight.fetch_sub(1, Ordering::SeqCst);
        self.sink.waker.wake();
    }
}

/// Delivers one response frame. A payload over the frame cap is replaced
/// by one `ERROR` reply that names its size, so the request still gets
/// exactly one answer.
fn respond(sink: &ResponseSink, status: Status, request_id: u64, payload: Vec<u8>) {
    let mut frame = Frame::response(status, request_id, payload);
    if frame.payload.len() > protocol::MAX_PAYLOAD as usize {
        let message = format!(
            "reply of {} bytes exceeds the {}-byte frame cap",
            frame.payload.len(),
            protocol::MAX_PAYLOAD
        );
        frame = Frame::response(Status::Error, request_id, protocol::error_payload(&message));
    }
    let mut buf = Vec::with_capacity(protocol::HEADER_LEN + frame.payload.len());
    protocol::write_frame(&mut buf, &frame).expect("vec write of a capped frame cannot fail");
    sink.push(buf);
}

/// A request answered inline with a status other than `OK`.
enum InlineError {
    /// `BUSY`: the pool refused the job for lack of room.
    Busy,
    /// `ERROR` carrying this message.
    Error(String),
}

impl From<String> for InlineError {
    fn from(message: String) -> Self {
        InlineError::Error(message)
    }
}

impl From<protocol::ProtocolError> for InlineError {
    fn from(e: protocol::ProtocolError) -> Self {
        InlineError::Error(e.to_string())
    }
}

impl From<Refused> for InlineError {
    fn from(refused: Refused) -> Self {
        match refused {
            Refused::Busy => InlineError::Busy,
            Refused::Draining => InlineError::Error("daemon is shutting down".to_owned()),
        }
    }
}

/// What a dispatcher decided: `Some(payload)` answers `OK` now, `None`
/// hands the request to the pool, whose callback answers it later.
type Answer = Result<Option<Vec<u8>>, InlineError>;

/// Handles one request frame, sending its inline reply (if any) once;
/// `false` ends the connection.
fn dispatch(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: Frame,
) -> bool {
    let op = frame.opcode();
    let answer = match op {
        None => Err(InlineError::Error(
            "frame kind is a response status, not a request opcode".to_owned(),
        )),
        Some(op) => {
            ctx.telemetry.add_named(op.counter_name(), 1);
            dispatch_op(ctx, sink, sessions, op, &frame)
        }
    };
    let (status, payload) = match answer {
        Ok(None) => return true,
        Ok(Some(payload)) => (Status::Ok, payload),
        Err(InlineError::Busy) => (Status::Busy, Vec::new()),
        Err(InlineError::Error(message)) => (Status::Error, protocol::error_payload(&message)),
    };
    respond(sink, status, frame.request_id, payload);
    !matches!(op, None | Some(Opcode::Shutdown))
}

fn dispatch_op(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    op: Opcode,
    frame: &Frame,
) -> Answer {
    match op {
        Opcode::EstimateBin => dispatch_estimate(ctx, sink, frame),
        Opcode::StreamOpen => dispatch_stream_open(ctx, sessions, frame),
        Opcode::StreamChunk => dispatch_stream_chunk(ctx, sink, sessions, frame),
        Opcode::StreamClose => dispatch_stream_close(ctx, sink, sessions, frame),
        Opcode::Stats => {
            let format = frame
                .json()
                .ok()
                .and_then(|doc| doc.str_field("format").map(str::to_owned).ok())
                .unwrap_or_else(|| "text".to_owned());
            let report = ctx.telemetry.report();
            let payload = match format.as_str() {
                "json" => JsonValue::obj([
                    ("format", JsonValue::from("json")),
                    ("stats", report.to_json()),
                ]),
                _ => JsonValue::obj([
                    ("format", JsonValue::from("text")),
                    ("stats", JsonValue::from(report.text())),
                ]),
            };
            Ok(Some(payload.render().into_bytes()))
        }
        Opcode::Reload => {
            let snapshot = ctx
                .telemetry
                .time_named("serve.reload_ns", || ctx.registry.reload())
                .map_err(|e| {
                    ctx.telemetry.add_named("serve.reload_failures", 1);
                    e.to_string()
                })?;
            Ok(Some(models_payload(&snapshot)))
        }
        Opcode::List => Ok(Some(models_payload(&ctx.registry.snapshot()))),
        Opcode::Ping => Ok(Some(protocol::ping_reply())),
        Opcode::Shutdown => {
            ctx.trigger_shutdown();
            Ok(Some(Vec::new()))
        }
    }
}

/// Resolves the model of an estimate-class request and checks the
/// request's signal dictionary against it.
fn resolve_model(
    ctx: &Arc<Ctx>,
    name: &str,
    version: Option<u64>,
    signals: &SignalSet,
) -> Result<Arc<ServedModel>, InlineError> {
    let Some(model) = ctx.registry.snapshot().lookup(name, version) else {
        ctx.telemetry.add_named("serve.unknown_model", 1);
        return Err(match version {
            Some(ver) => format!("unknown model {name}@{ver}"),
            None => format!("unknown model {name}"),
        }
        .into());
    };
    if let Err(message) = model.check_interface(signals) {
        ctx.telemetry.add_named("serve.interface_mismatch", 1);
        return Err(message.into());
    }
    Ok(model)
}

/// The binary estimate payload answering `ESTIMATE_BIN` and
/// `STREAM_CHUNK`.
fn bin_reply(model: &ServedModel, estimate: &PowerTrace, wrong: usize, unknown: usize) -> Vec<u8> {
    protocol::estimate_bin_reply(
        &model.name,
        model.version,
        estimate.as_slice(),
        wrong as u64,
        unknown as u64,
    )
}

/// The message answering a chunk or close of a stream that is not open
/// on this connection, or that a panicking chunk closed.
fn not_open(stream: u32) -> String {
    format!("stream {stream} is not open")
}

/// `ESTIMATE_BIN`: decoded here, estimated in the pool.
fn dispatch_estimate(ctx: &Arc<Ctx>, sink: &ResponseSink, frame: &Frame) -> Answer {
    let (name, version, trace) = protocol::parse_estimate_bin_request(frame)?;
    let model = resolve_model(ctx, &name, version, trace.signals())?;
    let reply = sink.defer(frame);
    let reply_model = model.clone();
    ctx.pool.submit(EstimateJob {
        model,
        trace,
        respond: Box::new(move |outcome| match outcome {
            Ok(out) => reply.send(
                Status::Ok,
                bin_reply(
                    &reply_model,
                    &out.estimate,
                    out.wrong_state_predictions,
                    out.unknown_instants,
                ),
            ),
            Err(e) => reply.send_error(&e.to_string()),
        }),
    })?;
    Ok(None)
}

fn dispatch_stream_open(
    ctx: &Arc<Ctx>,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> Answer {
    let (stream, name, version, signals) = protocol::parse_stream_open_request(frame)?;
    if sessions.contains_key(&stream) {
        return Err(format!("stream {stream} is already open").into());
    }
    let model = resolve_model(ctx, &name, version, &signals)?;
    let entry = ctx.pool.open_session(model).ok_or(Refused::Draining)?;
    let payload = protocol::stream_open_reply(stream, &entry.model().name, entry.model().version);
    sessions.insert(stream, ConnSession { entry, signals });
    Ok(Some(payload))
}

fn dispatch_stream_chunk(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> Answer {
    let stream = protocol::parse_stream_id(frame)?;
    let cs = sessions.get(&stream).ok_or_else(|| not_open(stream))?;
    let chunk = protocol::parse_stream_chunk_cycles(frame, &cs.signals)?;
    let model = cs.entry.model().clone();
    let reply = sink.defer(frame);
    ctx.pool.submit_stream(
        &cs.entry,
        StreamJob::Chunk {
            chunk,
            respond: Box::new(move |fed| match fed {
                Ok(out) => reply.send(
                    Status::Ok,
                    bin_reply(
                        &model,
                        &out.estimate,
                        out.wrong_state_predictions,
                        out.unknown_instants,
                    ),
                ),
                Err(JobError::StreamClosed) => reply.send_error(&not_open(stream)),
                Err(e) => reply.send_error(&e.to_string()),
            }),
        },
    )?;
    Ok(None)
}

fn dispatch_stream_close(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> Answer {
    let stream = protocol::parse_stream_id(frame)?;
    let cs = sessions.remove(&stream).ok_or_else(|| not_open(stream))?;
    let model = cs.entry.model().clone();
    let reply = sink.defer(frame);
    ctx.pool.submit_stream(
        &cs.entry,
        StreamJob::Close {
            respond: Box::new(move |totals| match totals {
                Ok(totals) => reply.send(
                    Status::Ok,
                    protocol::stream_close_reply(
                        stream,
                        &model.name,
                        model.version,
                        totals.instants as u64,
                        totals.wrong_state_predictions as u64,
                        totals.unknown_instants as u64,
                    ),
                ),
                Err(_) => reply.send_error(&not_open(stream)),
            }),
        },
    )?;
    Ok(None)
}

/// Renders a snapshot's model list — the `LIST` and `RELOAD` payload.
fn models_payload(snapshot: &Snapshot) -> Vec<u8> {
    JsonValue::obj([(
        "models",
        JsonValue::arr(snapshot.models().iter().map(|m| {
            JsonValue::obj([
                ("name", JsonValue::from(m.name.as_str())),
                ("version", JsonValue::from(m.version)),
                ("format_version", JsonValue::from(m.format_version)),
                ("states", JsonValue::from(m.state_count())),
                ("propositions", JsonValue::from(m.proposition_count())),
            ])
        })),
    )])
    .render()
    .into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_loopback_ephemeral() {
        let cfg = ServerConfig::new("/tmp/registry");
        assert_eq!(cfg.addr, "127.0.0.1:0");
        assert!(cfg.pool.workers >= 1);
    }

    #[cfg(unix)]
    #[test]
    fn oversize_reply_becomes_one_error_reply() {
        let wake = crate::poll::WakePipe::new().unwrap();
        let sink = ResponseSink {
            outbox: Arc::new(Mutex::new(Outbox::default())),
            inflight: Arc::new(AtomicU64::new(0)),
            waker: wake.waker(),
        };
        let cap = protocol::MAX_PAYLOAD as usize;
        respond(&sink, Status::Ok, 42, vec![0u8; cap + 1]);
        let outbox = sink.outbox.lock().unwrap();
        assert_eq!(outbox.queue.len(), 1, "exactly one reply");
        let bytes = &outbox.queue[0];
        let (frame, used) = protocol::parse_frame_bytes(bytes).unwrap().unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(bytes[4], 2);
        assert_eq!(frame.request_id, 42);
        assert_eq!(frame.status(), Some(Status::Error));
        assert_eq!(
            protocol::parse_error(&frame),
            format!(
                "reply of {} bytes exceeds the {cap}-byte frame cap",
                cap + 1
            )
        );
    }

    #[test]
    fn bind_fails_structurally_on_a_missing_registry() {
        let err = Server::bind(ServerConfig::new("/nonexistent/psmd/registry")).unwrap_err();
        assert!(matches!(err, ServeError::Registry(_)), "{err}");
        assert!(err.to_string().contains("registry"), "{err}");
    }
}
