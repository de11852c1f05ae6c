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
//! Estimations go through the [`pool`](crate::pool) (bounded queue,
//! per-model batching, per-stream session turns); everything else is
//! answered inline. Responses echo the request frame's protocol version,
//! so v1 clients interoperate with this v2 daemon untouched.
//!
//! Shutdown — the `SHUTDOWN` opcode or SIGTERM via
//! [`signals::on_sigterm`](crate::signals::on_sigterm) — is graceful by
//! construction: the flag stops accepts and reads, the pool drains
//! (every accepted job still gets its response), outboxes flush, stats
//! land in the final [`TelemetryReport`], and [`Server::run`] returns it.

use crate::poll::Waker;
use crate::pool::{
    EstimateJob, Pool, PoolConfig, SessionEntry, StreamJob, StreamReply, StreamSubmit, StreamWork,
    SubmitOutcome,
};
use crate::protocol::{self, Frame, Opcode, Status, MIN_PROTOCOL_VERSION};
use crate::registry::{Registry, RegistryError, Snapshot};
use psm_persist::JsonValue;
use psm_telemetry::{Stage, Telemetry, TelemetryReport};
use psm_trace::SignalSet;
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
        let outbox = Arc::new(Mutex::new(Outbox {
            queue: std::collections::VecDeque::new(),
            offset: 0,
            bytes: 0,
        }));
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
                    respond(
                        &self.sink,
                        MIN_PROTOCOL_VERSION,
                        Status::Error,
                        0,
                        protocol::error_payload(&e.to_string()),
                    );
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
    /// Registers one pool job against this connection so the event loop
    /// will not retire a half-closed peer before the job's response lands
    /// in the outbox.
    fn job_guard(&self) -> JobGuard {
        self.inflight.fetch_add(1, Ordering::SeqCst);
        JobGuard {
            inflight: self.inflight.clone(),
            waker: self.waker,
        }
    }
}

/// Releases a [`ResponseSink::job_guard`] registration on drop —
/// whether the job responded, was rejected by a full queue, or was
/// dropped by a draining pool — and wakes the event loop so it
/// re-evaluates the connection.
struct JobGuard {
    inflight: Arc<AtomicU64>,
    waker: Waker,
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        self.waker.wake();
    }
}

/// Delivers one response frame, echoing the request's protocol version.
fn respond(sink: &ResponseSink, version: u8, status: Status, request_id: u64, payload: Vec<u8>) {
    let frame = Frame::response_v(version, status, request_id, payload);
    let mut buf = Vec::with_capacity(protocol::HEADER_LEN + frame.payload.len());
    protocol::write_frame(&mut buf, &frame).expect("vec write cannot fail");
    sink.outbox.lock().expect("outbox poisoned").push(buf);
    sink.waker.wake();
}

/// Handles one request frame; `false` ends the connection.
fn dispatch(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: Frame,
) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let Some(op) = frame.opcode() else {
        respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload("frame kind is a response status, not a request opcode"),
        );
        return false;
    };
    ctx.telemetry
        .add_named(&format!("serve.op.{}", op.name()), 1);
    if v < op.min_version() {
        respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload(&format!(
                "opcode {} requires protocol v{} (frame is v{v})",
                op.name(),
                op.min_version()
            )),
        );
        return true;
    }
    match op {
        Opcode::Estimate => dispatch_estimate(ctx, sink, &frame),
        Opcode::EstimateBin => dispatch_estimate_bin(ctx, sink, &frame),
        Opcode::StreamOpen => dispatch_stream_open(ctx, sink, sessions, &frame),
        Opcode::StreamChunk => dispatch_stream_chunk(ctx, sink, sessions, &frame),
        Opcode::StreamClose => dispatch_stream_close(ctx, sink, sessions, &frame),
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
            respond(sink, v, Status::Ok, id, payload.render().into_bytes());
            true
        }
        Opcode::Reload => {
            let reloaded = ctx
                .telemetry
                .time(Stage::Serve, "registry reload", || ctx.registry.reload());
            match reloaded {
                Ok(snapshot) => respond(sink, v, Status::Ok, id, models_payload(&snapshot)),
                Err(e) => {
                    ctx.telemetry.add_named("serve.reload_failures", 1);
                    respond(
                        sink,
                        v,
                        Status::Error,
                        id,
                        protocol::error_payload(&e.to_string()),
                    );
                }
            }
            true
        }
        Opcode::List => {
            respond(
                sink,
                v,
                Status::Ok,
                id,
                models_payload(&ctx.registry.snapshot()),
            );
            true
        }
        Opcode::Ping => {
            respond(sink, v, Status::Ok, id, protocol::ping_reply(v));
            true
        }
        Opcode::Shutdown => {
            respond(sink, v, Status::Ok, id, Vec::new());
            ctx.trigger_shutdown();
            false
        }
    }
}

/// Resolves the model of an estimate-class request, answering the error
/// inline when it is unknown.
fn resolve_model(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    v: u8,
    id: u64,
    name: &str,
    version: Option<u64>,
) -> Option<Arc<crate::registry::ServedModel>> {
    let model = ctx.registry.snapshot().lookup(name, version);
    if model.is_none() {
        let msg = match version {
            Some(ver) => format!("unknown model {name}@{ver}"),
            None => format!("unknown model {name}"),
        };
        ctx.telemetry.add_named("serve.unknown_model", 1);
        respond(sink, v, Status::Error, id, protocol::error_payload(&msg));
    }
    model
}

/// Submits an estimate job, answering backpressure inline.
fn submit_estimate(ctx: &Arc<Ctx>, sink: &ResponseSink, v: u8, id: u64, job: EstimateJob) {
    match ctx.pool.submit(job) {
        SubmitOutcome::Accepted => {}
        SubmitOutcome::Busy(_) => respond(sink, v, Status::Busy, id, Vec::new()),
        SubmitOutcome::Draining(_) => respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload("daemon is shutting down"),
        ),
    }
}

fn dispatch_estimate(ctx: &Arc<Ctx>, sink: &ResponseSink, frame: &Frame) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let (name, version, trace) = match protocol::parse_estimate_request(frame) {
        Ok(parts) => parts,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    let Some(model) = resolve_model(ctx, sink, v, id, &name, version) else {
        return true;
    };
    let reply_name = model.name.clone();
    let reply_version = model.version;
    let reply_sink = sink.clone();
    let guard = sink.job_guard();
    let job = EstimateJob {
        request_id: id,
        model,
        trace,
        respond: Box::new(move |outcome| {
            let _guard = guard;
            respond(
                &reply_sink,
                v,
                Status::Ok,
                id,
                protocol::estimate_reply(&reply_name, reply_version, &outcome),
            );
        }),
    };
    submit_estimate(ctx, sink, v, id, job);
    true
}

fn dispatch_estimate_bin(ctx: &Arc<Ctx>, sink: &ResponseSink, frame: &Frame) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let (name, version, trace) = match protocol::parse_estimate_bin_request(frame) {
        Ok(parts) => parts,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    let Some(model) = resolve_model(ctx, sink, v, id, &name, version) else {
        return true;
    };
    let reply_name = model.name.clone();
    let reply_version = model.version;
    let reply_sink = sink.clone();
    let guard = sink.job_guard();
    let job = EstimateJob {
        request_id: id,
        model,
        trace,
        respond: Box::new(move |outcome| {
            let _guard = guard;
            let estimate: Vec<f64> = outcome.estimate.iter().collect();
            respond(
                &reply_sink,
                v,
                Status::Ok,
                id,
                protocol::estimate_bin_reply(
                    &reply_name,
                    reply_version,
                    &estimate,
                    outcome.wrong_state_predictions as u64,
                    outcome.unknown_instants as u64,
                ),
            );
        }),
    };
    submit_estimate(ctx, sink, v, id, job);
    true
}

fn dispatch_stream_open(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let (stream, name, version, signals) = match protocol::parse_stream_open_request(frame) {
        Ok(parts) => parts,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    if sessions.contains_key(&stream) {
        respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload(&format!("stream {stream} is already open")),
        );
        return true;
    }
    let Some(model) = resolve_model(ctx, sink, v, id, &name, version) else {
        return true;
    };
    match ctx.pool.open_session(model) {
        Some(entry) => {
            let m = entry.model().clone();
            respond(
                sink,
                v,
                Status::Ok,
                id,
                protocol::stream_open_reply(stream, &m.name, m.version),
            );
            sessions.insert(stream, ConnSession { entry, signals });
        }
        None => respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload("daemon is shutting down"),
        ),
    }
    true
}

fn dispatch_stream_chunk(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let stream = match protocol::parse_stream_id(frame) {
        Ok(s) => s,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    let Some(cs) = sessions.get(&stream) else {
        respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload(&format!("stream {stream} is not open")),
        );
        return true;
    };
    let chunk = match protocol::parse_stream_chunk_cycles(frame, &cs.signals) {
        Ok(c) => c,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    let model = cs.entry.model().clone();
    let reply_sink = sink.clone();
    let guard = sink.job_guard();
    let job = StreamJob {
        request_id: id,
        kind: StreamWork::Chunk(chunk),
        respond: Box::new(move |reply| {
            let _guard = guard;
            match reply {
                StreamReply::Chunk(out) => {
                    let estimate: Vec<f64> = out.estimate.iter().collect();
                    respond(
                        &reply_sink,
                        v,
                        Status::Ok,
                        id,
                        protocol::estimate_bin_reply(
                            &model.name,
                            model.version,
                            &estimate,
                            out.wrong_state_predictions as u64,
                            out.unknown_instants as u64,
                        ),
                    );
                }
                StreamReply::Failed(msg) => respond(
                    &reply_sink,
                    v,
                    Status::Error,
                    id,
                    protocol::error_payload(&msg),
                ),
                StreamReply::Closed(_) => respond(
                    &reply_sink,
                    v,
                    Status::Error,
                    id,
                    protocol::error_payload("stream closed before the chunk ran"),
                ),
            }
        }),
    };
    match ctx.pool.submit_stream(&cs.entry, job) {
        StreamSubmit::Accepted => {}
        StreamSubmit::Busy(_) => respond(sink, v, Status::Busy, id, Vec::new()),
        StreamSubmit::Draining(_) => respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload("daemon is shutting down"),
        ),
    }
    true
}

fn dispatch_stream_close(
    ctx: &Arc<Ctx>,
    sink: &ResponseSink,
    sessions: &mut HashMap<u32, ConnSession>,
    frame: &Frame,
) -> bool {
    let id = frame.request_id;
    let v = frame.version;
    let stream = match protocol::parse_stream_id(frame) {
        Ok(s) => s,
        Err(e) => {
            respond(
                sink,
                v,
                Status::Error,
                id,
                protocol::error_payload(&e.to_string()),
            );
            return true;
        }
    };
    let Some(cs) = sessions.remove(&stream) else {
        respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload(&format!("stream {stream} is not open")),
        );
        return true;
    };
    let model = cs.entry.model().clone();
    let reply_sink = sink.clone();
    let guard = sink.job_guard();
    let job = StreamJob {
        request_id: id,
        kind: StreamWork::Close,
        respond: Box::new(move |reply| {
            let _guard = guard;
            match reply {
                StreamReply::Closed(totals) => respond(
                    &reply_sink,
                    v,
                    Status::Ok,
                    id,
                    protocol::stream_close_reply(
                        stream,
                        &model.name,
                        model.version,
                        totals.instants as u64,
                        totals.wrong_state_predictions as u64,
                        totals.unknown_instants as u64,
                    ),
                ),
                StreamReply::Chunk(_) | StreamReply::Failed(_) => respond(
                    &reply_sink,
                    v,
                    Status::Error,
                    id,
                    protocol::error_payload("close answered with a non-close reply"),
                ),
            }
        }),
    };
    match ctx.pool.submit_stream(&cs.entry, job) {
        StreamSubmit::Accepted => {}
        StreamSubmit::Busy(_) => respond(sink, v, Status::Busy, id, Vec::new()),
        StreamSubmit::Draining(_) => respond(
            sink,
            v,
            Status::Error,
            id,
            protocol::error_payload("daemon is shutting down"),
        ),
    }
    true
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

    #[test]
    fn bind_fails_structurally_on_a_missing_registry() {
        let err = Server::bind(ServerConfig::new("/nonexistent/psmd/registry")).unwrap_err();
        assert!(matches!(err, ServeError::Registry(_)), "{err}");
        assert!(err.to_string().contains("registry"), "{err}");
    }
}
