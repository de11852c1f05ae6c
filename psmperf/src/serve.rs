//! `serve_mixed`: psmd under an open-loop mix of one-shot requests and
//! stream chunks.
//!
//! The daemon is this binary re-executed in `--daemon` mode, so its
//! memory and CPU time are its own. It serves v3 compiled artifacts of the
//! MultSum and AES short-TS models with psmd's default pool. The load
//! comes from this process: one thread and one connection send one-shot
//! `ESTIMATE_BIN` requests of 2 000 cycles, alternating the two models, as
//! seeded Poisson arrivals; a second thread and connection keep four
//! MultSum stream sessions fed with 256-cycle chunks at a constant rate.
//! On a one-core host both schedules share one thread and connection.
//! Latency runs from the time a request was due, so a stalled generator
//! is charged to the system, and the generator's own lateness is
//! reported. Every reply must be bit-identical to the same call made
//! in-process through `ServedModel::estimate` or `StreamSession::feed`.

use crate::common::{
    alternate, flow, fnv, heldout_mre_pct, ip, long_ts, nproc, peak_rss_mib, reference_powers,
    short_ts, timed_setup, Res,
};
use crate::stats::Summary;
use crate::trace::Tracer;
use crate::{layer_metrics, Config, Outcome};
use psm_prng::Prng;
use psmgen::flow::TrainedModel;
use psmgen::ips::behavioural_trace;
use psmgen::rtl::Stimulus;
use psmgen::serve::poll::{poll_fds, PollFd, POLLERR, POLLHUP, POLLIN};
use psmgen::serve::protocol::{self, Frame, Opcode, Status};
use psmgen::serve::{
    Client, PoolConfig, Registry, ServedModel, Server, ServerConfig, Snapshot, StreamSession,
};
use psmgen::trace::{FunctionalTrace, SignalSet};
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The served models: (Table I benchmark, registry name).
const MODELS: [(&str, &str); 2] = [("MultSum", "multsum"), ("AES", "aes")];
/// The stream sessions' model.
const STREAM_MODEL: &str = "multsum";
/// Distinct one-shot payloads per model, and their length.
const PAYLOADS_PER_MODEL: usize = 16;
const ONESHOT_CYCLES: usize = 2_000;
/// Live stream sessions and their chunk length.
const SESSIONS: usize = 4;
const CHUNK_CYCLES: usize = 256;
/// Distinct chunks per session; a session cycles through them.
const CHUNKS_PER_SESSION: usize = 64;
/// The reference one-shot rate, and the chunk rate of every step (req/s).
/// The reference keeps the daemon well below capacity (about 250 req/s
/// with this mix on two cores), where latency measures service time
/// rather than queueing noise.
const REFERENCE_RPS: f64 = 100.0;
const CHUNK_RPS: f64 = 200.0;
/// Higher one-shot rates the traced pass climbs to find capacity.
const LADDER_RPS: [f64; 3] = [200.0, 300.0, 400.0];
/// A step meets the latency limit when its one-shot and chunk p95 stay
/// within this and nothing failed.
const LATENCY_LIMIT_MS: f64 = 20.0;
/// Warm-up before the measured steps (not recorded).
const WARMUP: Duration = Duration::from_secs(1);
/// The one-shot latency is summarised per window of this length (by due
/// time); a window needs this many replies of each model to count.
const WINDOW: Duration = Duration::from_secs(1);
const MIN_WINDOW_REPLIES: usize = 10;
/// How long after its due time an unanswered request counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);
/// Rates and step length under `--smoke`.
const SMOKE_RPS: f64 = 50.0;
const SMOKE_STEP: Duration = Duration::from_secs(1);
/// Time spent on the in-process serve-layer passes.
const LAYER_BUDGET: Duration = Duration::from_secs(1);

/// Daemon mode: serve `registry` with psmd's defaults on an ephemeral
/// loopback port, announce the address on stdout, exit on `SHUTDOWN`.
pub fn daemon_main(registry: Option<&str>) -> Res<()> {
    let registry = registry.ok_or("--daemon needs a registry directory")?;
    let server = Server::bind(ServerConfig::new(registry))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening {}", server.local_addr())?;
    stdout.flush()?;
    server.run()?;
    Ok(())
}

/// The psmd child process. Dropping it kills and reaps a child that is
/// still running.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    // Held open so the child never writes into a closed pipe.
    _stdout: BufReader<ChildStdout>,
}

impl Daemon {
    fn spawn(registry: &Path) -> Res<Daemon> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg("--daemon")
            .arg(registry)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        // Built before the address is parsed, so a child that failed to
        // start is reaped on the error path.
        let mut daemon = Daemon {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            _stdout: stdout,
        };
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .parse()?;
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    /// CPU time the daemon has used so far, all threads, from schedstat.
    fn cpu_seconds(&self) -> Res<f64> {
        let mut ns = 0u64;
        for task in std::fs::read_dir(format!("/proc/{}/task", self.child.id()))? {
            let stat = std::fs::read_to_string(task?.path().join("schedstat"))?;
            ns += stat
                .split_whitespace()
                .next()
                .unwrap_or("0")
                .parse::<u64>()?;
        }
        Ok(ns as f64 / 1e9)
    }

    /// Sends `SHUTDOWN` and waits for a clean exit.
    fn shutdown(mut self) -> Res<()> {
        Client::connect(self.addr)?.shutdown()?;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(status) = self.child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("daemon exited with {status}").into())
                };
            }
            if Instant::now() > deadline {
                return Err("daemon did not exit within 10 s of SHUTDOWN".into());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One distinct one-shot request.
struct Payload {
    model: usize,
    stimulus: Stimulus,
    trace: FunctionalTrace,
    request: Vec<u8>,
}

/// Everything set-up builds: models, artifacts, encoded inputs, the
/// running daemon and the generator's connections.
struct Fixture {
    registry: PathBuf,
    models: Vec<TrainedModel>,
    payloads: Vec<Payload>,
    signals: SignalSet,
    chunks: Vec<Vec<FunctionalTrace>>,
    chunk_requests: Vec<Vec<Vec<u8>>>,
    conns: Vec<TcpStream>,
    daemon: Option<Daemon>,
}

impl Drop for Fixture {
    fn drop(&mut self) {
        self.conns.clear();
        self.daemon.take();
        let _ = std::fs::remove_dir_all(&self.registry);
    }
}

fn setup(cfg: &Config, t: Option<&mut Tracer>) -> Res<Fixture> {
    let registry = cfg
        .work_dir
        .join(format!("registry-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&registry);
    std::fs::create_dir_all(&registry)?;
    let mut models = Vec::new();
    for (bench, name) in MODELS {
        let mut core = ip(bench);
        let model = flow(bench).train(core.as_mut(), &[short_ts(bench, cfg.seed)])?;
        model.save_compiled(registry.join(format!("{name}@1.json")))?;
        models.push(model);
    }
    if let Some(t) = t {
        // The lowering `save_compiled` just did, timed on its own.
        for model in &models {
            black_box(t.leaf("compile.lower", || model.compile())?);
        }
    }

    let mut payloads = Vec::new();
    for k in 0..PAYLOADS_PER_MODEL {
        for (m, (bench, name)) in MODELS.iter().enumerate() {
            let stimulus = long_ts(bench, cfg.seed + 200 + k as u64, ONESHOT_CYCLES);
            let trace = behavioural_trace(ip(bench).as_mut(), &stimulus)?;
            let request = protocol::estimate_bin_request(name, None, &trace);
            payloads.push(Payload {
                model: m,
                stimulus,
                trace,
                request,
            });
        }
    }
    let mut chunks = Vec::new();
    let mut chunk_requests = Vec::new();
    let mut signals = None;
    for s in 0..SESSIONS {
        let stimulus = long_ts(
            "MultSum",
            cfg.seed + 300 + s as u64,
            CHUNKS_PER_SESSION * CHUNK_CYCLES,
        );
        let trace = behavioural_trace(ip("MultSum").as_mut(), &stimulus)?;
        let windows: Vec<FunctionalTrace> = trace
            .split_windows(CHUNK_CYCLES)
            .into_iter()
            .take(CHUNKS_PER_SESSION)
            .collect();
        chunk_requests.push(
            windows
                .iter()
                .map(|c| protocol::stream_chunk_request(s as u32, c))
                .collect(),
        );
        chunks.push(windows);
        signals = Some(trace.signals().clone());
    }

    let daemon = Daemon::spawn(&registry)?;
    let lanes = if nproc() >= 2 { 2 } else { 1 };
    let conns = (0..lanes)
        .map(|_| {
            let c = TcpStream::connect(daemon.addr)?;
            c.set_nodelay(true)?;
            Ok(c)
        })
        .collect::<Res<Vec<_>>>()?;
    Ok(Fixture {
        registry,
        models,
        payloads,
        signals: signals.expect("at least one session"),
        chunks,
        chunk_requests,
        conns,
        daemon: Some(daemon),
    })
}

impl Fixture {
    fn daemon(&self) -> &Daemon {
        self.daemon
            .as_ref()
            .expect("daemon runs until the pass ends")
    }

    fn sizes(&self) -> Vec<(String, u64)> {
        vec![
            ("oneshot_cycles".to_owned(), ONESHOT_CYCLES as u64),
            ("oneshot_payloads".to_owned(), self.payloads.len() as u64),
            ("sessions".to_owned(), SESSIONS as u64),
            ("chunk_cycles".to_owned(), CHUNK_CYCLES as u64),
            ("workers".to_owned(), PoolConfig::default().workers as u64),
            ("generator_threads".to_owned(), self.conns.len() as u64),
        ]
    }

    /// Shuts the daemon down and reports whether it exited cleanly.
    fn stop(&mut self, out: &mut Outcome) {
        self.conns.clear();
        if let Some(daemon) = self.daemon.take() {
            if let Err(e) = daemon.shutdown() {
                out.problems.push(format!("daemon shutdown: {e}"));
            }
        }
    }
}

/// The reply every request must get, fingerprinted: what the same call
/// returns in-process.
struct Expected {
    oneshot: Vec<u64>,
    /// Per session, per chunk sequence number within a step.
    chunks: Vec<Vec<u64>>,
}

fn expected(fx: &Fixture, max_chunks_per_session: usize) -> Res<Expected> {
    let snapshot = Registry::open(&fx.registry)?.snapshot();
    let lookup = |name: &str| {
        snapshot
            .lookup(name, None)
            .ok_or_else(|| format!("model {name} missing from the registry"))
    };
    let mut oneshot = Vec::new();
    for p in &fx.payloads {
        let name = MODELS[p.model].1;
        let out = lookup(name)?.estimate(&p.trace);
        let estimate: Vec<f64> = out.estimate.iter().collect();
        oneshot.push(fnv(&protocol::estimate_bin_reply(
            name,
            1,
            &estimate,
            out.wrong_state_predictions as u64,
            out.unknown_instants as u64,
        )));
    }
    let stream_model = lookup(STREAM_MODEL)?;
    let mut chunks = Vec::new();
    for session_chunks in &fx.chunks {
        let mut session = StreamSession::open(stream_model.clone());
        let mut hashes = Vec::with_capacity(max_chunks_per_session);
        for j in 0..max_chunks_per_session {
            let out = session.feed(&session_chunks[j % session_chunks.len()])?;
            let estimate: Vec<f64> = out.estimate.iter().collect();
            hashes.push(fnv(&protocol::estimate_bin_reply(
                STREAM_MODEL,
                1,
                &estimate,
                out.wrong_state_predictions as u64,
                out.unknown_instants as u64,
            )));
        }
        chunks.push(hashes);
    }
    Ok(Expected { oneshot, chunks })
}

/// What a scheduled request does.
#[derive(Debug, Clone, Copy)]
enum Kind {
    OneShot(usize),
    Open(usize),
    Chunk(usize, usize),
    Close(usize),
}

#[derive(Debug, Clone, Copy)]
struct Event {
    due: Duration,
    kind: Kind,
}

/// One step of the load: a one-shot rate and a chunk rate, held for
/// `length`.
#[derive(Debug, Clone, Copy)]
struct Step {
    oneshot_rps: f64,
    chunk_rps: f64,
    length: Duration,
}

/// The step's schedule, one event list per generator lane.
fn schedule(step: Step, seed: u64, payloads: usize, lanes: usize) -> Vec<Vec<Event>> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut oneshot = Vec::new();
    let mut at = 0.0;
    let mut k = 0;
    loop {
        // Exponential inter-arrival times: Poisson arrivals.
        at += -(1.0 - rng.next_f64()).ln() / step.oneshot_rps;
        if at >= step.length.as_secs_f64() {
            break;
        }
        oneshot.push(Event {
            due: Duration::from_secs_f64(at),
            kind: Kind::OneShot(k % payloads),
        });
        k += 1;
    }
    let mut stream: Vec<Event> = (0..SESSIONS)
        .map(|s| Event {
            due: Duration::ZERO,
            kind: Kind::Open(s),
        })
        .collect();
    let chunks = (step.chunk_rps * step.length.as_secs_f64()) as usize;
    stream.extend((0..chunks).map(|i| Event {
        due: Duration::from_secs_f64(i as f64 / step.chunk_rps),
        kind: Kind::Chunk(i % SESSIONS, i / SESSIONS),
    }));
    stream.extend((0..SESSIONS).map(|s| Event {
        due: step.length,
        kind: Kind::Close(s),
    }));
    if lanes >= 2 {
        vec![oneshot, stream]
    } else {
        let mut merged = oneshot;
        merged.extend(stream);
        merged.sort_by_key(|e| e.due);
        vec![merged]
    }
}

/// What one step measured.
#[derive(Debug, Default)]
struct StepResult {
    /// One-shot due times (from the step's start) and latencies (ms from
    /// due to reply), per model.
    oneshot: [Vec<(Duration, f64)>; 2],
    chunk_ms: Vec<f64>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    instants: u64,
    daemon_cpu_s: f64,
}

impl StepResult {
    fn absorb(&mut self, lane: StepResult) {
        for (mine, theirs) in self.oneshot.iter_mut().zip(lane.oneshot) {
            mine.extend(theirs);
        }
        self.chunk_ms.extend(lane.chunk_ms);
        self.late_ms.extend(lane.late_ms);
        self.attempted += lane.attempted;
        self.failed += lane.failed;
        self.problems.extend(lane.problems);
        self.instants += lane.instants;
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 20 {
            self.problems.push(what);
        }
    }

    fn all_oneshot_ms(&self) -> Vec<f64> {
        self.oneshot.iter().flatten().map(|&(_, ms)| ms).collect()
    }

    /// Mean of the per-model one-shot medians of the replies `keep`
    /// selects by due time: the two models' latencies form two clusters,
    /// and a pooled median would sit between them. `None` when a model
    /// has fewer than `min_replies` replies.
    fn per_model_p50_ms(&self, keep: impl Fn(Duration) -> bool, min_replies: usize) -> Option<f64> {
        let mut sum = 0.0;
        for model in &self.oneshot {
            let ms: Vec<f64> = model
                .iter()
                .filter(|(due, _)| keep(*due))
                .map(|&(_, ms)| ms)
                .collect();
            if ms.len() < min_replies.max(1) {
                return None;
            }
            sum += Summary::of(&ms)?.median;
        }
        Some(sum / self.oneshot.len() as f64)
    }

    fn oneshot_p50_ms(&self) -> Res<f64> {
        Ok(self
            .per_model_p50_ms(|_| true, 1)
            .ok_or("no one-shot replies")?)
    }

    /// The lowest per-window [`Self::per_model_p50_ms`] over the step's
    /// [`WINDOW`]s: the latency of the step's quietest second. The load is
    /// the same in every window, so a slower one measures how busy the
    /// host was, not the daemon.
    fn best_window_p50_ms(&self) -> Res<f64> {
        let last = self
            .oneshot
            .iter()
            .flatten()
            .map(|&(due, _)| due)
            .max()
            .ok_or("no one-shot replies")?;
        let windows = (last.as_secs_f64() / WINDOW.as_secs_f64()) as u32 + 1;
        Ok((0..windows)
            .filter_map(|w| {
                let (from, to) = (WINDOW * w, WINDOW * (w + 1));
                self.per_model_p50_ms(|due| due >= from && due < to, MIN_WINDOW_REPLIES)
            })
            .reduce(f64::min)
            .ok_or("no window has enough one-shot replies")?)
    }

    fn meets_limit(&self) -> bool {
        let p95 = |xs: &[f64]| Summary::of(xs).map_or(f64::INFINITY, |s| s.percentile(0.95));
        self.failed == 0
            && p95(&self.all_oneshot_ms()) <= LATENCY_LIMIT_MS
            && p95(&self.chunk_ms) <= LATENCY_LIMIT_MS
    }
}

/// Sends `events` on schedule over `conn` and parses the replies as they
/// arrive.
fn drive(
    conn: &mut TcpStream,
    events: &[Event],
    fx: &Fixture,
    want: &Expected,
    start: Instant,
) -> StepResult {
    let mut res = StepResult::default();
    let mut pending: HashMap<u64, Event> = HashMap::new();
    let mut sent_chunks = [0u64; SESSIONS];
    let mut inbox: Vec<u8> = Vec::new();
    let mut buf = vec![0u8; 1 << 16];
    let mut wire = Vec::new();
    let last_due = events.last().map_or(Duration::ZERO, |e| e.due);
    let mut next = 0;
    let mut id = 0u64;
    loop {
        while next < events.len() && events[next].due <= start.elapsed() {
            let event = events[next];
            next += 1;
            id += 1;
            let (op, payload) = match event.kind {
                Kind::OneShot(p) => (Opcode::EstimateBin, fx.payloads[p].request.clone()),
                Kind::Open(s) => (
                    Opcode::StreamOpen,
                    protocol::stream_open_request(s as u32, STREAM_MODEL, None, &fx.signals),
                ),
                Kind::Chunk(s, j) => {
                    let requests = &fx.chunk_requests[s];
                    (Opcode::StreamChunk, requests[j % requests.len()].clone())
                }
                Kind::Close(s) => (
                    Opcode::StreamClose,
                    protocol::stream_close_request(s as u32),
                ),
            };
            wire.clear();
            protocol::write_frame(&mut wire, &Frame::request(op, id, payload))
                .expect("writing into a Vec cannot fail");
            res.attempted += 1;
            if let Kind::OneShot(_) | Kind::Chunk(..) = event.kind {
                res.late_ms
                    .push((start.elapsed() - event.due).as_secs_f64() * 1e3);
            }
            if let Err(e) = conn.write_all(&wire) {
                res.fail(format!("send: {e}"));
                continue;
            }
            if let Kind::Chunk(s, _) = event.kind {
                sent_chunks[s] += 1;
            }
            pending.insert(id, event);
        }
        let now = start.elapsed();
        if next == events.len() && (pending.is_empty() || now > last_due + REPLY_TIMEOUT) {
            for (_, event) in pending.drain() {
                res.fail(format!("no reply to {:?}", event.kind));
            }
            return res;
        }
        // Wait for a reply or the next due time. SO_RCVTIMEO rounds up to
        // scheduler ticks (milliseconds), which would make the generator
        // late by design; poll(2) waits whole milliseconds precisely, and
        // a plain sleep covers the sub-millisecond rest.
        let wake = events.get(next).map_or(last_due + REPLY_TIMEOUT, |e| e.due);
        let wait = wake.saturating_sub(now);
        let mut fds = [PollFd::new(conn.as_raw_fd(), POLLIN)];
        let wait_ms = wait.as_millis().min(20) as i32;
        if let Err(e) = poll_fds(&mut fds, wait_ms) {
            res.fail(format!("poll: {e}"));
            return res;
        }
        if !fds[0].ready(POLLIN | POLLHUP | POLLERR) {
            if wait_ms == 0 {
                std::thread::sleep(wait);
            }
            continue;
        }
        // Readable: a blocking read returns what has arrived at once.
        match conn.read(&mut buf) {
            Ok(0) => {
                for (_, event) in pending.drain() {
                    res.fail(format!("connection closed before {:?}", event.kind));
                }
                return res;
            }
            Ok(n) => inbox.extend_from_slice(&buf[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => {
                res.fail(format!("receive: {e}"));
                return res;
            }
        }
        let mut used = 0;
        loop {
            match protocol::parse_frame_bytes(&inbox[used..]) {
                Ok(Some((frame, n))) => {
                    used += n;
                    let at = start.elapsed();
                    match pending.remove(&frame.request_id) {
                        Some(event) => {
                            check_reply(&mut res, fx, want, event, &frame, at, &sent_chunks)
                        }
                        None => res.fail(format!("unexpected reply id {}", frame.request_id)),
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    res.fail(format!("malformed reply: {e}"));
                    return res;
                }
            }
        }
        inbox.drain(..used);
    }
}

fn check_reply(
    res: &mut StepResult,
    fx: &Fixture,
    want: &Expected,
    event: Event,
    frame: &Frame,
    at: Duration,
    sent_chunks: &[u64; SESSIONS],
) {
    let ms = (at - event.due).as_secs_f64() * 1e3;
    if frame.status() != Some(Status::Ok) {
        let what = match frame.status() {
            Some(Status::Busy) => "BUSY".to_owned(),
            _ => protocol::parse_error(frame),
        };
        res.fail(format!("{:?}: {what}", event.kind));
        return;
    }
    match event.kind {
        Kind::OneShot(p) => {
            if fnv(&frame.payload) == want.oneshot[p] {
                res.oneshot[fx.payloads[p].model].push((event.due, ms));
                res.instants += ONESHOT_CYCLES as u64;
            } else {
                res.fail(format!(
                    "one-shot payload {p}: reply differs from in-process"
                ));
            }
        }
        Kind::Chunk(s, j) => {
            if want.chunks[s].get(j) == Some(&fnv(&frame.payload)) {
                res.chunk_ms.push(ms);
                res.instants += fx.chunks[s][j % fx.chunks[s].len()].len() as u64;
            } else {
                res.fail(format!(
                    "session {s} chunk {j}: reply differs from in-process"
                ));
            }
        }
        Kind::Open(_) => {}
        Kind::Close(s) => {
            let expected: u64 = (0..sent_chunks[s] as usize)
                .map(|j| fx.chunks[s][j % fx.chunks[s].len()].len() as u64)
                .sum();
            let instants = frame.json().ok().and_then(|d| d.u64_field("instants").ok());
            if instants != Some(expected) {
                res.fail(format!(
                    "session {s} closed with {instants:?} instants, want {expected}"
                ));
            }
        }
    }
}

/// Runs one step: every lane on its own thread and connection.
fn run_step(fx: &mut Fixture, want: &Expected, step: Step, seed: u64) -> Res<StepResult> {
    let lanes = schedule(step, seed, fx.payloads.len(), fx.conns.len());
    let cpu_before = fx.daemon().cpu_seconds()?;
    let mut conns = std::mem::take(&mut fx.conns);
    let fixture: &Fixture = fx;
    let start = Instant::now();
    let results: Vec<StepResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(&lanes)
            .map(|(conn, events)| scope.spawn(move || drive(conn, events, fixture, want, start)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    fx.conns = conns;
    let mut total = StepResult {
        daemon_cpu_s: fx.daemon().cpu_seconds()? - cpu_before,
        ..StepResult::default()
    };
    for r in results {
        total.absorb(r);
    }
    Ok(total)
}

fn reference_step(cfg: &Config, length: Duration) -> Step {
    if cfg.smoke {
        Step {
            oneshot_rps: SMOKE_RPS,
            chunk_rps: SMOKE_RPS,
            length: SMOKE_STEP,
        }
    } else {
        Step {
            oneshot_rps: REFERENCE_RPS,
            chunk_rps: CHUNK_RPS,
            length,
        }
    }
}

fn chunks_needed(steps: &[Step]) -> usize {
    steps
        .iter()
        .map(|s| (s.chunk_rps * s.length.as_secs_f64()) as usize / SESSIONS + 1)
        .max()
        .unwrap_or(1)
}

/// Warm-up (not under `--smoke`), then `steps`; returns each step's
/// result and folds every request into `out`'s counts.
fn run_steps(
    fx: &mut Fixture,
    cfg: &Config,
    steps: &[Step],
    out: &mut Outcome,
) -> Res<Vec<StepResult>> {
    let mut all = vec![reference_step(cfg, WARMUP)];
    all.extend_from_slice(steps);
    let want = expected(fx, chunks_needed(&all))?;
    let mut results = Vec::new();
    for (i, step) in all.iter().enumerate() {
        if cfg.smoke && i == 0 {
            continue;
        }
        let r = run_step(fx, &want, *step, cfg.seed ^ (0x5EED << 8 | i as u64))?;
        out.attempted += r.attempted;
        out.failed += r.failed;
        out.problems.extend(r.problems.iter().cloned());
        if i > 0 {
            results.push(r);
        }
    }
    Ok(results)
}

/// Mean over the served models of their one-shot estimates' MRE against
/// the golden reference of the same payloads. The served replies were
/// checked bit-identical to the in-process estimate this computes.
fn served_mre_pct(fx: &Fixture) -> Res<f64> {
    let mut sum = 0.0;
    for (m, (bench, _)) in MODELS.iter().enumerate() {
        let stimuli: Vec<Stimulus> = fx
            .payloads
            .iter()
            .filter(|p| p.model == m)
            .map(|p| p.stimulus.clone())
            .collect();
        let references = reference_powers(bench, &stimuli)?;
        sum += heldout_mre_pct(bench, &fx.models[m], &stimuli, &references)?;
    }
    Ok(sum / MODELS.len() as f64)
}

/// The end-to-end pass: the reference step for the whole budget.
pub fn untraced(cfg: &Config) -> Res<Outcome> {
    let (mut fx, setup_s) = timed_setup(cfg.setup_repeats, || setup(cfg, None))?;
    let mut out = Outcome::new(fx.sizes());
    let steps = [reference_step(cfg, cfg.budget)];
    let results = run_steps(&mut fx, cfg, &steps, &mut out)?;
    let step = &results[0];
    let rss = peak_rss_mib(&fx.daemon().pid())?;
    fx.stop(&mut out);
    out.setup(&setup_s);
    out.metric("peak_rss_mib", rss, "MiB");
    out.sampled(
        "op_best_ms",
        step.best_window_p50_ms()?,
        &step.all_oneshot_ms(),
        "ms",
    );
    out.metric("mre_pct", served_mre_pct(&fx)?, "%");
    Ok(out)
}

/// The per-layer pass: a shorter reference step, the capacity ladder,
/// the daemon's own counters, then the serve-layer calls timed in-process
/// on the workload's payloads.
pub fn traced(cfg: &Config) -> Res<Outcome> {
    let mut t = Tracer::new();
    let mut fx = setup(cfg, Some(&mut t))?;
    // What the daemon did at start-up: open the registry, verifying each
    // v3 artifact's compiled section against a fresh lowering.
    t.leaf("persist.registry_load", || Registry::open(&fx.registry))?;
    let mut out = Outcome::new(fx.sizes());

    let mut steps = vec![reference_step(cfg, cfg.budget.mul_f64(0.6))];
    if !cfg.smoke {
        let rung = cfg.budget.mul_f64(0.4 / LADDER_RPS.len() as f64);
        steps.extend(LADDER_RPS.map(|rps| Step {
            oneshot_rps: rps,
            chunk_rps: CHUNK_RPS,
            length: rung,
        }));
    }
    let results = run_steps(&mut fx, cfg, &steps, &mut out)?;
    let stats = Client::connect(fx.daemon().addr)?.stats_json()?;
    fx.stop(&mut out);

    let reference = &results[0];
    let tail = |xs: &[f64], q: f64| {
        Summary::of(xs).map_or(0.0, |s| {
            s.supported_percentile(q).unwrap_or(s.percentile(q))
        })
    };
    out.metric(
        "serve.oneshot_p99_ms",
        tail(&reference.all_oneshot_ms(), 0.99),
        "ms",
    );
    out.metric("serve.chunk_p50_ms", tail(&reference.chunk_ms, 0.5), "ms");
    out.metric("serve.chunk_p99_ms", tail(&reference.chunk_ms, 0.99), "ms");
    out.metric(
        "serve.gen_late_p99_ms",
        tail(&reference.late_ms, 0.99),
        "ms",
    );
    let max_rps = steps
        .iter()
        .zip(&results)
        .take_while(|(_, r)| r.meets_limit())
        .last()
        .map_or(0.0, |(s, _)| s.oneshot_rps);
    out.metric("serve.max_rps", max_rps, "1/s");
    out.metric(
        "serve.minst_per_cpu_s",
        reference.instants as f64 / reference.daemon_cpu_s / 1e6,
        "Minst/s",
    );

    let counter = |name: &str| -> f64 {
        stats
            .get("named_counters")
            .and_then(|c| c.as_arr().ok())
            .and_then(|items| {
                items
                    .iter()
                    .find(|i| i.str_field("name").ok() == Some(name))
            })
            .and_then(|i| i.u64_field("total").ok())
            .unwrap_or(0) as f64
    };
    let gauge_max = stats
        .get("gauges")
        .and_then(|g| g.as_arr().ok())
        .and_then(|items| {
            items
                .iter()
                .find(|i| i.str_field("name").ok() == Some("serve.queue_depth"))
        })
        .and_then(|i| i.u64_field("max").ok())
        .unwrap_or(0);
    out.metric(
        "serve.mean_batch",
        counter("serve.op.estimate_bin") / counter("serve.batches").max(1.0),
        "count",
    );
    out.metric("serve.queue_depth_max", gauge_max as f64, "count");
    out.metric("serve.busy", counter("serve.busy"), "count");

    let setup_spans = t.self_times(&[0]);
    for name in ["compile.lower", "persist.registry_load"] {
        let ms = setup_spans.get(name).map_or(0.0, |d| d.as_secs_f64() * 1e3);
        out.metric(&format!("{name}_ms"), ms, "ms");
    }
    layer_calls(&mut t, &fx, &mut out, reference.oneshot_p50_ms()?)?;
    out.tracer = Some(t);
    Ok(out)
}

/// Runs `f` in a span named `name` when tracing, bare otherwise.
fn span<T>(t: &mut Option<&mut Tracer>, name: &str, f: impl FnOnce() -> T) -> T {
    match t {
        Some(t) => t.leaf(name, f),
        None => f(),
    }
}

/// The inputs of the in-process serve-layer passes.
struct LayerInputs<'a> {
    fx: &'a Fixture,
    snapshot: Arc<Snapshot>,
    stream_model: Arc<ServedModel>,
    frames: Vec<Frame>,
}

/// What one pass returned: the fingerprint of every one-shot reply and
/// of every chunk reply, per session.
type PassOutput = (Vec<u64>, Vec<Vec<u64>>);

/// One pass over the daemon's per-request calls, made in-process: decode,
/// forward, encode and free of every one-shot payload, then one feed per
/// chunk of every session. Each reply is fingerprinted as soon as it is
/// built, outside the layer spans, and freed, as the daemon frees it once
/// written.
fn layer_pass(mut t: Option<&mut Tracer>, inp: &LayerInputs) -> Res<(Duration, PassOutput)> {
    let t0 = Instant::now();
    let mut replies = Vec::with_capacity(inp.frames.len());
    for frame in &inp.frames {
        let (name, version, trace) = span(&mut t, "serve.decode", || {
            protocol::parse_estimate_bin_request(frame)
        })?;
        let model = inp
            .snapshot
            .lookup(&name, version)
            .ok_or_else(|| format!("model {name} missing"))?;
        let outcome = span(&mut t, "serve.forward", || model.estimate(&trace));
        let reply = span(&mut t, "serve.encode", || {
            let estimate: Vec<f64> = outcome.estimate.iter().collect();
            protocol::estimate_bin_reply(
                &model.name,
                model.version,
                &estimate,
                outcome.wrong_state_predictions as u64,
                outcome.unknown_instants as u64,
            )
        });
        // The pool frees a job's trace after its reply is built.
        span(&mut t, "trace.drop", || drop(trace));
        replies.push(fnv(&reply));
    }
    let mut fed = Vec::with_capacity(inp.fx.chunks.len());
    for chunks in &inp.fx.chunks {
        let mut session = StreamSession::open(inp.stream_model.clone());
        let mut hashes = Vec::with_capacity(chunks.len());
        for chunk in chunks {
            let out = span(&mut t, "serve.chunk_feed", || session.feed(chunk))?;
            let estimate: Vec<f64> = out.estimate.iter().collect();
            hashes.push(fnv(&protocol::estimate_bin_reply(
                STREAM_MODEL,
                1,
                &estimate,
                out.wrong_state_predictions as u64,
                out.unknown_instants as u64,
            )));
        }
        fed.push(hashes);
    }
    Ok((t0.elapsed(), (replies, fed)))
}

/// Every in-process output must equal what the daemon was checked against.
fn check_pass(want: &Expected, (replies, fed): &PassOutput) -> Result<(), String> {
    if let Some(i) = (0..replies.len()).find(|&i| replies[i] != want.oneshot[i]) {
        return Err(format!(
            "in-process payload {i} differs from the served reply"
        ));
    }
    for (s, hashes) in fed.iter().enumerate() {
        if let Some(j) = (0..hashes.len()).find(|&j| hashes[j] != want.chunks[s][j]) {
            return Err(format!("in-process session {s} chunk {j} differs"));
        }
    }
    Ok(())
}

/// Times the serve-layer calls in alternating untraced and traced passes
/// (see [`alternate`]) for [`LAYER_BUDGET`].
fn layer_calls(t: &mut Tracer, fx: &Fixture, out: &mut Outcome, oneshot_p50_ms: f64) -> Res<()> {
    let snapshot = Registry::open(&fx.registry)?.snapshot();
    let mut inp = LayerInputs {
        fx,
        stream_model: snapshot
            .lookup(STREAM_MODEL, None)
            .ok_or("stream model missing")?,
        snapshot,
        frames: fx
            .payloads
            .iter()
            .enumerate()
            .map(|(i, p)| Frame::request(Opcode::EstimateBin, i as u64, p.request.clone()))
            .collect(),
    };
    let want = expected(fx, CHUNKS_PER_SESSION)?;
    let mut problems = Vec::new();
    let paired = alternate(
        LAYER_BUDGET,
        &mut inp,
        t,
        |inp| layer_pass(None, inp),
        |inp, t| Ok(layer_pass(Some(t), inp)?.1),
        |_, r, output| {
            if let Err(e) = check_pass(&want, &output) {
                problems.push(format!("layer pass {r}: {e}"));
            }
        },
    )?;
    out.problems.extend(problems);

    let times = t.self_times(&paired.traced_rounds);
    let per_call_us = |name: &str, calls: usize| {
        times.get(name).map_or(0.0, |d| {
            d.as_secs_f64() * 1e6 / (calls * paired.traced_rounds.len()) as f64
        })
    };
    let oneshots = inp.frames.len();
    let chunk_calls: usize = fx.chunks.iter().map(Vec::len).sum();
    let decode = per_call_us("serve.decode", oneshots);
    let forward = per_call_us("serve.forward", oneshots);
    let encode = per_call_us("serve.encode", oneshots);
    out.metric("serve.decode_us", decode, "us");
    out.metric("serve.forward_us", forward, "us");
    out.metric("serve.encode_us", encode, "us");
    out.metric(
        "serve.chunk_feed_us",
        per_call_us("serve.chunk_feed", chunk_calls),
        "us",
    );
    out.metric(
        "serve.residual_us",
        oneshot_p50_ms * 1e3 - (decode + forward + encode),
        "us",
    );
    layer_metrics(out, t, &paired);
    Ok(())
}
