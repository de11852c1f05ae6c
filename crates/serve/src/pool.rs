//! The estimation worker pool: bounded queue, one job per worker turn,
//! explicit backpressure, graceful drain.
//!
//! Requests land in one bounded FIFO. A fixed set of workers pull from
//! it, one job per turn. Because responses carry the request id, the
//! order in which workers finish is invisible to clients.
//!
//! A full queue never blocks and never grows: [`Pool::submit`] returns
//! [`Refused::Busy`] and the daemon turns that into the wire-level
//! `BUSY` status — backpressure is explicit, not an OOM or a hang.
//!
//! [`Pool::drain`] is the graceful-shutdown half: refuse new work,
//! run the queue dry, join the workers. Every accepted request gets its
//! response before drain returns.
//!
//! Workers record no spans: each job adds its elapsed time to a fixed
//! named counter ([`COUNTER_ESTIMATE_NS`], [`COUNTER_CHUNK_NS`]), so the
//! pool's telemetry stays the same size however many requests it serves.
//!
//! A job that panics is answered [`JobError::Panicked`] and its worker
//! goes on serving, so a panic never hangs a client or [`Pool::drain`].
//! A reply callback that panics is contained the same way: its answer is
//! lost, but the worker, its stream and the drain accounting carry on.
//!
//! # Streams
//!
//! Alongside one-shot estimates the queue carries *session turns*. A
//! [`SessionEntry`] wraps one [`StreamSession`] plus its FIFO of pending
//! chunk/close jobs; [`Pool::submit_stream`] enqueues a turn only when
//! the session is not already scheduled, so each session occupies at
//! most one queue slot and is processed by at most one worker at a time
//! — per-session ordering with cross-session parallelism. A worker
//! taking a turn lifts the session out of the entry, answers pending
//! jobs one at a time (re-locking between jobs, so the I/O loop never
//! blocks behind an in-flight chunk), and puts it back. Because pending
//! jobs are only reachable through scheduled turns, [`Pool::drain`]'s
//! queue-dry wait already covers sessions. A chunk that panics closes its
//! stream: the session is dropped, and every job of that stream from
//! then on is answered [`JobError::StreamClosed`].

use crate::registry::ServedModel;
use crate::session::{ChunkOutcome, StreamSession};
use psm_hmm::HmmOutcome;
use psm_telemetry::Telemetry;
use psm_trace::{FunctionalTrace, TraceError};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Gauge: jobs waiting in the queue, sampled at every push and pull.
pub const GAUGE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Counter: one-shot estimates answered.
pub const COUNTER_BATCHES: &str = "serve.batches";
/// Counter: submissions rejected with `BUSY`.
pub const COUNTER_BUSY: &str = "serve.busy";
/// Counter: stream chunks estimated.
pub const COUNTER_STREAM_CHUNKS: &str = "serve.stream_chunks";
/// Counter: nanoseconds workers spent estimating one-shot requests.
pub const COUNTER_ESTIMATE_NS: &str = "serve.estimate_ns";
/// Counter: nanoseconds workers spent feeding stream chunks.
pub const COUNTER_CHUNK_NS: &str = "serve.chunk_ns";

/// Worker-pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Queue slots; a submission beyond this is rejected `Busy`.
    pub queue_capacity: usize,
    /// Fault-injection: how long a worker sleeps before executing a
    /// job. Zero in production; tests raise it to hold jobs in the
    /// queue deterministically (forcing `BUSY`, or racing a
    /// `RELOAD`/`SHUTDOWN` against in-flight work).
    pub stall: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(2)
                .min(8),
            queue_capacity: 64,
            stall: Duration::ZERO,
        }
    }
}

/// One queued estimation: the resolved model, the workload, and the
/// callback that delivers the outcome (for the daemon, a closure that
/// writes the response frame).
pub struct EstimateJob {
    /// The model snapshot resolved at submission time. Holding the
    /// `Arc` here is what makes registry reloads atomic towards
    /// in-flight work.
    pub model: Arc<ServedModel>,
    /// The functional trace to estimate.
    pub trace: FunctionalTrace,
    /// Receives the outcome, exactly once.
    pub respond: Box<dyn FnOnce(Result<HmmOutcome, JobError>) + Send>,
}

/// Why a job was answered without an outcome.
#[derive(Debug)]
pub enum JobError {
    /// The chunk does not continue the stream's interface; the stream
    /// stays open.
    Trace(TraceError),
    /// Estimating the job panicked, with this message. A stream whose
    /// chunk panicked is closed.
    Panicked(String),
    /// An earlier chunk of the stream panicked and closed it.
    StreamClosed,
}

impl JobError {
    fn panicked(payload: Box<dyn Any + Send>) -> JobError {
        let message = match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(payload) => payload
                .downcast_ref::<&str>()
                .map_or("unknown panic payload", |s| s)
                .to_owned(),
        };
        JobError::Panicked(message)
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Trace(e) => write!(f, "{e}"),
            JobError::Panicked(message) => write!(f, "estimation panicked: {message}"),
            JobError::StreamClosed => write!(f, "stream was closed by a failed chunk"),
        }
    }
}

impl std::error::Error for JobError {}

/// Why the pool refused a submission. The job is dropped unrun, so its
/// callback never fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refused {
    /// The queue (or the session's pending queue) is full.
    Busy,
    /// The pool is draining for shutdown.
    Draining,
}

/// One unit of stream work queued on a session, with the callback that
/// receives its answer exactly once.
pub enum StreamJob {
    /// Estimate the next chunk of the stream. The callback gets the
    /// chunk's outcome or a [`JobError`].
    Chunk {
        /// The chunk's cycles.
        chunk: FunctionalTrace,
        /// Receives the chunk's outcome.
        respond: Box<dyn FnOnce(Result<ChunkOutcome, JobError>) + Send>,
    },
    /// Finish the stream; the callback gets its totals, or
    /// [`JobError::StreamClosed`] when a panic closed it first.
    Close {
        /// Receives the stream's totals.
        respond: Box<dyn FnOnce(Result<StreamTotals, JobError>) + Send>,
    },
}

impl StreamJob {
    /// Answers the job of a stream a panic closed.
    fn refuse(self) {
        match self {
            StreamJob::Chunk { respond, .. } => deliver(respond, Err(JobError::StreamClosed)),
            StreamJob::Close { respond } => deliver(respond, Err(JobError::StreamClosed)),
        }
    }
}

/// Cumulative counters of a finished stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTotals {
    /// Total instants estimated.
    pub instants: usize,
    /// Wrong-state predictions across the stream.
    pub wrong_state_predictions: usize,
    /// Unknown instants across the stream.
    pub unknown_instants: usize,
}

/// One live stream registered with the pool: the session plus its FIFO
/// of pending jobs. Connections hold this in an `Arc`; the queue holds
/// a clone of the same `Arc` while a turn is scheduled.
pub struct SessionEntry {
    model: Arc<ServedModel>,
    inner: Mutex<SessionInner>,
}

impl std::fmt::Debug for SessionEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionEntry")
            .field("model", &self.model.name)
            .finish_non_exhaustive()
    }
}

impl SessionEntry {
    /// The model the stream is pinned to.
    pub fn model(&self) -> &Arc<ServedModel> {
        &self.model
    }
}

struct SessionInner {
    /// `None` while a worker has lifted the session out for a turn, and
    /// for good once a panicking chunk closed the stream.
    session: Option<StreamSession>,
    pending: VecDeque<StreamJob>,
    scheduled: bool,
}

enum Work {
    Estimate(EstimateJob),
    Session(Arc<SessionEntry>),
}

struct PoolState {
    queue: VecDeque<Work>,
    busy_workers: usize,
    draining: bool,
    stop: bool,
}

struct Shared {
    cfg: PoolConfig,
    state: Mutex<PoolState>,
    work: Condvar,
    idle: Condvar,
    telemetry: Arc<Telemetry>,
}

/// The fixed worker pool. See the [module docs](self).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("workers", &self.shared.cfg.workers)
            .field("queue_capacity", &self.shared.cfg.queue_capacity)
            .finish_non_exhaustive()
    }
}

impl Pool {
    /// Starts the workers.
    pub fn new(cfg: PoolConfig, telemetry: Arc<Telemetry>) -> Pool {
        let cfg = PoolConfig {
            workers: cfg.workers.max(1),
            queue_capacity: cfg.queue_capacity.max(1),
            stall: cfg.stall,
        };
        let worker_count = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(PoolState {
                queue: VecDeque::new(),
                busy_workers: 0,
                draining: false,
                stop: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            telemetry,
        });
        let workers = (0..worker_count)
            .map(|i| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("psmd-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Offers a job to the queue; never blocks.
    ///
    /// # Errors
    ///
    /// [`Refused`] when the queue is full or the pool is draining; the
    /// job is dropped and the caller answers the client itself.
    pub fn submit(&self, job: EstimateJob) -> Result<(), Refused> {
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        if st.draining {
            return Err(Refused::Draining);
        }
        if st.queue.len() >= self.shared.cfg.queue_capacity {
            self.shared.telemetry.add_named(COUNTER_BUSY, 1);
            return Err(Refused::Busy);
        }
        st.queue.push_back(Work::Estimate(job));
        self.shared
            .telemetry
            .set_gauge(GAUGE_QUEUE_DEPTH, st.queue.len() as u64);
        drop(st);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Opens a streaming session pinned to `model`, or `None` when the
    /// pool is draining. Opening is cheap (one forward-state allocation)
    /// and happens inline — no worker turn is consumed.
    pub fn open_session(&self, model: Arc<ServedModel>) -> Option<Arc<SessionEntry>> {
        let st = self.shared.state.lock().expect("pool lock poisoned");
        if st.draining {
            return None;
        }
        let session = StreamSession::open(model.clone());
        Some(Arc::new(SessionEntry {
            model,
            inner: Mutex::new(SessionInner {
                session: Some(session),
                pending: VecDeque::new(),
                scheduled: false,
            }),
        }))
    }

    /// Queues one chunk/close on a session; never blocks.
    ///
    /// A session turn is enqueued only when the session is not already
    /// scheduled, so per-session jobs run in submission order while
    /// different sessions estimate in parallel.
    ///
    /// # Errors
    ///
    /// [`Refused::Busy`] for a chunk beyond the session's pending
    /// capacity (a close is always accepted), [`Refused::Draining`] once
    /// the pool drains. The job is dropped either way.
    pub fn submit_stream(&self, entry: &Arc<SessionEntry>, job: StreamJob) -> Result<(), Refused> {
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        if st.draining {
            return Err(Refused::Draining);
        }
        let mut inner = entry.inner.lock().expect("session lock poisoned");
        if matches!(job, StreamJob::Chunk { .. })
            && inner.pending.len() >= self.shared.cfg.queue_capacity
        {
            self.shared.telemetry.add_named(COUNTER_BUSY, 1);
            return Err(Refused::Busy);
        }
        inner.pending.push_back(job);
        if !inner.scheduled {
            inner.scheduled = true;
            st.queue.push_back(Work::Session(entry.clone()));
        }
        drop(inner);
        self.shared
            .telemetry
            .set_gauge(GAUGE_QUEUE_DEPTH, st.queue.len() as u64);
        drop(st);
        self.shared.work.notify_one();
        Ok(())
    }

    /// Jobs currently waiting (not counting ones a worker already
    /// pulled). Test/introspection aid.
    pub fn queue_depth(&self) -> usize {
        self.shared
            .state
            .lock()
            .expect("pool lock poisoned")
            .queue
            .len()
    }

    /// Refuses new work, runs the queue dry, joins the workers.
    ///
    /// Every job accepted before the call gets its callback before this
    /// returns. Idempotent.
    pub fn drain(&self) {
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        st.draining = true;
        while !(st.queue.is_empty() && st.busy_workers == 0) {
            st = self.shared.idle.wait(st).expect("pool lock poisoned");
        }
        st.stop = true;
        drop(st);
        self.shared.work.notify_all();
        let handles: Vec<_> = self
            .workers
            .lock()
            .expect("pool lock poisoned")
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut st = shared.state.lock().expect("pool lock poisoned");
            let work = loop {
                if let Some(work) = st.queue.pop_front() {
                    break work;
                }
                if st.stop {
                    return;
                }
                st = shared.work.wait(st).expect("pool lock poisoned");
            };
            st.busy_workers += 1;
            shared
                .telemetry
                .set_gauge(GAUGE_QUEUE_DEPTH, st.queue.len() as u64);
            work
        };

        if !shared.cfg.stall.is_zero() {
            std::thread::sleep(shared.cfg.stall);
        }

        match work {
            Work::Estimate(job) => {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    shared
                        .telemetry
                        .time_named(COUNTER_ESTIMATE_NS, || job.model.estimate(&job.trace))
                }))
                .map_err(JobError::panicked);
                shared.telemetry.add_named(COUNTER_BATCHES, 1);
                deliver(job.respond, outcome);
            }
            Work::Session(entry) => run_session_turn(shared, &entry),
        }

        let mut st = shared.state.lock().expect("pool lock poisoned");
        st.busy_workers -= 1;
        if st.queue.is_empty() && st.busy_workers == 0 {
            shared.idle.notify_all();
        }
    }
}

/// Answers one session's pending jobs in order. The session is lifted
/// out of the entry for the duration, so [`Pool::submit_stream`] keeps
/// appending without blocking behind an in-flight chunk; the
/// `scheduled` flag (flipped only under the entry lock, with the
/// pending queue known empty) guarantees at most one concurrent turn
/// per session, so a turn finds the session missing only when a
/// panicking chunk closed the stream.
fn run_session_turn(shared: &Shared, entry: &Arc<SessionEntry>) {
    let mut session = entry
        .inner
        .lock()
        .expect("session lock poisoned")
        .session
        .take();
    loop {
        let job = {
            let mut inner = entry.inner.lock().expect("session lock poisoned");
            match inner.pending.pop_front() {
                Some(job) => job,
                None => {
                    inner.session = session;
                    inner.scheduled = false;
                    return;
                }
            }
        };
        let Some(live) = session.as_mut() else {
            job.refuse();
            continue;
        };
        match job {
            StreamJob::Chunk { chunk, respond } => {
                let fed = catch_unwind(AssertUnwindSafe(|| {
                    shared
                        .telemetry
                        .time_named(COUNTER_CHUNK_NS, || live.feed(&chunk))
                }));
                shared.telemetry.add_named(COUNTER_STREAM_CHUNKS, 1);
                match fed {
                    Ok(fed) => deliver(respond, fed.map_err(JobError::Trace)),
                    Err(panic) => {
                        // The forward state may be half-updated: drop it.
                        session = None;
                        deliver(respond, Err(JobError::panicked(panic)));
                    }
                }
            }
            StreamJob::Close { respond } => deliver(
                respond,
                Ok(StreamTotals {
                    instants: live.instants(),
                    wrong_state_predictions: live.wrong_state_predictions(),
                    unknown_instants: live.unknown_instants(),
                }),
            ),
        }
    }
}

/// Hands `answer` to a job's callback. A callback that panics loses its
/// answer and nothing else: the unwind stops here, so the worker goes on
/// to release its busy count and, in a session turn, to put the session
/// back.
fn deliver<T>(respond: impl FnOnce(T), answer: T) {
    let _ = catch_unwind(AssertUnwindSafe(|| respond(answer)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;
    use crate::test_support::{toy_model_json, toy_trace};
    use std::sync::mpsc;
    use std::time::Instant;

    fn toy_model() -> Arc<ServedModel> {
        let dir = std::env::temp_dir().join(format!(
            "psm-serve-pool-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("toy@1.json"),
            psm_persist::encode_artifact(&toy_model_json()),
        )
        .unwrap();
        let model = Registry::open(&dir)
            .unwrap()
            .snapshot()
            .lookup("toy", None)
            .unwrap();
        std::fs::remove_dir_all(&dir).ok();
        model
    }

    type Answered = (u64, Result<HmmOutcome, JobError>);

    fn job(id: u64, model: &Arc<ServedModel>, tx: &mpsc::Sender<Answered>) -> EstimateJob {
        job_over(id, model, toy_trace(), tx)
    }

    fn job_over(
        id: u64,
        model: &Arc<ServedModel>,
        trace: FunctionalTrace,
        tx: &mpsc::Sender<Answered>,
    ) -> EstimateJob {
        let tx = tx.clone();
        EstimateJob {
            model: model.clone(),
            trace,
            respond: Box::new(move |out| {
                let _ = tx.send((id, out));
            }),
        }
    }

    /// A trace over no signals at all. The daemon's interface check
    /// refuses it before it reaches the pool; submitted straight to the
    /// pool, a one-shot estimate of it against the toy model's one-signal
    /// interface panics, and a stream refuses it as a chunk of the wrong
    /// shape.
    fn foreign_trace() -> FunctionalTrace {
        let mut trace = FunctionalTrace::new(psm_trace::SignalSet::new());
        for _ in 0..4 {
            trace.push_cycle(Vec::new()).unwrap();
        }
        trace
    }

    /// Drains the pool on another thread, failing the test instead of
    /// hanging it when drain never returns.
    fn drain_within(pool: Pool, limit: Duration) {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            pool.drain();
            let _ = tx.send(());
        });
        rx.recv_timeout(limit).expect("drain returns");
    }

    fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) {
        let start = Instant::now();
        while !cond() {
            assert!(start.elapsed() < deadline, "condition not reached in time");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn batches_answer_every_job_identically() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 32,
                stall: Duration::ZERO,
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let expected = model.estimate(&toy_trace());
        let (tx, rx) = mpsc::channel();
        for id in 0..16 {
            assert_eq!(pool.submit(job(id, &model, &tx)), Ok(()));
        }
        let mut got = Vec::new();
        for _ in 0..16 {
            got.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got.len(), 16);
        for (id, out) in got {
            assert_eq!(out.unwrap(), expected, "request {id} diverged");
        }
        pool.drain();
        let report = telemetry.report();
        assert!(report.named_counter(COUNTER_BATCHES) >= 1);
        assert_eq!(report.named_counter(COUNTER_BUSY), 0);
    }

    #[test]
    fn full_queue_is_busy_not_a_hang() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 2,
                stall: Duration::from_millis(400),
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        // First job: wait until the (stalled) worker has pulled it, so
        // the queue state below is deterministic.
        assert_eq!(pool.submit(job(0, &model, &tx)), Ok(()));
        wait_until(Duration::from_secs(10), || pool.queue_depth() == 0);
        // Fill both queue slots, then overflow.
        assert_eq!(pool.submit(job(1, &model, &tx)), Ok(()));
        assert_eq!(pool.submit(job(2, &model, &tx)), Ok(()));
        assert_eq!(pool.submit(job(3, &model, &tx)), Err(Refused::Busy));
        // The three accepted jobs all complete; the rejected one never
        // responds.
        let mut ids: Vec<u64> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap().0)
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(rx.try_recv().is_err());
        assert_eq!(telemetry.report().named_counter(COUNTER_BUSY), 1);
        pool.drain();
    }

    #[test]
    fn drain_answers_accepted_work_then_refuses_more() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 32,
                stall: Duration::from_millis(100),
            },
            telemetry,
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        for id in 0..6 {
            assert_eq!(pool.submit(job(id, &model, &tx)), Ok(()));
        }
        pool.drain();
        // All six responses are already in the channel once drain returns.
        let mut ids: Vec<u64> = (0..6).map(|_| rx.try_recv().unwrap().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.submit(job(9, &model, &tx)), Err(Refused::Draining));
        pool.drain(); // idempotent
    }

    /// What a stream job's callback received, tagged by job kind.
    #[derive(Debug)]
    enum Answer {
        Chunk(Result<ChunkOutcome, JobError>),
        Closed(Result<StreamTotals, JobError>),
    }

    fn chunk_job(id: u64, chunk: FunctionalTrace, tx: &mpsc::Sender<(u64, Answer)>) -> StreamJob {
        let tx = tx.clone();
        StreamJob::Chunk {
            chunk,
            respond: Box::new(move |fed| {
                let _ = tx.send((id, Answer::Chunk(fed)));
            }),
        }
    }

    fn close_job(id: u64, tx: &mpsc::Sender<(u64, Answer)>) -> StreamJob {
        let tx = tx.clone();
        StreamJob::Close {
            respond: Box::new(move |totals| {
                let _ = tx.send((id, Answer::Closed(totals)));
            }),
        }
    }

    #[test]
    fn stream_chunks_run_in_order_and_match_one_shot() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 32,
                stall: Duration::ZERO,
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let expected = model.estimate(&toy_trace());
        let entry = pool.open_session(model.clone()).unwrap();
        let (tx, rx) = mpsc::channel();
        let chunks = toy_trace().split_windows(2);
        let n = chunks.len() as u64;
        for (i, chunk) in chunks.into_iter().enumerate() {
            assert_eq!(
                pool.submit_stream(&entry, chunk_job(i as u64, chunk, &tx)),
                Ok(())
            );
        }
        assert_eq!(pool.submit_stream(&entry, close_job(n, &tx)), Ok(()));
        let mut streamed: Vec<f64> = Vec::new();
        for want in 0..n {
            let (id, reply) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(id, want, "per-session replies arrive in order");
            match reply {
                Answer::Chunk(Ok(out)) => streamed.extend(out.estimate.iter()),
                other => panic!("expected chunk reply, got {other:?}"),
            }
        }
        let (_, last) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let Answer::Closed(Ok(totals)) = last else {
            panic!("expected close reply, got {last:?}");
        };
        assert_eq!(totals.instants, expected.estimate.len());
        assert_eq!(
            totals.wrong_state_predictions,
            expected.wrong_state_predictions
        );
        assert_eq!(totals.unknown_instants, expected.unknown_instants);
        assert_eq!(streamed.len(), expected.estimate.len());
        for (s, o) in streamed.iter().zip(expected.estimate.iter()) {
            assert_eq!(s.to_bits(), o.to_bits());
        }
        assert!(telemetry.report().named_counter(COUNTER_STREAM_CHUNKS) >= 1);
        pool.drain();
    }

    #[test]
    fn drain_refuses_new_stream_work_but_answers_pending() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                stall: Duration::from_millis(100),
            },
            telemetry,
        );
        let model = toy_model();
        let entry = pool.open_session(model.clone()).unwrap();
        let (tx, rx) = mpsc::channel();
        for id in 0..3 {
            assert_eq!(
                pool.submit_stream(&entry, chunk_job(id, toy_trace(), &tx)),
                Ok(())
            );
        }
        pool.drain();
        // All three pending chunks were answered before drain returned…
        let mut ids: Vec<u64> = (0..3).map(|_| rx.try_recv().unwrap().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2]);
        // …and both new chunks and new sessions are now refused.
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(9, toy_trace(), &tx)),
            Err(Refused::Draining)
        );
        assert!(pool.open_session(model).is_none());
    }

    #[test]
    fn per_session_pending_overflow_is_busy() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 2,
                stall: Duration::from_millis(300),
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let (btx, _brx) = mpsc::channel();
        // Park the single worker on a slow one-shot batch…
        assert_eq!(pool.submit(job(0, &model, &btx)), Ok(()));
        wait_until(Duration::from_secs(10), || pool.queue_depth() == 0);
        // …then overfill one session's pending queue.
        let entry = pool.open_session(model).unwrap();
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(1, toy_trace(), &tx)),
            Ok(())
        );
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(2, toy_trace(), &tx)),
            Ok(())
        );
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(3, toy_trace(), &tx)),
            Err(Refused::Busy)
        );
        // A close still lands even with pending at capacity.
        assert_eq!(pool.submit_stream(&entry, close_job(4, &tx)), Ok(()));
        let ids: Vec<u64> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap().0)
            .collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(telemetry.report().named_counter(COUNTER_BUSY), 1);
        pool.drain();
    }

    #[test]
    fn telemetry_stays_bounded_however_many_jobs_run() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 4096,
                stall: Duration::ZERO,
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let entry = pool.open_session(model.clone()).unwrap();
        let (tx, rx) = mpsc::channel();
        let (stream_tx, stream_rx) = mpsc::channel();
        let run = |ids: std::ops::Range<u64>| {
            for id in ids.clone() {
                assert_eq!(pool.submit(job(id, &model, &tx)), Ok(()));
                assert_eq!(
                    pool.submit_stream(&entry, chunk_job(id, toy_trace(), &stream_tx)),
                    Ok(())
                );
            }
            for _ in ids {
                rx.recv_timeout(Duration::from_secs(30)).unwrap().1.unwrap();
                let (_, answer) = stream_rx.recv_timeout(Duration::from_secs(30)).unwrap();
                assert!(matches!(answer, Answer::Chunk(Ok(_))), "{answer:?}");
            }
        };
        run(0..10);
        let early = telemetry.report();
        run(10..2000);
        let late = telemetry.report();
        pool.drain();

        assert!(early.spans.is_empty());
        assert!(late.spans.is_empty());
        assert_eq!(late.named_counters.len(), early.named_counters.len());
        assert_eq!(late.gauges.len(), early.gauges.len());
        assert_eq!(late.named_counter(COUNTER_BATCHES), 2000);
        assert_eq!(late.named_counter(COUNTER_STREAM_CHUNKS), 2000);
        assert!(late.named_counter(COUNTER_ESTIMATE_NS) > 0);
        assert!(late.named_counter(COUNTER_CHUNK_NS) > 0);
    }

    #[test]
    fn panicking_estimate_is_one_error_and_the_worker_serves_on() {
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                stall: Duration::ZERO,
            },
            Arc::new(Telemetry::new()),
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            pool.submit(job_over(1, &model, foreign_trace(), &tx)),
            Ok(())
        );
        let (id, out) = rx.recv_timeout(Duration::from_secs(30)).expect("an answer");
        assert_eq!(id, 1);
        assert!(matches!(out, Err(JobError::Panicked(_))), "{out:?}");
        assert!(out
            .unwrap_err()
            .to_string()
            .starts_with("estimation panicked: "));

        // The one worker survived: the next job is answered in full.
        assert_eq!(pool.submit(job(2, &model, &tx)), Ok(()));
        let (id, out) = rx.recv_timeout(Duration::from_secs(30)).expect("an answer");
        assert_eq!(id, 2);
        assert_eq!(out.unwrap(), model.estimate(&toy_trace()));
        assert!(rx.try_recv().is_err(), "one answer per job");
        drain_within(pool, Duration::from_secs(30));
    }

    #[test]
    fn panicking_chunk_closes_its_stream_only() {
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                stall: Duration::ZERO,
            },
            Arc::new(Telemetry::new()),
        );
        let model = toy_model();
        let doomed = pool.open_session(model.clone()).unwrap();
        let healthy = pool.open_session(model.clone()).unwrap();
        let (tx, rx) = mpsc::channel();
        let next = || rx.recv_timeout(Duration::from_secs(30)).expect("an answer");

        let submit = |entry, job| assert_eq!(pool.submit_stream(entry, job), Ok(()));
        let mut inner = doomed.inner.lock().unwrap();
        inner.session.as_mut().unwrap().panic_on_next_feed = true;
        drop(inner);
        submit(&doomed, chunk_job(1, toy_trace(), &tx));
        let (id, answer) = next();
        assert_eq!(id, 1);
        assert!(
            matches!(answer, Answer::Chunk(Err(JobError::Panicked(_)))),
            "{answer:?}"
        );
        // Later chunks and the close of the same stream find it closed.
        submit(&doomed, chunk_job(2, toy_trace(), &tx));
        submit(&doomed, close_job(3, &tx));
        let (id, answer) = next();
        assert_eq!(id, 2);
        assert!(
            matches!(answer, Answer::Chunk(Err(JobError::StreamClosed))),
            "{answer:?}"
        );
        let (id, answer) = next();
        assert_eq!(id, 3);
        assert!(
            matches!(answer, Answer::Closed(Err(JobError::StreamClosed))),
            "{answer:?}"
        );

        // A chunk of the wrong shape is refused and leaves its stream
        // open and untouched.
        submit(&healthy, chunk_job(6, foreign_trace(), &tx));
        let (id, answer) = next();
        assert_eq!(id, 6);
        assert!(
            matches!(answer, Answer::Chunk(Err(JobError::Trace(_)))),
            "{answer:?}"
        );

        // Another stream and a one-shot on the same worker still estimate.
        let expected = model.estimate(&toy_trace());
        submit(&healthy, chunk_job(4, toy_trace(), &tx));
        let (id, answer) = next();
        assert_eq!(id, 4);
        let Answer::Chunk(Ok(out)) = answer else {
            panic!("expected a chunk outcome, got {answer:?}");
        };
        assert_eq!(out.estimate, expected.estimate);
        let (otx, orx) = mpsc::channel();
        assert_eq!(pool.submit(job(5, &model, &otx)), Ok(()));
        let (_, out) = orx
            .recv_timeout(Duration::from_secs(30))
            .expect("an answer");
        assert_eq!(out.unwrap(), expected);
        drain_within(pool, Duration::from_secs(30));
    }

    #[test]
    fn panicking_callbacks_leave_the_worker_and_its_stream_serving() {
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 8,
                stall: Duration::ZERO,
            },
            Arc::new(Telemetry::new()),
        );
        let model = toy_model();
        let expected = model.estimate(&toy_trace());
        let (tx, rx) = mpsc::channel();
        let next = || rx.recv_timeout(Duration::from_secs(30)).expect("an answer");

        // A one-shot whose callback panics, then a normal one-shot.
        let doomed = EstimateJob {
            model: model.clone(),
            trace: toy_trace(),
            respond: Box::new(|_| panic!("reply callback fails")),
        };
        assert_eq!(pool.submit(doomed), Ok(()));
        let (otx, orx) = mpsc::channel();
        assert_eq!(pool.submit(job(1, &model, &otx)), Ok(()));
        let (id, out) = orx
            .recv_timeout(Duration::from_secs(30))
            .expect("the worker survived");
        assert_eq!(id, 1);
        assert_eq!(out.unwrap(), expected);

        // A stream chunk whose callback panics: the session is put back,
        // so its later chunk and its close still run.
        let entry = pool.open_session(model.clone()).unwrap();
        let doomed = StreamJob::Chunk {
            chunk: toy_trace(),
            respond: Box::new(|_| panic!("reply callback fails")),
        };
        assert_eq!(pool.submit_stream(&entry, doomed), Ok(()));
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(2, toy_trace(), &tx)),
            Ok(())
        );
        assert_eq!(pool.submit_stream(&entry, close_job(3, &tx)), Ok(()));
        let (id, answer) = next();
        assert_eq!(id, 2);
        assert!(matches!(answer, Answer::Chunk(Ok(_))), "{answer:?}");
        let (id, answer) = next();
        assert_eq!(id, 3);
        let Answer::Closed(Ok(totals)) = answer else {
            panic!("expected the stream's totals, got {answer:?}");
        };
        assert_eq!(totals.instants, 2 * expected.estimate.len());
        drain_within(pool, Duration::from_secs(30));
    }
}
