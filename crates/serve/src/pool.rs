//! The estimation worker pool: bounded queue, per-model batching,
//! explicit backpressure, graceful drain.
//!
//! Requests land in one bounded FIFO. A fixed set of workers pull from
//! it; each pull takes the oldest job **plus every other queued job for
//! the same model** (up to [`PoolConfig::max_batch`]) and answers the
//! whole batch in one turn, so one worker wake-up and one queue-lock
//! round serve several requests. Because responses carry the request id,
//! batch reordering is invisible to clients.
//!
//! A full queue never blocks and never grows: [`Pool::submit`] returns
//! [`SubmitOutcome::Busy`] and the daemon turns that into the wire-level
//! `BUSY` status — backpressure is explicit, not an OOM or a hang.
//!
//! [`Pool::drain`] is the graceful-shutdown half: refuse new work,
//! run the queue dry, join the workers. Every accepted request gets its
//! response before drain returns.
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
//! queue-dry wait already covers sessions.

use crate::registry::ServedModel;
use crate::session::{ChunkOutcome, StreamSession};
use psm_hmm::HmmOutcome;
use psm_telemetry::{Stage, Telemetry};
use psm_trace::FunctionalTrace;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Gauge: jobs waiting in the queue, sampled at every push and pull.
pub const GAUGE_QUEUE_DEPTH: &str = "serve.queue_depth";
/// Gauge: size of the batch a worker just pulled.
pub const GAUGE_BATCH_SIZE: &str = "serve.batch_size";
/// Counter: batches executed.
pub const COUNTER_BATCHES: &str = "serve.batches";
/// Counter: submissions rejected with `BUSY`.
pub const COUNTER_BUSY: &str = "serve.busy";
/// Counter: stream chunks estimated.
pub const COUNTER_STREAM_CHUNKS: &str = "serve.stream_chunks";

/// Worker-pool tuning knobs.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Number of worker threads (clamped to at least 1).
    pub workers: usize,
    /// Queue slots; a submission beyond this is rejected `Busy`.
    pub queue_capacity: usize,
    /// Most same-model jobs one worker answers in a single turn.
    pub max_batch: usize,
    /// Fault-injection: how long a worker sleeps before executing a
    /// batch. Zero in production; tests raise it to hold jobs in the
    /// queue deterministically (forcing `BUSY`, observing batching, or
    /// racing a `RELOAD`/`SHUTDOWN` against in-flight work).
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
            max_batch: 8,
            stall: Duration::ZERO,
        }
    }
}

/// One queued estimation: the resolved model, the workload, and the
/// callback that delivers the outcome (for the daemon, a closure that
/// writes the response frame).
pub struct EstimateJob {
    /// Echoed in the response; also labels the telemetry span.
    pub request_id: u64,
    /// The model snapshot resolved at submission time. Holding the
    /// `Arc` here is what makes registry reloads atomic towards
    /// in-flight work.
    pub model: Arc<ServedModel>,
    /// The functional trace to estimate.
    pub trace: FunctionalTrace,
    /// Receives the outcome, exactly once.
    pub respond: Box<dyn FnOnce(HmmOutcome) + Send>,
}

impl std::fmt::Debug for EstimateJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EstimateJob")
            .field("request_id", &self.request_id)
            .field("model", &self.model.name)
            .field("cycles", &self.trace.len())
            .finish_non_exhaustive()
    }
}

/// What [`Pool::submit`] did with a job.
#[derive(Debug)]
pub enum SubmitOutcome {
    /// Queued; the callback will run.
    Accepted,
    /// Queue full; the job was dropped and its callback will not run.
    Busy(EstimateJob),
    /// The pool is draining for shutdown; the job was dropped.
    Draining(EstimateJob),
}

impl PartialEq<&str> for SubmitOutcome {
    fn eq(&self, other: &&str) -> bool {
        matches!(
            (self, *other),
            (SubmitOutcome::Accepted, "accepted")
                | (SubmitOutcome::Busy(_), "busy")
                | (SubmitOutcome::Draining(_), "draining")
        )
    }
}

/// One unit of stream work queued on a session.
pub struct StreamJob {
    /// Echoed in the response frame.
    pub request_id: u64,
    /// Chunk to estimate, or a close.
    pub kind: StreamWork,
    /// Receives the reply, exactly once.
    pub respond: Box<dyn FnOnce(StreamReply) + Send>,
}

impl std::fmt::Debug for StreamJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamJob")
            .field("request_id", &self.request_id)
            .field(
                "kind",
                &match &self.kind {
                    StreamWork::Chunk(c) => format!("chunk({} cycles)", c.len()),
                    StreamWork::Close => "close".to_owned(),
                },
            )
            .finish_non_exhaustive()
    }
}

/// The payload of a [`StreamJob`].
#[derive(Debug)]
pub enum StreamWork {
    /// Estimate the next chunk of the stream.
    Chunk(FunctionalTrace),
    /// Finish the stream and report its totals.
    Close,
}

/// What a worker sends back for one [`StreamJob`].
#[derive(Debug)]
pub enum StreamReply {
    /// The chunk's estimate plus cumulative counters.
    Chunk(ChunkOutcome),
    /// The stream's final totals.
    Closed(StreamTotals),
    /// The chunk could not be estimated (e.g. interface drift); the
    /// stream stays open.
    Failed(String),
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

/// What [`Pool::submit_stream`] did with a job.
#[derive(Debug)]
pub enum StreamSubmit {
    /// Queued on the session; the callback will run.
    Accepted,
    /// The session's pending queue is full; the job was handed back.
    Busy(StreamJob),
    /// The pool is draining; the job was handed back.
    Draining(StreamJob),
}

impl PartialEq<&str> for StreamSubmit {
    fn eq(&self, other: &&str) -> bool {
        matches!(
            (self, *other),
            (StreamSubmit::Accepted, "accepted")
                | (StreamSubmit::Busy(_), "busy")
                | (StreamSubmit::Draining(_), "draining")
        )
    }
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
    /// `None` while a worker has lifted the session out for a turn.
    session: Option<StreamSession>,
    pending: VecDeque<StreamJob>,
    scheduled: bool,
}

enum Work {
    Batch(EstimateJob),
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
            max_batch: cfg.max_batch.max(1),
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
    /// `Busy`/`Draining` hand the job back so the caller can answer the
    /// client without running the estimate.
    pub fn submit(&self, job: EstimateJob) -> SubmitOutcome {
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        if st.draining {
            return SubmitOutcome::Draining(job);
        }
        if st.queue.len() >= self.shared.cfg.queue_capacity {
            self.shared.telemetry.add_named(COUNTER_BUSY, 1);
            return SubmitOutcome::Busy(job);
        }
        st.queue.push_back(Work::Batch(job));
        self.shared
            .telemetry
            .set_gauge(GAUGE_QUEUE_DEPTH, st.queue.len() as u64);
        drop(st);
        self.shared.work.notify_one();
        SubmitOutcome::Accepted
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
    /// different sessions estimate in parallel. A chunk beyond the
    /// session's pending capacity is rejected `Busy`; a close is always
    /// accepted unless the pool is draining.
    pub fn submit_stream(&self, entry: &Arc<SessionEntry>, job: StreamJob) -> StreamSubmit {
        let mut st = self.shared.state.lock().expect("pool lock poisoned");
        if st.draining {
            return StreamSubmit::Draining(job);
        }
        let mut inner = entry.inner.lock().expect("session lock poisoned");
        if matches!(job.kind, StreamWork::Chunk(_))
            && inner.pending.len() >= self.shared.cfg.queue_capacity
        {
            self.shared.telemetry.add_named(COUNTER_BUSY, 1);
            return StreamSubmit::Busy(job);
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
        StreamSubmit::Accepted
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
            loop {
                if !st.queue.is_empty() {
                    break;
                }
                if st.stop {
                    return;
                }
                st = shared.work.wait(st).expect("pool lock poisoned");
            }
            let first = st.queue.pop_front().expect("queue non-empty");
            let work = match first {
                Work::Session(entry) => Pulled::Session(entry),
                Work::Batch(first) => {
                    let model = first.model.clone();
                    let mut batch = vec![first];
                    // Steal every queued estimate for the same model
                    // (same Arc — a reload makes new Arcs, so jobs
                    // resolved against different snapshots never share
                    // a batch). Session turns are never stolen.
                    let mut i = 0;
                    while batch.len() < shared.cfg.max_batch && i < st.queue.len() {
                        let steal = match &st.queue[i] {
                            Work::Batch(job) => Arc::ptr_eq(&job.model, &model),
                            Work::Session(_) => false,
                        };
                        if steal {
                            match st.queue.remove(i).expect("index in range") {
                                Work::Batch(job) => batch.push(job),
                                Work::Session(_) => unreachable!("steal checked the variant"),
                            }
                        } else {
                            i += 1;
                        }
                    }
                    Pulled::Batch(batch)
                }
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
            Pulled::Batch(batch) => run_batch(shared, batch),
            Pulled::Session(entry) => run_session_turn(shared, &entry),
        }

        let mut st = shared.state.lock().expect("pool lock poisoned");
        st.busy_workers -= 1;
        if st.queue.is_empty() && st.busy_workers == 0 {
            shared.idle.notify_all();
        }
    }
}

enum Pulled {
    Batch(Vec<EstimateJob>),
    Session(Arc<SessionEntry>),
}

fn run_batch(shared: &Shared, batch: Vec<EstimateJob>) {
    shared
        .telemetry
        .set_gauge(GAUGE_BATCH_SIZE, batch.len() as u64);
    shared.telemetry.add_named(COUNTER_BATCHES, 1);

    for job in batch {
        let model = &job.model;
        let outcome = shared.telemetry.time(
            Stage::Serve,
            format!(
                "estimate {}@{} req {}",
                model.name, model.version, job.request_id
            ),
            || model.estimate(&job.trace),
        );
        (job.respond)(outcome);
    }
}

/// Answers one session's pending jobs in order. The session is lifted
/// out of the entry for the duration, so [`Pool::submit_stream`] keeps
/// appending without blocking behind an in-flight chunk; the
/// `scheduled` flag (flipped only under the entry lock, with the
/// pending queue known empty) guarantees at most one concurrent turn
/// per session.
fn run_session_turn(shared: &Shared, entry: &Arc<SessionEntry>) {
    let mut session = {
        let mut inner = entry.inner.lock().expect("session lock poisoned");
        match inner.session.take() {
            Some(s) => s,
            None => {
                // Unreachable by construction; fail safe by yielding
                // the turn rather than poisoning the worker.
                inner.scheduled = false;
                return;
            }
        }
    };
    loop {
        let job = {
            let mut inner = entry.inner.lock().expect("session lock poisoned");
            match inner.pending.pop_front() {
                Some(job) => job,
                None => {
                    inner.session = Some(session);
                    inner.scheduled = false;
                    return;
                }
            }
        };
        match job.kind {
            StreamWork::Chunk(chunk) => {
                let model = session.model().clone();
                let reply = shared.telemetry.time(
                    Stage::Serve,
                    format!(
                        "stream chunk {}@{} req {}",
                        model.name, model.version, job.request_id
                    ),
                    || match session.feed(&chunk) {
                        Ok(out) => StreamReply::Chunk(out),
                        Err(e) => StreamReply::Failed(e.to_string()),
                    },
                );
                shared.telemetry.add_named(COUNTER_STREAM_CHUNKS, 1);
                (job.respond)(reply);
            }
            StreamWork::Close => {
                (job.respond)(StreamReply::Closed(StreamTotals {
                    instants: session.instants(),
                    wrong_state_predictions: session.wrong_state_predictions(),
                    unknown_instants: session.unknown_instants(),
                }));
            }
        }
    }
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

    fn job(id: u64, model: &Arc<ServedModel>, tx: &mpsc::Sender<(u64, HmmOutcome)>) -> EstimateJob {
        let tx = tx.clone();
        EstimateJob {
            request_id: id,
            model: model.clone(),
            trace: toy_trace(),
            respond: Box::new(move |out| {
                let _ = tx.send((id, out));
            }),
        }
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
                max_batch: 8,
                stall: Duration::ZERO,
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let expected = model.estimate(&toy_trace());
        let (tx, rx) = mpsc::channel();
        for id in 0..16 {
            assert_eq!(pool.submit(job(id, &model, &tx)), "accepted");
        }
        let mut got = Vec::new();
        for _ in 0..16 {
            got.push(rx.recv_timeout(Duration::from_secs(30)).unwrap());
        }
        got.sort_by_key(|(id, _)| *id);
        assert_eq!(got.len(), 16);
        for (id, out) in got {
            assert_eq!(out, expected, "request {id} diverged");
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
                max_batch: 1,
                stall: Duration::from_millis(400),
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        // First job: wait until the (stalled) worker has pulled it, so
        // the queue state below is deterministic.
        assert_eq!(pool.submit(job(0, &model, &tx)), "accepted");
        wait_until(Duration::from_secs(10), || pool.queue_depth() == 0);
        // Fill both queue slots, then overflow.
        assert_eq!(pool.submit(job(1, &model, &tx)), "accepted");
        assert_eq!(pool.submit(job(2, &model, &tx)), "accepted");
        let overflow = pool.submit(job(3, &model, &tx));
        let SubmitOutcome::Busy(rejected) = overflow else {
            panic!("expected Busy, got {overflow:?}");
        };
        assert_eq!(rejected.request_id, 3);
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
    fn stalled_queue_forms_batches() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 1,
                queue_capacity: 32,
                max_batch: 8,
                stall: Duration::from_millis(200),
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        assert_eq!(pool.submit(job(0, &model, &tx)), "accepted");
        wait_until(Duration::from_secs(10), || pool.queue_depth() == 0);
        // These four queue up behind the stalled worker and come out as
        // one batch.
        for id in 1..5 {
            assert_eq!(pool.submit(job(id, &model, &tx)), "accepted");
        }
        for _ in 0..5 {
            rx.recv_timeout(Duration::from_secs(30)).unwrap();
        }
        pool.drain();
        let report = telemetry.report();
        assert_eq!(report.named_counter(COUNTER_BATCHES), 2);
        assert_eq!(report.gauge(GAUGE_BATCH_SIZE).unwrap().max, 4);
    }

    #[test]
    fn drain_answers_accepted_work_then_refuses_more() {
        let telemetry = Arc::new(Telemetry::new());
        let pool = Pool::new(
            PoolConfig {
                workers: 2,
                queue_capacity: 32,
                max_batch: 4,
                stall: Duration::from_millis(100),
            },
            telemetry,
        );
        let model = toy_model();
        let (tx, rx) = mpsc::channel();
        for id in 0..6 {
            assert_eq!(pool.submit(job(id, &model, &tx)), "accepted");
        }
        pool.drain();
        // All six responses are already in the channel once drain returns.
        let mut ids: Vec<u64> = (0..6).map(|_| rx.try_recv().unwrap().0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(pool.submit(job(9, &model, &tx)), "draining");
        pool.drain(); // idempotent
    }

    fn chunk_job(
        id: u64,
        chunk: FunctionalTrace,
        tx: &mpsc::Sender<(u64, StreamReply)>,
    ) -> StreamJob {
        let tx = tx.clone();
        StreamJob {
            request_id: id,
            kind: StreamWork::Chunk(chunk),
            respond: Box::new(move |reply| {
                let _ = tx.send((id, reply));
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
                max_batch: 8,
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
                "accepted"
            );
        }
        let close_tx = tx.clone();
        assert_eq!(
            pool.submit_stream(
                &entry,
                StreamJob {
                    request_id: n,
                    kind: StreamWork::Close,
                    respond: Box::new(move |reply| {
                        let _ = close_tx.send((n, reply));
                    }),
                },
            ),
            "accepted"
        );
        let mut streamed: Vec<f64> = Vec::new();
        for want in 0..n {
            let (id, reply) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(id, want, "per-session replies arrive in order");
            match reply {
                StreamReply::Chunk(out) => streamed.extend(out.estimate.iter()),
                other => panic!("expected chunk reply, got {other:?}"),
            }
        }
        let (_, last) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let StreamReply::Closed(totals) = last else {
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
                max_batch: 4,
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
                "accepted"
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
            "draining"
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
                max_batch: 1,
                stall: Duration::from_millis(300),
            },
            telemetry.clone(),
        );
        let model = toy_model();
        let (btx, _brx) = mpsc::channel();
        // Park the single worker on a slow one-shot batch…
        assert_eq!(pool.submit(job(0, &model, &btx)), "accepted");
        wait_until(Duration::from_secs(10), || pool.queue_depth() == 0);
        // …then overfill one session's pending queue.
        let entry = pool.open_session(model).unwrap();
        let (tx, rx) = mpsc::channel();
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(1, toy_trace(), &tx)),
            "accepted"
        );
        assert_eq!(
            pool.submit_stream(&entry, chunk_job(2, toy_trace(), &tx)),
            "accepted"
        );
        let overflow = pool.submit_stream(&entry, chunk_job(3, toy_trace(), &tx));
        let StreamSubmit::Busy(rejected) = overflow else {
            panic!("expected Busy, got {overflow:?}");
        };
        assert_eq!(rejected.request_id, 3);
        // A close still lands even with pending at capacity.
        let close_tx = tx.clone();
        assert_eq!(
            pool.submit_stream(
                &entry,
                StreamJob {
                    request_id: 4,
                    kind: StreamWork::Close,
                    respond: Box::new(move |r| {
                        let _ = close_tx.send((4, r));
                    }),
                },
            ),
            "accepted"
        );
        let ids: Vec<u64> = (0..3)
            .map(|_| rx.recv_timeout(Duration::from_secs(30)).unwrap().0)
            .collect();
        assert_eq!(ids, vec![1, 2, 4]);
        assert_eq!(telemetry.report().named_counter(COUNTER_BUSY), 1);
        pool.drain();
    }
}
