//! Serve mode: the JSON-over-HTTP job API.
//!
//! Architecture: the shared [`crate::ops`] accept loop (short-lived connections,
//! bounded request sizes), a bounded FIFO work queue, and a pool of worker threads
//! sharing one [`Engine`] — so concurrent jobs on the same instance share cached
//! pre-computations.  Workers hold the outer-parallelism guard while running a job,
//! keeping per-job inner kernels serial exactly as batch mode does.  Job execution is
//! panic-isolated: a panicking job is recorded as `failed` with a structured error and
//! the worker keeps serving, so the pool never silently shrinks.
//!
//! Endpoints: the route table in this module's `Tier` impl (job submission, status,
//! result and cancellation, `/metrics`, `/stats`, `/readyz`), followed by the shared
//! [`crate::ops`] entries; `GET /` lists them all with their summaries.
//!
//! Fault tolerance: per-job deadlines (`timeout_ms`, clamped by
//! [`ServerConfig::max_timeout_ms`]) end jobs cooperatively with a partial
//! `timed_out` result; transient failures are retried per
//! [`ServerConfig::retry`]; queued jobs older than
//! [`ServerConfig::queue_wait_ms`] are shed instead of run; results are written
//! through the checksummed [`crate::journal`]; and [`Server::run_until`] drains
//! in-flight work under [`ServerConfig::drain_ms`] when an external stop flag
//! (e.g. SIGTERM) is raised.
//!
//! Retention: serve tracks every queued and running job, but only the
//! [`RETAINED_TERMINAL_JOBS`] most recently finished ones.  An older finished job's
//! id answers `404` (its result is in the `--out` journal), and may be submitted
//! again.

use crate::engine::{Engine, EngineStats, ServiceError};
use crate::http::{write_body, write_error, write_json, Request};
use crate::journal::{FsyncPolicy, Journal};
use crate::ops::{self, parse_submission, reply_json, Call, Ops, OpsConfig, Route, Tier};
use crate::retry::RetryPolicy;
use crate::spans::{close_job_span, event, DEFAULT_TRACE_CAPACITY, OPS_TRACE, TRACE_HEADER};
use crate::spec::{JobResult, JobSpec};
use juliqaoa_linalg::enter_outer_parallelism;
use juliqaoa_optim::RunControl;
use juliqaoa_telemetry::{encode, kernels, Counter, Gauge, PromWriter, Stage, TraceId};
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many finished (done, failed, cancelled, timed-out or shed) jobs serve keeps
/// for status and result reads: as many as the span ring keeps spans.  Past it, the
/// oldest finished job leaves the table.
pub const RETAINED_TERMINAL_JOBS: usize = DEFAULT_TRACE_CAPACITY;

/// Configuration for [`Server::bind`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Listener, request limits and tracing (shared with `route`).
    pub ops: OpsConfig,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Maximum queued (not yet running) jobs before `POST /jobs` returns 429.
    pub queue_capacity: usize,
    /// Entry capacity of each of the shared engine's two caches: prepared
    /// instances and `(instance, mixer)` simulator slots.
    pub cache_capacity: usize,
    /// Optional JSONL file finished results are appended to (same checksummed
    /// journal format as batch mode, so serve-mode output can seed a later
    /// `batch --resume`; a torn tail from a previous crash is recovered on bind).
    pub results_path: Option<PathBuf>,
    /// Deadline applied to jobs that do not set their own `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// Upper bound clamped onto every job deadline (including jobs with no
    /// requested timeout at all).
    pub max_timeout_ms: Option<u64>,
    /// Admission-control deadline: a queued job older than this is shed instead
    /// of run, and new submissions are rejected with `503` + `Retry-After`
    /// while the job at the head of the queue is already stale.
    pub queue_wait_ms: Option<u64>,
    /// Shutdown drain budget: after this long, still-live jobs are
    /// cooperatively cancelled so shutdown stays bounded.
    pub drain_ms: u64,
    /// Retry policy for transiently-failed jobs (default: no retries).
    pub retry: RetryPolicy,
    /// Durability policy for the results journal.
    pub fsync: FsyncPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            ops: OpsConfig::at("127.0.0.1:7878"),
            workers: 2,
            queue_capacity: 256,
            cache_capacity: crate::engine::DEFAULT_CACHE_CAPACITY,
            results_path: None,
            default_timeout_ms: None,
            max_timeout_ms: None,
            queue_wait_ms: None,
            drain_ms: 10_000,
            retry: RetryPolicy::default(),
            fsync: FsyncPolicy::default(),
        }
    }
}

/// Lifecycle of a submitted job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum JobState {
    Queued,
    Running,
    Done,
    Cancelled,
    TimedOut,
    Shed,
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Cancelled => "cancelled",
            JobState::TimedOut => "timed_out",
            JobState::Shed => "shed",
            JobState::Failed => "failed",
        }
    }
}

/// Everything the service tracks about one submitted job.
struct JobRecord {
    spec: JobSpec,
    /// The job's trace id: adopted from the `X-Juliqaoa-Trace` header when a
    /// router assigned one upstream, derived from the spec otherwise.
    trace: TraceId,
    state: Mutex<JobState>,
    cancel: Arc<AtomicBool>,
    enqueued_at: Instant,
    progress_done: Gauge,
    progress_total: Gauge,
    result: Mutex<Option<JobResult>>,
    error: Mutex<Option<String>>,
}

impl JobRecord {
    fn new(spec: JobSpec, trace: TraceId) -> Arc<Self> {
        Arc::new(JobRecord {
            spec,
            trace,
            state: Mutex::new(JobState::Queued),
            cancel: Arc::new(AtomicBool::new(false)),
            enqueued_at: Instant::now(),
            progress_done: Gauge::new(),
            progress_total: Gauge::new(),
            result: Mutex::new(None),
            error: Mutex::new(None),
        })
    }

    fn state(&self) -> JobState {
        *self.state.lock().expect("job state lock")
    }

    fn set_state(&self, s: JobState) {
        *self.state.lock().expect("job state lock") = s;
    }
}

/// Every job serve tracks: all queued and running jobs, and the
/// [`RETAINED_TERMINAL_JOBS`] most recently finished ones.
#[derive(Default)]
struct JobTable {
    records: HashMap<String, Arc<JobRecord>>,
    /// Finished jobs, oldest first.
    finished: VecDeque<Arc<JobRecord>>,
}

impl JobTable {
    /// Records that `job` reached a terminal state, and drops the oldest finished
    /// record beyond the retention limit.  Only finished jobs are ever dropped.
    fn retire(&mut self, job: &Arc<JobRecord>) {
        self.finished.push_back(job.clone());
        while self.finished.len() > RETAINED_TERMINAL_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.records.remove(&oldest.spec.id);
            }
        }
    }
}

/// Bounded FIFO queue with blocking pop and shutdown.
struct WorkQueue {
    inner: Mutex<VecDeque<Arc<JobRecord>>>,
    ready: Condvar,
    capacity: usize,
    shutdown: AtomicBool,
}

impl WorkQueue {
    fn new(capacity: usize) -> Self {
        WorkQueue {
            inner: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Enqueues unless full; returns whether the job was accepted.
    fn try_push(&self, job: Arc<JobRecord>) -> bool {
        let mut q = self.inner.lock().expect("queue lock");
        if q.len() >= self.capacity {
            return false;
        }
        q.push_back(job);
        drop(q);
        self.ready.notify_one();
        true
    }

    /// Blocks for the next job; `None` once shut down and drained.
    fn pop(&self) -> Option<Arc<JobRecord>> {
        let mut q = self.inner.lock().expect("queue lock");
        loop {
            if let Some(job) = q.pop_front() {
                return Some(job);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            q = self.ready.wait(q).expect("queue wait");
        }
    }

    fn len(&self) -> usize {
        self.inner.lock().expect("queue lock").len()
    }

    /// How long the job at the head of the queue has been waiting.
    fn head_wait(&self) -> Option<Duration> {
        let q = self.inner.lock().expect("queue lock");
        q.front().map(|job| job.enqueued_at.elapsed())
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.ready.notify_all();
    }
}

/// State shared by the accept loop and the worker pool.
struct ServiceState {
    ops: Ops,
    engine: Engine,
    config: ServerConfig,
    jobs: Mutex<JobTable>,
    queue: WorkQueue,
    submitted: Counter,
    completed: Counter,
    rejected: Counter,
    shed: Counter,
    auto_id: AtomicU64,
    /// True once the worker pool is up; `/readyz` is 503 until then.
    ready: AtomicBool,
    /// True once shutdown has begun; `/readyz` is 503 and `POST /jobs` is
    /// refused from then on, while `/healthz` keeps answering 200 (alive).
    draining: AtomicBool,
    results: Option<Journal>,
}

/// Status body returned by `POST /jobs`, `GET /jobs/:id` and `POST /jobs/:id/cancel`.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct JobStatusBody {
    /// The job id.
    pub id: String,
    /// The job's trace id (16 hex digits) — feed it to `GET /trace/:id`.
    pub trace: String,
    /// `queued` / `running` / `done` / `cancelled` / `timed_out` / `shed` /
    /// `failed`.
    pub status: String,
    /// Completed optimizer work units.
    pub progress_done: u64,
    /// Total optimizer work units (0 until the job starts).
    pub progress_total: u64,
}

/// The `GET /stats` body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct MetricsBody {
    /// Seconds since the server started.
    pub uptime_s: f64,
    /// Jobs accepted onto the queue since start.
    pub jobs_submitted: u64,
    /// Submissions rejected because the queue was full.
    pub jobs_rejected: u64,
    /// Jobs currently waiting in the queue.
    pub queue_depth: u64,
    /// Jobs currently executing.
    pub running: u64,
    /// Jobs in a terminal `done` state.
    pub done: u64,
    /// Jobs in a terminal `cancelled` state.
    pub cancelled: u64,
    /// Jobs in a terminal `timed_out` state (deadline expired mid-run).
    pub timed_out: u64,
    /// Jobs shed by admission control: stale queued jobs dropped by workers
    /// plus submissions rejected with `503` while the queue head was stale.
    pub jobs_shed: u64,
    /// Jobs in a terminal `failed` state.
    pub failed: u64,
    /// Instances currently in the cache.
    pub cached_instances: u64,
    /// Engine counters (instance-cache hits/misses, prefix-cache hits/misses and
    /// rounds saved, executed/failed jobs).
    pub engine: EngineStats,
}

/// A bound, not-yet-running service instance.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServiceState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the listener and starts the worker pool (no requests are served until
    /// [`Server::run`]).
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let (listener, ops) = Ops::bind(&config.ops)?;
        let results = match &config.results_path {
            Some(path) => {
                // Recover a torn tail left by a previous crash before the first
                // append, so a restarted server never glues a new line onto a
                // half-written one.
                crate::journal::recover(path)
                    .and_then(|_| Journal::open(path, config.fsync))
                    .map(Some)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
            }
            None => None,
        };
        let engine = Engine::new(config.cache_capacity);
        engine.set_span_collector(ops.spans.clone());
        let state = Arc::new(ServiceState {
            ops,
            engine,
            jobs: Mutex::new(JobTable::default()),
            queue: WorkQueue::new(config.queue_capacity),
            submitted: Counter::new(),
            completed: Counter::new(),
            rejected: Counter::new(),
            shed: Counter::new(),
            auto_id: AtomicU64::new(0),
            ready: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            results,
            config,
        });
        let workers = (0..state.config.workers.max(1))
            .map(|i| {
                let state = state.clone();
                std::thread::Builder::new()
                    .name(format!("qaoa-worker-{i}"))
                    .spawn(move || worker_loop(&state))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        // Readiness flips only after every worker thread is spawned: a prober
        // that sees 200 on `/readyz` can rely on submitted jobs making progress.
        state.ready.store(true, Ordering::SeqCst);
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves requests until `POST /shutdown`, then drains and joins the workers.
    pub fn run(self) -> std::io::Result<()> {
        self.run_until(&AtomicBool::new(false))
    }

    /// [`Server::run`], but also stops when `stop` becomes true — the hook the
    /// binary uses to turn SIGTERM into a graceful drain.  The accept loop
    /// blocks in `accept()`; the ops layer's stop watcher sees `stop` within
    /// 20 ms and wakes it, so an external stop needs no client to connect.
    pub fn run_until(self, stop: &AtomicBool) -> std::io::Result<()> {
        ops::serve_until(&self.listener, &*self.state, stop)?;
        self.drain()
    }

    /// Stops accepting work and drains the pool: queued jobs still run (unless
    /// shed or cancelled), and a watchdog cooperatively cancels whatever is
    /// left once [`ServerConfig::drain_ms`] elapses, so shutdown is bounded
    /// even with slow jobs in flight.
    ///
    /// The listener keeps answering *while* the pool drains — `/readyz` says
    /// 503 (drain observed, stop routing here), `/healthz` stays 200 (alive,
    /// don't restart) — so a router's health prober never races the SIGTERM
    /// shutdown window against a connection-refused error.  The thread that
    /// joins the workers ends the drain: it closes the watchdog's channel and
    /// wakes the accept loop.
    fn drain(self) -> std::io::Result<()> {
        let state = &*self.state;
        let listener = &self.listener;
        state.draining.store(true, Ordering::SeqCst);
        event(
            &state.ops.spans,
            OPS_TRACE,
            "drain",
            "",
            format!("budget {} ms", state.config.drain_ms),
        );
        state.queue.begin_shutdown();
        let workers = self.workers;
        let drained = AtomicBool::new(false);
        // Nothing is ever sent: dropping the sender is the end of the drain.
        let (drain_over, watchdog) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            std::thread::Builder::new()
                .name("qaoa-drain-watchdog".into())
                .spawn_scoped(scope, move || {
                    let budget = Duration::from_millis(state.config.drain_ms);
                    if let Err(RecvTimeoutError::Timeout) = watchdog.recv_timeout(budget) {
                        cancel_live_jobs(state);
                    }
                })?;
            std::thread::Builder::new()
                .name("qaoa-drain-join".into())
                .spawn_scoped(scope, || {
                    for worker in workers {
                        let _ = worker.join();
                    }
                    drained.store(true, Ordering::SeqCst);
                    drop(drain_over);
                    ops::wake(listener);
                })?;
            ops::serve_while(listener, state, || drained.load(Ordering::SeqCst));
            Ok(())
        })
    }
}

/// The drain watchdog's last resort: cooperatively cancels every job still
/// queued or running.
fn cancel_live_jobs(state: &ServiceState) {
    let jobs = state.jobs.lock().expect("jobs lock");
    for record in jobs.records.values() {
        if matches!(record.state(), JobState::Queued | JobState::Running) {
            record.cancel.store(true, Ordering::SeqCst);
        }
    }
}

/// The deadline a job actually runs under: its own `timeout_ms`, falling back
/// to the server default, both clamped by the server maximum.
fn effective_timeout_ms(spec: &JobSpec, config: &ServerConfig) -> Option<u64> {
    match (
        spec.timeout_ms.or(config.default_timeout_ms),
        config.max_timeout_ms,
    ) {
        (Some(t), Some(max)) => Some(t.min(max)),
        (Some(t), None) => Some(t),
        (None, max) => max,
    }
}

fn worker_loop(state: &ServiceState) {
    // Jobs are outer-parallel work; keep their inner kernels serial (same contract as
    // the batch executor and the angle-finding drivers).
    let _guard = enter_outer_parallelism();
    while let Some(record) = state.queue.pop() {
        // The job's lifecycle events, recorded under its root span.
        let job_event = |name: &str, detail: String| {
            event(
                &state.ops.spans,
                record.trace,
                name,
                &record.spec.id,
                detail,
            )
        };
        // The job's last transition: into `terminal`, and into the finished FIFO.
        let finish = |terminal: JobState| {
            record.set_state(terminal);
            state.jobs.lock().expect("jobs lock").retire(&record);
        };
        if record.cancel.load(Ordering::SeqCst) {
            job_event("cancelled", "cancelled while queued".into());
            finish(JobState::Cancelled);
            continue;
        }
        // Admission control: a job that already waited past the queue-wait
        // deadline is stale — its submitter has long since timed out — so shed
        // it instead of burning a worker on it.
        if let Some(limit) = state.config.queue_wait_ms {
            if record.enqueued_at.elapsed() > Duration::from_millis(limit) {
                *record.error.lock().expect("error lock") =
                    Some(format!("shed after waiting more than {limit} ms in queue"));
                job_event("shed", format!("waited more than {limit} ms in queue"));
                finish(JobState::Shed);
                state.shed.inc();
                continue;
            }
        }
        // The queue-wait stage ends here: everything between submission and the
        // transition to Running is time the job spent waiting, not working.
        let telemetry = state.engine.telemetry();
        let queue_wait_ms = Stage::since(&telemetry.queue_wait_ms, record.enqueued_at).finish_span(
            record.trace,
            Some(&state.ops.spans),
            "queue_wait",
            &[("job", &record.spec.id)],
        );
        record.set_state(JobState::Running);
        // The engine records its stages under the job's trace, adopted or derived.
        let mut control = RunControl::with_cancel(record.cancel.clone())
            .with_trace(record.trace)
            .on_progress({
                // The callback outlives this loop iteration, so it owns its own Arc.
                let record = record.clone();
                move |done, total| {
                    record.progress_done.set(done);
                    record.progress_total.set(total);
                }
            });
        if let Some(ms) = effective_timeout_ms(&record.spec, &state.config) {
            control = control.deadline_in(Duration::from_millis(ms));
        }
        // Panic-isolated execution: without it, one panicking job would kill this
        // thread for the rest of the process — silently shrinking the pool and
        // leaving the job in `Running` forever.  Instead a panic surfaces below as
        // an ordinary failed job (visible in `jobs_failed`/`jobs_panicked`) and
        // the worker lives on.  Transient failures (panics, journal I/O) are
        // retried per the server's policy before giving up.
        let outcome = state.engine.run_job_with_retry(
            &record.spec,
            &control,
            &state.config.retry,
            |attempt, err| job_event("retry", format!("attempt {} failed: {err}", attempt + 1)),
        );
        match outcome {
            Ok(mut result) => {
                // The engine cannot see the queue, so the queue-wait slot in
                // the per-job timings is filled in here.
                result.timings.queue_wait_ms = queue_wait_ms;
                // The engine sets "cancelled"/"timed_out" only on an actual
                // stop request; optimizer non-convergence is still a done job.
                let terminal = match result.status.as_str() {
                    "cancelled" => JobState::Cancelled,
                    "timed_out" => JobState::TimedOut,
                    _ => JobState::Done,
                };
                if let Some(journal) = &state.results {
                    if let Ok(line) = serde_json::to_string(&result) {
                        let write = Stage::start(&telemetry.journal_write_ms);
                        if let Err(e) = journal.append(&line) {
                            eprintln!(
                                "[serve] failed to journal result for {:?}: {e}",
                                record.spec.id
                            );
                        }
                        let spans = Some(&*state.ops.spans);
                        write.finish_span(record.trace, spans, "journal_write", &[]);
                    }
                }
                *record.result.lock().expect("result lock") = Some(result);
                // The event lands before the state flips, so a client that
                // sees the terminal status finds the event in `/trace`.
                job_event(terminal.as_str(), String::new());
                finish(terminal);
                if terminal == JobState::Done {
                    state.completed.inc();
                }
            }
            Err(err) => {
                // A deadline that expired before the first evaluation is still
                // a timeout to the client, not an internal failure.
                let terminal = if matches!(err, ServiceError::TimedOut(_)) {
                    JobState::TimedOut
                } else {
                    JobState::Failed
                };
                *record.error.lock().expect("error lock") = Some(err.to_string());
                let name = if matches!(err, ServiceError::Panicked(_)) {
                    "panic"
                } else {
                    terminal.as_str()
                };
                job_event(name, err.to_string());
                finish(terminal);
            }
        }
        // Close the trace's root span: submission to terminal state, wrapping
        // the queue-wait and engine-stage children.
        close_job_span(
            &state.ops.spans,
            record.trace,
            &record.spec.id,
            record.state().as_str(),
            record.enqueued_at,
        );
        // Chaos hook: with a kill-after-k-jobs fault installed, the k-th
        // finished job is the last thing this process does — the journal line
        // above is already durable, which is exactly the crash point failover
        // tests care about.
        crate::fault::maybe_kill_after_job();
    }
}

/// Writes a job's status body (compact JSON) with `code`.
fn reply_status(stream: &mut TcpStream, code: u16, id: &str, record: &JobRecord) {
    let body = JobStatusBody {
        id: id.to_string(),
        trace: record.trace.to_hex(),
        status: record.state().as_str().to_string(),
        progress_done: record.progress_done.get(),
        progress_total: record.progress_total.get(),
    };
    match serde_json::to_string(&body) {
        Ok(json) => write_json(stream, code, &json),
        Err(_) => write_error(stream, 500, "serialisation failed"),
    }
}

impl Tier for ServiceState {
    #[rustfmt::skip]
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("POST", "/jobs",            "Submit a job: 202, or 429/503 busy", handle_submit),
        Route::new("GET",  "/jobs/:id",        "Job status and progress", handle_status),
        Route::new("GET",  "/jobs/:id/result", "The JobResult (409 until finished)", handle_result),
        Route::new("POST", "/jobs/:id/cancel", "Cooperative cancellation", handle_cancel),
        Route::new("GET",  "/metrics",         "Prometheus text exposition", handle_prometheus),
        Route::new("GET",  "/stats",           "Counters as JSON (MetricsBody)", handle_stats),
        Route::new("GET",  "/readyz",          "503 while draining or starting", handle_readyz),
    ];

    fn ops(&self) -> &Ops {
        &self.ops
    }

    fn intercept(&self, request: &Request) -> bool {
        // Chaos hooks: a "slow backend" delays every response by a fixed
        // amount, which is what exercises a router's hedged reads
        // deterministically; a blackholed probe endpoint accepts the
        // connection but never answers — the partition-like failure mode
        // (distinct from a dead process, whose connections are refused) that
        // probers must classify as Down.
        crate::fault::delay_response();
        crate::fault::probe_blackholed()
            && matches!(request.path.trim_end_matches('/'), "/healthz" | "/readyz")
    }
}

fn handle_readyz(state: &ServiceState, call: &mut Call<'_>) {
    // Readiness is liveness plus "safe to route jobs here": false before the
    // worker pool is up and from the moment draining starts.
    if state.draining.load(Ordering::SeqCst) {
        write_error(call.stream, 503, "draining")
    } else if state.ready.load(Ordering::SeqCst) {
        write_json(call.stream, 200, "{\"status\": \"ready\"}")
    } else {
        write_error(call.stream, 503, "worker pool not up yet")
    }
}

fn handle_submit(state: &ServiceState, call: &mut Call<'_>) {
    let stream = &mut *call.stream;
    if state.draining.load(Ordering::SeqCst) {
        write_error(stream, 503, "server is draining, not accepting jobs");
        return;
    }
    // Only the cheap shape checks run here: realising instances and mixers is
    // worker-thread work, and the accept loop must never block other clients
    // behind an O(2ⁿ) build.
    let spec = match parse_submission(call.request, &state.auto_id) {
        Ok(spec) => spec,
        Err(message) => return write_error(stream, 400, &message),
    };
    // The trace id: adopted from the router's header when present (the edge
    // assignment is authoritative), derived from the spec otherwise.  The
    // derivation builds the instance — graph generation and a hash, not the
    // O(2ⁿ) objective realisation, so it is accept-loop-safe.
    let trace = match &call.request.trace {
        Some(raw) => match TraceId::parse(raw) {
            Some(t) => t,
            None => {
                let message = format!("invalid {TRACE_HEADER} header {raw:?} (want 16 hex digits)");
                return write_error(stream, 400, &message);
            }
        },
        None => match spec.trace_id() {
            Ok(t) => t,
            Err(e) => return write_error(stream, 400, &format!("invalid job spec: {e}")),
        },
    };
    // Graceful degradation: when the job at the head of the queue has already
    // waited past the queue-wait deadline the server is overloaded — anything
    // accepted now would only be shed later, so reject up front with a
    // `Retry-After` hint instead.
    if let Some(limit_ms) = state.config.queue_wait_ms {
        let stale = state
            .queue
            .head_wait()
            .is_some_and(|w| w > Duration::from_millis(limit_ms));
        if stale {
            state.shed.inc();
            let detail =
                format!("rejected at submission: queue head waited more than {limit_ms} ms");
            event(&state.ops.spans, trace, "shed", &spec.id, detail);
            let retry_after = (limit_ms / 1000).max(1);
            let body = format!(
                "{{\"error\": \"queue is saturated (head waited > {limit_ms} ms), retry later\"}}"
            );
            let headers = [("Retry-After", retry_after.to_string())];
            write_body(stream, 503, "application/json", &headers, &body);
            return;
        }
    }
    let record = JobRecord::new(spec.clone(), trace);
    {
        let mut jobs = state.jobs.lock().expect("jobs lock");
        if jobs.records.contains_key(&spec.id) {
            drop(jobs);
            write_error(stream, 409, &format!("job id {:?} already exists", spec.id));
            return;
        }
        jobs.records.insert(spec.id.clone(), record.clone());
    }
    if !state.queue.try_push(record.clone()) {
        state
            .jobs
            .lock()
            .expect("jobs lock")
            .records
            .remove(&spec.id);
        state.rejected.inc();
        event(&state.ops.spans, trace, "reject", &spec.id, "queue full");
        write_error(stream, 429, "job queue is full, retry later");
        return;
    }
    state.submitted.inc();
    event(&state.ops.spans, trace, "submit", &spec.id, "");
    reply_status(stream, 202, &spec.id, &record);
}

fn lookup(state: &ServiceState, call: &mut Call<'_>) -> Option<Arc<JobRecord>> {
    let record = state
        .jobs
        .lock()
        .expect("jobs lock")
        .records
        .get(call.id)
        .cloned();
    if record.is_none() {
        let message = format!(
            "unknown job {:?}: serve keeps the last {RETAINED_TERMINAL_JOBS} finished jobs; \
             older results are in the --out journal",
            call.id
        );
        write_error(call.stream, 404, &message);
    }
    record
}

fn handle_status(state: &ServiceState, call: &mut Call<'_>) {
    if let Some(record) = lookup(state, call) {
        reply_status(call.stream, 200, call.id, &record);
    }
}

fn handle_result(state: &ServiceState, call: &mut Call<'_>) {
    let Some(record) = lookup(state, call) else {
        return;
    };
    let stream = &mut *call.stream;
    match record.state() {
        JobState::Done | JobState::Cancelled | JobState::TimedOut => {
            let result = record.result.lock().expect("result lock");
            match result.as_ref().map(serde_json::to_string) {
                // A timed-out job with partial progress still returns its
                // best-so-far result here (status field says `timed_out`).
                Some(Ok(json)) => write_json(stream, 200, &json),
                // Terminal without a result: cancelled while still queued, or
                // the deadline expired before the first evaluation finished.
                _ => {
                    let error = record.error.lock().expect("error lock");
                    let (status, fallback) = if record.state() == JobState::TimedOut {
                        (408, "job timed out before any progress")
                    } else {
                        (409, "job was cancelled before it ran")
                    };
                    write_error(stream, status, error.as_deref().unwrap_or(fallback));
                }
            }
        }
        JobState::Shed => {
            let error = record.error.lock().expect("error lock");
            write_error(
                stream,
                503,
                error
                    .as_deref()
                    .unwrap_or("job was shed by admission control; resubmit"),
            );
        }
        JobState::Failed => {
            let error = record.error.lock().expect("error lock");
            write_error(stream, 500, error.as_deref().unwrap_or("job failed"));
        }
        state => write_error(
            stream,
            409,
            &format!("job is {} — result not available yet", state.as_str()),
        ),
    }
}

fn handle_cancel(state: &ServiceState, call: &mut Call<'_>) {
    if let Some(record) = lookup(state, call) {
        record.cancel.store(true, Ordering::SeqCst);
        reply_status(call.stream, 200, call.id, &record);
    }
}

/// Per-state counts of every job the service still tracks:
/// `(running, done, cancelled, timed_out, failed)`.
fn job_state_counts(state: &ServiceState) -> (u64, u64, u64, u64, u64) {
    let mut running = 0u64;
    let mut done = 0u64;
    let mut cancelled = 0u64;
    let mut timed_out = 0u64;
    let mut failed = 0u64;
    let jobs = state.jobs.lock().expect("jobs lock");
    for record in jobs.records.values() {
        match record.state() {
            JobState::Running => running += 1,
            JobState::Done => done += 1,
            JobState::Cancelled => cancelled += 1,
            JobState::TimedOut => timed_out += 1,
            JobState::Failed => failed += 1,
            JobState::Queued | JobState::Shed => {}
        }
    }
    (running, done, cancelled, timed_out, failed)
}

fn handle_stats(state: &ServiceState, call: &mut Call<'_>) {
    let (running, done, cancelled, timed_out, failed) = job_state_counts(state);
    let body = MetricsBody {
        uptime_s: state.ops.started.elapsed().as_secs_f64(),
        jobs_submitted: state.submitted.get(),
        jobs_rejected: state.rejected.get(),
        queue_depth: state.queue.len() as u64,
        running,
        done,
        cancelled,
        timed_out,
        jobs_shed: state.shed.get(),
        failed,
        cached_instances: state.engine.cached_instances() as u64,
        engine: state.engine.stats(),
    };
    reply_json(call.stream, 200, &body);
}

/// Prometheus text exposition (format 0.0.4) of every counter the JSON
/// `GET /stats` body exposes, plus the per-job latency histograms and the
/// process-global kernel profiling counters.
fn handle_prometheus(state: &ServiceState, call: &mut Call<'_>) {
    let (running, done, cancelled, timed_out, failed) = job_state_counts(state);
    let mut w = PromWriter::new();

    w.gauge_f64(
        "uptime_seconds",
        "Seconds since the server started.",
        state.ops.started.elapsed().as_secs_f64(),
    );
    w.counter(
        "jobs_submitted",
        "Jobs accepted onto the queue since start.",
        state.submitted.get(),
    );
    w.counter(
        "jobs_completed",
        "Jobs that reached the terminal done state.",
        state.completed.get(),
    );
    w.counter(
        "jobs_rejected",
        "Submissions rejected because the queue was full.",
        state.rejected.get(),
    );
    w.counter(
        "jobs_shed",
        "Jobs shed by admission control (stale queued jobs plus saturated-queue rejections).",
        state.shed.get(),
    );
    w.gauge(
        "queue_depth",
        "Jobs currently waiting in the queue.",
        state.queue.len() as u64,
    );
    w.gauge("jobs_running", "Jobs currently executing.", running);
    w.gauge(
        "jobs_done",
        "Tracked jobs in the terminal done state.",
        done,
    );
    w.gauge(
        "jobs_cancelled",
        "Tracked jobs in the terminal cancelled state.",
        cancelled,
    );
    w.gauge(
        "jobs_timed_out",
        "Tracked jobs whose deadline expired mid-run.",
        timed_out,
    );
    w.gauge(
        "jobs_failed",
        "Tracked jobs in the terminal failed state.",
        failed,
    );
    w.gauge(
        "cached_instances",
        "Problem instances currently in the engine cache.",
        state.engine.cached_instances() as u64,
    );
    w.counter(
        "trace_spans_dropped",
        "Completed spans evicted from the bounded span collector.",
        state.ops.spans.dropped(),
    );

    state.engine.stats().expose(&mut w);
    kernels::snapshot().expose(&mut w);
    // Each latency histogram carries its last traced observation as an
    // exemplar comment line — a ready-made `GET /trace/:id` target next to the
    // latency it explains.  Comment lines are invisible to 0.0.4 parsers.
    state.engine.telemetry().expose(&mut w);

    write_body(call.stream, 200, encode::CONTENT_TYPE, &[], &w.finish());
}
