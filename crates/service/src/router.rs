//! Cluster route mode: the HTTP front-end that consistent-hashes jobs onto
//! backend `qaoa-service serve` processes.
//!
//! `qaoa-service route --backends a,b,c` runs one of these.  The router owns no
//! engine: it computes each submitted job's canonical `InstanceId` (cheap — the
//! instance is *realised*, never its exponential objective vector), places it on
//! the [`crate::cluster::HashRing`], and proxies the request to the owning
//! backend.  Keying by `InstanceId` rather than round-robin means every job on
//! the same instance lands on the same backend, so the per-shard engine caches
//! (instance pre-computations, prefix checkpoints, single-flight prep) keep
//! their hit rates as the cluster grows.
//!
//! Fault behaviour, all deterministic:
//!
//! * **Failover** — a transport error or backend 5xx re-routes the job to the
//!   next node in ring order, pacing re-attempts with the shared
//!   [`crate::retry::RetryPolicy`]'s seeded backoff (`delay(job id, attempt)`),
//!   so a chaos run's failover schedule replays byte-identically.  The router keeps each
//!   job's spec, so a backend that dies *after* accepting jobs is handled the
//!   same way: the next poll that finds the owner dead re-submits the spec to
//!   the successor (job results are pure functions of their specs, so re-running
//!   elsewhere yields identical bytes).  It keeps every job no read has yet seen
//!   finished, and the [`RETAINED_TERMINAL_JOBS`] most recently seen finished;
//!   an older id answers `404`.
//! * **Health** — a prober thread drives each backend's Up/Degraded/Down
//!   circuit breaker from periodic `/readyz` probes (see [`crate::cluster`]).
//! * **Reads** — a status or result poll goes to the job's owner alone, the one
//!   backend that holds the job; a slow owner is waited out up to the backend
//!   timeout, and only an unreachable one triggers failover.
//!
//! Router state is first-class observable: per-backend gauges, failover
//! counters and route-latency histograms on `GET /metrics`; `route_submit` and
//! `failover` spans under each job's trace, and `probe` spans plus
//! `backend_up`/`backend_degraded`/`backend_tripped` events under
//! [`OPS_TRACE`], in the same span ring serve mode uses (`GET /trace`,
//! `--trace-out`).
//!
//! Endpoints: the route table in this module's `Tier` impl (job submission,
//! proxied status, result and cancellation, `/metrics`, `/stats`, `/readyz`),
//! followed by the shared [`crate::ops`] entries; `GET /` lists them all.
//! `GET /trace/:id` merges the live backends' spans into the router's own.

use crate::cluster::{Cluster, ClusterConfig, HealthTransition};
use crate::http::{
    client_request, client_request_with_headers, write_body, write_error, write_json,
    ClientResponse,
};
use crate::ops::{self, parse_submission, reply_json, Call, Ops, OpsConfig, Route, Tier};
use crate::server::{JobStatusBody, RETAINED_TERMINAL_JOBS};
use crate::spans::{event, span_from_value, OPS_TRACE, TRACE_HEADER};
use crate::spec::derive_trace_id;
use juliqaoa_telemetry::{encode, PromWriter, Span, Stage, TraceId};
use serde::{Deserialize, Serialize, Value};
use std::collections::{HashMap, VecDeque};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Configuration for [`Router::bind`].
#[derive(Clone, Debug)]
pub struct RouterConfig {
    /// Listener, request limits and tracing (shared with `serve`).
    pub ops: OpsConfig,
    /// Ring membership, probing and failover pacing.
    pub cluster: ClusterConfig,
    /// Timeout for one proxied request to a backend, in milliseconds.
    pub backend_timeout_ms: u64,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            ops: OpsConfig::at("127.0.0.1:7979"),
            cluster: ClusterConfig::default(),
            backend_timeout_ms: 10_000,
        }
    }
}

/// What the router remembers about one routed job: enough to poll it and to
/// re-place it deterministically when its backend dies.
#[derive(Clone, Debug)]
struct RoutedJob {
    /// Ring key (the job's canonical instance hash).
    key: u64,
    /// Current owner (ring index).
    backend: usize,
    /// The exact spec body submitted, re-sent verbatim on failover.
    spec_body: String,
    /// The trace id assigned at routing time and propagated to the backend.
    trace: TraceId,
    /// Whether a proxied read has seen the job finished.
    finished: bool,
}

/// Every job route tracks: all jobs no read has yet seen finished, and the
/// [`RETAINED_TERMINAL_JOBS`] most recently seen finished.
#[derive(Default)]
struct RoutedJobs {
    jobs: HashMap<String, RoutedJob>,
    /// Ids of the jobs seen finished, oldest first.
    finished: VecDeque<String>,
}

impl RoutedJobs {
    /// Records that a read saw job `id` finished, and drops the oldest finished
    /// job beyond the retention limit.  Jobs not yet seen finished are never
    /// dropped, so failover keeps their spec bodies.
    fn retire(&mut self, id: &str) {
        match self.jobs.get_mut(id) {
            Some(job) if !job.finished => job.finished = true,
            _ => return,
        }
        self.finished.push_back(id.to_string());
        while self.finished.len() > RETAINED_TERMINAL_JOBS {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
            }
        }
    }
}

/// Per-backend entry in the `GET /stats` body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct BackendStatsBody {
    /// Backend address.
    pub addr: String,
    /// `up` / `degraded` / `down`.
    pub state: String,
    /// Consecutive failures recorded since the last success.
    pub consecutive_failures: u64,
    /// Times the circuit breaker tripped this backend.
    pub trips: u64,
}

/// The router's `GET /stats` body.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct RouterStatsBody {
    /// Seconds since the router started.
    pub uptime_s: f64,
    /// Jobs accepted and routed to a backend.
    pub jobs_routed: u64,
    /// Jobs re-routed to another backend after a failure.
    pub failovers: u64,
    /// Backends currently routable.
    pub backends_live: u64,
    /// Per-backend health.
    pub backends: Vec<BackendStatsBody>,
}

juliqaoa_telemetry::counter_set! {
    /// The router's own counters (per-backend ones live on each [`crate::cluster::Backend`]).
    pub struct RouterCounters;
    /// A snapshot of [`RouterCounters`].
    #[derive(Clone, Copy, Debug)]
    pub struct RouterCounts;
    jobs_routed: "cluster_jobs_routed", "Jobs accepted and placed on a backend.";
    failovers: "cluster_failovers_total", "Jobs re-routed to another backend after a failure.";
}

juliqaoa_telemetry::histogram_set! {
    /// The router's latency histograms.
    pub struct RouteLatency;
    route_submit_ms: "route_submit_ms",
        "Milliseconds to place a submission on a backend (failover included).";
    route_read_ms: "route_read_ms",
        "Milliseconds to answer a proxied status/result read (failover included).";
}

/// State shared by the accept loop, proxy threads and the prober.
struct RouterState {
    ops: Ops,
    cluster: Cluster,
    config: RouterConfig,
    jobs: Mutex<RoutedJobs>,
    auto_id: AtomicU64,
    counters: RouterCounters,
    latency: RouteLatency,
}

impl RouterState {
    fn backend_timeout(&self) -> Duration {
        Duration::from_millis(self.config.backend_timeout_ms.max(1))
    }

    /// Records a health transition returned by the cluster as an ops event.
    fn trace_transition(&self, transition: Option<HealthTransition>) {
        if let Some((name, detail)) = transition {
            event(&self.ops.spans, OPS_TRACE, name, "", detail);
        }
    }
}

/// A bound, not-yet-running router.
pub struct Router {
    listener: TcpListener,
    state: Arc<RouterState>,
}

impl Router {
    /// Binds the router's listener (no probing or serving until [`Router::run`]).
    pub fn bind(config: RouterConfig) -> std::io::Result<Router> {
        if config.cluster.backends.is_empty() {
            return Err(std::io::Error::other(
                "route mode needs at least one backend",
            ));
        }
        let (listener, ops) = Ops::bind(&config.ops)?;
        let state = Arc::new(RouterState {
            ops,
            cluster: Cluster::new(config.cluster.clone()),
            jobs: Mutex::default(),
            auto_id: AtomicU64::new(0),
            counters: RouterCounters::new(),
            latency: RouteLatency::default(),
            config,
        });
        // Record the boot topology in the trace: every backend starts assumed
        // Up, and a chaos run's journal should show what the ring looked like
        // before the first probe ever fired.
        for backend in state.cluster.backends() {
            let detail = format!("{} joined the ring", backend.addr);
            event(&state.ops.spans, OPS_TRACE, "backend_up", "", detail);
        }
        Ok(Router { listener, state })
    }

    /// The bound address (useful with a `:0` bind).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `POST /shutdown`.
    pub fn run(self) -> std::io::Result<()> {
        self.run_until(&AtomicBool::new(false))
    }

    /// [`Router::run`], but also stops when `stop` becomes true (SIGTERM hook).
    /// The prober stops as soon as the accept loop returns.
    pub fn run_until(self, stop: &AtomicBool) -> std::io::Result<()> {
        // Nothing is ever sent: dropping the sender stops the prober.
        let (stop_prober, prober_stop) = mpsc::channel::<()>();
        let prober = {
            let state = self.state.clone();
            std::thread::Builder::new()
                .name("qaoa-router-prober".into())
                .spawn(move || prober_loop(&state, &prober_stop))?
        };
        let served = ops::serve_until(&self.listener, &*self.state, stop);
        drop(stop_prober);
        let _ = prober.join();
        served
    }
}

/// Health-probe loop: one `/readyz` round per interval, circuit-breaker state
/// driven by the outcomes.  Down backends are only probed when their seeded
/// half-open cooldown has elapsed.  Returns once `stop`'s sender is dropped.
fn prober_loop(state: &RouterState, stop: &mpsc::Receiver<()>) {
    let interval = Duration::from_millis(state.cluster.config().probe_interval_ms.max(10));
    let timeout = Duration::from_millis(state.cluster.config().probe_timeout_ms.max(1));
    loop {
        for index in 0..state.cluster.backends().len() {
            if let Err(mpsc::TryRecvError::Disconnected) = stop.try_recv() {
                return;
            }
            if !state.cluster.should_probe(index) {
                continue;
            }
            let backend = state.cluster.backend(index);
            backend.probes.inc();
            let probe_started = Instant::now();
            let failure = match client_request(&backend.addr, "GET", "/readyz", None, timeout) {
                Ok(resp) if resp.status == 200 => None,
                Ok(resp) => Some(format!("readyz returned {}", resp.status)),
                Err(e) => Some(format!("probe failed: {e}")),
            };
            // Probe spans live under the fixed ops trace, not a job trace —
            // `GET /trace/<OPS_TRACE>` is the probe history.
            state.ops.spans.record_closed(
                OPS_TRACE,
                None,
                "probe",
                probe_started.elapsed().as_secs_f64() * 1e3,
                vec![
                    ("backend".to_string(), backend.addr.clone()),
                    ("ok".to_string(), failure.is_none().to_string()),
                ],
            );
            let transition = match failure {
                None => state.cluster.record_success(index),
                Some(why) => {
                    backend.probe_failures.inc();
                    state.cluster.record_failure(index, &why)
                }
            };
            state.trace_transition(transition);
        }
        // Wait out the interval on the stop channel: a stop ends the wait.
        if let Err(mpsc::RecvTimeoutError::Disconnected) = stop.recv_timeout(interval) {
            return;
        }
    }
}

impl Tier for RouterState {
    #[rustfmt::skip]
    const ROUTES: &'static [Route<Self>] = &[
        Route::new("POST", "/jobs",            "Place a job on its ring owner", handle_submit),
        Route::new("GET",  "/jobs/:id",        "Status from the owner", handle_read),
        Route::new("GET",  "/jobs/:id/result", "The JobResult from the owner", handle_read),
        Route::new("POST", "/jobs/:id/cancel", "Cancellation, sent to the owner", handle_cancel),
        Route::new("GET",  "/metrics",         "Prometheus text exposition", handle_prometheus),
        Route::new("GET",  "/stats",           "Counters as JSON (RouterStatsBody)", handle_stats),
        Route::new("GET",  "/readyz",          "503 while no backend is live", handle_readyz),
    ];

    fn ops(&self) -> &Ops {
        &self.ops
    }

    /// The live backends' spans of `trace`; an unreachable backend degrades
    /// the tree (its spans are simply absent) rather than failing the request.
    /// Open circuits are skipped: the router serves one connection at a time,
    /// so waiting out a wedged backend's timeout would stall every client.
    fn remote_spans(&self, trace: TraceId) -> Vec<Span> {
        let path = format!("/trace/{}", trace.to_hex());
        let mut spans = Vec::new();
        for backend in self.cluster.backends().iter().filter(|b| b.is_live()) {
            let Ok(resp) =
                client_request(&backend.addr, "GET", &path, None, self.backend_timeout())
            else {
                continue;
            };
            let Ok(body) = serde_json::from_str::<Value>(&resp.body) else {
                continue;
            };
            if let Some(remote) = body.get_field("spans").and_then(Value::as_array) {
                spans.extend(remote.iter().filter_map(span_from_value));
            }
        }
        spans
    }
}

fn handle_readyz(state: &RouterState, call: &mut Call<'_>) {
    // The router is ready exactly when it can place a job somewhere.
    if state.cluster.live_count() > 0 {
        write_json(call.stream, 200, "{\"status\": \"ready\"}")
    } else {
        write_error(call.stream, 503, "no live backend")
    }
}

/// Posts a job's spec to the backends of `order` in turn until one answers
/// with `accepted`, returning that backend's index, its response and the
/// number of failed attempts before it.  Every outcome feeds the backend's
/// circuit breaker.
fn place(
    state: &RouterState,
    id: &str,
    trace: TraceId,
    body: &str,
    order: &[usize],
    accepted: fn(&ClientResponse) -> bool,
) -> Result<(usize, ClientResponse, u32), String> {
    let mut attempt = 0u32;
    let mut last_error = String::from("no other backend");
    for (position, &index) in order.iter().enumerate() {
        let backend = state.cluster.backend(index);
        // Skip open circuits, but never skip the last candidate: with every
        // breaker open the request must still be *tried* somewhere, otherwise a
        // transient all-down blip turns into guaranteed rejection.
        if !backend.is_live() && position + 1 < order.len() {
            continue;
        }
        if attempt > 0 {
            // Seeded failover pacing: the schedule is a pure function of
            // (retry seed, job id, attempt), so chaos runs replay exactly.
            // lint:allow(R9, seeded failover backoff between attempts on a failing backend)
            std::thread::sleep(state.cluster.config().retry.delay(id, attempt - 1));
        }
        // Propagate the trace id so the backend adopts it instead of
        // re-deriving — the routed edge and the executing edge share one trace.
        match client_request_with_headers(
            &backend.addr,
            "POST",
            "/jobs",
            &[(TRACE_HEADER, trace.to_hex())],
            Some(body),
            state.backend_timeout(),
        ) {
            Ok(resp) if accepted(&resp) => {
                state.trace_transition(state.cluster.record_success(index));
                return Ok((index, resp, attempt));
            }
            Ok(resp) => last_error = format!("{} returned {}", backend.addr, resp.status),
            Err(e) => last_error = format!("{}: {e}", backend.addr),
        }
        state.trace_transition(state.cluster.record_failure(index, &last_error));
        attempt += 1;
    }
    Err(last_error)
}

/// Submits a spec to its ring placement, walking the deterministic failover
/// order on backend errors.  Returns the winning backend index, its response
/// and the number of attempts.
fn submit_with_failover(
    state: &RouterState,
    job_id: &str,
    key: u64,
    trace: TraceId,
    body: &str,
) -> Result<(usize, ClientResponse, u32), String> {
    let candidates = state.cluster.candidates(key);
    // Below 500 the backend answered for the job: 2xx accepted it, and 409
    // means it already holds it (a retransmit after a half-failed earlier
    // attempt); other 4xx go back to the client as they are.
    let (index, resp, failed) = place(state, job_id, trace, body, &candidates, |r| r.status < 500)?;
    if failed > 0 {
        state.counters.failovers.inc();
        let addr = &state.cluster.backend(index).addr;
        let detail = format!("submitted to {addr} after {failed} failed attempt(s)");
        event(&state.ops.spans, trace, "failover", job_id, detail);
    }
    Ok((index, resp, failed + 1))
}

fn handle_submit(state: &RouterState, call: &mut Call<'_>) {
    // The submit stage spans the whole placement: its histogram and its
    // `route_submit` span measure the same interval, success or failure.
    let submit = Stage::start(&state.latency.route_submit_ms);
    let stream = &mut *call.stream;
    // The same submission checks serve mode runs: reject bad specs at the
    // router without spending a backend round-trip on them.
    let spec = match parse_submission(call.request, &state.auto_id) {
        Ok(spec) => spec,
        Err(message) => return write_error(stream, 400, &message),
    };
    if state
        .jobs
        .lock()
        .expect("router jobs lock")
        .jobs
        .contains_key(&spec.id)
    {
        write_error(stream, 409, &format!("job id {:?} already exists", spec.id));
        return;
    }
    // Routing key: the canonical instance fingerprint.  Realising the instance
    // is poly(n) (graph/clause construction — the exponential objective vector
    // is the *backend's* cached work), cheap enough for the routing path, and it
    // is exactly the backend's cache key, which is what buys cache affinity.
    let key = match spec.problem.build() {
        Ok(built) => built.instance_id.raw(),
        Err(e) => {
            write_error(stream, 400, &format!("invalid job spec: {e}"));
            return;
        }
    };
    // The trace id is a pure function of the spec, assigned here at the edge
    // and propagated to the backend via the trace header — both tiers (and a
    // batch run of the same spec) agree on it without coordination.
    let trace = derive_trace_id(key, &spec);
    let spec_body = match serde_json::to_string(&spec) {
        Ok(json) => json,
        Err(_) => {
            write_error(stream, 500, "serialisation failed");
            return;
        }
    };
    let spans = Some(&*state.ops.spans);
    match submit_with_failover(state, &spec.id, key, trace, &spec_body) {
        Ok((index, resp, attempts)) => {
            if resp.is_success() || resp.status == 409 {
                state.jobs.lock().expect("router jobs lock").jobs.insert(
                    spec.id.clone(),
                    RoutedJob {
                        key,
                        backend: index,
                        spec_body,
                        trace,
                        finished: false,
                    },
                );
                state.counters.jobs_routed.inc();
            }
            let attrs = [
                ("job", spec.id.as_str()),
                ("backend", &state.cluster.backend(index).addr),
                ("attempts", &attempts.to_string()),
            ];
            submit.finish_span(trace, spans, "route_submit", &attrs);
            write_json(stream, resp.status, &resp.body);
        }
        Err(why) => {
            let attrs = [("job", spec.id.as_str()), ("error", &why)];
            submit.finish_span(trace, spans, "route_submit", &attrs);
            write_error(
                stream,
                503,
                &format!("no live backend accepted the job ({why})"),
            );
        }
    }
}

/// Re-places a job whose owner failed: walks the ring order after the dead
/// owner, re-submits the stored spec, updates the mapping.  Deterministic given
/// the same health states — placement from the ring, pacing from the seeded
/// retry policy.
fn failover_job(state: &RouterState, id: &str) -> Result<usize, String> {
    let started = Instant::now();
    let job = state
        .jobs
        .lock()
        .expect("router jobs lock")
        .jobs
        .get(id)
        .cloned()
        .ok_or_else(|| format!("unknown job {id:?}"))?;
    let candidates = state.cluster.candidates(job.key);
    let dead = job.backend;
    let start = candidates.iter().position(|&b| b == dead).unwrap_or(0);
    let order: Vec<usize> = (1..candidates.len())
        .map(|offset| candidates[(start + offset) % candidates.len()])
        .collect();
    let (index, _, _) = place(state, id, job.trace, &job.spec_body, &order, |r| {
        r.is_success() || r.status == 409
    })?;
    if let Some(entry) = state
        .jobs
        .lock()
        .expect("router jobs lock")
        .jobs
        .get_mut(id)
    {
        entry.backend = index;
    }
    state.counters.failovers.inc();
    state.ops.spans.record_closed(
        job.trace,
        Some(job.trace.root_span()),
        "failover",
        started.elapsed().as_secs_f64() * 1e3,
        vec![
            ("job".to_string(), id.to_string()),
            ("from".to_string(), state.cluster.backend(dead).addr.clone()),
            (
                "backend".to_string(),
                state.cluster.backend(index).addr.clone(),
            ),
        ],
    );
    Ok(index)
}

/// The job's current owner and trace id; a `404` for an unknown job.
fn lookup(state: &RouterState, call: &mut Call<'_>) -> Option<(usize, TraceId)> {
    let owner = state
        .jobs
        .lock()
        .expect("router jobs lock")
        .jobs
        .get(call.id)
        .map(|job| (job.backend, job.trace));
    if owner.is_none() {
        let message = format!(
            "unknown job {:?}: route keeps the last {RETAINED_TERMINAL_JOBS} finished jobs; \
             older results are in the backends' --out journals",
            call.id
        );
        write_error(call.stream, 404, &message);
    }
    owner
}

/// Forwards a proxied read's response, first retiring the job when the read
/// shows it finished: a result read that found one, or a status read with a
/// terminal state.
fn reply_read(
    state: &RouterState,
    id: &str,
    path: &str,
    stream: &mut TcpStream,
    resp: ClientResponse,
) {
    let finished = resp.status == 200
        && (path.ends_with("/result")
            || serde_json::from_str::<JobStatusBody>(&resp.body).is_ok_and(|body| {
                matches!(
                    body.status.as_str(),
                    "done" | "cancelled" | "timed_out" | "shed" | "failed"
                )
            }));
    if finished {
        state.jobs.lock().expect("router jobs lock").retire(id);
    }
    write_json(stream, resp.status, &resp.body);
}

/// A status or result read, proxied to the job's owner on the same path.
fn handle_read(state: &RouterState, call: &mut Call<'_>) {
    let read = Stage::start(&state.latency.route_read_ms);
    let Some((owner, trace)) = lookup(state, call) else {
        return;
    };
    let path = call.request.path.trim_end_matches('/');
    let (id, stream) = (call.id, &mut *call.stream);
    let addr = &state.cluster.backend(owner).addr;
    match client_request(addr, "GET", path, None, state.backend_timeout()) {
        Ok(resp) => {
            state.trace_transition(state.cluster.record_success(owner));
            read.finish(trace);
            reply_read(state, id, path, stream, resp);
        }
        Err(e) => {
            // The owner is unreachable: deterministic failover.  The job's spec
            // is re-submitted to the ring successor and the read retried there,
            // so the client sees a fresh `queued` status, never a 5xx, while
            // the job silently re-runs elsewhere.
            state.trace_transition(
                state
                    .cluster
                    .record_failure(owner, &format!("read failed: {e}")),
            );
            match failover_job(state, id) {
                Ok(new_owner) => {
                    let addr = state.cluster.backend(new_owner).addr.clone();
                    let outcome = client_request(&addr, "GET", path, None, state.backend_timeout());
                    read.finish(trace);
                    match outcome {
                        Ok(resp) => reply_read(state, id, path, stream, resp),
                        Err(e) => write_error(
                            stream,
                            503,
                            &format!("job re-routed but new owner unreachable: {e}"),
                        ),
                    }
                }
                Err(why) => {
                    read.finish(trace);
                    write_error(
                        stream,
                        503,
                        &format!("owner unreachable, failover failed: {why}"),
                    );
                }
            }
        }
    }
}

fn handle_cancel(state: &RouterState, call: &mut Call<'_>) {
    let Some((owner, _)) = lookup(state, call) else {
        return;
    };
    let stream = &mut *call.stream;
    let addr = state.cluster.backend(owner).addr.clone();
    match client_request(
        &addr,
        "POST",
        call.request.path.trim_end_matches('/'),
        Some(""),
        state.backend_timeout(),
    ) {
        Ok(resp) => write_json(stream, resp.status, &resp.body),
        Err(e) => write_error(stream, 503, &format!("owner unreachable: {e}")),
    }
}

fn backend_label(addr: &str) -> String {
    format!("backend=\"{addr}\"")
}

fn handle_prometheus(state: &RouterState, call: &mut Call<'_>) {
    let mut w = PromWriter::new();
    w.gauge_f64(
        "router_uptime_seconds",
        "Seconds since the router started.",
        state.ops.started.elapsed().as_secs_f64(),
    );
    w.gauge(
        "cluster_backends",
        "Backends configured on the hash ring.",
        state.cluster.backends().len() as u64,
    );
    w.gauge(
        "cluster_backends_live",
        "Backends currently routable (circuit closed).",
        state.cluster.live_count() as u64,
    );
    state.counters.snapshot().expose(&mut w);

    let backends = state.cluster.backends();
    let up: Vec<(String, u64)> = backends
        .iter()
        .map(|b| (backend_label(&b.addr), u64::from(b.is_live())))
        .collect();
    w.gauge_family(
        "cluster_backend_up",
        "Whether each backend's circuit is closed (1) or open (0).",
        &up,
    );
    let failures: Vec<(String, u64)> = backends
        .iter()
        .map(|b| (backend_label(&b.addr), b.consecutive_failures() as u64))
        .collect();
    w.gauge_family(
        "cluster_backend_consecutive_failures",
        "Consecutive failures recorded against each backend since its last success.",
        &failures,
    );
    let probes: Vec<(String, u64)> = backends
        .iter()
        .map(|b| (backend_label(&b.addr), b.probes.get()))
        .collect();
    w.counter_family(
        "cluster_probes_total",
        "Health probes sent per backend.",
        &probes,
    );
    let probe_failures: Vec<(String, u64)> = backends
        .iter()
        .map(|b| (backend_label(&b.addr), b.probe_failures.get()))
        .collect();
    w.counter_family(
        "cluster_probe_failures_total",
        "Failed health probes per backend.",
        &probe_failures,
    );
    let trips: Vec<(String, u64)> = backends
        .iter()
        .map(|b| (backend_label(&b.addr), b.trips_total.get()))
        .collect();
    w.counter_family(
        "cluster_backend_trips_total",
        "Circuit-breaker trips per backend.",
        &trips,
    );
    w.counter(
        "trace_spans_dropped",
        "Completed spans evicted from the bounded span collector.",
        state.ops.spans.dropped(),
    );
    state.latency.expose(&mut w);
    write_body(call.stream, 200, encode::CONTENT_TYPE, &[], &w.finish());
}

fn handle_stats(state: &RouterState, call: &mut Call<'_>) {
    let backends = state
        .cluster
        .backends()
        .iter()
        .map(|b| BackendStatsBody {
            addr: b.addr.clone(),
            state: b.state().as_str().to_string(),
            consecutive_failures: b.consecutive_failures() as u64,
            trips: b.trips_total.get(),
        })
        .collect();
    let counts = state.counters.snapshot();
    let body = RouterStatsBody {
        uptime_s: state.ops.started.elapsed().as_secs_f64(),
        jobs_routed: counts.jobs_routed,
        failovers: counts.failovers,
        backends_live: state.cluster.live_count() as u64,
        backends,
    };
    reply_json(call.stream, 200, &body);
}
