//! `qaoa-service`: batched QAOA job execution as a reusable subsystem.
//!
//! The figure binaries in `juliqaoa-bench` are one-shot: build a problem, find angles,
//! print a table.  This crate turns the same fast kernels into a *service* with three
//! front-ends over one shared engine:
//!
//! * **Batch mode** ([`batch`]) — read a JSON job file ([`spec::JobFile`]), execute the
//!   jobs with sharded rayon parallelism, append one JSONL [`spec::JobResult`] line per
//!   job, and resume after interruption by skipping jobs whose `"done"` line already
//!   exists.
//! * **Serve mode** ([`server`]) — a hand-rolled HTTP/1.1 JSON API for job submission,
//!   status, results and cancellation, with a bounded work queue, a worker pool,
//!   per-job progress reporting and cooperative cancellation.
//! * **Route mode** ([`router`]) — a cluster front-end that consistent-hashes jobs by
//!   `InstanceId` onto backend serve processes ([`cluster`]), with health-checked
//!   circuit breakers, deterministic seeded failover and optional hedged reads.
//!
//! Serve and route are thin users of one ops layer ([`ops`]): a shared accept loop,
//! and a route table per tier, declared beside the handlers, that drives dispatch
//! and the `GET /` endpoint index.  Everything is observable first-class:
//! `GET /metrics` serves Prometheus text exposition (counters, kernel profiling
//! counters and per-stage latency histograms from [`engine::EngineTelemetry`]), each
//! [`spec::JobResult`] carries a [`spec::JobTimings`] breakdown, and one bounded span
//! ring — stage spans plus lifecycle events as zero-duration spans — is served at
//! `GET /trace` and `GET /trace/:id` (optionally mirrored to a JSONL file via
//! `--trace-out`, in batch mode too).
//!
//! Both front-ends share one fault-tolerance layer: cooperative per-job deadlines
//! ([`spec::JobSpec::timeout_ms`]), deterministic retry with seeded backoff
//! ([`retry`]), a checksummed crash-safe result journal with torn-tail recovery
//! ([`journal`]), and a seeded fault-injection harness ([`fault`]) that makes all of
//! it testable to the byte.
//!
//! The [`engine`] underneath caches instance pre-computations — the objective-value
//! vector and its `PhaseClasses` compression, keyed by the canonical
//! `juliqaoa_problems::InstanceId` — in an LRU ([`lru`]), so repeated jobs on the same
//! instance compile the objective once and share it.  Job results are pure functions
//! of their specs (problem, mixer, `p`, optimizer, seed): the same spec returns a
//! bit-identical result at any thread count, cache state or submission order.

pub mod batch;
pub mod cluster;
pub mod engine;
pub mod fault;
pub mod http;
pub mod journal;
pub mod lru;
pub mod ops;
pub mod retry;
pub mod router;
pub mod server;
pub mod spans;
pub mod spec;

pub use batch::{
    completed_ids, load_job_file, run_batch, run_batch_sharded, run_batch_with, BatchOptions,
    BatchSummary,
};
pub use cluster::{Backend, BackendState, Cluster, ClusterConfig, HashRing};
pub use engine::{
    Engine, EngineStats, EngineTelemetry, PreparedObjective, ServiceError, DEFAULT_CACHE_CAPACITY,
};
pub use fault::{FaultPlan, PanicFault, WriteFault};
pub use journal::{FsyncPolicy, Journal, LineCheck, RecoveryReport};
pub use lru::LruCache;
pub use ops::OpsConfig;
pub use retry::RetryPolicy;
pub use router::{Router, RouterConfig, RouterStatsBody};
pub use server::{JobStatusBody, MetricsBody, Server, ServerConfig, RETAINED_TERMINAL_JOBS};
pub use spans::{DEFAULT_TRACE_CAPACITY, TRACE_HEADER, TRACE_PARENT_ENV};
pub use spec::{
    derive_trace_id, BuiltProblem, EstimatorSpec, JobFile, JobResult, JobSpec, JobTimings,
    MixerSpec, OptimizerSpec, ProblemSpec, SampleReport, SamplingSpec, MAX_QUBITS, MAX_SHOTS,
};
