//! Batch execution: run a job file with sharded rayon parallelism, append results to
//! a crash-safe JSONL journal, and resume after interruption.
//!
//! Results are written one JSON object per line as jobs finish, each line checksummed
//! and flushed through the [`crate::journal`] — killing the process mid-batch loses at
//! most in-flight jobs.  Resuming first *recovers* the journal (truncating any torn
//! trailing line a kill left behind, so the next append cannot glue onto a fragment),
//! then collects the ids of `"done"` lines and skips those jobs; everything else
//! (including jobs that were mid-flight, previously cancelled, timed out or failed)
//! runs again.  Per-job results are pure functions of the spec, so a resumed batch
//! produces the same set of result lines as an uninterrupted one, just possibly in a
//! different order.
//!
//! Transient failures — a panicked job attempt, an I/O error on the journal — are
//! re-attempted under the batch's [`RetryPolicy`] with deterministic backoff; jobs
//! whose spec carries a `timeout_ms` run under a cooperative deadline and report
//! `"timed_out"` with their partial best when it expires.
//!
//! Parallelism is the same outer-loop pattern as the angle-finding drivers: jobs fan
//! out across worker threads, each worker holds the `enter_outer_parallelism` guard so
//! per-job inner kernels (and the optimizer drivers' own candidate loops) stay serial
//! instead of nesting fan-outs.

use crate::engine::{Engine, ServiceError};
use crate::journal::{self, FsyncPolicy, Journal, LineCheck};
use crate::retry::RetryPolicy;
use crate::spans::{
    close_job_span, format_trace_parent, parse_trace_parent, trace_collector,
    DEFAULT_TRACE_CAPACITY, TRACE_PARENT_ENV,
};
use crate::spec::{JobFile, JobSpec};
use juliqaoa_combinatorics::seeding::fold_bits;
use juliqaoa_linalg::enter_outer_parallelism;
use juliqaoa_optim::RunControl;
use juliqaoa_telemetry::{Span, SpanCollector, SpanId, TraceId};
use rayon::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::collections::HashSet;
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Summary of a batch run.
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
pub struct BatchSummary {
    /// Jobs in the spec file.
    pub total: usize,
    /// Jobs executed this run.
    pub executed: usize,
    /// Jobs skipped because a `"done"` result already existed (resume).
    pub skipped: usize,
    /// Jobs that failed with an error.
    pub failed: usize,
    /// Wall-clock seconds spent executing.
    pub elapsed_s: f64,
    /// Executed jobs per second (0 when nothing ran).
    pub jobs_per_sec: f64,
}

/// Loads a job file: either `{"jobs": [...]}` or a bare JSON array of specs.
///
/// The first non-blank character picks the form, so a parse error is the error of
/// the form the text takes (an unknown optimizer kind, say), never the other
/// form's complaint about the top-level shape.
pub fn load_job_file(path: impl AsRef<Path>) -> Result<Vec<JobSpec>, ServiceError> {
    let path = path.as_ref();
    let text = std::fs::read_to_string(path)
        .map_err(|e| ServiceError::Io(format!("reading {}: {e}", path.display())))?;
    let parsed = if text.trim_start().starts_with('[') {
        serde_json::from_str::<Vec<JobSpec>>(&text)
    } else {
        serde_json::from_str::<JobFile>(&text).map(|file| file.jobs)
    };
    let jobs = parsed.map_err(|e| ServiceError::Io(format!("parsing {}: {e}", path.display())))?;
    let mut seen = HashSet::new();
    for job in &jobs {
        if !seen.insert(job.id.as_str()) {
            return Err(ServiceError::Spec(format!(
                "duplicate job id {:?} in {}",
                job.id,
                path.display()
            )));
        }
    }
    Ok(jobs)
}

/// Ids of jobs with a `"done"` result line in an existing JSONL output file.
///
/// Tolerant of interruption artefacts: unparsable lines (e.g. a half-written final
/// line from a killed process) are ignored, as are non-`done` lines and lines whose
/// journal checksum fails — those jobs simply run again.
pub fn completed_ids(out_path: impl AsRef<Path>) -> HashSet<String> {
    let mut done = HashSet::new();
    let Ok(file) = File::open(out_path.as_ref()) else {
        return done;
    };
    for line in BufReader::new(file).lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        // A checksummed line that fails verification was torn or altered; its
        // `"done"` cannot be trusted, so the job reruns.
        if journal::verify_line(line.trim_end_matches('\r')) == LineCheck::Corrupt {
            continue;
        }
        let Ok(v) = serde_json::from_str::<Value>(&line) else {
            continue;
        };
        let id = v.get_field("id").and_then(Value::as_str);
        let status = v.get_field("status").and_then(Value::as_str);
        if let (Some(id), Some("done")) = (id, status) {
            done.insert(id.to_string());
        }
    }
    done
}

/// A failed job's JSONL line (parallel shape to `JobResult`, status `"failed"`).
#[derive(Clone, Debug, Serialize, Deserialize, PartialEq)]
struct FailedLine {
    id: String,
    status: String,
    error: String,
}

/// Knobs for one batch run beyond the job list itself.
#[derive(Clone, Debug, Default)]
pub struct BatchOptions {
    /// Skip jobs whose `"done"` line already exists in the output (and recover the
    /// journal's tail before appending).
    pub resume: bool,
    /// How hard each result line is pushed toward the disk.
    pub fsync: FsyncPolicy,
    /// Retry policy for transient failures — panicked job attempts and journal
    /// write errors.  Off by default.
    pub retry: RetryPolicy,
    /// Optional JSONL file every completed span is appended to (`--trace-out`):
    /// per-job root spans, the engine's per-stage children and, in sharded
    /// mode, the batch/shard supervision spans.
    pub trace_path: Option<std::path::PathBuf>,
}

/// Runs `jobs` against `engine`, appending one JSONL line per job to `out_path`.
///
/// With `resume`, jobs whose `"done"` line already exists in `out_path` are skipped.
/// Shorthand for [`run_batch_with`] at the default fsync/retry options.
pub fn run_batch(
    engine: &Engine,
    jobs: &[JobSpec],
    out_path: impl AsRef<Path>,
    resume: bool,
) -> Result<BatchSummary, ServiceError> {
    run_batch_with(
        engine,
        jobs,
        out_path,
        &BatchOptions {
            resume,
            ..Default::default()
        },
    )
}

/// The span collector a batch run records into — per-job root spans and the
/// engine's per-stage children — mirrored to `--trace-out` when set.
fn batch_span_collector(trace_path: Option<&Path>) -> Result<Arc<SpanCollector>, ServiceError> {
    trace_collector(trace_path, DEFAULT_TRACE_CAPACITY)
        .map_err(|e| ServiceError::Io(format!("creating trace file: {e}")))
}

/// [`run_batch`] with explicit fault-tolerance options.
pub fn run_batch_with(
    engine: &Engine,
    jobs: &[JobSpec],
    out_path: impl AsRef<Path>,
    opts: &BatchOptions,
) -> Result<BatchSummary, ServiceError> {
    let out_path = out_path.as_ref();
    let spans = batch_span_collector(opts.trace_path.as_deref())?;
    engine.set_span_collector(spans.clone());
    let already_done = if opts.resume {
        // Recover before reading *or* appending: a torn trailing line from a killed
        // run is truncated away here, so it can neither shadow a job id nor have
        // this run's first result glued onto it.
        journal::recover(out_path)?;
        completed_ids(out_path)
    } else {
        HashSet::new()
    };
    let pending: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| !already_done.contains(&j.id))
        .collect();
    let skipped = jobs.len() - pending.len();

    let journal = Journal::open(out_path, opts.fsync)?;
    // Appends ride the same retry policy as job execution: an injected (or real)
    // write error re-attempts with deterministic backoff instead of silently
    // dropping a computed result.  Returns whether the line finally landed.
    let append_with_retry = |key: &str, line: &str| -> bool {
        let mut attempt = 0;
        loop {
            match journal.append(line) {
                Ok(()) => return true,
                Err(e) if attempt < opts.retry.max_retries => {
                    engine.record_retry();
                    eprintln!("batch: append for {key} failed ({e}); retrying");
                    std::thread::sleep(opts.retry.delay(key, attempt));
                    attempt += 1;
                }
                Err(e) => {
                    eprintln!("batch: dropping result line for {key}: {e}");
                    return false;
                }
            }
        }
    };

    let started = Instant::now();
    let failures: usize = pending
        .par_iter()
        .map_init(
            // Workers hold the guard: job-internal loops stay serial (see module docs).
            enter_outer_parallelism,
            |_guard, spec| {
                let job_started = Instant::now();
                // Per-job deadline from the spec, enforced cooperatively inside the
                // optimizer drivers.  The deadline also bounds retries: a transient
                // failure is never re-attempted into a dead deadline.
                let mut control = RunControl::new();
                if let Some(ms) = spec.timeout_ms {
                    control = control.deadline_in(Duration::from_millis(ms));
                }
                // The job's trace id, derived once: the engine's stage spans and
                // the root span below share it.  A spec whose instance cannot be
                // realised has none — its structured failure line is the record.
                let trace = spec.trace_id().ok();
                if let Some(trace) = trace {
                    control = control.with_trace(trace);
                }
                // Panic-isolated execution, as in the serve-mode worker pool: a
                // panicking job becomes a structured "failed" line (after the
                // policy's retries) instead of unwinding into rayon and aborting
                // the whole batch.
                let run = engine.run_job_with_retry(spec, &control, &opts.retry, |_, _| {});
                let (outcome, status) = match run {
                    Ok(result) => {
                        let status = result.status.clone();
                        match serde_json::to_string(&result) {
                            Ok(line) if append_with_retry(&spec.id, &line) => (0usize, status),
                            // A result that could not be recorded is a failure for
                            // resume purposes: the job must run again.
                            _ => (1usize, status),
                        }
                    }
                    Err(err) => {
                        let line = FailedLine {
                            id: spec.id.clone(),
                            status: "failed".into(),
                            error: err.to_string(),
                        };
                        if let Ok(line) = serde_json::to_string(&line) {
                            let _ = append_with_retry(&spec.id, &line);
                        }
                        (1usize, "failed".to_string())
                    }
                };
                if let Some(trace) = trace {
                    close_job_span(&spans, trace, &spec.id, &status, job_started);
                }
                // Process-level chaos hook: an installed kill-after-k-jobs fault
                // aborts this batch process here, after the k-th journalled job —
                // exactly the crash window shard supervision must survive.
                crate::fault::maybe_kill_after_job();
                outcome
            },
        )
        .sum();

    let elapsed = started.elapsed().as_secs_f64();
    let executed = pending.len();
    // When a sharded parent spawned this process it passed its own trace
    // identity in the environment; close a shard-level span under it, so the
    // parent's merged journal shows this child's whole run as one segment.
    if let Some((trace, parent)) = std::env::var(TRACE_PARENT_ENV)
        .ok()
        .as_deref()
        .and_then(parse_trace_parent)
    {
        spans.record_closed(
            trace,
            Some(parent),
            "batch_shard",
            elapsed * 1e3,
            vec![
                ("executed".to_string(), executed.to_string()),
                ("failed".to_string(), failures.to_string()),
            ],
        );
    }
    Ok(BatchSummary {
        total: jobs.len(),
        executed,
        skipped,
        failed: failures,
        elapsed_s: elapsed,
        jobs_per_sec: if elapsed > 0.0 {
            executed as f64 / elapsed
        } else {
            0.0
        },
    })
}

/// Bounded crash-loop restarts per shard child before giving up on it.
const MAX_SHARD_RESTARTS: usize = 5;

/// One shard child process and everything needed to restart it.
struct ShardChild {
    shard: usize,
    job_path: std::path::PathBuf,
    out_path: std::path::PathBuf,
    child: std::process::Child,
    restarts: usize,
    /// The `"<trace>:<span>"` value handed to the child via the environment.
    trace_parent: String,
    /// The child's own `--trace-out` journal, when the parent has one.
    trace_out: Option<std::path::PathBuf>,
    /// This shard's span id under the batch root (stable across restarts).
    span: SpanId,
    started: Instant,
}

/// Spawns one shard's `qaoa-service batch` child.  Children inherit the
/// environment, so an installed `JULIQAOA_FAULT_PLAN` applies to them — which is
/// exactly how the chaos suite kills a shard mid-batch.
fn spawn_shard(
    exe: &Path,
    job_path: &Path,
    out_path: &Path,
    opts: &BatchOptions,
    cache: usize,
    trace_parent: Option<&str>,
    trace_out: Option<&Path>,
) -> Result<std::process::Child, ServiceError> {
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("batch")
        .arg(job_path)
        .arg("--out")
        .arg(out_path)
        .arg("--cache")
        .arg(cache.to_string())
        .arg("--retries")
        .arg(opts.retry.max_retries.to_string())
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null());
    if opts.fsync == FsyncPolicy::EveryLine {
        cmd.arg("--fsync").arg("every-line");
    }
    // Cross-process trace propagation: the child parents its shard-level span
    // under the batch trace carried by this variable.
    if let Some(parent) = trace_parent {
        cmd.env(TRACE_PARENT_ENV, parent);
    }
    if let Some(path) = trace_out {
        cmd.arg("--trace-out").arg(path);
    }
    cmd.spawn()
        .map_err(|e| ServiceError::Io(format!("spawning shard child {}: {e}", exe.display())))
}

/// Runs a batch fanned out across `shards` child processes of `exe` (the
/// `qaoa-service` binary itself), merging their crash-safe journals into
/// `out_path`.
///
/// Jobs are partitioned by their canonical instance fingerprint
/// (`InstanceId % shards`), the same affinity rule the cluster router's hash
/// ring uses, so every job touching one instance lands in one child and the
/// per-process caches keep their hit rates.  Each child appends to its own
/// checksummed journal; a child that *crashes* (exit by signal/abort — a
/// completed run with failed jobs exits with code 1 and is not restarted) is
/// restarted up to `MAX_SHARD_RESTARTS` times and resumes from its own
/// journal, re-running only jobs without a `"done"` line.  After all children
/// settle, shard journals are recovered (torn tails truncated), verified line
/// by line, stripped of framing and re-appended to the merged journal — FNV
/// framing is deterministic, so merged lines are byte-identical to what an
/// unsharded run writes for the same specs.
pub fn run_batch_sharded(
    exe: &Path,
    jobs: &[JobSpec],
    out_path: impl AsRef<Path>,
    opts: &BatchOptions,
    shards: usize,
    cache: usize,
) -> Result<BatchSummary, ServiceError> {
    let out_path = out_path.as_ref();
    if shards <= 1 {
        let engine = Engine::new(cache);
        return run_batch_with(&engine, jobs, out_path, opts);
    }
    let started = Instant::now();
    let already_done = if opts.resume {
        journal::recover(out_path)?;
        completed_ids(out_path)
    } else {
        HashSet::new()
    };
    let pending: Vec<&JobSpec> = jobs
        .iter()
        .filter(|j| !already_done.contains(&j.id))
        .collect();
    let skipped = jobs.len() - pending.len();
    let spans = batch_span_collector(opts.trace_path.as_deref())?;
    // The batch-level trace id: a fold of the per-job trace ids — a pure
    // function of the job set, identical at any shard count.  Specs whose
    // instance cannot be realised contribute nothing (their shard records the
    // structured failure instead).
    let batch_trace = TraceId::from_raw(fold_bits(
        pending
            .iter()
            .filter_map(|spec| spec.trace_id().ok())
            .map(|t| t.raw()),
    ));

    // Partition by instance affinity.  A spec whose instance cannot even be
    // realised goes to shard 0, whose child records the structured failure.
    let mut partitions: Vec<Vec<JobSpec>> = vec![Vec::new(); shards];
    for spec in &pending {
        let shard = match spec.problem.build() {
            Ok(built) => (built.instance_id.raw() % shards as u64) as usize,
            Err(_) => 0,
        };
        partitions[shard].push((*spec).clone());
    }

    let scratch = out_path.with_extension("shards");
    std::fs::create_dir_all(&scratch)
        .map_err(|e| ServiceError::Io(format!("creating {}: {e}", scratch.display())))?;
    let mut running: Vec<ShardChild> = Vec::new();
    let mut shard_outs: Vec<std::path::PathBuf> = Vec::new();
    for (k, part) in partitions.iter().enumerate() {
        if part.is_empty() {
            continue;
        }
        let job_path = scratch.join(format!("shard-{k}.json"));
        let shard_out = scratch.join(format!("shard-{k}.jsonl"));
        if !opts.resume {
            // A fresh (non-resuming) run must not inherit a previous sharded
            // run's leftovers.
            let _ = std::fs::remove_file(&shard_out);
        }
        let file = JobFile { jobs: part.clone() };
        let text = serde_json::to_string_pretty(&file)
            .map_err(|e| ServiceError::Io(format!("encoding shard {k} jobs: {e}")))?;
        std::fs::write(&job_path, text)
            .map_err(|e| ServiceError::Io(format!("writing {}: {e}", job_path.display())))?;
        // The shard's span id is allocated up front and carried to the child in
        // the environment; the child closes its own "batch_shard" span under it.
        let shard_span = spans.next_span_id();
        let trace_parent = format_trace_parent(batch_trace, shard_span);
        let trace_out = opts.trace_path.as_ref().map(|p| {
            let mut os = p.as_os_str().to_os_string();
            os.push(format!(".shard-{k}"));
            std::path::PathBuf::from(os)
        });
        let child = spawn_shard(
            exe,
            &job_path,
            &shard_out,
            opts,
            cache,
            Some(&trace_parent),
            trace_out.as_deref(),
        )?;
        shard_outs.push(shard_out.clone());
        running.push(ShardChild {
            shard: k,
            job_path,
            out_path: shard_out,
            child,
            restarts: 0,
            trace_parent,
            trace_out,
            span: shard_span,
            started: Instant::now(),
        });
    }

    // Supervise: restart crashed children (they resume from their journal),
    // accept clean exits and completed-with-failures exits (code 1) as settled.
    while !running.is_empty() {
        let mut still_running = Vec::with_capacity(running.len());
        for mut entry in running {
            match entry.child.try_wait() {
                Ok(Some(status)) => {
                    let crashed = !matches!(status.code(), Some(0) | Some(1));
                    if crashed && entry.restarts < MAX_SHARD_RESTARTS {
                        eprintln!(
                            "batch: shard {} crashed ({status}); restarting (attempt {})",
                            entry.shard,
                            entry.restarts + 1
                        );
                        entry.child = spawn_shard(
                            exe,
                            &entry.job_path,
                            &entry.out_path,
                            opts,
                            cache,
                            Some(&entry.trace_parent),
                            entry.trace_out.as_deref(),
                        )?;
                        entry.restarts += 1;
                        still_running.push(entry);
                    } else {
                        if crashed {
                            eprintln!(
                                "batch: shard {} crashed {MAX_SHARD_RESTARTS} times; giving up on it",
                                entry.shard
                            );
                        }
                        // The shard settled (cleanly or by giving up): close its
                        // pre-allocated span under the batch root.  The id was
                        // handed to the child via the environment, so the child's
                        // "batch_shard" span parents here across restarts.
                        let shard_ms = entry.started.elapsed().as_secs_f64() * 1e3;
                        spans.record(Span {
                            trace: batch_trace,
                            id: entry.span,
                            parent: Some(batch_trace.root_span()),
                            name: "shard".to_string(),
                            start_ms: (spans.now_ms() - shard_ms).max(0.0),
                            duration_ms: shard_ms,
                            attrs: vec![
                                ("shard".to_string(), entry.shard.to_string()),
                                ("restarts".to_string(), entry.restarts.to_string()),
                                ("crashed".to_string(), crashed.to_string()),
                            ],
                        });
                    }
                }
                Ok(None) => still_running.push(entry),
                Err(e) => {
                    return Err(ServiceError::Io(format!(
                        "waiting on shard {}: {e}",
                        entry.shard
                    )))
                }
            }
        }
        running = still_running;
        if !running.is_empty() {
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    // Merge: recover each shard journal, keep the *last* line per job id (a
    // restarted shard re-runs non-done jobs, so later lines supersede earlier
    // ones), and re-append the stripped bodies to the merged journal.
    let mut order: Vec<String> = Vec::new();
    let mut latest: std::collections::HashMap<String, String> = std::collections::HashMap::new();
    for shard_out in &shard_outs {
        journal::recover(shard_out)?;
        let text = std::fs::read_to_string(shard_out)
            .map_err(|e| ServiceError::Io(format!("reading {}: {e}", shard_out.display())))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let Some(body) = journal::strip_frame(line.trim_end_matches('\r')) else {
                continue; // interior-corrupt shard line: the job has no trustworthy result
            };
            let Ok(v) = serde_json::from_str::<Value>(&body) else {
                continue;
            };
            let Some(id) = v.get_field("id").and_then(Value::as_str) else {
                continue;
            };
            if !latest.contains_key(id) {
                order.push(id.to_string());
            }
            latest.insert(id.to_string(), body);
        }
    }
    let journal = Journal::open(out_path, opts.fsync)?;
    let mut failed = 0usize;
    for id in &order {
        let body = &latest[id];
        if serde_json::from_str::<Value>(body)
            .ok()
            .and_then(|v| {
                v.get_field("status")
                    .and_then(Value::as_str)
                    .map(String::from)
            })
            .as_deref()
            == Some("failed")
        {
            failed += 1;
        }
        journal.append(body)?;
    }
    // Jobs that never produced a line (shard gave up after repeated crashes)
    // count as failures: the caller must know the batch is incomplete.
    failed += pending.len().saturating_sub(order.len());
    let _ = std::fs::remove_dir_all(&scratch);

    let elapsed = started.elapsed().as_secs_f64();
    let executed = order.len();
    spans.record(Span {
        trace: batch_trace,
        id: batch_trace.root_span(),
        parent: None,
        name: "batch".to_string(),
        start_ms: (spans.now_ms() - elapsed * 1e3).max(0.0),
        duration_ms: elapsed * 1e3,
        attrs: vec![
            ("jobs".to_string(), jobs.len().to_string()),
            ("shards".to_string(), shards.to_string()),
            ("executed".to_string(), executed.to_string()),
            ("failed".to_string(), failed.to_string()),
        ],
    });
    Ok(BatchSummary {
        total: jobs.len(),
        executed,
        skipped,
        failed,
        elapsed_s: elapsed,
        jobs_per_sec: if elapsed > 0.0 {
            executed as f64 / elapsed
        } else {
            0.0
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{JobResult, MixerSpec, OptimizerSpec, ProblemSpec};
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static COUNTER: AtomicUsize = AtomicUsize::new(0);
        let id = COUNTER.fetch_add(1, Ordering::SeqCst);
        std::env::temp_dir().join(format!(
            "juliqaoa_service_{tag}_{}_{id}",
            std::process::id()
        ))
    }

    fn tiny_jobs(count: usize) -> Vec<JobSpec> {
        (0..count)
            .map(|i| JobSpec {
                id: format!("job-{i}"),
                problem: ProblemSpec::MaxCutGnp {
                    n: 6,
                    instance: (i % 2) as u64,
                },
                mixer: MixerSpec::TransverseField,
                p: 1,
                optimizer: OptimizerSpec::GridSearch { resolution: 6 },
                seed: i as u64,
                sampling: None,
                timeout_ms: None,
            })
            .collect()
    }

    fn read_results(path: &Path) -> Vec<JobResult> {
        std::fs::read_to_string(path)
            .unwrap_or_default()
            .lines()
            .filter(|l| !l.trim().is_empty())
            .filter_map(|l| serde_json::from_str::<JobResult>(l).ok())
            .collect()
    }

    #[test]
    fn batch_executes_every_job_once() {
        let out = temp_path("batch");
        let jobs = tiny_jobs(6);
        let engine = Engine::new(8);
        let summary = run_batch(&engine, &jobs, &out, true).unwrap();
        assert_eq!(summary.total, 6);
        assert_eq!(summary.executed, 6);
        assert_eq!(summary.failed, 0);
        let results = read_results(&out);
        assert_eq!(results.len(), 6);
        let mut ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        ids.sort_unstable();
        assert_eq!(ids, ["job-0", "job-1", "job-2", "job-3", "job-4", "job-5"]);
        // Two distinct instances across six jobs: the cache must have seen 4 hits.
        assert_eq!(engine.stats().cache_misses, 2);
        assert_eq!(engine.stats().cache_hits, 4);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn batch_trace_out_mirrors_per_job_root_spans() {
        let out = temp_path("trace_batch");
        let trace = temp_path("trace_batch_spans");
        let jobs = tiny_jobs(3);
        let engine = Engine::new(8);
        let opts = BatchOptions {
            resume: true,
            trace_path: Some(trace.clone()),
            ..Default::default()
        };
        let summary = run_batch_with(&engine, &jobs, &out, &opts).unwrap();
        assert_eq!(summary.executed, 3);
        let journal = std::fs::read_to_string(&trace).expect("trace journal written");
        // Every job's deterministic trace id shows up on a root "job" span
        // line, with the engine's stage spans alongside.
        for spec in &jobs {
            let hex = spec.trace_id().unwrap().to_hex();
            assert!(
                journal
                    .lines()
                    .any(|l| l.starts_with("{\"span\":\"job\"") && l.contains(&hex)),
                "no root span for {} in:\n{journal}",
                spec.id
            );
        }
        assert!(journal.contains("{\"span\":\"prep\""), "{journal}");
        assert!(journal.contains("{\"span\":\"optimize\""), "{journal}");
        let _ = std::fs::remove_file(&out);
        let _ = std::fs::remove_file(&trace);
    }

    #[test]
    fn resume_skips_done_jobs_and_finishes_the_rest() {
        let out = temp_path("resume");
        let jobs = tiny_jobs(5);
        // First run: only the first two jobs (simulating an interrupted batch).
        let engine = Engine::new(8);
        run_batch(&engine, &jobs[..2], &out, true).unwrap();
        assert_eq!(read_results(&out).len(), 2);
        // Second run over the full file resumes: 2 skipped, 3 executed.
        let engine2 = Engine::new(8);
        let summary = run_batch(&engine2, &jobs, &out, true).unwrap();
        assert_eq!(summary.skipped, 2);
        assert_eq!(summary.executed, 3);
        assert_eq!(engine2.stats().jobs_executed, 3);
        let results = read_results(&out);
        assert_eq!(results.len(), 5);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn a_half_written_trailing_line_does_not_block_resume() {
        let out = temp_path("torn");
        let jobs = tiny_jobs(2);
        let engine = Engine::new(8);
        run_batch(&engine, &jobs[..1], &out, true).unwrap();
        // Simulate a kill mid-write: append a torn, unparsable line.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&out).unwrap();
            write!(f, "{{\"id\": \"job-1\", \"status\": \"do").unwrap();
        }
        let summary = run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
        assert_eq!(summary.skipped, 1, "only the complete line counts");
        assert_eq!(summary.executed, 1);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn resume_truncates_a_torn_tail_so_the_next_append_is_not_glued_onto_it() {
        // Regression test for the real torn-line bug: before journal recovery, a
        // resumed run opened the file in append mode and wrote its first result
        // straight after the torn fragment — corrupting BOTH lines, so the file
        // ended with one unparsable glued line and the resumed job's result was
        // unreadable forever after.
        let out = temp_path("torn_glue");
        let jobs = tiny_jobs(2);
        run_batch(&Engine::new(8), &jobs[..1], &out, true).unwrap();
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new().append(true).open(&out).unwrap();
            write!(f, "{{\"id\": \"job-1\", \"status\": \"do").unwrap();
        }
        let summary = run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
        assert_eq!(summary.skipped, 1);
        assert_eq!(summary.executed, 1);
        // The recovered file holds exactly two complete, verifiable result lines —
        // the torn fragment is gone rather than fused with job-1's line.
        let text = std::fs::read_to_string(&out).unwrap();
        let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
        assert_eq!(lines.len(), 2, "torn fragment must not survive: {text:?}");
        for line in &lines {
            assert_ne!(journal::verify_line(line), LineCheck::Corrupt, "{line}");
        }
        let results = read_results(&out);
        assert_eq!(results.len(), 2, "both results must parse after recovery");
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn batch_jobs_with_a_timeout_report_timed_out_and_rerun_on_resume() {
        let out = temp_path("deadline");
        let mut jobs = tiny_jobs(2);
        // An effectively-unfinishable grid (60⁴ ≈ 13M points) with a 50 ms budget:
        // long enough to guarantee partial progress, far too short to finish, so
        // the job deterministically reports "timed_out" with its best-so-far.
        jobs[1].p = 2;
        jobs[1].optimizer = OptimizerSpec::GridSearch { resolution: 60 };
        jobs[1].timeout_ms = Some(50);
        let engine = Engine::new(8);
        let summary = run_batch(&engine, &jobs, &out, true).unwrap();
        assert_eq!(summary.executed, 2);
        assert_eq!(engine.stats().jobs_timed_out, 1);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("timed_out"), "{text}");
        // A timed-out line is not "done": resume runs the job again.
        let resumed = run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
        assert_eq!(resumed.skipped, 1);
        assert_eq!(resumed.executed, 1);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn batch_result_lines_carry_verifiable_journal_checksums() {
        let out = temp_path("checksums");
        run_batch(&Engine::new(8), &tiny_jobs(3), &out, true).unwrap();
        let text = std::fs::read_to_string(&out).unwrap();
        let mut checked = 0;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            assert_eq!(journal::verify_line(line), LineCheck::Valid, "{line}");
            checked += 1;
        }
        assert_eq!(checked, 3);
        // And the checksum field is invisible to the result reader.
        assert_eq!(read_results(&out).len(), 3);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn failed_jobs_are_recorded_and_retried_on_resume() {
        let out = temp_path("failed");
        let mut jobs = tiny_jobs(2);
        jobs[1].mixer = MixerSpec::Clique; // invalid for unconstrained MaxCut
        let summary = run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
        assert_eq!(summary.failed, 1);
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("\"failed\""));
        // Resume: the failed job is not treated as done.
        let summary2 = run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
        assert_eq!(summary2.skipped, 1);
        assert_eq!(summary2.executed, 1);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn a_panicking_job_fails_structured_and_the_batch_continues() {
        // A fault plan panics every attempt of the job whose id matches; the id
        // is unique to this test, so concurrently running tests are unaffected.
        let _plan = crate::fault::tests::PLAN_TEST_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        crate::fault::install(crate::fault::FaultPlan {
            panic_jobs: vec![crate::fault::PanicFault {
                id: "batch-boom".into(),
                times: u32::MAX,
            }],
            ..Default::default()
        });
        let out = temp_path("panic");
        let mut jobs = tiny_jobs(3);
        jobs[1].id = "batch-boom".into();
        let engine = Engine::new(8);
        let summary = run_batch(&engine, &jobs, &out, true).unwrap();
        crate::fault::clear();
        assert_eq!(summary.executed, 3);
        assert_eq!(summary.failed, 1, "the panic becomes a structured failure");
        let text = std::fs::read_to_string(&out).unwrap();
        assert!(text.contains("panicked mid-run"), "{text}");
        assert_eq!(read_results(&out).len(), 2, "the other jobs still finish");
        let stats = engine.stats();
        assert_eq!(stats.jobs_panicked, 1);
        assert_eq!(stats.jobs_failed, 1);
        let _ = std::fs::remove_file(&out);
    }

    #[test]
    fn duplicate_ids_in_a_job_file_are_rejected() {
        let path = temp_path("dup.json");
        let mut jobs = tiny_jobs(2);
        jobs[1].id = jobs[0].id.clone();
        let file = JobFile { jobs };
        std::fs::write(&path, serde_json::to_string(&file).unwrap()).unwrap();
        let err = load_job_file(&path).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn job_files_load_in_both_shapes() {
        let path = temp_path("shapes.json");
        let jobs = tiny_jobs(3);
        // Object form.
        std::fs::write(
            &path,
            serde_json::to_string(&JobFile { jobs: jobs.clone() }).unwrap(),
        )
        .unwrap();
        assert_eq!(load_job_file(&path).unwrap(), jobs);
        // Bare-array form.
        std::fs::write(&path, serde_json::to_string(&jobs).unwrap()).unwrap();
        assert_eq!(load_job_file(&path).unwrap(), jobs);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn a_job_file_error_names_the_real_fault() {
        let path = temp_path("misspelt.json");
        let mut job = serde_json::to_string(&tiny_jobs(1)[0]).unwrap();
        let optimizer = job.find("\"optimizer\"").unwrap();
        let end = optimizer + job[optimizer..].find('}').unwrap() + 1;
        job.replace_range(
            optimizer..end,
            r#""optimizer":{"kind":"grid_search","resolution":4}"#,
        );
        for text in [format!(r#"{{"jobs": [{job}]}}"#), format!("  [{job}]")] {
            std::fs::write(&path, &text).unwrap();
            let err = load_job_file(&path).unwrap_err().to_string();
            assert!(err.contains("grid_search"), "{err}");
            assert!(!err.contains("expected array"), "{err}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
