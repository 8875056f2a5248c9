//! Chaos suite: deterministic fault injection against the real batch executor and
//! the real HTTP server.
//!
//! Every test installs a seeded [`FaultPlan`] in-process, drives a normal workload
//! through it, and asserts *structured* recovery: interrupted batches resume to the
//! same output an uninterrupted run produces, injected write errors are retried an
//! exactly-predictable number of times, deadlines expire into `timed_out` results
//! with partial progress, and stale queued jobs are shed with `503` + `Retry-After`.
//!
//! The fault plan's consumption counters (write index, per-job panic budget) are
//! process-global, so these tests are serialised behind one mutex — concurrency here
//! would let one test's journal appends consume another test's planned write fault.

use juliqaoa_service::{
    fault, BatchOptions, Engine, FaultPlan, JobResult, JobSpec, JobStatusBody, MetricsBody,
    MixerSpec, OpsConfig, OptimizerSpec, PanicFault, ProblemSpec, RetryPolicy, Server,
    ServerConfig,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Serialises the suite: the fault plan and its counters are process-global.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("juliqaoa_chaos_{tag}_{}_{id}", std::process::id()))
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

/// A grid far too large to finish inside a small deadline (60⁴ ≈ 13M points),
/// guaranteeing a mid-run expiry with partial progress.
fn unfinishable(id: &str, timeout_ms: u64) -> JobSpec {
    let mut spec = tiny_jobs(1).remove(0);
    spec.id = id.into();
    spec.p = 2;
    spec.optimizer = OptimizerSpec::GridSearch { resolution: 60 };
    spec.timeout_ms = Some(timeout_ms);
    spec
}

/// Parses a results JSONL into `(id → result)` for `"done"` lines, normalised for
/// comparison: only the deterministic fields (angles, expectation) are kept —
/// `elapsed_ms`, `cache_hit` and the `journal_fnv` checksum field legitimately
/// differ between runs.
fn done_results(path: &Path) -> Vec<(String, Vec<u64>, u64)> {
    let mut out: Vec<(String, Vec<u64>, u64)> = std::fs::read_to_string(path)
        .unwrap_or_default()
        .lines()
        .filter(|l| !l.trim().is_empty())
        .filter_map(|l| serde_json::from_str::<JobResult>(l).ok())
        .filter(|r| r.status == "done")
        .map(|r| {
            (
                r.id,
                r.angles.iter().map(|a| a.to_bits()).collect(),
                r.expectation.to_bits(),
            )
        })
        .collect();
    out.sort();
    out
}

#[test]
fn a_mid_batch_panic_resumes_to_the_uninterrupted_output() {
    let _guard = chaos_guard();
    let jobs = tiny_jobs(4);

    // Reference: the same job file, no faults, one uninterrupted run.
    fault::clear();
    let ref_out = temp_path("ref");
    juliqaoa_service::run_batch(&Engine::new(8), &jobs, &ref_out, true).unwrap();
    let reference = done_results(&ref_out);
    assert_eq!(reference.len(), 4);

    // Chaos run: job-2 panics on its first attempt (times: 1), no retry policy,
    // so the first batch records a structured failure for it and finishes the rest.
    fault::install(FaultPlan {
        seed: 7,
        panic_jobs: vec![PanicFault {
            id: "job-2".into(),
            times: 1,
        }],
        ..Default::default()
    });
    let out = temp_path("chaos");
    let engine = Engine::new(8);
    let summary = juliqaoa_service::run_batch(&engine, &jobs, &out, true).unwrap();
    assert_eq!(summary.executed, 4);
    assert_eq!(summary.failed, 1, "the planned panic must surface");
    assert_eq!(engine.stats().jobs_panicked, 1);

    // Resume with the same (now consumed) plan still installed: only the failed
    // job reruns, and its panic budget is spent, so it succeeds.
    let resumed = juliqaoa_service::run_batch(&Engine::new(8), &jobs, &out, true).unwrap();
    fault::clear();
    assert_eq!(resumed.skipped, 3);
    assert_eq!(resumed.executed, 1);
    assert_eq!(resumed.failed, 0);

    // The merged journal is equivalent to the uninterrupted run: same done ids,
    // bit-identical angles and expectations (modulo timing/caching fields).
    assert_eq!(done_results(&out), reference);
    let _ = std::fs::remove_file(&ref_out);
    let _ = std::fs::remove_file(&out);
}

#[test]
fn an_injected_write_error_is_retried_and_the_line_still_lands() {
    let _guard = chaos_guard();
    let jobs = tiny_jobs(3);
    let opts = BatchOptions {
        resume: true,
        retry: RetryPolicy::with_retries(2),
        ..Default::default()
    };

    // Two identical chaos runs must retry the exact same number of times: the
    // write fault fires on a fixed write index and the backoff is seeded.
    for round in 0..2 {
        fault::install(FaultPlan {
            seed: 11,
            fail_writes: vec![0],
            ..Default::default()
        });
        let out = temp_path("write_fault");
        let engine = Engine::new(8);
        let summary = juliqaoa_service::run_batch_with(&engine, &jobs, &out, &opts).unwrap();
        fault::clear();
        assert_eq!(
            summary.failed, 0,
            "round {round}: the retried write must land"
        );
        assert_eq!(
            engine.stats().jobs_retried,
            1,
            "round {round}: exactly one retry for the single injected write error"
        );
        assert_eq!(done_results(&out).len(), 3, "round {round}");
        let _ = std::fs::remove_file(&out);
    }
}

#[test]
fn a_flaky_job_is_retried_to_success_with_deterministic_counts() {
    let _guard = chaos_guard();
    let jobs = tiny_jobs(2);

    for round in 0..2 {
        fault::install(FaultPlan {
            seed: 23,
            panic_jobs: vec![PanicFault {
                id: "job-1".into(),
                times: 2,
            }],
            ..Default::default()
        });
        let out = temp_path("flaky");
        let engine = Engine::new(8);
        let opts = BatchOptions {
            resume: true,
            retry: RetryPolicy {
                max_retries: 3,
                base_delay_ms: 1,
                max_delay_ms: 4,
                jitter_seed: 99,
            },
            ..Default::default()
        };
        let summary = juliqaoa_service::run_batch_with(&engine, &jobs, &out, &opts).unwrap();
        fault::clear();
        assert_eq!(
            summary.failed, 0,
            "round {round}: retries must absorb the panics"
        );
        let stats = engine.stats();
        assert_eq!(stats.jobs_panicked, 2, "round {round}");
        assert_eq!(stats.jobs_retried, 2, "round {round}");
        assert_eq!(done_results(&out).len(), 2, "round {round}");
        let _ = std::fs::remove_file(&out);
    }
}

// ---------------------------------------------------------------------------
// Serve-mode chaos: deadlines, shedding, drain.
// ---------------------------------------------------------------------------

/// Sends one HTTP/1.1 request, returning `(status, headers, body)`.
fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let (head, payload) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    (status, head.to_string(), payload.to_string())
}

fn poll_until_terminal(addr: SocketAddr, id: &str) -> JobStatusBody {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, _, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll failed: {body}");
        let parsed: JobStatusBody = serde_json::from_str(&body).expect("status json");
        match parsed.status.as_str() {
            "done" | "failed" | "cancelled" | "timed_out" | "shed" => return parsed,
            _ => {
                assert!(Instant::now() < deadline, "job {id} never finished");
                std::thread::sleep(Duration::from_millis(20));
            }
        }
    }
}

#[test]
fn deadline_expiry_mid_grid_returns_a_structured_timeout_over_http() {
    let _guard = chaos_guard();
    fault::clear();
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // 50 ms is long enough for partial grid progress (the driver polls the
    // deadline every 1024 points) and hopeless against ~13M points.
    let spec = unfinishable("http-deadline", 50);
    let (status, _, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&spec).unwrap()),
    );
    assert_eq!(status, 202, "submit failed: {body}");
    let terminal = poll_until_terminal(addr, "http-deadline");
    assert_eq!(terminal.status, "timed_out");

    // The partial best-so-far is a structured, fetchable result.
    let (status, _, body) = request(addr, "GET", "/jobs/http-deadline/result", None);
    assert_eq!(status, 200, "partial result must be fetchable: {body}");
    let result: JobResult = serde_json::from_str(&body).expect("timeout result json");
    assert_eq!(result.status, "timed_out");
    assert!(result.expectation.is_finite(), "partial best must be real");
    assert!(result.function_evals > 0);

    // The timeout is counted, and the shed/retry counters are published.
    let (status, _, body) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(metrics.timed_out, 1);
    assert_eq!(metrics.engine.jobs_timed_out, 1);
    assert!(body.contains("jobs_shed"), "{body}");
    assert!(body.contains("jobs_retried"), "{body}");

    let (status, _, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[test]
fn stale_queued_jobs_are_shed_and_saturated_submits_get_503_with_retry_after() {
    let _guard = chaos_guard();
    fault::clear();
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        queue_wait_ms: Some(30),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Occupy the only worker for ~400 ms, queue a second job behind it, and let
    // that second job go stale (its 30 ms queue-wait budget expires).
    let slow = unfinishable("shed-slow", 400);
    let (status, _, _) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&slow).unwrap()),
    );
    assert_eq!(status, 202);
    let queued = tiny_jobs(1).remove(0);
    let mut queued = queued;
    queued.id = "shed-stale".into();
    let (status, _, _) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&queued).unwrap()),
    );
    assert_eq!(status, 202);
    std::thread::sleep(Duration::from_millis(80));

    // The head of the queue has now waited past the deadline: new submissions
    // are rejected up front with a Retry-After hint.
    let mut third = tiny_jobs(1).remove(0);
    third.id = "shed-rejected".into();
    let (status, head, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&third).unwrap()),
    );
    assert_eq!(status, 503, "saturated queue must 503: {body}");
    assert!(
        head.contains("Retry-After:"),
        "503 must carry Retry-After: {head}"
    );

    // Once the worker frees up it sheds the stale job instead of running it.
    let terminal = poll_until_terminal(addr, "shed-stale");
    assert_eq!(terminal.status, "shed");
    let (status, _, body) = request(addr, "GET", "/jobs/shed-stale/result", None);
    assert_eq!(status, 503, "shed result fetch: {body}");
    assert!(body.contains("shed"), "{body}");

    let (status, _, body) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(
        metrics.jobs_shed, 2,
        "one popped-stale shed + one 503: {body}"
    );

    poll_until_terminal(addr, "shed-slow");
    let (status, _, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[test]
fn an_external_stop_flag_drains_and_the_drain_deadline_cancels_stragglers() {
    let _guard = chaos_guard();
    fault::clear();
    let results = temp_path("drain_results");
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        drain_ms: 50,
        results_path: Some(results.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::spawn(move || server.run_until(&stop).unwrap())
    };

    // A job with no timeout that would run for ages on its own.
    let mut spec = unfinishable("drain-straggler", 1);
    spec.timeout_ms = None;
    let (status, _, _) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&spec).unwrap()),
    );
    assert_eq!(status, 202);
    std::thread::sleep(Duration::from_millis(50)); // let the worker pick it up

    // Raise the stop flag (what the SIGTERM handler does).  The accept loop must
    // notice on its own, and the 50 ms drain watchdog must cancel the straggler
    // cooperatively — bounded shutdown, no kill required.
    let begun = Instant::now();
    stop.store(true, Ordering::SeqCst);
    handle.join().expect("server thread");
    assert!(
        begun.elapsed() < Duration::from_secs(10),
        "drain must be bounded, took {:?}",
        begun.elapsed()
    );

    // The cancelled straggler's partial result was still journalled on the way out.
    let text = std::fs::read_to_string(&results).unwrap_or_default();
    assert!(text.contains("drain-straggler"), "{text}");
    assert!(text.contains("cancelled"), "{text}");
    let _ = std::fs::remove_file(&results);
}
