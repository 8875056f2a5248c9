//! End-to-end serve-mode test: a real `TcpListener` server driven over raw sockets —
//! submit, poll, fetch result, metrics, error paths, graceful shutdown.

use juliqaoa_service::spans::span_from_value;
use juliqaoa_service::{
    fault, FaultPlan, JobResult, JobSpec, JobStatusBody, MetricsBody, MixerSpec, OpsConfig,
    OptimizerSpec, PanicFault, ProblemSpec, Server, ServerConfig,
};
use juliqaoa_telemetry::Span;
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Sends one HTTP/1.1 request and returns the raw response (status line,
/// headers and body) — for tests that need to see response headers.
fn raw_request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> String {
    raw_request_with_headers(addr, method, path, "", body)
}

/// [`raw_request`] with extra request header lines (each ending in `\r\n`).
fn raw_request_with_headers(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &str,
    body: Option<&str>,
) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let body = body.unwrap_or("");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: test\r\n{headers}Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    raw
}

/// Sends one HTTP/1.1 request and returns `(status, body)`.
fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let raw = raw_request(addr, method, path, body);
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("malformed response: {raw:?}"));
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn sample_spec(id: &str) -> JobSpec {
    JobSpec {
        id: id.into(),
        problem: ProblemSpec::MaxCutGnp { n: 7, instance: 0 },
        mixer: MixerSpec::TransverseField,
        p: 1,
        optimizer: OptimizerSpec::GridSearch { resolution: 8 },
        seed: 11,
        sampling: None,
        timeout_ms: None,
    }
}

fn poll_until_done(addr: SocketAddr, id: &str) -> JobStatusBody {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
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

/// The names of the root `job` span's children in `GET /trace/:id`, polled
/// until the root exists (it is recorded a beat after the status flips).
fn job_span_children(addr: SocketAddr, trace_hex: &str) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(5);
    let tree_body = loop {
        let (status, body) = request(addr, "GET", &format!("/trace/{trace_hex}"), None);
        if status == 200 && body.contains("\"span\": \"job\"") {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "span tree never materialised: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(tree_body.contains(&format!("\"trace\": \"{trace_hex}\"")));
    let tree: Value = serde_json::from_str(&tree_body).expect("tree json");
    let name = |node: &Value| {
        node.get_field("name")
            .and_then(Value::as_str)
            .map(String::from)
    };
    let roots = tree
        .get_field("tree")
        .and_then(Value::as_array)
        .expect("tree");
    let job = roots
        .iter()
        .find(|n| name(n).as_deref() == Some("job"))
        .expect("job root");
    job.get_field("children")
        .and_then(Value::as_array)
        .expect("children")
        .iter()
        .filter_map(name)
        .collect()
}

#[test]
fn full_job_lifecycle_over_http() {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 2,
        queue_capacity: 16,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Liveness.
    let (status, body) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    assert!(body.contains("ok"));

    // Bad JSON is a 400, unknown endpoints 404, unknown jobs 404.
    let (status, _) = request(addr, "POST", "/jobs", Some("not json"));
    assert_eq!(status, 400);
    let (status, _) = request(addr, "GET", "/nope", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/jobs/ghost", None);
    assert_eq!(status, 404);

    // Submit a job and run it to completion.
    let spec = sample_spec("e2e-1");
    let spec_json = serde_json::to_string(&spec).unwrap();
    let (status, body) = request(addr, "POST", "/jobs", Some(&spec_json));
    assert_eq!(status, 202, "submit failed: {body}");
    let accepted: JobStatusBody = serde_json::from_str(&body).unwrap();
    assert_eq!(accepted.id, "e2e-1");

    // Duplicate ids are rejected while the first job exists.
    let (status, _) = request(addr, "POST", "/jobs", Some(&spec_json));
    assert_eq!(status, 409);

    let final_status = poll_until_done(addr, "e2e-1");
    assert_eq!(final_status.status, "done");
    assert!(final_status.progress_total > 0);
    assert_eq!(final_status.progress_done, final_status.progress_total);

    // Fetch the result and cross-check against a direct engine run (the API must not
    // change the physics).
    let (status, body) = request(addr, "GET", "/jobs/e2e-1/result", None);
    assert_eq!(status, 200);
    let result: JobResult = serde_json::from_str(&body).expect("result json");
    let reference = juliqaoa_service::Engine::new(1)
        .run_job(&spec, &juliqaoa_optim::RunControl::new())
        .unwrap();
    assert_eq!(
        result.expectation.to_bits(),
        reference.expectation.to_bits()
    );
    assert_eq!(result.angles, reference.angles);
    // The serving tier fills the queue-wait slot of the per-job timings, and the
    // engine fills the rest; all must come back populated over HTTP.
    assert!(
        result.timings.queue_wait_ms > 0.0,
        "queue_wait_ms must be filled by the serving tier: {:?}",
        result.timings
    );
    assert!(result.timings.prep_ms > 0.0, "{:?}", result.timings);
    assert!(result.timings.optimize_ms > 0.0, "{:?}", result.timings);
    assert!(result.timings.total_ms > 0.0, "{:?}", result.timings);
    assert_eq!(result.timings.total_ms, result.elapsed_ms);

    // A second identical-instance job should be a cache hit, visible in metrics.
    let mut spec2 = sample_spec("e2e-2");
    spec2.seed = 12;
    let (status, _) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&spec2).unwrap()),
    );
    assert_eq!(status, 202);
    poll_until_done(addr, "e2e-2");

    let (status, body) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(metrics.jobs_submitted, 2);
    assert_eq!(metrics.done, 2);
    assert_eq!(metrics.engine.cache_misses, 1);
    assert_eq!(metrics.engine.cache_hits, 1);
    assert_eq!(metrics.cached_instances, 1);

    // Result of an unfinished/unknown state is a 409/404, not a hang: use a fresh id.
    let (status, _) = request(addr, "GET", "/jobs/e2e-1/result", None);
    assert_eq!(status, 200, "finished results stay fetchable");

    // Invalid specs are rejected at submission time.
    let mut bad = sample_spec("bad");
    bad.mixer = MixerSpec::Clique; // incompatible with unconstrained MaxCut
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&bad).unwrap()),
    );
    assert_eq!(status, 400, "expected rejection, got: {body}");

    // A "sample" job over the same instance: CVaR-optimized angles plus a measured
    // readout in the result body.
    let mut shot_job = sample_spec("e2e-sample");
    shot_job.sampling = Some(juliqaoa_service::SamplingSpec {
        shots: 1024,
        seed: 99,
        estimator: juliqaoa_service::EstimatorSpec::CVaR { alpha: 0.25 },
    });
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&shot_job).unwrap()),
    );
    assert_eq!(status, 202, "sample submit failed: {body}");
    poll_until_done(addr, "e2e-sample");
    let (status, body) = request(addr, "GET", "/jobs/e2e-sample/result", None);
    assert_eq!(status, 200);
    let result: JobResult = serde_json::from_str(&body).expect("sample result json");
    let report = result.sampling.expect("sample report over HTTP");
    assert_eq!(report.estimator, "cvar");
    assert_eq!(report.ratio_histogram.iter().sum::<u64>(), 1024);
    assert_eq!(report.best_bitstring.len(), 7);
    assert!(
        result.timings.sampling_readout_ms > 0.0,
        "sample jobs must record a readout span: {:?}",
        result.timings
    );
    // New counters surface in the JSON stats body.
    let (status, body) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(metrics.engine.sample_jobs, 1);
    assert_eq!(metrics.engine.shots_drawn, report.shots_total);

    // Invalid sampling parameters die with a 400 at submission, before any worker.
    let mut bad_alpha = sample_spec("bad-alpha");
    bad_alpha.sampling = Some(juliqaoa_service::SamplingSpec {
        shots: 128,
        seed: 1,
        estimator: juliqaoa_service::EstimatorSpec::CVaR { alpha: 2.0 },
    });
    let (status, body) = request(
        addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&bad_alpha).unwrap()),
    );
    assert_eq!(status, 400, "expected 400 for α > 1, got: {body}");
    assert!(body.contains("α") || body.contains("alpha") || body.contains("0 <"));

    // Graceful shutdown.
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[test]
fn a_panicking_job_fails_structured_and_the_sole_worker_survives() {
    // One worker: if the panic killed the thread, nothing would ever run again and
    // the follow-up job below would hang in `queued`.  The job id is unique to this
    // test, so the fault plan cannot touch other tests' jobs.
    fault::install(FaultPlan {
        panic_jobs: vec![PanicFault {
            id: "e2e-panic-boom".into(),
            times: u32::MAX,
        }],
        ..FaultPlan::default()
    });
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let spec_json = serde_json::to_string(&sample_spec("e2e-panic-boom")).unwrap();
    let (status, _) = request(addr, "POST", "/jobs", Some(&spec_json));
    assert_eq!(status, 202);
    let final_status = poll_until_done(addr, "e2e-panic-boom");
    assert_eq!(final_status.status, "failed", "panic must become `failed`");

    // The failure is structured and fetchable, not a dropped connection.
    let (status, body) = request(addr, "GET", "/jobs/e2e-panic-boom/result", None);
    assert_eq!(status, 500);
    assert!(body.contains("panicked"), "{body}");

    // The server is still healthy and the (sole) worker still serves jobs.
    let (status, _) = request(addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let after_json = serde_json::to_string(&sample_spec("e2e-after-panic")).unwrap();
    let (status, _) = request(addr, "POST", "/jobs", Some(&after_json));
    assert_eq!(status, 202);
    let final_status = poll_until_done(addr, "e2e-after-panic");
    assert_eq!(
        final_status.status, "done",
        "the worker must survive the panic"
    );

    // The panic is counted: a failed job, attributed to a panic.
    let (status, body) = request(addr, "GET", "/stats", None);
    assert_eq!(status, 200);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(metrics.failed, 1);
    assert_eq!(metrics.engine.jobs_panicked, 1);
    assert_eq!(metrics.engine.jobs_failed, 1);
    assert_eq!(metrics.done, 1);
    fault::clear();

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[test]
fn prometheus_exposition_and_trace_ring_over_http() {
    let trace_path =
        std::env::temp_dir().join(format!("juliqaoa_e2e_trace_{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&trace_path);
    let server = Server::bind(ServerConfig {
        ops: OpsConfig {
            trace_path: Some(trace_path.clone()),
            trace_ring_cap: 512,
            ..OpsConfig::at("127.0.0.1:0")
        },
        workers: 1,
        queue_capacity: 16,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    let spec_json = serde_json::to_string(&sample_spec("e2e-prom")).unwrap();
    let (status, _) = request(addr, "POST", "/jobs", Some(&spec_json));
    assert_eq!(status, 202);
    let final_status = poll_until_done(addr, "e2e-prom");
    // The status body carries the job's deterministic trace id.
    assert_eq!(final_status.trace.len(), 16, "{}", final_status.trace);
    assert!(final_status
        .trace
        .chars()
        .all(|c| c.is_ascii_hexdigit() && !c.is_ascii_uppercase()));
    assert_eq!(
        final_status.trace,
        sample_spec("e2e-prom").trace_id().unwrap().to_hex(),
        "served trace id must match the client-side derivation"
    );

    // Prometheus text exposition: right content type, HELP/TYPE headers, the
    // jobs_completed counter reflecting the finished job, cumulative histogram
    // buckets ending in +Inf, and the kernel profiling counters.
    let raw = raw_request(addr, "GET", "/metrics", None);
    assert!(
        raw.contains("Content-Type: text/plain; version=0.0.4"),
        "missing Prometheus content type: {}",
        raw.lines().take(6).collect::<Vec<_>>().join(" | ")
    );
    let body = raw.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or("");
    assert!(body.contains("# TYPE jobs_completed counter"));
    assert!(body.contains("\njobs_completed 1\n"));
    assert!(body.contains("\njobs_submitted 1\n"));
    assert!(body.contains("# TYPE job_queue_wait_ms histogram"));
    assert!(body.contains("job_queue_wait_ms_bucket{le=\"+Inf\"} 1"));
    assert!(body.contains("\njob_queue_wait_ms_count 1\n"));
    assert!(body.contains("\njob_total_ms_count 1\n"));
    assert!(body.contains("# TYPE job_prep_ms histogram"));
    assert!(body.contains("# TYPE kernel_wht_passes counter"));
    assert!(body.contains("# TYPE engine_cache_misses counter"));
    assert!(body.contains("# TYPE trace_spans_dropped counter"));
    // Exemplar comment lines link the latency histograms to the last job's
    // trace id (16 hex digits), invisible to 0.0.4 parsers.
    assert!(
        body.contains("# EXEMPLAR job_total_ms{trace_id=\""),
        "missing job_total_ms exemplar"
    );
    assert!(body.contains("# EXEMPLAR job_queue_wait_ms{trace_id=\""));
    // The job_total_ms exemplar names the finished job's trace (the CI tracing
    // smoke greps for exactly this line).
    let total_exemplar = format!(
        "# EXEMPLAR job_total_ms{{trace_id=\"{}\"}} ",
        final_status.trace
    );
    assert!(body.contains(&total_exemplar), "{body}");
    // An exemplar is its histogram's last traced observation: a family that
    // observed nothing (no journal, no sample job here) has none.
    let empty: Vec<&str> = body
        .lines()
        .filter_map(|l| l.strip_suffix("_count 0"))
        .collect();
    assert!(empty.contains(&"job_journal_write_ms"), "{empty:?}");
    assert!(empty.contains(&"job_sampling_readout_ms"), "{empty:?}");
    for family in empty {
        assert!(
            !body.contains(&format!("# EXEMPLAR {family}{{")),
            "exemplar without an observation on {family}: {body}"
        );
    }
    // Every non-comment line is `name{labels}? value`, the shape the CI smoke
    // greps for.
    for line in body
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let (name, value) = line.split_once(' ').expect("metric line has a value");
        let bare = name.split('{').next().unwrap();
        assert!(
            bare.chars().all(|c| c.is_ascii_lowercase() || c == '_'),
            "bad metric name in {line:?}"
        );
        assert!(
            value.parse::<f64>().is_ok() || value == "+Inf" || value == "NaN",
            "bad value in {line:?}"
        );
    }

    // The span ring saw the full lifecycle, in order: lifecycle events are
    // zero-duration spans beside the stage spans.
    let (status, body) = request(addr, "GET", "/trace", None);
    assert_eq!(status, 200);
    let ring: Value = serde_json::from_str(&body).expect("trace json");
    assert_eq!(ring.get_field("dropped").and_then(Value::as_u64), Some(0));
    // The ring reports its configured capacity (the --trace-ring-cap knob).
    assert_eq!(
        ring.get_field("capacity").and_then(Value::as_u64),
        Some(512)
    );
    let spans: Vec<Span> = ring
        .get_field("spans")
        .and_then(Value::as_array)
        .expect("spans array")
        .iter()
        .map(|v| span_from_value(v).expect("every ring entry is a span"))
        .collect();
    let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
    let job_event = |name: &str| {
        spans.iter().position(|s| {
            s.name == name
                && s.attrs
                    .contains(&("job".to_string(), "e2e-prom".to_string()))
        })
    };
    let submit_pos = job_event("submit").unwrap_or_else(|| panic!("no submit: {names:?}"));
    let done_pos = job_event("done").unwrap_or_else(|| panic!("no done: {names:?}"));
    assert!(submit_pos < done_pos, "submit must precede done: {names:?}");
    assert_eq!(
        spans[submit_pos].duration_ms, 0.0,
        "events are zero-duration"
    );

    // `GET /trace/:id` reconstructs the span tree for the finished job: the
    // engine stages and the lifecycle events hang under the root job span.
    let children = job_span_children(addr, &final_status.trace);
    for child in ["submit", "queue_wait", "prep", "optimize", "done"] {
        assert!(
            children.iter().any(|c| c == child),
            "missing {child} under the job span: {children:?}"
        );
    }
    // Unknown and malformed ids are clean errors.
    let (status, _) = request(addr, "GET", "/trace/ffffffffffffffff", None);
    assert_eq!(status, 404);
    let (status, _) = request(addr, "GET", "/trace/not-hex", None);
    assert_eq!(status, 400);

    // `GET /version` names the crate version and build profile.
    let (status, version) = request(addr, "GET", "/version", None);
    assert_eq!(status, 200);
    assert!(
        version.contains(env!("CARGO_PKG_VERSION")),
        "version body: {version}"
    );
    assert!(version.contains("\"profile\""), "version body: {version}");

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");

    // `--trace-out` mirrored the ring as JSONL: every line is one span.
    let mirrored = std::fs::read_to_string(&trace_path).expect("trace file written");
    let lines: Vec<Span> = mirrored
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let value: Value = serde_json::from_str(l).expect("trace line parses");
            span_from_value(&value).unwrap_or_else(|| panic!("not a span line: {l}"))
        })
        .collect();
    assert!(
        lines.len() >= spans.len(),
        "trace file must hold at least the ring's spans"
    );
    assert!(
        lines.iter().any(|s| s.name == "job"),
        "root job span must be mirrored to the trace file"
    );
    // The drain event lands in the file on shutdown even though the ring
    // snapshot above was taken before it.
    assert!(
        lines.iter().any(|s| s.name == "drain"),
        "shutdown must emit a drain event"
    );
    let _ = std::fs::remove_file(&trace_path);
}

#[test]
fn an_adopted_trace_header_covers_the_engine_stages_and_the_result() {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // A foreign trace id, as a router or any upstream client would assign it.
    let header = "00000000deadbeef";
    assert_ne!(sample_spec("hdr-1").trace_id().unwrap().to_hex(), header);
    let spec_json = serde_json::to_string(&sample_spec("hdr-1")).unwrap();
    let raw = raw_request_with_headers(
        addr,
        "POST",
        "/jobs",
        &format!("X-Juliqaoa-Trace: {header}\r\n"),
        Some(&spec_json),
    );
    assert!(raw.starts_with("HTTP/1.1 202"), "{raw}");
    assert_eq!(poll_until_done(addr, "hdr-1").trace, header);

    // The result carries the adopted id, not the one derived from the spec.
    let (status, body) = request(addr, "GET", "/jobs/hdr-1/result", None);
    assert_eq!(status, 200, "{body}");
    let result: JobResult = serde_json::from_str(&body).expect("result json");
    assert_eq!(result.trace, header);

    // The engine's stage spans hang under the adopted trace's root.
    let children = job_span_children(addr, header);
    for child in ["queue_wait", "prep", "optimize", "done"] {
        assert!(
            children.iter().any(|c| c == child),
            "missing {child} under the job span: {children:?}"
        );
    }

    // The stage exemplars name the adopted trace too.
    let (_, metrics) = request(addr, "GET", "/metrics", None);
    for family in ["job_prep_ms", "job_optimize_ms", "job_total_ms"] {
        let line = format!("# EXEMPLAR {family}{{trace_id=\"{header}\"}} ");
        assert!(metrics.contains(&line), "missing {line:?}: {metrics}");
    }

    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

#[test]
fn queue_overflow_returns_429_and_cancellation_works() {
    // One worker and a tiny queue: hold the worker busy with slow jobs, overflow the
    // queue, then cancel a queued job.
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        queue_capacity: 2,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());

    // Slow-ish jobs: enough restarts that the queue backs up behind the single worker.
    let slow = |id: &str, seed: u64| {
        let mut spec = sample_spec(id);
        spec.p = 3;
        spec.seed = seed;
        spec.optimizer = OptimizerSpec::RandomRestart { restarts: 60 };
        serde_json::to_string(&spec).unwrap()
    };
    let mut accepted = Vec::new();
    let mut rejected = 0;
    for i in 0..8 {
        let (status, _) = request(
            addr,
            "POST",
            "/jobs",
            Some(&slow(&format!("q{i}"), i as u64)),
        );
        match status {
            202 => accepted.push(format!("q{i}")),
            429 => rejected += 1,
            other => panic!("unexpected status {other}"),
        }
    }
    assert!(rejected > 0, "tiny queue must overflow");
    assert!(accepted.len() >= 2, "some jobs must be accepted");

    // Cancel the last accepted job; it must reach a terminal state quickly.
    let last = accepted.last().unwrap().clone();
    let (status, _) = request(addr, "POST", &format!("/jobs/{last}/cancel"), None);
    assert_eq!(status, 200);
    let final_status = poll_until_done(addr, &last);
    assert!(
        final_status.status == "cancelled" || final_status.status == "done",
        "cancelled job ended as {}",
        final_status.status
    );

    // Drain the rest so shutdown joins promptly.
    for id in &accepted {
        poll_until_done(addr, id);
    }
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    handle.join().expect("server thread");
}

/// Every route the serve tier declares, in table order: its own routes, then
/// the shared ops entries.  `GET /` must list exactly these.
const SERVE_ROUTES: [(&str, &str); 13] = [
    ("POST", "/jobs"),
    ("GET", "/jobs/:id"),
    ("GET", "/jobs/:id/result"),
    ("POST", "/jobs/:id/cancel"),
    ("GET", "/metrics"),
    ("GET", "/stats"),
    ("GET", "/readyz"),
    ("GET", "/"),
    ("GET", "/healthz"),
    ("GET", "/version"),
    ("GET", "/trace"),
    ("GET", "/trace/:id"),
    ("POST", "/shutdown"),
];

#[test]
fn the_route_table_drives_dispatch_and_the_index() {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    // A real job fills every `:id`: its trace id under `/trace`, its job id
    // everywhere else.
    let spec_json = serde_json::to_string(&sample_spec("walk-1")).unwrap();
    assert_eq!(request(addr, "POST", "/jobs", Some(&spec_json)).0, 202);
    let job = poll_until_done(addr, "walk-1");

    // `GET /` lists exactly the table, each route with a summary.
    let (status, body) = request(addr, "GET", "/", None);
    assert_eq!(status, 200);
    let index: Value = serde_json::from_str(&body).expect("index json");
    let field = |r: &Value, k: &str| r.get_field(k).and_then(Value::as_str).map(String::from);
    let listed: Vec<(String, String)> = index
        .get_field("routes")
        .and_then(Value::as_array)
        .expect("routes")
        .iter()
        .map(|r| {
            assert!(field(r, "summary").is_some_and(|s| !s.is_empty()), "{r:?}");
            (field(r, "method").unwrap(), field(r, "path").unwrap())
        })
        .collect();
    let declared: Vec<(String, String)> = SERVE_ROUTES
        .iter()
        .map(|(m, p)| (m.to_string(), p.to_string()))
        .collect();
    assert_eq!(listed, declared);

    // Every declared route answers; the same path with the other method is a
    // 405.  `POST /shutdown` goes last, since it stops the server.
    for (i, (method, path)) in SERVE_ROUTES.iter().enumerate() {
        let id = if path.starts_with("/trace") {
            &job.trace
        } else {
            "walk-1"
        };
        let target = path.replace(":id", id);
        let other = if *method == "GET" { "POST" } else { "GET" };
        let (status, _) = request(addr, other, &target, None);
        assert_eq!(status, 405, "{other} {target}");
        if *path == "/shutdown" {
            continue;
        }
        let body = (*path == "/jobs")
            .then(|| serde_json::to_string(&sample_spec(&format!("walk-post-{i}"))).unwrap());
        let (status, reply) = request(addr, method, &target, body.as_deref());
        assert!(
            status != 404 && status != 405,
            "{method} {target} answered {status}: {reply}"
        );
    }
    // Undeclared paths are 404s, whatever the method.
    for (method, path) in [
        ("GET", "/nope"),
        ("POST", "/jobs/walk-1/nope"),
        ("GET", "/trace/a/b"),
    ] {
        assert_eq!(request(addr, method, path, None).0, 404, "{method} {path}");
    }
    assert_eq!(request(addr, "POST", "/shutdown", None).0, 200);
    handle.join().expect("server thread");
}

#[test]
fn unaddressable_job_ids_are_refused_at_submit() {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let handle = std::thread::spawn(move || server.run().unwrap());
    // `GET /jobs/a?b` would strip the query and `GET /jobs/x/result` would read
    // job `x`: neither id could be polled, so neither is accepted.
    for id in ["a?b", "x/result"] {
        let spec_json = serde_json::to_string(&sample_spec(id)).unwrap();
        let (status, body) = request(addr, "POST", "/jobs", Some(&spec_json));
        assert_eq!(status, 400, "{id}: {body}");
        assert!(body.contains("must not contain"), "{body}");
    }
    let (_, body) = request(addr, "GET", "/stats", None);
    let metrics: MetricsBody = serde_json::from_str(&body).expect("metrics json");
    assert_eq!(metrics.jobs_submitted, 0);
    assert_eq!(request(addr, "POST", "/shutdown", None).0, 200);
    handle.join().expect("server thread");
}

#[test]
fn a_shutdown_with_a_running_job_ends_when_the_job_does() {
    // `POST /shutdown` while a job runs starts the drain, and no client
    // connects after it.  The accept loop is blocked in accept() by then, so
    // only the thread that joins the workers can end the drain: it must wake
    // the loop once the job is done.
    let results = std::env::temp_dir().join(format!(
        "juliqaoa_e2e_shutdown_drain_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&results);
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        results_path: Some(results.clone()),
        ..ServerConfig::default()
    })
    .expect("bind");
    let addr = server.local_addr().unwrap();
    let (returned, server_returned) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = returned.send(server.run().is_ok());
    });

    let mut slow = sample_spec("drain-running");
    slow.problem = ProblemSpec::MaxCutGnp { n: 10, instance: 0 };
    slow.optimizer = OptimizerSpec::GridSearch { resolution: 70 };
    let json = serde_json::to_string(&slow).unwrap();
    let (status, body) = request(addr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202, "{body}");
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = request(addr, "GET", "/jobs/drain-running", None);
        let job: JobStatusBody = serde_json::from_str(&body).expect("status json");
        if job.status == "running" {
            break;
        }
        assert_eq!(
            job.status, "queued",
            "the job must still be running: {body}"
        );
        assert!(Instant::now() < deadline, "the job never started");
        std::thread::sleep(Duration::from_millis(2));
    }
    let (status, _) = request(addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);

    let outcome = server_returned.recv_timeout(Duration::from_secs(30));
    assert_eq!(
        outcome,
        Ok(true),
        "the server did not return once its running job finished"
    );
    // The job ran to the end under the drain; the drain budget (10 s by
    // default) did not cancel it.
    let text = std::fs::read_to_string(&results).unwrap_or_default();
    assert!(text.contains("drain-running"), "{text}");
    assert!(text.contains("\"status\":\"done\""), "{text}");
    let _ = std::fs::remove_file(&results);
}
