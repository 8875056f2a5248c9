//! Process-level chaos: real `qaoa-service` backend *processes* under a
//! cluster router, with seeded fault plans injected per-child through
//! `JULIQAOA_FAULT_PLAN`.
//!
//! The headline property is **topology independence**: a router in front of
//! {1, 2, 3} backend processes — one of which is killed mid-batch by a
//! kill-after-k-jobs fault — produces an FNV result digest byte-identical to
//! the uninterrupted single-process reference, and the client never sees a
//! 5xx.  Sibling scenarios cover reads waiting out a slow owner, probe
//! blackholes tripping the circuit breaker, and crash-looping shard children
//! under `batch --shard-workers`.

use juliqaoa_service::{
    journal, BatchOptions, Engine, HashRing, JobFile, JobResult, JobSpec, JobStatusBody, MixerSpec,
    OpsConfig, OptimizerSpec, ProblemSpec, Router, RouterConfig, RouterStatsBody,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_qaoa-service");

fn temp_path(tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicUsize, Ordering};
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let id = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("juliqaoa_chaos_{tag}_{}_{id}", std::process::id()))
}

// ---------------------------------------------------------------------------
// Backend child processes
// ---------------------------------------------------------------------------

/// One real backend process: spawned with `serve --addr 127.0.0.1:0`, its
/// bound address parsed from the startup banner on stderr.
struct BackendProc {
    child: Child,
    addr: String,
}

impl BackendProc {
    /// Spawns a backend, optionally pinned to a fixed address and/or carrying
    /// an inline fault plan in its (and only its) environment.
    fn spawn(addr: &str, fault_plan: Option<&str>) -> BackendProc {
        let mut cmd = Command::new(EXE);
        cmd.arg("serve")
            .arg("--addr")
            .arg(addr)
            .arg("--workers")
            .arg("2")
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        // The fault plan rides the child's env: it is read exactly once at
        // child startup, so each backend can carry a different plan.
        match fault_plan {
            Some(plan) => cmd.env("JULIQAOA_FAULT_PLAN", plan),
            None => cmd.env_remove("JULIQAOA_FAULT_PLAN"),
        };
        let mut child = cmd.spawn().expect("spawn backend");
        let stderr = child.stderr.take().expect("backend stderr");
        let mut lines = BufReader::new(stderr).lines();
        let bound = loop {
            let line = lines
                .next()
                .expect("backend exited before banner")
                .expect("read backend stderr");
            if let Some(rest) = line.split("listening on http://").nth(1) {
                break rest
                    .split_whitespace()
                    .next()
                    .expect("addr in banner")
                    .to_string();
            }
        };
        // Keep draining stderr so the child never blocks on a full pipe.
        std::thread::spawn(move || while let Some(Ok(_)) = lines.next() {});
        BackendProc { child, addr: bound }
    }

    fn kill(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

// ---------------------------------------------------------------------------
// HTTP + spec helpers
// ---------------------------------------------------------------------------

fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
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
    let payload = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, payload)
}

fn spec(id: &str, instance: u64) -> JobSpec {
    JobSpec {
        id: id.into(),
        problem: ProblemSpec::MaxCutGnp { n: 7, instance },
        mixer: MixerSpec::TransverseField,
        p: 1,
        optimizer: OptimizerSpec::GridSearch { resolution: 8 },
        seed: 11 + instance,
        sampling: None,
        timeout_ms: None,
    }
}

/// The router's routing key for a spec: the canonical instance fingerprint.
fn routing_key(s: &JobSpec) -> u64 {
    s.problem.build().expect("build problem").instance_id.raw()
}

fn start_router(backends: Vec<String>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut config = RouterConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        ..RouterConfig::default()
    };
    config.cluster.backends = backends;
    config.cluster.probe_interval_ms = 50;
    config.cluster.probe_timeout_ms = 400;
    config.cluster.trip_after = 2;
    config.cluster.retry.max_retries = 3;
    config.cluster.retry.base_delay_ms = 5;
    config.cluster.retry.max_delay_ms = 50;
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr().unwrap();
    let handle = std::thread::spawn(move || router.run().unwrap());
    (addr, handle)
}

/// Polls a job through the router until it reaches a terminal state, asserting
/// the router never answers a 5xx (failover must be invisible to the client).
fn poll_done_no_5xx(router: SocketAddr, id: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let (status, body) = request(router, "GET", &format!("/jobs/{id}"), None);
        assert!(
            status < 500,
            "router served {status} for {id} (5xx leaked through failover): {body}"
        );
        if status == 200 {
            let parsed: JobStatusBody = serde_json::from_str(&body).expect("status json");
            if parsed.status == "done" {
                return;
            }
            assert!(
                matches!(parsed.status.as_str(), "queued" | "running"),
                "job {id} ended as {:?}",
                parsed.status
            );
        }
        assert!(Instant::now() < deadline, "job {id} never finished");
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// FNV-1a digest over sorted `(id, expectation bits, angle bits)` triples —
/// the same result fingerprint the bench harness asserts on.
fn digest(results: &mut [(String, u64, Vec<u64>)]) -> u64 {
    results.sort();
    let mut h = juliqaoa_problems::Fnv64::new();
    for (id, expectation, angles) in results.iter() {
        h.write_str(id);
        h.write_u64(*expectation);
        for a in angles {
            h.write_u64(*a);
        }
    }
    h.finish()
}

fn result_triple(body: &str) -> (String, u64, Vec<u64>) {
    let r: JobResult = serde_json::from_str(body).expect("result json");
    (
        r.id,
        r.expectation.to_bits(),
        r.angles.iter().map(|a| a.to_bits()).collect(),
    )
}

// ---------------------------------------------------------------------------
// Scenario 1: topology sweep with a seeded mid-batch backend kill
// ---------------------------------------------------------------------------

#[test]
fn mid_batch_backend_kill_is_topology_independent() {
    let specs: Vec<JobSpec> = (0..8).map(|i| spec(&format!("chaos-{i}"), i)).collect();

    // Uninterrupted single-process reference digest, straight off the engine.
    let engine = Engine::new(8);
    let mut reference: Vec<(String, u64, Vec<u64>)> = specs
        .iter()
        .map(|s| {
            let r = engine
                .run_job(s, &juliqaoa_optim::RunControl::new())
                .unwrap();
            (
                s.id.clone(),
                r.expectation.to_bits(),
                r.angles.iter().map(|a| a.to_bits()).collect(),
            )
        })
        .collect();
    let reference = digest(&mut reference);

    for nodes in [1usize, 2, 3] {
        // Spawn the topology healthy first: victim selection needs the bound
        // addresses, because placement hashes (addr, replica) onto the ring.
        let mut backends: Vec<BackendProc> = (0..nodes)
            .map(|_| BackendProc::spawn("127.0.0.1:0", None))
            .collect();
        let addrs: Vec<String> = backends.iter().map(|b| b.addr.clone()).collect();

        if nodes >= 2 {
            // Pick the backend that owns the most jobs and relaunch it on the
            // same port with a seeded kill-after-2-jobs fault: it will finish
            // two jobs and then abort mid-batch, guaranteeing lost work.
            let ring = HashRing::new(&addrs);
            let mut owned = vec![0usize; nodes];
            for s in &specs {
                owned[ring.primary(routing_key(s)).unwrap()] += 1;
            }
            let victim = (0..nodes).max_by_key(|&i| owned[i]).unwrap();
            assert!(
                owned[victim] >= 3,
                "victim owns too few jobs for the kill to lose work: {owned:?}"
            );
            let victim_addr = addrs[victim].clone();
            backends.remove(victim).kill();
            let faulted = BackendProc::spawn(&victim_addr, Some("{\"kill_after_jobs\": 2}"));
            assert_eq!(faulted.addr, victim_addr, "victim must rebind its port");
            backends.insert(victim, faulted);
        }

        let (router, router_handle) = start_router(addrs);
        for s in &specs {
            let json = serde_json::to_string(s).unwrap();
            let (status, body) = request(router, "POST", "/jobs", Some(&json));
            assert_eq!(
                status, 202,
                "[{nodes} nodes] submit {} failed: {body}",
                s.id
            );
        }
        for s in &specs {
            poll_done_no_5xx(router, &s.id);
        }
        let mut triples = Vec::new();
        for s in &specs {
            let deadline = Instant::now() + Duration::from_secs(60);
            loop {
                let (status, body) =
                    request(router, "GET", &format!("/jobs/{}/result", s.id), None);
                assert!(
                    status < 500,
                    "[{nodes} nodes] result 5xx for {}: {body}",
                    s.id
                );
                if status == 200 {
                    triples.push(result_triple(&body));
                    break;
                }
                // The owner died between the done-poll and this read: the
                // router re-routed and the job is re-running on a survivor.
                assert!(
                    Instant::now() < deadline,
                    "result for {} never settled",
                    s.id
                );
                std::thread::sleep(Duration::from_millis(25));
            }
        }
        assert_eq!(
            digest(&mut triples),
            reference,
            "[{nodes} nodes] digest diverged from the uninterrupted reference"
        );

        if nodes >= 2 {
            // The kill must actually have forced re-routing.
            let (status, metrics) = request(router, "GET", "/metrics", None);
            assert_eq!(status, 200);
            let failovers: u64 = metrics
                .lines()
                .find_map(|l| l.strip_prefix("cluster_failovers_total "))
                .expect("cluster_failovers_total in exposition")
                .trim()
                .parse()
                .unwrap();
            assert!(
                failovers >= 1,
                "[{nodes} nodes] no failover recorded:\n{metrics}"
            );
            let (_, stats) = request(router, "GET", "/stats", None);
            let stats: RouterStatsBody = serde_json::from_str(&stats).unwrap();
            assert!(stats.failovers >= 1);
        }

        let (status, _) = request(router, "POST", "/shutdown", None);
        assert_eq!(status, 200);
        router_handle.join().unwrap();
        backends.into_iter().for_each(BackendProc::kill);
    }
}

// ---------------------------------------------------------------------------
// Scenario 2: a slow owner is waited out, not failed over
// ---------------------------------------------------------------------------

#[test]
fn reads_wait_out_a_slow_owner_without_failing_over() {
    // Backend A answers every request ~300 ms late; backend B is healthy.
    let slow = BackendProc::spawn("127.0.0.1:0", Some("{\"slow_response_ms\": 300}"));
    let fast = BackendProc::spawn("127.0.0.1:0", None);
    let addrs = vec![slow.addr.clone(), fast.addr.clone()];

    // Find a job whose primary is the slow backend.
    let ring = HashRing::new(&addrs);
    let s = (0..500u64)
        .map(|i| spec(&format!("slow-{i}"), i))
        .find(|s| ring.primary(routing_key(s)) == Some(0))
        .expect("some instance lands on the slow backend");

    let (router, router_handle) = start_router(addrs);
    let json = serde_json::to_string(&s).unwrap();
    let (status, body) = request(router, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202, "{body}");

    // Every read goes to the slow owner and returns its answer.
    poll_done_no_5xx(router, &s.id);
    let (status, body) = request(router, "GET", &format!("/jobs/{}/result", s.id), None);
    assert_eq!(status, 200, "{body}");
    let engine = Engine::new(8);
    let direct = engine
        .run_job(&s, &juliqaoa_optim::RunControl::new())
        .unwrap();
    let routed: JobResult = serde_json::from_str(&body).unwrap();
    assert_eq!(routed.expectation.to_bits(), direct.expectation.to_bits());

    // Slow is not dead: the job never moved.
    let (status, metrics) = request(router, "GET", "/metrics", None);
    assert_eq!(status, 200);
    let failovers = metrics
        .lines()
        .find_map(|l| l.strip_prefix("cluster_failovers_total "))
        .expect("cluster_failovers_total in exposition");
    assert_eq!(failovers.trim(), "0", "a slow owner was failed over");

    let (status, _) = request(router, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    router_handle.join().unwrap();
    slow.kill();
    fast.kill();
}

// ---------------------------------------------------------------------------
// Scenario 3: a probe blackhole trips the breaker and traffic routes around
// ---------------------------------------------------------------------------

#[test]
fn probe_blackholed_backend_trips_and_submissions_route_around_it() {
    // Backend A swallows health probes (connection accepted, never answered);
    // backend B is healthy.  A is otherwise perfectly able to run jobs — the
    // breaker must trip on probe evidence alone.
    let hole = BackendProc::spawn("127.0.0.1:0", Some("{\"probe_blackhole\": true}"));
    let live = BackendProc::spawn("127.0.0.1:0", None);
    let addrs = vec![hole.addr.clone(), live.addr.clone()];
    let ring = HashRing::new(&addrs);
    let s = (0..500u64)
        .map(|i| spec(&format!("hole-{i}"), i))
        .find(|s| ring.primary(routing_key(s)) == Some(0))
        .expect("some instance lands on the blackholed backend");

    let (router, router_handle) = start_router(addrs);

    // Wait for the prober to trip the blackholed backend out of the live set.
    let deadline = Instant::now() + Duration::from_secs(15);
    let stats = loop {
        let (status, body) = request(router, "GET", "/stats", None);
        assert_eq!(status, 200);
        let stats: RouterStatsBody = serde_json::from_str(&body).unwrap();
        if stats.backends_live == 1 {
            break stats;
        }
        assert!(Instant::now() < deadline, "breaker never tripped: {body}");
        std::thread::sleep(Duration::from_millis(50));
    };
    let hole_stats = stats
        .backends
        .iter()
        .find(|b| b.addr == hole.addr)
        .expect("blackholed backend in stats");
    assert_eq!(hole_stats.state, "down");
    assert!(hole_stats.trips >= 1, "trip counter not bumped: {stats:?}");

    // A submission whose primary is the blackholed backend routes straight to
    // the survivor — no client-visible error, job completes there.
    let json = serde_json::to_string(&s).unwrap();
    let (status, body) = request(router, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202, "{body}");
    poll_done_no_5xx(router, &s.id);
    let (status, _) = request(router, "GET", &format!("/jobs/{}/result", s.id), None);
    assert_eq!(status, 200);
    // The job never reached the blackholed backend.
    let hole_addr: SocketAddr = hole.addr.parse().unwrap();
    let (status, _) = request(hole_addr, "GET", &format!("/jobs/{}", s.id), None);
    assert_eq!(status, 404, "job leaked onto a tripped backend");

    let (status, _) = request(router, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    router_handle.join().unwrap();
    hole.kill();
    live.kill();
}

// ---------------------------------------------------------------------------
// Scenario 4: crash-looping shard children under batch --shard-workers
// ---------------------------------------------------------------------------

#[test]
fn sharded_batch_survives_crash_looping_children_and_matches_unsharded_digest() {
    let specs: Vec<JobSpec> = (0..6).map(|i| spec(&format!("shard-{i}"), i)).collect();
    let job_path = temp_path("jobs").with_extension("json");
    std::fs::write(
        &job_path,
        serde_json::to_string(&JobFile {
            jobs: specs.clone(),
        })
        .unwrap(),
    )
    .unwrap();

    // Unsharded in-process reference.
    let ref_path = temp_path("ref").with_extension("jsonl");
    let engine = Engine::new(8);
    let summary =
        juliqaoa_service::run_batch_with(&engine, &specs, &ref_path, &BatchOptions::default())
            .unwrap();
    assert_eq!(summary.failed, 0);
    let reference = digest_jsonl(&ref_path);

    // Sharded runs at every node count, children crash-looping: every shard
    // child aborts after its 2nd journalled job and is restarted with resume.
    for shards in [1usize, 2, 3] {
        let out_path = temp_path(&format!("out{shards}")).with_extension("jsonl");
        let trace_path = temp_path(&format!("trace{shards}")).with_extension("jsonl");
        let mut cmd = Command::new(EXE);
        cmd.arg("batch")
            .arg(&job_path)
            .arg("--out")
            .arg(&out_path)
            .arg("--trace-out")
            .arg(&trace_path)
            .arg("--shard-workers")
            .arg(shards.to_string());
        // shards == 1 executes in the parent process, where a kill fault would
        // abort the run itself with no supervisor to restart it — the chaos
        // only applies where supervision exists.
        if shards > 1 {
            cmd.env("JULIQAOA_FAULT_PLAN", "{\"kill_after_jobs\": 2}");
        } else {
            cmd.env_remove("JULIQAOA_FAULT_PLAN");
        }
        let output = cmd.output().expect("run sharded batch");
        assert!(
            output.status.success(),
            "[{shards} shards] batch failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert_eq!(
            digest_jsonl(&out_path),
            reference,
            "[{shards} shards] digest diverged from the unsharded reference"
        );
        if shards > 1 {
            // The parent journal holds the batch root span and one "shard"
            // span per child, all under one batch trace id; each child's own
            // `.shard-k` journal closes a "batch_shard" span under the span id
            // the parent handed it through the environment — even across the
            // chaos restarts.
            let parent = std::fs::read_to_string(&trace_path).expect("parent trace journal");
            let batch_line = parent
                .lines()
                .find(|l| l.starts_with("{\"span\":\"batch\""))
                .unwrap_or_else(|| panic!("[{shards} shards] no batch root span:\n{parent}"));
            let batch_trace = batch_line
                .split("\"trace\":\"")
                .nth(1)
                .and_then(|s| s.get(..16))
                .expect("batch span has a trace id");
            let shard_spans = parent
                .lines()
                .filter(|l| l.starts_with("{\"span\":\"shard\"") && l.contains(batch_trace))
                .count();
            assert_eq!(
                shard_spans, shards,
                "[{shards} shards] parent journal shard spans:\n{parent}"
            );
            for k in 0..shards {
                let mut child_path = trace_path.as_os_str().to_os_string();
                child_path.push(format!(".shard-{k}"));
                let child = std::fs::read_to_string(&child_path)
                    .unwrap_or_else(|e| panic!("[{shards} shards] child journal {k}: {e}"));
                assert!(
                    child
                        .lines()
                        .any(|l| l.starts_with("{\"span\":\"batch_shard\"")
                            && l.contains(batch_trace)),
                    "[{shards} shards] child {k} has no batch_shard span under \
                     {batch_trace}:\n{child}"
                );
                let _ = std::fs::remove_file(&child_path);
            }
        }
        let _ = std::fs::remove_file(&out_path);
        let _ = std::fs::remove_file(&trace_path);
    }
    let _ = std::fs::remove_file(&job_path);
    let _ = std::fs::remove_file(&ref_path);
}

/// Digest of a results JSONL file: checksummed frames stripped, `done` lines
/// reduced to `(id, expectation bits, angle bits)`.
fn digest_jsonl(path: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(path).expect("read results");
    let mut triples = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        let body = journal::strip_frame(line).expect("valid journal line");
        let r: JobResult = serde_json::from_str(&body).expect("result json");
        assert_eq!(
            r.status,
            "done",
            "unexpected line in {}: {body}",
            path.display()
        );
        triples.push((
            r.id,
            r.expectation.to_bits(),
            r.angles.iter().map(|a| a.to_bits()).collect(),
        ));
    }
    digest(&mut triples)
}
