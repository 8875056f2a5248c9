//! In-process cluster e2e: a real [`Router`] in front of real [`Server`]
//! backends, all on loopback sockets — routing, affinity, health transitions,
//! failover on a dead backend, and the readiness split.

use juliqaoa_service::{
    JobResult, JobSpec, JobStatusBody, MixerSpec, OpsConfig, OptimizerSpec, ProblemSpec, Router,
    RouterConfig, RouterStatsBody, Server, ServerConfig, RETAINED_TERMINAL_JOBS,
};
use serde::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

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

/// An in-process backend: a bound server, its address, and the stop flag plus
/// join handle needed to kill it mid-test.
struct TestBackend {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

fn start_backend() -> TestBackend {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind backend");
    let addr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::spawn(move || server.run_until(&stop).unwrap())
    };
    TestBackend { addr, stop, handle }
}

fn start_router(
    backends: Vec<String>,
    hedge_after_ms: Option<u64>,
) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let mut config = RouterConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        hedge_after_ms,
        ..RouterConfig::default()
    };
    config.cluster.backends = backends;
    config.cluster.probe_interval_ms = 50;
    config.cluster.probe_timeout_ms = 500;
    config.cluster.trip_after = 2;
    config.cluster.retry.max_retries = 3;
    config.cluster.retry.base_delay_ms = 5;
    config.cluster.retry.max_delay_ms = 50;
    config.backend_timeout_ms = 10_000;
    let router = Router::bind(config).expect("bind router");
    let addr = router.local_addr().unwrap();
    let handle = std::thread::spawn(move || router.run().unwrap());
    (addr, handle)
}

fn poll_until_done(addr: SocketAddr, id: &str) -> JobStatusBody {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let (status, body) = request(addr, "GET", &format!("/jobs/{id}"), None);
        assert_eq!(status, 200, "status poll for {id} failed: {body}");
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
fn router_proxies_jobs_across_backends_and_results_match_direct_runs() {
    let b1 = start_backend();
    let b2 = start_backend();
    let (router, router_handle) =
        start_router(vec![b1.addr.to_string(), b2.addr.to_string()], None);

    // Bad specs die at the router with a 400 — no backend round-trip.
    let (status, _) = request(router, "POST", "/jobs", Some("not json"));
    assert_eq!(status, 400);
    let (status, _) = request(router, "GET", "/jobs/ghost", None);
    assert_eq!(status, 404);

    // Submit jobs across several instances and run them all through the router.
    let specs: Vec<JobSpec> = (0..6).map(|i| spec(&format!("rt-{i}"), i)).collect();
    for s in &specs {
        let json = serde_json::to_string(s).unwrap();
        let (status, body) = request(router, "POST", "/jobs", Some(&json));
        assert_eq!(status, 202, "submit {} failed: {body}", s.id);
    }
    // Duplicate ids are caught by the router's own mapping.
    let dup = serde_json::to_string(&specs[0]).unwrap();
    let (status, _) = request(router, "POST", "/jobs", Some(&dup));
    assert_eq!(status, 409);

    for s in &specs {
        assert_eq!(poll_until_done(router, &s.id).status, "done");
    }
    // Routed results are bit-identical to direct engine runs: the cluster tier
    // must not change the physics.
    let engine = juliqaoa_service::Engine::new(8);
    for s in &specs {
        let (status, body) = request(router, "GET", &format!("/jobs/{}/result", s.id), None);
        assert_eq!(status, 200, "{body}");
        let routed: JobResult = serde_json::from_str(&body).expect("result json");
        let direct = engine
            .run_job(s, &juliqaoa_optim::RunControl::new())
            .unwrap();
        assert_eq!(routed.expectation.to_bits(), direct.expectation.to_bits());
        assert_eq!(routed.angles, direct.angles);
    }

    // Same instance → same backend (affinity): resubmitting a spec under a new
    // id must land where the first copy went, which we verify indirectly — the
    // stats stay consistent and no failovers happened in a healthy cluster.
    let (status, body) = request(router, "GET", "/stats", None);
    assert_eq!(status, 200);
    let stats: RouterStatsBody = serde_json::from_str(&body).expect("stats json");
    assert_eq!(stats.jobs_routed, 6);
    assert_eq!(stats.failovers, 0);
    assert_eq!(stats.backends.len(), 2);
    assert_eq!(stats.backends_live, 2);

    // Prometheus exposition carries the per-backend families.
    let (status, metrics) = request(router, "GET", "/metrics", None);
    assert_eq!(status, 200);
    assert!(
        metrics.contains("cluster_backend_up{backend=\""),
        "{metrics}"
    );
    assert!(metrics.contains("cluster_failovers_total 0"), "{metrics}");
    assert!(metrics.contains("route_submit_ms_count"), "{metrics}");

    // The trace ring saw the backends come up.
    let (status, trace) = request(router, "GET", "/trace", None);
    assert_eq!(status, 200);
    assert!(trace.contains("backend_up"), "{trace}");

    let (status, _) = request(router, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    router_handle.join().unwrap();
    for b in [b1, b2] {
        b.stop.store(true, std::sync::atomic::Ordering::SeqCst);
        b.handle.join().unwrap();
    }
}

#[test]
fn router_fails_over_reads_when_a_backend_dies_and_serves_no_5xx() {
    let b1 = start_backend();
    let b2 = start_backend();
    let (router, router_handle) =
        start_router(vec![b1.addr.to_string(), b2.addr.to_string()], None);

    let specs: Vec<JobSpec> = (0..6).map(|i| spec(&format!("fo-{i}"), i)).collect();
    for s in &specs {
        let json = serde_json::to_string(s).unwrap();
        let (status, body) = request(router, "POST", "/jobs", Some(&json));
        assert_eq!(status, 202, "submit {} failed: {body}", s.id);
    }
    for s in &specs {
        assert_eq!(poll_until_done(router, &s.id).status, "done");
    }

    // Kill backend 2 outright: its listener closes, so every job it owned has
    // a dead owner from the router's point of view.
    b2.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    b2.handle.join().unwrap();

    // Every result read must still answer 2xx: owned-by-live reads proxy
    // straight through, owned-by-dead reads re-route the job to the survivor
    // and re-poll.  The client never sees a 5xx.
    let engine = juliqaoa_service::Engine::new(8);
    for s in &specs {
        let deadline = Instant::now() + Duration::from_secs(30);
        let result = loop {
            let (status, body) = request(router, "GET", &format!("/jobs/{}/result", s.id), None);
            assert!(
                status < 500,
                "router served a 5xx for {} during failover: {status} {body}",
                s.id
            );
            if status == 200 {
                break serde_json::from_str::<JobResult>(&body).expect("result json");
            }
            // 409 = re-routed job is re-running on the survivor; poll on.
            assert!(Instant::now() < deadline, "job {} never recovered", s.id);
            std::thread::sleep(Duration::from_millis(20));
        };
        let direct = engine
            .run_job(s, &juliqaoa_optim::RunControl::new())
            .unwrap();
        assert_eq!(
            result.expectation.to_bits(),
            direct.expectation.to_bits(),
            "failover changed the result of {}",
            s.id
        );
    }

    // The dead backend's jobs were re-routed: failovers must be visible, and
    // the prober must have taken the backend out of the live set.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (status, body) = request(router, "GET", "/stats", None);
        assert_eq!(status, 200);
        let stats: RouterStatsBody = serde_json::from_str(&body).expect("stats json");
        if stats.backends_live == 1 && stats.failovers >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prober never tripped the dead backend: {body}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
    let (_, metrics) = request(router, "GET", "/metrics", None);
    assert!(metrics.contains("cluster_backend_up"), "{metrics}");
    let has_failover = metrics
        .lines()
        .any(|l| l.starts_with("cluster_failovers_total") && !l.ends_with(" 0"));
    assert!(has_failover, "{metrics}");

    let (status, _) = request(router, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    router_handle.join().unwrap();
    b1.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    b1.handle.join().unwrap();
}

#[test]
fn distributed_trace_spans_router_and_backend() {
    // One backend and one router, both mirroring spans to `--trace-out`
    // journals: a routed job must carry ONE trace id end to end — the header
    // the router sends, the id the backend adopts, the line in both journals
    // and the merged `/trace/:id` tree.
    let tmp = std::env::temp_dir();
    let backend_trace = tmp.join(format!(
        "juliqaoa_cluster_backend_trace_{}.jsonl",
        std::process::id()
    ));
    let router_trace = tmp.join(format!(
        "juliqaoa_cluster_router_trace_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&backend_trace);
    let _ = std::fs::remove_file(&router_trace);

    let server = Server::bind(ServerConfig {
        ops: OpsConfig {
            trace_path: Some(backend_trace.clone()),
            ..OpsConfig::at("127.0.0.1:0")
        },
        workers: 2,
        queue_capacity: 32,
        cache_capacity: 8,
        ..ServerConfig::default()
    })
    .expect("bind backend");
    let baddr = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let bhandle = {
        let stop = stop.clone();
        std::thread::spawn(move || server.run_until(&stop).unwrap())
    };

    let mut config = RouterConfig {
        ops: OpsConfig {
            trace_path: Some(router_trace.clone()),
            ..OpsConfig::at("127.0.0.1:0")
        },
        ..RouterConfig::default()
    };
    config.cluster.backends = vec![baddr.to_string()];
    config.cluster.probe_interval_ms = 50;
    let router = Router::bind(config).expect("bind router");
    let raddr = router.local_addr().unwrap();
    let rhandle = std::thread::spawn(move || router.run().unwrap());

    let s = spec("trace-1", 0);
    let expected = s.trace_id().unwrap().to_hex();
    let json = serde_json::to_string(&s).unwrap();
    let (status, body) = request(raddr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202, "{body}");
    let final_status = poll_until_done(raddr, "trace-1");
    assert_eq!(final_status.status, "done");
    assert_eq!(
        final_status.trace, expected,
        "the backend must adopt the trace id from the router's header"
    );

    // The router's `/trace/:id` merges its own route_submit span with the
    // backend's job tree.  The backend records its root span a beat after the
    // status flips, so poll briefly.
    let deadline = Instant::now() + Duration::from_secs(5);
    let tree = loop {
        let (status, body) = request(raddr, "GET", &format!("/trace/{expected}"), None);
        if status == 200
            && body.contains("\"span\": \"job\"")
            && body.contains("\"span\": \"route_submit\"")
        {
            break body;
        }
        assert!(
            Instant::now() < deadline,
            "merged trace never materialised: {status} {body}"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    for name in ["queue_wait", "prep", "optimize"] {
        assert!(
            tree.contains(&format!("\"span\": \"{name}\"")),
            "missing backend span {name} in merged tree: {tree}"
        );
    }
    assert!(tree.contains(&format!("\"trace\": \"{expected}\"")));

    // The route tier answers /version like the serve tier does.
    let (status, version) = request(raddr, "GET", "/version", None);
    assert_eq!(status, 200);
    assert!(version.contains("\"profile\""), "{version}");

    let (status, _) = request(raddr, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    rhandle.join().unwrap();
    stop.store(true, std::sync::atomic::Ordering::SeqCst);
    bhandle.join().unwrap();

    // Both processes mirrored spans carrying the SAME trace id to their own
    // journals — the cross-process correlation the CI smoke greps for.
    let router_journal = std::fs::read_to_string(&router_trace).expect("router journal");
    let backend_journal = std::fs::read_to_string(&backend_trace).expect("backend journal");
    for (tier, journal) in [("router", &router_journal), ("backend", &backend_journal)] {
        assert!(
            journal
                .lines()
                .any(|l| l.starts_with("{\"span\":") && l.contains(&expected)),
            "{tier} journal must hold a span with trace {expected}:\n{journal}"
        );
    }
    let _ = std::fs::remove_file(&backend_trace);
    let _ = std::fs::remove_file(&router_trace);
}

#[test]
fn router_readyz_requires_a_live_backend() {
    // A router whose only backend does not exist: /healthz is alive, /readyz
    // refuses until a backend is routable (which never happens here).
    let (router, router_handle) = start_router(vec!["127.0.0.1:1".into()], None);
    let (status, _) = request(router, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (status, _) = request(router, "GET", "/readyz", None);
        if status == 503 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "readyz never went 503 with a dead backend"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // Submissions are refused with 503, not 5xx-from-a-crash.
    let s = spec("nb-0", 0);
    let (status, body) = request(
        router,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&s).unwrap()),
    );
    assert_eq!(status, 503, "{body}");
    let (status, _) = request(router, "POST", "/shutdown", None);
    assert_eq!(status, 200);
    router_handle.join().unwrap();
}

#[test]
fn backend_readyz_splits_from_healthz_during_drain() {
    let backend = start_backend();
    // Fresh server: both probes pass.
    let (status, _) = request(backend.addr, "GET", "/healthz", None);
    assert_eq!(status, 200);
    let (status, body) = request(backend.addr, "GET", "/readyz", None);
    assert_eq!(status, 200, "{body}");

    // Park a slow job so the drain window is observable, then ask the server
    // to shut down.  While it drains: /readyz says 503 (route elsewhere),
    // /healthz still says 200 (alive, don't restart), new submissions get 503.
    let mut slow = spec("slow-drain", 9);
    slow.p = 2;
    slow.optimizer = OptimizerSpec::GridSearch { resolution: 60 };
    slow.timeout_ms = Some(3_000);
    let (status, body) = request(
        backend.addr,
        "POST",
        "/jobs",
        Some(&serde_json::to_string(&slow).unwrap()),
    );
    assert_eq!(status, 202, "{body}");
    let (status, _) = request(backend.addr, "POST", "/shutdown", None);
    assert_eq!(status, 200);

    let deadline = Instant::now() + Duration::from_secs(5);
    let mut saw_draining = false;
    while Instant::now() < deadline {
        // The listener may already be gone if the drain finished — that's the
        // end of the observable window, not a failure.
        let Ok(mut stream) = TcpStream::connect(backend.addr) else {
            break;
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let _ = write!(
            stream,
            "GET /readyz HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
        );
        let mut raw = String::new();
        if stream.read_to_string(&mut raw).is_err() || raw.is_empty() {
            break;
        }
        if raw.contains("503") && raw.contains("draining") {
            saw_draining = true;
            // And liveness still holds during the same window.
            let (status, _) = request(backend.addr, "GET", "/healthz", None);
            assert_eq!(status, 200);
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        saw_draining,
        "never observed the 503-draining /readyz window"
    );
    backend
        .stop
        .store(true, std::sync::atomic::Ordering::SeqCst);
    backend.handle.join().unwrap();
}

/// Every route the route tier declares, in table order: its own routes, then
/// the shared ops entries.  `GET /` must list exactly these.
const ROUTER_ROUTES: [(&str, &str); 13] = [
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
fn the_router_route_table_drives_dispatch_and_the_index() {
    let backend = start_backend();
    let (router, router_handle) = start_router(vec![backend.addr.to_string()], None);
    // A real routed job fills every `:id`: its trace id under `/trace`, its
    // job id everywhere else.
    let json = serde_json::to_string(&spec("rwalk-1", 0)).unwrap();
    assert_eq!(request(router, "POST", "/jobs", Some(&json)).0, 202);
    let job = poll_until_done(router, "rwalk-1");

    // `GET /` lists exactly the table, each route with a summary.
    let (status, body) = request(router, "GET", "/", None);
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
    let declared: Vec<(String, String)> = ROUTER_ROUTES
        .iter()
        .map(|(m, p)| (m.to_string(), p.to_string()))
        .collect();
    assert_eq!(listed, declared);

    // Every declared route answers; the same path with the other method is a
    // 405.  `POST /shutdown` goes last, since it stops the router.
    for (i, (method, path)) in ROUTER_ROUTES.iter().enumerate() {
        let id = if path.starts_with("/trace") {
            &job.trace
        } else {
            "rwalk-1"
        };
        let target = path.replace(":id", id);
        let other = if *method == "GET" { "POST" } else { "GET" };
        let (status, _) = request(router, other, &target, None);
        assert_eq!(status, 405, "{other} {target}");
        if *path == "/shutdown" {
            continue;
        }
        let body = (*path == "/jobs")
            .then(|| serde_json::to_string(&spec(&format!("rwalk-post-{i}"), 1)).unwrap());
        let (status, reply) = request(router, method, &target, body.as_deref());
        assert!(
            status != 404 && status != 405,
            "{method} {target} answered {status}: {reply}"
        );
    }
    for (method, path) in [
        ("GET", "/nope"),
        ("POST", "/jobs/rwalk-1/nope"),
        ("GET", "/trace/a/b"),
    ] {
        assert_eq!(
            request(router, method, path, None).0,
            404,
            "{method} {path}"
        );
    }
    assert_eq!(request(router, "POST", "/shutdown", None).0, 200);
    router_handle.join().unwrap();
    backend
        .stop
        .store(true, std::sync::atomic::Ordering::SeqCst);
    backend.handle.join().unwrap();
}

#[test]
fn unaddressable_job_ids_are_refused_at_the_router() {
    let backend = start_backend();
    let (router, router_handle) = start_router(vec![backend.addr.to_string()], None);
    for id in ["a?b", "x/result"] {
        let json = serde_json::to_string(&spec(id, 0)).unwrap();
        let (status, body) = request(router, "POST", "/jobs", Some(&json));
        assert_eq!(status, 400, "{id}: {body}");
        assert!(body.contains("must not contain"), "{body}");
    }
    // Refused at the edge: nothing was routed.
    let (_, body) = request(router, "GET", "/stats", None);
    let stats: RouterStatsBody = serde_json::from_str(&body).expect("stats json");
    assert_eq!(stats.jobs_routed, 0);
    assert_eq!(request(router, "POST", "/shutdown", None).0, 200);
    router_handle.join().unwrap();
    backend
        .stop
        .store(true, std::sync::atomic::Ordering::SeqCst);
    backend.handle.join().unwrap();
}

#[test]
fn explicit_instances_that_break_their_invariants_are_refused_on_both_tiers() {
    let backend = start_backend();
    let (router, router_handle) = start_router(vec![backend.addr.to_string()], None);
    let job = |problem: &str| {
        format!(
            r#"{{"id":"bad","problem":{problem},"mixer":"transverse_field","p":1,
                "optimizer":{{"kind":"gridsearch","resolution":4}},"seed":1}}"#
        )
    };
    let cases = [
        (
            r#"{"kind":"maxcut","graph":{"n":4,"edges":[{"u":0,"v":70,"weight":1}],"adjacency":[[70],[],[],[]]}}"#,
            "(0, 70)",
        ),
        (
            r#"{"kind":"ksat","sat":{"n":4,"clauses":[[{"var":9,"negated":false}],[]]}}"#,
            "variable 9",
        ),
    ];
    for (problem, named) in cases {
        for tier in [router, backend.addr] {
            let (status, body) = request(tier, "POST", "/jobs", Some(&job(problem)));
            assert_eq!(status, 400, "{tier}: {body}");
            assert!(body.contains(named), "{body}");
        }
    }
    let (_, body) = request(router, "GET", "/stats", None);
    let stats: RouterStatsBody = serde_json::from_str(&body).expect("stats json");
    assert_eq!(stats.jobs_routed, 0);
    assert_eq!(request(router, "POST", "/shutdown", None).0, 200);
    router_handle.join().unwrap();
    backend
        .stop
        .store(true, std::sync::atomic::Ordering::SeqCst);
    backend.handle.join().unwrap();
}

#[test]
fn trace_fanout_skips_a_tripped_backend_instead_of_stalling_the_router() {
    // One live backend and one wedged listener that accepts connections (the
    // kernel completes the handshake) but never answers.  The router serves
    // one connection at a time, so a `/trace/:id` fan-out that waited out the
    // wedged backend's timeout would stall every client for that long.
    let live = start_backend();
    let wedged = std::net::TcpListener::bind("127.0.0.1:0").expect("bind wedged listener");
    let backend_timeout_ms = 3_000;
    let mut config = RouterConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        backend_timeout_ms,
        ..RouterConfig::default()
    };
    config.cluster.backends = vec![
        live.addr.to_string(),
        wedged.local_addr().unwrap().to_string(),
    ];
    config.cluster.probe_interval_ms = 50;
    config.cluster.probe_timeout_ms = 200;
    config.cluster.trip_after = 2;
    let router = Router::bind(config).expect("bind router");
    let raddr = router.local_addr().unwrap();
    let rhandle = std::thread::spawn(move || router.run().unwrap());

    // Wait for the prober to trip the wedged backend.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let (_, body) = request(raddr, "GET", "/stats", None);
        let stats: RouterStatsBody = serde_json::from_str(&body).expect("stats json");
        if stats.backends_live == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "wedged backend never tripped: {body}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    // With the wedged circuit open, the job lands on the live backend.
    let s = spec("stall-1", 0);
    let json = serde_json::to_string(&s).unwrap();
    let (status, body) = request(raddr, "POST", "/jobs", Some(&json));
    assert_eq!(status, 202, "{body}");
    let job = poll_until_done(raddr, "stall-1");

    let started = Instant::now();
    let (status, body) = request(raddr, "GET", &format!("/trace/{}", job.trace), None);
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"span\": \"queue_wait\""), "{body}");
    assert!(
        elapsed < Duration::from_millis(backend_timeout_ms / 3),
        "/trace/:id took {elapsed:?} against a {backend_timeout_ms} ms backend timeout"
    );

    assert_eq!(request(raddr, "POST", "/shutdown", None).0, 200);
    rhandle.join().unwrap();
    live.stop.store(true, std::sync::atomic::Ordering::SeqCst);
    live.handle.join().unwrap();
    drop(wedged);
}

/// The median of `count` sequential `GET path` round trips to `addr`, in ms.
fn median_read_ms(addr: SocketAddr, path: &str, count: usize) -> f64 {
    let mut times: Vec<f64> = (0..count)
        .map(|_| {
            let started = Instant::now();
            let (status, body) = request(addr, "GET", path, None);
            assert_eq!(status, 200, "GET {path}: {body}");
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[count / 2]
}

#[test]
fn sequential_reads_wait_on_no_accept_poll() {
    // Every read is a fresh connection.  An accept loop that sleeps whenever
    // no connection is waiting charges each read up to one sleep per tier (a
    // 10 ms poll read ~10 ms straight to serve and ~20 ms through route); a
    // loop blocked in accept() answers in a fraction of a millisecond.
    let backend = start_backend();
    let (router, router_handle) = start_router(vec![backend.addr.to_string()], None);
    let json = serde_json::to_string(&spec("seq-read", 0)).unwrap();
    assert_eq!(request(router, "POST", "/jobs", Some(&json)).0, 202);
    assert_eq!(poll_until_done(router, "seq-read").status, "done");
    for (tier, addr) in [("serve", backend.addr), ("route", router)] {
        let median = median_read_ms(addr, "/jobs/seq-read", 50);
        assert!(
            median < 3.0,
            "{tier}: the median of 50 sequential status reads took {median:.2} ms"
        );
    }
    assert_eq!(request(router, "POST", "/shutdown", None).0, 200);
    router_handle.join().unwrap();
    backend.stop.store(true, Ordering::SeqCst);
    backend.handle.join().unwrap();
}

#[test]
fn an_idle_router_stops_on_its_external_stop_flag() {
    // SIGTERM reaches a router as its stop flag (`run_until(&STOP_REQUESTED)`
    // in the binary).  With no client traffic, nothing but the ops layer's stop
    // watcher can wake the accept loop blocked in accept().
    let mut config = RouterConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        ..RouterConfig::default()
    };
    config.cluster.backends = vec!["127.0.0.1:1".into()];
    let router = Router::bind(config).expect("bind router");
    let router_addr = router.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let (returned, router_returned) = mpsc::channel();
    {
        let stop = stop.clone();
        std::thread::spawn(move || {
            let _ = returned.send(router.run_until(&stop).is_ok());
        });
    }
    // Once an answer has been read to its end the loop is back in accept(),
    // and no connection follows.
    assert_eq!(request(router_addr, "GET", "/healthz", None).0, 200);
    let raised = Instant::now();
    stop.store(true, Ordering::SeqCst);
    let outcome = router_returned.recv_timeout(Duration::from_secs(2));
    assert_eq!(
        outcome,
        Ok(true),
        "the router was still running {:?} after its stop flag went up",
        raised.elapsed()
    );
}

#[test]
fn route_keeps_only_the_most_recent_finished_jobs() {
    // One backend worker, so jobs finish in submission order, and a queue that
    // holds all of them.
    let total = RETAINED_TERMINAL_JOBS + 8;
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        queue_capacity: total,
        ..ServerConfig::default()
    })
    .expect("bind backend");
    let backend = server.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let backend_handle = {
        let stop = stop.clone();
        std::thread::spawn(move || server.run_until(&stop).unwrap())
    };
    let (router, router_handle) = start_router(vec![backend.to_string()], None);

    let tiny = |i: usize| {
        let mut spec = spec(&format!("r{i}"), 0);
        spec.problem = ProblemSpec::MaxCutGnp { n: 4, instance: 0 };
        spec.optimizer = OptimizerSpec::GridSearch { resolution: 1 };
        serde_json::to_string(&spec).unwrap()
    };
    // Each job is read finished through route before the next is submitted, so
    // serve still holds it when route first sees it done.
    for i in 0..total {
        let (status, body) = request(router, "POST", "/jobs", Some(&tiny(i)));
        assert_eq!(status, 202, "submit r{i}: {body}");
        assert_eq!(poll_until_done(router, &format!("r{i}")).status, "done");
    }

    // Route answers for the oldest finished jobs itself, naming its limit.
    for i in 0..8 {
        let (status, body) = request(router, "GET", &format!("/jobs/r{i}"), None);
        assert_eq!(status, 404, "r{i}: {body}");
        assert!(
            body.contains(&format!("route keeps the last {RETAINED_TERMINAL_JOBS}")),
            "{body}"
        );
    }
    for i in 8..total {
        let (status, body) = request(router, "GET", &format!("/jobs/r{i}"), None);
        assert_eq!(status, 200, "r{i}: {body}");
    }

    assert_eq!(request(router, "POST", "/shutdown", None).0, 200);
    router_handle.join().unwrap();
    stop.store(true, Ordering::SeqCst);
    backend_handle.join().unwrap();
}
