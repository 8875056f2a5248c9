//! The `/metrics` and `/stats` contract of serve and route, checked against
//! lists captured from the hand-written exposition the metric declarations
//! replaced: every family keeps its name, HELP line and TYPE line, and every
//! `/stats` body keeps its keys in their order.

use juliqaoa_service::{EngineStats, OpsConfig, Router, RouterConfig, Server, ServerConfig};
use juliqaoa_telemetry::kernels::KernelSnapshot;
use serde::{Serialize, Value};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// `# HELP` and `# TYPE` lines of serve's `/metrics`.
const SERVE_FAMILIES: &str = include_str!("contract/serve_families.txt");
/// `# HELP` and `# TYPE` lines of route's `/metrics`.
const ROUTE_FAMILIES: &str = include_str!("contract/route_families.txt");

const SERVE_STATS_KEYS: [&str; 12] = [
    "uptime_s",
    "jobs_submitted",
    "jobs_rejected",
    "queue_depth",
    "running",
    "done",
    "cancelled",
    "timed_out",
    "jobs_shed",
    "failed",
    "cached_instances",
    "engine",
];
const ENGINE_STATS_KEYS: [&str; 14] = [
    "jobs_executed",
    "jobs_failed",
    "cache_hits",
    "cache_misses",
    "instance_builds",
    "prep_coalesced",
    "jobs_panicked",
    "jobs_timed_out",
    "jobs_retried",
    "prefix_hits",
    "prefix_misses",
    "prefix_rounds_saved",
    "sample_jobs",
    "shots_drawn",
];
const ROUTE_STATS_KEYS: [&str; 7] = [
    "uptime_s",
    "jobs_routed",
    "failovers",
    "hedged_reads",
    "hedge_wins",
    "backends_live",
    "backends",
];
const BACKEND_STATS_KEYS: [&str; 4] = ["addr", "state", "consecutive_failures", "trips"];

/// `GET path` on `addr`, returning the body of a 200 response.
fn get(addr: SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .unwrap();
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    assert!(raw.starts_with("HTTP/1.1 200"), "GET {path}: {raw}");
    raw.split_once("\r\n\r\n").expect("body").1.to_string()
}

fn post(addr: SocketAddr, path: &str) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "POST {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
    )
    .expect("write request");
    let _ = stream.read_to_string(&mut String::new());
}

fn families(text: &str) -> BTreeSet<&str> {
    text.lines()
        .filter(|l| l.starts_with("# HELP ") || l.starts_with("# TYPE "))
        .collect()
}

/// Asserts that `metrics` has exactly the HELP/TYPE lines of `captured`,
/// naming the lines that differ.
fn assert_same_families(metrics: &str, captured: &str) {
    let (got, want) = (families(metrics), families(captured));
    let missing: Vec<_> = want.difference(&got).collect();
    let extra: Vec<_> = got.difference(&want).collect();
    assert!(
        missing.is_empty() && extra.is_empty(),
        "missing {missing:#?}\nextra {extra:#?}"
    );
}

fn keys(value: &Value) -> Vec<&str> {
    match value {
        Value::Object(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

/// The field names of a `Debug`-printed struct.
fn debug_fields(debug: &str) -> Vec<String> {
    let body = debug.split_once(" { ").expect("struct debug").1;
    body.trim_end_matches(" }")
        .split(", ")
        .map(|kv| kv.split_once(':').expect("field: value").0.to_string())
        .collect()
}

#[test]
fn metric_families_and_stats_keys_keep_their_contract() {
    let server = Server::bind(ServerConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("bind serve");
    let serve = server.local_addr().unwrap();
    let serve_thread = std::thread::spawn(move || server.run().unwrap());
    let mut config = RouterConfig {
        ops: OpsConfig::at("127.0.0.1:0"),
        ..RouterConfig::default()
    };
    config.cluster.backends = vec![serve.to_string()];
    let router = Router::bind(config).expect("bind route");
    let route = router.local_addr().unwrap();
    let route_thread = std::thread::spawn(move || router.run().unwrap());

    // Every family keeps its name, HELP and TYPE line; nothing is added.
    let serve_metrics = get(serve, "/metrics");
    assert_same_families(&serve_metrics, SERVE_FAMILIES);
    assert_eq!(families(SERVE_FAMILIES).len(), 2 * 44);
    let route_metrics = get(route, "/metrics");
    assert_same_families(&route_metrics, ROUTE_FAMILIES);
    assert_eq!(families(ROUTE_FAMILIES).len(), 2 * 15);

    // The `/stats` bodies keep their keys, in order.
    let stats: Value = serde_json::from_str(&get(serve, "/stats")).expect("serve stats");
    assert_eq!(keys(&stats), SERVE_STATS_KEYS);
    assert_eq!(
        keys(stats.get_field("engine").expect("engine")),
        ENGINE_STATS_KEYS
    );
    let stats: Value = serde_json::from_str(&get(route, "/stats")).expect("route stats");
    assert_eq!(keys(&stats), ROUTE_STATS_KEYS);
    let backends = stats
        .get_field("backends")
        .and_then(Value::as_array)
        .expect("backends");
    assert_eq!(keys(&backends[0]), BACKEND_STATS_KEYS);

    // Every engine and kernel counter field is exposed under its prefix.
    let engine_fields = EngineStats::default().to_value();
    for field in keys(&engine_fields) {
        let line = format!("# TYPE engine_{field} counter\n");
        assert!(serve_metrics.contains(&line), "missing {line:?}");
    }
    let kernel_fields = debug_fields(&format!("{:?}", KernelSnapshot::default()));
    assert_eq!(kernel_fields.len(), 11, "{kernel_fields:?}");
    for field in kernel_fields {
        let line = format!("# TYPE kernel_{field} counter\n");
        assert!(serve_metrics.contains(&line), "missing {line:?}");
    }

    post(route, "/shutdown");
    route_thread.join().expect("route thread");
    post(serve, "/shutdown");
    serve_thread.join().expect("serve thread");
}
