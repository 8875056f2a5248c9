//! The ops layer the serve and route tiers are thin users of.
//!
//! Both HTTP tiers answer the same way: one accept loop that blocks in
//! `accept()`, one connection at a time under the timeouts and body cap of
//! their [`OpsConfig`], and dispatch through a declarative route table.  Each
//! tier declares its routes once, beside their handlers, as
//! `(method, path, summary, handler)` entries (`Route`, `Tier::ROUTES`); a
//! `:id` path segment matches exactly one segment.  From the table this module
//! generates the dispatch (`404` for an unknown path, `405` for a known path
//! with another method) and the `GET /` endpoint index.
//!
//! The entries every tier shares follow its own: `GET /`, `GET /healthz`,
//! `GET /version`, `GET /trace` (the process's span ring — stage spans and
//! lifecycle events alike), `GET /trace/:id` (one trace's spans as a tree,
//! merged with the tier's `Tier::remote_spans`) and `POST /shutdown`.
//!
//! No timer wakes the accept loop; an event does.  `POST /shutdown` runs on the
//! accept thread, so the loop sees its flag as soon as that connection ends.
//! Any other stop (an external flag, the end of serve's drain) wakes the
//! blocked `accept()` by opening one connection to the listener's own address
//! ([`wake`]), and a connection accepted once the loop is stopped is dropped
//! unread.  The only poller is [`serve_until`]'s stop watcher, which no request
//! ever waits on.

use crate::http::{read_request_limited, write_error, write_json, Request, DEFAULT_MAX_BODY_BYTES};
use crate::spans::{
    span_to_value, trace_body, trace_collector, version_value, DEFAULT_TRACE_CAPACITY,
};
use crate::spec::JobSpec;
use juliqaoa_telemetry::{Span, SpanCollector, TraceId};
use serde::{Serialize, Value};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the stop watcher looks at an external stop flag, and re-sends its
/// wake-up until the accept loop has returned.
const WATCH: Duration = Duration::from_millis(20);

/// Connect timeout of a wake-up connection.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Listener, request-limit and trace settings shared by `serve` and `route`.
#[derive(Clone, Debug)]
pub struct OpsConfig {
    /// Bind address, e.g. `127.0.0.1:7878` (`:0` picks a free port).
    pub addr: String,
    /// Per-connection socket read timeout in milliseconds (expiry → `408`).
    pub read_timeout_ms: u64,
    /// Per-connection socket write timeout in milliseconds.
    pub write_timeout_ms: u64,
    /// Upper bound on request bodies; a larger `Content-Length` is rejected
    /// with a structured `413` before any allocation happens.
    pub max_body_bytes: usize,
    /// Optional JSONL file every recorded span is appended to (`--trace-out`;
    /// plain lines flushed per span — a debugging artifact, not the
    /// checksummed results journal).
    pub trace_path: Option<PathBuf>,
    /// Capacity of the span ring behind `GET /trace` (`--trace-ring-cap`,
    /// else [`DEFAULT_TRACE_CAPACITY`]).
    pub trace_ring_cap: usize,
}

impl OpsConfig {
    /// The default settings, listening on `addr`.
    pub fn at(addr: &str) -> OpsConfig {
        OpsConfig {
            addr: addr.to_string(),
            read_timeout_ms: 5_000,
            write_timeout_ms: 5_000,
            max_body_bytes: DEFAULT_MAX_BODY_BYTES,
            trace_path: None,
            trace_ring_cap: DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// The ops state a tier embeds.
pub(crate) struct Ops {
    /// The settings the tier was bound with.
    pub config: OpsConfig,
    /// The process's one span ring: stage spans and lifecycle events, mirrored
    /// to `--trace-out`.
    pub spans: Arc<SpanCollector>,
    /// Set by `POST /shutdown`, which runs on the accept thread: the loop
    /// stops as soon as that connection ends.
    pub stop_requested: AtomicBool,
    /// When the tier was bound (the uptime gauges).
    pub started: Instant,
}

impl Ops {
    /// Binds the (blocking) listener and opens the span ring and its trace
    /// file.
    pub(crate) fn bind(config: &OpsConfig) -> std::io::Result<(TcpListener, Ops)> {
        let listener = TcpListener::bind(&config.addr)?;
        let ops = Ops {
            spans: trace_collector(config.trace_path.as_deref(), config.trace_ring_cap)?,
            config: config.clone(),
            stop_requested: AtomicBool::new(false),
            started: Instant::now(),
        };
        Ok((listener, ops))
    }
}

/// What a route handler is called with.
pub(crate) struct Call<'a> {
    /// The parsed request.
    pub request: &'a Request,
    /// The path's `:id` segment (empty for a route without one).
    pub id: &'a str,
    /// Where the response goes.
    pub stream: &'a mut TcpStream,
}

/// A route handler over a tier's state.
pub(crate) type Handler<S> = fn(&S, &mut Call<'_>);

/// One route-table entry.
pub(crate) struct Route<S> {
    /// `GET` or `POST`.
    pub method: &'static str,
    /// The path; a `:id` segment matches exactly one segment.
    pub path: &'static str,
    /// One line for the `GET /` index.
    pub summary: &'static str,
    /// Answers a matching request.
    pub handler: Handler<S>,
}

impl<S> Route<S> {
    /// A table entry (`const`, so tables are `const` items).
    pub(crate) const fn new(
        method: &'static str,
        path: &'static str,
        summary: &'static str,
        handler: Handler<S>,
    ) -> Route<S> {
        Route {
            method,
            path,
            summary,
            handler,
        }
    }

    /// The `:id` segment (empty without one) when `path`, trailing slashes
    /// trimmed, matches this route's path.
    fn matches<'p>(&self, path: &'p str) -> Option<&'p str> {
        let mut id = "";
        let mut want = self.path.trim_end_matches('/').split('/');
        let mut got = path.split('/');
        loop {
            match (want.next(), got.next()) {
                (None, None) => return Some(id),
                (Some(":id"), Some(segment)) if !segment.is_empty() => id = segment,
                (Some(w), Some(g)) if w == g => {}
                _ => return None,
            }
        }
    }
}

/// A tier (serve or route) as the ops layer drives it.
pub(crate) trait Tier: Sized + Send + Sync + 'static {
    /// The tier's own routes; the shared entries follow them in dispatch and
    /// in the `GET /` index.
    const ROUTES: &'static [Route<Self>];

    /// The embedded ops state.
    fn ops(&self) -> &Ops;

    /// Spans of `trace` held by other processes, merged into `GET /trace/:id`.
    fn remote_spans(&self, _trace: TraceId) -> Vec<Span> {
        Vec::new()
    }

    /// Fault hooks run before dispatch; `true` drops the connection
    /// unanswered.
    fn intercept(&self, _request: &Request) -> bool {
        false
    }
}

/// The entries every tier shares.
struct Shared<S>(std::marker::PhantomData<S>);

impl<S: Tier> Shared<S> {
    #[rustfmt::skip]
    const ROUTES: &'static [Route<S>] = &[
        Route::new("GET",  "/",          "This index of every route", handle_index::<S>),
        Route::new("GET",  "/healthz",   "Liveness: 200 while running", handle_healthz::<S>),
        Route::new("GET",  "/version",   "Build identity: version, git, pid", handle_version::<S>),
        Route::new("GET",  "/trace",     "The span ring: spans and events", handle_trace::<S>),
        Route::new("GET",  "/trace/:id", "One trace's spans and span tree", handle_trace_id::<S>),
        Route::new("POST", "/shutdown",  "Graceful stop", handle_shutdown::<S>),
    ];
}

/// The tier's full route table: its own entries, then the shared ones.
fn routes<S: Tier>() -> impl Iterator<Item = &'static Route<S>> {
    S::ROUTES.iter().chain(Shared::<S>::ROUTES)
}

/// Serves connections until `stop` is raised or `POST /shutdown` arrives.
///
/// A stop-watcher thread runs beside the loop: it looks at `stop` every 20 ms
/// and, once it is raised, wakes the loop ([`wake`]) on every tick until the
/// loop has returned.  It exits with the loop.
pub(crate) fn serve_until<S: Tier>(
    listener: &TcpListener,
    tier: &S,
    stop: &AtomicBool,
) -> std::io::Result<()> {
    let returned = AtomicBool::new(false);
    std::thread::scope(|scope| {
        std::thread::Builder::new()
            .name("qaoa-stop-watcher".into())
            .spawn_scoped(scope, || {
                while !returned.load(Ordering::SeqCst) {
                    if stop.load(Ordering::SeqCst) {
                        wake(listener);
                    }
                    // lint:allow(R9, the stop watcher is the one poller; no request waits on it)
                    std::thread::sleep(WATCH);
                }
            })?;
        // Raised on return and on unwind alike: the watcher never outlives the
        // loop, and the scope never waits on a watcher that cannot see it end.
        let _returned = RaiseOnDrop(&returned);
        serve_while(listener, tier, || {
            stop.load(Ordering::SeqCst) || tier.ops().stop_requested.load(Ordering::SeqCst)
        });
        Ok(())
    })
}

/// Raises its flag when dropped.
struct RaiseOnDrop<'a>(&'a AtomicBool);

impl Drop for RaiseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Serves connections, blocked in `accept()` between them, until `stopped()`
/// holds.  Whatever makes it hold from another thread must then [`wake`] the
/// loop.  A connection accepted once `stopped()` holds is dropped unread: it
/// is a wake-up, or a client that arrived after the stop.
pub(crate) fn serve_while<S: Tier>(listener: &TcpListener, tier: &S, stopped: impl Fn() -> bool) {
    while !stopped() {
        if let Ok((mut stream, _)) = listener.accept() {
            if !stopped() {
                handle_connection(tier, &mut stream);
            }
        }
    }
}

/// Wakes an accept loop blocked on `listener` with one connection to the
/// listener's own address (an unspecified IP, `0.0.0.0` or `::`, replaced by
/// loopback), closed unsent.  A failed connect is left to the caller to retry.
pub(crate) fn wake(listener: &TcpListener) {
    if let Ok(addr) = listener.local_addr() {
        let _ = TcpStream::connect_timeout(&reachable(addr), WAKE_TIMEOUT);
    }
}

/// `addr` with an unspecified IP replaced by loopback of the same family.
fn reachable(mut addr: SocketAddr) -> SocketAddr {
    match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => addr.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => addr.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    addr
}

/// Handles one connection end to end.
fn handle_connection<S: Tier>(tier: &S, stream: &mut TcpStream) {
    let config = &tier.ops().config;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(config.read_timeout_ms.max(1))));
    let _ = stream.set_write_timeout(Some(Duration::from_millis(config.write_timeout_ms.max(1))));
    let request = match read_request_limited(stream, config.max_body_bytes) {
        Ok(request) => request,
        Err(e) => return write_error(stream, e.status, &e.message),
    };
    if tier.intercept(&request) {
        return;
    }
    let path = request.path.trim_end_matches('/');
    let mut path_known = false;
    for route in routes::<S>() {
        let Some(id) = route.matches(path) else {
            continue;
        };
        if route.method == request.method {
            let mut call = Call {
                request: &request,
                id,
                stream,
            };
            return (route.handler)(tier, &mut call);
        }
        path_known = true;
    }
    if path_known {
        write_error(stream, 405, "method not allowed");
    } else {
        write_error(stream, 404, "no such endpoint");
    }
}

/// Writes `body` as pretty-printed JSON with `status`; a body that cannot be
/// serialised becomes a structured `500`.
pub(crate) fn reply_json(stream: &mut TcpStream, status: u16, body: &impl Serialize) {
    match serde_json::to_string_pretty(body) {
        Ok(json) => write_json(stream, status, &json),
        Err(_) => write_error(stream, 500, "serialisation failed"),
    }
}

/// Parses a `POST /jobs` body the way both tiers accept it: an empty id is
/// filled from `auto_id`, the id must be addressable ([`check_job_id`]), and
/// the cheap shape checks run (problem size, mixer compatibility, sampling
/// parameters) — realising instances is worker work.  `Err` is the `400`
/// message.
pub(crate) fn parse_submission(request: &Request, auto_id: &AtomicU64) -> Result<JobSpec, String> {
    let body = String::from_utf8_lossy(&request.body);
    let mut spec: JobSpec =
        serde_json::from_str(&body).map_err(|e| format!("invalid job spec: {e}"))?;
    if spec.id.is_empty() {
        // relaxed: id allocator; uniqueness needs atomicity, not ordering.
        spec.id = format!("job-{}", auto_id.fetch_add(1, Ordering::Relaxed));
    }
    check_job_id(&spec.id)?;
    spec.problem
        .shape()
        .and_then(|(_, subspace_k)| spec.mixer.check_compatible(subspace_k))
        .and_then(|()| match &spec.sampling {
            Some(sampling) => sampling.validate(),
            None => Ok(()),
        })
        .map_err(|e| format!("invalid job spec: {e}"))?;
    Ok(spec)
}

/// Job ids travel as one URL path segment (`/jobs/:id`, query string
/// stripped), so an id the API could not address back is refused at
/// submission.  Batch mode involves no URL and accepts any id.
fn check_job_id(id: &str) -> Result<(), String> {
    match id
        .chars()
        .find(|&c| matches!(c, '/' | '?' | '#' | '%') || c.is_whitespace() || c.is_control())
    {
        Some(c) => Err(format!(
            "invalid job id {id:?}: ids travel in URL paths and must not contain \
             '/', '?', '#', '%', whitespace or control characters (found {c:?})"
        )),
        None => Ok(()),
    }
}

fn handle_index<S: Tier>(_: &S, call: &mut Call<'_>) {
    let field = |k: &str, v: &str| (k.to_string(), Value::Str(v.to_string()));
    let routes = routes::<S>()
        .map(|r| {
            Value::Object(vec![
                field("method", r.method),
                field("path", r.path),
                field("summary", r.summary),
            ])
        })
        .collect();
    let body = Value::Object(vec![("routes".to_string(), Value::Array(routes))]);
    reply_json(call.stream, 200, &body);
}

fn handle_healthz<S: Tier>(_: &S, call: &mut Call<'_>) {
    write_json(call.stream, 200, "{\"status\": \"ok\"}");
}

/// `GET /version`: build identity, for correlating multi-process journals.
fn handle_version<S: Tier>(_: &S, call: &mut Call<'_>) {
    reply_json(call.stream, 200, &version_value());
}

/// `GET /trace`: `{dropped, capacity, spans}`, the retained spans oldest
/// first.
fn handle_trace<S: Tier>(tier: &S, call: &mut Call<'_>) {
    let spans = &tier.ops().spans;
    let body = Value::Object(vec![
        ("dropped".to_string(), Value::UInt(spans.dropped())),
        ("capacity".to_string(), Value::UInt(spans.capacity() as u64)),
        (
            "spans".to_string(),
            Value::Array(spans.snapshot().iter().map(span_to_value).collect()),
        ),
    ]);
    reply_json(call.stream, 200, &body);
}

/// `GET /trace/:id`: the local spans of one trace plus the tier's remote ones,
/// flat and as a tree.
fn handle_trace_id<S: Tier>(tier: &S, call: &mut Call<'_>) {
    let Some(trace) = TraceId::parse(call.id) else {
        let message = format!("invalid trace id {:?} (want 16 hex digits)", call.id);
        return write_error(call.stream, 400, &message);
    };
    let mut spans = tier.ops().spans.for_trace(trace);
    spans.extend(tier.remote_spans(trace));
    if spans.is_empty() {
        let message = format!("no spans retained for trace {:?}", call.id);
        return write_error(call.stream, 404, &message);
    }
    reply_json(call.stream, 200, &trace_body(trace, spans));
}

fn handle_shutdown<S: Tier>(tier: &S, call: &mut Call<'_>) {
    tier.ops().stop_requested.store(true, Ordering::SeqCst);
    write_json(call.stream, 200, "{\"status\": \"shutting down\"}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn route(path: &'static str) -> Route<()> {
        Route::new("GET", path, "", |_, _| {})
    }

    #[test]
    fn paths_match_whole_segments_and_capture_the_id() {
        assert_eq!(route("/").matches(""), Some(""));
        assert_eq!(route("/jobs").matches("/jobs"), Some(""));
        assert_eq!(route("/jobs/:id").matches("/jobs/j-1"), Some("j-1"));
        assert_eq!(
            route("/jobs/:id/result").matches("/jobs/j-1/result"),
            Some("j-1")
        );
        assert_eq!(route("/jobs/:id").matches("/jobs/j-1/result"), None);
        assert_eq!(route("/jobs/:id").matches("/jobs/"), None);
        assert_eq!(route("/jobs/:id").matches("/jobs"), None);
        assert_eq!(route("/jobs").matches("/jobsx"), None);
        assert_eq!(route("/").matches("/jobs"), None);
    }

    #[test]
    fn a_wake_up_reaches_a_wildcard_listener_over_loopback() {
        let addr = |s: &str| s.parse::<SocketAddr>().expect("socket address");
        assert_eq!(reachable(addr("0.0.0.0:7878")), addr("127.0.0.1:7878"));
        assert_eq!(reachable(addr("[::]:7878")), addr("[::1]:7878"));
        assert_eq!(reachable(addr("10.1.2.3:80")), addr("10.1.2.3:80"));
    }

    #[test]
    fn unaddressable_job_ids_are_refused_with_the_rule() {
        for ok in ["job-1", "a.b_c:d", "ünïcode"] {
            assert_eq!(check_job_id(ok), Ok(()));
        }
        for bad in ["a?b", "x/result", "a#b", "50%", "a b", "tab\tid", "nul\0"] {
            let err = check_job_id(bad).unwrap_err();
            assert!(err.contains("must not contain"), "{err}");
        }
    }
}
