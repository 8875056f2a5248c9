//! A minimal HTTP/1.1 request/response layer over `std::net`.
//!
//! The container has no HTTP-framework dependency, and the service API needs exactly
//! one shape: small JSON requests and responses on short-lived connections.  This
//! module parses a request line, headers and a `Content-Length`-delimited body, and
//! writes status + JSON responses with `Connection: close`.  Deliberately not a general
//! HTTP implementation: no chunked encoding, no keep-alive, no TLS — requests beyond
//! the size limits are rejected rather than streamed.
//!
//! The same module also carries the *client* half the cluster router needs
//! ([`client_request`]): one request, one `Connection: close` response, bounded by
//! connect/read/write timeouts so a dead backend costs a timeout, not a hang.

use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Upper bound on the request head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Default upper bound on a request body (`--max-body-bytes` overrides per server).
pub const DEFAULT_MAX_BODY_BYTES: usize = 4 * 1024 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercased method (`GET`, `POST`, …).
    pub method: String,
    /// Raw path, query string stripped.
    pub path: String,
    /// The `X-Juliqaoa-Trace` header value, when present — the router's trace
    /// propagation; other headers stay discarded (nothing else rides on them).
    pub trace: Option<String>,
    /// The request body (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

/// A request-parsing failure with the HTTP status it should produce.
#[derive(Debug)]
pub struct HttpError {
    /// Status code to respond with.
    pub status: u16,
    /// Human-readable message (sent as JSON `error`).
    pub message: String,
}

impl HttpError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        HttpError {
            status,
            message: message.into(),
        }
    }
}

/// Reads one request from the stream, rejecting bodies larger than
/// `max_body_bytes` with a structured `413` *before* allocating for them — an
/// unbounded `Content-Length` must never translate into an unbounded
/// allocation on a worker.
pub fn read_request_limited(
    stream: &mut TcpStream,
    max_body_bytes: usize,
) -> Result<Request, HttpError> {
    // Read until the blank line ending the head, then however much body the headers
    // promise.  One byte at a time would be slow; a buffered chunk loop with carryover
    // keeps it simple and still far faster than any job this service runs.
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let head_end = loop {
        if let Some(pos) = find_head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(HttpError::new(431, "request head too large"));
        }
        let n = stream
            .read(&mut chunk)
            .map_err(|e| HttpError::new(read_error_status(&e), format!("read error: {e}")))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-request"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };

    let head = String::from_utf8_lossy(&buf[..head_end]).to_string();
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or_default();
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| HttpError::new(400, "missing request target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut content_length = 0usize;
    let mut trace: Option<String> = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            let name = name.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::new(400, "invalid Content-Length"))?;
            } else if name.eq_ignore_ascii_case("x-juliqaoa-trace") {
                trace = Some(value.trim().to_string());
            }
        }
    }
    if content_length > max_body_bytes {
        return Err(HttpError::new(
            413,
            format!(
                "request body of {content_length} bytes exceeds the {max_body_bytes}-byte limit"
            ),
        ));
    }

    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let n = stream
            .read(&mut chunk)
            .map_err(|e| HttpError::new(read_error_status(&e), format!("read error: {e}")))?;
        if n == 0 {
            return Err(HttpError::new(400, "connection closed mid-body"));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);

    Ok(Request {
        method,
        path,
        trace,
        body,
    })
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The status a failed socket read maps to: a connection-timeout expiry (surfaced as
/// `WouldBlock` or `TimedOut` depending on platform) is the *client's* slowness and
/// gets a structured `408 Request Timeout`; everything else stays a 400.
fn read_error_status(e: &std::io::Error) -> u16 {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => 408,
        _ => 400,
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Writes a JSON response and flushes; errors are ignored (the client is gone).
pub fn write_json(stream: &mut TcpStream, status: u16, json: &str) {
    write_body(stream, status, "application/json", &[], json);
}

/// Writes a response with a caller-chosen `Content-Type` (the Prometheus
/// `/metrics` endpoint serves `text/plain; version=0.0.4`) and extra headers
/// (`Retry-After` on a 503), and flushes; errors are ignored (the client is
/// gone).
pub fn write_body(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    headers: &[(&str, String)],
    body: &str,
) {
    let extra: String = headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    let _ = write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: close\r\n\r\n{}",
        status,
        reason(status),
        content_type,
        body.len(),
        extra,
        body
    );
    let _ = stream.flush();
}

/// Writes `{"error": ...}` with the given status.
pub fn write_error(stream: &mut TcpStream, status: u16, message: &str) {
    let json = serde_json::to_string(&ErrorBody {
        error: message.to_string(),
    })
    .unwrap_or_else(|_| "{\"error\":\"internal\"}".to_string());
    write_json(stream, status, &json);
}

#[derive(serde::Serialize, serde::Deserialize)]
struct ErrorBody {
    error: String,
}

/// A response as the router's proxy client sees it: status plus body, headers
/// discarded (nothing in the cluster protocol rides on response headers).
#[derive(Clone, Debug)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
}

impl ClientResponse {
    /// Whether the status is 2xx.
    pub fn is_success(&self) -> bool {
        (200..300).contains(&self.status)
    }
}

/// Sends one HTTP/1.1 request to `addr` and reads the full `Connection: close`
/// response.  Every stage is bounded by `timeout`: connect, each socket read and
/// each write — a dead or blackholed peer costs one timeout, never a hang.  Any
/// I/O failure (refused, reset, expired timeout, malformed status line) comes
/// back as `Err`, which the cluster layer treats as a backend failure.
pub fn client_request(
    addr: &str,
    method: &str,
    path: &str,
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    client_request_with_headers(addr, method, path, &[], body, timeout)
}

/// [`client_request`] with extra request headers — the router injects
/// `X-Juliqaoa-Trace` into proxied submissions so the backend adopts the
/// router's trace id instead of deriving its own.
pub fn client_request_with_headers(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, String)],
    body: Option<&str>,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    let timeout = timeout.max(Duration::from_millis(1));
    let sock_addr = addr
        .to_socket_addrs()?
        .next()
        .ok_or_else(|| std::io::Error::other(format!("{addr:?} resolves to no address")))?;
    let mut stream = TcpStream::connect_timeout(&sock_addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let body = body.unwrap_or("");
    let extra: String = headers
        .iter()
        .map(|(name, value)| format!("{name}: {value}\r\n"))
        .collect();
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{extra}Connection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw)?;
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| std::io::Error::other(format!("malformed response from {addr}")))?;
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    Ok(ClientResponse { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};
    use std::thread;

    fn round_trip(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_vec();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&raw).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let out = read_request_limited(&mut stream, DEFAULT_MAX_BODY_BYTES);
        writer.join().unwrap();
        out
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = round_trip(
            b"POST /jobs?verbose=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 9\r\n\r\n{\"a\": 12}",
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.body, b"{\"a\": 12}");
    }

    #[test]
    fn parses_a_bodyless_get() {
        let req = round_trip(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/metrics");
        assert!(req.body.is_empty());
    }

    #[test]
    fn trace_header_is_captured_case_insensitively() {
        let req = round_trip(
            b"POST /jobs HTTP/1.1\r\nx-juliqaoa-trace: 00f00dcafe123456\r\nContent-Length: 2\r\n\r\n{}",
        )
        .unwrap();
        assert_eq!(req.trace.as_deref(), Some("00f00dcafe123456"));
        let req = round_trip(b"GET /metrics HTTP/1.1\r\n\r\n").unwrap();
        assert!(req.trace.is_none());
    }

    #[test]
    fn client_extra_headers_reach_the_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request_limited(&mut stream, DEFAULT_MAX_BODY_BYTES).unwrap();
            assert_eq!(req.trace.as_deref(), Some("deadbeef00000001"));
            write_json(&mut stream, 200, "{}");
        });
        let resp = client_request_with_headers(
            &addr.to_string(),
            "POST",
            "/jobs",
            &[("X-Juliqaoa-Trace", "deadbeef00000001".to_string())],
            Some("{}"),
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
    }

    #[test]
    fn truncated_requests_are_400() {
        let err = round_trip(b"GET /metrics HTTP/1.1\r\nContent-").unwrap_err();
        assert_eq!(err.status, 400);
        let err =
            round_trip(b"POST /jobs HTTP/1.1\r\nContent-Length: 50\r\n\r\nshort").unwrap_err();
        assert_eq!(err.status, 400);
    }

    #[test]
    fn oversized_bodies_are_413() {
        let head = format!(
            "POST /jobs HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            DEFAULT_MAX_BODY_BYTES + 1
        );
        let err = round_trip(head.as_bytes()).unwrap_err();
        assert_eq!(err.status, 413);
    }

    #[test]
    fn custom_body_limits_apply_before_allocation() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            // The headers promise far more than the limit; no body is ever sent.
            s.write_all(b"POST /jobs HTTP/1.1\r\nContent-Length: 4096\r\n\r\n")
                .unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let err = read_request_limited(&mut stream, 1024).unwrap_err();
        writer.join().unwrap();
        assert_eq!(err.status, 413);
        assert!(err.message.contains("4096"), "{}", err.message);
    }

    #[test]
    fn client_request_round_trips_against_a_local_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let req = read_request_limited(&mut stream, DEFAULT_MAX_BODY_BYTES).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/echo");
            write_json(&mut stream, 200, &String::from_utf8_lossy(&req.body));
        });
        let resp = client_request(
            &addr.to_string(),
            "POST",
            "/echo",
            Some("{\"ping\":1}"),
            Duration::from_secs(5),
        )
        .unwrap();
        server.join().unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.body, "{\"ping\":1}");
    }

    #[test]
    fn client_request_errors_on_a_dead_peer() {
        // Bind then drop: the port is (briefly) unbound, so connect is refused.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        };
        let err = client_request(
            &addr.to_string(),
            "GET",
            "/healthz",
            None,
            Duration::from_millis(500),
        );
        assert!(err.is_err());
    }
}
