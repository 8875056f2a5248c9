//! Service-side distributed-tracing plumbing over [`juliqaoa_telemetry::span`].
//!
//! The telemetry crate is dependency-free, so its spans carry no JSON of their
//! own.  This module supplies everything the service tiers layer on top:
//!
//! * [`span_to_value`] / [`span_from_value`] — spans as shim-serde [`Value`]s,
//!   the one span schema for `GET /trace`, `GET /trace/:id`, `--trace-out`
//!   lines and the router's cross-process merge;
//! * `trace_collector` — the span ring of one process, mirroring every span
//!   to the `--trace-out` file when one is set (serve, route and batch);
//! * `event` — a lifecycle event (`submit`, `done`, `drain`, …) as a
//!   zero-duration span under its job's root, or under [`OPS_TRACE`];
//! * `close_job_span` — a job's root `job` span, closed by serve and batch;
//! * [`trace_body`] — the `/trace/:id` response: the flat span list plus the
//!   reconstructed span *tree* (children nested under parents, the root being
//!   the span whose id equals the trace id);
//! * the propagation constants: the [`TRACE_HEADER`] the router sends with
//!   proxied submissions and the [`TRACE_PARENT_ENV`] a sharded batch parent
//!   sets for its child processes;
//! * [`version_value`] — the `GET /version` body, so multi-process trace
//!   journals can be correlated to a build;
//! * [`DEFAULT_TRACE_CAPACITY`] — the span ring's capacity unless serve or
//!   route is given `--trace-ring-cap`.

use juliqaoa_telemetry::{Span, SpanCollector, SpanId, TraceId};
use serde::{Serialize, Value};
use std::io::Write as _;
use std::path::Path;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// The fixed trace id process-wide spans are recorded under — the router's
/// health probes and backend transitions, serve's drain.  Process-independent,
/// so `GET /trace/:id` with this id always pulls the ops history.
pub const OPS_TRACE: TraceId = TraceId::from_raw(0x00C0_FFEE_0B5E_70E5);

/// Request header carrying the trace id on router→backend submissions.  The
/// backend adopts the id instead of re-deriving it (they agree by construction;
/// the header makes the edge assignment authoritative and observable).
pub const TRACE_HEADER: &str = "X-Juliqaoa-Trace";

/// Environment variable carrying `"<trace>:<span>"` (16 hex digits each) from a
/// sharded batch parent to its child processes: the child parents its own
/// shard-level span under the parent's, so the batch trace spans processes.
pub const TRACE_PARENT_ENV: &str = "JULIQAOA_TRACE_PARENT";

/// The span-ring capacity unless serve or route is given `--trace-ring-cap`.
pub const DEFAULT_TRACE_CAPACITY: usize = 1024;

/// A fresh span-collector salt: FNV-mixed pid, wall-clock nanos and a
/// process-global counter.  The pid alone is not enough — two collectors in one
/// process (an in-process router-plus-backend test) or two hosts that happen to
/// share a pid would mint colliding span ids, and the `/trace/:id` merge
/// deduplicates by id, silently dropping the collision.
fn collector_salt() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in [
        u64::from(std::process::id()),
        nanos,
        // relaxed: uniqueness counter folded into the id hash; orders against nothing.
        COUNTER.fetch_add(1, Ordering::Relaxed),
    ] {
        h ^= word;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Parses a `"<trace>:<span>"` propagation value (header or env form).
pub fn parse_trace_parent(raw: &str) -> Option<(TraceId, SpanId)> {
    let (trace, span) = raw.trim().split_once(':')?;
    Some((TraceId::parse(trace)?, SpanId::parse(span)?))
}

/// Renders `"<trace>:<span>"` for [`TRACE_PARENT_ENV`].
pub fn format_trace_parent(trace: TraceId, span: SpanId) -> String {
    format!("{}:{}", trace.to_hex(), span.to_hex())
}

/// The span ring of one process, holding at most `capacity` spans.  With a
/// `path` (`--trace-out`), every recorded span is also appended to that file as
/// one [`span_to_value`] JSON line, flushed per line; write failures are
/// swallowed, so tracing can never fail a job.
pub(crate) fn trace_collector(
    path: Option<&Path>,
    capacity: usize,
) -> std::io::Result<Arc<SpanCollector>> {
    let spans = Arc::new(SpanCollector::new(capacity.max(1), collector_salt()));
    if let Some(path) = path {
        let out = Mutex::new(std::io::BufWriter::new(std::fs::File::create(path)?));
        spans.set_sink(Box::new(move |span: &Span| {
            if let Ok(line) = serde_json::to_string(&span_to_value(span)) {
                let mut w = out.lock().expect("trace out lock");
                let _ = writeln!(w, "{line}");
                let _ = w.flush();
            }
        }));
    }
    Ok(spans)
}

/// Records a lifecycle event as a zero-duration span named `name`: under the
/// job's root span when `trace` is a job's, parentless under [`OPS_TRACE`]
/// for process-wide events.  `job` and `detail` become attributes when
/// non-empty.
pub(crate) fn event(
    spans: &SpanCollector,
    trace: TraceId,
    name: &str,
    job: &str,
    detail: impl Into<String>,
) {
    let detail = detail.into();
    let attrs = [("job", job.to_string()), ("detail", detail)]
        .into_iter()
        .filter(|(_, v)| !v.is_empty())
        .map(|(k, v)| (k.to_string(), v))
        .collect();
    let parent = (trace != OPS_TRACE).then(|| trace.root_span());
    spans.record_closed(trace, parent, name, 0.0, attrs);
}

/// Closes a job's root span: `job`, whose id is the trace id (every stage span
/// already points at it), from `started` until now, with the job id and its
/// terminal `status`.
pub(crate) fn close_job_span(
    spans: &SpanCollector,
    trace: TraceId,
    job: &str,
    status: &str,
    started: Instant,
) {
    let duration_ms = started.elapsed().as_secs_f64() * 1e3;
    spans.record(Span {
        trace,
        id: trace.root_span(),
        parent: None,
        name: "job".to_string(),
        start_ms: (spans.now_ms() - duration_ms).max(0.0),
        duration_ms,
        attrs: vec![
            ("job".to_string(), job.to_string()),
            ("status".to_string(), status.to_string()),
        ],
    });
}

/// A span as a shim-serde [`Value`] object with a leading `"span"` key (its
/// name); `parent` and `attrs` are omitted when empty.  JSON has no NaN or
/// infinity, so a non-finite time is written as 0.
pub fn span_to_value(span: &Span) -> Value {
    let ms = |v: f64| Value::Num(if v.is_finite() { v } else { 0.0 });
    let mut fields = vec![
        ("span".to_string(), Value::Str(span.name.clone())),
        ("trace".to_string(), Value::Str(span.trace.to_hex())),
        ("id".to_string(), Value::Str(span.id.to_hex())),
    ];
    if let Some(parent) = span.parent {
        fields.push(("parent".to_string(), Value::Str(parent.to_hex())));
    }
    fields.push(("start_ms".to_string(), ms(span.start_ms)));
    fields.push(("duration_ms".to_string(), ms(span.duration_ms)));
    if !span.attrs.is_empty() {
        fields.push(("attrs".to_string(), attrs_value(&span.attrs)));
    }
    Value::Object(fields)
}

fn attrs_value(attrs: &[(String, String)]) -> Value {
    Value::Object(
        attrs
            .iter()
            .map(|(k, v)| (k.clone(), Value::Str(v.clone())))
            .collect(),
    )
}

/// Parses a span object previously rendered by [`span_to_value`] (or a journal
/// line) — used by the router to merge backend spans into one tree.  Returns
/// `None` for objects of any other shape.
pub fn span_from_value(v: &Value) -> Option<Span> {
    let name = v.get_field("span")?.as_str()?.to_string();
    let trace = TraceId::parse(v.get_field("trace")?.as_str()?)?;
    let id = SpanId::parse(v.get_field("id")?.as_str()?)?;
    let parent = match v.get_field("parent") {
        Some(p) => Some(SpanId::parse(p.as_str()?)?),
        None => None,
    };
    let start_ms = v.get_field("start_ms")?.as_f64()?;
    let duration_ms = v.get_field("duration_ms")?.as_f64()?;
    let attrs = match v.get_field("attrs").and_then(Value::as_object) {
        Some(fields) => fields
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_str()?.to_string())))
            .collect(),
        None => Vec::new(),
    };
    Some(Span {
        trace,
        id,
        parent,
        name,
        start_ms,
        duration_ms,
        attrs,
    })
}

/// Builds the `GET /trace/:id` response body: the trace id, the flat span list
/// (deduplicated by span id, insertion order preserved) and the reconstructed
/// tree.  Spans whose parent is absent from the set surface as extra roots
/// rather than disappearing, so a partial collection (ring eviction, an
/// unreachable backend) still renders.
pub fn trace_body(trace: TraceId, spans: Vec<Span>) -> Value {
    let mut seen = std::collections::HashSet::new();
    let spans: Vec<Span> = spans
        .into_iter()
        .filter(|s| seen.insert(s.id.raw()))
        .collect();
    let tree = span_tree(&spans);
    Value::Object(vec![
        ("trace".to_string(), Value::Str(trace.to_hex())),
        (
            "spans".to_string(),
            Value::Array(spans.iter().map(span_to_value).collect()),
        ),
        ("tree".to_string(), tree),
    ])
}

/// Nests spans under their parents: an array of root nodes, each
/// `{name, id, start_ms, duration_ms, attrs?, children: [...]}`, children
/// ordered by start time.  The root of a complete job trace is the span whose
/// id equals the trace id.
fn span_tree(spans: &[Span]) -> Value {
    let ids: std::collections::HashSet<u64> = spans.iter().map(|s| s.id.raw()).collect();
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    let mut roots: Vec<usize> = Vec::new();
    for (i, span) in spans.iter().enumerate() {
        match span.parent {
            // A self-parented or known-parent span nests; anything else roots.
            Some(p) if p.raw() != span.id.raw() && ids.contains(&p.raw()) => {
                // `ids` was built from this same immutable slice, so the parent
                // is always found — but an orphan degrades to a root rather
                // than panicking a serving thread.
                match spans.iter().position(|s| s.id.raw() == p.raw()) {
                    Some(parent_idx) => children[parent_idx].push(i),
                    None => roots.push(i),
                }
            }
            _ => roots.push(i),
        }
    }
    let by_start = |a: &usize, b: &usize| {
        spans[*a]
            .start_ms
            .total_cmp(&spans[*b].start_ms)
            .then_with(|| spans[*a].name.cmp(&spans[*b].name))
    };
    for list in &mut children {
        list.sort_by(by_start);
    }
    roots.sort_by(by_start);
    fn render(i: usize, spans: &[Span], children: &[Vec<usize>], depth: usize) -> Value {
        let span = &spans[i];
        let mut fields = vec![
            ("name".to_string(), Value::Str(span.name.clone())),
            ("id".to_string(), Value::Str(span.id.to_hex())),
            ("start_ms".to_string(), Value::Num(span.start_ms)),
            ("duration_ms".to_string(), Value::Num(span.duration_ms)),
        ];
        if !span.attrs.is_empty() {
            fields.push(("attrs".to_string(), attrs_value(&span.attrs)));
        }
        // Span sets are trees by construction; the depth cap is a guard against
        // pathological merged input, not an expected path.
        let nested = if depth < 64 {
            children[i]
                .iter()
                .map(|&c| render(c, spans, children, depth + 1))
                .collect()
        } else {
            Vec::new()
        };
        fields.push(("children".to_string(), Value::Array(nested)));
        Value::Object(fields)
    }
    Value::Array(
        roots
            .iter()
            .map(|&r| render(r, spans, &children, 0))
            .collect(),
    )
}

/// The `GET /version` body: crate version, build profile, git describe (when
/// the binary runs inside a checkout) and the process id — enough to correlate
/// a multi-process trace journal to a build and a process.
#[derive(Serialize)]
struct VersionBody {
    version: String,
    profile: String,
    git: Option<String>,
    pid: u64,
}

/// The `VersionBody` of this process, as a shim-serde [`Value`].
pub fn version_value() -> Value {
    static GIT: OnceLock<Option<String>> = OnceLock::new();
    let git = GIT.get_or_init(|| {
        std::process::Command::new("git")
            .args(["describe", "--tags", "--always", "--dirty"])
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
    });
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    VersionBody {
        version: env!("CARGO_PKG_VERSION").to_string(),
        profile: profile.to_string(),
        git: git.clone(),
        pid: u64::from(std::process::id()),
    }
    .to_value()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, id: u64, parent: Option<u64>, name: &str, start: f64) -> Span {
        Span {
            trace: TraceId::from_raw(trace),
            id: SpanId::from_raw(id),
            parent: parent.map(SpanId::from_raw),
            name: name.into(),
            start_ms: start,
            duration_ms: 1.0,
            attrs: vec![("job".into(), "j1".into())],
        }
    }

    #[test]
    fn value_round_trip_preserves_every_field() {
        let s = span(7, 9, Some(7), "prep", 3.5);
        let back = span_from_value(&span_to_value(&s)).expect("round trip");
        assert_eq!(back, s);
        // A journal line parses to the same span too.
        let line = serde_json::to_string(&span_to_value(&s)).unwrap();
        let from_line: Value = serde_json::from_str(&line).unwrap();
        assert_eq!(span_from_value(&from_line), Some(s));
        // Objects of another shape (no "span" key) are rejected, not mangled.
        let other: Value =
            serde_json::from_str(r#"{"seq":1,"ts_ms":2.0,"event":"submit","job":"x"}"#).unwrap();
        assert_eq!(span_from_value(&other), None);
    }

    #[test]
    fn json_lines_escape_and_carry_the_tree_fields() {
        let s = Span {
            trace: TraceId::from_raw(0xFF),
            id: SpanId::from_raw(0xFE),
            parent: Some(SpanId::from_raw(0xFF)),
            name: "route\"submit".into(),
            start_ms: 1.5,
            duration_ms: f64::NAN,
            attrs: vec![("job".into(), "a\nb".into())],
        };
        let line = serde_json::to_string(&span_to_value(&s)).unwrap();
        assert!(line.starts_with("{\"span\":\"route\\\"submit\""), "{line}");
        assert!(line.contains("\"trace\":\"00000000000000ff\""));
        assert!(line.contains("\"parent\":\"00000000000000ff\""));
        assert!(line.contains("\"duration_ms\":0,"), "{line}");
        assert!(line.contains("\"attrs\":{\"job\":\"a\\nb\"}"), "{line}");
        // No parent and no attrs: both keys omitted.
        let mut bare = span(1, 1, None, "job", 0.0);
        bare.attrs.clear();
        let bare = serde_json::to_string(&span_to_value(&bare)).unwrap();
        assert!(!bare.contains("parent"), "{bare}");
        assert!(!bare.contains("attrs"), "{bare}");
    }

    #[test]
    fn events_are_zero_duration_spans_under_the_job_or_the_ops_trace() {
        let spans = SpanCollector::new(8, 1);
        let job = TraceId::from_raw(0x42);
        event(&spans, job, "submit", "j1", "");
        event(&spans, OPS_TRACE, "drain", "", "budget 5 ms");
        let recorded = spans.snapshot();
        assert_eq!(recorded[0].name, "submit");
        assert_eq!(recorded[0].parent, Some(job.root_span()));
        assert_eq!(recorded[0].duration_ms, 0.0);
        assert_eq!(recorded[0].attrs, vec![("job".into(), "j1".into())]);
        assert_eq!(recorded[1].trace, OPS_TRACE);
        assert_eq!(recorded[1].parent, None);
        assert_eq!(
            recorded[1].attrs,
            vec![("detail".into(), "budget 5 ms".into())]
        );
    }

    #[test]
    fn tree_nests_children_under_the_trace_root() {
        let trace = 0xABu64;
        let spans = vec![
            span(trace, 0x200, Some(trace), "optimize", 5.0),
            span(trace, trace, None, "job", 0.0),
            span(trace, 0x100, Some(trace), "prep", 1.0),
            span(trace, 0x300, Some(0x999), "orphan", 9.0),
        ];
        let body = trace_body(TraceId::from_raw(trace), spans);
        let tree = body.get_field("tree").unwrap().as_array().unwrap();
        // Two roots: the job span and the orphan (whose parent was evicted).
        assert_eq!(tree.len(), 2);
        let root = &tree[0];
        assert_eq!(root.get_field("name").unwrap().as_str(), Some("job"));
        let children = root.get_field("children").unwrap().as_array().unwrap();
        let names: Vec<&str> = children
            .iter()
            .map(|c| c.get_field("name").unwrap().as_str().unwrap())
            .collect();
        assert_eq!(names, vec!["prep", "optimize"], "ordered by start time");
        assert_eq!(tree[1].get_field("name").unwrap().as_str(), Some("orphan"));
        // The flat list is intact alongside the tree.
        assert_eq!(
            body.get_field("spans").unwrap().as_array().unwrap().len(),
            4
        );
    }

    #[test]
    fn duplicate_span_ids_are_deduplicated_in_the_merge() {
        let spans = vec![
            span(1, 1, None, "job", 0.0),
            span(1, 1, None, "job", 0.0),
            span(1, 2, Some(1), "prep", 1.0),
        ];
        let body = trace_body(TraceId::from_raw(1), spans);
        assert_eq!(
            body.get_field("spans").unwrap().as_array().unwrap().len(),
            2
        );
        assert_eq!(body.get_field("tree").unwrap().as_array().unwrap().len(), 1);
    }

    #[test]
    fn propagation_values_round_trip() {
        let t = TraceId::from_raw(0xDEAD_BEEF);
        let s = SpanId::from_raw(0xFACE);
        let rendered = format_trace_parent(t, s);
        assert_eq!(parse_trace_parent(&rendered), Some((t, s)));
        assert_eq!(parse_trace_parent("garbage"), None);
        assert_eq!(parse_trace_parent("00:11"), None, "ids must be 16 digits");
    }

    #[test]
    fn version_body_names_the_build() {
        let v = version_value();
        assert_eq!(
            v.get_field("version").unwrap().as_str(),
            Some(env!("CARGO_PKG_VERSION"))
        );
        let profile = v.get_field("profile").unwrap().as_str().unwrap();
        assert!(profile == "debug" || profile == "release");
        assert!(v.get_field("pid").unwrap().as_u64().unwrap() > 0);
        assert!(v.get_field("git").is_some(), "git key always present");
    }

    #[test]
    fn trace_files_hold_one_parseable_span_per_line() {
        let path = std::env::temp_dir().join(format!(
            "juliqaoa_spans_trace_file_{}.jsonl",
            std::process::id()
        ));
        let spans = trace_collector(Some(&path), 4).unwrap();
        event(&spans, TraceId::from_raw(7), "submit", "a\"b", "");
        spans.record_closed(TraceId::from_raw(7), None, "job", 1.25, vec![]);
        let text = std::fs::read_to_string(&path).unwrap();
        let names: Vec<String> = text
            .lines()
            .map(|l| {
                span_from_value(&serde_json::from_str(l).unwrap())
                    .unwrap()
                    .name
            })
            .collect();
        assert_eq!(names, ["submit", "job"]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn default_cap_ignores_garbage_env() {
        assert_eq!(DEFAULT_TRACE_CAPACITY, 1024);
    }
}
