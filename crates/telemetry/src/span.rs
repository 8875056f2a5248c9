//! Distributed-tracing spans: parent-linked timing records correlated across
//! processes by a shared trace id.
//!
//! The service derives each job's [`TraceId`] *deterministically* from the
//! job's canonical instance id and a fold of its spec (the derivation lives in
//! the service crate, next to the spec types) — so the router, a backend serve
//! process and a batch shard all agree on the id without exchanging state, and
//! determinism diffs over results stay byte-clean with tracing on.
//!
//! Two conventions keep cross-process merging coordination-free:
//!
//! * **The root span's id equals the trace id.**  Whoever emits a child span
//!   (the engine's `prep`/`optimize` spans, the router's `route_submit`) can
//!   parent it against [`TraceId::root_span`] without ever having seen the
//!   root record itself.
//! * **Non-root span ids are salted per collector**, so spans collected from
//!   several processes (or several collectors in one process) merge into one
//!   tree without id collisions.  Callers supply the salt; the service layer
//!   mixes the pid, the clock and a process-global counter into it.
//!
//! The [`SpanCollector`] is a bounded drop-oldest ring: recording is a short
//! mutex push per span (a handful per job, never inside simulation kernels),
//! and the collector counts what it had to evict.  A lifecycle event (job
//! submitted, done, retried, …) is recorded as a zero-duration span, so one
//! ring holds everything a process traces.  This crate is dependency-free; the
//! service layer renders spans to JSON.

use crate::trace::TraceRing;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// A 64-bit trace id, shared by every span of one traced operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

impl TraceId {
    /// Wraps a raw 64-bit id (the service derives it deterministically).
    pub const fn from_raw(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// The id of this trace's root span — by convention the trace id itself,
    /// so children can be parented without seeing the root record.
    pub const fn root_span(self) -> SpanId {
        SpanId(self.0)
    }

    /// Sixteen lowercase hex digits, the wire format used in the
    /// `X-Juliqaoa-Trace` header, trace journals and `/trace/:id` paths.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`Self::to_hex`] form (16 hex digits, any case).
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(TraceId)
    }
}

/// A span id, unique within a merged multi-process trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// Wraps a raw 64-bit id.
    pub const fn from_raw(raw: u64) -> Self {
        SpanId(raw)
    }

    /// The raw 64-bit value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Sixteen lowercase hex digits.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`Self::to_hex`] form.
    pub fn parse(s: &str) -> Option<Self> {
        if s.len() != 16 {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(SpanId)
    }
}

/// One completed span: a named, timed segment of a trace, linked to its
/// parent.  Start times are milliseconds on the owning collector's monotonic
/// clock (since collector creation) — consistent within a process; a merged
/// cross-process tree shows each process on its own clock.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id (the trace id itself for root spans).
    pub id: SpanId,
    /// The parent span, `None` for a root.
    pub parent: Option<SpanId>,
    /// Span name (`job`, `queue_wait`, `prep`, `route_submit`, …).
    pub name: String,
    /// Start, in ms since the collector's creation (monotonic).
    pub start_ms: f64,
    /// Duration in ms.
    pub duration_ms: f64,
    /// Free-form key/value annotations (job id, backend address, status, …).
    pub attrs: Vec<(String, String)>,
}

/// An optional per-span callback, used by the service to mirror every recorded
/// span to the `--trace-out` JSONL journal.
type SpanSink = Box<dyn Fn(&Span) + Send + Sync>;

/// A bounded, drop-oldest collector of completed spans, plus a salted span-id
/// allocator and a monotonic clock.
pub struct SpanCollector {
    ring: TraceRing<Span>,
    next: AtomicU64,
    salt: u64,
    epoch: Instant,
    sink: Mutex<Option<SpanSink>>,
}

impl std::fmt::Debug for SpanCollector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanCollector")
            .field("len", &self.ring.len())
            .field("dropped", &self.ring.dropped())
            .field("capacity", &self.ring.capacity())
            .finish()
    }
}

impl SpanCollector {
    /// A collector retaining at most `capacity` spans.  `salt` disambiguates
    /// span ids across collectors — pass a value unlikely to repeat (the
    /// service mixes pid, clock and a counter); root spans ignore it (their id
    /// is the trace id).
    pub fn new(capacity: usize, salt: u64) -> Self {
        SpanCollector {
            ring: TraceRing::new(capacity),
            next: AtomicU64::new(1),
            salt,
            epoch: Instant::now(),
            sink: Mutex::new(None),
        }
    }

    /// Installs a callback invoked (outside the ring lock) for every recorded
    /// span — the service's `--trace-out` mirror.
    pub fn set_sink(&self, sink: SpanSink) {
        *self.sink.lock().expect("span sink poisoned") = Some(sink);
    }

    /// Milliseconds since the collector was created (monotonic) — the clock
    /// span `start_ms` values are measured on.
    pub fn now_ms(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e3
    }

    /// Allocates a fresh non-root span id: a process-salted counter, so spans
    /// from different processes merge without collisions.
    pub fn next_span_id(&self) -> SpanId {
        // relaxed: id allocator; fetch_add is atomic regardless of ordering.
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        SpanId((self.salt << 32) ^ seq.rotate_left(1) ^ 1)
    }

    /// Records a completed span (ring push + sink mirror).
    pub fn record(&self, span: Span) {
        if let Some(sink) = self.sink.lock().expect("span sink poisoned").as_ref() {
            sink(&span);
        }
        self.ring.push(span);
    }

    /// Convenience: record a completed child span that just ended (its start
    /// is back-computed as `duration_ms` before the current clock), returning
    /// its id.
    pub fn record_closed(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &str,
        duration_ms: f64,
        attrs: Vec<(String, String)>,
    ) -> SpanId {
        let id = self.next_span_id();
        let end = self.now_ms();
        self.record(Span {
            trace,
            id,
            parent,
            name: name.to_string(),
            start_ms: (end - duration_ms.max(0.0)).max(0.0),
            duration_ms: duration_ms.max(0.0),
            attrs,
        });
        id
    }

    /// All retained spans, oldest first.
    pub fn snapshot(&self) -> Vec<Span> {
        self.ring.snapshot()
    }

    /// The retained spans of one trace, oldest first.
    pub fn for_trace(&self, trace: TraceId) -> Vec<Span> {
        self.ring
            .snapshot()
            .into_iter()
            .filter(|s| s.trace == trace)
            .collect()
    }

    /// How many spans were evicted since creation.
    pub fn dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// The maximum number of retained spans.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }

    /// Number of spans currently retained.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no spans are retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: u64, name: &str) -> Span {
        Span {
            trace: TraceId::from_raw(trace),
            id: SpanId::from_raw(trace ^ 0xAB),
            parent: None,
            name: name.into(),
            start_ms: 1.0,
            duration_ms: 2.0,
            attrs: vec![],
        }
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let t = TraceId::from_raw(0x0123_4567_89AB_CDEF);
        assert_eq!(t.to_hex(), "0123456789abcdef");
        assert_eq!(TraceId::parse(&t.to_hex()), Some(t));
        assert_eq!(TraceId::parse("123"), None);
        assert_eq!(TraceId::parse("zz23456789abcdef"), None);
        assert_eq!(t.root_span().raw(), t.raw());
        let s = SpanId::from_raw(7);
        assert_eq!(SpanId::parse(&s.to_hex()), Some(s));
    }

    #[test]
    fn collector_bounds_filters_and_counts_drops() {
        let c = SpanCollector::new(3, 42);
        for i in 0..5u64 {
            c.record(span(i % 2, "work"));
        }
        assert_eq!(c.len(), 3);
        assert_eq!(c.dropped(), 2);
        assert_eq!(c.capacity(), 3);
        let only_ones = c.for_trace(TraceId::from_raw(1));
        assert!(only_ones.iter().all(|s| s.trace.raw() == 1));
        assert!(!only_ones.is_empty());
    }

    #[test]
    fn span_ids_are_distinct_and_salted() {
        let a = SpanCollector::new(8, 1);
        let b = SpanCollector::new(8, 2);
        let ids: Vec<u64> = (0..4)
            .map(|_| a.next_span_id().raw())
            .chain((0..4).map(|_| b.next_span_id().raw()))
            .collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "salted ids must not collide");
    }

    #[test]
    fn sink_sees_every_recorded_span() {
        let c = SpanCollector::new(2, 9);
        let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
        let sink_seen = seen.clone();
        c.set_sink(Box::new(move |s: &Span| {
            sink_seen.lock().unwrap().push(s.name.clone());
        }));
        for name in ["a", "b", "c"] {
            c.record(span(0, name));
        }
        // The ring dropped one, the sink saw all three.
        assert_eq!(c.len(), 2);
        assert_eq!(*seen.lock().unwrap(), vec!["a", "b", "c"]);
    }

    #[test]
    fn record_closed_backfills_the_start() {
        let c = SpanCollector::new(4, 3);
        let t = TraceId::from_raw(5);
        let id = c.record_closed(t, Some(t.root_span()), "prep", 2.0, vec![]);
        let spans = c.for_trace(t);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].id, id);
        assert_eq!(spans[0].parent, Some(t.root_span()));
        assert!((spans[0].duration_ms - 2.0).abs() < 1e-9);
        assert!(spans[0].start_ms >= 0.0);
        // Negative durations are clamped, not propagated.
        let id2 = c.record_closed(t, None, "neg", -4.0, vec![]);
        let neg = c
            .for_trace(t)
            .into_iter()
            .find(|s| s.id == id2)
            .expect("recorded");
        assert_eq!(neg.duration_ms, 0.0);
    }
}
