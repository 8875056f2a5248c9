//! Metric declarations and the [`Stage`] guard.
//!
//! A metric is declared once, in the module that owns it, as one entry
//! `field: "exposition_name", "help";` — the help text is also the field's
//! doc.  [`counter_set!`](crate::counter_set) turns such entries into a
//! struct of [`Counter`]s, its plain snapshot struct, `snapshot()`, `delta()`
//! and the Prometheus lines; [`histogram_set!`](crate::histogram_set) turns
//! them into a struct of [`LatencyHistogram`]s and their exposition.  No other
//! code restates a declared metric's name or help.
//!
//! A [`Stage`] times one stage of a traced job once.  Finishing it feeds every
//! sink from that one measurement: the stage's histogram, the histogram's
//! exemplar, the stage's span when one is asked for, and the milliseconds the
//! caller keeps for its per-job timings.
//!
//! [`Counter`]: crate::Counter

use crate::encode::PromWriter;
use crate::hist::{Histogram, HistogramSnapshot};
use crate::span::{SpanCollector, TraceId};
use std::sync::Mutex;
use std::time::Instant;

/// Declares a set of monotonic counters once.
///
/// The first struct holds the atomic counters (`const fn new()`,
/// `snapshot()`); the second is their plain snapshot, carrying the caller's
/// attributes and derives, with `delta()` and `expose()`.  Both list the
/// fields in declaration order, so a serde derive on the snapshot keeps that
/// key order and `expose()` writes the families in it.
///
/// ```
/// juliqaoa_telemetry::counter_set! {
///     /// Counters of a toy cache.
///     pub struct CacheCounters;
///     /// A point-in-time copy of [`CacheCounters`].
///     #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
///     pub struct CacheSnapshot;
///     hits: "cache_hits", "Lookups served from the cache.";
///     misses: "cache_misses", "Lookups that had to compute.";
/// }
///
/// static CACHE: CacheCounters = CacheCounters::new();
/// let before = CACHE.snapshot();
/// CACHE.hits.inc();
/// assert_eq!(CACHE.snapshot().delta(&before).hits, 1);
/// let mut w = juliqaoa_telemetry::PromWriter::new();
/// CACHE.snapshot().expose(&mut w);
/// assert!(w.finish().ends_with("# TYPE cache_misses counter\ncache_misses 0\n"));
/// ```
#[macro_export]
macro_rules! counter_set {
    (
        $(#[$counters_attr:meta])*
        pub struct $counters:ident;
        $(#[$snapshot_attr:meta])*
        pub struct $snapshot:ident;
        $($field:ident: $name:literal, $help:literal;)+
    ) => {
        $(#[$counters_attr])*
        #[derive(Debug, Default)]
        pub struct $counters {
            $(#[doc = $help] pub $field: $crate::Counter,)+
        }

        impl $counters {
            /// Every counter at zero (usable in `static` position).
            pub const fn new() -> Self {
                $counters { $($field: $crate::Counter::new(),)+ }
            }

            /// Reads every counter (relaxed; each field individually consistent).
            pub fn snapshot(&self) -> $snapshot {
                $snapshot { $($field: self.$field.get(),)+ }
            }
        }

        $(#[$snapshot_attr])*
        pub struct $snapshot {
            $(#[doc = $help] pub $field: u64,)+
        }

        impl $snapshot {
            /// The counts accumulated between `earlier` and `self` (saturating,
            /// so a stale `earlier` from another snapshot interleaving never
            /// underflows).
            pub fn delta(&self, earlier: &$snapshot) -> $snapshot {
                $snapshot { $($field: self.$field.saturating_sub(earlier.$field),)+ }
            }

            /// Writes one Prometheus counter family per field.
            pub fn expose(&self, w: &mut $crate::PromWriter) {
                $(w.counter($name, $help, self.$field);)+
            }
        }
    };
}

/// Declares a set of latency histograms once.
///
/// The struct holds one [`LatencyHistogram`] per entry, built by `Default`;
/// `expose()` writes every family, each followed by its exemplar once it has
/// one, in declaration order.
///
/// ```
/// use juliqaoa_telemetry::{Stage, TraceId};
/// juliqaoa_telemetry::histogram_set! {
///     /// Latencies of a toy pipeline.
///     pub struct PipelineLatency;
///     parse_ms: "pipeline_parse_ms", "Milliseconds spent parsing.";
/// }
///
/// let latency = PipelineLatency::default();
/// let ms = Stage::start(&latency.parse_ms).finish(TraceId::from_raw(0xab));
/// assert!(ms >= 0.0);
/// let mut w = juliqaoa_telemetry::PromWriter::new();
/// latency.expose(&mut w);
/// assert!(w.finish().contains("# EXEMPLAR pipeline_parse_ms{trace_id=\"00000000000000ab\"}"));
/// ```
#[macro_export]
macro_rules! histogram_set {
    (
        $(#[$attr:meta])*
        pub struct $set:ident;
        $($field:ident: $name:literal, $help:literal;)+
    ) => {
        $(#[$attr])*
        #[derive(Debug)]
        pub struct $set {
            $(#[doc = $help] pub $field: $crate::LatencyHistogram,)+
        }

        impl Default for $set {
            fn default() -> Self {
                $set { $($field: $crate::LatencyHistogram::new($name, $help),)+ }
            }
        }

        impl $set {
            /// Writes every histogram family, each followed by its exemplar.
            pub fn expose(&self, w: &mut $crate::PromWriter) {
                $(self.$field.expose(w);)+
            }
        }
    };
}

/// A latency histogram (default millisecond buckets) that carries its
/// exposition name and help, and keeps its last traced observation as its
/// exemplar.
///
/// Observations arrive through a [`Stage`].  Setting the exemplar takes a
/// small mutex once per finished stage, never inside a kernel; the buckets
/// stay lock-free.
#[derive(Debug)]
pub struct LatencyHistogram {
    name: &'static str,
    help: &'static str,
    hist: Histogram,
    exemplar: Mutex<Option<(TraceId, f64)>>,
}

impl LatencyHistogram {
    /// An empty histogram with [`Histogram::latency_ms`] buckets.
    pub fn new(name: &'static str, help: &'static str) -> Self {
        LatencyHistogram {
            name,
            help,
            hist: Histogram::latency_ms(),
            exemplar: Mutex::new(None),
        }
    }

    /// A snapshot of the buckets, for quantiles.
    pub fn snapshot(&self) -> HistogramSnapshot {
        self.hist.snapshot()
    }

    fn observe(&self, ms: f64, trace: TraceId) {
        self.hist.observe(ms);
        *self.exemplar.lock().expect("exemplar lock poisoned") = Some((trace, ms));
    }

    /// Writes the histogram family, then its exemplar line once a traced
    /// observation exists.
    pub fn expose(&self, w: &mut PromWriter) {
        // The exemplar is read first: it is set after its observation, so one
        // that is present is always counted in the buckets read below.
        let exemplar = *self.exemplar.lock().expect("exemplar lock poisoned");
        w.histogram(self.name, self.help, &self.hist.snapshot());
        if let Some((trace, ms)) = exemplar {
            w.exemplar(self.name, &trace.to_hex(), ms);
        }
    }
}

/// One stage of a traced job, timed once.
///
/// A stage starts at a stage boundary and finishes exactly once: finishing
/// consumes it.  Finishing observes the stage's histogram, makes the job's
/// trace the histogram's exemplar and returns the stage's milliseconds, which
/// the caller puts into its per-job timings; [`Stage::finish_span`] also
/// records the stage's span.  A stage dropped unfinished (a job that failed
/// part-way) records nothing.
#[must_use = "a stage records nothing until it is finished"]
#[derive(Debug)]
pub struct Stage<'a> {
    hist: &'a LatencyHistogram,
    started: Instant,
}

impl<'a> Stage<'a> {
    /// A stage of `hist` starting now.
    pub fn start(hist: &'a LatencyHistogram) -> Self {
        Stage::since(hist, Instant::now())
    }

    /// A stage of `hist` that started at `started` (a job's enqueue time).
    pub fn since(hist: &'a LatencyHistogram, started: Instant) -> Self {
        Stage { hist, started }
    }

    /// Ends the stage: observes its histogram with `trace` as the exemplar
    /// and returns the stage's milliseconds.
    pub fn finish(self, trace: TraceId) -> f64 {
        let ms = self.started.elapsed().as_secs_f64() * 1e3;
        self.hist.observe(ms, trace);
        ms
    }

    /// [`Stage::finish`], also recording the stage as span `name` under
    /// `trace`'s root span, with `attrs`, when a collector is given.
    pub fn finish_span(
        self,
        trace: TraceId,
        spans: Option<&SpanCollector>,
        name: &str,
        attrs: &[(&str, &str)],
    ) -> f64 {
        let ms = self.finish(trace);
        if let Some(spans) = spans {
            let attrs = attrs
                .iter()
                .map(|&(key, value)| (key.to_string(), value.to_string()))
                .collect();
            spans.record_closed(trace, Some(trace.root_span()), name, ms, attrs);
        }
        ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    crate::histogram_set! {
        /// Two stages of a test pipeline.
        pub struct TestLatency;
        first_ms: "test_first_ms", "First stage.";
        second_ms: "test_second_ms", "Second stage.";
    }

    #[test]
    fn a_histogram_has_no_exemplar_until_a_traced_observation() {
        let latency = TestLatency::default();
        let mut w = PromWriter::new();
        latency.expose(&mut w);
        let text = w.finish();
        assert!(
            text.contains("# HELP test_first_ms First stage.\n"),
            "{text}"
        );
        assert!(text.contains("test_second_ms_count 0\n"), "{text}");
        assert!(!text.contains("# EXEMPLAR"), "{text}");

        let trace = TraceId::from_raw(0x0123_4567_89ab_cdef);
        let ms = Stage::start(&latency.second_ms).finish(trace);
        let mut w = PromWriter::new();
        latency.expose(&mut w);
        let text = w.finish();
        assert!(!text.contains("# EXEMPLAR test_first_ms"), "{text}");
        let line = format!("# EXEMPLAR test_second_ms{{trace_id=\"0123456789abcdef\"}} {ms}\n");
        assert!(text.ends_with(&line), "{text}");
        assert_eq!(latency.second_ms.snapshot().count, 1);
    }

    #[test]
    fn finishing_feeds_the_histogram_the_span_and_the_caller_one_measurement() {
        let latency = TestLatency::default();
        let spans = SpanCollector::new(8, 1);
        let trace = TraceId::from_raw(42);
        let started = Instant::now() - std::time::Duration::from_millis(5);
        let ms = Stage::since(&latency.first_ms, started).finish_span(
            trace,
            Some(&spans),
            "first",
            &[("job", "j1")],
        );
        assert!(ms >= 5.0, "{ms}");
        let snap = latency.first_ms.snapshot();
        assert_eq!(snap.count, 1);
        assert!((snap.sum - ms).abs() < 1e-3, "{} vs {ms}", snap.sum);
        let recorded = spans.for_trace(trace);
        assert_eq!(recorded.len(), 1);
        assert_eq!(recorded[0].name, "first");
        assert_eq!(recorded[0].parent, Some(trace.root_span()));
        assert_eq!(recorded[0].duration_ms, ms);
        assert_eq!(recorded[0].attrs, vec![("job".into(), "j1".into())]);
        // Without a collector the stage still observes, and records no span.
        Stage::start(&latency.first_ms).finish_span(trace, None, "first", &[]);
        assert_eq!(latency.first_ms.snapshot().count, 2);
        assert_eq!(spans.len(), 1);
    }

    #[test]
    fn a_dropped_stage_records_nothing() {
        let latency = TestLatency::default();
        drop(Stage::start(&latency.first_ms));
        assert_eq!(latency.first_ms.snapshot().count, 0);
        let mut w = PromWriter::new();
        latency.expose(&mut w);
        assert!(!w.finish().contains("# EXEMPLAR"));
    }
}
