//! Sinks: where spans, events and metrics go.
//!
//! * [`NullSink`] — discards everything (never actually reached: with no
//!   sink installed the recording API short-circuits on a thread-local
//!   boolean before building any record).
//! * [`Collector`] — aggregates counters and per-name duration
//!   histograms, and retains every span/event for export as Chrome
//!   trace-event JSON ([`Collector::chrome_trace_json`]) or a JSON stats
//!   report ([`Collector::stats_json`]).
//! * [`StderrSink`] — pretty-prints span ends and events to stderr,
//!   indented by span depth, for interactive debugging.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::histogram::Histogram;
use crate::{chrome, json};

/// A finished span as handed to sinks.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// Span name (e.g. `compile.parse`).
    pub name: &'static str,
    /// When the span opened.
    pub start: Instant,
    /// How long it lasted.
    pub dur: Duration,
    /// Nesting depth at the span's own level (0 = top level).
    pub depth: usize,
    /// Dense thread tag (1-based, first-use order).
    pub tid: u64,
    /// Key/value fields attached via [`Span::field`](crate::Span::field).
    pub fields: Vec<(&'static str, String)>,
}

/// An instantaneous event as handed to sinks.
#[derive(Debug, Clone)]
pub struct EventRecord {
    /// Event name.
    pub name: &'static str,
    /// When it happened.
    pub at: Instant,
    /// Span-stack depth at emission time.
    pub depth: usize,
    /// Dense thread tag.
    pub tid: u64,
    /// Key/value fields.
    pub fields: Vec<(&'static str, String)>,
}

/// Destination for telemetry.  Implementations must not call back into
/// the recording API.
pub trait Sink {
    /// A span closed.
    fn span(&self, record: &SpanRecord);
    /// An event fired.
    fn event(&self, record: &EventRecord);
    /// A counter was incremented.
    fn counter(&self, name: &'static str, delta: u64);
    /// An externally measured duration sample.
    fn duration(&self, name: &'static str, d: Duration);
    /// A `Send`-able handle feeding the same destination, for installing
    /// on a worker thread (see [`fork_current`](crate::fork_current)).
    /// `None` (the default) means the sink is single-threaded and workers
    /// run untraced.
    fn fork(&self) -> Option<Box<dyn Sink + Send>> {
        None
    }
}

/// Discards everything.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl Sink for NullSink {
    fn span(&self, _: &SpanRecord) {}
    fn event(&self, _: &EventRecord) {}
    fn counter(&self, _: &'static str, _: u64) {}
    fn duration(&self, _: &'static str, _: Duration) {}
    fn fork(&self) -> Option<Box<dyn Sink + Send>> {
        Some(Box::new(NullSink))
    }
}

/// A span retained by a [`Collector`], timestamped relative to the
/// collector's epoch.
#[derive(Debug, Clone)]
pub struct CollectedSpan {
    /// Span name.
    pub name: &'static str,
    /// Start offset from the collector's epoch, µs.
    pub ts_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Nesting depth.
    pub depth: usize,
    /// Thread tag.
    pub tid: u64,
    /// Fields (owned copies).
    pub fields: Vec<(String, String)>,
}

/// An event retained by a [`Collector`].
#[derive(Debug, Clone)]
pub struct CollectedEvent {
    /// Event name.
    pub name: &'static str,
    /// Offset from the collector's epoch, µs.
    pub ts_us: u64,
    /// Thread tag.
    pub tid: u64,
    /// Fields (owned copies).
    pub fields: Vec<(String, String)>,
}

#[derive(Debug)]
struct CollectorInner {
    epoch: Instant,
    spans: Vec<CollectedSpan>,
    events: Vec<CollectedEvent>,
    counters: BTreeMap<&'static str, u64>,
    histograms: BTreeMap<&'static str, Histogram>,
}

/// The collecting sink: cheap to clone (shared interior), aggregates
/// counters and histograms, retains spans/events for export.
///
/// # Examples
///
/// ```
/// use smlsc_trace as trace;
/// let c = trace::Collector::new();
/// trace::with_sink(Box::new(c.clone()), || {
///     let _s = trace::span("work");
/// });
/// assert_eq!(c.spans().len(), 1);
/// let report: String = c.stats_json();
/// assert!(report.contains("histograms"));
/// ```
#[derive(Debug, Clone)]
pub struct Collector {
    inner: Arc<Mutex<CollectorInner>>,
}

impl Default for Collector {
    fn default() -> Self {
        Collector::new()
    }
}

impl Collector {
    /// A fresh collector; its epoch (trace time zero) is now.
    pub fn new() -> Collector {
        Collector {
            inner: Arc::new(Mutex::new(CollectorInner {
                epoch: Instant::now(),
                spans: Vec::new(),
                events: Vec::new(),
                counters: BTreeMap::new(),
                histograms: BTreeMap::new(),
            })),
        }
    }

    /// Installs a clone of this collector as the current thread's sink.
    pub fn install(&self) {
        crate::install(Box::new(self.clone()));
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CollectorInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// All counters, sorted by name.
    pub fn counters(&self) -> Vec<(String, u64)> {
        self.lock()
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect()
    }

    /// The histogram for `name`, if any samples were recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.lock().histograms.get(name).cloned()
    }

    /// All retained spans, in completion order.
    pub fn spans(&self) -> Vec<CollectedSpan> {
        self.lock().spans.clone()
    }

    /// All retained events, in emission order.
    pub fn events(&self) -> Vec<CollectedEvent> {
        self.lock().events.clone()
    }

    /// Chrome trace-event JSON (the array form): one `ph:"X"` complete
    /// event per span and one `ph:"i"` instant event per event, loadable
    /// in `chrome://tracing` or Perfetto.
    pub fn chrome_trace_json(&self) -> String {
        let inner = self.lock();
        chrome::trace_json(&inner.spans, &inner.events)
    }

    /// A JSON stats report: counters, per-name histograms (count,
    /// total/min/max/mean, p50/p90/p99, non-empty buckets), and
    /// span/event totals.
    pub fn stats_json(&self) -> String {
        let inner = self.lock();
        let mut counters = json::Obj::new();
        for (k, v) in &inner.counters {
            counters.u64(k, *v);
        }
        let mut histograms = json::Obj::new();
        for (k, h) in &inner.histograms {
            let buckets = json::array(h.nonzero_buckets().into_iter().map(|(le, n)| {
                let mut b = json::Obj::new();
                b.u64("le_us", le).u64("count", n);
                b.finish()
            }));
            let mut o = json::Obj::new();
            o.u64("count", h.count())
                .u64("total_us", h.total_us())
                .u64("min_us", h.min_us())
                .u64("max_us", h.max_us())
                .u64("mean_us", h.mean_us())
                .u64("p50_us", h.quantile_us(0.50))
                .u64("p90_us", h.quantile_us(0.90))
                .u64("p99_us", h.quantile_us(0.99))
                .raw("buckets", &buckets);
            histograms.raw(k, &o.finish());
        }
        let mut root = json::Obj::new();
        root.raw("counters", &counters.finish())
            .raw("histograms", &histograms.finish())
            .u64("spans", inner.spans.len() as u64)
            .u64("events", inner.events.len() as u64);
        root.finish()
    }
}

impl Sink for Collector {
    fn span(&self, record: &SpanRecord) {
        let mut inner = self.lock();
        let ts_us = duration_us(record.start.saturating_duration_since(inner.epoch));
        inner
            .histograms
            .entry(record.name)
            .or_default()
            .record(record.dur);
        inner.spans.push(CollectedSpan {
            name: record.name,
            ts_us,
            dur_us: duration_us(record.dur),
            depth: record.depth,
            tid: record.tid,
            fields: record
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    fn event(&self, record: &EventRecord) {
        let mut inner = self.lock();
        let ts_us = duration_us(record.at.saturating_duration_since(inner.epoch));
        inner.events.push(CollectedEvent {
            name: record.name,
            ts_us,
            tid: record.tid,
            fields: record
                .fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }

    fn counter(&self, name: &'static str, delta: u64) {
        *self.lock().counters.entry(name).or_insert(0) += delta;
    }

    fn duration(&self, name: &'static str, d: Duration) {
        self.lock().histograms.entry(name).or_default().record(d);
    }

    fn fork(&self) -> Option<Box<dyn Sink + Send>> {
        Some(Box::new(self.clone()))
    }
}

fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Pretty-prints spans and events to stderr, indented by nesting depth.
#[derive(Debug, Clone, Copy, Default)]
pub struct StderrSink;

fn render_fields(fields: &[(&'static str, String)]) -> String {
    fields
        .iter()
        .map(|(k, v)| format!(" {k}={v}"))
        .collect::<String>()
}

impl Sink for StderrSink {
    fn span(&self, r: &SpanRecord) {
        eprintln!(
            "[trace] {:indent$}{} {:.3}ms{}",
            "",
            r.name,
            r.dur.as_secs_f64() * 1e3,
            render_fields(&r.fields),
            indent = r.depth * 2
        );
    }

    fn event(&self, r: &EventRecord) {
        eprintln!(
            "[trace] {:indent$}• {}{}",
            "",
            r.name,
            render_fields(&r.fields),
            indent = r.depth * 2
        );
    }

    fn counter(&self, _: &'static str, _: u64) {}

    fn duration(&self, _: &'static str, _: Duration) {}

    fn fork(&self) -> Option<Box<dyn Sink + Send>> {
        Some(Box::new(StderrSink))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collector_aggregates_directly() {
        let c = Collector::new();
        c.counter_add_for_test("hits", 3);
        assert_eq!(c.counter("hits"), 3);
        assert_eq!(c.counter("misses"), 0);
    }

    impl Collector {
        fn counter_add_for_test(&self, name: &'static str, delta: u64) {
            Sink::counter(self, name, delta);
        }
    }

    #[test]
    fn stats_json_is_well_formed() {
        let c = Collector::new();
        Sink::counter(&c, "n", 1);
        Sink::duration(&c, "phase", Duration::from_micros(7));
        let s = c.stats_json();
        assert!(s.contains(r#""counters":{"n":1}"#), "{s}");
        assert!(s.contains(r#""phase":{"count":1"#), "{s}");
        assert!(s.ends_with('}'));
    }

    #[test]
    fn stats_json_keys_are_sorted_regardless_of_bump_order() {
        // Counters and histograms live in BTreeMaps, so the report is a
        // pure function of the collected data — whatever order a
        // parallel build's workers bumped them in.
        let c = Collector::new();
        for name in ["zeta", "alpha", "mid"] {
            Sink::counter(&c, name, 1);
            Sink::duration(&c, name, Duration::from_micros(5));
        }
        let d = Collector::new();
        for name in ["mid", "zeta", "alpha"] {
            Sink::counter(&d, name, 1);
            Sink::duration(&d, name, Duration::from_micros(5));
        }
        let s = c.stats_json();
        assert_eq!(s, d.stats_json());
        assert!(
            s.contains(r#""counters":{"alpha":1,"mid":1,"zeta":1}"#),
            "{s}"
        );
    }
}
