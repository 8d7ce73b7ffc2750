//! Semantics-transparent runtime telemetry for the IOQL engines.
//!
//! The paper's instrumented semantics (§4, Figure 4) traces *effects*
//! alongside evaluation; this crate extends the same idea to execution
//! telemetry — counters, latency histograms, and a structured event
//! stream — under one hard rule, the **transparency guard**: nothing in
//! here is ever *read* by evaluation. Handles are write-only from the
//! engines' point of view (`inc`/`add`/`observe`), every read surface
//! (`get`, [`MetricsRegistry::render_prometheus`], the JSONL sink) is
//! for operators and tests, and a disabled handle compiles down to one
//! branch on an `Option` — no clock is consulted, no atomic touched.
//! `tests/telemetry.rs` holds the engines to this by running identical
//! workloads with telemetry off and on and asserting byte-identical
//! values, stores, effect traces, and governor meters.
//!
//! Three pieces:
//!
//! * [`Counter`] / [`Histogram`] — lock-free atomic handles, cheap to
//!   clone (an `Arc` each), no-ops when obtained from a disabled
//!   registry. Histograms use fixed logarithmic nanosecond buckets so
//!   recording is two `fetch_add`s, never an allocation.
//! * [`MetricsRegistry`] — names to handles. Labels are encoded in the
//!   stored name (`ioql_governor_trips_total{kind="cells"}`), which
//!   keeps registration a single map probe and still renders as valid
//!   Prometheus text exposition.
//! * [`EventSink`] — a line-delimited JSON exporter of finished
//!   [`TraceRecord`]s (a span begin/end pair, a counter snapshot, and the
//!   slow-query record) with hand-rolled serialization, flushed per
//!   record so `std::process::exit` cannot lose the tail.
//!
//! The per-query clock is the flight recorder's [`Tracer`]: engines
//! time phases only through it, and every timing surface — the phase
//! histograms a kernel feeds, the JSONL lines, the ring of recent
//! records — is derived from the finished record.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod trace;
pub use trace::{FlightRecorder, TraceRecord, TraceSpan, Tracer};

use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter.
///
/// Obtained from a [`MetricsRegistry`]; a handle from a disabled
/// registry (or [`Counter::disabled`]) carries no storage and every
/// operation is a single `Option` branch.
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// A no-op counter: increments vanish, `get` reports 0.
    pub fn disabled() -> Counter {
        Counter(None)
    }

    /// Whether this handle is backed by storage.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// The current value (0 when disabled). A read surface for
    /// operators and tests — the engines never call this.
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Upper bounds (inclusive, nanoseconds) of the fixed histogram
/// buckets: 1µs to 10s in decades, plus the implicit `+Inf`.
pub const BUCKET_BOUNDS_NS: [u64; 8] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
];

#[derive(Debug, Default)]
struct HistogramInner {
    /// One cumulative-at-render bucket per bound plus `+Inf` at the end.
    buckets: [AtomicU64; BUCKET_BOUNDS_NS.len() + 1],
    sum_ns: AtomicU64,
    count: AtomicU64,
}

impl HistogramInner {
    fn observe_ns(&self, ns: u64) {
        let idx = BUCKET_BOUNDS_NS
            .iter()
            .position(|b| ns <= *b)
            .unwrap_or(BUCKET_BOUNDS_NS.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }
}

/// A fixed-bucket latency histogram (nanoseconds).
///
/// The intended pattern keeps the clock out of disabled runs entirely:
///
/// ```
/// # let h = ioql_telemetry::Histogram::disabled();
/// let t = h.start_timer();      // None when disabled — no clock read
/// // ... the work being measured ...
/// h.observe_timer(t);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<HistogramInner>>);

impl Histogram {
    /// A no-op histogram.
    pub fn disabled() -> Histogram {
        Histogram(None)
    }

    /// Whether this handle is backed by storage.
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Records one observation of `ns` nanoseconds.
    pub fn observe_ns(&self, ns: u64) {
        if let Some(h) = &self.0 {
            h.observe_ns(ns);
        }
    }

    /// Reads the clock — only if enabled — for a later
    /// [`observe_timer`](Histogram::observe_timer).
    pub fn start_timer(&self) -> Option<Instant> {
        self.0.as_ref().map(|_| Instant::now())
    }

    /// Records the time since `start_timer`. A `None` start (disabled
    /// handle) records nothing.
    pub fn observe_timer(&self, started: Option<Instant>) {
        if let (Some(h), Some(t)) = (&self.0, started) {
            h.observe_ns(t.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        }
    }

    /// Observations recorded so far (0 when disabled).
    pub fn count(&self) -> u64 {
        self.0
            .as_ref()
            .map(|h| h.count.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Sum of all observations in nanoseconds (0 when disabled).
    pub fn sum_ns(&self) -> u64 {
        self.0
            .as_ref()
            .map(|h| h.sum_ns.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// A registry of named counters and histograms.
///
/// Series names carry their labels inline, Prometheus-style:
/// `ioql_governor_trips_total{kind="cells"}`. Registration is
/// idempotent — asking twice for one name returns handles over the same
/// storage — and a registry built disabled hands out no-op handles, so
/// instrumented code is written once and costs one branch when
/// telemetry is off.
#[derive(Debug)]
pub struct MetricsRegistry {
    enabled: bool,
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistogramInner>>>,
    help: Mutex<BTreeMap<String, String>>,
}

impl MetricsRegistry {
    /// A registry; `enabled = false` makes every handle a no-op.
    pub fn new(enabled: bool) -> MetricsRegistry {
        MetricsRegistry {
            enabled,
            counters: Mutex::new(BTreeMap::new()),
            histograms: Mutex::new(BTreeMap::new()),
            help: Mutex::new(BTreeMap::new()),
        }
    }

    /// A registry whose handles are all no-ops.
    pub fn disabled() -> MetricsRegistry {
        MetricsRegistry::new(false)
    }

    /// Whether handles from this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Registers (or retrieves) the counter `name`.
    pub fn counter(&self, name: &str) -> Counter {
        if !self.enabled {
            return Counter::disabled();
        }
        let mut map = self.counters.lock().expect("counter map poisoned");
        let cell = map.entry(name.to_string()).or_default();
        Counter(Some(Arc::clone(cell)))
    }

    /// Registers (or retrieves) the histogram `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        if !self.enabled {
            return Histogram::disabled();
        }
        let mut map = self.histograms.lock().expect("histogram map poisoned");
        let cell = map.entry(name.to_string()).or_default();
        Histogram(Some(Arc::clone(cell)))
    }

    /// Attaches a `# HELP` string to the metric family `family`
    /// (the name without its label braces). Rendered before the
    /// family's `# TYPE` line in the Prometheus exposition.
    pub fn describe(&self, family: &str, help: &str) {
        if !self.enabled {
            return;
        }
        self.help
            .lock()
            .expect("help map poisoned")
            .insert(family.to_string(), help.to_string());
    }

    fn help_lines(&self, family: &str, kind: &str, out: &mut String) {
        let help = self.help.lock().expect("help map poisoned");
        if let Some(h) = help.get(family) {
            out.push_str(&format!("# HELP {family} {}\n", help_escape(h)));
        }
        out.push_str(&format!("# TYPE {family} {kind}\n"));
    }

    /// The current value of counter `name`, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
    }

    /// A snapshot of every registered counter, name-sorted.
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect()
    }

    /// Renders every series as Prometheus text exposition: `# HELP`
    /// (when [`describe`](MetricsRegistry::describe)d) and `# TYPE`
    /// lines per metric family, counters as `name value`, histograms as
    /// cumulative `_bucket{le=…}` series ending in `+Inf` plus
    /// `_sum`/`_count`, with the stored labels preserved. Output is
    /// name-sorted (the maps are `BTreeMap`s), so two renders of the
    /// same state are byte-identical.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let counters = self.counters.lock().expect("counter map poisoned");
        let mut last_family = String::new();
        for (name, value) in counters.iter() {
            let family = family_of(name);
            if family != last_family {
                last_family = family.to_string();
                self.help_lines(family, "counter", &mut out);
            }
            out.push_str(&format!("{name} {}\n", value.load(Ordering::Relaxed)));
        }
        drop(counters);
        let histograms = self.histograms.lock().expect("histogram map poisoned");
        let mut last_family = String::new();
        for (name, h) in histograms.iter() {
            let family = family_of(name);
            if family != last_family {
                last_family = family.to_string();
                self.help_lines(family, "histogram", &mut out);
            }
            let labels = labels_of(name);
            let mut cumulative = 0u64;
            for (i, bound) in BUCKET_BOUNDS_NS.iter().enumerate() {
                cumulative += h.buckets[i].load(Ordering::Relaxed);
                out.push_str(&series_line(
                    &format!("{family}_bucket"),
                    &with_le(labels, &bound.to_string()),
                    cumulative,
                ));
            }
            cumulative += h.buckets[BUCKET_BOUNDS_NS.len()].load(Ordering::Relaxed);
            out.push_str(&series_line(
                &format!("{family}_bucket"),
                &with_le(labels, "+Inf"),
                cumulative,
            ));
            out.push_str(&series_line(
                &format!("{family}_sum"),
                &labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                h.sum_ns.load(Ordering::Relaxed),
            ));
            out.push_str(&series_line(
                &format!("{family}_count"),
                &labels.map(|l| format!("{{{l}}}")).unwrap_or_default(),
                h.count.load(Ordering::Relaxed),
            ));
        }
        out
    }
}

/// The metric family: the stored name up to its label braces.
fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label pairs inside the braces, if any (`kind="cells"`).
fn labels_of(name: &str) -> Option<&str> {
    let open = name.find('{')?;
    let close = name.rfind('}')?;
    (close > open).then(|| &name[open + 1..close])
}

/// Splices `le` into an optional existing label set.
fn with_le(labels: Option<&str>, le: &str) -> String {
    match labels {
        Some(l) => format!("{{{l},le=\"{le}\"}}"),
        None => format!("{{le=\"{le}\"}}"),
    }
}

fn series_line(name: &str, labels: &str, value: u64) -> String {
    format!("{name}{labels} {value}\n")
}

/// Escapes a `# HELP` string per the text exposition format (backslash
/// and newline).
fn help_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes `s` for inclusion inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A structured JSONL event sink: one JSON object per line, every line
/// derived from a finished [`TraceRecord`] by [`EventSink::export`].
///
/// Event schema (all timestamps are monotonic nanoseconds since the
/// sink was created; `span` numbers pair a `span_begin` with its
/// `span_end`; `trace` carries the caller's correlation ID when one was
/// propagated — full schema in `docs/TELEMETRY.md`):
///
/// ```text
/// {"event":"span_begin","span":1,"t_ns":..,"name":"query","detail":"size(Ps)","trace":"req-7"}
/// {"event":"span_end","span":1,"t_ns":..,"name":"query","ok":true}
/// {"event":"counters","t_ns":..,"counters":{"ioql_cache_hits_total":0,..}}
/// {"event":"slow_query","t_ns":..,"threshold_ms":250,"record":{..TraceRecord..}}
/// ```
///
/// Every record's lines are flushed as they are written, so the stream
/// survives `std::process::exit` (which skips destructors).
#[derive(Debug)]
pub struct EventSink {
    out: Mutex<std::io::BufWriter<std::fs::File>>,
    epoch: Instant,
    next_span: AtomicU64,
}

impl EventSink {
    /// Creates (truncating) the sink file at `path`.
    pub fn create(path: &std::path::Path) -> std::io::Result<EventSink> {
        let file = std::fs::File::create(path)?;
        Ok(EventSink {
            out: Mutex::new(std::io::BufWriter::new(file)),
            epoch: Instant::now(),
            next_span: AtomicU64::new(1),
        })
    }

    fn t_ns(&self) -> u128 {
        self.epoch.elapsed().as_nanos()
    }

    /// Exports one finished query's [`TraceRecord`] as its event lines:
    /// the `query` span pair (begin at the record's start, end now, both
    /// on the sink's clock), a `counters` snapshot of `registry`, and —
    /// when `slow_query_ms` is set and the record's `total_ns` reaches
    /// it — the record itself as a `slow_query` event. The lines are
    /// built and written under one lock, so a query's events stay
    /// contiguous, and span ids and end times increase down the file,
    /// even when sessions export concurrently.
    pub fn export(
        &self,
        record: &TraceRecord,
        registry: &MetricsRegistry,
        slow_query_ms: Option<u64>,
    ) {
        let Ok(mut w) = self.out.lock() else {
            return;
        };
        let span = self.next_span.fetch_add(1, Ordering::Relaxed);
        let end_ns = self.t_ns();
        let begin_ns = end_ns.saturating_sub(u128::from(record.total_ns));
        let trace_field = record
            .trace_id
            .as_deref()
            .map(|t| format!(",\"trace\":\"{}\"", json_escape(t)))
            .unwrap_or_default();
        let mut lines = vec![
            format!(
                "{{\"event\":\"span_begin\",\"span\":{span},\"t_ns\":{begin_ns},\"name\":\"query\",\"detail\":\"{}\"{trace_field}}}",
                json_escape(&record.query),
            ),
            format!(
                "{{\"event\":\"span_end\",\"span\":{span},\"t_ns\":{end_ns},\"name\":\"query\",\"ok\":{}}}",
                record.ok,
            ),
        ];
        let counters: Vec<String> = registry
            .counter_values()
            .into_iter()
            .map(|(k, v)| format!("\"{}\":{v}", json_escape(&k)))
            .collect();
        lines.push(format!(
            "{{\"event\":\"counters\",\"t_ns\":{end_ns},\"counters\":{{{}}}}}",
            counters.join(",")
        ));
        if let Some(ms) = slow_query_ms {
            if record.total_ns >= ms.saturating_mul(1_000_000) {
                lines.push(format!(
                    "{{\"event\":\"slow_query\",\"t_ns\":{end_ns},\"threshold_ms\":{ms},\"record\":{}}}",
                    record.to_json(),
                ));
            }
        }
        for line in lines {
            let _ = writeln!(w, "{line}");
        }
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let reg = MetricsRegistry::disabled();
        let c = reg.counter("x_total");
        let h = reg.histogram("y_ns");
        c.inc();
        c.add(10);
        h.observe_ns(5);
        assert!(!c.is_enabled() && !h.is_enabled());
        assert_eq!(c.get(), 0);
        assert_eq!(h.count(), 0);
        // No clock read when disabled.
        assert!(h.start_timer().is_none());
        assert_eq!(reg.counter_value("x_total"), None);
        assert!(reg.render_prometheus().is_empty());
    }

    #[test]
    fn counters_share_storage_by_name() {
        let reg = MetricsRegistry::new(true);
        let a = reg.counter("hits_total");
        let b = reg.counter("hits_total");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        assert_eq!(reg.counter_value("hits_total"), Some(3));
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_exposition() {
        let reg = MetricsRegistry::new(true);
        let h = reg.histogram("lat_ns{phase=\"parse\"}");
        h.observe_ns(500); // ≤ 1_000
        h.observe_ns(5_000); // ≤ 10_000
        h.observe_ns(u64::MAX); // +Inf
        assert_eq!(h.count(), 3);
        let text = reg.render_prometheus();
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"1000\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"10000\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("lat_ns_bucket{phase=\"parse\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("lat_ns_count{phase=\"parse\"} 3"), "{text}");
    }

    #[test]
    fn prometheus_groups_families_and_keeps_labels() {
        let reg = MetricsRegistry::new(true);
        reg.counter("trips_total{kind=\"cells\"}").inc();
        reg.counter("trips_total{kind=\"wall-clock\"}").add(2);
        reg.counter("draws_total").add(7);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE trips_total counter").count(),
            1,
            "{text}"
        );
        assert!(text.contains("trips_total{kind=\"cells\"} 1"), "{text}");
        assert!(
            text.contains("trips_total{kind=\"wall-clock\"} 2"),
            "{text}"
        );
        assert!(text.contains("draws_total 7"), "{text}");
    }

    #[test]
    fn prometheus_golden_exposition() {
        // Pins the full text format: HELP before TYPE, cumulative
        // buckets ending in +Inf, stable name-sorted output.
        let reg = MetricsRegistry::new(true);
        reg.describe("lat_ns", "Phase latency\nby phase");
        reg.describe("trips_total", "Governor trips");
        reg.counter("trips_total{kind=\"cells\"}").inc();
        reg.counter("draws_total").add(7);
        let h = reg.histogram("lat_ns{phase=\"parse\"}");
        h.observe_ns(500);
        h.observe_ns(5_000);
        let expected = "\
# TYPE draws_total counter
draws_total 7
# HELP trips_total Governor trips
# TYPE trips_total counter
trips_total{kind=\"cells\"} 1
# HELP lat_ns Phase latency\\nby phase
# TYPE lat_ns histogram
lat_ns_bucket{phase=\"parse\",le=\"1000\"} 1
lat_ns_bucket{phase=\"parse\",le=\"10000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"100000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"1000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"10000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"100000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"1000000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"10000000000\"} 2
lat_ns_bucket{phase=\"parse\",le=\"+Inf\"} 2
lat_ns_sum{phase=\"parse\"} 5500
lat_ns_count{phase=\"parse\"} 2
";
        let text = reg.render_prometheus();
        assert_eq!(text, expected);
        // Rendering twice is byte-identical (stable sort).
        assert_eq!(reg.render_prometheus(), text);
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn event_sink_writes_line_delimited_json() {
        let path = std::env::temp_dir().join(format!(
            "ioql-telemetry-test-{}-{}.jsonl",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let reg = MetricsRegistry::new(true);
        reg.counter("q_total").inc();
        let record = |query: &str, trace: Option<&str>| {
            let mut t = Tracer::start(Instant::now(), query, trace.map(String::from), None);
            let p = t.begin("parse", "");
            t.end(p);
            t.finish(true, None).unwrap()
        };
        {
            let sink = EventSink::create(&path).unwrap();
            sink.export(&record("size(Ps) \"quoted\"", None), &reg, None);
            sink.export(&record("size(Qs)", Some("req-42")), &reg, Some(0));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 7, "{text}");
        assert!(
            lines[0].contains("\"event\":\"span_begin\"") && lines[0].contains("\\\"quoted\\\"")
        );
        assert!(
            !lines[0].contains("\"trace\""),
            "untraced span: {}",
            lines[0]
        );
        assert!(lines[1].contains("\"event\":\"span_end\"") && lines[1].contains("\"ok\":true"));
        assert!(lines[2].contains("\"counters\":{\"q_total\":1}"));
        assert!(lines[3].contains("\"trace\":\"req-42\""), "{}", lines[3]);
        assert!(
            lines[6].contains("\"event\":\"slow_query\"")
                && lines[6].contains("\"threshold_ms\":0")
                && lines[6].contains("\"trace_id\":\"req-42\""),
            "{}",
            lines[6]
        );
        // Span ids keep increasing; a span begins no later than it ends.
        assert!(lines[3].contains("\"span\":2"), "{}", lines[3]);
        let t_ns = |l: &str| -> u128 {
            let rest = &l[l.find("\"t_ns\":").unwrap() + 7..];
            rest[..rest.find(|c: char| !c.is_ascii_digit()).unwrap()]
                .parse()
                .unwrap()
        };
        assert!(t_ns(lines[0]) <= t_ns(lines[1]));
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'), "not an object: {l}");
        }
    }
}
