//! The query flight recorder: per-query decision traces.
//!
//! Aggregate counters (the [`MetricsRegistry`](crate::MetricsRegistry))
//! answer "how often"; the flight recorder answers "why was *this*
//! query slow / serialized / uncached". Every traced query produces one
//! [`TraceRecord`] — a span tree over the pipeline phases (parse →
//! typecheck → effect-infer → optimize → lower → execute) plus the
//! scheduling events around them (scheduler wait, kernel lock
//! acquisition, cache probe, WAL append/fsync), each span carrying the
//! *verdict* the engine reached at that point: cache hit/miss with its
//! reason, admission mode with its interference witness, per-node
//! parallel and compile verdicts, governor charges.
//!
//! Records land in a [`FlightRecorder`] — a fixed-capacity in-memory
//! ring, oldest evicted first — and are queryable by recency
//! (`:trace last [N]`, `GET /traces?n=K`) or by sequence number
//! (`:trace seq S`).
//!
//! The transparency guard extends to recording: a [`Tracer`] built
//! `off` makes every call a single `Option` branch (no clock read, no
//! allocation — verdicts are built by closures that never run), and the
//! differential suites hold recording to the same byte-identical
//! off-vs-on contract as the metrics (see `tests/flight_recorder.rs`).

use crate::json_escape;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed span of a traced query, with the decision made there.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceSpan {
    /// The span name (`parse`, `sched-wait`, `cache-probe`,
    /// `wal-append`, `execute`, …).
    pub name: String,
    /// Free-form detail (e.g. the plan-node label a verdict refers to).
    pub detail: String,
    /// Start offset in nanoseconds from the start of the record.
    pub start_ns: u64,
    /// Duration in nanoseconds (0 for instantaneous annotations).
    pub dur_ns: u64,
    /// Tree depth: spans opened while another span is open nest under
    /// it.
    pub depth: usize,
    /// The verdict reached in this span, when one was: `hit`,
    /// `serialized witness=(A(P), R(P))`, `seq(parallelism off)`, ….
    pub verdict: Option<String>,
}

/// The complete decision trace of one query.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TraceRecord {
    /// Recorder-assigned sequence number (1-based, monotonic across the
    /// kernel's lifetime; assigned on insertion). `0` on a record that
    /// never reached a ring (a kernel exporting to metrics or a JSONL
    /// sink only).
    pub seq: u64,
    /// The caller-supplied correlation ID (wire clients send
    /// `trace=ID`; embedded callers may pass one programmatically).
    pub trace_id: Option<String>,
    /// The session label the query ran under, when it ran in a session.
    pub session: Option<String>,
    /// The query text as submitted.
    pub query: String,
    /// Whether the query succeeded.
    pub ok: bool,
    /// The rendered error, for failed queries.
    pub error: Option<String>,
    /// Monotonic nanoseconds since the recorder's epoch at which the
    /// record was inserted (ordering across records; not wall time).
    pub t_ns: u64,
    /// Total wall-clock nanoseconds, submission to completion
    /// (covers scheduler wait — see `QueryResult::elapsed`).
    pub total_ns: u64,
    /// Nanoseconds spent between submission and admission (scheduler
    /// wait plus, for writers, the state write lock).
    pub wait_ns: u64,
    /// The span tree, in open order.
    pub spans: Vec<TraceSpan>,
}

impl TraceRecord {
    /// The first verdict recorded under a span with this `name`, if
    /// any — convenience for tests and quick queries.
    pub fn verdict_of(&self, name: &str) -> Option<&str> {
        self.spans
            .iter()
            .find(|s| s.name == name && s.verdict.is_some())
            .and_then(|s| s.verdict.as_deref())
    }

    /// Renders the record as one JSON object (the `/traces` wire form —
    /// schema documented in `docs/TELEMETRY.md`).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str(&format!("{{\"seq\":{}", self.seq));
        match &self.trace_id {
            Some(id) => out.push_str(&format!(",\"trace_id\":\"{}\"", json_escape(id))),
            None => out.push_str(",\"trace_id\":null"),
        }
        match &self.session {
            Some(s) => out.push_str(&format!(",\"session\":\"{}\"", json_escape(s))),
            None => out.push_str(",\"session\":null"),
        }
        out.push_str(&format!(",\"query\":\"{}\"", json_escape(&self.query)));
        out.push_str(&format!(",\"ok\":{}", self.ok));
        match &self.error {
            Some(e) => out.push_str(&format!(",\"error\":\"{}\"", json_escape(e))),
            None => out.push_str(",\"error\":null"),
        }
        out.push_str(&format!(
            ",\"t_ns\":{},\"total_ns\":{},\"wait_ns\":{},\"spans\":[",
            self.t_ns, self.total_ns, self.wait_ns
        ));
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"detail\":\"{}\",\"start_ns\":{},\"dur_ns\":{},\"depth\":{}",
                json_escape(&s.name),
                json_escape(&s.detail),
                s.start_ns,
                s.dur_ns,
                s.depth
            ));
            match &s.verdict {
                Some(v) => out.push_str(&format!(",\"verdict\":\"{}\"}}", json_escape(v))),
                None => out.push_str(",\"verdict\":null}"),
            }
        }
        out.push_str("]}");
        out
    }

    /// Renders the record as an indented text tree (the `:trace last`
    /// REPL output).
    pub fn render(&self) -> String {
        let mut out = format!(
            "trace #{}{}{}: {} — {} ({:.3} ms total, {:.3} ms wait)\n",
            self.seq,
            match &self.trace_id {
                Some(id) => format!(" [trace={id}]"),
                None => String::new(),
            },
            match &self.session {
                Some(s) => format!(" [{s}]"),
                None => String::new(),
            },
            self.query,
            if self.ok {
                "ok".to_string()
            } else {
                format!("err: {}", self.error.as_deref().unwrap_or("?"))
            },
            self.total_ns as f64 / 1e6,
            self.wait_ns as f64 / 1e6,
        );
        for s in &self.spans {
            for _ in 0..=s.depth {
                out.push_str("  ");
            }
            out.push_str(&s.name);
            if !s.detail.is_empty() {
                out.push_str(&format!(" {}", s.detail));
            }
            out.push_str(&format!("  {:.3} ms", s.dur_ns as f64 / 1e6));
            if let Some(v) = &s.verdict {
                out.push_str(&format!("  → {v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// A per-query trace in construction. Obtained from
/// [`Tracer::finish`]-ing; engines never hold one directly — they hold
/// a [`Tracer`], whose every operation is a no-op when tracing is off.
#[derive(Debug)]
struct TraceBuilder {
    epoch: Instant,
    query: String,
    trace_id: Option<String>,
    session: Option<String>,
    spans: Vec<TraceSpan>,
    open: Vec<usize>,
    wait_ns: u64,
}

/// The write handle the query path threads through its phases: span
/// begin/end plus verdict notes — the query's only clock. Built
/// [`Tracer::off`] when nothing consumes the finished record (no ring,
/// no metrics registry, no JSONL sink) — every method is then one
/// `Option` branch, no clock is read, and verdict closures never run,
/// so tracing keeps the telemetry transparency guard.
#[derive(Debug, Default)]
pub struct Tracer(Option<TraceBuilder>);

impl Tracer {
    /// A disabled tracer: records nothing, reads no clock.
    pub fn off() -> Tracer {
        Tracer(None)
    }

    /// A live tracer for one query, timing from `epoch` — the instant
    /// the caller took the query, so the record's `total_ns` and the
    /// caller's own elapsed time share one start.
    pub fn start(
        epoch: Instant,
        query: &str,
        trace_id: Option<String>,
        session: Option<String>,
    ) -> Tracer {
        Tracer(Some(TraceBuilder {
            epoch,
            query: query.to_string(),
            trace_id,
            session,
            spans: Vec::new(),
            open: Vec::new(),
            wait_ns: 0,
        }))
    }

    /// Whether this tracer records anything.
    pub fn is_on(&self) -> bool {
        self.0.is_some()
    }

    fn now_ns(b: &TraceBuilder) -> u64 {
        b.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }

    /// Opens a span; spans opened while another is open nest under it.
    /// Returns a token for [`Tracer::end`] (`None` when off).
    pub fn begin(&mut self, name: &str, detail: &str) -> Option<usize> {
        let b = self.0.as_mut()?;
        let start_ns = Tracer::now_ns(b);
        let depth = b.open.len();
        b.spans.push(TraceSpan {
            name: name.to_string(),
            detail: detail.to_string(),
            start_ns,
            dur_ns: 0,
            depth,
            verdict: None,
        });
        let idx = b.spans.len() - 1;
        b.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, token: Option<usize>) {
        self.end_with(token, || None);
    }

    /// Closes a span, attaching the verdict the closure builds. The
    /// closure only runs when tracing is on.
    pub fn end_with(&mut self, token: Option<usize>, verdict: impl FnOnce() -> Option<String>) {
        let (Some(b), Some(idx)) = (self.0.as_mut(), token) else {
            return;
        };
        let now = Tracer::now_ns(b);
        if let Some(s) = b.spans.get_mut(idx) {
            s.dur_ns = now.saturating_sub(s.start_ns);
            if let Some(v) = verdict() {
                s.verdict = Some(v);
            }
        }
        if let Some(pos) = b.open.iter().rposition(|i| *i == idx) {
            b.open.truncate(pos);
        }
    }

    /// Records an instantaneous annotation span at the current depth —
    /// a verdict with no meaningful duration (e.g. a per-node compile
    /// verdict). The closure builds `(detail, verdict)` and only runs
    /// when tracing is on.
    pub fn note(&mut self, name: &str, f: impl FnOnce() -> (String, String)) {
        let Some(b) = self.0.as_mut() else { return };
        let start_ns = Tracer::now_ns(b);
        let depth = b.open.len();
        let (detail, verdict) = f();
        b.spans.push(TraceSpan {
            name: name.to_string(),
            detail,
            start_ns,
            dur_ns: 0,
            depth,
            verdict: Some(verdict),
        });
    }

    /// Stamps the scheduler-wait duration (also recorded as a span by
    /// the caller; this feeds [`TraceRecord::wait_ns`]).
    pub fn set_wait_ns(&mut self, ns: u64) {
        if let Some(b) = self.0.as_mut() {
            b.wait_ns = ns;
        }
    }

    /// Seals the trace into a record (`None` when tracing is off).
    /// Spans still open — an error unwound past their `end` — are
    /// closed at the finish time. `seq` and `t_ns` are assigned by
    /// [`FlightRecorder::push`].
    pub fn finish(self, ok: bool, error: Option<String>) -> Option<TraceRecord> {
        let mut b = self.0?;
        let total_ns = Tracer::now_ns(&b);
        for idx in std::mem::take(&mut b.open) {
            if let Some(s) = b.spans.get_mut(idx) {
                s.dur_ns = total_ns.saturating_sub(s.start_ns);
            }
        }
        Some(TraceRecord {
            seq: 0,
            trace_id: b.trace_id,
            session: b.session,
            query: b.query,
            ok,
            error,
            t_ns: 0,
            total_ns,
            wait_ns: b.wait_ns,
            spans: b.spans,
        })
    }
}

/// The fixed-capacity ring of recent [`TraceRecord`]s. Insertion
/// assigns sequence numbers; when full, the oldest record is evicted.
/// Shared (`Arc`) between the kernel, the REPL, and the observability
/// listener.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    epoch: Instant,
    next_seq: AtomicU64,
    ring: Mutex<VecDeque<TraceRecord>>,
}

impl FlightRecorder {
    /// A recorder holding at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            epoch: Instant::now(),
            next_seq: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
        }
    }

    /// The ring's capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Records inserted over the recorder's lifetime (not the ring
    /// occupancy — evicted records still count).
    pub fn recorded(&self) -> u64 {
        self.next_seq.load(Ordering::Relaxed)
    }

    /// Assigns `record` the next sequence number and an insertion
    /// timestamp — for a caller that exports the record elsewhere before
    /// [`push`](FlightRecorder::push)ing it, so both copies agree.
    pub fn stamp(&self, record: &mut TraceRecord) {
        record.seq = self.next_seq.fetch_add(1, Ordering::Relaxed) + 1;
        record.t_ns = self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64;
    }

    /// Inserts a record, [`stamp`](FlightRecorder::stamp)ing it first
    /// unless it already carries a sequence number. Returns the record's
    /// sequence number.
    pub fn push(&self, mut record: TraceRecord) -> u64 {
        if record.seq == 0 {
            self.stamp(&mut record);
        }
        let seq = record.seq;
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(record);
        seq
    }

    /// The most recent `n` records, oldest first.
    pub fn last(&self, n: usize) -> Vec<TraceRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().rev().take(n).rev().cloned().collect()
    }

    /// The record with sequence number `seq`, if still in the ring.
    pub fn by_seq(&self, seq: u64) -> Option<TraceRecord> {
        let ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        ring.iter().find(|r| r.seq == seq).cloned()
    }

    /// Renders the most recent `n` records as a JSON array, oldest
    /// first (the `GET /traces?n=K` body).
    pub fn render_json(&self, n: usize) -> String {
        let records = self.last(n);
        let mut out = String::from("[");
        for (i, r) in records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(trace_id: Option<&str>) -> TraceRecord {
        let mut t = Tracer::start(
            Instant::now(),
            "size(Ps)",
            trace_id.map(String::from),
            Some("s1".into()),
        );
        let parse = t.begin("parse", "");
        t.end(parse);
        let exec = t.begin("execute", "");
        t.note("cache-probe", || (String::new(), "miss".into()));
        t.end_with(exec, || Some("governor cells=3".into()));
        t.set_wait_ns(42);
        t.finish(true, None).unwrap()
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let mut t = Tracer::off();
        assert!(!t.is_on());
        let tok = t.begin("parse", "x");
        assert_eq!(tok, None);
        t.end(tok);
        t.note("cache-probe", || panic!("closure must not run when off"));
        assert!(t.finish(true, None).is_none());
    }

    #[test]
    fn spans_nest_by_open_order() {
        let mut t = Tracer::start(Instant::now(), "q", None, None);
        let outer = t.begin("execute", "");
        let inner = t.begin("wal-append", "");
        t.end(inner);
        t.end(outer);
        let r = t.finish(true, None).unwrap();
        assert_eq!(r.spans[0].depth, 0);
        assert_eq!(r.spans[1].depth, 1);
        assert!(r.total_ns >= r.spans[0].dur_ns);
    }

    #[test]
    fn ring_evicts_oldest_and_keeps_seq() {
        let rec = FlightRecorder::new(2);
        for _ in 0..3 {
            rec.push(sample(None));
        }
        assert_eq!(rec.recorded(), 3);
        let last = rec.last(10);
        assert_eq!(last.len(), 2);
        assert_eq!(last[0].seq, 2);
        assert_eq!(last[1].seq, 3);
        assert!(rec.by_seq(1).is_none());
        assert_eq!(rec.by_seq(3).unwrap().query, "size(Ps)");
        // Insertion timestamps are monotonic.
        assert!(last[0].t_ns <= last[1].t_ns);
    }

    #[test]
    fn json_and_text_renderings_carry_verdicts() {
        let rec = FlightRecorder::new(4);
        rec.push(sample(Some("req-9")));
        let json = rec.render_json(1);
        assert!(json.starts_with('[') && json.ends_with(']'), "{json}");
        assert!(json.contains("\"trace_id\":\"req-9\""), "{json}");
        assert!(json.contains("\"session\":\"s1\""), "{json}");
        assert!(json.contains("\"verdict\":\"miss\""), "{json}");
        assert!(json.contains("\"wait_ns\":42"), "{json}");
        let text = rec.by_seq(1).unwrap().render();
        assert!(
            text.contains("trace #1 [trace=req-9] [s1]: size(Ps) — ok"),
            "{text}"
        );
        assert!(text.contains("→ miss"), "{text}");
        assert!(text.contains("→ governor cells=3"), "{text}");
    }

    #[test]
    fn verdict_of_finds_first_named_verdict() {
        let r = sample(None);
        assert_eq!(r.verdict_of("cache-probe"), Some("miss"));
        assert_eq!(r.verdict_of("parse"), None);
        assert_eq!(r.verdict_of("missing"), None);
    }
}
