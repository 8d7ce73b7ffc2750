//! In-memory spans for the traced run, and self-time arithmetic.
//!
//! A span is a name, a start and end (ns since the recorder started), the
//! span that caused it, and the request it belongs to. Spans stay in
//! memory until the run ends, then are written out as JSON lines.

use crate::stats::json_str;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index in the recorder.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The request this span belongs to.
    pub request: u64,
    /// Layer call name (`syntax.parse`, `plan.execute`, …).
    pub name: &'static str,
    /// Start, ns since the recorder started.
    pub start_ns: u64,
    /// End, ns since the recorder started (`start_ns` while open).
    pub end_ns: u64,
}

impl Span {
    /// Wall duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request,
            name,
            start_ns: start,
            end_ns: start,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and any span left open inside it).
    pub fn end(&mut self, id: usize) {
        let now = self.now_ns();
        while let Some(top) = self.open.pop() {
            self.spans[top].end_ns = now;
            if top == id {
                break;
            }
        }
    }

    /// Runs `f` inside a span named `name`; returns its result and the
    /// span's duration in ns.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let id = self.begin(name, request);
        let out = f();
        self.end(id);
        (out, self.spans[id].duration_ns())
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.request,
                json_str(s.name),
                s.start_ns,
                s.end_ns
            ));
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (children's intervals are clipped to the
/// parent and merged, so overlap is not subtracted twice).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            for k in &mut kids {
                k.0 = k.0.clamp(s.start_ns, s.end_ns);
                k.1 = k.1.clamp(s.start_ns, s.end_ns);
            }
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in kids {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: (count, total self ns).
pub fn self_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// Self time per entry of a pre-order tree given as depths and inclusive
/// times (the plan profile's shape): inclusive minus the direct
/// children's inclusive times, floored at 0.
pub fn tree_self_times(depths: &[usize], inclusive: &[u64]) -> Vec<u64> {
    (0..depths.len())
        .map(|i| {
            let d = depths[i];
            let kids: u64 = depths[i + 1..]
                .iter()
                .zip(&inclusive[i + 1..])
                .take_while(|(cd, _)| **cd > d)
                .filter(|(cd, _)| **cd == d + 1)
                .map(|(_, t)| *t)
                .sum();
            inclusive[i].saturating_sub(kids)
        })
        .collect()
}
