//! Percentiles and the reported metric record.

/// Nearest-rank percentile `p` (0–100) of `v`; `None` when `v` is empty.
pub fn percentile(v: &[f64], p: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Median (nearest rank).
pub fn median(v: &[f64]) -> Option<f64> {
    percentile(v, 50.0)
}

/// The highest whole percentile that leaves at least 10 of `n` samples
/// strictly beyond it, between 50 and [`TAIL_CAP`].
pub fn tail_percentile(n: usize) -> f64 {
    if n == 0 {
        return 50.0;
    }
    let p = (100.0 * (1.0 - 10.0 / n as f64)).floor();
    p.clamp(50.0, TAIL_CAP)
}

/// The highest tail percentile reported. Commit latency includes an
/// fsync, and on a shared virtual disk its p99 moved by about half its
/// value between identical runs, where p95 moved by about a tenth.
pub const TAIL_CAP: f64 = 95.0;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
    /// How it was derived (percentile, sample count, …), for the report.
    pub note: String,
}

impl Metric {
    /// A metric with no note.
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value,
            note: String::new(),
        }
    }

    /// Attaches a note.
    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// The p50 and tail metrics of one latency class.
pub fn latency_pair(class: &str, samples_ms: &[f64]) -> Vec<Metric> {
    let n = samples_ms.len();
    let tail = tail_percentile(n);
    vec![
        Metric::new(
            format!("{class}_p50_ms"),
            "ms",
            median(samples_ms).unwrap_or(0.0),
        )
        .with_note(format!("p50 of n={n}")),
        Metric::new(
            format!("{class}_tail_ms"),
            "ms",
            percentile(samples_ms, tail).unwrap_or(0.0),
        )
        .with_note(format!("p{tail} of n={n}")),
    ]
}

/// Renders `v` as a JSON string literal.
pub fn json_str(v: &str) -> String {
    let mut out = String::with_capacity(v.len() + 2);
    out.push('"');
    for c in v.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders a finite number with all its digits (non-finite → 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
