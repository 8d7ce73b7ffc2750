//! Telemetry tests: the **transparency guard** (telemetry on/off is
//! observationally invisible — same values, stores, effect traces, and
//! governor meters) plus coverage of the metrics series, the JSONL
//! event sink, `explain_analyze`, and the `elapsed` field.
//!
//! The transparency runs deliberately use cell/cardinality limits and
//! never wall-clock deadlines: a deadline verdict depends on timing
//! jitter, which would make off-vs-on comparison flaky for reasons that
//! have nothing to do with telemetry.

use ioql::{Database, DbOptions, Engine, Limits, RandomChooser, RunArgs, Value};
use ioql_testkit::workloads;
use std::path::PathBuf;

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "ioql-telemetry-{}-{name}.jsonl",
        std::process::id()
    ));
    p
}

fn db_with(opts: DbOptions, n: usize, seed: u64) -> Database {
    let fx = workloads::p_store(n, seed);
    let mut db = Database::from_schema(fx.schema.clone(), opts).unwrap();
    *db.store_mut() = fx.store.clone();
    db
}

/// Runs a fixed mixed workload (scans, filtered scans, a join shape, a
/// mutating batch, repeats that exercise the cache) under a
/// session-wide governor and renders every observable: per-query
/// outcome lines plus final meters and the store dump.
fn run_workload(engine: Engine, telemetry: bool, jsonl: Option<PathBuf>) -> Vec<String> {
    let opts = DbOptions {
        engine,
        telemetry,
        telemetry_jsonl: jsonl,
        // Budget limits only — never deadlines (see module docs).
        limits: Limits::none()
            .with_max_cells(20_000)
            .with_max_set_card(10_000),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 12, 42);
    let governor = db.governor();
    let queries = [
        "{ x.name | x <- Ps }",
        "{ x.name | x <- Ps, x.name < 7 }",
        "{ x.name + y.name | x <- Ps, y <- Ps, x.name < 3 }",
        "{ new P(name: x.name + 100) | x <- Ps, x.name < 3 }",
        "{ x.name | x <- Ps }",
    ];
    let mut lines = Vec::new();
    for (i, q) in queries.iter().enumerate() {
        // Twice per query: the second run of a cacheable query hits.
        for round in 0..2u64 {
            let mut chooser = RandomChooser::seeded(1_000 + i as u64 * 10 + round);
            match db.run(
                q,
                RunArgs::default().chooser(&mut chooser).governor(&governor),
            ) {
                Ok(r) => lines.push(format!(
                    "ok value={} ty={} static={{{}}} runtime={{{}}} steps={} cached={}",
                    r.value, r.ty, r.static_effect, r.runtime_effect, r.steps, r.cached
                )),
                Err(e) => lines.push(format!("err {e}")),
            }
        }
    }
    lines.push(format!(
        "meters cells={} growth={}",
        governor.cells_spent(),
        governor.growth_spent()
    ));
    let s = db.cache_stats();
    lines.push(format!(
        "cache hits={} misses={} evictions={} entries={}",
        s.hits, s.misses, s.evictions, s.entries
    ));
    lines.push(db.dump());
    lines
}

#[test]
fn telemetry_is_observationally_transparent() {
    for engine in [Engine::SmallStep, Engine::BigStep, Engine::Plan] {
        let off = run_workload(engine, false, None);
        let path = temp_path(&format!("transparent-{engine:?}"));
        let on = run_workload(engine, true, Some(path.clone()));
        assert_eq!(
            off, on,
            "telemetry must not change any observable ({engine:?})"
        );
        // The sink really wrote events while staying transparent.
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.lines().count() > 0);
        let _ = std::fs::remove_file(&path);
    }
}

#[test]
fn workload_queries_cover_cache_hits_and_mutation() {
    // Guard the fixture itself: the workload must contain at least one
    // cache hit and one mutating query, or the transparency run is
    // weaker than it claims.
    let lines = run_workload(Engine::BigStep, false, None);
    assert!(
        lines.iter().any(|l| l.contains("cached=true")),
        "{lines:#?}"
    );
    assert!(lines.iter().any(|l| l.contains("A(P)")), "{lines:#?}");
}

#[test]
fn metrics_series_cover_cache_governor_and_phases() {
    let opts = DbOptions {
        telemetry: true,
        engine: Engine::BigStep,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 8, 7);
    db.query("{ x.name | x <- Ps }").unwrap();
    let r = db.query("{ x.name | x <- Ps }").unwrap();
    assert!(r.cached);
    let reg = db.metrics().registry();
    assert_eq!(reg.counter_value("ioql_queries_total"), Some(2));
    assert_eq!(reg.counter_value("ioql_cache_hits_total"), Some(1));
    assert_eq!(reg.counter_value("ioql_cache_misses_total"), Some(1));
    // 8 draws for the fresh run; the cache hit draws nothing.
    assert_eq!(reg.counter_value("ioql_chooser_draws_total"), Some(8));
    // 8 cells charged per run — the hit re-charges the original's bill.
    assert_eq!(
        reg.counter_value("ioql_governor_charges_total{kind=\"cells\"}"),
        Some(16)
    );
    assert_eq!(
        reg.counter_value("ioql_eval_recursions_total")
            .map(|n| n > 0),
        Some(true)
    );
    let text = db.metrics_text();
    for series in [
        "# TYPE ioql_queries_total counter",
        "# TYPE ioql_cache_hits_total counter",
        "# TYPE ioql_governor_trips_total counter",
        "# TYPE ioql_phase_duration_ns histogram",
        "ioql_phase_duration_ns_bucket{phase=\"parse\"",
        "ioql_phase_duration_ns_count{phase=\"execute\"}",
        "ioql_governor_charges_total{kind=\"cells\"}",
    ] {
        assert!(text.contains(series), "missing {series:?} in:\n{text}");
    }
}

#[test]
fn governor_trips_are_counted_per_kind() {
    let opts = DbOptions {
        telemetry: true,
        limits: Limits::none().with_max_cells(3),
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 10, 3);
    let err = db.query("{ x.name | x <- Ps }");
    assert!(err.is_err());
    let reg = db.metrics().registry();
    assert_eq!(
        reg.counter_value("ioql_governor_trips_total{kind=\"cells\"}"),
        Some(1)
    );
    assert_eq!(
        reg.counter_value("ioql_governor_trips_total{kind=\"wall-clock\"}"),
        Some(0)
    );
}

#[test]
fn small_step_engine_reports_steps_counter() {
    let opts = DbOptions {
        telemetry: true,
        engine: Engine::SmallStep,
        cache_capacity: 0,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 5, 11);
    let r = db.query("{ x.name | x <- Ps }").unwrap();
    assert!(r.steps > 0);
    assert_eq!(
        db.metrics()
            .registry()
            .counter_value("ioql_eval_steps_total"),
        Some(r.steps)
    );
}

#[test]
fn disabled_registry_reports_nothing() {
    let mut db = db_with(DbOptions::default(), 5, 11);
    db.query("{ x.name | x <- Ps }").unwrap();
    let reg = db.metrics().registry();
    assert!(!reg.is_enabled());
    assert_eq!(reg.counter_value("ioql_queries_total"), None);
    assert_eq!(db.metrics_text(), "");
}

/// A minimal structural check that each sink line is one self-contained
/// JSON object: object-delimited, no raw control characters, balanced
/// quotes/braces outside strings.
fn assert_jsonish(line: &str) {
    assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
    let mut depth = 0i64;
    let mut in_str = false;
    let mut esc = false;
    for c in line.chars() {
        assert!(!c.is_control(), "raw control char in {line}");
        if esc {
            esc = false;
            continue;
        }
        match c {
            '\\' if in_str => esc = true,
            '"' => in_str = !in_str,
            '{' if !in_str => depth += 1,
            '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    assert_eq!(depth, 0, "unbalanced braces in {line}");
    assert!(!in_str, "unterminated string in {line}");
}

#[test]
fn jsonl_sink_writes_spans_and_counter_snapshots() {
    let path = temp_path("sink");
    let opts = DbOptions {
        telemetry: true,
        telemetry_jsonl: Some(path.clone()),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 6, 5);
    db.query("{ x.name | x <- Ps }").unwrap();
    assert!(db.query("{ x.name | }").is_err()); // parse error: span ends ok=false
    let text = std::fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() >= 6, "{text}");
    for line in &lines {
        assert_jsonish(line);
    }
    assert!(text.contains("\"event\":\"span_begin\""), "{text}");
    assert!(text.contains("\"event\":\"span_end\""), "{text}");
    assert!(text.contains("\"event\":\"counters\""), "{text}");
    assert!(text.contains("\"ok\":false"), "{text}");
    assert!(text.contains("ioql_queries_total"), "{text}");
    let _ = std::fs::remove_file(&path);
}

#[test]
fn explain_analyze_prints_estimates_and_actuals() {
    let opts = DbOptions {
        engine: Engine::Plan,
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 15, 9);
    let out = db
        .explain_analyze("{ x.name | x <- Ps, x.name = 3 }")
        .unwrap();
    assert!(out.contains("Thm 7"), "{out}");
    assert!(out.contains("(est ~15 rows)"), "{out}");
    assert!(out.contains("actual:"), "{out}");
    assert!(out.contains("rows=15"), "{out}");
    assert!(out.contains("time="), "{out}");
    assert!(out.contains("returned 1 row(s)"), "{out}");
    // Diagnostic run leaves the database untouched and works with
    // telemetry fully off.
    assert_eq!(db.extent_len("Ps"), 15);
    // A refused query gets the explain diagnosis, not an error.
    let refused = db.explain_analyze("{ new P(name: 1) | x <- {1} }").unwrap();
    assert!(refused.contains("no physical plan"), "{refused}");
    // The analyzed query still runs normally afterwards.
    let r = db.query("{ x.name | x <- Ps, x.name = 3 }").unwrap();
    assert_eq!(r.value, Value::set([Value::Int(3)]));
}

#[test]
fn elapsed_is_reported_outside_the_governor_path() {
    let mut db = db_with(DbOptions::default(), 10, 1);
    let r = db.query("{ x.name + y.name | x <- Ps, y <- Ps }").unwrap();
    assert!(r.elapsed.as_nanos() > 0);
    assert!(!r.cached);
    let hit = db.query("{ x.name + y.name | x <- Ps, y <- Ps }").unwrap();
    assert!(hit.cached);
    // Cached results still report a (small) wall-clock elapsed.
    assert!(hit.elapsed.as_nanos() > 0);
}

/// The value of `"key":<digits>` in one JSONL line.
fn json_u128(line: &str, key: &str) -> u128 {
    let pat = format!("\"{key}\":");
    let rest = &line[line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}")) + pat.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().unwrap()
}

#[test]
fn one_record_three_views() {
    // One query with telemetry, a ring and a JSONL sink attached: the
    // sink's lines, the phase histograms and the ring's record are all
    // derived from the same finished trace record.
    let path = temp_path("three-views");
    let opts = DbOptions {
        engine: Engine::Plan,
        telemetry: true,
        telemetry_jsonl: Some(path.clone()),
        trace_capacity: 4,
        slow_query_ms: Some(0),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 6, 5);
    let phases = [
        "parse",
        "typecheck",
        "effect-infer",
        "optimize",
        "lower",
        "execute",
    ];
    let histogram = |db: &Database, phase: &str| {
        let h = db
            .metrics()
            .registry()
            .histogram(&format!("ioql_phase_duration_ns{{phase=\"{phase}\"}}"));
        (h.count(), h.sum_ns())
    };
    let before: Vec<_> = phases.iter().map(|p| histogram(&db, p)).collect();
    let q = "{ x.name | x <- Ps, x.name < 4 }";
    db.run(q, RunArgs::default().trace_id("views-1")).unwrap();
    let record = db.traces_last(1).pop().expect("the ring holds the record");
    assert_eq!(record.trace_id.as_deref(), Some("views-1"));

    // View 1: each phase histogram moved by exactly the record's spans
    // of that phase — count and nanoseconds.
    for (phase, (count0, sum0)) in phases.iter().zip(before) {
        let spans: Vec<_> = record.spans.iter().filter(|s| s.name == *phase).collect();
        let (count, sum) = histogram(&db, phase);
        assert_eq!(count - count0, spans.len() as u64, "{phase} count");
        assert_eq!(
            sum - sum0,
            spans.iter().map(|s| s.dur_ns).sum::<u64>(),
            "{phase} sum"
        );
    }
    for phase in ["parse", "typecheck", "effect-infer", "lower", "execute"] {
        assert!(
            record.spans.iter().any(|s| s.name == phase),
            "no {phase} span in {record:?}"
        );
    }

    // View 2: the JSONL lines are the same record — the span pair
    // brackets its total, and the slow-query event carries it whole.
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let lines: Vec<&str> = text.lines().collect();
    let begin = lines
        .iter()
        .find(|l| l.contains("\"event\":\"span_begin\""))
        .unwrap();
    let end = lines
        .iter()
        .find(|l| l.contains("\"event\":\"span_end\""))
        .unwrap();
    assert!(begin.contains(&format!("\"detail\":\"{q}\"")), "{begin}");
    assert!(begin.contains("\"trace\":\"views-1\""), "{begin}");
    assert!(end.contains("\"ok\":true"), "{end}");
    assert_eq!(json_u128(begin, "span"), json_u128(end, "span"));
    assert_eq!(
        json_u128(end, "t_ns") - json_u128(begin, "t_ns"),
        u128::from(record.total_ns)
    );
    let slow = lines
        .iter()
        .find(|l| l.contains("\"event\":\"slow_query\""))
        .unwrap();
    assert!(
        slow.ends_with(&format!("\"record\":{}}}", record.to_json())),
        "{slow}\nvs ring record {}",
        record.to_json()
    );
}

#[test]
fn slow_query_is_exported_without_a_ring() {
    let path = temp_path("slow-no-ring");
    let opts = DbOptions {
        telemetry_jsonl: Some(path.clone()),
        trace_capacity: 0,
        slow_query_ms: Some(0),
        ..DbOptions::default()
    };
    let mut db = db_with(opts, 4, 2);
    db.query("size(Ps)").unwrap();
    assert!(db.flight_recorder().is_none() && db.traces_last(1).is_empty());
    let text = std::fs::read_to_string(&path).unwrap();
    let _ = std::fs::remove_file(&path);
    let slow: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"event\":\"slow_query\""))
        .collect();
    assert_eq!(slow.len(), 1, "{text}");
    // No ring assigned a sequence number; the spans are all there.
    assert!(slow[0].contains("\"record\":{\"seq\":0,"), "{}", slow[0]);
    assert!(slow[0].contains("\"query\":\"size(Ps)\""), "{}", slow[0]);
    assert!(slow[0].contains("\"name\":\"execute\""), "{}", slow[0]);
}
