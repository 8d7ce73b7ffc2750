//! The traced run: the workload's sequence replayed on one thread, each
//! request split into the public calls of every layer, in kernel order,
//! with a span per call. Per-layer metrics come only from here.

use crate::gen::{Label, Request};
use crate::spans::{self_by_name, tree_self_times, Recorder};
use crate::stats::{median, Metric};
use crate::system::{open_db, secs, wire_query, Server, ServerKind, TempDir};
use crate::workloads::{Scenario, Workload};
use ioql::ast::Query;
use ioql::effects::{infer_query, Discipline, Effect, EffectEnv};
use ioql::eval::{eval_big, DefEnv, EvalConfig, FirstChooser};
use ioql::opt::Stats;
use ioql::plan::{execute, execute_with_profile, lower_with, ParSpec, Plan};
use ioql::store::{Store, Wal, WalPayload};
use ioql::types::{check_query, TypeEnv, TypeOptions};
use ioql::{Admitted, Client, Database, Durability, ServerHandle, Session};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Per-layer metric names printed by every traced run, with units.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("server.rtt_trivial_ms", "ms"),
    ("server.overhead_ms", "ms"),
    ("kernel.admission_us", "us"),
    ("kernel.serialized_share", "ratio"),
    ("cache.hit_ratio", "ratio"),
    ("syntax.parse_us", "us"),
    ("schema.resolve_us", "us"),
    ("types.check_us", "us"),
    ("effects.infer_us", "us"),
    ("plan.lower_us", "us"),
    ("plan.planned_share", "ratio"),
    ("plan.exec_ms", "ms"),
    ("plan.ns_per_row", "ns"),
    ("plan.self_ms.ExtentScan", "ms"),
    ("plan.self_ms.Filter", "ms"),
    ("plan.self_ms.MapProject", "ms"),
    ("plan.self_ms.Distinct", "ms"),
    ("eval.bigstep_ms", "ms"),
    ("methods.call_us", "us"),
    ("store.snapshot_us", "us"),
    ("store.chunks_copied_per_commit", "count"),
    ("wal.append_us", "us"),
    ("wal.fsyncs_per_commit", "count"),
    ("trace.overhead_s", "s"),
];

/// Operator kinds whose exclusive time is reported.
const OPERATORS: &[&str] = &["ExtentScan", "Filter", "MapProject", "Distinct"];

/// Reads per traced run that also take a wire probe.
const WIRE_PROBES: usize = 24;

/// The outcome of a traced run.
pub struct Traced {
    /// Every per-layer metric in [`PER_LAYER`] order.
    pub metrics: Vec<Metric>,
    /// Requests made (sequence, probes and checks).
    pub attempted: usize,
    /// Requests whose split-up result, end-to-end result or expected
    /// answer disagreed, or that failed.
    pub failed: usize,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// The recorded spans.
    pub recorder: Recorder,
}

/// The system the traced pass drives.
struct Rig {
    /// The in-process database: the system itself (embedded workloads)
    /// or the identically loaded mirror of the served one.
    db: Database,
    /// The session the end-to-end call goes through (none: `Database::query`).
    session: Option<Session>,
    /// The served workload's real server and connection.
    wire: Option<(Server, Client)>,
    _dirs: Vec<TempDir>,
}

impl Rig {
    fn build(sc: &Scenario, kind: &ServerKind, tag: &str) -> Result<Rig, String> {
        let mut dirs = Vec::new();
        let (db, session, wire) = match sc.workload {
            Workload::ServeMixed => {
                let sdir = TempDir::new(&format!("{tag}-server"))?;
                let server = Server::start(kind, sdir.path())?;
                let client = server.connect()?;
                dirs.push(sdir);
                let mdir = TempDir::new(&format!("{tag}-mirror"))?;
                let db = open_db(Some(&mdir.path().join("wal")))?;
                dirs.push(mdir);
                let session = db.session("mirror");
                (db, Some(session), Some((server, client)))
            }
            Workload::EmbeddedAnalytics => (open_db(None)?, None, None),
            Workload::DurableIngest => {
                let dir = TempDir::new(tag)?;
                let db = open_db(Some(&dir.path().join("wal")))?;
                dirs.push(dir);
                let session = db.session("ingest");
                (db, Some(session), None)
            }
        };
        let mut rig = Rig {
            db,
            session,
            wire,
            _dirs: dirs,
        };
        for (q, want) in &sc.load {
            let got = rig.kernel_call(q)?.value.to_string();
            if &got != want {
                return Err(format!("load batch answered {got}, expected {want}"));
            }
            if let Some((_, client)) = rig.wire.as_mut() {
                let got = wire_query(client, q)?;
                if &got != want {
                    return Err(format!("wire load batch answered {got}, expected {want}"));
                }
            }
        }
        Ok(rig)
    }

    /// The in-process end-to-end call (the mirror, for the served path).
    fn kernel_call(&mut self, q: &str) -> Result<ioql::QueryResult, String> {
        match self.session.as_mut() {
            Some(s) => s.query(q),
            None => self.db.query(q),
        }
        .map_err(|e| e.to_string())
    }

    /// The call the workload itself makes.
    fn end_to_end(&mut self, q: &str) -> Result<String, String> {
        match self.wire.as_mut() {
            Some((_, client)) => wire_query(client, q),
            None => self.kernel_call(q).map(|r| r.value.to_string()),
        }
    }
}

/// One pass of the sequence with no spans and no split — the baseline
/// the tracing overhead is measured against.
fn untraced_pass(sc: &Scenario, kind: &ServerKind, tag: &str) -> Result<f64, String> {
    let mut rig = Rig::build(sc, kind, tag)?;
    let t = Instant::now();
    for req in sc.interleaved() {
        rig.end_to_end(&req.text)?;
    }
    Ok(secs(t.elapsed()))
}

/// Catalogue statistics from the store's extent sizes, as the kernel
/// computes them for lowering.
fn stats_of(store: &Store) -> Stats {
    let mut stats = Stats::new();
    for (e, _, members) in store.extents.iter() {
        stats.set(e.clone(), members.len());
    }
    stats
}

#[derive(Default)]
struct Tally {
    requests: u64,
    planned: u64,
    exec_ns: Vec<u64>,
    scan_rows: u64,
    op_self_ns: BTreeMap<&'static str, u64>,
    bigstep_ns: Vec<u64>,
    overhead_ns: Vec<i64>,
    snapshot_ns: Vec<u64>,
    admitted: u64,
    serialized: u64,
    writes: u64,
}

/// Runs the traced run of `workload`.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    tiny: bool,
    kind: &ServerKind,
) -> Result<Traced, String> {
    let sc = Scenario::generate(workload, seed, tiny);
    let untraced_s = untraced_pass(&sc, kind, "trace-base")?;

    let mut rig = Rig::build(&sc, kind, "trace")?;
    let mut rec = Recorder::new();
    let mut out = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
        recorder: Recorder::new(),
    };
    let nocache = ioql::DbOptions {
        cache_capacity: 0,
        ..rig.db.options()
    };
    let mut probe_session = rig.db.session("probe");
    probe_session.set_options(nocache.clone());
    // Embedded workloads have no server of their own: the wire probes go
    // to the same server code over the same kernel.
    let mut probe_server: Option<(ServerHandle, Client)> = None;
    if rig.wire.is_none() {
        let handle = ioql::serve(
            std::sync::Arc::clone(rig.db.kernel()),
            nocache.clone(),
            "127.0.0.1:0",
        )
        .map_err(|e| format!("probe serve: {e}"))?;
        let client = Client::connect(handle.addr()).map_err(|e| format!("probe connect: {e}"))?;
        probe_server = Some((handle, client));
    }

    // Idle-connection round trip of the trivial query.
    let rtt: Vec<f64> = {
        let client = match (rig.wire.as_mut(), probe_server.as_mut()) {
            (Some((_, c)), _) | (None, Some((_, c))) => c,
            (None, None) => unreachable!("a wire is always present"),
        };
        let mut v = Vec::new();
        for _ in 0..15 {
            let t = Instant::now();
            out.attempted += 1;
            if wire_query(client, "1").as_deref() != Ok("1") {
                out.failed += 1;
            }
            v.push(t.elapsed().as_secs_f64() * 1e3);
        }
        v
    };

    let schema = rig.db.schema().clone();
    let method_effects = ioql::methods::effect_table(&schema);
    let cache_before = rig.db.cache_stats();
    let copied_before = rig.db.metrics().snapshot_chunks_copied.get();
    let appends_before = rig.db.metrics().wal_appends.get();
    let fsyncs_before = rig.db.metrics().wal_fsyncs.get();
    let mut tally = Tally::default();
    let defs = DefEnv::new();
    let cfg = EvalConfig::new(&schema)
        .with_method_mode(nocache.method_mode)
        .with_method_fuel(nocache.method_fuel);
    let max_steps = nocache.max_steps;

    let sequence = sc.interleaved();
    let reads = sequence.iter().filter(|r| r.label == Label::Read).count();
    // Each wire probe pays the full round trip, so only a sample of the
    // reads takes one.
    let wire_stride = (reads / WIRE_PROBES).max(1);
    let mut reads_seen = 0;
    let started = Instant::now();
    for (i, req) in sequence.iter().enumerate() {
        let id = i as u64;
        let root = rec.begin("request", id);
        let mut res = split_request(
            &mut rec,
            &mut rig,
            &schema,
            &method_effects,
            &cfg,
            &defs,
            max_steps,
            req,
            id,
            &mut tally,
        );
        // Embedded workloads: a sample of the reads also goes over the
        // probe server's wire, paired with the same cache-less read
        // in-process, for the wire's own cost.
        if req.label == Label::Read {
            reads_seen += 1;
            if let (true, Some((_, client))) =
                (reads_seen % wire_stride == 0, probe_server.as_mut())
            {
                let (s, s_ns) = rec.time("probe.session_nocache", id, || {
                    probe_session.query(&req.text)
                });
                let (w, w_ns) =
                    rec.time("probe.wire_nocache", id, || wire_query(client, &req.text));
                out.attempted += 2;
                let s = s.map(|r| r.value.to_string()).map_err(|e| e.to_string());
                for (via, got) in [("session", &s), ("wire", &w)] {
                    if !matches!(got, Ok(v) if req.expect.matches(v)) {
                        out.failed += 1;
                        res = res.and(Err(format!("{via} probe answered {got:?}")));
                    }
                }
                tally.overhead_ns.push(w_ns as i64 - s_ns as i64);
            }
        }
        rec.end(root);
        out.attempted += 1;
        if let Err(e) = res {
            out.failed += 1;
            if out.errors.len() < 8 {
                out.errors
                    .push(format!("request {id} ({}): {e}", req.shape));
            }
        }
    }
    let traced_s = secs(started.elapsed());

    for req in &sc.finals {
        out.attempted += 1;
        let got = rig.end_to_end(&req.text);
        if !matches!(&got, Ok(v) if req.expect.matches(v)) {
            out.failed += 1;
            out.errors
                .push(format!("final check {}: {got:?}", req.shape));
        }
    }

    // Layer probes on the final store.
    let admission_ns = probe_admission(
        &mut rec,
        &mut rig.db,
        &mut probe_session,
        sequence.len() as u64,
        &mut out,
    );
    let cache = rig.db.cache_stats();
    let hits = cache.hits - cache_before.hits;
    let probes = hits + cache.misses - cache_before.misses;
    let copied = rig.db.metrics().snapshot_chunks_copied.get() - copied_before;
    let appends = rig.db.metrics().wal_appends.get() - appends_before;
    let fsyncs = rig.db.metrics().wal_fsyncs.get() - fsyncs_before;
    let (net_q, salary_q, rows) = crate::gen::Oracle::new(&sc.data).method_probe();
    let store = rig.db.store().clone();
    let method_us = method_call_us(
        &cfg,
        &defs,
        &store,
        &schema,
        &method_effects,
        &net_q,
        &salary_q,
        rows,
        max_steps,
    )?;
    let (append_us, probe_fsyncs, probe_appends) = wal_append_us(&sc.writes)?;
    let (fsyncs, appends) = if appends > 0 {
        (fsyncs, appends)
    } else {
        (probe_fsyncs, probe_appends)
    };
    drop(probe_session);
    if let Some((mut handle, client)) = probe_server.take() {
        drop(client);
        handle.shutdown();
    }
    if let Some((mut server, client)) = rig.wire.take() {
        drop(client);
        server.stop();
    }

    let by_name = self_by_name(rec.spans());
    let n = tally.requests.max(1) as f64;
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(_, ns)| *ns as f64 / 1e3 / n)
    };
    let p50 = |v: &[u64]| median(&v.iter().map(|x| *x as f64).collect::<Vec<_>>()).unwrap_or(0.0);
    let p50i = |v: &[i64]| median(&v.iter().map(|x| *x as f64).collect::<Vec<_>>()).unwrap_or(0.0);
    let mean = |v: &[u64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<u64>() as f64 / v.len() as f64
        }
    };
    let exec_total: u64 = tally.exec_ns.iter().sum();
    let mut m: BTreeMap<&str, Metric> = BTreeMap::new();
    let mut put = |name: &'static str, value: f64, note: String| {
        let unit = PER_LAYER
            .iter()
            .find(|(n, _)| *n == name)
            .map_or("", |(_, u)| *u);
        m.insert(name, Metric::new(name, unit, value).with_note(note));
    };
    put(
        "server.rtt_trivial_ms",
        median(&rtt).unwrap_or(0.0),
        format!("p50 of {} idle round trips of `1`", rtt.len()),
    );
    put(
        "server.overhead_ms",
        p50i(&tally.overhead_ns) / 1e6,
        format!(
            "p50 of {} (wire - Session::query) pairs",
            tally.overhead_ns.len()
        ),
    );
    put(
        "kernel.admission_us",
        p50i(&admission_ns) / 1e3,
        format!(
            "p50 of {} (Session::query - Database::query) cache-less pairs of `1`",
            admission_ns.len()
        ),
    );
    let adm = tally.admitted + tally.serialized;
    put(
        "kernel.serialized_share",
        tally.serialized as f64 / adm.max(1) as f64,
        format!(
            "{} serialized of {adm} admission-controlled requests",
            tally.serialized
        ),
    );
    put(
        "cache.hit_ratio",
        hits as f64 / probes.max(1) as f64,
        format!("{hits} hits of {probes} probes"),
    );
    for (metric, span) in [
        ("syntax.parse_us", "syntax.parse"),
        ("schema.resolve_us", "schema.resolve"),
        ("types.check_us", "types.check"),
        ("effects.infer_us", "effects.infer"),
        ("plan.lower_us", "plan.lower"),
    ] {
        put(
            metric,
            mean_us(span),
            format!("mean self time over {} requests", tally.requests),
        );
    }
    put(
        "plan.planned_share",
        tally.planned as f64 / n,
        format!("{} planned of {} requests", tally.planned, tally.requests),
    );
    put(
        "plan.exec_ms",
        p50(&tally.exec_ns) / 1e6,
        format!("p50 of {} plan executions", tally.exec_ns.len()),
    );
    put(
        "plan.ns_per_row",
        exec_total as f64 / tally.scan_rows.max(1) as f64,
        format!("{exec_total} ns over {} ExtentScan rows", tally.scan_rows),
    );
    for (op, name) in OPERATORS.iter().zip([
        "plan.self_ms.ExtentScan",
        "plan.self_ms.Filter",
        "plan.self_ms.MapProject",
        "plan.self_ms.Distinct",
    ]) {
        let ns = tally.op_self_ns.get(op).copied().unwrap_or(0);
        put(
            name,
            ns as f64 / 1e6,
            "exclusive time summed over profiled plans".into(),
        );
    }
    put(
        "eval.bigstep_ms",
        mean(&tally.bigstep_ns) / 1e6,
        format!("mean of {} unplanned executions", tally.bigstep_ns.len()),
    );
    put(
        "methods.call_us",
        method_us,
        format!("(net - salary) over {rows} rows"),
    );
    put(
        "store.snapshot_us",
        p50(&tally.snapshot_ns) / 1e3,
        format!("p50 of {} Store::clone", tally.snapshot_ns.len()),
    );
    put(
        "store.chunks_copied_per_commit",
        copied as f64 / tally.writes.max(1) as f64,
        format!("{copied} chunks over {} commits", tally.writes),
    );
    put(
        "wal.append_us",
        append_us,
        format!("p50 of {} Wal::append under Commit", sc.writes.len()),
    );
    put(
        "wal.fsyncs_per_commit",
        fsyncs as f64 / appends.max(1) as f64,
        format!("{fsyncs} fsyncs over {appends} appends"),
    );
    put(
        "trace.overhead_s",
        traced_s - untraced_s,
        format!("traced {traced_s:.3} s - untraced {untraced_s:.3} s, one thread"),
    );
    out.metrics = PER_LAYER
        .iter()
        .map(|(name, _)| m.remove(name).expect("every per-layer metric is set"))
        .collect();
    out.recorder = rec;
    Ok(out)
}

/// Alternating pairs of the trivial query `1` in [`probe_admission`].
const ADMISSION_PAIRS: usize = 400;

/// Runs the trivial query `1` through a cache-less `Database::query`
/// (exclusive: no admission) and a cache-less `Session::query`
/// (admission: scheduler registration plus a store snapshot), in
/// alternating order so neither always runs warm, and returns each
/// pair's difference: the admission controller's cost on this store.
/// The query's own cost is a few microseconds, so the difference is not
/// buried in execution time. Spans get request IDs from `first_id` on.
fn probe_admission(
    rec: &mut Recorder,
    db: &mut Database,
    session: &mut Session,
    first_id: u64,
    out: &mut Traced,
) -> Vec<i64> {
    let saved = db.options();
    db.set_options(ioql::DbOptions {
        cache_capacity: 0,
        ..saved.clone()
    });
    let mut diffs = Vec::with_capacity(ADMISSION_PAIRS);
    for i in 0..ADMISSION_PAIRS {
        let id = first_id + i as u64;
        let mut via_db = |rec: &mut Recorder| rec.time("probe.db_nocache", id, || db.query("1"));
        let mut via_session =
            |rec: &mut Recorder| rec.time("probe.session_nocache", id, || session.query("1"));
        let ((a, db_ns), (b, s_ns)) = if i % 2 == 0 {
            let a = via_db(rec);
            (a, via_session(rec))
        } else {
            let b = via_session(rec);
            (via_db(rec), b)
        };
        for (via, r) in [("database", &a), ("session", &b)] {
            out.attempted += 1;
            if !matches!(r, Ok(r) if r.value.to_string() == "1") {
                out.failed += 1;
                if out.errors.len() < 8 {
                    out.errors.push(format!(
                        "admission probe via {via} answered {:?}",
                        r.as_ref().map(|r| r.value.to_string())
                    ));
                }
            }
        }
        diffs.push(s_ns as i64 - db_ns as i64);
    }
    db.set_options(saved);
    diffs
}

/// Splits one request into the layers' public calls, in kernel order,
/// then makes the end-to-end call and checks that all answers agree with
/// each other and with the generator.
#[allow(clippy::too_many_arguments)]
fn split_request(
    rec: &mut Recorder,
    rig: &mut Rig,
    schema: &ioql::schema::Schema,
    method_effects: &ioql::effects::MethodEffects,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    max_steps: u64,
    req: &Request,
    id: u64,
    tally: &mut Tally,
) -> Result<(), String> {
    tally.requests += 1;
    let (raw, _) = rec.time("syntax.parse", id, || ioql::syntax::parse_query(&req.text));
    let raw = raw.map_err(|e| format!("parse: {e}"))?;
    let (resolved, _) = rec.time("schema.resolve", id, || schema.resolve_query(&raw));
    let (checked, _) = rec.time("types.check", id, || {
        check_query(
            &TypeEnv::with_options(schema, TypeOptions::default()),
            &resolved,
        )
    });
    let (elab, _) = checked.map_err(|e| format!("typecheck: {e}"))?;
    let eenv = || {
        EffectEnv::new(schema)
            .with_discipline(Discipline::permissive())
            .with_method_effects(method_effects.clone())
    };
    let (inferred, _) = rec.time("effects.infer", id, || infer_query(&eenv(), &elab));
    let (_, eff) = inferred.map_err(|e| format!("effects: {e}"))?;
    let (mut snapshot, snap_ns) = rec.time("store.snapshot", id, || rig.db.store().clone());
    tally.snapshot_ns.push(snap_ns);
    let (plan, _) = rec.time("plan.lower", id, || {
        lower(schema, &eenv, &snapshot, &elab, &eff, defs)
    });
    let split_value = match &plan {
        Some(plan) => {
            tally.planned += 1;
            let mut profiled = snapshot.clone();
            let (r, ns) = rec.time("plan.execute", id, || {
                execute(plan, cfg, defs, &mut snapshot, &mut FirstChooser, max_steps)
            });
            tally.exec_ns.push(ns);
            let (p, _) = rec.time("probe.plan_profile", id, || {
                execute_with_profile(plan, cfg, defs, &mut profiled, &mut FirstChooser, max_steps)
            });
            if let Ok((_, profile)) = p {
                let depths: Vec<usize> = profile.entries.iter().map(|e| e.depth).collect();
                let incl: Vec<u64> = profile.entries.iter().map(|e| e.nanos).collect();
                for (e, own) in profile.entries.iter().zip(tree_self_times(&depths, &incl)) {
                    let kind = e.label.split_whitespace().next().unwrap_or("");
                    if let Some(key) = OPERATORS.iter().copied().find(|k| *k == kind) {
                        *tally.op_self_ns.entry(key).or_default() += own;
                    }
                    if kind == "ExtentScan" {
                        tally.scan_rows += e.rows;
                    }
                }
            }
            r.map(|r| r.value).map_err(|e| format!("plan: {e}"))?
        }
        None => {
            let (r, ns) = rec.time("eval.bigstep", id, || {
                eval_big(
                    cfg,
                    defs,
                    &mut snapshot,
                    &elab,
                    &mut FirstChooser,
                    max_steps,
                )
            });
            tally.bigstep_ns.push(ns);
            r.map(|r| r.value).map_err(|e| format!("eval: {e}"))?
        }
    };
    // Release the split's copy before the real commit, so its chunks are
    // not shared when the kernel writes.
    drop(snapshot);
    let split_value = split_value.to_string();
    if req.label == Label::Write {
        tally.writes += 1;
    }

    let wire_value = match rig.wire.as_mut() {
        Some((_, client)) => {
            let (v, wire_ns) = rec.time("server.request", id, || wire_query(client, &req.text));
            Some((v?, wire_ns))
        }
        None => None,
    };
    let (kernel, kernel_ns) = rec.time("kernel.query", id, || rig.kernel_call(&req.text));
    let kernel = kernel?;
    match kernel.admitted {
        Some(Admitted::Concurrent { .. }) => tally.admitted += 1,
        Some(Admitted::Serialized { .. }) => tally.serialized += 1,
        None => {}
    }
    let kernel_value = kernel.value.to_string();
    if let Some((_, wire_ns)) = &wire_value {
        tally.overhead_ns.push(*wire_ns as i64 - kernel_ns as i64);
    }
    if split_value != kernel_value {
        return Err(format!(
            "split answer {split_value} != end-to-end {kernel_value}"
        ));
    }
    if let Some((w, _)) = &wire_value {
        if *w != kernel_value {
            return Err(format!("wire answer {w} != in-process {kernel_value}"));
        }
    }
    if !req.expect.matches(&kernel_value) {
        return Err(format!("expected {:?}, got {kernel_value}", req.expect));
    }
    Ok(())
}

/// `lower_with` exactly as the kernel calls it under the pinned
/// configuration (parallelism 0, compile on).
fn lower<'s>(
    schema: &'s ioql::schema::Schema,
    eenv: &dyn Fn() -> EffectEnv<'s>,
    store: &Store,
    elab: &Query,
    eff: &Effect,
    defs: &DefEnv,
) -> Option<Plan> {
    let branch_effect = |q: &Query| infer_query(&eenv(), q).ok().map(|(_, e)| e);
    let spec = ParSpec {
        parallelism: 0,
        compile: true,
        schema: Some(schema),
        branch_effect: Some(&branch_effect),
    };
    lower_with(elab, eff, defs, &stats_of(store), &spec)
}

/// Per-row cost of a method call: big-step time of `{ e.net(30) | … }`
/// minus that of `{ e.salary | … }` under the same filter, per row.
#[allow(clippy::too_many_arguments)]
fn method_call_us(
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &Store,
    schema: &ioql::schema::Schema,
    method_effects: &ioql::effects::MethodEffects,
    net_q: &str,
    salary_q: &str,
    rows: usize,
    max_steps: u64,
) -> Result<f64, String> {
    let elab = |src: &str| -> Result<Query, String> {
        let raw = ioql::syntax::parse_query(src).map_err(|e| e.to_string())?;
        let resolved = schema.resolve_query(&raw);
        let (q, _) = check_query(
            &TypeEnv::with_options(schema, TypeOptions::default()),
            &resolved,
        )
        .map_err(|e| e.to_string())?;
        let env = EffectEnv::new(schema).with_method_effects(method_effects.clone());
        infer_query(&env, &q).map_err(|e| e.to_string())?;
        Ok(q)
    };
    let (net, salary) = (elab(net_q)?, elab(salary_q)?);
    let time = |q: &Query| -> Result<Duration, String> {
        let mut s = store.clone();
        let t = Instant::now();
        eval_big(cfg, defs, &mut s, q, &mut FirstChooser, max_steps).map_err(|e| e.to_string())?;
        Ok(t.elapsed())
    };
    let mut diffs = Vec::new();
    for _ in 0..5 {
        let a = time(&net)?;
        let b = time(&salary)?;
        diffs.push((a.as_secs_f64() - b.as_secs_f64()) * 1e6 / rows.max(1) as f64);
    }
    Ok(median(&diffs).unwrap_or(0.0))
}

/// `Wal::append` under `Commit` of the workload's own commit payloads,
/// in a scratch log: (p50 µs, fsyncs, appends).
fn wal_append_us(writes: &[String]) -> Result<(f64, u64, u64), String> {
    let dir = TempDir::new("wal-probe")?;
    let mut wal = Wal::create(&dir.path().join("probe.wal"), 1, Durability::Commit)
        .map_err(|e| format!("wal create: {e}"))?;
    let mut us = Vec::new();
    let mut synced = 0;
    for text in writes {
        let payload = WalPayload::Query {
            text: text.clone(),
            draws: Vec::new(),
        };
        let t = Instant::now();
        let ack = wal
            .append(&payload)
            .map_err(|e| format!("wal append: {e}"))?;
        us.push(t.elapsed().as_secs_f64() * 1e6);
        synced += u64::from(ack.synced);
    }
    Ok((median(&us).unwrap_or(0.0), synced, writes.len() as u64))
}
