//! `ioql-bench` — offline perf runner for the plan-engine execution
//! tiers and the multi-client query server.
//!
//! Emits `BENCH_10.json`: the BENCH_7 interpreted-vs-compiled ×
//! sequential-vs-parallel quads for the B6 (join), B7 (selective
//! equality), and B8 (100k-object scan) workloads, the B9 serve
//! matrix — 1/4/16 wire clients × read-heavy/mixed workloads against
//! one admission-scheduled kernel, with observed throughput and the
//! scheduler's admitted/serialized split per cell — and the B10
//! snapshot matrix: the cost of acquiring a read snapshot (a COW chunk
//! spine clone, what every admission pays) at 1k/10k/100k objects,
//! against a clone-on-admit deep-copy baseline — plus the ungated
//! `micro` rows: the paper-claim microbenchmarks B1–B5 of
//! EXPERIMENTS.md (static analysis, static vs dynamic non-determinism
//! detection, optimizer payoff, small-step vs big-step, method
//! dispatch) at the smaller sizes of each table. The runner is
//! dependency-free (`std::time::Instant`, hand-rolled JSON) so the perf
//! trajectory stays machine-readable on offline machines.
//!
//! ```sh
//! ioql-bench                 # writes BENCH_10.json in the cwd
//! ioql-bench --out perf.json
//! ```
//!
//! Every workload runs on four databases built identically — pool size
//! `{0, 4}` × compile `{off, on}` — and the rendered result values are
//! asserted byte-identical across all four before a timing is recorded,
//! so a speedup can never come from computing something else. The
//! compiled runs additionally assert that rows actually went through
//! the VM (`vm.dispatches`): a silent per-node fallback would otherwise
//! time interpreted against interpreted.
//!
//! Acceptance gates (exit 1 on failure):
//! * B6 sequential compiled ≥ 5× over the BENCH_5 recorded sequential
//!   baseline of 196.050 ms (i.e. `vm_seq_ms ≤ 39.21`); the same-run
//!   interpreted timing is recorded alongside for an apples-to-apples
//!   live ratio, but the acceptance bound is against the recorded
//!   baseline so the gate is stable across host-load drift;
//! * B8 parallel interpreted ≥ 2× over sequential interpreted (the
//!   PR 5 gate, re-checked so the compile tier cannot regress it) —
//!   enforced only when the host reports ≥ 2 CPUs, since a 1-CPU
//!   cgroup serializes the pool and the ratio measures the scheduler,
//!   not the engine;
//! * B9 read-heavy concurrent throughput ≥ 2× over the 1-client
//!   baseline at the best multi-client cell — likewise enforced only
//!   on ≥ 2 CPUs, since on one CPU the admitted snapshots still share
//!   a core and the ratio measures timeslicing, not admission;
//! * B10 snapshot acquisition on the 100k store ≥ 50× cheaper than the
//!   deep-copy baseline, and sublinear in store size (100× the objects
//!   must cost well under 100× the snapshot) — enforced on every host,
//!   since both sides of each ratio run on the same core.

#![allow(clippy::result_large_err)] // cold-path bench errors

use ioql::{Client, Database, DbOptions, Engine};
use std::time::Instant;

const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
    }";

const PAR: usize = 4;

/// A database with `n` persons, caching off, telemetry on (the parallel
/// and VM counters prove the intended path actually ran).
fn persons(n: usize, parallelism: usize, compile: bool) -> Database {
    let opts = DbOptions {
        engine: Engine::Plan,
        cache_capacity: 0,
        telemetry: true,
        parallelism,
        compile,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(DDL, opts).expect("bench DDL");
    let mut i = 1i64;
    while i <= n as i64 {
        let hi = (i + 999).min(n as i64);
        let elems: Vec<String> = (i..=hi).map(|k| k.to_string()).collect();
        db.query(&format!(
            "{{ new Person(name: n, age: n) | n <- {{{}}} }}",
            elems.join(", ")
        ))
        .expect("bench population");
        i = hi + 1;
    }
    db
}

struct Row {
    id: &'static str,
    n: usize,
    query: &'static str,
    iters: usize,
    /// [sequential interpreted, sequential compiled, parallel
    /// interpreted, parallel compiled], in milliseconds.
    ms: [f64; 4],
    vm_rows: u64,
    par_runs: u64,
}

impl Row {
    fn compile_speedup_seq(&self) -> f64 {
        ratio(self.ms[0], self.ms[1])
    }
    fn compile_speedup_par(&self) -> f64 {
        ratio(self.ms[2], self.ms[3])
    }
    fn combined_speedup(&self) -> f64 {
        ratio(self.ms[0], self.ms[3])
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        f64::INFINITY
    }
}

/// Best-of-`iters` wall-clock for one query on one database.
fn timed(db: &mut Database, q: &str, iters: usize) -> (f64, String) {
    let mut best = f64::INFINITY;
    let mut rendered = String::new();
    for _ in 0..iters {
        let t = Instant::now();
        let r = db.query(q).expect("bench query");
        best = best.min(t.elapsed().as_secs_f64() * 1e3);
        rendered = r.value.to_string();
    }
    (best, rendered)
}

fn run_quad(id: &'static str, n: usize, query: &'static str, iters: usize) -> Row {
    eprintln!("[{id}] building four {n}-object databases…");
    let configs = [(0, false), (0, true), (PAR, false), (PAR, true)];
    let mut ms = [0.0f64; 4];
    let mut rendered: Option<String> = None;
    let mut vm_rows = 0u64;
    let mut par_runs = 0u64;
    for (slot, (pool, compile)) in configs.into_iter().enumerate() {
        let tier = if compile { "vm" } else { "interp" };
        let mode = if pool == 0 { "seq" } else { "par" };
        let mut db = persons(n, pool, compile);
        eprintln!("[{id}] {mode}/{tier}…");
        let (t, v) = timed(&mut db, query, iters);
        ms[slot] = t;
        match &rendered {
            None => rendered = Some(v),
            Some(r) => assert_eq!(r, &v, "{id} {mode}/{tier}: result differs"),
        }
        if compile {
            let d = db.metrics().vm.dispatches.get();
            assert!(d > 0, "{id} {mode}/{tier}: no rows went through the VM");
            vm_rows = vm_rows.max(d);
        }
        if pool > 0 && !compile {
            let pm = &db.metrics().parallel;
            par_runs = pm.par_scans.get() + pm.par_index_builds.get() + pm.par_set_ops.get();
        }
    }
    let row = Row {
        id,
        n,
        query,
        iters,
        ms,
        vm_rows,
        par_runs,
    };
    eprintln!(
        "[{id}] seq {:.2} → {:.2} ms ({:.2}×), par {:.2} → {:.2} ms ({:.2}×), combined {:.2}×",
        row.ms[0],
        row.ms[1],
        row.compile_speedup_seq(),
        row.ms[2],
        row.ms[3],
        row.compile_speedup_par(),
        row.combined_speedup(),
    );
    row
}

// ---------------------------------------------------------------------
// B9 — the serve matrix: N wire clients against one kernel.

const SERVE_POPULATION: usize = 20_000;
const SERVE_REQUESTS: usize = 240;
const SERVE_READ: &str = "sum({ p.age | p <- Persons, p.name <= 20000 })";
const SERVE_WRITE: &str = "size({ new Person(name: 0, age: 0) | n <- {1} })";

struct ServeCell {
    clients: usize,
    workload: &'static str,
    wall_ms: f64,
    req_per_s: f64,
    admitted: u64,
    serialized: u64,
    max_inflight: u64,
}

/// Drive `SERVE_REQUESTS` requests split evenly across `clients` wire
/// connections; `write_every == 0` means read-only, otherwise every
/// `write_every`-th request per client is a mutating query. A fresh
/// kernel per cell keeps the scheduler counters attributable.
fn run_serve_cell(clients: usize, workload: &'static str, write_every: usize) -> ServeCell {
    eprintln!("[B9-serve] {workload} × {clients} client(s)…");
    // Cache off so every admitted read does real evaluation work —
    // with the cache on, throughput would measure frame parsing.
    let db = persons(SERVE_POPULATION, 0, false);
    let mut server = db.serve("127.0.0.1:0").expect("bench serve");
    let addr = server.addr();
    let per_client = SERVE_REQUESTS / clients;
    let t = Instant::now();
    let mut threads = Vec::new();
    for _ in 0..clients {
        threads.push(std::thread::spawn(move || {
            let mut c = Client::connect(addr).expect("bench client");
            let mut reads = String::new();
            for i in 0..per_client {
                let src = if write_every > 0 && (i + 1) % write_every == 0 {
                    SERVE_WRITE
                } else {
                    SERVE_READ
                };
                let frame = c.request(src).expect("bench request");
                assert!(frame.is_ok(), "bench request failed: {:?}", frame.status);
                if src == SERVE_READ {
                    if reads.is_empty() {
                        reads = frame.lines[0].clone();
                    } else if write_every == 0 {
                        // Read-only cells: every answer must be identical.
                        assert_eq!(reads, frame.lines[0], "read-only answers diverged");
                    }
                }
            }
            let _ = c.request(":quit");
            reads
        }));
    }
    let answers: Vec<String> = threads.into_iter().map(|t| t.join().unwrap()).collect();
    let wall_ms = t.elapsed().as_secs_f64() * 1e3;
    server.shutdown();
    if write_every == 0 {
        // Across clients too: one snapshot, one answer.
        assert!(
            answers.windows(2).all(|w| w[0] == w[1]),
            "clients disagreed"
        );
    }
    let sched = &db.metrics().sched;
    let (_, _, max_inflight, _) = db.kernel().sched_snapshot();
    let done = per_client * clients;
    let cell = ServeCell {
        clients,
        workload,
        wall_ms,
        req_per_s: done as f64 / (wall_ms / 1e3),
        admitted: sched.admitted.get(),
        serialized: sched.serialized.get(),
        max_inflight,
    };
    eprintln!(
        "[B9-serve] {workload} × {clients}: {done} req in {wall_ms:.1} ms \
         ({:.0} req/s), admitted {}, serialized {}, max in-flight {}",
        cell.req_per_s, cell.admitted, cell.serialized, cell.max_inflight
    );
    cell
}

// ---------------------------------------------------------------------
// B10 — snapshot acquisition vs store size. The kernel snapshots the
// store on every concurrent read admission; under the chunked COW
// layout that is a spine clone (bump one `Arc` per chunk), so its cost
// tracks chunk count, not object count. The baseline is a deep copy
// rebuilt element-by-element through the public API — the cost profile
// of clone-on-admit over a flat map layout.

struct SnapCell {
    n: usize,
    chunks: u64,
    snapshot_ns: f64,
    deep_copy_ns: f64,
}

impl SnapCell {
    fn cow_advantage(&self) -> f64 {
        ratio(self.deep_copy_ns, self.snapshot_ns)
    }
}

/// Copies every object and every extent member individually, which is
/// what `Clone` cost before the store grew structurally-shared chunk
/// spines.
fn deep_copy(s: &ioql::store::Store) -> ioql::store::Store {
    let mut out = ioql::store::Store::new();
    for (e, c, _) in s.extents.iter() {
        out.declare_extent(e.clone(), c.clone());
    }
    for (o, obj) in s.objects.iter() {
        out.objects.insert(o, obj.clone());
    }
    for (e, _, members) in s.extents.iter() {
        for o in members {
            out.extents.add(e, *o);
        }
    }
    out
}

fn run_snapshot_cell(n: usize) -> SnapCell {
    eprintln!("[B10-snapshot] building a {n}-object store…");
    let db = persons(n, 0, false);
    let store = db.store().clone();

    // The COW snapshot: exactly the clone `run_admitted` takes under
    // the read lock. A single spine clone is nanosecond-scale — below
    // `Instant` resolution — so time a batch and report the per-clone
    // average, best of several batches.
    const BATCH: usize = 1024;
    let mut snapshot_ns = f64::INFINITY;
    for _ in 0..16 {
        let t = Instant::now();
        for _ in 0..BATCH {
            std::hint::black_box(store.clone());
        }
        snapshot_ns = snapshot_ns.min(t.elapsed().as_secs_f64() * 1e9 / BATCH as f64);
    }

    let deep_iters = (200_000 / n).clamp(2, 50);
    let mut deep_copy_ns = f64::INFINITY;
    for _ in 0..deep_iters {
        let t = Instant::now();
        let copy = std::hint::black_box(deep_copy(&store));
        deep_copy_ns = deep_copy_ns.min(t.elapsed().as_secs_f64() * 1e9);
        // Data-only comparison: the rebuilt store never allocated, so
        // its oid counter (part of `Store` equality) legitimately lags.
        assert!(
            copy.objects == store.objects && copy.extents == store.extents,
            "deep-copy baseline diverged from the store"
        );
    }

    let cell = SnapCell {
        n,
        chunks: store.chunk_count(),
        snapshot_ns,
        deep_copy_ns,
    };
    eprintln!(
        "[B10-snapshot] n={n}: snapshot {:.0} ns across {} chunks, \
         deep copy {:.0} ns — {:.1}× cheaper",
        cell.snapshot_ns,
        cell.chunks,
        cell.deep_copy_ns,
        cell.cow_advantage(),
    );
    cell
}

// ---------------------------------------------------------------------
// B1–B5 — the paper-claim microbenchmarks (EXPERIMENTS.md), at the
// smaller sizes of each table so the whole set runs in seconds. Every
// row is the best-of-five mean per call; none is gated — the rows record
// shapes (linear analysis, flat static check vs factorial enumeration,
// optimizer payoff, small-step vs big-step, method dispatch).

/// The §1 schema: `P` (extent `Ps`) with the non-terminating `loop()`
/// method, and `F` (extent `Fs`) befriending a `P`.
const JACK_JILL_DDL: &str = "
    class P extends Object (extent Ps) {
        attribute int name;
        int loop() { while (true) { } return 0; }
    }
    class F extends Object (extent Fs) {
        attribute int name;
        attribute P pal;
    }";

/// The §1 interfering query: reads and adds to `Fs` in one body.
const JACK_JILL_QUERY: &str =
    "{ if size(Fs) = 0 then (new F(name: 0, pal: p)).name else p.name | p <- Ps }";

/// The §5 account schema, read-only methods (the §3 discipline).
const ACCOUNT_DDL: &str = "
    class Acc extends Object (extent Accs) {
        attribute int balance;
        int fee(int pct) { return this.balance * pct; }
        int recur(int k) {
            if (k <= 0) { return 0; }
            return this.fee(1) + this.recur(k - 1);
        }
    }";

/// The same class with `Mode::Extended` methods: an update and an
/// extent scan.
const EXTENDED_ACCOUNT_DDL: &str = "
    class Acc extends Object (extent Accs) {
        attribute int balance;
        int fee(int pct) { return this.balance * pct; }
        int deposit(int amt) {
            this.balance = this.balance + amt;
            return this.balance;
        }
        int census() {
            int c = 0;
            for (x in Accs) { c = c + 1; }
            return c;
        }
    }";

struct MicroRow {
    id: &'static str,
    variant: String,
    n: usize,
    us: f64,
}

#[derive(Default)]
struct Micro(Vec<MicroRow>);

impl Micro {
    /// Records the best-of-five mean wall-clock per call of `f`, in
    /// microseconds, each sample a batch sized from one calibration
    /// call to last ~2 ms.
    fn time<T>(&mut self, id: &'static str, variant: &str, n: usize, mut f: impl FnMut() -> T) {
        let t = Instant::now();
        std::hint::black_box(f());
        let batch = ((2e-3 / t.elapsed().as_secs_f64().max(1e-9)) as usize).clamp(1, 10_000);
        let mut us = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            us = us.min(t.elapsed().as_secs_f64() * 1e6 / batch as f64);
        }
        eprintln!("[{id}] {variant} n={n}: {us:.2} µs");
        let variant = variant.to_string();
        self.0.push(MicroRow { id, variant, n, us });
    }
}

/// A database over `ddl` whose extent `class` holds `n` objects, the
/// k-th built as `new {class}({field}: k)`.
fn populated(ddl: &str, mode: ioql::Mode, class: &str, field: &str, n: usize) -> Database {
    let opts = DbOptions {
        method_mode: mode,
        ..DbOptions::default()
    };
    let mut db = Database::from_ddl_with(ddl, opts).expect("micro DDL");
    let ks: Vec<String> = (1..=n).map(|k| k.to_string()).collect();
    let populate = format!("{{ new {class}({field}: k) | k <- {{{}}} }}", ks.join(", "));
    if n > 0 {
        db.query(&populate).expect("micro population");
    }
    db
}

/// A jack-jill database with `n` objects in `Ps`.
fn ps(n: usize) -> Database {
    populated(JACK_JILL_DDL, ioql::Mode::ReadOnly, "P", "name", n)
}

fn run_micro() -> Vec<MicroRow> {
    use ioql::effects::{infer_query, EffectEnv};
    use ioql::eval::{eval_big, evaluate, explore_outcomes, DefEnv, EvalConfig, Evaluated};
    use ioql::opt::{optimize, OptOptions, Stats};
    use ioql::types::{check_query, TypeEnv};
    use ioql::{Discipline, FirstChooser, Program, Query, RandomChooser};

    const FUEL: u64 = 100_000_000;
    let resolve = |db: &Database, src: &str| {
        db.schema()
            .resolve_query(&ioql::syntax::parse_query(src).unwrap())
    };
    let elaborate = |db: &Database, src: &str| {
        check_query(&TypeEnv::new(db.schema()), &resolve(db, src))
            .unwrap()
            .0
    };
    // The small-step machine (or, with `big`, the big-step evaluator) on
    // a fresh copy of the store, like every B3/B4 row.
    let eval = |db: &Database, q: &Query, big: bool| -> Evaluated {
        let cfg = EvalConfig::new(db.schema());
        let (defs, mut store) = (DefEnv::new(), db.store().clone());
        if !big {
            return evaluate(&cfg, &defs, &mut store, q, &mut FirstChooser, FUEL).unwrap();
        }
        let r = eval_big(&cfg, &defs, &mut store, q, &mut FirstChooser, FUEL).unwrap();
        Evaluated {
            value: r.value,
            effect: r.effect,
            steps: 0,
        }
    };
    let mut m = Micro::default();

    // B1 — parse, Figure 1 typing and Figure 3 effect inference grow
    // linearly with a union of `n` filtered comprehensions.
    let empty = ps(0);
    let (tenv, eenv) = (TypeEnv::new(empty.schema()), EffectEnv::new(empty.schema()));
    for n in [1usize, 4] {
        let arms: Vec<String> = (0..n)
            .map(|i| format!("{{ p.name + {i} | p <- Ps, p.name < {i} }}"))
            .collect();
        let src = arms.join(" union ");
        let (resolved, elab) = (resolve(&empty, &src), elaborate(&empty, &src));
        m.time("B1-analysis", "parse", n, || {
            ioql::syntax::parse_query(&src).unwrap()
        });
        m.time("B1-analysis", "typecheck-fig1", n, || {
            check_query(&tenv, &resolved).unwrap()
        });
        m.time("B1-analysis", "effects-fig3", n, || {
            infer_query(&eenv, &elab).unwrap()
        });
    }

    // B2 — the `⊢'` static check stays flat while exhaustive
    // enumeration of every `(ND comp)` order grows factorially.
    for n in [2usize, 3] {
        let db = ps(n);
        let elab = elaborate(&db, JACK_JILL_QUERY);
        let det = EffectEnv::new(db.schema()).with_discipline(Discipline::deterministic());
        let (cfg, store) = (EvalConfig::new(db.schema()), db.store().clone());
        assert!(
            infer_query(&det, &elab).is_err(),
            "⊢' must reject the §1 query"
        );
        m.time("B2-nondet", "static-check", n, || {
            infer_query(&det, &elab).is_err()
        });
        m.time("B2-nondet", "dynamic-exhaustive", n, || {
            let ex = explore_outcomes(&cfg, &DefEnv::new(), &store, &elab, 1_000_000, 100_000);
            assert!(ex.distinct_outcomes().len() >= 2);
        });
    }

    // B3 — predicate promotion turns the late-filter join from O(n²)
    // head work into O(n·k); the rewrite itself is cheap. The n = 24
    // ablation isolates each rule.
    let late_filter = "{ x.name + y.name | x <- Ps, y <- Ps, x.name < 3 }";
    let rewrite = |db: &Database, elab: &Query, opts: OptOptions| {
        let mut stats = Stats::new();
        for (e, _, members) in db.store().extents.iter() {
            stats.set(e.clone(), members.len());
        }
        optimize(db.schema(), &Program::query_only(elab.clone()), stats, opts)
            .0
            .query
    };
    for n in [8usize, 16] {
        let db = ps(n);
        let elab = elaborate(&db, late_filter);
        let opt = rewrite(&db, &elab, OptOptions::default());
        assert_eq!(eval(&db, &elab, false).value, eval(&db, &opt, false).value);
        m.time("B3-optimizer", "naive", n, || eval(&db, &elab, false));
        m.time("B3-optimizer", "optimized", n, || eval(&db, &opt, false));
        m.time("B3-optimizer", "rewrite-cost", n, || {
            rewrite(&db, &elab, OptOptions::default())
        });
    }
    let db = ps(24);
    let elab = elaborate(&db, late_filter);
    let only = |set: fn(&mut OptOptions)| {
        let mut o = OptOptions {
            max_rewrites: 10_000,
            ..OptOptions::none()
        };
        set(&mut o);
        o
    };
    for (variant, opts) in [
        ("ablation-none", OptOptions::none()),
        ("ablation-fold-only", only(|o| o.fold_constants = true)),
        (
            "ablation-promote-only",
            only(|o| o.promote_predicates = true),
        ),
        ("ablation-unnest-only", only(|o| o.unnest_generators = true)),
        ("ablation-all", OptOptions::default()),
    ] {
        let q = rewrite(&db, &elab, opts);
        m.time("B3-optimizer", variant, 24, || eval(&db, &q, false));
    }

    // B4 — executing Figure 2 literally: the small-step machine re-walks
    // the evaluation context per step, the big-step evaluator does not.
    for n in [10usize, 100] {
        let db = ps(n);
        let scan = elaborate(&db, "{ x.name | x <- Ps }");
        let filter = elaborate(&db, &format!("{{ x.name | x <- Ps, x.name < {} }}", n / 2));
        m.time("B4-machine", "scan-smallstep", n, || {
            eval(&db, &scan, false)
        });
        m.time("B4-machine", "scan-bigstep", n, || eval(&db, &scan, true));
        m.time("B4-machine", "scan+filter-smallstep", n, || {
            eval(&db, &filter, false)
        });
    }
    let db = ps(200);
    let scan = elaborate(&db, "{ x.name | x <- Ps }");
    let cfg = EvalConfig::new(db.schema());
    m.time("B4-machine", "chooser-first", 200, || {
        eval(&db, &scan, false)
    });
    m.time("B4-machine", "chooser-random", 200, || {
        let (mut store, mut ch) = (db.store().clone(), RandomChooser::seeded(9));
        evaluate(&cfg, &DefEnv::new(), &mut store, &scan, &mut ch, FUEL).unwrap()
    });
    for n in [4usize, 8] {
        let db = ps(n);
        let cross = elaborate(&db, "{ x.name + y.name | x <- Ps, y <- Ps }");
        m.time("B4-machine", "cross-product", n, || {
            eval(&db, &cross, false)
        });
    }
    for n in [32usize, 256] {
        let chain = (0..n as i64).fold(Query::int(0), |q, i| q.add(Query::int(i)));
        m.time("B4-machine", "arith-chain", n, || {
            eval(&empty, &chain, false)
        });
    }

    // B5 — the §5 method design space, through the whole `Database`
    // pipeline on a fresh clone per call.
    let ro = populated(ACCOUNT_DDL, ioql::Mode::ReadOnly, "Acc", "balance", 10);
    let ext = populated(
        EXTENDED_ACCOUNT_DDL,
        ioql::Mode::Extended,
        "Acc",
        "balance",
        10,
    );
    for (variant, db, q) in [
        ("read-only-call", &ro, "{ a.fee(3) | a <- Accs }"),
        ("inline-equivalent", &ro, "{ a.balance * 3 | a <- Accs }"),
        ("extended-update-call", &ext, "{ a.deposit(1) | a <- Accs }"),
        ("extended-extent-scan", &ext, "{ a.census() | a <- Accs }"),
    ] {
        m.time("B5-methods", variant, 10, || db.clone().query(q).unwrap());
    }
    let one = populated(ACCOUNT_DDL, ioql::Mode::ReadOnly, "Acc", "balance", 1);
    for depth in [10usize, 100] {
        let q = format!("{{ a.recur({depth}) | a <- Accs }}");
        m.time("B5-methods", "recursion-depth", depth, || {
            one.clone().query(&q).unwrap()
        });
    }
    let schema = ext.schema();
    m.time("B5-methods", "effect-table-fixpoint", 1, || {
        ioql::methods::effect_table(schema)
    });
    m.0
}

fn main() {
    let mut out_path = String::from("BENCH_10.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => match args.next() {
                Some(p) => out_path = p,
                None => {
                    eprintln!("--out needs a path");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: ioql-bench [--out FILE]   (default: BENCH_10.json)");
                return;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                std::process::exit(2);
            }
        }
    }

    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!("host parallelism: {host}; licensed pool size: {PAR}");

    let micro = run_micro();

    let rows = [
        // B6's join workload (nested generators): the inner scan's head
        // is the VM's hot loop; the outer scan is the parallel
        // partition — the two tiers compose multiplicatively.
        run_quad(
            "B6-join",
            400,
            "{ p.age + q.age | p <- Persons, q <- Persons }",
            3,
        ),
        // B7's selective equality (ExtentScan + hash-index probe).
        run_quad(
            "B7-eq",
            10_000,
            "{ p.name | p <- Persons, p.age = 5000 }",
            3,
        ),
        // B8 — PR 5's parallel acceptance bench, re-run so the compile
        // tier is shown not to regress it.
        run_quad("B8-scan", 100_000, "{ p.name | p <- Persons }", 1),
    ];

    // B9 — the serve matrix. Read-heavy is pure reads (every request
    // snapshot-admitted); mixed interleaves one writer per eight
    // requests per client, so serializations and snapshots coexist.
    let mut serve_cells = Vec::new();
    for clients in [1usize, 4, 16] {
        serve_cells.push(run_serve_cell(clients, "read-heavy", 0));
    }
    for clients in [1usize, 4, 16] {
        serve_cells.push(run_serve_cell(clients, "mixed", 8));
    }

    // B10 — snapshot acquisition across three store sizes.
    let snaps = [
        run_snapshot_cell(1_000),
        run_snapshot_cell(10_000),
        run_snapshot_cell(100_000),
    ];
    let b10_advantage = snaps[2].cow_advantage();
    let b10_gate = b10_advantage >= 50.0;
    // 100× the objects for well under 100× the snapshot cost: the spine
    // clone scales with chunk count (plus per-clone constants), never
    // with per-object copying.
    let b10_growth = ratio(snaps[2].snapshot_ns, snaps[0].snapshot_ns);
    let b10_sublinear = b10_growth < 100.0;

    let b6 = &rows[0];
    let b8 = &rows[2];
    assert!(
        b8.par_runs >= 1,
        "B8 never dispatched a parallel run — the timing would be seq vs seq"
    );
    const BENCH5_B6_SEQ_MS: f64 = 196.050;
    let b6_vs_baseline = ratio(BENCH5_B6_SEQ_MS, b6.ms[1]);
    let b6_gate = b6_vs_baseline >= 5.0;
    let b8_gate = host < 2 || ratio(b8.ms[0], b8.ms[2]) >= 2.0;

    // Sanity invariants that hold on any host: pure reads never
    // serialize, and the multi-client read cells genuinely overlapped.
    for c in &serve_cells {
        if c.workload == "read-heavy" {
            assert_eq!(c.serialized, 0, "a pure read serialized");
            if c.clients > 1 {
                assert!(
                    c.max_inflight > 1,
                    "{} read clients never overlapped in flight",
                    c.clients
                );
            }
        }
    }
    let read_base = serve_cells
        .iter()
        .find(|c| c.workload == "read-heavy" && c.clients == 1)
        .unwrap()
        .req_per_s;
    let read_best = serve_cells
        .iter()
        .filter(|c| c.workload == "read-heavy" && c.clients > 1)
        .map(|c| c.req_per_s)
        .fold(0.0f64, f64::max);
    let b9_scaling = ratio(read_best, read_base);
    let b9_gate = host < 2 || b9_scaling >= 2.0;

    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"BENCH_10\",\n");
    json.push_str("  \"description\": \"interpreted vs compiled (bytecode VM) x sequential vs parallel (Engine::Plan, cache off), the B9 serve matrix (wire clients x workload against one admission-scheduled kernel), the B10 snapshot matrix (COW spine-clone acquisition vs a clone-on-admit deep-copy baseline, by store size), and the ungated B1-B5 micro rows (best-of-5 mean microseconds per call)\",\n");
    json.push_str(&format!("  \"host_parallelism\": {host},\n"));
    json.push_str(&format!("  \"pool_size\": {PAR},\n"));
    json.push_str(&format!(
        "  \"bench5_b6_seq_ms_baseline\": {BENCH5_B6_SEQ_MS:.3},\n"
    ));
    json.push_str(&format!(
        "  \"b6_vm_seq_speedup_vs_bench5_baseline\": {b6_vs_baseline:.3},\n"
    ));
    json.push_str("  \"results\": [\n");
    for (i, r) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"id\": \"{}\", \"n\": {}, \"query\": \"{}\", \"iters\": {}, \
             \"interp_seq_ms\": {:.3}, \"vm_seq_ms\": {:.3}, \
             \"interp_par_ms\": {:.3}, \"vm_par_ms\": {:.3}, \
             \"compile_speedup_seq\": {:.3}, \"compile_speedup_par\": {:.3}, \
             \"combined_speedup\": {:.3}, \"vm_rows\": {} }}{}\n",
            r.id,
            r.n,
            r.query.replace('\\', "\\\\").replace('"', "\\\""),
            r.iters,
            r.ms[0],
            r.ms[1],
            r.ms[2],
            r.ms[3],
            r.compile_speedup_seq(),
            r.compile_speedup_par(),
            r.combined_speedup(),
            r.vm_rows,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"serve_matrix\": [\n");
    for (i, c) in serve_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"id\": \"B9-serve\", \"workload\": \"{}\", \"clients\": {}, \
             \"requests\": {}, \"wall_ms\": {:.3}, \"req_per_s\": {:.1}, \
             \"admitted\": {}, \"serialized\": {}, \"max_inflight_readers\": {} }}{}\n",
            c.workload,
            c.clients,
            SERVE_REQUESTS / c.clients * c.clients,
            c.wall_ms,
            c.req_per_s,
            c.admitted,
            c.serialized,
            c.max_inflight,
            if i + 1 < serve_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"snapshot_matrix\": [\n");
    for (i, s) in snaps.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"id\": \"B10-snapshot\", \"n\": {}, \"chunks\": {}, \
             \"snapshot_ns\": {:.1}, \"deep_copy_ns\": {:.1}, \
             \"cow_advantage\": {:.3} }}{}\n",
            s.n,
            s.chunks,
            s.snapshot_ns,
            s.deep_copy_ns,
            s.cow_advantage(),
            if i + 1 < snaps.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"micro\": [\n");
    for (i, m) in micro.iter().enumerate() {
        json.push_str(&format!(
            "    {{ \"id\": \"{}\", \"variant\": \"{}\", \"n\": {}, \"us\": {:.3} }}{}\n",
            m.id,
            m.variant,
            m.n,
            m.us,
            if i + 1 < micro.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"b10_snapshot_growth_1k_to_100k\": {b10_growth:.3},\n"
    ));
    json.push_str(&format!(
        "  \"b9_read_throughput_scaling_vs_1_client\": {b9_scaling:.3},\n"
    ));
    json.push_str(&format!(
        "  \"b6_vm_seq_at_least_5x_vs_bench5_baseline\": {b6_gate},\n"
    ));
    json.push_str(&format!(
        "  \"b8_par_speedup_at_least_2x\": {},\n",
        if host < 2 {
            "\"skipped (1-cpu host)\"".to_string()
        } else {
            b8_gate.to_string()
        }
    ));
    json.push_str(&format!(
        "  \"b9_concurrent_read_throughput_at_least_2x\": {},\n",
        if host < 2 {
            "\"skipped (1-cpu host)\"".to_string()
        } else {
            b9_gate.to_string()
        }
    ));
    json.push_str(&format!(
        "  \"b10_snapshot_at_least_50x_vs_deep_copy\": {b10_gate},\n"
    ));
    json.push_str(&format!(
        "  \"b10_snapshot_sublinear_in_objects\": {b10_sublinear}\n"
    ));
    json.push_str("}\n");

    std::fs::write(&out_path, &json).expect("write bench output");
    println!("wrote {out_path}");
    if !b6_gate {
        eprintln!(
            "B6 compiled-seq {:.2} ms is only {b6_vs_baseline:.2}× over the BENCH_5 \
             baseline of {BENCH5_B6_SEQ_MS} ms — below the 5× acceptance bound",
            b6.ms[1]
        );
        std::process::exit(1);
    }
    if !b8_gate {
        eprintln!(
            "B8 parallel speedup {:.2}× is below the 2× acceptance bound",
            ratio(b8.ms[0], b8.ms[2])
        );
        std::process::exit(1);
    }
    if !b9_gate {
        eprintln!(
            "B9 concurrent read throughput {b9_scaling:.2}× over the 1-client \
             baseline is below the 2× acceptance bound"
        );
        std::process::exit(1);
    }
    if !b10_gate {
        eprintln!(
            "B10 snapshot acquisition on the 100k store is only \
             {b10_advantage:.1}× cheaper than the deep-copy baseline — \
             below the 50× acceptance bound"
        );
        std::process::exit(1);
    }
    if !b10_sublinear {
        eprintln!(
            "B10 snapshot cost grew {b10_growth:.1}× from 1k to 100k objects \
             — not sublinear in store size"
        );
        std::process::exit(1);
    }
}
