//! The embedded database facade: one handle over a shared
//! [`DbKernel`], running text through parse → resolve →
//! elaborate/type → effect-infer → (optionally optimize) → evaluate.
//!
//! [`Database`] is the *exclusive* handle — each query runs under the
//! kernel's state write lock against the live store, exactly as the
//! pre-split monolith did, so embedded callers see zero behavioural
//! change. Concurrent multi-client access goes through
//! [`Database::session`] (effect-scheduled admission — see
//! [`crate::sched`]) and [`Database::serve`] (the TCP server).

use crate::analysis::{collect_commutations, Analysis};
use crate::cache::CacheStats;
use crate::cache::QueryCache;
use crate::error::DbError;
use crate::kernel::{DbKernel, ExecMode, KernelState};
use crate::sched::{Admitted, SchedMetrics};
use crate::session::Session;
use ioql_ast::{Definition, Query, Type, Value};
use ioql_effects::{infer_query, Discipline, Effect, EffectError};
use ioql_eval::{
    evaluate, Chooser, DefEnv, EvalMetrics, Exploration, FirstChooser, Governor, GovernorMetrics,
    Limits,
};
use ioql_methods::{check_schema_methods, effect_table, Mode};
use ioql_opt::AppliedRewrite;
use ioql_schema::Schema;
use ioql_store::{Durability, Store};
use ioql_syntax::{parse_program, parse_schema};
use ioql_telemetry::{
    Counter, EventSink, FlightRecorder, Histogram, MetricsRegistry, TraceRecord, Tracer,
};
use ioql_types::TypeOptions;
use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which evaluator runs the query.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Engine {
    /// The Figure 2 small-step machine — the executable *specification*.
    /// Slower (it re-traverses the evaluation context per step) but the
    /// ground truth; reports a step count.
    #[default]
    SmallStep,
    /// The independent big-step evaluator — the production-engine floor,
    /// 10–1000× faster on scans (see EXPERIMENTS.md B4/D1). Agrees with
    /// the machine on value, store, and effect trace; the differential
    /// suite keeps it honest. Step counts are not reported (0).
    BigStep,
    /// The physical-plan executor (`ioql-plan`): Theorem-7-eligible
    /// queries are lowered to a costed operator pipeline (scans, hash
    /// index probes, set operators) and executed there; everything else
    /// falls back to the big-step evaluator. Observationally identical
    /// to the interpreters — same chooser draws, governor charges, and
    /// effects — see `tests/plan.rs`. Step counts are not reported (0).
    /// The only engine with a parallel mode: see
    /// [`DbOptions::parallelism`] and `tests/parallel.rs`.
    Plan,
}

/// Pipeline configuration.
#[derive(Clone, Debug)]
pub struct DbOptions {
    /// Figure 1 options (downcast flag).
    pub type_options: TypeOptions,
    /// Method design point: read-only (§3) or extended (§5).
    pub method_mode: Mode,
    /// Fuel per method invocation.
    pub method_fuel: u64,
    /// Step budget per query evaluation.
    pub max_steps: u64,
    /// Run the effect-guided optimizer before evaluating.
    pub optimize: bool,
    /// Reject queries that fail the `⊢'` determinism discipline instead
    /// of evaluating them (off by default — the paper's permissive `⊢`).
    pub require_deterministic: bool,
    /// Which evaluator executes queries.
    pub engine: Engine,
    /// Resource limits enforced per query (deadline, cell/cardinality/
    /// growth budgets). [`Limits::none()`] by default. Each query runs
    /// under a fresh [`Governor`] built from these limits; pass one
    /// through [`RunArgs::governor`] to share it (and its cancellation
    /// token) across calls.
    pub limits: Limits,
    /// Capacity (in entries) of the effect-keyed query-result cache;
    /// `0` disables caching. Only queries whose inferred effect passes
    /// the Theorem 7 guard (`new`-free, no `A(C)`, no `U(C)`) are ever
    /// cached, and entries are invalidated by extent version bumps —
    /// see [`crate::cache`].
    pub cache_capacity: usize,
    /// Enable the telemetry registry: cache/governor/engine counters,
    /// per-phase lifecycle histograms (fed from each query's finished
    /// [`TraceRecord`]), `:metrics` exposition. Off by default; when off
    /// every handle is a no-op and no clock is read.
    /// Telemetry is **semantics-transparent** either way — nothing
    /// recorded feeds back into evaluation (see `tests/telemetry.rs`).
    pub telemetry: bool,
    /// Write structured JSONL events to this path: per query, a span
    /// begin/end pair and a counter snapshot (plus the `slow_query`
    /// record, see [`DbOptions::slow_query_ms`]). Every line is derived
    /// from the query's finished [`TraceRecord`] — the kernel records
    /// one whenever a sink is attached, with or without a ring
    /// ([`DbOptions::trace_capacity`]). Implies nothing about
    /// `telemetry`; the counter snapshots are only non-zero when it is
    /// on.
    pub telemetry_jsonl: Option<std::path::PathBuf>,
    /// Worker-pool size for effect-licensed parallel execution on the
    /// `Plan` engine (`0` = off, the default; `1` = a degenerate pool —
    /// every node refuses). When ≥ 2, lowering annotates each
    /// parallel-capable plan node with a Theorem 7/8 verdict and the
    /// executor dispatches scoped worker threads for licensed nodes,
    /// falling back to sequential execution whenever a run-time gate
    /// (unforkable chooser, finite budget on a charged axis, tiny
    /// input) would make an observable scheduling-dependent. The
    /// parallelism contract is that **no observable changes** — results,
    /// effect traces, governor meters, chooser draw totals, and cache
    /// interactions are byte-identical to `parallelism = 0` (see
    /// `tests/parallel.rs`). Defaults from the `IOQL_PARALLELISM`
    /// environment variable when set to a valid integer.
    pub parallelism: usize,
    /// Compile comprehension predicates and projection heads to the
    /// bytecode VM on the `Plan` engine. Lowering annotates each
    /// eligible plan node with a compile verdict — `[vm]` in `:plan`
    /// output, or `[interp(reason)]` naming the construct that kept it
    /// interpreted — and the executor dispatches compiled rows through
    /// the VM in batch. The compilation contract matches the
    /// parallelism one: **no observable changes** — values, stores,
    /// effect traces, governor meters, chooser draw totals, stuck
    /// messages, and cache interactions are byte-identical to
    /// `compile = false` (see `tests/compile.rs`). Defaults from the
    /// `IOQL_COMPILE` environment variable (`1`/`true` enables).
    pub compile: bool,
    /// Write-ahead-log fsync policy for committed mutating queries, in
    /// force once a durable directory is attached
    /// ([`Database::attach_durable`]): `Off` (default) logs nothing and
    /// changes **no observable** — values, stores, effects, meters are
    /// byte-identical to a database with no durability subsystem;
    /// `Commit` fsyncs each commit's record before acknowledging it;
    /// `Batch(n)` group-commits, fsyncing every `n`-th record. Queries
    /// whose inferred effect is write-free (the Theorem 7 guard) skip
    /// the log entirely under every mode — the effect system proves
    /// they have nothing to persist.
    pub durability: Durability,
    /// Cumulative resource budget for one [`Session`]: when set, every
    /// session built from these options meters **all** of its queries
    /// against a single long-lived [`Governor`] constructed from these
    /// limits, so one greedy client exhausts its own budget instead of
    /// starving the others. `None` (the default) gives sessions the
    /// per-query [`DbOptions::limits`] behaviour. Trips are surfaced
    /// per-session (see [`Session::describe`]) and in the shared
    /// governor trip counters. The embedded [`Database`] handle ignores
    /// this field.
    pub session_budget: Option<Limits>,
    /// Capacity of the query flight recorder's in-memory ring: when
    /// non-zero, every query run through the kernel captures a structured
    /// [`TraceRecord`] — a span tree over
    /// parse → typecheck → effect-infer → optimize → lower → execute
    /// plus scheduler wait, lock acquisition, cache probe, and WAL
    /// append, each span carrying the decision it witnessed (cache
    /// hit/miss with reason, admission mode with serialization witness,
    /// per-node parallel/compile verdicts, governor charges). The last
    /// `trace_capacity` records are retrievable via
    /// [`Database::traces_last`], the `:trace last`/`:trace seq` wire
    /// commands, and `GET /traces` on the observability listener.
    /// `0` (the default) disables recording entirely. The recording
    /// contract matches telemetry's: **no observable changes** — results,
    /// stores, effects, meters, and draw totals are byte-identical to
    /// `trace_capacity = 0` (see `tests/flight_recorder.rs`).
    pub trace_capacity: usize,
    /// Slow-query threshold: when set together with
    /// [`DbOptions::telemetry_jsonl`], any query whose wall-clock
    /// `elapsed` (scheduler wait included — the record's `total_ns`)
    /// reaches this many milliseconds has its full [`TraceRecord`]
    /// emitted to the JSONL sink as a `slow_query` event. No ring is
    /// needed: the record exists whenever a sink is attached, and it
    /// carries `seq = 0` when `trace_capacity = 0`. `None` (the
    /// default) disables the slow-query log.
    pub slow_query_ms: Option<u64>,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            type_options: TypeOptions::default(),
            method_mode: Mode::ReadOnly,
            method_fuel: 1_000_000,
            max_steps: 10_000_000,
            optimize: false,
            require_deterministic: false,
            engine: Engine::default(),
            limits: Limits::none(),
            cache_capacity: 1024,
            telemetry: false,
            telemetry_jsonl: None,
            parallelism: std::env::var("IOQL_PARALLELISM")
                .ok()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0),
            compile: std::env::var("IOQL_COMPILE")
                .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
                .unwrap_or(false),
            durability: Durability::Off,
            session_budget: None,
            trace_capacity: 0,
            slow_query_ms: None,
        }
    }
}

/// The database's telemetry handles: one [`MetricsRegistry`] plus the
/// pre-registered counters and histograms every subsystem writes into.
///
/// All handles are **write-only from the engines' side**: no evaluation,
/// chooser, governor, or cache decision ever reads a recorded value, so
/// telemetry cannot perturb semantics (the transparency guard,
/// enforced differentially by `tests/telemetry.rs`). With
/// [`DbOptions::telemetry`] off, every handle is disabled and records
/// nothing at near-zero cost.
#[derive(Clone, Debug)]
pub struct DbMetrics {
    registry: Arc<MetricsRegistry>,
    /// Queries started (any engine, cached or not).
    pub queries: Counter,
    /// Failed mutating queries rolled back to their snapshot.
    pub rollbacks: Counter,
    /// `(ND comp)` chooser draws made on behalf of governed queries.
    pub chooser_draws: Counter,
    /// Query-cache hits (mirrors [`crate::cache::CacheStats::hits`]).
    pub cache_hits: Counter,
    /// Query-cache misses.
    pub cache_misses: Counter,
    /// Query-cache evictions (capacity and staleness).
    pub cache_evictions: Counter,
    /// `ioql_phase_duration_ns{phase}`, one histogram per pipeline span
    /// name in [`PHASES`] — fed only from finished trace records.
    phases: [Histogram; PHASES.len()],
    /// Governor charge/trip counters (shared with every [`Governor`]
    /// built by [`Database::governor`]).
    pub governor: GovernorMetrics,
    /// Engine work-volume counters (small-step steps, big-step
    /// recursions).
    pub eval: EvalMetrics,
    /// Parallel-executor counters: chunks dispatched, worker busy time,
    /// licensed runs by mechanism, and run-time fallbacks by reason.
    pub parallel: ioql_plan::ParMetrics,
    /// Bytecode-VM counters: plan nodes compiled vs. kept interpreted,
    /// rows dispatched through the VM, and batch dispatch wall time.
    pub vm: ioql_plan::VmMetrics,
    /// Admission-controller counters: queries admitted concurrently,
    /// queries serialized (with their interference witnesses), and the
    /// submission-to-admission wait histogram — see [`crate::sched`].
    pub sched: SchedMetrics,
    /// Store chunks shared (not copied) by snapshot acquisition — the
    /// spine length at each admission. Together with
    /// `snapshot_chunks_copied` this measures COW effectiveness: shared
    /// counts snapshot cheapness, copied counts writer path-copy work.
    pub snapshot_chunks_shared: Counter,
    /// Store chunks a committed writer had to copy because they were
    /// shared with a live snapshot (`Arc::make_mut` path copies).
    pub snapshot_chunks_copied: Counter,
    /// WAL records appended (one per committed mutating query or logged
    /// definition).
    pub wal_appends: Counter,
    /// Queries that skipped the WAL because their inferred effect is
    /// write-free — the Theorem 7 guard acting as a durability filter.
    pub wal_skipped_effect: Counter,
    /// `fsync`s issued by the log (per commit under `Commit`, per group
    /// under `Batch(n)`).
    pub wal_fsyncs: Counter,
    /// Fsyncs that covered more than one pending record — actual group
    /// commits.
    pub wal_group_commits: Counter,
    /// Checkpoints taken (`:checkpoint` and load-triggered).
    pub wal_checkpoints: Counter,
    /// Records replayed by startup recovery.
    pub wal_replayed: Counter,
    /// Torn trailing records dropped by startup recovery.
    pub wal_torn_dropped: Counter,
    /// Store dumps written (`:save`, checkpoints).
    pub store_saves: Counter,
    /// Store dumps loaded (`:load`, recovery checkpoint loads).
    pub store_loads: Counter,
}

impl DbMetrics {
    fn new(enabled: bool) -> DbMetrics {
        let registry = Arc::new(MetricsRegistry::new(enabled));
        for (family, help) in [
            (
                "ioql_queries_total",
                "Queries started (any engine, cached or not).",
            ),
            (
                "ioql_rollbacks_total",
                "Failed mutating queries rolled back to their pre-query snapshot.",
            ),
            (
                "ioql_chooser_draws_total",
                "Nondeterministic chooser draws across all queries.",
            ),
            ("ioql_cache_hits_total", "Query-result cache hits."),
            ("ioql_cache_misses_total", "Query-result cache misses."),
            (
                "ioql_cache_evictions_total",
                "Query-result cache evictions (FIFO capacity and stale entries).",
            ),
            (
                "ioql_phase_duration_ns",
                "Wall-clock nanoseconds per pipeline phase.",
            ),
            (
                "ioql_governor_checkpoints_total",
                "Governor budget checkpoints.",
            ),
            ("ioql_governor_charges_total", "Governor charges by kind."),
            (
                "ioql_governor_observations_total",
                "Governor observations by kind.",
            ),
            (
                "ioql_governor_cancellations_total",
                "Queries cancelled via the governor's token.",
            ),
            (
                "ioql_governor_trips_total",
                "Governor budget trips by kind.",
            ),
            (
                "ioql_eval_steps_total",
                "Small-step machine reduction steps.",
            ),
            (
                "ioql_eval_recursions_total",
                "Named-definition recursive calls.",
            ),
            (
                "ioql_sched_admitted_total",
                "Write-free queries admitted concurrently against a snapshot.",
            ),
            (
                "ioql_sched_serialized_total",
                "Writing queries serialized into the kernel's commit order.",
            ),
            (
                "ioql_sched_witnesses_total",
                "Interference witnesses recorded at serialization.",
            ),
            (
                "ioql_sched_wait_ns",
                "Nanoseconds spent waiting for admission plus state-lock acquisition.",
            ),
            (
                "ioql_sched_snapshot_ns",
                "Nanoseconds spent acquiring the COW store snapshot under the read lock.",
            ),
            (
                "ioql_snapshot_chunks_shared_total",
                "Store chunks shared (not copied) by snapshot acquisition.",
            ),
            (
                "ioql_snapshot_chunks_copied_total",
                "Store chunks copied by writers because a live snapshot shared them.",
            ),
            (
                "ioql_wal_appends_total",
                "Committed records appended to the write-ahead log.",
            ),
            (
                "ioql_wal_skipped_effect_total",
                "Commits skipped by the WAL because the effect proved them write-free.",
            ),
            ("ioql_wal_fsyncs_total", "WAL fsync calls."),
            (
                "ioql_wal_group_commits_total",
                "WAL fsyncs that covered more than one pending record.",
            ),
            (
                "ioql_wal_checkpoints_total",
                "Durable checkpoints (baseline rebuilds).",
            ),
            (
                "ioql_wal_replayed_total",
                "Records replayed during recovery.",
            ),
            (
                "ioql_wal_torn_dropped_total",
                "Torn tail records dropped during recovery.",
            ),
            ("ioql_store_saves_total", "Store snapshots saved to disk."),
            (
                "ioql_store_loads_total",
                "Store snapshots loaded from disk.",
            ),
        ] {
            registry.describe(family, help);
        }
        let c = |name: &str| registry.counter(name);
        DbMetrics {
            queries: c("ioql_queries_total"),
            rollbacks: c("ioql_rollbacks_total"),
            chooser_draws: c("ioql_chooser_draws_total"),
            cache_hits: c("ioql_cache_hits_total"),
            cache_misses: c("ioql_cache_misses_total"),
            cache_evictions: c("ioql_cache_evictions_total"),
            phases: PHASES.map(|phase| {
                registry.histogram(&format!("ioql_phase_duration_ns{{phase=\"{phase}\"}}"))
            }),
            governor: GovernorMetrics {
                checkpoints: c("ioql_governor_checkpoints_total"),
                cell_charges: c("ioql_governor_charges_total{kind=\"cells\"}"),
                growth_charges: c("ioql_governor_charges_total{kind=\"store-growth\"}"),
                set_card_observations: c(
                    "ioql_governor_observations_total{kind=\"set-cardinality\"}",
                ),
                cancellations: c("ioql_governor_cancellations_total"),
                trips_wall_clock: c("ioql_governor_trips_total{kind=\"wall-clock\"}"),
                trips_cells: c("ioql_governor_trips_total{kind=\"cells\"}"),
                trips_set_card: c("ioql_governor_trips_total{kind=\"set-cardinality\"}"),
                trips_growth: c("ioql_governor_trips_total{kind=\"store-growth\"}"),
            },
            eval: EvalMetrics {
                steps: c("ioql_eval_steps_total"),
                recursions: c("ioql_eval_recursions_total"),
            },
            parallel: ioql_plan::ParMetrics::new(&registry),
            vm: ioql_plan::VmMetrics::new(&registry),
            sched: SchedMetrics {
                admitted: c("ioql_sched_admitted_total"),
                serialized: c("ioql_sched_serialized_total"),
                witnesses: c("ioql_sched_witnesses_total"),
                wait_ns: registry.histogram("ioql_sched_wait_ns"),
                snapshot_ns: registry.histogram("ioql_sched_snapshot_ns"),
            },
            snapshot_chunks_shared: c("ioql_snapshot_chunks_shared_total"),
            snapshot_chunks_copied: c("ioql_snapshot_chunks_copied_total"),
            wal_appends: c("ioql_wal_appends_total"),
            wal_skipped_effect: c("ioql_wal_skipped_effect_total"),
            wal_fsyncs: c("ioql_wal_fsyncs_total"),
            wal_group_commits: c("ioql_wal_group_commits_total"),
            wal_checkpoints: c("ioql_wal_checkpoints_total"),
            wal_replayed: c("ioql_wal_replayed_total"),
            wal_torn_dropped: c("ioql_wal_torn_dropped_total"),
            store_saves: c("ioql_store_saves_total"),
            store_loads: c("ioql_store_loads_total"),
            registry,
        }
    }

    /// The backing registry (counter reads, Prometheus rendering).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Feeds the timing histograms from one finished query record: each
    /// [`PHASES`] span into its `ioql_phase_duration_ns` series, the
    /// `sched-wait` and `snapshot-acquire` spans into
    /// `ioql_sched_wait_ns` and `ioql_sched_snapshot_ns`. The record is
    /// the only source — no kernel path times a phase any other way.
    pub(crate) fn observe_record(&self, record: &TraceRecord) {
        for span in &record.spans {
            let histogram = match span.name.as_str() {
                "sched-wait" => &self.sched.wait_ns,
                "snapshot-acquire" => &self.sched.snapshot_ns,
                name => match PHASES.iter().position(|p| *p == name) {
                    Some(i) => &self.phases[i],
                    None => continue,
                },
            };
            histogram.observe_ns(span.dur_ns);
        }
    }
}

/// The pipeline spans with a `ioql_phase_duration_ns{phase}` series.
const PHASES: [&str; 6] = [
    "parse",
    "typecheck",
    "effect-infer",
    "optimize",
    "lower",
    "execute",
];

/// The per-call arguments of [`Database::run`] and [`Session::run`].
/// Every field is optional; [`RunArgs::default`] is what
/// [`Database::query`] and [`Session::query`] pass.
///
/// ```no_run
/// # fn demo(db: &mut ioql::Database) -> Result<(), ioql::DbError> {
/// use ioql::{LastChooser, RunArgs};
/// let governor = db.governor();
/// let mut chooser = LastChooser;
/// db.run(
///     "{ p.name | p <- Persons }",
///     RunArgs::default().chooser(&mut chooser).governor(&governor).trace_id("req-7"),
/// )?;
/// # Ok(()) }
/// ```
#[derive(Default)]
pub struct RunArgs<'a> {
    /// The `(ND comp)` strategy; [`FirstChooser`] when `None`.
    pub chooser: Option<&'a mut dyn Chooser>,
    /// The governor metering the call. When `None`: a fresh per-query
    /// governor from [`DbOptions::limits`] — or, on a session with a
    /// [`DbOptions::session_budget`], the session's budget governor.
    pub governor: Option<&'a Governor>,
    /// The caller's correlation ID, stamped into the query's trace
    /// record (the wire protocol's `trace=ID`).
    pub trace_id: Option<&'a str>,
}

impl<'a> RunArgs<'a> {
    /// Runs with `chooser` as the `(ND comp)` strategy.
    pub fn chooser(mut self, chooser: &'a mut dyn Chooser) -> Self {
        self.chooser = Some(chooser);
        self
    }

    /// Meters the run with a caller-owned `governor`.
    pub fn governor(mut self, governor: &'a Governor) -> Self {
        self.governor = Some(governor);
        self
    }

    /// Stamps `trace_id` into the query's trace record.
    pub fn trace_id(mut self, trace_id: &'a str) -> Self {
        self.trace_id = Some(trace_id);
        self
    }
}

/// The result of one evaluated query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    /// The value produced.
    pub value: Value,
    /// Static type (Figure 1).
    pub ty: Type,
    /// Statically inferred effect (Figure 3).
    pub static_effect: Effect,
    /// Actual runtime effect trace (Figure 4); always a subeffect of
    /// `static_effect` — that is Theorem 5, and a `debug_assert` checks
    /// it on every query.
    pub runtime_effect: Effect,
    /// Reduction steps taken. `0` when the result was served from the
    /// cache.
    pub steps: u64,
    /// Whether the result was served from the query-result cache rather
    /// than evaluated. Cached results are value-identical to a fresh
    /// evaluation (Theorem 7 — see [`crate::cache`]).
    pub cached: bool,
    /// Wall-clock time of the whole pipeline run, scheduler wait
    /// included (admission through evaluate — what the caller actually
    /// waited). Measured outside the governor's deadline path and
    /// regardless of [`DbOptions::telemetry`] — purely informational;
    /// nothing reads it back. When the query was traced, this is its
    /// record's `total_ns`: one clock, started once.
    pub elapsed: Duration,
    /// The portion of [`QueryResult::elapsed`] spent waiting to be
    /// scheduled: admission-queue time plus kernel state-lock
    /// acquisition, before the pipeline proper started. Always
    /// ≤ `elapsed`; `Duration::ZERO` for cache hits served without
    /// touching the write path. Like `elapsed`, purely informational.
    pub wait: Duration,
    /// How the admission controller scheduled this query: a snapshot
    /// stamp for a concurrently-admitted reader, a commit-order stamp
    /// plus interference witness for a serialized writer. `None` on the
    /// embedded exclusive path ([`Database::query`] and friends), which
    /// bypasses admission entirely.
    pub admitted: Option<Admitted>,
}

/// Read access to the shared store: a lock guard dereferencing to
/// [`Store`]. Dropping it releases the kernel's state read lock — do
/// not hold one across a `query`/`define` call on the same database.
pub struct StoreRef<'a> {
    pub(crate) guard: std::sync::RwLockReadGuard<'a, KernelState>,
}

impl Deref for StoreRef<'_> {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.guard.store
    }
}

/// Mutable access to the shared store: a lock guard dereferencing to
/// [`Store`]. Dropping it releases the kernel's state write lock — do
/// not hold one across a `query`/`define` call on the same database.
pub struct StoreRefMut<'a> {
    pub(crate) guard: std::sync::RwLockWriteGuard<'a, KernelState>,
}

impl Deref for StoreRefMut<'_> {
    type Target = Store;
    fn deref(&self) -> &Store {
        &self.guard.store
    }
}

impl DerefMut for StoreRefMut<'_> {
    fn deref_mut(&mut self) -> &mut Store {
        &mut self.guard.store
    }
}

/// An IOQL database: the embedded, exclusive handle over a (possibly
/// shared) [`DbKernel`] — schema + store + named query definitions.
#[derive(Debug)]
pub struct Database {
    kernel: Arc<DbKernel>,
    options: DbOptions,
}

impl Clone for Database {
    /// Clones the database **state**: the clone gets its own kernel with
    /// an independent copy of the store, definitions, and cache, while
    /// *sharing* the original's telemetry registry, JSONL sink, and
    /// durable log — exactly the pre-split semantics (clones append to
    /// one log and one sink, but mutate their own stores). To share
    /// *live* state instead, hand out [`Database::session`] handles or
    /// clone the [`Database::kernel`] `Arc`.
    fn clone(&self) -> Database {
        let k = &*self.kernel;
        let state = k.read_state().clone();
        let cache = k.cache.lock().unwrap_or_else(|e| e.into_inner()).clone();
        Database {
            kernel: Arc::new(DbKernel::new(
                k.schema.clone(),
                k.method_effects.clone(),
                state,
                cache,
                k.metrics.clone(),
                k.sink.clone(),
                k.recorder().cloned(),
                k.durable_handle(),
            )),
            options: self.options.clone(),
        }
    }
}

impl Database {
    /// Builds a database from ODL text with default options.
    pub fn from_ddl(ddl: &str) -> Result<Database, DbError> {
        Database::from_ddl_with(ddl, DbOptions::default())
    }

    /// Builds a database from ODL text.
    pub fn from_ddl_with(ddl: &str, options: DbOptions) -> Result<Database, DbError> {
        let classes = parse_schema(ddl)?;
        let schema = Schema::new(classes)?;
        Database::from_schema(schema, options)
    }

    /// Builds a database from a validated schema.
    pub fn from_schema(schema: Schema, options: DbOptions) -> Result<Database, DbError> {
        check_schema_methods(&schema, options.method_mode)?;
        let method_effects = effect_table(&schema);
        let mut store = Store::new();
        for (e, c) in schema.extents() {
            store.declare_extent(e.clone(), c.clone());
        }
        let metrics = DbMetrics::new(options.telemetry);
        let sink = match &options.telemetry_jsonl {
            Some(path) => Some(Arc::new(
                EventSink::create(path).map_err(|e| DbError::Io(e.to_string()))?,
            )),
            None => None,
        };
        let cache = QueryCache::new(options.cache_capacity).with_metrics(
            metrics.cache_hits.clone(),
            metrics.cache_misses.clone(),
            metrics.cache_evictions.clone(),
        );
        let state = KernelState {
            store,
            defs: Vec::new(),
            def_types: BTreeMap::new(),
            def_effects: BTreeMap::new(),
        };
        let recorder = (options.trace_capacity > 0)
            .then(|| Arc::new(FlightRecorder::new(options.trace_capacity)));
        Ok(Database {
            kernel: Arc::new(DbKernel::new(
                schema,
                method_effects,
                state,
                cache,
                metrics,
                sink,
                recorder,
                None,
            )),
            options,
        })
    }

    /// The shared kernel this handle runs against. Clone the `Arc` to
    /// build [`Session`]s (or whole servers) over the same live state.
    pub fn kernel(&self) -> &Arc<DbKernel> {
        &self.kernel
    }

    /// A new admission-scheduled [`Session`] over this database's
    /// kernel, labelled for telemetry. The session starts from this
    /// handle's current options (including [`DbOptions::session_budget`]).
    pub fn session(&self, label: impl Into<String>) -> Session {
        Session::new(Arc::clone(&self.kernel), self.options.clone(), label.into())
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        self.kernel.schema()
    }

    /// The store (read access, behind the kernel's state read lock).
    pub fn store(&self) -> StoreRef<'_> {
        StoreRef {
            guard: self.kernel.read_state(),
        }
    }

    /// The store (mutable access, for direct population in
    /// tests/benches; behind the kernel's state write lock).
    pub fn store_mut(&mut self) -> StoreRefMut<'_> {
        StoreRefMut {
            guard: self.kernel.write_state(),
        }
    }

    /// The options.
    pub fn options(&self) -> DbOptions {
        self.options.clone()
    }

    /// Replaces the options wholesale; takes effect on the next query.
    /// (Recovery uses this to replay logged queries with the optimizer
    /// and limits off, then restores the caller's options.) Options are
    /// per-handle: sessions and other handles on the same kernel keep
    /// their own.
    pub fn set_options(&mut self, options: DbOptions) {
        self.options = options;
    }

    /// The registered definitions, in registration order.
    pub fn definitions(&self) -> Vec<Definition> {
        self.kernel.read_state().defs.clone()
    }

    pub(crate) fn durable_handle(
        &self,
    ) -> Option<Arc<std::sync::Mutex<crate::durable::DurableLog>>> {
        self.kernel.durable_handle()
    }

    pub(crate) fn set_durable_handle(
        &mut self,
        handle: Arc<std::sync::Mutex<crate::durable::DurableLog>>,
    ) {
        self.kernel.set_durable_handle(handle);
    }

    /// The telemetry handles (registry, counters, histograms).
    pub fn metrics(&self) -> &DbMetrics {
        self.kernel.metrics()
    }

    /// Prometheus-style text exposition of every registered series —
    /// the `:metrics` REPL command.
    pub fn metrics_text(&self) -> String {
        self.metrics().registry().render_prometheus()
    }

    /// A fresh [`Governor`] built from [`DbOptions::limits`], wired to
    /// this database's telemetry. Every internally created governor
    /// comes from here, so charges and trips always land in the
    /// registry; callers wanting session-wide budgets can take one and
    /// pass it to [`Database::run`] through [`RunArgs::governor`].
    pub fn governor(&self) -> Governor {
        Governor::new(self.options.limits).with_metrics(self.metrics().governor.clone())
    }

    /// Registers `define …;` forms. Each definition is type-checked,
    /// elaborated, and effect-annotated before being added to scope.
    pub fn define(&mut self, src: &str) -> Result<(), DbError> {
        self.kernel.define(&self.options, src).map(|_| ())
    }

    /// Parses, resolves, elaborates, and effect-checks a query without
    /// running it. Returns the elaborated query, its type, and its
    /// inferred effect.
    pub fn prepare(&self, src: &str) -> Result<(Query, Type, Effect), DbError> {
        let state = self.kernel.read_state();
        self.kernel
            .prepare_in(&self.options, &state, src, &mut Tracer::off())
    }

    /// Runs a query end-to-end with every per-call argument defaulted:
    /// `run(src, RunArgs::default())`.
    pub fn query(&mut self, src: &str) -> Result<QueryResult, DbError> {
        self.run(src, RunArgs::default())
    }

    /// Runs a query end-to-end — the embedded handle's one entry point.
    /// `args` carries the per-call choices, each defaulted: the
    /// `(ND comp)` strategy ([`FirstChooser`]), the governor (a fresh
    /// one built from [`DbOptions::limits`]; pass your own to keep its
    /// [`CancelToken`](ioql_eval::CancelToken) or meter many calls with
    /// one budget), and the trace ID stamped into the query's record.
    ///
    /// Failure atomicity: if evaluation fails (or panics) after the
    /// query started mutating the store via `new`, the store is rolled
    /// back to its pre-query snapshot — a query is all-or-nothing. A
    /// panic in either engine is contained and surfaced as
    /// [`DbError::Internal`]; the database stays usable.
    pub fn run(&mut self, src: &str, args: RunArgs<'_>) -> Result<QueryResult, DbError> {
        let fresh;
        let governor = match args.governor {
            Some(g) => g,
            None => {
                fresh = self.governor();
                &fresh
            }
        };
        let mut first = FirstChooser;
        let chooser = args.chooser.unwrap_or(&mut first);
        self.kernel.run_query(
            &self.options,
            src,
            chooser,
            governor,
            ExecMode::Exclusive,
            args.trace_id,
            None,
        )
    }

    /// The query flight recorder, when one is attached
    /// ([`DbOptions::trace_capacity`] > 0 at construction). All handles
    /// over the same kernel — sessions, the server, the observability
    /// listener — share this recorder.
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.kernel.recorder()
    }

    /// The last `n` flight-recorder trace records, oldest first. Empty
    /// when recording is off ([`DbOptions::trace_capacity`] = 0).
    pub fn traces_last(&self, n: usize) -> Vec<TraceRecord> {
        self.kernel
            .recorder()
            .map(|r| r.last(n))
            .unwrap_or_default()
    }

    /// The flight-recorder record with the given sequence number, if it
    /// is still in the ring.
    pub fn trace_by_seq(&self, seq: u64) -> Option<TraceRecord> {
        self.kernel.recorder().and_then(|r| r.by_seq(seq))
    }

    /// Hit/miss/occupancy counters of the query-result cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.kernel
            .cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .stats()
    }

    /// Runs a full program (definitions + query) against a *clone* of the
    /// store, leaving the database unchanged; returns the result and the
    /// final store.
    pub fn run_program(&self, src: &str) -> Result<(QueryResult, Store), DbError> {
        let started = Instant::now();
        let program = parse_program(src)?;
        let resolved = self.schema().resolve_program(&program);
        let checked =
            ioql_types::check_program(self.schema(), &resolved, self.options.type_options)?;
        let state = self.kernel.read_state();
        let eenv = self.kernel.effect_env_in(Discipline::permissive(), &state);
        let inferred = ioql_effects::infer_program(&eenv, &checked.program)?;
        let cfg = self.kernel.eval_config(&self.options);
        let defs = DefEnv::from_program(&checked.program);
        let mut store = state.store.clone();
        drop(state);
        let out = evaluate(
            &cfg,
            &defs,
            &mut store,
            &checked.program.query,
            &mut FirstChooser,
            self.options.max_steps,
        )?;
        Ok((
            QueryResult {
                value: out.value,
                ty: checked.ty,
                static_effect: inferred.effect,
                runtime_effect: out.effect,
                steps: out.steps,
                cached: false,
                elapsed: started.elapsed(),
                wait: Duration::ZERO,
                admitted: None,
            },
            store,
        ))
    }

    /// Static analysis of a query: type, effect, functional-ness, the
    /// `⊢'` determinism verdict, and per-operator commutation verdicts.
    pub fn analyze(&self, src: &str) -> Result<Analysis, DbError> {
        let state = self.kernel.read_state();
        let (elab, ty, effect) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        let det_env = self
            .kernel
            .effect_env_in(Discipline::deterministic(), &state);
        let determinism = infer_query(&det_env, &elab);
        let (deterministic, diagnosis) = match determinism {
            Ok(_) => (true, None),
            Err(EffectError::InterferingComprehension { body_effect }) => (
                false,
                Some(format!(
                    "comprehension body both reads and adds to an extent: {{{body_effect}}}"
                )),
            ),
            Err(e) => (false, Some(e.to_string())),
        };
        let functional = !elab.contains_new()
            && elab.called_defs().iter().all(|d| {
                state
                    .defs
                    .iter()
                    .any(|def| &def.name == d && !def.contains_new())
            });
        let eenv = self.kernel.effect_env_in(Discipline::permissive(), &state);
        let mut commutations = Vec::new();
        collect_commutations(&eenv, &elab, &mut commutations);
        Ok(Analysis {
            ty,
            effect,
            functional,
            deterministic,
            determinism_diagnosis: diagnosis,
            commutations,
        })
    }

    /// Optimizes a query, returning the rewritten query and the applied
    /// rewrites. Statistics are seeded from the *current* extent sizes.
    pub fn optimize(&self, src: &str) -> Result<(Query, Vec<AppliedRewrite>), DbError> {
        let state = self.kernel.read_state();
        let (elab, _, _) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        Ok(self.kernel.optimize_in(&state, &elab))
    }

    /// Renders the physical plan the `Plan` engine would execute for a
    /// query — the chosen operators with cost estimates and the effect
    /// guard licensing each choice — or, when the Theorem 7 guard
    /// refuses (or the root shape has no physical operator), a
    /// diagnosis of which condition failed. Respects
    /// [`DbOptions::optimize`], exactly as execution does.
    pub fn explain(&self, src: &str) -> Result<String, DbError> {
        let state = self.kernel.read_state();
        let (mut elab, _, static_effect) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        if self.options.optimize {
            elab = self.kernel.optimize_in(&state, &elab).0;
        }
        let defs = DbKernel::def_env_in(&state);
        if let Some(plan) =
            self.kernel
                .lower_in(&self.options, &state, &elab, &static_effect, &defs)
        {
            return Ok(plan.render());
        }
        Ok(explain_refusal(&elab, &static_effect, &defs))
    }

    /// As [`Database::explain`], but *runs* the plan — against a clone
    /// of the store, under a fresh governor and the canonical
    /// [`FirstChooser`] — and renders per-operator actual rows, calls,
    /// and inclusive wall time next to the cost estimates (the
    /// `:plan analyze` REPL command). The database itself is unchanged;
    /// plan-ineligible queries get the same refusal diagnosis as
    /// `explain`.
    pub fn explain_analyze(&self, src: &str) -> Result<String, DbError> {
        let state = self.kernel.read_state();
        let (mut elab, _, static_effect) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        if self.options.optimize {
            elab = self.kernel.optimize_in(&state, &elab).0;
        }
        let defs = DbKernel::def_env_in(&state);
        let Some(plan) = self
            .kernel
            .lower_in(&self.options, &state, &elab, &static_effect, &defs)
        else {
            return Ok(explain_refusal(&elab, &static_effect, &defs));
        };
        let governor = self.governor();
        let cfg = self
            .kernel
            .eval_config(&self.options)
            .with_governor(&governor);
        let mut store = state.store.clone();
        drop(state);
        let (result, profile) = ioql_plan::execute_with_profile(
            &plan,
            &cfg,
            &defs,
            &mut store,
            &mut FirstChooser,
            self.options.max_steps,
        )?;
        let rows = match &result.value {
            Value::Set(s) => s.len(),
            _ => 1,
        };
        Ok(format!("{}returned {rows} row(s)\n", profile.render()))
    }

    /// Exhaustively explores every `(ND comp)` order of a query against a
    /// snapshot of the store — the full outcome set of the paper's
    /// non-deterministic relation.
    pub fn explore(&self, src: &str, max_runs: usize) -> Result<Exploration, DbError> {
        let state = self.kernel.read_state();
        let (elab, _, _) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        let cfg = self.kernel.eval_config(&self.options);
        let defs = DbKernel::def_env_in(&state);
        Ok(ioql_eval::explore_outcomes(
            &cfg,
            &defs,
            &state.store,
            &elab,
            self.options.max_steps,
            max_runs,
        ))
    }

    /// Serialises the current store (see `ioql_store::dump`).
    pub fn dump(&self) -> String {
        ioql_store::dump_store(&self.store())
    }

    /// Replaces the current store with one loaded from a dump, validated
    /// against this database's schema. On any error — truncated, corrupt,
    /// or schema-mismatched dump — the in-memory store is untouched.
    ///
    /// With a durable directory attached, a successful load is followed
    /// by an immediate [`Database::checkpoint`]: the loaded dump becomes
    /// the new on-disk baseline (the old log described the *replaced*
    /// store and is folded away).
    pub fn load(&mut self, text: &str) -> Result<(), DbError> {
        let mut loaded = ioql_store::load_store(self.schema(), text)?;
        // A freshly parsed store starts all version counters at 0, which
        // could collide with fingerprints cached against the outgoing
        // store; move every counter strictly past both histories.
        loaded.bump_versions_from(&self.store());
        self.install_loaded(loaded)
    }

    /// Atomically saves the current store to `path` (temp file + fsync +
    /// rename — see [`ioql_store::save_store`]).
    pub fn save_to(&self, path: &std::path::Path) -> Result<(), DbError> {
        ioql_store::save_store(&self.store(), path)?;
        self.metrics().store_saves.inc();
        Ok(())
    }

    /// Replaces the current store with one loaded from a dump file. As
    /// with [`Database::load`], a failed load leaves the store untouched
    /// and a durable database checkpoints the loaded state.
    pub fn load_from(&mut self, path: &std::path::Path) -> Result<(), DbError> {
        let mut loaded = ioql_store::load_store_file(self.schema(), path)?;
        loaded.bump_versions_from(&self.store());
        self.install_loaded(loaded)
    }

    /// Swaps in a loaded store, checkpointing first when durable — and
    /// **rolling the swap back** if the checkpoint fails. Without the
    /// rollback, a failed checkpoint (full disk, yanked directory)
    /// would leave memory ahead of the durable baseline: the session
    /// keeps answering from the loaded store while a crash recovers the
    /// *replaced* one — the worst kind of silent desync. Erroring with
    /// the old store intact keeps the documented contract: on any load
    /// error, the in-memory store is untouched.
    ///
    /// Loads are administrative: run them before handing out sessions,
    /// not concurrently with them.
    fn install_loaded(&mut self, loaded: Store) -> Result<(), DbError> {
        let prev = {
            let mut state = self.kernel.write_state();
            std::mem::replace(&mut state.store, loaded)
        };
        if self.durable_handle().is_some() {
            if let Err(e) = self.checkpoint() {
                self.kernel.write_state().store = prev;
                return Err(e);
            }
        }
        self.metrics().store_loads.inc();
        Ok(())
    }

    /// Records a full reduction trace of a query against a *snapshot* of
    /// the store (the database itself is unchanged) — every rule
    /// application and effect label, ready for rendering.
    pub fn trace(&self, src: &str) -> Result<ioql_eval::Trace, DbError> {
        let state = self.kernel.read_state();
        let (elab, _, _) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        let cfg = self.kernel.eval_config(&self.options);
        let defs = DbKernel::def_env_in(&state);
        let mut store = state.store.clone();
        drop(state);
        Ok(ioql_eval::trace(
            &cfg,
            &defs,
            &mut store,
            &elab,
            &mut FirstChooser,
            self.options.max_steps,
        ))
    }

    /// As [`Database::explore`], but partitioning the reduction tree at
    /// the first choice point across worker threads. Same outcome set;
    /// useful when the extent sizes push the factorial enumeration into
    /// seconds.
    pub fn explore_parallel(
        &self,
        src: &str,
        max_runs: usize,
        threads: usize,
    ) -> Result<Exploration, DbError> {
        let state = self.kernel.read_state();
        let (elab, _, _) =
            self.kernel
                .prepare_in(&self.options, &state, src, &mut Tracer::off())?;
        let cfg = self.kernel.eval_config(&self.options);
        let defs = DbKernel::def_env_in(&state);
        Ok(ioql_eval::explore_outcomes_parallel(
            &cfg,
            &defs,
            &state.store,
            &elab,
            self.options.max_steps,
            max_runs,
            threads,
        ))
    }

    /// Number of objects currently in extent `e` (0 if undeclared).
    pub fn extent_len(&self, e: &str) -> usize {
        self.store()
            .extents
            .members(&ioql_ast::ExtentName::new(e))
            .map(|s| s.len())
            .unwrap_or(0)
    }
}

/// The shared `explain`/`explain_analyze` diagnosis of why a query has
/// no physical plan.
fn explain_refusal(elab: &Query, static_effect: &Effect, defs: &DefEnv) -> String {
    let yes_no = |b: bool| if b { "yes" } else { "no" };
    let defs_ok = elab.called_defs().iter().all(|d| {
        defs.get(d)
            .is_some_and(|def| !def.body.contains_new() && !def.body.contains_invoke())
    });
    let guard_holds =
        static_effect.is_read_only() && !elab.contains_new() && !elab.contains_invoke() && defs_ok;
    format!(
        "no physical plan — the interpreter executes this query\n  \
         Thm 7 guard:\n    \
         effect {{{static_effect}}} read-only: {}\n    \
         `new`-free: {}\n    \
         invocation-free: {}\n    \
         called defs pure: {}\n  \
         root shape has a physical operator: {}\n",
        yes_no(static_effect.is_read_only()),
        yes_no(!elab.contains_new()),
        yes_no(!elab.contains_invoke()),
        yes_no(defs_ok),
        // The guard held but `lower` still declined ⇒ shape.
        if guard_holds {
            "no"
        } else {
            "not evaluated (guard failed)"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDL: &str = "
        class Person extends Object (extent Persons) {
            attribute int name;
            attribute int age;
            int Doubled() { return this.age * 2; }
        }
        class Employee extends Person (extent Employees) {
            attribute int salary;
        }";

    fn db() -> Database {
        let mut db = Database::from_ddl(DDL).unwrap();
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
            .unwrap();
        db
    }

    #[test]
    fn end_to_end_query() {
        let mut db = db();
        let r = db.query("{ p.age | p <- Persons, p.name < 3 }").unwrap();
        assert_eq!(r.value, Value::set([Value::Int(21), Value::Int(22)]));
        assert_eq!(r.ty, Type::set(Type::Int));
        assert!(r.runtime_effect.subeffect(&r.static_effect));
        assert!(r.steps > 0);
        // The embedded handle bypasses admission entirely.
        assert_eq!(r.admitted, None);
    }

    #[test]
    fn method_invocation_through_pipeline() {
        let mut db = db();
        let r = db.query("{ p.Doubled() | p <- Persons }").unwrap();
        assert_eq!(
            r.value,
            Value::set([Value::Int(42), Value::Int(44), Value::Int(46)])
        );
    }

    #[test]
    fn definitions_registered_and_used() {
        let mut db = db();
        db.define("define adults(min: int) as { p | p <- Persons, min <= p.age };")
            .unwrap();
        let r = db.query("size(adults(22))").unwrap();
        assert_eq!(r.value, Value::Int(2));
        // Latent effect surfaced.
        let a = db.analyze("adults(0)").unwrap();
        assert!(a.effect.reads.contains(&ioql_ast::ClassName::new("Person")));
    }

    #[test]
    fn analyze_flags_interference() {
        let db = db();
        let a = db
            .analyze(
                "{ if size(Employees) = 0 \
                   then (new Employee(name: 0, age: 0, salary: 1)).salary \
                   else p.age | p <- Persons }",
            )
            .unwrap();
        assert!(!a.deterministic);
        assert!(a.determinism_diagnosis.is_some());
        assert!(!a.functional);
        // A clean scan is deterministic and functional.
        let b = db.analyze("{ p.age | p <- Persons }").unwrap();
        assert!(b.deterministic && b.functional);
    }

    #[test]
    fn commutation_verdicts() {
        let db = db();
        let a = db.analyze("Persons union { e | e <- Employees }").unwrap();
        assert_eq!(a.commutations.len(), 1);
        assert!(a.commutations[0].safe);
        let b = db
            .analyze(
                "Employees union \
                 { new Employee(name: 9, age: 9, salary: 9) | x <- {1} }",
            )
            .unwrap();
        assert_eq!(b.commutations.len(), 1);
        assert!(!b.commutations[0].safe);
    }

    #[test]
    fn run_program_does_not_mutate_db() {
        let db = db();
        let before = db.extent_len("Persons");
        let (r, store_after) = db
            .run_program(
                "define mk() as new Person(name: 99, age: 99); \
                 size({ mk() | x <- {1, 2} })",
            )
            .unwrap();
        assert_eq!(r.value, Value::Int(2));
        assert_eq!(db.extent_len("Persons"), before);
        assert_eq!(
            store_after
                .extents
                .members(&ioql_ast::ExtentName::new("Persons"))
                .unwrap()
                .len(),
            before + 2
        );
    }

    #[test]
    fn require_deterministic_mode_rejects() {
        let opts = DbOptions {
            require_deterministic: true,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query("{ new Person(name: 1, age: 1) | n <- {1} }")
            .unwrap();
        let r = db.query(
            "{ if size(Persons) = 1 then 1 else (new Person(name: 2, age: 2)).age \
             | n <- {1, 2} }",
        );
        assert!(matches!(r, Err(DbError::Effect(_))));
    }

    #[test]
    fn optimizer_integration() {
        let mut db = db();
        db.query("{ new Employee(name: n, age: n, salary: n) | n <- {1} }")
            .unwrap();
        let (q, applied) = db
            .optimize("{ p.age + e.age | p <- Persons, e <- Employees, p.age < 22 }")
            .unwrap();
        assert!(applied.iter().any(|r| r.rule == "promote-predicates"));
        let _ = q;
    }

    #[test]
    fn explore_integration() {
        let db = db();
        let ex = db.explore("{ p.name | p <- Persons }", 10_000).unwrap();
        assert_eq!(ex.runs.len(), 6); // 3! orders
        assert_eq!(ex.distinct_outcomes().len(), 1);
    }

    #[test]
    fn plan_engine_runs_and_falls_back() {
        let opts = DbOptions {
            engine: Engine::Plan,
            cache_capacity: 0,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        // A mutating query is ineligible: the big-step fallback runs it.
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
            .unwrap();
        assert_eq!(db.extent_len("Persons"), 3);
        // An eligible selective scan runs on the plan executor.
        let r = db.query("{ p.age | p <- Persons, p.name = 2 }").unwrap();
        assert_eq!(r.value, Value::set([Value::Int(22)]));
        assert_eq!(r.steps, 0);
        assert!(r.runtime_effect.subeffect(&r.static_effect));
    }

    #[test]
    fn explain_renders_plans_and_diagnoses_refusals() {
        // Pinned to the interpreted tier: with compilation on (e.g. the
        // CI pass that exports IOQL_COMPILE=1), a compiled Filter costs
        // less than the index build + probe and the cost model rightly
        // stops picking HashIndexProbe for this tiny extent.
        let opts = DbOptions {
            compile: false,
            ..DbOptions::default()
        };
        let mut db = Database::from_ddl_with(DDL, opts).unwrap();
        db.query("{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }")
            .unwrap();
        // Enough rows that the cost model picks the index over the scan.
        db.query("{ new Person(name: n, age: n) | n <- {4, 5, 6, 7, 8, 9} }")
            .unwrap();
        let plan = db.explain("{ p | p <- Persons, p.name = 2 }").unwrap();
        assert!(plan.contains("HashIndexProbe"), "{plan}");
        assert!(plan.contains("ExtentScan"), "{plan}");
        assert!(plan.contains("Thm 7"), "{plan}");
        let refused = db
            .explain("{ (new Person(name: 9, age: 9)).age | n <- {1} }")
            .unwrap();
        assert!(refused.contains("no physical plan"), "{refused}");
        assert!(refused.contains("`new`-free: no"), "{refused}");
        let shape = db.explain("size(Persons)").unwrap();
        assert!(
            shape.contains("root shape has a physical operator: no"),
            "{shape}"
        );
    }

    #[test]
    fn type_errors_surface() {
        let mut db = db();
        assert!(matches!(db.query("1 + true"), Err(DbError::Type(_))));
        assert!(matches!(db.query("1 +"), Err(DbError::Parse(_))));
        assert!(matches!(
            db.query("{ p.ghost | p <- Persons }"),
            Err(DbError::Type(_))
        ));
    }

    #[test]
    fn tracer_runs_only_when_the_record_has_a_consumer() {
        // Nothing consumes a record: no tracer, so no tracer clock.
        assert!(!Database::from_ddl(DDL).unwrap().kernel().tracing);
        for opts in [
            DbOptions {
                telemetry: true,
                ..DbOptions::default()
            },
            DbOptions {
                trace_capacity: 1,
                ..DbOptions::default()
            },
        ] {
            assert!(Database::from_ddl_with(DDL, opts).unwrap().kernel().tracing);
        }
    }

    #[test]
    fn clone_is_state_deep_and_plumbing_shallow() {
        let mut a = db();
        let mut b = a.clone();
        b.query("{ new Person(name: 9, age: 9) | n <- {1} }")
            .unwrap();
        // The clone mutated its own store only…
        assert_eq!(a.extent_len("Persons"), 3);
        assert_eq!(b.extent_len("Persons"), 4);
        // …while the telemetry registry is shared (same Arc).
        assert!(
            Arc::ptr_eq(
                &Arc::new(a.metrics().registry().render_prometheus()),
                &Arc::new(b.metrics().registry().render_prometheus())
            ) || a.metrics().registry().render_prometheus()
                == b.metrics().registry().render_prometheus()
        );
        let _ = a.query("size(Persons)").unwrap();
    }
}
