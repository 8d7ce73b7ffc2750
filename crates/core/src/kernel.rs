//! The shared database kernel.
//!
//! [`Database`](crate::Database) used to be a 1.4k-line monolith owning
//! schema, store, defs, cache, metrics, and the durable log in one
//! mutable struct — architecturally single-caller. This module is the
//! tentpole of the split: **`DbKernel`** owns all of that state behind
//! interior sharing (an `RwLock` over the mutable `KernelState`, a
//! `Mutex` over the query cache, the durable-log handle), so one kernel
//! can be shared by the embedded [`Database`](crate::Database) facade,
//! any number of [`Session`](crate::Session) handles, and the TCP
//! server ([`crate::server`]) — all at once.
//!
//! Queries enter through `DbKernel::run_query` in one of two modes:
//!
//! * `ExecMode::Exclusive` — the embedded facade's path: the whole
//!   pipeline runs under the state write lock against the live store,
//!   exactly as the monolith did. Zero observable change for existing
//!   callers; the admission counters do not tick.
//! * `ExecMode::Admission` — the session path, scheduled by the
//!   admission controller ([`crate::sched`]): the query is prepared
//!   under the state *read* lock, and its inferred effect decides
//!   whether it runs concurrently against a version-stamped snapshot
//!   (write-free queries — Theorem 7's guard) or serializes on the
//!   write lock with a named interference witness.
//!
//! ## Lock discipline
//!
//! Three locks, always acquired in this order and never reversed:
//! **state → cache → durable**. The scheduler's internal mutex is a
//! leaf — never held while acquiring any other lock. The snapshot path
//! holds *no* state lock while executing, which is the whole point:
//! readers spine-clone the copy-on-write store under the read lock
//! (`O(chunks)`, not `O(objects)` — see `ioql_store::env`), drop the
//! lock, and evaluate on the frozen snapshot while writers proceed by
//! path-copying only the chunks they touch.

use crate::cache::{CacheEntry, QueryCache};
use crate::database::{DbMetrics, DbOptions, Engine, QueryResult};
use crate::durable::DurableLog;
use crate::error::DbError;
use crate::sched::{Admitted, Sched};
use ioql_ast::{DefName, Definition, FnType, Program, Query, Type, Value};
use ioql_effects::{effect_extents, infer_query, Discipline, Effect, EffectEnv, MethodEffects};
use ioql_eval::{
    eval_big, evaluate, Chooser, CountingChooser, DefEnv, EvalConfig, Governor, RecordingChooser,
};
use ioql_opt::{optimize as run_optimizer, AppliedRewrite, OptOptions, Stats};
use ioql_schema::Schema;
use ioql_store::{Durability, Store, WalPayload};
use ioql_syntax::parse_definitions;
use ioql_telemetry::{EventSink, FlightRecorder, TraceRecord, Tracer};
use ioql_types::{check_query, TypeEnv};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

/// The mutable half of the kernel: everything a committed query or
/// definition can change. Guarded by one `RwLock`; cloned wholesale to
/// give a concurrently-admitted reader its snapshot.
#[derive(Clone, Debug)]
pub(crate) struct KernelState {
    pub(crate) store: Store,
    pub(crate) defs: Vec<Definition>,
    pub(crate) def_types: BTreeMap<DefName, FnType>,
    pub(crate) def_effects: BTreeMap<DefName, (FnType, Effect)>,
}

/// Which path a query takes through the kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum ExecMode {
    /// The embedded facade: state write lock for the whole pipeline,
    /// live store, no admission stamp.
    Exclusive,
    /// The session path: effect-scheduled by the admission controller;
    /// results carry an [`Admitted`] stamp.
    Admission,
}

/// The shared kernel: schema + defs + store + cache + durable log
/// behind interior sharing, plus the admission controller. One kernel,
/// many handles — see the module docs.
pub struct DbKernel {
    pub(crate) schema: Schema,
    pub(crate) method_effects: MethodEffects,
    pub(crate) state: RwLock<KernelState>,
    pub(crate) cache: Mutex<QueryCache>,
    pub(crate) metrics: DbMetrics,
    pub(crate) sink: Option<Arc<EventSink>>,
    pub(crate) recorder: Option<Arc<FlightRecorder>>,
    /// Whether queries run a live [`Tracer`]: true when anything
    /// consumes the finished record — a ring, the metrics registry, or
    /// a JSONL sink.
    pub(crate) tracing: bool,
    pub(crate) durable: RwLock<Option<Arc<Mutex<DurableLog>>>>,
    pub(crate) sched: Sched,
}

impl std::fmt::Debug for DbKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DbKernel")
            .field("schema", &self.schema)
            .field("sched", &self.sched)
            .finish_non_exhaustive()
    }
}

fn read_lock<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    // Engine panics are contained by `catch_unwind` before they can
    // cross a guard, so poisoning here means a bug outside the eval
    // path; the state was either rolled back or untouched — keep going.
    lock.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(|e| e.into_inner())
}

impl DbKernel {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        schema: Schema,
        method_effects: MethodEffects,
        state: KernelState,
        cache: QueryCache,
        metrics: DbMetrics,
        sink: Option<Arc<EventSink>>,
        recorder: Option<Arc<FlightRecorder>>,
        durable: Option<Arc<Mutex<DurableLog>>>,
    ) -> DbKernel {
        let tracing = recorder.is_some() || sink.is_some() || metrics.registry().is_enabled();
        DbKernel {
            schema,
            method_effects,
            state: RwLock::new(state),
            cache: Mutex::new(cache),
            metrics,
            sink,
            recorder,
            tracing,
            durable: RwLock::new(durable),
            sched: Sched::new(),
        }
    }

    /// The schema (immutable for the kernel's lifetime).
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The query flight recorder, when one is attached
    /// (`DbOptions::trace_capacity > 0` at construction).
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
    }

    /// The telemetry handles.
    pub fn metrics(&self) -> &DbMetrics {
        &self.metrics
    }

    /// The admission controller's live state (for `:stats` and tests):
    /// `(committed writers, in-flight readers, max simultaneous
    /// readers, recent serialization witnesses)`.
    pub fn sched_snapshot(&self) -> (u64, usize, u64, Vec<String>) {
        (
            self.sched.commit_seq(),
            self.sched.inflight_readers(),
            self.sched.max_inflight_readers(),
            self.sched.recent_witnesses(),
        )
    }

    pub(crate) fn read_state(&self) -> RwLockReadGuard<'_, KernelState> {
        read_lock(&self.state)
    }

    pub(crate) fn write_state(&self) -> RwLockWriteGuard<'_, KernelState> {
        write_lock(&self.state)
    }

    pub(crate) fn durable_handle(&self) -> Option<Arc<Mutex<DurableLog>>> {
        read_lock(&self.durable).clone()
    }

    pub(crate) fn set_durable_handle(&self, handle: Arc<Mutex<DurableLog>>) {
        *write_lock(&self.durable) = Some(handle);
    }

    pub(crate) fn wal_active(&self, opts: &DbOptions) -> bool {
        opts.durability != Durability::Off && read_lock(&self.durable).is_some()
    }

    // ------------------------------------------------------------------
    // Environments (parameterized by a state borrow, not `self` fields).
    // ------------------------------------------------------------------

    pub(crate) fn type_env_in<'a>(&'a self, opts: &DbOptions, state: &KernelState) -> TypeEnv<'a> {
        let mut env = TypeEnv::with_options(&self.schema, opts.type_options);
        env.defs = state.def_types.clone();
        env
    }

    pub(crate) fn effect_env_in<'a>(
        &'a self,
        discipline: Discipline,
        state: &KernelState,
    ) -> EffectEnv<'a> {
        let mut env = EffectEnv::new(&self.schema)
            .with_discipline(discipline)
            .with_method_effects(self.method_effects.clone());
        env.defs = state.def_effects.clone();
        env
    }

    pub(crate) fn eval_config<'a>(&'a self, opts: &DbOptions) -> EvalConfig<'a> {
        EvalConfig::new(&self.schema)
            .with_method_mode(opts.method_mode)
            .with_method_fuel(opts.method_fuel)
    }

    pub(crate) fn def_env_in(state: &KernelState) -> DefEnv {
        let mut de = DefEnv::new();
        for d in &state.defs {
            de.insert(d.clone());
        }
        de
    }

    /// Catalogue statistics seeded from the current extent sizes —
    /// shared by the optimizer's and the plan lowering's cost models.
    pub(crate) fn stats_in(store: &Store) -> Stats {
        let mut stats = Stats::new();
        for (e, _, members) in store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        stats
    }

    /// Parses, resolves, elaborates, and effect-checks a query without
    /// running it. The tracer (a no-op unless something consumes the
    /// query's record) gets one span per phase; spans left open by an
    /// early error are closed when the trace is sealed.
    pub(crate) fn prepare_in(
        &self,
        opts: &DbOptions,
        state: &KernelState,
        src: &str,
        tracer: &mut Tracer,
    ) -> Result<(Query, Type, Effect), DbError> {
        let sp = tracer.begin("parse", "");
        let raw = ioql_syntax::parse_query(src)?;
        let resolved = self.schema.resolve_query(&raw);
        tracer.end(sp);
        let sp = tracer.begin("typecheck", "");
        let tenv = self.type_env_in(opts, state);
        let (elab, ty) = check_query(&tenv, &resolved)?;
        tracer.end_with(sp, || Some(ty.to_string()));
        let discipline = if opts.require_deterministic {
            Discipline::deterministic()
        } else {
            Discipline::permissive()
        };
        let sp = tracer.begin("effect-infer", "");
        let eenv = self.effect_env_in(discipline, state);
        let (ty2, eff) = infer_query(&eenv, &elab)?;
        tracer.end_with(sp, || Some(format!("effect {{{eff}}}")));
        debug_assert_eq!(ty, ty2, "Figure 1 and Figure 3 disagree on a type");
        Ok((elab, ty, eff))
    }

    pub(crate) fn optimize_in(
        &self,
        state: &KernelState,
        elab: &Query,
    ) -> (Query, Vec<AppliedRewrite>) {
        let stats = DbKernel::stats_in(&state.store);
        let program = Program::new(state.defs.clone(), elab.clone());
        let (optimized, applied) =
            run_optimizer(&self.schema, &program, stats, OptOptions::default());
        (optimized.query, applied)
    }

    /// Lowers a prepared query to a physical plan under the configured
    /// parallelism — shared by execution, `explain`, and
    /// `explain analyze` so the plan the user sees is the plan that
    /// runs.
    pub(crate) fn lower_in(
        &self,
        opts: &DbOptions,
        state: &KernelState,
        elab: &Query,
        static_effect: &Effect,
        defs: &DefEnv,
    ) -> Option<ioql_plan::Plan> {
        let branch_effect = |q: &Query| {
            let eenv = self.effect_env_in(Discipline::permissive(), state);
            infer_query(&eenv, q).ok().map(|(_, eff)| eff)
        };
        let spec = ioql_plan::ParSpec {
            parallelism: opts.parallelism,
            compile: opts.compile,
            schema: Some(&self.schema),
            branch_effect: Some(&branch_effect),
        };
        ioql_plan::lower_with(
            elab,
            static_effect,
            defs,
            &DbKernel::stats_in(&state.store),
            &spec,
        )
    }

    // ------------------------------------------------------------------
    // The query path.
    // ------------------------------------------------------------------

    /// Runs a query end-to-end: trace, mode dispatch, elapsed stamp,
    /// record export. The single entry point for the facade, sessions,
    /// and the durable-replay path. `trace_id` is the caller's
    /// correlation ID (wire clients send `trace=ID`), `session` the
    /// session label — both stamped into the query's trace record, and
    /// both ignored when nothing consumes it.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_query(
        &self,
        opts: &DbOptions,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        mode: ExecMode,
        trace_id: Option<&str>,
        session: Option<&str>,
    ) -> Result<QueryResult, DbError> {
        // Read unconditionally so the telemetry flag cannot shift
        // behaviour: this instant starts `QueryResult::elapsed` and, when
        // tracing, the record's clock. The governor keeps its own
        // deadline clock.
        let started = Instant::now();
        self.metrics.queries.inc();
        // The tracer is write-only from the pipeline's view (the
        // transparency guard extends to recording): when nothing
        // consumes the record every tracer call is one `Option` branch,
        // no verdict string is built, and no extra clock is read.
        let mut tracer = if self.tracing {
            Tracer::start(
                started,
                src,
                trace_id.map(String::from),
                session.map(String::from),
            )
        } else {
            Tracer::off()
        };
        let mut result = self.run_query_inner(opts, src, chooser, governor, mode, &mut tracer);
        let error = tracer
            .is_on()
            .then(|| result.as_ref().err().map(|e| e.to_string()))
            .flatten();
        let elapsed = match tracer.finish(result.is_ok(), error) {
            Some(record) => {
                let total = Duration::from_nanos(record.total_ns);
                self.export(opts, record);
                total
            }
            None => started.elapsed(),
        };
        if let Ok(r) = result.as_mut() {
            r.elapsed = elapsed;
        }
        result
    }

    /// Hands a finished record to every consumer: the phase and
    /// scheduler histograms, the flight-recorder ring, and the JSONL
    /// sink (span pair, counter snapshot, and — past
    /// `DbOptions::slow_query_ms` — the record as a `slow_query` event).
    fn export(&self, opts: &DbOptions, mut record: TraceRecord) {
        self.metrics.observe_record(&record);
        if let Some(ring) = &self.recorder {
            ring.stamp(&mut record);
        }
        if let Some(sink) = &self.sink {
            sink.export(&record, self.metrics.registry(), opts.slow_query_ms);
        }
        if let Some(ring) = &self.recorder {
            ring.push(record);
        }
    }

    fn run_query_inner(
        &self,
        opts: &DbOptions,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        mode: ExecMode,
        tracer: &mut Tracer,
    ) -> Result<QueryResult, DbError> {
        match mode {
            ExecMode::Exclusive => {
                // Unconditional clock read, like `elapsed`: `wait` is an
                // observable on every result, not a telemetry artifact.
                let lock_started = Instant::now();
                let sp = tracer.begin("lock-acquire", "state-write");
                let mut state = self.write_state();
                tracer.end(sp);
                let wait = lock_started.elapsed();
                tracer.set_wait_ns(wait.as_nanos().min(u64::MAX as u128) as u64);
                let (elab, ty, eff) = self.prepare_in(opts, &state, src, tracer)?;
                let (mut r, _) = self.execute_in(
                    opts, &mut state, elab, ty, eff, chooser, governor, true, tracer,
                )?;
                r.wait = wait;
                Ok(r)
            }
            ExecMode::Admission => self.run_admitted(opts, src, chooser, governor, tracer),
        }
    }

    /// The admission-controlled path: prepare under the read lock, let
    /// the inferred effect pick the schedule.
    fn run_admitted(
        &self,
        opts: &DbOptions,
        src: &str,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        tracer: &mut Tracer,
    ) -> Result<QueryResult, DbError> {
        let wait_started = Instant::now();
        let wait_sp = tracer.begin("sched-wait", "");
        let lock_sp = tracer.begin("lock-acquire", "state-read");
        let state = self.read_state();
        tracer.end(lock_sp);
        let (elab, ty, eff) = self.prepare_in(opts, &state, src, tracer)?;
        // Theorem 7's guard, at query granularity: a write-free (no
        // `A(C)`, no `U(C)`) and `new`-free query cannot interfere with
        // any other such query — two read-only effects never produce an
        // interference witness. The effect check is the sound one; the
        // syntactic `new` checks are belt-and-braces, mirroring the
        // cacheability guard.
        let write_free = eff.adds.is_empty()
            && eff.updates.is_empty()
            && !elab.contains_new()
            && elab.called_defs().iter().all(|d| {
                state
                    .defs
                    .iter()
                    .any(|def| &def.name == d && !def.contains_new())
            });
        if write_free {
            // Register in the scheduler and clone the snapshot while
            // still holding the read lock: no writer can commit between
            // the stamp and the clone, so the snapshot reflects exactly
            // `snapshot_seq` commits. The store's environments are
            // chunked copy-on-write structures, so the clone copies only
            // the chunk spines — admission cost is O(chunks), not
            // O(objects) — and every chunk stays shared until a writer
            // path-copies it.
            let snap_sp = tracer.begin("snapshot-acquire", "");
            let (rid, snapshot_seq) = self.sched.admit_reader(&eff);
            let mut snapshot = state.clone();
            let shared = snapshot.store.chunk_count();
            tracer.end_with(snap_sp, || {
                Some(format!("seq={snapshot_seq} chunks_shared={shared}"))
            });
            drop(state);
            self.metrics.snapshot_chunks_shared.add(shared);
            self.metrics.sched.admitted.inc();
            let waited = wait_started.elapsed();
            tracer.set_wait_ns(waited.as_nanos().min(u64::MAX as u128) as u64);
            tracer.end_with(wait_sp, || {
                Some(format!(
                    "admitted: {}",
                    Admitted::Concurrent { snapshot_seq }
                ))
            });
            let result = self.execute_in(
                opts,
                &mut snapshot,
                elab,
                ty,
                eff,
                chooser,
                governor,
                false,
                tracer,
            );
            self.sched.finish_reader(rid);
            result.map(|(mut r, _)| {
                r.admitted = Some(Admitted::Concurrent { snapshot_seq });
                r.wait = waited;
                r
            })
        } else {
            drop(state);
            // Refused concurrency: name the interfering atom pair
            // (against a live reader if one is in flight) and serialize
            // on the write lock in arrival order.
            let witness = self.sched.writer_witness(&eff, &self.schema);
            self.metrics.sched.serialized.inc();
            self.metrics.sched.witnesses.inc();
            let lock_sp = tracer.begin("lock-acquire", "state-write");
            let mut state = self.write_state();
            tracer.end(lock_sp);
            let waited = wait_started.elapsed();
            tracer.set_wait_ns(waited.as_nanos().min(u64::MAX as u128) as u64);
            tracer.end_with(wait_sp, || {
                Some(format!(
                    "admitted: serialized witness=({}, {})",
                    witness.0, witness.1
                ))
            });
            // Prepared under the read lock, executed under the write
            // lock: sound because elaboration depends only on the
            // schema (fixed) and the def catalogue (append-only, and a
            // redefinition is rejected at `define` time).
            let (mut r, seq) = self.execute_in(
                opts, &mut state, elab, ty, eff, chooser, governor, true, tracer,
            )?;
            r.admitted = Some(Admitted::Serialized {
                // A statically-mutating query always commits on success
                // (`commit=true` above), so the stamp is present; 0 is
                // unreachable but harmless.
                commit_seq: seq.unwrap_or(0),
                witness,
            });
            r.wait = waited;
            Ok(r)
        }
    }

    /// The pipeline from prepared query to result, against `state` —
    /// either the live state (under the caller's write guard,
    /// `commit=true`) or a reader's snapshot (`commit=false`). Faithful
    /// to the monolith's ordering: WAL gate → choosers → cache → read
    /// fingerprint → optimize → rollback snapshot → lower → execute →
    /// rollback/ack/insert. Returns the result plus the commit sequence
    /// stamp when a live mutation committed.
    #[allow(clippy::too_many_arguments)]
    fn execute_in(
        &self,
        opts: &DbOptions,
        state: &mut KernelState,
        mut elab: Query,
        ty: Type,
        static_effect: Effect,
        chooser: &mut dyn Chooser,
        governor: &Governor,
        commit: bool,
        tracer: &mut Tracer,
    ) -> Result<(QueryResult, Option<u64>), DbError> {
        // The write-ahead-log gate: only queries the effect system says
        // can write (`A(C)`/`U(C)` non-empty) are logged — Theorem 7
        // write-free queries have nothing to persist and skip the log.
        let mutating = !static_effect.adds.is_empty() || !static_effect.updates.is_empty();
        let wal_active = self.wal_active(opts);
        let log_this = mutating && wal_active && commit;
        if wal_active && !mutating {
            self.metrics.wal_skipped_effect.inc();
        }
        // Record the draw trace for the log (active only when this
        // commit will be logged — inactive recording is transparent
        // delegation), and count draws without touching them: both
        // wrappers delegate every pick to the caller's chooser
        // unchanged.
        let mut recording = RecordingChooser::new(chooser, log_this);
        let mut chooser = CountingChooser::new(&mut recording, self.metrics.chooser_draws.clone());
        let chooser: &mut dyn Chooser = &mut chooser;
        // Theorem 7 guard: only `new`-free queries with no `A(C)` (and,
        // for the §5 extension, no `U(C)`) are deterministic, hence
        // memoizable.
        let cacheable = opts.cache_capacity > 0
            && static_effect.is_read_only()
            && !elab.contains_new()
            && elab.called_defs().iter().all(|d| {
                state
                    .defs
                    .iter()
                    .any(|def| &def.name == d && !def.contains_new())
            });
        // Key on the *pre-optimization* elaborated query: the optimizer's
        // output drifts with catalogue statistics, the elaborated form
        // does not.
        let cache_key = cacheable.then(|| elab.clone());
        if !cacheable {
            tracer.note("cache-probe", || {
                let reason = if opts.cache_capacity == 0 {
                    "cache disabled (capacity 0)"
                } else if !static_effect.is_read_only() {
                    "effect not read-only"
                } else {
                    "query or called defs contain `new`"
                };
                (String::new(), format!("ineligible({reason})"))
            });
        }
        if let Some(key) = &cache_key {
            // Validated against `state.store` — the store this query
            // actually runs against. On the snapshot path that is the
            // admitted snapshot, NOT the live store: a hit is only
            // served if the entry's read-set version vector matches the
            // versions this session was admitted on, so a concurrent
            // writer can never leak a too-new value into an old
            // snapshot (see `cache_isolated_from_concurrent_writers`
            // in tests/server.rs).
            let probe_sp = tracer.begin("cache-probe", "");
            let hit = self
                .cache
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .lookup(key, &state.store);
            tracer.end_with(probe_sp, || {
                Some(if hit.is_some() { "hit" } else { "miss" }.to_string())
            });
            if let Some(entry) = hit {
                // A hit still passes through the governor, so the
                // resource-limit contract is engine-identical.
                governor.checkpoint()?;
                governor.charge_cells(entry.cells)?;
                if let Value::Set(s) = &entry.value {
                    governor.observe_set_card(s.len() as u64)?;
                }
                tracer.note("governor", || {
                    (
                        String::new(),
                        format!("cells_delta={} {}", entry.cells, governor.charges_report()),
                    )
                });
                return Ok((
                    QueryResult {
                        value: entry.value,
                        ty,
                        static_effect,
                        runtime_effect: entry.runtime_effect,
                        steps: 0,
                        cached: true,
                        elapsed: Duration::ZERO, // overwritten by the wrapper
                        wait: Duration::ZERO,    // stamped by the caller
                        admitted: None,          // stamped by the caller
                    },
                    None,
                ));
            }
        }
        // Fingerprint the read set *before* evaluation; the Theorem 7
        // guard means evaluation cannot move these counters.
        let read_versions = cache_key.as_ref().map(|_| {
            effect_extents(&self.schema, &static_effect)
                .reads
                .into_iter()
                .map(|e| {
                    let v = state.store.extent_version(&e);
                    (e, v)
                })
                .collect::<BTreeMap<_, _>>()
        });
        let cells_before = governor.cells_spent();
        if opts.optimize {
            let sp = tracer.begin("optimize", "");
            let (optimized, applied) = self.optimize_in(state, &elab);
            tracer.end_with(sp, || Some(format!("{} rewrite(s)", applied.len())));
            elab = optimized;
        }
        // Snapshot only when the query can actually mutate the store —
        // the static effect tells us up front (Theorem 5: the runtime
        // trace is covered by it), so read-only queries pay nothing.
        let rollback = mutating.then(|| state.store.clone());
        // The rollback clone shares every chunk with the live store, so
        // from here each first write to a chunk is an `Arc::make_mut`
        // path copy — the delta at commit is this query's COW work.
        let copied_before = state.store.cow_copied_chunks();
        let eval_metrics = self.metrics.eval.clone();
        let cfg = EvalConfig::new(&self.schema)
            .with_method_mode(opts.method_mode)
            .with_method_fuel(opts.method_fuel)
            .with_governor(governor)
            .with_metrics(&eval_metrics);
        let defs = DbKernel::def_env_in(state);
        let engine = opts.engine;
        let max_steps = opts.max_steps;
        // Lower to a physical plan before taking the store mutably (the
        // lowering reads extent sizes for its cost model). `None` — the
        // Theorem 7 guard refused, or the engine is an interpreter —
        // means the interpreters run the query as before.
        let plan = match engine {
            Engine::Plan => {
                let sp = tracer.begin("lower", "");
                let plan = self.lower_in(opts, state, &elab, &static_effect, &defs);
                tracer.end_with(sp, || {
                    Some(match &plan {
                        Some(_) => "physical plan".to_string(),
                        None => "no plan — interpreter tier".to_string(),
                    })
                });
                plan
            }
            _ => None,
        };
        // Record compile verdicts once per execution (not per `explain`):
        // write-only, like every other counter.
        if let Some(p) = &plan {
            for v in p.compiled.values() {
                match v {
                    ioql_plan::CompileVerdict::Vm(_) => self.metrics.vm.compiles.inc(),
                    ioql_plan::CompileVerdict::Interp(_) => self.metrics.vm.fallbacks.inc(),
                }
            }
        }
        // The verdict bridge: per-node parallel and compile decisions
        // into the trace. Every traced query gets all four verdict
        // kinds — a node-less outcome (interpreter engine, no plan,
        // tiers off) is itself a verdict with its reason.
        if tracer.is_on() {
            match (engine, &plan) {
                (Engine::Plan, Some(p)) => {
                    let verdicts = p.verdicts();
                    for v in &verdicts {
                        if let Some(par) = &v.par {
                            tracer.note("parallel", || {
                                (format!("{} {}", v.id, v.label), par.clone())
                            });
                        }
                        if let Some(c) = &v.compile {
                            tracer.note("compile", || (format!("{} {}", v.id, v.label), c.clone()));
                        }
                    }
                    if verdicts.iter().all(|v| v.par.is_none()) {
                        tracer.note("parallel", || {
                            (String::new(), "seq(parallelism off)".to_string())
                        });
                    }
                    if verdicts.iter().all(|v| v.compile.is_none()) {
                        tracer.note("compile", || {
                            (String::new(), "interp(compile off)".to_string())
                        });
                    }
                }
                (Engine::Plan, None) => {
                    tracer.note("parallel", || {
                        (
                            String::new(),
                            "seq(no physical plan — interpreter tier)".to_string(),
                        )
                    });
                    tracer.note("compile", || {
                        (String::new(), "interp(no physical plan)".to_string())
                    });
                }
                _ => {
                    tracer.note("parallel", || {
                        (String::new(), "seq(interpreter engine)".to_string())
                    });
                    tracer.note("compile", || {
                        (String::new(), "interp(interpreter engine)".to_string())
                    });
                }
            }
        }
        let par_metrics = self.metrics.parallel.clone();
        let vm_metrics = self.metrics.vm.clone();
        let store = &mut state.store;
        let exec_sp = tracer.begin("execute", "");
        // Contain engine panics: a bug in either evaluator must not
        // tear down the caller. `AssertUnwindSafe` is justified because
        // on `Err` the only witness of the broken invariants — the
        // store — is discarded and replaced by the snapshot below.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match engine {
            Engine::SmallStep => evaluate(&cfg, &defs, store, &elab, chooser, max_steps),
            Engine::BigStep => eval_big(&cfg, &defs, store, &elab, chooser, max_steps).map(|r| {
                ioql_eval::Evaluated {
                    value: r.value,
                    effect: r.effect,
                    steps: 0,
                }
            }),
            Engine::Plan => {
                match &plan {
                    Some(plan) => ioql_plan::execute_instrumented(
                        plan,
                        &cfg,
                        &defs,
                        store,
                        chooser,
                        max_steps,
                        ioql_plan::ExecMetrics {
                            par: Some(&par_metrics),
                            vm: Some(&vm_metrics),
                        },
                    )
                    .map(|r| ioql_eval::Evaluated {
                        value: r.value,
                        effect: r.effect,
                        steps: 0,
                    }),
                    // Ineligible or shape-unknown: the big-step evaluator is
                    // the plan engine's interpreter tier.
                    None => eval_big(&cfg, &defs, store, &elab, chooser, max_steps).map(|r| {
                        ioql_eval::Evaluated {
                            value: r.value,
                            effect: r.effect,
                            steps: 0,
                        }
                    }),
                }
            }
        }));
        tracer.end_with(exec_sp, || Some(format!("{engine:?}")));
        let result = match outcome {
            Ok(r) => r.map_err(DbError::from),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "evaluator panicked".to_string());
                Err(DbError::Internal(msg))
            }
        };
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                if let Some(snap) = rollback {
                    // Restoring the snapshot rewinds extent *contents*
                    // to their pre-query state, but the aborted run may
                    // have published intermediate contents under the
                    // snapshot's version numbers (e.g. a partial `new`
                    // batch read back by a later governed query). Move
                    // every counter strictly past both histories so no
                    // cached fingerprint can collide.
                    let dirty = std::mem::replace(&mut state.store, snap);
                    state.store.bump_versions_from(&dirty);
                    self.metrics.rollbacks.inc();
                }
                return Err(e);
            }
        };
        debug_assert!(
            out.effect.covered_by(&static_effect, &self.schema),
            "Theorem 5 violated: runtime effect {{{}}} escapes static {{{static_effect}}}",
            out.effect
        );
        tracer.note("governor", || {
            (
                String::new(),
                format!(
                    "cells_delta={} {}",
                    governor.cells_spent().saturating_sub(cells_before),
                    governor.charges_report()
                ),
            )
        });
        // Acknowledged ⇒ logged: the commit's record (the executed
        // query text plus the recorded draw trace) must be in the log
        // before the caller sees `Ok`. If the append fails the store
        // mutation is rolled back too, so the in-memory state never
        // runs ahead of what a recovery could reconstruct.
        if log_this {
            let payload = WalPayload::Query {
                text: elab.to_string(),
                draws: recording.trace().to_vec(),
            };
            let wal_sp = tracer.begin("wal-append", "");
            match self.wal_append(&payload) {
                Ok(ack) => tracer.end_with(wal_sp, || {
                    let group = if ack.grouped > 1 {
                        format!(" group={}", ack.grouped)
                    } else {
                        String::new()
                    };
                    Some(format!("appended fsync={}{group}", ack.synced))
                }),
                Err(e) => {
                    tracer.end_with(wal_sp, || Some("append failed — rolled back".to_string()));
                    if let Some(snap) = rollback {
                        let dirty = std::mem::replace(&mut state.store, snap);
                        state.store.bump_versions_from(&dirty);
                        self.metrics.rollbacks.inc();
                    }
                    return Err(e);
                }
            }
        }
        if let (Some(key), Some(versions)) = (cache_key, read_versions) {
            self.cache.lock().unwrap_or_else(|e| e.into_inner()).insert(
                key,
                CacheEntry {
                    versions,
                    value: out.value.clone(),
                    runtime_effect: out.effect.clone(),
                    cells: governor.cells_spent().saturating_sub(cells_before),
                },
            );
        }
        // A committed live mutation takes the next slot in the kernel's
        // total write order; the caller still holds the write lock, so
        // stamps are assigned in exactly commit order.
        let seq = (commit && mutating).then(|| {
            self.metrics.snapshot_chunks_copied.add(
                state
                    .store
                    .cow_copied_chunks()
                    .saturating_sub(copied_before),
            );
            self.sched.commit_writer()
        });
        Ok((
            QueryResult {
                value: out.value,
                ty,
                static_effect,
                runtime_effect: out.effect,
                steps: out.steps,
                cached: false,
                elapsed: Duration::ZERO, // overwritten by the wrapper
                wait: Duration::ZERO,    // stamped by the caller
                admitted: None,          // stamped by the caller
            },
            seq,
        ))
    }

    /// Registers `define …;` forms. Each definition is type-checked,
    /// elaborated, and effect-annotated before being added to scope.
    /// A successful call that registered at least one definition takes
    /// a commit-sequence slot (definitions are observable state).
    pub(crate) fn define(&self, opts: &DbOptions, src: &str) -> Result<Option<u64>, DbError> {
        let parsed = parse_definitions(src)?;
        let mut state = self.write_state();
        let mut registered = 0usize;
        for def in parsed {
            if state.def_types.contains_key(&def.name) {
                return Err(ioql_types::TypeError::DuplicateDef(def.name).into());
            }
            let resolved = self.schema.resolve_def(&def);
            let tenv = self.type_env_in(opts, &state);
            let (elab, fnty) = ioql_types::check_definition(&tenv, &resolved)?;
            let eenv = self.effect_env_in(Discipline::permissive(), &state);
            let (_, eff) = ioql_effects::infer_definition(&eenv, &elab)?;
            state.def_types.insert(elab.name.clone(), fnty.clone());
            state.def_effects.insert(elab.name.clone(), (fnty, eff));
            let text = elab.to_string();
            let name = elab.name.clone();
            state.defs.push(elab);
            registered += 1;
            // Definitions are replayable state: log each one like a
            // committed mutation (checkpoints re-log the live set). If
            // the append fails, unregister so the in-memory catalogue
            // never runs ahead of the log.
            if self.wal_active(opts) {
                if let Err(e) = self.wal_append(&WalPayload::Define { text }) {
                    state.defs.pop();
                    state.def_types.remove(&name);
                    state.def_effects.remove(&name);
                    return Err(e);
                }
            }
        }
        Ok((registered > 0).then(|| self.sched.commit_writer()))
    }
}
