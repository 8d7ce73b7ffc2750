//! The pull-based plan executor, with an effect-licensed parallel mode.
//!
//! Execution is engineered for *observational parity* with the naive
//! engines, not just value parity:
//!
//! * every generator element is still drawn through the same [`Chooser`]
//!   protocol, charged one governor cell, and followed by a
//!   cancellation/deadline checkpoint — so `(ND comp)` choice sequences,
//!   cell budgets, and cancellation verdicts are identical;
//! * set cardinalities are observed at exactly the naive observation
//!   points (extent read, set-operator result, comprehension
//!   completion);
//! * every row-level expression is delegated to the big-step
//!   evaluator's [`eval_expr`] hook under the current variable bindings,
//!   so nested comprehensions, effects, and stuck states are literally
//!   the naive engine's own.
//!
//! The sequential deviations — the hash-index build scanning elements
//! ahead of the chooser's draw order — are licensed by the plan's
//! Theorem 7 guard and remain fully *speculative*: any anomaly abandons
//! the index and reverts to per-row predicate evaluation, reproducing
//! the naive engines' exact error at the exact position.
//!
//! # Parallel execution
//!
//! When a plan was lowered with `parallelism ≥ 2` and a node carries a
//! licensed [`ParVerdict`], [`execute_instrumented`] dispatches a
//! dependency-free worker pool (`std::thread::scope` — no queues, no
//! persistent threads):
//!
//! * **chunked scans** — a pipeline headed by an extent scan partitions
//!   its elements into contiguous chunks of the canonical (sorted) set
//!   order; each worker drives its chunk through the *same* per-draw
//!   protocol (chooser draw, one-cell charge, checkpoint) against a
//!   cloned store, and the partial result sets merge by set union.
//!   Theorem 7 (the query is read-only, `new`-free, invocation-free)
//!   makes the merged observables — result set, effect trace, total
//!   cell charges, total chooser draws — equal to the sequential run's.
//! * **partitioned index builds** — the speculative hash-index build is
//!   a pure scan, so its key-extraction loop partitions the same way;
//!   any chunk anomaly abandons the whole index (the per-row fallback
//!   then reproduces the naive error exactly as in sequential mode).
//!   Effects are idempotent atom *sets*, so unioning every chunk's
//!   trace — even past an anomaly — adds nothing the per-row fallback
//!   would not record itself.
//! * **concurrent set-operator branches** — licensed by Theorem 8 when
//!   the lowering proved the operand effects non-interfering; each
//!   branch runs against its own store clone and the left branch's
//!   error wins, matching sequential left-to-right evaluation order.
//!
//! Every dispatch is *re-gated at run time* and falls back to the
//! sequential path (recording a `ioql_parallel_fallbacks_total` reason)
//! when: the chooser cannot [`fork`](Chooser::parallel_fork) (scripted,
//! random, and fault-injecting strategies are draw-order-sensitive); a
//! finite governor budget meters an axis the partitioned body charges
//! (the trip position would be scheduling-dependent); or there are
//! fewer than two elements to split. Profiled runs
//! ([`execute_with_profile`]) are always sequential — the profile is a
//! per-node diagnostic of the sequential cost model.
//!
//! Two caveats are accepted and tested for rather than hidden: workers
//! snapshot the shared fuel cell before each delegated expression, so a
//! run within ~`workers` fuel units of exhaustion may succeed in
//! parallel where sequential exhausts (differential tests use budgets
//! that are either ample or small enough that the per-draw burn trips
//! both modes); and when several chunks fail, the *earliest chunk's*
//! error wins, which matches sequential error identity because every
//! error class reachable from a type-checked, Theorem-7-guarded query
//! (fuel, cancellation, deadline) is partition-order-independent.

use crate::bytecode::{CompileVerdict, Program, VmCtx, VmMetrics};
use crate::ir::{
    EqKind, HashIndexBuild, KeyAccess, NodeId, Op, OpKind, ParVerdict, Plan, Stage, StageKind,
};
use crate::par::{chunk_bounds, ParMetrics};
use ioql_ast::{ExtentName, Query, SetOp, Value, VarName};
use ioql_effects::Effect;
use ioql_eval::{eval_expr, Chooser, DefEnv, EvalConfig, EvalError};
use ioql_store::Store;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The result of executing a [`Plan`].
#[derive(Clone, Debug)]
pub struct PlanResult {
    /// The final value.
    pub value: Value,
    /// The accumulated runtime effect trace.
    pub effect: Effect,
}

/// Runtime statistics for one operator or stage of a profiled run.
#[derive(Clone, Debug)]
pub struct ProfEntry {
    /// Tree depth (for indented rendering).
    pub depth: usize,
    /// The operator/stage label ([`Op::label`] / [`Stage::label`]).
    pub label: String,
    /// The optimizer's row estimate, where one exists.
    pub est_rows: Option<usize>,
    /// Times the node was entered (rows drawn through it, for per-row
    /// stages).
    pub calls: u64,
    /// Rows produced (set cardinality for set-valued operators; passing
    /// rows for filters and probes).
    pub rows: u64,
    /// Wall-clock nanoseconds spent, *inclusive* of children (the
    /// EXPLAIN ANALYZE convention).
    pub nanos: u64,
}

/// The per-operator runtime profile of one plan execution — estimated
/// rows next to actual rows, calls, and inclusive wall time. Produced by
/// [`execute_with_profile`]; rendered by `:plan analyze`.
#[derive(Clone, Debug)]
pub struct PlanProfile {
    /// The licensing guard, rendered.
    pub guard: String,
    /// One entry per operator/stage, in pre-order.
    pub entries: Vec<ProfEntry>,
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

impl PlanProfile {
    /// Renders the profile as an indented tree, one line per operator,
    /// estimates next to actuals.
    pub fn render(&self) -> String {
        let mut out = format!("Plan analyze  [guard: {}]\n", self.guard);
        for e in &self.entries {
            for _ in 0..e.depth {
                out.push_str("  ");
            }
            out.push_str(&e.label);
            if let Some(n) = e.est_rows {
                out.push_str(&format!("  (est ~{n} rows)"));
            }
            if e.calls == 0 {
                out.push_str("  [never executed]\n");
            } else {
                out.push_str(&format!(
                    "  (actual: rows={} calls={} time={})\n",
                    e.rows,
                    e.calls,
                    fmt_ns(e.nanos)
                ));
            }
        }
        out
    }
}

/// Collects per-node runtime stats during a profiled execution. Nodes
/// are keyed by their stable pre-order [`NodeId`] (assigned by
/// [`Plan::number`]), so the keys survive subtree clones and moves —
/// node *addresses*, which an earlier version keyed by, do not.
struct Profiler {
    index: HashMap<NodeId, usize>,
    entries: Vec<ProfEntry>,
}

impl Profiler {
    fn new(plan: &Plan) -> Self {
        let mut p = Profiler {
            index: HashMap::new(),
            entries: Vec::new(),
        };
        p.walk_op(&plan.root, 1);
        p
    }

    fn push(&mut self, id: NodeId, depth: usize, label: String, est_rows: Option<usize>) {
        self.index.insert(id, self.entries.len());
        self.entries.push(ProfEntry {
            depth,
            label,
            est_rows,
            calls: 0,
            rows: 0,
            nanos: 0,
        });
    }

    fn walk_op(&mut self, op: &Op, depth: usize) {
        self.push(op.id, depth, op.label(), op.est_rows());
        match &op.kind {
            OpKind::SetUnion { left, right }
            | OpKind::SetIntersect { left, right }
            | OpKind::SetDiff { left, right } => {
                self.walk_op(left, depth + 1);
                self.walk_op(right, depth + 1);
            }
            OpKind::Distinct { input } | OpKind::MapProject { input, .. } => {
                self.walk_op(input, depth + 1);
            }
            OpKind::Pipeline { stages } => {
                for stage in stages {
                    self.push(stage.id, depth + 1, stage.label(), stage.est_rows());
                }
            }
            OpKind::InlineDef { body, .. } => self.walk_op(body, depth + 1),
            OpKind::ExtentScan { .. } | OpKind::Eval { .. } => {}
        }
    }

    fn record(&mut self, id: NodeId, started: Option<Instant>, rows: u64) {
        if let Some(&i) = self.index.get(&id) {
            let e = &mut self.entries[i];
            e.calls += 1;
            e.rows += rows;
            if let Some(t) = started {
                e.nanos += t.elapsed().as_nanos() as u64;
            }
        }
    }

    fn add_nanos(&mut self, id: NodeId, started: Option<Instant>) {
        if let Some(&i) = self.index.get(&id) {
            if let Some(t) = started {
                self.entries[i].nanos += t.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// The fuel meter: a plain counter in sequential execution, a shared
/// atomic cell while a worker pool is live, so all workers burn from
/// the one budget the sequential run would.
enum Fuel<'f> {
    /// Single-threaded budget (the normal mode).
    Local(u64),
    /// A pool-shared budget. Delegated expressions snapshot [`avail`]
    /// and settle with [`spend`], so the cell can transiently read high
    /// by at most the workers' in-flight spends — see the module docs'
    /// near-exhaustion caveat.
    ///
    /// [`avail`]: Fuel::avail
    /// [`spend`]: Fuel::spend
    Shared(&'f AtomicU64),
}

impl Fuel<'_> {
    fn avail(&self) -> u64 {
        match self {
            Fuel::Local(n) => *n,
            Fuel::Shared(cell) => cell.load(Ordering::Relaxed),
        }
    }

    /// Burns exactly one unit, failing when the budget is empty — the
    /// per-draw/per-operator cadence, race-free in both variants.
    fn burn_one(&mut self) -> Result<(), EvalError> {
        match self {
            Fuel::Local(n) => {
                if *n == 0 {
                    return Err(EvalError::FuelExhausted);
                }
                *n -= 1;
                Ok(())
            }
            Fuel::Shared(cell) => cell
                .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .map(|_| ())
                .map_err(|_| EvalError::FuelExhausted),
        }
    }

    /// Settles a delegated evaluation's reported consumption.
    fn spend(&mut self, used: u64) {
        match self {
            Fuel::Local(n) => *n = n.saturating_sub(used),
            Fuel::Shared(cell) => {
                let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| {
                    Some(n.saturating_sub(used))
                });
            }
        }
    }
}

/// The executor's parallel-mode context: the plan's worker-pool size,
/// the telemetry handles, and whether this [`Exec`] *is* a pool worker
/// (workers never re-dispatch — nesting would oversubscribe the pool
/// and re-partition an already partitioned draw order).
#[derive(Clone, Copy)]
struct ParCtx<'m> {
    level: usize,
    metrics: Option<&'m ParMetrics>,
    in_worker: bool,
}

impl ParCtx<'_> {
    /// A pool worker's context: never re-dispatches, meters nothing
    /// itself (the dispatcher counts its chunks).
    const WORKER: ParCtx<'static> = ParCtx {
        level: 0,
        metrics: None,
        in_worker: true,
    };
}

/// A pipeline head as the executor sees it: the source expression
/// (always present — delegation, error rendering, and profiling need
/// it) and its compiled program when the compile tier accepted it.
#[derive(Clone, Copy)]
struct Head<'p> {
    expr: &'p Query,
    prog: Option<&'p Program>,
}

/// Telemetry handles for one execution — all write-only (the
/// transparency guard): no dispatch, compile, or fallback decision reads
/// them, so a metered run and a bare one execute identically.
#[derive(Clone, Copy, Default)]
pub struct ExecMetrics<'m> {
    /// Parallel-dispatch counters ([`ParMetrics`]).
    pub par: Option<&'m ParMetrics>,
    /// Compiled-tier counters ([`VmMetrics`]).
    pub vm: Option<&'m VmMetrics>,
}

/// Executes a physical plan against a store.
///
/// `max_steps` is the same fuel budget the naive engines take; the
/// executor burns one unit per operator/row step and threads the
/// remainder through every [`eval_expr`] delegation, so one global
/// budget bounds the whole run — across all workers, in parallel mode.
pub fn execute(
    plan: &Plan,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<PlanResult, EvalError> {
    execute_instrumented(
        plan,
        cfg,
        defs,
        store,
        chooser,
        max_steps,
        ExecMetrics::default(),
    )
}

/// [`execute`], with telemetry handles attached — parallel dispatch and
/// compiled-tier counters, either optional.
///
/// The handles are write-only (the transparency guard): dispatch and
/// fallback decisions never read them, so a metered run and a bare one
/// execute identically. Parallel dispatch itself is controlled by the
/// *plan* (`plan.parallelism`, set at lowering) and each node's
/// [`ParVerdict`], re-gated at run time as described in the module docs.
#[allow(clippy::too_many_arguments)]
pub fn execute_instrumented(
    plan: &Plan,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
    metrics: ExecMetrics<'_>,
) -> Result<PlanResult, EvalError> {
    let par = ParCtx {
        level: plan.parallelism,
        metrics: metrics.par,
        in_worker: false,
    };
    execute_inner(
        plan, cfg, defs, store, chooser, max_steps, None, par, metrics.vm,
    )
    .map(|(r, _)| r)
}

/// Executes a physical plan while collecting per-operator runtime stats
/// (calls, rows, inclusive wall time) next to the optimizer's estimates.
///
/// Profiling reads the clock per operator entry, so this path is for
/// diagnostics (`:plan analyze` runs it against a *cloned* store);
/// production execution goes through [`execute`], which performs no
/// clock reads at all. Profiled runs are always *sequential*, whatever
/// the plan's parallelism — the profile documents the sequential cost
/// model that licensing decisions were priced against.
pub fn execute_with_profile(
    plan: &Plan,
    cfg: &EvalConfig<'_>,
    defs: &DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
) -> Result<(PlanResult, PlanProfile), EvalError> {
    let prof = Profiler::new(plan);
    let par = ParCtx {
        level: 0,
        metrics: None,
        in_worker: false,
    };
    let (result, prof) = execute_inner(
        plan,
        cfg,
        defs,
        store,
        chooser,
        max_steps,
        Some(prof),
        par,
        None,
    )?;
    let prof = prof.expect("profiler threaded through");
    Ok((
        result,
        PlanProfile {
            guard: plan.guard.to_string(),
            entries: prof.entries,
        },
    ))
}

#[allow(clippy::too_many_arguments)]
fn execute_inner<'a>(
    plan: &'a Plan,
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    store: &mut Store,
    chooser: &mut dyn Chooser,
    max_steps: u64,
    prof: Option<Profiler>,
    par: ParCtx<'a>,
    vm_metrics: Option<&'a VmMetrics>,
) -> Result<(PlanResult, Option<Profiler>), EvalError> {
    let mut ex = Exec::new(
        cfg,
        defs,
        &plan.compiled,
        vm_metrics,
        chooser,
        Fuel::Local(max_steps),
        Vec::new(),
        par,
    );
    ex.prof = prof;
    let value = ex.eval_op(store, &plan.root)?;
    Ok((
        PlanResult {
            value,
            effect: ex.effect,
        },
        ex.prof,
    ))
}

/// The generator-fused probe, split off the stage suffix: the probe
/// stage's id, build recipe, probe expression, and fallback predicate.
type ProbeParts<'p> = (
    Option<(NodeId, &'p HashIndexBuild, &'p Query, &'p Query)>,
    &'p [Stage],
);

/// Both branch result sets of a Theorem-8 dispatch, or `None` when the
/// branches must run sequentially.
type BranchSets = Option<(BTreeSet<Value>, BTreeSet<Value>)>;

/// Splits a probe stage fused with generator `var` off the front of
/// `rest` (shared by the sequential and chunked generator drivers).
fn split_probe<'p>(var: &VarName, rest: &'p [Stage]) -> ProbeParts<'p> {
    if let Some((st, after)) = rest.split_first() {
        if let StageKind::HashIndexProbe {
            var: pv,
            build,
            probe,
            pred,
            ..
        } = &st.kind
        {
            if pv == var {
                return (Some((st.id, build, probe, pred)), after);
            }
        }
    }
    (None, rest)
}

/// Removes and returns element `i` of the draw pool. Endpoint picks —
/// the only picks the deterministic and forked choosers make — are
/// O(1); interior picks (random/scripted choosers) shift the shorter
/// side.
fn pop_at(remaining: &mut VecDeque<Value>, i: usize) -> Value {
    let n = remaining.len();
    if i == 0 {
        remaining.pop_front().expect("chooser contract: non-empty")
    } else if i + 1 == n {
        remaining.pop_back().expect("chooser contract: non-empty")
    } else {
        remaining.remove(i).expect("chooser contract: i < n")
    }
}

/// Whether a value is the shape the probe's equality demands (the
/// speculative build's per-key anomaly check).
fn well_formed(store: &Store, eq: EqKind, v: &Value) -> bool {
    match (eq, v) {
        (EqKind::Int, Value::Int(_)) => true,
        (EqKind::Obj, Value::Oid(o)) => store.objects.contains(*o),
        _ => false,
    }
}

/// One partition of the speculative index build: extract each element's
/// key, keep the elements whose key equals `target`. Returns `None` in
/// the first slot on any anomaly (caller abandons the index) plus the
/// `Ra` trace recorded up to that point — a pure function of the store
/// snapshot, which is what licenses running partitions concurrently.
fn extract_keys(
    store: &Store,
    build: &HashIndexBuild,
    target: &Value,
    elems: &[&Value],
) -> (Option<HashSet<Value>>, Effect) {
    let mut effect = Effect::empty();
    let mut pass = HashSet::new();
    for &elem in elems {
        let key = match &build.key {
            KeyAccess::Bare => elem.clone(),
            KeyAccess::Attr(a) => {
                let Value::Oid(o) = elem else {
                    return (None, effect);
                };
                let class = match store.class_of(*o) {
                    Ok(c) => c.clone(),
                    Err(_) => return (None, effect),
                };
                effect.union_with(&Effect::attr_read(class));
                match store.attr(*o, a) {
                    Ok(v) => v.clone(),
                    Err(_) => return (None, effect),
                }
            }
        };
        if !well_formed(store, build.eq, &key) {
            return (None, effect);
        }
        if key == *target {
            pass.insert(elem.clone());
        }
    }
    (Some(pass), effect)
}

/// Runs one scan chunk in a pool worker: a fresh [`Exec`] over the
/// worker's store clone, drawing from the shared fuel cell, never
/// re-dispatching. Returns the chunk's partial result set and effect
/// trace.
#[allow(clippy::too_many_arguments)]
fn run_chunk<'a>(
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    mut chooser: Box<dyn Chooser + Send>,
    fuel: &AtomicU64,
    binds: Vec<(VarName, Value)>,
    metrics: Option<&ParMetrics>,
    compiled: &'a BTreeMap<NodeId, CompileVerdict>,
    vm_metrics: Option<&'a VmMetrics>,
    mut store: Store,
    var: &VarName,
    slice: &[Value],
    rest: &[Stage],
    head: Head<'a>,
) -> Result<(BTreeSet<Value>, Effect), EvalError> {
    let t = metrics.map(|m| m.worker_busy_ns.start_timer());
    let mut w = Exec::new(
        cfg,
        defs,
        compiled,
        vm_metrics,
        &mut *chooser,
        Fuel::Shared(fuel),
        binds,
        ParCtx::WORKER,
    );
    let mut part = BTreeSet::new();
    let elems: VecDeque<Value> = slice.iter().cloned().collect();
    let r = w.drive_gen(&mut store, var, elems, rest, head, &mut part);
    if let Some(m) = metrics {
        m.worker_busy_ns.observe_timer(t.flatten());
    }
    r.map(|()| (part, w.effect))
}

/// Runs one set-operator branch in a pool worker (Theorem 8 licensed):
/// the branch subtree evaluates against the worker's store clone to a
/// set, drawing from the shared fuel cell.
#[allow(clippy::too_many_arguments)]
fn run_branch<'a>(
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    mut chooser: Box<dyn Chooser + Send>,
    fuel: &AtomicU64,
    binds: Vec<(VarName, Value)>,
    metrics: Option<&ParMetrics>,
    compiled: &'a BTreeMap<NodeId, CompileVerdict>,
    vm_metrics: Option<&'a VmMetrics>,
    mut store: Store,
    subtree: &'a Op,
) -> Result<(BTreeSet<Value>, Effect), EvalError> {
    let t = metrics.map(|m| m.worker_busy_ns.start_timer());
    let mut w = Exec::new(
        cfg,
        defs,
        compiled,
        vm_metrics,
        &mut *chooser,
        Fuel::Shared(fuel),
        binds,
        ParCtx::WORKER,
    );
    let r = w.op_set(&mut store, subtree);
    if let Some(m) = metrics {
        m.worker_busy_ns.observe_timer(t.flatten());
    }
    r.map(|s| (s, w.effect))
}

struct Exec<'a, 'c, 'f> {
    cfg: &'a EvalConfig<'a>,
    defs: &'a DefEnv,
    chooser: &'c mut dyn Chooser,
    effect: Effect,
    fuel: Fuel<'f>,
    /// In-scope generator bindings, outermost first. Substitution into a
    /// delegated expression applies them innermost-first, so a variable
    /// rebound by an inner generator resolves to the inner value —
    /// matching the interpreters' shadowing-aware eager substitution.
    binds: Vec<(VarName, Value)>,
    /// Per-node runtime stats, only in [`execute_with_profile`] runs.
    /// `None` in production execution — no clock reads, no recording.
    prof: Option<Profiler>,
    /// Parallel-mode context (pool size, telemetry, worker flag).
    par: ParCtx<'a>,
    /// The plan's compile verdicts (empty when lowered without the
    /// compile pass). Read-only: the executor *uses* programs, it never
    /// decides to compile.
    compiled: &'a BTreeMap<NodeId, CompileVerdict>,
    /// Compiled-tier telemetry (write-only).
    vm_metrics: Option<&'a VmMetrics>,
    /// Reusable VM scratch (the value stack) — one allocation per
    /// executor, not per row.
    vm_ctx: VmCtx,
    /// Per-execution snapshot cache of extent element vectors, in
    /// canonical (sorted) order. Licensed by the Theorem 7 guard: the
    /// plan is read-only, so an extent cannot change between two scans
    /// of the same execution. Only the element *vector* is cached — the
    /// per-scan observables (`R(C)` effect atom, cardinality
    /// observation) still fire on every scan, exactly as uncached.
    extent_cache: HashMap<ExtentName, Rc<Vec<Value>>>,
}

impl<'a, 'c, 'f> Exec<'a, 'c, 'f> {
    /// The one constructor — for the top-level run and for each pool
    /// worker alike: an executor with an empty effect trace, no
    /// profiler, and fresh VM and extent scratch.
    #[allow(clippy::too_many_arguments)]
    fn new(
        cfg: &'a EvalConfig<'a>,
        defs: &'a DefEnv,
        compiled: &'a BTreeMap<NodeId, CompileVerdict>,
        vm_metrics: Option<&'a VmMetrics>,
        chooser: &'c mut dyn Chooser,
        fuel: Fuel<'f>,
        binds: Vec<(VarName, Value)>,
        par: ParCtx<'a>,
    ) -> Self {
        Exec {
            cfg,
            defs,
            chooser,
            effect: Effect::empty(),
            fuel,
            binds,
            prof: None,
            par,
            compiled,
            vm_metrics,
            vm_ctx: VmCtx::default(),
            extent_cache: HashMap::new(),
        }
    }
}

impl<'a> Exec<'a, '_, '_> {
    /// Starts a timer iff profiling — `execute` runs never touch the
    /// clock, which is what keeps telemetry out of deadline semantics.
    fn ptimer(&self) -> Option<Instant> {
        self.prof.as_ref().map(|_| Instant::now())
    }

    fn precord(&mut self, id: NodeId, started: Option<Instant>, rows: u64) {
        if let Some(p) = self.prof.as_mut() {
            p.record(id, started, rows);
        }
    }

    fn ptime(&mut self, id: NodeId, started: Option<Instant>) {
        if let Some(p) = self.prof.as_mut() {
            p.add_nanos(id, started);
        }
    }

    fn stuck<T>(&self, q: &Query, reason: impl Into<String>) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            query: q.to_string(),
            reason: reason.into(),
        })
    }

    /// A plan shape [`crate::lower`] never emits. Defensive only.
    fn malformed<T>(&self) -> Result<T, EvalError> {
        Err(EvalError::Stuck {
            query: "<physical plan>".into(),
            reason: "malformed physical plan".into(),
        })
    }

    /// Cancellation/deadline checkpoint plus one fuel unit — the same
    /// cadence the big-step evaluator's `burn` gives each recursion.
    fn checkpoint(&mut self) -> Result<(), EvalError> {
        if let Some(gov) = self.cfg.governor {
            gov.checkpoint()?;
        }
        self.fuel.burn_one()
    }

    /// Delegates one expression to the big-step evaluator under the
    /// current bindings, merging its effect and fuel use.
    fn expr(&mut self, store: &mut Store, q: &Query) -> Result<Value, EvalError> {
        let mut bound = q.clone();
        for (x, v) in self.binds.iter().rev() {
            bound = bound.subst(x, v);
        }
        let r = eval_expr(
            self.cfg,
            self.defs,
            store,
            &bound,
            self.chooser,
            self.fuel.avail(),
        )?;
        self.fuel.spend(r.fuel_spent);
        self.effect.union_with(&r.effect);
        Ok(r.value)
    }

    /// The compiled program for a plan node, when the compile pass
    /// accepted its expression.
    fn vm_prog(&self, id: NodeId) -> Option<&'a Program> {
        match self.compiled.get(&id) {
            Some(CompileVerdict::Vm(p)) => Some(p),
            _ => None,
        }
    }

    /// Runs a compiled expression for the current row — the VM twin of
    /// [`expr`](Exec::expr): same fuel snapshot/settle protocol, same
    /// batch-recorded `recursions` accounting, effects recorded by the
    /// program as it executes.
    fn vm_expr(&mut self, store: &Store, prog: &Program) -> Result<Value, EvalError> {
        let o = prog.run(
            store,
            &self.binds,
            self.cfg.governor,
            self.fuel.avail(),
            &mut self.effect,
            &mut self.vm_ctx,
        )?;
        self.fuel.spend(o.fuel_spent);
        if let Some(m) = self.cfg.metrics {
            m.recursions.add(o.fuel_spent);
        }
        if let Some(m) = self.vm_metrics {
            m.dispatches.inc();
        }
        Ok(o.value)
    }

    fn eval_op(&mut self, store: &mut Store, op: &Op) -> Result<Value, EvalError> {
        if self.prof.is_none() {
            return self.eval_op_inner(store, op);
        }
        let t = self.ptimer();
        let r = self.eval_op_inner(store, op);
        let rows = match &r {
            Ok(Value::Set(s)) => s.len() as u64,
            Ok(_) => 1,
            Err(_) => 0,
        };
        self.precord(op.id, t, rows);
        r
    }

    fn eval_op_inner(&mut self, store: &mut Store, op: &Op) -> Result<Value, EvalError> {
        self.checkpoint()?;
        match &op.kind {
            OpKind::ExtentScan { extent, .. } => self.scan_extent(store, extent),
            OpKind::SetUnion { left, right } => {
                self.set_bin(store, op.par.as_ref(), SetOp::Union, left, right)
            }
            OpKind::SetIntersect { left, right } => {
                self.set_bin(store, op.par.as_ref(), SetOp::Intersect, left, right)
            }
            OpKind::SetDiff { left, right } => {
                self.set_bin(store, op.par.as_ref(), SetOp::Diff, left, right)
            }
            OpKind::Distinct { input } => {
                let mp = &**input;
                let OpKind::MapProject { head, input } = &mp.kind else {
                    return self.malformed();
                };
                let pl = &**input;
                let OpKind::Pipeline { stages } = &pl.kind else {
                    return self.malformed();
                };
                let head = Head {
                    expr: head,
                    prog: self.vm_prog(mp.id),
                };
                let t = self.ptimer();
                let mut out = BTreeSet::new();
                if !self.try_parallel_pipeline(store, pl, stages, head, &mut out)? {
                    self.run_stages(store, stages, head, &mut out)?;
                }
                // The MapProject/Pipeline spine is driven inline (not
                // via `eval_op`), so its profile rows are recorded here.
                let produced = out.len() as u64;
                self.precord(pl.id, None, produced);
                self.precord(mp.id, t, produced);
                // Observed once at completion, matching the naive
                // engines' single observation of the finished
                // comprehension.
                if let Some(gov) = self.cfg.governor {
                    gov.observe_set_card(out.len() as u64)?;
                }
                Ok(Value::Set(out))
            }
            OpKind::InlineDef { body, .. } => self.eval_op(store, body),
            OpKind::Eval { expr } => self.expr(store, expr),
            // Only meaningful inside `Distinct`; a bare occurrence is a
            // lowering bug.
            OpKind::MapProject { .. } | OpKind::Pipeline { .. } => self.malformed(),
        }
    }

    /// Reads one extent: `R(C)` effect, extent value, cardinality
    /// observation — byte-for-byte the big-step `Extent` rule.
    fn scan_extent(&mut self, store: &mut Store, extent: &ExtentName) -> Result<Value, EvalError> {
        let class = match store.extents.get(extent) {
            Some((c, _)) => c.clone(),
            None => {
                return Err(EvalError::Stuck {
                    query: extent.to_string(),
                    reason: format!("unknown extent `{extent}`"),
                })
            }
        };
        self.effect.union_with(&Effect::read(class));
        let v = store
            .extent_value(extent)
            .map_err(|e| EvalError::Store(e.to_string()))?;
        if let Some(gov) = self.cfg.governor {
            if let Value::Set(s) = &v {
                gov.observe_set_card(s.len() as u64)?;
            }
        }
        Ok(v)
    }

    /// [`scan_extent`](Exec::scan_extent), returning the elements as a
    /// shared vector in canonical (sorted) order and memoizing the
    /// vector per execution. A nested generator re-scans its extent once
    /// per outer row; under the Theorem 7 guard the store is frozen, so
    /// only the first scan builds the set — but the per-scan
    /// *observables* (`R(C)` effect, cardinality observation, the
    /// unknown-extent error) are replayed on every call, keeping the hit
    /// path byte-identical to the miss path.
    fn scan_extent_elems(
        &mut self,
        store: &mut Store,
        extent: &ExtentName,
    ) -> Result<Rc<Vec<Value>>, EvalError> {
        if let Some(cached) = self.extent_cache.get(extent) {
            let cached = Rc::clone(cached);
            let class = match store.extents.get(extent) {
                Some((c, _)) => c.clone(),
                None => {
                    return Err(EvalError::Stuck {
                        query: extent.to_string(),
                        reason: format!("unknown extent `{extent}`"),
                    })
                }
            };
            self.effect.union_with(&Effect::read(class));
            if let Some(gov) = self.cfg.governor {
                gov.observe_set_card(cached.len() as u64)?;
            }
            return Ok(cached);
        }
        // Miss path: same observables as `scan_extent` (class lookup,
        // `R(C)` effect, cardinality observation), but the elements are
        // drained straight off the store's member chunk spine. Member
        // chunks are globally sorted by oid and `Value::Oid` ordering
        // follows oid ordering, so this is exactly the sequence a
        // `Value::Set` of the members would iterate — without building
        // the intermediate `BTreeSet`.
        let (class, members) = match store.extents.get(extent) {
            Some((c, s)) => (c.clone(), s),
            None => {
                return Err(EvalError::Stuck {
                    query: extent.to_string(),
                    reason: format!("unknown extent `{extent}`"),
                })
            }
        };
        self.effect.union_with(&Effect::read(class));
        if let Some(gov) = self.cfg.governor {
            gov.observe_set_card(members.len() as u64)?;
        }
        let mut vec = Vec::with_capacity(members.len());
        for chunk in members.chunks() {
            vec.extend(chunk.iter().map(|o| Value::Oid(*o)));
        }
        let vec = Rc::new(vec);
        self.extent_cache.insert(extent.clone(), Rc::clone(&vec));
        Ok(vec)
    }

    fn set_bin(
        &mut self,
        store: &mut Store,
        par: Option<&ParVerdict>,
        op: SetOp,
        left: &Op,
        right: &Op,
    ) -> Result<Value, EvalError> {
        let (va, vb) = match self.try_parallel_branches(store, par, left, right)? {
            Some(pair) => pair,
            None => {
                let va = self.op_set(store, left)?;
                let vb = self.op_set(store, right)?;
                (va, vb)
            }
        };
        let result = op.apply(&va, &vb);
        if let Some(gov) = self.cfg.governor {
            gov.observe_set_card(result.len() as u64)?;
        }
        Ok(Value::Set(result))
    }

    fn op_set(&mut self, store: &mut Store, op: &Op) -> Result<BTreeSet<Value>, EvalError> {
        match self.eval_op(store, op)? {
            Value::Set(s) => Ok(s),
            _ => match &op.kind {
                OpKind::Eval { expr } => self.stuck(expr, "expected a set"),
                _ => self.malformed(),
            },
        }
    }

    /// Attempts the Theorem-8 dispatch: both set-operator branches run
    /// concurrently against store clones. `Ok(None)` means "run the
    /// branches sequentially" — the verdict refused, parallel mode is
    /// off (or this is already a worker/profiled run), or a run-time
    /// gate fell back.
    fn try_parallel_branches(
        &mut self,
        store: &mut Store,
        par: Option<&ParVerdict>,
        left: &Op,
        right: &Op,
    ) -> Result<BranchSets, EvalError> {
        if !par.is_some_and(ParVerdict::licensed)
            || self.par.level < 2
            || self.par.in_worker
            || self.prof.is_some()
        {
            return Ok(None);
        }
        if let Some(gov) = self.cfg.governor {
            let limits = gov.limits();
            // Branches charge cells and observe cardinalities; a finite
            // budget on either axis makes the sequential trip position
            // scheduling-dependent, so the dispatch is refused.
            if limits.max_cells.is_some() || limits.max_set_card.is_some() {
                if let Some(m) = self.par.metrics {
                    m.fallback_budget.inc();
                }
                return Ok(None);
            }
        }
        let (Some(fl), Some(fr)) = (self.chooser.parallel_fork(), self.chooser.parallel_fork())
        else {
            if let Some(m) = self.par.metrics {
                m.fallback_chooser.inc();
            }
            return Ok(None);
        };
        let store_l = store.clone();
        let store_r = store.clone();
        let before = self.fuel.avail();
        let fuel_cell = AtomicU64::new(before);
        let cfg = self.cfg;
        let defs = self.defs;
        let binds_l = self.binds.clone();
        let binds_r = self.binds.clone();
        let metrics = self.par.metrics;
        let compiled = self.compiled;
        let vm_metrics = self.vm_metrics;
        let (ra, rb) = std::thread::scope(|scope| {
            let cell = &fuel_cell;
            let hl = scope.spawn(move || {
                run_branch(
                    cfg, defs, fl, cell, binds_l, metrics, compiled, vm_metrics, store_l, left,
                )
            });
            let hr = scope.spawn(move || {
                run_branch(
                    cfg, defs, fr, cell, binds_r, metrics, compiled, vm_metrics, store_r, right,
                )
            });
            let ra = hl.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            let rb = hr.join().unwrap_or_else(|p| std::panic::resume_unwind(p));
            (ra, rb)
        });
        self.fuel
            .spend(before.saturating_sub(fuel_cell.load(Ordering::Relaxed)));
        if let Some(m) = metrics {
            m.par_set_ops.inc();
            m.chunks.add(2);
        }
        // Left branch's error wins, matching sequential left-to-right
        // evaluation.
        let (sa, ea) = ra?;
        let (sb, eb) = rb?;
        self.effect.union_with(&ea);
        self.effect.union_with(&eb);
        Ok(Some((sa, sb)))
    }

    /// Attempts the chunked-scan dispatch for a pipeline headed by an
    /// extent scan. Returns `Ok(false)` when the caller should run the
    /// plain sequential path (verdict refused, parallel mode off,
    /// already a worker, profiling); `Ok(true)` when the pipeline was
    /// fully executed here — possibly by an *internal* sequential
    /// fallback, once the extent read (an observable) has happened.
    fn try_parallel_pipeline(
        &mut self,
        store: &mut Store,
        pl: &Op,
        stages: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<bool, EvalError> {
        let Some(ParVerdict::Par {
            body_draws,
            body_observes,
        }) = &pl.par
        else {
            return Ok(false);
        };
        let (body_draws, body_observes) = (*body_draws, *body_observes);
        if self.par.level < 2 || self.par.in_worker || self.prof.is_some() {
            return Ok(false);
        }
        let Some((first, rest)) = stages.split_first() else {
            return Ok(false);
        };
        let StageKind::ExtentScan { var, extent, .. } = &first.kind else {
            return Ok(false);
        };
        if let Some(gov) = self.cfg.governor {
            let limits = gov.limits();
            // A body that draws charges cells beyond the one per
            // partitioned element; a body that observes cardinalities
            // can trip a card cap with a payload naming *which*
            // observation tripped. Either budget makes the trip
            // scheduling-dependent, so the dispatch is refused.
            if (limits.max_cells.is_some() && body_draws)
                || (limits.max_set_card.is_some() && body_observes)
            {
                if let Some(m) = self.par.metrics {
                    m.fallback_budget.inc();
                }
                return Ok(false);
            }
        }
        // From here on the extent read has happened — an observable —
        // so every remaining fallback must *complete* the pipeline
        // rather than hand back to the caller.
        let elems = self.scan_extent_elems(store, extent)?;
        let n = elems.len();
        if n < 2 {
            if let Some(m) = self.par.metrics {
                m.fallback_tiny.inc();
            }
            let elems: VecDeque<Value> = elems.iter().cloned().collect();
            self.drive_gen(store, var, elems, rest, head, out)?;
            return Ok(true);
        }
        if let Some(gov) = self.cfg.governor {
            if let Some(remaining) = gov.cells_remaining() {
                if remaining < n as u64 {
                    // The cell budget will trip mid-scan; the trip
                    // position must be the sequential one.
                    if let Some(m) = self.par.metrics {
                        m.fallback_budget.inc();
                    }
                    let elems: VecDeque<Value> = elems.iter().cloned().collect();
                    self.drive_gen(store, var, elems, rest, head, out)?;
                    return Ok(true);
                }
            }
        }
        let chunks = chunk_bounds(n, self.par.level);
        let mut forks = Vec::with_capacity(chunks.len());
        for _ in &chunks {
            match self.chooser.parallel_fork() {
                Some(f) => forks.push(f),
                None => {
                    if let Some(m) = self.par.metrics {
                        m.fallback_chooser.inc();
                    }
                    let elems: VecDeque<Value> = elems.iter().cloned().collect();
                    self.drive_gen(store, var, elems, rest, head, out)?;
                    return Ok(true);
                }
            }
        }
        let before = self.fuel.avail();
        let fuel_cell = AtomicU64::new(before);
        let cfg = self.cfg;
        let defs = self.defs;
        let metrics = self.par.metrics;
        let compiled = self.compiled;
        let vm_metrics = self.vm_metrics;
        let binds = &self.binds;
        let store_ref: &Store = store;
        let elems_ref: &[Value] = &elems;
        let parts: Vec<Result<(BTreeSet<Value>, Effect), EvalError>> =
            std::thread::scope(|scope| {
                let cell = &fuel_cell;
                let handles: Vec<_> = chunks
                    .iter()
                    .zip(forks)
                    .map(|(&(lo, hi), fork)| {
                        let wstore = store_ref.clone();
                        let wbinds = binds.clone();
                        scope.spawn(move || {
                            run_chunk(
                                cfg,
                                defs,
                                fork,
                                cell,
                                wbinds,
                                metrics,
                                compiled,
                                vm_metrics,
                                wstore,
                                var,
                                &elems_ref[lo..hi],
                                rest,
                                head,
                            )
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
        self.fuel
            .spend(before.saturating_sub(fuel_cell.load(Ordering::Relaxed)));
        if let Some(m) = metrics {
            m.par_scans.inc();
            m.chunks.add(chunks.len() as u64);
        }
        // Merge in chunk order; the earliest chunk's error wins (see
        // the module docs for why this matches sequential error
        // identity under the Theorem 7 guard).
        for part in parts {
            let (set, eff) = part?;
            out.extend(set);
            self.effect.union_with(&eff);
        }
        Ok(true)
    }

    /// Runs a stage suffix for the current bindings, unioning produced
    /// head values into `out` — the physical mirror of the big-step
    /// `comp` recursion.
    fn run_stages(
        &mut self,
        store: &mut Store,
        stages: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        match stages.split_first() {
            None => {
                let v = match head.prog {
                    Some(prog) => self.vm_expr(store, prog)?,
                    None => self.expr(store, head.expr)?,
                };
                out.insert(v);
                Ok(())
            }
            Some((st, rest)) => match &st.kind {
                StageKind::Filter { pred } => {
                    let t = self.ptimer();
                    let v = match self.vm_prog(st.id) {
                        Some(prog) => self.vm_expr(store, prog)?,
                        None => self.expr(store, pred)?,
                    };
                    match v {
                        Value::Bool(pass) => {
                            self.precord(st.id, t, pass as u64);
                            if pass {
                                self.run_stages(store, rest, head, out)
                            } else {
                                Ok(())
                            }
                        }
                        _ => self.stuck(pred, "non-boolean predicate"),
                    }
                }
                StageKind::ExtentScan { var, extent, .. } => {
                    let t = self.ptimer();
                    let elems = self.scan_extent_elems(store, extent)?;
                    self.precord(st.id, t, elems.len() as u64);
                    let elems: VecDeque<Value> = elems.iter().cloned().collect();
                    self.drive_gen(store, var, elems, rest, head, out)
                }
                StageKind::Scan { var, source, .. } => {
                    let t = self.ptimer();
                    let elems = match self.expr(store, source)? {
                        Value::Set(s) => s,
                        _ => return self.stuck(source, "generator over a non-set"),
                    };
                    self.precord(st.id, t, elems.len() as u64);
                    let elems: VecDeque<Value> = elems.into_iter().collect();
                    self.drive_gen(store, var, elems, rest, head, out)
                }
                // A probe is always fused behind its generator and
                // consumed by `drive_gen`; reaching one here is a
                // lowering bug.
                StageKind::HashIndexProbe { .. } => self.malformed(),
            },
        }
    }

    /// Drives one generator: draw elements through the chooser in the
    /// `(ND comp)` protocol, charging one cell and checkpointing per
    /// draw, optionally probing a one-shot hash index in place of the
    /// fused equality predicate. Elements live in a deque so the
    /// endpoint picks of the common choosers (first/last — including
    /// every forked worker chooser) are O(1) instead of shifting the
    /// whole remainder per draw. Shared by the sequential path and the
    /// pool workers (each worker drives its chunk through this exact
    /// loop), so the per-element observables cannot drift between them.
    fn drive_gen(
        &mut self,
        store: &mut Store,
        var: &VarName,
        mut remaining: VecDeque<Value>,
        rest: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        let (probe, body) = split_probe(var, rest);
        // The hot-loop specialization: a leaf generator (no probe, no
        // trailing stages) projecting through a compiled head runs a
        // tight draw→burn→dispatch loop with a single reused binding
        // slot — the per-row observables (chooser draw, cell charge,
        // checkpoint, head fuel) are the same calls `run_stages` would
        // make, minus the recursion, substitution, and re-binding.
        if probe.is_none() && body.is_empty() {
            if let Some(prog) = head.prog {
                return self.drive_leaf_vm(store, var, remaining, prog, out);
            }
        }
        // `None` until the first draw; `Some(None)` = index abandoned
        // (anomaly — the per-row fallback reproduces the naive error),
        // `Some(Some(idx))` = probe with `idx`.
        let mut index: Option<Option<HashSet<Value>>> = None;
        while !remaining.is_empty() {
            let n = remaining.len();
            let i = self.chooser.choose(n);
            if let Some(gov) = self.cfg.governor {
                gov.charge_cells(1)?;
            }
            // Checkpoint per draw even when the probe will reject the
            // element: the naive engines notice cancellation on the
            // recursion that evaluates the rejected element's predicate,
            // so the plan path must offer the same observation point.
            self.checkpoint()?;
            let picked = pop_at(&mut remaining, i);
            if let Some((pkey, build, probe_q, _)) = probe {
                if index.is_none() {
                    // Built exactly once, at the first draw — where the
                    // naive path would first evaluate the predicate, so
                    // the probe side's one evaluation lands where
                    // naive's first would. In a pool worker the build is
                    // chunk-local — observationally identical to a
                    // global one because `Ra` atoms are set-unioned and
                    // anomalies revert to the per-row fallback either
                    // way.
                    let t = self.ptimer();
                    let refs: Vec<&Value> =
                        std::iter::once(&picked).chain(remaining.iter()).collect();
                    index = Some(self.build_index(store, build, probe_q, &refs));
                    self.ptime(pkey, t);
                }
            }
            let probe_ref = probe.map(|(pkey, _, _, pred)| {
                (pkey, index.as_ref().expect("built at first draw"), pred)
            });
            self.consume_elem(store, var, picked, probe_ref, body, head, out)?;
        }
        Ok(())
    }

    /// The vectorized leaf loop: drains the generator through the
    /// compiled head, mutating one pushed binding slot per row instead
    /// of push/pop + clone/substitute/recurse. Draw protocol, cell
    /// charges, checkpoints, and per-row head fuel are identical to the
    /// general path.
    fn drive_leaf_vm(
        &mut self,
        store: &mut Store,
        var: &VarName,
        mut remaining: VecDeque<Value>,
        prog: &Program,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        if remaining.is_empty() {
            return Ok(());
        }
        let timer = self.vm_metrics.map(|m| m.dispatch_ns.start_timer());
        let mut rows = 0u64;
        let mut fuel_rows = 0u64;
        // Placeholder value; overwritten before the program ever reads
        // the slot.
        self.binds.push((var.clone(), Value::Bool(false)));
        // Only the drained slot changes per row and the store is
        // immutable until the drain ends (compiled programs are
        // draw-free and read-only), so the VM may replay loop-invariant
        // attribute loads from its per-drain cache.
        self.vm_ctx
            .begin_drain((self.binds.len() - 1).try_into().expect("≤ 255 binders"));
        let r = (|| -> Result<(), EvalError> {
            while !remaining.is_empty() {
                let n = remaining.len();
                let i = self.chooser.choose(n);
                if let Some(gov) = self.cfg.governor {
                    gov.charge_cells(1)?;
                }
                self.checkpoint()?;
                self.binds.last_mut().expect("pushed above").1 = pop_at(&mut remaining, i);
                let o = prog.run(
                    store,
                    &self.binds,
                    self.cfg.governor,
                    self.fuel.avail(),
                    &mut self.effect,
                    &mut self.vm_ctx,
                )?;
                self.fuel.spend(o.fuel_spent);
                fuel_rows += o.fuel_spent;
                rows += 1;
                out.insert(o.value);
            }
            Ok(())
        })();
        self.vm_ctx.end_drain();
        self.binds.pop();
        // Batched telemetry: totals identical to per-row adds (failed
        // rows never contributed), one atomic instead of one per row.
        if let Some(m) = self.cfg.metrics {
            m.recursions.add(fuel_rows);
        }
        if let Some(m) = self.vm_metrics {
            m.dispatches.add(rows);
            m.dispatch_ns.observe_timer(timer.flatten());
        }
        r
    }

    /// Consumes one drawn element: bind it, run the stage body (or
    /// probe the index / fall back to the kept predicate), unbind.
    /// Shared by the sequential and chunked drivers so the per-element
    /// observables cannot drift between them.
    #[allow(clippy::too_many_arguments)]
    fn consume_elem(
        &mut self,
        store: &mut Store,
        var: &VarName,
        picked: Value,
        probe: Option<(NodeId, &Option<HashSet<Value>>, &Query)>,
        body: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<(), EvalError> {
        let Some((pkey, index, pred)) = probe else {
            self.binds.push((var.clone(), picked));
            let r = self.run_stages(store, body, head, out);
            self.binds.pop();
            return r;
        };
        match index {
            Some(pass) => {
                let hit = pass.contains(&picked);
                self.precord(pkey, None, hit as u64);
                if hit {
                    self.binds.push((var.clone(), picked));
                    let r = self.run_stages(store, body, head, out);
                    self.binds.pop();
                    r?;
                }
                Ok(())
            }
            None => {
                self.binds.push((var.clone(), picked));
                let r = self.filtered(store, pred, body, head, out);
                self.binds.pop();
                let passed = r?;
                self.precord(pkey, None, passed as u64);
                Ok(())
            }
        }
    }

    /// The speculative-fallback path: evaluate the original predicate
    /// per row, exactly as a [`StageKind::Filter`] would. Returns
    /// whether the predicate passed (profile bookkeeping only).
    fn filtered(
        &mut self,
        store: &mut Store,
        pred: &Query,
        body: &[Stage],
        head: Head<'_>,
        out: &mut BTreeSet<Value>,
    ) -> Result<bool, EvalError> {
        match self.expr(store, pred)? {
            Value::Bool(true) => {
                self.run_stages(store, body, head, out)?;
                Ok(true)
            }
            Value::Bool(false) => Ok(false),
            _ => self.stuck(pred, "non-boolean predicate"),
        }
    }

    /// Builds the one-shot hash index: evaluate the probe side once
    /// (under the current bindings — the semi-join case), then keep the
    /// elements whose key equals it. `None` on any anomaly — the probe
    /// side fails or has the wrong type, an element is not the shape
    /// the equality demands — and the caller reverts to per-row
    /// predicate evaluation, which reproduces the exact naive error at
    /// the exact naive position. The `Ra` union per *scanned* element
    /// on attribute access matches the naive engines, which record it
    /// for every drawn element whether or not its predicate passes.
    ///
    /// With a worker pool available (and ≥ 2 keys) the key-extraction
    /// scan partitions across workers — [`extract_keys`] is a pure
    /// function of the store snapshot, so partitioning is licensed by
    /// the same Theorem 7 guard as the build's own scan-ahead.
    fn build_index(
        &mut self,
        store: &mut Store,
        build: &HashIndexBuild,
        probe: &Query,
        elements: &[&Value],
    ) -> Option<HashSet<Value>> {
        let target = self.expr(store, probe).ok()?;
        if !well_formed(store, build.eq, &target) {
            return None;
        }
        if self.par.level >= 2 && !self.par.in_worker && self.prof.is_none() && elements.len() >= 2
        {
            return self.build_index_partitioned(store, build, &target, elements);
        }
        let (pass, eff) = extract_keys(store, build, &target, elements);
        self.effect.union_with(&eff);
        pass
    }

    /// The partitioned key-extraction scan: chunks run concurrently
    /// over the *shared* store (read-only), any chunk anomaly abandons
    /// the whole index, and every chunk's `Ra` trace is unioned
    /// unconditionally (idempotent atoms; anything recorded past an
    /// anomaly is re-recorded by the per-row fallback anyway).
    fn build_index_partitioned(
        &mut self,
        store: &Store,
        build: &HashIndexBuild,
        target: &Value,
        elements: &[&Value],
    ) -> Option<HashSet<Value>> {
        let chunks = chunk_bounds(elements.len(), self.par.level);
        let metrics = self.par.metrics;
        let parts: Vec<(Option<HashSet<Value>>, Effect)> = std::thread::scope(|scope| {
            let handles: Vec<_> = chunks
                .iter()
                .map(|&(lo, hi)| {
                    let slice = &elements[lo..hi];
                    scope.spawn(move || {
                        let t = metrics.map(|m| m.worker_busy_ns.start_timer());
                        let r = extract_keys(store, build, target, slice);
                        if let Some(m) = metrics {
                            m.worker_busy_ns.observe_timer(t.flatten());
                        }
                        r
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        if let Some(m) = metrics {
            m.par_index_builds.inc();
            m.chunks.add(chunks.len() as u64);
        }
        let mut pass = Some(HashSet::new());
        for (part, eff) in parts {
            self.effect.union_with(&eff);
            match (pass.as_mut(), part) {
                (Some(acc), Some(p)) => acc.extend(p),
                _ => pass = None,
            }
        }
        pass
    }
}
