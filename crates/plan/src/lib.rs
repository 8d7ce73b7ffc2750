//! Physical query plans for IOQL — the §4 "applications" of the effect
//! system turned into an executable operator layer.
//!
//! The paper's Theorems 7–8 show that a read-only, `new`-free effect
//! licenses execution-strategy freedom: the order in which qualifiers
//! draw and set operands evaluate cannot be observed. This crate cashes
//! that licence in three pieces:
//!
//! * an **operator IR** ([`ir`]) — `ExtentScan`, `HashIndexBuild` /
//!   `HashIndexProbe` (the generalization of the big-step evaluator's
//!   former in-line fast path, including the cross-generator hash
//!   semi-join), `Filter`, `MapProject`, `SetUnion` / `SetIntersect` /
//!   `SetDiff`, `Distinct`, `InlineDef` — with a renderer for
//!   `explain` / `:plan` output;
//! * a **guarded lowering** ([`lower()`]) consuming the elaborated
//!   query *and its inferred Figure-3 effect*, emitting a plan only for
//!   Theorem-7-eligible queries and choosing scan vs index cost-based
//!   via [`ioql_opt::Stats`];
//! * a **pull-based executor** ([`execute()`]) that keeps observational
//!   parity with the naive engines — same [`Chooser`](ioql_eval::Chooser)
//!   draw protocol, same governor cell charges and cardinality
//!   observations, row-level expressions delegated to
//!   [`ioql_eval::eval_expr`] — so the differential suites can hold it
//!   to the same standard as the two interpreters.
//!
//! Queries the guard refuses (mutating, invoking, or shape-unknown)
//! simply return `None` from [`lower()`] and run on the existing
//! interpreters; the plan layer is a pure overlay.
//!
//! On top of the sequential executor sits an **effect-licensed parallel
//! mode**: [`lower_with`] takes a [`ParSpec`] (worker-pool size, schema,
//! branch-effect oracle) and annotates every parallel-capable node with
//! a [`ParVerdict`] — Theorem 7 licenses chunked extent scans and
//! partitioned index builds; Theorem 8 licenses concurrent set-operator
//! branches when [`set_op_verdict`] finds the operand effects
//! non-interfering. [`execute_instrumented`] dispatches `std::thread::scope`
//! workers for licensed nodes (re-gated at run time — unforkable
//! chooser, finite budgets on charged axes, or tiny inputs fall back to
//! the sequential path, counting into [`ParMetrics`]) and is contracted
//! to change *no observable*: same result set, effect trace, governor
//! meters, and chooser draw totals as `parallelism = 0`.

#![forbid(unsafe_code)]
// Error enums carry rendered context (names, types, positions) by value;
// they are cold-path and the ergonomics beat a Box indirection here.
#![allow(clippy::result_large_err)]
#![warn(missing_docs)]

pub mod bytecode;
pub mod exec;
pub mod ir;
mod lower;
pub mod par;

pub use bytecode::{compile, CompileVerdict, Program, VmCtx, VmMetrics, VmOutcome};
pub use exec::{
    execute, execute_instrumented, execute_with_profile, ExecMetrics, PlanProfile, PlanResult,
    ProfEntry,
};
pub use ir::{
    EqKind, Guard, HashIndexBuild, KeyAccess, NodeId, NodeVerdict, Op, OpKind, ParVerdict, Plan,
    Stage, StageKind,
};
pub use lower::{lower, lower_with, set_op_verdict, BranchEffectFn, ParSpec};
pub use par::ParMetrics;

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{AttrDef, ClassDef, ClassName, Qualifier, Query, Value, VarName};
    use ioql_effects::Effect;
    use ioql_eval::{eval_big, DefEnv, EvalConfig, FirstChooser, LastChooser};
    use ioql_opt::Stats;
    use ioql_schema::Schema;
    use ioql_store::{Object, Store};

    fn setup() -> (Schema, Store) {
        let schema = Schema::new(vec![ClassDef::plain(
            "P",
            ClassName::object(),
            "Ps",
            [AttrDef::new("n", ioql_ast::Type::Int)],
        )])
        .unwrap();
        let mut store = Store::new();
        store.declare_extent("Ps", "P");
        for n in 1..=20 {
            store
                .create(
                    Object::new("P", [("n", Value::Int(n))]),
                    [ioql_ast::ExtentName::new("Ps")],
                )
                .unwrap();
        }
        (schema, store)
    }

    fn selective_eq() -> Query {
        Query::comp(
            Query::var("x").attr("n").add(Query::int(100)),
            [
                Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                Qualifier::Pred(Query::var("x").attr("n").int_eq(Query::int(2))),
            ],
        )
    }

    fn stats_for(store: &Store) -> Stats {
        let mut stats = Stats::new();
        for (e, _, members) in store.extents.iter() {
            stats.set(e.clone(), members.len());
        }
        stats
    }

    #[test]
    fn selective_equality_lowers_to_a_probe() {
        let (_, store) = setup();
        let plan = lower(
            &selective_eq(),
            &Effect::read("P").union(&Effect::attr_read("P")),
            &DefEnv::new(),
            &stats_for(&store),
        )
        .expect("eligible query must lower");
        let rendered = plan.render();
        assert!(rendered.contains("HashIndexProbe"), "{rendered}");
        assert!(rendered.contains("HashIndexBuild"), "{rendered}");
        assert!(rendered.contains("ExtentScan"), "{rendered}");
        assert!(rendered.contains("Thm 7"), "{rendered}");
    }

    #[test]
    fn tiny_extents_prefer_the_plain_filter() {
        let q = selective_eq();
        let mut stats = Stats::new();
        stats.set("Ps", 2);
        let plan = lower(
            &q,
            &Effect::read("P").union(&Effect::attr_read("P")),
            &DefEnv::new(),
            &stats,
        )
        .unwrap();
        let rendered = plan.render();
        assert!(rendered.contains("Filter"), "{rendered}");
        assert!(!rendered.contains("HashIndexProbe"), "{rendered}");
    }

    #[test]
    fn mutating_and_invoking_queries_refuse_to_lower() {
        let defs = DefEnv::new();
        let stats = Stats::new();
        let newq = Query::comp(
            Query::New(
                ClassName::new("P"),
                vec![(ioql_ast::AttrName::new("n"), Query::var("x"))],
            ),
            [Qualifier::Gen(VarName::new("x"), Query::extent("Ps"))],
        );
        assert!(lower(&newq, &Effect::add("P"), &defs, &stats).is_none());
        // Even with a (wrongly) clean effect the syntactic guard holds.
        assert!(lower(&newq, &Effect::empty(), &defs, &stats).is_none());
        // A read-only query whose *effect* says otherwise is refused.
        assert!(lower(&Query::extent("Ps"), &Effect::add("P"), &defs, &stats).is_none());
    }

    #[test]
    fn unrecognized_roots_do_not_lower() {
        let defs = DefEnv::new();
        let stats = Stats::new();
        assert!(lower(&Query::int(3), &Effect::empty(), &defs, &stats).is_none());
        assert!(lower(
            &Query::extent("Ps").size_of(),
            &Effect::read("P"),
            &defs,
            &stats
        )
        .is_none());
    }

    #[test]
    fn executor_agrees_with_big_step_on_probe_and_union() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let queries = [
            selective_eq(),
            Query::extent("Ps").union(Query::comp(
                Query::var("x"),
                [
                    Qualifier::Gen(VarName::new("x"), Query::extent("Ps")),
                    Qualifier::Pred(Query::var("x").attr("n").int_eq(Query::int(7))),
                ],
            )),
        ];
        for q in &queries {
            let plan = lower(
                q,
                &Effect::read("P").union(&Effect::attr_read("P")),
                &defs,
                &stats_for(&store),
            )
            .unwrap();
            for first in [true, false] {
                let mut s1 = store.clone();
                let mut s2 = store.clone();
                let (p, b) = if first {
                    (
                        execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000).unwrap(),
                        eval_big(&cfg, &defs, &mut s2, q, &mut FirstChooser, 100_000).unwrap(),
                    )
                } else {
                    (
                        execute(&plan, &cfg, &defs, &mut s1, &mut LastChooser, 100_000).unwrap(),
                        eval_big(&cfg, &defs, &mut s2, q, &mut LastChooser, 100_000).unwrap(),
                    )
                };
                assert_eq!(p.value, b.value, "value mismatch on {q}");
                assert_eq!(p.effect, b.effect, "effect mismatch on {q}");
                assert_eq!(s1, s2, "store mismatch on {q}");
            }
        }
    }

    #[test]
    fn profiled_execution_matches_and_reports_actuals() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        let q = selective_eq();
        let plan = lower(
            &q,
            &Effect::read("P").union(&Effect::attr_read("P")),
            &defs,
            &stats_for(&store),
        )
        .unwrap();
        let mut s1 = store.clone();
        let mut s2 = store.clone();
        let (p, prof) =
            execute_with_profile(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000).unwrap();
        let plain = execute(&plan, &cfg, &defs, &mut s2, &mut FirstChooser, 100_000).unwrap();
        assert_eq!(p.value, plain.value);
        assert_eq!(p.effect, plain.effect);
        assert_eq!(s1, s2);
        let rendered = prof.render();
        assert!(rendered.contains("Thm 7"), "{rendered}");
        assert!(rendered.contains("(est ~20 rows)"), "{rendered}");
        assert!(rendered.contains("actual:"), "{rendered}");
        // 20 elements scanned; exactly one survives the probe.
        let scan = prof
            .entries
            .iter()
            .find(|e| e.label.starts_with("ExtentScan x <- Ps"))
            .unwrap();
        assert_eq!((scan.calls, scan.rows), (1, 20));
        let probe = prof
            .entries
            .iter()
            .find(|e| e.label.starts_with("HashIndexProbe"))
            .unwrap();
        assert_eq!((probe.calls, probe.rows), (20, 1));
        let distinct = prof.entries.iter().find(|e| e.label == "Distinct").unwrap();
        assert_eq!(distinct.rows, 1);
        assert!(distinct.nanos > 0, "inclusive timing must be recorded");
    }

    #[test]
    fn fallback_reproduces_the_naive_error_class() {
        let (schema, store) = setup();
        let cfg = EvalConfig::new(&schema);
        let defs = DefEnv::new();
        // A boolean sneaks into the generator set: the index build
        // abandons and the fallback sticks exactly like big-step. The
        // cost model would pick a plain Filter on a 2-element source,
        // so the probe stage is built by hand to pin the fallback path.
        let src = Query::set_lit([Query::int(1), Query::bool(true)]);
        let pred = Query::var("x").int_eq(Query::int(1));
        let q = Query::comp(
            Query::var("x"),
            [
                Qualifier::Gen(VarName::new("x"), src.clone()),
                Qualifier::Pred(pred.clone()),
            ],
        );
        let mut plan = Plan {
            root: Op::new(OpKind::Distinct {
                input: Box::new(Op::new(OpKind::MapProject {
                    head: Query::var("x"),
                    input: Box::new(Op::new(OpKind::Pipeline {
                        stages: vec![
                            Stage::new(StageKind::Scan {
                                var: VarName::new("x"),
                                source: src,
                                est_rows: 2,
                            }),
                            Stage::new(StageKind::HashIndexProbe {
                                var: VarName::new("x"),
                                build: HashIndexBuild {
                                    eq: EqKind::Int,
                                    key: KeyAccess::Bare,
                                    est_rows: 2,
                                },
                                probe: Query::int(1),
                                pred,
                                scan_cost: 100,
                                index_cost: 1,
                            }),
                        ],
                    })),
                })),
            }),
            guard: Guard {
                effect: Effect::empty(),
            },
            parallelism: 0,
            compiled: Default::default(),
        };
        plan.number();
        let mut s1 = store.clone();
        let mut s2 = store.clone();
        let b = eval_big(&cfg, &defs, &mut s2, &q, &mut FirstChooser, 100_000);
        let p = execute(&plan, &cfg, &defs, &mut s1, &mut FirstChooser, 100_000);
        match (p, b) {
            (Err(pe), Err(be)) => assert_eq!(
                std::mem::discriminant(&pe),
                std::mem::discriminant(&be),
                "plan={pe:?} big={be:?}"
            ),
            (p, b) => panic!("expected both to stick: plan={p:?} big={b:?}"),
        }
    }
}
