//! The benchmark's own tests: determinism of the generator, self-time
//! arithmetic, and a tiny run of every workload through every check.

use ioql_perfbench::gen::{Expect, Label};
use ioql_perfbench::spans::{self_times, tree_self_times, Span};
use ioql_perfbench::stats::{percentile, tail_percentile};
use ioql_perfbench::system::{open_db, ServerKind};
use ioql_perfbench::trace::{traced_run, PER_LAYER};
use ioql_perfbench::workloads::{end_to_end, run_round, Scenario, Workload};

#[test]
fn same_seed_same_store_and_requests() {
    for w in Workload::ALL {
        let a = Scenario::generate(w, 7, true);
        let b = Scenario::generate(w, 7, true);
        assert_eq!(a.load, b.load, "{}", w.name());
        assert_eq!(a.clients, b.clients, "{}", w.name());
        assert_eq!(a.finals, b.finals, "{}", w.name());
        let dump = |sc: &Scenario| {
            let mut db = open_db(None).unwrap();
            for (q, want) in &sc.load {
                assert_eq!(&db.query(q).unwrap().value.to_string(), want);
            }
            db.dump()
        };
        assert_eq!(dump(&a), dump(&b), "{}", w.name());
        let c = Scenario::generate(w, 8, true);
        assert_ne!(
            a.clients,
            c.clients,
            "{}: another seed, other requests",
            w.name()
        );
    }
}

#[test]
fn full_size_sequences_are_fixed_and_labelled() {
    for w in Workload::ALL {
        let sc = Scenario::generate(w, 1, false);
        let again = Scenario::generate(w, 1, false);
        assert_eq!(sc.len(), again.len());
        for label in [Label::Read, Label::Scan, Label::Write] {
            assert!(
                sc.clients.iter().flatten().any(|r| r.label == label),
                "{} has no {label:?} request",
                w.name()
            );
        }
    }
}

fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        request: 0,
        name: "x",
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_covered_part_of_children() {
    // root [0,100): children [10,30) and [20,50) overlap (covered 10..50),
    // child [60,70); grandchild [12,18) under the first child.
    let spans = vec![
        span(0, None, 0, 100),
        span(1, Some(0), 10, 30),
        span(2, Some(1), 12, 18),
        span(3, Some(0), 20, 50),
        span(4, Some(0), 60, 70),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 6, 30, 10]);
    // A child running past its parent only covers the parent's part.
    let spans = vec![span(0, None, 0, 10), span(1, Some(0), 5, 20)];
    assert_eq!(self_times(&spans), vec![5, 15]);
}

#[test]
fn plan_profile_self_time_is_inclusive_minus_direct_children() {
    // Distinct(100) > MapProject(80) > Pipeline(60) > [Scan(20), Filter(30)]
    let depths = [1, 2, 3, 4, 4];
    let inclusive = [100, 80, 60, 20, 30];
    assert_eq!(
        tree_self_times(&depths, &inclusive),
        vec![20, 20, 10, 20, 30]
    );
    // Children over-reporting never makes a self time negative.
    assert_eq!(tree_self_times(&[1, 2], &[5, 9]), vec![0, 9]);
}

#[test]
fn tail_percentile_leaves_ten_samples_beyond() {
    assert_eq!(tail_percentile(1000), 95.0);
    assert_eq!(tail_percentile(200), 95.0);
    assert_eq!(tail_percentile(150), 93.0);
    assert_eq!(tail_percentile(100), 90.0);
    assert_eq!(tail_percentile(30), 66.0);
    assert_eq!(tail_percentile(12), 50.0);
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&v, 50.0), Some(50.0));
}

#[test]
fn expectations_reject_wrong_answers() {
    assert!(Expect::Value("{1, 2}".into()).matches("{1, 2}"));
    assert!(!Expect::Value("{1, 2}".into()).matches("{1}"));
    assert!(Expect::NewOids(1).matches("{@17}"));
    assert!(!Expect::NewOids(1).matches("{@17, @18}"));
    assert!(!Expect::NewOids(1).matches("{17}"));
}

#[test]
fn tiny_run_of_every_workload_passes_every_check() {
    for w in Workload::ALL {
        let round = run_round(
            w,
            3,
            true,
            &ServerKind::InProcess,
            &format!("test-{}", w.name()),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert!(round.errors.is_empty(), "{}: {:?}", w.name(), round.errors);
        assert!(round.samples.iter().all(|s| s.ok), "{}", w.name());
        assert!(
            round.checks >= 3,
            "{}: finals and recovery checks ran",
            w.name()
        );
        assert_eq!(round.checks_failed, 0, "{}", w.name());
        let metrics = end_to_end(&[round]);
        for name in [
            "setup_s",
            "throughput_ops_s",
            "read_p50_ms",
            "read_tail_ms",
            "scan_p50_ms",
            "scan_tail_ms",
            "write_p50_ms",
            "write_tail_ms",
            "recovery_s",
            "success_ratio",
        ] {
            let m = metrics.iter().find(|m| m.name == name).expect(name);
            assert!(m.value > 0.0, "{}: {name} = {}", w.name(), m.value);
        }
    }
}

#[test]
fn tiny_traced_run_of_every_workload_agrees_with_end_to_end() {
    for w in Workload::ALL {
        let t = traced_run(w, 3, true, &ServerKind::InProcess)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(t.failed, 0, "{}: {:?}", w.name(), t.errors);
        let names: Vec<&str> = t.metrics.iter().map(|m| m.name.as_str()).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, want, "{}", w.name());
        let spans = t.recorder.spans();
        for layer in [
            "syntax.parse",
            "schema.resolve",
            "types.check",
            "effects.infer",
            "plan.lower",
        ] {
            assert!(
                spans.iter().any(|s| s.name == layer),
                "{}: no {layer} span",
                w.name()
            );
        }
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}
