//! Crash-recovery differential suite for the durability subsystem.
//!
//! The contract (module doc of `ioql::durable`): after a crash at *any*
//! point — mid-append, mid-fsync, mid-checkpoint — recovery yields a
//! store oid-bijection-equivalent (`store::equiv_stores`) to the store
//! after some **prefix** of the committed mutating queries, and that
//! prefix contains every commit whose acknowledgement had an fsync
//! behind it. The suite sweeps crash points (byte budgets through
//! `CrashSink`, sync budgets, hand-built checkpoint wreckage, record
//! corruption) × choosers × engines and checks the recovered store
//! against reference prefixes built on a durability-free database.

#![allow(clippy::result_large_err)] // cold-path test helpers return DbError

use ioql::store::wal::{checkpoint_path, wal_path};
use ioql::store::{equiv_stores, Store};
use ioql::{
    Chooser, Database, DbError, DbOptions, Durability, Engine, FirstChooser, LastChooser, Mode,
    RandomChooser, RunArgs, WalErrorKind,
};
use ioql_testkit::faults::{corrupt_dump, Corruption, CrashSink};
use std::path::{Path, PathBuf};

/// A schema whose queries can add *and* update (the §5 extended-method
/// design point), so the log carries both effect classes.
const DDL: &str = "
    class Person extends Object (extent Persons) {
        attribute int name;
        attribute int age;
        int birthday() {
            this.age = this.age + 1;
            return this.age;
        }
    }";

/// Mutating workload. Every query's *resulting store* is independent of
/// the chooser's iteration order (sets of `new`s keyed by deterministic
/// values; updates applied to every matching object), so reference
/// prefixes built with one chooser are `equiv_stores`-comparable to a
/// durable run driven by any other.
const MUTATIONS: &[&str] = &[
    "{ new Person(name: n, age: n + 20) | n <- {1, 2, 3} }",
    "{ new Person(name: n * 10, age: 0) | n <- {4, 5} }",
    "{ p.birthday() | p <- Persons, p.age < 10 }",
    "{ new Person(name: p.name + 100, age: p.age) | p <- Persons, p.name < 3 }",
    "{ p.birthday() | p <- Persons }",
    "(new Person(name: 999, age: 1)).name",
];

/// A read-only query — must skip the WAL under the Theorem 7 guard.
const READ: &str = "size(Persons)";

// ---------------------------------------------------------------------
// Std-only temp-directory shim (the workspace is dependency-free).

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        static N: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = N.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        let p =
            std::env::temp_dir().join(format!("ioql-recovery-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------
// Harness.

fn db_with(engine: Engine, durability: Durability) -> Database {
    let opts = DbOptions {
        engine,
        durability,
        method_mode: Mode::Extended,
        telemetry: true, // the wal/store counter assertions need live metrics
        ..DbOptions::default()
    };
    Database::from_ddl_with(DDL, opts).unwrap()
}

#[derive(Clone, Copy, Debug)]
enum ChooserKind {
    First,
    Last,
    Random(u64),
}

impl ChooserKind {
    fn build(self) -> Box<dyn Chooser> {
        match self {
            ChooserKind::First => Box::new(FirstChooser),
            ChooserKind::Last => Box::new(LastChooser),
            ChooserKind::Random(seed) => Box::new(RandomChooser::seeded(seed)),
        }
    }
}

const CHOOSERS: &[ChooserKind] = &[
    ChooserKind::First,
    ChooserKind::Last,
    ChooserKind::Random(0xD0E5),
];

const ENGINES: &[Engine] = &[Engine::SmallStep, Engine::BigStep, Engine::Plan];

/// Stores after each prefix of `MUTATIONS` on a durability-free
/// database: `prefixes[k]` is the store once the first `k` mutations
/// committed. The recovery contract quantifies over these.
fn reference_prefixes() -> Vec<Store> {
    let mut db = db_with(Engine::SmallStep, Durability::Off);
    let mut out = vec![db.store().clone()];
    for q in MUTATIONS {
        db.query(q).unwrap();
        out.push(db.store().clone());
    }
    out
}

/// The index of the reference prefix the recovered store matches, if
/// any.
fn matching_prefix(recovered: &Store, prefixes: &[Store]) -> Option<usize> {
    prefixes.iter().position(|p| equiv_stores(recovered, p))
}

/// Recovers `dir` into a fresh database (production file sink) and
/// returns it with the report.
fn recover(
    engine: Engine,
    durability: Durability,
    dir: &Path,
) -> Result<(Database, ioql::RecoveryReport), DbError> {
    let mut db = db_with(engine, durability);
    let report = db.attach_durable(dir)?;
    Ok((db, report))
}

/// Runs the full workload durably (clean, no faults) and returns the
/// database. Interleaves a read per mutation to exercise the effect
/// gate.
fn run_clean(engine: Engine, durability: Durability, dir: &Path) -> Database {
    let mut db = db_with(engine, durability);
    db.attach_durable(dir).unwrap();
    for q in MUTATIONS {
        db.query(q).unwrap();
        db.query(READ).unwrap();
    }
    db
}

// ---------------------------------------------------------------------
// Clean shutdown and checkpointing.

#[test]
fn clean_recovery_replays_definitions_and_queries() {
    for &engine in ENGINES {
        let dir = TempDir::new("clean");
        let mut db = db_with(engine, Durability::Commit);
        db.attach_durable(dir.path()).unwrap();
        db.define("define adults(min: int) as { p | p <- Persons, min <= p.age };")
            .unwrap();
        for q in MUTATIONS {
            db.query(q).unwrap();
            db.query(READ).unwrap();
        }
        let expected = db.store().clone();

        // One record per committed mutation + definition; the reads
        // passed the Theorem 7 write-free guard and skipped the log.
        assert_eq!(db.metrics().wal_appends.get(), MUTATIONS.len() as u64 + 1);
        assert!(db.metrics().wal_skipped_effect.get() >= MUTATIONS.len() as u64);
        assert_eq!(db.metrics().wal_fsyncs.get(), MUTATIONS.len() as u64 + 1);
        let status = db.wal_status().unwrap();
        assert_eq!(status.generation, 0);
        assert_eq!(status.appended, MUTATIONS.len() as u64 + 1);
        assert_eq!(status.pending, 0);
        assert!(!status.poisoned);
        drop(db);

        let (mut rec, report) = recover(engine, Durability::Commit, dir.path()).unwrap();
        assert_eq!(report.generation, 0);
        assert!(!report.checkpoint_loaded);
        assert_eq!(report.replayed_queries, MUTATIONS.len() as u64);
        assert_eq!(report.replayed_defs, 1);
        assert_eq!(report.torn_dropped, 0);
        assert!(
            equiv_stores(&rec.store(), &expected),
            "{engine:?}: recovered store differs from the one that shut down"
        );
        // The definition came back with the log.
        let r = rec.query("size(adults(21))").unwrap();
        assert_eq!(r.value.to_string(), "5");
    }
}

#[test]
fn checkpoint_folds_log_into_a_new_generation() {
    let dir = TempDir::new("ckpt");
    let mut db = db_with(Engine::BigStep, Durability::Commit);
    db.attach_durable(dir.path()).unwrap();
    db.define("define adults(min: int) as { p | p <- Persons, min <= p.age };")
        .unwrap();
    let (before, after) = MUTATIONS.split_at(4);
    for q in before {
        db.query(q).unwrap();
    }
    db.checkpoint().unwrap();
    assert_eq!(db.metrics().wal_checkpoints.get(), 1);
    assert_eq!(db.metrics().store_saves.get(), 1);
    assert_eq!(db.wal_status().unwrap().generation, 1);
    // The old generation's files are gone; the new pair is live.
    assert!(!wal_path(dir.path(), 0).exists());
    assert!(!checkpoint_path(dir.path(), 0).exists());
    assert!(wal_path(dir.path(), 1).exists());
    assert!(checkpoint_path(dir.path(), 1).exists());
    for q in after {
        db.query(q).unwrap();
    }
    let expected = db.store().clone();
    drop(db);

    let (mut rec, report) = recover(Engine::BigStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report.generation, 1);
    assert!(report.checkpoint_loaded);
    // Only the post-checkpoint suffix replays; the definition rides the
    // new log's preamble.
    assert_eq!(report.replayed_queries, after.len() as u64);
    assert_eq!(report.replayed_defs, 1);
    assert!(equiv_stores(&rec.store(), &expected));
    assert_eq!(rec.metrics().store_loads.get(), 1);
    assert!(rec.query("size(adults(0))").is_ok());
}

// ---------------------------------------------------------------------
// Crash-point sweeps.

/// Applies the workload under a crash factory; returns the number of
/// acknowledged (Ok) mutations. Asserts acknowledgements form a prefix
/// and that reads survive the poisoned log.
fn run_until_crash(db: &mut Database, kind: ChooserKind) -> usize {
    let mut acked = 0usize;
    let mut failed = false;
    for q in MUTATIONS {
        let mut chooser = kind.build();
        match db.run(q, RunArgs::default().chooser(chooser.as_mut())) {
            Ok(_) => {
                assert!(!failed, "commit acknowledged after an append failure");
                acked += 1;
            }
            Err(e) => {
                if failed {
                    // Fail-fast: the poison protocol names its escape
                    // hatch.
                    assert!(
                        e.to_string().contains("poisoned"),
                        "post-crash mutation error should cite the poisoned log: {e}"
                    );
                }
                failed = true;
            }
        }
        // Reads never touch the log; they outlive the crash.
        db.query(READ).unwrap();
    }
    if failed {
        assert!(db.wal_status().unwrap().poisoned);
    }
    acked
}

#[test]
fn crash_during_append_recovers_exactly_the_acked_prefix() {
    let prefixes = reference_prefixes();

    // Measure a clean log to size the byte-budget sweep.
    let full_len = {
        let dir = TempDir::new("measure");
        let db = run_clean(Engine::SmallStep, Durability::Commit, dir.path());
        drop(db);
        std::fs::metadata(wal_path(dir.path(), 0)).unwrap().len()
    };
    assert!(full_len > 100, "workload too small to sweep ({full_len}B)");

    let mut budgets: Vec<u64> = (0..full_len).step_by(29).collect();
    budgets.extend([1, full_len - 1, full_len]);

    for &engine in ENGINES {
        for &kind in CHOOSERS {
            for &budget in &budgets {
                let dir = TempDir::new("append-crash");
                let mut db = db_with(engine, Durability::Commit);
                db.attach_durable_with(dir.path(), CrashSink::factory(Some(budget), None))
                    .unwrap();
                let acked = run_until_crash(&mut db, kind);
                drop(db);

                let (rec, report) =
                    recover(engine, Durability::Commit, dir.path()).unwrap_or_else(|e| {
                        panic!("{engine:?}/{kind:?}/budget {budget}: recovery failed: {e}")
                    });
                let k = matching_prefix(&rec.store(), &prefixes).unwrap_or_else(|| {
                    panic!(
                        "{engine:?}/{kind:?}/budget {budget}: recovered store matches no \
                         committed prefix (acked {acked})"
                    )
                });
                // A crash mid-`write(2)` tears the in-flight record; the
                // tail is dropped, so recovery lands exactly on the
                // acknowledged prefix — never short of it.
                assert_eq!(
                    k, acked,
                    "{engine:?}/{kind:?}/budget {budget}: recovered prefix {k} != acked {acked} \
                     (torn {})",
                    report.torn_dropped
                );
                assert!(report.torn_dropped <= 1);
            }
        }
    }
}

#[test]
fn fsync_crash_never_loses_an_acked_commit() {
    let prefixes = reference_prefixes();
    for &engine in ENGINES {
        for &kind in CHOOSERS {
            for sync_budget in 0..=MUTATIONS.len() as u64 {
                let dir = TempDir::new("sync-crash");
                let mut db = db_with(engine, Durability::Commit);
                db.attach_durable_with(dir.path(), CrashSink::factory(None, Some(sync_budget)))
                    .unwrap();
                let acked = run_until_crash(&mut db, kind);
                assert_eq!(acked as u64, sync_budget.min(MUTATIONS.len() as u64));
                drop(db);

                let (rec, _) = recover(engine, Durability::Commit, dir.path()).unwrap();
                let k = matching_prefix(&rec.store(), &prefixes)
                    .unwrap_or_else(|| panic!("{engine:?}/{kind:?}/sync {sync_budget}: no prefix"));
                // The record whose fsync died is fully on disk (the
                // bytes landed; only the barrier failed), so recovery
                // may replay one commit *beyond* the acknowledged set —
                // allowed: the contract bounds loss, not survival.
                assert!(
                    k >= acked && k <= (acked + 1).min(MUTATIONS.len()),
                    "{engine:?}/{kind:?}/sync {sync_budget}: prefix {k} vs acked {acked}"
                );
            }
        }
    }
}

#[test]
fn batch_mode_group_commits_and_bounds_tail_loss() {
    let prefixes = reference_prefixes();

    // Clean Batch(3) run: fsyncs amortise, the tail stays pending until
    // checkpoint/flush, and at least one real group commit happens.
    let dir = TempDir::new("batch-clean");
    let mut db = db_with(Engine::BigStep, Durability::Batch(3));
    db.attach_durable(dir.path()).unwrap();
    for q in MUTATIONS {
        db.query(q).unwrap();
    }
    assert_eq!(db.metrics().wal_appends.get(), 6);
    assert_eq!(db.metrics().wal_fsyncs.get(), 2); // records 3 and 6
    assert!(db.metrics().wal_group_commits.get() >= 2);
    assert_eq!(db.wal_status().unwrap().pending, 0);
    drop(db);
    let (rec, _) = recover(Engine::BigStep, Durability::Batch(3), dir.path()).unwrap();
    assert_eq!(
        matching_prefix(&rec.store(), &prefixes),
        Some(MUTATIONS.len())
    );

    // Sync-crash under Batch(2): commits are *acknowledged* before
    // their group's fsync, so the unsynced tail is legitimately at
    // risk — but every commit covered by a successful fsync must
    // survive.
    for sync_budget in 0..=2u64 {
        let dir = TempDir::new("batch-crash");
        let mut db = db_with(Engine::SmallStep, Durability::Batch(2));
        db.attach_durable_with(dir.path(), CrashSink::factory(None, Some(sync_budget)))
            .unwrap();
        let mut acked = 0usize;
        for q in MUTATIONS {
            if db.query(q).is_ok() {
                acked += 1;
            }
        }
        let synced = (2 * sync_budget) as usize;
        drop(db);
        let (rec, _) = recover(Engine::SmallStep, Durability::Batch(2), dir.path()).unwrap();
        let k = matching_prefix(&rec.store(), &prefixes)
            .unwrap_or_else(|| panic!("batch sync {sync_budget}: no prefix"));
        assert!(
            k >= synced && k <= acked.max(synced) + 1,
            "batch sync {sync_budget}: prefix {k}, synced {synced}, acked {acked}"
        );
    }
}

// ---------------------------------------------------------------------
// Torn tails and corruption.

#[test]
fn torn_tail_is_dropped_silently_counted_and_repaired() {
    let prefixes = reference_prefixes();
    let dir = TempDir::new("torn");
    let db = run_clean(Engine::SmallStep, Durability::Commit, dir.path());
    drop(db);

    // Tear the final record mid-line — the shape a crash mid-write
    // leaves behind.
    let log = wal_path(dir.path(), 0);
    let text = std::fs::read_to_string(&log).unwrap();
    let cut = text.trim_end().rfind('\n').unwrap() + 10;
    std::fs::write(&log, &text[..cut]).unwrap();

    let (mut rec, report) = recover(Engine::SmallStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report.torn_dropped, 1);
    assert_eq!(report.replayed_queries, MUTATIONS.len() as u64 - 1);
    assert_eq!(rec.metrics().wal_torn_dropped.get(), 1);
    assert_eq!(
        matching_prefix(&rec.store(), &prefixes),
        Some(MUTATIONS.len() - 1)
    );

    // The attach rewrote the log from its intact records: the torn
    // bytes are gone, new appends chain cleanly, and a second recovery
    // sees a whole file.
    rec.query(MUTATIONS[MUTATIONS.len() - 1]).unwrap();
    drop(rec);
    let (rec2, report2) = recover(Engine::SmallStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report2.torn_dropped, 0);
    assert_eq!(report2.replayed_queries, MUTATIONS.len() as u64);
    assert!(matching_prefix(&rec2.store(), &prefixes).is_some());
}

#[test]
fn mid_log_corruption_fails_with_a_line_accurate_diagnostic() {
    let dir = TempDir::new("midlog");
    let db = run_clean(Engine::BigStep, Durability::Commit, dir.path());
    drop(db);

    // Damage record seq 2 — line 3 of the file (header is line 1).
    let log = wal_path(dir.path(), 0);
    let text = std::fs::read_to_string(&log).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut damaged: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
    let target = damaged[2].clone();
    let flip = target.len() - 3;
    damaged[2] = format!(
        "{}{}{}",
        &target[..flip],
        if &target[flip..flip + 1] == "z" {
            "y"
        } else {
            "z"
        },
        &target[flip + 1..]
    );
    std::fs::write(&log, damaged.join("\n") + "\n").unwrap();

    let err = recover(Engine::BigStep, Durability::Commit, dir.path()).unwrap_err();
    match err {
        DbError::Wal(e) => {
            assert_eq!(e.line, 3, "diagnostic must name the damaged line: {e}");
            assert!(
                matches!(e.kind, WalErrorKind::Corrupt | WalErrorKind::Malformed),
                "unexpected kind: {e}"
            );
        }
        other => panic!("expected a WAL diagnostic, got {other}"),
    }
}

#[test]
fn wal_corruption_catalogue_never_panics_and_never_invents_state() {
    let prefixes = reference_prefixes();
    let pristine = {
        let dir = TempDir::new("cat-measure");
        drop(run_clean(Engine::SmallStep, Durability::Commit, dir.path()));
        std::fs::read_to_string(wal_path(dir.path(), 0)).unwrap()
    };

    for seed in 0..24u64 {
        let (damaged, kind) = corrupt_dump(&pristine, seed);
        let dir = TempDir::new("cat");
        std::fs::write(wal_path(dir.path(), 0), &damaged).unwrap();
        match recover(Engine::SmallStep, Durability::Commit, dir.path()) {
            // Tolerated damage must be tail damage: the survivors are a
            // committed prefix, nothing more.
            Ok((rec, report)) => {
                let k = matching_prefix(&rec.store(), &prefixes).unwrap_or_else(|| {
                    panic!("seed {seed} ({kind:?}): tolerated damage invented state")
                });
                assert!(k <= MUTATIONS.len());
                assert!(
                    !matches!(kind, Corruption::Header),
                    "seed {seed}: a damaged header must never be tolerated"
                );
                let _ = report;
            }
            Err(DbError::Wal(e)) => {
                if matches!(kind, Corruption::Header) {
                    assert!(
                        matches!(
                            e.kind,
                            WalErrorKind::MissingHeader
                                | WalErrorKind::VersionMismatch
                                | WalErrorKind::GenerationMismatch
                                | WalErrorKind::Malformed
                        ),
                        "seed {seed}: header damage misdiagnosed: {e}"
                    );
                }
            }
            Err(other) => panic!("seed {seed} ({kind:?}): non-WAL error: {other}"),
        }
    }
}

// ---------------------------------------------------------------------
// Checkpoint crash states.

#[test]
fn orphan_next_generation_log_is_ignored() {
    let prefixes = reference_prefixes();
    let dir = TempDir::new("orphan");
    drop(run_clean(Engine::SmallStep, Durability::Commit, dir.path()));

    // A crash between "write wal-1" and "rename checkpoint-1" leaves an
    // orphan log with no checkpoint: generation 0 is still the live one.
    std::fs::write(wal_path(dir.path(), 1), "ioql-wal v1 gen=1\n").unwrap();

    let (rec, report) = recover(Engine::SmallStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report.generation, 0);
    assert_eq!(
        matching_prefix(&rec.store(), &prefixes),
        Some(MUTATIONS.len())
    );
    // Recovery cleaned the orphan up.
    assert!(!wal_path(dir.path(), 1).exists());
}

#[test]
fn stale_previous_generation_files_are_ignored_and_cleaned() {
    let prefixes = reference_prefixes();
    let dir = TempDir::new("stale");
    let mut db = run_clean(Engine::SmallStep, Durability::Commit, dir.path());
    db.checkpoint().unwrap();
    drop(db);

    // A crash after the rename but before cleanup leaves generation 0's
    // files behind; junk content must not matter — they are dead.
    std::fs::write(wal_path(dir.path(), 0), "not even a wal").unwrap();
    std::fs::write(checkpoint_path(dir.path(), 0), "junk").unwrap();

    let (rec, report) = recover(Engine::SmallStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report.generation, 1);
    assert!(report.checkpoint_loaded);
    assert_eq!(
        matching_prefix(&rec.store(), &prefixes),
        Some(MUTATIONS.len())
    );
    assert!(!wal_path(dir.path(), 0).exists());
    assert!(!checkpoint_path(dir.path(), 0).exists());
}

// ---------------------------------------------------------------------
// Poison protocol and transparency.

#[test]
fn poisoned_log_fails_fast_until_a_checkpoint_rebuilds() {
    let dir = TempDir::new("poison");
    let mut db = db_with(Engine::BigStep, Durability::Commit);
    db.attach_durable_with(dir.path(), CrashSink::factory(None, Some(1)))
        .unwrap();

    db.query(MUTATIONS[0]).unwrap(); // fsync #1 — acked
    let err = db.query(MUTATIONS[1]).unwrap_err(); // fsync #2 dies
    assert!(err.to_string().contains("append failed"), "{err}");
    assert!(db.wal_status().unwrap().poisoned);

    // Mutations fail fast; reads and analysis still work.
    let err = db.query(MUTATIONS[2]).unwrap_err();
    assert!(err.to_string().contains("poisoned"), "{err}");
    db.query(READ).unwrap();

    // The checkpoint rebuilds the baseline from memory (the factory's
    // later sinks are unbudgeted) and clears the poison.
    db.checkpoint().unwrap();
    assert!(!db.wal_status().unwrap().poisoned);
    db.query(MUTATIONS[2]).unwrap();
    let expected = db.store().clone();
    drop(db);

    let (rec, report) = recover(Engine::BigStep, Durability::Commit, dir.path()).unwrap();
    assert_eq!(report.generation, 1);
    assert!(equiv_stores(&rec.store(), &expected));
}

#[test]
fn durability_off_changes_no_observable() {
    // Same workload on (a) a plain database and (b) one with an
    // attached durable directory but durability Off: every observable —
    // values, runtime effects, dumps, metrics (minus the wal/store
    // counters' own families) — must be identical. `Off` is the pre-WAL
    // behaviour, not a quieter WAL. Duration histograms measure wall
    // time and are excluded: nondeterministic on any build.
    let strip = |metrics: String| -> String {
        metrics
            .lines()
            .filter(|l| {
                !l.contains("ioql_wal_")
                    && !l.contains("ioql_store_")
                    && !l.contains("duration_ns")
                    && !l.contains("busy_ns")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };

    let mut plain = db_with(Engine::SmallStep, Durability::Off);
    let dir = TempDir::new("transparent");
    let mut durable = db_with(Engine::SmallStep, Durability::Off);
    durable.attach_durable(dir.path()).unwrap();

    for q in MUTATIONS.iter().chain([&READ, &"{ p.age | p <- Persons }"]) {
        let a = plain.query(q).unwrap();
        let b = durable.query(q).unwrap();
        assert_eq!(a.value, b.value, "value diverged on {q}");
        assert_eq!(
            a.runtime_effect, b.runtime_effect,
            "runtime effect diverged on {q}"
        );
    }
    assert_eq!(plain.dump(), durable.dump(), "stores diverged");
    assert_eq!(
        strip(plain.metrics_text()),
        strip(durable.metrics_text()),
        "metrics diverged beyond the wal/store families"
    );
    // And nothing was logged: the generation-0 file holds only its
    // header.
    let log = std::fs::read_to_string(wal_path(dir.path(), 0)).unwrap();
    assert_eq!(log, "ioql-wal v1 gen=0\n");
}

// ---------------------------------------------------------------------
// `:load` under durability: checkpoint-failure atomicity.

/// A `:load` on a durable database swaps the store in memory and then
/// checkpoints the loaded state. If the checkpoint fails, the swap must
/// be **rolled back**: without the rollback, the session keeps
/// answering from the loaded store while recovery — the log still
/// describes the replaced one — silently resurrects the old state
/// after a crash.
#[test]
fn failed_load_checkpoint_rolls_back_the_swap() {
    let dir = TempDir::new("load-rollback");
    let mut db = db_with(Engine::BigStep, Durability::Commit);
    db.attach_durable(dir.path()).unwrap();
    db.query(MUTATIONS[0]).unwrap();
    db.query(MUTATIONS[1]).unwrap();
    let before = db.store().clone();

    // A dump of a recognizably different store.
    let (dump, loaded_ref) = {
        let mut other = db_with(Engine::BigStep, Durability::Off);
        other.query(MUTATIONS[5]).unwrap();
        let snapshot = other.store().clone();
        (other.dump(), snapshot)
    };

    // Sabotage the next checkpoint generation: a directory squatting on
    // `wal-<g+1>.log` makes the new log's creation fail — *after* the
    // load has already swapped stores in memory.
    let gen = db.wal_status().unwrap().generation;
    std::fs::create_dir(wal_path(dir.path(), gen + 1)).unwrap();

    let err = db.load(&dump).unwrap_err();
    assert!(
        err.to_string().contains("create"),
        "the error cites the failed checkpoint: {err}"
    );
    // The swap was rolled back: memory still holds the old store, the
    // generation did not advance, and the log is not poisoned.
    assert_eq!(
        &*db.store(),
        &before,
        "failed load must leave the store untouched"
    );
    let status = db.wal_status().unwrap();
    assert_eq!(status.generation, gen);
    assert!(
        !status.poisoned,
        "a failed checkpoint is not a failed append"
    );

    // The database keeps committing against the old state…
    db.query(MUTATIONS[2]).unwrap();
    let expected = {
        let mut reference = db_with(Engine::BigStep, Durability::Off);
        for q in &MUTATIONS[..3] {
            reference.query(q).unwrap();
        }
        let snapshot = reference.store().clone();
        snapshot
    };
    drop(db);

    // …and a crash recovers exactly that history — memory and disk
    // never disagreed.
    std::fs::remove_dir(wal_path(dir.path(), gen + 1)).unwrap();
    let (mut rec, _) = recover(Engine::BigStep, Durability::Commit, dir.path()).unwrap();
    assert!(
        equiv_stores(&rec.store(), &expected),
        "recovery must replay the pre-load history"
    );

    // With the obstruction gone, the same load succeeds and the loaded
    // store becomes the durable baseline.
    rec.load(&dump).unwrap();
    assert!(equiv_stores(&rec.store(), &loaded_ref));
    drop(rec);
    let (rec2, report) = recover(Engine::BigStep, Durability::Commit, dir.path()).unwrap();
    assert!(
        report.checkpoint_loaded,
        "the load's checkpoint is the baseline"
    );
    assert!(
        equiv_stores(&rec2.store(), &loaded_ref),
        "recovery after a successful load yields the loaded store"
    );
}

// ---------------------------------------------------------------------
// `Batch(n)` acknowledgement boundaries.

/// `Batch(1)` *is* `Commit`: every record's acknowledgement has its own
/// fsync behind it, so under any crash point the two modes ack the same
/// prefix, fsync the same number of times, and recover the same store.
#[test]
fn batch_of_one_acknowledges_like_commit() {
    let prefixes = reference_prefixes();

    // Clean runs: identical fsync cadence (one per append), never a
    // pending record.
    for mode in [Durability::Commit, Durability::Batch(1)] {
        let dir = TempDir::new("batch1-clean");
        let mut db = db_with(Engine::BigStep, mode);
        db.attach_durable(dir.path()).unwrap();
        for q in MUTATIONS {
            db.query(q).unwrap();
            assert_eq!(
                db.wal_status().unwrap().pending,
                0,
                "{mode:?}: no acked record may wait"
            );
        }
        assert_eq!(
            db.metrics().wal_fsyncs.get(),
            db.metrics().wal_appends.get()
        );
        assert_eq!(
            db.metrics().wal_group_commits.get(),
            0,
            "{mode:?}: groups of one are not group commits"
        );
    }

    // Sync-crash sweep: at every crash point both modes acknowledge the
    // same commits and recover the same prefix — and no acked commit is
    // ever lost.
    for sync_budget in 0..=4u64 {
        let mut per_mode = Vec::new();
        for mode in [Durability::Commit, Durability::Batch(1)] {
            let dir = TempDir::new("batch1-crash");
            let mut db = db_with(Engine::SmallStep, mode);
            db.attach_durable_with(dir.path(), CrashSink::factory(None, Some(sync_budget)))
                .unwrap();
            let acks: Vec<bool> = MUTATIONS.iter().map(|q| db.query(q).is_ok()).collect();
            drop(db);
            let (rec, _) = recover(Engine::SmallStep, mode, dir.path()).unwrap();
            let k = matching_prefix(&rec.store(), &prefixes)
                .unwrap_or_else(|| panic!("{mode:?} sync {sync_budget}: no prefix"));
            let acked = acks.iter().filter(|a| **a).count();
            assert!(
                k >= acked,
                "{mode:?} sync {sync_budget}: acked commit lost (prefix {k}, acked {acked})"
            );
            per_mode.push((acks, k));
        }
        assert_eq!(
            per_mode[0], per_mode[1],
            "sync {sync_budget}: Batch(1) must ack and recover exactly like Commit"
        );
    }
}

/// Under `Batch(n)` the only records at risk are the acknowledged-but-
/// unsynced tail, and that tail is always shorter than `n`: a crash may
/// lose it, but never a record covered by a group fsync.
#[test]
fn batch_tail_loss_is_bounded_by_group_size() {
    let prefixes = reference_prefixes();
    for n in [2u64, 3] {
        // Clean partial run: the pending tail is exactly `appends mod n`,
        // strictly below `n` at every point.
        let dir = TempDir::new("batch-tail");
        let mut db = db_with(Engine::BigStep, Durability::Batch(n as usize));
        db.attach_durable(dir.path()).unwrap();
        for (i, q) in MUTATIONS[..5].iter().enumerate() {
            db.query(q).unwrap();
            let pending = db.wal_status().unwrap().pending;
            assert_eq!(
                pending,
                (i as u64 + 1) % n,
                "Batch({n}) pending after {} appends",
                i + 1
            );
            assert!(
                pending < n,
                "the unacked tail must stay below the group size"
            );
        }

        // Crash sweep: whatever the crash point, the recovered prefix
        // drops at most the sub-group tail — strictly fewer than `n`
        // acknowledged records.
        for sync_budget in 0..=3u64 {
            let dir = TempDir::new("batch-tail-crash");
            let mut db = db_with(Engine::SmallStep, Durability::Batch(n as usize));
            db.attach_durable_with(dir.path(), CrashSink::factory(None, Some(sync_budget)))
                .unwrap();
            let acked = MUTATIONS.iter().filter(|q| db.query(q).is_ok()).count();
            drop(db);
            let (rec, _) =
                recover(Engine::SmallStep, Durability::Batch(n as usize), dir.path()).unwrap();
            let k = matching_prefix(&rec.store(), &prefixes)
                .unwrap_or_else(|| panic!("Batch({n}) sync {sync_budget}: no prefix"));
            assert!(
                k + (n as usize) > acked,
                "Batch({n}) sync {sync_budget}: lost {} acked records, bound is {}",
                acked.saturating_sub(k),
                n - 1
            );
        }
    }
}
