//! The effect-scheduled admission controller.
//!
//! The paper's effect system proves when two computations cannot
//! interfere (`Effect::interference_witness`, Theorems 7/8). PR 5 used
//! that license *inside* one query — chunked scans, partitioned hash
//! builds. This module uses the same machinery **between whole queries
//! from different sessions**: every query submitted through a
//! [`Session`](crate::Session) is typechecked and effect-inferred, and
//! the inferred effect decides its admission class:
//!
//! * **Concurrent** — a write-free, `new`-free query (no `A(C)`, no
//!   `U(C)` atom; Theorem 7's guard) cannot interfere with any other
//!   write-free query: the interference witness between two read-only
//!   effects is always `None` (reads commute with reads). Such queries
//!   are admitted immediately against a **version-stamped snapshot** of
//!   the store — the commit sequence number stamps exactly which
//!   committed writers the snapshot reflects — and run fully in
//!   parallel, never blocking writers and never blocked by them.
//! * **Serialized** — a query whose effect carries a write atom could
//!   race a concurrent reader (`R(C)` vs `A(C)`, `Ra(C)` vs `U(C)`).
//!   Writers therefore take the kernel's exclusive path and serialize
//!   in arrival order on the state write lock; each commit is assigned
//!   the next commit sequence number. The refusal-to-run-concurrently
//!   is **explained, not just enforced**: the scheduler names an
//!   interfering atom pair — against a real in-flight reader when one
//!   exists, otherwise against the mirror reader of the query's own
//!   write set — and carries it into telemetry
//!   (`ioql_sched_witnesses_total`, `:stats`).
//!
//! The correctness contract (pinned by `tests/server.rs`): concurrent
//! execution is observably equivalent to the serialized replay in which
//! writers run in commit order and each reader runs at its snapshot
//! stamp — a reader stamped `s` sees exactly the effects of commits
//! `1..=s`. Readers are pure (their effect proves it), so this
//! reader/writer discipline is serializable, not merely
//! snapshot-isolated: there is no write skew without writes.

use ioql_effects::Effect;
use ioql_schema::Schema;
use ioql_telemetry::{Counter, Histogram};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The admission controller's telemetry handles (registered in
/// [`DbMetrics`](crate::DbMetrics)). Write-only from the scheduler's
/// side, like every other metric group.
#[derive(Clone, Debug)]
pub struct SchedMetrics {
    /// Queries admitted concurrently against a snapshot
    /// (`ioql_sched_admitted_total`).
    pub admitted: Counter,
    /// Queries serialized onto the write path
    /// (`ioql_sched_serialized_total`).
    pub serialized: Counter,
    /// Interference witnesses recorded — one per serialization
    /// (`ioql_sched_witnesses_total`).
    pub witnesses: Counter,
    /// Submission-to-admission wait (`ioql_sched_wait_ns`): the time a
    /// query spent in preparation plus (for writers) blocked on the
    /// state write lock — the `sched-wait` span of its trace record.
    pub wait_ns: Histogram,
    /// Snapshot-acquire time (`ioql_sched_snapshot_ns`): the time spent
    /// stamping and spine-cloning the COW store under the read lock.
    /// With persistent extents this is `O(chunks)`, not `O(objects)` —
    /// this histogram is where that claim is checked in production. Fed
    /// from the `snapshot-acquire` span of each trace record.
    pub snapshot_ns: Histogram,
}

/// How the admission controller scheduled a query — stamped onto
/// [`QueryResult`](crate::QueryResult) for queries run through a
/// [`Session`](crate::Session) (`None` on the embedded exclusive path).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Admitted {
    /// Admitted concurrently against a snapshot that reflects exactly
    /// the first `snapshot_seq` committed writers.
    Concurrent {
        /// Commit sequence number the snapshot was stamped with.
        snapshot_seq: u64,
    },
    /// Serialized behind the state write lock; this commit is the
    /// `commit_seq`-th in the kernel's total write order. The witness
    /// names the interfering atom pair that refused concurrency.
    Serialized {
        /// Position of this commit in the total write order (1-based).
        commit_seq: u64,
        /// The interfering effect-atom pair `(writer side, reader
        /// side)`, e.g. `("A(Person)", "R(Person)")`.
        witness: (String, String),
    },
}

impl std::fmt::Display for Admitted {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Admitted::Concurrent { snapshot_seq } => {
                write!(f, "snapshot seq={snapshot_seq}")
            }
            Admitted::Serialized {
                commit_seq,
                witness,
            } => write!(
                f,
                "serialized seq={commit_seq} witness=({}, {})",
                witness.0, witness.1
            ),
        }
    }
}

/// Registry of in-flight concurrently-admitted readers.
#[derive(Debug, Default)]
struct SchedInner {
    next_reader: u64,
    inflight: BTreeMap<u64, Effect>,
    /// Most recent serialization witnesses, newest last (`:stats`).
    recent_witnesses: VecDeque<String>,
}

/// The admission controller's shared state: the commit sequence
/// counter (the kernel's total order on committed writers), the
/// in-flight reader registry, and the concurrency high-water mark.
#[derive(Debug, Default)]
pub struct Sched {
    inner: Mutex<SchedInner>,
    /// Committed writers so far — the version-stamp readers are
    /// admitted against. Bumped under the state write lock, so a reader
    /// holding the read lock observes a value consistent with the store
    /// it snapshots.
    commit_seq: AtomicU64,
    /// High-water mark of simultaneously in-flight readers — the
    /// direct evidence that read admissions genuinely overlapped.
    max_inflight: AtomicU64,
}

impl Sched {
    pub(crate) fn new() -> Sched {
        Sched::default()
    }

    /// Registers a concurrently-admitted reader. Must be called while
    /// holding the kernel state read lock so the returned snapshot
    /// stamp agrees with the store being cloned. Returns `(reader id,
    /// snapshot stamp)`.
    pub(crate) fn admit_reader(&self, effect: &Effect) -> (u64, u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.next_reader += 1;
        let id = inner.next_reader;
        inner.inflight.insert(id, effect.clone());
        let now = inner.inflight.len() as u64;
        self.max_inflight.fetch_max(now, Ordering::Relaxed);
        (id, self.commit_seq.load(Ordering::Acquire))
    }

    /// Deregisters a reader admitted by [`Sched::admit_reader`].
    pub(crate) fn finish_reader(&self, id: u64) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.inflight.remove(&id);
    }

    /// Assigns the next commit sequence number to a successfully
    /// committed writer. Must be called while still holding the state
    /// write lock, so the total order of stamps is the total order of
    /// commits.
    pub(crate) fn commit_writer(&self) -> u64 {
        self.commit_seq.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// The number of writers committed so far.
    pub(crate) fn commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Acquire)
    }

    /// Readers currently in flight.
    pub(crate) fn inflight_readers(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .inflight
            .len()
    }

    /// The highest number of readers ever simultaneously in flight.
    pub(crate) fn max_inflight_readers(&self) -> u64 {
        self.max_inflight.load(Ordering::Relaxed)
    }

    /// Names the interfering atom pair that forces `effect` onto the
    /// serialized path: preferentially against a *real* in-flight
    /// reader, otherwise against the mirror reader of the writer's own
    /// write set (a hypothetical session reading every extent this
    /// query writes — exactly what concurrent admission would permit).
    /// Records the witness for `:stats`.
    pub(crate) fn writer_witness(&self, effect: &Effect, schema: &Schema) -> (String, String) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let witness = inner
            .inflight
            .values()
            .find_map(|reader| effect.interference_witness(reader, schema))
            .or_else(|| {
                let mut mirror = Effect::empty();
                mirror.reads = effect.adds.clone();
                mirror.attr_reads = effect.updates.clone();
                effect.interference_witness(&mirror, schema)
            })
            .unwrap_or_else(|| ("W".into(), "R".into()));
        inner
            .recent_witnesses
            .push_back(format!("({}, {})", witness.0, witness.1));
        while inner.recent_witnesses.len() > 8 {
            inner.recent_witnesses.pop_front();
        }
        witness
    }

    /// The most recent serialization witnesses, newest last.
    pub(crate) fn recent_witnesses(&self) -> Vec<String> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .recent_witnesses
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioql_ast::{ClassDef, ClassName};

    fn schema() -> Schema {
        Schema::new(vec![
            ClassDef::plain("Person", ClassName::object(), "Persons", []),
            ClassDef::plain("Robot", ClassName::object(), "Robots", []),
        ])
        .unwrap()
    }

    #[test]
    fn reader_registry_tracks_inflight_and_high_water() {
        let s = Sched::new();
        let (a, seq_a) = s.admit_reader(&Effect::read("Person"));
        let (b, seq_b) = s.admit_reader(&Effect::read("Robot"));
        assert_eq!((seq_a, seq_b), (0, 0));
        assert_eq!(s.inflight_readers(), 2);
        assert_eq!(s.max_inflight_readers(), 2);
        s.finish_reader(a);
        s.finish_reader(b);
        assert_eq!(s.inflight_readers(), 0);
        // The high-water mark is sticky.
        assert_eq!(s.max_inflight_readers(), 2);
    }

    #[test]
    fn commit_stamps_are_a_total_order_and_stamp_snapshots() {
        let s = Sched::new();
        assert_eq!(s.commit_writer(), 1);
        assert_eq!(s.commit_writer(), 2);
        let (_, seq) = s.admit_reader(&Effect::read("Person"));
        assert_eq!(seq, 2); // the snapshot reflects both commits
    }

    #[test]
    fn witness_prefers_a_real_inflight_reader() {
        let s = Sched::new();
        let sch = schema();
        let (id, _) = s.admit_reader(&Effect::read("Person"));
        let w = s.writer_witness(&Effect::add("Person"), &sch);
        assert_eq!(w, ("A(Person)".into(), "R(Person)".into()));
        s.finish_reader(id);
        // No reader in flight: the mirror reader of the write set.
        let w = s.writer_witness(&Effect::add("Robot"), &sch);
        assert_eq!(w, ("A(Robot)".into(), "R(Robot)".into()));
        let w = s.writer_witness(&Effect::update("Person"), &sch);
        assert_eq!(w, ("U(Person)".into(), "Ra(Person)".into()));
        assert_eq!(s.recent_witnesses().len(), 3);
    }
}
