//! Crash-safe durability: attaching a durable directory, checkpointing,
//! and startup recovery.
//!
//! The moving parts live in `ioql_store::wal` (record framing, torn-tail
//! parsing, fsync policy); this module owns the *database-level*
//! protocol:
//!
//! * **Attach** ([`Database::attach_durable`]) — point a database at a
//!   directory. Recovery runs first: load the newest complete
//!   checkpoint (a v2 dump), then replay the matching log's suffix of
//!   committed queries through a `ScriptedChooser` built from each
//!   record's recorded draw trace. A torn final record is dropped and
//!   counted; mid-log corruption aborts the attach with a line-accurate
//!   diagnostic. After recovery the log is reopened and subsequent
//!   committed mutations append to it.
//! * **Checkpoint** ([`Database::checkpoint`]) — fold the log into a
//!   fresh baseline. The procedure is crash-safe by ordering alone:
//!   write the next generation's log (header + re-logged definitions)
//!   first, then atomically rename the new checkpoint into place — the
//!   rename is the commit point — then clean up the old generation. A
//!   crash at any step leaves one complete generation on disk.
//! * **Append** (called from the query path) — one record per committed
//!   mutating query, after the store mutation succeeds but before the
//!   commit is acknowledged to the caller. If the append or its fsync
//!   fails, the commit is rolled back and the log is **poisoned**:
//!   subsequent mutating queries fail fast (the on-disk tail is
//!   suspect) until a checkpoint rebuilds the baseline from memory.
//!
//! The recovery guarantee, checked by `tests/recovery.rs` across crash
//! points × choosers × engines: the recovered store is oid-bijection-
//! equivalent (`store::equiv`) to the store after some *prefix* of the
//! committed queries, and that prefix contains every commit whose
//! acknowledgement had `fsync` behind it.

use crate::database::{Database, RunArgs};
use crate::error::DbError;
use crate::kernel::DbKernel;
use ioql_eval::ScriptedChooser;
use ioql_store::wal::{checkpoint_path, parse_wal, scan_generations, wal_path, Wal, WalSink};
use ioql_store::{Durability, Store, WalError, WalErrorKind, WalPayload};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Builds the sink a [`Wal`] appends through, given the log's path. The
/// default factory opens the real file; the fault harness substitutes
/// sinks that lose writes after N bytes or fail their fsyncs. Called
/// again at every checkpoint (each generation gets a fresh sink), so the
/// factory must be reusable.
pub type SinkFactory = Arc<dyn Fn(&Path) -> std::io::Result<Box<dyn WalSink>> + Send + Sync>;

/// The durable state shared by a database and its clones: the open log,
/// its directory, and the poison flag.
pub struct DurableLog {
    dir: PathBuf,
    wal: Wal,
    poisoned: bool,
    factory: SinkFactory,
}

impl std::fmt::Debug for DurableLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableLog")
            .field("dir", &self.dir)
            .field("wal", &self.wal)
            .field("poisoned", &self.poisoned)
            .finish_non_exhaustive()
    }
}

/// What startup recovery found and did — returned by
/// [`Database::attach_durable`] and printed by the REPL's `--durable`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RecoveryReport {
    /// The generation recovered (newest complete checkpoint, or 0).
    pub generation: u64,
    /// Whether a checkpoint file was loaded (false for the empty
    /// generation-0 baseline).
    pub checkpoint_loaded: bool,
    /// Committed queries replayed from the log suffix.
    pub replayed_queries: u64,
    /// Definitions re-registered from the log.
    pub replayed_defs: u64,
    /// Torn trailing records dropped (0 or 1).
    pub torn_dropped: u64,
}

impl std::fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "recovered generation {} ({}), replayed {} quer{} + {} definition(s), {} torn record(s) dropped",
            self.generation,
            if self.checkpoint_loaded {
                "checkpoint + log"
            } else {
                "empty baseline + log"
            },
            self.replayed_queries,
            if self.replayed_queries == 1 { "y" } else { "ies" },
            self.replayed_defs,
            self.torn_dropped,
        )
    }
}

/// What a successful WAL append did on disk: whether this append
/// carried an fsync, and how many pending records that sync covered.
/// Feeds the flight recorder's `wal-append` span verdict.
#[derive(Clone, Copy, Debug)]
pub(crate) struct WalAppendAck {
    pub(crate) synced: bool,
    pub(crate) grouped: u64,
}

/// A snapshot of the durable log's state — the REPL's `:wal status`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WalStatus {
    /// The fsync policy in force.
    pub mode: Durability,
    /// The durable directory.
    pub dir: PathBuf,
    /// The live generation.
    pub generation: u64,
    /// Records appended to the live log so far.
    pub appended: u64,
    /// Appended records not yet fsynced (nonzero only under
    /// `Batch(n)`).
    pub pending: u64,
    /// Whether an append failure has poisoned the log (mutating queries
    /// fail fast until a checkpoint).
    pub poisoned: bool,
}

impl std::fmt::Display for WalStatus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wal: mode {}, dir {}, generation {}, {} record(s) appended, {} pending fsync{}",
            self.mode,
            self.dir.display(),
            self.generation,
            self.appended,
            self.pending,
            if self.poisoned {
                " — POISONED (append failed; run :checkpoint to rebuild)"
            } else {
                ""
            },
        )
    }
}

fn io_wal(msg: impl Into<String>) -> WalError {
    WalError {
        kind: WalErrorKind::Io,
        line: 0,
        message: msg.into(),
    }
}

/// Atomically writes `text` to `path` (temp + fsync + rename), mirroring
/// `dump::save_store`'s discipline. Used to rebuild a torn log before
/// reopening it for append, so partial bytes never precede new records.
fn write_atomic(path: &Path, text: &str) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(text.as_bytes())?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = std::fs::File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

impl Database {
    /// Attaches a durable directory with the production file sink:
    /// recovers its state (replacing this database's in-memory store and
    /// registering the log's definitions), then logs every subsequently
    /// committed mutating query per [`crate::DbOptions::durability`].
    ///
    /// Attach to a *freshly constructed* database: recovery replaces the
    /// store wholesale and re-registers logged definitions (a name that
    /// is already defined fails the replay).
    pub fn attach_durable(&mut self, dir: &Path) -> Result<RecoveryReport, DbError> {
        self.attach_durable_with(
            dir,
            Arc::new(|path: &Path| {
                Ok(Box::new(ioql_store::wal::FileSink::open_append(path)?) as Box<dyn WalSink>)
            }),
        )
    }

    /// As [`Database::attach_durable`], but appending through sinks built
    /// by `factory` — the fault harness's crash-point entry.
    ///
    /// Recovery itself (checkpoint load, log parse, torn-tail rewrite)
    /// reads and repairs the real files directly; only *appends* flow
    /// through the factory's sinks.
    pub fn attach_durable_with(
        &mut self,
        dir: &Path,
        factory: SinkFactory,
    ) -> Result<RecoveryReport, DbError> {
        if self.durable_handle().is_some() {
            return Err(io_wal("a durable directory is already attached").into());
        }
        std::fs::create_dir_all(dir)
            .map_err(|e| io_wal(format!("create {}: {e}", dir.display())))?;
        let gens =
            scan_generations(dir).map_err(|e| io_wal(format!("scan {}: {e}", dir.display())))?;
        let gen = gens.live();

        // 1. Baseline: the newest complete checkpoint, or the empty
        //    (schema-declared) store for generation 0.
        let ckpt = checkpoint_path(dir, gen);
        let checkpoint_loaded = ckpt.exists();
        if checkpoint_loaded {
            // A checkpoint that fails to load is real corruption — the
            // rename was atomic, so a crash cannot leave it half-written.
            self.load_from(&ckpt)?;
        } else {
            let mut fresh = Store::new();
            for (e, c) in self.schema().extents() {
                fresh.declare_extent(e.clone(), c.clone());
            }
            fresh.bump_versions_from(&self.store());
            *self.store_mut() = fresh;
        }

        // 2. Replay the log suffix.
        let log = wal_path(dir, gen);
        let parsed = match std::fs::read_to_string(&log) {
            Ok(text) => parse_wal(&text, gen)?,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => ioql_store::wal::ParsedWal {
                gen,
                records: Vec::new(),
                torn_dropped: 0,
            },
            Err(e) => return Err(io_wal(format!("read {}: {e}", log.display())).into()),
        };
        let mut replayed_queries = 0u64;
        let mut replayed_defs = 0u64;
        for rec in &parsed.records {
            // Line = seq + 1: the header is line 1 and intact records
            // are consecutive (the parser enforces the sequence chain).
            let line = rec.seq as usize + 1;
            match &rec.payload {
                WalPayload::Define { text } => {
                    self.define(text).map_err(|e| WalError {
                        kind: WalErrorKind::Replay,
                        line,
                        message: format!("replaying definition failed: {e}"),
                    })?;
                    replayed_defs += 1;
                }
                WalPayload::Query { text, draws } => {
                    self.replay_logged_query(text, draws)
                        .map_err(|e| WalError {
                            kind: WalErrorKind::Replay,
                            line,
                            message: format!("replaying query failed: {e}"),
                        })?;
                    replayed_queries += 1;
                }
            }
            self.metrics().wal_replayed.inc();
        }
        self.metrics().wal_torn_dropped.add(parsed.torn_dropped);

        // 3. Repair: if the tail was torn (or the log never existed),
        //    rewrite the file from the intact records so the partial
        //    bytes can never precede a future append.
        if parsed.torn_dropped > 0 || !log.exists() {
            let mut text = format!("ioql-wal v1 gen={gen}\n");
            for rec in &parsed.records {
                text.push_str(&ioql_store::wal::encode_record(rec.seq, &rec.payload));
            }
            write_atomic(&log, &text)
                .map_err(|e| io_wal(format!("rewrite {}: {e}", log.display())))?;
        }

        // 4. Clean up every other generation's files (the orphan log of
        //    a crashed checkpoint, stale predecessors). Best-effort.
        for g in gens.wals.iter().chain(gens.checkpoints.iter()) {
            if *g != gen {
                let _ = std::fs::remove_file(wal_path(dir, *g));
                let _ = std::fs::remove_file(checkpoint_path(dir, *g));
            }
        }

        // 5. Go live: open the log for appending through the factory.
        let sink = factory(&log).map_err(|e| io_wal(format!("open {}: {e}", log.display())))?;
        let wal = Wal::open_with_sink(
            sink,
            gen,
            parsed.records.len() as u64 + 1,
            self.options().durability,
        );
        self.set_durable_handle(Arc::new(Mutex::new(DurableLog {
            dir: dir.to_path_buf(),
            wal,
            poisoned: false,
            factory,
        })));
        Ok(RecoveryReport {
            generation: gen,
            checkpoint_loaded,
            replayed_queries,
            replayed_defs,
            torn_dropped: parsed.torn_dropped,
        })
    }

    /// Folds the log into a fresh checkpoint: generation `g` → `g+1`.
    /// Also the escape hatch for a poisoned log — the new baseline is
    /// written from the in-memory store, so the suspect tail is
    /// discarded and logging resumes clean.
    pub fn checkpoint(&mut self) -> Result<(), DbError> {
        let durability = self.options().durability;
        self.kernel().checkpoint(durability)
    }

    /// The durable log's current state, or `None` when no directory is
    /// attached.
    pub fn wal_status(&self) -> Option<WalStatus> {
        let durability = self.options().durability;
        self.kernel().wal_status(durability)
    }

    /// Replays one logged query: the elaborated text under a
    /// `ScriptedChooser` over the recorded draws, with the optimizer off
    /// (the text is already post-optimization), no resource limits, and
    /// the permissive discipline — the run was legal when it committed.
    fn replay_logged_query(&mut self, text: &str, draws: &[usize]) -> Result<(), DbError> {
        let saved = self.options();
        let mut replay_opts = saved.clone();
        replay_opts.optimize = false;
        replay_opts.require_deterministic = false;
        replay_opts.limits = ioql_eval::Limits::none();
        self.set_options(replay_opts);
        let mut chooser = ScriptedChooser::new(draws.to_vec());
        let result = self.run(text, RunArgs::default().chooser(&mut chooser));
        self.set_options(saved);
        result.map(|_| ())
    }
}

impl DbKernel {
    /// The kernel-side checkpoint: fold the log into generation `g+1`.
    ///
    /// Lock order: the state **read** guard is taken first and held for
    /// the whole procedure (the checkpoint must capture one consistent
    /// cut of store + definitions, and no writer may commit between the
    /// preamble and the store dump), then the durable mutex — the same
    /// state → durable order the query path uses, so sessions
    /// checkpointing concurrently with committing writers cannot
    /// deadlock.
    pub(crate) fn checkpoint(&self, durability: Durability) -> Result<(), DbError> {
        let state = self.read_state();
        let Some(handle) = self.durable_handle() else {
            return Err(io_wal("no durable directory attached").into());
        };
        let mut log = handle.lock().expect("durable lock");
        let gen = log.wal.generation();
        let next = gen + 1;

        // Flush the outgoing log first: every acknowledged-but-unsynced
        // record (Batch mode) becomes durable before we move on, so a
        // crash during the checkpoint cannot lose it.
        if !log.poisoned {
            let covered = log.wal.flush().map_err(|e| {
                log.poisoned = true;
                io_wal(format!("flush wal-{gen}: {e}"))
            })?;
            self.note_wal_sync(covered);
        }

        // Build the next generation's log: header plus a preamble
        // re-logging every live definition (checkpoints only cover the
        // store; definitions live in the log).
        let next_log_path = wal_path(&log.dir, next);
        std::fs::File::create(&next_log_path)
            .map_err(|e| io_wal(format!("create {}: {e}", next_log_path.display())))?;
        let sink = (log.factory)(&next_log_path)
            .map_err(|e| io_wal(format!("open {}: {e}", next_log_path.display())))?;
        let mut next_wal = Wal::create_with_sink(sink, next, durability)
            .map_err(|e| io_wal(format!("write wal-{next} header: {e}")))?;
        for def in &state.defs {
            next_wal
                .append(&WalPayload::Define {
                    text: def.to_string(),
                })
                .map_err(|e| io_wal(format!("write wal-{next} preamble: {e}")))?;
        }
        next_wal
            .flush()
            .map_err(|e| io_wal(format!("sync wal-{next}: {e}")))?;

        // The commit point: the checkpoint file appears atomically.
        // Until this rename, recovery still picks generation `gen`
        // (wal-{next} is an ignorable orphan); after it, generation
        // `next` — whose log replays exactly the definitions.
        ioql_store::save_store(&state.store, &checkpoint_path(&log.dir, next))?;
        self.metrics().store_saves.inc();

        // Switch and clean up the old generation (best-effort: stale
        // files are harmless, recovery ignores non-live generations).
        log.wal = next_wal;
        log.poisoned = false;
        let _ = std::fs::remove_file(wal_path(&log.dir, gen));
        let _ = std::fs::remove_file(checkpoint_path(&log.dir, gen));
        self.metrics().wal_checkpoints.inc();
        Ok(())
    }

    /// The durable log's current state, or `None` when no directory is
    /// attached. `durability` is the asking handle's fsync policy
    /// (options are per-handle; the log itself is shared).
    pub(crate) fn wal_status(&self, durability: Durability) -> Option<WalStatus> {
        let handle = self.durable_handle()?;
        let log = handle.lock().expect("durable lock");
        Some(WalStatus {
            mode: durability,
            dir: log.dir.clone(),
            generation: log.wal.generation(),
            appended: log.wal.next_seq() - 1,
            pending: log.wal.pending(),
            poisoned: log.poisoned,
        })
    }

    /// Appends one committed payload to the log, applying the fsync
    /// policy and the poison protocol. Called by the query path (for
    /// mutating queries) and by `define`, in both cases while the state
    /// write lock is held — the state → durable order. The returned ack
    /// says whether this append triggered an fsync and how many pending
    /// records that sync covered (for the flight recorder's wal span).
    pub(crate) fn wal_append(&self, payload: &WalPayload) -> Result<WalAppendAck, DbError> {
        let Some(handle) = self.durable_handle() else {
            return Ok(WalAppendAck {
                synced: false,
                grouped: 0,
            });
        };
        let mut log = handle.lock().expect("durable lock");
        if log.poisoned {
            return Err(io_wal(
                "write-ahead log poisoned by an earlier append failure; \
                 run :checkpoint to rebuild the baseline",
            )
            .into());
        }
        match log.wal.append(payload) {
            Ok(ack) => {
                self.metrics().wal_appends.inc();
                if ack.synced {
                    self.note_wal_sync(ack.grouped);
                }
                Ok(WalAppendAck {
                    synced: ack.synced,
                    grouped: ack.grouped,
                })
            }
            Err(e) => {
                // The failed write may be partially on disk; nothing
                // after it can be trusted to append cleanly. Fail every
                // later mutation fast until a checkpoint rebuilds.
                log.poisoned = true;
                Err(io_wal(format!("wal append failed: {e}")).into())
            }
        }
    }

    /// Records an fsync that covered `covered` pending records.
    fn note_wal_sync(&self, covered: u64) {
        if covered > 0 {
            self.metrics().wal_fsyncs.inc();
        }
        if covered > 1 {
            self.metrics().wal_group_commits.inc();
        }
    }
}
