//! Per-client session handles over a shared [`DbKernel`].
//!
//! A [`Session`] is what a connected client holds: a clone of the
//! kernel `Arc`, its own [`DbOptions`] (engine, optimizer, limits —
//! options are per-handle), a telemetry label, and optionally a
//! **session budget** — one long-lived [`Governor`] metering every
//! query the session runs, so a greedy client exhausts its own budget
//! instead of starving its neighbours (see
//! [`DbOptions::session_budget`]).
//!
//! Unlike the embedded [`Database`](crate::Database) facade, session
//! queries go through the admission controller ([`crate::sched`]):
//! write-free queries run concurrently against version-stamped
//! snapshots, writers serialize with a named interference witness, and
//! every result carries its [`Admitted`](crate::sched::Admitted) stamp.

use crate::database::{DbOptions, QueryResult, RunArgs};
use crate::error::DbError;
use crate::kernel::{DbKernel, ExecMode};
use ioql_eval::{EvalError, FirstChooser, Governor};
use std::sync::Arc;

/// One client's handle on a shared kernel. Cheap to create, `Send` —
/// the server spawns one per connection.
#[derive(Debug)]
pub struct Session {
    kernel: Arc<DbKernel>,
    options: DbOptions,
    label: String,
    /// The session-wide budget governor, when
    /// [`DbOptions::session_budget`] is set. One governor for the whole
    /// session: its meters accumulate across queries and its trips are
    /// this session's trips.
    budget: Option<Governor>,
    queries: u64,
    trips: u64,
}

impl Session {
    pub(crate) fn new(kernel: Arc<DbKernel>, options: DbOptions, label: String) -> Session {
        let budget = options
            .session_budget
            .map(|limits| Governor::new(limits).with_metrics(kernel.metrics().governor.clone()));
        Session {
            kernel,
            options,
            label,
            budget,
            queries: 0,
            trips: 0,
        }
    }

    /// The telemetry label this session was created with.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The shared kernel.
    pub fn kernel(&self) -> &Arc<DbKernel> {
        &self.kernel
    }

    /// This session's options (per-handle, like the facade's).
    pub fn options(&self) -> DbOptions {
        self.options.clone()
    }

    /// Replaces this session's options; takes effect on the next query.
    /// Changing [`DbOptions::session_budget`] here does **not** rebuild
    /// the budget governor — the budget is fixed at session creation,
    /// otherwise a client could reset its own quota.
    pub fn set_options(&mut self, options: DbOptions) {
        self.options = options;
    }

    /// Queries this session has submitted.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Queries refused by this session's resource governor (budget
    /// trips and cancellations).
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Remaining session budget, when one is set: `(cells spent,
    /// cell limit)` — the axis quotas most useful for a starvation
    /// diagnosis.
    pub fn budget_spent(&self) -> Option<u64> {
        self.budget.as_ref().map(|g| g.cells_spent())
    }

    /// One-line session summary for `:stats` and the server's `:stats`
    /// frame.
    pub fn describe(&self) -> String {
        let budget = match (&self.budget, self.budget_spent()) {
            (Some(_), Some(spent)) => format!(", budget cells spent {spent}"),
            _ => String::new(),
        };
        format!(
            "session {}: {} quer{}, {} governor trip(s){}",
            self.label,
            self.queries,
            if self.queries == 1 { "y" } else { "ies" },
            self.trips,
            budget,
        )
    }

    /// Registers `define …;` forms through the kernel (serialized —
    /// definitions are observable shared state). Returns the commit
    /// sequence stamp when at least one definition registered.
    pub fn define(&mut self, src: &str) -> Result<Option<u64>, DbError> {
        self.kernel.define(&self.options, src)
    }

    /// Runs a query through the admission controller with every
    /// per-call argument defaulted: `run(src, RunArgs::default())`.
    pub fn query(&mut self, src: &str) -> Result<QueryResult, DbError> {
        self.run(src, RunArgs::default())
    }

    /// Runs a query through the admission controller — the session's
    /// one entry point. `args` carries the per-call choices, each
    /// defaulted: the `(ND comp)` strategy ([`FirstChooser`]), the
    /// governor (the session's budget governor under
    /// [`DbOptions::session_budget`], else a fresh per-query one from
    /// [`DbOptions::limits`]; a caller-owned one overrides both), and
    /// the trace ID stamped into the query's flight-recorder record —
    /// what the server passes for wire queries carrying `trace=ID`.
    pub fn run(&mut self, src: &str, args: RunArgs<'_>) -> Result<QueryResult, DbError> {
        self.queries += 1;
        let fresh;
        let governor = match (args.governor, &self.budget) {
            (Some(g), _) | (None, Some(g)) => g,
            (None, None) => {
                fresh = Governor::new(self.options.limits)
                    .with_metrics(self.kernel.metrics().governor.clone());
                &fresh
            }
        };
        let mut first = FirstChooser;
        let chooser = args.chooser.unwrap_or(&mut first);
        let result = self.kernel.run_query(
            &self.options,
            src,
            chooser,
            governor,
            ExecMode::Admission,
            args.trace_id,
            Some(self.label.as_str()),
        );
        if let Err(DbError::Eval(EvalError::ResourceExhausted { .. } | EvalError::Cancelled)) =
            &result
        {
            self.trips += 1;
        }
        result
    }
}
