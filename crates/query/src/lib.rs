//! `ix-query`: declarative RCA queries over recorded engine history.
//!
//! Where the live engine answers "what is wrong *right now*", this crate
//! answers questions about everything an attached `ix-history` store has
//! seen. A [`Query`] borrows an [`ix_core::Engine`] (for the trained
//! invariants, the signature database and the association measure) and a
//! [`ix_history::HistoryStore`] (for the data), and offers three typed
//! query families, each compiling to scans over the store:
//!
//! - [`Query::explanations`] — ranked root-cause explanations for a
//!   context's window. The default window is the engine's own diagnosis
//!   window (the tail of the current run), so a query over a recorded
//!   fault run reproduces the live signature-match ranking bit-exactly;
//!   [`Explanations::replay_recorded`] goes one step further and re-ranks
//!   straight from the recorded sweep scores, with no recompute at all.
//! - [`Query::cooccurrence`] — which invariant pairs are violated
//!   *together* across the recorded diagnoses (across runs and, if asked,
//!   across contexts): the repeat offenders that point at a shared cause.
//! - [`Query::counterfactual`] — "would the violations survive if metric
//!   M had behaved?": one metric's column is pinned to a baseline run's
//!   values, the association sweep re-runs on the patched window, and the
//!   report lists which violations clear, which appear, and the fraction
//!   of the factual violations attributable to the pinned metric.
//!
//! Every query exposes [`QueryPlan`] via a `plan()` method — the exact
//! sequence of history scans and engine computations it will run —
//! so "what will this cost" is answerable before running it.

#![warn(missing_docs)]

mod cooccur;
mod counterfactual;
mod error;
mod explain;
mod plan;
mod scan;

pub use cooccur::{Cooccurrence, CooccurrencePair, CooccurrenceReport};
pub use counterfactual::{Counterfactual, CounterfactualReport};
pub use error::QueryError;
pub use explain::Explanations;
pub use plan::{QueryPlan, ScanStep};
pub use scan::{all_context_rows, context_rows, TickRow};

use ix_core::{Engine, OperationContext};
use ix_history::HistoryStore;
use ix_metrics::MetricId;

/// The entry point: a borrowed engine (trained state) plus a borrowed
/// history store (recorded data).
#[derive(Clone, Copy)]
pub struct Query<'a> {
    engine: &'a Engine,
    history: &'a HistoryStore,
}

/// Assembles a [`Query`] in one expression; obtain one from
/// [`Query::builder`] and finish with [`QueryBuilder::build`], which
/// panics only if a required borrow was never supplied.
#[must_use = "builder methods return the builder; call .build() to produce the query"]
#[derive(Debug, Default, Clone, Copy)]
pub struct QueryBuilder<'a> {
    engine: Option<&'a Engine>,
    history: Option<&'a HistoryStore>,
}

impl<'a> QueryBuilder<'a> {
    /// The engine whose trained state (invariants, signatures, measure)
    /// answers the queries. Required.
    pub fn engine(mut self, engine: &'a Engine) -> Self {
        self.engine = Some(engine);
        self
    }

    /// The recorded data to query. Need not be the store attached to the
    /// engine — a store loaded from disk works the same. Required.
    pub fn history(mut self, history: &'a HistoryStore) -> Self {
        self.history = Some(history);
        self
    }

    /// The finished query surface.
    ///
    /// # Panics
    ///
    /// When [`QueryBuilder::engine`] or [`QueryBuilder::history`] was
    /// never called — both borrows are required.
    pub fn build(self) -> Query<'a> {
        Query {
            engine: self.engine.expect("QueryBuilder::engine is required"),
            history: self.history.expect("QueryBuilder::history is required"),
        }
    }
}

impl<'a> Query<'a> {
    /// The builder-first construction path.
    pub fn builder() -> QueryBuilder<'a> {
        QueryBuilder::default()
    }

    /// Ranked root-cause explanations for `context`'s recorded window.
    pub fn explanations(&self, context: &OperationContext) -> Explanations<'a> {
        Explanations::new(self.engine, self.history, context.clone())
    }

    /// Violation co-occurrence across every recorded diagnosis.
    pub fn cooccurrence(&self) -> Cooccurrence<'a> {
        Cooccurrence::new(self.engine, self.history)
    }

    /// Counterfactual scoring: re-diagnose `context`'s window with `pin`'s
    /// column replaced by baseline-run values.
    pub fn counterfactual(&self, context: &OperationContext, pin: MetricId) -> Counterfactual<'a> {
        Counterfactual::new(self.engine, self.history, context.clone(), pin)
    }
}

/// Resolves a context to its history id: the engine's registry first, then
/// a label scan over the store (covers stores loaded from disk next to a
/// fresh engine).
pub(crate) fn resolve_context(
    engine: &Engine,
    history: &HistoryStore,
    context: &OperationContext,
) -> Result<ix_core::ContextId, QueryError> {
    if let Some(id) = engine.context_registry().lookup(context) {
        if history.rows(id) > 0 {
            return Ok(id);
        }
    }
    let label = context.to_string();
    history
        .contexts()
        .into_iter()
        .find(|&id| history.label(id) == label)
        .ok_or_else(|| QueryError::UnknownContext(context.clone()))
}
