//! Error type of the MVDB core.

use std::fmt;
use std::time::Duration;

/// Alias naming the evaluation-facing view of [`CoreError`]: the typed
/// errors a [`Backend`](crate::Backend) returns instead of hanging,
/// aborting, or allocating without bound
/// (`EvalError::{DeadlineExceeded, BudgetExceeded, WorkerPanicked, …}`).
pub type EvalError = CoreError;

/// Errors raised while building, translating or querying an MVDB.
#[derive(Debug)]
pub enum CoreError {
    /// A database-level error.
    Pdb(mv_pdb::PdbError),
    /// A query-level error.
    Query(mv_query::QueryError),
    /// An OBDD-level error.
    Obdd(mv_obdd::ObddError),
    /// An MV-index error.
    Index(mv_index::MvIndexError),
    /// An MLN error.
    Mln(mv_mln::MlnError),
    /// A MarkoView weight annotation could not be interpreted.
    InvalidViewWeight {
        /// Name of the view.
        view: String,
        /// The offending annotation text.
        annotation: String,
    },
    /// A MarkoView produced a negative or NaN weight for one of its tuples.
    InvalidTupleWeight {
        /// Name of the view.
        view: String,
        /// The offending weight.
        weight: f64,
    },
    /// The MVDB is inconsistent: the hard constraints exclude every world
    /// (`P0(¬W) = 0`), so conditional probabilities are undefined.
    InconsistentViews,
    /// The query passed to the engine was not Boolean where a Boolean query
    /// was required.
    NotBoolean(String),
    /// An index-backed backend was invoked with an
    /// [`EvalContext`](crate::backend::EvalContext) that carries no compiled
    /// MV-index.
    MissingIndex,
    /// The evaluation's wall-clock deadline passed before an answer was
    /// produced. Degradable: the resilience ladder may still answer the
    /// query on a cheaper rung.
    DeadlineExceeded {
        /// Time spent before the budget tripped.
        elapsed: Duration,
    },
    /// The evaluation's work budget (batch rows, arena nodes, samples)
    /// ran out. Degradable, like [`CoreError::DeadlineExceeded`].
    BudgetExceeded {
        /// Work units charged before the trip.
        steps: u64,
        /// The limit they exceeded.
        limit: u64,
    },
    /// The evaluation was cancelled cooperatively (caller gave up).
    Cancelled,
    /// A worker thread (or an isolated per-query evaluation) panicked; the
    /// panic was caught at the isolation boundary and quarantined to this
    /// error instead of tearing down the batch.
    WorkerPanicked {
        /// The isolation site that caught the panic.
        site: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The serving layer refused to admit the request: the bounded
    /// admission queue is full, or the estimated queue wait already
    /// exceeds the request's deadline so even the cheapest rung could not
    /// answer in time. Explicit backpressure — the caller should back off
    /// for at least `retry_after` and resubmit instead of buffering.
    Rejected {
        /// Suggested back-off before resubmitting.
        retry_after: Duration,
        /// Admission-queue depth observed at rejection time.
        depth: usize,
    },
    /// An [`UpdateBatch`](crate::UpdateBatch) failed validation — e.g. it
    /// targets a deterministic relation, an unknown view, or a row that
    /// does not exist. The whole batch is rejected before any op is
    /// applied, so the engine is unchanged.
    UpdateRejected {
        /// Why the batch was rejected.
        message: String,
    },
}

impl CoreError {
    /// Wraps a panic payload caught at an isolation boundary
    /// (`std::panic::catch_unwind` / a thread-join `Err`) into the typed
    /// [`CoreError::WorkerPanicked`] error.
    pub fn from_panic(site: &'static str, payload: &(dyn std::any::Any + Send)) -> Self {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        CoreError::WorkerPanicked { site, message }
    }

    /// Runs `body` inside an isolation boundary: a panic comes back as the
    /// typed [`CoreError::WorkerPanicked`] of `site`.
    pub(crate) fn trap<T>(
        site: &'static str,
        body: impl FnOnce() -> crate::Result<T>,
    ) -> crate::Result<T> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .unwrap_or_else(|payload| Err(CoreError::from_panic(site, payload.as_ref())))
    }

    /// `true` for errors that mean "this rung of evaluation gave up",
    /// not "the query is unanswerable": deadline/budget trips, caught
    /// panics, and bounded-synthesis refusals. The degradation ladder
    /// escalates past these; semantic errors (unknown relation, arity
    /// mismatch, inconsistent views, …) propagate unchanged because no
    /// cheaper rung can answer them either.
    pub fn is_degradable(&self) -> bool {
        matches!(
            self,
            CoreError::DeadlineExceeded { .. }
                | CoreError::BudgetExceeded { .. }
                | CoreError::Cancelled
                | CoreError::WorkerPanicked { .. }
                | CoreError::Obdd(mv_obdd::ObddError::NodeBudgetExceeded { .. })
                | CoreError::Obdd(mv_obdd::ObddError::Budget(_))
                | CoreError::Query(mv_query::QueryError::Budget(_))
        )
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Pdb(e) => write!(f, "database error: {e}"),
            CoreError::Query(e) => write!(f, "query error: {e}"),
            CoreError::Obdd(e) => write!(f, "OBDD error: {e}"),
            CoreError::Index(e) => write!(f, "MV-index error: {e}"),
            CoreError::Mln(e) => write!(f, "MLN error: {e}"),
            CoreError::InvalidViewWeight { view, annotation } => write!(
                f,
                "cannot interpret the weight annotation `[{annotation}]` of MarkoView `{view}`: \
                 expected a non-negative constant; use `MarkoView::with_weight_fn` for computed weights"
            ),
            CoreError::InvalidTupleWeight { view, weight } => write!(
                f,
                "MarkoView `{view}` produced the invalid tuple weight {weight}: weights must be in [0, +inf]"
            ),
            CoreError::InconsistentViews => write!(
                f,
                "the MarkoViews are inconsistent: every possible world violates a hard constraint"
            ),
            CoreError::NotBoolean(name) => {
                write!(f, "query `{name}` has head variables; bind them or use `answers`")
            }
            CoreError::MissingIndex => write!(
                f,
                "the MV-index backend needs a compiled index: build the context through \
                 `MvdbEngine` or use an index-free backend"
            ),
            CoreError::DeadlineExceeded { elapsed } => {
                write!(f, "evaluation deadline exceeded after {elapsed:?}")
            }
            CoreError::BudgetExceeded { steps, limit } => {
                write!(f, "evaluation work budget exhausted ({steps} steps, limit {limit})")
            }
            CoreError::Cancelled => write!(f, "evaluation cancelled"),
            CoreError::WorkerPanicked { site, message } => {
                write!(f, "worker panicked at isolation site `{site}`: {message}")
            }
            CoreError::Rejected { retry_after, depth } => write!(
                f,
                "request rejected by admission control (queue depth {depth}); retry after {retry_after:?}"
            ),
            CoreError::UpdateRejected { message } => {
                write!(f, "update batch rejected: {message}")
            }
        }
    }
}

impl std::error::Error for CoreError {}

impl From<mv_pdb::PdbError> for CoreError {
    fn from(e: mv_pdb::PdbError) -> Self {
        CoreError::Pdb(e)
    }
}

impl From<mv_query::QueryError> for CoreError {
    fn from(e: mv_query::QueryError) -> Self {
        CoreError::Query(e)
    }
}

impl From<mv_obdd::ObddError> for CoreError {
    fn from(e: mv_obdd::ObddError) -> Self {
        CoreError::Obdd(e)
    }
}

impl From<mv_index::MvIndexError> for CoreError {
    /// An OBDD- or query-level error raised inside the index is that error:
    /// a budget trip in the index's query kernel must read as the same
    /// degradable trip it is in any other layer.
    fn from(e: mv_index::MvIndexError) -> Self {
        match e {
            mv_index::MvIndexError::Obdd(e) => CoreError::Obdd(e),
            mv_index::MvIndexError::Query(e) => CoreError::Query(e),
            other => CoreError::Index(other),
        }
    }
}

impl From<mv_mln::MlnError> for CoreError {
    fn from(e: mv_mln::MlnError) -> Self {
        CoreError::Mln(e)
    }
}

impl From<mv_query::BudgetError> for CoreError {
    fn from(e: mv_query::BudgetError) -> Self {
        match e {
            mv_query::BudgetError::DeadlineExceeded { elapsed } => {
                CoreError::DeadlineExceeded { elapsed }
            }
            mv_query::BudgetError::StepBudgetExceeded { steps, limit } => {
                CoreError::BudgetExceeded { steps, limit }
            }
            mv_query::BudgetError::Cancelled => CoreError::Cancelled,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: CoreError = mv_pdb::PdbError::UnknownRelation("R".into()).into();
        assert!(e.to_string().contains('R'));
        let e = CoreError::InvalidViewWeight {
            view: "V1".into(),
            annotation: "count(pid)/2".into(),
        };
        assert!(e.to_string().contains("V1"));
        assert!(CoreError::InconsistentViews
            .to_string()
            .contains("inconsistent"));
    }
}
