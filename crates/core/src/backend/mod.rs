//! The pluggable evaluation-backend layer.
//!
//! Every way of computing MVDB probabilities — the paper's MV-index, the
//! per-query augmented-OBDD baseline, Shannon expansion, safe plans, and
//! brute-force enumeration — implements the [`Backend`] trait: given a
//! Boolean query and an [`EvalContext`] (the translated database, the helper
//! query `W`, and optionally the compiled MV-index), it returns the query
//! probability under the MVDB semantics via Theorem 1,
//!
//! ```text
//! P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))
//! ```
//!
//! [`MvdbEngine`](crate::MvdbEngine), the brute-force validator and the
//! `mv-bench` figure harness all dispatch through this trait, so adding an
//! evaluation strategy is a one-module drop-in: implement [`Backend`], and
//! every comparison harness and agreement test picks it up through
//! [`EngineBackend::comparison_suite`].

use std::borrow::Cow;
use std::cell::{Cell, OnceCell, RefCell, RefMut};
use std::fmt;
use std::sync::Arc;

use fxhash::FxHashMap;
use mv_index::{IntersectAlgorithm, MvIndex, QueryScratch};
use mv_obdd::{ManagerStats, ObddManager, PiOrder};
use mv_pdb::{InDb, Row};
use mv_query::eval::EvalContext as QueryEvalContext;
use mv_query::lineage::{
    answer_clauses_with, clauses_with, lineage_with, AnswerClauses, ClauseBuffer, Lineage,
};
use mv_query::Ucq;

use crate::error::CoreError;
use crate::translate::TranslatedIndb;
use crate::Result;

pub mod brute;
pub mod index;
pub mod monte_carlo;
pub mod obdd;
pub mod resilient;
pub mod safe_plan;
pub mod shannon;

pub use brute::BruteForce;
pub use index::MvIndexBackend;
pub use monte_carlo::{MonteCarlo, MonteCarloParams};
pub use obdd::ObddPerQuery;
pub use resilient::{
    FaultKind, QueryFault, QueryOutcome, ResilienceConfig, ResilientBackend, Rung,
};
pub use safe_plan::SafePlan;
pub use shannon::Shannon;

pub use mv_query::approx::{ApproxAccumulator, ApproxAnswer, ApproxConfig, IntervalMethod};

/// Smallest `P0(¬W)` treated as consistent.
const MIN_NOT_W: f64 = 1e-300;

/// Everything a [`Backend`] may need to evaluate queries against a compiled
/// MVDB: the translated tuple-independent database, the helper query `W`,
/// and — when the offline phase ran — the compiled MV-index.
///
/// The context owns a [`mv_query::eval::EvalContext`] that resolves query
/// templates through the translated store's [`mv_query::PlanCache`]: a
/// query shape is compiled once per snapshot, whichever context, worker or
/// shard meets it first. The join indexes those plans probe belong to the
/// store's relations and are shared the same way, and the query kernel
/// comes from the index's pool of idle ones, so making a context per call,
/// per worker or per shard costs an empty map of resolved templates.
pub struct EvalContext<'a> {
    translated: &'a TranslatedIndb,
    index: Option<&'a MvIndex>,
    query_ctx: QueryEvalContext<'a>,
    /// `W`'s lineage: borrowed where someone already holds it (the copy
    /// the index kept from its compile, a shard's `W_s`), otherwise
    /// evaluated on first use.
    w_lineage: OnceCell<Cow<'a, Lineage>>,
    scalars: RefCell<FxHashMap<&'static str, f64>>,
    query_manager: OnceCell<ObddManager>,
    /// The kernel the exact rung runs in: checked out of the index's pool
    /// on first use and handed back when the context drops (a context
    /// without an index makes its own).
    scratch: RefCell<Option<QueryScratch>>,
    budget: Cell<Option<mv_query::EvalBudget>>,
}

impl<'a> EvalContext<'a> {
    /// A context without a compiled index (index-free backends only).
    pub fn new(translated: &'a TranslatedIndb) -> Self {
        EvalContext {
            translated,
            index: None,
            query_ctx: QueryEvalContext::with_plan_cache(
                translated.indb().database(),
                translated.plan_cache(),
            ),
            w_lineage: OnceCell::new(),
            scalars: RefCell::new(FxHashMap::default()),
            query_manager: OnceCell::new(),
            scratch: RefCell::new(None),
            budget: Cell::new(None),
        }
    }

    /// Installs (or clears) a cooperative [`mv_query::EvalBudget`] on this
    /// context. The budget propagates to every layer the context drives:
    /// the vectorized lineage executor polls it at batch boundaries, the
    /// query kernel polls it in its folds, and sampling backends poll it
    /// between batches. The query-side [`ObddManager`] carries no budget:
    /// no evaluation builds in it. Budgets are per-query in session use —
    /// install a fresh one before each query. The shared index is never
    /// budgeted, so one worker's deadline cannot cancel a sibling's
    /// evaluation.
    pub fn set_budget(&self, budget: Option<mv_query::EvalBudget>) {
        self.query_ctx.set_budget(budget);
        if let Some(kernel) = self.scratch.borrow_mut().as_mut() {
            kernel.set_budget(budget);
        }
        self.budget.set(budget);
    }

    /// The currently installed budget, if any.
    pub fn budget(&self) -> Option<mv_query::EvalBudget> {
        self.budget.get()
    }

    /// A context carrying the compiled MV-index (and borrowing the lineage
    /// of `W` the index was compiled from).
    pub fn with_index(translated: &'a TranslatedIndb, index: &'a MvIndex) -> Self {
        let mut ctx = Self::new(translated);
        ctx.index = Some(index);
        ctx.w_lineage = OnceCell::from(Cow::Borrowed(index.w_lineage()));
        ctx
    }

    /// This context with `w` standing in for `W`'s lineage: a shard worker
    /// evaluates against its shard's `W_s`, whose complement is all of `¬W`
    /// the shard's clause groups can depend on.
    pub(crate) fn with_w_lineage(mut self, w: &'a Lineage) -> Self {
        self.w_lineage = OnceCell::from(Cow::Borrowed(w));
        self
    }

    /// The translated tuple-independent database.
    pub fn translated(&self) -> &'a TranslatedIndb {
        self.translated
    }

    /// The translated database's possible-tuple store.
    pub fn indb(&self) -> &'a InDb {
        self.translated.indb()
    }

    /// The helper query `W` of Theorem 1, if the MVDB has any views.
    pub fn w(&self) -> Option<&'a Ucq> {
        self.translated.w()
    }

    /// The compiled MV-index, if the context was built from an engine.
    pub fn index(&self) -> Option<&'a MvIndex> {
        self.index
    }

    /// The lineage of `query` over the translated database, computed by the
    /// compiled slot-based matcher. Plans are templates shared through the
    /// store's plan cache, so a query shape is compiled once per snapshot
    /// no matter how many instances the harnesses, sessions or workers
    /// evaluate.
    pub fn lineage(&self, query: &Ucq) -> Result<Lineage> {
        Ok(lineage_with(query, self.indb(), &self.query_ctx)?)
    }

    /// The clauses of `query` as the exact online path carries them: one
    /// flat [`ClauseBuffer`], in match order, without a `Vec` per clause.
    /// [`EvalContext::lineage`] is the same clauses made canonical.
    pub fn clauses(&self, query: &Ucq) -> Result<ClauseBuffer> {
        Ok(clauses_with(query, self.indb(), &self.query_ctx)?)
    }

    /// The per-answer lineages of a non-Boolean query, through the store's
    /// plan cache (one compilation per query shape):
    /// [`EvalContext::answer_clauses`], each answer's clauses made canonical.
    pub fn answer_lineages(&self, query: &Ucq) -> Result<std::collections::BTreeMap<Row, Lineage>> {
        Ok(self.answer_clauses(query)?.into_lineages())
    }

    /// The clauses of every answer of a non-Boolean query, flat: one
    /// buffer with a range per answer, answers in row order, without a
    /// `Vec` per clause or a [`Lineage`] per answer.
    pub fn answer_clauses(&self, query: &Ucq) -> Result<AnswerClauses> {
        Ok(answer_clauses_with(query, self.indb(), &self.query_ctx)?)
    }

    /// The lineage of the helper query `W` (`None` when the MVDB has no
    /// views): borrowed from the compiled index when the context has one,
    /// otherwise evaluated once per context. Backends that evaluate many
    /// lineages against the same context — the per-answer loop of
    /// [`Backend::answers`] — must not recompute this join every time.
    pub fn w_lineage(&self) -> Result<Option<&Lineage>> {
        let Some(w) = self.w() else {
            return Ok(None);
        };
        if self.w_lineage.get().is_none() {
            let lineage = self.lineage(w)?;
            let _ = self.w_lineage.set(Cow::Owned(lineage));
        }
        Ok(self.w_lineage.get().map(|lineage| &**lineage))
    }

    /// The context's query kernel: where the MV-index backend folds,
    /// annotates and intersects a lineage. The first call checks one out of
    /// the index's pool ([`MvIndex::take_kernel`]) and the context owns it
    /// until it drops, so a context made per call, per shard or per server
    /// re-pin runs on the warm buffers of an earlier one, the exact rung
    /// takes no lock past that pop, and the kernel's counters are this
    /// context's alone.
    pub fn scratch(&self) -> RefMut<'_, QueryScratch> {
        RefMut::map(self.scratch.borrow_mut(), |kernel| {
            kernel.get_or_insert_with(|| {
                let mut kernel = self
                    .index
                    .map_or_else(QueryScratch::new, MvIndex::take_kernel);
                // A pooled kernel comes without a budget.
                if let Some(budget) = self.budget() {
                    kernel.set_budget(Some(budget));
                }
                kernel
            })
        })
    }

    /// The context's query-side [`ObddManager`] *shard*, created lazily over
    /// the index's variable order (or the identity `π` order when no index
    /// was compiled), for callers that build query diagrams against the
    /// index's order: a repeated lineage finds its nodes in the unique
    /// table, and each context owns its own shard, so parallel callers never
    /// contend on query-side writes. No evaluation path builds into it —
    /// the ladder's exact rung runs in [`EvalContext::scratch`],
    /// [`ObddPerQuery`] in a builder of its own — so it stays empty unless
    /// a caller uses it.
    pub fn query_manager(&self) -> &ObddManager {
        self.query_manager.get_or_init(|| match self.index {
            Some(index) => index.query_manager(),
            None => ObddManager::new(Arc::new(PiOrder::identity().tuple_order(self.indb()))),
        })
    }

    /// Counters of this context's query side alone: its kernel plus its
    /// manager shard (zero when nothing was evaluated yet).
    pub fn query_manager_stats(&self) -> ManagerStats {
        let shard = self.query_manager.get().map(ObddManager::stats);
        let kernel = self.scratch.borrow().as_ref().map(QueryScratch::stats);
        // A context that has not checked a kernel out reports an unused one.
        kernel.unwrap_or_else(|| QueryScratch::new().stats()) + shard.unwrap_or_default()
    }

    /// Combined manager counters attributable to this context: its own
    /// query-side stats, plus the index's compile counters
    /// ([`MvIndex::manager_stats`]) when an index is attached.
    pub fn manager_stats(&self) -> ManagerStats {
        let index = self.index.map(|i| i.manager_stats()).unwrap_or_default();
        self.query_manager_stats() + index
    }

    /// Shape statistics of the query templates this context resolved
    /// (disjuncts, scan/probe steps, slots), each counted once — not the
    /// whole shared cache.
    pub fn query_plan_stats(&self) -> mv_query::PlanStats {
        self.query_ctx.plan_stats()
    }

    /// Counters of the vectorized batch executor accumulated on this
    /// context: blocks scanned, CSR probes, batches.
    /// Every lineage and answer computation made through this context —
    /// including the `W`-lineage join of an index-free context —
    /// contributes.
    pub fn query_exec_stats(&self) -> mv_query::ExecStats {
        self.query_ctx.exec_stats()
    }

    /// Computes a scalar once per context under a caller-chosen key
    /// (backends use it to cache their answer-independent `P0(W)` across
    /// the per-answer loop of [`Backend::answers`]).
    pub fn cached_scalar(&self, key: &'static str, compute: impl FnOnce() -> f64) -> f64 {
        if let Some(v) = self.scalars.borrow().get(key) {
            return *v;
        }
        let v = compute();
        self.scalars.borrow_mut().insert(key, v);
        v
    }

    /// Rejects queries with head variables (backends compute probabilities
    /// of Boolean queries only; use [`Backend::answers`] otherwise).
    pub fn require_boolean(&self, query: &Ucq) -> Result<()> {
        if query.is_boolean() {
            Ok(())
        } else {
            Err(CoreError::NotBoolean(query.name.to_string()))
        }
    }
}

impl Drop for EvalContext<'_> {
    fn drop(&mut self) {
        if let (Some(index), Some(kernel)) = (self.index, self.scratch.get_mut().take()) {
            index.recycle_kernel(kernel);
        }
    }
}

impl fmt::Debug for EvalContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EvalContext")
            .field("num_tuples", &self.translated.num_tuples())
            .field("has_index", &self.index.is_some())
            .finish_non_exhaustive()
    }
}

/// One way of computing MVDB query probabilities.
///
/// Implementations are cheap, stateless descriptions of a strategy; all
/// per-database state lives in the [`EvalContext`]. That keeps backends
/// trivially constructible by harnesses and lets one context be shared
/// across strategies when comparing them.
pub trait Backend: fmt::Debug {
    /// Stable, human-readable identifier (used by benches and reports).
    fn name(&self) -> &'static str;

    /// The probability of the Boolean query `q` under the MVDB semantics.
    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64>;

    /// The MVDB probability of a precomputed lineage (the conditional
    /// `P0(lineage ∧ ¬W) / P0(¬W)` of Theorem 1), for backends that can
    /// evaluate a Boolean provenance formula directly — the MV-index,
    /// Shannon expansion, brute force. Structural backends (safe plans,
    /// per-query OBDD construction) return `None` and [`Backend::answers`]
    /// falls back to re-evaluating the bound query.
    fn lineage_probability(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> Option<Result<f64>> {
        let _ = (lineage, ctx);
        None
    }

    /// [`Backend::lineage_probability`] of a flat clause buffer — the form
    /// the batch pipeline queues per shard. The default builds the
    /// buffer's [`Lineage`]; the MV-index folds the buffer itself.
    fn clauses_probability(
        &self,
        clauses: &ClauseBuffer,
        ctx: &EvalContext<'_>,
    ) -> Option<Result<f64>> {
        self.lineage_probability(&Lineage::from(clauses), ctx)
    }

    /// Every answer of a non-Boolean query with its probability.
    ///
    /// The default implementation feeds each answer's lineage to
    /// [`Backend::lineage_probability`]; for backends that cannot consume a
    /// lineage it binds the head to the answer tuple and evaluates the
    /// resulting Boolean query through [`Backend::probability`].
    fn answers(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<Vec<(Row, f64)>> {
        let per_answer = ctx.answer_lineages(q)?;
        let mut out = Vec::with_capacity(per_answer.len());
        for (row, lineage) in per_answer {
            let p = match self.lineage_probability(&lineage, ctx) {
                Some(p) => p?,
                None => {
                    let bound = q.bind_head(&row);
                    self.probability(&bound, ctx)?
                }
            };
            out.push((row, p));
        }
        Ok(out)
    }
}

/// Applies the right-hand side of Theorem 1,
/// `P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))`. Never NaN: an input or a
/// quotient that is not finite is [`CoreError::OutOfRange`].
pub fn theorem1(p_q_or_w: f64, p_w: f64) -> Result<f64> {
    let out_of_range = CoreError::OutOfRange { p_q_or_w, p_w };
    if !(p_q_or_w.is_finite() && p_w.is_finite()) {
        return Err(out_of_range);
    }
    let not_w = 1.0 - p_w;
    if not_w.abs() < MIN_NOT_W {
        return Err(CoreError::InconsistentViews);
    }
    let p = (p_q_or_w - p_w) / not_w;
    if p.is_finite() {
        Ok(p)
    } else {
        Err(out_of_range)
    }
}

/// Value-level backend selector (the stable, copyable API of
/// [`MvdbEngine::probability_with_backend`](crate::MvdbEngine::probability_with_backend)).
///
/// Each variant instantiates one [`Backend`] implementation; harnesses that
/// want to construct backends directly can skip the enum entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineBackend {
    /// Use the precompiled MV-index (the paper's proposal).
    MvIndex(IntersectAlgorithm),
    /// Build an OBDD for `Q ∨ W` from scratch for every query (the
    /// "augmented OBDD" baseline of Figures 5–6).
    ObddPerQuery,
    /// Shannon expansion on the lineage of `Q ∨ W` (generic exact inference).
    Shannon,
    /// Lifted inference (safe plans); fails on unsafe queries.
    SafePlan,
    /// Exhaustive truth-table enumeration over the lineage variables (the
    /// ground-truth validator; exponential, small inputs only).
    BruteForce,
    /// Seedable Monte Carlo world sampling with confidence intervals — the
    /// *approximate* backend for queries the exact strategies refuse. The
    /// point estimate flows through [`Backend::probability`]; use
    /// [`MonteCarlo::approx`] (or the engine/session `approx_*` entry
    /// points) for the interval.
    MonteCarlo(MonteCarloParams),
}

impl EngineBackend {
    /// Builds the [`Backend`] implementation this selector names.
    pub fn instantiate(self) -> Box<dyn Backend> {
        match self {
            EngineBackend::MvIndex(algorithm) => Box::new(MvIndexBackend::new(algorithm)),
            EngineBackend::ObddPerQuery => Box::new(ObddPerQuery),
            EngineBackend::Shannon => Box::new(Shannon),
            EngineBackend::SafePlan => Box::new(SafePlan),
            EngineBackend::BruteForce => Box::new(BruteForce),
            EngineBackend::MonteCarlo(params) => Box::new(MonteCarlo::with_params(params)),
        }
    }

    /// Whether the named backend implements [`Backend::lineage_probability`]
    /// — i.e. can evaluate a precomputed lineage directly instead of
    /// re-deriving it from the bound query. The sharded session routes on
    /// this: lineage-capable backends evaluate the collected clauses (the
    /// MV-index in place below 1 536 clauses, the others as per-shard
    /// clause groups), the others answer on the full store (kept in sync
    /// by `sharded::tests::evaluates_lineage_matches_backend_behaviour`).
    pub fn evaluates_lineage(&self) -> bool {
        !matches!(self, EngineBackend::ObddPerQuery | EngineBackend::SafePlan)
    }

    /// The backends expected to agree on *every* query: the MV-index, the
    /// per-query OBDD baseline, Shannon expansion, and brute-force
    /// enumeration. (Safe plans are excluded — they legitimately fail on
    /// unsafe queries; Monte Carlo is excluded — it agrees only up to its
    /// confidence interval, which the statistical agreement suite checks
    /// separately.)
    pub fn comparison_suite() -> Vec<EngineBackend> {
        vec![
            EngineBackend::MvIndex(IntersectAlgorithm::CcMvIntersect),
            EngineBackend::ObddPerQuery,
            EngineBackend::Shannon,
            EngineBackend::BruteForce,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem1_matches_the_paper_identity() {
        // P0(Q ∨ W) = 0.6, P0(W) = 0.2 → P = 0.4 / 0.8.
        assert!((theorem1(0.6, 0.2).unwrap() - 0.5).abs() < 1e-12);
        // P0(W) = 1 means no world satisfies ¬W.
        assert!(matches!(
            theorem1(1.0, 1.0),
            Err(CoreError::InconsistentViews)
        ));
    }

    #[test]
    fn theorem1_is_never_nan() {
        // ∞ − ∞ over 1 − ∞: every input or quotient out of f64 range is a
        // typed, degradable error, never a NaN answer.
        for (p_q_or_w, p_w) in [
            (f64::INFINITY, f64::INFINITY),
            (f64::NAN, 0.5),
            (0.5, f64::NAN),
            (f64::NEG_INFINITY, 0.5),
            (f64::MAX, -f64::MAX),
            (1e300, 1.0 - f64::EPSILON),
        ] {
            let e = theorem1(p_q_or_w, p_w).unwrap_err();
            assert!(
                matches!(e, CoreError::OutOfRange { .. }) && e.is_degradable(),
                "{p_q_or_w}, {p_w}: {e}"
            );
        }
    }

    #[test]
    fn every_selector_instantiates_a_named_backend() {
        let mut names = std::collections::BTreeSet::new();
        for selector in EngineBackend::comparison_suite().into_iter().chain([
            EngineBackend::SafePlan,
            EngineBackend::MonteCarlo(MonteCarloParams::default()),
        ]) {
            let backend = selector.instantiate();
            assert!(!backend.name().is_empty());
            names.insert(backend.name());
        }
        assert_eq!(names.len(), 6);
    }
}
