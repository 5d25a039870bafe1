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
use std::cell::{OnceCell, RefCell, RefMut};
use std::fmt;
use std::sync::Arc;

use fxhash::FxHashMap;
use mv_index::{IntersectAlgorithm, MvIndex, QueryScratch};
use mv_obdd::{ManagerStats, ObddManager, PiOrder};
use mv_pdb::{InDb, Row};
use mv_query::eval::EvalContext as QueryEvalContext;
use mv_query::lineage::{answer_lineages_with, lineage_with, Lineage};
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
/// store's relations and are shared the same way, so making a context per
/// call, per worker or per shard costs an empty map of resolved templates.
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
    /// The kernel the exact rung runs in. It is this context's: a context
    /// made for a new snapshot starts a new one.
    scratch: RefCell<QueryScratch>,
    budget: RefCell<Option<mv_query::EvalBudget>>,
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
            scratch: RefCell::new(QueryScratch::new()),
            budget: RefCell::new(None),
        }
    }

    /// Installs (or clears) a cooperative [`mv_query::EvalBudget`] on this
    /// context. The budget propagates to every layer the context drives:
    /// the vectorized lineage executor polls it at batch boundaries, the
    /// query kernel and the lazy query-side [`ObddManager`] poll it in
    /// their synthesis/apply folds, and sampling backends poll it between
    /// batches. Budgets are per-query in session use — install a fresh one
    /// before each query. The shared index is never budgeted, so one
    /// worker's deadline cannot cancel a sibling's evaluation.
    pub fn set_budget(&self, budget: Option<mv_query::EvalBudget>) {
        self.query_ctx.set_budget(budget.clone());
        if let Some(manager) = self.query_manager.get() {
            manager.set_budget(budget.clone());
        }
        self.scratch.borrow_mut().set_budget(budget.clone());
        *self.budget.borrow_mut() = budget;
    }

    /// The currently installed budget, if any (cheap clone of the shared
    /// handle).
    pub fn budget(&self) -> Option<mv_query::EvalBudget> {
        self.budget.borrow().clone()
    }

    /// Polls the installed budget, surfacing a trip as the matching typed
    /// [`CoreError`] (`DeadlineExceeded` / `BudgetExceeded` / `Cancelled`).
    /// A no-op without a budget.
    pub fn check_budget(&self) -> Result<()> {
        match self.budget.borrow().as_ref() {
            Some(b) => b.check().map_err(CoreError::from),
            None => Ok(()),
        }
    }

    /// A context carrying the compiled MV-index (and borrowing the lineage
    /// of `W` the index was compiled from).
    pub fn with_index(translated: &'a TranslatedIndb, index: &'a MvIndex) -> Self {
        EvalContext {
            index: Some(index),
            w_lineage: OnceCell::from(Cow::Borrowed(index.w_lineage())),
            ..Self::new(translated)
        }
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

    /// The per-answer lineages of a non-Boolean query, through the store's
    /// plan cache (one compilation per query shape).
    pub fn answer_lineages(&self, query: &Ucq) -> Result<std::collections::BTreeMap<Row, Lineage>> {
        Ok(answer_lineages_with(query, self.indb(), &self.query_ctx)?)
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
    /// annotates and intersects a lineage. Each context (hence each session
    /// or server worker) owns one, so the exact rung takes no lock and
    /// leaves nothing behind but counters.
    pub fn scratch(&self) -> RefMut<'_, QueryScratch> {
        self.scratch.borrow_mut()
    }

    /// The context's query-side [`ObddManager`] *shard*, created lazily over
    /// the index's variable order (or the identity `π` order when no index
    /// was compiled). Every query *diagram* built through this context —
    /// the bounded-exact rung's `Q` and `W`, [`ObddPerQuery`] — shares it,
    /// so repeated lineages hit the unique table and apply memo instead of
    /// rebuilding, and each context owns its own shard, so parallel
    /// evaluation never contends on query-side writes.
    pub fn query_manager(&self) -> &ObddManager {
        self.query_manager.get_or_init(|| {
            let manager = match self.index {
                Some(index) => index.query_manager(),
                None => ObddManager::new(Arc::new(PiOrder::identity().tuple_order(self.indb()))),
            };
            // A budget installed before the first query diagram must bound
            // the manager's folds too.
            manager.set_budget(self.budget.borrow().clone());
            manager
        })
    }

    /// Counters of this context's query side alone: its kernel plus its
    /// manager shard (zero when nothing was evaluated yet).
    pub fn query_manager_stats(&self) -> ManagerStats {
        let shard = self.query_manager.get().map(ObddManager::stats);
        self.scratch.borrow().stats() + shard.unwrap_or_default()
    }

    /// Combined manager counters attributable to this context: its own
    /// query-shard stats, plus the shared index manager's stats when an
    /// index is attached.
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
            Err(CoreError::NotBoolean(query.name.clone()))
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
/// `P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))`.
pub fn theorem1(p_q_or_w: f64, p_w: f64) -> Result<f64> {
    let not_w = 1.0 - p_w;
    if not_w.abs() < MIN_NOT_W {
        return Err(CoreError::InconsistentViews);
    }
    Ok((p_q_or_w - p_w) / not_w)
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
    /// this: lineage-capable backends receive per-shard clause groups, the
    /// others answer on the full store (kept in sync by
    /// `sharded::tests::evaluates_lineage_matches_backend_behaviour`).
    pub fn evaluates_lineage(&self) -> bool {
        !matches!(self, EngineBackend::ObddPerQuery | EngineBackend::SafePlan)
    }

    /// The backends expected to agree on *every* query: both intersection
    /// algorithms of the MV-index, the per-query OBDD baseline, Shannon
    /// expansion, and brute-force enumeration. (Safe plans are excluded —
    /// they legitimately fail on unsafe queries; Monte Carlo is excluded —
    /// it agrees only up to its confidence interval, which the statistical
    /// agreement suite checks separately.)
    pub fn comparison_suite() -> Vec<EngineBackend> {
        vec![
            EngineBackend::MvIndex(IntersectAlgorithm::MvIntersect),
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
        // Both intersection algorithms share the index backend name family.
        assert_eq!(names.len(), 7);
    }
}
