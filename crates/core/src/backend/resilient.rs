//! The graceful-degradation ladder: exact → bounded-exact → Monte Carlo.
//!
//! [`ResilientBackend`] wraps any [`EngineBackend`] selector and guarantees
//! an answer-or-typed-outcome for every query: rung 1 runs the inner exact
//! backend under the configured deadline/step budget and a per-rung panic
//! trap; on a *degradable* failure (deadline, budget, caught panic,
//! bounded-synthesis refusal — see [`CoreError::is_degradable`]) it
//! escalates to rung 2, bounded-exact synthesis
//! ([`SynthesisBuilder::from_lineage_bounded`] on `Q ∨ W` and `W`, combined
//! by Theorem 1), and finally to rung 3, seeded Monte Carlo with the
//! requested target `±ε`. Semantic errors (unknown relation, arity
//! mismatch, …) stop the ladder immediately — no cheaper rung can answer
//! those either.
//!
//! Every evaluation produces a [`QueryOutcome`] recording which rung
//! answered, why degradation happened (the first degradable fault), the
//! achieved interval half-width on the sampling rung, retries, and elapsed
//! wall-clock — the per-query record the resilience bench campaign and the
//! chaos CI gates aggregate.
//!
//! Each rung gets a *fresh* budget window (deadline measured from rung
//! entry), so an exact rung that burns its whole deadline cannot starve
//! the sampling rung that is supposed to rescue the query; the worst-case
//! wall-clock per query is `rungs × deadline`.

use std::cell::RefCell;
use std::time::{Duration, Instant};

use mv_index::IntersectAlgorithm;
use mv_obdd::{Obdd, ObddError, ObddManager, SynthesisBuilder};
use mv_query::approx::ApproxConfig;
use mv_query::lineage::Lineage;
use mv_query::{EvalBudget, Ucq};

use crate::backend::{theorem1, Backend, EngineBackend, EvalContext, MonteCarlo};
use crate::chaos::{self, sites};
use crate::error::CoreError;
use crate::Result;

/// The ladder rungs, cheapest-guarantee last. `Ord` follows degradation
/// order, so the worst rung across a sharded combination is the `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The inner exact backend answered.
    Exact,
    /// Bounded-exact synthesis answered (still exact — the node budget
    /// refused nothing); reached only because rung 1 failed.
    BoundedExact,
    /// Monte Carlo answered with a confidence interval.
    MonteCarlo,
}

impl Rung {
    /// Stable label for metrics and JSON series.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Exact => "exact",
            Rung::BoundedExact => "bounded_exact",
            Rung::MonteCarlo => "monte_carlo",
        }
    }
}

/// Classification of the failure that caused degradation (or loss).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A caught panic — transient: retried on the oracle.
    Panic,
    /// A wall-clock deadline trip.
    Deadline,
    /// A work-budget trip (steps, arena nodes, or samples).
    Budget,
    /// Cooperative cancellation.
    Cancelled,
    /// A semantic error no rung can answer (stops the ladder).
    Semantic,
}

impl FaultKind {
    fn of(e: &CoreError) -> FaultKind {
        match e {
            CoreError::WorkerPanicked { .. } => FaultKind::Panic,
            CoreError::DeadlineExceeded { .. } => FaultKind::Deadline,
            CoreError::Cancelled => FaultKind::Cancelled,
            CoreError::BudgetExceeded { .. } => FaultKind::Budget,
            CoreError::Obdd(mv_obdd::ObddError::NodeBudgetExceeded { .. }) => FaultKind::Budget,
            CoreError::Obdd(mv_obdd::ObddError::Budget(b))
            | CoreError::Query(mv_query::QueryError::Budget(b)) => match b {
                mv_query::BudgetError::DeadlineExceeded { .. } => FaultKind::Deadline,
                mv_query::BudgetError::StepBudgetExceeded { .. } => FaultKind::Budget,
                mv_query::BudgetError::Cancelled => FaultKind::Cancelled,
            },
            _ => FaultKind::Semantic,
        }
    }

    /// Stable label for metrics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Deadline => "deadline",
            FaultKind::Budget => "budget",
            FaultKind::Cancelled => "cancelled",
            FaultKind::Semantic => "semantic",
        }
    }
}

/// A classified failure carried by a [`QueryOutcome`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryFault {
    /// What kind of failure it was.
    pub kind: FaultKind,
    /// The rendered error.
    pub message: String,
}

impl QueryFault {
    pub(crate) fn of(e: &CoreError) -> QueryFault {
        QueryFault {
            kind: FaultKind::of(e),
            message: e.to_string(),
        }
    }
}

/// The per-query record of a resilient evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryOutcome {
    /// The answer, when some rung produced one; `None` means the query is
    /// *lost* — every rung failed (the campaign gates require this to
    /// never happen for degradable faults).
    pub probability: Option<f64>,
    /// The rung that answered.
    pub rung: Option<Rung>,
    /// Achieved interval half-width when the Monte Carlo rung answered.
    pub epsilon: Option<f64>,
    /// Retries spent before this outcome (oracle retry-with-backoff).
    pub retries: u32,
    /// `true` when the query was answered by the unsharded oracle after
    /// its sharded evaluation failed or spanned shards.
    pub fallback: bool,
    /// Wall-clock from ladder entry to this outcome.
    pub elapsed: Duration,
    /// Why degradation (or loss) happened: the *first* failure on the way
    /// down the ladder, or the terminal error for lost queries.
    pub fault: Option<QueryFault>,
}

impl QueryOutcome {
    /// `true` when some rung produced an answer.
    pub fn answered(&self) -> bool {
        self.probability.is_some()
    }

    /// `true` when the query was answered below the exact rung (the
    /// "degraded fraction" numerator of the chaos campaign).
    pub fn degraded(&self) -> bool {
        self.answered() && self.rung != Some(Rung::Exact)
    }

    /// `true` for lost outcomes whose fault is worth retrying (panics are
    /// transient under fault injection; budget/deadline trips are not —
    /// they would trip identically again).
    pub fn transient(&self) -> bool {
        !self.answered()
            && matches!(
                self.fault,
                Some(QueryFault {
                    kind: FaultKind::Panic,
                    ..
                })
            )
    }

    /// A lost outcome carrying the terminal (or first degradable) fault.
    pub(crate) fn lost(fault: QueryFault, started: Instant) -> Self {
        QueryOutcome {
            probability: None,
            rung: None,
            epsilon: None,
            retries: 0,
            fallback: false,
            elapsed: started.elapsed(),
            fault: Some(fault),
        }
    }

    /// The outcome of a worker-level panic caught at a join boundary.
    pub(crate) fn poisoned(site: &'static str) -> Self {
        QueryOutcome {
            probability: None,
            rung: None,
            epsilon: None,
            retries: 0,
            fallback: false,
            elapsed: Duration::ZERO,
            fault: Some(QueryFault {
                kind: FaultKind::Panic,
                message: format!("worker panicked at isolation site `{site}`"),
            }),
        }
    }
}

/// A ladder result with the typed terminal error kept beside the public
/// record: `error` is `Some` exactly when the query is lost. The batch
/// pipeline carries this pair so that a plain batch can return the lost
/// query's [`CoreError`] itself, not a rendering of it.
#[derive(Debug)]
pub(crate) struct Tracked {
    pub(crate) outcome: QueryOutcome,
    pub(crate) error: Option<CoreError>,
}

impl Tracked {
    /// An answer produced on `rung`; `fault` is why the ladder got there.
    pub(crate) fn answered_on(
        rung: Rung,
        p: f64,
        elapsed: Duration,
        fault: Option<QueryFault>,
    ) -> Self {
        Tracked {
            outcome: QueryOutcome {
                probability: Some(p),
                rung: Some(rung),
                epsilon: None,
                retries: 0,
                fallback: false,
                elapsed,
                fault,
            },
            error: None,
        }
    }

    /// A lost query: `error` is both the recorded fault and the typed error.
    pub(crate) fn lost(error: CoreError, started: Instant) -> Self {
        Tracked {
            outcome: QueryOutcome::lost(QueryFault::of(&error), started),
            error: Some(error),
        }
    }

    /// The plain-batch view: the answer, or the typed error that lost it.
    pub(crate) fn into_result(self) -> Result<f64> {
        match (self.outcome.probability, self.error) {
            (Some(p), _) => Ok(p),
            (None, Some(e)) => Err(e),
            (None, None) => Err(CoreError::WorkerPanicked {
                site: "batch_join",
                message: "query lost without a recorded error".to_string(),
            }),
        }
    }
}

/// Configuration of the degradation ladder.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilienceConfig {
    /// The exact backend tried on rung 1.
    pub inner: EngineBackend,
    /// The first rung the ladder tries. [`Rung::Exact`] (the default) is
    /// the full ladder; an overload controller (the serving layer's
    /// degrade-before-drop policy) lowers admitted queries onto
    /// [`Rung::BoundedExact`] or straight to [`Rung::MonteCarlo`] under
    /// queue pressure, skipping the rungs it cannot afford.
    pub entry: Rung,
    /// Per-rung wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Per-rung cooperative step limit (batch rows / arena nodes /
    /// samples charged against one counter; `None` = unlimited).
    pub step_limit: Option<u64>,
    /// Node budget of the bounded-exact rung's synthesis.
    pub node_budget: usize,
    /// Target half-width `ε` of the Monte Carlo rung.
    pub epsilon: f64,
    /// Seed of the Monte Carlo rung's world stream.
    pub mc_seed: u64,
    /// Hard sample cap of the Monte Carlo rung (stops earlier at `±ε`).
    pub mc_max_samples: u64,
    /// Oracle retry attempts for transient (panic) losses.
    pub max_retries: u32,
    /// Base backoff between retries (attempt `k` sleeps `k × backoff`).
    pub retry_backoff: Duration,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig {
            inner: EngineBackend::MvIndex(IntersectAlgorithm::CcMvIntersect),
            entry: Rung::Exact,
            deadline: None,
            step_limit: None,
            node_budget: 1 << 18,
            epsilon: 0.01,
            mc_seed: 0x0d15_ea5e,
            mc_max_samples: 1 << 18,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
        }
    }
}

impl ResilienceConfig {
    /// The default ladder over the given exact backend.
    pub fn with_inner(inner: EngineBackend) -> Self {
        ResilienceConfig {
            inner,
            ..ResilienceConfig::default()
        }
    }

    /// A fresh budget window for one rung, or `None` when unlimited.
    fn rung_budget(&self) -> Option<EvalBudget> {
        let budget = match self.deadline {
            Some(d) => EvalBudget::with_deadline(d),
            None if self.step_limit.is_some() => EvalBudget::unlimited(),
            None => return None,
        };
        Some(match self.step_limit {
            Some(limit) => budget.with_step_limit(limit),
            None => budget,
        })
    }
}

/// What a ladder run evaluates.
#[derive(Clone, Copy)]
pub(crate) enum Target<'q> {
    Query(&'q Ucq),
    Lineage(&'q Lineage),
}

/// The memoized bounded-synthesis build of the hard-constraint lineage
/// `W`: `W` is fixed per translated database, so a ladder that degrades
/// many queries against the same context must not re-synthesize it (or
/// re-discover that it exceeds the node budget) on every bounded attempt.
#[derive(Debug, Clone)]
struct WBuild {
    /// The query-side manager the diagram was built into (cache key).
    manager: ObddManager,
    /// The manager's compaction generation at build time (cache key): a
    /// compaction remaps every root, so a memoized diagram from an earlier
    /// generation must be rebuilt, never dereferenced.
    generation: u64,
    /// The node budget the build ran under (cache key).
    node_budget: usize,
    /// The diagram and its prior probability `P0(W)`, or `None` when the
    /// synthesis refused at the node budget.
    built: Option<(Obdd, f64)>,
    /// Registration token of the diagram's root in the manager's live-root
    /// table: compaction keeps registered roots alive and remaps them, so
    /// after a generation bump the memoized `W` rehydrates from the token
    /// instead of paying a full re-synthesis.
    token: Option<u64>,
}

/// The degradation ladder over an inner exact backend. Cheap to construct
/// per worker; see the module docs for the rung semantics.
#[derive(Debug)]
pub struct ResilientBackend {
    config: ResilienceConfig,
    /// `config.inner`, instantiated once per ladder (and again by
    /// [`ResilientBackend::set_config`] only when the selector changed).
    inner: Box<dyn Backend>,
    /// The plain-evaluation ladder: rung 1 is the only rung, every failure
    /// is terminal, and no chaos site is drawn — a plain batch crosses no
    /// injection site, whatever campaign is installed.
    exact_only: bool,
    /// See [`WBuild`]. Per-ladder (not shared): each session worker owns
    /// its ladder, so a plain `RefCell` suffices.
    w_build: RefCell<Option<WBuild>>,
}

impl Clone for ResilientBackend {
    fn clone(&self) -> Self {
        ResilientBackend {
            config: self.config.clone(),
            inner: self.config.inner.instantiate(),
            exact_only: self.exact_only,
            w_build: self.w_build.clone(),
        }
    }
}

impl ResilientBackend {
    /// A ladder under the given configuration.
    pub fn new(config: ResilienceConfig) -> Self {
        ResilientBackend {
            inner: config.inner.instantiate(),
            config,
            exact_only: false,
            w_build: RefCell::new(None),
        }
    }

    /// Plain evaluation as a ladder: the exact rung alone, unbudgeted, no
    /// retries and no chaos draws. What `probabilities` and
    /// `probabilities_with_backend` run the batch pipeline with.
    pub(crate) fn exact_only(inner: EngineBackend) -> Self {
        ResilientBackend {
            exact_only: true,
            ..Self::new(ResilienceConfig {
                max_retries: 0,
                ..ResilienceConfig::with_inner(inner)
            })
        }
    }

    /// Draws (and applies) the chaos site, unless this is the exact-only
    /// ladder. The pipeline's own sites go through here too, so one flag
    /// decides for every site a batch can cross.
    pub(crate) fn chaos(&self, site: &'static str) -> Result<()> {
        self.draw(site)
            .map_or(Ok(()), |fault| chaos::raise(site, fault))
    }

    /// The draw of [`ResilientBackend::chaos`] alone; the caller raises
    /// the fault.
    pub(crate) fn draw(&self, site: &'static str) -> Option<chaos::Fault> {
        if self.exact_only {
            return None;
        }
        chaos::inject(site)
    }

    /// The ladder configuration.
    pub fn config(&self) -> &ResilienceConfig {
        &self.config
    }

    /// Replaces the ladder configuration in place. The serving layer's
    /// overload controller retunes `entry` / `deadline` / `epsilon` per
    /// request on a long-lived per-worker ladder; the memoized `W` build
    /// survives as long as its own cache keys (manager, generation, node
    /// budget) are unchanged.
    pub fn set_config(&mut self, config: ResilienceConfig) {
        if config.inner != self.config.inner {
            self.inner = config.inner.instantiate();
        }
        self.config = config;
    }

    /// Runs the ladder for a Boolean query. Never panics; always returns
    /// a [`QueryOutcome`].
    pub fn evaluate(&self, q: &Ucq, ctx: &EvalContext<'_>) -> QueryOutcome {
        self.run(ctx, Target::Query(q)).outcome
    }

    /// Runs the ladder for a precomputed (e.g. per-shard localized)
    /// lineage. When the inner backend cannot evaluate lineages directly,
    /// the ladder starts at the bounded-exact rung.
    pub fn evaluate_lineage(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> QueryOutcome {
        self.run(ctx, Target::Lineage(lineage)).outcome
    }

    /// [`ResilientBackend::evaluate`] plus retry-with-backoff for
    /// transient (panic) losses — the oracle entry point the sessions use
    /// for quarantined queries.
    pub fn evaluate_with_retries(&self, q: &Ucq, ctx: &EvalContext<'_>) -> QueryOutcome {
        self.run_with_retries(q, ctx).outcome
    }

    /// [`ResilientBackend::evaluate_with_retries`], keeping the typed error.
    pub(crate) fn run_with_retries(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Tracked {
        let mut tracked = self.run(ctx, Target::Query(q));
        let mut retries = 0;
        while tracked.outcome.transient() && retries < self.config.max_retries {
            retries += 1;
            std::thread::sleep(self.config.retry_backoff * retries);
            tracked = self.run(ctx, Target::Query(q));
        }
        tracked.outcome.retries = retries;
        tracked
    }

    /// One pass down the ladder.
    pub(crate) fn run(&self, ctx: &EvalContext<'_>, target: Target<'_>) -> Tracked {
        let started = Instant::now();
        let mut fault: Option<QueryFault> = None;

        // Rung 1: the inner exact backend. Skipped for lineage targets
        // when the backend cannot evaluate lineages directly, and when the
        // configured entry rung starts the ladder lower.
        let try_exact = self.config.entry == Rung::Exact
            && match target {
                Target::Query(_) => true,
                Target::Lineage(_) => self.config.inner.evaluates_lineage(),
            };
        if try_exact {
            let exact = self.rung(ctx, sites::EXACT_RUNG, || match target {
                Target::Query(q) => self.inner.probability(q, ctx),
                Target::Lineage(l) => self
                    .inner
                    .lineage_probability(l, ctx)
                    .expect("evaluates_lineage() admitted this backend"),
            });
            match exact {
                Ok(p) => return Tracked::answered_on(Rung::Exact, p, started.elapsed(), None),
                Err(e) if self.exact_only || !e.is_degradable() => {
                    return Tracked::lost(e, started);
                }
                Err(e) => fault = Some(QueryFault::of(&e)),
            }
        }

        // Rung 2: bounded-exact synthesis via Theorem 1. Skipped when the
        // entry rung is the sampler itself.
        if self.config.entry <= Rung::BoundedExact {
            let bounded = self.rung(ctx, sites::BOUNDED_RUNG, || {
                let own;
                let lin_q = match target {
                    Target::Query(q) => {
                        own = ctx.lineage(q)?;
                        &own
                    }
                    Target::Lineage(l) => l,
                };
                self.bounded_lineage_probability(lin_q, ctx)
            });
            match bounded {
                Ok(p) => {
                    return Tracked::answered_on(Rung::BoundedExact, p, started.elapsed(), fault)
                }
                Err(e) if e.is_degradable() => {
                    fault.get_or_insert_with(|| QueryFault::of(&e));
                }
                Err(e) => return Tracked::lost(e, started),
            }
        }

        // Rung 3: Monte Carlo at the requested ±ε.
        let mc_config = ApproxConfig {
            seed: self.config.mc_seed,
            target_half_width: self.config.epsilon,
            max_samples: self.config.mc_max_samples,
            ..ApproxConfig::default()
        };
        let sampler = MonteCarlo::new(mc_config);
        let approx = self.rung(ctx, sites::MC_RUNG, || match target {
            Target::Query(q) => sampler.approx(q, ctx),
            Target::Lineage(l) => sampler.approx_lineage(l, ctx),
        });
        match approx {
            Ok(answer) => {
                let mut tracked = Tracked::answered_on(
                    Rung::MonteCarlo,
                    answer.clamped(),
                    started.elapsed(),
                    fault,
                );
                tracked.outcome.epsilon = Some(answer.half_width);
                tracked
            }
            Err(e) => {
                // The record keeps the first fault on the way down; the
                // typed error is the terminal one.
                let mut tracked = Tracked::lost(e, started);
                if fault.is_some() {
                    tracked.outcome.fault = fault;
                }
                tracked
            }
        }
    }

    /// One rung: fresh budget window, chaos draw, panic trap. The budget
    /// is cleared before returning so a tripped rung cannot leak pressure
    /// into the next one.
    fn rung<T>(
        &self,
        ctx: &EvalContext<'_>,
        site: &'static str,
        body: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        ctx.set_budget(self.config.rung_budget());
        let out = CoreError::trap(site, || {
            self.chaos(site)?;
            body()
        });
        ctx.set_budget(None);
        out
    }

    /// Theorem 1 over bounded synthesis: builds `Q ∨ W` and `W` diagrams
    /// in the context's private manager, refusing past the node budget.
    fn bounded_lineage_probability(&self, lin_q: &Lineage, ctx: &EvalContext<'_>) -> Result<f64> {
        let indb = ctx.indb();
        let builder = SynthesisBuilder::with_manager(ctx.query_manager().clone());
        let node_budget = self.config.node_budget;
        match ctx.w_lineage()? {
            Some(w) => {
                let Some((obdd_w, p_w)) = self.w_obdd(w, ctx, &builder)? else {
                    // `W` refused at the node budget in an earlier attempt
                    // (or just now): replay the refusal without paying the
                    // doomed synthesis again.
                    return Err(ObddError::NodeBudgetExceeded {
                        allocated: node_budget,
                        budget: node_budget,
                    }
                    .into());
                };
                // `Q ∨ W` as an OBDD-level apply against the memoized `W`
                // diagram: only the (typically small) query lineage is
                // synthesized per call, and the manager's apply cache
                // carries the repeated `∨ W` work across queries.
                let obdd_q = builder.from_lineage_bounded(lin_q, node_budget)?;
                let obdd_q_or_w = obdd_q.apply_or(&obdd_w)?;
                theorem1(obdd_q_or_w.probability_cached(|t| indb.probability(t)), p_w)
            }
            None => {
                let obdd = builder.from_lineage_bounded(lin_q, node_budget)?;
                Ok(obdd.probability_cached(|t| indb.probability(t)))
            }
        }
    }

    /// The `W` diagram and `P0(W)` through the memoized bounded build:
    /// `Ok(Some(..))` when the synthesis fits the node budget, `Ok(None)`
    /// when it refuses at the budget (memoized either way), `Err` for
    /// genuine failures.
    fn w_obdd(
        &self,
        w: &Lineage,
        ctx: &EvalContext<'_>,
        builder: &SynthesisBuilder,
    ) -> Result<Option<(Obdd, f64)>> {
        let manager = ctx.query_manager();
        let node_budget = self.config.node_budget;
        {
            let mut slot = self.w_build.borrow_mut();
            if let Some(cached) = slot.as_mut() {
                if cached.manager.same_store(manager) && cached.node_budget == node_budget {
                    if cached.generation == manager.generation() {
                        return Ok(cached.built.clone());
                    }
                    // A compaction remapped every root since the build.
                    // The registered token still resolves (registration
                    // keeps `W` alive through compaction), so rehydrate
                    // the memo instead of re-synthesizing; `P0(W)` is
                    // unchanged by construction.
                    if let (Some(token), Some(p)) =
                        (cached.token, cached.built.as_ref().map(|(_, p)| *p))
                    {
                        if let Some(obdd) = manager.registered_obdd(token) {
                            cached.built = Some((obdd.clone(), p));
                            cached.generation = manager.generation();
                            return Ok(Some((obdd, p)));
                        }
                    }
                }
            }
        }
        let built = match builder.from_lineage_bounded(w, node_budget) {
            Ok(obdd) => {
                let p = obdd.probability_cached(|t| ctx.indb().probability(t));
                Some((obdd, p))
            }
            Err(ObddError::NodeBudgetExceeded { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        // Pin the diagram against arena compaction (the serving layer
        // compacts per-worker query managers between requests), releasing
        // any stale registration the replaced memo held.
        let token = built
            .as_ref()
            .map(|(obdd, _)| manager.register_root(obdd.root()));
        if let Some(old) = self.w_build.borrow_mut().take() {
            if let Some(old_token) = old.token {
                old.manager.release_root(old_token);
            }
        }
        *self.w_build.borrow_mut() = Some(WBuild {
            manager: manager.clone(),
            generation: manager.generation(),
            node_budget,
            built: built.clone(),
            token,
        });
        Ok(built)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, Fault};
    use crate::engine::MvdbEngine;
    use crate::mvdb::MvdbBuilder;
    use mv_query::parse_ucq;

    fn engine() -> MvdbEngine {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        MvdbEngine::compile(&b.build().unwrap()).unwrap()
    }

    #[test]
    fn clean_runs_answer_on_the_exact_rung() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let ladder = ResilientBackend::new(ResilienceConfig::default());
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.rung, Some(Rung::Exact));
        assert!(!outcome.degraded());
        assert!(outcome.fault.is_none());
        let exact = engine.probability(&q).unwrap();
        assert!((outcome.probability.unwrap() - exact).abs() < 1e-12);
    }

    #[test]
    fn exact_rung_panic_degrades_to_bounded_exact() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = engine.probability(&q).unwrap();
        let _guard =
            chaos::install(ChaosConfig::new(11).rule(sites::EXACT_RUNG, Fault::Panic, 1.0));
        let ladder = ResilientBackend::new(ResilienceConfig::default());
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.rung, Some(Rung::BoundedExact));
        assert!(outcome.degraded());
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Panic);
        // Bounded-exact is still exact when nothing is refused.
        assert!((outcome.probability.unwrap() - exact).abs() < 1e-9);
    }

    #[test]
    fn double_fault_reaches_the_sampling_rung_within_epsilon() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = engine.probability(&q).unwrap();
        let _guard = chaos::install(
            ChaosConfig::new(12)
                .rule(sites::EXACT_RUNG, Fault::Budget, 1.0)
                .rule(sites::BOUNDED_RUNG, Fault::Deadline, 1.0),
        );
        let config = ResilienceConfig {
            epsilon: 0.02,
            ..ResilienceConfig::default()
        };
        let ladder = ResilientBackend::new(config);
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.rung, Some(Rung::MonteCarlo));
        // The recorded fault is the FIRST failure on the way down.
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Budget);
        let eps = outcome.epsilon.unwrap();
        assert!(eps <= 0.021, "half-width {eps} missed the target");
        assert!((outcome.probability.unwrap() - exact).abs() < 5.0 * eps + 0.02);
    }

    #[test]
    fn entry_rung_starts_the_ladder_lower() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = engine.probability(&q).unwrap();
        // BoundedExact entry: rung 1 is never tried, the answer is still
        // exact (the node budget refuses nothing on this tiny database).
        let ladder = ResilientBackend::new(ResilienceConfig {
            entry: Rung::BoundedExact,
            ..ResilienceConfig::default()
        });
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.rung, Some(Rung::BoundedExact));
        assert!(outcome.fault.is_none(), "skipping a rung is not a fault");
        assert!((outcome.probability.unwrap() - exact).abs() < 1e-9);
        // MonteCarlo entry: straight to the sampler at the requested ε.
        let ladder = ResilientBackend::new(ResilienceConfig {
            entry: Rung::MonteCarlo,
            epsilon: 0.02,
            ..ResilienceConfig::default()
        });
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.rung, Some(Rung::MonteCarlo));
        let eps = outcome.epsilon.unwrap();
        assert!((outcome.probability.unwrap() - exact).abs() < 5.0 * eps + 0.02);
    }

    #[test]
    fn semantic_errors_stop_the_ladder() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- Unknown(x)").unwrap();
        let ladder = ResilientBackend::new(ResilienceConfig::default());
        let outcome = ladder.evaluate(&q, &ctx);
        assert!(!outcome.answered());
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Semantic);
    }

    #[test]
    fn transient_losses_retry_and_recover() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x)").unwrap();
        // All three rungs panic on (deterministically) most draws; with
        // retries the ladder eventually lands a clean pass or reports a
        // lost outcome with the panic fault — never aborts.
        let _guard = chaos::install(
            ChaosConfig::new(13)
                .rule(sites::EXACT_RUNG, Fault::Panic, 0.8)
                .rule(sites::BOUNDED_RUNG, Fault::Panic, 0.8)
                .rule(sites::MC_RUNG, Fault::Panic, 0.8),
        );
        let config = ResilienceConfig {
            max_retries: 8,
            retry_backoff: Duration::ZERO,
            ..ResilienceConfig::default()
        };
        let ladder = ResilientBackend::new(config);
        let outcome = ladder.evaluate_with_retries(&q, &ctx);
        if let Some(p) = outcome.probability {
            let exact = engine.probability(&q).unwrap();
            assert!((p - exact).abs() < 0.05, "{p} vs {exact}");
        } else {
            assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Panic);
        }
    }

    #[test]
    fn tiny_deadlines_degrade_instead_of_hanging() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let config = ResilienceConfig {
            deadline: Some(Duration::ZERO),
            ..ResilienceConfig::default()
        };
        let ladder = ResilientBackend::new(config);
        let outcome = ladder.evaluate(&q, &ctx);
        // Every rung gets a zero-length window; whichever rung still
        // manages to answer between polls is fine — the invariant is a
        // typed outcome, not an abort or a hang.
        if !outcome.answered() {
            let kind = outcome.fault.as_ref().unwrap().kind;
            assert!(matches!(kind, FaultKind::Deadline | FaultKind::Budget));
        }
    }
}
