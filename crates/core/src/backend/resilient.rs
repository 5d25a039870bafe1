//! The graceful-degradation ladder: exact under the node cap → Monte Carlo.
//!
//! [`ResilientBackend`] wraps any [`EngineBackend`] selector and guarantees
//! an answer-or-typed-outcome for every query: rung 1 runs the inner exact
//! backend under the configured deadline, the query kernel's
//! node cap [`ResilienceConfig::node_budget`] and a per-rung panic trap; on
//! a *degradable* failure (deadline, caught panic, node-cap refusal — see
//! [`CoreError::is_degradable`]) it goes to rung 2, seeded Monte Carlo
//! with the requested target `±ε`. There is no second exact attempt: a trip
//! means the work outgrew its window, and the same work in a fresh window of
//! the same size would trip again. This holds for every inner backend,
//! those that never touch the kernel included. Semantic errors (unknown
//! relation, arity mismatch, …) stop the ladder immediately — no cheaper
//! rung can answer those either.
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
//! wall-clock per pass is `2 × deadline`.

use std::time::{Duration, Instant};

use mv_index::IntersectAlgorithm;
use mv_query::approx::ApproxConfig;
use mv_query::lineage::{ClauseBuffer, Lineage};
use mv_query::{EvalBudget, Ucq};

use crate::backend::{Backend, EngineBackend, EvalContext, MonteCarlo};
use crate::chaos::{self, sites};
use crate::error::CoreError;
use crate::Result;

/// Seed of the Monte Carlo rung's world stream.
const MC_SEED: u64 = 0x0d15_ea5e;

/// The ladder rungs, cheapest-guarantee last. `Ord` follows degradation
/// order, so the worst rung across a sharded combination is the `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rung {
    /// The inner exact backend answered.
    Exact,
    /// Monte Carlo answered with a confidence interval.
    MonteCarlo,
}

impl Rung {
    /// Stable label for metrics and JSON series.
    pub fn name(self) -> &'static str {
        match self {
            Rung::Exact => "exact",
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
    /// A node-cap refusal.
    Budget,
    /// A semantic error no rung can answer (stops the ladder).
    Semantic,
}

impl FaultKind {
    fn of(e: &CoreError) -> FaultKind {
        match e {
            CoreError::WorkerPanicked { .. } => FaultKind::Panic,
            CoreError::DeadlineExceeded { .. } => FaultKind::Deadline,
            CoreError::Obdd(mv_obdd::ObddError::NodeBudgetExceeded { .. }) => FaultKind::Budget,
            _ => FaultKind::Semantic,
        }
    }

    /// Stable label for metrics.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Panic => "panic",
            FaultKind::Deadline => "deadline",
            FaultKind::Budget => "budget",
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
        let fault = QueryFault {
            kind: FaultKind::Panic,
            message: format!("worker panicked at isolation site `{site}`"),
        };
        QueryOutcome {
            elapsed: Duration::ZERO,
            ..QueryOutcome::lost(fault, Instant::now())
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
    /// the full ladder; [`Rung::MonteCarlo`] skips the exact rung, as the
    /// serving layer's overload controller does past its shed depth.
    pub entry: Rung,
    /// Per-rung wall-clock deadline (`None` = unlimited).
    pub deadline: Option<Duration>,
    /// Node cap of the context's query kernel on the exact rung, lifted
    /// after it: a lineage whose diagram needs more nodes is refused and
    /// goes on to Monte Carlo. Plain (`exact_only`) evaluation is uncapped.
    pub node_budget: usize,
    /// Target half-width `ε` of the Monte Carlo rung.
    pub epsilon: f64,
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
            node_budget: 1 << 18,
            epsilon: 0.01,
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

    /// A fresh deadline window for one rung, or `None` when unlimited.
    fn rung_budget(&self) -> Option<EvalBudget> {
        self.deadline.map(EvalBudget::with_deadline)
    }
}

/// What a ladder run evaluates.
#[derive(Clone, Copy)]
pub(crate) enum Target<'q> {
    Query(&'q Ucq),
    /// Precomputed clauses: a shard's group, flat.
    Clauses(&'q ClauseBuffer),
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
}

impl Clone for ResilientBackend {
    fn clone(&self) -> Self {
        ResilientBackend {
            config: self.config.clone(),
            inner: self.config.inner.instantiate(),
            exact_only: self.exact_only,
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
    /// request on a long-lived per-worker ladder.
    pub fn set_config(&mut self, config: ResilienceConfig) {
        if config.inner != self.config.inner {
            self.inner = config.inner.instantiate();
        }
        self.config = config;
    }

    /// Whether `e`, raised on the exact rung, sends the query on down the
    /// ladder: a degradable fault on any ladder but the exact-only one.
    pub(crate) fn degrades(&self, e: &CoreError) -> bool {
        !self.exact_only && e.is_degradable()
    }

    /// Runs the ladder for a Boolean query. Never panics; always returns
    /// a [`QueryOutcome`].
    pub fn evaluate(&self, q: &Ucq, ctx: &EvalContext<'_>) -> QueryOutcome {
        self.run(ctx, Target::Query(q), self.config.entry).outcome
    }

    /// [`ResilientBackend::evaluate`] plus retry-with-backoff for
    /// transient (panic) losses — the oracle entry point the sessions use
    /// for quarantined queries.
    pub fn evaluate_with_retries(&self, q: &Ucq, ctx: &EvalContext<'_>) -> QueryOutcome {
        self.run_with_retries(q, ctx).outcome
    }

    /// [`ResilientBackend::evaluate_with_retries`], keeping the typed error.
    pub(crate) fn run_with_retries(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Tracked {
        let entry = self.config.entry;
        let mut tracked = self.run(ctx, Target::Query(q), entry);
        let mut retries = 0;
        while tracked.outcome.transient() && retries < self.config.max_retries {
            retries += 1;
            std::thread::sleep(self.config.retry_backoff * retries);
            tracked = self.run(ctx, Target::Query(q), entry);
        }
        tracked.outcome.retries = retries;
        tracked
    }

    /// Rung 1 alone: the inner exact backend under the kernel's node cap,
    /// raising `fault`, the rung's chaos draw, which the caller made (a
    /// batch draws in query order). Plain evaluation leaves the kernel
    /// alone. The cap is lifted after the rung whatever it did: `rung`
    /// traps panics, so no exit passes by the reset.
    pub(crate) fn exact(
        &self,
        ctx: &EvalContext<'_>,
        target: Target<'_>,
        fault: Option<chaos::Fault>,
    ) -> Result<f64> {
        let cap = |nodes| {
            if !self.exact_only {
                ctx.scratch().set_node_cap(nodes);
            }
        };
        cap(self.config.node_budget);
        let exact = self.rung(ctx, sites::EXACT_RUNG, fault, || match target {
            Target::Query(q) => self.inner.probability(q, ctx),
            Target::Clauses(c) => self
                .inner
                .clauses_probability(c, ctx)
                .expect("the pipeline routes clauses to lineage backends only"),
        });
        cap(usize::MAX);
        exact
    }

    /// One pass down the ladder from `entry`: the configured entry rung,
    /// or a lower one the batch pipeline chose for a routed item.
    pub(crate) fn run(&self, ctx: &EvalContext<'_>, target: Target<'_>, entry: Rung) -> Tracked {
        let started = Instant::now();
        let mut fault: Option<QueryFault> = None;

        if entry == Rung::Exact {
            match self.exact(ctx, target, self.draw(sites::EXACT_RUNG)) {
                Ok(p) => return Tracked::answered_on(Rung::Exact, p, started.elapsed(), None),
                Err(e) if !self.degrades(&e) => return Tracked::lost(e, started),
                Err(e) => fault = Some(QueryFault::of(&e)),
            }
        }

        // Rung 2: Monte Carlo at the requested ±ε.
        let mc_config = ApproxConfig {
            seed: MC_SEED,
            target_half_width: self.config.epsilon,
            max_samples: self.config.mc_max_samples,
            ..ApproxConfig::default()
        };
        let sampler = MonteCarlo::new(mc_config);
        let drawn = self.draw(sites::MC_RUNG);
        let approx = self.rung(ctx, sites::MC_RUNG, drawn, || match target {
            Target::Query(q) => sampler.approx(q, ctx),
            Target::Clauses(c) => sampler.approx_lineage(&Lineage::from(c), ctx),
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

    /// One rung: fresh budget window, the site's drawn `fault` raised,
    /// panic trap. The budget is cleared before returning so a tripped rung
    /// cannot leak pressure into the next one.
    fn rung<T>(
        &self,
        ctx: &EvalContext<'_>,
        site: &'static str,
        fault: Option<chaos::Fault>,
        body: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        ctx.set_budget(self.config.rung_budget());
        let out = CoreError::trap(site, || {
            fault.map_or(Ok(()), |f| chaos::raise(site, f))?;
            body()
        });
        ctx.set_budget(None);
        out
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

    /// One expired deadline reads as one error, whichever layer polls it:
    /// the lineage executor, the MV-index kernel or the sampler.
    #[test]
    fn a_deadline_trip_is_one_error_in_every_layer() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let lineage = ctx.lineage(&q).unwrap();
        assert!(!lineage.is_false(), "the query has a match");
        // `W`'s lineage is built before the deadline, so the sampler polls.
        ctx.w_lineage().unwrap();

        ctx.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        let index = crate::backend::MvIndexBackend::default();
        let sampler = MonteCarlo::new(ApproxConfig::default());
        let trips = [
            ("executor", ctx.lineage(&q).map(|_| ())),
            (
                "kernel",
                index
                    .lineage_probability(&lineage, &ctx)
                    .unwrap()
                    .map(|_| ()),
            ),
            (
                "sampler",
                sampler.approx_lineage(&lineage, &ctx).map(|_| ()),
            ),
        ];
        for (layer, trip) in trips {
            let err = trip.expect_err(layer);
            assert!(
                matches!(err, CoreError::DeadlineExceeded { .. }),
                "{layer}: {err:?}"
            );
            assert!(err.is_degradable(), "{layer}: {err}");
            assert_eq!(FaultKind::of(&err), FaultKind::Deadline, "{layer}");
        }
    }

    /// Ten independent `R(x) ∧ S(x)` pairs under one view: a lineage of
    /// ten clauses, whose diagram no node cap of 1 admits.
    fn wide_engine() -> MvdbEngine {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        for i in 0..10 {
            let x = format!("a{i}");
            b.weighted_tuple("R", &[x.as_str()], 1.0 + i as f64)
                .unwrap();
            b.weighted_tuple("S", &[x.as_str()], 2.0).unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        MvdbEngine::compile(&b.build().unwrap()).unwrap()
    }

    /// The exact rung's answer on `ctx`, outside the ladder.
    fn exact_on(q: &Ucq, ctx: &EvalContext<'_>) -> f64 {
        crate::backend::MvIndexBackend::default()
            .probability(q, ctx)
            .unwrap()
    }

    /// `outcome` answered on Monte Carlo, with `exact` inside its interval.
    fn sampled_within_interval(outcome: &QueryOutcome, exact: f64) {
        assert_eq!(outcome.rung, Some(Rung::MonteCarlo));
        let eps = outcome.epsilon.unwrap();
        let p = outcome.probability.unwrap();
        assert!((p - exact).abs() <= eps, "{p} ± {eps} misses {exact}");
    }

    #[test]
    fn exact_rung_panic_degrades_to_monte_carlo() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = exact_on(&q, &ctx);
        let _guard =
            chaos::install(ChaosConfig::new(11).rule(sites::EXACT_RUNG, Fault::Panic, 1.0));
        let ladder = ResilientBackend::new(ResilienceConfig::default());
        let outcome = ladder.evaluate(&q, &ctx);
        assert!(outcome.degraded());
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Panic);
        sampled_within_interval(&outcome, exact);
    }

    #[test]
    fn the_node_cap_never_outlives_the_exact_rung() {
        let engine = wide_engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = exact_on(&q, &ctx);
        let capped = ResilienceConfig {
            node_budget: 1,
            epsilon: 0.05,
            ..ResilienceConfig::default()
        };
        // Plain evaluation (what `probabilities` runs) and the default
        // ladder, on the context a capped ladder ran on.
        let answers_exactly = |ctx: &EvalContext<'_>| {
            let _quiet = chaos::quiet();
            let plain = ResilientBackend::exact_only(capped.inner).evaluate(&q, ctx);
            let ladder = ResilientBackend::new(ResilienceConfig::default()).evaluate(&q, ctx);
            for outcome in [plain, ladder] {
                assert_eq!(outcome.rung, Some(Rung::Exact));
                assert!(outcome.fault.is_none(), "{:?}", outcome.fault);
                assert_eq!(outcome.probability.unwrap().to_bits(), exact.to_bits());
            }
        };
        {
            // The cap refuses the lineage on rung 1 and Monte Carlo answers.
            let _quiet = chaos::quiet();
            let outcome = ResilientBackend::new(capped.clone()).evaluate(&q, &ctx);
            assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Budget);
            sampled_within_interval(&outcome, exact);
        }
        answers_exactly(&ctx);
        {
            // A panic trapped on rung 1 while the cap is set.
            let _guard =
                chaos::install(ChaosConfig::new(15).rule(sites::EXACT_RUNG, Fault::Panic, 1.0));
            let outcome = ResilientBackend::new(capped.clone()).evaluate(&q, &ctx);
            assert_eq!(outcome.rung, Some(Rung::MonteCarlo));
            assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Panic);
        }
        answers_exactly(&ctx);
    }

    #[test]
    fn a_faulted_non_index_backend_falls_to_monte_carlo() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = exact_on(&q, &ctx);
        let _guard =
            chaos::install(ChaosConfig::new(16).rule(sites::EXACT_RUNG, Fault::Deadline, 1.0));
        let ladder = ResilientBackend::new(ResilienceConfig {
            epsilon: 0.02,
            ..ResilienceConfig::with_inner(EngineBackend::Shannon)
        });
        let outcome = ladder.evaluate(&q, &ctx);
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Deadline);
        sampled_within_interval(&outcome, exact);
    }

    #[test]
    fn double_fault_reaches_the_sampling_rung_within_epsilon() {
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = engine.probability(&q).unwrap();
        let config = ResilienceConfig {
            epsilon: 0.02,
            ..ResilienceConfig::default()
        };
        let ladder = ResilientBackend::new(config);
        let outcome = {
            let _guard =
                chaos::install(ChaosConfig::new(12).rule(sites::EXACT_RUNG, Fault::Budget, 1.0));
            ladder.evaluate(&q, &ctx)
        };
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Budget);
        let eps = outcome.epsilon.unwrap();
        assert!(eps <= 0.021, "half-width {eps} missed the target");
        sampled_within_interval(&outcome, exact);
        // A second fault on the sampling rung loses the query; the record
        // keeps the FIRST failure on the way down.
        let _guard = chaos::install(
            ChaosConfig::new(12)
                .rule(sites::EXACT_RUNG, Fault::Budget, 1.0)
                .rule(sites::MC_RUNG, Fault::Deadline, 1.0),
        );
        let outcome = ladder.evaluate(&q, &ctx);
        assert!(!outcome.answered());
        assert_eq!(outcome.fault.as_ref().unwrap().kind, FaultKind::Budget);
    }

    #[test]
    fn entry_rung_starts_the_ladder_lower() {
        let _quiet = chaos::quiet();
        let engine = engine();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = exact_on(&q, &ctx);
        // MonteCarlo entry: straight to the sampler at the requested ε;
        // skipping a rung is not a fault.
        let ladder = ResilientBackend::new(ResilienceConfig {
            entry: Rung::MonteCarlo,
            epsilon: 0.02,
            ..ResilienceConfig::default()
        });
        let outcome = ladder.evaluate(&q, &ctx);
        assert!(outcome.fault.is_none(), "{:?}", outcome.fault);
        sampled_within_interval(&outcome, exact);
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
        // Both rungs panic on (deterministically) most draws; with
        // retries the ladder eventually lands a clean pass or reports a
        // lost outcome with the panic fault — never aborts.
        let _guard = chaos::install(
            ChaosConfig::new(13)
                .rule(sites::EXACT_RUNG, Fault::Panic, 0.8)
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
