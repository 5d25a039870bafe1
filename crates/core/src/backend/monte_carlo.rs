//! The Monte Carlo approximate-inference backend.
//!
//! Exact OBDD synthesis blows up on queries whose lineage has no small
//! diagram under the index order (the query kernel's node cap,
//! [`QueryScratch::set_node_cap`](mv_index::QueryScratch::set_node_cap),
//! turns the blow-up into a refusal). Sampling, by contrast, is
//! *always* available on the tuple-independent translation: this backend
//! draws possible worlds from a seeded ChaCha stream and estimates the
//! Theorem 1 conditional `P0(Q ∧ ¬W) / P0(¬W)` directly, returning
//! `(estimate, half_width)` confidence intervals with early stopping at a
//! target `±ε`.
//!
//! The estimator ([`mv_query::approx::ConditionalSampler`]) integrates the
//! translation's `NV` variables out of every world analytically — their
//! residual factors are exactly the MarkoView weights, so negative
//! translated probabilities never have to be "sampled" — and prunes `W`'s
//! lineage to the connected component of the query, the sampling analogue
//! of the MV-index's block partitioning. See the `mv_query::approx` module
//! docs for the statistics.
//!
//! Through the [`Backend`] trait the point estimate participates in every
//! harness; [`MonteCarlo::approx`] exposes the full [`ApproxAnswer`] (the
//! engine's [`MvdbEngine::approx_probability`](crate::MvdbEngine::approx_probability)
//! and the session's batch/parallel entry points build on it).

use mv_query::approx::{ApproxAnswer, ApproxConfig, ConditionalSampler};
use mv_query::lineage::Lineage;
use mv_query::Ucq;

use crate::backend::{Backend, EvalContext};
use crate::Result;

/// The copyable, `Eq`-able selector payload of
/// [`EngineBackend::MonteCarlo`](crate::EngineBackend::MonteCarlo): the seed
/// and the sample budget (every other knob takes its [`ApproxConfig`]
/// default). Construct a [`MonteCarlo`] directly for full control.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MonteCarloParams {
    /// Seed of the ChaCha world stream.
    pub seed: u64,
    /// Hard sample budget per query.
    pub samples: u32,
}

impl Default for MonteCarloParams {
    fn default() -> Self {
        MonteCarloParams {
            seed: 0x5eed_ca57,
            samples: 65_536,
        }
    }
}

impl From<MonteCarloParams> for ApproxConfig {
    fn from(params: MonteCarloParams) -> ApproxConfig {
        ApproxConfig {
            seed: params.seed,
            max_samples: u64::from(params.samples),
            ..ApproxConfig::default()
        }
    }
}

/// Seedable Monte Carlo estimation of query probabilities by possible-world
/// sampling over the tuple-independent translation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MonteCarlo {
    config: ApproxConfig,
    plan_eval: bool,
}

impl MonteCarlo {
    /// A backend running under the given estimation configuration.
    pub fn new(config: ApproxConfig) -> Self {
        MonteCarlo {
            config,
            plan_eval: false,
        }
    }

    /// A backend from the selector's plain-data parameters.
    pub fn with_params(params: MonteCarloParams) -> Self {
        Self::new(params.into())
    }

    /// Evaluate each sampled world by materialising it and running the
    /// query's compiled physical plan over it, instead of scanning the
    /// collected lineage clauses. Slower, but independent of lineage
    /// collection — the two modes must produce bit-identical estimates
    /// under one seed, which the differential suite asserts.
    pub fn with_plan_evaluation(mut self) -> Self {
        self.plan_eval = true;
        self
    }

    /// The estimation configuration.
    pub fn config(&self) -> &ApproxConfig {
        &self.config
    }

    /// The full interval-carrying estimate for a Boolean query. Polls the
    /// context's cooperative budget between sample batches: sampling is an
    /// anytime algorithm, so a deadline trip mid-run returns the partial
    /// (wider) interval, and only a budget that leaves no statistically
    /// usable sample count errors out.
    pub fn approx(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<ApproxAnswer> {
        ctx.require_boolean(q)?;
        let lin_q = ctx.lineage(q)?;
        let sampler = self.sampler(&lin_q, q, ctx)?;
        let budget = ctx.budget();
        Ok(sampler.estimate_budgeted(&self.config, budget.as_ref())?)
    }

    /// The full interval-carrying estimate for a precomputed lineage.
    pub fn approx_lineage(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> Result<ApproxAnswer> {
        let lin_w = ctx.w_lineage()?;
        let translated = ctx.translated();
        let sampler =
            ConditionalSampler::new(lineage, lin_w, ctx.indb(), |t| translated.is_nv_tuple(t))?;
        let budget = ctx.budget();
        Ok(sampler.estimate_budgeted(&self.config, budget.as_ref())?)
    }

    /// Compiles the world sampler for a query's lineage against this
    /// context (callers that need partial accumulators — the parallel
    /// session merge — drive [`ConditionalSampler::collect`] themselves).
    pub fn sampler<'a>(
        &self,
        lin_q: &Lineage,
        q: &Ucq,
        ctx: &EvalContext<'a>,
    ) -> Result<ConditionalSampler<'a>> {
        let lin_w = ctx.w_lineage()?;
        let translated = ctx.translated();
        let sampler =
            ConditionalSampler::new(lin_q, lin_w, ctx.indb(), |t| translated.is_nv_tuple(t))?;
        Ok(if self.plan_eval {
            sampler.with_plan_query(q)
        } else {
            sampler
        })
    }
}

impl Backend for MonteCarlo {
    fn name(&self) -> &'static str {
        "monte-carlo"
    }

    /// The clamped point estimate (the interval is available through
    /// [`MonteCarlo::approx`]).
    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64> {
        Ok(self.approx(q, ctx)?.clamped())
    }

    fn lineage_probability(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> Option<Result<f64>> {
        Some(self.approx_lineage(lineage, ctx).map(|a| a.clamped()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::IntervalMethod;
    use crate::engine::MvdbEngine;
    use crate::mvdb::{Mvdb, MvdbBuilder};
    use crate::EngineBackend;
    use mv_query::parse_ucq;

    fn example1(view_weight: f64) -> Mvdb {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view(&format!("V(x)[{view_weight}] :- R(x), S(x)"))
            .unwrap();
        b.build().unwrap()
    }

    fn test_config(seed: u64) -> ApproxConfig {
        ApproxConfig {
            seed,
            target_half_width: 0.0,
            max_samples: 40_000,
            ..ApproxConfig::default()
        }
    }

    #[test]
    fn intervals_cover_the_exact_probability_for_all_view_weights() {
        // Weights > 1 exercise the negative translated NV probabilities:
        // the sampler must integrate them out, never draw them.
        for view_weight in [0.0, 0.25, 0.5, 2.0, 4.0] {
            let mvdb = example1(view_weight);
            let engine = MvdbEngine::compile(&mvdb).unwrap();
            for q_text in [
                "Q() :- R(x), S(x)",
                "Q() :- R(x)",
                "Q() :- R(x) ; Q() :- S(x)",
            ] {
                let q = parse_ucq(q_text).unwrap();
                let exact = mvdb.exact_probability(&q).unwrap();
                let answer = engine.approx_probability(&q, &test_config(1)).unwrap();
                assert!(
                    answer.contains(exact),
                    "w = {view_weight}, {q_text}: CI [{}, {}] misses exact {exact}",
                    answer.lower(),
                    answer.upper()
                );
                assert!(
                    (answer.clamped() - exact).abs() < 0.05,
                    "w = {view_weight}, {q_text}: estimate {} vs exact {exact}",
                    answer.estimate
                );
            }
        }
    }

    #[test]
    fn plan_evaluation_mode_is_bit_identical_to_clause_mode() {
        let mvdb = example1(2.0);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let config = ApproxConfig {
            max_samples: 2_048,
            ..test_config(7)
        };
        let by_clauses = MonteCarlo::new(config)
            .approx(&q, &engine.context())
            .unwrap();
        let by_plans = MonteCarlo::new(config)
            .with_plan_evaluation()
            .approx(&q, &engine.context())
            .unwrap();
        // Same seed, same worlds; the clause scan and the per-world
        // compiled-plan run must agree on every single indicator.
        assert_eq!(by_clauses.estimate.to_bits(), by_plans.estimate.to_bits());
        assert_eq!(
            by_clauses.half_width.to_bits(),
            by_plans.half_width.to_bits()
        );
    }

    #[test]
    fn the_backend_selector_returns_clamped_point_estimates() {
        let mvdb = example1(0.5);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = mvdb.exact_probability(&q).unwrap();
        let params = MonteCarloParams {
            seed: 3,
            samples: 30_000,
        };
        let p = engine
            .probability_with_backend(&q, EngineBackend::MonteCarlo(params))
            .unwrap();
        assert!((0.0..=1.0).contains(&p));
        assert!((p - exact).abs() < 0.05, "{p} vs {exact}");
    }

    #[test]
    fn answers_flow_through_the_lineage_path() {
        let mvdb = example1(0.5);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q(x) :- R(x), S(x)").unwrap();
        let backend = MonteCarlo::new(test_config(9));
        let answers = engine.answers_with(&q, &backend).unwrap();
        assert_eq!(answers.len(), 1);
        let exact = engine.answers(&q).unwrap();
        assert!((answers[0].1 - exact[0].1).abs() < 0.05);
    }

    #[test]
    fn mvdbs_without_views_sample_in_direct_mode() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("R", &["b"], 1.0).unwrap();
        let mvdb = b.build().unwrap();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x)").unwrap();
        let answer = engine.approx_probability(&q, &test_config(4)).unwrap();
        assert_eq!(answer.method, IntervalMethod::Wilson);
        let exact = mvdb.exact_probability(&q).unwrap();
        assert!(answer.contains(exact));
    }
}
