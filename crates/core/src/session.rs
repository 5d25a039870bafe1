//! Batch evaluation sessions: many queries, shared state, optional threads.
//!
//! [`MvdbSession`] (created by [`MvdbEngine::session`]) evaluates a slice of
//! Boolean queries against one compiled engine. It is the no-shard case of
//! the batch pipeline that also serves
//! [`ShardedSession`](crate::ShardedSession): every query is evaluated on
//! the full store by the worker that holds its stripe, so the pipeline's
//! first phase is the whole batch.
//!
//! Queries are assigned to the `threads` workers in **stripes**
//! (round-robin: worker `w` takes queries `w`, `w + workers`,
//! `w + 2·workers`, …) rather than contiguous chunks, so a run of expensive
//! queries at one end of the batch — common when callers sort workloads by
//! key or size — is spread across all workers instead of serialising one of
//! them. The calling thread is worker 0; a single-threaded session spawns
//! nothing. The immutable engine (translated database + compiled MV-index,
//! whose manager is behind an `Arc`'d lock) is shared by reference, while
//! each worker owns a private [`EvalContext`](crate::EvalContext) — and
//! therefore a private query-side [`ObddManager`](mv_obdd::ObddManager) —
//! so nodes, apply-memo entries and cached probabilities accumulate across
//! a worker's stripe and query-side construction never contends across
//! threads.
//!
//! Results are **identical** at every thread count (the same deterministic
//! per-query computation runs either way; only the manager a query's
//! diagram lives in differs, and canonicity makes that unobservable). The
//! agreement suite asserts equality within 1e-9.

use mv_obdd::ManagerStats;
use mv_query::approx::{derive_seed, ApproxAccumulator, ApproxAnswer, ApproxConfig};
use mv_query::{ExecStats, PlanStats, Ucq};

use crate::backend::resilient::{QueryOutcome, ResilienceConfig};
use crate::backend::{EngineBackend, MonteCarlo};
use crate::batch::{fan_out, striped, Pipeline};
use crate::engine::MvdbEngine;
use crate::error::CoreError;
use crate::Result;

/// Query-layer counters of one session batch: the shape of every query
/// template the batch's contexts resolved plus the vectorized executor's
/// work (blocks scanned, CSR probes, batches). Summed over every worker
/// context, so the counters are complete at `threads > 1` too.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueryStats {
    /// Shape statistics of the templates the batch's contexts resolved:
    /// each context counts each template it met once, whether it compiled
    /// the template or found it in the store's shared cache.
    pub plan: PlanStats,
    /// Vectorized-executor counters accumulated by the batch's contexts.
    pub exec: ExecStats,
}

impl std::ops::Add for QueryStats {
    type Output = QueryStats;
    fn add(self, rhs: QueryStats) -> QueryStats {
        QueryStats {
            plan: self.plan + rhs.plan,
            exec: self.exec + rhs.exec,
        }
    }
}

/// A batch-evaluation session over a compiled [`MvdbEngine`].
#[derive(Debug)]
pub struct MvdbSession<'e> {
    pipeline: Pipeline<'e>,
}

impl<'e> MvdbSession<'e> {
    pub(crate) fn new(engine: &'e MvdbEngine) -> Self {
        MvdbSession {
            pipeline: Pipeline::unsharded(engine),
        }
    }

    /// Sets the number of worker threads (clamped to at least 1). The batch
    /// is striped round-robin over the workers, so neighbouring (often
    /// similarly expensive) queries land on different threads.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.pipeline.workers = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.pipeline.workers
    }

    /// The engine this session evaluates against.
    pub fn engine(&self) -> &'e MvdbEngine {
        self.pipeline.full
    }

    /// Manager counters attributable to the most recent batch alone — also
    /// when that batch returned an error: the sum of every worker's
    /// (batch-fresh) query-side manager stats plus the *delta* the batch
    /// added to the shared index manager — compile-time work and earlier
    /// batches on the same engine are excluded. `peak_nodes` is the
    /// largest single arena touched. Zero before the first batch.
    pub fn last_manager_stats(&self) -> ManagerStats {
        self.pipeline.last().manager
    }

    /// Query-layer counters of the most recent batch: plan shapes plus the
    /// vectorized executor's scan and CSR-probe counters, summed over every
    /// worker's context. Zero before the first batch.
    pub fn last_query_stats(&self) -> QueryStats {
        self.pipeline.last().query
    }

    /// Evaluates every query's Boolean probability with the engine's default
    /// backend (the MV-index). Results are positionally aligned with
    /// `queries`.
    pub fn probabilities(&self, queries: &[Ucq]) -> Result<Vec<f64>> {
        self.probabilities_with_backend(
            queries,
            EngineBackend::MvIndex(self.engine().intersect_algorithm()),
        )
    }

    /// Evaluates every query's Boolean probability through an explicit
    /// backend selector: the exact rung of the resilience ladder alone, no
    /// budget, no retries. The first query that cannot be answered makes
    /// the batch an error — its own typed error, or
    /// [`CoreError::WorkerPanicked`] when the backend panicked on it, at
    /// every thread count.
    pub fn probabilities_with_backend(
        &self,
        queries: &[Ucq],
        selector: EngineBackend,
    ) -> Result<Vec<f64>> {
        self.pipeline.plain(queries, selector)
    }

    /// Estimates every query's probability by Monte Carlo sampling,
    /// returning full confidence intervals positionally aligned with
    /// `queries`.
    ///
    /// Each query gets its own decorrelated ChaCha stream derived from
    /// `config.seed` and the query's batch position, so the results are
    /// **bit-identical for every worker-thread count** — parallelism only
    /// re-schedules whole queries (striped, like
    /// [`MvdbSession::probabilities`]); it never splits a query's stream.
    pub fn approx_probabilities(
        &self,
        queries: &[Ucq],
        config: &ApproxConfig,
    ) -> Result<Vec<ApproxAnswer>> {
        let engine = self.engine();
        let (answers, _) = striped(
            queries.len(),
            self.threads(),
            |stripe| {
                let ctx = engine.context();
                let answers: Vec<Result<ApproxAnswer>> = stripe
                    .map(|i| {
                        let per_query = ApproxConfig {
                            seed: derive_seed(config.seed, i as u64),
                            ..*config
                        };
                        MonteCarlo::new(per_query).approx(&queries[i].boolean(), &ctx)
                    })
                    .collect();
                (answers, ())
            },
            // A worker-level panic poisons only its own stripe: the outcome
            // is a typed error instead of an aborted batch.
            Err,
        );
        answers.into_iter().collect()
    }

    /// Estimates one query's probability with the sample budget **split
    /// across the session's workers**: each worker draws from an
    /// independent ChaCha stream (seeds striped off `config.seed`) and the
    /// partial sums are merged — the weighted average of the per-worker
    /// estimates — before the interval is computed. Deterministic for a
    /// fixed `(seed, threads)` pair.
    ///
    /// Workers early-stop at `target_half_width · √workers` (merging
    /// `k` independent streams shrinks the half-width by about `√k`); the
    /// interval reported here is computed from the *merged* sums, so the
    /// target may be overshot slightly but never trusted blindly.
    pub fn approx_probability(&self, query: &Ucq, config: &ApproxConfig) -> Result<ApproxAnswer> {
        let workers = self.threads();
        let q = query.boolean();
        // The sampler is compiled once (lineage collection, variable
        // classification, component pruning) and shared by reference: it
        // only borrows the translated database, so worker threads run its
        // tight sampling loop without per-worker recompilation.
        let ctx = self.engine().context();
        let backend = MonteCarlo::new(*config);
        let lin_q = ctx.lineage(&q)?;
        let sampler = backend.sampler(&lin_q, &q, &ctx)?;
        if workers <= 1 {
            return Ok(sampler.estimate(config));
        }
        // Exact split of the hard budget: the first `remainder` workers
        // take one extra sample, so the merged total equals `max_samples`
        // for every (budget, workers) pair.
        let base = config.max_samples / workers as u64;
        let remainder = (config.max_samples % workers as u64) as usize;
        let worker_config = |w: usize| ApproxConfig {
            seed: derive_seed(config.seed, w as u64),
            max_samples: base + u64::from(w < remainder),
            min_samples: (config.min_samples / workers as u64).max(64),
            target_half_width: config.target_half_width * (workers as f64).sqrt(),
            ..*config
        };
        let mut merged = ApproxAccumulator::default();
        for partial in fan_out(workers, |w| sampler.collect(&worker_config(w))) {
            let partial =
                partial.map_err(|p| CoreError::from_panic("session_split_join", p.as_ref()))?;
            merged.merge(&partial);
        }
        Ok(sampler.answer_from(&merged, config))
    }

    /// Evaluates every query through the resilience ladder: each query is
    /// isolated (panics quarantined to its own outcome), degradable
    /// failures escalate exact → bounded-exact → Monte Carlo, and
    /// transient losses are retried with backoff. Never returns an error
    /// and never aborts — the result carries one [`QueryOutcome`] per
    /// query, positionally aligned with `queries`.
    pub fn resilient_probabilities(
        &self,
        queries: &[Ucq],
        config: &ResilienceConfig,
    ) -> Vec<QueryOutcome> {
        self.pipeline.resilient(queries, config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdb::{Mvdb, MvdbBuilder};
    use mv_query::parse_ucq;

    fn sample_mvdb() -> Mvdb {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        for (x, (wr, ws)) in [("a", (3.0, 4.0)), ("b", (1.0, 0.5)), ("c", (2.0, 2.0))] {
            b.weighted_tuple("R", &[x], wr).unwrap();
            b.weighted_tuple("S", &[x], ws).unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        b.build().unwrap()
    }

    fn workload() -> Vec<Ucq> {
        [
            "Q() :- R(x), S(x)",
            "Q() :- R(x)",
            "Q() :- S(x)",
            "Q() :- R('a')",
            "Q() :- R('b'), S('b')",
            "Q() :- R(x) ; Q() :- S(x)",
            "Q() :- S('c')",
        ]
        .iter()
        .map(|q| parse_ucq(q).unwrap())
        .collect()
    }

    #[test]
    fn parallel_batches_match_sequential_evaluation() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let sequential = engine.session().probabilities(&queries).unwrap();
        // Reference: one-at-a-time evaluation through the plain engine API.
        for (q, p) in queries.iter().zip(&sequential) {
            let reference = engine.probability(q).unwrap();
            assert!((p - reference).abs() < 1e-12);
        }
        for threads in [2, 4, 7, 16] {
            let parallel = engine
                .session()
                .with_threads(threads)
                .probabilities(&queries)
                .unwrap();
            assert_eq!(parallel.len(), sequential.len());
            for (s, p) in sequential.iter().zip(&parallel) {
                assert!((s - p).abs() < 1e-9, "{threads} threads: {p} vs {s}");
            }
        }
    }

    #[test]
    fn sessions_support_every_comparison_backend() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference = engine.session().probabilities(&queries).unwrap();
        for selector in EngineBackend::comparison_suite() {
            let batch = engine
                .session()
                .with_threads(3)
                .probabilities_with_backend(&queries, selector)
                .unwrap();
            for (r, p) in reference.iter().zip(&batch) {
                assert!((r - p).abs() < 1e-9, "{selector:?}: {p} vs {r}");
            }
        }
    }

    #[test]
    fn sessions_expose_manager_stats() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let session = engine.session().with_threads(2);
        assert_eq!(session.last_manager_stats(), ManagerStats::default());
        session.probabilities(&queries).unwrap();
        let stats = session.last_manager_stats();
        // Per-batch attribution: the workers' query shards allocated nodes
        // and exercised the unique table; compile-time index work is not
        // counted.
        assert!(stats.nodes_allocated > 0);
        assert!(stats.peak_nodes > 0);
        assert!(stats.unique_hits + stats.unique_misses > 0);
    }

    #[test]
    fn sessions_expose_query_stats_at_any_thread_count() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        for threads in [1, 2, 4] {
            let session = engine.session().with_threads(threads);
            assert_eq!(session.last_query_stats(), QueryStats::default());
            session.probabilities(&queries).unwrap();
            let stats = session.last_query_stats();
            // Every worker compiled plans and drove the vectorized executor:
            // the workload's joins probe CSR indexes and its scans read
            // blocks of rows.
            assert!(stats.plan.disjuncts > 0, "{threads} threads");
            assert!(stats.plan.steps > 0, "{threads} threads");
            assert!(stats.exec.csr_probe_steps > 0, "{threads} threads");
            assert!(stats.exec.blocks_scanned > 0, "{threads} threads");
            assert!(stats.exec.batches > 0, "{threads} threads");
        }
    }

    #[test]
    fn striped_assignment_preserves_positional_alignment() {
        // A workload of queries with pairwise-distinct probabilities: any
        // mix-up between a worker's stripe and the result slots would show
        // up as a permutation. Exercises worker counts that do and do not
        // divide the batch length.
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| engine.probability(q).unwrap())
            .collect();
        let distinct: std::collections::BTreeSet<String> =
            reference.iter().map(|p| format!("{p:.12}")).collect();
        assert!(distinct.len() >= 5, "workload must disambiguate positions");
        for threads in [2, 3, 5, queries.len(), queries.len() + 3] {
            let batch = engine
                .session()
                .with_threads(threads)
                .probabilities(&queries)
                .unwrap();
            for (i, (r, p)) in reference.iter().zip(&batch).enumerate() {
                assert!(
                    (r - p).abs() < 1e-12,
                    "{threads} threads permuted slot {i}: {p} vs {r}"
                );
            }
        }
    }

    #[test]
    fn approx_batches_are_bit_identical_across_thread_counts() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let config = ApproxConfig {
            seed: 42,
            target_half_width: 0.0,
            max_samples: 4_096,
            ..ApproxConfig::default()
        };
        let sequential = engine
            .session()
            .approx_probabilities(&queries, &config)
            .unwrap();
        // Every query stream is derived from the seed and batch position,
        // so re-scheduling across workers cannot change a single bit.
        for threads in [2, 3, 16] {
            let parallel = engine
                .session()
                .with_threads(threads)
                .approx_probabilities(&queries, &config)
                .unwrap();
            for (s, p) in sequential.iter().zip(&parallel) {
                assert_eq!(s.estimate.to_bits(), p.estimate.to_bits());
                assert_eq!(s.half_width.to_bits(), p.half_width.to_bits());
                assert_eq!(s.samples, p.samples);
            }
        }
        // And the intervals actually cover the exact probabilities.
        for (q, answer) in queries.iter().zip(&sequential) {
            let exact = engine.probability(q).unwrap();
            assert!(
                answer.contains(exact),
                "{q}: CI [{}, {}] misses exact {exact}",
                answer.lower(),
                answer.upper()
            );
        }
    }

    #[test]
    fn split_budget_estimation_merges_worker_streams() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let exact = engine.probability(&q).unwrap();
        // A budget that does not divide by the worker count: the split must
        // still land exactly on the hard budget.
        let config = ApproxConfig {
            seed: 7,
            target_half_width: 0.0,
            max_samples: 8_191,
            ..ApproxConfig::default()
        };
        let session = engine.session().with_threads(4);
        let merged = session.approx_probability(&q, &config).unwrap();
        // The full budget is split over the workers.
        assert_eq!(merged.samples, 8_191);
        assert!(merged.contains(exact));
        // Deterministic for a fixed (seed, threads) pair.
        let again = session.approx_probability(&q, &config).unwrap();
        assert_eq!(merged.estimate.to_bits(), again.estimate.to_bits());
        // Single-threaded sessions take the plain sequential path.
        let solo = engine.session().approx_probability(&q, &config).unwrap();
        assert_eq!(solo.samples, 8_191);
        assert!(solo.contains(exact));
    }

    #[test]
    fn thread_counts_are_clamped_and_errors_surface() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let session = engine.session().with_threads(0);
        assert_eq!(session.threads(), 1);
        // Queries over unknown relations error out of a batch instead of
        // panicking, sequentially and in parallel.
        let bad = vec![parse_ucq("Q() :- Unknown(x)").unwrap()];
        assert!(session.probabilities(&bad).is_err());
        let parallel_bad: Vec<Ucq> = (0..4)
            .map(|_| parse_ucq("Q() :- Unknown(x)").unwrap())
            .collect();
        assert!(engine
            .session()
            .with_threads(2)
            .probabilities(&parallel_bad)
            .is_err());
    }

    #[test]
    fn resilient_sessions_match_the_exact_path_without_chaos() {
        let _quiet = crate::chaos::quiet();
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| engine.probability(q).unwrap())
            .collect();
        for threads in [1, 3] {
            let session = engine.session().with_threads(threads);
            let outcomes = session.resilient_probabilities(&queries, &ResilienceConfig::default());
            assert_eq!(outcomes.len(), queries.len());
            for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
                assert!(o.answered(), "{threads} threads, slot {i}: {:?}", o.fault);
                assert!(!o.degraded(), "{threads} threads, slot {i}: {:?}", o.rung);
                assert_eq!(o.retries, 0);
                let p = o.probability.unwrap();
                assert!(
                    (p - r).abs() < 1e-12,
                    "{threads} threads, slot {i}: {p} vs {r}"
                );
            }
        }
    }

    #[test]
    fn resilient_sessions_answer_every_query_under_chaos() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| engine.probability(q).unwrap())
            .collect();
        let config = ResilienceConfig::default();
        for site in [
            crate::chaos::sites::SESSION_EVAL,
            crate::chaos::sites::EXACT_RUNG,
            crate::chaos::sites::BOUNDED_RUNG,
        ] {
            for fault in [crate::chaos::Fault::Panic, crate::chaos::Fault::Deadline] {
                let guard = crate::chaos::install(
                    crate::chaos::ChaosConfig::new(99).rule(site, fault, 0.5),
                );
                for threads in [1, 4] {
                    let session = engine.session().with_threads(threads);
                    let outcomes = session.resilient_probabilities(&queries, &config);
                    for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
                        assert!(
                            o.answered(),
                            "{site}/{fault:?}, {threads} threads, slot {i}: {:?}",
                            o.fault
                        );
                        let p = o.probability.unwrap();
                        let tol = if o.degraded() {
                            o.epsilon.map_or(1e-9, |e| 4.0 * e + 0.02)
                        } else {
                            1e-9
                        };
                        assert!(
                            (p - r).abs() < tol,
                            "{site}/{fault:?}, {threads} threads, slot {i}: {p} vs {r}"
                        );
                    }
                }
                drop(guard);
            }
        }
    }

    #[test]
    fn resilient_sessions_quarantine_semantic_faults_per_query() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = vec![
            parse_ucq("Q() :- Unknown(x)").unwrap(),
            parse_ucq("Q() :- R(x)").unwrap(),
        ];
        let outcomes = engine
            .session()
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        assert!(!outcomes[0].answered());
        assert_eq!(
            outcomes[0].fault.as_ref().map(|f| f.kind),
            Some(crate::FaultKind::Semantic)
        );
        assert!(outcomes[1].answered());
        let reference = engine.probability(&queries[1]).unwrap();
        assert!((outcomes[1].probability.unwrap() - reference).abs() < 1e-12);
    }
}
