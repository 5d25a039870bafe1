//! Scale-out sharded inference: component-partitioned evaluation with
//! per-worker query managers and exact independence combination.
//!
//! The Theorem 1 conditional factorises over the connected components of
//! the dependency graph induced by `W`'s lineage clauses: tuples in
//! different components are independent, and `¬W = ∧_s ¬W_s` splits into
//! per-component factors. [`ShardedEngine`] promotes that observation —
//! which the Monte Carlo sampler already uses as a prune
//! ([`mv_query::components`]) — into a first-class sharding layer. A shard
//! is *placement*, not storage: a set of components (hence of blocks of the
//! one compiled MV-index) and the clauses `W_s` of `W`'s lineage they
//! carry. There is one translated store and one index, the full engine's.
//!
//! 1. **Partition.** [`mv_query::ComponentPartitioner`] assigns every
//!    *W-homed* tuple (one mentioned by some `W` clause) to exactly one of
//!    `num_shards` shards, packing whole components greedily by size.
//!    Because components never split, no `W` clause — and no index block —
//!    spans shards. W-free tuples are independent of `W` and have no home.
//!    The clauses come from the lineage the index compile kept
//!    ([`mv_index::MvIndex::w_lineage`]); `W` is not evaluated again.
//! 2. **Routing.** A query's lineage `Φ_Q = ∨ C_i` is computed once on the
//!    full store and grouped by shared variables
//!    ([`mv_query::Partition::route`]): each group binds to the unique
//!    shard holding its W-homed variables (all-free groups are pinned
//!    deterministically). A group mixing two shards' W-homed tuples makes
//!    the whole query fall back to the unsharded engine (the exact
//!    oracle), so the sharded path never answers a query it cannot answer
//!    exactly.
//! 3. **Per-shard evaluation.** One worker per touched shard evaluates the
//!    shard's clause groups, global tuple ids and all, in a context over
//!    the full store and index with a private query-side manager and `W_s`
//!    in place of `W`'s lineage — so backends that expand `W` (Shannon,
//!    brute force, Monte Carlo, the bounded rung) expand only the shard's
//!    share of it.
//! 4. **Independence combination.** With `φ_s` the clauses routed to shard
//!    `s` and `q_s = P0(φ_s ∧ ¬W_s) / P0(¬W_s)` the per-shard conditional,
//!    the per-shard disjuncts touch disjoint independent variables (shared
//!    variables force clauses into one group, hence one shard), so
//!
//!    ```text
//!    P(Q | ¬W) = 1 − P(∧_s ¬φ_s | ∧_s ¬W_s) = 1 − ∏_s (1 − q_s)
//!    ```
//!
//!    exactly — a pure product/complement combination, no re-synthesis.
//!
//! [`ShardedSession`] is the batch pipeline (`crate::batch`, shared with the
//! unsharded [`MvdbSession`](crate::MvdbSession)) run over an engine's
//! shards: route, evaluate on one worker per touched shard, combine, and
//! rescue on the oracle what a shard lost. Every evaluation goes through
//! the resilience ladder — plain `probabilities` is the ladder's exact rung
//! alone. Lineage-capable backends (MV-index, Shannon, brute force, Monte
//! Carlo) take the sharded path; structural backends (safe plans, per-query
//! OBDDs) evaluate a *query*, not a clause group, so they answer on the
//! full store.

use std::sync::Arc;

use fxhash::FxHashMap;
use mv_index::MvIndex;
use mv_obdd::ManagerStats;
use mv_pdb::Value;
use mv_query::lineage::Lineage;
use mv_query::partition::{ComponentPartitioner, Partition};
use mv_query::Ucq;

use crate::backend::resilient::{QueryOutcome, ResilienceConfig};
use crate::backend::EngineBackend;
use crate::batch::Pipeline;
use crate::engine::MvdbEngine;
use crate::mvdb::Mvdb;
use crate::session::QueryStats;
use crate::update::{self, UpdateBatch, UpdateKind, UpdateOutcome};
use crate::Result;

/// A compiled MVDB with its `W`-components placed on shards: the unsharded
/// [`MvdbEngine`] (the one store and index, and the cross-shard oracle),
/// the tuple → shard assignment, and each shard's share `W_s` of `W`'s
/// lineage.
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    pub(crate) full: MvdbEngine,
    pub(crate) partition: Partition,
    /// Per shard, the clauses of `W`'s lineage homed there.
    pub(crate) w_shards: Arc<[Lineage]>,
}

/// The placement step: packs the components of `W`'s lineage — the copy
/// the engine's index kept — onto `num_shards` shards and splits the
/// lineage along them.
fn place(full: &MvdbEngine, num_shards: usize) -> (Partition, Arc<[Lineage]>) {
    let w = full.index().w_lineage();
    let partition = ComponentPartitioner::new(full.translated().num_tuples(), w.clauses())
        .partition(num_shards);
    let mut w_shards = vec![Vec::new(); partition.num_shards()];
    for clause in w.clauses() {
        // A compiled engine is consistent, so no clause of `W` is empty.
        let home = partition
            .home_of(clause[0])
            .expect("every W-clause member is homed");
        w_shards[home].push(clause.clone());
    }
    let w_shards = w_shards
        .into_iter()
        .map(Lineage::from_distinct_clauses)
        .collect();
    (partition, w_shards)
}

/// `(clause count, variable count)` of a block.
fn block_shape(index: &MvIndex, block: usize) -> (usize, usize) {
    (
        index.block_clauses(block),
        index.block_variables(block).count(),
    )
}

impl ShardedEngine {
    /// Translates and compiles the MVDB, then shards it. Equivalent to
    /// [`MvdbEngine::compile`] followed by [`ShardedEngine::from_engine`].
    pub fn compile(mvdb: &Mvdb, num_shards: usize) -> Result<Self> {
        Self::from_engine(MvdbEngine::compile(mvdb)?, num_shards)
    }

    /// Shards an already-compiled engine: places the components of `W`'s
    /// lineage on `num_shards` shards. Nothing is compiled or copied — the
    /// shards evaluate against the engine's own store and index.
    ///
    /// `num_shards` is clamped to at least 1; shards may be empty when the
    /// database has fewer components than shards.
    pub fn from_engine(full: MvdbEngine, num_shards: usize) -> Result<Self> {
        let (partition, w_shards) = place(&full, num_shards);
        Ok(ShardedEngine {
            full,
            partition,
            w_shards,
        })
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.w_shards.len()
    }

    /// The unsharded engine — the exact oracle and cross-shard fallback.
    pub fn full(&self) -> &MvdbEngine {
        &self.full
    }

    /// The tuple→shard assignment.
    pub fn partition(&self) -> &Partition {
        &self.partition
    }

    /// A batch-evaluation session with one worker per touched shard.
    pub fn session(&self) -> ShardedSession<'_> {
        ShardedSession::new(self)
    }

    /// The probability of one Boolean query through the sharded path with
    /// the engine's default backend.
    pub fn probability(&self, query: &Ucq) -> Result<f64> {
        Ok(self
            .session()
            .probabilities(std::slice::from_ref(query))?
            .remove(0))
    }

    /// Applies an update batch in place: [`MvdbEngine::apply`] on the full
    /// engine, then — after a structural batch, whose re-translation
    /// renumbers tuples and recompiles the one index — the placement step
    /// of [`ShardedEngine::from_engine`] again. A weight-only batch keeps
    /// tuple ids, blocks and `W`'s clauses, hence the placement.
    ///
    /// [`UpdateOutcome::shards_rebuilt`] reports how far a structural batch
    /// reached: the number of distinct home shards of blocks whose key is
    /// new or whose clause or variable count changed (every shard when the
    /// helper query `W` itself changed, as when a view crosses the denial
    /// boundary).
    ///
    /// Like [`MvdbEngine::apply`], a batch that fails — in validation or in
    /// recompilation — leaves the engine untouched.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let num_shards = self.num_shards();
        if update::classify(self.full.mvdb(), self.full.translated(), batch)?
            != UpdateKind::Structural
        {
            let mut outcome = self.full.apply(batch)?;
            outcome.shards_reused = num_shards;
            return Ok(outcome);
        }
        // Block shapes by key, and the helper query, from before the apply:
        // keys are separator values, which survive a re-translation (tuple
        // ids do not).
        let old = self.full.index();
        let old_shapes: FxHashMap<Value, (usize, usize)> = (0..old.num_blocks())
            .map(|b| (old.block_key(b).clone(), block_shape(old, b)))
            .collect();
        let old_w = self.full.translated().w().cloned();

        let mut outcome = self.full.apply(batch)?;
        (self.partition, self.w_shards) = place(&self.full, num_shards);

        let index = self.full.index();
        let mut dirty = vec![old_w.as_ref() != self.full.translated().w(); num_shards];
        for b in 0..index.num_blocks() {
            if old_shapes.get(index.block_key(b)) != Some(&block_shape(index, b)) {
                let home = index
                    .block_variables(b)
                    .find_map(|t| self.partition.home_of(t));
                dirty[home.expect("a block's variables are W-homed")] = true;
            }
        }
        outcome.shards_rebuilt = dirty.iter().filter(|&&d| d).count();
        outcome.shards_reused = num_shards - outcome.shards_rebuilt;
        Ok(outcome)
    }
}

/// A batch-evaluation session over a [`ShardedEngine`].
///
/// A batch runs the three phases of the batch pipeline (`route` striped
/// over one worker per shard, `evaluate` on one worker per touched shard,
/// `combine` + `rescue` on the calling thread) — the
/// same pipeline an unsharded [`MvdbSession`](crate::MvdbSession) runs
/// without the middle phase. The calling thread is worker 0 of each phase,
/// so a batch that touches one shard spawns no thread.
///
/// Per-query service latencies ([`QueryOutcome::elapsed`]: routing +
/// per-shard evaluation + rescue time, queue wait excluded) and
/// per-shard/fallback counters are recorded for every batch; manager and
/// query-layer statistics are merged across the routing contexts, every
/// shard worker and the rescue path, so the session-level aggregate stays
/// complete under sharding. The `last_*` accessors describe the most
/// recent batch whether or not it returned an error.
#[derive(Debug)]
pub struct ShardedSession<'e> {
    engine: &'e ShardedEngine,
    pipeline: Pipeline<'e>,
}

impl<'e> ShardedSession<'e> {
    fn new(engine: &'e ShardedEngine) -> Self {
        ShardedSession {
            engine,
            pipeline: Pipeline::sharded(engine),
        }
    }

    /// The engine this session evaluates against.
    pub fn engine(&self) -> &'e ShardedEngine {
        self.engine
    }

    /// Merged manager counters of the most recent batch: every worker's
    /// query-side manager plus the delta the index manager accumulated
    /// during the batch. Zero before the first batch.
    pub fn last_manager_stats(&self) -> ManagerStats {
        self.pipeline.last().manager
    }

    /// Query-layer counters of the most recent batch, merged over the
    /// routing contexts and every shard worker. Zero before the first batch.
    pub fn last_query_stats(&self) -> QueryStats {
        self.pipeline.last().query
    }

    /// Per-shard counts of sub-queries evaluated in the most recent batch
    /// (a query touching `k` shards contributes 1 to each of the `k`).
    pub fn last_shard_queries(&self) -> Vec<u64> {
        self.pipeline.last().shard_queries.clone()
    }

    /// Number of queries of the most recent batch that were answered by
    /// the unsharded oracle — because some clause group drew W-homed tuples
    /// from two shards, because the backend is structural (it evaluates
    /// queries, not clause groups), or because a shard item was lost.
    pub fn last_fallbacks(&self) -> u64 {
        self.pipeline.last().fallbacks
    }

    /// Evaluates every query's Boolean probability with the engine's
    /// default backend (the MV-index). Results are positionally aligned
    /// with `queries`.
    pub fn probabilities(&self, queries: &[Ucq]) -> Result<Vec<f64>> {
        self.probabilities_with_backend(
            queries,
            EngineBackend::MvIndex(self.engine.full.intersect_algorithm()),
        )
    }

    /// Evaluates every query through an explicit backend selector: the
    /// exact rung of the resilience ladder alone, no budget, no retries. A
    /// shard item that fails does not fail its query — the query is
    /// rerouted to the unsharded oracle, exactly like a cross-shard
    /// lineage; only a query the oracle cannot answer either makes the
    /// batch an error, with that query's own typed error.
    pub fn probabilities_with_backend(
        &self,
        queries: &[Ucq],
        selector: EngineBackend,
    ) -> Result<Vec<f64>> {
        self.pipeline.plain(queries, selector)
    }

    /// Evaluates every query through the resilience ladder on the sharded
    /// path. Each phase is panic-isolated: a routing failure, a lost
    /// per-shard item or a dead worker quarantines exactly the queries it
    /// touched, which are then rerouted to the unsharded oracle with
    /// retry-with-backoff — the rest of the batch completes undisturbed.
    /// Never returns an error and never aborts: the result carries one
    /// [`QueryOutcome`] per query, positionally aligned with `queries`.
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
    use crate::chaos;
    use crate::mvdb::MvdbBuilder;
    use mv_query::parse_ucq;

    /// Three independent components (one per `x` value): each couples
    /// `R(x)`, `S(x)` and the view's `NV` tuple.
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
    fn sharded_matches_unsharded_for_every_backend_and_shard_count() {
        let mvdb = sample_mvdb();
        let queries = workload();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| oracle.probability(q).unwrap())
            .collect();
        for num_shards in [1, 2, 3, 5] {
            // Sharding is placement: no block is compiled a second time.
            let nodes = oracle.index().manager().num_nodes();
            let engine = ShardedEngine::from_engine(oracle.clone(), num_shards).unwrap();
            assert_eq!(engine.num_shards(), num_shards);
            assert_eq!(engine.full().index().manager().num_nodes(), nodes);
            for selector in EngineBackend::comparison_suite() {
                let batch = engine
                    .session()
                    .probabilities_with_backend(&queries, selector)
                    .unwrap();
                for (i, (r, p)) in reference.iter().zip(&batch).enumerate() {
                    assert!(
                        (r - p).abs() < 1e-12,
                        "{num_shards} shards, {selector:?}, slot {i}: {p} vs {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn constant_lineages_touch_zero_shards() {
        let mut b = MvdbBuilder::new();
        b.deterministic_relation("D", &["x"]).unwrap();
        b.relation("R", &["x"]).unwrap();
        b.fact("D", &["k"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.marko_view("V(x)[0.5] :- R(x)").unwrap();
        let engine = ShardedEngine::compile(&b.build().unwrap(), 2).unwrap();
        let queries = vec![
            parse_ucq("Q() :- D('k')").unwrap(),  // deterministic: true
            parse_ucq("Q() :- R('zz')").unwrap(), // no matching tuple: false
        ];
        let session = engine.session();
        let probs = session.probabilities(&queries).unwrap();
        assert_eq!(probs, vec![1.0, 0.0]);
        assert_eq!(session.last_shard_queries().iter().sum::<u64>(), 0);
        assert_eq!(session.last_fallbacks(), 0);
    }

    #[test]
    fn cross_shard_clauses_fall_back_to_the_oracle() {
        let mvdb = sample_mvdb();
        let engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        // Three components over three shards: some pair of values lives in
        // two different shards, so a two-value conjunction must span.
        let spanning: Vec<Ucq> = [("a", "b"), ("a", "c"), ("b", "c")]
            .iter()
            .map(|(x, y)| parse_ucq(&format!("Q() :- R('{x}'), S('{y}')")).unwrap())
            .collect();
        let session = engine.session();
        let probs = session.probabilities(&spanning).unwrap();
        assert!(session.last_fallbacks() > 0);
        for (q, p) in spanning.iter().zip(&probs) {
            let reference = engine.full().probability(q).unwrap();
            assert!((p - reference).abs() < 1e-12, "{q}: {p} vs {reference}");
        }
        // A disjunction of per-component clauses stays sharded: each clause
        // has a home even though the query touches several shards.
        let multi = vec![parse_ucq("Q() :- R(x)").unwrap()];
        let probs = session.probabilities(&multi).unwrap();
        assert_eq!(session.last_fallbacks(), 0);
        assert!(session.last_shard_queries().iter().sum::<u64>() >= 2);
        let reference = engine.full().probability(&multi[0]).unwrap();
        assert!((probs[0] - reference).abs() < 1e-12);
    }

    #[test]
    fn sessions_merge_stats_and_counters_across_shards() {
        let mvdb = sample_mvdb();
        let engine = ShardedEngine::compile(&mvdb, 2).unwrap();
        let queries = workload();
        let session = engine.session();
        assert_eq!(session.last_manager_stats(), ManagerStats::default());
        let outcomes = session.resilient_probabilities(&queries, &ResilienceConfig::default());
        assert_eq!(outcomes.len(), queries.len());
        // Every query reports its own service latency.
        assert!(outcomes.iter().all(|o| !o.elapsed.is_zero()));
        // Both shards evaluated sub-queries, and the merged counters saw
        // the workers' query-side managers.
        let per_shard = session.last_shard_queries();
        assert_eq!(per_shard.len(), 2);
        assert!(per_shard.iter().all(|&c| c > 0), "{per_shard:?}");
        let stats = session.last_manager_stats();
        assert!(stats.nodes_allocated > 0);
        assert!(stats.unique_hits + stats.unique_misses > 0);
        let query_stats = session.last_query_stats();
        assert!(query_stats.plan.steps > 0);
        assert!(query_stats.exec.batches > 0);
    }

    #[test]
    fn single_query_probability_routes_through_the_session() {
        let mvdb = sample_mvdb();
        let engine = ShardedEngine::compile(&mvdb, 4).unwrap();
        for q in workload() {
            let p = engine.probability(&q).unwrap();
            let reference = engine.full().probability(&q).unwrap();
            assert!((p - reference).abs() < 1e-12, "{q}");
        }
    }

    #[test]
    fn w_free_tuples_ride_along_with_their_clause_group() {
        // `T` appears in no view, so its tuples are W-free: they have no
        // home shard and are pinned per query.
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("T", &["x"]).unwrap();
        for (x, w) in [("a", 3.0), ("b", 1.0), ("c", 2.0)] {
            b.weighted_tuple("R", &[x], w).unwrap();
            b.weighted_tuple("T", &[x], w + 0.5).unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x)").unwrap();
        let mvdb = b.build().unwrap();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        let queries: Vec<Ucq> = ["Q() :- R(x), T(x)", "Q() :- T(x)", "Q() :- R('a'), T('b')"]
            .iter()
            .map(|q| parse_ucq(q).unwrap())
            .collect();
        let session = engine.session();
        // The lineage-capable default backend shards all of these: W-free
        // tuples ride along with the clause group that mentions them.
        let probs = session.probabilities(&queries).unwrap();
        assert_eq!(session.last_fallbacks(), 0);
        assert!(session.last_shard_queries().iter().sum::<u64>() > 0);
        for (q, p) in queries.iter().zip(&probs) {
            let reference = oracle.probability(q).unwrap();
            assert!((p - reference).abs() < 1e-12, "{q}: {p} vs {reference}");
        }
        // A structural backend evaluates queries, not clause groups: every
        // query is answered on the full store, exactly.
        let probs = session
            .probabilities_with_backend(&queries, EngineBackend::ObddPerQuery)
            .unwrap();
        assert_eq!(session.last_fallbacks(), queries.len() as u64);
        assert_eq!(session.last_shard_queries().iter().sum::<u64>(), 0);
        for (q, p) in queries.iter().zip(&probs) {
            let reference = oracle.probability(q).unwrap();
            assert!((p - reference).abs() < 1e-12, "{q}: {p} vs {reference}");
        }
    }

    #[test]
    fn evaluates_lineage_matches_backend_behaviour() {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let ctx = engine.context();
        let q = parse_ucq("Q() :- R(x)").unwrap();
        let lineage = ctx.lineage(&q).unwrap();
        for selector in EngineBackend::comparison_suite().into_iter().chain([
            EngineBackend::SafePlan,
            EngineBackend::MonteCarlo(crate::backend::MonteCarloParams::default()),
        ]) {
            let backend = selector.instantiate();
            assert_eq!(
                selector.evaluates_lineage(),
                backend.lineage_probability(&lineage, &ctx).is_some(),
                "{selector:?} routing flag out of sync with its implementation"
            );
        }
    }

    #[test]
    fn errors_surface_instead_of_panicking() {
        let mvdb = sample_mvdb();
        let engine = ShardedEngine::compile(&mvdb, 2).unwrap();
        let bad = vec![parse_ucq("Q() :- Unknown(x)").unwrap()];
        assert!(engine.session().probabilities(&bad).is_err());
    }

    #[test]
    fn resilient_sharded_matches_the_oracle_without_chaos() {
        let _quiet = chaos::quiet();
        let mvdb = sample_mvdb();
        let queries = workload();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| oracle.probability(q).unwrap())
            .collect();
        for num_shards in [1, 3] {
            let engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
            let session = engine.session();
            let outcomes = session.resilient_probabilities(&queries, &ResilienceConfig::default());
            assert_eq!(outcomes.len(), queries.len());
            for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
                assert!(o.answered(), "slot {i} lost: {:?}", o.fault);
                assert!(!o.degraded(), "slot {i} degraded: {:?}", o.rung);
                assert_eq!(o.rung, Some(crate::Rung::Exact));
                assert_eq!(o.retries, 0, "slot {i}");
                assert!(o.fault.is_none(), "slot {i}: {:?}", o.fault);
                let p = o.probability.unwrap();
                assert!((p - r).abs() < 1e-12, "slot {i}: {p} vs {r}");
            }
        }
    }

    #[test]
    fn resilient_sharded_answers_every_query_under_chaos_at_every_site() {
        let mvdb = sample_mvdb();
        let queries = workload();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| oracle.probability(q).unwrap())
            .collect();
        let engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        let session = engine.session();
        let config = ResilienceConfig::default();
        for site in chaos::sites::ALL {
            for fault in [chaos::Fault::Panic, chaos::Fault::Budget] {
                let guard =
                    chaos::install(chaos::ChaosConfig::new(0xC0FFEE).rule(site, fault, 0.5));
                let outcomes = session.resilient_probabilities(&queries, &config);
                drop(guard);
                for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
                    assert!(
                        o.answered(),
                        "site {site}, {fault:?}, slot {i} lost: {:?}",
                        o.fault
                    );
                    let p = o.probability.unwrap();
                    if o.degraded() {
                        // Worst case the answer came from Monte Carlo with
                        // the default ±0.01 target per shard item.
                        let tol = o.epsilon.map_or(1e-9, |e| 4.0 * e + 0.02);
                        assert!(
                            (p - r).abs() < tol,
                            "site {site}, {fault:?}, slot {i}: {p} vs {r} (tol {tol})"
                        );
                    } else {
                        assert!(
                            (p - r).abs() < 1e-9,
                            "site {site}, {fault:?}, slot {i}: {p} vs {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn resilient_sharded_quarantines_semantic_faults_per_query() {
        let mvdb = sample_mvdb();
        let engine = ShardedEngine::compile(&mvdb, 2).unwrap();
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
        assert!(outcomes[1].answered(), "{:?}", outcomes[1].fault);
        let reference = engine.full().probability(&queries[1]).unwrap();
        assert!((outcomes[1].probability.unwrap() - reference).abs() < 1e-12);
    }

    use mv_pdb::Value;

    /// Differential oracle for sharded updates: after a batch, the
    /// sharded engine answers every workload query exactly like an
    /// unsharded engine compiled from scratch over the same database.
    fn assert_sharded_matches_rebuild(engine: &ShardedEngine, queries: &[Ucq]) {
        let rebuilt = MvdbEngine::compile(engine.full().mvdb()).unwrap();
        let probs = engine.session().probabilities(queries).unwrap();
        for (q, p) in queries.iter().zip(&probs) {
            let reference = rebuilt.probability(q).unwrap();
            assert!(
                (p - reference).abs() < 1e-9,
                "{q}: {p} vs rebuild {reference}"
            );
        }
    }

    #[test]
    fn sharded_weight_only_updates_reuse_every_shard() {
        let mvdb = sample_mvdb();
        let queries = workload();
        for num_shards in [1, 2, 3] {
            let mut engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
            let out = engine
                .apply(
                    &UpdateBatch::new()
                        .set_weight("R", vec![Value::str("a")], 9.0)
                        .set_weight("S", vec![Value::str("c")], 0.25),
                )
                .unwrap();
            assert_eq!(out.kind, UpdateKind::WeightOnly);
            assert_eq!(out.shards_rebuilt, 0);
            assert_eq!(out.shards_reused, num_shards);
            assert_sharded_matches_rebuild(&engine, &queries);
        }
    }

    #[test]
    fn sharded_structural_updates_rebuild_only_dirty_shards() {
        let mvdb = sample_mvdb();
        let queries = workload();
        // Three W components over three shards. The batch adds one
        // component, "a2": one block with a new key, on one home shard.
        let mut engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        let out = engine
            .apply(
                &UpdateBatch::new()
                    .insert("R", vec![Value::str("a2")], 2.0)
                    .insert("S", vec![Value::str("a2")], 2.0),
            )
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_eq!((out.shards_rebuilt, out.shards_reused), (1, 2), "{out:?}");
        assert_sharded_matches_rebuild(&engine, &queries);
        let local = vec![
            parse_ucq("Q() :- R('b'), S('b')").unwrap(),
            parse_ucq("Q() :- R('c'), S('c')").unwrap(),
            parse_ucq("Q() :- R('a2'), S('a2')").unwrap(),
        ];
        assert_sharded_matches_rebuild(&engine, &local);
        // A block that grows (same key, more clauses) counts as well; the
        // blocks beside it do not.
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x", "y"]).unwrap();
        for x in ["a", "b", "c"] {
            b.weighted_tuple("R", &[x], 2.0).unwrap();
            b.weighted_tuple("S", &[x, "1"], 0.5).unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x), S(x, y)").unwrap();
        let mut engine = ShardedEngine::compile(&b.build().unwrap(), 3).unwrap();
        let grow = UpdateBatch::new().insert("S", vec![Value::str("b"), Value::str("2")], 1.5);
        let out = engine.apply(&grow).unwrap();
        assert_eq!((out.shards_rebuilt, out.shards_reused), (1, 2), "{out:?}");
        assert_sharded_matches_rebuild(&engine, &[parse_ucq("Q() :- R(x), S(x, y)").unwrap()]);
    }

    #[test]
    fn sharded_view_weight_change_dirties_every_shard_exactly_once() {
        let mvdb = sample_mvdb();
        let queries = workload();
        let mut engine = ShardedEngine::compile(&mvdb, 2).unwrap();
        // Rescalable view-weight change: weight-only, zero rebuilds.
        let out = engine
            .apply(&UpdateBatch::new().set_view_weight("V", 2.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::WeightOnly);
        assert_eq!(out.shards_rebuilt, 0);
        assert_sharded_matches_rebuild(&engine, &queries);
        // Flipping to a denial weight drops the NV atom from W itself:
        // every shard is reported.
        let out = engine
            .apply(&UpdateBatch::new().set_view_weight("V", 0.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_eq!((out.shards_rebuilt, out.shards_reused), (2, 0), "{out:?}");
        assert_sharded_matches_rebuild(&engine, &queries);
    }

    #[test]
    fn fresh_tuples_are_answered_sharded_without_fallback() {
        let mvdb = sample_mvdb();
        let mut engine = ShardedEngine::compile(&mvdb, 2).unwrap();
        // `R(z)` has no `S(z)` partner: it joins no view output, so `W`'s
        // lineage — and every block — is unchanged. The shards evaluate on
        // the one re-translated store, so the new tuple is simply there.
        let out = engine
            .apply(&UpdateBatch::new().insert("R", vec![Value::str("z")], 5.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_eq!((out.shards_rebuilt, out.shards_reused), (0, 2), "{out:?}");
        let touching = vec![parse_ucq("Q() :- R('z')").unwrap()];
        let session = engine.session();
        let probs = session.probabilities(&touching).unwrap();
        assert_eq!(session.last_fallbacks(), 0, "no sub-store to be stale");
        assert_eq!(session.last_shard_queries().iter().sum::<u64>(), 1);
        let reference = engine.full().probability(&touching[0]).unwrap();
        assert!((probs[0] - reference).abs() < 1e-12);
        assert!((probs[0] - (5.0 / 6.0)).abs() < 1e-9, "P(R(z)) = w/(1+w)");
        // So is a tuple that does join a view.
        engine
            .apply(&UpdateBatch::new().insert("S", vec![Value::str("z")], 0.5))
            .unwrap();
        let joined = vec![parse_ucq("Q() :- R('z'), S('z')").unwrap()];
        let session = engine.session();
        let probs = session.probabilities(&joined).unwrap();
        assert_eq!(session.last_fallbacks(), 0);
        assert_sharded_matches_rebuild(&engine, &joined);
        assert!(probs[0] > 0.0);
        assert_sharded_matches_rebuild(&engine, &workload());
    }
}
