//! Scale-out sharded inference: component-partitioned evaluation with
//! per-shard managers and exact independence combination.
//!
//! The Theorem 1 conditional factorises over the connected components of
//! the dependency graph induced by `W`'s lineage clauses: tuples in
//! different components are independent, and `¬W = ∧_s ¬W_s` splits into
//! per-component factors. [`ShardedEngine`] promotes that observation —
//! which the Monte Carlo sampler already uses as a prune
//! ([`mv_query::components`]) — into a first-class sharding layer:
//!
//! 1. **Partition.** [`mv_query::ComponentPartitioner`] assigns every
//!    *W-homed* tuple (one mentioned by some `W` clause) to exactly one of
//!    `num_shards` shards, packing whole components greedily by size.
//!    Because components never split, no `W` clause spans shards. W-free
//!    tuples are independent of `W` and have no home — they are replicated
//!    into every shard's sub-store.
//! 2. **Per-shard sub-stores.** Each shard owns a projection of the
//!    translated database ([`TranslatedIndb::restrict`]): the full schema,
//!    every deterministic row and every W-free tuple, but only the shard's
//!    own W-homed tuples — with its own interned columnar store, zone maps
//!    and code indexes, and its own compiled [`MvIndex`] (hence its own
//!    [`mv_obdd::ObddManager`], touched by exactly one worker — no lock
//!    contention, no cross-shard imports).
//! 3. **Routing.** A query's lineage `Φ_Q = ∨ C_i` is computed once on the
//!    full store and grouped by shared variables
//!    ([`mv_query::Partition::route`]): each group binds to the unique
//!    shard holding its W-homed variables (all-free groups are pinned
//!    deterministically). A group mixing two shards' W-homed tuples makes
//!    the whole query fall back to the unsharded engine (the exact
//!    oracle), so the sharded path never answers a query it cannot answer
//!    exactly.
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
//! shards: route on the full store, evaluate on one worker per touched
//! shard, combine, and rescue on the oracle what a shard lost. Every
//! evaluation goes through the resilience ladder — plain `probabilities`
//! is the ladder's exact rung alone — and every [`EngineBackend`] flows
//! through the sharded path: lineage-capable backends (MV-index, Shannon,
//! brute force, Monte Carlo) evaluate the remapped per-shard lineage
//! directly; structural backends (safe plans, per-query OBDDs) re-evaluate
//! the query syntactically on each touched shard's sub-store — sound
//! whenever every clause contains a W-homed tuple, because then a clause
//! materializes exactly on its home shard (W-free tuples are present
//! everywhere, foreign W-homed tuples nowhere); queries outside that regime
//! fall back to the oracle.

use fxhash::{FxHashMap, FxHashSet};
use mv_index::MvIndex;
use mv_obdd::ManagerStats;
use mv_pdb::{InDb, RelId, Row, TupleId};
use mv_query::components::connected_components;
use mv_query::lineage::{Clause, Lineage};
use mv_query::partition::{ComponentPartitioner, Partition};
use mv_query::Ucq;

use crate::backend::resilient::{QueryOutcome, ResilienceConfig};
use crate::backend::EngineBackend;
use crate::batch::{fan_out, Pipeline};
use crate::engine::MvdbEngine;
use crate::error::CoreError;
use crate::mvdb::Mvdb;
use crate::session::QueryStats;
use crate::translate::TranslatedIndb;
use crate::update::{self, UpdateBatch, UpdateKind, UpdateOutcome};
use crate::Result;

/// Sentinel for "this global tuple does not live in this shard".
const NOT_LOCAL: u32 = u32::MAX;

/// Interns `(relation, row)` content keys to dense ids. Tuple ids are
/// snapshot-relative — inserting a row shifts the ids of every later
/// relation's tuples across a re-translation — so the update path compares
/// pre- and post-update `W` clauses through one shared interner, where
/// identical content is guaranteed identical ids.
#[derive(Default)]
struct ContentIds {
    ids: FxHashMap<(RelId, Row), u32>,
}

impl ContentIds {
    /// The content id of a tuple in `indb`, assigned on first sight.
    fn id_of(&mut self, indb: &InDb, t: TupleId) -> u32 {
        let key = (indb.tuple(t).rel, indb.tuple_row(t).clone());
        let next = self.ids.len() as u32;
        *self.ids.entry(key).or_insert(next)
    }
}

/// Relation names in schema order — the schema fingerprint of the update
/// path. A changed schema (a view crossing the denial boundary adds or
/// removes its `NV` relation) shifts `RelId`s, so content keys from before
/// and after the update stop lining up and every shard must rebuild.
fn schema_names(indb: &InDb) -> Vec<String> {
    indb.schema()
        .relations()
        .map(|(_, r)| r.name().to_string())
        .collect()
}

/// One shard: a projection of the translated database onto a union of
/// dependency-graph components, with its own compiled MV-index (and thus
/// its own OBDD manager).
#[derive(Debug, Clone)]
pub(crate) struct Shard {
    pub(crate) translated: TranslatedIndb,
    pub(crate) index: MvIndex,
    /// Global tuple id → local tuple id ([`NOT_LOCAL`] when foreign).
    global_to_local: Vec<u32>,
    /// Whether the global→local renaming is strictly increasing, so a
    /// sorted global clause stays sorted after renaming. Sub-stores are
    /// interned in global id order per relation, which makes this the
    /// common case; clauses only need re-sorting when it fails.
    monotone: bool,
}

impl Shard {
    /// Builds shard `s` of `partition`: the projection of `translated`
    /// onto the shard's own W-homed tuples plus every W-free (replicated)
    /// tuple, with its own compiled MV-index.
    fn build(translated: &TranslatedIndb, partition: &Partition, s: usize) -> Result<Shard> {
        let (sub, local_to_global) =
            translated.restrict(|t| partition.home_of(t).is_none_or(|h| h == s));
        let index = match sub.w() {
            Some(w) => MvIndex::compile(sub.indb(), w)?,
            None => MvIndex::empty(sub.indb()),
        };
        if !index.is_consistent() {
            return Err(CoreError::InconsistentViews);
        }
        let mut global_to_local = vec![NOT_LOCAL; translated.indb().num_tuples()];
        for (local, g) in local_to_global.iter().enumerate() {
            global_to_local[g.0 as usize] = local as u32;
        }
        let monotone = local_to_global.windows(2).all(|w| w[0] < w[1]);
        Ok(Shard {
            translated: sub,
            index,
            global_to_local,
            monotone,
        })
    }

    /// Builds the shards named by `which`, in that order — one job each,
    /// shard compilation is embarrassingly parallel.
    fn build_all(
        translated: &TranslatedIndb,
        partition: &Partition,
        which: &[usize],
    ) -> Result<Vec<Shard>> {
        fan_out(which.len(), |job| {
            Shard::build(translated, partition, which[job])
        })
        .into_iter()
        .map(|built| {
            built.unwrap_or_else(|p| Err(CoreError::from_panic("shard_compile", p.as_ref())))
        })
        .collect()
    }

    /// Rewrites clauses over global tuple ids onto this shard's local ids.
    ///
    /// The renaming is injective, so the clauses stay pairwise distinct
    /// and internally duplicate-free — no hash-based re-normalisation is
    /// needed, only a per-clause re-sort when the renaming is not
    /// monotone. Panics if a clause mentions a tuple the shard does not
    /// own — the router only sends a clause to the shard owning all its
    /// variables.
    pub(crate) fn localize(&self, clauses: &[Clause]) -> Lineage {
        let mapped = clauses
            .iter()
            .map(|clause| {
                let mut local: Clause = clause
                    .iter()
                    .map(|t| {
                        let local = self.global_to_local[t.0 as usize];
                        debug_assert_ne!(local, NOT_LOCAL, "clause routed to foreign shard");
                        mv_pdb::TupleId(local)
                    })
                    .collect();
                if !self.monotone {
                    local.sort_unstable();
                }
                local
            })
            .collect();
        Lineage::from_distinct_clauses(mapped)
    }

    /// `true` when every tuple of every clause is materialized in this
    /// shard's sub-store. After a structural update reuses a shard, tuples
    /// inserted later exist only in the full store and in rebuilt shards —
    /// a routed group touching one must fall back to the unsharded oracle
    /// instead of being localized here.
    pub(crate) fn owns(&self, clauses: &[Clause]) -> bool {
        clauses.iter().flatten().all(|t| {
            self.global_to_local
                .get(t.0 as usize)
                .is_some_and(|&l| l != NOT_LOCAL)
        })
    }
}

/// A compiled MVDB split into component-disjoint shards, each with its own
/// sub-store and MV-index, plus the unsharded [`MvdbEngine`] kept as the
/// exact oracle (and cross-shard fallback).
#[derive(Debug, Clone)]
pub struct ShardedEngine {
    pub(crate) full: MvdbEngine,
    pub(crate) partition: Partition,
    pub(crate) shards: Vec<Shard>,
}

impl ShardedEngine {
    /// Translates and compiles the MVDB, then shards it. Equivalent to
    /// [`MvdbEngine::compile`] followed by [`ShardedEngine::from_engine`].
    pub fn compile(mvdb: &Mvdb, num_shards: usize) -> Result<Self> {
        Self::from_engine(MvdbEngine::compile(mvdb)?, num_shards)
    }

    /// Shards an already-compiled engine: partitions the possible tuples
    /// along the components of `W`'s lineage and compiles one MV-index per
    /// shard (in parallel — shard compilation is embarrassingly parallel).
    ///
    /// `num_shards` is clamped to at least 1; shards may be empty when the
    /// database has fewer components than shards.
    pub fn from_engine(full: MvdbEngine, num_shards: usize) -> Result<Self> {
        let w_lineage = {
            let ctx = full.context();
            ctx.w_lineage()?
                .cloned()
                .unwrap_or_else(Lineage::constant_false)
        };
        let num_tuples = full.translated().indb().num_tuples();
        let partition =
            ComponentPartitioner::new(num_tuples, w_lineage.clauses()).partition(num_shards);
        let all: Vec<usize> = (0..partition.num_shards()).collect();
        let shards = Shard::build_all(full.translated(), &partition, &all)?;
        Ok(ShardedEngine {
            full,
            partition,
            shards,
        })
    }

    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
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

    /// Applies an update batch in place, invalidating as few shards as the
    /// update allows.
    ///
    /// Weight-only batches keep the partition and every shard's sub-store
    /// and compiled diagrams: local weights are re-synced from the full
    /// store and each shard's index is re-annotated (the
    /// `bump_weight_epoch` fast path, per shard). Structural batches
    /// re-translate the full store, then compare each shard's `W`-clause
    /// set before and after, content-keyed because tuple ids shift across
    /// re-translation while rows do not: a shard whose clause set is
    /// unchanged keeps its sub-store and compiled index and only rebinds
    /// its global-id maps to the new store; only shards whose clause set
    /// changed recompile. Components that existed before the update stay
    /// on their old shard, so updates never invalidate unrelated shards.
    ///
    /// Reused shards do **not** absorb freshly inserted tuples (appending
    /// would invalidate their compiled variable orders): a query whose
    /// routed lineage touches a tuple its home shard does not own falls
    /// back to the unsharded oracle — exact, just not scaled out — until
    /// a later structural apply rebuilds that shard.
    ///
    /// Like [`MvdbEngine::apply`], a batch failing validation leaves the
    /// engine untouched. An error *during* a structural apply can leave
    /// shards behind the full store, so callers needing snapshot semantics
    /// apply to a clone and publish it on success — what
    /// [`MvdbServer::submit_update`](crate::MvdbServer::submit_update)
    /// does.
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        match update::classify(self.full.mvdb(), self.full.translated(), batch)? {
            UpdateKind::NoOp => Ok(UpdateOutcome {
                kind: UpdateKind::NoOp,
                version: self.full.version(),
                tuples_inserted: 0,
                weights_changed: 0,
                views_changed: 0,
                shards_rebuilt: 0,
                shards_reused: self.shards.len(),
            }),
            UpdateKind::WeightOnly => self.apply_weight_only(batch),
            UpdateKind::Structural => self.apply_structural(batch),
        }
    }

    /// Weight-only apply: update the oracle, then re-sync every shard's
    /// local weights and re-annotate its compiled diagrams in place.
    fn apply_weight_only(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let mut outcome = self.full.apply(batch)?;
        let indb = self.full.translated().indb();
        for shard in &mut self.shards {
            let locals: Vec<(u32, u32)> = shard
                .global_to_local
                .iter()
                .enumerate()
                .filter(|(_, &l)| l != NOT_LOCAL)
                .map(|(g, &l)| (g as u32, l))
                .collect();
            for (g, l) in locals {
                let w = indb.weight(TupleId(g));
                shard.translated.indb_mut().set_weight(TupleId(l), w);
            }
            let sub = &shard.translated;
            shard.index.reweight(|t| sub.indb().probability(t));
            if !shard.index.is_consistent() {
                return Err(CoreError::InconsistentViews);
            }
        }
        outcome.shards_reused = self.shards.len();
        Ok(outcome)
    }

    /// Structural apply: re-translate the oracle, then rebuild exactly the
    /// shards whose content-keyed `W`-clause set changed and rebind the
    /// rest.
    fn apply_structural(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let num_shards = self.shards.len();
        let mut content = ContentIds::default();

        // Pre-update capture: per-shard clause fingerprints and per-tuple
        // homes, content-keyed.
        let (old_clause_sets, old_home_of, old_schema) = {
            let w = {
                let ctx = self.full.context();
                ctx.w_lineage()?
                    .cloned()
                    .unwrap_or_else(Lineage::constant_false)
            };
            let indb = self.full.translated().indb();
            let mut sets: Vec<FxHashSet<Vec<u32>>> =
                (0..num_shards).map(|_| FxHashSet::default()).collect();
            let mut homes: FxHashMap<u32, usize> = FxHashMap::default();
            for clause in w.clauses() {
                let home = self
                    .partition
                    .home_of(clause[0])
                    .expect("every W-clause member is homed");
                let mut key: Vec<u32> = clause.iter().map(|&t| content.id_of(indb, t)).collect();
                key.sort_unstable();
                for &c in &key {
                    homes.insert(c, home);
                }
                sets[home].insert(key);
            }
            (sets, homes, schema_names(indb))
        };

        // Mutate the retained MVDB, re-translate, recompile the oracle.
        let mut outcome = self.full.apply(batch)?;

        let new_w = {
            let ctx = self.full.context();
            ctx.w_lineage()?
                .cloned()
                .unwrap_or_else(Lineage::constant_false)
        };
        let translated = self.full.translated();
        let indb = translated.indb();
        let num_tuples = indb.num_tuples();
        let schema_changed = schema_names(indb) != old_schema;

        // Stable home assignment: a component whose members all lived on
        // one shard before the update stays there; new or changed
        // components are packed greedily onto the least-loaded shards.
        let comps = connected_components(num_tuples, new_w.clauses());
        let mut in_w = vec![false; num_tuples];
        for clause in new_w.clauses() {
            for &t in clause {
                in_w[t.0 as usize] = true;
            }
        }
        let mut homes: Vec<Option<usize>> = vec![None; num_tuples];
        let mut load = vec![0usize; num_shards];
        let mut pending: Vec<usize> = Vec::new();
        for c in 0..comps.len() {
            let members = comps.members(c);
            // Clause-induced components are all-W or all-free; free tuples
            // are replicated and have no home.
            if !in_w[members[0].0 as usize] {
                continue;
            }
            let mut stable: Option<usize> = None;
            let ok = !schema_changed
                && members
                    .iter()
                    .all(|&t| match old_home_of.get(&content.id_of(indb, t)) {
                        Some(&h) => match stable {
                            None => {
                                stable = Some(h);
                                true
                            }
                            Some(prev) => prev == h,
                        },
                        None => false,
                    });
            match (ok, stable) {
                (true, Some(h)) => {
                    for &t in members {
                        homes[t.0 as usize] = Some(h);
                    }
                    load[h] += members.len();
                }
                _ => pending.push(c),
            }
        }
        // Deterministic greedy fill, largest components first (ties by
        // component id, which is itself a pure function of the clause set).
        pending.sort_by_key(|&c| (std::cmp::Reverse(comps.size(c)), c));
        for c in pending {
            let s = (0..num_shards)
                .min_by_key(|&s| (load[s], s))
                .expect("at least one shard");
            for &t in comps.members(c) {
                homes[t.0 as usize] = Some(s);
            }
            load[s] += comps.size(c);
        }
        let partition = Partition::from_homes(&homes, num_shards, comps.len());

        // Post-update fingerprints; a shard is dirty iff its clause set
        // changed (or the schema shifted under it).
        let mut new_clause_sets: Vec<FxHashSet<Vec<u32>>> =
            (0..num_shards).map(|_| FxHashSet::default()).collect();
        for clause in new_w.clauses() {
            let home = homes[clause[0].0 as usize].expect("W-clause members are homed");
            let mut key: Vec<u32> = clause.iter().map(|&t| content.id_of(indb, t)).collect();
            key.sort_unstable();
            new_clause_sets[home].insert(key);
        }
        let dirty: Vec<bool> = (0..num_shards)
            .map(|s| schema_changed || new_clause_sets[s] != old_clause_sets[s])
            .collect();

        // Rebuild dirty shards in parallel — the recipe of `from_engine`,
        // restricted to the shards that need it.
        let dirty_ids: Vec<usize> = (0..num_shards).filter(|&s| dirty[s]).collect();
        let rebuilt = Shard::build_all(translated, &partition, &dirty_ids)?;
        outcome.shards_rebuilt = rebuilt.len();
        outcome.shards_reused = num_shards - rebuilt.len();
        for (s, shard) in dirty_ids.into_iter().zip(rebuilt) {
            self.shards[s] = shard;
        }

        // Rebind clean shards to the new store: remap local→global ids by
        // content (sound because the deterministic store is append-only
        // and UCQ view outputs are monotone, so every old row persists;
        // vanishing NV rows only arise from denial/independence boundary
        // crossings, which dirty the schema or the home shard's clause
        // set), then re-sync weights and re-annotate.
        for (s, _) in dirty.iter().enumerate().filter(|&(_, &d)| !d) {
            let shard = &mut self.shards[s];
            let sub_n = shard.translated.indb().num_tuples();
            let mut local_to_global: Vec<u32> = Vec::with_capacity(sub_n);
            for l in 0..sub_n {
                let lid = TupleId(l as u32);
                let rel = shard.translated.indb().tuple(lid).rel;
                let row = shard.translated.indb().tuple_row(lid);
                let g = indb
                    .tuple_id_by_values(rel, row)
                    .expect("old rows persist across structural updates");
                local_to_global.push(g.0);
            }
            let mut global_to_local = vec![NOT_LOCAL; num_tuples];
            for (l, &g) in local_to_global.iter().enumerate() {
                global_to_local[g as usize] = l as u32;
            }
            shard.monotone = local_to_global.windows(2).all(|w| w[0] < w[1]);
            shard.global_to_local = global_to_local;
            for (l, &g) in local_to_global.iter().enumerate() {
                let w = indb.weight(TupleId(g));
                shard.translated.indb_mut().set_weight(TupleId(l as u32), w);
            }
            let sub = &shard.translated;
            shard.index.reweight(|t| sub.indb().probability(t));
            if !shard.index.is_consistent() {
                return Err(CoreError::InconsistentViews);
            }
        }
        self.partition = partition;
        Ok(outcome)
    }
}

/// A batch-evaluation session over a [`ShardedEngine`].
///
/// A batch runs the three phases of the batch pipeline (`route` striped
/// over one worker per shard on the full store, `evaluate` on one worker
/// per touched shard, `combine` + `rescue` on the calling thread) — the
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
    /// query-side manager plus the delta each shard's (and the full
    /// store's) index manager accumulated during the batch. Zero before
    /// the first batch.
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
    /// from two shards, because a structural backend met a clause with no
    /// W-homed tuple at all, or because a shard item was lost.
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
            let engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
            assert_eq!(engine.num_shards(), num_shards);
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
    fn w_free_tuples_are_replicated_and_ride_along() {
        // `T` appears in no view, so its tuples are W-free: replicated
        // into every shard and pinned per query instead of owning a home.
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
        // A structural backend cannot evaluate all-W-free clauses per
        // shard (they would materialize everywhere); it falls back on
        // `Q() :- T(x)` but still answers exactly.
        let probs = session
            .probabilities_with_backend(&queries, EngineBackend::ObddPerQuery)
            .unwrap();
        assert!(session.last_fallbacks() > 0);
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
        // Three W components over three shards: touching only the "a"
        // component must leave the "b" and "c" shards' compiled state
        // untouched.
        let mut engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        let out = engine
            .apply(
                &UpdateBatch::new()
                    .insert("R", vec![Value::str("a2")], 2.0)
                    .insert("S", vec![Value::str("a2")], 2.0),
            )
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert!(
            out.shards_rebuilt >= 1,
            "the new component needs a home: {out:?}"
        );
        assert!(
            out.shards_reused >= 1,
            "untouched components must keep their shards: {out:?}"
        );
        assert_eq!(out.shards_rebuilt + out.shards_reused, 3);
        assert_sharded_matches_rebuild(&engine, &queries);
        // The reused shards still answer their own components exactly.
        let local = vec![
            parse_ucq("Q() :- R('b'), S('b')").unwrap(),
            parse_ucq("Q() :- R('c'), S('c')").unwrap(),
            parse_ucq("Q() :- R('a2'), S('a2')").unwrap(),
        ];
        assert_sharded_matches_rebuild(&engine, &local);
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
        // Flipping to a denial weight restructures W everywhere.
        let out = engine
            .apply(&UpdateBatch::new().set_view_weight("V", 0.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_sharded_matches_rebuild(&engine, &queries);
    }

    #[test]
    fn fresh_w_free_tuples_fall_back_to_the_oracle_exactly() {
        let mvdb = sample_mvdb();
        let mut engine = ShardedEngine::compile(&mvdb, 2).unwrap();
        // `R(z)` has no `S(z)` partner: it joins no view output, so the
        // W-clause sets (and hence every shard) are unchanged — but the
        // reused shards' sub-stores predate the tuple. Queries touching
        // it must route to the unsharded oracle, not answer stale.
        let out = engine
            .apply(&UpdateBatch::new().insert("R", vec![Value::str("z")], 5.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_eq!(out.shards_reused, 2, "W unchanged: no shard is dirty");
        let touching = vec![parse_ucq("Q() :- R('z')").unwrap()];
        let session = engine.session();
        let probs = session.probabilities(&touching).unwrap();
        assert!(
            session.last_fallbacks() > 0,
            "a tuple unknown to the reused shards must fall back"
        );
        let reference = engine.full().probability(&touching[0]).unwrap();
        assert!((probs[0] - reference).abs() < 1e-12);
        assert!((probs[0] - (5.0 / 6.0)).abs() < 1e-9, "P(R(z)) = w/(1+w)");
        // Queries avoiding the fresh tuple still answer sharded.
        assert_sharded_matches_rebuild(&engine, &workload());
    }
}
