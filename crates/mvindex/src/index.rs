//! The MV-index: offline compilation of `W` and online query evaluation.
//!
//! An [`MvIndex`] is compiled once from the helper query `W` (the union of
//! the MarkoView queries joined with their `NV` relations, Theorem 1). It
//! stores one augmented OBDD per independent *block* of `W` — one per
//! separator value, exactly the "set of augmented OBDDs, each associated
//! with a particular key" of Section 4.1 — plus
//!
//! * the `InterBddIndex`: a dense table from tuple variable to the block
//!   containing it,
//! * per block, the `IntraBddIndex` (inside [`AugmentedObdd`]), and
//! * the lineage of `W` the blocks were folded from, which every consumer
//!   of "the clauses of `W`" (evaluation contexts, the shard partitioner)
//!   borrows instead of evaluating `W` again.
//!
//! Compilation is set-at-a-time: `W` is rewritten with its separator
//! variable as head and evaluated *once* by the vectorized executor, which
//! yields the clauses of `W` grouped by separator value; each group is
//! folded into the shared arena by one level-ordered
//! [`ObddManager::dnf`]. Canonicity makes the result the diagram the
//! paper's recursive `ConOBDD(π, W_k)` construction
//! ([`mv_obdd::ConObddBuilder`]) reaches value by value — same manager and
//! order, same root id — which `tests/compile_equivalence.rs` pins.
//!
//! At query time, only the blocks mentioned by the query lineage are
//! intersected with the query OBDD; all other blocks contribute their
//! precomputed `P0(¬W_k)` as a constant factor. This is what keeps the
//! running times of Figures 10–11 in the millisecond range regardless of the
//! total index size.

use std::sync::Arc;

use mv_obdd::conobdd::ConObddBuilder;
use mv_obdd::{ManagerStats, NodeId, Obdd, ObddManager, PiOrder, SynthesisBuilder, VarOrder};
use mv_pdb::{InDb, TupleId, Value};
use mv_query::analysis::find_separator_over;
use mv_query::eval::EvalContext;
use mv_query::lineage::{answer_lineages_with, lineage_with, Clause, Lineage};
use mv_query::{Term, Ucq};

use crate::augmented::AugmentedObdd;
use crate::intersect::{cc_mv_intersect, mv_intersect, CcLayout, QueryView};
use crate::Result;

/// Which intersection algorithm to use at query time (Section 4.3 / Fig. 9).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectAlgorithm {
    /// Pointer-based guided traversal with hash-map memoisation.
    MvIntersect,
    /// Cache-conscious traversal over a flattened, DFS-ordered node vector.
    CcMvIntersect,
}

/// Summary statistics of a compiled index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexStats {
    /// Number of independent blocks.
    pub num_blocks: usize,
    /// Total number of OBDD nodes across all blocks.
    pub total_nodes: usize,
    /// Size of the largest block.
    pub max_block_nodes: usize,
    /// Number of distinct tuple variables constrained by `W`.
    pub num_variables: usize,
}

/// `inter` entry of a tuple no block constrains.
const NO_BLOCK: u32 = u32::MAX;

/// One row of the block table: an independent part `W_k` of `W`.
#[derive(Debug, Clone)]
struct Block {
    /// The key associated with the block (the separator value, or a synthetic
    /// key when `W` has no separator).
    key: Value,
    /// Number of lineage clauses `W_k` was folded from.
    num_clauses: usize,
    /// Tuple variables of those clauses, sorted.
    variables: Vec<TupleId>,
    /// The augmented OBDD of `¬W_k`.
    negated: AugmentedObdd,
    /// Cache-conscious layout of the same diagram.
    layout: CcLayout,
    /// `P0(¬W_k)`.
    prob_not_w: f64,
    /// Level range of the diagram (structure only: `reweight` keeps it), so
    /// multi-block queries check level separation without walking blocks.
    levels: Option<(u32, u32)>,
}

/// The compiled MV-index for a helper query `W`.
///
/// All block diagrams are handles into one shared [`ObddManager`] arena, so
/// structure common to several blocks is stored once and negation never
/// copies node stores. The manager is read-mostly after compilation
/// (multi-block queries append slice diagrams to it at query time) and can
/// be shared across evaluation threads.
#[derive(Debug, Clone)]
pub struct MvIndex {
    manager: ObddManager,
    blocks: Vec<Block>,
    /// Tuple id → block index ([`NO_BLOCK`] for tuples `W` does not mention).
    inter: Vec<u32>,
    /// The lineage of `W`: the union of every block's clauses.
    w_lineage: Arc<Lineage>,
    prob_not_w: f64,
    stats: IndexStats,
}

impl MvIndex {
    /// Compiles the index for `W`, inferring the attribute permutations `π`
    /// from the query (separator attributes first).
    pub fn compile(indb: &InDb, w: &Ucq) -> Result<MvIndex> {
        let pi = ConObddBuilder::infer_pi(w, indb);
        Self::compile_with_pi(indb, w, &pi)
    }

    /// Compiles the index for `W` under an explicit `π`.
    pub fn compile_with_pi(indb: &InDb, w: &Ucq, pi: &PiOrder) -> Result<MvIndex> {
        let manager = ObddManager::new(Arc::new(pi.tuple_order(indb)));
        let prob_of = |t: TupleId| indb.probability(t);

        let mut blocks: Vec<Block> = Vec::new();
        let mut inter = vec![NO_BLOCK; indb.num_tuples()];
        let mut all_clauses: Vec<Clause> = Vec::new();
        let mut prob_not_w = 1.0;
        for (key, group) in keyed_lineages(indb, &w.boolean())? {
            // `dnf` folds an empty clause to TRUE, so a `W_k` satisfied by
            // deterministic tuples alone becomes a block with `P0(¬W_k) = 0`.
            let w_obdd = manager.dnf(group.clauses())?;
            let mut variables: Vec<TupleId> = group.clauses().iter().flatten().copied().collect();
            variables.sort_unstable();
            variables.dedup();
            for &v in &variables {
                // Every tuple carries one separator value at the position
                // fixed for its relation, so groups cannot share a variable.
                assert_eq!(
                    inter[v.0 as usize], NO_BLOCK,
                    "tuple {v} appears under two separator values of W"
                );
                inter[v.0 as usize] = blocks.len() as u32;
            }
            let negated = AugmentedObdd::new(w_obdd.negate(), prob_of);
            let layout = CcLayout::new(&negated, prob_of);
            let p = negated.probability();
            prob_not_w *= p;
            let levels = negated.obdd().level_range();
            blocks.push(Block {
                key,
                num_clauses: group.num_clauses(),
                variables,
                negated,
                layout,
                prob_not_w: p,
                levels,
            });
            all_clauses.extend_from_slice(group.clauses());
        }

        let stats = IndexStats {
            num_blocks: blocks.len(),
            total_nodes: blocks.iter().map(|b| b.negated.size()).sum(),
            max_block_nodes: blocks.iter().map(|b| b.negated.size()).max().unwrap_or(0),
            num_variables: blocks.iter().map(|b| b.variables.len()).sum(),
        };
        Ok(MvIndex {
            manager,
            blocks,
            inter,
            // Groups are variable-disjoint, so their clauses are distinct.
            w_lineage: Arc::new(Lineage::from_distinct_clauses(all_clauses)),
            prob_not_w,
            stats,
        })
    }

    /// Compiles an index for a database without MarkoViews (`W = false`).
    pub fn empty(indb: &InDb) -> MvIndex {
        let order = Arc::new(PiOrder::identity().tuple_order(indb));
        MvIndex {
            manager: ObddManager::new(order),
            blocks: Vec::new(),
            inter: Vec::new(),
            w_lineage: Arc::new(Lineage::constant_false()),
            prob_not_w: 1.0,
            stats: IndexStats {
                num_blocks: 0,
                total_nodes: 0,
                max_block_nodes: 0,
                num_variables: 0,
            },
        }
    }

    /// The variable order shared by the index and by query OBDDs.
    pub fn order(&self) -> Arc<VarOrder> {
        Arc::clone(self.manager.order())
    }

    /// The shared manager every block diagram of the index lives in.
    pub fn manager(&self) -> &ObddManager {
        &self.manager
    }

    /// Counters of the index-side manager (node allocations, unique-table
    /// and apply/probability cache hit rates).
    pub fn manager_stats(&self) -> ManagerStats {
        self.manager.stats()
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// `P0(W)`.
    pub fn prob_w(&self) -> f64 {
        1.0 - self.prob_not_w
    }

    /// `P0(¬W)`.
    ///
    /// Note that on translated databases this is a product of per-block
    /// values that are not genuine probabilities, so its magnitude can be
    /// arbitrarily large (or underflow); use [`MvIndex::is_consistent`] to
    /// test for consistency instead of comparing this value with zero.
    pub fn prob_not_w(&self) -> f64 {
        self.prob_not_w
    }

    /// Re-annotates the index after a weight-only update: every block's
    /// diagram *structure* is untouched (same arena, same roots — the
    /// expensive ConOBDD synthesis is not repeated), but the per-node
    /// probability annotations, per-block `P0(¬W_k)` and the index-level
    /// product are recomputed against the new weights, and the manager's
    /// weight epoch is bumped so stale probability-cache entries can never
    /// validate. `prob_of` must be the updated database weight function
    /// (typically `|t| indb.probability(t)`).
    pub fn reweight(&mut self, prob_of: impl Fn(TupleId) -> f64 + Copy) {
        self.manager.bump_weight_epoch();
        let mut prob_not_w = 1.0;
        for block in &mut self.blocks {
            let negated = AugmentedObdd::new(block.negated.obdd().clone(), prob_of);
            let layout = CcLayout::new(&negated, prob_of);
            let p = negated.probability();
            prob_not_w *= p;
            block.negated = negated;
            block.layout = layout;
            block.prob_not_w = p;
        }
        self.prob_not_w = prob_not_w;
    }

    /// `true` when no block makes `¬W` impossible. Since blocks constrain
    /// disjoint sets of tuples, `P0(¬W) = 0` exactly when some block has
    /// `P0(¬W_k) = 0`, so this is the numerically robust consistency test.
    pub fn is_consistent(&self) -> bool {
        self.blocks.iter().all(|b| b.prob_not_w != 0.0)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Total number of OBDD nodes in the index.
    pub fn size(&self) -> usize {
        self.stats.total_nodes
    }

    /// The block containing a tuple variable, if any (the `InterBddIndex`).
    pub fn block_of(&self, tuple: TupleId) -> Option<usize> {
        match self.inter.get(tuple.0 as usize) {
            Some(&block) if block != NO_BLOCK => Some(block as usize),
            _ => None,
        }
    }

    /// The key associated with a block.
    pub fn block_key(&self, block: usize) -> &Value {
        &self.blocks[block].key
    }

    /// The tuple variables constrained by a block, ascending.
    pub fn block_variables(&self, block: usize) -> impl Iterator<Item = TupleId> + '_ {
        self.blocks[block].variables.iter().copied()
    }

    /// Number of lineage clauses a block was folded from.
    pub fn block_clauses(&self, block: usize) -> usize {
        self.blocks[block].num_clauses
    }

    /// `P0(¬W_k)` of a block.
    pub fn block_prob_not_w(&self, block: usize) -> f64 {
        self.blocks[block].prob_not_w
    }

    /// Root of a block's `¬W_k` diagram in [`MvIndex::manager`] — what the
    /// differential tests hold against the recursive construction.
    #[doc(hidden)]
    pub fn block_root(&self, block: usize) -> NodeId {
        self.blocks[block].negated.obdd().root()
    }

    /// The lineage of `W` the index was compiled from (constant `false`
    /// for [`MvIndex::empty`]): the union of every block's clauses.
    pub fn w_lineage(&self) -> &Lineage {
        &self.w_lineage
    }

    /// A fresh query-side manager *shard* over the index's variable order.
    /// Give one to each evaluation context (or worker thread) and pass it to
    /// the `_in` methods below so query diagrams are hash-consed and
    /// memo-cached across queries without contending on the index arena.
    pub fn query_manager(&self) -> ObddManager {
        ObddManager::new(self.order())
    }

    /// Builds the query-side OBDD for a lineage, in the index's order (a
    /// throwaway manager; see [`MvIndex::query_obdd_in`] for the shared
    /// variant).
    pub fn query_obdd(&self, lineage: &Lineage) -> Result<Obdd> {
        self.query_obdd_in(&self.query_manager(), lineage)
    }

    /// Builds the query-side OBDD for a lineage inside the given manager
    /// shard, reusing nodes and apply-memo entries of earlier queries.
    pub fn query_obdd_in(&self, manager: &ObddManager, lineage: &Lineage) -> Result<Obdd> {
        Ok(SynthesisBuilder::with_manager(manager.clone()).from_lineage(lineage)?)
    }

    /// Computes `P0(Q ∧ ⋀_{k ∈ touched} ¬W_k)` restricted to the blocks the
    /// query lineage actually mentions, and returns it together with the set
    /// of touched block indices. Untouched blocks are not included in the
    /// product (their contribution is handled by the callers).
    fn intersect_touched(
        &self,
        qman: &ObddManager,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<(f64, Vec<usize>)> {
        let prob_of = |t: TupleId| indb.probability(t);
        let q_obdd = self.query_obdd_in(qman, lineage)?;
        // The shard's probability cache is keyed to the database weights, so
        // sub-diagrams shared with earlier queries are not re-expanded.
        let q_view = QueryView::new_cached(&q_obdd, prob_of);

        // Which blocks does the query touch?
        let mut touched: Vec<usize> = lineage
            .clauses()
            .iter()
            .flatten()
            .filter_map(|&t| self.block_of(t))
            .collect();
        touched.sort_unstable();
        touched.dedup();

        match touched[..] {
            [] => return Ok((q_view.root_prob(), touched)),
            [one] => {
                let block = &self.blocks[one];
                let p = match algo {
                    IntersectAlgorithm::MvIntersect => {
                        mv_intersect(&block.negated, &q_view, prob_of)
                    }
                    IntersectAlgorithm::CcMvIntersect => cc_mv_intersect(&block.layout, &q_view),
                };
                return Ok((p, touched));
            }
            _ => {}
        }

        // Several blocks are touched: chain their ¬W_k diagrams into one
        // slice. Blocks are variable-disjoint; when they are level-disjoint
        // too the chain is one n-ary concatenation that rebuilds each
        // touched block once, so the shared index arena grows by the size
        // of the slice (and by nothing when the query repeats — every
        // rebuilt node is already hash-consed).
        let mut parts: Vec<_> = touched
            .iter()
            .map(|&i| (self.blocks[i].negated.obdd(), self.blocks[i].levels))
            .collect();
        parts.sort_by_key(|(_, levels)| levels.map_or(u32::MAX, |(lo, _)| lo));
        let slice = match Obdd::concat_many(self.order(), &parts, true) {
            Ok(chained) => chained,
            // Interleaved levels: synthesis, deepest block first.
            Err(_) => {
                let mut deepest_first = parts.iter().rev().map(|(block, _)| *block);
                let mut acc = deepest_first.next().expect("touched is non-empty").clone();
                for block in deepest_first {
                    acc = block.apply_and(&acc)?;
                }
                acc
            }
        };
        let slice_aug = AugmentedObdd::new(slice, prob_of);
        let p = match algo {
            IntersectAlgorithm::MvIntersect => mv_intersect(&slice_aug, &q_view, prob_of),
            IntersectAlgorithm::CcMvIntersect => {
                let layout = CcLayout::new(&slice_aug, prob_of);
                cc_mv_intersect(&layout, &q_view)
            }
        };
        Ok((p, touched))
    }

    /// `P0(Q ∧ ¬W)` for a Boolean query given by its lineage.
    ///
    /// On translated databases with many blocks this value can have a very
    /// large magnitude (it is a product of per-block values that are not
    /// genuine probabilities, Section 3.3); prefer
    /// [`MvIndex::conditional_probability`], where the untouched blocks
    /// cancel analytically.
    pub fn prob_q_and_not_w(
        &self,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        self.prob_q_and_not_w_in(&self.query_manager(), lineage, indb, algo)
    }

    /// [`MvIndex::prob_q_and_not_w`] with an explicit query-manager shard.
    pub fn prob_q_and_not_w_in(
        &self,
        qman: &ObddManager,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        if lineage.is_false() {
            return Ok(0.0);
        }
        let (intersected, touched) = self.intersect_touched(qman, lineage, indb, algo)?;
        let mut p = intersected;
        for (i, block) in self.blocks.iter().enumerate() {
            if touched.binary_search(&i).is_err() {
                p *= block.prob_not_w;
            }
        }
        Ok(p)
    }

    /// `P0(Q ∨ W) = P0(W) + P0(Q ∧ ¬W)`.
    pub fn prob_q_or_w(
        &self,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        Ok(self.prob_w() + self.prob_q_and_not_w(lineage, indb, algo)?)
    }

    /// The conditional probability `P0(Q | ¬W) = P0(Q ∧ ¬W) / P0(¬W)`, which
    /// by Theorem 1 equals the MVDB probability of `Q`.
    ///
    /// The blocks not mentioned by the query cancel between the numerator and
    /// the denominator, so only the touched blocks are evaluated — this keeps
    /// the computation numerically stable even when the per-block values have
    /// large magnitudes (negative probabilities, Section 3.3).
    pub fn conditional_probability(
        &self,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        self.conditional_probability_in(&self.query_manager(), lineage, indb, algo)
    }

    /// [`MvIndex::conditional_probability`] with an explicit query-manager
    /// shard — the production entry point: per-context (or per-thread)
    /// shards make the per-answer loop and batch sessions reuse query-side
    /// nodes and memo entries across lineages.
    pub fn conditional_probability_in(
        &self,
        qman: &ObddManager,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        if lineage.is_false() {
            return Ok(0.0);
        }
        let (intersected, touched) = self.intersect_touched(qman, lineage, indb, algo)?;
        let mut denominator = 1.0;
        for &i in &touched {
            denominator *= self.blocks[i].prob_not_w;
        }
        Ok(intersected / denominator)
    }
}

/// The clauses of (Boolean) `W` grouped by separator value, keys ascending:
/// every disjunct gets its separator variable as head and the keyed query
/// runs once through the vectorized executor. Without a separator the whole
/// lineage is one group under a synthetic key.
fn keyed_lineages(indb: &InDb, w: &Ucq) -> Result<Vec<(Value, Lineage)>> {
    let is_prob = |name: &str| {
        indb.schema()
            .relation_id(name)
            .is_some_and(|r| !indb.is_deterministic(r))
    };
    let ctx = EvalContext::new(indb.database());
    let Some(separator) = find_separator_over(w, &is_prob) else {
        let lineage = lineage_with(w, indb, &ctx)?;
        return Ok(if lineage.is_false() {
            Vec::new() // ¬W is vacuous
        } else {
            vec![(Value::str("W"), lineage)]
        });
    };
    let disjuncts = w
        .disjuncts
        .iter()
        .zip(&separator.per_disjunct)
        .map(|(disjunct, var)| {
            let mut keyed = disjunct.clone();
            keyed.head = vec![Term::var(var)];
            keyed
        })
        .collect();
    let keyed = Ucq::new(w.name.as_str(), disjuncts);
    let groups = answer_lineages_with(&keyed, indb, &ctx)?;
    Ok(groups
        .into_iter()
        .map(|(mut key, lineage)| (key.swap_remove(0), lineage))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::lineage::lineage;
    use mv_query::parse_ucq;

    /// A small translated-style database: R, S are base probabilistic tables,
    /// NV is the translated view table with a negative weight.
    fn translated_db() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(2.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b3"]), Weight::new(0.5))
            .unwrap();
        // View weight 4 translates to (1-4)/4 = -0.75.
        b.insert_translated(nv, row(["a1"]), Weight::new(-0.75))
            .unwrap();
        // View weight 0.5 translates to (1-0.5)/0.5 = 1.
        b.insert_translated(nv, row(["a2"]), Weight::new(1.0))
            .unwrap();
        b.build()
    }

    fn w_query() -> Ucq {
        parse_ucq("W() :- NV(x), R(x), S(x, y)").unwrap()
    }

    /// Reference value for P0(Q ∧ ¬W) computed as P0(Q ∨ W) − P0(W) by brute
    /// force over the lineages.
    fn reference_q_and_not_w(q: &Ucq, w: &Ucq, indb: &InDb) -> f64 {
        let lin_q = lineage(q, indb).unwrap();
        let lin_w = lineage(w, indb).unwrap();
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), indb);
        let p_w = brute_force_lineage_probability(&lin_w, indb);
        p_q_or_w - p_w
    }

    #[test]
    fn prob_w_matches_brute_force() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let lin_w = lineage(&w, &indb).unwrap();
        let expected = brute_force_lineage_probability(&lin_w, &indb);
        assert!((index.prob_w() - expected).abs() < 1e-9);
        assert!(index.num_blocks() >= 1);
        assert!(index.size() > 0);
    }

    #[test]
    fn reweight_matches_a_from_scratch_compile() {
        let w = w_query();
        let mut indb = translated_db();
        let mut index = MvIndex::compile(&indb, &w).unwrap();
        let blocks_before = index.num_blocks();
        let epoch_before = index.manager().weight_epoch();
        // Change base-tuple weights in place (no structural change).
        let r = indb.schema().relation_id("R").unwrap();
        let s = indb.schema().relation_id("S").unwrap();
        let t_r = indb.tuple_id_by_values(r, &row(["a1"])).unwrap();
        let t_s = indb.tuple_id_by_values(s, &row(["a2", "b3"])).unwrap();
        indb.set_weight(t_r, Weight::new(0.25));
        indb.set_weight(t_s, Weight::new(6.0));
        index.reweight(|t| indb.probability(t));
        // The diagrams survive (same blocks, no new synthesis), the epoch
        // moved, and every probability matches a from-scratch compile.
        assert_eq!(index.num_blocks(), blocks_before);
        assert!(index.manager().weight_epoch() > epoch_before);
        let rebuilt = MvIndex::compile(&indb, &w).unwrap();
        assert!((index.prob_not_w() - rebuilt.prob_not_w()).abs() < 1e-12);
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin_q = lineage(&q, &indb).unwrap();
        let qman = index.query_manager();
        for algo in [
            IntersectAlgorithm::MvIntersect,
            IntersectAlgorithm::CcMvIntersect,
        ] {
            let p = index
                .conditional_probability_in(&qman, &lin_q, &indb, algo)
                .unwrap();
            let expected = reference_q_and_not_w(&q, &w, &indb) / rebuilt.prob_not_w();
            assert!((p - expected).abs() < 1e-9, "{algo:?}: {p} vs {expected}");
        }
    }

    #[test]
    fn both_intersection_algorithms_match_the_reference() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        for q_text in [
            "Q() :- R('a1'), S('a1', y)",
            "Q() :- R(x), S(x, y)",
            "Q() :- S(x, y)",
            "Q() :- R('a2')",
            "Q() :- S('a1', 'b2')",
        ] {
            let q = parse_ucq(q_text).unwrap();
            let lin_q = lineage(&q, &indb).unwrap();
            let expected = reference_q_and_not_w(&q, &w, &indb);
            let via_mv = index
                .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::MvIntersect)
                .unwrap();
            let via_cc = index
                .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
                .unwrap();
            assert!(
                (via_mv - expected).abs() < 1e-9,
                "{q_text}: {via_mv} vs {expected}"
            );
            assert!(
                (via_cc - expected).abs() < 1e-9,
                "{q_text}: {via_cc} vs {expected}"
            );
        }
    }

    #[test]
    fn a_multi_block_slice_grows_the_arena_by_its_size_once() {
        // 40 separator values = 40 blocks; the scan touches them all.
        let blocks = 40;
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
        for x in 0..blocks {
            b.insert_weighted(r, row([x]), Weight::new(1.5)).unwrap();
            for y in 0..3 {
                b.insert_weighted(s, row([x, y]), Weight::new(0.5 + y as f64))
                    .unwrap();
            }
            b.insert_translated(nv, row([x]), Weight::new(-0.75))
                .unwrap();
        }
        let indb = b.build();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        assert_eq!(index.num_blocks(), blocks as usize);
        let lin_q = lineage(&parse_ucq("Q() :- R(x), S(x, y)").unwrap(), &indb).unwrap();

        let before = index.manager().num_nodes();
        let p = index
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
            .unwrap();
        let grown = index.manager().num_nodes() - before;
        assert!(grown > 0, "the slice is assembled in the index arena");
        assert!(
            grown <= 2 * index.size(),
            "slice of {} block nodes grew the arena by {grown}",
            index.size()
        );
        // P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W), by plain synthesis.
        let lin_w = lineage(&w, &indb).unwrap();
        let q_or_w = index.query_obdd(&lin_q.or(&lin_w)).unwrap();
        let expected = q_or_w.probability(|t| indb.probability(t)) - index.prob_w();
        assert!((p - expected).abs() < 1e-9 * expected.abs().max(1.0));

        let settled = index.manager().num_nodes();
        for algo in [
            IntersectAlgorithm::CcMvIntersect,
            IntersectAlgorithm::MvIntersect,
        ] {
            let again = index.prob_q_and_not_w(&lin_q, &indb, algo).unwrap();
            assert!((again - p).abs() < 1e-9 * p.abs().max(1.0));
        }
        assert_eq!(index.manager().num_nodes(), settled, "repeats add no nodes");
    }

    #[test]
    fn queries_untouched_by_w_use_the_closed_form() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let t = b.probabilistic_relation("T", &["x"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(t, row(["a"]), Weight::new(3.0)).unwrap();
        b.insert_translated(nv, row(["a"]), Weight::new(1.0))
            .unwrap();
        let indb = b.build();
        let w = parse_ucq("W() :- NV(x), R(x)").unwrap();
        let q = parse_ucq("Q() :- T(x)").unwrap();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let lin_q = lineage(&q, &indb).unwrap();
        let expected = reference_q_and_not_w(&q, &w, &indb);
        let got = index
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::MvIntersect)
            .unwrap();
        assert!((got - expected).abs() < 1e-12);
        // The query touches no block.
        assert!(lin_q
            .variables()
            .iter()
            .all(|&t| index.block_of(t).is_none()));
    }

    #[test]
    fn empty_index_means_w_is_false() {
        let indb = translated_db();
        let index = MvIndex::empty(&indb);
        assert_eq!(index.prob_w(), 0.0);
        assert_eq!(index.num_blocks(), 0);
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin_q = lineage(&q, &indb).unwrap();
        let p = index
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
            .unwrap();
        let expected = brute_force_lineage_probability(&lin_q, &indb);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn conditional_probability_implements_theorem_1_quotient() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin_q = lineage(&q, &indb).unwrap();
        let joint = index
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::MvIntersect)
            .unwrap();
        let cond = index
            .conditional_probability(&lin_q, &indb, IntersectAlgorithm::MvIntersect)
            .unwrap();
        assert!((cond - joint / index.prob_not_w()).abs() < 1e-12);
        // The conditional probability is a genuine probability even though
        // the NV tuples carry negative weights.
        assert!((0.0..=1.0).contains(&cond));
    }

    #[test]
    fn false_queries_have_zero_probability() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let p = index
            .prob_q_and_not_w(
                &Lineage::constant_false(),
                &indb,
                IntersectAlgorithm::MvIntersect,
            )
            .unwrap();
        assert_eq!(p, 0.0);
        let p_or = index
            .prob_q_or_w(
                &Lineage::constant_false(),
                &indb,
                IntersectAlgorithm::MvIntersect,
            )
            .unwrap();
        assert!((p_or - index.prob_w()).abs() < 1e-12);
    }

    #[test]
    fn block_keys_and_inter_index_are_consistent() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        for t in 0..indb.num_tuples() as u32 {
            if let Some(b) = index.block_of(TupleId(t)) {
                assert!(b < index.num_blocks());
                let _ = index.block_key(b);
            }
        }
        let stats = index.stats();
        assert_eq!(stats.num_blocks, index.num_blocks());
        assert!(stats.total_nodes >= stats.max_block_nodes);
        assert!(stats.num_variables > 0);
    }
}
