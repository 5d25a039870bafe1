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
//! intersected with the query OBDD; all other blocks cancel out of the
//! quotient of Theorem 1. This is what keeps the running times of
//! Figures 10–11 in the millisecond range regardless of the total index
//! size. The compiled index is something readers never write: a query is
//! folded, annotated and intersected in a [`QueryScratch`] its evaluation
//! context checks out of the index's pool of idle kernels (the pool is the
//! one thing behind a lock, held for a push or a pop). The kernel walks
//! the touched blocks' compiled layouts as a chain in level order (see
//! [`crate::kernel`] and [`crate::intersect`]) — no slice `⋀ₖ ¬W_k` is
//! assembled, in the arena or anywhere else, the arena's write lock is
//! never taken after the compile, and the arena holds after any number of
//! queries exactly the nodes it held when [`MvIndex::compile`] returned.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mv_obdd::conobdd::ConObddBuilder;
use mv_obdd::{ManagerStats, NodeId, Obdd, ObddManager, PiOrder, SynthesisBuilder, VarOrder};
use mv_pdb::{InDb, TupleId, Value};
use mv_query::analysis::find_separator_over;
use mv_query::eval::EvalContext;
use mv_query::lineage::{answer_lineages_with, lineage_with, Clause, Lineage};
use mv_query::{EvalBudget, Term, Ucq};

use crate::augmented::AugmentedObdd;
use crate::intersect::CcLayout;
use crate::kernel::QueryScratch;
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
pub(crate) struct Block {
    /// The key associated with the block (the separator value, or a synthetic
    /// key when `W` has no separator).
    key: Value,
    /// Number of lineage clauses `W_k` was folded from.
    num_clauses: usize,
    /// Tuple variables of those clauses, sorted.
    variables: Vec<TupleId>,
    /// The augmented OBDD of `¬W_k`.
    pub(crate) negated: AugmentedObdd,
    /// Cache-conscious layout of the same diagram.
    pub(crate) layout: CcLayout,
    /// `P0(¬W_k)`.
    pub(crate) prob_not_w: f64,
    /// Level range of the diagram (structure only: `reweight` keeps it), so
    /// multi-block queries chain the blocks in level order without walking
    /// them.
    pub(crate) levels: Option<(u32, u32)>,
}

/// The compiled MV-index for a helper query `W`.
///
/// All block diagrams are handles into one shared [`ObddManager`] arena, so
/// structure common to several blocks is stored once and negation never
/// copies node stores. After compilation the arena is read-only: queries
/// run in a [`QueryScratch`] of their own and at most take the arena's
/// shared lock ([`IntersectAlgorithm::MvIntersect`]), so any number of
/// evaluation threads share one index.
#[derive(Debug, Clone)]
pub struct MvIndex {
    manager: ObddManager,
    pub(crate) blocks: Vec<Block>,
    /// Tuple id → block index ([`NO_BLOCK`] for tuples `W` does not mention).
    inter: Vec<u32>,
    /// The lineage of `W`: the union of every block's clauses.
    w_lineage: Arc<Lineage>,
    prob_not_w: f64,
    stats: IndexStats,
    /// Idle query kernels ([`MvIndex::take_kernel`]), shared with every
    /// clone: a weight-only update keeps them, a structural one compiles a
    /// new index with a new pool. Contexts take one on first use and give
    /// it back when they drop, so the pool holds at most as many kernels as
    /// contexts ever held one at once over the index (one per worker); a
    /// kernel lost to a panic is simply not returned. The lock is held for
    /// one push or one pop.
    kernels: Arc<Mutex<Vec<QueryScratch>>>,
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
        let groups = keyed_lineages(indb, &w.boolean())?;
        Self::from_groups(
            Arc::new(pi.tuple_order(indb)),
            indb.num_tuples(),
            groups,
            |t| indb.probability(t),
        )
    }

    /// The block table over the clauses of `W` grouped by key: one block
    /// per group, in the given order, folded into one arena over `order`.
    pub(crate) fn from_groups(
        order: Arc<VarOrder>,
        num_tuples: usize,
        groups: Vec<(Value, Lineage)>,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> Result<MvIndex> {
        let manager = ObddManager::new(order);

        let mut blocks: Vec<Block> = Vec::new();
        let mut inter = vec![NO_BLOCK; num_tuples];
        let mut all_clauses: Vec<Clause> = Vec::new();
        let mut prob_not_w = 1.0;
        for (key, group) in groups {
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
            kernels: Arc::default(),
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
            kernels: Arc::default(),
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

    /// A fresh query-side manager over the index's variable order, for
    /// callers that want query *diagrams* ([`MvIndex::query_obdd_in`], the
    /// bounded-exact rung, the figures). Probabilities do not need one: see
    /// [`MvIndex::conditional_probability_with`].
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

    /// `P0(Q ∧ ¬W)` for a Boolean query given by its lineage:
    /// [`MvIndex::conditional_probability`] times `P0(¬W)`.
    ///
    /// On translated databases with many blocks this value can have a very
    /// large magnitude (it is a product of per-block values that are not
    /// genuine probabilities, Section 3.3); prefer the conditional
    /// probability, which never forms that product.
    pub fn prob_q_and_not_w(
        &self,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        Ok(self.conditional_probability(lineage, indb, algo)? * self.prob_not_w)
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

    fn idle(&self) -> MutexGuard<'_, Vec<QueryScratch>> {
        // Nothing panics while the lock is held, so a poisoned lock still
        // guards a whole vector.
        self.kernels.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A query kernel from the index's pool of idle ones, or a new one when
    /// none is idle. It comes as [`QueryScratch::new`] leaves a kernel, with
    /// the buffers of its earlier uses; hand it back with
    /// [`MvIndex::recycle_kernel`] when done.
    pub fn take_kernel(&self) -> QueryScratch {
        let idle = self.idle().pop();
        idle.unwrap_or_default()
    }

    /// Returns a kernel to the pool, stripped of its budget, node cap,
    /// counters and nodes (its buffers are kept).
    pub fn recycle_kernel(&self, mut kernel: QueryScratch) {
        kernel.recycle();
        self.idle().push(kernel);
    }

    /// Number of idle kernels in the pool.
    pub fn idle_kernels(&self) -> usize {
        self.idle().len()
    }

    /// Heap bytes the idle kernels hold ([`QueryScratch::heap_bytes`]).
    pub fn idle_kernel_bytes(&self) -> usize {
        self.idle().iter().map(QueryScratch::heap_bytes).sum()
    }

    /// The conditional probability `P0(Q | ¬W) = P0(Q ∧ ¬W) / P0(¬W)`, which
    /// by Theorem 1 equals the MVDB probability of `Q` (in a pooled kernel;
    /// see [`MvIndex::conditional_probability_with`]).
    pub fn conditional_probability(
        &self,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        self.in_pooled_kernel(None, lineage, indb, algo)
    }

    /// [`MvIndex::conditional_probability`] for a caller that holds a
    /// query-manager shard: the shard's cooperative budget bounds the
    /// evaluation. The diagram is not built in the shard — hand the
    /// evaluation context's kernel to
    /// [`MvIndex::conditional_probability_with`] instead where there is one.
    pub fn conditional_probability_in(
        &self,
        qman: &ObddManager,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        self.in_pooled_kernel(qman.budget(), lineage, indb, algo)
    }

    fn in_pooled_kernel(
        &self,
        budget: Option<EvalBudget>,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        let mut kernel = self.take_kernel();
        kernel.set_budget(budget);
        let p = self.conditional_probability_with(&mut kernel, lineage, indb, algo);
        self.recycle_kernel(kernel);
        p
    }

    /// `P0(Q | ¬W)` in the given kernel — the production entry point: the
    /// lineage is folded, annotated and intersected in the kernel's reusable
    /// buffers against the compiled layouts of the blocks it mentions, which
    /// are read in place. The blocks it does not mention cancel between the
    /// numerator and the denominator; each one it does mention is divided
    /// out where the traversal enters it, so the result stays at the
    /// magnitude of a probability however many blocks are touched and
    /// whatever magnitude their `P0(¬W_k)` have (negative probabilities,
    /// Section 3.3). Neither the index nor its arena is written.
    pub fn conditional_probability_with(
        &self,
        scratch: &mut QueryScratch,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        if lineage.is_false() {
            return Ok(0.0);
        }
        Ok(scratch.conditional_probability(self, lineage, |t| indb.probability(t), algo)?)
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

    /// `blocks` separator values = `blocks` blocks of one `R`, three `S`
    /// and one `NV` tuple each.
    fn many_blocks_db(blocks: i64) -> InDb {
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
        b.build()
    }

    #[test]
    fn multi_block_lineages_leave_the_index_arena_as_compiled() {
        let blocks = 40;
        let indb = many_blocks_db(blocks);
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        assert_eq!(index.num_blocks(), blocks as usize);
        let compiled = index.manager().num_nodes();

        // The scan touches every block: P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W), by
        // plain synthesis.
        let lin_q = lineage(&parse_ucq("Q() :- R(x), S(x, y)").unwrap(), &indb).unwrap();
        let lin_w = lineage(&w, &indb).unwrap();
        let q_or_w = index.query_obdd(&lin_q.or(&lin_w)).unwrap();
        let expected = q_or_w.probability(|t| indb.probability(t)) - index.prob_w();
        for algo in [
            IntersectAlgorithm::CcMvIntersect,
            IntersectAlgorithm::MvIntersect,
        ] {
            let p = index.prob_q_and_not_w(&lin_q, &indb, algo).unwrap();
            assert!((p - expected).abs() < 1e-9 * expected.abs().max(1.0));
        }

        // 10 000 distinct two-block lineages R(x₁)S(x₁,y₁) ∨ S(x₂,y₂)
        // through one kernel.
        let r = indb.schema().relation_id("R").unwrap();
        let s = indb.schema().relation_id("S").unwrap();
        let r_of = |x: i64| indb.tuple_id_by_values(r, &row([x])).unwrap();
        let s_of = |x: i64, y: i64| indb.tuple_id_by_values(s, &row([x, y])).unwrap();
        let mut scratch = QueryScratch::new();
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..10_000i64 {
            let x1 = i % blocks;
            let x2 = (x1 + 1 + (i / blocks) % (blocks - 1)) % blocks;
            let pairs = blocks * (blocks - 1);
            let (y1, y2) = ((i / pairs) % 3, (i / (3 * pairs)) % 3);
            let lin = Lineage::from_clauses([vec![r_of(x1), s_of(x1, y1)], vec![s_of(x2, y2)]]);
            let p = index
                .conditional_probability_with(
                    &mut scratch,
                    &lin,
                    &indb,
                    IntersectAlgorithm::CcMvIntersect,
                )
                .unwrap();
            assert!((0.0..=1.0).contains(&p), "lineage {i}: {p}");
            seen.insert(lin.into_clauses());
        }
        assert_eq!(seen.len(), 10_000);
        assert_eq!(index.manager().num_nodes(), compiled);
    }

    /// Standalone calls draw from the index's pool: one kernel serves them
    /// all, answers like a fresh one, and comes back without the budget a
    /// caller lent it — also after that budget tripped.
    #[test]
    fn standalone_calls_share_one_pooled_kernel() {
        let blocks = 40;
        let indb = many_blocks_db(blocks);
        let index = MvIndex::compile(&indb, &w_query()).unwrap();
        assert_eq!((index.idle_kernels(), index.idle_kernel_bytes()), (0, 0));
        let algo = IntersectAlgorithm::CcMvIntersect;
        let r = indb.schema().relation_id("R").unwrap();
        let s = indb.schema().relation_id("S").unwrap();
        for i in 0..200i64 {
            // Point, then broad: the pooled kernel's tables grow and decay.
            let width = if i % 50 == 0 { blocks } else { 1 + i % 3 };
            let lin = Lineage::from_clauses((0..width).map(|j| {
                let x = (i + 7 * j) % blocks;
                vec![
                    indb.tuple_id_by_values(r, &row([x])).unwrap(),
                    indb.tuple_id_by_values(s, &row([x, (i + j) % 3])).unwrap(),
                ]
            }));
            let pooled = index.conditional_probability(&lin, &indb, algo).unwrap();
            let fresh = index
                .conditional_probability_with(&mut QueryScratch::new(), &lin, &indb, algo)
                .unwrap();
            assert_eq!(pooled.to_bits(), fresh.to_bits(), "lineage {i}");
        }
        assert_eq!(index.idle_kernels(), 1);
        assert!(index.idle_kernel_bytes() > 0);
        // Clones share the pool.
        assert_eq!(index.clone().idle_kernels(), 1);

        let lin_q = lineage(&parse_ucq("Q() :- R(x), S(x, y)").unwrap(), &indb).unwrap();
        let exact = index.conditional_probability(&lin_q, &indb, algo).unwrap();
        let qman = index.query_manager();
        qman.set_budget(Some(EvalBudget::unlimited().with_step_limit(1)));
        assert!(index
            .conditional_probability_in(&qman, &lin_q, &indb, algo)
            .is_err());
        let again = index.conditional_probability(&lin_q, &indb, algo).unwrap();
        assert_eq!(again.to_bits(), exact.to_bits());
        assert_eq!(index.idle_kernels(), 1);
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
