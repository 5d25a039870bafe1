//! The MV-index: offline compilation of `W` and online query evaluation.
//!
//! An [`MvIndex`] is compiled once from the helper query `W` (the union of
//! the MarkoView queries joined with their `NV` relations, Theorem 1). It
//! stores the diagram of `¬W_k` for every independent *block* of `W` — one
//! per separator value, the "set of augmented OBDDs, each associated with a
//! particular key" of Section 4.1 — in one immutable **block table**:
//!
//! * every block's reachable nodes in one flat vector of [`ObddNode`]s
//!   (level, children, variable probability and `probUnder` inline), each
//!   block a contiguous range laid out in DFS post-order from its root with
//!   the 0-edge first — the cache-conscious layout of Section 4.3, in which
//!   children precede their parents so one ascending sweep annotates it.
//!   Children are positions relative to the block's start, or the store's
//!   sink markers;
//! * one row per block: its key, node range, root, level range,
//!   `P0(¬W_k)`, clause count and the range of its variables in one flat
//!   variables vector;
//! * the `InterBddIndex`: a dense table from tuple variable to the block
//!   containing it.
//!
//! The table sits behind an [`Arc`], so a clone of the index — an engine
//! snapshot — costs a few pointer copies; a weight-only update
//! ([`MvIndex::reweight`]) copies it once if it is shared and re-annotates
//! it in one sweep. Beside it the index keeps the lineage of `W` the blocks
//! were folded from, which every consumer of "the clauses of `W`"
//! (evaluation contexts, the shard partitioner) borrows instead of
//! evaluating `W` again.
//!
//! Compilation is set-at-a-time: `W` is rewritten with its separator
//! variable as head and evaluated *once* by the vectorized executor, which
//! yields the clauses of `W` grouped by separator value. Each group is
//! folded in a query kernel's node store ([`QueryScratch`], the
//! deepest-first OR fold of [`mv_obdd::NodeStore`], emptied per group) and
//! its reachable nodes are copied into the table with the sinks swapped. No
//! `ObddManager` is made, so none outlives the compile. Canonicity makes
//! each block the diagram the paper's recursive `ConOBDD(π, W_k)`
//! construction ([`mv_obdd::ConObddBuilder`]) reaches value by value, node
//! for node, with the same `probUnder` bits —
//! which `tests/compile_equivalence.rs` pins against diagrams it builds in
//! a manager of its own.
//!
//! At query time, only the blocks mentioned by the query lineage are
//! intersected with the query OBDD; all other blocks cancel out of the
//! quotient of Theorem 1. This is what keeps the running times of
//! Figures 10–11 in the millisecond range regardless of the total index
//! size. A query is folded, annotated and intersected in a [`QueryScratch`]
//! its evaluation context checks out of the index's pool of idle kernels
//! (the pool is the one thing behind a lock, held for a push or a pop). The
//! kernel walks the touched blocks' table rows as a chain in level order
//! (see [`crate::kernel`] and [`crate::intersect`]): no slice `⋀ₖ ¬W_k` is
//! assembled, and the table is never written by a reader.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mv_obdd::{annotate, prob_at, ManagerStats, NodeId, Obdd, ObddManager, ObddNode};
use mv_obdd::{PiOrder, VarOrder};
use mv_pdb::{InDb, TupleId, Value};
use mv_query::analysis::find_separator_over;
use mv_query::eval::EvalContext;
use mv_query::lineage::{answer_lineages_with, lineage_with, Clause, ClauseSlice, Lineage};
use mv_query::{Term, Ucq};

use crate::intersect::{vec_bytes, BlockView};
use crate::kernel::QueryScratch;
use crate::Result;

/// Which intersection algorithm to use at query time (Section 4.3 / Fig. 9).
///
/// The index keeps one form of its blocks, the flat table the
/// cache-conscious walk reads, so this has one variant. It stays a
/// parameter of the query entry points only because the repository
/// benchmark (`benchmark/`) passes it; the pointer-based MVIntersect of
/// Fig. 9 is [`crate::mv_intersect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntersectAlgorithm {
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
pub(crate) struct BlockRow {
    /// The key associated with the block (the separator value, or a synthetic
    /// key when `W` has no separator).
    key: Value,
    /// `[start, end)` of the block's nodes in [`BlockTable::nodes`].
    nodes: (u32, u32),
    /// Position of the root within the block's range, or a sink marker
    /// when `¬W_k` is constant.
    root: NodeId,
    /// Level range of the diagram (structure only: `reweight` keeps it), so
    /// multi-block queries chain the blocks in level order without walking
    /// them.
    pub(crate) levels: Option<(u32, u32)>,
    /// `P0(¬W_k)`.
    pub(crate) prob_not_w: f64,
    /// Number of lineage clauses `W_k` was folded from.
    num_clauses: u32,
    /// `[start, end)` of the block's tuple variables (sorted) in
    /// [`BlockTable::variables`].
    variables: (u32, u32),
}

/// Every block of the index in one place; see the module docs.
#[derive(Debug, Clone, Default)]
pub(crate) struct BlockTable {
    /// Every block's `¬W_k` nodes, block after block; children are
    /// positions relative to their block's start, or sink markers.
    nodes: Vec<ObddNode>,
    pub(crate) rows: Vec<BlockRow>,
    variables: Vec<TupleId>,
    /// Tuple id → block ([`NO_BLOCK`] for tuples `W` does not mention).
    inter: Vec<u32>,
    /// `∏ₖ P0(¬W_k)`.
    prob_not_w: f64,
}

impl BlockTable {
    /// A block as the walk reads it.
    pub(crate) fn view(&self, block: u32) -> BlockView<'_> {
        let row = &self.rows[block as usize];
        BlockView {
            nodes: &self.nodes[row.nodes.0 as usize..row.nodes.1 as usize],
            root: row.root,
        }
    }

    /// Heap bytes of the table's vectors (a string key's text is shared
    /// with the store it came from).
    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.nodes)
            + vec_bytes(&self.rows)
            + vec_bytes(&self.variables)
            + vec_bytes(&self.inter)
    }
}

/// The compiled MV-index for a helper query `W`.
///
/// The block table is immutable and shared by every clone; queries run in
/// a [`QueryScratch`] of their own and take no lock on it, so any number of
/// evaluation threads share one index.
#[derive(Debug, Clone)]
pub struct MvIndex {
    table: Arc<BlockTable>,
    order: Arc<VarOrder>,
    /// The lineage of `W`: the union of every block's clauses.
    w_lineage: Arc<Lineage>,
    stats: IndexStats,
    /// What the compile's folds counted ([`MvIndex::manager_stats`]).
    compile_stats: ManagerStats,
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
        let order = PiOrder::infer(w, indb).tuple_order(indb);
        let groups = keyed_lineages(indb, &w.boolean())?;
        Self::from_groups(Arc::new(order), indb.num_tuples(), groups, |t| {
            indb.probability(t)
        })
    }

    /// The block table over the clauses of `W` grouped by key: one block
    /// per group, in the given order, each folded by one kernel over
    /// `order`.
    pub(crate) fn from_groups(
        order: Arc<VarOrder>,
        num_tuples: usize,
        groups: Vec<(Value, Lineage)>,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> Result<MvIndex> {
        let mut table = BlockTable {
            inter: vec![NO_BLOCK; num_tuples],
            prob_not_w: 1.0,
            ..BlockTable::default()
        };
        let mut kernel = QueryScratch::new();
        let mut all_clauses: Vec<Clause> = Vec::new();
        let mut variables: Vec<TupleId> = Vec::new();
        let mut max_block_nodes = 0;
        for (key, group) in groups {
            let block = table.rows.len() as u32;
            variables.clear();
            variables.extend(group.clauses().iter().flatten().copied());
            variables.sort_unstable();
            variables.dedup();
            for &v in &variables {
                // Every tuple carries one separator value at the position
                // fixed for its relation, so groups cannot share a variable.
                assert_eq!(
                    table.inter[v.0 as usize], NO_BLOCK,
                    "tuple {v} appears under two separator values of W"
                );
                table.inter[v.0 as usize] = block;
            }
            let first_variable = table.variables.len() as u32;
            table.variables.extend_from_slice(&variables);

            // An empty clause folds to TRUE, so a `W_k` satisfied by
            // deterministic tuples alone becomes a block with `P0(¬W_k) = 0`.
            let start = table.nodes.len();
            let root = kernel.fold_negated(&order, &group, &mut table.nodes)?;
            let nodes = &mut table.nodes[start..];
            annotate(nodes, &order, prob_of);
            let prob_not_w = prob_at(nodes, root);
            let levels = nodes.get(root as usize).map(|top| {
                let deepest = nodes.iter().map(|n| n.level).max();
                (top.level, deepest.unwrap_or(top.level))
            });
            max_block_nodes = max_block_nodes.max(nodes.len());
            table.prob_not_w *= prob_not_w;
            table.rows.push(BlockRow {
                key,
                nodes: (start as u32, table.nodes.len() as u32),
                root,
                levels,
                prob_not_w,
                num_clauses: group.num_clauses() as u32,
                variables: (first_variable, table.variables.len() as u32),
            });
            all_clauses.extend(group.into_clauses());
        }
        table.nodes.shrink_to_fit();
        table.variables.shrink_to_fit();

        let stats = IndexStats {
            num_blocks: table.rows.len(),
            total_nodes: table.nodes.len(),
            max_block_nodes,
            num_variables: table.variables.len(),
        };
        Ok(MvIndex {
            table: Arc::new(table),
            order,
            // Groups are variable-disjoint, so their clauses are distinct.
            w_lineage: Arc::new(Lineage::from_distinct_clauses(all_clauses)),
            stats,
            compile_stats: kernel.stats(),
            kernels: Arc::default(),
        })
    }

    /// Compiles an index for a database without MarkoViews (`W = false`).
    pub fn empty(indb: &InDb) -> MvIndex {
        let order = Arc::new(PiOrder::identity().tuple_order(indb));
        Self::from_groups(order, 0, Vec::new(), |_| 1.0).expect("no group to fold")
    }

    pub(crate) fn table(&self) -> &BlockTable {
        &self.table
    }

    pub(crate) fn var_order(&self) -> &VarOrder {
        &self.order
    }

    /// The variable order shared by the index and by query OBDDs.
    pub fn order(&self) -> Arc<VarOrder> {
        Arc::clone(&self.order)
    }

    /// The counters of the compile's folds (node allocations, unique-table
    /// and apply-memo hits; `peak_nodes` is the largest single block fold).
    /// Constant for the life of the index: queries never touch the table.
    pub fn manager_stats(&self) -> ManagerStats {
        self.compile_stats
    }

    /// Index statistics.
    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    /// Heap bytes the compiled index holds: the block table (nodes, rows,
    /// variables, the tuple → block map) and the lineage of `W` it keeps. Idle kernels are counted apart
    /// ([`MvIndex::idle_kernel_bytes`]); a table shared with clones is
    /// counted in full by each.
    pub fn heap_bytes(&self) -> usize {
        let clauses = self.w_lineage.clauses();
        let lineage: usize = clauses
            .iter()
            .map(|c| std::mem::size_of::<Clause>() + vec_bytes(c))
            .sum();
        self.table.heap_bytes() + lineage
    }

    /// `true` when the two indexes read one block table — a clone, or a
    /// snapshot no weight write has reached yet.
    pub fn shares_table_with(&self, other: &MvIndex) -> bool {
        Arc::ptr_eq(&self.table, &other.table)
    }

    /// `P0(W)`.
    pub fn prob_w(&self) -> f64 {
        1.0 - self.table.prob_not_w
    }

    /// `P0(¬W)`.
    ///
    /// Note that on translated databases this is a product of per-block
    /// values that are not genuine probabilities, so its magnitude can be
    /// arbitrarily large (or underflow); use [`MvIndex::is_consistent`] to
    /// test for consistency instead of comparing this value with zero.
    pub fn prob_not_w(&self) -> f64 {
        self.table.prob_not_w
    }

    /// Re-annotates the index after a weight-only update: every block's
    /// diagram *structure* is untouched (no fold is repeated), and one
    /// ascending sweep over the table recomputes every node's variable
    /// probability and `probUnder`, every `P0(¬W_k)` and their product
    /// against the new weights — bit for bit what a from-scratch compile
    /// computes. A table shared with clones (the snapshot this one was
    /// cloned from) is copied first and left as it was. `prob_of` must be
    /// the updated database weight function (typically
    /// `|t| indb.probability(t)`).
    pub fn reweight(&mut self, prob_of: impl Fn(TupleId) -> f64 + Copy) {
        let BlockTable {
            nodes,
            rows,
            prob_not_w,
            ..
        } = Arc::make_mut(&mut self.table);
        *prob_not_w = 1.0;
        for row in rows {
            let block = &mut nodes[row.nodes.0 as usize..row.nodes.1 as usize];
            annotate(block, &self.order, prob_of);
            row.prob_not_w = prob_at(block, row.root);
            *prob_not_w *= row.prob_not_w;
        }
    }

    /// `true` when no block makes `¬W` impossible. Since blocks constrain
    /// disjoint sets of tuples, `P0(¬W) = 0` exactly when some block has
    /// `P0(¬W_k) = 0`, so this is the numerically robust consistency test.
    pub fn is_consistent(&self) -> bool {
        self.table.rows.iter().all(|b| b.prob_not_w != 0.0)
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.table.rows.len()
    }

    /// Total number of OBDD nodes in the index.
    pub fn size(&self) -> usize {
        self.stats.total_nodes
    }

    /// The block containing a tuple variable, if any (the `InterBddIndex`).
    pub fn block_of(&self, tuple: TupleId) -> Option<usize> {
        match self.table.inter.get(tuple.0 as usize) {
            Some(&block) if block != NO_BLOCK => Some(block as usize),
            _ => None,
        }
    }

    /// The key associated with a block.
    pub fn block_key(&self, block: usize) -> &Value {
        &self.table.rows[block].key
    }

    /// The tuple variables constrained by a block, ascending.
    pub fn block_variables(&self, block: usize) -> impl Iterator<Item = TupleId> + '_ {
        let (start, end) = self.table.rows[block].variables;
        self.table.variables[start as usize..end as usize]
            .iter()
            .copied()
    }

    /// Number of lineage clauses a block was folded from.
    pub fn block_clauses(&self, block: usize) -> usize {
        self.table.rows[block].num_clauses as usize
    }

    /// `P0(¬W_k)` of a block.
    pub fn block_prob_not_w(&self, block: usize) -> f64 {
        self.table.rows[block].prob_not_w
    }

    /// A block's `¬W_k` diagram as the table keeps it: its nodes (children
    /// are positions in this slice or the sink markers) and the position of
    /// its root — what the differential tests hold against diagrams built
    /// in a manager.
    #[doc(hidden)]
    pub fn block_diagram(&self, block: usize) -> (&[ObddNode], NodeId) {
        let view = self.table.view(block as u32);
        (view.nodes, view.root)
    }

    /// The lineage of `W` the index was compiled from (constant `false`
    /// for [`MvIndex::empty`]): the union of every block's clauses.
    pub fn w_lineage(&self) -> &Lineage {
        &self.w_lineage
    }

    /// A fresh query-side manager over the index's variable order, for
    /// callers that want query *diagrams* ([`MvIndex::query_obdd_in`], the
    /// figures, the tests). No evaluation path needs one: every exact
    /// answer runs in a query kernel
    /// ([`MvIndex::conditional_probability_with`]).
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
        Ok(manager.lineage(lineage)?)
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
        Ok(self.conditional_probability(lineage, indb, algo)? * self.prob_not_w())
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
        let mut kernel = self.take_kernel();
        let p = self.conditional_probability_with(&mut kernel, lineage, indb, algo);
        self.recycle_kernel(kernel);
        p
    }

    /// [`MvIndex::conditional_probability`]; the manager is not used. The
    /// repository benchmark (`benchmark/`) calls this form.
    pub fn conditional_probability_in(
        &self,
        _manager: &ObddManager,
        lineage: &Lineage,
        indb: &InDb,
        algo: IntersectAlgorithm,
    ) -> Result<f64> {
        self.conditional_probability(lineage, indb, algo)
    }

    /// `P0(Q | ¬W)` in the given kernel — the production entry point: the
    /// lineage is folded, annotated and intersected in the kernel's reusable
    /// buffers against the table rows of the blocks it mentions, which are
    /// read in place. The blocks it does not mention cancel between the
    /// numerator and the denominator; each one it does mention is divided
    /// out where the traversal enters it, so the result stays at the
    /// magnitude of a probability however many blocks are touched and
    /// whatever magnitude their `P0(¬W_k)` have (negative probabilities,
    /// Section 3.3). The index is not written.
    pub fn conditional_probability_with(
        &self,
        scratch: &mut QueryScratch,
        lineage: &Lineage,
        indb: &InDb,
        _algo: IntersectAlgorithm,
    ) -> Result<f64> {
        if lineage.is_false() {
            return Ok(0.0);
        }
        Ok(scratch.lineage_probability(self, lineage, |t| indb.probability(t))?)
    }

    /// [`MvIndex::conditional_probability_with`] for the flat clauses the
    /// exact online path carries — a query's or a shard's
    /// [`ClauseBuffer`](mv_query::ClauseBuffer), or one answer's range of a
    /// non-Boolean query's [`AnswerClauses`](mv_query::AnswerClauses): the
    /// kernel folds the clauses and reads the touched blocks off their ids,
    /// with no [`Lineage`] built. The answer is the one of the canonical
    /// lineage of the same clauses, to the bit, whatever their order.
    pub fn clauses_probability_with(
        &self,
        scratch: &mut QueryScratch,
        clauses: ClauseSlice<'_>,
        indb: &InDb,
    ) -> Result<f64> {
        if clauses.is_empty() {
            return Ok(0.0);
        }
        Ok(scratch.buffer_probability(self, clauses, |t| indb.probability(t))?)
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
    use crate::augmented::AugmentedObdd;
    use crate::intersect::{mv_intersect, CcLayout};
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::lineage::lineage;
    use mv_query::parse_ucq;
    use mv_query::EvalBudget;
    use std::time::Duration;

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

    /// Every block of two indexes, node for node and bit for bit.
    fn assert_same_tables(a: &MvIndex, b: &MvIndex) {
        assert_eq!(a.prob_not_w().to_bits(), b.prob_not_w().to_bits());
        assert_eq!(a.num_blocks(), b.num_blocks());
        for k in 0..a.num_blocks() {
            let ((a_nodes, a_root), (b_nodes, b_root)) = (a.block_diagram(k), b.block_diagram(k));
            assert_eq!(a_root, b_root);
            assert_eq!(a_nodes.len(), b_nodes.len());
            for (x, y) in a_nodes.iter().zip(b_nodes) {
                assert_eq!((x.level, x.lo, x.hi), (y.level, y.lo, y.hi));
                assert_eq!(x.p_var.to_bits(), y.p_var.to_bits());
                assert_eq!(x.prob.to_bits(), y.prob.to_bits());
            }
            assert_eq!(
                a.block_prob_not_w(k).to_bits(),
                b.block_prob_not_w(k).to_bits()
            );
        }
    }

    #[test]
    fn reweight_matches_a_from_scratch_compile() {
        let w = w_query();
        let mut indb = translated_db();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let source = indb.clone();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin_q = lineage(&q, &indb).unwrap();
        let algo = IntersectAlgorithm::CcMvIntersect;
        let before = index.conditional_probability(&lin_q, &indb, algo).unwrap();
        // A snapshot shares the table until its weight write.
        let mut snapshot = index.clone();
        assert!(snapshot.shares_table_with(&index));
        // Change base-tuple weights in place (no structural change).
        let r = indb.schema().relation_id("R").unwrap();
        let s = indb.schema().relation_id("S").unwrap();
        let t_r = indb.tuple_id_by_values(r, &row(["a1"])).unwrap();
        let t_s = indb.tuple_id_by_values(s, &row(["a2", "b3"])).unwrap();
        indb.set_weight(t_r, Weight::new(0.25));
        indb.set_weight(t_s, Weight::new(6.0));
        snapshot.reweight(|t| indb.probability(t));
        assert!(!snapshot.shares_table_with(&index));
        // The source answers as before the write.
        let again = index
            .conditional_probability(&lin_q, &source, algo)
            .unwrap();
        assert_eq!(again.to_bits(), before.to_bits());
        // The snapshot is, bit for bit, a from-scratch compile.
        let rebuilt = MvIndex::compile(&indb, &w).unwrap();
        assert_same_tables(&snapshot, &rebuilt);
        let qman = snapshot.query_manager();
        let p = snapshot
            .conditional_probability_in(&qman, &lin_q, &indb, algo)
            .unwrap();
        let fresh = rebuilt
            .conditional_probability(&lin_q, &indb, algo)
            .unwrap();
        assert_eq!(p.to_bits(), fresh.to_bits());
        let expected = reference_q_and_not_w(&q, &w, &indb) / rebuilt.prob_not_w();
        assert!((p - expected).abs() < 1e-9, "{p} vs {expected}");
        // Reweighting back restores the source's table.
        snapshot.reweight(|t| source.probability(t));
        assert_same_tables(&snapshot, &index);
    }

    /// MVIntersect over `¬W` built in a manager of the test's own, and the
    /// index's walk over its table (CC-MVIntersect), against brute force.
    #[test]
    fn both_intersection_algorithms_match_the_reference() {
        let indb = translated_db();
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let prob_of = |t: TupleId| indb.probability(t);
        let manager = index.query_manager();
        let lin_w = lineage(&w, &indb).unwrap();
        let not_w = AugmentedObdd::new(manager.dnf(lin_w.clauses()).unwrap().negate(), prob_of);
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
            let q_view = CcLayout::new(&manager.dnf(lin_q.clauses()).unwrap(), prob_of);
            let via_mv = mv_intersect(&not_w, &q_view, prob_of);
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
    fn multi_block_lineages_leave_the_block_table_as_compiled() {
        let blocks = 40;
        let indb = many_blocks_db(blocks);
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        assert_eq!(index.num_blocks(), blocks as usize);
        let compiled = (index.heap_bytes(), index.manager_stats());

        // The scan touches every block: P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W), by
        // plain synthesis.
        let lin_q = lineage(&parse_ucq("Q() :- R(x), S(x, y)").unwrap(), &indb).unwrap();
        let lin_w = lineage(&w, &indb).unwrap();
        let q_or_w = index.query_obdd(&lin_q.or(&lin_w)).unwrap();
        let expected = q_or_w.probability(|t| indb.probability(t)) - index.prob_w();
        let p = index
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
            .unwrap();
        assert!((p - expected).abs() < 1e-9 * expected.abs().max(1.0));

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
        assert_eq!((index.heap_bytes(), index.manager_stats()), compiled);
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
        let mut lent = index.take_kernel();
        lent.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        assert!(index
            .conditional_probability_with(&mut lent, &lin_q, &indb, algo)
            .is_err());
        index.recycle_kernel(lent);
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
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
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
            .prob_q_and_not_w(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
            .unwrap();
        let cond = index
            .conditional_probability(&lin_q, &indb, IntersectAlgorithm::CcMvIntersect)
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
                IntersectAlgorithm::CcMvIntersect,
            )
            .unwrap();
        assert_eq!(p, 0.0);
        let p_or = index
            .prob_q_or_w(
                &Lineage::constant_false(),
                &indb,
                IntersectAlgorithm::CcMvIntersect,
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
