//! The query-side scratch kernel: the online step of Section 4.3 without a
//! shared store.
//!
//! The paper makes the online step cheap because the query OBDD is small
//! and `probUnder` lets the intersection visit only the slice of the index
//! the query spans. A [`QueryScratch`] keeps everything *around* that
//! traversal at the same scale: a [`NodeStore`] of its own — the
//! workspace's one OBDD builder, here without a lock and emptied for every
//! lineage — plus the intersection's reusable state. One evaluation context
//! at a time owns a kernel: the context checks one out of its index's pool
//! of idle ones on first use and hands it back when it drops
//! ([`MvIndex::take_kernel`] / [`MvIndex::recycle_kernel`]), so a context
//! made per call still runs on warm buffers. A kernel is never shared and
//! never a thread-local, and it holds nothing of the snapshot it is used
//! with — every entry point empties its store — so one returned after an
//! error or a panic is as good as new. One lineage — the clause slices of a
//! [`Lineage`] or of the flat clauses the online path carries (a
//! [`ClauseSlice`] of a buffer or of one answer's range), in whatever order
//! they come — goes through it in three steps:
//!
//! 1. **fold** — the store's OR fold over the sorted clause trie
//!    ([`NodeStore::fold`]: shared prefixes built once, level-disjoint
//!    parts concatenated, `apply` only where levels interleave): canonicity
//!    makes the diagram the one a manager would build, the same for any
//!    clause order; nothing is hash-consed against earlier queries, so
//!    nothing outlives the call;
//! 2. **annotate** — children are always made before their parents, so one
//!    ascending sweep over the store ([`annotate`]) computes every node's
//!    variable probability and `probUnder` (Shannon expansion, valid for
//!    the negative probabilities of Section 3.3);
//! 3. **intersect** — the touched blocks (read off the clauses' ids through
//!    the index's dense tuple → block array, each marked once in a bitmap
//!    over the blocks) are walked *as a chain* in level order
//!    (`Walk::intersect`, over their rows of the index's flat block
//!    table): the index is read, never written. Blocks
//!    whose level ranges interleave (possible under a `π` that does not put
//!    the separator first) cannot be chained; their rows are copied into
//!    the store and conjoined with the query diagram there.
//!
//! The index is compiled by the same two first steps: each keyed group of
//! `W`'s clauses is folded like a lineage, its reachable nodes are copied
//! into the block table with the sinks swapped (the diagram of `¬W_k`,
//! children still before their parents), and the table's slice is
//! annotated by the same sweep — which a weight-only update repeats over
//! the whole table.
//!
//! The store polls the cooperative [`EvalBudget`] between the fold's
//! top-level runs and every 1024 fold steps or apply frames, and refuses past the node cap with
//! [`ObddError::NodeBudgetExceeded`]. Its work is counted in a
//! [`ManagerStats`] of its own ([`QueryScratch::stats`]).

use mv_obdd::obdd::{FALSE, TRUE};
use mv_obdd::{
    annotate, prob_at, BoolOp, ManagerStats, NodeId, NodeStore, ObddError, ObddNode, VarOrder,
};
use mv_pdb::TupleId;
use mv_query::lineage::{ClauseSlice, Lineage};
use mv_query::EvalBudget;

use crate::index::MvIndex;
use crate::intersect::{vec_bytes, IndexBlock, Walk};

/// The reusable per-context state of the exact rung; see the module docs.
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// The diagram of the current lineage (emptied per lineage).
    store: NodeStore,
    /// Blocks the lineage touches, in level order.
    touched: Vec<u32>,
    /// One bit per block of the index at hand, set while `touched` is
    /// being collected.
    marked: Vec<u64>,
    /// Root of the most recent lineage's diagram.
    root: NodeId,
    walk: Walk,
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch::new()
    }
}

impl QueryScratch {
    /// An empty kernel: no budget, and no node cap short of the position
    /// space.
    pub fn new() -> Self {
        QueryScratch {
            store: NodeStore::new(),
            touched: Vec::new(),
            marked: Vec::new(),
            root: FALSE,
            walk: Walk::new(),
        }
    }

    /// Puts the kernel back in the state [`QueryScratch::new`] leaves — no
    /// budget, no node cap short of the position space, counters zeroed, no
    /// nodes — keeping every buffer's capacity. What the pool does to a
    /// kernel a context hands back, so the next context neither inherits
    /// its predecessor's limits nor reports its work.
    pub(crate) fn recycle(&mut self) {
        self.store.recycle();
        self.root = FALSE;
    }

    /// Heap bytes the kernel's store, buffers and tables hold, in use or not.
    pub fn heap_bytes(&self) -> usize {
        self.store.heap_bytes()
            + vec_bytes(&self.touched)
            + vec_bytes(&self.marked)
            + self.walk.heap_bytes()
    }

    /// Installs (or clears) the cooperative deadline the folds poll.
    pub fn set_budget(&mut self, budget: Option<EvalBudget>) {
        self.store.set_budget(budget);
    }

    /// Refuses, with [`ObddError::NodeBudgetExceeded`], any lineage whose
    /// fold allocates more than `cap` nodes (`usize::MAX` lifts the cap
    /// back to the position space).
    pub fn set_node_cap(&mut self, cap: usize) {
        self.store.set_node_cap(cap);
    }

    /// Work counters since the kernel was made, in the manager's
    /// vocabulary: nodes allocated, unique-table and apply-memo hits and
    /// misses, the largest diagram store (sinks included) and, as a gauge,
    /// the store of the most recent lineage.
    pub fn stats(&self) -> ManagerStats {
        self.store.stats()
    }

    /// Size of the most recent lineage's diagram in the paper's sense (the
    /// internal nodes reachable from its root; the store also holds what
    /// the fold discarded) — for holding the kernel against a reference.
    #[doc(hidden)]
    pub fn diagram_size(&self) -> usize {
        self.store.reachable(self.root).len()
    }

    /// Step 1: folds the clauses into the emptied store.
    fn fold<'c>(
        &mut self,
        order: &VarOrder,
        clauses: impl IntoIterator<Item = &'c [TupleId]>,
    ) -> Result<NodeId, ObddError> {
        self.store.clear();
        self.root = self.store.fold(order, clauses)?;
        Ok(self.root)
    }

    /// The compile's step for one block: folds a keyed group of `W`'s
    /// clauses like a lineage, then copies the nodes reachable from its
    /// root to `out` with the sinks swapped — the diagram of `¬W_k` —
    /// children before parents, so one [`annotate`] sweep over the appended
    /// slice annotates it. Positions are relative to where the block starts
    /// in `out`; the nodes come unannotated. Returns the root's position (a
    /// sink marker when `¬W_k` is constant).
    pub(crate) fn fold_negated(
        &mut self,
        order: &VarOrder,
        group: &Lineage,
        out: &mut Vec<ObddNode>,
    ) -> Result<NodeId, ObddError> {
        let root = self.fold(order, group.clauses().iter().map(Vec::as_slice))?;
        let start = out.len();
        let negate = |v| if v == TRUE { FALSE } else { TRUE };
        let place = |_: &mut NodeStore, _, level, lo, hi| {
            out.push(ObddNode {
                level,
                lo,
                hi,
                p_var: 0.0,
                prob: 0.0,
            });
            (out.len() - 1 - start) as NodeId
        };
        Ok(self.store.copy(root, 0, NodeStore::triple, negate, place))
    }

    /// [`QueryScratch::conditional_probability`] of a [`Lineage`].
    pub(crate) fn lineage_probability(
        &mut self,
        index: &MvIndex,
        lineage: &Lineage,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> Result<f64, ObddError> {
        let clauses = lineage.clauses();
        let slices = clauses.iter().map(Vec::as_slice);
        self.conditional_probability(index, slices, clauses.iter().flatten(), prob_of)
    }

    /// [`QueryScratch::conditional_probability`] of flat clauses.
    pub(crate) fn buffer_probability(
        &mut self,
        index: &MvIndex,
        clauses: ClauseSlice<'_>,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> Result<f64, ObddError> {
        self.conditional_probability(index, clauses.iter(), clauses.ids(), prob_of)
    }

    /// The exact rung: `P0(Φ ∧ ¬W) / P0(¬W)` for the DNF `Φ` of `clauses`
    /// (in any order, repeats allowed) over the blocks that `ids` — the
    /// clauses' tuples — touch (the others cancel).
    fn conditional_probability<'c>(
        &mut self,
        index: &MvIndex,
        clauses: impl IntoIterator<Item = &'c [TupleId]>,
        ids: impl IntoIterator<Item = &'c TupleId>,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> Result<f64, ObddError> {
        let order = index.var_order();
        let root = self.fold(order, clauses)?;

        let table = index.table();
        let blocks = &table.rows;
        let first_level = |b: u32| blocks[b as usize].levels.map_or(u32::MAX, |(lo, _)| lo);
        // Each touched block once, through a bitmap over the block ids that
        // is all clear again when this step is done.
        self.touched.clear();
        self.marked
            .resize(blocks.len().div_ceil(64).max(self.marked.len()), 0);
        for &t in ids {
            if let Some(b) = index.block_of(t) {
                let (word, bit) = (b / 64, 1u64 << (b % 64));
                if self.marked[word] & bit == 0 {
                    self.marked[word] |= bit;
                    self.touched.push(b as u32);
                }
            }
        }
        for &b in &self.touched {
            self.marked[b as usize / 64] = 0;
        }
        self.touched.sort_unstable();
        // Blocks are compiled in key order, which under a separator-first
        // `π` is level order already: this sort mostly finds nothing to do.
        self.touched.sort_unstable_by_key(|&b| first_level(b));
        let chained = self.touched.windows(2).all(|w| {
            match (blocks[w[0] as usize].levels, blocks[w[1] as usize].levels) {
                (Some((_, last)), Some((first, _))) => last < first,
                _ => true,
            }
        });

        if !chained {
            // Interleaved level ranges: copy the blocks into the store and
            // conjoin them there, deepest block first, and read the
            // probability off the sweep.
            let mut acc = root;
            for i in (0..self.touched.len()).rev() {
                let view = table.view(self.touched[i]);
                let node = |_: &NodeStore, u| view.node(u);
                let place = |store: &mut NodeStore, _, level, lo, hi| store.mk(level, lo, hi);
                let block = self.store.copy(view.root, i as u32, node, |v| v, place);
                acc = self.store.apply(BoolOp::And, block, acc)?;
            }
            annotate(self.store.nodes_mut(), order, prob_of);
            let p = self
                .touched
                .iter()
                .fold(prob_at(self.store.nodes(), acc), |p, &b| {
                    p / blocks[b as usize].prob_not_w
                });
            return Ok(p);
        }

        annotate(self.store.nodes_mut(), order, prob_of);
        let touched = &self.touched;
        let block = |k: usize| {
            let b = touched[k];
            (table.view(b), blocks[b as usize].prob_not_w)
        };
        Ok(self
            .walk
            .intersect(touched.len(), block, self.store.nodes(), root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use mv_obdd::RefManager;
    use mv_pdb::Value;
    use mv_query::brute::brute_force_probability_with;
    use mv_query::BudgetError;
    use proptest::prelude::*;

    fn lineage_of(clauses: &[Vec<u32>]) -> Lineage {
        Lineage::from_clauses(
            clauses
                .iter()
                .map(|c| c.iter().map(|&t| TupleId(t)).collect()),
        )
    }

    /// An index whose `k`-th block is the `k`-th DNF.
    fn index_of(
        order: Arc<VarOrder>,
        blocks: &[Vec<Vec<u32>>],
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> MvIndex {
        let groups = blocks
            .iter()
            .enumerate()
            .map(|(k, clauses)| (Value::int(k as i64), lineage_of(clauses)))
            .collect();
        MvIndex::from_groups(Arc::clone(&order), order.len(), groups, prob_of).unwrap()
    }

    fn same(a: f64, b: f64, tolerance: f64) -> bool {
        (a.is_nan() && b.is_nan()) || (a - b).abs() <= tolerance * a.abs().max(1.0)
    }

    /// The kernel's answer rebuilt in a [`RefManager`] over `order`: the
    /// query's diagram conjoined with the `touched` blocks' `¬W_k`, its
    /// probability divided by each block's. Returns it with the size of
    /// the query's diagram.
    fn reference_answer(
        order: Arc<VarOrder>,
        blocks: &[Vec<Vec<u32>>],
        touched: &[usize],
        lin_q: &Lineage,
        prob_of: impl Fn(TupleId) -> f64,
    ) -> (f64, usize) {
        let mut reference = RefManager::new(order);
        let dnf = |reference: &mut RefManager, lineage: &Lineage| {
            let mut acc = RefManager::constant(false);
            for clause in lineage.clauses() {
                let clause = reference.clause(clause).unwrap();
                acc = reference.apply_or(acc, clause);
            }
            acc
        };
        let query = dnf(&mut reference, lin_q);
        let (mut conjunction, mut divisor) = (query, 1.0);
        for &k in touched {
            let w_k = dnf(&mut reference, &lineage_of(&blocks[k]));
            let not_w_k = reference.negate(w_k);
            divisor *= reference.probability(not_w_k, &prob_of);
            conjunction = reference.apply_and(conjunction, not_w_k);
        }
        let p = reference.probability(conjunction, &prob_of) / divisor;
        (p, reference.size(query))
    }

    /// Variables per block, blocks, and variables no block mentions.
    const PER_BLOCK: u32 = 3;
    const BLOCKS: u32 = 3;
    const VARS: u32 = PER_BLOCK * BLOCKS + 2;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel against brute force — `P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W)`
        /// over the touched blocks — and against the same conjunction built
        /// in the reference manager, diagram size included: no block
        /// (W-free), one, several in a chain, several on interleaved levels,
        /// and a NaN weight.
        #[test]
        fn kernel_matches_brute_force_and_the_reference_diagram(
            blocks in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0..PER_BLOCK, 1..=3), 1..=3),
                0..=BLOCKS as usize,
            ),
            query in proptest::collection::vec(proptest::collection::vec(0..VARS, 1..=3), 1..=5),
            probs in proptest::collection::vec(
                prop_oneof![3 => 0.0f64..1.0, 1 => -2.0f64..0.0],
                VARS as usize,
            ),
            shuffle in proptest::collection::vec(0u32..u32::MAX, VARS as usize),
            mode in (0u32..4, 0..VARS),
        ) {
            let (interleave, nan) = (mode.0 >= 2, (mode.0 == 1).then_some(mode.1));
            let prob_of = |t: TupleId| if nan == Some(t.0) { f64::NAN } else { probs[t.index()] };
            let blocks: Vec<Vec<Vec<u32>>> = blocks
                .iter()
                .enumerate()
                .map(|(k, dnf)| {
                    let global = |v: &u32| k as u32 * PER_BLOCK + v;
                    dnf.iter().map(|c| c.iter().map(global).collect()).collect()
                })
                .collect();
            let mut by_level: Vec<u32> = (0..VARS).collect();
            if interleave {
                by_level.sort_by_key(|&t| shuffle[t as usize]);
            }
            let order = Arc::new(VarOrder::from_tuples(by_level.into_iter().map(TupleId)));
            let index = index_of(order, &blocks, prob_of);
            let lin_q = lineage_of(&query);

            let touched: Vec<usize> = (0..blocks.len())
                .filter(|&k| lin_q.variables().iter().any(|&t| index.block_of(t) == Some(k)))
                .collect();
            if touched.iter().any(|&k| index.block_prob_not_w(k).abs() < 1e-3) {
                return Ok(()); // an (almost) inconsistent block: no conditional
            }
            let lin_w = lineage_of(&touched.iter().flat_map(|&k| blocks[k].clone()).collect::<Vec<_>>());
            let p_w = brute_force_probability_with(&lin_w, &prob_of);
            let expected =
                (brute_force_probability_with(&lin_q.or(&lin_w), &prob_of) - p_w) / (1.0 - p_w);

            let mut scratch = QueryScratch::new();
            let p = scratch.lineage_probability(&index, &lin_q, prob_of).unwrap();
            if !expected.is_nan() {
                prop_assert!(same(p, expected, 1e-7), "{p} vs {expected}");
            }
            // The same conjunction in the reference manager. Under a NaN
            // weight the walk may read it at a pair the reduced conjunction
            // no longer tests, so only two numbers are compared there.
            let (oracle, size) = reference_answer(index.order(), &blocks, &touched, &lin_q, prob_of);
            if nan.is_none() || !(p.is_nan() || oracle.is_nan()) {
                prop_assert!(same(p, oracle, 1e-9), "{} vs {}", p, oracle);
            }
            prop_assert_eq!(scratch.diagram_size(), size);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The answer depends on the clause set alone: the clauses of a
        /// lineage given in a shuffled order, some of them twice, or
        /// shuffled into a flat buffer, give the lineage's answer to the
        /// bit — on chained and on interleaved blocks. The flat online path
        /// relies on it: its clauses arrive in match order, not canonical.
        #[test]
        fn clause_order_and_repeats_do_not_change_the_answer(
            blocks in proptest::collection::vec(
                proptest::collection::vec(proptest::collection::vec(0..PER_BLOCK, 1..=3), 1..=3),
                0..=BLOCKS as usize,
            ),
            query in proptest::collection::vec(proptest::collection::vec(0..VARS, 1..=3), 1..=6),
            probs in proptest::collection::vec(
                prop_oneof![3 => 0.0f64..1.0, 1 => -2.0f64..0.0],
                VARS as usize,
            ),
            keys in proptest::collection::vec(0u32..u32::MAX, 2 * VARS as usize),
            interleave in 0u32..2,
        ) {
            let prob_of = |t: TupleId| probs[t.index()];
            let blocks: Vec<Vec<Vec<u32>>> = blocks
                .iter()
                .enumerate()
                .map(|(k, dnf)| {
                    let global = |v: &u32| k as u32 * PER_BLOCK + v;
                    dnf.iter().map(|c| c.iter().map(global).collect()).collect()
                })
                .collect();
            let mut by_level: Vec<u32> = (0..VARS).collect();
            if interleave == 1 {
                by_level.sort_by_key(|&t| keys[VARS as usize + t as usize]);
            }
            let order = Arc::new(VarOrder::from_tuples(by_level.into_iter().map(TupleId)));
            let index = index_of(order, &blocks, prob_of);
            let lin_q = lineage_of(&query);
            let expected = QueryScratch::new().lineage_probability(&index, &lin_q, prob_of);

            // Every clause once in a shuffled order, and every other one
            // again at the end.
            let mut shuffled: Vec<(u32, &[TupleId])> = lin_q
                .clauses()
                .iter()
                .enumerate()
                .map(|(i, c)| (keys[i], c.as_slice()))
                .collect();
            shuffled.sort_unstable();
            let mut shuffled: Vec<&[TupleId]> = shuffled.into_iter().map(|(_, c)| c).collect();
            let mut flat = mv_query::ClauseBuffer::new();
            for clause in &shuffled {
                flat.push(clause);
            }
            let repeats: Vec<&[TupleId]> = shuffled.iter().step_by(2).copied().collect();
            shuffled.extend(repeats);
            let ids: Vec<TupleId> = shuffled.iter().flat_map(|c| c.iter().copied()).collect();

            // A fresh kernel, then one that has already run this lineage.
            let mut scratch = QueryScratch::new();
            for _ in 0..2 {
                let p = scratch.conditional_probability(&index, shuffled.iter().copied(), &ids, prob_of);
                let q = scratch.buffer_probability(&index, flat.as_slice(), prob_of);
                match (&expected, p, q) {
                    (Ok(e), Ok(p), Ok(q)) => {
                        prop_assert_eq!(e.to_bits(), p.to_bits(), "{} vs {}", e, p);
                        prop_assert_eq!(e.to_bits(), q.to_bits(), "{} vs {}", e, q);
                    }
                    (e, p, q) => prop_assert!(e.is_err() && p.is_err() && q.is_err()),
                }
            }
        }
    }

    /// `X_k Y_k`, `W_k = X_k Z_k`, `P0(¬W_k) = ±1000` for `k < blocks`.
    fn huge_blocks(blocks: u32) -> (MvIndex, Lineage, impl Fn(TupleId) -> f64 + Copy) {
        let prob_of = |t: TupleId| match (t.0 % 3, t.0 / 3 % 2) {
            (0, _) => 0.5,     // X
            (1, _) => 1e-4,    // Y
            (_, 0) => -1998.0, // Z: 1 − x·z = 1000
            (_, _) => 2002.0,  // Z: 1 − x·z = −1000
        };
        let order = Arc::new(VarOrder::from_tuples((0..3 * blocks).map(TupleId)));
        let w: Vec<_> = (0..blocks).map(|k| vec![vec![3 * k, 3 * k + 2]]).collect();
        let q: Vec<_> = (0..blocks).map(|k| vec![3 * k, 3 * k + 1]).collect();
        (index_of(order, &w, prob_of), lineage_of(&q), prob_of)
    }

    #[test]
    fn two_thousand_blocks_of_magnitude_1e3_answer_finite() {
        let blocks = 2_000;
        let (index, lin_q, prob_of) = huge_blocks(blocks);
        assert_eq!(index.num_blocks(), blocks as usize);
        assert!(
            (0..index.num_blocks()).all(|k| (index.block_prob_not_w(k).abs() - 1e3).abs() < 1e-9)
        );
        // ∏ₖ P0(¬W_k) is past f64: the quotient of Theorem 1 cannot be
        // formed from its two sides.
        assert!(!index.prob_not_w().is_finite());
        // Conditioned on ¬W the blocks stay independent:
        // P(Q | ¬W) = 1 − ∏ₖ (1 − P0(X_k Y_k ¬Z_k) / P0(¬W_k)).
        let none: f64 = (0..blocks)
            .map(|k| {
                let [x, y, z] = [0, 1, 2].map(|j| prob_of(TupleId(3 * k + j)));
                1.0 - x * y * (1.0 - z) / (1.0 - x * z)
            })
            .product();
        let p = QueryScratch::new()
            .lineage_probability(&index, &lin_q, prob_of)
            .unwrap();
        assert!(p.is_finite() && (0.1..0.3).contains(&p), "{p}");
        assert!((p - (1.0 - none)).abs() < 1e-9, "{p} vs {}", 1.0 - none);
    }

    #[test]
    fn a_reused_kernel_answers_like_a_fresh_one() {
        let (index, _, prob_of) = huge_blocks(40);
        let lineages: Vec<Lineage> = (0..200u32)
            .map(|i| {
                // Broad, then point, then broad again: the tables grow,
                // decay and grow.
                let width = if i % 50 == 0 { 40 } else { 1 + i % 3 };
                let mut clauses: Vec<_> = (0..width)
                    .map(|j| {
                        let k = (i + 7 * j) % 40;
                        vec![3 * k, 3 * k + 1 + (i + j) % 2]
                    })
                    .collect();
                // `{x z} ∨ {y}` of one block: levels that interleave, so
                // that the fold runs an `apply`.
                let k = i % 40;
                clauses.extend([vec![3 * k, 3 * k + 2], vec![3 * k + 1]]);
                lineage_of(&clauses)
            })
            .collect();
        let mut reused = QueryScratch::new();
        for lin in &lineages {
            let p = reused.lineage_probability(&index, lin, prob_of).unwrap();
            let fresh = QueryScratch::new()
                .lineage_probability(&index, lin, prob_of)
                .unwrap();
            assert_eq!(p.to_bits(), fresh.to_bits());
        }
        let stats = reused.stats();
        assert_eq!(stats.nodes_allocated, stats.unique_misses);
        assert!(stats.apply_cache_misses > 0);
        assert!(stats.peak_nodes > stats.live_nodes);
    }

    /// `⋁ᵢ xᵢ yᵢ` with every `x` ordered before every `y`: `2ⁿ` nodes.
    fn pairing(n: u32) -> (MvIndex, Lineage) {
        let order = Arc::new(VarOrder::from_tuples((0..2 * n).map(TupleId)));
        let lin = lineage_of(&(0..n).map(|i| vec![i, n + i]).collect::<Vec<_>>());
        (index_of(order, &[], |_| 0.5), lin)
    }

    #[test]
    fn budget_and_node_cap_trips_are_the_managers_typed_errors() {
        let run = |scratch: &mut QueryScratch, index: &MvIndex, lin: &Lineage| {
            scratch.lineage_probability(index, lin, |_| 0.5)
        };
        let (index, lin) = pairing(10);
        let mut scratch = QueryScratch::new();
        let unbounded = run(&mut scratch, &index, &lin).unwrap();

        // An expired deadline trips before the first clause.
        scratch.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        assert!(matches!(
            run(&mut scratch, &index, &lin),
            Err(ObddError::Budget(BudgetError::DeadlineExceeded { .. }))
        ));
        // The node cap refuses mid-apply.
        scratch.set_budget(None);
        scratch.set_node_cap(200);
        match run(&mut scratch, &index, &lin) {
            Err(ObddError::NodeBudgetExceeded { allocated, budget }) => {
                assert_eq!(budget, 200);
                assert!(allocated > 200 && allocated < 400, "{allocated}");
            }
            other => panic!("expected a node-cap refusal, got {other:?}"),
        }
        // A tripped kernel is as good as new.
        scratch.set_node_cap(usize::MAX);
        assert_eq!(
            run(&mut scratch, &index, &lin).unwrap().to_bits(),
            unbounded.to_bits()
        );

        // A deadline that passes while one apply is running is seen by the
        // poll inside it, long before the 2²² nodes are built.
        let (index, lin) = pairing(22);
        let started = Instant::now();
        scratch.set_budget(Some(EvalBudget::with_deadline(Duration::from_millis(20))));
        assert!(matches!(
            run(&mut scratch, &index, &lin),
            Err(ObddError::Budget(BudgetError::DeadlineExceeded { .. }))
        ));
        assert!(started.elapsed() < Duration::from_secs(5));
    }

    #[test]
    fn unknown_variables_are_reported() {
        let (index, _) = pairing(2);
        let lin = lineage_of(&[vec![0, 9]]);
        assert!(matches!(
            QueryScratch::new().lineage_probability(&index, &lin, |_| 0.5),
            Err(ObddError::UnknownVariable(_))
        ));
    }
}
