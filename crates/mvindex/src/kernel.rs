//! The query-side scratch kernel: the online step of Section 4.3 without a
//! shared arena.
//!
//! The paper makes the online step cheap because the query OBDD is small
//! and `probUnder` lets the intersection visit only the slice of the index
//! the query spans. A [`QueryScratch`] keeps everything *around* that
//! traversal at the same scale. It is a set of flat, reusable buffers owned
//! by one evaluation context (one per worker, never shared, never a
//! thread-local — it holds nothing of the snapshot it is used with), and
//! one lineage goes through it in three steps:
//!
//! 1. **fold** — the clauses' levels land in one flat buffer (an array read
//!    per literal, [`VarOrder::level_of`]) and are OR-folded deepest top
//!    level first, exactly like [`mv_obdd::ObddManager::dnf`], into a plain
//!    `Vec` of nodes with a private unique table and apply memo that are
//!    emptied in O(1) per lineage. Canonicity makes the diagram the one the
//!    manager would build; nothing is hash-consed against earlier queries,
//!    so nothing outlives the call and no lock is taken;
//! 2. **annotate** — children are always allocated before their parents, so
//!    one ascending sweep over the vector computes every node's variable
//!    probability and `probUnder` (Shannon expansion, valid for the
//!    negative probabilities of Section 3.3);
//! 3. **intersect** — the touched blocks of the index are walked *as a
//!    chain* in level order (`Walk::intersect`, over their compiled
//!    [`CcLayout`]s or arena-backed `ArenaBlock`s, whichever
//!    [`IntersectAlgorithm`] asks for): the index is read, never written.
//!    Blocks whose level ranges interleave (possible under a `π` that does
//!    not put the separator first) cannot be chained; their layouts are
//!    copied into the scratch and conjoined with the query diagram there.
//!
//! The kernel keeps every guard of the manager path: unknown variables are
//! reported, the cooperative [`EvalBudget`] is polled between clause folds
//! and every 1024 apply frames and charged one unit per fresh node, and a
//! node cap refuses with [`ObddError::NodeBudgetExceeded`]. Its work is
//! counted in a [`ManagerStats`] of its own ([`QueryScratch::stats`]).

use mv_obdd::{ManagerStats, ObddError, VarOrder};
use mv_pdb::TupleId;
use mv_query::lineage::Lineage;
use mv_query::EvalBudget;

use crate::index::{IntersectAlgorithm, MvIndex};
use crate::intersect::{
    prob_at, ArenaBlock, CcLayout, IndexBlock, QvNode, StampedMap, Walk, QV_FALSE, QV_TRUE,
};

/// Memo tags of the two synthesis operators.
const OR: u32 = 0;
const AND: u32 = 1;

/// Budget poll period inside `apply`: every 1024 frames, like the manager.
const POLL_MASK: u32 = 0x3ff;

/// "Not copied yet" in the layout → scratch position map.
const UNSET: u32 = u32::MAX - 2;

/// Positions are `u32`s below the markers, so this is the cap when none is
/// set.
const MAX_NODES: usize = UNSET as usize;

#[derive(Debug, Clone, Copy)]
enum ApplyFrame {
    Expand(u32, u32),
    Combine(u32, u32, u32),
}

/// Sink-level shortcuts of `apply`; `None` means both operands need
/// expansion.
fn apply_terminal(op: u32, a: u32, b: u32) -> Option<u32> {
    if a == b {
        return Some(a);
    }
    let (identity, absorbing) = if op == OR {
        (QV_FALSE, QV_TRUE)
    } else {
        (QV_TRUE, QV_FALSE)
    };
    if a == absorbing || b == absorbing {
        Some(absorbing)
    } else if a == identity {
        Some(b)
    } else if b == identity {
        Some(a)
    } else {
        None
    }
}

/// The reusable per-context state of the exact rung; see the module docs.
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// The levels of every clause of the lineage being folded, flat.
    levels: Vec<u32>,
    /// `(start, end)` of each clause in `levels`, in fold order.
    spans: Vec<(u32, u32)>,
    /// The arena of the current lineage: positions are node ids, the sinks
    /// are the [`QV_FALSE`] / [`QV_TRUE`] markers.
    nodes: Vec<QvNode>,
    /// `[level, lo, hi] → position`.
    unique: StampedMap<u32>,
    /// `[min(a, b), max(a, b), op] → a op b`.
    computed: StampedMap<u32>,
    frames: Vec<ApplyFrame>,
    results: Vec<u32>,
    /// Blocks the lineage touches, in level order.
    touched: Vec<u32>,
    /// Layout position → scratch position while a block is being copied in.
    imported: Vec<u32>,
    /// Root of the most recent lineage's diagram.
    root: u32,
    walk: Walk,
    budget: Option<EvalBudget>,
    node_cap: usize,
    tick: u32,
    stats: ManagerStats,
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
            levels: Vec::new(),
            spans: Vec::new(),
            nodes: Vec::new(),
            unique: StampedMap::new(),
            computed: StampedMap::new(),
            frames: Vec::new(),
            results: Vec::new(),
            touched: Vec::new(),
            imported: Vec::new(),
            root: QV_FALSE,
            walk: Walk::new(),
            budget: None,
            node_cap: MAX_NODES,
            tick: 0,
            stats: ManagerStats {
                peak_nodes: 2,
                ..ManagerStats::default()
            },
        }
    }

    /// Installs (or clears) the cooperative budget the folds poll and
    /// charge.
    pub fn set_budget(&mut self, budget: Option<EvalBudget>) {
        self.budget = budget;
    }

    /// Refuses, with [`ObddError::NodeBudgetExceeded`], any lineage whose
    /// fold allocates more than `cap` nodes (`usize::MAX` lifts the cap
    /// back to the position space).
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap.min(MAX_NODES);
    }

    /// Work counters since the kernel was made, in the manager's
    /// vocabulary: nodes allocated, unique-table and apply-memo hits and
    /// misses, the largest diagram arena (sinks included) and, as a gauge,
    /// the arena of the most recent lineage.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            live_nodes: self.nodes.len() as u64 + 2,
            ..self.stats
        }
    }

    /// Size of the most recent lineage's diagram in the paper's sense (the
    /// internal nodes reachable from its root; the arena also holds what
    /// the fold discarded) — for holding the kernel against
    /// [`MvIndex::query_obdd`].
    #[doc(hidden)]
    pub fn diagram_size(&mut self) -> usize {
        self.imported.clear();
        self.imported.resize(self.nodes.len(), UNSET);
        self.results.clear();
        self.results.push(self.root);
        let mut size = 0;
        while let Some(v) = self.results.pop() {
            if v >= QV_TRUE || self.imported[v as usize] != UNSET {
                continue;
            }
            self.imported[v as usize] = 0;
            size += 1;
            let node = self.nodes[v as usize];
            self.results.push(node.lo);
            self.results.push(node.hi);
        }
        size
    }

    #[inline]
    fn level(&self, v: u32) -> u32 {
        if v >= QV_TRUE {
            u32::MAX
        } else {
            self.nodes[v as usize].level
        }
    }

    /// Creates (or reuses) a node, applying the standard reduction rules.
    fn mk(&mut self, level: u32, lo: u32, hi: u32) -> u32 {
        if lo == hi {
            return lo;
        }
        if let Some(id) = self.unique.get([level, lo, hi]) {
            self.stats.unique_hits += 1;
            return id;
        }
        self.stats.unique_misses += 1;
        self.stats.nodes_allocated += 1;
        let id = self.nodes.len() as u32;
        self.nodes.push(QvNode {
            level,
            lo,
            hi,
            p_var: 0.0,
            prob: 0.0,
        });
        self.stats.peak_nodes = self.stats.peak_nodes.max(u64::from(id) + 3);
        self.unique.insert([level, lo, hi], id);
        id
    }

    fn refusal(&self) -> ObddError {
        ObddError::NodeBudgetExceeded {
            allocated: self.nodes.len(),
            budget: self.node_cap,
        }
    }

    /// Classical synthesis on an explicit stack, memoised per lineage
    /// (operands normalised for commutativity). The node cap is compared on
    /// every frame, the budget polled every [`POLL_MASK`]` + 1` frames.
    fn apply(&mut self, op: u32, a: u32, b: u32) -> Result<u32, ObddError> {
        if let Some(r) = apply_terminal(op, a, b) {
            return Ok(r);
        }
        let key = |u: u32, v: u32| [u.min(v), u.max(v), op];
        self.frames.clear();
        self.results.clear();
        self.frames.push(ApplyFrame::Expand(a, b));
        while let Some(frame) = self.frames.pop() {
            if self.nodes.len() > self.node_cap {
                return Err(self.refusal());
            }
            self.tick = self.tick.wrapping_add(1);
            if self.tick & POLL_MASK == 0 {
                if let Some(budget) = &self.budget {
                    budget.check()?;
                }
            }
            match frame {
                ApplyFrame::Expand(u, v) => {
                    if let Some(r) = apply_terminal(op, u, v) {
                        self.results.push(r);
                        continue;
                    }
                    if let Some(r) = self.computed.get(key(u, v)) {
                        self.stats.apply_cache_hits += 1;
                        self.results.push(r);
                        continue;
                    }
                    let (lu, lv) = (self.level(u), self.level(v));
                    let m = lu.min(lv);
                    let (u0, u1) = if lu == m {
                        (self.nodes[u as usize].lo, self.nodes[u as usize].hi)
                    } else {
                        (u, u)
                    };
                    let (v0, v1) = if lv == m {
                        (self.nodes[v as usize].lo, self.nodes[v as usize].hi)
                    } else {
                        (v, v)
                    };
                    self.frames.push(ApplyFrame::Combine(u, v, m));
                    self.frames.push(ApplyFrame::Expand(u1, v1));
                    self.frames.push(ApplyFrame::Expand(u0, v0));
                }
                ApplyFrame::Combine(u, v, m) => {
                    let r1 = self.results.pop().expect("hi result available");
                    let r0 = self.results.pop().expect("lo result available");
                    let r = self.mk(m, r0, r1);
                    self.stats.apply_cache_misses += 1;
                    self.computed.insert(key(u, v), r);
                    self.results.push(r);
                }
            }
        }
        Ok(self.results.pop().expect("apply produces a root"))
    }

    /// Step 1: folds the lineage into a fresh arena and returns its root.
    /// The clauses are taken deepest top level first (ties by the following
    /// levels) whatever order they arrive in, so each `apply` rebuilds only
    /// the part of the accumulator above the incoming clause's last level.
    fn fold(&mut self, order: &VarOrder, lineage: &Lineage) -> Result<u32, ObddError> {
        if let Some(budget) = &self.budget {
            budget.check()?;
        }
        self.nodes.clear();
        self.unique.reset();
        self.computed.reset();
        self.levels.clear();
        self.spans.clear();
        self.tick = 0;
        for clause in lineage.clauses() {
            let start = self.levels.len();
            for &t in clause {
                let level = order
                    .level_of(t)
                    .ok_or_else(|| ObddError::UnknownVariable(t.to_string()))?;
                self.levels.push(level);
            }
            // A lineage clause holds distinct tuples, hence distinct levels.
            self.levels[start..].sort_unstable();
            self.spans.push((start as u32, self.levels.len() as u32));
        }
        let levels = &self.levels;
        let of = |span: &(u32, u32)| &levels[span.0 as usize..span.1 as usize];
        self.spans.sort_unstable_by(|a, b| of(b).cmp(of(a)));

        let mut acc = QV_FALSE;
        let mut charged = 0;
        for i in 0..self.spans.len() {
            let (start, end) = self.spans[i];
            let mut clause = QV_TRUE;
            for j in (start..end).rev() {
                clause = self.mk(self.levels[j as usize], QV_FALSE, clause);
            }
            acc = self.apply(OR, acc, clause)?;
            if self.nodes.len() > self.node_cap {
                return Err(self.refusal());
            }
            if let Some(budget) = &self.budget {
                // Charge the fresh nodes of this fold as work units and
                // poll the deadline between clause folds.
                let allocated = self.nodes.len() as u64;
                budget.charge(allocated - charged)?;
                charged = allocated;
            }
        }
        self.root = acc;
        Ok(acc)
    }

    /// Step 2: one ascending sweep (children sit below their parents).
    fn annotate(&mut self, order: &VarOrder, prob_of: impl Fn(TupleId) -> f64) {
        for id in 0..self.nodes.len() {
            let QvNode { level, lo, hi, .. } = self.nodes[id];
            let p_var = prob_of(order.tuple_at(level));
            let prob = (1.0 - p_var) * prob_at(&self.nodes, lo) + p_var * prob_at(&self.nodes, hi);
            let node = &mut self.nodes[id];
            node.p_var = p_var;
            node.prob = prob;
        }
    }

    /// Copies a block's layout into the arena, bottom-up, and returns the
    /// position of its root.
    fn import(&mut self, layout: &CcLayout) -> u32 {
        let mapped = |imported: &[u32], u: u32| match u {
            QV_TRUE | QV_FALSE => Some(u),
            u => Some(imported[u as usize]).filter(|&id| id != UNSET),
        };
        self.imported.clear();
        self.imported.resize(layout.len(), UNSET);
        self.results.clear();
        self.results.push(layout.root());
        while let Some(&u) = self.results.last() {
            if mapped(&self.imported, u).is_some() {
                self.results.pop();
                continue;
            }
            let (level, lo, hi) = layout.node(u);
            match (mapped(&self.imported, lo), mapped(&self.imported, hi)) {
                (Some(lo), Some(hi)) => {
                    self.imported[u as usize] = self.mk(level, lo, hi);
                    self.results.pop();
                }
                (mapped_lo, mapped_hi) => {
                    if mapped_hi.is_none() {
                        self.results.push(hi);
                    }
                    if mapped_lo.is_none() {
                        self.results.push(lo);
                    }
                }
            }
        }
        mapped(&self.imported, layout.root()).expect("root copied")
    }

    /// The exact rung: `P0(lineage ∧ ¬W) / P0(¬W)` over the blocks the
    /// lineage touches (the others cancel).
    pub(crate) fn conditional_probability(
        &mut self,
        index: &MvIndex,
        lineage: &Lineage,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
        algo: IntersectAlgorithm,
    ) -> Result<f64, ObddError> {
        let order = index.manager().order();
        let root = self.fold(order, lineage)?;

        let blocks = &index.blocks;
        let first_level = |b: u32| blocks[b as usize].levels.map_or(u32::MAX, |(lo, _)| lo);
        self.touched.clear();
        self.touched.extend(
            lineage
                .clauses()
                .iter()
                .flatten()
                .filter_map(|&t| index.block_of(t).map(|b| b as u32)),
        );
        self.touched.sort_unstable();
        self.touched.dedup();
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
            // Interleaved level ranges: conjoin in the scratch, deepest
            // block first, and read the probability off the sweep.
            let mut acc = root;
            for i in (0..self.touched.len()).rev() {
                let block = self.import(&blocks[self.touched[i] as usize].layout);
                acc = self.apply(AND, block, acc)?;
            }
            self.annotate(order, prob_of);
            let p = self
                .touched
                .iter()
                .fold(prob_at(&self.nodes, acc), |p, &b| {
                    p / blocks[b as usize].prob_not_w
                });
            return Ok(p);
        }

        self.annotate(order, prob_of);
        let touched = &self.touched;
        Ok(match algo {
            IntersectAlgorithm::CcMvIntersect => {
                let block = |k: usize| {
                    let block = &blocks[touched[k] as usize];
                    (&block.layout, block.prob_not_w)
                };
                self.walk.intersect(touched.len(), block, &self.nodes, root)
            }
            IntersectAlgorithm::MvIntersect => {
                let arena = &index.manager().nodes();
                let block = |k: usize| {
                    let block = &blocks[touched[k] as usize];
                    let side = ArenaBlock {
                        index: &block.negated,
                        arena,
                        prob_of,
                    };
                    (side, block.prob_not_w)
                };
                self.walk.intersect(touched.len(), block, &self.nodes, root)
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use mv_pdb::Value;
    use mv_query::brute::brute_force_probability_with;
    use mv_query::BudgetError;
    use proptest::prelude::*;

    const ALGORITHMS: [IntersectAlgorithm; 2] = [
        IntersectAlgorithm::CcMvIntersect,
        IntersectAlgorithm::MvIntersect,
    ];

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

    /// Variables per block, blocks, and variables no block mentions.
    const PER_BLOCK: u32 = 3;
    const BLOCKS: u32 = 3;
    const VARS: u32 = PER_BLOCK * BLOCKS + 2;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The kernel against brute force — `P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W)`
        /// over the touched blocks — and its diagram against the manager's,
        /// for both index-side forms: no block (W-free), one, several in a
        /// chain, several on interleaved levels, and a NaN weight.
        #[test]
        fn kernel_matches_brute_force_and_the_manager_diagram(
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
            let mut answers = Vec::new();
            for algo in ALGORITHMS {
                let p = scratch
                    .conditional_probability(&index, &lin_q, prob_of, algo)
                    .unwrap();
                if !expected.is_nan() {
                    prop_assert!(same(p, expected, 1e-7), "{algo:?}: {p} vs {expected}");
                }
                prop_assert_eq!(scratch.diagram_size(), index.query_obdd(&lin_q).unwrap().size());
                answers.push(p);
            }
            // One traversal, two forms of the same block: the same arithmetic.
            prop_assert!(same(answers[0], answers[1], 1e-12), "{answers:?}");
            prop_assert_eq!(index.manager().num_nodes(), index_of(index.order(), &blocks, prob_of).manager().num_nodes());
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
        let mut scratch = QueryScratch::new();
        for algo in ALGORITHMS {
            let p = scratch
                .conditional_probability(&index, &lin_q, prob_of, algo)
                .unwrap();
            assert!(p.is_finite() && (0.1..0.3).contains(&p), "{algo:?}: {p}");
            assert!(
                (p - (1.0 - none)).abs() < 1e-9,
                "{algo:?}: {p} vs {}",
                1.0 - none
            );
        }
    }

    #[test]
    fn a_reused_kernel_answers_like_a_fresh_one() {
        let (index, _, prob_of) = huge_blocks(40);
        let lineages: Vec<Lineage> = (0..200u32)
            .map(|i| {
                // Broad, then point, then broad again: the tables grow,
                // decay and grow.
                let width = if i % 50 == 0 { 40 } else { 1 + i % 3 };
                lineage_of(
                    &(0..width)
                        .map(|j| {
                            let k = (i + 7 * j) % 40;
                            vec![3 * k, 3 * k + 1 + (i + j) % 2]
                        })
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        let mut reused = QueryScratch::new();
        for lin in &lineages {
            let algo = IntersectAlgorithm::CcMvIntersect;
            let p = reused
                .conditional_probability(&index, lin, prob_of, algo)
                .unwrap();
            let fresh = QueryScratch::new()
                .conditional_probability(&index, lin, prob_of, algo)
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
            scratch.conditional_probability(index, lin, |_| 0.5, IntersectAlgorithm::CcMvIntersect)
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
        // Fresh nodes are charged as work units between clause folds.
        let budget = EvalBudget::unlimited().with_step_limit(100);
        scratch.set_budget(Some(budget.clone()));
        assert!(matches!(
            run(&mut scratch, &index, &lin),
            Err(ObddError::Budget(BudgetError::StepBudgetExceeded {
                limit: 100,
                ..
            }))
        ));
        assert!(budget.steps_used() > 100);
        // A cancellation is seen between folds too.
        let budget = EvalBudget::unlimited();
        budget.cancel();
        scratch.set_budget(Some(budget));
        assert!(matches!(
            run(&mut scratch, &index, &lin),
            Err(ObddError::Budget(BudgetError::Cancelled))
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
            QueryScratch::new().conditional_probability(&index, &lin, |_| 0.5, ALGORITHMS[0]),
            Err(ObddError::UnknownVariable(_))
        ));
    }
}
