//! The query-side scratch kernel: the online step of Section 4.3 without a
//! shared arena.
//!
//! The paper makes the online step cheap because the query OBDD is small
//! and `probUnder` lets the intersection visit only the slice of the index
//! the query spans. A [`QueryScratch`] keeps everything *around* that
//! traversal at the same scale. It is a set of flat, reusable buffers that
//! one evaluation context at a time owns: the context checks a kernel out
//! of its index's pool of idle ones on first use and hands it back when it
//! drops ([`MvIndex::take_kernel`] / [`MvIndex::recycle_kernel`]), so a
//! context made per call still runs on warm buffers. A kernel is never
//! shared and never a thread-local, and it holds nothing of the snapshot it
//! is used with — every entry point resets its tables — so one returned
//! after an error or a panic is as good as new. One lineage — the clause
//! slices of a [`Lineage`] or of the flat clauses the online path carries
//! (a [`ClauseSlice`] of a buffer or of one answer's range), in whatever
//! order they come — goes through it in three steps:
//!
//! 1. **fold** — the clauses' levels land in one flat buffer (an array read
//!    per literal, [`VarOrder::level_of`]), the clauses are sorted by their
//!    level sequences (a key of the first two levels, the rest breaking
//!    ties) and OR-folded deepest top level first, exactly like
//!    [`mv_obdd::ObddManager::dnf`], into a plain `Vec` of nodes with a
//!    private unique table and apply memo that are emptied in O(1) per
//!    lineage. Canonicity makes the diagram the one the manager would
//!    build, and the same for any clause order; nothing is hash-consed
//!    against earlier queries, so nothing outlives the call and no lock is
//!    taken;
//! 2. **annotate** — children are always allocated before their parents, so
//!    one ascending sweep over the vector computes every node's variable
//!    probability and `probUnder` (Shannon expansion, valid for the
//!    negative probabilities of Section 3.3);
//! 3. **intersect** — the touched blocks (read off the clauses' ids through
//!    the index's dense tuple → block array, each marked once in a bitmap
//!    over the blocks) are walked *as a chain* in level order
//!    (`Walk::intersect`, over their rows of the index's flat block
//!    table): the index is read, never written. Blocks
//!    whose level ranges interleave (possible under a `π` that does not put
//!    the separator first) cannot be chained; their rows are copied into
//!    the scratch and conjoined with the query diagram there.
//!
//! The index is compiled by the same two first steps: each keyed group of
//! `W`'s clauses is folded like a lineage, its reachable nodes are appended
//! to the block table with the sinks swapped (the diagram of `¬W_k`, in DFS
//! post-order, so children still precede their parents), and the table's
//! slice is annotated by the same sweep — which a weight-only update
//! repeats over the whole table.
//!
//! The kernel keeps every guard of the manager path: unknown variables are
//! reported, the cooperative [`EvalBudget`] is polled between clause folds
//! and every 1024 apply frames and charged one unit per fresh node, and a
//! node cap refuses with [`ObddError::NodeBudgetExceeded`]. Its work is
//! counted in a [`ManagerStats`] of its own ([`QueryScratch::stats`]).

use mv_obdd::{ManagerStats, ObddError, VarOrder};
use mv_pdb::TupleId;
use mv_query::lineage::{ClauseSlice, Lineage};
use mv_query::EvalBudget;

use crate::index::MvIndex;
use crate::intersect::{
    prob_at, vec_bytes, BlockView, IndexBlock, QvNode, StampedMap, Walk, QV_FALSE, QV_TRUE,
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

/// Step 2 over any node slice whose children precede their parents (a
/// kernel's arena, a block of the index's table): one ascending sweep sets
/// every node's variable probability and `probUnder`. The arithmetic is
/// [`mv_obdd::ObddManager`]'s Shannon expansion, operation for operation.
pub(crate) fn annotate(nodes: &mut [QvNode], order: &VarOrder, prob_of: impl Fn(TupleId) -> f64) {
    for id in 0..nodes.len() {
        let QvNode { level, lo, hi, .. } = nodes[id];
        let p_var = prob_of(order.tuple_at(level));
        let prob = (1.0 - p_var) * prob_at(nodes, lo) + p_var * prob_at(nodes, hi);
        let node = &mut nodes[id];
        node.p_var = p_var;
        node.prob = prob;
    }
}

/// The counters of a kernel that has folded nothing: the two sinks.
fn fresh_stats() -> ManagerStats {
    ManagerStats {
        peak_nodes: 2,
        ..ManagerStats::default()
    }
}

/// The reusable per-context state of the exact rung; see the module docs.
#[derive(Debug, Clone)]
pub struct QueryScratch {
    /// The levels of every clause of the lineage being folded, flat.
    levels: Vec<u32>,
    /// `(sort key, start, end)` of each clause in `levels`, in fold order.
    spans: Vec<(u64, u32, u32)>,
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
    /// One bit per block of the index at hand, set while `touched` is
    /// being collected.
    marked: Vec<u64>,
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
            marked: Vec::new(),
            imported: Vec::new(),
            root: QV_FALSE,
            walk: Walk::new(),
            budget: None,
            node_cap: MAX_NODES,
            tick: 0,
            stats: fresh_stats(),
        }
    }

    /// Puts the kernel back in the state [`QueryScratch::new`] leaves — no
    /// budget, no node cap short of the position space, counters zeroed, no
    /// nodes — keeping every buffer's capacity. What the pool does to a
    /// kernel a context hands back, so the next context neither inherits
    /// its predecessor's limits nor reports its work.
    pub(crate) fn recycle(&mut self) {
        self.budget = None;
        self.node_cap = MAX_NODES;
        self.stats = fresh_stats();
        self.nodes.clear();
        self.root = QV_FALSE;
        self.tick = 0;
    }

    /// Heap bytes the kernel's buffers and tables hold, in use or not.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.levels)
            + vec_bytes(&self.spans)
            + vec_bytes(&self.nodes)
            + self.unique.heap_bytes()
            + self.computed.heap_bytes()
            + vec_bytes(&self.frames)
            + vec_bytes(&self.results)
            + vec_bytes(&self.touched)
            + vec_bytes(&self.marked)
            + vec_bytes(&self.imported)
            + self.walk.heap_bytes()
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

    /// Step 1: folds the clauses into a fresh arena and returns its root.
    /// The clauses are taken deepest top level first (ties by the following
    /// levels) whatever order they arrive in, so each `apply` rebuilds only
    /// the part of the accumulator above the incoming clause's last level —
    /// and the diagram is the same for any order, repeats included.
    fn fold<'c>(
        &mut self,
        order: &VarOrder,
        clauses: impl IntoIterator<Item = &'c [TupleId]>,
    ) -> Result<u32, ObddError> {
        if let Some(budget) = &self.budget {
            budget.check()?;
        }
        self.nodes.clear();
        self.unique.reset();
        self.computed.reset();
        self.levels.clear();
        self.spans.clear();
        self.tick = 0;
        for clause in clauses {
            let start = self.levels.len();
            for &t in clause {
                let level = order
                    .level_of(t)
                    .ok_or_else(|| ObddError::UnknownVariable(t.to_string()))?;
                self.levels.push(level);
            }
            // A lineage clause holds distinct tuples, hence distinct levels.
            let levels = &mut self.levels[start..];
            levels.sort_unstable();
            // The first two levels, each one up so that a missing second
            // level sorts first: the key orders spans as their level
            // sequences do, up to ties the sequences' tails break.
            let key = |i: usize| levels.get(i).map_or(0, |&l| u64::from(l) + 1);
            let key = key(0) << 32 | key(1);
            self.spans
                .push((key, start as u32, self.levels.len() as u32));
        }
        let levels = &self.levels;
        let of = |&(_, start, end): &(u64, u32, u32)| &levels[start as usize..end as usize];
        self.spans
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| of(b).cmp(of(a))));

        let mut acc = QV_FALSE;
        let mut charged = 0;
        for i in 0..self.spans.len() {
            let (_, start, end) = self.spans[i];
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

    /// Copies the internal nodes reachable from `root` children first — in
    /// DFS post-order, the 0-edge first — giving each the position `place`
    /// returns for its level and its children's new positions (`sink`
    /// renames the sink markers). `node` reads a node at one of the `len`
    /// source positions. Returns the root's new position.
    fn copy_post_order(
        &mut self,
        len: usize,
        root: u32,
        node: impl Fn(&Self, u32) -> (u32, u32, u32),
        sink: impl Fn(u32) -> u32,
        mut place: impl FnMut(&mut Self, u32, u32, u32) -> u32,
    ) -> u32 {
        let mapped = |imported: &[u32], u: u32| match u {
            QV_TRUE | QV_FALSE => Some(sink(u)),
            u => Some(imported[u as usize]).filter(|&at| at != UNSET),
        };
        self.imported.clear();
        self.imported.resize(len, UNSET);
        self.results.clear();
        self.results.push(root);
        while let Some(&u) = self.results.last() {
            if mapped(&self.imported, u).is_some() {
                self.results.pop();
                continue;
            }
            let (level, lo, hi) = node(self, u);
            match (mapped(&self.imported, lo), mapped(&self.imported, hi)) {
                (Some(lo), Some(hi)) => {
                    self.imported[u as usize] = place(self, level, lo, hi);
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
        mapped(&self.imported, root).expect("root copied")
    }

    /// The compile's step for one block: folds a keyed group of `W`'s
    /// clauses like a lineage, then appends the nodes reachable from its
    /// root to `out` with the sinks swapped — the diagram of `¬W_k` —
    /// children before parents, so one [`annotate`] sweep over the appended
    /// slice annotates it. Positions are relative to where the block starts
    /// in `out`; the nodes come unannotated. Returns the root's position (a
    /// sink marker when `¬W_k` is constant).
    pub(crate) fn fold_negated(
        &mut self,
        order: &VarOrder,
        group: &Lineage,
        out: &mut Vec<QvNode>,
    ) -> Result<u32, ObddError> {
        let root = self.fold(order, group.clauses().iter().map(Vec::as_slice))?;
        let start = out.len();
        let node = |kernel: &Self, v: u32| {
            let QvNode { level, lo, hi, .. } = kernel.nodes[v as usize];
            (level, lo, hi)
        };
        let negate = |v: u32| if v == QV_TRUE { QV_FALSE } else { QV_TRUE };
        let place = |_: &mut Self, level, lo, hi| {
            out.push(QvNode {
                level,
                lo,
                hi,
                p_var: 0.0,
                prob: 0.0,
            });
            (out.len() - 1 - start) as u32
        };
        Ok(self.copy_post_order(self.nodes.len(), root, node, negate, place))
    }

    /// Copies a block of the index into the arena and returns the position
    /// of its root.
    fn import(&mut self, block: BlockView<'_>) -> u32 {
        let node = |_: &Self, u: u32| block.node(u);
        let place = |kernel: &mut Self, level, lo, hi| kernel.mk(level, lo, hi);
        self.copy_post_order(block.nodes.len(), block.root(), node, |v| v, place)
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
            // Interleaved level ranges: conjoin in the scratch, deepest
            // block first, and read the probability off the sweep.
            let mut acc = root;
            for i in (0..self.touched.len()).rev() {
                let block = self.import(table.view(self.touched[i]));
                acc = self.apply(AND, block, acc)?;
            }
            annotate(&mut self.nodes, order, prob_of);
            let p = self
                .touched
                .iter()
                .fold(prob_at(&self.nodes, acc), |p, &b| {
                    p / blocks[b as usize].prob_not_w
                });
            return Ok(p);
        }

        annotate(&mut self.nodes, order, prob_of);
        let touched = &self.touched;
        let block = |k: usize| {
            let b = touched[k];
            (table.view(b), blocks[b as usize].prob_not_w)
        };
        Ok(self.walk.intersect(touched.len(), block, &self.nodes, root))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    use crate::augmented::AugmentedObdd;
    use crate::intersect::ArenaBlock;
    use mv_obdd::ObddManager;
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

    /// What the kernel's last call computed, with the index side rebuilt
    /// from `blocks` in a manager of the test's own: the kernel's walk over
    /// `ArenaBlock`s of those diagrams, or — on interleaved levels — the
    /// conjunction the kernel formed, built and annotated in the manager.
    fn manager_answer(
        scratch: &mut QueryScratch,
        order: Arc<VarOrder>,
        blocks: &[Vec<Vec<u32>>],
        lin_q: &Lineage,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> f64 {
        let manager = ObddManager::new(order);
        let negated: Vec<AugmentedObdd> = blocks
            .iter()
            .map(|dnf| {
                let w_k = manager.dnf(lineage_of(dnf).clauses()).unwrap();
                AugmentedObdd::new(w_k.negate(), prob_of)
            })
            .collect();
        let touched: Vec<usize> = scratch.touched.iter().map(|&b| b as usize).collect();
        let levels = |k: usize| negated[touched[k]].obdd().level_range();
        let chained = (1..touched.len()).all(|k| match (levels(k - 1), levels(k)) {
            (Some((_, last)), Some((first, _))) => last < first,
            _ => true,
        });
        if !chained {
            let query = manager.dnf(lin_q.clauses()).unwrap();
            let conjunction = touched
                .iter()
                .rev()
                .fold(query, |acc, &b| negated[b].obdd().apply_and(&acc).unwrap());
            return touched
                .iter()
                .fold(conjunction.probability(prob_of), |p, &b| {
                    p / negated[b].probability()
                });
        }
        let arena = manager.nodes();
        let block = |k: usize| {
            let index = &negated[touched[k]];
            let side = ArenaBlock {
                index,
                arena: &arena,
                prob_of,
            };
            (side, index.probability())
        };
        let (nodes, root) = (&scratch.nodes, scratch.root);
        scratch.walk.intersect(touched.len(), block, nodes, root)
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
            let p = scratch.lineage_probability(&index, &lin_q, prob_of).unwrap();
            if !expected.is_nan() {
                prop_assert!(same(p, expected, 1e-7), "{p} vs {expected}");
            }
            // The table against the same blocks built in a manager: the
            // same arithmetic, bit for bit.
            let oracle = manager_answer(&mut scratch, index.order(), &blocks, &lin_q, prob_of);
            prop_assert_eq!(p.to_bits(), oracle.to_bits(), "{} vs {}", p, oracle);
            prop_assert_eq!(scratch.diagram_size(), index.query_obdd(&lin_q).unwrap().size());
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
            QueryScratch::new().lineage_probability(&index, &lin, |_| 0.5),
            Err(ObddError::UnknownVariable(_))
        ));
    }
}
