//! The intersection algorithms of Section 4.3.
//!
//! Both algorithms compute `P0(Φ_W' ∧ Φ_Q)` where `Φ_W'` is (part of) the
//! compiled `¬W` diagram and `Φ_Q` is the (small) query diagram, built over
//! the same variable order, by **one** guided traversal (`Walk::intersect`)
//! memoised on the node pairs it visits, with the `probUnder` shortcut: as
//! soon as the query side reaches its `1`-sink the precomputed probability
//! of the remaining index sub-diagram is used, so only the slice of the
//! index between the first and last query variable is visited
//! (Proposition 3). What differs is where the index side is read from
//! (`IndexBlock`) — which is all Fig. 9 compares:
//!
//! * [`mv_intersect`] — **MVIntersect**: `ArenaBlock`, the pointer-based
//!   form: the diagram's nodes read from its [`mv_obdd::ObddManager`] arena
//!   through one read guard, `probUnder` from the sparse per-diagram map of
//!   an [`AugmentedObdd`];
//! * [`cc_mv_intersect`] — **CC-MVIntersect**: a node slice (`BlockView`),
//!   the cache-conscious form: the block flattened into a DFS-ordered
//!   vector of [`QvNode`]s carrying `probUnder` and the variable
//!   probability inline, so the traversal takes no lock and chases no arena
//!   pointers. A [`CcLayout`] is one such vector; the compiled
//!   [`MvIndex`](crate::MvIndex) keeps every block as a range of one.
//!
//! The index reads only the second form: its blocks are rows of one flat
//! block table, and no arena outlives its compile. `ArenaBlock` serves the
//! standalone Fig. 9 call and the differential tests, which hold the table
//! against diagrams built in a manager of their own.
//!
//! The traversal walks a *chain* of blocks in level order rather than one
//! diagram: a query that touches several blocks of the index continues from
//! one block's `1`-sink at the next block's root, dividing by each block's
//! own `P0(¬W_k)` where it enters it, so the slice `⋀ₖ ¬W_k` is never
//! assembled and no product over the touched blocks is ever formed (see
//! [`crate::kernel`] for the query side of that path). The two public
//! functions are the one-block case.
//!
//! The memo holds the visited pairs only — `O(|slice| + |query|)` for the
//! width-1 diagrams of inversion-free queries — never the
//! `|index| × |query|` product, and by *presence*, not by a sentinel value:
//! translated probabilities overflow to NaN by construction, and a NaN pair
//! that is not memoised is re-expanded on every path that reaches it.
//!
//! The query side is a flat slice of [`QvNode`]s: the kernel folds a
//! lineage straight into one, and [`QueryView`] flattens the reachable part
//! of an [`Obdd`] out of its manager's arena (whose node ids index the
//! whole arena, not this diagram) for callers that hold a diagram.

use fxhash::FxHashMap;
use mv_obdd::obdd::{FALSE, TRUE};
use mv_obdd::{NodeId, Obdd};
use mv_pdb::TupleId;

use crate::augmented::AugmentedObdd;

/// Compact position of the `false` sink in every flattened diagram form
/// ([`QueryView`], [`CcLayout`] and the index's block table).
pub const QV_FALSE: u32 = u32::MAX;
/// Compact position of the `true` sink in every flattened diagram form.
pub const QV_TRUE: u32 = u32::MAX - 1;

/// DFS pre-order (0-edge first) flattening of the internal nodes reachable
/// from `root`: the visit order plus the `NodeId → compact position` map.
/// Shared by [`QueryView`] and [`CcLayout`] so the two layouts cannot
/// drift apart.
fn flatten_pre_order(
    root: NodeId,
    arena: &mv_obdd::ObddNodes<'_>,
) -> (Vec<NodeId>, FxHashMap<NodeId, u32>) {
    let mut position: FxHashMap<NodeId, u32> = FxHashMap::default();
    let mut visited: Vec<NodeId> = Vec::new();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        if id == TRUE || id == FALSE || position.contains_key(&id) {
            continue;
        }
        position.insert(id, visited.len() as u32);
        visited.push(id);
        let node = arena.node(id);
        // Push hi first so that lo is visited first (pre-order, 0-edge first).
        stack.push(node.hi);
        stack.push(node.lo);
    }
    (visited, position)
}

/// Renames the arena's sinks to the shared markers.
fn marker_of(id: NodeId) -> u32 {
    match id {
        TRUE => QV_TRUE,
        FALSE => QV_FALSE,
        other => other,
    }
}

/// Maps an arena id to its compact position (sinks to the shared markers).
fn compact_of(id: NodeId, position: &FxHashMap<NodeId, u32>) -> u32 {
    match id {
        TRUE | FALSE => marker_of(id),
        other => position[&other],
    }
}

/// One node of a flattened diagram — a query's, or a block of the index.
#[derive(Debug, Clone, Copy)]
pub struct QvNode {
    /// Level of the node's variable.
    pub level: u32,
    /// Compact position of the 0-child (or a sink marker).
    pub lo: u32,
    /// Compact position of the 1-child (or a sink marker).
    pub hi: u32,
    /// Probability of the node's variable.
    pub p_var: f64,
    /// Probability of the sub-diagram rooted at the node (`probUnder`).
    pub prob: f64,
}

/// The probability of the sub-diagram at a position of a flattened query
/// diagram (sink markers included).
#[inline]
pub(crate) fn prob_at(nodes: &[QvNode], v: u32) -> f64 {
    match v {
        QV_TRUE => 1.0,
        QV_FALSE => 0.0,
        other => nodes[other as usize].prob,
    }
}

/// A compact, reachable-only flattening of a query OBDD, annotated with
/// variable and sub-diagram probabilities. Build once per lineage, reuse
/// across every index block the query touches.
#[derive(Debug, Clone)]
pub struct QueryView {
    nodes: Vec<QvNode>,
    root: u32,
}

impl QueryView {
    /// Flattens the reachable part of `query` (DFS pre-order, 0-edge first)
    /// and computes the per-node Shannon-expansion probabilities from
    /// scratch.
    pub fn new(query: &Obdd, prob_of: impl Fn(TupleId) -> f64 + Copy) -> QueryView {
        let root = query.root();
        if root == TRUE || root == FALSE {
            return QueryView {
                nodes: Vec::new(),
                root: marker_of(root),
            };
        }
        let probs = query.node_probabilities(prob_of);
        let arena = query.nodes();
        let order = query.order();
        let (visited, position) = flatten_pre_order(root, &arena);
        let nodes: Vec<QvNode> = visited
            .iter()
            .map(|&id| {
                let node = arena.node(id);
                QvNode {
                    level: node.level,
                    lo: compact_of(node.lo, &position),
                    hi: compact_of(node.hi, &position),
                    p_var: prob_of(order.tuple_at(node.level)),
                    prob: probs[&id],
                }
            })
            .collect();
        QueryView {
            nodes,
            root: position[&root],
        }
    }

    /// The compact position of the root (possibly a sink marker).
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The node at a compact position.
    pub fn node(&self, v: u32) -> QvNode {
        self.nodes[v as usize]
    }

    /// The probability of the sub-diagram at a compact position (sink
    /// markers included).
    pub fn prob(&self, v: u32) -> f64 {
        prob_at(&self.nodes, v)
    }

    /// The probability of the whole query diagram.
    pub fn root_prob(&self) -> f64 {
        self.prob(self.root)
    }

    /// Number of flattened internal nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the query diagram is constant.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Where the traversal reads an index-side block from. The two
/// implementations are the two algorithms of Section 4.3: `ArenaBlock`
/// chases a manager's arena and the sparse `probUnder` map of an
/// [`AugmentedObdd`] (MVIntersect), `BlockView` reads one flat node slice
/// (CC-MVIntersect). The annotations are asked for apart from the structure
/// because only the pointer-based form pays for each separately.
pub(crate) trait IndexBlock {
    /// Position of the block's root (a sink marker for a constant block).
    fn root(&self) -> u32;
    /// `(level, lo, hi)` of the internal node at a position.
    fn node(&self, u: u32) -> (u32, u32, u32);
    /// `probUnder` of that node.
    fn prob_under(&self, u: u32) -> f64;
    /// Probability of the variable that node tests, the one at `level`.
    fn p_var(&self, u: u32, level: u32) -> f64;
}

/// An [`AugmentedObdd`] read in place: arena ids are the positions, the
/// sinks are renamed to the shared markers on the way out.
pub(crate) struct ArenaBlock<'a, F> {
    pub(crate) index: &'a AugmentedObdd,
    /// A guard over the manager `index` lives in; one guard serves every
    /// block of a chain built in that manager.
    pub(crate) arena: &'a mv_obdd::ObddNodes<'a>,
    pub(crate) prob_of: F,
}

impl<F: Fn(TupleId) -> f64> IndexBlock for ArenaBlock<'_, F> {
    fn root(&self) -> u32 {
        marker_of(self.index.obdd().root())
    }

    fn node(&self, u: u32) -> (u32, u32, u32) {
        let node = self.arena.node(u);
        (node.level, marker_of(node.lo), marker_of(node.hi))
    }

    fn prob_under(&self, u: u32) -> f64 {
        self.index.prob_under(u)
    }

    fn p_var(&self, _: u32, level: u32) -> f64 {
        (self.prob_of)(self.index.obdd().order().tuple_at(level))
    }
}

/// One block read in place from a flat node slice: positions index the
/// slice, children are positions of the same slice or the sink markers.
/// What a row of the index's block table and a [`CcLayout`] hand the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockView<'a> {
    pub(crate) nodes: &'a [QvNode],
    /// Position of the root, or a sink marker for a constant block.
    pub(crate) root: u32,
}

impl IndexBlock for BlockView<'_> {
    fn root(&self) -> u32 {
        self.root
    }

    fn node(&self, u: u32) -> (u32, u32, u32) {
        let node = &self.nodes[u as usize];
        (node.level, node.lo, node.hi)
    }

    fn prob_under(&self, u: u32) -> f64 {
        self.nodes[u as usize].prob
    }

    fn p_var(&self, u: u32, _: u32) -> f64 {
        self.nodes[u as usize].p_var
    }
}

/// A flattened, DFS-ordered copy of one augmented OBDD, ready for
/// cache-conscious intersection: the standalone Fig. 9 form of what the
/// index keeps for every block as a range of its table.
#[derive(Debug, Clone)]
pub struct CcLayout {
    nodes: Vec<QvNode>,
    root: u32,
}

impl CcLayout {
    /// Flattens the reachable part of the augmented diagram in DFS pre-order.
    pub fn new(index: &AugmentedObdd, prob_of: impl Fn(TupleId) -> f64 + Copy) -> Self {
        let w = index.obdd();
        if w.root() == TRUE || w.root() == FALSE {
            return CcLayout {
                nodes: Vec::new(),
                root: marker_of(w.root()),
            };
        }
        let arena = w.nodes();
        let order = w.order();
        let (visited, position) = flatten_pre_order(w.root(), &arena);
        let nodes = visited
            .iter()
            .map(|&id| {
                let node = arena.node(id);
                QvNode {
                    level: node.level,
                    lo: compact_of(node.lo, &position),
                    hi: compact_of(node.hi, &position),
                    p_var: prob_of(order.tuple_at(node.level)),
                    prob: index.prob_under(id),
                }
            })
            .collect();
        CcLayout {
            nodes,
            root: position[&w.root()],
        }
    }

    pub(crate) fn view(&self) -> BlockView<'_> {
        BlockView {
            nodes: &self.nodes,
            root: self.root,
        }
    }

    /// Number of flattened nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the layout holds no internal nodes (constant diagram).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Heap bytes a vector holds (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// An open-addressed `[u32; 3] → V` table that is emptied in O(1): every
/// slot carries the stamp of the generation that wrote it, and
/// [`StampedMap::reset`] starts a new generation. The per-lineage tables of
/// the query kernel (unique table, apply memo, intersection memo) are reset
/// thousands of times a second and mostly hold a few dozen entries; a table
/// left large by one broad query halves on every reset that finds it nearly
/// empty, so the point queries after it probe a cache-sized table again.
/// It halves no further than [`StampedMap::SHRINK_FLOOR`] slots: below
/// that, a halving would be undone by the next lineage of a few dozen
/// entries, one allocation each time (a third of the warm point lineages
/// regrew a table when the floor was the 64-slot minimum).
#[derive(Debug, Clone)]
pub(crate) struct StampedMap<V> {
    slots: Vec<StampedSlot<V>>,
    stamp: u32,
    len: usize,
}

#[derive(Debug, Clone, Copy, Default)]
struct StampedSlot<V> {
    /// Generation that wrote the slot; 0 is never a live generation.
    stamp: u32,
    key: [u32; 3],
    value: V,
}

impl<V: Copy + Default> StampedMap<V> {
    const MIN_SLOTS: usize = 64;
    /// Slots a nearly empty table keeps on reset (24 KiB of `f64` slots):
    /// room for the ≈ 150 memo entries of a 36-clause point lineage, which
    /// a 256-slot floor still regrew to 512.
    const SHRINK_FLOOR: usize = 1024;

    /// An empty table; the slots are allocated by the first insert, so a
    /// context that never reaches the exact rung pays nothing for its
    /// kernel.
    pub(crate) fn new() -> Self {
        StampedMap {
            slots: Vec::new(),
            stamp: 1,
            len: 0,
        }
    }

    /// Forgets every entry.
    pub(crate) fn reset(&mut self) {
        if self.len * 8 < self.slots.len() && self.slots.len() > Self::SHRINK_FLOOR {
            // No entry is live past this point, so any prefix is a table.
            self.slots.truncate(self.slots.len() / 2);
        }
        self.len = 0;
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.slots.fill(StampedSlot::default());
            self.stamp = 1;
        }
    }

    #[inline]
    fn slot_of(&self, key: [u32; 3]) -> usize {
        let ab = (u64::from(key[0]) << 32 | u64::from(key[1])).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let h = (ab.rotate_left(29) ^ u64::from(key[2])).wrapping_mul(0x517c_c1b7_2722_0a95);
        (h >> 32) as usize & (self.slots.len() - 1)
    }

    #[inline]
    pub(crate) fn get(&self, key: [u32; 3]) -> Option<V> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let slot = &self.slots[i];
            if slot.stamp != self.stamp {
                return None;
            }
            if slot.key == key {
                return Some(slot.value);
            }
            i = (i + 1) & mask;
        }
    }

    /// Stores `value` under `key` (replacing an entry of the same key).
    #[inline]
    pub(crate) fn insert(&mut self, key: [u32; 3], value: V) {
        if (self.len + 1) * 2 > self.slots.len() {
            self.grow();
        }
        let mask = self.slots.len() - 1;
        let mut i = self.slot_of(key);
        loop {
            let slot = &mut self.slots[i];
            if slot.stamp != self.stamp {
                self.len += 1;
            } else if slot.key != key {
                i = (i + 1) & mask;
                continue;
            }
            *slot = StampedSlot {
                stamp: self.stamp,
                key,
                value,
            };
            return;
        }
    }

    /// Heap bytes the table holds, live entries or not.
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }

    fn grow(&mut self) {
        let doubled = vec![StampedSlot::default(); (self.slots.len() * 2).max(Self::MIN_SLOTS)];
        let old = std::mem::replace(&mut self.slots, doubled);
        self.len = 0;
        for slot in old {
            if slot.stamp == self.stamp {
                self.insert(slot.key, slot.value);
            }
        }
    }
}

/// The reusable state of one traversal: the memo of visited
/// `(block, index position, query position)` triples and the explicit
/// stacks. Owned by the query kernel so the hot path allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    memo: StampedMap<f64>,
    stack: Vec<Frame>,
    results: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Continue the query position at the root of block `.0`.
    Enter(u32, u32),
    /// Intersect index position `.1` of block `.0` with query position `.2`.
    Expand(u32, u32, u32),
    /// Combine the two child results of a triple under `p_var`.
    Combine(u32, u32, u32, f64),
    /// Divide the result on top by the entered block's own probability.
    Scale(f64),
}

impl Walk {
    pub(crate) fn new() -> Self {
        Walk {
            memo: StampedMap::new(),
            stack: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Heap bytes of the memo and the stacks.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.memo.heap_bytes() + vec_bytes(&self.stack) + vec_bytes(&self.results)
    }

    /// The one traversal behind both algorithms, over a *chain* of `len`
    /// index-side blocks on ascending, pairwise disjoint level ranges
    /// (`block(k)` hands out the `k`-th one and the value entering it
    /// divides by): computes
    ///
    /// ```text
    /// P0(query ∧ ⋀ₖ blockₖ) / ∏ₖ divisorₖ
    /// ```
    ///
    /// The conjunction of the blocks is never materialised: a block's
    /// `1`-sink continues at the next block's root, its `0`-sink is the
    /// chain's. Every block after the first must be divided by its own
    /// probability — that is what lets `probUnder` of a node stand for the
    /// whole rest of the chain once the query side reaches its `1`-sink, and
    /// what keeps every intermediate value at the magnitude of one block
    /// whatever the number of blocks (translated probabilities are not
    /// bounded by one, Section 3.3). A single block with divisor `1` is the
    /// plain `P0(block ∧ query)` of Section 4.3.
    ///
    /// Memoised on the visited triples only, by presence (a NaN is a value
    /// like any other); iterative, so deep chains cannot overflow the
    /// thread stack.
    pub(crate) fn intersect<B: IndexBlock>(
        &mut self,
        len: usize,
        block: impl Fn(usize) -> (B, f64),
        query: &[QvNode],
        query_root: u32,
    ) -> f64 {
        self.memo.reset();
        self.stack.clear();
        self.results.clear();
        self.stack.push(Frame::Enter(0, query_root));
        // The block the walk is in: consecutive frames rarely change it.
        let mut entered: Option<(u32, B)> = None;
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::Enter(mut k, v) => loop {
                    if k as usize == len {
                        self.results.push(prob_at(query, v));
                        break;
                    }
                    let (next, divisor) = block(k as usize);
                    match next.root() {
                        QV_FALSE => {
                            self.results.push(0.0);
                            break;
                        }
                        // A constant-true block constrains nothing.
                        QV_TRUE => k += 1,
                        root => {
                            self.stack.push(Frame::Scale(divisor));
                            self.stack.push(Frame::Expand(k, root, v));
                            break;
                        }
                    }
                },
                Frame::Expand(k, u, v) => {
                    // Terminal shortcuts: a lookup each, not worth a memo entry.
                    if v == QV_FALSE || u == QV_FALSE {
                        self.results.push(0.0);
                        continue;
                    }
                    if u == QV_TRUE {
                        if v == QV_TRUE {
                            self.results.push(1.0);
                        } else {
                            self.stack.push(Frame::Enter(k + 1, v));
                        }
                        continue;
                    }
                    if entered.as_ref().map(|(at, _)| *at) != Some(k) {
                        entered = Some((k, block(k as usize).0));
                    }
                    let index = &entered.as_ref().expect("entered above").1;
                    if v == QV_TRUE {
                        // probUnder: the rest of this block; the blocks
                        // after it cancel against their own divisors.
                        self.results.push(index.prob_under(u));
                        continue;
                    }
                    if let Some(p) = self.memo.get([k, u, v]) {
                        self.results.push(p);
                        continue;
                    }
                    let (level, lo, hi) = index.node(u);
                    let vn = query[v as usize];
                    let m = level.min(vn.level);
                    let (u0, u1) = if level == m { (lo, hi) } else { (u, u) };
                    let (v0, v1) = if vn.level == m {
                        (vn.lo, vn.hi)
                    } else {
                        (v, v)
                    };
                    // The branching variable's probability is stored on
                    // whichever side owns the level.
                    let p_var = if vn.level == m {
                        vn.p_var
                    } else {
                        index.p_var(u, level)
                    };
                    self.stack.push(Frame::Combine(k, u, v, p_var));
                    self.stack.push(Frame::Expand(k, u1, v1));
                    self.stack.push(Frame::Expand(k, u0, v0));
                }
                Frame::Combine(k, u, v, p_var) => {
                    let p1 = self.results.pop().expect("hi probability available");
                    let p0 = self.results.pop().expect("lo probability available");
                    let p = (1.0 - p_var) * p0 + p_var * p1;
                    self.memo.insert([k, u, v], p);
                    self.results.push(p);
                }
                Frame::Scale(divisor) => {
                    let p = self.results.pop().expect("block probability available");
                    self.results.push(p / divisor);
                }
            }
        }
        self.results
            .pop()
            .expect("intersection produces a probability")
    }
}

/// Computes `P0(index ∧ query)` by guided traversal of the arena-backed
/// diagram (the MVIntersect algorithm of Fig. 9; the index itself keeps no
/// arena).
pub fn mv_intersect(
    index: &AugmentedObdd,
    query: &QueryView,
    prob_of: impl Fn(TupleId) -> f64 + Copy,
) -> f64 {
    let arena = &index.obdd().nodes();
    let block = |_| {
        let block = ArenaBlock {
            index,
            arena,
            prob_of,
        };
        (block, 1.0)
    };
    Walk::new().intersect(1, block, &query.nodes, query.root)
}

/// Computes `P0(index ∧ query)` over a cache-conscious layout (the
/// CC-MVIntersect algorithm): the same traversal, but both operands are
/// flat vectors, so it touches no lock and no arena.
pub fn cc_mv_intersect(layout: &CcLayout, query: &QueryView) -> f64 {
    Walk::new().intersect(1, |_| (layout.view(), 1.0), &query.nodes, query.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_obdd::{ObddManager, VarOrder};
    use std::sync::Arc;

    #[test]
    fn nan_pairs_are_memoised_by_presence() {
        // Q = ⋁ᵢ x₂ᵢ x₂ᵢ₊₁ against ¬Q: two width-1 chains in which every
        // pair of nodes is reached along two paths. Translated
        // probabilities overflow to NaN by construction; with the deepest
        // variable NaN every pair above it is NaN too, and a memo that
        // reads NaN as "vacant" re-expands each pair along both paths into
        // it — 2⁶⁴ expansions here.
        let clauses = 64u32;
        let deepest = 2 * clauses - 1;
        let prob_of = |t: TupleId| if t.0 == deepest { f64::NAN } else { 0.5 };
        let order = Arc::new(VarOrder::from_tuples((0..=deepest).map(TupleId)));
        let lineage: Vec<Vec<TupleId>> = (0..clauses)
            .map(|i| vec![TupleId(2 * i), TupleId(2 * i + 1)])
            .collect();
        let q_obdd = ObddManager::new(order).dnf(&lineage).unwrap();
        let index = AugmentedObdd::new(q_obdd.negate(), prob_of);
        let query = QueryView::new(&q_obdd, prob_of);
        let layout = CcLayout::new(&index, prob_of);
        assert!(cc_mv_intersect(&layout, &query).is_nan());
        assert!(mv_intersect(&index, &query, prob_of).is_nan());
    }

    #[test]
    fn a_chain_is_the_conjunction_of_its_blocks_divided_block_by_block() {
        // Blocks ¬(x₀x₁) and ¬(x₃x₄) on disjoint level ranges, constants in
        // between; Q = x₁x₂ ∨ x₄x₅ reaches into both.
        let prob_of = |t: TupleId| [0.5, -2.0, 0.25, 3.0, 0.5, 0.75][t.index()];
        let manager = ObddManager::new(Arc::new(VarOrder::from_tuples((0..6).map(TupleId))));
        let layout_of = |diagram: mv_obdd::Obdd| {
            let augmented = AugmentedObdd::new(diagram, prob_of);
            (CcLayout::new(&augmented, prob_of), augmented.probability())
        };
        let clause = |a, b| manager.clause(&[TupleId(a), TupleId(b)]).unwrap();
        let (first, p_first) = layout_of(clause(0, 1).negate());
        let (second, p_second) = layout_of(clause(3, 4).negate());
        let (top, _) = layout_of(manager.constant(true));
        let (bottom, _) = layout_of(manager.constant(false));
        let q = clause(1, 2).apply_or(&clause(4, 5)).unwrap();
        let query = QueryView::new(&q, prob_of);
        let walk = |chain: &[(&CcLayout, f64)]| {
            let block = |k: usize| (chain[k].0.view(), chain[k].1);
            Walk::new().intersect(chain.len(), block, &query.nodes, query.root)
        };

        let conjunction = q
            .apply_and(&clause(0, 1).negate())
            .unwrap()
            .apply_and(&clause(3, 4).negate())
            .unwrap();
        let expected = conjunction.probability(prob_of) / (p_first * p_second);
        let chained = walk(&[(&first, p_first), (&second, p_second)]);
        assert!(
            (chained - expected).abs() < 1e-12,
            "{chained} vs {expected}"
        );
        // A constant-true block constrains nothing, wherever it sits.
        for chain in [
            [(&top, 1.0), (&first, p_first), (&second, p_second)],
            [(&first, p_first), (&top, 1.0), (&second, p_second)],
            [(&first, p_first), (&second, p_second), (&top, 1.0)],
        ] {
            assert_eq!(walk(&chain).to_bits(), chained.to_bits());
        }
        // A constant-false block leaves nothing, and divides nothing.
        assert_eq!(
            walk(&[(&first, p_first), (&bottom, 0.0), (&second, p_second)]),
            0.0
        );
        assert_eq!(walk(&[(&bottom, 0.0)]), 0.0);
        // No block at all: the query's own probability.
        assert_eq!(walk(&[]).to_bits(), q.probability(prob_of).to_bits());
        // The first block's divisor is the caller's to choose.
        let undivided = walk(&[(&first, 1.0), (&second, p_second)]);
        assert!((undivided - expected * p_first).abs() < 1e-12);
    }

    #[test]
    fn stamped_map_resets_in_place_and_decays() {
        let mut map: StampedMap<u32> = StampedMap::new();
        for round in 0..3u32 {
            assert_eq!(map.get([1, 2, 3]), None);
            for i in 0..1_000u32 {
                map.insert([i, i ^ 7, round], i + round);
            }
            map.insert([5, 2, round], 99); // replaces
            assert_eq!(map.len, 1_000);
            assert!((0..1_000u32)
                .all(|i| map.get([i, i ^ 7, round]) == Some(if i == 5 { 99 } else { i + round })));
            assert_eq!(map.get([5, 2, round + 1]), None);
            map.reset();
        }
        // Nearly empty generations give the slots back, one halving each,
        // down to the floor.
        let grown = map.slots.len();
        assert!(grown >= 2_000);
        for _ in 0..16 {
            map.insert([1, 1, 1], 1);
            map.reset();
        }
        assert_eq!(map.slots.len(), StampedMap::<u32>::SHRINK_FLOOR);
        // At the floor, small generations alternating with a few dozen
        // entries neither shrink nor regrow the table: no allocation.
        let table = map.slots.as_ptr();
        for round in 0..64u32 {
            let entries = if round % 2 == 0 { 2 } else { 300 };
            for i in 0..entries {
                map.insert([i, round, 0], i);
            }
            map.reset();
        }
        assert_eq!(map.slots.len(), StampedMap::<u32>::SHRINK_FLOOR);
        assert_eq!(map.slots.as_ptr(), table);
        // A wrapped stamp cannot revive an entry of 2³² generations ago.
        map.insert([4, 4, 4], 4);
        map.stamp = u32::MAX;
        map.insert([9, 9, 9], 9);
        map.reset();
        assert_eq!(map.stamp, 1);
        assert_eq!(map.get([4, 4, 4]), None);
    }
}
