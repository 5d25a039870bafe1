//! The node store: the one place an OBDD node is made.
//!
//! A [`NodeStore`] is a BDD package in the split of Brace, Rudell and
//! Bryant (DAC 1990): one vector of [`ObddNode`] records, a **unique table**
//! `(level, lo, hi) → node` that makes every diagram canonical, and a
//! separate **memo** (computed table) for `apply`, negation, concatenation
//! and copies. Both tables are [`StampedMap`]s, emptied in O(1). The memo is
//! emptied at the start of every top-level operation — a fold, an `apply`,
//! a negation, a concatenation — which is safe because canonicity lives in
//! the unique table: work an operation repeats finds every node it makes.
//!
//! A node is its position in the vector. The two sinks are not stored: the
//! markers [`FALSE`] and [`TRUE`] at the top of the `u32` range name them,
//! so a node slice copied out of a store (a block of the MV-index's table, a
//! flattened query) keeps the same convention with positions relative to
//! the slice. Children are made before their parents, so one ascending
//! sweep ([`annotate`]) computes every node's `probUnder`.
//!
//! Two owners share the code: [`ObddManager`](crate::ObddManager) keeps one
//! store behind a lock and never empties it (the arena of ConOBDD, of the
//! apply-per-clause baseline and of the tests), and the MV-index's query
//! kernel owns one directly and empties it for every lineage. Every
//! traversal runs on an explicit stack, so 100 000-level chains do not
//! overflow the thread stack. A fold polls its cooperative [`EvalBudget`]
//! between clauses and every 1024 apply frames, and refuses past a node cap
//! ([`ObddError::NodeBudgetExceeded`]).

use fxhash::FxHashMap;
use mv_pdb::TupleId;
use mv_query::EvalBudget;

use crate::error::ObddError;
use crate::manager::ManagerStats;
use crate::obdd::{ObddNode, FALSE, SINK_LEVEL, TRUE};
use crate::order::VarOrder;
use crate::{NodeId, Result};

/// Positions are `u32`s below the two sink markers, so this is the node
/// cap when none is set.
const MAX_NODES: usize = (u32::MAX - 2) as usize;

/// Budget poll period inside `apply`: every 1024 frames.
const POLL_MASK: u32 = 0x3ff;

/// Memo tag of copies; `apply` uses the operator's own (0 and 1).
const TAG_COPY: u32 = 2;

/// The two synthesis operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoolOp {
    /// Disjunction.
    Or = 0,
    /// Conjunction.
    And = 1,
}

/// Sink-level shortcuts of `apply`; `None` means both operands need
/// expansion. Sharing one store lets non-sink operands short-circuit too
/// (`x ∨ x = x`).
fn apply_terminal(op: BoolOp, a: NodeId, b: NodeId) -> Option<NodeId> {
    if a == b {
        return Some(a);
    }
    let (identity, absorbing) = match op {
        BoolOp::Or => (FALSE, TRUE),
        BoolOp::And => (TRUE, FALSE),
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

/// The sink cases of concatenation (both operators); `None` means real
/// rebuilding is required.
pub(crate) fn concat_trivial(and: bool, a: NodeId, b: NodeId) -> Option<NodeId> {
    let (identity, absorbing) = if and { (TRUE, FALSE) } else { (FALSE, TRUE) };
    if a == identity {
        // false ∨ b = b, true ∧ b = b.
        return Some(b);
    }
    if a == absorbing {
        // true ∨ b = true, false ∧ b = false.
        return Some(a);
    }
    if b == identity {
        // a ∨ false = a, a ∧ true = a: nothing to redirect.
        return Some(a);
    }
    None
}

/// The probability of the sub-diagram at a position of an annotated node
/// slice (sink markers included).
#[inline]
pub fn prob_at(nodes: &[ObddNode], v: NodeId) -> f64 {
    match v {
        TRUE => 1.0,
        FALSE => 0.0,
        other => nodes[other as usize].prob,
    }
}

/// One ascending sweep over a node slice whose children precede their
/// parents (a store, a block of the index's table, a flattened diagram):
/// sets every node's variable probability and `probUnder` by Shannon
/// expansion, valid for the negative probabilities of Section 3.3.
pub fn annotate(nodes: &mut [ObddNode], order: &VarOrder, prob_of: impl Fn(TupleId) -> f64) {
    for id in 0..nodes.len() {
        let ObddNode { level, lo, hi, .. } = nodes[id];
        let p_var = prob_of(order.tuple_at(level));
        let prob = (1.0 - p_var) * prob_at(nodes, lo) + p_var * prob_at(nodes, hi);
        let node = &mut nodes[id];
        node.p_var = p_var;
        node.prob = prob;
    }
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    Expand(NodeId, NodeId),
    Combine(NodeId, NodeId, u32),
}

/// The counters of a store that holds nothing: the two sinks.
fn fresh_stats() -> ManagerStats {
    ManagerStats {
        peak_nodes: 2,
        ..ManagerStats::default()
    }
}

/// Heap bytes a vector holds (its capacity, not its length).
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// One OBDD node store; see the module docs.
#[derive(Debug, Clone)]
pub struct NodeStore {
    nodes: Vec<ObddNode>,
    /// `[level, lo, hi] → node`.
    unique: StampedMap<NodeId>,
    /// `[min(a, b), max(a, b), op] → a op b`, and `[u, key, TAG_COPY] →`
    /// the copy of `u`; emptied per operation.
    memo: StampedMap<NodeId>,
    /// The levels of every clause being folded, flat.
    levels: Vec<u32>,
    /// `(sort key, start, end)` of each clause in `levels`, in fold order.
    spans: Vec<(u64, u32, u32)>,
    frames: Vec<Frame>,
    results: Vec<NodeId>,
    budget: Option<EvalBudget>,
    node_cap: usize,
    tick: u32,
    stats: ManagerStats,
}

impl Default for NodeStore {
    fn default() -> Self {
        NodeStore::new()
    }
}

impl NodeStore {
    /// An empty store: no budget, and no node cap short of the position
    /// space. Nothing is allocated before the first node.
    pub fn new() -> Self {
        NodeStore {
            nodes: Vec::new(),
            unique: StampedMap::new(),
            memo: StampedMap::new(),
            levels: Vec::new(),
            spans: Vec::new(),
            frames: Vec::new(),
            results: Vec::new(),
            budget: None,
            node_cap: MAX_NODES,
            tick: 0,
            stats: fresh_stats(),
        }
    }

    /// Forgets every node (the counters stay), keeping the buffers.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.unique.reset();
    }

    /// Puts the store back in the state [`NodeStore::new`] leaves — no
    /// nodes, no budget, no node cap, counters zeroed — keeping every
    /// buffer's capacity.
    pub fn recycle(&mut self) {
        self.clear();
        self.budget = None;
        self.node_cap = MAX_NODES;
        self.stats = fresh_stats();
    }

    /// Installs (or clears) the cooperative deadline folds poll.
    pub fn set_budget(&mut self, budget: Option<EvalBudget>) {
        self.budget = budget;
    }

    /// Refuses, with [`ObddError::NodeBudgetExceeded`], any operation that
    /// leaves more than `cap` nodes in the store (`usize::MAX` lifts the cap
    /// back to the position space).
    pub fn set_node_cap(&mut self, cap: usize) {
        self.node_cap = cap.min(MAX_NODES);
    }

    /// Work counters since the store was made or recycled, with the
    /// current size (sinks included) as the `live_nodes` gauge.
    pub fn stats(&self) -> ManagerStats {
        ManagerStats {
            live_nodes: self.nodes.len() as u64 + 2,
            ..self.stats
        }
    }

    /// Heap bytes the nodes, the tables and the buffers hold, in use or not.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.nodes)
            + self.unique.heap_bytes()
            + self.memo.heap_bytes()
            + vec_bytes(&self.levels)
            + vec_bytes(&self.spans)
            + vec_bytes(&self.frames)
            + vec_bytes(&self.results)
    }

    /// The nodes, children before parents.
    pub fn nodes(&self) -> &[ObddNode] {
        &self.nodes
    }

    /// The nodes, for an [`annotate`] sweep.
    pub fn nodes_mut(&mut self) -> &mut [ObddNode] {
        &mut self.nodes
    }

    /// The level of a node ([`SINK_LEVEL`] for the sinks).
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        if v >= TRUE {
            SINK_LEVEL
        } else {
            self.nodes[v as usize].level
        }
    }

    /// Creates (or reuses) a node, applying the standard reduction rules.
    pub fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        if let Some(id) = self.unique.get([level, lo, hi]) {
            self.stats.unique_hits += 1;
            return id;
        }
        self.stats.unique_misses += 1;
        self.stats.nodes_allocated += 1;
        let id = self.nodes.len() as NodeId;
        self.nodes.push(ObddNode {
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

    /// Starts a top-level operation: the memo is emptied and the budget
    /// poll restarts.
    pub fn begin(&mut self) {
        self.memo.reset();
        self.tick = 0;
    }

    fn refusal(&self) -> ObddError {
        ObddError::NodeBudgetExceeded {
            allocated: self.nodes.len(),
            budget: self.node_cap,
        }
    }

    /// Classical synthesis on an explicit stack, memoised within the
    /// current operation (operands normalised for commutativity). The node
    /// cap is compared on every frame, the budget polled every 1024
    /// frames.
    pub fn apply(&mut self, op: BoolOp, a: NodeId, b: NodeId) -> Result<NodeId> {
        if let Some(r) = apply_terminal(op, a, b) {
            return Ok(r);
        }
        let key = |u: NodeId, v: NodeId| [u.min(v), u.max(v), op as u32];
        self.frames.clear();
        self.results.clear();
        self.frames.push(Frame::Expand(a, b));
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
                Frame::Expand(u, v) => {
                    if let Some(r) = apply_terminal(op, u, v) {
                        self.results.push(r);
                        continue;
                    }
                    if let Some(r) = self.memo.get(key(u, v)) {
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
                    self.frames.push(Frame::Combine(u, v, m));
                    self.frames.push(Frame::Expand(u1, v1));
                    self.frames.push(Frame::Expand(u0, v0));
                }
                Frame::Combine(u, v, m) => {
                    let r1 = self.results.pop().expect("hi result available");
                    let r0 = self.results.pop().expect("lo result available");
                    let r = self.mk(m, r0, r1);
                    self.stats.apply_cache_misses += 1;
                    self.memo.insert(key(u, v), r);
                    self.results.push(r);
                }
            }
        }
        Ok(self.results.pop().expect("apply produces a root"))
    }

    /// The diagram of a DNF, as one operation: the OR-fold of its clauses
    /// (a clause is a conjunction of positive literals; repeats allowed).
    ///
    /// The clauses' levels land in one flat buffer, the clauses are sorted
    /// by their level sequences (a key of the first two levels, the rest
    /// breaking ties) and folded deepest top level first, whatever order
    /// they arrive in. Canonicity makes the root the one any other order
    /// reaches; the order decides the cost: each `apply` rebuilds only the
    /// part of the accumulator above the incoming clause's last level, so a
    /// lineage whose diagram has width `w` costs `O(w · Σ|clause span|)`
    /// nodes — linear for the width-1 diagrams of inversion-free queries.
    pub fn fold<'c>(
        &mut self,
        order: &VarOrder,
        clauses: impl IntoIterator<Item = &'c [TupleId]>,
    ) -> Result<NodeId> {
        if let Some(budget) = &self.budget {
            budget.check()?;
        }
        self.levels.clear();
        self.spans.clear();
        for clause in clauses {
            let start = self.levels.len();
            for &t in clause {
                let level = order
                    .level_of(t)
                    .ok_or_else(|| ObddError::UnknownVariable(t.to_string()))?;
                self.levels.push(level);
            }
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
        self.fold_spans()
    }

    /// The fold proper, over the clauses `fold` collected (apart from it,
    /// so that only the collection is compiled per clause source).
    fn fold_spans(&mut self) -> Result<NodeId> {
        self.begin();
        let levels = &self.levels;
        let of = |&(_, start, end): &(u64, u32, u32)| &levels[start as usize..end as usize];
        self.spans
            .sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| of(b).cmp(of(a))));

        let mut acc = FALSE;
        for i in 0..self.spans.len() {
            let (_, first, end) = self.spans[i];
            let mut clause = TRUE;
            for j in (first..end).rev() {
                let level = self.levels[j as usize];
                // A tuple repeated in a clause tests its level once.
                if j + 1 < end && self.levels[j as usize + 1] == level {
                    continue;
                }
                clause = self.mk(level, FALSE, clause);
            }
            acc = self.apply(BoolOp::Or, acc, clause)?;
            if self.nodes.len() > self.node_cap {
                return Err(self.refusal());
            }
            if let Some(budget) = &self.budget {
                budget.check()?;
            }
        }
        Ok(acc)
    }

    /// Copies the nodes reachable from `root` — read by `node` — children
    /// first, in DFS post-order with the 0-edge first. `sink` renames a
    /// sink; `place` turns a copied node's source id, level and renamed
    /// children into its new id. The memo maps each source id (under `key`)
    /// to its copy, so a node reached along two paths is placed once.
    /// Returns the root's new id. Negation, concatenation, the MV-index's
    /// blocks and flattened diagrams are all this copy.
    pub fn copy(
        &mut self,
        root: NodeId,
        key: u32,
        node: impl Fn(&Self, NodeId) -> (u32, NodeId, NodeId),
        sink: impl Fn(NodeId) -> NodeId,
        mut place: impl FnMut(&mut Self, NodeId, u32, NodeId, NodeId) -> NodeId,
    ) -> NodeId {
        let copied = |store: &Self, u: NodeId| match u {
            TRUE | FALSE => Some(sink(u)),
            u => store.memo.get([u, key, TAG_COPY]),
        };
        self.results.clear();
        self.results.push(root);
        while let Some(&u) = self.results.last() {
            if copied(self, u).is_some() {
                self.results.pop();
                continue;
            }
            let (level, lo, hi) = node(self, u);
            match (copied(self, lo), copied(self, hi)) {
                (Some(lo), Some(hi)) => {
                    let at = place(self, u, level, lo, hi);
                    self.memo.insert([u, key, TAG_COPY], at);
                    self.results.pop();
                }
                (copied_lo, copied_hi) => {
                    if copied_hi.is_none() {
                        self.results.push(hi);
                    }
                    if copied_lo.is_none() {
                        self.results.push(lo);
                    }
                }
            }
        }
        copied(self, root).expect("root copied")
    }

    /// `(level, lo, hi)` of a stored node: the source of in-store copies.
    pub fn triple(&self, u: NodeId) -> (u32, NodeId, NodeId) {
        let ObddNode { level, lo, hi, .. } = self.nodes[u as usize];
        (level, lo, hi)
    }

    /// Rebuilds a copied node in the store, counting it as computed.
    fn rebuild(&mut self, _: NodeId, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        self.stats.apply_cache_misses += 1;
        self.mk(level, lo, hi)
    }

    /// The negation of the diagram at `root`, as one operation: its
    /// reachable part rebuilt with the sinks swapped.
    pub fn negate(&mut self, root: NodeId) -> NodeId {
        self.begin();
        let swap = |s| if s == TRUE { FALSE } else { TRUE };
        self.copy(root, 0, Self::triple, swap, Self::rebuild)
    }

    /// Concatenation (Section 4.2), as one operation: the reachable part of
    /// `a` rebuilt with its `0`-sink (`and = false`) or `1`-sink
    /// (`and = true`) redirected to `b`, whose nodes are reused as they are.
    /// The caller checks that every level of `a` precedes every level of
    /// `b`.
    pub fn concat(&mut self, and: bool, a: NodeId, b: NodeId) -> NodeId {
        if let Some(r) = concat_trivial(and, a, b) {
            return r;
        }
        self.begin();
        let redirected = if and { TRUE } else { FALSE };
        let sink = |s| if s == redirected { b } else { s };
        self.copy(a, b, Self::triple, sink, Self::rebuild)
    }

    /// The internal nodes reachable from `root`, in DFS order.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = fxhash::FxHashSet::default();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if id >= TRUE || !seen.insert(id) {
                continue;
            }
            out.push(id);
            let node = self.nodes[id as usize];
            stack.push(node.lo);
            stack.push(node.hi);
        }
        out
    }

    /// Scans the store for canonicity violations: a duplicate
    /// `(level, lo, hi)` triple, a redundant node with `lo == hi`, a child
    /// that is not made before its parent or whose level does not exceed
    /// its parent's, or a unique-table entry out of sync with the nodes.
    /// Returns the first violation found.
    pub fn canonicity_violation(&self) -> Option<String> {
        let mut seen: FxHashMap<(u32, NodeId, NodeId), NodeId> = FxHashMap::default();
        for (i, node) in self.nodes.iter().enumerate() {
            let id = i as NodeId;
            if node.lo == node.hi {
                return Some(format!("node {id} is redundant (lo == hi == {})", node.lo));
            }
            if let Some(first) = seen.insert((node.level, node.lo, node.hi), id) {
                return Some(format!(
                    "nodes {first} and {id} duplicate ({}, {}, {})",
                    node.level, node.lo, node.hi
                ));
            }
            for child in [node.lo, node.hi] {
                if child < TRUE && child >= id {
                    return Some(format!("node {id} points at the later node {child}"));
                }
                if self.level(child) <= node.level {
                    return Some(format!(
                        "node {id} (level {}) has child {child} at level {}",
                        node.level,
                        self.level(child)
                    ));
                }
            }
            match self.unique.get([node.level, node.lo, node.hi]) {
                Some(u) if u == id => {}
                other => return Some(format!("unique table maps node {id}'s triple to {other:?}")),
            }
        }
        None
    }
}

/// An open-addressed `[u32; 3] → V` table that is emptied in O(1): every
/// slot carries the stamp of the generation that wrote it, and
/// [`StampedMap::reset`] starts a new generation. The unique table and the
/// memo of a [`NodeStore`] and the MV-index's intersection memo are these.
/// A query kernel's tables are reset thousands of times a second and mostly
/// hold a few dozen entries; a table left large by one broad query halves
/// on every reset that finds it nearly empty, so the point queries after it
/// probe a cache-sized table again. It halves no further than
/// 1 024 slots (`SHRINK_FLOOR`): below that, a halving would be
/// undone by the next lineage of a few dozen entries, one allocation each
/// time (a third of the warm point lineages regrew a table when the floor
/// was the 64-slot minimum).
#[derive(Debug, Clone)]
pub struct StampedMap<V> {
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

impl<V: Copy + Default> Default for StampedMap<V> {
    fn default() -> Self {
        StampedMap::new()
    }
}

impl<V: Copy + Default> StampedMap<V> {
    const MIN_SLOTS: usize = 64;
    /// Slots a nearly empty table keeps on reset (24 KiB of `f64` slots):
    /// room for the ≈ 150 memo entries of a 36-clause point lineage, which
    /// a 256-slot floor still regrew to 512.
    const SHRINK_FLOOR: usize = 1024;

    /// An empty table; the slots are allocated by the first insert.
    pub fn new() -> Self {
        StampedMap {
            slots: Vec::new(),
            stamp: 1,
            len: 0,
        }
    }

    /// Forgets every entry. A table that holds none is left as it is, so
    /// resetting twice in a row does not halve it twice.
    pub fn reset(&mut self) {
        if self.len == 0 {
            return;
        }
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

    /// The value stored under `key` in the current generation.
    #[inline]
    pub fn get(&self, key: [u32; 3]) -> Option<V> {
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
    pub fn insert(&mut self, key: [u32; 3], value: V) {
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
    pub fn heap_bytes(&self) -> usize {
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

#[cfg(test)]
mod tests {
    use super::*;

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
