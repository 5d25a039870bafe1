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
//! overflow the thread stack. The DNF fold ([`NodeStore::fold`]) walks the
//! clauses sorted into a trie: a shared prefix is built once, level-disjoint
//! parts are concatenated, and `apply` runs only where levels interleave.
//! It polls its cooperative [`EvalBudget`] between top-level runs and every
//! 1024 steps or apply frames, and refuses past a node cap
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

/// A range of the fold's sorted clauses that share their first `depth`
/// levels, with its runs from `end` on folded into `acc`.
#[derive(Debug, Clone, Copy)]
struct TrieFrame {
    start: u32,
    end: u32,
    depth: u32,
    acc: NodeId,
    /// The level of the run being built as a nested range.
    level: u32,
    /// Whether that run's tails interleave with `acc`, so that the nested
    /// range was built on the `0`-sink and is joined to `acc` by `apply`.
    apply: bool,
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
    /// `(sort key, start, end)` of each clause in `levels`, sorted by the
    /// fold.
    spans: Vec<(u64, u32, u32)>,
    frames: Vec<Frame>,
    results: Vec<NodeId>,
    trie: Vec<TrieFrame>,
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
            trie: Vec::new(),
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
            + vec_bytes(&self.trie)
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

    /// The diagram of a DNF, as one operation: the OR of its clauses (a
    /// clause is a conjunction of positive literals; repeats allowed).
    ///
    /// Each clause's levels land sorted, a repeated literal once, in one
    /// flat buffer, and the clauses are sorted ascending by their level
    /// sequences (a key of the first two levels, the rest breaking ties),
    /// whatever order they arrive in. The sorted clauses are a trie: the
    /// clauses of a range that share a prefix share their next level `x` in
    /// runs. The fold walks it bottom-up, each range's runs deepest `x`
    /// first, one node per run: `acc = mk(x, acc, hi)`, where `hi` is the
    /// run's tails OR `acc`. A clause that ends at `x` makes `hi` the
    /// `1`-sink (absorbing the run's longer clauses and duplicates). Tails
    /// whose levels all lie above `acc`'s top level are built on top of
    /// `acc` as their `0`-sink, a concatenation (Section 4.2); only tails
    /// that interleave with `acc` are built on the `0`-sink alone and
    /// joined to it by one `apply`. So a shared prefix is built once, and a
    /// lineage whose clauses occupy disjoint level ranges runs no `apply`.
    /// Canonicity makes the root the one any clause-by-clause fold reaches.
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
            // A tuple repeated in a clause tests its level once.
            let mut kept = usize::from(!levels.is_empty());
            for i in 1..levels.len() {
                if levels[i] != levels[kept - 1] {
                    levels[kept] = levels[i];
                    kept += 1;
                }
            }
            let levels = &levels[..kept];
            // The first two levels, each one up so that a missing second
            // level sorts first: the key orders spans as their level
            // sequences do, up to ties the sequences' tails break.
            let key = |i: usize| levels.get(i).map_or(0, |&l| u64::from(l) + 1);
            let key = key(0) << 32 | key(1);
            self.levels.truncate(start + kept);
            self.spans
                .push((key, start as u32, self.levels.len() as u32));
        }
        self.fold_trie()
    }

    /// The fold proper, over the clauses `fold` collected (apart from it,
    /// so that only the collection is compiled per clause source).
    fn fold_trie(&mut self) -> Result<NodeId> {
        self.begin();
        let levels = &self.levels;
        let of = |&(_, start, end): &(u64, u32, u32)| &levels[start as usize..end as usize];
        self.spans
            .sort_unstable_by(|a, b| a.0.cmp(&b.0).then_with(|| of(a).cmp(of(b))));
        match self.spans.first() {
            None => return Ok(FALSE),
            // The empty clause sorts first, and absorbs every other.
            Some(&(_, start, end)) if start == end => return Ok(TRUE),
            Some(_) => {}
        }

        self.trie.clear();
        self.trie.push(TrieFrame {
            start: 0,
            end: self.spans.len() as u32,
            depth: 0,
            acc: FALSE,
            level: 0,
            apply: false,
        });
        // The root a finished range hands to the range it is a run of.
        let mut returned = None;
        loop {
            let last = self.trie.len() - 1;
            let mut top = self.trie[last];
            if let Some(tails) = returned.take() {
                let hi = if top.apply {
                    self.apply(BoolOp::Or, tails, top.acc)?
                } else {
                    tails
                };
                top.acc = self.mk(top.level, top.acc, hi);
                self.poll(top.depth == 0)?;
            }
            if top.start == top.end {
                self.trie.pop();
                if self.trie.is_empty() {
                    return Ok(top.acc);
                }
                returned = Some(top.acc);
                continue;
            }
            // The range's last run: the clauses whose level at `depth` is
            // the range's deepest, found by scanning back from its end.
            let d = top.depth;
            let at = |&(_, start, _): &(u64, u32, u32)| self.levels[(start + d) as usize];
            let run_end = top.end;
            let x = at(&self.spans[run_end as usize - 1]);
            let mut run = run_end - 1;
            let mut deepest = 0;
            loop {
                let (_, _, end) = self.spans[run as usize];
                deepest = deepest.max(self.levels[end as usize - 1]);
                if run == top.start || at(&self.spans[run as usize - 1]) != x {
                    break;
                }
                run -= 1;
            }
            top.end = run;
            let (_, start, end) = self.spans[run as usize];
            if end - start == d + 1 {
                // The run's first clause ends at `x`.
                top.acc = self.mk(x, top.acc, TRUE);
                self.trie[last] = top;
                self.poll(d == 0)?;
                continue;
            }
            top.level = x;
            top.apply = deepest >= self.level(top.acc);
            let base = if top.apply { FALSE } else { top.acc };
            self.trie[last] = top;
            self.trie.push(TrieFrame {
                start: run,
                end: run_end,
                depth: d + 1,
                acc: base,
                level: 0,
                apply: false,
            });
        }
    }

    /// After a `mk` of the fold: refuses past the node cap, and polls the
    /// budget after every top-level run (`every_time`) and otherwise every
    /// 1024 calls.
    fn poll(&mut self, every_time: bool) -> Result<()> {
        if self.nodes.len() > self.node_cap {
            return Err(self.refusal());
        }
        self.tick = self.tick.wrapping_add(1);
        if every_time || self.tick & POLL_MASK == 0 {
            if let Some(budget) = &self.budget {
                budget.check()?;
            }
        }
        Ok(())
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
    use std::sync::Arc;
    use std::time::Duration;

    use proptest::collection;
    use proptest::prelude::*;

    use super::*;
    use crate::RefManager;

    const VARS: u32 = 12;

    /// Distinct weights, so that a structural disagreement cannot hide
    /// behind symmetric ones.
    fn prob_of(t: TupleId) -> f64 {
        0.03 + 0.07 * f64::from(t.0)
    }

    /// A random variable order (the variables sorted by random keys) and a
    /// random DNF under it: short clauses over a few variables share
    /// prefixes and repeat literals, and each case adds repeats of some
    /// clauses, level prefixes of others (which absorb them) and, now and
    /// then, the empty clause.
    fn ordered_dnf() -> impl Strategy<Value = (Vec<TupleId>, Vec<Vec<u32>>)> {
        let keys = collection::vec(0..u32::MAX, VARS as usize);
        let clauses = collection::vec(collection::vec(0..VARS, 1..6), 0..24);
        let picks = collection::vec((0..usize::MAX, 0..4usize), 0..6);
        (keys, clauses, picks, 0..20u32).prop_map(|(keys, mut clauses, picks, empty)| {
            let mut vars: Vec<u32> = (0..VARS).collect();
            vars.sort_by_key(|&v| keys[v as usize]);
            for (pick, cut) in picks {
                if clauses.is_empty() {
                    break;
                }
                let mut clause = clauses[pick % clauses.len()].clone();
                if cut > 0 {
                    clause.sort_by_key(|&v| keys[v as usize]);
                    clause.truncate(cut);
                }
                clauses.push(clause);
            }
            if empty == 0 {
                clauses.push(Vec::new());
            }
            (vars.into_iter().map(TupleId).collect(), clauses)
        })
    }

    fn tuples(clause: &[u32]) -> Vec<TupleId> {
        clause.iter().copied().map(TupleId).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The trie fold builds the diagram the reference's clause-by-clause
        /// `apply_or` builds, under any variable order and clause order, and
        /// a node-cap or deadline trip in the middle of a fold leaves the
        /// store canonical and the next fold right.
        #[test]
        fn trie_fold_agrees_with_clause_by_clause_reference(
            dnf in ordered_dnf(),
            cap in 0..64usize,
            deadline_ns in 0..20_000u64,
        ) {
            let (permutation, clauses) = &dnf;
            let order = Arc::new(VarOrder::from_tuples(permutation.iter().copied()));
            let mut reference = RefManager::new(Arc::clone(&order));
            let mut expected = RefManager::constant(false);
            for clause in clauses {
                let c = reference.clause(&tuples(clause)).unwrap();
                expected = reference.apply_or(expected, c);
            }
            let clauses: Vec<Vec<TupleId>> = clauses.iter().map(|c| tuples(c)).collect();
            let slices = || clauses.iter().map(Vec::as_slice);

            let mut store = NodeStore::new();
            store.set_node_cap(cap);
            match store.fold(&order, slices()) {
                Err(ObddError::NodeBudgetExceeded { allocated, budget }) => {
                    prop_assert_eq!(budget, cap);
                    prop_assert!(allocated > cap);
                }
                other => prop_assert!(other.is_ok(), "{other:?}"),
            }
            prop_assert_eq!(store.canonicity_violation(), None);
            store.set_node_cap(usize::MAX);
            store.set_budget(Some(EvalBudget::with_deadline(Duration::from_nanos(deadline_ns))));
            match store.fold(&order, slices()) {
                Err(ObddError::Budget(_)) | Ok(_) => {}
                Err(other) => prop_assert!(false, "{other:?}"),
            }
            prop_assert_eq!(store.canonicity_violation(), None);
            store.set_budget(None);

            let root = store.fold(&order, slices()).unwrap();
            prop_assert_eq!(store.canonicity_violation(), None);
            prop_assert_eq!(store.reachable(root).len(), reference.size(expected));
            annotate(store.nodes_mut(), &order, prob_of);
            let p = prob_at(store.nodes(), root);
            let rp = reference.probability(expected, &prob_of);
            prop_assert_eq!(p.to_bits(), rp.to_bits(), "{} vs {}", p, rp);
        }
    }

    /// `(A1 ∨ A2) ∧ (B1 ∨ … ∨ B6)` as its twelve clauses, every `A` ordered
    /// before every `B`: the fold allocates the diagram's 8 nodes and no
    /// other. The `B` run of `A2` is built once; `A1`'s run, the same
    /// tails, is found in the unique table, and its one `apply` with `A2`'s
    /// node reduces to that run without allocating.
    #[test]
    fn a_shared_run_is_built_once() {
        let order = VarOrder::from_tuples((0..8).map(TupleId));
        let clauses: Vec<[TupleId; 2]> = (0..2)
            .flat_map(|a| (2..8).map(move |b| [TupleId(b), TupleId(a)]))
            .collect();
        let mut store = NodeStore::new();
        let root = store.fold(&order, clauses.iter().map(|c| &c[..])).unwrap();
        assert_eq!(store.reachable(root).len(), 8);
        let stats = store.stats();
        assert_eq!(stats.nodes_allocated, 8);
        assert_eq!(stats.apply_cache_misses, 1);
        assert_eq!(store.canonicity_violation(), None);
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
