//! The intersection algorithms of Section 4.3.
//!
//! Both algorithms compute `P0(Φ_W' ∧ Φ_Q)` where `Φ_W'` is (part of) the
//! compiled `¬W` diagram and `Φ_Q` is the (small) query diagram, built over
//! the same variable order:
//!
//! * [`mv_intersect`] — **MVIntersect**: a guided traversal of the index
//!   diagram, memoised on `(index node, query node)` pairs, with the
//!   `probUnder` shortcut: as soon as the query side reaches its `1`-sink the
//!   precomputed probability of the remaining index sub-diagram is used, so
//!   only the slice of the index between the first and last query variable is
//!   visited (Proposition 3).
//! * [`cc_mv_intersect`] — **CC-MVIntersect**: the same computation over a
//!   cache-conscious layout: the index nodes are flattened into a DFS-ordered
//!   vector carrying `probUnder` and the variable probability inline, so the
//!   traversal takes no lock and chases no arena pointers.
//!
//! Both memoise on the pairs they actually visit — `O(|slice| + |query|)`
//! for the width-1 diagrams of inversion-free queries — never on the
//! `|index| × |query|` product, and by *presence*, not by a sentinel value:
//! translated probabilities overflow to NaN by construction, and a NaN pair
//! that is not memoised is re-expanded on every path that reaches it.
//!
//! Query diagrams live in shared [`mv_obdd::ObddManager`] arenas whose node
//! ids are global, so both algorithms consume a [`QueryView`] — a compact,
//! reachable-only flattening of the query OBDD with per-node sub-diagram
//! probabilities. Building one is linear in the query diagram, independent
//! of how many other diagrams share the arena.

use fxhash::FxHashMap;
use mv_obdd::obdd::{FALSE, TRUE};
use mv_obdd::{NodeId, Obdd};
use mv_pdb::TupleId;

use crate::augmented::AugmentedObdd;

/// Compact position of the `false` sink in every flattened diagram form
/// ([`QueryView`] and [`CcLayout`]).
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

/// Maps an arena id to its compact position (sinks to the shared markers).
fn compact_of(id: NodeId, position: &FxHashMap<NodeId, u32>) -> u32 {
    match id {
        TRUE => QV_TRUE,
        FALSE => QV_FALSE,
        other => position[&other],
    }
}

/// One flattened query node.
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
    /// Probability of the sub-diagram rooted at the node.
    pub prob: f64,
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
        let probs = query.node_probabilities(prob_of);
        Self::build(query, &probs, prob_of)
    }

    /// Like [`QueryView::new`], but per-node probabilities are served from
    /// the query manager's weight-epoch cache — sub-diagrams shared with
    /// earlier queries of the same shard are not re-expanded. `prob_of`
    /// must be the weight function the manager's current epoch stands for.
    pub fn new_cached(query: &Obdd, prob_of: impl Fn(TupleId) -> f64 + Copy) -> QueryView {
        let probs = query.node_probabilities_cached(prob_of);
        Self::build(query, &probs, prob_of)
    }

    fn build(
        query: &Obdd,
        probs: &mv_obdd::NodeProbs,
        prob_of: impl Fn(TupleId) -> f64 + Copy,
    ) -> QueryView {
        let root = query.root();
        if root == TRUE || root == FALSE {
            return QueryView {
                nodes: Vec::new(),
                root: if root == TRUE { QV_TRUE } else { QV_FALSE },
            };
        }
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
                    prob: probs.get(id),
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
        match v {
            QV_TRUE => 1.0,
            QV_FALSE => 0.0,
            other => self.nodes[other as usize].prob,
        }
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

/// Computes `P0(index ∧ query)` by guided traversal with hash-map
/// memoisation (the MVIntersect algorithm).
pub fn mv_intersect(
    index: &AugmentedObdd,
    query: &QueryView,
    prob_of: impl Fn(TupleId) -> f64 + Copy,
) -> f64 {
    let w = index.obdd();
    let w_arena = w.nodes();
    let order = w.order();
    let mut memo: FxHashMap<(NodeId, u32), f64> = FxHashMap::default();

    // Iterative two-phase traversal (expand / combine) to support very deep
    // index diagrams without recursion.
    enum Frame {
        Expand(NodeId, u32),
        Combine(NodeId, u32, f64),
    }
    let mut stack = vec![Frame::Expand(w.root(), query.root())];
    let mut results: Vec<f64> = Vec::new();
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Expand(u, v) => {
                // Terminal shortcuts: a lookup each, not worth a memo entry.
                if v == QV_FALSE || u == FALSE {
                    results.push(0.0);
                    continue;
                }
                if v == QV_TRUE {
                    results.push(index.prob_under(u));
                    continue;
                }
                if u == TRUE {
                    results.push(query.prob(v));
                    continue;
                }
                if let Some(&p) = memo.get(&(u, v)) {
                    results.push(p);
                    continue;
                }
                let un = w_arena.node(u);
                let vn = query.node(v);
                let m = un.level.min(vn.level);
                let (u0, u1) = if un.level == m {
                    (un.lo, un.hi)
                } else {
                    (u, u)
                };
                let (v0, v1) = if vn.level == m {
                    (vn.lo, vn.hi)
                } else {
                    (v, v)
                };
                let p_var = if vn.level == m {
                    vn.p_var
                } else {
                    prob_of(order.tuple_at(m))
                };
                stack.push(Frame::Combine(u, v, p_var));
                stack.push(Frame::Expand(u1, v1));
                stack.push(Frame::Expand(u0, v0));
            }
            Frame::Combine(u, v, p_var) => {
                let p1 = results.pop().expect("hi probability available");
                let p0 = results.pop().expect("lo probability available");
                let p = (1.0 - p_var) * p0 + p_var * p1;
                memo.insert((u, v), p);
                results.push(p);
            }
        }
    }
    results.pop().expect("intersection produces a probability")
}

/// A node of the cache-conscious flattened index.
#[derive(Debug, Clone, Copy)]
struct CcNode {
    /// Level of the node's variable.
    level: u32,
    /// Flat position of the 0-child, or the sink markers below.
    lo: u32,
    /// Flat position of the 1-child, or the sink markers below.
    hi: u32,
    /// `probUnder` of the node.
    prob_under: f64,
    /// Probability of the node's variable.
    p_var: f64,
}

/// A flattened, DFS-ordered copy of an augmented OBDD, ready for
/// cache-conscious intersection. Build it once per index slice and reuse it
/// across queries.
#[derive(Debug, Clone)]
pub struct CcLayout {
    nodes: Vec<CcNode>,
    root: u32,
}

impl CcLayout {
    /// Flattens the reachable part of the augmented diagram in DFS pre-order.
    pub fn new(index: &AugmentedObdd, prob_of: impl Fn(TupleId) -> f64 + Copy) -> Self {
        let w = index.obdd();
        if w.root() == TRUE || w.root() == FALSE {
            return CcLayout {
                nodes: Vec::new(),
                root: if w.root() == TRUE { QV_TRUE } else { QV_FALSE },
            };
        }
        let arena = w.nodes();
        let order = w.order();
        let (visited, position) = flatten_pre_order(w.root(), &arena);
        let nodes = visited
            .iter()
            .map(|&id| {
                let node = arena.node(id);
                let tuple = order.tuple_at(node.level);
                CcNode {
                    level: node.level,
                    lo: compact_of(node.lo, &position),
                    hi: compact_of(node.hi, &position),
                    prob_under: index.prob_under(id),
                    p_var: prob_of(tuple),
                }
            })
            .collect();
        CcLayout {
            nodes,
            root: position[&w.root()],
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

/// Computes `P0(index ∧ query)` over a cache-conscious layout
/// (the CC-MVIntersect algorithm). Both operands are pre-flattened, so the
/// traversal touches no locks and no arena; the memo holds the visited
/// `(layout position, query position)` pairs only.
pub fn cc_mv_intersect(layout: &CcLayout, query: &QueryView) -> f64 {
    // Constant index diagrams.
    if layout.is_empty() {
        return if layout.root == QV_TRUE {
            query.root_prob()
        } else {
            0.0
        };
    }
    if query.is_empty() {
        return if query.root() == QV_TRUE {
            layout.nodes[layout.root as usize].prob_under
        } else {
            0.0
        };
    }
    let mut memo: FxHashMap<(u32, u32), f64> = FxHashMap::default();

    enum Frame {
        Expand(u32, u32),
        Combine(u32, u32, f64),
    }
    let mut stack = vec![Frame::Expand(layout.root, query.root())];
    let mut results: Vec<f64> = Vec::new();
    while let Some(frame) = stack.pop() {
        match frame {
            Frame::Expand(u, v) => {
                if v == QV_FALSE || u == QV_FALSE {
                    results.push(0.0);
                    continue;
                }
                if u == QV_TRUE {
                    results.push(query.prob(v));
                    continue;
                }
                let un = layout.nodes[u as usize];
                if v == QV_TRUE {
                    results.push(un.prob_under);
                    continue;
                }
                if let Some(&p) = memo.get(&(u, v)) {
                    results.push(p);
                    continue;
                }
                let vn = query.node(v);
                let m = un.level.min(vn.level);
                let (u0, u1) = if un.level == m {
                    (un.lo, un.hi)
                } else {
                    (u, u)
                };
                let (v0, v1) = if vn.level == m {
                    (vn.lo, vn.hi)
                } else {
                    (v, v)
                };
                // The branching variable's probability is stored on
                // whichever flattened side owns the level.
                let p_var = if un.level == m { un.p_var } else { vn.p_var };
                stack.push(Frame::Combine(u, v, p_var));
                stack.push(Frame::Expand(u1, v1));
                stack.push(Frame::Expand(u0, v0));
            }
            Frame::Combine(u, v, p_var) => {
                let p1 = results.pop().expect("hi probability available");
                let p0 = results.pop().expect("lo probability available");
                let p = (1.0 - p_var) * p0 + p_var * p1;
                memo.insert((u, v), p);
                results.push(p);
            }
        }
    }
    results.pop().expect("intersection produces a probability")
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
}
