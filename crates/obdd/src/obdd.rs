//! The OBDD handle type.
//!
//! An [`Obdd`] is a reduced, ordered binary decision diagram over the tuple
//! variables of a probabilistic database: a cheap `{manager, root}` handle
//! into an [`ObddManager`]'s node store. Cloning a diagram, combining two
//! diagrams, or keeping thousands of per-view diagrams alive never
//! duplicates node storage.
//!
//! Operations:
//!
//! * [`Obdd::apply_or`] / [`Obdd::apply_and`] — classical synthesis, running
//!   in `O(|G1| · |G2|)`;
//! * [`Obdd::concat_or`] / [`Obdd::concat_and`] and the n-ary
//!   [`Obdd::concat_many_or`] — the *concatenation*
//!   operation of Section 4.2 for diagrams over disjoint, level-separated
//!   variable ranges: edges to the `0`-sink (resp. `1`-sink) of the first
//!   diagram are redirected to the root of the second. Linear in the
//!   *first* diagram only — the second diagram's nodes are reused in place;
//! * [`Obdd::negate`] — swaps the sinks;
//! * [`Obdd::flatten`] / [`Obdd::probability`] — the reachable part copied
//!   out children first and annotated by the store's ascending
//!   Shannon-expansion sweep, without recursion, so that very deep
//!   (concatenated) diagrams do not overflow the stack; correct for
//!   negative probabilities.
//!
//! Both operands of a combination live in one manager: combining handles of
//! two different managers returns [`ObddError::ManagerMismatch`].

use std::sync::Arc;

use fxhash::FxHashMap;
use mv_pdb::TupleId;

use crate::error::ObddError;
use crate::manager::{ObddManager, ObddNodes};
use crate::order::VarOrder;
use crate::store::{prob_at, BoolOp};
use crate::Result;

/// A node's position in its store, or one of the two sink markers.
pub type NodeId = u32;

/// The `false` sink: a marker above every position, in every store and in
/// every node slice copied out of one.
pub const FALSE: NodeId = u32::MAX;
/// The `true` sink.
pub const TRUE: NodeId = u32::MAX - 1;

/// Level value used for the two sinks.
pub const SINK_LEVEL: u32 = u32::MAX;

/// One internal node of an OBDD, in a store or in a node slice copied out
/// of one (the MV-index's block table, a flattened diagram): the one node
/// record of the workspace. `p_var` and `prob` are filled by an annotation
/// sweep ([`crate::store::annotate`]) and are 0 until then.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObddNode {
    /// The level (position in the variable order) of the node's variable.
    pub level: u32,
    /// Child followed when the variable is `false`.
    pub lo: NodeId,
    /// Child followed when the variable is `true`.
    pub hi: NodeId,
    /// Probability of the node's variable.
    pub p_var: f64,
    /// Probability of the sub-diagram rooted at the node (`probUnder`).
    pub prob: f64,
}

/// A reduced ordered binary decision diagram: a root inside a shared
/// [`ObddManager`]. Cloning is O(1).
#[derive(Debug, Clone)]
pub struct Obdd {
    manager: ObddManager,
    root: NodeId,
}

impl Obdd {
    pub(crate) fn from_parts(manager: ObddManager, root: NodeId) -> Obdd {
        Obdd { manager, root }
    }

    /// The manager this handle lives in.
    pub fn manager(&self) -> &ObddManager {
        &self.manager
    }

    /// The shared variable order.
    pub fn order(&self) -> &Arc<VarOrder> {
        self.manager.order()
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The node behind an id (one shared-lock acquisition per call; use
    /// [`Obdd::nodes`] in traversal loops).
    pub fn node(&self, id: NodeId) -> ObddNode {
        self.nodes().node(id)
    }

    /// A read guard over the manager's store for tight loops.
    pub fn nodes(&self) -> ObddNodes<'_> {
        self.manager.nodes()
    }

    /// `true` when the id denotes a sink.
    pub fn is_sink(&self, id: NodeId) -> bool {
        id == TRUE || id == FALSE
    }

    /// The tuple variable labelling a node.
    pub fn tuple_of(&self, id: NodeId) -> Option<TupleId> {
        if self.is_sink(id) {
            None
        } else {
            Some(self.order().tuple_at(self.node(id).level))
        }
    }

    /// Total number of nodes in the *shared* store (including the two sinks
    /// and every node of every other diagram in the manager). A capacity
    /// figure, not the size of this diagram — see [`Obdd::size`].
    pub fn store_size(&self) -> usize {
        self.manager.num_nodes()
    }

    /// Number of internal nodes reachable from the root ("the size of the
    /// OBDD" in the paper's terminology).
    pub fn size(&self) -> usize {
        self.nodes().reachable(self.root).len()
    }

    /// The width of the diagram: the maximum number of reachable nodes
    /// labelled with the same variable.
    pub fn width(&self) -> usize {
        let nodes = self.nodes();
        let mut per_level: FxHashMap<u32, usize> = FxHashMap::default();
        for id in nodes.reachable(self.root) {
            *per_level.entry(nodes.level(id)).or_default() += 1;
        }
        per_level.values().copied().max().unwrap_or(0)
    }

    /// Ids of the internal nodes reachable from the root (iterative DFS).
    pub fn reachable_ids(&self) -> Vec<NodeId> {
        self.nodes().reachable(self.root)
    }

    /// The smallest and largest levels of reachable internal nodes, if any.
    pub fn level_range(&self) -> Option<(u32, u32)> {
        let nodes = self.nodes();
        let levels = nodes
            .reachable(self.root)
            .into_iter()
            .map(|id| nodes.level(id));
        levels.fold(None, |range, l| match range {
            None => Some((l, l)),
            Some((min, max)) => Some((l.min(min), l.max(max))),
        })
    }

    /// The root of `other`, which must live in this handle's manager.
    fn coresident_root(&self, other: &Obdd) -> Result<NodeId> {
        if self.manager.same_arena(&other.manager) {
            Ok(other.root)
        } else {
            Err(ObddError::ManagerMismatch)
        }
    }

    /// Synthesis of the disjunction `self ∨ other`.
    pub fn apply_or(&self, other: &Obdd) -> Result<Obdd> {
        let b = self.coresident_root(other)?;
        let root = self.manager.apply_roots(BoolOp::Or, self.root, b);
        Ok(Obdd::from_parts(self.manager.clone(), root))
    }

    /// Synthesis of the conjunction `self ∧ other`.
    pub fn apply_and(&self, other: &Obdd) -> Result<Obdd> {
        let b = self.coresident_root(other)?;
        let root = self.manager.apply_roots(BoolOp::And, self.root, b);
        Ok(Obdd::from_parts(self.manager.clone(), root))
    }

    /// The negation of the diagram (the two sinks are swapped).
    pub fn negate(&self) -> Obdd {
        let root = self.manager.write().negate(self.root);
        Obdd::from_parts(self.manager.clone(), root)
    }

    /// Concatenation for disjunction (Section 4.2): every edge to the
    /// `0`-sink of `self` is redirected to the root of `other`, computing
    /// `self ∨ other` in time linear in `self` (the nodes of `other` are
    /// shared, not copied).
    ///
    /// Requires the two diagrams to live on disjoint level ranges with every
    /// level of `self` smaller than every level of `other`; otherwise the
    /// result would violate the variable order and an [`ObddError`] is
    /// returned. Use [`Obdd::apply_or`] in that case.
    pub fn concat_or(&self, other: &Obdd) -> Result<Obdd> {
        self.concat(other, false)
    }

    /// Concatenation for conjunction: every edge to the `1`-sink of `self`
    /// is redirected to the root of `other`, computing `self ∧ other`.
    pub fn concat_and(&self, other: &Obdd) -> Result<Obdd> {
        self.concat(other, true)
    }

    fn concat(&self, other: &Obdd, and: bool) -> Result<Obdd> {
        let b = self.coresident_root(other)?;
        if !self.levels_precede(other) {
            return Err(ObddError::OrderMismatch);
        }
        let root = self.manager.write().concat(and, self.root, b);
        Ok(Obdd::from_parts(self.manager.clone(), root))
    }

    /// `true` when every reachable internal level of `self` is strictly less
    /// than every reachable internal level of `other` (or either diagram is
    /// constant).
    pub fn levels_precede(&self, other: &Obdd) -> bool {
        match (self.level_range(), other.level_range()) {
            (Some((_, max_a)), Some((min_b, _))) => max_a < min_b,
            _ => true,
        }
    }

    /// n-ary disjunctive concatenation: combines `parts` (ordered by level
    /// range, all in `manager`) into a single diagram of `manager` in one
    /// pass, linear in the sum of the part sizes. No part is copied.
    ///
    /// The parts are chained back to front: every part is rebuilt exactly
    /// once, with its `0`-sink redirected to the already finished tail. A
    /// front-to-back fold of binary concatenations rebuilds the growing
    /// prefix at every step instead — quadratic in the number of parts.
    pub fn concat_many_or(manager: &ObddManager, parts: &[Obdd]) -> Result<Obdd> {
        // Level separation must hold across *all* pairs; walking back to
        // front with a running minimum handles constant parts in between.
        let mut min_later = u32::MAX;
        for part in parts.iter().rev() {
            if !manager.same_arena(&part.manager) {
                return Err(ObddError::ManagerMismatch);
            }
            if let Some((lo, hi)) = part.level_range() {
                if hi >= min_later {
                    return Err(ObddError::OrderMismatch);
                }
                min_later = lo;
            }
        }
        // `false` is the identity; a `true` part resets the tail.
        let mut store = manager.write();
        let mut tail = FALSE;
        for part in parts.iter().rev() {
            tail = store.concat(false, part.root, tail);
        }
        drop(store);
        Ok(Obdd::from_parts(manager.clone(), tail))
    }

    /// Evaluates the diagram under a truth assignment of the tuple variables.
    pub fn eval(&self, assignment: impl Fn(TupleId) -> bool) -> bool {
        let nodes = self.nodes();
        let order = self.order();
        let mut id = self.root;
        while id != TRUE && id != FALSE {
            let node = nodes.node(id);
            let tuple = order.tuple_at(node.level);
            id = if assignment(tuple) { node.hi } else { node.lo };
        }
        id == TRUE
    }

    /// The reachable part of the diagram copied out of the store children
    /// first (DFS post-order, the 0-edge first) and annotated for `prob_of`:
    /// every node's variable probability and `probUnder` inline, children
    /// positions in the returned slice or sink markers. Returns the slice
    /// and the root's position (a sink marker for a constant diagram).
    pub fn flatten(&self, prob_of: impl Fn(TupleId) -> f64) -> (Vec<ObddNode>, NodeId) {
        let (nodes, _, root) = self.manager.flatten(self.root, prob_of);
        (nodes, root)
    }

    /// The probability of the Boolean function represented by the diagram,
    /// under the given per-tuple probabilities (Shannon expansion,
    /// Section 4.1). Valid for negative probabilities. Computed from
    /// scratch on every call.
    pub fn probability(&self, prob_of: impl Fn(TupleId) -> f64) -> f64 {
        let (nodes, root) = self.flatten(prob_of);
        prob_at(&nodes, root)
    }

    /// The probability of the sub-diagram rooted at every reachable node
    /// (`probUnder` in the paper's terminology), keyed by node id, sinks
    /// included. Sparse: sized by this diagram, not by the shared store.
    pub fn node_probabilities(&self, prob_of: impl Fn(TupleId) -> f64) -> FxHashMap<NodeId, f64> {
        let (nodes, ids, _) = self.manager.flatten(self.root, prob_of);
        let mut out: FxHashMap<NodeId, f64> =
            ids.into_iter().zip(nodes.iter().map(|n| n.prob)).collect();
        out.insert(FALSE, 0.0);
        out.insert(TRUE, 1.0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manager(n: u32) -> ObddManager {
        ObddManager::new(Arc::new(VarOrder::from_tuples((0..n).map(TupleId))))
    }

    #[test]
    fn constants_and_literals() {
        let m = manager(3);
        let t = m.constant(true);
        let f = m.constant(false);
        assert_eq!(t.root(), TRUE);
        assert_eq!(f.root(), FALSE);
        assert_eq!(t.size(), 0);
        let x1 = m.literal(TupleId(1)).unwrap();
        assert_eq!(x1.size(), 1);
        assert!(x1.eval(|t| t == TupleId(1)));
        assert!(!x1.eval(|_| false));
        assert!(m.literal(TupleId(9)).is_err());
    }

    #[test]
    fn clause_builds_an_and_chain() {
        let m = manager(4);
        let c = m.clause(&[TupleId(2), TupleId(0)]).unwrap();
        assert_eq!(c.size(), 2);
        assert!(c.eval(|t| t == TupleId(0) || t == TupleId(2)));
        assert!(!c.eval(|t| t == TupleId(0)));
        let p = c.probability(|_| 0.5);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn apply_or_and_match_truth_tables() {
        let m = manager(2);
        let x0 = m.literal(TupleId(0)).unwrap();
        let x1 = m.literal(TupleId(1)).unwrap();
        let or = x0.apply_or(&x1).unwrap();
        let and = x0.apply_and(&x1).unwrap();
        for mask in 0..4u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(or.eval(assign), assign(TupleId(0)) || assign(TupleId(1)));
            assert_eq!(and.eval(assign), assign(TupleId(0)) && assign(TupleId(1)));
        }
        assert!((or.probability(|_| 0.5) - 0.75).abs() < 1e-12);
        assert!((and.probability(|_| 0.5) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn reduction_shares_nodes_and_collapses_redundant_tests() {
        let m = manager(2);
        // x0 ∨ ¬x0 should reduce to the constant true.
        let x0 = m.literal(TupleId(0)).unwrap();
        let not_x0 = x0.negate();
        let taut = x0.apply_or(&not_x0).unwrap();
        assert_eq!(taut.root(), TRUE);
        assert_eq!(taut.size(), 0);
    }

    #[test]
    fn negate_swaps_semantics_and_probability() {
        let m = manager(3);
        let c = m.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let n = c.negate();
        for mask in 0..8u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(n.eval(assign), !c.eval(assign));
        }
        let p = c.probability(|_| 0.3);
        let np = n.probability(|_| 0.3);
        assert!((p + np - 1.0).abs() < 1e-12);
    }

    #[test]
    fn concatenation_matches_synthesis_on_disjoint_blocks() {
        let manager = manager(4);
        let a = manager.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let b = manager.clause(&[TupleId(2), TupleId(3)]).unwrap();
        let by_concat = a.concat_or(&b).unwrap();
        let by_apply = a.apply_or(&b).unwrap();
        for mask in 0..16u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(by_concat.eval(assign), by_apply.eval(assign));
        }
        assert!((by_concat.probability(|_| 0.5) - by_apply.probability(|_| 0.5)).abs() < 1e-12);
        // Canonicity in a shared arena: both routes reach the same root.
        assert_eq!(by_concat.root(), by_apply.root());
        // Size of a concatenation is the sum of the parts.
        assert_eq!(by_concat.size(), a.size() + b.size());
    }

    #[test]
    fn concat_and_matches_apply_and() {
        let m = manager(4);
        let a = m.clause(&[TupleId(0)]).unwrap();
        let b = m.clause(&[TupleId(3)]).unwrap();
        let c = a.concat_and(&b).unwrap();
        let d = a.apply_and(&b).unwrap();
        for mask in 0..16u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(c.eval(assign), d.eval(assign));
        }
    }

    #[test]
    fn concatenation_rejects_interleaved_levels() {
        let m = manager(4);
        let a = m.clause(&[TupleId(0), TupleId(2)]).unwrap();
        let b = m.clause(&[TupleId(1), TupleId(3)]).unwrap();
        assert!(matches!(a.concat_or(&b), Err(ObddError::OrderMismatch)));
    }

    #[test]
    fn concat_many_or_combines_blocks_linearly() {
        let manager = manager(6);
        let parts: Vec<Obdd> = (0..3)
            .map(|i| {
                manager
                    .clause(&[TupleId(2 * i), TupleId(2 * i + 1)])
                    .unwrap()
            })
            .collect();
        let combined = Obdd::concat_many_or(&manager, &parts).unwrap();
        assert!(combined.manager().same_arena(&manager));
        assert_eq!(combined.size(), 6);
        // P = 1 - (1 - 0.25)^3 with p = 0.5 everywhere.
        let p = combined.probability(|_| 0.5);
        assert!((p - (1.0 - 0.75f64.powi(3))).abs() < 1e-12);
        // Width stays 1: this is the hallmark of inversion-free concatenation.
        assert_eq!(combined.width(), 1);
    }

    #[test]
    fn concat_many_or_handles_constants() {
        let m = manager(2);
        let parts = vec![m.constant(false), m.clause(&[TupleId(1)]).unwrap()];
        let combined = Obdd::concat_many_or(&m, &parts).unwrap();
        assert_eq!(combined.size(), 1);
        let parts = vec![m.constant(true), m.clause(&[TupleId(1)]).unwrap()];
        let combined = Obdd::concat_many_or(&m, &parts).unwrap();
        assert_eq!(combined.root(), TRUE);
    }

    #[test]
    fn concat_many_or_on_empty_and_singleton_lists() {
        // Regression: the n-ary fold must behave on degenerate part lists.
        let m = manager(3);
        let empty = Obdd::concat_many_or(&m, &[]).unwrap();
        assert_eq!(empty.root(), FALSE);
        assert_eq!(empty.size(), 0);
        let single = m.clause(&[TupleId(0), TupleId(2)]).unwrap();
        let combined = Obdd::concat_many_or(&m, std::slice::from_ref(&single)).unwrap();
        assert_eq!(combined.size(), single.size());
        for mask in 0..8u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(combined.eval(assign), single.eval(assign));
        }
        // A singleton is passed through without copying.
        assert!(combined.manager().same_arena(single.manager()));
        assert_eq!(combined.root(), single.root());
    }

    #[test]
    fn order_mismatch_is_detected() {
        // Diagrams over different orders live in different managers.
        let a = manager(2).literal(TupleId(0)).unwrap();
        let b = manager(3).literal(TupleId(0)).unwrap();
        assert!(matches!(a.apply_or(&b), Err(ObddError::ManagerMismatch)));
    }

    #[test]
    fn combining_two_managers_is_a_typed_error() {
        // Equal orders in two different managers: nothing is imported, every
        // combination refuses with the typed error instead of panicking.
        let ord = Arc::new(VarOrder::from_tuples((0..2).map(TupleId)));
        let m = ObddManager::new(Arc::clone(&ord));
        let other = ObddManager::new(ord);
        let a = m.literal(TupleId(0)).unwrap();
        let b = other.literal(TupleId(1)).unwrap();
        assert!(matches!(a.apply_or(&b), Err(ObddError::ManagerMismatch)));
        assert!(matches!(a.apply_and(&b), Err(ObddError::ManagerMismatch)));
        assert!(matches!(a.concat_or(&b), Err(ObddError::ManagerMismatch)));
        assert!(matches!(a.concat_and(&b), Err(ObddError::ManagerMismatch)));
        assert!(matches!(
            Obdd::concat_many_or(&m, &[a.clone(), b]),
            Err(ObddError::ManagerMismatch)
        ));
        // Neither arena grew.
        assert_eq!(m.num_nodes(), 3);
        assert_eq!(other.num_nodes(), 3);
    }

    #[test]
    fn figure3_obdd_probability() {
        // Lineage X1Y1 ∨ X1Y2 ∨ X2Y3 ∨ X2Y4 in the order X1,Y1,Y2,X2,Y3,Y4.
        let manager = manager(6);
        let x1 = 0u32;
        let y1 = 1u32;
        let y2 = 2u32;
        let x2 = 3u32;
        let y3 = 4u32;
        let y4 = 5u32;
        let clauses = [
            vec![TupleId(x1), TupleId(y1)],
            vec![TupleId(x1), TupleId(y2)],
            vec![TupleId(x2), TupleId(y3)],
            vec![TupleId(x2), TupleId(y4)],
        ];
        let mut acc = manager.constant(false);
        for c in &clauses {
            let clause = manager.clause(c).unwrap();
            acc = acc.apply_or(&clause).unwrap();
        }
        // P = 1 - (1 - p(1-(1-p)^2))^2 with p = 0.5.
        let inner = 0.5 * (1.0 - 0.25);
        let expected = 1.0 - (1.0 - inner) * (1.0 - inner);
        assert!((acc.probability(|_| 0.5) - expected).abs() < 1e-12);
        // The OBDD of Figure 3 has 6 internal nodes.
        assert_eq!(acc.size(), 6);
        assert_eq!(acc.width(), 1);
    }

    #[test]
    fn negative_probabilities_propagate_through_shannon_expansion() {
        let m = manager(2);
        let x0 = m.literal(TupleId(0)).unwrap();
        let x1 = m.literal(TupleId(1)).unwrap();
        let both = x0.apply_and(&x1).unwrap();
        let p = both.probability(|t| if t == TupleId(0) { -2.0 } else { 0.5 });
        assert!((p - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn node_probabilities_expose_prob_under() {
        let m = manager(2);
        let x0 = m.literal(TupleId(0)).unwrap();
        let x1 = m.literal(TupleId(1)).unwrap();
        let or = x0.apply_or(&x1).unwrap();
        let probs = or.node_probabilities(|_| 0.5);
        assert_eq!(probs[&TRUE], 1.0);
        assert_eq!(probs[&FALSE], 0.0);
        assert!((probs[&or.root()] - 0.75).abs() < 1e-12);
        // Sparse: sized by the diagram (2 internal nodes + 2 sinks), not by
        // the arena.
        assert_eq!(probs.len(), or.size() + 2);
    }
}
