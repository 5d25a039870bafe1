//! The OBDD handle type.
//!
//! An [`Obdd`] is a reduced, ordered binary decision diagram over the tuple
//! variables of a probabilistic database. Since the manager refactor it is a
//! cheap `{manager, root}` handle into a shared, hash-consed
//! [`ObddManager`] arena: cloning a diagram, combining
//! two diagrams, or keeping thousands of per-view diagrams alive never
//! duplicates node storage.
//!
//! Operations:
//!
//! * [`Obdd::apply_or`] / [`Obdd::apply_and`] — classical synthesis, running
//!   in `O(|G1| · |G2|)` and memoised persistently in the manager;
//! * [`Obdd::concat_or`] / [`Obdd::concat_and`] and the n-ary
//!   [`Obdd::concat_many_or`] — the *concatenation*
//!   operation of Section 4.2 for diagrams over disjoint, level-separated
//!   variable ranges: edges to the `0`-sink (resp. `1`-sink) of the first
//!   diagram are redirected to the root of the second. Linear in the
//!   *first* diagram only — the second diagram's nodes are reused in place;
//! * [`Obdd::negate`] — swaps the sinks (memoised involution);
//! * [`Obdd::probability`] — Shannon-expansion probability, computed
//!   bottom-up without recursion so that very deep (concatenated) diagrams
//!   do not overflow the stack; correct for negative probabilities.
//!   [`Obdd::probability_cached`] additionally reuses the manager's
//!   per-node probability cache (keyed by the weight epoch).
//!
//! Combining handles from two *different* managers is supported when their
//! variable orders are equal: the other operand is imported (copied) into
//! this handle's manager first. That fallback is the only remaining copy
//! path; production code keeps each pipeline inside one manager.

use std::sync::Arc;

use mv_pdb::TupleId;

use crate::error::ObddError;
use crate::manager::{BoolOp, NodeProbs, ObddManager, ObddNodes};
use crate::order::VarOrder;
use crate::Result;

/// Index of a node inside an [`ObddManager`] arena.
pub type NodeId = u32;

/// The `false` sink.
pub const FALSE: NodeId = 0;
/// The `true` sink.
pub const TRUE: NodeId = 1;

/// Level value used for the two sink nodes.
pub const SINK_LEVEL: u32 = u32::MAX;

/// One internal node (or sink) of an OBDD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObddNode {
    /// The level (position in the variable order) of the node's variable;
    /// [`SINK_LEVEL`] for sinks.
    pub level: u32,
    /// Child followed when the variable is `false`.
    pub lo: NodeId,
    /// Child followed when the variable is `true`.
    pub hi: NodeId,
}

/// A reduced ordered binary decision diagram: a root inside a shared
/// [`ObddManager`]. Cloning is O(1).
#[derive(Debug, Clone)]
pub struct Obdd {
    manager: ObddManager,
    root: NodeId,
    /// The manager's compaction generation when the handle was taken. A
    /// compaction remaps every node id, so a handle from an earlier
    /// generation must never be dereferenced — unless its root was
    /// registered and the handle rehydrated via
    /// [`ObddManager::registered_obdd`]. Checked by `debug_assert` on every
    /// dereferencing operation.
    generation: u64,
}

impl Obdd {
    pub(crate) fn from_parts(manager: ObddManager, root: NodeId) -> Obdd {
        let generation = manager.generation();
        Obdd {
            manager,
            root,
            generation,
        }
    }

    /// Asserts (debug builds) that the arena has not been compacted since
    /// this handle was taken: post-compaction, the raw root id points at an
    /// arbitrary remapped node and silently reading it would return wrong
    /// diagrams/probabilities. Registered roots survive — rehydrate through
    /// [`ObddManager::registered_obdd`] instead of holding raw handles.
    #[inline]
    fn assert_current_generation(&self) {
        debug_assert_eq!(
            self.generation,
            self.manager.generation(),
            "stale Obdd handle dereferenced after an arena compaction; \
             register the root and rehydrate via ObddManager::registered_obdd"
        );
    }

    /// The constant diagram `true` or `false` (in a fresh single-diagram
    /// manager; use [`ObddManager::constant`] to build into a shared one).
    pub fn constant(order: Arc<VarOrder>, value: bool) -> Self {
        ObddManager::new(order).constant(value)
    }

    /// The diagram of a single positive literal (fresh manager; see
    /// [`ObddManager::literal`] for the shared-arena variant).
    pub fn literal(order: Arc<VarOrder>, tuple: TupleId) -> Result<Self> {
        ObddManager::new(order).literal(tuple)
    }

    /// The diagram of a conjunction of positive literals (fresh manager; see
    /// [`ObddManager::clause`] for the shared-arena variant).
    pub fn clause(order: Arc<VarOrder>, clause: &[TupleId]) -> Result<Self> {
        ObddManager::new(order).clause(clause)
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
        self.assert_current_generation();
        self.manager.node_of(id)
    }

    /// A read guard over the manager's arena for tight loops.
    pub fn nodes(&self) -> ObddNodes<'_> {
        self.assert_current_generation();
        self.manager.nodes()
    }

    /// `true` when the id denotes a sink.
    pub fn is_sink(&self, id: NodeId) -> bool {
        id == TRUE || id == FALSE
    }

    /// The tuple variable labelling a node.
    pub fn tuple_of(&self, id: NodeId) -> Option<TupleId> {
        let node = self.node(id);
        if node.level == SINK_LEVEL {
            None
        } else {
            Some(self.order().tuple_at(node.level))
        }
    }

    /// Total number of nodes in the *shared* arena (including the two sinks
    /// and every node of every other diagram in the manager). A capacity
    /// figure, not the size of this diagram — see [`Obdd::size`].
    pub fn store_size(&self) -> usize {
        self.manager.num_nodes()
    }

    /// Number of internal nodes reachable from the root ("the size of the
    /// OBDD" in the paper's terminology).
    pub fn size(&self) -> usize {
        self.reachable_ids()
            .into_iter()
            .filter(|&id| !self.is_sink(id))
            .count()
    }

    /// The width of the diagram: the maximum number of reachable nodes
    /// labelled with the same variable.
    pub fn width(&self) -> usize {
        let ids = self.manager.reachable_of(self.root);
        let nodes = self.nodes();
        let mut per_level: fxhash::FxHashMap<u32, usize> = fxhash::FxHashMap::default();
        for id in ids {
            let level = nodes.level(id);
            if level != SINK_LEVEL {
                *per_level.entry(level).or_default() += 1;
            }
        }
        per_level.values().copied().max().unwrap_or(0)
    }

    /// Ids of all nodes reachable from the root (iterative DFS).
    pub fn reachable_ids(&self) -> Vec<NodeId> {
        self.assert_current_generation();
        self.manager.reachable_of(self.root)
    }

    /// The smallest and largest levels of reachable internal nodes, if any.
    pub fn level_range(&self) -> Option<(u32, u32)> {
        self.assert_current_generation();
        self.manager.level_range_of(self.root)
    }

    /// Resolves `other` into this handle's manager: a no-op when the arena
    /// is shared, an import (the only copy path left) when only the orders
    /// match, an [`ObddError::OrderMismatch`] otherwise.
    fn coresident_root(&self, other: &Obdd) -> Result<NodeId> {
        self.assert_current_generation();
        other.assert_current_generation();
        if self.manager.same_store(&other.manager) {
            return Ok(other.root);
        }
        self.check_same_order(other)?;
        Ok(self.manager.import_root(&other.manager, other.root))
    }

    fn check_same_order(&self, other: &Obdd) -> Result<()> {
        let a = self.order();
        let b = other.order();
        if Arc::ptr_eq(a, b) || a == b {
            Ok(())
        } else {
            Err(ObddError::OrderMismatch)
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
        self.assert_current_generation();
        let root = self.manager.negate_root(self.root);
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
        if !self.levels_precede(other) {
            return Err(ObddError::OrderMismatch);
        }
        let b = self.coresident_root(other)?;
        let root = self.manager.concat_roots(and, self.root, b);
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
    /// range) into a single diagram in one pass, linear in the sum of the
    /// part sizes. When all parts share one manager the result lives there
    /// and no nodes are copied; otherwise a fresh manager over `order` is
    /// populated by import.
    ///
    /// The parts are chained back to front: every part is rebuilt exactly
    /// once, with its `0`-sink redirected to the already finished tail. A
    /// front-to-back fold of binary concatenations rebuilds the growing
    /// prefix at every step instead — quadratic in the number of parts.
    pub fn concat_many_or(order: Arc<VarOrder>, parts: &[Obdd]) -> Result<Obdd> {
        // Level separation must hold across *all* pairs; walking back to
        // front with a running minimum handles constant parts in between.
        let mut min_later = u32::MAX;
        for part in parts.iter().rev() {
            let po = part.order();
            if !(Arc::ptr_eq(po, &order) || **po == *order) {
                return Err(ObddError::OrderMismatch);
            }
            if let Some((lo, hi)) = part.level_range() {
                if hi >= min_later {
                    return Err(ObddError::OrderMismatch);
                }
                min_later = lo;
            }
        }
        let manager = match parts.first() {
            Some(first) if parts.iter().all(|p| first.manager.same_store(&p.manager)) => {
                first.manager.clone()
            }
            _ => ObddManager::new(Arc::clone(&order)),
        };
        // `false` is the identity; a `true` part resets the tail through
        // `concat_roots`.
        let mut tail = FALSE;
        for part in parts.iter().rev() {
            let root = manager.import_root(&part.manager, part.root);
            tail = manager.concat_roots(false, root, tail);
        }
        Ok(Obdd::from_parts(manager, tail))
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

    /// The probability of the Boolean function represented by the diagram,
    /// under the given per-tuple probabilities (Shannon expansion,
    /// Section 4.1). Valid for negative probabilities. Computed from
    /// scratch; see [`Obdd::probability_cached`] when `prob_of` is the
    /// database weight function shared by every diagram of the manager.
    pub fn probability(&self, prob_of: impl Fn(TupleId) -> f64) -> f64 {
        self.assert_current_generation();
        self.manager.node_probs_of(self.root, &prob_of)[&self.root]
    }

    /// Like [`Obdd::probability`], but per-node results are served from and
    /// stored into the manager's probability cache for the current weight
    /// epoch. `prob_of` **must** be the weight function the epoch stands
    /// for; call [`ObddManager::bump_weight_epoch`] when weights change.
    /// A root whose value is already cached for the epoch costs a single
    /// array probe.
    pub fn probability_cached(&self, prob_of: impl Fn(TupleId) -> f64) -> f64 {
        self.assert_current_generation();
        self.manager.root_prob_cached_of(self.root, &prob_of)
    }

    /// The probability of the sub-diagram rooted at every reachable node
    /// (`probUnder` in the paper's terminology), sinks included. Sparse:
    /// sized by this diagram, not by the shared arena.
    pub fn node_probabilities(&self, prob_of: impl Fn(TupleId) -> f64) -> NodeProbs {
        self.assert_current_generation();
        NodeProbs::from_map(self.manager.node_probs_of(self.root, &prob_of))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
    }

    #[test]
    fn constants_and_literals() {
        let ord = order(3);
        let t = Obdd::constant(Arc::clone(&ord), true);
        let f = Obdd::constant(Arc::clone(&ord), false);
        assert_eq!(t.root(), TRUE);
        assert_eq!(f.root(), FALSE);
        assert_eq!(t.size(), 0);
        let x1 = Obdd::literal(Arc::clone(&ord), TupleId(1)).unwrap();
        assert_eq!(x1.size(), 1);
        assert!(x1.eval(|t| t == TupleId(1)));
        assert!(!x1.eval(|_| false));
        assert!(Obdd::literal(ord, TupleId(9)).is_err());
    }

    #[test]
    fn clause_builds_an_and_chain() {
        let ord = order(4);
        let c = Obdd::clause(Arc::clone(&ord), &[TupleId(2), TupleId(0)]).unwrap();
        assert_eq!(c.size(), 2);
        assert!(c.eval(|t| t == TupleId(0) || t == TupleId(2)));
        assert!(!c.eval(|t| t == TupleId(0)));
        let p = c.probability(|_| 0.5);
        assert!((p - 0.25).abs() < 1e-12);
    }

    #[test]
    fn apply_or_and_match_truth_tables() {
        let ord = order(2);
        let x0 = Obdd::literal(Arc::clone(&ord), TupleId(0)).unwrap();
        let x1 = Obdd::literal(Arc::clone(&ord), TupleId(1)).unwrap();
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
        let ord = order(2);
        // x0 ∨ ¬x0 should reduce to the constant true.
        let x0 = Obdd::literal(Arc::clone(&ord), TupleId(0)).unwrap();
        let not_x0 = x0.negate();
        let taut = x0.apply_or(&not_x0).unwrap();
        assert_eq!(taut.root(), TRUE);
        assert_eq!(taut.size(), 0);
    }

    #[test]
    fn negate_swaps_semantics_and_probability() {
        let ord = order(3);
        let c = Obdd::clause(Arc::clone(&ord), &[TupleId(0), TupleId(1)]).unwrap();
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
        let ord = order(4);
        let manager = ObddManager::new(Arc::clone(&ord));
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
        let ord = order(4);
        let a = Obdd::clause(Arc::clone(&ord), &[TupleId(0)]).unwrap();
        let b = Obdd::clause(Arc::clone(&ord), &[TupleId(3)]).unwrap();
        let c = a.concat_and(&b).unwrap();
        let d = a.apply_and(&b).unwrap();
        for mask in 0..16u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(c.eval(assign), d.eval(assign));
        }
    }

    #[test]
    fn concatenation_rejects_interleaved_levels() {
        let ord = order(4);
        let a = Obdd::clause(Arc::clone(&ord), &[TupleId(0), TupleId(2)]).unwrap();
        let b = Obdd::clause(Arc::clone(&ord), &[TupleId(1), TupleId(3)]).unwrap();
        assert!(matches!(a.concat_or(&b), Err(ObddError::OrderMismatch)));
    }

    #[test]
    fn concat_many_or_combines_blocks_linearly() {
        let ord = order(6);
        let manager = ObddManager::new(Arc::clone(&ord));
        let parts: Vec<Obdd> = (0..3)
            .map(|i| {
                manager
                    .clause(&[TupleId(2 * i), TupleId(2 * i + 1)])
                    .unwrap()
            })
            .collect();
        let combined = Obdd::concat_many_or(Arc::clone(&ord), &parts).unwrap();
        // All parts share the manager, so no fresh arena was created.
        assert!(combined.manager().same_store(&manager));
        assert_eq!(combined.size(), 6);
        // P = 1 - (1 - 0.25)^3 with p = 0.5 everywhere.
        let p = combined.probability(|_| 0.5);
        assert!((p - (1.0 - 0.75f64.powi(3))).abs() < 1e-12);
        // Width stays 1: this is the hallmark of inversion-free concatenation.
        assert_eq!(combined.width(), 1);
    }

    #[test]
    fn concat_many_or_handles_constants() {
        let ord = order(2);
        let parts = vec![
            Obdd::constant(Arc::clone(&ord), false),
            Obdd::clause(Arc::clone(&ord), &[TupleId(1)]).unwrap(),
        ];
        let combined = Obdd::concat_many_or(Arc::clone(&ord), &parts).unwrap();
        assert_eq!(combined.size(), 1);
        let parts = vec![
            Obdd::constant(Arc::clone(&ord), true),
            Obdd::clause(Arc::clone(&ord), &[TupleId(1)]).unwrap(),
        ];
        let combined = Obdd::concat_many_or(Arc::clone(&ord), &parts).unwrap();
        assert_eq!(combined.root(), TRUE);
    }

    #[test]
    fn concat_many_or_on_empty_and_singleton_lists() {
        // Regression: the n-ary fold must behave on degenerate part lists.
        let ord = order(3);
        let empty = Obdd::concat_many_or(Arc::clone(&ord), &[]).unwrap();
        assert_eq!(empty.root(), FALSE);
        assert_eq!(empty.size(), 0);
        let single = Obdd::clause(Arc::clone(&ord), &[TupleId(0), TupleId(2)]).unwrap();
        let combined =
            Obdd::concat_many_or(Arc::clone(&ord), std::slice::from_ref(&single)).unwrap();
        assert_eq!(combined.size(), single.size());
        for mask in 0..8u8 {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            assert_eq!(combined.eval(assign), single.eval(assign));
        }
        // A singleton in its own manager is passed through without copying.
        let same_manager =
            Obdd::concat_many_or(single.order().clone(), std::slice::from_ref(&single)).unwrap();
        assert!(same_manager.manager().same_store(single.manager()));
        assert_eq!(same_manager.root(), single.root());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale Obdd handle")]
    fn unregistered_handles_cannot_be_dereferenced_after_compaction() {
        // Regression for the compact/weight-epoch audit: a handle whose
        // root was never registered survives the compaction as a raw id
        // into a remapped arena — dereferencing it used to silently read
        // whatever node now sits there.
        let ord = order(4);
        let manager = ObddManager::new(Arc::clone(&ord));
        let stale = manager.clause(&[TupleId(0), TupleId(1)]).unwrap();
        manager.compact();
        let _ = stale.probability(|_| 0.5);
    }

    #[test]
    fn registered_handles_rehydrate_across_compaction() {
        let ord = order(4);
        let manager = ObddManager::new(Arc::clone(&ord));
        let diagram = manager.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let before = diagram.probability(|_| 0.5);
        let token = manager.register_root(diagram.root());
        manager.compact();
        // The raw handle is stale; the registered root rehydrates into a
        // current-generation handle with the same semantics.
        let fresh = manager.registered_obdd(token).unwrap();
        assert!((fresh.probability(|_| 0.5) - before).abs() < 1e-12);
    }

    #[test]
    fn order_mismatch_is_detected() {
        let a = Obdd::literal(order(2), TupleId(0)).unwrap();
        let b = Obdd::literal(order(3), TupleId(0)).unwrap();
        assert!(matches!(a.apply_or(&b), Err(ObddError::OrderMismatch)));
    }

    #[test]
    fn cross_manager_apply_imports_the_other_operand() {
        // Equal orders in two different managers: the result is computed in
        // the left operand's manager.
        let ord = order(2);
        let a = Obdd::literal(Arc::clone(&ord), TupleId(0)).unwrap();
        let b = Obdd::literal(Arc::clone(&ord), TupleId(1)).unwrap();
        assert!(!a.manager().same_store(b.manager()));
        let or = a.apply_or(&b).unwrap();
        assert!(or.manager().same_store(a.manager()));
        assert!((or.probability(|_| 0.5) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn figure3_obdd_probability() {
        // Lineage X1Y1 ∨ X1Y2 ∨ X2Y3 ∨ X2Y4 in the order X1,Y1,Y2,X2,Y3,Y4.
        let ord = order(6);
        let manager = ObddManager::new(Arc::clone(&ord));
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
        let ord = order(2);
        let x0 = Obdd::literal(Arc::clone(&ord), TupleId(0)).unwrap();
        let x1 = Obdd::literal(Arc::clone(&ord), TupleId(1)).unwrap();
        let both = x0.apply_and(&x1).unwrap();
        let p = both.probability(|t| if t == TupleId(0) { -2.0 } else { 0.5 });
        assert!((p - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn node_probabilities_expose_prob_under() {
        let ord = order(2);
        let x0 = Obdd::literal(Arc::clone(&ord), TupleId(0)).unwrap();
        let x1 = Obdd::literal(Arc::clone(&ord), TupleId(1)).unwrap();
        let or = x0.apply_or(&x1).unwrap();
        let probs = or.node_probabilities(|_| 0.5);
        assert_eq!(probs.get(TRUE), 1.0);
        assert_eq!(probs.get(FALSE), 0.0);
        assert!((probs.get(or.root()) - 0.75).abs() < 1e-12);
        // Sparse: sized by the diagram (2 internal nodes + 2 sinks), not by
        // the arena.
        assert_eq!(probs.len(), or.size() + 2);
    }
}
