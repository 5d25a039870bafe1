//! A deliberately unoptimised reference OBDD implementation.
//!
//! [`RefManager`] mirrors the manager *before* the cache-conscious rework:
//! every cache is a SipHash-keyed [`std::collections::HashMap`]
//! (unique table, exact apply memo, negate memo, probability cache),
//! `apply` recurses on the call stack, and — like the pre-rework code —
//! `negate` and `probability` run a `reachable()` enumeration plus a
//! level-sort plus a fresh per-call result map on **every** call, even when
//! every per-node value is already cached. It is the reference the node
//! store's agreement tests compare against — the manager's
//! (`tests/reference_agreement.rs` and the property suites) and the query
//! kernel's (`mv_index::kernel`): the store's iterative, explicit-stack hot
//! paths must compute exactly the same reduced diagrams and probabilities
//! as this straightforward recursive implementation. It is not a
//! production path and not a performance baseline.
//!
//! Keep it boring. Do **not** optimise this module; its value is that it is
//! obviously correct and representative of the pre-rework implementation.
//! Because it recurses, it is limited to diagrams a few thousand levels deep
//! — the store's explicit-stack traversals exist precisely to remove that
//! limit.

use std::collections::HashMap;
use std::sync::Arc;

use mv_pdb::TupleId;

use crate::error::ObddError;
use crate::obdd::{FALSE, SINK_LEVEL, TRUE};
use crate::order::VarOrder;
use crate::{NodeId, Result};

/// A self-contained recursive OBDD manager with SipHash `HashMap` caches.
/// Roots are plain [`NodeId`]s into the manager's own arena, with the
/// workspace's sink markers.
#[derive(Debug)]
pub struct RefManager {
    order: Arc<VarOrder>,
    /// `(level, lo, hi)` of every internal node.
    nodes: Vec<(u32, NodeId, NodeId)>,
    unique: HashMap<(u32, NodeId, NodeId), NodeId>,
    apply_memo: HashMap<(bool, NodeId, NodeId), NodeId>,
    negate_memo: HashMap<NodeId, NodeId>,
    prob_cache: HashMap<NodeId, f64>,
}

impl RefManager {
    /// An empty reference manager over the given variable order.
    pub fn new(order: Arc<VarOrder>) -> RefManager {
        let mut negate_memo = HashMap::new();
        negate_memo.insert(FALSE, TRUE);
        negate_memo.insert(TRUE, FALSE);
        RefManager {
            order,
            nodes: Vec::new(),
            unique: HashMap::new(),
            apply_memo: HashMap::new(),
            negate_memo,
            prob_cache: HashMap::new(),
        }
    }

    /// The variable order of this manager.
    pub fn order(&self) -> &Arc<VarOrder> {
        &self.order
    }

    /// Number of nodes in the arena (sinks included).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len() + 2
    }

    /// The constant root `true` or `false`.
    pub fn constant(value: bool) -> NodeId {
        if value {
            TRUE
        } else {
            FALSE
        }
    }

    fn node(&self, id: NodeId) -> (u32, NodeId, NodeId) {
        self.nodes[id as usize]
    }

    fn level(&self, id: NodeId) -> u32 {
        if id == TRUE || id == FALSE {
            SINK_LEVEL
        } else {
            self.node(id).0
        }
    }

    fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(level, lo, hi)) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push((level, lo, hi));
        self.unique.insert((level, lo, hi), id);
        id
    }

    /// The root of a conjunction of positive literals (one DNF clause).
    pub fn clause(&mut self, clause: &[TupleId]) -> Result<NodeId> {
        let mut levels: Vec<u32> = clause
            .iter()
            .map(|&t| {
                self.order
                    .level_of(t)
                    .ok_or_else(|| ObddError::UnknownVariable(t.to_string()))
            })
            .collect::<Result<_>>()?;
        levels.sort_unstable();
        levels.dedup();
        let mut child = TRUE;
        for &level in levels.iter().rev() {
            child = self.mk(level, FALSE, child);
        }
        Ok(child)
    }

    /// Recursive synthesis of `a ∨ b`.
    pub fn apply_or(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(false, a, b)
    }

    /// Recursive synthesis of `a ∧ b`.
    pub fn apply_and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        self.apply(true, a, b)
    }

    fn apply(&mut self, and: bool, a: NodeId, b: NodeId) -> NodeId {
        if a == b {
            return a;
        }
        let (absorbing, identity) = if and { (FALSE, TRUE) } else { (TRUE, FALSE) };
        if a == absorbing || b == absorbing {
            return absorbing;
        }
        if a == identity {
            return b;
        }
        if b == identity {
            return a;
        }
        let key = (and, a.min(b), a.max(b));
        if let Some(&r) = self.apply_memo.get(&key) {
            return r;
        }
        let (la, a_lo, a_hi) = self.node(a);
        let (lb, b_lo, b_hi) = self.node(b);
        let m = la.min(lb);
        let (a0, a1) = if la == m { (a_lo, a_hi) } else { (a, a) };
        let (b0, b1) = if lb == m { (b_lo, b_hi) } else { (b, b) };
        let lo = self.apply(and, a0, b0);
        let hi = self.apply(and, a1, b1);
        let r = self.mk(m, lo, hi);
        self.apply_memo.insert(key, r);
        r
    }

    /// Ids reachable from `root` (sinks included), the way the pre-rework
    /// manager enumerated them before every negate/probability pass.
    fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            out.push(id);
            if id != TRUE && id != FALSE {
                let (_, lo, hi) = self.node(id);
                stack.push(lo);
                stack.push(hi);
            }
        }
        out
    }

    /// Negation the pre-rework way: enumerate the reachable nodes, sort them
    /// bottom-up by level, and rebuild through the hash-map memo.
    pub fn negate(&mut self, root: NodeId) -> NodeId {
        if let Some(&r) = self.negate_memo.get(&root) {
            return r;
        }
        let mut ids = self.reachable(root);
        ids.sort_by_key(|&id| std::cmp::Reverse(self.level(id)));
        for id in ids {
            if self.negate_memo.contains_key(&id) {
                continue;
            }
            let (level, lo, hi) = self.node(id);
            let lo = self.negate_memo[&lo];
            let hi = self.negate_memo[&hi];
            let neg = self.mk(level, lo, hi);
            self.negate_memo.insert(id, neg);
            self.negate_memo.entry(neg).or_insert(id);
        }
        self.negate_memo[&root]
    }

    /// Shannon-expansion probability the pre-rework way: every call
    /// enumerates the reachable nodes, sorts them bottom-up, and fills a
    /// fresh per-call hash map, consulting the persistent per-node hash-map
    /// cache entry by entry — even when the whole diagram is already
    /// cached. The cache is keyed by node alone, so it is only valid for
    /// one weight function; call [`RefManager::clear_prob_cache`] when
    /// weights change (the hash-map analogue of an epoch bump).
    pub fn probability(&mut self, root: NodeId, prob_of: &impl Fn(TupleId) -> f64) -> f64 {
        let mut ids = self.reachable(root);
        ids.sort_by_key(|&id| std::cmp::Reverse(self.level(id)));
        let mut out: HashMap<NodeId, f64> = HashMap::with_capacity(ids.len() + 2);
        out.insert(FALSE, 0.0);
        out.insert(TRUE, 1.0);
        for id in ids {
            if id == TRUE || id == FALSE {
                continue;
            }
            if let Some(&p) = self.prob_cache.get(&id) {
                out.insert(id, p);
                continue;
            }
            let (level, lo, hi) = self.node(id);
            let p = prob_of(self.order.tuple_at(level));
            let value = (1.0 - p) * out[&lo] + p * out[&hi];
            self.prob_cache.insert(id, value);
            out.insert(id, value);
        }
        out[&root]
    }

    /// Drops every cached per-node probability (weights changed).
    pub fn clear_prob_cache(&mut self) {
        self.prob_cache.clear();
    }

    /// Evaluates the diagram under a truth assignment.
    pub fn eval(&self, root: NodeId, assignment: impl Fn(TupleId) -> bool) -> bool {
        let mut id = root;
        while id != TRUE && id != FALSE {
            let (level, lo, hi) = self.node(id);
            let tuple = self.order.tuple_at(level);
            id = if assignment(tuple) { hi } else { lo };
        }
        id == TRUE
    }

    /// Number of internal nodes reachable from `root` (the diagram size).
    pub fn size(&self, root: NodeId) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        let mut count = 0;
        while let Some(id) = stack.pop() {
            if id == TRUE || id == FALSE || !seen.insert(id) {
                continue;
            }
            count += 1;
            let (_, lo, hi) = self.node(id);
            stack.push(lo);
            stack.push(hi);
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
    }

    #[test]
    fn reference_reproduces_textbook_identities() {
        let mut m = RefManager::new(order(3));
        let a = m.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let b = m.clause(&[TupleId(2)]).unwrap();
        let or = m.apply_or(a, b);
        let and = m.apply_and(a, b);
        assert!((m.probability(or, &|_| 0.5) - 0.625).abs() < 1e-12);
        m.clear_prob_cache();
        assert!((m.probability(and, &|_| 0.5) - 0.125).abs() < 1e-12);
        let neg = m.negate(or);
        m.clear_prob_cache();
        let p = m.probability(or, &|_| 0.5) + m.probability(neg, &|_| 0.5);
        assert!((p - 1.0).abs() < 1e-12);
        // Involution returns the original root.
        assert_eq!(m.negate(neg), or);
    }

    #[test]
    fn reference_agrees_with_the_production_manager_on_a_sample() {
        let ord = order(6);
        let mut r = RefManager::new(Arc::clone(&ord));
        let m = crate::ObddManager::new(Arc::clone(&ord));
        let clauses: Vec<Vec<TupleId>> = vec![
            vec![TupleId(0), TupleId(3)],
            vec![TupleId(1), TupleId(4)],
            vec![TupleId(2), TupleId(5)],
            vec![TupleId(0), TupleId(5)],
        ];
        let mut ref_acc = RefManager::constant(false);
        let mut acc = m.constant(false);
        for c in &clauses {
            let rc = r.clause(c).unwrap();
            ref_acc = r.apply_or(ref_acc, rc);
            let mc = m.clause(c).unwrap();
            acc = acc.apply_or(&mc).unwrap();
        }
        let prob = |t: TupleId| 0.1 + 0.1 * f64::from(t.0);
        assert!((r.probability(ref_acc, &prob) - acc.probability(prob)).abs() < 1e-12);
        assert_eq!(r.size(ref_acc), acc.size());
    }
}
