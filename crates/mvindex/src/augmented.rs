//! Augmented OBDDs: `probUnder` and `reachability` annotations.
//!
//! Section 4.1: every node `u` of an augmented OBDD carries
//!
//! * `u.probUnder` — the probability of the Boolean function rooted at `u`
//!   (computed bottom-up by Shannon expansion), and
//! * `u.reachability` — the sum over all root-to-`u` paths of the product of
//!   edge probabilities (`P0(X)` for a 1-edge, `1 − P0(X)` for a 0-edge).
//!
//! Together they allow the probability of `X_i ∧ Φ` to be computed from the
//! nodes labelled `X_i` alone (`Σ_j u_j.reachability · p · v_j.probUnder`)
//! when those nodes form a cut of the diagram.
//!
//! A diagram is a handle into an [`mv_obdd::ObddManager`] arena that may
//! hold other diagrams too, so both annotations are stored *sparsely* (per
//! reachable node of this diagram): an augmented diagram costs memory
//! proportional to itself, not to the arena it lives in.

use fxhash::{FxHashMap, FxHashSet};
use mv_obdd::obdd::{FALSE, TRUE};
use mv_obdd::{NodeId, Obdd};
use mv_pdb::TupleId;

/// An OBDD annotated with per-node `probUnder` and `reachability` values.
#[derive(Debug, Clone)]
pub struct AugmentedObdd {
    obdd: Obdd,
    prob_under: FxHashMap<NodeId, f64>,
    reachability: FxHashMap<NodeId, f64>,
    intra: FxHashMap<TupleId, Vec<NodeId>>,
}

impl AugmentedObdd {
    /// Annotates an OBDD with the probabilities of the given tuple-probability
    /// function (which may return negative values, Section 3.3).
    pub fn new(obdd: Obdd, prob_of: impl Fn(TupleId) -> f64 + Copy) -> Self {
        // One traversal: the probability map's keys are exactly the
        // reachable nodes plus the two sinks.
        let prob_under = obdd.node_probabilities(prob_of);
        let reachable: Vec<NodeId> = prob_under.keys().copied().collect();
        let reachability = compute_reachability(&obdd, &reachable, prob_of);
        let mut intra: FxHashMap<TupleId, Vec<NodeId>> = FxHashMap::default();
        for &id in &reachable {
            if let Some(tuple) = obdd.tuple_of(id) {
                intra.entry(tuple).or_default().push(id);
            }
        }
        AugmentedObdd {
            obdd,
            prob_under,
            reachability,
            intra,
        }
    }

    /// The underlying OBDD.
    pub fn obdd(&self) -> &Obdd {
        &self.obdd
    }

    /// `probUnder` of a reachable node.
    pub fn prob_under(&self, id: NodeId) -> f64 {
        self.prob_under[&id]
    }

    /// `reachability` of a reachable node.
    pub fn reachability(&self, id: NodeId) -> f64 {
        self.reachability[&id]
    }

    /// The probability of the whole diagram (probUnder of the root).
    pub fn probability(&self) -> f64 {
        self.prob_under(self.obdd.root())
    }

    /// The nodes labelled with a given tuple variable (the `IntraBddIndex`).
    pub fn nodes_of(&self, tuple: TupleId) -> &[NodeId] {
        self.intra.get(&tuple).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The distinct tuple variables appearing in the diagram.
    pub fn variables(&self) -> impl Iterator<Item = TupleId> + '_ {
        self.intra.keys().copied()
    }

    /// Number of reachable internal nodes.
    pub fn size(&self) -> usize {
        self.prob_under
            .keys()
            .filter(|&&id| id != TRUE && id != FALSE)
            .count()
    }

    /// The fast path of Section 4.1: `P0(X ∧ Φ)` for a single variable `X`,
    /// computed from the nodes labelled `X` using the two annotations,
    /// provided every root-to-sink path visits one of them (i.e. they form a
    /// cut). Returns `None` when the nodes do not form a cut, in which case
    /// the caller must fall back to a full intersection.
    pub fn single_variable_conjunction(
        &self,
        tuple: TupleId,
        prob_of: impl Fn(TupleId) -> f64,
    ) -> Option<f64> {
        let nodes = self.intra.get(&tuple)?;
        if !self.is_cut(nodes) {
            return None;
        }
        let p = prob_of(tuple);
        let arena = self.obdd.nodes();
        let sum: f64 = nodes
            .iter()
            .map(|&u| {
                let hi = arena.node(u).hi;
                self.reachability(u) * self.prob_under(hi)
            })
            .sum();
        Some(p * sum)
    }

    /// `true` when every root-to-sink path passes through one of `nodes`.
    fn is_cut(&self, nodes: &[NodeId]) -> bool {
        let target: FxHashSet<NodeId> = nodes.iter().copied().collect();
        // DFS from the root that stops at target nodes; if a sink is reached
        // the target set is not a cut.
        let arena = self.obdd.nodes();
        let mut stack = vec![self.obdd.root()];
        let mut seen = FxHashSet::default();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            if target.contains(&id) {
                continue;
            }
            if id == TRUE || id == FALSE {
                return false;
            }
            let node = arena.node(id);
            stack.push(node.lo);
            stack.push(node.hi);
        }
        true
    }
}

/// Computes the reachability annotation: the probability mass of all paths
/// from the root to each reachable node. Nodes are processed top-down
/// (increasing level), which is a valid order because every edge goes from a
/// smaller level to a larger one (or to a sink).
fn compute_reachability(
    obdd: &Obdd,
    reachable: &[NodeId],
    prob_of: impl Fn(TupleId) -> f64,
) -> FxHashMap<NodeId, f64> {
    let arena = obdd.nodes();
    let order = obdd.order();
    let mut reach: FxHashMap<NodeId, f64> = reachable.iter().map(|&id| (id, 0.0)).collect();
    reach.insert(obdd.root(), 1.0);
    let mut ids: Vec<NodeId> = reachable
        .iter()
        .copied()
        .filter(|&id| id != TRUE && id != FALSE)
        .collect();
    ids.sort_by_key(|&id| arena.level(id));
    for id in ids {
        let node = arena.node(id);
        let tuple = order.tuple_at(node.level);
        let p = prob_of(tuple);
        let r = reach[&id];
        *reach.entry(node.lo).or_insert(0.0) += r * (1.0 - p);
        *reach.entry(node.hi).or_insert(0.0) += r * p;
    }
    reach
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_obdd::{ObddManager, VarOrder};
    use std::sync::Arc;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
    }

    /// Φ = X0X1 ∨ X2 with all probabilities 0.5.
    fn sample() -> AugmentedObdd {
        let manager = ObddManager::new(order(3));
        let c1 = manager.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let c2 = manager.clause(&[TupleId(2)]).unwrap();
        let obdd = c1.apply_or(&c2).unwrap();
        AugmentedObdd::new(obdd, |_| 0.5)
    }

    #[test]
    fn prob_under_at_root_is_the_formula_probability() {
        let aug = sample();
        // P = 1 - (1 - 0.25)(1 - 0.5) = 0.625.
        assert!((aug.probability() - 0.625).abs() < 1e-12);
        assert_eq!(aug.prob_under(TRUE), 1.0);
        assert_eq!(aug.prob_under(FALSE), 0.0);
    }

    #[test]
    fn reachability_of_root_is_one_and_sinks_sum_to_one() {
        let aug = sample();
        assert!((aug.reachability(aug.obdd().root()) - 1.0).abs() < 1e-12);
        let total_sinks = aug.reachability(TRUE) + aug.reachability(FALSE);
        assert!((total_sinks - 1.0).abs() < 1e-12);
        // Mass reaching the TRUE sink is exactly the formula probability.
        assert!((aug.reachability(TRUE) - aug.probability()).abs() < 1e-12);
    }

    #[test]
    fn intra_index_lists_nodes_per_variable() {
        let aug = sample();
        assert_eq!(aug.nodes_of(TupleId(0)).len(), 1);
        assert!(!aug.nodes_of(TupleId(2)).is_empty());
        assert!(aug.nodes_of(TupleId(9)).is_empty());
        let mut vars: Vec<TupleId> = aug.variables().collect();
        vars.sort();
        assert_eq!(vars, vec![TupleId(0), TupleId(1), TupleId(2)]);
    }

    #[test]
    fn single_variable_conjunction_matches_direct_computation() {
        let aug = sample();
        // P(X0 ∧ Φ) where Φ = X0X1 ∨ X2 and all p = 0.5:
        // = P(X0) * P(X1 ∨ X2) = 0.5 * 0.75 = 0.375.
        let p = aug.single_variable_conjunction(TupleId(0), |_| 0.5);
        assert_eq!(p, Some(0.375));
        // X2's nodes do not form a cut (paths through X0=1,X1=1 reach TRUE
        // without testing X2), so the fast path declines.
        assert_eq!(aug.single_variable_conjunction(TupleId(2), |_| 0.5), None);
        // Unknown variables are declined as well.
        assert_eq!(aug.single_variable_conjunction(TupleId(9), |_| 0.5), None);
    }

    #[test]
    fn negative_probabilities_are_handled() {
        let ord = order(2);
        let c = ObddManager::new(ord)
            .clause(&[TupleId(0), TupleId(1)])
            .unwrap();
        let prob = |t: TupleId| if t.0 == 0 { -2.0 } else { 0.5 };
        let aug = AugmentedObdd::new(c, prob);
        assert!((aug.probability() - (-1.0)).abs() < 1e-12);
        // Path masses still sum to one.
        assert!((aug.reachability(TRUE) + aug.reachability(FALSE) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn annotations_stay_sparse_in_a_shared_arena() {
        // Two diagrams in one manager: each augmented view only pays for its
        // own reachable nodes, not for the sibling's.
        let manager = ObddManager::new(order(6));
        let big = manager
            .clause(&[TupleId(0), TupleId(1), TupleId(2), TupleId(3)])
            .unwrap();
        let small = manager.clause(&[TupleId(4), TupleId(5)]).unwrap();
        let aug_small = AugmentedObdd::new(small.clone(), |_| 0.5);
        assert_eq!(aug_small.size(), 2);
        assert!(aug_small.size() < big.store_size() - 2);
        assert_eq!(aug_small.prob_under.len(), 2 + 2); // nodes + sinks
        let _ = big;
    }

    #[test]
    fn size_counts_internal_nodes() {
        let aug = sample();
        assert_eq!(aug.size(), aug.obdd().size());
        assert!(aug.size() >= 3);
    }
}
