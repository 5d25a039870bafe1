//! The shared OBDD manager: one [`NodeStore`] behind a lock.
//!
//! An [`ObddManager`] is the store every diagram of the paper's
//! constructions lives in — ConOBDD and the apply-per-clause baseline of
//! Figures 7–8, the diagrams Figures 5–6 and 9 annotate, and the oracle
//! suites. It is a [`NodeStore`] behind one [`RwLock`], never emptied, so an
//! [`Obdd`] is a cheap `{manager, root}` handle and structurally identical
//! sub-diagrams are shared by every diagram built in the manager. No
//! serving path builds here: the MV-index's query kernel owns a store of its
//! own.
//!
//! Every building call — a clause, a DNF fold, one `apply`, a negation, a
//! concatenation — is one operation of the store under the write lock: its
//! memo is emptied at the start, the unique table never is. Read-only
//! traversals take the shared lock once per traversal ([`ObddNodes`]).
//!
//! `ObddManager` is `Send + Sync`; handles can be shared across threads.
//! Diagrams of two different managers are never combined: `apply` and
//! `concat` across managers return
//! [`ObddError::ManagerMismatch`](crate::ObddError::ManagerMismatch).

use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use mv_pdb::TupleId;
use mv_query::lineage::Lineage;

use crate::obdd::{Obdd, ObddNode, FALSE, TRUE};
use crate::order::VarOrder;
use crate::store::{BoolOp, NodeStore};
use crate::{NodeId, Result};

/// Counters describing a manager's workload, exposed by
/// [`ObddManager::stats`]. All counters are cumulative since the manager was
/// created; rates are derived through [`ManagerStats::unique_hit_rate`] and
/// [`ManagerStats::apply_cache_hit_rate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Internal nodes ever allocated in the store (sinks excluded).
    pub nodes_allocated: u64,
    /// Largest store size observed (sinks included). A manager's store is
    /// never emptied, so for a manager this is the current size; aggregated
    /// stats ([`ManagerStats`] addition) keep the **maximum** over the
    /// summed stores — the largest single store, not a sum of peaks.
    pub peak_nodes: u64,
    /// `mk` calls answered by the unique table (an existing node was reused).
    pub unique_hits: u64,
    /// `mk` calls that allocated a fresh node.
    pub unique_misses: u64,
    /// Apply steps answered by the memo.
    pub apply_cache_hits: u64,
    /// Apply, negate and concat steps that had to compute a result node.
    pub apply_cache_misses: u64,
    /// Always 0: the manager keeps no probability cache. The field stays
    /// because the repository benchmark (`benchmark/`) reports
    /// [`ManagerStats::prob_cache_hit_rate`].
    pub prob_cache_hits: u64,
    /// Always 0, like [`ManagerStats::prob_cache_hits`].
    pub prob_cache_misses: u64,
    /// Always 0: the memo is emptied per operation, never evicted. The
    /// field stays because the repository benchmark (`benchmark/`) reports
    /// it.
    pub cache_evictions: u64,
    /// Gauge: current store size (sinks included) at the time the snapshot
    /// was taken. Aggregation sums across managers (total resident nodes);
    /// [`ManagerStats::since`] keeps the current value — a gauge has no
    /// meaningful delta.
    pub live_nodes: u64,
    /// Gauge: heap bytes a manager's store holds (nodes, unique table, memo
    /// and buffers) at snapshot time; 0 for a query kernel. Aggregates and
    /// deltas like `live_nodes`.
    pub arena_bytes: u64,
}

impl ManagerStats {
    /// Fraction of `mk` calls that reused an existing node (0 when no `mk`
    /// calls were made).
    pub fn unique_hit_rate(&self) -> f64 {
        rate(self.unique_hits, self.unique_misses)
    }

    /// Fraction of apply/negate/concat steps answered by a memo.
    pub fn apply_cache_hit_rate(&self) -> f64 {
        rate(self.apply_cache_hits, self.apply_cache_misses)
    }

    /// Fraction of per-node probability lookups served from a cache:
    /// always 0, since the manager keeps none.
    pub fn prob_cache_hit_rate(&self) -> f64 {
        rate(self.prob_cache_hits, self.prob_cache_misses)
    }

    /// The work done since an `earlier` snapshot of the *same* manager:
    /// cumulative counters are subtracted (saturating), while `peak_nodes`
    /// keeps the current value — a high-water mark has no meaningful delta.
    pub fn since(&self, earlier: &ManagerStats) -> ManagerStats {
        ManagerStats {
            nodes_allocated: self.nodes_allocated.saturating_sub(earlier.nodes_allocated),
            peak_nodes: self.peak_nodes,
            unique_hits: self.unique_hits.saturating_sub(earlier.unique_hits),
            unique_misses: self.unique_misses.saturating_sub(earlier.unique_misses),
            apply_cache_hits: self
                .apply_cache_hits
                .saturating_sub(earlier.apply_cache_hits),
            apply_cache_misses: self
                .apply_cache_misses
                .saturating_sub(earlier.apply_cache_misses),
            prob_cache_hits: self.prob_cache_hits.saturating_sub(earlier.prob_cache_hits),
            prob_cache_misses: self
                .prob_cache_misses
                .saturating_sub(earlier.prob_cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            live_nodes: self.live_nodes,
            arena_bytes: self.arena_bytes,
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl std::ops::Add for ManagerStats {
    type Output = ManagerStats;

    /// Aggregates counters across managers. Cumulative counters add;
    /// `peak_nodes` takes the maximum (the largest single arena — summing
    /// high-water marks of independent arenas has no physical meaning).
    fn add(self, rhs: ManagerStats) -> ManagerStats {
        ManagerStats {
            nodes_allocated: self.nodes_allocated + rhs.nodes_allocated,
            peak_nodes: self.peak_nodes.max(rhs.peak_nodes),
            unique_hits: self.unique_hits + rhs.unique_hits,
            unique_misses: self.unique_misses + rhs.unique_misses,
            apply_cache_hits: self.apply_cache_hits + rhs.apply_cache_hits,
            apply_cache_misses: self.apply_cache_misses + rhs.apply_cache_misses,
            prob_cache_hits: self.prob_cache_hits + rhs.prob_cache_hits,
            prob_cache_misses: self.prob_cache_misses + rhs.prob_cache_misses,
            cache_evictions: self.cache_evictions + rhs.cache_evictions,
            live_nodes: self.live_nodes + rhs.live_nodes,
            arena_bytes: self.arena_bytes + rhs.arena_bytes,
        }
    }
}

impl std::iter::Sum for ManagerStats {
    fn sum<I: Iterator<Item = ManagerStats>>(iter: I) -> ManagerStats {
        iter.fold(ManagerStats::default(), |a, b| a + b)
    }
}

struct Shared {
    order: Arc<VarOrder>,
    store: RwLock<NodeStore>,
}

/// A shared, hash-consed OBDD node store over one [`VarOrder`]. Cloning is
/// cheap (an `Arc` bump); all clones address the same store.
#[derive(Clone)]
pub struct ObddManager {
    shared: Arc<Shared>,
}

impl ObddManager {
    /// An empty manager over the given variable order.
    pub fn new(order: Arc<VarOrder>) -> ObddManager {
        ObddManager {
            shared: Arc::new(Shared {
                order,
                store: RwLock::new(NodeStore::new()),
            }),
        }
    }

    /// The variable order every diagram of this manager lives on.
    pub fn order(&self) -> &Arc<VarOrder> {
        &self.shared.order
    }

    /// `true` when both handles address the same store.
    pub(crate) fn same_arena(&self, other: &ObddManager) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Current store size (internal nodes plus the two sinks).
    pub fn num_nodes(&self) -> usize {
        self.read().nodes().len() + 2
    }

    /// A snapshot of the manager's counters, with the `live_nodes` /
    /// `arena_bytes` gauges filled in from the current store.
    pub fn stats(&self) -> ManagerStats {
        let store = self.read();
        ManagerStats {
            arena_bytes: store.heap_bytes() as u64,
            ..store.stats()
        }
    }

    /// The constant diagram `true` or `false`.
    pub fn constant(&self, value: bool) -> Obdd {
        Obdd::from_parts(self.clone(), if value { TRUE } else { FALSE })
    }

    /// The diagram of a single positive literal.
    pub fn literal(&self, tuple: TupleId) -> Result<Obdd> {
        self.clause(&[tuple])
    }

    /// The diagram of a conjunction of positive literals (one DNF clause).
    pub fn clause(&self, clause: &[TupleId]) -> Result<Obdd> {
        self.dnf(&[clause])
    }

    /// The diagram of a whole DNF, folded under **one** lock acquisition by
    /// the store's trie fold ([`NodeStore::fold`]): the clauses sorted by
    /// their level sequences, whatever order they arrive in, shared prefixes
    /// built once and `apply` run only where levels interleave.
    pub fn dnf<C: AsRef<[TupleId]>>(&self, clauses: &[C]) -> Result<Obdd> {
        let clauses = clauses.iter().map(AsRef::as_ref);
        let root = self.write().fold(&self.shared.order, clauses)?;
        Ok(Obdd::from_parts(self.clone(), root))
    }

    /// The diagram of a lineage: [`ObddManager::dnf`] over its clauses, or
    /// the constant `true` when the lineage is `true` (whatever its other
    /// clauses mention).
    pub fn lineage(&self, lineage: &Lineage) -> Result<Obdd> {
        if lineage.is_true() {
            return Ok(self.constant(true));
        }
        self.dnf(lineage.clauses())
    }

    /// Scans the store for canonicity violations
    /// ([`NodeStore::canonicity_violation`]).
    pub fn canonicity_violation(&self) -> Option<String> {
        self.read().canonicity_violation()
    }

    /// A read guard over the store for tight traversal loops; hold it
    /// instead of calling [`Obdd::node`] per step.
    pub fn nodes(&self) -> ObddNodes<'_> {
        ObddNodes { guard: self.read() }
    }

    fn read(&self) -> RwLockReadGuard<'_, NodeStore> {
        self.shared
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, NodeStore> {
        self.shared
            .store
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// `a op b` as one operation of the store.
    pub(crate) fn apply_roots(&self, op: BoolOp, a: NodeId, b: NodeId) -> NodeId {
        let mut store = self.write();
        store.begin();
        // The manager's store carries no budget and no node cap.
        store
            .apply(op, a, b)
            .expect("an unbounded store refuses nothing")
    }

    /// The reachable part of the diagram at `root` copied out of the store
    /// children first (DFS post-order, 0-edge first) and annotated for
    /// `prob_of` — a node slice in the store's own convention, whose root
    /// is the returned position — with the store id of every copied node.
    pub(crate) fn flatten(
        &self,
        root: NodeId,
        prob_of: impl Fn(TupleId) -> f64,
    ) -> (Vec<ObddNode>, Vec<NodeId>, NodeId) {
        let (mut nodes, mut ids) = (Vec::new(), Vec::new());
        let at = {
            let mut store = self.write();
            store.begin();
            let place = |_: &mut NodeStore, u, level, lo, hi| {
                ids.push(u);
                nodes.push(ObddNode {
                    level,
                    lo,
                    hi,
                    p_var: 0.0,
                    prob: 0.0,
                });
                (nodes.len() - 1) as NodeId
            };
            store.copy(root, 0, NodeStore::triple, |s| s, place)
        };
        crate::store::annotate(&mut nodes, &self.shared.order, prob_of);
        (nodes, ids, at)
    }
}

impl fmt::Debug for ObddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ObddManager")
            .field("order_len", &self.shared.order.len())
            .field("nodes", &self.num_nodes())
            .finish_non_exhaustive()
    }
}

/// A read guard over a manager's store. Holds the shared lock, so keep its
/// lifetime to one traversal; do not call building operations on the same
/// manager while it is alive.
pub struct ObddNodes<'a> {
    guard: RwLockReadGuard<'a, NodeStore>,
}

impl ObddNodes<'_> {
    /// The internal node behind an id.
    pub fn node(&self, id: NodeId) -> ObddNode {
        self.guard.nodes()[id as usize]
    }

    /// The level of a node ([`crate::obdd::SINK_LEVEL`] for sinks).
    pub fn level(&self, id: NodeId) -> u32 {
        self.guard.level(id)
    }

    /// The internal nodes reachable from `root`.
    pub fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        self.guard.reachable(root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDb, InDbBuilder, Weight};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::lineage::lineage;
    use mv_query::parse_ucq;

    use crate::order::PiOrder;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
    }

    /// The `R`/`S` part of the database of Figure 3.
    fn fig3() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(0.5)).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(2.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b3"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b4"]), Weight::new(4.0))
            .unwrap();
        b.build()
    }

    fn fig3_manager(indb: &InDb) -> ObddManager {
        ObddManager::new(Arc::new(PiOrder::identity().tuple_order(indb)))
    }

    #[test]
    fn hash_consing_shares_nodes_across_diagrams() {
        let m = ObddManager::new(order(4));
        let a = m.clause(&[TupleId(1), TupleId(2)]).unwrap();
        let b = m.clause(&[TupleId(1), TupleId(2)]).unwrap();
        assert_eq!(a.root(), b.root());
        let stats = m.stats();
        assert!(stats.unique_hits >= 2, "second clause must hit the table");
        assert_eq!(stats.nodes_allocated, 2);
    }

    #[test]
    fn apply_memo_hits_on_repetition() {
        // x0 x1 ∨ x2 reaches its x2 node along two paths, so one `∨ x3`
        // meets the pair (x2 node, x3) twice: the second time is a memo hit.
        let m = ObddManager::new(order(4));
        let f = m
            .dnf(&[vec![TupleId(0), TupleId(1)], vec![TupleId(2)]])
            .unwrap();
        let g = m.literal(TupleId(3)).unwrap();
        let before = m.stats().apply_cache_hits;
        let first = f.apply_or(&g).unwrap();
        assert!(m.stats().apply_cache_hits > before);
        // The memo is emptied per operation; repeating the apply rebuilds
        // nothing, because the unique table holds every node.
        let allocated = m.stats().nodes_allocated;
        let second = f.apply_or(&g).unwrap();
        assert_eq!(first.root(), second.root());
        assert_eq!(m.stats().nodes_allocated, allocated);
    }

    #[test]
    fn negate_is_a_memoised_involution() {
        let m = ObddManager::new(order(3));
        let c = m.clause(&[TupleId(0), TupleId(2)]).unwrap();
        let n = c.negate();
        let back = n.negate();
        assert_eq!(back.root(), c.root());
        // Negating again allocates nothing: the unique table holds it all.
        let allocated = m.stats().nodes_allocated;
        let again = c.negate();
        assert_eq!(again.root(), n.root());
        assert_eq!(m.stats().nodes_allocated, allocated);
        // Within one negation a node reached along two paths is rebuilt
        // once.
        let f = m
            .dnf(&[vec![TupleId(0), TupleId(1)], vec![TupleId(2)]])
            .unwrap();
        let before = m.stats().apply_cache_misses;
        f.negate();
        assert_eq!(m.stats().apply_cache_misses - before, f.size() as u64);
    }

    #[test]
    fn canonicity_holds_after_mixed_operations() {
        let m = ObddManager::new(order(6));
        let a = m.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let b = m.clause(&[TupleId(2), TupleId(3)]).unwrap();
        let c = m.clause(&[TupleId(4), TupleId(5)]).unwrap();
        let ab = a.concat_or(&b).unwrap();
        let abc = ab.apply_or(&c).unwrap();
        let _n = abc.negate();
        assert_eq!(m.canonicity_violation(), None);
    }

    #[test]
    fn concat_trivial_covers_both_operators() {
        use crate::store::concat_trivial;
        // Left identity and absorbing sinks.
        assert_eq!(concat_trivial(false, FALSE, 7), Some(7));
        assert_eq!(concat_trivial(false, TRUE, 7), Some(TRUE));
        assert_eq!(concat_trivial(true, TRUE, 7), Some(7));
        assert_eq!(concat_trivial(true, FALSE, 7), Some(FALSE));
        // Right identity.
        assert_eq!(concat_trivial(false, 7, FALSE), Some(7));
        assert_eq!(concat_trivial(true, 7, TRUE), Some(7));
        // Real work.
        assert_eq!(concat_trivial(false, 7, 9), None);
        assert_eq!(concat_trivial(true, 7, 9), None);
    }

    #[test]
    fn dnf_fold_matches_clause_by_clause_fold() {
        let m = ObddManager::new(order(8));
        let clauses: Vec<Vec<TupleId>> = vec![
            vec![TupleId(0), TupleId(4)],
            vec![TupleId(1), TupleId(5)],
            vec![TupleId(2), TupleId(6)],
            vec![TupleId(0), TupleId(7)],
        ];
        let folded = m.dnf(&clauses).unwrap();
        let mut acc = m.constant(false);
        for c in &clauses {
            let clause = m.clause(c).unwrap();
            acc = acc.apply_or(&clause).unwrap();
        }
        assert_eq!(folded.root(), acc.root());
        // Degenerate inputs.
        assert_eq!(m.dnf::<Vec<TupleId>>(&[]).unwrap().root(), FALSE);
        assert_eq!(m.dnf(&[Vec::<TupleId>::new()]).unwrap().root(), TRUE);
        assert!(m.dnf(&[vec![TupleId(99)]]).is_err());
    }

    #[test]
    fn dense_side_tables_stay_in_lockstep_with_the_arena() {
        let m = ObddManager::new(order(16));
        let mut diagrams = Vec::new();
        for i in 0..8 {
            diagrams.push(m.clause(&[TupleId(i), TupleId(i + 8)]).unwrap());
        }
        let mut acc = m.constant(false);
        for d in &diagrams {
            acc = acc.apply_or(d).unwrap();
        }
        let negated = acc.negate();
        // The unique table stays in step with the nodes: a negation over
        // the whole store leaves it canonical, and both sides' flattened
        // copies read every node, old and new.
        let p = acc.probability(|_| 0.5);
        let np = negated.probability(|_| 0.5);
        assert!((p + np - 1.0).abs() < 1e-12);
        assert_eq!(m.canonicity_violation(), None);
    }

    #[test]
    fn synthesised_obdd_matches_brute_force_probability() {
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        let obdd = fig3_manager(&indb).lineage(&lin).unwrap();
        let expected = brute_force_lineage_probability(&lin, &indb);
        let actual = obdd.probability(|t| indb.probability(t));
        assert!((actual - expected).abs() < 1e-12);
        // In the Figure 3 order the OBDD has width 1 and six nodes.
        assert_eq!(obdd.size(), 6);
        assert_eq!(obdd.width(), 1);
    }

    #[test]
    fn constant_lineages_produce_constant_diagrams() {
        let indb = fig3();
        let m = ObddManager::new(Arc::new(VarOrder::natural(&indb)));
        let t = m.lineage(&Lineage::constant_true()).unwrap();
        assert_eq!(t.size(), 0);
        assert!(t.eval(|_| false));
        let f = m.lineage(&Lineage::constant_false()).unwrap();
        assert!(!f.eval(|_| true));
    }

    #[test]
    fn lineage_variables_all_appear_in_the_diagram() {
        let indb = fig3();
        let q = parse_ucq("Q() :- S(x, y)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        let obdd = fig3_manager(&indb).lineage(&lin).unwrap();
        // One node per S tuple: the diagram is a chain of 4 variables.
        assert_eq!(obdd.size(), 4);
        let p = obdd.probability(|t| indb.probability(t));
        let expected = 1.0 - (1.0 - 0.5) * (1.0 - 2.0 / 3.0) * (1.0 - 0.5) * (1.0 - 0.8);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn unknown_variables_are_reported() {
        // An order that misses tuples of the lineage.
        let m = ObddManager::new(Arc::new(VarOrder::from_tuples(vec![TupleId(0)])));
        let lin = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(3)]]);
        assert!(m.lineage(&lin).is_err());
    }
}
