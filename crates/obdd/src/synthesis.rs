//! The generic, synthesis-only OBDD builder (the "native CUDD" baseline).
//!
//! [`SynthesisBuilder`] constructs the OBDD of a query by computing its DNF
//! lineage and folding the clauses together with the classical `apply`
//! synthesis — what a generic OBDD package does when handed a Boolean
//! formula. It produces the same reduced diagram as the ConOBDD construction
//! (canonicity of reduced OBDDs under a fixed order). A single `apply` is
//! `O(|G1| · |G2|)` in general; the fold ([`ObddManager::dnf`]) takes the
//! clauses deepest top variable first, so each step rebuilds only the part
//! of the accumulator above the incoming clause's last level: linear in
//! the lineage when the diagram has constant width (inversion-free
//! queries, every online lineage of the MV-index path), and as large as the
//! diagram itself when it does not — the pairing functions of the bounded
//! entry point's tests stay exponential under any fold order. Figure 8 of
//! the paper measures the arrival-order fold, `O(clauses · variables)` even
//! at width 1, against the concatenation-based construction.

use std::sync::Arc;

use mv_pdb::InDb;
use mv_query::lineage::{lineage, Lineage};
use mv_query::Ucq;

use crate::manager::ObddManager;
use crate::obdd::Obdd;
use crate::order::VarOrder;
use crate::Result;

/// Builds OBDDs from lineage by pairwise synthesis. All diagrams a builder
/// produces live in one shared [`ObddManager`], so clause diagrams and
/// intermediate synthesis results are hash-consed against each other and
/// repeated apply steps hit the manager's persistent memo.
#[derive(Debug, Clone)]
pub struct SynthesisBuilder {
    manager: ObddManager,
}

impl SynthesisBuilder {
    /// Creates a builder over the given variable order (with a fresh
    /// manager).
    pub fn new(order: Arc<VarOrder>) -> Self {
        SynthesisBuilder {
            manager: ObddManager::new(order),
        }
    }

    /// Creates a builder that synthesises into an existing manager — the way
    /// to share query-side diagrams across many lineages (e.g. the
    /// per-answer loop of the MV-index backend).
    pub fn with_manager(manager: ObddManager) -> Self {
        SynthesisBuilder { manager }
    }

    /// The variable order used by this builder.
    pub fn order(&self) -> &Arc<VarOrder> {
        self.manager.order()
    }

    /// The shared manager diagrams are built into.
    pub fn manager(&self) -> &ObddManager {
        &self.manager
    }

    /// Builds the OBDD of a DNF lineage by synthesising one clause at a
    /// time — through [`ObddManager::dnf`], so the whole fold runs in level
    /// order under a single manager-lock acquisition.
    pub fn from_lineage(&self, lineage: &Lineage) -> Result<Obdd> {
        if lineage.is_true() {
            return Ok(self.manager.constant(true));
        }
        self.manager.dnf(lineage.clauses())
    }

    /// Like [`SynthesisBuilder::from_lineage`] but **refuses** lineages
    /// whose synthesis allocates more than `node_budget` fresh nodes
    /// (returns [`crate::ObddError::NodeBudgetExceeded`]). This is the
    /// exact-inference entry point for callers with an approximate
    /// fallback: a lineage with no small OBDD under this order fails fast
    /// instead of exhausting memory.
    pub fn from_lineage_bounded(&self, lineage: &Lineage, node_budget: usize) -> Result<Obdd> {
        if lineage.is_true() {
            return Ok(self.manager.constant(true));
        }
        self.manager.dnf_bounded(lineage.clauses(), node_budget)
    }

    /// Computes the lineage of a Boolean UCQ and builds its OBDD.
    pub fn from_query(&self, ucq: &Ucq, indb: &InDb) -> Result<Obdd> {
        let lin = lineage(ucq, indb)?;
        self.from_lineage(&lin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, TupleId, Weight};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::parse_ucq;

    use crate::order::PiOrder;

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

    #[test]
    fn synthesised_obdd_matches_brute_force_probability() {
        let indb = fig3();
        let order = Arc::new(PiOrder::identity().tuple_order(&indb));
        let builder = SynthesisBuilder::new(order);
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let obdd = builder.from_query(&q, &indb).unwrap();
        let lin = lineage(&q, &indb).unwrap();
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
        let order = Arc::new(VarOrder::natural(&indb));
        let builder = SynthesisBuilder::new(order);
        let t = builder.from_lineage(&Lineage::constant_true()).unwrap();
        assert_eq!(t.size(), 0);
        assert!(t.eval(|_| false));
        let f = builder.from_lineage(&Lineage::constant_false()).unwrap();
        assert!(!f.eval(|_| true));
    }

    #[test]
    fn lineage_variables_all_appear_in_the_diagram() {
        let indb = fig3();
        let order = Arc::new(PiOrder::identity().tuple_order(&indb));
        let builder = SynthesisBuilder::new(order);
        let q = parse_ucq("Q() :- S(x, y)").unwrap();
        let obdd = builder.from_query(&q, &indb).unwrap();
        // One node per S tuple: the diagram is a chain of 4 variables.
        assert_eq!(obdd.size(), 4);
        let p = obdd.probability(|t| indb.probability(t));
        let expected = 1.0 - (1.0 - 0.5) * (1.0 - 2.0 / 3.0) * (1.0 - 0.5) * (1.0 - 0.8);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn bounded_synthesis_refuses_pairing_blowups() {
        // f = ∨_i xᵢ ∧ yᵢ with every x-variable ordered before every
        // y-variable: after the x-levels the diagram must remember the set
        // of matched partners, so the reduced OBDD has ~2ⁿ nodes. The
        // bounded entry point refuses fast instead of exhausting memory.
        let n = 14u32;
        let order = Arc::new(VarOrder::from_tuples((0..2 * n).map(TupleId)));
        let builder = SynthesisBuilder::new(order);
        let lin = Lineage::from_clauses(
            (0..n)
                .map(|i| vec![TupleId(i), TupleId(n + i)])
                .collect::<Vec<_>>(),
        );
        match builder.from_lineage_bounded(&lin, 2_000) {
            Err(crate::ObddError::NodeBudgetExceeded { allocated, budget }) => {
                assert!(allocated > budget);
                assert_eq!(budget, 2_000);
            }
            other => panic!("expected a node-budget refusal, got {other:?}"),
        }
        // A generous budget admits the same lineage and confirms the size.
        let obdd = builder.from_lineage_bounded(&lin, usize::MAX).unwrap();
        assert!(obdd.size() > 2_000, "diagram size {}", obdd.size());
        // Easy lineages pass untouched under tight budgets.
        let easy = Lineage::from_clauses(vec![vec![TupleId(0)], vec![TupleId(1)]]);
        let small = builder.from_lineage_bounded(&easy, 16).unwrap();
        assert!(small.size() <= 2);
    }

    #[test]
    fn unknown_variables_are_reported() {
        let indb = fig3();
        // An order that misses tuples of the lineage.
        let order = Arc::new(VarOrder::from_tuples(vec![TupleId(0)]));
        let builder = SynthesisBuilder::new(order);
        let lin = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(3)]]);
        assert!(builder.from_lineage(&lin).is_err());
        let _ = indb;
    }
}
