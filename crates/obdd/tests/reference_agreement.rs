//! Property tests: the manager's iterative, explicit-stack hot paths
//! (`apply`, `negate`, probability) must agree exactly with the
//! straightforward recursive reference implementation
//! ([`mv_obdd::reference::RefManager`]) on random DNF diagrams — same
//! probabilities, same truth tables, same reduced-diagram sizes.

use std::sync::Arc;

use mv_obdd::{ObddManager, RefManager, VarOrder};
use mv_pdb::TupleId;
use proptest::prelude::*;

const VARS: u32 = 10;

fn order() -> Arc<VarOrder> {
    Arc::new(VarOrder::from_tuples((0..VARS).map(TupleId)))
}

/// A weight function that gives every variable a distinct probability (so a
/// structural disagreement cannot hide behind symmetric weights).
fn prob_of(t: TupleId) -> f64 {
    0.05 + 0.08 * f64::from(t.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// OR-folding random clauses through the manager's iterative apply
    /// produces the same diagram (probability, size, truth table) as the
    /// recursive reference.
    #[test]
    fn iterative_apply_agrees_with_recursive_reference(
        clauses in proptest::collection::vec(
            proptest::collection::vec(0u32..VARS, 1..4),
            1..8,
        ),
    ) {
        let ord = order();
        let manager = ObddManager::new(Arc::clone(&ord));
        let mut reference = RefManager::new(Arc::clone(&ord));
        let mut acc = manager.constant(false);
        let mut ref_acc = RefManager::constant(false);
        for clause in &clauses {
            let tuples: Vec<TupleId> = clause.iter().copied().map(TupleId).collect();
            let c = manager.clause(&tuples).unwrap();
            acc = acc.apply_or(&c).unwrap();
            let rc = reference.clause(&tuples).unwrap();
            ref_acc = reference.apply_or(ref_acc, rc);
        }
        let p = acc.probability(prob_of);
        let rp = reference.probability(ref_acc, &prob_of);
        prop_assert!((p - rp).abs() < 1e-12, "probability {p} vs reference {rp}");
        prop_assert_eq!(acc.size(), reference.size(ref_acc));
        // Full truth table (2^10 assignments).
        for mask in 0..(1u32 << VARS) {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            prop_assert_eq!(acc.eval(assign), reference.eval(ref_acc, assign));
        }
        prop_assert_eq!(manager.canonicity_violation(), None);
    }

    /// Conjunction and negation agree as well: `¬(A ∧ B)` through both
    /// implementations, with the probability pass run twice.
    #[test]
    fn apply_and_negate_agree_with_reference(
        left in proptest::collection::vec(
            proptest::collection::vec(0u32..VARS, 1..3),
            1..5,
        ),
        right in proptest::collection::vec(
            proptest::collection::vec(0u32..VARS, 1..3),
            1..5,
        ),
    ) {
        let ord = order();
        let manager = ObddManager::new(Arc::clone(&ord));
        let mut reference = RefManager::new(Arc::clone(&ord));
        let build = |clauses: &[Vec<u32>],
                     manager: &ObddManager,
                     reference: &mut RefManager| {
            let mut acc = manager.constant(false);
            let mut ref_acc = RefManager::constant(false);
            for clause in clauses {
                let tuples: Vec<TupleId> = clause.iter().copied().map(TupleId).collect();
                let c = manager.clause(&tuples).unwrap();
                acc = acc.apply_or(&c).unwrap();
                let rc = reference.clause(&tuples).unwrap();
                ref_acc = reference.apply_or(ref_acc, rc);
            }
            (acc, ref_acc)
        };
        let (a, ra) = build(&left, &manager, &mut reference);
        let (b, rb) = build(&right, &manager, &mut reference);
        let both = a.apply_and(&b).unwrap().negate();
        let ref_and = reference.apply_and(ra, rb);
        let ref_both = reference.negate(ref_and);
        let p1 = both.probability(prob_of);
        let p2 = both.probability(prob_of);
        let rp = reference.probability(ref_both, &prob_of);
        prop_assert!((p1 - rp).abs() < 1e-12, "cold {p1} vs reference {rp}");
        prop_assert!((p2 - rp).abs() < 1e-12, "warm {p2} vs reference {rp}");
        prop_assert_eq!(both.size(), reference.size(ref_both));
    }
}
