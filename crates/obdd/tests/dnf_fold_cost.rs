//! The DNF fold is linear on width-1 lineages whatever order the clauses
//! arrive in: deterministic node counts, no wall clock. (Folding in
//! arrival order allocates ≈ ¾·n² nodes on a shuffled n-clause chain —
//! 3·10⁸ at the larger size here.)

use std::sync::Arc;

use mv_obdd::{ObddManager, VarOrder};
use mv_pdb::TupleId;

/// The lineage of `R(x), S(x, y)` with four `S` tuples per `R` tuple in
/// the order `x₀ y₀₀ … y₀₃ x₁ …` (width 1), its clauses scrambled by a
/// fixed multiplicative permutation.
fn shuffled_fan_out(clauses: u32) -> (u32, Vec<[TupleId; 2]>) {
    assert_eq!(clauses % 4, 0);
    let variables = clauses / 4 * 5;
    let lineage = (0..clauses)
        .map(|i| i * 7919 % clauses)
        .map(|c| [TupleId(c / 4 * 5), TupleId(c / 4 * 5 + 1 + c % 4)])
        .collect();
    (variables, lineage)
}

#[test]
fn shuffled_width_one_lineages_fold_in_linear_nodes() {
    for clauses in [1_000u32, 20_000] {
        let (variables, lineage) = shuffled_fan_out(clauses);
        let order = Arc::new(VarOrder::from_tuples((0..variables).map(TupleId)));
        let manager = ObddManager::new(order);
        let obdd = manager.dnf(&lineage).unwrap();
        assert_eq!(obdd.size(), variables as usize);
        assert_eq!(obdd.width(), 1);
        let allocated = manager.stats().nodes_allocated;
        assert!(
            allocated <= 4 * u64::from(variables),
            "{clauses} clauses over {variables} variables allocated {allocated} nodes"
        );
    }
}
