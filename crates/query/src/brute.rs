//! Brute-force probability computation over lineage variables.
//!
//! These functions enumerate all `2^n` truth assignments of the variables
//! appearing in a lineage. They exist purely as ground-truth oracles for
//! tests and for tiny examples; every production code path uses the safe-plan
//! evaluator, the Shannon evaluator or the OBDD/MV-index machinery instead.

use mv_pdb::{InDb, TupleId};

use crate::error::QueryError;
use crate::eval::EvalContext;
use crate::lineage::{lineage, lineage_with, Lineage};
use crate::Result;

/// Maximum number of distinct lineage variables the brute-force evaluator
/// will enumerate.
pub const MAX_BRUTE_VARIABLES: usize = 24;

/// Computes the probability of a lineage by enumerating assignments of its
/// variables, with probabilities given by `prob_of`.
///
/// Panics if the lineage mentions more than [`MAX_BRUTE_VARIABLES`]
/// variables.
pub fn brute_force_probability_with(lineage: &Lineage, prob_of: &impl Fn(TupleId) -> f64) -> f64 {
    if lineage.is_true() {
        return 1.0;
    }
    if lineage.is_false() {
        return 0.0;
    }
    let vars: Vec<TupleId> = lineage.variables().into_iter().collect();
    assert!(
        vars.len() <= MAX_BRUTE_VARIABLES,
        "brute-force enumeration over {} variables is not feasible",
        vars.len()
    );
    let mut total = 0.0;
    for assignment in 0u64..(1u64 << vars.len()) {
        let mut assignment_prob = 1.0;
        for (bit, &t) in vars.iter().enumerate() {
            let p = prob_of(t);
            if assignment & (1 << bit) != 0 {
                assignment_prob *= p;
            } else {
                assignment_prob *= 1.0 - p;
            }
        }
        if eval_on_vars(lineage, &vars, assignment) {
            total += assignment_prob;
        }
    }
    total
}

fn eval_on_vars(lineage: &Lineage, vars: &[TupleId], assignment: u64) -> bool {
    let truth = |t: TupleId| -> bool {
        vars.iter()
            .position(|&v| v == t)
            .map(|i| assignment & (1 << i) != 0)
            .unwrap_or(false)
    };
    lineage
        .clauses()
        .iter()
        .any(|c| c.iter().all(|&t| truth(t)))
}

/// Computes the probability of a lineage over an [`InDb`] by enumeration.
pub fn brute_force_lineage_probability(lineage: &Lineage, indb: &InDb) -> f64 {
    brute_force_probability_with(lineage, &|t| indb.probability(t))
}

/// Computes the probability of a Boolean UCQ over an [`InDb`] by computing
/// its lineage (through a compiled physical plan) and enumerating the
/// lineage variables.
pub fn brute_force_query_probability(ucq: &crate::ast::Ucq, indb: &InDb) -> Result<f64> {
    if !ucq.is_boolean() {
        return Err(QueryError::NotBoolean(ucq.name.to_string()));
    }
    let lin = lineage(ucq, indb)?;
    Ok(brute_force_lineage_probability(&lin, indb))
}

/// [`brute_force_query_probability`] reusing an [`EvalContext`]'s cached
/// plans and column indexes.
pub fn brute_force_query_probability_with(
    ucq: &crate::ast::Ucq,
    indb: &InDb,
    ctx: &EvalContext<'_>,
) -> Result<f64> {
    if !ucq.is_boolean() {
        return Err(QueryError::NotBoolean(ucq.name.to_string()));
    }
    let lin = lineage_with(ucq, indb, ctx)?;
    Ok(brute_force_lineage_probability(&lin, indb))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ucq;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};

    fn db() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap(); // p = 0.75
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap(); // p = 0.5
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(1.0))
            .unwrap(); // p = 0.5
        b.build()
    }

    #[test]
    fn brute_force_matches_hand_computation() {
        let indb = db();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        // P = p(R) * (1 - (1-p(S1))(1-p(S2))) = 0.75 * 0.75.
        let p = brute_force_query_probability(&q, &indb).unwrap();
        assert!((p - 0.5625).abs() < 1e-12);
    }

    #[test]
    fn constant_lineages_short_circuit() {
        let indb = db();
        assert_eq!(
            brute_force_lineage_probability(&Lineage::constant_true(), &indb),
            1.0
        );
        assert_eq!(
            brute_force_lineage_probability(&Lineage::constant_false(), &indb),
            0.0
        );
    }

    #[test]
    fn non_boolean_queries_are_rejected() {
        let indb = db();
        let q = parse_ucq("Q(x) :- R(x)").unwrap();
        assert!(matches!(
            brute_force_query_probability(&q, &indb),
            Err(QueryError::NotBoolean(_))
        ));
    }

    #[test]
    #[should_panic(expected = "not feasible")]
    fn too_many_variables_panics() {
        let clauses: Vec<Vec<mv_pdb::TupleId>> =
            (0..30u32).map(|i| vec![mv_pdb::TupleId(i)]).collect();
        let l = Lineage::from_clauses(clauses);
        let _ = brute_force_probability_with(&l, &|_| 0.5);
    }
}
