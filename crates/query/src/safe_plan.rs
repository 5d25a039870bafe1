//! Lifted (safe-plan) probability evaluation of UCQs over tuple-independent
//! databases.
//!
//! This module implements the classical lifted-inference rules for unions of
//! conjunctive queries (independent join, independent project over a
//! separator variable, independent union, and inclusion–exclusion), which
//! compute `P(Q)` in polynomial time for *safe* queries [Dalvi & Suciu].
//! Queries on which none of the rules applies are reported as
//! [`SafePlanError::Unsafe`]; callers fall back to lineage-based exact
//! inference (Shannon expansion or OBDDs).
//!
//! Every rule — products for independent conjunctions, `1 − Π(1 − p)` for
//! independent disjunctions, inclusion–exclusion — remains valid when tuple
//! probabilities are negative, so this evaluator is also usable on the
//! translated databases of Section 3 (the paper's Section 3.3 makes exactly
//! this observation).
//!
//! The dominant data-dependent cost of a safe plan is enumerating separator
//! domains; those are served by
//! [`Database::column_domain`](mv_pdb::Database::column_domain), which
//! deduplicates the dictionary-encoded column as integer codes and decodes
//! only the distinct survivors.

use std::collections::BTreeSet;
use std::fmt;

use mv_pdb::{InDb, Value};

use crate::analysis::{
    find_separator, independent_atom_components, independent_disjunct_groups, root_variables,
};
use crate::ast::{Atom, ConjunctiveQuery, Ucq};
use crate::error::QueryError;
use crate::rewrite::{separator_domain, simplify_cq, SimplifiedCq};

/// Errors of the safe-plan evaluator.
#[derive(Debug, Clone, PartialEq)]
pub enum SafePlanError {
    /// The query is not recognised as safe by the implemented rules.
    Unsafe(String),
    /// A lower-level query error (unknown relation, arity mismatch, …).
    Query(QueryError),
}

impl fmt::Display for SafePlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SafePlanError::Unsafe(q) => write!(f, "no safe plan found for query: {q}"),
            SafePlanError::Query(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SafePlanError {}

impl From<QueryError> for SafePlanError {
    fn from(e: QueryError) -> Self {
        SafePlanError::Query(e)
    }
}

/// Maximum number of disjuncts handled through inclusion–exclusion.
const MAX_INCLUSION_EXCLUSION: usize = 12;
/// Maximum recursion depth (guards against pathological inputs).
const MAX_DEPTH: usize = 64;

/// Computes the probability of a Boolean UCQ over a tuple-independent
/// database using lifted inference rules only.
pub fn safe_probability(ucq: &Ucq, indb: &InDb) -> Result<f64, SafePlanError> {
    if !ucq.is_boolean() {
        return Err(SafePlanError::Query(QueryError::NotBoolean(
            ucq.name.to_string(),
        )));
    }
    // Validate relations/arities up front so that evaluation can assume a
    // well-formed query.
    for d in &ucq.disjuncts {
        for atom in &d.atoms {
            let rel = indb
                .schema()
                .relation_id(&atom.relation)
                .ok_or_else(|| QueryError::UnknownRelation(atom.relation.to_string()))?;
            let arity = indb.schema().relation(rel).arity();
            if atom.terms.len() != arity {
                return Err(SafePlanError::Query(QueryError::ArityMismatch {
                    relation: atom.relation.to_string(),
                    expected: arity,
                    actual: atom.terms.len(),
                }));
            }
        }
    }
    ucq_probability(&ucq.disjuncts, indb, 0)
}

fn ucq_probability(
    disjuncts: &[ConjunctiveQuery],
    indb: &InDb,
    depth: usize,
) -> Result<f64, SafePlanError> {
    if depth > MAX_DEPTH {
        return Err(SafePlanError::Unsafe("recursion limit exceeded".into()));
    }

    // Simplify every disjunct; drop the unsatisfiable ones, and short-circuit
    // if one of them is certainly true.
    let mut simplified: Vec<ConjunctiveQuery> = Vec::new();
    for d in disjuncts {
        match simplify_cq(d, indb) {
            SimplifiedCq::False => {}
            SimplifiedCq::True => return Ok(1.0),
            SimplifiedCq::Query(q) => simplified.push(q),
        }
    }
    // Deduplicate syntactically identical disjuncts.
    simplified.sort_by_key(|d| format!("{d}"));
    simplified.dedup_by_key(|d| format!("{d}"));

    if simplified.is_empty() {
        return Ok(0.0);
    }
    if simplified.len() == 1 {
        return cq_probability(&simplified[0], indb, depth);
    }

    let ucq = Ucq::new("q", simplified.clone());

    // Independent union: groups of disjuncts sharing no relation symbols.
    let groups = independent_disjunct_groups(&ucq);
    if groups.len() > 1 {
        let mut q = 1.0;
        for group in groups {
            let ds: Vec<ConjunctiveQuery> = group
                .into_iter()
                .map(|i| ucq.disjuncts[i].clone())
                .collect();
            let p = ucq_probability(&ds, indb, depth + 1)?;
            q *= 1.0 - p;
        }
        return Ok(1.0 - q);
    }

    // Separator variable: independent project across the whole union.
    if let Some(sep) = find_separator(&ucq) {
        let domain = separator_domain(&ucq, &sep.per_disjunct, indb);
        let mut q = 1.0;
        for value in domain {
            let grounded: Vec<ConjunctiveQuery> = ucq
                .disjuncts
                .iter()
                .zip(&sep.per_disjunct)
                .map(|(d, v)| d.substitute(v, &value))
                .collect();
            let p = ucq_probability(&grounded, indb, depth + 1)?;
            q *= 1.0 - p;
        }
        return Ok(1.0 - q);
    }

    // Inclusion–exclusion over the disjuncts.
    let m = ucq.disjuncts.len();
    if m > MAX_INCLUSION_EXCLUSION {
        return Err(SafePlanError::Unsafe(format!(
            "inclusion-exclusion over {m} disjuncts exceeds the limit"
        )));
    }
    let renamed: Vec<ConjunctiveQuery> = ucq
        .disjuncts
        .iter()
        .enumerate()
        .map(|(i, d)| d.rename_apart(&format!("@ie{i}")))
        .collect();
    let mut total = 0.0;
    for subset in 1u32..(1u32 << m) {
        let mut conj: Option<ConjunctiveQuery> = None;
        for (i, d) in renamed.iter().enumerate() {
            if subset & (1 << i) != 0 {
                conj = Some(match conj {
                    None => d.clone(),
                    Some(c) => c.conjoin(d),
                });
            }
        }
        let conj = conj.expect("subset is non-empty");
        let p = cq_probability(&conj, indb, depth + 1)?;
        let sign = if subset.count_ones() % 2 == 1 {
            1.0
        } else {
            -1.0
        };
        total += sign * p;
    }
    Ok(total)
}

fn cq_probability(cq: &ConjunctiveQuery, indb: &InDb, depth: usize) -> Result<f64, SafePlanError> {
    if depth > MAX_DEPTH {
        return Err(SafePlanError::Unsafe("recursion limit exceeded".into()));
    }
    let cq = match simplify_cq(cq, indb) {
        SimplifiedCq::False => return Ok(0.0),
        SimplifiedCq::True => return Ok(1.0),
        SimplifiedCq::Query(q) => q,
    };

    // Independent join: split the atoms into components connected by shared
    // existential variables, relation symbols or comparisons.
    let components = independent_atom_components(&cq);
    if components.len() > 1 {
        let mut product = 1.0;
        for comp in components {
            let atoms: Vec<Atom> = comp.iter().map(|&i| cq.atoms[i].clone()).collect();
            let vars: BTreeSet<String> = atoms
                .iter()
                .flat_map(|a| a.variables().map(str::to_string))
                .collect();
            let comparisons = cq
                .comparisons
                .iter()
                .filter(|c| c.variables().any(|v| vars.contains(v)))
                .cloned()
                .collect();
            let sub = ConjunctiveQuery::new(cq.name.clone(), vec![], atoms, comparisons);
            product *= cq_probability(&sub, indb, depth + 1)?;
        }
        return Ok(product);
    }

    // Single ground atom over a probabilistic relation.
    if cq.atoms.len() == 1 && cq.atoms[0].is_ground() {
        let atom = &cq.atoms[0];
        let rel = indb
            .schema()
            .relation_id(&atom.relation)
            .ok_or_else(|| QueryError::UnknownRelation(atom.relation.to_string()))?;
        let row: Vec<Value> = atom
            .terms
            .iter()
            .map(|t| t.as_const().cloned().expect("atom is ground"))
            .collect();
        return Ok(match indb.tuple_id_by_values(rel, &row) {
            Some(t) => indb.probability(t),
            None => 0.0,
        });
    }

    // Independent project over a root variable that is position-consistent
    // (a separator for the singleton union).
    let ucq = Ucq::from_cq(cq.clone());
    if let Some(sep) = find_separator(&ucq) {
        let var = &sep.per_disjunct[0];
        let domain = separator_domain(&ucq, &sep.per_disjunct, indb);
        let mut q = 1.0;
        for value in domain {
            let grounded = cq.substitute(var, &value);
            let p = cq_probability(&grounded, indb, depth + 1)?;
            q *= 1.0 - p;
        }
        return Ok(1.0 - q);
    }

    // A root variable that is not position-consistent across a self-join
    // cannot be projected independently; no further rule applies.
    let _ = root_variables(&cq);
    Err(SafePlanError::Unsafe(cq.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::brute_force_query_probability;
    use crate::parser::parse_ucq;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};

    fn db() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        let t = b.probabilistic_relation("T", &["b"]).unwrap();
        let d = b.deterministic_relation("D", &["a"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(0.5)).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(2.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b2"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(t, row(["b1"]), Weight::new(1.0)).unwrap();
        b.insert_weighted(t, row(["b2"]), Weight::new(4.0)).unwrap();
        b.insert_fact(d, row(["a1"])).unwrap();
        b.build()
    }

    fn assert_matches_brute(query: &str) {
        let indb = db();
        let q = parse_ucq(query).unwrap();
        let safe = safe_probability(&q, &indb).unwrap();
        let brute = brute_force_query_probability(&q, &indb).unwrap();
        assert!(
            (safe - brute).abs() < 1e-9,
            "{query}: safe {safe} vs brute {brute}"
        );
    }

    #[test]
    fn safe_queries_match_brute_force() {
        assert_matches_brute("Q() :- R(x), S(x, y)");
        assert_matches_brute("Q() :- R(x)");
        assert_matches_brute("Q() :- S(x, y)");
        assert_matches_brute("Q() :- R(x), S(x, y), y like '%b1%'");
        assert_matches_brute("Q() :- R(x), D(x)");
        assert_matches_brute("Q() :- R(x), S(x, y) ; Q() :- T(z)");
        assert_matches_brute("Q() :- R(x) ; Q() :- S(x, y), T(y)");
        assert_matches_brute("Q() :- S('a1', y)");
        assert_matches_brute("Q() :- R('a1')");
        assert_matches_brute("Q() :- R('zzz')");
    }

    #[test]
    fn unions_with_shared_relations_use_inclusion_exclusion() {
        // The "triangle" union over unary projections is safe but requires
        // inclusion–exclusion after grounding the separator.
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("A", &["x"]).unwrap();
        let s = b.probabilistic_relation("B", &["x"]).unwrap();
        let t = b.probabilistic_relation("C", &["x"]).unwrap();
        for (i, rel) in [r, s, t].into_iter().enumerate() {
            b.insert_weighted(rel, row(["v1"]), Weight::new(1.0 + i as f64))
                .unwrap();
            b.insert_weighted(rel, row(["v2"]), Weight::new(0.5))
                .unwrap();
        }
        let indb = b.build();
        let q = parse_ucq("Q() :- A(x), B(x) ; Q() :- A(y), C(y) ; Q() :- B(z), C(z)").unwrap();
        let safe = safe_probability(&q, &indb).unwrap();
        let brute = brute_force_query_probability(&q, &indb).unwrap();
        assert!((safe - brute).abs() < 1e-9, "safe {safe} vs brute {brute}");
    }

    #[test]
    fn the_hard_queries_are_reported_unsafe() {
        let indb = db();
        // H0 — the canonical #P-hard conjunctive query.
        let q = parse_ucq("Q() :- R(x), S(x, y), T(y)").unwrap();
        assert!(matches!(
            safe_probability(&q, &indb),
            Err(SafePlanError::Unsafe(_))
        ));
        // H1 — the canonical #P-hard union.
        let q = parse_ucq("Q() :- R(x), S(x, y) ; Q() :- S(u, v), T(v)").unwrap();
        assert!(matches!(
            safe_probability(&q, &indb),
            Err(SafePlanError::Unsafe(_))
        ));
    }

    #[test]
    fn deterministic_atoms_are_absorbed() {
        let indb = db();
        // D(a1) holds, so the query reduces to R(a1).
        let q = parse_ucq("Q() :- R(x), D(x)").unwrap();
        let p = safe_probability(&q, &indb).unwrap();
        assert!((p - 0.75).abs() < 1e-9);
    }

    #[test]
    fn non_boolean_queries_are_rejected() {
        let indb = db();
        let q = parse_ucq("Q(x) :- R(x)").unwrap();
        assert!(matches!(
            safe_probability(&q, &indb),
            Err(SafePlanError::Query(QueryError::NotBoolean(_)))
        ));
    }

    #[test]
    fn unknown_relations_are_reported() {
        let indb = db();
        let q = parse_ucq("Q() :- Missing(x)").unwrap();
        assert!(matches!(
            safe_probability(&q, &indb),
            Err(SafePlanError::Query(QueryError::UnknownRelation(_)))
        ));
    }

    #[test]
    fn negative_probabilities_flow_through_safe_plans() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let nv = b.probabilistic_relation("NV", &["a"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(3.0)).unwrap();
        // Translated weight for a view weight of 4: (1-4)/4 = -0.75, p = -3.
        b.insert_translated(nv, row(["a"]), Weight::new(-0.75))
            .unwrap();
        let indb = b.build();
        let q = parse_ucq("Q() :- R(x), NV(x)").unwrap();
        let safe = safe_probability(&q, &indb).unwrap();
        let brute = brute_force_query_probability(&q, &indb).unwrap();
        assert!((safe - brute).abs() < 1e-9);
        assert!((safe - 0.75 * -3.0).abs() < 1e-9);
    }
}
