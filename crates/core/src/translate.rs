//! The translation from MVDBs to tuple-independent databases
//! (Definition 5 and Theorem 1).
//!
//! Given an MVDB `(Tup, w, V)`, the translated database contains
//!
//! * every base table with unchanged weights,
//! * one new relation `NV_i` per MarkoView `V_i`, holding every possible
//!   output tuple of the view with weight `(1 − w)/w` — negative when the
//!   view weight exceeds 1,
//!
//! together with the Boolean helper query
//! `W = ⋁_i ∃x̄_i. NV_i(x̄_i) ∧ Q_i(x̄_i)`.
//! Theorem 1 then states `P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))` for every
//! Boolean query `Q`, where `P0` is the tuple-independent probability on the
//! translated database.
//!
//! The translated store is the only copy of the data a compiled engine
//! evaluates on: the MV-index is compiled from it, every context — shard
//! workers included — reads it, and an update either writes weights into it
//! in place or replaces it by a fresh translation. The query plans compiled
//! against it live beside it, in one [`PlanCache`] every context shares: a
//! weight write leaves the tuples, hence the plans, as they are, and a fresh
//! translation starts a fresh cache.
//!
//! Two simplifications from the paper are applied: denial views (`w = 0`)
//! yield deterministic `NV` tuples, so the `NV_i` atom is dropped from `W_i`
//! entirely (end of Section 3.2), and output tuples with weight exactly `1`
//! (independence) are skipped because their translated weight is `0`.

use std::sync::Arc;

use mv_pdb::{InDb, InDbBuilder, RelId, TupleId, Weight};
use mv_query::{Atom, ConjunctiveQuery, PlanCache, Ucq};

use crate::mvdb::Mvdb;
use crate::Result;

/// The tuple-independent database associated to an MVDB, together with the
/// helper query `W` and the query templates compiled against it.
///
/// A clone shares the plan cache: clones hold the same tuples until one is
/// re-translated, and weight writes do not touch plans.
#[derive(Debug, Clone)]
pub struct TranslatedIndb {
    indb: InDb,
    w: Option<Ucq>,
    nv_relations: Vec<String>,
    nv_rel_ids: Vec<RelId>,
    plan_cache: Arc<PlanCache>,
}

impl TranslatedIndb {
    /// Performs the translation of Definition 5.
    pub fn new(mvdb: &Mvdb) -> Result<Self> {
        let base = mvdb.base();
        let mut builder = InDbBuilder::new();

        // Copy the base schema and tuples with unchanged weights.
        for (rel_id, schema) in base.schema().relations() {
            let attrs: Vec<&str> = schema.attributes().iter().map(String::as_str).collect();
            if base.is_deterministic(rel_id) {
                let new_rel = builder.deterministic_relation(schema.name(), &attrs)?;
                for row in base.database().rows(rel_id) {
                    builder.insert_fact(new_rel, row.clone())?;
                }
            } else {
                let new_rel = builder.probabilistic_relation(schema.name(), &attrs)?;
                for (row_index, row) in base.database().relation(rel_id).iter() {
                    let id = base
                        .tuple_id(rel_id, row_index)
                        .expect("probabilistic rows have tuple ids");
                    builder.insert_weighted(new_rel, row.clone(), base.weight(id))?;
                }
            }
        }

        // Create one NV relation per (non-denial) view and populate it.
        let mut nv_relations = Vec::with_capacity(mvdb.views().len());
        let mut nv_rel_ids = Vec::new();
        let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
        for (i, view) in mvdb.views().iter().enumerate() {
            let nv_name = view.nv_relation_name();
            nv_relations.push(nv_name.clone());
            if view.is_denial() {
                // NV is deterministic and always present: drop it from W_i.
                for disjunct in &view.query.disjuncts {
                    disjuncts.push(w_disjunct(i, disjunct, None));
                }
                continue;
            }
            let attrs: Vec<String> = (0..view.arity()).map(|p| format!("a{p}")).collect();
            let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
            let nv_rel = builder.probabilistic_relation(&nv_name, &attr_refs)?;
            nv_rel_ids.push(nv_rel);
            let outputs = mvdb.view_output(view)?;
            for (row, weight) in outputs {
                let translated = Weight::new(weight).negated_view_weight();
                if translated.is_zero() {
                    // Weight 1 (independence): the NV tuple would have
                    // probability 0 and can be omitted.
                    continue;
                }
                builder.insert_translated(nv_rel, row, translated)?;
            }
            for disjunct in &view.query.disjuncts {
                disjuncts.push(w_disjunct(i, disjunct, Some(&nv_name)));
            }
        }

        let indb = builder.build();
        let w = if disjuncts.is_empty() {
            None
        } else {
            Some(Ucq::new("W", disjuncts))
        };
        Ok(TranslatedIndb {
            plan_cache: Arc::new(PlanCache::new(indb.database())),
            indb,
            w,
            nv_relations,
            nv_rel_ids,
        })
    }

    /// The translated tuple-independent database.
    pub fn indb(&self) -> &InDb {
        &self.indb
    }

    /// Mutable access to the translated store, for the update subsystem's
    /// in-place weight writes (the tuple set itself is only ever changed by
    /// re-translation, so the plan cache stays valid).
    pub(crate) fn indb_mut(&mut self) -> &mut InDb {
        &mut self.indb
    }

    /// The query templates compiled against this store, shared by every
    /// evaluation context over it and by every clone of it.
    pub fn plan_cache(&self) -> &Arc<PlanCache> {
        &self.plan_cache
    }

    /// The helper query `W`, or `None` when the MVDB has no MarkoViews.
    pub fn w(&self) -> Option<&Ucq> {
        self.w.as_ref()
    }

    /// The name of the `NV` relation of the `i`-th view.
    pub fn nv_relation(&self, view_index: usize) -> &str {
        &self.nv_relations[view_index]
    }

    /// Number of possible tuples in the translated database (base tuples plus
    /// `NV` tuples).
    pub fn num_tuples(&self) -> usize {
        self.indb.num_tuples()
    }

    /// `true` when the possible tuple is an `NV` tuple introduced by the
    /// translation (as opposed to a base tuple of the original MVDB).
    ///
    /// The Monte Carlo backend integrates exactly these variables out of
    /// each sampled world: every clause of `W`'s lineage carries at most one
    /// of them, so their residual probability is a plain product — which is
    /// also what makes sampling sound despite their (possibly negative)
    /// translated weights.
    pub fn is_nv_tuple(&self, id: TupleId) -> bool {
        self.nv_rel_ids.contains(&self.indb.tuple(id).rel)
    }
}

/// Builds the disjunct `W_i` for one disjunct of the view query: the view
/// body joined with the `NV_i` atom over the view's head terms (or just the
/// body, for denial views).
fn w_disjunct(
    view_index: usize,
    disjunct: &ConjunctiveQuery,
    nv_name: Option<&str>,
) -> ConjunctiveQuery {
    let mut atoms = Vec::with_capacity(disjunct.atoms.len() + 1);
    if let Some(nv) = nv_name {
        atoms.push(Atom::new(nv, disjunct.head.clone()));
    }
    atoms.extend(disjunct.atoms.iter().cloned());
    ConjunctiveQuery::new(
        format!("W{}", view_index + 1),
        vec![],
        atoms,
        disjunct.comparisons.clone(),
    )
}

/// Convenience: translate an MVDB (re-exported as a free function, mirroring
/// the paper's notation `MVDB → INDB`).
pub fn translate(mvdb: &Mvdb) -> Result<TranslatedIndb> {
    TranslatedIndb::new(mvdb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdb::MvdbBuilder;
    use mv_pdb::{TupleId, Value};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::lineage::lineage;
    use mv_query::parse_ucq;

    fn example1(view_weight: f64) -> Mvdb {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view(&format!("V(x)[{view_weight}] :- R(x), S(x)"))
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn translated_database_has_nv_tuples_with_negated_weights() {
        let mvdb = example1(0.5);
        let t = TranslatedIndb::new(&mvdb).unwrap();
        // R(a), S(a) and one NV tuple.
        assert_eq!(t.num_tuples(), 3);
        assert_eq!(t.nv_relation(0), "NV_V");
        let nv_rel = t.indb().schema().relation_id("NV_V").unwrap();
        let id = t
            .indb()
            .tuple_id_by_values(nv_rel, &[Value::str("a")])
            .unwrap();
        // (1 - 0.5) / 0.5 = 1.
        assert!((t.indb().weight(id).value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn positive_correlations_produce_negative_weights() {
        let mvdb = example1(4.0);
        let t = TranslatedIndb::new(&mvdb).unwrap();
        let nv_rel = t.indb().schema().relation_id("NV_V").unwrap();
        let id = t
            .indb()
            .tuple_id_by_values(nv_rel, &[Value::str("a")])
            .unwrap();
        assert!((t.indb().weight(id).value() - (-0.75)).abs() < 1e-12);
        assert!(t.indb().probability(id) < 0.0);
    }

    #[test]
    fn independence_views_produce_no_nv_tuples() {
        let mvdb = example1(1.0);
        let t = TranslatedIndb::new(&mvdb).unwrap();
        assert_eq!(t.num_tuples(), 2);
        // W still exists syntactically but its lineage is false.
        let w = t.w().unwrap();
        let lin = lineage(w, t.indb()).unwrap();
        assert!(lin.is_false());
    }

    #[test]
    fn theorem1_formula_reproduces_the_mln_semantics() {
        for view_weight in [0.0, 0.25, 0.5, 1.0, 2.0, 4.0] {
            let mvdb = example1(view_weight);
            let t = TranslatedIndb::new(&mvdb).unwrap();
            for q_text in [
                "Q() :- R(x), S(x)",
                "Q() :- R(x)",
                "Q() :- R(x) ; Q() :- S(x)",
            ] {
                let q = parse_ucq(q_text).unwrap();
                let expected = mvdb.exact_probability(&q).unwrap();
                // Evaluate the right-hand side of Theorem 1 by brute force on
                // the translated database.
                let lin_q = lineage(&q, t.indb()).unwrap();
                let (p_q_or_w, p_w) = match t.w() {
                    Some(w) => {
                        let lin_w = lineage(w, t.indb()).unwrap();
                        (
                            brute_force_lineage_probability(&lin_q.or(&lin_w), t.indb()),
                            brute_force_lineage_probability(&lin_w, t.indb()),
                        )
                    }
                    None => (brute_force_lineage_probability(&lin_q, t.indb()), 0.0),
                };
                let translated = (p_q_or_w - p_w) / (1.0 - p_w);
                assert!(
                    (translated - expected).abs() < 1e-9,
                    "w = {view_weight}, {q_text}: translated {translated} vs MLN {expected}"
                );
            }
        }
    }

    #[test]
    fn denial_views_drop_the_nv_atom() {
        let mut b = MvdbBuilder::new();
        b.relation("Advisor", &["s", "a"]).unwrap();
        b.weighted_tuple("Advisor", &["s", "a1"], 1.0).unwrap();
        b.weighted_tuple("Advisor", &["s", "a2"], 1.0).unwrap();
        b.marko_view("V2(x, y, z)[0] :- Advisor(x, y), Advisor(x, z), y <> z")
            .unwrap();
        let mvdb = b.build().unwrap();
        let t = TranslatedIndb::new(&mvdb).unwrap();
        // No NV tuples were added (the NV relation is not even created).
        assert_eq!(t.num_tuples(), 2);
        let w = t.w().unwrap();
        assert_eq!(w.disjuncts.len(), 1);
        assert!(w.disjuncts[0].atoms.iter().all(|a| a.relation == "Advisor"));
        // Theorem 1 still holds.
        let q = parse_ucq("Q() :- Advisor('s', 'a1')").unwrap();
        let expected = mvdb.exact_probability(&q).unwrap();
        let lin_q = lineage(&q, t.indb()).unwrap();
        let lin_w = lineage(w, t.indb()).unwrap();
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), t.indb());
        let p_w = brute_force_lineage_probability(&lin_w, t.indb());
        let translated = (p_q_or_w - p_w) / (1.0 - p_w);
        assert!((translated - expected).abs() < 1e-9);
    }

    #[test]
    fn nv_tuples_are_identified_by_relation() {
        let mvdb = example1(0.5);
        let t = TranslatedIndb::new(&mvdb).unwrap();
        // Tuples 0 and 1 are the base R(a)/S(a) rows; tuple 2 is the NV row.
        assert!(!t.is_nv_tuple(TupleId(0)));
        assert!(!t.is_nv_tuple(TupleId(1)));
        assert!(t.is_nv_tuple(TupleId(2)));
        // Denial views create no NV relation, so nothing is flagged.
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        b.marko_view("V(x)[0] :- R(x)").unwrap();
        let t = TranslatedIndb::new(&b.build().unwrap()).unwrap();
        assert!(!t.is_nv_tuple(TupleId(0)));
    }

    #[test]
    fn mvdb_without_views_translates_to_itself() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        let mvdb = b.build().unwrap();
        let t = translate(&mvdb).unwrap();
        assert!(t.w().is_none());
        assert_eq!(t.num_tuples(), 1);
        assert_eq!(t.indb().weight(TupleId(0)).value(), 3.0);
    }

    #[test]
    fn example2_style_views_correlate_whole_lineages() {
        // V(x)[w] :- R(x), S(x, y): the view output V(a) correlates R(a) with
        // all S(a, y) tuples (Example 2).
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x", "y"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        b.weighted_tuple("S", &["a", "b1"], 1.0).unwrap();
        b.weighted_tuple("S", &["a", "b2"], 1.0).unwrap();
        b.marko_view("V(x)[3] :- R(x), S(x, y)").unwrap();
        let mvdb = b.build().unwrap();
        let t = TranslatedIndb::new(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let expected = mvdb.exact_probability(&q).unwrap();
        let lin_q = lineage(&q, t.indb()).unwrap();
        let w = t.w().unwrap();
        let lin_w = lineage(w, t.indb()).unwrap();
        let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), t.indb());
        let p_w = brute_force_lineage_probability(&lin_w, t.indb());
        let translated = (p_q_or_w - p_w) / (1.0 - p_w);
        assert!((translated - expected).abs() < 1e-9);
        // The positive correlation raises the probability above the
        // independent value 0.5 * 0.75.
        assert!(expected > 0.375);
    }
}
