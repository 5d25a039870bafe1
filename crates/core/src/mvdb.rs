//! MVDBs: probabilistic databases with MarkoViews.
//!
//! An [`Mvdb`] is the triple `(Tup, w, V)` of Definition 3: a set of possible
//! tuples with weights (the base tuple-independent tables, plus deterministic
//! tables) and a set of [`MarkoView`]s. Its semantics is the Markov Logic
//! Network of Definition 4, which [`Mvdb::to_ground_mln`] materialises; for
//! small instances [`Mvdb::exact_probability`] evaluates queries directly
//! against that semantics and serves as the ground-truth oracle for
//! Theorem 1.

use mv_mln::GroundMln;
use mv_pdb::{InDb, InDbBuilder, RelId, Row, TupleId, Value, Weight};
use mv_query::lineage::{answer_lineages, lineage};
use mv_query::{ConjunctiveQuery, Ucq};

use crate::error::CoreError;
use crate::view::MarkoView;
use crate::Result;

/// A probabilistic database with MarkoViews.
#[derive(Debug, Clone)]
pub struct Mvdb {
    base: InDb,
    views: Vec<MarkoView>,
}

impl Mvdb {
    /// The base tuple-independent database (deterministic and probabilistic
    /// tables, without the views).
    pub fn base(&self) -> &InDb {
        &self.base
    }

    /// The MarkoViews.
    pub fn views(&self) -> &[MarkoView] {
        &self.views
    }

    /// Mutable access to the base database, for the update subsystem
    /// (tuple inserts and weight changes; deletes are weight-0 tombstones).
    pub(crate) fn base_mut(&mut self) -> &mut InDb {
        &mut self.base
    }

    /// Mutable access to the views, for MLN weight changes.
    pub(crate) fn views_mut(&mut self) -> &mut [MarkoView] {
        &mut self.views
    }

    /// Evaluates a view over the instance of possible tuples, returning every
    /// output tuple together with its weight (`Tup_V` and `w_V` of
    /// Section 2.4).
    pub fn view_output(&self, view: &MarkoView) -> Result<Vec<(Row, f64)>> {
        let answers = mv_query::evaluate_ucq(&view.query, self.base.database())?;
        let mut out = Vec::with_capacity(answers.len());
        for a in answers {
            let w = view.weight.weight_of(&a.row);
            if w.is_nan() || w < 0.0 {
                return Err(CoreError::InvalidTupleWeight {
                    view: view.name.clone(),
                    weight: w,
                });
            }
            out.push((a.row, w));
        }
        Ok(out)
    }

    /// Builds the grounded MLN of Definition 4: one feature per possible
    /// tuple (weight `w(t)`) and one feature per view output tuple (the
    /// Boolean query `Q(t̄)`, i.e. its lineage, with weight `w_V(t)`).
    pub fn to_ground_mln(&self) -> Result<GroundMln> {
        let mut mln = GroundMln::new(self.base.num_tuples());
        for (id, t) in self.base.tuples() {
            mln.add_atom_feature(id, t.weight.value())
                .map_err(CoreError::Mln)?;
        }
        for view in &self.views {
            let lineages = answer_lineages(&view.query, &self.base)?;
            for (row, lin) in lineages {
                let w = view.weight.weight_of(&row);
                if w.is_nan() || w < 0.0 {
                    return Err(CoreError::InvalidTupleWeight {
                        view: view.name.clone(),
                        weight: w,
                    });
                }
                if lin.is_false() {
                    continue;
                }
                mln.add_feature(lin, w).map_err(CoreError::Mln)?;
            }
        }
        Ok(mln)
    }

    /// Exact probability of a Boolean query under the MVDB semantics, by
    /// enumerating the worlds of the grounded MLN. Only feasible for small
    /// databases; this is the reference implementation of Definition 4.
    pub fn exact_probability(&self, query: &Ucq) -> Result<f64> {
        if !query.is_boolean() {
            return Err(CoreError::NotBoolean(query.name.to_string()));
        }
        let mln = self.to_ground_mln()?;
        let lin = lineage(query, &self.base)?;
        mln.exact_probability(&lin).map_err(CoreError::Mln)
    }

    /// Exact marginal probability of one possible tuple under the MVDB
    /// semantics.
    pub fn exact_marginal(&self, tuple: TupleId) -> Result<f64> {
        let mln = self.to_ground_mln()?;
        mln.exact_marginal(tuple).map_err(CoreError::Mln)
    }

    /// MAP inference: the most likely possible world of the MVDB
    /// (Section 2.3 — the paper focuses on marginal inference but notes the
    /// techniques generalise to MAP). Uses exact enumeration for small
    /// databases and simulated annealing otherwise.
    pub fn map_state(&self) -> Result<mv_mln::MapState> {
        let mln = self.to_ground_mln()?;
        if self.base.num_tuples() <= mv_mln::GroundMln::MAX_EXACT_ATOMS {
            mln.exact_map().map_err(CoreError::Mln)
        } else {
            Ok(mv_mln::simulated_annealing_map(
                &mln,
                mv_mln::AnnealingConfig::default(),
            ))
        }
    }

    /// The tuples present in the most likely world, as `(relation name, row)`
    /// pairs — a readable form of [`Mvdb::map_state`].
    pub fn map_tuples(&self) -> Result<Vec<(String, Row)>> {
        let map = self.map_state()?;
        let mut out = Vec::new();
        for (id, t) in self.base.tuples() {
            if map.state[id.index()] {
                let name = self.base.schema().relation(t.rel).name().to_string();
                out.push((name, self.base.tuple_row(id)));
            }
        }
        Ok(out)
    }
}

/// Builder for [`Mvdb`].
#[derive(Debug, Default)]
pub struct MvdbBuilder {
    indb: InDbBuilder,
    views: Vec<MarkoView>,
}

fn to_row<V: Into<Value> + Clone>(values: &[V]) -> Row {
    values.iter().cloned().map(Into::into).collect()
}

impl MvdbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        MvdbBuilder::default()
    }

    /// Declares a probabilistic relation.
    pub fn relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        Ok(self.indb.probabilistic_relation(name, attributes)?)
    }

    /// Declares a deterministic relation.
    pub fn deterministic_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        Ok(self.indb.deterministic_relation(name, attributes)?)
    }

    /// Inserts a certain fact into a deterministic relation.
    pub fn fact<V: Into<Value> + Clone>(&mut self, relation: &str, row: &[V]) -> Result<usize> {
        let rel = self.indb.relation_id(relation)?;
        Ok(self.indb.insert_fact(rel, to_row(row))?)
    }

    /// Inserts a possible tuple with the given weight (odds) into a
    /// probabilistic relation.
    pub fn weighted_tuple<V: Into<Value> + Clone>(
        &mut self,
        relation: &str,
        row: &[V],
        weight: f64,
    ) -> Result<TupleId> {
        let rel = self.indb.relation_id(relation)?;
        Ok(self
            .indb
            .insert_weighted(rel, to_row(row), Weight::new(weight))?)
    }

    /// Inserts a possible tuple with the given marginal probability.
    pub fn probabilistic_tuple<V: Into<Value> + Clone>(
        &mut self,
        relation: &str,
        row: &[V],
        probability: f64,
    ) -> Result<TupleId> {
        let rel = self.indb.relation_id(relation)?;
        Ok(self
            .indb
            .insert_probabilistic(rel, to_row(row), probability)?)
    }

    /// Adds a MarkoView from its textual form `V(x̄)[w] :- body` (constant
    /// weight only).
    pub fn marko_view(&mut self, text: &str) -> Result<&mut Self> {
        let view = MarkoView::parse(text)?;
        self.views.push(view);
        Ok(self)
    }

    /// Adds a MarkoView built programmatically (e.g. with a per-tuple weight
    /// function).
    pub fn add_view(&mut self, view: MarkoView) -> &mut Self {
        self.views.push(view);
        self
    }

    /// Read access to the database built so far (e.g. to derive weights from
    /// deterministic tables before adding views).
    pub fn database(&self) -> &mv_pdb::Database {
        self.indb.database()
    }

    /// Finalises the MVDB, validating that every view refers to existing
    /// relations with the right arities.
    pub fn build(self) -> Result<Mvdb> {
        let base = self.indb.build();
        for view in &self.views {
            for disjunct in &view.query.disjuncts {
                validate_atoms(disjunct, &base)?;
            }
        }
        Ok(Mvdb {
            base,
            views: self.views,
        })
    }
}

fn validate_atoms(cq: &ConjunctiveQuery, indb: &InDb) -> Result<()> {
    for atom in &cq.atoms {
        let rel = indb
            .schema()
            .relation_id(&atom.relation)
            .ok_or_else(|| mv_query::QueryError::UnknownRelation(atom.relation.to_string()))?;
        let arity = indb.schema().relation(rel).arity();
        if atom.terms.len() != arity {
            return Err(CoreError::Query(mv_query::QueryError::ArityMismatch {
                relation: atom.relation.to_string(),
                expected: arity,
                actual: atom.terms.len(),
            }));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_query::parse_ucq;

    /// Example 1 of the paper: R(a), S(a) with weights 3, 4 and
    /// V(x)[0.5] :- R(x), S(x).
    fn example1() -> Mvdb {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example1_worlds_have_the_paper_weights() {
        let mvdb = example1();
        let mln = mvdb.to_ground_mln().unwrap();
        // Weights 1, w1, w2, w·w1·w2 = 1, 3, 4, 6; Z = 14.
        assert!((mln.partition_function().unwrap() - 14.0).abs() < 1e-12);
        let p_both = mvdb
            .exact_probability(&parse_ucq("Q() :- R(x), S(x)").unwrap())
            .unwrap();
        assert!((p_both - 6.0 / 14.0).abs() < 1e-12);
        let p_or = mvdb
            .exact_probability(&parse_ucq("Q() :- R(x) ; Q() :- S(x)").unwrap())
            .unwrap();
        assert!((p_or - 13.0 / 14.0).abs() < 1e-12);
    }

    #[test]
    fn marginals_reflect_the_negative_correlation() {
        let mvdb = example1();
        // Without the view, P(R(a)) would be 3/4; the negative correlation
        // (w = 0.5) lowers it.
        let p_r = mvdb.exact_marginal(TupleId(0)).unwrap();
        assert!((p_r - 9.0 / 14.0).abs() < 1e-12);
        assert!(p_r < 0.75);
    }

    #[test]
    fn view_output_carries_weights() {
        let mvdb = example1();
        let out = mvdb.view_output(&mvdb.views()[0]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].1, 0.5);
    }

    #[test]
    fn independence_weight_changes_nothing() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view("V(x)[1] :- R(x), S(x)").unwrap();
        let mvdb = b.build().unwrap();
        let p_r = mvdb.exact_marginal(TupleId(0)).unwrap();
        assert!((p_r - 0.75).abs() < 1e-12);
    }

    #[test]
    fn denial_views_forbid_their_outputs() {
        let mut b = MvdbBuilder::new();
        b.relation("Advisor", &["student", "advisor"]).unwrap();
        b.weighted_tuple("Advisor", &["s", "a1"], 1.0).unwrap();
        b.weighted_tuple("Advisor", &["s", "a2"], 1.0).unwrap();
        b.marko_view("V2(x, y, z)[0] :- Advisor(x, y), Advisor(x, z), y <> z")
            .unwrap();
        let mvdb = b.build().unwrap();
        let p_both = mvdb
            .exact_probability(&parse_ucq("Q() :- Advisor('s', 'a1'), Advisor('s', 'a2')").unwrap())
            .unwrap();
        assert_eq!(p_both, 0.0);
        // Each advisor individually is still possible.
        let p_one = mvdb
            .exact_probability(&parse_ucq("Q() :- Advisor('s', 'a1')").unwrap())
            .unwrap();
        assert!(p_one > 0.0);
    }

    #[test]
    fn per_tuple_weight_functions_are_used() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        b.weighted_tuple("R", &["b"], 1.0).unwrap();
        let q = parse_ucq("V(x) :- R(x)").unwrap();
        b.add_view(MarkoView::with_weight_fn("V", q, |row| {
            if row[0] == Value::str("a") {
                3.0
            } else {
                1.0
            }
        }));
        let mvdb = b.build().unwrap();
        // R(a) is boosted: P = 3 / (1 + 3) over its own factor.
        let p_a = mvdb.exact_marginal(TupleId(0)).unwrap();
        let p_b = mvdb.exact_marginal(TupleId(1)).unwrap();
        assert!((p_a - 0.75).abs() < 1e-12);
        assert!((p_b - 0.5).abs() < 1e-12);
    }

    #[test]
    fn views_over_unknown_relations_are_rejected_at_build_time() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.marko_view("V(x)[2] :- Missing(x)").unwrap();
        assert!(b.build().is_err());
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.marko_view("V(x, y)[2] :- R(x, y)").unwrap();
        assert!(b.build().is_err());
    }

    #[test]
    fn non_boolean_queries_are_rejected_by_exact_probability() {
        let mvdb = example1();
        assert!(matches!(
            mvdb.exact_probability(&parse_ucq("Q(x) :- R(x)").unwrap()),
            Err(CoreError::NotBoolean(_))
        ));
    }

    #[test]
    fn deterministic_tables_participate_in_views() {
        let mut b = MvdbBuilder::new();
        b.deterministic_relation("D", &["x"]).unwrap();
        b.relation("R", &["x"]).unwrap();
        b.fact("D", &["a"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        b.weighted_tuple("R", &["b"], 1.0).unwrap();
        // Boost R tuples that also appear in D.
        b.marko_view("V(x)[4] :- D(x), R(x)").unwrap();
        let mvdb = b.build().unwrap();
        let p_a = mvdb.exact_marginal(TupleId(0)).unwrap();
        let p_b = mvdb.exact_marginal(TupleId(1)).unwrap();
        assert!((p_a - 0.8).abs() < 1e-12);
        assert!((p_b - 0.5).abs() < 1e-12);
    }
}
