//! End-to-end query evaluation on MVDBs.
//!
//! [`MvdbEngine::compile`] performs the offline phase: it translates the MVDB
//! into a tuple-independent database (Definition 5) and compiles the helper
//! query `W` into an MV-index (Section 4). Online, [`MvdbEngine::probability`]
//! evaluates a Boolean query `Q` through Theorem 1,
//!
//! ```text
//! P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W)) = P0(Q ∧ ¬W) / P0(¬W)
//! ```
//!
//! computing `P0(Q ∧ ¬W)` by intersecting the (small) query OBDD with the
//! compiled index. [`MvdbEngine::answers`] does the same for every answer of
//! a non-Boolean query.
//!
//! All evaluation dispatches through the [`Backend`] trait of
//! [`crate::backend`]: the engine's default strategy is the MV-index, and
//! any other implementation — per-query OBDD construction, Shannon
//! expansion, safe plans, brute-force enumeration, or a user-supplied one —
//! can be swapped in per call via [`MvdbEngine::probability_with`] or the
//! [`EngineBackend`] selector.

use mv_index::{IntersectAlgorithm, MvIndex};
use mv_pdb::{Row, Weight};
use mv_query::Ucq;

use crate::backend::{
    ApproxAnswer, ApproxConfig, Backend, EvalContext, MonteCarlo, MvIndexBackend,
};
use crate::error::CoreError;
use crate::mvdb::Mvdb;
use crate::translate::TranslatedIndb;
use crate::update::{self, UpdateBatch, UpdateKind, UpdateOp, UpdateOutcome};
use crate::Result;

pub use crate::backend::EngineBackend;

/// A compiled MVDB ready for query answering.
///
/// The engine retains the source [`Mvdb`] so it can be mutated in place by
/// [`MvdbEngine::apply`]; cloning an engine is cheap (copy-on-write stores,
/// shared OBDD arenas) and yields an independent snapshot.
#[derive(Debug, Clone)]
pub struct MvdbEngine {
    mvdb: Mvdb,
    translated: TranslatedIndb,
    index: MvIndex,
    algorithm: IntersectAlgorithm,
}

impl MvdbEngine {
    /// Translates the MVDB and compiles its MV-index, using the
    /// cache-conscious intersection by default.
    pub fn compile(mvdb: &Mvdb) -> Result<Self> {
        Self::compile_with(mvdb, IntersectAlgorithm::CcMvIntersect)
    }

    /// Like [`MvdbEngine::compile`] with an explicit intersection algorithm.
    pub fn compile_with(mvdb: &Mvdb, algorithm: IntersectAlgorithm) -> Result<Self> {
        let translated = TranslatedIndb::new(mvdb)?;
        let index = match translated.w() {
            Some(w) => MvIndex::compile(translated.indb(), w)?,
            None => MvIndex::empty(translated.indb()),
        };
        if !index.is_consistent() {
            return Err(CoreError::InconsistentViews);
        }
        Ok(MvdbEngine {
            mvdb: mvdb.clone(),
            translated,
            index,
            algorithm,
        })
    }

    /// The source MVDB this engine was compiled from, kept in sync by
    /// [`MvdbEngine::apply`] — the ground truth a rebuilt-from-scratch
    /// engine must agree with.
    pub fn mvdb(&self) -> &Mvdb {
        &self.mvdb
    }

    /// Applies an update batch in place.
    ///
    /// The batch is validated and classified first
    /// ([`crate::update`]): a rejected batch leaves the engine untouched.
    /// Weight-only batches keep the translation, tuple ids and compiled
    /// OBDDs, re-annotating probabilities through
    /// [`MvIndex::reweight`]; structural batches mutate the retained MVDB
    /// and re-translate/recompile (on failure — e.g. a new tuple violating
    /// a hard constraint — the engine keeps its previous state).
    pub fn apply(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        match update::classify(&self.mvdb, &self.translated, batch)? {
            UpdateKind::NoOp => Ok(UpdateOutcome {
                kind: UpdateKind::NoOp,
                version: self.version(),
                tuples_inserted: 0,
                weights_changed: 0,
                views_changed: 0,
                shards_rebuilt: 0,
                shards_reused: 0,
            }),
            UpdateKind::WeightOnly => self.apply_weight_only(batch),
            UpdateKind::Structural => self.apply_structural(batch),
        }
    }

    /// The version stamp of the translated deterministic store; weight-only
    /// updates preserve it, structural updates produce a fresh one.
    pub fn version(&self) -> u64 {
        self.translated.indb().database().version()
    }

    /// The weight-epoch fast path: weights change in the retained MVDB and
    /// the translated store, then every compiled block is re-annotated.
    fn apply_weight_only(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let mut weights_changed = 0usize;
        let mut views_changed = 0usize;
        for op in batch.ops() {
            match op {
                UpdateOp::InsertTuple {
                    relation,
                    row,
                    weight,
                }
                | UpdateOp::SetTupleWeight {
                    relation,
                    row,
                    weight,
                } => {
                    self.set_tuple_weight(relation, row, Weight::new(*weight))?;
                    weights_changed += 1;
                }
                UpdateOp::DeleteTuple { relation, row } => {
                    let rel = self.mvdb.base().schema().require(relation)?;
                    if self.mvdb.base().tuple_id_by_values(rel, row).is_some() {
                        self.set_tuple_weight(relation, row, Weight::ZERO)?;
                        weights_changed += 1;
                    }
                }
                UpdateOp::SetViewWeight { view, weight } => {
                    let i = update::view_index(&self.mvdb, view)?;
                    self.mvdb.views_mut()[i].set_constant_weight(*weight)?;
                    let nv = Weight::new(*weight).negated_view_weight();
                    for id in update::nv_tuple_ids(&self.translated, i)? {
                        self.translated.indb_mut().set_weight(id, nv);
                    }
                    views_changed += 1;
                }
            }
        }
        let translated = &self.translated;
        self.index.reweight(|t| translated.indb().probability(t));
        if !self.index.is_consistent() {
            return Err(CoreError::InconsistentViews);
        }
        Ok(UpdateOutcome {
            kind: UpdateKind::WeightOnly,
            version: self.version(),
            tuples_inserted: 0,
            weights_changed,
            views_changed,
            shards_rebuilt: 0,
            shards_reused: 0,
        })
    }

    /// Writes one tuple weight into both the retained MVDB and the
    /// translated store (ids resolved by content, not position).
    fn set_tuple_weight(&mut self, relation: &str, row: &Row, weight: Weight) -> Result<()> {
        let rel = self.mvdb.base().schema().require(relation)?;
        let id = self
            .mvdb
            .base()
            .tuple_id_by_values(rel, row)
            .expect("classified as weight-only: the row exists");
        self.mvdb.base_mut().set_weight(id, weight);
        let trel = self.translated.indb().schema().require(relation)?;
        let tid = self
            .translated
            .indb()
            .tuple_id_by_values(trel, row)
            .expect("the translated store mirrors every base row");
        self.translated.indb_mut().set_weight(tid, weight);
        Ok(())
    }

    /// The structural slow path: mutate a copy of the retained MVDB, then
    /// re-translate and recompile. The copy keeps the apply atomic — a
    /// failed recompilation leaves `self` unchanged.
    fn apply_structural(&mut self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let mut mvdb = self.mvdb.clone();
        let (tuples_inserted, weights_changed, views_changed) =
            update::apply_to_mvdb(&mut mvdb, batch)?;
        *self = MvdbEngine::compile_with(&mvdb, self.algorithm)?;
        Ok(UpdateOutcome {
            kind: UpdateKind::Structural,
            version: self.version(),
            tuples_inserted,
            weights_changed,
            views_changed,
            shards_rebuilt: 0,
            shards_reused: 0,
        })
    }

    /// The translated tuple-independent database.
    pub fn translated(&self) -> &TranslatedIndb {
        &self.translated
    }

    /// The compiled MV-index.
    pub fn index(&self) -> &MvIndex {
        &self.index
    }

    /// `P0(W)` on the translated database.
    pub fn prob_w(&self) -> f64 {
        self.index.prob_w()
    }

    /// The intersection algorithm chosen at compile time.
    pub fn intersect_algorithm(&self) -> IntersectAlgorithm {
        self.algorithm
    }

    /// A batch-evaluation session over this engine: evaluate a slice of
    /// queries with shared per-session state, optionally across worker
    /// threads (see [`MvdbSession`](crate::MvdbSession)).
    pub fn session(&self) -> crate::MvdbSession<'_> {
        crate::MvdbSession::new(self)
    }

    /// An evaluation context over this engine's translated database and
    /// compiled index, ready to hand to any [`Backend`].
    pub fn context(&self) -> EvalContext<'_> {
        EvalContext::with_index(&self.translated, &self.index)
    }

    /// The engine's default backend: the MV-index with the intersection
    /// algorithm chosen at compile time.
    fn default_backend(&self) -> MvIndexBackend {
        MvIndexBackend::new(self.algorithm)
    }

    /// The probability of a Boolean query under the MVDB semantics, via the
    /// MV-index.
    pub fn probability(&self, query: &Ucq) -> Result<f64> {
        self.probability_with(query, &self.default_backend())
    }

    /// The probability of a Boolean query using an explicit back-end
    /// selector.
    pub fn probability_with_backend(&self, query: &Ucq, backend: EngineBackend) -> Result<f64> {
        self.probability_with(query, backend.instantiate().as_ref())
    }

    /// The probability of a Boolean query through any [`Backend`]
    /// implementation.
    pub fn probability_with(&self, query: &Ucq, backend: &dyn Backend) -> Result<f64> {
        backend.probability(query, &self.context())
    }

    /// Estimates the probability of a Boolean query by Monte Carlo world
    /// sampling, returning the full `(estimate, half_width)` confidence
    /// interval. This is the fallback for queries whose exact OBDD
    /// synthesis is refused or intractable; see
    /// [`MonteCarlo`] for the estimator design
    /// and [`MvdbSession`](crate::MvdbSession) for batch and multi-worker
    /// variants.
    pub fn approx_probability(&self, query: &Ucq, config: &ApproxConfig) -> Result<ApproxAnswer> {
        MonteCarlo::new(*config).approx(query, &self.context())
    }

    /// Evaluates a non-Boolean query: returns every answer tuple together
    /// with its probability under the MVDB semantics.
    pub fn answers(&self, query: &Ucq) -> Result<Vec<(Row, f64)>> {
        self.answers_with(query, &self.default_backend())
    }

    /// Evaluates a non-Boolean query through any [`Backend`] implementation.
    pub fn answers_with(&self, query: &Ucq, backend: &dyn Backend) -> Result<Vec<(Row, f64)>> {
        backend.answers(query, &self.context())
    }

    /// Evaluates a non-Boolean query and returns the `k` most probable
    /// answers, sorted by decreasing probability (ties broken by the answer
    /// tuple, so the result is deterministic).
    pub fn top_answers(&self, query: &Ucq, k: usize) -> Result<Vec<(Row, f64)>> {
        let mut answers = self.answers(query)?;
        answers.sort_by(|(row_a, p_a), (row_b, p_b)| {
            p_b.partial_cmp(p_a)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| row_a.cmp(row_b))
        });
        answers.truncate(k);
        Ok(answers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvdb::MvdbBuilder;
    use crate::view::MarkoView;
    use mv_pdb::Value;
    use mv_query::parse_ucq;
    use std::sync::Arc;

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

    /// A richer MVDB exercising several views, a denial constraint and a
    /// parameterised weight.
    fn advisors() -> Mvdb {
        let mut b = MvdbBuilder::new();
        b.deterministic_relation("Author", &["aid", "name"])
            .unwrap();
        b.relation("Student", &["aid"]).unwrap();
        b.relation("Advisor", &["aid", "aid2"]).unwrap();
        b.fact("Author", &[Value::int(1), Value::str("alice")])
            .unwrap();
        b.fact("Author", &[Value::int(2), Value::str("bob the advisor")])
            .unwrap();
        b.fact("Author", &[Value::int(3), Value::str("carol the advisor")])
            .unwrap();
        b.weighted_tuple("Student", &[Value::int(1)], 2.0).unwrap();
        b.weighted_tuple("Advisor", &[Value::int(1), Value::int(2)], 1.0)
            .unwrap();
        b.weighted_tuple("Advisor", &[Value::int(1), Value::int(3)], 0.5)
            .unwrap();
        // The more likely someone is a student, the more likely they have an
        // advisor (positive correlation), cf. V1.
        b.marko_view("V1(x, y)[3] :- Student(x), Advisor(x, y)")
            .unwrap();
        // A person has at most one advisor, cf. V2.
        b.marko_view("V2(x, y, z)[0] :- Advisor(x, y), Advisor(x, z), y <> z")
            .unwrap();
        b.build().unwrap()
    }

    #[test]
    fn example1_matches_the_mln_semantics_for_all_backends() {
        for w in [0.25, 0.5, 1.0, 2.0, 4.0] {
            let mvdb = example1(w);
            let engine = MvdbEngine::compile(&mvdb).unwrap();
            for q_text in [
                "Q() :- R(x), S(x)",
                "Q() :- R(x)",
                "Q() :- R(x) ; Q() :- S(x)",
            ] {
                let q = parse_ucq(q_text).unwrap();
                let expected = mvdb.exact_probability(&q).unwrap();
                for selector in EngineBackend::comparison_suite() {
                    let p = engine.probability_with_backend(&q, selector).unwrap();
                    assert!(
                        (p - expected).abs() < 1e-9,
                        "w = {w}, {q_text}, {selector:?}: {p} vs {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn quickstart_numbers_from_the_crate_docs() {
        let mvdb = example1(0.5);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let p = engine.probability(&q).unwrap();
        assert!((p - 0.5 * 12.0 / (1.0 + 3.0 + 4.0 + 0.5 * 12.0)).abs() < 1e-9);
    }

    #[test]
    fn advisors_mvdb_matches_exact_semantics() {
        let mvdb = advisors();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        for q_text in [
            "Q() :- Advisor(1, 2)",
            "Q() :- Advisor(1, 3)",
            "Q() :- Student(1), Advisor(1, y)",
            "Q() :- Advisor(1, 2), Advisor(1, 3)",
            "Q() :- Student(1)",
        ] {
            let q = parse_ucq(q_text).unwrap();
            let expected = mvdb.exact_probability(&q).unwrap();
            let p = engine.probability(&q).unwrap();
            assert!(
                (p - expected).abs() < 1e-9,
                "{q_text}: engine {p} vs exact {expected}"
            );
        }
        // The denial view makes two simultaneous advisors impossible.
        let both = parse_ucq("Q() :- Advisor(1, 2), Advisor(1, 3)").unwrap();
        assert!(engine.probability(&both).unwrap() < 1e-12);
    }

    #[test]
    fn answers_return_per_tuple_probabilities() {
        let mvdb = advisors();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q(y) :- Student(x), Advisor(x, y), Author(y, n), n like '%advisor%'")
            .unwrap();
        let answers = engine.answers(&q).unwrap();
        assert_eq!(answers.len(), 2);
        for (row, p) in &answers {
            let bound = q.bind_head(std::slice::from_ref(&row[0]));
            let expected = mvdb.exact_probability(&bound).unwrap();
            assert!((p - expected).abs() < 1e-9, "answer {row:?}");
            assert!((0.0..=1.0).contains(p));
        }
    }

    #[test]
    fn answers_agree_across_backends() {
        let mvdb = advisors();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q(y) :- Advisor(1, y)").unwrap();
        let via_index = engine.answers(&q).unwrap();
        for selector in EngineBackend::comparison_suite() {
            let via_backend = engine
                .answers_with(&q, selector.instantiate().as_ref())
                .unwrap();
            assert_eq!(via_index.len(), via_backend.len());
            for ((row_a, p_a), (row_b, p_b)) in via_index.iter().zip(&via_backend) {
                assert_eq!(row_a, row_b);
                assert!((p_a - p_b).abs() < 1e-9, "{selector:?} on {row_a:?}");
            }
        }
    }

    #[test]
    fn safe_plan_backend_works_on_safe_translations() {
        // A single-view MVDB whose W is safe.
        let mvdb = example1(0.5);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q() :- R(x)").unwrap();
        let expected = mvdb.exact_probability(&q).unwrap();
        let p = engine
            .probability_with_backend(&q, EngineBackend::SafePlan)
            .unwrap();
        assert!((p - expected).abs() < 1e-9);
    }

    #[test]
    fn queries_with_head_variables_are_rejected_by_probability() {
        let mvdb = example1(0.5);
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q(x) :- R(x)").unwrap();
        for selector in EngineBackend::comparison_suite() {
            assert!(
                matches!(
                    engine.probability_with_backend(&q, selector),
                    Err(CoreError::NotBoolean(_))
                ),
                "{selector:?} accepted a non-Boolean query"
            );
        }
    }

    #[test]
    fn index_backend_without_index_reports_missing_index() {
        let mvdb = example1(0.5);
        let translated = TranslatedIndb::new(&mvdb).unwrap();
        let ctx = EvalContext::new(&translated);
        let q = parse_ucq("Q() :- R(x)").unwrap();
        let backend = MvIndexBackend::default();
        assert!(matches!(
            backend.probability(&q, &ctx),
            Err(CoreError::MissingIndex)
        ));
    }

    #[test]
    fn contexts_with_an_index_borrow_the_compiled_w_lineage() {
        let engine = MvdbEngine::compile(&advisors()).unwrap();
        let ctx = engine.context();
        let w = ctx.w_lineage().unwrap().expect("the MVDB has views");
        assert!(std::ptr::eq(w, engine.index().w_lineage()));
        assert_eq!(
            ctx.query_exec_stats().batches,
            0,
            "W must not reach the executor when the index holds its lineage"
        );
        // A context without an index evaluates W — to the same lineage.
        let bare = EvalContext::new(engine.translated());
        assert_eq!(bare.w_lineage().unwrap(), Some(w));
        assert!(bare.query_exec_stats().batches > 0);
    }

    #[test]
    fn inconsistent_hard_constraints_are_detected() {
        let mut b = MvdbBuilder::new();
        b.deterministic_relation("D", &["x"]).unwrap();
        b.relation("R", &["x"]).unwrap();
        b.fact("D", &["a"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        // Denial view over a deterministic fact: no world satisfies ¬W.
        b.marko_view("V(x)[0] :- D(x)").unwrap();
        let mvdb = b.build().unwrap();
        assert!(matches!(
            MvdbEngine::compile(&mvdb),
            Err(CoreError::InconsistentViews)
        ));
    }

    #[test]
    fn mvdb_without_views_behaves_like_a_tuple_independent_database() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("R", &["b"], 1.0).unwrap();
        let mvdb = b.build().unwrap();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        assert_eq!(engine.prob_w(), 0.0);
        let q = parse_ucq("Q() :- R(x)").unwrap();
        let p = engine.probability(&q).unwrap();
        assert!((p - (1.0 - 0.25 * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn top_answers_are_sorted_and_truncated() {
        let mvdb = advisors();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let q = parse_ucq("Q(y) :- Advisor(1, y)").unwrap();
        let all = engine.answers(&q).unwrap();
        let top1 = engine.top_answers(&q, 1).unwrap();
        assert_eq!(top1.len(), 1);
        let max = all
            .iter()
            .map(|(_, p)| *p)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((top1[0].1 - max).abs() < 1e-12);
        let top_all = engine.top_answers(&q, 10).unwrap();
        assert_eq!(top_all.len(), all.len());
        for pair in top_all.windows(2) {
            assert!(pair[0].1 >= pair[1].1);
        }
    }

    #[test]
    fn map_state_respects_the_denial_view() {
        let mvdb = advisors();
        let map = mvdb.map_tuples().unwrap();
        // The most likely world never contains two advisors for the same
        // student (the denial view gives such worlds weight 0).
        let advisors_of_1: Vec<_> = map
            .iter()
            .filter(|(rel, row)| rel == "Advisor" && row[0] == Value::int(1))
            .collect();
        assert!(advisors_of_1.len() <= 1);
        // MAP weight is positive (the MVDB is consistent).
        assert!(mvdb.map_state().unwrap().weight > 0.0);
    }

    #[test]
    fn per_tuple_weight_views_flow_through_the_engine() {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 1.0).unwrap();
        b.weighted_tuple("R", &["b"], 1.0).unwrap();
        b.weighted_tuple("S", &["a"], 1.0).unwrap();
        b.weighted_tuple("S", &["b"], 1.0).unwrap();
        let q = parse_ucq("V(x) :- R(x), S(x)").unwrap();
        b.add_view(MarkoView::with_weight_fn("V", q, |row| {
            if row[0] == Value::str("a") {
                4.0
            } else {
                0.25
            }
        }));
        let mvdb = b.build().unwrap();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        for q_text in ["Q() :- R('a'), S('a')", "Q() :- R('b'), S('b')"] {
            let q = parse_ucq(q_text).unwrap();
            let expected = mvdb.exact_probability(&q).unwrap();
            let p = engine.probability(&q).unwrap();
            assert!((p - expected).abs() < 1e-9, "{q_text}");
        }
    }

    /// Differential oracle for the update path: an engine mutated in
    /// place must answer exactly like one compiled from scratch over
    /// its retained database — and like exact world enumeration.
    fn assert_matches_rebuild(engine: &MvdbEngine, queries: &[&str]) {
        let rebuilt = MvdbEngine::compile(engine.mvdb()).unwrap();
        for q_text in queries {
            let q = parse_ucq(q_text).unwrap();
            let p = engine.probability(&q).unwrap();
            let fresh = rebuilt.probability(&q).unwrap();
            assert!((p - fresh).abs() < 1e-9, "{q_text}: {p} vs rebuild {fresh}");
            let exact = engine.mvdb().exact_probability(&q).unwrap();
            assert!((p - exact).abs() < 1e-9, "{q_text}: {p} vs exact {exact}");
        }
    }

    #[test]
    fn weight_only_updates_ride_the_fast_path() {
        let mut engine = MvdbEngine::compile(&example1(0.5)).unwrap();
        let version = engine.version();
        let before = engine
            .probability(&parse_ucq("Q() :- R(x), S(x)").unwrap())
            .unwrap();
        let out = engine
            .apply(&UpdateBatch::new().set_weight("R", vec![Value::str("a")], 7.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::WeightOnly);
        assert_eq!(out.weights_changed, 1);
        assert_eq!(out.tuples_inserted, 0);
        // The fast path never re-translates: the store keeps its version.
        assert_eq!(engine.version(), version);
        let after = engine
            .probability(&parse_ucq("Q() :- R(x), S(x)").unwrap())
            .unwrap();
        assert!((after - before).abs() > 1e-6, "the new weight must move P");
        assert_matches_rebuild(&engine, &["Q() :- R(x), S(x)", "Q() :- R(x)"]);
    }

    #[test]
    fn plans_live_as_long_as_the_store_snapshot() {
        let queries = ["Q() :- R('a'), S('a')", "Q() :- R(x)"];
        let mut engine = MvdbEngine::compile(&example1(0.5)).unwrap();
        for q in queries {
            engine.probability(&parse_ucq(q).unwrap()).unwrap();
        }
        let cache = Arc::clone(engine.translated().plan_cache());
        assert_eq!(cache.len(), 2);
        // A clone shares the cache; a weight-only apply keeps it, and the
        // cached plans answer like a rebuild.
        let mut clone = engine.clone();
        clone
            .apply(&UpdateBatch::new().set_weight("R", vec![Value::str("a")], 7.0))
            .unwrap();
        assert!(Arc::ptr_eq(clone.translated().plan_cache(), &cache));
        assert_matches_rebuild(&clone, &queries);
        assert_eq!(cache.len(), 2, "no query shape was compiled again");
        // A structural apply re-translates: a fresh store, a fresh cache —
        // and the snapshot it came from keeps its own.
        engine
            .apply(&UpdateBatch::new().insert("R", vec![Value::str("b")], 2.0))
            .unwrap();
        assert!(!Arc::ptr_eq(engine.translated().plan_cache(), &cache));
        assert!(engine.translated().plan_cache().is_empty());
        assert_matches_rebuild(&engine, &queries);
        assert!(Arc::ptr_eq(clone.translated().plan_cache(), &cache));
    }

    #[test]
    fn view_weight_changes_rescale_nv_tuples_in_place() {
        let mut engine = MvdbEngine::compile(&example1(0.5)).unwrap();
        let out = engine
            .apply(&UpdateBatch::new().set_view_weight("V", 2.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::WeightOnly);
        assert_eq!(out.views_changed, 1);
        // The rescaled engine answers like one compiled at w = 2 directly.
        let reference = MvdbEngine::compile(&example1(2.0)).unwrap();
        for q_text in ["Q() :- R(x), S(x)", "Q() :- R(x)"] {
            let q = parse_ucq(q_text).unwrap();
            let p = engine.probability(&q).unwrap();
            let expected = reference.probability(&q).unwrap();
            assert!((p - expected).abs() < 1e-9, "{q_text}: {p} vs {expected}");
        }
        // Crossing into a denial weight is structural (NV flips to HARD).
        let out = engine
            .apply(&UpdateBatch::new().set_view_weight("V", 0.0))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_matches_rebuild(&engine, &["Q() :- R(x), S(x)", "Q() :- R(x)"]);
    }

    #[test]
    fn structural_inserts_recompile_and_requery_sees_them() {
        let mut engine = MvdbEngine::compile(&example1(0.5)).unwrap();
        let version = engine.version();
        let out = engine
            .apply(
                &UpdateBatch::new()
                    .insert("R", vec![Value::str("b")], 2.0)
                    .insert("S", vec![Value::str("b")], 1.0),
            )
            .unwrap();
        assert_eq!(out.kind, UpdateKind::Structural);
        assert_eq!(out.tuples_inserted, 2);
        assert_ne!(engine.version(), version, "re-translation restamps");
        // The fresh tuples join the view: P(Q) reflects both components.
        assert_matches_rebuild(
            &engine,
            &["Q() :- R(x), S(x)", "Q() :- R('b'), S('b')", "Q() :- R(x)"],
        );
    }

    #[test]
    fn deletes_are_weight_zero_tombstones() {
        let mut engine = MvdbEngine::compile(&example1(0.5)).unwrap();
        let out = engine
            .apply(&UpdateBatch::new().delete("R", vec![Value::str("a")]))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::WeightOnly);
        let q = parse_ucq("Q() :- R(x)").unwrap();
        assert!(engine.probability(&q).unwrap() < 1e-12);
        assert_matches_rebuild(&engine, &["Q() :- R(x), S(x)", "Q() :- S(x)"]);
        // Deleting an absent row is a no-op, not an error.
        let out = engine
            .apply(&UpdateBatch::new().delete("R", vec![Value::str("zz")]))
            .unwrap();
        assert_eq!(out.kind, UpdateKind::NoOp);
    }

    #[test]
    fn invalid_batches_reject_atomically_without_mutating() {
        let mut engine = MvdbEngine::compile(&advisors()).unwrap();
        let version = engine.version();
        let q = parse_ucq("Q() :- Student(1), Advisor(1, y)").unwrap();
        let before = engine.probability(&q).unwrap();
        // Each batch pairs a valid op with an invalid one: the valid op
        // must not be applied when the batch as a whole is rejected.
        let valid = || UpdateBatch::new().set_weight("Student", vec![Value::int(1)], 5.0);
        let bad_batches = [
            valid().insert("NoSuchRelation", vec![Value::int(1)], 1.0),
            valid().insert("Author", vec![Value::int(9), Value::str("eve")], 1.0),
            valid().insert("Student", vec![Value::int(1), Value::int(2)], 1.0),
            valid().insert("Student", vec![Value::int(1)], -3.0),
            valid().insert("Student", vec![Value::int(1)], f64::NAN),
            valid().set_weight("Student", vec![Value::int(99)], 1.0),
            valid().set_view_weight("NoSuchView", 1.0),
        ];
        for (i, batch) in bad_batches.into_iter().enumerate() {
            assert!(engine.apply(&batch).is_err(), "batch {i} must reject");
            assert_eq!(engine.version(), version, "batch {i} mutated the store");
            let p = engine.probability(&q).unwrap();
            assert!((p - before).abs() < 1e-12, "batch {i} changed answers");
        }
    }
}
