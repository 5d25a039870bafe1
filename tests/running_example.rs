//! End-to-end integration test of the paper's running example (Figures 1–2)
//! on a small synthetic DBLP corpus.

use markoviews::dblp::queries;
use markoviews::prelude::*;

mod support;

fn dataset() -> DblpDataset {
    DblpDataset::generate(DblpConfig::with_authors(64)).expect("generation succeeds")
}

#[test]
fn figure1_schema_is_present() {
    let data = dataset();
    let schema = data.mvdb.base().schema();
    for rel in [
        "Author",
        "Wrote",
        "Pub",
        "HomePage",
        "FirstPub",
        "DBLPAffiliation",
        "Student",
        "Advisor",
        "Affiliation",
    ] {
        assert!(schema.relation_id(rel).is_some(), "missing relation {rel}");
    }
    assert_eq!(data.mvdb.views().len(), 3);
    assert_eq!(data.mvdb.views()[0].name, "V1");
    assert!(data.mvdb.views()[1].is_denial());
    assert_eq!(data.mvdb.views()[2].name, "V3");
}

#[test]
fn the_translation_creates_nv_relations_and_w() {
    let data = dataset();
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let translated = engine.translated();
    // NV relations for the non-denial views exist in the translated schema.
    assert!(translated.indb().schema().relation_id("NV_V1").is_some());
    assert!(translated.indb().schema().relation_id("NV_V3").is_some());
    // The denial view contributes a disjunct without an NV atom.
    let w = translated.w().expect("W exists");
    assert!(w.disjuncts.len() >= 3);
    assert!(w
        .disjuncts
        .iter()
        .any(|d| d.atoms.iter().all(|a| !a.relation.starts_with("NV_"))));
    // The index is block-structured: many small OBDDs, not one monolith.
    assert!(engine.index().num_blocks() > 10);
}

#[test]
fn running_example_answers_are_probabilities_and_respect_the_denial_view() {
    let data = dataset();
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");

    // Students of each sampled advisor: every probability is a genuine
    // probability even though the translated database has negative weights.
    for q in data.students_of_advisor_workload(5).unwrap() {
        for (_, p) in engine.answers(&q).unwrap() {
            assert!((-1e-9..=1.0 + 1e-9).contains(&p), "P = {p}");
        }
    }

    // The denial view V2 makes simultaneous advisors impossible and therefore
    // the advisor probabilities of one student sum to at most 1.
    for q in data.advisor_of_student_workload(5).unwrap() {
        let answers = engine.answers(&q).unwrap();
        let total: f64 = answers.iter().map(|(_, p)| *p).sum();
        assert!(total <= 1.0 + 1e-6, "advisor probabilities sum to {total}");
    }
}

#[test]
fn name_selection_matches_id_selection() {
    let data = dataset();
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let advisor = data.sample_advisors(1)[0];
    let name = data.author_name(advisor).unwrap();
    let by_name = engine
        .answers(&queries::students_of_advisor_named(&name).unwrap())
        .unwrap();
    let by_id = engine
        .answers(&queries::students_of_advisor(advisor).unwrap())
        .unwrap();
    assert_eq!(by_name, by_id);
    assert!(!by_id.is_empty());
}

/// The engine's answers — the index's walk over its block table
/// (CC-MVIntersect) — against the pointer-based MVIntersect over the same
/// blocks rebuilt in a manager of the test's own.
#[test]
fn both_intersection_algorithms_give_identical_answers() {
    let data = dataset();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let indb = engine.translated().indb();
    let ctx = engine.context();
    for q in data.students_of_advisor_workload(4).unwrap() {
        let answers = engine.answers(&q).unwrap();
        let lineages = ctx.answer_lineages(&q).unwrap();
        assert_eq!(answers.len(), lineages.len());
        assert!(!answers.is_empty());
        for ((row, p), (row_of, lineage)) in answers.iter().zip(&lineages) {
            assert_eq!(row, row_of);
            let oracle =
                support::manager_conditional(engine.index(), lineage, |t| indb.probability(t));
            assert!((p - oracle).abs() < 1e-9, "{row:?}: {p} vs {oracle}");
        }
    }
}

#[test]
fn index_backend_agrees_with_per_query_obdd_and_shannon_backends() {
    // Use a small corpus so that the per-query OBDD / Shannon baselines stay
    // cheap; all three must agree exactly (they are all exact methods).
    let data = DblpDataset::generate(DblpConfig::with_authors(32)).unwrap();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let student = data.sample_students(1)[0];
    let advisor = data.sample_advisors(1)[0];
    for q_text in [
        format!("Q() :- Student({student}, y), Advisor({student}, a)"),
        format!("Q() :- Advisor(s, {advisor}), Student(s, y)"),
        format!("Q() :- Student({student}, y)"),
    ] {
        let q = parse_ucq(&q_text).unwrap();
        let via_index = engine.probability(&q).unwrap();
        let via_obdd = engine
            .probability_with_backend(&q, EngineBackend::ObddPerQuery)
            .unwrap();
        let via_shannon = engine
            .probability_with_backend(&q, EngineBackend::Shannon)
            .unwrap();
        assert!(
            (via_index - via_obdd).abs() < 1e-6,
            "{q_text}: index {via_index} vs obdd {via_obdd}"
        );
        assert!(
            (via_index - via_shannon).abs() < 1e-6,
            "{q_text}: index {via_index} vs shannon {via_shannon}"
        );
        assert!((0.0..=1.0 + 1e-9).contains(&via_index));
    }
}

#[test]
fn mcsat_baseline_approximates_the_exact_engine() {
    // The Alchemy-style baseline (ground MLN + MC-SAT) should approximate the
    // exact MV-index probabilities on a small corpus.
    let data = DblpDataset::generate(DblpConfig {
        with_affiliation_view: false,
        ..DblpConfig::with_authors(24)
    })
    .unwrap();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let mln = data.mvdb.to_ground_mln().unwrap();
    let sampler = McSatSampler::new(
        &mln,
        McSatConfig {
            num_samples: 3000,
            burn_in: 300,
            ..McSatConfig::default()
        },
    );
    let student = data.sample_students(1)[0];
    let q = parse_ucq(&format!(
        "Q() :- Student({student}, y), Advisor({student}, a)"
    ))
    .unwrap();
    let exact = engine.probability(&q).unwrap();
    let lineage = mv_query::lineage::lineage(&q, data.mvdb.base()).unwrap();
    let sampled = sampler.run(&[lineage]).unwrap().query_probabilities[0];
    assert!(
        (exact - sampled).abs() < 0.1,
        "MC-SAT {sampled} vs exact {exact}"
    );
}
