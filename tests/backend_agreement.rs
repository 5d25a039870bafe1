//! Cross-backend agreement: every evaluation backend — both MV-index
//! intersection algorithms, the per-query augmented OBDD, Shannon expansion,
//! and brute-force enumeration — computes the same probabilities, on the
//! paper's running example and on small random MVDBs, within 1e-9.
//!
//! This is the contract the [`markoviews::core::Backend`] trait layer has to
//! uphold: a strategy is a pure performance choice, never a semantics
//! choice.

use markoviews::prelude::*;
use proptest::prelude::*;

mod common;
use common::{build, mvdb_strategy};

/// The backends under test (safe plans are exercised separately: they
/// legitimately reject unsafe queries).
fn suite() -> Vec<EngineBackend> {
    EngineBackend::comparison_suite()
}

#[test]
fn running_example_agrees_across_all_backends() {
    // Example 1 of the paper: R(a) with weight 3, S(a) with weight 4, and a
    // MarkoView with weight 1/2 between them.
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    b.weighted_tuple("R", &["a"], 3.0).unwrap();
    b.weighted_tuple("S", &["a"], 4.0).unwrap();
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    let mvdb = b.build().unwrap();
    let engine = MvdbEngine::compile(&mvdb).unwrap();

    for q_text in [
        "Q() :- R(x), S(x)",
        "Q() :- R(x)",
        "Q() :- S(x)",
        "Q() :- R(x) ; Q() :- S(x)",
    ] {
        let q = parse_ucq(q_text).unwrap();
        let reference = mvdb.exact_probability(&q).unwrap();
        for selector in suite() {
            let p = engine.probability_with_backend(&q, selector).unwrap();
            assert!(
                (p - reference).abs() < 1e-9,
                "{q_text} via {selector:?}: {p} vs MLN reference {reference}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn all_backends_agree_on_random_mvdbs(desc in mvdb_strategy()) {
        let mvdb = build(&desc);
        let engine = match MvdbEngine::compile(&mvdb) {
            Ok(e) => e,
            // Denial views can make the MVDB inconsistent; nothing to
            // compare in that case.
            Err(_) => return Ok(()),
        };
        for q_text in [
            "Q() :- R(x), S(x, y)",
            "Q() :- R(x)",
            "Q() :- S(x, y)",
            "Q() :- R(x) ; Q() :- S(x, y)",
            "Q() :- R(0)",
            "Q() :- S(0, y)",
        ] {
            let q = parse_ucq(q_text).unwrap();
            // Brute force over the lineage is the reference; every other
            // backend must agree with it within 1e-9.
            let reference = engine
                .probability_with_backend(&q, EngineBackend::BruteForce)
                .unwrap();
            prop_assert!((-1e-9..=1.0 + 1e-9).contains(&reference));
            for selector in suite() {
                let p = engine.probability_with_backend(&q, selector).unwrap();
                prop_assert!(
                    (p - reference).abs() < 1e-9,
                    "{q_text} via {selector:?}: {p} vs brute {reference} on {desc:?}"
                );
            }
        }
    }

    #[test]
    fn parallel_sessions_agree_with_sequential_evaluation(desc in mvdb_strategy()) {
        // The MvdbSession batch API must be a pure scheduling choice: for
        // every backend, evaluating the workload across worker threads
        // (per-thread OBDD-manager shards) returns the same probabilities
        // as the one-query-at-a-time engine API, within 1e-9.
        let mvdb = build(&desc);
        let engine = match MvdbEngine::compile(&mvdb) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let queries: Vec<_> = [
            "Q() :- R(x), S(x, y)",
            "Q() :- R(x)",
            "Q() :- S(x, y)",
            "Q() :- R(x) ; Q() :- S(x, y)",
            "Q() :- R(0)",
            "Q() :- S(0, y)",
        ]
        .iter()
        .map(|q| parse_ucq(q).unwrap())
        .collect();
        let sequential: Vec<f64> = queries
            .iter()
            .map(|q| engine.probability(q).unwrap())
            .collect();
        for selector in suite() {
            let batch = engine
                .session()
                .with_threads(3)
                .probabilities_with_backend(&queries, selector)
                .unwrap();
            for ((q, s), p) in queries.iter().zip(&sequential).zip(&batch) {
                prop_assert!(
                    (s - p).abs() < 1e-9,
                    "{} via {:?} in a 3-thread session: {} vs sequential {}",
                    q, selector, p, s
                );
            }
        }
    }

    #[test]
    fn backend_answers_agree_on_random_mvdbs(desc in mvdb_strategy()) {
        let mvdb = build(&desc);
        let engine = match MvdbEngine::compile(&mvdb) {
            Ok(e) => e,
            Err(_) => return Ok(()),
        };
        let q = parse_ucq("Q(x) :- R(x), S(x, y)").unwrap();
        let reference = engine
            .answers_with(&q, &BruteForce)
            .unwrap();
        for selector in suite() {
            let answers = engine
                .answers_with(&q, selector.instantiate().as_ref())
                .unwrap();
            prop_assert_eq!(answers.len(), reference.len());
            for ((row_a, p_a), (row_b, p_b)) in answers.iter().zip(&reference) {
                prop_assert_eq!(row_a, row_b);
                prop_assert!(
                    (p_a - p_b).abs() < 1e-9,
                    "{:?} on {:?}: {} vs {}",
                    selector, row_a, p_a, p_b
                );
            }
        }
    }
}

/// The MV-index's flat `answers` — every answer's clause range folded
/// straight from one buffer — against the trait's default path, one
/// canonical lineage per answer through `lineage_probability`: the same
/// rows in the same order and the same probabilities to the bit, on every
/// non-Boolean point query of a 500-author corpus and its broad name
/// selections.
#[test]
fn flat_index_answers_equal_the_per_answer_lineage_path_to_the_bit() {
    let data = DblpDataset::generate(DblpConfig::with_authors(500)).unwrap();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let backend = MvIndexBackend::new(engine.intersect_algorithm());
    let mut texts: Vec<String> = Vec::new();
    for s in &data.students {
        texts.push(format!("Q(aid2) :- Student({s}, year), Advisor({s}, aid2)"));
    }
    for a in &data.advisors {
        texts.push(format!("Q(aid) :- Student(aid, year), Advisor(aid, {a})"));
    }
    for z in &data.affiliated_authors {
        texts.push(format!("Q(inst) :- Affiliation({z}, inst)"));
    }
    for band in 0..5 {
        texts.push(format!(
            "Q(aid) :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
             Author(aid1, n1), n1 like '%f{band:04}%'"
        ));
    }
    let mut answers = 0;
    for text in &texts {
        let q = parse_ucq(text).unwrap();
        let ctx = engine.context();
        let flat = backend.answers(&q, &ctx).unwrap();
        let per_answer: Vec<(Row, f64)> = ctx
            .answer_lineages(&q)
            .unwrap()
            .into_iter()
            .map(|(row, lineage)| {
                let p = backend.lineage_probability(&lineage, &ctx).unwrap();
                (row, p.unwrap())
            })
            .collect();
        assert_eq!(flat.len(), per_answer.len(), "{text}");
        for ((row, p), (expected_row, expected)) in flat.iter().zip(&per_answer) {
            assert_eq!(row, expected_row, "{text}");
            assert_eq!(p.to_bits(), expected.to_bits(), "{text}: {row:?}");
        }
        answers += flat.len();
    }
    assert!(answers > texts.len(), "{answers} answers");
}
