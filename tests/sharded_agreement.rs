//! Sharded vs unsharded agreement: the component-partitioned scale-out
//! path ([`markoviews::core::ShardedEngine`]) must return the same
//! probabilities as the monolithic engine — within 1e-12 — for every exact
//! backend, every shard count, and every routing outcome: queries whose
//! lineage lives in one shard, spans several shards (combined by
//! independence), crosses shards inside a single clause (oracle fallback),
//! or touches zero shards (constant lineage).

use markoviews::prelude::*;
use proptest::prelude::*;

mod common;
use common::{build, mvdb_strategy};

/// Queries covering every routing outcome on the R/S + view fixtures:
/// single-component selections, multi-component disjunctions and scans
/// (per-shard independence combination), deliberate cross-component
/// conjunctions (oracle fallback), and empty-match constants (zero
/// shards).
fn workload() -> Vec<Ucq> {
    [
        "Q() :- R(x), S(x, y)",
        "Q() :- R(x)",
        "Q() :- S(x, y)",
        "Q() :- R(x) ; Q() :- S(x, y)",
        "Q() :- R(0)",
        "Q() :- S(0, y)",
        "Q() :- R(0), S(1, y)",
        "Q() :- R(x), S(y, z)",
        "Q() :- R(9)",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

#[test]
fn running_example_agrees_sharded_and_unsharded() {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    for (x, (wr, ws)) in [("a", (3.0, 4.0)), ("b", (1.0, 0.5)), ("c", (2.0, 2.0))] {
        b.weighted_tuple("R", &[x], wr).unwrap();
        b.weighted_tuple("S", &[x], ws).unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    let mvdb = b.build().unwrap();
    let oracle = MvdbEngine::compile(&mvdb).unwrap();
    for num_shards in [1, 2, 4] {
        let engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
        for q_text in ["Q() :- R(x), S(x)", "Q() :- R(x)", "Q() :- R('a'), S('b')"] {
            let q = parse_ucq(q_text).unwrap();
            let p = engine.probability(&q).unwrap();
            let reference = oracle.probability(&q).unwrap();
            assert!(
                (p - reference).abs() < 1e-12,
                "{q_text} at {num_shards} shards: {p} vs {reference}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_probabilities_match_the_unsharded_oracle(desc in mvdb_strategy()) {
        let mvdb = build(&desc);
        let oracle = match MvdbEngine::compile(&mvdb) {
            Ok(e) => e,
            // Denial views can make the MVDB inconsistent; nothing to
            // compare in that case.
            Err(_) => return Ok(()),
        };
        let queries = workload();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| oracle.probability(q).unwrap())
            .collect();
        for num_shards in [1, 2, 3] {
            let engine = ShardedEngine::from_engine(oracle.clone(), num_shards).unwrap();
            let session = engine.session();
            for selector in EngineBackend::comparison_suite() {
                let batch = session
                    .probabilities_with_backend(&queries, selector)
                    .unwrap();
                for ((q, r), p) in queries.iter().zip(&reference).zip(&batch) {
                    prop_assert!(
                        (r - p).abs() < 1e-12,
                        "{} via {:?} at {} shards: {} vs oracle {} on {:?}",
                        q, selector, num_shards, p, r, desc
                    );
                }
            }
            // The workload exercises the whole routing spectrum whenever
            // the database has more than one component: "Q() :- R(9)" never
            // matches (zero shards), and the multi-scan queries either
            // combine across shards or fall back.
            let _ = session.probabilities(&queries).unwrap();
            prop_assert_eq!(session.last_shard_queries().len(), num_shards);
        }
    }
}

/// The name selection that matches *every* advisor — at 2 000 authors about
/// 9 000 clauses over every block of the index, the shape that ran out of
/// memory at 10 000 authors while the online path was quadratic. It must
/// evaluate, agree sharded and unsharded, and stay on the exact rung.
#[test]
fn the_all_advisors_selection_is_exact_sharded_and_unsharded() {
    use markoviews::core::backend::{ResilienceConfig, ResilientBackend, Rung};

    let data = DblpDataset::generate(DblpConfig::with_authors(2000)).unwrap();
    let q = markoviews::dblp::queries::students_of_advisor_named("f00")
        .unwrap()
        .boolean();
    let oracle = MvdbEngine::compile(&data.mvdb).unwrap();
    let lineage = oracle.context().lineage(&q).unwrap();
    assert!(lineage.num_clauses() > 4 * data.stats.advisor / 5);
    let reference = oracle.probability(&q).unwrap();
    assert!((0.0..=1.0).contains(&reference), "{reference}");

    let sharded = ShardedEngine::from_engine(oracle.clone(), 4).unwrap();
    let p = sharded.probability(&q).unwrap();
    assert!((p - reference).abs() < 1e-12, "{p} vs {reference}");

    let ladder = ResilientBackend::new(ResilienceConfig::default());
    assert_eq!(ladder.config().node_budget, 1 << 18);
    let outcome = ladder.evaluate(&q, &oracle.context());
    assert_eq!(outcome.rung, Some(Rung::Exact), "{:?}", outcome.fault);
    assert!((outcome.probability.unwrap() - reference).abs() < 1e-12);
}

/// Every broad (100-aid band) and heavy (1 000-aid band) name selection of
/// the repository benchmark at 2 000 authors, one `ShardedEngine::probability`
/// call each. A broad lineage stays well below the clause count from which
/// phase 2 spawns a thread per touched shard (1 536) and a heavy one well
/// above it, so both sides of that choice answer like the oracle.
#[test]
fn name_selections_agree_sharded_and_unsharded_on_both_sides_of_the_fan_out() {
    let authors = 2000;
    let data = DblpDataset::generate(DblpConfig::with_authors(authors)).unwrap();
    let oracle = MvdbEngine::compile(&data.mvdb).unwrap();
    let sharded = ShardedEngine::from_engine(oracle.clone(), 2).unwrap();
    let ctx = oracle.context();
    let broad = (0..authors / 100).map(|band| (format!("f{band:04}"), false));
    let heavy = (0..authors / 1000).map(|band| (format!("f{band:03}"), true));
    for (fragment, is_heavy) in broad.chain(heavy) {
        let q = parse_ucq(&format!(
            "Q() :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
             Author(aid1, n1), n1 like '%{fragment}%'"
        ))
        .unwrap();
        let clauses = ctx.lineage(&q).unwrap().num_clauses();
        if is_heavy {
            assert!(clauses > 4096, "{fragment}: {clauses} clauses");
        } else {
            assert!(
                (1..1024).contains(&clauses),
                "{fragment}: {clauses} clauses"
            );
        }
        let reference = oracle.probability(&q).unwrap();
        let p = sharded.probability(&q).unwrap();
        assert!(
            (p - reference).abs() < 1e-12,
            "{fragment}: {p} vs {reference}"
        );
    }
}

/// The point queries of the repository benchmark (`point_batch`): one text
/// per student, advisor and affiliated author, in three shapes. A sharded
/// session compiles one template per shape for the snapshot, and each
/// routing context reports the three templates it resolved — never the
/// whole shared cache once per worker.
#[test]
fn point_queries_resolve_one_template_per_shape_per_context() {
    let data = DblpDataset::generate(DblpConfig::with_authors(500)).unwrap();
    let texts = data
        .students
        .iter()
        .map(|s| format!("Q() :- Student({s}, year), Advisor({s}, aid2)"))
        .chain(
            data.advisors
                .iter()
                .map(|a| format!("Q() :- Student(aid, year), Advisor(aid, {a})")),
        )
        .chain(
            data.affiliated_authors
                .iter()
                .map(|z| format!("Q() :- Affiliation({z}, inst)")),
        );
    let queries: Vec<Ucq> = texts.map(|t| parse_ucq(&t).unwrap()).collect();
    assert!(queries.len() > 300);

    let engine = ShardedEngine::compile(&data.mvdb, 2).unwrap();
    let cache = engine.full().translated().plan_cache();
    let session = engine.session();
    // A batch of another shape first: the shared cache then holds more
    // templates than any one point-query context resolves.
    session
        .probabilities(&[parse_ucq("Q() :- Student(aid, year)").unwrap()])
        .unwrap();
    assert_eq!(cache.len(), 1);

    let probs = session.probabilities(&queries).unwrap();
    assert_eq!(cache.len(), 4);
    let plan = session.last_query_stats().plan;
    assert_eq!(plan.disjuncts, 3 * engine.num_shards(), "{plan:?}");
    assert_eq!(plan.never_matching, 0);
    // Unsharded, one context: the same three templates, no compile.
    let unsharded = engine.full().session();
    let reference = unsharded.probabilities(&queries).unwrap();
    assert_eq!(unsharded.last_query_stats().plan.disjuncts, 3);
    assert_eq!(cache.len(), 4);
    for (q, (p, r)) in queries.iter().zip(probs.iter().zip(&reference)) {
        assert!((p - r).abs() < 1e-12, "{q}: {p} vs {r}");
    }
}
