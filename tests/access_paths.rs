//! Access paths belong to the store snapshot: a fresh evaluation context —
//! which is what every `MvdbEngine::answers` call makes — finds the CSR
//! indexes and distinct counts its relations already built, so
//! it builds none and answers exactly like a long-lived context. Counts and
//! identities only; no wall clock.

use markoviews::core::{UpdateBatch, UpdateKind};
use markoviews::prelude::*;

fn dataset() -> DblpDataset {
    DblpDataset::generate(DblpConfig::with_authors(60)).unwrap()
}

/// The DBLP point-query family (Figures 5, 6/10 and 11).
fn point_queries(data: &DblpDataset) -> Vec<Ucq> {
    let mut queries = data.advisor_of_student_workload(8).unwrap();
    queries.extend(data.students_of_advisor_workload(8).unwrap());
    queries.extend(data.affiliation_workload(4).unwrap());
    queries
}

fn builds(engine: &MvdbEngine) -> u64 {
    engine.translated().indb().database().access_path_builds()
}

/// Every query `rounds` times, each call on a fresh context.
fn ask(engine: &MvdbEngine, queries: &[Ucq], rounds: usize) {
    for _ in 0..rounds {
        for q in queries {
            engine.answers(q).unwrap();
        }
    }
}

#[test]
fn fresh_contexts_answer_exactly_like_one_shared_context() {
    let data = dataset();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let backend = MvIndexBackend::new(engine.intersect_algorithm());
    let shared = engine.context();
    let mut answered = 0;
    for q in point_queries(&data) {
        let fresh = engine.answers(&q).unwrap();
        let reused = backend.answers(&q, &shared).unwrap();
        assert_eq!(fresh.len(), reused.len(), "{q}");
        for ((row_a, p_a), (row_b, p_b)) in fresh.iter().zip(&reused) {
            assert_eq!(row_a, row_b, "{q}");
            assert!(
                (p_a - p_b).abs() < 1e-12,
                "{q} on {row_a:?}: {p_a} vs {p_b}"
            );
        }
        answered += fresh.len();
    }
    assert!(answered > 0);
}

#[test]
fn builds_follow_snapshots_not_contexts() {
    let data = dataset();
    let queries = point_queries(&data);
    let mut engine = MvdbEngine::compile(&data.mvdb).unwrap();

    // One pass builds what the family probes; a hundred more build nothing.
    ask(&engine, &queries, 1);
    let warm = builds(&engine);
    ask(&engine, &queries, 100);
    assert_eq!(builds(&engine), warm);

    // A weight-only update keeps the store, so it keeps the access paths.
    let advisor = engine.mvdb().base().schema().require("Advisor").unwrap();
    let edge = engine.mvdb().base().database().rows(advisor)[0].clone();
    let out = engine
        .apply(&UpdateBatch::new().set_weight("Advisor", edge.clone(), 0.7))
        .unwrap();
    assert_eq!(out.kind, UpdateKind::WeightOnly);
    ask(&engine, &queries, 1);
    assert_eq!(builds(&engine), warm);
    // So does an engine clone: the snapshot shares the relation instances.
    ask(&engine.clone(), &queries, 1);
    assert_eq!(builds(&engine), warm);

    // A structural update makes a new store. Whether 1 or 100 contexts then
    // query it, it builds the same structures, once.
    let fresh_edge = vec![edge[0].clone(), Value::int(1_000_000)];
    let batch = UpdateBatch::new().insert("Advisor", fresh_edge, 0.5);
    let (mut once, mut often) = (engine.clone(), engine.clone());
    for e in [&mut once, &mut often] {
        assert_eq!(e.apply(&batch).unwrap().kind, UpdateKind::Structural);
    }
    let (once_before, often_before) = (builds(&once), builds(&often));
    ask(&once, &queries, 1);
    ask(&often, &queries, 100);
    let grew = builds(&once) - once_before;
    assert!(grew > 0);
    assert_eq!(builds(&often) - often_before, grew);
    // The engine the clones were taken from is untouched.
    assert_eq!(builds(&engine), warm);
}
