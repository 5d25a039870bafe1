//! Access paths belong to the store snapshot: a fresh evaluation context —
//! which is what every `MvdbEngine::answers` call makes — finds the CSR
//! indexes and distinct counts its relations already built, so
//! it builds none and answers exactly like a long-lived context. Counts and
//! identities only; no wall clock.

use std::sync::Arc;

use markoviews::core::{UpdateBatch, UpdateKind};
use markoviews::pdb::Relation;
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

    // A structural update replaces only what it writes: the relation it
    // inserts into, and the NV relations of the fresh translation. Every
    // other relation is still the source engine's instance, access paths
    // included, so querying the new snapshot builds paths on the replaced
    // relations alone — the same ones whether 1 or 100 contexts query it.
    // (Source engine, snapshots and the caller's MVDB share one build
    // counter, so the paths are counted per relation instance.)
    let held = relations(&engine);
    let held_paths: Vec<usize> = held.iter().map(|(_, r)| r.access_paths_built()).collect();
    let fresh_edge = vec![edge[0].clone(), Value::int(1_000_000)];
    let batch = UpdateBatch::new().insert("Advisor", fresh_edge, 0.5);
    let mut grew = Vec::new();
    for rounds in [1, 100] {
        let before = builds(&engine);
        let mut snapshot = engine.clone();
        assert_eq!(snapshot.apply(&batch).unwrap().kind, UpdateKind::Structural);
        ask(&snapshot, &queries, rounds);
        let base = snapshot.mvdb().base().schema();
        let (replaced, kept): (Vec<_>, Vec<_>) = relations(&snapshot)
            .into_iter()
            .partition(|(name, r)| !held.iter().any(|(n, h)| n == name && Arc::ptr_eq(h, r)));
        for (name, _) in &replaced {
            assert!(
                name == "Advisor" || base.relation_id(name).is_none(),
                "{name} was replaced"
            );
        }
        assert!(replaced.iter().any(|(name, _)| name == "Advisor"));
        assert_eq!(kept.len() + 1, base.len(), "only Advisor of the base");
        let on_replaced: usize = replaced.iter().map(|(_, r)| r.access_paths_built()).sum();
        assert!(on_replaced > 0);
        assert_eq!(builds(&engine) - before, on_replaced as u64);
        grew.push(on_replaced);
    }
    assert_eq!(grew[0], grew[1]);
    // The source engine still holds the very relations it held, with the
    // very paths.
    let now = relations(&engine);
    for (((name, h), paths), (now_name, r)) in held.iter().zip(held_paths).zip(&now) {
        assert_eq!(name, now_name);
        assert!(Arc::ptr_eq(h, r), "{name}");
        assert_eq!(r.access_paths_built(), paths, "{name}");
    }
}

/// Every relation of an engine's translated store, by name.
fn relations(engine: &MvdbEngine) -> Vec<(String, Arc<Relation>)> {
    let db = engine.translated().indb().database();
    db.schema()
        .relations()
        .map(|(rel, schema)| (schema.name().to_string(), db.relation_arc(rel)))
        .collect()
}
