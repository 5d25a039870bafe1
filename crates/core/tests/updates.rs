//! Differential property tests for the live-update path: after any
//! sequence of valid update batches, an engine mutated in place must
//! answer every workload query exactly like an engine compiled from
//! scratch over the same database — unsharded and sharded alike — and a
//! rejected batch must change nothing at all.

use mv_core::sharded::ShardedEngine;
use mv_core::{EngineBackend, Mvdb, MvdbBuilder, MvdbEngine, UpdateBatch, UpdateOp};
use mv_pdb::Value;
use mv_query::{parse_ucq, Ucq};
use proptest::prelude::*;

fn base_mvdb() -> Mvdb {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    for (x, (wr, ws)) in [("a", (3.0, 4.0)), ("b", (1.0, 0.5)), ("c", (2.0, 2.0))] {
        b.weighted_tuple("R", &[x], wr).unwrap();
        b.weighted_tuple("S", &[x], ws).unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    b.build().unwrap()
}

fn workload() -> Vec<Ucq> {
    [
        "Q() :- R(x), S(x)",
        "Q() :- R(x)",
        "Q() :- S(x)",
        "Q() :- R('a')",
        "Q() :- R('e'), S('e')",
        "Q() :- R(x) ; Q() :- S(x)",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

const DOMAIN: [&str; 6] = ["a", "b", "c", "d", "e", "f"];

/// Valid update operations over a small closed domain. Inserts are
/// upserts, deletes of absent rows are no-ops, and view weights stay in
/// the rescalable-or-structural range — so any generated batch is
/// accepted, and the differential property covers the weight-only fast
/// path, structural re-translation, and the mix of both.
fn arb_op() -> impl Strategy<Value = UpdateOp> {
    let rel = prop_oneof![Just("R"), Just("S")];
    let val = (0usize..DOMAIN.len()).prop_map(|i| DOMAIN[i]);
    prop_oneof![
        4 => (rel.clone(), val.clone(), 0.1f64..5.0).prop_map(|(r, v, w)| {
            UpdateOp::InsertTuple {
                relation: r.to_string(),
                row: vec![Value::str(v)],
                weight: w,
            }
        }),
        2 => (rel, val).prop_map(|(r, v)| UpdateOp::DeleteTuple {
            relation: r.to_string(),
            row: vec![Value::str(v)],
        }),
        1 => (0usize..4).prop_map(|i| UpdateOp::SetViewWeight {
            view: "V".to_string(),
            weight: [0.25f64, 0.5, 2.0, 4.0][i],
        }),
    ]
}

/// The query kernel keeps nothing of the snapshot it ran against: a
/// context made after a structural update (new tuples, new levels, a new
/// block) answers queries over exactly those tuples, sharded or not.
#[test]
fn a_context_made_after_a_structural_apply_sees_the_new_tuples() {
    let mvdb = base_mvdb();
    let mut engine = MvdbEngine::compile(&mvdb).unwrap();
    let mut sharded = ShardedEngine::compile(&mvdb, 2).unwrap();
    let new_rows = parse_ucq("Q() :- R('e'), S('e')").unwrap();
    let all_rows = parse_ucq("Q() :- R(x), S(x)").unwrap();
    // Warm the pre-update contexts over the old order.
    assert_eq!(engine.probability(&new_rows).unwrap(), 0.0);
    assert_eq!(
        sharded
            .session()
            .probabilities(std::slice::from_ref(&new_rows))
            .unwrap(),
        [0.0]
    );

    let insert = |relation: &str, weight| UpdateOp::InsertTuple {
        relation: relation.to_string(),
        row: vec![Value::str("e")],
        weight,
    };
    let batch = to_batch(&[insert("R", 1.5), insert("S", 0.7)]);
    engine.apply(&batch).unwrap();
    sharded.apply(&batch).unwrap();

    let rebuilt = MvdbEngine::compile(engine.mvdb()).unwrap();
    for q in [&new_rows, &all_rows] {
        let fresh = rebuilt.probability(q).unwrap();
        assert!(fresh > 0.0);
        let ctx = engine.context();
        for backend in EngineBackend::comparison_suite() {
            let p = backend.instantiate().probability(q, &ctx).unwrap();
            assert!(
                (p - fresh).abs() < 1e-9,
                "{backend:?} on {q}: {p} vs {fresh}"
            );
        }
        let p = sharded
            .session()
            .probabilities(std::slice::from_ref(q))
            .unwrap()[0];
        assert!((p - fresh).abs() < 1e-9, "sharded {q}: {p} vs {fresh}");
    }
}

fn to_batch(ops: &[UpdateOp]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for op in ops {
        batch.push(op.clone());
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn updated_engines_match_from_scratch_rebuilds(
        batches in proptest::collection::vec(proptest::collection::vec(arb_op(), 1..4), 1..4),
    ) {
        let mvdb = base_mvdb();
        let queries = workload();
        let mut engine = MvdbEngine::compile(&mvdb).unwrap();
        let mut sharded = ShardedEngine::compile(&mvdb, 2).unwrap();
        for ops in &batches {
            let batch = to_batch(ops);
            let out = engine.apply(&batch).unwrap();
            let sharded_out = sharded.apply(&batch).unwrap();
            prop_assert_eq!(out.kind, sharded_out.kind);
            // The incremental engines must agree with a from-scratch
            // compile of the retained (mutated) database.
            let rebuilt = MvdbEngine::compile(engine.mvdb()).unwrap();
            for q in &queries {
                let fresh = rebuilt.probability(q).unwrap();
                let p = engine.probability(q).unwrap();
                prop_assert!(
                    (p - fresh).abs() < 1e-9,
                    "unsharded {} after {:?}: {} vs rebuild {}", q, ops, p, fresh
                );
            }
            let probs = sharded.session().probabilities(&queries).unwrap();
            for (q, p) in queries.iter().zip(&probs) {
                let fresh = rebuilt.probability(q).unwrap();
                prop_assert!(
                    (p - fresh).abs() < 1e-9,
                    "sharded {} after {:?}: {} vs rebuild {}", q, ops, p, fresh
                );
            }
        }
    }

    #[test]
    fn rejected_batches_mutate_nothing(
        ops in proptest::collection::vec(arb_op(), 1..4),
        position in 0usize..4,
    ) {
        let mvdb = base_mvdb();
        let queries = workload();
        let mut engine = MvdbEngine::compile(&mvdb).unwrap();
        let mut sharded = ShardedEngine::compile(&mvdb, 2).unwrap();
        let before: Vec<f64> = queries
            .iter()
            .map(|q| engine.probability(q).unwrap())
            .collect();
        // Poison the batch at an arbitrary position: setting the weight
        // of a row that does not exist rejects the whole batch, even
        // when every other op is valid.
        let poison = UpdateOp::SetTupleWeight {
            relation: "R".to_string(),
            row: vec![Value::str("no-such-row")],
            weight: 1.0,
        };
        let mut poisoned = ops.clone();
        poisoned.insert(position.min(ops.len()), poison);
        let batch = to_batch(&poisoned);
        prop_assert!(engine.apply(&batch).is_err());
        prop_assert!(sharded.apply(&batch).is_err());
        for (q, b) in queries.iter().zip(&before) {
            let p = engine.probability(q).unwrap();
            prop_assert!((p - b).abs() < 1e-12, "unsharded {} drifted: {} vs {}", q, p, b);
        }
        let probs = sharded.session().probabilities(&queries).unwrap();
        for ((q, b), p) in queries.iter().zip(&before).zip(&probs) {
            prop_assert!((p - b).abs() < 1e-12, "sharded {} drifted: {} vs {}", q, p, b);
        }
    }
}
