//! Model suite for the row store.
//!
//! A [`Relation`](mv_pdb::Relation) keeps its rows only as dictionary
//! codes and finds duplicates through a table hashed on the code tuple.
//! This suite checks it against the obvious model — a `Vec<Row>` in
//! insertion order beside a `HashSet<Row>` — through
//! [`Database::insert`], across snapshots that keep inserting after the
//! clone, for a binary and a zero-arity relation, with lookups of the
//! wrong arity and of values the dictionary has never seen.

use std::collections::HashSet;

use mv_pdb::{Database, PdbError, RelId, Row, Value};
use proptest::prelude::*;

/// A small mixed domain, so rows repeat.
fn value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-4i64..4).prop_map(Value::int),
        "[a-c]{0,2}".prop_map(Value::str),
    ]
}

/// The domain plus values no row ever holds.
fn probe_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        3 => value(),
        1 => (100i64..104).prop_map(Value::int),
        1 => "[x-z]{3}".prop_map(Value::str),
    ]
}

#[derive(Debug, Clone, Default)]
struct Model {
    rows: Vec<Row>,
    set: HashSet<Row>,
}

impl Model {
    fn insert(&mut self, row: Row) -> usize {
        if self.set.insert(row.clone()) {
            self.rows.push(row);
            self.rows.len() - 1
        } else {
            self.rows.iter().position(|r| *r == row).unwrap()
        }
    }
}

/// Every read of the store agrees with the model.
fn check(db: &Database, rel: RelId, model: &Model, probes: &[Row]) -> Result<(), TestCaseError> {
    let relation = db.relation(rel);
    let interner = db.interner();
    prop_assert_eq!(relation.len(), model.rows.len());
    prop_assert_eq!(relation.is_empty(), model.rows.is_empty());
    prop_assert_eq!(db.rows(rel), model.rows);
    prop_assert!(relation.rows(interner).eq(model.rows.iter().cloned()));
    prop_assert!(relation
        .iter(interner)
        .eq(model.rows.iter().cloned().enumerate()));
    for (i, row) in model.rows.iter().enumerate() {
        prop_assert_eq!(relation.row(i, interner), *row);
        prop_assert_eq!(relation.position(row, interner), Some(i));
    }
    for probe in probes {
        let expected = model.rows.iter().position(|r| r == probe);
        prop_assert_eq!(relation.position(probe, interner), expected, "{probe:?}");
        prop_assert_eq!(
            relation.contains(probe, interner),
            model.set.contains(probe)
        );
        prop_assert_eq!(db.contains(rel, probe), model.set.contains(probe));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_store_agrees_with_a_row_model(
        rows in proptest::collection::vec(proptest::collection::vec(value(), 2..=2), 0..300),
        forks in proptest::collection::vec(0usize..300, 0..4),
        nullary in proptest::collection::vec(0usize..300, 0..3),
        probes in proptest::collection::vec(proptest::collection::vec(probe_value(), 0..4), 0..24),
    ) {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]).unwrap();
        let z = db.add_relation("Z", &[]).unwrap();
        let (mut model_r, mut model_z) = (Model::default(), Model::default());
        // Each fork freezes a snapshot; the live copy keeps inserting.
        let mut snapshots = Vec::new();
        for (step, row) in rows.iter().cloned().enumerate() {
            if forks.contains(&step) {
                snapshots.push((db.clone(), model_r.clone(), model_z.clone()));
            }
            if nullary.contains(&step) {
                prop_assert_eq!(db.insert(z, Vec::new()).unwrap(), model_z.insert(Vec::new()));
            }
            prop_assert_eq!(db.insert(r, row.clone()).unwrap(), model_r.insert(row));
        }
        let mut probes = probes.clone();
        probes.extend([Vec::new(), vec![Value::int(0)]]);
        check(&db, r, &model_r, &probes)?;
        check(&db, z, &model_z, &probes)?;
        for (snapshot, model_r, model_z) in &snapshots {
            check(snapshot, r, model_r, &probes)?;
            check(snapshot, z, model_z, &probes)?;
        }

        // A clone fed lookups, rows of the wrong arity and duplicates
        // keeps the one dictionary and the one version.
        let mut dup = db.clone();
        for probe in &probes {
            dup.contains(r, probe);
            dup.relation(z).position(probe, dup.interner());
        }
        let wrong = dup.insert(r, vec![Value::str("never seen")]);
        let refused = matches!(wrong, Err(PdbError::ArityMismatch { .. }));
        prop_assert!(refused);
        for (i, row) in model_r.rows.iter().enumerate() {
            prop_assert_eq!(dup.insert(r, row.clone()).unwrap(), i);
        }
        prop_assert!(std::ptr::eq(db.interner(), dup.interner()));
        prop_assert_eq!(db.version(), dup.version());
        check(&dup, r, &model_r, &probes)?;
    }
}

#[test]
fn many_rows_grow_the_dedup_table_and_stay_findable() {
    let mut db = Database::new();
    let t = db.add_relation("T", &["a", "b", "c"]).unwrap();
    let row = |i: i64| {
        vec![
            Value::int(i % 13),
            Value::str(format!("s{}", i % 101)),
            Value::int(i / 1313),
        ]
    };
    let mut model = Model::default();
    for i in 0..30_000i64 {
        assert_eq!(db.insert(t, row(i)).unwrap(), model.insert(row(i)));
    }
    // (a, b) fixes i mod 13 · 101 = 1313 and c fixes i / 1313: all new.
    assert_eq!(db.relation(t).len(), 30_000);
    for i in (0..30_000i64).step_by(7) {
        assert_eq!(
            db.relation(t).position(&row(i), db.interner()),
            Some(i as usize)
        );
        assert_eq!(db.insert(t, row(i)).unwrap(), i as usize);
    }
    let probes = [
        row(30_000),
        vec![Value::int(0), Value::str("s0"), Value::int(99)],
    ];
    check(&db, t, &model, &probes).unwrap();
}
