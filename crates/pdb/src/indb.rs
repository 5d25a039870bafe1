//! Tuple-independent probabilistic databases (INDBs).
//!
//! An [`InDb`] is the pair `(Tup, w)` of Definition 2: a set of possible
//! tuples together with a weight for each tuple. Relations may be declared
//! *deterministic* (their tuples are certain and carry no Boolean variable) or
//! *probabilistic* (each row becomes an independent Boolean random variable
//! identified by a [`TupleId`]).
//!
//! Negative weights — and hence negative marginal probabilities — are
//! permitted because the MarkoView translation of Section 3 produces them;
//! they are only accepted through [`InDbBuilder::insert_translated`], never
//! through the ordinary [`InDbBuilder::insert_weighted`] entry point.

use std::collections::HashMap;
use std::fmt;

use crate::database::Database;
use crate::schema::RelId;
use crate::value::{Row, Value};
use crate::weight::Weight;
use crate::worlds::WorldIter;
use crate::{PdbError, Result};

/// Identifier of a possible (probabilistic) tuple: the index of its Boolean
/// random variable `X_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TupleId(pub u32);

impl TupleId {
    /// The tuple id as a dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TupleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "X{}", self.0)
    }
}

/// One possible tuple of the INDB: which relation and row it is, and its weight.
#[derive(Debug, Clone)]
pub struct PossibleTuple {
    /// Relation the tuple belongs to.
    pub rel: RelId,
    /// Dense row index within that relation's instance of possible tuples.
    pub row_index: usize,
    /// The tuple's weight (odds).
    pub weight: Weight,
}

/// A tuple-independent probabilistic database.
#[derive(Debug, Clone)]
pub struct InDb {
    database: Database,
    deterministic: Vec<bool>,
    tuples: Vec<PossibleTuple>,
    by_row: HashMap<(RelId, usize), TupleId>,
    /// Dense per-relation tuple-id columns: `tuple_ids[rel][row_index]` is
    /// the raw id of the probabilistic row, or [`InDb::NO_TUPLE_ID`] for
    /// deterministic rows. Built once at [`InDbBuilder::build`]; the hot
    /// clause-collection loop of `mv-query` reads these instead of hashing
    /// `(rel, row_index)` pairs per match.
    tuple_ids: Vec<Vec<u32>>,
}

impl InDb {
    /// Sentinel in [`InDb::tuple_id_column`] marking a row without a Boolean
    /// variable (a deterministic row).
    pub const NO_TUPLE_ID: u32 = u32::MAX;
    /// The deterministic instance `I_poss` containing every possible tuple.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Shorthand for the schema.
    pub fn schema(&self) -> &crate::schema::Schema {
        self.database.schema()
    }

    /// `true` when the relation was declared deterministic.
    pub fn is_deterministic(&self, rel: RelId) -> bool {
        self.deterministic[rel.index()]
    }

    /// Number of probabilistic (possible) tuples, i.e. Boolean variables.
    pub fn num_tuples(&self) -> usize {
        self.tuples.len()
    }

    /// The possible tuple behind a [`TupleId`].
    pub fn tuple(&self, id: TupleId) -> &PossibleTuple {
        &self.tuples[id.index()]
    }

    /// The row of values behind a [`TupleId`].
    pub fn tuple_row(&self, id: TupleId) -> &Row {
        let t = self.tuple(id);
        self.database.relation(t.rel).row(t.row_index)
    }

    /// The weight of a possible tuple.
    pub fn weight(&self, id: TupleId) -> Weight {
        self.tuples[id.index()].weight
    }

    /// The marginal probability `w / (1 + w)` of a possible tuple. May be
    /// negative for translated `NV` tuples.
    pub fn probability(&self, id: TupleId) -> f64 {
        self.weight(id).probability()
    }

    /// The tuple id of a probabilistic row, identified by relation and dense
    /// row index within that relation. Deterministic rows have no id.
    pub fn tuple_id(&self, rel: RelId, row_index: usize) -> Option<TupleId> {
        self.by_row.get(&(rel, row_index)).copied()
    }

    /// The dense tuple-id column of one relation, aligned with its row
    /// indices: entry `i` is `tuple_id(rel, i).map(|t| t.0)` with
    /// [`InDb::NO_TUPLE_ID`] standing in for `None` — an array load instead
    /// of a hash lookup on the per-match lineage path.
    pub fn tuple_id_column(&self, rel: RelId) -> &[u32] {
        &self.tuple_ids[rel.index()]
    }

    /// The tuple id of a probabilistic row identified by its values.
    pub fn tuple_id_by_values(&self, rel: RelId, row: &[Value]) -> Option<TupleId> {
        let idx = self.database.relation(rel).position(row)?;
        self.tuple_id(rel, idx)
    }

    /// Iterates over all possible tuples with their ids.
    pub fn tuples(&self) -> impl Iterator<Item = (TupleId, &PossibleTuple)> {
        self.tuples
            .iter()
            .enumerate()
            .map(|(i, t)| (TupleId(i as u32), t))
    }

    /// Sets the weight of an existing possible tuple in place. Any weight is
    /// accepted (the MarkoView translation writes negative `NV` weights);
    /// callers updating *base* tuples validate with
    /// [`Weight::is_valid_base_weight`] first. The possible-tuple set — and
    /// hence every [`TupleId`] and the underlying [`Database`] version — is
    /// unchanged.
    pub fn set_weight(&mut self, id: TupleId, weight: Weight) {
        self.tuples[id.index()].weight = weight;
    }

    /// Inserts a new possible tuple — or updates the weight of the existing
    /// one when the row is already present — keeping every invariant of the
    /// frozen store (dense [`TupleId`]s, `by_row` map, per-relation tuple-id
    /// columns). Returns the id and whether the tuple is new.
    ///
    /// The update subsystem's structural write path: the store stays
    /// append-only (rows are never removed; deletes are weight-0
    /// tombstones), so tuple ids taken against an old snapshot remain valid
    /// in every newer one.
    pub fn upsert_translated(
        &mut self,
        rel: RelId,
        row: Row,
        weight: Weight,
    ) -> Result<(TupleId, bool)> {
        assert!(
            !self.deterministic[rel.index()],
            "weighted tuples must target a probabilistic relation"
        );
        let row_index = self.database.insert(rel, row)?;
        if let Some(&id) = self.by_row.get(&(rel, row_index)) {
            self.tuples[id.index()].weight = weight;
            return Ok((id, false));
        }
        debug_assert!(
            (self.tuples.len() as u64) < u64::from(InDb::NO_TUPLE_ID),
            "tuple-id space exhausted"
        );
        let id = TupleId(self.tuples.len() as u32);
        self.tuples.push(PossibleTuple {
            rel,
            row_index,
            weight,
        });
        self.by_row.insert((rel, row_index), id);
        let col = &mut self.tuple_ids[rel.index()];
        if col.len() <= row_index {
            col.resize(row_index + 1, InDb::NO_TUPLE_ID);
        }
        col[row_index] = id.0;
        Ok((id, true))
    }

    /// [`InDb::upsert_translated`] restricted to valid base weights
    /// (`[0, +inf]`) — the entry point for user-facing tuple updates.
    pub fn upsert_weighted(
        &mut self,
        rel: RelId,
        row: Row,
        weight: Weight,
    ) -> Result<(TupleId, bool)> {
        if !weight.is_valid_base_weight() {
            return Err(PdbError::InvalidWeight(weight.value()));
        }
        self.upsert_translated(rel, row, weight)
    }

    /// Enumerates all possible worlds. Fails when there are more than
    /// [`WorldIter::MAX_TUPLES`] probabilistic tuples.
    pub fn possible_worlds(&self) -> Result<WorldIter<'_>> {
        WorldIter::new(self)
    }

    /// Materialises one possible world as a deterministic [`Database`]:
    /// all deterministic rows plus the probabilistic rows present in `mask`
    /// (bit `i` of the mask corresponds to `TupleId(i)`).
    ///
    /// # Panics
    ///
    /// Panics when the database has more than 64 probabilistic tuples: a
    /// `u64` mask cannot address `TupleId(64)` and beyond (`1 << 64` would
    /// silently wrap, folding distinct worlds onto each other). Databases of
    /// any size go through [`InDb::materialize_world_where`].
    pub fn materialize_world(&self, mask: u64) -> Database {
        assert!(
            self.num_tuples() <= 64,
            "a u64 world mask addresses at most 64 tuples ({} present); \
             use materialize_world_where for larger databases",
            self.num_tuples()
        );
        self.materialize_world_where(|id| mask & (1u64 << id.0) != 0)
    }

    /// Materialises the possible world described by an arbitrary membership
    /// predicate over tuple ids: all deterministic rows plus every
    /// probabilistic row for which `in_world` returns `true`.
    ///
    /// Unlike [`InDb::materialize_world`] this is not limited to 64 tuples,
    /// so samplers can materialise worlds of databases of any size (the
    /// Monte Carlo backend's plan-evaluation mode drives compiled physical
    /// plans over these worlds). The world is a fresh [`Database`] with its
    /// own dictionary: rows are re-interned on insert, so the world's
    /// columnar code arrays are dense over the values it actually contains.
    pub fn materialize_world_where(&self, in_world: impl Fn(TupleId) -> bool) -> Database {
        let mut world = Database::with_schema(self.schema().clone());
        for (rel_id, _) in self.schema().relations() {
            if self.is_deterministic(rel_id) {
                for row in self.database.rows(rel_id) {
                    world
                        .insert(rel_id, row.clone())
                        .expect("schema is shared, arity must match");
                }
            }
        }
        for (id, t) in self.tuples() {
            if in_world(id) {
                let row = self.database.relation(t.rel).row(t.row_index).clone();
                world
                    .insert(t.rel, row)
                    .expect("schema is shared, arity must match");
            }
        }
        world
    }

    /// The probability of the world described by `mask`, i.e.
    /// `prod_{t in world} p(t) * prod_{t not in world} (1 - p(t))`.
    ///
    /// Valid for negative probabilities as well (the products are simply
    /// signed numbers; Section 3.3).
    ///
    /// # Panics
    ///
    /// Panics when the database has more than 64 probabilistic tuples — the
    /// same `u64`-mask addressing limit as [`InDb::materialize_world`].
    pub fn world_probability(&self, mask: u64) -> f64 {
        assert!(
            self.num_tuples() <= 64,
            "a u64 world mask addresses at most 64 tuples ({} present)",
            self.num_tuples()
        );
        let mut p = 1.0;
        for (id, t) in self.tuples() {
            let pt = t.weight.probability();
            if mask & (1u64 << id.0) != 0 {
                p *= pt;
            } else {
                p *= 1.0 - pt;
            }
        }
        p
    }
}

/// Builder for [`InDb`].
#[derive(Debug, Clone, Default)]
pub struct InDbBuilder {
    database: Database,
    deterministic: Vec<bool>,
    tuples: Vec<PossibleTuple>,
    by_row: HashMap<(RelId, usize), TupleId>,
}

impl InDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        InDbBuilder::default()
    }

    /// Declares a deterministic relation.
    pub fn deterministic_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        let id = self.database.add_relation(name, attributes)?;
        self.deterministic.push(true);
        Ok(id)
    }

    /// Declares a probabilistic relation.
    pub fn probabilistic_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        let id = self.database.add_relation(name, attributes)?;
        self.deterministic.push(false);
        Ok(id)
    }

    /// Inserts a certain fact into a deterministic relation.
    pub fn insert_fact(&mut self, rel: RelId, row: Row) -> Result<usize> {
        assert!(
            self.deterministic[rel.index()],
            "insert_fact must target a deterministic relation"
        );
        self.database.insert(rel, row)
    }

    /// Inserts a possible tuple with the given *base* weight (must be in
    /// `[0, +inf]`) into a probabilistic relation, returning its [`TupleId`].
    ///
    /// Re-inserting the same row keeps the first weight and returns the
    /// existing id.
    pub fn insert_weighted(&mut self, rel: RelId, row: Row, weight: Weight) -> Result<TupleId> {
        if !weight.is_valid_base_weight() {
            return Err(PdbError::InvalidWeight(weight.value()));
        }
        self.insert_translated(rel, row, weight)
    }

    /// Inserts a possible tuple allowing *any* (possibly negative) weight.
    ///
    /// This entry point exists for the MarkoView translation of Definition 5,
    /// which assigns weight `(1 - w) / w` to the `NV` tuples.
    pub fn insert_translated(&mut self, rel: RelId, row: Row, weight: Weight) -> Result<TupleId> {
        assert!(
            !self.deterministic[rel.index()],
            "weighted tuples must target a probabilistic relation"
        );
        let row_index = self.database.insert(rel, row)?;
        if let Some(&id) = self.by_row.get(&(rel, row_index)) {
            return Ok(id);
        }
        let id = TupleId(self.tuples.len() as u32);
        self.tuples.push(PossibleTuple {
            rel,
            row_index,
            weight,
        });
        self.by_row.insert((rel, row_index), id);
        Ok(id)
    }

    /// Inserts a possible tuple given its marginal probability.
    pub fn insert_probabilistic(
        &mut self,
        rel: RelId,
        row: Row,
        probability: f64,
    ) -> Result<TupleId> {
        self.insert_weighted(rel, row, Weight::from_probability(probability))
    }

    /// Convenience: look up a relation id by name.
    pub fn relation_id(&self, name: &str) -> Result<RelId> {
        self.database.relation_id(name)
    }

    /// Access to the partially-built database (e.g. for derived views).
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// Finishes the build.
    pub fn build(self) -> InDb {
        debug_assert!(
            (self.tuples.len() as u64) < u64::from(InDb::NO_TUPLE_ID),
            "tuple-id space exhausted"
        );
        // Freeze the dense per-relation tuple-id columns.
        let mut tuple_ids: Vec<Vec<u32>> = self
            .database
            .schema()
            .relations()
            .map(|(rel, _)| vec![InDb::NO_TUPLE_ID; self.database.relation(rel).len()])
            .collect();
        for (&(rel, row_index), &id) in &self.by_row {
            tuple_ids[rel.index()][row_index] = id.0;
        }
        InDb {
            database: self.database,
            deterministic: self.deterministic,
            tuples: self.tuples,
            by_row: self.by_row,
            tuple_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn two_tuple_db() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x"]).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(s, row(["a"]), Weight::new(1.0)).unwrap();
        b.build()
    }

    #[test]
    fn builder_assigns_dense_tuple_ids() {
        let db = two_tuple_db();
        assert_eq!(db.num_tuples(), 2);
        let r = db.schema().relation_id("R").unwrap();
        let s = db.schema().relation_id("S").unwrap();
        assert_eq!(db.tuple_id(r, 0), Some(TupleId(0)));
        assert_eq!(db.tuple_id(s, 0), Some(TupleId(1)));
        assert_eq!(db.tuple_id_by_values(r, &row(["a"])), Some(TupleId(0)));
        assert_eq!(db.tuple_id_by_values(r, &row(["b"])), None);
        assert_eq!(db.tuple_row(TupleId(0)), &row(["a"]));
    }

    #[test]
    fn duplicate_insert_keeps_first_weight() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let id1 = b.insert_weighted(r, row(["a"]), Weight::new(3.0)).unwrap();
        let id2 = b.insert_weighted(r, row(["a"]), Weight::new(9.0)).unwrap();
        assert_eq!(id1, id2);
        let db = b.build();
        assert_eq!(db.weight(id1).value(), 3.0);
        assert_eq!(db.num_tuples(), 1);
    }

    #[test]
    fn negative_weights_rejected_for_base_tuples_but_allowed_for_translation() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("NV", &["x"]).unwrap();
        assert!(matches!(
            b.insert_weighted(r, row(["a"]), Weight::new(-0.5)),
            Err(PdbError::InvalidWeight(_))
        ));
        let id = b
            .insert_translated(r, row(["a"]), Weight::new(-0.5))
            .unwrap();
        let db = b.build();
        assert_eq!(db.weight(id).value(), -0.5);
        assert!((db.probability(id) - (-1.0)).abs() < 1e-12);
    }

    #[test]
    fn world_probability_multiplies_marginals() {
        let db = two_tuple_db();
        // p(R(a)) = 3/4, p(S(a)) = 1/2.
        let p_both = db.world_probability(0b11);
        let p_none = db.world_probability(0b00);
        let p_r_only = db.world_probability(0b01);
        assert!((p_both - 0.375).abs() < 1e-12);
        assert!((p_none - 0.125).abs() < 1e-12);
        assert!((p_r_only - 0.375).abs() < 1e-12);
        // All four worlds sum to one.
        let total: f64 = (0..4u64).map(|m| db.world_probability(m)).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn materialize_world_includes_deterministic_rows() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["x"]).unwrap();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        b.insert_fact(d, row(["c"])).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::ONE).unwrap();
        let db = b.build();
        let w_empty = db.materialize_world(0);
        assert_eq!(w_empty.rows(d).len(), 1);
        assert_eq!(w_empty.rows(r).len(), 0);
        let w_full = db.materialize_world(1);
        assert_eq!(w_full.rows(r).len(), 1);
        assert!(db.is_deterministic(d));
        assert!(!db.is_deterministic(r));
    }

    #[test]
    fn materialize_world_where_agrees_with_mask_worlds() {
        let db = two_tuple_db();
        for mask in 0..4u64 {
            let by_mask = db.materialize_world(mask);
            let by_pred = db.materialize_world_where(|id| mask & (1u64 << id.0) != 0);
            for (rel, _) in db.schema().relations() {
                assert_eq!(by_mask.rows(rel), by_pred.rows(rel), "mask {mask}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "deterministic")]
    fn insert_fact_into_probabilistic_relation_panics() {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let _ = b.insert_fact(r, row(["a"]));
    }

    /// 65 probabilistic tuples: one more than a u64 mask can address.
    fn sixty_five_tuple_db() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        for i in 0..65i64 {
            b.insert_weighted(r, row([i]), Weight::ONE).unwrap();
        }
        b.build()
    }

    #[test]
    #[should_panic(expected = "at most 64 tuples")]
    fn materialize_world_rejects_databases_beyond_the_mask_width() {
        // Regression: `1u64 << 64` used to wrap silently, so TupleId(64)
        // aliased TupleId(0) and the materialised world was wrong.
        let db = sixty_five_tuple_db();
        let _ = db.materialize_world(u64::MAX);
    }

    #[test]
    #[should_panic(expected = "at most 64 tuples")]
    fn world_probability_rejects_databases_beyond_the_mask_width() {
        let db = sixty_five_tuple_db();
        let _ = db.world_probability(0);
    }

    #[test]
    fn oversized_databases_still_materialize_through_the_predicate_api() {
        let db = sixty_five_tuple_db();
        let r = db.schema().relation_id("R").unwrap();
        let world = db.materialize_world_where(|id| id.0 >= 64);
        assert_eq!(world.rows(r).len(), 1);
        assert_eq!(world.rows(r)[0], row([64i64]));
    }

    #[test]
    fn upsert_extends_a_frozen_store_consistently() {
        let mut db = two_tuple_db();
        let r = db.schema().relation_id("R").unwrap();
        let version_before = db.database().version();
        // New row: fresh id, tuple-id column extended, version bumped.
        let (id, fresh) = db.upsert_weighted(r, row(["b"]), Weight::new(2.0)).unwrap();
        assert!(fresh);
        assert_eq!(id, TupleId(2));
        assert_eq!(db.tuple_id_by_values(r, &row(["b"])), Some(id));
        assert_eq!(db.tuple_id_column(r), &[0, 2]);
        assert_ne!(db.database().version(), version_before);
        // Existing row: weight updated in place, no version bump.
        let version_mid = db.database().version();
        let (id2, fresh2) = db.upsert_weighted(r, row(["b"]), Weight::new(5.0)).unwrap();
        assert!(!fresh2);
        assert_eq!(id2, id);
        assert_eq!(db.weight(id).value(), 5.0);
        assert_eq!(db.database().version(), version_mid);
        // set_weight is the same no-structural-change path.
        db.set_weight(id, Weight::new(0.0));
        assert_eq!(db.weight(id).value(), 0.0);
        assert_eq!(db.num_tuples(), 3);
    }

    #[test]
    fn upsert_rejects_invalid_base_weights() {
        let mut db = two_tuple_db();
        let r = db.schema().relation_id("R").unwrap();
        assert!(matches!(
            db.upsert_weighted(r, row(["z"]), Weight::new(-1.0)),
            Err(PdbError::InvalidWeight(_))
        ));
        assert_eq!(db.num_tuples(), 2);
    }

    #[test]
    fn tuple_id_columns_mirror_the_by_row_map() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["x"]).unwrap();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        b.insert_fact(d, row(["c"])).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::ONE).unwrap();
        b.insert_weighted(r, row(["b"]), Weight::ONE).unwrap();
        let db = b.build();
        assert_eq!(db.tuple_id_column(d), &[InDb::NO_TUPLE_ID]);
        assert_eq!(db.tuple_id_column(r).len(), 2);
        for (rel, _) in db.schema().relations() {
            for (i, &raw) in db.tuple_id_column(rel).iter().enumerate() {
                let expected = db.tuple_id(rel, i).map(|t| t.0);
                assert_eq!(raw, expected.unwrap_or(InDb::NO_TUPLE_ID));
            }
        }
    }
}
