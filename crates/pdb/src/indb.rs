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

use std::fmt;
use std::sync::Arc;

use crate::chunked::Chunked;
use crate::database::Database;
use crate::relation::vec_bytes;
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
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PossibleTuple {
    /// Relation the tuple belongs to.
    pub rel: RelId,
    /// Dense row index within that relation's instance of possible tuples.
    pub row_index: u32,
    /// The tuple's weight (odds).
    pub weight: Weight,
}

/// A tuple-independent probabilistic database.
///
/// Every per-tuple column sits behind `Arc`s — the `(relation, row)` and
/// weight columns in chunks of 4 096 tuples, each relation's
/// tuple-id column whole — so a clone copies pointers, a weight write
/// copies one chunk, and a new tuple copies the chunk and the tuple-id
/// column it extends.
#[derive(Debug, Clone, Default)]
pub struct InDb {
    database: Database,
    deterministic: Vec<bool>,
    /// Per tuple id: the relation and row index of the tuple.
    places: Chunked<(RelId, u32)>,
    /// Per tuple id: the tuple's weight.
    weights: Chunked<Weight>,
    /// Dense per-relation tuple-id columns: `tuple_ids[rel][row_index]` is
    /// the raw id of the probabilistic row, or [`InDb::NO_TUPLE_ID`] for
    /// deterministic rows — the store's one row → id index, extended by
    /// every new possible tuple; the hot clause-collection loop of
    /// `mv-query` reads these directly.
    tuple_ids: Vec<Arc<Vec<u32>>>,
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
        self.places.len()
    }

    /// The possible tuple behind a [`TupleId`].
    pub fn tuple(&self, id: TupleId) -> PossibleTuple {
        let (rel, row_index) = *self.places.get(id.index());
        PossibleTuple {
            rel,
            row_index,
            weight: self.weight(id),
        }
    }

    /// The row of values behind a [`TupleId`], decoded through the
    /// store's dictionary.
    pub fn tuple_row(&self, id: TupleId) -> Row {
        let (rel, row_index) = *self.places.get(id.index());
        self.database
            .relation(rel)
            .row(row_index as usize, self.database.interner())
    }

    /// The weight of a possible tuple.
    pub fn weight(&self, id: TupleId) -> Weight {
        *self.weights.get(id.index())
    }

    /// The marginal probability `w / (1 + w)` of a possible tuple. May be
    /// negative for translated `NV` tuples.
    pub fn probability(&self, id: TupleId) -> f64 {
        self.weight(id).probability()
    }

    /// The tuple id of a probabilistic row, identified by relation and dense
    /// row index within that relation. Deterministic rows have no id.
    pub fn tuple_id(&self, rel: RelId, row_index: usize) -> Option<TupleId> {
        match self.tuple_ids[rel.index()].get(row_index) {
            Some(&raw) if raw != InDb::NO_TUPLE_ID => Some(TupleId(raw)),
            _ => None,
        }
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
        let idx = self
            .database
            .relation(rel)
            .position(row, self.database.interner())?;
        self.tuple_id(rel, idx)
    }

    /// Iterates over all possible tuples with their ids.
    pub fn tuples(&self) -> impl Iterator<Item = (TupleId, PossibleTuple)> + '_ {
        self.places.iter().zip(self.weights.iter()).enumerate().map(
            |(i, (&(rel, row_index), &weight))| {
                let tuple = PossibleTuple {
                    rel,
                    row_index,
                    weight,
                };
                (TupleId(i as u32), tuple)
            },
        )
    }

    /// Heap bytes of the store: its [`Database`] (dictionary included) and
    /// the per-tuple columns. Parts shared with another snapshot count in
    /// full in each.
    pub fn heap_bytes(&self) -> usize {
        let tuple_ids: usize = self.tuple_ids.iter().map(|c| vec_bytes(c)).sum();
        self.database.heap_bytes()
            + vec_bytes(&self.deterministic)
            + self.places.heap_bytes()
            + self.weights.heap_bytes()
            + vec_bytes(&self.tuple_ids)
            + tuple_ids
    }

    /// Sets the weight of an existing possible tuple in place. Any weight is
    /// accepted (the MarkoView translation writes negative `NV` weights);
    /// callers updating *base* tuples validate with
    /// [`Weight::is_valid_base_weight`] first. The possible-tuple set — and
    /// hence every [`TupleId`] and the underlying [`Database`] version — is
    /// unchanged.
    pub fn set_weight(&mut self, id: TupleId, weight: Weight) {
        self.weights.set(id.index(), weight);
    }

    /// Adds an empty relation to the store, returning its id. The relation
    /// is probabilistic unless `deterministic`; a probabilistic one is
    /// filled with [`InDb::upsert_translated`].
    ///
    /// A store cloned from another and extended this way shares every
    /// relation it did not add — their rows, access paths and dictionary —
    /// with the original, and keeps its tuple ids: the MarkoView translation
    /// adds its `NV` relations to a clone of the base store.
    pub fn add_relation(
        &mut self,
        name: &str,
        attributes: &[&str],
        deterministic: bool,
    ) -> Result<RelId> {
        let id = self.database.add_relation(name, attributes)?;
        self.deterministic.push(deterministic);
        self.tuple_ids.push(Arc::default());
        Ok(id)
    }

    /// Inserts a new possible tuple — or updates the weight of the existing
    /// one when the row is already present — keeping every invariant of the
    /// frozen store (dense [`TupleId`]s, per-relation tuple-id columns).
    /// Returns the id and whether the tuple is new.
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
        let (id, fresh) = self.insert_possible(rel, row, weight)?;
        if !fresh {
            self.set_weight(id, weight);
        }
        Ok((id, fresh))
    }

    /// Inserts a new possible tuple with `weight`, or returns the id of the
    /// existing one (its weight untouched), and whether the tuple is new.
    fn insert_possible(&mut self, rel: RelId, row: Row, weight: Weight) -> Result<(TupleId, bool)> {
        assert!(
            !self.deterministic[rel.index()],
            "weighted tuples must target a probabilistic relation"
        );
        let row_index = self.database.insert(rel, row)?;
        if let Some(id) = self.tuple_id(rel, row_index) {
            return Ok((id, false));
        }
        debug_assert!(
            (self.num_tuples() as u64) < u64::from(InDb::NO_TUPLE_ID),
            "tuple-id space exhausted"
        );
        let id = TupleId(self.num_tuples() as u32);
        self.places.push((rel, row_index as u32));
        self.weights.push(weight);
        let col = Arc::make_mut(&mut self.tuple_ids[rel.index()]);
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
                        .insert(rel_id, row)
                        .expect("schema is shared, arity must match");
                }
            }
        }
        for (id, t) in self.tuples() {
            if in_world(id) {
                world
                    .insert(t.rel, self.tuple_row(id))
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

/// Builder for [`InDb`]: a store under construction, whose deterministic
/// rows get their [`InDb::NO_TUPLE_ID`] column entries at
/// [`InDbBuilder::build`].
#[derive(Debug, Clone, Default)]
pub struct InDbBuilder {
    indb: InDb,
}

impl InDbBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        InDbBuilder::default()
    }

    /// Declares a deterministic relation.
    pub fn deterministic_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        self.indb.add_relation(name, attributes, true)
    }

    /// Declares a probabilistic relation.
    pub fn probabilistic_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        self.indb.add_relation(name, attributes, false)
    }

    /// Inserts a certain fact into a deterministic relation.
    pub fn insert_fact(&mut self, rel: RelId, row: Row) -> Result<usize> {
        assert!(
            self.indb.deterministic[rel.index()],
            "insert_fact must target a deterministic relation"
        );
        self.indb.database.insert(rel, row)
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
        Ok(self.indb.insert_possible(rel, row, weight)?.0)
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
        self.indb.database.relation_id(name)
    }

    /// Access to the partially-built database (e.g. for derived views).
    pub fn database(&self) -> &Database {
        &self.indb.database
    }

    /// Finishes the build.
    pub fn build(mut self) -> InDb {
        let InDb {
            database,
            tuple_ids,
            ..
        } = &mut self.indb;
        for (rel, _) in database.schema().relations() {
            Arc::make_mut(&mut tuple_ids[rel.index()])
                .resize(database.relation(rel).len(), InDb::NO_TUPLE_ID);
        }
        self.indb
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
        assert_eq!(db.tuple_row(TupleId(0)), row(["a"]));
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
    fn tuple_id_agrees_with_the_column_for_every_row() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["x"]).unwrap();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        b.insert_fact(d, row(["c"])).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::ONE).unwrap();
        b.insert_weighted(r, row(["b"]), Weight::ONE).unwrap();
        let mut db = b.build();
        assert_eq!(db.tuple_id_column(d), &[InDb::NO_TUPLE_ID]);
        // Rows added after the build: into a built relation, and into one
        // the built store gained.
        db.upsert_translated(r, row(["z"]), Weight::new(-0.5))
            .unwrap();
        let nv = db.add_relation("NV", &["x"], false).unwrap();
        db.upsert_translated(nv, row(["a"]), Weight::new(2.0))
            .unwrap();
        assert_eq!(db.tuple_id_column(r), &[0, 1, 2]);
        assert_eq!(db.tuple_id_column(nv), &[3]);
        for (rel, _) in db.schema().relations() {
            let column = db.tuple_id_column(rel);
            assert_eq!(column.len(), db.database().relation(rel).len());
            for (i, &raw) in column.iter().enumerate() {
                let expected = db.tuple_id(rel, i).map(|t| t.0);
                assert_eq!(raw, expected.unwrap_or(InDb::NO_TUPLE_ID));
                if let Some(id) = db.tuple_id(rel, i) {
                    let t = db.tuple(id);
                    assert_eq!((t.rel, t.row_index as usize), (rel, i));
                }
            }
        }
        assert_eq!(db.tuple_id(d, 0), None);
        assert_eq!(db.tuple_id(r, 3), None);
    }

    #[test]
    fn an_added_relation_leaves_the_original_store_shared_and_untouched() {
        let base = two_tuple_db();
        let mut ext = base.clone();
        let nv = ext.add_relation("NV", &["x"], false).unwrap();
        let (id, fresh) = ext
            .upsert_translated(nv, row(["a"]), Weight::new(-0.5))
            .unwrap();
        assert!(fresh);
        assert_eq!(id, TupleId(base.num_tuples() as u32));
        assert!(!ext.is_deterministic(nv));
        for (rel, _) in base.schema().relations() {
            assert!(std::sync::Arc::ptr_eq(
                &base.database().relation_arc(rel),
                &ext.database().relation_arc(rel)
            ));
            for i in 0..base.database().relation(rel).len() {
                assert_eq!(base.tuple_id(rel, i), ext.tuple_id(rel, i));
            }
        }
        // The NV row's value was already in the shared dictionary.
        assert!(std::ptr::eq(
            base.database().interner(),
            ext.database().interner()
        ));
        assert!(base.schema().relation_id("NV").is_none());
        assert_eq!(base.num_tuples(), 2);
    }
}
