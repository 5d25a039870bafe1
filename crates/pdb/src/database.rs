//! Deterministic database instances.
//!
//! A [`Database`] pairs a [`Schema`] with one [`Relation`] instance per
//! relation. It plays two roles in the workspace:
//!
//! * the deterministic tables of an MVDB (Author, Wrote, Pub, … in Fig. 1);
//! * the instance `I_poss` of *all possible tuples* against which MarkoViews
//!   are materialised and query lineage is computed (Section 2.4).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::interner::ValueInterner;
use crate::relation::Relation;
use crate::schema::{RelId, Schema};
use crate::value::{Row, Value};
use crate::{PdbError, Result};

/// Process-wide source of store version stamps. Every mutation of any
/// [`Database`] draws a fresh stamp, so two databases with different contents
/// can never share a version. (Derived access paths need no stamp: they live
/// in the [`Relation`] instance they describe.)
static NEXT_VERSION: AtomicU64 = AtomicU64::new(1);

fn fresh_version() -> u64 {
    NEXT_VERSION.fetch_add(1, Ordering::Relaxed)
}

/// A deterministic database: a schema plus an instance for every relation,
/// sharing one database-wide [`ValueInterner`] so that dictionary codes are
/// comparable across relations (a join key hashes and compares as a `u32`).
///
/// Relations and the interner sit behind [`Arc`]s: cloning a database for a
/// new snapshot is O(#relations), and a mutation copies only the relation it
/// touches (copy-on-write). The interner is append-only, so codes taken
/// against an old snapshot never dangle in a newer one. The derived access
/// paths live inside each [`Relation`], so every snapshot sharing a relation
/// shares its indexes too.
#[derive(Debug, Clone)]
pub struct Database {
    schema: Schema,
    relations: Vec<Arc<Relation>>,
    interner: Arc<ValueInterner>,
    /// Store version stamp: equal stamps imply equal content (the converse
    /// does not hold — clones share a stamp until one side mutates).
    version: u64,
    /// Access paths built by the relations of this store and of every
    /// snapshot cloned from it.
    path_builds: Arc<AtomicU64>,
}

impl Default for Database {
    fn default() -> Self {
        Database::with_schema(Schema::default())
    }
}

impl Database {
    /// Creates an empty database with an empty schema.
    pub fn new() -> Self {
        Database::default()
    }

    /// Creates a database over an existing schema, with empty instances.
    pub fn with_schema(schema: Schema) -> Self {
        let path_builds = Arc::<AtomicU64>::default();
        let relations = schema
            .relations()
            .map(|(id, _)| Arc::new(Relation::counted_by(id, Arc::clone(&path_builds))))
            .collect();
        Database {
            schema,
            relations,
            interner: Arc::new(ValueInterner::new()),
            version: fresh_version(),
            path_builds,
        }
    }

    /// The store version stamp. Bumped (to a globally fresh value) by every
    /// mutation that changes content; stable across clones and reads.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Restamps this database with a globally fresh version. Called by every
    /// content mutation; public so owners embedding a `Database` in a larger
    /// versioned store can mark a change of their own.
    pub fn touch(&mut self) {
        self.version = fresh_version();
    }

    /// How many derived access paths (CSR and pair indexes, distinct
    /// counts) the relations of this store and of every snapshot
    /// cloned from it have built. Queries that find theirs do not move it.
    pub fn access_path_builds(&self) -> u64 {
        self.path_builds.load(Ordering::Relaxed)
    }

    /// The schema of this database.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The database-wide value dictionary. Codes are shared by every
    /// relation, so equality of codes is equality of values across the whole
    /// database.
    pub fn interner(&self) -> &ValueInterner {
        &self.interner
    }

    /// Adds a relation to the schema and returns its id.
    pub fn add_relation(&mut self, name: &str, attributes: &[&str]) -> Result<RelId> {
        let id = self.schema.add_relation(name, attributes)?;
        let builds = Arc::clone(&self.path_builds);
        self.relations
            .push(Arc::new(Relation::counted_by(id, builds)));
        self.touch();
        Ok(id)
    }

    /// Looks up a relation id by name, failing if it does not exist.
    pub fn relation_id(&self, name: &str) -> Result<RelId> {
        self.schema.require(name)
    }

    /// Inserts a row into a relation identified by id, returning its dense
    /// row index within that relation.
    pub fn insert(&mut self, rel: RelId, row: Row) -> Result<usize> {
        let arity = self.schema.relation(rel).arity();
        if row.len() != arity {
            return Err(PdbError::ArityMismatch {
                relation: self.schema.relation(rel).name().to_string(),
                expected: arity,
                actual: row.len(),
            });
        }
        // A duplicate changes nothing: look before `make_mut`, which would
        // deep-copy a shared relation and interner (and drop the copy's
        // access paths) for a row that is already there.
        if let Some(index) = self.relations[rel.index()].position(&row) {
            return Ok(index);
        }
        let relation = Arc::make_mut(&mut self.relations[rel.index()]);
        let index = relation.push_new(row, Arc::make_mut(&mut self.interner));
        self.touch();
        Ok(index)
    }

    /// Inserts a row into a relation identified by name.
    pub fn insert_by_name(&mut self, name: &str, row: Row) -> Result<usize> {
        let rel = self.relation_id(name)?;
        self.insert(rel, row)
    }

    /// The instance of a relation.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel.index()]
    }

    /// A shared handle on the instance of a relation: cloning it is O(1)
    /// (copy-on-write snapshots hold these across versions).
    pub fn relation_arc(&self, rel: RelId) -> Arc<Relation> {
        Arc::clone(&self.relations[rel.index()])
    }

    /// The instance of a relation, by name.
    pub fn relation_by_name(&self, name: &str) -> Result<&Relation> {
        Ok(self.relation(self.relation_id(name)?))
    }

    /// All rows of a relation.
    pub fn rows(&self, rel: RelId) -> &[Row] {
        self.relations[rel.index()].rows()
    }

    /// `true` when the relation contains the given row.
    pub fn contains(&self, rel: RelId, row: &[Value]) -> bool {
        self.relations[rel.index()].contains(row)
    }

    /// Total number of rows across all relations.
    pub fn total_rows(&self) -> usize {
        self.relations.iter().map(|r| r.len()).sum()
    }

    /// The *ordered active domain*: every constant appearing anywhere in the
    /// database, sorted and de-duplicated. This is the domain used by the
    /// OBDD variable order of Section 4.2 and by MLN grounding.
    pub fn active_domain(&self) -> Vec<Value> {
        let mut domain: Vec<Value> = self
            .relations
            .iter()
            .flat_map(|r| r.rows().iter().flatten().cloned())
            .collect();
        domain.sort();
        domain.dedup();
        domain
    }

    /// The active domain restricted to the given column of the given relation.
    ///
    /// Computed over the dictionary-encoded column: codes are deduplicated
    /// as integers and only the distinct survivors are decoded, so wide
    /// separator-domain computations (safe plans, the ConOBDD construction)
    /// never hash or clone per row.
    pub fn column_domain(&self, rel: RelId, column: usize) -> Vec<Value> {
        let mut vals = self.relations[rel.index()].column_values(column, &self.interner);
        // Code order is first-appearance order, not value order.
        vals.sort();
        vals
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    fn sample() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a"]).unwrap();
        let s = db.add_relation("S", &["a", "b"]).unwrap();
        db.insert(r, row([1i64])).unwrap();
        db.insert(r, row([2i64])).unwrap();
        db.insert(s, row([1i64, 10])).unwrap();
        db.insert(s, row([2i64, 20])).unwrap();
        db.insert(s, row([2i64, 30])).unwrap();
        db
    }

    #[test]
    fn insert_and_scan() {
        let db = sample();
        let s = db.relation_id("S").unwrap();
        assert_eq!(db.rows(s).len(), 3);
        assert!(db.contains(s, &row([2i64, 20])));
        assert!(!db.contains(s, &row([2i64, 99])));
        assert_eq!(db.total_rows(), 5);
    }

    #[test]
    fn arity_is_checked() {
        let mut db = sample();
        let r = db.relation_id("R").unwrap();
        let err = db.insert(r, row([1i64, 2])).unwrap_err();
        assert!(matches!(err, PdbError::ArityMismatch { .. }));
    }

    #[test]
    fn active_domain_is_sorted_and_unique() {
        let db = sample();
        let dom = db.active_domain();
        assert_eq!(
            dom,
            vec![
                Value::int(1),
                Value::int(2),
                Value::int(10),
                Value::int(20),
                Value::int(30)
            ]
        );
    }

    #[test]
    fn column_domain_restricts_to_one_column() {
        let db = sample();
        let s = db.relation_id("S").unwrap();
        assert_eq!(db.column_domain(s, 0), vec![Value::int(1), Value::int(2)]);
    }

    #[test]
    fn with_schema_creates_empty_instances() {
        let mut schema = Schema::new();
        schema.add_relation("T", &["x"]).unwrap();
        let db = Database::with_schema(schema);
        let t = db.relation_id("T").unwrap();
        assert!(db.rows(t).is_empty());
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let db = sample();
        assert!(db.relation_by_name("Nope").is_err());
    }

    #[test]
    fn version_survives_clone_and_bumps_on_mutation() {
        let db = sample();
        let mut dup = db.clone();
        assert_eq!(db.version(), dup.version());
        let r = dup.relation_id("R").unwrap();
        dup.insert(r, row([7i64])).unwrap();
        assert_ne!(db.version(), dup.version());
        // Copy-on-write: the original snapshot is untouched.
        assert_eq!(db.rows(r).len(), 2);
        assert_eq!(dup.rows(r).len(), 3);
    }

    #[test]
    fn duplicate_insert_keeps_the_version() {
        let mut db = sample();
        let r = db.relation_id("R").unwrap();
        let before = db.version();
        let idx = db.insert(r, row([1i64])).unwrap();
        assert_eq!(idx, 0);
        assert_eq!(db.version(), before);
    }

    #[test]
    fn duplicate_insert_into_a_clone_copies_nothing() {
        // Regression: `make_mut` ran before the duplicate check, deep-copying
        // the shared relation and interner for a row that was already there.
        let db = sample();
        let s = db.relation_id("S").unwrap();
        let csr = db.relation(s).csr_index(0);
        let mut dup = db.clone();
        assert_eq!(dup.insert(s, row([2i64, 20])).unwrap(), 1);
        assert!(Arc::ptr_eq(&db.relation_arc(s), &dup.relation_arc(s)));
        assert!(Arc::ptr_eq(&db.interner, &dup.interner));
        assert!(Arc::ptr_eq(&dup.relation(s).csr_index(0), &csr));
        assert_eq!(dup.version(), db.version());
        // A new row does copy — the written relation only — and restamps.
        dup.insert(s, row([3i64, 40])).unwrap();
        assert!(!Arc::ptr_eq(&db.relation_arc(s), &dup.relation_arc(s)));
        let r = db.relation_id("R").unwrap();
        assert!(Arc::ptr_eq(&db.relation_arc(r), &dup.relation_arc(r)));
        assert_ne!(dup.version(), db.version());
        assert_eq!(db.rows(s).len(), 3);
    }

    #[test]
    fn access_path_builds_count_once_per_relation_instance() {
        let db = sample();
        let s = db.relation_id("S").unwrap();
        assert_eq!(db.access_path_builds(), 0);
        for _ in 0..3 {
            db.relation(s).csr_index(0);
            db.relation(s).pair_index(0, 1);
            db.relation(s).distinct_count(1);
        }
        assert_eq!(db.access_path_builds(), 3);
        // A snapshot shares the instances, so it shares the counter too.
        let mut dup = db.clone();
        dup.relation(s).csr_index(0);
        assert_eq!(dup.access_path_builds(), 3);
        dup.insert(s, row([9i64, 9])).unwrap();
        dup.relation(s).csr_index(0);
        assert_eq!(dup.access_path_builds(), 4);
        assert_eq!(db.access_path_builds(), 4);
    }

    #[test]
    fn fresh_databases_never_share_a_version() {
        assert_ne!(Database::new().version(), Database::new().version());
    }
}
