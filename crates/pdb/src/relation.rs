//! Deterministic relation instances.
//!
//! A [`Relation`] stores the rows of one relation with set semantics
//! (duplicate elimination), preserving insertion order so that other crates
//! can assign stable, dense row indices — the per-relation row index is what
//! the tuple-independent layer uses to identify possible tuples.
//!
//! Alongside the row-major `Vec<Row>` store, every relation keeps
//! *dictionary-encoded columns*: one `Vec<u32>` of interner codes per
//! attribute, filled through the database-wide
//! [`ValueInterner`] at insert time. The
//! columnar code arrays are what the compiled query evaluator scans, probes
//! and compares — integer loads instead of `Value` hashing and cloning.

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::access::{AccessPaths, CsrIndex, PairIndex};
use crate::interner::ValueInterner;
use crate::schema::RelId;
use crate::value::{Row, Value};

/// One relation instance: an ordered, duplicate-free multiset of rows.
///
/// The instance also owns its *derived access paths* — the CSR join index
/// and distinct-code count of each column and the composite index of each
/// column pair ([`Relation::csr_index`] and friends) — the way
/// an index belongs to its table and not to whoever is querying it. Each is
/// built at most once per instance, by whichever context or thread asks
/// first, and handed out as an `Arc` every later caller shares: snapshots
/// that share the `Arc<Relation>` (a [`Database`](crate::Database) clone, a
/// copy-on-write engine clone, every session and server worker) share the
/// structures with it. [`Relation::insert`] of a new row empties them and
/// `Clone` never copies them, so a structure reachable from a relation
/// always describes exactly that relation's rows.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    rel: Option<RelId>,
    rows: Vec<Row>,
    index: HashMap<Row, usize>,
    /// Column-major dictionary codes: `columns[c][i]` is the interner code of
    /// `rows[i][c]`. Sized lazily from the first inserted row.
    columns: Vec<Vec<u32>>,
    paths: AccessPaths,
}

impl Relation {
    /// Creates an empty relation instance for the given relation id.
    pub fn new(rel: RelId) -> Self {
        Relation::counted_by(rel, Arc::default())
    }

    /// Like [`Relation::new`], reporting access-path builds to the owning
    /// store's counter.
    pub(crate) fn counted_by(rel: RelId, builds: Arc<AtomicU64>) -> Self {
        Relation {
            rel: Some(rel),
            paths: AccessPaths::counted_by(builds),
            ..Relation::default()
        }
    }

    /// The relation id this instance belongs to, if it was created through
    /// [`Relation::new`].
    pub fn rel_id(&self) -> Option<RelId> {
        self.rel
    }

    /// Inserts a row, returning its dense index; the row's values are
    /// interned into `interner` and their codes appended to the columnar
    /// store. Inserting a duplicate row returns the index of the existing
    /// copy.
    pub fn insert(&mut self, row: Row, interner: &mut ValueInterner) -> usize {
        match self.position(&row) {
            Some(i) => i,
            None => self.push_new(row, |value| interner.intern(value)),
        }
    }

    /// Appends a row the caller has checked is absent, emptying the derived
    /// access paths. `encode` gives each value's dictionary code, so a
    /// caller whose dictionary already holds every value can read it
    /// without taking it mutably.
    pub(crate) fn push_new(&mut self, row: Row, mut encode: impl FnMut(&Value) -> u32) -> usize {
        self.paths.clear();
        if self.columns.is_empty() && !row.is_empty() {
            self.columns = vec![Vec::new(); row.len()];
        }
        debug_assert_eq!(self.columns.len(), row.len(), "arity must be stable");
        for (column, value) in self.columns.iter_mut().zip(row.iter()) {
            column.push(encode(value));
        }
        let i = self.rows.len();
        self.index.insert(row.clone(), i);
        self.rows.push(row);
        i
    }

    /// `true` when the relation contains the row.
    pub fn contains(&self, row: &[Value]) -> bool {
        self.index.contains_key(row)
    }

    /// The dense index of a row, if present.
    pub fn position(&self, row: &[Value]) -> Option<usize> {
        self.index.get(row).copied()
    }

    /// The row stored at a dense index.
    pub fn row(&self, index: usize) -> &Row {
        &self.rows[index]
    }

    /// All rows in insertion order.
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// The dictionary codes of one column, aligned with row indices. Empty
    /// when the relation has no rows (or the column is out of range).
    pub fn column_codes(&self, column: usize) -> &[u32] {
        self.columns.get(column).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The dictionary code stored at `(row, column)` — a plain array load.
    #[inline]
    pub fn code_at(&self, row: usize, column: usize) -> u32 {
        self.columns[column][row]
    }

    /// Number of dictionary-encoded columns (zero until the first non-empty
    /// row is inserted — the columnar store is sized lazily).
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// The CSR join index of a column, built on first use (an empty index
    /// for a column the relation does not have).
    pub fn csr_index(&self, column: usize) -> Arc<CsrIndex> {
        let build = || Arc::new(CsrIndex::build(self.column_codes(column)));
        match self.paths.cells(self.columns.len()).csr.get(column) {
            Some(cell) => self.paths.once(cell, build),
            None => build(),
        }
    }

    /// The composite join index of an ordered column pair, built on first
    /// use. Panics when either column is out of range.
    pub fn pair_index(&self, col_a: usize, col_b: usize) -> Arc<PairIndex> {
        let (a, b) = (&self.columns[col_a], &self.columns[col_b]);
        let arity = self.columns.len();
        let cell = &self.paths.cells(arity).pairs[col_a * arity + col_b];
        self.paths.once(cell, || Arc::new(PairIndex::build(a, b)))
    }

    /// Number of distinct codes in a column, counted on first use — a
    /// selectivity estimate (more distinct codes → shorter expected posting
    /// lists). Zero for a column the relation does not have.
    pub fn distinct_count(&self, column: usize) -> usize {
        let cells = self.paths.cells(self.columns.len());
        let count =
            || fxhash::FxHashSet::from_iter(self.column_codes(column).iter().copied()).len();
        cells
            .distinct
            .get(column)
            .map_or(0, |cell| self.paths.once(cell, count))
    }

    /// How many derived access paths this instance holds — each one was
    /// counted once, when built, by the owning store's
    /// [`Database::access_path_builds`](crate::Database::access_path_builds).
    /// Test support: snapshots sharing a relation share one build counter,
    /// so tests attribute builds to relation instances through this.
    #[doc(hidden)]
    pub fn access_paths_built(&self) -> usize {
        self.paths.built()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over `(row_index, row)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &Row)> {
        self.rows.iter().enumerate()
    }

    /// The distinct dictionary codes appearing in the given column, in
    /// first-appearance (row) order. Deduplication happens on the integer
    /// codes — no `Value` is hashed or cloned. Empty when the column has no
    /// codes (zero-arity or out-of-range columns).
    pub fn distinct_codes(&self, column: usize) -> Vec<u32> {
        let mut seen = fxhash::FxHashSet::default();
        self.column_codes(column)
            .iter()
            .copied()
            .filter(|&code| seen.insert(code))
            .collect()
    }

    /// All distinct values appearing in the given column, in row order:
    /// [`Relation::distinct_codes`] decoded through the store's `interner`.
    pub fn column_values(&self, column: usize, interner: &ValueInterner) -> Vec<Value> {
        self.distinct_codes(column)
            .into_iter()
            .map(|code| interner.value(code).clone())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::row;

    #[test]
    fn insert_deduplicates_and_assigns_dense_indices() {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        let a = rel.insert(row([1i64, 2]), &mut interner);
        let b = rel.insert(row([3i64, 4]), &mut interner);
        let a_again = rel.insert(row([1i64, 2]), &mut interner);
        assert_eq!(a, 0);
        assert_eq!(b, 1);
        assert_eq!(a_again, 0);
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&row([3i64, 4])));
        assert!(!rel.contains(&row([9i64, 9])));
        assert_eq!(rel.position(&row([3i64, 4])), Some(1));
        assert_eq!(rel.row(1), &row([3i64, 4]));
    }

    #[test]
    fn columnar_codes_mirror_the_row_store() {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        rel.insert(row([1i64, 10]), &mut interner);
        rel.insert(row([2i64, 10]), &mut interner);
        rel.insert(row([1i64, 20]), &mut interner);
        assert_eq!(rel.column_codes(0).len(), 3);
        assert_eq!(rel.column_codes(1).len(), 3);
        for (i, r) in rel.iter() {
            for (c, v) in r.iter().enumerate() {
                assert_eq!(interner.value(rel.code_at(i, c)), v);
            }
        }
        // Equal values share a code; distinct values do not.
        assert_eq!(rel.code_at(0, 1), rel.code_at(1, 1));
        assert_ne!(rel.code_at(0, 0), rel.code_at(1, 0));
        // Out-of-range columns read as empty, not a panic.
        assert!(rel.column_codes(7).is_empty());
    }

    #[test]
    fn column_values_returns_distinct_values_in_order() {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        rel.insert(row([1i64, 10]), &mut interner);
        rel.insert(row([2i64, 10]), &mut interner);
        rel.insert(row([1i64, 20]), &mut interner);
        assert_eq!(
            rel.column_values(0, &interner),
            vec![Value::int(1), Value::int(2)]
        );
        assert_eq!(
            rel.column_values(1, &interner),
            vec![Value::int(10), Value::int(20)]
        );
    }

    #[test]
    fn access_paths_are_built_once_emptied_on_insert_and_never_cloned() {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        // Before the first row there are no columns: nothing is cached.
        assert!(rel.csr_index(0).probe(0).is_empty());
        assert_eq!(rel.distinct_count(0), 0);
        for i in 0..10i64 {
            rel.insert(row([i % 3, i]), &mut interner);
        }
        let csr = rel.csr_index(0);
        assert_eq!(csr.probe(rel.code_at(0, 0)), &[0, 3, 6, 9]);
        assert!(Arc::ptr_eq(&csr, &rel.csr_index(0)));
        assert!(!Arc::ptr_eq(&csr, &rel.csr_index(1)));
        let pair = rel.pair_index(0, 1);
        assert_eq!(pair.probe(rel.code_at(4, 0), rel.code_at(4, 1)), &[4]);
        assert!(Arc::ptr_eq(&pair, &rel.pair_index(0, 1)));
        assert!(!Arc::ptr_eq(&pair, &rel.pair_index(1, 0)));
        assert_eq!((rel.distinct_count(0), rel.distinct_count(1)), (3, 10));
        // Out-of-range columns read as empty, like `column_codes`.
        assert!(rel.csr_index(7).probe(0).is_empty());
        assert_eq!(rel.distinct_count(7), 0);

        // A clone starts without them; a duplicate insert keeps them; a new
        // row empties them, and the rebuilt ones see it.
        assert!(!Arc::ptr_eq(&csr, &rel.clone().csr_index(0)));
        rel.insert(row([0i64, 0]), &mut interner);
        assert!(Arc::ptr_eq(&csr, &rel.csr_index(0)));
        rel.insert(row([0i64, 10]), &mut interner);
        assert!(!Arc::ptr_eq(&csr, &rel.csr_index(0)));
        assert_eq!(rel.csr_index(0).probe(rel.code_at(0, 0)), &[0, 3, 6, 9, 10]);
        assert_eq!(rel.distinct_count(1), 11);
        // The handle taken earlier still describes the rows it was built on.
        assert_eq!(csr.probe(rel.code_at(0, 0)), &[0, 3, 6, 9]);
    }

    #[test]
    fn racing_first_uses_build_one_instance() {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        for i in 0..1000i64 {
            rel.insert(row([i % 17, i]), &mut interner);
        }
        let barrier = std::sync::Barrier::new(8);
        let handles: Vec<Arc<CsrIndex>> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        rel.csr_index(0)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert!(handles.iter().all(|h| Arc::ptr_eq(h, &handles[0])));
    }

    #[test]
    fn empty_relation_reports_empty() {
        let rel = Relation::new(RelId(3));
        assert!(rel.is_empty());
        assert_eq!(rel.rel_id(), Some(RelId(3)));
        assert_eq!(rel.iter().count(), 0);
        assert!(rel.column_codes(0).is_empty());
    }
}
