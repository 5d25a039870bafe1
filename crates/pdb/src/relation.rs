//! Deterministic relation instances.
//!
//! A [`Relation`] stores the rows of one relation with set semantics
//! (duplicate elimination), preserving insertion order so that other crates
//! can assign stable, dense row indices — the per-relation row index is what
//! the tuple-independent layer uses to identify possible tuples.
//!
//! The rows are stored once, as *dictionary-encoded columns*: one
//! `Vec<u32>` of interner codes per attribute, encoded through the
//! database-wide [`ValueInterner`] at insert time. The columnar code arrays
//! are what the compiled query evaluator scans, probes and compares —
//! integer loads instead of `Value` hashing and cloning. A row of
//! [`Value`]s is decoded through the interner only when a caller asks for
//! one, and duplicates are found through a table of row indices hashed on
//! the code tuple.

use std::hash::Hasher;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use fxhash::FxHasher;

use crate::access::{AccessPaths, CsrIndex};
use crate::interner::ValueInterner;
use crate::schema::RelId;
use crate::value::{Row, Value};

/// One relation instance: an ordered, duplicate-free multiset of rows.
///
/// The instance also owns its *derived access paths* — the CSR join index
/// and distinct-code count of each column ([`Relation::csr_index`],
/// [`Relation::distinct_count`]) — the way an index belongs to its table and not to whoever is querying it. Each is
/// built at most once per instance, by whichever context or thread asks
/// first, and handed out as an `Arc` every later caller shares: snapshots
/// that share the `Arc<Relation>` (a [`Database`](crate::Database) clone, a
/// copy-on-write engine clone, every session and server worker) share the
/// structures with it. Inserting a new row empties them and `Clone` never
/// copies them, so a structure reachable from a relation always describes
/// exactly that relation's rows.
///
/// Rows are written only through [`Database::insert`](crate::Database::insert),
/// which owns the dictionary their values are encoded in; every method
/// taking or returning [`Value`]s takes that dictionary as well.
#[derive(Debug, Clone, Default)]
pub struct Relation {
    rel: Option<RelId>,
    len: usize,
    /// Column-major dictionary codes: `columns[c][i]` is the interner code of
    /// attribute `c` of row `i`. Sized lazily from the first inserted row.
    columns: Vec<Vec<u32>>,
    dedup: DedupTable,
    paths: AccessPaths,
}

impl Relation {
    /// An empty relation instance reporting access-path builds to the
    /// owning store's counter.
    pub(crate) fn counted_by(rel: RelId, builds: Arc<AtomicU64>) -> Self {
        Relation {
            rel: Some(rel),
            paths: AccessPaths::counted_by(builds),
            ..Relation::default()
        }
    }

    /// The relation id this instance belongs to.
    pub fn rel_id(&self) -> Option<RelId> {
        self.rel
    }

    /// Appends a row, given as its codes, that the caller has checked is
    /// absent ([`Relation::position_codes`]), emptying the derived access
    /// paths. Returns its dense index.
    pub(crate) fn push_codes(&mut self, codes: &[u32]) -> usize {
        debug_assert!(self.position_codes(codes).is_none(), "row already present");
        self.paths.clear();
        if self.columns.is_empty() && !codes.is_empty() {
            self.columns = vec![Vec::new(); codes.len()];
        }
        debug_assert_eq!(self.columns.len(), codes.len(), "arity must be stable");
        for (column, &code) in self.columns.iter_mut().zip(codes) {
            column.push(code);
        }
        let row = self.len;
        assert!(
            row < DedupTable::EMPTY as usize,
            "relation overflow: 2^32 - 1 rows"
        );
        self.len += 1;
        let columns = &self.columns;
        self.dedup
            .insert(row, hash_codes(codes.iter().copied()), |r| {
                hash_codes(columns.iter().map(|column| column[r]))
            });
        row
    }

    /// The dense index of the row with these dictionary codes, if present.
    /// A code tuple of the wrong arity matches nothing.
    pub fn position_codes(&self, codes: &[u32]) -> Option<usize> {
        if self.len == 0 || codes.len() != self.columns.len() {
            return None;
        }
        self.dedup.find(hash_codes(codes.iter().copied()), |row| {
            self.columns
                .iter()
                .zip(codes)
                .all(|(column, &code)| column[row] == code)
        })
    }

    /// The dense index of a row, if present. A row of the wrong arity, or
    /// with a value `interner` lacks, is absent.
    pub fn position(&self, row: &[Value], interner: &ValueInterner) -> Option<usize> {
        let codes: Vec<u32> = row
            .iter()
            .map(|value| interner.code_of(value))
            .collect::<Option<_>>()?;
        self.position_codes(&codes)
    }

    /// `true` when the relation contains the row.
    pub fn contains(&self, row: &[Value], interner: &ValueInterner) -> bool {
        self.position(row, interner).is_some()
    }

    /// The row stored at a dense index, decoded through `interner`. Panics
    /// when the index is out of range.
    pub fn row(&self, index: usize, interner: &ValueInterner) -> Row {
        assert!(
            index < self.len,
            "row {index} of a relation with {} rows",
            self.len
        );
        self.columns
            .iter()
            .map(|column| interner.value(column[index]).clone())
            .collect()
    }

    /// All rows in insertion order, each decoded on demand.
    pub fn rows<'a>(
        &'a self,
        interner: &'a ValueInterner,
    ) -> impl ExactSizeIterator<Item = Row> + 'a {
        (0..self.len).map(move |i| self.row(i, interner))
    }

    /// Iterates over `(row_index, row)` pairs, each row decoded on demand.
    pub fn iter<'a>(
        &'a self,
        interner: &'a ValueInterner,
    ) -> impl Iterator<Item = (usize, Row)> + 'a {
        self.rows(interner).enumerate()
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

    /// Heap bytes of the stored rows: the code columns and the dedup table
    /// (capacities, not lengths). The derived access paths are not counted.
    pub fn heap_bytes(&self) -> usize {
        let columns: usize = self.columns.iter().map(vec_bytes).sum();
        vec_bytes(&self.columns) + columns + vec_bytes(&self.dedup.slots)
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the relation holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
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

/// Heap bytes a vector holds (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// FxHash of a code tuple (zero for the empty tuple).
fn hash_codes(codes: impl Iterator<Item = u32>) -> u64 {
    let mut hasher = FxHasher::default();
    for code in codes {
        hasher.write_u32(code);
    }
    hasher.finish()
}

/// The duplicate check of a [`Relation`]: an open-addressed table of row
/// indices, at most half full and probed linearly. It holds no values of
/// its own — a probe compares the candidate row's codes column by column.
#[derive(Debug, Clone, Default)]
struct DedupTable {
    /// Row indices, [`DedupTable::EMPTY`] in a free slot. The length is a
    /// power of two, or zero before the first row.
    slots: Vec<u32>,
}

impl DedupTable {
    const EMPTY: u32 = u32::MAX;
    const MIN_SLOTS: usize = 8;

    /// The first slot probed for `hash`: its high bits, which Fx's final
    /// multiply mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The row hashing to `hash` that `same` accepts, if any.
    fn find(&self, hash: u64, same: impl Fn(usize) -> bool) -> Option<usize> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                DedupTable::EMPTY => return None,
                row if same(row as usize) => return Some(row as usize),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records `row` — the next row index, absent so far — under `hash`,
    /// first doubling the table if that would fill more than half of it;
    /// `rehash` gives the hash of each earlier row then.
    fn insert(&mut self, row: usize, hash: u64, rehash: impl Fn(usize) -> u64) {
        if (row + 1) * 2 > self.slots.len() {
            let size = (self.slots.len() * 2).max(DedupTable::MIN_SLOTS);
            self.slots = vec![DedupTable::EMPTY; size];
            for earlier in 0..row {
                self.place(earlier, rehash(earlier));
            }
        }
        self.place(row, hash);
    }

    fn place(&mut self, row: usize, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != DedupTable::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = row as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::Database;
    use crate::value::row;

    /// A store with one binary relation `R`, and its id.
    fn binary() -> (Database, RelId) {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a", "b"]).unwrap();
        (db, r)
    }

    #[test]
    fn insert_deduplicates_and_assigns_dense_indices() {
        let (mut db, r) = binary();
        let a = db.insert(r, row([1i64, 2])).unwrap();
        let b = db.insert(r, row([3i64, 4])).unwrap();
        let a_again = db.insert(r, row([1i64, 2])).unwrap();
        assert_eq!((a, b, a_again), (0, 1, 0));
        let (rel, interner) = (db.relation(r), db.interner());
        assert_eq!(rel.len(), 2);
        assert!(rel.contains(&row([3i64, 4]), interner));
        assert!(!rel.contains(&row([9i64, 9]), interner));
        // Known values in a combination the relation lacks.
        assert!(!rel.contains(&row([1i64, 4]), interner));
        assert_eq!(rel.position(&row([3i64, 4]), interner), Some(1));
        assert_eq!(rel.row(1, interner), row([3i64, 4]));
    }

    #[test]
    fn columnar_codes_mirror_the_row_store() {
        let (mut db, r) = binary();
        db.insert(r, row([1i64, 10])).unwrap();
        db.insert(r, row([2i64, 10])).unwrap();
        db.insert(r, row([1i64, 20])).unwrap();
        let (rel, interner) = (db.relation(r), db.interner());
        assert_eq!(rel.column_codes(0).len(), 3);
        assert_eq!(rel.column_codes(1).len(), 3);
        for (i, r) in rel.iter(interner) {
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
        let (mut db, r) = binary();
        db.insert(r, row([1i64, 10])).unwrap();
        db.insert(r, row([2i64, 10])).unwrap();
        db.insert(r, row([1i64, 20])).unwrap();
        let (rel, interner) = (db.relation(r), db.interner());
        assert_eq!(
            rel.column_values(0, interner),
            vec![Value::int(1), Value::int(2)]
        );
        assert_eq!(
            rel.column_values(1, interner),
            vec![Value::int(10), Value::int(20)]
        );
    }

    #[test]
    fn access_paths_are_built_once_emptied_on_insert_and_never_cloned() {
        let (mut db, r) = binary();
        // Before the first row there are no columns: nothing is cached.
        assert!(db.relation(r).csr_index(0).probe(0).is_empty());
        assert_eq!(db.relation(r).distinct_count(0), 0);
        for i in 0..10i64 {
            db.insert(r, row([i % 3, i])).unwrap();
        }
        let rel = db.relation(r);
        let csr = rel.csr_index(0);
        assert_eq!(csr.probe(rel.code_at(0, 0)), &[0, 3, 6, 9]);
        assert!(Arc::ptr_eq(&csr, &rel.csr_index(0)));
        assert!(!Arc::ptr_eq(&csr, &rel.csr_index(1)));
        assert_eq!((rel.distinct_count(0), rel.distinct_count(1)), (3, 10));
        // Out-of-range columns read as empty, like `column_codes`.
        assert!(rel.csr_index(7).probe(0).is_empty());
        assert_eq!(rel.distinct_count(7), 0);

        // A clone starts without them; a duplicate insert keeps them; a new
        // row empties them, and the rebuilt ones see it.
        assert!(!Arc::ptr_eq(&csr, &rel.clone().csr_index(0)));
        db.insert(r, row([0i64, 0])).unwrap();
        assert!(Arc::ptr_eq(&csr, &db.relation(r).csr_index(0)));
        db.insert(r, row([0i64, 10])).unwrap();
        let rel = db.relation(r);
        assert!(!Arc::ptr_eq(&csr, &rel.csr_index(0)));
        assert_eq!(rel.csr_index(0).probe(rel.code_at(0, 0)), &[0, 3, 6, 9, 10]);
        assert_eq!(rel.distinct_count(1), 11);
        // The handle taken earlier still describes the rows it was built on.
        assert_eq!(csr.probe(rel.code_at(0, 0)), &[0, 3, 6, 9]);
    }

    #[test]
    fn racing_first_uses_build_one_instance() {
        let (mut db, r) = binary();
        for i in 0..1000i64 {
            db.insert(r, row([i % 17, i])).unwrap();
        }
        let rel = db.relation(r);
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
        let mut db = Database::new();
        db.add_relation("P", &["x"]).unwrap();
        db.add_relation("Q", &["x"]).unwrap();
        let t = db.add_relation("T", &["x"]).unwrap();
        let rel = db.relation(t);
        assert!(rel.is_empty());
        assert_eq!(rel.rel_id(), Some(RelId(2)));
        assert_eq!(rel.iter(db.interner()).count(), 0);
        assert!(rel.column_codes(0).is_empty());
        assert_eq!(rel.position_codes(&[]), None);
        assert_eq!(rel.heap_bytes(), 0);
    }

    #[test]
    fn the_dedup_table_grows_and_keeps_every_row_findable() {
        let (mut db, r) = binary();
        for i in 0..5000i64 {
            assert_eq!(db.insert(r, row([i % 7, i / 7])).unwrap(), i as usize);
        }
        let rel = db.relation(r);
        assert_eq!(rel.dedup.slots.len(), 16384);
        for i in 0..5000usize {
            let codes = [rel.code_at(i, 0), rel.code_at(i, 1)];
            assert_eq!(rel.position_codes(&codes), Some(i));
        }
        // Swapped columns are another row: (714, 1) was never inserted.
        let codes = [rel.code_at(4999, 1), rel.code_at(4999, 0)];
        assert_eq!(rel.position_codes(&codes), None);
    }
}
