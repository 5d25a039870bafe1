//! Join indexes over the dictionary-encoded columns, and the per-relation
//! holder of every derived access path.
//!
//! * [`CsrIndex`]: posting lists of one column flattened into CSR form.
//!   When the code domain is small relative to the build side, `offsets` is
//!   indexed *directly by code* — a probe is two array loads, no hashing.
//!   Otherwise the build side is hash-partitioned, growing the partition
//!   count (robust-join style) until every partition's key list fits a
//!   cache-friendly budget; a probe hashes its key **once**.
//! * [`PairIndex`]: a composite index over an ordered column pair, for
//!   probe steps that arrive with two columns bound.
//! * `AccessPaths`: the once-cells a [`Relation`](crate::Relation) keeps
//!   them in (see its docs for the ownership invariant).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use fxhash::FxHashMap;

/// Dense-layout budget of [`CsrIndex::build`]: the offsets array may be
/// directly code-indexed as long as the code domain is at most this factor
/// of the build side (plus slack for small relations).
const DENSE_DOMAIN_FACTOR: usize = 8;
const DENSE_DOMAIN_SLACK: usize = 4096;

/// Partitioned-layout budget: maximum distinct keys per partition before the
/// partition count doubles.
const PARTITION_KEY_BUDGET: usize = 48;

#[inline]
fn mix(code: u32) -> u32 {
    code.wrapping_mul(0x9E37_79B9)
}

/// A join index over one dictionary-encoded column with posting lists
/// flattened into CSR form: `offsets` plus one dense `Vec<u32>` of row
/// positions, ascending within each key.
#[derive(Debug)]
pub struct CsrIndex {
    kind: CsrKind,
}

#[derive(Debug)]
enum CsrKind {
    /// `offsets` is indexed directly by code: the postings of `code` are
    /// `rows[offsets[code]..offsets[code + 1]]`. Probing is two array loads.
    Dense { offsets: Vec<u32>, rows: Vec<u32> },
    /// Hash-partitioned fallback for sparse code domains. `part_offsets`
    /// groups `keys` (and the parallel `key_offsets`) by partition; a probe
    /// hashes once, picks `hash >> shift` and scans that partition's short
    /// key list.
    Partitioned {
        shift: u32,
        part_offsets: Vec<u32>,
        keys: Vec<u32>,
        key_offsets: Vec<u32>,
        rows: Vec<u32>,
    },
}

impl CsrIndex {
    /// Builds the index over a column's code array with the production
    /// budgets.
    pub fn build(codes: &[u32]) -> CsrIndex {
        CsrIndex::build_with_budgets(
            codes,
            DENSE_DOMAIN_FACTOR
                .saturating_mul(codes.len())
                .saturating_add(DENSE_DOMAIN_SLACK),
            PARTITION_KEY_BUDGET,
        )
    }

    /// Builds the index with explicit budgets (tests exercise the
    /// partitioned fallback and its growth loop through small budgets).
    pub fn build_with_budgets(
        codes: &[u32],
        dense_domain_budget: usize,
        partition_key_budget: usize,
    ) -> CsrIndex {
        let max_code = codes.iter().copied().max();
        let domain = max_code.map_or(0, |m| m as usize + 1);
        if domain <= dense_domain_budget {
            return CsrIndex::build_dense(codes, domain);
        }
        CsrIndex::build_partitioned(codes, partition_key_budget.max(1))
    }

    /// Stable counting sort of row positions by code: rows stay ascending
    /// within each key, so a probe enumerates its rows in the order a scan
    /// filtering on the key would.
    fn build_dense(codes: &[u32], domain: usize) -> CsrIndex {
        let mut offsets = vec![0u32; domain + 1];
        for &c in codes {
            offsets[c as usize + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut cursor = offsets.clone();
        let mut rows = vec![0u32; codes.len()];
        for (i, &c) in codes.iter().enumerate() {
            let slot = &mut cursor[c as usize];
            rows[*slot as usize] = i as u32;
            *slot += 1;
        }
        CsrIndex {
            kind: CsrKind::Dense { offsets, rows },
        }
    }

    fn build_partitioned(codes: &[u32], partition_key_budget: usize) -> CsrIndex {
        // Distinct keys in first-appearance order, with posting counts.
        let mut key_slot: FxHashMap<u32, u32> = FxHashMap::default();
        let mut key_codes: Vec<u32> = Vec::new();
        let mut key_counts: Vec<u32> = Vec::new();
        for &c in codes {
            match key_slot.get(&c) {
                Some(&k) => key_counts[k as usize] += 1,
                None => {
                    key_slot.insert(c, key_codes.len() as u32);
                    key_codes.push(c);
                    key_counts.push(1);
                }
            }
        }
        let num_keys = key_codes.len();

        // Grow the partition count until every partition's key list fits the
        // budget (or growth stops helping: keys sharing a full hash can
        // never be split apart).
        let mut partitions: usize = 1;
        let cap = num_keys.next_power_of_two().max(1) * 2;
        let part_of = |code: u32, shift: u32| -> usize {
            if shift >= 32 {
                0
            } else {
                (mix(code) >> shift) as usize
            }
        };
        let (shift, bucket_counts) = loop {
            let shift = 32u32.saturating_sub(partitions.trailing_zeros());
            let mut buckets = vec![0u32; partitions];
            for &code in &key_codes {
                buckets[part_of(code, shift)] += 1;
            }
            let worst = buckets.iter().copied().max().unwrap_or(0) as usize;
            if worst <= partition_key_budget || partitions >= cap {
                break (shift, buckets);
            }
            partitions *= 2;
        };

        // Group keys by partition (stable), then lay the postings out in
        // key-group order; rows stay ascending within each key.
        let mut part_offsets = vec![0u32; partitions + 1];
        for (p, &count) in bucket_counts.iter().enumerate() {
            part_offsets[p + 1] = part_offsets[p] + count;
        }
        let mut key_position = vec![0u32; num_keys];
        let mut keys = vec![0u32; num_keys];
        let mut part_cursor = part_offsets.clone();
        for (k, &code) in key_codes.iter().enumerate() {
            let p = part_of(code, shift);
            let j = part_cursor[p];
            part_cursor[p] += 1;
            keys[j as usize] = code;
            key_position[k] = j;
        }
        let mut key_offsets = vec![0u32; num_keys + 1];
        for (k, &count) in key_counts.iter().enumerate() {
            key_offsets[key_position[k] as usize + 1] = count;
        }
        for i in 1..key_offsets.len() {
            key_offsets[i] += key_offsets[i - 1];
        }
        let mut cursor = key_offsets.clone();
        let mut rows = vec![0u32; codes.len()];
        for (i, &c) in codes.iter().enumerate() {
            let j = key_position[key_slot[&c] as usize] as usize;
            rows[cursor[j] as usize] = i as u32;
            cursor[j] += 1;
        }
        CsrIndex {
            kind: CsrKind::Partitioned {
                shift,
                part_offsets,
                keys,
                key_offsets,
                rows,
            },
        }
    }

    /// The row positions holding `code`, ascending. Empty for absent codes.
    #[inline]
    pub fn probe(&self, code: u32) -> &[u32] {
        match &self.kind {
            CsrKind::Dense { offsets, rows } => {
                let c = code as usize;
                if c + 1 >= offsets.len() {
                    return &[];
                }
                &rows[offsets[c] as usize..offsets[c + 1] as usize]
            }
            CsrKind::Partitioned {
                shift,
                part_offsets,
                keys,
                key_offsets,
                rows,
            } => {
                let p = if *shift >= 32 {
                    0
                } else {
                    (mix(code) >> shift) as usize
                };
                let lo = part_offsets[p] as usize;
                let hi = part_offsets[p + 1] as usize;
                for (j, &key) in keys[lo..hi].iter().enumerate() {
                    if key == code {
                        let j = lo + j;
                        return &rows[key_offsets[j] as usize..key_offsets[j + 1] as usize];
                    }
                }
                &[]
            }
        }
    }

    /// `true` when the index fell back to the hash-partitioned layout.
    pub fn is_partitioned(&self) -> bool {
        matches!(self.kind, CsrKind::Partitioned { .. })
    }
}

/// A composite join index over an ordered pair of dictionary-encoded
/// columns. When a probe step arrives with *two* columns already bound, a
/// single-column CSR probe must scan the postings of one key and filter on
/// the other — one scattered column read per posting. The pair index folds
/// both codes into one `u64` key, so the probe is a single hash lookup and
/// only true matches are ever touched. Postings stay ascending within each
/// key (rows are appended in scan order), preserving the enumeration order
/// of a filtering scan.
#[derive(Debug)]
pub struct PairIndex {
    /// `(a_code << 32 | b_code)` → `(start, len)` into `rows`.
    map: FxHashMap<u64, (u32, u32)>,
    rows: Vec<u32>,
}

impl PairIndex {
    /// Builds the index over two parallel code arrays of one relation.
    pub fn build(a: &[u32], b: &[u32]) -> PairIndex {
        assert_eq!(a.len(), b.len(), "pair index needs parallel columns");
        let key = |i: usize| (u64::from(a[i]) << 32) | u64::from(b[i]);
        // Counting-sort build: tally per key, carve disjoint ranges, then
        // fill in row order so postings ascend within each key.
        let mut map: FxHashMap<u64, (u32, u32)> = FxHashMap::default();
        map.reserve(a.len());
        for i in 0..a.len() {
            map.entry(key(i)).or_insert((0, 0)).1 += 1;
        }
        let mut start = 0u32;
        for entry in map.values_mut() {
            entry.0 = start;
            start += entry.1;
            entry.1 = 0;
        }
        let mut rows = vec![0u32; a.len()];
        for i in 0..a.len() {
            let entry = map.get_mut(&key(i)).expect("tallied above");
            rows[(entry.0 + entry.1) as usize] = i as u32;
            entry.1 += 1;
        }
        PairIndex { map, rows }
    }

    /// The row positions holding `a_code` and `b_code` in the indexed
    /// column pair, ascending. Empty for absent combinations.
    #[inline]
    pub fn probe(&self, a_code: u32, b_code: u32) -> &[u32] {
        let key = (u64::from(a_code) << 32) | u64::from(b_code);
        match self.map.get(&key) {
            Some(&(start, len)) => &self.rows[start as usize..(start + len) as usize],
            None => &[],
        }
    }
}

/// The derived access paths of one [`Relation`](crate::Relation) instance,
/// each in a once-cell. The cell table is sized from the relation's arity on
/// first use (an empty relation does not know its arity yet).
///
/// `Clone` yields an *empty* holder that keeps only the build counter: the
/// deep copy `Arc::make_mut` takes before a write must not inherit
/// structures the write is about to outdate.
#[derive(Debug, Default)]
pub(crate) struct AccessPaths {
    /// The owning store's [`Database::access_path_builds`](crate::Database).
    builds: Arc<AtomicU64>,
    cells: OnceLock<Cells>,
}

#[derive(Debug)]
pub(crate) struct Cells {
    /// Per column.
    pub(crate) csr: Vec<OnceLock<Arc<CsrIndex>>>,
    /// Distinct codes per column.
    pub(crate) distinct: Vec<OnceLock<usize>>,
    /// Per ordered column pair: `pairs[col_a * arity + col_b]`.
    pub(crate) pairs: Vec<OnceLock<Arc<PairIndex>>>,
}

impl Clone for AccessPaths {
    fn clone(&self) -> Self {
        AccessPaths::counted_by(Arc::clone(&self.builds))
    }
}

impl AccessPaths {
    /// An empty holder reporting its builds to `builds`.
    pub(crate) fn counted_by(builds: Arc<AtomicU64>) -> Self {
        AccessPaths {
            builds,
            cells: OnceLock::new(),
        }
    }

    /// Drops every built structure (the relation's content changed).
    pub(crate) fn clear(&mut self) {
        self.cells.take();
    }

    /// The cell table, sized for `arity` columns on first use.
    pub(crate) fn cells(&self, arity: usize) -> &Cells {
        fn cells<T>(n: usize) -> Vec<OnceLock<T>> {
            std::iter::repeat_with(OnceLock::new).take(n).collect()
        }
        self.cells.get_or_init(|| Cells {
            csr: cells(arity),
            distinct: cells(arity),
            pairs: cells(arity * arity),
        })
    }

    /// Runs (and counts) `build` at most once per cell, whichever thread
    /// asks first; racing callers block, and all get a copy of the result.
    pub(crate) fn once<T: Clone>(&self, cell: &OnceLock<T>, build: impl FnOnce() -> T) -> T {
        cell.get_or_init(|| {
            self.builds.fetch_add(1, Ordering::Relaxed);
            build()
        })
        .clone()
    }
}
