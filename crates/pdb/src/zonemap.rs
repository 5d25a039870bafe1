//! Per-block zone maps over the dictionary-encoded columns.
//!
//! A [`RelationZones`] summarises a relation's columnar code arrays in
//! fixed-size row blocks (see [`ZONE_BLOCK_ROWS`]): for every block and
//! column it keeps the minimum and maximum code plus a tiny 64-bit Bloom
//! filter of the codes in the block. The summaries support one question —
//! *can this block possibly contain a given code (or any code from a given
//! range)?* — answered without touching the block itself.
//!
//! A relation builds its `RelationZones` once ([`Relation::zones`]); the
//! vectorized query executor in `mv-query` consults them before
//! scanning, so equality constants and join-key bounds skip whole blocks in
//! the style of provenance-based data skipping: only blocks that can
//! contribute a satisfying assignment (and hence a lineage clause) are read.
//!
//! The summaries are conservative by construction: [`ColumnZone::might_contain`]
//! may return `true` for an absent code (Bloom false positive, or a gap
//! inside the `[min, max]` range) but never `false` for a present one.
//! Skipping therefore never changes query results, only the number of rows
//! inspected. For relations no larger than one block, or for scans without
//! equality constants and join bounds, the zone maps are a no-op.

use crate::relation::Relation;

/// Rows per zone-map block.
///
/// Deliberately smaller than the executor's batch size: a block is the unit
/// of *skipping*, and finer blocks keep the min/max ranges tight and the
/// 64-bit Blooms sparse enough to be selective on realistic dictionaries.
pub const ZONE_BLOCK_ROWS: usize = 256;

/// The Bloom bit of a code: one of 64 positions, derived from a
/// Fibonacci-hash mix so consecutive codes (the common case for columns
/// filled in insertion order) spread across the mask.
#[inline]
pub fn bloom_bit(code: u32) -> u64 {
    1u64 << (code.wrapping_mul(0x9E37_79B9) >> 26)
}

/// The summary of one column within one block: code range plus a tiny Bloom
/// filter of the codes present.
#[derive(Debug, Clone, Copy)]
pub struct ColumnZone {
    /// Smallest code in the block.
    pub min_code: u32,
    /// Largest code in the block.
    pub max_code: u32,
    /// 64-bit Bloom filter over [`bloom_bit`] of every code in the block.
    pub bloom: u64,
}

impl ColumnZone {
    /// The zone of an empty set of codes: an inverted range that rejects
    /// every membership probe.
    const EMPTY: ColumnZone = ColumnZone {
        min_code: u32::MAX,
        max_code: 0,
        bloom: 0,
    };

    /// `true` when the block may contain `code` (no false negatives).
    #[inline]
    pub fn might_contain(&self, code: u32) -> bool {
        code >= self.min_code && code <= self.max_code && self.bloom & bloom_bit(code) != 0
    }

    /// `true` when the block's code range intersects `[min, max]`.
    #[inline]
    pub fn intersects(&self, min: u32, max: u32) -> bool {
        self.min_code <= max && min <= self.max_code
    }
}

/// Zone maps of one relation: a [`ColumnZone`] per `(block, column)` pair,
/// built in one pass over the columnar code arrays.
#[derive(Debug, Clone)]
pub struct RelationZones {
    num_rows: usize,
    arity: usize,
    /// Row-major per block: `zones[block * arity + column]`.
    zones: Vec<ColumnZone>,
}

impl RelationZones {
    /// Builds the zone maps of a relation.
    pub fn build(relation: &Relation) -> Self {
        let num_rows = relation.len();
        let arity = relation.num_columns();
        let num_blocks = num_rows.div_ceil(ZONE_BLOCK_ROWS);
        let mut zones = vec![ColumnZone::EMPTY; num_blocks * arity];
        for col in 0..arity {
            let codes = relation.column_codes(col);
            for (block, chunk) in codes.chunks(ZONE_BLOCK_ROWS).enumerate() {
                let zone = &mut zones[block * arity + col];
                for &code in chunk {
                    zone.min_code = zone.min_code.min(code);
                    zone.max_code = zone.max_code.max(code);
                    zone.bloom |= bloom_bit(code);
                }
            }
        }
        RelationZones {
            num_rows,
            arity,
            zones,
        }
    }

    /// Number of row blocks (zero for an empty relation).
    pub fn num_blocks(&self) -> usize {
        self.num_rows.div_ceil(ZONE_BLOCK_ROWS)
    }

    /// Number of summarised columns.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The row range of a block (the last block may be short).
    pub fn block_rows(&self, block: usize) -> std::ops::Range<usize> {
        let start = block * ZONE_BLOCK_ROWS;
        start..(start + ZONE_BLOCK_ROWS).min(self.num_rows)
    }

    /// The summary of one `(block, column)` pair.
    #[inline]
    pub fn column(&self, block: usize, column: usize) -> &ColumnZone {
        &self.zones[block * self.arity + column]
    }

    /// The code range of a whole column — the join-key bound the executor
    /// propagates to the scans feeding a probe of this column. `None` for an
    /// empty or out-of-range column.
    pub fn column_range(&self, column: usize) -> Option<(u32, u32)> {
        if column >= self.arity || self.num_rows == 0 {
            return None;
        }
        let mut min = u32::MAX;
        let mut max = 0;
        for block in 0..self.num_blocks() {
            let zone = self.column(block, column);
            min = min.min(zone.min_code);
            max = max.max(zone.max_code);
        }
        Some((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interner::ValueInterner;
    use crate::schema::RelId;
    use crate::value::{row, Value};

    fn relation_of(values: impl IntoIterator<Item = i64>) -> (Relation, ValueInterner) {
        let mut interner = ValueInterner::new();
        let mut rel = Relation::new(RelId(0));
        for v in values {
            rel.insert(row([v]), &mut interner);
        }
        (rel, interner)
    }

    #[test]
    fn zones_never_reject_a_present_code() {
        // Insertion dedups rows, so 613 distinct values survive.
        let (rel, _) = relation_of((0..1000).map(|i| i * 7 % 613));
        let zones = RelationZones::build(&rel);
        assert_eq!(zones.num_blocks(), rel.len().div_ceil(ZONE_BLOCK_ROWS));
        for (i, &code) in rel.column_codes(0).iter().enumerate() {
            let block = i / ZONE_BLOCK_ROWS;
            assert!(zones.column(block, 0).might_contain(code));
            assert!(zones.block_rows(block).contains(&i));
        }
    }

    #[test]
    fn zones_skip_codes_outside_the_block_range() {
        // Two full blocks with disjoint, sorted code ranges: each block must
        // reject the other's codes on the min/max test alone.
        let (rel, interner) = relation_of(0..(2 * ZONE_BLOCK_ROWS as i64));
        let zones = RelationZones::build(&rel);
        assert_eq!(zones.num_blocks(), 2);
        let low = interner.code_of(&crate::value::Value::int(0)).unwrap();
        let high = interner
            .code_of(&crate::value::Value::int(2 * ZONE_BLOCK_ROWS as i64 - 1))
            .unwrap();
        assert!(zones.column(0, 0).might_contain(low));
        assert!(!zones.column(0, 0).might_contain(high));
        assert!(zones.column(1, 0).might_contain(high));
        assert!(!zones.column(1, 0).might_contain(low));
        assert_eq!(zones.column_range(0), Some((low, high)));
        // Range intersection agrees with the per-block ranges.
        assert!(zones.column(0, 0).intersects(low, low));
        assert!(!zones.column(1, 0).intersects(low, low));
    }

    #[test]
    fn empty_and_zero_arity_relations_have_no_blocks() {
        let (rel, _) = relation_of([]);
        let zones = RelationZones::build(&rel);
        assert_eq!(zones.num_blocks(), 0);
        assert_eq!(zones.arity(), 0);
        assert_eq!(zones.column_range(0), None);

        // A zero-arity relation with one (empty) row: no columns to map.
        let mut interner = ValueInterner::new();
        let mut nullary = Relation::new(RelId(1));
        nullary.insert(row::<Value, [Value; 0]>([]), &mut interner);
        let zones = RelationZones::build(&nullary);
        assert_eq!(zones.arity(), 0);
        assert_eq!(zones.column_range(0), None);
    }

    #[test]
    fn last_partial_block_is_summarised() {
        let n = ZONE_BLOCK_ROWS as i64 + 3;
        let (rel, interner) = relation_of(0..n);
        let zones = RelationZones::build(&rel);
        assert_eq!(zones.num_blocks(), 2);
        assert_eq!(zones.block_rows(1).len(), 3);
        let last = interner.code_of(&crate::value::Value::int(n - 1)).unwrap();
        assert!(zones.column(1, 0).might_contain(last));
    }
}
