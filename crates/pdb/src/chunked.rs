//! Per-tuple columns in `Arc`-shared chunks.
//!
//! A [`Chunked`] column keeps its entries in chunks of [`CHUNK`] entries,
//! each behind an `Arc`: cloning the column — every snapshot of an
//! [`InDb`](crate::InDb) does — copies one pointer per chunk, and a write
//! copies at most the one chunk it lands in, when a snapshot still shares it.

use std::sync::Arc;

use crate::relation::vec_bytes;

/// Entries per chunk.
pub(crate) const CHUNK: usize = 4096;

/// An append-only column of `T` in `Arc`-shared chunks. Every chunk but
/// the last holds exactly [`CHUNK`] entries.
#[derive(Debug, Clone)]
pub(crate) struct Chunked<T> {
    chunks: Vec<Arc<Vec<T>>>,
}

impl<T> Default for Chunked<T> {
    fn default() -> Self {
        Chunked { chunks: Vec::new() }
    }
}

impl<T: Clone> Chunked<T> {
    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * CHUNK + last.len())
    }

    /// The entry at `index`. Panics when out of range.
    #[inline]
    pub(crate) fn get(&self, index: usize) -> &T {
        &self.chunks[index / CHUNK][index % CHUNK]
    }

    /// Overwrites the entry at `index`, copying its chunk first if another
    /// snapshot shares it.
    pub(crate) fn set(&mut self, index: usize, value: T) {
        Arc::make_mut(&mut self.chunks[index / CHUNK])[index % CHUNK] = value;
    }

    /// Appends an entry, copying the last chunk first if another snapshot
    /// shares it and it has room.
    pub(crate) fn push(&mut self, value: T) {
        match self.chunks.last_mut() {
            Some(last) if last.len() < CHUNK => Arc::make_mut(last).push(value),
            _ => self.chunks.push(Arc::new(vec![value])),
        }
    }

    /// The entries in order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &T> {
        self.chunks.iter().flat_map(|chunk| chunk.iter())
    }

    /// Heap bytes: the chunk pointers, and every chunk with its reference
    /// counts — in full, even when a snapshot shares it.
    pub(crate) fn heap_bytes(&self) -> usize {
        let header = 2 * std::mem::size_of::<usize>() + std::mem::size_of::<Vec<T>>();
        let chunks: usize = self.chunks.iter().map(|c| header + vec_bytes(c)).sum();
        vec_bytes(&self.chunks) + chunks
    }

    /// `true` when the chunk holding `index` is the same allocation in both
    /// columns.
    #[cfg(test)]
    pub(crate) fn shares_chunk(&self, other: &Chunked<T>, index: usize) -> bool {
        Arc::ptr_eq(&self.chunks[index / CHUNK], &other.chunks[index / CHUNK])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn entries_fill_chunks_in_order() {
        let mut column = Chunked::default();
        assert_eq!(column.len(), 0);
        for i in 0..(2 * CHUNK + 5) as u32 {
            column.push(i);
        }
        assert_eq!(column.len(), 2 * CHUNK + 5);
        assert_eq!(column.chunks.len(), 3);
        assert_eq!(*column.get(CHUNK), CHUNK as u32);
        assert!(column.iter().copied().eq(0..(2 * CHUNK + 5) as u32));
    }

    #[test]
    fn a_clone_shares_chunks_until_one_is_written() {
        let mut column = Chunked::default();
        for i in 0..(CHUNK + 10) as u32 {
            column.push(i);
        }
        let snapshot = column.clone();
        column.set(CHUNK + 1, 7);
        assert!(column.shares_chunk(&snapshot, 0));
        assert!(!column.shares_chunk(&snapshot, CHUNK));
        assert_eq!(
            (*column.get(CHUNK + 1), *snapshot.get(CHUNK + 1)),
            (7, CHUNK as u32 + 1)
        );
        // An append copies the shared last chunk; the snapshot keeps its length.
        let mut appended = snapshot.clone();
        appended.push(99);
        assert!(appended.shares_chunk(&snapshot, 0));
        assert!(!appended.shares_chunk(&snapshot, CHUNK));
        assert_eq!((appended.len(), snapshot.len()), (CHUNK + 11, CHUNK + 10));
    }
}
