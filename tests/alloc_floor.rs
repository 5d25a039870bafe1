//! The allocation floor of the exact online path: one warm broad
//! `ShardedEngine::probability` call must not allocate per clause.
//!
//! A broad name selection's clauses stay in one flat buffer from the
//! vectorized executor, through shard routing, into the query kernel's
//! fold, so the call's heap allocations follow the executor's batches, the
//! contexts, the buffers' doublings and the touched shards, not the clauses
//! it carries. A counting global allocator holds it there: the test binary
//! holds this one test alone, so the count is the call's.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use markoviews::prelude::*;

/// The system allocator, counting every allocation and reallocation.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method hands its arguments to `System` unchanged, so the
// caller's guarantees are the ones `System` needs and its returns are the
// caller's; the counter is a statistic and publishes no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_warm_broad_call_allocates_well_below_one_per_clause() {
    let data = DblpDataset::generate(DblpConfig::with_authors(500)).unwrap();
    let engine = ShardedEngine::compile(&data.mvdb, 2).unwrap();
    let q = markoviews::dblp::queries::students_of_advisor_named("f0001")
        .unwrap()
        .boolean();
    let clauses = engine.full().context().lineage(&q).unwrap().num_clauses();
    assert!(clauses >= 100, "a broad selection: {clauses} clauses");

    // Warm: the plan template, the pooled kernel and routing scratch.
    let warm = engine.probability(&q).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let p = engine.probability(&q).unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(p.to_bits(), warm.to_bits());
    // About a quarter at 500 authors: the executor's per-batch buffers and
    // the flat buffers' doublings. A `Vec` per clause anywhere on the path
    // would put it above one per clause.
    assert!(
        allocations * 3 < clauses,
        "{allocations} allocations for {clauses} clauses"
    );
}
