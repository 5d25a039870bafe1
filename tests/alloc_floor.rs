//! The allocation floor of the exact online path: one warm broad
//! `ShardedEngine::probability` call must not allocate per clause, and a
//! warm small query — a Boolean point query, a non-Boolean `answers` call —
//! allocates a fixed few times plus once per answer.
//!
//! A broad name selection's clauses stay in one flat buffer from the
//! vectorized executor, through shard routing, into the query kernel's
//! fold, so the call's heap allocations follow the contexts, the buffers'
//! doublings and the touched shards, not the clauses it carries. The
//! executor's batches and staging and the lineage collectors' tables are
//! pooled on the snapshot's plan cache, so a context made per call runs on
//! warm ones. A counting global allocator holds it there: the test binary
//! holds this one test alone, so each count is its call's.

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
    // 39 for 521 clauses at 500 authors (137 while each executor run built
    // its own batches and staging): the contexts, the flat buffers'
    // doublings and the shards' buffers. A `Vec` per clause anywhere on the
    // path would put it above one per clause.
    assert!(
        allocations * 3 < clauses,
        "{allocations} allocations for {clauses} clauses"
    );

    // The small queries on the monolithic engine, each on a fresh context
    // as the API makes one per call: a Boolean point query, then a
    // non-Boolean one with several answers.
    let mono = engine.full();
    let advisor = data.advisors[0];
    let point = markoviews::dblp::queries::advisor_of_student(data.students[0])
        .unwrap()
        .boolean();
    let students = markoviews::dblp::queries::students_of_advisor(advisor).unwrap();
    let warm = (
        mono.probability(&point).unwrap(),
        mono.answers(&students).unwrap(),
    );
    assert!(warm.1.len() >= 2, "{} answers", warm.1.len());
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let p = mono.probability(&point).unwrap();
    let point_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let answers = mono.answers(&students).unwrap();
    let answers_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(p.to_bits(), warm.0.to_bits());
    assert_eq!(answers, warm.1);
    // The executor's buffers and the collectors' tables come warm from the
    // snapshot's pool, so what is left is the context's handle on the
    // template and the clause buffer: 4 allocations at 500 authors (31 when
    // each run built its own batches and staging).
    assert!(
        point_allocations <= 8,
        "{point_allocations} allocations for a point query"
    );
    // One row per answer plus the flat result's few buffers: 13 for 6
    // answers (125 with a hash set of `Vec` clauses and a `Lineage` per
    // answer).
    assert!(
        answers_allocations <= 6 + 2 * answers.len(),
        "{answers_allocations} allocations for {} answers",
        answers.len()
    );
}
