//! The allocation floor of the exact online path: one warm broad
//! `ShardedEngine::probability` call must not allocate per clause, and a
//! warm small query — a Boolean point query, a non-Boolean `answers` call —
//! allocates a fixed few times plus once per answer. Below those, the point
//! path's front end: a point text parses in at most four allocations (its
//! names are held inline), a warm point batch on a sharded session
//! allocates fewer than two and a half times per query (a point lineage is
//! answered by the route worker that collected it, so no buffer is routed
//! or copied), and a warm query
//! kernel allocates nothing over a thousand distinct point lineages (its
//! tables do not shrink below the size a point lineage regrows them to).
//!
//! A broad name selection's clauses stay in one flat buffer from the
//! vectorized executor into the query kernel's fold, so the call's heap
//! allocations follow the contexts and the buffers' doublings, not the
//! clauses it carries. The
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
    // 28 for 521 clauses at 500 authors (39 while the buffer was split into
    // per-shard buffers and evaluated in a context per shard, 137 while each
    // executor run built its own batches and staging): the contexts and the
    // flat buffers' doublings. A `Vec` per clause anywhere on the path would
    // put it above one per clause.
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

    // The three point shapes the batch workloads send, as text. Each
    // parses into its vectors alone — the rule list, the atom list, one
    // term list per atom — with its names inline: 4, 4 and 3 allocations
    // (13.6 on average while every name was a `String` and the rules were
    // split into a `Vec` first).
    let texts = point_texts(&data);
    for text in [
        &texts[0],
        texts.last().unwrap(),
        &texts[data.students.len()],
    ] {
        let before = ALLOCATIONS.load(Ordering::Relaxed);
        let parsed = parse_ucq(text).unwrap();
        let parse_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        assert!(
            parse_allocations <= 4,
            "{parse_allocations} allocations to parse {text}"
        );
        assert_eq!(parse_ucq(&parsed.to_string()).unwrap(), parsed);
    }

    // A warm 4 096-query batch on a sharded session: the clause buffer per
    // query, answered where it was collected, and no copy even for the one
    // in nine whose clauses span shards: 8 837 at 500 authors (2.81 per
    // query while each lineage was routed and a split one copied into
    // per-shard buffers, 6.6 when every routed query was copied and the
    // route scratch was checked out per query).
    let queries: Vec<Ucq> = texts
        .iter()
        .cycle()
        .take(4096)
        .map(|t| parse_ucq(t).unwrap())
        .collect();
    let session = engine.session();
    let warm = session.probabilities(&queries).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let ps = session.probabilities(&queries).unwrap();
    let batch_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert!(ps
        .iter()
        .zip(&warm)
        .all(|(p, w)| p.to_bits() == w.to_bits()));
    assert!(
        2 * batch_allocations < 5 * queries.len(),
        "{batch_allocations} allocations for {} queries",
        queries.len()
    );

    // A warm query kernel over a thousand distinct point lineages (a
    // 600-author corpus has that many): no allocation at all (0.35 per
    // call while a nearly empty table halved on reset and the next
    // few-dozen-entry lineage regrew it).
    let data = DblpDataset::generate(DblpConfig::with_authors(600)).unwrap();
    let mono = MvdbEngine::compile(&data.mvdb).unwrap();
    let ctx = mono.context();
    let buffers: Vec<_> = point_texts(&data)
        .iter()
        .map(|t| ctx.clauses(&parse_ucq(t).unwrap()).unwrap())
        .filter(|clauses| !clauses.is_empty() && !clauses.is_true())
        .take(1000)
        .collect();
    assert_eq!(buffers.len(), 1000, "distinct point lineages");
    let index = mono.index();
    let indb = mono.translated().indb();
    let mut kernel = index.take_kernel();
    let run = |kernel: &mut _, out: &mut Vec<u64>| {
        for b in &buffers {
            let p = index.clauses_probability_with(kernel, b.as_slice(), indb);
            out.push(p.unwrap().to_bits());
        }
    };
    let (mut warm, mut ps) = (Vec::with_capacity(1000), Vec::with_capacity(1000));
    run(&mut kernel, &mut warm);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    run(&mut kernel, &mut ps);
    let kernel_allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    assert_eq!(ps, warm);
    assert_eq!(kernel_allocations, 0, "the warm kernel allocated");
    index.recycle_kernel(kernel);
}

/// Every distinct Boolean point query over `data`, as text: advisor of a
/// student, students of an advisor, affiliation of an author.
fn point_texts(data: &DblpDataset) -> Vec<String> {
    let students = data.students.iter();
    let advisors = data.advisors.iter();
    let affiliated = data.affiliated_authors.iter();
    (students.map(|s| format!("Q() :- Student({s}, year), Advisor({s}, aid2)")))
        .chain(advisors.map(|a| format!("Q() :- Student(aid, year), Advisor(aid, {a})")))
        .chain(affiliated.map(|z| format!("Q() :- Affiliation({z}, inst)")))
        .collect()
}
