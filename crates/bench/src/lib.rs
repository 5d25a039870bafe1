//! # `mv-bench` — the experiment harness of Section 5
//!
//! This crate regenerates every figure of the paper's evaluation on the
//! synthetic DBLP corpus:
//!
//! | figure | experiment | harness entry point |
//! |--------|------------|---------------------|
//! | Fig. 1 | dataset / index inventory | [`fig1_inventory`] |
//! | Fig. 4 | lineage size of `W` vs `aid` domain | [`fig4_lineage_size`] |
//! | Fig. 5 | Alchemy (MC-SAT) vs augmented OBDD vs MV-index, *advisor of a student* | [`fig5_advisor_of_student`] |
//! | Fig. 6 | same comparison, *students of an advisor* | [`fig6_students_of_advisor`] |
//! | Fig. 7 | OBDD size of V2 vs `aid1` domain | [`fig7_fig8_obdd_construction`] |
//! | Fig. 8 | OBDD construction: synthesis (CUDD stand-in) vs concatenation | [`fig7_fig8_obdd_construction`] |
//! | Fig. 9 | MVIntersect vs CC-MVIntersect, worst-case query | [`fig9_intersection`] |
//! | Fig. 10 | per-query time, *students of an advisor*, full dataset | [`fig10_fig11_full_dataset`] |
//! | Fig. 11 | per-query time, *affiliations of an author*, full dataset | [`fig10_fig11_full_dataset`] |
//!
//! The same routines back both the `figures` binary (which prints the series
//! the paper plots) and the Criterion benches under `benches/`.
//!
//! Substitutions with respect to the paper's setup (documented in
//! `DESIGN.md`): the DBLP dump is replaced by the seeded synthetic generator
//! of `mv-dblp`; Alchemy is replaced by our own grounded MLN plus MC-SAT
//! sampler; native CUDD is replaced by the synthesis-only OBDD builder; and
//! Postgres lineage retrieval is replaced by the in-memory evaluator of
//! `mv-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::time::{Duration, Instant};

use mv_core::backend::MvIndexBackend;
use mv_core::{ApproxConfig, EngineBackend, IntervalMethod, MvdbEngine, ShardedEngine};
use mv_dblp::{DblpConfig, DblpDataset};
use mv_index::{IntersectAlgorithm, MvIndex};
use mv_mln::{McSatConfig, McSatSampler};
use mv_obdd::{ConObddBuilder, ManagerStats, Obdd, SynthesisBuilder};
use mv_pdb::{InDb, TupleId};
use mv_query::lineage::{lineage, Lineage};
use mv_query::{parse_ucq, Ucq};

/// The `aid` domains used by the scaling experiments (Figures 4–9).
pub fn scales(quick: bool) -> Vec<usize> {
    if quick {
        vec![1000, 2000, 3000]
    } else {
        (1..=10).map(|i| i * 1000).collect()
    }
}

/// Generates the Section 5.1 corpus (V1 and V2 only, as in the Alchemy
/// comparison) at the given scale.
pub fn dataset_v1v2(num_authors: usize) -> DblpDataset {
    DblpDataset::generate(DblpConfig {
        with_affiliation_view: false,
        ..DblpConfig::with_authors(num_authors)
    })
    .expect("dataset generation succeeds")
}

/// Generates the full corpus (V1, V2 and V3) at the given scale
/// (Sections 5.4 / Figures 10–11).
pub fn dataset_full(num_authors: usize) -> DblpDataset {
    DblpDataset::generate(DblpConfig::with_authors(num_authors))
        .expect("dataset generation succeeds")
}

/// The denial view V2 written directly over the translated schema
/// (Sections 5.2 / 5.3 compile only this view).
pub fn v2_query() -> Ucq {
    parse_ucq("W() :- Advisor(aid1, aid2), Advisor(aid1, aid3), aid2 <> aid3").expect("V2 parses")
}

/// One row of the Figure 4 series.
#[derive(Debug, Clone, Copy)]
pub struct LineageSizePoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Number of distinct probabilistic tuples in the lineage of `W`
    /// (the paper's "lineage size").
    pub lineage_size: usize,
    /// Number of clauses (groundings) in the lineage of `W`.
    pub num_clauses: usize,
}

/// Figure 4: the lineage size of `W` for each dataset scale.
pub fn fig4_lineage_size(num_authors: usize) -> LineageSizePoint {
    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let translated = engine.translated();
    let w = translated.w().expect("W exists");
    let lin = lineage(w, translated.indb()).expect("lineage");
    LineageSizePoint {
        num_authors,
        lineage_size: lin.variables().len(),
        num_clauses: lin.num_clauses(),
    }
}

/// Wall-clock time of one [`Backend`](mv_core::Backend) over a workload.
#[derive(Debug, Clone)]
pub struct BackendTiming {
    /// The backend's [`Backend::name`](mv_core::Backend::name).
    pub name: &'static str,
    /// Total time over the workload.
    pub total: Duration,
}

/// Timings of one Figure 5 / Figure 6 point.
#[derive(Debug, Clone)]
pub struct MethodTimings {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Grounding + sampling time of the MC-SAT baseline ("Alchemy-total").
    pub alchemy_total: Duration,
    /// Sampling-only time of the MC-SAT baseline ("Alchemy-sampling").
    pub alchemy_sampling: Duration,
    /// Offline MV-index compilation time (reported for context).
    pub index_compile: Duration,
    /// Per-backend online evaluation time over the workload, one entry per
    /// element of [`comparison_backends`], in order.
    ///
    /// Unlike the pre-trait harness — which timed per-answer enumeration
    /// (`answers`) for the MV-index but a single Boolean probability for
    /// the OBDD baseline — every backend is now timed on the *same*
    /// operation, the Boolean probability of each workload query, so the
    /// columns are directly comparable. MVIndex series are therefore not
    /// comparable to numbers produced before this change; per-answer
    /// enumeration timings live in the Figure 10/11 harness instead.
    pub backends: Vec<BackendTiming>,
    /// Shared-OBDD-manager counters accumulated by the MV-index backend's
    /// workload run (worker query shards plus the index manager): node
    /// allocations, unique-table / apply-memo / probability-cache hit
    /// rates, and the peak node count.
    pub manager: ManagerStats,
}

/// Configuration of the MC-SAT baseline used by Figures 5–6.
pub fn baseline_mcsat_config() -> McSatConfig {
    McSatConfig {
        num_samples: 100,
        burn_in: 20,
        sample_sat_flips: 100,
        ..McSatConfig::default()
    }
}

/// The exact backend selectors the Figure 5/6 comparison runs. Adding a
/// strategy to the comparison is one line here — the harness, the `figures`
/// binary and the Criterion benches all iterate this list.
pub fn comparison_backends() -> Vec<EngineBackend> {
    vec![
        EngineBackend::ObddPerQuery,
        EngineBackend::MvIndex(IntersectAlgorithm::CcMvIntersect),
    ]
}

/// Times each backend on the Boolean probability of every workload query
/// through an [`MvdbSession`](mv_core::MvdbSession): one shared evaluation
/// context per backend run (so query diagrams are hash-consed across the
/// workload, never deep-copied), split across `threads` workers when
/// `threads > 1`. Returns the per-backend timings together with the
/// manager counters of the MV-index run.
pub fn time_backends(
    engine: &MvdbEngine,
    queries: &[Ucq],
    backends: &[EngineBackend],
    threads: usize,
) -> (Vec<BackendTiming>, ManagerStats) {
    let session = engine.session().with_threads(threads);
    let mut manager = ManagerStats::default();
    let timings = backends
        .iter()
        .map(|&selector| {
            let name = selector.instantiate().name();
            let t = Instant::now();
            session
                .probabilities_with_backend(queries, selector)
                .expect("backend evaluates");
            let total = t.elapsed();
            if matches!(selector, EngineBackend::MvIndex(_)) {
                manager = session.last_manager_stats();
            }
            BackendTiming { name, total }
        })
        .collect();
    (timings, manager)
}

/// Runs one scaling point of Figure 5 (`advisor of a student X`) or
/// Figure 6 (`students of an advisor Y`), depending on `queries`, spreading
/// the exact-backend workload over `threads` session workers.
pub fn run_method_comparison(data: &DblpDataset, queries: &[Ucq], threads: usize) -> MethodTimings {
    // --- MC-SAT baseline (Alchemy stand-in) --------------------------------
    let t0 = Instant::now();
    let ground = data.mvdb.to_ground_mln().expect("grounding succeeds");
    let lineages: Vec<Lineage> = queries
        .iter()
        .map(|q| lineage(&q.boolean(), data.mvdb.base()).expect("lineage"))
        .collect();
    let grounding_time = t0.elapsed();
    let sampler = McSatSampler::new(&ground, baseline_mcsat_config());
    let t1 = Instant::now();
    let _ = sampler.run(&lineages).expect("MC-SAT runs");
    let alchemy_sampling = t1.elapsed();
    let alchemy_total = grounding_time + alchemy_sampling;

    // --- exact backends, dispatched through the trait -----------------------
    // Offline compilation is timed separately and not charged to any
    // backend; the per-query OBDD baseline rebuilds `Q ∨ W` per query by
    // construction, the MV-index backend reuses the compiled index.
    let t2 = Instant::now();
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let index_compile = t2.elapsed();
    let (backends, manager) = time_backends(&engine, queries, &comparison_backends(), threads);

    MethodTimings {
        num_authors: data.config.num_authors,
        alchemy_total,
        alchemy_sampling,
        index_compile,
        backends,
        manager,
    }
}

/// Figure 5: *find the advisor of a student X*.
pub fn fig5_advisor_of_student(
    num_authors: usize,
    num_queries: usize,
    threads: usize,
) -> MethodTimings {
    let data = dataset_v1v2(num_authors);
    let queries = data
        .advisor_of_student_workload(num_queries)
        .expect("workload");
    run_method_comparison(&data, &queries, threads)
}

/// Figure 6: *find all students of an advisor Y*.
pub fn fig6_students_of_advisor(
    num_authors: usize,
    num_queries: usize,
    threads: usize,
) -> MethodTimings {
    let data = dataset_v1v2(num_authors);
    let queries = data
        .students_of_advisor_workload(num_queries)
        .expect("workload");
    run_method_comparison(&data, &queries, threads)
}

/// One row of the Figures 7–8 series.
#[derive(Debug, Clone, Copy)]
pub struct ObddConstructionPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Size (internal nodes) of the V2 OBDD.
    pub obdd_size: usize,
    /// Construction time with the concatenation-based ConOBDD builder.
    pub conobdd_time: Duration,
    /// Construction time with the synthesis-only builder (CUDD stand-in).
    /// Its fold is level-ordered (`ObddManager::dnf`), linear on this
    /// width-1 diagram — not the arrival-order `O(clauses · variables)`
    /// synthesis the paper's Figure 8 timed.
    pub synthesis_time: Duration,
    /// `true` when both constructions produced diagrams of the same size
    /// (canonicity check, as in Section 5.2).
    pub sizes_match: bool,
}

/// Figures 7 and 8: size and construction time of the V2 OBDD.
pub fn fig7_fig8_obdd_construction(num_authors: usize) -> ObddConstructionPoint {
    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let indb = engine.translated().indb();
    let w2 = v2_query();

    let t0 = Instant::now();
    let mut builder = ConObddBuilder::for_query(indb, &w2);
    let fast = builder.build(&w2).expect("ConOBDD builds");
    let conobdd_time = t0.elapsed();

    let t1 = Instant::now();
    let slow = SynthesisBuilder::new(builder.order())
        .from_query(&w2, indb)
        .expect("synthesis builds");
    let synthesis_time = t1.elapsed();

    ObddConstructionPoint {
        num_authors,
        obdd_size: fast.size(),
        conobdd_time,
        synthesis_time,
        sizes_match: fast.size() == slow.size(),
    }
}

/// One row of the Figure 9 series.
#[derive(Debug, Clone, Copy)]
pub struct IntersectionPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Size of the compiled (single-block) index diagram.
    pub index_size: usize,
    /// Time of the pointer-based MVIntersect.
    pub mv_intersect: Duration,
    /// Time of the cache-conscious CC-MVIntersect.
    pub cc_mv_intersect: Duration,
}

/// Builds the worst-case query lineage of Section 5.3: `k` tuples spread from
/// the first to the last variable of the index order, forcing the
/// intersection to traverse the entire diagram.
pub fn worst_case_lineage(indb: &InDb, order: &mv_obdd::VarOrder, k: usize) -> Lineage {
    let n = order.len();
    let clauses: Vec<Vec<TupleId>> = (0..k)
        .map(|i| vec![order.tuple_at((i * (n - 1) / (k - 1).max(1)) as u32)])
        .collect();
    let _ = indb;
    Lineage::from_clauses(clauses)
}

/// Figure 9: MVIntersect vs CC-MVIntersect on the worst-case query.
pub fn fig9_intersection(num_authors: usize, repetitions: usize) -> IntersectionPoint {
    use mv_index::augmented::AugmentedObdd;
    use mv_index::intersect::{cc_mv_intersect, mv_intersect, CcLayout, QueryView};

    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let indb = engine.translated().indb();
    let w2 = v2_query();

    // Compile W2 into a single augmented OBDD (no block splitting), exactly
    // the Section 5.2/5.3 setting.
    let mut builder = ConObddBuilder::for_query(indb, &w2);
    let obdd_w = builder.build(&w2).expect("ConOBDD builds");
    let prob_of = |t: TupleId| indb.probability(t);
    let negated = AugmentedObdd::new(obdd_w.negate(), prob_of);
    let layout = CcLayout::new(&negated, prob_of);

    let order = builder.order();
    let lin_q = worst_case_lineage(indb, order.as_ref(), 20);
    let q_obdd: Obdd = SynthesisBuilder::new(builder.order())
        .from_lineage(&lin_q)
        .expect("query OBDD");
    let q_view = QueryView::new(&q_obdd, prob_of);

    let t0 = Instant::now();
    let mut p1 = 0.0;
    for _ in 0..repetitions {
        p1 = mv_intersect(&negated, &q_view, prob_of);
    }
    let mv_time = t0.elapsed() / repetitions as u32;

    let t1 = Instant::now();
    let mut p2 = 0.0;
    for _ in 0..repetitions {
        p2 = cc_mv_intersect(&layout, &q_view);
    }
    let cc_time = t1.elapsed() / repetitions as u32;
    assert!(
        (p1 - p2).abs() < 1e-9,
        "the two intersection algorithms disagree: {p1} vs {p2}"
    );

    IntersectionPoint {
        num_authors,
        index_size: negated.size(),
        mv_intersect: mv_time,
        cc_mv_intersect: cc_time,
    }
}

/// One per-query timing row of Figures 10–11.
#[derive(Debug, Clone)]
pub struct PerQueryPoint {
    /// Query label (`q1` … `q10`).
    pub label: String,
    /// Number of answers returned.
    pub num_answers: usize,
    /// Evaluation time (lineage retrieval plus MV-index intersection).
    pub time: Duration,
}

/// Summary of the full-dataset experiment (Section 5.4).
#[derive(Debug, Clone)]
pub struct FullDatasetReport {
    /// Number of authors of the "full" corpus.
    pub num_authors: usize,
    /// Offline compilation time of the MV-index.
    pub compile_time: Duration,
    /// Total number of OBDD nodes in the index.
    pub index_size: usize,
    /// Number of blocks.
    pub num_blocks: usize,
    /// Per-query timings.
    pub queries: Vec<PerQueryPoint>,
}

/// Figures 10 / 11: per-query evaluation times on the full dataset.
/// `affiliation = false` runs the *students of an advisor* workload
/// (Figure 10), `true` the *affiliations of an author* workload (Figure 11).
pub fn fig10_fig11_full_dataset(
    num_authors: usize,
    num_queries: usize,
    affiliation: bool,
) -> FullDatasetReport {
    let data = dataset_full(num_authors);
    let t0 = Instant::now();
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let compile_time = t0.elapsed();
    let queries = if affiliation {
        data.affiliation_workload(num_queries).expect("workload")
    } else {
        data.students_of_advisor_workload(num_queries)
            .expect("workload")
    };
    // Per-query evaluation dispatches through the Backend trait; the
    // production strategy is the index with the cache-conscious intersection.
    let backend = MvIndexBackend::default();
    let mut rows = Vec::with_capacity(queries.len());
    for (i, q) in queries.iter().enumerate() {
        let t = Instant::now();
        let answers = engine.answers_with(q, &backend).expect("answers");
        rows.push(PerQueryPoint {
            label: format!("q{}", i + 1),
            num_answers: answers.len(),
            time: t.elapsed(),
        });
    }
    FullDatasetReport {
        num_authors,
        compile_time,
        index_size: engine.index().size(),
        num_blocks: engine.index().num_blocks(),
        queries: rows,
    }
}

/// The Figure 1 inventory: dataset statistics plus compiled index statistics.
#[derive(Debug, Clone)]
pub struct InventoryReport {
    /// Dataset table sizes.
    pub stats: mv_dblp::DatasetStats,
    /// Index statistics.
    pub index: mv_index::IndexStats,
    /// Offline compilation time.
    pub compile_time: Duration,
    /// `P0(W)` is not a probability on translated databases; report the
    /// consistency flag instead.
    pub consistent: bool,
}

/// Figure 1: generate the corpus and compile its index, reporting all sizes.
pub fn fig1_inventory(num_authors: usize) -> InventoryReport {
    let data = dataset_full(num_authors);
    let t0 = Instant::now();
    let translated = mv_core::TranslatedIndb::new(&data.mvdb).expect("translates");
    let index = match translated.w() {
        Some(w) => MvIndex::compile(translated.indb(), w).expect("index compiles"),
        None => MvIndex::empty(translated.indb()),
    };
    let compile_time = t0.elapsed();
    InventoryReport {
        stats: data.stats,
        index: index.stats(),
        compile_time,
        consistent: index.is_consistent(),
    }
}

/// Result of the block-partitioning ablation: per-query time with the
/// block-partitioned MV-index (the design described in Section 4.1, one
/// augmented OBDD per key) versus a single monolithic augmented OBDD for the
/// whole of `W`.
#[derive(Debug, Clone, Copy)]
pub struct BlockAblationPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Number of blocks of the partitioned index.
    pub num_blocks: usize,
    /// Total time for the workload with the partitioned index.
    pub partitioned: Duration,
    /// Total time for the workload against the monolithic diagram.
    pub monolithic: Duration,
}

/// Ablation: does splitting the MV-index into per-key blocks matter?
///
/// Both variants compute exactly the same probabilities; the partitioned
/// index only has to touch the blocks mentioned by each query, while the
/// monolithic diagram must be traversed from its first to its last
/// query-relevant level (Proposition 3), which grows with the database.
pub fn ablation_block_index(num_authors: usize, num_queries: usize) -> BlockAblationPoint {
    use mv_index::augmented::AugmentedObdd;
    use mv_index::intersect::{mv_intersect, QueryView};

    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let translated = engine.translated();
    let indb = translated.indb();
    let queries = data
        .students_of_advisor_workload(num_queries)
        .expect("workload");

    // Partitioned (the production path).
    let t0 = Instant::now();
    for q in &queries {
        engine.answers(q).expect("answers");
    }
    let partitioned = t0.elapsed();

    // Monolithic: one augmented OBDD for all of W, intersected per answer.
    let w = translated.w().expect("W exists");
    let mut builder = ConObddBuilder::for_query(indb, w);
    let obdd_w = builder.build(w).expect("builds");
    let prob_of = |t: TupleId| indb.probability(t);
    let negated = AugmentedObdd::new(obdd_w.negate(), prob_of);
    let not_w = negated.probability();
    let synth = SynthesisBuilder::new(builder.order());
    let t1 = Instant::now();
    for q in &queries {
        let per_answer = mv_query::lineage::answer_lineages(q, indb).expect("lineages");
        for (_row, lin) in per_answer {
            let q_obdd = synth.from_lineage(&lin).expect("query OBDD");
            let q_view = QueryView::new(&q_obdd, prob_of);
            let joint = mv_intersect(&negated, &q_view, prob_of);
            let _p = joint / not_w;
        }
    }
    let monolithic = t1.elapsed();

    BlockAblationPoint {
        num_authors,
        num_blocks: engine.index().num_blocks(),
        partitioned,
        monolithic,
    }
}

/// Result of the `π`-order ablation: compiling the MV-index with the inferred
/// separator-first attribute permutations versus the identity permutations.
#[derive(Debug, Clone, Copy)]
pub struct PiAblationPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Compilation time and synthesis-step count with the inferred `π`.
    pub inferred: (Duration, usize),
    /// Compilation time and synthesis-step count with the identity `π`.
    pub identity: (Duration, usize),
    /// Index sizes (total OBDD nodes) for the two orders.
    pub sizes: (usize, usize),
}

/// Ablation: does the separator-first attribute permutation heuristic of
/// Section 4.2 matter? The probe query is a variant of V2 whose separator is
/// the *second* attribute of `Advisor` ("an advisor has at most one
/// student"): with the inferred `π` that attribute is moved to the front and
/// the per-value groundings stay level-contiguous (pure concatenation); with
/// the identity `π` they interleave, so the builder must fall back to
/// synthesis and the diagram loses its narrow structure.
pub fn ablation_pi_order(num_authors: usize) -> PiAblationPoint {
    let data = dataset_v1v2(num_authors);
    let translated = mv_core::TranslatedIndb::new(&data.mvdb).expect("translates");
    let indb = translated.indb();
    let probe = parse_ucq("W() :- Advisor(aid1, aid2), Advisor(aid3, aid2), aid1 <> aid3")
        .expect("probe parses");

    let t0 = Instant::now();
    let mut inferred_builder = ConObddBuilder::for_query(indb, &probe);
    let inferred_obdd = inferred_builder.build(&probe).expect("builds");
    let inferred_time = t0.elapsed();

    let t1 = Instant::now();
    let mut identity_builder = ConObddBuilder::new(indb, &mv_obdd::PiOrder::identity());
    let identity_obdd = identity_builder.build(&probe).expect("builds");
    let identity_time = t1.elapsed();

    PiAblationPoint {
        num_authors,
        inferred: (inferred_time, inferred_builder.stats().syntheses),
        identity: (identity_time, identity_builder.stats().syntheses),
        sizes: (inferred_obdd.size(), identity_obdd.size()),
    }
}

/// Result of the parallel-session smoke experiment.
#[derive(Debug, Clone)]
pub struct SessionPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Worker threads of the parallel run.
    pub threads: usize,
    /// Number of Boolean queries in the batch.
    pub num_queries: usize,
    /// Wall-clock time of the 1-thread session.
    pub sequential: Duration,
    /// Wall-clock time of the `threads`-worker session.
    pub parallel: Duration,
    /// Largest absolute difference between sequential and parallel results
    /// (must stay below 1e-9: parallelism is a scheduling choice, never a
    /// semantics choice).
    pub max_abs_diff: f64,
    /// Manager counters accumulated by the parallel run.
    pub manager: ManagerStats,
    /// Query-evaluator counters (plan shape + vectorized-executor work)
    /// accumulated across the parallel run's workers.
    pub query: mv_core::QueryStats,
}

/// Smoke-tests the `MvdbSession` batch API: evaluates the same workload
/// through a 1-thread and an `threads`-worker session and compares results
/// and wall-clock time. This is the figures-level proof that the shared
/// manager refactor parallelises without changing any probability.
pub fn session_smoke(num_authors: usize, num_queries: usize, threads: usize) -> SessionPoint {
    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let mut queries = data
        .students_of_advisor_workload(num_queries)
        .expect("workload");
    queries.extend(
        data.advisor_of_student_workload(num_queries)
            .expect("workload"),
    );
    let queries: Vec<Ucq> = queries.iter().map(|q| q.boolean()).collect();

    let sequential_session = engine.session();
    let t0 = Instant::now();
    let sequential = sequential_session
        .probabilities(&queries)
        .expect("sequential batch");
    let sequential_time = t0.elapsed();

    let parallel_session = engine.session().with_threads(threads);
    let t1 = Instant::now();
    let parallel = parallel_session
        .probabilities(&queries)
        .expect("parallel batch");
    let parallel_time = t1.elapsed();

    let max_abs_diff = sequential
        .iter()
        .zip(&parallel)
        .map(|(s, p)| (s - p).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_abs_diff < 1e-9,
        "parallel sessions must match sequential results (diff {max_abs_diff})"
    );
    SessionPoint {
        num_authors,
        threads,
        num_queries: queries.len(),
        sequential: sequential_time,
        parallel: parallel_time,
        max_abs_diff,
        manager: parallel_session.last_manager_stats(),
        query: parallel_session.last_query_stats(),
    }
}

// ---------------------------------------------------------------------------
// The sharded scale-out harness
// ---------------------------------------------------------------------------

/// A latency percentile of a sorted sample (nearest-rank, `q` in `[0, 1]`).
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Result of the sharded-throughput experiment: one sustained batch through
/// a component-sharded session versus the same batch through a single-shard
/// session (the sequential baseline with identical routing overhead).
#[derive(Debug, Clone)]
pub struct ShardedPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Shards of the partitioned run.
    pub num_shards: usize,
    /// Connected components the partition was built from.
    pub num_components: usize,
    /// Number of Boolean queries in the sustained batch.
    pub num_queries: usize,
    /// Wall-clock time of the single-shard session over the batch.
    pub single_shard: Duration,
    /// Wall-clock time of the `num_shards`-shard session over the batch.
    pub sharded: Duration,
    /// Per-query service-latency percentiles of the sharded run.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Largest absolute difference between sharded and oracle results on
    /// the distinct workload queries (the exactness check; must stay below
    /// 1e-9 — sharding is a scheduling choice, never a semantics choice).
    pub max_abs_diff: f64,
    /// Sub-queries evaluated per shard during the sharded batch.
    pub shard_queries: Vec<u64>,
    /// Queries that degraded to the unsharded oracle.
    pub fallbacks: u64,
    /// Merged manager counters of the sharded batch (every shard worker's
    /// query side plus the index's delta).
    pub manager: ManagerStats,
    /// Merged query-layer counters of the sharded batch.
    pub query: mv_core::QueryStats,
    /// Nodes in the index arena (sinks included) when the compile finished
    /// and after the whole campaign: readers never write the index, so the
    /// two must be equal.
    pub index_nodes: (usize, usize),
}

impl ShardedPoint {
    /// Batch throughput of the sharded session over the single-shard one.
    pub fn speedup_total(&self) -> f64 {
        secs(self.single_shard) / secs(self.sharded).max(1e-12)
    }
}

/// The mixed scale-out workload: the Boolean Figure 5/6 point queries with
/// one broad Figure 2-style name-selection query every `stride` queries,
/// and (optionally) one *heavy* name-selection query every `heavy_stride`.
///
/// The point queries touch one or two dependency components each, so their
/// cost is dominated by routing. The broad queries (`students of an advisor
/// whose name matches %f000d%`, one fragment per 100-aid advisor band) have
/// lineages of several hundred clauses spanning hundreds of components. The
/// heavy queries (`%f000%` / `%f001%`, each a 1000-aid advisor band) reach
/// thousands of clauses over about a thousand index blocks — the largest
/// diagrams and slices the online path builds, at a cost linear in both,
/// so the shards gain on them what they gain everywhere: one core each.
/// Returns `(stream, distinct)`; the distinct list drives the exactness
/// check against the oracle.
pub fn sharded_workload(
    data: &DblpDataset,
    num_distinct_point: usize,
    num_queries: usize,
    stride: usize,
    heavy_stride: Option<usize>,
) -> (Vec<Ucq>, Vec<Ucq>) {
    let named = |fragment: &str| {
        mv_dblp::queries::students_of_advisor_named(fragment)
            .expect("fragment query parses")
            .boolean()
    };
    let mut distinct: Vec<Ucq> = query_eval_workload(data, num_distinct_point)
        .iter()
        .map(|q| q.boolean())
        .collect();
    let broad: Vec<Ucq> = (1..=9).map(|d| named(&format!("f000{d}"))).collect();
    let heavy: Vec<Ucq> = ["f000", "f001"].iter().map(|f| named(f)).collect();
    let point_len = distinct.len();
    let stream = (0..num_queries)
        .map(|i| match heavy_stride {
            Some(h) if i % h == 0 => heavy[(i / h) % heavy.len()].clone(),
            _ if i % stride == 0 => broad[(i / stride) % broad.len()].clone(),
            _ => distinct[i % point_len].clone(),
        })
        .collect();
    distinct.extend(broad);
    if heavy_stride.is_some() {
        distinct.extend(heavy);
    }
    (stream, distinct)
}

/// Broad-query stride of the sustained sharded campaign (one Figure 2-style
/// name-selection query per this many point queries).
pub const SHARDED_BROAD_STRIDE: usize = 256;

/// Heavy-query stride of the sustained sharded campaign: one
/// thousand-component name-selection query per this many queries. Rare
/// enough to leave the tail percentiles point-query-shaped, frequent
/// enough that a super-linear synthesis or slice assembly would show as a
/// superlinear campaign speedup (the CI canary).
pub const SHARDED_HEAVY_STRIDE: usize = 10_240;

/// The sustained-throughput experiment of the scale-out sharding layer:
/// streams the mixed [`sharded_workload`] (point queries plus a broad
/// name-selection query every [`SHARDED_BROAD_STRIDE`]) through a
/// single-shard session and a `num_shards`-shard session of the same
/// engine. Exactness against the unsharded oracle is asserted on the
/// distinct workload queries before anything is timed (the check doubles
/// as warmup).
pub fn sharded_throughput(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
) -> ShardedPoint {
    let data = dataset_v1v2(num_authors);
    // A wide slice of distinct point constants: with only a handful of
    // distinct queries the batch degenerates into cache-hit replays whose
    // fixed per-query cost caps the speedup.
    let (queries, distinct) = sharded_workload(
        &data,
        num_authors / 4,
        num_queries,
        SHARDED_BROAD_STRIDE,
        Some(SHARDED_HEAVY_STRIDE),
    );
    let engine = ShardedEngine::compile(&data.mvdb, num_shards).expect("sharded engine compiles");
    let index_nodes_compiled = engine.full().index().manager().num_nodes();
    let single =
        ShardedEngine::from_engine(engine.full().clone(), 1).expect("single-shard engine compiles");

    // Exactness oracle (and warmup): every distinct query must agree with
    // the unsharded engine.
    let max_abs_diff = distinct
        .iter()
        .map(|q| {
            let p = engine.probability(q).expect("sharded probability");
            let r = engine.full().probability(q).expect("oracle probability");
            (p - r).abs()
        })
        .fold(0.0f64, f64::max);
    assert!(
        max_abs_diff < 1e-9,
        "sharded evaluation must match the oracle (diff {max_abs_diff})"
    );

    let backend = EngineBackend::MvIndex(engine.full().intersect_algorithm());
    let single_session = single.session();
    let t0 = Instant::now();
    single_session
        .probabilities_with_backend(&queries, backend)
        .expect("single-shard batch");
    let single_time = t0.elapsed();

    // The ladder over the same exact backend: identical answers on a clean
    // run, plus each query's service latency in its outcome.
    let session = engine.session();
    let t1 = Instant::now();
    let outcomes =
        session.resilient_probabilities(&queries, &mv_core::ResilienceConfig::with_inner(backend));
    let sharded_time = t1.elapsed();
    assert!(outcomes.iter().all(|o| o.answered()), "sharded batch");
    let mut latencies: Vec<Duration> = outcomes.iter().map(|o| o.elapsed).collect();
    latencies.sort();

    ShardedPoint {
        num_authors,
        num_shards,
        num_components: engine.partition().num_components(),
        num_queries: queries.len(),
        single_shard: single_time,
        sharded: sharded_time,
        p50: percentile(&latencies, 0.50),
        p95: percentile(&latencies, 0.95),
        p99: percentile(&latencies, 0.99),
        max_abs_diff,
        shard_queries: session.last_shard_queries(),
        fallbacks: session.last_fallbacks(),
        manager: session.last_manager_stats(),
        query: session.last_query_stats(),
        index_nodes: (
            index_nodes_compiled,
            engine.full().index().manager().num_nodes(),
        ),
    }
}

/// One run of the `query_sharded` microbenchmark: the Figure 5/6 workload
/// (scaled up by cycling) through sharded sessions at several shard
/// counts, each batch warmed once and reported as best-of-`reps`.
#[derive(Debug, Clone)]
pub struct QueryShardedPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Number of Boolean queries in the batch.
    pub num_queries: usize,
    /// Timed repetitions per shard count (best is reported).
    pub reps: usize,
    /// `(shard count, best-of-reps batch time)`, ascending by shard count.
    pub shard_times: Vec<(usize, Duration)>,
    /// Largest absolute difference against the unsharded oracle across all
    /// shard counts on the distinct workload queries.
    pub max_abs_diff: f64,
}

impl QueryShardedPoint {
    /// Best batch time at a shard count (panics if the count was not run).
    pub fn time_at(&self, shards: usize) -> Duration {
        self.shard_times
            .iter()
            .find(|(s, _)| *s == shards)
            .map(|(_, d)| *d)
            .expect("shard count was benchmarked")
    }

    /// Speedup of `shards` shards over the single-shard baseline.
    pub fn speedup_at(&self, shards: usize) -> f64 {
        secs(self.time_at(1)) / secs(self.time_at(shards)).max(1e-12)
    }
}

/// Runs the `query_sharded` microbenchmark at shard counts 1/2/4/8.
pub fn microbench_query_sharded(
    num_authors: usize,
    num_queries: usize,
    reps: usize,
) -> QueryShardedPoint {
    let data = dataset_v1v2(num_authors);
    let (queries, distinct) = sharded_workload(&data, num_authors / 4, num_queries, 128, None);
    let full = MvdbEngine::compile(&data.mvdb).expect("engine compiles");
    let oracle: Vec<f64> = distinct
        .iter()
        .map(|q| full.probability(q).expect("oracle probability"))
        .collect();
    let backend = EngineBackend::MvIndex(full.intersect_algorithm());
    let mut shard_times = Vec::new();
    let mut max_abs_diff = 0.0f64;
    for shards in [1, 2, 4, 8] {
        let engine =
            ShardedEngine::from_engine(full.clone(), shards).expect("sharded engine compiles");
        // Exactness check per shard count; doubles as the warmup pass.
        for (q, r) in distinct.iter().zip(&oracle) {
            let p = engine.probability(q).expect("sharded probability");
            max_abs_diff = max_abs_diff.max((p - r).abs());
        }
        assert!(
            max_abs_diff < 1e-9,
            "sharded evaluation must match the oracle (diff {max_abs_diff})"
        );
        let session = engine.session();
        let best = (0..reps.max(1))
            .map(|_| {
                let t = Instant::now();
                session
                    .probabilities_with_backend(&queries, backend)
                    .expect("sharded batch");
                t.elapsed()
            })
            .min()
            .expect("at least one rep");
        shard_times.push((shards, best));
    }
    QueryShardedPoint {
        num_authors,
        num_queries: queries.len(),
        reps: reps.max(1),
        shard_times,
        max_abs_diff,
    }
}

// ---------------------------------------------------------------------------
// The `manager_hotpath` microbenchmark
// ---------------------------------------------------------------------------

/// One run of the `manager_hotpath` microbenchmark: the same DBLP-style
/// workload (OR-folds of two-literal clauses, negation, then bulk cached
/// probability passes over changing weight epochs) executed twice — once
/// through the production [`ObddManager`](mv_obdd::ObddManager) (FxHash
/// unique table, lossy direct-mapped computed table, dense side tables,
/// explicit-stack traversals) and once through the pre-rework-style
/// [`mv_obdd::RefManager`] (SipHash `HashMap` caches, recursion). The
/// speedups are the recorded proof of the cache-conscious design.
#[derive(Debug, Clone)]
pub struct MicrobenchPoint {
    /// Number of tuple variables in the order.
    pub num_vars: usize,
    /// Number of query diagrams built.
    pub num_queries: usize,
    /// Two-literal clauses OR-folded into each query diagram.
    pub clauses_per_query: usize,
    /// Bulk-probability passes over all diagrams (every fourth pass starts
    /// a new weight epoch, so the runs mix cold recomputation with warm
    /// cache hits).
    pub prob_reps: usize,
    /// Apply + negate time through the production manager.
    pub manager_apply: Duration,
    /// Bulk cached-probability time through the production manager.
    pub manager_prob: Duration,
    /// Apply + negate time through the hash-map reference.
    pub reference_apply: Duration,
    /// Bulk cached-probability time through the hash-map reference.
    pub reference_prob: Duration,
    /// Largest |manager − reference| difference over all per-pass
    /// probability sums (the two implementations must agree exactly).
    pub max_abs_diff: f64,
    /// Production-manager counters for the run (probe hits/misses, lossy
    /// evictions, computed-table resizes).
    pub manager: ManagerStats,
}

impl MicrobenchPoint {
    /// Reference / manager wall-clock ratio on the apply+negate phase.
    pub fn speedup_apply(&self) -> f64 {
        secs(self.reference_apply) / secs(self.manager_apply).max(1e-12)
    }

    /// Reference / manager wall-clock ratio on the bulk-probability phase.
    pub fn speedup_prob(&self) -> f64 {
        secs(self.reference_prob) / secs(self.manager_prob).max(1e-12)
    }

    /// Reference / manager wall-clock ratio over both phases combined (the
    /// "apply + probability path" number the acceptance gate checks).
    pub fn speedup_total(&self) -> f64 {
        secs(self.reference_apply + self.reference_prob)
            / secs(self.manager_apply + self.manager_prob).max(1e-12)
    }
}

/// The deterministic DBLP-style workload of the microbenchmark: per query, a
/// list of two-literal clauses (an "advisor" variable joined with a nearby
/// "student" variable, like the per-answer lineages of Figures 5/6). Three
/// properties mirror the real online phase: clause variable pairs span at
/// most a few levels (the π order keeps groundings level-local, so diagrams
/// stay narrow instead of blowing up); clauses repeat across queries; and
/// every distinct query recurs ~10× across the batch (hot queries under
/// production traffic) — the sharing patterns the shared-arena unique table,
/// the computed table and the epoch-stamped probability cache exist for.
pub fn hotpath_workload(
    num_vars: usize,
    num_queries: usize,
    clauses_per_query: usize,
) -> Vec<Vec<[TupleId; 2]>> {
    // The largest id emitted is 2*(half-1) + 3; below 8 variables that
    // bound cannot be honoured, so fail here with a clear message instead
    // of deep inside a diagram build with an UnknownVariable error.
    assert!(
        num_vars >= 8,
        "hotpath_workload needs at least 8 variables (got {num_vars})"
    );
    let half = (num_vars / 2).saturating_sub(2).max(1);
    let distinct = (num_queries / 10).max(1);
    (0..num_queries)
        .map(|i| {
            let q = i % distinct;
            (0..clauses_per_query)
                .map(|j| {
                    let a = 2 * ((q * 13 + j * 5) % half);
                    let b = a + 1 + (q + j) % 3;
                    [TupleId(a as u32), TupleId(b as u32)]
                })
                .collect()
        })
        .collect()
}

/// The weight function of the microbenchmark (distinct per variable).
pub fn hotpath_prob(num_vars: usize) -> impl Fn(TupleId) -> f64 + Copy {
    move |t: TupleId| 0.05 + 0.9 * (f64::from(t.0) / num_vars.max(1) as f64)
}

/// Builds every workload diagram in one shared [`mv_obdd::ObddManager`]
/// (OR-fold of the clauses), then negates every other diagram — the compile-shaped half
/// of the hot path. Returns the manager and all roots (negations included).
pub fn manager_hotpath_build(
    order: &std::sync::Arc<mv_obdd::VarOrder>,
    workload: &[Vec<[TupleId; 2]>],
) -> (mv_obdd::ObddManager, Vec<Obdd>) {
    let manager = mv_obdd::ObddManager::new(std::sync::Arc::clone(order));
    let mut diagrams: Vec<Obdd> = workload
        .iter()
        .map(|clauses| manager.dnf(clauses).expect("dnf builds"))
        .collect();
    let negated: Vec<Obdd> = diagrams.iter().step_by(2).map(Obdd::negate).collect();
    diagrams.extend(negated);
    (manager, diagrams)
}

/// The same build through the recursive hash-map reference implementation.
pub fn reference_hotpath_build(
    order: &std::sync::Arc<mv_obdd::VarOrder>,
    workload: &[Vec<[TupleId; 2]>],
) -> (mv_obdd::RefManager, Vec<mv_obdd::NodeId>) {
    let mut reference = mv_obdd::RefManager::new(std::sync::Arc::clone(order));
    let mut roots: Vec<mv_obdd::NodeId> = workload
        .iter()
        .map(|clauses| {
            let mut acc = mv_obdd::RefManager::constant(false);
            for pair in clauses {
                let clause = reference.clause(pair).expect("clause builds");
                acc = reference.apply_or(acc, clause);
            }
            acc
        })
        .collect();
    let negated: Vec<mv_obdd::NodeId> = roots
        .iter()
        .step_by(2)
        .copied()
        .collect::<Vec<_>>()
        .into_iter()
        .map(|r| reference.negate(r))
        .collect();
    roots.extend(negated);
    (reference, roots)
}

/// One bulk-probability pass over all manager diagrams (cached, one lock
/// acquisition for the whole batch); bumps the weight epoch first when
/// `new_epoch` is set.
pub fn manager_bulk_probability(
    manager: &mv_obdd::ObddManager,
    diagrams: &[Obdd],
    prob_of: impl Fn(TupleId) -> f64 + Copy,
    new_epoch: bool,
) -> f64 {
    if new_epoch {
        manager.bump_weight_epoch();
    }
    manager
        .bulk_probability_cached(diagrams, prob_of)
        .into_iter()
        .sum()
}

/// One bulk-probability pass through the reference implementation; clears
/// its hash-map cache first when `new_epoch` is set (the reference's
/// analogue of an epoch bump).
pub fn reference_bulk_probability(
    reference: &mut mv_obdd::RefManager,
    roots: &[mv_obdd::NodeId],
    prob_of: impl Fn(TupleId) -> f64 + Copy,
    new_epoch: bool,
) -> f64 {
    if new_epoch {
        reference.clear_prob_cache();
    }
    roots
        .iter()
        .map(|&r| reference.probability(r, &prob_of))
        .sum()
}

/// Runs the full microbenchmark at one scale: apply+negate and
/// `prob_reps` bulk-probability passes (a new weight epoch every fourth
/// pass), through the production manager and through the reference, with an
/// exact agreement check on every per-pass sum.
pub fn microbench_manager_hotpath(
    num_vars: usize,
    num_queries: usize,
    clauses_per_query: usize,
    prob_reps: usize,
) -> MicrobenchPoint {
    let order = std::sync::Arc::new(mv_obdd::VarOrder::from_tuples(
        (0..num_vars as u32).map(TupleId),
    ));
    let workload = hotpath_workload(num_vars, num_queries, clauses_per_query);
    let prob_of = hotpath_prob(num_vars);

    // Untimed warmup of both code paths (allocator, branch predictors), so
    // the first timed phase is not penalised for going first.
    {
        let mini = hotpath_workload(num_vars, (num_queries / 8).max(1), clauses_per_query);
        let (manager, diagrams) = manager_hotpath_build(&order, &mini);
        let _ = manager_bulk_probability(&manager, &diagrams, prob_of, true);
        let (mut reference, roots) = reference_hotpath_build(&order, &mini);
        let _ = reference_bulk_probability(&mut reference, &roots, prob_of, true);
    }

    let t0 = Instant::now();
    let (manager, diagrams) = manager_hotpath_build(&order, &workload);
    let manager_apply = t0.elapsed();
    let t1 = Instant::now();
    let manager_sums: Vec<f64> = (0..prob_reps)
        .map(|rep| manager_bulk_probability(&manager, &diagrams, prob_of, rep % 4 == 0))
        .collect();
    let manager_prob = t1.elapsed();
    let stats = manager.stats();

    let t2 = Instant::now();
    let (mut reference, roots) = reference_hotpath_build(&order, &workload);
    let reference_apply = t2.elapsed();
    let t3 = Instant::now();
    let reference_sums: Vec<f64> = (0..prob_reps)
        .map(|rep| reference_bulk_probability(&mut reference, &roots, prob_of, rep % 4 == 0))
        .collect();
    let reference_prob = t3.elapsed();

    let max_abs_diff = manager_sums
        .iter()
        .zip(&reference_sums)
        .map(|(m, r)| (m - r).abs())
        .fold(0.0f64, f64::max);
    assert!(
        max_abs_diff < 1e-9,
        "manager and reference disagree by {max_abs_diff}"
    );

    MicrobenchPoint {
        num_vars,
        num_queries,
        clauses_per_query,
        prob_reps,
        manager_apply,
        manager_prob,
        reference_apply,
        reference_prob,
        max_abs_diff,
        manager: stats,
    }
}

/// The microbenchmark scale used by the figures binary: quick mode stays
/// under a second, full mode a few seconds.
pub fn microbench_scale(quick: bool) -> (usize, usize, usize, usize) {
    if quick {
        (2000, 3000, 8, 50)
    } else {
        (4000, 10000, 10, 100)
    }
}

/// The Figure 5/6 query workload: `num_queries` *advisor of a student* and
/// `num_queries` *students of an advisor* queries over the given corpus.
pub fn query_eval_workload(data: &DblpDataset, num_queries: usize) -> Vec<Ucq> {
    let mut queries = data
        .advisor_of_student_workload(num_queries)
        .expect("workload");
    queries.extend(
        data.students_of_advisor_workload(num_queries)
            .expect("workload"),
    );
    queries
}

// ---------------------------------------------------------------------------
// The `approx` accuracy/throughput series
// ---------------------------------------------------------------------------

/// One rung of the CI-width-vs-sample-count ladder of the `approx` series.
#[derive(Debug, Clone, Copy)]
pub struct ApproxRung {
    /// Per-query sample budget of this rung.
    pub samples: u64,
    /// Mean CI half-width over the workload.
    pub mean_half_width: f64,
    /// Largest CI half-width over the workload.
    pub max_half_width: f64,
    /// Largest |estimate − exact| over the workload.
    pub max_abs_err: f64,
}

/// One scaling point of the `approx` series: the Monte Carlo backend on the
/// Figure 5/6 workload, with exact-vs-approx error, CI width per sample
/// budget, and sampling throughput.
#[derive(Debug, Clone)]
pub struct ApproxPoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Boolean workload queries (Figure 5 + Figure 6 families).
    pub num_queries: usize,
    /// The fixed stream seed of the run.
    pub seed: u64,
    /// CI width vs sample count, smallest budget first.
    pub rungs: Vec<ApproxRung>,
    /// Worlds drawn per second across the whole run.
    pub samples_per_sec: f64,
    /// Total worlds drawn across all rungs and queries.
    pub total_samples: u64,
    /// Largest |estimate − exact| at the final (largest) rung.
    pub abs_err_max: f64,
    /// Mean |estimate − exact| at the final rung.
    pub abs_err_mean: f64,
    /// Queries whose final CI contains the exact probability.
    pub covered: usize,
    /// Interval-method usage at the final rung (Wilson / Hoeffding / Normal).
    pub methods: [usize; 3],
}

/// The sample-budget ladder of the `approx` series.
pub fn approx_ladder(quick: bool) -> Vec<u64> {
    if quick {
        vec![1_000, 4_000, 16_000]
    } else {
        vec![2_000, 8_000, 32_000]
    }
}

/// Runs the `approx` series at one scale: estimates every Figure 5/6
/// workload query with the Monte Carlo backend at each budget of `ladder`,
/// against the exact probabilities of the MV-index backend.
pub fn approx_accuracy(
    num_authors: usize,
    num_queries: usize,
    threads: usize,
    ladder: &[u64],
) -> ApproxPoint {
    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let queries: Vec<Ucq> = query_eval_workload(&data, num_queries)
        .iter()
        .map(|q| q.boolean())
        .collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| engine.probability(q).expect("exact probability"))
        .collect();

    let session = engine.session().with_threads(threads);
    let seed = 0xA402_0C25u64;
    let mut rungs = Vec::with_capacity(ladder.len());
    let mut total_samples = 0u64;
    let mut final_answers = Vec::new();
    let t0 = Instant::now();
    for &samples in ladder {
        let config = ApproxConfig {
            seed,
            confidence: 0.99,
            target_half_width: 0.0, // fixed budgets: the ladder measures width vs n
            max_samples: samples,
            ..ApproxConfig::default()
        };
        let answers = session
            .approx_probabilities(&queries, &config)
            .expect("batch estimates");
        total_samples += answers.iter().map(|a| a.samples).sum::<u64>();
        let widths: Vec<f64> = answers.iter().map(|a| a.half_width).collect();
        let errors: Vec<f64> = answers
            .iter()
            .zip(&exact)
            .map(|(a, e)| (a.clamped() - e).abs())
            .collect();
        rungs.push(ApproxRung {
            samples,
            mean_half_width: widths.iter().sum::<f64>() / widths.len() as f64,
            max_half_width: widths.iter().copied().fold(0.0, f64::max),
            max_abs_err: errors.iter().copied().fold(0.0, f64::max),
        });
        final_answers = answers;
    }
    let elapsed = t0.elapsed();

    let errors: Vec<f64> = final_answers
        .iter()
        .zip(&exact)
        .map(|(a, e)| (a.clamped() - e).abs())
        .collect();
    let mut methods = [0usize; 3];
    for a in &final_answers {
        let slot = match a.method {
            IntervalMethod::Wilson => 0,
            IntervalMethod::Hoeffding => 1,
            IntervalMethod::Normal => 2,
        };
        methods[slot] += 1;
    }
    ApproxPoint {
        num_authors,
        num_queries: queries.len(),
        seed,
        rungs,
        samples_per_sec: total_samples as f64 / secs(elapsed).max(1e-9),
        total_samples,
        abs_err_max: errors.iter().copied().fold(0.0, f64::max),
        abs_err_mean: errors.iter().sum::<f64>() / errors.len().max(1) as f64,
        covered: final_answers
            .iter()
            .zip(&exact)
            .filter(|(a, e)| a.contains(**e))
            .count(),
        methods,
    }
}

/// Formats a duration in seconds with millisecond precision (the unit of the
/// paper's plots).
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Sanity helper used by benches: checks an engine answers a workload with
/// probabilities in `[0, 1]`.
pub fn check_workload(engine: &MvdbEngine, queries: &[Ucq]) {
    for q in queries {
        for (_, p) in engine.answers(q).expect("answers") {
            assert!(
                (-1e-9..=1.0 + 1e-9).contains(&p),
                "probability {p} out of range"
            );
        }
    }
}

/// Convenience used by benches: compile an engine with a specific
/// intersection algorithm.
pub fn compile_engine(data: &DblpDataset, algo: IntersectAlgorithm) -> MvdbEngine {
    MvdbEngine::compile_with(&data.mvdb, algo).expect("compiles")
}

/// Per-rung answer counts of a resilience run.
#[derive(Debug, Clone, Default)]
pub struct RungCounts {
    /// Queries answered on the exact rung.
    pub exact: u64,
    /// Queries answered on the bounded-exact rung.
    pub bounded: u64,
    /// Queries answered on the Monte Carlo rung.
    pub monte_carlo: u64,
}

/// One `(site, fault, draws, injected)` row of the chaos accounting.
pub type InjectionRow = (String, mv_core::chaos::Fault, u64, u64);

/// One run of the resilience campaign: a sustained sharded batch evaluated
/// through [`mv_core::ShardedSession::resilient_probabilities`] twice —
/// once clean, once under a seeded fault-injection campaign — with the
/// chaos run's degradation, retry and exactness accounting.
#[derive(Debug, Clone)]
pub struct ResiliencePoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Shards of the partitioned run.
    pub num_shards: usize,
    /// Number of Boolean queries in the batch.
    pub num_queries: usize,
    /// Seed of the chaos campaign.
    pub chaos_seed: u64,
    /// Wall-clock time of the clean resilient batch.
    pub clean_time: Duration,
    /// Wall-clock time of the batch under fault injection.
    pub chaos_time: Duration,
    /// Queries that received no answer under chaos (must stay zero: the
    /// workload is semantically valid, so the ladder always has a rung).
    pub lost: u64,
    /// Queries answered below the exact rung under chaos.
    pub degraded: u64,
    /// Per-rung answer counts under chaos.
    pub rungs: RungCounts,
    /// Queries that fell back to the unsharded oracle under chaos.
    pub fallbacks: u64,
    /// Total retry attempts spent under chaos.
    pub retries: u64,
    /// Largest absolute difference of exact-rung chaos answers against the
    /// clean run (the exactness gate; must stay below 1e-9).
    pub exact_max_abs_err: f64,
    /// Largest absolute difference of degraded chaos answers against the
    /// clean run.
    pub degraded_max_abs_err: f64,
    /// Largest advertised half-width among degraded answers.
    pub max_epsilon: f64,
    /// Chaos-run service-latency percentiles.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// The chaos accounting: `(site, fault, draws, injected)` per rule.
    pub injections: Vec<InjectionRow>,
}

impl ResiliencePoint {
    /// Fraction of queries answered below the exact rung under chaos.
    pub fn degraded_fraction(&self) -> f64 {
        self.degraded as f64 / (self.num_queries as f64).max(1.0)
    }
}

/// The default chaos campaign of the resilience benchmark: panics in
/// routing and shard evaluation, budget trips on the exact rung and
/// deadline trips on the bounded rung. The Monte Carlo rung and the oracle
/// rescue path stay clean, so every valid query is structurally guaranteed
/// an answer — "zero lost" is a gate, not a hope.
pub fn resilience_chaos_config(seed: u64) -> mv_core::chaos::ChaosConfig {
    use mv_core::chaos::{sites, ChaosConfig, Fault};
    ChaosConfig::new(seed)
        .rule(sites::ROUTE, Fault::Panic, 0.002)
        .rule(sites::SHARD_EVAL, Fault::Panic, 0.005)
        .rule(sites::EXACT_RUNG, Fault::Budget, 0.02)
        .rule(sites::BOUNDED_RUNG, Fault::Deadline, 0.2)
}

/// Runs the resilience campaign: the mixed point + broad [`sharded_workload`]
/// through a resilient sharded session, clean and under
/// [`resilience_chaos_config`] — or, when the `MV_CHAOS` environment
/// variable is set, under that spec instead (its seed overrides
/// `chaos_seed`). Asserts the hard invariants (every query answered in
/// both runs, clean run fully exact) and reports the soft series
/// (degradation, retries, exactness, latency) for the JSON gates.
pub fn resilience_campaign(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> ResiliencePoint {
    use mv_core::chaos::{self, ChaosConfig};
    use mv_core::{ResilienceConfig, Rung};

    let chaos_config = match ChaosConfig::from_env() {
        Ok(Some(spec)) => spec,
        Ok(None) => resilience_chaos_config(chaos_seed),
        Err(e) => panic!("invalid MV_CHAOS spec: {e}"),
    };
    let chaos_seed = chaos_config.seed;

    let data = dataset_v1v2(num_authors);
    let (queries, _) = sharded_workload(
        &data,
        num_authors / 4,
        num_queries,
        SHARDED_BROAD_STRIDE,
        None,
    );
    let engine = ShardedEngine::compile(&data.mvdb, num_shards).expect("sharded engine compiles");
    let session = engine.session();
    // The campaign's ladder trades Monte Carlo precision for throughput:
    // at the default ±0.01 target a degraded broad query runs ~2.6e5
    // samples and the chaos pass takes minutes instead of seconds.
    let config = ResilienceConfig {
        epsilon: 0.05,
        mc_max_samples: 1 << 16,
        node_budget: 1 << 22,
        ..ResilienceConfig::default()
    };

    // Clean pass under a rule-free guard (serializes against any other
    // chaos campaign in the process and injects nothing).
    let clean = {
        let _guard = chaos::install(ChaosConfig::new(0));
        let t0 = Instant::now();
        let outcomes = session.resilient_probabilities(&queries, &config);
        let clean_time = t0.elapsed();
        for (i, o) in outcomes.iter().enumerate() {
            assert!(o.answered(), "clean slot {i} lost: {:?}", o.fault);
            assert_eq!(o.rung, Some(Rung::Exact), "clean slot {i} degraded");
        }
        (outcomes, clean_time)
    };
    let (clean_outcomes, clean_time) = clean;

    // Chaos pass.
    let guard = chaos::install(chaos_config);
    let t1 = Instant::now();
    let outcomes = session.resilient_probabilities(&queries, &config);
    let chaos_time = t1.elapsed();
    let injections = chaos::injection_counts();
    drop(guard);

    let mut point = ResiliencePoint {
        num_authors,
        num_shards,
        num_queries: queries.len(),
        chaos_seed,
        clean_time,
        chaos_time,
        lost: 0,
        degraded: 0,
        rungs: RungCounts::default(),
        fallbacks: 0,
        retries: 0,
        exact_max_abs_err: 0.0,
        degraded_max_abs_err: 0.0,
        max_epsilon: 0.0,
        p50: Duration::ZERO,
        p95: Duration::ZERO,
        p99: Duration::ZERO,
        injections,
    };
    let mut latencies = Vec::with_capacity(outcomes.len());
    for (o, c) in outcomes.iter().zip(&clean_outcomes) {
        latencies.push(o.elapsed);
        point.retries += u64::from(o.retries);
        if o.fallback {
            point.fallbacks += 1;
        }
        let Some(p) = o.probability else {
            point.lost += 1;
            continue;
        };
        let err = (p - c.probability.expect("clean run answered")).abs();
        match o.rung.expect("answered outcomes carry a rung") {
            Rung::Exact => {
                point.rungs.exact += 1;
                point.exact_max_abs_err = point.exact_max_abs_err.max(err);
            }
            Rung::BoundedExact => {
                point.rungs.bounded += 1;
                point.degraded += 1;
                point.degraded_max_abs_err = point.degraded_max_abs_err.max(err);
            }
            Rung::MonteCarlo => {
                point.rungs.monte_carlo += 1;
                point.degraded += 1;
                point.degraded_max_abs_err = point.degraded_max_abs_err.max(err);
                point.max_epsilon = point.max_epsilon.max(o.epsilon.unwrap_or(0.0));
            }
        }
    }
    latencies.sort();
    point.p50 = percentile(&latencies, 0.50);
    point.p95 = percentile(&latencies, 0.95);
    point.p99 = percentile(&latencies, 0.99);
    point
}

/// One paced open-loop pass of the serving soak against a running
/// [`MvdbServer`](mv_core::MvdbServer).
#[derive(Debug, Clone)]
pub struct ServeRun {
    /// Wall-clock of the pass, first submission to last reply.
    pub elapsed: Duration,
    /// Requests offered by the pacer (admitted + rejected; warmup
    /// requests are excluded).
    pub offered: u64,
    /// Offered requests rejected by admission control (backpressure).
    pub shed: u64,
    /// Resolved requests that carried an answer.
    pub answered: u64,
    /// Admitted requests that resolved without an answer (the hard gate:
    /// zero — admitted queries are never silently dropped).
    pub lost: u64,
    /// Admissions the overload controller entered below the exact rung.
    pub degraded_admissions: u64,
    /// Per-rung answer counts.
    pub rungs: RungCounts,
    /// Answered requests per second of the pass.
    pub throughput_qps: f64,
    /// Largest |err| of exact-rung answers against the oracle (gate:
    /// below 1e-9 — pressure may slow or degrade a query, never corrupt
    /// an exact answer).
    pub exact_max_abs_err: f64,
    /// Largest |err| of degraded (bounded/Monte Carlo) answers against
    /// the oracle.
    pub degraded_max_abs_err: f64,
    /// Largest achieved half-width among Monte Carlo answers.
    pub max_epsilon: f64,
    /// Admission-to-reply latency percentiles over resolved requests.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Server counters at shutdown (warmup requests included).
    pub stats: mv_core::ServerStats,
    /// Chaos accounting of the pass (empty for the clean pass).
    pub injections: Vec<InjectionRow>,
}

impl ServeRun {
    /// Fraction of paced offers rejected by admission control.
    pub fn shed_fraction(&self) -> f64 {
        self.shed as f64 / (self.offered as f64).max(1.0)
    }
}

/// One run of the serving soak: the same over-capacity paced workload
/// driven through a fresh [`MvdbServer`](mv_core::MvdbServer) twice —
/// clean, and under the seeded [`serve_chaos_config`] campaign.
#[derive(Debug, Clone)]
pub struct ServePoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Shards of the served engine.
    pub num_shards: usize,
    /// Worker threads of the server.
    pub num_workers: usize,
    /// Requests offered per pass.
    pub num_queries: usize,
    /// Seed of the chaos pass.
    pub chaos_seed: u64,
    /// Per-request deadline of the soak (scaled off the calibrated
    /// service time, so the latency gate is machine-independent).
    pub deadline: Duration,
    /// Compaction watermark picked by the `W`-size probe.
    pub compact_watermark: usize,
    /// Calibrated exact-evaluation capacity of the engine.
    pub capacity_qps: f64,
    /// Paced arrival rate (1.5x the calibrated capacity).
    pub offered_qps: f64,
    /// The clean pass.
    pub clean: ServeRun,
    /// The pass under fault injection.
    pub chaos: ServeRun,
}

/// The default chaos campaign of the serving soak: admission faults reject
/// with backpressure, dispatch and heartbeat panics kill workers (the
/// supervision path), compaction aborts are absorbed, and budget trips on
/// the exact rung push answers down the ladder. The Monte Carlo rung and
/// the oracle rescue path stay clean, so every admitted query keeps its
/// structural answer guarantee — "zero lost" stays a gate under chaos.
pub fn serve_chaos_config(seed: u64) -> mv_core::chaos::ChaosConfig {
    use mv_core::chaos::{sites, ChaosConfig, Fault};
    ChaosConfig::new(seed)
        .rule(sites::ADMIT, Fault::Panic, 0.002)
        .rule(sites::DISPATCH, Fault::Panic, 0.008)
        .rule(sites::HEARTBEAT, Fault::Panic, 0.001)
        .rule(sites::COMPACT, Fault::Panic, 0.1)
        .rule(sites::EXACT_RUNG, Fault::Budget, 0.01)
}

/// Runs the serving soak: point queries paced at 1.5x the engine's
/// calibrated exact capacity through an [`MvdbServer`](mv_core::MvdbServer)
/// over a sharded engine, once clean and once under [`serve_chaos_config`]
/// (or the `MV_CHAOS` spec when set). The queue is sized to absorb the
/// whole burst, so backpressure engages only when the wait estimate blows
/// the deadline; the overload controller degrades admissions as the
/// backlog crosses the degrade/shed depths. The resilience node budget is
/// kept small so degraded tiers stay cheaper than exact service, and a
/// low fixed compaction watermark makes arena GC fire repeatedly over the
/// garbage that tripped syntheses abandon.
pub fn serve_soak(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> ServePoint {
    use mv_core::chaos::{self, ChaosConfig};
    use mv_core::{ResilienceConfig, ServeConfig};
    use std::sync::Arc;

    let chaos_config = match ChaosConfig::from_env() {
        Ok(Some(spec)) => spec,
        Ok(None) => serve_chaos_config(chaos_seed),
        Err(e) => panic!("invalid MV_CHAOS spec: {e}"),
    };
    let chaos_seed = chaos_config.seed;

    let data = dataset_v1v2(num_authors);
    let distinct: Vec<Ucq> = query_eval_workload(&data, (num_authors / 4).max(8))
        .iter()
        .map(|q| q.boolean())
        .collect();
    let engine =
        Arc::new(ShardedEngine::compile(&data.mvdb, num_shards).expect("sharded engine compiles"));

    // Oracle pass (doubles as index/plan warmup): exact reference answers.
    let oracle: Vec<f64> = distinct
        .iter()
        .map(|q| engine.probability(q).expect("oracle probability"))
        .collect();

    // Capacity calibration the way a server worker serves: one long-lived
    // context on the unsharded engine. (`ShardedEngine::probability` pays a
    // shard fan-out per call, several service times; 1.5x a capacity
    // calibrated on it is an offer the workers absorb without queueing.)
    // The second pass is timed so plan compilation and index warmup don't
    // deflate the estimate.
    let num_workers = 2usize;
    let mean_service = {
        use mv_core::backend::Backend;
        let ctx = engine.full().context();
        let exact = MvIndexBackend::default();
        let mut timed = Duration::ZERO;
        for _pass in 0..2 {
            let t0 = Instant::now();
            for q in &distinct {
                exact.probability(q, &ctx).expect("calibration probability");
            }
            timed = t0.elapsed();
        }
        timed.div_f64(distinct.len() as f64)
    };
    let capacity_qps = num_workers as f64 / secs(mean_service).max(1e-9);
    let offered_qps = 1.5 * capacity_qps;

    // Deadline: scaled to the worst-case drain of the whole burst at
    // *degraded* service cost (a degraded answer measures ~70 warm exact
    // service times), with a 4x margin, so the gate is machine-independent.
    // The soak's latency gate (p99 <= deadline) checks that the backlog
    // stays bounded, not that individual evaluations are fast.
    let deadline = mean_service
        .mul_f64(150.0 * num_queries as f64)
        .max(Duration::from_secs(2));

    // At DBLP scale the monolithic bounded-exact synthesis must rebuild
    // `Q or W` from scratch (millions of nodes), so a *large* node budget
    // would make the "degraded" tiers orders of magnitude slower than the
    // MV-index exact rung and collapse throughput exactly when pressure
    // is highest. A small budget keeps the bounded probe cheap — it
    // either answers a genuinely small query or trips within ~16k node
    // operations and falls through to the bounded-sample Monte Carlo
    // rung, so degraded service stays within a fixed factor of exact.
    let resilience = ResilienceConfig {
        epsilon: 0.05,
        node_budget: 1 << 14,
        mc_max_samples: 512,
        ..ResilienceConfig::default()
    };

    // With the small node budget the ladder never completes (and so never
    // pins) the monolithic `W` diagram, which leaves compaction's live
    // set tiny: everything a tripped synthesis abandoned in the
    // append-only arena is garbage. A low fixed watermark makes the GC
    // fire repeatedly across the soak.
    let compact_watermark = 1 << 12;

    let config = ServeConfig {
        workers: num_workers,
        queue_capacity: num_queries.max(64),
        deadline,
        degrade_depth: 8,
        // The paced backlog peaks near num_queries / 3 (the 0.5x-capacity
        // excess accumulated over the offer window); a shed depth at ~3/4
        // of that peak sends the tail of the burst to the sampling rung.
        shed_depth: (num_queries / 4).max(32),
        widened_epsilon: 0.15,
        resilience,
        // Above the per-request deadline: a slow degraded evaluation must
        // never be mistaken for a wedged worker, or the false-positive
        // requeues would burn the request's requeue budget.
        heartbeat_timeout: deadline * 2,
        compact_watermark,
        max_requeues: 10,
        ..ServeConfig::default()
    };

    let stream: Vec<usize> = (0..num_queries).map(|i| i % distinct.len()).collect();

    let clean = {
        let _guard = chaos::install(ChaosConfig::new(0));
        serve_pass(&engine, &config, &stream, &distinct, &oracle, offered_qps)
    };
    let chaos_run = {
        let guard = chaos::install(chaos_config);
        let mut run = serve_pass(&engine, &config, &stream, &distinct, &oracle, offered_qps);
        run.injections = chaos::injection_counts();
        drop(guard);
        run
    };

    ServePoint {
        num_authors,
        num_shards,
        num_workers,
        num_queries,
        chaos_seed,
        deadline,
        compact_watermark,
        capacity_qps,
        offered_qps,
        clean,
        chaos: chaos_run,
    }
}

/// One paced pass of [`serve_soak`] against a fresh server. Every admitted
/// ticket is waited on, so the pass cannot leak unresolved requests.
fn serve_pass(
    engine: &std::sync::Arc<ShardedEngine>,
    config: &mv_core::ServeConfig,
    stream: &[usize],
    distinct: &[Ucq],
    oracle: &[f64],
    offered_qps: f64,
) -> ServeRun {
    let stages = [oracle.to_vec()];
    paced_pass(engine, config, stream, distinct, &stages, offered_qps, &[]).0
}

/// The generic paced open-loop pass behind [`serve_pass`] and
/// [`update_soak`]: reader requests paced at `offered_qps`, while an
/// optional writer schedule applies `updates` through
/// [`MvdbServer::submit_update`](mv_core::MvdbServer::submit_update),
/// spaced evenly across the offer window so every published snapshot
/// serves a real slice of the read stream. Because snapshots swap
/// mid-stream, a reader's answer is exact if it matches *any* published
/// stage: `oracles` holds one exact answer vector per stage (read-only
/// passes hand in exactly one) and errors are measured against the
/// closest stage.
fn paced_pass(
    engine: &std::sync::Arc<ShardedEngine>,
    config: &mv_core::ServeConfig,
    stream: &[usize],
    distinct: &[Ucq],
    oracles: &[Vec<f64>],
    offered_qps: f64,
    updates: &[mv_core::UpdateBatch],
) -> (ServeRun, UpdateStats) {
    use mv_core::{CoreError, MvdbServer, Rung};

    let server = MvdbServer::start(std::sync::Arc::clone(engine), config.clone());

    // Warm every worker (resolved templates, query manager) before
    // pacing starts, so the soak measures steady-state serving.
    let warmups: Vec<_> = (0..config.workers * 2)
        .filter_map(|i| server.submit(distinct[i % distinct.len()].clone()).ok())
        .collect();
    for t in warmups {
        let _ = t.wait_timeout(Duration::from_secs(120));
    }

    let interval = Duration::from_secs_f64(1.0 / offered_qps.max(1.0));
    let window = interval.mul_f64(stream.len() as f64);
    let start = Instant::now();
    let mut tickets = Vec::with_capacity(stream.len());
    let mut shed = 0u64;
    let mut update_stats = UpdateStats::default();
    std::thread::scope(|scope| {
        let writer = (!updates.is_empty()).then(|| {
            scope.spawn(|| {
                let mut stats = UpdateStats::default();
                for (k, batch) in updates.iter().enumerate() {
                    let due = start + window.mul_f64((k + 1) as f64 / (updates.len() + 1) as f64);
                    let wait = due.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    match server.submit_update(batch) {
                        Ok(out) => {
                            stats.applied += 1;
                            match out.kind {
                                mv_core::UpdateKind::WeightOnly => stats.weight_only += 1,
                                mv_core::UpdateKind::Structural => stats.structural += 1,
                                mv_core::UpdateKind::NoOp => {}
                            }
                            stats.shards_rebuilt += out.shards_rebuilt as u64;
                            stats.shards_reused += out.shards_reused as u64;
                        }
                        // A faulted apply leaves the serving snapshot
                        // untouched; the writer just moves on.
                        Err(_) => stats.failed += 1,
                    }
                }
                stats
            })
        });
        for (i, &slot) in stream.iter().enumerate() {
            // Open-loop pacing: submit at the scheduled instant, bursting
            // to catch up when the pacer overslept (sleep granularity is
            // coarser than the interval at high offered rates).
            let due = start + interval.mul_f64(i as f64);
            let wait = due.saturating_duration_since(Instant::now());
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
            match server.submit(distinct[slot].clone()) {
                Ok(ticket) => tickets.push((slot, ticket)),
                Err(CoreError::Rejected { .. }) => shed += 1,
                Err(e) => panic!("unexpected submission error: {e}"),
            }
        }
        if let Some(writer) = writer {
            update_stats = writer.join().expect("update writer thread");
        }
    });

    let mut run = ServeRun {
        elapsed: Duration::ZERO,
        offered: stream.len() as u64,
        shed,
        answered: 0,
        lost: 0,
        degraded_admissions: 0,
        rungs: RungCounts::default(),
        throughput_qps: 0.0,
        exact_max_abs_err: 0.0,
        degraded_max_abs_err: 0.0,
        max_epsilon: 0.0,
        p50: Duration::ZERO,
        p95: Duration::ZERO,
        p99: Duration::ZERO,
        stats: mv_core::ServerStats::default(),
        injections: Vec::new(),
    };
    let mut latencies = Vec::with_capacity(tickets.len());
    for (slot, ticket) in tickets {
        let out = ticket
            .wait_timeout(Duration::from_secs(300))
            .unwrap_or_else(|_| panic!("soak request for query slot {slot} never resolved"));
        latencies.push(out.total);
        if out.degraded_admission() {
            run.degraded_admissions += 1;
        }
        let Some(p) = out.outcome.probability else {
            run.lost += 1;
            continue;
        };
        run.answered += 1;
        let err = oracles
            .iter()
            .map(|o| (p - o[slot]).abs())
            .fold(f64::INFINITY, f64::min);
        match out.outcome.rung.expect("answered outcomes carry a rung") {
            Rung::Exact => {
                run.rungs.exact += 1;
                run.exact_max_abs_err = run.exact_max_abs_err.max(err);
            }
            Rung::BoundedExact => {
                run.rungs.bounded += 1;
                run.degraded_max_abs_err = run.degraded_max_abs_err.max(err);
            }
            Rung::MonteCarlo => {
                run.rungs.monte_carlo += 1;
                run.degraded_max_abs_err = run.degraded_max_abs_err.max(err);
                run.max_epsilon = run.max_epsilon.max(out.outcome.epsilon.unwrap_or(0.0));
            }
        }
    }
    run.elapsed = start.elapsed();
    run.throughput_qps = run.answered as f64 / secs(run.elapsed).max(1e-9);
    latencies.sort();
    run.p50 = percentile(&latencies, 0.50);
    run.p95 = percentile(&latencies, 0.95);
    run.p99 = percentile(&latencies, 0.99);
    run.stats = server.shutdown();
    (run, update_stats)
}

/// Accounting of the writer side of a live-update pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct UpdateStats {
    /// Batches applied and published as new snapshots.
    pub applied: u64,
    /// Batches that failed (chaos at the update sites); the previous
    /// snapshot kept serving.
    pub failed: u64,
    /// Applied batches that rode the weight-only fast path.
    pub weight_only: u64,
    /// Applied batches that re-translated (structural).
    pub structural: u64,
    /// Sum of `UpdateOutcome::shards_rebuilt` over applied batches: home
    /// shards of index blocks whose key or shape a batch changed.
    pub shards_rebuilt: u64,
    /// Sum of `UpdateOutcome::shards_reused` over applied batches.
    pub shards_reused: u64,
}

/// One run of the live-update soak: the same paced read workload driven
/// through a fresh [`MvdbServer`](mv_core::MvdbServer) three times —
/// read-only baseline, with a concurrent writer applying update batches
/// under snapshot semantics, and the same interleaving under the seeded
/// [`update_chaos_config`] campaign.
#[derive(Debug, Clone)]
pub struct UpdatePoint {
    /// The `aid` domain.
    pub num_authors: usize,
    /// Shards of the served engine.
    pub num_shards: usize,
    /// Worker threads of the server.
    pub num_workers: usize,
    /// Requests offered per pass.
    pub num_queries: usize,
    /// Update batches scheduled per writing pass.
    pub num_updates: usize,
    /// Seed of the chaos pass.
    pub chaos_seed: u64,
    /// Per-request deadline (scaled off the calibrated service time).
    pub deadline: Duration,
    /// Calibrated exact-evaluation capacity of the engine.
    pub capacity_qps: f64,
    /// Paced arrival rate (0.8x capacity: the gate measures update
    /// interference on readers, not overload behaviour).
    pub offered_qps: f64,
    /// The read-only baseline pass.
    pub read_only: ServeRun,
    /// The pass with a clean concurrent writer.
    pub live: ServeRun,
    /// The pass with a writer under fault injection.
    pub chaos: ServeRun,
    /// Writer accounting of the live pass.
    pub live_updates: UpdateStats,
    /// Writer accounting of the chaos pass.
    pub chaos_updates: UpdateStats,
}

/// The chaos campaign of the update soak: heavy faults at both update
/// sites (a quarter of applies panic mid-mutation, a quarter of swaps
/// blow their deadline) plus a trickle of dispatch panics, so the run
/// shows failed applies never corrupt the serving snapshot even while
/// worker supervision is busy. Reader-side rungs stay clean — every
/// answer must still match a published snapshot exactly.
pub fn update_chaos_config(seed: u64) -> mv_core::chaos::ChaosConfig {
    use mv_core::chaos::{sites, ChaosConfig, Fault};
    ChaosConfig::new(seed)
        .rule(sites::DISPATCH, Fault::Panic, 0.005)
        .rule(sites::UPDATE_APPLY, Fault::Panic, 0.25)
        .rule(sites::UPDATE_SWAP, Fault::Deadline, 0.25)
}

/// Builds the update schedule of the soak over the generated MVDB:
/// batches alternate between weight-only nudges of existing probabilistic
/// base tuples (the fast path — no re-translation) and structural
/// inserts of fresh rows modelled on existing ones (full re-translation;
/// the fresh `aid` values are outside the generator's domain, so they
/// join no `W` clause and change no index block).
pub fn update_batches(mvdb: &mv_core::Mvdb, count: usize) -> Vec<mv_core::UpdateBatch> {
    use mv_core::{UpdateBatch, UpdateOp};

    let base = mvdb.base();
    let schema = base.schema();
    let prob: Vec<(String, Vec<mv_pdb::Value>, f64)> = base
        .tuples()
        .filter(|(_, t)| !base.is_deterministic(t.rel) && t.weight.is_valid_base_weight())
        .map(|(id, t)| {
            (
                schema.relation(t.rel).name().to_string(),
                base.tuple_row(id).clone(),
                t.weight.value(),
            )
        })
        .collect();
    assert!(
        !prob.is_empty(),
        "the update soak needs probabilistic base tuples to mutate"
    );
    (0..count)
        .map(|k| {
            if k % 2 == 0 {
                // Weight-only: nudge a handful of existing weights.
                let mut batch = UpdateBatch::new();
                for j in 0..4 {
                    let (rel, row, w) = &prob[(k * 7 + j * 13) % prob.len()];
                    batch.push(UpdateOp::SetTupleWeight {
                        relation: rel.clone(),
                        row: row.clone(),
                        weight: (w * 1.25).clamp(1e-3, 64.0),
                    });
                }
                batch
            } else {
                // Structural: a fresh row modelled on an existing one,
                // keyed far outside the generated `aid` domain.
                let (rel, row, _) = &prob[(k * 11) % prob.len()];
                let mut fresh = row.clone();
                fresh[0] = mv_pdb::Value::int(10_000_000 + k as i64);
                UpdateBatch::new().insert(rel.clone(), fresh, 1.5)
            }
        })
        .collect()
}

/// Runs the live-update soak: point queries paced at 0.8x the engine's
/// calibrated exact capacity (below overload — the gate is update
/// *interference*, not shedding) through an
/// [`MvdbServer`](mv_core::MvdbServer), three times over the same stream:
/// read-only, with a concurrent writer publishing [`update_batches`]
/// under snapshot semantics, and with that writer under
/// [`update_chaos_config`] (or the `MV_CHAOS` spec when set). Per-stage
/// oracles are precomputed by applying the batches cumulatively to a
/// scratch engine, so every reader answer can be checked exactly against
/// the snapshot lineage: each must match *some* published stage to 1e-9.
pub fn update_soak(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> UpdatePoint {
    use mv_core::chaos::{self, ChaosConfig};
    use mv_core::ServeConfig;
    use std::sync::Arc;

    let chaos_config = match ChaosConfig::from_env() {
        Ok(Some(spec)) => spec,
        Ok(None) => update_chaos_config(chaos_seed),
        Err(e) => panic!("invalid MV_CHAOS spec: {e}"),
    };
    let chaos_seed = chaos_config.seed;

    let data = dataset_v1v2(num_authors);
    let distinct: Vec<Ucq> = query_eval_workload(&data, (num_authors / 4).max(8))
        .iter()
        .map(|q| q.boolean())
        .collect();
    let engine =
        Arc::new(ShardedEngine::compile(&data.mvdb, num_shards).expect("sharded engine compiles"));

    let num_updates = 6usize;
    let batches = update_batches(&data.mvdb, num_updates);

    // Stage oracles: stage 0 is the compiled engine as served; stage k is
    // the engine after the first k batches. `apply` is differentially
    // tested against from-scratch rebuilds, so the scratch engine is an
    // exact reference for every snapshot the server can publish.
    let stage0: Vec<f64> = distinct
        .iter()
        .map(|q| engine.probability(q).expect("oracle probability"))
        .collect();
    let mut oracles = vec![stage0];
    let mut scratch = engine.full().clone();
    for batch in &batches {
        scratch.apply(batch).expect("stage oracle apply");
        oracles.push(
            distinct
                .iter()
                .map(|q| scratch.probability(q).expect("stage oracle probability"))
                .collect(),
        );
    }

    // Capacity calibration on the warmed engine (the oracle pass above
    // warmed plans and indexes).
    let num_workers = 2usize;
    let t0 = Instant::now();
    for q in &distinct {
        engine.probability(q).expect("calibration probability");
    }
    let mean_service = t0.elapsed().div_f64(distinct.len() as f64);
    let capacity_qps = num_workers as f64 / secs(mean_service).max(1e-9);
    let offered_qps = 0.8 * capacity_qps;

    let deadline = mean_service
        .mul_f64(30.0 * num_queries as f64)
        .max(Duration::from_secs(2));

    // No degradation thresholds: below capacity the backlog stays small,
    // and keeping every admission on the exact rung means the 1e-9
    // against-some-stage check covers every single answer.
    let config = ServeConfig {
        workers: num_workers,
        queue_capacity: num_queries.max(64),
        deadline,
        degrade_depth: usize::MAX,
        shed_depth: usize::MAX,
        heartbeat_timeout: deadline * 2,
        max_requeues: 10,
        ..ServeConfig::default()
    };

    let stream: Vec<usize> = (0..num_queries).map(|i| i % distinct.len()).collect();

    let (read_only, _) = {
        let _guard = chaos::install(ChaosConfig::new(0));
        paced_pass(
            &engine,
            &config,
            &stream,
            &distinct,
            &oracles[..1],
            offered_qps,
            &[],
        )
    };
    let (live, live_updates) = {
        let _guard = chaos::install(ChaosConfig::new(0));
        paced_pass(
            &engine,
            &config,
            &stream,
            &distinct,
            &oracles,
            offered_qps,
            &batches,
        )
    };
    let (chaos_run, chaos_updates) = {
        let guard = chaos::install(chaos_config);
        let (mut run, stats) = paced_pass(
            &engine,
            &config,
            &stream,
            &distinct,
            &oracles,
            offered_qps,
            &batches,
        );
        run.injections = chaos::injection_counts();
        drop(guard);
        (run, stats)
    };

    UpdatePoint {
        num_authors,
        num_shards,
        num_workers,
        num_queries,
        num_updates,
        chaos_seed,
        deadline,
        capacity_qps,
        offered_qps,
        read_only,
        live,
        chaos: chaos_run,
        live_updates,
        chaos_updates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_point_reports_nonzero_lineage() {
        let p = fig4_lineage_size(200);
        assert!(p.lineage_size > 0);
        assert!(p.num_clauses > 0);
        assert_eq!(p.num_authors, 200);
    }

    #[test]
    fn fig7_fig8_point_reports_matching_sizes() {
        let p = fig7_fig8_obdd_construction(200);
        assert!(p.obdd_size > 0);
        assert!(
            p.sizes_match,
            "ConOBDD and synthesis must build the same reduced OBDD"
        );
    }

    #[test]
    fn fig9_point_produces_positive_times() {
        let p = fig9_intersection(200, 3);
        assert!(p.index_size > 0);
        assert!(p.mv_intersect.as_nanos() > 0);
        assert!(p.cc_mv_intersect.as_nanos() > 0);
    }

    #[test]
    fn fig10_report_contains_one_row_per_query() {
        let r = fig10_fig11_full_dataset(300, 5, false);
        assert_eq!(r.queries.len(), 5);
        assert!(r.index_size > 0);
        let r = fig10_fig11_full_dataset(300, 3, true);
        assert_eq!(r.queries.len(), 3);
    }

    #[test]
    fn fig1_inventory_reports_consistent_index() {
        let r = fig1_inventory(200);
        assert!(r.consistent);
        assert!(r.stats.student > 0);
        assert!(r.index.num_blocks > 0);
    }

    #[test]
    fn block_ablation_reports_both_variants() {
        let p = ablation_block_index(200, 2);
        assert!(p.num_blocks > 1);
        assert!(p.partitioned.as_nanos() > 0);
        assert!(p.monolithic.as_nanos() > 0);
    }

    #[test]
    fn pi_ablation_reports_both_orders() {
        let p = ablation_pi_order(200);
        // Both orders build a correct index; the inferred order needs no more
        // synthesis steps than the identity order.
        assert!(p.inferred.1 <= p.identity.1);
        assert!(p.sizes.0 > 0 && p.sizes.1 > 0);
    }

    #[test]
    fn method_comparison_runs_all_baselines() {
        let t = fig5_advisor_of_student(150, 2, 1);
        assert!(t.alchemy_total >= t.alchemy_sampling);
        let names: Vec<_> = t.backends.iter().map(|b| b.name).collect();
        assert_eq!(names, ["augmented-obdd", "mv-index/cc-mv-intersect"]);
        for b in &t.backends {
            assert!(b.total.as_nanos() > 0, "{} reported no time", b.name);
        }
        // The MV-index run reports shared-manager counters, and the whole
        // workload ran without a single cross-manager deep copy.
        assert!(t.manager.nodes_allocated > 0);
        assert!(t.manager.unique_hits + t.manager.unique_misses > 0);
        assert_eq!(t.manager.imported_nodes, 0, "apply path must not copy");
        let t = fig6_students_of_advisor(150, 2, 2);
        assert!(t.alchemy_total.as_nanos() > 0);
    }

    #[test]
    fn backend_timings_cover_every_comparison_backend() {
        let data = dataset_v1v2(150);
        let engine = compile_engine(&data, IntersectAlgorithm::CcMvIntersect);
        let queries = data.advisor_of_student_workload(2).expect("workload");
        let backends = comparison_backends();
        let (timings, manager) = time_backends(&engine, &queries, &backends, 1);
        assert_eq!(timings.len(), backends.len());
        for (timing, selector) in timings.iter().zip(&backends) {
            assert_eq!(timing.name, selector.instantiate().name());
        }
        assert!(manager.peak_nodes > 0);
    }

    #[test]
    fn microbench_agrees_and_reports_stats() {
        // Tiny debug-mode scale; the figures binary runs the real one.
        let p = microbench_manager_hotpath(120, 8, 5, 8);
        assert!(p.max_abs_diff < 1e-9);
        assert!(p.manager.nodes_allocated > 0);
        assert!(p.manager.prob_cache_hits > 0, "warm passes must hit");
        assert!(
            p.manager.prob_cache_misses > 0,
            "epoch bumps must recompute"
        );
        assert!(p.manager.apply_cache_hits + p.manager.apply_cache_misses > 0);
        assert!(p.speedup_total() > 0.0);
        // The workload is deterministic.
        let w1 = hotpath_workload(50, 4, 3);
        let w2 = hotpath_workload(50, 4, 3);
        assert_eq!(w1, w2);
        for clauses in &w1 {
            for [a, b] in clauses {
                assert_ne!(a, b, "clause literals must be distinct");
            }
        }
    }

    #[test]
    fn approx_point_reports_coverage_and_throughput() {
        // Tiny debug-mode scale; the figures binary runs the real ladder.
        let p = approx_accuracy(150, 2, 2, &[500, 2_000]);
        assert_eq!(p.num_queries, 4);
        assert_eq!(p.rungs.len(), 2);
        assert!(p.samples_per_sec > 0.0);
        assert!(p.total_samples >= 4 * 2_500);
        // Quadrupling the budget must not widen the intervals.
        assert!(p.rungs[1].mean_half_width < p.rungs[0].mean_half_width);
        // Every query's exact probability inside its final 99% CI, and the
        // estimates close to exact (deterministic under the fixed seed).
        assert_eq!(p.covered, p.num_queries);
        assert!(p.abs_err_max < 0.05, "abs err {}", p.abs_err_max);
        assert_eq!(p.methods.iter().sum::<usize>(), p.num_queries);
    }

    #[test]
    fn resilience_campaign_loses_nothing_and_stays_exact_where_undergraded() {
        let p = resilience_campaign(150, 400, 2, 42);
        assert_eq!(p.num_queries, 400);
        assert_eq!(p.lost, 0, "the ladder must answer every valid query");
        assert!(
            p.exact_max_abs_err < 1e-9,
            "exact-rung answers must match the clean run: {}",
            p.exact_max_abs_err
        );
        let answered = p.rungs.exact + p.rungs.bounded + p.rungs.monte_carlo;
        assert_eq!(answered, 400);
        // The campaign's draws are recorded per rule, and at these rates
        // over 400 queries something actually fires.
        assert!(!p.injections.is_empty());
        assert!(p.injections.iter().all(|(_, _, draws, inj)| inj <= draws));
    }

    #[test]
    fn serve_soak_loses_nothing_and_compacts() {
        // Tiny debug-mode scale; the figures binary runs the real soak.
        // Capacity calibration makes the pacing machine-independent, so
        // the invariants hold at any speed.
        let p = serve_soak(150, 90, 2, 42);
        for (label, r) in [("clean", &p.clean), ("chaos", &p.chaos)] {
            assert_eq!(r.offered, 90, "{label}");
            assert_eq!(r.lost, 0, "{label}: admitted queries were lost");
            assert_eq!(
                r.answered + r.shed,
                r.offered,
                "{label}: offer accounting leaks"
            );
            assert!(
                r.shed_fraction() < 0.1,
                "{label}: shed {} of {} offers",
                r.shed,
                r.offered
            );
            assert!(
                r.exact_max_abs_err < 1e-9,
                "{label}: exact-rung drift {}",
                r.exact_max_abs_err
            );
            assert!(
                r.stats.compactions >= 1,
                "{label}: arena GC never fired (watermark {})",
                p.compact_watermark
            );
            assert!(
                r.stats.arena_bytes_after <= r.stats.arena_bytes_before,
                "{label}: compaction grew the arena"
            );
            assert!(
                r.p99 <= p.deadline,
                "{label}: p99 {:?} over deadline",
                r.p99
            );
            assert!(r.p50 <= r.p95 && r.p95 <= r.p99, "{label}");
        }
        // Pressure must actually have engaged the overload controller
        // somewhere in the burst, and the chaos pass must have injected.
        assert!(
            p.clean.degraded_admissions > 0,
            "the 1.5x-capacity burst never crossed degrade_depth"
        );
        assert!(
            p.chaos
                .injections
                .iter()
                .any(|(_, _, _, injected)| *injected > 0),
            "chaos injected nothing: {:?}",
            p.chaos.injections
        );
    }

    #[test]
    fn update_soak_keeps_readers_exact_across_snapshots() {
        // Tiny debug-mode scale; the figures binary runs the real soak.
        let p = update_soak(120, 60, 2, 7);
        for (label, r) in [
            ("read_only", &p.read_only),
            ("live", &p.live),
            ("chaos", &p.chaos),
        ] {
            assert_eq!(r.offered, 60, "{label}");
            assert_eq!(r.lost, 0, "{label}: admitted queries were lost");
            assert_eq!(
                r.answered + r.shed,
                r.offered,
                "{label}: offer accounting leaks"
            );
            // Every answer matched some published snapshot exactly —
            // updates may slow a reader, never corrupt one.
            assert!(
                r.exact_max_abs_err < 1e-9,
                "{label}: exact-rung drift {} vs the snapshot lineage",
                r.exact_max_abs_err
            );
        }
        // The clean writer lands every batch: half fast-path, half
        // structural, and the fresh W-free rows change no index block.
        let u = &p.live_updates;
        assert_eq!(u.applied, 6, "clean writer failed batches: {u:?}");
        assert_eq!(u.failed, 0, "{u:?}");
        assert_eq!(u.weight_only, 3, "{u:?}");
        assert_eq!(u.structural, 3, "{u:?}");
        assert_eq!(u.shards_rebuilt, 0, "{u:?}");
        assert_eq!(p.live.stats.updates_applied, 6);
        // The chaos writer's failures are absorbed: every batch either
        // published or left the old snapshot serving.
        let c = &p.chaos_updates;
        assert_eq!(c.applied + c.failed, 6, "{c:?}");
        assert_eq!(p.chaos.stats.update_failures, c.failed);
        assert!(
            p.chaos
                .injections
                .iter()
                .any(|(site, _, _, injected)| site.starts_with("update_") && *injected > 0),
            "chaos never hit an update site: {:?}",
            p.chaos.injections
        );
    }

    #[test]
    fn session_smoke_agrees_across_thread_counts() {
        let p = session_smoke(150, 2, 4);
        assert_eq!(p.threads, 4);
        assert!(p.num_queries >= 2);
        assert!(p.max_abs_diff < 1e-9);
        assert!(p.sequential.as_nanos() > 0 && p.parallel.as_nanos() > 0);
        assert!(p.manager.nodes_allocated > 0);
        // The workload queries select by id, so every step is an index
        // probe — scans (and hence `blocks_scanned`) stay at zero.
        assert!(p.query.plan.steps > 0);
        assert!(p.query.plan.probe_steps > 0);
        assert!(p.query.exec.csr_probe_steps > 0);
        assert!(p.query.exec.batches > 0);
    }
}
