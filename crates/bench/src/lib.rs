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
//! | Fig. 8 | OBDD construction: per-clause `apply` (CUDD stand-in) vs concatenation | [`fig7_fig8_obdd_construction`] |
//! | Fig. 9 | MVIntersect vs CC-MVIntersect, worst-case query | [`fig9_intersection`] |
//! | Fig. 10 | per-query time, *students of an advisor*, full dataset | [`fig10_fig11_full_dataset`] |
//! | Fig. 11 | per-query time, *affiliations of an author*, full dataset | [`fig10_fig11_full_dataset`] |
//!
//! Beside the figures, three campaigns exercise the serving stack under
//! seeded fault injection: [`resilience_campaign`], [`serve_soak`] and
//! [`update_soak`]. Each campaign point, and the [`approx_accuracy`] series,
//! has a `violations()` method that names every gate the point breaks; the
//! `figures` binary prints them and exits non-zero. End-to-end throughput
//! and per-layer costs are measured by the repository benchmark under
//! `benchmark/`, not here.
//!
//! Substitutions with respect to the paper's setup: the DBLP dump is
//! replaced by the seeded synthetic generator of `mv-dblp`; Alchemy is
//! replaced by our own grounded MLN plus MC-SAT sampler; native CUDD is
//! replaced by the synthesis-only OBDD builder; and Postgres lineage
//! retrieval is replaced by the in-memory evaluator of `mv-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod json;

use std::sync::Arc;
use std::time::{Duration, Instant};

use mv_core::backend::MvIndexBackend;
use mv_core::{ApproxConfig, EngineBackend, IntervalMethod, MvdbEngine, ShardedEngine};
use mv_dblp::{DblpConfig, DblpDataset};
use mv_index::{IntersectAlgorithm, MvIndex};
use mv_mln::{McSatConfig, McSatSampler};
use mv_obdd::{ConObddBuilder, ManagerStats, Obdd, ObddManager, PiOrder};
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
    /// element of [`comparison_backends`], in order. Every backend is timed
    /// on the same operation, the Boolean probability of each workload
    /// query; per-answer enumeration is timed by Figures 10/11.
    pub backends: Vec<BackendTiming>,
    /// OBDD counters of the MV-index backend's workload run (the session's
    /// `last_manager_stats`: every context's query kernel): node
    /// allocations, unique-table and memo hit rates, and the peak node
    /// count.
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
/// strategy to the comparison is one line here — the harness and the
/// `figures` binary iterate this list.
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
            match session.probabilities_with_backend(queries, selector) {
                // A baseline whose `P0(W)` leaves f64 range did its work.
                Ok(_) | Err(mv_core::CoreError::OutOfRange { .. }) => {}
                Err(e) => panic!("backend evaluates: {e}"),
            }
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
    /// Time to infer `π` from V2 and materialise its tuple order, once,
    /// outside the three routes that share it.
    pub order_time: Duration,
    /// Construction time with the concatenation-based ConOBDD builder.
    pub conobdd_time: Duration,
    /// Construction time of the paper's baseline (the CUDD stand-in): the
    /// lineage of V2, then one clause diagram and one `apply(∨)` per
    /// clause, in the order the lineage lists them — `O(clauses ·
    /// variables)` even on this width-1 diagram.
    pub baseline_time: Duration,
    /// Construction time of the trie fold the engine is built on (the
    /// lineage of V2 through `ObddManager::lineage`: shared prefixes built
    /// once, `apply` only where levels interleave): linear on this width-1
    /// diagram.
    pub sorted_fold_time: Duration,
    /// Heap bytes of the baseline's manager after its fold: its store's
    /// nodes, unique table, memo and buffers.
    pub baseline_arena_bytes: u64,
    /// `true` when all three routes produced diagrams of the same size
    /// (canonicity check, as in Section 5.2).
    pub sizes_match: bool,
}

/// Figures 7 and 8: size and construction time of the V2 OBDD by three
/// routes under one variable order, each in a manager of its own: ConOBDD,
/// the paper's per-clause `apply` baseline, and the trie fold. The
/// order (`π` inferred from V2, then its tuple order) is timed once, apart.
pub fn fig7_fig8_obdd_construction(num_authors: usize) -> ObddConstructionPoint {
    let data = dataset_v1v2(num_authors);
    let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
    let indb = engine.translated().indb();
    let w2 = v2_query();

    let t = Instant::now();
    let order = Arc::new(PiOrder::infer(&w2, indb).tuple_order(indb));
    let order_time = t.elapsed();

    let t0 = Instant::now();
    let mut builder = ConObddBuilder::with_manager(indb, ObddManager::new(Arc::clone(&order)));
    let fast = builder.build(&w2).expect("ConOBDD builds");
    let conobdd_time = t0.elapsed();

    let t1 = Instant::now();
    let lin = lineage(&w2, indb).expect("lineage of V2");
    let manager = ObddManager::new(Arc::clone(&order));
    let mut baseline = manager.constant(false);
    for clause in lin.clauses() {
        let clause = manager.clause(clause).expect("clause builds");
        baseline = baseline.apply_or(&clause).expect("apply builds");
    }
    let baseline_time = t1.elapsed();

    let t2 = Instant::now();
    let lin = lineage(&w2, indb).expect("lineage of V2");
    let fold = ObddManager::new(order).lineage(&lin).expect("fold builds");
    let sorted_fold_time = t2.elapsed();

    let size = fast.size();
    ObddConstructionPoint {
        num_authors,
        obdd_size: size,
        order_time,
        conobdd_time,
        baseline_time,
        sorted_fold_time,
        baseline_arena_bytes: manager.stats().arena_bytes,
        sizes_match: baseline.size() == size && fold.size() == size,
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
    use mv_index::intersect::{cc_mv_intersect, mv_intersect, CcLayout};

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
    let layout = CcLayout::new(negated.obdd(), prob_of);

    let order = builder.order();
    let lin_q = worst_case_lineage(indb, order.as_ref(), 20);
    let q_obdd: Obdd = ObddManager::new(builder.order())
        .lineage(&lin_q)
        .expect("query OBDD");
    let q_view = CcLayout::new(&q_obdd, prob_of);

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
    use mv_index::intersect::{mv_intersect, CcLayout};

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
    let synth = ObddManager::new(builder.order());
    let t1 = Instant::now();
    for q in &queries {
        let per_answer = mv_query::lineage::answer_lineages(q, indb).expect("lineages");
        for (_row, lin) in per_answer {
            let q_obdd = synth.lineage(&lin).expect("query OBDD");
            let q_view = CcLayout::new(&q_obdd, prob_of);
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

// ---------------------------------------------------------------------------
// The campaigns' shared workload and gates
// ---------------------------------------------------------------------------

/// A latency percentile of a sorted sample (nearest-rank, `q` in `[0, 1]`).
pub fn percentile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The campaign's chaos spec: `default`, unless the `MV_CHAOS`
/// environment variable holds one (whose seed then overrides it).
fn chaos_or_env(default: mv_core::chaos::ChaosConfig) -> mv_core::chaos::ChaosConfig {
    match mv_core::chaos::ChaosConfig::from_env() {
        Ok(spec) => spec.unwrap_or(default),
        Err(e) => panic!("invalid MV_CHAOS spec: {e}"),
    }
}

/// Runs `pass` with the chaos campaign `config` installed (a rule-free one
/// still serializes against every other campaign in the process) and
/// returns its result with the campaign's injection accounting.
fn under_chaos<T>(
    config: mv_core::chaos::ChaosConfig,
    pass: impl FnOnce() -> T,
) -> (T, Vec<InjectionRow>) {
    let _guard = mv_core::chaos::install(config);
    let out = pass();
    (out, mv_core::chaos::injection_counts())
}

/// `pass` under a rule-free chaos campaign.
fn clean<T>(pass: impl FnOnce() -> T) -> T {
    under_chaos(mv_core::chaos::ChaosConfig::new(0), pass).0
}

/// The soaks' fixture: the distinct Boolean Figure 5/6 point queries of
/// `data`, a `num_shards`-shard engine over it, and their exact answers on
/// that engine (the pass doubles as index and plan warmup).
fn soak_fixture(
    data: &DblpDataset,
    num_shards: usize,
) -> (Vec<Ucq>, std::sync::Arc<ShardedEngine>, Vec<f64>) {
    let distinct: Vec<Ucq> = query_eval_workload(data, (data.config.num_authors / 4).max(8))
        .iter()
        .map(|q| q.boolean())
        .collect();
    let engine = ShardedEngine::compile(&data.mvdb, num_shards).expect("sharded engine compiles");
    let oracle = distinct
        .iter()
        .map(|q| engine.probability(q).expect("oracle probability"))
        .collect();
    (distinct, std::sync::Arc::new(engine), oracle)
}

/// Broad-query stride of [`sharded_workload`]: one Figure 2-style
/// name-selection query per this many queries.
pub const SHARDED_BROAD_STRIDE: usize = 256;

/// The mixed workload of the resilience campaign: the Boolean Figure 5/6
/// point queries with one broad name-selection query every
/// [`SHARDED_BROAD_STRIDE`] queries.
///
/// The point queries touch one or two dependency components each, so their
/// cost is dominated by routing. The broad queries (`students of an advisor
/// whose name matches %f000d%`, one fragment per 100-aid advisor band) have
/// lineages of several hundred clauses spanning hundreds of components.
pub fn sharded_workload(
    data: &DblpDataset,
    num_distinct_point: usize,
    num_queries: usize,
) -> Vec<Ucq> {
    let point: Vec<Ucq> = query_eval_workload(data, num_distinct_point)
        .iter()
        .map(|q| q.boolean())
        .collect();
    let broad: Vec<Ucq> = (1..=9)
        .map(|d| {
            mv_dblp::queries::students_of_advisor_named(&format!("f000{d}"))
                .expect("fragment query parses")
                .boolean()
        })
        .collect();
    (0..num_queries)
        .map(|i| match i % SHARDED_BROAD_STRIDE {
            0 => broad[(i / SHARDED_BROAD_STRIDE) % broad.len()].clone(),
            _ => point[i % point.len()].clone(),
        })
        .collect()
}

/// The gates one campaign point breaks: each entry is `"<gate>: <values>"`,
/// the gate's name followed by the values that broke it.
#[derive(Debug, Default)]
struct Gates(Vec<String>);

impl Gates {
    /// Records `gate` as broken unless `holds`.
    fn check(&mut self, gate: &str, holds: bool, values: impl FnOnce() -> String) {
        if !holds {
            self.0.push(format!("{gate}: {}", values()));
        }
    }

    /// The latency percentiles are positive and ordered.
    fn percentiles(&mut self, gate: &str, p50: Duration, p95: Duration, p99: Duration) {
        self.check(gate, !p50.is_zero() && p50 <= p95 && p95 <= p99, || {
            format!("p50 {p50:?}, p95 {p95:?}, p99 {p99:?}")
        });
    }

    /// The chaos accounting injected at least one fault at a site whose
    /// name starts with `site_prefix`.
    fn injected(&mut self, gate: &str, rows: &[InjectionRow], site_prefix: &str) {
        let injected: u64 = rows
            .iter()
            .filter(|(site, ..)| site.starts_with(site_prefix))
            .map(|row| row.3)
            .sum();
        self.check(gate, injected > 0, || {
            format!("{injected} injected at `{site_prefix}*`: {rows:?}")
        });
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
#[derive(Debug, Clone, Default)]
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

impl ApproxPoint {
    /// The gates this point breaks, each named with its values (empty when
    /// all hold). Estimation is deterministic under the recorded seed, so
    /// the error gate is not flaky.
    pub fn violations(&self) -> Vec<String> {
        let mut g = Gates::default();
        g.check("approx.abs_err_max", self.abs_err_max <= 0.02, || {
            format!("max |err| {} > 0.02", self.abs_err_max)
        });
        g.check("approx.samples_per_sec", self.samples_per_sec > 0.0, || {
            format!("{} samples/s", self.samples_per_sec)
        });
        g.check("approx.covered", self.covered == self.num_queries, || {
            format!(
                "a 99% CI missed its exact value: {} of {} covered",
                self.covered, self.num_queries
            )
        });
        g.check("approx.ladder_len", self.rungs.len() >= 2, || {
            format!("{} rungs", self.rungs.len())
        });
        let widths = self.rungs.first().zip(self.rungs.last());
        let shrinks = widths.is_some_and(|(a, z)| z.mean_half_width < a.mean_half_width);
        g.check("approx.width_shrinks", shrinks, || {
            format!("mean CI half-width by budget: {:?}", self.rungs)
        });
        g.0
    }
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

/// Per-rung answer counts of a resilience run.
#[derive(Debug, Clone, Default)]
pub struct RungCounts {
    /// Queries answered on the exact rung.
    pub exact: u64,
    /// Queries answered on the Monte Carlo rung.
    pub monte_carlo: u64,
}

/// One `(site, fault, draws, injected)` row of the chaos accounting.
pub type InjectionRow = (String, mv_core::chaos::Fault, u64, u64);

/// One run of the resilience campaign: a sustained sharded batch evaluated
/// through [`mv_core::ShardedSession::resilient_probabilities`] twice —
/// once clean, once under a seeded fault-injection campaign — with the
/// chaos run's degradation, retry and exactness accounting.
#[derive(Debug, Clone, Default)]
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

    /// The gates this point breaks, each named with its values (empty when
    /// all hold).
    pub fn violations(&self) -> Vec<String> {
        let mut g = Gates::default();
        // The ladder's last rung and the oracle rescue path run chaos-free,
        // so every valid query is structurally guaranteed an answer.
        g.check("resilience.lost", self.lost == 0, || {
            format!("{} lost queries", self.lost)
        });
        // Chaos may slow a query or bounce it between workers, never change
        // its answer.
        g.check(
            "resilience.exact_err",
            self.exact_max_abs_err < 1e-9,
            || format!("exact-rung drift {}", self.exact_max_abs_err),
        );
        let fraction = self.degraded_fraction();
        g.check(
            "resilience.degraded_fraction",
            0.0 < fraction && fraction < 0.2,
            || format!("{} of {} degraded", self.degraded, self.num_queries),
        );
        let answered = self.rungs.exact + self.rungs.monte_carlo;
        g.check(
            "resilience.accounting",
            answered == self.num_queries as u64,
            || {
                format!(
                    "{answered} answered on a rung of {} queries",
                    self.num_queries
                )
            },
        );
        g.injected("resilience.injected", &self.injections, "");
        let overdrawn = self
            .injections
            .iter()
            .any(|(_, _, draws, injected)| injected > draws);
        g.check("resilience.injected_le_draws", !overdrawn, || {
            format!("{:?}", self.injections)
        });
        // Degraded answers stay inside their advertised interval budget
        // (4 sigma-ish slack over the summed half-widths).
        let tolerance = 4.0 * self.max_epsilon.max(0.05) + 0.02;
        g.check(
            "resilience.degraded_tolerance",
            self.degraded_max_abs_err <= tolerance,
            || format!("degraded |err| {} > {tolerance}", self.degraded_max_abs_err),
        );
        g.percentiles("resilience.percentiles", self.p50, self.p95, self.p99);
        g.0
    }
}

/// The default chaos campaign of the resilience benchmark: panics in
/// routing and shard evaluation and budget trips on the exact rung, which
/// send the query to Monte Carlo. The Monte Carlo rung and the oracle
/// rescue path stay clean, so every valid query is structurally guaranteed
/// an answer — "zero lost" is a gate, not a hope.
pub fn resilience_chaos_config(seed: u64) -> mv_core::chaos::ChaosConfig {
    use mv_core::chaos::{sites, ChaosConfig, Fault};
    ChaosConfig::new(seed)
        .rule(sites::ROUTE, Fault::Panic, 0.002)
        .rule(sites::SHARD_EVAL, Fault::Panic, 0.005)
        .rule(sites::EXACT_RUNG, Fault::Budget, 0.02)
}

/// Runs the resilience campaign: the mixed point + broad [`sharded_workload`]
/// through a resilient sharded session, clean and under
/// [`resilience_chaos_config`] — or, when the `MV_CHAOS` environment
/// variable is set, under that spec instead (its seed overrides
/// `chaos_seed`). Asserts that the clean run answers every query exactly,
/// and reports the chaos run's degradation, retry, exactness and latency
/// accounting for [`ResiliencePoint::violations`].
pub fn resilience_campaign(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> ResiliencePoint {
    use mv_core::{ResilienceConfig, Rung};

    let chaos_config = chaos_or_env(resilience_chaos_config(chaos_seed));
    let chaos_seed = chaos_config.seed;

    let data = dataset_v1v2(num_authors);
    let queries = sharded_workload(&data, num_authors / 4, num_queries);
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

    let timed_pass = || {
        let t0 = Instant::now();
        let outcomes = session.resilient_probabilities(&queries, &config);
        (outcomes, t0.elapsed())
    };
    let (clean_outcomes, clean_time) = clean(timed_pass);
    for (i, o) in clean_outcomes.iter().enumerate() {
        assert!(o.answered(), "clean slot {i} lost: {:?}", o.fault);
        assert_eq!(o.rung, Some(Rung::Exact), "clean slot {i} degraded");
    }
    let ((outcomes, chaos_time), injections) = under_chaos(chaos_config, timed_pass);

    let mut point = ResiliencePoint {
        num_authors,
        num_shards,
        num_queries: queries.len(),
        chaos_seed,
        clean_time,
        chaos_time,
        injections,
        ..ResiliencePoint::default()
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
#[derive(Debug, Clone, Default)]
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
    /// Admissions the overload controller entered below the configured
    /// entry rung: past the shed depth, at Monte Carlo.
    pub degraded_admissions: u64,
    /// Per-rung answer counts.
    pub rungs: RungCounts,
    /// Answered requests per second of the pass.
    pub throughput_qps: f64,
    /// Largest |err| of exact-rung answers against the oracle (gate:
    /// below 1e-9 — pressure may slow or degrade a query, never corrupt
    /// an exact answer).
    pub exact_max_abs_err: f64,
    /// Largest |err| of degraded (Monte Carlo) answers against the oracle.
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

    /// The gates every pass keeps, writer or no writer: each offered
    /// request resolves (answered or rejected at admission, never silently
    /// dropped), exact answers are exact, and the latency percentiles are
    /// sane. Gate names are `<prefix>.<gate>`.
    fn check_pass(&self, g: &mut Gates, prefix: &str) {
        g.check(&format!("{prefix}.lost"), self.lost == 0, || {
            format!("{} lost requests", self.lost)
        });
        g.check(
            &format!("{prefix}.accounting"),
            self.answered + self.shed == self.offered,
            || {
                format!(
                    "{} answered + {} shed != {} offered",
                    self.answered, self.shed, self.offered
                )
            },
        );
        g.check(
            &format!("{prefix}.exact_err"),
            self.exact_max_abs_err < 1e-9,
            || format!("exact-rung drift {}", self.exact_max_abs_err),
        );
        g.percentiles(
            &format!("{prefix}.percentiles"),
            self.p50,
            self.p95,
            self.p99,
        );
    }
}

/// One run of the serving soak: the same over-capacity paced workload
/// driven through a fresh [`MvdbServer`](mv_core::MvdbServer) twice —
/// clean, and under the seeded [`serve_chaos_config`] campaign.
#[derive(Debug, Clone, Default)]
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
    /// Calibrated exact-evaluation capacity of the engine.
    pub capacity_qps: f64,
    /// Paced arrival rate (1.5x the calibrated capacity).
    pub offered_qps: f64,
    /// The clean pass.
    pub clean: ServeRun,
    /// The pass under fault injection.
    pub chaos: ServeRun,
}

impl ServePoint {
    /// The gates this point breaks, each named with its values (empty when
    /// all hold).
    pub fn violations(&self) -> Vec<String> {
        let mut g = Gates::default();
        g.check(
            "serve.overloaded",
            self.offered_qps > self.capacity_qps,
            || {
                format!(
                    "offered {} q/s <= capacity {} q/s",
                    self.offered_qps, self.capacity_qps
                )
            },
        );
        for (name, r) in [("clean", &self.clean), ("chaos", &self.chaos)] {
            let prefix = format!("serve.{name}");
            r.check_pass(&mut g, &prefix);
            // Degrade-before-drop: load shedding stays a last resort.
            g.check(
                &format!("{prefix}.shed_fraction"),
                r.shed_fraction() < 0.1,
                || format!("shed {} of {} offers", r.shed, r.offered),
            );
            g.check(
                &format!("{prefix}.deadline"),
                r.p99 <= self.deadline,
                || format!("p99 {:?} past the deadline {:?}", r.p99, self.deadline),
            );
        }
        // Queue pressure crossed the shed depth even without faults.
        g.check(
            "serve.controller_engaged",
            self.clean.degraded_admissions > 0,
            || "the overload controller never degraded an admission".to_string(),
        );
        g.injected("serve.injected", &self.chaos.injections, "");
        g.0
    }
}

/// The default chaos campaign of the serving soak: admission faults reject
/// with backpressure, dispatch and heartbeat panics kill workers (the
/// supervision path), and budget trips on the exact rung push answers down
/// the ladder. The Monte Carlo rung and the oracle rescue path stay clean,
/// so every admitted query keeps its structural answer guarantee — "zero
/// lost" stays a gate under chaos.
pub fn serve_chaos_config(seed: u64) -> mv_core::chaos::ChaosConfig {
    use mv_core::chaos::{sites, ChaosConfig, Fault};
    ChaosConfig::new(seed)
        .rule(sites::ADMIT, Fault::Panic, 0.002)
        .rule(sites::DISPATCH, Fault::Panic, 0.008)
        .rule(sites::HEARTBEAT, Fault::Panic, 0.001)
        .rule(sites::EXACT_RUNG, Fault::Budget, 0.01)
}

/// Runs the serving soak: point queries paced at 1.5x the engine's
/// calibrated exact capacity through an [`MvdbServer`](mv_core::MvdbServer)
/// over a sharded engine, once clean and once under [`serve_chaos_config`]
/// (or the `MV_CHAOS` spec when set). The queue is sized to absorb the
/// whole burst, so backpressure engages only when the wait estimate blows
/// the deadline; the overload controller sends admissions to Monte Carlo
/// once the backlog crosses the shed depth. The resilience node cap is
/// kept small so a lineage too big for it is sampled instead.
pub fn serve_soak(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> ServePoint {
    use mv_core::{ResilienceConfig, ServeConfig};

    let chaos_config = chaos_or_env(serve_chaos_config(chaos_seed));
    let chaos_seed = chaos_config.seed;
    let (distinct, engine, oracle) = soak_fixture(&dataset_v1v2(num_authors), num_shards);

    // Capacity calibration the way a server worker serves: one long-lived
    // context on the unsharded engine. (`ShardedEngine::probability` sets up
    // a session, a context and a router per call, more than a point query's
    // service costs; 1.5x a capacity calibrated on it is an offer the
    // workers absorb without queueing.)
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

    // The exact rung runs under the node cap: a small cap answers every
    // point query and refuses any lineage whose diagram outgrows ~16k
    // nodes, which then falls through to the bounded-sample Monte Carlo
    // rung, so degraded service stays within a fixed factor of exact.
    let resilience = ResilienceConfig {
        epsilon: 0.05,
        node_budget: 1 << 14,
        mc_max_samples: 512,
        ..ResilienceConfig::default()
    };

    let config = ServeConfig {
        workers: num_workers,
        queue_capacity: num_queries.max(64),
        deadline,
        // The pass opens with a burst of twice this depth, whose tail the
        // controller sends to the sampling rung; the paced rest adds the
        // 0.5x-capacity excess on top of what is left of it.
        shed_depth: (num_queries / 4).max(32),
        widened_epsilon: 0.15,
        resilience,
        // Above the per-request deadline: a slow degraded evaluation must
        // never be mistaken for a wedged worker, or the false-positive
        // requeues would burn the request's requeue budget.
        heartbeat_timeout: deadline * 2,
        max_requeues: 10,
        ..ServeConfig::default()
    };

    let stream: Vec<usize> = (0..num_queries).map(|i| i % distinct.len()).collect();

    // The pass opens with twice the shed depth submitted at once, so the
    // backlog crosses the shed depth whatever the machine's speed: the
    // workers drain a request in a service time, far slower than a submit.
    let burst = 2 * config.shed_depth;
    let pass = || {
        paced_pass(
            &engine,
            &config,
            &stream,
            &distinct,
            &oracle,
            (offered_qps, burst),
            &[],
        )
        .0
    };
    let clean = clean(pass);
    let (mut chaos_run, injections) = under_chaos(chaos_config, pass);
    chaos_run.injections = injections;

    ServePoint {
        num_authors,
        num_shards,
        num_workers,
        num_queries,
        chaos_seed,
        deadline,
        capacity_qps,
        offered_qps,
        clean,
        chaos: chaos_run,
    }
}

/// The paced open-loop pass behind [`serve_soak`] and [`update_soak`]:
/// the first `burst` reader requests submitted at once, the rest paced at
/// `offered_qps` from there, while an optional writer
/// schedule applies `updates` through
/// [`MvdbServer::submit_update`](mv_core::MvdbServer::submit_update),
/// spaced evenly across the offer window so every published snapshot
/// serves a real slice of the read stream. Because snapshots swap
/// mid-stream, a reader's answer is exact if it matches *any* published
/// stage: `stage0` holds the exact answers on the engine as served, the
/// later stages are computed once the pass is over from the batches the
/// writer actually landed, and errors are measured against the closest
/// stage.
fn paced_pass(
    engine: &std::sync::Arc<ShardedEngine>,
    config: &mv_core::ServeConfig,
    stream: &[usize],
    distinct: &[Ucq],
    stage0: &[f64],
    (offered_qps, burst): (f64, usize),
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
    let (mut update_stats, mut landed) = (UpdateStats::default(), Vec::new());
    std::thread::scope(|scope| {
        let writer = (!updates.is_empty()).then(|| {
            scope.spawn(|| {
                let (mut stats, mut landed) = (UpdateStats::default(), Vec::new());
                for (k, batch) in updates.iter().enumerate() {
                    let due = start + window.mul_f64((k + 1) as f64 / (updates.len() + 1) as f64);
                    let wait = due.saturating_duration_since(Instant::now());
                    if !wait.is_zero() {
                        std::thread::sleep(wait);
                    }
                    match server.submit_update(batch) {
                        Ok(out) => {
                            stats.applied += 1;
                            landed.push(k);
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
                (stats, landed)
            })
        });
        for (i, &slot) in stream.iter().enumerate() {
            // Open-loop pacing: submit at the scheduled instant, bursting
            // to catch up when the pacer overslept (sleep granularity is
            // coarser than the interval at high offered rates).
            let due = start + interval.mul_f64(i.saturating_sub(burst) as f64);
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
            (update_stats, landed) = writer.join().expect("update writer thread");
        }
    });

    let mut run = ServeRun {
        offered: stream.len() as u64,
        shed,
        ..ServeRun::default()
    };
    let replies: Vec<_> = tickets
        .into_iter()
        .map(|(slot, ticket)| {
            let out = ticket
                .wait_timeout(Duration::from_secs(300))
                .unwrap_or_else(|_| panic!("soak request for query slot {slot} never resolved"));
            (slot, out)
        })
        .collect();
    run.elapsed = start.elapsed();
    run.stats = server.shutdown();

    // Stage k + 1 is stage k plus the k-th landed batch, applied to a
    // scratch copy of the engine as served (`apply` is differentially
    // tested against from-scratch rebuilds). A failed batch published
    // nothing, so the stages after it skip it.
    let mut oracles = vec![stage0.to_vec()];
    if !landed.is_empty() {
        let mut scratch = engine.full().clone();
        for &k in &landed {
            scratch.apply(&updates[k]).expect("stage oracle apply");
            oracles.push(
                distinct
                    .iter()
                    .map(|q| scratch.probability(q).expect("stage oracle probability"))
                    .collect(),
            );
        }
    }
    let mut latencies = Vec::with_capacity(replies.len());
    for (slot, out) in replies {
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
            Rung::MonteCarlo => {
                run.rungs.monte_carlo += 1;
                run.degraded_max_abs_err = run.degraded_max_abs_err.max(err);
                run.max_epsilon = run.max_epsilon.max(out.outcome.epsilon.unwrap_or(0.0));
            }
        }
    }
    run.throughput_qps = run.answered as f64 / secs(run.elapsed).max(1e-9);
    latencies.sort();
    run.p50 = percentile(&latencies, 0.50);
    run.p95 = percentile(&latencies, 0.95);
    run.p99 = percentile(&latencies, 0.99);
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
#[derive(Debug, Clone, Default)]
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

impl UpdatePoint {
    /// The gates this point breaks, each named with its values (empty when
    /// all hold). Every answer must match *some* published snapshot: a swap
    /// may slow a reader, never corrupt one.
    pub fn violations(&self) -> Vec<String> {
        let mut g = Gates::default();
        for (name, r) in [
            ("read_only", &self.read_only),
            ("live", &self.live),
            ("chaos", &self.chaos),
        ] {
            r.check_pass(&mut g, &format!("updates.{name}"));
        }
        // Reader interference stays bounded: the live tail within 2x of the
        // read-only one, with an absolute floor so a microsecond baseline
        // cannot make the ratio flaky on shared runners.
        let (live, read_only) = (secs(self.live.p99), secs(self.read_only.p99));
        g.check(
            "updates.live_tail",
            live <= (2.0 * read_only).max(0.25),
            || format!("live p99 {live} s vs read-only {read_only} s"),
        );
        // The clean writer lands the whole schedule, both the weight-only
        // fast path and structural re-translation. Its structural batches
        // insert W-free rows, so no index block changes key or shape.
        let (u, n) = (&self.live_updates, self.num_updates as u64);
        g.check(
            "updates.writer_landed",
            u.applied == n && u.failed == 0,
            || format!("clean writer: {u:?} of {n}"),
        );
        g.check(
            "updates.mixed_schedule",
            u.weight_only >= 1 && u.structural >= 1,
            || format!("schedule not mixed: {u:?}"),
        );
        g.check("updates.shards_rebuilt", u.shards_rebuilt == 0, || {
            format!("W-free updates changed index blocks: {u:?}")
        });
        g.check(
            "updates.live_published",
            self.live.stats.updates_applied == n,
            || {
                format!(
                    "server published {} of {n}",
                    self.live.stats.updates_applied
                )
            },
        );
        // Under chaos every batch either published or failed atomically.
        let c = &self.chaos_updates;
        g.check(
            "updates.chaos_accounting",
            c.applied + c.failed == n,
            || format!("chaos writer: {c:?} of {n}"),
        );
        let reported = self.chaos.stats.update_failures;
        g.check("updates.chaos_failures", reported == c.failed, || {
            format!(
                "server reports {reported} failed updates, writer saw {}",
                c.failed
            )
        });
        g.injected("updates.update_site_hit", &self.chaos.injections, "update_");
        g.0
    }
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
                base.tuple_row(id),
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
/// [`update_chaos_config`] (or the `MV_CHAOS` spec when set). After each
/// pass the per-stage oracles are computed by applying the batches that
/// pass landed, in order, to a scratch engine, so every reader answer can
/// be checked exactly against the snapshot lineage: each must match *some*
/// published stage to 1e-9.
pub fn update_soak(
    num_authors: usize,
    num_queries: usize,
    num_shards: usize,
    chaos_seed: u64,
) -> UpdatePoint {
    use mv_core::ServeConfig;

    let chaos_config = chaos_or_env(update_chaos_config(chaos_seed));
    let chaos_seed = chaos_config.seed;
    let data = dataset_v1v2(num_authors);
    // `stage0` is the oracle on the engine as served; `paced_pass` derives
    // the later stages from the batches each writer landed.
    let (distinct, engine, stage0) = soak_fixture(&data, num_shards);
    let num_updates = 6usize;
    let batches = update_batches(&data.mvdb, num_updates);

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

    let pass = |updates: &[mv_core::UpdateBatch]| {
        paced_pass(
            &engine,
            &config,
            &stream,
            &distinct,
            &stage0,
            (offered_qps, 0),
            updates,
        )
    };
    let (read_only, _) = clean(|| pass(&[]));
    let (live, live_updates) = clean(|| pass(&batches));
    let ((mut chaos_run, chaos_updates), injections) = under_chaos(chaos_config, || pass(&batches));
    chaos_run.injections = injections;

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
        // The MV-index run reports shared-manager counters.
        assert!(t.manager.nodes_allocated > 0);
        assert!(t.manager.unique_hits + t.manager.unique_misses > 0);
        let t = fig6_students_of_advisor(150, 2, 2);
        assert!(t.alchemy_total.as_nanos() > 0);
    }

    #[test]
    fn backend_timings_cover_every_comparison_backend() {
        let data = dataset_v1v2(150);
        let engine = MvdbEngine::compile(&data.mvdb).expect("compiles");
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
    fn approx_point_reports_coverage_and_throughput() {
        // Tiny debug-mode scale; the figures binary runs the real ladder.
        let p = approx_accuracy(150, 2, 2, &[500, 2_000]);
        assert_eq!(p.num_queries, 4);
        assert_eq!(p.rungs.len(), 2);
        assert!(p.total_samples >= 4 * 2_500);
        assert_eq!(p.methods.iter().sum::<usize>(), p.num_queries);
        // Deterministic under the fixed seed: every exact probability
        // inside its final 99% CI, and the intervals shrink with the budget.
        assert_eq!(p.violations(), Vec::<String>::new());
    }

    #[test]
    fn resilience_campaign_loses_nothing_and_stays_exact_where_undergraded() {
        let p = resilience_campaign(150, 400, 2, 42);
        assert_eq!(p.num_queries, 400);
        assert_eq!(p.violations(), Vec::<String>::new());
    }

    #[test]
    fn serve_soak_loses_nothing() {
        // Tiny debug-mode scale; the figures binary runs the real soak.
        // Capacity calibration makes the pacing machine-independent, so
        // the invariants hold at any speed.
        let p = serve_soak(150, 90, 2, 42);
        assert_eq!((p.clean.offered, p.chaos.offered), (90, 90));
        assert_eq!(p.violations(), Vec::<String>::new());
    }

    #[test]
    fn update_soak_keeps_readers_exact_across_snapshots() {
        // Tiny debug-mode scale; the figures binary runs the real soak.
        let p = update_soak(120, 60, 2, 7);
        for r in [&p.read_only, &p.live, &p.chaos] {
            assert_eq!(r.offered, 60);
        }
        // The clean writer lands every batch: half fast-path, half
        // structural.
        let u = &p.live_updates;
        assert_eq!((u.applied, u.weight_only, u.structural), (6, 3, 3), "{u:?}");
        assert_eq!(p.violations(), Vec::<String>::new());
    }

    /// Every gate fires: each case breaks one gate of a passing point built
    /// by struct literal, and `violations()` must name that gate.
    #[test]
    fn every_campaign_gate_fires_on_a_breaking_point() {
        use mv_core::chaos::Fault;
        type Case<P> = (&'static str, fn(&mut P));
        type Pass<P> = fn(&mut P) -> &mut ServeRun;

        fn fires<P: Clone>(
            base: &P,
            violations: fn(&P) -> Vec<String>,
            gate: &str,
            breaks: impl Fn(&mut P),
        ) {
            assert_eq!(
                violations(base),
                Vec::<String>::new(),
                "the base point passes"
            );
            let mut p = base.clone();
            breaks(&mut p);
            let v = violations(&p);
            assert!(
                v.iter().any(|s| s.split(':').next() == Some(gate)),
                "`{gate}` did not fire: {v:?}"
            );
        }
        fn ms(millis: u64) -> Duration {
            Duration::from_millis(millis)
        }
        let injection = |site: &str, injected| (site.to_string(), Fault::Panic, 10, injected);
        let rungs = |exact, monte_carlo| RungCounts { exact, monte_carlo };

        let rung = |mean_half_width| ApproxRung {
            samples: 1_000,
            mean_half_width,
            max_half_width: mean_half_width,
            max_abs_err: 0.01,
        };
        let approx = ApproxPoint {
            num_queries: 4,
            rungs: vec![rung(0.04), rung(0.02)],
            samples_per_sec: 1e6,
            abs_err_max: 0.01,
            covered: 4,
            ..Default::default()
        };
        let cases: [Case<ApproxPoint>; 5] = [
            ("approx.abs_err_max", |p| p.abs_err_max = 0.03),
            ("approx.samples_per_sec", |p| p.samples_per_sec = 0.0),
            ("approx.covered", |p| p.covered = 3),
            ("approx.ladder_len", |p| p.rungs.truncate(1)),
            ("approx.width_shrinks", |p| p.rungs[1] = p.rungs[0]),
        ];
        for (gate, breaks) in cases {
            fires(&approx, ApproxPoint::violations, gate, breaks);
        }

        let resilience = ResiliencePoint {
            num_queries: 100,
            degraded: 5,
            rungs: rungs(95, 5),
            degraded_max_abs_err: 0.01,
            max_epsilon: 0.05,
            p50: ms(1),
            p95: ms(2),
            p99: ms(3),
            injections: vec![injection("route", 2), injection("shard_eval", 0)],
            ..Default::default()
        };
        let cases: [Case<ResiliencePoint>; 10] = [
            ("resilience.lost", |p| p.lost = 1),
            ("resilience.exact_err", |p| p.exact_max_abs_err = 1e-6),
            ("resilience.degraded_fraction", |p| p.degraded = 0),
            ("resilience.degraded_fraction", |p| p.degraded = 20),
            ("resilience.accounting", |p| p.rungs.exact = 94),
            ("resilience.injected", |p| p.injections[0].3 = 0),
            ("resilience.injected_le_draws", |p| p.injections[1].3 = 11),
            ("resilience.degraded_tolerance", |p| {
                p.degraded_max_abs_err = 0.3
            }),
            ("resilience.percentiles", |p| p.p50 = Duration::ZERO),
            ("resilience.percentiles", |p| p.p95 = ms(4)),
        ];
        for (gate, breaks) in cases {
            fires(&resilience, ResiliencePoint::violations, gate, breaks);
        }

        // Gates of one pass: the first four hold on every serve and update
        // pass, the rest on serve passes only.
        let pass_cases: [Case<ServeRun>; 6] = [
            ("lost", |r| r.lost = 1),
            ("accounting", |r| r.answered -= 1),
            ("exact_err", |r| r.exact_max_abs_err = 1e-6),
            ("percentiles", |r| r.p50 = ms(5)),
            ("shed_fraction", |r| {
                (r.shed, r.answered) = (10, r.offered - 10)
            }),
            ("deadline", |r| r.p99 = ms(101)),
        ];

        let run = ServeRun {
            offered: 100,
            shed: 2,
            answered: 98,
            degraded_admissions: 4,
            rungs: rungs(94, 4),
            p50: ms(1),
            p95: ms(2),
            p99: ms(3),
            ..Default::default()
        };
        let serve = ServePoint {
            deadline: ms(100),
            capacity_qps: 100.0,
            offered_qps: 150.0,
            clean: run.clone(),
            chaos: ServeRun {
                injections: vec![injection("dispatch", 1)],
                ..run.clone()
            },
            ..Default::default()
        };
        let passes: [(&str, Pass<ServePoint>); 2] =
            [("clean", |p| &mut p.clean), ("chaos", |p| &mut p.chaos)];
        for (name, pass) in passes {
            for (gate, breaks) in pass_cases {
                fires(
                    &serve,
                    ServePoint::violations,
                    &format!("serve.{name}.{gate}"),
                    |p| breaks(pass(p)),
                );
            }
        }
        let cases: [Case<ServePoint>; 3] = [
            ("serve.overloaded", |p| p.offered_qps = p.capacity_qps),
            ("serve.controller_engaged", |p| {
                p.clean.degraded_admissions = 0
            }),
            ("serve.injected", |p| p.chaos.injections[0].3 = 0),
        ];
        for (gate, breaks) in cases {
            fires(&serve, ServePoint::violations, gate, breaks);
        }

        let landed = UpdateStats {
            applied: 6,
            weight_only: 3,
            structural: 3,
            ..Default::default()
        };
        let unshed = ServeRun {
            shed: 0,
            answered: 100,
            ..run
        };
        let with_stats = |updates_applied, update_failures| mv_core::ServerStats {
            updates_applied,
            update_failures,
            ..Default::default()
        };
        let updates = UpdatePoint {
            num_updates: 6,
            read_only: unshed.clone(),
            live: ServeRun {
                stats: with_stats(6, 0),
                ..unshed.clone()
            },
            chaos: ServeRun {
                stats: with_stats(4, 2),
                injections: vec![injection("dispatch", 1), injection("update_apply", 2)],
                ..unshed
            },
            live_updates: landed,
            chaos_updates: UpdateStats {
                applied: 4,
                failed: 2,
                ..landed
            },
            ..Default::default()
        };
        let passes: [(&str, Pass<UpdatePoint>); 3] = [
            ("read_only", |p| &mut p.read_only),
            ("live", |p| &mut p.live),
            ("chaos", |p| &mut p.chaos),
        ];
        for (name, pass) in passes {
            for (gate, breaks) in &pass_cases[..4] {
                fires(
                    &updates,
                    UpdatePoint::violations,
                    &format!("updates.{name}.{gate}"),
                    |p| breaks(pass(p)),
                );
            }
        }
        let cases: [Case<UpdatePoint>; 9] = [
            ("updates.live_tail", |p| p.live.p99 = ms(260)),
            ("updates.writer_landed", |p| p.live_updates.failed = 1),
            ("updates.writer_landed", |p| p.live_updates.applied = 5),
            ("updates.mixed_schedule", |p| p.live_updates.structural = 0),
            ("updates.shards_rebuilt", |p| {
                p.live_updates.shards_rebuilt = 1
            }),
            ("updates.live_published", |p| {
                p.live.stats.updates_applied = 5
            }),
            ("updates.chaos_accounting", |p| p.chaos_updates.failed = 1),
            ("updates.chaos_failures", |p| {
                p.chaos.stats.update_failures = 1
            }),
            ("updates.update_site_hit", |p| p.chaos.injections[1].3 = 0),
        ];
        for (gate, breaks) in cases {
            fires(&updates, UpdatePoint::violations, gate, breaks);
        }
    }
}
