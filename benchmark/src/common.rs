//! Pieces every workload shares: sizing constants, the seeded generator, the
//! query families over the synthetic DBLP corpus, answer checking, set-up
//! timing and the process's peak memory.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use mv_core::{CoreError, MvdbEngine, ShardedEngine, TranslatedIndb};
use mv_dblp::{DblpConfig, DblpDataset};
use mv_index::MvIndex;
use mv_pdb::{InDb, Row};
use mv_query::components::UnionFind;
use mv_query::lineage::{Clause, Lineage};
use mv_query::shannon::shannon_probability;

use crate::metrics::Metrics;
use crate::stats;

/// Agreement tolerance of every correctness check.
pub const TOLERANCE: f64 = 1e-9;

/// The constants that size a run. [`Sizing::full`] is the committed
/// benchmark; [`Sizing::smoke`] is the same code path a hundred times
/// smaller, for the package's tests.
#[derive(Debug, Clone)]
pub struct Sizing {
    /// Authors of the synthetic DBLP corpus.
    pub authors: usize,
    /// Shards of the sharded engine.
    pub shards: usize,
    /// How often set-up is repeated in an untraced run (median reported).
    pub setup_reps: usize,
    /// Queries per `point_batch` operation.
    pub point_batch: usize,
    /// Point queries the traced pass decomposes.
    pub point_trace_sample: usize,
    /// Point queries checked against the Shannon oracle.
    pub point_oracle_sample: usize,
    /// Broad operations per `broad_select` cycle (one heavy follows). The
    /// cycles walk a seeded permutation of every broad and heavy fragment.
    pub broad_per_cycle: usize,
    /// Broad and heavy operations run as warm-up inside set-up.
    pub broad_warmup: (usize, usize),
    /// Heavy fragments the traced pass decomposes (9 s each unsharded).
    pub heavy_trace_sample: usize,
    /// Ad-hoc queries run as warm-up inside set-up.
    pub adhoc_warmup: usize,
    /// Ad-hoc queries the traced pass decomposes.
    pub adhoc_trace_sample: usize,
    /// Reads per second offered to the server.
    pub serve_rate: f64,
    /// One broad read per this many reads.
    pub serve_broad_every: usize,
    /// Reads served closed-loop as warm-up inside set-up.
    pub serve_warmup: usize,
    /// Seconds between two updates; the first is due half a period in. A
    /// structural update takes about 2.5 s beside reads on two cores, so a
    /// shorter period would queue the next update behind it.
    pub update_period_s: f64,
}

impl Sizing {
    /// The committed benchmark: 10 000 authors on 2 shards.
    pub fn full() -> Self {
        Sizing {
            authors: 10_000,
            shards: 2,
            setup_reps: 3,
            point_batch: 4096,
            point_trace_sample: 2048,
            point_oracle_sample: 512,
            broad_per_cycle: 48,
            broad_warmup: (4, 1),
            heavy_trace_sample: 1,
            adhoc_warmup: 256,
            adhoc_trace_sample: 1024,
            serve_rate: 4000.0,
            serve_broad_every: 2048,
            serve_warmup: 2048,
            update_period_s: 3.0,
        }
    }

    /// The smoke scale: 500 authors, samples a hundredth of the full ones.
    pub fn smoke() -> Self {
        Sizing {
            authors: 500,
            shards: 2,
            setup_reps: 1,
            point_batch: 41,
            point_trace_sample: 20,
            point_oracle_sample: 5,
            broad_per_cycle: 3,
            broad_warmup: (1, 0),
            heavy_trace_sample: 1,
            adhoc_warmup: 3,
            adhoc_trace_sample: 10,
            serve_rate: 400.0,
            serve_broad_every: 64,
            serve_warmup: 20,
            update_period_s: 0.25,
        }
    }
}

/// SplitMix64: a small seeded generator for permutations and samples. The
/// engine receives only the inputs generated from it.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed`, decorrelated per use by `stream`.
    pub fn new(seed: u64, stream: u64) -> Self {
        SplitMix64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A seeded permutation of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut order: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            order.swap(i, self.below(i + 1));
        }
        order
    }
}

/// Generates the corpus for a run; returns it with the generation time.
pub fn generate(sizing: &Sizing, seed: u64) -> (DblpDataset, f64) {
    let started = Instant::now();
    let data = DblpDataset::generate(DblpConfig {
        seed,
        ..DblpConfig::with_authors(sizing.authors)
    })
    .expect("the synthetic corpus generates");
    (data, started.elapsed().as_secs_f64())
}

/// Every distinct point query over the corpus, as text: advisor of a
/// student, students of an advisor, affiliation of an author, by id.
/// `boolean` drops the head variable.
pub fn point_texts(data: &DblpDataset, boolean: bool) -> Vec<String> {
    let head = |var: &str| {
        if boolean {
            String::new()
        } else {
            var.to_string()
        }
    };
    let mut texts = Vec::new();
    for s in &data.students {
        texts.push(format!(
            "Q({}) :- Student({s}, year), Advisor({s}, aid2)",
            head("aid2")
        ));
    }
    for a in &data.advisors {
        texts.push(format!(
            "Q({}) :- Student(aid, year), Advisor(aid, {a})",
            head("aid")
        ));
    }
    for z in &data.affiliated_authors {
        texts.push(format!("Q({}) :- Affiliation({z}, inst)", head("inst")));
    }
    texts
}

/// Name fragments selecting one 100-aid advisor band each (`prof00DDxx`).
pub fn broad_fragments(authors: usize) -> Vec<String> {
    (0..(authors / 100).max(1))
        .map(|band| format!("f{band:04}"))
        .collect()
}

/// Name fragments selecting one 1000-aid advisor band each (`prof00Dxxx`).
/// Nothing wider is used: a 10 000-aid band ran out of memory on 16 GB.
pub fn heavy_fragments(authors: usize) -> Vec<String> {
    (0..(authors / 1000).max(1))
        .map(|band| format!("f{band:03}"))
        .collect()
}

/// An answer that can be compared with another of its kind.
pub trait Answer: Clone {
    /// Whether two answers agree within [`TOLERANCE`].
    fn agrees(&self, other: &Self) -> bool;
    /// The answer moved by more than the tolerance (to corrupt an oracle).
    fn perturbed(&self) -> Self;
}

impl Answer for f64 {
    fn agrees(&self, other: &f64) -> bool {
        (self - other).abs() <= TOLERANCE
    }
    fn perturbed(&self) -> f64 {
        self + 1e-3
    }
}

impl Answer for Vec<(Row, f64)> {
    fn agrees(&self, other: &Self) -> bool {
        self.len() == other.len()
            && self
                .iter()
                .zip(other)
                .all(|((ra, pa), (rb, pb))| ra == rb && pa.agrees(pb))
    }
    fn perturbed(&self) -> Self {
        let mut out = self.clone();
        match out.first_mut() {
            Some((_, p)) => *p += 1e-3,
            None => out.push((Row::new(), 0.0)),
        }
        out
    }
}

/// Counts attempted and failed operations and holds each distinct
/// operation's first answer, so later answers are checked for agreement
/// during the run and the stored ones against an oracle after it.
#[derive(Debug)]
pub struct Checker<A: Answer> {
    first: Vec<Option<A>>,
    seen: Vec<u64>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored, disagreed with an earlier answer of the
    /// same operation, or disagreed with the oracle.
    pub failed: u64,
    corrupt_next: bool,
}

impl<A: Answer> Checker<A> {
    /// A checker over `distinct` operations. With `corrupt_oracle` the first
    /// oracle value handed to [`Checker::verify`] is perturbed, which must
    /// fail the run.
    pub fn new(distinct: usize, corrupt_oracle: bool) -> Self {
        Checker {
            first: vec![None; distinct],
            seen: vec![0; distinct],
            attempted: 0,
            failed: 0,
            corrupt_next: corrupt_oracle,
        }
    }

    /// Records one answered operation.
    pub fn observe(&mut self, id: usize, answer: A) {
        self.attempted += 1;
        self.seen[id] += 1;
        match &self.first[id] {
            Some(first) if !first.agrees(&answer) => self.failed += 1,
            Some(_) => {}
            None => self.first[id] = Some(answer),
        }
    }

    /// Records `n` operations that returned an error.
    pub fn error(&mut self, n: u64) {
        self.attempted += n;
        self.failed += n;
    }

    /// The first answer observed for `id`, if any.
    pub fn answer(&self, id: usize) -> Option<&A> {
        self.first[id].as_ref()
    }

    /// Ids with at least one observed answer.
    pub fn observed_ids(&self) -> Vec<usize> {
        (0..self.first.len())
            .filter(|&i| self.first[i].is_some())
            .collect()
    }

    /// Holds the stored answer of `id` against the oracle's; a mismatch
    /// fails every operation that returned it.
    pub fn verify(&mut self, id: usize, oracle: A) {
        let oracle = if std::mem::take(&mut self.corrupt_next) {
            oracle.perturbed()
        } else {
            oracle
        };
        if let Some(first) = &self.first[id] {
            if !first.agrees(&oracle) {
                self.failed = (self.failed + self.seen[id]).min(self.attempted);
            }
        }
    }
}

/// Exact MVDB probability of a lineage without an OBDD or an MV-index, so
/// independent of everything the benchmark times.
///
/// Query and `W` clauses are grouped into connected components; each group
/// `g` gets its Theorem 1 conditional by Shannon expansion,
/// `q_g = (P0(Q_g ∨ W_g) − P0(W_g)) / (1 − P0(W_g))`, and the groups, being
/// independent, combine as `1 − ∏ (1 − q_g)`. Only the groups the query
/// touches are expanded, which keeps every `P0(W_g)` a small number: the
/// engine's own Shannon and per-query-OBDD backends expand all of `W`, and
/// at 10 000 authors `P0(W)` overflows and both return NaN.
pub fn shannon_oracle(lineage: &Lineage, w_clauses: &[Clause], indb: &InDb) -> f64 {
    if lineage.is_false() {
        return 0.0;
    }
    if lineage.is_true() {
        return 1.0;
    }
    let mut components = UnionFind::default();
    for clause in w_clauses.iter().chain(lineage.clauses()) {
        components.union_clause(clause);
    }
    // Per component the query touches: its query clauses, its `W` clauses.
    let mut groups: BTreeMap<usize, (Vec<Clause>, Vec<Clause>)> = BTreeMap::new();
    for clause in lineage.clauses() {
        let group = groups.entry(components.find_id(clause[0])).or_default();
        group.0.push(clause.clone());
    }
    for clause in w_clauses {
        if let Some(group) = groups.get_mut(&components.find_id(clause[0])) {
            group.1.push(clause.clone());
        }
    }
    let mut none = 1.0;
    for (query, w) in groups.into_values() {
        let w = Lineage::from_clauses(w);
        let p_w = shannon_probability(&w, indb);
        let p_q_or_w = shannon_probability(&Lineage::from_clauses(query).or(&w), indb);
        none *= 1.0 - (p_q_or_w - p_w) / (1.0 - p_w);
    }
    1.0 - none
}

/// The clauses of `W`'s lineage on the engine's unsharded store, for
/// [`shannon_oracle`].
pub fn w_clauses(ctx: &mv_core::EvalContext<'_>) -> Result<Vec<Clause>, CoreError> {
    Ok(ctx
        .w_lineage()?
        .map(|w| w.clauses().to_vec())
        .unwrap_or_default())
}

/// What the single-threaded calibration kernel takes, in milliseconds, on
/// the machine the benchmark was written on when it is quiet. Times scaled
/// by a [`Calibrator`] are reported as if the kernel took this long.
pub const CALIBRATION_REFERENCE_MS: f64 = 1.6;

/// How often a measuring loop runs the calibration kernel.
const CALIBRATION_INTERVAL: Duration = Duration::from_millis(50);

/// Measures how fast this machine is right now, so that times can be
/// reported at a reference machine speed.
///
/// On a shared virtual machine the same binary on the same input takes
/// anywhere between 0.75 and 2 times its usual time, drifting over seconds
/// to minutes, and one run of a workload lands wherever the drift
/// happens to be. A fixed kernel (random read-modify-writes over 4 MB plus
/// integer arithmetic) interleaved with the measured operations drifts with
/// them; dividing by its median cut the run-to-run spread of a batch of
/// point queries from 19–41 % to 2–18 %. The kernel forks and joins as many
/// threads as the measured operation does (a sharded session runs one per
/// shard), because a machine that is fast on one core can still be slow on
/// two. It costs 3 % of the measured phase and its time is taken out of
/// every reported number.
#[derive(Debug)]
pub struct Calibrator {
    buffers: Vec<Vec<u64>>,
    samples_ms: Vec<f64>,
    last: Instant,
    /// Total time spent in the kernel, to take out of wall-clock totals.
    pub spent: Duration,
}

/// The kernel proper: 200 000 dependent random read-modify-writes.
fn calibration_kernel(buffer: &mut [u64]) {
    let n = buffer.len();
    let mut x = 88_172_645_463_325_252u64;
    for _ in 0..200_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut buffer[(x as usize) % n];
        *slot = slot.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(x);
    }
    std::hint::black_box(x);
}

impl Calibrator {
    /// A calibrator whose kernel runs on `threads` threads at once.
    pub fn new(threads: usize) -> Self {
        Calibrator {
            buffers: vec![vec![1; 512 * 1024]; threads.max(1)],
            samples_ms: Vec::new(),
            last: Instant::now(),
            spent: Duration::ZERO,
        }
    }

    /// Runs the kernel once and records how long it took.
    pub fn sample(&mut self) {
        let started = Instant::now();
        let (first, rest) = self.buffers.split_first_mut().expect("at least one thread");
        std::thread::scope(|scope| {
            for buffer in rest {
                scope.spawn(|| calibration_kernel(buffer));
            }
            calibration_kernel(first);
        });
        let elapsed = started.elapsed();
        self.samples_ms.push(elapsed.as_secs_f64() * 1e3);
        self.spent += elapsed;
        self.last = Instant::now();
    }

    /// Runs the kernel if the last sample is older than the interval. Call
    /// between two measured operations.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= CALIBRATION_INTERVAL {
            self.sample();
        }
    }

    /// How much slower than the reference this machine ran while the
    /// samples were taken (1 without samples).
    pub fn slowdown(&self) -> f64 {
        if self.samples_ms.is_empty() {
            1.0
        } else {
            stats::median(&self.samples_ms) / CALIBRATION_REFERENCE_MS
        }
    }
}

/// Runs `build` `reps` times, dropping each result before the next build so
/// two engines never coexist, and returns the last result with the median
/// build time in seconds.
pub fn repeat_setup<T>(reps: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(build());
        times.push(started.elapsed().as_secs_f64());
    }
    (
        last.expect("at least one repetition"),
        stats::median(&times),
    )
}

/// Compiles the sharded engine the way a traced run does: translation,
/// MV-index compilation and sharding are each timed from outside and
/// reported as per-layer metrics. The engine's own compile repeats the first
/// two, which is why only traced runs pay for this.
pub fn traced_compile(
    data: &DblpDataset,
    shards: usize,
    metrics: &mut Metrics,
) -> Result<ShardedEngine, CoreError> {
    let started = Instant::now();
    let translated = TranslatedIndb::new(&data.mvdb)?;
    metrics.set("core.translate_s", started.elapsed().as_secs_f64(), 1);
    metrics.set("core.translate.tuples", translated.num_tuples() as f64, 1);
    if let Some(w) = translated.w() {
        let started = Instant::now();
        let index = MvIndex::compile(translated.indb(), w).map_err(CoreError::from)?;
        metrics.set("mvindex.compile_s", started.elapsed().as_secs_f64(), 1);
        let stats = index.stats();
        metrics.set("mvindex.blocks", stats.num_blocks as f64, 1);
        metrics.set("mvindex.nodes", stats.total_nodes as f64, 1);
    }
    drop(translated);
    let full = MvdbEngine::compile(&data.mvdb)?;
    let started = Instant::now();
    let engine = ShardedEngine::from_engine(full, shards)?;
    metrics.set("core.shard_compile_s", started.elapsed().as_secs_f64(), 1);
    let partition = engine.partition();
    metrics.set(
        "core.shard.components",
        partition.num_components() as f64,
        1,
    );
    let sizes: Vec<f64> = partition.shard_sizes().iter().map(|&s| s as f64).collect();
    let mean = stats::mean(&sizes);
    if mean > 0.0 {
        let max = sizes.iter().copied().fold(0.0, f64::max);
        metrics.set("core.shard.load_max_over_mean", max / mean, 1);
    }
    Ok(engine)
}

/// Peak resident set size of this process in MB (`VmHWM`); 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn permutation_is_seeded_and_complete() {
        let a = SplitMix64::new(7, 1).permutation(100);
        let b = SplitMix64::new(7, 1).permutation(100);
        let c = SplitMix64::new(8, 1).permutation(100);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn checker_counts_disagreement_and_oracle_mismatch() {
        let mut c: Checker<f64> = Checker::new(2, false);
        c.observe(0, 0.5);
        c.observe(0, 0.5 + 1e-12);
        c.observe(0, 0.6);
        c.observe(1, 0.25);
        assert_eq!((c.attempted, c.failed), (4, 1));
        c.verify(1, 0.25);
        assert_eq!(c.failed, 1);
        c.verify(1, 0.26);
        assert_eq!(c.failed, 2);
    }

    #[test]
    fn a_corrupted_oracle_value_fails() {
        let mut c: Checker<f64> = Checker::new(1, true);
        c.observe(0, 0.5);
        c.verify(0, 0.5);
        assert_eq!(c.failed, 1);
    }

    #[test]
    fn fragments_cover_the_aid_domain() {
        assert_eq!(broad_fragments(10_000).len(), 100);
        assert_eq!(broad_fragments(10_000)[12], "f0012");
        assert_eq!(heavy_fragments(10_000).len(), 10);
        assert_eq!(heavy_fragments(10_000)[3], "f003");
        assert_eq!(heavy_fragments(500), vec!["f000".to_string()]);
    }
}
