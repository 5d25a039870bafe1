//! The benchmark's metric vocabulary.
//!
//! Every run emits either every end-to-end metric (`--trace 0`) or every
//! per-layer metric (`--trace 1`), by these names and units.
//! `BENCHMARK.json` declares the same names; [`crate::spec`] refuses to run
//! when the two disagree, in either direction.

/// End-to-end metrics, `(name, unit)`. Each is defined on all four
/// workloads, is never 0, and repeats from run to run well inside its
/// bound. See the README for per-workload definitions.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_ops_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// What an untraced run measures besides the end-to-end metrics and prints
/// as `detail` lines: tail percentiles (too unsteady on a shared two-core
/// machine to be held to a bound), the numbers before scaling to reference
/// machine speed, and the scale itself. All as measured, none bounded.
pub const DETAILS: &[(&str, &str)] = &[
    ("latency_p95_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("latency_p50_raw_ms", "ms"),
    ("throughput_raw_ops_s", "ops/s"),
    ("calibration.slowdown", "ratio"),
];

/// Per-layer metrics, `(name, unit)`, grouped by the layer whose public
/// call the benchmark times. A layer a workload bypasses reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    // query.parse — `parse_ucq`
    ("query.parse.ns_per_op", "ns"),
    // query.plan — `mv_query::eval::EvalContext::compile_vec`, cold key
    ("query.plan.compile_ns_per_op", "ns"),
    ("query.plan.steps", "count"),
    ("query.plan.probe_steps", "count"),
    ("query.plan.scan_steps", "count"),
    // query.lineage — `mv_core::EvalContext::lineage` / `answer_lineages`
    ("query.lineage.cold_ns", "ns"),
    ("query.lineage.warm_ns_per_op", "ns"),
    ("query.lineage.clauses_per_op", "count"),
    ("query.exec.blocks_scanned", "count"),
    ("query.exec.blocks_skipped", "count"),
    ("query.exec.skip_ratio", "ratio"),
    ("query.exec.csr_probe_steps", "count"),
    ("query.exec.batches", "count"),
    // query.route — `Partition::route`
    ("query.route.ns_per_op", "ns"),
    ("query.route.shards_touched_per_op", "count"),
    ("core.sharded.fallbacks", "count"),
    // obdd.synth — `MvIndex::query_obdd_in` and `ManagerStats` deltas
    ("obdd.synth.ns_per_op", "ns"),
    ("obdd.nodes_allocated", "count"),
    ("obdd.peak_nodes", "count"),
    ("obdd.unique_hit_rate", "ratio"),
    ("obdd.apply_cache_hit_rate", "ratio"),
    ("obdd.cache_evictions", "count"),
    ("obdd.prob_cache_hit_rate", "ratio"),
    // mvindex.intersect — `MvIndex::conditional_probability_in`
    ("mvindex.intersect.ns_per_op", "ns"),
    ("mvindex.blocks_touched_per_op", "count"),
    // set-up — `TranslatedIndb::new`, `MvIndex::compile`,
    // `ShardedEngine::from_engine`
    ("core.translate_s", "s"),
    ("core.translate.tuples", "count"),
    ("mvindex.compile_s", "s"),
    ("mvindex.blocks", "count"),
    ("mvindex.nodes", "count"),
    ("core.shard_compile_s", "s"),
    ("core.shard.components", "count"),
    ("core.shard.load_max_over_mean", "ratio"),
    // core.session / core.context — the end-to-end call on the same sample
    ("core.session.ns_per_query", "ns"),
    ("core.context.cold_build_ns", "ns"),
    ("core.answers.per_answer_ns", "ns"),
    ("core.answers.answers_per_op", "count"),
    ("trace.coverage", "ratio"),
    // core.serve — `ServeOutcome`, `ServerStats`
    ("serve.queue_wait_p50_us", "us"),
    ("serve.queue_wait_p99_us", "us"),
    ("serve.service_p50_us", "us"),
    ("serve.service_p99_us", "us"),
    ("serve.admitted", "count"),
    ("serve.rejected", "count"),
    ("serve.lost", "count"),
    ("serve.degraded_answers", "count"),
    ("serve.requeues", "count"),
    ("serve.compactions", "count"),
    ("serve.reclaimed_nodes", "count"),
    ("serve.arena_bytes_peak", "bytes"),
    ("serve.gen_late_p99_us", "us"),
    // core.update — `ShardedEngine::clone`, `ShardedEngine::apply`,
    // `MvdbServer::submit_update`
    ("update.clone_ms", "ms"),
    ("update.apply_weight_ms", "ms"),
    ("update.apply_struct_ms", "ms"),
    ("update.shards_rebuilt_per_struct", "count"),
    ("update.swap_overhead_ms", "ms"),
    ("update.read_after_swap_us", "us"),
    // Secondary operations of one workload each. The driver wants every
    // end-to-end metric from every workload, so these live here.
    ("heavy_p50_ms", "ms"),
    ("update_weight_p50_ms", "ms"),
    ("update_struct_p50_ms", "ms"),
    ("failed_share", "ratio"),
    // harness — what the benchmark itself costs
    ("harness.generate_s", "s"),
    ("harness.check_s", "s"),
    ("harness.trace_overhead_ratio", "ratio"),
];

/// One emitted metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Declared name.
    pub name: &'static str,
    /// The measured value, with all its digits.
    pub value: f64,
    /// Declared unit.
    pub unit: &'static str,
    /// Samples behind the value (0 for a layer the workload bypasses).
    pub samples: usize,
}

/// The metrics of one run: a value slot per name of one of the two tables.
#[derive(Debug, Clone)]
pub struct Metrics {
    table: &'static [(&'static str, &'static str)],
    values: Vec<(f64, usize)>,
}

impl Metrics {
    /// An all-zero set over [`END_TO_END`] or [`PER_LAYER`].
    pub fn new(table: &'static [(&'static str, &'static str)]) -> Self {
        Metrics {
            table,
            values: vec![(0.0, 0); table.len()],
        }
    }

    /// Sets a metric. Panics on a name outside the table: an undeclared
    /// metric is a bug in the benchmark, never something to emit.
    pub fn set(&mut self, name: &str, value: f64, samples: usize) {
        let slot = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric `{name}` is not declared"));
        self.values[slot] = (value, samples);
    }

    /// Every metric of the table, in table order.
    pub fn into_vec(self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(self.values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                value,
                unit,
                samples,
            })
            .collect()
    }
}
