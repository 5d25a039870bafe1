//! The four workloads, and the layer-by-layer decomposition of a Boolean
//! query that `point_batch` and `broad_select` share in their traced pass.

pub mod adhoc_answers;
pub mod broad_select;
pub mod point_batch;
pub mod serve_rw;

use std::collections::BTreeSet;

use mv_core::{EvalContext, ShardedEngine};
use mv_obdd::ManagerStats;
use mv_query::eval::EvalContext as PlanContext;
use mv_query::partition::RoutedLineage;
use mv_query::{parse_ucq, ExecStats};

use crate::metrics::{Metrics, DETAILS, END_TO_END};
use crate::stats;
use crate::trace::Tracer;
use crate::{RunConfig, RunReport, Workload};

/// Span names of the layers an operation passes through, in call order.
/// `trace.coverage` sums their self time.
const OP_LAYERS: [&str; 7] = [
    "core.context",
    "core.context.drop",
    "query.parse",
    "query.lineage",
    "query.route",
    "obdd.synth",
    "mvindex.intersect",
];

/// Evaluates Boolean queries one layer at a time, each public call inside a
/// span, on one long-lived context over the unsharded engine.
///
/// `ShardedEngine` keeps its shards private, so synthesis and intersection
/// are timed against the unsharded MV-index — the engine's own oracle and
/// fallback path. That makes the decomposed answer an independent check on
/// the sharded one, and it is why a heavy query reads slower here than
/// end to end.
pub(crate) struct BooleanTrace<'e> {
    engine: &'e ShardedEngine,
    ctx: EvalContext<'e>,
    plan_ctx: PlanContext<'e>,
    index_before: ManagerStats,
    pub tracer: Tracer,
    ops: u32,
    clauses: usize,
    shards_touched: usize,
    routed: usize,
    blocks_touched: usize,
}

impl<'e> BooleanTrace<'e> {
    pub fn new(engine: &'e ShardedEngine) -> Self {
        let full = engine.full();
        BooleanTrace {
            engine,
            ctx: full.context(),
            plan_ctx: PlanContext::new(full.translated().indb().database()),
            index_before: full.index().manager_stats(),
            tracer: Tracer::new(),
            ops: 0,
            clauses: 0,
            shards_touched: 0,
            routed: 0,
            blocks_touched: 0,
        }
    }

    /// One operation: parse, lineage, route, synthesis, intersection.
    pub fn op(&mut self, text: &str) -> Result<f64, String> {
        let BooleanTrace {
            engine,
            ctx,
            plan_ctx,
            tracer,
            ..
        } = self;
        let op = self.ops;
        self.ops += 1;
        let full = engine.full();
        let index = full.index();
        let root = tracer.begin("op", None, op);
        let query = tracer
            .scope("query.parse", Some(root), op, || parse_ucq(text))
            .map_err(|e| e.to_string())?;
        let lineage = tracer
            .scope("query.lineage", Some(root), op, || ctx.lineage(&query))
            .map_err(|e| e.to_string())?;
        let mut shards = 0;
        let p = if lineage.is_true() {
            1.0
        } else if lineage.is_false() {
            0.0
        } else {
            let routed = tracer.scope("query.route", Some(root), op, || {
                engine.partition().route(&lineage)
            });
            shards = match routed {
                RoutedLineage::Sharded { groups, .. } => groups.len(),
                RoutedLineage::CrossShard => engine.num_shards(),
            };
            let manager = ctx.query_manager();
            // The intersection call synthesizes the diagram again; built
            // first in the same manager, that second build is answered by
            // the unique table and the apply memo (as far as the lossy memo
            // still holds it), so the span is mostly intersection.
            let diagram = tracer
                .scope("obdd.synth", Some(root), op, || {
                    index.query_obdd_in(manager, &lineage)
                })
                .map_err(|e| e.to_string())?;
            let p = tracer
                .scope("mvindex.intersect", Some(root), op, || {
                    index.conditional_probability_in(
                        manager,
                        &lineage,
                        ctx.indb(),
                        full.intersect_algorithm(),
                    )
                })
                .map_err(|e| e.to_string())?;
            drop(diagram);
            p
        };
        tracer.end(root);

        // A probe outside the operation: plan compilation for a key this
        // context has not seen. The lineage span above already contains the
        // same compilation, so this span has no parent and is left out of
        // the coverage sum.
        tracer
            .scope("query.plan", None, op, || plan_ctx.compile_vec(&query))
            .map_err(|e| e.to_string())?;

        self.clauses += lineage.num_clauses();
        if shards > 0 {
            self.shards_touched += shards;
            self.routed += 1;
            let blocks: BTreeSet<usize> = lineage
                .variables()
                .into_iter()
                .filter_map(|t| index.block_of(t))
                .collect();
            self.blocks_touched += blocks.len();
        }
        Ok(p)
    }

    /// Summarises the spans and counters into per-layer metrics.
    /// `reference_ns` is what the same operations took through the
    /// end-to-end call with tracing off.
    pub fn finish(self, metrics: &mut Metrics, reference_ns: f64) -> Tracer {
        let ops = self.ops as usize;
        let per_op = |total: usize| total as f64 / ops.max(1) as f64;
        let t = &self.tracer;
        set_mean(
            metrics,
            "query.parse.ns_per_op",
            &t.durations_ns("query.parse"),
        );
        set_mean(
            metrics,
            "query.plan.compile_ns_per_op",
            &t.durations_ns("query.plan"),
        );
        let plan = self.plan_ctx.plan_stats();
        metrics.set("query.plan.steps", per_op(plan.steps), ops);
        metrics.set("query.plan.probe_steps", per_op(plan.probe_steps), ops);
        metrics.set("query.plan.scan_steps", per_op(plan.scan_steps), ops);
        let lineage = t.durations_ns("query.lineage");
        if let Some((cold, warm)) = lineage.split_first() {
            metrics.set("query.lineage.cold_ns", *cold, 1);
            set_mean(metrics, "query.lineage.warm_ns_per_op", warm);
        }
        metrics.set("query.lineage.clauses_per_op", per_op(self.clauses), ops);
        set_exec(metrics, self.ctx.query_exec_stats(), ops);
        set_mean(
            metrics,
            "query.route.ns_per_op",
            &t.durations_ns("query.route"),
        );
        metrics.set(
            "query.route.shards_touched_per_op",
            self.shards_touched as f64 / self.routed.max(1) as f64,
            self.routed,
        );
        set_mean(
            metrics,
            "obdd.synth.ns_per_op",
            &t.durations_ns("obdd.synth"),
        );
        let index = self.engine.full().index();
        set_manager(
            metrics,
            self.ctx.query_manager_stats() + index.manager_stats().since(&self.index_before),
            ops,
        );
        set_mean(
            metrics,
            "mvindex.intersect.ns_per_op",
            &t.durations_ns("mvindex.intersect"),
        );
        metrics.set(
            "mvindex.blocks_touched_per_op",
            self.blocks_touched as f64 / self.routed.max(1) as f64,
            self.routed,
        );
        set_coverage(metrics, t, reference_ns, ops);
        self.tracer
    }
}

/// Sets `name` to the mean of `samples` (left at 0 when there are none).
pub(crate) fn set_mean(metrics: &mut Metrics, name: &str, samples: &[f64]) {
    if !samples.is_empty() {
        metrics.set(name, stats::mean(samples), samples.len());
    }
}

/// Executor counters of the traced contexts.
pub(crate) fn set_exec(metrics: &mut Metrics, exec: ExecStats, ops: usize) {
    metrics.set("query.exec.blocks_scanned", exec.blocks_scanned as f64, ops);
    metrics.set("query.exec.blocks_skipped", exec.blocks_skipped as f64, ops);
    let blocks = exec.blocks_scanned + exec.blocks_skipped;
    if blocks > 0 {
        metrics.set(
            "query.exec.skip_ratio",
            exec.blocks_skipped as f64 / blocks as f64,
            ops,
        );
    }
    metrics.set(
        "query.exec.csr_probe_steps",
        exec.csr_probe_steps as f64,
        ops,
    );
    metrics.set("query.exec.batches", exec.batches as f64, ops);
}

/// OBDD manager counters accumulated by the traced pass.
pub(crate) fn set_manager(metrics: &mut Metrics, m: ManagerStats, ops: usize) {
    metrics.set("obdd.nodes_allocated", m.nodes_allocated as f64, ops);
    metrics.set("obdd.peak_nodes", m.peak_nodes as f64, ops);
    metrics.set("obdd.unique_hit_rate", m.unique_hit_rate(), ops);
    metrics.set("obdd.apply_cache_hit_rate", m.apply_cache_hit_rate(), ops);
    metrics.set("obdd.cache_evictions", m.cache_evictions as f64, ops);
    metrics.set("obdd.prob_cache_hit_rate", m.prob_cache_hit_rate(), ops);
}

/// `trace.coverage`, `harness.trace_overhead_ratio` and
/// `core.session.ns_per_query` from the traced spans and the untraced
/// reference time of the same operations.
pub(crate) fn set_coverage(metrics: &mut Metrics, tracer: &Tracer, reference_ns: f64, ops: usize) {
    if reference_ns <= 0.0 || ops == 0 {
        return;
    }
    let own = tracer.self_time_ns();
    let layers: f64 = OP_LAYERS
        .iter()
        .map(|l| own.get(l).copied().unwrap_or(0.0))
        .sum();
    metrics.set("trace.coverage", layers / reference_ns, ops);
    metrics.set(
        "harness.trace_overhead_ratio",
        tracer.total_ns("op") / reference_ns,
        ops,
    );
    metrics.set("core.session.ns_per_query", reference_ns / ops as f64, ops);
}

/// Closes a traced run: the failed share, the trace file, the report.
pub(crate) fn finish_traced(
    config: &RunConfig,
    mut metrics: Metrics,
    tracer: &Tracer,
    attempted: u64,
    failed: u64,
    dataset: mv_dblp::DatasetStats,
) -> Result<RunReport, String> {
    metrics.set(
        "failed_share",
        failed as f64 / attempted.max(1) as f64,
        attempted as usize,
    );
    if let Some(dir) = &config.trace_dir {
        let name = config.workload.name();
        tracer
            .write(&dir.join(format!("trace-{name}.json")), name, config.seed)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(RunReport {
        attempted,
        failed,
        metrics: metrics.into_vec(),
        details: Vec::new(),
        dataset,
    })
}

/// Closes an untraced run: the end-to-end metrics, the details and the
/// report. `setup` is the median set-up time and its repetitions,
/// `latencies_ms` are the primary operation's, and throughput is
/// `correct_ops` over `busy_s`, the measured phase's wall time without the
/// calibration kernel. `slowdown` is the machine's speed against the
/// reference during the measured phase.
#[allow(clippy::too_many_arguments)]
pub(crate) fn finish_timed(
    workload: Workload,
    (setup_s, setup_reps): (f64, usize),
    (correct_ops, busy_s): (u64, f64),
    mut latencies_ms: Vec<f64>,
    slowdown: f64,
    peak_rss_mb: f64,
    (attempted, failed): (u64, u64),
    dataset: mv_dblp::DatasetStats,
) -> RunReport {
    stats::sort(&mut latencies_ms);
    let n = latencies_ms.len();
    let p50 = stats::percentile(&latencies_ms, 0.5);
    let throughput = correct_ops as f64 / busy_s;
    let scale = |on: bool| if on { slowdown } else { 1.0 };

    let mut metrics = Metrics::new(END_TO_END);
    metrics.set("setup_s", setup_s, setup_reps);
    metrics.set(
        "throughput_ops_s",
        throughput * scale(workload.throughput_at_reference_speed()),
        attempted as usize,
    );
    metrics.set(
        "latency_p50_ms",
        p50 / scale(workload.latency_at_reference_speed()),
        n,
    );
    metrics.set("peak_rss_mb", peak_rss_mb, 1);

    let mut details = Metrics::new(DETAILS);
    details.set("latency_p95_ms", stats::percentile(&latencies_ms, 0.95), n);
    details.set("latency_p99_ms", stats::percentile(&latencies_ms, 0.99), n);
    details.set("latency_p50_raw_ms", p50, n);
    details.set("throughput_raw_ops_s", throughput, attempted as usize);
    details.set("calibration.slowdown", slowdown, 1);
    RunReport {
        attempted,
        failed,
        metrics: metrics.into_vec(),
        details: details.into_vec(),
        dataset,
    }
}
