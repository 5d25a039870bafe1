//! `adhoc_answers`: the documented single-query API, one call per query.
//!
//! Closed loop, one client. One operation is `parse_ucq` plus
//! `MvdbEngine::answers` on a non-Boolean query (students of an advisor,
//! affiliations of an author, advisor of a student; a seeded mix), with a
//! fresh evaluation context per call, as the API does today. It uses the
//! lineage and intersection layers differently from the batch path —
//! per-answer lineages and one intersection per answer — and is dominated
//! by what the batch path amortises: a cold context costs about a hundred
//! times a warm one. A caching change that helps `point_batch` at this
//! path's expense, or the reverse, shows as a pair.

use std::time::{Duration, Instant};

use mv_core::backend::MvIndexBackend;
use mv_core::{Backend, MvdbEngine};
use mv_obdd::ManagerStats;
use mv_pdb::Row;
use mv_query::eval::EvalContext as PlanContext;
use mv_query::{parse_ucq, ExecStats};

use crate::common::{self, Calibrator, Checker, SplitMix64};
use crate::metrics::{Metrics, PER_LAYER};
use crate::trace::Tracer;
use crate::workloads::{set_coverage, set_exec, set_manager, set_mean};
use crate::{RunConfig, RunReport, Workload};

type Answers = Vec<(Row, f64)>;

/// The workload's operation.
fn answers(engine: &MvdbEngine, text: &str) -> Result<Answers, String> {
    let query = parse_ucq(text).map_err(|e| e.to_string())?;
    engine.answers(&query).map_err(|e| e.to_string())
}

/// What the decomposed pass counted besides time.
#[derive(Default)]
struct Counts {
    ops: usize,
    answers: usize,
    clauses: usize,
    exec: ExecStats,
    manager: ManagerStats,
}

/// One operation, layer by layer: parse, context build, per-answer
/// lineages on the cold context, then synthesis and intersection per answer.
fn traced_op(
    engine: &MvdbEngine,
    plan_ctx: &PlanContext<'_>,
    tracer: &mut Tracer,
    counts: &mut Counts,
    text: &str,
) -> Result<Answers, String> {
    let op = counts.ops as u32;
    counts.ops += 1;
    let index = engine.index();
    let root = tracer.begin("op", None, op);
    let query = tracer
        .scope("query.parse", Some(root), op, || parse_ucq(text))
        .map_err(|e| e.to_string())?;
    let ctx = tracer.scope("core.context", Some(root), op, || engine.context());
    let lineages = tracer
        .scope("query.lineage", Some(root), op, || {
            ctx.answer_lineages(&query)
        })
        .map_err(|e| e.to_string())?;
    counts.exec = counts.exec + ctx.query_exec_stats();
    let manager = ctx.query_manager();
    let mut out = Vec::with_capacity(lineages.len());
    for (row, lineage) in &lineages {
        tracer
            .scope("obdd.synth", Some(root), op, || {
                index.query_obdd_in(manager, lineage)
            })
            .map_err(|e| e.to_string())?;
        let p = tracer
            .scope("mvindex.intersect", Some(root), op, || {
                index.conditional_probability_in(
                    manager,
                    lineage,
                    ctx.indb(),
                    engine.intersect_algorithm(),
                )
            })
            .map_err(|e| e.to_string())?;
        counts.clauses += lineage.num_clauses();
        out.push((row.clone(), p));
    }
    counts.answers += out.len();
    counts.manager = counts.manager + ctx.query_manager_stats();
    // The call under test also pays for tearing its context down.
    tracer.scope("core.context.drop", Some(root), op, || drop(ctx));
    tracer.end(root);

    // Probes outside the operation, on a context of their own: the same
    // lineages once the context is warm, and plan compilation for a key
    // not seen before.
    let probe = engine.context();
    probe.answer_lineages(&query).map_err(|e| e.to_string())?;
    tracer
        .scope("query.lineage.warm", None, op, || {
            probe.answer_lineages(&query)
        })
        .map_err(|e| e.to_string())?;
    tracer
        .scope("query.plan", None, op, || plan_ctx.compile_vec(&query))
        .map_err(|e| e.to_string())?;
    Ok(out)
}

/// The per-layer metrics of the decomposed pass.
fn summarise(
    metrics: &mut Metrics,
    tracer: &Tracer,
    counts: &Counts,
    plan_ctx: &PlanContext<'_>,
    manager: ManagerStats,
    reference_ns: f64,
) {
    let ops = counts.ops;
    let per_op = |total: f64| total / ops.max(1) as f64;
    set_mean(
        metrics,
        "query.parse.ns_per_op",
        &tracer.durations_ns("query.parse"),
    );
    set_mean(
        metrics,
        "query.plan.compile_ns_per_op",
        &tracer.durations_ns("query.plan"),
    );
    let plan = plan_ctx.plan_stats();
    metrics.set("query.plan.steps", per_op(plan.steps as f64), ops);
    metrics.set(
        "query.plan.probe_steps",
        per_op(plan.probe_steps as f64),
        ops,
    );
    metrics.set("query.plan.scan_steps", per_op(plan.scan_steps as f64), ops);
    set_mean(
        metrics,
        "query.lineage.cold_ns",
        &tracer.durations_ns("query.lineage"),
    );
    set_mean(
        metrics,
        "query.lineage.warm_ns_per_op",
        &tracer.durations_ns("query.lineage.warm"),
    );
    metrics.set(
        "query.lineage.clauses_per_op",
        per_op(counts.clauses as f64),
        ops,
    );
    set_exec(metrics, counts.exec, ops);
    set_manager(metrics, manager, ops);
    let synth_ns = tracer.total_ns("obdd.synth");
    let intersect_ns = tracer.total_ns("mvindex.intersect");
    metrics.set("obdd.synth.ns_per_op", per_op(synth_ns), ops);
    metrics.set("mvindex.intersect.ns_per_op", per_op(intersect_ns), ops);
    set_mean(
        metrics,
        "core.context.cold_build_ns",
        &tracer.durations_ns("core.context"),
    );
    if counts.answers > 0 {
        metrics.set(
            "core.answers.per_answer_ns",
            (synth_ns + intersect_ns) / counts.answers as f64,
            counts.answers,
        );
    }
    metrics.set(
        "core.answers.answers_per_op",
        per_op(counts.answers as f64),
        ops,
    );
    set_coverage(metrics, tracer, reference_ns, ops);
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let sizing = &config.sizing;
    let (data, generate_s) = common::generate(sizing, config.seed);
    let texts = common::point_texts(&data, false);
    let order = SplitMix64::new(config.seed, 3).permutation(texts.len());
    let mut checker: Checker<Answers> = Checker::new(texts.len(), config.corrupt_oracle);
    let warm_up = |engine: &MvdbEngine| -> Result<(), String> {
        for &id in order.iter().take(sizing.adhoc_warmup) {
            answers(engine, &texts[id])?;
        }
        Ok(())
    };
    // Answer sets against the same calls on one shared context.
    let check = |engine: &MvdbEngine, checker: &mut Checker<Answers>| {
        let ctx = engine.context();
        let backend = MvIndexBackend::new(engine.intersect_algorithm());
        for id in checker.observed_ids() {
            let expected = parse_ucq(&texts[id])
                .map_err(|e| e.to_string())
                .and_then(|q| backend.answers(&q, &ctx).map_err(|e| e.to_string()));
            match expected {
                Ok(expected) => checker.verify(id, expected),
                Err(_) => checker.error(1),
            }
        }
    };

    if config.trace {
        let mut metrics = Metrics::new(PER_LAYER);
        metrics.set("harness.generate_s", generate_s, 1);
        let sharded = common::traced_compile(&data, sizing.shards, &mut metrics)
            .map_err(|e| e.to_string())?;
        let engine = sharded.full();
        warm_up(engine)?;

        let sample: Vec<usize> = order
            .iter()
            .copied()
            .take(sizing.adhoc_trace_sample)
            .collect();
        // The sample through the end-to-end call with tracing off…
        let started = Instant::now();
        for &id in &sample {
            match answers(engine, &texts[id]) {
                Ok(a) => checker.observe(id, a),
                Err(_) => checker.error(1),
            }
        }
        let reference_ns = started.elapsed().as_nanos() as f64;

        // …then layer by layer.
        let plan_ctx = PlanContext::new(engine.translated().indb().database());
        let index_before = engine.index().manager_stats();
        let mut tracer = Tracer::new();
        let mut counts = Counts::default();
        for &id in &sample {
            match traced_op(engine, &plan_ctx, &mut tracer, &mut counts, &texts[id]) {
                Ok(a) => checker.observe(id, a),
                Err(_) => checker.error(1),
            }
        }

        let manager = counts.manager + engine.index().manager_stats().since(&index_before);
        summarise(
            &mut metrics,
            &tracer,
            &counts,
            &plan_ctx,
            manager,
            reference_ns,
        );

        let started = Instant::now();
        check(engine, &mut checker);
        metrics.set("harness.check_s", started.elapsed().as_secs_f64(), 1);
        return super::finish_traced(
            config,
            metrics,
            &tracer,
            checker.attempted,
            checker.failed,
            data.stats,
        );
    }

    let (engine, setup_s) = common::repeat_setup(sizing.setup_reps, || {
        let engine = MvdbEngine::compile(&data.mvdb).expect("the corpus compiles");
        warm_up(&engine).expect("the warm-up queries evaluate");
        engine
    });

    let mut latencies_ms = Vec::new();
    let mut cursor = 0usize;
    let mut calibrator = Calibrator::new(1);
    let limit = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    while started.elapsed() < limit {
        calibrator.tick();
        let id = order[cursor % order.len()];
        cursor += 1;
        let op_started = Instant::now();
        let answer = answers(&engine, &texts[id]);
        let elapsed = op_started.elapsed();
        match answer {
            Ok(a) => {
                latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                checker.observe(id, a);
            }
            Err(_) => checker.error(1),
        }
    }
    let busy_s = (started.elapsed() - calibrator.spent).as_secs_f64();
    let peak_rss_mb = common::peak_rss_mb();

    check(&engine, &mut checker);

    Ok(super::finish_timed(
        Workload::AdhocAnswers,
        (setup_s, sizing.setup_reps),
        (checker.attempted - checker.failed, busy_s),
        latencies_ms,
        calibrator.slowdown(),
        peak_rss_mb,
        (checker.attempted, checker.failed),
        data.stats,
    ))
}
