//! `point_batch`: the steady-state hot path.
//!
//! Closed loop, one client. A seeded permutation of every distinct Boolean
//! point query *as text*, cycled in batches: one operation parses a batch
//! and evaluates it through `ShardedSession::probabilities` on one
//! long-lived session. Parse, plan compilation and caching, CSR probes,
//! routing and tiny OBDDs do the work; scans, zone maps and large synthesis
//! do nothing here, so tracing overhead and regressions from unifying the
//! execution pipelines show here first.

use std::time::{Duration, Instant};

use mv_core::{ShardedEngine, ShardedSession};
use mv_query::{parse_ucq, Ucq};

use crate::common::{self, Calibrator, Checker, SplitMix64};
use crate::metrics::{Metrics, PER_LAYER};
use crate::workloads::BooleanTrace;
use crate::{RunConfig, RunReport, Workload};

/// Parses and evaluates one batch: the workload's operation.
fn batch(session: &ShardedSession<'_>, texts: &[&str]) -> Result<Vec<f64>, String> {
    let queries: Vec<Ucq> = texts
        .iter()
        .map(|t| parse_ucq(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    session.probabilities(&queries).map_err(|e| e.to_string())
}

/// Checks a seeded sample of the observed answers against the Shannon
/// oracle on the unsharded store.
fn check(engine: &ShardedEngine, texts: &[String], ids: &[usize], checker: &mut Checker<f64>) {
    let ctx = engine.full().context();
    let Ok(w_clauses) = common::w_clauses(&ctx) else {
        return checker.error(ids.len() as u64);
    };
    for &id in ids {
        let lineage = parse_ucq(&texts[id])
            .map_err(|e| e.to_string())
            .and_then(|q| ctx.lineage(&q).map_err(|e| e.to_string()));
        match lineage {
            Ok(l) => checker.verify(id, common::shannon_oracle(&l, &w_clauses, ctx.indb())),
            Err(_) => checker.error(1),
        }
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let sizing = &config.sizing;
    let (data, generate_s) = common::generate(sizing, config.seed);
    let texts = common::point_texts(&data, true);
    let order = SplitMix64::new(config.seed, 1).permutation(texts.len());
    let mut checker = Checker::new(texts.len(), config.corrupt_oracle);
    let warmup: Vec<&str> = order
        .iter()
        .take(sizing.point_batch)
        .map(|&i| texts[i].as_str())
        .collect();

    if config.trace {
        let mut metrics = Metrics::new(PER_LAYER);
        metrics.set("harness.generate_s", generate_s, 1);
        let engine = common::traced_compile(&data, sizing.shards, &mut metrics)
            .map_err(|e| e.to_string())?;
        let session = engine.session();
        batch(&session, &warmup)?;

        // The sample, first through the end-to-end call with tracing off…
        let sample: Vec<usize> = order
            .iter()
            .copied()
            .take(sizing.point_trace_sample)
            .collect();
        let sample_texts: Vec<&str> = sample.iter().map(|&i| texts[i].as_str()).collect();
        let started = Instant::now();
        let answers = batch(&session, &sample_texts);
        let reference_ns = started.elapsed().as_nanos() as f64;
        metrics.set("core.sharded.fallbacks", session.last_fallbacks() as f64, 1);
        match answers {
            Ok(ps) => sample
                .iter()
                .zip(ps)
                .for_each(|(&id, p)| checker.observe(id, p)),
            Err(_) => checker.error(sample.len() as u64),
        }
        // …then layer by layer.
        let mut traced = BooleanTrace::new(&engine);
        for &id in &sample {
            match traced.op(&texts[id]) {
                Ok(p) => checker.observe(id, p),
                Err(_) => checker.error(1),
            }
        }
        let tracer = traced.finish(&mut metrics, reference_ns);

        let started = Instant::now();
        let oracle_ids: Vec<usize> = sample
            .iter()
            .copied()
            .take(sizing.point_oracle_sample)
            .collect();
        check(&engine, &texts, &oracle_ids, &mut checker);
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
        let engine = ShardedEngine::compile(&data.mvdb, sizing.shards)
            .expect("the corpus compiles and shards");
        batch(&engine.session(), &warmup).expect("the warm-up batch evaluates");
        engine
    });

    let session = engine.session();
    let mut latencies_ms = Vec::new();
    let mut cursor = 0usize;
    let mut calibrator = Calibrator::new(sizing.shards);
    let limit = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    while started.elapsed() < limit {
        calibrator.tick();
        let ids: Vec<usize> = (0..sizing.point_batch)
            .map(|k| order[(cursor + k) % order.len()])
            .collect();
        cursor += sizing.point_batch;
        let batch_texts: Vec<&str> = ids.iter().map(|&i| texts[i].as_str()).collect();
        let op_started = Instant::now();
        let answers = batch(&session, &batch_texts);
        let elapsed = op_started.elapsed();
        match answers {
            Ok(ps) => {
                latencies_ms.push(elapsed.as_secs_f64() * 1e3);
                ids.iter()
                    .zip(ps)
                    .for_each(|(&id, p)| checker.observe(id, p));
            }
            Err(_) => checker.error(ids.len() as u64),
        }
    }
    let busy_s = (started.elapsed() - calibrator.spent).as_secs_f64();
    let peak_rss_mb = common::peak_rss_mb();

    let oracle_ids: Vec<usize> = order
        .iter()
        .copied()
        .filter(|&id| checker.answer(id).is_some())
        .take(sizing.point_oracle_sample)
        .collect();
    check(&engine, &texts, &oracle_ids, &mut checker);

    Ok(super::finish_timed(
        Workload::PointBatch,
        (setup_s, sizing.setup_reps),
        (checker.attempted - checker.failed, busy_s),
        latencies_ms,
        calibrator.slowdown(),
        peak_rss_mb,
        (checker.attempted, checker.failed),
        data.stats,
    ))
}
