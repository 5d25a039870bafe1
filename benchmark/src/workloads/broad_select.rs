//! `broad_select`: scans, `LIKE` filters, zone maps and large diagrams.
//!
//! Closed loop, one client, one `ShardedEngine::probability` call per
//! operation, in a fixed cycle: 48 *broad* operations (the Figure 2 name
//! selection over a 100-aid advisor band, about 520 clauses across hundreds
//! of components) and then 1 *heavy* one (a 1000-aid band, about 5 400
//! clauses). Broad is where the vectorized scan, the `LIKE` filter,
//! zone-map skipping and lineage building are about half the time; heavy is
//! the only place the OBDD manager's apply and computed-table behaviour,
//! multi-block concatenation and the MV-index intersection dominate.
//! `latency_*` describe the broad operations; the heavy ones weigh on
//! `throughput_ops_s`, where they are more than half the wall time.

use std::time::{Duration, Instant};

use mv_core::ShardedEngine;
use mv_query::{parse_ucq, Ucq};

use crate::common::{self, Calibrator, Checker, SplitMix64};
use crate::metrics::{Metrics, PER_LAYER};
use crate::stats;
use crate::workloads::BooleanTrace;
use crate::{RunConfig, RunReport, Workload};

/// The Boolean name selection over the advisors whose name contains
/// `fragment`, as text.
pub(crate) fn named_text(fragment: &str) -> String {
    format!(
        "Q() :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
         Author(aid1, n1), n1 like '%{fragment}%'"
    )
}

/// Every distinct operation, as text: all broad fragments in a seeded
/// order, then all heavy fragments in a seeded order.
fn operations(authors: usize, seed: u64) -> (Vec<String>, usize) {
    let mut rng = SplitMix64::new(seed, 2);
    let mut shuffled = |all: Vec<String>| -> Vec<String> {
        let order = rng.permutation(all.len());
        order.into_iter().map(|i| named_text(&all[i])).collect()
    };
    let mut texts = shuffled(common::broad_fragments(authors));
    let num_broad = texts.len();
    texts.extend(shuffled(common::heavy_fragments(authors)));
    (texts, num_broad)
}

/// Checks every observed answer against the Shannon oracle on the
/// unsharded store. (These probabilities are all 1 − O(1e-15): some student
/// of some advisor in the band almost surely exists.)
fn check(engine: &ShardedEngine, queries: &[Ucq], checker: &mut Checker<f64>) {
    let ctx = engine.full().context();
    let Ok(w_clauses) = common::w_clauses(&ctx) else {
        return checker.error(1);
    };
    for id in checker.observed_ids() {
        match ctx.lineage(&queries[id]) {
            Ok(l) => checker.verify(id, common::shannon_oracle(&l, &w_clauses, ctx.indb())),
            Err(_) => checker.error(1),
        }
    }
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let sizing = &config.sizing;
    let (data, generate_s) = common::generate(sizing, config.seed);
    let (texts, num_broad) = operations(sizing.authors, config.seed);
    let queries: Vec<Ucq> = texts
        .iter()
        .map(|t| parse_ucq(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let num_heavy = queries.len() - num_broad;
    let per_cycle = sizing.broad_per_cycle;
    // Cycle `c`: the next `per_cycle` broad fragments of the seeded order,
    // wrapping around, then the next heavy fragment.
    let cycle_ops = |c: usize| {
        (0..per_cycle)
            .map(move |k| (c * per_cycle + k) % num_broad)
            .chain(std::iter::once(num_broad + c % num_heavy))
    };
    let mut checker = Checker::new(queries.len(), config.corrupt_oracle);
    let warm_up = |engine: &ShardedEngine| -> Result<(), String> {
        let (broad, heavy) = sizing.broad_warmup;
        for id in (0..broad).chain(num_broad..num_broad + heavy) {
            engine
                .probability(&queries[id])
                .map_err(|e| e.to_string())?;
        }
        Ok(())
    };

    if config.trace {
        let mut metrics = Metrics::new(PER_LAYER);
        metrics.set("harness.generate_s", generate_s, 1);
        let engine = common::traced_compile(&data, sizing.shards, &mut metrics)
            .map_err(|e| e.to_string())?;
        warm_up(&engine)?;

        // The first cycle's operations, first through the end-to-end call
        // with tracing off…
        let sample: Vec<usize> = cycle_ops(0)
            .filter(|&id| id < num_broad + sizing.heavy_trace_sample)
            .collect();
        let session = engine.session();
        let mut reference_ns = 0.0;
        let mut heavy_ms = Vec::new();
        let mut fallbacks = 0;
        for &id in &sample {
            let started = Instant::now();
            let answer = session.probabilities(std::slice::from_ref(&queries[id]));
            let elapsed = started.elapsed();
            reference_ns += elapsed.as_nanos() as f64;
            fallbacks += session.last_fallbacks();
            if id >= num_broad {
                heavy_ms.push(elapsed.as_secs_f64() * 1e3);
            }
            match answer {
                Ok(ps) => checker.observe(id, ps[0]),
                Err(_) => checker.error(1),
            }
        }
        metrics.set("core.sharded.fallbacks", fallbacks as f64, sample.len());
        metrics.set("heavy_p50_ms", stats::median(&heavy_ms), heavy_ms.len());

        // …then layer by layer. The decomposed answer comes from the
        // unsharded MV-index, a second check on the sharded one.
        let mut traced = BooleanTrace::new(&engine);
        for &id in &sample {
            match traced.op(&texts[id]) {
                Ok(p) => checker.observe(id, p),
                Err(_) => checker.error(1),
            }
        }
        let tracer = traced.finish(&mut metrics, reference_ns);

        let started = Instant::now();
        check(&engine, &queries, &mut checker);
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
        warm_up(&engine).expect("the warm-up operations evaluate");
        engine
    });

    let mut broad_ms = Vec::new();
    let mut cycle = 0usize;
    let mut calibrator = Calibrator::new(sizing.shards);
    let limit = Duration::from_secs_f64(config.seconds);
    let started = Instant::now();
    // Whole cycles only, so every run has the same broad-to-heavy mix.
    while started.elapsed() < limit {
        for id in cycle_ops(cycle) {
            calibrator.tick();
            let op_started = Instant::now();
            let answer = engine.probability(&queries[id]);
            let elapsed = op_started.elapsed();
            match answer {
                Ok(p) => {
                    if id < num_broad {
                        broad_ms.push(elapsed.as_secs_f64() * 1e3);
                    }
                    checker.observe(id, p);
                }
                Err(_) => checker.error(1),
            }
        }
        cycle += 1;
    }
    let busy_s = (started.elapsed() - calibrator.spent).as_secs_f64();
    let peak_rss_mb = common::peak_rss_mb();

    check(&engine, &queries, &mut checker);

    Ok(super::finish_timed(
        Workload::BroadSelect,
        (setup_s, sizing.setup_reps),
        (checker.attempted - checker.failed, busy_s),
        broad_ms,
        calibrator.slowdown(),
        peak_rss_mb,
        (checker.attempted, checker.failed),
        data.stats,
    ))
}
