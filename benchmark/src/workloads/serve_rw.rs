//! `serve_rw`: writes beside reads, through the server.
//!
//! Open loop through `MvdbServer`. A reader thread offers point queries at a
//! fixed rate, one broad name selection every 2048 requests, so head-of-line
//! blocking is present at a share that sits clear of both the median and
//! the 99th percentile. A writer thread submits one update every period,
//! alternating a four-operation weight-only batch and a structural batch
//! that inserts one fresh `Advisor(student, advisor)` edge between existing
//! authors, which joins `W` and dirties one shard. Queue wait, snapshot
//! swap, per-worker context rebuild and arena compaction only exist here.
//! Both schedules are fixed, so the offered load is identical on parent and
//! change and a faster apply cannot look like a read regression.
//!
//! Latency is timed from the instant a request was *due*: the generator's
//! own lateness plus `ServeOutcome.total`. Tickets are collected while the
//! generator waits for the next due time, never in place of a submission.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use mv_core::{
    MvdbServer, Rung, ServeConfig, ServeOutcome, ServerStats, ShardedEngine, Ticket, UpdateBatch,
    UpdateKind,
};
use mv_dblp::DblpDataset;
use mv_pdb::Value;
use mv_query::{parse_ucq, Ucq};

use crate::common::{self, Calibrator, Sizing, SplitMix64, TOLERANCE};
use crate::metrics::{Metrics, PER_LAYER};
use crate::stats;
use crate::trace::Tracer;
use crate::{RunConfig, RunReport, Workload};

/// Broad fragments the reads rotate through.
const BROAD_READS: usize = 8;
/// Reads due this soon after an update returned show the cost of the
/// workers re-pinning the new snapshot and rebuilding their contexts.
const AFTER_SWAP: Duration = Duration::from_millis(5);

/// Admission limits no request of this workload reaches, so that every
/// read is admitted at the exact rung and its answer can be checked to
/// 1e-9. With the limits the issue first proposed (queue 1024, degrade at
/// 256, shed at 512, deadline 250 ms) a seventh of the reads failed at this
/// commit: one 40 ms broad read lifts the service-time average enough for
/// the wait estimate (average × depth) to refuse the point reads queued
/// behind it, and a request that expires in the queue feeds its whole wait
/// back into that average. Even a 10 s deadline was refused a few times
/// per ten runs, after a 200 ms broad read with 900 reads queued. Overload
/// behaviour has its own soak in `crates/bench`; here queueing shows as
/// latency, never as a refusal.
fn serve_config() -> ServeConfig {
    ServeConfig {
        workers: common::nproc().saturating_sub(1).max(1),
        queue_capacity: 1 << 20,
        degrade_depth: usize::MAX,
        shed_depth: usize::MAX,
        deadline: Duration::from_secs(3600),
        ..ServeConfig::default()
    }
}

/// The write schedule: weight-only and structural batches alternating,
/// weight-only first.
fn update_schedule(data: &DblpDataset, seed: u64, count: usize) -> Vec<UpdateBatch> {
    let mut rng = SplitMix64::new(seed, 5);
    let base = data.mvdb.base();
    let schema = base.schema();
    let weighted: Vec<_> = base
        .tuples()
        .filter(|(_, t)| !base.is_deterministic(t.rel) && t.weight.is_valid_base_weight())
        .map(|(id, t)| (schema.relation(t.rel).name(), id, t.weight.value()))
        .collect();
    let advisor = schema.relation_id("Advisor");
    let mut inserted = Vec::new();
    (0..count)
        .map(|k| {
            let mut batch = UpdateBatch::new();
            if k % 2 == 0 {
                for _ in 0..4 {
                    let (relation, id, weight) = weighted[rng.below(weighted.len())];
                    batch = batch.set_weight(
                        relation,
                        base.tuple_row(id).clone(),
                        (weight * 1.25).clamp(1e-3, 64.0),
                    );
                }
                return batch;
            }
            loop {
                let pair = (
                    data.students[rng.below(data.students.len())],
                    data.advisors[rng.below(data.advisors.len())],
                );
                let row = vec![Value::int(pair.0), Value::int(pair.1)];
                let exists = advisor.is_some_and(|r| base.tuple_id_by_values(r, &row).is_some());
                if pair.0 != pair.1 && !exists && !inserted.contains(&pair) {
                    inserted.push(pair);
                    return batch.insert("Advisor", row, 1.5);
                }
            }
        })
        .collect()
}

/// One read as the generator saw it.
struct Read {
    query: usize,
    due: Instant,
    submitted: Instant,
    /// `None` when admission refused the request.
    outcome: Option<ServeOutcome>,
}

impl Read {
    /// Latency from the due time, in milliseconds.
    fn latency_ms(&self) -> f64 {
        let served = self.outcome.as_ref().map_or(Duration::ZERO, |o| o.total);
        (self.submitted.saturating_duration_since(self.due) + served).as_secs_f64() * 1e3
    }
}

/// One update as the writer saw it.
struct Update {
    due: Instant,
    started: Instant,
    finished: Instant,
    ok: bool,
}

struct Pass {
    reads: Vec<Read>,
    updates: Vec<Update>,
    wall_s: f64,
    /// Machine slowdown over the pass, from a calibration thread.
    slowdown: f64,
    stats: ServerStats,
    arena_bytes_peak: u64,
}

/// Moves the oldest ticket's outcome to `reads` if it has resolved.
fn collect_one(
    pending: &mut VecDeque<(Read, Ticket)>,
    reads: &mut Vec<Read>,
    tracer: &mut Option<&mut Tracer>,
    wait: Duration,
) -> bool {
    let Some((mut read, ticket)) = pending.pop_front() else {
        return false;
    };
    match ticket.wait_timeout(wait) {
        Ok(outcome) => {
            if let Some(tracer) = tracer {
                let op = reads.len() as u32;
                let dispatched = read.submitted + outcome.queue_wait;
                let root = tracer.record("op", None, op, read.due, read.submitted + outcome.total);
                tracer.record(
                    "serve.queue_wait",
                    Some(root),
                    op,
                    read.submitted,
                    dispatched,
                );
                tracer.record(
                    "serve.service",
                    Some(root),
                    op,
                    dispatched,
                    dispatched + outcome.service,
                );
            }
            read.outcome = Some(outcome);
            reads.push(read);
            true
        }
        Err(ticket) => {
            pending.push_front((read, ticket));
            false
        }
    }
}

/// One open-loop pass: `seconds` of reads at the fixed rate beside the
/// write schedule.
fn pass(
    server: &MvdbServer,
    sizing: &Sizing,
    queries: &[Ucq],
    stream: &[usize],
    schedule: &[UpdateBatch],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let before = server.stats();
    let period = Duration::from_secs_f64(sizing.update_period_s);
    let start = Instant::now();
    let mut reads = Vec::with_capacity(stream.len());
    let mut wall_s = 0.0;
    let reads_done = AtomicBool::new(false);
    let (updates, arena_bytes_peak, slowdown) = std::thread::scope(|scope| {
        // The kernel runs for 1.6 ms in every 50: too little to load the
        // machine, often enough that its median tracks the pass.
        let calibration = scope.spawn(|| {
            let mut calibrator = Calibrator::new(1);
            while !reads_done.load(Ordering::Relaxed) {
                calibrator.sample();
                std::thread::sleep(Duration::from_millis(50));
            }
            calibrator.slowdown()
        });
        let writer = scope.spawn(move || {
            let mut updates = Vec::with_capacity(schedule.len());
            let mut arena_bytes_peak = 0;
            for (k, batch) in schedule.iter().enumerate() {
                let due = start + period.mul_f64(k as f64 + 0.5);
                std::thread::sleep(due.saturating_duration_since(Instant::now()));
                let started = Instant::now();
                let ok = server.submit_update(batch).is_ok();
                updates.push(Update {
                    due,
                    started,
                    finished: Instant::now(),
                    ok,
                });
                arena_bytes_peak = arena_bytes_peak.max(server.stats().arena_bytes_before);
            }
            (updates, arena_bytes_peak)
        });

        let mut pending: VecDeque<(Read, Ticket)> = VecDeque::new();
        for (i, &query) in stream.iter().enumerate() {
            let due = start + Duration::from_secs_f64(i as f64 / sizing.serve_rate);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                if collect_one(&mut pending, &mut reads, &mut tracer, Duration::ZERO) {
                    continue;
                }
                let remaining = due - now;
                if remaining > Duration::from_micros(200) {
                    std::thread::sleep(remaining - Duration::from_micros(100));
                } else {
                    std::hint::spin_loop();
                }
            }
            let submitted = Instant::now();
            let read = Read {
                query,
                due,
                submitted,
                outcome: None,
            };
            match server.submit(queries[query].clone()) {
                Ok(ticket) => pending.push_back((read, ticket)),
                Err(_) => reads.push(read),
            }
        }
        while !pending.is_empty() {
            collect_one(
                &mut pending,
                &mut reads,
                &mut tracer,
                Duration::from_secs(1),
            );
        }
        // The reads' wall time: the schedule leaves the last update room to
        // finish before the last read, but throughput must not depend on it.
        wall_s = start.elapsed().as_secs_f64();
        reads_done.store(true, Ordering::Relaxed);
        let slowdown = calibration
            .join()
            .expect("the calibration thread does not panic");
        let (updates, arena_bytes_peak) = writer.join().expect("the writer thread does not panic");
        (updates, arena_bytes_peak, slowdown)
    });
    if let Some(tracer) = tracer {
        for (k, u) in updates.iter().enumerate() {
            let op = (reads.len() + k) as u32;
            let root = tracer.record("op", None, op, u.due, u.finished);
            tracer.record("core.update", Some(root), op, u.started, u.finished);
        }
    }
    let after = server.stats();
    let stats = ServerStats {
        admitted: after.admitted - before.admitted,
        rejected: after.rejected - before.rejected,
        lost: after.lost - before.lost,
        degraded_answers: after.degraded_answers - before.degraded_answers,
        requeues: after.requeues - before.requeues,
        compactions: after.compactions - before.compactions,
        reclaimed_nodes: after.reclaimed_nodes - before.reclaimed_nodes,
        ..after
    };
    Pass {
        reads,
        updates,
        wall_s,
        slowdown,
        stats,
        arena_bytes_peak: arena_bytes_peak.max(after.arena_bytes_before),
    }
}

/// What applying the schedule to a scratch engine, outside the server,
/// yields: the expected answers at every published stage and the cost of
/// each clone and apply.
struct Stages {
    expected: Vec<Vec<f64>>,
    clone_ms: Vec<f64>,
    apply_ms: Vec<f64>,
    shards_rebuilt: Vec<usize>,
}

fn stages(
    engine: &ShardedEngine,
    queries: &[Ucq],
    schedule: &[UpdateBatch],
) -> Result<Stages, String> {
    let answers = |e: &ShardedEngine| {
        e.session()
            .probabilities(queries)
            .map_err(|e| e.to_string())
    };
    let mut out = Stages {
        expected: vec![answers(engine)?],
        clone_ms: Vec::new(),
        apply_ms: Vec::new(),
        shards_rebuilt: Vec::new(),
    };
    let mut current = engine.clone();
    for batch in schedule {
        let started = Instant::now();
        let mut next = current.clone();
        out.clone_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let started = Instant::now();
        let outcome = next.apply(batch).map_err(|e| e.to_string())?;
        out.apply_ms.push(started.elapsed().as_secs_f64() * 1e3);
        debug_assert_ne!(outcome.kind, UpdateKind::NoOp);
        out.shards_rebuilt.push(outcome.shards_rebuilt);
        current = next;
        out.expected.push(answers(&current)?);
    }
    Ok(out)
}

/// Attempted and failed operations of a run, and the reads answered
/// correctly.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    correct_reads: u64,
}

/// Counts every read and update of a pass. A read fails when it was
/// refused, lost, answered below the exact rung, or matches no published
/// stage; each answer must match *some* stage because a read
/// races the snapshot swap.
fn check(pass: &Pass, stages: &Stages, tally: &mut Tally) {
    for read in &pass.reads {
        let exact = read.outcome.as_ref().and_then(|o| {
            (o.outcome.rung == Some(Rung::Exact))
                .then_some(o.outcome.probability)
                .flatten()
        });
        let correct = exact.is_some_and(|p| {
            stages
                .expected
                .iter()
                .any(|stage| (stage[read.query] - p).abs() <= TOLERANCE)
        });
        tally.attempted += 1;
        if correct {
            tally.correct_reads += 1;
        } else {
            tally.failed += 1;
        }
    }
    for update in &pass.updates {
        tally.attempted += 1;
        if !update.ok {
            tally.failed += 1;
        }
    }
}

fn latencies_ms(pass: &Pass) -> Vec<f64> {
    pass.reads
        .iter()
        .filter(|r| r.outcome.as_ref().is_some_and(ServeOutcome::answered))
        .map(Read::latency_ms)
        .collect()
}

/// The per-layer metrics of a traced run: what the server reported per
/// reply, and the updates in isolation (scratch engine) and under read load.
fn summarise(
    metrics: &mut Metrics,
    untraced: &Pass,
    traced: &Pass,
    stages: &Stages,
    tracer: &Tracer,
) {
    let answered: Vec<&ServeOutcome> = traced
        .reads
        .iter()
        .filter_map(|r| r.outcome.as_ref())
        .collect();
    let mut set_percentiles = |what: &str, mut us: Vec<f64>| {
        stats::sort(&mut us);
        let n = us.len();
        metrics.set(
            &format!("serve.{what}_p50_us"),
            stats::percentile(&us, 0.5),
            n,
        );
        metrics.set(
            &format!("serve.{what}_p99_us"),
            stats::percentile(&us, 0.99),
            n,
        );
    };
    set_percentiles(
        "queue_wait",
        answered
            .iter()
            .map(|o| o.queue_wait.as_secs_f64() * 1e6)
            .collect(),
    );
    set_percentiles(
        "service",
        answered
            .iter()
            .map(|o| o.service.as_secs_f64() * 1e6)
            .collect(),
    );
    let reads = traced.reads.len();
    let s = &traced.stats;
    metrics.set("serve.admitted", s.admitted as f64, reads);
    metrics.set("serve.rejected", s.rejected as f64, reads);
    metrics.set("serve.lost", s.lost as f64, reads);
    metrics.set("serve.degraded_answers", s.degraded_answers as f64, reads);
    metrics.set("serve.requeues", s.requeues as f64, reads);
    metrics.set("serve.compactions", s.compactions as f64, reads);
    metrics.set("serve.reclaimed_nodes", s.reclaimed_nodes as f64, reads);
    metrics.set(
        "serve.arena_bytes_peak",
        traced.arena_bytes_peak as f64,
        reads,
    );
    let mut late_us: Vec<f64> = traced
        .reads
        .iter()
        .map(|r| r.submitted.saturating_duration_since(r.due).as_secs_f64() * 1e6)
        .collect();
    stats::sort(&mut late_us);
    metrics.set(
        "serve.gen_late_p99_us",
        stats::percentile(&late_us, 0.99),
        reads,
    );

    // Updates: the scratch engine gives clone and apply in isolation,
    // the server gives the same batches under read load.
    let of_kind = |values: &[f64], structural: bool| -> Vec<f64> {
        values
            .iter()
            .enumerate()
            .filter(|(k, _)| (k % 2 == 1) == structural)
            .map(|(_, v)| *v)
            .collect()
    };
    let set_median = |metrics: &mut Metrics, name: &str, values: &[f64]| {
        metrics.set(name, stats::median(values), values.len());
    };
    set_median(metrics, "update.clone_ms", &stages.clone_ms);
    set_median(
        metrics,
        "update.apply_weight_ms",
        &of_kind(&stages.apply_ms, false),
    );
    set_median(
        metrics,
        "update.apply_struct_ms",
        &of_kind(&stages.apply_ms, true),
    );
    let rebuilt: Vec<f64> = stages.shards_rebuilt.iter().map(|&s| s as f64).collect();
    let rebuilt = of_kind(&rebuilt, true);
    metrics.set(
        "update.shards_rebuilt_per_struct",
        stats::mean(&rebuilt),
        rebuilt.len(),
    );
    let served_ms: Vec<f64> = traced
        .updates
        .iter()
        .map(|u| (u.finished - u.started).as_secs_f64() * 1e3)
        .collect();
    let overhead: Vec<f64> = served_ms
        .iter()
        .zip(stages.clone_ms.iter().zip(&stages.apply_ms))
        .map(|(served, (clone, apply))| served - clone - apply)
        .collect();
    set_median(metrics, "update.swap_overhead_ms", &overhead);
    let from_due: Vec<f64> = traced
        .updates
        .iter()
        .map(|u| (u.finished - u.due).as_secs_f64() * 1e3)
        .collect();
    set_median(metrics, "update_weight_p50_ms", &of_kind(&from_due, false));
    set_median(metrics, "update_struct_p50_ms", &of_kind(&from_due, true));
    let after_swap: Vec<f64> = traced
        .updates
        .iter()
        .filter_map(|u| {
            traced
                .reads
                .iter()
                .filter(|r| r.due >= u.finished && r.due < u.finished + AFTER_SWAP)
                .map(|r| r.latency_ms() * 1e3)
                .reduce(f64::max)
        })
        .collect();
    set_median(metrics, "update.read_after_swap_us", &after_swap);

    let own = tracer.self_time_ns();
    let served: f64 = ["serve.queue_wait", "serve.service"]
        .iter()
        .map(|l| own.get(l).copied().unwrap_or(0.0))
        .sum();
    let reads_total_ns: f64 = traced.reads.iter().map(|r| r.latency_ms() * 1e6).sum();
    if reads_total_ns > 0.0 {
        metrics.set("trace.coverage", served / reads_total_ns, reads);
    }
    let untraced_ms = stats::mean(&latencies_ms(untraced));
    if untraced_ms > 0.0 {
        metrics.set(
            "harness.trace_overhead_ratio",
            stats::mean(&latencies_ms(traced)) / untraced_ms,
            reads,
        );
    }
}

/// Starts a server over `engine` and serves the warm-up reads closed-loop.
fn start(engine: &Arc<ShardedEngine>, queries: &[Ucq], warmup: &[usize]) -> MvdbServer {
    let server = MvdbServer::start(Arc::clone(engine), serve_config());
    for &id in warmup {
        if let Ok(ticket) = server.submit(queries[id].clone()) {
            ticket.wait();
        }
    }
    server
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Result<RunReport, String> {
    let sizing = &config.sizing;
    let (data, generate_s) = common::generate(sizing, config.seed);

    // Distinct reads: every Boolean point query, then a few broad ones.
    let mut texts = common::point_texts(&data, true);
    let num_point = texts.len();
    let mut rng = SplitMix64::new(config.seed, 4);
    let broad = common::broad_fragments(sizing.authors);
    let broad_order = rng.permutation(broad.len());
    texts.extend(
        broad_order
            .iter()
            .take(BROAD_READS)
            .map(|&i| super::broad_select::named_text(&broad[i])),
    );
    let num_broad = texts.len() - num_point;
    let queries: Vec<Ucq> = texts
        .iter()
        .map(|t| parse_ucq(t))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let order = rng.permutation(num_point);

    let num_reads = (sizing.serve_rate * config.seconds) as usize;
    let stream: Vec<usize> = (0..num_reads)
        .map(|i| {
            if i % sizing.serve_broad_every == sizing.serve_broad_every - 1 {
                num_point + (i / sizing.serve_broad_every) % num_broad
            } else {
                order[i % num_point]
            }
        })
        .collect();
    let warmup: Vec<usize> = order.iter().copied().take(sizing.serve_warmup).collect();
    let schedule = update_schedule(
        &data,
        config.seed,
        (config.seconds / sizing.update_period_s) as usize,
    );
    let mut tally = Tally::default();
    // A corrupted oracle: the first read's expected answer is wrong at
    // every stage, so that read must fail.
    let corrupt = |stages: &mut Stages| {
        if config.corrupt_oracle {
            if let Some(&first) = stream.first() {
                stages.expected.iter_mut().for_each(|s| s[first] += 1e-3);
            }
        }
    };

    if config.trace {
        let mut metrics = Metrics::new(PER_LAYER);
        metrics.set("harness.generate_s", generate_s, 1);
        let engine = Arc::new(
            common::traced_compile(&data, sizing.shards, &mut metrics)
                .map_err(|e| e.to_string())?,
        );
        // Two passes over the same schedules, each against a fresh server:
        // tracing off, then on.
        let untraced = {
            let server = start(&engine, &queries, &warmup);
            pass(&server, sizing, &queries, &stream, &schedule, None)
        };
        let mut tracer = Tracer::new();
        let traced = {
            let server = start(&engine, &queries, &warmup);
            pass(
                &server,
                sizing,
                &queries,
                &stream,
                &schedule,
                Some(&mut tracer),
            )
        };

        let started = Instant::now();
        let mut stages = stages(&engine, &queries, &schedule)?;
        corrupt(&mut stages);
        check(&untraced, &stages, &mut tally);
        check(&traced, &stages, &mut tally);
        metrics.set("harness.check_s", started.elapsed().as_secs_f64(), 1);

        summarise(&mut metrics, &untraced, &traced, &stages, &tracer);
        return super::finish_traced(
            config,
            metrics,
            &tracer,
            tally.attempted,
            tally.failed,
            data.stats,
        );
    }

    let ((engine, server), setup_s) = common::repeat_setup(sizing.setup_reps, || {
        let engine = Arc::new(
            ShardedEngine::compile(&data.mvdb, sizing.shards)
                .expect("the corpus compiles and shards"),
        );
        let server = start(&engine, &queries, &warmup);
        (engine, server)
    });
    let timed = pass(&server, sizing, &queries, &stream, &schedule, None);
    let peak_rss_mb = common::peak_rss_mb();
    drop(server);

    let mut stages = stages(&engine, &queries, &schedule)?;
    corrupt(&mut stages);
    check(&timed, &stages, &mut tally);

    // Throughput counts answered reads only, not the updates beside them.
    Ok(super::finish_timed(
        Workload::ServeRw,
        (setup_s, sizing.setup_reps),
        (tally.correct_reads, timed.wall_s),
        latencies_ms(&timed),
        timed.slowdown,
        peak_rss_mb,
        (tally.attempted, tally.failed),
        data.stats,
    ))
}
