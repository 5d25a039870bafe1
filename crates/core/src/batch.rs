//! The one batch pipeline behind every session entry point.
//!
//! The paper's online path — lineage of `Q`, intersection with the
//! compiled `W`, Theorem 1 — runs here once, in three phases:
//!
//! 1. **Route**, striped over the route workers, each with a private
//!    context on the full store. With shards, a query's lineage is grouped
//!    per home shard ([`mv_query::Partition::route`]); constants are
//!    answered on the spot, and a query with no sound routing is evaluated
//!    on the full store by the worker that routed it (the *oracle*).
//!    Without shards every query takes that last branch, so an unsharded
//!    session is this phase alone.
//! 2. **Evaluate**, one worker per touched shard: a context over the full
//!    store and index with a private query-side manager and the shard's
//!    `W_s` in place of `W`'s lineage.
//! 3. **Combine** `1 − ∏_s (1 − q_s)` per query, then **rescue**: a query
//!    that lost a shard item, or whose routing worker died, is evaluated on
//!    the full store.
//!
//! Every evaluation goes through a [`ResilientBackend`] ladder; plain
//! evaluation is the ladder with the exact rung alone
//! ([`ResilientBackend::exact_only`]). [`Pipeline::plain`] and
//! [`Pipeline::resilient`] are the two projections of [`Pipeline::run`]
//! that [`MvdbSession`](crate::MvdbSession) and
//! [`ShardedSession`](crate::ShardedSession) expose.

use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mv_obdd::ManagerStats;
use mv_query::lineage::Lineage;
use mv_query::partition::RoutedLineage;
use mv_query::Ucq;

use crate::backend::resilient::{
    QueryFault, QueryOutcome, ResilienceConfig, ResilientBackend, Rung, Target, Tracked,
};
use crate::backend::{EngineBackend, EvalContext};
use crate::chaos::{self, sites, Fault};
use crate::engine::MvdbEngine;
use crate::error::CoreError;
use crate::session::QueryStats;
use crate::sharded::ShardedEngine;
use crate::Result;

/// Runs `job(0)` on the calling thread and `job(1)` … `job(jobs − 1)` on
/// scoped threads; results come back in job order, a job that panicked as
/// `Err` with its payload. One job therefore costs no thread at all.
pub(crate) fn fan_out<R: Send>(
    jobs: usize,
    job: impl Fn(usize) -> R + Sync,
) -> Vec<std::thread::Result<R>> {
    if jobs == 0 {
        return Vec::new();
    }
    let job = &job;
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..jobs).map(|w| scope.spawn(move || job(w))).collect();
        let first = catch_unwind(AssertUnwindSafe(|| job(0)));
        std::iter::once(first)
            .chain(spawned.into_iter().map(|handle| handle.join()))
            .collect()
    })
}

/// Stripes the slots `0..len` round-robin over at most `workers` workers
/// (worker `w` takes `w, w + workers, …`, so a run of expensive neighbours
/// is spread out instead of serialising one worker). `stripe` maps its
/// slot indices to one value each, in order, plus a per-worker summary.
/// A stripe that dies as a whole — or returns too few values — fills
/// exactly its own slots through `dead` and contributes no summary.
pub(crate) fn striped<T: Send, S: Send>(
    len: usize,
    workers: usize,
    stripe: impl Fn(std::iter::StepBy<std::ops::Range<usize>>) -> (Vec<T>, S) + Sync,
    dead: impl Fn(CoreError) -> T,
) -> (Vec<T>, Vec<S>) {
    const SITE: &str = "stripe_join";
    let workers = workers.min(len).max(1);
    let mut slots: Vec<Option<T>> = (0..len).map(|_| None).collect();
    let mut summaries = Vec::with_capacity(workers);
    let joined = fan_out(workers, |w| stripe((w..len).step_by(workers)));
    for (w, joined) in joined.into_iter().enumerate() {
        let own = slots.iter_mut().skip(w).step_by(workers);
        match joined {
            Ok((values, summary)) => {
                own.zip(values)
                    .for_each(|(slot, value)| *slot = Some(value));
                summaries.push(summary);
            }
            Err(payload) => {
                own.for_each(|slot| *slot = Some(dead(CoreError::from_panic(SITE, &*payload))));
            }
        }
    }
    let unfilled = || CoreError::WorkerPanicked {
        site: SITE,
        message: "query slot left unfilled by its stripe worker".to_string(),
    };
    let values = slots
        .into_iter()
        .map(|slot| slot.unwrap_or_else(|| dead(unfilled())))
        .collect();
    (values, summaries)
}

/// The counters of one batch — what the `last_*` accessors of both
/// session types report.
#[derive(Debug, Clone, Default)]
pub(crate) struct BatchStats {
    /// Every worker's query-side manager plus the delta the batch added to
    /// each index manager it touched.
    pub(crate) manager: ManagerStats,
    /// Plan shapes and executor counters, summed over every context.
    pub(crate) query: QueryStats,
    /// Sub-queries evaluated per shard (empty without shards).
    pub(crate) shard_queries: Vec<u64>,
    /// Queries answered by the full store although shards exist.
    pub(crate) fallbacks: u64,
}

impl BatchStats {
    fn add(&mut self, (manager, query): WorkerStats) {
        self.manager = self.manager + manager;
        self.query = self.query + query;
    }
}

/// The query-side manager and query-layer counters of one context.
type WorkerStats = (ManagerStats, QueryStats);

fn worker_stats(ctx: &EvalContext<'_>) -> WorkerStats {
    let query = QueryStats {
        plan: ctx.query_plan_stats(),
        exec: ctx.query_exec_stats(),
    };
    (ctx.query_manager_stats(), query)
}

/// Where one query of the batch stands.
enum Slot {
    /// Resolved by its routing worker (constant, full-store evaluation,
    /// semantic loss).
    Done(Tracked),
    /// Pending on one clause group per touched shard: `items` moves into
    /// the shard queues after phase 1, `combine` folds their outcomes in
    /// phase 3.
    Sharded {
        items: Vec<(usize, Lineage)>,
        combine: Combine,
    },
    /// Its routing worker died: rescued in phase 3.
    Unrouted(CoreError),
}

/// Per-query accumulator of the independence combination.
struct Combine {
    one_minus: f64,
    rung: Rung,
    epsilon: Option<f64>,
    fault: Option<QueryFault>,
    retries: u32,
    /// Some per-shard item was lost — reroute the query to the full store.
    lost: bool,
}

impl Combine {
    fn new() -> Self {
        Combine {
            one_minus: 1.0,
            rung: Rung::Exact,
            epsilon: None,
            fault: None,
            retries: 0,
            lost: false,
        }
    }

    /// Folds one per-shard item outcome in.
    fn add(&mut self, item: QueryOutcome) {
        self.retries = self.retries.saturating_add(item.retries);
        if self.fault.is_none() {
            self.fault = item.fault;
        }
        match item.probability {
            Some(p) => {
                self.one_minus *= 1.0 - p;
                // The combined answer is only as good as its weakest item.
                self.rung = self.rung.max(item.rung.unwrap_or(Rung::Exact));
                if let Some(eps) = item.epsilon {
                    // First-order error propagation through
                    // `1 − ∏(1 − q_s)`: the half-widths add (the factors
                    // `∏_{t≠s}(1 − q_t)` only shrink each term).
                    self.epsilon = Some(self.epsilon.unwrap_or(0.0) + eps);
                }
            }
            None => self.lost = true,
        }
    }

    fn finish(self) -> Tracked {
        let p = 1.0 - self.one_minus;
        let mut tracked = Tracked::answered_on(self.rung, p, Duration::ZERO, self.fault);
        tracked.outcome.epsilon = self.epsilon;
        tracked.outcome.retries = self.retries;
        tracked
    }
}

/// Records on a re-run's outcome why the re-run was needed: `cause` lost
/// the first attempt. A panic counts as one retry.
fn rerun_after(mut rerun: Tracked, cause: &CoreError) -> Tracked {
    if matches!(cause, CoreError::WorkerPanicked { .. }) {
        rerun.outcome.retries = rerun.outcome.retries.saturating_add(1);
    }
    rerun
        .outcome
        .fault
        .get_or_insert_with(|| QueryFault::of(cause));
    rerun
}

/// One quarantined full-store evaluation: the chaos `site` wraps a retried
/// ladder pass; a fault (or panic) at the site itself is absorbed by one
/// more pass and stays on the record. [`sites::ORACLE`] is where queries of
/// a sharded engine land when their shards cannot answer them, so an
/// evaluation there is a fallback by definition; an unsharded session
/// evaluates every query at [`sites::SESSION_EVAL`].
fn quarantined(
    ladder: &ResilientBackend,
    site: &'static str,
    q: &Ucq,
    ctx: &EvalContext<'_>,
) -> Tracked {
    let first = CoreError::trap(site, || {
        ladder.chaos(site)?;
        Ok(ladder.run_with_retries(q, ctx))
    });
    let mut tracked = match first {
        Ok(tracked) => tracked,
        Err(cause) => rerun_after(ladder.run_with_retries(q, ctx), &cause),
    };
    tracked.outcome.fallback = site == sites::ORACLE;
    tracked
}

/// Phase 1 for one query of a sharded engine.
fn route(
    engine: &ShardedEngine,
    ladder: &ResilientBackend,
    q: &Ucq,
    ctx: &EvalContext<'_>,
    started: Instant,
) -> Slot {
    let routed = CoreError::trap(sites::ROUTE, || {
        ladder.chaos(sites::ROUTE)?;
        // A structural backend evaluates queries, not clause groups: it
        // answers on the full store, like a cross-shard lineage.
        if !ladder.config().inner.evaluates_lineage() {
            return Ok(Slot::Done(quarantined(ladder, sites::ORACLE, q, ctx)));
        }
        let lineage = ctx.lineage(q)?;
        if lineage.is_true() || lineage.is_false() {
            // Constant lineage: answered exactly, no shard touched.
            let p = if lineage.is_true() { 1.0 } else { 0.0 };
            let answer = Tracked::answered_on(Rung::Exact, p, Duration::ZERO, None);
            return Ok(Slot::Done(answer));
        }
        Ok(match engine.partition.route_owned(lineage) {
            RoutedLineage::Sharded { groups } => Slot::Sharded {
                items: groups
                    .into_iter()
                    .map(|(shard, clauses)| (shard, Lineage::from_distinct_clauses(clauses)))
                    .collect(),
                combine: Combine::new(),
            },
            RoutedLineage::CrossShard => Slot::Done(quarantined(ladder, sites::ORACLE, q, ctx)),
        })
    });
    match routed {
        Ok(slot) => slot,
        // Routing gave up (budget, injected fault, panic) on a query that
        // is not thereby unanswerable: the full store gets it.
        Err(e) if e.is_degradable() => {
            Slot::Done(rerun_after(quarantined(ladder, sites::ORACLE, q, ctx), &e))
        }
        Err(e) => Slot::Done(Tracked::lost(e, started)),
    }
}

/// The batch pipeline over one engine, sharded or not, plus the counters
/// of its most recent batch.
#[derive(Debug)]
pub(crate) struct Pipeline<'e> {
    /// The unsharded engine: all there is without shards, the routing
    /// store and the oracle with them.
    pub(crate) full: &'e MvdbEngine,
    sharded: Option<&'e ShardedEngine>,
    /// Phase-1 workers: the session's threads, or one per shard (the
    /// workers a deployment of that size owns).
    pub(crate) workers: usize,
    last: RefCell<BatchStats>,
}

impl<'e> Pipeline<'e> {
    /// The no-shard case: phase 1 on one worker until told otherwise.
    pub(crate) fn unsharded(engine: &'e MvdbEngine) -> Self {
        Pipeline {
            full: engine,
            sharded: None,
            workers: 1,
            last: RefCell::default(),
        }
    }

    pub(crate) fn sharded(engine: &'e ShardedEngine) -> Self {
        Pipeline {
            full: &engine.full,
            sharded: Some(engine),
            workers: engine.num_shards(),
            last: RefCell::new(BatchStats {
                shard_queries: vec![0; engine.num_shards()],
                ..BatchStats::default()
            }),
        }
    }

    /// The counters of the most recent batch, whether or not it answered
    /// every query.
    pub(crate) fn last(&self) -> Ref<'_, BatchStats> {
        self.last.borrow()
    }

    /// Plain evaluation: the exact rung of the ladder alone. The first lost
    /// query's typed error is the batch's error.
    pub(crate) fn plain(&self, queries: &[Ucq], inner: EngineBackend) -> Result<Vec<f64>> {
        self.run(queries, &|| ResilientBackend::exact_only(inner))
            .into_iter()
            .map(Tracked::into_result)
            .collect()
    }

    /// Evaluation through the full ladder: one outcome per query, never an
    /// error.
    pub(crate) fn resilient(
        &self,
        queries: &[Ucq],
        config: &ResilienceConfig,
    ) -> Vec<QueryOutcome> {
        self.run(queries, &|| ResilientBackend::new(config.clone()))
            .into_iter()
            .map(|tracked| tracked.outcome)
            .collect()
    }

    /// Route → evaluate → combine → rescue, positionally aligned with
    /// `queries`. Each worker builds its own ladder from `ladder`. Every
    /// phase quarantines a failure to the queries it touched, so the batch
    /// always completes; what a lost query *means* is the caller's
    /// projection.
    fn run(&self, queries: &[Ucq], ladder: &(dyn Fn() -> ResilientBackend + Sync)) -> Vec<Tracked> {
        let (full, sharded) = (self.full, self.sharded);
        let w_shards = sharded.map_or(&[][..], |engine| &engine.w_shards[..]);
        let boolean: Vec<Cow<'_, Ucq>> = queries
            .iter()
            .map(|q| {
                if q.is_boolean() {
                    Cow::Borrowed(q)
                } else {
                    Cow::Owned(q.boolean())
                }
            })
            .collect();
        let index_before = full.index().manager_stats();
        let mut stats = BatchStats {
            shard_queries: vec![0; w_shards.len()],
            ..BatchStats::default()
        };

        // Where a query is evaluated on the full store.
        let full_site = match sharded {
            Some(_) => sites::ORACLE,
            None => sites::SESSION_EVAL,
        };

        // Phase 1: route (with shards) or evaluate outright (without).
        let (routed, route_stats) = striped(
            boolean.len(),
            self.workers,
            |stripe| {
                let ctx = full.context();
                let ladder = ladder();
                let routed: Vec<(Slot, Duration)> = stripe
                    .map(|i| {
                        let started = Instant::now();
                        let slot = match sharded {
                            Some(engine) => route(engine, &ladder, &boolean[i], &ctx, started),
                            None => Slot::Done(quarantined(&ladder, full_site, &boolean[i], &ctx)),
                        };
                        (slot, started.elapsed())
                    })
                    .collect();
                (routed, worker_stats(&ctx))
            },
            |died| (Slot::Unrouted(died), Duration::ZERO),
        );
        route_stats.into_iter().for_each(|s| stats.add(s));
        let (mut slots, mut elapsed): (Vec<Slot>, Vec<Duration>) = routed.into_iter().unzip();
        // The calling thread's ladder: it draws the `shard_eval` faults and
        // runs the rescues. An item's fault is drawn here, in (query, shard)
        // order, and raised by the worker around the item: the seed decides
        // which items fault, not how the workers happen to interleave.
        let own = ladder();
        let mut queues: Vec<Vec<(usize, Lineage, Option<Fault>)>> =
            w_shards.iter().map(|_| Vec::new()).collect();
        for (qi, slot) in slots.iter_mut().enumerate() {
            if let Slot::Sharded { items, .. } = slot {
                for (shard, item) in items.drain(..) {
                    queues[shard].push((qi, item, own.draw(sites::SHARD_EVAL)));
                }
            }
        }

        // Phase 2: evaluate, one isolated ladder pass per item on one
        // worker per touched shard. Workers share the (read-mostly) store
        // and index; each has its own context, ladder and query manager.
        let touched: Vec<_> = queues
            .into_iter()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .collect();
        let evaluated = fan_out(touched.len(), |job| {
            let (s, queue) = &touched[job];
            let ladder = ladder();
            let ctx = full.context().with_w_lineage(&w_shards[*s]);
            let items: Vec<(QueryOutcome, Duration)> = queue
                .iter()
                .map(|(_, lineage, fault)| {
                    let started = Instant::now();
                    let outcome = CoreError::trap(sites::SHARD_EVAL, || {
                        fault.map_or(Ok(()), |f| chaos::raise(sites::SHARD_EVAL, f))?;
                        Ok(ladder.run(&ctx, Target::Lineage(lineage)).outcome)
                    })
                    .unwrap_or_else(|e| QueryOutcome::lost(QueryFault::of(&e), started));
                    (outcome, started.elapsed())
                })
                .collect();
            (items, worker_stats(&ctx))
        });

        // Phase 3: combine by independence, in shard order. A lost item
        // (or a dead shard worker, which loses its whole queue) does not
        // poison its query: the query is rerouted to the full store below,
        // exactly like a cross-shard lineage would have been.
        for ((s, queue), evaluated) in touched.iter().zip(evaluated) {
            stats.shard_queries[*s] += queue.len() as u64;
            let mut fold = |qi: usize, item: QueryOutcome, spent: Duration| {
                elapsed[qi] += spent;
                if let Slot::Sharded { combine, .. } = &mut slots[qi] {
                    combine.add(item);
                }
            };
            match evaluated {
                Ok((items, worker)) => {
                    stats.add(worker);
                    for ((qi, ..), (item, spent)) in queue.iter().zip(items) {
                        fold(*qi, item, spent);
                    }
                }
                Err(payload) => {
                    let died = CoreError::from_panic(sites::SHARD_EVAL, payload.as_ref());
                    let lost = QueryOutcome::lost(QueryFault::of(&died), Instant::now());
                    for (qi, ..) in queue {
                        fold(*qi, lost.clone(), Duration::ZERO);
                    }
                }
            }
        }
        let mut rescuer: Option<EvalContext<'_>> = None;
        let mut rescue = |qi: usize, retries: u32, fault: Option<QueryFault>| {
            let started = Instant::now();
            let ctx = rescuer.get_or_insert_with(|| full.context());
            let mut tracked = quarantined(&own, full_site, &boolean[qi], ctx);
            tracked.outcome.retries = tracked.outcome.retries.saturating_add(retries);
            if tracked.outcome.fault.is_none() {
                tracked.outcome.fault = fault;
            }
            (tracked, started.elapsed())
        };
        let mut out = Vec::with_capacity(slots.len());
        for (qi, (slot, spent)) in slots.into_iter().zip(elapsed).enumerate() {
            let (mut tracked, rescued) = match slot {
                Slot::Done(tracked) => (tracked, Duration::ZERO),
                Slot::Sharded { combine, .. } if combine.lost => {
                    rescue(qi, combine.retries, combine.fault)
                }
                Slot::Sharded { combine, .. } => (combine.finish(), Duration::ZERO),
                // Never routed: straight to the full store, the dead
                // worker counting as the first retry.
                Slot::Unrouted(died) => rescue(qi, 1, Some(QueryFault::of(&died))),
            };
            tracked.outcome.elapsed = spent + rescued;
            stats.fallbacks += u64::from(tracked.outcome.fallback);
            out.push(tracked);
        }
        if let Some(ctx) = &rescuer {
            stats.add(worker_stats(ctx));
        }
        // Every context's query-side counters are in; the one index manager
        // every phase intersected against is attributed by delta.
        stats.manager = stats.manager + full.index().manager_stats().since(&index_before);
        self.last.replace(stats);
        out
    }
}
