//! The one batch pipeline behind every session entry point.
//!
//! The paper's online path — lineage of `Q`, intersection with the
//! compiled `W`, Theorem 1 — runs here once, in three phases:
//!
//! 1. **Route**, striped over the route workers, each with a private
//!    context on the full store. With shards, a query's clauses are
//!    collected flat ([`EvalContext::clauses`]: one id buffer, no `Vec` per
//!    clause) and constants are answered on the spot. A lineage of fewer
//!    than [`FAN_OUT_CLAUSES`] clauses on a ladder that starts on the
//!    MV-index is answered where it was collected, in the worker's own
//!    context and query kernel: the index reads only the blocks the
//!    lineage touches, so a shard's `W_s` would save it nothing, and the
//!    answer is the unsharded engine's to the bit. What is left — a lineage
//!    large enough to pay for shard threads, one whose in-place exact rung
//!    degraded, and every lineage of a backend that expands `W` — is routed
//!    per home shard by the worker's one [`mv_query::Router`] (its scratch
//!    checked out once per stripe): a buffer whose clauses all land on one
//!    shard moves to that shard's queue as it is, and only a split one is
//!    copied into one buffer per touched shard ([`mv_query::Routes`]). A
//!    query with no sound routing is evaluated on the full store by the
//!    worker that routed it (the *oracle*). Without shards every query
//!    takes that last branch, so an unsharded session is this phase alone.
//! 2. **Evaluate** each touched shard's queue of clause buffers in a
//!    context of its own over the full store and index (a pooled query
//!    kernel that folds a buffer as it is, the shard's `W_s` in place of
//!    `W`'s lineage); a [`Lineage`] is built
//!    only for a rung or backend that reads one. An item enters its
//!    shard's ladder where its query's did, or at Monte Carlo after the
//!    in-place exact rung degraded. The queues run on one worker per
//!    touched shard when the clauses queued across them reach
//!    [`FAN_OUT_CLAUSES`]; below that a thread costs more than it saves,
//!    and the calling thread runs them in shard order.
//! 3. **Combine** `1 − ∏_s (1 − q_s)` per query, then **rescue**: a query
//!    that lost a shard item, whose in-place evaluation failed for good, or
//!    whose routing worker died, is evaluated on the full store.
//!
//! Every evaluation goes through a [`ResilientBackend`] ladder; plain
//! evaluation is the ladder with the exact rung alone
//! ([`ResilientBackend::exact_only`]). [`Pipeline::plain`] and
//! [`Pipeline::resilient`] are the two projections of [`Pipeline::run`]
//! that [`MvdbSession`](crate::MvdbSession) and
//! [`ShardedSession`](crate::ShardedSession) expose.
//!
//! [`Lineage`]: mv_query::Lineage

use std::borrow::Cow;
use std::cell::{Ref, RefCell};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use mv_obdd::ManagerStats;
use mv_query::lineage::ClauseBuffer;
use mv_query::{Router, Routes, Ucq};

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

/// Clauses queued across the touched shards of one batch (the distinct
/// clauses of their buffers) from which phase 2 evaluates each shard's
/// queue on a thread of its own — and the clauses of one lineage from
/// which phase 1 routes it to the shards instead of answering it in place
/// on the MV-index: a smaller lineage does not pay for shard threads on its
/// own.
///
/// Set from a sweep of `ShardedEngine::probability` over unions of 1–5
/// broad name selections (10 000 authors, seed 42, 2 shards, 2 vCPUs; p50
/// of 1 000 calls, median of 3 rounds), on the caller's thread against
/// fanned out: 526 clauses 233 vs 261 µs, 1 070 474 vs 484, 1 596 732 vs
/// 698, 2 135 976 vs 911, 2 660 1 236 vs 1 130; a heavy selection (≈ 5 300)
/// 2 725 vs 2 171. Break-even is near 1 200 clauses. A broad selection
/// (480–594 clauses) is answered in place, a heavy one (5 201–5 470) fans
/// out, and the point queries of a 4 096-query batch (6–7 clauses each) are
/// answered in place, striped over the route workers.
pub(crate) const FAN_OUT_CLAUSES: usize = 1536;

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

/// [`fan_out`] without threads: the jobs run in order on the calling
/// thread, a job that panicked as `Err` with its payload.
fn in_turn<R>(jobs: usize, job: impl Fn(usize) -> R) -> Vec<std::thread::Result<R>> {
    (0..jobs)
        .map(|j| catch_unwind(AssertUnwindSafe(|| job(j))))
        .collect()
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
    /// The sum of every context's query-side counters: its query kernel,
    /// plus its manager when a backend built in one.
    pub(crate) manager: ManagerStats,
    /// Plan shapes and executor counters, summed over every context.
    pub(crate) query: QueryStats,
    /// Sub-queries evaluated per shard (empty without shards); a lineage
    /// answered in place counts on none.
    pub(crate) shard_queries: Vec<u64>,
    /// Queries answered by the full store although shards exist.
    pub(crate) fallbacks: u64,
    /// Threads phase 2 spawned: one per touched shard but the first at or
    /// above [`FAN_OUT_CLAUSES`], none below it. Read by the fan-out tests.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) threads_spawned: u64,
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
    /// Resolved by its routing worker (constant, in-place or full-store
    /// evaluation, semantic loss).
    Done(Tracked),
    /// Pending on one clause group per touched shard: `items` moves into
    /// the shard queues after phase 1, each entering its shard's ladder at
    /// `entry`, and `combine` folds their outcomes in phase 3.
    Sharded {
        items: Routes,
        entry: Rung,
        combine: Combine,
    },
    /// Its routing worker died, its routing gave up on a degradable fault,
    /// or its in-place evaluation failed on a fault no lower rung takes:
    /// rescued in phase 3.
    Unrouted(CoreError),
}

/// One clause group in its shard's queue: its query's slot, the clauses,
/// the `shard_eval` fault drawn for it and the rung its ladder starts on.
type Queued = (usize, ClauseBuffer, Option<Fault>, Rung);

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
    /// An empty combination; `fault` is what already degraded the query.
    fn new(fault: Option<QueryFault>) -> Self {
        Combine {
            one_minus: 1.0,
            rung: Rung::Exact,
            epsilon: None,
            fault,
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

/// Whether phase 1 answers a lineage of fewer than [`FAN_OUT_CLAUSES`]
/// clauses where it was collected: when the ladder starts on the MV-index.
/// The index reads only the blocks the lineage touches, and every other
/// block cancels in `P0(Φ ∧ ¬W) / P0(¬W)`, so a shard's `W_s` saves it
/// nothing. A backend that expands `W` does save: it expands `W_s` alone.
fn answers_in_place(config: &ResilienceConfig) -> bool {
    matches!(config.inner, EngineBackend::MvIndex(_)) && config.entry == Rung::Exact
}

/// The phase-1 faults of one query of a sharded batch, drawn before phase
/// 1 in query order and raised by the route worker: its `route` fault and
/// the `shard_eval` and `exact_rung` faults of its in-place evaluation.
type RouteFaults = [Option<Fault>; 3];

/// Phase 1 for one query of a sharded engine, through the worker's router.
fn route(
    router: &mut Router<'_>,
    ladder: &ResilientBackend,
    q: &Ucq,
    ctx: &EvalContext<'_>,
    started: Instant,
    [route_fault, shard_fault, exact_fault]: RouteFaults,
) -> Slot {
    let routed = CoreError::trap(sites::ROUTE, || {
        route_fault.map_or(Ok(()), |f| chaos::raise(sites::ROUTE, f))?;
        // A structural backend evaluates queries, not clause groups: it
        // answers on the full store, like a cross-shard lineage.
        if !ladder.config().inner.evaluates_lineage() {
            return Ok(Slot::Done(quarantined(ladder, sites::ORACLE, q, ctx)));
        }
        let clauses = ctx.clauses(q)?;
        if clauses.is_true() || clauses.is_empty() {
            // Constant lineage: answered exactly, no shard touched.
            let p = if clauses.is_true() { 1.0 } else { 0.0 };
            let answer = Tracked::answered_on(Rung::Exact, p, Duration::ZERO, None);
            return Ok(Slot::Done(answer));
        }
        // A small lineage on the MV-index: the exact rung on the buffer, in
        // the worker's own context and kernel, as `MvdbEngine::probability`
        // runs it. A degradable fault sends the buffer to the shards, whose
        // ladders start at Monte Carlo: one exact attempt per query.
        let mut degraded = None;
        if answers_in_place(ladder.config()) && clauses.len() < FAN_OUT_CLAUSES {
            let exact = CoreError::trap(sites::SHARD_EVAL, || {
                shard_fault.map_or(Ok(()), |f| chaos::raise(sites::SHARD_EVAL, f))?;
                ladder.exact(ctx, Target::Clauses(&clauses), exact_fault)
            });
            match exact {
                Ok(p) => {
                    let answer = Tracked::answered_on(Rung::Exact, p, started.elapsed(), None);
                    return Ok(Slot::Done(answer));
                }
                Err(e) if ladder.degrades(&e) => degraded = Some(e),
                Err(e) => return Ok(Slot::Unrouted(e)),
            }
        }
        Ok(match router.route(clauses) {
            Some(items) => Slot::Sharded {
                items,
                entry: match degraded {
                    Some(_) => Rung::MonteCarlo,
                    None => ladder.config().entry,
                },
                combine: Combine::new(degraded.as_ref().map(QueryFault::of)),
            },
            None => {
                let oracle = quarantined(ladder, sites::ORACLE, q, ctx);
                Slot::Done(match &degraded {
                    Some(e) => rerun_after(oracle, e),
                    None => oracle,
                })
            }
        })
    });
    match routed {
        Ok(slot) => slot,
        // Routing gave up (budget, injected fault, panic) on a query that
        // is not thereby unanswerable: the full store gets it in phase 3,
        // on the calling thread, so that its ladder draws in query order.
        Err(e) if e.is_degradable() => Slot::Unrouted(e),
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
        let mut stats = BatchStats {
            shard_queries: vec![0; w_shards.len()],
            ..BatchStats::default()
        };

        // Where a query is evaluated on the full store.
        let full_site = match sharded {
            Some(_) => sites::ORACLE,
            None => sites::SESSION_EVAL,
        };
        // The calling thread's ladder: it draws the faults that must not
        // depend on how the workers interleave, and runs the rescues. A
        // sharded batch's phase-1 faults are drawn here, in query order, for
        // every query: its `route` fault, and its in-place faults when the
        // ladder answers in place (a query not answered in place leaves
        // them unraised). Which queries fault or degrade decides how many
        // draws and shard items the batch makes after phase 1.
        let own = ladder();
        let in_place = answers_in_place(own.config());
        let draw_in_place = |site| if in_place { own.draw(site) } else { None };
        let route_faults: Vec<RouteFaults> = match sharded {
            Some(_) => boolean
                .iter()
                .map(|_| {
                    let route = own.draw(sites::ROUTE);
                    [
                        route,
                        draw_in_place(sites::SHARD_EVAL),
                        draw_in_place(sites::EXACT_RUNG),
                    ]
                })
                .collect(),
            None => Vec::new(),
        };

        // Phase 1: route (with shards) or evaluate outright (without).
        let (routed, route_stats) = striped(
            boolean.len(),
            self.workers,
            |stripe| {
                let ctx = full.context();
                let ladder = ladder();
                let mut router = sharded.map(|engine| engine.partition.router());
                let routed: Vec<(Slot, Duration)> = stripe
                    .map(|i| {
                        let started = Instant::now();
                        let slot = match &mut router {
                            Some(router) => {
                                route(router, &ladder, &boolean[i], &ctx, started, route_faults[i])
                            }
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
        // An item's `shard_eval` fault is drawn here, in (query, shard)
        // order, and raised by the worker around the item: the seed decides
        // which items fault, not how the workers happen to interleave.
        let mut queues: Vec<Vec<Queued>> = w_shards.iter().map(|_| Vec::new()).collect();
        for (qi, slot) in slots.iter_mut().enumerate() {
            if let Slot::Sharded { items, entry, .. } = slot {
                for (shard, item) in std::mem::replace(items, Routes::Split(Vec::new())) {
                    queues[shard].push((qi, item, own.draw(sites::SHARD_EVAL), *entry));
                }
            }
        }

        // Phase 2: evaluate, one isolated ladder pass per item, each touched
        // shard's queue in its own context, ladder and query kernel over
        // the shared (read-mostly) store and index — on a worker of its own
        // when the batch is large enough to pay for the threads.
        let touched: Vec<_> = queues
            .into_iter()
            .enumerate()
            .filter(|(_, queue)| !queue.is_empty())
            .collect();
        let queued: usize = touched
            .iter()
            .flat_map(|(_, queue)| queue)
            .map(|(_, clauses, ..)| clauses.len())
            .sum();
        let evaluate = |job: usize| {
            let (s, queue) = &touched[job];
            let ladder = ladder();
            let ctx = full.context().with_w_lineage(&w_shards[*s]);
            let items: Vec<(QueryOutcome, Duration)> = queue
                .iter()
                .map(|(_, clauses, fault, entry)| {
                    let started = Instant::now();
                    let outcome = CoreError::trap(sites::SHARD_EVAL, || {
                        fault.map_or(Ok(()), |f| chaos::raise(sites::SHARD_EVAL, f))?;
                        Ok(ladder.run(&ctx, Target::Clauses(clauses), *entry).outcome)
                    })
                    .unwrap_or_else(|e| QueryOutcome::lost(QueryFault::of(&e), started));
                    (outcome, started.elapsed())
                })
                .collect();
            (items, worker_stats(&ctx))
        };
        let evaluated = if queued >= FAN_OUT_CLAUSES {
            stats.threads_spawned = touched.len().saturating_sub(1) as u64;
            fan_out(touched.len(), evaluate)
        } else {
            in_turn(touched.len(), evaluate)
        };

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
                // Never routed, or failed in place: straight to the full
                // store, a dead worker counting as the first retry.
                Slot::Unrouted(cause) => {
                    let (rescued, spent) = rescue(qi, 0, None);
                    (rerun_after(rescued, &cause), spent)
                }
            };
            tracked.outcome.elapsed = spent + rescued;
            stats.fallbacks += u64::from(tracked.outcome.fallback);
            out.push(tracked);
        }
        if let Some(ctx) = &rescuer {
            stats.add(worker_stats(ctx));
        }
        self.last.replace(stats);
        out
    }
}
