//! The always-on serving layer: admission control with explicit
//! backpressure, degrade-before-drop load shedding, heartbeat-based worker
//! supervision, and OBDD arena garbage collection.
//!
//! [`MvdbServer`] turns the batch engine into a long-lived service. The
//! request path is a pipeline of pressure valves, each engaging before the
//! next:
//!
//! 1. **Admission** ([`MvdbServer::submit`]): requests enter a *bounded*
//!    queue. A full queue — or an estimated queue wait that already
//!    exceeds the request's deadline, so not even the sampling rung could
//!    answer in time — yields [`CoreError::Rejected`] with a `retry_after`
//!    hint instead of unbounded buffering. The wait estimate is an EWMA of
//!    observed service times scaled by queue depth.
//! 2. **Degradation before shedding**: under queue pressure the overload
//!    controller lowers the *entry rung* of the resilience ladder for new
//!    admissions — past `degrade_depth` requests start at bounded-exact
//!    synthesis, past `shed_depth` they go straight to Monte Carlo at a
//!    widened ε ([`ServeConfig::widened_epsilon`]). Degraded admissions
//!    still answer; every decision is visible in the [`ServeOutcome`].
//! 3. **Per-request deadlines**: each request carries a wall-clock
//!    deadline inherited by the ladder's `EvalBudget`; a request whose
//!    deadline passed while queued replies `DeadlineExceeded` without
//!    evaluating.
//!
//! **Dispatch.** A worker that just served a request polls the queue for a
//! short, fixed stretch (yielding the CPU between looks) before it parks
//! on the condition variable: a request that follows closely is picked up
//! without a futex round trip, an idle server parks and burns nothing.
//!
//! **Supervision.** Workers tick a heartbeat each loop. A supervisor
//! thread respawns workers whose threads died (panics escape at the
//! `dispatch`/`heartbeat` chaos sites by design) and quarantines *wedged*
//! workers whose heartbeat stalls past [`ServeConfig::heartbeat_timeout`].
//! Either way the in-flight request is recovered from the worker's
//! inflight slot and requeued at the front; a per-request `answered` flag
//! suppresses duplicate replies if a quarantined worker finishes late.
//! Admitted queries are never silently dropped — a request that kills its
//! worker more than [`ServeConfig::max_requeues`] times is *reported* lost
//! with a typed outcome instead of cycling respawns forever.
//!
//! **Arena GC.** Exact answers run in the worker's query kernel and leave
//! nothing behind; the degraded rungs build diagrams in the worker's
//! query-side [`ObddManager`](mv_obdd::ObddManager), whose append-only
//! arena a long-lived worker would otherwise grow without bound.
//! After each request, a worker whose arena crossed
//! [`ServeConfig::compact_watermark`] compacts it: live registered roots
//! (the ladder registers its memoized `W` diagram) are rebuilt into a
//! fresh arena, the generation and weight epoch are bumped so stale node
//! ids and probability stamps cannot resurface, and the ladder rehydrates
//! `W` from its registration token. Compaction is measured per pass in
//! [`ServerStats`].
//!
//! **Live updates.** [`MvdbServer::submit_update`] applies an
//! [`UpdateBatch`] under snapshot semantics: writers are serialized and
//! work on a private clone of the serving engine, readers keep draining
//! on the snapshot they pinned, and only a fully-applied batch is
//! published (an atomic `Arc` swap plus a version bump workers poll
//! between requests). A failed or faulted update leaves the serving
//! snapshot untouched — its side effects die with the discarded clone.
//!
//! Fault injection hooks at the `admit`, `dispatch`, `heartbeat`,
//! `compact`, `update_apply`, and `update_swap` chaos sites prove the
//! recovery paths; the `figures serve` soak campaign drives a sustained
//! over-capacity mixed workload through them and gates zero lost
//! admitted queries, bounded shed fraction, and bounded arena growth.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mv_obdd::CompactOutcome;
use mv_query::Ucq;

use crate::backend::{
    EvalContext, QueryFault, QueryOutcome, ResilienceConfig, ResilientBackend, Rung,
};
use crate::chaos::{self, sites};
use crate::error::CoreError;
use crate::sharded::ShardedEngine;
use crate::update::{UpdateBatch, UpdateOutcome};
use crate::Result;

/// Tuning of an [`MvdbServer`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads evaluating admitted requests.
    pub workers: usize,
    /// Capacity of the bounded admission queue; submissions at a full
    /// queue are rejected with backpressure. `0` rejects everything.
    pub queue_capacity: usize,
    /// Default per-request deadline ([`MvdbServer::submit`]).
    pub deadline: Duration,
    /// Queue depth at which new admissions enter the ladder at
    /// [`Rung::BoundedExact`] instead of the configured entry rung.
    pub degrade_depth: usize,
    /// Queue depth at which new admissions go straight to
    /// [`Rung::MonteCarlo`] at [`ServeConfig::widened_epsilon`].
    pub shed_depth: usize,
    /// Monte Carlo target half-width for admissions past `shed_depth`
    /// (wider than the ladder default — cheaper answers under pressure).
    pub widened_epsilon: f64,
    /// Base resilience-ladder configuration; `entry`, `deadline` and
    /// `epsilon` are overridden per request by the overload controller.
    pub resilience: ResilienceConfig,
    /// Cadence of worker heartbeats and supervisor sweeps.
    pub heartbeat_interval: Duration,
    /// A worker whose heartbeat stalls longer than this is quarantined as
    /// wedged and replaced. Must comfortably exceed the worst-case
    /// per-request service time (rungs × deadline), or long evaluations
    /// are false-positive quarantined — correctness survives (the
    /// recovered request is deduplicated) but respawns are wasted.
    pub heartbeat_timeout: Duration,
    /// Node-count watermark of a worker's query-side arena; crossing it
    /// triggers a compaction after the current request. `usize::MAX`
    /// disables compaction.
    pub compact_watermark: usize,
    /// How many times a request recovered from a dead or wedged worker is
    /// requeued before it is reported lost instead of retried.
    pub max_requeues: u32,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_millis(250),
            degrade_depth: 16,
            shed_depth: 32,
            widened_epsilon: 0.05,
            resilience: ResilienceConfig::default(),
            heartbeat_interval: Duration::from_millis(10),
            heartbeat_timeout: Duration::from_secs(2),
            compact_watermark: 1 << 16,
            max_requeues: 3,
        }
    }
}

/// The per-request record a served query resolves to: the ladder's
/// [`QueryOutcome`] plus the serving-layer decisions around it.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// The server-assigned request id ([`Ticket::id`]).
    pub id: u64,
    /// The ladder outcome: probability, answering rung, achieved ε, fault.
    pub outcome: QueryOutcome,
    /// The entry rung the overload controller admitted the request at —
    /// [`Rung::Exact`] when admitted without pressure.
    pub entry: Rung,
    /// Time spent queued before a worker picked the request up.
    pub queue_wait: Duration,
    /// Evaluation wall-clock on the answering worker.
    pub service: Duration,
    /// Admission-to-reply wall-clock (includes requeues and recovery).
    pub total: Duration,
    /// Times the request was recovered from a dead/wedged worker.
    pub requeues: u32,
    /// The worker slot that replied, or `None` when the supervisor
    /// reported the request lost without a worker answering.
    pub worker: Option<usize>,
}

impl ServeOutcome {
    /// `true` when some rung produced an answer.
    pub fn answered(&self) -> bool {
        self.outcome.answered()
    }

    /// `true` when the overload controller admitted the request below the
    /// configured entry rung (the "degraded admission" series).
    pub fn degraded_admission(&self) -> bool {
        self.entry != Rung::Exact
    }
}

/// A handle to one admitted request; resolve it with [`Ticket::wait`].
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    entry: Rung,
    receiver: Receiver<ServeOutcome>,
}

impl Ticket {
    /// The server-assigned request id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The entry rung the request was admitted at.
    pub fn admitted_rung(&self) -> Rung {
        self.entry
    }

    /// Blocks until the request resolves. If the server is torn down
    /// without replying (it drains admitted requests on shutdown, so this
    /// is a defensive path), a poisoned outcome is synthesized.
    pub fn wait(self) -> ServeOutcome {
        let id = self.id;
        let entry = self.entry;
        self.receiver
            .recv()
            .unwrap_or_else(|_| Ticket::severed(id, entry))
    }

    /// [`Ticket::wait`] with an upper bound; `Err(self)` when the request
    /// has not resolved yet.
    pub fn wait_timeout(self, timeout: Duration) -> std::result::Result<ServeOutcome, Ticket> {
        match self.receiver.recv_timeout(timeout) {
            Ok(outcome) => Ok(outcome),
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => Err(self),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => {
                Ok(Ticket::severed(self.id, self.entry))
            }
        }
    }

    fn severed(id: u64, entry: Rung) -> ServeOutcome {
        ServeOutcome {
            id,
            outcome: QueryOutcome::poisoned(sites::DISPATCH),
            entry,
            queue_wait: Duration::ZERO,
            service: Duration::ZERO,
            total: Duration::ZERO,
            requeues: 0,
            worker: None,
        }
    }
}

/// A counter snapshot of a running (or drained) server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Requests admitted into the queue.
    pub admitted: u64,
    /// Requests rejected by admission control (backpressure).
    pub rejected: u64,
    /// Requests that resolved to a reply (answered or reported lost).
    pub completed: u64,
    /// Replies with no probability: every rung failed, or the request
    /// expired in the queue, or its requeue budget ran out.
    pub lost: u64,
    /// Admissions the overload controller entered below [`Rung::Exact`].
    pub degraded_admissions: u64,
    /// Replies answered below the exact rung.
    pub degraded_answers: u64,
    /// Requests recovered from a dead/wedged worker and requeued.
    pub requeues: u64,
    /// Worker threads (re)spawned after a death or quarantine.
    pub respawns: u64,
    /// Workers quarantined as wedged by heartbeat staleness.
    pub quarantined: u64,
    /// Query-arena compactions across all workers.
    pub compactions: u64,
    /// Arena nodes reclaimed by those compactions.
    pub reclaimed_nodes: u64,
    /// Arena bytes before the most recent compaction (gauge).
    pub arena_bytes_before: u64,
    /// Arena bytes after the most recent compaction (gauge).
    pub arena_bytes_after: u64,
    /// Update batches applied and published as new serving snapshots.
    pub updates_applied: u64,
    /// Update batches that failed (validation, application, or an
    /// injected fault) and left the serving snapshot unchanged.
    pub update_failures: u64,
    /// Queue depth at snapshot time.
    pub queue_depth: usize,
    /// Configured worker count.
    pub workers: usize,
}

impl ServerStats {
    /// Fraction of submissions rejected by admission control.
    pub fn shed_fraction(&self) -> f64 {
        let total = self.admitted + self.rejected;
        if total == 0 {
            0.0
        } else {
            self.rejected as f64 / total as f64
        }
    }
}

/// One admitted request as it travels through the queue and workers.
/// Cloned into the owning worker's inflight slot so the supervisor can
/// recover it if the worker dies; the `answered` flag arbitrates between
/// the original and a recovered duplicate.
#[derive(Debug, Clone)]
struct Request {
    id: u64,
    query: Ucq,
    admitted_at: Instant,
    deadline_at: Instant,
    entry: Rung,
    epsilon: f64,
    requeues: u32,
    answered: Arc<AtomicBool>,
    reply: SyncSender<ServeOutcome>,
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    lost: AtomicU64,
    degraded_admissions: AtomicU64,
    degraded_answers: AtomicU64,
    requeues: AtomicU64,
    respawns: AtomicU64,
    quarantined: AtomicU64,
    compactions: AtomicU64,
    reclaimed_nodes: AtomicU64,
    arena_bytes_before: AtomicU64,
    arena_bytes_after: AtomicU64,
    updates_applied: AtomicU64,
    update_failures: AtomicU64,
}

struct Inbox {
    queue: Mutex<VecDeque<Request>>,
    cv: Condvar,
}

struct ServerShared {
    /// The serving snapshot. `submit_update` swaps the inner `Arc`;
    /// workers pin the snapshot they started with and drain on it, so
    /// readers are never blocked by (or exposed to) a half-applied
    /// update.
    engine: RwLock<Arc<ShardedEngine>>,
    /// Bumped after each published snapshot swap. Workers poll it
    /// between requests to know when to re-pin the engine and make a new
    /// evaluation context on it.
    engine_version: AtomicU64,
    /// Serializes update batches: single writer, many readers.
    writer: Mutex<()>,
    config: ServeConfig,
    inbox: Inbox,
    shutdown: AtomicBool,
    /// EWMA of observed service times (ns); feeds the admission-time
    /// queue-wait estimate. Racy read-modify-write is fine for a gauge.
    ewma_service_ns: AtomicU64,
    counters: Counters,
}

/// The supervisor's view of one worker thread.
struct WorkerSlot {
    worker_id: usize,
    beat: Arc<AtomicU64>,
    /// Supervisor-local: last observed beat and when it last moved.
    last_beat: u64,
    last_change: Instant,
    inflight: Arc<Mutex<Option<Request>>>,
    quarantine: Arc<AtomicBool>,
    /// `None` after a clean drain exit, an abandonment, or a failed spawn.
    handle: Option<JoinHandle<()>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn rlock<T>(rw: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    rw.read().unwrap_or_else(PoisonError::into_inner)
}

/// Admission-time estimate of the queue wait ahead of a new request.
/// `None` during cold start: before the first request completes the
/// service-time EWMA carries no signal, and treating it as a zero-wait
/// estimate would admit arbitrarily deep queues regardless of deadline.
fn estimated_wait(ewma_ns: u64, depth: usize, workers: usize) -> Option<Duration> {
    (ewma_ns > 0)
        .then(|| Duration::from_nanos(ewma_ns.saturating_mul(depth as u64) / workers.max(1) as u64))
}

/// Whether the estimated queue wait already forecloses answering within
/// the deadline. A known estimate compares directly; an unknown
/// (cold-start) estimate falls back to queue depth — past the shed
/// threshold the queue is deep enough that blind admission risks the
/// request expiring unanswered, which is worse than an honest rejection.
fn wait_forecloses(
    est_wait: Option<Duration>,
    deadline: Duration,
    depth: usize,
    shed_depth: usize,
) -> bool {
    match est_wait {
        Some(wait) => wait > deadline,
        None => depth > shed_depth,
    }
}

/// A long-lived, supervised thread pool serving probabilistic queries
/// over a [`ShardedEngine`]. See the module docs for the architecture.
pub struct MvdbServer {
    shared: Arc<ServerShared>,
    next_id: AtomicU64,
    supervisor: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MvdbServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvdbServer")
            .field("stats", &self.stats())
            .finish()
    }
}

impl MvdbServer {
    /// Starts the worker pool and its supervisor.
    pub fn start(engine: Arc<ShardedEngine>, config: ServeConfig) -> MvdbServer {
        let shared = Arc::new(ServerShared {
            engine: RwLock::new(engine),
            engine_version: AtomicU64::new(0),
            writer: Mutex::new(()),
            config,
            inbox: Inbox {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            ewma_service_ns: AtomicU64::new(0),
            counters: Counters::default(),
        });
        let supervisor = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("mv-serve-supervisor".into())
                .spawn(move || supervisor_loop(&shared))
                .ok()
        };
        MvdbServer {
            shared,
            next_id: AtomicU64::new(0),
            supervisor,
        }
    }

    /// The engine snapshot the server currently serves. Updates swap
    /// the snapshot, so the returned `Arc` may become stale; it stays
    /// valid (and exact for its version) for as long as it is held.
    pub fn engine(&self) -> Arc<ShardedEngine> {
        Arc::clone(&rlock(&self.shared.engine))
    }

    /// Monotone count of update batches published since start.
    pub fn snapshot_version(&self) -> u64 {
        self.shared.engine_version.load(Ordering::Acquire)
    }

    /// The server configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.shared.config
    }

    /// Current admission-queue depth.
    pub fn queue_depth(&self) -> usize {
        lock(&self.shared.inbox.queue).len()
    }

    /// Submits a Boolean query under the default deadline.
    pub fn submit(&self, query: Ucq) -> Result<Ticket> {
        self.submit_with_deadline(query, self.shared.config.deadline)
    }

    /// Submits a Boolean query that must resolve within `deadline`.
    ///
    /// Admission control applies, in order: a draining/dead server or a
    /// full queue rejects outright; an estimated queue wait beyond the
    /// deadline rejects (not even the sampler could answer in time);
    /// otherwise the request is admitted at an entry rung chosen from the
    /// queue depth (degrade before drop). Rejections return
    /// [`CoreError::Rejected`] with a back-off hint — the caller should
    /// retry later rather than buffer.
    pub fn submit_with_deadline(&self, query: Ucq, deadline: Duration) -> Result<Ticket> {
        let shared = &self.shared;
        let reject = |depth: usize, retry_after: Duration| {
            shared.counters.rejected.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::Rejected {
                retry_after: retry_after.max(Duration::from_millis(1)),
                depth,
            })
        };
        if shared.shutdown.load(Ordering::SeqCst) || self.supervisor.is_none() {
            return reject(0, deadline);
        }
        // Admission chaos: injected pressure (or a panic) surfaces as a
        // rejection — it must never tear down the caller.
        let admit = catch_unwind(AssertUnwindSafe(|| chaos::apply(sites::ADMIT)));
        let faulted = !matches!(admit, Ok(Ok(())));
        let now = Instant::now();
        let mut queue = lock(&shared.inbox.queue);
        let depth = queue.len();
        let ewma = shared.ewma_service_ns.load(Ordering::Relaxed);
        let est_wait = estimated_wait(ewma, depth, shared.config.workers);
        let foreclosed = wait_forecloses(est_wait, deadline, depth, shared.config.shed_depth);
        if faulted || depth >= shared.config.queue_capacity || foreclosed {
            drop(queue);
            return reject(depth, est_wait.unwrap_or(Duration::ZERO) / 2);
        }
        // The overload controller: degrade before dropping.
        let (entry, epsilon) = if depth >= shared.config.shed_depth {
            (Rung::MonteCarlo, shared.config.widened_epsilon)
        } else if depth >= shared.config.degrade_depth {
            (
                shared.config.resilience.entry.max(Rung::BoundedExact),
                shared.config.resilience.epsilon,
            )
        } else {
            (
                shared.config.resilience.entry,
                shared.config.resilience.epsilon,
            )
        };
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (reply, receiver) = sync_channel(1);
        queue.push_back(Request {
            id,
            query,
            admitted_at: now,
            deadline_at: now + deadline,
            entry,
            epsilon,
            requeues: 0,
            answered: Arc::new(AtomicBool::new(false)),
            reply,
        });
        drop(queue);
        shared.inbox.cv.notify_one();
        shared.counters.admitted.fetch_add(1, Ordering::Relaxed);
        if entry != shared.config.resilience.entry {
            shared
                .counters
                .degraded_admissions
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(Ticket {
            id,
            entry,
            receiver,
        })
    }

    /// Applies an update batch under snapshot semantics and, on
    /// success, publishes the result as the new serving snapshot.
    ///
    /// Writers are serialized (single-writer / multi-reader): the batch
    /// is applied to a private clone of the current engine, so readers
    /// keep serving the old snapshot untouched while the writer works.
    /// Only a fully-applied batch is published; workers notice the
    /// version bump between requests and re-pin, while in-flight
    /// queries drain on the snapshot they started with. A batch that
    /// fails validation or application — or an injected fault at the
    /// `update_apply`/`update_swap` chaos sites — leaves the serving
    /// snapshot exactly as it was: the side effects die with the
    /// discarded clone.
    pub fn submit_update(&self, batch: &UpdateBatch) -> Result<UpdateOutcome> {
        let shared = &self.shared;
        if shared.shutdown.load(Ordering::SeqCst) || self.supervisor.is_none() {
            return Err(CoreError::Rejected {
                retry_after: Duration::from_millis(1),
                depth: 0,
            });
        }
        let _writer = lock(&shared.writer);
        let current = Arc::clone(&rlock(&shared.engine));
        let applied = catch_unwind(AssertUnwindSafe(
            || -> Result<(ShardedEngine, UpdateOutcome)> {
                chaos::apply(sites::UPDATE_APPLY)?;
                let mut next = (*current).clone();
                let outcome = next.apply(batch)?;
                chaos::apply(sites::UPDATE_SWAP)?;
                Ok((next, outcome))
            },
        ))
        .unwrap_or_else(|panic| Err(CoreError::from_panic(sites::UPDATE_APPLY, panic.as_ref())));
        match applied {
            Ok((next, outcome)) => {
                *shared
                    .engine
                    .write()
                    .unwrap_or_else(PoisonError::into_inner) = Arc::new(next);
                shared.engine_version.fetch_add(1, Ordering::Release);
                shared
                    .counters
                    .updates_applied
                    .fetch_add(1, Ordering::Relaxed);
                // Wake idle workers so they re-pin promptly.
                shared.inbox.cv.notify_all();
                Ok(outcome)
            }
            Err(err) => {
                shared
                    .counters
                    .update_failures
                    .fetch_add(1, Ordering::Relaxed);
                Err(err)
            }
        }
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            admitted: c.admitted.load(Ordering::Relaxed),
            rejected: c.rejected.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            lost: c.lost.load(Ordering::Relaxed),
            degraded_admissions: c.degraded_admissions.load(Ordering::Relaxed),
            degraded_answers: c.degraded_answers.load(Ordering::Relaxed),
            requeues: c.requeues.load(Ordering::Relaxed),
            respawns: c.respawns.load(Ordering::Relaxed),
            quarantined: c.quarantined.load(Ordering::Relaxed),
            compactions: c.compactions.load(Ordering::Relaxed),
            reclaimed_nodes: c.reclaimed_nodes.load(Ordering::Relaxed),
            arena_bytes_before: c.arena_bytes_before.load(Ordering::Relaxed),
            arena_bytes_after: c.arena_bytes_after.load(Ordering::Relaxed),
            updates_applied: c.updates_applied.load(Ordering::Relaxed),
            update_failures: c.update_failures.load(Ordering::Relaxed),
            queue_depth: self.queue_depth(),
            workers: self.shared.config.workers.max(1),
        }
    }

    /// Stops admission, drains every admitted request, joins the pool,
    /// and returns the final counters.
    pub fn shutdown(mut self) -> ServerStats {
        self.stop();
        self.stats()
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.inbox.cv.notify_all();
        if let Some(handle) = self.supervisor.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MvdbServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn spawn_worker(shared: &Arc<ServerShared>, worker_id: usize) -> WorkerSlot {
    let beat = Arc::new(AtomicU64::new(0));
    let inflight: Arc<Mutex<Option<Request>>> = Arc::new(Mutex::new(None));
    let quarantine = Arc::new(AtomicBool::new(false));
    let handle = {
        let shared = Arc::clone(shared);
        let beat = Arc::clone(&beat);
        let inflight = Arc::clone(&inflight);
        let quarantine = Arc::clone(&quarantine);
        std::thread::Builder::new()
            .name(format!("mv-serve-{worker_id}"))
            .spawn(move || worker_loop(&shared, worker_id, &beat, &inflight, &quarantine))
            .ok()
    };
    WorkerSlot {
        worker_id,
        beat,
        last_beat: 0,
        last_change: Instant::now(),
        inflight,
        quarantine,
        handle,
    }
}

/// Ticks the worker's heartbeat, applying heartbeat chaos: an injected
/// panic kills the thread (the supervisor respawns it); injected
/// deadline/budget pressure stalls the worker well past the supervision
/// timeout (the supervisor quarantines it as wedged). Returns `false`
/// once the slot has been quarantined — the worker must exit.
fn heartbeat(shared: &ServerShared, beat: &AtomicU64, quarantine: &AtomicBool) -> bool {
    beat.fetch_add(1, Ordering::Relaxed);
    if chaos::apply(sites::HEARTBEAT).is_err() {
        std::thread::sleep(shared.config.heartbeat_timeout * 2);
    }
    !quarantine.load(Ordering::SeqCst)
}

/// How long a worker that just served a request keeps looking into the
/// inbox before it parks on the condition variable. A request that follows
/// closely is picked up without a futex round trip, and at a steady few
/// thousand requests per second the worker's core is only ever halted
/// briefly, which is the cheaper wake-up on a virtual machine (measured
/// with the repository benchmark's `serve_rw`: median read 48.5 µs → 42.5 µs
/// when submitter and worker sit on different cores, 35.5 µs unchanged when
/// they share one). One bounded stretch per served request, so an idle
/// server burns nothing.
const IDLE_POLL: Duration = Duration::from_micros(100);

fn worker_loop(
    shared: &Arc<ServerShared>,
    worker_id: usize,
    beat: &AtomicU64,
    inflight: &Mutex<Option<Request>>,
    quarantine: &AtomicBool,
) {
    // Every worker owns a private evaluation context (its query-side OBDD
    // manager is fresh per context, which is what makes per-worker arena
    // compaction safe) and a private ladder whose `W` memo persists across
    // requests and compactions. The outer loop pins one engine snapshot;
    // when `submit_update` publishes a new one the worker finishes its
    // current request on the pinned snapshot, then re-pins and makes a new
    // context and ladder: what is lost is this worker's query kernel and
    // query-side manager and the memoized `W` (all belong to the old
    // snapshot). The store's join indexes and query plans are not the
    // worker's — relations the update left alone carry their indexes into
    // the new snapshot, a weight-only snapshot keeps the plan cache, and
    // what a structural update invalidated is rebuilt once by whichever
    // worker asks first. The version is read *before* the engine so a swap
    // racing this re-pin costs at most one redundant context, never a
    // stale snapshot served past the next check.
    let mut poll_until = Instant::now();
    loop {
        let snapshot = shared.engine_version.load(Ordering::Acquire);
        let engine = Arc::clone(&rlock(&shared.engine));
        let ctx = engine.full().context();
        let mut ladder = ResilientBackend::new(shared.config.resilience.clone());
        loop {
            if !heartbeat(shared, beat, quarantine) {
                return; // quarantined: a replacement owns this slot now
            }
            // Every look into the inbox happens under its lock and reads the
            // version first: `submit` pushes under the same lock, so a
            // request submitted after `submit_update` returned is never
            // started on the snapshot from before — the worker re-pins and
            // finds it still queued.
            let stale = || shared.engine_version.load(Ordering::Acquire) != snapshot;
            let popped = match poll_inbox(shared, snapshot, poll_until) {
                Some(req) => Some(req),
                None => {
                    let mut queue = lock(&shared.inbox.queue);
                    if stale() {
                        break; // a new snapshot was published: re-pin
                    }
                    match queue.pop_front() {
                        Some(req) => Some(req),
                        None if shared.shutdown.load(Ordering::SeqCst) => return, // drained
                        None => {
                            let (mut queue, _) = shared
                                .inbox
                                .cv
                                .wait_timeout(queue, shared.config.heartbeat_interval)
                                .unwrap_or_else(PoisonError::into_inner);
                            if stale() {
                                break; // woken by the publisher (or beside it)
                            }
                            queue.pop_front()
                        }
                    }
                }
            };
            let Some(mut req) = popped else { continue };
            *lock(inflight) = Some(req.clone());
            // Dispatch chaos runs OUTSIDE the panic trap on purpose: an
            // injected panic here kills the worker with the request in
            // flight, which is exactly the recovery path supervision must
            // prove. Injected deadline/budget pressure is treated as a
            // transient dispatch failure: requeue (bounded), then evaluate
            // anyway — an admitted query is never dropped for a transient.
            match chaos::apply(sites::DISPATCH) {
                Err(_) if req.requeues < shared.config.max_requeues => {
                    *lock(inflight) = None;
                    req.requeues += 1;
                    shared.counters.requeues.fetch_add(1, Ordering::Relaxed);
                    lock(&shared.inbox.queue).push_front(req);
                    shared.inbox.cv.notify_one();
                    continue;
                }
                _ => {}
            }
            let processed = catch_unwind(AssertUnwindSafe(|| {
                process(shared, worker_id, &ctx, &mut ladder, req)
            }));
            let leftover = lock(inflight).take();
            if processed.is_err() {
                // A non-chaos panic escaped the ladder (which traps per-rung
                // panics): the worker survives and the request is recovered
                // from its own inflight slot.
                if let Some(req) = leftover {
                    recover(shared, req);
                }
            }
            maybe_compact(shared, &ctx);
            poll_until = Instant::now() + IDLE_POLL;
        }
    }
}

/// Looks into the inbox until `until`, giving the CPU away between looks
/// so that a submitter sharing the worker's core is never held up (a look
/// can therefore come a whole time slice after the one before it). Returns
/// nothing once a snapshot other than `snapshot` is published — the request
/// stays queued for after the re-pin. A held or poisoned lock counts as an
/// empty look; the parking path that follows deals with both.
fn poll_inbox(shared: &ServerShared, snapshot: u64, until: Instant) -> Option<Request> {
    while Instant::now() < until {
        if let Ok(mut queue) = shared.inbox.queue.try_lock() {
            if shared.engine_version.load(Ordering::Acquire) != snapshot {
                return None;
            }
            if let Some(req) = queue.pop_front() {
                return Some(req);
            }
        }
        std::thread::yield_now();
    }
    None
}

fn process(
    shared: &ServerShared,
    worker_id: usize,
    ctx: &EvalContext<'_>,
    ladder: &mut ResilientBackend,
    req: Request,
) {
    let now = Instant::now();
    let queue_wait = now.saturating_duration_since(req.admitted_at);
    if now >= req.deadline_at {
        // The deadline passed while the request was queued (or being
        // recovered): reply `DeadlineExceeded` without evaluating.
        let err = CoreError::DeadlineExceeded {
            elapsed: queue_wait,
        };
        let outcome = QueryOutcome::lost(QueryFault::of(&err), req.admitted_at);
        finish(shared, Some(worker_id), &req, outcome, queue_wait);
        return;
    }
    // Retune the worker's ladder for this request: the admission-time
    // entry rung and ε, and per-rung budget windows clipped to the
    // remaining deadline. The memoized `W` build survives retuning.
    let remaining = req.deadline_at - now;
    let mut config = shared.config.resilience.clone();
    config.entry = req.entry;
    config.epsilon = req.epsilon;
    config.deadline = Some(config.deadline.map_or(remaining, |d| d.min(remaining)));
    ladder.set_config(config);
    let outcome = ladder.evaluate_with_retries(&req.query, ctx);
    finish(shared, Some(worker_id), &req, outcome, queue_wait);
}

/// Resolves a request exactly once: the first finisher (original worker or
/// recovered duplicate) wins the `answered` flag; later finishers drop
/// their result silently.
fn finish(
    shared: &ServerShared,
    worker: Option<usize>,
    req: &Request,
    outcome: QueryOutcome,
    queue_wait: Duration,
) {
    if req.answered.swap(true, Ordering::SeqCst) {
        return;
    }
    let c = &shared.counters;
    c.completed.fetch_add(1, Ordering::Relaxed);
    if outcome.probability.is_none() {
        c.lost.fetch_add(1, Ordering::Relaxed);
    }
    if outcome.degraded() {
        c.degraded_answers.fetch_add(1, Ordering::Relaxed);
    }
    let service = outcome.elapsed;
    let observed = u64::try_from(service.as_nanos()).unwrap_or(u64::MAX);
    let prev = shared.ewma_service_ns.load(Ordering::Relaxed);
    let next = if prev == 0 {
        observed
    } else {
        prev - prev / 8 + observed / 8
    };
    shared.ewma_service_ns.store(next, Ordering::Relaxed);
    // The caller may have dropped its ticket; a dead receiver is fine.
    let _ = req.reply.send(ServeOutcome {
        id: req.id,
        entry: req.entry,
        queue_wait,
        service,
        total: req.admitted_at.elapsed(),
        requeues: req.requeues,
        worker,
        outcome,
    });
}

/// Requeues a request recovered from a dead or wedged worker, front of
/// the line (it already waited). A request that exhausted its requeue
/// budget — it kills every worker that touches it — is reported lost
/// instead of cycling respawns forever.
fn recover(shared: &ServerShared, mut req: Request) {
    if req.answered.load(Ordering::SeqCst) {
        return; // a quarantined worker finished it after all
    }
    if req.requeues >= shared.config.max_requeues {
        let queue_wait = req.admitted_at.elapsed();
        finish(
            shared,
            None,
            &req,
            QueryOutcome::poisoned(sites::DISPATCH),
            queue_wait,
        );
        return;
    }
    req.requeues += 1;
    shared.counters.requeues.fetch_add(1, Ordering::Relaxed);
    lock(&shared.inbox.queue).push_front(req);
    shared.inbox.cv.notify_one();
}

/// Compacts the worker's query-side arena when it crossed the watermark.
/// An injected fault (or panic) at the `compact` site skips the pass —
/// the arena is append-only, so deferring compaction is always safe.
fn maybe_compact(shared: &ServerShared, ctx: &EvalContext<'_>) {
    let watermark = shared.config.compact_watermark;
    if watermark == usize::MAX {
        return;
    }
    let manager = ctx.query_manager().clone();
    let compacted = catch_unwind(AssertUnwindSafe(|| -> Result<Option<CompactOutcome>> {
        chaos::apply(sites::COMPACT)?;
        Ok(manager.compact_if_above(watermark))
    }));
    if let Ok(Ok(Some(out))) = compacted {
        let c = &shared.counters;
        c.compactions.fetch_add(1, Ordering::Relaxed);
        c.reclaimed_nodes
            .fetch_add(out.reclaimed() as u64, Ordering::Relaxed);
        c.arena_bytes_before
            .store(out.before_bytes, Ordering::Relaxed);
        c.arena_bytes_after
            .store(out.after_bytes, Ordering::Relaxed);
    }
}

fn supervisor_loop(shared: &Arc<ServerShared>) {
    let mut slots: Vec<WorkerSlot> = (0..shared.config.workers.max(1))
        .map(|id| spawn_worker(shared, id))
        .collect();
    loop {
        std::thread::sleep(shared.config.heartbeat_interval);
        let shutdown = shared.shutdown.load(Ordering::SeqCst);
        let now = Instant::now();
        for slot in &mut slots {
            let finished = match slot.handle.as_ref() {
                Some(handle) => handle.is_finished(),
                None => {
                    if !shutdown {
                        // A previously failed (re)spawn: try again.
                        *slot = spawn_worker(shared, slot.worker_id);
                    }
                    continue;
                }
            };
            if finished {
                let crashed = slot
                    .handle
                    .take()
                    .map(|handle| handle.join().is_err())
                    .unwrap_or(false);
                let stranded = lock(&slot.inflight).take();
                let had_stranded = stranded.is_some();
                if let Some(req) = stranded {
                    recover(shared, req);
                }
                if crashed || had_stranded || !shutdown {
                    // A worker died (or exited before the drain was
                    // over): replace it without losing its request.
                    shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                    *slot = spawn_worker(shared, slot.worker_id);
                }
                // Otherwise: a clean drain exit; the slot stays retired.
                continue;
            }
            // Wedge detection: a live worker whose heartbeat has not
            // moved for a whole timeout window is quarantined, its
            // request recovered, and the slot respawned. The abandoned
            // thread exits at its next quarantine check; if it finishes
            // its request late, the `answered` flag drops the duplicate.
            let beat = slot.beat.load(Ordering::Relaxed);
            if beat != slot.last_beat {
                slot.last_beat = beat;
                slot.last_change = now;
            } else if now.duration_since(slot.last_change) > shared.config.heartbeat_timeout {
                slot.quarantine.store(true, Ordering::SeqCst);
                shared.counters.quarantined.fetch_add(1, Ordering::Relaxed);
                if let Some(req) = lock(&slot.inflight).take() {
                    recover(shared, req);
                }
                drop(slot.handle.take());
                shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                *slot = spawn_worker(shared, slot.worker_id);
            }
        }
        if shutdown {
            shared.inbox.cv.notify_all();
            let drained = lock(&shared.inbox.queue).is_empty();
            if !drained && slots.iter().all(|s| s.handle.is_none()) {
                // Every worker retired before a recovered request was
                // requeued: bring one back to finish the drain.
                shared.counters.respawns.fetch_add(1, Ordering::Relaxed);
                slots[0] = spawn_worker(shared, slots[0].worker_id);
            }
            let idle = slots.iter().all(|slot| {
                slot.handle
                    .as_ref()
                    .is_none_or(|handle| handle.is_finished())
                    && lock(&slot.inflight).is_none()
            });
            if drained && idle {
                for slot in &mut slots {
                    if let Some(handle) = slot.handle.take() {
                        let _ = handle.join();
                    }
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{ChaosConfig, Fault};
    use crate::mvdb::MvdbBuilder;
    use crate::update::UpdateKind;
    use mv_pdb::Value;
    use mv_query::parse_ucq;

    /// The base ten-tuple fixture with `R(a0)`'s weight overridable, so
    /// update tests can compile an independent from-scratch oracle for
    /// any stage of a weight-update sequence.
    fn engine_with_r0(r0: f64) -> Arc<ShardedEngine> {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        for i in 0..10 {
            let v = format!("a{i}");
            let rw = if i == 0 { r0 } else { 1.0 + i as f64 };
            b.weighted_tuple("R", &[v.as_str()], rw).unwrap();
            b.weighted_tuple("S", &[v.as_str()], 2.0 + i as f64)
                .unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        Arc::new(ShardedEngine::compile(&b.build().unwrap(), 2).unwrap())
    }

    fn engine() -> Arc<ShardedEngine> {
        engine_with_r0(1.0)
    }

    fn queries() -> Vec<Ucq> {
        vec![
            parse_ucq("Q() :- R(x), S(x)").unwrap(),
            parse_ucq("Q() :- R(x)").unwrap(),
            parse_ucq("Q() :- S(x)").unwrap(),
        ]
    }

    fn quick_config() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            deadline: Duration::from_secs(10),
            degrade_depth: usize::MAX,
            shed_depth: usize::MAX,
            heartbeat_interval: Duration::from_millis(2),
            heartbeat_timeout: Duration::from_secs(5),
            compact_watermark: usize::MAX,
            ..ServeConfig::default()
        }
    }

    fn resolve(ticket: Ticket) -> ServeOutcome {
        ticket
            .wait_timeout(Duration::from_secs(60))
            .unwrap_or_else(|t| panic!("request {} did not resolve in 60s", t.id()))
    }

    #[test]
    fn polling_takes_what_is_queued_and_never_waits_for_the_lock() {
        let shared = ServerShared {
            engine: RwLock::new(engine()),
            engine_version: AtomicU64::new(0),
            writer: Mutex::new(()),
            config: quick_config(),
            inbox: Inbox {
                queue: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            },
            shutdown: AtomicBool::new(false),
            ewma_service_ns: AtomicU64::new(0),
            counters: Counters::default(),
        };
        let (reply, _receiver) = sync_channel(1);
        let now = Instant::now();
        let request = |id| Request {
            id,
            query: queries().remove(0),
            admitted_at: now,
            deadline_at: now + Duration::from_secs(10),
            entry: Rung::Exact,
            epsilon: 0.0,
            requeues: 0,
            answered: Arc::new(AtomicBool::new(false)),
            reply: reply.clone(),
        };
        let far = now + Duration::from_secs(3600);
        lock(&shared.inbox.queue).extend([request(7), request(8)]);
        // A past deadline does not look at all; an open one takes the front.
        assert!(poll_inbox(&shared, 0, now).is_none());
        assert_eq!(poll_inbox(&shared, 0, far).map(|r| r.id), Some(7));
        // A held lock is an empty look, not a wait: the poll runs out.
        let held = lock(&shared.inbox.queue);
        assert!(poll_inbox(&shared, 0, Instant::now() + Duration::from_millis(2)).is_none());
        drop(held);
        // A published snapshot ends the poll with the request left queued:
        // it must be served on the new snapshot, after the re-pin.
        shared.engine_version.store(1, Ordering::Release);
        assert!(poll_inbox(&shared, 0, far).is_none());
        assert_eq!(poll_inbox(&shared, 1, far).map(|r| r.id), Some(8));
        assert!(lock(&shared.inbox.queue).is_empty());
    }

    #[test]
    fn clean_serving_answers_everything_exactly() {
        let engine = engine();
        let qs = queries();
        let oracle: Vec<f64> = qs
            .iter()
            .map(|q| engine.full().probability(q).unwrap())
            .collect();
        let server = MvdbServer::start(Arc::clone(&engine), quick_config());
        let tickets: Vec<Ticket> = (0..24)
            .map(|i| server.submit(qs[i % qs.len()].clone()).unwrap())
            .collect();
        for (i, ticket) in tickets.into_iter().enumerate() {
            let out = resolve(ticket);
            assert!(out.answered(), "request {i} lost: {:?}", out.outcome.fault);
            assert_eq!(out.entry, Rung::Exact);
            assert_eq!(out.outcome.rung, Some(Rung::Exact));
            let p = out.outcome.probability.unwrap();
            assert!((p - oracle[i % oracle.len()]).abs() < 1e-9);
        }
        let stats = server.shutdown();
        assert_eq!(stats.admitted, 24);
        assert_eq!(stats.completed, 24);
        assert_eq!(stats.lost, 0);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn a_full_queue_rejects_with_backpressure() {
        let engine = engine();
        let config = ServeConfig {
            queue_capacity: 0,
            ..quick_config()
        };
        let server = MvdbServer::start(engine, config);
        let q = queries().remove(0);
        for _ in 0..5 {
            match server.submit(q.clone()) {
                Err(CoreError::Rejected { retry_after, depth }) => {
                    assert!(retry_after > Duration::ZERO);
                    assert_eq!(depth, 0);
                }
                other => panic!("expected Rejected, got {other:?}"),
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.rejected, 5);
        assert_eq!(stats.admitted, 0);
        assert!((stats.shed_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_pressure_degrades_before_dropping() {
        let engine = engine();
        let qs = queries();
        let oracle: Vec<f64> = qs
            .iter()
            .map(|q| engine.full().probability(q).unwrap())
            .collect();
        // Every admission enters at the bounded-exact rung.
        let config = ServeConfig {
            degrade_depth: 0,
            shed_depth: usize::MAX,
            ..quick_config()
        };
        let server = MvdbServer::start(Arc::clone(&engine), config);
        for (i, q) in qs.iter().enumerate() {
            let out = resolve(server.submit(q.clone()).unwrap());
            assert_eq!(out.entry, Rung::BoundedExact);
            assert!(out.degraded_admission());
            assert_eq!(out.outcome.rung, Some(Rung::BoundedExact));
            // Bounded-exact is still exact on this small database.
            assert!((out.outcome.probability.unwrap() - oracle[i]).abs() < 1e-9);
        }
        let stats = server.shutdown();
        assert_eq!(stats.degraded_admissions, qs.len() as u64);
        assert_eq!(stats.lost, 0);
        // Shedding pressure goes straight to Monte Carlo at widened ε.
        // (On a small database so the sampler's conservative Hoeffding
        // interval actually reaches the widened target.)
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        b.weighted_tuple("R", &["a"], 3.0).unwrap();
        b.weighted_tuple("S", &["a"], 4.0).unwrap();
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        let tiny = Arc::new(ShardedEngine::compile(&b.build().unwrap(), 1).unwrap());
        let exact = tiny.full().probability(&qs[0]).unwrap();
        let config = ServeConfig {
            degrade_depth: 0,
            shed_depth: 0,
            widened_epsilon: 0.05,
            ..quick_config()
        };
        let server = MvdbServer::start(tiny, config);
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        assert_eq!(out.entry, Rung::MonteCarlo);
        assert_eq!(out.outcome.rung, Some(Rung::MonteCarlo));
        let eps = out.outcome.epsilon.unwrap();
        assert!(eps <= 0.051, "half-width {eps} missed the widened target");
        assert!((out.outcome.probability.unwrap() - exact).abs() < 5.0 * eps + 0.02);
        server.shutdown();
    }

    #[test]
    fn expired_deadlines_reply_without_evaluating() {
        let engine = engine();
        let server = MvdbServer::start(engine, quick_config());
        let q = queries().remove(0);
        let out = resolve(server.submit_with_deadline(q, Duration::ZERO).unwrap());
        assert!(!out.answered());
        assert_eq!(out.outcome.rung, None);
        let fault = out.outcome.fault.as_ref().unwrap();
        assert_eq!(fault.kind, crate::backend::FaultKind::Deadline);
        let stats = server.shutdown();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.lost, 1);
    }

    #[test]
    fn dead_workers_are_respawned_without_losing_queries() {
        let engine = engine();
        let qs = queries();
        let _guard = chaos::install(
            ChaosConfig::new(40)
                .rule(sites::HEARTBEAT, Fault::Panic, 0.05)
                .rule(sites::DISPATCH, Fault::Panic, 0.2),
        );
        let config = ServeConfig {
            max_requeues: 10,
            ..quick_config()
        };
        let server = MvdbServer::start(Arc::clone(&engine), config);
        let tickets: Vec<Ticket> = (0..40)
            .map(|i| server.submit(qs[i % qs.len()].clone()).unwrap())
            .collect();
        let mut answered = 0;
        for ticket in tickets {
            let out = resolve(ticket);
            if out.answered() {
                answered += 1;
            }
        }
        let stats = server.shutdown();
        assert_eq!(stats.completed, 40);
        assert_eq!(answered, 40, "injected panics must not lose queries");
        assert!(
            stats.respawns >= 1,
            "panics at dispatch/heartbeat must kill workers: {stats:?}"
        );
    }

    #[test]
    fn wedged_workers_are_quarantined_and_replaced() {
        let engine = engine();
        let qs = queries();
        let _guard =
            chaos::install(ChaosConfig::new(41).rule(sites::HEARTBEAT, Fault::Deadline, 0.08));
        let config = ServeConfig {
            workers: 2,
            heartbeat_interval: Duration::from_millis(2),
            heartbeat_timeout: Duration::from_millis(60),
            ..quick_config()
        };
        let server = MvdbServer::start(Arc::clone(&engine), config);
        let tickets: Vec<Ticket> = (0..30)
            .map(|i| server.submit(qs[i % qs.len()].clone()).unwrap())
            .collect();
        for ticket in tickets {
            let out = resolve(ticket);
            assert!(out.answered(), "wedges must not lose queries: {out:?}");
        }
        let stats = server.shutdown();
        assert!(
            stats.quarantined >= 1,
            "injected heartbeat stalls must trip wedge detection: {stats:?}"
        );
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn cold_start_admission_falls_back_to_depth() {
        // Before any request completes the EWMA is 0; the old code
        // turned that into a zero-wait estimate that admitted any depth
        // regardless of deadline. Cold start must report "unknown".
        assert_eq!(estimated_wait(0, 50, 2), None);
        assert_eq!(
            estimated_wait(1_000_000, 10, 2),
            Some(Duration::from_millis(5))
        );
        // Known estimates compare against the deadline...
        assert!(wait_forecloses(
            Some(Duration::from_secs(1)),
            Duration::from_millis(100),
            0,
            usize::MAX
        ));
        assert!(!wait_forecloses(
            Some(Duration::ZERO),
            Duration::from_millis(100),
            1000,
            0
        ));
        // ...unknown estimates fall back to the shed-depth threshold.
        assert!(wait_forecloses(None, Duration::from_millis(100), 33, 32));
        assert!(!wait_forecloses(None, Duration::from_millis(100), 32, 32));
    }

    #[test]
    fn updates_swap_snapshots_and_readers_see_them() {
        let qs = queries();
        let server = MvdbServer::start(engine(), quick_config());
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        let before = out.outcome.probability.unwrap();
        let base_oracle = engine_with_r0(1.0).full().probability(&qs[0]).unwrap();
        assert!((before - base_oracle).abs() < 1e-9);

        // A weight-only update rides the fast path: no shard rebuilds.
        let batch = UpdateBatch::new().set_weight("R", vec![Value::str("a0")], 9.0);
        let outcome = server.submit_update(&batch).unwrap();
        assert_eq!(outcome.kind, UpdateKind::WeightOnly);
        assert_eq!(outcome.shards_rebuilt, 0);
        assert_eq!(server.snapshot_version(), 1);
        let oracle = engine_with_r0(9.0).full().probability(&qs[0]).unwrap();
        assert!((oracle - base_oracle).abs() > 1e-6, "fixture must move");
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        assert!((out.outcome.probability.unwrap() - oracle).abs() < 1e-9);

        // A structural update (fresh tuples) recompiles and swaps too.
        let batch = UpdateBatch::new()
            .insert("R", vec![Value::str("zz")], 4.0)
            .insert("S", vec![Value::str("zz")], 4.0);
        let outcome = server.submit_update(&batch).unwrap();
        assert_eq!(outcome.kind, UpdateKind::Structural);
        assert_eq!(server.snapshot_version(), 2);
        let structural_oracle = {
            let mut b = MvdbBuilder::new();
            b.relation("R", &["x"]).unwrap();
            b.relation("S", &["x"]).unwrap();
            for i in 0..10 {
                let v = format!("a{i}");
                let rw = if i == 0 { 9.0 } else { 1.0 + i as f64 };
                b.weighted_tuple("R", &[v.as_str()], rw).unwrap();
                b.weighted_tuple("S", &[v.as_str()], 2.0 + i as f64)
                    .unwrap();
            }
            b.weighted_tuple("R", &["zz"], 4.0).unwrap();
            b.weighted_tuple("S", &["zz"], 4.0).unwrap();
            b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
            ShardedEngine::compile(&b.build().unwrap(), 2)
                .unwrap()
                .full()
                .probability(&qs[0])
                .unwrap()
        };
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        assert!((out.outcome.probability.unwrap() - structural_oracle).abs() < 1e-9);

        let stats = server.shutdown();
        assert_eq!(stats.updates_applied, 2);
        assert_eq!(stats.update_failures, 0);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn faulted_updates_leave_the_serving_snapshot_unchanged() {
        let qs = queries();
        let server = MvdbServer::start(engine(), quick_config());
        let oracle = engine_with_r0(1.0).full().probability(&qs[0]).unwrap();
        {
            let _guard =
                chaos::install(ChaosConfig::new(42).rule(sites::UPDATE_APPLY, Fault::Panic, 1.0));
            let batch = UpdateBatch::new().set_weight("R", vec![Value::str("a0")], 9.0);
            assert!(server.submit_update(&batch).is_err());
        }
        {
            let _guard =
                chaos::install(ChaosConfig::new(43).rule(sites::UPDATE_SWAP, Fault::Deadline, 1.0));
            let batch = UpdateBatch::new().set_weight("R", vec![Value::str("a0")], 9.0);
            assert!(server.submit_update(&batch).is_err());
        }
        // Neither faulted update published: readers still see the
        // original snapshot, exactly.
        assert_eq!(server.snapshot_version(), 0);
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        assert!((out.outcome.probability.unwrap() - oracle).abs() < 1e-9);
        let stats = server.shutdown();
        assert_eq!(stats.updates_applied, 0);
        assert_eq!(stats.update_failures, 2);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn updates_interleave_with_readers_without_losing_queries() {
        let qs = queries();
        let weights = [1.0, 5.0, 9.0, 13.0];
        // Every answer a reader can legally observe is the exact answer
        // of SOME published snapshot — never a torn in-between state.
        let oracles: Vec<Vec<f64>> = weights
            .iter()
            .map(|&w| {
                let e = engine_with_r0(w);
                qs.iter()
                    .map(|q| e.full().probability(q).unwrap())
                    .collect()
            })
            .collect();
        let server = MvdbServer::start(engine(), quick_config());
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for &w in &weights[1..] {
                    let batch = UpdateBatch::new().set_weight("R", vec![Value::str("a0")], w);
                    server.submit_update(&batch).unwrap();
                    std::thread::sleep(Duration::from_millis(5));
                }
            });
            for i in 0..60 {
                let qi = i % qs.len();
                let out = resolve(server.submit(qs[qi].clone()).unwrap());
                assert!(out.answered(), "reader {i} lost during updates");
                let p = out.outcome.probability.unwrap();
                let matched = oracles.iter().any(|o| (p - o[qi]).abs() < 1e-9);
                assert!(matched, "reader {i} saw a torn answer {p}");
            }
            writer.join().unwrap();
        });
        // After the writer finishes, readers converge on the last snapshot.
        assert_eq!(server.snapshot_version(), 3);
        let out = resolve(server.submit(qs[0].clone()).unwrap());
        assert!((out.outcome.probability.unwrap() - oracles[3][0]).abs() < 1e-9);
        let stats = server.shutdown();
        assert_eq!(stats.updates_applied, 3);
        assert_eq!(stats.lost, 0);
    }

    #[test]
    fn arena_compaction_keeps_answers_exact() {
        let engine = engine();
        let qs = queries();
        let oracle: Vec<f64> = qs
            .iter()
            .map(|q| engine.full().probability(q).unwrap())
            .collect();
        // Bounded-exact entry makes every request synthesize into the
        // worker's query arena; a tiny watermark forces compactions
        // between requests, exercising `W`-root registration/rehydration.
        let config = ServeConfig {
            workers: 1,
            degrade_depth: 0,
            shed_depth: usize::MAX,
            compact_watermark: 8,
            ..quick_config()
        };
        let server = MvdbServer::start(Arc::clone(&engine), config);
        for round in 0..10 {
            for (i, q) in qs.iter().enumerate() {
                let out = resolve(server.submit(q.clone()).unwrap());
                assert_eq!(out.outcome.rung, Some(Rung::BoundedExact));
                let p = out.outcome.probability.unwrap();
                assert!(
                    (p - oracle[i]).abs() < 1e-9,
                    "round {round} query {i}: {p} vs {} after compactions",
                    oracle[i]
                );
            }
        }
        let stats = server.shutdown();
        assert!(
            stats.compactions >= 1,
            "the tiny watermark must trigger compactions: {stats:?}"
        );
        assert!(stats.arena_bytes_after <= stats.arena_bytes_before);
        assert_eq!(stats.lost, 0);
    }
}
