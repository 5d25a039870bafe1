//! The hash-consed OBDD node manager.
//!
//! An [`ObddManager`] owns a single append-only arena of `(level, lo, hi)`
//! nodes together with the *unique table* that hash-conses them: a given
//! `(level, lo, hi)` triple exists at most once per manager, so structurally
//! identical sub-diagrams are shared by every diagram built in the manager.
//! An [`Obdd`] is just a cheap `{manager, root}` handle; cloning one never
//! copies nodes.
//!
//! No serving path builds here: the query kernel of `mv-index` folds every
//! online lineage into flat scratch buffers. The manager is what the
//! paper's constructions are built and checked in — ConOBDD and the
//! apply-per-clause baseline of Figures 7–8, the level-ordered DNF fold
//! ([`ObddManager::dnf`]) the index compile is held against, and the
//! oracle suites.
//!
//! # Tables
//!
//! * the **unique table** (`(level, lo, hi) → NodeId`) — exact forever,
//!   since evicting it would break canonicity;
//! * the **memo** (`(op, a, b) → NodeId`) — one exact map shared by
//!   `apply` (∨/∧, operands normalised for commutativity) and `concat`,
//!   keyed like [`RefManager`](crate::RefManager)'s. It is never evicted:
//!   it grows with the work done and is freed with the manager;
//! * the **negate memo** — a dense `Vec<NodeId>` side table indexed by node
//!   id (`NONE` = not negated yet). Negation is an involution, so both
//!   directions are recorded.
//!
//! Both maps are keyed with the vendored FxHash mix instead of SipHash.
//! Probabilities are not cached: every probability pass fills a map sized
//! by the diagram it walks.
//!
//! # Memory model
//!
//! The arena is **append-only**: nodes are never mutated or freed while the
//! manager is alive, which is what makes handles cheap and lets concurrent
//! readers traverse diagrams lock-free of each other (a [`std::sync::RwLock`]
//! guards growth; read-only operations take a shared guard once per
//! operation, not per node). Unreachable nodes are reclaimed only when the
//! last handle drops the manager.
//!
//! # Traversal discipline
//!
//! Every operation — `apply`, `negate`, `concat`, the probability pass, and
//! reachability — runs on an **explicit stack**, never on the call stack, so
//! chain diagrams hundreds of thousands of levels deep (the output of
//! repeated concatenation) cannot overflow the thread stack. The regression
//! suite builds 100 000-level chains and runs all of the above with the
//! default stack size.
//!
//! # Threading
//!
//! `ObddManager` is `Send + Sync`; handles can be shared across threads.
//! Building operations serialise on the manager's write lock. Diagrams of
//! two different managers are never combined: `apply` and `concat` across
//! managers return [`ObddError::ManagerMismatch`].

use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use fxhash::{FxHashMap, FxHashSet};
use mv_pdb::TupleId;
use mv_query::lineage::Lineage;

use crate::error::ObddError;
use crate::obdd::{Obdd, ObddNode, FALSE, SINK_LEVEL, TRUE};
use crate::order::VarOrder;
use crate::{NodeId, Result};

/// Sentinel for "no entry" in dense side tables indexed by [`NodeId`].
const NONE: NodeId = NodeId::MAX;

/// The two Boolean synthesis operators (concatenation adds two more memo
/// tags).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoolOp {
    /// Disjunction.
    Or,
    /// Conjunction.
    And,
}

impl BoolOp {
    fn tag(self) -> u32 {
        match self {
            BoolOp::Or => TAG_OR,
            BoolOp::And => TAG_AND,
        }
    }
}

/// Memo operation tags.
const TAG_OR: u32 = 0;
const TAG_AND: u32 = 1;
const TAG_CONCAT_OR: u32 = 2;
const TAG_CONCAT_AND: u32 = 3;

/// A cooperative abort guard installed around budgeted synthesis folds.
/// [`Store::apply`] polls the budget every [`ApplyGuard::TICK_MASK`] frames
/// (an `Instant::now` call). A trip makes the in-flight apply return a
/// dummy root and records why; the installing fold checks
/// [`ApplyGuard::tripped`] after every apply and surfaces the typed error.
/// Nodes interned before the trip stay in the arena — hash-consing makes
/// them reusable, never wrong.
#[derive(Debug)]
struct ApplyGuard {
    /// Cooperative deadline/step budget, polled coarsely.
    budget: mv_query::EvalBudget,
    /// Why the guard tripped, if it did.
    tripped: Option<mv_query::BudgetError>,
    /// Frame counter driving the coarse budget poll.
    tick: u32,
}

impl ApplyGuard {
    /// Budget poll period: every 1024 apply frames.
    const TICK_MASK: u32 = 0x3ff;
}

/// Counters describing a manager's workload, exposed by
/// [`ObddManager::stats`]. All counters are cumulative since the manager was
/// created; rates are derived through [`ManagerStats::unique_hit_rate`] and
/// [`ManagerStats::apply_cache_hit_rate`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ManagerStats {
    /// Internal nodes ever allocated in the arena (sinks excluded).
    pub nodes_allocated: u64,
    /// Largest arena size observed (sinks included). For a single manager
    /// the arena is append-only, so this equals the current size; aggregated
    /// stats ([`ManagerStats`] addition) keep the **maximum** over the
    /// summed managers — the largest single arena, not a sum of peaks.
    pub peak_nodes: u64,
    /// `mk` calls answered by the unique table (an existing node was reused).
    pub unique_hits: u64,
    /// `mk` calls that allocated a fresh node.
    pub unique_misses: u64,
    /// Apply/negate/concat steps answered by the memo or the negate memo.
    pub apply_cache_hits: u64,
    /// Apply/negate/concat steps that had to compute a result node.
    pub apply_cache_misses: u64,
    /// Always 0: the manager keeps no probability cache. The field stays
    /// because the repository benchmark (`benchmark/`) reports
    /// [`ManagerStats::prob_cache_hit_rate`].
    pub prob_cache_hits: u64,
    /// Always 0, like [`ManagerStats::prob_cache_hits`].
    pub prob_cache_misses: u64,
    /// Always 0: the memo is exact and never evicts. The field stays
    /// because the repository benchmark (`benchmark/`) reports it.
    pub cache_evictions: u64,
    /// Gauge: current arena size (sinks included) at the time the snapshot
    /// was taken. Aggregation sums across managers (total resident nodes);
    /// [`ManagerStats::since`] keeps the current value — a gauge has no
    /// meaningful delta.
    pub live_nodes: u64,
    /// Gauge: approximate heap bytes held by the arena and its tables
    /// (nodes, unique table, memo, negate memo) at snapshot time.
    /// Aggregates and deltas like `live_nodes`.
    pub arena_bytes: u64,
}

impl ManagerStats {
    /// Fraction of `mk` calls that reused an existing node (0 when no `mk`
    /// calls were made).
    pub fn unique_hit_rate(&self) -> f64 {
        rate(self.unique_hits, self.unique_misses)
    }

    /// Fraction of apply/negate/concat steps answered by a memo.
    pub fn apply_cache_hit_rate(&self) -> f64 {
        rate(self.apply_cache_hits, self.apply_cache_misses)
    }

    /// Fraction of per-node probability lookups served from a cache:
    /// always 0, since the manager keeps none.
    pub fn prob_cache_hit_rate(&self) -> f64 {
        rate(self.prob_cache_hits, self.prob_cache_misses)
    }

    /// The work done since an `earlier` snapshot of the *same* manager:
    /// cumulative counters are subtracted (saturating), while `peak_nodes`
    /// keeps the current value — a high-water mark has no meaningful delta.
    pub fn since(&self, earlier: &ManagerStats) -> ManagerStats {
        ManagerStats {
            nodes_allocated: self.nodes_allocated.saturating_sub(earlier.nodes_allocated),
            peak_nodes: self.peak_nodes,
            unique_hits: self.unique_hits.saturating_sub(earlier.unique_hits),
            unique_misses: self.unique_misses.saturating_sub(earlier.unique_misses),
            apply_cache_hits: self
                .apply_cache_hits
                .saturating_sub(earlier.apply_cache_hits),
            apply_cache_misses: self
                .apply_cache_misses
                .saturating_sub(earlier.apply_cache_misses),
            prob_cache_hits: self.prob_cache_hits.saturating_sub(earlier.prob_cache_hits),
            prob_cache_misses: self
                .prob_cache_misses
                .saturating_sub(earlier.prob_cache_misses),
            cache_evictions: self.cache_evictions.saturating_sub(earlier.cache_evictions),
            live_nodes: self.live_nodes,
            arena_bytes: self.arena_bytes,
        }
    }
}

fn rate(hits: u64, misses: u64) -> f64 {
    let total = hits + misses;
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

impl std::ops::Add for ManagerStats {
    type Output = ManagerStats;

    /// Aggregates counters across managers. Cumulative counters add;
    /// `peak_nodes` takes the maximum (the largest single arena — summing
    /// high-water marks of independent arenas has no physical meaning).
    fn add(self, rhs: ManagerStats) -> ManagerStats {
        ManagerStats {
            nodes_allocated: self.nodes_allocated + rhs.nodes_allocated,
            peak_nodes: self.peak_nodes.max(rhs.peak_nodes),
            unique_hits: self.unique_hits + rhs.unique_hits,
            unique_misses: self.unique_misses + rhs.unique_misses,
            apply_cache_hits: self.apply_cache_hits + rhs.apply_cache_hits,
            apply_cache_misses: self.apply_cache_misses + rhs.apply_cache_misses,
            prob_cache_hits: self.prob_cache_hits + rhs.prob_cache_hits,
            prob_cache_misses: self.prob_cache_misses + rhs.prob_cache_misses,
            cache_evictions: self.cache_evictions + rhs.cache_evictions,
            live_nodes: self.live_nodes + rhs.live_nodes,
            arena_bytes: self.arena_bytes + rhs.arena_bytes,
        }
    }
}

impl std::iter::Sum for ManagerStats {
    fn sum<I: Iterator<Item = ManagerStats>>(iter: I) -> ManagerStats {
        iter.fold(ManagerStats::default(), |a, b| a + b)
    }
}

/// Everything behind the manager's lock.
struct Store {
    nodes: Vec<ObddNode>,
    /// The exact unique table (FxHash-keyed): canonicity.
    unique: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    /// The exact apply/concat memo: `(op tag, a, b) → result`.
    memo: FxHashMap<(u32, NodeId, NodeId), NodeId>,
    /// Dense `node → ¬node` side table (`NONE` = not negated yet; sinks
    /// pre-seeded). Exact and never evicted.
    negate_memo: Vec<NodeId>,
    stats: ManagerStats,
    /// Abort guard installed only around budgeted synthesis folds (`None`
    /// on every other path — one `Option` check per apply frame).
    guard: Option<ApplyGuard>,
}

impl Store {
    fn new() -> Store {
        let nodes = vec![
            ObddNode {
                level: SINK_LEVEL,
                lo: FALSE,
                hi: FALSE,
            },
            ObddNode {
                level: SINK_LEVEL,
                lo: TRUE,
                hi: TRUE,
            },
        ];
        Store {
            nodes,
            unique: FxHashMap::default(),
            memo: FxHashMap::default(),
            // ¬false = true, ¬true = false.
            negate_memo: vec![TRUE, FALSE],
            stats: ManagerStats {
                peak_nodes: 2,
                ..ManagerStats::default()
            },
            guard: None,
        }
    }

    /// Approximate heap bytes held by the arena and its tables.
    fn arena_bytes(&self) -> u64 {
        let nodes = self.nodes.capacity() * std::mem::size_of::<ObddNode>();
        // A map entry ≈ key + value + one byte of control metadata, times
        // the map's capacity — an estimate, not an allocator audit. The
        // unique table and the memo share one entry type.
        let entry = std::mem::size_of::<((u32, NodeId, NodeId), NodeId)>() + 1;
        let maps = (self.unique.capacity() + self.memo.capacity()) * entry;
        let negate = self.negate_memo.capacity() * std::mem::size_of::<NodeId>();
        (nodes + maps + negate) as u64
    }

    fn node(&self, id: NodeId) -> ObddNode {
        self.nodes[id as usize]
    }

    fn level(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].level
    }

    /// Creates (or reuses) a node, applying the standard reduction rules.
    /// The dense negate memo grows in lockstep with the arena.
    fn mk(&mut self, level: u32, lo: NodeId, hi: NodeId) -> NodeId {
        if lo == hi {
            return lo;
        }
        if let Some(&id) = self.unique.get(&(level, lo, hi)) {
            self.stats.unique_hits += 1;
            return id;
        }
        self.stats.unique_misses += 1;
        self.stats.nodes_allocated += 1;
        let id = self.nodes.len() as NodeId;
        self.nodes.push(ObddNode { level, lo, hi });
        self.negate_memo.push(NONE);
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.nodes.len() as u64);
        self.unique.insert((level, lo, hi), id);
        id
    }

    /// The root of a conjunction chain over sorted, deduplicated levels.
    fn clause_root(&mut self, levels: &[u32]) -> NodeId {
        let mut child = TRUE;
        for &level in levels.iter().rev() {
            child = self.mk(level, FALSE, child);
        }
        child
    }

    /// Ids reachable from `root` (iterative DFS; includes sinks).
    fn reachable(&self, root: NodeId) -> Vec<NodeId> {
        let mut seen = FxHashSet::default();
        let mut stack = vec![root];
        let mut out = Vec::new();
        while let Some(id) = stack.pop() {
            if !seen.insert(id) {
                continue;
            }
            out.push(id);
            if id != TRUE && id != FALSE {
                let node = self.node(id);
                stack.push(node.lo);
                stack.push(node.hi);
            }
        }
        out
    }

    fn level_range(&self, root: NodeId) -> Option<(u32, u32)> {
        let mut min = None;
        let mut max = None;
        for id in self.reachable(root) {
            let level = self.level(id);
            if level == SINK_LEVEL {
                continue;
            }
            min = Some(min.map_or(level, |m: u32| m.min(level)));
            max = Some(max.map_or(level, |m: u32| m.max(level)));
        }
        Some((min?, max?))
    }

    /// Sink-level shortcuts of `apply`; `None` means both operands need
    /// expansion. Sharing one arena lets non-sink operands short-circuit too
    /// (`x ∨ x = x`).
    fn apply_terminal(op: BoolOp, a: NodeId, b: NodeId) -> Option<NodeId> {
        if a == b {
            return Some(a);
        }
        match op {
            BoolOp::Or => match (a, b) {
                (TRUE, _) | (_, TRUE) => Some(TRUE),
                (FALSE, x) | (x, FALSE) => Some(x),
                _ => None,
            },
            BoolOp::And => match (a, b) {
                (FALSE, _) | (_, FALSE) => Some(FALSE),
                (TRUE, x) | (x, TRUE) => Some(x),
                _ => None,
            },
        }
    }

    /// Classical synthesis inside one arena on an explicit stack, memoised
    /// in the exact memo (operands normalised for commutativity).
    fn apply(&mut self, op: BoolOp, a: NodeId, b: NodeId) -> NodeId {
        enum Frame {
            Expand(NodeId, NodeId),
            Combine(NodeId, NodeId, u32),
        }
        let tag = op.tag();
        let key = |u: NodeId, v: NodeId| (u.min(v), u.max(v));
        let mut stack = vec![Frame::Expand(a, b)];
        let mut results: Vec<NodeId> = Vec::new();
        while let Some(frame) = stack.pop() {
            if let Some(guard) = self.guard.as_mut() {
                if guard.tripped.is_some() {
                    return FALSE;
                }
                guard.tick = guard.tick.wrapping_add(1);
                if guard.tick & ApplyGuard::TICK_MASK == 0 {
                    if let Err(e) = guard.budget.check() {
                        guard.tripped = Some(e);
                        return FALSE;
                    }
                }
            }
            match frame {
                Frame::Expand(u, v) => {
                    if let Some(r) = Store::apply_terminal(op, u, v) {
                        results.push(r);
                        continue;
                    }
                    let (ka, kb) = key(u, v);
                    if let Some(&r) = self.memo.get(&(tag, ka, kb)) {
                        self.stats.apply_cache_hits += 1;
                        results.push(r);
                        continue;
                    }
                    let lu = self.level(u);
                    let lv = self.level(v);
                    let m = lu.min(lv);
                    let (u0, u1) = if lu == m {
                        (self.node(u).lo, self.node(u).hi)
                    } else {
                        (u, u)
                    };
                    let (v0, v1) = if lv == m {
                        (self.node(v).lo, self.node(v).hi)
                    } else {
                        (v, v)
                    };
                    stack.push(Frame::Combine(u, v, m));
                    stack.push(Frame::Expand(u1, v1));
                    stack.push(Frame::Expand(u0, v0));
                }
                Frame::Combine(u, v, m) => {
                    let r1 = results.pop().expect("hi result available");
                    let r0 = results.pop().expect("lo result available");
                    let r = self.mk(m, r0, r1);
                    self.stats.apply_cache_misses += 1;
                    let (ka, kb) = key(u, v);
                    self.memo.insert((tag, ka, kb), r);
                    results.push(r);
                }
            }
        }
        results.pop().expect("apply produces a root")
    }

    /// Negation on an explicit stack: rebuilds the reachable part bottom-up
    /// with the dense, exact negate memo (children always have strictly
    /// larger levels, so a node's negation is ready once both children's
    /// are).
    fn negate(&mut self, root: NodeId) -> NodeId {
        if self.negate_memo[root as usize] != NONE {
            self.stats.apply_cache_hits += 1;
            return self.negate_memo[root as usize];
        }
        let mut stack = vec![root];
        while let Some(&id) = stack.last() {
            if self.negate_memo[id as usize] != NONE {
                stack.pop();
                continue;
            }
            let node = self.node(id);
            let lo = self.negate_memo[node.lo as usize];
            let hi = self.negate_memo[node.hi as usize];
            if lo != NONE && hi != NONE {
                let neg = self.mk(node.level, lo, hi);
                self.stats.apply_cache_misses += 1;
                self.negate_memo[id as usize] = neg;
                // Negation is an involution; record both directions.
                if self.negate_memo[neg as usize] == NONE {
                    self.negate_memo[neg as usize] = id;
                }
                stack.pop();
            } else {
                if hi == NONE {
                    stack.push(node.hi);
                }
                if lo == NONE {
                    stack.push(node.lo);
                }
            }
        }
        self.negate_memo[root as usize]
    }

    /// Concatenation (Section 4.2) on an explicit stack: rebuilds the
    /// reachable part of `a`, redirecting its `0`-sink (`and = false`) or
    /// `1`-sink (`and = true`) to `b`. The nodes of `b` are reused as-is —
    /// sharing one arena is what removed the old deep copy of the second
    /// operand. The per-call rebuild map holds this call's nodes; the memo
    /// carries them across calls.
    fn concat(&mut self, and: bool, a: NodeId, b: NodeId) -> NodeId {
        let tag = if and { TAG_CONCAT_AND } else { TAG_CONCAT_OR };
        let (redirected, kept) = if and { (TRUE, FALSE) } else { (FALSE, TRUE) };
        let mut map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        map.insert(redirected, b);
        map.insert(kept, kept);
        let mut stack = vec![a];
        while let Some(&id) = stack.last() {
            if map.contains_key(&id) {
                stack.pop();
                continue;
            }
            if let Some(&r) = self.memo.get(&(tag, id, b)) {
                self.stats.apply_cache_hits += 1;
                map.insert(id, r);
                stack.pop();
                continue;
            }
            let node = self.node(id);
            let lo = map.get(&node.lo).copied();
            let hi = map.get(&node.hi).copied();
            match (lo, hi) {
                (Some(lo), Some(hi)) => {
                    let rebuilt = self.mk(node.level, lo, hi);
                    self.stats.apply_cache_misses += 1;
                    self.memo.insert((tag, id, b), rebuilt);
                    map.insert(id, rebuilt);
                    stack.pop();
                }
                (lo, hi) => {
                    if hi.is_none() {
                        stack.push(node.hi);
                    }
                    if lo.is_none() {
                        stack.push(node.lo);
                    }
                }
            }
        }
        map[&a]
    }

    /// Bottom-up Shannon-expansion probabilities of every node reachable
    /// from `root`, computed in one explicit-stack DFS. The result map is
    /// sized by the diagram, not the arena.
    fn node_probs(
        &self,
        order: &VarOrder,
        root: NodeId,
        prob_of: &dyn Fn(TupleId) -> f64,
    ) -> FxHashMap<NodeId, f64> {
        let mut out: FxHashMap<NodeId, f64> = FxHashMap::default();
        out.insert(FALSE, 0.0);
        out.insert(TRUE, 1.0);
        let mut stack = vec![root];
        while let Some(&id) = stack.last() {
            if out.contains_key(&id) {
                stack.pop();
                continue;
            }
            let node = self.node(id);
            let lo = out.get(&node.lo).copied();
            let hi = out.get(&node.hi).copied();
            match (lo, hi) {
                (Some(lo), Some(hi)) => {
                    let p = prob_of(order.tuple_at(node.level));
                    out.insert(id, (1.0 - p) * lo + p * hi);
                    stack.pop();
                }
                (lo, hi) => {
                    if hi.is_none() {
                        stack.push(node.hi);
                    }
                    if lo.is_none() {
                        stack.push(node.lo);
                    }
                }
            }
        }
        out
    }
}

struct Shared {
    order: Arc<VarOrder>,
    store: RwLock<Store>,
    /// Cooperative budget polled by bounded synthesis folds. Installed
    /// per query on private (per-context / per-worker) managers; shared
    /// read-mostly managers such as the compiled MV-index never carry one,
    /// so one worker's deadline cannot cancel a sibling's evaluation.
    budget: RwLock<Option<mv_query::EvalBudget>>,
}

/// A shared, hash-consed OBDD node store over one [`VarOrder`]. Cloning is
/// cheap (an `Arc` bump); all clones address the same arena.
#[derive(Clone)]
pub struct ObddManager {
    shared: Arc<Shared>,
}

impl ObddManager {
    /// An empty manager over the given variable order.
    pub fn new(order: Arc<VarOrder>) -> ObddManager {
        ObddManager {
            shared: Arc::new(Shared {
                order,
                store: RwLock::new(Store::new()),
                budget: RwLock::new(None),
            }),
        }
    }

    /// Installs (or clears) the cooperative budget bounded synthesis folds
    /// poll — between clause folds and, coarsely, inside the apply loop.
    /// Only install budgets on *private* managers (per-query or per-worker
    /// shards): the budget is shared by every handle to this arena.
    pub fn set_budget(&self, budget: Option<mv_query::EvalBudget>) {
        *self
            .shared
            .budget
            .write()
            .unwrap_or_else(PoisonError::into_inner) = budget;
    }

    /// The currently installed cooperative budget, if any.
    pub fn budget(&self) -> Option<mv_query::EvalBudget> {
        self.shared
            .budget
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The variable order every diagram of this manager lives on.
    pub fn order(&self) -> &Arc<VarOrder> {
        &self.shared.order
    }

    /// `true` when both handles address the same arena.
    pub(crate) fn same_arena(&self, other: &ObddManager) -> bool {
        Arc::ptr_eq(&self.shared, &other.shared)
    }

    /// Current arena size (internal nodes plus the two sinks).
    pub fn num_nodes(&self) -> usize {
        self.read().nodes.len()
    }

    /// A snapshot of the manager's counters, with the `live_nodes` /
    /// `arena_bytes` gauges filled in from the current arena.
    pub fn stats(&self) -> ManagerStats {
        let store = self.read();
        let mut stats = store.stats;
        stats.live_nodes = store.nodes.len() as u64;
        stats.arena_bytes = store.arena_bytes();
        stats
    }

    /// The constant diagram `true` or `false`.
    pub fn constant(&self, value: bool) -> Obdd {
        Obdd::from_parts(self.clone(), if value { TRUE } else { FALSE })
    }

    /// The diagram of a single positive literal.
    pub fn literal(&self, tuple: TupleId) -> Result<Obdd> {
        let level = self
            .shared
            .order
            .level_of(tuple)
            .ok_or_else(|| ObddError::UnknownVariable(tuple.to_string()))?;
        let root = self.write().mk(level, FALSE, TRUE);
        Ok(Obdd::from_parts(self.clone(), root))
    }

    /// The diagram of a conjunction of positive literals (one DNF clause).
    pub fn clause(&self, clause: &[TupleId]) -> Result<Obdd> {
        let levels = self.clause_levels(clause)?;
        let mut store = self.write();
        let root = store.clause_root(&levels);
        drop(store);
        Ok(Obdd::from_parts(self.clone(), root))
    }

    /// Sorted, deduplicated levels of a clause (order lookups happen outside
    /// the store lock).
    fn clause_levels(&self, clause: &[TupleId]) -> Result<Vec<u32>> {
        let mut levels: Vec<u32> = clause
            .iter()
            .map(|&t| {
                self.shared
                    .order
                    .level_of(t)
                    .ok_or_else(|| ObddError::UnknownVariable(t.to_string()))
            })
            .collect::<Result<_>>()?;
        levels.sort_unstable();
        levels.dedup();
        Ok(levels)
    }

    /// The diagram of a whole DNF — the OR-fold of its clauses — built under
    /// **one** lock acquisition. For lineages of many small clauses,
    /// per-clause locking costs more than the fold itself.
    ///
    /// The clauses are folded bottom-up — by descending level vector, the
    /// clause with the deepest top variable first — whatever order they
    /// arrive in. Canonicity makes the root the one any other fold order
    /// reaches; the order only decides the cost: each `apply` rebuilds the
    /// part of the accumulator above the incoming clause's last level, so a
    /// lineage whose diagram has width `w` costs `O(w · Σ|clause span|)`
    /// nodes — linear in the lineage for the width-1 diagrams of
    /// inversion-free queries, where an arbitrary order costs
    /// `O(clauses · variables)`.
    pub fn dnf<C: AsRef<[TupleId]>>(&self, clauses: &[C]) -> Result<Obdd> {
        let budget = self.budget();
        if let Some(b) = &budget {
            b.check()?;
        }
        let mut levels: Vec<Vec<u32>> = clauses
            .iter()
            .map(|c| self.clause_levels(c.as_ref()))
            .collect::<Result<_>>()?;
        // Deepest top level first: every later clause then starts at or
        // above the accumulator's root, so an apply descends only as far as
        // that clause's own last level instead of walking the whole
        // accumulator down to it (which made the fold quadratic on the
        // width-1 lineages of broad selections).
        levels.sort_unstable_by(|a, b| b.cmp(a));
        let mut store = self.write();
        let start = store.nodes.len();
        // Install the in-apply guard only under a budget, so the unbudgeted
        // hot path stays a `None` check per frame.
        store.guard = budget.clone().map(|budget| ApplyGuard {
            budget,
            tripped: None,
            tick: 0,
        });
        let mut acc = FALSE;
        let mut charged: u64 = 0;
        for clause in &levels {
            let clause_root = store.clause_root(clause);
            acc = match Store::apply_terminal(BoolOp::Or, acc, clause_root) {
                Some(r) => r,
                None => store.apply(BoolOp::Or, acc, clause_root),
            };
            if let Some(e) = store.guard.as_mut().and_then(|g| g.tripped.take()) {
                store.guard = None;
                return Err(ObddError::Budget(e));
            }
            if let Some(b) = &budget {
                let allocated = store.nodes.len() - start;
                // Charge the fresh nodes of this fold as work units and
                // poll the deadline between clause folds.
                let delta = (allocated as u64).saturating_sub(charged);
                charged = allocated as u64;
                if let Err(e) = b.charge(delta) {
                    store.guard = None;
                    return Err(ObddError::Budget(e));
                }
            }
        }
        store.guard = None;
        drop(store);
        Ok(Obdd::from_parts(self.clone(), acc))
    }

    /// The diagram of a lineage: [`ObddManager::dnf`] over its clauses, or
    /// the constant `true` when the lineage is `true` (whatever its other
    /// clauses mention).
    pub fn lineage(&self, lineage: &Lineage) -> Result<Obdd> {
        if lineage.is_true() {
            return Ok(self.constant(true));
        }
        self.dnf(lineage.clauses())
    }

    /// Scans the arena for canonicity violations: a duplicate
    /// `(level, lo, hi)` triple, a redundant node with `lo == hi`, a child
    /// whose level does not strictly exceed its parent's, or a unique-table
    /// entry out of sync with the arena. Returns the first violation found.
    pub fn canonicity_violation(&self) -> Option<String> {
        let store = self.read();
        let mut seen: FxHashMap<(u32, NodeId, NodeId), NodeId> = FxHashMap::default();
        for (i, node) in store.nodes.iter().enumerate().skip(2) {
            let id = i as NodeId;
            if node.lo == node.hi {
                return Some(format!("node {id} is redundant (lo == hi == {})", node.lo));
            }
            if let Some(&first) = seen.get(&(node.level, node.lo, node.hi)) {
                return Some(format!(
                    "nodes {first} and {id} duplicate ({}, {}, {})",
                    node.level, node.lo, node.hi
                ));
            }
            seen.insert((node.level, node.lo, node.hi), id);
            for child in [node.lo, node.hi] {
                if child as usize >= store.nodes.len() {
                    return Some(format!("node {id} points past the arena ({child})"));
                }
                let child_level = store.level(child);
                if child_level != SINK_LEVEL && child_level <= node.level {
                    return Some(format!(
                        "node {id} (level {}) has child {child} at level {child_level}",
                        node.level
                    ));
                }
            }
            match store.unique.get(&(node.level, node.lo, node.hi)) {
                Some(&u) if u == id => {}
                other => return Some(format!("unique table maps node {id}'s triple to {other:?}")),
            }
        }
        None
    }

    /// A read guard over the node arena for tight traversal loops; hold it
    /// instead of calling [`Obdd::node`] per step.
    pub fn nodes(&self) -> ObddNodes<'_> {
        ObddNodes { guard: self.read() }
    }

    fn read(&self) -> RwLockReadGuard<'_, Store> {
        self.shared
            .store
            .read()
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn write(&self) -> std::sync::RwLockWriteGuard<'_, Store> {
        self.shared
            .store
            .write()
            .unwrap_or_else(PoisonError::into_inner)
    }

    // ---- crate-internal operations on roots -------------------------------

    pub(crate) fn node_of(&self, id: NodeId) -> ObddNode {
        self.read().node(id)
    }

    pub(crate) fn reachable_of(&self, root: NodeId) -> Vec<NodeId> {
        self.read().reachable(root)
    }

    pub(crate) fn level_range_of(&self, root: NodeId) -> Option<(u32, u32)> {
        self.read().level_range(root)
    }

    pub(crate) fn apply_roots(&self, op: BoolOp, a: NodeId, b: NodeId) -> NodeId {
        if let Some(r) = Store::apply_terminal(op, a, b) {
            return r;
        }
        self.write().apply(op, a, b)
    }

    pub(crate) fn negate_root(&self, root: NodeId) -> NodeId {
        self.write().negate(root)
    }

    pub(crate) fn concat_roots(&self, and: bool, a: NodeId, b: NodeId) -> NodeId {
        if let Some(r) = concat_trivial(and, a, b) {
            return r;
        }
        self.write().concat(and, a, b)
    }

    pub(crate) fn node_probs_of(
        &self,
        root: NodeId,
        prob_of: &dyn Fn(TupleId) -> f64,
    ) -> FxHashMap<NodeId, f64> {
        self.read().node_probs(&self.shared.order, root, prob_of)
    }
}

impl fmt::Debug for ObddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = self.read();
        f.debug_struct("ObddManager")
            .field("order_len", &self.shared.order.len())
            .field("nodes", &store.nodes.len())
            .field("memo_entries", &store.memo.len())
            .finish_non_exhaustive()
    }
}

/// The one place the sink special cases of concatenation live (binary and
/// n-ary, both operators, all through [`ObddManager::concat_roots`]): `None`
/// means real rebuilding is required.
fn concat_trivial(and: bool, a: NodeId, b: NodeId) -> Option<NodeId> {
    let (identity, absorbing) = if and { (TRUE, FALSE) } else { (FALSE, TRUE) };
    if a == identity {
        // false ∨ b = b, true ∧ b = b.
        return Some(b);
    }
    if a == absorbing {
        // true ∨ b = true, false ∧ b = false.
        return Some(a);
    }
    if b == identity {
        // a ∨ false = a, a ∧ true = a: nothing to redirect.
        return Some(a);
    }
    None
}

/// A read guard over a manager's arena. Holds the shared lock, so keep its
/// lifetime to one traversal; do not call building operations on the same
/// manager while it is alive.
pub struct ObddNodes<'a> {
    guard: RwLockReadGuard<'a, Store>,
}

impl ObddNodes<'_> {
    /// The node behind an id.
    pub fn node(&self, id: NodeId) -> ObddNode {
        self.guard.node(id)
    }

    /// The level of a node ([`SINK_LEVEL`] for sinks).
    pub fn level(&self, id: NodeId) -> u32 {
        self.guard.level(id)
    }

    /// Current arena size.
    pub fn len(&self) -> usize {
        self.guard.nodes.len()
    }

    /// `true` when the arena holds only the two sinks.
    pub fn is_empty(&self) -> bool {
        self.guard.nodes.len() <= 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDb, InDbBuilder, Weight};
    use mv_query::brute::brute_force_lineage_probability;
    use mv_query::lineage::lineage;
    use mv_query::parse_ucq;

    use crate::order::PiOrder;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
    }

    /// The `R`/`S` part of the database of Figure 3.
    fn fig3() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::new(3.0)).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::new(0.5)).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::new(2.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b3"]), Weight::new(1.0))
            .unwrap();
        b.insert_weighted(s, row(["a2", "b4"]), Weight::new(4.0))
            .unwrap();
        b.build()
    }

    fn fig3_manager(indb: &InDb) -> ObddManager {
        ObddManager::new(Arc::new(PiOrder::identity().tuple_order(indb)))
    }

    #[test]
    fn hash_consing_shares_nodes_across_diagrams() {
        let m = ObddManager::new(order(4));
        let a = m.clause(&[TupleId(1), TupleId(2)]).unwrap();
        let b = m.clause(&[TupleId(1), TupleId(2)]).unwrap();
        assert_eq!(a.root(), b.root());
        let stats = m.stats();
        assert!(stats.unique_hits >= 2, "second clause must hit the table");
        assert_eq!(stats.nodes_allocated, 2);
    }

    #[test]
    fn apply_memo_hits_on_repetition() {
        let m = ObddManager::new(order(4));
        let x = m.literal(TupleId(0)).unwrap();
        let y = m.literal(TupleId(3)).unwrap();
        let first = x.apply_or(&y).unwrap();
        let before = m.stats().apply_cache_hits;
        let second = x.apply_or(&y).unwrap();
        assert_eq!(first.root(), second.root());
        assert!(m.stats().apply_cache_hits > before);
    }

    #[test]
    fn negate_is_a_memoised_involution() {
        let m = ObddManager::new(order(3));
        let c = m.clause(&[TupleId(0), TupleId(2)]).unwrap();
        let n = c.negate();
        let back = n.negate();
        assert_eq!(back.root(), c.root());
        // The involution direction is answered entirely from the memo.
        let before = m.stats().apply_cache_misses;
        let again = c.negate();
        assert_eq!(again.root(), n.root());
        assert_eq!(m.stats().apply_cache_misses, before);
    }

    #[test]
    fn canonicity_holds_after_mixed_operations() {
        let m = ObddManager::new(order(6));
        let a = m.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let b = m.clause(&[TupleId(2), TupleId(3)]).unwrap();
        let c = m.clause(&[TupleId(4), TupleId(5)]).unwrap();
        let ab = a.concat_or(&b).unwrap();
        let abc = ab.apply_or(&c).unwrap();
        let _n = abc.negate();
        assert_eq!(m.canonicity_violation(), None);
    }

    #[test]
    fn concat_trivial_covers_both_operators() {
        // Left identity and absorbing sinks.
        assert_eq!(concat_trivial(false, FALSE, 7), Some(7));
        assert_eq!(concat_trivial(false, TRUE, 7), Some(TRUE));
        assert_eq!(concat_trivial(true, TRUE, 7), Some(7));
        assert_eq!(concat_trivial(true, FALSE, 7), Some(FALSE));
        // Right identity.
        assert_eq!(concat_trivial(false, 7, FALSE), Some(7));
        assert_eq!(concat_trivial(true, 7, TRUE), Some(7));
        // Real work.
        assert_eq!(concat_trivial(false, 7, 9), None);
        assert_eq!(concat_trivial(true, 7, 9), None);
    }

    #[test]
    fn dnf_fold_matches_clause_by_clause_fold() {
        let m = ObddManager::new(order(8));
        let clauses: Vec<Vec<TupleId>> = vec![
            vec![TupleId(0), TupleId(4)],
            vec![TupleId(1), TupleId(5)],
            vec![TupleId(2), TupleId(6)],
            vec![TupleId(0), TupleId(7)],
        ];
        let folded = m.dnf(&clauses).unwrap();
        let mut acc = m.constant(false);
        for c in &clauses {
            let clause = m.clause(c).unwrap();
            acc = acc.apply_or(&clause).unwrap();
        }
        assert_eq!(folded.root(), acc.root());
        // Degenerate inputs.
        assert_eq!(m.dnf::<Vec<TupleId>>(&[]).unwrap().root(), FALSE);
        assert_eq!(m.dnf(&[Vec::<TupleId>::new()]).unwrap().root(), TRUE);
        assert!(m.dnf(&[vec![TupleId(99)]]).is_err());
    }

    #[test]
    fn dense_side_tables_stay_in_lockstep_with_the_arena() {
        let m = ObddManager::new(order(16));
        let mut diagrams = Vec::new();
        for i in 0..8 {
            diagrams.push(m.clause(&[TupleId(i), TupleId(i + 8)]).unwrap());
        }
        let mut acc = m.constant(false);
        for d in &diagrams {
            acc = acc.apply_or(d).unwrap();
        }
        let negated = acc.negate();
        // Every node (old and new) must be addressable in the negate memo:
        // probabilities on the negation exercise the full arena range.
        let p = acc.probability(|_| 0.5);
        let np = negated.probability(|_| 0.5);
        assert!((p + np - 1.0).abs() < 1e-12);
        assert_eq!(m.canonicity_violation(), None);
    }

    #[test]
    fn synthesised_obdd_matches_brute_force_probability() {
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        let obdd = fig3_manager(&indb).lineage(&lin).unwrap();
        let expected = brute_force_lineage_probability(&lin, &indb);
        let actual = obdd.probability(|t| indb.probability(t));
        assert!((actual - expected).abs() < 1e-12);
        // In the Figure 3 order the OBDD has width 1 and six nodes.
        assert_eq!(obdd.size(), 6);
        assert_eq!(obdd.width(), 1);
    }

    #[test]
    fn constant_lineages_produce_constant_diagrams() {
        let indb = fig3();
        let m = ObddManager::new(Arc::new(VarOrder::natural(&indb)));
        let t = m.lineage(&Lineage::constant_true()).unwrap();
        assert_eq!(t.size(), 0);
        assert!(t.eval(|_| false));
        let f = m.lineage(&Lineage::constant_false()).unwrap();
        assert!(!f.eval(|_| true));
    }

    #[test]
    fn lineage_variables_all_appear_in_the_diagram() {
        let indb = fig3();
        let q = parse_ucq("Q() :- S(x, y)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        let obdd = fig3_manager(&indb).lineage(&lin).unwrap();
        // One node per S tuple: the diagram is a chain of 4 variables.
        assert_eq!(obdd.size(), 4);
        let p = obdd.probability(|t| indb.probability(t));
        let expected = 1.0 - (1.0 - 0.5) * (1.0 - 2.0 / 3.0) * (1.0 - 0.5) * (1.0 - 0.8);
        assert!((p - expected).abs() < 1e-12);
    }

    #[test]
    fn unknown_variables_are_reported() {
        // An order that misses tuples of the lineage.
        let m = ObddManager::new(Arc::new(VarOrder::from_tuples(vec![TupleId(0)])));
        let lin = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(3)]]);
        assert!(m.lineage(&lin).is_err());
    }
}
