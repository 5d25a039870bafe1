//! The shared, hash-consed OBDD node manager.
//!
//! An [`ObddManager`] owns a single append-only arena of `(level, lo, hi)`
//! nodes together with the global *unique table* that hash-conses them: a
//! given `(level, lo, hi)` triple exists at most once per manager, so
//! structurally identical sub-diagrams are shared by **every** diagram built
//! in the manager — across views, across blocks of the MV-index, and across
//! queries. An [`Obdd`] is just a cheap `{manager, root}`
//! handle; cloning one never copies nodes.
//!
//! # Cache architecture
//!
//! The arena is append-only with dense `u32` ids, and every hot-path cache
//! exploits that instead of going through a general-purpose hash map:
//!
//! * the **unique table** (`(level, lo, hi) → NodeId`) — the one table that
//!   must stay exact forever (evicting it would break canonicity). It is a
//!   hash map, but keyed with the vendored FxHash mix instead of SipHash;
//! * the **computed table** — a bounded, *lossy*, direct-mapped table shared
//!   by `apply` (∨/∧) and `concat` steps, in the style of mature BDD
//!   packages (CUDD/BuDDy). Exactly one slot is probed per lookup; a
//!   colliding insert overwrites the previous entry and is counted in
//!   [`ManagerStats::cache_evictions`]. Losing an entry only means a later
//!   step may be recomputed — results always flow through the operation's
//!   own explicit stack, so correctness never depends on the table. The
//!   table starts at [`ObddManager::COMPUTED_TABLE_MIN`] slots and doubles
//!   with arena growth up to [`ObddManager::COMPUTED_TABLE_MAX`]
//!   ([`ManagerStats::computed_resizes`] counts the doublings), so memory
//!   stays bounded no matter how long a manager lives;
//! * the **negate memo** — a dense `Vec<NodeId>` side table indexed by node
//!   id (`NONE` = not negated yet). Negation is an involution, so both
//!   directions are recorded; the memo is exact and never evicted;
//! * the **probability cache** — a dense `Vec` side table of
//!   `(epoch stamp, value)` pairs indexed by node id. Entries are valid only
//!   when their stamp matches the manager's current *weight epoch*;
//!   [`ObddManager::bump_weight_epoch`] therefore invalidates the whole
//!   cache in O(1) by bumping a counter — nothing is cleared or freed.
//!
//! # Memory model
//!
//! The arena is **append-only**: nodes are never mutated or freed while the
//! manager is alive, which is what makes handles cheap and lets concurrent
//! readers traverse diagrams lock-free of each other (a [`std::sync::RwLock`]
//! guards growth; read-only operations take a shared guard once per
//! operation, not per node). Unreachable nodes are reclaimed only when the
//! last handle drops the manager. The dense side tables grow in lockstep
//! with the arena (a few bytes per node); the computed table is bounded as
//! described above.
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
//! Building operations serialise on the manager's write lock, so parallel
//! workloads should give each worker its own manager *shard* (see
//! `MvdbSession` in `mv-core`) and share only read-mostly managers such as
//! the compiled MV-index. Combining diagrams from two different managers
//! with equal variable orders transparently imports one side into the other
//! — correct, but a copy; keep hot paths inside one manager.

use std::fmt;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard};

use fxhash::{FxHashMap, FxHashSet};
use mv_pdb::TupleId;

use crate::error::ObddError;
use crate::obdd::{Obdd, ObddNode, FALSE, SINK_LEVEL, TRUE};
use crate::order::VarOrder;
use crate::{NodeId, Result};

/// Sentinel for "no entry" in dense side tables indexed by [`NodeId`].
const NONE: NodeId = NodeId::MAX;

/// The two Boolean synthesis operators the computed table distinguishes
/// (concatenation adds two more tags internally).
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

/// Computed-table operation tags. `TAG_EMPTY` marks a vacant slot.
const TAG_OR: u32 = 0;
const TAG_AND: u32 = 1;
const TAG_CONCAT_OR: u32 = 2;
const TAG_CONCAT_AND: u32 = 3;
const TAG_EMPTY: u32 = u32::MAX;

/// One slot of the direct-mapped computed table: the full key (operation
/// tag + operands) plus the result, 16 bytes per slot.
#[derive(Debug, Clone, Copy)]
struct ComputedSlot {
    tag: u32,
    a: NodeId,
    b: NodeId,
    result: NodeId,
}

const EMPTY_SLOT: ComputedSlot = ComputedSlot {
    tag: TAG_EMPTY,
    a: 0,
    b: 0,
    result: 0,
};

/// The bounded, lossy, direct-mapped computed table shared by apply and
/// concat. Exactly one slot is probed per lookup; collisions overwrite.
#[derive(Debug)]
struct ComputedTable {
    slots: Vec<ComputedSlot>,
    mask: usize,
}

impl ComputedTable {
    fn with_capacity(capacity: usize) -> ComputedTable {
        debug_assert!(capacity.is_power_of_two());
        ComputedTable {
            slots: vec![EMPTY_SLOT; capacity],
            mask: capacity - 1,
        }
    }

    fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// The one slot a key maps to: an FxHash-style multiply-rotate mix of
    /// the packed key, taking the high bits (where the multiply concentrates
    /// entropy).
    #[inline]
    fn slot_of(&self, tag: u32, a: NodeId, b: NodeId) -> usize {
        let key = ((u64::from(a) << 32) | u64::from(b)).rotate_left(5) ^ u64::from(tag);
        let h = key.wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        ((h >> 32) as usize) & self.mask
    }

    #[inline]
    fn lookup(&self, tag: u32, a: NodeId, b: NodeId) -> Option<NodeId> {
        let slot = self.slots[self.slot_of(tag, a, b)];
        (slot.tag == tag && slot.a == a && slot.b == b).then_some(slot.result)
    }

    /// Stores a result, returning `true` when a *different* live entry was
    /// evicted (the lossy part of the design).
    #[inline]
    fn insert(&mut self, tag: u32, a: NodeId, b: NodeId, result: NodeId) -> bool {
        let index = self.slot_of(tag, a, b);
        let previous = self.slots[index];
        self.slots[index] = ComputedSlot { tag, a, b, result };
        previous.tag != TAG_EMPTY && (previous.tag, previous.a, previous.b) != (tag, a, b)
    }

    /// Doubles the table and rehashes the live entries (colliding survivors
    /// are dropped — the table is lossy by contract).
    fn grow_to(&mut self, capacity: usize) {
        debug_assert!(capacity.is_power_of_two() && capacity > self.capacity());
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; capacity]);
        self.mask = capacity - 1;
        for slot in old {
            if slot.tag != TAG_EMPTY {
                let index = self.slot_of(slot.tag, slot.a, slot.b);
                self.slots[index] = slot;
            }
        }
    }
}

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

/// One entry of the dense probability cache: the value is valid only when
/// `stamp` equals the current weight epoch's stamp (0 = never written).
#[derive(Debug, Clone, Copy)]
struct ProbSlot {
    stamp: u64,
    value: f64,
}

const EMPTY_PROB: ProbSlot = ProbSlot {
    stamp: 0,
    value: 0.0,
};

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
    /// Apply/negate/concat steps answered by the computed table or the
    /// negate memo.
    pub apply_cache_hits: u64,
    /// Apply/negate/concat steps that had to compute a result node.
    pub apply_cache_misses: u64,
    /// Per-node probabilities served from the weight-epoch cache.
    pub prob_cache_hits: u64,
    /// Per-node probabilities computed and stamped into the cache.
    pub prob_cache_misses: u64,
    /// Live computed-table entries overwritten by a colliding insert. The
    /// apply/concat table is direct-mapped and lossy: an eviction means the
    /// overwritten step may be recomputed later, never that a result is
    /// wrong. A high rate relative to `apply_cache_misses` suggests the
    /// table capped out at [`ObddManager::COMPUTED_TABLE_MAX`] under a
    /// working set larger than the table.
    pub cache_evictions: u64,
    /// Times the computed table doubled to track arena growth (bounded by
    /// `log2(COMPUTED_TABLE_MAX / COMPUTED_TABLE_MIN)` per manager). Live
    /// entries are rehashed on growth; colliding survivors are dropped.
    pub computed_resizes: u64,
    /// Internal nodes copied into this arena from a *different* manager —
    /// the only remaining deep-copy path. Zero on production pipelines,
    /// which keep each diagram family inside one manager.
    pub imported_nodes: u64,
    /// Gauge: current arena size (sinks included) at the time the snapshot
    /// was taken. Aggregation sums across managers (total resident nodes);
    /// [`ManagerStats::since`] keeps the current value — a gauge has no
    /// meaningful delta.
    pub live_nodes: u64,
    /// Gauge: approximate heap bytes held by the arena and its side tables
    /// (nodes, unique table, computed table, negate memo, probability
    /// cache) at snapshot time. Aggregates and deltas like `live_nodes`.
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

    /// Fraction of per-node probability lookups served from the cache.
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
            computed_resizes: self
                .computed_resizes
                .saturating_sub(earlier.computed_resizes),
            imported_nodes: self.imported_nodes.saturating_sub(earlier.imported_nodes),
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
            computed_resizes: self.computed_resizes + rhs.computed_resizes,
            imported_nodes: self.imported_nodes + rhs.imported_nodes,
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
    /// The lossy, direct-mapped computed table for apply and concat steps.
    computed: ComputedTable,
    /// Dense `node → ¬node` side table (`NONE` = not negated yet; sinks
    /// pre-seeded). Exact and never evicted.
    negate_memo: Vec<NodeId>,
    /// Dense per-node probability cache; entries are valid only for the
    /// current weight epoch's stamp.
    prob_cache: Vec<ProbSlot>,
    weight_epoch: u64,
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
            computed: ComputedTable::with_capacity(ObddManager::COMPUTED_TABLE_MIN),
            // ¬false = true, ¬true = false.
            negate_memo: vec![TRUE, FALSE],
            prob_cache: vec![EMPTY_PROB; 2],
            weight_epoch: 0,
            stats: ManagerStats {
                peak_nodes: 2,
                ..ManagerStats::default()
            },
            guard: None,
        }
    }

    /// Approximate heap bytes held by the arena and its side tables.
    fn arena_bytes(&self) -> u64 {
        let nodes = self.nodes.capacity() * std::mem::size_of::<ObddNode>();
        // FxHashMap entry ≈ key + value + one byte of control metadata,
        // over-provisioned by the load factor (≈ 8/7 rounded up to 2× for
        // capacity slack) — an estimate, not an allocator audit.
        let unique =
            self.unique.capacity() * (std::mem::size_of::<((u32, NodeId, NodeId), NodeId)>() + 1);
        let computed = self.computed.capacity() * std::mem::size_of::<ComputedSlot>();
        let negate = self.negate_memo.capacity() * std::mem::size_of::<NodeId>();
        let prob = self.prob_cache.capacity() * std::mem::size_of::<ProbSlot>();
        (nodes + unique + computed + negate + prob) as u64
    }

    /// The stamp marking probability-cache entries of the current epoch
    /// (offset by one so the zero-initialised slots are always invalid).
    #[inline]
    fn epoch_stamp(&self) -> u64 {
        self.weight_epoch + 1
    }

    fn node(&self, id: NodeId) -> ObddNode {
        self.nodes[id as usize]
    }

    fn level(&self, id: NodeId) -> u32 {
        self.nodes[id as usize].level
    }

    /// Creates (or reuses) a node, applying the standard reduction rules.
    /// The dense side tables grow in lockstep with the arena, and the
    /// computed table doubles (up to its cap) when the arena outgrows it.
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
        self.prob_cache.push(EMPTY_PROB);
        self.stats.peak_nodes = self.stats.peak_nodes.max(self.nodes.len() as u64);
        self.unique.insert((level, lo, hi), id);
        // Keep the computed table at ≥ 2× the arena (like CUDD's computed
        // table, sized as a multiple of the unique table): apply generates
        // more subproblems than nodes, and a too-small direct-mapped table
        // turns into an eviction mill.
        let capacity = self.computed.capacity();
        if self.nodes.len() * 2 > capacity && capacity < ObddManager::COMPUTED_TABLE_MAX {
            self.computed.grow_to(capacity * 2);
            self.stats.computed_resizes += 1;
        }
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
    /// through the lossy computed table (operands normalised for
    /// commutativity).
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
                    if let Some(r) = self.computed.lookup(tag, ka, kb) {
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
                    if self.computed.insert(tag, ka, kb, r) {
                        self.stats.cache_evictions += 1;
                    }
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
    /// operand. The per-call rebuild map is exact; the computed table only
    /// accelerates repeats across calls.
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
            if let Some(r) = self.computed.lookup(tag, id, b) {
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
                    if self.computed.insert(tag, id, b, rebuilt) {
                        self.stats.cache_evictions += 1;
                    }
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

    /// Copies the reachable part of `src_root` (in `src`) into this store.
    /// The only remaining copy path — used when combining diagrams from two
    /// different managers with equal variable orders.
    fn import(&mut self, src: &Store, src_root: NodeId) -> NodeId {
        if src_root == TRUE || src_root == FALSE {
            return src_root;
        }
        let mut ids = src.reachable(src_root);
        ids.sort_by_key(|&id| std::cmp::Reverse(src.level(id)));
        let mut map: FxHashMap<NodeId, NodeId> = FxHashMap::default();
        map.insert(FALSE, FALSE);
        map.insert(TRUE, TRUE);
        for id in ids {
            if id == TRUE || id == FALSE {
                continue;
            }
            let node = src.node(id);
            let lo = map[&node.lo];
            let hi = map[&node.hi];
            let new_id = self.mk(node.level, lo, hi);
            self.stats.imported_nodes += 1;
            map.insert(id, new_id);
        }
        map[&src_root]
    }

    /// Bottom-up Shannon-expansion probabilities of every node reachable
    /// from `root`, computed in one explicit-stack DFS without touching the
    /// epoch cache. The result map is sized by the diagram, not the arena.
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

    /// The cached probability of `id` for the current epoch: `None` when it
    /// has to be computed first. Sinks are constant.
    #[inline]
    fn prob_slot_value(&self, id: NodeId, stamp: u64) -> Option<f64> {
        if id == FALSE {
            return Some(0.0);
        }
        if id == TRUE {
            return Some(1.0);
        }
        let slot = self.prob_cache[id as usize];
        (slot.stamp == stamp).then_some(slot.value)
    }

    /// The probability of the diagram rooted at `root` alone, served from /
    /// stamped into the epoch cache. It prunes at cache hits and allocates
    /// **no per-call map** — the
    /// dense epoch cache itself is the traversal state, so a warm root is a
    /// single array probe and a cold pass is straight `Vec` arithmetic.
    /// This is what makes bulk probability over a cached workload fast.
    fn root_prob_cached(
        &mut self,
        order: &VarOrder,
        root: NodeId,
        prob_of: &dyn Fn(TupleId) -> f64,
    ) -> f64 {
        let stamp = self.epoch_stamp();
        if let Some(value) = self.prob_slot_value(root, stamp) {
            self.stats.prob_cache_hits += 1;
            return value;
        }
        let mut stack = vec![root];
        while let Some(&id) = stack.last() {
            if self.prob_slot_value(id, stamp).is_some() {
                stack.pop();
                continue;
            }
            let node = self.node(id);
            let lo = self.prob_slot_value(node.lo, stamp);
            let hi = self.prob_slot_value(node.hi, stamp);
            match (lo, hi) {
                (Some(lo), Some(hi)) => {
                    let p = prob_of(order.tuple_at(node.level));
                    let value = (1.0 - p) * lo + p * hi;
                    self.stats.prob_cache_misses += 1;
                    self.prob_cache[id as usize] = ProbSlot { stamp, value };
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
        self.prob_cache[root as usize].value
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
    /// Initial slot count of the lossy apply/concat computed table. Small
    /// managers (per-query shards) stay at a few kilobytes.
    pub const COMPUTED_TABLE_MIN: usize = 1 << 10;

    /// Upper bound on the computed-table slot count; the table doubles with
    /// arena growth until it reaches this cap (16 bytes per slot — 16 MiB at
    /// the cap), then stays bounded and lossy forever.
    pub const COMPUTED_TABLE_MAX: usize = 1 << 20;

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
    pub fn same_store(&self, other: &ObddManager) -> bool {
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

    /// Current slot count of the lossy computed table (between
    /// [`ObddManager::COMPUTED_TABLE_MIN`] and
    /// [`ObddManager::COMPUTED_TABLE_MAX`], tracking arena growth).
    pub fn computed_table_capacity(&self) -> usize {
        self.read().computed.capacity()
    }

    /// Declares that tuple weights changed: starts a new epoch, which
    /// invalidates every probability-cache entry in O(1) (entries are
    /// stamped with their epoch; nothing is cleared or freed). Structural
    /// caches survive — they do not depend on weights.
    pub fn bump_weight_epoch(&self) -> u64 {
        let mut store = self.write();
        store.weight_epoch += 1;
        store.weight_epoch
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
    /// **one** lock acquisition. For lineages of many small clauses (the
    /// per-query hot path), per-clause locking costs more than the fold
    /// itself; batch builders (`SynthesisBuilder::from_lineage`) should
    /// prefer this entry point.
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

    /// Imports `root` of `other` into this manager (no-op for sinks or when
    /// both handles share the arena).
    pub(crate) fn import_root(&self, other: &ObddManager, root: NodeId) -> NodeId {
        if self.same_store(other) || root == TRUE || root == FALSE {
            return root;
        }
        // Lock order: write on the destination, then read on the source.
        // Distinct managers, so this cannot self-deadlock; concurrent
        // cross-imports in opposite directions are not supported (imports
        // only happen on cold cross-manager fallbacks).
        let mut dst = self.write();
        let src = other.read();
        dst.import(&src, root)
    }

    pub(crate) fn node_probs_of(
        &self,
        root: NodeId,
        prob_of: &dyn Fn(TupleId) -> f64,
    ) -> FxHashMap<NodeId, f64> {
        self.read().node_probs(&self.shared.order, root, prob_of)
    }

    pub(crate) fn root_prob_cached_of(
        &self,
        root: NodeId,
        prob_of: &dyn Fn(TupleId) -> f64,
    ) -> f64 {
        self.write()
            .root_prob_cached(&self.shared.order, root, prob_of)
    }

    /// Cached probabilities of many diagrams of **this** manager under one
    /// lock acquisition (the bulk analogue of
    /// [`Obdd::probability_cached`](crate::Obdd::probability_cached)):
    /// per-diagram locking costs more than the probes themselves once the
    /// epoch cache is warm, so batch evaluators should prefer this entry
    /// point. The same epoch contract applies — `prob_of` must be the
    /// weight function the current epoch stands for.
    ///
    /// # Panics
    ///
    /// Panics when a diagram belongs to a different manager.
    pub fn bulk_probability_cached(
        &self,
        diagrams: &[Obdd],
        prob_of: impl Fn(TupleId) -> f64,
    ) -> Vec<f64> {
        let mut store = self.write();
        diagrams
            .iter()
            .map(|d| {
                assert!(
                    self.same_store(d.manager()),
                    "bulk_probability_cached requires diagrams of this manager"
                );
                store.root_prob_cached(&self.shared.order, d.root(), &prob_of)
            })
            .collect()
    }
}

impl fmt::Debug for ObddManager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let store = self.read();
        f.debug_struct("ObddManager")
            .field("order_len", &self.shared.order.len())
            .field("nodes", &store.nodes.len())
            .field("weight_epoch", &store.weight_epoch)
            .field("computed_slots", &store.computed.capacity())
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

/// Sparse per-node Shannon-expansion probabilities for one diagram: every
/// node reachable from the root (sinks included) has an entry. Returned by
/// [`Obdd::node_probabilities`]; sized by the *diagram*, not by the shared
/// arena.
#[derive(Debug, Clone)]
pub struct NodeProbs {
    map: FxHashMap<NodeId, f64>,
}

impl NodeProbs {
    pub(crate) fn from_map(map: FxHashMap<NodeId, f64>) -> NodeProbs {
        NodeProbs { map }
    }

    /// The probability of the sub-diagram rooted at `id`. Panics when `id`
    /// was not reachable from the root the probabilities were computed for.
    pub fn get(&self, id: NodeId) -> f64 {
        self.map[&id]
    }

    /// Like [`NodeProbs::get`] without the reachability requirement.
    pub fn try_get(&self, id: NodeId) -> Option<f64> {
        self.map.get(&id).copied()
    }

    /// Consumes the probabilities as a plain map (keys: reachable nodes plus
    /// the two sinks), for callers that store them long-term.
    pub fn into_map(self) -> FxHashMap<NodeId, f64> {
        self.map
    }

    /// Number of nodes covered (reachable nodes plus the two sinks).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no node is covered (never the case for valid diagrams).
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn order(n: u32) -> Arc<VarOrder> {
        Arc::new(VarOrder::from_tuples((0..n).map(TupleId)))
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
    fn weight_epoch_invalidates_probability_cache() {
        let m = ObddManager::new(order(2));
        let c = m.clause(&[TupleId(0), TupleId(1)]).unwrap();
        let p1 = c.probability_cached(|_| 0.5);
        assert!((p1 - 0.25).abs() < 1e-12);
        // Same epoch: cached value is reused even for a new closure.
        let hits = m.stats().prob_cache_hits;
        let _ = c.probability_cached(|_| 0.5);
        assert!(m.stats().prob_cache_hits > hits);
        // New epoch: the stamps go stale and the new weights take effect.
        m.bump_weight_epoch();
        let p2 = c.probability_cached(|_| 0.1);
        assert!((p2 - 0.01).abs() < 1e-12);
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
    fn computed_table_is_direct_mapped_and_lossy() {
        let mut table = ComputedTable::with_capacity(8);
        assert!(!table.insert(TAG_OR, 2, 3, 7));
        assert_eq!(table.lookup(TAG_OR, 2, 3), Some(7));
        // Same key, new value: overwrite without an eviction.
        assert!(!table.insert(TAG_OR, 2, 3, 9));
        assert_eq!(table.lookup(TAG_OR, 2, 3), Some(9));
        // A different key mapping to the same slot evicts. Find one by
        // scanning — with 8 slots a collision exists among a few hundred
        // keys.
        let slot = table.slot_of(TAG_OR, 2, 3);
        let colliding = (0..1000u32)
            .map(|i| (100 + i, 200 + i))
            .find(|&(a, b)| table.slot_of(TAG_OR, a, b) == slot)
            .expect("a colliding key exists");
        assert!(table.insert(TAG_OR, colliding.0, colliding.1, 11));
        assert_eq!(table.lookup(TAG_OR, 2, 3), None, "evicted by collision");
        assert_eq!(table.lookup(TAG_OR, colliding.0, colliding.1), Some(11));
    }

    #[test]
    fn computed_table_grows_with_the_arena() {
        let n = (ObddManager::COMPUTED_TABLE_MIN + 8) as u32;
        let m = ObddManager::new(order(n));
        assert_eq!(m.computed_table_capacity(), ObddManager::COMPUTED_TABLE_MIN);
        // A single clause over more variables than the minimum table size
        // allocates one node per level; the table doubles to stay at ≥ 2×
        // the arena.
        let clause: Vec<TupleId> = (0..n).map(TupleId).collect();
        let c = m.clause(&clause).unwrap();
        assert_eq!(c.size(), n as usize);
        assert!(m.computed_table_capacity() >= 2 * m.num_nodes());
        assert_eq!(m.stats().computed_resizes, 2);
        assert!(m.computed_table_capacity() <= ObddManager::COMPUTED_TABLE_MAX);
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
        // Every node (old and new) must be addressable in the side tables:
        // probabilities on the negation exercise the full arena range.
        let p = acc.probability_cached(|_| 0.5);
        let np = negated.probability_cached(|_| 0.5);
        assert!((p + np - 1.0).abs() < 1e-12);
        assert_eq!(m.canonicity_violation(), None);
    }
}
