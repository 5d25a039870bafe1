//! Lineage (Boolean provenance) of queries over tuple-independent databases.
//!
//! The lineage `Φ_Q` of a Boolean query `Q` is a positive Boolean formula in
//! DNF over the Boolean variables `X_t` of the probabilistic tuples
//! (Section 2.1 / Figure 3): each satisfying assignment of the query body
//! contributes one clause containing the probabilistic tuples it used;
//! deterministic tuples contribute nothing (they are always present).
//!
//! Three containers hold lineages:
//!
//! * a [`ClauseBuffer`] — every clause's ids in one flat `ids` vector, cut
//!   by an `ends` vector of offsets. It is what the exact online path
//!   carries from the vectorized executor through shard routing
//!   ([`crate::Partition::route_clauses`]) into the query kernel's fold:
//!   [`clauses_with`] fills one without a heap allocation per clause;
//! * an [`AnswerClauses`] — the lineages of every answer of a non-Boolean
//!   query in one such buffer, a range of clauses per answer, answers in
//!   row order. [`answer_clauses_with`] fills one; a [`ClauseSlice`] reads
//!   one answer's range, or a whole buffer;
//! * a [`Lineage`] — one sorted `Vec` per clause, in canonical order. It is
//!   the public and oracle type: equality is set equality, and the
//!   backends other than the MV-index and the harnesses read it.
//!   [`lineage_with`] and [`answer_lineages_with`] are the flat forms
//!   turned into it.
//!
//! Each form has one collector. A Boolean query's clauses go through
//! `ClauseCollector`: each clause is appended to the buffer's tail, sorted
//! there, and dropped again when it repeats an earlier one — found through
//! an open-addressed table of clause indices hashed over the ids
//! (`IndexTable`), which holds no clause of its own. A non-Boolean query's
//! go through `AnswerCollector`: an answer is keyed by its head *code*
//! tuple in a second such table, its row decoded once when it first
//! appears, and every answer's clauses are deduplicated, per answer, into
//! one id buffer; finishing sorts the answers by row and groups their
//! clauses. Both collectors' tables, and the executor's buffers, live in
//! the context's pooled [`ExecScratch`], so a
//! warm call allocates for its result only. The legacy backtracking
//! evaluator remains reachable through [`lineage_legacy_with`] and
//! [`answer_lineages_legacy`] as the agreement-test oracle.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::ops::ControlFlow;

use fxhash::FxHasher;
use mv_pdb::{InDb, Row, TupleId, Value};

use crate::ast::{Term, Ucq};
use crate::error::QueryError;
use crate::eval::{for_each_match, EvalContext};
use crate::plan::{HeadTerm, UNBOUND};
use crate::vec_exec::{recycle, vec_bytes, ExecScratch, ExecStats, MatchBatch, VecCompiledUcq};
use crate::Result;

/// One clause of a DNF lineage: a conjunction of tuple variables, kept sorted
/// and duplicate-free.
pub type Clause = Vec<TupleId>;

/// A DNF lineage as one flat buffer: clause `i` is
/// `ids[ends[i - 1]..ends[i]]` (from 0 for the first). Each clause is
/// sorted and holds no tuple twice, and no clause appears twice; clause
/// order is whatever the producer emitted. As for [`Lineage`], `false` has
/// no clause and `true` is one empty clause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClauseBuffer {
    ends: Vec<u32>,
    ids: Vec<TupleId>,
}

impl ClauseBuffer {
    /// The constant `false` buffer (no clauses).
    pub fn new() -> Self {
        ClauseBuffer::default()
    }

    /// An empty buffer with room for `clauses` clauses of `ids` ids in all.
    pub fn with_capacity(clauses: usize, ids: usize) -> Self {
        ClauseBuffer {
            ends: Vec::with_capacity(clauses),
            ids: Vec::with_capacity(ids),
        }
    }

    /// The constant `true` buffer (one empty clause).
    pub fn constant_true() -> Self {
        ClauseBuffer {
            ends: vec![0],
            ids: Vec::new(),
        }
    }

    /// Number of clauses.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the buffer holds no clause: the lineage is the constant
    /// `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// `true` when the lineage is the constant `true`: an empty clause
    /// absorbs every other, so it is the only one.
    #[inline]
    pub fn is_true(&self) -> bool {
        self.ends.first() == Some(&0)
    }

    /// Every clause's ids, back to back.
    #[inline]
    pub fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// Clause `i`.
    fn clause(&self, i: usize) -> &[TupleId] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.ids[start as usize..self.ends[i] as usize]
    }

    /// The clauses, in buffer order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[TupleId]> + Clone + '_ {
        self.as_slice().iter()
    }

    /// The whole buffer as a [`ClauseSlice`].
    #[inline]
    pub fn as_slice(&self) -> ClauseSlice<'_> {
        ClauseSlice {
            base: 0,
            ends: &self.ends,
            ids: &self.ids,
        }
    }

    /// Appends a clause. The caller keeps the invariants: the clause is
    /// sorted, holds no tuple twice, is not empty unless it is the only
    /// clause, and is not in the buffer yet — true of any clause taken from
    /// another buffer or a [`Lineage`] whose clauses are not in this one.
    #[inline]
    pub fn push(&mut self, clause: &[TupleId]) {
        debug_assert!(clause.windows(2).all(|w| w[0] < w[1]));
        // Clauses are a few ids long: a copy loop beats a `memcpy` call.
        self.ids.extend(clause.iter().copied());
        self.ends.push(self.ids.len() as u32);
    }

    /// Empties the buffer, keeping its allocations.
    fn clear(&mut self) {
        self.ends.clear();
        self.ids.clear();
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.ends) + vec_bytes(&self.ids)
    }
}

impl From<&Lineage> for ClauseBuffer {
    fn from(lineage: &Lineage) -> Self {
        let mut buffer = ClauseBuffer::with_capacity(lineage.num_clauses(), lineage.num_literals());
        for clause in lineage.clauses() {
            buffer.push(clause);
        }
        buffer
    }
}

/// A borrowed run of flat clauses: a whole [`ClauseBuffer`]
/// ([`ClauseBuffer::as_slice`]) or one answer's clauses in an
/// [`AnswerClauses`], read the way a buffer is, with the same invariants.
#[derive(Debug, Clone, Copy)]
pub struct ClauseSlice<'a> {
    /// Where `ids` starts in the owning buffer, whose offsets `ends` holds.
    base: u32,
    ends: &'a [u32],
    ids: &'a [TupleId],
}

impl<'a> ClauseSlice<'a> {
    /// Number of clauses.
    #[inline]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the run holds no clause: the lineage is `false`.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// `true` when the lineage is the constant `true` (one empty clause).
    #[inline]
    pub fn is_true(&self) -> bool {
        self.ends.first() == Some(&self.base)
    }

    /// Every clause's ids, back to back.
    #[inline]
    pub fn ids(&self) -> &'a [TupleId] {
        self.ids
    }

    /// The clauses, in buffer order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a [TupleId]> + Clone + 'a {
        let (base, ids) = (self.base, self.ids);
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let end = (end - base) as usize;
            let clause = &ids[start..end];
            start = end;
            clause
        })
    }
}

/// FxHash of a clause's ids, after `seed`.
fn hash_ids(seed: u32, ids: &[TupleId]) -> u64 {
    let mut hasher = FxHasher::default();
    hasher.write_u32(seed);
    for t in ids {
        hasher.write_u32(t.0);
    }
    hasher.finish()
}

/// FxHash of a head code tuple.
fn hash_codes(codes: &[u32]) -> u64 {
    let mut hasher = FxHasher::default();
    for &c in codes {
        hasher.write_u32(c);
    }
    hasher.finish()
}

/// Sorts and deduplicates `ids[start..]`, the clause being built in a
/// buffer's tail; `false` when it is empty.
fn normalize_tail(ids: &mut Vec<TupleId>, start: usize) -> bool {
    ids[start..].sort_unstable();
    let mut kept = start;
    for read in start..ids.len() {
        if kept == start || ids[read] != ids[kept - 1] {
            ids[kept] = ids[read];
            kept += 1;
        }
    }
    ids.truncate(kept);
    kept > start
}

/// An open-addressed set of `u32` indices into storage its owner keeps:
/// at most half full, probed linearly from the high bits of an Fx hash,
/// whose final multiply mixes them best. A lookup compares candidates in
/// the owner's storage, so the table holds nothing else.
#[derive(Debug, Default)]
pub(crate) struct IndexTable {
    /// Indices, [`IndexTable::EMPTY`] in a free slot. The length is a
    /// power of two, or zero before the first index.
    slots: Vec<u32>,
}

impl IndexTable {
    const EMPTY: u32 = u32::MAX;
    const MIN_SLOTS: usize = 16;

    /// Forgets every index, keeping the allocation.
    fn clear(&mut self) {
        self.slots.clear();
    }

    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// The index stored under `hash` that `is` accepts.
    fn find(&self, hash: u64, is: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                IndexTable::EMPTY => return None,
                i if is(i) => return Some(i),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Stores `index`, which is the number of indices held so far, under
    /// `hash` — first doubling the table and re-placing the earlier indices
    /// under `hash_of` when it would be more than half full.
    fn insert(&mut self, index: u32, hash: u64, hash_of: impl Fn(u32) -> u64) {
        if (index as usize + 1) * 2 > self.slots.len() {
            let size = (self.slots.len() * 2).max(IndexTable::MIN_SLOTS);
            self.slots.clear();
            self.slots.resize(size, IndexTable::EMPTY);
            for earlier in 0..index {
                self.place(earlier, hash_of(earlier));
            }
        }
        self.place(index, hash);
    }

    fn place(&mut self, index: u32, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != IndexTable::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = index;
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.slots)
    }
}

/// The Boolean clause collector: appends each clause to a [`ClauseBuffer`]
/// and drops repeats through an [`IndexTable`] of clause indices.
#[derive(Debug, Default)]
pub(crate) struct ClauseCollector {
    buffer: ClauseBuffer,
    table: IndexTable,
    /// An empty clause arrived: the lineage is `true`.
    certainly_true: bool,
}

impl ClauseCollector {
    pub(crate) fn new() -> Self {
        ClauseCollector::default()
    }

    /// A collector that reuses `table`'s allocation, its buffer sized for a
    /// point query's clauses (a broad one grows it).
    fn with_table(mut table: IndexTable) -> Self {
        table.clear();
        ClauseCollector {
            buffer: ClauseBuffer::with_capacity(16, 64),
            table,
            certainly_true: false,
        }
    }

    /// Adds the clause over `tuples` (in any order, repeats allowed): it is
    /// sorted and deduplicated in the buffer's tail and kept only when the
    /// buffer does not hold it yet. Returns `false` for an empty clause —
    /// the lineage is then `true` and the caller may stop.
    pub(crate) fn add(&mut self, tuples: impl IntoIterator<Item = TupleId>) -> bool {
        let start = self.buffer.ids.len();
        self.buffer.ids.extend(tuples);
        if !normalize_tail(&mut self.buffer.ids, start) {
            self.certainly_true = true;
            return false;
        }
        let buffer = &self.buffer;
        let open = &buffer.ids[start..];
        let hash = hash_ids(0, open);
        if self
            .table
            .find(hash, |i| buffer.clause(i as usize) == open)
            .is_some()
        {
            self.buffer.ids.truncate(start);
        } else {
            let index = self.buffer.len() as u32;
            self.buffer.ends.push(self.buffer.ids.len() as u32);
            let buffer = &self.buffer;
            self.table
                .insert(index, hash, |i| hash_ids(0, buffer.clause(i as usize)));
        }
        true
    }

    /// The collected clauses: the constant `true` buffer when an empty
    /// clause arrived.
    pub(crate) fn finish(self) -> ClauseBuffer {
        if self.certainly_true {
            ClauseBuffer::constant_true()
        } else {
            self.buffer
        }
    }
}

/// How one head term keys an answer: a register, or a fixed code.
#[derive(Debug, Clone, Copy)]
enum HeadKey {
    Slot(u16),
    Code(u32),
}

/// The per-answer clause collector of a non-Boolean query (see the
/// [module documentation](self)), pooled with the executor's scratch.
/// [`AnswerCollector::start`] empties every table, so a run that stopped
/// early leaves nothing the next one reads.
#[derive(Debug, Default)]
pub(crate) struct AnswerCollector {
    /// Codes per answer key: the widest head of the query's disjuncts.
    width: usize,
    /// Each disjunct's head key, `width` terms each (narrower heads padded
    /// with [`UNBOUND`], which no decoded row holds).
    heads: Vec<HeadKey>,
    /// Head constants absent from the dictionary; the `k`-th keys as the
    /// code `k` past the dictionary's last.
    absent: Vec<Value>,
    /// Each answer's key, `width` codes each, in arrival order.
    keys: Vec<u32>,
    /// Answers by key.
    by_key: IndexTable,
    /// Each answer's row, decoded when it first appears.
    rows: Vec<Row>,
    /// Whether an answer's lineage is `true` (an empty clause arrived).
    certain: Vec<bool>,
    /// Every answer's clauses, in arrival order, each beside its answer.
    clauses: ClauseBuffer,
    owner: Vec<u32>,
    /// Clauses by answer and ids.
    by_clause: IndexTable,
    /// Finishing: answers in row order, where each answer's clauses end
    /// in `grouped`, and the clause indices grouped by answer.
    order: Vec<u32>,
    group_ends: Vec<u32>,
    grouped: Vec<u32>,
}

impl AnswerCollector {
    /// Empties the collector for a run of `plan` on `ucq`.
    fn start(&mut self, plan: &VecCompiledUcq, ucq: &Ucq, interner: &mv_pdb::ValueInterner) {
        self.width = ucq
            .disjuncts
            .iter()
            .map(|cq| cq.head.len())
            .max()
            .unwrap_or(0);
        self.heads.clear();
        self.absent.clear();
        for disjunct in plan.disjuncts() {
            for term in disjunct.head() {
                let key = match term {
                    HeadTerm::Slot(s) => HeadKey::Slot(*s),
                    HeadTerm::Const(v) => HeadKey::Code(interner.code_of(v).unwrap_or_else(|| {
                        let k = match self.absent.iter().position(|a| a == v) {
                            Some(k) => k,
                            None => {
                                self.absent.push(v.clone());
                                self.absent.len() - 1
                            }
                        };
                        (interner.len() + k) as u32
                    })),
                    // Decoding the first such answer panics, as it should.
                    HeadTerm::Unbound(_) => HeadKey::Code(UNBOUND),
                };
                self.heads.push(key);
            }
            let padded = self.heads.len().next_multiple_of(self.width.max(1));
            self.heads.resize(padded, HeadKey::Code(UNBOUND));
        }
        self.keys.clear();
        self.by_key.clear();
        self.rows.clear();
        self.certain.clear();
        self.clauses.clear();
        self.owner.clear();
        self.by_clause.clear();
    }

    /// Adds one match of disjunct `disjunct` (of `plan`): its answer, keyed
    /// by the head codes in `regs`, and its clause over `tuples`.
    fn add(
        &mut self,
        plan: &VecCompiledUcq,
        disjunct: usize,
        regs: &[u32],
        tuples: impl Iterator<Item = TupleId>,
        interner: &mv_pdb::ValueInterner,
    ) {
        let w = self.width;
        let start = self.keys.len();
        let head = &self.heads[disjunct * w..(disjunct + 1) * w];
        self.keys.extend(head.iter().map(|key| match *key {
            HeadKey::Slot(s) => regs[usize::from(s)],
            HeadKey::Code(c) => c,
        }));
        let keys = &self.keys;
        let key = &keys[start..];
        let hash = hash_codes(key);
        let found = self
            .by_key
            .find(hash, |a| &keys[a as usize * w..(a as usize + 1) * w] == key);
        let answer = match found {
            Some(a) => {
                self.keys.truncate(start);
                a
            }
            None => {
                let a = self.rows.len() as u32;
                self.rows
                    .push(plan.disjuncts()[disjunct].decode_head(regs, interner));
                self.certain.push(false);
                self.by_key.insert(a, hash, |b| {
                    hash_codes(&keys[b as usize * w..(b as usize + 1) * w])
                });
                a
            }
        };
        if self.certain[answer as usize] {
            // `true` absorbs every other clause of the answer.
            return;
        }

        let start = self.clauses.ids.len();
        self.clauses.ids.extend(tuples);
        if !normalize_tail(&mut self.clauses.ids, start) {
            self.certain[answer as usize] = true;
            return;
        }
        let (clauses, owner) = (&self.clauses, &self.owner);
        let open = &clauses.ids[start..];
        let hash = hash_ids(answer, open);
        let repeat = self.by_clause.find(hash, |c| {
            owner[c as usize] == answer && clauses.clause(c as usize) == open
        });
        if repeat.is_some() {
            self.clauses.ids.truncate(start);
        } else {
            let index = self.owner.len() as u32;
            self.clauses.ends.push(self.clauses.ids.len() as u32);
            self.owner.push(answer);
            let (clauses, owner) = (&self.clauses, &self.owner);
            self.by_clause.insert(index, hash, |c| {
                hash_ids(owner[c as usize], clauses.clause(c as usize))
            });
        }
    }

    /// The answers in row order, each with its clauses in the order they
    /// were first matched (one empty clause for a `true` lineage).
    fn finish(&mut self) -> AnswerClauses {
        let n = self.rows.len();
        let rows = &self.rows;
        self.order.clear();
        self.order.extend(0..n as u32);
        self.order
            .sort_unstable_by(|&a, &b| rows[a as usize].cmp(&rows[b as usize]));
        // Group the clauses by answer, keeping their order: a counting
        // sort, after which answer `a`'s clauses end at `group_ends[a]` in
        // `grouped`.
        self.group_ends.clear();
        self.group_ends.resize(n, 0);
        for &a in &self.owner {
            self.group_ends[a as usize] += 1;
        }
        let mut sum = 0;
        for count in &mut self.group_ends {
            sum += *count;
            *count = sum - *count;
        }
        self.grouped.clear();
        self.grouped.resize(self.owner.len(), 0);
        for (c, &a) in self.owner.iter().enumerate() {
            let at = &mut self.group_ends[a as usize];
            self.grouped[*at as usize] = c as u32;
            *at += 1;
        }

        let mut out = AnswerClauses {
            rows: Vec::with_capacity(n),
            ends: Vec::with_capacity(n),
            clauses: ClauseBuffer::with_capacity(self.clauses.len() + n, self.clauses.ids.len()),
        };
        for &a in &self.order {
            let a = a as usize;
            out.rows.push(std::mem::take(&mut self.rows[a]));
            if self.certain[a] {
                out.clauses.ends.push(out.clauses.ids.len() as u32);
            } else {
                let first = if a == 0 { 0 } else { self.group_ends[a - 1] };
                for &c in &self.grouped[first as usize..self.group_ends[a] as usize] {
                    out.clauses.push(self.clauses.clause(c as usize));
                }
            }
            out.ends.push(out.clauses.len() as u32);
        }
        self.rows.clear();
        out
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.heads)
            + vec_bytes(&self.absent)
            + vec_bytes(&self.keys)
            + self.by_key.heap_bytes()
            + vec_bytes(&self.rows)
            + vec_bytes(&self.certain)
            + self.clauses.heap_bytes()
            + vec_bytes(&self.owner)
            + self.by_clause.heap_bytes()
            + vec_bytes(&self.order)
            + vec_bytes(&self.group_ends)
            + vec_bytes(&self.grouped)
    }
}

/// The lineage collectors' working state, pooled with the executor's in an
/// [`ExecScratch`].
#[derive(Debug, Default)]
pub(crate) struct CollectScratch {
    /// The tuple-id column of each atom of the disjunct being run; empty
    /// between runs.
    tid_cols: Vec<&'static [u32]>,
    /// The Boolean collector's table.
    clauses: IndexTable,
    answers: AnswerCollector,
}

impl CollectScratch {
    pub(crate) fn heap_bytes(&self) -> usize {
        vec_bytes(&self.tid_cols) + self.clauses.heap_bytes() + self.answers.heap_bytes()
    }
}

/// The clauses of every answer of a non-Boolean query, flat: answer `i`'s
/// clauses are [`AnswerClauses::clauses`]`(i)`, a range of one buffer.
/// Answers come in row order — the order of the map
/// [`answer_lineages_with`] returns — and each answer's clauses in the
/// order they were first matched; a `true` lineage is one empty clause.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AnswerClauses {
    rows: Vec<Row>,
    /// Where each answer's clauses end, in clauses of `clauses`.
    ends: Vec<u32>,
    clauses: ClauseBuffer,
}

impl AnswerClauses {
    /// Number of answers.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// `true` when the query has no answer.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The clauses of answer `answer`.
    pub fn clauses(&self, answer: usize) -> ClauseSlice<'_> {
        let first = if answer == 0 {
            0
        } else {
            self.ends[answer - 1]
        } as usize;
        let ends = &self.clauses.ends[first..self.ends[answer] as usize];
        let base = if first == 0 {
            0
        } else {
            self.clauses.ends[first - 1]
        };
        let end = ends.last().copied().unwrap_or(base);
        ClauseSlice {
            base,
            ends,
            ids: &self.clauses.ids[base as usize..end as usize],
        }
    }

    /// Each answer's row with its clauses, in row order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&Row, ClauseSlice<'_>)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .map(|(i, row)| (row, self.clauses(i)))
    }

    /// The answers' rows, ascending, by value.
    pub fn into_rows(self) -> Vec<Row> {
        self.rows
    }

    /// Each answer's canonical [`Lineage`], keyed by its row.
    pub fn into_lineages(self) -> BTreeMap<Row, Lineage> {
        let lineages: Vec<Lineage> = (0..self.len())
            .map(|i| Lineage::from(self.clauses(i)))
            .collect();
        self.rows.into_iter().zip(lineages).collect()
    }
}

/// The lineage of a Boolean query: a disjunction of [`Clause`]s.
///
/// The formula `false` is the empty disjunction; the formula `true` is
/// represented by a single empty clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lineage {
    clauses: Vec<Clause>,
}

impl Lineage {
    /// The constant `false` lineage (no clauses).
    pub fn constant_false() -> Self {
        Lineage { clauses: vec![] }
    }

    /// The constant `true` lineage (one empty clause).
    pub fn constant_true() -> Self {
        Lineage {
            clauses: vec![vec![]],
        }
    }

    /// Builds a lineage from clauses, normalising each clause (sort + dedup)
    /// and removing duplicate clauses through the one clause collector. The
    /// surviving clauses are sorted once, so the result is canonical:
    /// lineages are equal iff their clause sets are.
    pub fn from_clauses(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut collector = ClauseCollector::new();
        for clause in clauses {
            collector.add(clause);
        }
        Lineage::from(&collector.finish())
    }

    /// Builds a lineage from clauses that are already individually sorted,
    /// deduplicated and pairwise distinct — any subset of an existing
    /// lineage's clauses (a shard's `W_s`, one block's group) inherits it.
    /// Only the final clause ordering remains; callers are on the hook for
    /// the per-clause invariants.
    pub fn from_distinct_clauses(mut clauses: Vec<Clause>) -> Self {
        debug_assert!(clauses.iter().all(|c| c.windows(2).all(|w| w[0] < w[1])));
        if clauses.iter().any(Vec::is_empty) {
            return Lineage::constant_true();
        }
        clauses.sort_unstable();
        Lineage { clauses }
    }

    /// The clauses of the DNF.
    pub fn clauses(&self) -> &[Clause] {
        &self.clauses
    }

    /// The clauses of the DNF, by value.
    pub fn into_clauses(self) -> Vec<Clause> {
        self.clauses
    }

    /// Number of clauses.
    pub fn num_clauses(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when the lineage is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.clauses.is_empty()
    }

    /// `true` when the lineage is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.clauses.iter().any(Vec::is_empty)
    }

    /// The distinct tuple variables mentioned by the lineage.
    pub fn variables(&self) -> std::collections::BTreeSet<TupleId> {
        self.clauses.iter().flatten().copied().collect()
    }

    /// Total number of literals across all clauses (the "lineage size"
    /// reported in Figure 4 of the paper is [`Lineage::variables`]`.len()`;
    /// this is the finer-grained count).
    pub fn num_literals(&self) -> usize {
        self.clauses.iter().map(Vec::len).sum()
    }

    /// The disjunction of two lineages (`Φ_{Q ∨ W} = Φ_Q ∨ Φ_W`).
    pub fn or(&self, other: &Lineage) -> Lineage {
        Lineage::from_clauses(self.clauses.iter().chain(other.clauses.iter()).cloned())
    }

    /// Removes absorbed clauses (clauses that are supersets of another
    /// clause). Quadratic; intended for modest lineages and tests.
    pub fn absorb(&self) -> Lineage {
        let mut kept: Vec<Clause> = Vec::new();
        // Shorter clauses absorb longer ones, so process by length.
        let mut sorted = self.clauses.clone();
        sorted.sort_by_key(Vec::len);
        'outer: for c in sorted {
            for k in &kept {
                if k.iter().all(|t| c.binary_search(t).is_ok()) {
                    continue 'outer;
                }
            }
            kept.push(c);
        }
        Lineage::from_clauses(kept)
    }

    /// Evaluates the lineage under a world mask (bit `i` = `TupleId(i)` true).
    pub fn eval(&self, mask: u64) -> bool {
        self.eval_with(|t| mask & (1u64 << t.0) != 0)
    }

    /// Evaluates the lineage under an arbitrary truth assignment.
    pub fn eval_with(&self, truth: impl Fn(TupleId) -> bool) -> bool {
        self.clauses.iter().any(|c| c.iter().all(|&t| truth(t)))
    }
}

impl From<ClauseSlice<'_>> for Lineage {
    /// The canonical lineage of flat clauses: one `Vec` per clause, sorted
    /// once.
    fn from(clauses: ClauseSlice<'_>) -> Self {
        if clauses.is_true() {
            return Lineage::constant_true();
        }
        Lineage::from_distinct_clauses(clauses.iter().map(<[TupleId]>::to_vec).collect())
    }
}

impl From<&ClauseBuffer> for Lineage {
    /// The canonical lineage of a buffer's clauses.
    fn from(buffer: &ClauseBuffer) -> Self {
        Lineage::from(buffer.as_slice())
    }
}

/// The probabilistic tuples of one match: its row per atom, through the
/// atoms' tuple-id columns.
fn tuples<'x>(tid_cols: &'x [&'x [u32]], rows: &'x [u32]) -> impl Iterator<Item = TupleId> + 'x {
    rows.iter().zip(tid_cols).filter_map(|(&row, col)| {
        let raw = col[row as usize];
        (raw != InDb::NO_TUPLE_ID).then_some(TupleId(raw))
    })
}

/// Runs every instance of `plan` on `ucq` in `scratch` under the context's
/// budget, handing `on_batch` each batch of complete matches with its
/// disjunct's position and the disjunct's tuple-id columns. A
/// [`ControlFlow::Break`] stops the run, the disjuncts not run yet
/// included.
fn collect(
    ucq: &Ucq,
    indb: &InDb,
    ctx: &EvalContext<'_>,
    plan: &VecCompiledUcq,
    scratch: &mut ExecScratch,
    mut on_batch: impl FnMut(usize, &MatchBatch, &[&[u32]]) -> ControlFlow<()>,
) -> Result<()> {
    let db = ctx.database();
    let budget = ctx.budget();
    let mut stats = ExecStats::default();
    let mut tid_cols: Vec<&[u32]> = recycle(std::mem::take(&mut scratch.collect.tid_cols));
    let mut run = Ok(());
    for (i, (disjunct, cq)) in plan.instances(ucq).enumerate() {
        tid_cols.clear();
        tid_cols.extend(
            disjunct
                .atom_rels()
                .iter()
                .map(|&rel| indb.tuple_id_column(rel)),
        );
        let flow = disjunct.for_each_batch_budgeted(
            db,
            scratch,
            &mut stats,
            cq,
            budget.as_ref(),
            |batch| on_batch(i, batch, &tid_cols),
        );
        match flow {
            Ok(None) => {}
            Ok(Some(())) => break,
            Err(e) => {
                run = Err(e.into());
                break;
            }
        }
    }
    scratch.collect.tid_cols = recycle(tid_cols);
    ctx.record_exec(stats);
    run
}

/// The clauses of a Boolean UCQ, collected flat through the vectorized
/// batch executor into one [`ClauseBuffer`] — the lineage of the exact
/// online path. Each clause is built in the buffer's tail from the dense
/// tuple-id columns of the [`InDb`] (an array load per matched atom, no
/// hash lookup), so a match costs no allocation; on the symmetric
/// self-joins of the MarkoView workloads roughly half the matches repeat a
/// clause and are dropped again. A match over deterministic tuples alone
/// stops the enumeration: the buffer is then the constant `true`.
pub fn clauses_with(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<ClauseBuffer> {
    for disjunct in &ucq.disjuncts {
        if !disjunct.is_boolean() {
            return Err(QueryError::NotBoolean(disjunct.name.to_string()));
        }
    }
    let plan = ctx.plan(ucq)?;
    ctx.with_scratch(|scratch| {
        let mut collector =
            ClauseCollector::with_table(std::mem::take(&mut scratch.collect.clauses));
        let run = collect(ucq, indb, ctx, &plan, scratch, |_, batch, tid_cols| {
            for entry in 0..batch.len() {
                if !collector.add(tuples(tid_cols, batch.atom_rows(entry))) {
                    // Φ is `true` and absorbs every other clause.
                    return ControlFlow::Break(());
                }
            }
            ControlFlow::Continue(())
        });
        scratch.collect.clauses = std::mem::take(&mut collector.table);
        run.map(|()| collector.finish())
    })
}

/// Computes the lineage of a Boolean UCQ over the tuple-independent database.
///
/// The query is evaluated against the instance of *possible* tuples
/// (`indb.database()`) through the vectorized executor; each satisfying
/// assignment contributes the clause of probabilistic tuples it matched.
pub fn lineage(ucq: &Ucq, indb: &InDb) -> Result<Lineage> {
    let ctx = EvalContext::new(indb.database());
    lineage_with(ucq, indb, &ctx)
}

/// Like [`lineage`] but reuses an [`EvalContext`] built on
/// `indb.database()` (plans are compiled once per context and reused):
/// [`clauses_with`], made canonical.
pub fn lineage_with(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<Lineage> {
    Ok(Lineage::from(&clauses_with(ucq, indb, ctx)?))
}

/// [`lineage`] through the legacy backtracking evaluator — the agreement
/// oracle for the vectorized executor.
pub fn lineage_legacy(ucq: &Ucq, indb: &InDb) -> Result<Lineage> {
    let ctx = EvalContext::new(indb.database());
    lineage_legacy_with(ucq, indb, &ctx)
}

/// [`lineage_with`] through the legacy backtracking evaluator.
pub fn lineage_legacy_with(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<Lineage> {
    let mut clauses: Vec<Clause> = Vec::new();
    for disjunct in &ucq.disjuncts {
        if !disjunct.is_boolean() {
            return Err(QueryError::NotBoolean(disjunct.name.to_string()));
        }
        for_each_match::<()>(disjunct, ctx, |_, matched| {
            let mut clause: Clause = matched
                .iter()
                .filter_map(|&(rel, row_index)| indb.tuple_id(rel, row_index))
                .collect();
            clause.sort();
            clause.dedup();
            clauses.push(clause);
            ControlFlow::Continue(())
        })?;
    }
    Ok(Lineage::from_clauses(clauses))
}

/// Computes, for every answer `ā` of a non-Boolean UCQ, the lineage of the
/// Boolean query `Q(ā)`. Answers are keyed by their head row.
pub fn answer_lineages(ucq: &Ucq, indb: &InDb) -> Result<BTreeMap<Row, Lineage>> {
    let ctx = EvalContext::new(indb.database());
    answer_lineages_with(ucq, indb, &ctx)
}

/// Like [`answer_lineages`] but reuses an [`EvalContext`] built on
/// `indb.database()` — the `mv-core` backends hold one per evaluation
/// context so the per-answer loop compiles each workload query only once.
/// [`answer_clauses_with`], each answer's clauses made canonical.
pub fn answer_lineages_with(
    ucq: &Ucq,
    indb: &InDb,
    ctx: &EvalContext<'_>,
) -> Result<BTreeMap<Row, Lineage>> {
    Ok(answer_clauses_with(ucq, indb, ctx)?.into_lineages())
}

/// The per-answer clauses of a (non-Boolean) UCQ, collected flat through
/// the vectorized executor by one collector for the whole query: each
/// answer's head code tuple is looked up in an open-addressed table, its
/// row decoded once, and each match's clause deduplicated per answer in
/// one id buffer. A match over deterministic tuples alone makes its
/// answer's lineage `true`.
pub fn answer_clauses_with(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<AnswerClauses> {
    let plan = ctx.plan(ucq)?;
    let interner = ctx.database().interner();
    ctx.with_scratch(|scratch| {
        let mut collector = std::mem::take(&mut scratch.collect.answers);
        collector.start(&plan, ucq, interner);
        let run = collect(
            ucq,
            indb,
            ctx,
            &plan,
            scratch,
            |disjunct, batch, tid_cols| {
                for entry in 0..batch.len() {
                    let tuples = tuples(tid_cols, batch.atom_rows(entry));
                    collector.add(&plan, disjunct, batch.regs(entry), tuples, interner);
                }
                ControlFlow::Continue(())
            },
        );
        let answers = run.map(|()| collector.finish());
        scratch.collect.answers = collector;
        answers
    })
}

/// [`answer_lineages`] through the legacy backtracking evaluator (oracle).
pub fn answer_lineages_legacy(ucq: &Ucq, indb: &InDb) -> Result<BTreeMap<Row, Lineage>> {
    let ctx = EvalContext::new(indb.database());
    let mut per_answer: BTreeMap<Row, Vec<Clause>> = BTreeMap::new();
    for disjunct in &ucq.disjuncts {
        for_each_match::<()>(disjunct, &ctx, |bindings, matched| {
            let row: Row = disjunct
                .head
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => bindings[v].clone(),
                })
                .collect();
            let mut clause: Clause = matched
                .iter()
                .filter_map(|&(rel, row_index)| indb.tuple_id(rel, row_index))
                .collect();
            clause.sort();
            clause.dedup();
            per_answer.entry(row).or_default().push(clause);
            ControlFlow::Continue(())
        })?;
    }
    Ok(per_answer
        .into_iter()
        .map(|(row, clauses)| (row, Lineage::from_clauses(clauses)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ucq;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};

    /// The database of Figure 3: R = {a1, a2}, S = {(a1,b1), (a1,b2), (a2,b3), (a2,b4)}.
    fn fig3() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        b.insert_weighted(r, row(["a1"]), Weight::ONE).unwrap();
        b.insert_weighted(r, row(["a2"]), Weight::ONE).unwrap();
        b.insert_weighted(s, row(["a1", "b1"]), Weight::ONE)
            .unwrap();
        b.insert_weighted(s, row(["a1", "b2"]), Weight::ONE)
            .unwrap();
        b.insert_weighted(s, row(["a2", "b3"]), Weight::ONE)
            .unwrap();
        b.insert_weighted(s, row(["a2", "b4"]), Weight::ONE)
            .unwrap();
        b.build()
    }

    #[test]
    fn figure3_lineage_has_four_clauses() {
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        assert_eq!(lin.num_clauses(), 4);
        assert_eq!(lin.variables().len(), 6);
        assert_eq!(lin.num_literals(), 8);
        // X1Y1 ∨ X1Y2 ∨ X2Y3 ∨ X2Y4 with ids 0..=5.
        let expected = Lineage::from_clauses(vec![
            vec![TupleId(0), TupleId(2)],
            vec![TupleId(0), TupleId(3)],
            vec![TupleId(1), TupleId(4)],
            vec![TupleId(1), TupleId(5)],
        ]);
        assert_eq!(lin, expected);
        // The legacy oracle computes the identical canonical lineage.
        assert_eq!(lineage_legacy(&q, &indb).unwrap(), lin);
    }

    #[test]
    fn deterministic_tuples_do_not_appear_in_lineage() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["a"]).unwrap();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        b.insert_fact(d, row(["a"])).unwrap();
        b.insert_weighted(r, row(["a"]), Weight::ONE).unwrap();
        let indb = b.build();
        let q = parse_ucq("Q() :- D(x), R(x)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        assert_eq!(lin.clauses(), &[vec![TupleId(0)]]);
    }

    #[test]
    fn query_satisfied_by_deterministic_tuples_alone_has_true_lineage() {
        let mut b = InDbBuilder::new();
        let d = b.deterministic_relation("D", &["a"]).unwrap();
        b.insert_fact(d, row(["a"])).unwrap();
        let indb = b.build();
        let q = parse_ucq("Q() :- D(x)").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        assert!(lin.is_true());
        assert_eq!(lineage_legacy(&q, &indb).unwrap(), lin);
    }

    #[test]
    fn unsatisfiable_query_has_false_lineage() {
        let indb = fig3();
        let q = parse_ucq("Q() :- R(x), S(x, y), y like '%zzz%'").unwrap();
        let lin = lineage(&q, &indb).unwrap();
        assert!(lin.is_false());
        assert_eq!(lin.num_clauses(), 0);
    }

    #[test]
    fn union_lineage_is_union_of_clauses() {
        let indb = fig3();
        let q1 = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        let q2 = parse_ucq("Q() :- S(x, y)").unwrap();
        let l1 = lineage(&q1, &indb).unwrap();
        let l2 = lineage(&q2, &indb).unwrap();
        let l12 = lineage(&q1.union(&q2), &indb).unwrap();
        assert_eq!(l12, l1.or(&l2));
    }

    #[test]
    fn absorption_removes_subsumed_clauses() {
        let l = Lineage::from_clauses(vec![
            vec![TupleId(0)],
            vec![TupleId(0), TupleId(1)],
            vec![TupleId(2), TupleId(3)],
        ]);
        let a = l.absorb();
        assert_eq!(a.num_clauses(), 2);
        assert!(a.clauses().contains(&vec![TupleId(0)]));
        assert!(a.clauses().contains(&vec![TupleId(2), TupleId(3)]));
    }

    #[test]
    fn eval_respects_masks() {
        let l = Lineage::from_clauses(vec![vec![TupleId(0), TupleId(1)], vec![TupleId(2)]]);
        assert!(l.eval(0b011));
        assert!(l.eval(0b100));
        assert!(!l.eval(0b001));
        assert!(!l.eval(0b000));
    }

    #[test]
    fn answer_lineages_group_by_head_tuple() {
        let indb = fig3();
        let q = parse_ucq("Q(x) :- R(x), S(x, y)").unwrap();
        let per_answer = answer_lineages(&q, &indb).unwrap();
        assert_eq!(per_answer.len(), 2);
        let l_a1 = &per_answer[&row(["a1"])];
        assert_eq!(l_a1.num_clauses(), 2);
        assert!(l_a1.variables().contains(&TupleId(0)));
        assert!(!l_a1.variables().contains(&TupleId(1)));
        // Exact agreement with the legacy oracle, per answer.
        assert_eq!(answer_lineages_legacy(&q, &indb).unwrap(), per_answer);
    }

    #[test]
    fn the_collector_keeps_each_clause_once_in_first_seen_order() {
        let ids = |v: &[u32]| v.iter().map(|&t| TupleId(t)).collect::<Vec<_>>();
        let mut collector = ClauseCollector::new();
        // Past the table's first doublings, every clause arriving twice:
        // once unsorted with a repeated tuple, once sorted.
        for i in 0..300u32 {
            assert!(collector.add(ids(&[i + 7, i, i + 7])));
        }
        for i in 0..300u32 {
            assert!(collector.add(ids(&[i, i + 7])));
        }
        let buffer = collector.finish();
        assert_eq!(buffer.len(), 300);
        assert_eq!(buffer.ids().len(), 600);
        assert!(buffer
            .iter()
            .enumerate()
            .all(|(i, c)| c == ids(&[i as u32, i as u32 + 7])));
        let lineage = Lineage::from(&buffer);
        assert_eq!(ClauseBuffer::from(&lineage), buffer, "already canonical");
        assert_eq!(
            lineage,
            Lineage::from_clauses((0..300u32).rev().map(|i| ids(&[i + 7, i])))
        );

        // An empty clause makes the buffer the constant `true`.
        let mut collector = ClauseCollector::new();
        assert!(collector.add(ids(&[3])));
        assert!(!collector.add(ids(&[])));
        let buffer = collector.finish();
        assert!(buffer.is_true() && !buffer.is_empty());
        assert_eq!(buffer, ClauseBuffer::constant_true());
        assert!(Lineage::from(&buffer).is_true());
        assert!(ClauseCollector::new().finish().is_empty());
    }

    #[test]
    fn constants_true_false_behave() {
        assert!(Lineage::constant_true().is_true());
        assert!(Lineage::constant_false().is_false());
        assert!(Lineage::from_clauses(vec![vec![], vec![TupleId(0)]]).is_true());
        // true has exactly one (empty) clause after normalisation
        assert_eq!(
            Lineage::from_clauses(vec![vec![], vec![TupleId(0)]]).num_clauses(),
            1
        );
    }
}
