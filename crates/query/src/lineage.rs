//! Lineage (Boolean provenance) of queries over tuple-independent databases.
//!
//! The lineage `Φ_Q` of a Boolean query `Q` is a positive Boolean formula in
//! DNF over the Boolean variables `X_t` of the probabilistic tuples
//! (Section 2.1 / Figure 3): each satisfying assignment of the query body
//! contributes one clause containing the probabilistic tuples it used;
//! deterministic tuples contribute nothing (they are always present).
//!
//! Two containers hold a lineage:
//!
//! * a [`ClauseBuffer`] — every clause's ids in one flat `ids` vector, cut
//!   by an `ends` vector of offsets. It is what the exact online path
//!   carries from the vectorized executor through shard routing
//!   ([`crate::Partition::route_clauses`]) into the query kernel's fold:
//!   [`clauses_with`] fills one without a heap allocation per clause;
//! * a [`Lineage`] — one sorted `Vec` per clause, in canonical order. It is
//!   the public and oracle type: equality is set equality, and the
//!   backends other than the MV-index, the answers path and the harnesses
//!   read it. [`lineage_with`] is the buffer turned into one.
//!
//! A Boolean query's clauses go through one clause collector,
//! `ClauseCollector`: each clause is appended to the buffer's tail, sorted
//! there, and dropped again when it repeats an earlier one — found through
//! an open-addressed table of clause indices hashed over the ids, which
//! holds no clause of its own. The per-answer lineages of a non-Boolean
//! query ([`answer_lineages_with`]) are `Lineage`s from the start: each
//! answer's clauses are deduplicated through a hash set of its own. The
//! legacy backtracking evaluator remains reachable through
//! [`lineage_legacy_with`] as the agreement-test oracle.

use std::collections::BTreeMap;
use std::hash::Hasher;
use std::ops::ControlFlow;

use fxhash::{FxHashSet, FxHasher};
use mv_pdb::{InDb, Row, TupleId};

use crate::ast::{Term, Ucq};
use crate::error::QueryError;
use crate::eval::{for_each_match, EvalContext};
use crate::vec_exec::ExecStats;
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
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let clause = &self.ids[start as usize..end as usize];
            start = end;
            clause
        })
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

/// FxHash of a clause's ids.
fn hash_ids(ids: &[TupleId]) -> u64 {
    let mut hasher = FxHasher::default();
    for t in ids {
        hasher.write_u32(t.0);
    }
    hasher.finish()
}

/// The one clause collector: appends each clause to a [`ClauseBuffer`] and
/// drops repeats. Its table holds clause indices, at most half full and
/// probed linearly from the high bits of the clause's hash; a probe
/// compares the candidate clause's ids in the buffer.
#[derive(Debug, Default)]
pub(crate) struct ClauseCollector {
    buffer: ClauseBuffer,
    /// Clause indices, [`ClauseCollector::EMPTY`] in a free slot. The
    /// length is a power of two, or zero before the first clause.
    slots: Vec<u32>,
    /// An empty clause arrived: the lineage is `true`.
    certainly_true: bool,
}

impl ClauseCollector {
    const EMPTY: u32 = u32::MAX;
    const MIN_SLOTS: usize = 16;

    pub(crate) fn new() -> Self {
        ClauseCollector::default()
    }

    /// Adds the clause over `tuples` (in any order, repeats allowed): it is
    /// sorted and deduplicated in the buffer's tail and kept only when the
    /// buffer does not hold it yet. Returns `false` for an empty clause —
    /// the lineage is then `true` and the caller may stop.
    pub(crate) fn add(&mut self, tuples: impl IntoIterator<Item = TupleId>) -> bool {
        let ids = &mut self.buffer.ids;
        let start = ids.len();
        ids.extend(tuples);
        ids[start..].sort_unstable();
        let mut kept = start;
        for read in start..ids.len() {
            if kept == start || ids[read] != ids[kept - 1] {
                ids[kept] = ids[read];
                kept += 1;
            }
        }
        ids.truncate(kept);
        if kept == start {
            self.certainly_true = true;
            return false;
        }
        let hash = hash_ids(&ids[start..]);
        if self.contains(hash, start) {
            self.buffer.ids.truncate(start);
        } else {
            self.insert(hash);
            self.buffer.ends.push(kept as u32);
        }
        true
    }

    /// The first slot probed for `hash`: its high bits, which Fx's final
    /// multiply mixes best.
    fn home(&self, hash: u64) -> usize {
        (hash >> (64 - self.slots.len().trailing_zeros())) as usize
    }

    /// Whether the buffer holds a clause equal to the open one (the ids
    /// from `start` on).
    fn contains(&self, hash: u64, start: usize) -> bool {
        if self.slots.is_empty() {
            return false;
        }
        let open = &self.buffer.ids[start..];
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        loop {
            match self.slots[slot] {
                ClauseCollector::EMPTY => return false,
                i if self.buffer.clause(i as usize) == open => return true,
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Records the open clause as the next clause index under `hash`, first
    /// doubling the table if that would fill more than half of it.
    fn insert(&mut self, hash: u64) {
        let clause = self.buffer.len();
        if (clause + 1) * 2 > self.slots.len() {
            let size = (self.slots.len() * 2).max(ClauseCollector::MIN_SLOTS);
            self.slots.clear();
            self.slots.resize(size, ClauseCollector::EMPTY);
            for earlier in 0..clause {
                self.place(earlier, hash_ids(self.buffer.clause(earlier)));
            }
        }
        self.place(clause, hash);
    }

    fn place(&mut self, clause: usize, hash: u64) {
        let mask = self.slots.len() - 1;
        let mut slot = self.home(hash);
        while self.slots[slot] != ClauseCollector::EMPTY {
            slot = (slot + 1) & mask;
        }
        self.slots[slot] = clause as u32;
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

impl From<&ClauseBuffer> for Lineage {
    /// The canonical lineage of a buffer's clauses: one `Vec` per clause,
    /// sorted once.
    fn from(buffer: &ClauseBuffer) -> Self {
        if buffer.is_true() {
            return Lineage::constant_true();
        }
        Lineage::from_distinct_clauses(buffer.iter().map(<[TupleId]>::to_vec).collect())
    }
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
            return Err(QueryError::NotBoolean(disjunct.name.clone()));
        }
    }
    let plan = ctx.compile_vec(ucq)?;
    let db = ctx.database();
    let budget = ctx.budget();
    let mut stats = ExecStats::default();
    let mut collector = ClauseCollector::new();
    for (disjunct, params) in plan.instances(ucq, db.interner()) {
        let tid_cols: Vec<&[u32]> = disjunct
            .atom_rels()
            .iter()
            .map(|&rel| indb.tuple_id_column(rel))
            .collect();
        let run =
            disjunct.for_each_batch_budgeted(db, &mut stats, &params, budget.as_ref(), |batch| {
                for entry in 0..batch.len() {
                    let rows = batch.atom_rows(entry).iter().enumerate();
                    let tuples = rows.filter_map(|(atom, &row)| {
                        let raw = tid_cols[atom][row as usize];
                        (raw != InDb::NO_TUPLE_ID).then_some(TupleId(raw))
                    });
                    if !collector.add(tuples) {
                        // Φ is `true` and absorbs every other clause.
                        return ControlFlow::Break(());
                    }
                }
                ControlFlow::Continue(())
            });
        match run {
            Ok(None) => {}
            Ok(Some(())) => break,
            Err(e) => {
                ctx.record_exec(stats);
                return Err(e.into());
            }
        }
    }
    ctx.record_exec(stats);
    Ok(collector.finish())
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
            return Err(QueryError::NotBoolean(disjunct.name.clone()));
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
pub fn answer_lineages_with(
    ucq: &Ucq,
    indb: &InDb,
    ctx: &EvalContext<'_>,
) -> Result<BTreeMap<Row, Lineage>> {
    let plan = ctx.compile_vec(ucq)?;
    let db = ctx.database();
    let interner = db.interner();
    let budget = ctx.budget();
    let mut stats = ExecStats::default();
    let mut per_answer: BTreeMap<Row, FxHashSet<Clause>> = BTreeMap::new();
    let mut buf: Clause = Vec::new();
    for (disjunct, params) in plan.instances(ucq, interner) {
        let tid_cols: Vec<&[u32]> = disjunct
            .atom_rels()
            .iter()
            .map(|&rel| indb.tuple_id_column(rel))
            .collect();
        let run = disjunct.for_each_batch_budgeted::<()>(
            db,
            &mut stats,
            &params,
            budget.as_ref(),
            |batch| {
                for entry in 0..batch.len() {
                    let row = disjunct.decode_head(batch.regs(entry), interner);
                    buf.clear();
                    for (atom, &matched_row) in batch.atom_rows(entry).iter().enumerate() {
                        let raw = tid_cols[atom][matched_row as usize];
                        if raw != InDb::NO_TUPLE_ID {
                            buf.push(TupleId(raw));
                        }
                    }
                    buf.sort_unstable();
                    buf.dedup();
                    let clauses = per_answer.entry(row).or_default();
                    if !clauses.contains(buf.as_slice()) {
                        clauses.insert(buf.clone());
                    }
                }
                ControlFlow::Continue(())
            },
        );
        if let Err(e) = run {
            ctx.record_exec(stats);
            return Err(e.into());
        }
    }
    ctx.record_exec(stats);
    Ok(per_answer
        .into_iter()
        .map(|(row, clauses)| {
            let lineage = Lineage::from_distinct_clauses(clauses.into_iter().collect());
            (row, lineage)
        })
        .collect())
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
