//! Lineage (Boolean provenance) of queries over tuple-independent databases.
//!
//! The lineage `Φ_Q` of a Boolean query `Q` is a positive Boolean formula in
//! DNF over the Boolean variables `X_t` of the probabilistic tuples
//! (Section 2.1 / Figure 3): each satisfying assignment of the query body
//! contributes one clause containing the probabilistic tuples it used;
//! deterministic tuples contribute nothing (they are always present).
//!
//! Clause collection runs through the vectorized executor of
//! [`crate::vec_exec`], with hash-based duplicate elimination (each clause
//! is sorted, then deduplicated through an `FxHashSet`) instead of a
//! `BTreeSet` — the clause set is only ordered once, at the end, to keep the
//! canonical sorted form. The legacy backtracking evaluator remains
//! reachable through [`lineage_legacy_with`] as the agreement-test oracle.

use std::collections::BTreeMap;
use std::ops::ControlFlow;

use fxhash::FxHashSet;
use mv_pdb::{InDb, Row, TupleId};

use crate::ast::{Term, Ucq};
use crate::error::QueryError;
use crate::eval::{for_each_match, EvalContext};
use crate::vec_exec::ExecStats;
use crate::Result;

/// One clause of a DNF lineage: a conjunction of tuple variables, kept sorted
/// and duplicate-free.
pub type Clause = Vec<TupleId>;

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
    /// and removing duplicate clauses through hash-based deduplication. The
    /// surviving clauses are sorted once, so the result is canonical:
    /// lineages are equal iff their clause sets are.
    pub fn from_clauses(clauses: impl IntoIterator<Item = Clause>) -> Self {
        let mut set: FxHashSet<Clause> = FxHashSet::default();
        for mut c in clauses {
            c.sort_unstable();
            c.dedup();
            set.insert(c);
        }
        // `true` absorbs everything.
        if set.contains(&Vec::new()) {
            return Lineage::constant_true();
        }
        let mut clauses: Vec<Clause> = set.into_iter().collect();
        clauses.sort_unstable();
        Lineage { clauses }
    }

    /// Builds a lineage from clauses that are already individually sorted,
    /// deduplicated and pairwise distinct — clause collection maintains
    /// this while collecting, and any subset of an existing lineage's
    /// clauses (a routed clause group, a shard's `W_s`) inherits it. Only
    /// the final clause ordering remains; callers are on the hook for the
    /// per-clause invariants.
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

/// Collects the clauses of one Boolean UCQ through the vectorized batch
/// executor, deduplicating as it goes. Returns `None` when an empty clause
/// was found (the lineage is certainly `true`, so enumeration stopped
/// early).
///
/// The per-batch loop builds each clause in a reusable buffer from the
/// dense tuple-id columns of the [`InDb`] (an array load per matched atom,
/// no hash lookup) and only clones the buffer into the set when the clause
/// is new — on the symmetric self-joins of the MarkoView workloads roughly
/// half the matches produce a clause already seen.
fn collect_clauses(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<Option<Vec<Clause>>> {
    for disjunct in &ucq.disjuncts {
        if !disjunct.is_boolean() {
            return Err(QueryError::NotBoolean(disjunct.name.clone()));
        }
    }
    let plan = ctx.compile_vec(ucq)?;
    let db = ctx.database();
    let budget = ctx.budget();
    let mut stats = ExecStats::default();
    // The set is the only store: clauses are moved in (duplicates are
    // dropped without ever being cloned) and moved out at the end.
    let mut seen: FxHashSet<Clause> = FxHashSet::default();
    let mut buf: Clause = Vec::new();
    for (disjunct, params) in plan.instances(ucq, db.interner()) {
        let tid_cols: Vec<&[u32]> = disjunct
            .atom_rels()
            .iter()
            .map(|&rel| indb.tuple_id_column(rel))
            .collect();
        let certainly_true =
            disjunct.for_each_batch_budgeted(db, &mut stats, &params, budget.as_ref(), |batch| {
                for entry in 0..batch.len() {
                    buf.clear();
                    for (atom, &row) in batch.atom_rows(entry).iter().enumerate() {
                        let raw = tid_cols[atom][row as usize];
                        if raw != InDb::NO_TUPLE_ID {
                            buf.push(TupleId(raw));
                        }
                    }
                    buf.sort_unstable();
                    buf.dedup();
                    if buf.is_empty() {
                        // A match over deterministic tuples alone: Φ is `true`
                        // and absorbs every other clause — stop enumerating.
                        return ControlFlow::Break(());
                    }
                    if !seen.contains(buf.as_slice()) {
                        seen.insert(buf.clone());
                    }
                }
                ControlFlow::Continue(())
            });
        let certainly_true = match certainly_true {
            Ok(b) => b,
            Err(e) => {
                ctx.record_exec(stats);
                return Err(e.into());
            }
        };
        if certainly_true.is_some() {
            ctx.record_exec(stats);
            return Ok(None);
        }
    }
    ctx.record_exec(stats);
    Ok(Some(seen.into_iter().collect()))
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
/// `indb.database()` (plans are compiled once per context and reused).
pub fn lineage_with(ucq: &Ucq, indb: &InDb, ctx: &EvalContext<'_>) -> Result<Lineage> {
    Ok(match collect_clauses(ucq, indb, ctx)? {
        None => Lineage::constant_true(),
        Some(clauses) => Lineage::from_distinct_clauses(clauses),
    })
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
