//! Evaluation of (unions of) conjunctive queries over deterministic databases.
//!
//! This module plays the role Postgres plays in the paper: it computes the
//! set of answers of a UCQ over a database instance, and — through the
//! match enumeration driving [`crate::lineage`] — the satisfying
//! assignments that become Boolean provenance.
//!
//! One executor and one oracle live here:
//!
//! * the **vectorized** executor ([`crate::vec_exec`]): [`EvalContext::compile_vec`]
//!   compiles a query once into slot-based plans over the
//!   dictionary-encoded columnar store ([`crate::plan`]) and lowers them to
//!   batch plans; every production entry point ([`evaluate_ucq`],
//!   [`evaluate_boolean`], the lineage functions) runs those;
//! * the **legacy** backtracking evaluator ([`for_each_match`]): `String`
//!   → [`Value`] bindings, `Value`-keyed hash indexes, recursive search.
//!   It shares only the join order with the executor and is retained as
//!   the independently-implemented oracle the agreement tests compare
//!   against (the role `RefManager` plays for the OBDD manager).
//!
//! A plan is a *template*: it is compiled once per query shape, with the
//! atom constants as parameters ([`crate::template`]), so every point query
//! of one shape runs the same plan. The templates a store snapshot has
//! compiled live in its [`PlanCache`], which every context over the
//! snapshot can share ([`EvalContext::with_plan_cache`] — the `mv-core`
//! contexts all do); each context keeps the templates it resolved in a map
//! of its own in front of it, so a hit takes no lock. A context made with
//! [`EvalContext::new`] has only that map. The CSR and pair indexes and
//! distinct counts the plans probe belong to the snapshot's
//! [`mv_pdb::Relation`] instances: built once per instance, shared by every
//! context — a fresh context is ~free.

use std::cell::{Cell, RefCell};
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

use fxhash::FxHashMap;
use mv_pdb::{Database, RelId, Row, Value};

use crate::ast::{Atom, ConjunctiveQuery, Term, Ucq};
use crate::error::QueryError;
use crate::plan::PlanStats;
use crate::template::{shape_hash, PlanCache, Templates};
use crate::vec_exec::{ExecStats, VecCompiledUcq};
use crate::Result;

/// One answer of a non-Boolean query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Answer {
    /// The head tuple.
    pub row: Row,
}

/// A variable binding environment of the legacy evaluator (FxHash-keyed;
/// compiled plans replace this with a register file of codes).
pub type Bindings = FxHashMap<String, Value>;

/// One `Value`-keyed column index of the legacy evaluator
/// (`value → row positions`).
type LegacyIndex = FxHashMap<Value, Vec<usize>>;

/// Lazily built legacy indexes: `(relation, column) → index`. Each index
/// sits behind an `Rc` so a search can hold cheap handles to the indexes
/// it probes without keeping the cache's `RefCell` borrowed — reentrant
/// evaluation through the same context (an `on_match` callback issuing
/// another query) stays safe.
type ColumnIndexes = FxHashMap<(RelId, usize), Rc<LegacyIndex>>;

/// Evaluation context over one immutable database snapshot: the templates
/// it resolved, plus the `Value`-keyed hash indexes of the legacy oracle.
///
/// A context borrows its snapshot — and the snapshot's [`PlanCache`], if it
/// shares one — for its whole life, so a plan, which bakes in `Arc`s of the
/// snapshot's access paths, can never meet a different store version; to
/// query a newer snapshot, make a new context.
pub struct EvalContext<'a> {
    db: &'a Database,
    /// The snapshot's shared templates, if this context uses them.
    shared: Option<&'a PlanCache>,
    /// Legacy-path indexes (`Value`-keyed).
    indexes: RefCell<ColumnIndexes>,
    /// The templates this context resolved.
    plans: RefCell<Templates>,
    /// Executor counters accumulated across every vectorized run.
    exec: Cell<ExecStats>,
    /// Cooperative budget consulted at batch boundaries by the lineage and
    /// evaluation drivers (`None` = unlimited).
    budget: RefCell<Option<crate::budget::EvalBudget>>,
}

impl<'a> EvalContext<'a> {
    /// Creates a context for the given database, with a template map of
    /// its own and no shared cache.
    pub fn new(db: &'a Database) -> Self {
        EvalContext {
            db,
            shared: None,
            indexes: RefCell::new(FxHashMap::default()),
            plans: RefCell::new(Templates::default()),
            exec: Cell::new(ExecStats::default()),
            budget: RefCell::new(None),
        }
    }

    /// Creates a context that resolves templates through `cache`, the
    /// snapshot's shared cache: a template any context compiled is compiled
    /// once.
    ///
    /// # Panics
    ///
    /// When `cache` was made for a different store version than `db`.
    pub fn with_plan_cache(db: &'a Database, cache: &'a PlanCache) -> Self {
        assert_eq!(
            cache.version(),
            db.version(),
            "a plan cache serves only the store version it was made for"
        );
        EvalContext {
            shared: Some(cache),
            ..EvalContext::new(db)
        }
    }

    /// Installs (or clears) the cooperative budget every subsequent
    /// evaluation through this context polls at batch boundaries. Budgets
    /// are per-query in session use: workers re-install a fresh budget
    /// before each query.
    pub fn set_budget(&self, budget: Option<crate::budget::EvalBudget>) {
        *self.budget.borrow_mut() = budget;
    }

    /// The currently installed budget, if any (cheap clone of the shared
    /// handle).
    pub fn budget(&self) -> Option<crate::budget::EvalBudget> {
        self.budget.borrow().clone()
    }

    /// The underlying database.
    pub fn database(&self) -> &'a Database {
        self.db
    }

    /// The template `ucq` is an instance of: from this context's map, else
    /// from the shared cache, else compiled (and kept in both). Run it on
    /// `ucq` through [`VecCompiledUcq::instances`].
    pub fn compile_vec(&self, ucq: &Ucq) -> Result<Arc<VecCompiledUcq>> {
        let hash = shape_hash(ucq);
        if let Some(plan) = self.plans.borrow().get(hash, ucq) {
            return Ok(Arc::clone(plan));
        }
        let plan = match self.shared.and_then(|cache| cache.get(hash, ucq)) {
            Some(plan) => plan,
            None => {
                let plan = Arc::new(VecCompiledUcq::compile(ucq, self.db)?);
                match self.shared {
                    Some(cache) => cache.insert(hash, plan),
                    None => plan,
                }
            }
        };
        self.plans.borrow_mut().insert(hash, Arc::clone(&plan));
        Ok(plan)
    }

    /// Number of distinct templates this context has resolved.
    pub fn compiled_plans(&self) -> usize {
        self.plans.borrow().len()
    }

    /// Aggregate shape statistics over the templates this context has
    /// resolved (each counted once, however many instances ran it).
    pub fn plan_stats(&self) -> PlanStats {
        self.plans.borrow().stats()
    }

    /// Executor counters accumulated across every vectorized run on this
    /// context (blocks scanned, CSR probes, batches).
    pub fn exec_stats(&self) -> ExecStats {
        self.exec.get()
    }

    /// Folds one run's counters into the context totals.
    pub(crate) fn record_exec(&self, stats: ExecStats) {
        self.exec.set(self.exec.get() + stats);
    }

    /// The legacy `Value`-keyed index of `(rel, column)`, built on first
    /// use. The `RefCell` is only borrowed transiently — the returned
    /// handle owns the index for as long as a search needs it.
    fn legacy_index(&self, rel: RelId, column: usize) -> Rc<LegacyIndex> {
        if let Some(index) = self.indexes.borrow().get(&(rel, column)) {
            return Rc::clone(index);
        }
        let mut index: LegacyIndex = FxHashMap::default();
        for (i, row) in self.db.relation(rel).iter() {
            index.entry(row[column].clone()).or_default().push(i);
        }
        let index = Rc::new(index);
        self.indexes
            .borrow_mut()
            .insert((rel, column), Rc::clone(&index));
        index
    }
}

/// Resolves the relation of an atom and checks its arity.
pub(crate) fn resolve_atom(db: &Database, atom: &Atom) -> Result<RelId> {
    let rel = db
        .schema()
        .relation_id(&atom.relation)
        .ok_or_else(|| QueryError::UnknownRelation(atom.relation.clone()))?;
    let arity = db.schema().relation(rel).arity();
    if atom.terms.len() != arity {
        return Err(QueryError::ArityMismatch {
            relation: atom.relation.clone(),
            expected: arity,
            actual: atom.terms.len(),
        });
    }
    Ok(rel)
}

/// One step of the static join order: which atom to match next, and which
/// column (if any) to probe through a hash index.
pub(crate) struct JoinStep {
    /// Atom position in the original query.
    pub(crate) atom: usize,
    /// Column probed through a hash index, or `None` for a full scan.
    pub(crate) probe: Option<usize>,
}

/// Computes the join order both evaluators execute: greedy
/// most-bound-terms-first, probing the first bound column of each chosen
/// atom. Among atoms with equally many bound terms, one that grounds a
/// comparison (all of the comparison's variables are bound once the atom
/// is) goes first — the filter then prunes before the other atoms fan out,
/// and a selection such as `n like '%f00%'` starts from the filtered atom
/// instead of scanning whichever atom was written first; remaining ties go
/// to the original position. The choice depends only on which atoms have
/// been processed (never on the values bound), so fixing it up front is
/// exact — and sharing this one function between the legacy evaluator and
/// the plan compiler makes their enumeration orders identical by
/// construction, not by parallel maintenance.
pub(crate) fn static_join_order(cq: &ConjunctiveQuery) -> Vec<JoinStep> {
    let n = cq.atoms.len();
    let mut used = vec![false; n];
    let mut bound: std::collections::HashSet<&str> = std::collections::HashSet::new();
    let mut order = Vec::with_capacity(n);
    for _ in 0..n {
        // (atom, bound terms, grounds a comparison)
        let mut best: Option<(usize, usize, bool)> = None;
        for (i, atom) in cq.atoms.iter().enumerate() {
            if used[i] {
                continue;
            }
            let count = atom
                .terms
                .iter()
                .filter(|t| match t {
                    Term::Const(_) => true,
                    Term::Var(v) => bound.contains(v.as_str()),
                })
                .count();
            let filters = cq.comparisons.iter().any(|cmp| {
                let grounded = |v: &str| bound.contains(v) || atom.variables().any(|a| a == v);
                cmp.variables().any(|v| !bound.contains(v)) && cmp.variables().all(grounded)
            });
            if best
                .map(|(_, c, f)| (count, filters) > (c, f))
                .unwrap_or(true)
            {
                best = Some((i, count, filters));
            }
        }
        let (atom_idx, ..) = best.expect("there is at least one unused atom");
        used[atom_idx] = true;
        let atom = &cq.atoms[atom_idx];
        let probe = atom.terms.iter().position(|t| match t {
            Term::Const(_) => true,
            Term::Var(v) => bound.contains(v.as_str()),
        });
        bound.extend(atom.variables());
        order.push(JoinStep {
            atom: atom_idx,
            probe,
        });
    }
    order
}

/// Calls `on_match` for every satisfying assignment of the conjunctive
/// query's body. The callback receives the bindings and, for each atom (in
/// the original atom order), the `(relation, row_index)` of the matched row.
///
/// Returning [`ControlFlow::Break`] from the callback stops the enumeration.
///
/// This is the **legacy** backtracking evaluator, retained as the test
/// oracle for the vectorized executor; production callers go through
/// [`EvalContext::compile_vec`] (the lineage and answer functions do so
/// internally).
pub fn for_each_match<B>(
    cq: &ConjunctiveQuery,
    ctx: &EvalContext<'_>,
    mut on_match: impl FnMut(&Bindings, &[(RelId, usize)]) -> ControlFlow<B>,
) -> Result<Option<B>> {
    let db = ctx.database();
    let rels: Vec<RelId> = cq
        .atoms
        .iter()
        .map(|a| resolve_atom(db, a))
        .collect::<Result<_>>()?;

    // Ground comparisons can be checked once, up front.
    for cmp in &cq.comparisons {
        if cmp.eval_ground() == Some(false) {
            return Ok(None);
        }
    }

    // The atom order is value-independent; fix it up front and grab a
    // handle to every probed index before the search, so probing borrows
    // posting lists for the whole enumeration instead of cloning them per
    // call (and no `RefCell` borrow is held while `on_match` runs).
    let order = static_join_order(cq);
    let probed: Vec<Option<Rc<LegacyIndex>>> = order
        .iter()
        .map(|step| step.probe.map(|col| ctx.legacy_index(rels[step.atom], col)))
        .collect();

    let mut bindings: Bindings = Bindings::default();
    let mut matched: Vec<(RelId, usize)> = vec![(RelId(0), 0); cq.atoms.len()];
    let result = search(
        cq,
        db,
        &rels,
        &order,
        &probed,
        &mut bindings,
        &mut matched,
        0,
        &mut on_match,
    );
    Ok(result)
}

/// Candidate rows of one legacy step: a borrowed posting list or a scan.
enum Candidates<'x> {
    Probe(std::slice::Iter<'x, usize>),
    Scan(std::ops::Range<usize>),
}

impl Iterator for Candidates<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        match self {
            Candidates::Probe(iter) => iter.next().copied(),
            Candidates::Scan(range) => range.next(),
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn search<B>(
    cq: &ConjunctiveQuery,
    db: &Database,
    rels: &[RelId],
    order: &[JoinStep],
    probed: &[Option<Rc<LegacyIndex>>],
    bindings: &mut Bindings,
    matched: &mut Vec<(RelId, usize)>,
    depth: usize,
    on_match: &mut impl FnMut(&Bindings, &[(RelId, usize)]) -> ControlFlow<B>,
) -> Option<B> {
    if depth == cq.atoms.len() {
        // All atoms matched; every comparison must be ground by now (the
        // parser guarantees comparison variables appear in atoms).
        for cmp in &cq.comparisons {
            let c = ground_comparison(cmp, bindings);
            if !c {
                return None;
            }
        }
        return match on_match(bindings, matched) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        };
    }

    let step = &order[depth];
    let atom = &cq.atoms[step.atom];
    let rel = rels[step.atom];

    // Choose the access path fixed at order time: probe the index on the
    // first bound column (borrowing its posting list — no clone, and no
    // `Value` clone for the key either), or scan the whole relation.
    let candidates = match step.probe {
        Some(col) => {
            let key: &Value = match &atom.terms[col] {
                Term::Const(c) => c,
                Term::Var(v) => &bindings[v],
            };
            let index = probed[depth].as_ref().expect("probe step has its index");
            let posting = index.get(key).map(|rows| rows.as_slice()).unwrap_or(&[]);
            Candidates::Probe(posting.iter())
        }
        None => Candidates::Scan(0..db.relation(rel).len()),
    };

    for row_index in candidates {
        let row = db.relation(rel).row(row_index);
        // Unify the atom's terms with the row.
        let mut new_bindings: Vec<String> = Vec::new();
        let mut ok = true;
        for (term, value) in atom.terms.iter().zip(row.iter()) {
            match term {
                Term::Const(c) => {
                    if c != value {
                        ok = false;
                        break;
                    }
                }
                Term::Var(v) => match bindings.get(v) {
                    Some(bound) => {
                        if bound != value {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        bindings.insert(v.clone(), value.clone());
                        new_bindings.push(v.clone());
                    }
                },
            }
        }
        if ok {
            // Check comparisons that just became ground, to prune early.
            let prune = cq
                .comparisons
                .iter()
                .any(|cmp| is_ground_under(cmp, bindings) && !ground_comparison(cmp, bindings));
            if !prune {
                matched[step.atom] = (rel, row_index);
                if let Some(b) = search(
                    cq,
                    db,
                    rels,
                    order,
                    probed,
                    bindings,
                    matched,
                    depth + 1,
                    on_match,
                ) {
                    for v in new_bindings {
                        bindings.remove(&v);
                    }
                    return Some(b);
                }
            }
        }
        for v in new_bindings {
            bindings.remove(&v);
        }
    }
    None
}

fn is_ground_under(cmp: &crate::ast::Comparison, bindings: &Bindings) -> bool {
    cmp.variables().all(|v| bindings.contains_key(v))
}

fn ground_comparison(cmp: &crate::ast::Comparison, bindings: &Bindings) -> bool {
    let resolve = |t: &Term| -> Value {
        match t {
            Term::Const(c) => c.clone(),
            Term::Var(v) => bindings
                .get(v)
                .cloned()
                .expect("comparison variables are bound by atoms"),
        }
    };
    cmp.op.eval(&resolve(&cmp.left), &resolve(&cmp.right))
}

/// Evaluates a (possibly non-Boolean) UCQ over a deterministic database,
/// returning the distinct answers (through a freshly compiled plan).
pub fn evaluate_ucq(ucq: &Ucq, db: &Database) -> Result<Vec<Answer>> {
    let ctx = EvalContext::new(db);
    evaluate_ucq_with(ucq, &ctx)
}

/// Like [`evaluate_ucq`] but reuses an existing [`EvalContext`] (and hence
/// its plan cache).
///
/// Each disjunct's batch plan is driven batch-at-a-time, answers are
/// deduplicated on raw head codes before any `Value` is decoded (exact —
/// the interner is bijective), and only the per-disjunct-distinct
/// survivors reach the global row set.
pub fn evaluate_ucq_with(ucq: &Ucq, ctx: &EvalContext<'_>) -> Result<Vec<Answer>> {
    let plan = ctx.compile_vec(ucq)?;
    let db = ctx.database();
    let interner = db.interner();
    let mut stats = crate::vec_exec::ExecStats::default();
    let mut seen = fxhash::FxHashSet::default();
    let mut answers = Vec::new();
    for (disjunct, params) in plan.instances(ucq, interner) {
        let head_slots = disjunct.head_slots();
        let mut code_seen: fxhash::FxHashSet<Vec<u32>> = fxhash::FxHashSet::default();
        disjunct.for_each_batch::<()>(db, &mut stats, &params, |batch| {
            for entry in 0..batch.len() {
                let regs = batch.regs(entry);
                let key: Vec<u32> = head_slots.iter().map(|&s| regs[usize::from(s)]).collect();
                if !code_seen.insert(key) {
                    continue;
                }
                let row = disjunct.decode_head(regs, interner);
                if seen.insert(row.clone()) {
                    answers.push(Answer { row });
                }
            }
            ControlFlow::Continue(())
        });
    }
    ctx.record_exec(stats);
    Ok(answers)
}

/// [`evaluate_ucq`] through the legacy backtracking evaluator (test
/// oracle; reuses the context's `Value`-keyed indexes).
pub fn evaluate_ucq_legacy_with(ucq: &Ucq, ctx: &EvalContext<'_>) -> Result<Vec<Answer>> {
    let mut seen = fxhash::FxHashSet::default();
    let mut answers = Vec::new();
    for disjunct in &ucq.disjuncts {
        for_each_match::<()>(disjunct, ctx, |bindings, _| {
            let row: Row = disjunct
                .head
                .iter()
                .map(|t| match t {
                    Term::Const(c) => c.clone(),
                    Term::Var(v) => bindings[v].clone(),
                })
                .collect();
            if seen.insert(row.clone()) {
                answers.push(Answer { row });
            }
            ControlFlow::Continue(())
        })?;
    }
    Ok(answers)
}

/// Evaluates a Boolean UCQ over a deterministic database.
pub fn evaluate_boolean(ucq: &Ucq, db: &Database) -> Result<bool> {
    let ctx = EvalContext::new(db);
    evaluate_boolean_with(ucq, &ctx)
}

/// Like [`evaluate_boolean`] but reuses an existing [`EvalContext`]. Runs
/// the vectorized executor, stopping at the first complete batch (which
/// the executor emits as soon as any match exists).
pub fn evaluate_boolean_with(ucq: &Ucq, ctx: &EvalContext<'_>) -> Result<bool> {
    for disjunct in &ucq.disjuncts {
        if !disjunct.is_boolean() {
            return Err(QueryError::NotBoolean(disjunct.name.clone()));
        }
    }
    let plan = ctx.compile_vec(ucq)?;
    let db = ctx.database();
    let mut stats = crate::vec_exec::ExecStats::default();
    let mut hit = false;
    for (disjunct, params) in plan.instances(ucq, db.interner()) {
        if disjunct
            .for_each_batch(db, &mut stats, &params, |_| ControlFlow::Break(()))
            .is_some()
        {
            hit = true;
            break;
        }
    }
    ctx.record_exec(stats);
    Ok(hit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_query, parse_ucq};
    use mv_pdb::value::row;

    fn db() -> Database {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a"]).unwrap();
        let s = db.add_relation("S", &["a", "b"]).unwrap();
        let t = db.add_relation("T", &["b"]).unwrap();
        db.insert(r, row([1i64])).unwrap();
        db.insert(r, row([2i64])).unwrap();
        db.insert(s, row([1i64, 10])).unwrap();
        db.insert(s, row([1i64, 20])).unwrap();
        db.insert(s, row([2i64, 30])).unwrap();
        db.insert(s, row([3i64, 30])).unwrap();
        db.insert(t, row([30i64])).unwrap();
        db
    }

    #[test]
    fn simple_join_returns_expected_answers() {
        let db = db();
        let q = parse_ucq("Q(x, y) :- R(x), S(x, y)").unwrap();
        let mut answers: Vec<Row> = evaluate_ucq(&q, &db)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        answers.sort();
        assert_eq!(
            answers,
            vec![row([1i64, 10]), row([1i64, 20]), row([2i64, 30])]
        );
    }

    #[test]
    fn comparisons_filter_answers() {
        let db = db();
        let q = parse_ucq("Q(x, y) :- R(x), S(x, y), y >= 20").unwrap();
        let mut answers: Vec<Row> = evaluate_ucq(&q, &db)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        answers.sort();
        assert_eq!(answers, vec![row([1i64, 20]), row([2i64, 30])]);
    }

    #[test]
    fn boolean_queries_detect_satisfiability() {
        let db = db();
        assert!(evaluate_boolean(&parse_ucq("Q() :- R(x), S(x, y), T(y)").unwrap(), &db).unwrap());
        assert!(
            !evaluate_boolean(&parse_ucq("Q() :- R(x), S(x, y), y > 100").unwrap(), &db).unwrap()
        );
    }

    #[test]
    fn constants_in_atoms_restrict_matches() {
        let db = db();
        let q = parse_ucq("Q(y) :- S(1, y)").unwrap();
        let mut answers: Vec<Row> = evaluate_ucq(&q, &db)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        answers.sort();
        assert_eq!(answers, vec![row([10i64]), row([20i64])]);
    }

    #[test]
    fn constants_absent_from_the_database_yield_no_answers() {
        let db = db();
        // 99 appears nowhere: the instance is skipped when it is bound.
        let q = parse_ucq("Q(y) :- S(99, y)").unwrap();
        assert!(evaluate_ucq(&q, &db).unwrap().is_empty());
        assert!(!evaluate_boolean(&parse_ucq("Q() :- S(99, y)").unwrap(), &db).unwrap());
    }

    #[test]
    fn repeated_variables_enforce_equality() {
        let mut db = Database::new();
        let e = db.add_relation("E", &["a", "b"]).unwrap();
        db.insert(e, row([1i64, 1])).unwrap();
        db.insert(e, row([1i64, 2])).unwrap();
        let q = parse_ucq("Q(x) :- E(x, x)").unwrap();
        let answers = evaluate_ucq(&q, &db).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].row, row([1i64]));
    }

    #[test]
    fn union_of_queries_merges_and_deduplicates_answers() {
        let db = db();
        let q = parse_ucq("Q(x) :- R(x) ; Q(x) :- S(x, y), y = 30").unwrap();
        let mut answers: Vec<Row> = evaluate_ucq(&q, &db)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        answers.sort();
        assert_eq!(answers, vec![row([1i64]), row([2i64]), row([3i64])]);
    }

    #[test]
    fn unknown_relation_and_bad_arity_are_reported() {
        let db = db();
        assert!(matches!(
            evaluate_boolean(&parse_ucq("Q() :- Nope(x)").unwrap(), &db),
            Err(QueryError::UnknownRelation(_))
        ));
        assert!(matches!(
            evaluate_boolean(&parse_ucq("Q() :- R(x, y)").unwrap(), &db),
            Err(QueryError::ArityMismatch { .. })
        ));
    }

    #[test]
    fn boolean_evaluation_rejects_non_boolean_queries() {
        let db = db();
        assert!(matches!(
            evaluate_boolean(&parse_ucq("Q(x) :- R(x)").unwrap(), &db),
            Err(QueryError::NotBoolean(_))
        ));
    }

    #[test]
    fn like_predicate_selects_matching_names() {
        let mut db = Database::new();
        let a = db.add_relation("Author", &["aid", "name"]).unwrap();
        db.insert(a, row([Value::int(1), Value::str("Sam Madden")]))
            .unwrap();
        db.insert(a, row([Value::int(2), Value::str("Dan Suciu")]))
            .unwrap();
        let q = parse_ucq("Q(aid) :- Author(aid, n), n like '%Madden%'").unwrap();
        let answers = evaluate_ucq(&q, &db).unwrap();
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].row, row([1i64]));
    }

    /// The static join order of a query, as `(atom, probed column)` steps.
    fn join_order(text: &str) -> Vec<(usize, Option<usize>)> {
        static_join_order(&parse_query(text).unwrap())
            .iter()
            .map(|step| (step.atom, step.probe))
            .collect()
    }

    #[test]
    fn the_join_order_starts_from_the_atom_a_comparison_filters() {
        // The Figure 2 name selection: scan the `like`-filtered `Author`
        // atom and probe outwards from the few advisors it keeps, instead
        // of scanning every `Student` and filtering last.
        assert_eq!(
            join_order(
                "Q() :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
                 Author(aid1, n1), n1 like '%f00%'"
            ),
            vec![(3, None), (1, Some(1)), (0, Some(0)), (2, Some(0))]
        );
        // Without a comparison, ties still go to the original position.
        assert_eq!(
            join_order(
                "Q() :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), Author(aid1, n1)"
            ),
            vec![(0, None), (1, Some(0)), (2, Some(0)), (3, Some(0))]
        );
        // More bound terms outrank a filter: the constant probe goes first,
        // then the filtered scan, then the unfiltered one.
        assert_eq!(
            join_order("Q() :- R(x), S(7, y), T(z), z > 3"),
            vec![(1, Some(0)), (2, None), (0, None)]
        );
        // A comparison across two atoms filters the one that completes it.
        assert_eq!(
            join_order("Q() :- R(x), S(a, y), S(b, z), y <> x"),
            vec![(0, None), (1, None), (2, None)]
        );
    }

    #[test]
    fn for_each_match_reports_matched_rows_per_atom() {
        let db = db();
        let ctx = EvalContext::new(&db);
        let q = parse_query("Q() :- R(x), S(x, y)").unwrap();
        let mut count = 0;
        for_each_match::<()>(&q, &ctx, |_, matched| {
            assert_eq!(matched.len(), 2);
            count += 1;
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(count, 3);
    }

    #[test]
    fn ast_constructed_unbound_comparison_variables_error_at_compile() {
        // The parser rejects comparisons over variables absent from the
        // atoms; AST-constructed queries get an explicit compile error
        // instead of silently matching nothing.
        use crate::ast::{CmpOp, Comparison};
        let db = db();
        let cq = ConjunctiveQuery::new(
            "Q",
            vec![],
            vec![Atom::new("R", vec![Term::var("x")])],
            vec![Comparison::new(
                Term::var("y"),
                CmpOp::Gt,
                Term::constant(5i64),
            )],
        );
        let ctx = EvalContext::new(&db);
        assert!(matches!(
            ctx.compile_vec(&Ucq::from_cq(cq)),
            Err(QueryError::UnboundComparisonVariable(v)) if v == "y"
        ));
    }

    #[test]
    fn legacy_evaluation_is_reentrant_on_one_context() {
        // An `on_match` callback may issue another legacy query on the same
        // context — including one that builds a new index — without
        // tripping a `RefCell` borrow (the search holds `Rc` handles to its
        // probed indexes, never the cache borrow itself).
        let db = db();
        let ctx = EvalContext::new(&db);
        let outer = parse_query("Q() :- R(x), S(x, y)").unwrap();
        let inner = parse_ucq("Q() :- T(b), S(a, b)").unwrap();
        let mut inner_hits = 0;
        for_each_match::<()>(&outer, &ctx, |_, _| {
            if evaluate_ucq_legacy_with(&inner, &ctx).unwrap().len() == 1 {
                inner_hits += 1;
            }
            ControlFlow::Continue(())
        })
        .unwrap();
        assert_eq!(inner_hits, 3);
    }

    #[test]
    fn plan_cache_reuses_compiled_plans() {
        let db = db();
        let ctx = EvalContext::new(&db);
        let q = parse_ucq("Q(x, y) :- R(x), S(x, y)").unwrap();
        let p1 = ctx.compile_vec(&q).unwrap();
        let p2 = ctx.compile_vec(&q).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        assert_eq!(ctx.compiled_plans(), 1);
        let stats = ctx.plan_stats();
        assert_eq!(stats.disjuncts, 1);
        assert_eq!(stats.steps, 2);
        // R is scanned, S is probed on the bound join column.
        assert_eq!(stats.scan_steps, 1);
        assert_eq!(stats.probe_steps, 1);
        assert_eq!(stats.slots, 2);
    }

    #[test]
    fn contexts_sharing_a_plan_cache_compile_each_shape_once() {
        let db = db();
        let cache = PlanCache::new(&db);
        let first = EvalContext::with_plan_cache(&db, &cache);
        let one = parse_ucq("Q(y) :- S(1, y)").unwrap();
        let a = first.compile_vec(&one).unwrap();
        // Another context — on another thread — resolves the same shape to
        // the same plan, and runs it on its own instance's constants.
        let b = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    let second = EvalContext::with_plan_cache(&db, &cache);
                    assert_eq!(second.compiled_plans(), 0);
                    let two = parse_ucq("Q(y) :- S(2, y)").unwrap();
                    let plan = second.compile_vec(&two).unwrap();
                    let rows: Vec<Row> = evaluate_ucq_with(&two, &second)
                        .unwrap()
                        .into_iter()
                        .map(|a| a.row)
                        .collect();
                    assert_eq!(rows, vec![row([30i64])]);
                    assert_eq!(second.compiled_plans(), 1);
                    plan
                })
                .join()
                .unwrap()
        });
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.len(), 1);
        // A context reports what it resolved, not the whole cache.
        let join = parse_ucq("Q(x, y) :- R(x), S(x, y)").unwrap();
        EvalContext::with_plan_cache(&db, &cache)
            .compile_vec(&join)
            .unwrap();
        assert_eq!((cache.len(), first.compiled_plans()), (2, 1));
        assert_eq!(first.plan_stats().disjuncts, 1);
    }

    #[test]
    #[should_panic(expected = "store version")]
    fn a_plan_cache_refuses_another_store_version() {
        let db = db();
        let cache = PlanCache::new(&db);
        let mut v2 = db.clone();
        v2.insert(RelId(0), row([9i64])).unwrap();
        let _ = EvalContext::with_plan_cache(&v2, &cache);
    }

    /// The sorted answer rows of `text` through a fresh context on `db`.
    fn fresh_answers(text: &str, db: &Database) -> Vec<Row> {
        let ctx = EvalContext::new(db);
        let mut rows: Vec<Row> = evaluate_ucq_with(&parse_ucq(text).unwrap(), &ctx)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        rows.sort();
        rows
    }

    #[test]
    fn a_mutated_snapshot_gets_fresh_access_paths_and_the_base_keeps_its_own() {
        // Regression (was `rebind_refreshes_…`): CSR join indexes used to be
        // built once and never invalidated, so a mutated relation silently
        // served stale postings. They now belong to the relation instance:
        // a copy-on-write clone that inserts gets an instance without them.
        let base = db();
        let join = "Q(x, y) :- R(x), S(x, y)";
        let through_t = "Q(a) :- T(b), S(a, b)";
        let old = vec![row([1i64, 10]), row([1i64, 20]), row([2i64, 30])];
        // Query once: the access paths of R, S and T are built on `base`.
        let base_ctx = EvalContext::new(&base);
        assert_eq!(fresh_answers(join, &base), old);
        assert_eq!(fresh_answers(through_t, &base).len(), 2);
        assert_eq!(
            evaluate_ucq_with(&parse_ucq(join).unwrap(), &base_ctx)
                .unwrap()
                .len(),
            3
        );
        let built = base.access_path_builds();
        assert!(built > 0);

        // Mutate a clone (copy-on-write leaves `base` intact).
        let mut v2 = base.clone();
        let (r, s, t) = (RelId(0), RelId(1), RelId(2));
        v2.insert(r, row([3i64])).unwrap();
        v2.insert(s, row([3i64, 40])).unwrap();
        let mut new = old.clone();
        new.extend([row([3i64, 30]), row([3i64, 40])]);
        assert_eq!(fresh_answers(join, &v2), new);
        let rebuilt = v2.access_path_builds();
        assert!(rebuilt > built, "the copies of R and S build their own");
        // The base snapshot — through its long-lived context too — still
        // answers from its own rows, without rebuilding anything.
        assert_eq!(fresh_answers(join, &base), old);
        assert_eq!(
            evaluate_ucq_with(&parse_ucq(join).unwrap(), &base_ctx)
                .unwrap()
                .len(),
            3
        );
        assert_eq!(base.access_path_builds(), rebuilt);
        // Untouched `T` is one instance in both snapshots, access paths
        // included; the written relations are copies with paths of their own.
        assert!(Arc::ptr_eq(&base.relation_arc(t), &v2.relation_arc(t)));
        assert!(Arc::ptr_eq(
            &base.relation(t).csr_index(0),
            &v2.relation(t).csr_index(0)
        ));
        assert!(!Arc::ptr_eq(
            &base.relation(s).csr_index(0),
            &v2.relation(s).csr_index(0)
        ));
    }

    #[test]
    fn a_plan_proven_empty_on_one_snapshot_is_not_replayed_on_the_next() {
        // Regression (was `plan_cache_is_version_keyed_…`): an instance that
        // is empty because its constant is absent from the dictionary must
        // not answer for a snapshot where the constant exists. Absence is
        // decided when an instance is bound, never baked into a template,
        // and a context borrows one snapshot for life.
        let base = db();
        let absent = "Q(y) :- S(99, y)";
        let base_ctx = EvalContext::new(&base);
        let q = parse_ucq(absent).unwrap();
        assert!(evaluate_ucq_with(&q, &base_ctx).unwrap().is_empty());
        let mut v2 = base.clone();
        v2.insert(RelId(1), row([99i64, 7])).unwrap();
        assert_eq!(fresh_answers(absent, &v2), vec![row([7i64])]);
        // The old snapshot's context still holds (and hits) its empty plan.
        assert!(evaluate_ucq_with(&q, &base_ctx).unwrap().is_empty());
        assert_eq!(base_ctx.compiled_plans(), 1);
        assert!(fresh_answers(absent, &base).is_empty());
    }

    #[test]
    fn compiled_and_legacy_agree_on_every_sample_query() {
        let db = db();
        let ctx = EvalContext::new(&db);
        for text in [
            "Q(x, y) :- R(x), S(x, y)",
            "Q(x, y) :- R(x), S(x, y), y >= 20",
            "Q(y) :- S(1, y)",
            "Q(y) :- S(99, y)",
            "Q(x) :- R(x) ; Q(x) :- S(x, y), y = 30",
            "Q() :- R(x), S(x, y), T(y)",
            "Q(b) :- T(b), S(a, b), R(a)",
            "Q(x) :- S(x, 30), T(30)",
            // An equality constant written as a comparison: a probe.
            "Q(y) :- S(x, y), x = 1",
        ] {
            let q = parse_ucq(text).unwrap();
            let mut compiled: Vec<Row> = evaluate_ucq_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            let mut legacy: Vec<Row> = evaluate_ucq_legacy_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            compiled.sort();
            legacy.sort();
            assert_eq!(compiled, legacy, "{text}");
        }
    }
}
