//! Slot-based physical plans over the dictionary-encoded columnar store —
//! the production evaluator behind lineage computation and answer
//! enumeration.
//!
//! [`EvalContext::compile`](crate::eval::EvalContext::compile) lowers a
//! [`Ucq`] into one [`PhysicalPlan`] per disjunct. Compilation resolves
//! everything the legacy backtracking evaluator used to re-derive per
//! recursive call:
//!
//! * every variable becomes a dense `u16` **slot**; the runtime binding
//!   environment is a register file of `u32` dictionary codes (no string
//!   hashing, no `Value` clones, no per-row allocation on the hot path);
//! * the atom order is fixed once through the join-order function both
//!   evaluators share (`crate::eval::static_join_order`: greedy
//!   most-bound-terms-first, then atoms a comparison filters) — the choice
//!   depends only on *which* atoms were processed, never on the values
//!   bound, so fixing it statically is exact and the two evaluators
//!   enumerate matches in the same order by construction;
//! * each atom gets a fixed access path: a full **scan**, or a **probe** of
//!   a hash index `code → row positions` on its first bound column. The
//!   indexes for exactly the probed `(relation, column)` pairs are built in
//!   one pass over the columnar code arrays when this loop first runs (and
//!   shared across plans through the [`EvalContext`]) — not at compile
//!   time: the vectorized executor compiles the same plans and probes CSR
//!   indexes instead, so it never pays for a hash index it does not read;
//!   probing returns a borrowed posting list — nothing is cloned per probe;
//! * query constants are interned once; a constant that appears nowhere in
//!   the database marks the plan as *never matching*;
//! * comparison predicates are attached to the earliest step at which all
//!   their variables are bound and evaluated over decoded values
//!   (decoding is an array probe, not a hash lookup).
//!
//! Execution is an iterative operator loop over an explicit stack of
//! candidate iterators — no recursion, no `HashMap` in sight. The legacy
//! evaluator ([`crate::eval::for_each_match`]) remains as the
//! independently-implemented test oracle, like `RefManager` on the OBDD
//! side.

use std::ops::ControlFlow;
use std::rc::Rc;

use fxhash::FxHashMap;
use mv_pdb::interner::ValueInterner;
use mv_pdb::{Database, RelId, Row, Value};

use crate::ast::{CmpOp, ConjunctiveQuery, Term, Ucq};
use crate::eval::{resolve_atom, static_join_order, EvalContext};
use crate::Result;

/// Register value of a slot that no processed atom has bound yet. Never
/// read by a well-formed plan (the compiler schedules reads after writes);
/// it exists so a register file can be a dense `Vec<u32>` instead of
/// `Vec<Option<u32>>`.
pub const UNBOUND: u32 = u32::MAX;

/// A hash index over one dictionary-encoded column:
/// `code → positions of the rows holding it`, built in one pass at compile
/// time and shared across every plan compiled through the same context.
pub type CodeIndex = FxHashMap<u32, Vec<u32>>;

/// Where a probe key comes from at runtime.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Key {
    /// A query constant, interned at compile time.
    Const(u32),
    /// A register bound by an earlier step.
    Slot(u16),
}

/// How a step enumerates its candidate rows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Access {
    /// Scan the whole relation (row count frozen at compile time).
    Scan { rows: u32 },
    /// Probe one shared [`CodeIndex`] (over column `col`) with a key.
    Probe { index: u16, col: u16, key: Key },
}

/// One per-column operation applied to a candidate row, in column order.
/// The probed column is skipped — the index already guarantees equality.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColOp {
    /// First occurrence of a variable: write the row's code into a register.
    Bind { col: u16, slot: u16 },
    /// Later occurrence of a variable: compare codes.
    CheckSlot { col: u16, slot: u16 },
    /// A constant term: compare against its interned code.
    CheckConst { col: u16, code: u32 },
}

/// One side of a compiled comparison.
#[derive(Debug, Clone)]
pub(crate) enum CmpOperand {
    Const(Value),
    Slot(u16),
}

/// A comparison predicate scheduled onto the earliest step that grounds it.
#[derive(Debug, Clone)]
pub(crate) struct CompiledCmp {
    pub(crate) left: CmpOperand,
    pub(crate) op: CmpOp,
    pub(crate) right: CmpOperand,
}

/// One join step: candidate enumeration plus unification for one atom.
#[derive(Debug)]
pub(crate) struct Step {
    /// The atom's position in the original query (for the `matched` output).
    pub(crate) atom: u16,
    pub(crate) rel: RelId,
    pub(crate) access: Access,
    pub(crate) ops: Vec<ColOp>,
    pub(crate) cmps: Vec<CompiledCmp>,
}

/// A head term resolved against the slot assignment.
#[derive(Debug, Clone)]
pub(crate) enum HeadTerm {
    Const(Value),
    Slot(u16),
    /// A head variable no atom binds; only an error if answers are decoded
    /// (mirroring the legacy evaluator, which fails at enumeration time).
    Unbound(String),
}

/// Aggregate shape statistics of compiled plans (reported by the
/// `query_eval` microbenchmark).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    /// Compiled conjunctive-query plans.
    pub disjuncts: usize,
    /// Total join steps.
    pub steps: usize,
    /// Steps using an index probe.
    pub probe_steps: usize,
    /// Steps scanning a whole relation.
    pub scan_steps: usize,
    /// Register-file slots across all plans.
    pub slots: usize,
    /// Plans proven empty at compile time (unknown constants, false
    /// comparisons).
    pub never_matching: usize,
}

impl std::ops::Add for PlanStats {
    type Output = PlanStats;
    fn add(self, rhs: PlanStats) -> PlanStats {
        PlanStats {
            disjuncts: self.disjuncts + rhs.disjuncts,
            steps: self.steps + rhs.steps,
            probe_steps: self.probe_steps + rhs.probe_steps,
            scan_steps: self.scan_steps + rhs.scan_steps,
            slots: self.slots + rhs.slots,
            never_matching: self.never_matching + rhs.never_matching,
        }
    }
}

/// The physical plan of one conjunctive query.
#[derive(Debug)]
pub struct PhysicalPlan {
    pub(crate) steps: Vec<Step>,
    /// The `(relation, column)` pairs this plan probes ([`Access::Probe::index`]
    /// points into this vector); [`PhysicalPlan::for_each_match`] fetches
    /// their hash indexes from the context when it runs.
    pub(crate) indexes: Vec<(RelId, usize)>,
    pub(crate) head: Vec<HeadTerm>,
    pub(crate) num_slots: usize,
    pub(crate) num_atoms: usize,
    pub(crate) never_matches: bool,
}

/// A compiled UCQ: one [`PhysicalPlan`] per disjunct.
#[derive(Debug)]
pub struct CompiledUcq {
    disjuncts: Vec<PhysicalPlan>,
}

impl CompiledUcq {
    /// Compiles every disjunct against the context's database.
    pub(crate) fn compile(ucq: &Ucq, ctx: &EvalContext<'_>) -> Result<CompiledUcq> {
        let disjuncts = ucq
            .disjuncts
            .iter()
            .map(|cq| PhysicalPlan::compile(cq, ctx))
            .collect::<Result<_>>()?;
        Ok(CompiledUcq { disjuncts })
    }

    /// The per-disjunct plans, in query order.
    pub fn disjuncts(&self) -> &[PhysicalPlan] {
        &self.disjuncts
    }

    /// Aggregate shape statistics.
    pub fn stats(&self) -> PlanStats {
        self.disjuncts
            .iter()
            .map(PhysicalPlan::stats)
            .fold(PlanStats::default(), |a, b| a + b)
    }
}

impl PhysicalPlan {
    /// Compiles one conjunctive query: fixes the atom order, assigns slots,
    /// resolves access paths and builds (or reuses) the probed column
    /// indexes.
    pub(crate) fn compile(cq: &ConjunctiveQuery, ctx: &EvalContext<'_>) -> Result<PhysicalPlan> {
        let db = ctx.database();
        let interner = db.interner();
        let rels: Vec<RelId> = cq
            .atoms
            .iter()
            .map(|a| resolve_atom(db, a))
            .collect::<Result<_>>()?;

        let mut plan = PhysicalPlan {
            steps: Vec::with_capacity(cq.atoms.len()),
            indexes: Vec::new(),
            head: Vec::new(),
            num_slots: 0,
            num_atoms: cq.atoms.len(),
            never_matches: false,
        };

        // Fold ground comparisons; collect the rest for scheduling.
        let mut pending: Vec<&crate::ast::Comparison> = Vec::new();
        for cmp in &cq.comparisons {
            match cmp.eval_ground() {
                Some(false) => plan.never_matches = true,
                Some(true) => {}
                None => pending.push(cmp),
            }
        }

        let mut slot_of: FxHashMap<&str, u16> = FxHashMap::default();
        // Interning a query constant; unknown constants can never match any
        // row of any relation.
        let intern_const = |plan: &mut PhysicalPlan, value: &Value| -> u32 {
            match interner.code_of(value) {
                Some(code) => code,
                None => {
                    plan.never_matches = true;
                    UNBOUND
                }
            }
        };

        let mut index_slot: FxHashMap<(RelId, usize), u16> = FxHashMap::default();
        let mut bound: fxhash::FxHashSet<&str> = fxhash::FxHashSet::default();

        // The atom order and per-atom probe columns come from the one
        // join-order function both evaluators share
        // ([`crate::eval::static_join_order`]), so the compiled and legacy
        // enumeration orders are identical by construction.
        for join_step in static_join_order(cq) {
            let atom_idx = join_step.atom;
            let atom = &cq.atoms[atom_idx];
            let rel = rels[atom_idx];

            let probe_col = join_step.probe;
            let access = match probe_col {
                Some(col) => {
                    let key = match &atom.terms[col] {
                        Term::Const(c) => Key::Const(intern_const(&mut plan, c)),
                        Term::Var(v) => Key::Slot(ensure_slot(&mut slot_of, v)),
                    };
                    let index = match index_slot.get(&(rel, col)) {
                        Some(&i) => i,
                        None => {
                            let i = plan.indexes.len() as u16;
                            plan.indexes.push((rel, col));
                            index_slot.insert((rel, col), i);
                            i
                        }
                    };
                    Access::Probe {
                        index,
                        col: col as u16,
                        key,
                    }
                }
                None => Access::Scan {
                    rows: db.relation(rel).len() as u32,
                },
            };

            // Per-column unification ops (probed column excluded: the index
            // guarantees its equality).
            let mut ops = Vec::with_capacity(atom.terms.len());
            for (col, t) in atom.terms.iter().enumerate() {
                match t {
                    Term::Const(c) => {
                        if Some(col) != probe_col {
                            let code = intern_const(&mut plan, c);
                            ops.push(ColOp::CheckConst {
                                col: col as u16,
                                code,
                            });
                        }
                    }
                    Term::Var(v) => {
                        let known = slot_of.contains_key(v.as_str());
                        let slot = ensure_slot(&mut slot_of, v);
                        let already_bound = bound.contains(v.as_str())
                            || (known && atom.terms[..col].iter().any(|u| u.as_var() == Some(v)));
                        if Some(col) == probe_col {
                            continue; // key equality enforced by the probe
                        }
                        if already_bound {
                            ops.push(ColOp::CheckSlot {
                                col: col as u16,
                                slot,
                            });
                        } else {
                            ops.push(ColOp::Bind {
                                col: col as u16,
                                slot,
                            });
                        }
                    }
                }
            }
            for v in atom.variables() {
                bound.insert(v);
            }

            // Attach every comparison that just became ground.
            let mut cmps = Vec::new();
            pending.retain(|cmp| {
                if cmp.variables().all(|v| bound.contains(v)) {
                    cmps.push(CompiledCmp {
                        left: compile_operand(&cmp.left, &slot_of),
                        op: cmp.op,
                        right: compile_operand(&cmp.right, &slot_of),
                    });
                    false
                } else {
                    true
                }
            });

            plan.steps.push(Step {
                atom: atom_idx as u16,
                rel,
                access,
                ops,
                cmps,
            });
        }

        // A comparison over a variable no atom binds can never be grounded.
        // The parser rejects such queries; AST-constructed ones get the
        // same explicit error here instead of silently matching nothing.
        if let Some(cmp) = pending.first() {
            let var = cmp
                .variables()
                .find(|v| !bound.contains(v))
                .unwrap_or_default()
                .to_string();
            return Err(crate::error::QueryError::UnboundComparisonVariable(var));
        }

        plan.head = cq
            .head
            .iter()
            .map(|t| match t {
                Term::Const(c) => HeadTerm::Const(c.clone()),
                Term::Var(v) => match slot_of.get(v.as_str()) {
                    Some(&s) => HeadTerm::Slot(s),
                    None => HeadTerm::Unbound(v.clone()),
                },
            })
            .collect();
        plan.num_slots = slot_of.len();
        Ok(plan)
    }

    /// Shape statistics of this plan.
    pub fn stats(&self) -> PlanStats {
        let probe_steps = self
            .steps
            .iter()
            .filter(|s| matches!(s.access, Access::Probe { .. }))
            .count();
        PlanStats {
            disjuncts: 1,
            steps: self.steps.len(),
            probe_steps,
            scan_steps: self.steps.len() - probe_steps,
            slots: self.num_slots,
            never_matching: usize::from(self.never_matches),
        }
    }

    /// `true` when compilation proved the query can never match (a constant
    /// absent from the database, or a false ground comparison).
    pub fn never_matches(&self) -> bool {
        self.never_matches
    }

    /// Calls `on_match` for every satisfying assignment, with the register
    /// file (slot → dictionary code) and, per original atom position, the
    /// `(relation, row_index)` of the matched row. Returning
    /// [`ControlFlow::Break`] stops the enumeration.
    ///
    /// This is the iterative core: an explicit stack of candidate
    /// iterators, one per join step, over borrowed posting lists.
    pub fn for_each_match<B>(
        &self,
        ctx: &EvalContext<'_>,
        mut on_match: impl FnMut(&[u32], &[(RelId, usize)]) -> ControlFlow<B>,
    ) -> Option<B> {
        if self.never_matches {
            return None;
        }
        if self.steps.is_empty() {
            // Body-free query whose comparisons were all ground and true.
            return match on_match(&[], &[]) {
                ControlFlow::Break(b) => Some(b),
                ControlFlow::Continue(()) => None,
            };
        }
        let db = ctx.database();
        let indexes: Vec<Rc<CodeIndex>> = self
            .indexes
            .iter()
            .map(|&(rel, col)| ctx.code_index(rel, col))
            .collect();
        let mut regs: Vec<u32> = vec![UNBOUND; self.num_slots];
        let mut matched: Vec<(RelId, usize)> = vec![(RelId(0), 0); self.num_atoms];
        let mut iters: Vec<StepIter<'_>> = Vec::with_capacity(self.steps.len());
        iters.push(self.candidates(0, &regs, &indexes));
        loop {
            let depth = iters.len() - 1;
            let Some(row) = iters[depth].next() else {
                iters.pop();
                if iters.is_empty() {
                    return None;
                }
                continue;
            };
            let step = &self.steps[depth];
            if !self.match_row(step, row, &mut regs, db) {
                continue;
            }
            matched[usize::from(step.atom)] = (step.rel, row as usize);
            if depth + 1 == self.steps.len() {
                if let ControlFlow::Break(b) = on_match(&regs, &matched) {
                    return Some(b);
                }
            } else {
                let next = self.candidates(depth + 1, &regs, &indexes);
                iters.push(next);
            }
        }
    }

    /// The candidate rows of a step under the current registers.
    fn candidates<'i>(
        &self,
        depth: usize,
        regs: &[u32],
        indexes: &'i [Rc<CodeIndex>],
    ) -> StepIter<'i> {
        match self.steps[depth].access {
            Access::Scan { rows } => StepIter::Scan(0..rows),
            Access::Probe { index, key, .. } => {
                let code = match key {
                    Key::Const(c) => c,
                    Key::Slot(s) => regs[usize::from(s)],
                };
                match indexes[usize::from(index)].get(&code) {
                    Some(posting) => StepIter::Posting(posting.iter()),
                    None => StepIter::Scan(0..0),
                }
            }
        }
    }

    /// Applies a step's unification ops and comparisons to one row.
    #[inline]
    fn match_row(&self, step: &Step, row: u32, regs: &mut [u32], db: &Database) -> bool {
        let relation = db.relation(step.rel);
        let row = row as usize;
        for op in &step.ops {
            match *op {
                ColOp::Bind { col, slot } => {
                    regs[usize::from(slot)] = relation.code_at(row, usize::from(col));
                }
                ColOp::CheckSlot { col, slot } => {
                    if relation.code_at(row, usize::from(col)) != regs[usize::from(slot)] {
                        return false;
                    }
                }
                ColOp::CheckConst { col, code } => {
                    if relation.code_at(row, usize::from(col)) != code {
                        return false;
                    }
                }
            }
        }
        if !step.cmps.is_empty() {
            let interner = db.interner();
            for cmp in &step.cmps {
                let left = resolve_operand(&cmp.left, regs, interner);
                let right = resolve_operand(&cmp.right, regs, interner);
                if !cmp.op.eval(left, right) {
                    return false;
                }
            }
        }
        true
    }

    /// Decodes the head tuple from a register file.
    ///
    /// Panics if a head variable is bound by no atom (parity with the
    /// legacy evaluator, which fails at answer-enumeration time).
    pub fn decode_head(&self, regs: &[u32], interner: &ValueInterner) -> Row {
        self.head
            .iter()
            .map(|t| match t {
                HeadTerm::Const(v) => v.clone(),
                HeadTerm::Slot(s) => interner.value(regs[usize::from(*s)]).clone(),
                HeadTerm::Unbound(name) => {
                    panic!("head variable {name} is not bound by any atom")
                }
            })
            .collect()
    }
}

/// Candidate enumeration of one step: a scan range or a borrowed posting
/// list from a shared column index.
enum StepIter<'p> {
    Scan(std::ops::Range<u32>),
    Posting(std::slice::Iter<'p, u32>),
}

impl Iterator for StepIter<'_> {
    type Item = u32;
    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            StepIter::Scan(range) => range.next(),
            StepIter::Posting(iter) => iter.next().copied(),
        }
    }
}

fn compile_operand(term: &Term, slot_of: &FxHashMap<&str, u16>) -> CmpOperand {
    match term {
        Term::Const(c) => CmpOperand::Const(c.clone()),
        Term::Var(v) => CmpOperand::Slot(
            *slot_of
                .get(v.as_str())
                .expect("comparison variables are bound by atoms"),
        ),
    }
}

#[inline]
pub(crate) fn resolve_operand<'v>(
    operand: &'v CmpOperand,
    regs: &[u32],
    interner: &'v ValueInterner,
) -> &'v Value {
    match operand {
        CmpOperand::Const(v) => v,
        CmpOperand::Slot(s) => interner.value(regs[usize::from(*s)]),
    }
}

/// Assigns (or retrieves) the dense slot of a variable.
fn ensure_slot<'q>(slots: &mut FxHashMap<&'q str, u16>, name: &'q str) -> u16 {
    debug_assert!(slots.len() < usize::from(u16::MAX), "slot space exhausted");
    let next = slots.len() as u16;
    *slots.entry(name).or_insert(next)
}
