//! Slot-based physical plans over the dictionary-encoded columnar store —
//! the compile stage of the production evaluator.
//!
//! `PhysicalPlan::compile` turns one conjunctive query into the plan that
//! [`crate::vec_exec`] lowers and runs. A plan is a function of the query's
//! *shape*, not of its atom constants: it is a **template** that every
//! instance of the shape shares (see [`crate::template`]).
//! Compilation resolves everything the legacy backtracking evaluator
//! re-derives per recursive call:
//!
//! * every atom-term constant becomes a **parameter**: registers `0..k`,
//!   numbered walking the atoms in query order (terms left to right), are
//!   seeded with the instance's constant codes before the first step
//!   (`bind_params`), so a constant compiles to the same register check
//!   or probe key as an already-bound variable;
//! * every variable becomes a dense `u16` **slot** after the parameters;
//!   the runtime binding environment is a register file of `u32` dictionary
//!   codes (no string hashing, no `Value` clones, no per-row allocation on
//!   the hot path);
//! * the atom order is fixed once through the join-order function both
//!   evaluators share (`crate::eval::static_join_order`: greedy
//!   most-bound-terms-first, then atoms a comparison filters) — the choice
//!   depends only on *which* atoms were processed, never on the values
//!   bound, so fixing it statically is exact and the two evaluators
//!   enumerate matches in the same order by construction;
//! * each atom gets a fixed access path: a full **scan**, or a **probe** on
//!   its first bound column (the lowering picks the index that answers it);
//! * comparison predicates — whose constants stay literal in the template —
//!   are attached to the earliest step at which all their variables are
//!   bound.
//!
//! A constant absent from the dictionary can match no row; `bind_params`
//! reports it and the caller skips that disjunct of the instance.
//!
//! The legacy evaluator ([`crate::eval::for_each_match`]) shares only the
//! join order with this stage and stays as the independently-implemented
//! test oracle, like `RefManager` on the OBDD side.

use fxhash::FxHashMap;
use mv_pdb::interner::ValueInterner;
use mv_pdb::{Database, RelId, Value};

use crate::ast::{CmpOp, ConjunctiveQuery, Term};
use crate::eval::{resolve_atom, static_join_order};
use crate::Result;

/// Register value of a slot that no processed atom has bound yet. Never
/// read by a well-formed plan (the compiler schedules reads after writes);
/// it exists so a register file can be a dense `Vec<u32>` instead of
/// `Vec<Option<u32>>`.
pub(crate) const UNBOUND: u32 = u32::MAX;

/// How a step enumerates its candidate rows.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Access {
    /// Scan the whole relation.
    Scan,
    /// Probe column `col` with the code in register `slot` (a parameter or
    /// a variable bound by an earlier step).
    Probe { col: u16, slot: u16 },
}

/// One per-column operation applied to a candidate row, in column order.
/// The probed column is skipped — the probe already guarantees equality.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ColOp {
    /// First occurrence of a variable: write the row's code into a register.
    Bind { col: u16, slot: u16 },
    /// A bound register — a parameter, or a later occurrence of a
    /// variable: compare codes.
    CheckSlot { col: u16, slot: u16 },
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

/// Aggregate shape statistics of lowered plans, as the executor runs them
/// (reported per context through `EvalContext::plan_stats`: one count per
/// template the context resolved, not per query instance).
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
    /// Register-file slots (parameters included) across all plans.
    pub slots: usize,
    /// Plans proven empty when compiled (a false ground comparison, or an
    /// `=` against a constant absent from the dictionary). An absent *atom*
    /// constant is a property of one instance, not of the template, and is
    /// not counted here.
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

/// The physical plan of one conjunctive query shape.
#[derive(Debug)]
pub(crate) struct PhysicalPlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) head: Vec<HeadTerm>,
    /// Parameter registers (`0..num_params`), one per atom-term constant.
    pub(crate) num_params: usize,
    /// Registers in all: parameters, then variables.
    pub(crate) num_slots: usize,
    pub(crate) num_atoms: usize,
    /// A ground comparison is false: no instance matches anything.
    pub(crate) never_matches: bool,
}

impl PhysicalPlan {
    /// Compiles one conjunctive query shape against `db`'s schema: fixes
    /// the atom order, numbers the parameters, assigns slots and resolves
    /// access paths.
    pub(crate) fn compile(cq: &ConjunctiveQuery, db: &Database) -> Result<PhysicalPlan> {
        let rels: Vec<RelId> = cq
            .atoms
            .iter()
            .map(|a| resolve_atom(db, a))
            .collect::<Result<_>>()?;

        // The parameter register of every atom-term constant, numbered in
        // the order `bind_params` reads an instance's constants.
        let mut num_params = 0u16;
        let param_of: Vec<Vec<Option<u16>>> = cq
            .atoms
            .iter()
            .map(|atom| {
                atom.terms
                    .iter()
                    .map(|t| {
                        t.as_const().map(|_| {
                            num_params += 1;
                            num_params - 1
                        })
                    })
                    .collect()
            })
            .collect();
        let num_params = usize::from(num_params);

        let mut plan = PhysicalPlan {
            steps: Vec::with_capacity(cq.atoms.len()),
            head: Vec::new(),
            num_params,
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
        let mut bound: fxhash::FxHashSet<&str> = fxhash::FxHashSet::default();

        // The atom order and per-atom probe columns come from the one
        // join-order function both evaluators share
        // ([`crate::eval::static_join_order`]), so the compiled and legacy
        // enumeration orders are identical by construction.
        for join_step in static_join_order(cq) {
            let atom_idx = join_step.atom;
            let atom = &cq.atoms[atom_idx];
            let rel = rels[atom_idx];
            let params = &param_of[atom_idx];

            let probe_col = join_step.probe;
            let access = match probe_col {
                Some(col) => {
                    let slot = match &atom.terms[col] {
                        Term::Const(_) => params[col].expect("constants are parameters"),
                        Term::Var(v) => ensure_slot(&mut slot_of, num_params, v),
                    };
                    Access::Probe {
                        col: col as u16,
                        slot,
                    }
                }
                None => Access::Scan,
            };

            // Per-column unification ops (probed column excluded: the probe
            // guarantees its equality).
            let mut ops = Vec::with_capacity(atom.terms.len());
            for (col, t) in atom.terms.iter().enumerate() {
                if Some(col) == probe_col {
                    continue;
                }
                match t {
                    Term::Const(_) => ops.push(ColOp::CheckSlot {
                        col: col as u16,
                        slot: params[col].expect("constants are parameters"),
                    }),
                    Term::Var(v) => {
                        let known = slot_of.contains_key(v.as_str());
                        let slot = ensure_slot(&mut slot_of, num_params, v);
                        let already_bound = bound.contains(v.as_str())
                            || (known && atom.terms[..col].iter().any(|u| u.as_var() == Some(v)));
                        ops.push(if already_bound {
                            ColOp::CheckSlot {
                                col: col as u16,
                                slot,
                            }
                        } else {
                            ColOp::Bind {
                                col: col as u16,
                                slot,
                            }
                        });
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
        plan.num_slots = num_params + slot_of.len();
        Ok(plan)
    }
}

/// The parameter codes of one instance of a template: the dictionary code
/// of every atom-term constant of `cq`, in the order
/// [`PhysicalPlan::compile`] numbered them (atoms in query order, terms left
/// to right). `None` when a constant is absent from the dictionary: no row
/// holds it, so the disjunct matches nothing.
pub(crate) fn bind_params(cq: &ConjunctiveQuery, interner: &ValueInterner) -> Option<Vec<u32>> {
    cq.atoms
        .iter()
        .flat_map(|atom| &atom.terms)
        .filter_map(Term::as_const)
        .map(|c| interner.code_of(c))
        .collect()
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

/// Assigns (or retrieves) the dense slot of a variable; variable slots
/// follow the `num_params` parameter registers.
fn ensure_slot<'q>(slots: &mut FxHashMap<&'q str, u16>, num_params: usize, name: &'q str) -> u16 {
    let next = num_params + slots.len();
    debug_assert!(next < usize::from(u16::MAX), "slot space exhausted");
    *slots.entry(name).or_insert(next as u16)
}
