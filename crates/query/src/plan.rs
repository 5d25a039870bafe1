//! Slot-based physical plans over the dictionary-encoded columnar store —
//! the compile stage of the production evaluator.
//!
//! `PhysicalPlan::compile` turns one conjunctive query into the plan that
//! [`crate::vec_exec`] lowers and runs. Compilation resolves everything the
//! legacy backtracking evaluator re-derives per recursive call:
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
//! * each atom gets a fixed access path: a full **scan**, or a **probe** on
//!   its first bound column (the lowering picks the index that answers it);
//! * query constants are interned once; a constant that appears nowhere in
//!   the database marks the plan as *never matching*;
//! * comparison predicates are attached to the earliest step at which all
//!   their variables are bound.
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
    /// Scan the whole relation.
    Scan,
    /// Probe column `col` with a key.
    Probe { col: u16, key: Key },
}

/// One per-column operation applied to a candidate row, in column order.
/// The probed column is skipped — the probe already guarantees equality.
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

/// Aggregate shape statistics of lowered plans, as the executor runs them
/// (reported per context through `EvalContext::plan_stats`).
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
pub(crate) struct PhysicalPlan {
    pub(crate) steps: Vec<Step>,
    pub(crate) head: Vec<HeadTerm>,
    pub(crate) num_slots: usize,
    pub(crate) num_atoms: usize,
    pub(crate) never_matches: bool,
}

impl PhysicalPlan {
    /// Compiles one conjunctive query against `db`: fixes the atom order,
    /// assigns slots, resolves access paths and interns constants.
    pub(crate) fn compile(cq: &ConjunctiveQuery, db: &Database) -> Result<PhysicalPlan> {
        let interner = db.interner();
        let rels: Vec<RelId> = cq
            .atoms
            .iter()
            .map(|a| resolve_atom(db, a))
            .collect::<Result<_>>()?;

        let mut plan = PhysicalPlan {
            steps: Vec::with_capacity(cq.atoms.len()),
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
                    Access::Probe {
                        col: col as u16,
                        key,
                    }
                }
                None => Access::Scan,
            };

            // Per-column unification ops (probed column excluded: the probe
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
