//! Vectorized batch execution over the dictionary-encoded columns — the
//! one executor behind every production entry point of [`crate::eval`] and
//! [`crate::lineage`].
//!
//! Each disjunct is compiled by [`crate::plan`], lowered into a [`VecPlan`]
//! and driven batch-at-a-time. A lowered plan is a *template*: its atom
//! constants are parameter registers, which [`VecPlan::for_each_batch`]
//! seeds from the instance's codes before the first step, so one plan
//! serves every instance of a query shape ([`VecCompiledUcq::instances`]).
//!
//! * **Batches instead of rows.** Each join step consumes a batch of up to
//!   [`BATCH_ROWS`] partial matches (a register file of `u32` codes plus the
//!   matched row per atom, both stored entry-major) and appends the
//!   surviving extensions to the next depth's batch; the inner loop is
//!   array loads and integer compares over the columnar store.
//! * **CSR join indexes.** Probes run against the probed relation's
//!   [`CsrIndex`] (dense and code-indexed, or hash-partitioned for sparse
//!   domains; see `mv_pdb::access`) through an `Arc` taken at lowering
//!   time. A step with several bound columns probes the one with the most
//!   distinct codes and checks the others per row.
//!   A scan whose `=` comparison pins a column it binds to a constant
//!   (`Advisor(aid1, aid2), aid1 = c`) becomes a probe on that constant.
//! * **Code-level comparisons.** `=` and `<>` whose operands are interned
//!   are evaluated on raw codes (the interner is bijective), so the
//!   dominant `aid2 <> aid3` self-join filter never decodes a `Value`.
//! * **Selections.** Any other scan with *row-local* comparisons — every
//!   operand a constant or a slot the scan itself binds (`n1 like '%f00%'`,
//!   `year > 2004`, `x <> y` within one atom) — has them evaluated once,
//!   when the plan is lowered, into a bitmap of ⌈rows / 64⌉ words. The step
//!   walks the set bits instead of the relation, skipping every
//!   [`BATCH_ROWS`]-row block without one, and keeps per row only the
//!   comparisons that read an earlier step's register. The bitmap is part
//!   of the template, so it lives exactly as long as the snapshot's
//!   [`PlanCache`](crate::PlanCache) keeps the plan.
//!
//! A scan without comparisons reads every row. Lowering preserves the
//! enumeration order of the legacy oracle by construction: the join order
//! is shared, posting lists keep rows ascending within each key (stable
//! counting sort), a selection yields its rows ascending, and batches are
//! filled depth-first.
//!
//! A run works in an [`ExecScratch`]: the parameter registers, the root
//! batch and one batch per depth, every step's column slices and the
//! staging of the slots a candidate row binds. The buffers keep their
//! capacity from run to run, and the query [`EvalContext`](crate::eval::EvalContext)
//! checks its scratch out of a pool on the snapshot's
//! [`PlanCache`](crate::PlanCache) and hands it back when it drops, so a
//! warm run allocates nothing and a context made per call starts warm. A
//! run resets every buffer it reads before reading it: a run that stopped
//! early leaves half-filled batches behind, and the next one never sees
//! them.

use std::ops::ControlFlow;
use std::sync::Arc;

use mv_pdb::interner::ValueInterner;
pub use mv_pdb::CsrIndex;
use mv_pdb::{Database, RelId, Relation, Row};

use crate::ast::{CmpOp, ConjunctiveQuery, Ucq};
use crate::lineage::CollectScratch;
use crate::plan::{
    bind_params, Access, CmpOperand, ColOp, CompiledCmp, HeadTerm, PhysicalPlan, PlanStats, UNBOUND,
};
use crate::Result;

/// Maximum entries per batch of partial matches.
pub const BATCH_ROWS: usize = 1024;

/// Runtime counters of the vectorized executor, accumulated per
/// [`EvalContext`](crate::eval::EvalContext) and surfaced through the
/// `session` figure series and the repository benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Row blocks of [`BATCH_ROWS`] rows read, counted each time a step
    /// reads its relation — once per partial match it extends, so a step
    /// below another counts once per parent entry. A scan reads
    /// ⌈rows / [`BATCH_ROWS`]⌉ blocks; a selected step reads only the
    /// blocks holding a selected row.
    pub blocks_scanned: u64,
    /// Row blocks a selected step passes over because its selection holds
    /// none of their rows, counted like `blocks_scanned`.
    pub blocks_skipped: u64,
    /// CSR index probes (one per partial match entering a probe step).
    pub csr_probe_steps: u64,
    /// Batches of partial matches emitted across all depths.
    pub batches: u64,
}

impl std::ops::Add for ExecStats {
    type Output = ExecStats;
    fn add(self, rhs: ExecStats) -> ExecStats {
        ExecStats {
            blocks_scanned: self.blocks_scanned + rhs.blocks_scanned,
            blocks_skipped: self.blocks_skipped + rhs.blocks_skipped,
            csr_probe_steps: self.csr_probe_steps + rhs.csr_probe_steps,
            batches: self.batches + rhs.batches,
        }
    }
}

/// A comparison lowered to raw dictionary codes. Exact for `=` and `<>`
/// because the interner is bijective: equal codes ⇔ equal values.
#[derive(Debug, Clone, Copy)]
enum CodeCmp {
    EqSlots(u16, u16),
    NeSlots(u16, u16),
    EqConst(u16, u32),
    NeConst(u16, u32),
}

impl CodeCmp {
    /// The slots the comparison reads.
    fn slots(self) -> impl Iterator<Item = u16> {
        let (a, b) = match self {
            CodeCmp::EqSlots(a, b) | CodeCmp::NeSlots(a, b) => (a, Some(b)),
            CodeCmp::EqConst(s, _) | CodeCmp::NeConst(s, _) => (s, None),
        };
        std::iter::once(a).chain(b)
    }

    /// Evaluates the comparison on the codes `reg` reads from slots.
    #[inline]
    fn holds(self, reg: impl Fn(u16) -> u32) -> bool {
        match self {
            CodeCmp::EqSlots(a, b) => reg(a) == reg(b),
            CodeCmp::NeSlots(a, b) => reg(a) != reg(b),
            CodeCmp::EqConst(s, c) => reg(s) == c,
            CodeCmp::NeConst(s, c) => reg(s) != c,
        }
    }
}

/// Where a probe key comes from at runtime.
#[derive(Debug, Clone, Copy)]
enum Key {
    /// A comparison constant (`x = c` pinning a scanned column), interned
    /// at lowering.
    Const(u32),
    /// A register: a parameter, or a slot bound by an earlier step.
    Slot(u16),
}

/// How a vectorized step enumerates candidates.
#[derive(Debug)]
enum VecAccess {
    /// Scan every row of the relation.
    Scan,
    /// Walk the rows whose bit is set, ascending: the rows that passed the
    /// step's row-local comparisons when the plan was lowered, one bit per
    /// row of the relation.
    Selected(Box<[u64]>),
    /// Probe the relation's CSR index (a handle taken at lowering time, so
    /// the probe loop touches no lock).
    Probe { csr: Arc<CsrIndex>, key: Key },
}

/// One vectorized join step.
#[derive(Debug)]
struct VecStep {
    atom: u16,
    rel: RelId,
    access: VecAccess,
    ops: Vec<ColOp>,
    /// Where this step's row ops start among a run's row ops (the ops of
    /// the steps before it, in step order).
    ops_at: usize,
    code_cmps: Vec<CodeCmp>,
    value_cmps: Vec<CompiledCmp>,
}

/// A column op with its column's codes, resolved once per run so the
/// candidate loop indexes a slice instead of the relation's column table.
#[derive(Debug, Clone, Copy)]
enum RowOp<'a> {
    Bind { codes: &'a [u32], slot: u16 },
    CheckSlot { codes: &'a [u32], slot: u16 },
}

impl<'a> RowOp<'a> {
    fn new(op: ColOp, relation: &'a Relation) -> Self {
        match op {
            ColOp::Bind { col, slot } => RowOp::Bind {
                codes: relation.column_codes(usize::from(col)),
                slot,
            },
            ColOp::CheckSlot { col, slot } => RowOp::CheckSlot {
                codes: relation.column_codes(usize::from(col)),
                slot,
            },
        }
    }
}

/// `v`'s allocation as an empty vector of `U`, an element type of the same
/// layout — here the same type under another lifetime. A pooled buffer of
/// borrowed slices is stored empty under one lifetime and refilled under
/// the next run's: the standard library collects a mapped `IntoIter` in
/// place when the layouts agree, so no allocation is made.
pub(crate) fn recycle<T, U>(mut v: Vec<T>) -> Vec<U> {
    v.clear();
    v.into_iter()
        .map(|_| unreachable!("the vector is empty"))
        .collect()
}

/// The buffers a run of a [`VecPlan`] works in, reused from run to run:
/// see the [module documentation](self). One scratch serves one run at a
/// time; [`EvalContext`](crate::eval::EvalContext) pools them on the snapshot's
/// [`PlanCache`](crate::PlanCache). A new one (`ExecScratch::default()`)
/// is empty; its buffers grow on first use.
#[derive(Debug, Default)]
pub struct ExecScratch {
    /// The parameter registers of the instance being run.
    params: Vec<u32>,
    /// One entry: the parameters, every other register unbound.
    root: MatchBatch,
    /// The output batch of each depth.
    batches: Vec<MatchBatch>,
    /// Every step's row ops, step after step; empty between runs.
    row_ops: Vec<RowOp<'static>>,
    /// The slots the current candidate row binds, staged until it passes
    /// every check.
    binds: Vec<(u16, u32)>,
    /// The lineage collectors' tables and tuple-id columns.
    pub(crate) collect: CollectScratch,
}

impl ExecScratch {
    /// Heap bytes the buffers hold, in use or not.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.params)
            + self.root.heap_bytes()
            + vec_bytes(&self.batches)
            + self
                .batches
                .iter()
                .map(MatchBatch::heap_bytes)
                .sum::<usize>()
            + vec_bytes(&self.row_ops)
            + vec_bytes(&self.binds)
            + self.collect.heap_bytes()
    }
}

/// Heap bytes of a vector's buffer.
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The state one run threads through its depths.
struct Run<'r, 'd> {
    db: &'d Database,
    stats: &'r mut ExecStats,
    ops: &'r [RowOp<'d>],
    binds: &'r mut Vec<(u16, u32)>,
}

/// The vectorized plan of one conjunctive query shape, lowered from its
/// compiled plan against the same snapshot; it holds `Arc`s of the
/// relations' access paths it probes.
#[derive(Debug)]
pub struct VecPlan {
    steps: Vec<VecStep>,
    head: Vec<HeadTerm>,
    /// Relation of each original atom position (for lineage collection).
    atom_rels: Vec<RelId>,
    /// Parameter registers, seeded per run from the instance's constants.
    num_params: usize,
    num_slots: usize,
    num_atoms: usize,
    never_matches: bool,
}

/// A compiled-and-lowered UCQ template: one [`VecPlan`] per disjunct, plus
/// the instance it was compiled from (the representative of its shape).
#[derive(Debug)]
pub struct VecCompiledUcq {
    shape: Ucq,
    disjuncts: Vec<VecPlan>,
    stats: PlanStats,
}

impl VecCompiledUcq {
    /// Compiles every disjunct of `ucq`'s shape against `db` and lowers it.
    pub(crate) fn compile(ucq: &Ucq, db: &Database) -> Result<VecCompiledUcq> {
        let disjuncts: Vec<VecPlan> = ucq
            .disjuncts
            .iter()
            .map(|cq| Ok(VecPlan::lower(&PhysicalPlan::compile(cq, db)?, db)))
            .collect::<Result<_>>()?;
        let stats = disjuncts
            .iter()
            .map(VecPlan::stats)
            .fold(PlanStats::default(), |a, b| a + b);
        Ok(VecCompiledUcq {
            shape: ucq.clone(),
            disjuncts,
            stats,
        })
    }

    /// The per-disjunct vectorized plans, in query order.
    pub fn disjuncts(&self) -> &[VecPlan] {
        &self.disjuncts
    }

    /// Each disjunct plan beside its instance in `ucq`, an instance of this
    /// template: run the plan on it with [`VecPlan::for_each_batch`].
    pub fn instances<'p>(
        &'p self,
        ucq: &'p Ucq,
    ) -> impl Iterator<Item = (&'p VecPlan, &'p ConjunctiveQuery)> + 'p {
        debug_assert!(
            crate::template::ShapeKey::of(&self.shape) == crate::template::ShapeKey::of(ucq)
        );
        self.disjuncts.iter().zip(&ucq.disjuncts)
    }

    /// Aggregate shape statistics of the lowered plans.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }

    /// Heap bytes of the selection bitmaps the plans own.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.disjuncts
            .iter()
            .flat_map(|plan| &plan.steps)
            .map(|step| match &step.access {
                VecAccess::Selected(bits) => std::mem::size_of_val::<[u64]>(bits),
                _ => 0,
            })
            .sum()
    }
}

/// A batch of partial (or complete) matches, stored entry-major: entry `i`
/// owns `num_slots` registers and `num_atoms` matched row positions.
#[derive(Debug, Default)]
pub struct MatchBatch {
    num_slots: usize,
    num_atoms: usize,
    len: usize,
    regs: Vec<u32>,
    rows: Vec<u32>,
}

impl MatchBatch {
    /// Empties the batch for a run of a plan with `num_slots` registers and
    /// `num_atoms` atoms, keeping its buffers: they grow to their
    /// high-water mark once, so tiny plans never pay a batch-sized
    /// allocation.
    fn reset(&mut self, num_slots: usize, num_atoms: usize) {
        self.num_slots = num_slots;
        self.num_atoms = num_atoms;
        self.clear();
    }

    fn heap_bytes(&self) -> usize {
        vec_bytes(&self.regs) + vec_bytes(&self.rows)
    }

    /// Entries currently in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when the batch holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The register file (slot → code) of one entry.
    #[inline]
    pub fn regs(&self, entry: usize) -> &[u32] {
        &self.regs[entry * self.num_slots..(entry + 1) * self.num_slots]
    }

    /// The matched row position per original atom of one entry.
    #[inline]
    pub fn atom_rows(&self, entry: usize) -> &[u32] {
        &self.rows[entry * self.num_atoms..(entry + 1) * self.num_atoms]
    }

    fn clear(&mut self) {
        self.len = 0;
        self.regs.clear();
        self.rows.clear();
    }
}

impl VecPlan {
    /// Lowers a compiled plan: probes get CSR indexes, a scan
    /// pinned to a constant by an `=` comparison becomes a probe, any other
    /// scan with row-local comparisons becomes a selection, and `=`/`<>`
    /// comparisons over interned operands drop to code compares.
    fn lower(plan: &PhysicalPlan, db: &Database) -> VecPlan {
        let interner = db.interner();
        let mut never_matches = plan.never_matches;
        let mut atom_rels = vec![RelId(0); plan.num_atoms];
        for step in &plan.steps {
            atom_rels[usize::from(step.atom)] = step.rel;
        }

        let mut steps: Vec<VecStep> = Vec::with_capacity(plan.steps.len());
        let mut ops_at = 0;
        for step in &plan.steps {
            let relation = db.relation(step.rel);
            let mut ops = step.ops.clone();

            let mut code_cmps = Vec::new();
            let mut value_cmps = Vec::new();
            for cmp in &step.cmps {
                match lower_cmp(cmp, interner) {
                    LoweredCmp::Code(c) => code_cmps.push(c),
                    LoweredCmp::AlwaysTrue => {}
                    LoweredCmp::NeverMatches => never_matches = true,
                    LoweredCmp::Value => value_cmps.push(cmp.clone()),
                }
            }

            let access = match step.access {
                Access::Scan => {
                    // `x = c` on a column this scan binds is the key of a
                    // probe on `c`: its postings are exactly the rows the
                    // filter keeps, ascending, so the comparison is consumed
                    // and the enumeration order is unchanged. The probe
                    // beats the selection below on the same rows: every
                    // `aid1 = c` is its own template, and the CSR index is
                    // shared by all of them, where a selection costs each a
                    // pass over the relation and a bitmap. Measured on
                    // `Q(aid2) :- Advisor(aid1, aid2), aid1 = c` for 500
                    // students (10 000 authors, 2 vCPU): first use 2.1–2.3
                    // against 34–37 µs per query, warm 0.63–0.70 against
                    // 0.91–1.13 µs, and 0 against 1 120 bytes per template.
                    let pinned = code_cmps.iter().enumerate().find_map(|(i, cmp)| {
                        let CodeCmp::EqConst(slot, code) = *cmp else {
                            return None;
                        };
                        ops.iter().find_map(|op| match *op {
                            ColOp::Bind { col, slot: s } if s == slot => Some((i, col, code)),
                            _ => None,
                        })
                    });
                    match pinned {
                        Some((i, col, code)) => {
                            code_cmps.remove(i);
                            VecAccess::Probe {
                                csr: relation.csr_index(usize::from(col)),
                                key: Key::Const(code),
                            }
                        }
                        None => {
                            // A row-local comparison reads no earlier step's
                            // register, so its verdict on a row is the same
                            // for every partial match and every instance:
                            // it is evaluated once, here, and consumed.
                            let binds_here = |slot: u16| {
                                ops.iter().any(
                                    |op| matches!(*op, ColOp::Bind { slot: s, .. } if s == slot),
                                )
                            };
                            let (local_code, per_row): (Vec<_>, Vec<_>) =
                                std::mem::take(&mut code_cmps)
                                    .into_iter()
                                    .partition(|c| c.slots().all(binds_here));
                            code_cmps = per_row;
                            let (local_value, per_row): (Vec<_>, Vec<_>) =
                                std::mem::take(&mut value_cmps)
                                    .into_iter()
                                    .partition(|c| c.slots().all(binds_here));
                            value_cmps = per_row;
                            if local_code.is_empty() && local_value.is_empty() {
                                VecAccess::Scan
                            } else {
                                VecAccess::Selected(select_rows(
                                    relation,
                                    &ops,
                                    &local_code,
                                    &local_value,
                                    plan.num_slots,
                                    interner,
                                ))
                            }
                        }
                    }
                }
                Access::Probe { col, slot: key } => {
                    // Slots first bound by this step; a `CheckSlot` on one of
                    // them is an in-atom variable repetition, not an equality
                    // with an already-bound key.
                    let bound_here: Vec<u16> = ops
                        .iter()
                        .filter_map(|op| match *op {
                            ColOp::Bind { slot, .. } => Some(slot),
                            _ => None,
                        })
                        .collect();
                    // Key re-selection: the planner probes the first bound
                    // column, but every other bound column (a `CheckSlot` on
                    // a parameter or an earlier step's slot) is an equally
                    // valid key. The step probes the CSR index of the one
                    // with the most distinct codes — the shortest expected
                    // posting list — and checks the others per row. Postings
                    // come out in ascending row order, so the match
                    // enumeration stays bit-identical to the oracle.
                    let mut best: (u16, u16, Option<usize>) = (col, key, None);
                    let mut best_distinct = relation.distinct_count(usize::from(col));
                    for (i, op) in ops.iter().enumerate() {
                        match *op {
                            ColOp::CheckSlot { col: c, slot } if !bound_here.contains(&slot) => {
                                // Strictly more: on a tie the planner's key
                                // stays.
                                let distinct = relation.distinct_count(usize::from(c));
                                if distinct > best_distinct {
                                    best = (c, slot, Some(i));
                                    best_distinct = distinct;
                                }
                            }
                            _ => {}
                        }
                    }
                    let (best_col, best_slot, consumed) = best;
                    // The op consumed as the probe key leaves the check
                    // list, and the planner's own key is checked instead.
                    if let Some(i) = consumed {
                        ops.remove(i);
                        ops.push(ColOp::CheckSlot { col, slot: key });
                    }
                    VecAccess::Probe {
                        csr: relation.csr_index(usize::from(best_col)),
                        key: Key::Slot(best_slot),
                    }
                }
            };

            let num_ops = ops.len();
            steps.push(VecStep {
                atom: step.atom,
                rel: step.rel,
                access,
                ops,
                ops_at,
                code_cmps,
                value_cmps,
            });
            ops_at += num_ops;
        }

        VecPlan {
            steps,
            head: plan.head.clone(),
            atom_rels,
            num_params: plan.num_params,
            num_slots: plan.num_slots,
            num_atoms: plan.num_atoms,
            never_matches,
        }
    }

    /// Shape statistics of this plan, as lowered.
    fn stats(&self) -> PlanStats {
        let mut stats = PlanStats {
            disjuncts: 1,
            steps: self.steps.len(),
            slots: self.num_slots,
            never_matching: usize::from(self.never_matches),
            ..PlanStats::default()
        };
        for step in &self.steps {
            match step.access {
                VecAccess::Scan => stats.scan_steps += 1,
                VecAccess::Selected(_) => stats.selected_steps += 1,
                VecAccess::Probe { .. } => stats.probe_steps += 1,
            }
        }
        stats
    }

    /// Relation of each original atom position.
    pub fn atom_rels(&self) -> &[RelId] {
        &self.atom_rels
    }

    /// `true` when lowering (or compilation) proved the plan empty.
    pub fn never_matches(&self) -> bool {
        self.never_matches
    }

    /// Decodes the head tuple from an entry's register file. Panics on head
    /// variables no atom binds (parity with the legacy evaluator, which
    /// fails at enumeration time).
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

    /// The head terms, in head order.
    pub(crate) fn head(&self) -> &[HeadTerm] {
        &self.head
    }

    /// The slots the head projects, in head order (head constants carry no
    /// slot). Batch sinks deduplicate on these codes before decoding.
    pub fn head_slots(&self) -> Vec<u16> {
        self.head
            .iter()
            .filter_map(|t| match t {
                HeadTerm::Slot(s) => Some(*s),
                _ => None,
            })
            .collect()
    }

    /// Drives the plan batch-at-a-time for `instance`, an instance of its
    /// template, in `scratch`, calling `on_batch` for every batch of
    /// complete matches (depth-first, so enumeration order equals the
    /// legacy oracle's). Returning [`ControlFlow::Break`] stops the run. An
    /// instance with a constant absent from the dictionary matches nothing.
    /// Scan/probe counters accumulate into `stats`.
    pub fn for_each_batch<B>(
        &self,
        db: &Database,
        scratch: &mut ExecScratch,
        stats: &mut ExecStats,
        instance: &ConjunctiveQuery,
        mut on_batch: impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> Option<B> {
        let ExecScratch {
            params,
            root,
            batches,
            row_ops,
            binds,
            ..
        } = scratch;
        if self.never_matches || !bind_params(instance, db.interner(), params) {
            return None;
        }
        let (ns, na) = (self.num_slots, self.num_atoms);
        root.reset(ns, na);
        root.len = 1;
        root.regs.resize(ns, UNBOUND);
        root.regs[..self.num_params].copy_from_slice(params);
        root.rows.resize(na, 0);
        if self.steps.is_empty() {
            // Body-free query whose comparisons were all ground and true:
            // one empty match.
            stats.batches += 1;
            return on_batch(root).break_value();
        }

        let depths = self.steps.len();
        if batches.len() < depths {
            batches.resize_with(depths, MatchBatch::default);
        }
        for batch in &mut batches[..depths] {
            batch.reset(ns, na);
        }
        let mut ops: Vec<RowOp<'_>> = recycle(std::mem::take(row_ops));
        for step in &self.steps {
            let relation = db.relation(step.rel);
            ops.extend(step.ops.iter().map(|&op| RowOp::new(op, relation)));
        }
        let mut run = Run {
            db,
            stats,
            ops: &ops,
            binds,
        };
        let flow = self.descend(&mut run, 0, &mut batches[..depths], root, &mut on_batch);
        *row_ops = recycle(ops);
        flow.break_value()
    }

    /// [`Self::for_each_batch`] under a cooperative [`EvalBudget`](crate::EvalBudget): the
    /// deadline is polled before each batch is handed to `on_batch`, and a
    /// trip at its first poll or any later one abandons the run and
    /// surfaces as `Err` instead of enumerating further. With no budget
    /// this is exactly `for_each_batch`.
    pub fn for_each_batch_budgeted<B>(
        &self,
        db: &Database,
        scratch: &mut ExecScratch,
        stats: &mut ExecStats,
        instance: &ConjunctiveQuery,
        budget: Option<&crate::budget::EvalBudget>,
        mut on_batch: impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> std::result::Result<Option<B>, crate::budget::BudgetError> {
        let Some(budget) = budget else {
            return Ok(self.for_each_batch(db, scratch, stats, instance, on_batch));
        };
        let mut trip: Option<crate::budget::BudgetError> = None;
        let out = self.for_each_batch(db, scratch, stats, instance, |batch| {
            if let Err(e) = budget.check() {
                trip = Some(e);
                return ControlFlow::Break(None);
            }
            match on_batch(batch) {
                ControlFlow::Break(b) => ControlFlow::Break(Some(b)),
                ControlFlow::Continue(()) => ControlFlow::Continue(()),
            }
        });
        match trip {
            Some(e) => Err(e),
            None => Ok(out.flatten()),
        }
    }

    /// Extends every entry of `parent` through step `depth`, flushing full
    /// batches downward (or to `on_batch` at the last depth). `batches`
    /// holds the output batch of this depth and of every one below it.
    fn descend<B>(
        &self,
        run: &mut Run<'_, '_>,
        depth: usize,
        batches: &mut [MatchBatch],
        parent: &MatchBatch,
        on_batch: &mut impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let step = &self.steps[depth];
        let relation = run.db.relation(step.rel);
        let interner = run.db.interner();
        let ns = self.num_slots;
        let na = self.num_atoms;
        let last = depth + 1 == self.steps.len();
        let (out, below) = batches.split_first_mut().expect("a batch per depth");
        out.clear();
        let all_ops = run.ops;
        let row_ops = &all_ops[step.ops_at..step.ops_at + step.ops.len()];

        for entry in 0..parent.len() {
            let parent_regs = parent.regs(entry);
            let parent_rows = parent.atom_rows(entry);

            // The slots this step binds are staged in `run.binds` until a
            // candidate passes every check — failing rows (the common case
            // on selective probes) never touch the output batch.
            let mut try_row =
                |row: u32, out: &mut MatchBatch, run: &mut Run<'_, '_>| -> ControlFlow<B> {
                    let row_idx = row as usize;
                    let binds = &mut *run.binds;
                    binds.clear();
                    // A slot is bound at most once per step, so the first
                    // staged hit is the only one.
                    let reg = |binds: &[(u16, u32)], slot: u16| {
                        binds
                            .iter()
                            .find(|&&(s, _)| s == slot)
                            .map_or(parent_regs[usize::from(slot)], |&(_, c)| c)
                    };
                    for op in row_ops {
                        match *op {
                            RowOp::Bind { codes, slot } => {
                                binds.push((slot, codes[row_idx]));
                            }
                            RowOp::CheckSlot { codes, slot } => {
                                if codes[row_idx] != reg(binds, slot) {
                                    return ControlFlow::Continue(());
                                }
                            }
                        }
                    }
                    if !step
                        .code_cmps
                        .iter()
                        .all(|cmp| cmp.holds(|slot| reg(binds, slot)))
                    {
                        return ControlFlow::Continue(());
                    }
                    let base = out.len * ns;
                    out.regs.extend_from_slice(parent_regs);
                    for &(slot, code) in binds.iter() {
                        out.regs[base + usize::from(slot)] = code;
                    }
                    // Value comparisons (`<`, `like`, …) need the materialized
                    // register file; they are rare, so the copy-then-truncate
                    // cost stays off the code-only fast path.
                    let regs = &out.regs[base..];
                    if !step.value_cmps.iter().all(|cmp| cmp.holds(regs, interner)) {
                        out.regs.truncate(base);
                        return ControlFlow::Continue(());
                    }
                    out.rows.extend_from_slice(parent_rows);
                    let rows_base = out.len * na;
                    out.rows[rows_base + usize::from(step.atom)] = row;
                    out.len += 1;
                    if out.len == BATCH_ROWS {
                        run.stats.batches += 1;
                        if last {
                            on_batch(out)?;
                        } else {
                            self.descend(run, depth + 1, &mut *below, out, on_batch)?;
                        }
                        out.clear();
                    }
                    ControlFlow::Continue(())
                };

            match &step.access {
                VecAccess::Scan => {
                    run.stats.blocks_scanned += relation.len().div_ceil(BATCH_ROWS) as u64;
                    for row in 0..relation.len() as u32 {
                        try_row(row, &mut *out, run)?;
                    }
                }
                VecAccess::Selected(bits) => {
                    for (block, words) in bits.chunks(BATCH_ROWS / 64).enumerate() {
                        if words.iter().all(|&word| word == 0) {
                            run.stats.blocks_skipped += 1;
                            continue;
                        }
                        run.stats.blocks_scanned += 1;
                        for (i, &word) in words.iter().enumerate() {
                            let base = ((block * BATCH_ROWS / 64 + i) * 64) as u32;
                            let mut word = word;
                            while word != 0 {
                                try_row(base + word.trailing_zeros(), &mut *out, run)?;
                                word &= word - 1;
                            }
                        }
                    }
                }
                VecAccess::Probe { csr, key } => {
                    let code = match key {
                        Key::Const(c) => *c,
                        Key::Slot(s) => parent_regs[usize::from(*s)],
                    };
                    run.stats.csr_probe_steps += 1;
                    for &row in csr.probe(code) {
                        try_row(row, &mut *out, run)?;
                    }
                }
            }
        }
        if !out.is_empty() {
            run.stats.batches += 1;
            if last {
                on_batch(out)?;
            } else {
                self.descend(run, depth + 1, below, out, on_batch)?;
            }
            out.clear();
        }
        ControlFlow::Continue(())
    }
}

enum LoweredCmp {
    Code(CodeCmp),
    Value,
    AlwaysTrue,
    NeverMatches,
}

/// Lowers `=` / `<>` comparisons to code compares when both operands are
/// interned (slots always are; constants must appear in the dictionary). A
/// constant absent from the database can equal no slot value: `=` proves
/// the plan empty, `<>` is always true.
fn lower_cmp(cmp: &CompiledCmp, interner: &ValueInterner) -> LoweredCmp {
    let eq = match cmp.op {
        CmpOp::Eq => true,
        CmpOp::Ne => false,
        _ => return LoweredCmp::Value,
    };
    match (&cmp.left, &cmp.right) {
        (CmpOperand::Slot(a), CmpOperand::Slot(b)) => LoweredCmp::Code(if eq {
            CodeCmp::EqSlots(*a, *b)
        } else {
            CodeCmp::NeSlots(*a, *b)
        }),
        (CmpOperand::Slot(s), CmpOperand::Const(v))
        | (CmpOperand::Const(v), CmpOperand::Slot(s)) => match interner.code_of(v) {
            Some(code) => LoweredCmp::Code(if eq {
                CodeCmp::EqConst(*s, code)
            } else {
                CodeCmp::NeConst(*s, code)
            }),
            None if eq => LoweredCmp::NeverMatches,
            None => LoweredCmp::AlwaysTrue,
        },
        // Ground comparisons were folded at compile time.
        (CmpOperand::Const(_), CmpOperand::Const(_)) => LoweredCmp::Value,
    }
}

/// The rows of `relation` that pass every comparison of `code_cmps` and
/// `value_cmps`, all of which read only constants and slots `ops` binds:
/// bit `r % 64` of word `r / 64` is set when row `r` passes.
fn select_rows(
    relation: &Relation,
    ops: &[ColOp],
    code_cmps: &[CodeCmp],
    value_cmps: &[CompiledCmp],
    num_slots: usize,
    interner: &ValueInterner,
) -> Box<[u64]> {
    let binds: Vec<(&[u32], usize)> = ops
        .iter()
        .filter_map(|op| match *op {
            ColOp::Bind { col, slot } => {
                Some((relation.column_codes(usize::from(col)), usize::from(slot)))
            }
            ColOp::CheckSlot { .. } => None,
        })
        .collect();
    let mut regs = vec![UNBOUND; num_slots];
    let mut bits = vec![0u64; relation.len().div_ceil(64)];
    for row in 0..relation.len() {
        for &(codes, slot) in &binds {
            regs[slot] = codes[row];
        }
        if code_cmps
            .iter()
            .all(|cmp| cmp.holds(|slot| regs[usize::from(slot)]))
            && value_cmps.iter().all(|cmp| cmp.holds(&regs, interner))
        {
            bits[row / 64] |= 1 << (row % 64);
        }
    }
    bits.into_boxed_slice()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;
    use fxhash::FxHashMap;

    // `CsrIndex` lives in `mv-pdb`; its tests stayed, reaching it through
    // this module's re-export.
    fn postings_of(index: &CsrIndex, code: u32) -> Vec<u32> {
        index.probe(code).to_vec()
    }

    #[test]
    fn dense_and_partitioned_csr_agree_with_reference_postings() {
        // A skewed multiset of codes, including a huge outlier that forces
        // the sparse-domain fallback when the dense budget is small.
        let codes: Vec<u32> = (0..2000u32)
            .map(|i| match i % 7 {
                0 => 5,
                1 | 2 => i % 97,
                _ => (i * 31) % 4093,
            })
            .chain([1 << 30, 1 << 30, 7])
            .collect();
        let mut reference: FxHashMap<u32, Vec<u32>> = FxHashMap::default();
        for (i, &c) in codes.iter().enumerate() {
            reference.entry(c).or_default().push(i as u32);
        }

        let dense = CsrIndex::build_with_budgets(&codes, usize::MAX, 16);
        assert!(!dense.is_partitioned());
        let partitioned = CsrIndex::build_with_budgets(&codes, 0, 16);
        assert!(partitioned.is_partitioned());

        for (&code, posting) in &reference {
            assert_eq!(&postings_of(&dense, code), posting, "dense code {code}");
            assert_eq!(
                &postings_of(&partitioned, code),
                posting,
                "partitioned code {code}"
            );
        }
        // Absent codes probe empty in both layouts.
        for absent in [6u32, 4094, u32::MAX, (1 << 30) + 1] {
            if reference.contains_key(&absent) {
                continue;
            }
            assert!(postings_of(&dense, absent).is_empty());
            assert!(postings_of(&partitioned, absent).is_empty());
        }
    }

    #[test]
    fn production_budget_picks_dense_for_compact_domains() {
        let codes: Vec<u32> = (0..100).collect();
        assert!(!CsrIndex::build(&codes).is_partitioned());
        // A tiny build side over a huge sparse domain partitions.
        let sparse: Vec<u32> = (0..64u32).map(|i| i.wrapping_mul(0x0F00_0301)).collect();
        let idx = CsrIndex::build(&sparse);
        assert!(idx.is_partitioned());
        for (i, &c) in sparse.iter().enumerate() {
            assert_eq!(postings_of(&idx, c), vec![i as u32], "code {c}");
        }
    }

    #[test]
    fn partition_growth_keeps_every_posting_reachable() {
        // 10k distinct keys with a budget of 2 forces many doublings.
        let codes: Vec<u32> = (0..10_000u32).map(|i| i * 3 + 1).collect();
        let idx = CsrIndex::build_with_budgets(&codes, 0, 2);
        assert!(idx.is_partitioned());
        for (i, &c) in codes.iter().enumerate() {
            assert_eq!(postings_of(&idx, c), vec![i as u32]);
        }
        assert!(postings_of(&idx, 0).is_empty());
    }

    #[test]
    fn empty_column_builds_an_empty_index() {
        let idx = CsrIndex::build(&[]);
        assert!(postings_of(&idx, 0).is_empty());
        assert!(postings_of(&idx, u32::MAX).is_empty());
    }

    /// An 8×8 key grid in `S` (the self-join's second atom arrives with both
    /// columns bound) beside unary `R`.
    fn grid() -> mv_pdb::InDb {
        use mv_pdb::{InDbBuilder, Value, Weight};
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        for i in 0..8i64 {
            b.insert_weighted(r, vec![Value::int(i)], Weight::ONE)
                .unwrap();
        }
        for i in 0..64i64 {
            b.insert_weighted(s, vec![Value::int(i % 8), Value::int(i / 8)], Weight::ONE)
                .unwrap();
        }
        b.build()
    }

    /// What one fresh context sees: the addresses of every CSR index its
    /// lowered plans hold, and the join's answers.
    fn handles_and_answers(db: &Database) -> (Vec<usize>, Vec<Row>) {
        let ctx = EvalContext::new(db);
        let mut handles = Vec::new();
        for text in ["Q(x, y) :- R(x), S(x, y)", "Q() :- S(x, y), S(y, x)"] {
            let plan = ctx.compile_vec(&crate::parse_ucq(text).unwrap()).unwrap();
            for step in &plan.disjuncts()[0].steps {
                match &step.access {
                    VecAccess::Scan | VecAccess::Selected(_) => {}
                    VecAccess::Probe { csr, .. } => handles.push(Arc::as_ptr(csr) as usize),
                }
            }
        }
        let join = crate::parse_ucq("Q(x, y) :- R(x), S(x, y)").unwrap();
        let answers = crate::eval::evaluate_ucq_with(&join, &ctx).unwrap();
        (handles, answers.into_iter().map(|a| a.row).collect())
    }

    #[test]
    fn every_context_and_thread_shares_one_instance_of_each_access_path() {
        let indb = grid();
        let db = indb.database();
        // Two contexts, then two more on other threads: the same handles —
        // one CSR probe per query — and nothing rebuilt.
        let first = handles_and_answers(db);
        assert_eq!(first.0.len(), 2);
        assert_eq!(first.1.len(), 64);
        let built = db.access_path_builds();
        assert_eq!(handles_and_answers(db), first);
        std::thread::scope(|scope| {
            let threads: Vec<_> = (0..2)
                .map(|_| scope.spawn(|| handles_and_answers(db)))
                .collect();
            for t in threads {
                assert_eq!(t.join().unwrap(), first);
            }
        });
        assert_eq!(db.access_path_builds(), built);

        // Eight threads racing the *first* use on a fresh store: one
        // instance each, identical answers, as many builds as one context.
        let raced = grid();
        let db = raced.database();
        assert_eq!(db.access_path_builds(), 0);
        let barrier = std::sync::Barrier::new(8);
        let seen: Vec<_> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        handles_and_answers(db)
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        for other in &seen[1..] {
            assert_eq!(other, &seen[0]);
        }
        assert_eq!(seen[0].1, first.1);
        assert_eq!(db.access_path_builds(), built);
    }

    #[test]
    fn an_equality_constant_on_a_scanned_column_lowers_to_a_probe() {
        let indb = grid();
        let db = indb.database();
        let ctx = EvalContext::new(db);
        for (text, probes) in [
            ("Q(y) :- S(x, y), x = 3", true),
            ("Q(x) :- S(x, y), y = 3", true),
            ("Q(y) :- S(x, y), x <> 3", false),
            ("Q(y) :- S(x, y), x = 99", false),
        ] {
            let q = crate::parse_ucq(text).unwrap();
            let plan = ctx.compile_vec(&q).unwrap();
            let step = &plan.disjuncts()[0].steps[0];
            assert_eq!(
                matches!(
                    step.access,
                    VecAccess::Probe {
                        key: Key::Const(_),
                        ..
                    }
                ),
                probes,
                "{text}"
            );
            // The probe consumes the comparison it came from.
            assert!(!probes || step.code_cmps.is_empty(), "{text}");
            let mut rows: Vec<Row> = crate::eval::evaluate_ucq_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            let mut legacy: Vec<Row> = crate::eval::evaluate_ucq_legacy_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            rows.sort();
            legacy.sort();
            assert_eq!(rows, legacy, "{text}");
        }
    }

    #[test]
    fn row_local_comparisons_on_a_scan_lower_to_a_selection() {
        let indb = grid();
        let db = indb.database();
        let ctx = EvalContext::new(db);
        for (text, kinds) in [
            // `=` on a scanned column keeps its probe lowering.
            ("Q(y) :- S(x, y), x = 3", &["const probe"][..]),
            ("Q(y) :- S(x, y), x <> 3", &["selected"]),
            ("Q(y) :- S(x, y), y < x", &["selected"]),
            ("Q(x) :- S(x, y), x = y", &["selected"]),
            ("Q(x) :- S(x, x), x like '%1%'", &["selected"]),
            ("Q(y) :- S(x, y)", &["scan"]),
            // `x < y` reads the first step's `x`: the second scan keeps it
            // per row.
            ("Q(x) :- R(x), S(y, z), z > 2, x < y", &["selected", "scan"]),
            // A selection below another step, walked once per parent entry.
            (
                "Q(x, z) :- R(x), S(y, z), x > 5, z >= 6",
                &["selected", "selected"],
            ),
        ] {
            let q = crate::parse_ucq(text).unwrap();
            let plan = ctx.compile_vec(&q).unwrap();
            let steps = &plan.disjuncts()[0].steps;
            let lowered: Vec<&str> = steps
                .iter()
                .map(|step| match step.access {
                    VecAccess::Scan => "scan",
                    VecAccess::Selected(_) => "selected",
                    VecAccess::Probe {
                        key: Key::Const(_), ..
                    } => "const probe",
                    VecAccess::Probe { .. } => "probe",
                })
                .collect();
            assert_eq!(lowered, kinds, "{text}");
            for step in steps {
                if let VecAccess::Selected(bits) = &step.access {
                    // One bit per row, and every comparison consumed.
                    assert_eq!(bits.len(), db.relation(step.rel).len().div_ceil(64));
                    assert!(step.code_cmps.is_empty() && step.value_cmps.is_empty());
                }
            }
            let stats = plan.stats();
            assert_eq!(
                stats.steps,
                stats.scan_steps + stats.probe_steps + stats.selected_steps
            );
            let mut rows: Vec<Row> = crate::eval::evaluate_ucq_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            let mut legacy: Vec<Row> = crate::eval::evaluate_ucq_legacy_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            rows.sort();
            legacy.sort();
            assert_eq!(rows, legacy, "{text}");
        }
    }

    #[test]
    fn a_step_below_another_counts_its_blocks_once_per_parent_entry() {
        use mv_pdb::{InDbBuilder, Value, Weight};

        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["b"]).unwrap();
        for i in 0..3i64 {
            b.insert_weighted(r, vec![Value::int(i)], Weight::ONE)
                .unwrap();
        }
        for i in 0..2050i64 {
            b.insert_weighted(s, vec![Value::int(i)], Weight::ONE)
                .unwrap();
        }
        let indb = b.build();
        // S's 2 050 rows are three blocks; `y > 1100` selects 949 rows, in
        // its last two.
        for (text, answers, scanned, skipped) in [
            // R read once (1 block), S read once per R row (3 × 3 blocks).
            ("Q(x, y) :- R(x), S(y)", 3 * 2050, 1 + 3 * 3, 0),
            // S is selected first (2 blocks read, 1 skipped), then R is
            // scanned under each of its 949 rows.
            ("Q(x, y) :- R(x), S(y), y > 1100", 3 * 949, 2 + 949, 1),
            // Both selected: R once (rows 1 and 2, one block), then S under
            // each of R's two rows.
            (
                "Q(x, y) :- R(x), S(y), x > 0, y > 1100",
                2 * 949,
                1 + 2 * 2,
                2,
            ),
        ] {
            let ctx = EvalContext::new(indb.database());
            let q = crate::parse_ucq(text).unwrap();
            let found = crate::eval::evaluate_ucq_with(&q, &ctx).unwrap();
            assert_eq!(found.len(), answers, "{text}");
            let stats = ctx.exec_stats();
            assert_eq!(stats.blocks_scanned, scanned, "{text}");
            assert_eq!(stats.blocks_skipped, skipped, "{text}");
        }
    }

    #[test]
    fn two_bound_columns_probe_the_one_with_the_most_distinct_codes() {
        use mv_pdb::{InDbBuilder, Value, Weight};

        // `S` holds 64 rows over columns with 4 and 64 distinct codes; the
        // flag says whether column 1 is the narrow one.
        let store = |narrow_second: bool| {
            let mut b = InDbBuilder::new();
            let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
            for i in 0..64i64 {
                let (wide, narrow) = (Value::int(i), Value::int(i % 4));
                let row = if narrow_second {
                    vec![wide, narrow]
                } else {
                    vec![narrow, wide]
                };
                b.insert_weighted(s, row, Weight::ONE).unwrap();
            }
            b.build()
        };
        for (narrow_second, key_col) in [(false, 1u16), (true, 0)] {
            let indb = store(narrow_second);
            let db = indb.database();
            let ctx = EvalContext::new(db);
            // The self-join's second atom arrives with both columns bound.
            let q = crate::parse_ucq("Q() :- S(x, y), S(y, x)").unwrap();
            let plan = ctx.compile_vec(&q).unwrap();
            let step = &plan.disjuncts()[0].steps[1];
            let VecAccess::Probe { csr, .. } = &step.access else {
                panic!("the second atom must probe: {:?}", step.access);
            };
            let relation = db.relation(step.rel);
            assert!(
                Arc::ptr_eq(csr, &relation.csr_index(usize::from(key_col))),
                "the probe key must be column {key_col}"
            );
            // The other bound column is checked per row, once.
            let checked: Vec<u16> = step
                .ops
                .iter()
                .filter_map(|op| match *op {
                    ColOp::CheckSlot { col, .. } => Some(col),
                    ColOp::Bind { .. } => None,
                })
                .collect();
            assert_eq!(checked, [1 - key_col], "narrow column {}", 1 - key_col);

            let mut rows: Vec<Row> = crate::eval::evaluate_ucq_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            let mut legacy: Vec<Row> = crate::eval::evaluate_ucq_legacy_with(&q, &ctx)
                .unwrap()
                .into_iter()
                .map(|a| a.row)
                .collect();
            rows.sort();
            legacy.sort();
            assert_eq!(rows, legacy);
            assert_eq!(rows.len(), 1);
        }
    }
}
