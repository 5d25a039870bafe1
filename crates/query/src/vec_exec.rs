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
//!   domains; see `mv_pdb::access`) — or, with two bound columns and long
//!   postings, its [`PairIndex`] — through an `Arc` taken at lowering time.
//!   A scan whose `=` comparison pins a column it binds to a constant
//!   (`Advisor(aid1, aid2), aid1 = c`) becomes a probe on that constant.
//! * **Code-level comparisons.** `=` and `<>` whose operands are interned
//!   are evaluated on raw codes (the interner is bijective), so the
//!   dominant `aid2 <> aid3` self-join filter never decodes a `Value`.
//!
//! Any other scan reads every row. Lowering preserves the enumeration order
//! of the legacy oracle by construction: the join order is shared, posting
//! lists keep rows ascending within each key (stable counting sort), and
//! batches are filled depth-first.

use std::ops::ControlFlow;
use std::sync::Arc;

use mv_pdb::interner::ValueInterner;
pub use mv_pdb::{CsrIndex, PairIndex};
use mv_pdb::{Database, RelId, Row};

use crate::ast::{CmpOp, Ucq};
use crate::plan::{
    bind_params, resolve_operand, Access, CmpOperand, ColOp, CompiledCmp, HeadTerm, PhysicalPlan,
    PlanStats, UNBOUND,
};
use crate::Result;

/// Maximum entries per batch of partial matches.
pub const BATCH_ROWS: usize = 1024;

/// Composite-probe threshold: a probe step with two bound columns upgrades
/// from the best single-column CSR index to a [`PairIndex`] only when the
/// best key's expected posting list is at least this long. Below it, the
/// dense CSR layout (direct array indexing, no hashing) wins over the
/// pair's `u64` hash lookup; above it, scanning-and-filtering long postings
/// costs one scattered column read per posting and the exact composite
/// lookup takes over.
const PAIR_MIN_EXPECTED_POSTINGS: usize = 8;

/// Runtime counters of the vectorized executor, accumulated per
/// [`EvalContext`](crate::eval::EvalContext) and surfaced through the
/// `session` figure series and the repository benchmark.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Row blocks scanned: ⌈rows / [`BATCH_ROWS`]⌉ per scan step per run.
    pub blocks_scanned: u64,
    /// Always 0 — no scan skips a block. Kept for the readers of all four
    /// counters (the repository benchmark's `query.exec.blocks_skipped`).
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
    /// Probe the relation's CSR index (a handle taken at lowering time, so
    /// the probe loop touches no lock).
    Probe { csr: Arc<CsrIndex>, key: Key },
    /// Probe the relation's composite pair index on two bound columns
    /// (`key_a` keys the lower-numbered column).
    Probe2 {
        pair: Arc<PairIndex>,
        key_a: Key,
        key_b: Key,
    },
}

/// One vectorized join step.
#[derive(Debug)]
struct VecStep {
    atom: u16,
    rel: RelId,
    access: VecAccess,
    ops: Vec<ColOp>,
    code_cmps: Vec<CodeCmp>,
    value_cmps: Vec<CompiledCmp>,
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

    /// The query this template was compiled from. Any query of the same
    /// shape — equal up to its atom constants — is an instance.
    pub(crate) fn shape(&self) -> &Ucq {
        &self.shape
    }

    /// The per-disjunct vectorized plans, in query order.
    pub fn disjuncts(&self) -> &[VecPlan] {
        &self.disjuncts
    }

    /// Each disjunct plan with its parameter codes in `ucq`, an instance of
    /// this template. A disjunct with a constant absent from the
    /// dictionary matches nothing and is left out.
    pub fn instances<'p>(
        &'p self,
        ucq: &'p Ucq,
        interner: &'p ValueInterner,
    ) -> impl Iterator<Item = (&'p VecPlan, Vec<u32>)> + 'p {
        debug_assert!(crate::template::same_shape(&self.shape, ucq));
        self.disjuncts
            .iter()
            .zip(&ucq.disjuncts)
            .filter_map(|(plan, cq)| Some((plan, bind_params(cq, interner)?)))
    }

    /// Aggregate shape statistics of the lowered plans.
    pub fn stats(&self) -> PlanStats {
        self.stats
    }
}

/// A batch of partial (or complete) matches, stored entry-major: entry `i`
/// owns `num_slots` registers and `num_atoms` matched row positions.
pub struct MatchBatch {
    num_slots: usize,
    num_atoms: usize,
    len: usize,
    regs: Vec<u32>,
    rows: Vec<u32>,
}

impl MatchBatch {
    fn new(num_slots: usize, num_atoms: usize) -> MatchBatch {
        MatchBatch {
            num_slots,
            num_atoms,
            len: 0,
            // Grown on first use and reused across descend calls via the
            // per-depth pool, so tiny plans never pay a batch-sized alloc.
            regs: Vec::new(),
            rows: Vec::new(),
        }
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
    /// Lowers a compiled plan: probes get CSR or pair indexes, a scan
    /// pinned to a constant by an `=` comparison becomes a probe, and
    /// `=`/`<>` comparisons over interned operands drop to code compares.
    fn lower(plan: &PhysicalPlan, db: &Database) -> VecPlan {
        let interner = db.interner();
        let mut never_matches = plan.never_matches;
        let mut atom_rels = vec![RelId(0); plan.num_atoms];
        for step in &plan.steps {
            atom_rels[usize::from(step.atom)] = step.rel;
        }

        let mut steps: Vec<VecStep> = Vec::with_capacity(plan.steps.len());
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
                    // and the enumeration order is unchanged.
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
                        None => VecAccess::Scan,
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
                    // Key re-selection and widening: the planner probes the
                    // first bound column, but every other bound column (a
                    // `CheckSlot` on a parameter or an earlier step's slot)
                    // is an equally valid key. Rank candidates by distinct
                    // codes — shortest
                    // expected posting list first. With one usable column
                    // the step probes the single-column CSR index on the
                    // best; with two distinct bound columns it probes the
                    // composite pair index instead, turning postings-scan-
                    // plus-filter into one exact hash lookup. Whatever is
                    // probed, surviving rows come out in ascending row
                    // order, so the match enumeration stays bit-identical
                    // to the oracle.
                    let mut candidates: Vec<(u16, Key, Option<usize>)> =
                        vec![(col, Key::Slot(key), None)];
                    for (i, op) in ops.iter().enumerate() {
                        match *op {
                            ColOp::CheckSlot { col: c, slot } if !bound_here.contains(&slot) => {
                                candidates.push((c, Key::Slot(slot), Some(i)));
                            }
                            _ => {}
                        }
                    }
                    // Stable sort: on equal selectivity the planner's key
                    // stays in front.
                    candidates.sort_by_key(|&(c, _, _)| {
                        std::cmp::Reverse(relation.distinct_count(usize::from(c)))
                    });
                    let (best_col, best_key, _) = candidates[0];
                    // The composite upgrade only pays once the best single
                    // key's postings get long; a short-postings dense-CSR
                    // probe is two array loads and beats any hash lookup.
                    let expected_postings =
                        relation.len() / relation.distinct_count(usize::from(best_col)).max(1);
                    let second = if expected_postings >= PAIR_MIN_EXPECTED_POSTINGS {
                        candidates[1..]
                            .iter()
                            .find(|&&(c, _, _)| c != best_col)
                            .copied()
                    } else {
                        None
                    };

                    let mut used = vec![candidates[0]];
                    used.extend(second);
                    // Ops consumed as probe keys disappear from the check
                    // list; if the planner's own key is no longer probed it
                    // must be re-checked as an op instead.
                    let mut removed: Vec<usize> = used.iter().filter_map(|&(_, _, i)| i).collect();
                    removed.sort_unstable_by(|a, b| b.cmp(a));
                    for i in removed {
                        ops.remove(i);
                    }
                    if used.iter().all(|&(_, _, i)| i.is_some()) {
                        ops.push(ColOp::CheckSlot { col, slot: key });
                    }
                    match second {
                        Some((sec_col, sec_key, _)) => {
                            let (col_a, key_a, col_b, key_b) = if best_col <= sec_col {
                                (best_col, best_key, sec_col, sec_key)
                            } else {
                                (sec_col, sec_key, best_col, best_key)
                            };
                            VecAccess::Probe2 {
                                pair: relation.pair_index(usize::from(col_a), usize::from(col_b)),
                                key_a,
                                key_b,
                            }
                        }
                        None => VecAccess::Probe {
                            csr: relation.csr_index(usize::from(best_col)),
                            key: best_key,
                        },
                    }
                }
            };

            steps.push(VecStep {
                atom: step.atom,
                rel: step.rel,
                access,
                ops,
                code_cmps,
                value_cmps,
            });
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
        let scan_steps = self
            .steps
            .iter()
            .filter(|s| matches!(s.access, VecAccess::Scan))
            .count();
        PlanStats {
            disjuncts: 1,
            steps: self.steps.len(),
            probe_steps: self.steps.len() - scan_steps,
            scan_steps,
            slots: self.num_slots,
            never_matching: usize::from(self.never_matches),
        }
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

    /// Drives the plan batch-at-a-time for the instance whose parameter
    /// codes are `params` (from [`VecCompiledUcq::instances`]), calling
    /// `on_batch` for every batch of complete matches (depth-first, so
    /// enumeration order equals the legacy oracle's). Returning
    /// [`ControlFlow::Break`] stops the run. Scan/probe counters accumulate
    /// into `stats`.
    pub fn for_each_batch<B>(
        &self,
        db: &Database,
        stats: &mut ExecStats,
        params: &[u32],
        mut on_batch: impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> Option<B> {
        if self.never_matches {
            return None;
        }
        if self.steps.is_empty() {
            // Body-free query whose comparisons were all ground and true:
            // one empty match.
            let mut unit = MatchBatch::new(self.num_slots, self.num_atoms);
            unit.len = 1;
            unit.regs.resize(self.num_slots, UNBOUND);
            unit.rows.resize(self.num_atoms, 0);
            stats.batches += 1;
            return match on_batch(&unit) {
                ControlFlow::Break(b) => Some(b),
                ControlFlow::Continue(()) => None,
            };
        }

        for step in &self.steps {
            if matches!(step.access, VecAccess::Scan) {
                stats.blocks_scanned += db.relation(step.rel).len().div_ceil(BATCH_ROWS) as u64;
            }
        }

        let mut root = MatchBatch::new(self.num_slots, self.num_atoms);
        root.len = 1;
        root.regs.resize(self.num_slots, UNBOUND);
        root.regs[..self.num_params].copy_from_slice(params);
        root.rows.resize(self.num_atoms, 0);
        // One output batch per depth, reused across every descend call at
        // that depth: buffers grow to their high-water mark once and tiny
        // plans never pay a batch-sized allocation.
        let mut pool: Vec<MatchBatch> = (0..self.steps.len())
            .map(|_| MatchBatch::new(self.num_slots, self.num_atoms))
            .collect();
        match self.descend(db, stats, 0, &mut pool, &root, &mut on_batch) {
            ControlFlow::Break(b) => Some(b),
            ControlFlow::Continue(()) => None,
        }
    }

    /// [`Self::for_each_batch`] under a cooperative [`EvalBudget`](crate::EvalBudget): before
    /// every batch is handed to `on_batch`, the batch's rows are charged as
    /// budget steps and the deadline is polled — a trip abandons the run
    /// and surfaces as `Err` instead of enumerating further. With no
    /// budget this is exactly `for_each_batch`.
    pub fn for_each_batch_budgeted<B>(
        &self,
        db: &Database,
        stats: &mut ExecStats,
        params: &[u32],
        budget: Option<&crate::budget::EvalBudget>,
        mut on_batch: impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> std::result::Result<Option<B>, crate::budget::BudgetError> {
        let Some(budget) = budget else {
            return Ok(self.for_each_batch(db, stats, params, on_batch));
        };
        budget.check()?;
        let mut trip: Option<crate::budget::BudgetError> = None;
        let out = self.for_each_batch(db, stats, params, |batch| {
            if let Err(e) = budget.charge(batch.len() as u64) {
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
    /// batches downward (or to `on_batch` at the last depth).
    fn descend<B>(
        &self,
        db: &Database,
        stats: &mut ExecStats,
        depth: usize,
        pool: &mut [MatchBatch],
        parent: &MatchBatch,
        on_batch: &mut impl FnMut(&MatchBatch) -> ControlFlow<B>,
    ) -> ControlFlow<B> {
        let step = &self.steps[depth];
        let relation = db.relation(step.rel);
        let interner = db.interner();
        let ns = self.num_slots;
        let na = self.num_atoms;
        let (out, pool_rest) = pool.split_first_mut().expect("pool covers every depth");
        out.clear();

        // Hoist the per-op column slices out of the candidate loop: one
        // bounds-checked slice lookup per descend call instead of a
        // column-table indirection per candidate row.
        enum RowOp<'a> {
            Bind { codes: &'a [u32], slot: u16 },
            CheckSlot { codes: &'a [u32], slot: u16 },
        }
        let row_ops: Vec<RowOp<'_>> = step
            .ops
            .iter()
            .map(|op| match *op {
                ColOp::Bind { col, slot } => RowOp::Bind {
                    codes: relation.column_codes(usize::from(col)),
                    slot,
                },
                ColOp::CheckSlot { col, slot } => RowOp::CheckSlot {
                    codes: relation.column_codes(usize::from(col)),
                    slot,
                },
            })
            .collect();

        macro_rules! flush {
            () => {
                if !out.is_empty() {
                    stats.batches += 1;
                    if depth + 1 == self.steps.len() {
                        on_batch(&*out)?;
                    } else {
                        self.descend(db, stats, depth + 1, &mut *pool_rest, &*out, on_batch)?;
                    }
                    out.clear();
                }
            };
        }

        // Slots this step binds, staged here until a candidate passes every
        // check — failing rows (the common case on selective probes) never
        // touch the output batch.
        let mut scratch: Vec<(u16, u32)> = Vec::with_capacity(row_ops.len());

        for entry in 0..parent.len() {
            let parent_regs = parent.regs(entry);
            let parent_rows = parent.atom_rows(entry);

            let mut try_row = |row: u32,
                               out: &mut MatchBatch,
                               scratch: &mut Vec<(u16, u32)>,
                               stats: &mut ExecStats|
             -> ControlFlow<B> {
                let row_idx = row as usize;
                scratch.clear();
                // A slot is bound at most once per step, so the first
                // scratch hit is the only one.
                let reg = |scratch: &[(u16, u32)], slot: u16| {
                    scratch
                        .iter()
                        .find(|&&(s, _)| s == slot)
                        .map_or(parent_regs[usize::from(slot)], |&(_, c)| c)
                };
                let mut ok = true;
                for op in &row_ops {
                    match *op {
                        RowOp::Bind { codes, slot } => {
                            scratch.push((slot, codes[row_idx]));
                        }
                        RowOp::CheckSlot { codes, slot } => {
                            if codes[row_idx] != reg(scratch, slot) {
                                ok = false;
                                break;
                            }
                        }
                    }
                }
                if ok {
                    for cmp in &step.code_cmps {
                        let pass = match *cmp {
                            CodeCmp::EqSlots(a, b) => reg(scratch, a) == reg(scratch, b),
                            CodeCmp::NeSlots(a, b) => reg(scratch, a) != reg(scratch, b),
                            CodeCmp::EqConst(s, c) => reg(scratch, s) == c,
                            CodeCmp::NeConst(s, c) => reg(scratch, s) != c,
                        };
                        if !pass {
                            ok = false;
                            break;
                        }
                    }
                }
                if !ok {
                    return ControlFlow::Continue(());
                }
                let base = out.len * ns;
                out.regs.extend_from_slice(parent_regs);
                for &(slot, code) in scratch.iter() {
                    out.regs[base + usize::from(slot)] = code;
                }
                // Value comparisons (`<`, `like`, …) need the materialized
                // register file; they are rare, so the copy-then-truncate
                // cost stays off the code-only fast path.
                let regs = &out.regs[base..];
                for cmp in &step.value_cmps {
                    let left = resolve_operand(&cmp.left, regs, interner);
                    let right = resolve_operand(&cmp.right, regs, interner);
                    if !cmp.op.eval(left, right) {
                        out.regs.truncate(base);
                        return ControlFlow::Continue(());
                    }
                }
                out.rows.extend_from_slice(parent_rows);
                let rows_base = out.len * na;
                out.rows[rows_base + usize::from(step.atom)] = row;
                out.len += 1;
                if out.len == BATCH_ROWS {
                    stats.batches += 1;
                    if depth + 1 == self.steps.len() {
                        on_batch(out)?;
                    } else {
                        self.descend(db, stats, depth + 1, &mut *pool_rest, out, on_batch)?;
                    }
                    out.clear();
                }
                ControlFlow::Continue(())
            };

            match &step.access {
                VecAccess::Scan => {
                    for row in 0..relation.len() as u32 {
                        try_row(row, &mut *out, &mut scratch, stats)?;
                    }
                }
                VecAccess::Probe { csr, key } => {
                    let code = match key {
                        Key::Const(c) => *c,
                        Key::Slot(s) => parent_regs[usize::from(*s)],
                    };
                    stats.csr_probe_steps += 1;
                    for &row in csr.probe(code) {
                        try_row(row, &mut *out, &mut scratch, stats)?;
                    }
                }
                VecAccess::Probe2 { pair, key_a, key_b } => {
                    let resolve = |key: &Key| match *key {
                        Key::Const(c) => c,
                        Key::Slot(s) => parent_regs[usize::from(s)],
                    };
                    stats.csr_probe_steps += 1;
                    for &row in pair.probe(resolve(key_a), resolve(key_b)) {
                        try_row(row, &mut *out, &mut scratch, stats)?;
                    }
                }
            }
        }
        flush!();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::EvalContext;
    use fxhash::FxHashMap;

    // `CsrIndex` and `PairIndex` now live in `mv-pdb`; their tests stayed,
    // reaching them through this module's re-export.
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

    #[test]
    fn pair_index_agrees_with_reference_postings() {
        // Duplicated pairs, shared prefixes and suffixes, and codes whose
        // halves collide when naively truncated to 32 bits.
        let a: Vec<u32> = (0..500u32).map(|i| i % 9).collect();
        let b: Vec<u32> = (0..500u32).map(|i| (i * 13) % 11).collect();
        let mut reference: FxHashMap<(u32, u32), Vec<u32>> = FxHashMap::default();
        for i in 0..a.len() {
            reference.entry((a[i], b[i])).or_default().push(i as u32);
        }
        let idx = PairIndex::build(&a, &b);
        for (&(ka, kb), posting) in &reference {
            assert_eq!(idx.probe(ka, kb), &posting[..], "pair ({ka}, {kb})");
        }
        // Absent combinations (including swapped halves of present pairs)
        // probe empty.
        assert!(idx.probe(9, 0).is_empty());
        assert!(idx.probe(u32::MAX, 0).is_empty());
        let empty = PairIndex::build(&[], &[]);
        assert!(empty.probe(0, 0).is_empty());
    }

    /// An 8×8 key grid in `S` (long postings: the self-join lowers to a pair
    /// probe) beside unary `R`.
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

    /// What one fresh context sees: the addresses of every CSR and pair
    /// index its lowered plans hold, and the join's answers.
    fn handles_and_answers(db: &Database) -> (Vec<usize>, Vec<Row>) {
        let ctx = EvalContext::new(db);
        let mut handles = Vec::new();
        for text in ["Q(x, y) :- R(x), S(x, y)", "Q() :- S(x, y), S(y, x)"] {
            let plan = ctx.compile_vec(&crate::parse_ucq(text).unwrap()).unwrap();
            for step in &plan.disjuncts()[0].steps {
                match &step.access {
                    VecAccess::Scan => {}
                    VecAccess::Probe { csr, .. } => handles.push(Arc::as_ptr(csr) as usize),
                    VecAccess::Probe2 { pair, .. } => handles.push(Arc::as_ptr(pair) as usize),
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
        // a CSR probe, a pair probe — and nothing rebuilt.
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
    fn two_bound_columns_with_long_postings_lower_to_a_pair_probe() {
        use mv_pdb::{InDbBuilder, Value, Weight};

        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let t = b.probabilistic_relation("T", &["b"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        for i in 0..8i64 {
            b.insert_weighted(r, vec![Value::int(i)], Weight::ONE)
                .unwrap();
            b.insert_weighted(t, vec![Value::int(i)], Weight::ONE)
                .unwrap();
        }
        // An 8x8 key grid: either column alone expects 8 postings per key,
        // exactly the composite-upgrade threshold.
        for i in 0..64i64 {
            b.insert_weighted(s, vec![Value::int(i % 8), Value::int(i / 8)], Weight::ONE)
                .unwrap();
        }
        let indb = b.build();
        let ctx = EvalContext::new(indb.database());

        // The second atom of the self-join arrives with both columns bound
        // (the greedy join order processes most-bound atoms first, so a
        // three-atom chain would probe S with only one binding).
        let q = crate::parse_ucq("Q() :- S(x, y), S(y, x)").unwrap();
        let plan = ctx.compile_vec(&q).unwrap();
        assert!(
            plan.disjuncts()[0]
                .steps
                .iter()
                .any(|s| matches!(s.access, VecAccess::Probe2 { .. })),
            "a probe step with two bound long-postings columns must use the pair index"
        );

        // A sparse workload-shaped probe stays on the single-column CSR
        // index: short postings beat the composite hash lookup.
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let t = b.probabilistic_relation("T", &["b"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        for i in 0..64i64 {
            b.insert_weighted(s, vec![Value::int(i), Value::int(i)], Weight::ONE)
                .unwrap();
        }
        b.insert_weighted(r, vec![Value::int(0)], Weight::ONE)
            .unwrap();
        b.insert_weighted(t, vec![Value::int(0)], Weight::ONE)
            .unwrap();
        let indb = b.build();
        let ctx = EvalContext::new(indb.database());
        let q = crate::parse_ucq("Q() :- S(x, y), S(y, x)").unwrap();
        let plan = ctx.compile_vec(&q).unwrap();
        assert!(
            plan.disjuncts()[0]
                .steps
                .iter()
                .all(|s| !matches!(s.access, VecAccess::Probe2 { .. })),
            "unique-key probes must stay on the single-column CSR index"
        );
    }
}
