//! Live updates under snapshot semantics.
//!
//! An [`UpdateBatch`] is an ordered list of [`UpdateOp`]s — weighted-tuple
//! inserts, deletes and weight changes, plus MarkoView (MLN) weight
//! changes — applied atomically to a compiled engine by
//! [`MvdbEngine::apply`](crate::MvdbEngine::apply) or
//! [`ShardedEngine::apply`](crate::ShardedEngine::apply). The engine is
//! mutated *in place*; snapshot semantics come from cloning the engine
//! first (cloning is cheap: the deterministic store is copy-on-write at
//! relation granularity and OBDD arenas are shared) and publishing the
//! mutated clone, which is what
//! [`MvdbServer::submit_update`](crate::MvdbServer::submit_update) does —
//! readers pinned to the old snapshot drain undisturbed.
//!
//! Every batch is classified before anything is touched
//! (`classify`), so validation errors (unknown relation or view, arity
//! mismatch, invalid weight, deterministic target) reject the whole batch
//! without applying any of it:
//!
//! * **Weight-only** — every op changes only weights of *existing* possible
//!   tuples (a delete is a weight-0 tombstone; a view weight change whose
//!   old and new constants are both in `(0, ∞) \ {1}` rescales the view's
//!   `NV` tuples by `(1 − w)/w`). The translation, the tuple ids, the OBDD
//!   structure and every derived index survive: the engine bumps the
//!   arena's weight epoch and re-annotates the compiled diagrams
//!   ([`MvIndex::reweight`](mv_index::MvIndex::reweight)) — no
//!   re-translation, no re-synthesis.
//! * **Structural** — some op changes the possible-tuple set (a new row, or
//!   a view weight crossing `0`, `1` or `∞`, which changes the translated
//!   `NV` tuple set or schema). The store is re-translated and the index
//!   recompiled (a sharded engine then places `W`'s components again; it
//!   has no per-shard state to rebuild); the deterministic
//!   [`Database`](mv_pdb::Database) stays append-only, so row indices —
//!   and content-keyed identities — carry over to the new version.

use mv_pdb::{Row, TupleId, Weight};

use crate::error::CoreError;
use crate::mvdb::Mvdb;
use crate::translate::TranslatedIndb;
use crate::Result;

/// One update operation, identifying tuples by content (relation name plus
/// row) — tuple ids are snapshot-relative and do not survive structural
/// updates, rows do.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// Insert a possible tuple with the given weight (odds, in `[0, +inf]`)
    /// into a probabilistic relation. Inserting an existing row updates its
    /// weight instead (an upsert).
    InsertTuple {
        /// Target probabilistic relation.
        relation: String,
        /// The row of values.
        row: Row,
        /// The tuple's weight (odds).
        weight: f64,
    },
    /// Delete a possible tuple: a weight-0 tombstone, so the store stays
    /// append-only and old snapshots keep their rows. Deleting an absent
    /// row is a no-op.
    DeleteTuple {
        /// Target probabilistic relation.
        relation: String,
        /// The row of values.
        row: Row,
    },
    /// Change the weight of an existing possible tuple. Unlike
    /// [`UpdateOp::InsertTuple`] the row must already exist.
    SetTupleWeight {
        /// Target probabilistic relation.
        relation: String,
        /// The row of values.
        row: Row,
        /// The new weight (odds, in `[0, +inf]`).
        weight: f64,
    },
    /// Change a MarkoView's weight to a new constant (an MLN weight
    /// change). Replaces per-tuple weight functions as well.
    SetViewWeight {
        /// Name of the view.
        view: String,
        /// The new constant weight.
        weight: f64,
    },
}

/// An ordered, atomically-applied batch of [`UpdateOp`]s.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    ops: Vec<UpdateOp>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> Self {
        UpdateBatch::default()
    }

    /// Appends an insert (upsert) of a weighted tuple.
    pub fn insert(mut self, relation: impl Into<String>, row: Row, weight: f64) -> Self {
        self.ops.push(UpdateOp::InsertTuple {
            relation: relation.into(),
            row,
            weight,
        });
        self
    }

    /// Appends a tombstone delete.
    pub fn delete(mut self, relation: impl Into<String>, row: Row) -> Self {
        self.ops.push(UpdateOp::DeleteTuple {
            relation: relation.into(),
            row,
        });
        self
    }

    /// Appends a tuple weight change.
    pub fn set_weight(mut self, relation: impl Into<String>, row: Row, weight: f64) -> Self {
        self.ops.push(UpdateOp::SetTupleWeight {
            relation: relation.into(),
            row,
            weight,
        });
        self
    }

    /// Appends a view (MLN) weight change.
    pub fn set_view_weight(mut self, view: impl Into<String>, weight: f64) -> Self {
        self.ops.push(UpdateOp::SetViewWeight {
            view: view.into(),
            weight,
        });
        self
    }

    /// Appends an already-built op.
    pub fn push(&mut self, op: UpdateOp) {
        self.ops.push(op);
    }

    /// The operations, in application order.
    pub fn ops(&self) -> &[UpdateOp] {
        &self.ops
    }

    /// `true` when the batch carries no operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }
}

/// How a batch was applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Every op was a no-op (empty batch, deletes of absent rows).
    NoOp,
    /// Weights changed in place; translation, tuple ids and compiled
    /// diagrams survived (the `bump_weight_epoch` fast path).
    WeightOnly,
    /// The possible-tuple set changed; the store was re-translated and the
    /// index recompiled.
    Structural,
}

/// What an applied batch did.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// Which path the batch rode.
    pub kind: UpdateKind,
    /// The store version stamp after the update (see
    /// [`Database::version`](mv_pdb::Database::version)). Weight-only
    /// updates keep the stamp (and the store, with its access paths).
    pub version: u64,
    /// Possible tuples newly inserted.
    pub tuples_inserted: usize,
    /// Tuple weights changed (tombstone deletes included).
    pub weights_changed: usize,
    /// View weights changed.
    pub views_changed: usize,
    /// How many shards a sharded structural apply reached: the distinct
    /// home shards of index blocks whose key is new or whose clause or
    /// variable count changed (every shard when the helper query `W`
    /// itself changed). 0 for weight-only batches, for structural batches
    /// that leave `W`'s lineage alone, and for unsharded engines. A report
    /// — there is one index, recompiled as a whole; nothing per shard is
    /// rebuilt and correctness never depends on this number.
    pub shards_rebuilt: usize,
    /// The other shards of a sharded apply: `num_shards − shards_rebuilt`.
    pub shards_reused: usize,
}

/// Validates a batch against the current MVDB and translated store and
/// classifies it, *before* anything is mutated — a batch that fails here
/// leaves the engine untouched.
pub(crate) fn classify(
    mvdb: &Mvdb,
    translated: &TranslatedIndb,
    batch: &UpdateBatch,
) -> Result<UpdateKind> {
    let base = mvdb.base();
    let mut weight_only_ops = 0usize;
    let mut structural = false;
    for op in batch.ops() {
        match op {
            UpdateOp::InsertTuple {
                relation,
                row,
                weight,
            }
            | UpdateOp::SetTupleWeight {
                relation,
                row,
                weight,
            } => {
                let rel = check_tuple_target(mvdb, relation, row)?;
                if weight.is_nan() || *weight < 0.0 {
                    return Err(CoreError::Pdb(mv_pdb::PdbError::InvalidWeight(*weight)));
                }
                match base.tuple_id_by_values(rel, row) {
                    Some(_) => weight_only_ops += 1,
                    None if matches!(op, UpdateOp::InsertTuple { .. }) => structural = true,
                    None => {
                        return Err(CoreError::UpdateRejected {
                            message: format!(
                                "SetTupleWeight targets a row absent from `{relation}`; \
                                 use InsertTuple to create it"
                            ),
                        })
                    }
                }
            }
            UpdateOp::DeleteTuple { relation, row } => {
                let rel = check_tuple_target(mvdb, relation, row)?;
                if base.tuple_id_by_values(rel, row).is_some() {
                    weight_only_ops += 1;
                }
                // Deleting an absent row is a no-op.
            }
            UpdateOp::SetViewWeight { view, weight } => {
                let i = view_index(mvdb, view)?;
                if weight.is_nan() || *weight < 0.0 {
                    return Err(CoreError::InvalidTupleWeight {
                        view: view.clone(),
                        weight: *weight,
                    });
                }
                // The `(1 − w)/w` rescale keeps the translated NV tuple set
                // only while neither endpoint crosses 0 (denial: no NV
                // relation), 1 (zero-weight NV tuples are skipped at
                // translation) or ∞; everything else re-translates.
                let rescalable = |w: f64| w.is_finite() && w > 0.0 && w != 1.0;
                match &mvdb.views()[i].weight {
                    crate::view::WeightExpr::Constant(old)
                        if rescalable(*old) && rescalable(*weight) =>
                    {
                        weight_only_ops += 1
                    }
                    _ => structural = true,
                }
            }
        }
    }
    let _ = translated; // reserved for future structural checks against the store
    Ok(if structural {
        UpdateKind::Structural
    } else if weight_only_ops > 0 {
        UpdateKind::WeightOnly
    } else {
        UpdateKind::NoOp
    })
}

/// Resolves and validates the target relation of a tuple op.
fn check_tuple_target(mvdb: &Mvdb, relation: &str, row: &Row) -> Result<mv_pdb::RelId> {
    let base = mvdb.base();
    let rel = base.schema().require(relation)?;
    if base.is_deterministic(rel) {
        return Err(CoreError::UpdateRejected {
            message: format!(
                "relation `{relation}` is deterministic; only probabilistic tuples can be updated"
            ),
        });
    }
    let arity = base.schema().relation(rel).arity();
    if row.len() != arity {
        return Err(CoreError::Pdb(mv_pdb::PdbError::ArityMismatch {
            relation: relation.to_string(),
            expected: arity,
            actual: row.len(),
        }));
    }
    Ok(rel)
}

/// The index of a view by name.
pub(crate) fn view_index(mvdb: &Mvdb, view: &str) -> Result<usize> {
    mvdb.views()
        .iter()
        .position(|v| v.name == view)
        .ok_or_else(|| CoreError::UpdateRejected {
            message: format!("unknown MarkoView `{view}`"),
        })
}

/// Applies a (pre-validated) batch to the source MVDB: base-tuple upserts,
/// tombstones and view weight changes. Returns
/// `(tuples_inserted, weights_changed, views_changed)`.
pub(crate) fn apply_to_mvdb(mvdb: &mut Mvdb, batch: &UpdateBatch) -> Result<(usize, usize, usize)> {
    let mut inserted = 0usize;
    let mut weights = 0usize;
    let mut views = 0usize;
    for op in batch.ops() {
        match op {
            UpdateOp::InsertTuple {
                relation,
                row,
                weight,
            }
            | UpdateOp::SetTupleWeight {
                relation,
                row,
                weight,
            } => {
                let rel = mvdb.base().schema().require(relation)?;
                let (_, fresh) =
                    mvdb.base_mut()
                        .upsert_weighted(rel, row.clone(), Weight::new(*weight))?;
                if fresh {
                    inserted += 1;
                } else {
                    weights += 1;
                }
            }
            UpdateOp::DeleteTuple { relation, row } => {
                let rel = mvdb.base().schema().require(relation)?;
                if let Some(id) = mvdb.base().tuple_id_by_values(rel, row) {
                    mvdb.base_mut().set_weight(id, Weight::ZERO);
                    weights += 1;
                }
            }
            UpdateOp::SetViewWeight { view, weight } => {
                let i = view_index(mvdb, view)?;
                mvdb.views_mut()[i].set_constant_weight(*weight)?;
                views += 1;
            }
        }
    }
    Ok((inserted, weights, views))
}

/// The ids of the translated `NV` tuples of one view, in the translated
/// store — the tuples a weight-only view change rescales.
pub(crate) fn nv_tuple_ids(translated: &TranslatedIndb, view_index: usize) -> Result<Vec<TupleId>> {
    let name = translated.nv_relation(view_index);
    let rel = translated.indb().schema().require(name)?;
    Ok(translated
        .indb()
        .tuple_id_column(rel)
        .iter()
        .filter(|&&raw| raw != mv_pdb::InDb::NO_TUPLE_ID)
        .map(|&raw| TupleId(raw))
        .collect())
}
