//! The MV-index backend — the paper's proposal (Section 4).
//!
//! Offline, `W` is compiled into a set of augmented OBDD blocks (done by
//! [`MvdbEngine::compile`](crate::MvdbEngine::compile), which then passes
//! the index to every [`EvalContext`] it creates). Online, the probability
//! of a query reduces to intersecting the query's small lineage OBDD with
//! only the index blocks the lineage touches — in the context's
//! [`QueryScratch`](mv_index::QueryScratch): the lineage is folded and
//! annotated in the worker's own flat buffers and walked against the
//! compiled layouts of those blocks, so the rung takes no lock, shares
//! nothing with other queries and leaves the index as compiled.

use mv_index::IntersectAlgorithm;
use mv_query::lineage::Lineage;
use mv_query::Ucq;

use crate::backend::{Backend, EvalContext};
use crate::error::CoreError;
use crate::Result;

/// Evaluates queries through the precompiled MV-index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MvIndexBackend {
    algorithm: IntersectAlgorithm,
}

impl MvIndexBackend {
    /// A backend using the given intersection algorithm.
    pub fn new(algorithm: IntersectAlgorithm) -> Self {
        MvIndexBackend { algorithm }
    }

    /// The intersection algorithm in use.
    pub fn algorithm(&self) -> IntersectAlgorithm {
        self.algorithm
    }
}

impl Default for MvIndexBackend {
    /// The cache-conscious intersection, as recommended by Section 4.3.
    fn default() -> Self {
        MvIndexBackend::new(IntersectAlgorithm::CcMvIntersect)
    }
}

impl Backend for MvIndexBackend {
    fn name(&self) -> &'static str {
        match self.algorithm {
            IntersectAlgorithm::MvIntersect => "mv-index/mv-intersect",
            IntersectAlgorithm::CcMvIntersect => "mv-index/cc-mv-intersect",
        }
    }

    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64> {
        ctx.require_boolean(q)?;
        let lineage = ctx.lineage(q)?;
        self.lineage_probability(&lineage, ctx)
            .expect("index backend evaluates lineages")
    }

    /// One intersection per lineage — this is what makes `answers` a fast
    /// path: no per-answer query re-evaluation, and the per-answer loop (or
    /// a batch session reusing the context) reuses the kernel's buffers.
    fn lineage_probability(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> Option<Result<f64>> {
        Some(match ctx.index().ok_or(CoreError::MissingIndex) {
            Ok(index) => index
                .conditional_probability_with(
                    &mut ctx.scratch(),
                    lineage,
                    ctx.indb(),
                    self.algorithm,
                )
                .map_err(Into::into),
            Err(e) => Err(e),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::backend::{FaultKind, QueryFault};
    use crate::engine::MvdbEngine;
    use crate::mvdb::MvdbBuilder;
    use mv_obdd::ObddError;
    use mv_query::{parse_ucq, BudgetError, EvalBudget};

    /// Ten independent `R(x) ∧ S(x)` pairs under one view.
    fn engine() -> MvdbEngine {
        let mut b = MvdbBuilder::new();
        b.relation("R", &["x"]).unwrap();
        b.relation("S", &["x"]).unwrap();
        for i in 0..10 {
            let x = format!("a{i}");
            b.weighted_tuple("R", &[x.as_str()], 1.0 + i as f64)
                .unwrap();
            b.weighted_tuple("S", &[x.as_str()], 2.0).unwrap();
        }
        b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
        MvdbEngine::compile(&b.build().unwrap()).unwrap()
    }

    /// A trip inside the query kernel is the typed, degradable error the
    /// same trip is in the manager-backed rungs — not an index error the
    /// ladder would take for a semantic one.
    #[test]
    fn kernel_trips_surface_as_degradable_typed_errors() {
        let engine = engine();
        let ctx = engine.context();
        let backend = MvIndexBackend::default();
        let lineage = ctx
            .lineage(&parse_ucq("Q() :- R(x), S(x)").unwrap())
            .unwrap();
        let run = || backend.lineage_probability(&lineage, &ctx).unwrap();
        let exact = run().unwrap();
        let stats = ctx.query_manager_stats();
        assert!(
            stats.nodes_allocated >= 20 && stats.apply_cache_misses > 0,
            "{stats:?}"
        );

        ctx.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        let e = run().unwrap_err();
        assert!(matches!(
            e,
            CoreError::Obdd(ObddError::Budget(BudgetError::DeadlineExceeded { .. }))
        ));
        assert!(e.is_degradable());
        assert_eq!(QueryFault::of(&e).kind, FaultKind::Deadline);

        ctx.set_budget(Some(EvalBudget::unlimited().with_step_limit(5)));
        let e = run().unwrap_err();
        assert!(matches!(
            e,
            CoreError::Obdd(ObddError::Budget(BudgetError::StepBudgetExceeded {
                limit: 5,
                ..
            }))
        ));
        assert!(e.is_degradable());
        assert_eq!(QueryFault::of(&e).kind, FaultKind::Budget);

        ctx.set_budget(None);
        ctx.scratch().set_node_cap(5);
        let e = run().unwrap_err();
        assert!(matches!(
            e,
            CoreError::Obdd(ObddError::NodeBudgetExceeded { budget: 5, .. })
        ));
        assert!(e.is_degradable());
        assert_eq!(QueryFault::of(&e).kind, FaultKind::Budget);

        // Clearing the limits clears them: same context, same answer.
        ctx.scratch().set_node_cap(usize::MAX);
        assert_eq!(run().unwrap().to_bits(), exact.to_bits());
    }
}
