//! The MV-index backend — the paper's proposal (Section 4).
//!
//! Offline, `W` is compiled into a set of augmented OBDD blocks (done by
//! [`MvdbEngine::compile`](crate::MvdbEngine::compile), which then passes
//! the index to every [`EvalContext`] it creates). Online, the probability
//! of a query reduces to intersecting the query's small lineage OBDD with
//! only the index blocks the lineage touches — in the context's
//! [`QueryScratch`](mv_index::QueryScratch): the lineage is folded and
//! annotated in the worker's own flat buffers and walked against those
//! blocks' rows of the index's one block table, so the rung takes no lock,
//! shares nothing with other queries and leaves the index as compiled.

use mv_index::IntersectAlgorithm;
use mv_pdb::Row;
use mv_query::lineage::{ClauseBuffer, Lineage};
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
            IntersectAlgorithm::CcMvIntersect => "mv-index/cc-mv-intersect",
        }
    }

    /// The exact rung of the online path: the query's clauses are collected
    /// flat and folded straight from the buffer.
    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64> {
        ctx.require_boolean(q)?;
        let clauses = ctx.clauses(q)?;
        self.clauses_probability(&clauses, ctx)
            .expect("index backend evaluates lineages")
    }

    /// One intersection per lineage — this is what makes `answers` a fast
    /// path: no per-answer query re-evaluation, and the per-answer loop (or
    /// a batch session reusing the context) reuses the kernel's buffers.
    fn lineage_probability(&self, lineage: &Lineage, ctx: &EvalContext<'_>) -> Option<Result<f64>> {
        let Some(index) = ctx.index() else {
            return Some(Err(CoreError::MissingIndex));
        };
        let p = index.conditional_probability_with(
            &mut ctx.scratch(),
            lineage,
            ctx.indb(),
            self.algorithm,
        );
        Some(p.map_err(Into::into))
    }

    /// A per-shard clause group, or a whole query's clauses, folded from
    /// the buffer without a [`Lineage`].
    fn clauses_probability(
        &self,
        clauses: &ClauseBuffer,
        ctx: &EvalContext<'_>,
    ) -> Option<Result<f64>> {
        let Some(index) = ctx.index() else {
            return Some(Err(CoreError::MissingIndex));
        };
        let p = index.clauses_probability_with(&mut ctx.scratch(), clauses.as_slice(), ctx.indb());
        Some(p.map_err(Into::into))
    }

    /// Every answer's clauses come from one flat collector, and each
    /// answer's range is folded straight from its buffer, as a Boolean
    /// query's clauses are: no [`Lineage`] per answer. The probabilities
    /// are those of [`Backend::lineage_probability`] on each answer's
    /// lineage, to the bit.
    fn answers(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<Vec<(Row, f64)>> {
        let answers = ctx.answer_clauses(q)?;
        if answers.is_empty() {
            return Ok(Vec::new());
        }
        let Some(index) = ctx.index() else {
            return Err(CoreError::MissingIndex);
        };
        let mut kernel = ctx.scratch();
        let mut out = Vec::with_capacity(answers.len());
        for i in 0..answers.len() {
            let p = index.clauses_probability_with(&mut kernel, answers.clauses(i), ctx.indb())?;
            out.push((Row::new(), p));
        }
        for ((row, _), answer) in out.iter_mut().zip(answers.into_rows()) {
            *row = answer;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    use crate::backend::{FaultKind, QueryFault};
    use crate::engine::MvdbEngine;
    use crate::mvdb::MvdbBuilder;
    use mv_index::QueryScratch;
    use mv_obdd::ObddError;
    use mv_query::{parse_ucq, EvalBudget};

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
        // The cross-block clause's levels interleave with the pairs', so
        // that the fold runs an `apply`.
        let q = parse_ucq("Q() :- R(x), S(x) ; Q() :- R('a0'), S('a1')").unwrap();
        let lineage = ctx.lineage(&q).unwrap();
        let run = || backend.lineage_probability(&lineage, &ctx).unwrap();
        let exact = run().unwrap();
        let stats = ctx.query_manager_stats();
        assert!(
            stats.nodes_allocated >= 20 && stats.apply_cache_misses > 0,
            "{stats:?}"
        );

        ctx.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        let e = run().unwrap_err();
        assert!(matches!(e, CoreError::DeadlineExceeded { .. }), "{e:?}");
        assert!(e.is_degradable());
        assert_eq!(QueryFault::of(&e).kind, FaultKind::Deadline);

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

    /// A context hands its kernel back to the index's pool when it drops,
    /// and the next context on the engine gets that very kernel — without
    /// its predecessor's budget, node cap, counters or nodes.
    #[test]
    fn a_recycled_kernel_carries_nothing_of_its_last_context() {
        let engine = engine();
        let backend = MvIndexBackend::default();
        let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
        let lineage = engine.context().lineage(&q).unwrap();
        let index = engine.index();
        let mut fresh = QueryScratch::new();
        let unused = fresh.stats();
        let expected = index
            .conditional_probability_with(
                &mut fresh,
                &lineage,
                engine.translated().indb(),
                backend.algorithm(),
            )
            .unwrap();

        let a = engine.context();
        a.scratch().set_node_cap(5);
        assert!(matches!(
            backend.lineage_probability(&lineage, &a).unwrap(),
            Err(CoreError::Obdd(ObddError::NodeBudgetExceeded {
                budget: 5,
                ..
            }))
        ));
        a.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
        assert!(matches!(
            backend.lineage_probability(&lineage, &a).unwrap(),
            Err(CoreError::DeadlineExceeded { .. })
        ));
        drop(a);
        assert_eq!(index.idle_kernels(), 1);

        let b = engine.context();
        assert_eq!(b.query_manager_stats(), unused);
        b.scratch();
        assert_eq!(index.idle_kernels(), 0, "b holds a's kernel");
        assert_eq!(b.query_manager_stats(), unused);
        let p = backend.lineage_probability(&lineage, &b).unwrap().unwrap();
        assert_eq!(p.to_bits(), expected.to_bits());
        assert_eq!(b.query_manager_stats(), fresh.stats());
    }
}
