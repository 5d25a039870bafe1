//! The safe-plan (lifted inference) backend.
//!
//! Evaluates `P0(Q ∨ W)` and `P0(W)` with the polynomial-time safe-plan
//! evaluator when the queries are safe, then applies Theorem 1. Fails with
//! a query error on unsafe queries — translated helper queries are often
//! unsafe, which is precisely the paper's motivation for the MV-index.

use mv_query::Ucq;

use crate::backend::{theorem1, Backend, EvalContext};
use crate::error::CoreError;
use crate::Result;

/// Lifted inference through safe plans; fails on unsafe queries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SafePlan;

impl Backend for SafePlan {
    fn name(&self) -> &'static str {
        "safe-plan"
    }

    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64> {
        ctx.require_boolean(q)?;
        let indb = ctx.indb();
        let safe = |query: &Ucq| {
            mv_query::safe_probability(query, indb).map_err(|e| CoreError::from(to_query_error(e)))
        };
        let (p_q_or_w, p_w) = match ctx.w() {
            Some(w) => {
                let q_or_w = q.boolean().union(w);
                (safe(&q_or_w)?, safe(w)?)
            }
            None => (safe(&q.boolean())?, 0.0),
        };
        theorem1(p_q_or_w, p_w)
    }
}

/// Converts a safe-plan failure into a query error preserving the message.
fn to_query_error(e: mv_query::SafePlanError) -> mv_query::QueryError {
    match e {
        mv_query::SafePlanError::Query(q) => q,
        mv_query::SafePlanError::Unsafe(msg) => mv_query::QueryError::Parse {
            message: format!("query has no safe plan: {msg}"),
            position: 0,
        },
    }
}
