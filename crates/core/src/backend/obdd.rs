//! The per-query augmented-OBDD baseline of Figures 5–6.
//!
//! No offline phase: for every query, an OBDD for `Q ∨ W` (and one for `W`)
//! is built from scratch with the ConOBDD construction, and Theorem 1 is
//! applied to the two Shannon-expansion probabilities. This is what the
//! MV-index amortises away; the backend exists for the paper's baseline
//! comparison and as an exact cross-check.

use mv_obdd::ConObddBuilder;
use mv_query::Ucq;

use crate::backend::{theorem1, Backend, EvalContext};
use crate::Result;

/// Builds the OBDD of `Q ∨ W` from scratch for every query.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObddPerQuery;

impl Backend for ObddPerQuery {
    fn name(&self) -> &'static str {
        "augmented-obdd"
    }

    fn probability(&self, q: &Ucq, ctx: &EvalContext<'_>) -> Result<f64> {
        ctx.require_boolean(q)?;
        let indb = ctx.indb();
        // Both diagrams live in the builder's manager, so building `W` after
        // `Q ∨ W` reuses the nodes they share; each probability is its own
        // Shannon-expansion pass.
        let (p_q_or_w, p_w) = match ctx.w() {
            Some(w) => {
                let q_or_w = q.boolean().union(w);
                let mut builder = ConObddBuilder::for_query(indb, &q_or_w);
                let obdd_q_or_w = builder.build(&q_or_w)?;
                let obdd_w = builder.build(w)?;
                (
                    obdd_q_or_w.probability(|t| indb.probability(t)),
                    obdd_w.probability(|t| indb.probability(t)),
                )
            }
            None => {
                let mut builder = ConObddBuilder::for_query(indb, q);
                let obdd_q = builder.build(q)?;
                (obdd_q.probability(|t| indb.probability(t)), 0.0)
            }
        };
        theorem1(p_q_or_w, p_w)
    }
}
