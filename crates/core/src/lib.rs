//! # `mv-core` — MarkoViews and MVDBs
//!
//! This crate implements the paper's primary contribution:
//!
//! * [`view`] — [`MarkoView`]: a weighted view over the probabilistic tables
//!   (Definition 3). Weights can be constants (parsed from the
//!   `V(x̄)[w] :- …` syntax) or arbitrary per-output-tuple functions (the
//!   parameterised weights of Figure 1, e.g. `exp(0.25·count(pid))`,
//!   computed against the deterministic data).
//! * [`mvdb`] — [`Mvdb`] and [`MvdbBuilder`]: a probabilistic database with
//!   MarkoViews (Definition 3/4), its MLN semantics
//!   ([`Mvdb::to_ground_mln`]), and exact reference inference for small
//!   instances ([`Mvdb::exact_probability`]).
//! * [`translate`] — [`TranslatedIndb`]: the translation of Definition 5 and
//!   Theorem 1 from an MVDB to a tuple-independent database with the new
//!   `NV` relations (whose weights `(1 − w)/w` may be negative) and the
//!   helper query `W`.
//! * [`backend`] — the pluggable [`Backend`] trait and its implementations:
//!   the MV-index (the paper's proposal), the per-query augmented-OBDD
//!   baseline, Shannon expansion, safe plans, brute-force enumeration, and
//!   seedable Monte Carlo world sampling with confidence intervals (the
//!   approximate fallback for queries exact synthesis refuses). Each
//!   strategy lives in its own module; adding one is a drop-in.
//! * [`engine`] — [`MvdbEngine`]: the end-to-end query processor. It
//!   compiles `W` into an MV-index offline and answers queries online via
//!   `P(Q) = (P0(Q ∨ W) − P0(W)) / (1 − P0(W))`, dispatching every
//!   evaluation through the [`Backend`] trait.
//! * [`session`] and [`sharded`] — the two batch front-ends of **one**
//!   pipeline (the crate-private `batch` module): route each query's
//!   lineage, evaluate it through the resilience ladder, combine, rescue.
//!   [`ShardedEngine`] places the connected components of `W`'s lineage
//!   on shards — a shard is a set of blocks of the one compiled MV-index
//!   plus its share `W_s` of `W`'s clauses, not a second store or index —
//!   per-shard conditionals are combined exactly by independence
//!   (`1 − ∏ (1 − q_s)`), and queries whose lineage spans shards fall back
//!   to the unsharded oracle. [`ShardedSession`] runs the pipeline with
//!   one worker per shard; [`MvdbSession`] is its no-shard case, striped
//!   over `threads` workers, each evaluating in its own context's query
//!   kernel. On both,
//!   `probabilities` is the ladder's exact rung alone and returns the first
//!   lost query's typed error; `resilient_probabilities` is the full
//!   ladder and returns one [`QueryOutcome`] per query.
//! * [`update`] — [`UpdateBatch`] and [`MvdbEngine::apply`]
//!   (`crate::MvdbEngine::apply`): live updates under snapshot semantics.
//!   Weighted-tuple inserts/deletes and MLN weight changes mutate a
//!   compiled engine in place; weight-only batches re-annotate the
//!   index's block table in one sweep (no re-translation or re-synthesis),
//!   structural batches re-translate and recompile the one index, after
//!   which a sharded engine re-runs its placement step.
//! * [`serve`] — [`MvdbServer`]: the always-on serving layer. Bounded
//!   admission with explicit backpressure, per-request deadlines, an
//!   overload controller that sends pressured admissions to the Monte
//!   Carlo rung before shedding, and heartbeat-supervised workers (dead or
//!   wedged workers are replaced without losing admitted queries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod backend;
mod batch;
pub mod chaos;
pub mod engine;
pub mod error;
pub mod mvdb;
pub mod serve;
pub mod session;
pub mod sharded;
pub mod translate;
pub mod update;
pub mod view;

pub use backend::{
    ApproxAnswer, ApproxConfig, Backend, EngineBackend, EvalContext, FaultKind, IntervalMethod,
    MonteCarlo, MonteCarloParams, QueryFault, QueryOutcome, ResilienceConfig, ResilientBackend,
    Rung,
};
pub use engine::MvdbEngine;
pub use error::CoreError;
pub use mvdb::{Mvdb, MvdbBuilder};
pub use serve::{MvdbServer, ServeConfig, ServeOutcome, ServerStats, Ticket};
pub use session::{MvdbSession, QueryStats};
pub use sharded::{ShardedEngine, ShardedSession};
pub use translate::TranslatedIndb;
pub use update::{UpdateBatch, UpdateKind, UpdateOp, UpdateOutcome};
pub use view::{MarkoView, WeightExpr};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, CoreError>;
