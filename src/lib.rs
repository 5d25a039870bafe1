//! # MarkoViews — probabilistic databases with weighted views
//!
//! This is the umbrella crate of the MarkoViews workspace, a from-scratch Rust
//! reproduction of *Probabilistic Databases with MarkoViews* (Jha & Suciu,
//! PVLDB 5(11), 2012). It re-exports the public API of every member crate so
//! downstream users can depend on a single crate:
//!
//! * [`pdb`] — relational substrate and tuple-independent probabilistic
//!   databases (INDBs), including support for negative probabilities.
//! * [`query`] — unions of conjunctive queries (UCQs): AST, datalog parser,
//!   lineage computation, safety analysis and the safe-plan (lifted) evaluator.
//! * [`obdd`] — an Ordered Binary Decision Diagram engine built around a
//!   hash-consed `ObddManager` arena (diagrams are cheap `{manager, root}`
//!   handles), with the paper's concatenation-based `ConOBDD` construction,
//!   per-clause `apply` synthesis (the CUDD-style baseline) and a DNF fold
//!   over the sorted clause trie (shared prefixes built once, `apply` only
//!   where levels interleave).
//! * [`mvindex`] — the MV-index: augmented OBDDs plus the `MVIntersect` and
//!   cache-conscious `CC-MVIntersect` algorithms.
//! * [`mln`] — a Markov Logic Network engine with exact enumeration inference
//!   and an MC-SAT sampler (the Alchemy stand-in used by the benchmarks).
//! * [`core`] — MarkoViews, MVDBs, the translation to tuple-independent
//!   databases (Theorem 1), the pluggable [`core::Backend`] evaluation
//!   layer, and the end-to-end [`core::MvdbEngine`].
//! * [`dblp`] — a synthetic DBLP-like dataset generator reproducing the
//!   schema, probabilistic tables and MarkoViews of Figure 1.
//!
//! ## Quickstart
//!
//! ```
//! use markoviews::prelude::*;
//!
//! // Two possible tuples R(a), S(a) with weights 3 and 4, and a MarkoView
//! // asserting a negative correlation between them (Example 1 of the paper).
//! let mut mvdb = MvdbBuilder::new();
//! mvdb.relation("R", &["x"]).unwrap();
//! mvdb.relation("S", &["x"]).unwrap();
//! mvdb.weighted_tuple("R", &["a"], 3.0).unwrap();
//! mvdb.weighted_tuple("S", &["a"], 4.0).unwrap();
//! mvdb.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
//! let mvdb = mvdb.build().unwrap();
//!
//! let engine = MvdbEngine::compile(&mvdb).unwrap();
//! let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
//! let p = engine.probability(&q).unwrap();
//! assert!((p - 0.5 * 12.0 / (1.0 + 3.0 + 4.0 + 0.5 * 12.0)).abs() < 1e-9);
//! ```

pub use mv_core as core;
pub use mv_dblp as dblp;
pub use mv_index as mvindex;
pub use mv_mln as mln;
pub use mv_obdd as obdd;
pub use mv_pdb as pdb;
pub use mv_query as query;

/// Convenience re-exports of the most frequently used types.
pub mod prelude {
    pub use mv_core::backend::{
        ApproxAnswer, ApproxConfig, Backend, BruteForce, EvalContext, IntervalMethod, MonteCarlo,
        MonteCarloParams, MvIndexBackend, ObddPerQuery, SafePlan, Shannon,
    };
    pub use mv_core::{
        EngineBackend, MarkoView, Mvdb, MvdbBuilder, MvdbEngine, MvdbSession, ShardedEngine,
        ShardedSession, TranslatedIndb,
    };
    pub use mv_dblp::{DblpConfig, DblpDataset};
    pub use mv_index::{IntersectAlgorithm, MvIndex};
    pub use mv_mln::{GroundMln, McSatConfig, McSatSampler, Mln};
    pub use mv_obdd::{ConObddBuilder, ManagerStats, Obdd, ObddManager, PiOrder};
    pub use mv_pdb::{
        Database, InDb, PossibleTuple, Relation, Row, Schema, TupleId, Value, Weight,
    };
    pub use mv_query::{parse_query, parse_ucq, ConjunctiveQuery, Lineage, Ucq};
}
