//! # `mv-obdd` — Ordered Binary Decision Diagrams for probabilistic databases
//!
//! This crate implements the OBDD machinery of Section 4 of the MarkoViews
//! paper:
//!
//! * [`order`] — variable orders over tuple variables. [`PiOrder`] captures
//!   the per-relation attribute permutations `π` of Section 4.2 and derives
//!   the total order `Π` over the probabilistic tuples of an
//!   [`mv_pdb::InDb`] (recursive grouping by the first attribute of each
//!   relation over the ordered active domain).
//! * [`manager`] — [`ObddManager`], the shared, hash-consed, append-only
//!   node arena every diagram lives in: one global unique table, persistent
//!   apply/negate/concat memos, and a per-node probability cache keyed by a
//!   *weight epoch*. See the module docs for the memory model (arena
//!   growth, cache eviction) and the threading contract.
//! * [`obdd`] — [`Obdd`], a cheap `{manager, root}` handle: reduction,
//!   Boolean synthesis (`apply`), negation, concatenation of
//!   level-disjoint diagrams, and probability computation by Shannon
//!   expansion (valid for negative probabilities, Section 3.3). Combining
//!   handles never deep-copies node stores when they share a manager.
//! * [`synthesis`] — [`SynthesisBuilder`], the generic bottom-up builder that
//!   synthesises an OBDD from a DNF lineage clause by clause. This is the
//!   stand-in for native CUDD used as the baseline of Figure 8.
//! * [`mod@reference`] — [`RefManager`], a deliberately unoptimised recursive
//!   implementation with SipHash hash-map caches: the agreement oracle for
//!   the manager's iterative hot paths and the baseline the
//!   `manager_hotpath` microbenchmark measures speedups against.
//! * [`conobdd`] — [`ConObddBuilder`], the `ConOBDD(π, Q)` construction of
//!   Section 4.2 (rules R1–R4): it recurses over the query structure,
//!   expands separator variables over the active domain and *concatenates*
//!   the resulting independent OBDDs, falling back to synthesis only when
//!   necessary. For inversion-free queries the result has constant width
//!   (Proposition 2). Every diagram a builder produces shares the builder's
//!   manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conobdd;
pub mod error;
pub mod manager;
pub mod obdd;
pub mod order;
pub mod reference;
pub mod synthesis;

pub use conobdd::{ConObddBuilder, ConstructionStats};
pub use error::ObddError;
pub use manager::{CompactOutcome, ManagerStats, NodeProbs, ObddManager, ObddNodes};
pub use obdd::{NodeId, Obdd, ObddNode};
pub use order::{PiOrder, VarOrder};
pub use reference::RefManager;
pub use synthesis::SynthesisBuilder;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ObddError>;
