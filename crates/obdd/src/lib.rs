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
//!   [`PiOrder::infer`] places a query's separator attributes first.
//! * [`store`] — [`NodeStore`], the one OBDD builder of the workspace: a
//!   node vector, a stamped unique table and a memo emptied per operation,
//!   `mk`, `apply`, the DNF fold over the sorted clause trie
//!   ([`NodeStore::fold`]: shared prefixes built once, `apply` only where
//!   levels interleave),
//!   negation and concatenation on explicit stacks, and the ascending
//!   `probUnder` sweep ([`annotate`]). The MV-index's query kernel owns one
//!   and empties it per lineage.
//! * [`manager`] — [`ObddManager`], a store behind one lock that is never
//!   emptied: the arena every [`Obdd`] handle lives in. It builds single
//!   clauses ([`ObddManager::clause`]), which one [`Obdd::apply_or`] per
//!   clause folds into the CUDD-style baseline of Figure 8, and whole
//!   lineages ([`ObddManager::dnf`], the store's fold).
//! * [`obdd`] — [`Obdd`], a cheap `{manager, root}` handle: reduction,
//!   Boolean synthesis (`apply`), negation, concatenation of
//!   level-disjoint diagrams, and probability computation by Shannon
//!   expansion (valid for negative probabilities, Section 3.3). Both
//!   operands of a combination live in one manager.
//! * [`mod@reference`] — [`RefManager`], a deliberately unoptimised recursive
//!   implementation with SipHash hash-map caches: the reference the
//!   store's agreement tests (the manager's and the query kernel's) compare
//!   its iterative hot paths against.
//! * [`conobdd`] — [`ConObddBuilder`], the `ConOBDD(π, Q)` construction of
//!   Section 4.2 (rules R1–R4): it recurses over the query structure,
//!   expands separator variables over the active domain and *concatenates*
//!   the resulting independent OBDDs, falling back to synthesis only when
//!   necessary. For inversion-free queries the result has constant width
//!   (Proposition 2). Every diagram a builder produces shares the builder's
//!   manager.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod conobdd;
pub mod error;
pub mod manager;
pub mod obdd;
pub mod order;
pub mod reference;
pub mod store;

pub use conobdd::{ConObddBuilder, ConstructionStats};
pub use error::ObddError;
pub use manager::{ManagerStats, ObddManager, ObddNodes};
pub use obdd::{NodeId, Obdd, ObddNode};
pub use order::{PiOrder, VarOrder};
pub use reference::RefManager;
pub use store::{annotate, prob_at, BoolOp, NodeStore, StampedMap};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, ObddError>;
