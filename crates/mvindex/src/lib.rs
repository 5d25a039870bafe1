//! # `mv-index` — the MV-index of Section 4
//!
//! The MV-index is the offline compilation target of the MarkoView helper
//! query `W`: a set of augmented OBDDs (one per independent block of `W`,
//! typically one per separator value) plus the lookup structures needed to
//! evaluate `P0(Q ∧ ¬W)` online while touching only the blocks that the
//! query's lineage actually mentions.
//!
//! * [`augmented`] — [`AugmentedObdd`]: an OBDD whose nodes carry
//!   `probUnder` (probability of the sub-diagram) and `reachability`
//!   (probability mass of all root-to-node paths).
//! * [`index`] — [`MvIndex`]: the block table, compiled set-at-a-time (one
//!   keyed evaluation of `W`, one DNF fold per separator value), the
//!   `InterBddIndex` (tuple → block) and `IntraBddIndex` (tuple → nodes)
//!   lookup structures, and the query-time entry points `prob_w`,
//!   `conditional_probability`, `prob_q_and_not_w`, `prob_q_or_w`.
//! * [`intersect`] — the two intersection algorithms of Section 4.3,
//!   [`intersect::mv_intersect`] (pointer-based) and
//!   [`intersect::cc_mv_intersect`] (cache-conscious: nodes flattened into a
//!   DFS-ordered vector with their annotations inline): one traversal,
//!   memoised on the node pairs it visits, over two forms of the index side.
//! * [`kernel`] — [`QueryScratch`]: the per-context buffers a query is
//!   folded, annotated and intersected in. The compiled index is something
//!   readers never write.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod augmented;
pub mod error;
pub mod index;
pub mod intersect;
pub mod kernel;

pub use augmented::AugmentedObdd;
pub use error::MvIndexError;
pub use index::{IndexStats, IntersectAlgorithm, MvIndex};
pub use intersect::{cc_mv_intersect, mv_intersect};
pub use kernel::QueryScratch;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MvIndexError>;
