//! # `mv-index` — the MV-index of Section 4
//!
//! The MV-index is the offline compilation target of the MarkoView helper
//! query `W`: the annotated diagrams of `¬W_k` for every independent block
//! of `W` (typically one per separator value) plus the lookup structures
//! needed to evaluate `P0(Q ∧ ¬W)` online while touching only the blocks
//! that the query's lineage actually mentions.
//!
//! * [`index`] — [`MvIndex`]: one immutable, `Arc`-shared block table
//!   (every block's nodes in one flat vector with `probUnder` inline, one
//!   row per block, the `InterBddIndex` from tuple to block), compiled
//!   set-at-a-time (one keyed evaluation of `W`, one kernel fold per
//!   separator value), and the query-time entry points `prob_w`,
//!   `conditional_probability`, `prob_q_and_not_w`, `prob_q_or_w`.
//! * [`kernel`] — [`QueryScratch`]: the per-context buffers a query is
//!   folded, annotated and intersected in; the same fold and annotation
//!   sweep compile the table. The compiled index is something readers
//!   never write.
//! * [`intersect`] — the two intersection algorithms of Section 4.3,
//!   [`intersect::mv_intersect`] (pointer-based, over an arena) and
//!   [`intersect::cc_mv_intersect`] (cache-conscious: nodes flattened into a
//!   DFS-ordered vector with their annotations inline): one traversal,
//!   memoised on the node pairs it visits, over two forms of the index
//!   side. The index reads the second; Fig. 9 and the tests compare both.
//! * [`augmented`] — [`AugmentedObdd`]: an OBDD in an arena whose nodes
//!   carry `probUnder` (probability of the sub-diagram) and `reachability`
//!   (probability mass of all root-to-node paths) — MVIntersect's index
//!   side, and the tests' oracle for the table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

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
