//! # `mv-query` — unions of conjunctive queries over probabilistic databases
//!
//! This crate implements the query language of the MarkoViews paper
//! (Section 2.1) and the machinery needed to evaluate it over
//! tuple-independent probabilistic databases (`mv_pdb::InDb`):
//!
//! * [`ast`] — terms, atoms, comparison predicates, conjunctive queries
//!   ([`ConjunctiveQuery`]) and unions of conjunctive queries ([`Ucq`]).
//! * [`parser`] — a datalog-style parser: `Q(x) :- R(x, y), S(y), y > 5`.
//! * [`eval`] — evaluation of (unions of) conjunctive queries over
//!   deterministic [`mv_pdb::Database`] instances: the [`eval::EvalContext`]
//!   and the templates it resolves, plus the legacy backtracking evaluator
//!   kept as the one agreement oracle.
//! * [`plan`] — the compile stage: slot-based plans over the
//!   dictionary-encoded columnar store (static atom order, scan/probe
//!   access paths, register files of `u32` codes, atom constants as
//!   parameters).
//! * [`template`] — one plan per query shape: the constant-blind template
//!   key and the per-snapshot [`PlanCache`] every context can share.
//! * [`vec_exec`] — the one executor the production entry points run:
//!   fixed-size batches of partial matches over the code columns, CSR and
//!   pair join indexes, code-level `=`/`<>` comparisons.
//! * [`lineage`] — lineage computation: the Boolean provenance formula
//!   `Φ_Q` of a Boolean query over an [`mv_pdb::InDb`], in DNF over
//!   [`mv_pdb::TupleId`] variables.
//! * [`analysis`] — root variables, separator variables, hierarchical and
//!   inversion-free tests (Section 4.2), and safety detection.
//! * [`components`] — connected-component analysis of lineage clause sets
//!   (union-find), shared by the Monte Carlo sampler's component pruning
//!   and the scale-out sharding layer.
//! * [`partition`] — [`ComponentPartitioner`]: packs the components of
//!   `W`'s lineage into balanced disjoint shards and routes query clauses
//!   to their home shard (flagging cross-shard clauses for fallback).
//! * [`safe_plan`] — the lifted (safe-plan) probability evaluator for safe
//!   UCQs, correct for negative probabilities.
//! * [`shannon`] — exact lineage probability by Shannon expansion with
//!   independent-component decomposition (general fallback, also correct for
//!   negative probabilities).
//! * [`brute`] — exhaustive truth-table evaluation over the lineage
//!   variables, used as the ground-truth oracle in tests.
//! * [`approx`] — Monte Carlo approximate inference: a seedable possible-
//!   world sampler for the Theorem 1 conditional with Rao-Blackwellised
//!   `NV` variables, component pruning, and Wilson / Hoeffding / Normal
//!   confidence intervals with early stopping.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod approx;
pub mod ast;
pub mod brute;
pub mod budget;
pub mod components;
pub mod error;
pub mod eval;
pub mod lineage;
pub mod parser;
pub mod partition;
pub mod plan;
pub mod rewrite;
pub mod safe_plan;
pub mod shannon;
pub mod template;
pub mod vec_exec;

pub use analysis::QueryAnalysis;
pub use approx::{
    approx_lineage_probability, ApproxAccumulator, ApproxAnswer, ApproxConfig, ConditionalSampler,
    IntervalMethod,
};
pub use ast::{Atom, CmpOp, Comparison, ConjunctiveQuery, Term, Ucq};
pub use budget::{BudgetError, EvalBudget};
pub use components::{component_relevant_clauses, connected_components, Components, UnionFind};
pub use error::QueryError;
pub use eval::{evaluate_boolean, evaluate_ucq, Answer};
pub use lineage::{Clause, Lineage};
pub use parser::{parse_query, parse_ucq};
pub use partition::{ComponentPartitioner, Partition, RoutedLineage};
pub use plan::PlanStats;
pub use rewrite::{separator_domain, simplify_cq, SimplifiedCq};
pub use safe_plan::{safe_probability, SafePlanError};
pub use shannon::{shannon_probability, shannon_query_probability_with};
pub use template::PlanCache;
pub use vec_exec::{CsrIndex, ExecStats, VecCompiledUcq, BATCH_ROWS};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, QueryError>;
