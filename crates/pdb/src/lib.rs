//! # `mv-pdb` — relational substrate and tuple-independent probabilistic databases
//!
//! This crate is the bottom layer of the MarkoViews workspace. It provides
//! the data model that every other crate builds on:
//!
//! * [`Value`], [`Row`] — typed constants and tuples of constants.
//! * [`Schema`], [`RelationSchema`], [`RelId`] — relation names and attributes.
//! * [`Relation`], [`Database`] — in-memory deterministic instances with
//!   duplicate elimination, each row stored once as column-major
//!   dictionary codes and decoded to `Value`s on request.
//! * [`CsrIndex`] — the join index over those codes, owned by the
//!   [`Relation`] instance it indexes.
//! * [`ValueInterner`] — the database-wide dictionary (`Value` ↔ dense
//!   `u32` code) behind the columnar store; join keys compare and hash as
//!   integers in the compiled query evaluator.
//! * [`Weight`] — the weight (odds) representation of Definition 2 of the
//!   paper, with the `w = p / (1 - p)` correspondence, hard (infinite)
//!   weights, and support for the *negative* weights produced by the
//!   MarkoView translation (Section 3.3).
//! * [`TupleId`], [`InDb`] — a tuple-independent probabilistic database: a set
//!   of possible tuples, each annotated with a weight, plus possible-world
//!   enumeration used as the exact ground truth in tests and small examples.
//!
//! The crate is deliberately free of query-language concerns; conjunctive
//! queries, lineage and safe plans live in `mv-query`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod access;
mod chunked;
pub mod database;
pub mod error;
pub mod indb;
pub mod interner;
pub mod relation;
pub mod schema;
pub mod value;
pub mod weight;
pub mod worlds;

pub use access::CsrIndex;
pub use database::Database;
pub use error::PdbError;
pub use indb::{InDb, InDbBuilder, PossibleTuple, TupleId};
pub use interner::ValueInterner;
pub use relation::Relation;
pub use schema::{RelId, RelationSchema, Schema};
pub use value::{Row, Value};
pub use weight::Weight;
pub use worlds::{PossibleWorld, WorldIter};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, PdbError>;
