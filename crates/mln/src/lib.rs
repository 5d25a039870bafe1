//! # `mv-mln` — Markov Logic Networks
//!
//! A Markov Logic Network (MLN, Section 2.3) is a set of weighted first-order
//! features. Grounding the features over a finite domain produces a Markov
//! Network over the ground atoms; the weight of a world is the product of the
//! weights of the ground features it satisfies, and probabilities are
//! obtained by normalising with the partition function `Z`.
//!
//! This crate provides:
//!
//! * [`ground::GroundMln`] — a grounded MLN over the Boolean tuple variables
//!   of an [`mv_pdb::InDb`], with exact inference by world enumeration
//!   (the ground-truth oracle for Definition 4 of the paper);
//! * [`mln::Mln`] — first-order features expressed as UCQs with free
//!   variables, together with a grounder that instantiates them against a
//!   database (each answer of the feature query becomes one ground feature
//!   whose formula is its lineage);
//! * [`mcsat`] — the MC-SAT sampler (slice sampling with a SampleSAT inner
//!   loop), which is the approximate-inference baseline the paper compares
//!   against (Alchemy's MC-SAT, Section 5.1).
//!
//! MVDBs are strictly less expressive than MLNs (Section 2.5); the
//! `mv-core` crate builds the [`ground::GroundMln`] corresponding to an MVDB
//! and uses it both as the semantics reference and as the Alchemy-style
//! baseline for the benchmarks.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod error;
pub mod ground;
pub mod map;
pub mod mcsat;
pub mod mln;

pub use error::MlnError;
pub use ground::{GroundFeature, GroundMln};
pub use map::{simulated_annealing_map, AnnealingConfig, MapState};
pub use mcsat::{McSatConfig, McSatSampler};
pub use mln::{Feature, Mln};

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, MlnError>;
