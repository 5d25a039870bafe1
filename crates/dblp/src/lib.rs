//! # `mv-dblp` — a synthetic DBLP-like dataset with MarkoViews
//!
//! The paper's evaluation (Section 5) runs on the DBLP bibliography enriched
//! with the probabilistic tables and MarkoViews of Figure 1. The DBLP dump
//! itself is not available in this environment, so this crate generates a
//! *synthetic* co-authorship corpus with the same schema, the same derived
//! views, the same probabilistic tables (with the weight formulas of
//! Figure 1) and the same three MarkoViews, scalable through the number of
//! authors (`aid` domain) — exactly the knob the paper's experiments vary.
//!
//! What is generated (all sizes reported in [`DatasetStats`]):
//!
//! | table | kind | contents |
//! |-------|------|----------|
//! | `Author(aid, name)` | deterministic | one row per author; group seniors are named `prof…`, juniors `author…` |
//! | `Wrote(aid, pid)` | deterministic | co-authorship edges |
//! | `Pub(pid, title, year)` | deterministic | publications with years |
//! | `HomePage(aid, url)` | deterministic | home pages of the seniors |
//! | `FirstPub(aid, year)` | deterministic (derived) | first publication year per author |
//! | `DBLPAffiliation(aid, inst)` | deterministic (derived) | affiliations extracted from home pages |
//! | `CoPubRecent(aid1, aid2)` | deterministic (derived) | author pairs with many recent joint papers (the materialised aggregate sub-query of V3, footnote 3) |
//! | `Student(aid, year)` | probabilistic | weight `exp(1 − 0.15·(year − year_first))` |
//! | `Advisor(aid1, aid2)` | probabilistic | weight `exp(0.25·copubs)` |
//! | `Affiliation(aid, inst)` | probabilistic | weight `exp(0.1·copubs)` |
//! | `V1(aid1, aid2)[copubs/2]` | MarkoView | student/advisor positive correlation |
//! | `V2(aid1, aid2, aid3)[0]` | MarkoView | "a person has only one advisor" (denial) |
//! | `V3(aid1, aid2, inst)[recent_copubs/2]` | MarkoView | shared affiliation of frequent co-authors |
//!
//! The generator is fully deterministic given the seed in [`DblpConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod generate;
pub mod queries;

pub use generate::{DatasetStats, DblpConfig, DblpDataset};
