//! # The repository benchmark
//!
//! Four workloads over the seeded synthetic DBLP MVDB, each of which loads
//! some layers of the engine and bypasses others (see the README for the
//! table). The benchmark drives the engine only through its public
//! functions. An untraced run reports the end-to-end metrics; a traced run
//! calls each layer's public entry point inside a span and reports the
//! per-layer metrics, so end-to-end numbers never carry tracing cost.
//!
//! One run is one workload in one process: [`run_once`]. The `run`
//! sub-command of the binary either is that process (`--trace` given, the
//! form the driver uses) or spawns one per workload, pass and repetition and
//! writes a result file with a manifest ([`report`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod common;
pub mod json;
pub mod metrics;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod workloads;

use std::path::PathBuf;

use common::Sizing;
use metrics::Metric;

/// The four workloads. Names are fixed; later issues cite them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, batches of point queries as text through one session.
    PointBatch,
    /// Closed loop, name selections: 48 broad operations then 1 heavy.
    BroadSelect,
    /// Closed loop, one non-Boolean query per call, fresh context each.
    AdhocAnswers,
    /// Open loop through the server, reads beside a writer.
    ServeRw,
}

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::PointBatch,
        Workload::BroadSelect,
        Workload::AdhocAnswers,
        Workload::ServeRw,
    ];

    /// The workload's fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PointBatch => "point_batch",
            Workload::BroadSelect => "broad_select",
            Workload::AdhocAnswers => "adhoc_answers",
            Workload::ServeRw => "serve_rw",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload's latencies are reported at reference machine
    /// speed (see [`common::Calibrator`]). Measured on this machine: the
    /// calibration kernel drifts with the workloads that spend their time in
    /// hash and OBDD node lookups and cut their run-to-run spread to a
    /// third; `adhoc_answers` spends its time building indexes and tearing
    /// them down, does not drift with the kernel, and is steadier unscaled.
    pub fn latency_at_reference_speed(self) -> bool {
        self != Workload::AdhocAnswers
    }

    /// Whether throughput is scaled too: the closed loops whose latency is.
    /// `serve_rw`'s rate is set by its schedule, not by the machine.
    pub fn throughput_at_reference_speed(self) -> bool {
        matches!(self, Workload::PointBatch | Workload::BroadSelect)
    }
}

/// Everything one run depends on.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the corpus, the query permutation and every sample.
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// `false`: end-to-end metrics, tracing off. `true`: per-layer metrics.
    pub trace: bool,
    /// Scale constants.
    pub sizing: Sizing,
    /// Perturb one oracle value, which must fail the run.
    pub corrupt_oracle: bool,
    /// Where a traced run writes `trace-<workload>.json`; `None` keeps the
    /// spans in memory only.
    pub trace_dir: Option<PathBuf>,
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that errored, were refused, lost, answered below the
    /// exact rung, or disagreed with the oracle.
    pub failed: u64,
    /// Every metric of the pass, in table order.
    pub metrics: Vec<Metric>,
    /// Unbounded extras of an untraced pass ([`metrics::DETAILS`]).
    pub details: Vec<Metric>,
    /// Table sizes of the generated corpus, for the manifest.
    pub dataset: mv_dblp::DatasetStats,
}

impl RunReport {
    /// The value of a metric by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Runs one workload once, in this process.
pub fn run_once(config: &RunConfig) -> Result<RunReport, String> {
    match config.workload {
        Workload::PointBatch => workloads::point_batch::run(config),
        Workload::BroadSelect => workloads::broad_select::run(config),
        Workload::AdhocAnswers => workloads::adhoc_answers::run(config),
        Workload::ServeRw => workloads::serve_rw::run(config),
    }
}

/// The repository root: the parent of this package's directory.
pub fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package lives in a directory of the repository")
        .to_path_buf()
}

/// Where results and traces go: `benchmark/out/`, which is git-ignored.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}
