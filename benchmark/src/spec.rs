//! `BENCHMARK.json`: what the benchmark is declared to measure.
//!
//! The file is the contract later changes are judged against, so the
//! program and the file must name the same workloads and metrics with the
//! same units. [`Spec::check_vocabulary`] enforces that in both directions
//! before anything runs.

use std::path::Path;

use crate::json::Json;
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::Workload;

/// One declared metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Decl {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Declared workload names.
    pub workloads: Vec<String>,
    /// Declared end-to-end metrics.
    pub end_to_end: Vec<Decl>,
    /// Declared per-layer metrics.
    pub per_layer: Vec<Decl>,
    /// Seconds one run measures.
    pub run_seconds: u64,
}

impl Spec {
    /// Reads and parses the file.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let doc = Json::parse(text)?;
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .ok_or_else(|| format!("`{key}` is not an array"))
        };
        let text_of = |item: &Json, key: &str| {
            item.get(key)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string `{key}`"))
        };
        let decls = |key: &str| -> Result<Vec<Decl>, String> {
            list(key)?
                .iter()
                .map(|item| {
                    Ok(Decl {
                        name: text_of(item, "name")?,
                        unit: text_of(item, "unit")?,
                        higher_is_better: match text_of(item, "better")?.as_str() {
                            "higher" => true,
                            "lower" => false,
                            other => return Err(format!("`better` is `{other}`")),
                        },
                        bound: item.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            workloads: list("workloads")?
                .iter()
                .map(|w| text_of(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: decls("end_to_end")?,
            per_layer: decls("per_layer")?,
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("`run_seconds` is not a number")? as u64,
        })
    }

    /// Fails unless the file and the program declare exactly the same
    /// workloads, metric names and units.
    pub fn check_vocabulary(&self) -> Result<(), String> {
        let mut problems = Vec::new();
        let mut compare = |what: &str, declared: Vec<String>, emitted: Vec<String>| {
            for name in &declared {
                if !emitted.contains(name) {
                    problems.push(format!("{what} `{name}` is declared but never emitted"));
                }
            }
            for name in &emitted {
                if !declared.contains(name) {
                    problems.push(format!("{what} `{name}` is emitted but not declared"));
                }
            }
        };
        compare(
            "workload",
            self.workloads.clone(),
            Workload::ALL.iter().map(|w| w.name().to_string()).collect(),
        );
        let tagged = |decls: &[Decl]| -> Vec<String> {
            decls
                .iter()
                .map(|d| format!("{} [{}]", d.name, d.unit))
                .collect()
        };
        let table = |t: &[(&str, &str)]| t.iter().map(|(n, u)| format!("{n} [{u}]")).collect();
        compare(
            "end-to-end metric",
            tagged(&self.end_to_end),
            table(END_TO_END),
        );
        compare(
            "per-layer metric",
            tagged(&self.per_layer),
            table(PER_LAYER),
        );
        for d in &self.end_to_end {
            if d.bound.is_none() {
                problems.push(format!("end-to-end metric `{}` has no bound", d.name));
            }
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed() -> Spec {
        Spec::load(&crate::repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn committed_file_matches_the_program() {
        committed().check_vocabulary().unwrap();
    }

    #[test]
    fn an_undeclared_or_unemitted_name_is_refused() {
        let mut spec = committed();
        let dropped = spec.per_layer.pop().unwrap();
        let err = spec.check_vocabulary().unwrap_err();
        assert!(err.contains(&dropped.name) && err.contains("not declared"));

        let mut spec = committed();
        spec.workloads.push("scan_all".to_string());
        let err = spec.check_vocabulary().unwrap_err();
        assert!(err.contains("scan_all") && err.contains("never emitted"));

        let mut spec = committed();
        spec.end_to_end[0].unit = "ms".to_string();
        assert!(spec.check_vocabulary().is_err());
    }
}
