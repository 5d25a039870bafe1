//! Running several workloads and passes as child processes, the result
//! file with its manifest, and `compare`.
//!
//! A child is this same binary with `--trace` given; it prints one
//! `metric …` line per metric, one `detail …` line per unbounded extra, and
//! a final JSON line (the driver's format).
//! The parent parses both, repeats as asked, and reports the median and the
//! quartiles of every metric.

use std::path::Path;
use std::process::{Command, Stdio};

use crate::common::{self, Sizing};
use crate::json::Json;
use crate::metrics::DETAILS;
use crate::spec::Spec;
use crate::{stats, RunReport, Workload};

/// Version of the result-file layout.
pub const SCHEMA_VERSION: u64 = 1;

/// Prints one run the way the driver reads it: a line per metric, then the
/// JSON object as the last line of standard output.
pub fn print_run(workload: Workload, report: &RunReport) {
    let d = &report.dataset;
    let tables = [
        ("author", d.author),
        ("wrote", d.wrote),
        ("publication", d.publication),
        ("homepage", d.homepage),
        ("first_pub", d.first_pub),
        ("dblp_affiliation", d.dblp_affiliation),
        ("co_pub_recent", d.co_pub_recent),
        ("student", d.student),
        ("advisor", d.advisor),
        ("affiliation", d.affiliation),
        ("v1", d.v1),
        ("v2", d.v2),
        ("v3", d.v3),
    ];
    for (table, rows) in tables {
        println!("dataset {table} {rows}");
    }
    for m in &report.metrics {
        println!(
            "metric {} {} {} {} n={}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    for m in &report.details {
        println!(
            "detail {} {} {} {} n={}",
            workload.name(),
            m.name,
            m.value,
            m.unit,
            m.samples
        );
    }
    let metrics = Json::obj(report.metrics.iter().map(|m| {
        (
            m.name,
            Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
        )
    }));
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(report.failed == 0)),
            ("attempted", Json::from(report.attempted)),
            ("failed", Json::from(report.failed)),
            ("metrics", metrics),
        ])
    );
}

/// What the parent keeps of one child run.
struct ChildRun {
    attempted: u64,
    failed: u64,
    /// `(name, value, unit, samples)`; `metric` and `detail` lines alike.
    metrics: Vec<(String, f64, String, usize)>,
    dataset: Vec<(String, f64)>,
}

/// The options of `run` a child needs.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workloads to run, in order.
    pub workloads: Vec<Workload>,
    /// Seed handed to every child.
    pub seed: u64,
    /// Seconds each measured phase lasts.
    pub seconds: u64,
    /// Untraced repetitions per workload.
    pub runs: usize,
    /// Hand `--corrupt-oracle` to the children.
    pub corrupt_oracle: bool,
}

fn child(workload: Workload, options: &RunOptions, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &options.seed.to_string()])
        .args(["--seconds", &options.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if options.corrupt_oracle {
        command.arg("--corrupt-oracle");
    }
    // `output` waits for the child, so no process outlives this call.
    let output = command.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        attempted: 0,
        failed: 0,
        metrics: Vec::new(),
        dataset: Vec::new(),
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        match fields.as_slice() {
            ["metric" | "detail", _, name, value, unit, n] => run.metrics.push((
                name.to_string(),
                value
                    .parse()
                    .map_err(|_| format!("bad metric line: {line}"))?,
                unit.to_string(),
                n.trim_start_matches("n=").parse().unwrap_or(0),
            )),
            ["dataset", table, rows] => run
                .dataset
                .push((table.to_string(), rows.parse().unwrap_or(0.0))),
            _ => {}
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{} (trace {}) exited with {} and printed no result: {e}",
            workload.name(),
            trace as u8,
            output.status
        )
    })?;
    let count = |key: &str| result.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    run.attempted = count("attempted");
    run.failed = count("failed");
    Ok(run)
}

/// Median, quartiles and every value of one metric over the runs.
fn summary(name: &str, runs: &[ChildRun]) -> Json {
    let of: Vec<&(String, f64, String, usize)> = runs
        .iter()
        .filter_map(|r| r.metrics.iter().find(|m| m.0 == name))
        .collect();
    let values: Vec<f64> = of.iter().map(|m| m.1).collect();
    let (q1, q3) = stats::quartiles(&values);
    Json::obj([
        ("unit", Json::from(of.first().map_or("", |m| m.2.as_str()))),
        ("median", Json::Num(stats::median(&values))),
        ("q1", Json::Num(q1)),
        ("q3", Json::Num(q3)),
        ("samples", Json::from(of.first().map_or(0, |m| m.3))),
        (
            "values",
            Json::Arr(values.into_iter().map(Json::Num).collect()),
        ),
    ])
}

fn tool_version(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn manifest(options: &RunOptions, dataset: &[(String, f64)]) -> Json {
    Json::obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        (
            "git_rev",
            Json::from(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::from(tool_version("rustc", &["--version"]))),
        ("nproc", Json::from(common::nproc())),
        ("seed", Json::from(options.seed)),
        ("seconds", Json::from(options.seconds)),
        ("runs", Json::from(options.runs)),
        // Every sizing constant, as the struct prints itself: never stale.
        ("sizing", Json::from(format!("{:?}", Sizing::full()))),
        (
            "dataset",
            Json::obj(dataset.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
        ),
    ])
}

/// Runs every selected workload `runs` times untraced and once traced, each
/// in its own process; prints every metric by name and unit; returns the
/// result document and whether any operation failed.
pub fn run_all(options: &RunOptions, spec: &Spec) -> Result<(Json, bool), String> {
    let mut workloads = Vec::new();
    let mut dataset = Vec::new();
    let mut any_failed = false;
    for &workload in &options.workloads {
        let mut untraced = Vec::new();
        for run in 0..options.runs {
            eprintln!(
                "[{}] untraced run {}/{}",
                workload.name(),
                run + 1,
                options.runs
            );
            untraced.push(child(workload, options, false)?);
        }
        eprintln!("[{}] traced run", workload.name());
        let traced = vec![child(workload, options, true)?];
        if let Some(first) = untraced.first() {
            dataset = first.dataset.clone();
        }

        println!("\n== {} ==", workload.name());
        let mut end_to_end = Vec::new();
        for decl in &spec.end_to_end {
            let s = summary(&decl.name, &untraced);
            print_summary(&decl.name, &s);
            end_to_end.push((decl.name.clone(), s));
        }
        let mut details = Vec::new();
        for &(name, _) in DETAILS {
            let s = summary(name, &untraced);
            print_summary(name, &s);
            details.push((name.to_string(), s));
        }
        let mut per_layer = Vec::new();
        for decl in &spec.per_layer {
            let s = summary(&decl.name, &traced);
            print_summary(&decl.name, &s);
            per_layer.push((decl.name.clone(), s));
        }
        let attempted: u64 = untraced.iter().chain(&traced).map(|r| r.attempted).sum();
        let failed: u64 = untraced.iter().chain(&traced).map(|r| r.failed).sum();
        println!("{:<36} {failed} of {attempted} operations", "failed");
        any_failed |= failed > 0;
        workloads.push((
            workload.name().to_string(),
            Json::obj([
                ("attempted", Json::from(attempted)),
                ("failed", Json::from(failed)),
                ("end_to_end", Json::Obj(end_to_end)),
                ("details", Json::Obj(details)),
                ("per_layer", Json::Obj(per_layer)),
            ]),
        ));
    }
    let document = Json::obj([
        ("manifest", manifest(options, &dataset)),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((document, any_failed))
}

fn print_summary(name: &str, s: &Json) {
    let num = |key: &str| s.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    let unit = s.get("unit").and_then(Json::as_str).unwrap_or("");
    let runs = s
        .get("values")
        .and_then(Json::as_arr)
        .map_or(0, <[Json]>::len);
    print!(
        "{name:<36} {:>16.6} {unit:<6} n={}",
        num("median"),
        num("samples")
    );
    if runs > 1 {
        print!("  [q1 {:.6}, q3 {:.6}, {runs} runs]", num("q1"), num("q3"));
    }
    println!();
}

/// Writes a result document, creating the directory.
pub fn write_result(path: &Path, document: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(path, format!("{document}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// How a metric on one workload moved between two result files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is better by more than either side's spread.
    Better,
    /// Within the bound and the spread.
    Same,
    /// Worse than the parent's median by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound, and the runs of the
    /// two sides overlap.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges one metric: `a` are the parent's runs, `b` the change's.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let worse_by = if med_a == 0.0 {
        0.0
    } else if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let spread = stats::spread(a).max(stats::spread(b));
    let beats = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let b_wins_all = b.iter().all(|&x| a.iter().all(|&y| beats(x, y)));
    if spread > bound {
        return if b_wins_all {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > spread && b_wins_all {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Compares two result files: one row per workload and end-to-end metric.
/// Returns `false` when any metric is worse or the failed share rose.
pub fn compare(a: &Json, b: &Json, spec: &Spec) -> Result<bool, String> {
    let workloads = |doc: &Json| -> Result<Vec<(String, Json)>, String> {
        Ok(doc
            .get("workloads")
            .and_then(Json::as_obj)
            .ok_or("no `workloads` object")?
            .to_vec())
    };
    let values = |w: &Json, metric: &str| -> Vec<f64> {
        w.get("end_to_end")
            .and_then(|e| e.get(metric))
            .and_then(|m| m.get("values"))
            .and_then(Json::as_arr)
            .map(|v| v.iter().filter_map(Json::as_f64).collect())
            .unwrap_or_default()
    };
    let failed_share = |w: &Json| {
        let n = |k: &str| w.get(k).and_then(Json::as_f64).unwrap_or(0.0);
        n("failed") / n("attempted").max(1.0)
    };
    let (wa, wb) = (workloads(a)?, workloads(b)?);
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>6}  verdict",
        "workload", "metric", "a median", "b median", "bound"
    );
    for (name, a_w) in &wa {
        let Some((_, b_w)) = wb.iter().find(|(n, _)| n == name) else {
            continue;
        };
        for decl in &spec.end_to_end {
            let (va, vb) = (values(a_w, &decl.name), values(b_w, &decl.name));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let bound = decl.bound.unwrap_or(0.0);
            let verdict = judge(&va, &vb, decl.higher_is_better, bound);
            ok &= verdict != Verdict::Worse;
            println!(
                "{name:<14} {:<18} {:>14.6} {:>14.6} {bound:>6.2}  {}",
                decl.name,
                stats::median(&va),
                stats::median(&vb),
                verdict.label()
            );
        }
        let (fa, fb) = (failed_share(a_w), failed_share(b_w));
        let rose = fb > fa;
        ok &= !rose;
        println!(
            "{name:<14} {:<18} {fa:>14.6} {fb:>14.6} {:>6.2}  {}",
            "failed_share",
            0.0,
            if rose { "worse" } else { "same" }
        );
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn judge_separates_the_four_verdicts() {
        let parent = [10.0, 10.1, 9.9, 10.05, 9.95];
        let same = [10.2, 10.1, 10.0, 10.3, 10.15];
        let worse = [11.5, 11.6, 11.4, 11.55, 11.45];
        let better = [8.5, 8.6, 8.4, 8.55, 8.45];
        let noisy = [8.0, 12.0, 10.0, 13.0, 7.0];
        assert_eq!(judge(&parent, &same, false, 0.1), Verdict::Same);
        assert_eq!(judge(&parent, &worse, false, 0.1), Verdict::Worse);
        assert_eq!(judge(&parent, &better, false, 0.1), Verdict::Better);
        assert_eq!(judge(&parent, &noisy, false, 0.1), Verdict::Unresolved);
        // Direction flips for a higher-is-better metric.
        assert_eq!(judge(&parent, &worse, true, 0.1), Verdict::Better);
        assert_eq!(judge(&parent, &better, true, 0.1), Verdict::Worse);
    }
}
