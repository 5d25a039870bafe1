//! Command line of the repository benchmark.
//!
//! ```text
//! mv-benchmark run [--workload NAME]… [--seed N] [--seconds N] [--runs N] [--out FILE]
//! mv-benchmark run --workload NAME --seed N --seconds N --trace 0|1
//! mv-benchmark compare A.json B.json
//! ```
//!
//! With `--trace` the process *is* one run of one workload and its last
//! line of output is the JSON object the driver reads. Without it, every
//! selected workload runs in child processes — `--runs` untraced passes and
//! one traced pass — and the result file is written.

use std::path::PathBuf;
use std::process::ExitCode;

use mv_benchmark::common::Sizing;
use mv_benchmark::json::Json;
use mv_benchmark::report::{self, RunOptions};
use mv_benchmark::spec::Spec;
use mv_benchmark::{out_dir, repo_root, run_once, RunConfig, Workload};

const USAGE: &str = "usage: mv-benchmark run [--workload NAME]... [--seed N] [--seconds N] \
[--trace 0|1] [--runs N] [--out FILE] [--corrupt-oracle]\n       mv-benchmark compare A.json B.json";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn load_spec() -> Result<Spec, String> {
    let spec = Spec::load(&repo_root().join("BENCHMARK.json"))?;
    spec.check_vocabulary()
        .map_err(|e| format!("BENCHMARK.json and the benchmark disagree: {e}"))?;
    Ok(spec)
}

fn run(args: &[String]) -> Result<bool, String> {
    let spec = load_spec()?;
    let mut workloads = Vec::new();
    let mut seed = 42u64;
    let mut seconds = spec.run_seconds;
    let mut trace = None;
    let mut runs = 1usize;
    let mut out = out_dir().join("result.json");
    let mut corrupt_oracle = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let number = |text: &String| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let workload = Workload::from_name(name)
                    .filter(|w| spec.workloads.iter().any(|d| d == w.name()))
                    .ok_or_else(|| format!("`{name}` is not a workload BENCHMARK.json declares"))?;
                workloads.push(workload);
            }
            "--seed" => seed = number(value()?)?,
            "--seconds" => seconds = number(value()?)?.max(1),
            "--runs" => runs = number(value()?)?.max(1) as usize,
            "--trace" => trace = Some(number(value()?)? != 0),
            "--out" => out = PathBuf::from(value()?),
            "--corrupt-oracle" => corrupt_oracle = true,
            other => return Err(format!("unknown option {other}\n{USAGE}")),
        }
    }

    let Some(trace) = trace else {
        if workloads.is_empty() {
            workloads = Workload::ALL.to_vec();
        }
        let options = RunOptions {
            workloads,
            seed,
            seconds,
            runs,
            corrupt_oracle,
        };
        let (document, any_failed) = report::run_all(&options, &spec)?;
        report::write_result(&out, &document)?;
        println!("\nresult written to {}", out.display());
        return Ok(!any_failed);
    };

    let [workload] = workloads[..] else {
        return Err(format!("--trace runs exactly one --workload\n{USAGE}"));
    };
    let report = run_once(&RunConfig {
        workload,
        seed,
        seconds: seconds as f64,
        trace,
        sizing: Sizing::full(),
        corrupt_oracle,
        trace_dir: Some(out_dir()),
    })?;
    report::print_run(workload, &report);
    Ok(report.failed == 0)
}

fn compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err(USAGE.to_string());
    };
    let spec = load_spec()?;
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    report::compare(&load(a)?, &load(b)?, &spec)
}
