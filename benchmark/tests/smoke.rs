//! All four workloads at 500 authors, through the same code path as the
//! committed benchmark, a hundred times smaller.

use mv_benchmark::common::Sizing;
use mv_benchmark::json::Json;
use mv_benchmark::metrics::{DETAILS, END_TO_END, PER_LAYER};
use mv_benchmark::{run_once, RunConfig, RunReport, Workload};

fn config(workload: Workload, trace: bool) -> RunConfig {
    RunConfig {
        workload,
        seed: 7,
        // The served workload needs room for its four updates.
        seconds: if workload == Workload::ServeRw {
            1.0
        } else {
            0.3
        },
        trace,
        sizing: Sizing::smoke(),
        corrupt_oracle: false,
        trace_dir: None,
    }
}

fn run(workload: Workload, trace: bool) -> RunReport {
    run_once(&config(workload, trace))
        .unwrap_or_else(|e| panic!("{} (trace {trace}) failed: {e}", workload.name()))
}

#[test]
fn every_workload_emits_every_declared_metric() {
    for workload in Workload::ALL {
        for (trace, table) in [(false, END_TO_END), (true, PER_LAYER)] {
            let report = run(workload, trace);
            let what = format!("{} (trace {trace})", workload.name());
            assert_eq!(report.failed, 0, "{what}: no operation may fail");
            assert!(report.attempted >= 1, "{what}: nothing attempted");
            let emitted: Vec<(&str, &str)> =
                report.metrics.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(emitted, table, "{what}: names and units, in table order");
            let details: Vec<(&str, &str)> =
                report.details.iter().map(|m| (m.name, m.unit)).collect();
            assert_eq!(
                details,
                if trace { &[][..] } else { DETAILS },
                "{what}: details"
            );
            for m in report.metrics.iter().chain(&report.details) {
                assert!(m.value.is_finite(), "{what}: {} is not finite", m.name);
                if !trace {
                    assert!(m.value > 0.0, "{what}: {} is 0", m.name);
                    assert!(m.samples > 0, "{what}: {} has no samples", m.name);
                }
            }
        }
    }
}

#[test]
fn each_workload_loads_the_layers_it_claims_and_bypasses_the_rest() {
    let point = run(Workload::PointBatch, true);
    assert!(point.value("query.parse.ns_per_op").unwrap() > 0.0);
    assert!(point.value("query.route.ns_per_op").unwrap() > 0.0);
    assert_eq!(point.value("query.exec.blocks_scanned"), Some(0.0));
    assert_eq!(point.value("serve.admitted"), Some(0.0));

    let broad = run(Workload::BroadSelect, true);
    assert!(broad.value("query.exec.blocks_scanned").unwrap() > 0.0);
    assert!(broad.value("heavy_p50_ms").unwrap() > 0.0);
    assert!(
        broad.value("query.lineage.clauses_per_op").unwrap()
            > 10.0 * point.value("query.lineage.clauses_per_op").unwrap()
    );

    let adhoc = run(Workload::AdhocAnswers, true);
    assert!(adhoc.value("core.answers.answers_per_op").unwrap() > 0.0);
    assert!(adhoc.value("core.context.cold_build_ns").unwrap() > 0.0);
    assert_eq!(adhoc.value("query.route.ns_per_op"), Some(0.0));
    assert!(
        adhoc.value("query.lineage.cold_ns").unwrap()
            > adhoc.value("query.lineage.warm_ns_per_op").unwrap()
    );

    let serve = run(Workload::ServeRw, true);
    assert!(serve.value("serve.admitted").unwrap() > 0.0);
    assert_eq!(serve.value("serve.rejected"), Some(0.0));
    assert!(serve.value("update.apply_struct_ms").unwrap() > 0.0);
    assert!(serve.value("update_weight_p50_ms").unwrap() > 0.0);
    assert_eq!(serve.value("update.shards_rebuilt_per_struct"), Some(1.0));
}

#[test]
fn deterministic_counts_repeat_for_one_seed() {
    const COUNTS: [&str; 9] = [
        "query.lineage.clauses_per_op",
        "query.exec.blocks_scanned",
        "query.exec.blocks_skipped",
        "query.exec.csr_probe_steps",
        "query.plan.steps",
        "mvindex.blocks",
        "mvindex.nodes",
        "core.translate.tuples",
        "core.shard.components",
    ];
    for workload in [
        Workload::PointBatch,
        Workload::BroadSelect,
        Workload::AdhocAnswers,
    ] {
        let (a, b) = (run(workload, true), run(workload, true));
        for name in COUNTS {
            assert_eq!(
                a.value(name),
                b.value(name),
                "{}: {name} differs between two runs of one seed",
                workload.name()
            );
        }
        let other = run_once(&RunConfig {
            seed: 8,
            ..config(workload, true)
        })
        .unwrap();
        assert_ne!(
            a.value("core.translate.tuples"),
            other.value("core.translate.tuples"),
            "{}: the seed does not reach the corpus",
            workload.name()
        );
    }
}

#[test]
fn a_corrupted_oracle_value_fails_the_run() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let report = run_once(&RunConfig {
                corrupt_oracle: true,
                ..config(workload, trace)
            })
            .unwrap();
            assert!(
                report.failed > 0,
                "{} (trace {trace}): a perturbed oracle value went unnoticed",
                workload.name()
            );
        }
    }
}

#[test]
fn a_traced_run_writes_its_spans() {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("traces");
    let report = run_once(&RunConfig {
        trace_dir: Some(dir.clone()),
        ..config(Workload::AdhocAnswers, true)
    })
    .unwrap();
    assert_eq!(report.failed, 0);
    let text = std::fs::read_to_string(dir.join("trace-adhoc_answers.json")).unwrap();
    let doc = Json::parse(&text).unwrap();
    assert_eq!(
        doc.get("workload").and_then(Json::as_str),
        Some("adhoc_answers")
    );
    let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
    assert!(!spans.is_empty());
    let names: Vec<&str> = spans
        .iter()
        .filter_map(|s| s.get("name").and_then(Json::as_str))
        .collect();
    for layer in [
        "op",
        "query.parse",
        "query.lineage",
        "obdd.synth",
        "mvindex.intersect",
    ] {
        assert!(names.contains(&layer), "no `{layer}` span");
    }
    for span in spans {
        let num = |k: &str| span.get(k).and_then(Json::as_f64).unwrap();
        assert!(num("end_ns") >= num("start_ns"));
        // A child starts inside its parent and shares its operation id.
        if let Some(parent) = span.get("parent").and_then(Json::as_f64) {
            let parent = &spans[parent as usize];
            assert_eq!(parent.get("op"), span.get("op"));
            assert!(parent.get("start_ns").and_then(Json::as_f64).unwrap() <= num("start_ns"));
        }
    }
}
