//! Vectorized / legacy evaluator agreement on the DBLP corpus.
//!
//! The property suite in `crates/query/tests/plan_agreement.rs` covers
//! random databases; this suite pins the same contract on the *fixed* data
//! the paper's evaluation runs on — the seeded synthetic DBLP generator —
//! across every workload family (Figures 5, 6 and 11), selections whose
//! constant sits in a comparison, and the translated helper query `W`
//! itself. All comparisons are exact: identical answer sets, identical
//! canonical lineages, identical per-answer lineage maps — between the
//! vectorized batch executor (production) and the legacy backtracking
//! evaluator (oracle).

use markoviews::prelude::*;
use markoviews::query::eval::{
    evaluate_ucq_legacy_with, evaluate_ucq_with, EvalContext as QueryEvalContext,
};
use markoviews::query::lineage::{
    answer_lineages_legacy, answer_lineages_with, lineage_legacy_with, lineage_with,
};

#[test]
fn dblp_workloads_agree_between_compiled_and_legacy_evaluators() {
    let data = DblpDataset::generate(DblpConfig::with_authors(120)).unwrap();
    let translated = TranslatedIndb::new(&data.mvdb).unwrap();
    let indb = translated.indb();
    let ctx = QueryEvalContext::new(indb.database());

    let mut workload: Vec<Ucq> = Vec::new();
    workload.extend(data.advisor_of_student_workload(3).unwrap());
    workload.extend(data.students_of_advisor_workload(3).unwrap());
    workload.extend(data.affiliation_workload(2).unwrap());
    // An equality constant written as a comparison: the executor probes
    // `Advisor` on the constant instead of scanning and filtering.
    for student in data.sample_students(3) {
        let text = format!("Q(aid2) :- Advisor(aid1, aid2), aid1 = {student}");
        workload.push(parse_ucq(&text).unwrap());
    }

    for q in &workload {
        // Non-Boolean: answers and per-answer lineages agree exactly.
        let mut vectorized: Vec<Row> = evaluate_ucq_with(q, &ctx)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        let mut legacy: Vec<Row> = evaluate_ucq_legacy_with(q, &ctx)
            .unwrap()
            .into_iter()
            .map(|a| a.row)
            .collect();
        vectorized.sort();
        legacy.sort();
        assert_eq!(vectorized, legacy, "answers diverge on {q}");

        let per_vectorized = answer_lineages_with(q, indb, &ctx).unwrap();
        let per_legacy = answer_lineages_legacy(q, indb).unwrap();
        assert_eq!(per_vectorized, per_legacy, "answer lineages diverge on {q}");

        // Boolean form: canonical lineages agree exactly.
        let b = q.boolean();
        let lin = lineage_with(&b, indb, &ctx).unwrap();
        assert_eq!(
            lin,
            lineage_legacy_with(&b, indb, &ctx).unwrap(),
            "Boolean lineage diverges on {b}"
        );
    }

    // The helper query W — the self-join whose lineage dominates the
    // paper's offline phase (Figure 4) — must agree as well, through both
    // the executor's scans and its CSR probes.
    let w = translated.w().expect("the DBLP MVDB has views");
    let lin_w = lineage_with(w, indb, &ctx).unwrap();
    assert_eq!(
        lin_w,
        lineage_legacy_with(w, indb, &ctx).unwrap(),
        "lineage of W diverges"
    );
    let exec = ctx.exec_stats();
    assert!(exec.csr_probe_steps > 0, "W join never probed a CSR index");
    assert!(exec.blocks_scanned > 0, "W join never scanned a block");
}

#[test]
fn engine_probabilities_are_unchanged_by_the_compiled_evaluator() {
    // End-to-end: the MV-index pipeline (which collects lineage through the
    // vectorized executor) still matches the brute-force validator on a dataset
    // small enough to enumerate.
    let data = DblpDataset::generate(DblpConfig::with_authors(24)).unwrap();
    let engine = MvdbEngine::compile(&data.mvdb).unwrap();
    let queries = data.students_of_advisor_workload(2).unwrap();
    for q in &queries {
        let b = q.boolean();
        let via_index = engine.probability(&b).unwrap();
        let via_brute = engine
            .probability_with_backend(&b, EngineBackend::Shannon)
            .unwrap();
        assert!(
            (via_index - via_brute).abs() < 1e-9,
            "{b}: {via_index} vs {via_brute}"
        );
    }
}
