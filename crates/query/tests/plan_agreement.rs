//! Vectorized / legacy evaluator agreement.
//!
//! Two independently-implemented evaluators are pinned against each other
//! over random databases and a fixed family of queries covering joins,
//! unions, constants (present and absent, in atoms and in comparisons),
//! self-joins, repeated variables (within one atom and across a whole
//! body), atoms shared across disjuncts, all-constant atoms and every
//! comparison kind:
//!
//! * the **vectorized** batch executor (`mv_query::vec_exec`) behind the
//!   production entry points — CSR join indexes, code-level
//!   `=`/`<>` comparisons, row selections for filtered scans;
//! * the **legacy** String-keyed backtracking evaluator, which shares only
//!   the join order with it.
//!
//! All deterministic comparisons are **exact**: set equality of answers and
//! equality of canonical lineages — not approximate agreement. The flat
//! per-answer clauses (`answer_clauses_with`) are held against the oracle
//! answer by answer, in row order. Plans are
//! templates with the atom constants as parameters, so the template tests
//! compile a shape through one instance and run the others through the
//! cached plan, each against the oracle. A third
//! implementation joins the differential loop: the Monte Carlo estimator of
//! `mv_query::approx`, checked *statistically* — the brute-force lineage
//! probability must fall inside its high-confidence interval (seeds are
//! derived from the database content, so any counterexample is
//! reproducible).

use mv_pdb::{InDbBuilder, Row, Value, Weight};
use mv_query::approx::{approx_lineage_probability, ApproxConfig};
use mv_query::brute::brute_force_lineage_probability;
use mv_query::eval::{evaluate_ucq_legacy_with, evaluate_ucq_with, EvalContext};
use mv_query::lineage::{
    answer_clauses_with, answer_lineages, answer_lineages_legacy, answer_lineages_with,
    lineage_legacy_with, lineage_with, AnswerClauses, Lineage,
};
use mv_query::{
    parse_ucq, Atom, CmpOp, Comparison, ConjunctiveQuery, EvalBudget, PlanCache, QueryError, Term,
    Ucq,
};
use proptest::prelude::*;
use std::time::Duration;

/// A random tuple-independent database over R(a), S(a, b), T(b) with a
/// small shared integer domain (dense enough that joins, self-joins and
/// constants all hit).
#[derive(Debug, Clone)]
struct RandomDb {
    r_rows: Vec<i64>,
    s_rows: Vec<(i64, i64)>,
    t_rows: Vec<i64>,
}

fn db_strategy() -> impl Strategy<Value = RandomDb> {
    let domain = 0i64..5;
    (
        proptest::collection::vec(domain.clone(), 0..5),
        proptest::collection::vec((0i64..5, 0i64..5), 0..8),
        proptest::collection::vec(domain, 0..5),
    )
        .prop_map(|(r_rows, s_rows, t_rows)| RandomDb {
            r_rows,
            s_rows,
            t_rows,
        })
}

fn build(desc: &RandomDb) -> mv_pdb::InDb {
    let mut b = InDbBuilder::new();
    let r = b.probabilistic_relation("R", &["a"]).unwrap();
    let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
    let t = b.probabilistic_relation("T", &["b"]).unwrap();
    for &x in &desc.r_rows {
        b.insert_weighted(r, vec![Value::int(x)], Weight::ONE)
            .unwrap();
    }
    for &(x, y) in &desc.s_rows {
        b.insert_weighted(s, vec![Value::int(x), Value::int(y)], Weight::new(2.0))
            .unwrap();
    }
    for &y in &desc.t_rows {
        b.insert_weighted(t, vec![Value::int(y)], Weight::new(0.5))
            .unwrap();
    }
    b.build()
}

/// The fixed query family the agreement is checked over. Boolean and
/// non-Boolean shapes; constants `1` (usually present) and `99` (never
/// present); self-joins with repeated variables; all comparison operators
/// the parser accepts.
fn queries() -> Vec<&'static str> {
    vec![
        "Q() :- R(x)",
        "Q() :- R(x), S(x, y)",
        "Q() :- R(x), S(x, y), T(y)",
        "Q() :- S(x, y) ; Q() :- T(y)",
        "Q() :- S(x, x)",
        "Q() :- S(x, y), S(y, z)",
        "Q() :- S(x, y), S(x, z), y <> z",
        "Q() :- R(1)",
        "Q() :- R(99)",
        "Q() :- S(1, y), T(y)",
        "Q() :- S(x, y), y >= 2",
        "Q() :- S(x, y), y < x",
        "Q() :- T(y), y = 3",
        "Q() :- R(x), x like '%1%'",
        "Q(x) :- R(x), S(x, y)",
        "Q(x, y) :- S(x, y), T(y)",
        "Q(y) :- S(1, y)",
        "Q(x) :- S(x, y) ; Q(x) :- R(x)",
        "Q(x) :- S(x, x), R(x)",
        "Q(x, z) :- S(x, y), S(y, z), x <= z",
        // --- under-covered shapes -----------------------------------------
        // Repeated variables: within one atom, chained through a body, and
        // combined with a diagonal self-join.
        "Q() :- S(x, x), S(x, y), S(y, y)",
        "Q(x) :- S(x, x), S(x, x)",
        "Q() :- S(x, y), S(y, x)",
        // Cross-disjunct shared atoms: the same atom appears in several
        // disjuncts, so clause deduplication across disjuncts matters.
        "Q() :- R(x), S(x, y) ; Q() :- R(x), T(x)",
        "Q(x) :- R(x), S(x, y) ; Q(x) :- R(x), S(x, 2)",
        "Q() :- S(1, y) ; Q() :- S(1, y), T(y) ; Q() :- S(x, 1)",
        // All-constant atoms: ground bodies, present and absent, alone and
        // joined with variable atoms.
        "Q() :- S(1, 2)",
        "Q() :- S(99, 99)",
        "Q() :- S(1, 2), R(1)",
        "Q() :- S(1, 2), S(2, 1)",
        "Q(x) :- R(x), S(2, 2)",
        "Q() :- R(1), R(1) ; Q() :- S(2, 2)",
        // A comparison on a later atom: the shared join order starts from
        // the first atom it filters (`S(x, y)`, then `S(y, z)`) and probes
        // back towards `R`, in the second query on the second column.
        "Q() :- R(x), S(x, y), T(y), y >= 2",
        "Q(x) :- R(x), S(x, y), S(y, z), z like '%1%'",
    ]
}

/// The flat per-answer clauses hold the oracle's answers in its order, each
/// with the oracle's lineage.
fn assert_flat_answers_agree(
    flat: &AnswerClauses,
    legacy: &std::collections::BTreeMap<Row, Lineage>,
    text: &str,
) {
    assert_eq!(flat.len(), legacy.len(), "answer count diverges on {text}");
    for ((row, clauses), (legacy_row, legacy_lineage)) in flat.iter().zip(legacy) {
        assert_eq!(row, legacy_row, "answer order diverges on {text}");
        assert_eq!(
            &Lineage::from(clauses),
            legacy_lineage,
            "the clauses of {row:?} diverge on {text}"
        );
    }
}

fn sorted_rows(answers: Vec<mv_query::Answer>) -> Vec<Row> {
    let mut rows: Vec<Row> = answers.into_iter().map(|a| a.row).collect();
    rows.sort();
    rows
}

/// A deterministic seed from the database description, so a CI miss in the
/// statistical check reproduces on re-run instead of flaking.
fn content_seed(desc: &RandomDb) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: i64| {
        h ^= v as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for &x in &desc.r_rows {
        mix(x);
    }
    for &(x, y) in &desc.s_rows {
        mix(x);
        mix(y);
    }
    for &y in &desc.t_rows {
        mix(y);
    }
    h
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn compiled_answers_and_lineage_match_legacy_on_random_databases(desc in db_strategy()) {
        let indb = build(&desc);
        let db = indb.database();
        let ctx = EvalContext::new(db);
        let approx_config = ApproxConfig {
            seed: content_seed(&desc),
            confidence: 0.9999,
            target_half_width: 0.0,
            max_samples: 4_096,
            ..ApproxConfig::default()
        };
        for text in queries() {
            let q = parse_ucq(text).unwrap();

            // Answer sets agree exactly (deterministic evaluation).
            let vectorized = sorted_rows(evaluate_ucq_with(&q, &ctx).unwrap());
            let legacy = sorted_rows(evaluate_ucq_legacy_with(&q, &ctx).unwrap());
            prop_assert_eq!(&vectorized, &legacy, "answers diverge on {}", text);

            // Lineages agree exactly (canonical form) for Boolean queries.
            if q.is_boolean() {
                let lin_compiled = lineage_with(&q, &indb, &ctx).unwrap();
                let lin_legacy = lineage_legacy_with(&q, &indb, &ctx).unwrap();
                prop_assert_eq!(&lin_compiled, &lin_legacy, "lineage diverges on {}", text);

                // The Monte Carlo estimator agrees statistically: the exact
                // (brute-force) probability falls inside its 99.99% CI. The
                // generous-margin fallback keeps the expected false-alarm
                // rate of the whole suite far below one in a million runs.
                let exact = brute_force_lineage_probability(&lin_compiled, &indb);
                let approx = approx_lineage_probability(&lin_compiled, &indb, &approx_config)
                    .unwrap();
                prop_assert!(
                    approx.contains(exact) || (approx.estimate - exact).abs() < 0.06,
                    "approx diverges on {}: CI [{}, {}] vs exact {}",
                    text, approx.lower(), approx.upper(), exact
                );
            } else {
                // Per-answer lineages agree exactly, including the key set.
                let per_vectorized = answer_lineages(&q, &indb).unwrap();
                let per_legacy = answer_lineages_legacy(&q, &indb).unwrap();
                prop_assert_eq!(&per_vectorized, &per_legacy, "answer lineages diverge on {}", text);
                let flat = answer_clauses_with(&q, &indb, &ctx).unwrap();
                assert_flat_answers_agree(&flat, &per_legacy, text);
            }
        }
    }
}

#[test]
fn compiled_plans_agree_on_handwritten_edge_cases() {
    // Deterministic + probabilistic mix, ground atoms, body-free truth.
    let mut b = InDbBuilder::new();
    let d = b.deterministic_relation("D", &["a"]).unwrap();
    let r = b.probabilistic_relation("R", &["a", "b"]).unwrap();
    b.insert_fact(d, vec![Value::str("a1")]).unwrap();
    b.insert_fact(d, vec![Value::str("a2")]).unwrap();
    b.insert_weighted(
        r,
        vec![Value::str("a1"), Value::str("b1")],
        Weight::new(3.0),
    )
    .unwrap();
    b.insert_weighted(
        r,
        vec![Value::str("a2"), Value::str("b1")],
        Weight::new(0.5),
    )
    .unwrap();
    let indb = b.build();
    let ctx = EvalContext::new(indb.database());
    for text in [
        "Q() :- D(x)",
        "Q() :- D(x), R(x, y)",
        "Q() :- D('a1'), R('a1', 'b1')",
        "Q() :- D('zzz')",
        "Q() :- R(x, y), R(z, y), x <> z",
        "Q(y) :- R(x, y), D(x)",
        "Q() :- R(x, y), x < y, y like '%b%'",
        // Answers whose lineage is `true`: every match deterministic, or a
        // deterministic match absorbing probabilistic ones of the answer.
        "Q(x) :- D(x)",
        "Q(x) :- R(x, y) ; Q(x) :- D(x)",
        "Q(x, y) :- R(x, y) ; Q(x, 'b1') :- D(x)",
        // Head constants, present in and absent from the dictionary, keying
        // the same answers as a register in another disjunct.
        "Q('a1') :- R(x, y) ; Q(x) :- D(x)",
        "Q('zzz', y) :- R(x, y) ; Q('zzz', 'b1') :- D(x)",
    ] {
        let q = parse_ucq(text).unwrap();
        let vectorized = sorted_rows(evaluate_ucq_with(&q, &ctx).unwrap());
        let legacy = sorted_rows(evaluate_ucq_legacy_with(&q, &ctx).unwrap());
        assert_eq!(vectorized, legacy, "answers diverge on {text}");
        let per_legacy = answer_lineages_legacy(&q, &indb).unwrap();
        assert_eq!(
            answer_lineages_with(&q, &indb, &ctx).unwrap(),
            per_legacy,
            "{text}"
        );
        let flat = answer_clauses_with(&q, &indb, &ctx).unwrap();
        assert_flat_answers_agree(&flat, &per_legacy, text);
        if text.starts_with("Q(x) :- D(x)") {
            assert!(flat.iter().all(|(_, clauses)| clauses.is_true()), "{text}");
        }
        if q.is_boolean() {
            let lin = lineage_with(&q, &indb, &ctx).unwrap();
            assert_eq!(
                lin,
                lineage_legacy_with(&q, &indb, &ctx).unwrap(),
                "lineage diverges on {text}"
            );
        }
    }
}

/// Probe steps that arrive with *two* columns already bound (64 `S`-rows
/// over an 8x8 key grid, 8 postings per key on either column) probe the
/// CSR index of one column and check the other per row. The plans must
/// agree exactly — answers, per-answer lineages and canonical Boolean
/// lineages — with the legacy oracle.
#[test]
fn two_bound_column_probes_agree_with_both_oracles() {
    let mut b = InDbBuilder::new();
    let r = b.probabilistic_relation("R", &["a"]).unwrap();
    let t = b.probabilistic_relation("T", &["b"]).unwrap();
    let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
    for i in 0..8i64 {
        b.insert_weighted(r, vec![Value::int(i)], Weight::ONE)
            .unwrap();
        b.insert_weighted(t, vec![Value::int(i)], Weight::new(0.5))
            .unwrap();
    }
    for i in 0..64i64 {
        b.insert_weighted(
            s,
            vec![Value::int(i % 8), Value::int(i / 8)],
            Weight::new(2.0),
        )
        .unwrap();
    }
    let indb = b.build();
    let ctx = EvalContext::new(indb.database());
    for text in [
        // Both keys from earlier atoms (slot key, slot check).
        "Q() :- R(x), T(y), S(x, y)",
        "Q(x, y) :- R(x), T(y), S(x, y)",
        // One key is a constant (a parameter register).
        "Q(x) :- R(x), S(x, 3)",
        "Q() :- R(x), S(x, 99)",
        // Self-join: the second S atom gets both columns bound.
        "Q() :- S(x, y), S(y, x)",
    ] {
        let q = parse_ucq(text).unwrap();
        let vectorized = sorted_rows(evaluate_ucq_with(&q, &ctx).unwrap());
        let legacy = sorted_rows(evaluate_ucq_legacy_with(&q, &ctx).unwrap());
        assert_eq!(vectorized, legacy, "answers diverge on {text}");
        let bq = q.boolean();
        assert_eq!(
            lineage_with(&bq, &indb, &ctx).unwrap(),
            lineage_legacy_with(&bq, &indb, &ctx).unwrap(),
            "lineage diverges on {text}"
        );
        if !q.is_boolean() {
            assert_eq!(
                answer_lineages(&q, &indb).unwrap(),
                answer_lineages_legacy(&q, &indb).unwrap(),
                "answer lineages diverge on {text}"
            );
        }
    }
}

/// Batch-boundary sizes: relations of exactly 0, 1, 1023, 1024 and 1025
/// rows, so runs end one row short of a batch, exactly on a batch, and one
/// row past it — plus 255, 256 and 257 rows around a quarter batch. The
/// vectorized executor must agree exactly with the legacy oracle on answers
/// and canonical lineages at every size, including all-constant and
/// never-matching instances.
#[test]
fn batch_boundary_sizes_agree_with_the_compiled_oracle() {
    for n in [0usize, 1, 255, 256, 257, 1023, 1024, 1025] {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        for i in 0..n {
            b.insert_weighted(r, vec![Value::int(i as i64)], Weight::ONE)
                .unwrap();
            b.insert_weighted(
                s,
                vec![Value::int(i as i64), Value::int((i % 97) as i64)],
                Weight::new(2.0),
            )
            .unwrap();
        }
        let indb = b.build();
        let ctx = EvalContext::new(indb.database());
        for text in [
            // Full enumeration: n answers cross 0, 1 or 2 batch flushes.
            "Q(x) :- R(x)",
            "Q(x, y) :- R(x), S(x, y)",
            // Break-on-first through a complete batch.
            "Q() :- R(x), S(x, y)",
            // Equality constant written as a comparison, lowered to a
            // probe (present at every size > 0, in the first row only).
            "Q(x) :- R(x), x = 0",
            // Constant in the last row: present only at the largest sizes.
            "Q(x) :- R(x), x = 1024",
            // Inequality keeps nearly every row: maximal batch churn.
            "Q(x) :- R(x), x <> 0",
            // All-constant and never-matching instances.
            "Q() :- S(0, 0)",
            "Q() :- R(123456789)",
            "Q(y) :- S(123456789, y)",
        ] {
            let q = parse_ucq(text).unwrap();
            let vectorized = sorted_rows(evaluate_ucq_with(&q, &ctx).unwrap());
            let legacy = sorted_rows(evaluate_ucq_legacy_with(&q, &ctx).unwrap());
            assert_eq!(vectorized, legacy, "answers diverge on {text} at n={n}");
            let bq = q.boolean();
            assert_eq!(
                lineage_with(&bq, &indb, &ctx).unwrap(),
                lineage_legacy_with(&bq, &indb, &ctx).unwrap(),
                "lineage diverges on {text} at n={n}"
            );
        }
    }
}

/// Scans whose row-local comparisons lower to a row selection: every
/// comparison kind on a scanned column (`=` keeps its probe lowering), a
/// `like` over an integer column, patterns keeping every row and none, a
/// repeated variable, a comparison that also reads an earlier step's slot
/// (it stays per row), and two disjuncts with different selections — at
/// relation sizes around a bitmap word (63/64/65) and a batch
/// (1023/1024/1025), so the selected-row counts cross both.
#[test]
fn scan_selections_agree_with_the_oracle_across_word_and_batch_boundaries() {
    for n in [0usize, 1, 63, 64, 65, 1023, 1024, 1025] {
        let mut b = InDbBuilder::new();
        let names = b.probabilistic_relation("N", &["id", "name"]).unwrap();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        for i in 0..n as i64 {
            b.insert_weighted(
                names,
                vec![Value::int(i), Value::str(format!("name{i}"))],
                Weight::new(2.0),
            )
            .unwrap();
            b.insert_weighted(s, vec![Value::int(i), Value::int(i % 7)], Weight::ONE)
                .unwrap();
        }
        for x in 0..4 {
            b.insert_weighted(r, vec![Value::int(x)], Weight::new(0.5))
                .unwrap();
        }
        let indb = b.build();
        let ctx = EvalContext::new(indb.database());
        for text in [
            "Q(i) :- N(i, m), m like '%'",
            "Q(i) :- N(i, m), m like '%zzz%'",
            "Q(i) :- N(i, m), m like '%1%'",
            "Q(m) :- N(i, m), i like '%2%'",
            "Q(i) :- N(i, m), i < 64",
            "Q(m) :- N(i, m), i >= 63",
            "Q(i) :- N(i, m), i <> 64",
            "Q(m) :- N(i, m), i = 1024",
            "Q(m) :- N(i, m), m = 'name1023'",
            "Q(x) :- S(x, x), x > 3",
            "Q(i, x) :- N(i, m), R(x), i < 3, x < i",
            "Q(i) :- N(i, m), i < 65 ; Q(i) :- N(i, m), m like '%3%'",
        ] {
            let q = parse_ucq(text).unwrap();
            assert_instance_agrees(&q, &indb, &ctx);
            let bq = q.boolean();
            assert_eq!(
                lineage_with(&bq, &indb, &ctx).unwrap(),
                lineage_legacy_with(&bq, &indb, &ctx).unwrap(),
                "lineage diverges on {text} at n={n}"
            );
        }
    }
}

/// One instance through `ctx` — whose cached template it may reuse —
/// against the legacy oracle: answers, then the canonical lineage of a
/// Boolean query or the per-answer lineages of a non-Boolean one (so the
/// instance resolves exactly one template).
fn assert_instance_agrees(q: &Ucq, indb: &mv_pdb::InDb, ctx: &EvalContext<'_>) {
    let vectorized = sorted_rows(evaluate_ucq_with(q, ctx).unwrap());
    let legacy = sorted_rows(evaluate_ucq_legacy_with(q, ctx).unwrap());
    assert_eq!(vectorized, legacy, "answers diverge on {q}");
    if q.is_boolean() {
        assert_eq!(
            lineage_with(q, indb, ctx).unwrap(),
            lineage_legacy_with(q, indb, ctx).unwrap(),
            "lineage diverges on {q}"
        );
    } else {
        assert_eq!(
            answer_lineages_with(q, indb, ctx).unwrap(),
            answer_lineages_legacy(q, indb).unwrap(),
            "answer lineages diverge on {q}"
        );
    }
}

/// A fixed database over R(a), S(a, b), T(b) with values 0..4; 99 is
/// absent everywhere.
fn fixed_db() -> mv_pdb::InDb {
    build(&RandomDb {
        r_rows: vec![0, 1, 2, 3],
        s_rows: vec![(0, 0), (1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (0, 2)],
        t_rows: vec![1, 2, 4],
    })
}

/// Each group is one shape: the first instance compiles the template, the
/// others must run through it (one template per group) and agree with the
/// oracle instance by instance.
#[test]
fn template_instances_agree_with_the_oracle_through_one_cached_plan() {
    let indb = fixed_db();
    let ctx = EvalContext::new(indb.database());
    let groups: &[&[&str]] = &[
        // The constant repeated, then two distinct constants.
        &[
            "Q() :- S(1, 1)",
            "Q() :- S(1, 2)",
            "Q() :- S(3, 3)",
            "Q() :- S(2, 0)",
        ],
        // The constant as the probe key of the first step…
        &["Q(y) :- S(1, y)", "Q(y) :- S(2, y)", "Q(y) :- S(4, y)"],
        // …and as a checked column of a later step.
        &[
            "Q() :- S(1, y), S(y, 2)",
            "Q() :- S(0, y), S(y, 1)",
            "Q() :- S(2, y), S(y, 3)",
        ],
        // An absent constant: lineage `false`, before and after a hit.
        &[
            "Q() :- S(99, y), T(y)",
            "Q() :- S(1, y), T(y)",
            "Q() :- S(2, 99)",
        ],
        // Two disjuncts, one of whose constants is absent.
        &[
            "Q() :- S(1, y) ; Q() :- T(99)",
            "Q() :- S(99, y) ; Q() :- T(1)",
            "Q() :- S(99, y) ; Q() :- T(99)",
        ],
        // Head constants stay literal; the atom constant is the parameter.
        &["Q(7, y) :- S(1, y)", "Q(7, y) :- S(2, y)"],
        &["Q(8, y) :- S(1, y)"],
        // A comparison constant stays literal too.
        &["Q(y) :- S(x, y), R(x), x = 1"],
        &["Q(y) :- S(x, y), R(x), x = 2"],
    ];
    for (n, group) in groups.iter().enumerate() {
        for text in *group {
            assert_instance_agrees(&parse_ucq(text).unwrap(), &indb, &ctx);
            assert_eq!(ctx.compiled_plans(), n + 1, "{text} compiled a new plan");
        }
    }
    // An absent constant never reaches the executor.
    let absent = EvalContext::new(indb.database());
    let q = parse_ucq("Q() :- S(99, y), T(y)").unwrap();
    assert!(lineage_with(&q, &indb, &absent).unwrap().is_false());
    assert_eq!(absent.exec_stats(), mv_query::ExecStats::default());
}

#[test]
fn distinct_like_patterns_are_distinct_templates() {
    let indb = fixed_db();
    let ctx = EvalContext::new(indb.database());
    for (i, pattern) in ["%1%", "%2%", "%3%", "%9%"].iter().enumerate() {
        let q = parse_ucq(&format!("Q(x) :- R(x), S(x, y), x like '{pattern}'")).unwrap();
        assert_instance_agrees(&q, &indb, &ctx);
        assert_eq!(ctx.compiled_plans(), i + 1, "{pattern}");
    }
}

#[test]
fn the_template_key_is_structural_not_textual() {
    // `R("x', 'y")` — one string constant — prints exactly like the parsed
    // two-constant `R('x', 'y')`, so a key made from the text would hand
    // one the other's plan.
    let mut b = InDbBuilder::new();
    let r = b.probabilistic_relation("R", &["a", "b"]).unwrap();
    b.insert_weighted(r, vec![Value::str("x"), Value::str("y")], Weight::ONE)
        .unwrap();
    let indb = b.build();
    let ctx = EvalContext::new(indb.database());
    let parsed = parse_ucq("Q() :- R('x', 'y')").unwrap();
    let built = Ucq::from_cq(ConjunctiveQuery::new(
        "Q",
        vec![],
        vec![Atom::new("R", vec![Term::constant("x', 'y")])],
        vec![],
    ));
    assert_eq!(parsed.to_string(), built.to_string());
    assert_eq!(lineage_with(&parsed, &indb, &ctx).unwrap().num_clauses(), 1);
    assert!(matches!(
        lineage_with(&built, &indb, &ctx),
        Err(QueryError::ArityMismatch { actual: 1, .. })
    ));
    assert_eq!(ctx.compiled_plans(), 1);
}

/// A shape and the constants of one instance of it.
fn instance(shape: usize, a: i64, b: i64) -> String {
    match shape {
        0 => format!("Q() :- S({a}, {b})"),
        1 => format!("Q(y) :- S({a}, y), T(y)"),
        2 => format!("Q(x) :- R(x), S(x, {b}), S({a}, x)"),
        _ => format!("Q() :- S({a}, y), T(y) ; Q() :- R({b})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Instances of a few shapes, constants present and absent (the domain
    /// is 0..5), shuffled through one context: every instance agrees with
    /// the oracle, and the context resolves one template per shape seen.
    #[test]
    fn shuffled_instances_of_one_shape_share_a_plan_and_agree(
        desc in db_strategy(),
        sequence in proptest::collection::vec((0usize..4, 0i64..7, 0i64..7), 1..24),
    ) {
        let indb = build(&desc);
        let ctx = EvalContext::new(indb.database());
        let mut shapes = std::collections::BTreeSet::new();
        for &(shape, a, b) in &sequence {
            assert_instance_agrees(&parse_ucq(&instance(shape, a, b)).unwrap(), &indb, &ctx);
            shapes.insert(shape);
            prop_assert_eq!(ctx.compiled_plans(), shapes.len());
        }
    }
}

/// A store large enough for several batches per run: `S` holds 3 000 rows
/// over 60 keys, `D` 2 000 deterministic facts.
fn batches_db() -> mv_pdb::InDb {
    let mut b = InDbBuilder::new();
    let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
    let d = b.deterministic_relation("D", &["a"]).unwrap();
    for i in 0..3000i64 {
        b.insert_weighted(
            s,
            vec![Value::int(i % 60), Value::int((i * 7 + i / 60) % 60)],
            Weight::new(1.5),
        )
        .unwrap();
    }
    for i in 0..2000i64 {
        b.insert_fact(d, vec![Value::int(i)]).unwrap();
    }
    b.build()
}

/// What one run returned: its canonical lineage (Boolean queries), its
/// per-answer lineages and flat clauses, or the error's text.
type Outcome = (
    Option<Result<Lineage, String>>,
    Result<std::collections::BTreeMap<Row, Lineage>, String>,
    Result<AnswerClauses, String>,
);

fn outcome(q: &Ucq, indb: &mv_pdb::InDb, ctx: &EvalContext<'_>) -> Outcome {
    // A deadline trip's text carries its elapsed time: compare it by kind.
    let err = |e: QueryError| match e {
        QueryError::Budget(_) => "deadline exceeded".to_string(),
        e => e.to_string(),
    };
    (
        q.is_boolean()
            .then(|| lineage_with(q, indb, ctx).map_err(err)),
        answer_lineages_with(q, indb, ctx).map_err(err),
        answer_clauses_with(q, indb, ctx).map_err(err),
    )
}

/// The queries interleaved on one executor scratch, each with whether it
/// runs under an already expired deadline.
fn interleaved_queries() -> Vec<(Ucq, bool)> {
    let parse = |text: &str| parse_ucq(text).unwrap();
    // `Q(7) :- 1 = 1`: no atom, one empty match.
    let body_free = Ucq::from_cq(ConjunctiveQuery::new(
        "Q",
        vec![Term::constant(7i64)],
        vec![],
        vec![Comparison::new(
            Term::constant(1i64),
            CmpOp::Eq,
            Term::constant(1i64),
        )],
    ));
    vec![
        // A point query, Boolean and not.
        (parse("Q() :- S(3, y)"), false),
        (parse("Q(y) :- S(3, y)"), false),
        // A broad selection: a scan walking its selection, many batches.
        (parse("Q() :- S(x, y), y like '%1%'"), false),
        (parse("Q(x) :- S(x, y), y like '%1%'"), false),
        // A 3-atom self-join.
        (parse("Q() :- S(x, y), S(y, z), S(z, x)"), false),
        (parse("Q(x, z) :- S(x, y), S(y, z), S(z, x)"), false),
        // No atom at all, and a plan that never matches.
        (body_free.clone(), false),
        (parse("Q(y) :- S(x, y), x = 'nope'"), false),
        // A lineage that is `true` at its first match, mid-batch.
        (parse("Q() :- S(x, y), S(y, z) ; Q() :- D(x)"), false),
        (parse("Q() :- D(x), S(x, y)"), false),
        // A deadline that trips once the executor has filled a batch.
        (parse("Q() :- S(x, y), S(y, z)"), true),
        (parse("Q(x) :- S(x, y), S(y, z)"), true),
        // The same queries again on whatever the runs above left behind.
        (parse("Q(x, z) :- S(x, y), S(y, z), S(z, x)"), false),
        (parse("Q(y) :- S(3, y)"), false),
        (body_free, false),
        (parse("Q() :- S(x, y), y like '%1%'"), false),
    ]
}

/// A deadline that has already passed, or none.
fn expired_deadline(expired: bool) -> Option<EvalBudget> {
    expired.then(|| EvalBudget::with_deadline(Duration::ZERO))
}

/// Every run on a context's pooled scratch — after early stops, budget
/// trips, body-free and never-matching runs, on one context and on two
/// sharing a snapshot's cache and its pool — equals a run on a fresh
/// context.
#[test]
fn a_reused_executor_scratch_is_invisible() {
    let indb = batches_db();
    let db = indb.database();
    let fresh: Vec<Outcome> = interleaved_queries()
        .iter()
        .map(|(q, expired)| {
            let ctx = EvalContext::new(db);
            ctx.set_budget(expired_deadline(*expired));
            outcome(q, &indb, &ctx)
        })
        .collect();
    let broad = &fresh[3].2.as_ref().unwrap();
    assert!(broad.len() > 20 && fresh[11].1.is_err(), "the budget trips");
    assert!(fresh[8].0.as_ref().unwrap().as_ref().unwrap().is_true());

    let run_all = |contexts: &[&EvalContext<'_>]| {
        for (i, (q, expired)) in interleaved_queries().iter().enumerate() {
            let ctx = contexts[i % contexts.len()];
            ctx.set_budget(expired_deadline(*expired));
            assert_eq!(outcome(q, &indb, ctx), fresh[i], "query {i}: {q}");
            ctx.set_budget(None);
        }
    };
    // One context, twice over.
    let one = EvalContext::new(db);
    run_all(&[&one]);
    run_all(&[&one]);
    assert!(one.scratch_bytes() > 0);

    // Two contexts sharing one cache, then two new ones on the scratches
    // the first two handed back to its pool.
    let cache = PlanCache::new(db);
    assert_eq!((cache.idle_scratches(), cache.idle_scratch_bytes()), (0, 0));
    for _ in 0..2 {
        let a = EvalContext::with_plan_cache(db, &cache);
        let b = EvalContext::with_plan_cache(db, &cache);
        run_all(&[&a, &b]);
        assert_eq!(cache.idle_scratches(), 0, "both contexts hold one");
        let held = a.scratch_bytes() + b.scratch_bytes();
        drop((a, b));
        assert_eq!(cache.idle_scratches(), 2);
        assert_eq!(cache.idle_scratch_bytes(), held);
    }
}
