//! Statistical agreement: the Monte Carlo backend against the exact
//! oracles.
//!
//! The exact backends agree with each other to 1e-9 (see
//! `backend_agreement.rs`); the sampling backend agrees *statistically* —
//! its confidence interval must cover the exact probability. This suite
//! pins that contract on the Figure 5/6 workloads of the paper's
//! evaluation (where the translated database carries negative-probability
//! `NV` tuples), asserts bit-level determinism under a fixed seed, runs the
//! clause-scan and per-world compiled-plan evaluation modes
//! differentially, and demonstrates the acceptance scenario: a query whose
//! exact evaluation is *refused* (the query kernel's node cap) still gets
//! a CI-bounded estimate.
//!
//! The sample budget scales with the `APPROX_SAMPLES` environment variable
//! (default 32768); the nightly CI job runs the suite with a much larger
//! budget.

use markoviews::core::CoreError;
use markoviews::obdd::ObddError;
use markoviews::prelude::*;
use markoviews::query::parse_ucq as parse;

/// The per-query sample budget (override with `APPROX_SAMPLES`).
fn sample_budget() -> u64 {
    std::env::var("APPROX_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(32_768)
}

fn suite_config(seed: u64) -> ApproxConfig {
    ApproxConfig {
        seed,
        confidence: 0.99,
        target_half_width: 0.0, // fixed budget: the coverage check is the point
        max_samples: sample_budget(),
        ..ApproxConfig::default()
    }
}

/// The Figure 5/6 corpus at a test-sized scale, with its Boolean workload.
fn fig5_fig6_workload() -> (MvdbEngine, Vec<Ucq>) {
    let data = DblpDataset::generate(DblpConfig {
        with_affiliation_view: false,
        ..DblpConfig::with_authors(120)
    })
    .expect("corpus generates");
    let engine = MvdbEngine::compile(&data.mvdb).expect("engine compiles");
    let mut queries = data
        .advisor_of_student_workload(4)
        .expect("fig5 workload")
        .into_iter()
        .map(|q| q.boolean())
        .collect::<Vec<_>>();
    queries.extend(
        data.students_of_advisor_workload(4)
            .expect("fig6 workload")
            .into_iter()
            .map(|q| q.boolean()),
    );
    (engine, queries)
}

#[test]
fn fig5_fig6_exact_probabilities_lie_inside_the_99_percent_ci() {
    let (engine, queries) = fig5_fig6_workload();
    let config = suite_config(0xA99);
    let answers = engine
        .session()
        .approx_probabilities(&queries, &config)
        .expect("batch estimates");
    for (q, answer) in queries.iter().zip(&answers) {
        // The MV-index is the exact oracle here (itself pinned against
        // Shannon/brute force by the cross-backend suite).
        let exact = engine.probability(q).expect("exact probability");
        assert!(
            answer.contains(exact),
            "{q}: {:?} CI [{:.5}, {:.5}] misses exact {exact:.5}",
            answer.method,
            answer.lower(),
            answer.upper()
        );
        assert!(
            (answer.clamped() - exact).abs() <= 0.05,
            "{q}: estimate {:.5} far from exact {exact:.5}",
            answer.estimate
        );
        assert_eq!(answer.samples, config.max_samples);
    }
}

#[test]
fn fixed_seeds_are_bit_identical_and_workers_do_not_change_results() {
    let (engine, queries) = fig5_fig6_workload();
    let config = ApproxConfig {
        max_samples: sample_budget().min(8_192),
        ..suite_config(0xDE7)
    };
    let first = engine
        .session()
        .approx_probabilities(&queries, &config)
        .expect("estimates");
    let second = engine
        .session()
        .approx_probabilities(&queries, &config)
        .expect("estimates");
    let striped = engine
        .session()
        .with_threads(4)
        .approx_probabilities(&queries, &config)
        .expect("estimates");
    for ((a, b), c) in first.iter().zip(&second).zip(&striped) {
        assert_eq!(a.estimate.to_bits(), b.estimate.to_bits());
        assert_eq!(a.half_width.to_bits(), b.half_width.to_bits());
        assert_eq!(a.samples, b.samples);
        // Striping whole queries over workers preserves every bit too.
        assert_eq!(a.estimate.to_bits(), c.estimate.to_bits());
        assert_eq!(a.half_width.to_bits(), c.half_width.to_bits());
    }
    // A different seed takes a different sample path.
    let other = engine
        .session()
        .approx_probabilities(
            &queries,
            &ApproxConfig {
                seed: 0xBEEF,
                ..config
            },
        )
        .expect("estimates");
    assert!(
        first
            .iter()
            .zip(&other)
            .any(|(a, b)| a.estimate.to_bits() != b.estimate.to_bits()),
        "independent seeds should not reproduce the whole batch bit-for-bit"
    );
}

#[test]
fn split_budget_parallel_estimation_covers_the_exact_value() {
    let (engine, queries) = fig5_fig6_workload();
    let config = suite_config(0x517);
    let q = &queries[0];
    let exact = engine.probability(q).expect("exact probability");
    let merged = engine
        .session()
        .with_threads(4)
        .approx_probability(q, &config)
        .expect("merged estimate");
    assert_eq!(merged.samples, config.max_samples);
    assert!(
        merged.contains(exact),
        "merged CI [{:.5}, {:.5}] misses exact {exact:.5}",
        merged.lower(),
        merged.upper()
    );
}

#[test]
fn clause_scan_and_compiled_plan_world_evaluation_agree_bit_for_bit() {
    // The two world-evaluation strategies — scanning the collected lineage
    // clauses vs. materialising each world and running the compiled
    // physical plan — are independent implementations of the same
    // indicator. Under one seed they see the same worlds, so the estimates
    // must be identical to the last bit.
    let data = DblpDataset::generate(DblpConfig {
        with_affiliation_view: false,
        ..DblpConfig::with_authors(48)
    })
    .expect("corpus generates");
    let engine = MvdbEngine::compile(&data.mvdb).expect("engine compiles");
    let queries = data
        .students_of_advisor_workload(2)
        .expect("workload")
        .into_iter()
        .map(|q| q.boolean());
    let config = ApproxConfig {
        max_samples: 256, // plan mode materialises a database per world
        min_samples: 64,
        ..suite_config(0x9A)
    };
    for q in queries {
        let ctx = engine.context();
        let by_clauses = MonteCarlo::new(config).approx(&q, &ctx).expect("clauses");
        let by_plans = MonteCarlo::new(config)
            .with_plan_evaluation()
            .approx(&q, &ctx)
            .expect("plans");
        assert_eq!(by_clauses.estimate.to_bits(), by_plans.estimate.to_bits());
        assert_eq!(
            by_clauses.half_width.to_bits(),
            by_plans.half_width.to_bits()
        );
    }
}

/// A views-free MVDB whose query lineage is the *crossed* bipartite
/// pairing `∨ᵢ xᵢ ∧ y₍ₙ₋₁₋ᵢ₎`. The value-keyed variable order interleaves
/// `x` and `y` tuples by their first attribute, so every pair spans the
/// whole order and the diagram's middle must remember ~n/2 open matches:
/// exact synthesis needs ~2^(n/2) nodes. Under tuple independence the
/// exact closed form is `1 − ∏ᵢ (1 − pₓᵢ·p_y₍ₙ₋₁₋ᵢ₎)`.
fn pairing_mvdb(n: usize) -> (Mvdb, f64) {
    let mut b = MvdbBuilder::new();
    b.relation("X", &["i", "j"]).unwrap();
    b.relation("Y", &["j"]).unwrap();
    let wx = |i: i64| 1.0 + (i % 5) as f64;
    let wy = |j: i64| 0.5 + (j % 3) as f64;
    let mut miss = 1.0;
    for i in 0..n as i64 {
        let j = n as i64 - 1 - i;
        b.weighted_tuple("X", &[Value::int(i), Value::int(j)], wx(i))
            .unwrap();
        b.weighted_tuple("Y", &[Value::int(i)], wy(i)).unwrap();
        let (px, py) = (wx(i) / (1.0 + wx(i)), wy(j) / (1.0 + wy(j)));
        miss *= 1.0 - px * py;
    }
    (b.build().unwrap(), 1.0 - miss)
}

#[test]
fn monte_carlo_answers_queries_whose_exact_synthesis_is_refused() {
    let (mvdb, exact) = pairing_mvdb(44);
    let engine = MvdbEngine::compile(&mvdb).expect("compiles");
    let q = parse("Q() :- X(i, j), Y(j)").expect("parses");
    let ctx = engine.context();
    assert_eq!(ctx.lineage(&q).expect("lineage").num_clauses(), 44);

    // The exact rung's kernel folds the lineage under the index's
    // value-keyed tuple order, where its diagram needs ~2^22 nodes, so a
    // cap of 10 000 nodes refuses it…
    const NODE_CAP: usize = 10_000;
    ctx.scratch().set_node_cap(NODE_CAP);
    match MvIndexBackend::default().probability(&q, &ctx) {
        Err(CoreError::Obdd(ObddError::NodeBudgetExceeded { allocated, budget })) => {
            assert_eq!(budget, NODE_CAP);
            assert!(
                allocated > budget,
                "{allocated} nodes under a cap of {budget}"
            );
        }
        other => panic!("expected the kernel to refuse at {NODE_CAP} nodes, got {other:?}"),
    }

    // …while the sampling backend returns a CI-bounded estimate that
    // covers the closed-form exact probability.
    let config = suite_config(0xB10);
    let answer = engine.approx_probability(&q, &config).expect("estimate");
    assert_eq!(answer.method, IntervalMethod::Wilson);
    assert!(
        answer.contains(exact),
        "CI [{:.5}, {:.5}] misses exact {exact:.5}",
        answer.lower(),
        answer.upper()
    );
    assert!(answer.half_width < 0.02);
}

#[test]
fn early_stopping_honours_the_target_half_width_on_dblp() {
    let (engine, queries) = fig5_fig6_workload();
    let config = ApproxConfig {
        target_half_width: 0.02,
        min_samples: 512,
        ..suite_config(0xEA8)
    };
    let answer = engine
        .approx_probability(&queries[0], &config)
        .expect("estimate");
    assert!(answer.half_width <= 0.02);
    assert!(
        answer.samples <= config.max_samples,
        "budget respected: {}",
        answer.samples
    );
}
