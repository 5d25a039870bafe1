//! Property tests for the resilience ladder under seeded fault injection:
//! with chaos installed at any site, with any fault kind, at substantial
//! rates, every query in a batch still gets a [`QueryOutcome`] — and the
//! answers agree with a clean run wherever the exact rung survived.
//!
//! Chaos campaigns are process-global, so every test in this binary that
//! evaluates queries holds a [`mv_core::chaos::ChaosGuard`] — a clean
//! (rule-free) one where no injection is wanted — which serializes the
//! campaigns through the chaos module's install lock.

use std::time::Duration;

use mv_core::chaos::{self, sites, ChaosConfig, Fault};
use mv_core::sharded::ShardedEngine;
use mv_core::{
    Backend, CoreError, FaultKind, Mvdb, MvdbBuilder, MvdbEngine, ResilienceConfig, Rung,
};
use mv_query::{parse_ucq, EvalBudget, Ucq};
use proptest::prelude::*;

fn sample_mvdb() -> Mvdb {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    b.relation("T", &["x", "y"]).unwrap();
    for (x, (wr, ws)) in [
        ("a", (3.0, 4.0)),
        ("b", (1.0, 0.5)),
        ("c", (2.0, 2.0)),
        ("d", (0.25, 5.0)),
    ] {
        b.weighted_tuple("R", &[x], wr).unwrap();
        b.weighted_tuple("S", &[x], ws).unwrap();
    }
    for (x, y, w) in [("a", "b", 1.5), ("b", "c", 0.75), ("d", "d", 2.0)] {
        b.weighted_tuple("T", &[x, y], w).unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    b.build().unwrap()
}

fn workload() -> Vec<Ucq> {
    [
        "Q() :- R(x), S(x)",
        "Q() :- R(x)",
        "Q() :- S(x)",
        "Q() :- R('a')",
        "Q() :- R('b'), S('b')",
        "Q() :- R(x) ; Q() :- S(x)",
        "Q() :- T(x, y)",
        "Q() :- R(x), T(x, y)",
        "Q() :- S('c') ; Q() :- T('d', 'd')",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

/// Clean reference probabilities, computed under a rule-free chaos guard so
/// a concurrently scheduled chaos test cannot perturb them.
fn clean_reference(engine: &MvdbEngine, queries: &[Ucq]) -> Vec<f64> {
    let _guard = chaos::install(ChaosConfig::new(0));
    queries
        .iter()
        .map(|q| engine.probability(q).unwrap())
        .collect()
}

fn fault_of(tag: u8) -> Fault {
    match tag % 3 {
        0 => Fault::Panic,
        1 => Fault::Deadline,
        _ => Fault::Budget,
    }
}

/// Tolerance for one outcome against the clean reference: the exact rung must
/// reproduce the reference to double-rounding precision, degraded answers
/// get slack proportional to their own reported confidence interval.
fn tolerance(outcome: &mv_core::QueryOutcome) -> f64 {
    if outcome.degraded() {
        outcome.epsilon.map_or(1e-9, |e| 4.0 * e + 0.02)
    } else {
        1e-9
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unsharded sessions: any single chaos site, any fault, any seed, at
    /// rates up to near-certainty — no query is lost, and answers stay
    /// within the outcome's own advertised tolerance of the clean run.
    #[test]
    fn sessions_answer_within_epsilon_under_chaos(
        seed in 0u64..u64::MAX,
        site_idx in 0usize..sites::ALL.len(),
        fault_tag in 0u8..3,
        rate in 0.05f64..0.95,
        threads in 1usize..5,
    ) {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference = clean_reference(&engine, &queries);
        let site = sites::ALL[site_idx];
        let fault = fault_of(fault_tag);
        let _guard = chaos::install(ChaosConfig::new(seed).rule(site, fault, rate));
        let outcomes = engine
            .session()
            .with_threads(threads)
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        prop_assert_eq!(outcomes.len(), queries.len());
        for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
            prop_assert!(
                o.answered(),
                "seed {seed}, site {site}, {fault:?}@{rate:.2}, slot {i} lost: {:?}",
                o.fault
            );
            let p = o.probability.unwrap();
            let tol = tolerance(o);
            prop_assert!(
                (p - r).abs() < tol,
                "seed {seed}, site {site}, {fault:?}@{rate:.2}, slot {i}: \
                 {p} vs clean {r} (rung {:?}, tol {tol})",
                o.rung
            );
        }
    }

    /// Sharded sessions under the same property: faults in routing, shard
    /// evaluation, the ladder rungs or the oracle rescue path quarantine at
    /// query granularity — the batch always completes positionally intact.
    #[test]
    fn sharded_sessions_answer_within_epsilon_under_chaos(
        seed in 0u64..u64::MAX,
        site_idx in 0usize..sites::ALL.len(),
        fault_tag in 0u8..3,
        rate in 0.05f64..0.95,
        num_shards in 1usize..5,
    ) {
        let mvdb = sample_mvdb();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference = clean_reference(&oracle, &queries);
        let engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
        let site = sites::ALL[site_idx];
        let fault = fault_of(fault_tag);
        let _guard = chaos::install(ChaosConfig::new(seed).rule(site, fault, rate));
        let outcomes = engine
            .session()
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        prop_assert_eq!(outcomes.len(), queries.len());
        for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
            prop_assert!(
                o.answered(),
                "seed {seed}, {num_shards} shards, site {site}, {fault:?}@{rate:.2}, \
                 slot {i} lost: {:?}",
                o.fault
            );
            let p = o.probability.unwrap();
            let tol = tolerance(o);
            prop_assert!(
                (p - r).abs() < tol,
                "seed {seed}, {num_shards} shards, site {site}, {fault:?}@{rate:.2}, \
                 slot {i}: {p} vs clean {r} (rung {:?}, tol {tol})",
                o.rung
            );
        }
    }

    /// Multi-site campaigns: panics, deadlines and budget trips at every
    /// site at once. Rates are kept moderate so at least one ladder rung
    /// usually survives per query, but nothing may be lost either way.
    #[test]
    fn batches_survive_simultaneous_faults_at_all_sites(
        seed in 0u64..u64::MAX,
        rate in 0.02f64..0.25,
    ) {
        let mvdb = sample_mvdb();
        let oracle = MvdbEngine::compile(&mvdb).unwrap();
        let queries = workload();
        let reference = clean_reference(&oracle, &queries);
        let mut config = ChaosConfig::new(seed);
        for (i, site) in sites::ALL.iter().enumerate() {
            config = config.rule(site, fault_of(i as u8), rate);
        }
        let _guard = chaos::install(config);
        let engine = ShardedEngine::compile(&mvdb, 3).unwrap();
        let outcomes = engine
            .session()
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
            prop_assert!(
                o.answered(),
                "seed {seed}, rate {rate:.2}, slot {i} lost: {:?}",
                o.fault
            );
            let p = o.probability.unwrap();
            let tol = tolerance(o);
            prop_assert!(
                (p - r).abs() < tol,
                "seed {seed}, rate {rate:.2}, slot {i}: {p} vs clean {r} \
                 (rung {:?}, tol {tol})",
                o.rung
            );
        }
    }

    /// Semantic faults stay semantic: chaos cannot launder an unanswerable
    /// query into an answer, and the ladder must not mask the original
    /// error class behind an injected fault.
    #[test]
    fn semantic_faults_survive_chaos_unmasked(
        seed in 0u64..u64::MAX,
        site_idx in 0usize..sites::ALL.len(),
        rate in 0.05f64..0.5,
    ) {
        let mvdb = sample_mvdb();
        let engine = MvdbEngine::compile(&mvdb).unwrap();
        let queries = vec![
            parse_ucq("Q() :- Unknown(x)").unwrap(),
            parse_ucq("Q() :- R(x)").unwrap(),
        ];
        let site = sites::ALL[site_idx];
        let _guard =
            chaos::install(ChaosConfig::new(seed).rule(site, Fault::Panic, rate));
        let outcomes = engine
            .session()
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        prop_assert!(!outcomes[0].answered());
        prop_assert_eq!(
            outcomes[0].fault.as_ref().map(|f| f.kind),
            Some(FaultKind::Semantic)
        );
        prop_assert!(outcomes[1].answered(), "{:?}", outcomes[1].fault);
    }
}

/// Deterministic replay: the same seed yields the same injection counts
/// and the same outcomes, which is what lets CI gate on a fixed-seed chaos
/// campaign. The batch is large enough to run both route workers, and the
/// `route` faults they raise are drawn in query order like the rest.
#[test]
fn injection_counts_replay_deterministically() {
    let mvdb = sample_mvdb();
    let queries: Vec<Ucq> = (0..8).flat_map(|_| workload()).collect();
    let engine = ShardedEngine::compile(&mvdb, 2).unwrap();
    let run = |seed: u64| {
        let _guard = chaos::install(
            ChaosConfig::new(seed)
                .rule(sites::ROUTE, Fault::Panic, 0.3)
                .rule(sites::SHARD_EVAL, Fault::Panic, 0.3)
                .rule(sites::EXACT_RUNG, Fault::Budget, 0.3),
        );
        let outcomes = engine
            .session()
            .resilient_probabilities(&queries, &ResilienceConfig::default());
        assert!(outcomes.iter().all(|o| o.answered()));
        let outcomes: Vec<_> = outcomes
            .iter()
            .map(|o| (o.rung, o.fault.as_ref().map(|f| f.kind), o.fallback))
            .collect();
        (chaos::injection_counts(), outcomes)
    };
    let first = run(1234);
    for _ in 0..20 {
        assert_eq!(
            run(1234),
            first,
            "same seed must replay the same injections"
        );
    }
    let (counts, _) = &first;
    assert!(
        counts.iter().all(|(_, _, _, injected)| *injected > 0),
        "the campaign should inject at every site at these rates: {counts:?}"
    );
}

/// A degraded outcome records why: when the exact rung is forced to fail
/// deterministically, the answer arrives on Monte Carlo carrying the
/// injected fault, and the probability still lands within tolerance.
#[test]
fn forced_exact_rung_failure_degrades_with_cause() {
    let mvdb = sample_mvdb();
    let engine = MvdbEngine::compile(&mvdb).unwrap();
    let queries = workload();
    let reference = clean_reference(&engine, &queries);
    let _guard = chaos::install(ChaosConfig::new(7).rule(sites::EXACT_RUNG, Fault::Budget, 1.0));
    let outcomes = engine
        .session()
        .resilient_probabilities(&queries, &ResilienceConfig::default());
    for (i, (o, r)) in outcomes.iter().zip(&reference).enumerate() {
        assert!(o.answered(), "slot {i}: {:?}", o.fault);
        assert!(o.degraded(), "slot {i} should not reach the exact rung");
        assert_eq!(o.rung, Some(Rung::MonteCarlo));
        let fault = o.fault.as_ref().expect("degraded outcomes carry a fault");
        assert_eq!(fault.kind, FaultKind::Budget, "slot {i}: {fault:?}");
        let p = o.probability.unwrap();
        let tol = tolerance(o);
        assert!((p - r).abs() < tol, "slot {i}: {p} vs {r} (tol {tol})");
    }
}

/// Degenerate batches: an empty slice is a complete batch. Every batch
/// API resolves to an empty result without evaluating anything — proven
/// by installing a campaign that faults *every* site with certainty and
/// checking that not one injection fires.
#[test]
fn empty_batches_resolve_without_work() {
    let mvdb = sample_mvdb();
    let engine = MvdbEngine::compile(&mvdb).unwrap();
    let sharded = ShardedEngine::compile(&mvdb, 3).unwrap();
    let mut config = ChaosConfig::new(99);
    for site in sites::ALL.iter() {
        config = config.rule(site, Fault::Panic, 1.0);
    }
    let _guard = chaos::install(config);
    let empty: [Ucq; 0] = [];
    assert!(engine.session().probabilities(&empty).unwrap().is_empty());
    assert!(engine
        .session()
        .resilient_probabilities(&empty, &ResilienceConfig::default())
        .is_empty());
    assert!(sharded.session().probabilities(&empty).unwrap().is_empty());
    assert!(sharded
        .session()
        .resilient_probabilities(&empty, &ResilienceConfig::default())
        .is_empty());
    assert!(
        chaos::injection_counts()
            .iter()
            .all(|(_, _, _, injected)| *injected == 0),
        "an empty batch must not reach any chaos site: {:?}",
        chaos::injection_counts()
    );
}

/// A single-query batch against every evaluation-path site, with every
/// fault kind forced at certainty: the ladder either answers within its
/// own advertised tolerance or reports a typed fault of the injected
/// class — it never loses the query and never mislabels the cause.
#[test]
fn single_query_batches_survive_every_fault_kind() {
    let mvdb = sample_mvdb();
    let engine = MvdbEngine::compile(&mvdb).unwrap();
    let query = vec![parse_ucq("Q() :- R(x), S(x)").unwrap()];
    let reference = clean_reference(&engine, &query)[0];
    let eval_sites = [
        sites::SESSION_EVAL,
        sites::EXACT_RUNG,
        sites::MC_RUNG,
        sites::ORACLE,
    ];
    for site in eval_sites {
        for (fault, kind) in [
            (Fault::Panic, FaultKind::Panic),
            (Fault::Deadline, FaultKind::Deadline),
            (Fault::Budget, FaultKind::Budget),
        ] {
            let _guard = chaos::install(ChaosConfig::new(11).rule(site, fault, 1.0));
            let outcomes = engine
                .session()
                .resilient_probabilities(&query, &ResilienceConfig::default());
            assert_eq!(outcomes.len(), 1, "site {site}, {fault:?}");
            let o = &outcomes[0];
            if o.answered() {
                let p = o.probability.unwrap();
                let tol = tolerance(o);
                assert!(
                    (p - reference).abs() < tol,
                    "site {site}, {fault:?}: {p} vs clean {reference} \
                     (rung {:?}, tol {tol})",
                    o.rung
                );
            } else {
                let f = o.fault.as_ref().expect("lost outcomes must carry a fault");
                assert_eq!(f.kind, kind, "site {site}, {fault:?}: {f:?}");
            }
        }
    }
}

/// An already-expired budget trips before any evaluation work: the typed
/// poll fails immediately, a backend driven through the context surfaces
/// the deadline at its first poll, and clearing the budget restores the
/// context for real evaluation.
#[test]
fn already_expired_budgets_trip_before_evaluating() {
    let _guard = chaos::install(ChaosConfig::new(0));
    let mvdb = sample_mvdb();
    let engine = MvdbEngine::compile(&mvdb).unwrap();
    let q = parse_ucq("Q() :- R(x), S(x)").unwrap();
    let reference = engine.probability(&q).unwrap();

    let ctx = engine.context();
    ctx.set_budget(Some(EvalBudget::with_deadline(Duration::ZERO)));
    let err = CoreError::from(
        ctx.budget()
            .unwrap()
            .check()
            .expect_err("an expired budget must trip the typed poll"),
    );
    assert!(err.is_degradable(), "{err}");
    assert!(err.to_string().contains("deadline"), "{err}");

    let backend: Box<dyn Backend> = ResilienceConfig::default().inner.instantiate();
    let err = backend
        .probability(&q, &ctx)
        .expect_err("evaluation must refuse to start on an expired budget");
    assert!(err.is_degradable(), "{err}");
    assert!(err.to_string().contains("deadline"), "{err}");

    ctx.set_budget(None);
    assert!(ctx.budget().is_none());
    let p = backend.probability(&q, &ctx).unwrap();
    assert!((p - reference).abs() < 1e-9, "{p} vs {reference}");
}
