//! Every batch entry point is a projection of one pipeline: these tests pin
//! what the projections share — plain evaluation crosses no chaos site,
//! errors keep their type, `last_*` follow the most recent batch — at
//! every front-end the pipeline serves (unsharded sessions at 1 and 3
//! threads, sharded sessions over 1 and 3 shards). Counts and identities
//! only; nothing here reads a clock.

use mv_core::chaos::{self, sites, ChaosConfig, Fault};
use mv_core::session::MvdbSession;
use mv_core::sharded::{ShardedEngine, ShardedSession};
use mv_core::{
    CoreError, EngineBackend, FaultKind, Mvdb, MvdbBuilder, MvdbEngine, QueryOutcome,
    ResilienceConfig,
};
use mv_obdd::ManagerStats;
use mv_query::{parse_ucq, Ucq};

fn sample_mvdb() -> Mvdb {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    for (x, (wr, ws)) in [("a", (3.0, 4.0)), ("b", (1.0, 0.5)), ("c", (2.0, 2.0))] {
        b.weighted_tuple("R", &[x], wr).unwrap();
        b.weighted_tuple("S", &[x], ws).unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    b.build().unwrap()
}

fn workload() -> Vec<Ucq> {
    [
        "Q() :- R(x), S(x)",
        "Q() :- R(x)",
        "Q() :- R('a')",
        "Q() :- R('a'), S('b')",
        "Q() :- R(x) ; Q() :- S(x)",
        "Q() :- S('c')",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

/// One session of either kind behind the calls the two kinds share.
enum Session<'e> {
    Unsharded(MvdbSession<'e>),
    Sharded(ShardedSession<'e>),
}

impl Session<'_> {
    fn plain(&self, queries: &[Ucq], backend: EngineBackend) -> Result<Vec<f64>, CoreError> {
        match self {
            Session::Unsharded(s) => s.probabilities_with_backend(queries, backend),
            Session::Sharded(s) => s.probabilities_with_backend(queries, backend),
        }
    }

    fn resilient(&self, queries: &[Ucq], config: &ResilienceConfig) -> Vec<QueryOutcome> {
        match self {
            Session::Unsharded(s) => s.resilient_probabilities(queries, config),
            Session::Sharded(s) => s.resilient_probabilities(queries, config),
        }
    }

    /// `(manager stats, executor batches, sub-queries over all shards)` of
    /// the most recent batch.
    fn last(&self) -> (ManagerStats, u64, u64) {
        match self {
            Session::Unsharded(s) => (s.last_manager_stats(), s.last_query_stats().exec.batches, 0),
            Session::Sharded(s) => (
                s.last_manager_stats(),
                s.last_query_stats().exec.batches,
                s.last_shard_queries().iter().sum::<u64>() + s.last_fallbacks(),
            ),
        }
    }
}

/// The compiled engines behind every front-end.
struct Engines {
    unsharded: MvdbEngine,
    sharded: Vec<ShardedEngine>,
}

impl Engines {
    fn compile(mvdb: &Mvdb) -> Self {
        Engines {
            unsharded: MvdbEngine::compile(mvdb).unwrap(),
            sharded: [1, 3]
                .iter()
                .map(|&n| ShardedEngine::compile(mvdb, n).unwrap())
                .collect(),
        }
    }

    /// A fresh session per front-end, labelled for assertion messages.
    fn sessions(&self) -> Vec<(String, Session<'_>)> {
        let unsharded = [1, 3].into_iter().map(|threads| {
            let session = self.unsharded.session().with_threads(threads);
            (format!("{threads} threads"), Session::Unsharded(session))
        });
        let sharded = self.sharded.iter().map(|engine| {
            let label = format!("{} shards", engine.num_shards());
            (label, Session::Sharded(engine.session()))
        });
        unsharded.chain(sharded).collect()
    }
}

fn default_backend(engines: &Engines) -> EngineBackend {
    EngineBackend::MvIndex(engines.unsharded.intersect_algorithm())
}

/// The plain path is the ladder's exact rung with no chaos draws: with
/// every site set to panic with certainty, plain batches still answer
/// exactly and not one site is drawn.
#[test]
fn plain_batches_cross_no_chaos_site() {
    let engines = Engines::compile(&sample_mvdb());
    let queries = workload();
    let backend = default_backend(&engines);
    let reference: Vec<f64> = {
        let _quiet = chaos::install(ChaosConfig::new(0));
        queries
            .iter()
            .map(|q| engines.unsharded.probability(q).unwrap())
            .collect()
    };
    let mut campaign = ChaosConfig::new(7);
    for site in sites::ALL {
        campaign = campaign.rule(site, Fault::Panic, 1.0);
    }
    let _guard = chaos::install(campaign);
    for (front, session) in engines.sessions() {
        let probs = session
            .plain(&queries, backend)
            .unwrap_or_else(|e| panic!("{front}: {e}"));
        for (i, (p, r)) in probs.iter().zip(&reference).enumerate() {
            assert!((p - r).abs() < 1e-12, "{front}, slot {i}: {p} vs {r}");
        }
    }
    let counts = chaos::injection_counts();
    assert_eq!(counts.len(), sites::ALL.len());
    assert!(
        counts.iter().all(|(_, _, draws, _)| *draws == 0),
        "a plain batch must not draw any chaos site: {counts:?}"
    );
}

/// A query no rung can answer keeps its own error type through the plain
/// projection, and stays a per-query semantic fault through the resilient
/// one, beside an answered neighbour.
#[test]
fn semantic_errors_keep_their_type_through_both_projections() {
    let _quiet = chaos::install(ChaosConfig::new(0));
    let engines = Engines::compile(&sample_mvdb());
    let queries = vec![
        parse_ucq("Q() :- R(x)").unwrap(),
        parse_ucq("Q() :- Unknown(x)").unwrap(),
    ];
    let reference = engines.unsharded.probability(&queries[0]).unwrap();
    for (front, session) in engines.sessions() {
        let err = session
            .plain(&queries, default_backend(&engines))
            .expect_err("an unknown relation cannot be answered");
        assert!(matches!(err, CoreError::Query(_)), "{front}: {err:?}");

        let outcomes = session.resilient(&queries, &ResilienceConfig::default());
        assert_eq!(
            outcomes[1].fault.as_ref().map(|f| f.kind),
            Some(FaultKind::Semantic),
            "{front}"
        );
        assert!(!outcomes[1].answered(), "{front}");
        let p = outcomes[0].probability.expect("the neighbour is answered");
        assert!((p - reference).abs() < 1e-12, "{front}: {p} vs {reference}");
    }
}

/// Plain evaluation *is* the exact rung: on a clean run both projections
/// return the same bits for every exact backend.
#[test]
fn plain_and_resilient_answers_are_bit_identical_on_clean_runs() {
    let _quiet = chaos::install(ChaosConfig::new(0));
    let engines = Engines::compile(&sample_mvdb());
    let queries = workload();
    for backend in EngineBackend::comparison_suite() {
        for (front, session) in engines.sessions() {
            let plain = session.plain(&queries, backend).unwrap();
            let outcomes = session.resilient(&queries, &ResilienceConfig::with_inner(backend));
            for (i, (p, o)) in plain.iter().zip(&outcomes).enumerate() {
                let r = o.probability.expect("clean runs answer");
                assert_eq!(
                    p.to_bits(),
                    r.to_bits(),
                    "{front}, {backend:?}, slot {i}: {p} vs {r}"
                );
            }
        }
    }
}

/// A backend that panics on a query loses that query with the same typed
/// error at every thread and shard count. Brute force refuses (by panic)
/// to enumerate more than `MAX_BRUTE_VARIABLES` lineage variables; 27
/// tuples per shard put every shard, and the full store, past it.
#[test]
fn a_panicking_backend_is_a_typed_error_at_every_front_end() {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    for i in 0..81 {
        b.weighted_tuple("R", &[format!("k{i}").as_str()], 1.0)
            .unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x)").unwrap();
    let engines = Engines::compile(&b.build().unwrap());
    let queries = vec![parse_ucq("Q() :- R(x)").unwrap()];
    for (front, session) in engines.sessions() {
        let err = session
            .plain(&queries, EngineBackend::BruteForce)
            .expect_err("brute force cannot enumerate this lineage");
        assert!(
            matches!(err, CoreError::WorkerPanicked { .. }),
            "{front}: {err:?}"
        );
    }
}

/// `last_*` describe the most recent batch, also when it is an error.
#[test]
fn last_stats_follow_the_most_recent_batch_even_when_it_errors() {
    let engines = Engines::compile(&sample_mvdb());
    let good = workload();
    let bad = vec![parse_ucq("Q() :- Unknown(x)").unwrap()];
    let backend = default_backend(&engines);
    for (front, session) in engines.sessions() {
        session.plain(&good, backend).unwrap();
        let (manager, batches, shard_work) = session.last();
        assert!(manager.nodes_allocated > 0, "{front}");
        assert!(batches > 0, "{front}");
        if matches!(session, Session::Sharded(_)) {
            assert!(shard_work > 0, "{front}");
        }
        // The failing batch compiles no plan and builds no diagram: its
        // counters are all zero, not the previous batch's.
        assert!(session.plain(&bad, backend).is_err(), "{front}");
        let (manager, batches, shard_work) = session.last();
        assert_eq!(manager.nodes_allocated, 0, "{front}");
        assert_eq!(batches, 0, "{front}");
        assert_eq!(shard_work, 0, "{front}");
    }
}
