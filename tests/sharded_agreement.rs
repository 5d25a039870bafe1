//! Sharded vs unsharded agreement: the component-partitioned scale-out
//! path ([`markoviews::core::ShardedEngine`]) must return the same
//! probabilities as the monolithic engine — within 1e-12 — for every exact
//! backend, every shard count, and every routing outcome: queries whose
//! lineage lives in one shard, spans several shards (combined by
//! independence), crosses shards inside a single clause (oracle fallback),
//! or touches zero shards (constant lineage).

use markoviews::pdb::TupleId;
use markoviews::prelude::*;
use markoviews::query::{Clause, ClauseBuffer, ComponentPartitioner, Partition, RoutedLineage};
use proptest::prelude::*;

mod common;
use common::{build, mvdb_strategy};

/// Queries covering every routing outcome on the R/S + view fixtures:
/// single-component selections, multi-component disjunctions and scans
/// (per-shard independence combination), deliberate cross-component
/// conjunctions (oracle fallback), and empty-match constants (zero
/// shards).
fn workload() -> Vec<Ucq> {
    [
        "Q() :- R(x), S(x, y)",
        "Q() :- R(x)",
        "Q() :- S(x, y)",
        "Q() :- R(x) ; Q() :- S(x, y)",
        "Q() :- R(0)",
        "Q() :- S(0, y)",
        "Q() :- R(0), S(1, y)",
        "Q() :- R(x), S(y, z)",
        "Q() :- R(9)",
    ]
    .iter()
    .map(|q| parse_ucq(q).unwrap())
    .collect()
}

#[test]
fn running_example_agrees_sharded_and_unsharded() {
    let mut b = MvdbBuilder::new();
    b.relation("R", &["x"]).unwrap();
    b.relation("S", &["x"]).unwrap();
    for (x, (wr, ws)) in [("a", (3.0, 4.0)), ("b", (1.0, 0.5)), ("c", (2.0, 2.0))] {
        b.weighted_tuple("R", &[x], wr).unwrap();
        b.weighted_tuple("S", &[x], ws).unwrap();
    }
    b.marko_view("V(x)[0.5] :- R(x), S(x)").unwrap();
    let mvdb = b.build().unwrap();
    let oracle = MvdbEngine::compile(&mvdb).unwrap();
    for num_shards in [1, 2, 4] {
        let engine = ShardedEngine::compile(&mvdb, num_shards).unwrap();
        for q_text in ["Q() :- R(x), S(x)", "Q() :- R(x)", "Q() :- R('a'), S('b')"] {
            let q = parse_ucq(q_text).unwrap();
            let p = engine.probability(&q).unwrap();
            let reference = oracle.probability(&q).unwrap();
            assert!(
                (p - reference).abs() < 1e-12,
                "{q_text} at {num_shards} shards: {p} vs {reference}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_probabilities_match_the_unsharded_oracle(desc in mvdb_strategy()) {
        let mvdb = build(&desc);
        let oracle = match MvdbEngine::compile(&mvdb) {
            Ok(e) => e,
            // Denial views can make the MVDB inconsistent; nothing to
            // compare in that case.
            Err(_) => return Ok(()),
        };
        let queries = workload();
        let reference: Vec<f64> = queries
            .iter()
            .map(|q| oracle.probability(q).unwrap())
            .collect();
        for num_shards in [1, 2, 3] {
            let engine = ShardedEngine::from_engine(oracle.clone(), num_shards).unwrap();
            let session = engine.session();
            for selector in EngineBackend::comparison_suite() {
                let batch = session
                    .probabilities_with_backend(&queries, selector)
                    .unwrap();
                for ((q, r), p) in queries.iter().zip(&reference).zip(&batch) {
                    prop_assert!(
                        (r - p).abs() < 1e-12,
                        "{} via {:?} at {} shards: {} vs oracle {} on {:?}",
                        q, selector, num_shards, p, r, desc
                    );
                }
            }
            // The workload exercises the whole routing spectrum whenever
            // the database has more than one component: "Q() :- R(9)" never
            // matches (zero shards), and the multi-scan queries either
            // combine across shards or fall back.
            let _ = session.probabilities(&queries).unwrap();
            prop_assert_eq!(session.last_shard_queries().len(), num_shards);
        }
    }
}

/// The name selection that matches *every* advisor — at 2 000 authors about
/// 9 000 clauses over every block of the index, the shape that ran out of
/// memory at 10 000 authors while the online path was quadratic. It must
/// evaluate, agree sharded and unsharded, give each of 4 shards work, and
/// stay on the exact rung.
#[test]
fn the_all_advisors_selection_is_exact_sharded_and_unsharded() {
    use markoviews::core::backend::{ResilienceConfig, ResilientBackend, Rung};

    let data = DblpDataset::generate(DblpConfig::with_authors(2000)).unwrap();
    let q = markoviews::dblp::queries::students_of_advisor_named("f00")
        .unwrap()
        .boolean();
    let oracle = MvdbEngine::compile(&data.mvdb).unwrap();
    let lineage = oracle.context().lineage(&q).unwrap();
    assert!(lineage.num_clauses() > 4 * data.stats.advisor / 5);
    let reference = oracle.probability(&q).unwrap();
    assert!((0.0..=1.0).contains(&reference), "{reference}");

    let sharded = ShardedEngine::from_engine(oracle.clone(), 4).unwrap();
    let session = sharded.session();
    let p = session.probabilities(std::slice::from_ref(&q)).unwrap()[0];
    assert!((p - reference).abs() < 1e-12, "{p} vs {reference}");
    // Every block is touched, so every shard carried work.
    let per_shard = session.last_shard_queries();
    assert!(
        per_shard.len() == 4 && per_shard.iter().all(|&c| c > 0),
        "{per_shard:?}"
    );

    let ladder = ResilientBackend::new(ResilienceConfig::default());
    assert_eq!(ladder.config().node_budget, 1 << 18);
    let outcome = ladder.evaluate(&q, &oracle.context());
    assert_eq!(outcome.rung, Some(Rung::Exact), "{:?}", outcome.fault);
    assert!((outcome.probability.unwrap() - reference).abs() < 1e-12);
}

/// Every broad (100-aid band) and heavy (1 000-aid band) name selection of
/// the repository benchmark at 2 000 authors, one `ShardedEngine::probability`
/// call each. A broad lineage stays well below the clause count from which
/// phase 2 spawns a thread per touched shard (1 536) and a heavy one well
/// above it, so both sides of that choice answer like the oracle.
#[test]
fn name_selections_agree_sharded_and_unsharded_on_both_sides_of_the_fan_out() {
    let authors = 2000;
    let data = DblpDataset::generate(DblpConfig::with_authors(authors)).unwrap();
    let oracle = MvdbEngine::compile(&data.mvdb).unwrap();
    let sharded = ShardedEngine::from_engine(oracle.clone(), 2).unwrap();
    let ctx = oracle.context();
    let broad = (0..authors / 100).map(|band| (format!("f{band:04}"), false));
    let heavy = (0..authors / 1000).map(|band| (format!("f{band:03}"), true));
    for (fragment, is_heavy) in broad.chain(heavy) {
        let q = parse_ucq(&format!(
            "Q() :- Student(aid, year), Advisor(aid, aid1), Author(aid, n), \
             Author(aid1, n1), n1 like '%{fragment}%'"
        ))
        .unwrap();
        let clauses = ctx.lineage(&q).unwrap().num_clauses();
        if is_heavy {
            assert!(clauses > 4096, "{fragment}: {clauses} clauses");
        } else {
            assert!(
                (1..1024).contains(&clauses),
                "{fragment}: {clauses} clauses"
            );
        }
        let reference = oracle.probability(&q).unwrap();
        let p = sharded.probability(&q).unwrap();
        assert!(
            (p - reference).abs() < 1e-12,
            "{fragment}: {p} vs {reference}"
        );
    }
}

/// The point queries of the repository benchmark (`point_batch`): one text
/// per student, advisor and affiliated author, in three shapes. A sharded
/// session compiles one template per shape for the snapshot, and each
/// routing context reports the three templates it resolved — never the
/// whole shared cache once per worker.
#[test]
fn point_queries_resolve_one_template_per_shape_per_context() {
    let data = DblpDataset::generate(DblpConfig::with_authors(500)).unwrap();
    let texts = data
        .students
        .iter()
        .map(|s| format!("Q() :- Student({s}, year), Advisor({s}, aid2)"))
        .chain(
            data.advisors
                .iter()
                .map(|a| format!("Q() :- Student(aid, year), Advisor(aid, {a})")),
        )
        .chain(
            data.affiliated_authors
                .iter()
                .map(|z| format!("Q() :- Affiliation({z}, inst)")),
        );
    let queries: Vec<Ucq> = texts.map(|t| parse_ucq(&t).unwrap()).collect();
    assert!(queries.len() > 300);

    let engine = ShardedEngine::compile(&data.mvdb, 2).unwrap();
    let cache = engine.full().translated().plan_cache();
    let session = engine.session();
    // A batch of another shape first: the shared cache then holds more
    // templates than any one point-query context resolves.
    session
        .probabilities(&[parse_ucq("Q() :- Student(aid, year)").unwrap()])
        .unwrap();
    assert_eq!(cache.len(), 1);

    let probs = session.probabilities(&queries).unwrap();
    assert_eq!(cache.len(), 4);
    let plan = session.last_query_stats().plan;
    assert_eq!(plan.disjuncts, 3 * engine.num_shards(), "{plan:?}");
    assert_eq!(plan.never_matching, 0);
    // Unsharded, one context: the same three templates, no compile.
    let unsharded = engine.full().session();
    let reference = unsharded.probabilities(&queries).unwrap();
    assert_eq!(unsharded.last_query_stats().plan.disjuncts, 3);
    assert_eq!(cache.len(), 4);
    for (q, (p, r)) in queries.iter().zip(probs.iter().zip(&reference)) {
        assert!((p - r).abs() < 1e-12, "{q}: {p} vs {r}");
    }
}

/// Per touched shard, its clauses — or `None` for a cross-shard lineage.
type Routed = Option<Vec<(usize, Vec<Clause>)>>;

/// The routing oracle: a union-find over tuple ids and a hash map of group
/// homes, independent of the router's dense, epoch-stamped scratch. Clauses
/// sharing a tuple share a group; a group is homed by its W-homed tuples,
/// has no home when they span two shards (`None`), and is pinned to its
/// smallest tuple id modulo the shard count when it has none. Each shard's
/// clauses keep their input order.
fn oracle_route(partition: &Partition, clauses: &[Clause]) -> Routed {
    use markoviews::query::UnionFind;
    use std::collections::HashMap;

    let mut uf = UnionFind::default();
    for clause in clauses {
        uf.union_clause(clause);
    }
    // Per group root: (home shard, smallest tuple).
    let mut groups: HashMap<usize, (Option<usize>, TupleId)> = HashMap::new();
    for clause in clauses {
        let &first = clause.first()?;
        let root = uf.find_id(first);
        let group = groups.entry(root).or_insert((None, first));
        for &t in clause {
            group.1 = group.1.min(t);
            match (partition.home_of(t), group.0) {
                (Some(shard), None) => group.0 = Some(shard),
                (Some(shard), Some(home)) if shard != home => return None,
                _ => {}
            }
        }
    }
    let mut buckets: Vec<Vec<Clause>> = vec![Vec::new(); partition.num_shards()];
    for clause in clauses {
        let (home, least) = groups[&uf.find_id(clause[0])];
        let shard = home.unwrap_or(least.0 as usize % partition.num_shards());
        buckets[shard].push(clause.clone());
    }
    Some(
        buckets
            .into_iter()
            .enumerate()
            .filter(|(_, clauses)| !clauses.is_empty())
            .collect(),
    )
}

/// The flat router's answer as the oracle's type.
fn flat_route(partition: &Partition, clauses: &[Clause]) -> Routed {
    let mut buffer = ClauseBuffer::new();
    for clause in clauses {
        buffer.push(clause);
    }
    let groups = partition.route_clauses(&buffer)?;
    Some(
        groups
            .into_iter()
            .map(|(shard, buffer)| (shard, buffer.iter().map(<[TupleId]>::to_vec).collect()))
            .collect(),
    )
}

/// `route(&Lineage)`'s answer as the oracle's type.
fn lineage_route(partition: &Partition, lineage: &Lineage) -> Routed {
    match partition.route(lineage) {
        RoutedLineage::Sharded { groups } => Some(groups),
        RoutedLineage::CrossShard => None,
    }
}

fn tuples(ids: &[u32]) -> Clause {
    ids.iter().map(|&t| TupleId(t)).collect()
}

/// The routing cases by name, each against the oracle and its expected
/// outcome, on W components {0, 1} and {2, 3} over 3 shards (the third
/// stays empty) and W-free tuples 4..12.
#[test]
fn the_flat_router_agrees_with_the_oracle_on_each_routing_case() {
    let w = [tuples(&[0, 1]), tuples(&[2, 3])];
    let partition = ComponentPartitioner::new(12, &w).partition(3);
    let (s0, s2) = (
        partition.home_of(TupleId(0)).unwrap(),
        partition.home_of(TupleId(2)).unwrap(),
    );
    assert_ne!(s0, s2);
    assert_eq!(
        partition.shard_sizes().iter().filter(|&&n| n == 0).count(),
        1
    );
    let cases = [
        (
            "cross-shard through a shared W-free tuple",
            vec![tuples(&[0, 5]), tuples(&[2, 5])],
            None,
        ),
        ("one clause mixing two shards", vec![tuples(&[1, 3])], None),
        (
            "all-free group pinned by its smallest tuple, largest first",
            vec![tuples(&[8, 10]), tuples(&[7, 8])],
            Some(vec![7 % 3]),
        ),
        (
            "two homed groups and a free one",
            vec![tuples(&[0, 4]), tuples(&[3, 6]), tuples(&[9])],
            Some({
                let mut shards = vec![s0, s2, 0];
                shards.sort_unstable();
                shards.dedup();
                shards
            }),
        ),
        (
            "an empty shard stays out of the groups",
            vec![tuples(&[0]), tuples(&[1, 11])],
            Some(vec![s0]),
        ),
    ];
    for (name, clauses, shards) in cases {
        let oracle = oracle_route(&partition, &clauses);
        assert_eq!(flat_route(&partition, &clauses), oracle, "{name}");
        let touched = oracle
            .as_ref()
            .map(|groups| groups.iter().map(|(s, _)| *s).collect());
        assert_eq!(touched, shards, "{name}");
        let lineage = Lineage::from_clauses(clauses);
        assert_eq!(
            lineage_route(&partition, &lineage),
            oracle_route(&partition, lineage.clauses()),
            "{name}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The flat router and `route(&Lineage)` against the oracle on random
    /// partitions and lineages, the flat router's clauses in a shuffled
    /// order (it keeps input order per shard, and so does the oracle).
    #[test]
    fn the_flat_router_and_route_agree_with_the_oracle(
        w in proptest::collection::vec(proptest::collection::vec(0u32..16, 1..=3), 0..=6),
        num_shards in 1usize..=4,
        query in proptest::collection::vec(proptest::collection::vec(0u32..24, 1..=3), 1..=8),
        keys in proptest::collection::vec(0u32..u32::MAX, 8),
    ) {
        let w: Vec<Clause> = Lineage::from_clauses(w.iter().map(|c| tuples(c))).into_clauses();
        let partition = ComponentPartitioner::new(24, &w).partition(num_shards);
        let lineage = Lineage::from_clauses(query.iter().map(|c| tuples(c)));
        prop_assert_eq!(
            lineage_route(&partition, &lineage),
            oracle_route(&partition, lineage.clauses())
        );
        let mut shuffled: Vec<(u32, Clause)> = lineage
            .clauses()
            .iter()
            .enumerate()
            .map(|(i, c)| (keys[i], c.clone()))
            .collect();
        shuffled.sort_unstable();
        let shuffled: Vec<Clause> = shuffled.into_iter().map(|(_, c)| c).collect();
        let flat = flat_route(&partition, &shuffled);
        prop_assert_eq!(&flat, &oracle_route(&partition, &shuffled));
        // The same clause set per shard, whichever the order.
        let sets = |routed: Routed| {
            routed.map(|groups| {
                groups
                    .into_iter()
                    .map(|(s, mut clauses)| {
                        clauses.sort();
                        (s, clauses)
                    })
                    .collect::<Vec<_>>()
            })
        };
        prop_assert_eq!(sets(flat), sets(lineage_route(&partition, &lineage)));
    }
}
