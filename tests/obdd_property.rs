//! Property-based tests of the OBDD layer: probabilities computed by Shannon
//! expansion on the diagram agree with brute-force enumeration and with the
//! Shannon-expansion evaluator on the raw lineage; the ConOBDD construction
//! and the synthesis-only construction produce the same reduced diagram; and
//! Boolean operations respect their truth tables.

use std::sync::Arc;

use markoviews::obdd::{ConObddBuilder, Obdd, ObddManager, PiOrder, VarOrder};
use markoviews::pdb::{value::row, InDb, InDbBuilder, TupleId, Weight};
use markoviews::query::brute::brute_force_probability_with;
use markoviews::query::lineage::{lineage, Lineage};
use markoviews::query::shannon::probability_with;
use markoviews::query::{brute::brute_force_query_probability, parse_ucq};
use proptest::prelude::*;

/// A random DNF over `num_vars` variables.
fn dnf_strategy(num_vars: usize) -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0..num_vars as u32, 1..=3), 1..=6)
}

/// Random probabilities, including negative ones (the translated databases of
/// Section 3.3).
fn prob_strategy(num_vars: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(prop_oneof![3 => 0.0f64..1.0, 1 => -3.0f64..0.0], num_vars)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn obdd_probability_matches_brute_force_and_shannon(
        clauses in dnf_strategy(7),
        probs in prob_strategy(7),
    ) {
        let lineage = Lineage::from_clauses(
            clauses.iter().map(|c| c.iter().map(|&i| TupleId(i)).collect()).collect::<Vec<_>>(),
        );
        let order = Arc::new(VarOrder::from_tuples((0..7).map(TupleId)));
        let obdd = ObddManager::new(order).lineage(&lineage).unwrap();
        let prob_of = |t: TupleId| probs[t.index()];
        let via_obdd = obdd.probability(prob_of);
        let via_brute = brute_force_probability_with(&lineage, &prob_of);
        let via_shannon = probability_with(&lineage, &prob_of);
        prop_assert!((via_obdd - via_brute).abs() < 1e-8, "obdd {via_obdd} vs brute {via_brute}");
        prop_assert!((via_shannon - via_brute).abs() < 1e-8);
    }

    #[test]
    fn dnf_root_does_not_depend_on_the_clause_order(
        clauses in dnf_strategy(7),
        keys in proptest::collection::vec(0u32..u32::MAX, 6),
        probs in prob_strategy(7),
    ) {
        // `dnf` folds in its own (level) order; whatever permutation the
        // clauses arrive in, one manager must hand back one root.
        let clauses: Vec<Vec<TupleId>> =
            clauses.iter().map(|c| c.iter().map(|&i| TupleId(i)).collect()).collect();
        let mut permuted: Vec<(u32, Vec<TupleId>)> =
            keys.iter().copied().zip(clauses.iter().cloned()).collect();
        permuted.sort();
        let permuted: Vec<Vec<TupleId>> = permuted.into_iter().map(|(_, c)| c).collect();
        let manager = ObddManager::new(Arc::new(VarOrder::from_tuples((0..7).map(TupleId))));
        let as_given = manager.dnf(&clauses).unwrap();
        prop_assert_eq!(as_given.root(), manager.dnf(&permuted).unwrap().root());
        prop_assert_eq!(manager.canonicity_violation(), None);
        let prob_of = |t: TupleId| probs[t.index()];
        let via_brute = brute_force_probability_with(&Lineage::from_clauses(clauses), &prob_of);
        prop_assert!((as_given.probability(prob_of) - via_brute).abs() < 1e-8);
    }

    #[test]
    fn obdd_semantics_match_the_lineage_on_all_assignments(
        clauses in dnf_strategy(6),
    ) {
        let lineage = Lineage::from_clauses(
            clauses.iter().map(|c| c.iter().map(|&i| TupleId(i)).collect()).collect::<Vec<_>>(),
        );
        let order = Arc::new(VarOrder::from_tuples((0..6).map(TupleId)));
        let obdd = ObddManager::new(order).lineage(&lineage).unwrap();
        for mask in 0u64..(1 << 6) {
            prop_assert_eq!(obdd.eval(|t| mask & (1 << t.0) != 0), lineage.eval(mask));
        }
    }

    #[test]
    fn shared_manager_store_stays_canonical(
        clauses_a in dnf_strategy(6),
        clauses_b in dnf_strategy(6),
        probs in prob_strategy(6),
    ) {
        // Build two random DNFs plus derived diagrams (apply, negate,
        // concat attempts) in ONE shared manager, then check the arena
        // invariants: no duplicate (level, lo, hi) triple, no redundant
        // node with lo == hi, children strictly below parents, unique
        // table in sync. Probabilities must still match brute force.
        let to_lineage = |cs: &Vec<Vec<u32>>| Lineage::from_clauses(
            cs.iter().map(|c| c.iter().map(|&i| TupleId(i)).collect()).collect::<Vec<_>>(),
        );
        let la = to_lineage(&clauses_a);
        let lb = to_lineage(&clauses_b);
        let manager = ObddManager::new(Arc::new(VarOrder::from_tuples((0..6).map(TupleId))));
        let ga = manager.lineage(&la).unwrap();
        let gb = manager.lineage(&lb).unwrap();
        let g_or = ga.apply_or(&gb).unwrap();
        let g_and = ga.apply_and(&gb).unwrap();
        let g_not = g_or.negate();
        // Exercise the concat path too when the level ranges allow it.
        let _ = ga.concat_or(&gb);
        prop_assert_eq!(manager.canonicity_violation(), None);
        // Same function ⇒ same root (canonicity of reduced OBDDs): rebuild
        // one of the diagrams and compare handles.
        let ga_again = manager.lineage(&la).unwrap();
        prop_assert_eq!(ga.root(), ga_again.root());
        // Cross-check probabilities against brute force on the shared arena.
        let prob_of = |t: TupleId| probs[t.index()];
        let via_obdd = g_or.probability(prob_of);
        let via_brute = brute_force_probability_with(&la.or(&lb), &prob_of);
        prop_assert!((via_obdd - via_brute).abs() < 1e-8);
        for mask in 0u64..(1 << 6) {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            prop_assert_eq!(g_and.eval(assign), la.eval(mask) && lb.eval(mask));
            prop_assert_eq!(g_not.eval(assign), !(la.eval(mask) || lb.eval(mask)));
        }
    }

    #[test]
    fn negation_and_disjunction_respect_truth_tables(
        clauses_a in dnf_strategy(5),
        clauses_b in dnf_strategy(5),
    ) {
        let to_lineage = |cs: &Vec<Vec<u32>>| Lineage::from_clauses(
            cs.iter().map(|c| c.iter().map(|&i| TupleId(i)).collect()).collect::<Vec<_>>(),
        );
        let la = to_lineage(&clauses_a);
        let lb = to_lineage(&clauses_b);
        let order = Arc::new(VarOrder::from_tuples((0..5).map(TupleId)));
        let manager = ObddManager::new(Arc::clone(&order));
        let ga = manager.lineage(&la).unwrap();
        let gb = manager.lineage(&lb).unwrap();
        let g_or = ga.apply_or(&gb).unwrap();
        let g_and = ga.apply_and(&gb).unwrap();
        let g_not_a = ga.negate();
        for mask in 0u64..(1 << 5) {
            let assign = |t: TupleId| mask & (1 << t.0) != 0;
            prop_assert_eq!(g_or.eval(assign), la.eval(mask) || lb.eval(mask));
            prop_assert_eq!(g_and.eval(assign), la.eval(mask) && lb.eval(mask));
            prop_assert_eq!(g_not_a.eval(assign), !la.eval(mask));
        }
    }
}

/// A small random tuple-independent database over R(x), S(x, y), T(y).
fn small_indb_strategy() -> impl Strategy<Value = Vec<(u8, u8, f64)>> {
    proptest::collection::vec((0u8..3, 0u8..3, 0.2f64..4.0), 1..=6)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn conobdd_and_synthesis_agree_on_random_databases(rows in small_indb_strategy()) {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        let t = b.probabilistic_relation("T", &["y"]).unwrap();
        for (x, y, w) in &rows {
            b.insert_weighted(r, row([i64::from(*x)]), Weight::new(*w)).unwrap();
            b.insert_weighted(s, row([i64::from(*x), i64::from(*y)]), Weight::new(w + 0.1)).unwrap();
            b.insert_weighted(t, row([i64::from(*y)]), Weight::new(1.0)).unwrap();
        }
        let indb: InDb = b.build();
        for q_text in [
            "Q() :- R(x), S(x, y)",
            "Q() :- S(x, y), T(y)",
            "Q() :- R(x), S(x, y) ; Q() :- T(z)",
            "Q() :- R(x), S(x, y), T(y)",
        ] {
            let q = parse_ucq(q_text).unwrap();
            let mut con = ConObddBuilder::for_query(&indb, &q);
            let fast = con.build(&q).unwrap();
            let lin = lineage(&q, &indb).unwrap();
            let slow = ObddManager::new(con.order()).lineage(&lin).unwrap();
            let pf = fast.probability(|t| indb.probability(t));
            let ps = slow.probability(|t| indb.probability(t));
            let brute = brute_force_query_probability(&q, &indb).unwrap();
            prop_assert!((pf - brute).abs() < 1e-8, "{q_text}: conobdd {pf} vs brute {brute}");
            prop_assert!((ps - brute).abs() < 1e-8, "{q_text}: synthesis {ps} vs brute {brute}");
            // Canonicity: both constructions produce the same reduced size.
            prop_assert_eq!(fast.size(), slow.size(), "sizes differ for {}", q_text);
        }
    }

    #[test]
    fn pi_order_covers_every_probabilistic_tuple(rows in small_indb_strategy()) {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        for (x, y, w) in &rows {
            b.insert_weighted(r, row([i64::from(*x)]), Weight::new(*w)).unwrap();
            b.insert_weighted(s, row([i64::from(*x), i64::from(*y)]), Weight::new(*w)).unwrap();
        }
        let indb = b.build();
        let order = PiOrder::identity().tuple_order(&indb);
        prop_assert_eq!(order.len(), indb.num_tuples());
        for i in 0..indb.num_tuples() as u32 {
            let level = order.level_of(TupleId(i)).expect("every tuple has a level");
            prop_assert_eq!(order.tuple_at(level), TupleId(i));
        }
    }

    #[test]
    fn lineage_or_is_union_and_query_union_is_lineage_or(rows in small_indb_strategy()) {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        for (x, y, w) in &rows {
            b.insert_weighted(r, row([i64::from(*x)]), Weight::new(*w)).unwrap();
            b.insert_weighted(s, row([i64::from(*x), i64::from(*y)]), Weight::new(*w)).unwrap();
        }
        let indb = b.build();
        let q1 = parse_ucq("Q() :- R(x)").unwrap();
        let q2 = parse_ucq("Q() :- S(x, y)").unwrap();
        let l1 = lineage(&q1, &indb).unwrap();
        let l2 = lineage(&q2, &indb).unwrap();
        let l_union = lineage(&q1.union(&q2), &indb).unwrap();
        prop_assert_eq!(l_union, l1.or(&l2));
    }
}

/// The constant-width guarantee of Proposition 2: inversion-free queries have
/// OBDDs whose width does not grow with the database.
#[test]
fn inversion_free_queries_have_constant_width_obdds() {
    for n in [4usize, 16, 64] {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["x"]).unwrap();
        let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
        for i in 0..n {
            b.insert_weighted(r, row([i as i64]), Weight::new(1.0))
                .unwrap();
            for j in 0..3 {
                b.insert_weighted(s, row([i as i64, j as i64]), Weight::new(2.0))
                    .unwrap();
            }
        }
        let indb = b.build();
        let q = parse_ucq("Q() :- R(x), S(x, y)").unwrap();
        assert!(markoviews::query::analysis::is_inversion_free(&q));
        let mut builder = ConObddBuilder::for_query(&indb, &q);
        let obdd: Obdd = builder.build(&q).unwrap();
        assert_eq!(obdd.width(), 1, "width must stay 1 at n = {n}");
        assert_eq!(obdd.size(), indb.num_tuples());
        assert_eq!(builder.stats().syntheses, 0);
    }
}
