//! Regression: the manager's hot paths are iterative (explicit stacks), so
//! chain diagrams with 100 000 levels — the shape produced by repeated
//! concatenation over a large database — must build, negate, combine, and
//! evaluate probabilities **with the default stack size**. A recursive
//! implementation dies here: Rust test threads get 2 MiB of stack, and
//! 100 000 frames of even a tiny recursive `apply` blow well past that
//! (`mv_obdd::reference::RefManager` exists to show what that code looks
//! like; do not run it at this depth).

use std::sync::Arc;

use mv_obdd::{ObddManager, VarOrder};
use mv_pdb::TupleId;

const LEVELS: u32 = 100_000;

fn chain_manager() -> ObddManager {
    let order = Arc::new(VarOrder::from_tuples((0..LEVELS).map(TupleId)));
    ObddManager::new(order)
}

#[test]
fn deep_chain_builds_negates_and_evaluates_probability() {
    let m = chain_manager();
    let clause: Vec<TupleId> = (0..LEVELS).map(TupleId).collect();
    let chain = m.clause(&clause).expect("chain builds");
    assert_eq!(chain.size(), LEVELS as usize);

    // Probability passes walk all 100k levels.
    let p = chain.probability(|_| 1.0);
    assert_eq!(p, 1.0);
    let p_again = chain.probability(|_| 1.0);
    assert_eq!(p_again, 1.0);
    // A non-degenerate weight stays finite and positive.
    let p_small = chain.probability(|_| 0.9999);
    assert!(p_small.is_finite() && p_small > 0.0 && p_small < 1.0);

    // Negation rebuilds the whole chain iteratively.
    let negated = chain.negate();
    assert_eq!(negated.size(), LEVELS as usize);
    assert_eq!(negated.probability(|_| 1.0), 0.0);
    // The involution direction is answered from the dense memo.
    assert_eq!(negated.negate().root(), chain.root());

    // Point evaluation follows one root-to-sink path of length 100k.
    assert!(chain.eval(|_| true));
    assert!(!chain.eval(|t| t.0 != LEVELS / 2));
}

#[test]
fn deep_chain_apply_combines_interleaved_operands() {
    // apply(∧) over two 50k-level chains on interleaved levels walks the
    // full 100k-level result depth on an explicit stack.
    let m = chain_manager();
    let evens: Vec<TupleId> = (0..LEVELS).step_by(2).map(TupleId).collect();
    let odds: Vec<TupleId> = (1..LEVELS).step_by(2).map(TupleId).collect();
    let even_chain = m.clause(&evens).expect("even chain");
    let odd_chain = m.clause(&odds).expect("odd chain");
    let combined = even_chain.apply_and(&odd_chain).expect("apply");
    // x0 ∧ x1 ∧ … over all levels: identical to the full clause.
    let full = m
        .clause(&(0..LEVELS).map(TupleId).collect::<Vec<_>>())
        .expect("full chain");
    assert_eq!(combined.root(), full.root());
    assert_eq!(combined.probability(|_| 1.0), 1.0);

    // Probability passes across several deep diagrams.
    let total: f64 = [&even_chain, &odd_chain, &combined]
        .iter()
        .map(|d| d.probability(|_| 1.0))
        .sum();
    assert_eq!(total, 3.0);
}
