//! The MV-index's answer oracle for the integration tests: the blocks a
//! lineage touches, rebuilt from `W`'s clauses in an `ObddManager` of the
//! test's own and read by the pointer-based MVIntersect of Section 4.3 —
//! nothing of the index's block table is used but its tuple → block map.

use markoviews::mvindex::intersect::{mv_intersect, CcLayout};
use markoviews::mvindex::{AugmentedObdd, MvIndex};
use markoviews::obdd::ObddManager;
use markoviews::pdb::TupleId;
use markoviews::query::lineage::Lineage;

/// `P0(Q | ¬W)` for the lineage of `Q`: every touched block's clauses of
/// `W` folded again in a fresh manager over the index's order, the
/// conjunction of their `¬W_k` annotated and intersected with the lineage's
/// diagram by [`mv_intersect`], divided by each block's `P0(¬W_k)` as the
/// manager computes it.
pub fn manager_conditional(
    index: &MvIndex,
    lineage: &Lineage,
    prob_of: impl Fn(TupleId) -> f64 + Copy,
) -> f64 {
    let manager = ObddManager::new(index.order());
    let mut touched: Vec<usize> = lineage
        .variables()
        .iter()
        .filter_map(|&t| index.block_of(t))
        .collect();
    touched.sort_unstable();
    touched.dedup();
    let mut not_w = manager.constant(true);
    let mut divisor = 1.0;
    for &block in &touched {
        let clauses: Vec<&Vec<TupleId>> = index
            .w_lineage()
            .clauses()
            .iter()
            .filter(|c| c.first().and_then(|&t| index.block_of(t)) == Some(block))
            .collect();
        let not_w_k = manager.dnf(&clauses).unwrap().negate();
        divisor *= not_w_k.probability(prob_of);
        not_w = not_w.apply_and(&not_w_k).unwrap();
    }
    let query = CcLayout::new(&manager.dnf(lineage.clauses()).unwrap(), prob_of);
    mv_intersect(&AugmentedObdd::new(not_w, prob_of), &query, prob_of) / divisor
}
