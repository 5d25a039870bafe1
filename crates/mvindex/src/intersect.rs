//! The intersection algorithms of Section 4.3.
//!
//! Both algorithms compute `P0(Φ_W' ∧ Φ_Q)` where `Φ_W'` is (part of) the
//! compiled `¬W` diagram and `Φ_Q` is the (small) query diagram, built over
//! the same variable order, by **one** guided traversal (`Walk::intersect`)
//! memoised on the node pairs it visits, with the `probUnder` shortcut: as
//! soon as the query side reaches its `1`-sink the precomputed probability
//! of the remaining index sub-diagram is used, so only the slice of the
//! index between the first and last query variable is visited
//! (Proposition 3). What differs is where the index side is read from
//! (`IndexBlock`) — which is all Fig. 9 compares:
//!
//! * [`mv_intersect`] — **MVIntersect**: `ArenaBlock`, the pointer-based
//!   form: the diagram's nodes read from its [`mv_obdd::ObddManager`] store
//!   through one read guard, `probUnder` from the sparse per-diagram map of
//!   an [`AugmentedObdd`];
//! * [`cc_mv_intersect`] — **CC-MVIntersect**: a node slice (`BlockView`),
//!   the cache-conscious form: the block flattened into a vector of
//!   [`ObddNode`]s laid out children first, carrying `probUnder` and the
//!   variable probability inline, so the traversal takes no lock and
//!   chases no store pointers. A [`CcLayout`] is one such vector; the
//!   compiled [`MvIndex`](crate::MvIndex) keeps every block as a range of
//!   one.
//!
//! Every form names nodes the store's way — positions, and the sink
//! markers [`FALSE`] and [`TRUE`] — so nothing is renamed on the way.
//!
//! The traversal walks a *chain* of blocks in level order rather than one
//! diagram: a query that touches several blocks of the index continues from
//! one block's `1`-sink at the next block's root, dividing by each block's
//! own `P0(¬W_k)` where it enters it, so the slice `⋀ₖ ¬W_k` is never
//! assembled and no product over the touched blocks is ever formed (see
//! [`crate::kernel`] for the query side of that path). The two public
//! functions are the one-block case.
//!
//! The memo holds the visited pairs only — `O(|slice| + |query|)` for the
//! width-1 diagrams of inversion-free queries — never the
//! `|index| × |query|` product, and by *presence*, not by a sentinel value:
//! translated probabilities overflow to NaN by construction, and a NaN pair
//! that is not memoised is re-expanded on every path that reaches it.
//!
//! The query side is a flat slice of [`ObddNode`]s: the kernel folds a
//! lineage straight into one, and a [`CcLayout`] flattens the reachable
//! part of an [`Obdd`] out of its manager for callers that hold a diagram.

use mv_obdd::obdd::{FALSE, TRUE};
use mv_obdd::{prob_at, NodeId, Obdd, ObddNode, StampedMap};
use mv_pdb::TupleId;

use crate::augmented::AugmentedObdd;

/// A diagram's reachable part flattened children first and annotated
/// ([`Obdd::flatten`]): the query side of both algorithms, and the index
/// side of CC-MVIntersect — the standalone Fig. 9 form of what the index
/// keeps for every block as a range of its table.
#[derive(Debug, Clone)]
pub struct CcLayout {
    nodes: Vec<ObddNode>,
    root: NodeId,
}

impl CcLayout {
    /// Flattens and annotates the reachable part of `diagram`.
    pub fn new(diagram: &Obdd, prob_of: impl Fn(TupleId) -> f64) -> Self {
        let (nodes, root) = diagram.flatten(prob_of);
        CcLayout { nodes, root }
    }

    pub(crate) fn view(&self) -> BlockView<'_> {
        BlockView {
            nodes: &self.nodes,
            root: self.root,
        }
    }
}

/// Where the traversal reads an index-side block from. The two
/// implementations are the two algorithms of Section 4.3: `ArenaBlock`
/// chases a manager's store and the sparse `probUnder` map of an
/// [`AugmentedObdd`] (MVIntersect), `BlockView` reads one flat node slice
/// (CC-MVIntersect). The annotations are asked for apart from the structure
/// because only the pointer-based form pays for each separately.
pub(crate) trait IndexBlock {
    /// Position of the block's root (a sink marker for a constant block).
    fn root(&self) -> NodeId;
    /// `(level, lo, hi)` of the internal node at a position.
    fn node(&self, u: NodeId) -> (u32, NodeId, NodeId);
    /// `probUnder` of that node.
    fn prob_under(&self, u: NodeId) -> f64;
    /// Probability of the variable that node tests, the one at `level`.
    fn p_var(&self, u: NodeId, level: u32) -> f64;
}

/// An [`AugmentedObdd`] read in place from its manager's store.
pub(crate) struct ArenaBlock<'a, F> {
    pub(crate) index: &'a AugmentedObdd,
    /// A guard over the manager `index` lives in; one guard serves every
    /// block of a chain built in that manager.
    pub(crate) arena: &'a mv_obdd::ObddNodes<'a>,
    pub(crate) prob_of: F,
}

impl<F: Fn(TupleId) -> f64> IndexBlock for ArenaBlock<'_, F> {
    fn root(&self) -> NodeId {
        self.index.obdd().root()
    }

    fn node(&self, u: NodeId) -> (u32, NodeId, NodeId) {
        let node = self.arena.node(u);
        (node.level, node.lo, node.hi)
    }

    fn prob_under(&self, u: NodeId) -> f64 {
        self.index.prob_under(u)
    }

    fn p_var(&self, _: NodeId, level: u32) -> f64 {
        (self.prob_of)(self.index.obdd().order().tuple_at(level))
    }
}

/// One block read in place from a flat node slice: positions index the
/// slice, children are positions of the same slice or the sink markers.
/// What a row of the index's block table and a [`CcLayout`] hand the walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct BlockView<'a> {
    pub(crate) nodes: &'a [ObddNode],
    /// Position of the root, or a sink marker for a constant block.
    pub(crate) root: NodeId,
}

impl IndexBlock for BlockView<'_> {
    fn root(&self) -> NodeId {
        self.root
    }

    fn node(&self, u: NodeId) -> (u32, NodeId, NodeId) {
        let node = &self.nodes[u as usize];
        (node.level, node.lo, node.hi)
    }

    fn prob_under(&self, u: NodeId) -> f64 {
        self.nodes[u as usize].prob
    }

    fn p_var(&self, u: NodeId, _: u32) -> f64 {
        self.nodes[u as usize].p_var
    }
}

/// Heap bytes a vector holds (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

/// The reusable state of one traversal: the memo of visited
/// `(block, index position, query position)` triples and the explicit
/// stacks. Owned by the query kernel so the hot path allocates nothing.
#[derive(Debug, Clone)]
pub(crate) struct Walk {
    memo: StampedMap<f64>,
    stack: Vec<Frame>,
    results: Vec<f64>,
}

#[derive(Debug, Clone, Copy)]
enum Frame {
    /// Continue the query position at the root of block `.0`.
    Enter(u32, u32),
    /// Intersect index position `.1` of block `.0` with query position `.2`.
    Expand(u32, u32, u32),
    /// Combine the two child results of a triple under `p_var`.
    Combine(u32, u32, u32, f64),
    /// Divide the result on top by the entered block's own probability.
    Scale(f64),
}

impl Walk {
    pub(crate) fn new() -> Self {
        Walk {
            memo: StampedMap::new(),
            stack: Vec::new(),
            results: Vec::new(),
        }
    }

    /// Heap bytes of the memo and the stacks.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.memo.heap_bytes() + vec_bytes(&self.stack) + vec_bytes(&self.results)
    }

    /// The one traversal behind both algorithms, over a *chain* of `len`
    /// index-side blocks on ascending, pairwise disjoint level ranges
    /// (`block(k)` hands out the `k`-th one and the value entering it
    /// divides by): computes
    ///
    /// ```text
    /// P0(query ∧ ⋀ₖ blockₖ) / ∏ₖ divisorₖ
    /// ```
    ///
    /// The conjunction of the blocks is never materialised: a block's
    /// `1`-sink continues at the next block's root, its `0`-sink is the
    /// chain's. Every block after the first must be divided by its own
    /// probability — that is what lets `probUnder` of a node stand for the
    /// whole rest of the chain once the query side reaches its `1`-sink, and
    /// what keeps every intermediate value at the magnitude of one block
    /// whatever the number of blocks (translated probabilities are not
    /// bounded by one, Section 3.3). A single block with divisor `1` is the
    /// plain `P0(block ∧ query)` of Section 4.3.
    ///
    /// Memoised on the visited triples only, by presence (a NaN is a value
    /// like any other); iterative, so deep chains cannot overflow the
    /// thread stack.
    pub(crate) fn intersect<B: IndexBlock>(
        &mut self,
        len: usize,
        block: impl Fn(usize) -> (B, f64),
        query: &[ObddNode],
        query_root: NodeId,
    ) -> f64 {
        self.memo.reset();
        self.stack.clear();
        self.results.clear();
        self.stack.push(Frame::Enter(0, query_root));
        // The block the walk is in: consecutive frames rarely change it.
        let mut entered: Option<(u32, B)> = None;
        while let Some(frame) = self.stack.pop() {
            match frame {
                Frame::Enter(mut k, v) => loop {
                    if k as usize == len {
                        self.results.push(prob_at(query, v));
                        break;
                    }
                    let (next, divisor) = block(k as usize);
                    match next.root() {
                        FALSE => {
                            self.results.push(0.0);
                            break;
                        }
                        // A constant-true block constrains nothing.
                        TRUE => k += 1,
                        root => {
                            self.stack.push(Frame::Scale(divisor));
                            self.stack.push(Frame::Expand(k, root, v));
                            break;
                        }
                    }
                },
                Frame::Expand(k, u, v) => {
                    // Terminal shortcuts: a lookup each, not worth a memo entry.
                    if v == FALSE || u == FALSE {
                        self.results.push(0.0);
                        continue;
                    }
                    if u == TRUE {
                        if v == TRUE {
                            self.results.push(1.0);
                        } else {
                            self.stack.push(Frame::Enter(k + 1, v));
                        }
                        continue;
                    }
                    if entered.as_ref().map(|(at, _)| *at) != Some(k) {
                        entered = Some((k, block(k as usize).0));
                    }
                    let index = &entered.as_ref().expect("entered above").1;
                    if v == TRUE {
                        // probUnder: the rest of this block; the blocks
                        // after it cancel against their own divisors.
                        self.results.push(index.prob_under(u));
                        continue;
                    }
                    if let Some(p) = self.memo.get([k, u, v]) {
                        self.results.push(p);
                        continue;
                    }
                    let (level, lo, hi) = index.node(u);
                    let vn = query[v as usize];
                    let m = level.min(vn.level);
                    let (u0, u1) = if level == m { (lo, hi) } else { (u, u) };
                    let (v0, v1) = if vn.level == m {
                        (vn.lo, vn.hi)
                    } else {
                        (v, v)
                    };
                    // The branching variable's probability is stored on
                    // whichever side owns the level.
                    let p_var = if vn.level == m {
                        vn.p_var
                    } else {
                        index.p_var(u, level)
                    };
                    self.stack.push(Frame::Combine(k, u, v, p_var));
                    self.stack.push(Frame::Expand(k, u1, v1));
                    self.stack.push(Frame::Expand(k, u0, v0));
                }
                Frame::Combine(k, u, v, p_var) => {
                    let p1 = self.results.pop().expect("hi probability available");
                    let p0 = self.results.pop().expect("lo probability available");
                    let p = (1.0 - p_var) * p0 + p_var * p1;
                    self.memo.insert([k, u, v], p);
                    self.results.push(p);
                }
                Frame::Scale(divisor) => {
                    let p = self.results.pop().expect("block probability available");
                    self.results.push(p / divisor);
                }
            }
        }
        self.results
            .pop()
            .expect("intersection produces a probability")
    }
}

/// Computes `P0(index ∧ query)` by guided traversal of the arena-backed
/// diagram (the MVIntersect algorithm of Fig. 9; the index itself keeps no
/// arena).
pub fn mv_intersect(
    index: &AugmentedObdd,
    query: &CcLayout,
    prob_of: impl Fn(TupleId) -> f64 + Copy,
) -> f64 {
    let arena = &index.obdd().nodes();
    let block = |_| {
        let block = ArenaBlock {
            index,
            arena,
            prob_of,
        };
        (block, 1.0)
    };
    Walk::new().intersect(1, block, &query.nodes, query.root)
}

/// Computes `P0(index ∧ query)` over a cache-conscious layout (the
/// CC-MVIntersect algorithm): the same traversal, but both operands are
/// flat vectors, so it touches no lock and no store.
pub fn cc_mv_intersect(layout: &CcLayout, query: &CcLayout) -> f64 {
    Walk::new().intersect(1, |_| (layout.view(), 1.0), &query.nodes, query.root)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_obdd::{ObddManager, VarOrder};
    use std::sync::Arc;

    #[test]
    fn nan_pairs_are_memoised_by_presence() {
        // Q = ⋁ᵢ x₂ᵢ x₂ᵢ₊₁ against ¬Q: two width-1 chains in which every
        // pair of nodes is reached along two paths. Translated
        // probabilities overflow to NaN by construction; with the deepest
        // variable NaN every pair above it is NaN too, and a memo that
        // reads NaN as "vacant" re-expands each pair along both paths into
        // it — 2⁶⁴ expansions here.
        let clauses = 64u32;
        let deepest = 2 * clauses - 1;
        let prob_of = |t: TupleId| if t.0 == deepest { f64::NAN } else { 0.5 };
        let order = Arc::new(VarOrder::from_tuples((0..=deepest).map(TupleId)));
        let lineage: Vec<Vec<TupleId>> = (0..clauses)
            .map(|i| vec![TupleId(2 * i), TupleId(2 * i + 1)])
            .collect();
        let q_obdd = ObddManager::new(order).dnf(&lineage).unwrap();
        let index = AugmentedObdd::new(q_obdd.negate(), prob_of);
        let query = CcLayout::new(&q_obdd, prob_of);
        let layout = CcLayout::new(index.obdd(), prob_of);
        assert!(cc_mv_intersect(&layout, &query).is_nan());
        assert!(mv_intersect(&index, &query, prob_of).is_nan());
    }

    #[test]
    fn a_chain_is_the_conjunction_of_its_blocks_divided_block_by_block() {
        // Blocks ¬(x₀x₁) and ¬(x₃x₄) on disjoint level ranges, constants in
        // between; Q = x₁x₂ ∨ x₄x₅ reaches into both.
        let prob_of = |t: TupleId| [0.5, -2.0, 0.25, 3.0, 0.5, 0.75][t.index()];
        let manager = ObddManager::new(Arc::new(VarOrder::from_tuples((0..6).map(TupleId))));
        let layout_of = |diagram: mv_obdd::Obdd| {
            let augmented = AugmentedObdd::new(diagram, prob_of);
            (
                CcLayout::new(augmented.obdd(), prob_of),
                augmented.probability(),
            )
        };
        let clause = |a, b| manager.clause(&[TupleId(a), TupleId(b)]).unwrap();
        let (first, p_first) = layout_of(clause(0, 1).negate());
        let (second, p_second) = layout_of(clause(3, 4).negate());
        let (top, _) = layout_of(manager.constant(true));
        let (bottom, _) = layout_of(manager.constant(false));
        let q = clause(1, 2).apply_or(&clause(4, 5)).unwrap();
        let query = CcLayout::new(&q, prob_of);
        let walk = |chain: &[(&CcLayout, f64)]| {
            let block = |k: usize| (chain[k].0.view(), chain[k].1);
            Walk::new().intersect(chain.len(), block, &query.nodes, query.root)
        };

        let conjunction = q
            .apply_and(&clause(0, 1).negate())
            .unwrap()
            .apply_and(&clause(3, 4).negate())
            .unwrap();
        let expected = conjunction.probability(prob_of) / (p_first * p_second);
        let chained = walk(&[(&first, p_first), (&second, p_second)]);
        assert!(
            (chained - expected).abs() < 1e-12,
            "{chained} vs {expected}"
        );
        // A constant-true block constrains nothing, wherever it sits.
        for chain in [
            [(&top, 1.0), (&first, p_first), (&second, p_second)],
            [(&first, p_first), (&top, 1.0), (&second, p_second)],
            [(&first, p_first), (&second, p_second), (&top, 1.0)],
        ] {
            assert_eq!(walk(&chain).to_bits(), chained.to_bits());
        }
        // A constant-false block leaves nothing, and divides nothing.
        assert_eq!(
            walk(&[(&first, p_first), (&bottom, 0.0), (&second, p_second)]),
            0.0
        );
        assert_eq!(walk(&[(&bottom, 0.0)]), 0.0);
        // No block at all: the query's own probability.
        assert_eq!(walk(&[]).to_bits(), q.probability(prob_of).to_bits());
        // The first block's divisor is the caller's to choose.
        let undivided = walk(&[(&first, 1.0), (&second, p_second)]);
        assert!((undivided - expected * p_first).abs() < 1e-12);
    }
}
