//! Component-based sharding of a tuple-independent database.
//!
//! [`ComponentPartitioner`] turns the connected components of `W`'s lineage
//! ([`crate::components`]) into a [`Partition`] of the possible-tuple
//! universe into `num_shards` shards. Tuples mentioned by some `W` clause
//! (*W-homed*) live in exactly one shard — their whole component lands
//! together, so no `W` clause ever spans shards and
//! `¬W = ∧_s ¬W_s` with the per-shard `W_s` over disjoint, independent
//! variables: `P0(¬W) = ∏_s P0(¬W_s)` exactly. Tuples mentioned by no `W`
//! clause (*W-free*) are independent of `W` and of each other, so they have
//! no home at all: [`Partition::route`] pins each of them to one shard *per
//! query*.
//!
//! Routing a query lineage `Φ_Q = ∨ C_j` ([`Partition::route_clauses`])
//! groups the clauses by shared variables and binds each group to a shard:
//!
//! * a group whose W-homed variables all live in one shard is evaluated
//!   there — its W-free variables appear in no other group, so the
//!   per-shard disjuncts `φ_s` stay variable-disjoint and
//!   `P(Φ_Q | ¬W) = 1 − ∏_s (1 − P(φ_s | ¬W_s))` exactly;
//! * a group drawing W-homed variables from two shards has no home, and
//!   the query is reported cross-shard so the caller can fall back to the
//!   unsharded oracle;
//! * a group with no W-homed variable at all is pinned to a deterministic
//!   shard: the smallest tuple id of the group modulo the shard count, a
//!   function of the group's clause set alone.
//!
//! A [`Router`] takes a query's flat [`ClauseBuffer`] by value and hands
//! back [`Routes`]: one buffer per touched shard, each clause in its input
//! order. A lineage whose clauses all land on one shard — most point
//! queries — moves to that shard as it is, without a copy
//! ([`Routes::One`]); only a lineage split across shards is copied into one
//! exactly sized buffer per touched shard ([`Routes::Split`]). A W-homed
//! tuple names its shard through the dense `home_of` array; clauses are
//! unioned only through the W-free tuples they share (a shared W-homed
//! tuple already gives both the same home), using a dense tuple →
//! first-clause array whose entries are valid only under the current
//! epoch stamp, so a call neither clears nor hashes anything of universe
//! size. That scratch is pooled on the partition: a router checks one out
//! when it is made ([`Partition::router`]) and returns it when it drops,
//! so a worker routing a stripe of queries takes the pool's lock twice per
//! stripe, not per query. [`Partition::route_clauses`] routes a borrowed
//! buffer (copying it), and [`Partition::route`] is the same router behind
//! an adapter for a [`Lineage`], its groups handed back as
//! [`RoutedLineage`].
//!
//! Packing is a greedy longest-processing-time bin fill: W-components
//! sorted by size descending (ties by smallest member tuple ascending) are
//! assigned to the currently least-loaded shard (ties to the lowest shard
//! id). The result is a pure function of the clause set and shard count.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::components::{connected_components, Components};
use crate::lineage::{Clause, ClauseBuffer, Lineage};
use mv_pdb::TupleId;

/// Sentinel in `Partition::home_of` for W-free tuples.
const FREE: u16 = u16::MAX;

/// Splits a possible-tuple universe into shards along the connected
/// components of a clause set (typically `W`'s lineage).
#[derive(Debug, Clone)]
pub struct ComponentPartitioner {
    components: Components,
    in_w: Vec<bool>,
}

impl ComponentPartitioner {
    /// Analyses the components of `w_clauses` over a universe of
    /// `num_tuples` possible tuples.
    pub fn new(num_tuples: usize, w_clauses: &[Clause]) -> Self {
        let mut in_w = vec![false; num_tuples];
        for clause in w_clauses {
            for &t in clause {
                in_w[t.0 as usize] = true;
            }
        }
        ComponentPartitioner {
            components: connected_components(num_tuples, w_clauses),
            in_w,
        }
    }

    /// The underlying component analysis.
    pub fn components(&self) -> &Components {
        &self.components
    }

    /// Number of connected components (W-free singletons included).
    pub fn num_components(&self) -> usize {
        self.components.len()
    }

    /// Packs the W-components into (at most) `num_shards` shards.
    ///
    /// `num_shards` is clamped to at least 1. Shards may end up empty when
    /// there are fewer W-components than shards.
    pub fn partition(&self, num_shards: usize) -> Partition {
        let num_shards = num_shards.max(1);
        // W-components by decreasing size; ties by smallest member so the
        // order (and thus the whole partition) is deterministic. W-free
        // tuples are singleton components with `in_w` false — they get no
        // home and are skipped here.
        let mut order: Vec<usize> = (0..self.components.len())
            .filter(|&c| self.in_w[self.components.members(c)[0].0 as usize])
            .collect();
        order.sort_by_key(|&c| {
            (
                std::cmp::Reverse(self.components.size(c)),
                self.components.members(c)[0],
            )
        });
        let mut shard_sizes = vec![0usize; num_shards];
        let mut home_of = vec![FREE; self.components.num_tuples()];
        for c in order {
            let shard = shard_sizes
                .iter()
                .enumerate()
                .min_by_key(|&(s, &size)| (size, s))
                .map(|(s, _)| s)
                .expect("at least one shard");
            shard_sizes[shard] += self.components.size(c);
            for &t in self.components.members(c) {
                home_of[t.0 as usize] = shard as u16;
            }
        }
        Partition {
            home_of,
            shard_sizes,
            num_components: self.components.len(),
            routers: Arc::default(),
        }
    }
}

/// A home-shard assignment for the W-homed tuples of a universe (W-free
/// tuples have no home).
#[derive(Debug, Clone)]
pub struct Partition {
    home_of: Vec<u16>,
    shard_sizes: Vec<usize>,
    num_components: usize,
    /// Idle routing scratch, shared by clones; a call pops one (or makes
    /// one) and pushes it back.
    routers: Arc<Mutex<Vec<RouteScratch>>>,
}

/// The reusable state of one routing call. The per-tuple array spans the
/// universe and is never cleared: an entry counts only while its stamp is
/// the current epoch. The per-clause arrays are sized to the lineage at
/// hand.
#[derive(Debug, Default)]
struct RouteScratch {
    epoch: u32,
    /// Per tuple: the epoch of the entry, and the first clause of that
    /// call holding the tuple.
    seen: Vec<(u32, u32)>,
    /// Per clause: its union-find parent.
    parent: Vec<u32>,
    /// Per clause, then per group root: the home shard of its W-homed
    /// tuples, or [`FREE`].
    home: Vec<u16>,
    /// Per clause, then per group root: its smallest tuple id.
    least: Vec<u32>,
    /// Per clause: its group's root, then its shard.
    root: Vec<u32>,
    /// Per shard: the clauses and ids a split lineage sends there, then
    /// the index of the shard's group.
    sizes: Vec<(usize, usize)>,
}

impl RouteScratch {
    /// Starts a call over a universe of `num_tuples` tuples.
    fn begin(&mut self, num_tuples: usize) {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            self.seen.fill((0, 0));
        }
        self.epoch += 1;
        if self.seen.len() < num_tuples {
            self.seen.resize(num_tuples, (0, 0));
        }
    }
}

/// Root of clause `c`'s group (path halving).
fn find(parent: &mut [u32], mut c: u32) -> u32 {
    while parent[c as usize] != c {
        let grand = parent[parent[c as usize] as usize];
        parent[c as usize] = grand;
        c = grand;
    }
    c
}

fn union(parent: &mut [u32], a: u32, b: u32) {
    let (ra, rb) = (find(parent, a), find(parent, b));
    if ra != rb {
        parent[rb as usize] = ra;
    }
}

/// Joins `shard` (a home, or [`FREE`]) into a group's `home`; `None` when
/// the two are different homes.
fn join(home: &mut u16, shard: u16) -> Option<()> {
    if *home == FREE {
        *home = shard;
    } else if shard != FREE && shard != *home {
        return None;
    }
    Some(())
}

/// Where the clauses of a routable lineage go, each shard's in input
/// order.
#[derive(Debug, Clone, PartialEq)]
pub enum Routes {
    /// Every clause lands on one shard: the lineage's own buffer, moved.
    One(usize, ClauseBuffer),
    /// The clauses span several shards: `(shard, clauses homed there)` for
    /// every touched shard, in increasing shard order.
    Split(Vec<(usize, ClauseBuffer)>),
}

impl IntoIterator for Routes {
    type Item = (usize, ClauseBuffer);
    type IntoIter = std::iter::Chain<
        std::option::IntoIter<(usize, ClauseBuffer)>,
        std::vec::IntoIter<(usize, ClauseBuffer)>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        match self {
            Routes::One(shard, clauses) => Some((shard, clauses)).into_iter().chain(Vec::new()),
            Routes::Split(groups) => None.into_iter().chain(groups),
        }
    }
}

/// A [`Partition`]'s router, holding a routing scratch from the partition's
/// pool for as long as it lives; dropping it returns the scratch.
#[derive(Debug)]
pub struct Router<'p> {
    partition: &'p Partition,
    scratch: RouteScratch,
}

impl Router<'_> {
    /// Routes a (non-constant) lineage per the module-level grouping rules,
    /// or `None` as soon as a clause group mixes W-homed tuples from two
    /// shards (or the buffer holds an empty clause: constants are the
    /// caller's short-circuit, not a routable lineage).
    pub fn route(&mut self, clauses: ClauseBuffer) -> Option<Routes> {
        self.partition.route_in(&mut self.scratch, clauses)
    }
}

impl Drop for Router<'_> {
    fn drop(&mut self) {
        let scratch = std::mem::take(&mut self.scratch);
        self.partition.idle().push(scratch);
    }
}

/// Where a query lineage lands on a [`Partition`].
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedLineage {
    /// Every clause group binds to one shard: the clauses grouped per
    /// touched shard, in increasing shard order, with their original
    /// (global) tuple ids.
    Sharded {
        /// `(shard, clauses homed there)` for every non-empty shard.
        groups: Vec<(usize, Vec<Clause>)>,
    },
    /// Some clause group draws W-homed tuples from two different shards;
    /// the query must be evaluated against the unsharded store.
    CrossShard,
}

impl Partition {
    /// Number of shards (including empty ones).
    pub fn num_shards(&self) -> usize {
        self.shard_sizes.len()
    }

    /// Number of connected components the partition was built from
    /// (W-free singletons included).
    pub fn num_components(&self) -> usize {
        self.num_components
    }

    /// Number of W-homed tuples assigned to each shard (W-free tuples are
    /// not counted).
    pub fn shard_sizes(&self) -> &[usize] {
        &self.shard_sizes
    }

    /// The home shard of a W-homed tuple, or `None` for a W-free tuple.
    ///
    /// Panics if `t` lies outside the universe the partition was built
    /// over.
    pub fn home_of(&self, t: TupleId) -> Option<usize> {
        match self.home_of[t.0 as usize] {
            FREE => None,
            s => Some(s as usize),
        }
    }

    fn idle(&self) -> MutexGuard<'_, Vec<RouteScratch>> {
        // Nothing panics while the lock is held, so a poisoned lock still
        // guards a whole vector.
        self.routers.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A router with a scratch checked out of the pool (or a new one).
    pub fn router(&self) -> Router<'_> {
        let popped = self.idle().pop();
        Router {
            partition: self,
            scratch: popped.unwrap_or_default(),
        }
    }

    /// [`Router::route`] for a borrowed buffer, through a router of its
    /// own: `(shard, clauses homed there)` for every touched shard, in
    /// increasing shard order, or `None` for a cross-shard (or constant)
    /// lineage.
    pub fn route_clauses(&self, clauses: &ClauseBuffer) -> Option<Vec<(usize, ClauseBuffer)>> {
        let routes = self.router().route(clauses.clone())?;
        Some(routes.into_iter().collect())
    }

    fn route_in(&self, scratch: &mut RouteScratch, clauses: ClauseBuffer) -> Option<Routes> {
        let n = clauses.len();
        scratch.begin(self.home_of.len());
        let RouteScratch {
            epoch,
            seen,
            parent,
            home,
            least,
            root,
            sizes,
        } = scratch;
        parent.clear();
        parent.extend(0..n as u32);
        home.clear();
        least.clear();
        // Clauses sharing any variable must land on the same shard (their
        // disjuncts are not independent). Two clauses sharing a W-homed
        // tuple get that tuple's home each, so only W-free tuples need a
        // union: each clause joins the first clause that held each of its
        // W-free tuples. On the way, each clause's own home shard and
        // smallest tuple.
        for (c, clause) in clauses.iter().enumerate() {
            let c = c as u32;
            let mut own = FREE;
            for &t in clause {
                match self.home_of[t.0 as usize] {
                    FREE => {
                        let entry = &mut seen[t.0 as usize];
                        if entry.0 == *epoch {
                            union(parent, entry.1, c);
                        } else {
                            *entry = (*epoch, c);
                        }
                    }
                    shard => join(&mut own, shard)?,
                }
            }
            home.push(own);
            least.push(clause.first()?.0);
        }
        // Fold each clause's home and smallest tuple into its group's root.
        root.clear();
        for c in 0..n {
            let r = find(parent, c as u32) as usize;
            root.push(r as u32);
            if r != c {
                let own = home[c];
                join(&mut home[r], own)?;
                least[r] = least[r].min(least[c]);
            }
        }
        // Every clause to its group's shard (all-W-free groups pinned by
        // their smallest tuple).
        let num_shards = self.num_shards();
        for r in root.iter_mut() {
            *r = match home[*r as usize] {
                FREE => least[*r as usize] % num_shards as u32,
                shard => u32::from(shard),
            };
        }
        let Some(&first) = root.first() else {
            return Some(Routes::Split(Vec::new()));
        };
        if root.iter().all(|&s| s == first) {
            return Some(Routes::One(first as usize, clauses));
        }
        // Split: each touched shard's buffer sized exactly, then filled in
        // one pass, in input order.
        sizes.clear();
        sizes.resize(num_shards, (0, 0));
        for (clause, &s) in clauses.iter().zip(root.iter()) {
            let size = &mut sizes[s as usize];
            *size = (size.0 + 1, size.1 + clause.len());
        }
        let touched = sizes.iter().filter(|size| size.0 > 0).count();
        let mut groups = Vec::with_capacity(touched);
        for (shard, size) in sizes.iter_mut().enumerate().filter(|(_, size)| size.0 > 0) {
            groups.push((shard, ClauseBuffer::with_capacity(size.0, size.1)));
            // From here on, a touched shard's entry names its group.
            size.0 = groups.len() - 1;
        }
        for (clause, &s) in clauses.iter().zip(root.iter()) {
            groups[sizes[s as usize].0].1.push(clause);
        }
        Some(Routes::Split(groups))
    }

    /// [`Partition::route_clauses`] for a [`Lineage`]: the same router,
    /// each shard's clauses handed back in lineage order.
    pub fn route(&self, lineage: &Lineage) -> RoutedLineage {
        match self.router().route(ClauseBuffer::from(lineage)) {
            Some(routes) => RoutedLineage::Sharded {
                groups: routes
                    .into_iter()
                    .map(|(shard, buffer)| {
                        (shard, buffer.iter().map(<[TupleId]>::to_vec).collect())
                    })
                    .collect(),
            },
            None => RoutedLineage::CrossShard,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lineage::Lineage;

    fn t(id: u32) -> TupleId {
        TupleId(id)
    }

    fn sharded_groups(routed: RoutedLineage) -> Vec<(usize, Vec<Clause>)> {
        match routed {
            RoutedLineage::Sharded { groups } => groups,
            RoutedLineage::CrossShard => panic!("expected a sharded routing"),
        }
    }

    #[test]
    fn components_never_split_across_shards() {
        let clauses = vec![vec![t(0), t(1)], vec![t(2), t(3), t(4)], vec![t(5), t(6)]];
        let p = ComponentPartitioner::new(8, &clauses).partition(3);
        assert_eq!(p.num_shards(), 3);
        assert_eq!(p.home_of(t(0)), p.home_of(t(1)));
        assert_eq!(p.home_of(t(2)), p.home_of(t(3)));
        assert_eq!(p.home_of(t(3)), p.home_of(t(4)));
        assert_eq!(p.home_of(t(5)), p.home_of(t(6)));
        // Tuple 7 appears in no W clause: no home.
        assert_eq!(p.home_of(t(7)), None);
        assert_eq!(p.shard_sizes().iter().sum::<usize>(), 7);
    }

    #[test]
    fn packing_balances_by_size() {
        // Components {0,1,2}, {3,4} and {5} over two shards: the greedy
        // fill puts the big component alone and the others together.
        let clauses = vec![vec![t(0), t(1), t(2)], vec![t(3), t(4)], vec![t(5)]];
        let p = ComponentPartitioner::new(6, &clauses).partition(2);
        assert_eq!(p.shard_sizes(), &[3, 3]);
        let big = p.home_of(t(0)).unwrap();
        for id in 3..6 {
            assert_ne!(p.home_of(t(id)).unwrap(), big);
        }
    }

    #[test]
    fn partition_is_deterministic() {
        let clauses = vec![vec![t(1), t(4)], vec![t(2), t(7)], vec![t(0), t(5)]];
        let a = ComponentPartitioner::new(9, &clauses).partition(4);
        let b = ComponentPartitioner::new(9, &clauses).partition(4);
        for id in 0..9 {
            assert_eq!(a.home_of(t(id)), b.home_of(t(id)));
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let p = ComponentPartitioner::new(3, &[vec![t(0)], vec![t(1)], vec![t(2)]]).partition(0);
        assert_eq!(p.num_shards(), 1);
        assert_eq!(p.shard_sizes(), &[3]);
    }

    #[test]
    fn routing_groups_clauses_by_shared_variables() {
        // Tuples 0/1 and 2/3 are separate W components on two shards.
        let w = vec![vec![t(0), t(1)], vec![t(2), t(3)]];
        let p = ComponentPartitioner::new(6, &w).partition(2);
        let s0 = p.home_of(t(0)).unwrap();
        let s2 = p.home_of(t(2)).unwrap();
        assert_ne!(s0, s2);

        // Two independent groups, each homed by its W tuple; the W-free
        // tuple 4 rides along with tuple 0's group.
        let routed = p.route(&Lineage::from_clauses([vec![t(0), t(4)], vec![t(2), t(3)]]));
        let groups = sharded_groups(routed);
        assert_eq!(groups.len(), 2);
        assert!(groups
            .iter()
            .any(|(s, clauses)| *s == s0 && clauses == &vec![vec![t(0), t(4)]]));

        // A W-free tuple shared between clauses homed on different shards
        // merges the groups: no home, fall back.
        let spanning = Lineage::from_clauses([vec![t(0), t(4)], vec![t(2), t(4)]]);
        assert_eq!(p.route(&spanning), RoutedLineage::CrossShard);

        // A single clause mixing the two W components falls back too.
        let mixed = Lineage::from_clauses([vec![t(0), t(2)]]);
        assert_eq!(p.route(&mixed), RoutedLineage::CrossShard);
    }

    #[test]
    fn all_free_groups_are_pinned_deterministically() {
        let w = vec![vec![t(0), t(1)]];
        let p = ComponentPartitioner::new(5, &w).partition(2);
        // Clauses over W-free tuples only: still routable (pinned by the
        // group's smallest tuple id).
        let routed = p.route(&Lineage::from_clauses([vec![t(2), t(3)], vec![t(4)]]));
        let groups = sharded_groups(routed.clone());
        assert_eq!(
            groups.iter().map(|(_, c)| c.len()).sum::<usize>(),
            2,
            "every clause must be bucketed"
        );
        assert_eq!(
            p.route(&Lineage::from_clauses([vec![t(2), t(3)], vec![t(4)]])),
            routed
        );
    }

    #[test]
    fn the_flat_router_routes_like_the_lineage_adapter() {
        let w = vec![vec![t(0), t(1)], vec![t(2), t(3)]];
        let p = ComponentPartitioner::new(8, &w).partition(2);
        for clauses in [
            vec![
                vec![t(0), t(4)],
                vec![t(2), t(3)],
                vec![t(5)],
                vec![t(1), t(6)],
            ],
            vec![vec![t(0), t(4)], vec![t(2), t(4)]],
            vec![vec![t(6)], vec![t(7)]],
        ] {
            let lineage = Lineage::from_clauses(clauses);
            let flat = p
                .route_clauses(&ClauseBuffer::from(&lineage))
                .map(|groups| {
                    groups
                        .into_iter()
                        .map(|(s, buffer)| (s, buffer.iter().map(<[TupleId]>::to_vec).collect()))
                        .collect()
                });
            match p.route(&lineage) {
                RoutedLineage::Sharded { groups } => assert_eq!(flat, Some(groups)),
                RoutedLineage::CrossShard => assert_eq!(flat, None),
            }
        }
    }

    #[test]
    fn a_single_shard_lineage_moves_and_a_split_one_is_copied() {
        let w = vec![vec![t(0), t(1)], vec![t(2), t(3)]];
        let p = ComponentPartitioner::new(8, &w).partition(2);
        let (s0, s2) = (p.home_of(t(0)).unwrap(), p.home_of(t(2)).unwrap());
        let mut router = p.router();
        assert_eq!(p.idle().len(), 0, "the router holds the scratch");
        let mut one = ClauseBuffer::new();
        one.push(&[t(0), t(4)]);
        one.push(&[t(1), t(5)]);
        let ids = one.ids().as_ptr();
        match router.route(one.clone()) {
            Some(Routes::One(shard, moved)) => {
                assert_eq!((shard, &moved), (s0, &one));
                assert_ne!(moved.ids().as_ptr(), ids, "a clone is a new buffer");
            }
            other => panic!("{other:?}"),
        }
        match router.route(one) {
            Some(Routes::One(_, moved)) => assert_eq!(moved.ids().as_ptr(), ids, "moved"),
            other => panic!("{other:?}"),
        }
        // Split: one exactly sized buffer per touched shard, shard order.
        let mut split = ClauseBuffer::new();
        split.push(&[t(2), t(6)]);
        split.push(&[t(0)]);
        split.push(&[t(3)]);
        let Some(Routes::Split(groups)) = router.route(split) else {
            panic!("expected a split")
        };
        let mut expected = vec![
            (s0, vec![vec![t(0)]]),
            (s2, vec![vec![t(2), t(6)], vec![t(3)]]),
        ];
        expected.sort();
        let groups: Vec<(usize, Vec<Clause>)> = groups
            .into_iter()
            .map(|(s, b)| (s, b.iter().map(<[TupleId]>::to_vec).collect()))
            .collect();
        assert_eq!(groups, expected);
        // No clause, no group (a constant is the caller's to answer).
        assert_eq!(
            router.route(ClauseBuffer::new()),
            Some(Routes::Split(Vec::new()))
        );
        drop(router);
        assert_eq!(p.idle().len(), 1, "the scratch went back to the pool");
    }

    #[test]
    fn all_free_groups_are_pinned_by_their_smallest_tuple_in_any_clause_order() {
        let w = vec![vec![t(0), t(1)]];
        let p = ComponentPartitioner::new(12, &w).partition(3);
        // One group {9, 4, 7} whose clauses arrive with its largest tuple
        // first: pinned to 4 % 3 = 1, not 9 % 3 = 0.
        let mut buffer = ClauseBuffer::new();
        buffer.push(&[t(7), t(9)]);
        buffer.push(&[t(4), t(7)]);
        let groups = p.route_clauses(&buffer).expect("routable");
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].0, 1);
        assert_eq!(groups[0].1, buffer, "clause order kept");
        // An empty clause is a constant, not a routable lineage.
        assert_eq!(p.route_clauses(&ClauseBuffer::constant_true()), None);
        // The scratch went back to the pool and serves the next call.
        assert_eq!(p.idle().len(), 1);
        assert_eq!(p.route_clauses(&buffer), Some(groups));
    }
}
