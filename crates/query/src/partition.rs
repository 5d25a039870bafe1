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
//! Routing a query lineage `Φ_Q = ∨ C_j` ([`Partition::route`]) groups the
//! clauses by shared variables (a union-find over the clauses themselves)
//! and binds each group to a shard:
//!
//! * a group whose W-homed variables all live in one shard is evaluated
//!   there — its W-free variables appear in no other group, so the
//!   per-shard disjuncts `φ_s` stay variable-disjoint and
//!   `P(Φ_Q | ¬W) = 1 − ∏_s (1 − P(φ_s | ¬W_s))` exactly;
//! * a group drawing W-homed variables from two shards has no home, and
//!   the query is reported [`RoutedLineage::CrossShard`] so the caller can
//!   fall back to the unsharded oracle;
//! * a group with no W-homed variable at all is pinned to a deterministic
//!   shard (first variable id modulo shard count).
//!
//! Packing is a greedy longest-processing-time bin fill: W-components
//! sorted by size descending (ties by smallest member tuple ascending) are
//! assigned to the currently least-loaded shard (ties to the lowest shard
//! id). The result is a pure function of the clause set and shard count.

use fxhash::FxHashMap;

use crate::components::{connected_components, Components, UnionFind};
use crate::lineage::{Clause, Lineage};
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

    /// Routes a (non-constant) lineage per the module-level grouping rules,
    /// or reports [`RoutedLineage::CrossShard`] as soon as any clause group
    /// mixes W-homed tuples from two shards.
    pub fn route(&self, lineage: &Lineage) -> RoutedLineage {
        let clauses = lineage.clauses();
        self.bucket(self.shard_per_clause(clauses), clauses.iter().cloned())
    }

    /// [`Partition::route`] for a caller that is done with the lineage: the
    /// clauses move into their shard's group instead of being cloned there.
    pub fn route_owned(&self, lineage: Lineage) -> RoutedLineage {
        let shards = self.shard_per_clause(lineage.clauses());
        self.bucket(shards, lineage.into_clauses())
    }

    /// The shard of every clause, in clause order; `None` when some clause
    /// group has no single home.
    fn shard_per_clause(&self, clauses: &[Clause]) -> Option<Vec<usize>> {
        // Clauses sharing any variable must land on the same shard (their
        // disjuncts are not independent): union them into groups first.
        let mut uf = UnionFind::default();
        for clause in clauses {
            uf.union_clause(clause);
        }
        // Fold each clause's W-homed tuples into its group's home shard.
        let mut group_shard: FxHashMap<usize, Option<usize>> = FxHashMap::default();
        for clause in clauses {
            // An empty clause is constant true; constants are the caller's
            // short-circuit, not a routable lineage.
            let &first = clause.first()?;
            let root = uf.find_id(first);
            let entry = group_shard.entry(root).or_insert(None);
            for shard in clause.iter().filter_map(|&t| self.home_of(t)) {
                match *entry {
                    None => *entry = Some(shard),
                    Some(prev) if prev != shard => return None,
                    Some(_) => {}
                }
            }
        }
        // Pin all-W-free groups deterministically.
        Some(
            clauses
                .iter()
                .map(|clause| {
                    let root = uf.find_id(clause[0]);
                    let entry = group_shard.get_mut(&root).expect("group registered above");
                    *entry.get_or_insert(clause[0].0 as usize % self.num_shards())
                })
                .collect(),
        )
    }

    /// Buckets the clauses by their shard, keeping clause order per bucket.
    fn bucket(
        &self,
        shards: Option<Vec<usize>>,
        clauses: impl IntoIterator<Item = Clause>,
    ) -> RoutedLineage {
        let Some(shards) = shards else {
            return RoutedLineage::CrossShard;
        };
        let mut buckets: Vec<Vec<Clause>> = vec![Vec::new(); self.num_shards()];
        for (shard, clause) in shards.into_iter().zip(clauses) {
            buckets[shard].push(clause);
        }
        RoutedLineage::Sharded {
            groups: buckets
                .into_iter()
                .enumerate()
                .filter(|(_, clauses)| !clauses.is_empty())
                .collect(),
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
        // Clauses over W-free tuples only: still routable (pinned by first
        // variable id).
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
    fn the_consuming_form_routes_like_the_borrowing_one() {
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
            assert_eq!(p.route_owned(lineage.clone()), p.route(&lineage));
        }
    }
}
