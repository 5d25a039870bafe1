//! Variable orders over tuple variables.
//!
//! Section 4.2 defines the OBDD variable order `Π` through a family
//! `π = {π_R1, …, π_Rk}` of attribute permutations, one per relation: tuples
//! are grouped recursively by the value of their first attribute (according
//! to `π`) over the *ordered* active domain, which yields a total order over
//! all tuples. Equivalently, each tuple is keyed by the sequence of its
//! attribute values in `π`-order and tuples are sorted lexicographically,
//! shorter keys (prefixes) first, ties broken by relation arity and id.
//!
//! For the running example (`R(A)`, `S(A,B)`, `π_R = (A)`, `π_S = (A,B)`,
//! database of Figure 3) this produces `Π = X1, Y1, Y2, X2, Y3, Y4`.

use std::collections::HashMap;

use mv_pdb::{InDb, RelId, TupleId, Value};

/// The per-relation attribute permutations `π`.
#[derive(Debug, Clone, Default)]
pub struct PiOrder {
    /// For each relation name, the permutation of its attribute positions.
    /// Relations without an entry use the identity permutation.
    permutations: HashMap<String, Vec<usize>>,
}

impl PiOrder {
    /// The identity `π`: every relation keeps its declared attribute order.
    pub fn identity() -> Self {
        PiOrder::default()
    }

    /// Sets the attribute permutation of one relation.
    ///
    /// `permutation[i]` is the attribute position visited at step `i`.
    pub fn set_permutation(&mut self, relation: impl Into<String>, permutation: Vec<usize>) {
        self.permutations.insert(relation.into(), permutation);
    }

    /// Moves the given attribute position to the front of the relation's
    /// permutation (used to place separator attributes first, Section 4.2).
    pub fn put_attribute_first(&mut self, relation: &str, position: usize, arity: usize) {
        let mut perm: Vec<usize> = vec![position];
        perm.extend((0..arity).filter(|&p| p != position));
        self.permutations.insert(relation.to_string(), perm);
    }

    /// The permutation of a relation with the given arity.
    pub fn permutation(&self, relation: &str, arity: usize) -> Vec<usize> {
        match self.permutations.get(relation) {
            Some(p) => p.clone(),
            None => (0..arity).collect(),
        }
    }

    /// Derives the total order `Π` over all probabilistic tuples of the
    /// database.
    pub fn tuple_order(&self, indb: &InDb) -> VarOrder {
        // Key every probabilistic tuple by its values in π-order; sort
        // lexicographically with shorter keys first, then by relation arity,
        // then by relation id for stability.
        let mut keyed: Vec<(Vec<Value>, usize, RelId, TupleId)> = indb
            .tuples()
            .map(|(id, t)| {
                let schema = indb.schema().relation(t.rel);
                let row = indb.database().relation(t.rel).row(t.row_index);
                let perm = self.permutation(schema.name(), schema.arity());
                let key: Vec<Value> = perm.iter().map(|&p| row[p].clone()).collect();
                (key, schema.arity(), t.rel, id)
            })
            .collect();
        keyed.sort_by(|a, b| {
            lex_prefix_cmp(&a.0, &b.0)
                .then(a.1.cmp(&b.1))
                .then(a.2.cmp(&b.2))
                .then(a.3.cmp(&b.3))
        });
        VarOrder::from_tuples(keyed.into_iter().map(|(_, _, _, id)| id))
    }
}

/// Lexicographic comparison where a strict prefix sorts before its
/// extensions.
fn lex_prefix_cmp(a: &[Value], b: &[Value]) -> std::cmp::Ordering {
    for (x, y) in a.iter().zip(b.iter()) {
        match x.cmp(y) {
            std::cmp::Ordering::Equal => continue,
            other => return other,
        }
    }
    a.len().cmp(&b.len())
}

/// `level_of` entry of a tuple the order does not contain.
const NO_LEVEL: u32 = u32::MAX;

/// A total order over tuple variables: the mapping between OBDD levels and
/// [`TupleId`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VarOrder {
    by_level: Vec<TupleId>,
    /// `tuple id → level` ([`NO_LEVEL`] for tuples outside the order).
    /// Tuple ids are dense, and clause construction — the index compile and
    /// every query — probes this once per literal: an array read, no hash.
    level_of: Vec<u32>,
}

impl VarOrder {
    /// Builds an order from tuples listed from the first (top) level to the
    /// last.
    pub fn from_tuples(tuples: impl IntoIterator<Item = TupleId>) -> Self {
        let by_level: Vec<TupleId> = tuples.into_iter().collect();
        let len = by_level.iter().map(|t| t.index() + 1).max().unwrap_or(0);
        let mut level_of = vec![NO_LEVEL; len];
        for (level, &t) in by_level.iter().enumerate() {
            level_of[t.index()] = level as u32;
        }
        VarOrder { by_level, level_of }
    }

    /// Natural order: tuple ids in increasing order.
    pub fn natural(indb: &InDb) -> Self {
        VarOrder::from_tuples((0..indb.num_tuples() as u32).map(TupleId))
    }

    /// Number of variables in the order.
    pub fn len(&self) -> usize {
        self.by_level.len()
    }

    /// `true` when the order is empty.
    pub fn is_empty(&self) -> bool {
        self.by_level.is_empty()
    }

    /// The tuple at the given level.
    pub fn tuple_at(&self, level: u32) -> TupleId {
        self.by_level[level as usize]
    }

    /// The level of a tuple, if it is part of the order.
    pub fn level_of(&self, tuple: TupleId) -> Option<u32> {
        match self.level_of.get(tuple.index()) {
            Some(&level) if level != NO_LEVEL => Some(level),
            _ => None,
        }
    }

    /// All tuples from the top level down.
    pub fn tuples(&self) -> &[TupleId] {
        &self.by_level
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mv_pdb::value::row;
    use mv_pdb::{InDbBuilder, Weight};

    /// The database of Figure 3.
    fn fig3() -> InDb {
        let mut b = InDbBuilder::new();
        let r = b.probabilistic_relation("R", &["a"]).unwrap();
        let s = b.probabilistic_relation("S", &["a", "b"]).unwrap();
        // Insert S rows first to show the order does not depend on insertion.
        b.insert_weighted(s, row(["a1", "b1"]), Weight::ONE)
            .unwrap(); // id 0 (Y1)
        b.insert_weighted(s, row(["a1", "b2"]), Weight::ONE)
            .unwrap(); // id 1 (Y2)
        b.insert_weighted(s, row(["a2", "b3"]), Weight::ONE)
            .unwrap(); // id 2 (Y3)
        b.insert_weighted(s, row(["a2", "b4"]), Weight::ONE)
            .unwrap(); // id 3 (Y4)
        b.insert_weighted(r, row(["a1"]), Weight::ONE).unwrap(); // id 4 (X1)
        b.insert_weighted(r, row(["a2"]), Weight::ONE).unwrap(); // id 5 (X2)
        b.build()
    }

    #[test]
    fn figure3_order_interleaves_r_and_s_by_first_attribute() {
        let indb = fig3();
        let order = PiOrder::identity().tuple_order(&indb);
        // Expected Π = X1, Y1, Y2, X2, Y3, Y4 = ids 4, 0, 1, 5, 2, 3.
        assert_eq!(
            order.tuples(),
            &[
                TupleId(4),
                TupleId(0),
                TupleId(1),
                TupleId(5),
                TupleId(2),
                TupleId(3)
            ]
        );
        assert_eq!(order.level_of(TupleId(4)), Some(0));
        assert_eq!(order.level_of(TupleId(3)), Some(5));
        assert_eq!(order.tuple_at(1), TupleId(0));
        assert_eq!(order.len(), 6);
    }

    #[test]
    fn permutations_change_the_grouping_attribute() {
        let indb = fig3();
        let mut pi = PiOrder::identity();
        // Group S by its second attribute instead: S tuples then sort by b.
        pi.put_attribute_first("S", 1, 2);
        let order = pi.tuple_order(&indb);
        // Keys: R(a1)->[a1], R(a2)->[a2], S(a1,b1)->[b1,a1], ... so all R
        // tuples (keys a1 < a2 < b1 < …) come first.
        assert_eq!(order.tuples()[0], TupleId(4));
        assert_eq!(order.tuples()[1], TupleId(5));
        assert_eq!(order.level_of(TupleId(0)), Some(2));
    }

    #[test]
    fn natural_order_is_by_tuple_id() {
        let indb = fig3();
        let order = VarOrder::natural(&indb);
        assert_eq!(order.tuples().len(), 6);
        assert_eq!(order.tuple_at(0), TupleId(0));
        assert_eq!(order.level_of(TupleId(5)), Some(5));
    }

    #[test]
    fn unknown_tuples_have_no_level() {
        let indb = fig3();
        let order = PiOrder::identity().tuple_order(&indb);
        assert_eq!(order.level_of(TupleId(99)), None);
        assert!(!order.is_empty());
    }

    #[test]
    fn prefix_sorts_before_extension() {
        use std::cmp::Ordering;
        let a1 = Value::str("a1");
        let b1 = Value::str("b1");
        assert_eq!(
            lex_prefix_cmp(std::slice::from_ref(&a1), &[a1.clone(), b1.clone()]),
            Ordering::Less
        );
        assert_eq!(
            lex_prefix_cmp(&[a1.clone(), b1], std::slice::from_ref(&a1)),
            Ordering::Greater
        );
        assert_eq!(
            lex_prefix_cmp(std::slice::from_ref(&a1), std::slice::from_ref(&a1)),
            Ordering::Equal
        );
    }

    #[test]
    fn explicit_permutation_is_used() {
        let mut pi = PiOrder::identity();
        pi.set_permutation("S", vec![1, 0]);
        assert_eq!(pi.permutation("S", 2), vec![1, 0]);
        assert_eq!(pi.permutation("R", 3), vec![0, 1, 2]);
    }
}
