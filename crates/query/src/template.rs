//! Query templates: one compiled plan per query *shape*.
//!
//! Two queries have the same shape when they are equal up to their
//! atom-term constants: same disjuncts, heads, relations, variables and
//! comparisons, with a constant in the same atom positions. Atom constants
//! are the plan's parameters ([`crate::plan`]); comparison and head
//! constants stay literal, so `n like '%f00%'` and `n like '%f01%'` are two
//! templates, as are `aid1 = 7` and `aid1 = 8`.
//!
//! A template is found by a constant-blind structural hash and confirmed by
//! a constant-blind equality check against the instance it was compiled
//! from, so a hash collision never hands out another shape's plan, and no
//! lookup formats a string.
//!
//! [`PlanCache`] holds the templates of one store snapshot for as long as
//! the snapshot lives; every [`EvalContext`](crate::eval::EvalContext) over
//! that snapshot, on any thread, can share it. Each context also keeps the
//! templates it resolved in a lock-free map of its own in front of it.

use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use fxhash::FxHashMap;
use mv_pdb::Database;

use crate::ast::{ConjunctiveQuery, Term, Ucq};
use crate::plan::PlanStats;
use crate::vec_exec::VecCompiledUcq;

/// Most templates one map holds. Past it, plans are still compiled and
/// returned, just not kept.
pub(crate) const MAX_TEMPLATES: usize = 4096;

/// The constant-blind structural hash of `ucq`: atom-term constants hash
/// as a placeholder, everything else by value. Query names are left out —
/// a plan does not depend on them. The hash is keyed once per process:
/// queries arrive from outside the program, and shapes whose hashes
/// collide would share a bucket every lookup scans.
pub(crate) fn shape_hash(ucq: &Ucq) -> u64 {
    static KEYS: OnceLock<RandomState> = OnceLock::new();
    let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
    ucq.disjuncts.len().hash(&mut h);
    for cq in &ucq.disjuncts {
        cq.head.hash(&mut h);
        cq.atoms.len().hash(&mut h);
        for atom in &cq.atoms {
            atom.relation.hash(&mut h);
            atom.terms.len().hash(&mut h);
            for term in &atom.terms {
                term.as_var().hash(&mut h);
            }
        }
        cq.comparisons.hash(&mut h);
    }
    h.finish()
}

/// `true` when `a` and `b` are instances of one template: equal up to
/// their atom-term constants (the equality [`shape_hash`] hashes).
pub(crate) fn same_shape(a: &Ucq, b: &Ucq) -> bool {
    fn same_cq(a: &ConjunctiveQuery, b: &ConjunctiveQuery) -> bool {
        a.head == b.head
            && a.comparisons == b.comparisons
            && a.atoms.len() == b.atoms.len()
            && a.atoms.iter().zip(&b.atoms).all(|(x, y)| {
                x.relation == y.relation
                    && x.terms.len() == y.terms.len()
                    && x.terms.iter().zip(&y.terms).all(|(s, t)| match (s, t) {
                        (Term::Var(s), Term::Var(t)) => s == t,
                        (Term::Const(_), Term::Const(_)) => true,
                        _ => false,
                    })
            })
    }
    a.disjuncts.len() == b.disjuncts.len()
        && a.disjuncts
            .iter()
            .zip(&b.disjuncts)
            .all(|(x, y)| same_cq(x, y))
}

/// Templates by shape hash; a bucket holds every template whose hash
/// collides.
#[derive(Debug, Default)]
pub(crate) struct Templates {
    by_hash: FxHashMap<u64, Vec<Arc<VecCompiledUcq>>>,
    len: usize,
}

impl Templates {
    /// The template `ucq` is an instance of, if this map holds it.
    pub(crate) fn get(&self, hash: u64, ucq: &Ucq) -> Option<&Arc<VecCompiledUcq>> {
        self.by_hash
            .get(&hash)?
            .iter()
            .find(|plan| same_shape(plan.shape(), ucq))
    }

    /// Keeps `plan` under `hash`, unless the map is full.
    pub(crate) fn insert(&mut self, hash: u64, plan: Arc<VecCompiledUcq>) {
        if self.len < MAX_TEMPLATES {
            self.by_hash.entry(hash).or_default().push(plan);
            self.len += 1;
        }
    }

    /// Number of templates held.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Shape statistics summed over every template held.
    pub(crate) fn stats(&self) -> PlanStats {
        self.by_hash
            .values()
            .flatten()
            .map(|plan| plan.stats())
            .fold(PlanStats::default(), |a, b| a + b)
    }
}

/// The compiled templates of one store snapshot, shared by every context
/// over it.
///
/// A plan bakes in the snapshot's schema and `Arc`s of its relations'
/// access paths, so a cache serves exactly the store version it was made
/// for ([`Database::version`]): weight changes keep the version and the
/// cache, and any change to the tuples makes a new version that needs a
/// new cache. Thread-safe; contexts take the lock once per template they
/// have not resolved before, never on their own hits.
#[derive(Debug)]
pub struct PlanCache {
    version: u64,
    templates: Mutex<Templates>,
}

impl PlanCache {
    /// An empty cache for the snapshot `db`.
    pub fn new(db: &Database) -> Self {
        PlanCache {
            version: db.version(),
            templates: Mutex::default(),
        }
    }

    /// The store version this cache serves.
    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    /// Number of templates held (at most a fixed cap).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// `true` when no template is held yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub(crate) fn get(&self, hash: u64, ucq: &Ucq) -> Option<Arc<VecCompiledUcq>> {
        self.lock().get(hash, ucq).cloned()
    }

    /// Keeps `plan` unless another thread got there first (or the cache is
    /// full); returns the plan every later lookup will see.
    pub(crate) fn insert(&self, hash: u64, plan: Arc<VecCompiledUcq>) -> Arc<VecCompiledUcq> {
        let mut templates = self.lock();
        if let Some(first) = templates.get(hash, plan.shape()) {
            return Arc::clone(first);
        }
        templates.insert(hash, Arc::clone(&plan));
        plan
    }

    /// The lock guards plain map operations only, so a panic elsewhere
    /// cannot leave the map inconsistent.
    fn lock(&self) -> std::sync::MutexGuard<'_, Templates> {
        self.templates
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_ucq;

    fn shapes_agree(a: &str, b: &str) -> bool {
        let (a, b) = (parse_ucq(a).unwrap(), parse_ucq(b).unwrap());
        let same = same_shape(&a, &b);
        if same {
            assert_eq!(
                shape_hash(&a),
                shape_hash(&b),
                "equal shapes must hash equal"
            );
        }
        same
    }

    #[test]
    fn atom_constants_are_blind_and_everything_else_is_not() {
        // Atom constants, whatever their value or type.
        assert!(shapes_agree("Q() :- R('a', 'a')", "Q() :- R('a', 'b')"));
        assert!(shapes_agree("Q() :- R(1, x)", "Q() :- R('z', x)"));
        assert!(
            shapes_agree("P() :- R(1)", "Q() :- R(2)"),
            "names are not shape"
        );
        // A constant is not a variable, and positions matter.
        assert!(!shapes_agree("Q() :- R(1, x)", "Q() :- R(y, x)"));
        assert!(!shapes_agree("Q() :- R(1, x)", "Q() :- R(x, 1)"));
        // Relations, arities, variables and disjunct counts.
        assert!(!shapes_agree("Q() :- R(1)", "Q() :- S(1)"));
        assert!(!shapes_agree("Q() :- R(1)", "Q() :- R(1, 2)"));
        assert!(!shapes_agree("Q() :- R(x)", "Q() :- R(y)"));
        assert!(!shapes_agree("Q() :- R(1)", "Q() :- R(1) ; Q() :- R(2)"));
        // Comparison and head constants stay literal.
        assert!(!shapes_agree(
            "Q() :- A(x, n), n like '%f00%'",
            "Q() :- A(x, n), n like '%f01%'"
        ));
        assert!(!shapes_agree("Q() :- R(x), x = 7", "Q() :- R(x), x = 8"));
        assert!(!shapes_agree("Q(1) :- R(x)", "Q(2) :- R(x)"));
        assert!(shapes_agree("Q(x) :- R(x, 1)", "Q(x) :- R(x, 2)"));
    }

    #[test]
    fn a_full_map_still_answers_what_it_holds() {
        let mut templates = Templates::default();
        let mut db = Database::new();
        db.add_relation("R", &["a"]).unwrap();
        let q = parse_ucq("Q() :- R(1)").unwrap();
        let compiled = Arc::new(VecCompiledUcq::compile(&q, &db).unwrap());
        for i in 0..MAX_TEMPLATES as u64 + 3 {
            templates.insert(i, Arc::clone(&compiled));
        }
        assert_eq!(templates.len(), MAX_TEMPLATES);
        assert!(templates.get(0, &q).is_some());
        assert!(templates.get(MAX_TEMPLATES as u64, &q).is_none());
    }
}
