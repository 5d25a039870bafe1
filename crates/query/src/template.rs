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
//! templates it resolved in a lock-free map of its own in front of it,
//! behind a handle of its own (an `Rc` of the shared `Arc`): a hit clones
//! that handle, never the `Arc`, so workers running one template on many
//! threads do not all write its reference count.
//!
//! The cache also pools the executors' working buffers
//! ([`ExecScratch`]): a context checks one out
//! on its first run and hands it back when it drops, so a context made per
//! call runs on the warm buffers of an earlier one.
//! [`PlanCache::idle_scratches`] and [`PlanCache::idle_scratch_bytes`] show
//! the pool.
//!
//! A template owns more than its shape: a scan's row-local comparisons
//! (`n like '%f00%'`) are evaluated once when it is lowered, into a row
//! bitmap the plan keeps ([`crate::vec_exec`]). Since comparison constants
//! are literal, that selection is fixed for the template's life, and the
//! cache is where it lives: a weight-only update keeps it, a structural one
//! starts a fresh cache. [`PlanCache::heap_bytes`] counts those bitmaps; a
//! map keeps at most 4 096 templates and at most 64 MiB of them, and past
//! either cap a plan is compiled and returned but not kept.

use std::collections::hash_map::{Entry, RandomState};
use std::hash::{BuildHasher, Hash, Hasher};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use fxhash::FxHashMap;
use mv_pdb::Database;

use crate::ast::{ConjunctiveQuery, Term, Ucq};
use crate::plan::PlanStats;
use crate::vec_exec::{ExecScratch, VecCompiledUcq};

/// Most templates one map holds. Past it, plans are still compiled and
/// returned, just not kept.
pub(crate) const MAX_TEMPLATES: usize = 4096;

/// Most selection bytes one map's templates hold. A plan that would take
/// the map past it is compiled and returned, not kept. Every distinct
/// `like` constant is a template of its own and query text comes from
/// outside, so without this cap [`MAX_TEMPLATES`] templates could each pin
/// a bitmap of the largest relation (⌈rows / 64⌉ × 8 bytes).
pub(crate) const MAX_SELECTION_BYTES: usize = 64 << 20;

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

/// A context's handle on a template the snapshot's cache shares: cloned
/// without touching the shared reference count.
pub(crate) type LocalPlan = Rc<Arc<VecCompiledUcq>>;

impl AsRef<VecCompiledUcq> for LocalPlan {
    fn as_ref(&self) -> &VecCompiledUcq {
        self
    }
}

/// Templates by shape hash, held through handles `P`: the first template
/// of a hash in the map, any other whose hash collides with it in a list
/// beside it (which stays empty, and unallocated, until one does).
#[derive(Debug)]
pub(crate) struct Templates<P = Arc<VecCompiledUcq>> {
    by_hash: FxHashMap<u64, P>,
    collided: Vec<(u64, P)>,
    len: usize,
    /// Selection bytes of the templates held.
    bytes: usize,
}

impl<P> Default for Templates<P> {
    fn default() -> Self {
        Templates {
            by_hash: FxHashMap::default(),
            collided: Vec::new(),
            len: 0,
            bytes: 0,
        }
    }
}

impl<P: AsRef<VecCompiledUcq>> Templates<P> {
    /// The template `ucq` is an instance of, if this map holds it.
    pub(crate) fn get(&self, hash: u64, ucq: &Ucq) -> Option<&P> {
        let first = self.by_hash.get(&hash)?;
        let collided = self.collided.iter().filter(|(h, _)| *h == hash);
        std::iter::once(first)
            .chain(collided.map(|(_, plan)| plan))
            .find(|plan| same_shape(plan.as_ref().shape(), ucq))
    }

    /// Keeps `plan` under `hash`, unless the map is full in templates or
    /// in selection bytes.
    pub(crate) fn insert(&mut self, hash: u64, plan: P) {
        let bytes = plan.as_ref().heap_bytes();
        if self.len < MAX_TEMPLATES && self.bytes + bytes <= MAX_SELECTION_BYTES {
            match self.by_hash.entry(hash) {
                Entry::Vacant(slot) => {
                    slot.insert(plan);
                }
                Entry::Occupied(_) => self.collided.push((hash, plan)),
            }
            self.len += 1;
            self.bytes += bytes;
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
            .chain(self.collided.iter().map(|(_, plan)| plan))
            .map(|plan| plan.as_ref().stats())
            .fold(PlanStats::default(), |a, b| a + b)
    }

    /// Heap bytes of the selections owned by the templates held.
    fn heap_bytes(&self) -> usize {
        self.bytes
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
    /// Idle executor scratches: contexts take one on their first run and
    /// hand it back when they drop, so the pool holds at most as many as
    /// contexts were ever alive at once.
    scratches: Mutex<Vec<ExecScratch>>,
}

impl PlanCache {
    /// An empty cache for the snapshot `db`.
    pub fn new(db: &Database) -> Self {
        PlanCache {
            version: db.version(),
            templates: Mutex::default(),
            scratches: Mutex::default(),
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

    /// Heap bytes of the row selections the held templates own:
    /// ⌈rows / 64⌉ × 8 per selected step, whatever its selectivity, and
    /// at most 64 MiB in all (a plan past that is not kept).
    pub fn heap_bytes(&self) -> usize {
        self.lock().heap_bytes()
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
    fn lock(&self) -> MutexGuard<'_, Templates> {
        self.templates
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Nothing panics while the lock is held, so a poisoned lock still
    /// guards a whole vector.
    fn idle(&self) -> MutexGuard<'_, Vec<ExecScratch>> {
        self.scratches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// An idle executor scratch, if the pool holds one.
    pub(crate) fn take_scratch(&self) -> Option<ExecScratch> {
        self.idle().pop()
    }

    /// Returns an executor scratch to the pool, buffers and all.
    pub(crate) fn recycle_scratch(&self, scratch: ExecScratch) {
        self.idle().push(scratch);
    }

    /// Number of idle executor scratches in the pool.
    pub fn idle_scratches(&self) -> usize {
        self.idle().len()
    }

    /// Heap bytes the idle executor scratches hold
    /// ([`ExecScratch::heap_bytes`]).
    pub fn idle_scratch_bytes(&self) -> usize {
        self.idle().iter().map(ExecScratch::heap_bytes).sum()
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

    #[test]
    fn templates_whose_hashes_collide_are_told_apart_by_shape() {
        let mut db = Database::new();
        db.add_relation("R", &["a"]).unwrap();
        db.add_relation("S", &["a"]).unwrap();
        let (r, s) = (
            parse_ucq("Q() :- R(1)").unwrap(),
            parse_ucq("Q() :- S(1)").unwrap(),
        );
        let mut templates = Templates::default();
        for q in [&r, &s] {
            templates.insert(7, Arc::new(VecCompiledUcq::compile(q, &db).unwrap()));
        }
        assert_eq!(templates.len(), 2);
        for q in [&r, &s] {
            assert!(same_shape(templates.get(7, q).unwrap().shape(), q));
        }
        assert!(templates.get(8, &r).is_none());
        assert_eq!(templates.stats().disjuncts, 2);
    }

    #[test]
    fn a_map_keeps_no_selection_past_its_byte_cap() {
        let mut db = Database::new();
        let r = db.add_relation("R", &["a"]).unwrap();
        let rows = 200_000;
        for i in 0..rows {
            db.insert(r, vec![mv_pdb::Value::int(i)]).unwrap();
        }
        let compile =
            |text: &str| Arc::new(VecCompiledUcq::compile(&parse_ucq(text).unwrap(), &db).unwrap());
        let selected = compile("Q(x) :- R(x), x > 0");
        let bytes = selected.heap_bytes();
        assert_eq!(bytes, (rows as usize).div_ceil(64) * 8);
        let mut templates = Templates::default();
        for i in 0..MAX_TEMPLATES as u64 {
            templates.insert(i, Arc::clone(&selected));
        }
        let kept = MAX_SELECTION_BYTES / bytes;
        assert!(kept < MAX_TEMPLATES);
        assert_eq!(templates.len(), kept);
        assert_eq!(templates.heap_bytes(), kept * bytes);
        // A plan without a selection still fits.
        templates.insert(u64::MAX, compile("Q(x) :- R(x)"));
        assert_eq!(templates.len(), kept + 1);
    }
}
