//! Query templates: one compiled plan per query *shape*.
//!
//! Two queries have the same shape when they are equal up to their
//! atom-term constants: same disjuncts, heads, relations, variables and
//! comparisons, with a constant in the same atom positions. Atom constants
//! are the plan's parameters ([`crate::plan`]); comparison and head
//! constants stay literal, so `n like '%f00%'` and `n like '%f01%'` are two
//! templates, as are `aid1 = 7` and `aid1 = 8`.
//!
//! A template is found by its shape key: the query's shape written out
//! as length-prefixed bytes (constant-blind in the atom terms), found by a
//! keyed hash of those bytes and confirmed by comparing them with the bytes
//! the template was kept under, so a hash collision never hands out another
//! shape's plan, no lookup formats a string, and none walks the template's
//! own query.
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
use std::hash::{BuildHasher, Hasher};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use fxhash::FxHashMap;
use mv_pdb::{Database, Value};

use crate::ast::{Name, Term, Ucq};
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

/// A query's shape as a key: the query up to its atom-term constants,
/// written out as length-prefixed bytes, plus the keyed hash of those
/// bytes. Atom-term constants are written as a placeholder, everything
/// else by value; query names are left out — a plan does not depend on
/// them. The encoding is prefix-free, so two queries have equal keys
/// exactly when they are instances of one template.
///
/// A lookup encodes the query once — names copied straight off their
/// inline bytes, into a stack buffer for a shape of up to
/// [`ShapeKey::INLINE`] bytes (a point query's is about 40) — hashes the
/// bytes in one call, and confirms a hit by comparing them with the bytes
/// the template was kept under: one short hash, one probe and one
/// comparison of contiguous bytes, without walking the template's query.
/// The hash is keyed once per process: queries arrive from outside the
/// program, and shapes whose hashes collide would share a bucket every
/// lookup scans.
pub(crate) struct ShapeKey {
    hash: u64,
    len: usize,
    inline: [u8; ShapeKey::INLINE],
    /// The whole encoding, once it outgrows `inline`.
    spill: Vec<u8>,
}

impl ShapeKey {
    /// Encoded shapes up to this many bytes stay on the stack.
    const INLINE: usize = 256;

    /// The key of `ucq`'s shape.
    pub(crate) fn of(ucq: &Ucq) -> ShapeKey {
        static KEYS: OnceLock<RandomState> = OnceLock::new();
        let mut key = ShapeKey {
            hash: 0,
            len: 0,
            inline: [0; ShapeKey::INLINE],
            spill: Vec::new(),
        };
        key.count(ucq.disjuncts.len());
        for cq in &ucq.disjuncts {
            key.count(cq.head.len());
            cq.head.iter().for_each(|t| key.term(t, false));
            key.count(cq.atoms.len());
            for atom in &cq.atoms {
                key.name(&atom.relation);
                key.count(atom.terms.len());
                atom.terms.iter().for_each(|t| key.term(t, true));
            }
            key.count(cq.comparisons.len());
            for cmp in &cq.comparisons {
                key.put(&[cmp.op as u8]);
                key.term(&cmp.left, false);
                key.term(&cmp.right, false);
            }
        }
        let mut h = KEYS.get_or_init(RandomState::new).build_hasher();
        h.write(key.bytes());
        key.hash = h.finish();
        key
    }

    /// The encoded shape.
    pub(crate) fn bytes(&self) -> &[u8] {
        match self.spill.is_empty() {
            true => &self.inline[..self.len],
            false => &self.spill,
        }
    }

    fn put(&mut self, bytes: &[u8]) {
        if self.spill.is_empty() && self.len + bytes.len() <= ShapeKey::INLINE {
            self.inline[self.len..self.len + bytes.len()].copy_from_slice(bytes);
            self.len += bytes.len();
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.extend_from_slice(bytes);
        }
    }

    /// A count or length, seven bits a byte (LEB128): lossless, and one
    /// byte below 128.
    fn count(&mut self, mut n: usize) {
        while n >= 0x80 {
            self.put(&[n as u8 | 0x80]);
            n >>= 7;
        }
        self.put(&[n as u8]);
    }

    fn name(&mut self, name: &Name) {
        self.count(name.as_bytes().len());
        self.put(name.as_bytes());
    }

    /// A term; `blind` writes a constant as the placeholder.
    fn term(&mut self, t: &Term, blind: bool) {
        match t {
            Term::Var(v) => {
                self.put(&[0]);
                self.name(v);
            }
            Term::Const(_) if blind => self.put(&[1]),
            Term::Const(Value::Int(i)) => {
                self.put(&[2]);
                self.put(&i.to_le_bytes());
            }
            Term::Const(Value::Str(s)) => {
                self.put(&[3]);
                self.count(s.len());
                self.put(s.as_bytes());
            }
        }
    }
}

/// Equal keys are equal shapes (the hash follows the bytes).
impl PartialEq for ShapeKey {
    fn eq(&self, other: &Self) -> bool {
        self.bytes() == other.bytes()
    }
}

/// A context's handle on a template the snapshot's cache shares: cloned
/// without touching the shared reference count.
pub(crate) type LocalPlan = Rc<Arc<VecCompiledUcq>>;

impl AsRef<VecCompiledUcq> for LocalPlan {
    fn as_ref(&self) -> &VecCompiledUcq {
        self
    }
}

/// Templates by shape hash, each beside the encoded shape it was kept
/// under, held through handles `P`: the first template of a hash in the
/// map, any other whose hash collides with it in a list beside it (which
/// stays empty, and unallocated, until one does).
#[derive(Debug)]
pub(crate) struct Templates<P = Arc<VecCompiledUcq>> {
    by_hash: FxHashMap<u64, (Box<[u8]>, P)>,
    collided: Vec<(u64, Box<[u8]>, P)>,
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
    /// The template of the shape `key`, if this map holds it.
    pub(crate) fn get(&self, key: &ShapeKey) -> Option<&P> {
        let (shape, first) = self.by_hash.get(&key.hash)?;
        if **shape == *key.bytes() {
            return Some(first);
        }
        self.collided
            .iter()
            .find(|(hash, shape, _)| *hash == key.hash && **shape == *key.bytes())
            .map(|(_, _, plan)| plan)
    }

    /// Keeps `plan` under `key`, unless the map is full in templates or
    /// in selection bytes.
    pub(crate) fn insert(&mut self, key: &ShapeKey, plan: P) {
        let bytes = plan.as_ref().heap_bytes();
        if self.len < MAX_TEMPLATES && self.bytes + bytes <= MAX_SELECTION_BYTES {
            let shape = Box::from(key.bytes());
            match self.by_hash.entry(key.hash) {
                Entry::Vacant(slot) => {
                    slot.insert((shape, plan));
                }
                Entry::Occupied(_) => self.collided.push((key.hash, shape, plan)),
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
            .map(|(_, plan)| plan)
            .chain(self.collided.iter().map(|(_, _, plan)| plan))
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

    pub(crate) fn get(&self, key: &ShapeKey) -> Option<Arc<VecCompiledUcq>> {
        self.lock().get(key).cloned()
    }

    /// Keeps `plan` under `key` unless another thread got there first (or
    /// the cache is full); returns the plan every later lookup will see.
    pub(crate) fn insert(&self, key: &ShapeKey, plan: Arc<VecCompiledUcq>) -> Arc<VecCompiledUcq> {
        let mut templates = self.lock();
        if let Some(first) = templates.get(key) {
            return Arc::clone(first);
        }
        templates.insert(key, Arc::clone(&plan));
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
        let key = |text| ShapeKey::of(&parse_ucq(text).unwrap());
        let (x, y) = (key(a), key(b));
        if x == y {
            assert_eq!(x.hash, y.hash, "equal shapes must hash equal");
        } else {
            assert_ne!(x.hash, y.hash, "{a} and {b}");
        }
        x == y
    }

    /// `q`'s key under a hash of the test's choosing.
    fn key_with_hash(q: &Ucq, hash: u64) -> ShapeKey {
        let mut key = ShapeKey::of(q);
        key.hash = hash;
        key
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
        // Names past the inline capacity and non-ASCII ones key like short
        // ones, and a different name is a different key.
        let long = "a_relation_name_past_the_inline_capacity";
        for (a, b) in [
            (
                format!("Q() :- {long}(x, 1)"),
                format!("Q() :- {long}(x, 2)"),
            ),
            ("Q() :- Ü(λ, 1)".to_string(), "Q() :- Ü(λ, 2)".to_string()),
        ] {
            assert!(shapes_agree(&a, &b), "{a}");
        }
        for (a, b) in [
            (format!("Q() :- {long}(x)"), format!("Q() :- {long}x(x)")),
            (format!("Q() :- R({long})"), format!("Q() :- R({long}2)")),
            ("Q() :- Ü(λ)".to_string(), "Q() :- Ü(μ)".to_string()),
            ("Q() :- R(x)".to_string(), "Q() :- Rx(x)".to_string()),
        ] {
            assert!(!shapes_agree(&a, &b), "{a}");
        }
        // A shape past the inline buffer spills, and keys the same way.
        let wide = |c: i64| {
            let atoms: Vec<String> = (0..40).map(|i| format!("R{i}(x, {c})")).collect();
            format!("Q() :- {}", atoms.join(", "))
        };
        assert!(ShapeKey::of(&parse_ucq(&wide(1)).unwrap()).bytes().len() > ShapeKey::INLINE);
        assert!(shapes_agree(&wide(1), &wide(2)));
        assert!(!shapes_agree(&wide(1), &wide(1).replace("R39", "S39")));
    }

    #[test]
    fn a_full_map_still_answers_what_it_holds() {
        let mut templates = Templates::default();
        let mut db = Database::new();
        db.add_relation("R", &["a"]).unwrap();
        let q = parse_ucq("Q() :- R(1)").unwrap();
        let compiled = Arc::new(VecCompiledUcq::compile(&q, &db).unwrap());
        for i in 0..MAX_TEMPLATES as u64 + 3 {
            templates.insert(&key_with_hash(&q, i), Arc::clone(&compiled));
        }
        assert_eq!(templates.len(), MAX_TEMPLATES);
        assert!(templates.get(&key_with_hash(&q, 0)).is_some());
        assert!(templates
            .get(&key_with_hash(&q, MAX_TEMPLATES as u64))
            .is_none());
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
        let plans: Vec<_> = [&r, &s]
            .map(|q| Arc::new(VecCompiledUcq::compile(q, &db).unwrap()))
            .into();
        for (q, plan) in [&r, &s].into_iter().zip(&plans) {
            templates.insert(&key_with_hash(q, 7), Arc::clone(plan));
        }
        assert_eq!(templates.len(), 2);
        for (q, plan) in [&r, &s].into_iter().zip(&plans) {
            assert!(Arc::ptr_eq(
                templates.get(&key_with_hash(q, 7)).unwrap(),
                plan
            ));
        }
        assert!(templates.get(&key_with_hash(&r, 8)).is_none());
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
        let q = parse_ucq("Q(x) :- R(x), x > 0").unwrap();
        for i in 0..MAX_TEMPLATES as u64 {
            templates.insert(&key_with_hash(&q, i), Arc::clone(&selected));
        }
        let kept = MAX_SELECTION_BYTES / bytes;
        assert!(kept < MAX_TEMPLATES);
        assert_eq!(templates.len(), kept);
        assert_eq!(templates.heap_bytes(), kept * bytes);
        // A plan without a selection still fits.
        let plain = parse_ucq("Q(x) :- R(x)").unwrap();
        templates.insert(&key_with_hash(&plain, u64::MAX), compile("Q(x) :- R(x)"));
        assert_eq!(templates.len(), kept + 1);
    }
}
