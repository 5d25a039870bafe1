//! Abstract syntax of (unions of) conjunctive queries.
//!
//! Queries are written in datalog notation, as in the paper:
//!
//! ```text
//! Q(aid) :- Student(aid), Advisor(aid, aid1), Author(aid1, n1), n1 like '%Madden%'
//! ```
//!
//! A [`ConjunctiveQuery`] is a head (a list of terms), a body of relational
//! [`Atom`]s and a list of [`Comparison`] predicates. A [`Ucq`] is a union of
//! conjunctive queries with compatible heads. Boolean queries are queries with
//! an empty head.

use std::collections::{BTreeSet, HashMap};
use std::fmt;

use mv_pdb::Value;

/// A term: either a variable or a constant.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable, identified by name.
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Term {
    /// Builds a variable term.
    pub fn var(name: impl Into<String>) -> Self {
        Term::Var(name.into())
    }

    /// Builds a constant term.
    pub fn constant(v: impl Into<Value>) -> Self {
        Term::Const(v.into())
    }

    /// The variable name, if this term is a variable.
    pub fn as_var(&self) -> Option<&str> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// The constant, if this term is a constant.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// `true` when the term is a variable.
    pub fn is_var(&self) -> bool {
        matches!(self, Term::Var(_))
    }

    /// Replaces the variable `var` by the constant `value`, if it matches.
    pub fn substitute(&self, var: &str, value: &Value) -> Term {
        match self {
            Term::Var(v) if v == var => Term::Const(value.clone()),
            other => other.clone(),
        }
    }

    /// Renames the variable `from` to `to`, if it matches.
    pub fn rename(&self, from: &str, to: &str) -> Term {
        match self {
            Term::Var(v) if v == from => Term::Var(to.to_string()),
            other => other.clone(),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(Value::Str(s)) => write!(f, "'{s}'"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// Comparison operators allowed in query bodies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `like '%needle%'` — substring containment on the string form.
    Like,
}

impl CmpOp {
    /// Evaluates the operator on two constants.
    pub fn eval(self, left: &Value, right: &Value) -> bool {
        match self {
            CmpOp::Lt => left < right,
            CmpOp::Le => left <= right,
            CmpOp::Gt => left > right,
            CmpOp::Ge => left >= right,
            CmpOp::Eq => left == right,
            CmpOp::Ne => left != right,
            // Runs once per filtered row: the string pattern is borrowed.
            CmpOp::Like => match right {
                Value::Str(s) => left.contains(s.trim_matches('%')),
                Value::Int(i) => left.contains(&i.to_string()),
            },
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Like => "like",
        };
        write!(f, "{s}")
    }
}

/// A comparison predicate, e.g. `year > 2004` or `aid2 <> aid3`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Comparison {
    /// Left operand.
    pub left: Term,
    /// Operator.
    pub op: CmpOp,
    /// Right operand.
    pub right: Term,
}

impl Comparison {
    /// Creates a comparison.
    pub fn new(left: Term, op: CmpOp, right: Term) -> Self {
        Comparison { left, op, right }
    }

    /// Variables mentioned by the comparison.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.left.as_var().into_iter().chain(self.right.as_var())
    }

    /// Substitutes a variable by a constant on both sides.
    pub fn substitute(&self, var: &str, value: &Value) -> Comparison {
        Comparison {
            left: self.left.substitute(var, value),
            op: self.op,
            right: self.right.substitute(var, value),
        }
    }

    /// Renames a variable on both sides.
    pub fn rename(&self, from: &str, to: &str) -> Comparison {
        Comparison {
            left: self.left.rename(from, to),
            op: self.op,
            right: self.right.rename(from, to),
        }
    }

    /// Evaluates the comparison if both sides are constants.
    pub fn eval_ground(&self) -> Option<bool> {
        match (&self.left, &self.right) {
            (Term::Const(l), Term::Const(r)) => Some(self.op.eval(l, r)),
            _ => None,
        }
    }
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A relational atom, e.g. `Wrote(aid, pid)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Atom {
    /// Relation name.
    pub relation: String,
    /// Terms, one per attribute.
    pub terms: Vec<Term>,
}

impl Atom {
    /// Creates an atom.
    pub fn new(relation: impl Into<String>, terms: Vec<Term>) -> Self {
        Atom {
            relation: relation.into(),
            terms,
        }
    }

    /// The variables of the atom, with duplicates.
    pub fn variables(&self) -> impl Iterator<Item = &str> {
        self.terms.iter().filter_map(Term::as_var)
    }

    /// The set of distinct variables of the atom.
    pub fn variable_set(&self) -> BTreeSet<&str> {
        self.variables().collect()
    }

    /// Positions (attribute indices) at which the variable occurs.
    pub fn positions_of(&self, var: &str) -> Vec<usize> {
        self.terms
            .iter()
            .enumerate()
            .filter_map(|(i, t)| (t.as_var() == Some(var)).then_some(i))
            .collect()
    }

    /// Substitutes a variable by a constant in every term.
    pub fn substitute(&self, var: &str, value: &Value) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self
                .terms
                .iter()
                .map(|t| t.substitute(var, value))
                .collect(),
        }
    }

    /// Renames a variable in every term.
    pub fn rename(&self, from: &str, to: &str) -> Atom {
        Atom {
            relation: self.relation.clone(),
            terms: self.terms.iter().map(|t| t.rename(from, to)).collect(),
        }
    }

    /// `true` when no term is a variable.
    pub fn is_ground(&self) -> bool {
        self.terms.iter().all(|t| !t.is_var())
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let terms: Vec<String> = self.terms.iter().map(|t| t.to_string()).collect();
        write!(f, "{}({})", self.relation, terms.join(", "))
    }
}

/// A conjunctive query: `head :- atom, ..., comparison, ...` with implicit
/// existential quantification of all non-head variables.
#[derive(Debug, Clone, PartialEq)]
pub struct ConjunctiveQuery {
    /// Name of the query (the head predicate).
    pub name: String,
    /// Head terms; empty for a Boolean query.
    pub head: Vec<Term>,
    /// Relational atoms of the body.
    pub atoms: Vec<Atom>,
    /// Comparison predicates of the body.
    pub comparisons: Vec<Comparison>,
}

impl ConjunctiveQuery {
    /// Creates a conjunctive query.
    pub fn new(
        name: impl Into<String>,
        head: Vec<Term>,
        atoms: Vec<Atom>,
        comparisons: Vec<Comparison>,
    ) -> Self {
        ConjunctiveQuery {
            name: name.into(),
            head,
            atoms,
            comparisons,
        }
    }

    /// `true` when the query has no head variables.
    pub fn is_boolean(&self) -> bool {
        self.head.iter().all(|t| !t.is_var())
    }

    /// All distinct variables of the body, in first-occurrence order.
    pub fn variables(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for atom in &self.atoms {
            for v in atom.variables() {
                if seen.insert(v.to_string()) {
                    out.push(v.to_string());
                }
            }
        }
        for cmp in &self.comparisons {
            for v in cmp.variables() {
                if seen.insert(v.to_string()) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// The distinct head variables.
    pub fn head_variables(&self) -> Vec<String> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for t in &self.head {
            if let Some(v) = t.as_var() {
                if seen.insert(v.to_string()) {
                    out.push(v.to_string());
                }
            }
        }
        out
    }

    /// The existential (non-head) variables.
    pub fn existential_variables(&self) -> Vec<String> {
        let head: BTreeSet<String> = self.head_variables().into_iter().collect();
        self.variables()
            .into_iter()
            .filter(|v| !head.contains(v))
            .collect()
    }

    /// Relation names used by the body, with duplicates removed.
    pub fn relation_names(&self) -> BTreeSet<&str> {
        self.atoms.iter().map(|a| a.relation.as_str()).collect()
    }

    /// `true` when some relation name appears in more than one atom.
    pub fn has_self_join(&self) -> bool {
        let mut counts: HashMap<&str, usize> = HashMap::new();
        for a in &self.atoms {
            *counts.entry(a.relation.as_str()).or_default() += 1;
        }
        counts.values().any(|&c| c > 1)
    }

    /// Substitutes a variable by a constant everywhere (head, atoms,
    /// comparisons).
    pub fn substitute(&self, var: &str, value: &Value) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name.clone(),
            head: self.head.iter().map(|t| t.substitute(var, value)).collect(),
            atoms: self
                .atoms
                .iter()
                .map(|a| a.substitute(var, value))
                .collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| c.substitute(var, value))
                .collect(),
        }
    }

    /// Renames a variable everywhere.
    pub fn rename(&self, from: &str, to: &str) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name.clone(),
            head: self.head.iter().map(|t| t.rename(from, to)).collect(),
            atoms: self.atoms.iter().map(|a| a.rename(from, to)).collect(),
            comparisons: self
                .comparisons
                .iter()
                .map(|c| c.rename(from, to))
                .collect(),
        }
    }

    /// Renames every variable by appending a suffix; used to make the
    /// variables of different disjuncts disjoint before taking conjunctions.
    pub fn rename_apart(&self, suffix: &str) -> ConjunctiveQuery {
        let mut q = self.clone();
        for v in self.variables() {
            q = q.rename(&v, &format!("{v}{suffix}"));
        }
        q
    }

    /// Turns this query into a Boolean query by dropping all head terms
    /// (i.e. existentially quantifying the head variables).
    pub fn boolean(&self) -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: self.name.clone(),
            head: Vec::new(),
            atoms: self.atoms.clone(),
            comparisons: self.comparisons.clone(),
        }
    }

    /// Binds the head variables to the constants of `answer`, producing the
    /// Boolean query `Q(ā)` of Section 2.1.
    pub fn bind_head(&self, answer: &[Value]) -> ConjunctiveQuery {
        assert_eq!(
            answer.len(),
            self.head.len(),
            "answer arity must match the head arity"
        );
        let mut q = self.clone();
        for (term, value) in self.head.iter().zip(answer) {
            if let Some(v) = term.as_var() {
                q = q.substitute(v, value);
            }
        }
        q.head = answer.iter().cloned().map(Term::Const).collect();
        q
    }

    /// The conjunction of two conjunctive queries (bodies concatenated).
    /// Callers are responsible for renaming variables apart when the queries
    /// should not share variables.
    pub fn conjoin(&self, other: &ConjunctiveQuery) -> ConjunctiveQuery {
        let mut atoms = self.atoms.clone();
        atoms.extend(other.atoms.iter().cloned());
        let mut comparisons = self.comparisons.clone();
        comparisons.extend(other.comparisons.iter().cloned());
        ConjunctiveQuery {
            name: format!("{}_{}", self.name, other.name),
            head: Vec::new(),
            atoms,
            comparisons,
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head: Vec<String> = self.head.iter().map(|t| t.to_string()).collect();
        write!(f, "{}({}) :- ", self.name, head.join(", "))?;
        let mut parts: Vec<String> = self.atoms.iter().map(|a| a.to_string()).collect();
        parts.extend(self.comparisons.iter().map(|c| c.to_string()));
        write!(f, "{}", parts.join(", "))
    }
}

/// A union of conjunctive queries with compatible heads.
#[derive(Debug, Clone, PartialEq)]
pub struct Ucq {
    /// Name of the query.
    pub name: String,
    /// The disjuncts.
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl Ucq {
    /// Creates a UCQ from its disjuncts. Panics if empty.
    pub fn new(name: impl Into<String>, disjuncts: Vec<ConjunctiveQuery>) -> Self {
        assert!(!disjuncts.is_empty(), "a UCQ needs at least one disjunct");
        Ucq {
            name: name.into(),
            disjuncts,
        }
    }

    /// Wraps a single conjunctive query as a UCQ.
    pub fn from_cq(cq: ConjunctiveQuery) -> Self {
        Ucq {
            name: cq.name.clone(),
            disjuncts: vec![cq],
        }
    }

    /// Head arity (all disjuncts share it).
    pub fn head_arity(&self) -> usize {
        self.disjuncts[0].head.len()
    }

    /// `true` when every disjunct is Boolean.
    pub fn is_boolean(&self) -> bool {
        self.disjuncts.iter().all(ConjunctiveQuery::is_boolean)
    }

    /// Relation names used anywhere in the UCQ.
    pub fn relation_names(&self) -> BTreeSet<&str> {
        self.disjuncts
            .iter()
            .flat_map(|d| d.relation_names())
            .collect()
    }

    /// The disjunction of two UCQs (used to form `Q ∨ W` in Theorem 1).
    pub fn union(&self, other: &Ucq) -> Ucq {
        let mut disjuncts = self.disjuncts.clone();
        disjuncts.extend(other.disjuncts.iter().cloned());
        Ucq {
            name: format!("{}_or_{}", self.name, other.name),
            disjuncts,
        }
    }

    /// Substitutes a variable by a constant in every disjunct.
    pub fn substitute(&self, var: &str, value: &Value) -> Ucq {
        Ucq {
            name: self.name.clone(),
            disjuncts: self
                .disjuncts
                .iter()
                .map(|d| d.substitute(var, value))
                .collect(),
        }
    }

    /// Binds the head of every disjunct to the given answer tuple, producing
    /// a Boolean UCQ.
    pub fn bind_head(&self, answer: &[Value]) -> Ucq {
        Ucq {
            name: self.name.clone(),
            disjuncts: self.disjuncts.iter().map(|d| d.bind_head(answer)).collect(),
        }
    }

    /// Turns the UCQ into a Boolean UCQ by dropping head variables.
    pub fn boolean(&self) -> Ucq {
        Ucq {
            name: self.name.clone(),
            disjuncts: self.disjuncts.iter().map(|d| d.boolean()).collect(),
        }
    }
}

impl fmt::Display for Ucq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.disjuncts.iter().map(|d| d.to_string()).collect();
        write!(f, "{}", parts.join(" ; "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q() -> ConjunctiveQuery {
        // Q(x) :- R(x, y), S(y, z), y > 5
        ConjunctiveQuery::new(
            "Q",
            vec![Term::var("x")],
            vec![
                Atom::new("R", vec![Term::var("x"), Term::var("y")]),
                Atom::new("S", vec![Term::var("y"), Term::var("z")]),
            ],
            vec![Comparison::new(
                Term::var("y"),
                CmpOp::Gt,
                Term::constant(5i64),
            )],
        )
    }

    #[test]
    fn variables_and_head_variables() {
        let q = q();
        assert_eq!(q.variables(), vec!["x", "y", "z"]);
        assert_eq!(q.head_variables(), vec!["x"]);
        assert_eq!(q.existential_variables(), vec!["y", "z"]);
        assert!(!q.is_boolean());
        assert!(q.boolean().is_boolean());
    }

    #[test]
    fn substitution_replaces_everywhere() {
        let q = q().substitute("y", &Value::int(7));
        assert!(q.atoms[0].terms[1].as_const().is_some());
        assert!(q.atoms[1].terms[0].as_const().is_some());
        assert_eq!(q.comparisons[0].eval_ground(), Some(true));
        let q0 = super::super::ast::ConjunctiveQuery::substitute(&q, "y", &Value::int(3));
        // y is already gone, substitution is a no-op
        assert_eq!(q0, q);
    }

    #[test]
    fn bind_head_grounds_the_head_variable() {
        let b = q().bind_head(&[Value::int(1)]);
        assert!(b.is_boolean());
        assert_eq!(b.atoms[0].terms[0], Term::Const(Value::int(1)));
        assert_eq!(b.head, vec![Term::Const(Value::int(1))]);
    }

    #[test]
    fn rename_apart_makes_variables_disjoint() {
        let a = q();
        let b = q().rename_apart("_1");
        let vars_a: BTreeSet<_> = a.variables().into_iter().collect();
        let vars_b: BTreeSet<_> = b.variables().into_iter().collect();
        assert!(vars_a.is_disjoint(&vars_b));
    }

    #[test]
    fn self_join_detection() {
        assert!(!q().has_self_join());
        let mut sj = q();
        sj.atoms
            .push(Atom::new("R", vec![Term::var("z"), Term::var("z")]));
        assert!(sj.has_self_join());
    }

    #[test]
    fn comparison_operators_evaluate() {
        assert!(CmpOp::Lt.eval(&Value::int(1), &Value::int(2)));
        assert!(CmpOp::Ge.eval(&Value::int(2), &Value::int(2)));
        assert!(CmpOp::Ne.eval(&Value::str("a"), &Value::str("b")));
        assert!(CmpOp::Like.eval(&Value::str("Sam Madden"), &Value::str("%Madden%")));
        assert!(!CmpOp::Like.eval(&Value::str("Dan Suciu"), &Value::str("%Madden%")));
    }

    #[test]
    fn like_is_substring_match_whatever_the_percent_signs() {
        let like = |l: Value, r: Value| CmpOp::Like.eval(&l, &r);
        for pattern in ["%add%", "add%", "%add", "add", "%%add%%"] {
            assert!(
                like(Value::str("Sam Madden"), Value::str(pattern)),
                "{pattern}"
            );
            assert!(
                !like(Value::str("Dan Suciu"), Value::str(pattern)),
                "{pattern}"
            );
        }
        // `%` is only trimmed at the ends; the empty pattern matches all.
        assert!(!like(Value::str("Sam Madden"), Value::str("%a%d%")));
        assert!(like(Value::str("a%d"), Value::str("%a%d%")));
        assert!(like(Value::str("anything"), Value::str("%")));
        // An `Int` left operand is matched on its decimal text, against a
        // string pattern or an `Int` one.
        assert!(like(Value::int(12345), Value::str("%234%")));
        assert!(!like(Value::int(12345), Value::str("%24%")));
        assert!(like(Value::int(12345), Value::int(34)));
        assert!(!like(Value::int(12345), Value::int(6)));
        assert!(like(Value::str("room 101"), Value::int(101)));
    }

    #[test]
    fn ucq_union_and_display() {
        let u1 = Ucq::from_cq(q());
        let u2 = Ucq::from_cq(q().rename_apart("_b"));
        let u = u1.union(&u2);
        assert_eq!(u.disjuncts.len(), 2);
        assert!(u.to_string().contains(" ; "));
        assert_eq!(u.head_arity(), 1);
        assert!(u.relation_names().contains("R"));
    }

    #[test]
    fn atom_positions_and_groundness() {
        let a = Atom::new(
            "R",
            vec![Term::var("x"), Term::var("x"), Term::constant(3i64)],
        );
        assert_eq!(a.positions_of("x"), vec![0, 1]);
        assert!(!a.is_ground());
        let g = a.substitute("x", &Value::int(1));
        assert!(g.is_ground());
    }

    #[test]
    fn display_round_trips_visually() {
        let s = q().to_string();
        assert!(s.contains("Q(x) :- R(x, y), S(y, z), y > 5"));
    }

    #[test]
    #[should_panic(expected = "at least one disjunct")]
    fn empty_ucq_is_rejected() {
        let _ = Ucq::new("Q", vec![]);
    }
}
