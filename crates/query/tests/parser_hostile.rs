//! Hostile input at the parser's boundary, and the plan keys it feeds.
//!
//! * Whatever text arrives — random bytes, random grammar characters, every
//!   truncation and one-byte mutations of valid queries — `parse_ucq`
//!   returns instead of panicking, every error position is a character
//!   boundary within the input, and whatever parses prints back (`Display`)
//!   to text that parses to the same query.
//! * Names past the inline capacity ([`Name::INLINE`] bytes) and non-ASCII
//!   identifiers round-trip like short ASCII ones.
//! * The plan cache keys a query by its shape: instances of one shape (atom
//!   constants changed) resolve to one template, and renaming a relation or
//!   a variable resolves to another.
//!
//! CI runs this file in release at 2 048 cases (`PROPTEST_CASES=2048`).

use std::sync::Arc;

use mv_pdb::{Database, Value};
use mv_query::eval::EvalContext;
use mv_query::{parse_ucq, Name, QueryError, Term, Ucq};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::Rng;

/// Relations with their arities: short, past the inline capacity, and
/// non-ASCII.
const RELATIONS: [(&str, usize); 6] = [
    ("R", 1),
    ("Advisor", 2),
    ("a_relation_name_past_the_inline_capacity", 2),
    ("Übersicht", 3),
    ("関係", 1),
    ("S.v2", 2),
];

const VARIABLES: [&str; 7] = [
    "x",
    "y1",
    "aid.2",
    "_t",
    "a_variable_name_longer_than_23_bytes",
    "λ",
    "変数",
];

const STRINGS: [&str; 5] = ["a b", "%x;y%", "", "é\nQ() :- R(x)", "100%"];

const OPS: [&str; 9] = ["<", "<=", ">", ">=", "=", "<>", "!=", "like", "LIKE"];

fn pick<'a, T>(rng: &mut TestRng, from: &'a [T]) -> &'a T {
    &from[rng.gen_range(0..from.len())]
}

fn constant(rng: &mut TestRng) -> String {
    if rng.gen_bool(0.5) {
        rng.gen_range(-50i64..50).to_string()
    } else {
        format!("'{}'", pick(rng, &STRINGS))
    }
}

/// Generates valid query text: 1–3 rules of 1–3 atoms over [`RELATIONS`],
/// an optional comparison, a head of a shared arity, joined by `;` or by
/// line breaks.
#[derive(Clone, Copy)]
struct ValidText {
    /// Only Boolean heads and integer atom constants (plan-key property).
    boolean: bool,
}

impl ValidText {
    fn rule(&self, rng: &mut TestRng, head_arity: usize) -> String {
        let mut bound = Vec::new();
        let mut body = Vec::new();
        for _ in 0..rng.gen_range(1..=3) {
            let (relation, arity) = *pick(rng, &RELATIONS);
            let terms: Vec<String> = (0..arity)
                .map(|_| {
                    if rng.gen_bool(0.3) {
                        match self.boolean {
                            true => rng.gen_range(0i64..50).to_string(),
                            false => constant(rng),
                        }
                    } else {
                        let v = *pick(rng, &VARIABLES);
                        bound.push(v);
                        v.to_string()
                    }
                })
                .collect();
            body.push(format!("{relation}({})", terms.join(", ")));
        }
        if !bound.is_empty() && rng.gen_bool(0.5) {
            let v = *pick(rng, &bound);
            let op = *pick(rng, &OPS);
            body.push(format!("{v} {op} {}", constant(rng)));
        }
        let head: Vec<String> = (0..head_arity)
            .map(|_| match bound.is_empty() {
                true => "7".to_string(),
                false => pick(rng, &bound).to_string(),
            })
            .collect();
        format!("Q({}) :- {}", head.join(", "), body.join(",\n  "))
    }
}

impl Strategy for ValidText {
    type Value = String;

    fn generate(&self, rng: &mut TestRng) -> String {
        let head_arity = if self.boolean {
            0
        } else {
            rng.gen_range(0..=2)
        };
        let rules: Vec<String> = (0..rng.gen_range(1..=3))
            .map(|_| self.rule(rng, head_arity))
            .collect();
        rules.join(if rng.gen_bool(0.5) { " ; " } else { "\n" })
    }
}

/// The parser's contract on any text: no panic, an error position that is
/// a character boundary within the input, and a parse that round-trips.
fn check(text: &str) -> Result<(), TestCaseError> {
    match parse_ucq(text) {
        Ok(ucq) => {
            let printed = ucq.to_string();
            let reparsed = parse_ucq(&printed);
            prop_assert!(
                reparsed.as_ref() == Ok(&ucq),
                "{text:?} printed as {printed:?} parsed back as {reparsed:?}"
            );
        }
        Err(QueryError::Parse { position, .. }) => {
            prop_assert!(
                position <= text.len() && text.is_char_boundary(position),
                "position {position} in {text:?}"
            );
        }
        Err(_) => {}
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..96)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn random_grammar_characters_never_panic(text in "\\PC{0,64}") {
        check(&text)?;
    }

    #[test]
    fn truncations_and_mutations_of_valid_text_never_panic(
        text in ValidText { boolean: false },
        at in 0usize..4096,
        byte in 0u8..=255,
    ) {
        prop_assert!(parse_ucq(&text).is_ok(), "valid text rejected: {text:?}");
        for cut in (0..=text.len()).filter(|&cut| text.is_char_boundary(cut)) {
            check(&text[..cut])?;
        }
        let at = at % text.len();
        let mut bytes = text.clone().into_bytes();
        bytes[at] = byte;
        check(&String::from_utf8_lossy(&bytes))?;
        bytes.remove(at);
        check(&String::from_utf8_lossy(&bytes))?;
        bytes.insert(at, byte);
        bytes.insert(at, byte);
        check(&String::from_utf8_lossy(&bytes))?;
    }

    #[test]
    fn long_and_non_ascii_names_round_trip(text in ValidText { boolean: false }) {
        let ucq = parse_ucq(&text).map_err(|e| TestCaseError::fail(format!("{text:?}: {e}")))?;
        prop_assert_eq!(parse_ucq(&ucq.to_string()), Ok(ucq.clone()));
        for atom in ucq.disjuncts.iter().flat_map(|cq| &cq.atoms) {
            prop_assert_eq!(atom.relation.is_inline(), atom.relation.len() <= Name::INLINE);
            for term in &atom.terms {
                if let Term::Var(v) = term {
                    prop_assert!(VARIABLES.contains(&v.as_str()), "{v:?}");
                    prop_assert_eq!(v.is_inline(), v.len() <= Name::INLINE);
                }
            }
        }
    }

    #[test]
    fn shape_equal_queries_share_a_plan_and_renamed_ones_do_not(
        text in ValidText { boolean: true },
        which in 0usize..64,
    ) {
        let db = database();
        let ctx = EvalContext::new(&db);
        let ucq = parse_ucq(&text).map_err(|e| TestCaseError::fail(format!("{text:?}: {e}")))?;
        let plan = ctx.compile_vec(&ucq).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let same = |other: &Ucq| -> Result<bool, TestCaseError> {
            let other = ctx.compile_vec(other).map_err(|e| TestCaseError::fail(e.to_string()))?;
            Ok(Arc::ptr_eq(&plan, &other))
        };

        // Every atom constant changed: one shape, one template.
        let mut shifted = ucq.clone();
        for term in shifted.disjuncts.iter_mut().flat_map(|cq| &mut cq.atoms).flat_map(|a| &mut a.terms) {
            if let Term::Const(Value::Int(k)) = term {
                *term = Term::Const(Value::Int(*k + 1));
            }
        }
        prop_assert!(same(&shifted)?, "{text:?}: constants are not shape");

        // One atom's relation renamed to another of its arity: another shape.
        let mut renamed = ucq.clone();
        let atoms: Vec<_> = renamed.disjuncts.iter_mut().flat_map(|cq| &mut cq.atoms).collect();
        let count = atoms.len();
        let atom = atoms.into_iter().nth(which % count).expect("an atom");
        let arity = atom.terms.len();
        if let Some((other, _)) = RELATIONS.iter().find(|(r, a)| *a == arity && atom.relation != *r) {
            atom.relation = Name::new(other);
            prop_assert!(!same(&renamed)?, "{text:?}: relation renamed to {other}");
        }

        // One variable renamed everywhere to a name the query lacks.
        let vars: Vec<String> = ucq.disjuncts.iter().flat_map(|cq| cq.variables()).collect();
        if let Some(v) = vars.get(which % vars.len().max(1)) {
            let fresh = format!("{v}_renamed_past_the_inline_capacity");
            let renamed = Ucq::new(
                ucq.name.clone(),
                ucq.disjuncts.iter().map(|cq| cq.rename(v, &fresh)).collect(),
            );
            prop_assert!(!same(&renamed)?, "{text:?}: {v} renamed");
        }
    }
}

/// The relations of [`RELATIONS`], empty.
fn database() -> Database {
    let mut db = Database::new();
    for (name, arity) in RELATIONS {
        db.add_relation(name, &["a", "b", "c"][..arity])
            .expect("distinct relation names");
    }
    db
}
