//! A datalog-style parser for (unions of) conjunctive queries.
//!
//! Grammar (informal):
//!
//! ```text
//! ucq       := rule ( (";" | newline)+ rule )*   -- a newline separates only
//!                                                before a line holding `head :-`
//! rule      := head [ "[" annotation "]" ] ":-" literal ("," literal)*
//! head      := ident "(" [ term ("," term)* ] ")"
//! literal   := atom | comparison
//! atom      := ident "(" term ("," term)* ")"
//! comparison:= term op term
//! op        := "<" | "<=" | ">" | ">=" | "=" | "!=" | "<>" | "like"
//! term      := ident | integer | "'" chars "'"
//! ```
//!
//! Bare identifiers in term position are variables; quoted strings and
//! integers are constants. The optional `[annotation]` after the head is the
//! MarkoView weight expression of Definition 3 (e.g. `V(x)[0.5] :- …`); it is
//! returned verbatim so that `mv-core` can interpret it.

use mv_pdb::Value;

use crate::ast::{Atom, CmpOp, Comparison, ConjunctiveQuery, Term, Ucq};
use crate::error::QueryError;
use crate::Result;

/// Parses a single conjunctive query (one rule).
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery> {
    let (cq, annotation) = parse_rule_with_annotation(input)?;
    if annotation.is_some() {
        return Err(QueryError::Parse {
            message: "unexpected weight annotation on a plain query (only MarkoViews carry `[…]`)"
                .into(),
            position: 0,
        });
    }
    Ok(cq)
}

/// Parses a union of conjunctive queries: one rule per line (or separated by
/// `;`), all with the same head predicate arity.
pub fn parse_ucq(input: &str) -> Result<Ucq> {
    let mut disjuncts = Vec::new();
    for part in split_rules(input) {
        let cq = parse_query(part)?;
        if let Some(first) = disjuncts.first() {
            let first: &ConjunctiveQuery = first;
            if first.head.len() != cq.head.len() {
                return Err(QueryError::MismatchedHeads {
                    first: first.head.len(),
                    other: cq.head.len(),
                });
            }
        }
        disjuncts.push(cq);
    }
    if disjuncts.is_empty() {
        return Err(QueryError::Parse {
            message: "empty input: expected at least one rule".into(),
            position: 0,
        });
    }
    let name = disjuncts[0].name.clone();
    Ok(Ucq::new(name, disjuncts))
}

/// Parses a single rule, returning the optional `[annotation]` text after the
/// head (used by MarkoView definitions).
pub fn parse_rule_with_annotation(input: &str) -> Result<(ConjunctiveQuery, Option<String>)> {
    Parser::new(input).parse_rule()
}

/// Splits an input into rule chunks at every `;` outside a quoted string
/// and at every line break followed by a line that opens a new rule, so a
/// rule may span several lines and a string constant may hold a `;`.
fn split_rules<'a>(input: &'a str) -> Vec<&'a str> {
    let mut rules = Vec::new();
    let mut push = |chunk: &'a str| {
        let chunk = chunk.trim();
        if !chunk.is_empty() {
            rules.push(chunk);
        }
    };
    let mut start = 0;
    let mut quoted = false;
    for (i, c) in input.char_indices() {
        let split = match c {
            '\'' => {
                quoted = !quoted;
                false
            }
            ';' => !quoted,
            '\n' => !quoted && opens_rule(&input[i + 1..]),
            _ => false,
        };
        if split {
            push(&input[start..i]);
            start = i + 1;
        }
    }
    push(&input[start..]);
    rules
}

/// `true` when the first line of `rest` opens a rule: a `:-` outside quotes
/// with a head before it. A line starting with `:-` continues the rule
/// whose head is on the line above.
fn opens_rule(rest: &str) -> bool {
    let line = rest.split('\n').next().unwrap_or_default();
    let mut quoted = false;
    for (i, c) in line.char_indices() {
        match c {
            '\'' => quoted = !quoted,
            ':' if !quoted && line[i..].starts_with(":-") => return !line[..i].trim().is_empty(),
            _ => {}
        }
    }
    false
}

struct Parser<'a> {
    input: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            input,
            bytes: input.as_bytes(),
            pos: 0,
        }
    }

    fn error<T>(&self, message: impl Into<String>) -> Result<T> {
        Err(QueryError::Parse {
            message: message.into(),
            position: self.pos,
        })
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && (self.bytes[self.pos] as char).is_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    fn eat(&mut self, expected: &str) -> bool {
        self.skip_ws();
        if self.input[self.pos..].starts_with(expected) {
            self.pos += expected.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, expected: &str) -> Result<()> {
        if self.eat(expected) {
            Ok(())
        } else {
            self.error(format!("expected `{expected}`"))
        }
    }

    fn parse_ident(&mut self) -> Result<String> {
        self.skip_ws();
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || (self.pos > start && c == '.') {
                self.pos += c.len_utf8();
            } else {
                break;
            }
        }
        if self.pos == start {
            return self.error("expected an identifier");
        }
        let ident = &self.input[start..self.pos];
        if ident.chars().next().unwrap().is_numeric() || ident.starts_with('-') {
            return self.error("identifiers must not start with a digit");
        }
        Ok(ident.to_string())
    }

    fn parse_term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some('\'') => {
                self.pos += 1;
                let start = self.pos;
                while let Some(c) = self.peek() {
                    if c == '\'' {
                        break;
                    }
                    self.pos += c.len_utf8();
                }
                if self.peek() != Some('\'') {
                    return self.error("unterminated string literal");
                }
                let s = &self.input[start..self.pos];
                self.pos += 1;
                Ok(Term::Const(Value::str(s)))
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let start = self.pos;
                if c == '-' {
                    self.pos += 1;
                }
                while let Some(c) = self.peek() {
                    if c.is_ascii_digit() {
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.input[start..self.pos];
                match text.parse::<i64>() {
                    Ok(i) => Ok(Term::Const(Value::int(i))),
                    Err(_) => self.error(format!("invalid integer literal `{text}`")),
                }
            }
            Some(c) if c.is_alphabetic() || c == '_' => Ok(Term::Var(self.parse_ident()?)),
            _ => self.error("expected a term (variable, integer or 'string')"),
        }
    }

    fn parse_term_list(&mut self) -> Result<Vec<Term>> {
        self.expect("(")?;
        let mut terms = Vec::new();
        self.skip_ws();
        if self.eat(")") {
            return Ok(terms);
        }
        loop {
            terms.push(self.parse_term()?);
            self.skip_ws();
            if self.eat(")") {
                break;
            }
            self.expect(",")?;
        }
        Ok(terms)
    }

    fn parse_cmp_op(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        let rest = &self.input[self.pos..];
        let lowered = rest.to_ascii_lowercase();
        let (op, len) = if lowered.starts_with("like") {
            (CmpOp::Like, 4)
        } else if rest.starts_with("<=") {
            (CmpOp::Le, 2)
        } else if rest.starts_with(">=") {
            (CmpOp::Ge, 2)
        } else if rest.starts_with("<>") || rest.starts_with("!=") {
            (CmpOp::Ne, 2)
        } else if rest.starts_with('<') {
            (CmpOp::Lt, 1)
        } else if rest.starts_with('>') {
            (CmpOp::Gt, 1)
        } else if rest.starts_with('=') {
            (CmpOp::Eq, 1)
        } else {
            return None;
        };
        self.pos += len;
        Some(op)
    }

    /// Parses one body literal: either `Rel(t, …)` or `t op t`.
    fn parse_literal(&mut self) -> Result<Literal> {
        let left = self.parse_term()?;
        self.skip_ws();
        if self.peek() == Some('(') {
            // It was actually a relation name.
            let relation = match left {
                Term::Var(name) => name,
                Term::Const(_) => return self.error("relation names must be identifiers"),
            };
            let terms = self.parse_term_list()?;
            return Ok(Literal::Atom(Atom::new(relation, terms)));
        }
        match self.parse_cmp_op() {
            Some(op) => {
                let right = self.parse_term()?;
                Ok(Literal::Comparison(Comparison::new(left, op, right)))
            }
            None => self.error("expected `(` (atom) or a comparison operator"),
        }
    }

    fn parse_rule(mut self) -> Result<(ConjunctiveQuery, Option<String>)> {
        let name = self.parse_ident()?;
        let head = self.parse_term_list()?;
        self.skip_ws();
        let annotation = if self.eat("[") {
            let start = self.pos;
            let mut depth = 1usize;
            while let Some(c) = self.peek() {
                if c == '[' {
                    depth += 1;
                } else if c == ']' {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                self.pos += c.len_utf8();
            }
            if self.peek() != Some(']') {
                return self.error("unterminated `[` annotation");
            }
            let text = self.input[start..self.pos].trim().to_string();
            self.pos += 1;
            Some(text)
        } else {
            None
        };
        self.expect(":-")?;
        let mut atoms = Vec::new();
        let mut comparisons = Vec::new();
        loop {
            match self.parse_literal()? {
                Literal::Atom(a) => atoms.push(a),
                Literal::Comparison(c) => comparisons.push(c),
            }
            self.skip_ws();
            if !self.eat(",") {
                break;
            }
        }
        self.skip_ws();
        if self.pos != self.input.len() {
            return self.error("trailing input after the rule body");
        }
        let cq = ConjunctiveQuery::new(name, head, atoms, comparisons);
        validate(&cq)?;
        Ok((cq, annotation))
    }
}

enum Literal {
    Atom(Atom),
    Comparison(Comparison),
}

/// Checks that head variables and comparison variables appear in some atom.
fn validate(cq: &ConjunctiveQuery) -> Result<()> {
    let body_vars: std::collections::BTreeSet<String> = cq
        .atoms
        .iter()
        .flat_map(|a| a.variables().map(str::to_string))
        .collect();
    for v in cq.head_variables() {
        if !body_vars.contains(&v) {
            return Err(QueryError::UnboundHeadVariable(v));
        }
    }
    for c in &cq.comparisons {
        for v in c.variables() {
            if !body_vars.contains(v) {
                return Err(QueryError::UnboundComparisonVariable(v.to_string()));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_running_example_query() {
        let q = parse_query(
            "Q(aid) :- Student(aid), Advisor(aid, aid1), Author(aid, n), Author(aid1, n1), n1 like '%Madden%'",
        )
        .unwrap();
        assert_eq!(q.name, "Q");
        assert_eq!(q.head, vec![Term::var("aid")]);
        assert_eq!(q.atoms.len(), 4);
        assert_eq!(q.comparisons.len(), 1);
        assert_eq!(q.comparisons[0].op, CmpOp::Like);
    }

    #[test]
    fn parses_boolean_queries_with_empty_heads() {
        let q = parse_query("Q() :- R(x), S(x, y)").unwrap();
        assert!(q.is_boolean());
        assert_eq!(q.variables(), vec!["x", "y"]);
    }

    #[test]
    fn parses_constants_in_atoms() {
        let q = parse_query("Q() :- Pub(pid, t, 2008), Wrote('ullman', pid), pid >= 7").unwrap();
        assert_eq!(q.atoms[0].terms[2], Term::Const(Value::int(2008)));
        assert_eq!(q.atoms[1].terms[0], Term::Const(Value::str("ullman")));
        assert_eq!(q.comparisons[0].op, CmpOp::Ge);
    }

    #[test]
    fn parses_all_comparison_operators() {
        let q =
            parse_query("Q() :- R(a, b, c, d, e, f), a < 1, b <= 2, c > 3, d >= 4, e = 5, f <> 6")
                .unwrap();
        let ops: Vec<CmpOp> = q.comparisons.iter().map(|c| c.op).collect();
        assert_eq!(
            ops,
            vec![
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne
            ]
        );
    }

    #[test]
    fn parses_ucq_with_multiple_rules() {
        let u = parse_ucq("W() :- R(x), S(x, y) ; W() :- T(z), S(z, y)").unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        assert!(u.is_boolean());
    }

    #[test]
    fn mismatched_heads_are_rejected() {
        let err = parse_ucq("Q(x) :- R(x) ; Q(x, y) :- S(x, y)").unwrap_err();
        assert!(matches!(err, QueryError::MismatchedHeads { .. }));
    }

    #[test]
    fn markoview_annotation_is_returned_verbatim() {
        let (cq, ann) = parse_rule_with_annotation(
            "V1(aid1, aid2)[count(pid)/2] :- Advisor(aid1, aid2), Wrote(aid1, pid)",
        )
        .unwrap();
        assert_eq!(cq.name, "V1");
        assert_eq!(ann.as_deref(), Some("count(pid)/2"));
    }

    #[test]
    fn plain_queries_must_not_carry_annotations() {
        assert!(parse_query("Q(x)[2] :- R(x)").is_err());
    }

    #[test]
    fn unbound_head_variable_is_rejected() {
        let err = parse_query("Q(z) :- R(x)").unwrap_err();
        assert_eq!(err, QueryError::UnboundHeadVariable("z".into()));
    }

    #[test]
    fn unbound_comparison_variable_is_rejected() {
        let err = parse_query("Q() :- R(x), y > 3").unwrap_err();
        assert_eq!(err, QueryError::UnboundComparisonVariable("y".into()));
    }

    #[test]
    fn negative_integers_and_malformed_input() {
        let q = parse_query("Q() :- R(x), x > -5").unwrap();
        assert_eq!(q.comparisons[0].right, Term::Const(Value::int(-5)));
        assert!(parse_query("Q() :-").is_err());
        assert!(parse_query("Q() : R(x)").is_err());
        assert!(parse_query("Q() :- R(x) extra").is_err());
        assert!(parse_query("Q() :- R(x").is_err());
        assert!(parse_query("").is_err());
        assert!(parse_ucq("   ").is_err());
    }

    #[test]
    fn semicolons_inside_string_constants_do_not_split_rules() {
        let u = parse_ucq("Q() :- A(a, 'x;y')").unwrap();
        assert_eq!(u.disjuncts.len(), 1);
        assert_eq!(u.disjuncts[0].atoms[0].terms[1], Term::constant("x;y"));
        let u = parse_ucq("Q(a) :- A(a, n), n like '%a;b%' ; Q(a) :- B(a)").unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        assert_eq!(u.disjuncts[0].comparisons[0].right, Term::constant("%a;b%"));
        // An unterminated string is reported as such, `;` or not.
        assert!(matches!(
            parse_ucq("Q() :- A(a, 'x;y)"),
            Err(QueryError::Parse { message, .. }) if message.contains("unterminated")
        ));
    }

    #[test]
    fn rules_may_be_separated_by_line_breaks_and_may_span_lines() {
        let u = parse_ucq("Q() :- R(x)\nQ() :- S(x)").unwrap();
        assert_eq!(u.disjuncts.len(), 2);
        assert_eq!(u.disjuncts[1].atoms[0].relation, "S");
        // A body continued on the next line stays one rule, and so does a
        // head whose `:-` starts the next line.
        let u = parse_ucq("Q() :- R(x),\n    S(x, y)\nQ() :- T(y) ;\nQ()\n  :- U(z)").unwrap();
        let atoms: Vec<usize> = u.disjuncts.iter().map(|d| d.atoms.len()).collect();
        assert_eq!(atoms, vec![2, 1, 1]);
        // A `:-` inside a string on a continuation line opens nothing.
        let u = parse_ucq("Q() :- R(x),\n  A(x, ':- not a rule')").unwrap();
        assert_eq!(u.disjuncts.len(), 1);
    }

    #[test]
    fn string_literals_may_contain_spaces_and_percent() {
        let q = parse_query("Q(n) :- Author(a, n), n like '%Sam Madden%'").unwrap();
        assert_eq!(
            q.comparisons[0].right,
            Term::Const(Value::str("%Sam Madden%"))
        );
    }
}
