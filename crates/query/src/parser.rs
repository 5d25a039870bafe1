//! A datalog-style parser for (unions of) conjunctive queries.
//!
//! Grammar (informal):
//!
//! ```text
//! ucq       := rule ( (";" | newline)+ rule )*   -- a newline separates only
//!                                                before a line holding `head :-`,
//!                                                outside a quoted string
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
//! returned verbatim so that `mv-core` can interpret it. `like` matches in
//! any case and only as a whole word; whitespace is any Unicode white
//! space; an error's position is a byte offset into the whole input.

use mv_pdb::Value;

use crate::ast::{Atom, CmpOp, Comparison, ConjunctiveQuery, Name, Term, Ucq};
use crate::error::QueryError;
use crate::Result;

/// Parses a single conjunctive query (one rule).
pub fn parse_query(input: &str) -> Result<ConjunctiveQuery> {
    let (cq, annotation) = Parser::new(input).whole_rule()?;
    if annotation.is_some() {
        return Err(annotated(0));
    }
    Ok(cq)
}

/// Parses a union of conjunctive queries: one rule per line (or separated by
/// `;`), all with the same head predicate arity.
///
/// Rules are parsed where they stand and names are held inline
/// ([`Name`]), so a one-rule query of `a` ≤ 4 atoms of ≤ 4 terms each
/// allocates `a + 2` times (the rule list, sized exactly; the atom list;
/// one term list per atom), plus once for a non-empty head, once for its
/// comparisons and once per string constant. A list's first element
/// allocates room for four; a longer list grows by doubling, which costs
/// less than counting every list's elements before parsing it (a
/// pre-count made the cold parse of a point text 10–25 % slower on a
/// 2-vCPU box).
pub fn parse_ucq(input: &str) -> Result<Ucq> {
    let mut parser = Parser::new(input);
    let mut disjuncts: Vec<ConjunctiveQuery> = Vec::new();
    while parser.next_rule() {
        let start = parser.pos;
        let (cq, annotation) = parser.rule()?;
        if annotation.is_some() {
            return Err(annotated(start));
        }
        parser.rule_boundary()?;
        if let Some(first) = disjuncts.first() {
            if first.head.len() != cq.head.len() {
                return Err(QueryError::MismatchedHeads {
                    first: first.head.len(),
                    other: cq.head.len(),
                });
            }
        } else if parser.at_end() {
            // A one-rule query, the common case: room for exactly one.
            disjuncts.reserve_exact(1);
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
    let (cq, annotation) = Parser::new(input).whole_rule()?;
    Ok((cq, annotation.map(str::to_string)))
}

fn annotated(position: usize) -> QueryError {
    QueryError::Parse {
        message: "unexpected weight annotation on a plain query (only MarkoViews carry `[…]`)"
            .into(),
        position,
    }
}

/// `true` when the first line of `rest` opens a rule: a `:-` outside quotes
/// with a head before it. A line starting with `:-` continues the rule
/// whose head is on the line above.
fn opens_rule(rest: &[u8]) -> bool {
    let line = rest.split(|&b| b == b'\n').next().unwrap_or_default();
    let mut quoted = false;
    for (i, &b) in line.iter().enumerate() {
        match b {
            b'\'' => quoted = !quoted,
            b':' if !quoted && line.get(i + 1) == Some(&b'-') => {
                let head = std::str::from_utf8(&line[..i]);
                return head.map_or(true, |head| !head.trim().is_empty());
            }
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

    fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The character at the cursor, decoded (only non-ASCII bytes need it).
    fn char_here(&self) -> Option<char> {
        self.input[self.pos..].chars().next()
    }

    /// Skips whitespace; `true` when a line break was among it.
    fn skip_ws(&mut self) -> bool {
        let mut newline = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b.is_ascii_whitespace() || b == 0x0b {
                newline |= b == b'\n';
                self.pos += 1;
            } else if b >= 0x80 && self.char_here().is_some_and(char::is_whitespace) {
                self.pos += self.char_here().map_or(1, char::len_utf8);
            } else {
                break;
            }
        }
        newline
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, expected: &str) -> bool {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(expected.as_bytes()) {
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

    /// Skips whitespace and empty rules; `false` at the end of the input.
    fn next_rule(&mut self) -> bool {
        while {
            self.skip_ws();
            self.peek() == Some(b';')
        } {
            self.pos += 1;
        }
        !self.at_end()
    }

    /// After a rule of a union: the end of the input, a `;`, or a line
    /// break before a line that opens the next rule.
    fn rule_boundary(&mut self) -> Result<()> {
        let newline = self.skip_ws();
        if self.at_end()
            || self.peek() == Some(b';')
            || (newline && opens_rule(&self.bytes[self.pos..]))
        {
            Ok(())
        } else {
            self.error("trailing input after the rule body")
        }
    }

    /// Length of the identifier at the cursor (letters, digits, `_`, and
    /// `.` after the first character).
    fn ident_len(&self) -> usize {
        let mut at = self.pos;
        while let Some(&b) = self.bytes.get(at) {
            if b < 0x80 {
                if !(b.is_ascii_alphanumeric() || b == b'_' || (b == b'.' && at > self.pos)) {
                    break;
                }
                at += 1;
            } else {
                match self.input[at..].chars().next() {
                    Some(c) if c.is_alphanumeric() => at += c.len_utf8(),
                    _ => break,
                }
            }
        }
        at - self.pos
    }

    fn parse_ident(&mut self) -> Result<Name> {
        self.skip_ws();
        let len = self.ident_len();
        if len == 0 {
            return self.error("expected an identifier");
        }
        if self.char_here().is_some_and(char::is_numeric) {
            return self.error("identifiers must not start with a digit");
        }
        let name = Name::new(&self.input[self.pos..self.pos + len]);
        self.pos += len;
        Ok(name)
    }

    fn parse_term(&mut self) -> Result<Term> {
        self.skip_ws();
        match self.peek() {
            Some(b'\'') => {
                let start = self.pos + 1;
                match self.bytes[start..].iter().position(|&b| b == b'\'') {
                    Some(len) => {
                        self.pos = start + len + 1;
                        Ok(Term::Const(Value::str(&self.input[start..start + len])))
                    }
                    None => {
                        self.pos = self.bytes.len();
                        self.error("unterminated string literal")
                    }
                }
            }
            Some(b) if b.is_ascii_digit() || b == b'-' => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().is_some_and(|b| b.is_ascii_digit()) {
                    self.pos += 1;
                }
                let text = &self.input[start..self.pos];
                match text.parse::<i64>() {
                    Ok(i) => Ok(Term::Const(Value::int(i))),
                    Err(_) => self.error(format!("invalid integer literal `{text}`")),
                }
            }
            Some(b) if b.is_ascii_alphabetic() || b == b'_' => Ok(Term::Var(self.parse_ident()?)),
            Some(b) if b >= 0x80 && self.char_here().is_some_and(char::is_alphabetic) => {
                Ok(Term::Var(self.parse_ident()?))
            }
            _ => self.error("expected a term (variable, integer or 'string')"),
        }
    }

    /// `( term, … )`.
    fn parse_term_list(&mut self) -> Result<Vec<Term>> {
        self.expect("(")?;
        if self.eat(")") {
            return Ok(Vec::new());
        }
        let mut terms = Vec::new();
        loop {
            terms.push(self.parse_term()?);
            if self.eat(")") {
                break;
            }
            self.expect(",")?;
        }
        Ok(terms)
    }

    /// A comparison operator at the cursor. `like` is matched in place, in
    /// any case, and only as a whole word: `n likeness` is no comparison.
    fn parse_cmp_op(&mut self) -> Option<CmpOp> {
        self.skip_ws();
        let rest = &self.bytes[self.pos..];
        let (op, len) = match rest {
            [l, i, k, e, ..]
                if [*l, *i, *k, *e].eq_ignore_ascii_case(b"like") && {
                    let after = Parser {
                        pos: self.pos + 4,
                        ..*self
                    };
                    after.ident_len() == 0 && after.peek() != Some(b'.')
                } =>
            {
                (CmpOp::Like, 4)
            }
            [b'<', b'=', ..] => (CmpOp::Le, 2),
            [b'>', b'=', ..] => (CmpOp::Ge, 2),
            [b'<', b'>', ..] | [b'!', b'=', ..] => (CmpOp::Ne, 2),
            [b'<', ..] => (CmpOp::Lt, 1),
            [b'>', ..] => (CmpOp::Gt, 1),
            [b'=', ..] => (CmpOp::Eq, 1),
            _ => return None,
        };
        self.pos += len;
        Some(op)
    }

    /// Parses one body literal into `atoms` or `comparisons`: either
    /// `Rel(t, …)` or `t op t`.
    fn parse_literal(
        &mut self,
        atoms: &mut Vec<Atom>,
        comparisons: &mut Vec<Comparison>,
    ) -> Result<()> {
        let left = self.parse_term()?;
        self.skip_ws();
        if self.peek() == Some(b'(') {
            // It was actually a relation name.
            let relation = match left {
                Term::Var(name) => name,
                Term::Const(_) => return self.error("relation names must be identifiers"),
            };
            let terms = self.parse_term_list()?;
            atoms.push(Atom { relation, terms });
            return Ok(());
        }
        match self.parse_cmp_op() {
            Some(op) => {
                let right = self.parse_term()?;
                comparisons.push(Comparison::new(left, op, right));
                Ok(())
            }
            None => self.error("expected `(` (atom) or a comparison operator"),
        }
    }

    /// One rule, from its head to its last literal, plus the verbatim
    /// `[annotation]` after the head, if any.
    fn rule(&mut self) -> Result<(ConjunctiveQuery, Option<&'a str>)> {
        let name = self.parse_ident()?;
        let head = self.parse_term_list()?;
        let annotation = if self.eat("[") {
            let start = self.pos;
            let mut depth = 1usize;
            let len = self.bytes[start..].iter().position(|&b| {
                match b {
                    b'[' => depth += 1,
                    b']' => depth -= 1,
                    _ => {}
                }
                depth == 0
            });
            let Some(len) = len else {
                self.pos = self.bytes.len();
                return self.error("unterminated `[` annotation");
            };
            self.pos = start + len + 1;
            Some(self.input[start..start + len].trim())
        } else {
            None
        };
        self.expect(":-")?;
        let (mut atoms, mut comparisons) = (Vec::new(), Vec::new());
        loop {
            self.parse_literal(&mut atoms, &mut comparisons)?;
            // The whitespace after the last literal is the boundary's to
            // read: a line break there may end the rule.
            let end = self.pos;
            if !self.eat(",") {
                self.pos = end;
                break;
            }
        }
        let cq = ConjunctiveQuery {
            name,
            head,
            atoms,
            comparisons,
        };
        validate(&cq)?;
        Ok((cq, annotation))
    }

    /// A rule that must span the whole input.
    fn whole_rule(mut self) -> Result<(ConjunctiveQuery, Option<&'a str>)> {
        let rule = self.rule()?;
        self.skip_ws();
        if !self.at_end() {
            return self.error("trailing input after the rule body");
        }
        Ok(rule)
    }
}

/// Checks that head variables and comparison variables appear in some atom.
fn validate(cq: &ConjunctiveQuery) -> Result<()> {
    let bound = |v: &str| cq.atoms.iter().any(|a| a.variables().any(|w| w == v));
    if let Some(v) = cq.head.iter().filter_map(Term::as_var).find(|v| !bound(v)) {
        return Err(QueryError::UnboundHeadVariable(v.to_string()));
    }
    let mut compared = cq.comparisons.iter().flat_map(Comparison::variables);
    if let Some(v) = compared.find(|v| !bound(v)) {
        return Err(QueryError::UnboundComparisonVariable(v.to_string()));
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
    fn like_is_a_whole_word_in_any_case() {
        for text in [
            "Q(n) :- Author(a, n), n LIKE '%Madden%'",
            "Q(n) :- Author(a, n), n Like '%Madden%'",
            "Q(n) :- Author(a, n), n like'%Madden%'",
        ] {
            let q = parse_query(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(q.comparisons[0].op, CmpOp::Like, "{text}");
            assert_eq!(q.comparisons[0].right, Term::constant("%Madden%"));
        }
        // `likeness` is an identifier, not `LIKE ness`.
        let text = "Q() :- Author(a, n1), Author(a, ness), n1 likeness";
        assert!(matches!(
            parse_query(text),
            Err(QueryError::Parse { message, position })
                if message.contains("comparison operator") && position == text.len() - 8
        ));
        assert!(parse_query("Q() :- Author(a, n), n like_x 'a'").is_err());
        // A variable may still be called `like`, and `<>` / `!=` are one
        // operator.
        let q = parse_query("Q() :- R(like, x), like != x, x <> 3").unwrap();
        assert_eq!(q.comparisons[0].left, Term::var("like"));
        assert_eq!(q.comparisons[0].op, CmpOp::Ne);
        assert_eq!(q.comparisons[1].op, CmpOp::Ne);
    }

    #[test]
    fn names_are_held_inline_up_to_their_capacity() {
        let long = "a".repeat(Name::INLINE + 1);
        let q = parse_query(&format!("Q() :- Rel(x), {long}(x, y), Émile_λ(y)")).unwrap();
        assert!(q.name.is_inline() && q.atoms[0].relation.is_inline());
        assert!(!q.atoms[1].relation.is_inline());
        assert_eq!(q.atoms[1].relation, long.as_str());
        assert_eq!(q.atoms[2].relation, "Émile_λ");
        assert!(Name::new(&"b".repeat(Name::INLINE)).is_inline());
        // One representation per length: content decides equality and order.
        assert_eq!(Name::new(&long), Name::from(long.clone()));
        assert!(Name::new("ab") < Name::new("b") && Name::new(&long) > Name::new("a"));
    }

    #[test]
    fn error_positions_are_offsets_into_the_whole_input() {
        let text = "Q() :- R(x) ; Q() :- S(x) T(x)";
        match parse_ucq(text) {
            Err(QueryError::Parse { message, position }) => {
                assert!(message.contains("trailing"), "{message}");
                assert_eq!(&text[position..], "T(x)");
            }
            other => panic!("{other:?}"),
        }
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
