//! Error type of the query layer.

use std::fmt;

/// Errors raised while parsing or evaluating queries.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryError {
    /// The datalog text could not be parsed.
    Parse {
        /// Human-readable description of the problem.
        message: String,
        /// Byte offset in the input where the problem was detected.
        position: usize,
    },
    /// An atom refers to a relation that is not in the schema.
    UnknownRelation(String),
    /// An atom's arity does not match the relation schema.
    ArityMismatch {
        /// The relation.
        relation: String,
        /// Arity declared in the schema.
        expected: usize,
        /// Arity used in the atom.
        actual: usize,
    },
    /// A head variable does not appear in any atom of the body.
    UnboundHeadVariable(String),
    /// A variable used in a comparison does not appear in any atom.
    UnboundComparisonVariable(String),
    /// The disjuncts of a UCQ do not all have the same head arity.
    MismatchedHeads {
        /// Arity of the first disjunct's head.
        first: usize,
        /// Arity of the offending disjunct's head.
        other: usize,
    },
    /// An operation that requires a Boolean query was given a query with
    /// head variables.
    NotBoolean(String),
    /// A Monte Carlo estimator could not be constructed over the database
    /// (unsatisfiable condition, non-finite tuple probability, …).
    Unsampleable(String),
    /// The evaluation was cut short by its cooperative deadline.
    Budget(crate::budget::BudgetError),
    /// A lower-level database error.
    Pdb(mv_pdb::PdbError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { message, position } => {
                write!(f, "parse error at byte {position}: {message}")
            }
            QueryError::UnknownRelation(r) => write!(f, "unknown relation `{r}` in query"),
            QueryError::ArityMismatch {
                relation,
                expected,
                actual,
            } => write!(
                f,
                "atom over `{relation}` has {actual} terms but the relation has {expected} attributes"
            ),
            QueryError::UnboundHeadVariable(v) => {
                write!(f, "head variable `{v}` does not appear in the query body")
            }
            QueryError::UnboundComparisonVariable(v) => write!(
                f,
                "variable `{v}` appears only in comparison predicates, not in any atom"
            ),
            QueryError::MismatchedHeads { first, other } => write!(
                f,
                "all disjuncts of a UCQ must have the same head arity (found {first} and {other})"
            ),
            QueryError::NotBoolean(name) => {
                write!(f, "query `{name}` has head variables but a Boolean query is required")
            }
            QueryError::Unsampleable(reason) => {
                write!(f, "cannot sample possible worlds: {reason}")
            }
            QueryError::Budget(e) => write!(f, "{e}"),
            QueryError::Pdb(e) => write!(f, "database error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<mv_pdb::PdbError> for QueryError {
    fn from(e: mv_pdb::PdbError) -> Self {
        QueryError::Pdb(e)
    }
}

impl From<crate::budget::BudgetError> for QueryError {
    fn from(e: crate::budget::BudgetError) -> Self {
        QueryError::Budget(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = QueryError::Parse {
            message: "expected `:-`".into(),
            position: 7,
        };
        assert!(e.to_string().contains("7"));
        assert!(QueryError::UnknownRelation("R".into())
            .to_string()
            .contains('R'));
        assert!(QueryError::NotBoolean("Q".into()).to_string().contains('Q'));
    }

    #[test]
    fn pdb_errors_convert() {
        let e: QueryError = mv_pdb::PdbError::UnknownRelation("S".into()).into();
        assert!(matches!(e, QueryError::Pdb(_)));
    }
}
