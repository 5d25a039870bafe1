//! Error type of the OBDD layer.

use std::fmt;

/// Errors raised while constructing or combining OBDDs.
#[derive(Debug, Clone, PartialEq)]
pub enum ObddError {
    /// Two diagrams could not be combined under the variable order: a
    /// concatenation whose operands' level ranges overlap.
    OrderMismatch,
    /// Two diagrams of different managers were combined. Every operand of
    /// an `apply` or a concatenation must live in one manager.
    ManagerMismatch,
    /// A tuple variable is missing from the variable order.
    UnknownVariable(String),
    /// A fold under a node cap (the query kernel's
    /// `QueryScratch::set_node_cap`) allocated more nodes than the cap
    /// allowed: the lineage has no small OBDD under the current variable
    /// order, and the caller asked for refusal instead of a blow-up.
    /// Approximate backends (Monte Carlo) remain available for such
    /// queries.
    NodeBudgetExceeded {
        /// Arena nodes allocated by the abandoned synthesis.
        allocated: usize,
        /// The budget it exceeded.
        budget: usize,
    },
    /// The synthesis was cut short by its cooperative deadline — see
    /// [`mv_query::EvalBudget`].
    Budget(mv_query::BudgetError),
    /// A query-level error surfaced during construction.
    Query(mv_query::QueryError),
}

impl fmt::Display for ObddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObddError::OrderMismatch => {
                write!(
                    f,
                    "cannot concatenate OBDDs whose level ranges overlap under their variable orders"
                )
            }
            ObddError::ManagerMismatch => {
                write!(f, "cannot combine OBDDs of two different managers")
            }
            ObddError::UnknownVariable(v) => {
                write!(f, "tuple variable {v} is not part of the variable order")
            }
            ObddError::NodeBudgetExceeded { allocated, budget } => write!(
                f,
                "OBDD synthesis refused: allocated {allocated} nodes, exceeding the budget of \
                 {budget} (no small diagram under this variable order; use an approximate backend)"
            ),
            ObddError::Budget(e) => write!(f, "OBDD synthesis abandoned: {e}"),
            ObddError::Query(e) => write!(f, "query error during OBDD construction: {e}"),
        }
    }
}

impl std::error::Error for ObddError {}

impl From<mv_query::QueryError> for ObddError {
    fn from(e: mv_query::QueryError) -> Self {
        ObddError::Query(e)
    }
}

impl From<mv_query::BudgetError> for ObddError {
    fn from(e: mv_query::BudgetError) -> Self {
        ObddError::Budget(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(ObddError::OrderMismatch
            .to_string()
            .contains("variable orders"));
        assert!(ObddError::ManagerMismatch.to_string().contains("managers"));
        assert!(ObddError::UnknownVariable("X7".into())
            .to_string()
            .contains("X7"));
        let refusal = ObddError::NodeBudgetExceeded {
            allocated: 4096,
            budget: 1000,
        };
        assert!(refusal.to_string().contains("4096"));
        assert!(refusal.to_string().contains("refused"));
    }
}
