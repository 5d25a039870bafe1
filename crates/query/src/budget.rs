//! Cooperative deadlines.
//!
//! An [`EvalBudget`] is a `Copy` wall-clock deadline handed to every layer
//! of one evaluation: the vectorized executor polls it before each batch
//! ([`crate::vec_exec`]), OBDD synthesis polls it every 1 024 apply frames
//! or fold steps and between the DNF fold's top-level runs (`mv-obdd`), and the Monte Carlo sampler polls
//! it between sample batches ([`crate::approx`]). Work never stops
//! preemptively: each layer polls at its natural quantum, so a trip
//! surfaces as a typed [`BudgetError`] through the ordinary `Result`
//! channel, and `mv-core` turns it into `CoreError::DeadlineExceeded`.
//! The one work limit is the OBDD store's node cap.

use std::time::{Duration, Instant};

/// Why an evaluation was cut short. Carried by `QueryError::Budget` and
/// `ObddError::Budget`; `mv-core` maps each to `CoreError::DeadlineExceeded`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BudgetError {
    /// The wall-clock deadline passed before the evaluation finished.
    DeadlineExceeded {
        /// Time elapsed since the budget was created.
        elapsed: Duration,
    },
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::DeadlineExceeded { elapsed } => {
                write!(f, "evaluation deadline exceeded after {elapsed:?}")
            }
        }
    }
}

impl std::error::Error for BudgetError {}

/// A wall-clock deadline polled cooperatively by every evaluation layer.
#[derive(Debug, Clone, Copy)]
pub struct EvalBudget {
    started: Instant,
    deadline: Instant,
}

impl EvalBudget {
    /// A budget that expires `deadline` from now.
    pub fn with_deadline(deadline: Duration) -> Self {
        let started = Instant::now();
        EvalBudget {
            started,
            deadline: started + deadline,
        }
    }

    /// Fails once the deadline has passed.
    pub fn check(&self) -> Result<(), BudgetError> {
        if Instant::now() >= self.deadline {
            return Err(BudgetError::DeadlineExceeded {
                elapsed: self.started.elapsed(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expired_deadline_trips_with_elapsed_time() {
        let b = EvalBudget::with_deadline(Duration::ZERO);
        match b.check() {
            Err(BudgetError::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }

    #[test]
    fn generous_deadline_does_not_trip() {
        let b = EvalBudget::with_deadline(Duration::from_secs(3600));
        assert!(b.check().is_ok());
    }
}
