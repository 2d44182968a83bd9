//! What the annealer minimizes: one evaluation of a placement.
//!
//! The search loop in [`crate::anneal_with`] does not know what it is
//! optimizing. It prices each candidate by calling one evaluation
//! closure, `FnMut(&PlacementState) -> Result<Eval, PlacementError>`,
//! on the candidate state, and keeps only the returned [`Eval`].
//!
//! Every search runs through that one closure: the estimator goals pass
//! [`crate::SearchGoal::eval`] (see [`crate::anneal_estimator`]), the
//! manager and the daemon pass their fleet objective's `eval`, and
//! [`crate::exhaustive::exhaustive_best`] prices its enumeration the
//! same way. The search memoizes the neighbours it priced since the
//! last accepted move, so the closure must be a pure function of the
//! assignment: it may keep scratch buffers and caches, but never state
//! that changes its answer.

/// One evaluation of a placement: its objective value and how badly it
/// breaks the feasibility constraint (`0.0` = feasible).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Eval {
    /// Objective value (lower is better).
    pub cost: f64,
    /// Constraint violation magnitude (`0.0` = feasible).
    pub violation: f64,
}
