//! The annealer's pluggable evaluation interface.
//!
//! The search loop in [`crate::anneal_with`] does not know what it is
//! optimizing; it drives an [`Objective`] through a strict protocol that
//! lets implementations evaluate candidate swaps *incrementally*:
//!
//! 1. [`reset`](Objective::reset) — evaluate a full state from scratch
//!    (random start, warm start);
//! 2. [`probe`](Objective::probe) — evaluate a state that differs from
//!    the last committed state by exactly one slot transposition
//!    `(a, b)`;
//! 3. [`accept`](Objective::accept) / [`reject`](Objective::reject) —
//!    commit or discard the probed move. After `reject` the search has
//!    already undone the transposition, so the committed state is
//!    unchanged.
//!
//! Every search runs through this one protocol:
//! [`crate::IncrementalObjective`] exploits it to touch only the two
//! affected hosts per probe, and the manager's fleet objective prices a
//! whole fleet the same way. The engine's own tests drive hand-built
//! costs and violations through a test-only full-recompute objective,
//! which is also the reference the incremental search is checked
//! against.

use crate::error::PlacementError;
use crate::state::{PlacementConstraints, PlacementProblem, PlacementState};

/// One evaluation of a placement: its objective value and how badly it
/// breaks the feasibility constraint (`0.0` = feasible).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Eval {
    /// Objective value (lower is better).
    pub cost: f64,
    /// Constraint violation magnitude (`0.0` = feasible).
    pub violation: f64,
}

/// A placement objective the annealer can drive move-by-move.
///
/// The call protocol: [`reset`](Self::reset) evaluates a full state,
/// [`probe`](Self::probe) a state one slot transposition from the
/// committed one, and [`accept`](Self::accept) or
/// [`reject`](Self::reject) settles the probed move. Implementations
/// may keep caches keyed on the committed state; the annealer guarantees
/// `probe` is only ever called on a state one transposition away from
/// the last committed one, and that every `probe` is followed by exactly
/// one `accept` or `reject` before the next `probe`; it may `reset`
/// between moves. The search memoizes probes, so `probe` must return
/// the bits `reset` would for the same state: `probe(s, a, b)` and
/// `probe(s, b, a)` agree (debug builds check each memo hit).
pub trait Objective {
    /// Evaluates `state` from scratch and makes it the committed state.
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures ([`PlacementError`]).
    fn reset(&mut self, state: &PlacementState) -> Result<Eval, PlacementError>;

    /// Evaluates `state`, which differs from the committed state by
    /// exactly the transposition of slots `a` and `b` (already applied).
    ///
    /// # Errors
    ///
    /// Propagates evaluation failures ([`PlacementError`]).
    fn probe(&mut self, state: &PlacementState, a: usize, b: usize)
        -> Result<Eval, PlacementError>;

    /// The probed move was accepted: the probed state is now committed.
    fn accept(&mut self) {}

    /// The probed move was rejected and undone; the committed state is
    /// unchanged.
    fn reject(&mut self) {}
}

/// Adds [`PlacementConstraints`] exclusion breaches to an inner
/// objective's violation — how [`crate::re_anneal_with`] prices its
/// constraints, factored out so every objective composes with them.
pub(crate) struct Constrained<'a, O> {
    inner: O,
    problem: &'a PlacementProblem,
    constraints: &'a PlacementConstraints,
}

impl<'a, O: Objective> Constrained<'a, O> {
    pub(crate) fn new(
        inner: O,
        problem: &'a PlacementProblem,
        constraints: &'a PlacementConstraints,
    ) -> Self {
        Self {
            inner,
            problem,
            constraints,
        }
    }
}

impl<O: Objective> Objective for Constrained<'_, O> {
    fn reset(&mut self, state: &PlacementState) -> Result<Eval, PlacementError> {
        let mut eval = self.inner.reset(state)?;
        eval.violation += self.constraints.violation(self.problem, state);
        Ok(eval)
    }

    fn probe(
        &mut self,
        state: &PlacementState,
        a: usize,
        b: usize,
    ) -> Result<Eval, PlacementError> {
        let mut eval = self.inner.probe(state, a, b)?;
        eval.violation += self.constraints.violation(self.problem, state);
        Ok(eval)
    }

    fn accept(&mut self) {
        self.inner.accept();
    }

    fn reject(&mut self) {
        self.inner.reject();
    }
}

/// The test-only reference objective: a cost closure and a violation
/// closure, both recomputed from scratch on every probe. Engine tests
/// use it for hand-built landscapes (plateau noise, always-infeasible
/// states, flat or failing costs), and the incremental search is checked
/// bit for bit against it.
#[cfg(test)]
pub(crate) mod reference {
    use super::*;

    pub(crate) struct FullRecompute<C, V> {
        cost: C,
        violation: V,
    }

    impl<C, V> FullRecompute<C, V>
    where
        C: Fn(&PlacementState) -> Result<f64, PlacementError>,
        V: Fn(&PlacementState) -> Result<f64, PlacementError>,
    {
        pub(crate) fn new(cost: C, violation: V) -> Self {
            Self { cost, violation }
        }
    }

    impl<C, V> Objective for FullRecompute<C, V>
    where
        C: Fn(&PlacementState) -> Result<f64, PlacementError>,
        V: Fn(&PlacementState) -> Result<f64, PlacementError>,
    {
        fn reset(&mut self, state: &PlacementState) -> Result<Eval, PlacementError> {
            Ok(Eval {
                cost: (self.cost)(state)?,
                violation: (self.violation)(state)?,
            })
        }

        fn probe(
            &mut self,
            state: &PlacementState,
            _a: usize,
            _b: usize,
        ) -> Result<Eval, PlacementError> {
            self.reset(state)
        }
    }

    /// [`crate::anneal_with`] over a [`FullRecompute`] objective built
    /// from the two closures.
    pub(crate) fn anneal_full_recompute<C, V>(
        problem: &PlacementProblem,
        cost: C,
        violation: V,
        config: &crate::AnnealConfig,
        tracer: &icm_obs::Tracer,
    ) -> Result<crate::AnnealResult, PlacementError>
    where
        C: Fn(&PlacementState) -> Result<f64, PlacementError>,
        V: Fn(&PlacementState) -> Result<f64, PlacementError>,
    {
        crate::anneal_with(problem, FullRecompute::new(cost, violation), config, tracer)
    }
}
