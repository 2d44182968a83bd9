//! Exhaustive placement enumeration for small problems — the oracle the
//! stochastic search is tested against.

use crate::error::PlacementError;
use crate::objective::Eval;
use crate::state::{PlacementProblem, PlacementState};

/// Upper bound on enumerated states before giving up: beyond this the
/// space is too large for an oracle (8 hosts × 2 slots × 4 workloads has
/// ~63M multiset permutations).
pub const ENUMERATION_LIMIT: usize = 2_000_000;

/// Enumerates every valid placement of the problem, invoking `visit` on
/// each.
///
/// # Errors
///
/// Returns [`PlacementError::Search`] if the space exceeds
/// [`ENUMERATION_LIMIT`].
pub fn for_each_placement<F>(
    problem: &PlacementProblem,
    mut visit: F,
) -> Result<usize, PlacementError>
where
    F: FnMut(&PlacementState),
{
    let slots = problem.slots();
    let workloads = problem.workloads().len();
    let per = problem.slots_per_workload();
    let mut remaining = vec![per; workloads];
    let mut assignment = vec![usize::MAX; slots];
    let mut count = 0usize;
    fill(
        problem,
        0,
        &mut assignment,
        &mut remaining,
        &mut count,
        &mut visit,
    )?;
    Ok(count)
}

fn fill<F>(
    problem: &PlacementProblem,
    slot: usize,
    assignment: &mut Vec<usize>,
    remaining: &mut Vec<usize>,
    count: &mut usize,
    visit: &mut F,
) -> Result<(), PlacementError>
where
    F: FnMut(&PlacementState),
{
    if slot == problem.slots() {
        *count += 1;
        if *count > ENUMERATION_LIMIT {
            return Err(PlacementError::Search(format!(
                "placement space exceeds the {ENUMERATION_LIMIT}-state enumeration limit"
            )));
        }
        let state = PlacementState::new(problem, assignment.clone())
            .expect("enumeration only constructs valid states");
        visit(&state);
        return Ok(());
    }
    let host = problem.host_of_slot(slot);
    let host_base = host * problem.slots_per_host();
    for w in 0..remaining.len() {
        if remaining[w] == 0 {
            continue;
        }
        // No same-workload doubling within the host.
        if assignment[host_base..slot].contains(&w) {
            continue;
        }
        assignment[slot] = w;
        remaining[w] -= 1;
        fill(problem, slot + 1, assignment, remaining, count, visit)?;
        remaining[w] += 1;
        assignment[slot] = usize::MAX;
    }
    Ok(())
}

/// Finds by brute force the placement the annealer looks for, priced by
/// the same evaluation closure: the least `(violation, cost)` in
/// lexicographic order — the cheapest feasible placement when one
/// exists, else the least violating one. Ties keep the first placement
/// enumerated.
///
/// # Errors
///
/// Returns [`PlacementError::Search`] if the space is too large or
/// empty; propagates the first evaluation failure.
pub fn exhaustive_best<E>(
    problem: &PlacementProblem,
    mut evaluate: E,
) -> Result<(PlacementState, Eval), PlacementError>
where
    E: FnMut(&PlacementState) -> Result<Eval, PlacementError>,
{
    let mut best: Option<(PlacementState, Eval)> = None;
    let mut failure = None;
    for_each_placement(problem, |state| {
        if failure.is_some() {
            return;
        }
        match evaluate(state) {
            Ok(e) => {
                let better = best.as_ref().is_none_or(|(_, b)| {
                    e.violation < b.violation || (e.violation == b.violation && e.cost < b.cost)
                });
                if better {
                    best = Some((state.clone(), e));
                }
            }
            Err(err) => failure = Some(err),
        }
    })?;
    if let Some(err) = failure {
        return Err(err);
    }
    best.ok_or_else(|| PlacementError::Search("no valid placement exists".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_problem() -> PlacementProblem {
        // 4 hosts × 2 slots, 2 workloads × 4 slots.
        PlacementProblem::new(4, 2, vec!["A".into(), "B".into()]).expect("valid")
    }

    #[test]
    fn enumeration_count_matches_combinatorics() {
        // Each host must hold {A, B} in one of 2 orders (doubling is
        // forbidden since both workloads need 4 of 8 slots and no host
        // can hold two As)... per host 2 orderings → 2^4 = 16 states.
        let n = for_each_placement(&small_problem(), |_| {}).expect("enumerates");
        assert_eq!(n, 16);
    }

    #[test]
    fn enumerated_states_are_valid_and_unique() {
        let problem = small_problem();
        let mut seen = std::collections::HashSet::new();
        for_each_placement(&problem, |state| {
            assert!(seen.insert(state.assignment().to_vec()), "duplicate state");
        })
        .expect("enumerates");
        assert_eq!(seen.len(), 16);
    }

    /// Number of hosts whose first slot holds workload `w`.
    fn leading(s: &PlacementState, w: usize) -> f64 {
        (0..4).filter(|&h| s.workload_at(h * 2) == w).count() as f64
    }

    #[test]
    fn exhaustive_best_finds_the_optimum() {
        let problem = small_problem();
        // Cost: number of hosts where workload 0 sits in the first slot
        // — minimized when A is always second.
        let (state, eval) = exhaustive_best(&problem, |s| {
            Ok(Eval {
                cost: leading(s, 0),
                violation: 0.0,
            })
        })
        .expect("finds");
        assert_eq!(eval.cost, 0.0);
        for h in 0..4 {
            assert_eq!(state.workload_at(h * 2), 1);
        }
    }

    #[test]
    fn exhaustive_best_prefers_feasibility_over_cost() {
        let problem = small_problem();
        // The same cost, but A leading on fewer than three hosts is a
        // violation: the cheapest state is infeasible, so the oracle
        // must return the cheapest feasible one (A leading on three).
        let (state, eval) = exhaustive_best(&problem, |s| {
            Ok(Eval {
                cost: leading(s, 0),
                violation: (3.0 - leading(s, 0)).max(0.0),
            })
        })
        .expect("finds");
        assert_eq!((eval.cost, eval.violation), (3.0, 0.0));
        assert_eq!(leading(&state, 0), 3.0);
    }

    #[test]
    fn exhaustive_best_propagates_evaluation_errors() {
        let result = exhaustive_best(&small_problem(), |_| {
            Err(PlacementError::Predictor("boom".into()))
        });
        assert!(matches!(result, Err(PlacementError::Predictor(_))));
    }

    #[test]
    fn three_workload_problem_enumerates() {
        // 3 hosts × 2 slots, 3 workloads × 2 slots each.
        let problem =
            PlacementProblem::new(3, 2, vec!["A".into(), "B".into(), "C".into()]).expect("valid");
        let n = for_each_placement(&problem, |_| {}).expect("enumerates");
        assert!(n > 0);
        // Cross-check against a direct filter over all multiset
        // permutations.
        let mut brute = 0;
        let mut assignment = vec![0usize; 6];
        fn rec(
            assignment: &mut Vec<usize>,
            idx: usize,
            brute: &mut usize,
            problem: &PlacementProblem,
        ) {
            if idx == 6 {
                if PlacementState::new(problem, assignment.clone()).is_ok() {
                    *brute += 1;
                }
                return;
            }
            for w in 0..3 {
                assignment[idx] = w;
                rec(assignment, idx + 1, brute, problem);
            }
        }
        rec(&mut assignment, 0, &mut brute, &problem);
        assert_eq!(n, brute);
    }
}
