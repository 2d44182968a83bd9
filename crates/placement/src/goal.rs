//! The placement goals the crate's entry points search for, each priced
//! by one full evaluation of the state through the [`Estimator`].

use crate::annealing::{anneal_with, AnnealConfig, AnnealResult};
use crate::energy::estimate_waste;
use crate::error::PlacementError;
use crate::estimator::Estimator;
use crate::objective::Eval;
use crate::state::PlacementState;

/// What an estimator-backed search optimizes — the placement goals the
/// crate's entry points search for, expressed as data so they all share
/// one evaluation ([`SearchGoal::eval`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SearchGoal {
    /// Minimize the weighted total normalized runtime (the §5.3 "best"
    /// placement, [`crate::find_placements`]).
    MinWeightedTotal,
    /// Maximize the weighted total (the §5.3 "worst" placement — run as
    /// minimization of the negated total).
    MaxWeightedTotal,
    /// Minimize predicted wasted node-seconds
    /// ([`crate::place_min_waste`]).
    MinWaste,
    /// Minimize the weighted total subject to the §5.2 QoS constraint on
    /// one target workload ([`crate::place_qos`]).
    Qos {
        /// Workload index the QoS guarantee applies to.
        target: usize,
        /// Maximum allowed normalized runtime of the target.
        max_normalized: f64,
    },
}

impl SearchGoal {
    fn validate(self, estimator: &Estimator<'_>) -> Result<(), PlacementError> {
        if let SearchGoal::Qos {
            target,
            max_normalized,
        } = self
        {
            let workloads = estimator.problem().workloads().len();
            if target >= workloads {
                return Err(PlacementError::Predictor(format!(
                    "QoS target index {target} out of range ({workloads} workloads)"
                )));
            }
            if !(max_normalized.is_finite() && max_normalized > 0.0) {
                return Err(PlacementError::Predictor(format!(
                    "QoS bound must be positive and finite, got {max_normalized}"
                )));
            }
        }
        Ok(())
    }

    /// Prices `state` under this goal: its cost through
    /// [`Estimator::estimate`] (or [`estimate_waste`] for
    /// [`MinWaste`](Self::MinWaste)) and, for [`Qos`](Self::Qos), the
    /// target's excess over its bound as the violation. A pure function
    /// of the assignment, as the search's memo requires.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Predictor`] for an out-of-range QoS
    /// target or a degenerate QoS bound; propagates predictor failures.
    pub fn eval(
        self,
        estimator: &Estimator<'_>,
        state: &PlacementState,
    ) -> Result<Eval, PlacementError> {
        self.validate(estimator)?;
        let feasible = |cost| Eval {
            cost,
            violation: 0.0,
        };
        Ok(match self {
            SearchGoal::MinWeightedTotal => feasible(estimator.estimate(state)?.weighted_total),
            SearchGoal::MaxWeightedTotal => feasible(-estimator.estimate(state)?.weighted_total),
            SearchGoal::MinWaste => feasible(estimate_waste(estimator, state)?.total_wasted),
            SearchGoal::Qos {
                target,
                max_normalized,
            } => {
                let estimate = estimator.estimate(state)?;
                Eval {
                    cost: estimate.weighted_total,
                    violation: (estimate.normalized_times[target] - max_normalized).max(0.0),
                }
            }
        })
    }
}

/// Runs the annealing search over an estimator-backed [`SearchGoal`],
/// pricing every candidate with [`SearchGoal::eval`] — the search behind
/// [`crate::place_qos`], [`crate::place_min_waste`] and
/// [`crate::find_placements`], exposed for callers that bring their own
/// [`AnnealConfig`].
///
/// # Errors
///
/// Returns [`PlacementError::Predictor`] for an invalid QoS goal;
/// propagates predictor failures.
pub fn anneal_estimator(
    estimator: &Estimator<'_>,
    goal: SearchGoal,
    config: &AnnealConfig,
    tracer: &icm_obs::Tracer,
) -> Result<AnnealResult, PlacementError> {
    anneal_with(
        estimator.problem(),
        |state| goal.eval(estimator, state),
        config,
        tracer,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests::{fake_predictors, fake_problem, FakePredictor};
    use crate::estimator::RuntimePredictor;
    use crate::state::PlacementProblem;
    use icm_obs::Tracer;
    use icm_rng::Rng;

    fn goals_for(workloads: usize) -> Vec<SearchGoal> {
        vec![
            SearchGoal::MinWeightedTotal,
            SearchGoal::MaxWeightedTotal,
            SearchGoal::MinWaste,
            SearchGoal::Qos {
                target: 0,
                max_normalized: 1.25,
            },
            SearchGoal::Qos {
                target: workloads - 1,
                max_normalized: 1.05,
            },
        ]
    }

    /// The paper's 8×2 shape, and a 4×3 shape whose slots see two
    /// co-runners each, with their predictors.
    fn shapes() -> Vec<(PlacementProblem, Vec<FakePredictor>)> {
        let base = fake_predictors();
        let wide = vec![
            base[0].clone(),
            base[1].clone(),
            FakePredictor {
                score: 0.7,
                sensitivity: 0.10,
                coupled: true,
            },
            base[3].clone(),
        ];
        let names = vec!["a".into(), "b".into(), "c".into(), "d".into()];
        vec![
            (fake_problem(), base),
            (PlacementProblem::new(4, 3, names).expect("valid"), wide),
        ]
    }

    /// A seeded chain of states, each one valid swap from the last.
    fn swap_chain(problem: &PlacementProblem, seed: u64, moves: usize) -> Vec<PlacementState> {
        let host_of: Vec<usize> = (0..problem.slots())
            .map(|s| problem.host_of_slot(s))
            .collect();
        let mut rng = Rng::from_seed(seed);
        let mut state = PlacementState::random(problem, &mut rng);
        let mut chain = vec![state.clone()];
        for _ in 0..moves {
            if let Some((a, b)) = state.random_swap_indices(problem, &host_of, &mut rng, 32, None) {
                state.swap_in_place(a, b);
                chain.push(state.clone());
            }
        }
        chain
    }

    fn bits(eval: Eval) -> (u64, u64) {
        (eval.cost.to_bits(), eval.violation.to_bits())
    }

    /// The search memo answers a redrawn neighbour with the bits it was
    /// first priced at, so `eval` of a state must not depend on which
    /// states were evaluated before it: along seeded swap chains, every
    /// goal prices each state the same in chain order and in reverse.
    #[test]
    fn eval_is_a_pure_function_of_the_state() {
        for (problem, predictors) in shapes() {
            let refs: Vec<&dyn RuntimePredictor> = predictors
                .iter()
                .map(|p| p as &dyn RuntimePredictor)
                .collect();
            let estimator = Estimator::new(&problem, refs).expect("valid");
            for goal in goals_for(problem.workloads().len()) {
                for seed in [1u64, 42, 2016] {
                    let chain = swap_chain(&problem, seed, 200);
                    assert!(chain.len() > 100, "the chain barely moved");
                    let price = |s: &PlacementState| bits(goal.eval(&estimator, s).expect("eval"));
                    let forward: Vec<_> = chain.iter().map(price).collect();
                    let mut backward: Vec<_> = chain.iter().rev().map(price).collect();
                    backward.reverse();
                    assert_eq!(forward, backward, "{goal:?} at seed {seed}");
                }
            }
        }
    }

    #[test]
    fn invalid_qos_goals_are_rejected() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let state = PlacementState::random(&problem, &mut Rng::from_seed(1));
        let out_of_range = SearchGoal::Qos {
            target: 99,
            max_normalized: 1.2,
        }
        .eval(&estimator, &state);
        assert!(matches!(out_of_range, Err(PlacementError::Predictor(_))));
        let bad_bound = anneal_estimator(
            &estimator,
            SearchGoal::Qos {
                target: 0,
                max_normalized: f64::NAN,
            },
            &AnnealConfig::default(),
            &Tracer::disabled(),
        );
        assert!(matches!(bad_bound, Err(PlacementError::Predictor(_))));
    }
}
