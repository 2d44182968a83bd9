//! Energy / wasted-CPU accounting — the use case sketched in the paper's
//! conclusion: "the proposed model can be used for the overall energy
//! reduction to minimize the wasted CPU resources, when interference in
//! some nodes is unavoidable".
//!
//! Interference does not just delay applications; every slowed node
//! burns CPU-time producing nothing. For a workload occupying `s` slots
//! with an interference-free runtime of `T` seconds, running at a
//! normalized time of `t ≥ 1` wastes `s × T × (t − 1)` node-seconds.
//! Minimizing the cluster-wide waste is a placement objective like any
//! other, so the same annealer applies.

use crate::annealing::{AnnealConfig, AnnealResult};
use crate::error::PlacementError;
use crate::estimator::Estimator;
use crate::goal::{anneal_estimator, SearchGoal};
use crate::state::PlacementState;

/// Energy accounting for one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyEstimate {
    /// Wasted node-seconds per workload instance (problem order).
    pub wasted_per_workload: Vec<f64>,
    /// Total wasted node-seconds across the cluster.
    pub total_wasted: f64,
}

icm_json::impl_json!(struct EnergyEstimate { wasted_per_workload, total_wasted });

/// Predicts the node-seconds wasted to interference under `state`.
///
/// # Errors
///
/// Propagates predictor failures.
pub fn estimate_waste(
    estimator: &Estimator<'_>,
    state: &PlacementState,
) -> Result<EnergyEstimate, PlacementError> {
    let estimate = estimator.estimate(state)?;
    let slots = estimator.problem().slots_per_workload() as f64;
    let wasted_per_workload: Vec<f64> = estimate
        .normalized_times
        .iter()
        .enumerate()
        .map(|(w, &t)| {
            let solo = estimator.predictor(w).solo_seconds();
            slots * solo * (t - 1.0).max(0.0)
        })
        .collect();
    let total_wasted = wasted_per_workload.iter().sum();
    Ok(EnergyEstimate {
        wasted_per_workload,
        total_wasted,
    })
}

/// Searches for the placement minimizing predicted wasted node-seconds.
///
/// # Errors
///
/// Propagates estimation and search failures.
pub fn place_min_waste(
    estimator: &Estimator<'_>,
    config: &AnnealConfig,
) -> Result<AnnealResult, PlacementError> {
    anneal_estimator(
        estimator,
        SearchGoal::MinWaste,
        config,
        &icm_obs::Tracer::disabled(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests::{fake_predictors, fake_problem};
    use crate::estimator::RuntimePredictor;
    use icm_rng::Rng;

    fn estimator_fixture() -> (
        crate::PlacementProblem,
        Vec<crate::estimator::tests::FakePredictor>,
    ) {
        (fake_problem(), fake_predictors())
    }

    #[test]
    fn waste_is_zero_without_interference_cost() {
        let (problem, _) = estimator_fixture();
        // Predictors that never slow down.
        struct Free;
        impl RuntimePredictor for Free {
            fn predict_normalized(&self, _: &[f64]) -> Result<f64, PlacementError> {
                Ok(1.0)
            }
            fn bubble_score(&self) -> f64 {
                0.0
            }
            fn solo_seconds(&self) -> f64 {
                100.0
            }
        }
        let frees = [Free, Free, Free, Free];
        let refs: Vec<&dyn RuntimePredictor> = frees.iter().map(|p| p as _).collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let mut rng = Rng::from_seed(1);
        let state = PlacementState::random(&problem, &mut rng);
        let waste = estimate_waste(&estimator, &state).expect("estimates");
        assert_eq!(waste.total_wasted, 0.0);
    }

    #[test]
    fn waste_scales_with_slowdown_solo_and_slots() {
        let (problem, predictors) = estimator_fixture();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let state = PlacementState::new(
            &problem,
            vec![0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3],
        )
        .expect("valid");
        let estimate = estimator.estimate(&state).expect("estimates");
        let waste = estimate_waste(&estimator, &state).expect("estimates");
        // Workload 0: t = 2.2, solo 100 s, 4 slots → 480 wasted.
        let expected0 = 4.0 * 100.0 * (estimate.normalized_times[0] - 1.0);
        assert!((waste.wasted_per_workload[0] - expected0).abs() < 1e-9);
        assert!((waste.total_wasted - waste.wasted_per_workload.iter().sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn min_waste_placement_beats_random() {
        let (problem, predictors) = estimator_fixture();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // Metropolis acceptance: the max-coupled sensitive workload makes
        // strict hill climbing stall in an aggressor-herding local
        // optimum (see `annealing::tests`), which random placements can
        // actually beat on average.
        let result = place_min_waste(
            &estimator,
            &AnnealConfig {
                iterations: 1500,
                accept: crate::AcceptRule::Metropolis {
                    initial_temperature: 50.0,
                    cooling: 0.999,
                },
                ..AnnealConfig::default()
            },
        )
        .expect("search runs");
        let mut rng = Rng::from_seed(7);
        let mut random_total = 0.0;
        for _ in 0..10 {
            let state = PlacementState::random(&problem, &mut rng);
            random_total += estimate_waste(&estimator, &state)
                .expect("estimates")
                .total_wasted;
        }
        let random_mean = random_total / 10.0;
        assert!(
            result.cost < random_mean,
            "min-waste ({}) must beat random ({random_mean})",
            result.cost
        );
    }
}
