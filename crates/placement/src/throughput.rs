//! Placement for overall performance (§5.3): find the best (and, for
//! comparison, the worst and random) placements of a workload mix.

use icm_rng::Rng;

use crate::annealing::AnnealConfig;
use crate::error::PlacementError;
use crate::estimator::Estimator;
use crate::goal::{anneal_estimator, SearchGoal};
use crate::state::PlacementState;

/// Configuration for the throughput-placement study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputConfig {
    /// Search configuration for the best placement.
    pub anneal: AnnealConfig,
    /// Number of random placements to average (the paper uses 5).
    pub random_samples: usize,
}

icm_json::impl_json!(struct ThroughputConfig { anneal, random_samples });

impl Default for ThroughputConfig {
    fn default() -> Self {
        Self {
            anneal: AnnealConfig::default(),
            random_samples: 5,
        }
    }
}

/// The placements produced for one mix.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputPlacements {
    /// Best placement per the predictors (minimum weighted total time).
    pub best: PlacementState,
    /// Worst placement (maximum weighted total time) — the Fig. 11
    /// baseline everything is normalized against.
    pub worst: PlacementState,
    /// Random placements.
    pub randoms: Vec<PlacementState>,
}

icm_json::impl_json!(struct ThroughputPlacements { best, worst, randoms });

/// Searches for the best and worst placements and draws random ones.
///
/// "Best" minimizes the predictors' weighted total normalized time;
/// "worst" maximizes it (found with the same annealer on the negated
/// objective). Per §5.3 each application's performance is its speedup
/// over the worst placement, so the worst is the denominator of every
/// Fig. 11 bar.
///
/// # Errors
///
/// Propagates estimation failures.
pub fn find_placements(
    estimator: &Estimator<'_>,
    config: &ThroughputConfig,
) -> Result<ThroughputPlacements, PlacementError> {
    let tracer = icm_obs::Tracer::disabled();
    let best = anneal_estimator(
        estimator,
        SearchGoal::MinWeightedTotal,
        &config.anneal,
        &tracer,
    )?;
    let mut worst_config = config.anneal;
    worst_config.seed = config.anneal.seed.wrapping_add(1);
    let worst = anneal_estimator(
        estimator,
        SearchGoal::MaxWeightedTotal,
        &worst_config,
        &tracer,
    )?;
    let mut rng = Rng::from_seed(config.anneal.seed.wrapping_add(2));
    let randoms = (0..config.random_samples)
        .map(|_| PlacementState::random(estimator.problem(), &mut rng))
        .collect();
    Ok(ThroughputPlacements {
        best: best.state,
        worst: worst.state,
        randoms,
    })
}

/// Weighted average speedup of `times` relative to `worst_times`
/// (the Fig. 11 metric). All workloads carry equal weight because the
/// paper's mixes give every application the same VM count.
///
/// # Panics
///
/// Panics if the slices differ in length, are empty, or contain
/// non-positive times.
pub fn average_speedup(times: &[f64], worst_times: &[f64]) -> f64 {
    assert_eq!(times.len(), worst_times.len(), "length mismatch");
    assert!(!times.is_empty(), "no workloads");
    let total: f64 = times
        .iter()
        .zip(worst_times)
        .map(|(&t, &w)| {
            assert!(t > 0.0 && w > 0.0, "times must be positive");
            w / t
        })
        .sum();
    total / times.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::tests::{fake_predictors, fake_problem};
    use crate::estimator::RuntimePredictor;

    #[test]
    fn best_beats_random_beats_worst() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // Metropolis acceptance: strict hill climbing stalls in an
        // aggressor-herding local optimum on this fixture (see
        // `annealing::tests`), which loses to the random-placement mean.
        let placements = find_placements(
            &estimator,
            &ThroughputConfig {
                anneal: AnnealConfig {
                    iterations: 2000,
                    accept: crate::AcceptRule::Metropolis {
                        initial_temperature: 0.5,
                        cooling: 0.999,
                    },
                    ..AnnealConfig::default()
                },
                random_samples: 5,
            },
        )
        .expect("finds");
        let total = |s: &PlacementState| estimator.estimate(s).expect("estimates").weighted_total;
        let best = total(&placements.best);
        let worst = total(&placements.worst);
        let random_mean =
            placements.randoms.iter().map(total).sum::<f64>() / placements.randoms.len() as f64;
        assert!(best < random_mean, "best {best} < random {random_mean}");
        assert!(random_mean < worst, "random {random_mean} < worst {worst}");
        assert!(worst - best > 0.2, "a meaningful spread must exist");
    }

    #[test]
    fn speedup_metric() {
        let speedup = average_speedup(&[1.0, 2.0], &[2.0, 2.0]);
        assert!((speedup - 1.5).abs() < 1e-12);
        assert_eq!(average_speedup(&[1.5], &[1.5]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn speedup_rejects_mismatch() {
        let _ = average_speedup(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn speedup_rejects_zero_time() {
        let _ = average_speedup(&[0.0], &[1.0]);
    }

    #[test]
    fn deterministic_given_seed() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let config = ThroughputConfig::default();
        let a = find_placements(&estimator, &config).expect("finds");
        let b = find_placements(&estimator, &config).expect("finds");
        assert_eq!(a, b);
    }
}
