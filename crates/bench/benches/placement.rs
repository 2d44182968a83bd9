//! Benchmarks of the placement machinery: estimate throughput and
//! annealing-search cost at the paper's problem size.

use icm_bench::{black_box, Bench};
use icm_placement::{
    anneal_estimator, AnnealConfig, Estimator, PlacementError, PlacementProblem, PlacementState,
    RuntimePredictor, SearchGoal,
};
use icm_rng::Rng;

struct Synthetic {
    score: f64,
    sensitivity: f64,
}

impl RuntimePredictor for Synthetic {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        let max = pressures.iter().cloned().fold(0.0f64, f64::max);
        let mean = pressures.iter().sum::<f64>() / pressures.len() as f64;
        Ok(1.0 + self.sensitivity * (0.7 * max + 0.3 * mean))
    }

    fn bubble_score(&self) -> f64 {
        self.score
    }

    fn solo_seconds(&self) -> f64 {
        100.0
    }
}

fn predictors() -> Vec<Synthetic> {
    vec![
        Synthetic {
            score: 4.3,
            sensitivity: 0.12,
        },
        Synthetic {
            score: 6.6,
            sensitivity: 0.03,
        },
        Synthetic {
            score: 0.2,
            sensitivity: 0.05,
        },
        Synthetic {
            score: 3.9,
            sensitivity: 0.15,
        },
    ]
}

fn main() {
    let mut b = Bench::from_args();

    let problem =
        PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
            .expect("valid");
    let preds = predictors();
    let refs: Vec<&dyn RuntimePredictor> = preds.iter().map(|p| p as _).collect();
    let estimator = Estimator::new(&problem, refs).expect("valid");

    let mut rng = Rng::from_seed(1);
    let state = PlacementState::random(&problem, &mut rng);
    b.bench("placement/estimate_8x2x4", || {
        estimator.estimate(black_box(&state)).expect("estimates")
    });

    // The estimator-goal search every `place_*` entry point runs: each
    // candidate the memo cannot answer is priced by one full `estimate`.
    for iterations in [500usize, 4000] {
        b.bench(&format!("placement/anneal/iterations/{iterations}"), || {
            anneal_estimator(
                &estimator,
                SearchGoal::MinWeightedTotal,
                &AnnealConfig {
                    iterations,
                    ..AnnealConfig::default()
                },
                &icm_obs::Tracer::disabled(),
            )
            .expect("search runs")
        });
    }
}
