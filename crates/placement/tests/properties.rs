//! Property-style tests of placement-state invariants and the search,
//! driven by seeded deterministic loops over `icm-rng` (vendored; no
//! external property-testing framework). Each test replays a fixed
//! pseudo-random case list, so a failure reproduces exactly and prints
//! its case index.

use icm_obs::Tracer;
use icm_placement::{
    anneal_estimator, AnnealConfig, Estimator, PlacementError, PlacementProblem, PlacementState,
    RuntimePredictor, SearchGoal,
};
use icm_rng::Rng;

/// Cases per property; the old proptest default was 256.
const CASES: usize = 256;

#[derive(Debug)]
struct LinearPredictor {
    score: f64,
    sensitivity: f64,
}

impl RuntimePredictor for LinearPredictor {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        Ok(1.0 + self.sensitivity * pressures.iter().sum::<f64>() / pressures.len() as f64)
    }

    fn bubble_score(&self) -> f64 {
        self.score
    }

    fn solo_seconds(&self) -> f64 {
        100.0
    }
}

fn paper_problem() -> PlacementProblem {
    PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
        .expect("valid")
}

fn assert_valid(problem: &PlacementProblem, state: &PlacementState) {
    // Reconstructing through the validating constructor must succeed.
    PlacementState::new(problem, state.assignment().to_vec()).expect("state invariant broken");
}

#[test]
fn random_states_always_satisfy_invariants() {
    let mut outer = Rng::from_seed(0x91_0001);
    for case in 0..CASES {
        let seed = outer.next_u64();
        let problem = paper_problem();
        let mut rng = Rng::from_seed(seed);
        let state = PlacementState::random(&problem, &mut rng);
        assert_valid(&problem, &state);
        for w in 0..4 {
            assert_eq!(state.slots_of(w).len(), 4, "case {case}");
            let mut hosts = state.hosts_of(&problem, w);
            hosts.sort_unstable();
            hosts.dedup();
            assert_eq!(
                hosts.len(),
                4,
                "case {case}: workload {w} doubled on a host"
            );
        }
    }
}

#[test]
fn swap_chains_preserve_invariants() {
    let mut outer = Rng::from_seed(0x91_0002);
    for _case in 0..CASES {
        let seed = outer.next_u64();
        let swaps = outer.gen_range(1..40usize);
        let problem = paper_problem();
        let mut rng = Rng::from_seed(seed);
        let mut state = PlacementState::random(&problem, &mut rng);
        for _ in 0..swaps {
            // Up to 32 attempts at a valid swap, two slots drawn each.
            for _ in 0..32 {
                let a = rng.gen_range(0..problem.slots());
                let b = rng.gen_range(0..problem.slots());
                if let Some(next) = state.swap(&problem, a, b) {
                    state = next;
                    break;
                }
            }
        }
        assert_valid(&problem, &state);
    }
}

#[test]
fn search_never_returns_worse_than_its_start_population() {
    let mut outer = Rng::from_seed(0x91_0003);
    // The search is the expensive path; 64 cases of 200 iterations each.
    for case in 0..CASES / 4 {
        let seed = outer.next_u64();
        let scores: Vec<f64> = (0..4).map(|_| outer.gen_f64_range(0.1, 6.0)).collect();
        let sens: Vec<f64> = (0..4).map(|_| outer.gen_f64_range(0.0, 0.3)).collect();
        let problem = paper_problem();
        let predictors: Vec<LinearPredictor> = scores
            .iter()
            .zip(&sens)
            .map(|(&score, &sensitivity)| LinearPredictor { score, sensitivity })
            .collect();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let result = anneal_estimator(
            &estimator,
            SearchGoal::MinWeightedTotal,
            &AnnealConfig {
                iterations: 200,
                seed,
                ..AnnealConfig::default()
            },
            &Tracer::disabled(),
        )
        .expect("search runs");
        assert_valid(&problem, &result.state);
        // The returned cost matches re-evaluating the returned state.
        let recheck = estimator
            .estimate(&result.state)
            .expect("estimates")
            .weighted_total;
        assert!(
            (recheck - result.cost).abs() < 1e-9,
            "case {case}: cost {} does not re-evaluate ({recheck})",
            result.cost
        );
        // And a fresh random state (same seed stream) is never better
        // than the search outcome by more than floating noise.
        let mut rng = Rng::from_seed(seed);
        let start = PlacementState::random(&problem, &mut rng);
        let start_cost = estimator
            .estimate(&start)
            .expect("estimates")
            .weighted_total;
        assert!(
            result.cost <= start_cost + 1e-9,
            "case {case}: search ({}) worse than its own start ({start_cost})",
            result.cost
        );
    }
}

#[test]
fn pressures_reference_actual_corunners() {
    let mut outer = Rng::from_seed(0x91_0004);
    for case in 0..CASES {
        let seed = outer.next_u64();
        let problem = paper_problem();
        let predictors = [
            LinearPredictor {
                score: 1.0,
                sensitivity: 0.1,
            },
            LinearPredictor {
                score: 2.0,
                sensitivity: 0.1,
            },
            LinearPredictor {
                score: 3.0,
                sensitivity: 0.1,
            },
            LinearPredictor {
                score: 4.0,
                sensitivity: 0.1,
            },
        ];
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let mut rng = Rng::from_seed(seed);
        let state = PlacementState::random(&problem, &mut rng);
        for w in 0..4 {
            let pressures = estimator.pressures_for(&state, w);
            assert_eq!(pressures.len(), 4, "case {case}");
            for (slot, pressure) in state.slots_of(w).into_iter().zip(&pressures) {
                match state.corunner_at(&problem, slot) {
                    Some(other) => {
                        assert!(
                            (pressure - (other as f64 + 1.0)).abs() < 1e-12,
                            "case {case}: pressure must equal the co-runner's score"
                        );
                    }
                    None => assert_eq!(*pressure, 0.0, "case {case}"),
                }
            }
        }
    }
}

/// A predictor that reads both the worst and the mean pressure, so its
/// answer depends on every entry of the pressure vector and on the
/// order the mean sums them in.
struct PeakMeanPredictor {
    score: f64,
    sensitivity: f64,
}

impl RuntimePredictor for PeakMeanPredictor {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        let peak = pressures.iter().cloned().fold(0.0f64, f64::max);
        let mean = pressures.iter().sum::<f64>() / pressures.len() as f64;
        Ok(1.0 + self.sensitivity * (0.6 * peak + 0.4 * mean))
    }

    fn bubble_score(&self) -> f64 {
        self.score
    }

    fn solo_seconds(&self) -> f64 {
        50.0 + 10.0 * self.score
    }
}

/// `state` with its hosts relabelled: host `h`'s whole slot block moves
/// to host `perm[h]`, keeping its slot order.
fn relabel_hosts(
    problem: &PlacementProblem,
    state: &PlacementState,
    perm: &[usize],
) -> PlacementState {
    let per_host = problem.slots_per_host();
    let mut assignment = vec![0; state.assignment().len()];
    for (h, &to) in perm.iter().enumerate() {
        assignment[to * per_host..(to + 1) * per_host]
            .copy_from_slice(&state.assignment()[h * per_host..(h + 1) * per_host]);
    }
    PlacementState::new(problem, assignment).expect("a relabelled state stays valid")
}

/// Relabelling hosts changes no goal's evaluation: the estimator's cost
/// is invariant under host permutation, on the paper's 8×2 shape and on
/// a 4×3 shape whose slots see two co-runners each. A workload's
/// pressures come out in a different order, so its mean may differ in
/// the last bits: costs and violations are compared to 1e-12 relative,
/// and the share of bit-exact cases is printed.
#[test]
fn host_relabelling_leaves_every_goal_unchanged() {
    let mut outer = Rng::from_seed(0x91_0005);
    let names = || vec!["a".into(), "b".into(), "c".into(), "d".into()];
    let shapes = [
        paper_problem(),
        PlacementProblem::new(4, 3, names()).expect("valid"),
    ];
    let goals = [
        SearchGoal::MinWeightedTotal,
        SearchGoal::MaxWeightedTotal,
        SearchGoal::MinWaste,
        SearchGoal::Qos {
            target: 0,
            max_normalized: 1.25,
        },
        SearchGoal::Qos {
            target: 3,
            max_normalized: 1.05,
        },
    ];
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * a.abs().max(b.abs());
    let (mut compared, mut exact) = (0usize, 0usize);
    for problem in &shapes {
        for case in 0..CASES / 4 {
            let predictors: Vec<PeakMeanPredictor> = (0..4)
                .map(|_| PeakMeanPredictor {
                    score: outer.gen_f64_range(0.1, 7.0),
                    sensitivity: outer.gen_f64_range(0.0, 0.3),
                })
                .collect();
            let refs: Vec<&dyn RuntimePredictor> = predictors
                .iter()
                .map(|p| p as &dyn RuntimePredictor)
                .collect();
            let estimator = Estimator::new(problem, refs).expect("valid");
            let mut rng = Rng::from_seed(outer.next_u64());
            let state = PlacementState::random(problem, &mut rng);
            let mut perm: Vec<usize> = (0..problem.hosts()).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, rng.gen_range(0..i + 1));
            }
            let relabelled = relabel_hosts(problem, &state, &perm);
            for goal in goals {
                let original = goal.eval(&estimator, &state).expect("evaluates");
                let moved = goal.eval(&estimator, &relabelled).expect("evaluates");
                assert!(
                    close(original.cost, moved.cost),
                    "case {case} {goal:?} under {perm:?}: cost {} vs {}",
                    original.cost,
                    moved.cost
                );
                assert!(
                    close(original.violation, moved.violation),
                    "case {case} {goal:?} under {perm:?}: violation {} vs {}",
                    original.violation,
                    moved.violation
                );
                compared += 1;
                if original.cost.to_bits() == moved.cost.to_bits()
                    && original.violation.to_bits() == moved.violation.to_bits()
                {
                    exact += 1;
                }
            }
        }
    }
    println!("host relabelling: {exact} of {compared} evaluations bit-exact");
}
