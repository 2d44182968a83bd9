//! Model-driven evaluation of hypothetical placements.

use std::collections::BTreeMap;

use icm_core::{InterferenceModel, NaiveModel};

use crate::error::PlacementError;
use crate::state::{PlacementProblem, PlacementState};

/// Anything that can predict a workload's normalized runtime from the
/// per-unit interference pressures a placement exposes it to.
///
/// Implemented by the paper's [`InterferenceModel`] and by the
/// [`NaiveModel`] baseline, so the placement algorithms can be run with
/// either (Figs. 10 and 11 compare exactly that).
pub trait RuntimePredictor {
    /// Predicted normalized runtime under the given per-unit pressures.
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError>;
    /// The interference intensity this workload exerts on co-located
    /// slots (its bubble score).
    fn bubble_score(&self) -> f64;
    /// Interference-free runtime in seconds (for absolute estimates).
    fn solo_seconds(&self) -> f64;
}

impl RuntimePredictor for InterferenceModel {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        self.try_predict(pressures)
            .map_err(|e| PlacementError::Predictor(e.to_string()))
    }

    fn bubble_score(&self) -> f64 {
        InterferenceModel::bubble_score(self)
    }

    fn solo_seconds(&self) -> f64 {
        InterferenceModel::solo_seconds(self)
    }
}

impl RuntimePredictor for NaiveModel {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        self.try_predict(pressures)
            .map_err(|e| PlacementError::Predictor(e.to_string()))
    }

    fn bubble_score(&self) -> f64 {
        NaiveModel::bubble_score(self)
    }

    fn solo_seconds(&self) -> f64 {
        NaiveModel::solo_seconds(self)
    }
}

/// Predicted outcome of one placement.
#[derive(Debug, Clone, PartialEq)]
pub struct PlacementEstimate {
    /// Predicted normalized runtime per workload instance (problem
    /// order).
    pub normalized_times: Vec<f64>,
    /// VM-count-weighted sum of the normalized runtimes (all workloads
    /// use the same VM count in the paper's mixes, so this is the plain
    /// sum — the Fig. 10 right-axis metric).
    pub weighted_total: f64,
}

icm_json::impl_json!(struct PlacementEstimate { normalized_times, weighted_total });

impl PlacementEstimate {
    /// Mean normalized runtime.
    pub fn mean(&self) -> f64 {
        self.normalized_times.iter().sum::<f64>() / self.normalized_times.len() as f64
    }
}

/// Evaluates placements against a set of per-workload predictors.
///
/// With two slots per host (the paper's configuration), each slot has at
/// most one co-runner and the pressure is simply that co-runner's bubble
/// score. With more slots per host, the co-runners' scores are combined
/// with the §4.4 log-domain rule ([`icm_core::combine_scores`]).
pub struct Estimator<'a> {
    problem: &'a PlacementProblem,
    predictors: Vec<&'a dyn RuntimePredictor>,
}

impl<'a> Estimator<'a> {
    /// Builds an estimator from one predictor per workload instance
    /// (problem order).
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Predictor`] if the count mismatches the
    /// problem's workloads.
    pub fn new(
        problem: &'a PlacementProblem,
        predictors: Vec<&'a dyn RuntimePredictor>,
    ) -> Result<Self, PlacementError> {
        if predictors.len() != problem.workloads().len() {
            return Err(PlacementError::Predictor(format!(
                "need {} predictors, got {}",
                problem.workloads().len(),
                predictors.len()
            )));
        }
        Ok(Self {
            problem,
            predictors,
        })
    }

    /// Convenience constructor: looks predictors up by workload name.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::Predictor`] if a workload has no entry
    /// in the map.
    pub fn from_map<P: RuntimePredictor>(
        problem: &'a PlacementProblem,
        models: &'a BTreeMap<String, P>,
    ) -> Result<Self, PlacementError> {
        let predictors = problem
            .workloads()
            .iter()
            .map(|name| {
                models
                    .get(name)
                    .map(|m| m as &dyn RuntimePredictor)
                    .ok_or_else(|| {
                        PlacementError::Predictor(format!("no model for workload `{name}`"))
                    })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            problem,
            predictors,
        })
    }

    /// The problem being estimated.
    pub fn problem(&self) -> &PlacementProblem {
        self.problem
    }

    /// The predictor backing workload instance `w`.
    ///
    /// # Panics
    ///
    /// Panics if `w` is out of range.
    pub fn predictor(&self, w: usize) -> &dyn RuntimePredictor {
        self.predictors[w]
    }

    /// Per-unit pressure vector a placement exposes workload `w` to: the
    /// (combined) bubble score of the co-located workloads on each of its
    /// slots (Fig. 5's "bubble list").
    pub fn pressures_for(&self, state: &PlacementState, w: usize) -> Vec<f64> {
        let mut scores = Vec::with_capacity(self.problem.slots_per_host() - 1);
        state
            .slots_of(w)
            .into_iter()
            .map(|slot| self.combined_pressure_at(state, slot, &mut scores))
            .collect()
    }

    /// The combined co-runner pressure on one slot under the §4.4
    /// combination, with co-runner scores in host-slot order (exactly as
    /// [`PlacementState::corunners_at`] yields co-runners) gathered in
    /// the caller-provided scratch buffer.
    fn combined_pressure_at(
        &self,
        state: &PlacementState,
        slot: usize,
        scores: &mut Vec<f64>,
    ) -> f64 {
        scores.clear();
        let per_host = self.problem.slots_per_host();
        let base = self.problem.host_of_slot(slot) * per_host;
        for s in base..base + per_host {
            if s != slot {
                scores.push(self.predictors[state.workload_at(s)].bubble_score());
            }
        }
        icm_core::combine_scores(scores)
    }

    /// Predicts all workloads' normalized runtimes under `state`.
    ///
    /// # Errors
    ///
    /// Propagates predictor failures.
    pub fn estimate(&self, state: &PlacementState) -> Result<PlacementEstimate, PlacementError> {
        // One pass over the slots fills every workload's pressure vector
        // in ascending slot order, the order `pressures_for` yields.
        let span = self.problem.slots_per_workload();
        let mut pressures = vec![0.0; self.problem.slots()];
        let mut filled = vec![0usize; self.predictors.len()];
        let mut scores = Vec::with_capacity(self.problem.slots_per_host() - 1);
        for (slot, &w) in state.assignment().iter().enumerate() {
            pressures[w * span + filled[w]] = self.combined_pressure_at(state, slot, &mut scores);
            filled[w] += 1;
        }
        let normalized_times = pressures
            .chunks_exact(span)
            .zip(&self.predictors)
            .map(|(p, predictor)| predictor.predict_normalized(p))
            .collect::<Result<Vec<_>, _>>()?;
        let weighted_total = normalized_times.iter().sum();
        Ok(PlacementEstimate {
            normalized_times,
            weighted_total,
        })
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A transparent analytic predictor for tests: normalized time =
    /// 1 + sensitivity × (coupled ? max : mean) of pressures.
    #[derive(Debug, Clone)]
    pub struct FakePredictor {
        pub score: f64,
        pub sensitivity: f64,
        pub coupled: bool,
    }

    impl RuntimePredictor for FakePredictor {
        fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
            let agg = if self.coupled {
                pressures.iter().cloned().fold(0.0f64, f64::max)
            } else {
                pressures.iter().sum::<f64>() / pressures.len().max(1) as f64
            };
            Ok(1.0 + self.sensitivity * agg)
        }

        fn bubble_score(&self) -> f64 {
            self.score
        }

        fn solo_seconds(&self) -> f64 {
            100.0
        }
    }

    pub fn fake_problem() -> PlacementProblem {
        PlacementProblem::paper_default(vec![
            "sensitive".into(),
            "aggressor".into(),
            "quiet".into(),
            "neutral".into(),
        ])
        .expect("valid")
    }

    pub fn fake_predictors() -> Vec<FakePredictor> {
        vec![
            FakePredictor {
                score: 1.0,
                sensitivity: 0.20,
                coupled: true,
            },
            FakePredictor {
                score: 6.0,
                sensitivity: 0.01,
                coupled: false,
            },
            FakePredictor {
                score: 0.2,
                sensitivity: 0.01,
                coupled: false,
            },
            FakePredictor {
                score: 2.0,
                sensitivity: 0.05,
                coupled: false,
            },
        ]
    }

    #[test]
    fn pressures_reflect_corunners() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        // Hosts: (0,1) (0,1) (0,1) (0,1) (2,3) (2,3) (2,3) (2,3)
        let state = PlacementState::new(
            &problem,
            vec![0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3],
        )
        .expect("valid");
        // Workload 0 is always co-located with workload 1 (score 6).
        assert_eq!(estimator.pressures_for(&state, 0), vec![6.0; 4]);
        // Workload 2 always with workload 3 (score 2).
        assert_eq!(estimator.pressures_for(&state, 2), vec![2.0; 4]);
    }

    #[test]
    fn estimate_combines_predictions() {
        let problem = fake_problem();
        let predictors = fake_predictors();
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
        let est = estimator.estimate(&state).expect("estimates");
        // sensitive: 1 + 0.2×max(6,6,6,6) = 2.2
        assert!((est.normalized_times[0] - 2.2).abs() < 1e-9);
        // aggressor: 1 + 0.01×mean(1,1,1,1) = 1.01
        assert!((est.normalized_times[1] - 1.01).abs() < 1e-9);
        assert!((est.weighted_total - est.normalized_times.iter().sum::<f64>()).abs() < 1e-12);
        assert!(est.mean() > 1.0);
    }

    #[test]
    fn predictor_count_must_match() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors[..2]
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        assert!(Estimator::new(&problem, refs).is_err());
    }

    #[test]
    fn from_map_requires_all_names() {
        let problem = fake_problem();
        let mut map: BTreeMap<String, FakePredictor> = BTreeMap::new();
        for (name, p) in problem.workloads().iter().zip(fake_predictors()) {
            map.insert(name.clone(), p);
        }
        assert!(Estimator::from_map(&problem, &map).is_ok());
        map.remove("quiet");
        assert!(Estimator::from_map(&problem, &map).is_err());
    }

    #[test]
    fn three_slot_hosts_combine_corunner_scores() {
        // 2 hosts × 3 slots, 3 workloads × 2 slots: every host holds all
        // three workloads, so each slot has two co-runners.
        let problem =
            PlacementProblem::new(2, 3, vec!["a".into(), "b".into(), "c".into()]).expect("valid");
        let predictors = [
            FakePredictor {
                score: 3.0,
                sensitivity: 0.1,
                coupled: true,
            },
            FakePredictor {
                score: 3.0,
                sensitivity: 0.1,
                coupled: true,
            },
            FakePredictor {
                score: 1.0,
                sensitivity: 0.1,
                coupled: true,
            },
        ];
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let state = PlacementState::new(&problem, vec![0, 1, 2, 0, 1, 2]).expect("valid");
        // Workload c's co-runners are a (3.0) and b (3.0): combined
        // log2(2^3 + 2^3) = 4.0 under the §4.4 rule.
        let pressures = estimator.pressures_for(&state, 2);
        assert_eq!(pressures.len(), 2);
        for p in &pressures {
            assert!((p - 4.0).abs() < 1e-12, "got {p}");
        }
    }

    #[test]
    fn separating_aggressor_from_sensitive_lowers_cost() {
        let problem = fake_problem();
        let predictors = fake_predictors();
        let refs: Vec<&dyn RuntimePredictor> = predictors
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let bad = PlacementState::new(
            &problem,
            vec![0, 1, 0, 1, 0, 1, 0, 1, 2, 3, 2, 3, 2, 3, 2, 3],
        )
        .expect("valid");
        let good = PlacementState::new(
            &problem,
            vec![0, 2, 0, 2, 0, 2, 0, 2, 1, 3, 1, 3, 1, 3, 1, 3],
        )
        .expect("valid");
        let bad_est = estimator.estimate(&bad).expect("estimates");
        let good_est = estimator.estimate(&good).expect("estimates");
        assert!(
            good_est.weighted_total < bad_est.weighted_total,
            "pairing the sensitive app with the quiet one must win: {} vs {}",
            good_est.weighted_total,
            bad_est.weighted_total
        );
    }
}
