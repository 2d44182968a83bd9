//! The four heterogeneity→homogeneity mapping policies of §3.3 and
//! their sample-based selection.

use crate::propagation::PropagationMatrix;
use crate::stats::Summary;

/// Pressure tolerance within which two nodes count as suffering "the
/// same top pressure" when bubble scores are fractional.
const TIE_TOLERANCE: f64 = 0.25;

/// The four heterogeneity mapping policies of §3.3.
///
/// Real placements expose an application to a *different* interference
/// intensity on every node; profiling every heterogeneous combination is
/// intractable (12,870 settings for 8 hosts and 8 levels). Each policy
/// converts a heterogeneous pressure vector into a *homogeneous*
/// `(pressure, node-count)` pair that can be looked up in the
/// [`PropagationMatrix`]:
///
/// * [`NMax`](MappingPolicy::NMax) — only the nodes at the worst pressure
///   count; everything milder is ignored.
/// * [`NPlus1Max`](MappingPolicy::NPlus1Max) — like `NMax`, but all milder
///   interfering nodes are merged into **one** extra node at the top
///   pressure.
/// * [`AllMax`](MappingPolicy::AllMax) — the worst pressure anywhere is
///   assumed to reach every node.
/// * [`Interpolate`](MappingPolicy::Interpolate) — the average pressure
///   over all nodes is applied to all nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingPolicy {
    /// Count only the top-pressure nodes.
    NMax,
    /// Top-pressure nodes plus one merged node for the rest.
    NPlus1Max,
    /// The worst pressure propagates to every node.
    AllMax,
    /// Average pressure on every node.
    Interpolate,
}

icm_json::impl_json!(
    enum MappingPolicy {
        NMax,
        NPlus1Max,
        AllMax,
        Interpolate,
    }
);

impl MappingPolicy {
    /// All four policies, in the paper's order.
    pub const ALL: [MappingPolicy; 4] = [
        MappingPolicy::NMax,
        MappingPolicy::NPlus1Max,
        MappingPolicy::AllMax,
        MappingPolicy::Interpolate,
    ];

    /// Short display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            MappingPolicy::NMax => "N max",
            MappingPolicy::NPlus1Max => "N+1 max",
            MappingPolicy::AllMax => "all max",
            MappingPolicy::Interpolate => "interpolate",
        }
    }

    /// Converts a heterogeneous per-node pressure vector (zeros for
    /// uninterfered nodes) into the homogeneous equivalent under this
    /// policy. Nodes within 0.25 of the maximum pressure count as "at
    /// the top pressure".
    ///
    /// # Panics
    ///
    /// Panics if `pressures` is empty or contains negative/non-finite
    /// values.
    pub fn convert(&self, pressures: &[f64]) -> HomogeneousInterference {
        assert!(!pressures.is_empty(), "pressure vector must not be empty");
        for &p in pressures {
            assert!(
                p.is_finite() && p >= 0.0,
                "pressures must be non-negative and finite, got {p}"
            );
        }
        let nodes_total = pressures.len();
        let max = pressures.iter().cloned().fold(0.0f64, f64::max);
        if max <= 0.0 {
            return HomogeneousInterference {
                pressure: 0.0,
                nodes: 0.0,
            };
        }
        let top = pressures
            .iter()
            .filter(|&&p| p >= max - TIE_TOLERANCE)
            .count();
        let milder = pressures
            .iter()
            .filter(|&&p| p > 0.0 && p < max - TIE_TOLERANCE)
            .count();
        match self {
            MappingPolicy::NMax => HomogeneousInterference {
                pressure: max,
                nodes: top as f64,
            },
            MappingPolicy::NPlus1Max => HomogeneousInterference {
                pressure: max,
                nodes: (top + usize::from(milder > 0)).min(nodes_total) as f64,
            },
            MappingPolicy::AllMax => HomogeneousInterference {
                pressure: max,
                nodes: nodes_total as f64,
            },
            MappingPolicy::Interpolate => HomogeneousInterference {
                pressure: pressures.iter().sum::<f64>() / nodes_total as f64,
                nodes: nodes_total as f64,
            },
        }
    }
}

impl std::fmt::Display for MappingPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A homogeneous interference setting: `nodes` nodes each under
/// `pressure`; the lookup coordinates for a [`PropagationMatrix`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HomogeneousInterference {
    /// Bubble-equivalent pressure on each interfering node.
    pub pressure: f64,
    /// Equivalent number of interfering nodes (fractional allowed).
    pub nodes: f64,
}

icm_json::impl_json!(struct HomogeneousInterference { pressure, nodes });

/// Accuracy of one mapping policy over a set of sampled heterogeneous
/// configurations (one bar group of Fig. 4 / one row candidate of
/// Table 2).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEvaluation {
    /// The evaluated policy.
    pub policy: MappingPolicy,
    /// Per-sample absolute percentage errors.
    pub errors: Summary,
}

icm_json::impl_json!(struct PolicyEvaluation { policy, errors });

impl PolicyEvaluation {
    /// 99% confidence margin of error of the mean error (the paper's
    /// sample-size soundness check).
    pub fn margin_of_error_99(&self) -> f64 {
        self.errors.margin_of_error_99()
    }
}

/// Evaluates all four policies against measured heterogeneous samples.
///
/// Each sample pairs a heterogeneous per-node pressure vector with the
/// *measured* normalized runtime under that interference; a policy's
/// error on the sample is the absolute percentage difference between the
/// matrix prediction at the converted coordinates and the measurement.
///
/// # Panics
///
/// Panics if `samples` is empty or a sample's measured time is not
/// positive.
pub fn evaluate_policies(
    matrix: &PropagationMatrix,
    samples: &[(Vec<f64>, f64)],
) -> Vec<PolicyEvaluation> {
    assert!(
        !samples.is_empty(),
        "need at least one heterogeneous sample"
    );
    MappingPolicy::ALL
        .iter()
        .map(|&policy| {
            let errors: Vec<f64> = samples
                .iter()
                .map(|(pressures, measured)| {
                    assert!(
                        measured.is_finite() && *measured > 0.0,
                        "measured normalized time must be positive, got {measured}"
                    );
                    let hom = policy.convert(pressures);
                    let predicted = matrix.predict(hom.pressure, hom.nodes);
                    ((predicted - measured) / measured).abs() * 100.0
                })
                .collect();
            PolicyEvaluation {
                policy,
                errors: Summary::of(&errors),
            }
        })
        .collect()
}

/// Index of the policy with the lowest mean error in `evaluations`
/// (the first on ties).
///
/// # Panics
///
/// Panics if `evaluations` is empty or holds a non-finite mean error.
pub fn select_policy(evaluations: &[PolicyEvaluation]) -> usize {
    evaluations
        .iter()
        .enumerate()
        .min_by(|a, b| {
            a.1.errors
                .mean
                .partial_cmp(&b.1.errors.mean)
                .expect("errors are finite")
        })
        .map(|(i, _)| i)
        .expect("at least one policy evaluated")
}

#[cfg(test)]
mod tests {
    use super::*;

    // The worked example of Fig. 5: four workloads on 8 nodes, pressure
    // lists over the 4 nodes each workload occupies.

    #[test]
    fn fig5_workload_a_n_plus_1_max() {
        let hom = MappingPolicy::NPlus1Max.convert(&[3.0, 2.0, 1.0, 1.0]);
        assert_eq!(hom.pressure, 3.0);
        assert_eq!(hom.nodes, 2.0, "top node + one merged extra → [3,3,0,0]");
    }

    #[test]
    fn fig5_workload_b_all_max() {
        let hom = MappingPolicy::AllMax.convert(&[5.0, 2.0, 2.0, 1.0]);
        assert_eq!(hom.pressure, 5.0);
        assert_eq!(hom.nodes, 4.0, "worst pressure on every node → [5,5,5,5]");
    }

    #[test]
    fn fig5_workload_c_interpolate() {
        let hom = MappingPolicy::Interpolate.convert(&[3.0, 5.0, 3.0, 1.0]);
        assert_eq!(hom.pressure, 3.0, "average of [3,5,3,1]");
        assert_eq!(hom.nodes, 4.0, "applied to all nodes → [3,3,3,3]");
    }

    #[test]
    fn fig5_workload_d_n_max() {
        let hom = MappingPolicy::NMax.convert(&[5.0, 5.0, 3.0, 2.0]);
        assert_eq!(hom.pressure, 5.0);
        assert_eq!(hom.nodes, 2.0, "two top nodes, rest ignored → [5,5,0,0]");
    }

    #[test]
    fn no_interference_converts_to_zero_for_every_policy() {
        for policy in MappingPolicy::ALL {
            let hom = policy.convert(&[0.0, 0.0, 0.0]);
            assert_eq!(hom.pressure, 0.0, "{policy}");
            assert_eq!(hom.nodes, 0.0, "{policy}");
        }
    }

    #[test]
    fn n_plus_1_max_without_milder_nodes_equals_n_max() {
        let pressures = [4.0, 4.0, 0.0, 0.0];
        let n = MappingPolicy::NMax.convert(&pressures);
        let n1 = MappingPolicy::NPlus1Max.convert(&pressures);
        assert_eq!(n, n1);
    }

    #[test]
    fn n_plus_1_max_caps_at_total_nodes() {
        let hom = MappingPolicy::NPlus1Max.convert(&[4.0, 4.0, 4.0, 1.0]);
        assert_eq!(hom.nodes, 4.0);
    }

    #[test]
    fn tie_tolerance_groups_close_scores() {
        // Fractional bubble scores 4.3 and 4.15 count as one top group;
        // 4.0 is more than the 0.25 tolerance below 4.3.
        let hom = MappingPolicy::NMax.convert(&[4.3, 4.15, 1.0, 0.0]);
        assert_eq!(hom.nodes, 2.0);
        let apart = MappingPolicy::NMax.convert(&[4.3, 4.0, 1.0, 0.0]);
        assert_eq!(apart.nodes, 1.0);
    }

    #[test]
    fn severity_ordering_n_max_le_n_plus_1_le_all_max() {
        let pressures = [5.0, 3.0, 2.0, 0.0];
        let n = MappingPolicy::NMax.convert(&pressures);
        let n1 = MappingPolicy::NPlus1Max.convert(&pressures);
        let all = MappingPolicy::AllMax.convert(&pressures);
        assert!(n.nodes <= n1.nodes && n1.nodes <= all.nodes);
        assert_eq!(n.pressure, all.pressure);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn convert_rejects_empty() {
        let _ = MappingPolicy::NMax.convert(&[]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn convert_rejects_negative_pressure() {
        let _ = MappingPolicy::NMax.convert(&[-1.0]);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(MappingPolicy::NMax.name(), "N max");
        assert_eq!(MappingPolicy::NPlus1Max.name(), "N+1 max");
        assert_eq!(MappingPolicy::AllMax.name(), "all max");
        assert_eq!(MappingPolicy::Interpolate.name(), "interpolate");
    }

    fn test_matrix() -> PropagationMatrix {
        // A strongly max-coupled application: interference in one node is
        // almost as bad as everywhere.
        PropagationMatrix::new(vec![
            vec![1.0, 1.18, 1.19, 1.20, 1.20],
            vec![1.0, 1.38, 1.39, 1.40, 1.40],
            vec![1.0, 1.58, 1.59, 1.60, 1.60],
            vec![1.0, 1.78, 1.79, 1.80, 1.80],
        ])
        .expect("valid")
    }

    #[test]
    fn evaluation_prefers_the_generating_policy() {
        let matrix = test_matrix();
        // Ground truth generated by the N-max rule: only top-pressure
        // nodes matter.
        let configs = [
            vec![4.0, 2.0, 0.0, 0.0],
            vec![3.0, 3.0, 1.0, 0.0],
            vec![2.0, 1.0, 1.0, 1.0],
            vec![4.0, 4.0, 4.0, 2.0],
        ];
        let samples: Vec<(Vec<f64>, f64)> = configs
            .iter()
            .map(|c| {
                let hom = MappingPolicy::NMax.convert(c);
                (c.clone(), matrix.predict(hom.pressure, hom.nodes))
            })
            .collect();
        let evals = evaluate_policies(&matrix, &samples);
        let best = &evals[select_policy(&evals)];
        assert_eq!(best.policy, MappingPolicy::NMax);
        assert!(best.errors.mean < 1e-9);
    }

    #[test]
    fn evaluation_reports_all_four_policies() {
        let matrix = test_matrix();
        let samples = vec![(vec![4.0, 2.0, 0.0, 0.0], 1.7)];
        let evals = evaluate_policies(&matrix, &samples);
        assert_eq!(evals.len(), 4);
        let policies: Vec<_> = evals.iter().map(|e| e.policy).collect();
        assert_eq!(policies, MappingPolicy::ALL.to_vec());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn evaluation_rejects_non_positive_measurement() {
        let matrix = test_matrix();
        let samples = vec![(vec![4.0, 2.0], 0.0)];
        let _ = evaluate_policies(&matrix, &samples);
    }

    #[test]
    fn serde_round_trip() {
        let policy = MappingPolicy::NPlus1Max;
        let json = icm_json::to_string(&policy);
        let back: MappingPolicy = icm_json::from_str(&json).expect("deserialize");
        assert_eq!(policy, back);
    }
}
