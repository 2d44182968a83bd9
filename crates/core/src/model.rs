//! The assembled interference-aware performance model (§3.4) and its
//! builder.

use crate::curve::SensitivityCurve;
use crate::error::ModelError;
use crate::heterogeneity::{
    evaluate_policies, select_policy, HomogeneousInterference, MappingPolicy, PolicyEvaluation,
};
use icm_obs::{Tracer, Value};

use crate::probe::{Calibration, Probe};
use crate::profiling::{profile, ProfilerConfig, ProfilingAlgorithm};
use crate::propagation::PropagationMatrix;
use crate::score::ReporterCurve;
use crate::testbed::Testbed;

/// The complete interference model of one distributed application: the
/// three profiled components of §3.4 —
///
/// 1. its **bubble score** (interference it generates),
/// 2. its **propagation matrix** (sensitivity curves per pressure over
///    interfering-node counts, Fig. 3), and
/// 3. its best **heterogeneity mapping policy** (Table 2).
///
/// Given the per-node pressures an arbitrary placement would expose the
/// application to, [`predict`](InterferenceModel::predict) returns the
/// expected normalized execution time.
///
/// Models serialize with serde so a profiled fleet can be persisted.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceModel {
    app: String,
    solo_seconds: f64,
    bubble_score: f64,
    propagation: PropagationMatrix,
    policy: MappingPolicy,
    policy_evaluations: Vec<PolicyEvaluation>,
    profiling_cost: f64,
    reporter_curve: ReporterCurve,
}

icm_json::impl_json!(struct InterferenceModel {
    app,
    solo_seconds,
    bubble_score,
    propagation,
    policy,
    policy_evaluations,
    profiling_cost,
    reporter_curve,
});

impl InterferenceModel {
    /// Application name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Interference-free runtime in seconds (profiled baseline).
    pub fn solo_seconds(&self) -> f64 {
        self.solo_seconds
    }

    /// The interference intensity this application *generates* (Table 4).
    pub fn bubble_score(&self) -> f64 {
        self.bubble_score
    }

    /// The propagation matrix (Fig. 3 curves).
    pub fn propagation(&self) -> &PropagationMatrix {
        &self.propagation
    }

    /// The selected heterogeneity mapping policy (Table 2).
    pub fn policy(&self) -> MappingPolicy {
        self.policy
    }

    /// Accuracy of every candidate policy on the profiling samples
    /// (Fig. 4).
    pub fn policy_evaluations(&self) -> &[PolicyEvaluation] {
        &self.policy_evaluations
    }

    /// Fraction of the `n × m` interference settings that profiling
    /// actually measured (Table 3 cost).
    pub fn profiling_cost(&self) -> f64 {
        self.profiling_cost
    }

    /// The reporter calibration curve used for bubble scoring.
    pub fn reporter_curve(&self) -> &ReporterCurve {
        &self.reporter_curve
    }

    /// Number of hosts the application spans (length predictions expect).
    pub fn hosts(&self) -> usize {
        self.propagation.hosts()
    }

    /// Predicts the normalized execution time under per-node bubble
    /// (or bubble-equivalent) pressures.
    ///
    /// `pressures` must have exactly [`hosts`](Self::hosts) entries, one
    /// per host the application occupies; `0` means no interference on
    /// that host. Entries may be fractional bubble scores of co-runners.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from [`hosts`](Self::hosts) or
    /// contains negative/non-finite values; use
    /// [`try_predict`](Self::try_predict) for a fallible variant.
    pub fn predict(&self, pressures: &[f64]) -> f64 {
        self.try_predict(pressures)
            .unwrap_or_else(|err| panic!("{err}"))
    }

    /// Fallible variant of [`predict`](Self::predict).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPressureVector`] on length mismatch or
    /// invalid entries.
    pub fn try_predict(&self, pressures: &[f64]) -> Result<f64, ModelError> {
        if pressures.len() != self.hosts() {
            return Err(ModelError::BadPressureVector(format!(
                "expected {} per-host pressures for `{}`, got {}",
                self.hosts(),
                self.app,
                pressures.len()
            )));
        }
        for &p in pressures {
            if !p.is_finite() || p < 0.0 {
                return Err(ModelError::BadPressureVector(format!(
                    "pressures must be non-negative and finite, got {p}"
                )));
            }
        }
        let hom = self.policy.convert(pressures);
        Ok(self.propagation.predict(hom.pressure, hom.nodes))
    }

    /// Predicts absolute seconds instead of a normalized time.
    ///
    /// # Errors
    ///
    /// See [`try_predict`](Self::try_predict).
    pub fn predict_seconds(&self, pressures: &[f64]) -> Result<f64, ModelError> {
        Ok(self.try_predict(pressures)? * self.solo_seconds)
    }

    /// The homogeneous `(pressure, nodes)` coordinates this model's
    /// policy maps a heterogeneous vector to (diagnostic; Fig. 5).
    pub fn convert(&self, pressures: &[f64]) -> HomogeneousInterference {
        self.policy.convert(pressures)
    }
}

/// The naive comparison model of §2.2 / §5.2: heterogeneity is converted
/// with a fixed `N+1 max` policy (the best single static choice), and
/// propagation is assumed *proportional* — interference on `j` of `m`
/// nodes contributes `j/m` of the full-cluster slowdown.
#[derive(Debug, Clone, PartialEq)]
pub struct NaiveModel {
    app: String,
    solo_seconds: f64,
    bubble_score: f64,
    full_pressure_curve: SensitivityCurve,
    hosts: usize,
}

icm_json::impl_json!(struct NaiveModel {
    app,
    solo_seconds,
    bubble_score,
    full_pressure_curve,
    hosts,
});

impl NaiveModel {
    /// Derives the naive model from a fully built interference model
    /// (it uses only the all-nodes column of the propagation matrix).
    pub fn from_model(model: &InterferenceModel) -> Self {
        let m = model.hosts();
        let mut values = Vec::with_capacity(model.propagation.max_pressure() + 1);
        values.push(1.0);
        for i in 1..=model.propagation.max_pressure() {
            values.push(model.propagation.at(i, m).max(1.0));
        }
        Self {
            app: model.app().to_owned(),
            solo_seconds: model.solo_seconds(),
            bubble_score: model.bubble_score(),
            full_pressure_curve: SensitivityCurve::new(values)
                .expect("column of a valid matrix forms a valid curve"),
            hosts: m,
        }
    }

    /// Application name.
    pub fn app(&self) -> &str {
        &self.app
    }

    /// Interference-free runtime in seconds.
    pub fn solo_seconds(&self) -> f64 {
        self.solo_seconds
    }

    /// Bubble score (shared with the full model).
    pub fn bubble_score(&self) -> f64 {
        self.bubble_score
    }

    /// Number of hosts the application spans.
    pub fn hosts(&self) -> usize {
        self.hosts
    }

    /// Naive prediction of the normalized execution time.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::BadPressureVector`] on malformed input.
    pub fn try_predict(&self, pressures: &[f64]) -> Result<f64, ModelError> {
        if pressures.len() != self.hosts {
            return Err(ModelError::BadPressureVector(format!(
                "expected {} per-host pressures for `{}`, got {}",
                self.hosts,
                self.app,
                pressures.len()
            )));
        }
        for &p in pressures {
            if !p.is_finite() || p < 0.0 {
                return Err(ModelError::BadPressureVector(format!(
                    "pressures must be non-negative and finite, got {p}"
                )));
            }
        }
        let hom = MappingPolicy::NPlus1Max.convert(pressures);
        let full = self.full_pressure_curve.value_at(hom.pressure);
        Ok(1.0 + (full - 1.0) * hom.nodes / self.hosts as f64)
    }

    /// Panicking variant of [`try_predict`](Self::try_predict).
    ///
    /// # Panics
    ///
    /// Panics on malformed input.
    pub fn predict(&self, pressures: &[f64]) -> f64 {
        self.try_predict(pressures)
            .unwrap_or_else(|err| panic!("{err}"))
    }
}

/// Builds an [`InterferenceModel`] by driving profiling runs against a
/// [`Testbed`] — the end-to-end §3.4/§4.1 procedure.
///
/// # Example
///
/// ```no_run
/// use icm_core::model::ModelBuilder;
/// use icm_core::profiling::ProfilingAlgorithm;
/// # fn demo(testbed: &mut dyn icm_core::Testbed) -> Result<(), icm_core::ModelError> {
/// let model = ModelBuilder::new("M.milc")
///     .algorithm(ProfilingAlgorithm::BinaryOptimized)
///     .policy_samples(60)
///     .build(testbed)?;
/// println!("bubble score: {:.1}", model.bubble_score());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ModelBuilder {
    app: String,
    hosts: Option<usize>,
    algorithm: ProfilingAlgorithm,
    policy_samples: usize,
    solo_repeats: usize,
    score_repeats: usize,
    seed: u64,
    tracer: Tracer,
}

impl ModelBuilder {
    /// Starts building a model for the named application with the paper's
    /// defaults: binary-optimized profiling, 60 policy samples, automatic
    /// policy selection.
    pub fn new(app: impl Into<String>) -> Self {
        Self {
            app: app.into(),
            hosts: None,
            algorithm: ProfilingAlgorithm::BinaryOptimized,
            policy_samples: 60,
            solo_repeats: 3,
            score_repeats: 5,
            seed: 0xBEEF,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: the build emits phase spans (`solo`,
    /// `reporter_curve`, `bubble_score`, `profile`, `policy`), per-probe
    /// events, and a final `model_built` summary event.
    pub fn tracer(&mut self, tracer: Tracer) -> &mut Self {
        self.tracer = tracer;
        self
    }

    /// Number of hosts the application spans during profiling (default:
    /// the whole cluster).
    pub fn hosts(&mut self, hosts: usize) -> &mut Self {
        self.hosts = Some(hosts);
        self
    }

    /// Profiling algorithm for the propagation matrix.
    pub fn algorithm(&mut self, algorithm: ProfilingAlgorithm) -> &mut Self {
        self.algorithm = algorithm;
        self
    }

    /// Number of random heterogeneous configurations used for policy
    /// selection (the paper samples 60 on the private cluster, 100 on
    /// EC2).
    pub fn policy_samples(&mut self, samples: usize) -> &mut Self {
        self.policy_samples = samples;
        self
    }

    /// Repeated solo runs to average for the baseline.
    pub fn solo_repeats(&mut self, repeats: usize) -> &mut Self {
        self.solo_repeats = repeats.max(1);
        self
    }

    /// Repeated reporter co-runs to average for the bubble score.
    pub fn score_repeats(&mut self, repeats: usize) -> &mut Self {
        self.score_repeats = repeats.max(1);
        self
    }

    /// Seed for the random heterogeneous policy samples.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Runs the full profiling procedure against `testbed`.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures, and returns
    /// [`ModelError::Profiling`] if measured data is unusable (e.g. a
    /// non-positive solo runtime).
    pub fn build(&self, testbed: &mut dyn Testbed) -> Result<InterferenceModel, ModelError> {
        let m = self.hosts.unwrap_or_else(|| testbed.cluster_hosts());
        if m == 0 || m > testbed.cluster_hosts() {
            return Err(ModelError::Profiling(format!(
                "app hosts {m} invalid for a {}-host cluster",
                testbed.cluster_hosts()
            )));
        }

        let build_span = self.tracer.span(
            "model_build",
            &[
                ("app", Value::from(self.app.as_str())),
                ("hosts", Value::from(m)),
            ],
        );

        // 1. Solo baseline.
        let stage = self.tracer.span("solo", &[]);
        let mut probe = Probe::new(testbed, &self.app, m, self.solo_repeats)?;
        let solo = probe.solo();
        stage.end_with(&[("seconds", Value::from(solo))]);

        // 2. Reporter calibration curve (bubble vs reporter).
        let stage = self.tracer.span("reporter_curve", &[]);
        let calibration = Calibration::measure(probe.testbed())?;
        stage.end_with(&[("baseline", Value::from(calibration.baseline))]);

        // 3. Bubble score.
        let stage = self.tracer.span("bubble_score", &[]);
        let bubble_score = calibration.score(probe.testbed(), &self.app, self.score_repeats)?;
        stage.end_with(&[("score", Value::from(bubble_score))]);

        // 4. Propagation matrix via the selected profiling algorithm.
        let profiled = profile(
            &mut probe,
            self.algorithm,
            &ProfilerConfig::default(),
            &self.tracer,
        )?;

        // 5. Heterogeneity policy.
        let stage = self.tracer.span("policy", &[]);
        let samples = probe.heterogeneous_samples(self.seed, self.policy_samples)?;
        let evaluations = evaluate_policies(&profiled.matrix, &samples);
        let policy = evaluations[select_policy(&evaluations)].policy;
        stage.end_with(&[("policy", Value::from(policy.to_string()))]);

        self.tracer.event(
            "model_built",
            &[
                ("app", Value::from(self.app.as_str())),
                ("solo_seconds", Value::from(solo)),
                ("bubble_score", Value::from(bubble_score)),
                ("policy", Value::from(policy.to_string())),
                ("profiling_cost", Value::from(profiled.cost)),
                ("probes", Value::from(profiled.measured.len())),
            ],
        );
        build_span.end();

        Ok(InterferenceModel {
            app: self.app.clone(),
            solo_seconds: solo,
            bubble_score,
            propagation: profiled.matrix,
            policy,
            policy_evaluations: evaluations,
            profiling_cost: profiled.cost,
            reporter_curve: calibration.curve,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::mock::MockTestbed;

    fn build_default() -> (InterferenceModel, MockTestbed) {
        let mut tb = MockTestbed::default();
        let model = ModelBuilder::new("mock")
            .policy_samples(24)
            .build(&mut tb)
            .expect("builds");
        (model, tb)
    }

    #[test]
    fn builder_produces_complete_model() {
        let (model, _) = build_default();
        assert_eq!(model.app(), "mock");
        assert!((model.solo_seconds() - 100.0).abs() < 1e-6);
        assert_eq!(model.hosts(), 8);
        assert_eq!(model.propagation().max_pressure(), 8);
        assert!(model.profiling_cost() > 0.0 && model.profiling_cost() <= 1.0);
        assert_eq!(model.policy_evaluations().len(), 4);
    }

    #[test]
    fn bubble_score_recovers_generated_intensity() {
        let (model, tb) = build_default();
        assert!(
            (model.bubble_score() - tb.generated_score).abs() < 0.3,
            "expected ≈{}, got {}",
            tb.generated_score,
            model.bubble_score()
        );
    }

    #[test]
    fn predictions_match_mock_ground_truth() {
        let (model, tb) = build_default();
        for pressures in [
            vec![8.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![4.0, 4.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![6.0, 3.0, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            vec![2.0; 8],
        ] {
            let predicted = model.predict(&pressures);
            let truth = tb.truth(&pressures);
            let err = ((predicted - truth) / truth).abs();
            assert!(
                err < 0.05,
                "pressures {pressures:?}: predicted {predicted}, truth {truth}"
            );
        }
    }

    #[test]
    fn max_coupled_mock_selects_a_max_flavored_policy() {
        let (model, _) = build_default();
        assert!(
            matches!(
                model.policy(),
                MappingPolicy::NMax | MappingPolicy::NPlus1Max | MappingPolicy::AllMax
            ),
            "a coupling-0.9 app must not pick interpolate, got {}",
            model.policy()
        );
    }

    #[test]
    fn mean_coupled_mock_selects_interpolate() {
        let mut tb = MockTestbed {
            coupling: 0.0,
            ..MockTestbed::default()
        };
        let model = ModelBuilder::new("mock")
            .policy_samples(24)
            .build(&mut tb)
            .expect("builds");
        assert_eq!(model.policy(), MappingPolicy::Interpolate);
    }

    #[test]
    fn predict_validates_vector_length() {
        let (model, _) = build_default();
        let err = model.try_predict(&[1.0, 2.0]).unwrap_err();
        assert!(matches!(err, ModelError::BadPressureVector(_)));
    }

    #[test]
    fn predict_validates_values() {
        let (model, _) = build_default();
        assert!(model.try_predict(&[-1.0; 8]).is_err());
        assert!(model.try_predict(&[f64::NAN; 8]).is_err());
    }

    #[test]
    fn predict_seconds_scales_by_solo() {
        let (model, _) = build_default();
        let pressures = vec![4.0; 8];
        let normalized = model.predict(&pressures);
        let seconds = model.predict_seconds(&pressures).expect("valid");
        assert!((seconds - normalized * model.solo_seconds()).abs() < 1e-9);
    }

    #[test]
    fn no_interference_predicts_one() {
        let (model, _) = build_default();
        let t = model.predict(&[0.0; 8]);
        assert!((t - 1.0).abs() < 0.02, "got {t}");
    }

    #[test]
    fn naive_model_underestimates_coupled_propagation() {
        // The Fig. 2 motivation: for a barrier-coupled app, interference
        // on one node already causes most of the damage, which the
        // proportional naive model misses badly.
        let (model, tb) = build_default();
        let naive = NaiveModel::from_model(&model);
        let mut one = vec![0.0; 8];
        one[7] = 8.0;
        let truth = tb.truth(&one);
        let naive_pred = naive.predict(&one);
        let full_pred = model.predict(&one);
        assert!(
            naive_pred < truth - 0.2,
            "naive {naive_pred} should badly undershoot truth {truth}"
        );
        assert!(
            (full_pred - truth).abs() < 0.05,
            "full model {full_pred} should track truth {truth}"
        );
    }

    #[test]
    fn naive_model_agrees_at_full_interference() {
        let (model, _) = build_default();
        let naive = NaiveModel::from_model(&model);
        let all = vec![8.0; 8];
        let diff = (naive.predict(&all) - model.predict(&all)).abs();
        assert!(diff < 0.05, "at j=m both models share T[n][m], diff {diff}");
    }

    #[test]
    fn naive_model_validates_input() {
        let (model, _) = build_default();
        let naive = NaiveModel::from_model(&model);
        assert!(naive.try_predict(&[1.0]).is_err());
        assert!(naive.try_predict(&[-1.0; 8]).is_err());
    }

    #[test]
    fn build_rejects_bad_host_count() {
        let mut tb = MockTestbed::default();
        assert!(ModelBuilder::new("mock").hosts(0).build(&mut tb).is_err());
        assert!(ModelBuilder::new("mock").hosts(9).build(&mut tb).is_err());
    }

    #[test]
    fn reduced_host_span_model() {
        let mut tb = MockTestbed::default();
        let model = ModelBuilder::new("mock")
            .hosts(4)
            .policy_samples(12)
            .build(&mut tb)
            .expect("builds");
        assert_eq!(model.hosts(), 4);
        let t = model.predict(&[5.0, 0.0, 0.0, 0.0]);
        assert!(t > 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_behaviour() {
        let (model, _) = build_default();
        let json = icm_json::to_string(&model);
        let back: InterferenceModel = icm_json::from_str(&json).expect("deserialize");
        assert_eq!(model.app(), back.app());
        assert_eq!(model.policy(), back.policy());
        assert_eq!(model.hosts(), back.hosts());
        for pressures in [
            vec![0.0; 8],
            vec![3.0; 8],
            vec![6.0, 2.0, 0.0, 0.0, 1.0, 0.0, 0.0, 4.0],
        ] {
            let a = model.predict(&pressures);
            let b = back.predict(&pressures);
            assert!(
                (a - b).abs() < 1e-9,
                "round-tripped model diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn standalone_score_measurement_matches_full_build() {
        let mut tb = MockTestbed::default();
        let score = Calibration::measure(&mut tb)
            .and_then(|c| c.score(&mut tb, "mock", 3))
            .expect("measures");
        let (model, _) = build_default();
        assert!(
            (score - model.bubble_score()).abs() < 0.1,
            "standalone {score} vs model {}",
            model.bubble_score()
        );
    }

    #[test]
    fn seed_controls_policy_sampling() {
        let mut tb1 = MockTestbed::default();
        let m1 = ModelBuilder::new("mock")
            .policy_samples(10)
            .seed(1)
            .build(&mut tb1)
            .expect("builds");
        let mut tb2 = MockTestbed::default();
        let m2 = ModelBuilder::new("mock")
            .policy_samples(10)
            .seed(1)
            .build(&mut tb2)
            .expect("builds");
        assert_eq!(m1, m2, "same seed, same model");
    }
}
