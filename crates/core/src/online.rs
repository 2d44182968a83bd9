//! Online model refinement — the paper's stated future work (§4.4,
//! "Static Profiling" limitation; cf. Bubble-Flux).
//!
//! A statically profiled [`InterferenceModel`] cannot see effects outside
//! its bubble-calibrated world: co-runner CPU volatility (the `M.Gems`
//! problem of Fig. 9), phase changes, or environment drift. An
//! [`OnlineModel`] wraps the static model and folds *observed* runs back
//! into its predictions as multiplicative corrections:
//!
//! * a **global** correction — an exponentially weighted mean of
//!   `actual / predicted` over all observations, and
//! * optional **keyed** corrections — the same statistic tracked per
//!   co-runner (or per any caller-chosen context key), which is what
//!   rescues applications whose mispredictions are co-runner-specific.
//!
//! Corrections start at 1 (no change) and are clamped to a fixed band
//! ([`CORRECTION_BAND`]) so one outlier measurement cannot poison the
//! model.

use std::collections::BTreeMap;

use icm_json::Shared;

use crate::error::ModelError;
use crate::model::InterferenceModel;

/// EWMA weight of a new observation.
pub const ALPHA: f64 = 0.3;

/// Clamp band for correction factors.
pub const CORRECTION_BAND: (f64, f64) = (0.5, 2.0);

/// A statically profiled model plus online corrections learned from
/// observed runs.
///
/// # Example
///
/// ```no_run
/// # fn demo(model: icm_core::InterferenceModel) -> Result<(), icm_core::ModelError> {
/// use icm_core::online::OnlineModel;
///
/// let mut online = OnlineModel::new(model);
/// let pressures = vec![0.2; 8];
/// // The static model under-predicts this co-runner; feed observations:
/// online.observe_for("H.KM", &pressures, 1.25)?;
/// online.observe_for("H.KM", &pressures, 1.24)?;
/// // Future predictions for that co-runner are corrected:
/// let corrected = online.predict_for("H.KM", &pressures)?;
/// assert!(corrected > online.base().predict(&pressures));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct OnlineModel {
    /// Never changes, so clones and snapshots share it and it is
    /// encoded once.
    base: Shared<InterferenceModel>,
    global: Correction,
    keyed: BTreeMap<String, Correction>,
}

icm_json::impl_json!(struct OnlineModel { base, global, keyed });

/// One EWMA correction state.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Correction {
    factor: f64,
    observations: u64,
}

icm_json::impl_json!(struct Correction { factor, observations });

impl Default for Correction {
    fn default() -> Self {
        Self {
            factor: 1.0,
            observations: 0,
        }
    }
}

impl Correction {
    fn update(&mut self, ratio: f64) {
        let clamped = ratio.clamp(CORRECTION_BAND.0, CORRECTION_BAND.1);
        if self.observations == 0 {
            self.factor = clamped;
        } else {
            self.factor = (1.0 - ALPHA) * self.factor + ALPHA * clamped;
        }
        self.observations += 1;
    }
}

impl OnlineModel {
    /// Wraps a static model, with no correction learned yet.
    pub fn new(base: InterferenceModel) -> Self {
        Self {
            base: Shared::new(base),
            global: Correction::default(),
            keyed: BTreeMap::new(),
        }
    }

    /// The wrapped static model.
    pub fn base(&self) -> &InterferenceModel {
        &self.base
    }

    /// Current global correction factor (1 = no correction yet).
    pub fn correction(&self) -> f64 {
        self.global.factor
    }

    /// Current correction for a key, if any observations were recorded.
    pub fn correction_for(&self, key: &str) -> Option<f64> {
        self.keyed.get(key).map(|c| c.factor)
    }

    /// Number of observations folded in (global).
    pub fn observations(&self) -> u64 {
        self.global.observations
    }

    /// Predicts the normalized runtime with the global correction
    /// applied.
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::BadPressureVector`] from the base model.
    pub fn predict(&self, pressures: &[f64]) -> Result<f64, ModelError> {
        Ok((self.base.try_predict(pressures)? * self.global.factor).max(1.0))
    }

    /// Predicts with the keyed correction for `key` (falling back to the
    /// global correction when the key has no history).
    ///
    /// # Errors
    ///
    /// Propagates [`ModelError::BadPressureVector`] from the base model.
    pub fn predict_for(&self, key: &str, pressures: &[f64]) -> Result<f64, ModelError> {
        let factor = self.keyed.get(key).map_or(self.global.factor, |c| c.factor);
        Ok((self.base.try_predict(pressures)? * factor).max(1.0))
    }

    /// Folds one observed run into the global correction.
    ///
    /// `actual` is the observed normalized runtime under `pressures`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] if `actual` is not positive,
    /// or propagates pressure-vector validation errors.
    pub fn observe(&mut self, pressures: &[f64], actual: f64) -> Result<(), ModelError> {
        let ratio = self.ratio(pressures, actual)?;
        self.global.update(ratio);
        Ok(())
    }

    /// Folds one observed run into both the `key`ed and the global
    /// corrections.
    ///
    /// # Errors
    ///
    /// See [`observe`](Self::observe).
    pub fn observe_for(
        &mut self,
        key: &str,
        pressures: &[f64],
        actual: f64,
    ) -> Result<(), ModelError> {
        let ratio = self.ratio(pressures, actual)?;
        self.keyed.entry(key.to_owned()).or_default().update(ratio);
        self.global.update(ratio);
        Ok(())
    }

    fn ratio(&self, pressures: &[f64], actual: f64) -> Result<f64, ModelError> {
        if !actual.is_finite() || actual <= 0.0 {
            return Err(ModelError::InvalidData(format!(
                "observed normalized runtime must be positive, got {actual}"
            )));
        }
        let predicted = self.base.try_predict(pressures)?;
        Ok(actual / predicted)
    }
}

/// Configuration for a [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Relative residual `|actual − predicted| / predicted` at or above
    /// which one sample counts as drifted.
    pub threshold: f64,
    /// Number of *consecutive* drifted samples required before the
    /// detector trips. With the default of 3, a single noisy outlier can
    /// at most raise the signal to [`DriftSignal::Elevated`] — it never
    /// trips a migration on its own.
    pub trip_after: u32,
}

icm_json::impl_json!(struct DriftConfig { threshold = 0.25, trip_after = 3 });

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            threshold: 0.25,
            trip_after: 3,
        }
    }
}

/// What one observation did to the drift state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DriftSignal {
    /// Residual below threshold; any running streak was reset.
    Steady,
    /// Residual at or above threshold, but the streak is still shorter
    /// than [`DriftConfig::trip_after`].
    Elevated,
    /// The streak reached `trip_after` consecutive drifted samples: the
    /// model has genuinely drifted. The streak resets so re-tripping
    /// requires a fresh sustained streak (hysteresis).
    Tripped,
}

/// Hysteresis-guarded drift detector over model residuals.
///
/// Feed it each observed run alongside the prediction it was compared
/// against (typically from [`OnlineModel::predict_for`]): the detector
/// counts *consecutive* samples whose relative residual reaches
/// [`DriftConfig::threshold`] and reports [`DriftSignal::Tripped`] only
/// once the streak reaches [`DriftConfig::trip_after`]. One outlier in a
/// steady stream therefore never trips; a sustained bias at or above the
/// threshold always trips within exactly `trip_after` observations.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    config: DriftConfig,
    streak: u32,
    last_residual: f64,
    trips: u64,
}

icm_json::impl_json!(struct DriftDetector {
    config,
    streak = 0,
    last_residual = 0.0,
    trips = 0,
});

impl DriftDetector {
    /// Creates a detector.
    ///
    /// # Panics
    ///
    /// Panics if `config.threshold` is not finite and positive, or if
    /// `config.trip_after` is zero (a zero-length streak would trip on
    /// every sample, defeating the hysteresis this type exists for).
    pub fn new(config: DriftConfig) -> Self {
        assert!(
            config.threshold.is_finite() && config.threshold > 0.0,
            "drift threshold must be finite and positive, got {}",
            config.threshold
        );
        assert!(
            config.trip_after >= 1,
            "trip_after must be at least 1, got 0"
        );
        Self {
            config,
            streak: 0,
            last_residual: 0.0,
            trips: 0,
        }
    }

    /// The configuration this detector was built with.
    pub fn config(&self) -> &DriftConfig {
        &self.config
    }

    /// Current consecutive-drifted-sample streak.
    pub fn streak(&self) -> u32 {
        self.streak
    }

    /// Relative residual of the most recent observation.
    pub fn last_residual(&self) -> f64 {
        self.last_residual
    }

    /// Total number of trips since construction.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Folds one (predicted, actual) pair into the drift state.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] — leaving the streak
    /// untouched — if either value is non-finite or non-positive.
    pub fn observe(&mut self, predicted: f64, actual: f64) -> Result<DriftSignal, ModelError> {
        if !predicted.is_finite() || predicted <= 0.0 {
            return Err(ModelError::InvalidData(format!(
                "drift prediction must be positive, got {predicted}"
            )));
        }
        if !actual.is_finite() || actual <= 0.0 {
            return Err(ModelError::InvalidData(format!(
                "drift observation must be positive, got {actual}"
            )));
        }
        let residual = (actual - predicted).abs() / predicted;
        self.last_residual = residual;
        if residual < self.config.threshold {
            self.streak = 0;
            return Ok(DriftSignal::Steady);
        }
        self.streak += 1;
        if self.streak >= self.config.trip_after {
            self.streak = 0;
            self.trips += 1;
            Ok(DriftSignal::Tripped)
        } else {
            Ok(DriftSignal::Elevated)
        }
    }

    /// Clears the streak (e.g. after the manager acted on a trip and the
    /// placement changed, so old residuals no longer apply).
    pub fn reset(&mut self) {
        self.streak = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelBuilder;
    use crate::testbed::mock::MockTestbed;

    fn static_model() -> InterferenceModel {
        let mut tb = MockTestbed::default();
        ModelBuilder::new("mock")
            .policy_samples(10)
            .build(&mut tb)
            .expect("builds")
    }

    #[test]
    fn fresh_model_applies_no_correction() {
        let online = OnlineModel::new(static_model());
        let pressures = vec![3.0; 8];
        assert_eq!(
            online.predict(&pressures).expect("valid"),
            online.base().predict(&pressures)
        );
        assert_eq!(online.correction(), 1.0);
        assert_eq!(online.observations(), 0);
    }

    #[test]
    fn corrections_converge_to_observed_bias() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![2.0; 8];
        let base = online.base().predict(&pressures);
        // The first observation sets the factor; each later one moves it
        // an ALPHA = 0.3 step toward its own ratio.
        online.observe(&pressures, base * 1.6).expect("valid");
        assert!((online.correction() - 1.6).abs() < 1e-12);
        online.observe(&pressures, base * 1.2).expect("valid");
        assert!((online.correction() - (0.7 * 1.6 + 0.3 * 1.2)).abs() < 1e-12);
        // Reality consistently runs 20% slower than the static model.
        for _ in 0..60 {
            online.observe(&pressures, base * 1.2).expect("valid");
        }
        assert!((online.correction() - 1.2).abs() < 1e-6);
        let corrected = online.predict(&pressures).expect("valid");
        assert!((corrected - base * 1.2).abs() / base < 1e-6);
    }

    #[test]
    fn keyed_corrections_are_isolated() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![1.0; 8];
        let base = online.base().predict(&pressures);
        for _ in 0..10 {
            online
                .observe_for("volatile", &pressures, base * 1.3)
                .expect("valid");
        }
        let volatile = online.predict_for("volatile", &pressures).expect("valid");
        assert!(volatile > base * 1.2);
        // An unseen key falls back to the global correction (which has
        // also absorbed the bias here).
        let unseen = online.predict_for("steady", &pressures).expect("valid");
        assert!((unseen - volatile).abs() < 1e-9, "fallback is global");
        assert_eq!(online.correction_for("steady"), None);
        assert!(online.correction_for("volatile").is_some());
    }

    #[test]
    fn outliers_are_clamped() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![2.0; 8];
        let base = online.base().predict(&pressures);
        online.observe(&pressures, base * 50.0).expect("valid");
        assert_eq!(online.correction(), CORRECTION_BAND.1);
        // The low outlier enters the EWMA at the band's floor, not at 1e-6.
        online.observe(&pressures, base * 1e-6).expect("valid");
        let expected = 0.7 * CORRECTION_BAND.1 + 0.3 * CORRECTION_BAND.0;
        assert!((online.correction() - expected).abs() < 1e-12);
    }

    #[test]
    fn corrected_prediction_never_below_one() {
        let mut online = OnlineModel::new(static_model());
        let none = vec![0.0; 8];
        online.observe(&none, 0.6).expect("valid"); // absurd but clamped
        assert!(online.predict(&none).expect("valid") >= 1.0);
    }

    #[test]
    fn invalid_observations_rejected() {
        let mut online = OnlineModel::new(static_model());
        assert!(online.observe(&[1.0; 8], 0.0).is_err());
        assert!(online.observe(&[1.0; 8], f64::NAN).is_err());
        assert!(online.observe(&[1.0; 3], 1.2).is_err(), "bad vector length");
    }

    #[test]
    fn hostile_observations_rejected_without_state_change() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![1.0; 8];
        for bad in [
            f64::INFINITY,
            f64::NEG_INFINITY,
            -1.0,
            -0.0,
            f64::MIN_POSITIVE / 2.0 * 0.0, // exactly 0.0 via arithmetic
        ] {
            let err = online.observe(&pressures, bad).expect_err("rejected");
            assert!(matches!(err, ModelError::InvalidData(_)), "{bad}");
            let err = online
                .observe_for("k", &pressures, bad)
                .expect_err("rejected");
            assert!(matches!(err, ModelError::InvalidData(_)), "{bad}");
        }
        // Rejected observations leave no trace: no global or keyed state.
        assert_eq!(online.observations(), 0);
        assert_eq!(online.correction(), 1.0);
        assert_eq!(online.correction_for("k"), None);
    }

    #[test]
    fn sustained_poisoning_is_capped_by_the_band() {
        // A stream of absurd observations (crashing co-runner reporting
        // 100× slowdowns) must never push the EWMA past the clamp band,
        // no matter how long it runs.
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![2.0; 8];
        let base = online.base().predict(&pressures);
        for i in 0..200 {
            let poison = base * if i % 2 == 0 { 100.0 } else { 1e-9 };
            online.observe(&pressures, poison).expect("positive");
            assert!(online.correction() >= CORRECTION_BAND.0 - 1e-12);
            assert!(online.correction() <= CORRECTION_BAND.1 + 1e-12);
        }
        // And the corrected prediction stays inside the banded envelope.
        let predicted = online.predict(&pressures).expect("valid");
        assert!(predicted <= base * CORRECTION_BAND.1 + 1e-9);
        assert!(predicted >= 1.0);
    }

    #[test]
    fn keyed_poisoning_does_not_leak_into_other_keys() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![2.0; 8];
        let base = online.base().predict(&pressures);
        // An honest co-runner first, so the honest key has history.
        for _ in 0..10 {
            online
                .observe_for("honest", &pressures, base * 1.05)
                .expect("valid");
        }
        let honest_before = online.correction_for("honest").expect("tracked");
        // Then a poisoned co-runner floods the model.
        for _ in 0..50 {
            online
                .observe_for("poisoned", &pressures, base * 100.0)
                .expect("positive");
        }
        // The honest key's correction is untouched by the poison.
        let honest_after = online.correction_for("honest").expect("tracked");
        assert_eq!(honest_before, honest_after);
        // The poisoned key saturates at the band edge, not at 100×.
        let poisoned = online.correction_for("poisoned").expect("tracked");
        assert!((poisoned - CORRECTION_BAND.1).abs() < 1e-9);
        // Keyed prediction for the honest co-runner stays calibrated.
        let honest_pred = online.predict_for("honest", &pressures).expect("valid");
        assert!((honest_pred - base * honest_after).abs() < 1e-9);
    }

    #[test]
    fn single_outlier_never_trips_the_drift_detector() {
        let mut detector = DriftDetector::new(DriftConfig::default());
        // Steady stream, one wild outlier, steady again: the signal may
        // rise to Elevated for exactly that sample but must never trip.
        for _ in 0..10 {
            assert_eq!(
                detector.observe(1.0, 1.02).expect("valid"),
                DriftSignal::Steady
            );
        }
        assert_eq!(
            detector.observe(1.0, 3.0).expect("valid"),
            DriftSignal::Elevated
        );
        assert_eq!(detector.streak(), 1);
        for _ in 0..10 {
            assert_eq!(
                detector.observe(1.0, 1.01).expect("valid"),
                DriftSignal::Steady
            );
        }
        assert_eq!(detector.trips(), 0, "an isolated outlier tripped");
    }

    #[test]
    fn sustained_drift_trips_within_exactly_trip_after_samples() {
        let config = DriftConfig {
            threshold: 0.25,
            trip_after: 3,
        };
        let mut detector = DriftDetector::new(config);
        // A sustained 40% bias: two Elevated samples, trip on the third.
        assert_eq!(
            detector.observe(1.0, 1.4).expect("valid"),
            DriftSignal::Elevated
        );
        assert_eq!(
            detector.observe(1.0, 1.4).expect("valid"),
            DriftSignal::Elevated
        );
        assert_eq!(
            detector.observe(1.0, 1.4).expect("valid"),
            DriftSignal::Tripped
        );
        assert_eq!(detector.trips(), 1);
        // The streak reset on trip: re-tripping needs a fresh streak.
        assert_eq!(detector.streak(), 0);
        assert_eq!(
            detector.observe(1.0, 1.4).expect("valid"),
            DriftSignal::Elevated
        );
    }

    #[test]
    fn drift_detector_under_manager_cadence_is_deterministic_and_seeded() {
        // The manager's observation cadence: one (predicted, actual)
        // sample per tick, with realistic multiplicative measurement
        // noise. Seeded noise below the threshold must never trip;
        // seeded noise riding on a sustained bias >= threshold must trip
        // within trip_after ticks of the bias onset — and two same-seed
        // histories must agree signal-for-signal.
        let run = |seed: u64| -> (Vec<DriftSignal>, Option<usize>) {
            let mut rng = icm_rng::Rng::from_seed(seed);
            let config = DriftConfig {
                threshold: 0.25,
                trip_after: 3,
            };
            let mut detector = DriftDetector::new(config);
            let mut signals = Vec::new();
            let mut tripped_at = None;
            for tick in 0..40 {
                // ±5% noise, well under the 25% threshold...
                let noise = 1.0 + 0.1 * (rng.gen_f64() - 0.5);
                // ...plus a 40% sustained drift starting at tick 20.
                let bias = if tick >= 20 { 1.4 } else { 1.0 };
                let signal = detector.observe(1.0, bias * noise).expect("valid");
                if signal == DriftSignal::Tripped && tripped_at.is_none() {
                    tripped_at = Some(tick);
                }
                signals.push(signal);
            }
            (signals, tripped_at)
        };
        let (signals_a, tripped_a) = run(2016);
        let (signals_b, tripped_b) = run(2016);
        assert_eq!(signals_a, signals_b, "same-seed drift histories diverged");
        assert_eq!(tripped_a, tripped_b);
        // No trip before the bias onset; trip within trip_after of it.
        let tripped = tripped_a.expect("sustained drift never tripped");
        assert!(
            tripped >= 20,
            "tripped at {tripped}, before the drift began"
        );
        assert!(
            tripped <= 22,
            "tripped at {tripped}, later than trip_after ticks after onset"
        );
        // A different seed still trips in the same bounded window.
        let (_, tripped_c) = run(7);
        let tripped_c = tripped_c.expect("sustained drift never tripped");
        assert!((20..=22).contains(&tripped_c));
    }

    #[test]
    fn drift_detector_rejects_hostile_samples_without_state_change() {
        let mut detector = DriftDetector::new(DriftConfig::default());
        detector.observe(1.0, 1.4).expect("valid");
        assert_eq!(detector.streak(), 1);
        for (p, a) in [
            (f64::NAN, 1.0),
            (1.0, f64::NAN),
            (0.0, 1.0),
            (1.0, 0.0),
            (-1.0, 1.0),
            (1.0, f64::INFINITY),
        ] {
            let err = detector.observe(p, a).expect_err("rejected");
            assert!(matches!(err, ModelError::InvalidData(_)));
        }
        assert_eq!(detector.streak(), 1, "rejected samples touched the streak");
        assert_eq!(detector.trips(), 0);
    }

    #[test]
    #[should_panic(expected = "trip_after")]
    fn zero_trip_after_panics() {
        let _ = DriftDetector::new(DriftConfig {
            threshold: 0.25,
            trip_after: 0,
        });
    }

    #[test]
    fn drift_detector_round_trips_through_json() {
        let mut detector = DriftDetector::new(DriftConfig::default());
        detector.observe(1.0, 1.4).expect("valid");
        let back: DriftDetector =
            icm_json::from_str(&icm_json::to_string(&detector)).expect("round-trips");
        assert_eq!(back, detector);
    }

    #[test]
    fn serde_round_trip_preserves_learning() {
        let mut online = OnlineModel::new(static_model());
        let pressures = vec![2.0; 8];
        let base = online.base().predict(&pressures);
        online
            .observe_for("x", &pressures, base * 1.4)
            .expect("valid");
        let json = icm_json::to_string(&online);
        let back: OnlineModel = icm_json::from_str(&json).expect("deserializes");
        assert_eq!(back.correction_for("x"), online.correction_for("x"));
        assert_eq!(back.observations(), online.observations());
    }
}
