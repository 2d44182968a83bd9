use crate::curve::SensitivityCurve;
use crate::error::ModelError;

/// The reporter-bubble calibration curve used to *score* how much
/// interference an application generates (§2.1, Table 4).
///
/// Bubble-Up normalizes interference generation like this: co-run a
/// low-pressure *reporter* bubble with the target application and observe
/// the reporter's slowdown; then find the bubble pressure that would slow
/// the reporter by the same amount. That pressure is the application's
/// **bubble score**. `ReporterCurve` holds the reporter-vs-bubble
/// sensitivity curve and performs the inversion.
///
/// # Example
///
/// ```
/// use icm_core::{ReporterCurve, SensitivityCurve};
///
/// # fn main() -> Result<(), icm_core::ModelError> {
/// // Reporter slowdown when co-located with bubbles of pressure 0..=4.
/// let curve = ReporterCurve::new(SensitivityCurve::new(vec![
///     1.0, 1.02, 1.08, 1.2, 1.45,
/// ])?);
/// // An app that slows the reporter by 1.14× scores between 2 and 3.
/// let score = curve.score_for_slowdown(1.14);
/// assert!(score > 2.0 && score < 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ReporterCurve {
    curve: SensitivityCurve,
}

icm_json::impl_json!(struct ReporterCurve { curve });

impl ReporterCurve {
    /// Wraps a measured reporter-vs-bubble sensitivity curve.
    pub fn new(curve: SensitivityCurve) -> Self {
        Self { curve }
    }

    /// Builds the curve from raw reporter slowdowns at integer bubble
    /// pressures `0..=n`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidData`] if the values do not form a
    /// valid sensitivity curve.
    pub fn from_slowdowns(slowdowns: Vec<f64>) -> Result<Self, ModelError> {
        Ok(Self {
            curve: SensitivityCurve::new(slowdowns)?,
        })
    }

    /// The underlying sensitivity curve.
    pub fn curve(&self) -> &SensitivityCurve {
        &self.curve
    }

    /// Converts an observed reporter slowdown into a bubble score
    /// (clamped to the calibrated pressure range).
    pub fn score_for_slowdown(&self, slowdown: f64) -> f64 {
        self.curve.invert(slowdown)
    }

    /// Expected reporter slowdown for a given bubble score (the forward
    /// direction; useful for tests and diagnostics).
    pub fn slowdown_for_score(&self, score: f64) -> f64 {
        self.curve.value_at(score)
    }
}

/// Combines the bubble scores of multiple co-located applications into a
/// single equivalent score — the §4.4 extension sketch for relaxing the
/// pairwise-interaction limitation.
///
/// The paper's scoring is logarithmic in LLC misses: each +1 score step
/// corresponds to a doubling of induced misses. Combining co-runners
/// therefore adds their miss rates in linear space:
/// `combined = log2(Σ 2^sᵢ)`, so two co-runners of equal score `S`
/// combine to `S + 1`, exactly the paper's worked example. The ablation
/// `A4` experiment checks the rule against the reporter's measured
/// slowdown under two co-runners at once.
///
/// Scores of 0 (no interference) contribute nothing.
///
/// # Panics
///
/// Panics if any score is negative or non-finite.
///
/// # Example
///
/// ```
/// use icm_core::combine_scores;
///
/// let combined = combine_scores(&[3.0, 3.0]);
/// assert!((combined - 4.0).abs() < 1e-12, "S + S → S+1");
/// assert_eq!(combine_scores(&[5.0]), 5.0);
/// assert_eq!(combine_scores(&[]), 0.0);
/// ```
pub fn combine_scores(scores: &[f64]) -> f64 {
    let mut linear = 0.0;
    let mut active = 0usize;
    for &s in scores {
        assert!(
            s.is_finite() && s >= 0.0,
            "scores must be non-negative and finite, got {s}"
        );
        if s > 0.0 {
            linear += 2f64.powf(s);
            active += 1;
        }
    }
    if active == 0 {
        return 0.0;
    }
    linear.log2()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve() -> ReporterCurve {
        ReporterCurve::from_slowdowns(vec![1.0, 1.01, 1.04, 1.1, 1.2, 1.35, 1.55, 1.8, 2.1])
            .expect("valid")
    }

    #[test]
    fn unperturbed_reporter_scores_zero() {
        assert_eq!(curve().score_for_slowdown(1.0), 0.0);
        assert_eq!(curve().score_for_slowdown(0.97), 0.0);
    }

    #[test]
    fn extreme_slowdown_clamps_to_max_pressure() {
        assert_eq!(curve().score_for_slowdown(5.0), 8.0);
    }

    #[test]
    fn round_trip_through_forward_direction() {
        let c = curve();
        for score in [0.5, 1.0, 2.7, 4.0, 6.2, 7.9] {
            let slowdown = c.slowdown_for_score(score);
            let back = c.score_for_slowdown(slowdown);
            assert!((back - score).abs() < 1e-9, "score {score} → {back}");
        }
    }

    #[test]
    fn scores_are_monotone_in_slowdown() {
        let c = curve();
        let mut last = -1.0;
        for i in 0..50 {
            let slowdown = 1.0 + i as f64 * 0.025;
            let score = c.score_for_slowdown(slowdown);
            assert!(score >= last, "regressed at slowdown {slowdown}");
            last = score;
        }
    }

    #[test]
    fn fractional_scores_come_out_naturally() {
        // The paper's Table 4 scores are fractional (e.g. 4.3) because
        // real apps fall between calibrated pressure levels.
        let c = curve();
        let score = c.score_for_slowdown(1.28);
        assert!(score > 4.0 && score < 5.0, "got {score}");
    }

    #[test]
    fn invalid_slowdown_data_rejected() {
        assert!(ReporterCurve::from_slowdowns(vec![1.0]).is_err());
        assert!(ReporterCurve::from_slowdowns(vec![1.0, f64::NAN]).is_err());
    }

    #[test]
    fn serde_round_trip() {
        let c = curve();
        let json = icm_json::to_string(&c);
        let back: ReporterCurve = icm_json::from_str(&json).expect("deserialize");
        assert_eq!(c, back);
    }

    #[test]
    fn combine_equal_scores_adds_one() {
        assert!((combine_scores(&[4.0, 4.0]) - 5.0).abs() < 1e-12);
        assert!((combine_scores(&[2.0, 2.0, 2.0, 2.0]) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn combine_is_dominated_by_the_larger_score() {
        let combined = combine_scores(&[6.0, 1.0]);
        assert!(combined > 6.0 && combined < 6.1, "got {combined}");
    }

    #[test]
    fn combine_ignores_zeros_and_handles_singletons() {
        assert_eq!(combine_scores(&[0.0, 0.0]), 0.0);
        assert_eq!(combine_scores(&[3.5, 0.0]), 3.5);
        assert_eq!(combine_scores(&[3.5]), 3.5);
    }

    #[test]
    fn combine_is_monotone_in_each_score() {
        let mut last = 0.0;
        for s in [0.5, 1.0, 2.0, 4.0] {
            let c = combine_scores(&[s, 2.0]);
            assert!(c > last);
            last = c;
        }
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn combine_rejects_negative() {
        let _ = combine_scores(&[-1.0]);
    }
}
