//! Resilient profiling: retries, deterministic backoff, and per-cell
//! model quality.
//!
//! The paper's Algorithms 1–2 assume every `(pressure, nodes)` setting is
//! measurable; on a consolidated cluster probe runs crash, straggle past
//! deadlines and return contaminated samples. [`ResilientSource`] wraps
//! any [`ProfileSource`]: each setting is measured once, a failed
//! measurement is retried up to three times with exponential backoff
//! (30, 60, 120 s, accounted in *simulated* seconds, so the determinism
//! contract holds), and a setting that stays unmeasurable is filled with
//! a conservative monotone fallback instead of aborting the profile.
//! Every cell of the resulting matrix carries a [`ModelQuality`] so
//! downstream consumers (placement, QoS policies) can price
//! low-confidence predictions conservatively. A measurement that
//! succeeds with a wrong value is taken as it is: nothing here detects
//! silent corruption.

use std::collections::{BTreeMap, BTreeSet};

use icm_obs::{Tracer, Value};

use crate::error::ModelError;
use crate::profiling::{profile, ProfileResult, ProfileSource, ProfilerConfig, ProfilingAlgorithm};

/// Provenance of one propagation-matrix cell, ordered best-first so the
/// *maximum* over a set of cells is the worst quality involved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ModelQuality {
    /// The cell's value comes from a successful measurement.
    Measured,
    /// The cell was interpolated between measured neighbours by the
    /// profiling algorithm (the normal Algorithm 1–2 behaviour).
    Interpolated,
    /// All measurement attempts failed; the value is a conservative
    /// monotone fallback.
    Defaulted,
}

icm_json::impl_json!(
    enum ModelQuality {
        Measured,
        Interpolated,
        Defaulted,
    }
);

impl ModelQuality {
    /// Stable lowercase label for traces and tables.
    pub fn as_str(self) -> &'static str {
        match self {
            ModelQuality::Measured => "measured",
            ModelQuality::Interpolated => "interpolated",
            ModelQuality::Defaulted => "defaulted",
        }
    }
}

/// Accounting of the resilience machinery's work.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResilienceStats {
    /// Measurement attempts issued to the wrapped source.
    pub attempts: u64,
    /// Attempts that failed (source error or invalid value).
    pub failures: u64,
    /// Failures that were retried.
    pub retries: u64,
    /// Settings filled by the conservative fallback.
    pub defaulted_settings: u64,
    /// Simulated seconds spent backing off between retries.
    pub backoff_seconds: f64,
}

icm_json::impl_json!(struct ResilienceStats {
    attempts,
    failures,
    retries,
    defaulted_settings,
    backoff_seconds
});

/// Per-cell quality of a profiled propagation matrix.
///
/// Mirrors the matrix layout: pressures `1..=n`, interfering nodes
/// `0..=m` (the `j = 0` column is the solo anchor and always
/// [`Measured`](ModelQuality::Measured)).
#[derive(Debug, Clone, PartialEq)]
pub struct QualityGrid {
    n: usize,
    m: usize,
    cells: Vec<Vec<ModelQuality>>,
}

icm_json::impl_json!(struct QualityGrid { n, m, cells });

impl QualityGrid {
    /// Quality at integer coordinates (`pressure ∈ 1..=n` clamped,
    /// `nodes ∈ 0..=m` clamped).
    pub fn at(&self, pressure: usize, nodes: usize) -> ModelQuality {
        let i = pressure.clamp(1, self.n);
        let j = nodes.min(self.m);
        self.cells[i - 1][j]
    }

    /// Quality backing a fractional `(pressure, nodes)` lookup, as
    /// produced by the heterogeneity policies. Conservative: fractional
    /// coordinates take the worst quality of the cells the bilinear
    /// interpolation would touch.
    pub fn at_hom(&self, pressure: f64, nodes: f64) -> ModelQuality {
        if !(pressure.is_finite() && nodes.is_finite()) || pressure <= 0.0 || nodes <= 0.0 {
            return ModelQuality::Measured; // no interference → solo anchor
        }
        let lo_p = (pressure.floor() as usize).max(1);
        let hi_p = pressure.ceil() as usize;
        let lo_n = nodes.floor() as usize;
        let hi_n = nodes.ceil() as usize;
        let mut worst = ModelQuality::Measured;
        for p in [lo_p, hi_p] {
            for n in [lo_n, hi_n] {
                worst = worst.max(self.at(p, n));
            }
        }
        worst
    }

    /// `(measured, interpolated, defaulted)` cell counts over the whole
    /// grid (the `j = 0` anchors included).
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut counts = (0, 0, 0);
        for row in &self.cells {
            for &q in row {
                match q {
                    ModelQuality::Measured => counts.0 += 1,
                    ModelQuality::Interpolated => counts.1 += 1,
                    ModelQuality::Defaulted => counts.2 += 1,
                }
            }
        }
        counts
    }

    /// Fraction of cells that had to be defaulted.
    pub fn defaulted_fraction(&self) -> f64 {
        let (a, b, c) = self.counts();
        c as f64 / (a + b + c).max(1) as f64
    }

    /// The worst quality anywhere in the grid.
    pub fn worst(&self) -> ModelQuality {
        self.cells
            .iter()
            .flatten()
            .copied()
            .max()
            .unwrap_or(ModelQuality::Measured)
    }
}

/// A [`ProfileSource`] wrapper adding retries, backoff and conservative
/// fallbacks, so the profiling algorithms above it never see a failed
/// measurement.
pub struct ResilientSource<'a> {
    inner: &'a mut dyn ProfileSource,
    tracer: Tracer,
    stats: ResilienceStats,
    /// Measured value per setting that produced a valid sample.
    measured_ok: BTreeMap<(usize, usize), f64>,
    /// Settings filled by the fallback.
    defaulted: BTreeSet<(usize, usize)>,
}

impl<'a> ResilientSource<'a> {
    /// Wraps `inner`; retry/default events go to `tracer` (whose
    /// simulated clock also absorbs the backoff time).
    pub fn new(inner: &'a mut dyn ProfileSource, tracer: Tracer) -> Self {
        Self {
            inner,
            tracer,
            stats: ResilienceStats::default(),
            measured_ok: BTreeMap::new(),
            defaulted: BTreeSet::new(),
        }
    }

    /// Resilience accounting so far.
    pub fn stats(&self) -> &ResilienceStats {
        &self.stats
    }

    /// Builds the per-cell quality map for the settings requested so far:
    /// defaulted settings are [`Defaulted`](ModelQuality::Defaulted),
    /// successfully sampled ones [`Measured`](ModelQuality::Measured), and
    /// everything the algorithm never asked for
    /// [`Interpolated`](ModelQuality::Interpolated).
    pub fn quality_grid(&self) -> QualityGrid {
        let n = self.inner.max_pressure();
        let m = self.inner.hosts();
        let mut cells = vec![vec![ModelQuality::Interpolated; m + 1]; n];
        for row in &mut cells {
            row[0] = ModelQuality::Measured; // solo anchor
        }
        for &(i, j) in self.measured_ok.keys() {
            cells[i - 1][j] = ModelQuality::Measured;
        }
        for &(i, j) in &self.defaulted {
            cells[i - 1][j] = ModelQuality::Defaulted;
        }
        QualityGrid { n, m, cells }
    }

    /// Conservative fallback for a setting with no usable sample, built
    /// from monotonicity of the propagation matrix (runtime never
    /// decreases in pressure or interfering-node count): prefer the
    /// tightest *over*-estimate from a dominating measured setting, fall
    /// back to the tightest under-estimate from a dominated one, and to
    /// the solo value `1.0` when nothing is measured yet.
    fn fallback(&self, i: usize, j: usize) -> f64 {
        let upper = self
            .measured_ok
            .iter()
            .filter(|&(&(pi, pj), _)| pi >= i && pj >= j)
            .map(|(_, &v)| v)
            .fold(f64::INFINITY, f64::min);
        if upper.is_finite() {
            return upper;
        }
        let lower = self
            .measured_ok
            .iter()
            .filter(|&(&(pi, pj), _)| pi <= i && pj <= j)
            .map(|(_, &v)| v)
            .fold(1.0f64, f64::max);
        lower
    }
}

/// Retries a failed measurement may take after its first attempt.
const MAX_RETRIES: u32 = 3;

/// First backoff delay, in simulated seconds; retry `k` waits
/// `BACKOFF_BASE_S · 2^(k−1)`.
const BACKOFF_BASE_S: f64 = 30.0;

impl ProfileSource for ResilientSource<'_> {
    fn hosts(&self) -> usize {
        self.inner.hosts()
    }

    fn max_pressure(&self) -> usize {
        self.inner.max_pressure()
    }

    fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError> {
        for attempt in 1..=1 + MAX_RETRIES {
            self.stats.attempts += 1;
            let detail = match self.inner.measure(pressure, nodes) {
                Ok(v) if v.is_finite() && v > 0.0 => {
                    self.measured_ok.insert((pressure, nodes), v);
                    return Ok(v);
                }
                Err(err) => err.to_string(),
                Ok(v) => format!("invalid measurement {v}"),
            };
            self.stats.failures += 1;
            if attempt <= MAX_RETRIES {
                // Deterministic exponential backoff, charged to the
                // simulated clock (never wall time).
                let backoff = BACKOFF_BASE_S * f64::from(1u32 << (attempt - 1));
                self.stats.retries += 1;
                self.stats.backoff_seconds += backoff;
                self.tracer.advance_sim(backoff);
                if self.tracer.enabled() {
                    self.tracer.event(
                        "probe_retry",
                        &[
                            ("pressure", Value::from(pressure)),
                            ("nodes", Value::from(nodes)),
                            ("attempt", Value::from(attempt as usize)),
                            ("backoff_s", Value::from(backoff)),
                            ("error", Value::from(detail.as_str())),
                        ],
                    );
                }
            }
        }
        let value = self.fallback(pressure, nodes);
        self.stats.defaulted_settings += 1;
        self.defaulted.insert((pressure, nodes));
        if self.tracer.enabled() {
            self.tracer.event(
                "probe_defaulted",
                &[
                    ("pressure", Value::from(pressure)),
                    ("nodes", Value::from(nodes)),
                    ("value", Value::from(value)),
                ],
            );
        }
        Ok(value)
    }
}

/// Everything a resilient profiling run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct ResilientOutcome {
    /// The profiling result (matrix, measured settings, cost) — the
    /// measured list includes defaulted settings, so cost accounting
    /// covers the attempts faults wasted.
    pub result: ProfileResult,
    /// Per-cell provenance of the matrix.
    pub quality: QualityGrid,
    /// Retry/backoff accounting.
    pub stats: ResilienceStats,
}

/// Runs `algorithm` through a [`ResilientSource`] wrapper: measurement
/// failures are retried and, past the retry budget, conservatively
/// defaulted, so profiling completes on faulty testbeds and reports the
/// quality of what it built instead of erroring out.
///
/// # Errors
///
/// Returns [`ModelError::Profiling`] for degenerate spaces or invalid
/// algorithm parameters — measurement failures no longer propagate.
pub fn profile_resilient(
    source: &mut dyn ProfileSource,
    algorithm: ProfilingAlgorithm,
    config: &ProfilerConfig,
    tracer: &Tracer,
) -> Result<ResilientOutcome, ModelError> {
    let mut resilient = ResilientSource::new(source, tracer.clone());
    let result = profile(&mut resilient, algorithm, config, tracer)?;
    let quality = resilient.quality_grid();
    let stats = resilient.stats().clone();
    Ok(ResilientOutcome {
        result,
        quality,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiling::FnSource;

    fn truth(pressure: usize, nodes: usize) -> f64 {
        1.0 + 0.12 * pressure as f64 * (nodes as f64 / 8.0).powf(0.3)
    }

    /// A source that fails deterministically on a caller-chosen subset of
    /// calls.
    struct FlakySource<F> {
        calls: u64,
        fail: F,
    }

    impl<F: FnMut(u64, usize, usize) -> bool> FlakySource<F> {
        fn new(fail: F) -> Self {
            Self { calls: 0, fail }
        }
    }

    impl<F: FnMut(u64, usize, usize) -> bool> ProfileSource for FlakySource<F> {
        fn hosts(&self) -> usize {
            8
        }
        fn max_pressure(&self) -> usize {
            8
        }
        fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError> {
            self.calls += 1;
            if (self.fail)(self.calls, pressure, nodes) {
                Err(ModelError::Testbed("injected".into()))
            } else {
                Ok(truth(pressure, nodes))
            }
        }
    }

    #[test]
    fn clean_source_behaves_like_plain_profiling() {
        let mut plain = FnSource::new(8, 8, truth);
        let expected = profile(
            &mut plain,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        let mut source = FnSource::new(8, 8, truth);
        let outcome = profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert_eq!(outcome.result, expected, "no faults → identical result");
        assert_eq!(outcome.stats.failures, 0);
        assert_eq!(outcome.stats.retries, 0);
        assert_eq!(outcome.stats.backoff_seconds, 0.0);
        assert_eq!(outcome.quality.worst(), ModelQuality::Interpolated);
        let (measured, _, defaulted) = outcome.quality.counts();
        assert_eq!(measured - 8, outcome.result.measured.len()); // 8 solo anchors
        assert_eq!(defaulted, 0);
    }

    #[test]
    fn transient_failures_are_retried_to_success() {
        // Every odd-numbered call fails; one retry always succeeds.
        let mut source = FlakySource::new(|call, _, _| call % 2 == 1);
        let outcome = profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert!(outcome.stats.failures > 0);
        assert_eq!(outcome.stats.retries, outcome.stats.failures);
        assert!(outcome.stats.backoff_seconds > 0.0);
        assert_eq!(outcome.stats.defaulted_settings, 0);
        assert_eq!(outcome.quality.worst(), ModelQuality::Interpolated);
        // Retried values are the true ones, so the matrix is exact.
        let mut clean = FnSource::new(8, 8, truth);
        let expected = profile(
            &mut clean,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        assert_eq!(outcome.result.matrix, expected.matrix);
    }

    #[test]
    fn exhausted_settings_default_conservatively() {
        // The (8, 8) corner never measures; everything else is clean.
        let mut source = FlakySource::new(|_, p, n| p == 8 && n == 8);
        let outcome = profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles despite the dead corner");
        assert_eq!(outcome.stats.defaulted_settings, 1);
        assert_eq!(outcome.quality.at(8, 8), ModelQuality::Defaulted);
        assert_eq!(outcome.quality.worst(), ModelQuality::Defaulted);
        assert!(outcome.quality.defaulted_fraction() > 0.0);
        // The retry budget: the dead corner costs one attempt plus three
        // retries, backing off 30 + 60 + 120 simulated seconds; every
        // other setting measures on its first attempt.
        assert_eq!(outcome.stats.failures, 4);
        assert_eq!(outcome.stats.retries, 3);
        assert_eq!(outcome.stats.backoff_seconds, 210.0);
        assert_eq!(
            outcome.stats.attempts,
            outcome.result.measured.len() as u64 + 3
        );
        // The fallback respects monotonicity bounds: it is at least the
        // largest dominated measurement.
        let corner = outcome.result.matrix.at(8, 8);
        assert!(corner >= outcome.result.matrix.at(1, 8) - 1e-9);
    }

    #[test]
    fn quality_grid_lookup_is_conservative() {
        let grid = QualityGrid {
            n: 2,
            m: 2,
            cells: vec![
                vec![
                    ModelQuality::Measured,
                    ModelQuality::Measured,
                    ModelQuality::Interpolated,
                ],
                vec![
                    ModelQuality::Measured,
                    ModelQuality::Interpolated,
                    ModelQuality::Defaulted,
                ],
            ],
        };
        assert_eq!(grid.at(1, 1), ModelQuality::Measured);
        assert_eq!(grid.at(2, 2), ModelQuality::Defaulted);
        // Out-of-range lookups clamp.
        assert_eq!(grid.at(9, 9), ModelQuality::Defaulted);
        assert_eq!(grid.at(0, 0), ModelQuality::Measured);
        // Fractional lookups take the worst neighbouring cell.
        assert_eq!(grid.at_hom(1.5, 1.5), ModelQuality::Defaulted);
        assert_eq!(grid.at_hom(1.0, 1.0), ModelQuality::Measured);
        assert_eq!(grid.at_hom(0.0, 0.0), ModelQuality::Measured);
        assert_eq!(grid.counts(), (3, 2, 1));
        assert!((grid.defaulted_fraction() - 1.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn quality_grid_round_trips_through_json() {
        let mut source = FlakySource::new(|_, p, n| p == 8 && n == 8);
        let outcome = profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles");
        let back: QualityGrid =
            icm_json::from_str(&icm_json::to_string(&outcome.quality)).expect("round-trips");
        assert_eq!(back, outcome.quality);
        let stats: ResilienceStats =
            icm_json::from_str(&icm_json::to_string(&outcome.stats)).expect("round-trips");
        assert_eq!(stats, outcome.stats);
    }

    #[test]
    fn retry_events_and_backoff_are_deterministic() {
        let trace = || {
            let (tracer, recorder) = Tracer::recording(4096);
            let mut source = FlakySource::new(|call, _, _| call % 3 == 1);
            let outcome = profile_resilient(
                &mut source,
                ProfilingAlgorithm::BinaryOptimized,
                &ProfilerConfig::default(),
                &tracer,
            )
            .expect("profiles");
            (recorder.events(), outcome.stats)
        };
        let (events_a, stats_a) = trace();
        let (events_b, stats_b) = trace();
        assert_eq!(events_a, events_b, "same faults, same trace");
        assert_eq!(stats_a, stats_b);
        let retries = events_a.iter().filter(|e| e.name == "probe_retry").count() as u64;
        assert_eq!(retries, stats_a.retries);
        let retry = events_a
            .iter()
            .find(|e| e.name == "probe_retry")
            .expect("at least one retry");
        assert!(retry.num("backoff_s").expect("field") > 0.0);
        assert!(retry.str("error").expect("field").contains("injected"));
    }
}
