//! The measurement protocol every model and measurement figure is built
//! from (§3.2–§3.4), over any [`Testbed`]:
//!
//! * a **solo baseline** — the mean of interference-free runs — that
//!   every other runtime is normalized by;
//! * **bubbles of pressure `i` on `j` of the app's hosts** — the last
//!   `j`, biasing toward worker nodes when the first host is a
//!   coordinator master (the conversion policies are position-agnostic
//!   anyway) — which makes a [`Probe`] a [`ProfileSource`] and gives the
//!   Fig. 3 curve families;
//! * **seeded heterogeneous samples** (§3.3) that select the mapping
//!   policy;
//! * the **reporter calibration** and the **bubble score** it inverts
//!   ([`Calibration`], §3.4).
//!
//! The simulator keys its noise by run counter, so every caller that
//! measures through this module issues the same runs in the same order.
//! That still holds for the fixed-size sets — the solo repeats, the
//! curve grid and the heterogeneous samples — which go to the testbed
//! as one [`Testbed::run_apps`] batch each: a batch's runs keep their
//! order and their run numbers, however the testbed measures them.

use icm_rng::Rng;

use crate::error::ModelError;
use crate::profiling::ProfileSource;
use crate::score::ReporterCurve;
use crate::stats::mean;
use crate::testbed::Testbed;

/// One application on a testbed with its solo baseline measured: every
/// measurement it takes is a runtime normalized by that baseline.
///
/// [`measure(i, j)`](ProfileSource::measure) runs the app with bubbles
/// of pressure `i` on its last `j` hosts.
#[derive(Debug)]
pub struct Probe<'a, T: Testbed + ?Sized> {
    testbed: &'a mut T,
    app: &'a str,
    hosts: usize,
    max_pressure: usize,
    solo: f64,
}

impl<'a, T: Testbed + ?Sized> Probe<'a, T> {
    /// Measures `app`'s solo baseline on `hosts` hosts, the mean of
    /// `repeats` (at least one) interference-free runs.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures, and returns [`ModelError::Profiling`]
    /// if the baseline is not a positive finite runtime.
    pub fn new(
        testbed: &'a mut T,
        app: &'a str,
        hosts: usize,
        repeats: usize,
    ) -> Result<Self, ModelError> {
        let runs = testbed.run_apps(app, &vec![vec![0.0; hosts]; repeats.max(1)])?;
        let solo = mean(&runs);
        if !solo.is_finite() || solo <= 0.0 {
            return Err(ModelError::Profiling(format!(
                "solo runtime of `{app}` measured as {solo}"
            )));
        }
        let max_pressure = testbed.max_pressure();
        Ok(Self {
            testbed,
            app,
            hosts,
            max_pressure,
            solo,
        })
    }

    /// The solo runtime in seconds.
    pub fn solo(&self) -> f64 {
        self.solo
    }

    /// The testbed the probe measures on (for its run accounting or
    /// fault plans).
    pub fn testbed(&mut self) -> &mut T {
        self.testbed
    }

    /// The Fig. 3 curve family: `curves[p][k]` is the normalized runtime
    /// under pressure `pressures[p]` on `node_counts[k]` hosts. Zero
    /// interfering nodes is the solo run itself, pinned at 1 without a
    /// measurement.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures.
    pub fn curves(
        &mut self,
        pressures: &[usize],
        node_counts: &[usize],
    ) -> Result<Vec<Vec<f64>>, ModelError> {
        let probe = &*self;
        let settings: Vec<Vec<f64>> = pressures
            .iter()
            .flat_map(|&p| {
                node_counts
                    .iter()
                    .filter(|&&k| k > 0)
                    .map(move |&k| probe.setting(p, k))
            })
            .collect();
        let mut measured = self.run_all(&settings)?.into_iter();
        Ok(pressures
            .iter()
            .map(|_| {
                node_counts
                    .iter()
                    .map(|&k| match k {
                        0 => 1.0,
                        _ => measured.next().expect("one run per interfered cell"),
                    })
                    .collect()
            })
            .collect())
    }

    /// The §3.3 policy-selection samples: `count` heterogeneous settings
    /// drawn from `seed`, each host's pressure uniform in `0..=n` and
    /// redrawn until at least one host is interfered, each measured.
    /// Returns `(per-host pressures, normalized runtime)` pairs.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures.
    pub fn heterogeneous_samples(
        &mut self,
        seed: u64,
        count: usize,
    ) -> Result<Vec<(Vec<f64>, f64)>, ModelError> {
        let mut rng = Rng::from_seed(seed);
        let settings: Vec<Vec<f64>> = (0..count)
            .map(|_| heterogeneous_setting(&mut rng, self.hosts, self.max_pressure))
            .collect();
        let normalized = self.run_all(&settings)?;
        Ok(settings.into_iter().zip(normalized).collect())
    }

    /// Bubbles of pressure `pressure` on the last `nodes` hosts.
    fn setting(&self, pressure: usize, nodes: usize) -> Vec<f64> {
        let mut pressures = vec![0.0; self.hosts];
        for slot in pressures.iter_mut().rev().take(nodes) {
            *slot = pressure as f64;
        }
        pressures
    }

    /// Measures every setting as one batch, normalized by the solo
    /// baseline.
    fn run_all(&mut self, settings: &[Vec<f64>]) -> Result<Vec<f64>, ModelError> {
        let mut runs = self.testbed.run_apps(self.app, settings)?;
        for seconds in &mut runs {
            *seconds /= self.solo;
        }
        Ok(runs)
    }
}

impl<T: Testbed + ?Sized> ProfileSource for Probe<'_, T> {
    fn hosts(&self) -> usize {
        self.hosts
    }

    fn max_pressure(&self) -> usize {
        self.max_pressure
    }

    fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError> {
        let pressures = self.setting(pressure, nodes);
        Ok(self.testbed.run_app(self.app, &pressures)? / self.solo)
    }
}

/// One §3.3 heterogeneous setting: each of `hosts` pressures uniform in
/// `0..=max_pressure`, redrawn until at least one host is interfered.
pub fn heterogeneous_setting(rng: &mut Rng, hosts: usize, max_pressure: usize) -> Vec<f64> {
    let n = max_pressure as u32;
    loop {
        let draw: Vec<f64> = (0..hosts)
            .map(|_| f64::from(rng.gen_range(0..=n)))
            .collect();
        if draw.iter().any(|&p| p > 0.0) {
            return draw;
        }
    }
}

/// A testbed's reporter calibration (§3.4): the reporter bubble's
/// slowdown next to a bubble of every pressure `0..=n`, normalized by
/// the pressure-0 run so measurement noise at the baseline cancels.
#[derive(Debug, Clone, PartialEq)]
pub struct Calibration {
    /// The normalized reporter curve.
    pub curve: ReporterCurve,
    /// The pressure-0 reporter slowdown every slowdown is divided by.
    pub baseline: f64,
}

impl Calibration {
    /// Sweeps the reporter against every bubble pressure.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures; returns [`ModelError::Profiling`] if
    /// the baseline is not a positive finite slowdown.
    pub fn measure(testbed: &mut dyn Testbed) -> Result<Self, ModelError> {
        let raw: Vec<f64> = (0..=testbed.max_pressure())
            .map(|p| testbed.reporter_slowdown_with_bubble(p as f64))
            .collect::<Result<_, _>>()?;
        let baseline = raw[0];
        if !baseline.is_finite() || baseline <= 0.0 {
            return Err(ModelError::Profiling(format!(
                "reporter baseline measured as {baseline}"
            )));
        }
        let curve =
            ReporterCurve::from_slowdowns(raw.iter().map(|v| (v / baseline).max(1.0)).collect())?;
        Ok(Self { curve, baseline })
    }

    /// `app`'s bubble score: the mean reporter slowdown over `repeats`
    /// (at least one) co-runs, inverted through the curve.
    ///
    /// # Errors
    ///
    /// Propagates testbed failures.
    pub fn score(
        &self,
        testbed: &mut dyn Testbed,
        app: &str,
        repeats: usize,
    ) -> Result<f64, ModelError> {
        let runs: Vec<f64> = (0..repeats.max(1))
            .map(|_| testbed.reporter_slowdown_with_app(app))
            .collect::<Result<_, _>>()?;
        Ok(self.score_of_slowdown(mean(&runs)))
    }

    /// The bubble score of a raw reporter slowdown, measured next to any
    /// co-runners: normalized by the baseline, inverted through the curve.
    pub fn score_of_slowdown(&self, slowdown: f64) -> f64 {
        self.curve.score_for_slowdown(slowdown / self.baseline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::mock::MockTestbed;

    #[test]
    fn curves_pin_zero_nodes_at_one_without_a_run() {
        let mut tb = MockTestbed::default();
        let mut probe = Probe::new(&mut tb, "mock", 8, 2).expect("solo runs");
        assert!((probe.solo() - 100.0).abs() < 1e-9);
        let curves = probe.curves(&[2, 8], &[0, 1, 8]).expect("measures");
        assert_eq!(probe.testbed().calls, 2 + 4, "two solo runs, four probes");
        assert_eq!(curves[0][0], 1.0);
        assert_eq!(curves[1][0], 1.0);
        let truth = probe.testbed().truth(&[8.0; 8]);
        assert!((curves[1][2] - truth).abs() < 1e-12);
    }

    #[test]
    fn bubbles_land_on_the_last_hosts() {
        let mut tb = MockTestbed::default();
        let mut probe = Probe::new(&mut tb, "mock", 4, 1).expect("solo runs");
        probe.measure(5, 1).expect("measures");
        assert_eq!(probe.testbed().last_run, [0.0, 0.0, 0.0, 5.0]);
        probe.measure(2, 3).expect("measures");
        assert_eq!(probe.testbed().last_run, [0.0, 2.0, 2.0, 2.0]);
    }

    #[test]
    fn samples_are_seeded_and_always_interfered() {
        // (hosts, max_pressure): the paper's 8 levels, and narrow testbeds
        // whose draws are often all-zero or exceed a hard-coded `0..=8`.
        for (hosts, max_pressure) in [(8, 8), (2, 1), (3, 3), (4, 12)] {
            let draw = |seed| {
                let mut tb = MockTestbed {
                    hosts,
                    max_pressure,
                    ..MockTestbed::default()
                };
                let mut probe = Probe::new(&mut tb, "mock", hosts, 1).expect("solo runs");
                probe.heterogeneous_samples(seed, 16).expect("samples")
            };
            let samples = draw(9);
            assert_eq!(samples, draw(9), "same seed, same samples");
            assert_ne!(samples, draw(10));
            let tb = MockTestbed::default();
            let top = max_pressure as f64;
            for (pressures, normalized) in &samples {
                assert_eq!(pressures.len(), hosts);
                assert!(pressures.iter().any(|&p| p > 0.0), "{pressures:?}");
                assert!(pressures.iter().all(|&p| p == p.round() && p <= top));
                assert!((normalized - tb.truth(pressures)).abs() < 1e-12);
            }
            // The samples are the shared draw's settings, in order.
            let mut rng = Rng::from_seed(9);
            for (pressures, _) in &samples {
                assert_eq!(
                    *pressures,
                    heterogeneous_setting(&mut rng, hosts, max_pressure)
                );
            }
        }
    }

    #[test]
    fn calibration_inverts_a_bubbles_own_slowdown() {
        for (max_pressure, scores, repeats) in [(8, 1, 3), (8, 4, 3), (5, 3, 2), (12, 2, 1)] {
            let mut tb = MockTestbed {
                max_pressure,
                ..MockTestbed::default()
            };
            let calibration = Calibration::measure(&mut tb).expect("calibrates");
            assert_eq!(tb.calls, max_pressure + 1, "one reporter run per pressure");
            for _ in 0..scores {
                let score = calibration.score(&mut tb, "mock", repeats).expect("scores");
                assert!((score - tb.generated_score).abs() < 1e-9, "got {score}");
            }
            assert_eq!(
                tb.calls,
                max_pressure + 1 + scores * repeats,
                "scoring reuses the calibration"
            );
        }
    }
}
