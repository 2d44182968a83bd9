use crate::error::ModelError;

/// Abstract interface to a cluster that can execute profiling runs.
///
/// The interference model is built *only* through this interface — run an
/// application under controlled bubble interference and time it — which is
/// exactly the contract the paper's profiler has against physical
/// hardware. `icm-workloads` implements it over the simulated testbed;
/// a real deployment could implement it over `ssh` and a job scheduler.
///
/// All methods take `&mut self` because measurement advances the
/// testbed's run counter (every run observes fresh noise).
pub trait Testbed {
    /// Total hosts in the cluster.
    fn cluster_hosts(&self) -> usize;

    /// Number of calibrated bubble pressure levels (8 in the paper).
    fn max_pressure(&self) -> usize;

    /// Runs `app` once per pressure vector, in order, as
    /// [`run_app`](Self::run_app) would one at a time; returns the
    /// seconds of each run. The runs are independent, so an
    /// implementation may measure them concurrently, as long as it
    /// reports what the one-at-a-time loop would: the same seconds, and
    /// the first error (discarding the runs after it).
    ///
    /// # Errors
    ///
    /// Implementations report unknown applications, malformed vectors, or
    /// execution failures as [`ModelError::Testbed`].
    fn run_apps(&mut self, app: &str, pressures: &[Vec<f64>]) -> Result<Vec<f64>, ModelError>;

    /// Runs `app` on exactly `pressures.len()` hosts, with a bubble of
    /// pressure `pressures[k]` co-located on the app's `k`-th host
    /// (`0` = no bubble). Returns wall-clock seconds. A one-run
    /// [`run_apps`](Self::run_apps).
    ///
    /// # Errors
    ///
    /// See [`run_apps`](Self::run_apps).
    fn run_app(&mut self, app: &str, pressures: &[f64]) -> Result<f64, ModelError> {
        Ok(self.run_apps(app, &[pressures.to_vec()])?[0])
    }

    /// Measures the reporter bubble's slowdown when co-located with
    /// `app` (averaged over the app's hosts); the input to bubble scoring.
    ///
    /// # Errors
    ///
    /// See [`run_apps`](Self::run_apps).
    fn reporter_slowdown_with_app(&mut self, app: &str) -> Result<f64, ModelError>;

    /// Measures the reporter bubble's slowdown when co-located with a
    /// bubble of `pressure`; sweeping pressures yields the
    /// [`ReporterCurve`](crate::ReporterCurve).
    ///
    /// # Errors
    ///
    /// See [`run_apps`](Self::run_apps).
    fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, ModelError>;
}

#[cfg(test)]
pub(crate) mod mock {
    use super::*;

    /// A deterministic analytic testbed for unit-testing model
    /// construction without the simulator crates.
    ///
    /// The synthetic application has base runtime 100 s, a saturating
    /// high-propagation response, and a generated intensity equivalent to
    /// bubble pressure ≈ `generated_score`.
    #[derive(Debug, Clone)]
    pub struct MockTestbed {
        pub hosts: usize,
        pub max_pressure: usize,
        pub generated_score: f64,
        pub coupling: f64,
        pub severity: f64,
        pub calls: usize,
        /// The pressure vector of the latest run.
        pub last_run: Vec<f64>,
    }

    impl Default for MockTestbed {
        fn default() -> Self {
            Self {
                hosts: 8,
                max_pressure: 8,
                generated_score: 3.5,
                coupling: 0.9,
                severity: 0.08,
                calls: 0,
                last_run: Vec::new(),
            }
        }
    }

    impl MockTestbed {
        /// Per-node slowdown under bubble pressure `p`.
        fn node_slowdown(&self, p: f64) -> f64 {
            1.0 + self.severity * p
        }

        /// Ground-truth normalized runtime for a pressure vector —
        /// coupling × max + (1 − coupling) × mean of node slowdowns.
        pub fn truth(&self, pressures: &[f64]) -> f64 {
            let slows: Vec<f64> = pressures.iter().map(|&p| self.node_slowdown(p)).collect();
            let max = slows.iter().cloned().fold(1.0f64, f64::max);
            let mean = slows.iter().sum::<f64>() / slows.len() as f64;
            self.coupling * max + (1.0 - self.coupling) * mean
        }

        fn reporter_slowdown(&self, pressure: f64) -> f64 {
            1.0 + 0.06 * pressure
        }
    }

    impl Testbed for MockTestbed {
        fn cluster_hosts(&self) -> usize {
            self.hosts
        }

        fn max_pressure(&self) -> usize {
            self.max_pressure
        }

        fn run_apps(&mut self, _app: &str, pressures: &[Vec<f64>]) -> Result<Vec<f64>, ModelError> {
            pressures
                .iter()
                .map(|p| {
                    self.calls += 1;
                    self.last_run.clone_from(p);
                    if p.is_empty() {
                        return Err(ModelError::Testbed("empty pressure vector".into()));
                    }
                    Ok(100.0 * self.truth(p))
                })
                .collect()
        }

        fn reporter_slowdown_with_app(&mut self, _app: &str) -> Result<f64, ModelError> {
            self.calls += 1;
            Ok(self.reporter_slowdown(self.generated_score))
        }

        fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, ModelError> {
            self.calls += 1;
            Ok(self.reporter_slowdown(pressure))
        }
    }
}
