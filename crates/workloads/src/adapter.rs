//! Bridges the simulated cluster ([`icm_simcluster::SimTestbed`]) to the
//! model-building interface ([`icm_core::Testbed`]).

use icm_core::{ModelError, Testbed};
use icm_simcluster::{ClusterSpec, Deployment, Placement, SimTestbed, TestbedError};
use icm_simnode::MAX_PRESSURE;

use crate::catalog::Catalog;

/// Builds a ready-to-profile simulated testbed with a catalog's
/// applications registered.
///
/// # Example
///
/// ```
/// use icm_workloads::{Catalog, TestbedBuilder};
///
/// let catalog = Catalog::paper();
/// let mut testbed = TestbedBuilder::new(&catalog).seed(1).build();
/// assert_eq!(icm_core::Testbed::cluster_hosts(&testbed), 8);
/// ```
#[derive(Debug, Clone)]
pub struct TestbedBuilder {
    catalog: Catalog,
    cluster: ClusterSpec,
    seed: u64,
}

impl TestbedBuilder {
    /// Starts from a catalog, targeting the paper's private 8-host
    /// cluster.
    pub fn new(catalog: &Catalog) -> Self {
        Self {
            catalog: catalog.clone(),
            cluster: ClusterSpec::private8(),
            seed: 0,
        }
    }

    /// Uses a different cluster (e.g. [`ClusterSpec::ec2_32`]).
    pub fn cluster(&mut self, cluster: ClusterSpec) -> &mut Self {
        self.cluster = cluster;
        self
    }

    /// Master noise seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Builds the adapter around a fresh simulated testbed.
    pub fn build(&self) -> SimTestbedAdapter {
        let mut sim = SimTestbed::new(self.cluster.clone(), self.seed);
        for workload in &self.catalog {
            sim.register_app(workload.app().clone());
        }
        SimTestbedAdapter { sim }
    }
}

/// A [`SimTestbed`] exposed through the [`icm_core::Testbed`] profiling
/// interface, while keeping the simulator's richer co-run/deployment
/// operations reachable via [`sim`](SimTestbedAdapter::sim) /
/// [`sim_mut`](SimTestbedAdapter::sim_mut) for validation experiments.
#[derive(Debug, Clone)]
pub struct SimTestbedAdapter {
    sim: SimTestbed,
}

impl SimTestbedAdapter {
    /// Read access to the underlying simulator.
    pub fn sim(&self) -> &SimTestbed {
        &self.sim
    }

    /// Full access to the underlying simulator (pair runs, deployments,
    /// stats).
    pub fn sim_mut(&mut self) -> &mut SimTestbed {
        &mut self.sim
    }

    /// Consumes the adapter, returning the simulator.
    pub fn into_sim(self) -> SimTestbed {
        self.sim
    }
}

fn convert_err(err: TestbedError) -> ModelError {
    ModelError::Testbed(err.to_string())
}

impl Testbed for SimTestbedAdapter {
    fn cluster_hosts(&self) -> usize {
        self.sim.cluster().hosts()
    }

    fn max_pressure(&self) -> usize {
        usize::from(MAX_PRESSURE)
    }

    fn run_apps(&mut self, app: &str, pressures: &[Vec<f64>]) -> Result<Vec<f64>, ModelError> {
        let cluster_hosts = self.sim.cluster().hosts();
        // A vector of a bad span fails where a one-at-a-time loop would:
        // after the runs before it.
        let spans = 1..=cluster_hosts;
        let valid = pressures
            .iter()
            .take_while(|p| spans.contains(&p.len()))
            .count();
        let deployments: Vec<Deployment> = pressures[..valid]
            .iter()
            .map(|p| {
                let mut bubbles = vec![0.0; cluster_hosts];
                bubbles[..p.len()].copy_from_slice(p);
                Deployment {
                    placements: vec![Placement::new(app, (0..p.len()).collect())],
                    bubbles,
                }
            })
            .collect();
        let runs = self
            .sim
            .run_deployments(&deployments)
            .map_err(convert_err)?;
        if let Some(bad) = pressures.get(valid) {
            return Err(ModelError::Testbed(format!(
                "app must span 1..={cluster_hosts} hosts, got {}",
                bad.len()
            )));
        }
        Ok(runs.iter().map(|r| r[0].seconds).collect())
    }

    fn reporter_slowdown_with_app(&mut self, app: &str) -> Result<f64, ModelError> {
        self.sim
            .reporter_slowdown_with_app(app)
            .map_err(convert_err)
    }

    fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, ModelError> {
        self.sim
            .reporter_slowdown_with_bubble(pressure)
            .map_err(convert_err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn adapter() -> SimTestbedAdapter {
        TestbedBuilder::new(&Catalog::paper()).seed(3).build()
    }

    #[test]
    fn adapter_reports_cluster_shape() {
        let tb = adapter();
        assert_eq!(tb.cluster_hosts(), 8);
        assert_eq!(Testbed::max_pressure(&tb), 8);
    }

    #[test]
    fn ec2_cluster_option() {
        let mut builder = TestbedBuilder::new(&Catalog::paper());
        builder.cluster(ClusterSpec::ec2_32());
        let tb = builder.build();
        assert_eq!(tb.cluster_hosts(), 32);
    }

    #[test]
    fn run_app_spans_pressures_len_hosts() {
        let mut tb = adapter();
        let four = tb.run_app("M.milc", &[0.0; 4]).expect("runs");
        let eight = tb.run_app("M.milc", &[0.0; 8]).expect("runs");
        // Both are solo runs of the same app; base runtime is
        // span-independent in the simulator (fixed total work per node).
        assert!((four - eight).abs() / eight < 0.1);
    }

    #[test]
    fn run_app_rejects_bad_span() {
        let mut tb = adapter();
        assert!(tb.run_app("M.milc", &[]).is_err());
        assert!(tb.run_app("M.milc", &[0.0; 9]).is_err());
    }

    #[test]
    fn a_bad_span_in_a_batch_fails_after_the_runs_before_it() {
        let mut batched = adapter();
        let mut alone = adapter();
        let err = batched
            .run_apps("M.milc", &[vec![0.0; 8], vec![0.0; 9], vec![0.0; 8]])
            .unwrap_err();
        assert_eq!(err, alone.run_app("M.milc", &[0.0; 9]).unwrap_err());
        alone.run_app("M.milc", &[0.0; 8]).expect("runs");
        assert_eq!(batched.sim().peek_run(), 2, "only the first run ran");
        assert_eq!(batched.sim().stats(), alone.sim().stats());
    }

    #[test]
    fn unknown_app_maps_to_model_error() {
        let mut tb = adapter();
        let err = tb.run_app("ghost", &[0.0; 8]).unwrap_err();
        assert!(matches!(err, ModelError::Testbed(_)));
        assert!(err.to_string().contains("ghost"));
    }

    #[test]
    fn interference_slows_runs_through_the_adapter() {
        let mut tb = adapter();
        let solo = tb.run_app("M.milc", &[0.0; 8]).expect("runs");
        let loaded = tb.run_app("M.milc", &[8.0; 8]).expect("runs");
        assert!(loaded / solo > 1.2, "got ratio {}", loaded / solo);
    }

    #[test]
    fn reporter_methods_forward() {
        let mut tb = adapter();
        let quiet = tb.reporter_slowdown_with_bubble(0.0).expect("valid");
        let loud = tb.reporter_slowdown_with_bubble(8.0).expect("valid");
        assert!(loud > quiet);
        let with_app = tb.reporter_slowdown_with_app("C.libq").expect("valid");
        assert!(
            with_app > 1.1,
            "libq must hammer the reporter, got {with_app}"
        );
    }

    #[test]
    fn sim_access_allows_pair_runs() {
        let mut tb = adapter();
        let (a, b) = tb.sim_mut().run_pair("M.milc", "C.libq").expect("runs");
        assert!(a > 0.0 && b > 0.0);
        assert!(tb.sim().stats().runs > 0);
    }
}
