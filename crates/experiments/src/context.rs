//! Shared setup for all experiments: configuration, testbeds and model
//! suites.

use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

use icm_core::model::ModelBuilder;
use icm_core::{Calibration, InterferenceModel, ModelError, ProfilingAlgorithm};
use icm_simcluster::ClusterSpec;
use icm_workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};

/// Experiment configuration shared by every table/figure generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExpConfig {
    /// Master seed; all randomness (testbed noise, sampling, search)
    /// derives from it, so every experiment is exactly reproducible.
    pub seed: u64,
    /// Reduced grids and sample counts for smoke tests and CI.
    pub fast: bool,
}

impl Default for ExpConfig {
    fn default() -> Self {
        Self {
            seed: 2016, // the paper's year; any fixed value works
            fast: false,
        }
    }
}

impl ExpConfig {
    /// Number of heterogeneous samples for policy selection
    /// (paper: 60 on the private cluster).
    pub fn policy_samples(&self) -> usize {
        if self.fast {
            12
        } else {
            60
        }
    }

    /// Number of repeats when averaging noisy measurements.
    pub fn repeats(&self) -> usize {
        if self.fast {
            1
        } else {
            3
        }
    }
}

/// Error type for experiment execution.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpError {
    message: String,
}

impl ExpError {
    /// Creates an error from any displayable cause.
    pub fn new(message: impl fmt::Display) -> Self {
        Self {
            message: message.to_string(),
        }
    }
}

impl fmt::Display for ExpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "experiment failed: {}", self.message)
    }
}

impl Error for ExpError {}

impl From<ModelError> for ExpError {
    fn from(err: ModelError) -> Self {
        Self::new(err)
    }
}

impl From<icm_simcluster::TestbedError> for ExpError {
    fn from(err: icm_simcluster::TestbedError) -> Self {
        Self::new(err)
    }
}

impl From<icm_placement::PlacementError> for ExpError {
    fn from(err: icm_placement::PlacementError) -> Self {
        Self::new(err)
    }
}

impl From<icm_manager::ManagerError> for ExpError {
    fn from(err: icm_manager::ManagerError) -> Self {
        Self::new(err)
    }
}

impl From<icm_server::ServerError> for ExpError {
    fn from(err: icm_server::ServerError) -> Self {
        Self::new(err)
    }
}

/// Builds the paper's private 8-host testbed with the full catalog.
pub fn private_testbed(cfg: &ExpConfig) -> SimTestbedAdapter {
    TestbedBuilder::new(&Catalog::paper())
        .seed(cfg.seed)
        .build()
}

/// Builds the EC2-style 32-host testbed with the full catalog.
pub fn ec2_testbed(cfg: &ExpConfig) -> SimTestbedAdapter {
    TestbedBuilder::new(&Catalog::paper())
        .cluster(ClusterSpec::ec2_32())
        .seed(cfg.seed.wrapping_add(0xEC2))
        .build()
}

/// Builds interference models for the given applications.
///
/// `hosts` is the application span during profiling (`None` = whole
/// cluster); the placement studies profile at the 4-host span they
/// deploy with.
///
/// # Errors
///
/// Propagates model-construction failures.
pub fn build_models(
    testbed: &mut SimTestbedAdapter,
    apps: &[&str],
    hosts: Option<usize>,
    cfg: &ExpConfig,
) -> Result<BTreeMap<String, InterferenceModel>, ExpError> {
    let mut models = BTreeMap::new();
    for &app in apps {
        if models.contains_key(app) {
            continue; // mixes may repeat a workload (HM3)
        }
        let mut builder = ModelBuilder::new(app);
        builder
            .algorithm(ProfilingAlgorithm::BinaryOptimized)
            .policy_samples(cfg.policy_samples())
            .solo_repeats(cfg.repeats())
            .seed(cfg.seed.wrapping_add(0x40DE1));
        if let Some(h) = hosts {
            builder.hosts(h);
        }
        let model = builder.build(testbed)?;
        models.insert(app.to_owned(), model);
    }
    Ok(models)
}

/// Each distinct app's bubble score, measured once through `calibration`
/// in first-appearance order however often the app recurs in `apps`.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn score_each<'a>(
    calibration: &Calibration,
    testbed: &mut SimTestbedAdapter,
    apps: impl IntoIterator<Item = &'a str>,
    repeats: usize,
) -> Result<BTreeMap<&'a str, f64>, ExpError> {
    let mut scores = BTreeMap::new();
    for app in apps {
        if !scores.contains_key(app) {
            scores.insert(app, calibration.score(testbed, app, repeats)?);
        }
    }
    Ok(scores)
}

/// The 12 distributed application names, catalog order.
pub fn distributed_apps() -> Vec<String> {
    Catalog::paper()
        .distributed()
        .iter()
        .map(|w| w.name().to_owned())
        .collect()
}

/// All 18 application names, catalog order.
pub fn all_apps() -> Vec<String> {
    Catalog::paper()
        .names()
        .into_iter()
        .map(str::to_owned)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_scales_with_fast_mode() {
        let slow = ExpConfig::default();
        let fast = ExpConfig { fast: true, ..slow };
        assert!(fast.policy_samples() < slow.policy_samples());
        assert!(fast.repeats() <= slow.repeats());
    }

    #[test]
    fn testbeds_have_expected_shapes() {
        let cfg = ExpConfig::default();
        assert_eq!(private_testbed(&cfg).sim().cluster().hosts(), 8);
        assert_eq!(ec2_testbed(&cfg).sim().cluster().hosts(), 32);
    }

    #[test]
    fn app_lists() {
        assert_eq!(distributed_apps().len(), 12);
        assert_eq!(all_apps().len(), 18);
    }

    #[test]
    fn build_models_deduplicates_names() {
        let cfg = ExpConfig {
            fast: true,
            ..ExpConfig::default()
        };
        let mut tb = private_testbed(&cfg);
        let models = build_models(&mut tb, &["H.KM", "H.KM"], Some(4), &cfg).expect("builds");
        assert_eq!(models.len(), 1);
        assert_eq!(models["H.KM"].hosts(), 4);
    }

    #[test]
    fn error_conversions() {
        let err: ExpError = ModelError::InvalidData("x".into()).into();
        assert!(err.to_string().contains('x'));
    }
}
