//! The small supervised test fleet the recovery, provenance and
//! telemetry suites share: cheaply profiled models on the paper's
//! testbed and a manager configuration lenient enough that a fault-free
//! run never reacts.

use icm_core::model::ModelBuilder;
use icm_core::{DriftConfig, OnlineModel};
use icm_manager::{ManagedApp, ManagerConfig};
use icm_workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};

/// Hosts every test application spans.
pub const SPAN: usize = 4;

/// The paper's private testbed at `seed`.
pub fn testbed(seed: u64) -> SimTestbedAdapter {
    TestbedBuilder::new(&Catalog::paper()).seed(seed).build()
}

/// Profiles `names` (with their shedding priorities) on `tb`.
pub fn managed_apps(tb: &mut SimTestbedAdapter, names: &[(&str, u32)]) -> Vec<ManagedApp> {
    names
        .iter()
        .map(|&(name, priority)| {
            let model = ModelBuilder::new(name)
                .hosts(SPAN)
                .policy_samples(6)
                .solo_repeats(1)
                .score_repeats(1)
                .seed(0xFEED)
                .build(tb)
                .expect("model builds");
            ManagedApp::new(name, priority, OnlineModel::new(model))
        })
        .collect()
}

/// A generous QoS bound and a drift detector that only trips on gross
/// mispredictions.
pub fn lenient(ticks: u64) -> ManagerConfig {
    ManagerConfig {
        ticks,
        initial_iterations: 600,
        reanneal_iterations: 250,
        qos_fraction: 0.5,
        drift: DriftConfig {
            threshold: 0.5,
            ..DriftConfig::default()
        },
        ..ManagerConfig::default()
    }
}
