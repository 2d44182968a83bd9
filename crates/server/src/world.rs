//! The daemon's world: configuration, fleet construction, and the
//! co-location context its `predict` answers rest on (`place` runs the
//! manager's [`icm_manager::objective::FleetObjective`]).
//!
//! The server owns exactly what the endurance experiment owns — a
//! simulated testbed, a supervised [`Fleet`] with online models, and a
//! resumable [`icm_manager::ManagedRun`] — built deterministically from
//! a seed, so a daemon restarted from scratch with the same
//! [`ServerConfig`] reconstructs the same world bit for bit.

use icm_core::model::ModelBuilder;
use icm_core::{OnlineModel, ProfilingAlgorithm};
use icm_manager::{Fleet, ManagedApp, ManagedRun, ManagerConfig};
use icm_placement::QosConfig;
use icm_simcluster::SimTestbed;
use icm_workloads::{Catalog, TestbedBuilder};

use crate::error::ServerError;

/// Hosts every supervised application spans.
pub const SPAN: usize = 4;
/// Placement slots per host.
pub const SLOTS_PER_HOST: usize = 2;

/// One application the daemon supervises.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Catalog name.
    pub name: String,
    /// Shedding priority (higher survives longer).
    pub priority: u32,
}

icm_json::impl_json!(struct AppSpec { name, priority });

/// Daemon configuration. Everything that shapes deterministic behavior
/// lives here and travels inside every snapshot, so a resumed daemon
/// can never disagree with the world it is resuming.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Master seed for testbed, profiling and placement randomness.
    pub seed: u64,
    /// Reduced profiling grids for smoke tests and CI.
    pub fast: bool,
    /// The supervised applications.
    pub apps: Vec<AppSpec>,
    /// Bounded request-queue capacity (requests).
    pub queue_capacity: usize,
    /// LRU prediction-cache capacity (entries).
    pub cache_capacity: usize,
    /// Oldest cached prediction the degraded path may serve, in virtual
    /// microseconds.
    pub cache_max_age_us: u64,
    /// Queue backlog (virtual microseconds of pending service) beyond
    /// which `predict` degrades to the cache.
    pub saturation_us: u64,
    /// Committed replies between [`WorldSnapshot`]-carrying
    /// checkpoints; `0` disables checkpointing.
    ///
    /// [`WorldSnapshot`]: icm_manager::snapshot::WorldSnapshot
    pub checkpoint_every: u64,
    /// Checkpoint generations to keep when pruning.
    pub keep_checkpoints: usize,
    /// fsync the journal and intake log on every append. On for real
    /// daemons; off for in-process load drivers and benches.
    pub sync: bool,
}

icm_json::impl_json!(struct ServerConfig {
    seed,
    fast,
    apps,
    queue_capacity,
    cache_capacity,
    cache_max_age_us,
    saturation_us,
    checkpoint_every,
    keep_checkpoints,
    sync,
});

impl ServerConfig {
    /// The default daemon configuration for a seed: a small supervised
    /// fleet, an 8-deep queue, a 64-entry cache serving entries up to
    /// 60 virtual seconds stale, checkpoints every 32 commits keeping
    /// the last 4 generations.
    pub fn new(seed: u64, fast: bool) -> Self {
        let apps = if fast {
            vec![("M.milc", 2), ("H.KM", 1)]
        } else {
            vec![("M.milc", 3), ("M.Gems", 2), ("H.KM", 1)]
        };
        Self {
            seed,
            fast,
            apps: apps
                .into_iter()
                .map(|(name, priority)| AppSpec {
                    name: name.to_owned(),
                    priority,
                })
                .collect(),
            queue_capacity: 8,
            cache_capacity: 64,
            cache_max_age_us: 60_000_000,
            saturation_us: 4_000,
            checkpoint_every: 32,
            keep_checkpoints: 4,
            sync: true,
        }
    }

    /// The manager configuration the supervised run uses: an
    /// effectively unbounded horizon (the daemon ticks on demand), warm
    /// re-anneal budgets, no scripted environment drift.
    pub fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            ticks: 1_000_000,
            seed: self.seed,
            migration_cost_s: 30.0,
            initial_iterations: if self.fast { 600 } else { 1500 },
            reanneal_iterations: if self.fast { 250 } else { 400 },
            slo_trip_after: 2,
            qos: QosConfig {
                qos_fraction: 0.6,
                ..QosConfig::default()
            },
            environment: None,
            ..ManagerConfig::default()
        }
    }
}

/// Builds the daemon's world from scratch: profiles every supervised
/// application on the paper's 8-host private testbed at the deployment
/// span, packs the fleet, and runs the cold initial placement.
///
/// # Errors
///
/// Model, fleet-geometry and manager failures.
pub fn build_world(
    config: &ServerConfig,
) -> Result<(SimTestbed, Fleet, ManagerConfig, ManagedRun), ServerError> {
    let mut adapter = TestbedBuilder::new(&Catalog::paper())
        .seed(config.seed)
        .build();
    let hosts = adapter.sim().cluster().hosts();
    let mut managed = Vec::with_capacity(config.apps.len());
    let mut built: Vec<(String, icm_core::InterferenceModel)> = Vec::new();
    for spec in &config.apps {
        let model = match built.iter().find(|(name, _)| name == &spec.name) {
            Some((_, model)) => model.clone(),
            None => {
                let mut builder = ModelBuilder::new(spec.name.as_str());
                builder
                    .algorithm(ProfilingAlgorithm::BinaryOptimized)
                    .policy_samples(if config.fast { 12 } else { 60 })
                    .solo_repeats(if config.fast { 1 } else { 3 })
                    .seed(config.seed.wrapping_add(0x40DE1))
                    .hosts(SPAN);
                let model = builder.build(&mut adapter)?;
                built.push((spec.name.clone(), model.clone()));
                model
            }
        };
        managed.push(ManagedApp::new(
            spec.name.clone(),
            spec.priority,
            OnlineModel::new(model),
        ));
    }
    let fleet = Fleet::new(hosts, SLOTS_PER_HOST, SPAN, managed)?;
    let testbed = adapter.into_sim();
    let manager_config = config.manager_config();
    let run = ManagedRun::start(&testbed, &fleet, &manager_config, true)?;
    Ok((testbed, fleet, manager_config, run))
}

/// The co-location context of one fleet application under a declared
/// co-runner set: the bubble-pressure vector on every host of its span
/// and the co-runner signature key the online model's per-key
/// corrections hang off.
///
/// Returns `None` when `app` or a co-runner is not in the fleet.
pub fn context_for(
    fleet: &Fleet,
    app: &str,
    corunners: &[String],
) -> Option<(usize, Vec<f64>, String)> {
    let index = fleet.apps().iter().position(|a| a.name == app)?;
    let mut names: Vec<&str> = Vec::new();
    let mut pressure = 0.0;
    for corunner in corunners {
        let other = fleet.apps().iter().find(|a| &a.name == corunner)?;
        if names.contains(&other.name.as_str()) {
            continue;
        }
        names.push(other.name.as_str());
        pressure += other.online.base().bubble_score();
    }
    names.sort_unstable();
    let key = if names.is_empty() {
        "none".to_owned()
    } else {
        names.join("+")
    };
    Some((index, vec![pressure; fleet.span()], key))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_round_trips_through_json() {
        let config = ServerConfig::new(2016, true);
        let text = icm_json::to_string(&config);
        let back: ServerConfig = icm_json::from_str(&text).expect("round-trips");
        assert_eq!(config, back);
    }

    #[test]
    fn context_resolves_fleet_members_and_refuses_strangers() {
        let config = ServerConfig::new(2016, true);
        let (_, fleet, _, _) = build_world(&config).expect("builds");
        let (index, pressures, key) =
            context_for(&fleet, "M.milc", &["H.KM".to_owned()]).expect("resolves");
        assert_eq!(index, 0);
        assert_eq!(pressures.len(), SPAN);
        assert!(pressures[0] > 0.0);
        assert_eq!(key, "H.KM");
        let (_, zero, none_key) = context_for(&fleet, "H.KM", &[]).expect("resolves");
        assert_eq!(none_key, "none");
        assert_eq!(zero, vec![0.0; SPAN]);
        assert!(context_for(&fleet, "nope", &[]).is_none());
        assert!(context_for(&fleet, "M.milc", &["nope".to_owned()]).is_none());
    }
}
