//! The supervised world: the one fleet the daemon, the endurance run
//! and the recovery sweep supervise, the manager defaults they share,
//! the daemon's configuration, and the co-location context its
//! `predict` answers rest on (`place` runs the manager's
//! [`icm_manager::objective::FleetObjective`]).
//!
//! Which applications are supervised, at what span and slot count, how
//! they are profiled, and with which manager settings is decided here
//! once. Each caller states only what really differs: its horizon
//! (`ticks`), its scripted environment (the recovery and endurance
//! runs' [`half_cluster_drift`]), and — for the daemon — the default
//! drift detector. The world is built deterministically from a seed,
//! so a daemon restarted from scratch with the same [`ServerConfig`]
//! reconstructs the same world bit for bit, and equals the endurance
//! run's fleet for the same seed.

use icm_core::model::ModelBuilder;
use icm_core::{DriftConfig, OnlineModel, ProfilingAlgorithm};
use icm_manager::{EnvironmentDrift, Fleet, ManagedApp, ManagedRun, ManagerConfig};
use icm_simcluster::SimTestbed;
use icm_workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};

use crate::error::ServerError;

/// Hosts every supervised application spans.
pub const SPAN: usize = 4;
/// Placement slots per host.
pub const SLOTS_PER_HOST: usize = 2;

/// One supervised application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppSpec {
    /// Catalog name.
    pub name: String,
    /// Shedding priority (higher survives longer).
    pub priority: u32,
}

icm_json::impl_json!(struct AppSpec { name, priority });

/// The supervised applications with their shedding priorities (higher
/// survives longer).
pub fn supervised_apps(fast: bool) -> Vec<AppSpec> {
    let apps: &[(&str, u32)] = if fast {
        &[("M.milc", 2), ("H.KM", 1)]
    } else {
        &[("M.milc", 3), ("M.Gems", 2), ("H.KM", 1)]
    };
    apps.iter()
        .map(|&(name, priority)| AppSpec {
            name: name.to_owned(),
            priority,
        })
        .collect()
}

/// The manager settings every supervised run shares: warm search
/// budgets, SLO hysteresis, the QoS contract and a sensitive drift
/// detector. `ticks` is the default's and there is no environment;
/// callers override what differs.
pub fn base_manager_config(seed: u64, fast: bool) -> ManagerConfig {
    ManagerConfig {
        seed,
        initial_iterations: if fast { 600 } else { 1500 },
        reanneal_iterations: if fast { 250 } else { 400 },
        drift: DriftConfig {
            threshold: 0.2,
            trip_after: 2,
        },
        slo_trip_after: 2,
        qos_fraction: 0.6,
        ..ManagerConfig::default()
    }
}

/// Ambient bubble pressure `pressure` on the first half of `hosts`
/// hosts from tick `from_tick` on, so re-placement has somewhere quiet
/// to go.
pub fn half_cluster_drift(hosts: usize, pressure: f64, from_tick: u64) -> EnvironmentDrift {
    EnvironmentDrift {
        from_tick,
        pressures: (0..hosts)
            .map(|h| if h < hosts / 2 { pressure } else { 0.0 })
            .collect(),
    }
}

/// Profiles `apps` on the paper's 8-host private testbed at `seed`,
/// each at the deployment span, and packs them into a fleet. Returns
/// the testbed positioned after profiling, and the fleet.
///
/// # Errors
///
/// Model and fleet-geometry failures.
pub fn build_fleet(
    apps: &[AppSpec],
    seed: u64,
    fast: bool,
) -> Result<(SimTestbedAdapter, Fleet), ServerError> {
    let mut adapter = TestbedBuilder::new(&Catalog::paper()).seed(seed).build();
    let mut built: Vec<(&str, icm_core::InterferenceModel)> = Vec::new();
    let mut managed = Vec::with_capacity(apps.len());
    for spec in apps {
        let model = match built.iter().find(|(name, _)| *name == spec.name) {
            Some((_, model)) => model.clone(),
            None => {
                let mut builder = ModelBuilder::new(spec.name.as_str());
                builder
                    .algorithm(ProfilingAlgorithm::BinaryOptimized)
                    .policy_samples(if fast { 12 } else { 60 })
                    .solo_repeats(if fast { 1 } else { 3 })
                    .seed(seed.wrapping_add(0x40DE1))
                    .hosts(SPAN);
                let model = builder.build(&mut adapter)?;
                built.push((&spec.name, model.clone()));
                model
            }
        };
        managed.push(ManagedApp::new(
            spec.name.clone(),
            spec.priority,
            OnlineModel::new(model),
        ));
    }
    let hosts = adapter.sim().cluster().hosts();
    let fleet = Fleet::new(hosts, SLOTS_PER_HOST, SPAN, managed)?;
    Ok((adapter, fleet))
}

/// Daemon configuration. Everything that shapes deterministic behavior
/// lives here and travels inside every snapshot, so a resumed daemon
/// can never disagree with the world it is resuming.
///
/// The restart rule: the checkpoint owns what shapes replies (`seed`,
/// `fast`, `apps` and `queue_capacity`), and a restart that names
/// another value for one of them is refused with
/// [`ServerError::ConfigMismatch`]. The cache bounds and the saturation
/// threshold shape replies too, but they are constants
/// ([`crate::cache::CACHE_CAPACITY`], [`crate::cache::CACHE_MAX_AGE_US`],
/// [`crate::server::SATURATION_US`]), so no restart can name another
/// value. The process owns checkpoint cadence,
/// retention and sync (`checkpoint_every`, `keep_checkpoints`, `sync`):
/// a restarted daemon runs on the values it was started with, and its
/// later checkpoints record them.
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
    /// Committed replies between [`WorldSnapshot`]-carrying
    /// checkpoints; `0` disables checkpointing.
    ///
    /// [`WorldSnapshot`]: icm_manager::snapshot::WorldSnapshot
    pub checkpoint_every: u64,
    /// Checkpoint generations to keep when pruning.
    pub keep_checkpoints: usize,
    /// The daemon's one durability setting: fsync the journal and the
    /// intake log on every append, and each checkpoint generation (file,
    /// then directory) before it counts as written. On for real daemons;
    /// off (`icm-server --no-sync`) for in-process load drivers and
    /// benches, where every write still lands atomically but may not
    /// survive power loss.
    pub sync: bool,
}

icm_json::impl_json!(struct ServerConfig {
    seed,
    fast,
    apps,
    queue_capacity,
    checkpoint_every,
    keep_checkpoints,
    sync,
});

impl ServerConfig {
    /// The default daemon configuration for a seed: a small supervised
    /// fleet, an 8-deep queue, checkpoints every 32 commits keeping the
    /// last 4 generations.
    pub fn new(seed: u64, fast: bool) -> Self {
        Self {
            seed,
            fast,
            apps: supervised_apps(fast),
            queue_capacity: 8,
            checkpoint_every: 32,
            keep_checkpoints: 4,
            sync: true,
        }
    }

    /// The configuration a daemon started with `self` resumes a
    /// checkpoint written under `checkpoint` with, by the restart rule:
    /// `seed`, `fast`, `apps` and `queue_capacity` are the checkpoint's
    /// and must equal `self`'s, and `checkpoint_every`,
    /// `keep_checkpoints` and `sync` are `self`'s.
    pub(crate) fn resume(&self, checkpoint: Self) -> Result<Self, ServerError> {
        let resumed = Self {
            checkpoint_every: self.checkpoint_every,
            keep_checkpoints: self.keep_checkpoints,
            sync: self.sync,
            ..checkpoint
        };
        let (given, kept) = (icm_json::to_value(self), icm_json::to_value(&resumed));
        let fields = given.as_object().unwrap_or_default().iter();
        let Some(((field, given), (_, kept))) = fields
            .zip(kept.as_object().unwrap_or_default())
            .find(|(g, k)| g != k)
        else {
            return Ok(resumed);
        };
        Err(ServerError::ConfigMismatch {
            field: field.clone(),
            checkpoint: icm_json::to_string(kept),
            given: icm_json::to_string(given),
        })
    }

    /// The manager configuration the supervised run uses: the shared
    /// defaults with an effectively unbounded horizon (the daemon ticks
    /// on demand), the default drift detector, and no scripted
    /// environment drift.
    pub fn manager_config(&self) -> ManagerConfig {
        ManagerConfig {
            ticks: 1_000_000,
            drift: DriftConfig::default(),
            ..base_manager_config(self.seed, self.fast)
        }
    }
}

/// Builds the daemon's world from scratch: the supervised fleet
/// ([`build_fleet`]) and its cold initial placement.
///
/// # Errors
///
/// Model, fleet-geometry and manager failures.
pub fn build_world(
    config: &ServerConfig,
) -> Result<(SimTestbed, Fleet, ManagerConfig, ManagedRun), ServerError> {
    let (adapter, fleet) = build_fleet(&config.apps, config.seed, config.fast)?;
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
