use icm_simnode::MemoryProfile;

use crate::sync::{PhaseModulation, SyncPattern};

/// Role of the first node an application occupies.
///
/// MPI applications compute on every rank including rank 0; Hadoop and
/// Spark have a master/driver that coordinates but processes little data
/// (§3.4 of the paper), which both lowers the interference the application
/// generates on that node and removes the node from the worker pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MasterBehavior {
    /// Rank 0 is an ordinary worker (MPI style).
    Participates,
    /// The first node only coordinates; its memory demand is the worker
    /// demand scaled by `demand_frac`, and it executes no tasks.
    Coordinator {
        /// Fraction of a worker's memory demand the master exerts.
        demand_frac: f64,
    },
}

/// The JSON body of [`MasterBehavior::Coordinator`].
struct Coordinator {
    demand_frac: f64,
}
icm_json::impl_json!(struct Coordinator { demand_frac });

impl icm_json::ToJson for MasterBehavior {
    fn write_json(&self, out: &mut String) {
        match *self {
            MasterBehavior::Participates => out.push_str("\"Participates\""),
            MasterBehavior::Coordinator { demand_frac } => {
                icm_json::write_object(out, [("Coordinator", &Coordinator { demand_frac })]);
            }
        }
    }
}

impl icm_json::FromJson for MasterBehavior {
    fn read_json(r: &mut icm_json::Reader<'_>) -> Result<Self, icm_json::JsonError> {
        icm_json::read_variant(r, "MasterBehavior", |name, body| match (name, body) {
            ("Participates", None) => Ok(MasterBehavior::Participates),
            ("Coordinator", Some(r)) => {
                let Coordinator { demand_frac } = icm_json::FromJson::read_json(r)?;
                Ok(MasterBehavior::Coordinator { demand_frac })
            }
            _ => Err(icm_json::unknown_variant("MasterBehavior", name)),
        })
    }
}

/// Full description of one distributed application instance as the
/// simulator executes it.
///
/// An `AppSpec` combines the per-node memory behaviour (what one host's
/// worth of the application's VMs demands from the LLC and memory bus)
/// with the distributed structure (how node slowdowns combine into a final
/// runtime). Construct with [`AppSpec::builder`].
///
/// # Example
///
/// ```
/// use icm_simcluster::{AppSpec, SyncPattern};
/// use icm_simnode::MemoryProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let profile = MemoryProfile::builder().working_set_mb(16.0).build()?;
/// let app = AppSpec::builder("toy")
///     .base_runtime_s(120.0)
///     .worker_profile(profile)
///     .pattern(SyncPattern::high_propagation(40))
///     .build()?;
/// assert_eq!(app.name(), "toy");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AppSpec {
    name: String,
    base_runtime_s: f64,
    worker_profile: MemoryProfile,
    pattern: SyncPattern,
    master: MasterBehavior,
    io_sensitivity: f64,
    cpu_volatility: f64,
    phase_modulation: Option<PhaseModulation>,
}

icm_json::impl_json!(struct AppSpec {
    name,
    base_runtime_s,
    worker_profile,
    pattern,
    master,
    io_sensitivity,
    cpu_volatility,
    phase_modulation,
});

impl AppSpec {
    /// Starts building an application description.
    pub fn builder(name: impl Into<String>) -> AppSpecBuilder {
        AppSpecBuilder::new(name.into())
    }

    /// Application name (catalog key).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Solo, interference-free runtime in seconds.
    pub fn base_runtime_s(&self) -> f64 {
        self.base_runtime_s
    }

    /// Memory profile of one host's worth of worker VMs.
    pub fn worker_profile(&self) -> MemoryProfile {
        self.worker_profile
    }

    /// Distributed synchronization structure.
    pub fn pattern(&self) -> SyncPattern {
        self.pattern
    }

    /// Master-node behaviour.
    pub fn master(&self) -> MasterBehavior {
        self.master
    }

    /// Sensitivity to co-runner CPU-load fluctuation (the `M.Gems`
    /// blocked-I/O/Dom0 effect, §4.3). Zero for almost every application.
    pub fn io_sensitivity(&self) -> f64 {
        self.io_sensitivity
    }

    /// How much this application's own CPU load fluctuates, as felt by
    /// I/O-sensitive co-runners. High for Hadoop/Spark, low for MPI,
    /// zero for the steady bubble.
    pub fn cpu_volatility(&self) -> f64 {
        self.cpu_volatility
    }

    /// Time-varying interference sensitivity of the application's
    /// phases, if any (the §4.4 static-profiling limitation demo).
    pub fn phase_modulation(&self) -> Option<PhaseModulation> {
        self.phase_modulation
    }

    /// Memory profile this application exerts on host `host_index` of the
    /// `total_hosts` it occupies (the master may demand less).
    pub fn profile_on_host(&self, host_index: usize, total_hosts: usize) -> MemoryProfile {
        debug_assert!(host_index < total_hosts);
        match self.master {
            MasterBehavior::Participates => self.worker_profile,
            MasterBehavior::Coordinator { demand_frac } => {
                if host_index == 0 && total_hosts > 1 {
                    self.worker_profile.scaled_demand(demand_frac)
                } else {
                    self.worker_profile
                }
            }
        }
    }

    /// Indices (within the app's host list) of the nodes that execute
    /// work, i.e. all hosts except a non-participating master.
    pub fn worker_hosts(&self, total_hosts: usize) -> Vec<usize> {
        match self.master {
            MasterBehavior::Participates => (0..total_hosts).collect(),
            MasterBehavior::Coordinator { .. } => {
                if total_hosts > 1 {
                    (1..total_hosts).collect()
                } else {
                    vec![0]
                }
            }
        }
    }
}

/// Builder for [`AppSpec`].
#[derive(Debug, Clone)]
pub struct AppSpecBuilder {
    name: String,
    base_runtime_s: f64,
    worker_profile: MemoryProfile,
    pattern: SyncPattern,
    master: MasterBehavior,
    io_sensitivity: f64,
    cpu_volatility: f64,
    phase_modulation: Option<PhaseModulation>,
}

impl AppSpecBuilder {
    fn new(name: String) -> Self {
        Self {
            name,
            base_runtime_s: 100.0,
            worker_profile: MemoryProfile::idle(),
            pattern: SyncPattern::high_propagation(32),
            master: MasterBehavior::Participates,
            io_sensitivity: 0.0,
            cpu_volatility: 0.1,
            phase_modulation: None,
        }
    }

    /// Sets the solo runtime in seconds (> 0).
    pub fn base_runtime_s(&mut self, v: f64) -> &mut Self {
        self.base_runtime_s = v;
        self
    }

    /// Sets the per-host worker memory profile.
    pub fn worker_profile(&mut self, v: MemoryProfile) -> &mut Self {
        self.worker_profile = v;
        self
    }

    /// Sets the synchronization pattern.
    pub fn pattern(&mut self, v: SyncPattern) -> &mut Self {
        self.pattern = v;
        self
    }

    /// Sets the master behaviour.
    pub fn master(&mut self, v: MasterBehavior) -> &mut Self {
        self.master = v;
        self
    }

    /// Sets sensitivity to co-runner CPU volatility (≥ 0).
    pub fn io_sensitivity(&mut self, v: f64) -> &mut Self {
        self.io_sensitivity = v;
        self
    }

    /// Sets this app's own CPU volatility (≥ 0).
    pub fn cpu_volatility(&mut self, v: f64) -> &mut Self {
        self.cpu_volatility = v;
        self
    }

    /// Sets the phase-sensitivity modulation (None = static behaviour).
    pub fn phase_modulation(&mut self, v: Option<PhaseModulation>) -> &mut Self {
        self.phase_modulation = v;
        self
    }

    /// Validates and builds the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant: non-positive
    /// runtime, invalid pattern, out-of-range master demand fraction, or
    /// negative sensitivities.
    pub fn build(&self) -> Result<AppSpec, String> {
        if !(self.base_runtime_s.is_finite() && self.base_runtime_s > 0.0) {
            return Err(format!(
                "base_runtime_s must be positive, got {}",
                self.base_runtime_s
            ));
        }
        self.pattern.validate()?;
        if let MasterBehavior::Coordinator { demand_frac } = self.master {
            if !(0.0..=1.0).contains(&demand_frac) || !demand_frac.is_finite() {
                return Err(format!(
                    "master demand_frac must be in [0,1], got {demand_frac}"
                ));
            }
        }
        if !(self.io_sensitivity.is_finite() && self.io_sensitivity >= 0.0) {
            return Err(format!(
                "io_sensitivity must be non-negative, got {}",
                self.io_sensitivity
            ));
        }
        if !(self.cpu_volatility.is_finite() && self.cpu_volatility >= 0.0) {
            return Err(format!(
                "cpu_volatility must be non-negative, got {}",
                self.cpu_volatility
            ));
        }
        if let Some(m) = self.phase_modulation {
            m.validate()?;
        }
        Ok(AppSpec {
            name: self.name.clone(),
            base_runtime_s: self.base_runtime_s,
            worker_profile: self.worker_profile,
            pattern: self.pattern,
            master: self.master,
            io_sensitivity: self.io_sensitivity,
            cpu_volatility: self.cpu_volatility,
            phase_modulation: self.phase_modulation,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn worker_profile() -> MemoryProfile {
        MemoryProfile::builder()
            .working_set_mb(10.0)
            .build()
            .expect("valid")
    }

    fn mpi_app() -> AppSpec {
        AppSpec::builder("mpi")
            .worker_profile(worker_profile())
            .build()
            .expect("valid")
    }

    fn framework_app() -> AppSpec {
        AppSpec::builder("spark")
            .worker_profile(worker_profile())
            .master(MasterBehavior::Coordinator { demand_frac: 0.25 })
            .pattern(SyncPattern::task_queue(128, 4))
            .build()
            .expect("valid")
    }

    #[test]
    fn mpi_master_participates_everywhere() {
        let app = mpi_app();
        assert_eq!(app.worker_hosts(8), (0..8).collect::<Vec<_>>());
        assert_eq!(app.profile_on_host(0, 8), app.worker_profile());
    }

    #[test]
    fn coordinator_master_demands_less_and_does_no_work() {
        let app = framework_app();
        assert_eq!(app.worker_hosts(8), (1..8).collect::<Vec<_>>());
        let master = app.profile_on_host(0, 8);
        let worker = app.profile_on_host(3, 8);
        assert!(master.working_set_mb() < worker.working_set_mb());
        assert_eq!(worker, app.worker_profile());
    }

    #[test]
    fn single_host_coordinator_still_works() {
        // Degenerate deployment: everything on one host; the master must
        // then also be the worker or nothing would run.
        let app = framework_app();
        assert_eq!(app.worker_hosts(1), vec![0]);
        assert_eq!(app.profile_on_host(0, 1), app.worker_profile());
    }

    #[test]
    fn build_rejects_zero_runtime() {
        let err = AppSpec::builder("x")
            .base_runtime_s(0.0)
            .build()
            .unwrap_err();
        assert!(err.contains("base_runtime_s"));
    }

    #[test]
    fn build_rejects_bad_pattern() {
        let err = AppSpec::builder("x")
            .pattern(SyncPattern::Collective {
                phases: 0,
                coupling: 0.5,
            })
            .build()
            .unwrap_err();
        assert!(err.contains("phases"));
    }

    #[test]
    fn build_rejects_bad_master_fraction() {
        let err = AppSpec::builder("x")
            .master(MasterBehavior::Coordinator { demand_frac: 1.5 })
            .build()
            .unwrap_err();
        assert!(err.contains("demand_frac"));
    }

    #[test]
    fn build_rejects_negative_io_sensitivity() {
        let err = AppSpec::builder("x")
            .io_sensitivity(-0.1)
            .build()
            .unwrap_err();
        assert!(err.contains("io_sensitivity"));
    }

    #[test]
    fn phase_modulation_validated_and_exposed() {
        let good = AppSpec::builder("x")
            .phase_modulation(Some(PhaseModulation {
                amplitude: 0.4,
                period: 6,
            }))
            .build()
            .expect("valid");
        assert_eq!(
            good.phase_modulation(),
            Some(PhaseModulation {
                amplitude: 0.4,
                period: 6
            })
        );
        let bad = AppSpec::builder("x")
            .phase_modulation(Some(PhaseModulation {
                amplitude: 1.5,
                period: 6,
            }))
            .build();
        assert!(bad.is_err());
        assert_eq!(mpi_app().phase_modulation(), None);
    }

    #[test]
    fn serde_round_trip() {
        let app = framework_app();
        let json = icm_json::to_string(&app);
        let back: AppSpec = icm_json::from_str(&json).expect("deserialize");
        assert_eq!(app, back);
    }
}
