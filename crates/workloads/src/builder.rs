//! High-level builder for *synthetic* workloads — model applications
//! that are not in the paper's catalog from a few interpretable knobs,
//! instead of raw memory-profile numbers.
//!
//! The builder maps knobs to the mechanistic parameters of
//! [`icm_simcluster::AppSpec`] using the same calibration scales as the
//! paper catalog, so a synthetic app's emergent phenotype (bubble score,
//! propagation class) lands where the knobs say it should.

use icm_simcluster::{AppSpec, MasterBehavior, PhaseModulation, SyncPattern};
use icm_simnode::{MemoryProfile, NodeSpec};

use crate::spec::{PaperReference, PropagationClass, WorkloadSpec, WorkloadType};

/// Builder for synthetic workloads.
///
/// # Example
///
/// ```
/// use icm_workloads::{PropagationClass, SyntheticWorkload};
///
/// # fn main() -> Result<(), String> {
/// let workload = SyntheticWorkload::new("my-solver")
///     .intensity(0.7)
///     .sensitivity(0.8)
///     .propagation(PropagationClass::High)
///     .build()?;
/// assert_eq!(workload.name(), "my-solver");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    name: String,
    node: NodeSpec,
    intensity: f64,
    sensitivity: f64,
    propagation: PropagationClass,
    framework: bool,
    base_runtime_s: f64,
    phase_modulation: Option<PhaseModulation>,
}

impl SyntheticWorkload {
    /// Starts a synthetic workload with moderate defaults: intensity and
    /// sensitivity 0.5, high propagation, MPI-style master, calibrated
    /// for the paper's private-cluster node.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            node: NodeSpec::xeon_e5_2650(),
            intensity: 0.5,
            sensitivity: 0.5,
            propagation: PropagationClass::High,
            framework: false,
            base_runtime_s: 250.0,
            phase_modulation: None,
        }
    }

    /// Node the memory demands are calibrated against.
    pub fn node(mut self, node: NodeSpec) -> Self {
        self.node = node;
        self
    }

    /// How much interference the workload *generates* (0 = idle-like,
    /// 1 = cache/bandwidth monster). Roughly monotone in the resulting
    /// bubble score.
    pub fn intensity(mut self, v: f64) -> Self {
        self.intensity = v;
        self
    }

    /// How much the workload *suffers* from losing cache/bandwidth
    /// (0 = oblivious, 1 = latency-bound).
    pub fn sensitivity(mut self, v: f64) -> Self {
        self.sensitivity = v;
        self
    }

    /// Interference-propagation class (synchronization structure).
    pub fn propagation(mut self, v: PropagationClass) -> Self {
        self.propagation = v;
        self
    }

    /// Marks the workload as a framework job (coordinator master that
    /// processes no tasks, volatile CPU load) rather than MPI-style.
    pub fn framework(mut self, v: bool) -> Self {
        self.framework = v;
        self
    }

    /// Solo runtime in seconds.
    pub fn base_runtime_s(mut self, v: f64) -> Self {
        self.base_runtime_s = v;
        self
    }

    /// Adds phase-varying sensitivity (see
    /// [`PhaseModulation`](icm_simcluster::PhaseModulation)).
    pub fn phase_modulation(mut self, v: Option<PhaseModulation>) -> Self {
        self.phase_modulation = v;
        self
    }

    /// Builds the workload descriptor.
    ///
    /// # Errors
    ///
    /// Returns a description of the violated invariant (knobs outside
    /// `[0, 1]`, non-positive runtime, invalid modulation).
    pub fn build(&self) -> Result<WorkloadSpec, String> {
        for (name, v) in [
            ("intensity", self.intensity),
            ("sensitivity", self.sensitivity),
        ] {
            if !(0.0..=1.0).contains(&v) || !v.is_finite() {
                return Err(format!("{name} must be in [0,1], got {v}"));
            }
        }
        let llc = self.node.llc_mb();
        let membw = self.node.membw_gbps();

        // Same scales the catalog calibration uses: intensity sweeps the
        // working set from "fits easily" to "overwhelms the LLC".
        let profile = MemoryProfile::builder()
            .working_set_mb(llc * (0.08 + 1.15 * self.intensity))
            .access_weight(0.8 + 0.6 * self.intensity)
            .bandwidth_gbps(membw * (0.015 + 0.24 * self.intensity))
            .miss_bandwidth_gbps(membw * 0.3)
            .cache_sensitivity(0.3 + 1.1 * self.sensitivity)
            .bandwidth_sensitivity(0.5 + 0.45 * self.sensitivity)
            .build()
            .map_err(|e| e.to_string())?;

        let pattern = match self.propagation {
            PropagationClass::High => SyncPattern::Collective {
                phases: 48,
                coupling: 0.92,
            },
            PropagationClass::Proportional => SyncPattern::Collective {
                phases: 40,
                coupling: 0.05,
            },
            PropagationClass::Low => SyncPattern::TaskQueue {
                tasks: 96,
                stages: 6,
            },
        };
        let (master, volatility, ty) = if self.framework {
            (
                MasterBehavior::Coordinator { demand_frac: 0.25 },
                0.6,
                WorkloadType::Spark,
            )
        } else {
            (MasterBehavior::Participates, 0.15, WorkloadType::SpecMpi)
        };

        let app = AppSpec::builder(&self.name)
            .base_runtime_s(self.base_runtime_s)
            .worker_profile(profile)
            .pattern(pattern)
            .master(master)
            .cpu_volatility(volatility)
            .phase_modulation(self.phase_modulation)
            .build()?;

        // A rough prior for the emergent bubble score, useful as a sanity
        // reference; the measured score is what matters.
        let expected_score = 8.0 * self.intensity;
        Ok(WorkloadSpec::new(
            app,
            ty,
            PaperReference {
                bubble_score: expected_score,
                propagation: self.propagation,
                max_flavored_policy: self.propagation != PropagationClass::Proportional,
            },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Catalog, TestbedBuilder};
    use icm_core::Calibration;

    #[test]
    fn defaults_build() {
        let w = SyntheticWorkload::new("syn").build().expect("builds");
        assert_eq!(w.name(), "syn");
        assert!(w.is_distributed());
    }

    #[test]
    fn knob_validation() {
        assert!(SyntheticWorkload::new("x").intensity(1.5).build().is_err());
        assert!(SyntheticWorkload::new("x")
            .sensitivity(-0.1)
            .build()
            .is_err());
        assert!(SyntheticWorkload::new("x")
            .base_runtime_s(0.0)
            .build()
            .is_err());
    }

    #[test]
    fn framework_flag_sets_master_and_volatility() {
        let fw = SyntheticWorkload::new("x")
            .framework(true)
            .build()
            .expect("builds");
        assert!(matches!(
            fw.app().master(),
            MasterBehavior::Coordinator { .. }
        ));
        assert!(fw.app().cpu_volatility() > 0.4);
        let mpi = SyntheticWorkload::new("x").build().expect("builds");
        assert!(matches!(mpi.app().master(), MasterBehavior::Participates));
    }

    #[test]
    fn intensity_orders_measured_scores() {
        // Synthetic workloads registered on the testbed produce bubble
        // scores ordered by the intensity knob.
        let catalog = Catalog::paper();
        let mut testbed = TestbedBuilder::new(&catalog).seed(5).build();
        let calibration = Calibration::measure(&mut testbed).expect("calibrates");
        let mut scores = Vec::new();
        for (name, intensity) in [("syn-lo", 0.1), ("syn-mid", 0.5), ("syn-hi", 0.9)] {
            let w = SyntheticWorkload::new(name)
                .intensity(intensity)
                .build()
                .expect("builds");
            testbed.sim_mut().register_app(w.app().clone());
            scores.push(calibration.score(&mut testbed, name, 3).expect("scores"));
        }
        assert!(
            scores[0] < scores[1] && scores[1] < scores[2],
            "scores must be ordered by intensity: {scores:?}"
        );
    }

    #[test]
    fn propagation_class_emerges() {
        let catalog = Catalog::paper();
        let mut testbed = TestbedBuilder::new(&catalog).seed(9).build();
        let mut fracs = std::collections::BTreeMap::new();
        for (name, class) in [
            ("syn-high", PropagationClass::High),
            ("syn-prop", PropagationClass::Proportional),
        ] {
            let w = SyntheticWorkload::new(name)
                .intensity(0.4)
                .sensitivity(0.8)
                .propagation(class)
                .build()
                .expect("builds");
            testbed.sim_mut().register_app(w.app().clone());
            let solo = icm_core::Testbed::run_app(&mut testbed, name, &[0.0; 8]).expect("runs");
            let mut one = vec![0.0; 8];
            one[7] = 8.0;
            let t1 = icm_core::Testbed::run_app(&mut testbed, name, &one).expect("runs");
            let t8 = icm_core::Testbed::run_app(&mut testbed, name, &[8.0; 8]).expect("runs");
            fracs.insert(name, (t1 - solo) / (t8 - solo));
        }
        assert!(
            fracs["syn-high"] > 0.55,
            "high-propagation synthetic: {:.2}",
            fracs["syn-high"]
        );
        assert!(
            fracs["syn-prop"] < 0.4,
            "proportional synthetic: {:.2}",
            fracs["syn-prop"]
        );
    }
}
