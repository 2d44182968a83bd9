//! The supervised fleet: applications, their online models, and the
//! placement problem they are packed into.
//!
//! The placement layer works with fully packed problems (every slot
//! always occupied), so the fleet pads the real applications with
//! *idle* filler workloads — zero-pressure placeholders that are never
//! deployed. A crashed host's slots are absorbed by idle workloads
//! during re-annealing, and shedding an application simply stops
//! deploying it; the problem shape never changes mid-run.

use icm_core::{ModelQuality, OnlineModel, QualityGrid};
use icm_placement::{PlacementProblem, PlacementState};

use crate::error::ManagerError;

/// Prefix of idle filler workload names. Real applications may not use
/// it.
pub const IDLE_PREFIX: &str = "idle.";

/// One supervised application.
#[derive(Debug, Clone)]
pub struct ManagedApp {
    /// Testbed application name.
    pub name: String,
    /// Shedding priority: higher survives longer; on ties the
    /// lexicographically smaller name survives.
    pub priority: u32,
    /// Its interference model with online corrections; the manager feeds
    /// every observation back through [`OnlineModel::observe_for`].
    pub online: OnlineModel,
    /// Per-cell provenance of the underlying profile, when available.
    /// Predictions resting on `Defaulted` cells open a circuit breaker
    /// instead of driving re-placement.
    pub quality: Option<QualityGrid>,
}

icm_json::impl_json!(struct ManagedApp { name, priority, online, quality });

impl ManagedApp {
    /// Convenience constructor without a quality grid.
    pub fn new(name: impl Into<String>, priority: u32, online: OnlineModel) -> Self {
        Self {
            name: name.into(),
            priority,
            online,
            quality: None,
        }
    }

    /// Quality grade of the model cells behind this app's prediction
    /// under the per-host co-runner `pressures`: the grid read at the
    /// homogeneous setting the model converts them to, or
    /// [`ModelQuality::Measured`] when no grid is attached (the model was
    /// built entirely from direct measurements). Manager provenance and
    /// the daemon's `predict` replies both grade through here.
    pub fn quality_at(&self, pressures: &[f64]) -> ModelQuality {
        match &self.quality {
            None => ModelQuality::Measured,
            Some(grid) => {
                let hom = self.online.base().convert(pressures);
                grid.at_hom(hom.pressure, hom.nodes)
            }
        }
    }
}

/// The fleet: real applications plus the padded placement problem.
#[derive(Debug, Clone)]
pub struct Fleet {
    problem: PlacementProblem,
    apps: Vec<ManagedApp>,
}

// Serialization support for whole-world savestates. Deserializing
// bypasses [`Fleet::new`]'s validation deliberately: a snapshot records
// a fleet that already validated when it was first built, and the
// snapshot store's checksum guards the bytes in between.
icm_json::impl_json!(struct Fleet { problem, apps });

impl Fleet {
    /// Builds a fleet over a `hosts × slots_per_host` cluster where every
    /// workload (real or idle) spans `span` hosts.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Config`] when the geometry cannot pack (span must
    /// divide the slot count, fit the host count, and leave room for
    /// every application), when a name collides or uses the idle prefix,
    /// or when an application's model was profiled at a width other than
    /// `span`.
    pub fn new(
        hosts: usize,
        slots_per_host: usize,
        span: usize,
        apps: Vec<ManagedApp>,
    ) -> Result<Self, ManagerError> {
        if apps.is_empty() {
            return Err(ManagerError::Config("fleet has no applications".into()));
        }
        if span == 0 || span > hosts {
            return Err(ManagerError::Config(format!(
                "span {span} does not fit a {hosts}-host cluster"
            )));
        }
        let slots = hosts * slots_per_host;
        if slots == 0 || !slots.is_multiple_of(span) {
            return Err(ManagerError::Config(format!(
                "span {span} does not divide {slots} slots"
            )));
        }
        let workload_count = slots / span;
        if workload_count < apps.len() {
            return Err(ManagerError::Config(format!(
                "{} applications need {} slots of span {span}, but only {workload_count} \
                 workloads fit",
                apps.len(),
                apps.len() * span
            )));
        }
        let mut names = Vec::with_capacity(workload_count);
        for app in &apps {
            if app.name.starts_with(IDLE_PREFIX) {
                return Err(ManagerError::Config(format!(
                    "application name `{}` uses the reserved idle prefix",
                    app.name
                )));
            }
            if names.contains(&app.name) {
                return Err(ManagerError::Config(format!(
                    "duplicate application `{}`",
                    app.name
                )));
            }
            if app.online.base().hosts() != span {
                return Err(ManagerError::Config(format!(
                    "model for `{}` was profiled at {} hosts, fleet span is {span}",
                    app.name,
                    app.online.base().hosts()
                )));
            }
            names.push(app.name.clone());
        }
        for k in apps.len()..workload_count {
            names.push(format!("{IDLE_PREFIX}{k}"));
        }
        let problem = PlacementProblem::new(hosts, slots_per_host, names)
            .map_err(|e| ManagerError::Config(e.to_string()))?;
        Ok(Self { problem, apps })
    }

    /// The padded placement problem (real apps first, then idle fillers).
    pub fn problem(&self) -> &PlacementProblem {
        &self.problem
    }

    /// The real applications, workload-index order.
    pub fn apps(&self) -> &[ManagedApp] {
        &self.apps
    }

    /// Mutable access for feeding observations back.
    pub fn apps_mut(&mut self) -> &mut [ManagedApp] {
        &mut self.apps
    }

    /// Hosts every workload spans.
    pub fn span(&self) -> usize {
        self.problem.slots_per_workload()
    }

    /// Index of the live application the manager would shed next: lowest
    /// priority, ties broken toward the lexicographically larger name.
    /// `live` flags are indexed like [`Self::apps`].
    pub fn shed_candidate(&self, live: &[bool]) -> Option<usize> {
        let mut best: Option<usize> = None;
        for (i, app) in self.apps.iter().enumerate() {
            if !live[i] {
                continue;
            }
            best = match best {
                None => Some(i),
                Some(b) => {
                    let current = &self.apps[b];
                    if app.priority < current.priority
                        || (app.priority == current.priority && app.name > current.name)
                    {
                        Some(i)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        best
    }

    /// Sorted hosts workload `w` occupies in `state`.
    pub fn hosts_of(&self, state: &PlacementState, w: usize) -> Vec<usize> {
        let mut hosts = state.hosts_of(&self.problem, w);
        hosts.sort_unstable();
        hosts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_empty_fleet_is_rejected() {
        // Geometry and model-width validation need real models and are
        // covered by the runtime tests; the no-app check fires first.
        let err = Fleet::new(8, 2, 4, vec![]).unwrap_err();
        assert!(err.to_string().contains("no applications"));
    }
}
