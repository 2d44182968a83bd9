//! The manager's typed decision vocabulary: what it detected, what it
//! did about it, and how the run ended.
//!
//! Every record is JSON round-trippable so that a whole action log can
//! be serialized and compared byte-for-byte across same-seed replays —
//! the determinism contract the recovery tests assert.

use icm_json::{FromJson, JsonError, Reader, ToJson};
use icm_obs::ProvenanceRecord;

/// A condition the manager detected and may react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectionKind {
    /// A host the fleet occupies is entering a crash window.
    HostDown,
    /// A run straggled past its kill deadline and was terminated.
    Straggler,
    /// An application exceeded its QoS bound for a sustained streak.
    SloViolation,
    /// The drift detector tripped on an application's residuals.
    Drift,
}

impl DetectionKind {
    /// Stable lowercase label, used in events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            DetectionKind::HostDown => "host_down",
            DetectionKind::Straggler => "straggler",
            DetectionKind::SloViolation => "slo_violation",
            DetectionKind::Drift => "drift",
        }
    }
}

impl ToJson for DetectionKind {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for DetectionKind {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match &*icm_json::read_str(r, "DetectionKind")? {
            "host_down" => Ok(DetectionKind::HostDown),
            "straggler" => Ok(DetectionKind::Straggler),
            "slo_violation" => Ok(DetectionKind::SloViolation),
            "drift" => Ok(DetectionKind::Drift),
            other => Err(icm_json::unknown_variant("DetectionKind", other)),
        }
    }
}

/// A reaction the manager executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ActionKind {
    /// An application was moved off a failing host (checkpoint + resume
    /// on the new placement, charging an explicit restart cost).
    Migrate,
    /// A bounded incremental re-anneal from the current placement.
    ReAnneal,
    /// Graceful degradation: the lowest-priority application was taken
    /// out of service because no feasible placement exists.
    Shed,
    /// A circuit breaker opened: the application's predictions rest on
    /// defaulted model cells, so model-driven reactions are suspended.
    CircuitBreak,
}

impl ActionKind {
    /// Stable lowercase label, used in events and reports.
    pub fn as_str(self) -> &'static str {
        match self {
            ActionKind::Migrate => "migrate",
            ActionKind::ReAnneal => "re_anneal",
            ActionKind::Shed => "shed",
            ActionKind::CircuitBreak => "circuit_break",
        }
    }
}

impl ToJson for ActionKind {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl FromJson for ActionKind {
    fn read_json(r: &mut Reader<'_>) -> Result<Self, JsonError> {
        match &*icm_json::read_str(r, "ActionKind")? {
            "migrate" => Ok(ActionKind::Migrate),
            "re_anneal" => Ok(ActionKind::ReAnneal),
            "shed" => Ok(ActionKind::Shed),
            "circuit_break" => Ok(ActionKind::CircuitBreak),
            other => Err(icm_json::unknown_variant("ActionKind", other)),
        }
    }
}

/// One detection, as replayed in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionRecord {
    /// Supervisory epoch (1-based).
    pub tick: u64,
    /// Manager's simulated clock at detection time.
    pub sim_s: f64,
    /// What was detected.
    pub kind: DetectionKind,
    /// Affected application, when the condition is app-specific.
    pub app: Option<String>,
    /// Affected host, when the condition is host-specific.
    pub host: Option<u64>,
}

icm_json::impl_json!(struct DetectionRecord { tick, sim_s, kind, app, host });

/// One executed action, as replayed in the log.
#[derive(Debug, Clone, PartialEq)]
pub struct ActionRecord {
    /// Supervisory epoch (1-based).
    pub tick: u64,
    /// Manager's simulated clock when the action was taken.
    pub sim_s: f64,
    /// What was done.
    pub kind: ActionKind,
    /// Application the action targeted, when app-specific.
    pub app: Option<String>,
    /// Simulated seconds the action cost (migration restart cost; 0 for
    /// free actions).
    pub cost_s: f64,
}

icm_json::impl_json!(struct ActionRecord { tick, sim_s, kind, app, cost_s });

/// Final state of one application when the managed horizon ended.
#[derive(Debug, Clone, PartialEq)]
pub struct AppFinal {
    /// Application name.
    pub app: String,
    /// Whether the manager shed it (admission control).
    pub shed: bool,
    /// Normalized runtime of its last completed run (0 if it never
    /// completed one).
    pub last_normalized: f64,
    /// Whether its last tick attempt completed *and* met the QoS bound.
    /// Shed applications are never `meets_bound`.
    pub meets_bound: bool,
    /// Hosts it occupied when the horizon ended (empty when shed).
    pub hosts: Vec<u64>,
}

icm_json::impl_json!(struct AppFinal { app, shed, last_normalized, meets_bound, hosts });

/// Everything one supervised horizon produced.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerOutcome {
    /// `true` when reactions were enabled (managed mode).
    pub managed: bool,
    /// Supervisory epochs executed.
    pub ticks: u64,
    /// Manager's simulated clock at the end (productive run seconds plus
    /// restart costs).
    pub sim_seconds: f64,
    /// Total QoS-violation-seconds: simulated seconds applications spent
    /// beyond their bound, plus full lost progress for failed ticks.
    pub violation_seconds: f64,
    /// Every detection, in order.
    pub detections: Vec<DetectionRecord>,
    /// Every action, in order.
    pub actions: Vec<ActionRecord>,
    /// Applications shed, in shedding order.
    pub shed: Vec<String>,
    /// Detection-to-recovery latencies, simulated seconds, one per
    /// completed recovery.
    pub recovery_latencies: Vec<f64>,
    /// Per-application end state.
    pub finals: Vec<AppFinal>,
    /// Full decision provenance, one record per action in order —
    /// empty on quiet runs and always empty for unmanaged baselines.
    /// Defaults to empty when parsing pre-provenance outcome JSON.
    pub provenance: Vec<ProvenanceRecord>,
}

icm_json::impl_json!(struct ManagerOutcome {
    managed,
    ticks,
    sim_seconds,
    violation_seconds,
    detections,
    actions,
    shed,
    recovery_latencies,
    finals,
    provenance = Vec::new()
});

impl ManagerOutcome {
    /// Number of actions of one kind.
    pub fn action_count(&self, kind: ActionKind) -> u64 {
        self.actions.iter().filter(|a| a.kind == kind).count() as u64
    }

    /// Mean recovery latency in simulated seconds (0 when no recovery
    /// completed).
    pub fn mean_recovery_latency(&self) -> f64 {
        if self.recovery_latencies.is_empty() {
            return 0.0;
        }
        self.recovery_latencies.iter().sum::<f64>() / self.recovery_latencies.len() as f64
    }

    /// The serialized action log — the byte sequence the determinism
    /// tests compare across same-seed replays.
    pub fn action_log(&self) -> String {
        icm_json::to_string(&self.actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ManagerOutcome {
        ManagerOutcome {
            managed: true,
            ticks: 4,
            sim_seconds: 812.5,
            violation_seconds: 37.0,
            detections: vec![DetectionRecord {
                tick: 2,
                sim_s: 400.0,
                kind: DetectionKind::HostDown,
                app: None,
                host: Some(3),
            }],
            actions: vec![
                ActionRecord {
                    tick: 2,
                    sim_s: 400.0,
                    kind: ActionKind::Migrate,
                    app: Some("H.KM".into()),
                    cost_s: 12.5,
                },
                ActionRecord {
                    tick: 3,
                    sim_s: 610.0,
                    kind: ActionKind::ReAnneal,
                    app: Some("M.Gems".into()),
                    cost_s: 0.0,
                },
            ],
            shed: vec![],
            recovery_latencies: vec![210.0],
            finals: vec![AppFinal {
                app: "H.KM".into(),
                shed: false,
                last_normalized: 1.1,
                meets_bound: true,
                hosts: vec![0, 2, 5, 6],
            }],
            provenance: vec![ProvenanceRecord {
                action_index: 0,
                event: 12,
                tick: 2,
                sim_s: 400.0,
                kind: "migrate".into(),
                app: Some("H.KM".into()),
                cost_s: 12.5,
                quality: "measured".into(),
                predicted_slowdown: 1.15,
                realized_slowdown: 1.1,
                resolved: true,
                trigger_violation_s: 0.0,
                violation_incurred_s: 0.0,
                placement: vec![],
                detections: vec![],
                outcome: None,
            }],
        }
    }

    #[test]
    fn kinds_round_trip_through_json() {
        for kind in [
            ActionKind::Migrate,
            ActionKind::ReAnneal,
            ActionKind::Shed,
            ActionKind::CircuitBreak,
        ] {
            let back: ActionKind = icm_json::from_str(&icm_json::to_string(&kind)).expect("parses");
            assert_eq!(back, kind);
        }
        for kind in [
            DetectionKind::HostDown,
            DetectionKind::Straggler,
            DetectionKind::SloViolation,
            DetectionKind::Drift,
        ] {
            let back: DetectionKind =
                icm_json::from_str(&icm_json::to_string(&kind)).expect("parses");
            assert_eq!(back, kind);
        }
        assert!(icm_json::from_str::<ActionKind>("\"reboot\"").is_err());
        assert!(icm_json::from_str::<DetectionKind>("\"gremlins\"").is_err());
    }

    #[test]
    fn outcome_round_trips_and_counts() {
        let outcome = sample();
        let back: ManagerOutcome =
            icm_json::from_str(&icm_json::to_string(&outcome)).expect("parses");
        assert_eq!(back, outcome);
        assert_eq!(outcome.action_count(ActionKind::Migrate), 1);
        assert_eq!(outcome.action_count(ActionKind::Shed), 0);
        assert_eq!(outcome.mean_recovery_latency(), 210.0);
    }

    #[test]
    fn pre_provenance_outcome_json_still_parses() {
        let text = icm_json::to_string(&sample());
        let idx = text
            .rfind(",\"provenance\":")
            .expect("field serialized last");
        let old = format!("{}{}", &text[..idx], "}");
        let back: ManagerOutcome = icm_json::from_str(&old).expect("parses without the field");
        assert!(back.provenance.is_empty());
        assert_eq!(back.actions, sample().actions);
    }

    #[test]
    fn action_log_is_stable_bytes() {
        let a = sample().action_log();
        let b = sample().action_log();
        assert_eq!(a, b);
        assert!(a.contains("\"migrate\""));
        let empty = ManagerOutcome {
            actions: vec![],
            recovery_latencies: vec![],
            ..sample()
        };
        assert_eq!(empty.action_log(), "[]");
        assert_eq!(empty.mean_recovery_latency(), 0.0);
    }
}
