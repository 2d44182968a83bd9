//! **Recovery** — the self-healing runtime (`icm-manager`) against an
//! unmanaged baseline.
//!
//! Sweeps scenarios combining scripted host crashes and ambient
//! environment drift. Each scenario runs the *same* fleet twice from a
//! byte-identical testbed state: once under the supervisory control
//! loop (crash-dodging migration, drift/SLO-triggered re-annealing,
//! admission control) and once with reactions disabled. Reports
//! QoS-violation-seconds for both runs, the violation time the manager
//! avoided, detection-to-recovery latency, and the action mix.
//!
//! The report verdict checks the headline claim: the managed run's
//! violation time never exceeds the unmanaged run's, and scenarios with
//! injected failures show a strict improvement.

use icm_manager::{run_managed, run_unmanaged, ActionKind, ManagerConfig, ManagerOutcome};
use icm_obs::Tracer;
use icm_server::world::{base_manager_config, build_fleet, half_cluster_drift, supervised_apps};
use icm_simcluster::{CrashWindow, FaultPlan};

use crate::context::{ExpConfig, ExpError};
use crate::table::{f2, Table};

/// Supervisory ticks that run healthy before a scripted crash begins.
const CRASH_AFTER_TICKS: u64 = 2;
/// First tick ambient drift pressure applies to.
const DRIFT_FROM_TICK: u64 = 3;

/// One crash × drift scenario, managed vs. unmanaged.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryPoint {
    /// Scenario label.
    pub label: String,
    /// Hosts taken down by a permanent crash window mid-run.
    pub crash_hosts: u64,
    /// Ambient bubble pressure applied to half the cluster mid-run.
    pub drift_pressure: f64,
    /// QoS-violation-seconds under the manager.
    pub managed_violation_s: f64,
    /// QoS-violation-seconds of the unmanaged baseline.
    pub unmanaged_violation_s: f64,
    /// Violation time the manager avoided (unmanaged − managed).
    pub avoided_violation_s: f64,
    /// Mean detection-to-recovery latency, simulated seconds.
    pub mean_recovery_latency_s: f64,
    /// Migration actions (checkpoint + resume at explicit cost).
    pub migrations: u64,
    /// Incremental re-anneal actions.
    pub reanneals: u64,
    /// Applications shed by admission control.
    pub sheds: u64,
    /// Circuit breakers opened on defaulted predictions.
    pub circuit_breaks: u64,
    /// Conditions detected (host-down, drift, SLO, straggler).
    pub detections: u64,
    /// Applications meeting their QoS bound at the end, managed.
    pub managed_meets_bound: u64,
    /// Applications meeting their QoS bound at the end, unmanaged.
    pub unmanaged_meets_bound: u64,
    /// Full decision provenance of the managed run, one record per
    /// action — the audit section's raw material. Defaults to empty
    /// when parsing pre-provenance results.
    pub provenance: Vec<icm_obs::ProvenanceRecord>,
}

icm_json::impl_json!(struct RecoveryPoint {
    label,
    crash_hosts,
    drift_pressure,
    managed_violation_s,
    unmanaged_violation_s,
    avoided_violation_s,
    mean_recovery_latency_s,
    migrations,
    reanneals,
    sheds,
    circuit_breaks,
    detections,
    managed_meets_bound,
    unmanaged_meets_bound,
    provenance = Vec::new()
});

/// Recovery sweep output.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryResult {
    /// Supervisory epochs per run.
    pub ticks: u64,
    /// Supervised applications.
    pub apps: Vec<String>,
    /// Scenarios, baseline first.
    pub points: Vec<RecoveryPoint>,
}

icm_json::impl_json!(struct RecoveryResult { ticks, apps, points });

/// `(label, crash hosts, drift pressure)` sweep grid.
fn scenarios(cfg: &ExpConfig) -> Vec<(&'static str, u64, f64)> {
    if cfg.fast {
        vec![
            ("baseline", 0, 0.0),
            ("crash x1", 1, 0.0),
            ("crash + drift", 1, 6.0),
        ]
    } else {
        vec![
            ("baseline", 0, 0.0),
            ("drift", 0, 6.0),
            ("crash x1", 1, 0.0),
            ("crash x2", 2, 0.0),
            ("crash + drift", 1, 6.0),
        ]
    }
}

fn manager_config(cfg: &ExpConfig, drift_pressure: f64, hosts: usize) -> ManagerConfig {
    ManagerConfig {
        ticks: if cfg.fast { 6 } else { 10 },
        // The manager only ever sees drift's consequences in the
        // observed slowdowns.
        environment: (drift_pressure > 0.0)
            .then(|| half_cluster_drift(hosts, drift_pressure, DRIFT_FROM_TICK)),
        ..base_manager_config(cfg.seed, cfg.fast)
    }
}

/// Runs the recovery sweep, emitting manager/testbed events into
/// `tracer` (the `icm-experiments --trace` sink).
///
/// # Errors
///
/// Propagates model, placement, manager and testbed failures.
pub fn run_traced(cfg: &ExpConfig, tracer: &Tracer) -> Result<RecoveryResult, ExpError> {
    let apps = supervised_apps(cfg.fast);
    let (base_tb, base_fleet) = build_fleet(&apps, cfg.seed, cfg.fast)?;
    let hosts = base_tb.sim().cluster().hosts();
    let crash_from_run = base_tb.sim().peek_run() + CRASH_AFTER_TICKS;

    // Discover the initial placement on clones (deterministic, so every
    // scenario starts from the same assignment): crash windows then
    // target hosts the fleet actually occupies.
    let occupied: Vec<usize> = {
        let mut tb = base_tb.clone();
        let mut fleet = base_fleet.clone();
        let config = ManagerConfig {
            ticks: 1,
            ..manager_config(cfg, 0.0, hosts)
        };
        let probe = run_managed(tb.sim_mut(), &mut fleet, &config, &Tracer::disabled())?;
        let mut found = Vec::new();
        for fin in &probe.finals {
            for &h in &fin.hosts {
                let h = h as usize;
                if !found.contains(&h) {
                    found.push(h);
                }
            }
        }
        found
    };

    let config_probe = manager_config(cfg, 0.0, hosts);
    let mut points = Vec::new();
    for (label, crash_hosts, drift_pressure) in scenarios(cfg) {
        let config = manager_config(cfg, drift_pressure, hosts);
        let plan = (crash_hosts > 0).then(|| FaultPlan {
            crash_windows: occupied
                .iter()
                .take(crash_hosts as usize)
                .map(|&host| CrashWindow {
                    host,
                    from_run: crash_from_run,
                    until_run: u64::MAX,
                })
                .collect(),
            ..FaultPlan::default()
        });

        let run_one = |managed: bool| -> Result<ManagerOutcome, ExpError> {
            let mut tb = base_tb.clone();
            let mut fleet = base_fleet.clone();
            tb.sim_mut().set_fault_plan(plan.clone());
            tb.sim_mut().set_tracer(tracer.clone());
            let outcome = if managed {
                run_managed(tb.sim_mut(), &mut fleet, &config, tracer)?
            } else {
                run_unmanaged(tb.sim_mut(), &mut fleet, &config, tracer)?
            };
            if tracer.enabled() {
                tracer.event(
                    icm_obs::manager::MANAGER_OUTCOME,
                    &[
                        ("scenario", icm_obs::Value::from(label)),
                        ("managed", icm_obs::Value::from(managed)),
                        (
                            "violation_s",
                            icm_obs::Value::from(outcome.violation_seconds),
                        ),
                    ],
                );
            }
            Ok(outcome)
        };
        let managed = run_one(true)?;
        let unmanaged = run_one(false)?;

        let meets = |outcome: &ManagerOutcome| -> u64 {
            outcome.finals.iter().filter(|f| f.meets_bound).count() as u64
        };
        points.push(RecoveryPoint {
            label: label.to_owned(),
            crash_hosts,
            drift_pressure,
            managed_violation_s: managed.violation_seconds,
            unmanaged_violation_s: unmanaged.violation_seconds,
            avoided_violation_s: unmanaged.violation_seconds - managed.violation_seconds,
            mean_recovery_latency_s: managed.mean_recovery_latency(),
            migrations: managed.action_count(ActionKind::Migrate),
            reanneals: managed.action_count(ActionKind::ReAnneal),
            sheds: managed.action_count(ActionKind::Shed),
            circuit_breaks: managed.action_count(ActionKind::CircuitBreak),
            detections: managed.detections.len() as u64,
            managed_meets_bound: meets(&managed),
            unmanaged_meets_bound: meets(&unmanaged),
            provenance: managed.provenance,
        });
    }

    Ok(RecoveryResult {
        ticks: config_probe.ticks,
        apps: apps.into_iter().map(|a| a.name).collect(),
        points,
    })
}

/// Runs the recovery sweep without tracing.
///
/// # Errors
///
/// See [`run_traced`].
pub fn run(cfg: &ExpConfig) -> Result<RecoveryResult, ExpError> {
    run_traced(cfg, &Tracer::disabled())
}

/// Renders the sweep table.
pub fn render(result: &RecoveryResult) -> String {
    let mut table = Table::new(format!(
        "Recovery: managed vs unmanaged QoS-violation-seconds over {} ticks ({})",
        result.ticks,
        result.apps.join(", ")
    ));
    table.headers([
        "scenario",
        "crashes",
        "drift",
        "managed viol (s)",
        "unmanaged viol (s)",
        "avoided (s)",
        "recovery lat (s)",
        "mig/ann/shed/brk",
        "in-bound m/u",
    ]);
    for point in &result.points {
        table.row([
            point.label.clone(),
            point.crash_hosts.to_string(),
            f2(point.drift_pressure),
            f2(point.managed_violation_s),
            f2(point.unmanaged_violation_s),
            f2(point.avoided_violation_s),
            f2(point.mean_recovery_latency_s),
            format!(
                "{}/{}/{}/{}",
                point.migrations, point.reanneals, point.sheds, point.circuit_breaks
            ),
            format!(
                "{}/{}",
                point.managed_meets_bound, point.unmanaged_meets_bound
            ),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RecoveryResult {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn manager_never_exceeds_the_unmanaged_violation_time() {
        let result = fast();
        assert_eq!(result.points.len(), 3);
        for point in &result.points {
            assert!(
                point.managed_violation_s <= point.unmanaged_violation_s + 1e-9,
                "{}: managed {} vs unmanaged {}",
                point.label,
                point.managed_violation_s,
                point.unmanaged_violation_s
            );
        }
    }

    #[test]
    fn the_baseline_scenario_is_quiet_and_crashes_hurt_the_unmanaged_run() {
        let result = fast();
        let baseline = &result.points[0];
        assert_eq!(baseline.crash_hosts, 0);
        assert_eq!(baseline.detections, 0, "nothing to detect: {baseline:?}");
        assert_eq!(baseline.migrations + baseline.reanneals + baseline.sheds, 0);
        assert!(baseline.avoided_violation_s.abs() < 1e-9);

        let crash = result
            .points
            .iter()
            .find(|p| p.crash_hosts > 0)
            .expect("a crash scenario");
        assert!(crash.detections > 0);
        assert!(crash.migrations >= 1, "{crash:?}");
        assert!(
            crash.avoided_violation_s > 0.0,
            "the manager strictly reduces violation time under crashes: {crash:?}"
        );
        assert!(crash.managed_meets_bound >= crash.unmanaged_meets_bound);
        assert!(crash.mean_recovery_latency_s > 0.0);
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(fast(), fast());
    }

    #[test]
    fn render_has_expected_shape() {
        let result = fast();
        let text = render(&result);
        assert!(text.contains("scenario"));
        assert!(text.contains("mig/ann/shed/brk"));
        for point in &result.points {
            assert!(text.contains(&point.label));
        }
    }
}
