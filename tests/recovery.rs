//! End-to-end acceptance for the self-healing runtime (`icm-manager`):
//! supervision is part of the determinism contract, not an exception
//! to it.
//!
//! * With faults *disabled*, a managed run is byte-identical to the
//!   unmanaged path — same trace, same accounting, same outcome
//!   numbers. The supervisor is invisible until something goes wrong.
//! * With a scripted crash schedule, two same-seed managed runs replay
//!   byte-identical action logs and traces.
//! * When a host dies mid-run, the managed fleet ends with every
//!   surviving application inside its QoS bound while the unmanaged
//!   baseline does not.
//! * When no feasible placement exists, the manager sheds the
//!   lowest-priority application through a typed outcome instead of
//!   looping or panicking.

use icm_manager::{run_managed, run_unmanaged, ActionKind, DetectionKind, Fleet, ManagerOutcome};
use icm_obs::{JsonlSink, SharedBuf, Tracer};
use icm_simcluster::{CrashWindow, FaultPlan};

mod common;
use common::{lenient, managed_apps, testbed, SPAN};

/// One traced supervised (or baseline) run over a fresh fleet, with an
/// optional fault plan installed after the models are profiled so the
/// profiling phase stays clean. Returns the trace bytes and the
/// outcome.
fn traced_run(managed: bool, plan: Option<FaultPlan>) -> (String, ManagerOutcome) {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    tb.sim_mut().set_fault_plan(plan);
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    tb.sim_mut().set_tracer(tracer.clone());
    let config = lenient(6);
    let outcome = if managed {
        run_managed(tb.sim_mut(), &mut fleet, &config, &tracer).expect("managed run")
    } else {
        run_unmanaged(tb.sim_mut(), &mut fleet, &config, &tracer).expect("unmanaged run")
    };
    tracer.flush();
    (buf.text(), outcome)
}

/// The crash schedule used by the failure tests: a permanent outage on
/// a host the first application occupies, two ticks into the run.
/// Discovered on clones — identical seeds make the probe's placement
/// the real run's placement.
fn crash_plan() -> FaultPlan {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    let from_run = tb.sim().peek_run() + 2;
    let probe = run_managed(tb.sim_mut(), &mut fleet, &lenient(1), &Tracer::disabled())
        .expect("discovery run");
    FaultPlan {
        crash_windows: vec![CrashWindow {
            host: probe.finals[0].hosts[0] as usize,
            from_run,
            until_run: u64::MAX,
        }],
        ..FaultPlan::default()
    }
}

#[test]
fn faults_disabled_managed_run_is_byte_identical_to_the_unmanaged_path() {
    let (managed_trace, managed) = traced_run(true, None);
    let (unmanaged_trace, unmanaged) = traced_run(false, None);
    assert!(!managed_trace.is_empty());
    assert_eq!(
        managed_trace, unmanaged_trace,
        "an idle supervisor perturbed the trace"
    );
    assert!(
        !managed_trace.contains("manager_"),
        "quiet ticks must stay silent"
    );
    assert!(managed.detections.is_empty() && managed.actions.is_empty());
    assert_eq!(managed.sim_seconds, unmanaged.sim_seconds);
    assert_eq!(managed.violation_seconds, unmanaged.violation_seconds);
    // An installed-but-empty plan is also invisible.
    let inactive = FaultPlan::uniform(0.0);
    assert!(!inactive.is_active());
    let (inactive_trace, _) = traced_run(true, Some(inactive));
    assert_eq!(inactive_trace, managed_trace, "inactive plan perturbed it");
}

#[test]
fn same_seed_crash_runs_replay_byte_identical_action_logs_and_traces() {
    let plan = crash_plan();
    let (trace_a, a) = traced_run(true, Some(plan.clone()));
    let (trace_b, b) = traced_run(true, Some(plan));
    assert!(!a.actions.is_empty(), "the crash schedule never fired");
    assert_eq!(a.action_log(), b.action_log(), "action logs diverged");
    assert_eq!(trace_a, trace_b, "same-seed managed traces diverged");
    assert_eq!(a.sim_seconds, b.sim_seconds);
    assert_eq!(a.violation_seconds, b.violation_seconds);
    // The identical traces actually contain the supervision machinery.
    for needle in [
        "manager_detection",
        "manager_action",
        "checkpoint",
        "resume",
    ] {
        assert!(
            trace_a.contains(needle),
            "no `{needle}` events in the trace"
        );
    }
}

#[test]
fn a_mid_run_crash_is_survived_managed_but_not_unmanaged() {
    let plan = crash_plan();
    let (_, managed) = traced_run(true, Some(plan.clone()));
    let (_, unmanaged) = traced_run(false, Some(plan));

    assert!(managed
        .detections
        .iter()
        .any(|d| d.kind == DetectionKind::HostDown));
    assert!(managed.action_count(ActionKind::Migrate) >= 1);
    assert!(managed.shed.is_empty(), "capacity sufficed");
    assert!(
        managed.finals.iter().all(|f| f.meets_bound),
        "every surviving app must end inside its QoS bound: {:?}",
        managed.finals
    );
    assert!(
        unmanaged.finals.iter().any(|f| !f.meets_bound),
        "the unmanaged baseline must be hurt by the outage"
    );
    assert!(
        managed.violation_seconds < unmanaged.violation_seconds,
        "managed {} vs unmanaged {}",
        managed.violation_seconds,
        unmanaged.violation_seconds
    );
}

#[test]
fn an_infeasible_outage_degrades_gracefully_through_a_typed_shed() {
    // One slot per host: two span-4 applications fill the cluster, so a
    // permanent outage leaves no feasible placement.
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        1,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    let plan = FaultPlan {
        crash_windows: vec![CrashWindow {
            host: 0,
            from_run: tb.sim().peek_run(),
            until_run: u64::MAX,
        }],
        ..FaultPlan::default()
    };
    tb.sim_mut().set_fault_plan(Some(plan));

    let outcome = run_managed(tb.sim_mut(), &mut fleet, &lenient(4), &Tracer::disabled())
        .expect("the manager must degrade, not error");

    assert_eq!(
        outcome.shed,
        vec!["H.KM".to_owned()],
        "lowest priority sheds"
    );
    assert_eq!(
        outcome.action_count(ActionKind::Shed),
        1,
        "exactly one shed"
    );
    let shed = outcome.finals.iter().find(|f| f.app == "H.KM").unwrap();
    assert!(shed.shed && shed.hosts.is_empty());
    let survivor = outcome.finals.iter().find(|f| f.app == "M.milc").unwrap();
    assert!(!survivor.shed && survivor.meets_bound, "{survivor:?}");
    assert!(
        !survivor.hosts.contains(&0),
        "survivor avoids the dead host"
    );
}
