//! Integration tests for the supervisory loop: real profiled models on
//! the simulated paper cluster, scripted crash windows, environment
//! drift, and the graceful-degradation (shedding) path.

use icm_core::DriftConfig;
use icm_manager::{
    run_managed, run_unmanaged, ActionKind, DetectionKind, Fleet, ManagerConfig, ManagerError,
};
use icm_obs::Tracer;
use icm_simcluster::{CrashWindow, FaultPlan};

mod common;
use common::{lenient, managed_apps, testbed, SPAN};

#[test]
fn a_quiet_run_records_nothing_and_matches_the_baseline() {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    let (mut tb2, mut fleet2) = (tb.clone(), fleet.clone());
    let config = lenient(4);

    let managed =
        run_managed(tb.sim_mut(), &mut fleet, &config, &Tracer::disabled()).expect("managed run");
    let unmanaged = run_unmanaged(tb2.sim_mut(), &mut fleet2, &config, &Tracer::disabled())
        .expect("unmanaged run");

    assert!(managed.managed);
    assert!(!unmanaged.managed);
    assert!(managed.detections.is_empty(), "{:?}", managed.detections);
    assert!(managed.actions.is_empty(), "{:?}", managed.actions);
    assert!(managed.recovery_latencies.is_empty());
    assert!(unmanaged.actions.is_empty() && unmanaged.detections.is_empty());
    // Identical randomness, no reactions: the two histories agree to the
    // last bit.
    assert_eq!(managed.sim_seconds, unmanaged.sim_seconds);
    assert_eq!(managed.violation_seconds, unmanaged.violation_seconds);
    assert!(
        managed.finals.iter().all(|f| f.meets_bound),
        "{:?}",
        managed.finals
    );
}

/// Runs the crash scenario on fresh state; returns (managed, unmanaged).
fn crash_scenario() -> (icm_manager::ManagerOutcome, icm_manager::ManagerOutcome) {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    let config = lenient(6);

    // Discover the initial placement on clones (same seeds ⇒ identical),
    // then script an outage on a host the first application occupies.
    let target = {
        let (mut dtb, mut dfleet) = (tb.clone(), fleet.clone());
        let probe = run_managed(dtb.sim_mut(), &mut dfleet, &lenient(1), &Tracer::disabled())
            .expect("discovery run");
        probe.finals[0].hosts[0] as usize
    };
    let from_run = tb.sim().peek_run() + 2; // first two ticks are healthy
    let plan = FaultPlan {
        crash_windows: vec![CrashWindow {
            host: target,
            from_run,
            until_run: u64::MAX,
        }],
        ..FaultPlan::default()
    };

    let (mut utb, mut ufleet) = (tb.clone(), fleet.clone());
    tb.sim_mut().set_fault_plan(Some(plan.clone()));
    utb.sim_mut().set_fault_plan(Some(plan));

    let managed =
        run_managed(tb.sim_mut(), &mut fleet, &config, &Tracer::disabled()).expect("managed");
    let unmanaged =
        run_unmanaged(utb.sim_mut(), &mut ufleet, &config, &Tracer::disabled()).expect("unmanaged");
    (managed, unmanaged)
}

#[test]
fn a_crash_window_is_dodged_by_migration() {
    let (managed, unmanaged) = crash_scenario();

    // The manager saw the outage coming and moved the tenants off.
    assert!(managed
        .detections
        .iter()
        .any(|d| d.kind == DetectionKind::HostDown));
    assert!(
        managed.action_count(ActionKind::Migrate) >= 1,
        "{:?}",
        managed.actions
    );
    for action in &managed.actions {
        if action.kind == ActionKind::Migrate {
            assert!(action.cost_s > 0.0, "migration is never free");
        }
    }
    assert!(
        managed.shed.is_empty(),
        "capacity sufficed: {:?}",
        managed.shed
    );
    assert!(!managed.recovery_latencies.is_empty());
    assert!(managed.mean_recovery_latency() > 0.0);
    assert!(
        managed.finals.iter().all(|f| f.meets_bound),
        "{:?}",
        managed.finals
    );

    // The baseline sailed into the outage and lost every epoch after it.
    assert!(unmanaged.actions.is_empty() && unmanaged.detections.is_empty());
    assert!(unmanaged.finals.iter().any(|f| !f.meets_bound));
    assert!(
        managed.violation_seconds < unmanaged.violation_seconds,
        "managed {} vs unmanaged {}",
        managed.violation_seconds,
        unmanaged.violation_seconds
    );
}

#[test]
fn same_seed_crash_runs_replay_byte_identical_action_logs() {
    let (a, _) = crash_scenario();
    let (b, _) = crash_scenario();
    assert!(!a.actions.is_empty());
    assert_eq!(a.action_log(), b.action_log());
    assert_eq!(
        icm_json::to_string(&a.detections),
        icm_json::to_string(&b.detections)
    );
    assert_eq!(a.sim_seconds, b.sim_seconds);
    assert_eq!(a.violation_seconds, b.violation_seconds);
}

#[test]
fn an_infeasible_outage_sheds_the_lowest_priority_app() {
    // One slot per host: 8 slots, two span-4 applications fill the whole
    // cluster. Any permanent outage makes the packing infeasible, so the
    // manager must degrade gracefully instead of looping or panicking.
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
        .expect("managed run");

    assert_eq!(
        outcome.shed,
        vec!["H.KM".to_owned()],
        "lowest priority sheds"
    );
    assert_eq!(outcome.action_count(ActionKind::Shed), 1);
    let km = outcome.finals.iter().find(|f| f.app == "H.KM").unwrap();
    assert!(km.shed && !km.meets_bound && km.hosts.is_empty());
    let milc = outcome.finals.iter().find(|f| f.app == "M.milc").unwrap();
    assert!(!milc.shed);
    assert!(milc.meets_bound, "{milc:?}");
    assert!(!milc.hosts.contains(&0), "survivor avoids the dead host");
}

#[test]
fn environment_drift_trips_the_detector_and_triggers_reanneal() {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    let config = ManagerConfig {
        ticks: 8,
        initial_iterations: 600,
        reanneal_iterations: 250,
        drift: DriftConfig {
            threshold: 0.15,
            trip_after: 2,
        },
        environment: Some(icm_manager::EnvironmentDrift {
            from_tick: 3,
            pressures: vec![6.0; 8],
        }),
        ..ManagerConfig::default()
    };

    let outcome =
        run_managed(tb.sim_mut(), &mut fleet, &config, &Tracer::disabled()).expect("managed run");

    assert!(
        outcome
            .detections
            .iter()
            .any(|d| d.kind == DetectionKind::Drift),
        "{:?}",
        outcome.detections
    );
    assert!(
        outcome.action_count(ActionKind::ReAnneal) >= 1,
        "{:?}",
        outcome.actions
    );
    assert!(outcome.violation_seconds > 0.0, "ambient pressure hurts");
}

#[test]
fn defaulted_model_cells_open_the_circuit_breaker_instead_of_replacing() {
    // Four real applications fill all 16 slots, so every application is
    // co-located (pressure > 0) and its predictions hit the quality
    // grid. With every cell Defaulted, drift reactions must be
    // suspended, not acted on.
    let mut tb = testbed(2016);
    let mut apps = managed_apps(
        &mut tb,
        &[("M.milc", 4), ("M.Gems", 3), ("H.KM", 2), ("M.lmps", 1)],
    );
    let row = r#"["Defaulted","Defaulted","Defaulted","Defaulted","Defaulted"]"#;
    let grid_text = format!(r#"{{"n":8,"m":4,"cells":[{}]}}"#, [row; 8].join(","));
    let grid: icm_core::QualityGrid = icm_json::from_str(&grid_text).expect("grid parses");
    for app in &mut apps {
        app.quality = Some(grid.clone());
    }
    let mut fleet = Fleet::new(8, 2, SPAN, apps).expect("fleet packs");
    let config = ManagerConfig {
        ticks: 8,
        initial_iterations: 600,
        reanneal_iterations: 250,
        drift: DriftConfig {
            threshold: 0.15,
            trip_after: 2,
        },
        environment: Some(icm_manager::EnvironmentDrift {
            from_tick: 3,
            pressures: vec![6.0; 8],
        }),
        ..ManagerConfig::default()
    };

    let outcome =
        run_managed(tb.sim_mut(), &mut fleet, &config, &Tracer::disabled()).expect("managed run");

    assert!(
        outcome.action_count(ActionKind::CircuitBreak) >= 1,
        "{:?}",
        outcome.actions
    );
    assert!(
        outcome.action_count(ActionKind::CircuitBreak) <= 4,
        "at most once per application: {:?}",
        outcome.actions
    );
    assert_eq!(
        outcome.action_count(ActionKind::ReAnneal),
        0,
        "defaulted predictions must not drive re-placement: {:?}",
        outcome.actions
    );
    assert_eq!(outcome.action_count(ActionKind::Migrate), 0);
}

#[test]
fn inconsistent_fleets_and_configs_are_rejected_with_typed_errors() {
    let mut tb = testbed(2016);
    let apps = managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]);

    // Model width must match the fleet span.
    let err = Fleet::new(8, 2, 2, apps.clone()).unwrap_err();
    assert!(matches!(err, ManagerError::Config(_)), "{err}");
    assert!(err.to_string().contains("profiled at"), "{err}");

    // Span must divide the slot count.
    let err = Fleet::new(8, 2, 3, apps.clone()).unwrap_err();
    assert!(err.to_string().contains("does not divide"), "{err}");

    // Duplicate applications are rejected.
    let mut dup = apps.clone();
    dup.push(apps[0].clone());
    let err = Fleet::new(8, 2, 4, dup).unwrap_err();
    assert!(err.to_string().contains("duplicate"), "{err}");

    // The reserved idle prefix is off limits.
    let mut renamed = apps.clone();
    renamed[0].name = "idle.sneaky".into();
    let err = Fleet::new(8, 2, 4, renamed).unwrap_err();
    assert!(err.to_string().contains("reserved idle prefix"), "{err}");

    // Runtime configuration is validated before anything runs.
    let mut fleet = Fleet::new(8, 2, 4, apps).expect("fleet packs");
    let err = run_managed(
        tb.sim_mut(),
        &mut fleet,
        &ManagerConfig {
            ticks: 0,
            ..ManagerConfig::default()
        },
        &Tracer::disabled(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("ticks"), "{err}");

    let err = run_managed(
        tb.sim_mut(),
        &mut fleet,
        &ManagerConfig {
            environment: Some(icm_manager::EnvironmentDrift {
                from_tick: 1,
                pressures: vec![1.0; 3],
            }),
            ..ManagerConfig::default()
        },
        &Tracer::disabled(),
    )
    .unwrap_err();
    assert!(err.to_string().contains("3 pressures"), "{err}");
}
