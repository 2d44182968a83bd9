//! End-to-end acceptance for decision provenance: every manager action
//! must be explainable back to the measurements that justified it, and
//! every violation-second must be attributable to a cause — without the
//! provenance layer ever perturbing the determinism or invisibility
//! contracts.
//!
//! * `explain --action N` renders a complete chain (action → detections
//!   → observations, closed by an outcome line) for *every* action in a
//!   faulted managed trace.
//! * `explain --violations` attributes 100% of the violation time the
//!   run outcome reports.
//! * Same-seed traces explain byte-identically.
//! * With faults disabled, a managed run with provenance enabled stays
//!   byte-identical to the unmanaged path and carries no provenance.

use icm_core::DriftConfig;
use icm_experiments::explain::{explain_action, explain_all, explain_violations};
use icm_manager::{
    run_managed, run_unmanaged, EnvironmentDrift, Fleet, ManagerConfig, ManagerOutcome,
};
use icm_obs::manager::MANAGER_OUTCOME;
use icm_obs::{parse_events, Event, JsonlSink, SharedBuf, Tracer, Value};
use icm_simcluster::{CrashWindow, FaultPlan};

mod common;
use common::{lenient, managed_apps, testbed, SPAN};

/// One traced run. With `stamp`, mirrors the recovery experiment by
/// emitting a `manager_outcome` event at the end so violation
/// attribution has a reported total to cover; the quiet-run comparison
/// leaves it off because the stamp names the mode, which would differ
/// between the otherwise byte-identical managed and unmanaged traces.
fn traced_run(managed: bool, plan: Option<FaultPlan>, stamp: bool) -> (String, ManagerOutcome) {
    traced_run_with(managed, plan, &lenient(6), stamp)
}

fn traced_run_with(
    managed: bool,
    plan: Option<FaultPlan>,
    config: &ManagerConfig,
    stamp: bool,
) -> (String, ManagerOutcome) {
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
    let outcome = if managed {
        run_managed(tb.sim_mut(), &mut fleet, config, &tracer).expect("managed run")
    } else {
        run_unmanaged(tb.sim_mut(), &mut fleet, config, &tracer).expect("unmanaged run")
    };
    if stamp {
        tracer.event(
            MANAGER_OUTCOME,
            &[
                ("scenario", Value::from("acceptance")),
                ("managed", Value::from(managed)),
                ("violation_s", Value::from(outcome.violation_seconds)),
            ],
        );
    }
    tracer.flush();
    (buf.text(), outcome)
}

/// The crash schedule: a permanent outage on a host the first
/// application occupies, two ticks into the run. Discovered on clones —
/// identical seeds make the probe's placement the real run's placement.
fn fault_plan() -> FaultPlan {
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

fn parse(trace: &str) -> Vec<Event> {
    parse_events(trace).expect("trace parses")
}

#[test]
fn every_action_explains_to_a_complete_chain() {
    let (trace, outcome) = traced_run(true, Some(fault_plan()), true);
    assert!(!outcome.actions.is_empty(), "the crash never fired");
    assert_eq!(
        outcome.provenance.len(),
        outcome.actions.len(),
        "one provenance record per action"
    );
    let events = parse(&trace);
    let names: std::collections::BTreeMap<u64, &str> =
        events.iter().map(|e| (e.step, e.name.as_str())).collect();
    for (n, record) in outcome.provenance.iter().enumerate() {
        assert_eq!(record.action_index as usize, n);
        assert_eq!(record.kind, outcome.actions[n].kind.as_str());
        assert!(
            !record.detections.is_empty(),
            "action {n} ({}) carries no detection inputs",
            record.kind
        );
        // The record's event ids resolve to the right trace events.
        assert_eq!(names.get(&record.event), Some(&"manager_action"));
        for det in &record.detections {
            assert_eq!(names.get(&det.event), Some(&"manager_detection"));
        }
        let text = explain_action(&events, n).expect("chain renders");
        assert!(text.starts_with(&format!("action {n}: ")), "got: {text}");
        assert!(text.contains("detection:"), "no detection hop: {text}");
        assert!(
            text.contains("outcome:"),
            "chain must close with an outcome line: {text}"
        );
    }
    // Resolved actions carry a realized slowdown for the audit.
    assert!(
        outcome
            .provenance
            .iter()
            .any(|r| r.resolved && r.realized_slowdown > 0.0),
        "no action was ever resolved against a completed tick"
    );
}

#[test]
fn violations_are_fully_attributed_to_causes() {
    // The crash alone is dodged preemptively (the host-down peek fires
    // before any run lands on the dead host), so pile on ambient drift
    // and a tight QoS bound: violations accrue on the observed ticks and
    // must flow through the attribution taxonomy.
    let mut config = lenient(6);
    config.qos_fraction = 0.6;
    config.drift = DriftConfig {
        threshold: 0.2,
        trip_after: 2,
    };
    config.environment = Some(EnvironmentDrift {
        from_tick: 2,
        pressures: (0..8).map(|h| if h < 4 { 6.0 } else { 0.0 }).collect(),
    });
    let (trace, outcome) = traced_run_with(true, Some(fault_plan()), &config, true);
    assert!(outcome.violation_seconds > 0.0, "the faults cost nothing");
    let events = parse(&trace);
    let attributed: f64 = events
        .iter()
        .filter(|e| e.name == "qos_violation")
        .map(|e| e.num("violation_s").unwrap_or(0.0))
        .sum();
    assert!(
        (attributed - outcome.violation_seconds).abs() < 1e-6,
        "attributed {attributed} vs reported {}",
        outcome.violation_seconds
    );
    // Every violation event names a known cause and a causal parent.
    for event in events.iter().filter(|e| e.name == "qos_violation") {
        let cause = event.str("cause").expect("cause field");
        assert!(
            ["fault", "mispredict", "latency"].contains(&cause),
            "unknown cause `{cause}`"
        );
        assert!(!event.causes.is_empty(), "violation with no causal parent");
    }
    let text = explain_violations(&events).expect("renders");
    assert!(text.contains("(100.0%)"), "coverage short of 100%: {text}");
    assert!(text.contains("fault"), "got: {text}");
}

#[test]
fn same_seed_traces_explain_byte_identically() {
    let plan = fault_plan();
    let (trace_a, _) = traced_run(true, Some(plan.clone()), true);
    let (trace_b, _) = traced_run(true, Some(plan), true);
    assert_eq!(trace_a, trace_b, "same-seed traces diverged");
    let events_a = parse(&trace_a);
    let events_b = parse(&trace_b);
    assert_eq!(
        explain_all(&events_a).expect("a explains"),
        explain_all(&events_b).expect("b explains"),
        "same-seed explanations diverged"
    );
    assert_eq!(
        explain_violations(&events_a).expect("a attributes"),
        explain_violations(&events_b).expect("b attributes"),
        "same-seed attributions diverged"
    );
}

#[test]
fn quiet_managed_runs_stay_invisible_with_provenance_enabled() {
    let (managed_trace, managed) = traced_run(true, None, false);
    let (unmanaged_trace, unmanaged) = traced_run(false, None, false);
    assert_eq!(
        managed_trace, unmanaged_trace,
        "provenance perturbed the quiet run"
    );
    assert!(
        !managed_trace.contains("manager_detection"),
        "quiet ticks must stay silent"
    );
    assert!(
        managed.provenance.is_empty() && unmanaged.provenance.is_empty(),
        "provenance records on a quiet run"
    );
    assert_eq!(managed.violation_seconds, unmanaged.violation_seconds);
}
