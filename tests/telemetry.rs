//! End-to-end acceptance for streaming telemetry (`icm-obs`):
//! constant-memory aggregation is part of the determinism contract.
//!
//! * A 10× longer same-seed managed run produces a telemetry artifact
//!   of essentially identical size — the rings bound it, and both stay
//!   under the fixed byte budget.
//! * Two same-seed managed runs serialize byte-identical artifacts.
//! * Tee mode (raw trace + telemetry) leaves the raw JSONL trace
//!   byte-identical to a telemetry-off run: aggregation is observation,
//!   never perturbation.

use icm_manager::{run_managed, Fleet, ManagerOutcome};
use icm_obs::{
    JsonlSink, SharedBuf, Telemetry, TelemetryConfig, TelemetrySink, Tracer, TELEMETRY_BYTE_BUDGET,
};
use icm_simcluster::{CrashWindow, FaultPlan};

mod common;
use common::{lenient, managed_apps, testbed, SPAN};

/// Rings small enough that even the short run saturates them, so the
/// size comparison exercises the steady state rather than the ramp.
fn small_rings() -> TelemetryConfig {
    TelemetryConfig {
        window_s: 200.0,
        max_windows: 4,
        snapshot_every_s: 500.0,
        max_snapshots: 4,
        ..TelemetryConfig::default()
    }
}

/// The crash schedule shared by every test: a permanent outage on a
/// host the first application occupies, two ticks in. Discovered on
/// clones — identical seeds make the probe's placement the real run's
/// placement.
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

/// One managed run in telemetry-replace mode (no raw trace at all),
/// with a final snapshot stamped the way the CLI does it.
fn telemetry_run(ticks: u64, plan: FaultPlan) -> (Telemetry, ManagerOutcome) {
    let mut tb = testbed(2016);
    let mut fleet = Fleet::new(
        8,
        2,
        SPAN,
        managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
    )
    .expect("fleet packs");
    tb.sim_mut().set_fault_plan(Some(plan));
    let telemetry = Telemetry::new(small_rings());
    let tracer = Tracer::with_telemetry(TelemetrySink::new(telemetry.clone()));
    tb.sim_mut().set_tracer(tracer.clone());
    let outcome =
        run_managed(tb.sim_mut(), &mut fleet, &lenient(ticks), &tracer).expect("managed run");
    tracer.flush();
    let stamp = tracer.now();
    telemetry.snapshot_now(stamp.step, stamp.sim_s);
    (telemetry, outcome)
}

#[test]
fn a_10x_longer_run_keeps_the_artifact_at_the_same_bounded_size() {
    let plan = crash_plan();
    let (short, _) = telemetry_run(4, plan.clone());
    let (long, _) = telemetry_run(40, plan);
    let short_text = short.to_text();
    let long_text = long.to_text();
    assert!(short.events() > 0, "telemetry saw no events");
    assert!(
        long.events() > short.events(),
        "the long run must fold more events"
    );
    assert!(
        short_text.len() <= TELEMETRY_BYTE_BUDGET && long_text.len() <= TELEMETRY_BYTE_BUDGET,
        "artifact over budget: short {} / long {} vs {}",
        short_text.len(),
        long_text.len(),
        TELEMETRY_BYTE_BUDGET
    );
    // Constant memory, not merely bounded growth: once the rings are
    // full, 10× the ticks may only move the digit widths.
    assert!(
        long_text.len() * 4 <= short_text.len() * 5,
        "10x ticks grew the artifact {} -> {} bytes (>25%)",
        short_text.len(),
        long_text.len()
    );
}

#[test]
fn same_seed_runs_serialize_byte_identical_artifacts() {
    let plan = crash_plan();
    let (a, outcome_a) = telemetry_run(6, plan.clone());
    let (b, outcome_b) = telemetry_run(6, plan);
    assert!(
        !outcome_a.actions.is_empty(),
        "the crash schedule never fired"
    );
    assert_eq!(outcome_a.action_log(), outcome_b.action_log());
    let text_a = a.to_text();
    assert_eq!(text_a, b.to_text(), "same-seed telemetry diverged");
    // The artifact actually carries the health vocabulary.
    assert_eq!(a.counter("manager.ticks.managed"), 6, "one count per tick");
    assert!(a.snapshot_count() >= 1, "no health snapshot was stamped");
    for needle in ["manager.ticks.managed", "anneal.cost", "testbed.run_s"] {
        assert!(text_a.contains(needle), "artifact lacks `{needle}`");
    }
}

#[test]
fn tee_mode_leaves_the_raw_trace_byte_identical() {
    let plan = crash_plan();
    let run = |telemetry: Option<Telemetry>| -> String {
        let mut tb = testbed(2016);
        let mut fleet = Fleet::new(
            8,
            2,
            SPAN,
            managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
        )
        .expect("fleet packs");
        tb.sim_mut().set_fault_plan(Some(plan.clone()));
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        let tracer = match telemetry {
            Some(t) => Tracer::with_telemetry(TelemetrySink::tee(t, sink)),
            None => Tracer::with_sink(sink),
        };
        tb.sim_mut().set_tracer(tracer.clone());
        run_managed(tb.sim_mut(), &mut fleet, &lenient(6), &tracer).expect("managed run");
        tracer.flush();
        buf.text()
    };
    let plain = run(None);
    let telemetry = Telemetry::new(small_rings());
    let teed = run(Some(telemetry.clone()));
    assert!(!plain.is_empty());
    assert_eq!(plain, teed, "tee mode perturbed the raw trace");
    assert!(
        telemetry.events() > 0,
        "the tee forwarded but never aggregated"
    );
}

/// Tee under compound faults: a crash outage *and* ambient stragglers
/// drive the manager through its error paths (failed ticks, straggler
/// kills, re-anneals, provenance-linked violation events), and the raw
/// trace must still be byte-identical to a telemetry-off run. The
/// aggregation side channel may never perturb the stream it observes —
/// least of all on the eventful ticks where provenance is emitted.
#[test]
fn tee_under_faults_leaves_the_raw_trace_byte_identical() {
    let plan = FaultPlan {
        straggler_prob: 0.2,
        straggler_severity: 0.8,
        ..crash_plan()
    };
    let run = |telemetry: Option<Telemetry>| -> (String, ManagerOutcome) {
        let mut tb = testbed(2016);
        let mut fleet = Fleet::new(
            8,
            2,
            SPAN,
            managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]),
        )
        .expect("fleet packs");
        tb.sim_mut().set_fault_plan(Some(plan.clone()));
        let buf = SharedBuf::new();
        let sink = JsonlSink::new(buf.clone());
        let tracer = match telemetry {
            Some(t) => Tracer::with_telemetry(TelemetrySink::tee(t, sink)),
            None => Tracer::with_sink(sink),
        };
        tb.sim_mut().set_tracer(tracer.clone());
        let outcome =
            run_managed(tb.sim_mut(), &mut fleet, &lenient(8), &tracer).expect("managed run");
        tracer.flush();
        (buf.text(), outcome)
    };
    let (plain, outcome) = run(None);
    let telemetry = Telemetry::new(small_rings());
    let (teed, teed_outcome) = run(Some(telemetry.clone()));
    assert!(
        !outcome.actions.is_empty(),
        "the compound fault plan never drove a reaction"
    );
    assert_eq!(outcome.action_log(), teed_outcome.action_log());
    assert_eq!(plain, teed, "tee under faults perturbed the raw trace");
    assert!(
        plain.contains("\"causes\""),
        "the faulted run emitted no cause-linked events"
    );
    assert!(
        telemetry.events() > 0,
        "the tee forwarded but never aggregated"
    );
}
