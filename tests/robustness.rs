//! End-to-end robustness guarantees: fault injection is part of the
//! determinism contract, not an exception to it.
//!
//! * With faults *disabled* — no plan, or an inactive plan — the
//!   resilient driver and the testbed are byte-identical to the pre-PR
//!   no-injector pipeline: same traces, same accounting, same matrices.
//! * With faults *enabled*, two same-seed runs still write byte-identical
//!   JSONL traces, retry and fault events included.
//! * At a 10% injected probe-failure rate, binary-optimized profiling
//!   through the resilient driver still delivers a full-coverage model.

use icm_core::{
    profile, profile_resilient, Probe, ProfileResult, ProfilerConfig, ProfilingAlgorithm,
    ResilientOutcome,
};
use icm_experiments::context::{private_testbed, ExpConfig};
use icm_obs::{JsonlSink, SharedBuf, Tracer};
use icm_simcluster::{FaultPlan, TestbedStats};

fn cfg(seed: u64) -> ExpConfig {
    ExpConfig { fast: true, seed }
}

/// One traced binary-optimized sweep of M.zeus through the *resilient*
/// driver, with an optional fault plan installed after the solo
/// baseline. Returns the raw trace bytes, the testbed's accounting, and
/// the driver's outcome.
fn resilient_sweep(seed: u64, plan: Option<FaultPlan>) -> (String, TestbedStats, ResilientOutcome) {
    let cfg = cfg(seed);
    let mut testbed = private_testbed(&cfg);
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    testbed.sim_mut().set_tracer(tracer.clone());
    let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
    probe.testbed().sim_mut().set_fault_plan(plan);
    let outcome = profile_resilient(
        &mut probe,
        ProfilingAlgorithm::BinaryOptimized,
        &ProfilerConfig::default(),
        &tracer,
    )
    .expect("profiles");
    let stats = testbed.sim().stats();
    tracer.flush();
    (buf.text(), stats, outcome)
}

/// The same sweep through the plain (pre-PR) driver, no fault plan.
fn plain_sweep(seed: u64) -> (String, TestbedStats, ProfileResult) {
    let cfg = cfg(seed);
    let mut testbed = private_testbed(&cfg);
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    testbed.sim_mut().set_tracer(tracer.clone());
    let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
    let result = profile(
        &mut probe,
        ProfilingAlgorithm::BinaryOptimized,
        &ProfilerConfig::default(),
        &tracer,
    )
    .expect("profiles");
    let stats = testbed.sim().stats();
    tracer.flush();
    (buf.text(), stats, result)
}

#[test]
fn faults_disabled_is_byte_identical_to_the_no_injector_path() {
    let (plain_trace, plain_stats, plain_result) = plain_sweep(11);
    // No plan at all: the resilient wrapper must be invisible.
    let (no_plan_trace, no_plan_stats, no_plan) = resilient_sweep(11, None);
    assert_eq!(
        no_plan_trace, plain_trace,
        "resilient driver perturbed the trace"
    );
    assert_eq!(no_plan_stats, plain_stats);
    assert_eq!(no_plan.result.matrix, plain_result.matrix);
    assert_eq!(no_plan.result.measured, plain_result.measured);
    assert_eq!(no_plan.stats.retries, 0);
    assert_eq!(no_plan.stats.defaulted_settings, 0);
    // An installed-but-inactive plan: also invisible.
    let inactive = FaultPlan::uniform(0.0);
    assert!(!inactive.is_active());
    let (inactive_trace, inactive_stats, inactive_outcome) = resilient_sweep(11, Some(inactive));
    assert_eq!(
        inactive_trace, plain_trace,
        "inactive plan perturbed the trace"
    );
    assert_eq!(inactive_stats, plain_stats);
    assert_eq!(inactive_outcome.result.matrix, plain_result.matrix);
}

#[test]
fn same_seed_faulty_runs_write_byte_identical_traces() {
    let plan = FaultPlan::uniform(0.25);
    let (trace_a, stats_a, outcome_a) = resilient_sweep(7, Some(plan.clone()));
    let (trace_b, stats_b, outcome_b) = resilient_sweep(7, Some(plan));
    assert!(!trace_a.is_empty());
    assert_eq!(trace_a, trace_b, "same-seed faulty traces diverged");
    assert_eq!(stats_a, stats_b);
    assert_eq!(outcome_a.result.matrix, outcome_b.result.matrix);
    assert_eq!(outcome_a.stats, outcome_b.stats);
    // The identical traces must actually contain the fault machinery:
    // injections from the testbed and retries from the driver.
    assert!(
        trace_a.contains("\"fault\""),
        "no injected-fault events in the trace"
    );
    assert!(
        trace_a.contains("\"probe_retry\""),
        "no retry events in the trace"
    );
    assert!(outcome_a.stats.retries > 0, "the plan never fired");
}

#[test]
fn ten_percent_probe_failures_still_yield_a_full_coverage_model() {
    // Faultless ground truth: the fully measured matrix.
    let cfg0 = cfg(31);
    let mut testbed = private_testbed(&cfg0);
    let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
    let truth = profile(
        &mut probe,
        ProfilingAlgorithm::Full,
        &ProfilerConfig::default(),
        &Tracer::disabled(),
    )
    .expect("profiles")
    .matrix;

    let (_, _, outcome) = resilient_sweep(31, Some(FaultPlan::probe_failures(0.10)));
    let (_, _, defaulted) = outcome.quality.counts();
    assert_eq!(defaulted, 0, "retry budget failed to cover every setting");
    assert_eq!(outcome.quality.defaulted_fraction(), 0.0);
    assert!(outcome.stats.retries > 0, "10% failures never fired");
    // Lost probes cost retries, not fidelity: the model still validates
    // against the faultless full profile.
    let err = outcome
        .result
        .matrix
        .mean_abs_error_pct(&truth)
        .expect("same shape");
    assert!(err < 5.0, "model error {err:.2}% too high under probe loss");
}
