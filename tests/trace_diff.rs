//! `icm-trace diff` end-to-end: perturbing one event in the middle of a
//! real fixed-seed trace is pinpointed at exactly that event index with
//! the offending field named, and a truncated replay is reported as a
//! length divergence at the cut point.

use icm_core::{profile, Probe, ProfilerConfig, ProfilingAlgorithm};
use icm_experiments::context::{private_testbed, ExpConfig};
use icm_experiments::tracediff::diff_traces;
use icm_obs::{parse_events, Event, JsonlSink, SharedBuf, Tracer, Value};

/// One real profiling-sweep trace at a fixed seed.
fn real_trace() -> Vec<Event> {
    let cfg = ExpConfig {
        fast: true,
        seed: 2016,
    };
    let mut testbed = private_testbed(&cfg);
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    testbed.sim_mut().set_tracer(tracer.clone());
    let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
    profile(
        &mut probe,
        ProfilingAlgorithm::BinaryOptimized,
        &ProfilerConfig::default(),
        &tracer,
    )
    .expect("profiles");
    tracer.flush();
    parse_events(&buf.text()).expect("trace parses")
}

#[test]
fn perturbed_middle_event_is_pinpointed_with_the_field_name() {
    let a = real_trace();
    assert!(a.len() >= 3, "need a non-trivial trace");
    let mut b = a.clone();
    let mid = a.len() / 2;
    // Find a numeric field in the middle event (or the nearest event
    // after it that has one) and nudge it.
    let (index, field) = (mid..b.len())
        .find_map(|i| {
            b[i].fields
                .iter()
                .position(|(_, v)| matches!(v, Value::F64(_)))
                .map(|p| (i, p))
        })
        .expect("a middle event with a numeric field");
    let field_name = b[index].fields[field].0.clone();
    let Value::F64(old) = b[index].fields[field].1 else {
        unreachable!()
    };
    b[index].fields[field].1 = Value::F64(old + 1.0);

    let report = diff_traces(&a, &b);
    assert!(!report.identical());
    assert_eq!(report.divergences.len(), 1, "only the first fork matters");
    let d = &report.divergences[0];
    assert_eq!(d.index, index as u64, "divergence at the perturbed event");
    assert_eq!(d.kind, "fields");
    assert_eq!(d.name_a, a[index].name);
    assert!(
        d.deltas.iter().any(|delta| delta.field == field_name),
        "the perturbed field `{field_name}` must be named"
    );
}

#[test]
fn truncated_replay_reports_length_divergence_at_the_cut() {
    let a = real_trace();
    let cut = a.len() - 2;
    let report = diff_traces(&a, &a[..cut]);
    let d = &report.divergences[0];
    assert_eq!(d.kind, "length");
    assert_eq!(d.index, cut as u64);
    assert_eq!(d.name_b, "(end of trace)");
    assert_eq!(d.name_a, a[cut].name);
    assert_eq!(report.events_a, a.len() as u64);
    assert_eq!(report.events_b, cut as u64);
}

#[test]
fn same_seed_traces_diff_clean() {
    let a = real_trace();
    let b = real_trace();
    let report = diff_traces(&a, &b);
    assert!(report.identical(), "fixed-seed replays must be identical");
}
