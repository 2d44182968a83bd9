//! End-to-end observability guarantees: at a fixed seed, traced runs of
//! a profiling sweep and an annealing search emit byte-identical JSONL,
//! every line round-trips through `icm-json`, and the `icm-trace`
//! summarizer reconstructs exactly the probe budget the testbed itself
//! accounted.

use icm_core::{profile, Probe, ProfilerConfig, ProfilingAlgorithm};
use icm_experiments::context::{private_testbed, ExpConfig};
use icm_experiments::trace::summarize;
use icm_obs::{parse_events, Event, JsonlSink, SharedBuf, Tracer, Value};
use icm_placement::{
    anneal_estimator, AcceptRule, AnnealConfig, Estimator, PlacementError, PlacementProblem,
    RuntimePredictor, SearchGoal,
};
use icm_simcluster::TestbedStats;

/// Runs the same profiling sweep with a JSONL sink — optionally with the
/// wall-time side channel enabled — and returns the raw trace bytes, the
/// testbed's own accounting, and the tracer (for wall-profile access).
fn traced_profiling_sweep_wall(seed: u64, wall: bool) -> (String, TestbedStats, Tracer) {
    let cfg = ExpConfig { fast: true, seed };
    let mut testbed = private_testbed(&cfg);
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    if wall {
        tracer.enable_wall_profiling();
    }
    testbed.sim_mut().set_tracer(tracer.clone());
    let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
    profile(
        &mut probe,
        ProfilingAlgorithm::BinaryOptimized,
        &ProfilerConfig::default(),
        &tracer,
    )
    .expect("profiles");
    let stats = testbed.sim().stats();
    tracer.flush();
    (buf.text(), stats, tracer)
}

/// Runs the same profiling sweep with a JSONL sink and returns the raw
/// trace bytes plus the testbed's own accounting.
fn traced_profiling_sweep(seed: u64) -> (String, TestbedStats) {
    let (trace, stats, _) = traced_profiling_sweep_wall(seed, false);
    (trace, stats)
}

/// A toy interference model with the given bubble score: runtime grows
/// with the worst co-runner pressure.
struct Toy(f64);

impl RuntimePredictor for Toy {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        Ok(1.0 + 0.1 * pressures.iter().cloned().fold(0.0f64, f64::max))
    }

    fn bubble_score(&self) -> f64 {
        self.0
    }

    fn solo_seconds(&self) -> f64 {
        100.0
    }
}

/// Runs the same Metropolis search with a JSONL sink and returns the raw
/// trace bytes.
fn traced_search(seed: u64) -> String {
    let problem =
        PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
            .expect("valid problem");
    let toys = [Toy(1.0), Toy(5.0), Toy(0.5), Toy(2.0)];
    let predictors: Vec<&dyn RuntimePredictor> =
        toys.iter().map(|t| t as &dyn RuntimePredictor).collect();
    let estimator = Estimator::new(&problem, predictors).expect("valid estimator");
    let buf = SharedBuf::new();
    let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
    anneal_estimator(
        &estimator,
        SearchGoal::MinWeightedTotal,
        &AnnealConfig {
            iterations: 300,
            seed,
            accept: AcceptRule::Metropolis {
                initial_temperature: 0.5,
                cooling: 0.995,
            },
        },
        &tracer,
    )
    .expect("search runs");
    tracer.flush();
    buf.text()
}

#[test]
fn profiling_sweep_trace_is_byte_identical_across_runs() {
    let (first, _) = traced_profiling_sweep(2016);
    let (second, _) = traced_profiling_sweep(2016);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must produce identical traces");
}

#[test]
fn wall_profiling_leaves_the_deterministic_trace_byte_identical() {
    let (plain, _, _) = traced_profiling_sweep_wall(2016, false);
    let (profiled, _, tracer) = traced_profiling_sweep_wall(2016, true);
    assert_eq!(
        plain, profiled,
        "the wall-time side channel must never perturb the JSONL stream"
    );
    let profile = tracer.wall_profile().expect("profiling was enabled");
    assert!(
        !profile.is_empty(),
        "enabled profiling must record at least one span"
    );
    for span in ["profile.fit", "sim.contention", "sim.execute"] {
        let stats = profile
            .get(span)
            .unwrap_or_else(|| panic!("wall profile must cover `{span}`"));
        assert!(stats.count() > 0, "`{span}` must have samples");
        assert!(stats.sum() >= stats.max().unwrap_or(0.0));
    }
    // The disabled run records nothing.
    let (_, _, off) = traced_profiling_sweep_wall(2016, false);
    assert!(off.wall_profile().is_none());
}

#[test]
fn annealing_trace_is_byte_identical_across_runs() {
    let first = traced_search(7);
    let second = traced_search(7);
    assert!(!first.is_empty());
    assert_eq!(first, second, "same seed must produce identical traces");
}

#[test]
fn a_traced_search_seed_parses_back_exactly() {
    // Small seeds, and seeds above 2^53 that an f64 would round.
    for seed in [7, 1 << 53, (1 << 53) + 1, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
        let trace = traced_search(seed);
        let events = parse_events(&trace).expect("trace parses");
        let begin = events
            .iter()
            .find(|e| e.name == "anneal.begin")
            .expect("the search is traced");
        let parsed = match begin.field("seed") {
            Some(&Value::U64(v)) => v,
            Some(&Value::F64(v)) if v < (1u64 << 53) as f64 => v as u64,
            other => panic!("seed {seed} parsed as {other:?}"),
        };
        assert_eq!(parsed, seed);
    }
}

#[test]
fn traces_round_trip_through_icm_json() {
    let (trace, _) = traced_profiling_sweep(2016);
    let events = parse_events(&trace).expect("trace parses");
    assert!(!events.is_empty());
    let reserialized: String = events
        .iter()
        .map(|e| {
            let mut line = icm_json::to_string(e);
            line.push('\n');
            line
        })
        .collect();
    assert_eq!(trace, reserialized, "parse → serialize must be lossless");
    let back: Vec<Event> = parse_events(&reserialized).expect("reparses");
    assert_eq!(events, back);
}

#[test]
fn trace_summary_matches_testbed_accounting() {
    let (trace, stats) = traced_profiling_sweep(2016);
    let events = parse_events(&trace).expect("trace parses");
    let summary = summarize(&events);
    assert_eq!(
        summary.budget.as_stats(),
        stats,
        "icm-trace probe budget must reproduce TestbedStats exactly"
    );
    assert!(summary.budget.solo > 0);
    assert!(summary.budget.bubble > 0);
    assert_eq!(summary.profiles.len(), 1);
}

#[test]
fn search_trace_summarizes_the_objective_trajectory() {
    let trace = traced_search(7);
    let events = parse_events(&trace).expect("trace parses");
    let summary = summarize(&events);
    assert_eq!(summary.searches.len(), 1);
    let search = &summary.searches[0];
    assert_eq!(search.rule, "metropolis");
    assert_eq!(search.trajectory.len() as u64, search.iterations);
    assert!(search.iterations > 0);
    // The running best is monotone non-increasing and ends at best_cost.
    let mut prev = f64::INFINITY;
    for point in &search.trajectory {
        assert!(point.best <= prev + 1e-12);
        prev = point.best;
    }
    assert!((prev - search.best_cost).abs() < 1e-12);
}
