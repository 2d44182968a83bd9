//! Search-replay goldens: every kind of placement search the workspace
//! runs, pinned by what it returns and what it traces.
//!
//! Each search runs under a recording tracer teed into telemetry, so
//! the pinned bytes cover the `anneal` span, every `anneal_iter` event
//! (candidate cost, violation, decision, temperature) and the merged
//! candidate-cost sketch. `search_replay.golden` holds, per search, the
//! FNV-1a-64 of its `AnnealResult` JSON, of its event stream (one JSON
//! line per event) and of its telemetry artifact. The searches:
//!
//! * greedy and Metropolis [`anneal_estimator`] on the first Fig. 11
//!   mix (the throughput study's problem);
//! * a QoS search on that mix that starts infeasible, so it walks the
//!   violation plateau and draws its coin flips;
//! * a constrained [`re_anneal_with`] on that mix (an exclusion and a
//!   pin);
//! * the daemon's `place` over its three-application fleet
//!   ([`FleetObjective`], every application live, no suspicion);
//! * the manager's cold initial placement over that fleet, and a
//!   manager re-anneal from the `place` result with one application
//!   shed, a host down and non-zero drift suspicion.
//!
//! Every search prices through a counting evaluation closure, and a
//! separate test pins how many evaluations reach it: a walk that stalls
//! redraws the neighbours it already priced, and the search's memo
//! answers those, so far fewer evaluations than candidates run.

use std::cell::Cell;

use icm::experiments::context::private_testbed;
use icm::experiments::placement_common::MixContext;
use icm::experiments::ExpConfig;
use icm::json::fs::fnv1a64;
use icm::workloads::table5_mixes;
use icm_manager::objective::FleetObjective;
use icm_manager::Fleet;
use icm_obs::{Recorder, Telemetry, TelemetryConfig, TelemetrySink, Tracer};
use icm_placement::{
    anneal_estimator, anneal_with, re_anneal_with, AcceptRule, AnnealConfig, AnnealResult,
    Estimator, Eval, PlacementConstraints, PlacementError, PlacementState, SearchGoal,
};
use icm_server::world::{build_world, ServerConfig};

/// The pinned digests: one line per search, `<label>: result=<hex>…`.
const GOLDEN: &str = include_str!("search_replay.golden");

/// Seed of the experiment world and the daemon world.
const SEED: u64 = 2016;

/// One pinned search: its result, its golden line, and how many times
/// its evaluation closure ran.
struct Pinned {
    result: AnnealResult,
    line: String,
    evaluated: usize,
}

/// `evaluate`, counting its calls in `calls`.
fn counting<'a>(
    calls: &'a Cell<usize>,
    mut evaluate: impl FnMut(&PlacementState) -> Result<Eval, PlacementError> + 'a,
) -> impl FnMut(&PlacementState) -> Result<Eval, PlacementError> + 'a {
    move |state| {
        calls.set(calls.get() + 1);
        evaluate(state)
    }
}

/// Runs `search` under a recording tracer teed into telemetry, with a
/// call counter for its evaluation closure.
fn traced(
    label: &str,
    search: impl FnOnce(&Tracer, &Cell<usize>) -> Result<AnnealResult, PlacementError>,
) -> Pinned {
    let recorder = Recorder::with_capacity(8192);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let tracer = Tracer::with_telemetry(TelemetrySink::tee(telemetry.clone(), recorder.clone()));
    let calls = Cell::new(0);
    let result = search(&tracer, &calls).expect("search runs");
    tracer.flush();
    let events = recorder.events();
    assert!(events.len() < 8192, "{label}: the recorder dropped events");
    assert_eq!(events[0].name, "anneal.begin", "{label}");
    let stream: String = events
        .iter()
        .map(|e| format!("{}\n", icm::json::to_string(e)))
        .collect();
    let line = format!(
        "{label}: result={:016x} events={:016x} telemetry={:016x}",
        fnv1a64(icm::json::to_string(&result).as_bytes()),
        fnv1a64(stream.as_bytes()),
        fnv1a64(telemetry.to_text().as_bytes()),
    );
    Pinned {
        result,
        line,
        evaluated: calls.get(),
    }
}

/// The Fig. 11 mix searches.
fn mix_searches() -> Vec<Pinned> {
    let cfg = ExpConfig {
        fast: true,
        seed: SEED,
    };
    let mut testbed = private_testbed(&cfg);
    let mix = &table5_mixes()[0];
    let ctx = MixContext::build(&mut testbed, &mix.workloads, &cfg).expect("mix profiles");
    let estimator = Estimator::new(&ctx.problem, ctx.model_predictors()).expect("estimator");
    let greedy = AnnealConfig {
        iterations: 800,
        seed: SEED ^ 0xF11,
        ..AnnealConfig::default()
    };
    let metropolis = AnnealConfig {
        accept: AcceptRule::Metropolis {
            initial_temperature: 0.5,
            cooling: 0.995,
        },
        ..greedy
    };
    // What `anneal_estimator` runs, with the goal's evaluation counted.
    let search = |goal: SearchGoal, config: &AnnealConfig, tracer: &Tracer, calls: &Cell<usize>| {
        let evaluate = counting(calls, |s| goal.eval(&estimator, s));
        anneal_with(&ctx.problem, evaluate, config, tracer)
    };
    let mut pinned = Vec::new();
    let greedy_best = traced("fig11-greedy", |tracer, calls| {
        search(SearchGoal::MinWeightedTotal, &greedy, tracer, calls)
    });
    let best = greedy_best.result.state.clone();
    pinned.push(greedy_best);
    pinned.push(traced("fig11-metropolis", |tracer, calls| {
        search(SearchGoal::MinWeightedTotal, &metropolis, tracer, calls)
    }));
    // The counted search is the production one.
    assert_eq!(
        pinned[1].result,
        anneal_estimator(
            &estimator,
            SearchGoal::MinWeightedTotal,
            &metropolis,
            &Tracer::disabled()
        )
        .expect("search runs")
    );

    // A bound the random start misses: the walk climbs the violation
    // gradient, crossing its plateaus on coin flips.
    let qos = SearchGoal::Qos {
        target: 0,
        max_normalized: 1.05,
    };
    let qos_search = traced("qos-infeasible-start", |tracer, calls| {
        search(qos, &greedy, tracer, calls)
    });
    let start = PlacementState::random(&ctx.problem, &mut icm_rng::Rng::from_seed(greedy.seed));
    let start_time = estimator
        .estimate(&start)
        .expect("estimates")
        .normalized_times[0];
    assert!(start_time > 1.05, "the QoS search must start infeasible");
    assert!(qos_search.result.accepted > 0);
    pinned.push(qos_search);

    // Evict workload 0 from the hosts it holds in the greedy optimum
    // and pin workload 3 where it is.
    let mut constraints = PlacementConstraints::new();
    for host in best.hosts_of(&ctx.problem, 0) {
        constraints.exclude(0, host);
    }
    constraints.pin(3);
    let reanneal = AnnealConfig {
        iterations: 400,
        seed: SEED ^ 0xD00D,
        ..AnnealConfig::default()
    };
    pinned.push(traced("fig11-constrained-re-anneal", |tracer, calls| {
        re_anneal_with(
            &ctx.problem,
            counting(calls, |s| SearchGoal::MinWeightedTotal.eval(&estimator, s)),
            &best,
            &constraints,
            &reanneal,
            tracer,
        )
    }));
    pinned
}

/// The daemon's fleet (fast world at [`SEED`]) and the manager's
/// initial and re-anneal iteration budgets over it.
fn daemon_fleet() -> (Fleet, usize, usize) {
    let (_, fleet, manager, _) = build_world(&ServerConfig::new(SEED, true)).expect("world");
    (
        fleet,
        manager.initial_iterations,
        manager.reanneal_iterations,
    )
}

/// The daemon's `place` search for its second request (the default
/// 400 candidates) over its fleet.
fn place(
    fleet: &Fleet,
    evaluate: impl FnMut(&PlacementState) -> Result<Eval, PlacementError>,
    tracer: &Tracer,
) -> Result<AnnealResult, PlacementError> {
    let config = AnnealConfig {
        iterations: 400,
        seed: SEED.wrapping_add(2u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..AnnealConfig::default()
    };
    anneal_with(fleet.problem(), evaluate, &config, tracer)
}

/// The fleet searches.
fn fleet_searches() -> Vec<Pinned> {
    let (fleet, initial_iterations, reanneal_iterations) = daemon_fleet();
    let n = fleet.apps().len();
    let hosts = fleet.problem().hosts();
    let all_live = vec![true; n];
    let no_suspicion = vec![0.0; hosts];
    let mut pinned = Vec::new();
    let placed = traced("daemon-place", |tracer, calls| {
        let mut objective = FleetObjective::new(&fleet, &all_live, &no_suspicion);
        place(&fleet, counting(calls, |s| objective.eval(s)), tracer)
    });
    let placed_state = placed.result.state.clone();
    pinned.push(placed);
    pinned.push(traced("manager-initial-placement", |tracer, calls| {
        let config = AnnealConfig {
            iterations: initial_iterations,
            seed: SEED ^ 0x1CF7,
            ..AnnealConfig::default()
        };
        let mut objective = FleetObjective::new(&fleet, &all_live, &no_suspicion);
        anneal_with(
            fleet.problem(),
            counting(calls, |s| objective.eval(s)),
            &config,
            tracer,
        )
    }));

    // The last application shed, the first host down, and suspicion
    // on every host the first application holds.
    let mut live = all_live.clone();
    live[n - 1] = false;
    let mut suspicion = vec![0.0; hosts];
    for host in placed_state.hosts_of(fleet.problem(), 0) {
        suspicion[host] = 0.75;
    }
    let mut constraints = PlacementConstraints::new();
    for app in (0..n).filter(|&i| live[i]) {
        constraints.exclude(app, 0);
    }
    let reanneal = traced("manager-re-anneal", |tracer, calls| {
        let config = AnnealConfig {
            iterations: reanneal_iterations,
            seed: SEED ^ 0xD00D,
            ..AnnealConfig::default()
        };
        let mut objective = FleetObjective::new(&fleet, &live, &suspicion);
        re_anneal_with(
            fleet.problem(),
            counting(calls, |s| objective.eval(s)),
            &placed_state,
            &constraints,
            &config,
            tracer,
        )
    });
    assert!(
        reanneal.result.accepted > 0,
        "the re-anneal must move something"
    );
    pinned.push(reanneal);
    pinned
}

/// Every pinned search, in golden order.
fn pinned_searches() -> Vec<Pinned> {
    mix_searches().into_iter().chain(fleet_searches()).collect()
}

#[test]
fn every_search_matches_its_golden() {
    let lines: Vec<String> = pinned_searches().into_iter().map(|p| p.line).collect();
    for line in &lines {
        let label = line.split(':').next().expect("a label");
        let golden = GOLDEN
            .lines()
            .find(|l| l.split(':').next() == Some(label))
            .unwrap_or_else(|| panic!("no golden line for {label}"));
        assert_eq!(line, golden, "{label}: the search changed");
    }
    let pinned = GOLDEN.lines().filter(|l| !l.starts_with('#')).count();
    assert_eq!(pinned, lines.len(), "a golden line has no search");
}

/// Each pinned search's evaluations (start state included) and its
/// candidates priced, memo hits included: a redrawn neighbour of the
/// committed state is answered from the memo, so only the greedy walks'
/// first visits and the Metropolis walk's many accepted moves reach the
/// evaluation closure. The same in debug and release builds.
const EVALUATED: [(&str, usize, usize); 7] = [
    ("fig11-greedy", 90, 801),
    ("fig11-metropolis", 763, 801),
    ("qos-infeasible-start", 108, 801),
    ("fig11-constrained-re-anneal", 91, 401),
    ("daemon-place", 67, 401),
    ("manager-initial-placement", 60, 601),
    ("manager-re-anneal", 70, 251),
];

#[test]
fn every_search_evaluates_each_neighbour_once_per_committed_state() {
    let pinned = pinned_searches();
    assert_eq!(pinned.len(), EVALUATED.len());
    for (search, (label, evaluated, evaluations)) in pinned.iter().zip(EVALUATED) {
        assert!(search.line.starts_with(&format!("{label}:")), "{label}");
        assert_eq!(
            (search.evaluated, search.result.evaluations),
            (evaluated, evaluations),
            "{label}: (evaluated, candidates priced)"
        );
    }
}
