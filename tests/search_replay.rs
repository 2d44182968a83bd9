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
//! A separate test counts the probes a daemon `place` makes through the
//! [`Objective`] protocol: the walk stalls early and then redraws the
//! neighbours it already priced, so far fewer than one probe per
//! candidate reaches the objective.

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
    Estimator, Eval, IncrementalObjective, Objective, PlacementConstraints, PlacementError,
    PlacementState, SearchGoal,
};
use icm_server::world::{build_world, ServerConfig};

/// The pinned digests: one line per search, `<label>: result=<hex>…`.
const GOLDEN: &str = include_str!("search_replay.golden");

/// Seed of the experiment world and the daemon world.
const SEED: u64 = 2016;

/// Runs `search` under a recording tracer teed into telemetry and
/// returns its result and golden line.
fn traced(
    label: &str,
    search: impl FnOnce(&Tracer) -> Result<AnnealResult, PlacementError>,
) -> (AnnealResult, String) {
    let recorder = Recorder::with_capacity(8192);
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let tracer = Tracer::with_telemetry(TelemetrySink::tee(telemetry.clone(), recorder.clone()));
    let result = search(&tracer).expect("search runs");
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
    (result, line)
}

/// The golden lines of the Fig. 11 mix searches.
fn mix_searches() -> Vec<String> {
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
    let mut lines = Vec::new();
    let (best, line) = traced("fig11-greedy", |tracer| {
        anneal_estimator(&estimator, SearchGoal::MinWeightedTotal, &greedy, tracer)
    });
    lines.push(line);
    lines.push(
        traced("fig11-metropolis", |tracer| {
            anneal_estimator(
                &estimator,
                SearchGoal::MinWeightedTotal,
                &metropolis,
                tracer,
            )
        })
        .1,
    );

    // A bound the random start misses: the walk climbs the violation
    // gradient, crossing its plateaus on coin flips.
    let qos = SearchGoal::Qos {
        target: 0,
        max_normalized: 1.05,
    };
    let (qos_result, line) = traced("qos-infeasible-start", |tracer| {
        anneal_estimator(&estimator, qos, &greedy, tracer)
    });
    let start = PlacementState::random(&ctx.problem, &mut icm_rng::Rng::from_seed(greedy.seed));
    let start_time = estimator
        .estimate(&start)
        .expect("estimates")
        .normalized_times[0];
    assert!(start_time > 1.05, "the QoS search must start infeasible");
    assert!(qos_result.accepted > 0);
    lines.push(line);

    // Evict workload 0 from the hosts it holds in the greedy optimum
    // and pin workload 3 where it is.
    let mut constraints = PlacementConstraints::new();
    for host in best.state.hosts_of(&ctx.problem, 0) {
        constraints.exclude(0, host);
    }
    constraints.pin(3);
    let reanneal = AnnealConfig {
        iterations: 400,
        seed: SEED ^ 0xD00D,
        ..AnnealConfig::default()
    };
    lines.push(
        traced("fig11-constrained-re-anneal", |tracer| {
            let objective = IncrementalObjective::new(&estimator, SearchGoal::MinWeightedTotal)?;
            re_anneal_with(
                &ctx.problem,
                objective,
                &best.state,
                &constraints,
                &reanneal,
                tracer,
            )
        })
        .1,
    );
    lines
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
    objective: impl Objective,
    tracer: &Tracer,
) -> Result<AnnealResult, PlacementError> {
    let config = AnnealConfig {
        iterations: 400,
        seed: SEED.wrapping_add(2u64.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        ..AnnealConfig::default()
    };
    anneal_with(fleet.problem(), objective, &config, tracer)
}

/// The golden lines of the fleet searches.
fn fleet_searches() -> Vec<String> {
    let (fleet, initial_iterations, reanneal_iterations) = daemon_fleet();
    let n = fleet.apps().len();
    let hosts = fleet.problem().hosts();
    let all_live = vec![true; n];
    let no_suspicion = vec![0.0; hosts];
    let mut lines = Vec::new();
    let (placed, line) = traced("daemon-place", |tracer| {
        place(
            &fleet,
            FleetObjective::new(&fleet, &all_live, &no_suspicion),
            tracer,
        )
    });
    lines.push(line);
    lines.push(
        traced("manager-initial-placement", |tracer| {
            let config = AnnealConfig {
                iterations: initial_iterations,
                seed: SEED ^ 0x1CF7,
                ..AnnealConfig::default()
            };
            let objective = FleetObjective::new(&fleet, &all_live, &no_suspicion);
            anneal_with(fleet.problem(), objective, &config, tracer)
        })
        .1,
    );

    // The last application shed, the first host down, and suspicion
    // on every host the first application holds.
    let mut live = all_live.clone();
    live[n - 1] = false;
    let mut suspicion = vec![0.0; hosts];
    for host in placed.state.hosts_of(fleet.problem(), 0) {
        suspicion[host] = 0.75;
    }
    let mut constraints = PlacementConstraints::new();
    for app in (0..n).filter(|&i| live[i]) {
        constraints.exclude(app, 0);
    }
    let (reanneal, line) = traced("manager-re-anneal", |tracer| {
        let config = AnnealConfig {
            iterations: reanneal_iterations,
            seed: SEED ^ 0xD00D,
            ..AnnealConfig::default()
        };
        let objective = FleetObjective::new(&fleet, &live, &suspicion);
        re_anneal_with(
            fleet.problem(),
            objective,
            &placed.state,
            &constraints,
            &config,
            tracer,
        )
    });
    assert!(reanneal.accepted > 0, "the re-anneal must move something");
    lines.push(line);
    lines
}

#[test]
fn every_search_matches_its_golden() {
    let lines: Vec<String> = mix_searches().into_iter().chain(fleet_searches()).collect();
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

/// Counts the probes that reach the wrapped objective.
struct Counting<'a, O> {
    inner: O,
    probes: &'a Cell<usize>,
}

impl<O: Objective> Objective for Counting<'_, O> {
    fn reset(&mut self, state: &PlacementState) -> Result<Eval, PlacementError> {
        self.inner.reset(state)
    }

    fn probe(
        &mut self,
        state: &PlacementState,
        a: usize,
        b: usize,
    ) -> Result<Eval, PlacementError> {
        self.probes.set(self.probes.get() + 1);
        self.inner.probe(state, a, b)
    }

    fn accept(&mut self) {
        self.inner.accept();
    }

    fn reject(&mut self) {
        self.inner.reject();
    }
}

#[test]
fn a_daemon_place_probes_each_neighbour_once_per_committed_state() {
    let (fleet, _, _) = daemon_fleet();
    let all_live = vec![true; fleet.apps().len()];
    let no_suspicion = vec![0.0; fleet.problem().hosts()];
    let probes = Cell::new(0);
    let counting = Counting {
        inner: FleetObjective::new(&fleet, &all_live, &no_suspicion),
        probes: &probes,
    };
    let counted = place(&fleet, counting, &Tracer::disabled()).expect("place runs");
    let plain = place(
        &fleet,
        FleetObjective::new(&fleet, &all_live, &no_suspicion),
        &Tracer::disabled(),
    )
    .expect("place runs");
    assert_eq!(counted, plain, "counting changed the search");
    assert_eq!(counted.evaluations, 401, "every candidate is priced");
    assert!(
        probes.get() <= 100,
        "a 400-candidate place made {} real probes",
        probes.get()
    );
}
