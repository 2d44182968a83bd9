//! The supervisory control loop.
//!
//! [`run_managed`] executes a fleet on an [`SimTestbed`] over a horizon
//! of supervisory epochs ("ticks"), reacting to failures;
//! [`run_unmanaged`] drives the *same* tick loop with reactions
//! disabled, which is the baseline every recovery comparison is made
//! against. Both paths consume identical testbed randomness, so with
//! faults disabled their simulated histories are byte-identical — the
//! manager is invisible until something goes wrong.
//!
//! Each tick the manager:
//!
//! 1. peeks the fault plan for hosts entering a crash window at the
//!    next run and migrates affected applications *before* the outage
//!    rejects the deployment (checkpoint + resume, explicit restart
//!    cost in simulated seconds);
//! 2. runs every live application on its current placement and feeds
//!    the observed slowdowns back through
//!    [`OnlineModel::observe_for`](icm_core::OnlineModel::observe_for)
//!    and a per-app [`DriftDetector`](icm_core::DriftDetector);
//! 3. reacts to drift trips, sustained SLO violations and straggler
//!    kills with a bounded incremental re-anneal seeded from the
//!    current placement (never a full restart), sheds the
//!    lowest-priority application when no feasible placement exists,
//!    and opens a circuit breaker instead of re-placing when the
//!    triggering prediction rests on defaulted model cells.
//!
//! Every decision is recorded as a typed [`ActionRecord`] /
//! [`DetectionRecord`]; the serialized action log is byte-identical
//! across same-seed, same-fault-plan replays.

use icm_core::{DriftConfig, DriftDetector, DriftSignal, ModelQuality};
use icm_obs::manager as events;
use icm_obs::provenance::{CAUSE_FAULT, CAUSE_LATENCY, CAUSE_MISPREDICT, QOS_VIOLATION};
use icm_obs::{
    DetectionInput, ObservationRef, OutcomeRef, PlacementRef, ProvenanceRecord, Tracer, Value,
};
use icm_placement::{
    anneal_with, re_anneal_with, AnnealConfig, PlacementConstraints, PlacementState,
};
use icm_simcluster::{AppRun, Deployment, Placement, SimTestbed, TestbedError, TestbedStats};

use crate::action::{
    ActionKind, ActionRecord, AppFinal, DetectionKind, DetectionRecord, ManagerOutcome,
};
use crate::error::ManagerError;
use crate::fleet::Fleet;
use crate::ledger::Ledger;
use crate::objective::{context_of, FleetObjective};

/// Ambient pressure applied to the cluster from a given tick onward —
/// the environment drift the recovery experiment sweeps. The manager
/// never sees this directly; it only sees its consequences in observed
/// slowdowns.
#[derive(Debug, Clone, PartialEq)]
pub struct EnvironmentDrift {
    /// First tick (1-based) the pressure applies to.
    pub from_tick: u64,
    /// Per-host bubble pressure, length = cluster hosts.
    pub pressures: Vec<f64>,
}

icm_json::impl_json!(struct EnvironmentDrift { from_tick, pressures });

/// Restart cost charged per migrated application, simulated seconds.
const MIGRATION_COST_S: f64 = 30.0;

/// Supervisory-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    /// Supervisory epochs to run.
    pub ticks: u64,
    /// Seed for every search the manager launches (initial placement
    /// and re-anneals); reaction seeds are derived from it and the tick.
    pub seed: u64,
    /// Iterations of the initial (cold) placement search.
    pub initial_iterations: usize,
    /// Iterations of each bounded incremental re-anneal.
    pub reanneal_iterations: usize,
    /// Drift-detector settings applied per application.
    pub drift: DriftConfig,
    /// Ticks of consecutive QoS violation before the manager reacts.
    pub slo_trip_after: u32,
    /// The QoS contract every application is held to: the guaranteed
    /// fraction of its solo performance (§5.2), so its normalized
    /// runtime may reach `1 / qos_fraction`.
    pub qos_fraction: f64,
    /// Optional ambient drift injected by the environment.
    pub environment: Option<EnvironmentDrift>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            ticks: 12,
            seed: 2016,
            initial_iterations: 1500,
            reanneal_iterations: 300,
            drift: DriftConfig::default(),
            slo_trip_after: 3,
            qos_fraction: 0.8,
            environment: None,
        }
    }
}

icm_json::impl_json!(struct ManagerConfig {
    ticks,
    seed,
    initial_iterations,
    reanneal_iterations,
    drift,
    slo_trip_after,
    qos_fraction,
    environment,
});

impl ManagerConfig {
    /// The largest normalized runtime the QoS contract allows.
    fn max_normalized_time(&self) -> f64 {
        1.0 / self.qos_fraction
    }

    fn validate(&self, hosts: usize) -> Result<(), ManagerError> {
        if self.ticks == 0 {
            return Err(ManagerError::Config("ticks must be >= 1".into()));
        }
        if !(self.drift.threshold.is_finite() && self.drift.threshold > 0.0) {
            return Err(ManagerError::Config(format!(
                "drift threshold must be positive, got {}",
                self.drift.threshold
            )));
        }
        if self.drift.trip_after == 0 || self.slo_trip_after == 0 {
            return Err(ManagerError::Config(
                "trip_after windows must be >= 1".into(),
            ));
        }
        if !(self.qos_fraction.is_finite() && self.qos_fraction > 0.0 && self.qos_fraction <= 1.0) {
            return Err(ManagerError::Config(format!(
                "qos fraction must be in (0, 1], got {}",
                self.qos_fraction
            )));
        }
        if let Some(env) = &self.environment {
            if env.pressures.len() != hosts {
                return Err(ManagerError::Config(format!(
                    "environment drift has {} pressures for a {hosts}-host cluster",
                    env.pressures.len()
                )));
            }
            if env.pressures.iter().any(|p| !p.is_finite() || *p < 0.0) {
                return Err(ManagerError::Config(
                    "environment drift pressures must be finite and >= 0".into(),
                ));
            }
        }
        Ok(())
    }
}

/// Runs the fleet with the manager's reactions enabled.
///
/// # Errors
///
/// [`ManagerError::Config`] on inconsistent configuration, or a
/// propagated placement/model/testbed failure. Injected faults are
/// *not* errors: the loop absorbs and reacts to them.
pub fn run_managed(
    testbed: &mut SimTestbed,
    fleet: &mut Fleet,
    config: &ManagerConfig,
    tracer: &Tracer,
) -> Result<ManagerOutcome, ManagerError> {
    run(testbed, fleet, config, tracer, true)
}

/// Runs the same tick loop with reactions disabled — the baseline.
///
/// # Errors
///
/// See [`run_managed`].
pub fn run_unmanaged(
    testbed: &mut SimTestbed,
    fleet: &mut Fleet,
    config: &ManagerConfig,
    tracer: &Tracer,
) -> Result<ManagerOutcome, ManagerError> {
    run(testbed, fleet, config, tracer, false)
}

/// Per-application supervisory state. Serializable as part of
/// [`ManagedRun`] so a savestate carries every streak and breaker flag.
#[derive(Debug, Clone, PartialEq)]
struct AppState {
    detector: DriftDetector,
    slo_streak: u32,
    breaker_open: bool,
    last_normalized: f64,
    last_ok: bool,
    /// Prediction behind the most recent completed observation.
    last_predicted: f64,
    /// Violation-seconds this app accrued on its most recent tick.
    last_violation_s: f64,
    /// Recent completed observations (bounded window) — the causal
    /// ancestry handed to detections that trip on them.
    recent_obs: Vec<ObservationRef>,
}

icm_json::impl_json!(struct AppState {
    detector,
    slo_streak,
    breaker_open,
    last_normalized,
    last_ok,
    last_predicted,
    last_violation_s,
    recent_obs,
});

/// Deterministic per-reaction seed: distinct per tick and purpose.
fn reaction_seed(base: u64, tick: u64, salt: u64) -> u64 {
    base ^ tick.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt
}

/// Exclusion constraints keeping every live application off `downed`.
fn outage_constraints(live: &[bool], downed: &[usize]) -> PlacementConstraints {
    let mut constraints = PlacementConstraints::new();
    for (i, &alive) in live.iter().enumerate() {
        if !alive {
            continue;
        }
        for &h in downed {
            constraints.exclude(i, h);
        }
    }
    constraints
}

/// Inputs behind one detection: the causal ancestry (observation or
/// fault event ids) plus the detector's trip-time state.
#[derive(Default)]
struct DetectCtx {
    causes: Vec<u64>,
    score: f64,
    threshold: f64,
    streak: u64,
    observations: Vec<ObservationRef>,
}

/// Justification behind one action: the prediction quality grade, the
/// predicted slowdown, the candidate placements committed to, and the
/// violation-seconds accrued on the triggering tick.
struct ActCtx {
    quality: &'static str,
    predicted: f64,
    placement: Vec<PlacementRef>,
    trigger_violation_s: f64,
}

/// One detector trip on an application's observation window: its
/// kind, score and threshold, the streak it cites, and the suspicion
/// it raises the application's hosts to.
struct Trip {
    kind: DetectionKind,
    score: f64,
    threshold: f64,
    streak: u32,
    suspicion: f64,
}

struct Supervisor<'a> {
    tracer: &'a Tracer,
    managed: bool,
    tick: u64,
    tick_announced: bool,
    detections: Vec<DetectionRecord>,
    actions: Vec<ActionRecord>,
    /// Detection inputs collected this tick — the justification pool
    /// actions draw their provenance from.
    tick_inputs: Vec<DetectionInput>,
}

impl Supervisor<'_> {
    fn announce(&mut self) {
        if self.tick_announced || !self.managed {
            return;
        }
        self.tick_announced = true;
        if self.tracer.enabled() {
            self.tracer
                .event(events::MANAGER_TICK, &[("tick", Value::from(self.tick))]);
        }
    }

    fn detect(
        &mut self,
        sim_s: f64,
        kind: DetectionKind,
        app: Option<&str>,
        host: Option<u64>,
        ctx: DetectCtx,
    ) {
        if !self.managed {
            return;
        }
        self.announce();
        self.detections.push(DetectionRecord {
            tick: self.tick,
            sim_s,
            kind,
            app: app.map(str::to_owned),
            host,
        });
        let event = if self.tracer.enabled() {
            let mut fields = vec![
                ("tick", Value::from(self.tick)),
                ("kind", Value::from(kind.as_str())),
                ("score", Value::from(ctx.score)),
                ("threshold", Value::from(ctx.threshold)),
                ("streak", Value::from(ctx.streak)),
            ];
            if let Some(app) = app {
                fields.push(("app", Value::from(app)));
            }
            if let Some(host) = host {
                fields.push(("host", Value::from(host)));
            }
            self.tracer
                .event_caused(events::MANAGER_DETECTION, &ctx.causes, &fields)
        } else {
            0
        };
        self.tick_inputs.push(DetectionInput {
            event,
            kind: kind.as_str().to_owned(),
            app: app.map(str::to_owned),
            host,
            score: ctx.score,
            threshold: ctx.threshold,
            streak: ctx.streak,
            observations: ctx.observations,
        });
    }

    fn act(
        &mut self,
        sim_s: f64,
        kind: ActionKind,
        app: Option<&str>,
        cost_s: f64,
        ctx: ActCtx,
        prov: &mut Ledger<ProvenanceRecord>,
    ) {
        if !self.managed {
            return;
        }
        self.announce();
        self.actions.push(ActionRecord {
            tick: self.tick,
            sim_s,
            kind,
            app: app.map(str::to_owned),
            cost_s,
        });
        // App-scoped actions are justified by their app's detections
        // (plus app-less ones like host-down peeks); a collateral action
        // with no scoped detection — e.g. a migration rippling out of
        // another app's drift trip — inherits the whole tick's pool.
        let mut detections: Vec<DetectionInput> = self
            .tick_inputs
            .iter()
            .filter(|d| match (app, &d.app) {
                (Some(a), Some(da)) => da == a,
                _ => true,
            })
            .cloned()
            .collect();
        if detections.is_empty() {
            detections = self.tick_inputs.clone();
        }
        let causes: Vec<u64> = detections.iter().map(|d| d.event).collect();
        let event = if self.tracer.enabled() {
            let mut fields = vec![
                ("tick", Value::from(self.tick)),
                ("kind", Value::from(kind.as_str())),
                ("cost_s", Value::from(cost_s)),
                ("quality", Value::from(ctx.quality)),
                ("predicted", Value::from(ctx.predicted)),
            ];
            if let Some(app) = app {
                fields.push(("app", Value::from(app)));
            }
            self.tracer
                .event_caused(events::MANAGER_ACTION, &causes, &fields)
        } else {
            0
        };
        self.tracer
            .telemetry_count(&format!("manager.actions.{}", kind.as_str()), 1);
        prov.push(ProvenanceRecord {
            action_index: prov.len() as u64,
            event,
            tick: self.tick,
            sim_s,
            kind: kind.as_str().to_owned(),
            app: app.map(str::to_owned),
            cost_s,
            quality: ctx.quality.to_owned(),
            predicted_slowdown: ctx.predicted,
            realized_slowdown: 0.0,
            resolved: false,
            trigger_violation_s: ctx.trigger_violation_s,
            violation_incurred_s: 0.0,
            placement: ctx.placement,
            detections,
            outcome: None,
        });
    }

    fn recovered(&mut self, latency_s: f64, prov: &mut Ledger<ProvenanceRecord>) {
        self.announce();
        let unsettled: Vec<usize> = (0..prov.len())
            .filter(|&i| prov[i].outcome.is_none())
            .collect();
        let causes: Vec<u64> = unsettled.iter().map(|&i| prov[i].event).collect();
        let event = if self.tracer.enabled() {
            self.tracer.event_caused(
                events::MANAGER_RECOVERY,
                &causes,
                &[
                    ("tick", Value::from(self.tick)),
                    ("latency_s", Value::from(latency_s)),
                ],
            )
        } else {
            0
        };
        for i in unsettled {
            prov.get_mut(i).outcome = Some(OutcomeRef {
                event,
                tick: self.tick,
                latency_s,
            });
        }
    }
}

/// One tick in flight: the world it acts on, its record, and what its
/// phases hand each other.
struct Tick<'a> {
    testbed: &'a mut SimTestbed,
    fleet: &'a mut Fleet,
    config: &'a ManagerConfig,
    sup: Supervisor<'a>,
    /// Violation-seconds of the run before this tick.
    violation_before: f64,
    /// Apps whose trips ask for a reaction, once per trip.
    tripped: Vec<usize>,
}

fn run(
    testbed: &mut SimTestbed,
    fleet: &mut Fleet,
    config: &ManagerConfig,
    tracer: &Tracer,
    managed: bool,
) -> Result<ManagerOutcome, ManagerError> {
    let mut run = ManagedRun::start(testbed, fleet, config, managed)?;
    while !run.is_done(config) {
        run.step(testbed, fleet, config, tracer)?;
    }
    Ok(run.into_outcome(testbed, fleet, config))
}

/// Resumable supervisory-loop state: everything the tick loop carries
/// between epochs, extracted into a serializable struct so a run can be
/// checkpointed mid-horizon and continued — byte-identically — in a
/// different process (see `crate::snapshot::WorldSnapshot`).
///
/// [`run_managed`]/[`run_unmanaged`] are exactly this loop:
///
/// ```text
/// let mut run = ManagedRun::start(&testbed, &fleet, &config, true)?;
/// while !run.is_done(&config) {
///     run.step(&mut testbed, &mut fleet, &config, &tracer)?;
/// }
/// let outcome = run.into_outcome(&testbed, &fleet, &config);
/// ```
///
/// Serialization keeps private fields private: the JSON form exists for
/// savestates, whose integrity the snapshot store checksums — it is not
/// a mutation API.
///
/// The run history (detections, actions, provenance) only grows or
/// settles, yet every savestate carries all of it. Cloning a run shares
/// the history instead of copying it, and each record is an
/// [`icm_json::Shared`] value: its first encode, through the run or any
/// snapshot of it, caches its compact JSON text until the record
/// changes, so a checkpoint encodes only what changed since the
/// previous one. The cached text is never serialized: a parsed run
/// starts without it and writes the same bytes either way.
#[derive(Debug, Clone)]
pub struct ManagedRun {
    managed: bool,
    /// Next tick (1-based) [`ManagedRun::step`] will execute.
    next_tick: u64,
    state: PlacementState,
    live: Vec<bool>,
    suspicion: Vec<f64>,
    states: Vec<AppState>,
    shed_order: Vec<String>,
    recovery_latencies: Vec<f64>,
    pending_recovery: Option<f64>,
    violation_seconds: f64,
    detections: Ledger<DetectionRecord>,
    actions: Ledger<ActionRecord>,
    provenance: Ledger<ProvenanceRecord>,
    start_stats: TestbedStats,
}

icm_json::impl_json!(struct ManagedRun {
    managed,
    next_tick,
    state,
    live,
    suspicion,
    states,
    shed_order,
    recovery_latencies,
    pending_recovery,
    violation_seconds,
    detections,
    actions,
    provenance,
    start_stats,
});

impl ManagedRun {
    /// Validates the configuration and runs the initial (cold)
    /// placement search, returning a runner positioned before tick 1.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Config`] on inconsistent configuration, or a
    /// propagated placement failure from the cold search.
    pub fn start(
        testbed: &SimTestbed,
        fleet: &Fleet,
        config: &ManagerConfig,
        managed: bool,
    ) -> Result<Self, ManagerError> {
        let hosts = testbed.cluster().hosts();
        config.validate(hosts)?;
        if fleet.problem().hosts() != hosts {
            return Err(ManagerError::Config(format!(
                "fleet is shaped for {} hosts, testbed has {hosts}",
                fleet.problem().hosts()
            )));
        }
        for app in fleet.apps() {
            if testbed.app(&app.name).is_none() {
                return Err(ManagerError::Config(format!(
                    "application `{}` is not registered on the testbed",
                    app.name
                )));
            }
        }

        // Initial placement: a cold annealing search, deliberately
        // untraced and identical in both modes, so the managed and
        // unmanaged histories only diverge when a reaction fires.
        let n = fleet.apps().len();
        let live_all = vec![true; n];
        let no_suspicion = vec![0.0; hosts];
        let initial_config = AnnealConfig {
            iterations: config.initial_iterations,
            seed: reaction_seed(config.seed, 0, 0x1CF7),
            ..AnnealConfig::default()
        };
        let mut objective = FleetObjective::new(fleet, &live_all, &no_suspicion);
        let state = anneal_with(
            fleet.problem(),
            |s| objective.eval(s),
            &initial_config,
            &icm_obs::Tracer::disabled(),
        )?
        .state;

        Ok(Self {
            managed,
            next_tick: 1,
            state,
            live: vec![true; n],
            suspicion: vec![0.0f64; hosts],
            states: (0..n)
                .map(|_| AppState {
                    detector: DriftDetector::new(config.drift),
                    slo_streak: 0,
                    breaker_open: false,
                    last_normalized: 0.0,
                    last_ok: false,
                    last_predicted: 0.0,
                    last_violation_s: 0.0,
                    recent_obs: Vec::new(),
                })
                .collect(),
            shed_order: Vec::new(),
            recovery_latencies: Vec::new(),
            pending_recovery: None,
            violation_seconds: 0.0,
            detections: Ledger::default(),
            actions: Ledger::default(),
            provenance: Ledger::default(),
            start_stats: testbed.stats(),
        })
    }

    /// Whether the supervisory horizon is complete.
    pub fn is_done(&self, config: &ManagerConfig) -> bool {
        self.next_tick > config.ticks
    }

    /// The next tick (1-based) [`ManagedRun::step`] would execute.
    pub fn next_tick(&self) -> u64 {
        self.next_tick
    }

    /// Violation-seconds accumulated so far.
    pub fn violation_seconds(&self) -> f64 {
        self.violation_seconds
    }

    /// Executes one supervisory tick: peek at outages, deploy and
    /// observe every live application, detect trips, react.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Config`] when the horizon is already complete,
    /// or a propagated placement/model/testbed failure. Injected faults
    /// are *not* errors: the loop absorbs and reacts to them.
    pub fn step(
        &mut self,
        testbed: &mut SimTestbed,
        fleet: &mut Fleet,
        config: &ManagerConfig,
        tracer: &Tracer,
    ) -> Result<(), ManagerError> {
        if self.is_done(config) {
            return Err(ManagerError::Config(format!(
                "supervisory horizon of {} ticks already complete",
                config.ticks
            )));
        }
        // Telemetry-only bookkeeping: quiet ticks are contractually
        // silent in the event stream, so tick counts and per-tick
        // violation time flow through the non-event telemetry path.
        tracer.telemetry_count(
            if self.managed {
                "manager.ticks.managed"
            } else {
                "manager.ticks.baseline"
            },
            1,
        );
        let mut t = Tick {
            testbed,
            fleet,
            config,
            sup: Supervisor {
                tracer,
                managed: self.managed,
                tick: self.next_tick,
                tick_announced: false,
                detections: Vec::new(),
                actions: Vec::new(),
                tick_inputs: Vec::new(),
            },
            violation_before: self.violation_seconds,
            tripped: Vec::new(),
        };
        for s in self.suspicion.iter_mut() {
            *s *= 0.5;
            if *s < 1e-3 {
                *s = 0.0;
            }
        }

        if self.managed {
            self.peek_outages(&mut t)?;
        }
        let live_idx: Vec<usize> = (0..t.fleet.apps().len())
            .filter(|&i| self.live[i])
            .collect();
        if !live_idx.is_empty() {
            match self.deploy(&mut t, &live_idx) {
                Ok(runs) => {
                    let mut all_in_bound = true;
                    for (&i, run) in live_idx.iter().zip(&runs) {
                        let (signal, in_bound) = self.observe(&mut t, i, run)?;
                        all_in_bound &= in_bound;
                        if self.managed {
                            self.detect(&mut t, i, signal);
                        }
                    }
                    self.resolve_provenance(&t, &live_idx);
                    self.react(&mut t)?;
                    if self.managed && all_in_bound {
                        if let Some(opened) = self.pending_recovery.take() {
                            let latency = self.sim_s(t.testbed) - opened;
                            self.recovery_latencies.push(latency);
                            t.sup.recovered(latency, &mut self.provenance);
                        }
                    }
                }
                Err(
                    fault @ (TestbedError::HostDown { .. }
                    | TestbedError::ProbeFailed { .. }
                    | TestbedError::ProbeTimeout { .. }),
                ) => self.absorb_fault(&mut t, &live_idx, &fault)?,
                Err(err) => return Err(err.into()),
            }
            tracer.telemetry_observe("manager.tick.violation_s", self.tick_violation_s(&t));
        }
        self.detections.append(&mut t.sup.detections);
        self.actions.append(&mut t.sup.actions);
        self.next_tick += 1;
        Ok(())
    }

    /// Simulated seconds since the run started: productive, wasted and
    /// restart time alike.
    fn sim_s(&self, testbed: &SimTestbed) -> f64 {
        let (now, start) = (testbed.stats(), &self.start_stats);
        (now.simulated_seconds - start.simulated_seconds)
            + (now.wasted_seconds - start.wasted_seconds)
            + (now.restart_seconds - start.restart_seconds)
    }

    /// Violation-seconds accrued so far on tick `t`.
    fn tick_violation_s(&self, t: &Tick<'_>) -> f64 {
        self.violation_seconds - t.violation_before
    }

    /// Peek (managed only): a host the fleet occupies that enters a
    /// crash window at the next run is detected, and the fleet replanned
    /// around it, before the deployment can fail on it. The peek is
    /// read-only, so looking costs nothing when nothing is wrong.
    fn peek_outages(&mut self, t: &mut Tick<'_>) -> Result<(), ManagerError> {
        let n = t.fleet.apps().len();
        let threatened: Vec<usize> = t
            .testbed
            .downed_hosts_at(t.testbed.peek_run())
            .into_iter()
            .filter(|&h| {
                (0..n).any(|i| self.live[i] && t.fleet.hosts_of(&self.state, i).contains(&h))
            })
            .collect();
        if threatened.is_empty() {
            return Ok(());
        }
        let sim = self.sim_s(t.testbed);
        for &h in &threatened {
            // A crash-window peek is a causal root: no prior event made
            // the fault plan schedule the outage.
            t.sup.detect(
                sim,
                DetectionKind::HostDown,
                None,
                Some(h as u64),
                DetectCtx::default(),
            );
        }
        self.pending_recovery.get_or_insert(sim);
        self.replan(t)
    }

    /// Deploy: runs every live application on its current placement,
    /// under the environment's ambient pressure once it applies.
    fn deploy(&self, t: &mut Tick<'_>, live_idx: &[usize]) -> Result<Vec<AppRun>, TestbedError> {
        let fleet = &*t.fleet;
        let placements: Vec<Placement> = live_idx
            .iter()
            .map(|&i| Placement::new(fleet.apps()[i].name.clone(), fleet.hosts_of(&self.state, i)))
            .collect();
        let bubbles = match &t.config.environment {
            Some(env) if t.sup.tick >= env.from_tick => env.pressures.clone(),
            _ => Vec::new(),
        };
        t.testbed.run_deployment(&Deployment {
            placements,
            bubbles,
        })
    }

    /// Observe: feeds app `i`'s completed run to its online model and
    /// drift detector, records it in the app's observation window, and
    /// charges any time over the QoS bound. Returns the drift signal and
    /// whether the run met the bound.
    fn observe(
        &mut self,
        t: &mut Tick<'_>,
        i: usize,
        run: &AppRun,
    ) -> Result<(DriftSignal, bool), ManagerError> {
        let bound = t.config.max_normalized_time();
        // Observation window per app: large enough that any detection
        // can cite every observation in its trip streak.
        let obs_window = t.config.drift.trip_after.max(t.config.slo_trip_after) as usize;
        let (pressures, key) = context_of(t.fleet, &self.state, &self.live, i);
        let app = &mut t.fleet.apps_mut()[i];
        let solo = app.online.base().solo_seconds();
        let normalized = run.seconds / solo;
        let predicted = app.online.predict_for(&key, &pressures)?;
        app.online.observe_for(&key, &pressures, normalized)?;
        let state = &mut self.states[i];
        let signal = state.detector.observe(predicted, normalized)?;
        state.last_normalized = normalized;
        state.last_ok = true;
        state.last_predicted = predicted;
        state.recent_obs.push(ObservationRef {
            event: run.trace_event,
            tick: t.sup.tick,
            app: app.name.clone(),
            predicted,
            observed: normalized,
        });
        if state.recent_obs.len() > obs_window {
            state.recent_obs.remove(0);
        }
        // An in-bound prediction that ran over is a mispredict.
        let violation = (run.seconds - solo * bound).max(0.0);
        self.charge(t, i, violation, run.trace_event, predicted <= bound);
        let over = normalized > bound;
        let state = &mut self.states[i];
        if over {
            state.slo_streak += 1;
        } else {
            state.slo_streak = 0;
        }
        Ok((signal, !over))
    }

    /// Charges `violation_s` to app `i` on tick `t` and attributes it in
    /// the one `qos_violation` event, caused by `caused_by` (the run's
    /// `app_run` event, or the fault that lost the run). Managed and
    /// unmanaged runs share this path, so the event is not
    /// `manager_`-prefixed. A recovery already in flight makes the time
    /// manager latency; otherwise a `mispredicted` run is a mispredict,
    /// and anything else (a prediction that already knew the bound was
    /// lost, or a lost run) is a fault or environment problem.
    fn charge(
        &mut self,
        t: &Tick<'_>,
        i: usize,
        violation_s: f64,
        caused_by: u64,
        mispredicted: bool,
    ) {
        self.violation_seconds += violation_s;
        self.states[i].last_violation_s = violation_s;
        if violation_s > 0.0 && t.sup.tracer.enabled() {
            let cause = if self.pending_recovery.is_some() {
                CAUSE_LATENCY
            } else if mispredicted {
                CAUSE_MISPREDICT
            } else {
                CAUSE_FAULT
            };
            t.sup.tracer.event_caused(
                QOS_VIOLATION,
                &[caused_by],
                &[
                    ("tick", Value::from(t.sup.tick)),
                    ("app", Value::from(t.fleet.apps()[i].name.as_str())),
                    ("violation_s", Value::from(violation_s)),
                    ("cause", Value::from(cause)),
                ],
            );
        }
    }

    /// Detect: app `i`'s drift and sustained-SLO trips. Each trip is one
    /// detection citing its streak from the app's observation window; it
    /// raises the suspicion of the app's hosts and asks for a reaction.
    fn detect(&mut self, t: &mut Tick<'_>, i: usize, signal: DriftSignal) {
        let config = t.config;
        let state = &mut self.states[i];
        let drift = (signal == DriftSignal::Tripped).then(|| Trip {
            kind: DetectionKind::Drift,
            score: state.detector.last_residual(),
            threshold: config.drift.threshold,
            streak: config.drift.trip_after,
            suspicion: 1.0,
        });
        let slo = (state.slo_streak >= config.slo_trip_after).then(|| Trip {
            kind: DetectionKind::SloViolation,
            score: state.last_normalized,
            threshold: config.max_normalized_time(),
            streak: config.slo_trip_after,
            suspicion: 0.5,
        });
        if slo.is_some() {
            state.slo_streak = 0;
        }
        let sim = self.sim_s(t.testbed);
        for trip in [drift, slo].into_iter().flatten() {
            let window = &self.states[i].recent_obs;
            let observations = window[window.len().saturating_sub(trip.streak as usize)..].to_vec();
            let ctx = DetectCtx {
                causes: observations.iter().map(|o| o.event).collect(),
                score: trip.score,
                threshold: trip.threshold,
                streak: u64::from(trip.streak),
                observations,
            };
            t.sup
                .detect(sim, trip.kind, Some(&t.fleet.apps()[i].name), None, ctx);
            for &h in &t.fleet.hosts_of(&self.state, i) {
                self.suspicion[h] = self.suspicion[h].max(trip.suspicion);
            }
            t.tripped.push(i);
        }
    }

    /// Predicted-vs-realized resolution (managed only): the first
    /// completed tick after an action is its report card. App-scoped
    /// actions grade against their app's fresh observation; fleet-wide
    /// ones against the fleet mean. Every record from an earlier tick
    /// resolves together and records arrive in tick order, so the open
    /// records are always a suffix and the due ones that suffix's
    /// prefix.
    fn resolve_provenance(&mut self, t: &Tick<'_>, live_idx: &[usize]) {
        let open = self.provenance.partition_point(|r| r.resolved);
        debug_assert!(
            self.provenance[open..].iter().all(|r| !r.resolved),
            "resolved provenance must be a prefix"
        );
        let due = open + self.provenance[open..].partition_point(|r| r.tick < t.sup.tick);
        if !self.managed || due == open {
            return;
        }
        let tick_violation = self.tick_violation_s(t);
        let mean_normalized = live_idx
            .iter()
            .map(|&i| self.states[i].last_normalized)
            .sum::<f64>()
            / live_idx.len() as f64;
        for index in open..due {
            let record = self.provenance.get_mut(index);
            let scoped = record
                .app
                .as_ref()
                .and_then(|name| t.fleet.apps().iter().position(|a| &a.name == name))
                .filter(|&i| self.live[i] && self.states[i].last_ok);
            let (realized, incurred) = match scoped {
                Some(i) => (
                    self.states[i].last_normalized,
                    self.states[i].last_violation_s,
                ),
                None => (mean_normalized, tick_violation),
            };
            record.realized_slowdown = realized;
            record.violation_incurred_s = incurred;
            record.resolved = true;
            t.sup.tracer.telemetry_observe(
                &format!("manager.action.benefit.{}", record.kind),
                record.avoided_violation_s(),
            );
        }
    }

    /// React to tick `t`'s trips: an app whose prediction rests on
    /// defaulted model cells opens its circuit breaker (re-placing on
    /// never-measured cells would be guesswork); the others share one
    /// re-anneal, graded by the worst quality among them. An app whose
    /// breaker is open no longer reacts.
    fn react(&mut self, t: &mut Tick<'_>) -> Result<(), ManagerError> {
        if t.tripped.is_empty() {
            return Ok(());
        }
        let sim = self.sim_s(t.testbed);
        self.pending_recovery.get_or_insert(sim);
        let mut reacting: Vec<usize> = Vec::new();
        for i in std::mem::take(&mut t.tripped) {
            if self.states[i].breaker_open {
                continue;
            }
            let quality = quality_in(t.fleet, &self.state, &self.live, i);
            if quality != ModelQuality::Defaulted {
                reacting.push(i);
                continue;
            }
            self.states[i].breaker_open = true;
            t.sup.act(
                sim,
                ActionKind::CircuitBreak,
                Some(&t.fleet.apps()[i].name),
                0.0,
                ActCtx {
                    quality: quality.as_str(),
                    predicted: self.states[i].last_predicted,
                    placement: Vec::new(),
                    trigger_violation_s: self.tick_violation_s(t),
                },
                &mut self.provenance,
            );
        }
        if reacting.is_empty() {
            return Ok(());
        }
        let quality = reacting
            .iter()
            .map(|&i| quality_in(t.fleet, &self.state, &self.live, i))
            .max()
            .unwrap_or(ModelQuality::Measured);
        self.re_anneal(t, &reacting, quality.as_str())
    }

    /// The tick produced nothing: every live application lost a full
    /// epoch of progress. Charge it as violation time, attributed to
    /// the fault event the testbed just emitted (the last event on every
    /// failed-run path). A straggler that blew its kill deadline is
    /// detected, and the managed fleet reshuffled: the co-location may
    /// be what is starving it.
    fn absorb_fault(
        &mut self,
        t: &mut Tick<'_>,
        live_idx: &[usize],
        fault: &TestbedError,
    ) -> Result<(), ManagerError> {
        let fault_event = t.sup.tracer.now().step;
        for &i in live_idx {
            self.states[i].last_ok = false;
            let lost = t.fleet.apps()[i].online.base().solo_seconds();
            self.charge(t, i, lost, fault_event, false);
        }
        if !self.managed || !matches!(fault, TestbedError::ProbeTimeout { .. }) {
            return Ok(());
        }
        let sim = self.sim_s(t.testbed);
        let ctx = DetectCtx {
            causes: vec![fault_event],
            ..DetectCtx::default()
        };
        t.sup.detect(sim, DetectionKind::Straggler, None, None, ctx);
        self.pending_recovery.get_or_insert(sim);
        // Justified by a directly observed fault, not by a model
        // prediction.
        self.re_anneal(t, live_idx, "observed")
    }

    /// The one re-anneal reaction: records the `ReAnneal` action,
    /// justified by the mean prediction behind `apps` and its `quality`
    /// grade (the post-search placements carry their own grades on the
    /// `Migrate` records), then replans.
    fn re_anneal(
        &mut self,
        t: &mut Tick<'_>,
        apps: &[usize],
        quality: &'static str,
    ) -> Result<(), ManagerError> {
        let predicted = apps
            .iter()
            .map(|&i| self.states[i].last_predicted)
            .sum::<f64>()
            / apps.len() as f64;
        t.sup.act(
            self.sim_s(t.testbed),
            ActionKind::ReAnneal,
            None,
            0.0,
            ActCtx {
                quality,
                predicted,
                placement: Vec::new(),
                trigger_violation_s: self.tick_violation_s(t),
            },
            &mut self.provenance,
        );
        self.replan(t)
    }

    /// Bounded incremental re-anneal from the current placement, around
    /// every host down at the next run, with the shed loop: when the
    /// constraints admit no feasible packing, the lowest-priority
    /// application is taken out of service and the search retried —
    /// never more times than there are applications, so the loop
    /// provably terminates.
    ///
    /// Surviving applications whose host sets changed are checkpointed
    /// and resumed at the configured migration cost — placement changes
    /// are never free. The outage set is read at the run the moves
    /// execute at, so a move never lands on an outage the search did not
    /// see. A move the search could not keep off a downed host (the shed
    /// loop gave up with breaches left) is committed anyway: the next
    /// deployment surfaces the outage through the tick's fault path.
    fn replan(&mut self, t: &mut Tick<'_>) -> Result<(), ManagerError> {
        let (fleet, config) = (&*t.fleet, t.config);
        let downed = t.testbed.downed_hosts_at(t.testbed.peek_run());
        let trigger_violation_s = self.tick_violation_s(t);
        let mut current = self.state.clone();
        let mut attempt: u64 = 0;
        loop {
            let constraints = outage_constraints(&self.live, &downed);
            let anneal_config = AnnealConfig {
                iterations: config.reanneal_iterations,
                seed: reaction_seed(config.seed, t.sup.tick, 0xD00D ^ attempt),
                ..AnnealConfig::default()
            };
            let mut objective = FleetObjective::new(fleet, &self.live, &self.suspicion);
            current = re_anneal_with(
                fleet.problem(),
                |s| objective.eval(s),
                &current,
                &constraints,
                &anneal_config,
                t.sup.tracer,
            )?
            .state;
            if constraints.breaches(fleet.problem(), &current) == 0 {
                break;
            }
            // No feasible placement: degrade gracefully.
            let Some(victim) = fleet.shed_candidate(&self.live) else {
                break; // nothing left to shed; nothing left to place either
            };
            self.live[victim] = false;
            self.shed_order.push(fleet.apps()[victim].name.clone());
            t.sup.act(
                self.sim_s(t.testbed),
                ActionKind::Shed,
                Some(&fleet.apps()[victim].name),
                0.0,
                ActCtx {
                    // Sheds are justified by constraint infeasibility, not
                    // by any model prediction.
                    quality: "infeasible",
                    predicted: 0.0,
                    placement: Vec::new(),
                    trigger_violation_s,
                },
                &mut self.provenance,
            );
            attempt += 1;
        }

        // Execute the placement diff: surviving applications that moved
        // are checkpointed and resumed on their new hosts.
        for (i, app) in fleet.apps().iter().enumerate() {
            let target = fleet.hosts_of(&current, i);
            if !self.live[i] || target == fleet.hosts_of(&self.state, i) {
                continue;
            }
            let sim = self.sim_s(t.testbed);
            t.testbed.checkpoint_app(&app.name)?;
            t.testbed.resume_app(&app.name, MIGRATION_COST_S)?;
            // The candidate placement this migration commits to, with
            // the model's post-move prediction and its quality grade.
            let (pressures, key) = context_of(fleet, &current, &self.live, i);
            let predicted = app.online.predict_for(&key, &pressures)?;
            t.sup.act(
                sim,
                ActionKind::Migrate,
                Some(&app.name),
                MIGRATION_COST_S,
                ActCtx {
                    quality: app.quality_at(&pressures).as_str(),
                    predicted,
                    placement: vec![PlacementRef {
                        app: app.name.clone(),
                        hosts: target.iter().map(|&h| h as u64).collect(),
                    }],
                    trigger_violation_s,
                },
                &mut self.provenance,
            );
        }
        self.state = current;
        Ok(())
    }

    /// Consumes the runner and assembles the final [`ManagerOutcome`].
    pub fn into_outcome(
        self,
        testbed: &SimTestbed,
        fleet: &Fleet,
        config: &ManagerConfig,
    ) -> ManagerOutcome {
        let bound = config.max_normalized_time();
        let finals: Vec<AppFinal> = fleet
            .apps()
            .iter()
            .enumerate()
            .map(|(i, app)| AppFinal {
                app: app.name.clone(),
                shed: !self.live[i],
                last_normalized: self.states[i].last_normalized,
                meets_bound: self.live[i]
                    && self.states[i].last_ok
                    && self.states[i].last_normalized > 0.0
                    && self.states[i].last_normalized <= bound,
                hosts: if self.live[i] {
                    fleet
                        .hosts_of(&self.state, i)
                        .iter()
                        .map(|&h| h as u64)
                        .collect()
                } else {
                    Vec::new()
                },
            })
            .collect();

        ManagerOutcome {
            managed: self.managed,
            ticks: config.ticks,
            sim_seconds: self.sim_s(testbed),
            violation_seconds: self.violation_seconds,
            detections: self.detections.into_vec(),
            actions: self.actions.into_vec(),
            shed: self.shed_order,
            recovery_latencies: self.recovery_latencies,
            finals,
            provenance: self.provenance.into_vec(),
        }
    }
}

/// Quality grade of the model cells behind app `i`'s prediction in
/// `state` (see [`crate::ManagedApp::quality_at`]).
fn quality_in(fleet: &Fleet, state: &PlacementState, live: &[bool], i: usize) -> ModelQuality {
    let (pressures, _) = context_of(fleet, state, live, i);
    fleet.apps()[i].quality_at(&pressures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use icm_core::model::ModelBuilder;
    use icm_core::OnlineModel;
    use icm_rng::Rng;
    use icm_workloads::{Catalog, TestbedBuilder};

    use crate::fleet::ManagedApp;

    const SPAN: usize = 4;

    /// Two profiled paper applications on the 8×2 cluster, plus the
    /// testbed they were profiled against, so tests can run the
    /// supervisory loop on it.
    fn fleet_and_testbed() -> (SimTestbed, Fleet) {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(2016).build();
        let apps = ["M.milc", "H.KM"]
            .iter()
            .map(|&name| {
                let model = ModelBuilder::new(name)
                    .hosts(SPAN)
                    .policy_samples(6)
                    .solo_repeats(1)
                    .score_repeats(1)
                    .seed(0xFEED)
                    .build(&mut tb)
                    .expect("model builds");
                ManagedApp::new(name, 1, OnlineModel::new(model))
            })
            .collect();
        let fleet = Fleet::new(8, 2, SPAN, apps).expect("fleet packs");
        (tb.into_sim(), fleet)
    }

    /// Tick 1 of a managed run on `testbed` and `fleet`.
    fn test_tick<'a>(
        testbed: &'a mut SimTestbed,
        fleet: &'a mut Fleet,
        config: &'a ManagerConfig,
        tracer: &'a Tracer,
    ) -> Tick<'a> {
        Tick {
            testbed,
            fleet,
            config,
            sup: Supervisor {
                tracer,
                managed: true,
                tick: 1,
                tick_announced: false,
                detections: Vec::new(),
                actions: Vec::new(),
                tick_inputs: Vec::new(),
            },
            violation_before: 0.0,
            tripped: Vec::new(),
        }
    }

    #[test]
    fn replan_reroutes_when_a_migration_target_crashes_before_the_move() {
        use icm_simcluster::{CrashWindow, FaultPlan};

        let (tb, fleet) = fleet_and_testbed();
        let config = ManagerConfig::default();
        let n = fleet.apps().len();
        // A deliberately scrambled starting placement forces migrations.
        let mut rng = Rng::from_seed(0xBAD_5EED);
        let scrambled = ManagedRun {
            state: PlacementState::random(fleet.problem(), &mut rng),
            ..ManagedRun::start(&tb, &fleet, &config, true).expect("starts")
        };
        let tracer = Tracer::disabled();

        // Dry run against a fault-free clone to learn, deterministically,
        // which host an application is about to be moved onto.
        let crashed = {
            let (mut dry, mut dry_fleet) = (tb.clone(), fleet.clone());
            let mut run = scrambled.clone();
            run.replan(&mut test_tick(&mut dry, &mut dry_fleet, &config, &tracer))
                .expect("fault-free replan");
            (0..n)
                .find_map(|i| {
                    let before = fleet.hosts_of(&scrambled.state, i);
                    fleet
                        .hosts_of(&run.state, i)
                        .into_iter()
                        .find(|h| !before.contains(h))
                })
                .expect("fixture must force a migration onto a new host")
        };

        // Same replan, but the chosen target crashed between the
        // decision and the move: replan reads the outage itself and
        // routes every survivor around it.
        let mut tb = tb;
        tb.set_fault_plan(Some(FaultPlan {
            crash_windows: vec![CrashWindow {
                host: crashed,
                from_run: 0,
                until_run: 1_000_000,
            }],
            ..FaultPlan::default()
        }));
        let mut run = scrambled;
        let mut replan_fleet = fleet.clone();
        run.replan(&mut test_tick(&mut tb, &mut replan_fleet, &config, &tracer))
            .expect("a crashed target must be routed around, not abort the tick");

        for (i, _) in run.live.iter().enumerate().filter(|(_, &alive)| alive) {
            assert!(
                !fleet.hosts_of(&run.state, i).contains(&crashed),
                "no surviving application may be routed through the dead host"
            );
        }
        assert!(
            run.live.iter().all(|&alive| alive),
            "seven live hosts hold both applications: nothing is shed"
        );
    }

    #[test]
    fn a_managed_run_resumes_from_its_serialized_state() {
        let (tb, fleet) = fleet_and_testbed();
        let config = ManagerConfig {
            ticks: 6,
            initial_iterations: 200,
            reanneal_iterations: 120,
            ..ManagerConfig::default()
        };
        let tracer = Tracer::disabled();

        // Reference: one uninterrupted supervised run.
        let mut full_tb = tb.clone();
        let mut full_fleet = fleet.clone();
        let mut full = ManagedRun::start(&full_tb, &full_fleet, &config, true).expect("starts");
        while !full.is_done(&config) {
            full.step(&mut full_tb, &mut full_fleet, &config, &tracer)
                .expect("steps");
        }
        let reference = full.into_outcome(&full_tb, &full_fleet, &config);

        // Same prefix, then every live object through JSON, then the
        // suffix on the restored copies.
        let mut prefix_tb = tb;
        let mut prefix_fleet = fleet;
        let mut prefix =
            ManagedRun::start(&prefix_tb, &prefix_fleet, &config, true).expect("starts");
        for _ in 0..3 {
            prefix
                .step(&mut prefix_tb, &mut prefix_fleet, &config, &tracer)
                .expect("steps");
        }
        let mut resumed_tb = SimTestbed::restore(
            icm_json::from_str(&icm_json::to_string(&prefix_tb.snapshot()))
                .expect("testbed round-trips"),
        );
        let mut resumed_fleet: Fleet =
            icm_json::from_str(&icm_json::to_string(&prefix_fleet)).expect("fleet round-trips");
        let mut resumed: ManagedRun =
            icm_json::from_str(&icm_json::to_string(&prefix)).expect("run round-trips");
        assert_eq!(resumed.next_tick(), 4);
        while !resumed.is_done(&config) {
            resumed
                .step(&mut resumed_tb, &mut resumed_fleet, &config, &tracer)
                .expect("steps");
        }
        let outcome = resumed.into_outcome(&resumed_tb, &resumed_fleet, &config);
        assert_eq!(
            reference, outcome,
            "a run resumed from its savestate must finish identically"
        );
    }
}
