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
    anneal_with, re_anneal_with, AnnealConfig, PlacementConstraints, PlacementState, QosConfig,
};
use icm_simcluster::{Deployment, Placement, SimTestbed, TestbedError, TestbedStats};

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

/// Supervisory-loop configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ManagerConfig {
    /// Supervisory epochs to run.
    pub ticks: u64,
    /// Seed for every search the manager launches (initial placement
    /// and re-anneals); reaction seeds are derived from it and the tick.
    pub seed: u64,
    /// Restart cost charged per migrated application, simulated seconds.
    pub migration_cost_s: f64,
    /// Iterations of the initial (cold) placement search.
    pub initial_iterations: usize,
    /// Iterations of each bounded incremental re-anneal.
    pub reanneal_iterations: usize,
    /// Drift-detector settings applied per application.
    pub drift: DriftConfig,
    /// Ticks of consecutive QoS violation before the manager reacts.
    pub slo_trip_after: u32,
    /// The QoS contract every application is held to.
    pub qos: QosConfig,
    /// Optional ambient drift injected by the environment.
    pub environment: Option<EnvironmentDrift>,
}

impl Default for ManagerConfig {
    fn default() -> Self {
        Self {
            ticks: 12,
            seed: 2016,
            migration_cost_s: 30.0,
            initial_iterations: 1500,
            reanneal_iterations: 300,
            drift: DriftConfig::default(),
            slo_trip_after: 3,
            qos: QosConfig::default(),
            environment: None,
        }
    }
}

icm_json::impl_json!(struct ManagerConfig {
    ticks,
    seed,
    migration_cost_s,
    initial_iterations,
    reanneal_iterations,
    drift,
    slo_trip_after,
    qos,
    environment,
});

impl ManagerConfig {
    fn validate(&self, hosts: usize) -> Result<(), ManagerError> {
        if self.ticks == 0 {
            return Err(ManagerError::Config("ticks must be >= 1".into()));
        }
        if !self.migration_cost_s.is_finite() || self.migration_cost_s < 0.0 {
            return Err(ManagerError::Config(format!(
                "migration cost must be finite and >= 0, got {}",
                self.migration_cost_s
            )));
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
        if !(self.qos.qos_fraction.is_finite()
            && self.qos.qos_fraction > 0.0
            && self.qos.qos_fraction <= 1.0)
        {
            return Err(ManagerError::Config(format!(
                "qos fraction must be in (0, 1], got {}",
                self.qos.qos_fraction
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

fn sim_elapsed(stats: &TestbedStats, start: &TestbedStats) -> f64 {
    (stats.simulated_seconds - start.simulated_seconds)
        + (stats.wasted_seconds - start.wasted_seconds)
        + (stats.restart_seconds - start.restart_seconds)
}

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
/// settles, yet every savestate carries all of it. Each history record
/// keeps its compact JSON text from the last [`ManagedRun::seal`] until
/// it changes, and serialization splices that text in, so a checkpoint
/// encodes only what changed since the previous one. The cached text is
/// never serialized: a parsed run starts without it and writes the same
/// bytes either way.
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
        let state = anneal_with(
            fleet.problem(),
            FleetObjective::new(fleet, &live_all, &no_suspicion),
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

    /// Encodes every history record that is new or changed since the
    /// last seal, so the next serialization splices cached text instead
    /// of encoding it again. Call it before checkpointing; it changes no
    /// serialized byte.
    pub fn seal(&mut self) {
        self.detections.seal();
        self.actions.seal();
        self.provenance.seal();
    }

    /// Executes one supervisory tick.
    ///
    /// # Errors
    ///
    /// [`ManagerError::Config`] when the horizon is already complete,
    /// or a propagated placement/model/testbed failure. Injected faults
    /// are *not* errors: the loop absorbs and reacts to them.
    #[allow(clippy::too_many_lines)]
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
        let tick = self.next_tick;
        let managed = self.managed;
        let n = fleet.apps().len();
        let bound = config.qos.max_normalized_time();
        // Observation window per app: large enough that any detection
        // can cite every observation in its trip streak.
        let obs_window = config.drift.trip_after.max(config.slo_trip_after) as usize;

        // Telemetry-only bookkeeping: quiet ticks are contractually
        // silent in the event stream, so tick counts and per-tick
        // violation time flow through the non-event telemetry path.
        tracer.telemetry_count(
            if managed {
                "manager.ticks.managed"
            } else {
                "manager.ticks.baseline"
            },
            1,
        );
        let violation_before_tick = self.violation_seconds;
        let mut sup = Supervisor {
            tracer,
            managed,
            tick,
            tick_announced: false,
            detections: Vec::new(),
            actions: Vec::new(),
            tick_inputs: Vec::new(),
        };
        for s in self.suspicion.iter_mut() {
            *s *= 0.5;
            if *s < 1e-3 {
                *s = 0.0;
            }
        }

        // Phase 1 (managed only): proactive outage handling. The peek is
        // read-only, so looking costs nothing when nothing is wrong.
        if managed {
            let next_run = testbed.peek_run();
            let downed = testbed.downed_hosts_at(next_run);
            let threatened: Vec<usize> = downed
                .iter()
                .copied()
                .filter(|&h| {
                    (0..n).any(|i| self.live[i] && fleet.hosts_of(&self.state, i).contains(&h))
                })
                .collect();
            if !threatened.is_empty() {
                let sim = sim_elapsed(&testbed.stats(), &self.start_stats);
                for &h in &threatened {
                    // A crash-window peek is a causal root: no prior
                    // event made the fault plan schedule the outage.
                    sup.detect(
                        sim,
                        DetectionKind::HostDown,
                        None,
                        Some(h as u64),
                        DetectCtx::default(),
                    );
                }
                self.pending_recovery.get_or_insert(sim);
                self.state = replan(
                    testbed,
                    fleet,
                    config,
                    &mut sup,
                    &mut self.live,
                    &mut self.shed_order,
                    &self.suspicion,
                    &self.state,
                    &downed,
                    &self.start_stats,
                    &mut self.provenance,
                    self.violation_seconds - violation_before_tick,
                )?;
            }
        }

        // Phase 2: run the tick.
        let live_idx: Vec<usize> = (0..n).filter(|&i| self.live[i]).collect();
        if live_idx.is_empty() {
            self.detections.append(&mut sup.detections);
            self.actions.append(&mut sup.actions);
            self.next_tick += 1;
            return Ok(());
        }
        let placements: Vec<Placement> = live_idx
            .iter()
            .map(|&i| Placement::new(fleet.apps()[i].name.clone(), fleet.hosts_of(&self.state, i)))
            .collect();
        let bubbles = match &config.environment {
            Some(env) if tick >= env.from_tick => env.pressures.clone(),
            _ => Vec::new(),
        };
        let deployment = Deployment {
            placements,
            bubbles,
        };

        match testbed.run_deployment(&deployment) {
            Ok(runs) => {
                let mut wants_replan: Vec<usize> = Vec::new();
                let mut all_in_bound = true;
                for (k, &i) in live_idx.iter().enumerate() {
                    let seconds = runs[k].seconds;
                    let (pressures, key) = context_of(fleet, &self.state, &self.live, i);
                    let app = &mut fleet.apps_mut()[i];
                    let app_name = app.name.clone();
                    let solo = app.online.base().solo_seconds();
                    let normalized = seconds / solo;
                    let predicted = app.online.predict_for(&key, &pressures)?;
                    app.online.observe_for(&key, &pressures, normalized)?;
                    let signal = self.states[i].detector.observe(predicted, normalized)?;
                    self.states[i].last_normalized = normalized;
                    self.states[i].last_ok = true;
                    self.states[i].last_predicted = predicted;
                    self.states[i].recent_obs.push(ObservationRef {
                        event: runs[k].trace_event,
                        tick,
                        app: app_name.clone(),
                        predicted,
                        observed: normalized,
                    });
                    if self.states[i].recent_obs.len() > obs_window {
                        self.states[i].recent_obs.remove(0);
                    }
                    let violation = (seconds - solo * bound).max(0.0);
                    self.violation_seconds += violation;
                    self.states[i].last_violation_s = violation;
                    if violation > 0.0 && tracer.enabled() {
                        // Violation attribution, emitted from this shared
                        // managed/unmanaged path (NOT `manager_`-prefixed):
                        // a recovery already in flight makes the time
                        // manager latency; otherwise an in-bound
                        // prediction that ran over is a mispredict, and a
                        // prediction that already knew the bound was lost
                        // is a fault/environment problem.
                        let cause = if self.pending_recovery.is_some() {
                            CAUSE_LATENCY
                        } else if predicted <= bound {
                            CAUSE_MISPREDICT
                        } else {
                            CAUSE_FAULT
                        };
                        tracer.event_caused(
                            QOS_VIOLATION,
                            &[runs[k].trace_event],
                            &[
                                ("tick", Value::from(tick)),
                                ("app", Value::from(app_name.as_str())),
                                ("violation_s", Value::from(violation)),
                                ("cause", Value::from(cause)),
                            ],
                        );
                    }
                    if normalized > bound {
                        all_in_bound = false;
                        self.states[i].slo_streak += 1;
                    } else {
                        self.states[i].slo_streak = 0;
                    }
                    if !managed {
                        continue;
                    }
                    let sim = sim_elapsed(&testbed.stats(), &self.start_stats);
                    if signal == DriftSignal::Tripped {
                        let observations =
                            obs_tail(&self.states[i].recent_obs, config.drift.trip_after as usize);
                        sup.detect(
                            sim,
                            DetectionKind::Drift,
                            Some(&app_name),
                            None,
                            DetectCtx {
                                causes: observations.iter().map(|o| o.event).collect(),
                                score: self.states[i].detector.last_residual(),
                                threshold: config.drift.threshold,
                                streak: u64::from(config.drift.trip_after),
                                observations,
                            },
                        );
                        for &h in &fleet.hosts_of(&self.state, i) {
                            self.suspicion[h] = 1.0;
                        }
                        wants_replan.push(i);
                    }
                    if self.states[i].slo_streak >= config.slo_trip_after {
                        let observations =
                            obs_tail(&self.states[i].recent_obs, config.slo_trip_after as usize);
                        sup.detect(
                            sim,
                            DetectionKind::SloViolation,
                            Some(&app_name),
                            None,
                            DetectCtx {
                                causes: observations.iter().map(|o| o.event).collect(),
                                score: normalized,
                                threshold: bound,
                                streak: u64::from(config.slo_trip_after),
                                observations,
                            },
                        );
                        self.states[i].slo_streak = 0;
                        for &h in &fleet.hosts_of(&self.state, i) {
                            self.suspicion[h] = self.suspicion[h].max(0.5);
                        }
                        wants_replan.push(i);
                    }
                }

                // Predicted-vs-realized resolution: the first completed
                // tick after an action is its report card. App-scoped
                // actions grade against their app's fresh observation;
                // fleet-wide ones against the fleet mean. Every record
                // from an earlier tick resolves together and records
                // arrive in tick order, so the open records are always
                // a suffix and the due ones that suffix's prefix.
                let open = self.provenance.partition_point(|r| r.resolved);
                debug_assert!(
                    self.provenance[open..].iter().all(|r| !r.resolved),
                    "resolved provenance must be a prefix"
                );
                let due = open + self.provenance[open..].partition_point(|r| r.tick < tick);
                if managed && due > open {
                    let tick_violation = self.violation_seconds - violation_before_tick;
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
                            .and_then(|name| fleet.apps().iter().position(|a| &a.name == name))
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
                        tracer.telemetry_observe(
                            &format!("manager.action.benefit.{}", record.kind),
                            record.avoided_violation_s(),
                        );
                    }
                }

                if managed && !wants_replan.is_empty() {
                    let sim = sim_elapsed(&testbed.stats(), &self.start_stats);
                    let trigger_violation_s = self.violation_seconds - violation_before_tick;
                    self.pending_recovery.get_or_insert(sim);
                    let mut reacting: Vec<usize> = Vec::new();
                    for &i in &wants_replan {
                        if self.states[i].breaker_open {
                            continue;
                        }
                        if prediction_is_defaulted(fleet, &self.state, &self.live, i) {
                            // Admission control on the model itself: the
                            // cells behind this prediction were never
                            // measured, so re-placing on them would be
                            // guesswork. Open the breaker instead.
                            self.states[i].breaker_open = true;
                            sup.act(
                                sim,
                                ActionKind::CircuitBreak,
                                Some(&fleet.apps()[i].name),
                                0.0,
                                ActCtx {
                                    quality: ModelQuality::Defaulted.as_str(),
                                    predicted: self.states[i].last_predicted,
                                    placement: Vec::new(),
                                    trigger_violation_s,
                                },
                                &mut self.provenance,
                            );
                        } else {
                            reacting.push(i);
                        }
                    }
                    if !reacting.is_empty() {
                        // The re-anneal is justified by the tripped
                        // predictions: record their mean and the worst
                        // quality grade among the reacting apps. The
                        // post-search placements carry their own grades
                        // on the Migrate records.
                        let predicted = reacting
                            .iter()
                            .map(|&i| self.states[i].last_predicted)
                            .sum::<f64>()
                            / reacting.len() as f64;
                        let quality = reacting
                            .iter()
                            .map(|&i| prediction_quality(fleet, &self.state, &self.live, i))
                            .max_by_key(|q| quality_rank(q))
                            .unwrap_or(ModelQuality::Measured.as_str());
                        sup.act(
                            sim,
                            ActionKind::ReAnneal,
                            None,
                            0.0,
                            ActCtx {
                                quality,
                                predicted,
                                placement: Vec::new(),
                                trigger_violation_s,
                            },
                            &mut self.provenance,
                        );
                        let next_run = testbed.peek_run();
                        let downed = testbed.downed_hosts_at(next_run);
                        self.state = replan(
                            testbed,
                            fleet,
                            config,
                            &mut sup,
                            &mut self.live,
                            &mut self.shed_order,
                            &self.suspicion,
                            &self.state,
                            &downed,
                            &self.start_stats,
                            &mut self.provenance,
                            trigger_violation_s,
                        )?;
                    }
                }

                if managed && all_in_bound {
                    if let Some(opened) = self.pending_recovery.take() {
                        let latency = sim_elapsed(&testbed.stats(), &self.start_stats) - opened;
                        self.recovery_latencies.push(latency);
                        sup.recovered(latency, &mut self.provenance);
                    }
                }
            }
            Err(
                err @ (TestbedError::HostDown { .. }
                | TestbedError::ProbeFailed { .. }
                | TestbedError::ProbeTimeout { .. }),
            ) => {
                // The tick produced nothing: every live application lost
                // a full epoch of progress. Charge it as violation time,
                // attributed to the fault event the testbed just emitted
                // (the last event on every failed-run path) — or to
                // manager latency when a recovery was already in flight.
                let fault_event = tracer.now().step;
                let in_flight = self.pending_recovery.is_some();
                for &i in &live_idx {
                    self.states[i].last_ok = false;
                    let charge = fleet.apps()[i].online.base().solo_seconds();
                    self.violation_seconds += charge;
                    self.states[i].last_violation_s = charge;
                    if tracer.enabled() {
                        tracer.event_caused(
                            QOS_VIOLATION,
                            &[fault_event],
                            &[
                                ("tick", Value::from(tick)),
                                ("app", Value::from(fleet.apps()[i].name.as_str())),
                                ("violation_s", Value::from(charge)),
                                (
                                    "cause",
                                    Value::from(if in_flight {
                                        CAUSE_LATENCY
                                    } else {
                                        CAUSE_FAULT
                                    }),
                                ),
                            ],
                        );
                    }
                }
                if managed && matches!(err, TestbedError::ProbeTimeout { .. }) {
                    // A straggler blew its kill deadline. Reshuffle: the
                    // co-location may be what is starving it.
                    let sim = sim_elapsed(&testbed.stats(), &self.start_stats);
                    let trigger_violation_s = self.violation_seconds - violation_before_tick;
                    sup.detect(
                        sim,
                        DetectionKind::Straggler,
                        None,
                        None,
                        DetectCtx {
                            causes: vec![fault_event],
                            ..DetectCtx::default()
                        },
                    );
                    self.pending_recovery.get_or_insert(sim);
                    let predicted = live_idx
                        .iter()
                        .map(|&i| self.states[i].last_predicted)
                        .sum::<f64>()
                        / live_idx.len() as f64;
                    sup.act(
                        sim,
                        ActionKind::ReAnneal,
                        None,
                        0.0,
                        ActCtx {
                            // Justified by a directly observed fault, not
                            // by a model prediction.
                            quality: "observed",
                            predicted,
                            placement: Vec::new(),
                            trigger_violation_s,
                        },
                        &mut self.provenance,
                    );
                    let next_run = testbed.peek_run();
                    let downed = testbed.downed_hosts_at(next_run);
                    self.state = replan(
                        testbed,
                        fleet,
                        config,
                        &mut sup,
                        &mut self.live,
                        &mut self.shed_order,
                        &self.suspicion,
                        &self.state,
                        &downed,
                        &self.start_stats,
                        &mut self.provenance,
                        trigger_violation_s,
                    )?;
                }
            }
            Err(err) => return Err(err.into()),
        }

        tracer.telemetry_observe(
            "manager.tick.violation_s",
            self.violation_seconds - violation_before_tick,
        );
        self.detections.append(&mut sup.detections);
        self.actions.append(&mut sup.actions);
        self.next_tick += 1;
        Ok(())
    }

    /// Consumes the runner and assembles the final [`ManagerOutcome`].
    pub fn into_outcome(
        self,
        testbed: &SimTestbed,
        fleet: &Fleet,
        config: &ManagerConfig,
    ) -> ManagerOutcome {
        let bound = config.qos.max_normalized_time();
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
            sim_seconds: sim_elapsed(&testbed.stats(), &self.start_stats),
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

/// Last `n` observations of a bounded per-app window — the streak a
/// detection cites as its causal ancestry.
fn obs_tail(obs: &[ObservationRef], n: usize) -> Vec<ObservationRef> {
    obs[obs.len().saturating_sub(n)..].to_vec()
}

/// Whether the prediction that would justify re-placing app `i` rests
/// on defaulted (never measured) model cells.
fn prediction_is_defaulted(fleet: &Fleet, state: &PlacementState, live: &[bool], i: usize) -> bool {
    prediction_quality(fleet, state, live, i) == ModelQuality::Defaulted.as_str()
}

/// Quality grade of the model cells behind app `i`'s prediction in
/// `state` — `"measured"` when no quality grid is attached (the model
/// was built entirely from direct measurements).
fn prediction_quality(
    fleet: &Fleet,
    state: &PlacementState,
    live: &[bool],
    i: usize,
) -> &'static str {
    let Some(grid) = fleet.apps()[i].quality.as_ref() else {
        return ModelQuality::Measured.as_str();
    };
    let (pressures, _) = context_of(fleet, state, live, i);
    let hom = fleet.apps()[i].online.base().convert(&pressures);
    grid.at_hom(hom.pressure, hom.nodes).as_str()
}

/// Ordering for picking the *worst* quality grade backing a fleet-wide
/// reaction: defaulted > interpolated > measured/observed.
fn quality_rank(quality: &str) -> u8 {
    match quality {
        "defaulted" => 2,
        "interpolated" => 1,
        _ => 0,
    }
}

/// Bounded incremental re-anneal from the current placement, with the
/// shed loop: when the constraints admit no feasible packing, the
/// lowest-priority application is taken out of service and the search
/// retried — never more times than there are applications, so the loop
/// provably terminates.
///
/// Surviving applications whose host sets changed are checkpointed and
/// resumed at the configured migration cost — placement changes are
/// never free.
///
/// The diff execution validates every migration target against the
/// fault plan *before* committing it ([`SimTestbed::resume_app_on`]): a
/// host that went down between the decision and the move surfaces as a
/// typed [`TestbedError::HostDown`], which records a fresh detection and
/// re-plans around the newly-known outage instead of aborting the tick.
/// Each retry adds a host to the exclusion set, so the loop terminates.
#[allow(clippy::too_many_arguments)]
fn replan(
    testbed: &mut SimTestbed,
    fleet: &Fleet,
    config: &ManagerConfig,
    sup: &mut Supervisor<'_>,
    live: &mut [bool],
    shed_order: &mut Vec<String>,
    suspicion: &[f64],
    state: &PlacementState,
    downed: &[usize],
    start_stats: &TestbedStats,
    provenance: &mut Ledger<ProvenanceRecord>,
    trigger_violation_s: f64,
) -> Result<PlacementState, ManagerError> {
    let mut before: Vec<Vec<usize>> = (0..fleet.apps().len())
        .map(|i| fleet.hosts_of(state, i))
        .collect();
    let mut downed: Vec<usize> = downed.to_vec();
    let mut current = state.clone();
    let mut attempt: u64 = 0;
    'replan: loop {
        loop {
            let constraints = outage_constraints(live, &downed);
            let anneal_config = AnnealConfig {
                iterations: config.reanneal_iterations,
                seed: reaction_seed(config.seed, sup.tick, 0xD00D ^ attempt),
                ..AnnealConfig::default()
            };
            let result = re_anneal_with(
                fleet.problem(),
                FleetObjective::new(fleet, live, suspicion),
                &current,
                &constraints,
                &anneal_config,
                sup.tracer,
            )?;
            current = result.state;
            if constraints.breaches(fleet.problem(), &current) == 0 {
                break;
            }
            // No feasible placement: degrade gracefully.
            let Some(victim) = fleet.shed_candidate(live) else {
                break; // nothing left to shed; nothing left to place either
            };
            live[victim] = false;
            shed_order.push(fleet.apps()[victim].name.clone());
            let sim = sim_elapsed(&testbed.stats(), start_stats);
            sup.act(
                sim,
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
                provenance,
            );
            attempt += 1;
        }

        // Execute the placement diff: surviving applications that moved
        // are checkpointed and resumed on their new hosts.
        for (i, app) in fleet.apps().iter().enumerate() {
            if !live[i] {
                continue;
            }
            let target = fleet.hosts_of(&current, i);
            if target == before[i] {
                continue;
            }
            let sim = sim_elapsed(&testbed.stats(), start_stats);
            testbed.checkpoint_app(&app.name)?;
            match testbed.resume_app_on(&app.name, &target, config.migration_cost_s) {
                Ok(()) => {}
                Err(TestbedError::HostDown { host, .. }) if !downed.contains(&host) => {
                    // The target host crashed between the placement
                    // decision and its execution. The failed resume had
                    // no side effects; record what we just learned and
                    // re-plan with the outage excluded.
                    sup.detect(
                        sim,
                        DetectionKind::HostDown,
                        Some(&app.name),
                        Some(host as u64),
                        DetectCtx::default(),
                    );
                    downed.push(host);
                    downed.sort_unstable();
                    attempt += 1;
                    continue 'replan;
                }
                Err(TestbedError::HostDown { .. }) => {
                    // The host was already in the exclusion set, yet the
                    // search could not avoid it (shed loop gave up with
                    // breaches left). Commit the move anyway — the next
                    // deployment surfaces the outage through the tick
                    // loop's fault path, as it always has.
                    testbed.resume_app(&app.name, config.migration_cost_s)?;
                }
                Err(err) => return Err(err.into()),
            }
            before[i] = target.clone();
            // The candidate placement this migration commits to, with
            // the model's post-move prediction and its quality grade.
            let (pressures, key) = context_of(fleet, &current, live, i);
            let predicted = app.online.predict_for(&key, &pressures)?;
            let hosts: Vec<u64> = target.iter().map(|&h| h as u64).collect();
            sup.act(
                sim,
                ActionKind::Migrate,
                Some(&app.name),
                config.migration_cost_s,
                ActCtx {
                    quality: prediction_quality(fleet, &current, live, i),
                    predicted,
                    placement: vec![PlacementRef {
                        app: app.name.clone(),
                        hosts,
                    }],
                    trigger_violation_s,
                },
                provenance,
            );
        }
        return Ok(current);
    }
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

    fn test_supervisor(tracer: &Tracer) -> Supervisor<'_> {
        Supervisor {
            tracer,
            managed: true,
            tick: 1,
            tick_announced: false,
            detections: Vec::new(),
            actions: Vec::new(),
            tick_inputs: Vec::new(),
        }
    }

    #[test]
    fn replan_reroutes_when_a_migration_target_crashes_before_the_move() {
        use icm_simcluster::{CrashWindow, FaultPlan};

        let (tb, fleet) = fleet_and_testbed();
        let config = ManagerConfig::default();
        let n = fleet.apps().len();
        let hosts = fleet.problem().hosts();
        let suspicion = vec![0.0; hosts];
        // A deliberately scrambled starting placement forces migrations.
        let mut rng = Rng::from_seed(0xBAD_5EED);
        let state = PlacementState::random(fleet.problem(), &mut rng);
        let tracer = Tracer::disabled();

        // Dry run against a fault-free clone to learn, deterministically,
        // which host an application is about to be moved onto.
        let crashed = {
            let mut dry = tb.clone();
            let mut live = vec![true; n];
            let mut shed = Vec::new();
            let mut prov = Ledger::default();
            let mut sup = test_supervisor(&tracer);
            let start = dry.stats();
            let planned = replan(
                &mut dry,
                &fleet,
                &config,
                &mut sup,
                &mut live,
                &mut shed,
                &suspicion,
                &state,
                &[],
                &start,
                &mut prov,
                0.0,
            )
            .expect("fault-free replan");
            (0..n)
                .find_map(|i| {
                    let before = fleet.hosts_of(&state, i);
                    fleet
                        .hosts_of(&planned, i)
                        .into_iter()
                        .find(|h| !before.contains(h))
                })
                .expect("fixture must force a migration onto a new host")
        };

        // Same replan, but the chosen target crashed between the
        // decision and the move, and the caller's outage list is stale.
        let mut tb = tb;
        tb.set_fault_plan(Some(FaultPlan {
            crash_windows: vec![CrashWindow {
                host: crashed,
                from_run: 0,
                until_run: 1_000_000,
            }],
            ..FaultPlan::default()
        }));
        let mut live = vec![true; n];
        let mut shed = Vec::new();
        let mut prov = Ledger::default();
        let mut sup = test_supervisor(&tracer);
        let start = tb.stats();
        let planned = replan(
            &mut tb,
            &fleet,
            &config,
            &mut sup,
            &mut live,
            &mut shed,
            &suspicion,
            &state,
            &[],
            &start,
            &mut prov,
            0.0,
        )
        .expect("a crashed target must trigger a re-plan, not abort the tick");

        assert!(
            sup.detections
                .iter()
                .any(|d| d.kind == DetectionKind::HostDown && d.host == Some(crashed as u64)),
            "the surprise outage must be recorded as a typed detection"
        );
        for (i, _) in live.iter().enumerate().filter(|(_, &alive)| alive) {
            assert!(
                !fleet.hosts_of(&planned, i).contains(&crashed),
                "no surviving application may be routed through the dead host"
            );
        }
        assert!(
            sup.actions.iter().any(|a| a.kind == ActionKind::Migrate),
            "the re-plan must still commit migrations"
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
