//! **Endurance** — a long supervised run under randomized crash
//! injection, built to be checkpointed, killed, and resumed.
//!
//! The uninterrupted variant (`endurance`) drives a [`World`] — testbed,
//! fleet, manager runtime and a *driver* RNG that schedules crash
//! windows on the fly — to the end of its horizon. The savestate runner
//! ([`drive`]) is the same loop with three extras wired through the
//! `icm-experiments` binary: periodic [`WorldSnapshot`] checkpoints into
//! a crash-safe [`SnapshotStore`], an optional self-kill after a chosen
//! tick (a stand-in for SIGKILL: no flushes, no destructors), and resume
//! from the latest good snapshot. The contract: a killed-and-resumed
//! run's final state, structured result, and event trace are
//! byte-identical to the uninterrupted run's.
//!
//! The driver RNG is what makes snapshotting load-bearing: crash
//! windows are drawn per tick from its stream, so resuming without its
//! exact xoshiro state would fork the fault history immediately.
//!
//! The `fork` variant branches one world at mid-horizon through a
//! serialized snapshot and finishes it under different manager policies
//! — identical futures, different supervisors.

use std::fmt;
use std::path::Path;

use icm_json::fs::SnapshotStore;
use icm_manager::snapshot::{RngState, WorldSnapshot};
use icm_manager::{ActionKind, Fleet, ManagedRun, ManagerConfig};
use icm_obs::Tracer;
use icm_rng::Rng;
use icm_server::world::{base_manager_config, build_fleet, half_cluster_drift, supervised_apps};
use icm_simcluster::{CrashWindow, SimTestbed};

use crate::context::{ExpConfig, ExpError};
use crate::table::{f2, Table};

/// Ambient bubble pressure the back half of the horizon parks on half
/// the cluster.
const DRIFT_PRESSURE: f64 = 6.0;
/// Per-tick probability the driver schedules a crash window.
const CRASH_PROB: f64 = 0.25;
/// Runs a scheduled crash window stays open for.
const CRASH_SPAN_RUNS: u64 = 2;

/// The manager configuration a fresh world on `hosts` hosts starts its
/// run with. Ambient drift parks bubble pressure on half the cluster
/// for the back half of the horizon — it lands right after the `fork`
/// experiment's branch point, so the branches face the onset under
/// their different policies.
fn manager_config(cfg: &ExpConfig, hosts: usize) -> ManagerConfig {
    let ticks = if cfg.fast { 8 } else { 16 };
    ManagerConfig {
        ticks,
        environment: Some(half_cluster_drift(hosts, DRIFT_PRESSURE, ticks / 2 + 1)),
        ..base_manager_config(cfg.seed, cfg.fast)
    }
}

/// Everything the endurance run owns: the simulated testbed, the fleet
/// with its online models, the resumable manager runtime, and the
/// driver RNG that schedules chaos.
pub struct World {
    /// The simulated cluster, mid-history.
    pub testbed: SimTestbed,
    /// The supervised fleet.
    pub fleet: Fleet,
    /// The manager configuration.
    pub config: ManagerConfig,
    /// The supervisory loop, positioned before its next tick.
    pub run: ManagedRun,
    /// Schedules crash windows; its state must survive checkpoints.
    pub driver: Rng,
}

impl World {
    /// Builds a fresh world: the supervised fleet
    /// ([`icm_server::world::build_fleet`]) and its cold initial
    /// search.
    ///
    /// # Errors
    ///
    /// Propagates model, placement and manager failures.
    pub fn new(cfg: &ExpConfig, tracer: &Tracer) -> Result<Self, ExpError> {
        let (adapter, fleet) = build_fleet(&supervised_apps(cfg.fast), cfg.seed, cfg.fast)?;
        let mut testbed = adapter.into_sim();
        testbed.set_tracer(tracer.clone());
        let config = manager_config(cfg, testbed.cluster().hosts());
        let run = ManagedRun::start(&testbed, &fleet, &config, true)?;
        Ok(Self {
            testbed,
            fleet,
            config,
            run,
            driver: Rng::from_seed(cfg.seed ^ 0x0E2D_0C4E),
        })
    }

    /// Rebuilds a world from a savestate. The testbed's tracer does not
    /// travel in the snapshot; the caller's `tracer` is re-attached.
    pub fn restore(snapshot: WorldSnapshot, tracer: &Tracer) -> Result<Self, ExpError> {
        let driver = snapshot
            .rngs
            .first()
            .ok_or_else(|| ExpError::new("snapshot carries no driver RNG state"))?
            .restore();
        let (testbed, fleet, config, run) = snapshot.restore(tracer);
        Ok(Self {
            testbed,
            fleet,
            config,
            run,
            driver,
        })
    }

    /// Captures the world (plus the driver RNG, the tracer clock and
    /// the trace position) into a serializable savestate that shares
    /// the run history, app catalog and base models with the world
    /// ([`WorldSnapshot::capture`]).
    pub fn snapshot(
        &self,
        tracer: &Tracer,
        trace_path: Option<&str>,
        trace_bytes: u64,
    ) -> WorldSnapshot {
        WorldSnapshot {
            rngs: vec![RngState::capture(&self.driver)],
            trace_path: trace_path.map(str::to_owned),
            trace_bytes,
            ..WorldSnapshot::capture(&self.testbed, &self.fleet, &self.config, &self.run, tracer)
        }
    }

    /// Executes one endurance tick: maybe schedules a crash window for
    /// the epoch ahead (a driver-RNG draw every tick, taken or not),
    /// then steps the supervisory loop.
    ///
    /// # Errors
    ///
    /// Propagates manager failures; injected faults are absorbed.
    pub fn step(&mut self, tracer: &Tracer) -> Result<(), ExpError> {
        let hosts = self.testbed.cluster().hosts();
        if self.driver.gen_bool(CRASH_PROB) {
            let host = self.driver.gen_range(0..hosts as u64) as usize;
            let from_run = self.testbed.peek_run();
            let mut plan = self.testbed.fault_plan().cloned().unwrap_or_default();
            plan.crash_windows.push(CrashWindow {
                host,
                from_run,
                // Bounded (never `u64::MAX`): snapshot plans must
                // survive the JSON integer-exactness check.
                until_run: from_run + CRASH_SPAN_RUNS,
            });
            self.testbed.set_fault_plan(Some(plan));
        }
        self.run
            .step(&mut self.testbed, &mut self.fleet, &self.config, tracer)?;
        Ok(())
    }
}

/// Endurance run output. Deliberately free of any resume metadata: a
/// killed-and-resumed run must produce this document byte-for-byte.
#[derive(Debug, Clone, PartialEq)]
pub struct EnduranceResult {
    /// Supervisory epochs.
    pub ticks: u64,
    /// Supervised applications.
    pub apps: Vec<String>,
    /// Crash windows the driver scheduled over the whole run.
    pub crashes_injected: u64,
    /// QoS-violation-seconds accumulated.
    pub violation_s: f64,
    /// Conditions detected.
    pub detections: u64,
    /// Migration actions.
    pub migrations: u64,
    /// Incremental re-anneal actions.
    pub reanneals: u64,
    /// Applications shed.
    pub sheds: u64,
    /// Circuit breakers opened.
    pub circuit_breaks: u64,
    /// Applications meeting their bound at the end.
    pub meets_bound: u64,
    /// Total simulated seconds.
    pub sim_seconds: f64,
}

icm_json::impl_json!(struct EnduranceResult {
    ticks,
    apps,
    crashes_injected,
    violation_s,
    detections,
    migrations,
    reanneals,
    sheds,
    circuit_breaks,
    meets_bound,
    sim_seconds,
});

fn summarize(world: World) -> EnduranceResult {
    let crashes_injected = world
        .testbed
        .fault_plan()
        .map_or(0, |p| p.crash_windows.len() as u64);
    let apps: Vec<String> = world.fleet.apps().iter().map(|a| a.name.clone()).collect();
    let outcome = world
        .run
        .into_outcome(&world.testbed, &world.fleet, &world.config);
    EnduranceResult {
        ticks: outcome.ticks,
        apps,
        crashes_injected,
        violation_s: outcome.violation_seconds,
        detections: outcome.detections.len() as u64,
        migrations: outcome.action_count(ActionKind::Migrate),
        reanneals: outcome.action_count(ActionKind::ReAnneal),
        sheds: outcome.action_count(ActionKind::Shed),
        circuit_breaks: outcome.action_count(ActionKind::CircuitBreak),
        meets_bound: outcome.finals.iter().filter(|f| f.meets_bound).count() as u64,
        sim_seconds: outcome.sim_seconds,
    }
}

/// Runs the endurance scenario uninterrupted, emitting testbed and
/// manager events into `tracer`.
///
/// # Errors
///
/// Propagates model, placement and manager failures.
pub fn run_traced(cfg: &ExpConfig, tracer: &Tracer) -> Result<EnduranceResult, ExpError> {
    drive(cfg, tracer, None, None, None, None)
}

/// Runs the endurance scenario without tracing.
///
/// # Errors
///
/// See [`run_traced`].
pub fn run(cfg: &ExpConfig) -> Result<EnduranceResult, ExpError> {
    run_traced(cfg, &Tracer::disabled())
}

/// The savestate-aware endurance runner behind the binary's
/// `--checkpoint-every/--checkpoint-dir`, `--kill-after` and `--resume`
/// flags.
///
/// * `resume` — continue a previously saved world instead of building a
///   fresh one. The caller is responsible for having truncated the
///   trace file to the snapshot's byte offset and restored the tracer
///   clock, so emitted events continue the stamp sequence.
/// * `checkpoint` — `(dir, every)`: after every `every`-th completed
///   tick, flush the tracer and save a [`WorldSnapshot`] as a new
///   generation in `dir` (checksummed, atomically written). Cadence is
///   counted in world ticks, so a resumed run keeps the rhythm.
/// * `kill_after` — abort the process (no flushes, no destructors — the
///   moral equivalent of SIGKILL) once that world tick has completed.
///
/// # Errors
///
/// Propagates experiment failures and checkpoint I/O errors.
pub fn drive(
    cfg: &ExpConfig,
    tracer: &Tracer,
    resume: Option<WorldSnapshot>,
    checkpoint: Option<(&Path, u64)>,
    kill_after: Option<u64>,
    trace_path: Option<&Path>,
) -> Result<EnduranceResult, ExpError> {
    let mut world = match resume {
        Some(snapshot) => World::restore(snapshot, tracer)?,
        None => World::new(cfg, tracer)?,
    };
    let store = match checkpoint {
        Some((dir, every)) => {
            if every == 0 {
                return Err(ExpError::new("--checkpoint-every must be at least 1"));
            }
            Some((SnapshotStore::open(dir).map_err(ExpError::new)?, every))
        }
        None => None,
    };
    while !world.run.is_done(&world.config) {
        world.step(tracer)?;
        let completed = world.run.next_tick() - 1;
        if let Some((store, every)) = &store {
            if completed.is_multiple_of(*every) && !world.run.is_done(&world.config) {
                tracer.flush();
                let trace_bytes = match trace_path {
                    Some(path) => std::fs::metadata(path).map_err(ExpError::new)?.len(),
                    None => 0,
                };
                let snapshot =
                    world.snapshot(tracer, trace_path.and_then(Path::to_str), trace_bytes);
                store
                    .save(snapshot.to_text().as_bytes())
                    .map_err(ExpError::new)?;
            }
        }
        if kill_after == Some(completed) {
            // Simulated SIGKILL: nothing buffered gets flushed, no
            // destructor runs. Resume must cope with whatever the
            // checkpoint cadence left behind.
            std::process::abort();
        }
    }
    Ok(summarize(world))
}

/// Loads the newest resumable snapshot from a checkpoint directory
/// through the store's newest-first walk
/// ([`SnapshotStore::load_newest`]): a generation that fails the
/// store's integrity checks (torn write, flipped bit, truncation) *or*
/// the payload format check (unknown version, missing field) is skipped
/// in favor of the previous good one, never a panic.
///
/// # Errors
///
/// When the directory is unreadable, empty, or no generation survives
/// both checks; the error lists every per-generation failure.
pub fn load_resumable(dir: &Path) -> Result<(u64, WorldSnapshot), ExpError> {
    let store = SnapshotStore::open(dir).map_err(ExpError::new)?;
    let newest = store.load_newest(|bytes| {
        let text = String::from_utf8(bytes).map_err(|e| e.to_string())?;
        WorldSnapshot::parse(&text).map_err(|e| e.to_string())
    });
    match newest {
        Ok(Some(found)) => Ok(found),
        Ok(None) => Err(ExpError::new(format!("no snapshots in {}", dir.display()))),
        Err(e) => Err(ExpError::new(format!(
            "no usable snapshot in {}: {e}",
            dir.display()
        ))),
    }
}

/// A command line that contradicts the snapshot a run resumes from: a
/// resumed run can only continue the saved one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeConflict {
    /// `--seed` names another seed than the one the saved run was
    /// started with.
    Seed {
        /// The seed the command line asked for.
        requested: u64,
        /// The seed the snapshot's run was started with.
        saved: u64,
    },
    /// `--fast` was given, but the snapshot comes from a full run.
    Fast,
    /// The snapshot's manager configuration is not the one a fresh
    /// world builds at its seed, fast or full, so neither can be
    /// stamped on the resumed results.
    UnknownConfig {
        /// The seed the snapshot's run was started with.
        saved: u64,
    },
}

impl fmt::Display for ResumeConflict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeConflict::Seed { requested, saved } => write!(
                f,
                "--seed {requested} conflicts with seed {saved} of the resumed snapshot"
            ),
            ResumeConflict::Fast => {
                write!(f, "--fast conflicts with the resumed snapshot's full run")
            }
            ResumeConflict::UnknownConfig { saved } => write!(
                f,
                "the resumed snapshot's manager configuration is neither the fast nor \
                 the full one at seed {saved}"
            ),
        }
    }
}

impl std::error::Error for ResumeConflict {}

/// The configuration a run resumed from `snapshot` continues under: the
/// snapshot's own seed and `fast`. The seed is the one its manager
/// configuration carries, and `fast` is the one value for which a fresh
/// world at that seed builds exactly that configuration. A `requested`
/// seed may restate the saved one, not change it; `fast` may be given
/// for a fast snapshot and is taken from the snapshot when absent.
///
/// # Errors
///
/// [`ResumeConflict`] when `requested` or `fast` contradicts the
/// snapshot, or when its configuration matches no fresh world.
pub fn resume_config(
    snapshot: &WorldSnapshot,
    requested: Option<u64>,
    fast: bool,
) -> Result<ExpConfig, ResumeConflict> {
    let saved = snapshot.config.seed;
    if let Some(requested) = requested.filter(|&requested| requested != saved) {
        return Err(ResumeConflict::Seed { requested, saved });
    }
    let hosts = snapshot.testbed.cluster.hosts();
    let builds = |fast| snapshot.config == manager_config(&ExpConfig { seed: saved, fast }, hosts);
    let saved_fast = match (builds(true), builds(false)) {
        (true, false) => true,
        (false, true) => false,
        _ => return Err(ResumeConflict::UnknownConfig { saved }),
    };
    if fast && !saved_fast {
        return Err(ResumeConflict::Fast);
    }
    Ok(ExpConfig {
        seed: saved,
        fast: saved_fast,
    })
}

/// Renders the endurance summary table.
pub fn render(result: &EnduranceResult) -> String {
    let mut table = Table::new(format!(
        "Endurance: {} supervised ticks under randomized crash injection ({})",
        result.ticks,
        result.apps.join(", ")
    ));
    table.headers([
        "ticks",
        "crashes",
        "violation (s)",
        "detections",
        "mig/ann/shed/brk",
        "in-bound",
        "sim (s)",
    ]);
    table.row([
        result.ticks.to_string(),
        result.crashes_injected.to_string(),
        f2(result.violation_s),
        result.detections.to_string(),
        format!(
            "{}/{}/{}/{}",
            result.migrations, result.reanneals, result.sheds, result.circuit_breaks
        ),
        format!("{}/{}", result.meets_bound, result.apps.len()),
        f2(result.sim_seconds),
    ]);
    table.render()
}

/// One policy branch of a forked world.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkBranch {
    /// Branch label.
    pub label: String,
    /// The SLO hysteresis (violating ticks before reacting) this branch
    /// ran with.
    pub slo_trip_after: u64,
    /// QoS-violation-seconds at the end of the branch.
    pub violation_s: f64,
    /// Migration actions over the whole run (shared prefix included).
    pub migrations: u64,
    /// Re-anneal actions over the whole run.
    pub reanneals: u64,
    /// Conditions detected over the whole run.
    pub detections: u64,
    /// Applications meeting their bound at the end.
    pub meets_bound: u64,
}

icm_json::impl_json!(struct ForkBranch {
    label,
    slo_trip_after,
    violation_s,
    migrations,
    reanneals,
    detections,
    meets_bound,
});

/// Fork experiment output.
#[derive(Debug, Clone, PartialEq)]
pub struct ForkResult {
    /// Tick the world was branched at.
    pub fork_tick: u64,
    /// Total supervisory ticks per branch.
    pub total_ticks: u64,
    /// The policy branches, identical up to `fork_tick`.
    pub branches: Vec<ForkBranch>,
}

icm_json::impl_json!(struct ForkResult { fork_tick, total_ticks, branches });

/// Branches one world at mid-horizon — through a full serialize/parse
/// round-trip of its savestate, the same path `--resume` takes — and
/// finishes it under different SLO hysteresis settings. Every branch sees the
/// identical future: same noise stream, same scheduled crash windows,
/// same model state at the fork point — so any difference in outcome
/// is attributable to the policy alone.
///
/// # Errors
///
/// Propagates model, placement and manager failures.
pub fn run_fork(cfg: &ExpConfig) -> Result<ForkResult, ExpError> {
    let tracer = Tracer::disabled();
    let mut world = World::new(cfg, &tracer)?;
    let fork_tick = world.config.ticks / 2;
    while world.run.next_tick() <= fork_tick {
        world.step(&tracer)?;
    }
    let savestate = world.snapshot(&tracer, None, 0).to_text();

    // The baseline branch must keep the unforked policy so it can be
    // checked against the plain endurance run (the identical-futures
    // proof); the others trade reaction latency for stability.
    let baseline_trip = world.config.slo_trip_after;
    let mut branches = Vec::new();
    for (label, slo_trip_after) in [
        ("baseline", baseline_trip),
        ("hair-trigger", 1),
        ("patient", baseline_trip * 2),
    ] {
        let snapshot = WorldSnapshot::parse(&savestate).map_err(ExpError::new)?;
        let mut branch = World::restore(snapshot, &tracer)?;
        branch.config.slo_trip_after = slo_trip_after;
        while !branch.run.is_done(&branch.config) {
            branch.step(&tracer)?;
        }
        let summary = summarize(branch);
        branches.push(ForkBranch {
            label: label.to_owned(),
            slo_trip_after: u64::from(slo_trip_after),
            violation_s: summary.violation_s,
            migrations: summary.migrations,
            reanneals: summary.reanneals,
            detections: summary.detections,
            meets_bound: summary.meets_bound,
        });
    }
    Ok(ForkResult {
        fork_tick,
        total_ticks: world.config.ticks,
        branches,
    })
}

/// Renders the fork comparison table.
pub fn render_fork(result: &ForkResult) -> String {
    let mut table = Table::new(format!(
        "Fork: identical futures branched at tick {} of {}, three SLO hysteresis policies",
        result.fork_tick, result.total_ticks
    ));
    table.headers([
        "branch",
        "slo trip",
        "violation (s)",
        "mig",
        "anneal",
        "detections",
        "in-bound",
    ]);
    for branch in &result.branches {
        table.row([
            branch.label.clone(),
            branch.slo_trip_after.to_string(),
            f2(branch.violation_s),
            branch.migrations.to_string(),
            branch.reanneals.to_string(),
            branch.detections.to_string(),
            branch.meets_bound.to_string(),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_cfg() -> ExpConfig {
        ExpConfig {
            fast: true,
            ..ExpConfig::default()
        }
    }

    #[test]
    fn endurance_is_deterministic_and_eventful() {
        let a = run(&fast_cfg()).expect("runs");
        let b = run(&fast_cfg()).expect("runs");
        assert_eq!(a, b);
        assert!(
            a.crashes_injected > 0,
            "the driver must inject chaos: {a:?}"
        );
        assert!(a.sim_seconds > 0.0);
    }

    /// The daemon supervises the very fleet the endurance run does, and
    /// their manager settings differ only in horizon, environment and
    /// drift detector.
    #[test]
    fn the_daemon_supervises_the_endurance_fleet() {
        use icm_core::DriftConfig;
        use icm_server::world::build_world;
        use icm_server::ServerConfig;

        for (seed, fast) in [(2016, true), (7, true), (7, false)] {
            let world = World::new(&ExpConfig { seed, fast }, &Tracer::disabled()).expect("builds");
            let (_, fleet, daemon_config, _) =
                build_world(&ServerConfig::new(seed, fast)).expect("builds");
            assert_eq!(
                icm_json::to_string(&world.fleet),
                icm_json::to_string(&fleet),
                "seed {seed}, fast {fast}"
            );
            let restated = ManagerConfig {
                ticks: daemon_config.ticks,
                environment: None,
                drift: DriftConfig::default(),
                ..world.config
            };
            assert_eq!(restated, daemon_config, "seed {seed}, fast {fast}");
        }
    }

    #[test]
    fn a_world_resumed_from_its_savestate_finishes_identically() {
        let cfg = fast_cfg();
        let tracer = Tracer::disabled();

        let mut full = World::new(&cfg, &tracer).expect("builds");
        while !full.run.is_done(&full.config) {
            full.step(&tracer).expect("steps");
        }
        let reference = summarize(full);

        let mut prefix = World::new(&cfg, &tracer).expect("builds");
        for _ in 0..3 {
            prefix.step(&tracer).expect("steps");
        }
        let text = prefix.snapshot(&tracer, None, 0).to_text();
        let snapshot = WorldSnapshot::parse(&text).expect("parses");
        let mut resumed = World::restore(snapshot, &tracer).expect("restores");
        while !resumed.run.is_done(&resumed.config) {
            resumed.step(&tracer).expect("steps");
        }
        assert_eq!(reference, summarize(resumed));
    }

    #[test]
    fn a_resume_takes_seed_and_fast_from_the_snapshot() {
        let cfg = ExpConfig {
            seed: 7,
            fast: true,
        };
        let full = ExpConfig { fast: false, ..cfg };
        let tracer = Tracer::disabled();
        let mut world = World::new(&cfg, &tracer).expect("builds");
        world.step(&tracer).expect("steps");
        let mut snapshot = world.snapshot(&tracer, None, 0);
        assert_eq!(resume_config(&snapshot, None, false), Ok(cfg));
        assert_eq!(resume_config(&snapshot, Some(7), true), Ok(cfg));
        assert_eq!(
            resume_config(&snapshot, Some(2016), true),
            Err(ResumeConflict::Seed {
                requested: 2016,
                saved: 7
            })
        );
        // The configuration a full run at the same seed starts with.
        snapshot.config = manager_config(&full, snapshot.testbed.cluster.hosts());
        assert_eq!(resume_config(&snapshot, None, false), Ok(full));
        assert_eq!(
            resume_config(&snapshot, None, true),
            Err(ResumeConflict::Fast)
        );
        snapshot.config.ticks += 1;
        let err = resume_config(&snapshot, None, false).unwrap_err();
        assert_eq!(err, ResumeConflict::UnknownConfig { saved: 7 });
        assert!(err.to_string().contains("at seed 7"), "{err}");
    }

    #[test]
    fn fork_branches_share_their_prefix_and_render() {
        let result = run_fork(&fast_cfg()).expect("forks");
        assert_eq!(result.branches.len(), 3);
        // The baseline branch reruns the unmodified policy, so it must
        // equal the plain endurance run — the identical-futures check.
        let baseline = &result.branches[0];
        let endurance = run(&fast_cfg()).expect("runs");
        assert_eq!(baseline.violation_s, endurance.violation_s);
        assert_eq!(baseline.migrations, endurance.migrations);
        assert_eq!(baseline.detections, endurance.detections);
        let text = render_fork(&result);
        for branch in &result.branches {
            assert!(text.contains(&branch.label));
        }
        assert!(render(&endurance).contains("Endurance"));
    }
}
