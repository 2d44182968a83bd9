use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::sync::OnceLock;
use std::thread;
use std::time::{Duration, Instant};

use icm_json::Shared;
use icm_obs::{Tracer, Value};
use icm_simnode::{solve_contention, Bubble, MemoryProfile};

use crate::app::AppSpec;
use crate::cluster::ClusterSpec;
use crate::cpu;
use crate::fault::FaultPlan;
use crate::noise::{stream, Noise};
use crate::sync::execute;

/// CPU-load volatility attributed to unobserved background tenants, as
/// felt by I/O-sensitive applications.
const BACKGROUND_VOLATILITY: f64 = 0.5;

/// Deterministic Dom0-CPU contention an I/O-sensitive application suffers
/// whenever any co-tenant (application, bubble or background tenant)
/// shares the host, scaled by the app's `io_sensitivity`.
const IO_COTENANT_BASE: f64 = 0.5;

/// Scale of the *unpredictable* volatility-driven part of the I/O effect,
/// relative to the deterministic base.
const IO_VOLATILITY_SCALE: f64 = 0.5;

/// Error returned by [`SimTestbed`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestbedError {
    /// The named application was never registered.
    UnknownApp(String),
    /// A placement referenced a host outside the cluster.
    HostOutOfRange {
        /// The offending host index.
        host: usize,
        /// Number of hosts in the cluster.
        hosts: usize,
    },
    /// A per-host vector had the wrong length.
    BadVectorLength {
        /// Expected length (cluster hosts).
        expected: usize,
        /// Actual length.
        got: usize,
    },
    /// A placement listed the same host twice.
    DuplicateHost {
        /// Application whose placement is malformed.
        app: String,
        /// The repeated host index.
        host: usize,
    },
    /// A placement had no hosts at all.
    EmptyPlacement {
        /// Application whose placement is empty.
        app: String,
    },
    /// A bubble pressure was NaN, infinite or negative.
    BadPressure(String),
    /// Fault injection: the run failed transiently before any cluster
    /// time was spent (the probe measurement is simply lost).
    ProbeFailed {
        /// Run counter value of the failed attempt.
        run: u64,
    },
    /// Fault injection: the run straggled past its kill deadline and was
    /// terminated without producing a measurement.
    ProbeTimeout {
        /// Run counter value of the killed attempt.
        run: u64,
    },
    /// Fault injection: a host the deployment needs is inside a crash
    /// window.
    HostDown {
        /// The unreachable host.
        host: usize,
        /// Run counter value of the rejected attempt.
        run: u64,
    },
    /// A checkpoint/resume was given a NaN, infinite or negative restart
    /// cost. The payload describes the rejected value.
    InvalidCost(String),
}

impl fmt::Display for TestbedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestbedError::UnknownApp(name) => write!(f, "unknown application `{name}`"),
            TestbedError::HostOutOfRange { host, hosts } => {
                write!(f, "host {host} out of range for a {hosts}-host cluster")
            }
            TestbedError::BadVectorLength { expected, got } => {
                write!(f, "per-host vector must have length {expected}, got {got}")
            }
            TestbedError::DuplicateHost { app, host } => {
                write!(f, "placement of `{app}` lists host {host} twice")
            }
            TestbedError::EmptyPlacement { app } => {
                write!(f, "placement of `{app}` has no hosts")
            }
            TestbedError::BadPressure(msg) => write!(f, "invalid bubble pressure: {msg}"),
            TestbedError::ProbeFailed { run } => {
                write!(f, "injected transient probe failure on run {run}")
            }
            TestbedError::ProbeTimeout { run } => {
                write!(
                    f,
                    "run {run} straggled past its kill deadline and was terminated"
                )
            }
            TestbedError::HostDown { host, run } => {
                write!(f, "host {host} is down (crash window) on run {run}")
            }
            TestbedError::InvalidCost(msg) => write!(f, "invalid restart cost: {msg}"),
        }
    }
}

impl Error for TestbedError {}

/// One application's assignment to a set of hosts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Application (catalog) name.
    pub app: String,
    /// Cluster host indices the application's VMs occupy. The first host
    /// is the master for applications with a coordinator master.
    pub hosts: Vec<usize>,
}

icm_json::impl_json!(struct Placement { app, hosts });

impl Placement {
    /// Convenience constructor.
    pub fn new(app: impl Into<String>, hosts: Vec<usize>) -> Self {
        Self {
            app: app.into(),
            hosts,
        }
    }
}

/// A full experiment configuration: which applications run where, plus an
/// optional bubble pressure per host.
#[derive(Debug, Clone, PartialEq)]
pub struct Deployment {
    /// Application placements (may co-locate multiple apps on a host).
    pub placements: Vec<Placement>,
    /// Bubble pressure per host (`0` = no bubble). Empty means no bubbles
    /// anywhere.
    pub bubbles: Vec<f64>,
}

icm_json::impl_json!(struct Deployment { placements, bubbles });

impl Deployment {
    /// A deployment with the given placements and no bubbles.
    pub fn of_placements(placements: Vec<Placement>) -> Self {
        Self {
            placements,
            bubbles: Vec::new(),
        }
    }
}

/// Result of one application's run within a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Application name.
    pub app: String,
    /// Measured wall-clock seconds.
    pub seconds: f64,
    /// Id of the `app_run` trace event this result was reported by
    /// (0 when the run was untraced) — the anchor provenance chains
    /// hang detections off.
    pub trace_event: u64,
}

icm_json::impl_json!(struct AppRun { app, seconds, trace_event = 0 });

/// What a testbed run was *for* — the unit the paper's Table 3 counts
/// profiling cost in.
///
/// The kind is classified from the deployment's shape (see
/// [`RunKind::classify`]), so every entry point — profiler probes going
/// through an adapter, validation pair runs, placement-search
/// deployments — is attributed without the caller having to say.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// One application, no synthetic pressure anywhere.
    Solo,
    /// One application against per-host bubbles (the Fig. 3 probe).
    Bubble,
    /// Two applications fully co-located (§4.3 validation).
    Pair,
    /// Any other placement mix (e.g. placement-search candidates).
    Deployment,
    /// Reporter-bubble measurement (bubble score / sensitivity curve).
    Reporter,
}

impl RunKind {
    /// Stable lowercase label used in trace events and summaries.
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::Solo => "solo",
            RunKind::Bubble => "bubble",
            RunKind::Pair => "pair",
            RunKind::Deployment => "deployment",
            RunKind::Reporter => "reporter",
        }
    }

    /// Classifies a deployment: one app without/with bubbles is a
    /// solo/bubble probe, two fully co-located apps are a pair, and
    /// everything else is a general deployment.
    pub fn classify(deployment: &Deployment) -> Self {
        let bubbled = deployment.bubbles.iter().any(|&p| p > 0.0);
        match (deployment.placements.len(), bubbled) {
            (1, false) => RunKind::Solo,
            (1, true) => RunKind::Bubble,
            (2, false) if deployment.placements[0].hosts == deployment.placements[1].hosts => {
                RunKind::Pair
            }
            _ => RunKind::Deployment,
        }
    }
}

impl fmt::Display for RunKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Cumulative accounting of simulated work, used to report profiling cost.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TestbedStats {
    /// Number of deployment executions (each is "one experiment run").
    pub runs: u64,
    /// Total simulated application-seconds across all runs.
    pub simulated_seconds: f64,
    /// Completed solo runs (one app, no synthetic pressure).
    pub solo_runs: u64,
    /// Completed bubble-probe runs (one app vs. per-host bubbles).
    pub bubble_runs: u64,
    /// Completed pair runs (two apps fully co-located).
    pub pair_runs: u64,
    /// Completed general deployments (placement-search candidates etc.).
    pub deployment_runs: u64,
    /// Completed reporter-bubble measurements.
    pub reporter_runs: u64,
    /// Injected transient probe failures (runs lost before execution).
    pub injected_probe_failures: u64,
    /// Injected straggler runs killed at the deadline.
    pub injected_timeouts: u64,
    /// Injected straggler runs that still completed (inflated runtime).
    pub injected_stragglers: u64,
    /// Injected corrupted measurements (one per affected placement).
    pub injected_corruptions: u64,
    /// Deployments rejected because a host was in a crash window.
    pub injected_host_down: u64,
    /// Simulated seconds burned by runs that produced no measurement
    /// (timeouts killed at the deadline). Tracked separately from
    /// `simulated_seconds`, which covers completed runs only.
    pub wasted_seconds: f64,
    /// Application checkpoints taken (state snapshots before migration).
    pub checkpoints: u64,
    /// Application resumes from a checkpoint (migration restarts).
    pub restarts: u64,
    /// Simulated seconds charged as restart cost across all resumes.
    /// Like `wasted_seconds`, this is overhead: it is *not* folded into
    /// `simulated_seconds` (which covers productive runs only).
    pub restart_seconds: f64,
}

icm_json::impl_json!(struct TestbedStats {
    runs,
    simulated_seconds,
    solo_runs = 0,
    bubble_runs = 0,
    pair_runs = 0,
    deployment_runs = 0,
    reporter_runs = 0,
    injected_probe_failures = 0,
    injected_timeouts = 0,
    injected_stragglers = 0,
    injected_corruptions = 0,
    injected_host_down = 0,
    wasted_seconds = 0.0,
    checkpoints = 0,
    restarts = 0,
    restart_seconds = 0.0
});

impl TestbedStats {
    /// Completed runs of one kind.
    pub fn kind_count(&self, kind: RunKind) -> u64 {
        match kind {
            RunKind::Solo => self.solo_runs,
            RunKind::Bubble => self.bubble_runs,
            RunKind::Pair => self.pair_runs,
            RunKind::Deployment => self.deployment_runs,
            RunKind::Reporter => self.reporter_runs,
        }
    }

    /// Total injected failures that cost a run attempt (transient probe
    /// failures, deadline timeouts, host-down rejections). Corruptions
    /// and completed stragglers are not counted: those runs produced a
    /// (contaminated or late) measurement.
    pub fn injected_failures(&self) -> u64 {
        self.injected_probe_failures + self.injected_timeouts + self.injected_host_down
    }

    fn record(&mut self, kind: RunKind, simulated_seconds: f64) {
        self.runs += 1;
        self.simulated_seconds += simulated_seconds;
        match kind {
            RunKind::Solo => self.solo_runs += 1,
            RunKind::Bubble => self.bubble_runs += 1,
            RunKind::Pair => self.pair_runs += 1,
            RunKind::Deployment => self.deployment_runs += 1,
            RunKind::Reporter => self.reporter_runs += 1,
        }
    }
}

/// The simulated consolidated cluster the paper's methodology is exercised
/// against.
///
/// `SimTestbed` plays the role of the physical testbed: the profiler and
/// the placement algorithms interact with it only by *running things and
/// timing them*. Repeated measurements of the same configuration differ by
/// deterministic pseudo-random noise (each call advances a run counter),
/// exactly like re-running a job on real hardware.
///
/// # Example
///
/// ```
/// use icm_simcluster::{AppSpec, ClusterSpec, SimTestbed, SyncPattern};
/// use icm_simnode::MemoryProfile;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut testbed = SimTestbed::new(ClusterSpec::private8(), 42);
/// testbed.register_app(
///     AppSpec::builder("toy")
///         .base_runtime_s(100.0)
///         .worker_profile(MemoryProfile::builder().working_set_mb(24.0).build()?)
///         .pattern(SyncPattern::high_propagation(32))
///         .build()?,
/// );
/// let solo = testbed.run_solo("toy")?;
/// let loaded = testbed.run_with_bubbles("toy", &[8.0; 8])?;
/// assert!(loaded > solo);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SimTestbed {
    cluster: ClusterSpec,
    /// Shared with every snapshot, which encodes it once.
    apps: Shared<BTreeMap<String, AppSpec>>,
    bubble: Bubble,
    noise: Noise,
    run_counter: u64,
    stats: TestbedStats,
    tracer: Tracer,
    fault_plan: Option<FaultPlan>,
}

/// Serializable image of a [`SimTestbed`], captured with
/// [`SimTestbed::snapshot`] and rebuilt with [`SimTestbed::restore`].
///
/// Restoring and re-running yields byte-identical behaviour to never
/// having stopped: noise draws are addressed by `(stream, run, lane)`,
/// so carrying the seed and the run counter is sufficient to resume the
/// exact noise history mid-stream.
///
/// Fault plans snapshot verbatim, with one JSON caveat: window bounds
/// above 2⁵³ (e.g. `until_run: u64::MAX` as an "open" window) do not
/// survive the integer-exactness check in `icm-json` — persistent plans
/// should use bounded windows.
#[derive(Debug, Clone, PartialEq)]
pub struct TestbedSnapshot {
    /// Cluster geometry and background-tenant model.
    pub cluster: ClusterSpec,
    /// Registered applications, by name. The testbed it was captured
    /// from shares them until it registers another.
    pub apps: Shared<BTreeMap<String, AppSpec>>,
    /// The addressed noise source (seed only; draws are stateless).
    pub noise: Noise,
    /// Run counter — the position in the noise history.
    pub run_counter: u64,
    /// Cumulative run accounting.
    pub stats: TestbedStats,
    /// Installed fault-injection plan, if any.
    pub fault_plan: Option<FaultPlan>,
}

icm_json::impl_json!(struct TestbedSnapshot {
    cluster,
    apps,
    noise,
    run_counter,
    stats,
    fault_plan,
});

impl SimTestbed {
    /// Creates a testbed over `cluster`, with all stochastic behaviour
    /// derived from `seed`.
    pub fn new(cluster: ClusterSpec, seed: u64) -> Self {
        let bubble = Bubble::new(cluster.node(0));
        Self {
            cluster,
            apps: Shared::new(BTreeMap::new()),
            bubble,
            noise: Noise::new(seed),
            run_counter: 0,
            stats: TestbedStats::default(),
            tracer: Tracer::disabled(),
            fault_plan: None,
        }
    }

    /// Installs (or, with `None`, removes) a fault-injection plan.
    ///
    /// Faults are addressed noise draws keyed by the run counter, so a
    /// plan changes *which* runs fail but never perturbs the noise seen
    /// by runs that complete, and `None` restores byte-identical
    /// fault-free behaviour.
    pub fn set_fault_plan(&mut self, plan: Option<FaultPlan>) {
        self.fault_plan = plan;
    }

    /// The installed fault plan, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Attaches a tracer; every subsequent run emits structured events
    /// and advances the tracer's simulated clock by the run's simulated
    /// seconds. Pass [`Tracer::disabled`] to detach.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The attached tracer (disabled by default).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Registers (or replaces) an application so it can be deployed by
    /// name.
    pub fn register_app(&mut self, spec: AppSpec) {
        self.apps.make_mut().insert(spec.name().to_owned(), spec);
    }

    /// Looks up a registered application.
    pub fn app(&self, name: &str) -> Option<&AppSpec> {
        self.apps.get(name)
    }

    /// Names of all registered applications, sorted.
    pub fn app_names(&self) -> Vec<String> {
        self.apps.keys().cloned().collect()
    }

    /// The simulated cluster description.
    pub fn cluster(&self) -> &ClusterSpec {
        &self.cluster
    }

    /// The bubble generator calibrated for this cluster's hosts.
    pub fn bubble(&self) -> &Bubble {
        &self.bubble
    }

    /// Cumulative run accounting.
    pub fn stats(&self) -> TestbedStats {
        self.stats
    }

    /// Resets run accounting (the run counter keeps advancing so noise
    /// never repeats).
    pub fn reset_stats(&mut self) {
        self.stats = TestbedStats::default();
    }

    /// Runs `app` alone on the whole cluster and returns seconds.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::UnknownApp`] if `app` is not registered.
    pub fn run_solo(&mut self, app: &str) -> Result<f64, TestbedError> {
        let hosts = self.cluster.hosts();
        self.run_with_bubbles(app, &vec![0.0; hosts])
    }

    /// Runs `app` spanning every host, with a bubble of pressure
    /// `pressures[h]` co-located on host `h`; returns seconds.
    ///
    /// This is the paper's profiling-run primitive (Fig. 3).
    ///
    /// # Errors
    ///
    /// Returns an error if `app` is unknown, the vector length differs
    /// from the host count, or a pressure is negative/non-finite.
    pub fn run_with_bubbles(&mut self, app: &str, pressures: &[f64]) -> Result<f64, TestbedError> {
        let deployment = Deployment {
            placements: vec![Placement::new(app, (0..self.cluster.hosts()).collect())],
            bubbles: pressures.to_vec(),
        };
        let runs = self.run_deployment(&deployment)?;
        Ok(runs[0].seconds)
    }

    /// Runs two applications fully co-located across the whole cluster
    /// (the §4.3 validation configuration) and returns their times.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::UnknownApp`] if either name is unknown.
    pub fn run_pair(&mut self, a: &str, b: &str) -> Result<(f64, f64), TestbedError> {
        let all: Vec<usize> = (0..self.cluster.hosts()).collect();
        let deployment =
            Deployment::of_placements(vec![Placement::new(a, all.clone()), Placement::new(b, all)]);
        let runs = self.run_deployment(&deployment)?;
        Ok((runs[0].seconds, runs[1].seconds))
    }

    /// Runs an arbitrary deployment; returns one [`AppRun`] per placement,
    /// in order. A one-element [`run_deployments`](Self::run_deployments),
    /// measured inline on the calling thread.
    ///
    /// Interference is *persistent*: every co-runner is assumed to remain
    /// active for the full duration of each measured application
    /// (co-runners restart until the measured app finishes), matching how
    /// profiling studies keep pressure constant.
    ///
    /// # Errors
    ///
    /// Returns a [`TestbedError`] describing the first malformed part of
    /// the deployment, or the fault injected into its run.
    pub fn run_deployment(&mut self, deployment: &Deployment) -> Result<Vec<AppRun>, TestbedError> {
        let mut runs = None;
        self.run_batch(std::slice::from_ref(deployment), 1, |r| runs = Some(r))?;
        Ok(runs.expect("a committed batch of one holds one run"))
    }

    /// Runs a batch of deployments as consecutive runs; returns one
    /// [`run_deployment`](Self::run_deployment) result per deployment, in
    /// order.
    ///
    /// A run is a pure function of the seed, its run number, its
    /// deployment and the fault plan, so the runs of a large batch are
    /// measured on every core (in contiguous chunks, the calling thread
    /// taking the first) and then committed in run order: run counter,
    /// stats, fault counters, trace events and telemetry end exactly as
    /// a one-at-a-time loop leaves them. The batch stops at the first
    /// error as that loop would; later runs are discarded uncommitted.
    ///
    /// # Errors
    ///
    /// The first deployment's error, as
    /// [`run_deployment`](Self::run_deployment) reports it.
    pub fn run_deployments(
        &mut self,
        deployments: &[Deployment],
    ) -> Result<Vec<Vec<AppRun>>, TestbedError> {
        let mut runs = Vec::with_capacity(deployments.len());
        let chunks = chunk_count(deployments.len(), cores());
        self.run_batch(deployments, chunks, |r| runs.push(r))?;
        Ok(runs)
    }

    /// The one deployment path: measures every deployment as a pure
    /// function of its run number, in `chunks` contiguous chunks, then
    /// commits each in order and hands its results to `sink`.
    fn run_batch(
        &mut self,
        deployments: &[Deployment],
        chunks: usize,
        mut sink: impl FnMut(Vec<AppRun>),
    ) -> Result<(), TestbedError> {
        let timed = self.tracer.wall_profiling_enabled();
        let Self {
            cluster,
            apps,
            bubble,
            noise,
            run_counter,
            stats,
            tracer,
            fault_plan,
        } = self;
        let rig = Rig {
            cluster,
            apps,
            bubble,
            noise,
            fault_plan: fault_plan.as_ref(),
        };
        let first = *run_counter + 1;
        let mut ledger = Ledger {
            run_counter,
            stats,
            tracer,
        };
        measure_then_commit(
            deployments.len(),
            chunks,
            |i| rig.measure(&deployments[i], first + i as u64, timed),
            |i, measured| {
                sink(ledger.commit(&deployments[i], measured)?);
                Ok(())
            },
        )
    }

    /// Slowdown of the low-pressure reporter bubble co-located with `app`,
    /// averaged over the hosts the application occupies — the measurement
    /// that yields the application's *bubble score* (§3.4).
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::UnknownApp`] if `app` is not registered.
    pub fn reporter_slowdown_with_app(&mut self, app: &str) -> Result<f64, TestbedError> {
        self.reporter_slowdown_with_apps(&[app])
    }

    /// Slowdown of the reporter bubble co-located with *several*
    /// applications simultaneously, averaged over the cluster's hosts —
    /// the measurement behind the §4.4 multi-app score-combination
    /// extension.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::UnknownApp`] if any name is unknown.
    pub fn reporter_slowdown_with_apps(&mut self, apps: &[&str]) -> Result<f64, TestbedError> {
        let mut specs = Vec::with_capacity(apps.len());
        for &app in apps {
            specs.push(
                self.apps
                    .get(app)
                    .ok_or_else(|| TestbedError::UnknownApp(app.to_owned()))?
                    .clone(),
            );
        }
        let hosts = self.cluster.hosts();
        let reporter = self.bubble.reporter();
        let run = self.next_run();
        let mut total = 0.0;
        for h in 0..hosts {
            let mut profiles = vec![reporter];
            for spec in &specs {
                profiles.push(spec.profile_on_host(h, hosts));
            }
            let sd = solve_contention(&self.cluster.node(h), &profiles)[0];
            total += sd
                * self.noise.lognormal(
                    self.cluster.measurement_sigma(),
                    stream::MEASUREMENT,
                    run,
                    h as u64,
                );
        }
        self.stats.record(RunKind::Reporter, 0.0);
        let slowdown = total / hosts as f64;
        if self.tracer.enabled() {
            self.tracer.event(
                "reporter",
                &[
                    ("with", Value::from(apps.join("+"))),
                    ("slowdown", Value::from(slowdown)),
                ],
            );
        }
        Ok(slowdown)
    }

    /// Slowdown of the reporter bubble co-located with a bubble of
    /// `pressure`; sweeping this over pressures yields the reporter
    /// sensitivity curve that bubble scores are inverted against.
    ///
    /// # Errors
    ///
    /// Returns [`TestbedError::BadPressure`] for negative or non-finite
    /// pressure.
    pub fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, TestbedError> {
        if !pressure.is_finite() || pressure < 0.0 {
            return Err(TestbedError::BadPressure(format!(
                "pressure must be non-negative and finite, got {pressure}"
            )));
        }
        let run = self.next_run();
        let reporter = self.bubble.reporter();
        let profiles = [reporter, self.bubble.profile_at(pressure)];
        let sd = solve_contention(&self.cluster.node(0), &profiles)[0];
        self.stats.record(RunKind::Reporter, 0.0);
        let slowdown = sd
            * self.noise.lognormal(
                self.cluster.measurement_sigma(),
                stream::MEASUREMENT,
                run,
                0,
            );
        if self.tracer.enabled() {
            self.tracer.event(
                "reporter",
                &[
                    ("pressure", Value::from(pressure)),
                    ("slowdown", Value::from(slowdown)),
                ],
            );
        }
        Ok(slowdown)
    }

    /// Run-counter value the *next* execution will be stamped with.
    ///
    /// Read-only: peeking never advances the counter, so a supervisor can
    /// poll upcoming fault windows without perturbing the deterministic
    /// noise history.
    pub fn peek_run(&self) -> u64 {
        self.run_counter + 1
    }

    /// Whether `host` is inside a crash window at run-counter value `run`.
    ///
    /// This is the *notification* form of the host-down fault: instead of
    /// learning about an outage only by deploying onto the dead host and
    /// receiving [`TestbedError::HostDown`], a control loop can ask ahead
    /// of time. Returns `false` when no fault plan is installed.
    pub fn host_down_at(&self, host: usize, run: u64) -> bool {
        self.fault_plan
            .as_ref()
            .is_some_and(|plan| plan.host_down(host, run))
    }

    /// All hosts that would be down if a run executed at counter value
    /// `run`, in ascending order. Empty when no fault plan is installed.
    pub fn downed_hosts_at(&self, run: u64) -> Vec<usize> {
        (0..self.cluster.hosts())
            .filter(|&h| self.host_down_at(h, run))
            .collect()
    }

    /// Takes a checkpoint of `app`'s state (instantaneous in the model:
    /// copy-on-write snapshots are cheap next to the restart itself).
    ///
    /// Returns the run-counter value the checkpoint is associated with
    /// (the next run that would execute). Fails with
    /// [`TestbedError::UnknownApp`] for unregistered applications,
    /// leaving stats untouched.
    pub fn checkpoint_app(&mut self, app: &str) -> Result<u64, TestbedError> {
        if !self.apps.contains_key(app) {
            return Err(TestbedError::UnknownApp(app.to_owned()));
        }
        let run = self.peek_run();
        self.stats.checkpoints += 1;
        if self.tracer.enabled() {
            self.tracer.event(
                "checkpoint",
                &[("app", Value::from(app)), ("run", Value::from(run))],
            );
        }
        Ok(run)
    }

    /// Resumes `app` from its checkpoint on a (presumably new) placement,
    /// charging `restart_cost_s` simulated seconds of restart overhead.
    ///
    /// The cost advances the tracer's simulated clock and accumulates in
    /// [`TestbedStats::restart_seconds`] — it is pure overhead, never
    /// counted as productive `simulated_seconds`. Validation failures
    /// ([`TestbedError::UnknownApp`], [`TestbedError::InvalidCost`])
    /// leave zero trace: no stats change, no clock advance, no event.
    pub fn resume_app(&mut self, app: &str, restart_cost_s: f64) -> Result<(), TestbedError> {
        if !self.apps.contains_key(app) {
            return Err(TestbedError::UnknownApp(app.to_owned()));
        }
        if !restart_cost_s.is_finite() || restart_cost_s < 0.0 {
            return Err(TestbedError::InvalidCost(format!(
                "cost must be finite and >= 0, got {restart_cost_s} for `{app}`"
            )));
        }
        self.stats.restarts += 1;
        self.stats.restart_seconds += restart_cost_s;
        self.tracer.advance_sim(restart_cost_s);
        self.tracer
            .telemetry_observe("testbed.restart_s", restart_cost_s);
        if self.tracer.enabled() {
            self.tracer.event(
                "resume",
                &[
                    ("app", Value::from(app)),
                    ("cost_s", Value::from(restart_cost_s)),
                ],
            );
        }
        Ok(())
    }

    /// Captures the complete persistent state of this testbed for a
    /// whole-world savestate.
    ///
    /// Everything that determines future behaviour is included: cluster
    /// geometry, registered applications, the run counter (which keys
    /// every noise draw), accounting stats and the fault plan. The
    /// attached [`Tracer`] is *not* part of the snapshot — it is
    /// process-local plumbing the resuming caller reattaches (its clock
    /// position travels separately as `icm_obs::TracerState`). The
    /// bubble generator is derived from the cluster and rebuilt on
    /// restore.
    pub fn snapshot(&self) -> TestbedSnapshot {
        TestbedSnapshot {
            cluster: self.cluster.clone(),
            apps: self.apps.clone(),
            noise: self.noise,
            run_counter: self.run_counter,
            stats: self.stats,
            fault_plan: self.fault_plan.clone(),
        }
    }

    /// Rebuilds a testbed from a snapshot. The tracer starts disabled;
    /// reattach one with [`SimTestbed::set_tracer`].
    pub fn restore(snapshot: TestbedSnapshot) -> Self {
        let bubble = Bubble::new(snapshot.cluster.node(0));
        Self {
            cluster: snapshot.cluster,
            apps: snapshot.apps,
            bubble,
            noise: snapshot.noise,
            run_counter: snapshot.run_counter,
            stats: snapshot.stats,
            tracer: Tracer::disabled(),
            fault_plan: snapshot.fault_plan,
        }
    }

    fn next_run(&mut self) -> u64 {
        self.run_counter += 1;
        self.run_counter
    }
}

/// Fewest runs worth a thread of their own: below this, spawning and
/// joining a thread costs more than the runs it takes off the caller.
const MIN_RUNS_PER_THREAD: usize = 16;

/// How many contiguous chunks a batch of `runs` runs is measured in on
/// `cores` cores: one per core, but never so many that a chunk gets
/// fewer than [`MIN_RUNS_PER_THREAD`] runs. One chunk is measured inline.
fn chunk_count(runs: usize, cores: usize) -> usize {
    cores.min(runs / MIN_RUNS_PER_THREAD).max(1)
}

/// The host's available parallelism, read once per process.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// Measures items `0..n` in `chunks` contiguous chunks and commits them
/// in index order, stopping at the first commit error.
///
/// The calling thread measures and commits the first chunk itself while
/// scoped workers measure the others; their results are committed after
/// it, chunk by chunk. After an error, the remaining measurements are
/// discarded. A worker's panic is resumed on the caller. One chunk runs
/// inline: no thread and no allocation.
fn measure_then_commit<M: Send, E>(
    n: usize,
    chunks: usize,
    measure: impl Fn(usize) -> M + Sync,
    mut commit: impl FnMut(usize, M) -> Result<(), E>,
) -> Result<(), E> {
    if chunks <= 1 {
        return (0..n).try_for_each(|i| commit(i, measure(i)));
    }
    let bounds = |c: usize| c * n / chunks..(c + 1) * n / chunks;
    let measure = &measure;
    let parent = cpu::current();
    thread::scope(|scope| {
        let workers: Vec<_> = (1..chunks)
            .map(|c| {
                scope.spawn(move || {
                    cpu::spread(parent, c - 1);
                    bounds(c).map(measure).collect::<Vec<M>>()
                })
            })
            .collect();
        // Let each worker run long enough to move off this CPU.
        for _ in &workers {
            thread::yield_now();
        }
        let mut outcome = bounds(0).try_for_each(|i| commit(i, measure(i)));
        for (c, worker) in (1..chunks).zip(workers) {
            let measured = worker
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            if outcome.is_ok() {
                outcome = bounds(c).zip(measured).try_for_each(|(i, m)| commit(i, m));
            }
        }
        outcome
    })
}

/// What measuring a run reads: the testbed without its run counter,
/// stats and tracer, shared by reference with every measuring thread.
#[derive(Clone, Copy)]
struct Rig<'a> {
    cluster: &'a ClusterSpec,
    apps: &'a BTreeMap<String, AppSpec>,
    bubble: &'a Bubble,
    noise: &'a Noise,
    fault_plan: Option<&'a FaultPlan>,
}

/// A run measured but not yet committed: what its commit writes to the
/// stats and the trace.
struct Execution {
    run: u64,
    kind: RunKind,
    /// Straggler inflation (`1.0` when the run did not straggle).
    straggle: f64,
    /// Simulated seconds of every placement, straggle included.
    simulated: f64,
    /// Straggled past the deadline: killed, measuring nothing, after
    /// burning this many simulated seconds.
    wasted: Option<f64>,
    /// One result per placement, with no trace event yet.
    results: Vec<AppRun>,
    /// What each placement's `app_run` and `fault` events report.
    details: Vec<AppDetail>,
    /// Wall time of the contention solve and of the execution, when the
    /// tracer profiles wall time.
    wall: Option<(Duration, Duration)>,
}

/// One placement's execution, as its trace events report it.
struct AppDetail {
    nodes: usize,
    mean_slowdown: f64,
    normalized: f64,
    /// The injected corruption factor, if the measurement was corrupted.
    corruption: Option<f64>,
}

impl Rig<'_> {
    /// Measures `deployment` as run number `run`: validation, fault
    /// draws, contention and execution. Pure: the same arguments give
    /// the same bytes on any thread.
    ///
    /// A validation error consumes no run number; [`TestbedError::HostDown`]
    /// and [`TestbedError::ProbeFailed`] are injected faults that do.
    fn measure(
        &self,
        deployment: &Deployment,
        run: u64,
        timed: bool,
    ) -> Result<Execution, TestbedError> {
        self.validate(deployment)?;
        let kind = RunKind::classify(deployment);
        let hosts = self.cluster.hosts();

        // Fault injection. With no plan installed this block is dead and
        // the fault-free path is byte-identical.
        let mut straggle = 1.0;
        let mut timed_out = false;
        if let Some(plan) = self.fault_plan {
            for placement in &deployment.placements {
                if let Some(&host) = placement.hosts.iter().find(|&&h| plan.host_down(h, run)) {
                    return Err(TestbedError::HostDown { host, run });
                }
            }
            if plan.probe_failure_prob > 0.0
                && self.noise.uniform(stream::FAULT_PROBE, run, 0) < plan.probe_failure_prob
            {
                return Err(TestbedError::ProbeFailed { run });
            }
            if plan.straggler_prob > 0.0
                && self.noise.uniform(stream::FAULT_STRAGGLER, run, 0) < plan.straggler_prob
            {
                straggle = 1.0
                    + plan.straggler_severity * self.noise.uniform(stream::FAULT_STRAGGLER, run, 1);
                timed_out = straggle >= plan.deadline_factor;
            }
        }
        let corruption = self
            .fault_plan
            .filter(|p| p.corruption_prob > 0.0)
            .map(|p| (p.corruption_prob, p.corruption_scale));

        // Per-host co-located memory profiles, and for each placement the
        // index of its profile within each host's list.
        let mut host_profiles: Vec<Vec<MemoryProfile>> = vec![Vec::new(); hosts];
        let mut host_members: Vec<Vec<usize>> = vec![Vec::new(); hosts]; // placement idx
        for (pi, placement) in deployment.placements.iter().enumerate() {
            let spec = &self.apps[&placement.app];
            for (local, &h) in placement.hosts.iter().enumerate() {
                host_profiles[h].push(spec.profile_on_host(local, placement.hosts.len()));
                host_members[h].push(pi);
            }
        }
        for (h, &pressure) in deployment.bubbles.iter().enumerate() {
            if pressure > 0.0 {
                host_profiles[h].push(self.bubble.profile_at(pressure));
                host_members[h].push(usize::MAX); // bubble marker
            }
        }
        // Unobserved background tenants (EC2-style).
        if let Some(bg) = self.cluster.background() {
            for h in 0..hosts {
                let present = self
                    .noise
                    .uniform(stream::BACKGROUND_PRESENCE, run, h as u64)
                    < bg.probability;
                if present {
                    let pressure = bg.max_pressure
                        * self
                            .noise
                            .uniform(stream::BACKGROUND_PRESSURE, run, h as u64);
                    if pressure > 0.0 {
                        host_profiles[h].push(self.bubble.profile_at(pressure));
                        host_members[h].push(usize::MAX - 1); // background marker
                    }
                }
            }
        }

        // Solve per-host contention once, then execute each placement.
        // The wall clock is read only for the profiling side channel.
        let started = timed.then(Instant::now);
        let host_slowdowns: Vec<Vec<f64>> = (0..hosts)
            .map(|h| solve_contention(&self.cluster.node(h), &host_profiles[h]))
            .collect();
        let solved = timed.then(Instant::now);
        let mut results = Vec::with_capacity(deployment.placements.len());
        let mut details = Vec::with_capacity(deployment.placements.len());
        let mut simulated = 0.0;
        for (pi, placement) in deployment.placements.iter().enumerate() {
            let spec = &self.apps[&placement.app];
            let total = placement.hosts.len();
            let workers = spec.worker_hosts(total);
            let mut slowdowns = Vec::with_capacity(workers.len());
            for &local in &workers {
                let h = placement.hosts[local];
                let slot = host_members[h]
                    .iter()
                    .position(|&m| m == pi)
                    .expect("placement registered on its own host");
                let mut sd = host_slowdowns[h][slot];
                // The M.Gems effect (§4.3): latency-sensitive blocked I/O
                // contends for Dom0 CPU with *any* co-tenant — a steady
                // component the profiling bubble also triggers (so the
                // model can learn it) — plus an unpredictable component
                // driven by the co-runner's CPU-load fluctuation, which a
                // static memory-pressure model cannot see.
                if spec.io_sensitivity() > 0.0 {
                    let has_cotenant = host_members[h].iter().any(|&m| m != pi);
                    if has_cotenant {
                        let vol = self.ambient_volatility(&deployment.placements, pi, h, run);
                        let z = self
                            .noise
                            .normal(stream::IO_VOLATILITY, run, (pi as u64) << 32 | h as u64)
                            .abs();
                        sd *= 1.0
                            + spec.io_sensitivity()
                                * (IO_COTENANT_BASE + IO_VOLATILITY_SCALE * vol * (0.3 + 0.7 * z));
                    }
                }
                slowdowns.push(sd);
            }
            // Decorrelate phase noise between placements in the same run.
            let app_run = run.wrapping_mul(251).wrapping_add(pi as u64);
            // Phase-modulated apps drift out of alignment differently
            // every run (data-dependent load imbalance) — the dynamic
            // behaviour a single static profile cannot capture (§4.4).
            let drifts: Vec<usize> = match spec.phase_modulation() {
                Some(m) => (0..slowdowns.len())
                    .map(|node| {
                        let u = self
                            .noise
                            .uniform(stream::PHASE_DRIFT, app_run, node as u64);
                        (u * (2 * m.period) as f64) as usize
                    })
                    .collect(),
                None => Vec::new(),
            };
            let normalized = execute(
                spec.pattern(),
                &slowdowns,
                spec.phase_modulation(),
                &drifts,
                self.noise,
                self.cluster.phase_sigma(),
                app_run,
            );
            let measurement = self.noise.lognormal(
                self.cluster.measurement_sigma(),
                stream::MEASUREMENT,
                run,
                pi as u64,
            );
            let mut seconds = spec.base_runtime_s() * normalized * measurement * straggle;
            let mut corrupted = None;
            if let Some((prob, scale)) = corruption {
                if !timed_out
                    && self
                        .noise
                        .uniform(stream::FAULT_CORRUPT, run, (pi as u64) * 2)
                        < prob
                {
                    let factor = 1.0
                        + scale
                            * self
                                .noise
                                .uniform(stream::FAULT_CORRUPT, run, (pi as u64) * 2 + 1);
                    seconds *= factor;
                    corrupted = Some(factor);
                }
            }
            simulated += seconds;
            // Phase/sync breakdown: `mean_slowdown` is the average
            // node-local contention, `normalized` what the sync pattern
            // amplified it into, so their ratio isolates the propagation
            // cost (§4.1).
            details.push(AppDetail {
                nodes: slowdowns.len(),
                mean_slowdown: slowdowns.iter().sum::<f64>() / slowdowns.len().max(1) as f64,
                normalized,
                corruption: corrupted,
            });
            results.push(AppRun {
                app: placement.app.clone(),
                seconds,
                trace_event: 0,
            });
        }
        let wall = started
            .zip(solved)
            .map(|(started, solved)| (solved - started, solved.elapsed()));
        // Killed at the deadline: the cluster burned
        // `nominal × deadline_factor` seconds and produced nothing.
        // (`simulated` carries the full straggle inflation, so the
        // nominal runtime is `simulated / straggle`.)
        let wasted = self
            .fault_plan
            .filter(|_| timed_out)
            .map(|p| simulated / straggle * p.deadline_factor);
        Ok(Execution {
            run,
            kind,
            straggle,
            simulated,
            wasted,
            results,
            details,
            wall,
        })
    }

    /// Maximum CPU volatility among the *other* tenants sharing host `h`
    /// with placement `pi` (background tenants count at a fixed level).
    fn ambient_volatility(&self, placements: &[Placement], pi: usize, h: usize, run: u64) -> f64 {
        let mut vol: f64 = 0.0;
        for (qi, other) in placements.iter().enumerate() {
            if qi != pi && other.hosts.contains(&h) {
                vol = vol.max(self.apps[&other.app].cpu_volatility());
            }
        }
        if let Some(bg) = self.cluster.background() {
            let present = self
                .noise
                .uniform(stream::BACKGROUND_PRESENCE, run, h as u64)
                < bg.probability;
            if present {
                vol = vol.max(BACKGROUND_VOLATILITY);
            }
        }
        vol
    }

    fn validate(&self, deployment: &Deployment) -> Result<(), TestbedError> {
        let hosts = self.cluster.hosts();
        if !deployment.bubbles.is_empty() && deployment.bubbles.len() != hosts {
            return Err(TestbedError::BadVectorLength {
                expected: hosts,
                got: deployment.bubbles.len(),
            });
        }
        for &p in &deployment.bubbles {
            if !p.is_finite() || p < 0.0 {
                return Err(TestbedError::BadPressure(format!(
                    "pressure must be non-negative and finite, got {p}"
                )));
            }
        }
        for placement in &deployment.placements {
            if !self.apps.contains_key(&placement.app) {
                return Err(TestbedError::UnknownApp(placement.app.clone()));
            }
            if placement.hosts.is_empty() {
                return Err(TestbedError::EmptyPlacement {
                    app: placement.app.clone(),
                });
            }
            let mut seen = vec![false; hosts];
            for &h in &placement.hosts {
                if h >= hosts {
                    return Err(TestbedError::HostOutOfRange { host: h, hosts });
                }
                if seen[h] {
                    return Err(TestbedError::DuplicateHost {
                        app: placement.app.clone(),
                        host: h,
                    });
                }
                seen[h] = true;
            }
        }
        Ok(())
    }
}

/// What committing a run writes: the testbed's run counter, stats and
/// trace.
struct Ledger<'a> {
    run_counter: &'a mut u64,
    stats: &'a mut TestbedStats,
    tracer: &'a Tracer,
}

impl Ledger<'_> {
    /// Commits one measured run of `deployment`, in run order.
    ///
    /// A validation error leaves *no* trace: the run counter, the stats
    /// (including the per-kind counters) and the event stream all
    /// describe completed runs only. An injected failure consumes its
    /// run number (a retry sees fresh noise, as on real hardware) and
    /// counts in its fault counter, but never in `stats.runs` or the
    /// per-kind counters, which keep describing completed measurements.
    fn commit(
        &mut self,
        deployment: &Deployment,
        measured: Result<Execution, TestbedError>,
    ) -> Result<Vec<AppRun>, TestbedError> {
        let tracer = self.tracer;
        let Execution {
            run,
            kind,
            straggle,
            simulated,
            wasted,
            mut results,
            details,
            wall,
        } = match measured {
            Ok(execution) => execution,
            Err(err) => {
                self.refuse(&err);
                return Err(err);
            }
        };
        *self.run_counter = run;
        let timed_out = wasted.is_some();

        // A timed-out run is killed at the deadline: it emits no run
        // span and no measurements, only a `fault` event after the
        // wasted cluster time has been charged below.
        let span = if tracer.enabled() && !timed_out {
            let apps = deployment
                .placements
                .iter()
                .map(|p| p.app.as_str())
                .collect::<Vec<_>>()
                .join("+");
            let span = tracer.span(
                "run",
                &[
                    ("kind", Value::from(kind.as_str())),
                    ("run", Value::from(run)),
                    ("apps", Value::from(apps)),
                    ("placements", Value::from(deployment.placements.len())),
                ],
            );
            for (h, &p) in deployment.bubbles.iter().enumerate() {
                if p > 0.0 {
                    tracer.event(
                        "host_bubble",
                        &[("host", Value::from(h)), ("pressure", Value::from(p))],
                    );
                }
            }
            Some(span)
        } else {
            None
        };
        if straggle > 1.0 && !timed_out {
            // A straggler that stays under the deadline completes with
            // an inflated (but real) measurement.
            self.stats.injected_stragglers += 1;
            if tracer.enabled() {
                tracer.event(
                    "fault",
                    &[
                        ("kind", Value::from("straggler")),
                        ("run", Value::from(run)),
                        ("factor", Value::from(straggle)),
                    ],
                );
            }
        }
        // The wall side channel only; no event.
        if let Some((contention, execution)) = wall {
            tracer.record_wall("sim.contention", contention);
            tracer.record_wall("sim.execute", execution);
        }
        for (result, detail) in results.iter_mut().zip(&details) {
            if let Some(factor) = detail.corruption {
                self.stats.injected_corruptions += 1;
                if tracer.enabled() {
                    tracer.event(
                        "fault",
                        &[
                            ("kind", Value::from("corruption")),
                            ("run", Value::from(run)),
                            ("app", Value::from(result.app.as_str())),
                            ("factor", Value::from(factor)),
                        ],
                    );
                }
            }
            if tracer.enabled() && !timed_out {
                result.trace_event = tracer.event(
                    "app_run",
                    &[
                        ("app", Value::from(result.app.as_str())),
                        ("nodes", Value::from(detail.nodes)),
                        ("mean_slowdown", Value::from(detail.mean_slowdown)),
                        ("normalized", Value::from(detail.normalized)),
                        (
                            "sync_factor",
                            Value::from(detail.normalized / detail.mean_slowdown),
                        ),
                        ("seconds", Value::from(result.seconds)),
                    ],
                );
            }
        }
        if let Some(wasted) = wasted {
            self.stats.injected_timeouts += 1;
            self.stats.wasted_seconds += wasted;
            tracer.advance_sim(wasted);
            if tracer.enabled() {
                tracer.event(
                    "fault",
                    &[
                        ("kind", Value::from("timeout")),
                        ("run", Value::from(run)),
                        ("factor", Value::from(straggle)),
                        ("wasted_s", Value::from(wasted)),
                    ],
                );
            }
            return Err(TestbedError::ProbeTimeout { run });
        }
        self.stats.record(kind, simulated);
        tracer.advance_sim(simulated);
        // Non-event path: run durations flow into the rollup windows even
        // when raw tracing is off, without adding any event to the stream.
        tracer.telemetry_observe("testbed.run_s", simulated);
        if let Some(span) = span {
            span.end_with(&[("simulated_s", Value::from(simulated))]);
        }
        Ok(results)
    }

    /// Commits a run that measured nothing: an injected host-down or
    /// probe failure consumes its run number and counts; a validation
    /// error leaves no trace.
    fn refuse(&mut self, err: &TestbedError) {
        let (run, host) = match *err {
            TestbedError::HostDown { host, run } => {
                self.stats.injected_host_down += 1;
                (run, Some(host))
            }
            TestbedError::ProbeFailed { run } => {
                self.stats.injected_probe_failures += 1;
                (run, None)
            }
            _ => return,
        };
        *self.run_counter = run;
        if !self.tracer.enabled() {
            return;
        }
        match host {
            Some(host) => self.tracer.event(
                "fault",
                &[
                    ("kind", Value::from("host_down")),
                    ("run", Value::from(run)),
                    ("host", Value::from(host)),
                ],
            ),
            None => self.tracer.event(
                "fault",
                &[
                    ("kind", Value::from("probe_failed")),
                    ("run", Value::from(run)),
                ],
            ),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::CrashWindow;
    use crate::sync::SyncPattern;
    use crate::MasterBehavior;

    fn heavy_profile() -> MemoryProfile {
        MemoryProfile::builder()
            .working_set_mb(25.0)
            .bandwidth_gbps(10.0)
            .miss_bandwidth_gbps(25.0)
            .cache_sensitivity(1.0)
            .bandwidth_sensitivity(0.8)
            .build()
            .expect("valid")
    }

    fn testbed() -> SimTestbed {
        let mut tb = SimTestbed::new(ClusterSpec::private8(), 7);
        tb.register_app(
            AppSpec::builder("coupled")
                .base_runtime_s(100.0)
                .worker_profile(heavy_profile())
                .pattern(SyncPattern::high_propagation(32))
                .build()
                .expect("valid"),
        );
        tb.register_app(
            AppSpec::builder("loose")
                .base_runtime_s(100.0)
                .worker_profile(heavy_profile())
                .pattern(SyncPattern::proportional(32))
                .build()
                .expect("valid"),
        );
        tb.register_app(
            AppSpec::builder("framework")
                .base_runtime_s(100.0)
                .worker_profile(heavy_profile())
                .pattern(SyncPattern::task_queue(96, 4))
                .master(MasterBehavior::Coordinator { demand_frac: 0.2 })
                .cpu_volatility(0.6)
                .build()
                .expect("valid"),
        );
        tb
    }

    #[test]
    fn solo_run_near_base_runtime() {
        let mut tb = testbed();
        let t = tb.run_solo("coupled").expect("runs");
        assert!((t - 100.0).abs() / 100.0 < 0.1, "got {t}");
    }

    #[test]
    fn unknown_app_is_an_error() {
        let mut tb = testbed();
        assert_eq!(
            tb.run_solo("nope").unwrap_err(),
            TestbedError::UnknownApp("nope".into())
        );
    }

    #[test]
    fn bubbles_slow_execution_monotonically() {
        let mut tb = testbed();
        let mut last = 0.0;
        for level in 0..=8 {
            let t = tb
                .run_with_bubbles("coupled", &[f64::from(level); 8])
                .expect("runs");
            assert!(t > last * 0.97, "level {level}: {t} vs {last}");
            last = t;
        }
        let solo = tb.run_solo("coupled").expect("runs");
        assert!(
            last / solo > 1.3,
            "full pressure must hurt: {}",
            last / solo
        );
    }

    #[test]
    fn coupled_app_propagates_single_node_interference() {
        let mut tb = testbed();
        let solo = tb.run_solo("coupled").expect("runs");
        let mut one = vec![0.0; 8];
        one[0] = 8.0;
        let t1 = tb.run_with_bubbles("coupled", &one).expect("runs");
        let t8 = tb.run_with_bubbles("coupled", &[8.0; 8]).expect("runs");
        let frac = (t1 - solo) / (t8 - solo);
        assert!(
            frac > 0.6,
            "one interfering node must cause most of the full-pressure delay, got {frac}"
        );
    }

    #[test]
    fn loose_app_degrades_proportionally() {
        let mut tb = testbed();
        let solo = tb.run_solo("loose").expect("runs");
        let mut one = vec![0.0; 8];
        one[0] = 8.0;
        let t1 = tb.run_with_bubbles("loose", &one).expect("runs");
        let t8 = tb.run_with_bubbles("loose", &[8.0; 8]).expect("runs");
        let frac = (t1 - solo) / (t8 - solo);
        assert!(
            (frac - 1.0 / 8.0).abs() < 0.1,
            "one of eight nodes ≈ 1/8 of the delay, got {frac}"
        );
    }

    #[test]
    fn framework_resists_single_node_interference() {
        let mut tb = testbed();
        let solo = tb.run_solo("framework").expect("runs");
        let mut one = vec![0.0; 8];
        one[3] = 8.0;
        let t1 = tb.run_with_bubbles("framework", &one).expect("runs");
        let t8 = tb.run_with_bubbles("framework", &[8.0; 8]).expect("runs");
        let frac = (t1 - solo) / (t8 - solo);
        assert!(
            frac < 0.30,
            "dynamic task routing should absorb one slow node, got {frac}"
        );
    }

    #[test]
    fn repeated_measurements_differ_by_noise_only() {
        let mut tb = testbed();
        let a = tb.run_solo("coupled").expect("runs");
        let b = tb.run_solo("coupled").expect("runs");
        assert_ne!(a, b, "distinct runs see distinct noise");
        assert!((a - b).abs() / a < 0.1, "but only noise-sized differences");
    }

    #[test]
    fn same_seed_reproduces_the_full_history() {
        let mut t1 = testbed();
        let mut t2 = testbed();
        for _ in 0..3 {
            assert_eq!(
                t1.run_solo("coupled").expect("runs"),
                t2.run_solo("coupled").expect("runs")
            );
        }
    }

    #[test]
    fn pair_run_slows_both_apps() {
        let mut tb = testbed();
        let solo_a = tb.run_solo("coupled").expect("runs");
        let solo_b = tb.run_solo("loose").expect("runs");
        let (a, b) = tb.run_pair("coupled", "loose").expect("runs");
        assert!(a > solo_a, "co-location must slow `coupled`");
        assert!(b > solo_b, "co-location must slow `loose`");
    }

    #[test]
    fn deployment_validation_catches_errors() {
        let mut tb = testbed();
        let bad_host = Deployment::of_placements(vec![Placement::new("coupled", vec![9])]);
        assert!(matches!(
            tb.run_deployment(&bad_host).unwrap_err(),
            TestbedError::HostOutOfRange { host: 9, hosts: 8 }
        ));
        let dup = Deployment::of_placements(vec![Placement::new("coupled", vec![1, 1])]);
        assert!(matches!(
            tb.run_deployment(&dup).unwrap_err(),
            TestbedError::DuplicateHost { host: 1, .. }
        ));
        let empty = Deployment::of_placements(vec![Placement::new("coupled", vec![])]);
        assert!(matches!(
            tb.run_deployment(&empty).unwrap_err(),
            TestbedError::EmptyPlacement { .. }
        ));
        let short_bubbles = Deployment {
            placements: vec![Placement::new("coupled", vec![0])],
            bubbles: vec![1.0; 3],
        };
        assert!(matches!(
            tb.run_deployment(&short_bubbles).unwrap_err(),
            TestbedError::BadVectorLength {
                expected: 8,
                got: 3
            }
        ));
        let nan_bubble = Deployment {
            placements: vec![Placement::new("coupled", vec![0])],
            bubbles: vec![f64::NAN; 8],
        };
        assert!(matches!(
            tb.run_deployment(&nan_bubble).unwrap_err(),
            TestbedError::BadPressure(_)
        ));
    }

    #[test]
    fn reporter_registers_app_interference() {
        let mut tb = testbed();
        let with_heavy = tb.reporter_slowdown_with_app("coupled").expect("runs");
        assert!(with_heavy > 1.0, "a heavy app must slow the reporter");
    }

    #[test]
    fn reporter_curve_monotone_in_bubble_pressure() {
        let mut tb = testbed();
        let mut last = 0.0;
        for level in 0..=8 {
            let sd = tb
                .reporter_slowdown_with_bubble(f64::from(level))
                .expect("valid pressure");
            assert!(sd > last * 0.98, "level {level}");
            last = sd;
        }
    }

    #[test]
    fn reporter_rejects_bad_pressure() {
        let mut tb = testbed();
        assert!(tb.reporter_slowdown_with_bubble(-1.0).is_err());
        assert!(tb.reporter_slowdown_with_bubble(f64::NAN).is_err());
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut tb = testbed();
        assert_eq!(tb.stats().runs, 0);
        let _ = tb.run_solo("coupled");
        let _ = tb.run_solo("loose");
        assert_eq!(tb.stats().runs, 2);
        assert!(tb.stats().simulated_seconds > 0.0);
        tb.reset_stats();
        assert_eq!(tb.stats(), TestbedStats::default());
    }

    #[test]
    fn stats_classify_runs_by_kind() {
        let mut tb = testbed();
        let _ = tb.run_solo("coupled").expect("runs");
        let _ = tb.run_with_bubbles("coupled", &[4.0; 8]).expect("runs");
        let _ = tb.run_pair("coupled", "loose").expect("runs");
        let _ = tb.reporter_slowdown_with_bubble(2.0).expect("runs");
        let _ = tb.reporter_slowdown_with_app("coupled").expect("runs");
        let mixed = Deployment::of_placements(vec![
            Placement::new("coupled", vec![0, 1, 2, 3]),
            Placement::new("loose", vec![4, 5, 6, 7]),
        ]);
        let _ = tb.run_deployment(&mixed).expect("runs");
        let stats = tb.stats();
        assert_eq!(stats.solo_runs, 1);
        assert_eq!(stats.bubble_runs, 1);
        assert_eq!(stats.pair_runs, 1);
        assert_eq!(stats.reporter_runs, 2);
        assert_eq!(stats.deployment_runs, 1);
        assert_eq!(
            stats.runs,
            stats.solo_runs
                + stats.bubble_runs
                + stats.pair_runs
                + stats.reporter_runs
                + stats.deployment_runs,
            "per-kind counters must partition the total"
        );
        assert_eq!(stats.kind_count(RunKind::Pair), 1);
    }

    #[test]
    fn stats_json_round_trips_and_accepts_legacy_shape() {
        let mut tb = testbed();
        let _ = tb.run_solo("coupled");
        let stats = tb.stats();
        let back: TestbedStats =
            icm_json::from_str(&icm_json::to_string(&stats)).expect("round-trips");
        assert_eq!(back, stats);
        // Pre-observability snapshots lack the per-kind counters.
        let legacy: TestbedStats =
            icm_json::from_str(r#"{"runs":3,"simulated_seconds":120.5}"#).expect("parses");
        assert_eq!(legacy.runs, 3);
        assert_eq!(legacy.solo_runs, 0);
    }

    #[test]
    fn failed_deployment_leaves_no_trace_in_accounting_or_noise() {
        // Regression test: a deployment that errors mid-way must count
        // nothing — stats, per-kind counters, the trace, and the noise
        // history of *subsequent* runs must all be as if the failed
        // attempt never happened.
        let mut with_failure = testbed();
        let (tracer, recorder) = Tracer::recording(64);
        with_failure.set_tracer(tracer);
        let before = with_failure.stats();
        let bad = Deployment {
            placements: vec![Placement::new("coupled", vec![0])],
            bubbles: vec![f64::NAN; 8],
        };
        assert!(with_failure.run_deployment(&bad).is_err());
        assert!(with_failure.run_solo("ghost").is_err());
        assert_eq!(with_failure.stats(), before, "failed runs count nothing");
        assert!(recorder.is_empty(), "failed runs emit no events");

        let mut clean = testbed();
        for _ in 0..3 {
            assert_eq!(
                with_failure.run_solo("coupled").expect("runs"),
                clean.run_solo("coupled").expect("runs"),
                "failed attempts must not perturb later noise"
            );
        }
        assert_eq!(with_failure.stats(), clean.stats());
    }

    #[test]
    fn traced_run_emits_span_and_app_events() {
        let mut tb = testbed();
        let (tracer, recorder) = Tracer::recording(256);
        tb.set_tracer(tracer);
        let seconds = tb.run_with_bubbles("coupled", &[2.0; 8]).expect("runs");
        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names[0], "run.begin");
        assert_eq!(names.iter().filter(|n| **n == "host_bubble").count(), 8);
        assert_eq!(*names.last().expect("events"), "run.end");
        let begin = &events[0];
        assert_eq!(begin.str("kind"), Some("bubble"));
        assert_eq!(begin.str("apps"), Some("coupled"));
        let app_run = events
            .iter()
            .find(|e| e.name == "app_run")
            .expect("app_run event");
        assert_eq!(app_run.num("seconds"), Some(seconds));
        assert!(app_run.num("sync_factor").expect("field") >= 1.0);
        let end = events.last().expect("events");
        assert_eq!(end.num("simulated_s"), Some(seconds));
        assert_eq!(
            tb.tracer().now().sim_s,
            seconds,
            "tracer clock advances by simulated seconds"
        );
    }

    #[test]
    fn tracing_does_not_change_measurements() {
        let mut plain = testbed();
        let mut traced = testbed();
        let (tracer, _recorder) = Tracer::recording(1024);
        traced.set_tracer(tracer);
        for _ in 0..3 {
            assert_eq!(
                plain.run_solo("coupled").expect("runs"),
                traced.run_solo("coupled").expect("runs")
            );
        }
        assert_eq!(plain.stats(), traced.stats());
    }

    #[test]
    fn background_tenants_add_unexplained_variance() {
        let quiet = ClusterSpec::private8();
        let noisy = quiet
            .clone()
            .with_background(Some(crate::BackgroundTenants::new(0.8, 6.0)));
        let spread = |cluster: ClusterSpec| {
            let mut tb = SimTestbed::new(cluster, 11);
            tb.register_app(
                AppSpec::builder("app")
                    .base_runtime_s(100.0)
                    .worker_profile(heavy_profile())
                    .pattern(SyncPattern::high_propagation(32))
                    .build()
                    .expect("valid"),
            );
            let times: Vec<f64> = (0..12).map(|_| tb.run_solo("app").expect("runs")).collect();
            let mean = times.iter().sum::<f64>() / times.len() as f64;
            let var = times.iter().map(|t| (t - mean).powi(2)).sum::<f64>() / times.len() as f64;
            (mean, var.sqrt() / mean)
        };
        let (quiet_mean, quiet_cv) = spread(quiet);
        let (noisy_mean, noisy_cv) = spread(noisy);
        assert!(
            noisy_mean > quiet_mean,
            "tenants must slow things on average"
        );
        assert!(noisy_cv > quiet_cv, "and make timings less predictable");
    }

    #[test]
    fn io_sensitive_app_suffers_extra_from_volatile_corunner() {
        let mut tb = testbed();
        tb.register_app(
            AppSpec::builder("gems-like")
                .base_runtime_s(100.0)
                .worker_profile(heavy_profile())
                .pattern(SyncPattern::proportional(32))
                .io_sensitivity(0.5)
                .build()
                .expect("valid"),
        );
        // Same memory pressure, but one co-runner has volatile CPU load.
        let avg = |tb: &mut SimTestbed, corunner: &str| {
            let mut total = 0.0;
            for _ in 0..8 {
                let (t, _) = tb.run_pair("gems-like", corunner).expect("runs");
                total += t;
            }
            total / 8.0
        };
        let with_steady = avg(&mut tb, "loose");
        let with_volatile = avg(&mut tb, "framework");
        assert!(
            with_volatile > with_steady * 1.02,
            "volatile co-runner must hurt the I/O-sensitive app more: {with_volatile} vs {with_steady}"
        );
    }

    #[test]
    fn inactive_fault_plan_changes_nothing() {
        // Installing a plan whose channels are all off must leave
        // measurements, stats and traces bit-for-bit identical to a
        // testbed with no plan at all.
        let mut plain = testbed();
        let mut planned = testbed();
        planned.set_fault_plan(Some(FaultPlan::default()));
        let (plain_tracer, plain_rec) = Tracer::recording(256);
        let (planned_tracer, planned_rec) = Tracer::recording(256);
        plain.set_tracer(plain_tracer);
        planned.set_tracer(planned_tracer);
        for _ in 0..3 {
            assert_eq!(
                plain.run_with_bubbles("coupled", &[2.0; 8]).expect("runs"),
                planned
                    .run_with_bubbles("coupled", &[2.0; 8])
                    .expect("runs"),
            );
        }
        assert_eq!(plain.stats(), planned.stats());
        assert_eq!(plain_rec.events(), planned_rec.events());
    }

    #[test]
    fn probe_failures_are_deterministic_and_counted() {
        let run_history = |prob: f64| {
            let mut tb = testbed();
            tb.set_fault_plan(Some(FaultPlan::probe_failures(prob)));
            let outcomes: Vec<Result<f64, TestbedError>> =
                (0..40).map(|_| tb.run_solo("coupled")).collect();
            (outcomes, tb.stats())
        };
        let (a, stats_a) = run_history(0.3);
        let (b, stats_b) = run_history(0.3);
        assert_eq!(a, b, "same seed, same injected failures");
        assert_eq!(stats_a, stats_b);
        let failures = a.iter().filter(|r| r.is_err()).count() as u64;
        assert!(failures > 0, "30% over 40 runs must fail at least once");
        assert_eq!(stats_a.injected_probe_failures, failures);
        assert_eq!(
            stats_a.runs,
            40 - failures,
            "failed probes never count as completed runs"
        );
        for outcome in a.iter().filter(|r| r.is_err()) {
            assert!(matches!(outcome, Err(TestbedError::ProbeFailed { .. })));
        }
    }

    #[test]
    fn failed_injections_do_not_perturb_surviving_runs() {
        // The runs that complete under a fault plan must measure exactly
        // what the same run-counter values measure fault-free: faults
        // remove measurements, they never alter them.
        let mut faulty = testbed();
        faulty.set_fault_plan(Some(FaultPlan::probe_failures(0.3)));
        let mut clean = testbed();
        for _ in 0..20 {
            let expected = clean.run_solo("coupled").expect("runs");
            if let Ok(measured) = faulty.run_solo("coupled") {
                assert_eq!(measured, expected);
            }
        }
    }

    #[test]
    fn crash_window_rejects_only_covered_runs() {
        let mut tb = testbed();
        tb.set_fault_plan(Some(FaultPlan {
            crash_windows: vec![CrashWindow {
                host: 0,
                from_run: 2,
                until_run: 3,
            }],
            ..FaultPlan::default()
        }));
        assert!(tb.run_solo("coupled").is_ok()); // run 1
        let err = tb.run_solo("coupled").unwrap_err(); // run 2
        assert_eq!(err, TestbedError::HostDown { host: 0, run: 2 });
        assert!(tb.run_solo("coupled").is_err()); // run 3
        assert!(tb.run_solo("coupled").is_ok()); // run 4
        assert_eq!(tb.stats().injected_host_down, 2);
        assert_eq!(tb.stats().runs, 2);
    }

    #[test]
    fn stragglers_inflate_and_timeouts_waste() {
        let always_straggle = |severity: f64, deadline: f64| {
            let mut tb = testbed();
            tb.set_fault_plan(Some(FaultPlan {
                straggler_prob: 1.0,
                straggler_severity: severity,
                deadline_factor: deadline,
                ..FaultPlan::default()
            }));
            (tb.run_solo("coupled"), tb.stats())
        };
        // Mild straggling under a generous deadline completes, inflated.
        let (ok, stats) = always_straggle(0.5, 10.0);
        let inflated = ok.expect("completes");
        let mut clean = testbed();
        let baseline = clean.run_solo("coupled").expect("runs");
        assert!(inflated > baseline, "straggler must inflate the runtime");
        assert_eq!(stats.injected_stragglers, 1);
        assert_eq!(stats.injected_timeouts, 0);
        assert_eq!(stats.wasted_seconds, 0.0);
        // A deadline below the inflation kills the run.
        let (killed, stats) = always_straggle(0.5, 1.0);
        assert!(matches!(killed, Err(TestbedError::ProbeTimeout { .. })));
        assert_eq!(stats.injected_timeouts, 1);
        assert_eq!(stats.runs, 0);
        assert!(
            (stats.wasted_seconds - baseline).abs() / baseline < 1e-9,
            "killed at deadline 1.0 wastes exactly the nominal runtime: {} vs {baseline}",
            stats.wasted_seconds
        );
        assert_eq!(stats.simulated_seconds, 0.0);
    }

    #[test]
    fn corruption_contaminates_measurements_visibly() {
        let mut clean = testbed();
        let mut dirty = testbed();
        dirty.set_fault_plan(Some(FaultPlan {
            corruption_prob: 1.0,
            corruption_scale: 1.0,
            ..FaultPlan::default()
        }));
        for _ in 0..5 {
            let truth = clean.run_solo("coupled").expect("runs");
            let corrupted = dirty.run_solo("coupled").expect("runs");
            assert!(
                corrupted > truth,
                "every measurement is inflated: {corrupted} vs {truth}"
            );
        }
        assert_eq!(dirty.stats().injected_corruptions, 5);
        assert_eq!(dirty.stats().runs, 5, "corrupted runs still complete");
    }

    #[test]
    fn fault_events_are_traced_per_injection() {
        let mut tb = testbed();
        tb.set_fault_plan(Some(FaultPlan::probe_failures(1.0)));
        let (tracer, recorder) = Tracer::recording(64);
        tb.set_tracer(tracer);
        assert!(tb.run_solo("coupled").is_err());
        let events = recorder.events();
        assert_eq!(events.len(), 1, "a failed probe emits only its fault event");
        assert_eq!(events[0].name, "fault");
        assert_eq!(events[0].str("kind"), Some("probe_failed"));
        assert_eq!(events[0].num("run"), Some(1.0));
    }

    #[test]
    fn fault_error_messages_are_informative() {
        let failed = TestbedError::ProbeFailed { run: 17 };
        assert!(failed.to_string().contains("17"));
        let timeout = TestbedError::ProbeTimeout { run: 4 };
        assert!(timeout.to_string().contains("deadline"));
        let down = TestbedError::HostDown { host: 3, run: 9 };
        assert!(down.to_string().contains("host 3"));
        assert!(down.to_string().contains('9'));
    }

    #[test]
    fn error_messages_are_informative() {
        let err = TestbedError::UnknownApp("ghost".into());
        assert!(err.to_string().contains("ghost"));
        let err = TestbedError::BadVectorLength {
            expected: 8,
            got: 2,
        };
        assert!(err.to_string().contains('8'));
    }

    #[test]
    fn every_error_variant_has_a_distinct_display() {
        // Exhaustive: one instance of every variant, so a new variant
        // without a sensible message fails here, not in a user's log.
        let variants = [
            TestbedError::UnknownApp("ghost".into()),
            TestbedError::HostOutOfRange { host: 9, hosts: 8 },
            TestbedError::BadVectorLength {
                expected: 8,
                got: 2,
            },
            TestbedError::DuplicateHost {
                app: "M.milc".into(),
                host: 3,
            },
            TestbedError::EmptyPlacement { app: "H.KM".into() },
            TestbedError::BadPressure("NaN".into()),
            TestbedError::ProbeFailed { run: 17 },
            TestbedError::ProbeTimeout { run: 4 },
            TestbedError::HostDown { host: 3, run: 9 },
            TestbedError::InvalidCost("NaN".into()),
        ];
        let expected = [
            "unknown application `ghost`",
            "host 9 out of range for a 8-host cluster",
            "per-host vector must have length 8, got 2",
            "placement of `M.milc` lists host 3 twice",
            "placement of `H.KM` has no hosts",
            "invalid bubble pressure: NaN",
            "injected transient probe failure on run 17",
            "run 4 straggled past its kill deadline and was terminated",
            "host 3 is down (crash window) on run 9",
            "invalid restart cost: NaN",
        ];
        let rendered: Vec<String> = variants.iter().map(TestbedError::to_string).collect();
        assert_eq!(rendered, expected);
        // Every message is unique, and every variant survives a
        // clone/compare round trip (errors cross thread and retry-loop
        // boundaries by value).
        let unique: std::collections::BTreeSet<&str> =
            rendered.iter().map(String::as_str).collect();
        assert_eq!(unique.len(), variants.len());
        for v in &variants {
            assert_eq!(v, &v.clone());
        }
    }

    #[test]
    fn host_down_peek_matches_deployment_rejections_without_consuming_runs() {
        let mut tb = testbed();
        tb.set_fault_plan(Some(FaultPlan {
            crash_windows: vec![CrashWindow {
                host: 2,
                from_run: 2,
                until_run: 3,
            }],
            ..FaultPlan::default()
        }));
        // Peeking is pure: ask as often as you like, nothing moves.
        assert_eq!(tb.peek_run(), 1);
        assert!(!tb.host_down_at(2, 1));
        assert!(tb.host_down_at(2, 2));
        assert!(tb.downed_hosts_at(1).is_empty());
        assert_eq!(tb.downed_hosts_at(2), vec![2]);
        assert_eq!(tb.downed_hosts_at(3), vec![2]);
        assert_eq!(tb.peek_run(), 1);
        // The peek predicts exactly what a deployment would hit: run 1 is
        // fine, run 2 lands in the window and is rejected.
        assert!(tb.run_solo("coupled").is_ok());
        assert_eq!(tb.peek_run(), 2);
        let deployment = Deployment::of_placements(vec![Placement::new("coupled", vec![2, 3])]);
        let err = tb.run_deployment(&deployment).unwrap_err();
        assert_eq!(err, TestbedError::HostDown { host: 2, run: 2 });
    }

    #[test]
    fn host_down_peek_is_false_without_a_fault_plan() {
        let tb = testbed();
        assert!(!tb.host_down_at(0, 1));
        assert!(tb.downed_hosts_at(999).is_empty());
    }

    #[test]
    fn checkpoint_resume_charges_restart_cost_and_traces() {
        let (tracer, recorder) = Tracer::recording(64);
        let mut tb = testbed();
        tb.set_tracer(tracer);
        let run = tb.checkpoint_app("coupled").expect("registered app");
        assert_eq!(run, 1);
        tb.resume_app("coupled", 12.5).expect("valid cost");
        tb.resume_app("coupled", 0.0).expect("zero cost is legal");
        let stats = tb.stats();
        assert_eq!(stats.checkpoints, 1);
        assert_eq!(stats.restarts, 2);
        assert!((stats.restart_seconds - 12.5).abs() < 1e-12);
        // Restart cost is overhead, not productive time, and consumes no
        // run-counter values.
        assert_eq!(stats.runs, 0);
        assert_eq!(stats.simulated_seconds, 0.0);
        assert_eq!(tb.peek_run(), 1);
        let events = recorder.events();
        let names: Vec<&str> = events.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["checkpoint", "resume", "resume"]);
        assert_eq!(events[0].str("app"), Some("coupled"));
        assert_eq!(events[0].num("run"), Some(1.0));
        assert_eq!(events[1].num("cost_s"), Some(12.5));
        // The simulated clock advanced by exactly the restart cost.
        assert!((events[2].sim_s - 12.5).abs() < 1e-12);
    }

    #[test]
    fn checkpoint_resume_validation_failures_leave_zero_trace() {
        let mut tb = testbed();
        let before = tb.stats();
        assert_eq!(
            tb.checkpoint_app("ghost").unwrap_err(),
            TestbedError::UnknownApp("ghost".into())
        );
        assert_eq!(
            tb.resume_app("ghost", 1.0).unwrap_err(),
            TestbedError::UnknownApp("ghost".into())
        );
        for bad in [f64::NAN, f64::INFINITY, -0.5] {
            let err = tb.resume_app("coupled", bad).unwrap_err();
            assert!(matches!(err, TestbedError::InvalidCost { .. }), "{bad}");
        }
        assert_eq!(tb.stats(), before);
        assert_eq!(tb.peek_run(), 1);
    }

    #[test]
    fn snapshot_restore_resumes_the_exact_noise_history() {
        // Reference: one uninterrupted testbed.
        let mut full = testbed();
        for _ in 0..3 {
            full.run_solo("coupled").expect("runs");
        }
        let reference: Vec<f64> = (0..4)
            .map(|_| full.run_solo("coupled").expect("runs"))
            .collect();

        // Same prefix, then snapshot → JSON → restore, then the suffix.
        let mut prefix = testbed();
        for _ in 0..3 {
            prefix.run_solo("coupled").expect("runs");
        }
        let text = icm_json::to_string(&prefix.snapshot());
        let snap: TestbedSnapshot = icm_json::from_str(&text).expect("snapshot round-trips");
        assert_eq!(snap, prefix.snapshot());
        let mut resumed = SimTestbed::restore(snap);
        let suffix: Vec<f64> = (0..4)
            .map(|_| resumed.run_solo("coupled").expect("runs"))
            .collect();
        assert_eq!(
            reference, suffix,
            "restored run must continue the noise stream"
        );
        assert_eq!(resumed.stats(), full.stats());
        assert_eq!(resumed.peek_run(), full.peek_run());
    }

    #[test]
    fn snapshot_carries_the_fault_plan() {
        let mut tb = testbed();
        tb.set_fault_plan(Some(FaultPlan {
            crash_windows: vec![CrashWindow {
                host: 1,
                from_run: 4,
                until_run: 6,
            }],
            ..FaultPlan::default()
        }));
        let restored = SimTestbed::restore(tb.snapshot());
        assert!(restored.host_down_at(1, 5));
        assert!(!restored.host_down_at(1, 7));
    }

    #[test]
    fn the_chunk_plan_is_inline_for_one_core_or_one_run_and_bounded_per_thread() {
        for runs in 0..=300 {
            assert_eq!(chunk_count(runs, 1), 1, "one core measures inline");
            assert!(chunk_count(runs, 0) == 1, "a zero count still runs");
            for cores in [2, 3, 8, 1024] {
                let chunks = chunk_count(runs, cores);
                assert!(chunks >= 1 && chunks <= cores);
                assert!(
                    chunks <= (runs / MIN_RUNS_PER_THREAD).max(1),
                    "{runs} runs on {cores} cores planned {chunks} chunks"
                );
                if chunks > 1 {
                    assert!(runs / chunks >= MIN_RUNS_PER_THREAD);
                }
            }
        }
        assert_eq!(chunk_count(1, 1024), 1, "one run measures inline");
        assert_eq!(chunk_count(2 * MIN_RUNS_PER_THREAD, 1024), 2);
    }

    #[test]
    fn chunked_measurement_commits_in_order_and_stops_at_the_first_error() {
        for chunks in 1..=4 {
            let mut committed = Vec::new();
            let all = measure_then_commit(
                37,
                chunks,
                |i| i * 10,
                |i, m| {
                    committed.push((i, m));
                    Ok::<(), usize>(())
                },
            );
            assert_eq!(all, Ok(()));
            assert_eq!(committed, (0..37).map(|i| (i, i * 10)).collect::<Vec<_>>());
            for stop in [0, 5, 18, 36] {
                let mut seen = Vec::new();
                let outcome = measure_then_commit(
                    37,
                    chunks,
                    |i| i,
                    |i, _| {
                        seen.push(i);
                        if i == stop {
                            Err(i)
                        } else {
                            Ok(())
                        }
                    },
                );
                assert_eq!(outcome, Err(stop));
                assert_eq!(seen, (0..=stop).collect::<Vec<_>>(), "{chunks} chunks");
            }
        }
    }

    #[test]
    fn a_measuring_workers_panic_resumes_on_the_caller() {
        for (chunks, at) in [(2, 30), (3, 20), (3, 0)] {
            let caught = std::panic::catch_unwind(|| {
                measure_then_commit(
                    40,
                    chunks,
                    |i| {
                        if i == at {
                            panic!("measurement {i} failed");
                        }
                        i
                    },
                    |_, _| Ok::<(), ()>(()),
                )
            })
            .expect_err("the panic is not swallowed");
            let message = caught
                .downcast_ref::<String>()
                .expect("the worker's own payload");
            assert_eq!(*message, format!("measurement {at} failed"));
        }
    }

    /// Seeded deployments of every kind: solos, bubble probes, pairs and
    /// mixed placements, each app on a random subset of the hosts.
    fn mixed_deployments(seed: u64, count: usize) -> Vec<Deployment> {
        let noise = Noise::new(seed);
        let draw = |i: usize, lane: u64, n: usize| {
            (noise.uniform(stream::MEASUREMENT, i as u64, lane) * n as f64) as usize
        };
        let names = ["coupled", "loose", "framework"];
        (0..count)
            .map(|i| {
                let app = names[draw(i, 0, 3)];
                let all: Vec<usize> = (0..8).collect();
                match draw(i, 1, 4) {
                    0 => Deployment::of_placements(vec![Placement::new(app, all)]),
                    1 => Deployment {
                        placements: vec![Placement::new(app, all)],
                        bubbles: (0..8).map(|h| draw(i, 2 + h, 9) as f64).collect(),
                    },
                    2 => Deployment::of_placements(vec![
                        Placement::new(app, all.clone()),
                        Placement::new(names[(draw(i, 0, 3) + 1) % 3], all),
                    ]),
                    _ => {
                        let split = 1 + draw(i, 2, 7);
                        Deployment::of_placements(vec![
                            Placement::new(app, (0..split).collect()),
                            Placement::new(names[(draw(i, 0, 3) + 2) % 3], (split..8).collect()),
                        ])
                    }
                }
            })
            .collect()
    }

    /// Everything a batch leaves behind: its outcome, the next run
    /// number, the stats and the JSONL trace bytes.
    type Aftermath = (
        Result<Vec<Vec<AppRun>>, TestbedError>,
        u64,
        TestbedStats,
        String,
    );

    fn aftermath(
        plan: Option<&FaultPlan>,
        run: impl FnOnce(&mut SimTestbed) -> Result<Vec<Vec<AppRun>>, TestbedError>,
    ) -> Aftermath {
        let mut tb = testbed();
        tb.set_fault_plan(plan.cloned());
        let buf = icm_obs::SharedBuf::new();
        tb.set_tracer(Tracer::with_sink(icm_obs::JsonlSink::new(buf.clone())));
        // A committed prefix, so the batch starts mid-history.
        tb.run_solo("loose").ok();
        let outcome = run(&mut tb);
        tb.tracer().flush();
        (outcome, tb.peek_run(), tb.stats(), buf.text())
    }

    #[test]
    fn a_batch_leaves_exactly_what_one_run_at_a_time_leaves() {
        let n = 40;
        let base = mixed_deployments(2016, n);
        let mut bad = base.clone();
        let malformed = Deployment::of_placements(vec![Placement::new("coupled", vec![3, 3])]);
        let window = |from_run| FaultPlan {
            crash_windows: vec![CrashWindow {
                host: 5,
                from_run,
                until_run: from_run + 2,
            }],
            ..FaultPlan::default()
        };
        let mut cases: Vec<(&str, Option<FaultPlan>, Vec<Deployment>)> = vec![
            ("no faults", None, base.clone()),
            ("inactive plan", Some(FaultPlan::default()), base.clone()),
            // Run 1 is the committed prefix, so the batch's runs are 2..=41.
            ("host down at the start", Some(window(2)), base.clone()),
            ("host down in the middle", Some(window(22)), base.clone()),
            ("host down at the end", Some(window(41)), base.clone()),
            (
                "every probe fails",
                Some(FaultPlan::probe_failures(1.0)),
                base.clone(),
            ),
            (
                "some probes fail",
                Some(FaultPlan::probe_failures(0.05)),
                base.clone(),
            ),
            (
                "stragglers",
                Some(FaultPlan {
                    straggler_prob: 0.5,
                    straggler_severity: 0.5,
                    deadline_factor: 10.0,
                    ..FaultPlan::default()
                }),
                base.clone(),
            ),
            (
                "timeouts",
                Some(FaultPlan {
                    straggler_prob: 0.3,
                    straggler_severity: 1.0,
                    deadline_factor: 1.6,
                    ..FaultPlan::default()
                }),
                base.clone(),
            ),
            (
                "corruption",
                Some(FaultPlan {
                    corruption_prob: 0.5,
                    corruption_scale: 1.0,
                    ..FaultPlan::default()
                }),
                base.clone(),
            ),
        ];
        for at in [0, n / 2, n - 1] {
            bad.clone_from(&base);
            bad[at] = malformed.clone();
            cases.push(("malformed deployment", None, bad.clone()));
        }
        let mut failed_at = Vec::new();
        for (name, plan, deployments) in &cases {
            let one_at_a_time = aftermath(plan.as_ref(), |tb| {
                deployments.iter().map(|d| tb.run_deployment(d)).collect()
            });
            for chunks in 1..=4 {
                let batched = aftermath(plan.as_ref(), |tb| {
                    let mut runs = Vec::new();
                    tb.run_batch(deployments, chunks, |r| runs.push(r))
                        .map(|()| runs)
                });
                assert_eq!(batched.0, one_at_a_time.0, "{name}: {chunks} chunks");
                assert_eq!(batched.1, one_at_a_time.1, "{name}: {chunks} chunks");
                assert_eq!(batched.2, one_at_a_time.2, "{name}: {chunks} chunks");
                assert!(batched.3 == one_at_a_time.3, "{name}: {chunks} chunks");
            }
            let public = aftermath(plan.as_ref(), |tb| tb.run_deployments(deployments));
            assert!(public == one_at_a_time, "{name}: run_deployments");
            failed_at.push(one_at_a_time.1);
        }
        // The cases do what their names say: runs 2..=41 are the batch's.
        let full = 2 + n as u64;
        assert_eq!(&failed_at[..3], [full, full, 3], "{failed_at:?}");
        assert_eq!(&failed_at[3..6], [23, 42, 3], "{failed_at:?}");
        assert_eq!(&failed_at[10..], [2, 22, 41], "{failed_at:?}");
        let (_, _, stats, _) = aftermath(cases[7].1.as_ref(), |tb| tb.run_deployments(&base));
        assert!(stats.injected_stragglers > 0);
        let (outcome, _, _, _) = aftermath(cases[8].1.as_ref(), |tb| tb.run_deployments(&base));
        assert!(matches!(outcome, Err(TestbedError::ProbeTimeout { .. })));
        let (_, _, stats, _) = aftermath(cases[9].1.as_ref(), |tb| tb.run_deployments(&base));
        assert!(stats.injected_corruptions > 0);
    }
}
