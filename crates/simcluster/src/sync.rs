use crate::noise::{stream, unit_id, Noise};

/// Parallelism/synchronization structure of a distributed application.
///
/// The paper (§3.2) observes that interference *propagation* is governed
/// by how an application's parallelism couples its nodes:
///
/// * barrier/allreduce-heavy MPI codes stall every node on the slowest one
///   (**high propagation**),
/// * codes with few collectives degrade proportionally to the number of
///   slowed nodes (**proportional propagation**, e.g. `M.Gems`), and
/// * frameworks with dynamic task scheduling route work away from slow
///   nodes (Hadoop/Spark), which combined with small working sets yields
///   **low propagation**.
///
/// The two variants here implement those coupling mechanisms directly, so
/// the propagation classes *emerge* from structure rather than being
/// hard-coded curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncPattern {
    /// Phased execution with a (partial) barrier after each phase.
    ///
    /// Per phase, every participating node computes for
    /// `phase_work × slowdown × jitter`; the phase completes after
    /// `coupling × max + (1 − coupling) × mean` of the node times.
    /// `coupling = 1` is a full barrier (high propagation); `coupling = 0`
    /// is fully decoupled (proportional propagation).
    Collective {
        /// Number of compute/synchronize phases.
        phases: usize,
        /// Barrier strength in `[0, 1]`.
        coupling: f64,
    },
    /// Dynamically scheduled task queue (MapReduce/Spark style).
    ///
    /// Each of `stages` stages splits the stage's work into `tasks` equal
    /// tasks, greedily dispatched to the earliest-available worker; the
    /// stage ends when the last task finishes (stragglers matter only at
    /// the tail, so slow nodes simply process fewer tasks).
    TaskQueue {
        /// Tasks per stage.
        tasks: usize,
        /// Number of barrier-separated stages.
        stages: usize,
    },
}

/// The JSON body of [`SyncPattern::Collective`].
struct Collective {
    phases: usize,
    coupling: f64,
}
icm_json::impl_json!(struct Collective { phases, coupling });

/// The JSON body of [`SyncPattern::TaskQueue`].
struct TaskQueue {
    tasks: usize,
    stages: usize,
}
icm_json::impl_json!(struct TaskQueue { tasks, stages });

impl icm_json::ToJson for SyncPattern {
    fn write_json(&self, out: &mut String) {
        match *self {
            SyncPattern::Collective { phases, coupling } => {
                icm_json::write_object(out, [("Collective", &Collective { phases, coupling })]);
            }
            SyncPattern::TaskQueue { tasks, stages } => {
                icm_json::write_object(out, [("TaskQueue", &TaskQueue { tasks, stages })]);
            }
        }
    }
}

impl icm_json::FromJson for SyncPattern {
    fn read_json(r: &mut icm_json::Reader<'_>) -> Result<Self, icm_json::JsonError> {
        icm_json::read_variant(r, "SyncPattern", |name, body| match (name, body) {
            ("Collective", Some(r)) => {
                let Collective { phases, coupling } = icm_json::FromJson::read_json(r)?;
                Ok(SyncPattern::Collective { phases, coupling })
            }
            ("TaskQueue", Some(r)) => {
                let TaskQueue { tasks, stages } = icm_json::FromJson::read_json(r)?;
                Ok(SyncPattern::TaskQueue { tasks, stages })
            }
            _ => Err(icm_json::unknown_variant("SyncPattern", name)),
        })
    }
}

impl SyncPattern {
    /// A tightly coupled MPI-style pattern (high propagation).
    pub fn high_propagation(phases: usize) -> Self {
        SyncPattern::Collective {
            phases,
            coupling: 0.92,
        }
    }

    /// A loosely coupled pattern (proportional propagation, like `M.Gems`).
    pub fn proportional(phases: usize) -> Self {
        SyncPattern::Collective {
            phases,
            coupling: 0.05,
        }
    }

    /// A dynamically load-balanced pattern (Hadoop/Spark style).
    pub fn task_queue(tasks: usize, stages: usize) -> Self {
        SyncPattern::TaskQueue { tasks, stages }
    }

    /// Validates structural invariants (non-zero phases/tasks, coupling in
    /// range). Returns a description of the violation if any.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SyncPattern::Collective { phases, coupling } => {
                if phases == 0 {
                    return Err("Collective.phases must be > 0".into());
                }
                if !(0.0..=1.0).contains(&coupling) || !coupling.is_finite() {
                    return Err(format!(
                        "Collective.coupling must be in [0,1], got {coupling}"
                    ));
                }
                Ok(())
            }
            SyncPattern::TaskQueue { tasks, stages } => {
                if tasks == 0 {
                    return Err("TaskQueue.tasks must be > 0".into());
                }
                if stages == 0 {
                    return Err("TaskQueue.stages must be > 0".into());
                }
                Ok(())
            }
        }
    }
}

/// Time-varying interference *sensitivity* of an application's phases —
/// the §4.4 "static profiling" limitation made concrete.
///
/// Real applications alternate between memory-heavy and compute-heavy
/// phases; the same external interference hurts a heavy phase more. The
/// modulation scales the *excess* slowdown `(σ − 1)` by `1 ± amplitude`
/// in a square wave of the given `period` (phases per half-wave). Nodes
/// drift out of alignment run-to-run (data-dependent imbalance), which
/// is what a single statically profiled model cannot capture.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseModulation {
    /// Fraction by which the excess slowdown swings (0 ≤ amplitude < 1).
    pub amplitude: f64,
    /// Phases per half-wave.
    pub period: usize,
}

icm_json::impl_json!(struct PhaseModulation { amplitude, period });

impl PhaseModulation {
    /// Validates the modulation parameters.
    pub fn validate(&self) -> Result<(), String> {
        if !(0.0..1.0).contains(&self.amplitude) || !self.amplitude.is_finite() {
            return Err(format!(
                "PhaseModulation.amplitude must be in [0,1), got {}",
                self.amplitude
            ));
        }
        if self.period == 0 {
            return Err("PhaseModulation.period must be > 0".into());
        }
        Ok(())
    }

    /// Modulation factor at `phase` for a node with phase `drift`.
    fn factor(&self, phase: usize, drift: usize) -> f64 {
        let half = (phase + drift) / self.period;
        if half.is_multiple_of(2) {
            1.0 + self.amplitude
        } else {
            1.0 - self.amplitude
        }
    }

    /// Applies the modulation to a slowdown's excess.
    fn modulate(&self, slowdown: f64, phase: usize, drift: usize) -> f64 {
        1.0 + (slowdown - 1.0) * self.factor(phase, drift)
    }
}

/// Executes a distributed run and returns the wall-clock time in units of
/// the solo, interference-free runtime (i.e. ≈ 1.0 when `slowdowns` are
/// all 1 and noise is off).
///
/// * `slowdowns` — one contention slowdown factor per participating
///   worker node (the caller has already excluded a non-working master).
/// * `modulation` / `drifts` — optional phase-sensitivity modulation;
///   `drifts` gives each node's modulation offset (in phases), and an
///   empty slice means zero drift everywhere.
/// * `noise` / `sigma` / `run` — deterministic per-phase jitter.
///
/// # Panics
///
/// Panics if `slowdowns` is empty, the pattern or modulation is invalid,
/// or `drifts` is non-empty with a length different from `slowdowns`.
pub fn execute(
    pattern: SyncPattern,
    slowdowns: &[f64],
    modulation: Option<PhaseModulation>,
    drifts: &[usize],
    noise: &Noise,
    sigma: f64,
    run: u64,
) -> f64 {
    assert!(
        !slowdowns.is_empty(),
        "an application needs at least one worker node"
    );
    pattern
        .validate()
        .unwrap_or_else(|msg| panic!("invalid sync pattern: {msg}"));
    if let Some(m) = modulation {
        m.validate()
            .unwrap_or_else(|msg| panic!("invalid phase modulation: {msg}"));
    }
    assert!(
        drifts.is_empty() || drifts.len() == slowdowns.len(),
        "drifts must be empty or match the worker count"
    );
    let drift_of = |node: usize| -> usize { drifts.get(node).copied().unwrap_or(0) };
    match pattern {
        SyncPattern::Collective { phases, coupling } => execute_collective(
            phases, coupling, slowdowns, modulation, &drift_of, noise, sigma, run,
        ),
        SyncPattern::TaskQueue { tasks, stages } => execute_task_queue(
            tasks, stages, slowdowns, modulation, &drift_of, noise, sigma, run,
        ),
    }
}

#[allow(clippy::too_many_arguments)]
fn execute_collective(
    phases: usize,
    coupling: f64,
    slowdowns: &[f64],
    modulation: Option<PhaseModulation>,
    drift_of: &dyn Fn(usize) -> usize,
    noise: &Noise,
    sigma: f64,
    run: u64,
) -> f64 {
    let n = slowdowns.len() as f64;
    let phase_work = 1.0 / phases as f64;
    let mut total = 0.0;
    for phase in 0..phases {
        let mut max_t = f64::MIN;
        let mut sum_t = 0.0;
        for (node, &sd) in slowdowns.iter().enumerate() {
            let effective = match modulation {
                Some(m) => m.modulate(sd, phase, drift_of(node)),
                None => sd,
            };
            let jitter = noise.lognormal(sigma, stream::PHASE, run, unit_id(node, phase));
            let t = phase_work * effective * jitter;
            max_t = max_t.max(t);
            sum_t += t;
        }
        total += coupling * max_t + (1.0 - coupling) * (sum_t / n);
    }
    total
}

#[allow(clippy::too_many_arguments)]
fn execute_task_queue(
    tasks: usize,
    stages: usize,
    slowdowns: &[f64],
    modulation: Option<PhaseModulation>,
    drift_of: &dyn Fn(usize) -> usize,
    noise: &Noise,
    sigma: f64,
    run: u64,
) -> f64 {
    let workers = slowdowns.len();
    let stage_node_seconds = slowdowns.len() as f64 / stages as f64;
    let task_work = stage_node_seconds / tasks as f64;
    let mut total = 0.0;
    // A node's "phase" is how many tasks it has completed so far.
    let mut completed = vec![0usize; workers];
    for stage in 0..stages {
        // Earliest-available greedy dispatch. Worker count is small
        // (≤ 32), so a linear scan beats a heap.
        let mut available = vec![0.0f64; workers];
        for task in 0..tasks {
            let (node, _) = available
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("times are finite"))
                .expect("at least one worker");
            let effective = match modulation {
                Some(m) => m.modulate(slowdowns[node], completed[node], drift_of(node)),
                None => slowdowns[node],
            };
            let jitter = noise.lognormal(
                sigma,
                stream::PHASE,
                run,
                unit_id(node, stage * tasks + task),
            );
            available[node] += task_work * effective * jitter;
            completed[node] += 1;
        }
        let makespan = available.iter().fold(0.0f64, |acc, &t| acc.max(t));
        total += makespan;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    const QUIET: f64 = 0.0;

    fn noise() -> Noise {
        Noise::new(1)
    }

    /// A noiseless run without phase modulation.
    fn quiet(pattern: SyncPattern, slowdowns: &[f64]) -> f64 {
        execute(pattern, slowdowns, None, &[], &noise(), QUIET, 0)
    }

    #[test]
    fn solo_collective_runs_in_unit_time() {
        let t = quiet(SyncPattern::high_propagation(50), &[1.0; 8]);
        assert!((t - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn solo_task_queue_runs_in_unit_time_when_divisible() {
        // 64 tasks over 8 workers divide evenly: makespan = 1.
        let t = quiet(SyncPattern::task_queue(64, 4), &[1.0; 8]);
        assert!((t - 1.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn full_barrier_propagates_single_slow_node() {
        let mut sd = [1.0; 8];
        sd[3] = 2.0;
        let t = quiet(
            SyncPattern::Collective {
                phases: 10,
                coupling: 1.0,
            },
            &sd,
        );
        assert!(
            (t - 2.0).abs() < 1e-9,
            "one slow node stalls everything, got {t}"
        );
    }

    #[test]
    fn decoupled_pattern_degrades_proportionally() {
        let mut sd = [1.0; 8];
        sd[0] = 2.0;
        let t = quiet(
            SyncPattern::Collective {
                phases: 10,
                coupling: 0.0,
            },
            &sd,
        );
        let expected = (7.0 + 2.0) / 8.0;
        assert!((t - expected).abs() < 1e-9, "got {t}, expected {expected}");
    }

    #[test]
    fn high_propagation_beats_proportional_for_one_slow_node() {
        let mut sd = [1.0; 8];
        sd[0] = 2.0;
        let high = quiet(SyncPattern::high_propagation(10), &sd);
        let prop = quiet(SyncPattern::proportional(10), &sd);
        assert!(
            high > prop + 0.3,
            "barrier coupling must amplify a single slow node: high={high}, prop={prop}"
        );
    }

    #[test]
    fn task_queue_routes_work_away_from_slow_node() {
        let mut sd = [1.0; 8];
        sd[0] = 3.0;
        // Many small tasks: the slow node simply takes fewer of them.
        let t = quiet(SyncPattern::task_queue(256, 1), &sd);
        // Aggregate speed = 7 + 1/3; perfect balancing gives 8/(7+1/3) ≈ 1.09.
        assert!(
            t < 1.2,
            "dynamic balancing should absorb the slow node, got {t}"
        );
        assert!(t > 1.0, "but cannot fully hide it");
    }

    #[test]
    fn task_queue_with_coarse_tasks_suffers_stragglers() {
        let mut sd = [1.0; 8];
        sd[0] = 3.0;
        let coarse = quiet(SyncPattern::task_queue(8, 1), &sd);
        let fine = quiet(SyncPattern::task_queue(256, 1), &sd);
        assert!(
            coarse > fine,
            "coarse tasks cannot re-balance: coarse={coarse}, fine={fine}"
        );
    }

    #[test]
    fn more_interfering_nodes_never_reduce_runtime() {
        for pattern in [
            SyncPattern::high_propagation(20),
            SyncPattern::proportional(20),
            SyncPattern::task_queue(128, 4),
        ] {
            let mut last = 0.0;
            for k in 0..=8usize {
                let mut sd = vec![1.0; 8];
                for s in sd.iter_mut().take(k) {
                    *s = 1.8;
                }
                let t = quiet(pattern, &sd);
                assert!(
                    t >= last - 1e-9,
                    "{pattern:?}: runtime decreased at k={k}: {t} < {last}"
                );
                last = t;
            }
        }
    }

    #[test]
    fn noise_perturbs_but_stays_reasonable() {
        let t = execute(
            SyncPattern::high_propagation(100),
            &[1.0; 8],
            None,
            &[],
            &noise(),
            0.02,
            3,
        );
        // Max over 8 lognormal(0.02) per phase biases slightly above 1.
        assert!(t > 1.0 && t < 1.1, "got {t}");
    }

    #[test]
    fn runs_are_deterministic_per_run_id() {
        let sd = [1.3, 1.0, 1.0, 2.0, 1.0, 1.0, 1.1, 1.0];
        let a = execute(
            SyncPattern::high_propagation(30),
            &sd,
            None,
            &[],
            &noise(),
            0.02,
            5,
        );
        let b = execute(
            SyncPattern::high_propagation(30),
            &sd,
            None,
            &[],
            &noise(),
            0.02,
            5,
        );
        let c = execute(
            SyncPattern::high_propagation(30),
            &sd,
            None,
            &[],
            &noise(),
            0.02,
            6,
        );
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn empty_slowdowns_panic() {
        let _ = quiet(SyncPattern::high_propagation(5), &[]);
    }

    #[test]
    #[should_panic(expected = "invalid sync pattern")]
    fn zero_phases_panic() {
        let _ = quiet(
            SyncPattern::Collective {
                phases: 0,
                coupling: 0.5,
            },
            &[1.0],
        );
    }

    #[test]
    fn validate_rejects_bad_coupling() {
        let p = SyncPattern::Collective {
            phases: 5,
            coupling: 1.5,
        };
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_tasks() {
        assert!(SyncPattern::TaskQueue {
            tasks: 0,
            stages: 1
        }
        .validate()
        .is_err());
        assert!(SyncPattern::TaskQueue {
            tasks: 1,
            stages: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn modulation_validation() {
        assert!(PhaseModulation {
            amplitude: 0.5,
            period: 4
        }
        .validate()
        .is_ok());
        assert!(PhaseModulation {
            amplitude: 1.0,
            period: 4
        }
        .validate()
        .is_err());
        assert!(PhaseModulation {
            amplitude: -0.1,
            period: 4
        }
        .validate()
        .is_err());
        assert!(PhaseModulation {
            amplitude: 0.5,
            period: 0
        }
        .validate()
        .is_err());
    }

    #[test]
    fn modulation_is_neutral_without_interference() {
        // Modulation scales the *excess* slowdown, so an uninterfered run
        // is unchanged: the solo baseline stays calibrated.
        let m = PhaseModulation {
            amplitude: 0.8,
            period: 3,
        };
        let plain = quiet(SyncPattern::high_propagation(24), &[1.0; 8]);
        let phased = execute(
            SyncPattern::high_propagation(24),
            &[1.0; 8],
            Some(m),
            &[],
            &noise(),
            QUIET,
            0,
        );
        assert!((plain - phased).abs() < 1e-12);
    }

    #[test]
    fn aligned_modulation_averages_out_for_decoupled_apps() {
        // With zero drift and an even number of half-waves, the heavy and
        // light phases cancel exactly under mean aggregation.
        let m = PhaseModulation {
            amplitude: 0.5,
            period: 4,
        };
        let sd = [1.4; 8];
        let plain = quiet(SyncPattern::proportional(16), &sd);
        let phased = execute(
            SyncPattern::proportional(16),
            &sd,
            Some(m),
            &[],
            &noise(),
            QUIET,
            0,
        );
        assert!(
            (plain - phased).abs() < 0.03,
            "aligned square wave should roughly cancel: {plain} vs {phased}"
        );
    }

    #[test]
    fn drifted_modulation_raises_coupled_runtimes() {
        // When nodes drift out of phase, a barrier-coupled app always has
        // *some* node in its heavy phase, so the max rises.
        let m = PhaseModulation {
            amplitude: 0.6,
            period: 4,
        };
        let sd = [1.5; 8];
        let pattern = SyncPattern::Collective {
            phases: 32,
            coupling: 1.0,
        };
        let aligned = execute(pattern, &sd, Some(m), &[], &noise(), QUIET, 0);
        let drifts: Vec<usize> = (0..8).collect();
        let drifted = execute(pattern, &sd, Some(m), &drifts, &noise(), QUIET, 0);
        assert!(
            drifted > aligned + 0.05,
            "drift must amplify the barrier penalty: {drifted} vs {aligned}"
        );
    }

    #[test]
    #[should_panic(expected = "drifts must be empty or match")]
    fn mismatched_drifts_panic() {
        let m = PhaseModulation {
            amplitude: 0.5,
            period: 4,
        };
        let _ = execute(
            SyncPattern::high_propagation(8),
            &[1.0; 8],
            Some(m),
            &[0; 3],
            &noise(),
            QUIET,
            0,
        );
    }

    #[test]
    #[should_panic(expected = "invalid phase modulation")]
    fn invalid_modulation_panics() {
        let m = PhaseModulation {
            amplitude: 2.0,
            period: 4,
        };
        let _ = execute(
            SyncPattern::high_propagation(8),
            &[1.0; 8],
            Some(m),
            &[],
            &noise(),
            QUIET,
            0,
        );
    }
}
