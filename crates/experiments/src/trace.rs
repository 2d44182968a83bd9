//! Summarizing JSONL traces: probe budgets, per-phase time breakdowns
//! and search-convergence reports — the `icm-trace` binary's engine.
//!
//! The summarizer understands the event vocabulary emitted by the
//! instrumented crates: `run.begin`/`run.end` spans and `reporter`
//! events from `icm-simcluster`, `profile.*` spans with `probe` events
//! from `icm-core`, and `anneal.*` spans with `anneal_iter` events from
//! `icm-placement`. Unknown events are counted but otherwise ignored,
//! so traces remain summarizable as the vocabulary grows.

use std::collections::BTreeMap;

use icm_obs::{Event, SpanEdge, SpanMatcher};
use icm_simcluster::TestbedStats;

/// Testbed-run totals reconstructed from a trace, in the same units as
/// [`TestbedStats`] — solo/bubble/pair/deployment runs come from
/// `run.begin` kinds, reporter runs from `reporter` events, and
/// simulated seconds from `run.end` payloads.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ProbeBudget {
    /// Solo runs.
    pub solo: u64,
    /// Bubble-probe runs.
    pub bubble: u64,
    /// Pair runs.
    pub pair: u64,
    /// General deployments.
    pub deployment: u64,
    /// Reporter measurements.
    pub reporter: u64,
    /// Total simulated application-seconds.
    pub simulated_seconds: f64,
    /// Injected transient probe failures (`fault` events).
    pub probe_failures: u64,
    /// Injected straggler runs killed at the deadline.
    pub timeouts: u64,
    /// Injected stragglers that still completed.
    pub stragglers: u64,
    /// Injected corrupted measurements.
    pub corruptions: u64,
    /// Deployments rejected inside a host crash window.
    pub host_down: u64,
    /// Simulated seconds burned by killed runs.
    pub wasted_seconds: f64,
    /// Application checkpoints (`checkpoint` events).
    pub checkpoints: u64,
    /// Application resumes (`resume` events).
    pub restarts: u64,
    /// Simulated seconds charged as restart cost across all resumes.
    pub restart_seconds: f64,
}

icm_json::impl_json!(struct ProbeBudget {
    solo,
    bubble,
    pair,
    deployment,
    reporter,
    simulated_seconds,
    probe_failures = 0,
    timeouts = 0,
    stragglers = 0,
    corruptions = 0,
    host_down = 0,
    wasted_seconds = 0.0,
    checkpoints = 0,
    restarts = 0,
    restart_seconds = 0.0
});

impl ProbeBudget {
    /// Total runs of any kind.
    pub fn runs(&self) -> u64 {
        self.solo + self.bubble + self.pair + self.deployment + self.reporter
    }

    /// The equivalent [`TestbedStats`] snapshot, for comparing a trace
    /// against the live accounting it was captured from.
    pub fn as_stats(&self) -> TestbedStats {
        TestbedStats {
            runs: self.runs(),
            simulated_seconds: self.simulated_seconds,
            solo_runs: self.solo,
            bubble_runs: self.bubble,
            pair_runs: self.pair,
            deployment_runs: self.deployment,
            reporter_runs: self.reporter,
            injected_probe_failures: self.probe_failures,
            injected_timeouts: self.timeouts,
            injected_stragglers: self.stragglers,
            injected_corruptions: self.corruptions,
            injected_host_down: self.host_down,
            wasted_seconds: self.wasted_seconds,
            checkpoints: self.checkpoints,
            restarts: self.restarts,
            restart_seconds: self.restart_seconds,
        }
    }
}

/// Aggregate of one span name: how often it ran and how much simulated
/// time passed between its begin and end events.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseBreakdown {
    /// Span name (`run`, `profile`, `anneal`, `solo`, …).
    pub name: String,
    /// Completed spans of this name.
    pub count: u64,
    /// Simulated seconds spent inside them.
    pub sim_seconds: f64,
}

icm_json::impl_json!(struct PhaseBreakdown { name, count, sim_seconds });

/// One `profile` span: algorithm, probe count, cost, residual spread.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSummary {
    /// Profiling algorithm name.
    pub algorithm: String,
    /// Probes actually measured.
    pub probes: u64,
    /// Fraction of the setting space measured (Table 3 cost).
    pub cost: f64,
    /// Mean absolute fitted-curve residual over the probes.
    pub mean_abs_residual: f64,
    /// Largest absolute residual.
    pub max_abs_residual: f64,
}

icm_json::impl_json!(struct ProfileSummary {
    algorithm,
    probes,
    cost,
    mean_abs_residual,
    max_abs_residual
});

/// One point of a search's objective trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryPoint {
    /// Iteration number (1-based).
    pub iter: u64,
    /// Best objective value seen up to this iteration.
    pub best: f64,
}

icm_json::impl_json!(struct TrajectoryPoint { iter, best });

/// One `anneal` span: convergence summary plus the per-iteration
/// best-objective trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchSummary {
    /// Acceptance rule (`greedy` or `metropolis`).
    pub rule: String,
    /// Objective of the random initial state.
    pub start_cost: f64,
    /// Best objective found.
    pub best_cost: f64,
    /// Whether the best state was feasible.
    pub feasible: bool,
    /// Candidate evaluations (including the initial state).
    pub evaluations: u64,
    /// Accepted swaps.
    pub accepted: u64,
    /// Iteration at which the best state was last improved.
    pub best_iteration: u64,
    /// `anneal_iter` events recorded.
    pub iterations: u64,
    /// `accepted / iterations` (0 when no iterations ran).
    pub acceptance_rate: f64,
    /// Per-iteration running best (one point per recorded iteration).
    pub trajectory: Vec<TrajectoryPoint>,
}

icm_json::impl_json!(struct SearchSummary {
    rule,
    start_cost,
    best_cost,
    feasible,
    evaluations,
    accepted,
    best_iteration,
    iterations,
    acceptance_rate,
    trajectory
});

/// A label → count pair, used for the manager's by-kind tallies.
#[derive(Debug, Clone, PartialEq)]
pub struct KindCount {
    /// Stable lowercase label (`migrate`, `host_down`, …).
    pub kind: String,
    /// Occurrences in the trace.
    pub count: u64,
}

icm_json::impl_json!(struct KindCount { kind, count });

/// Supervisory-loop activity reconstructed from `manager_*` events (see
/// `icm_obs::manager`). All-zero when the trace contains no manager
/// activity.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ManagerSummary {
    /// Eventful supervisory ticks.
    pub ticks: u64,
    /// Detections by kind, sorted by kind.
    pub detections: Vec<KindCount>,
    /// Actions by kind, sorted by kind.
    pub actions: Vec<KindCount>,
    /// Total simulated seconds the actions charged (migration costs).
    pub action_cost_s: f64,
    /// Completed recoveries.
    pub recoveries: u64,
    /// Mean detection-to-recovery latency, simulated seconds.
    pub mean_recovery_latency_s: f64,
    /// Summed QoS-violation-seconds of managed runs (`manager_outcome`).
    pub managed_violation_s: f64,
    /// Summed QoS-violation-seconds of unmanaged baselines.
    pub unmanaged_violation_s: f64,
    /// Violation time the manager avoided (unmanaged − managed).
    pub avoided_violation_s: f64,
}

icm_json::impl_json!(struct ManagerSummary {
    ticks,
    detections,
    actions,
    action_cost_s,
    recoveries,
    mean_recovery_latency_s,
    managed_violation_s,
    unmanaged_violation_s,
    avoided_violation_s
});

impl ManagerSummary {
    /// Whether the trace showed any supervisory activity at all.
    pub fn is_active(&self) -> bool {
        self.ticks > 0
            || !self.detections.is_empty()
            || !self.actions.is_empty()
            || self.managed_violation_s > 0.0
            || self.unmanaged_violation_s > 0.0
    }

    /// Total actions across kinds.
    pub fn total_actions(&self) -> u64 {
        self.actions.iter().map(|k| k.count).sum()
    }
}

/// Everything `icm-trace` reports about one trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Total events in the trace.
    pub events: u64,
    /// Final simulated-seconds stamp.
    pub final_sim_s: f64,
    /// Testbed-run totals (Table 3 units).
    pub budget: ProbeBudget,
    /// Per-span-name time breakdown, sorted by name.
    pub phases: Vec<PhaseBreakdown>,
    /// One entry per `profile` span, in trace order.
    pub profiles: Vec<ProfileSummary>,
    /// One entry per `anneal` span, in trace order.
    pub searches: Vec<SearchSummary>,
    /// Supervisory-loop activity (`manager_*` events).
    pub manager: ManagerSummary,
}

icm_json::impl_json!(struct TraceSummary {
    events,
    final_sim_s,
    budget,
    phases,
    profiles,
    searches,
    manager = ManagerSummary::default()
});

/// Builds the summary of a parsed event stream.
pub fn summarize(events: &[Event]) -> TraceSummary {
    let mut budget = ProbeBudget::default();
    let mut spans = SpanMatcher::new();
    let mut phases: BTreeMap<String, (u64, f64)> = BTreeMap::new();

    let mut profiles: Vec<ProfileSummary> = Vec::new();
    let mut probe_residuals: Vec<f64> = Vec::new();

    let mut searches: Vec<SearchSummary> = Vec::new();
    let mut open_search: Option<SearchSummary> = None;

    let mut manager = ManagerSummary::default();
    let mut det_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut act_counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut recovery_latency_sum = 0.0;

    for event in events {
        let closed = match spans.push(event) {
            SpanEdge::End(closed) => closed,
            SpanEdge::Point | SpanEdge::Begin => None,
        };
        if let Some(span) = &closed {
            let entry = phases.entry(span.name.clone()).or_insert((0, 0.0));
            entry.0 += 1;
            entry.1 += event.sim_s - span.begin.sim_s;
        }

        match event.name.as_str() {
            "run.begin" => match event.str("kind") {
                Some("solo") => budget.solo += 1,
                Some("bubble") => budget.bubble += 1,
                Some("pair") => budget.pair += 1,
                _ => budget.deployment += 1,
            },
            "run.end" => {
                budget.simulated_seconds += event.num("simulated_s").unwrap_or(0.0);
            }
            "reporter" => budget.reporter += 1,
            "checkpoint" => budget.checkpoints += 1,
            "resume" => {
                budget.restarts += 1;
                budget.restart_seconds += event.num("cost_s").unwrap_or(0.0);
            }
            "manager_tick" => manager.ticks += 1,
            "manager_detection" => {
                let kind = event.str("kind").unwrap_or("?").to_owned();
                *det_counts.entry(kind).or_insert(0) += 1;
            }
            "manager_action" => {
                let kind = event.str("kind").unwrap_or("?").to_owned();
                *act_counts.entry(kind).or_insert(0) += 1;
                manager.action_cost_s += event.num("cost_s").unwrap_or(0.0);
            }
            "manager_recovery" => {
                manager.recoveries += 1;
                recovery_latency_sum += event.num("latency_s").unwrap_or(0.0);
            }
            "manager_outcome" => {
                let managed = event
                    .field("managed")
                    .and_then(icm_obs::Value::as_bool)
                    .unwrap_or(false);
                let violation = event.num("violation_s").unwrap_or(0.0);
                if managed {
                    manager.managed_violation_s += violation;
                } else {
                    manager.unmanaged_violation_s += violation;
                }
            }
            "fault" => match event.str("kind") {
                Some("probe_failed") => budget.probe_failures += 1,
                Some("timeout") => {
                    budget.timeouts += 1;
                    budget.wasted_seconds += event.num("wasted_s").unwrap_or(0.0);
                }
                Some("straggler") => budget.stragglers += 1,
                Some("corruption") => budget.corruptions += 1,
                Some("host_down") => budget.host_down += 1,
                _ => {}
            },
            "probe" => {
                probe_residuals.push(event.num("residual").unwrap_or(0.0));
            }
            "profile.begin" => probe_residuals.clear(),
            "profile.end" => {
                let abs: Vec<f64> = probe_residuals.iter().map(|r| r.abs()).collect();
                let mean = if abs.is_empty() {
                    0.0
                } else {
                    abs.iter().sum::<f64>() / abs.len() as f64
                };
                profiles.push(ProfileSummary {
                    algorithm: closed
                        .as_ref()
                        .and_then(|span| span.begin.str("algorithm"))
                        .unwrap_or("?")
                        .to_owned(),
                    probes: event.num("probes").unwrap_or(abs.len() as f64) as u64,
                    cost: event.num("cost").unwrap_or(0.0),
                    mean_abs_residual: mean,
                    max_abs_residual: abs.iter().copied().fold(0.0, f64::max),
                });
                probe_residuals.clear();
            }
            "anneal.begin" => {
                open_search = Some(SearchSummary {
                    rule: event.str("rule").unwrap_or("?").to_owned(),
                    start_cost: event.num("start_cost").unwrap_or(f64::NAN),
                    best_cost: f64::NAN,
                    feasible: false,
                    evaluations: 0,
                    accepted: 0,
                    best_iteration: 0,
                    iterations: 0,
                    acceptance_rate: 0.0,
                    trajectory: Vec::new(),
                });
            }
            "anneal_iter" => {
                if let Some(search) = open_search.as_mut() {
                    search.iterations += 1;
                    if let (Some(iter), Some(best)) = (event.num("iter"), event.num("best")) {
                        search.trajectory.push(TrajectoryPoint {
                            iter: iter as u64,
                            best,
                        });
                    }
                }
            }
            "anneal.end" => {
                if let Some(mut search) = open_search.take() {
                    search.best_cost = event.num("cost").unwrap_or(f64::NAN);
                    search.feasible = event
                        .field("feasible")
                        .and_then(icm_obs::Value::as_bool)
                        .unwrap_or(false);
                    search.evaluations = event.num("evaluations").unwrap_or(0.0) as u64;
                    search.accepted = event.num("accepted").unwrap_or(0.0) as u64;
                    search.best_iteration = event.num("best_iteration").unwrap_or(0.0) as u64;
                    search.acceptance_rate = if search.iterations == 0 {
                        0.0
                    } else {
                        search.accepted as f64 / search.iterations as f64
                    };
                    searches.push(search);
                }
            }
            _ => {}
        }
    }

    manager.detections = det_counts
        .into_iter()
        .map(|(kind, count)| KindCount { kind, count })
        .collect();
    manager.actions = act_counts
        .into_iter()
        .map(|(kind, count)| KindCount { kind, count })
        .collect();
    manager.mean_recovery_latency_s = if manager.recoveries == 0 {
        0.0
    } else {
        recovery_latency_sum / manager.recoveries as f64
    };
    manager.avoided_violation_s =
        (manager.unmanaged_violation_s - manager.managed_violation_s).max(0.0);

    TraceSummary {
        events: events.len() as u64,
        final_sim_s: events.last().map(|e| e.sim_s).unwrap_or(0.0),
        budget,
        phases: phases
            .into_iter()
            .map(|(name, (count, sim_seconds))| PhaseBreakdown {
                name,
                count,
                sim_seconds,
            })
            .collect(),
        profiles,
        searches,
        manager,
    }
}

/// Renders the summary as the human-readable report `icm-trace` prints.
pub fn render(summary: &TraceSummary) -> String {
    let mut out = String::new();
    let push = |out: &mut String, line: String| {
        out.push_str(&line);
        out.push('\n');
    };

    push(
        &mut out,
        format!(
            "trace: {} events, {:.1} simulated seconds",
            summary.events, summary.final_sim_s
        ),
    );

    let b = &summary.budget;
    push(&mut out, String::new());
    push(&mut out, "probe budget (testbed runs)".to_owned());
    for (label, count) in [
        ("solo", b.solo),
        ("bubble", b.bubble),
        ("pair", b.pair),
        ("deployment", b.deployment),
        ("reporter", b.reporter),
    ] {
        push(&mut out, format!("  {label:<12}{count:>8}"));
    }
    push(&mut out, format!("  {:<12}{:>8}", "total", b.runs()));
    push(
        &mut out,
        format!("  {:<12}{:>12.1}s", "cluster time", b.simulated_seconds),
    );

    let injected = b.probe_failures + b.timeouts + b.stragglers + b.corruptions + b.host_down;
    if injected > 0 {
        push(&mut out, String::new());
        push(&mut out, "injected faults".to_owned());
        for (label, count) in [
            ("probe fail", b.probe_failures),
            ("timeout", b.timeouts),
            ("straggler", b.stragglers),
            ("corruption", b.corruptions),
            ("host down", b.host_down),
        ] {
            if count > 0 {
                push(&mut out, format!("  {label:<12}{count:>8}"));
            }
        }
        push(
            &mut out,
            format!("  {:<12}{:>12.1}s", "wasted time", b.wasted_seconds),
        );
    }

    if !summary.phases.is_empty() {
        push(&mut out, String::new());
        push(
            &mut out,
            "phase breakdown (count, simulated seconds)".to_owned(),
        );
        for phase in &summary.phases {
            push(
                &mut out,
                format!(
                    "  {:<16}{:>8}{:>14.1}s",
                    phase.name, phase.count, phase.sim_seconds
                ),
            );
        }
    }

    let m = &summary.manager;
    if m.is_active() {
        push(&mut out, String::new());
        push(&mut out, "manager (self-healing runtime)".to_owned());
        push(
            &mut out,
            format!("  {:<14}{:>8}", "eventful ticks", m.ticks),
        );
        for d in &m.detections {
            push(&mut out, format!("  detect {:<10}{:>5}", d.kind, d.count));
        }
        for a in &m.actions {
            push(&mut out, format!("  action {:<10}{:>5}", a.kind, a.count));
        }
        if m.action_cost_s > 0.0 {
            push(
                &mut out,
                format!("  {:<14}{:>12.1}s", "action cost", m.action_cost_s),
            );
        }
        if m.recoveries > 0 {
            push(
                &mut out,
                format!(
                    "  {:<14}{:>8} (mean latency {:.1}s)",
                    "recoveries", m.recoveries, m.mean_recovery_latency_s
                ),
            );
        }
        if m.managed_violation_s > 0.0 || m.unmanaged_violation_s > 0.0 {
            push(
                &mut out,
                format!(
                    "  violation time: managed {:.1}s vs unmanaged {:.1}s ({:.1}s avoided)",
                    m.managed_violation_s, m.unmanaged_violation_s, m.avoided_violation_s
                ),
            );
        }
    }

    if !summary.profiles.is_empty() {
        push(&mut out, String::new());
        push(&mut out, "profiling".to_owned());
        for p in &summary.profiles {
            push(
                &mut out,
                format!(
                    "  {}: {} probes, cost {:.1}%, residual mean {:.4} max {:.4}",
                    p.algorithm,
                    p.probes,
                    p.cost * 100.0,
                    p.mean_abs_residual,
                    p.max_abs_residual
                ),
            );
        }
    }

    if !summary.searches.is_empty() {
        push(&mut out, String::new());
        push(&mut out, "search convergence".to_owned());
        for s in &summary.searches {
            push(
                &mut out,
                format!(
                    "  {}: {} iters, {} accepted ({:.1}%), best {:.4} at iter {} (start {:.4}{})",
                    s.rule,
                    s.iterations,
                    s.accepted,
                    s.acceptance_rate * 100.0,
                    s.best_cost,
                    s.best_iteration,
                    s.start_cost,
                    if s.feasible { ", feasible" } else { "" }
                ),
            );
            if !s.trajectory.is_empty() {
                let step = (s.trajectory.len() / 8).max(1);
                let mut points: Vec<&TrajectoryPoint> = s.trajectory.iter().step_by(step).collect();
                if (s.trajectory.len() - 1) % step != 0 {
                    points.push(s.trajectory.last().expect("non-empty"));
                }
                let rendered: Vec<String> = points
                    .iter()
                    .map(|p| format!("{:.3}@{}", p.best, p.iter))
                    .collect();
                push(
                    &mut out,
                    format!("    best trajectory: {}", rendered.join(" -> ")),
                );
            }
        }
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{private_testbed, ExpConfig};
    use icm_core::{profile, Probe, ProfilerConfig, ProfilingAlgorithm};
    use icm_obs::Tracer;

    fn traced_sweep() -> (Vec<Event>, TestbedStats) {
        let cfg = ExpConfig {
            fast: true,
            ..ExpConfig::default()
        };
        let mut testbed = private_testbed(&cfg);
        let (tracer, recorder) = Tracer::recording(65536);
        testbed.sim_mut().set_tracer(tracer.clone());
        let mut probe = Probe::new(&mut testbed, "M.zeus", 8, 1).expect("solo runs");
        profile(
            &mut probe,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &tracer,
        )
        .expect("profiles");
        (recorder.events(), testbed.sim().stats())
    }

    #[test]
    fn probe_budget_matches_testbed_stats() {
        let (events, stats) = traced_sweep();
        let summary = summarize(&events);
        assert_eq!(summary.budget.as_stats(), stats);
        assert!(summary.budget.bubble > 0, "sweep must probe with bubbles");
    }

    #[test]
    fn summary_covers_profile_and_phases() {
        let (events, _) = traced_sweep();
        let summary = summarize(&events);
        assert_eq!(summary.profiles.len(), 1);
        assert_eq!(summary.profiles[0].algorithm, "binary-optimized");
        assert!(summary.profiles[0].probes > 0);
        assert!(summary.profiles[0].cost > 0.0);
        let run_phase = summary
            .phases
            .iter()
            .find(|p| p.name == "run")
            .expect("run phase present");
        assert_eq!(run_phase.count, stats_runs(&summary));
        let text = render(&summary);
        assert!(text.contains("probe budget"));
        assert!(text.contains("binary-optimized"));
    }

    fn stats_runs(summary: &TraceSummary) -> u64 {
        summary.budget.runs() - summary.budget.reporter
    }

    #[test]
    fn summary_reports_search_convergence() {
        use icm_placement::{
            anneal_estimator, AcceptRule, AnnealConfig, Estimator, PlacementError,
            PlacementProblem, RuntimePredictor, SearchGoal,
        };

        /// A toy interference model with the given bubble score: runtime
        /// grows with the worst co-runner pressure.
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

        let problem =
            PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
                .expect("valid problem");
        let toys = [Toy(1.0), Toy(5.0), Toy(0.5), Toy(2.0)];
        let predictors: Vec<&dyn RuntimePredictor> =
            toys.iter().map(|t| t as &dyn RuntimePredictor).collect();
        let estimator = Estimator::new(&problem, predictors).expect("valid estimator");
        let (tracer, recorder) = Tracer::recording(65536);
        let result = anneal_estimator(
            &estimator,
            SearchGoal::MinWeightedTotal,
            &AnnealConfig {
                iterations: 200,
                accept: AcceptRule::Metropolis {
                    initial_temperature: 0.5,
                    cooling: 0.995,
                },
                ..AnnealConfig::default()
            },
            &tracer,
        )
        .expect("search runs");
        let summary = summarize(&recorder.events());
        assert_eq!(summary.searches.len(), 1);
        let s = &summary.searches[0];
        assert_eq!(s.rule, "metropolis");
        assert_eq!(s.accepted, result.accepted as u64);
        assert_eq!(s.best_iteration, result.best_iteration as u64);
        assert!((s.best_cost - result.cost).abs() < 1e-12);
        assert_eq!(s.trajectory.len() as u64, s.iterations);
        let text = render(&summary);
        assert!(text.contains("search convergence"));
        assert!(text.contains("metropolis"));
    }

    #[test]
    fn summary_json_round_trips() {
        let (events, _) = traced_sweep();
        let summary = summarize(&events);
        let back: TraceSummary =
            icm_json::from_str(&icm_json::to_string(&summary)).expect("round-trips");
        assert_eq!(back, summary);
    }

    #[test]
    fn empty_trace_summarizes_to_zeros() {
        let summary = summarize(&[]);
        assert_eq!(summary.events, 0);
        assert_eq!(summary.budget.runs(), 0);
        assert!(summary.phases.is_empty());
        assert!(!summary.manager.is_active());
        let text = render(&summary);
        assert!(text.contains("0 events"));
        assert!(!text.contains("manager"));
    }

    #[test]
    fn manager_section_reconstructs_supervisory_activity() {
        let cfg = ExpConfig {
            fast: true,
            ..ExpConfig::default()
        };
        let (tracer, recorder) = Tracer::recording(1 << 20);
        let _ = crate::recovery::run_traced(&cfg, &tracer).expect("recovery sweep runs");
        let summary = summarize(&recorder.events());

        let m = &summary.manager;
        assert!(m.is_active(), "recovery sweep must show manager activity");
        assert!(m.ticks > 0, "eventful ticks must be recorded");
        assert!(m.total_actions() > 0, "actions by kind must be non-empty");
        assert!(
            m.actions.iter().any(|k| k.kind == "migrate"),
            "the crash scenario migrates off the downed host: {:?}",
            m.actions
        );
        assert!(
            m.detections.iter().any(|k| k.kind == "host_down"),
            "the crash must be detected: {:?}",
            m.detections
        );
        assert!(m.recoveries > 0, "recoveries must complete");
        assert!(m.mean_recovery_latency_s > 0.0);
        assert!(
            m.avoided_violation_s > 0.0,
            "managed runs must avoid violation time (managed {} vs unmanaged {})",
            m.managed_violation_s,
            m.unmanaged_violation_s
        );

        // Migration machinery shows up in the probe budget too: every
        // checkpoint is paired with a costed resume.
        assert!(summary.budget.checkpoints > 0);
        assert_eq!(summary.budget.checkpoints, summary.budget.restarts);
        assert!(summary.budget.restart_seconds > 0.0);

        let text = render(&summary);
        assert!(text.contains("manager (self-healing runtime)"));
        assert!(text.contains("action migrate"));
        assert!(text.contains("violation time: managed"));
    }
}
