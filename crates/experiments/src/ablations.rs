//! Ablation studies of the design choices called out in `DESIGN.md`:
//!
//! * **A1** — binary-search refinement threshold (ε) vs profiling
//!   cost/accuracy for both binary algorithms.
//! * **A2** — placement search budget and acceptance rule vs placement
//!   quality.
//! * **A3** — policy-selection sample count vs selection stability.
//! * **A4** — the §4.4 multi-app bubble-score combination rule validated
//!   against the simulator.

use icm_core::model::ModelBuilder;
use icm_core::{combine_scores, profile, Calibration, Probe, ProfilerConfig, ProfilingAlgorithm};
use icm_obs::Tracer;
use icm_placement::{anneal_estimator, AcceptRule, AnnealConfig, Estimator, SearchGoal};

use crate::context::{private_testbed, score_each, ExpConfig, ExpError};
use crate::placement_common::MixContext;
use crate::table::{f2, f3, pct, Table};

// ---------------------------------------------------------------- A1 --

/// One ε setting's cost/error for one algorithm.
#[derive(Debug, Clone, PartialEq)]
pub struct EpsilonPoint {
    /// Algorithm name.
    pub algorithm: String,
    /// Refinement threshold.
    pub epsilon: f64,
    /// Profiling cost (%).
    pub cost_pct: f64,
    /// Mean cell error vs ground truth (%).
    pub error_pct: f64,
}

icm_json::impl_json!(struct EpsilonPoint { algorithm, epsilon, cost_pct, error_pct });

/// A1 output.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationInterp {
    /// Application profiled.
    pub app: String,
    /// Sweep points.
    pub points: Vec<EpsilonPoint>,
}

icm_json::impl_json!(struct AblationInterp { app, points });

/// Runs A1: ε sweep of the binary profiling algorithms on `M.milc`.
///
/// # Errors
///
/// Propagates testbed failures.
pub fn run_interp(cfg: &ExpConfig) -> Result<AblationInterp, ExpError> {
    let app = "M.milc";
    let mut testbed = private_testbed(cfg);
    let hosts = testbed.sim().cluster().hosts();
    let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
    let tracer = Tracer::disabled();
    let truth = profile(
        &mut probe,
        ProfilingAlgorithm::Full,
        &ProfilerConfig::default(),
        &tracer,
    )?
    .matrix;
    let epsilons: &[f64] = if cfg.fast {
        &[0.01, 0.08]
    } else {
        &[0.005, 0.01, 0.02, 0.04, 0.08, 0.16]
    };
    let mut points = Vec::new();
    for algorithm in [
        ProfilingAlgorithm::BinaryBrute,
        ProfilingAlgorithm::BinaryOptimized,
    ] {
        for &epsilon in epsilons {
            let config = ProfilerConfig {
                epsilon,
                seed: cfg.seed,
            };
            let result = profile(&mut probe, algorithm, &config, &tracer)?;
            points.push(EpsilonPoint {
                algorithm: algorithm.name(),
                epsilon,
                cost_pct: result.cost * 100.0,
                error_pct: result.matrix.mean_abs_error_pct(&truth)?,
            });
        }
    }
    Ok(AblationInterp {
        app: app.to_owned(),
        points,
    })
}

/// Renders A1.
pub fn render_interp(result: &AblationInterp) -> String {
    let mut table = Table::new(format!(
        "Ablation A1: binary-search ε vs profiling cost/accuracy ({})",
        result.app
    ));
    table.headers(["algorithm", "epsilon", "cost", "error"]);
    for p in &result.points {
        table.row([
            p.algorithm.clone(),
            f3(p.epsilon),
            pct(p.cost_pct),
            pct(p.error_pct),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------- A2 --

/// One search configuration's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchPoint {
    /// Acceptance rule label.
    pub rule: String,
    /// Iteration budget.
    pub iterations: usize,
    /// Predicted total normalized time of the found placement.
    pub predicted_total: f64,
}

icm_json::impl_json!(struct SearchPoint { rule, iterations, predicted_total });

/// A2 output.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationSa {
    /// Mix used.
    pub mix: [String; 4],
    /// Sweep points.
    pub points: Vec<SearchPoint>,
}

icm_json::impl_json!(struct AblationSa { mix, points });

/// Runs A2: SA budget / acceptance-rule sweep on mix HW1.
///
/// # Errors
///
/// Propagates failures.
pub fn run_sa(cfg: &ExpConfig) -> Result<AblationSa, ExpError> {
    let workloads: [String; 4] = ["N.mg".into(), "N.cg".into(), "H.KM".into(), "M.lmps".into()];
    let mut testbed = private_testbed(cfg);
    let ctx = MixContext::build(&mut testbed, &workloads, cfg)?;
    let estimator = Estimator::new(&ctx.problem, ctx.model_predictors())?;
    let budgets: &[usize] = if cfg.fast {
        &[100, 1000]
    } else {
        &[50, 200, 1000, 4000, 16000]
    };
    let rules = [
        ("greedy", AcceptRule::Greedy),
        (
            "metropolis",
            AcceptRule::Metropolis {
                initial_temperature: 0.3,
                cooling: 0.999,
            },
        ),
    ];
    let mut points = Vec::new();
    for (label, rule) in rules {
        for &iterations in budgets {
            let result = anneal_estimator(
                &estimator,
                SearchGoal::MinWeightedTotal,
                &AnnealConfig {
                    iterations,
                    seed: cfg.seed ^ 0x5A,
                    accept: rule,
                },
                &icm_obs::Tracer::disabled(),
            )?;
            points.push(SearchPoint {
                rule: label.to_owned(),
                iterations,
                predicted_total: result.cost,
            });
        }
    }
    Ok(AblationSa {
        mix: workloads,
        points,
    })
}

/// Renders A2.
pub fn render_sa(result: &AblationSa) -> String {
    let mut table = Table::new(format!(
        "Ablation A2: search budget vs placement quality (mix {:?})",
        result.mix
    ));
    table.headers(["rule", "iterations", "predicted total time"]);
    for p in &result.points {
        table.row([
            p.rule.clone(),
            p.iterations.to_string(),
            f3(p.predicted_total),
        ]);
    }
    table.render()
}

// ---------------------------------------------------------------- A3 --

/// Policy selected at one sample count.
#[derive(Debug, Clone, PartialEq)]
pub struct SamplePoint {
    /// Sample count.
    pub samples: usize,
    /// Selected policy name.
    pub policy: String,
    /// Its mean error on those samples (%).
    pub error_pct: f64,
}

icm_json::impl_json!(struct SamplePoint { samples, policy, error_pct });

/// A3 output.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationSamples {
    /// Application studied.
    pub app: String,
    /// Reference selection at the largest sample count.
    pub reference_policy: String,
    /// Sweep points.
    pub points: Vec<SamplePoint>,
}

icm_json::impl_json!(struct AblationSamples { app, reference_policy, points });

/// Runs A3: how many heterogeneous samples does policy selection need?
///
/// # Errors
///
/// Propagates failures.
pub fn run_samples(cfg: &ExpConfig) -> Result<AblationSamples, ExpError> {
    let app = "M.milc";
    let counts: &[usize] = if cfg.fast {
        &[6, 20]
    } else {
        &[6, 12, 30, 60, 120, 200]
    };
    let mut points = Vec::new();
    for &samples in counts {
        let mut testbed = private_testbed(cfg);
        let model = ModelBuilder::new(app)
            .policy_samples(samples)
            .seed(cfg.seed ^ samples as u64)
            .build(&mut testbed)?;
        let best = model
            .policy_evaluations()
            .iter()
            .find(|e| e.policy == model.policy())
            .expect("selected policy evaluated");
        points.push(SamplePoint {
            samples,
            policy: model.policy().name().to_owned(),
            error_pct: best.errors.mean,
        });
    }
    let reference_policy = points.last().expect("non-empty").policy.clone();
    Ok(AblationSamples {
        app: app.to_owned(),
        reference_policy,
        points,
    })
}

/// Renders A3.
pub fn render_samples(result: &AblationSamples) -> String {
    let mut table = Table::new(format!(
        "Ablation A3: policy-selection sample count ({}; reference = {})",
        result.app, result.reference_policy
    ));
    table.headers(["samples", "selected policy", "mean error"]);
    for p in &result.points {
        table.row([p.samples.to_string(), p.policy.clone(), pct(p.error_pct)]);
    }
    table.render()
}

// ---------------------------------------------------------------- A4 --

/// One co-location triple's combined-score validation.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinePoint {
    /// The two co-located applications.
    pub apps: [String; 2],
    /// Their individual scores.
    pub scores: [f64; 2],
    /// Combined score predicted by the log-domain rule.
    pub predicted_combined: f64,
    /// Score measured by co-locating both with the reporter.
    pub measured_combined: f64,
}

icm_json::impl_json!(struct CombinePoint { apps, scores, predicted_combined, measured_combined });

/// A4 output.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationMultiApp {
    /// Validation points.
    pub points: Vec<CombinePoint>,
    /// Mean absolute score error of the rule.
    pub mean_abs_error: f64,
}

icm_json::impl_json!(struct AblationMultiApp { points, mean_abs_error });

/// Runs A4: validate `combine_scores` (the §4.4 extension) by measuring
/// the reporter's slowdown under two simultaneous co-runners.
///
/// # Errors
///
/// Propagates failures.
pub fn run_multiapp(cfg: &ExpConfig) -> Result<AblationMultiApp, ExpError> {
    let pairs: &[(&str, &str)] = if cfg.fast {
        &[("M.zeus", "M.zeus"), ("M.milc", "H.KM")]
    } else {
        &[
            ("M.zeus", "M.zeus"),
            ("M.milc", "M.milc"),
            ("M.milc", "H.KM"),
            ("M.milc", "M.zeus"),
            ("C.libq", "H.KM"),
            ("M.lesl", "N.cg"),
        ]
    };
    let mut testbed = private_testbed(cfg);
    let repeats = cfg.repeats().max(3);

    // One reporter calibration scores every app, each once, and the
    // joint pressure.
    let calibration = Calibration::measure(&mut testbed)?;
    let scores = score_each(
        &calibration,
        &mut testbed,
        pairs.iter().flat_map(|&(a, b)| [a, b]),
        repeats,
    )?;

    let mut points = Vec::new();
    for &(a, b) in pairs {
        let (score_a, score_b) = (scores[a], scores[b]);
        let predicted = combine_scores(&[score_a, score_b]);

        // Measure the pair's joint pressure: the reporter co-located with
        // both applications at once.
        let mut slow_total = 0.0;
        for _ in 0..repeats {
            slow_total += testbed.sim_mut().reporter_slowdown_with_apps(&[a, b])?;
        }
        let measured = calibration.score_of_slowdown(slow_total / repeats as f64);
        points.push(CombinePoint {
            apps: [a.to_owned(), b.to_owned()],
            scores: [score_a, score_b],
            predicted_combined: predicted,
            measured_combined: measured,
        });
    }
    let mean_abs_error = points
        .iter()
        .map(|p| (p.predicted_combined - p.measured_combined).abs())
        .sum::<f64>()
        / points.len() as f64;
    Ok(AblationMultiApp {
        points,
        mean_abs_error,
    })
}

/// Renders A4.
pub fn render_multiapp(result: &AblationMultiApp) -> String {
    let mut table = Table::new(format!(
        "Ablation A4: multi-app score combination (mean |error| = {:.2} levels)",
        result.mean_abs_error
    ));
    table.headers(["apps", "scores", "rule", "measured"]);
    for p in &result.points {
        table.row([
            format!("{} + {}", p.apps[0], p.apps[1]),
            format!("{} / {}", f2(p.scores[0]), f2(p.scores[1])),
            f2(p.predicted_combined),
            f2(p.measured_combined),
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
    fn a1_smaller_epsilon_costs_more() {
        let result = run_interp(&fast_cfg()).expect("runs");
        let brute: Vec<&EpsilonPoint> = result
            .points
            .iter()
            .filter(|p| p.algorithm == "binary-brute")
            .collect();
        assert_eq!(brute.len(), 2);
        assert!(
            brute[0].cost_pct >= brute[1].cost_pct,
            "ε=0.01 ({}) must cost at least as much as ε=0.08 ({})",
            brute[0].cost_pct,
            brute[1].cost_pct
        );
    }

    #[test]
    fn a2_more_iterations_never_hurt() {
        let result = run_sa(&fast_cfg()).expect("runs");
        let greedy: Vec<&SearchPoint> = result
            .points
            .iter()
            .filter(|p| p.rule == "greedy")
            .collect();
        assert!(greedy[1].predicted_total <= greedy[0].predicted_total + 1e-9);
    }

    #[test]
    fn a3_reports_selection_per_sample_count() {
        let result = run_samples(&fast_cfg()).expect("runs");
        assert_eq!(result.points.len(), 2);
        assert!(!result.reference_policy.is_empty());
    }

    #[test]
    fn a4_rule_tracks_measured_combination() {
        let result = run_multiapp(&fast_cfg()).expect("runs");
        assert!(
            result.mean_abs_error < 1.5,
            "combination rule should be within ~1.5 levels, got {:.2}",
            result.mean_abs_error
        );
        // The S+S → S+1 shape: equal-score combination exceeds the solo
        // score.
        let equal = &result.points[0];
        assert!(equal.measured_combined > equal.scores[0]);
    }

    #[test]
    fn renders() {
        let cfg = fast_cfg();
        assert!(render_interp(&run_interp(&cfg).expect("runs")).contains("A1"));
        assert!(render_sa(&run_sa(&cfg).expect("runs")).contains("A2"));
        assert!(render_samples(&run_samples(&cfg).expect("runs")).contains("A3"));
        assert!(render_multiapp(&run_multiapp(&cfg).expect("runs")).contains("A4"));
    }
}
