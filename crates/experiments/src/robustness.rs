//! **Robustness** — resilient profiling under injected faults.
//!
//! Sweeps the fault-injection rate from 0% to 30% (transient probe
//! failures and stragglers at the rate, measurement corruption at half of
//! it — [`FaultPlan::uniform`]) and, at each rate, rebuilds every
//! application's propagation matrix with the binary-optimized algorithm
//! through the resilient profiling driver. Reports:
//!
//! * **model fidelity** — mean absolute cell error against the faultless
//!   fully-measured matrix;
//! * **profiling-cost inflation** — simulated cluster time (completed
//!   runs + time wasted on killed stragglers + retry backoff) relative to
//!   the fault-free sweep point;
//! * **placement-quality degradation** — a placement chosen by annealing
//!   on the faulty models, priced under the faultless models, relative to
//!   the placement the faultless models would choose.

use icm_core::{
    profile, profile_resilient, MappingPolicy, Probe, ProfilerConfig, ProfilingAlgorithm,
    PropagationMatrix,
};
use icm_obs::Tracer;
use icm_placement::{
    anneal_estimator, AnnealConfig, Estimator, PlacementError, PlacementProblem, RuntimePredictor,
    SearchGoal,
};
use icm_simcluster::FaultPlan;

use crate::context::{distributed_apps, private_testbed, ExpConfig, ExpError};
use crate::table::{pct, Table};

/// One application's profiling outcome at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessApp {
    /// Application name.
    pub app: String,
    /// Mean absolute cell error vs. the faultless full profile, percent.
    pub error_pct: f64,
    /// Cluster seconds the profile cost (completed + wasted + backoff).
    pub cost_seconds: f64,
    /// Measurement attempts issued.
    pub attempts: u64,
    /// Retries after injected failures.
    pub retries: u64,
    /// Settings filled by the conservative fallback.
    pub defaulted: u64,
    /// Percent of matrix cells that are defaulted.
    pub defaulted_pct: f64,
    /// Faults the testbed injected during the profile (probe failures,
    /// timeouts, host-down rejections).
    pub injected_failures: u64,
}

icm_json::impl_json!(struct RobustnessApp {
    app,
    error_pct,
    cost_seconds,
    attempts,
    retries,
    defaulted,
    defaulted_pct,
    injected_failures
});

/// Sweep point: all applications at one fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessPoint {
    /// Injected fault probability, percent.
    pub fault_pct: f64,
    /// Mean model error over applications, percent.
    pub mean_error_pct: f64,
    /// Profiling cost relative to the fault-free point (1.0 at 0%).
    pub cost_inflation: f64,
    /// Mean percent of defaulted cells over applications.
    pub mean_defaulted_pct: f64,
    /// Total retries over applications.
    pub retries: u64,
    /// Total injected failures over applications.
    pub injected_failures: u64,
    /// Truth-priced cost excess of the faulty-model placement over the
    /// faultless-model placement, percent (0 = same quality).
    pub placement_degradation_pct: f64,
    /// Per-application detail.
    pub apps: Vec<RobustnessApp>,
}

icm_json::impl_json!(struct RobustnessPoint {
    fault_pct,
    mean_error_pct,
    cost_inflation,
    mean_defaulted_pct,
    retries,
    injected_failures,
    placement_degradation_pct,
    apps
});

/// Robustness sweep output.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustnessResult {
    /// Sweep points in increasing fault-rate order (first is 0%).
    pub points: Vec<RobustnessPoint>,
}

icm_json::impl_json!(struct RobustnessResult { points });

fn fault_rates(cfg: &ExpConfig) -> Vec<f64> {
    if cfg.fast {
        vec![0.0, 0.10, 0.30]
    } else {
        vec![0.0, 0.05, 0.10, 0.20, 0.30]
    }
}

fn app_names(cfg: &ExpConfig) -> Vec<String> {
    if cfg.fast {
        vec!["M.milc".into(), "M.Gems".into(), "H.KM".into()]
    } else {
        distributed_apps()
    }
}

/// A matrix-backed predictor for the placement sub-study: converts the
/// heterogeneous pressure vector with the N+1-max policy and looks the
/// prediction up in a propagation matrix. Bubble scores are fixed per mix slot so that clean and
/// faulty models disagree only through their *sensitivity* predictions.
struct MatrixPredictor<'a> {
    matrix: &'a PropagationMatrix,
    score: f64,
}

impl RuntimePredictor for MatrixPredictor<'_> {
    fn predict_normalized(&self, pressures: &[f64]) -> Result<f64, PlacementError> {
        let hom = MappingPolicy::NPlus1Max.convert(pressures);
        Ok(self.matrix.predict(hom.pressure, hom.nodes))
    }

    fn bubble_score(&self) -> f64 {
        self.score
    }

    fn solo_seconds(&self) -> f64 {
        100.0
    }
}

/// Fixed per-instance bubble scores for the placement sub-study: one
/// loud, one moderate, two quiet co-runners.
const MIX_SCORES: [f64; 4] = [6.0, 1.5, 3.0, 0.8];

/// Truth-priced weighted total of the annealed best placement under the
/// given predictors.
fn placement_cost(
    problem: &PlacementProblem,
    choose_with: &[MatrixPredictor<'_>],
    price_with: &[MatrixPredictor<'_>],
    cfg: &ExpConfig,
) -> Result<f64, ExpError> {
    let chooser = Estimator::new(
        problem,
        choose_with
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect(),
    )?;
    let pricer = Estimator::new(
        problem,
        price_with
            .iter()
            .map(|p| p as &dyn RuntimePredictor)
            .collect(),
    )?;
    let anneal_cfg = AnnealConfig {
        iterations: if cfg.fast { 400 } else { 2000 },
        seed: cfg.seed ^ 0xFA17,
        ..AnnealConfig::default()
    };
    let result = anneal_estimator(
        &chooser,
        SearchGoal::MinWeightedTotal,
        &anneal_cfg,
        &icm_obs::Tracer::disabled(),
    )?;
    Ok(pricer.estimate(&result.state)?.weighted_total)
}

/// Runs the robustness sweep.
///
/// Ground truth per application is a faultless full profile; every sweep
/// point then re-profiles all applications on a same-seed testbed with a
/// [`FaultPlan::uniform`] at the point's rate, through the resilient
/// driver.
///
/// # Errors
///
/// Propagates testbed and profiling failures.
pub fn run(cfg: &ExpConfig) -> Result<RobustnessResult, ExpError> {
    let apps = app_names(cfg);
    let rates = fault_rates(cfg);
    let hosts = private_testbed(cfg).sim().cluster().hosts();

    // Faultless ground truth, one full profile per application.
    let mut truths: Vec<PropagationMatrix> = Vec::with_capacity(apps.len());
    for app in &apps {
        let mut testbed = private_testbed(cfg);
        let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
        let full = profile(
            &mut probe,
            ProfilingAlgorithm::Full,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )?;
        truths.push(full.matrix);
    }

    // The placement sub-study prices a 4-instance mix; instances cycle
    // through the profiled applications.
    let problem = PlacementProblem::paper_default(
        (0..4)
            .map(|k| format!("slot{k}.{}", apps[k % apps.len()]))
            .collect(),
    )?;
    let truth_predictors: Vec<MatrixPredictor<'_>> = (0..4)
        .map(|k| MatrixPredictor {
            matrix: &truths[k % apps.len()],
            score: MIX_SCORES[k],
        })
        .collect();
    let clean_placement_cost = placement_cost(&problem, &truth_predictors, &truth_predictors, cfg)?;

    let mut points = Vec::with_capacity(rates.len());
    for &rate in &rates {
        let mut app_rows = Vec::with_capacity(apps.len());
        let mut matrices: Vec<PropagationMatrix> = Vec::with_capacity(apps.len());
        for (i, app) in apps.iter().enumerate() {
            let mut testbed = private_testbed(cfg);
            let mut probe = Probe::new(&mut testbed, app, hosts, cfg.repeats())?;
            if rate > 0.0 {
                // Solo baselines above ran on the healthy cluster; the
                // profiling runs below see the faults.
                probe
                    .testbed()
                    .sim_mut()
                    .set_fault_plan(Some(FaultPlan::uniform(rate)));
            }
            let before = probe.testbed().sim().stats();
            let config = ProfilerConfig {
                seed: cfg.seed ^ 0x7AB3,
                ..ProfilerConfig::default()
            };
            let outcome = profile_resilient(
                &mut probe,
                ProfilingAlgorithm::BinaryOptimized,
                &config,
                &Tracer::disabled(),
            )?;
            let after = probe.testbed().sim().stats();
            let cost_seconds = (after.simulated_seconds - before.simulated_seconds)
                + (after.wasted_seconds - before.wasted_seconds)
                + outcome.stats.backoff_seconds;
            let (measured, interpolated, defaulted) = outcome.quality.counts();
            let cells = (measured + interpolated + defaulted) as f64;
            app_rows.push(RobustnessApp {
                app: app.clone(),
                error_pct: outcome.result.matrix.mean_abs_error_pct(&truths[i])?,
                cost_seconds,
                attempts: outcome.stats.attempts,
                retries: outcome.stats.retries,
                defaulted: outcome.stats.defaulted_settings,
                defaulted_pct: defaulted as f64 / cells * 100.0,
                injected_failures: after.injected_failures() - before.injected_failures(),
            });
            matrices.push(outcome.result.matrix);
        }

        let faulty_predictors: Vec<MatrixPredictor<'_>> = (0..4)
            .map(|k| MatrixPredictor {
                matrix: &matrices[k % apps.len()],
                score: MIX_SCORES[k],
            })
            .collect();
        let faulty_cost = placement_cost(&problem, &faulty_predictors, &truth_predictors, cfg)?;
        let placement_degradation_pct =
            ((faulty_cost / clean_placement_cost - 1.0) * 100.0).max(0.0);

        let napps = app_rows.len() as f64;
        points.push(RobustnessPoint {
            fault_pct: rate * 100.0,
            mean_error_pct: app_rows.iter().map(|a| a.error_pct).sum::<f64>() / napps,
            cost_inflation: 0.0, // filled below, relative to the 0% point
            mean_defaulted_pct: app_rows.iter().map(|a| a.defaulted_pct).sum::<f64>() / napps,
            retries: app_rows.iter().map(|a| a.retries).sum(),
            injected_failures: app_rows.iter().map(|a| a.injected_failures).sum(),
            placement_degradation_pct,
            apps: app_rows,
        });
    }

    let base_cost: f64 = points[0].apps.iter().map(|a| a.cost_seconds).sum();
    for point in &mut points {
        let cost: f64 = point.apps.iter().map(|a| a.cost_seconds).sum();
        point.cost_inflation = cost / base_cost;
    }
    Ok(RobustnessResult { points })
}

/// Renders the sweep table.
pub fn render(result: &RobustnessResult) -> String {
    let mut table = Table::new(
        "Robustness: binary-optimized profiling through the resilient driver under injected faults",
    );
    table.headers([
        "fault rate",
        "model error",
        "profiling cost",
        "defaulted cells",
        "retries",
        "injected",
        "placement degr.",
    ]);
    for point in &result.points {
        table.row([
            pct(point.fault_pct),
            pct(point.mean_error_pct),
            format!("{:.2}x", point.cost_inflation),
            pct(point.mean_defaulted_pct),
            point.retries.to_string(),
            point.injected_failures.to_string(),
            pct(point.placement_degradation_pct),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> RobustnessResult {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn sweep_starts_clean_and_degrades_monotonically() {
        let result = fast();
        assert_eq!(result.points.len(), 3);
        assert_eq!(result.points[0].fault_pct, 0.0);
        assert_eq!(result.points[0].retries, 0);
        assert_eq!(result.points[0].injected_failures, 0);
        assert!((result.points[0].cost_inflation - 1.0).abs() < 1e-12);
        assert!(
            result.points[0].mean_error_pct < 5.0,
            "clean model is tight"
        );
        for pair in result.points.windows(2) {
            assert!(
                pair[1].mean_error_pct >= pair[0].mean_error_pct - 0.25,
                "fidelity degrades with the fault rate: {} then {}",
                pair[0].mean_error_pct,
                pair[1].mean_error_pct
            );
            assert!(
                pair[1].cost_inflation >= pair[0].cost_inflation - 0.05,
                "cost inflates with the fault rate"
            );
        }
        let last = result.points.last().expect("points");
        assert!(last.mean_error_pct > result.points[0].mean_error_pct);
        assert!(last.cost_inflation > 1.0);
        assert!(last.retries > 0);
        assert!(last.injected_failures > 0);
    }

    #[test]
    fn faulty_profiles_still_cover_the_full_matrix() {
        let result = fast();
        for point in &result.points {
            for app in &point.apps {
                assert!(
                    app.error_pct.is_finite(),
                    "{} at {}%: model incomplete",
                    app.app,
                    point.fault_pct
                );
                assert!(app.cost_seconds > 0.0);
                assert!(app.defaulted_pct <= 100.0);
            }
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        assert_eq!(fast(), fast());
    }

    #[test]
    fn render_has_expected_shape() {
        let result = fast();
        let text = render(&result);
        assert!(text.contains("fault rate"));
        assert!(text.contains("placement degr."));
        for point in &result.points {
            assert!(text.contains(&pct(point.fault_pct)));
        }
    }
}
