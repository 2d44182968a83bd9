//! **Figure 8 & Figure 9** — end-to-end model validation: predicted vs
//! measured runtimes when two applications are fully co-located on the
//! cluster (§4.3).

use std::collections::BTreeMap;

use icm_core::{Calibration, InterferenceModel, Summary};

use crate::context::{
    all_apps, build_models, distributed_apps, private_testbed, ExpConfig, ExpError,
};
use crate::table::{f3, pct, Table};

/// Validation of one (target, co-runner) pair.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPoint {
    /// Co-runner name.
    pub corunner: String,
    /// Predicted normalized runtime of the target.
    pub predicted: f64,
    /// Measured normalized runtime of the target.
    pub actual: f64,
    /// Absolute percentage error.
    pub error_pct: f64,
}

icm_json::impl_json!(struct PairPoint { corunner, predicted, actual, error_pct });

/// Validation results for one target application.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetValidation {
    /// Target (modeled) application.
    pub app: String,
    /// One point per co-runner.
    pub points: Vec<PairPoint>,
    /// Summary of the absolute percentage errors.
    pub errors: Summary,
}

icm_json::impl_json!(struct TargetValidation { app, points, errors });

/// Fig. 8/9 output.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Result {
    /// Per-target validations (Fig. 8 bars with 25–75% whiskers).
    pub targets: Vec<TargetValidation>,
    /// Measured bubble scores used for predictions.
    pub scores: BTreeMap<String, f64>,
}

icm_json::impl_json!(struct Fig8Result { targets, scores });

/// Runs the pairwise validation.
///
/// For each distributed target, a model is built from bubble profiling
/// only; then the target is co-run with every application (including
/// itself), and the model's prediction — the co-runner's bubble score on
/// every host — is compared with the measurement.
///
/// # Errors
///
/// Propagates testbed and model failures.
pub fn run(cfg: &ExpConfig) -> Result<Fig8Result, ExpError> {
    let mut testbed = private_testbed(cfg);
    let (targets, corunners): (Vec<String>, Vec<String>) = if cfg.fast {
        (
            vec!["M.milc".into(), "M.Gems".into()],
            vec![
                "M.milc".into(),
                "C.libq".into(),
                "H.KM".into(),
                "M.Gems".into(),
            ],
        )
    } else {
        (distributed_apps(), all_apps())
    };

    let target_refs: Vec<&str> = targets.iter().map(String::as_str).collect();
    let models = build_models(&mut testbed, &target_refs, None, cfg)?;

    // A target's score is the one its model build measured; only the
    // other co-runners are scored here.
    let calibration = Calibration::measure(&mut testbed)?;
    let mut scores = BTreeMap::new();
    for corunner in &corunners {
        let score = match models.get(corunner) {
            Some(model) => model.bubble_score(),
            None => calibration.score(&mut testbed, corunner, cfg.repeats().max(3))?,
        };
        scores.insert(corunner.clone(), score);
    }

    let mut validations = Vec::with_capacity(targets.len());
    for target in &targets {
        let model = &models[target];
        let mut points = Vec::with_capacity(corunners.len());
        for corunner in &corunners {
            let point = validate_pair(&mut testbed, model, corunner, scores[corunner], cfg)?;
            points.push(point);
        }
        let errors: Vec<f64> = points.iter().map(|p| p.error_pct).collect();
        validations.push(TargetValidation {
            app: target.clone(),
            errors: Summary::of(&errors),
            points,
        });
    }
    Ok(Fig8Result {
        targets: validations,
        scores,
    })
}

fn validate_pair(
    testbed: &mut icm_workloads::SimTestbedAdapter,
    model: &InterferenceModel,
    corunner: &str,
    score: f64,
    cfg: &ExpConfig,
) -> Result<PairPoint, ExpError> {
    let hosts = model.hosts();
    let mut total = 0.0;
    for _ in 0..cfg.repeats() {
        let (target_s, _) = testbed.sim_mut().run_pair(model.app(), corunner)?;
        total += target_s;
    }
    let actual = total / cfg.repeats() as f64 / model.solo_seconds();
    let predicted = model
        .try_predict(&vec![score; hosts])
        .map_err(ExpError::new)?;
    Ok(PairPoint {
        corunner: corunner.to_owned(),
        predicted,
        actual,
        error_pct: ((predicted - actual) / actual).abs() * 100.0,
    })
}

/// Renders the Fig. 8 view: error summary per target.
pub fn render_fig8(result: &Fig8Result) -> String {
    let mut table = Table::new("Figure 8: pairwise validation error per application");
    table.headers(["app", "mean err", "p25", "p75", "max"]);
    for target in &result.targets {
        table.row([
            target.app.clone(),
            pct(target.errors.mean),
            pct(target.errors.p25),
            pct(target.errors.p75),
            pct(target.errors.max),
        ]);
    }
    table.render()
}

/// Renders the Fig. 9 view: predicted vs actual with `M.Gems` as the
/// co-runner, plus `M.Gems` as the target — the paper's "unpredictable
/// co-runner" detail.
pub fn render_fig9(result: &Fig8Result) -> String {
    let mut out = String::new();
    let mut with_gems = Table::new("Figure 9a: all applications co-running with M.Gems");
    with_gems.headers(["target", "predicted", "actual", "error"]);
    for target in &result.targets {
        if let Some(point) = target.points.iter().find(|p| p.corunner == "M.Gems") {
            with_gems.row([
                target.app.clone(),
                f3(point.predicted),
                f3(point.actual),
                pct(point.error_pct),
            ]);
        }
    }
    out.push_str(&with_gems.render());
    if let Some(gems) = result.targets.iter().find(|t| t.app == "M.Gems") {
        let mut as_target = Table::new("Figure 9b: M.Gems against each co-runner");
        as_target.headers(["co-runner", "predicted", "actual", "error"]);
        for point in &gems.points {
            as_target.row([
                point.corunner.clone(),
                f3(point.predicted),
                f3(point.actual),
                pct(point.error_pct),
            ]);
        }
        out.push('\n');
        out.push_str(&as_target.render());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast() -> Fig8Result {
        run(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs")
    }

    #[test]
    fn predictable_app_validates_tightly() {
        let result = fast();
        let milc = result
            .targets
            .iter()
            .find(|t| t.app == "M.milc")
            .expect("present");
        assert!(
            milc.errors.mean < 10.0,
            "M.milc mean pairwise error {:.1}% too high",
            milc.errors.mean
        );
    }

    #[test]
    fn gems_is_harder_to_predict_than_milc() {
        // Fig. 9's message: M.Gems has elevated error because of its
        // blocked-I/O sensitivity to co-runner CPU fluctuation.
        let result = fast();
        let err = |name: &str| {
            result
                .targets
                .iter()
                .find(|t| t.app == name)
                .expect("present")
                .errors
                .mean
        };
        assert!(
            err("M.Gems") > err("M.milc"),
            "M.Gems ({:.1}%) should validate worse than M.milc ({:.1}%)",
            err("M.Gems"),
            err("M.milc")
        );
    }

    #[test]
    fn predictions_and_measurements_are_sane() {
        let result = fast();
        for target in &result.targets {
            for point in &target.points {
                assert!(point.predicted >= 0.95, "{}/{}", target.app, point.corunner);
                assert!(point.actual >= 0.95, "{}/{}", target.app, point.corunner);
            }
        }
    }

    #[test]
    fn renders_include_gems_panels() {
        let result = fast();
        let fig9 = render_fig9(&result);
        assert!(fig9.contains("Figure 9a"));
        assert!(fig9.contains("Figure 9b"));
        assert!(render_fig8(&result).contains("M.milc"));
    }
}
