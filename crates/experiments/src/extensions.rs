//! Extension studies beyond the paper's evaluation — each implements one
//! of the §4.4 limitations / future-work directions and quantifies it:
//!
//! * **ext-online** — online model refinement (the "static profiling"
//!   limitation): keyed corrections learned from observed runs rescue
//!   the M.Gems mispredictions against volatile co-runners.
//! * **ext-multiapp** — three tenants per host (the "pairwise
//!   interaction" limitation): predictions using the log-domain score
//!   combination versus a pairwise-max approximation.
//! * **ext-energy** — the conclusion's wasted-CPU use case: placement
//!   minimizing interference-burned node-seconds.
//! * **ext-phases** — phase-variable sensitivity (the "static profiling"
//!   limitation's other half): how static-model error grows with phase
//!   amplitude.

use icm_core::model::ModelBuilder;
use icm_core::online::OnlineModel;
use icm_core::{combine_scores, heterogeneous_setting, Calibration, Testbed};
use icm_placement::{energy, AnnealConfig, Estimator, PlacementState};
use icm_rng::Rng;
use icm_simcluster::{Deployment, PhaseModulation, Placement};

use crate::context::{private_testbed, score_each, ExpConfig, ExpError};
use crate::placement_common::MixContext;
use crate::table::{f2, f3, pct, Table};

// --------------------------------------------------------- ext-online --

/// Static vs online error for one co-runner.
#[derive(Debug, Clone, PartialEq)]
pub struct OnlinePoint {
    /// Co-runner name.
    pub corunner: String,
    /// Static-model mean error (%) over the evaluation runs.
    pub static_error: f64,
    /// Online-model mean error (%) after warm-up observations.
    pub online_error: f64,
    /// Number of warm-up observations.
    pub warmup: usize,
}

icm_json::impl_json!(struct OnlinePoint { corunner, static_error, online_error, warmup });

/// ext-online output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtOnline {
    /// Target application (M.Gems — the hard case).
    pub app: String,
    /// Per-co-runner comparison.
    pub points: Vec<OnlinePoint>,
}

icm_json::impl_json!(struct ExtOnline { app, points });

/// Runs ext-online: M.Gems predictions against volatile co-runners,
/// before and after feeding the online model a handful of observed runs.
///
/// # Errors
///
/// Propagates failures.
pub fn run_online(cfg: &ExpConfig) -> Result<ExtOnline, ExpError> {
    let app = "M.Gems";
    let corunners: Vec<&str> = if cfg.fast {
        vec!["H.KM", "M.zeus"]
    } else {
        vec!["H.KM", "S.WC", "S.CF", "S.PR", "M.zeus", "M.milc"]
    };
    let warmup = if cfg.fast { 4 } else { 8 };
    let evaluation = if cfg.fast { 4 } else { 8 };

    let mut testbed = private_testbed(cfg);
    let model = ModelBuilder::new(app)
        .policy_samples(cfg.policy_samples())
        .seed(cfg.seed)
        .build(&mut testbed)?;
    let mut online = OnlineModel::new(model.clone());
    let calibration = Calibration::measure(&mut testbed)?;

    let mut points = Vec::with_capacity(corunners.len());
    for corunner in corunners {
        let score = calibration.score(&mut testbed, corunner, cfg.repeats().max(3))?;
        let pressures = vec![score; model.hosts()];

        // Warm-up: observe real co-runs.
        for _ in 0..warmup {
            let (seconds, _) = testbed.sim_mut().run_pair(app, corunner)?;
            online
                .observe_for(corunner, &pressures, seconds / model.solo_seconds())
                .map_err(ExpError::new)?;
        }
        // Evaluation: fresh runs, compare both predictors.
        let mut static_err = 0.0;
        let mut online_err = 0.0;
        for _ in 0..evaluation {
            let (seconds, _) = testbed.sim_mut().run_pair(app, corunner)?;
            let actual = seconds / model.solo_seconds();
            let static_pred = model.predict(&pressures);
            let online_pred = online
                .predict_for(corunner, &pressures)
                .map_err(ExpError::new)?;
            static_err += ((static_pred - actual) / actual).abs() * 100.0;
            online_err += ((online_pred - actual) / actual).abs() * 100.0;
        }
        points.push(OnlinePoint {
            corunner: corunner.to_owned(),
            static_error: static_err / evaluation as f64,
            online_error: online_err / evaluation as f64,
            warmup,
        });
    }
    Ok(ExtOnline {
        app: app.to_owned(),
        points,
    })
}

/// Renders ext-online.
pub fn render_online(result: &ExtOnline) -> String {
    let mut table = Table::new(format!(
        "Extension: online refinement of the {} model (keyed corrections)",
        result.app
    ));
    table.headers(["co-runner", "static error", "online error", "warm-up runs"]);
    for p in &result.points {
        table.row([
            p.corunner.clone(),
            pct(p.static_error),
            pct(p.online_error),
            p.warmup.to_string(),
        ]);
    }
    table.render()
}

// ------------------------------------------------------- ext-multiapp --

/// One three-tenant co-location validation.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiAppPoint {
    /// Target application.
    pub app: String,
    /// The two co-runners sharing every host with it.
    pub corunners: [String; 2],
    /// Measured normalized runtime.
    pub actual: f64,
    /// Prediction with the combined score (log-domain rule).
    pub combined_prediction: f64,
    /// Prediction using only the stronger co-runner (pairwise fallback).
    pub pairwise_prediction: f64,
    /// Errors (%) of the two predictions.
    pub combined_error: f64,
    /// Pairwise-fallback error (%).
    pub pairwise_error: f64,
}

icm_json::impl_json!(struct MultiAppPoint {
    app,
    corunners,
    actual,
    combined_prediction,
    pairwise_prediction,
    combined_error,
    pairwise_error,
});

/// ext-multiapp output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtMultiApp {
    /// Per-triple validations.
    pub points: Vec<MultiAppPoint>,
    /// Mean error of the combined-score prediction.
    pub combined_mean: f64,
    /// Mean error of the pairwise fallback.
    pub pairwise_mean: f64,
}

icm_json::impl_json!(struct ExtMultiApp { points, combined_mean, pairwise_mean });

/// Runs ext-multiapp: three applications fully co-located; predictions
/// for the target use either the combined score of both co-runners
/// (§4.4 extension) or only the stronger one (pairwise assumption).
///
/// # Errors
///
/// Propagates failures.
pub fn run_multiapp(cfg: &ExpConfig) -> Result<ExtMultiApp, ExpError> {
    let triples: &[(&str, &str, &str)] = if cfg.fast {
        &[("M.milc", "M.zeus", "H.KM")]
    } else {
        &[
            ("M.milc", "M.zeus", "H.KM"),
            ("N.cg", "M.lesl", "S.PR"),
            ("M.lu", "M.zeus", "M.zeus"),
            ("M.lesl", "C.cact", "H.KM"),
            ("N.mg", "M.lmps", "S.CF"),
        ]
    };
    let mut testbed = private_testbed(cfg);
    let calibration = Calibration::measure(&mut testbed)?;
    let scores = score_each(
        &calibration,
        &mut testbed,
        triples.iter().flat_map(|&(_, a, b)| [a, b]),
        cfg.repeats().max(3),
    )?;
    let mut points = Vec::with_capacity(triples.len());
    for &(target, co_a, co_b) in triples {
        let model = ModelBuilder::new(target)
            .policy_samples(cfg.policy_samples().min(20))
            .seed(cfg.seed)
            .build(&mut testbed)?;
        let (score_a, score_b) = (scores[co_a], scores[co_b]);

        // Actual: all three apps on every host.
        let hosts = testbed.cluster_hosts();
        let all: Vec<usize> = (0..hosts).collect();
        let mut total = 0.0;
        for _ in 0..cfg.repeats() {
            let runs = testbed
                .sim_mut()
                .run_deployment(&Deployment::of_placements(vec![
                    Placement::new(target, all.clone()),
                    Placement::new(co_a, all.clone()),
                    Placement::new(co_b, all.clone()),
                ]))?;
            total += runs[0].seconds;
        }
        let actual = total / cfg.repeats() as f64 / model.solo_seconds();

        let combined = combine_scores(&[score_a, score_b]);
        let combined_prediction = model.predict(&vec![combined; model.hosts()]);
        let pairwise_prediction = model.predict(&vec![score_a.max(score_b); model.hosts()]);
        points.push(MultiAppPoint {
            app: target.to_owned(),
            corunners: [co_a.to_owned(), co_b.to_owned()],
            actual,
            combined_prediction,
            pairwise_prediction,
            combined_error: ((combined_prediction - actual) / actual).abs() * 100.0,
            pairwise_error: ((pairwise_prediction - actual) / actual).abs() * 100.0,
        });
    }
    let combined_mean = points.iter().map(|p| p.combined_error).sum::<f64>() / points.len() as f64;
    let pairwise_mean = points.iter().map(|p| p.pairwise_error).sum::<f64>() / points.len() as f64;
    Ok(ExtMultiApp {
        points,
        combined_mean,
        pairwise_mean,
    })
}

/// Renders ext-multiapp.
pub fn render_multiapp(result: &ExtMultiApp) -> String {
    let mut table = Table::new(format!(
        "Extension: 3 tenants per host — combined-score {} vs pairwise-max {} mean error",
        pct(result.combined_mean),
        pct(result.pairwise_mean)
    ));
    table.headers(["target", "co-runners", "actual", "combined", "pairwise"]);
    for p in &result.points {
        table.row([
            p.app.clone(),
            format!("{} + {}", p.corunners[0], p.corunners[1]),
            f3(p.actual),
            format!("{} ({})", f3(p.combined_prediction), pct(p.combined_error)),
            format!("{} ({})", f3(p.pairwise_prediction), pct(p.pairwise_error)),
        ]);
    }
    table.render()
}

// --------------------------------------------------------- ext-energy --

/// ext-energy output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtEnergy {
    /// The mix studied.
    pub mix: [String; 4],
    /// Predicted wasted node-seconds: min-waste placement.
    pub optimized_waste: f64,
    /// Mean predicted waste over random placements.
    pub random_waste: f64,
    /// Measured wasted node-seconds of the optimized placement.
    pub optimized_measured: f64,
    /// Measured wasted node-seconds averaged over random placements.
    pub random_measured: f64,
}

icm_json::impl_json!(struct ExtEnergy {
    mix,
    optimized_waste,
    random_waste,
    optimized_measured,
    random_measured,
});

/// Runs ext-energy: minimize interference-wasted node-seconds for mix
/// HW2 and verify the saving on the simulator.
///
/// # Errors
///
/// Propagates failures.
pub fn run_energy(cfg: &ExpConfig) -> Result<ExtEnergy, ExpError> {
    let workloads: [String; 4] = [
        "M.zeus".into(),
        "C.libq".into(),
        "H.KM".into(),
        "M.Gems".into(),
    ];
    let mut testbed = private_testbed(cfg);
    let ctx = MixContext::build(&mut testbed, &workloads, cfg)?;
    let estimator = Estimator::new(&ctx.problem, ctx.model_predictors())?;

    let optimized = energy::place_min_waste(
        &estimator,
        &AnnealConfig {
            iterations: if cfg.fast { 600 } else { 4000 },
            seed: cfg.seed ^ 0xE6E,
            ..AnnealConfig::default()
        },
    )?;
    let optimized_waste = optimized.cost;

    let samples = if cfg.fast { 3 } else { 8 };
    let mut rng = Rng::from_seed(cfg.seed ^ 0xE6F);
    let mut random_waste = 0.0;
    let mut random_measured = 0.0;
    for _ in 0..samples {
        let state = PlacementState::random(&ctx.problem, &mut rng);
        random_waste += energy::estimate_waste(&estimator, &state)?.total_wasted;
        random_measured += measured_waste(&ctx, &mut testbed, &state, cfg)?;
    }

    Ok(ExtEnergy {
        mix: workloads,
        optimized_waste,
        random_waste: random_waste / samples as f64,
        optimized_measured: measured_waste(&ctx, &mut testbed, &optimized.state, cfg)?,
        random_measured: random_measured / samples as f64,
    })
}

fn measured_waste(
    ctx: &MixContext,
    testbed: &mut icm_workloads::SimTestbedAdapter,
    state: &PlacementState,
    cfg: &ExpConfig,
) -> Result<f64, ExpError> {
    let times = ctx.ground_truth(testbed, state, cfg)?;
    let slots = ctx.problem.slots_per_workload() as f64;
    Ok(times
        .iter()
        .enumerate()
        .map(|(i, &t)| {
            let name = &ctx.problem.workloads()[i];
            slots * ctx.models[name].solo_seconds() * (t - 1.0).max(0.0)
        })
        .sum())
}

/// Renders ext-energy.
pub fn render_energy(result: &ExtEnergy) -> String {
    let mut table = Table::new(format!(
        "Extension: wasted-CPU placement (mix {:?})",
        result.mix
    ));
    table.headers([
        "placement",
        "predicted waste (node·s)",
        "measured waste (node·s)",
    ]);
    table.row([
        "min-waste".to_string(),
        f2(result.optimized_waste),
        f2(result.optimized_measured),
    ]);
    table.row([
        "random (mean)".to_string(),
        f2(result.random_waste),
        f2(result.random_measured),
    ]);
    table.render()
}

// --------------------------------------------------------- ext-phases --

/// Static-model error at one phase amplitude.
#[derive(Debug, Clone, PartialEq)]
pub struct PhasePoint {
    /// Phase-sensitivity amplitude.
    pub amplitude: f64,
    /// Mean validation error (%) over heterogeneous configurations.
    pub error: f64,
}

icm_json::impl_json!(struct PhasePoint { amplitude, error });

/// ext-phases output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtPhases {
    /// Base application the variants derive from.
    pub app: String,
    /// Error vs amplitude.
    pub points: Vec<PhasePoint>,
}

icm_json::impl_json!(struct ExtPhases { app, points });

/// Runs ext-phases: derive phase-modulated variants of `M.milc`, build a
/// static model for each, and measure how validation error grows with
/// the amplitude of phase-varying sensitivity.
///
/// # Errors
///
/// Propagates failures.
pub fn run_phases(cfg: &ExpConfig) -> Result<ExtPhases, ExpError> {
    let base = "M.milc";
    let amplitudes: &[f64] = if cfg.fast {
        &[0.0, 0.8]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8]
    };
    let validations = if cfg.fast { 6 } else { 16 };

    let mut points = Vec::with_capacity(amplitudes.len());
    for &amplitude in amplitudes {
        let mut testbed = private_testbed(cfg);
        let name = format!("{base}-phased");
        {
            let catalog = icm_workloads::Catalog::paper();
            let spec = catalog.get(base).expect("base app exists").app().clone();
            let mut builder = icm_simcluster::AppSpec::builder(&name);
            builder
                .base_runtime_s(spec.base_runtime_s())
                .worker_profile(spec.worker_profile())
                .pattern(spec.pattern())
                .master(spec.master())
                .io_sensitivity(spec.io_sensitivity())
                .cpu_volatility(spec.cpu_volatility());
            if amplitude > 0.0 {
                builder.phase_modulation(Some(PhaseModulation {
                    amplitude,
                    period: 6,
                }));
            }
            testbed
                .sim_mut()
                .register_app(builder.build().map_err(ExpError::new)?);
        }
        let model = ModelBuilder::new(&name)
            .policy_samples(cfg.policy_samples().min(20))
            .seed(cfg.seed)
            .build(&mut testbed)?;

        let mut rng = Rng::from_seed(cfg.seed ^ 0x9A5E);
        let hosts = model.hosts();
        let mut err_total = 0.0;
        for _ in 0..validations {
            let pressures = heterogeneous_setting(&mut rng, hosts, testbed.max_pressure());
            let seconds = testbed.run_app(&name, &pressures)?;
            let actual = seconds / model.solo_seconds();
            let predicted = model.predict(&pressures);
            err_total += ((predicted - actual) / actual).abs() * 100.0;
        }
        points.push(PhasePoint {
            amplitude,
            error: err_total / validations as f64,
        });
    }
    Ok(ExtPhases {
        app: base.to_owned(),
        points,
    })
}

/// Renders ext-phases.
pub fn render_phases(result: &ExtPhases) -> String {
    let mut table = Table::new(format!(
        "Extension: static-model error under phase-varying sensitivity ({} variants)",
        result.app
    ));
    table.headers(["phase amplitude", "mean validation error"]);
    for p in &result.points {
        table.row([f2(p.amplitude), pct(p.error)]);
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
    fn online_refinement_beats_static_for_volatile_corunner() {
        let result = run_online(&fast_cfg()).expect("runs");
        let hkm = result
            .points
            .iter()
            .find(|p| p.corunner == "H.KM")
            .expect("present");
        assert!(
            hkm.online_error < hkm.static_error,
            "online ({:.1}%) must beat static ({:.1}%) for the volatile co-runner",
            hkm.online_error,
            hkm.static_error
        );
        assert!(hkm.online_error < 8.0, "corrected error should be small");
    }

    #[test]
    fn combined_scores_beat_pairwise_for_triples() {
        let result = run_multiapp(&fast_cfg()).expect("runs");
        assert!(
            result.combined_mean < result.pairwise_mean,
            "combined ({:.1}%) must beat pairwise-max ({:.1}%)",
            result.combined_mean,
            result.pairwise_mean
        );
    }

    #[test]
    fn energy_optimization_reduces_measured_waste() {
        let result = run_energy(&fast_cfg()).expect("runs");
        assert!(
            result.optimized_measured < result.random_measured,
            "optimized waste {:.0} must beat random {:.0}",
            result.optimized_measured,
            result.random_measured
        );
        assert!(result.optimized_waste >= 0.0);
    }

    #[test]
    fn phase_amplitude_degrades_static_model() {
        let result = run_phases(&fast_cfg()).expect("runs");
        let at = |a: f64| {
            result
                .points
                .iter()
                .find(|p| (p.amplitude - a).abs() < 1e-9)
                .expect("present")
                .error
        };
        assert!(
            at(0.8) > at(0.0),
            "phase variability must hurt the static model: {:.1}% vs {:.1}%",
            at(0.8),
            at(0.0)
        );
    }

    #[test]
    fn renders() {
        let cfg = fast_cfg();
        assert!(render_online(&run_online(&cfg).expect("runs")).contains("online"));
        assert!(render_multiapp(&run_multiapp(&cfg).expect("runs")).contains("3 tenants"));
        assert!(render_energy(&run_energy(&cfg).expect("runs")).contains("wasted-CPU"));
        assert!(render_phases(&run_phases(&cfg).expect("runs")).contains("phase"));
    }
}

// ------------------------------------------------------- ext-transfer --

/// Model-transfer error for one application.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferPoint {
    /// Application name.
    pub app: String,
    /// Error (%) of a model profiled *on* the dense cluster, validated
    /// on the dense cluster.
    pub native_error: f64,
    /// Error (%) of the private-cluster model transplanted to the dense
    /// cluster unchanged.
    pub transferred_error: f64,
}

icm_json::impl_json!(struct TransferPoint { app, native_error, transferred_error });

/// ext-transfer output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtTransfer {
    /// Per-application comparison.
    pub points: Vec<TransferPoint>,
}

icm_json::impl_json!(struct ExtTransfer { points });

/// Runs ext-transfer: §6 observes that sensitivity curves, policies and
/// scores "are dependent on physical system configurations" — models
/// must be re-profiled per environment. Here a model profiled on the
/// paper's Xeon cluster is transplanted to a denser, cache-poorer host
/// generation and compared against a natively re-profiled model.
///
/// # Errors
///
/// Propagates failures.
pub fn run_transfer(cfg: &ExpConfig) -> Result<ExtTransfer, ExpError> {
    let apps: Vec<&str> = if cfg.fast {
        vec!["M.milc"]
    } else {
        vec!["M.milc", "M.zeus", "N.cg", "H.KM"]
    };
    let validations = if cfg.fast { 6 } else { 16 };

    // The dense next-generation cluster.
    let dense_cluster = icm_simcluster::ClusterSpec::homogeneous(
        8,
        icm_simnode::NodeSpec::dense_node(),
        0.015,
        0.005,
    );

    let mut points = Vec::with_capacity(apps.len());
    for app in apps {
        // Model profiled on the original Xeon cluster.
        let mut xeon_tb = private_testbed(cfg);
        let transferred = ModelBuilder::new(app)
            .policy_samples(cfg.policy_samples().min(20))
            .seed(cfg.seed)
            .build(&mut xeon_tb)?;

        // Model re-profiled natively on the dense cluster.
        let mut dense_tb = icm_workloads::TestbedBuilder::new(&icm_workloads::Catalog::paper())
            .cluster(dense_cluster.clone())
            .seed(cfg.seed.wrapping_add(0xDE45E))
            .build();
        let native = ModelBuilder::new(app)
            .policy_samples(cfg.policy_samples().min(20))
            .seed(cfg.seed)
            .build(&mut dense_tb)?;

        // Validate both against fresh measurements on the dense cluster.
        let mut rng = Rng::from_seed(cfg.seed ^ 0x7A45);
        let hosts = native.hosts();
        let mut native_err = 0.0;
        let mut transferred_err = 0.0;
        for _ in 0..validations {
            let pressures = heterogeneous_setting(&mut rng, hosts, dense_tb.max_pressure());
            let seconds = dense_tb.run_app(app, &pressures)?;
            let actual = seconds / native.solo_seconds();
            let native_pred = native.predict(&pressures);
            // The transplanted model predicts a *normalized* time, so the
            // different solo runtime is already factored out; what breaks
            // is the sensitivity/propagation calibration itself.
            let transferred_pred = transferred.predict(&pressures);
            native_err += ((native_pred - actual) / actual).abs() * 100.0;
            transferred_err += ((transferred_pred - actual) / actual).abs() * 100.0;
        }
        points.push(TransferPoint {
            app: app.to_owned(),
            native_error: native_err / validations as f64,
            transferred_error: transferred_err / validations as f64,
        });
    }
    Ok(ExtTransfer { points })
}

/// Renders ext-transfer.
pub fn render_transfer(result: &ExtTransfer) -> String {
    let mut table = Table::new(
        "Extension: model transfer across host generations (validated on the dense cluster)",
    );
    table.headers(["app", "re-profiled natively", "transplanted from Xeon"]);
    for p in &result.points {
        table.row([p.app.clone(), pct(p.native_error), pct(p.transferred_error)]);
    }
    table.render()
}

#[cfg(test)]
mod transfer_tests {
    use super::*;

    #[test]
    fn transplanted_models_are_worse_than_native() {
        let result = run_transfer(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        let p = &result.points[0];
        assert!(
            p.transferred_error > p.native_error,
            "{}: transplanted ({:.1}%) must be worse than native ({:.1}%)",
            p.app,
            p.transferred_error,
            p.native_error
        );
        assert!(p.native_error < 10.0, "native model stays accurate");
    }

    #[test]
    fn transfer_render() {
        let result = run_transfer(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        assert!(render_transfer(&result).contains("transplanted"));
    }
}

// ---------------------------------------------------------- ext-scale --

/// Placement quality at one cluster scale.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Hosts in the cluster.
    pub hosts: usize,
    /// Workload instances placed.
    pub workloads: usize,
    /// Size of the placement search space (log10 of valid states,
    /// approximated by the multiset-permutation count).
    pub log10_states: f64,
    /// Measured average speedup of the model-guided best placement over
    /// the worst placement.
    pub best_speedup: f64,
    /// Measured average speedup of random placements over the worst.
    pub random_speedup: f64,
}

icm_json::impl_json!(struct ScalePoint {
    hosts,
    workloads,
    log10_states,
    best_speedup,
    random_speedup,
});

/// ext-scale output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtScale {
    /// One point per cluster scale.
    pub points: Vec<ScalePoint>,
}

icm_json::impl_json!(struct ExtScale { points });

/// Runs ext-scale: the paper evaluates placement on 8 hosts with 4
/// workloads; here the same machinery drives a 16-host cluster with 8
/// workload instances, checking that the model-guided search still
/// separates best from worst as the state space explodes.
///
/// # Errors
///
/// Propagates failures.
pub fn run_scale(cfg: &ExpConfig) -> Result<ExtScale, ExpError> {
    // (hosts, workload list). Instances may repeat catalog apps.
    let scenarios: Vec<(usize, Vec<&str>)> = if cfg.fast {
        vec![(8, vec!["N.mg", "N.cg", "H.KM", "M.lmps"])]
    } else {
        vec![
            (8, vec!["N.mg", "N.cg", "H.KM", "M.lmps"]),
            (
                16,
                vec![
                    "N.mg", "N.cg", "H.KM", "M.lmps", "C.libq", "M.Gems", "S.PR", "M.zeus",
                ],
            ),
        ]
    };

    let mut points = Vec::with_capacity(scenarios.len());
    for (hosts, workloads) in scenarios {
        let cluster = icm_simcluster::ClusterSpec::homogeneous(
            hosts,
            icm_simnode::NodeSpec::xeon_e5_2650(),
            0.015,
            0.005,
        );
        let mut testbed = icm_workloads::TestbedBuilder::new(&icm_workloads::Catalog::paper())
            .cluster(cluster)
            .seed(cfg.seed.wrapping_add(hosts as u64))
            .build();

        // Profile each distinct workload at its deployment span.
        let span = hosts * 2 / workloads.len();
        let names: Vec<String> = workloads.iter().map(|w| (*w).to_owned()).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let models = crate::context::build_models(&mut testbed, &refs, Some(span), cfg)?;

        let problem = icm_placement::PlacementProblem::new(hosts, 2, names.clone())?;
        let estimator = icm_placement::Estimator::from_map(&problem, &models)?;
        let config = icm_placement::ThroughputConfig {
            anneal: AnnealConfig {
                iterations: if cfg.fast { 600 } else { 6000 },
                seed: cfg.seed ^ 0x5CA1E,
                ..AnnealConfig::default()
            },
            random_samples: if cfg.fast { 2 } else { 4 },
        };
        let placements = icm_placement::find_placements(&estimator, &config)?;

        // Measure everything on the simulator.
        let measure = |testbed: &mut icm_workloads::SimTestbedAdapter,
                       state: &PlacementState|
         -> Result<Vec<f64>, ExpError> {
            let deployment = icm_simcluster::Deployment::of_placements(
                names
                    .iter()
                    .enumerate()
                    .map(|(i, name)| {
                        icm_simcluster::Placement::new(name.clone(), state.hosts_of(&problem, i))
                    })
                    .collect(),
            );
            let mut totals = vec![0.0; names.len()];
            for _ in 0..cfg.repeats() {
                let runs = testbed.sim_mut().run_deployment(&deployment)?;
                for (t, r) in totals.iter_mut().zip(&runs) {
                    *t += r.seconds;
                }
            }
            Ok(totals
                .iter()
                .enumerate()
                .map(|(i, &t)| t / cfg.repeats() as f64 / models[&names[i]].solo_seconds())
                .collect())
        };
        let worst = measure(&mut testbed, &placements.worst)?;
        let best = measure(&mut testbed, &placements.best)?;
        let mut random_speedup = 0.0;
        for random in &placements.randoms {
            let times = measure(&mut testbed, random)?;
            random_speedup +=
                icm_placement::average_speedup(&times, &worst) / placements.randoms.len() as f64;
        }

        points.push(ScalePoint {
            hosts,
            workloads: names.len(),
            log10_states: log10_multiset_states(hosts * 2, names.len()),
            best_speedup: icm_placement::average_speedup(&best, &worst),
            random_speedup,
        });
    }
    Ok(ExtScale { points })
}

/// log10 of the number of slot assignments (multiset permutations of
/// `slots` slots over `workloads` equally sized groups), ignoring the
/// same-host constraint — an upper bound conveying search-space growth.
fn log10_multiset_states(slots: usize, workloads: usize) -> f64 {
    let per = slots / workloads;
    let ln_fact = |n: usize| -> f64 { (1..=n).map(|k| (k as f64).ln()).sum() };
    (ln_fact(slots) - workloads as f64 * ln_fact(per)) / std::f64::consts::LN_10
}

/// Renders ext-scale.
pub fn render_scale(result: &ExtScale) -> String {
    let mut table =
        Table::new("Extension: placement quality vs cluster scale (measured speedup over worst)");
    table.headers(["hosts", "workloads", "log10(states)", "best", "random"]);
    for p in &result.points {
        table.row([
            p.hosts.to_string(),
            p.workloads.to_string(),
            format!("{:.1}", p.log10_states),
            f3(p.best_speedup),
            f3(p.random_speedup),
        ]);
    }
    table.render()
}

#[cfg(test)]
mod scale_tests {
    use super::*;

    #[test]
    fn scale_study_keeps_best_ahead_of_random() {
        let result = run_scale(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        let p = &result.points[0];
        assert!(
            p.best_speedup >= p.random_speedup - 0.02,
            "best ({:.3}) must not lose to random ({:.3})",
            p.best_speedup,
            p.random_speedup
        );
        assert!(p.best_speedup > 1.0);
    }

    #[test]
    fn state_space_math() {
        // 16 slots, 4 workloads of 4: 16!/(4!)^4 = 63,063,000 ≈ 10^7.8
        let log = log10_multiset_states(16, 4);
        assert!((log - 7.8).abs() < 0.1, "got {log}");
    }

    #[test]
    fn scale_render() {
        let result = run_scale(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        assert!(render_scale(&result).contains("cluster scale"));
    }
}

// ------------------------------------------------------ ext-iochannel --

/// ext-iochannel output.
#[derive(Debug, Clone, PartialEq)]
pub struct ExtIoChannel {
    /// Memory-bubble score measured for the shuffle-heavy co-runner
    /// (near zero — the bubble cannot see NIC pressure).
    pub corunner_memory_score: f64,
    /// Measured normalized runtime of the target under NIC saturation.
    pub actual: f64,
    /// The memory-only model's (blind) prediction.
    pub static_prediction: f64,
    /// Static-model error (%).
    pub static_error: f64,
    /// Online-corrected prediction after observing co-runs.
    pub online_prediction: f64,
    /// Online error (%).
    pub online_error: f64,
}

icm_json::impl_json!(struct ExtIoChannel {
    corunner_memory_score,
    actual,
    static_prediction,
    static_error,
    online_prediction,
    online_error,
});

/// Runs ext-iochannel: §2.1 notes the methodology "can be generalized to
/// different types of interferences such as network and disk I/O
/// bandwidth". The simulator implements that second channel; this
/// experiment shows what happens when it is *not* profiled: two
/// shuffle-heavy tenants saturate the NIC, the memory-only bubble
/// assigns the co-runner a near-zero score, the static model predicts
/// "no slowdown" — and the online wrapper recovers the effect from
/// observations. A full fix would be an I/O-dimension bubble, which the
/// profiling machinery supports structurally (any `Testbed` that runs an
/// I/O bubble can reuse Algorithms 1–2 unchanged).
///
/// # Errors
///
/// Propagates failures.
pub fn run_iochannel(cfg: &ExpConfig) -> Result<ExtIoChannel, ExpError> {
    let mut testbed = private_testbed(cfg);

    // Two shuffle-heavy analytics jobs: tiny memory footprint, NIC-bound.
    let shuffle_profile = icm_simnode::MemoryProfile::builder()
        .working_set_mb(3.0)
        .bandwidth_gbps(1.0)
        .miss_bandwidth_gbps(4.0)
        .cache_sensitivity(0.3)
        .bandwidth_sensitivity(0.4)
        .net_gbps(0.85)
        .net_sensitivity(1.0)
        .build()
        .map_err(ExpError::new)?;
    for name in ["shuffle-a", "shuffle-b"] {
        let app = icm_simcluster::AppSpec::builder(name)
            .base_runtime_s(260.0)
            .worker_profile(shuffle_profile)
            .pattern(icm_simcluster::SyncPattern::task_queue(96, 4))
            .master(icm_simcluster::MasterBehavior::Coordinator { demand_frac: 0.2 })
            .cpu_volatility(0.3)
            .build()
            .map_err(ExpError::new)?;
        testbed.sim_mut().register_app(app);
    }

    // Memory-bubble profiling of the target: the model sees a tame app.
    let model = ModelBuilder::new("shuffle-a")
        .policy_samples(cfg.policy_samples().min(16))
        .seed(cfg.seed)
        .build(&mut testbed)?;
    let calibration = Calibration::measure(&mut testbed)?;
    let corunner_memory_score =
        calibration.score(&mut testbed, "shuffle-b", cfg.repeats().max(3))?;
    let pressures = vec![corunner_memory_score; model.hosts()];
    let static_prediction = model.predict(&pressures);

    // Reality: co-locating the two shufflers saturates the NIC.
    let repeats = if cfg.fast { 3 } else { 8 };
    let mut total = 0.0;
    for _ in 0..repeats {
        let (seconds, _) = testbed.sim_mut().run_pair("shuffle-a", "shuffle-b")?;
        total += seconds;
    }
    let actual = total / f64::from(repeats) / model.solo_seconds();

    // Online refinement recovers the unprofiled channel from history.
    let mut online = OnlineModel::new(model.clone());
    for _ in 0..repeats {
        let (seconds, _) = testbed.sim_mut().run_pair("shuffle-a", "shuffle-b")?;
        online
            .observe_for("shuffle-b", &pressures, seconds / model.solo_seconds())
            .map_err(ExpError::new)?;
    }
    let online_prediction = online
        .predict_for("shuffle-b", &pressures)
        .map_err(ExpError::new)?;

    Ok(ExtIoChannel {
        corunner_memory_score,
        actual,
        static_prediction,
        static_error: ((static_prediction - actual) / actual).abs() * 100.0,
        online_prediction,
        online_error: ((online_prediction - actual) / actual).abs() * 100.0,
    })
}

/// Renders ext-iochannel.
pub fn render_iochannel(result: &ExtIoChannel) -> String {
    let mut table = Table::new(
        "Extension: unprofiled I/O channel — NIC-bound tenants the memory bubble cannot see",
    );
    table.headers(["quantity", "value"]);
    table.row([
        "co-runner memory-bubble score".to_string(),
        f2(result.corunner_memory_score),
    ]);
    table.row(["measured co-run slowdown".to_string(), f3(result.actual)]);
    table.row([
        "static (memory-only) prediction".to_string(),
        format!(
            "{} ({})",
            f3(result.static_prediction),
            pct(result.static_error)
        ),
    ]);
    table.row([
        "online-corrected prediction".to_string(),
        format!(
            "{} ({})",
            f3(result.online_prediction),
            pct(result.online_error)
        ),
    ]);
    table.render()
}

#[cfg(test)]
mod iochannel_tests {
    use super::*;

    #[test]
    fn memory_bubble_is_blind_to_nic_pressure() {
        let result = run_iochannel(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        assert!(
            result.corunner_memory_score < 1.0,
            "NIC-bound app must look tame to the memory bubble, scored {:.2}",
            result.corunner_memory_score
        );
        assert!(
            result.actual > 1.15,
            "NIC saturation must visibly slow the co-run, got {:.3}",
            result.actual
        );
        assert!(
            result.static_error > 10.0,
            "the blind model must miss badly, got {:.1}%",
            result.static_error
        );
        assert!(
            result.online_error < result.static_error / 2.0,
            "online correction must recover most of it: {:.1}% vs {:.1}%",
            result.online_error,
            result.static_error
        );
    }

    #[test]
    fn iochannel_render() {
        let result = run_iochannel(&ExpConfig {
            fast: true,
            ..ExpConfig::default()
        })
        .expect("runs");
        assert!(render_iochannel(&result).contains("I/O channel"));
    }
}
