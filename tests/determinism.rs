//! Reproducibility guarantees: everything is a pure function of the
//! seed.

use icm::core::model::ModelBuilder;
use icm::core::Testbed;
use icm::experiments::{ExpConfig, Experiment};
use icm::workloads::{Catalog, TestbedBuilder};

#[test]
fn identical_seeds_give_identical_measurement_histories() {
    let catalog = Catalog::paper();
    let mut a = TestbedBuilder::new(&catalog).seed(99).build();
    let mut b = TestbedBuilder::new(&catalog).seed(99).build();
    for app in ["M.milc", "H.KM", "C.libq"] {
        for _ in 0..3 {
            assert_eq!(
                a.run_app(app, &[2.0; 8]).expect("runs"),
                b.run_app(app, &[2.0; 8]).expect("runs"),
                "{app} diverged"
            );
        }
    }
}

#[test]
fn different_seeds_give_different_noise() {
    let catalog = Catalog::paper();
    let mut a = TestbedBuilder::new(&catalog).seed(1).build();
    let mut b = TestbedBuilder::new(&catalog).seed(2).build();
    let ta = a.run_app("M.milc", &[2.0; 8]).expect("runs");
    let tb = b.run_app("M.milc", &[2.0; 8]).expect("runs");
    assert_ne!(ta, tb);
    // But only by noise, not by behaviour.
    assert!((ta - tb).abs() / ta < 0.1);
}

#[test]
fn model_building_is_reproducible() {
    let build = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(4).build();
        ModelBuilder::new("M.zeus")
            .policy_samples(8)
            .seed(6)
            .build(&mut tb)
            .expect("builds")
    };
    let m1 = build();
    let m2 = build();
    assert_eq!(m1.bubble_score(), m2.bubble_score());
    assert_eq!(m1.policy(), m2.policy());
    assert_eq!(
        m1.predict(&[3.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 2.0]),
        m2.predict(&[3.0, 1.0, 0.0, 0.0, 5.0, 0.0, 0.0, 2.0])
    );
}

#[test]
fn profiler_json_is_byte_identical_across_runs() {
    // The whole point of the vendored RNG: two fresh processes-worth of
    // state, same seeds, must persist *byte-identical* artifacts — not
    // just behaviourally equivalent ones.
    let profile = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(17).build();
        let model = ModelBuilder::new("C.libq")
            .policy_samples(8)
            .seed(19)
            .build(&mut tb)
            .expect("builds");
        icm::json::to_string_pretty(&model)
    };
    assert_eq!(profile(), profile(), "profiler JSON must not drift");
}

#[test]
fn placement_json_is_byte_identical_across_runs() {
    use icm::placement::{
        anneal_estimator, AnnealConfig, Estimator, PlacementProblem, RuntimePredictor, SearchGoal,
    };
    let search = || {
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(23).build();
        let apps = ["M.milc", "C.libq", "H.KM", "N.cg"];
        let models: Vec<_> = apps
            .iter()
            .map(|app| {
                ModelBuilder::new(*app)
                    .hosts(4)
                    .policy_samples(6)
                    .build(&mut tb)
                    .expect("builds")
            })
            .collect();
        let problem =
            PlacementProblem::paper_default(apps.iter().map(|a| (*a).to_owned()).collect())
                .expect("valid");
        let refs: Vec<&dyn RuntimePredictor> =
            models.iter().map(|m| m as &dyn RuntimePredictor).collect();
        let estimator = Estimator::new(&problem, refs).expect("valid");
        let result = anneal_estimator(
            &estimator,
            SearchGoal::MinWeightedTotal,
            &AnnealConfig {
                iterations: 400,
                ..AnnealConfig::default()
            },
            &icm_obs::Tracer::disabled(),
        )
        .expect("search runs");
        icm::json::to_string_pretty(&result)
    };
    assert_eq!(search(), search(), "placement JSON must not drift");
}

#[test]
fn experiment_outputs_are_reproducible() {
    let cfg = ExpConfig {
        seed: 12,
        fast: true,
    };
    for exp in [Experiment::Fig2, Experiment::Table4] {
        let first = exp.run(&cfg).expect("runs");
        let second = exp.run(&cfg).expect("runs");
        assert_eq!(first, second, "{} not reproducible", exp.id());
    }
}

#[test]
fn experiment_seed_changes_output() {
    let a = Experiment::Table4
        .run(&ExpConfig {
            seed: 1,
            fast: true,
        })
        .expect("runs");
    let b = Experiment::Table4
        .run(&ExpConfig {
            seed: 2,
            fast: true,
        })
        .expect("runs");
    assert_ne!(a, b, "different seeds must change measured values");
}
