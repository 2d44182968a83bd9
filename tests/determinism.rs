//! Reproducibility guarantees: everything is a pure function of the
//! seed.

use icm::core::model::ModelBuilder;
use icm::core::{ModelError, ProfilingAlgorithm, Testbed};
use icm::experiments::{ExpConfig, Experiment};
use icm::workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};
use icm_obs::{JsonlSink, SharedBuf, Tracer};

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

/// The simulated testbed with every batch split into one-run batches:
/// what a testbed that measures one run at a time does.
struct OneRunAtATime(SimTestbedAdapter);

impl Testbed for OneRunAtATime {
    fn cluster_hosts(&self) -> usize {
        self.0.cluster_hosts()
    }

    fn max_pressure(&self) -> usize {
        self.0.max_pressure()
    }

    fn run_apps(&mut self, app: &str, pressures: &[Vec<f64>]) -> Result<Vec<f64>, ModelError> {
        pressures.iter().map(|p| self.0.run_app(app, p)).collect()
    }

    fn reporter_slowdown_with_app(&mut self, app: &str) -> Result<f64, ModelError> {
        self.0.reporter_slowdown_with_app(app)
    }

    fn reporter_slowdown_with_bubble(&mut self, pressure: f64) -> Result<f64, ModelError> {
        self.0.reporter_slowdown_with_bubble(pressure)
    }
}

#[test]
fn batched_model_building_matches_one_run_at_a_time_byte_for_byte() {
    // The daemon's fleet, built as a full-mode daemon start builds it.
    let build = |batched: bool| {
        let mut adapter = TestbedBuilder::new(&Catalog::paper()).seed(7).build();
        let buf = SharedBuf::new();
        let tracer = Tracer::with_sink(JsonlSink::new(buf.clone()));
        adapter.sim_mut().set_tracer(tracer.clone());
        let mut one_at_a_time = OneRunAtATime(adapter.clone());
        let testbed: &mut dyn Testbed = if batched {
            &mut adapter
        } else {
            &mut one_at_a_time
        };
        let models: Vec<String> = ["M.milc", "M.Gems", "H.KM"]
            .into_iter()
            .map(|app| {
                let model = ModelBuilder::new(app)
                    .algorithm(ProfilingAlgorithm::BinaryOptimized)
                    .policy_samples(60)
                    .solo_repeats(3)
                    .seed(7u64.wrapping_add(0x40DE1))
                    .hosts(4)
                    .tracer(tracer.clone())
                    .build(testbed)
                    .expect("builds");
                icm::json::to_string(&model)
            })
            .collect();
        let sim = if batched { &adapter } else { &one_at_a_time.0 };
        tracer.flush();
        (
            models,
            icm::json::to_string(&sim.sim().snapshot()),
            buf.text(),
        )
    };
    let (batched, one_at_a_time) = (build(true), build(false));
    assert_eq!(batched.0, one_at_a_time.0, "model JSON");
    assert!(batched.1 == one_at_a_time.1, "testbed snapshot");
    assert!(batched.2 == one_at_a_time.2, "trace bytes");
    assert!(
        batched.2.contains("\"kind\":\"bubble\""),
        "the trace records the runs"
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
