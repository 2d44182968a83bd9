//! End-to-end tests of the extension features working together: model
//! store → placement, synthetic workloads → profiling, online refinement
//! on live co-runs, multi-tenant hosts against the simulator.

use icm::core::model::ModelBuilder;
use icm::core::online::OnlineModel;
use icm::core::{combine_scores, Calibration, ModelStore};
use icm::placement::{
    anneal_estimator, AcceptRule, AnnealConfig, Estimator, PlacementProblem, SearchGoal,
};
use icm::simcluster::{Deployment, Placement};
use icm::workloads::{Catalog, PropagationClass, SyntheticWorkload, TestbedBuilder};

#[test]
fn stored_fleet_drives_placement_after_reload() {
    let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(61).build();
    let apps = ["M.milc", "C.libq", "H.KM", "N.cg"];
    let mut store = ModelStore::new();
    for app in apps {
        store.insert(
            ModelBuilder::new(app)
                .hosts(4)
                .policy_samples(8)
                .build(&mut testbed)
                .expect("builds"),
        );
    }
    // Round-trip through bytes, as a scheduler restart would.
    let mut buffer = Vec::new();
    store.save_to(&mut buffer).expect("saves");
    let store = ModelStore::load_from(buffer.as_slice()).expect("loads");

    let problem = PlacementProblem::paper_default(apps.iter().map(|a| (*a).to_owned()).collect())
        .expect("valid");
    let estimator = Estimator::from_map(&problem, store.models()).expect("valid");
    // Metropolis acceptance: strict hill climbing can stall with the
    // aggressor still on the sensitive app's hosts (see
    // `icm_placement::annealing`), which this test asserts against.
    let result = anneal_estimator(
        &estimator,
        SearchGoal::MinWeightedTotal,
        &AnnealConfig {
            iterations: 800,
            accept: AcceptRule::Metropolis {
                initial_temperature: 0.5,
                cooling: 0.999,
            },
            ..AnnealConfig::default()
        },
        &icm_obs::Tracer::disabled(),
    )
    .expect("search runs");
    assert!(result.cost > 0.0);
    // The reloaded models must drive the search to a placement clearly
    // better than chance. (Which apps pair up in the optimum depends on
    // the profiled curves — for these models the best pattern co-locates
    // the two tolerant heavyweights — so the robust end-to-end assertion
    // is the cost, not a specific pairing.)
    let mut rng = icm::rng::Rng::from_seed(0xE2E_0001);
    let random_mean = (0..20)
        .map(|_| {
            let s = icm::placement::PlacementState::random(&problem, &mut rng);
            estimator.estimate(&s).expect("estimates").weighted_total
        })
        .sum::<f64>()
        / 20.0;
    assert!(
        result.cost < random_mean,
        "search ({}) must beat average random placement ({random_mean})",
        result.cost
    );
}

#[test]
fn synthetic_workload_profiles_like_a_catalog_app() {
    let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(67).build();
    let synthetic = SyntheticWorkload::new("tenant-x")
        .intensity(0.5)
        .sensitivity(0.7)
        .propagation(PropagationClass::High)
        .build()
        .expect("builds");
    testbed.sim_mut().register_app(synthetic.app().clone());
    let model = ModelBuilder::new("tenant-x")
        .policy_samples(10)
        .build(&mut testbed)
        .expect("builds");
    assert!(
        model.bubble_score() > 1.0,
        "intensity 0.5 generates pressure"
    );
    // High-propagation: one pressured node causes most of the damage.
    let t = model.propagation();
    let frac = (t.at(8, 1) - 1.0) / (t.at(8, 8) - 1.0);
    assert!(
        frac > 0.55,
        "synthetic high-propagation phenotype, got {frac:.2}"
    );
}

#[test]
fn online_model_tracks_live_drift() {
    let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(73).build();
    let model = ModelBuilder::new("M.Gems")
        .policy_samples(10)
        .build(&mut testbed)
        .expect("builds");
    let score = Calibration::measure(&mut testbed)
        .and_then(|c| c.score(&mut testbed, "S.WC", 3))
        .expect("scores");
    let pressures = vec![score; model.hosts()];
    let mut online = OnlineModel::new(model.clone());
    let mut static_err = 0.0;
    let mut online_err = 0.0;
    let runs = 10;
    for _ in 0..runs {
        let (seconds, _) = testbed.sim_mut().run_pair("M.Gems", "S.WC").expect("runs");
        let actual = seconds / model.solo_seconds();
        // Evaluate *before* observing, so the online model only ever uses
        // past information.
        static_err += ((model.predict(&pressures) - actual) / actual).abs();
        online_err +=
            ((online.predict_for("S.WC", &pressures).expect("valid") - actual) / actual).abs();
        online
            .observe_for("S.WC", &pressures, actual)
            .expect("valid");
    }
    assert!(
        online_err < static_err,
        "online ({:.3}) must beat static ({:.3}) even counting warm-up",
        online_err / runs as f64,
        static_err / runs as f64
    );
}

#[test]
fn three_tenant_host_prediction_verified_against_simulator() {
    let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(79).build();
    let target = "N.cg";
    let model = ModelBuilder::new(target)
        .policy_samples(10)
        .build(&mut testbed)
        .expect("builds");
    let calibration = Calibration::measure(&mut testbed).expect("calibrates");
    let score_a = calibration
        .score(&mut testbed, "M.zeus", 3)
        .expect("scores");
    let score_b = calibration.score(&mut testbed, "H.KM", 3).expect("scores");
    let combined = combine_scores(&[score_a, score_b]);
    let predicted = model.predict(&vec![combined; model.hosts()]);

    let hosts: Vec<usize> = (0..8).collect();
    let mut total = 0.0;
    for _ in 0..3 {
        let runs = testbed
            .sim_mut()
            .run_deployment(&Deployment::of_placements(vec![
                Placement::new(target, hosts.clone()),
                Placement::new("M.zeus", hosts.clone()),
                Placement::new("H.KM", hosts.clone()),
            ]))
            .expect("runs");
        total += runs[0].seconds;
    }
    let actual = total / 3.0 / model.solo_seconds();
    let err = ((predicted - actual) / actual).abs();
    assert!(
        err < 0.12,
        "combined-score prediction {predicted:.3} vs measured {actual:.3} ({:.0}% off)",
        err * 100.0
    );
}
