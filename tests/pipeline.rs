//! End-to-end pipeline tests spanning the whole workspace: simulate →
//! profile → model → predict → validate.

use icm::core::model::ModelBuilder;
use icm::core::{Calibration, NaiveModel, ProfilingAlgorithm, Testbed};
use icm::workloads::{Catalog, TestbedBuilder};

fn testbed(seed: u64) -> icm::workloads::SimTestbedAdapter {
    TestbedBuilder::new(&Catalog::paper()).seed(seed).build()
}

#[test]
fn profile_model_predict_validate_round_trip() {
    let mut tb = testbed(101);
    let model = ModelBuilder::new("M.milc")
        .algorithm(ProfilingAlgorithm::BinaryOptimized)
        .policy_samples(16)
        .seed(1)
        .build(&mut tb)
        .expect("model builds");

    // Validate against fresh measurements the model has never seen.
    let solo = model.solo_seconds();
    for (pressures, label) in [
        (
            vec![8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0],
            "full pressure",
        ),
        (vec![6.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], "one node"),
        (
            vec![4.0, 2.0, 7.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            "heterogeneous",
        ),
    ] {
        let measured = tb.run_app("M.milc", &pressures).expect("runs") / solo;
        let predicted = model.predict(&pressures);
        let err = ((predicted - measured) / measured).abs();
        assert!(
            err < 0.12,
            "{label}: predicted {predicted:.3} vs measured {measured:.3} ({:.1}% off)",
            err * 100.0
        );
    }
}

#[test]
fn all_profiling_algorithms_build_usable_models() {
    for algorithm in [
        ProfilingAlgorithm::Full,
        ProfilingAlgorithm::BinaryBrute,
        ProfilingAlgorithm::BinaryOptimized,
        ProfilingAlgorithm::random30(),
        ProfilingAlgorithm::random50(),
    ] {
        let mut tb = testbed(55);
        let model = ModelBuilder::new("N.cg")
            .algorithm(algorithm)
            .policy_samples(10)
            .build(&mut tb)
            .unwrap_or_else(|e| panic!("{}: {e}", algorithm.name()));
        let full = model.predict(&[8.0; 8]);
        assert!(
            full > 1.3,
            "{}: full-pressure prediction {full} too tame",
            algorithm.name()
        );
        let none = model.predict(&[0.0; 8]);
        assert!(
            (none - 1.0).abs() < 0.05,
            "{}: baseline {none}",
            algorithm.name()
        );
    }
}

#[test]
fn naive_model_underestimates_coupled_apps_on_the_real_testbed() {
    // The Fig. 2 motivation as an integration test.
    let mut tb = testbed(7);
    let model = ModelBuilder::new("M.lmps")
        .policy_samples(12)
        .build(&mut tb)
        .expect("model builds");
    let naive = NaiveModel::from_model(&model);
    let solo = model.solo_seconds();
    let mut one = vec![0.0; 8];
    one[7] = 8.0;
    let measured = tb.run_app("M.lmps", &one).expect("runs") / solo;
    assert!(
        naive.predict(&one) < measured - 0.3,
        "naive {} should badly undershoot measured {measured}",
        naive.predict(&one)
    );
    let full_model_err = ((model.predict(&one) - measured) / measured).abs();
    assert!(full_model_err < 0.1, "full model error {full_model_err}");
}

#[test]
fn bubble_scores_order_matches_aggressiveness() {
    let mut tb = testbed(31);
    let calibration = Calibration::measure(&mut tb).expect("calibrates");
    let mut score = |app| calibration.score(&mut tb, app, 3).expect("scores");
    let (libq, milc, hkm) = (score("C.libq"), score("M.milc"), score("H.KM"));
    assert!(
        libq > milc && milc > hkm,
        "libq {libq} > milc {milc} > hkm {hkm}"
    );

    // And the scores actually predict cross-app interference: a model
    // for zeus + the scores alone ranks co-runners correctly.
    let model = ModelBuilder::new("M.zeus")
        .policy_samples(10)
        .build(&mut tb)
        .expect("model builds");
    let with = |score: f64| model.predict(&[score; 8]);
    assert!(with(libq) > with(milc));
    assert!(with(milc) > with(hkm));
}

#[test]
fn model_spans_and_cluster_spans_compose() {
    // A model profiled at 4-host span predicts 4-length vectors; the same
    // app can also be modeled at full span.
    let mut tb = testbed(77);
    let small = ModelBuilder::new("M.lu")
        .hosts(4)
        .policy_samples(8)
        .build(&mut tb)
        .expect("builds");
    let large = ModelBuilder::new("M.lu")
        .policy_samples(8)
        .build(&mut tb)
        .expect("builds");
    assert_eq!(small.hosts(), 4);
    assert_eq!(large.hosts(), 8);
    assert!(
        small.try_predict(&[3.0; 8]).is_err(),
        "span mismatch rejected"
    );
    let s4 = small.predict(&[3.0; 4]);
    let s8 = large.predict(&[3.0; 8]);
    // Full homogeneous interference should look similar at either span.
    assert!(
        (s4 - s8).abs() / s8 < 0.15,
        "homogeneous full-pressure predictions should agree: {s4} vs {s8}"
    );
}
