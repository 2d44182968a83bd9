//! Model persistence: a profiled fleet can be serialized, stored and
//! reloaded without behavioural drift — and every persisted type
//! round-trips exactly through the vendored `icm-json` codec, while
//! malformed inputs are rejected instead of silently misparsed.

use icm::core::model::ModelBuilder;
use icm::core::{InterferenceModel, ModelStore, PropagationMatrix, SensitivityCurve};
use icm::placement::{AcceptRule, AnnealConfig, PlacementProblem, PlacementState};
use icm::workloads::{Catalog, TestbedBuilder};

/// Serialize → parse → compare, for any type that is `PartialEq`, in
/// compact and pretty form. The compact text must be canonical: its
/// tree writes it back byte for byte.
fn round_trip<T>(value: &T)
where
    T: icm::json::ToJson + icm::json::FromJson + PartialEq + std::fmt::Debug,
{
    let json = icm::json::to_string(value);
    assert_eq!(
        icm::json::to_value(value).to_text(),
        json,
        "compact text is not canonical"
    );
    let back: T = icm::json::from_str(&json).expect("round-trip parse");
    assert_eq!(&back, value, "value drifted through {json}");
    // Pretty output must parse back to the same value too.
    let pretty: T = icm::json::from_str(&icm::json::to_string_pretty(value)).expect("pretty parse");
    assert_eq!(&pretty, value);
}

#[test]
fn model_fleet_round_trips_through_json() {
    let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(13).build();
    let apps = ["M.milc", "H.KM", "S.PR"];
    let fleet: Vec<InterferenceModel> = apps
        .iter()
        .map(|app| {
            ModelBuilder::new(*app)
                .policy_samples(8)
                .build(&mut tb)
                .expect("builds")
        })
        .collect();

    let json = icm_json::to_string_pretty(&fleet);
    let restored: Vec<InterferenceModel> = icm_json::from_str(&json).expect("deserializes");
    assert_eq!(restored.len(), fleet.len());

    let probe = [4.0, 0.0, 2.0, 0.0, 6.0, 0.0, 0.0, 1.0];
    for (orig, back) in fleet.iter().zip(&restored) {
        assert_eq!(orig.app(), back.app());
        assert_eq!(orig.policy(), back.policy());
        let a = orig.predict(&probe);
        let b = back.predict(&probe);
        assert!(
            (a - b).abs() < 1e-9,
            "{}: prediction drifted through JSON: {a} vs {b}",
            orig.app()
        );
    }
}

#[test]
fn model_json_is_self_describing() {
    let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(13).build();
    let model = ModelBuilder::new("M.zeus")
        .policy_samples(8)
        .build(&mut tb)
        .expect("builds");
    let json = icm_json::to_string(&model);
    // Key fields are visible for external tooling.
    for field in ["bubble_score", "propagation", "policy", "solo_seconds"] {
        assert!(json.contains(field), "JSON lacks `{field}`");
    }
}

#[test]
fn catalog_and_cluster_serialize_for_config_files() {
    let catalog = Catalog::paper();
    let json = icm_json::to_string(catalog.workloads());
    let back: Vec<icm::workloads::WorkloadSpec> = icm_json::from_str(&json).expect("deserializes");
    assert_eq!(back.len(), 18);

    let cluster = icm::simcluster::ClusterSpec::ec2_32();
    let json = icm_json::to_string(&cluster);
    let back: icm::simcluster::ClusterSpec = icm_json::from_str(&json).expect("deserializes");
    assert_eq!(back, cluster);
}

#[test]
fn every_persisted_type_round_trips() {
    // Model-layer records.
    round_trip(&SensitivityCurve::new(vec![1.0, 1.2, 1.45, 1.8]).expect("valid"));
    round_trip(
        &PropagationMatrix::new(vec![vec![1.0, 1.1, 1.2, 1.3], vec![1.0, 1.25, 1.5, 1.75]])
            .expect("valid"),
    );
    let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(29).build();
    let model = ModelBuilder::new("S.PR")
        .policy_samples(8)
        .build(&mut tb)
        .expect("builds");
    round_trip(&model);
    round_trip(&ModelStore::from_models([model]));

    // Placement-layer state.
    let problem =
        PlacementProblem::paper_default(vec!["a".into(), "b".into(), "c".into(), "d".into()])
            .expect("valid");
    round_trip(&problem);
    let mut rng = icm::rng::Rng::from_seed(0x9E_0001);
    round_trip(&PlacementState::random(&problem, &mut rng));
    round_trip(&AnnealConfig::default());
    round_trip(&AnnealConfig {
        accept: AcceptRule::Metropolis {
            initial_temperature: 0.5,
            cooling: 0.999,
        },
        ..AnnealConfig::default()
    });

    // Workload catalog and mixes.
    for spec in Catalog::paper().workloads() {
        round_trip(spec);
    }
    for mix in icm::workloads::table5_mixes() {
        round_trip(&mix);
    }
    for qos in icm::workloads::qos_mixes() {
        round_trip(&qos);
    }

    // Cluster and application descriptors.
    round_trip(&icm::simcluster::ClusterSpec::ec2_32());
    for spec in Catalog::paper().workloads() {
        round_trip(spec.app());
    }
}

#[test]
fn malformed_inputs_are_rejected_not_misparsed() {
    let store = ModelStore::from_models([{
        let mut tb = TestbedBuilder::new(&Catalog::paper()).seed(31).build();
        ModelBuilder::new("N.cg")
            .policy_samples(6)
            .build(&mut tb)
            .expect("builds")
    }]);
    let json = icm::json::to_string(&store);

    // Truncated payloads must fail at every prefix length, never panic
    // or return a half-parsed store.
    for cut in [1, json.len() / 4, json.len() / 2, json.len() - 1] {
        let truncated = &json[..cut];
        assert!(
            icm::json::from_str::<ModelStore>(truncated).is_err(),
            "truncation at {cut} bytes must be rejected"
        );
    }

    // Trailing garbage after a valid document is rejected.
    assert!(icm::json::from_str::<ModelStore>(&format!("{json}garbage")).is_err());

    // Non-finite numbers are not valid JSON and must not sneak into
    // model arithmetic.
    for bad in ["NaN", "Infinity", "-Infinity", "1e999"] {
        let doctored = json.replacen(char::is_numeric, bad, 1);
        assert!(
            icm::json::from_str::<ModelStore>(&doctored).is_err(),
            "non-finite literal `{bad}` must be rejected"
        );
    }

    // Duplicate keys are ambiguous; the strict parser refuses them.
    assert!(
        icm::json::from_str::<icm::json::Json>(r#"{"version": 1, "version": 2}"#).is_err(),
        "duplicate keys must be rejected"
    );

    // Type confusion: a curve is `{"values": [numbers]}`, so arrays,
    // string values, and missing fields are all rejected.
    assert!(icm::json::from_str::<SensitivityCurve>("[]").is_err());
    assert!(icm::json::from_str::<SensitivityCurve>(r#"{"values": ["a"]}"#).is_err());
    assert!(icm::json::from_str::<SensitivityCurve>("{}").is_err());
}
