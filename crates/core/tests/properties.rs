//! Property-style tests of the model's core invariants, driven by seeded
//! deterministic loops over `icm-rng` (vendored; no external
//! property-testing framework). Each test replays a fixed pseudo-random
//! case list, so a failure reproduces exactly and prints its case index.

use icm_core::{
    combine_scores, profile, FnSource, MappingPolicy, ProfilerConfig, ProfilingAlgorithm,
    PropagationMatrix, SensitivityCurve,
};
use icm_obs::Tracer;
use icm_rng::Rng;

/// Cases per property; the old proptest default was 256.
const CASES: usize = 256;

/// Monotone-ish normalized-time rows for a synthetic matrix.
fn random_matrix(rng: &mut Rng) -> PropagationMatrix {
    let pressures = rng.gen_range(1..6usize);
    let hosts = rng.gen_range(2..9usize);
    let rows: Vec<Vec<f64>> = (0..pressures)
        .map(|i| {
            let mut row = vec![1.0];
            let mut value = 1.0 + i as f64 * 0.05;
            // first step from 1.0 to the row's level
            for j in 0..hosts {
                if j == 0 {
                    row.push(value);
                } else {
                    value += rng.gen_f64_range(0.0, 0.5);
                    row.push(value);
                }
            }
            row
        })
        .collect();
    PropagationMatrix::new(rows).expect("constructed rows are valid")
}

fn random_pressures(rng: &mut Rng, max_len: usize) -> Vec<f64> {
    let len = rng.gen_range(1..=max_len);
    (0..len).map(|_| rng.gen_f64_range(0.0, 8.0)).collect()
}

#[test]
fn matrix_prediction_stays_within_cell_range() {
    let mut rng = Rng::from_seed(0xC0_0001);
    for case in 0..CASES {
        let matrix = random_matrix(&mut rng);
        let pressure = rng.gen_f64_range(-2.0, 12.0);
        let nodes = rng.gen_f64_range(-2.0, 12.0);
        let predicted = matrix.predict(pressure, nodes);
        let mut lo = 1.0f64;
        let mut hi = 1.0f64;
        for i in 1..=matrix.max_pressure() {
            for j in 0..=matrix.hosts() {
                lo = lo.min(matrix.at(i, j));
                hi = hi.max(matrix.at(i, j));
            }
        }
        assert!(
            predicted >= lo - 1e-9 && predicted <= hi + 1e-9,
            "case {case}: prediction {predicted} outside [{lo}, {hi}]"
        );
    }
}

#[test]
fn matrix_prediction_zero_nodes_is_one() {
    let mut rng = Rng::from_seed(0xC0_0002);
    for case in 0..CASES {
        let matrix = random_matrix(&mut rng);
        let pressure = rng.gen_f64_range(0.0, 10.0);
        assert!(
            (matrix.predict(pressure, 0.0) - 1.0).abs() < 1e-12,
            "case {case}: zero interfering nodes must predict 1.0"
        );
    }
}

#[test]
fn policy_conversions_preserve_bounds() {
    let mut rng = Rng::from_seed(0xC0_0003);
    for case in 0..CASES {
        let pressures = random_pressures(&mut rng, 8);
        let max = pressures.iter().cloned().fold(0.0f64, f64::max);
        for policy in MappingPolicy::ALL {
            let hom = policy.convert(&pressures);
            assert!(
                hom.pressure >= 0.0 && hom.pressure <= max + 1e-12,
                "case {case}: {policy}: pressure {} out of [0, {max}]",
                hom.pressure
            );
            assert!(
                hom.nodes >= 0.0 && hom.nodes <= pressures.len() as f64,
                "case {case}: {policy}: nodes {} out of range",
                hom.nodes
            );
            if max == 0.0 {
                assert_eq!(hom.nodes, 0.0, "case {case}");
            }
        }
    }
}

#[test]
fn policy_severity_ordering_holds() {
    let mut rng = Rng::from_seed(0xC0_0004);
    for case in 0..CASES {
        let pressures = random_pressures(&mut rng, 8);
        let n = MappingPolicy::NMax.convert(&pressures);
        let n1 = MappingPolicy::NPlus1Max.convert(&pressures);
        let all = MappingPolicy::AllMax.convert(&pressures);
        assert!(n.nodes <= n1.nodes + 1e-12, "case {case}");
        assert!(n1.nodes <= all.nodes + 1e-12, "case {case}");
        assert_eq!(n.pressure, all.pressure, "case {case}");
    }
}

#[test]
fn policy_conversion_is_permutation_invariant() {
    let mut rng = Rng::from_seed(0xC0_0005);
    for case in 0..CASES {
        let pressures = random_pressures(&mut rng, 8);
        let mut sorted = pressures.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for policy in MappingPolicy::ALL {
            let a = policy.convert(&pressures);
            let b = policy.convert(&sorted);
            assert!((a.pressure - b.pressure).abs() < 1e-12, "case {case}");
            assert!((a.nodes - b.nodes).abs() < 1e-12, "case {case}");
        }
    }
}

#[test]
fn curve_inversion_is_a_left_inverse_on_the_envelope() {
    let mut rng = Rng::from_seed(0xC0_0006);
    for case in 0..CASES {
        // Build a strictly increasing curve.
        let steps = rng.gen_range(2..10usize);
        let mut values = vec![1.0];
        for _ in 0..steps {
            let r = rng.gen_f64_range(0.0, 0.4);
            values.push(values.last().expect("non-empty") + r + 0.01);
        }
        let curve = SensitivityCurve::new(values).expect("valid");
        let p = rng.gen_f64() * curve.max_pressure() as f64;
        let inverted = curve.invert(curve.value_at(p));
        assert!(
            (inverted - p).abs() < 1e-6,
            "case {case}: p={p}, inverted={inverted}"
        );
    }
}

#[test]
fn every_algorithm_profiles_any_monotone_source() {
    let mut rng = Rng::from_seed(0xC0_0007);
    // Profiling is the expensive path; 64 cases × 5 algorithms is plenty.
    for case in 0..CASES / 4 {
        let severity = rng.gen_f64_range(0.01, 0.4);
        let shape = rng.gen_f64_range(0.2, 2.0);
        let seed = rng.next_u64();
        for algorithm in [
            ProfilingAlgorithm::BinaryBrute,
            ProfilingAlgorithm::BinaryOptimized,
            ProfilingAlgorithm::random30(),
            ProfilingAlgorithm::random50(),
            ProfilingAlgorithm::Full,
        ] {
            let mut source = FnSource::new(8, 8, |i, j| {
                1.0 + severity * i as f64 * (j as f64 / 8.0).powf(shape)
            });
            let result = profile(
                &mut source,
                algorithm,
                &ProfilerConfig {
                    epsilon: 0.04,
                    seed,
                },
                &Tracer::disabled(),
            )
            .expect("profiles");
            assert!(
                result.cost > 0.0 && result.cost <= 1.0,
                "case {case}: cost {} out of (0, 1]",
                result.cost
            );
            assert_eq!(result.matrix.max_pressure(), 8, "case {case}");
            assert_eq!(result.matrix.hosts(), 8, "case {case}");
            // The reconstruction respects the source's corner exactly.
            let truth_corner = 1.0 + severity * 8.0;
            assert!(
                (result.matrix.at(8, 8) - truth_corner).abs() < 1e-9,
                "case {case}: corner mismatch"
            );
        }
    }
}

#[test]
fn combine_scores_is_commutative_and_bounded() {
    let mut rng = Rng::from_seed(0xC0_0008);
    for case in 0..CASES {
        let a = rng.gen_f64_range(0.0, 8.0);
        let b = rng.gen_f64_range(0.0, 8.0);
        let ab = combine_scores(&[a, b]);
        let ba = combine_scores(&[b, a]);
        assert!((ab - ba).abs() < 1e-12, "case {case}: not commutative");
        let hi = a.max(b);
        if a > 0.0 && b > 0.0 {
            assert!(ab >= hi - 1e-12, "case {case}: combined below max");
            assert!(ab <= hi + 1.0 + 1e-12, "case {case}: combined above max+1");
        }
    }
}
