//! Property-style tests of the distributed-execution engine, driven by
//! seeded deterministic loops over `icm-rng` (vendored; no external
//! property-testing framework). Each test replays a fixed pseudo-random
//! case list, so a failure reproduces exactly and prints its case index.

use icm_rng::Rng;
use icm_simcluster::{execute, Noise, SyncPattern};

/// Cases per property; the old proptest default was 256.
const CASES: usize = 256;

fn random_pattern(rng: &mut Rng) -> SyncPattern {
    if rng.gen_bool(0.5) {
        SyncPattern::Collective {
            phases: rng.gen_range(1..64usize),
            coupling: rng.gen_f64_range(0.0, 1.0),
        }
    } else {
        SyncPattern::TaskQueue {
            tasks: rng.gen_range(1..128usize),
            stages: rng.gen_range(1..8usize),
        }
    }
}

fn random_slowdowns(rng: &mut Rng) -> Vec<f64> {
    let n = rng.gen_range(1..16usize);
    (0..n).map(|_| rng.gen_f64_range(1.0, 4.0)).collect()
}

#[test]
fn runtime_is_positive_and_finite() {
    let mut rng = Rng::from_seed(0x5C_0001);
    for case in 0..CASES {
        let pattern = random_pattern(&mut rng);
        let slowdowns = random_slowdowns(&mut rng);
        let seed = rng.next_u64();
        let run = rng.next_u64();
        let t = execute(pattern, &slowdowns, None, &[], &Noise::new(seed), 0.02, run);
        assert!(t.is_finite(), "case {case}: non-finite runtime");
        assert!(t > 0.0, "case {case}: non-positive runtime {t}");
    }
}

#[test]
fn runtime_at_least_mean_slowdown_without_noise() {
    let mut rng = Rng::from_seed(0x5C_0002);
    for case in 0..CASES {
        let pattern = random_pattern(&mut rng);
        let slowdowns = random_slowdowns(&mut rng);
        // Any coupling scheme is ≥ the perfectly balanced lower bound
        // (mean slowdown) and ≤ the fully serialized upper bound (max),
        // modulo task-granularity remainder effects for TaskQueue.
        let t = execute(pattern, &slowdowns, None, &[], &Noise::new(0), 0.0, 0);
        let mean = slowdowns.iter().sum::<f64>() / slowdowns.len() as f64;
        let max = slowdowns.iter().cloned().fold(0.0f64, f64::max);
        match pattern {
            SyncPattern::Collective { .. } => {
                assert!(t >= mean - 1e-9, "case {case}: t={t} below mean {mean}");
                assert!(t <= max + 1e-9, "case {case}: t={t} above max {max}");
            }
            SyncPattern::TaskQueue { .. } => {
                // Harmonic-mean work sharing can beat the arithmetic
                // mean; with very coarse tasks a single node may take the
                // whole stage, so the only universal upper bound is the
                // fully serialized one.
                let harmonic =
                    slowdowns.len() as f64 / slowdowns.iter().map(|s| 1.0 / s).sum::<f64>();
                assert!(
                    t >= harmonic - 1e-9,
                    "case {case}: t={t} below harmonic {harmonic}"
                );
                assert!(
                    t <= max * slowdowns.len() as f64 + 1e-9,
                    "case {case}: t={t} above the serialized bound"
                );
            }
        }
    }
}

#[test]
fn uniformly_slowing_all_nodes_scales_runtime() {
    let mut rng = Rng::from_seed(0x5C_0003);
    for case in 0..CASES {
        let pattern = random_pattern(&mut rng);
        let nodes = rng.gen_range(1..12usize);
        let factor = rng.gen_f64_range(1.0, 3.0);
        let noise = Noise::new(1);
        let base = execute(pattern, &vec![1.0; nodes], None, &[], &noise, 0.0, 0);
        let slowed = execute(pattern, &vec![factor; nodes], None, &[], &noise, 0.0, 0);
        assert!(
            (slowed / base - factor).abs() < 1e-6,
            "case {case}: uniform slowdown must scale: {slowed}/{base} vs {factor}"
        );
    }
}

#[test]
fn runtime_monotone_in_any_node_slowdown() {
    let mut rng = Rng::from_seed(0x5C_0004);
    for case in 0..CASES {
        let pattern = random_pattern(&mut rng);
        let slowdowns = random_slowdowns(&mut rng);
        let bump = rng.gen_f64_range(0.0, 2.0);
        let noise = Noise::new(3);
        let before = execute(pattern, &slowdowns, None, &[], &noise, 0.0, 0);
        let mut bumped = slowdowns.clone();
        let idx = rng.gen_range(0..bumped.len());
        bumped[idx] += bump;
        let after = execute(pattern, &bumped, None, &[], &noise, 0.0, 0);
        match pattern {
            SyncPattern::Collective { .. } => {
                assert!(
                    after >= before - 1e-9,
                    "case {case}: slowing node {idx} sped things up"
                );
            }
            SyncPattern::TaskQueue { tasks, stages } => {
                // Greedy dispatch has Graham scheduling anomalies:
                // slowing a node can re-route tasks and shrink the
                // makespan by up to roughly one task quantum on the
                // slowest node. Require monotonicity modulo that quantum.
                let max_sd = bumped.iter().cloned().fold(0.0f64, f64::max);
                let quantum =
                    bumped.len() as f64 / (tasks * stages) as f64 * max_sd * stages as f64;
                assert!(
                    after >= before - quantum - 1e-9,
                    "case {case}: slowing node {idx} helped beyond one task quantum: \
                     {before} → {after}"
                );
            }
        }
    }
}

#[test]
fn noise_addressing_is_deterministic() {
    let mut rng = Rng::from_seed(0x5C_0005);
    for case in 0..CASES {
        let seed = rng.next_u64();
        let stream = rng.next_u64();
        let run = rng.next_u64();
        let unit = rng.next_u64();
        let sigma = rng.gen_f64_range(0.0, 0.3);
        let noise = Noise::new(seed);
        assert_eq!(
            noise.lognormal(sigma, stream, run, unit),
            noise.lognormal(sigma, stream, run, unit),
            "case {case}"
        );
        let u = noise.uniform(stream, run, unit);
        assert!((0.0..1.0).contains(&u), "case {case}: uniform {u}");
    }
}
