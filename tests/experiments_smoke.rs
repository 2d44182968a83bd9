//! Smoke-runs every experiment in fast mode: each must succeed and emit a
//! non-trivial table. Each study runs once per group, and every id that
//! shows it is checked from that one run.

use icm::experiments::{ExpConfig, Experiment};
use icm_obs::Tracer;

fn cfg() -> ExpConfig {
    ExpConfig {
        seed: 2016,
        fast: true,
    }
}

fn check(group: &[Experiment]) {
    let mut shown: Vec<Experiment> = Vec::new();
    for exp in group {
        if shown.contains(exp) {
            continue;
        }
        let (_, texts) = exp
            .run_full_traced(&cfg(), &Tracer::disabled())
            .unwrap_or_else(|e| panic!("{} failed: {e}", exp.id()));
        for (id, output) in texts {
            assert!(
                output.lines().count() >= 4,
                "{} produced a suspiciously short table:\n{output}",
                id.id()
            );
            assert!(output.contains("=="), "{} lacks a title", id.id());
            shown.push(id);
        }
    }
    for exp in group {
        assert!(shown.contains(exp), "{} was not shown", exp.id());
    }
}

#[test]
fn motivation_and_propagation() {
    check(&[Experiment::Fig2, Experiment::Fig3]);
}

#[test]
fn heterogeneity() {
    check(&[Experiment::Fig4, Experiment::Table2]);
}

#[test]
fn profiling_cost() {
    check(&[Experiment::Table3, Experiment::Fig6, Experiment::Fig7]);
}

#[test]
fn scores_and_validation() {
    check(&[Experiment::Table4, Experiment::Fig8, Experiment::Fig9]);
}

#[test]
fn placement_studies() {
    check(&[Experiment::Fig10, Experiment::Fig11, Experiment::Table5]);
}

#[test]
fn ec2_study() {
    check(&[Experiment::Fig12, Experiment::Table6, Experiment::Fig13]);
}

#[test]
fn ablations() {
    check(&[
        Experiment::AblationInterp,
        Experiment::AblationSa,
        Experiment::AblationSamples,
        Experiment::AblationMultiApp,
    ]);
}

#[test]
fn extensions() {
    check(&[
        Experiment::ExtOnline,
        Experiment::ExtMultiApp,
        Experiment::ExtEnergy,
        Experiment::ExtPhases,
        Experiment::ExtTransfer,
        Experiment::ExtScale,
        Experiment::ExtIoChannel,
    ]);
}
