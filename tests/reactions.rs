//! Reaction goldens: every path of the supervisory tick, pinned byte
//! for byte.
//!
//! Each scenario drives one traced managed run tick by tick, on a small
//! profiled fleet with a fault plan or environment chosen so that one
//! reaction fires:
//!
//! * `crash`: a host-down peek dodged by migration;
//! * `drift`: a drift trip answered by a re-anneal;
//! * `slo`: a sustained-SLO trip answered by a re-anneal;
//! * `breaker`: a circuit break on a defaulted quality grid;
//! * `straggler`: a killed straggler answered by a re-anneal;
//! * `shed`: an infeasible outage that sheds the lowest priority app.
//!
//! The JSONL trace, the telemetry artifact, the run's serialized state
//! after its last tick and the [`ManagerOutcome`] JSON are each pinned
//! as an FNV-1a-64 digest, at seeds 2016 and 7, in `reactions.golden`.
//! The test also checks that the reaction each scenario is named after
//! really fired, so a golden never pins a quiet run by accident.

use icm::json::fs::fnv1a64;
use icm_core::{DriftConfig, QualityGrid};
use icm_manager::{
    ActionKind, DetectionKind, EnvironmentDrift, Fleet, ManagedRun, ManagerConfig, ManagerOutcome,
};
use icm_obs::{JsonlSink, SharedBuf, Telemetry, TelemetryConfig, TelemetrySink, Tracer};
use icm_simcluster::{CrashWindow, FaultPlan};
use icm_workloads::SimTestbedAdapter;

mod common;
use common::{lenient, managed_apps, testbed, SPAN};

/// The pinned digests: one line per scenario and seed,
/// `<scenario> seed <n>: <label>=<hex>…`.
const GOLDEN: &str = include_str!("reactions.golden");

/// One scenario's world before the run starts.
struct Scenario {
    tb: SimTestbedAdapter,
    fleet: Fleet,
    config: ManagerConfig,
}

/// The two-app fleet on 8 hosts with `slots` slots each.
fn two_apps(seed: u64, slots: usize) -> (SimTestbedAdapter, Fleet) {
    let mut tb = testbed(seed);
    let apps = managed_apps(&mut tb, &[("M.milc", 2), ("H.KM", 1)]);
    let fleet = Fleet::new(8, slots, SPAN, apps).expect("fleet packs");
    (tb, fleet)
}

/// Ambient pressure on every host from tick 3 on.
fn ambient(pressure: f64) -> Option<EnvironmentDrift> {
    Some(EnvironmentDrift {
        from_tick: 3,
        pressures: vec![pressure; 8],
    })
}

fn scenario(name: &str, seed: u64) -> Scenario {
    let config = ManagerConfig { seed, ..lenient(8) };
    match name {
        "crash" => {
            let (mut tb, fleet) = two_apps(seed, 2);
            // The initial placement is the same on a clone (same seeds),
            // so a one-tick probe names a host the first app occupies.
            let target = {
                let (mut ptb, mut pfleet) = (tb.clone(), fleet.clone());
                let probe = icm_manager::run_managed(
                    ptb.sim_mut(),
                    &mut pfleet,
                    &ManagerConfig {
                        ticks: 1,
                        ..config.clone()
                    },
                    &Tracer::disabled(),
                )
                .expect("probe run");
                probe.finals[0].hosts[0] as usize
            };
            let from_run = tb.sim().peek_run() + 2;
            tb.sim_mut().set_fault_plan(Some(FaultPlan {
                crash_windows: vec![CrashWindow {
                    host: target,
                    from_run,
                    until_run: u64::MAX,
                }],
                ..FaultPlan::default()
            }));
            Scenario { tb, fleet, config }
        }
        "drift" => {
            let (tb, fleet) = two_apps(seed, 2);
            let config = ManagerConfig {
                drift: DriftConfig {
                    threshold: 0.15,
                    trip_after: 2,
                },
                environment: ambient(6.0),
                ..config
            };
            Scenario { tb, fleet, config }
        }
        "slo" => {
            // A detector that never trips and a strict bound: only the
            // sustained-SLO path can react to the ambient pressure.
            let (tb, fleet) = two_apps(seed, 2);
            let config = ManagerConfig {
                drift: DriftConfig {
                    threshold: 1e9,
                    trip_after: 2,
                },
                qos_fraction: 0.8,
                slo_trip_after: 2,
                environment: ambient(6.0),
                ..config
            };
            Scenario { tb, fleet, config }
        }
        "breaker" => {
            let mut tb = testbed(seed);
            let mut apps = managed_apps(
                &mut tb,
                &[("M.milc", 4), ("M.Gems", 3), ("H.KM", 2), ("M.lmps", 1)],
            );
            let row = r#"["Defaulted","Defaulted","Defaulted","Defaulted","Defaulted"]"#;
            let grid_text = format!(r#"{{"n":8,"m":4,"cells":[{}]}}"#, [row; 8].join(","));
            let grid: QualityGrid = icm_json::from_str(&grid_text).expect("grid parses");
            for app in &mut apps {
                app.quality = Some(grid.clone());
            }
            let fleet = Fleet::new(8, 2, SPAN, apps).expect("fleet packs");
            let config = ManagerConfig {
                drift: DriftConfig {
                    threshold: 0.15,
                    trip_after: 2,
                },
                qos_fraction: 0.8,
                environment: ambient(6.0),
                ..config
            };
            Scenario { tb, fleet, config }
        }
        "straggler" => {
            let (mut tb, fleet) = two_apps(seed, 2);
            tb.sim_mut().set_fault_plan(Some(FaultPlan {
                straggler_prob: 0.3,
                straggler_severity: 3.0,
                deadline_factor: 2.0,
                ..FaultPlan::default()
            }));
            Scenario { tb, fleet, config }
        }
        "shed" => {
            // One slot per host: the two span-4 apps fill the cluster,
            // so a permanent outage leaves no feasible packing.
            let (mut tb, fleet) = two_apps(seed, 1);
            let from_run = tb.sim().peek_run();
            tb.sim_mut().set_fault_plan(Some(FaultPlan {
                crash_windows: vec![CrashWindow {
                    host: 0,
                    from_run,
                    until_run: u64::MAX,
                }],
                ..FaultPlan::default()
            }));
            Scenario { tb, fleet, config }
        }
        other => panic!("unknown scenario {other}"),
    }
}

/// What one traced managed run leaves behind.
struct Run {
    trace: String,
    telemetry: String,
    state: String,
    outcome: ManagerOutcome,
}

fn run(name: &str, seed: u64) -> Run {
    let Scenario {
        mut tb,
        mut fleet,
        config,
    } = scenario(name, seed);
    let buf = SharedBuf::new();
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let tracer = Tracer::with_telemetry(TelemetrySink::tee(
        telemetry.clone(),
        JsonlSink::new(buf.clone()),
    ));
    tb.sim_mut().set_tracer(tracer.clone());
    let mut run = ManagedRun::start(tb.sim(), &fleet, &config, true).expect("run starts");
    while !run.is_done(&config) {
        run.step(tb.sim_mut(), &mut fleet, &config, &tracer)
            .expect("tick runs");
    }
    let state = icm_json::to_string(&run);
    let outcome = run.into_outcome(tb.sim(), &fleet, &config);
    tracer.flush();
    let stamp = tracer.now();
    telemetry.snapshot_now(stamp.step, stamp.sim_s);
    Run {
        trace: buf.text(),
        telemetry: telemetry.to_text(),
        state,
        outcome,
    }
}

/// Whether the reaction `name` is about fired in `outcome`.
fn fired(name: &str, outcome: &ManagerOutcome) -> bool {
    let detected = |kind| outcome.detections.iter().any(|d| d.kind == kind);
    let acted = |kind| outcome.action_count(kind) > 0;
    match name {
        "crash" => detected(DetectionKind::HostDown) && acted(ActionKind::Migrate),
        "drift" => detected(DetectionKind::Drift) && acted(ActionKind::ReAnneal),
        "slo" => detected(DetectionKind::SloViolation) && acted(ActionKind::ReAnneal),
        "breaker" => acted(ActionKind::CircuitBreak) && !acted(ActionKind::ReAnneal),
        "straggler" => detected(DetectionKind::Straggler) && acted(ActionKind::ReAnneal),
        "shed" => detected(DetectionKind::HostDown) && acted(ActionKind::Shed),
        _ => false,
    }
}

const SCENARIOS: [&str; 6] = ["crash", "drift", "slo", "breaker", "straggler", "shed"];

#[test]
fn every_reaction_path_matches_its_golden() {
    let mut migrated = false;
    for name in SCENARIOS {
        for seed in [2016, 7] {
            let run = run(name, seed);
            assert!(
                fired(name, &run.outcome),
                "{name} seed {seed}: the reaction did not fire: {:?} {:?}",
                run.outcome.detections,
                run.outcome.actions
            );
            migrated |= run.outcome.action_count(ActionKind::Migrate) > 0;
            let outcome = icm_json::to_string(&run.outcome);
            let mut line = format!("{name} seed {seed}:");
            for (label, bytes) in [
                ("trace", &run.trace),
                ("telemetry", &run.telemetry),
                ("state", &run.state),
                ("outcome", &outcome),
            ] {
                line.push_str(&format!(" {label}={:016x}", fnv1a64(bytes.as_bytes())));
            }
            let prefix = format!("{name} seed {seed}:");
            let golden = GOLDEN
                .lines()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("no golden line for {prefix}"));
            assert_eq!(line, golden, "{name} seed {seed}: a reaction path changed");
        }
    }
    assert!(migrated, "no scenario migrated an application");
}
