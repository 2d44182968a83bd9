//! Cost of the `icm-manager` supervisory loop: a quiet supervised
//! horizon versus the unmanaged baseline (the overhead of watching),
//! and a crash horizon that exercises the full detect → migrate →
//! re-anneal reaction path.

use icm_bench::{black_box, Bench};
use icm_core::model::ModelBuilder;
use icm_core::{DriftConfig, OnlineModel};
use icm_manager::{run_managed, run_unmanaged, Fleet, ManagedApp, ManagerConfig};
use icm_obs::{Telemetry, TelemetryConfig, TelemetrySink, Tracer};
use icm_simcluster::{CrashWindow, FaultPlan};
use icm_workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};

const SPAN: usize = 4;

fn testbed() -> SimTestbedAdapter {
    TestbedBuilder::new(&Catalog::paper()).seed(2016).build()
}

fn fleet(tb: &mut SimTestbedAdapter) -> Fleet {
    let apps = [("M.milc", 2), ("H.KM", 1)]
        .iter()
        .map(|&(name, priority)| {
            let model = ModelBuilder::new(name)
                .hosts(SPAN)
                .policy_samples(6)
                .solo_repeats(1)
                .score_repeats(1)
                .seed(0xFEED)
                .build(tb)
                .expect("model builds");
            ManagedApp::new(name, priority, OnlineModel::new(model))
        })
        .collect();
    Fleet::new(8, 2, SPAN, apps).expect("fleet packs")
}

fn config(ticks: u64) -> ManagerConfig {
    ManagerConfig {
        ticks,
        initial_iterations: 600,
        reanneal_iterations: 250,
        qos_fraction: 0.5,
        drift: DriftConfig {
            threshold: 0.5,
            ..DriftConfig::default()
        },
        ..ManagerConfig::default()
    }
}

fn main() {
    let mut b = Bench::from_args();

    let base_tb = {
        let mut tb = testbed();
        let _ = fleet(&mut tb); // profile models once for run-counter parity
        tb
    };
    let (mut model_tb, cfg) = (testbed(), config(6));
    let base_fleet = fleet(&mut model_tb);

    b.bench("manager/quiet/unmanaged", || {
        let mut tb = base_tb.clone();
        let mut fleet = base_fleet.clone();
        run_unmanaged(tb.sim_mut(), &mut fleet, &cfg, &Tracer::disabled()).expect("runs")
    });

    b.bench("manager/quiet/managed", || {
        let mut tb = base_tb.clone();
        let mut fleet = base_fleet.clone();
        run_managed(tb.sim_mut(), &mut fleet, &cfg, &Tracer::disabled()).expect("runs")
    });

    // Same quiet horizon with streaming telemetry attached: the cost of
    // the constant-memory aggregation (counter bumps, windowed sketch
    // observes) on ticks that emit no events at all.
    let telemetry = Telemetry::new(TelemetryConfig::default());
    let telemetry_tracer = Tracer::with_telemetry(TelemetrySink::new(telemetry.clone()));
    b.bench("manager/quiet/managed+telemetry", || {
        let mut tb = base_tb.clone();
        let mut fleet = base_fleet.clone();
        tb.sim_mut().set_tracer(telemetry_tracer.clone());
        run_managed(tb.sim_mut(), &mut fleet, &cfg, &telemetry_tracer).expect("runs")
    });
    black_box(telemetry.events());

    // Crash horizon: discover the initial placement once, then script a
    // permanent outage on an occupied host two ticks in.
    let plan = {
        let mut tb = base_tb.clone();
        let mut probe_fleet = base_fleet.clone();
        let from_run = tb.sim().peek_run() + 2;
        let probe = run_managed(
            tb.sim_mut(),
            &mut probe_fleet,
            &config(1),
            &Tracer::disabled(),
        )
        .expect("discovery run");
        FaultPlan {
            crash_windows: vec![CrashWindow {
                host: probe.finals[0].hosts[0] as usize,
                from_run,
                until_run: u64::MAX,
            }],
            ..FaultPlan::default()
        }
    };

    b.bench("manager/crash/migrate+reanneal", || {
        let mut tb = base_tb.clone();
        let mut fleet = base_fleet.clone();
        tb.sim_mut().set_fault_plan(Some(plan.clone()));
        let outcome =
            run_managed(tb.sim_mut(), &mut fleet, &cfg, &Tracer::disabled()).expect("runs");
        black_box(outcome.actions.len())
    });
}
