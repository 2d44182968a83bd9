//! QoS-guaranteed consolidation: place a mission-critical MPI job with
//! three batch/analytics co-tenants so the critical job keeps ≥ 90% of
//! its solo performance, then verify the guarantee by actually running
//! the placement.
//!
//! ```text
//! cargo run --release --example qos_placement
//! ```

use std::collections::BTreeMap;

use icm::core::model::ModelBuilder;
use icm::core::InterferenceModel;
use icm::placement::{place_qos, AnnealConfig, Estimator, PlacementProblem, QosConfig};
use icm::simcluster::{Deployment, Placement};
use icm::workloads::{Catalog, TestbedBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::paper();
    let mut testbed = TestbedBuilder::new(&catalog).seed(17).build();

    // The tenants: lammps is mission-critical; libquantum is a cache
    // monster; K-means and CG fill the cluster.
    let workloads = ["M.lmps", "C.libq", "H.KM", "N.cg"];
    let target = "M.lmps";

    // Profile each tenant at its deployment span (4 of 8 hosts).
    let mut models: BTreeMap<String, InterferenceModel> = BTreeMap::new();
    for app in workloads {
        let model = ModelBuilder::new(app)
            .hosts(4)
            .policy_samples(30)
            .seed(3)
            .build(&mut testbed)?;
        println!(
            "profiled {:<7} score {:>4.1}  policy {:<11} solo {:>6.1}s",
            app,
            model.bubble_score(),
            model.policy().name(),
            model.solo_seconds()
        );
        models.insert(app.to_owned(), model);
    }

    // Search for a placement that guarantees the target 90% of solo
    // performance and minimizes everyone's total runtime.
    let problem =
        PlacementProblem::paper_default(workloads.iter().map(|w| (*w).to_owned()).collect())?;
    let estimator = Estimator::from_map(&problem, &models)?;
    let outcome = place_qos(
        &estimator,
        0, // index of M.lmps
        &QosConfig {
            qos_fraction: 0.9,
            anneal: AnnealConfig {
                iterations: 4000,
                ..AnnealConfig::default()
            },
        },
    )?;
    println!();
    println!(
        "predicted {target} time : {:.3}× solo",
        outcome.predicted_target_time
    );
    println!("predicted satisfied    : {}", outcome.predicted_satisfied);
    for (i, app) in workloads.iter().enumerate() {
        println!(
            "  {:<7} on hosts {:?}",
            app,
            outcome.state.hosts_of(&problem, i)
        );
    }

    // Deploy the placement on the (simulated) cluster and check reality.
    let placements: Vec<Placement> = workloads
        .iter()
        .enumerate()
        .map(|(i, app)| Placement::new(*app, outcome.state.hosts_of(&problem, i)))
        .collect();
    let runs = testbed
        .sim_mut()
        .run_deployment(&Deployment::of_placements(placements))?;
    println!();
    for run in &runs {
        let solo = models[&run.app].solo_seconds();
        println!(
            "measured {:<7} {:>7.1}s = {:.3}× solo",
            run.app,
            run.seconds,
            run.seconds / solo
        );
    }
    let measured = runs[0].seconds / models[target].solo_seconds();
    println!();
    if measured <= 1.0 / 0.9 {
        println!("QoS guarantee held: {measured:.3}× ≤ 1.111×");
    } else {
        println!("QoS guarantee VIOLATED: {measured:.3}× > 1.111×");
    }
    Ok(())
}
