//! Fleet operations: model *your own* application with the synthetic
//! builder, profile it, persist the fleet, and keep the model honest in
//! production with online refinement.
//!
//! ```text
//! cargo run --release --example fleet_operations
//! ```

use icm::core::model::ModelBuilder;
use icm::core::online::OnlineModel;
use icm::core::{Calibration, ModelStore};
use icm::workloads::{Catalog, PropagationClass, SyntheticWorkload, TestbedBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::paper();
    let mut testbed = TestbedBuilder::new(&catalog).seed(71).build();

    // 1. Describe an in-house application with high-level knobs instead
    //    of raw cache numbers: a fairly aggressive, very sensitive,
    //    barrier-coupled solver.
    let inhouse = SyntheticWorkload::new("acme-solver")
        .intensity(0.6)
        .sensitivity(0.9)
        .propagation(PropagationClass::High)
        .base_runtime_s(400.0)
        .build()?;
    testbed.sim_mut().register_app(inhouse.app().clone());

    // 2. Profile it alongside a couple of catalog tenants and persist
    //    the fleet.
    let mut store = ModelStore::new();
    for app in ["acme-solver", "C.libq", "H.KM"] {
        let model = ModelBuilder::new(app)
            .policy_samples(30)
            .seed(4)
            .build(&mut testbed)?;
        println!(
            "profiled {:<12} score {:>4.2}  policy {:<11} cost {:>5.1}%",
            app,
            model.bubble_score(),
            model.policy().name(),
            model.profiling_cost() * 100.0
        );
        store.insert(model);
    }
    let path = std::env::temp_dir().join("icm-fleet.json");
    store.save_to_path(&path)?;
    println!("\nfleet persisted to {}", path.display());

    // 3. Reload (as a scheduler process would) and predict.
    let store = ModelStore::load_from_path(&path)?;
    let model = store.get("acme-solver").expect("profiled above").clone();
    let libq_score = Calibration::measure(&mut testbed)?.score(&mut testbed, "C.libq", 3)?;
    let pressures = vec![libq_score; model.hosts()];
    println!(
        "\nstatic prediction with C.libq everywhere: {:.3}× solo",
        model.predict(&pressures)
    );

    // 4. In production, feed observed runs back into an online wrapper;
    //    the model tracks reality even if the environment drifts.
    let mut online = OnlineModel::new(model.clone());
    for run in 1..=5 {
        let (seconds, _) = testbed.sim_mut().run_pair("acme-solver", "C.libq")?;
        let actual = seconds / model.solo_seconds();
        online.observe_for("C.libq", &pressures, actual)?;
        println!(
            "run {run}: observed {actual:.3}×, corrected prediction now {:.3}×",
            online.predict_for("C.libq", &pressures)?
        );
    }
    let _ = std::fs::remove_file(&path);
    Ok(())
}
