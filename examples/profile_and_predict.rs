//! Profiling-budget study: compare the four profiling algorithms on a
//! real modeling task, then validate the cheap model end-to-end against
//! measured co-runs.
//!
//! Scenario: an operator wants interference models for an MPI solver and
//! a Spark job but can only afford a limited number of profiling runs.
//! How much accuracy does the binary-optimized algorithm give up versus
//! exhaustive measurement?
//!
//! ```text
//! cargo run --release --example profile_and_predict
//! ```

use icm::core::model::ModelBuilder;
use icm::core::{Calibration, ProfilingAlgorithm, ValidationReport};
use icm::workloads::{Catalog, TestbedBuilder};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::paper();
    let mut testbed = TestbedBuilder::new(&catalog).seed(99).build();
    // The reporter curve is a property of the testbed: measure it once.
    let calibration = Calibration::measure(&mut testbed)?;

    for app in ["M.lu", "S.PR"] {
        println!("=== {app} ===");
        // Build one model per profiling algorithm and compare cost.
        let mut models = Vec::new();
        for algorithm in [
            ProfilingAlgorithm::Full,
            ProfilingAlgorithm::BinaryBrute,
            ProfilingAlgorithm::BinaryOptimized,
            ProfilingAlgorithm::random30(),
        ] {
            let model = ModelBuilder::new(app)
                .algorithm(algorithm)
                .policy_samples(30)
                .seed(5)
                .build(&mut testbed)?;
            println!(
                "  {:<17} cost {:>5.1}%  policy {:<11} score {:.2}",
                algorithm.name(),
                model.profiling_cost() * 100.0,
                model.policy().name(),
                model.bubble_score(),
            );
            models.push((algorithm.name(), model));
        }

        // Validate the cheapest model against measured co-runs with three
        // very different co-runners.
        let (_, cheap) = &models[2];
        let mut predicted = Vec::new();
        let mut actual = Vec::new();
        for corunner in ["C.libq", "M.zeus", "H.KM"] {
            let score = calibration.score(&mut testbed, corunner, 3)?;
            let (seconds, _) = testbed.sim_mut().run_pair(app, corunner)?;
            predicted.push(cheap.predict(&vec![score; cheap.hosts()]));
            actual.push(seconds / cheap.solo_seconds());
        }
        let report = ValidationReport::from_slices(&predicted, &actual);
        println!(
            "  binary-optimized end-to-end error vs live co-runs: mean {:.1}% (max {:.1}%)",
            report.errors.mean, report.errors.max
        );
        println!();
    }
    Ok(())
}
