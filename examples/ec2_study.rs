//! Porting the methodology to a bigger, noisier cloud: re-profile a
//! workload on the 32-instance EC2-style cluster (unobserved background
//! tenants included) and compare model quality against the private
//! cluster — a miniature §6.
//!
//! ```text
//! cargo run --release --example ec2_study
//! ```

use icm::core::model::ModelBuilder;
use icm::core::{Calibration, Testbed};
use icm::simcluster::ClusterSpec;
use icm::workloads::{Catalog, SimTestbedAdapter, TestbedBuilder};

fn validate(
    testbed: &mut SimTestbedAdapter,
    app: &str,
    corunner: &str,
    label: &str,
) -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelBuilder::new(app)
        .policy_samples(30)
        .seed(2)
        .build(testbed)?;
    let score = Calibration::measure(testbed)?.score(testbed, corunner, 3)?;
    let mut err_total = 0.0;
    let repeats = 5;
    for _ in 0..repeats {
        let (seconds, _) = testbed.sim_mut().run_pair(app, corunner)?;
        let actual = seconds / model.solo_seconds();
        let predicted = model.predict(&vec![score; model.hosts()]);
        err_total += ((predicted - actual) / actual).abs() * 100.0;
    }
    println!(
        "{label:<16} {app} vs {corunner}: policy {:<11} score({corunner}) {score:.2}  mean error {:.1}%",
        model.policy().name(),
        err_total / f64::from(repeats)
    );
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let catalog = Catalog::paper();

    // Private 8-host cluster: controlled, quiet.
    let mut private = TestbedBuilder::new(&catalog).seed(5).build();
    println!(
        "private cluster : {} hosts, background tenants: none",
        private.cluster_hosts()
    );
    validate(&mut private, "M.milc", "M.zeus", "private")?;

    // EC2-style 32-instance cluster: more nodes, more noise, and other
    // customers' VMs the profiler cannot observe.
    let mut ec2 = TestbedBuilder::new(&catalog)
        .cluster(ClusterSpec::ec2_32())
        .seed(5)
        .build();
    let background = ec2.sim().cluster().background().expect("EC2 has tenants");
    println!(
        "EC2-style cloud : {} hosts, background tenant probability {:.0}%",
        ec2.cluster_hosts(),
        background.probability * 100.0
    );
    validate(&mut ec2, "M.milc", "M.zeus", "ec2")?;

    println!();
    println!(
        "Expect the EC2 errors to be larger — the model parameters must be\n\
         re-measured per environment (§6), and unobserved co-tenants add\n\
         variance no static profile can capture."
    );
    Ok(())
}
