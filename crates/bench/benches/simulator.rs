//! Microbenchmarks of the simulation substrate: node contention solving
//! and distributed-run execution.

use icm_bench::{black_box, Bench};
use icm_simcluster::{execute, Noise, SyncPattern};
use icm_simnode::{solve_contention, Bubble, MemoryProfile, NodeSpec};
use icm_workloads::{Catalog, TestbedBuilder};

fn main() {
    let mut b = Bench::from_args();

    let node = NodeSpec::xeon_e5_2650();
    let bubble = Bubble::new(node);
    let app = MemoryProfile::builder()
        .working_set_mb(26.0)
        .bandwidth_gbps(12.0)
        .miss_bandwidth_gbps(30.0)
        .cache_sensitivity(1.05)
        .bandwidth_sensitivity(0.85)
        .build()
        .expect("valid");
    for tenants in [2usize, 4, 8] {
        let profiles: Vec<MemoryProfile> = (0..tenants)
            .map(|i| {
                if i % 2 == 0 {
                    app
                } else {
                    bubble.profile_at(4.0 + i as f64 * 0.5)
                }
            })
            .collect();
        b.bench(&format!("contention/solve/{tenants}"), || {
            solve_contention(&node, black_box(&profiles))
        });
    }

    let noise = Noise::new(1);
    let slowdowns: Vec<f64> = (0..8).map(|i| 1.0 + 0.1 * i as f64).collect();
    b.bench("execute/collective_48_phases", || {
        execute(
            SyncPattern::high_propagation(48),
            black_box(&slowdowns),
            None,
            &[],
            &noise,
            0.015,
            7,
        )
    });
    b.bench("execute/task_queue_120x6", || {
        execute(
            SyncPattern::task_queue(120, 6),
            black_box(&slowdowns),
            None,
            &[],
            &noise,
            0.015,
            7,
        )
    });

    let mut testbed = TestbedBuilder::new(&Catalog::paper()).seed(1).build();
    let pressures = vec![4.0; 8];
    b.bench("testbed/run_with_bubbles(M.milc)", || {
        icm_core::Testbed::run_app(&mut testbed, "M.milc", black_box(&pressures)).expect("runs")
    });
}
