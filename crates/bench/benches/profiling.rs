//! Benchmarks of the profiling algorithms (Table 3's subjects): wall
//! cost here, measured-runs cost in the experiment itself.

use icm_bench::Bench;
use icm_core::{
    profile, profile_resilient, FnSource, ModelError, ProfileSource, ProfilerConfig,
    ProfilingAlgorithm,
};
use icm_obs::Tracer;

fn synthetic_truth(pressure: usize, nodes: usize) -> f64 {
    1.0 + 0.12 * pressure as f64 * (nodes as f64 / 8.0).powf(0.3)
}

/// Deterministically flaky source: every 10th measurement fails
/// transiently, so the resilient driver's retry path actually runs.
struct FlakyEveryTenth {
    inner: FnSource<fn(usize, usize) -> f64>,
    calls: u64,
}

impl ProfileSource for FlakyEveryTenth {
    fn hosts(&self) -> usize {
        self.inner.hosts()
    }
    fn max_pressure(&self) -> usize {
        self.inner.max_pressure()
    }
    fn measure(&mut self, pressure: usize, nodes: usize) -> Result<f64, ModelError> {
        self.calls += 1;
        if self.calls.is_multiple_of(10) {
            return Err(ModelError::Testbed("injected transient failure".into()));
        }
        self.inner.measure(pressure, nodes)
    }
}

fn main() {
    let mut b = Bench::from_args();

    for (name, algorithm) in [
        ("binary-optimized", ProfilingAlgorithm::BinaryOptimized),
        ("binary-brute", ProfilingAlgorithm::BinaryBrute),
        ("random-30", ProfilingAlgorithm::random30()),
        ("random-50", ProfilingAlgorithm::random50()),
        ("full", ProfilingAlgorithm::Full),
    ] {
        b.bench(&format!("profiling/algorithm/{name}"), || {
            let mut source = FnSource::new(8, 8, synthetic_truth);
            profile(
                &mut source,
                algorithm,
                &ProfilerConfig::default(),
                &Tracer::disabled(),
            )
            .expect("profiles")
        });
    }

    // The resilient driver's overhead: clean (no faults — the wrapper
    // must cost ~nothing over plain profiling) and with 10% transient
    // failures exercising the retry + backoff path.
    b.bench("profiling/resilient/clean", || {
        let mut source = FnSource::new(8, 8, synthetic_truth);
        profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles")
    });
    b.bench("profiling/resilient/flaky-10pct", || {
        let mut source = FlakyEveryTenth {
            inner: FnSource::new(8, 8, synthetic_truth as fn(usize, usize) -> f64),
            calls: 0,
        };
        profile_resilient(
            &mut source,
            ProfilingAlgorithm::BinaryOptimized,
            &ProfilerConfig::default(),
            &Tracer::disabled(),
        )
        .expect("profiles")
    });

    for hosts in [8usize, 32, 128] {
        b.bench(
            &format!("profiling_scale/binary_optimized_hosts/{hosts}"),
            || {
                let mut source = FnSource::new(8, hosts, |i, j| {
                    1.0 + 0.1 * i as f64 * (j as f64 / hosts as f64).powf(0.3)
                });
                profile(
                    &mut source,
                    ProfilingAlgorithm::BinaryOptimized,
                    &ProfilerConfig::default(),
                    &Tracer::disabled(),
                )
                .expect("profiles")
            },
        );
    }
}
