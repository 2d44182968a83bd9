//! Minimal wall-clock benchmark harness for the ICM reproduction.
//!
//! The bench binaries in `benches/` used to be Criterion benchmarks;
//! Criterion pulls a large dependency tree from crates.io, which the
//! hermetic offline build cannot download. This in-tree harness keeps
//! the same measurement structure (named groups, parameterized cases,
//! warm-up, repeated sampling) with nothing but `std::time::Instant`.
//!
//! Each bench target sets `harness = false` and drives a [`Bench`] from
//! `main`. Run with `cargo bench -p icm-bench`; pass a substring to run
//! only matching benchmarks, e.g. `cargo bench -p icm-bench -- anneal`.
//!
//! These benches are print-only drill-downs into single layers. Every
//! persisted number (end to end and per layer) comes from `perfbench`.

#![forbid(unsafe_code)]

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Number of timed samples taken per benchmark.
const SAMPLES: usize = 5;
/// Target wall time per sample; iteration counts are calibrated to it.
const TARGET_SAMPLE: Duration = Duration::from_millis(50);
/// Calibration stops growing the batch once a single run costs this much.
const SLOW_RUN: Duration = Duration::from_millis(100);

/// A registry that times closures and prints one summary line each.
pub struct Bench {
    filter: Option<String>,
}

impl Bench {
    /// Builds a harness from the process arguments: the first argument
    /// that is not a `--flag` (Cargo passes `--bench`) is a substring
    /// filter on benchmark names.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Self { filter }
    }

    /// Times `f` and prints `name`, per-iteration wall time (best and
    /// median of the samples), and the iteration count used.
    pub fn bench<T, F: FnMut() -> T>(&mut self, name: &str, mut f: F) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }

        // Warm-up + calibration: find an iteration count whose batch
        // takes roughly TARGET_SAMPLE, without rerunning slow cases.
        let first = Self::time(1, &mut f);
        let iters = if first >= SLOW_RUN {
            1
        } else {
            (TARGET_SAMPLE.as_nanos() / first.as_nanos().max(1)).clamp(1, 1_000_000) as u32
        };

        let mut per_iter: Vec<f64> = (0..SAMPLES)
            .map(|_| Self::time(iters, &mut f).as_nanos() as f64 / f64::from(iters))
            .collect();
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        println!(
            "{name:<48} best {:>12}  median {:>12}  ({iters} iters x {SAMPLES} samples)",
            format_ns(per_iter[0]),
            format_ns(per_iter[SAMPLES / 2]),
        );
    }

    fn time<T, F: FnMut() -> T>(iters: u32, f: &mut F) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formats_all_magnitudes() {
        assert_eq!(format_ns(12.0), "12 ns");
        assert_eq!(format_ns(1_500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.00 s");
    }

    #[test]
    fn filter_skips_non_matching_names() {
        let mut b = Bench {
            filter: Some("match-me".into()),
        };
        let mut ran = false;
        b.bench("other", || ran = true);
        assert!(!ran, "filtered-out benchmark must not run");
        b.bench("does-match-me", || ran = true);
        assert!(ran, "matching benchmark must run");
    }
}
