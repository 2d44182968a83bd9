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
//! When the `ICM_BENCH_JSON` environment variable names a file, every
//! bench target additionally merges its results into that file as
//! deterministically ordered JSON (`{"benches": {name: {best_ns,
//! median_ns, iters, cores}}}`), so successive targets build one
//! combined perf-trajectory document (`BENCH_icm.json` at the repo
//! root). `cores` is the measuring host's available parallelism.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use icm_json::Json;

pub use std::hint::black_box;

/// Number of timed samples taken per benchmark.
const SAMPLES: usize = 5;
/// Target wall time per sample; iteration counts are calibrated to it.
const TARGET_SAMPLE: Duration = Duration::from_millis(50);
/// Calibration stops growing the batch once a single run costs this much.
const SLOW_RUN: Duration = Duration::from_millis(100);

/// One benchmark's measured timings, as persisted to `ICM_BENCH_JSON`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchResult {
    /// Best per-iteration wall time across the samples, in nanoseconds.
    pub best_ns: f64,
    /// Median per-iteration wall time across the samples, in nanoseconds.
    pub median_ns: f64,
    /// Iterations per timed sample (calibration outcome).
    pub iters: u32,
    /// Cores available to the measuring process.
    pub cores: u32,
}

/// A registry that times closures and prints one summary line each.
///
/// Dropping the harness flushes collected results to the file named by
/// `ICM_BENCH_JSON`, if that variable is set.
pub struct Bench {
    filter: Option<String>,
    results: BTreeMap<String, BenchResult>,
}

impl Bench {
    /// Builds a harness from the process arguments: the first argument
    /// that is not a `--flag` (Cargo passes `--bench`) is a substring
    /// filter on benchmark names.
    pub fn from_args() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with("--"));
        Self {
            filter,
            results: BTreeMap::new(),
        }
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
        self.results.insert(
            name.to_owned(),
            BenchResult {
                best_ns: per_iter[0],
                median_ns: per_iter[SAMPLES / 2],
                iters,
                cores: std::thread::available_parallelism().map_or(1, |n| n.get() as u32),
            },
        );
    }

    /// Results measured so far, keyed by benchmark name.
    pub fn results(&self) -> &BTreeMap<String, BenchResult> {
        &self.results
    }

    /// Merges `results` into the JSON document `existing` (the prior
    /// contents of the trajectory file, or `None` on first write) and
    /// renders the combined document, deterministically ordered by
    /// benchmark name.
    pub fn merge_json(existing: Option<&Json>, results: &BTreeMap<String, BenchResult>) -> String {
        let mut benches: BTreeMap<String, Json> = BTreeMap::new();
        if let Some(prior) = existing
            .and_then(|doc| doc.get("benches"))
            .and_then(Json::as_object)
        {
            for (name, entry) in prior {
                benches.insert(name.clone(), entry.clone());
            }
        }
        for (name, r) in results {
            benches.insert(
                name.clone(),
                Json::object([
                    ("best_ns", Json::Number(r.best_ns)),
                    ("median_ns", Json::Number(r.median_ns)),
                    ("iters", Json::Number(f64::from(r.iters))),
                    ("cores", Json::Number(f64::from(r.cores))),
                ]),
            );
        }
        let doc = Json::object([("benches", Json::Object(benches.into_iter().collect()))]);
        let mut text = doc.to_text_pretty();
        text.push('\n');
        text
    }

    fn flush_json(&self) {
        let Ok(path) = std::env::var("ICM_BENCH_JSON") else {
            return;
        };
        if path.is_empty() || self.results.is_empty() {
            return;
        }
        let existing: Option<Json> = std::fs::read_to_string(&path)
            .ok()
            .and_then(|text| icm_json::from_str(&text).ok());
        let text = Self::merge_json(existing.as_ref(), &self.results);
        if let Err(e) = icm_json::fs::atomic_write(std::path::Path::new(&path), text.as_bytes()) {
            eprintln!("icm-bench: cannot write {path}: {e}");
        } else {
            eprintln!(
                "icm-bench: merged {} result(s) into {path}",
                self.results.len()
            );
        }
    }

    fn time<T, F: FnMut() -> T>(iters: u32, f: &mut F) -> Duration {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        start.elapsed()
    }
}

impl Drop for Bench {
    fn drop(&mut self) {
        self.flush_json();
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
            results: BTreeMap::new(),
        };
        let mut ran = false;
        b.bench("other", || ran = true);
        assert!(!ran, "filtered-out benchmark must not run");
        assert!(b.results().is_empty(), "skipped benches record nothing");
        b.bench("does-match-me", || ran = true);
        assert!(ran, "matching benchmark must run");
        assert!(b.results().contains_key("does-match-me"));
    }

    #[test]
    fn merge_json_is_deterministically_ordered_and_overwrites() {
        let prior_text = Bench::merge_json(
            None,
            &BTreeMap::from([
                (
                    "z/slow".to_owned(),
                    BenchResult {
                        best_ns: 200.0,
                        median_ns: 220.0,
                        iters: 10,
                        cores: 2,
                    },
                ),
                (
                    "a/old".to_owned(),
                    BenchResult {
                        best_ns: 5.0,
                        median_ns: 6.0,
                        iters: 3,
                        cores: 2,
                    },
                ),
            ]),
        );
        let prior: Json = icm_json::from_str(&prior_text).expect("parses");
        // Re-running `a/old` replaces its entry; `z/slow` survives.
        let merged = Bench::merge_json(
            Some(&prior),
            &BTreeMap::from([(
                "a/old".to_owned(),
                BenchResult {
                    best_ns: 7.0,
                    median_ns: 8.0,
                    iters: 4,
                    cores: 2,
                },
            )]),
        );
        let doc: Json = icm_json::from_str(&merged).expect("parses");
        let benches = doc
            .get("benches")
            .and_then(Json::as_object)
            .expect("object");
        let names: Vec<&str> = benches.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["a/old", "z/slow"], "sorted by name");
        let a = doc.get("benches").unwrap().get("a/old").unwrap();
        assert_eq!(a.get("best_ns").and_then(Json::as_f64), Some(7.0));
        assert_eq!(a.get("iters").and_then(Json::as_f64), Some(4.0));
        assert_eq!(a.get("cores").and_then(Json::as_f64), Some(2.0));
        // Same inputs render byte-identically.
        assert_eq!(
            merged,
            Bench::merge_json(
                Some(&prior),
                &BTreeMap::from([(
                    "a/old".to_owned(),
                    BenchResult {
                        best_ns: 7.0,
                        median_ns: 8.0,
                        iters: 4,
                        cores: 2,
                    },
                )])
            )
        );
    }
}
