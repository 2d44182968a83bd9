//! Wall-time self-profiling: a side channel **outside** the
//! deterministic event stream.
//!
//! Traces are byte-identical across same-seed runs precisely because no
//! wall-clock time ever enters them — yet we still need to know where
//! real time goes (simulated runs, model builds, annealing). The
//! resolution is a strict split: spans and [`Tracer::wall_scope`]
//! guards record their *wall* durations into a [`WallProfile`] held
//! next to the sink, never through it. The profile is dumped as a
//! separate `profile.json`; the JSONL trace does not change by a single
//! byte whether profiling is on or off (asserted end-to-end in
//! `tests/observability.rs`). See `DESIGN.md` §8.

use std::collections::BTreeMap;
use std::time::Duration;

use icm_json::ToJson;

use crate::QuantileSketch;

/// Live-bucket cap of each per-name sketch: 32 octaves at the sketch's
/// 32 sub-buckets per octave, so durations spanning 1 ns to ~4 s keep
/// full resolution before the low end collapses.
const WALL_MAX_BUCKETS: usize = 1024;

/// Per-name wall durations: one [`QuantileSketch`] of nanoseconds per
/// span/scope name.
///
/// The registry is a `BTreeMap`, so serialization is deterministically
/// *ordered* — the recorded durations themselves are wall-clock
/// measurements and naturally vary run to run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct WallProfile {
    spans: BTreeMap<String, QuantileSketch>,
}

impl WallProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration under `name`.
    pub fn record(&mut self, name: &str, elapsed: Duration) {
        self.spans
            .entry(name.to_owned())
            .or_insert_with(|| QuantileSketch::with_max_buckets(WALL_MAX_BUCKETS))
            .observe(elapsed.as_nanos() as f64);
    }

    /// Nanosecond sketch for one name.
    pub fn get(&self, name: &str) -> Option<&QuantileSketch> {
        self.spans.get(name)
    }

    /// All recorded names with their sketches, sorted by name.
    pub fn spans(&self) -> impl Iterator<Item = (&str, &QuantileSketch)> {
        self.spans.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Renders a compact human-readable table (one line per name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str("wall-time profile (side channel; not part of the trace)\n");
        for (name, stats) in self.spans() {
            out.push_str(&format!(
                "  {:<24}{:>8} calls  total {:>12}  mean {:>12}  max {:>12}\n",
                name,
                stats.count(),
                format_ns(stats.sum()),
                format_ns(stats.mean().unwrap_or_default()),
                format_ns(stats.max().unwrap_or_default()),
            ));
        }
        out
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

impl ToJson for WallProfile {
    fn write_json(&self, out: &mut String) {
        let ns = |value: Option<f64>| value.unwrap_or_default();
        out.push_str("{\"spans\":{");
        for (i, (name, sketch)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            name.write_json(out);
            out.push(':');
            icm_json::write_object(
                out,
                [
                    ("count", &sketch.count() as &dyn ToJson),
                    ("total_ns", &sketch.sum()),
                    ("min_ns", &ns(sketch.min())),
                    ("max_ns", &ns(sketch.max())),
                    ("mean_ns", &ns(sketch.mean())),
                    ("p50_ns", &ns(sketch.quantile(0.5))),
                    ("p99_ns", &ns(sketch.quantile(0.99))),
                ],
            );
        }
        out.push_str("}}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_answer_quantiles() {
        let mut profile = WallProfile::new();
        profile.record("x", Duration::from_nanos(500));
        profile.record("x", Duration::from_micros(5));
        profile.record("x", Duration::from_secs(20));
        let stats = profile.get("x").expect("recorded");
        assert_eq!(stats.count(), 3);
        assert_eq!(stats.min(), Some(500.0));
        assert_eq!(stats.max(), Some(20_000_000_000.0));
        assert_eq!(stats.sum(), 20_000_005_500.0);
        // The median is the middle duration within the sketch's relative
        // error; the extremes are exact.
        let p50 = stats.quantile(0.5).expect("non-empty");
        assert!((p50 - 5_000.0).abs() <= 5_000.0 * crate::bucket::RELATIVE_ERROR);
        assert_eq!(stats.quantile(0.0), Some(500.0));
        assert_eq!(stats.quantile(1.0), Some(20_000_000_000.0));
    }

    #[test]
    fn empty_profile_has_no_stats() {
        let profile = WallProfile::new();
        assert!(profile.is_empty());
        assert_eq!(profile.get("x"), None);
        assert_eq!(icm_json::to_string(&profile), r#"{"spans":{}}"#);
    }

    #[test]
    fn profile_serializes_sorted_by_name() {
        let mut profile = WallProfile::new();
        profile.record("zebra", Duration::from_micros(2));
        profile.record("alpha", Duration::from_micros(1));
        profile.record("zebra", Duration::from_micros(4));
        let text = icm_json::to_string(&profile);
        let a = text.find("\"alpha\"").expect("alpha present");
        let z = text.find("\"zebra\"").expect("zebra present");
        assert!(a < z, "BTreeMap keys must serialize sorted");
        assert_eq!(profile.get("zebra").expect("recorded").count(), 2);
        assert!(text.starts_with(r#"{"spans":{"alpha":{"count":1,"total_ns":1000,"min_ns":1000,"#));
        assert!(text.contains(r#""p50_ns":"#) && text.contains(r#""p99_ns":"#));
    }

    #[test]
    fn render_lists_each_name() {
        let mut profile = WallProfile::new();
        profile.record("anneal", Duration::from_millis(3));
        let text = profile.render();
        assert!(text.contains("anneal"));
        assert!(text.contains("1 calls"));
        assert!(text.contains("3.00 ms"));
    }
}
