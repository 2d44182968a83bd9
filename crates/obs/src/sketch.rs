//! A deterministic, mergeable quantile sketch over log buckets.
//!
//! DDSketch-style: each observation lands in the integer bucket given
//! by [`bucket::log_index`], so the sketch is pure integer bookkeeping —
//! two same-seed runs build bit-identical sketches, and serialization
//! is byte-identical. Quantile answers are bucket midpoints, within
//! [`RELATIVE_ERROR`](crate::bucket::RELATIVE_ERROR) of the exact
//! sorted-reference quantile (tested below).
//!
//! Merging two sketches adds their bucket counts — while both are under
//! the bucket cap, `merge(sketch(A), sketch(B))` has exactly the
//! buckets of `sketch(A ++ B)`, which is what lets a hot loop (the
//! annealer) sketch locally and fold its sketch into a shared series
//! losslessly afterwards.
//!
//! Memory is bounded: at most `max_buckets` live buckets. On overflow
//! the *lowest* buckets collapse into their neighbor (counted in
//! [`collapsed`](QuantileSketch::collapsed)), deliberately sacrificing
//! resolution at the cheap end to keep tail quantiles (p90/p99) exact
//! to the error bound — tails are what interference management cares
//! about.

use std::collections::BTreeMap;

use icm_json::ToJson;

use crate::bucket;

/// Default live-bucket cap. 2⁵ sub-buckets per octave means 128 buckets
/// span 4 octaves (a factor of 16) of dynamic range before any collapse
/// happens.
pub const DEFAULT_MAX_BUCKETS: usize = 128;

/// Mergeable log-bucket quantile sketch (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Log-bucket index → observation count (positive normal values).
    buckets: BTreeMap<i64, u64>,
    /// Observations below `f64::MIN_POSITIVE` (zero, negatives,
    /// subnormals); they sit below every bucket in quantile order.
    low: u64,
    /// Non-finite observations — counted, never bucketed or summed.
    non_finite: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    max_buckets: usize,
    collapsed: u64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::with_max_buckets(DEFAULT_MAX_BUCKETS)
    }
}

impl QuantileSketch {
    /// An empty sketch with the default bucket cap.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty sketch holding at most `max_buckets` live buckets
    /// (min 2 — collapse needs a surviving neighbor).
    pub fn with_max_buckets(max_buckets: usize) -> Self {
        Self {
            buckets: BTreeMap::new(),
            low: 0,
            non_finite: 0,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            max_buckets: max_buckets.max(2),
            collapsed: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        self.count += 1;
        if !value.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        match bucket::log_index(value) {
            Some(index) => {
                *self.buckets.entry(index).or_insert(0) += 1;
                self.enforce_cap();
            }
            None => self.low += 1,
        }
    }

    /// Merges another sketch in. Bucket counts add index-by-index, so
    /// while both sides are under the cap this is *exact*: the result
    /// has precisely the buckets of the concatenated observation
    /// streams.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (&index, &count) in &other.buckets {
            *self.buckets.entry(index).or_insert(0) += count;
        }
        self.low += other.low;
        self.non_finite += other.non_finite;
        self.count += other.count;
        self.collapsed += other.collapsed;
        if other.finite_count() > 0 {
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.enforce_cap();
    }

    /// Collapses lowest buckets into their upward neighbor until the
    /// cap holds. Deterministic, and biased to preserve the tail.
    fn enforce_cap(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (_, count) = self.buckets.pop_first().expect("len > cap ≥ 2");
            let (_, neighbor) = self.buckets.iter_mut().next().expect("cap ≥ 2 survivors");
            *neighbor += count;
            self.collapsed += count;
        }
    }

    /// The quantile `q` in `[0, 1]` over the finite observations, as a
    /// bucket midpoint clamped to the observed `[min, max]`. `None`
    /// when no finite observation was recorded.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let finite = self.finite_count();
        if finite == 0 {
            return None;
        }
        // 0-based rank of the order statistic: q = 0 → minimum,
        // q = 1 → maximum, linear in between (nearest rank).
        let rank = (q.clamp(0.0, 1.0) * (finite - 1) as f64).round() as u64;
        if rank < self.low {
            return Some(self.min);
        }
        let mut seen = self.low;
        for (&index, &count) in &self.buckets {
            seen += count;
            if rank < seen {
                return Some(bucket::bucket_mid(index).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Total observations (including non-finite ones).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Finite observations — the population quantiles answer over.
    pub fn finite_count(&self) -> u64 {
        self.count - self.non_finite
    }

    /// Observations below the bucketable range (zero or negative).
    pub fn low_count(&self) -> u64 {
        self.low
    }

    /// Non-finite observations.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite
    }

    /// Observations whose bucket was collapsed away by the memory cap.
    pub fn collapsed(&self) -> u64 {
        self.collapsed
    }

    /// Live bucket count (bounded by the cap).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Sum of finite observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Smallest finite observation (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.finite_count() > 0).then_some(self.min)
    }

    /// Largest finite observation (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.finite_count() > 0).then_some(self.max)
    }

    /// Mean of finite observations (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        let finite = self.finite_count();
        (finite > 0).then(|| self.sum / finite as f64)
    }

    /// Whether nothing has been observed.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Number of finite observations strictly above `threshold`, exact
    /// when `threshold` is a bucket lower edge (e.g. a power of two).
    pub fn count_above(&self, threshold: f64) -> u64 {
        let cut = bucket::log_index(threshold);
        let bucketed: u64 = self
            .buckets
            .iter()
            .filter(|(&i, _)| match cut {
                Some(c) => i > c || (i == c && bucket::bucket_lower(i) > threshold),
                None => true,
            })
            .map(|(_, &c)| c)
            .sum();
        bucketed
    }
}

impl ToJson for QuantileSketch {
    fn write_json(&self, out: &mut String) {
        let buckets: Vec<(i64, u64)> = self.buckets.iter().map(|(&i, &c)| (i, c)).collect();
        icm_json::write_object(
            out,
            [
                ("count", &self.count as &dyn ToJson),
                ("low", &self.low),
                ("non_finite", &self.non_finite),
                ("collapsed", &self.collapsed),
                ("sum", &self.sum),
                ("min", &self.min().unwrap_or(0.0)),
                ("max", &self.max().unwrap_or(0.0)),
                ("error", &crate::bucket::RELATIVE_ERROR),
                ("buckets", &buckets),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket::RELATIVE_ERROR;
    use icm_rng::Rng;

    fn seeded_stream(seed: u64, n: usize, scale: f64) -> Vec<f64> {
        let mut rng = Rng::from_seed(seed);
        (0..n).map(|_| rng.gen_f64() * scale + 1e-6).collect()
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() - 1) as f64).round() as usize;
        sorted[rank]
    }

    #[test]
    fn quantiles_stay_within_the_documented_relative_error() {
        for seed in [1u64, 42, 2016] {
            let values = seeded_stream(seed, 4096, 250.0);
            // The error bound is the *uncollapsed* contract: give the
            // sketch room for the full [1e-6, 250) range so the bucket
            // cap never trades away the low end (that tradeoff has its
            // own test below).
            let mut sketch = QuantileSketch::with_max_buckets(4096);
            for &v in &values {
                sketch.observe(v);
            }
            assert_eq!(sketch.collapsed(), 0, "cap must not fire here");
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0] {
                let exact = exact_quantile(&sorted, q);
                let approx = sketch.quantile(q).expect("non-empty");
                let rel = ((approx - exact) / exact).abs();
                assert!(
                    rel <= RELATIVE_ERROR + 1e-12,
                    "seed {seed} q{q}: {approx} vs exact {exact} (rel {rel})"
                );
            }
        }
    }

    #[test]
    fn merging_an_empty_sketch_is_the_identity() {
        let mut sketch = QuantileSketch::new();
        for v in [1.0, 2.5, 9.0] {
            sketch.observe(v);
        }
        let before = sketch.clone();
        sketch.merge(&QuantileSketch::new());
        assert_eq!(sketch, before, "empty merge must change nothing");
        // And merging *into* an empty sketch reproduces the other side.
        let mut empty = QuantileSketch::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn disjoint_range_merge_is_exact() {
        let lows = seeded_stream(7, 500, 1.0); // (0, 1]
        let highs: Vec<f64> = seeded_stream(8, 500, 1.0)
            .into_iter()
            .map(|v| v + 1000.0)
            .collect();
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut both = QuantileSketch::new();
        for &v in &lows {
            a.observe(v);
            both.observe(v);
        }
        for &v in &highs {
            b.observe(v);
            both.observe(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.buckets, both.buckets, "merge must be bucket-exact");
        assert_eq!(merged.count(), both.count());
        assert_eq!(merged.min(), both.min());
        assert_eq!(merged.max(), both.max());
        for q in [0.1, 0.5, 0.9] {
            assert_eq!(merged.quantile(q), both.quantile(q));
        }
        // The halves are separated, so the median splits them exactly.
        assert!(merged.quantile(0.25).expect("non-empty") < 2.0);
        assert!(merged.quantile(0.75).expect("non-empty") > 999.0);
    }

    #[test]
    fn merge_order_does_not_matter() {
        let mut parts: Vec<QuantileSketch> = Vec::new();
        for part in 0..4u64 {
            let mut s = QuantileSketch::new();
            for &v in &seeded_stream(part + 10, 300, 50.0) {
                s.observe(v);
            }
            parts.push(s);
        }
        let mut forward = QuantileSketch::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = QuantileSketch::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward.buckets, backward.buckets);
        assert_eq!(forward.count(), backward.count());
        for q in [0.5, 0.99] {
            assert_eq!(forward.quantile(q), backward.quantile(q));
        }
    }

    #[test]
    fn zero_negative_and_non_finite_observations_are_partitioned() {
        let mut sketch = QuantileSketch::new();
        sketch.observe(0.0);
        sketch.observe(-3.0);
        sketch.observe(f64::NAN);
        sketch.observe(f64::INFINITY);
        sketch.observe(5.0);
        assert_eq!(sketch.count(), 5);
        assert_eq!(sketch.finite_count(), 3);
        assert_eq!(sketch.low_count(), 2);
        assert_eq!(sketch.non_finite_count(), 2);
        assert_eq!(sketch.min(), Some(-3.0));
        assert_eq!(sketch.max(), Some(5.0));
        // Low observations rank below every bucket: p0 is the true min.
        assert_eq!(sketch.quantile(0.0), Some(-3.0));
        assert_eq!(sketch.quantile(1.0), Some(5.0));
    }

    #[test]
    fn bucket_cap_collapses_the_low_end_and_keeps_the_tail() {
        let mut sketch = QuantileSketch::with_max_buckets(8);
        // A 6-decade sweep forces far more than 8 distinct buckets.
        let values = seeded_stream(3, 2000, 1.0);
        for (i, &v) in values.iter().enumerate() {
            sketch.observe(v * 10f64.powi((i % 6) as i32));
        }
        assert!(sketch.bucket_len() <= 8, "cap must hold");
        assert!(sketch.collapsed() > 0, "collapse must have happened");
        assert_eq!(sketch.count(), 2000);
        // The top decade is intact: p99 still answers near the maximum.
        let p99 = sketch.quantile(0.99).expect("non-empty");
        let max = sketch.max().expect("non-empty");
        assert!(
            p99 > max / 100.0,
            "tail resolution lost: p99 {p99} max {max}"
        );
    }

    #[test]
    fn sketch_counts_exactly_above_a_bucket_edge() {
        // 4.0 is a power of two — a log-bucket lower edge — so the
        // sketch's count strictly above it must equal an exact count of
        // the same observations.
        let mut sketch = QuantileSketch::new();
        // Half-integer values: every one is a log-bucket *edge*, so no
        // observation straddles the 4.0 cut inside one bucket.
        let mut rng = Rng::from_seed(11);
        let values: Vec<f64> = (0..1000)
            .map(|_| (rng.next_u64() % 16 + 1) as f64 * 0.5)
            .collect();
        for &v in &values {
            sketch.observe(v);
        }
        let above = values.iter().filter(|&&v| v > 4.0).count() as u64;
        assert!(above > 0, "stream must actually cross the edge");
        assert_eq!(sketch.count_above(4.0), above);
        // NaN is excluded from the bucketed population and counted as
        // non-finite instead.
        sketch.observe(f64::NAN);
        assert_eq!(sketch.count_above(4.0), above);
        assert_eq!(sketch.non_finite_count(), 1);
    }

    #[test]
    fn serialization_is_deterministic_and_compact() {
        let build = || {
            let mut s = QuantileSketch::new();
            for &v in &seeded_stream(5, 200, 30.0) {
                s.observe(v);
            }
            icm_json::to_string(&s)
        };
        let text = build();
        assert_eq!(text, build(), "same stream must serialize identically");
        assert!(text.contains("\"buckets\":[["));
        assert!(
            text.len() < 4096,
            "sketch JSON must stay small: {}",
            text.len()
        );
    }

    #[test]
    fn empty_sketch_answers_no_quantiles() {
        let sketch = QuantileSketch::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.max(), None);
        assert_eq!(sketch.mean(), None);
        let mut nan_only = QuantileSketch::new();
        nan_only.observe(f64::NAN);
        assert_eq!(nan_only.quantile(0.5), None, "no finite population");
    }
}
