//! Order statistics over timing samples.

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q)
}

fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let rank = q.clamp(0.0, 1.0) * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median of unsorted samples, `0.0` when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// How many samples lie strictly above the `q` quantile. A percentile
/// is only reported when at least ten samples lie beyond it.
pub fn beyond(samples: &[f64], q: f64) -> usize {
    match quantile(samples, q) {
        Some(cut) => samples.iter().filter(|&&s| s > cut).count(),
        None => 0,
    }
}

/// The spread of a sample set: min, quartiles, max and count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Spread {
    /// Summarizes unsorted samples; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Spread> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        Some(Spread {
            min: *sorted.first()?,
            q1: quantile_sorted(&sorted, 0.25)?,
            median: quantile_sorted(&sorted, 0.5)?,
            q3: quantile_sorted(&sorted, 0.75)?,
            max: *sorted.last()?,
            n: sorted.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let samples = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&samples, 0.0), Some(1.0));
        assert_eq!(quantile(&samples, 0.5), Some(3.0));
        assert_eq!(quantile(&samples, 0.625), Some(3.5));
        assert_eq!(quantile(&samples, 1.0), Some(5.0));
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn beyond_counts_the_tail() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(beyond(&samples, 0.99), 10);
        assert_eq!(beyond(&samples[..100], 0.99), 1);
    }

    #[test]
    fn spread_orders_its_fields() {
        let s = Spread::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.min, s.median, s.max, s.n), (1.0, 2.0, 3.0, 3));
        assert!(s.q1 <= s.median && s.median <= s.q3);
        assert!(Spread::of(&[]).is_none());
    }
}
