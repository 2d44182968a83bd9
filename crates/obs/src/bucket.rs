//! Bucket-index math for the crate's one aggregate, the
//! [`QuantileSketch`](crate::QuantileSketch) (which the wall-time
//! profile uses too).
//!
//! [`log_index`] and friends are logarithmic buckets, DDSketch-style but
//! derived purely from the IEEE-754 bit pattern: the index of a
//! positive normal `f64` is its exponent field concatenated with the
//! top [`SUB_BUCKET_BITS`] mantissa bits. That mapping is monotone,
//! needs no `ln()`, and — crucially for the determinism contract — is
//! exact integer arithmetic, so same-seed runs bucket identically on
//! every platform.

/// Mantissa bits kept in a log-bucket index. Each power of two is split
/// into `2^SUB_BUCKET_BITS` sub-buckets.
pub const SUB_BUCKET_BITS: u32 = 5;

/// Worst-case relative error of a bucket midpoint against any value in
/// the bucket: `2^-(SUB_BUCKET_BITS + 1)` (= 1.5625% at 5 bits). The
/// sketch's quantile answers are within this bound of an exact sorted
/// reference (tested in `sketch.rs`).
pub const RELATIVE_ERROR: f64 = 1.0 / (1u64 << (SUB_BUCKET_BITS + 1)) as f64;

/// Bits shifted off an `f64`'s pattern to form its bucket index.
const SHIFT: u32 = 52 - SUB_BUCKET_BITS;

/// Log-bucket index of a positive normal `f64`; `None` for values that
/// are non-finite, non-positive or subnormal (the sketch counts those
/// separately — their relative-error story is different).
#[inline]
pub fn log_index(value: f64) -> Option<i64> {
    if value.is_finite() && value >= f64::MIN_POSITIVE {
        Some((value.to_bits() >> SHIFT) as i64)
    } else {
        None
    }
}

/// Inclusive lower edge of a log bucket.
pub fn bucket_lower(index: i64) -> f64 {
    f64::from_bits((index as u64) << SHIFT)
}

/// Exclusive upper edge of a log bucket.
pub fn bucket_upper(index: i64) -> f64 {
    f64::from_bits(((index + 1) as u64) << SHIFT)
}

/// Representative value for a log bucket: the midpoint of its edges,
/// which bounds the relative error by [`RELATIVE_ERROR`]. For the
/// topmost finite bucket (whose upper edge would be infinite) the lower
/// edge is returned.
pub fn bucket_mid(index: i64) -> f64 {
    let lower = bucket_lower(index);
    let upper = bucket_upper(index);
    if upper.is_finite() {
        lower / 2.0 + upper / 2.0
    } else {
        lower
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_index_is_monotone_over_positive_normals() {
        let values = [
            f64::MIN_POSITIVE,
            1e-300,
            0.001,
            0.5,
            0.999,
            1.0,
            1.0001,
            2.0,
            3.5,
            1000.0,
            1e18,
            f64::MAX,
        ];
        let indices: Vec<i64> = values
            .iter()
            .map(|&v| log_index(v).expect("normal"))
            .collect();
        assert!(
            indices.windows(2).all(|w| w[0] <= w[1]),
            "indices must be monotone: {indices:?}"
        );
    }

    #[test]
    fn log_index_rejects_non_positive_and_non_finite() {
        for bad in [0.0, -1.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(log_index(bad), None, "{bad} must not bucket");
        }
        // Subnormals are excluded too (their buckets would not satisfy
        // the relative-error bound).
        assert_eq!(log_index(f64::MIN_POSITIVE / 2.0), None);
    }

    #[test]
    fn bucket_edges_contain_their_values_and_bound_the_error() {
        for &v in &[0.001, 0.9, 1.0, 1.49, 7.77, 12345.678, 9.9e200] {
            let i = log_index(v).expect("normal");
            let (lo, hi) = (bucket_lower(i), bucket_upper(i));
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            let mid = bucket_mid(i);
            let rel = ((mid - v) / v).abs();
            assert!(
                rel <= RELATIVE_ERROR,
                "{v}: midpoint {mid} off by {rel} > {RELATIVE_ERROR}"
            );
        }
    }

    #[test]
    fn power_of_two_values_start_their_own_bucket() {
        for &v in &[0.25, 0.5, 1.0, 2.0, 4.0, 1024.0] {
            let i = log_index(v).expect("normal");
            assert_eq!(bucket_lower(i), v, "{v} must be a bucket lower edge");
        }
    }
}
