//! Order statistics over small sample sets.

/// The `q`-quantile of `samples` (nearest rank on the sorted values).
/// Sorts in place; `samples` must be non-empty.
pub fn quantile<T: Copy + PartialOrd>(samples: &mut [T], q: f64) -> T {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

/// Median by the usual even/odd rule; `values` must be non-empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The highest percentile a sample of `n` supports with at least ten
/// samples beyond it, as a quantile in `(0, 1)`; `None` below 20 samples
/// (not even the median has ten on each side).
pub fn highest_supported_quantile(n: usize) -> Option<f64> {
    [0.9999, 0.999, 0.99, 0.9, 0.5]
        .into_iter()
        .find(|q| (n as f64 * (1.0 - q)).floor() >= 10.0)
}

/// Interquartile range over the median — the spread the driver computes —
/// with Python's `statistics.quantiles(values, n=4)` (exclusive method).
pub fn iqr_share(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("values are never NaN"));
    let n = v.len();
    let cut = |i: usize| {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (cut(3) - cut(1)) / median(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&mut [5u32, 1, 4, 2, 3], 0.5), 3);
        assert_eq!(quantile(&mut [5u32, 1, 4, 2, 3], 0.99), 5);
    }

    #[test]
    fn supported_percentile_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_quantile(19), None);
        assert_eq!(highest_supported_quantile(20), Some(0.5));
        assert_eq!(highest_supported_quantile(1000), Some(0.99));
        assert_eq!(highest_supported_quantile(10_000), Some(0.999));
    }
}
