//! An HDR-style log-bucketed latency histogram.
//!
//! The service edge measures tail latency — what millions of users
//! actually feel — so the recorder must be cheap enough to sit on the
//! request path (no allocation after construction, O(1) record) while
//! resolving the far tail (p999 and beyond) with bounded relative error.
//! [`LatencyHistogram`] is the classic HDR shape: values bucket into
//! base-2 octaves, each octave split into `2^SUB_BITS` linear
//! sub-buckets, so every recorded value lands in a bucket whose width is
//! at most `1/2^SUB_BITS` (≈ 3 %) of the value itself — fine enough for
//! percentile reporting at any magnitude from nanoseconds to minutes
//! without per-magnitude configuration or unbounded memory.
//!
//! Values are plain `u64`s; the service edge records **nanoseconds**
//! (`Instant::elapsed().as_nanos() as u64`). Quantiles interpolate
//! nothing: [`LatencyHistogram::quantile`] returns the upper bound of
//! the bucket containing the requested rank, so reported percentiles are
//! conservative (never under-state the tail) and monotone in `q` by
//! construction (p50 ≤ p99 ≤ p999; pinned by `quantiles_are_monotone`).

/// Linear sub-bucket resolution: each power-of-two octave is split into
/// `2^SUB_BITS` equal sub-buckets, bounding the relative quantization
/// error at `2^-SUB_BITS` ≈ 3 %.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u32 = 1 << SUB_BITS;
/// Octaves above the linear range: values up to `2^(SUB_BITS + OCTAVES)`
/// nanoseconds (≈ 36 minutes for the default 5/36 split) bucket exactly;
/// anything larger clamps into the top bucket (and is still counted and
/// reflected in [`LatencyHistogram::max`]).
const OCTAVES: u32 = 36;
const N_BUCKETS: usize = (SUB_COUNT * (OCTAVES + 1)) as usize;

/// A fixed-size log-bucketed histogram of `u64` samples (nanoseconds by
/// convention). Construction allocates the bucket array once; recording
/// never allocates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
    min: u64,
    sum: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            counts: vec![0; N_BUCKETS],
            total: 0,
            max: 0,
            min: u64::MAX,
            sum: 0,
        }
    }

    /// The bucket index of `value`. Octave 0 (`value < 2^SUB_BITS`) maps
    /// linearly and exactly; octave `o ≥ 1` covers
    /// `[2^(SUB_BITS+o−1), 2^(SUB_BITS+o))` in `SUB_COUNT` sub-buckets of
    /// width `2^(o−1)`. Values past the last octave clamp into the top
    /// bucket (still counted; `max` stays exact).
    fn bucket(value: u64) -> usize {
        if value < SUB_COUNT as u64 {
            return value as usize;
        }
        let exp = 63 - value.leading_zeros(); // ≥ SUB_BITS
        let octave = exp - SUB_BITS + 1;
        if octave > OCTAVES {
            return N_BUCKETS - 1;
        }
        let lower = 1u64 << (SUB_BITS + octave - 1);
        let sub = ((value - lower) >> (octave - 1)) as u32;
        (octave * SUB_COUNT + sub) as usize
    }

    /// The *upper* bound of bucket `index` — what quantiles report, so
    /// percentiles are conservative (never understate the tail).
    fn bucket_upper(index: usize) -> u64 {
        let sub_count = SUB_COUNT as u64;
        let index = index as u64;
        if index < sub_count {
            return index; // width-1 buckets are exact
        }
        let octave = (index / sub_count) as u32;
        let sub = index % sub_count;
        let width = 1u64 << (octave - 1);
        let lower = (1u64 << (SUB_BITS + octave - 1)) + sub * width;
        lower + width - 1
    }

    /// Record one sample.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.max = self.max.max(value);
        self.min = self.min.min(value);
        self.sum = self.sum.saturating_add(value);
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Largest recorded sample (exact, not bucketed). 0 when empty.
    pub fn max(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.max
        }
    }

    /// Smallest recorded sample (exact). 0 when empty.
    pub fn min(&self) -> u64 {
        if self.is_empty() {
            0
        } else {
            self.min
        }
    }

    /// Mean of the recorded samples (exact sum / count). 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// The `q`-quantile (`0.0 ≤ q ≤ 1.0`): the upper bound of the bucket
    /// holding the sample of rank `⌈q·n⌉`, clamped to the exact observed
    /// [`LatencyHistogram::max`]. Monotone in `q`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.is_empty() {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // the top bucket holds clamped outliers — report the
                // exact observed max for it; elsewhere the clamp only
                // trims the bucket containing the max itself
                if i == N_BUCKETS - 1 {
                    return self.max;
                }
                return Self::bucket_upper(i).min(self.max);
            }
        }
        self.max
    }

    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
        self.min = self.min.min(other.min);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..SUB_COUNT as u64 {
            h.record(v);
        }
        assert_eq!(h.len(), SUB_COUNT as u64);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), SUB_COUNT as u64 - 1);
        // the lowest octave buckets exactly
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), SUB_COUNT as u64 - 1);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        for magnitude in [100u64, 10_000, 1_000_000, 100_000_000, 10_000_000_000] {
            let mut h1 = LatencyHistogram::new();
            h1.record(magnitude);
            let q = h1.quantile(0.5);
            // conservative (never under), within ~2 sub-bucket widths over
            assert!(q >= magnitude || q == h1.max(), "{q} vs {magnitude}");
            assert!(
                (q as f64) <= magnitude as f64 * (1.0 + 2.0 / SUB_COUNT as f64),
                "quantile {q} overshoots {magnitude}"
            );
            h.record(magnitude);
        }
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LatencyHistogram::new();
        let mut x = 1u64;
        for i in 0..10_000u64 {
            // a heavy-tailed-ish deterministic spread over 6 decades
            x = x.wrapping_mul(6364136223846793005).wrapping_add(i);
            h.record(x % 1_000_000_000);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) = {v} < {last}");
            last = v;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn known_distribution_percentiles() {
        let mut h = LatencyHistogram::new();
        // 1000 samples: 985 at ~1µs, 13 at ~1ms, 2 at ~1s, so the
        // standard ceil-rank quantiles land p50→1µs, p99→1ms, p999→1s
        for _ in 0..985 {
            h.record(1_000);
        }
        for _ in 0..13 {
            h.record(1_000_000);
        }
        h.record(1_000_000_000);
        h.record(1_000_000_000);
        let tol = |v: u64| (v as f64 * (1.0 + 2.0 / SUB_COUNT as f64)) as u64;
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        let p999 = h.quantile(0.999);
        assert!((1_000..=tol(1_000)).contains(&p50), "p50 {p50}");
        assert!((1_000_000..=tol(1_000_000)).contains(&p99), "p99 {p99}");
        assert!(
            (1_000_000_000..=tol(1_000_000_000)).contains(&p999),
            "p999 {p999}"
        );
        let p90 = h.quantile(0.9);
        assert!(p50 <= p90 && p90 <= p99);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        let mut whole = LatencyHistogram::new();
        for i in 0..500u64 {
            let v = i * i * 37 + 11;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole);
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn huge_values_clamp_into_the_top_bucket() {
        let mut h = LatencyHistogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX - 1);
        assert_eq!(h.len(), 2);
        assert_eq!(h.max(), u64::MAX);
        // clamped but counted; the quantile clamps to the observed max
        assert_eq!(h.quantile(1.0), u64::MAX);
    }
}
