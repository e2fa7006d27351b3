//! Composition accounting for the w-event baselines.
//!
//! Sequential composition: releasing `M₁, …, Mₖ` on the same data costs
//! `Σ εᵢ`. Theorem 1 of the paper is exactly sequential composition of
//! per-event randomized responses along a pattern; the w-event baselines'
//! guarantee is sequential composition inside any window of `w`
//! timestamps, which [`SlidingWindowAccountant`] checks.

use crate::budget::Epsilon;

/// Sliding-window sequential composition: the w-event invariant.
///
/// Tracks per-timestamp spends and reports the worst total over any window
/// of `w` successive timestamps — the quantity that must stay ≤ ε for
/// w-event privacy (Kellaris et al.).
#[derive(Debug, Clone)]
pub struct SlidingWindowAccountant {
    w: usize,
    spends: Vec<Epsilon>,
}

impl SlidingWindowAccountant {
    /// Track windows of `w` timestamps (w ≥ 1).
    pub fn new(w: usize) -> Self {
        assert!(w >= 1, "window must hold at least one timestamp");
        SlidingWindowAccountant {
            w,
            spends: Vec::new(),
        }
    }

    /// Record the spend at the next timestamp.
    pub fn record(&mut self, eps: Epsilon) {
        self.spends.push(eps);
    }

    /// The maximum total spend over any `w` consecutive timestamps.
    pub fn worst_window_total(&self) -> Epsilon {
        if self.spends.is_empty() {
            return Epsilon::ZERO;
        }
        let mut best = Epsilon::ZERO;
        let mut sum = Epsilon::ZERO;
        for i in 0..self.spends.len() {
            sum += self.spends[i];
            if i >= self.w {
                sum = sum.saturating_sub(self.spends[i - self.w]);
            }
            best = best.max(sum);
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    #[test]
    fn sliding_window_worst_total() {
        let mut acc = SlidingWindowAccountant::new(3);
        for v in [0.1, 0.2, 0.3, 0.4, 0.0, 0.0, 0.9] {
            acc.record(eps(v));
        }
        // windows of 3: [0.1,0.2,0.3]=0.6 [0.2,0.3,0.4]=0.9 [0.3,0.4,0]=0.7
        // [0.4,0,0]=0.4 [0,0,0.9]=0.9 ... max = 0.9
        assert!((acc.worst_window_total().value() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn sliding_window_of_one_is_pointwise_max() {
        let mut acc = SlidingWindowAccountant::new(1);
        for v in [0.3, 0.7, 0.1] {
            acc.record(eps(v));
        }
        assert!((acc.worst_window_total().value() - 0.7).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn sliding_matches_naive(
            spends in proptest::collection::vec(0.0f64..2.0, 0..40),
            w in 1usize..8,
        ) {
            let mut acc = SlidingWindowAccountant::new(w);
            for &v in &spends {
                acc.record(eps(v));
            }
            let naive = (0..spends.len())
                .map(|i| {
                    let lo = i.saturating_sub(w - 1);
                    spends[lo..=i].iter().sum::<f64>()
                })
                .fold(0.0f64, f64::max);
            prop_assert!((acc.worst_window_total().value() - naive).abs() < 1e-9);
        }
    }
}
