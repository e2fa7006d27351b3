//! The paper's quality metric `Q` (Eq. 3) and `MRE` (Eq. 4).

use crate::confusion::{ConfusionMatrix, FractionalConfusion};

/// The precision/recall trade-off weight `α ∈ [0, 1]` of Eq. 3, chosen by
/// data subjects and consumers (the paper's evaluation fixes `α = 0.5`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Alpha(f64);

impl Alpha {
    /// The paper's evaluation setting: equal weight.
    pub const HALF: Alpha = Alpha(0.5);

    /// Construct, clamping into `[0, 1]` is *not* done — out-of-range values
    /// are rejected.
    pub fn new(value: f64) -> Option<Alpha> {
        if value.is_finite() && (0.0..=1.0).contains(&value) {
            Some(Alpha(value))
        } else {
            None
        }
    }

    /// The weight value.
    pub const fn value(self) -> f64 {
        self.0
    }
}

impl Default for Alpha {
    fn default() -> Self {
        Alpha::HALF
    }
}

/// Eq. 3: `Q = α·Prec + (1−α)·Rec`.
pub fn quality(precision: f64, recall: f64, alpha: Alpha) -> f64 {
    alpha.value() * precision + (1.0 - alpha.value()) * recall
}

/// The F1 score (harmonic mean of precision and recall) — not the paper's
/// metric (Eq. 3 is an arithmetic blend), provided for comparison since
/// most detection literature reports it.
pub fn f1(precision: f64, recall: f64) -> f64 {
    if precision + recall <= f64::EPSILON {
        return 0.0;
    }
    2.0 * precision * recall / (precision + recall)
}

/// Eq. 4: `MRE_Q = (Q_ord − Q_PPM) / Q_ord`.
///
/// Degenerate case: if `Q_ord = 0` there is no quality to lose; MRE is 0 by
/// convention (both qualities are 0 — protection cannot have made it worse).
pub fn mre(q_ord: f64, q_ppm: f64) -> f64 {
    if q_ord.abs() <= f64::EPSILON {
        return 0.0;
    }
    (q_ord - q_ppm) / q_ord
}

/// A bundled quality report for one detection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityReport {
    /// Eq. 2.
    pub precision: f64,
    /// Eq. 1.
    pub recall: f64,
    /// Eq. 3 at the α used.
    pub q: f64,
    /// The α used.
    pub alpha: Alpha,
}

impl QualityReport {
    /// From integer confusion counts.
    pub fn from_confusion(m: &ConfusionMatrix, alpha: Alpha) -> Self {
        let precision = m.precision();
        let recall = m.recall();
        QualityReport {
            precision,
            recall,
            q: quality(precision, recall, alpha),
            alpha,
        }
    }

    /// From fractional (expected) confusion counts.
    pub fn from_fractional(m: &FractionalConfusion, alpha: Alpha) -> Self {
        let precision = m.precision();
        let recall = m.recall();
        QualityReport {
            precision,
            recall,
            q: quality(precision, recall, alpha),
            alpha,
        }
    }

    /// MRE of this report against an unprotected baseline report.
    pub fn mre_against(&self, baseline: &QualityReport) -> f64 {
        mre(baseline.q, self.q)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn alpha_validation() {
        assert!(Alpha::new(0.0).is_some());
        assert!(Alpha::new(1.0).is_some());
        assert!(Alpha::new(-0.1).is_none());
        assert!(Alpha::new(1.1).is_none());
        assert!(Alpha::new(f64::NAN).is_none());
        assert_eq!(Alpha::default().value(), 0.5);
    }

    #[test]
    fn quality_weights_endpoints() {
        // α = 1 → precision only, α = 0 → recall only
        assert_eq!(quality(0.8, 0.2, Alpha::new(1.0).unwrap()), 0.8);
        assert_eq!(quality(0.8, 0.2, Alpha::new(0.0).unwrap()), 0.2);
        assert!((quality(0.8, 0.2, Alpha::HALF) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn f1_properties() {
        assert_eq!(f1(0.0, 0.0), 0.0);
        assert_eq!(f1(1.0, 0.0), 0.0);
        assert!((f1(1.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((f1(0.5, 0.5) - 0.5).abs() < 1e-12);
        // harmonic mean ≤ arithmetic mean = Q at α = 1/2
        let (p, r) = (0.9, 0.3);
        assert!(f1(p, r) <= quality(p, r, Alpha::HALF) + 1e-12);
    }

    #[test]
    fn mre_basics() {
        assert!((mre(0.8, 0.6) - 0.25).abs() < 1e-12);
        assert_eq!(mre(0.0, 0.0), 0.0);
        assert_eq!(mre(0.5, 0.5), 0.0);
        // a PPM that *improves* quality yields negative MRE
        assert!(mre(0.5, 0.6) < 0.0);
    }

    #[test]
    fn report_from_confusion() {
        let mut m = ConfusionMatrix::new();
        // 3 TP, 1 FP, 1 FN → prec 0.75, rec 0.75
        for _ in 0..3 {
            m.record(true, true);
        }
        m.record(false, true);
        m.record(true, false);
        let r = QualityReport::from_confusion(&m, Alpha::HALF);
        assert!((r.precision - 0.75).abs() < 1e-12);
        assert!((r.recall - 0.75).abs() < 1e-12);
        assert!((r.q - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mre_against_baseline() {
        let base = QualityReport {
            precision: 1.0,
            recall: 1.0,
            q: 1.0,
            alpha: Alpha::HALF,
        };
        let degraded = QualityReport {
            precision: 0.5,
            recall: 0.9,
            q: 0.7,
            alpha: Alpha::HALF,
        };
        assert!((degraded.mre_against(&base) - 0.3).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn quality_in_unit_interval(p in 0.0f64..=1.0, r in 0.0f64..=1.0, a in 0.0f64..=1.0) {
            let q = quality(p, r, Alpha::new(a).unwrap());
            prop_assert!((0.0..=1.0).contains(&q));
        }

        #[test]
        fn mre_bounded_by_one_when_quality_nonnegative(
            q_ord in 0.0001f64..=1.0, q_ppm in 0.0f64..=1.0
        ) {
            let m = mre(q_ord, q_ppm);
            prop_assert!(m <= 1.0 + 1e-12);
        }

        #[test]
        fn quality_monotone_in_inputs(
            p1 in 0.0f64..=1.0, p2 in 0.0f64..=1.0, r in 0.0f64..=1.0, a in 0.01f64..=1.0
        ) {
            let alpha = Alpha::new(a).unwrap();
            if p1 <= p2 {
                prop_assert!(quality(p1, r, alpha) <= quality(p2, r, alpha) + 1e-12);
            }
        }
    }
}
