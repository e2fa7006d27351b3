//! Confusion matrices, integer and fractional.
//!
//! [`ConfusionMatrix`] accumulates hard detections (the Monte-Carlo path);
//! [`FractionalConfusion`] accumulates *expected* counts under per-window
//! detection probabilities (the closed-form path used by Algorithm 1's
//! quality estimator).

/// Integer confusion counts for binary detection.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// Truth positive, predicted positive.
    pub tp: u64,
    /// Truth negative, predicted positive.
    pub fp: u64,
    /// Truth positive, predicted negative.
    pub fn_: u64,
    /// Truth negative, predicted negative.
    pub tn: u64,
}

impl ConfusionMatrix {
    /// An all-zero matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one `(truth, predicted)` observation.
    pub fn record(&mut self, truth: bool, predicted: bool) {
        match (truth, predicted) {
            (true, true) => self.tp += 1,
            (false, true) => self.fp += 1,
            (true, false) => self.fn_ += 1,
            (false, false) => self.tn += 1,
        }
    }

    /// Record a whole slice of paired observations.
    pub fn record_all(&mut self, truth: &[bool], predicted: &[bool]) {
        debug_assert_eq!(truth.len(), predicted.len());
        for (&t, &p) in truth.iter().zip(predicted) {
            self.record(t, p);
        }
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &ConfusionMatrix) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Eq. 2. Convention: if no positives were predicted (`TP + FP = 0`)
    /// precision is defined as 1 when there were also no truth positives
    /// (nothing to find, nothing falsely reported) and 0 otherwise.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return if self.fn_ == 0 { 1.0 } else { 0.0 };
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Eq. 1. Convention: with no truth positives (`TP + FN = 0`), recall
    /// is 1 if nothing was falsely reported and 0 otherwise (a mechanism
    /// that invents detections on an empty truth earns no recall credit).
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return if self.fp == 0 { 1.0 } else { 0.0 };
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }
}

/// Expected (fractional) confusion counts.
///
/// Each window contributes its *detection probability* instead of a hard
/// 0/1, so `precision()`/`recall()` are the plug-in estimators
/// `E[TP]/(E[TP]+E[FP])` and `E[TP]/(E[TP]+E[FN])`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FractionalConfusion {
    /// Expected true positives.
    pub tp: f64,
    /// Expected false positives.
    pub fp: f64,
    /// Expected false negatives.
    pub fn_: f64,
    /// Expected true negatives.
    pub tn: f64,
}

impl FractionalConfusion {
    /// An all-zero matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one window: the truth flag and the probability the mechanism
    /// reports a detection.
    pub fn record(&mut self, truth: bool, detect_prob: f64) {
        self.record_n(truth, detect_prob, 1.0);
    }

    /// Record `n` windows that share one truth flag and one detection
    /// probability, as a single weighted update.
    pub fn record_n(&mut self, truth: bool, detect_prob: f64, n: f64) {
        debug_assert!((0.0..=1.0 + 1e-9).contains(&detect_prob));
        let p = detect_prob.clamp(0.0, 1.0);
        if truth {
            self.tp += n * p;
            self.fn_ += n * (1.0 - p);
        } else {
            self.fp += n * p;
            self.tn += n * (1.0 - p);
        }
    }

    /// Merge another matrix into this one.
    pub fn merge(&mut self, other: &FractionalConfusion) {
        self.tp += other.tp;
        self.fp += other.fp;
        self.fn_ += other.fn_;
        self.tn += other.tn;
    }

    /// Total expected observations.
    pub fn total(&self) -> f64 {
        self.tp + self.fp + self.fn_ + self.tn
    }

    /// Plug-in precision with the same conventions as
    /// [`ConfusionMatrix::precision`].
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp <= f64::EPSILON {
            return if self.fn_ <= f64::EPSILON { 1.0 } else { 0.0 };
        }
        self.tp / (self.tp + self.fp)
    }

    /// Plug-in recall with the same conventions as
    /// [`ConfusionMatrix::recall`].
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ <= f64::EPSILON {
            return if self.fp <= f64::EPSILON { 1.0 } else { 0.0 };
        }
        self.tp / (self.tp + self.fn_)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn record_routes_to_cells() {
        let mut m = ConfusionMatrix::new();
        m.record(true, true);
        m.record(true, false);
        m.record(false, true);
        m.record(false, false);
        assert_eq!((m.tp, m.fn_, m.fp, m.tn), (1, 1, 1, 1));
        assert_eq!(m.total(), 4);
        assert!((m.precision() - 0.5).abs() < 1e-12);
        assert!((m.recall() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn record_all_and_merge() {
        let mut a = ConfusionMatrix::new();
        a.record_all(&[true, false, true], &[true, true, false]);
        let mut b = ConfusionMatrix::new();
        b.record(false, false);
        a.merge(&b);
        assert_eq!(a.total(), 4);
        assert_eq!(a.tp, 1);
        assert_eq!(a.fp, 1);
        assert_eq!(a.fn_, 1);
        assert_eq!(a.tn, 1);
    }

    #[test]
    fn degenerate_conventions() {
        // nothing to find, nothing reported: perfect
        let empty = ConfusionMatrix::new();
        assert_eq!(empty.precision(), 1.0);
        assert_eq!(empty.recall(), 1.0);
        // truth positives exist but nothing predicted: precision 0
        let mut misses = ConfusionMatrix::new();
        misses.record(true, false);
        assert_eq!(misses.precision(), 0.0);
        assert_eq!(misses.recall(), 0.0);
        // no truth positives but false alarms: recall 0
        let mut alarms = ConfusionMatrix::new();
        alarms.record(false, true);
        assert_eq!(alarms.recall(), 0.0);
        assert_eq!(alarms.precision(), 0.0);
    }

    #[test]
    fn fractional_accumulates_probabilities() {
        let mut f = FractionalConfusion::new();
        f.record(true, 0.8);
        f.record(false, 0.1);
        assert!((f.tp - 0.8).abs() < 1e-12);
        assert!((f.fn_ - 0.2).abs() < 1e-12);
        assert!((f.fp - 0.1).abs() < 1e-12);
        assert!((f.tn - 0.9).abs() < 1e-12);
        assert!((f.precision() - 0.8 / 0.9).abs() < 1e-12);
        assert!((f.recall() - 0.8).abs() < 1e-12);
    }

    #[test]
    fn fractional_matches_integer_on_hard_probs() {
        let truth = [true, false, true, true, false];
        let pred = [true, true, false, true, false];
        let mut hard = ConfusionMatrix::new();
        hard.record_all(&truth, &pred);
        let mut soft = FractionalConfusion::new();
        for (&t, &p) in truth.iter().zip(&pred) {
            soft.record(t, if p { 1.0 } else { 0.0 });
        }
        assert!((soft.precision() - hard.precision()).abs() < 1e-12);
        assert!((soft.recall() - hard.recall()).abs() < 1e-12);
    }

    #[test]
    fn record_n_equals_repeated_records() {
        let mut once = FractionalConfusion::new();
        once.record_n(true, 0.5, 3.0);
        once.record_n(false, 0.25, 2.0);
        let mut each = FractionalConfusion::new();
        for _ in 0..3 {
            each.record(true, 0.5);
        }
        for _ in 0..2 {
            each.record(false, 0.25);
        }
        assert_eq!(once, each);
    }

    #[test]
    fn fractional_merge_adds() {
        let mut a = FractionalConfusion::new();
        a.record(true, 0.5);
        let mut b = FractionalConfusion::new();
        b.record(true, 0.25);
        a.merge(&b);
        assert!((a.tp - 0.75).abs() < 1e-12);
        assert!((a.total() - 2.0).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn metrics_always_in_unit_interval(
            obs in proptest::collection::vec((any::<bool>(), any::<bool>()), 0..100)
        ) {
            let mut m = ConfusionMatrix::new();
            for (t, p) in obs {
                m.record(t, p);
            }
            prop_assert!((0.0..=1.0).contains(&m.precision()));
            prop_assert!((0.0..=1.0).contains(&m.recall()));
        }

        #[test]
        fn fractional_total_matches_records(
            obs in proptest::collection::vec((any::<bool>(), 0.0f64..=1.0), 0..100)
        ) {
            let mut f = FractionalConfusion::new();
            for &(t, p) in &obs {
                f.record(t, p);
            }
            prop_assert!((f.total() - obs.len() as f64).abs() < 1e-9);
            prop_assert!((0.0..=1.0).contains(&f.precision()));
            prop_assert!((0.0..=1.0).contains(&f.recall()));
        }
    }
}
