//! Quality estimation under per-event flips.
//!
//! Algorithm 1 needs `Q = α·Prec + (1−α)·Rec` as a function of the budget
//! shares, evaluated on historical data. The paper does not fix the
//! estimator; we provide two that agree (tested against each other):
//!
//! * **closed form** ([`QualityModel::expected_quality`]): each window's
//!   detection probability is the product of per-element report
//!   probabilities, accumulated into expected confusion counts and plugged
//!   into the precision/recall ratios. Deterministic and smooth — what the
//!   stepwise search wants.
//! * **Monte Carlo** ([`QualityModel::monte_carlo_quality`]): actually runs
//!   the mechanism `trials` times and averages hard confusion counts.
//!
//! **Window classes.** A target's detection probability in a window
//! depends only on which of the target's own types the window holds, so
//! [`QualityModel::new`] groups the history, per target, into classes
//! keyed by that restricted presence mask (a bit per target type, as many
//! words as the target needs — targets of any length) and keeps a window
//! count per class. The closed form then sums `count × Π report
//! probabilities` over classes: at most `2^k` terms for a `k`-type target,
//! however long the history (construction finds a window's class by a
//! linear scan over the few classes seen so far). Each class's product is
//! the per-window product bit for bit; only the summation order differs,
//! so the result equals the per-window sum to within float rounding.
//!
//! **Partial rescoring.** A probe of Algorithm 1 changes the flips of one
//! pattern's types only. The model's partial scorer scores the targets
//! that read none of those types once, under the fixed base table, and
//! rescores only the targets that read one. A pattern no target reads
//! cannot move `Q` at all; Algorithm 1 skips it.

use pdp_cep::{PatternId, PatternSet};
use pdp_dp::DpRng;
use pdp_metrics::{Alpha, ConfusionMatrix, FractionalConfusion, QualityReport};
use pdp_stream::{EventType, WindowedIndicators};

use crate::error::CoreError;
use crate::protect::FlipTable;

/// Historical windows + target patterns + α, with the windows grouped per
/// target into presence classes, ready to score candidate flip tables.
#[derive(Debug, Clone)]
pub struct QualityModel {
    windows: WindowedIndicators,
    /// One entry per target pattern.
    targets: Vec<TargetClasses>,
    alpha: Alpha,
}

/// One target's distinct types and its history grouped into classes.
#[derive(Debug, Clone)]
struct TargetClasses {
    /// Distinct element types, ascending.
    types: Vec<EventType>,
    /// Classes in order of first occurrence in the history.
    classes: Vec<WindowClass>,
}

/// The history windows that hold exactly the same subset of a target's
/// types.
#[derive(Debug, Clone)]
struct WindowClass {
    /// Bit `j` set: the windows hold `types[j]`.
    present: Vec<u64>,
    /// Every target type present: the target is truly detected.
    truth: bool,
    /// Number of windows in the class.
    count: f64,
}

impl WindowClass {
    fn holds(&self, j: usize) -> bool {
        self.present[j / 64] >> (j % 64) & 1 == 1
    }
}

impl TargetClasses {
    fn new(types: Vec<EventType>, windows: &WindowedIndicators) -> Self {
        let mut classes: Vec<WindowClass> = Vec::new();
        let mut mask = vec![0u64; types.len().div_ceil(64)];
        for window in windows.iter() {
            mask.fill(0);
            for (j, &ty) in types.iter().enumerate() {
                if window.get(ty) {
                    mask[j / 64] |= 1 << (j % 64);
                }
            }
            match classes.iter_mut().find(|c| c.present == mask) {
                Some(class) => class.count += 1.0,
                None => classes.push(WindowClass {
                    present: mask.clone(),
                    truth: window.all_present(&types),
                    count: 1.0,
                }),
            }
        }
        TargetClasses { types, classes }
    }

    /// Add this target's expected confusion under `table` to `conf`.
    fn accumulate(&self, table: &FlipTable, conf: &mut FractionalConfusion) {
        for class in &self.classes {
            let detect: f64 = self
                .types
                .iter()
                .enumerate()
                .map(|(j, &ty)| table.prob(ty).report_one_prob(class.holds(j)))
                .product();
            conf.record_n(class.truth, detect, class.count);
        }
    }

    fn reads_any(&self, types: &[EventType]) -> bool {
        self.types.iter().any(|ty| types.contains(ty))
    }
}

impl QualityModel {
    /// Build from historical windows and the ids of the target patterns.
    pub fn new(
        windows: WindowedIndicators,
        patterns: &PatternSet,
        target_ids: &[PatternId],
        alpha: Alpha,
    ) -> Result<Self, CoreError> {
        let mut targets = Vec::with_capacity(target_ids.len());
        for &id in target_ids {
            let p = patterns.get(id).ok_or(CoreError::UnknownPattern(id.0))?;
            targets.push(TargetClasses::new(
                p.distinct_types().into_iter().collect(),
                &windows,
            ));
        }
        Ok(QualityModel {
            windows,
            targets,
            alpha,
        })
    }

    /// The historical windows.
    pub fn windows(&self) -> &WindowedIndicators {
        &self.windows
    }

    /// The α in force.
    pub fn alpha(&self) -> Alpha {
        self.alpha
    }

    /// Closed-form expected quality under `table`.
    pub fn expected_quality(&self, table: &FlipTable) -> QualityReport {
        let mut conf = FractionalConfusion::new();
        for target in &self.targets {
            target.accumulate(table, &mut conf);
        }
        QualityReport::from_fractional(&conf, self.alpha)
    }

    /// Does any target read one of `types`? If not, the flips of `types`
    /// cannot move the expected quality.
    pub(crate) fn reads_any(&self, types: &[EventType]) -> bool {
        self.targets.iter().any(|target| target.reads_any(types))
    }

    /// A scorer for tables that equal `base` everywhere except on
    /// `varying`: the targets that read none of those types are scored
    /// once here, under `base`.
    pub(crate) fn partial_scorer(
        &self,
        base: &FlipTable,
        varying: &[EventType],
    ) -> PartialScorer<'_> {
        let mut fixed = FractionalConfusion::new();
        let mut touched = Vec::new();
        for (t, target) in self.targets.iter().enumerate() {
            if target.reads_any(varying) {
                touched.push(t);
            } else {
                target.accumulate(base, &mut fixed);
            }
        }
        PartialScorer {
            model: self,
            touched,
            fixed,
        }
    }

    /// Monte-Carlo quality: run the mechanism `trials` times and average.
    pub fn monte_carlo_quality(
        &self,
        table: &FlipTable,
        trials: usize,
        rng: &mut DpRng,
    ) -> QualityReport {
        let mut conf = ConfusionMatrix::new();
        for trial in 0..trials {
            let mut trial_rng = rng.fork(trial as u64);
            let protected = table.apply(&self.windows, &mut trial_rng);
            for target in &self.targets {
                for (truth, released) in self.windows.iter().zip(protected.iter()) {
                    conf.record(
                        truth.all_present(&target.types),
                        released.all_present(&target.types),
                    );
                }
            }
        }
        QualityReport::from_confusion(&conf, self.alpha)
    }

    /// The unprotected quality `Q_ord` (identity table). With exact truth
    /// playback this is 1 by construction — exposed for MRE baselines and
    /// as a sanity check.
    pub fn baseline_quality(&self) -> QualityReport {
        self.expected_quality(&FlipTable::identity(self.windows.n_types()))
    }
}

/// Scores tables that differ from a fixed base only on a few types (see
/// [`QualityModel::partial_scorer`]).
pub(crate) struct PartialScorer<'m> {
    model: &'m QualityModel,
    /// Targets that read a varying type, rescored per table.
    touched: Vec<usize>,
    /// Expected confusion of every other target, under the base.
    fixed: FractionalConfusion,
}

impl PartialScorer<'_> {
    /// Expected `Q` under `table`, which must equal the base outside the
    /// varying types.
    pub(crate) fn quality(&self, table: &FlipTable) -> f64 {
        let mut conf = self.fixed;
        for &t in &self.touched {
            self.model.targets[t].accumulate(table, &mut conf);
        }
        QualityReport::from_fractional(&conf, self.model.alpha).q
    }
}

#[cfg(test)]
impl QualityModel {
    /// The per-window evaluator the class sums replace, kept as the
    /// reference model: one record per (target, window) pair.
    pub(crate) fn expected_quality_per_window(&self, table: &FlipTable) -> QualityReport {
        let mut conf = FractionalConfusion::new();
        for target in &self.targets {
            for window in self.windows.iter() {
                let detect: f64 = target
                    .types
                    .iter()
                    .map(|&ty| table.prob(ty).report_one_prob(window.get(ty)))
                    .product();
                conf.record(window.all_present(&target.types), detect);
            }
        }
        QualityReport::from_fractional(&conf, self.alpha)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_cep::Pattern;
    use pdp_dp::{Epsilon, FlipProb};
    use pdp_stream::IndicatorVector;
    use proptest::prelude::*;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    /// 4 windows over 3 types; target = {0, 1}; truth: detected in w0, w1.
    fn fixture() -> (WindowedIndicators, PatternSet, Vec<PatternId>) {
        let windows = WindowedIndicators::new(vec![
            IndicatorVector::from_present([t(0), t(1)], 3),
            IndicatorVector::from_present([t(0), t(1), t(2)], 3),
            IndicatorVector::from_present([t(0)], 3),
            IndicatorVector::empty(3),
        ]);
        let mut set = PatternSet::new();
        let target = set.insert(Pattern::seq("target", vec![t(0), t(1)]).unwrap());
        (windows, set, vec![target])
    }

    #[test]
    fn baseline_quality_is_perfect() {
        let (w, set, targets) = fixture();
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        let base = model.baseline_quality();
        assert!((base.q - 1.0).abs() < 1e-12);
        assert!((base.precision - 1.0).abs() < 1e-12);
        assert!((base.recall - 1.0).abs() < 1e-12);
    }

    #[test]
    fn expected_quality_closed_form_hand_check() {
        let (w, set, targets) = fixture();
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        // flip type 1 with p = 0.25; types 0, 2 untouched.
        let mut table = FlipTable::identity(3);
        table.set_prob(t(1), FlipProb::new(0.25).unwrap()).unwrap();
        // detection probs per window: w0: 1·0.75, w1: 1·0.75,
        // w2: 1·0.25 (type1 absent, flips in), w3: 0·… = 0 (type0 absent)
        // truth: [T, T, F, F]
        // E[TP] = 1.5, E[FN] = 0.5, E[FP] = 0.25, E[TN] = 1.75
        let r = model.expected_quality(&table);
        let prec = 1.5 / 1.75;
        let rec = 0.75;
        assert!((r.precision - prec).abs() < 1e-12);
        assert!((r.recall - rec).abs() < 1e-12);
        assert!((r.q - 0.5 * (prec + rec)).abs() < 1e-12);
    }

    #[test]
    fn windows_group_into_presence_classes() {
        let (w, set, targets) = fixture();
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        // w0 and w1 agree on {0, 1} (type 2 is not the target's)
        let counts: Vec<f64> = model.targets[0].classes.iter().map(|c| c.count).collect();
        assert_eq!(counts, vec![2.0, 1.0, 1.0]);
        let truth: Vec<bool> = model.targets[0].classes.iter().map(|c| c.truth).collect();
        assert_eq!(truth, vec![true, false, false]);
    }

    #[test]
    fn monte_carlo_agrees_with_closed_form() {
        let (w, set, targets) = fixture();
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        let mut table = FlipTable::identity(3);
        table.set_prob(t(0), FlipProb::new(0.2).unwrap()).unwrap();
        table.set_prob(t(1), FlipProb::new(0.3).unwrap()).unwrap();
        let expected = model.expected_quality(&table);
        let mut rng = DpRng::seed_from(42);
        let mc = model.monte_carlo_quality(&table, 4000, &mut rng);
        assert!(
            (mc.q - expected.q).abs() < 0.03,
            "MC {} vs closed-form {}",
            mc.q,
            expected.q
        );
    }

    #[test]
    fn more_noise_means_less_quality() {
        let (w, set, targets) = fixture();
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        let mut mild = FlipTable::identity(3);
        mild.set_prob(t(0), FlipProb::from_epsilon(Epsilon::new(3.0).unwrap()))
            .unwrap();
        let mut heavy = FlipTable::identity(3);
        heavy
            .set_prob(t(0), FlipProb::from_epsilon(Epsilon::new(0.2).unwrap()))
            .unwrap();
        let qm = model.expected_quality(&mild).q;
        let qh = model.expected_quality(&heavy).q;
        assert!(qh < qm, "heavy noise {qh} should be below mild {qm}");
    }

    #[test]
    fn unknown_target_rejected() {
        let (w, set, _) = fixture();
        assert!(QualityModel::new(w, &set, &[PatternId(9)], Alpha::HALF).is_err());
    }

    #[test]
    fn multiple_targets_accumulate() {
        let (w, mut set, mut targets) = fixture();
        targets.push(set.insert(Pattern::single("solo", t(2))));
        let model = QualityModel::new(w, &set, &targets, Alpha::HALF).unwrap();
        // identity still perfect with several targets
        assert!((model.baseline_quality().q - 1.0).abs() < 1e-12);
    }

    /// A seeded table: every type below `width` flips with a probability
    /// in `[0, ½]`, a quarter of them not at all.
    fn random_table(width: usize, rng: &mut DpRng) -> FlipTable {
        let mut table = FlipTable::identity(width);
        for i in 0..width {
            if !rng.bernoulli(0.25) {
                let p = FlipProb::new(0.5 * rng.unit()).unwrap();
                table.set_prob(t(i as u32), p).unwrap();
            }
        }
        table
    }

    /// Class sums against the per-window reference on one instance.
    fn assert_matches_reference(model: &QualityModel, table: &FlipTable) {
        let classes = model.expected_quality(table);
        let reference = model.expected_quality_per_window(table);
        for (a, b) in [
            (classes.q, reference.q),
            (classes.precision, reference.precision),
            (classes.recall, reference.recall),
        ] {
            assert!((a - b).abs() < 1e-12, "classes {a} vs per-window {b}");
        }
    }

    fn random_history(n_windows: usize, n_types: usize, rng: &mut DpRng) -> WindowedIndicators {
        WindowedIndicators::new(
            (0..n_windows)
                .map(|_| {
                    IndicatorVector::from_present(
                        (0..n_types as u32).filter(|_| rng.bernoulli(0.6)).map(t),
                        n_types,
                    )
                })
                .collect(),
        )
    }

    #[test]
    fn class_sums_match_the_per_window_reference_on_edge_cases() {
        let mut rng = DpRng::seed_from(5);
        let mut set = PatternSet::new();
        // repeated types: the target reads {0, 1} once each
        let repeated = set.insert(Pattern::seq("rep", vec![t(0), t(1), t(0), t(1)]).unwrap());
        // types outside the 8-wide tables below (10, 40) and outside the
        // 80-wide windows (200): never flipped, never present
        let wide = set.insert(Pattern::seq("wide", vec![t(2), t(10), t(40), t(200)]).unwrap());
        // 70 types: two mask words, with type 66 in the second
        let long = set.insert(Pattern::seq("long", (0..70).map(t).collect()).unwrap());
        let targets = [repeated, wide, long];

        // types 0, 1, 3, 66 and 70.. come and go; the rest are always
        // present, so the long target's detection turns on the varying ones
        let varying = |i: u32| [0, 1, 3, 66].contains(&i) || i >= 70;
        let history = WindowedIndicators::new(
            (0..60)
                .map(|_| {
                    IndicatorVector::from_present(
                        (0..80)
                            .filter(|&i| !varying(i) || rng.bernoulli(0.5))
                            .map(t),
                        80,
                    )
                })
                .collect(),
        );
        let model = QualityModel::new(history, &set, &targets, Alpha::new(0.3).unwrap()).unwrap();
        assert_eq!(model.targets[2].types.len(), 70);
        assert_eq!(model.targets[2].classes[0].present.len(), 2);
        for _ in 0..20 {
            assert_matches_reference(&model, &random_table(8, &mut rng));
            let mut table = FlipTable::identity(100);
            for ty in [0, 3, 66, 75] {
                let p = FlipProb::new(0.5 * rng.unit()).unwrap();
                table.set_prob(t(ty), p).unwrap();
            }
            assert_matches_reference(&model, &table);
        }

        // empty history: no classes, both evaluators at their conventions
        let empty = QualityModel::new(
            WindowedIndicators::new(Vec::new()),
            &set,
            &targets,
            Alpha::HALF,
        )
        .unwrap();
        assert!(empty.targets.iter().all(|tc| tc.classes.is_empty()));
        assert_matches_reference(&empty, &random_table(8, &mut rng));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Class sums equal the per-window reference within 1e-12, and a
        /// partial scorer equals a full evaluation.
        #[test]
        fn class_sums_match_the_per_window_reference(
            seed in any::<u64>(),
            n_types in 1usize..10,
            n_windows in 0usize..80,
            target_lens in proptest::collection::vec(1usize..6, 1..5),
        ) {
            let mut rng = DpRng::seed_from(seed);
            let mut set = PatternSet::new();
            let targets: Vec<PatternId> = target_lens
                .iter()
                .map(|&len| {
                    let types = (0..len).map(|_| t(rng.below(n_types + 2) as u32)).collect();
                    set.insert(Pattern::seq("q", types).unwrap())
                })
                .collect();
            let history = random_history(n_windows, n_types, &mut rng);
            let model = QualityModel::new(history, &set, &targets, Alpha::HALF).unwrap();
            let base = random_table(n_types, &mut rng);
            assert_matches_reference(&model, &base);

            let varying = [t(rng.below(n_types) as u32)];
            let scorer = model.partial_scorer(&base, &varying);
            let mut probe = base.clone();
            probe.set_prob(varying[0], FlipProb::new(0.5 * rng.unit()).unwrap()).unwrap();
            let full = model.expected_quality(&probe).q;
            prop_assert!((scorer.quality(&probe) - full).abs() < 1e-12);
        }
    }
}
