//! Algorithm 1: bidirectional stepwise privacy-budget distribution.
//!
//! Starting from the uniform distribution, the optimizer repeatedly probes,
//! for each element `i`, the redistribution "give `i` one step `δε` more,
//! take it from the others", scores each candidate with the historical
//! quality model, and commits the best probe while it does not degrade
//! quality. The paper suggests `δε = m·ε/100` (Algorithm 1, line 2).
//!
//! Two step rules are provided (see DESIGN.md §3):
//!
//! * [`StepRule::Conserving`] (default) — the others lose `δε/(m−1)`, so
//!   `Σεᵢ = ε` holds exactly at every step;
//! * [`StepRule::PaperLiteral`] — the others lose `δε/m` exactly as the
//!   pseudocode reads (which drifts by `+δε/m` per step); the result is
//!   renormalized to `Σεᵢ = ε` after every step so the Theorem 1 budget
//!   stays honest.
//!
//! Termination: the paper's loop accepts while `maxᵢ Qᵢ ≥ Q`, which cycles
//! on plateaus; we accept strictly improving probes and stop otherwise
//! (plus an iteration cap), which is the standard stepwise-regression
//! reading of "bidirectional stepwise".
//!
//! **Ties.** Two probe scores within `1e-12` of each other tie, and the
//! first probe wins; an accepted step must improve on the current score by
//! more than the same `1e-12`. The search path therefore does not hinge on
//! last-ulp differences in how a score was summed.
//!
//! **Cost.** A probe moves only the flips of the pattern's own types, so
//! the search scores it incrementally:
//!
//! * the other patterns' flip table is composed once per pattern, not once
//!   per probe; each probe resets the pattern's types to it and composes
//!   the pattern's elements on top, in the same order
//!   [`FlipTable::from_distributions`] uses (others first, then the
//!   pattern), so every flip probability is bit-identical to a full
//!   rebuild;
//! * only the targets that read one of the pattern's types are rescored
//!   ([`QualityModel`]'s partial scorer); the other targets' expected
//!   confusion is computed once and held;
//! * each rescored target sums over its window classes
//!   ([`crate::quality_model`]), not over the history's windows;
//! * a pattern that shares no type with any target returns the uniform
//!   distribution without scoring: every probe of it would score the same,
//!   and the search stops at uniform.

use pdp_cep::{Pattern, PatternId, PatternSet};
use pdp_dp::{Epsilon, FlipProb};
use pdp_stream::EventType;

use crate::distribution::BudgetDistribution;
use crate::error::CoreError;
use crate::protect::{FlipTable, ProtectionPipeline};
use crate::quality_model::QualityModel;

/// How a probe redistributes budget (Algorithm 1, line 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepRule {
    /// Exact conservation: others lose `δε/(m−1)`.
    #[default]
    Conserving,
    /// The paper's literal `δε/m`, renormalized after each step.
    PaperLiteral,
}

/// Tuning knobs for the adaptive optimizer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveConfig {
    /// Probe redistribution rule.
    pub step_rule: StepRule,
    /// `δε = m·ε / step_divisor`; the paper's suggestion is 100.
    pub step_divisor: f64,
    /// Hard cap on accepted steps (safety against plateaus).
    pub max_iters: usize,
    /// Coordinate-descent rounds over multiple private patterns.
    pub rounds: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            step_rule: StepRule::Conserving,
            step_divisor: 100.0,
            max_iters: 200,
            rounds: 1,
        }
    }
}

/// Two probe scores closer than this tie; an accepted step must improve by
/// more than this.
const TIE: f64 = 1e-12;

/// Optimize the budget distribution of one private pattern, holding the
/// distributions of `others` fixed.
pub fn optimize_single(
    patterns: &PatternSet,
    private: PatternId,
    others: &[(PatternId, BudgetDistribution)],
    eps: Epsilon,
    model: &QualityModel,
    n_types: usize,
    config: &AdaptiveConfig,
) -> Result<BudgetDistribution, CoreError> {
    let pattern = patterns
        .get(private)
        .ok_or(CoreError::UnknownPattern(private.0))?;
    search(pattern, eps, model, config, || {
        FlipTable::from_distributions(patterns, others, n_types)
    })
}

/// Algorithm 1 for one pattern. `others` builds the other patterns' flip
/// table; it runs only when the search does, once.
fn search(
    pattern: &Pattern,
    eps: Epsilon,
    model: &QualityModel,
    config: &AdaptiveConfig,
    others: impl FnOnce() -> Result<FlipTable, CoreError>,
) -> Result<BudgetDistribution, CoreError> {
    let m = pattern.len();
    let types: Vec<EventType> = pattern.distinct_types().into_iter().collect();
    if m == 1 || eps.is_zero() || !model.reads_any(&types) {
        // nothing to redistribute, or every probe scores alike and the
        // search would stop at uniform
        return BudgetDistribution::uniform(eps, m);
    }
    let base = others()?;
    let scorer = model.partial_scorer(&base, &types);
    let mut table = base.clone();
    stepwise(m, eps, config, |dist| {
        for &ty in &types {
            table.set_prob(ty, base.prob(ty))?;
        }
        compose(&mut table, pattern, dist)?;
        Ok(scorer.quality(&table))
    })
}

/// Compose `dist`'s per-element flips into `table` in element order: the
/// slot update [`FlipTable::from_distributions`] makes, so a table built
/// either way is bit-identical.
fn compose(
    table: &mut FlipTable,
    pattern: &Pattern,
    dist: &BudgetDistribution,
) -> Result<(), CoreError> {
    for (&ty, &share) in pattern.elements().iter().zip(dist.shares()) {
        table.set_prob(ty, table.prob(ty).compose(FlipProb::from_epsilon(share)))?;
    }
    Ok(())
}

/// The bidirectional stepwise search from the uniform distribution over
/// `m` shares, scoring candidates with `score`.
fn stepwise(
    m: usize,
    eps: Epsilon,
    config: &AdaptiveConfig,
    mut score: impl FnMut(&BudgetDistribution) -> Result<f64, CoreError>,
) -> Result<BudgetDistribution, CoreError> {
    let mut current = BudgetDistribution::uniform(eps, m)?;
    let step = m as f64 * eps.value() / config.step_divisor;
    let mut best_q = score(&current)?;
    for _ in 0..config.max_iters {
        let mut best_probe: Option<(BudgetDistribution, f64)> = None;
        for i in 0..m {
            let Some(candidate) = probe(&current, i, step, eps, config.step_rule) else {
                continue;
            };
            let q = score(&candidate)?;
            // a later probe must beat the best so far by more than a tie
            if best_probe.as_ref().is_none_or(|(_, bq)| q > *bq + TIE) {
                best_probe = Some((candidate, q));
            }
        }
        match best_probe {
            Some((candidate, q)) if q > best_q + TIE => {
                current = candidate;
                best_q = q;
            }
            _ => break,
        }
    }
    Ok(current)
}

/// Build a probe: share `i` gains `step`, the others shrink per `rule`;
/// shares are clamped to `[0, ε]` and renormalized to sum exactly `ε`.
/// Returns `None` when the probe is a no-op (e.g. everything already at
/// the bounds).
fn probe(
    current: &BudgetDistribution,
    i: usize,
    step: f64,
    eps: Epsilon,
    rule: StepRule,
) -> Option<BudgetDistribution> {
    let m = current.len();
    let mut values: Vec<f64> = current.shares().iter().map(|s| s.value()).collect();
    let gain = step.min(eps.value() - values[i]);
    if gain <= 0.0 {
        return None;
    }
    let loss_per_other = match rule {
        StepRule::Conserving => gain / (m as f64 - 1.0),
        StepRule::PaperLiteral => step / m as f64,
    };
    values[i] += gain;
    for (j, v) in values.iter_mut().enumerate() {
        if j != i {
            *v = (*v - loss_per_other).max(0.0);
        }
    }
    // Renormalize to Σ = ε (clamping and the paper-literal rule both drift).
    let sum: f64 = values.iter().sum();
    if sum <= 0.0 {
        return None;
    }
    let scale = eps.value() / sum;
    let shares: Vec<Epsilon> = values
        .iter()
        .map(|&v| Epsilon::new_unchecked((v * scale).min(eps.value())))
        .collect();
    let dist = BudgetDistribution::from_shares(eps, shares).ok()?;
    // Reject no-ops (within tolerance) so the search terminates.
    let moved = dist
        .shares()
        .iter()
        .zip(current.shares())
        .any(|(a, b)| (a.value() - b.value()).abs() > 1e-12);
    moved.then_some(dist)
}

/// Optimize all private patterns by coordinate descent: each round
/// re-optimizes every pattern with the others held at their latest
/// distributions.
pub fn optimize_all(
    patterns: &PatternSet,
    private: &[PatternId],
    eps: Epsilon,
    model: &QualityModel,
    n_types: usize,
    config: &AdaptiveConfig,
) -> Result<Vec<(PatternId, BudgetDistribution)>, CoreError> {
    let mut assignments: Vec<(&Pattern, PatternId, BudgetDistribution)> = private
        .iter()
        .map(|&id| {
            let p = patterns.get(id).ok_or(CoreError::UnknownPattern(id.0))?;
            Ok((p, id, BudgetDistribution::uniform(eps, p.len())?))
        })
        .collect::<Result<Vec<_>, CoreError>>()?;

    for _ in 0..config.rounds.max(1) {
        for k in 0..assignments.len() {
            let optimized = search(assignments[k].0, eps, model, config, || {
                // the others in order, as `optimize_single` would compose them
                let mut table = FlipTable::identity(n_types);
                for (j, (other, _, dist)) in assignments.iter().enumerate() {
                    if j != k {
                        compose(&mut table, other, dist)?;
                    }
                }
                Ok(table)
            })?;
            assignments[k].2 = optimized;
        }
    }
    Ok(assignments
        .into_iter()
        .map(|(_, id, dist)| (id, dist))
        .collect())
}

impl ProtectionPipeline {
    /// The adaptive PPM (§V-B): Algorithm 1 over historical data.
    pub fn adaptive(
        patterns: &PatternSet,
        private: &[PatternId],
        eps: Epsilon,
        model: &QualityModel,
        n_types: usize,
        config: &AdaptiveConfig,
    ) -> Result<Self, CoreError> {
        let assignments = optimize_all(patterns, private, eps, model, n_types, config)?;
        ProtectionPipeline::from_assignments("adaptive", patterns, assignments, n_types)
    }
}

/// Algorithm 1 scored the direct way, kept as the reference model: every
/// probe rebuilds the whole flip table from all distributions and
/// evaluates every (target, window) pair; no pattern is skipped.
#[cfg(test)]
mod reference {
    use super::*;

    pub(super) fn optimize_all(
        patterns: &PatternSet,
        private: &[PatternId],
        eps: Epsilon,
        model: &QualityModel,
        n_types: usize,
        config: &AdaptiveConfig,
    ) -> Result<Vec<(PatternId, BudgetDistribution)>, CoreError> {
        let mut assignments: Vec<(PatternId, BudgetDistribution)> = private
            .iter()
            .map(|&id| {
                (
                    id,
                    BudgetDistribution::uniform(eps, patterns.get(id).unwrap().len()).unwrap(),
                )
            })
            .collect();
        for _ in 0..config.rounds.max(1) {
            for k in 0..assignments.len() {
                let (id, _) = assignments[k];
                let m = patterns.get(id).unwrap().len();
                if m == 1 || eps.is_zero() {
                    continue;
                }
                let others: Vec<_> = assignments
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != k)
                    .map(|(_, a)| a.clone())
                    .collect();
                assignments[k].1 = stepwise(m, eps, config, |dist| {
                    let mut all = others.clone();
                    all.push((id, dist.clone()));
                    let table = FlipTable::from_distributions(patterns, &all, n_types)?;
                    Ok(model.expected_quality_per_window(&table).q)
                })?;
            }
        }
        Ok(assignments)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protect::Mechanism;
    use pdp_dp::DpRng;
    use pdp_metrics::Alpha;
    use pdp_stream::{IndicatorVector, WindowedIndicators};
    use proptest::prelude::*;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    /// A workload where element 0 of the private pattern is critical for
    /// the target while element 1 is not: the optimizer should shift budget
    /// toward element 0 (more budget = less noise = higher quality).
    ///
    /// Types: 0 (shared private/target), 1 (private only), 2 (target only).
    /// Private pattern: seq(0, 1). Target pattern: seq(0, 2).
    fn skewed_fixture() -> (PatternSet, PatternId, PatternId, QualityModel) {
        let mut set = PatternSet::new();
        let private = set.insert(Pattern::seq("private", vec![t(0), t(1)]).unwrap());
        let target = set.insert(Pattern::seq("target", vec![t(0), t(2)]).unwrap());
        // Windows where the target is frequently present through type 0.
        let mut windows = Vec::new();
        for k in 0..40 {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.push(t(0));
                present.push(t(2));
            }
            if k % 5 == 0 {
                present.push(t(1));
            }
            windows.push(IndicatorVector::from_present(present, 3));
        }
        let model = QualityModel::new(
            WindowedIndicators::new(windows),
            &set,
            &[target],
            Alpha::HALF,
        )
        .unwrap();
        (set, private, target, model)
    }

    #[test]
    fn adaptive_shifts_budget_toward_shared_element() {
        let (set, private, _, model) = skewed_fixture();
        let config = AdaptiveConfig::default();
        let dist = optimize_single(&set, private, &[], eps(2.0), &model, 3, &config).unwrap();
        // Element 0 (shared with the target) should end with more budget
        // than element 1 (private-only).
        assert!(
            dist.shares()[0].value() > dist.shares()[1].value(),
            "expected skew toward shared element, got {:?}",
            dist.shares()
        );
        // Conservation invariant.
        let sum: f64 = dist.shares().iter().map(|s| s.value()).sum();
        assert!((sum - 2.0).abs() < 1e-9);
    }

    #[test]
    fn adaptive_never_degrades_expected_quality_vs_uniform() {
        let (set, private, _, model) = skewed_fixture();
        let config = AdaptiveConfig::default();
        let adaptive_dist =
            optimize_single(&set, private, &[], eps(1.0), &model, 3, &config).unwrap();
        let uniform_dist = BudgetDistribution::uniform(eps(1.0), 2).unwrap();
        let q = |d: &BudgetDistribution| {
            let table = FlipTable::from_distributions(&set, &[(private, d.clone())], 3).unwrap();
            model.expected_quality(&table).q
        };
        assert!(q(&adaptive_dist) >= q(&uniform_dist) - 1e-12);
    }

    #[test]
    fn paper_literal_rule_also_conserves_after_renormalization() {
        let (set, private, _, model) = skewed_fixture();
        let config = AdaptiveConfig {
            step_rule: StepRule::PaperLiteral,
            ..AdaptiveConfig::default()
        };
        let dist = optimize_single(&set, private, &[], eps(2.0), &model, 3, &config).unwrap();
        let sum: f64 = dist.shares().iter().map(|s| s.value()).sum();
        assert!((sum - 2.0).abs() < 1e-9, "paper-literal drifted: {sum}");
    }

    #[test]
    fn single_element_pattern_stays_uniform() {
        let mut set = PatternSet::new();
        let private = set.insert(Pattern::single("p", t(0)));
        let target = set.insert(Pattern::single("t", t(0)));
        let windows = WindowedIndicators::new(vec![IndicatorVector::from_present([t(0)], 1); 5]);
        let model = QualityModel::new(windows, &set, &[target], Alpha::HALF).unwrap();
        let dist = optimize_single(
            &set,
            private,
            &[],
            eps(1.0),
            &model,
            1,
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(dist.len(), 1);
        assert!((dist.shares()[0].value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_budget_short_circuits() {
        let (set, private, _, model) = skewed_fixture();
        let dist = optimize_single(
            &set,
            private,
            &[],
            Epsilon::ZERO,
            &model,
            3,
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert!(dist.shares().iter().all(|s| s.is_zero()));
    }

    #[test]
    fn optimize_all_handles_multiple_patterns() {
        let mut set = PatternSet::new();
        let p1 = set.insert(Pattern::seq("p1", vec![t(0), t(1)]).unwrap());
        let p2 = set.insert(Pattern::seq("p2", vec![t(2), t(3)]).unwrap());
        let target = set.insert(Pattern::seq("t", vec![t(0), t(2)]).unwrap());
        let mut windows = Vec::new();
        for k in 0..30 {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.extend([t(0), t(2)]);
            }
            if k % 3 == 0 {
                present.extend([t(1), t(3)]);
            }
            windows.push(IndicatorVector::from_present(present, 4));
        }
        let model = QualityModel::new(
            WindowedIndicators::new(windows),
            &set,
            &[target],
            Alpha::HALF,
        )
        .unwrap();
        let config = AdaptiveConfig {
            rounds: 2,
            ..AdaptiveConfig::default()
        };
        let assignments = optimize_all(&set, &[p1, p2], eps(1.5), &model, 4, &config).unwrap();
        assert_eq!(assignments.len(), 2);
        for (_, d) in &assignments {
            let sum: f64 = d.shares().iter().map(|s| s.value()).sum();
            assert!((sum - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn adaptive_pipeline_constructor() {
        let (set, private, _, model) = skewed_fixture();
        let pipeline = ProtectionPipeline::adaptive(
            &set,
            &[private],
            eps(1.0),
            &model,
            3,
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(pipeline.name(), "adaptive");
        assert_eq!(pipeline.assignments().len(), 1);
        // type 2 (target-only) must remain unprotected
        assert_eq!(pipeline.flip_table().prob(t(2)).value(), 0.0);
    }

    #[test]
    fn probe_respects_bounds() {
        let current = BudgetDistribution::uniform(eps(1.0), 3).unwrap();
        let p = probe(&current, 0, 0.1, eps(1.0), StepRule::Conserving).unwrap();
        let sum: f64 = p.shares().iter().map(|s| s.value()).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(p.shares()[0].value() > current.shares()[0].value());
        // share already at the cap → probe is None
        let capped =
            BudgetDistribution::from_shares(eps(1.0), vec![eps(1.0), eps(0.0), eps(0.0)]).unwrap();
        assert!(probe(&capped, 0, 0.1, eps(1.0), StepRule::Conserving).is_none());
    }

    #[test]
    fn pattern_no_target_reads_stays_uniform() {
        let (mut set, _, _, model) = skewed_fixture();
        // the fixture's target reads types 0 and 2 only
        let aside = set.insert(Pattern::seq("aside", vec![t(1), t(1), t(3)]).unwrap());
        let dist = optimize_single(
            &set,
            aside,
            &[],
            eps(2.0),
            &model,
            4,
            &AdaptiveConfig::default(),
        )
        .unwrap();
        assert_eq!(dist, BudgetDistribution::uniform(eps(2.0), 3).unwrap());
    }

    /// Every history window draws each type with probability one half.
    fn coin_history(n_windows: usize, n_types: usize, rng: &mut DpRng) -> WindowedIndicators {
        WindowedIndicators::new(
            (0..n_windows)
                .map(|_| {
                    IndicatorVector::from_present(
                        (0..n_types as u32).filter(|_| rng.bernoulli(0.5)).map(t),
                        n_types,
                    )
                })
                .collect(),
        )
    }

    /// Incremental scoring reproduces the reference search share for share
    /// on the shape of the benchmark's adaptive workload: 64 private
    /// three-type runs and 8 two-type targets over 32 types, 128 windows.
    #[test]
    fn durable_churn_shape_equals_the_reference() {
        let n_types = 32;
        let run = |name: &str, first: usize, len: usize| {
            let types = (0..len)
                .map(|j| t(((first + j) % n_types) as u32))
                .collect();
            Pattern::seq(name, types).unwrap()
        };
        let mut set = PatternSet::new();
        let private: Vec<PatternId> = (0..64).map(|i| set.insert(run("p", i, 3))).collect();
        let targets: Vec<PatternId> = (0..8).map(|q| set.insert(run("q", q, 2))).collect();
        let history = coin_history(128, n_types, &mut DpRng::seed_from(7));
        let model = QualityModel::new(history, &set, &targets, Alpha::HALF).unwrap();
        let config = AdaptiveConfig::default();
        let got = optimize_all(&set, &private, eps(1.0), &model, n_types, &config).unwrap();
        let want =
            reference::optimize_all(&set, &private, eps(1.0), &model, n_types, &config).unwrap();
        assert_eq!(got, want);
        let moved = got
            .iter()
            .filter(|(_, d)| *d != BudgetDistribution::uniform(eps(1.0), 3).unwrap());
        assert!(moved.count() > 0, "the search moves budget on this shape");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `optimize_all` equals the reference share for share.
        #[test]
        fn optimize_all_equals_the_reference(
            seed in any::<u64>(),
            private_lens in proptest::collection::vec(1usize..5, 1..6),
            target_lens in proptest::collection::vec(1usize..4, 1..4),
            shape in (2usize..10, 0usize..60, 0.05f64..4.0, any::<bool>(), 1usize..3),
        ) {
            let (n_types, n_windows, total, literal, rounds) = shape;
            let mut rng = DpRng::seed_from(seed);
            let mut set = PatternSet::new();
            let mut draw = |len: usize, set: &mut PatternSet| {
                let types = (0..len).map(|_| t(rng.below(n_types) as u32)).collect();
                set.insert(Pattern::seq("x", types).unwrap())
            };
            let private: Vec<PatternId> = private_lens.iter().map(|&len| draw(len, &mut set)).collect();
            let targets: Vec<PatternId> = target_lens.iter().map(|&len| draw(len, &mut set)).collect();
            let history = coin_history(n_windows, n_types, &mut DpRng::seed_from(seed ^ 1));
            let model = QualityModel::new(history, &set, &targets, Alpha::new(0.4).unwrap()).unwrap();
            let config = AdaptiveConfig {
                step_rule: if literal { StepRule::PaperLiteral } else { StepRule::Conserving },
                rounds,
                ..AdaptiveConfig::default()
            };
            let got = optimize_all(&set, &private, eps(total), &model, n_types, &config).unwrap();
            let want = reference::optimize_all(&set, &private, eps(total), &model, n_types, &config).unwrap();
            prop_assert_eq!(got, want);
        }
    }
}
