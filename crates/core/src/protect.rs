//! The protection pipeline: per-event flip tables applied to windows.
//!
//! The defining property of a pattern-level PPM (§I, §IV): noise lands
//! **only** on events that correlate with private patterns; all other events
//! pass through untouched, preserving the quality of the rest of the stream.
//!
//! A [`FlipTable`] maps every event type to its flip probability: 0 for
//! uncorrelated types, and for types appearing in private patterns the
//! *serial composition* of the per-element flips of every private pattern
//! (and every repeated element) that contains them — the paper's treatment
//! of overlapping/repeating patterns, which "only brings more noise to the
//! private information".

use pdp_cep::{PatternId, PatternSet};
use pdp_dp::{DpRng, Epsilon, FlipProb};
use pdp_stream::{EventType, IndicatorVector, WindowedIndicators};

use crate::distribution::BudgetDistribution;
use crate::error::CoreError;

/// Per-event-type flip probabilities over a fixed type universe.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipTable {
    probs: Vec<FlipProb>,
}

impl FlipTable {
    /// A table that never flips anything.
    pub fn identity(n_types: usize) -> Self {
        FlipTable {
            probs: vec![FlipProb::new(0.0).expect("0 is a valid flip probability"); n_types],
        }
    }

    /// Build from private patterns and their budget distributions.
    ///
    /// For each pattern element `eᵢ` with share `εᵢ`, the flip
    /// `pᵢ = 1/(1+e^{εᵢ})` is composed into the slot of `eᵢ`'s event type.
    pub fn from_distributions(
        patterns: &PatternSet,
        assignments: &[(PatternId, BudgetDistribution)],
        n_types: usize,
    ) -> Result<Self, CoreError> {
        let mut table = FlipTable::identity(n_types);
        for (id, dist) in assignments {
            let pattern = patterns.get(*id).ok_or(CoreError::UnknownPattern(id.0))?;
            if pattern.len() != dist.len() {
                return Err(CoreError::InvalidDistribution(format!(
                    "distribution has {} shares for pattern of length {}",
                    dist.len(),
                    pattern.len()
                )));
            }
            for (element, &share) in pattern.elements().iter().zip(dist.shares()) {
                if element.index() >= n_types {
                    return Err(CoreError::WidthMismatch {
                        expected: n_types,
                        got: element.index() + 1,
                    });
                }
                let p = FlipProb::from_epsilon(share);
                let slot = &mut table.probs[element.index()];
                *slot = slot.compose(p);
            }
        }
        Ok(table)
    }

    /// The flip probability of one event type.
    ///
    /// **Clamp-to-identity contract:** a type outside the table's width is
    /// answered with flip probability `0` — the same answer every
    /// *uncorrelated* in-range type gets. This is sound for reads (an
    /// unknown type is by definition not in any private pattern, so it is
    /// never perturbed) and keeps hot-path lookups infallible; it mirrors
    /// [`IndicatorVector::get`], which reports out-of-range types as
    /// absent. Writes are different: silently dropping a *protection
    /// request* would be a privacy bug, so [`FlipTable::set_prob`] errors
    /// on out-of-range types instead. Use [`FlipTable::try_prob`] when the
    /// caller needs to distinguish "uncorrelated" from "unknown type".
    pub fn prob(&self, ty: EventType) -> FlipProb {
        self.try_prob(ty)
            .unwrap_or(FlipProb::new(0.0).expect("0 is a valid flip probability"))
    }

    /// The flip probability of one event type, or `None` if `ty` lies
    /// outside the table's width (the checked companion of
    /// [`FlipTable::prob`]).
    pub fn try_prob(&self, ty: EventType) -> Option<FlipProb> {
        self.probs.get(ty.index()).copied()
    }

    /// Set the flip probability of one event type directly.
    pub fn set_prob(&mut self, ty: EventType, p: FlipProb) -> Result<(), CoreError> {
        match self.probs.get_mut(ty.index()) {
            Some(slot) => {
                *slot = p;
                Ok(())
            }
            None => Err(CoreError::WidthMismatch {
                expected: self.probs.len(),
                got: ty.index() + 1,
            }),
        }
    }

    /// Number of event types covered.
    pub fn width(&self) -> usize {
        self.probs.len()
    }

    /// Event types with non-zero flip probability (the "protected" types).
    pub fn protected_types(&self) -> Vec<EventType> {
        self.probs
            .iter()
            .enumerate()
            .filter(|(_, p)| p.value() > 0.0)
            .map(|(i, _)| EventType(i as u32))
            .collect()
    }

    /// All flip probabilities, indexed by type id.
    pub fn probs(&self) -> &[FlipProb] {
        &self.probs
    }

    /// Perturb a single window in place — the legacy scalar path: one
    /// `f64` Bernoulli per protected type, in ascending type order. Kept
    /// for the baselines and as the reference the word-parallel
    /// [`FlipPlan`] is benchmarked and property-tested against; online
    /// service fronts use [`FlipTable::plan`] instead.
    pub fn apply_window(&self, window: &mut IndicatorVector, rng: &mut DpRng) {
        debug_assert_eq!(window.n_types(), self.probs.len());
        for (i, &p) in self.probs.iter().enumerate() {
            if p.value() > 0.0 {
                let ty = EventType(i as u32);
                let truth = window.get(ty);
                window.set(ty, p.apply(truth, rng));
            }
        }
    }

    /// Produce the protected view of a windowed history.
    pub fn apply(&self, windows: &WindowedIndicators, rng: &mut DpRng) -> WindowedIndicators {
        let mut out = windows.clone();
        for w in out.iter_mut() {
            self.apply_window(w, rng);
        }
        out
    }

    /// Precompile this table into its word-parallel execution plan (done
    /// once at setup; applied per release).
    pub fn plan(&self) -> FlipPlan {
        FlipPlan::compile(self)
    }
}

/// The precompiled, word-parallel execution plan of a [`FlipTable`].
///
/// Event types are grouped at setup into **probability classes** — one per
/// distinct non-zero flip probability — each holding a bit-packed lane mask
/// over the indicator words. Per released window, every class samples whole
/// 64-bit flip masks from the [`DpRng`] (one raw draw and one integer
/// threshold comparison per protected bit, via
/// [`DpRng::bernoulli_word`]) and XORs them into the window's words:
/// no per-bit branching, no float math, and uncorrelated types draw
/// nothing.
///
/// **Draw-order contract** (see `pdp_dp::rr` module docs): classes are
/// visited in order of their first (lowest) type id; within a class, words
/// ascend and bits within a word ascend by type id. The plan consumes
/// exactly one raw 64-bit draw per protected type per window — the same
/// count as the scalar [`FlipTable::apply_window`] path, in a different
/// order and interpretation, so seeded outputs differ from the legacy
/// per-bit path but are identical across every engine front using the
/// plan.
///
/// **Rebuilds.** A plan is immutable; reconfiguration never mutates one
/// in place. The dynamic control plane ([`crate::ControlPlane`]) compiles a
/// *fresh* table + plan per epoch and swaps it into every engine at one
/// activation window, so the draw sequence stays a pure function of
/// (compiled plan, window) across churn.
#[derive(Debug, Clone, PartialEq)]
pub struct FlipPlan {
    n_types: usize,
    classes: Vec<FlipClass>,
}

/// One probability class of a [`FlipPlan`].
#[derive(Debug, Clone, PartialEq)]
struct FlipClass {
    /// Flip iff a raw 64-bit draw falls below this
    /// ([`FlipProb::threshold_u64`]).
    threshold: u64,
    /// The class's flip probability (for introspection and tests).
    prob: FlipProb,
    /// Lane mask per indicator word: set bits mark the types of this class.
    masks: Vec<u64>,
}

impl FlipPlan {
    /// Group `table`'s types by distinct flip probability.
    fn compile(table: &FlipTable) -> Self {
        let n_types = table.width();
        let n_words = pdp_stream::words_for(n_types);
        let mut classes: Vec<FlipClass> = Vec::new();
        for (i, p) in table.probs().iter().enumerate() {
            if p.value() <= 0.0 {
                continue;
            }
            // classes keyed by exact probability bits, in first-occurrence
            // order (ascending first type id) — part of the draw-order
            // contract
            let class = match classes
                .iter_mut()
                .find(|c| c.prob.value().to_bits() == p.value().to_bits())
            {
                Some(c) => c,
                None => {
                    classes.push(FlipClass {
                        threshold: p.threshold_u64(),
                        prob: *p,
                        masks: vec![0; n_words],
                    });
                    classes.last_mut().expect("just pushed")
                }
            };
            class.masks[i / 64] |= 1u64 << (i % 64);
        }
        FlipPlan { n_types, classes }
    }

    /// Width of the type universe this plan perturbs.
    pub fn width(&self) -> usize {
        self.n_types
    }

    /// Number of distinct probability classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Number of protected types (raw draws consumed per window).
    pub fn n_protected(&self) -> usize {
        self.classes
            .iter()
            .map(|c| {
                c.masks
                    .iter()
                    .map(|m| m.count_ones() as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Perturb a single window in place, word-parallel.
    #[inline]
    pub fn apply_window(&self, window: &mut IndicatorVector, rng: &mut DpRng) {
        debug_assert_eq!(window.n_types(), self.n_types);
        for class in &self.classes {
            for (w, &lanes) in class.masks.iter().enumerate() {
                if lanes != 0 {
                    let flips = rng.bernoulli_word(class.threshold, lanes);
                    window.xor_word(w, flips);
                }
            }
        }
    }
}

/// A privacy-preserving mechanism over windowed indicator streams.
///
/// Both pattern-level PPMs and every baseline implement this, which is what
/// lets the experiment harness sweep them uniformly.
pub trait Mechanism {
    /// Short display name ("uniform", "adaptive", "bd", …).
    fn name(&self) -> String;

    /// The protected view of the stream.
    fn protect(&self, windows: &WindowedIndicators, rng: &mut DpRng) -> WindowedIndicators;
}

/// The pattern-level protection pipeline: a flip table plus the
/// distributions that produced it, with the table's word-parallel
/// [`FlipPlan`] compiled once at construction.
#[derive(Debug, Clone)]
pub struct ProtectionPipeline {
    label: String,
    table: FlipTable,
    plan: FlipPlan,
    assignments: Vec<(PatternId, BudgetDistribution)>,
}

impl ProtectionPipeline {
    /// The uniform PPM (§V-A): every private pattern's budget is split
    /// evenly over its elements.
    pub fn uniform(
        patterns: &PatternSet,
        private: &[PatternId],
        eps: Epsilon,
        n_types: usize,
    ) -> Result<Self, CoreError> {
        let assignments = private
            .iter()
            .map(|&id| {
                let p = patterns.get(id).ok_or(CoreError::UnknownPattern(id.0))?;
                Ok((id, BudgetDistribution::uniform(eps, p.len())?))
            })
            .collect::<Result<Vec<_>, CoreError>>()?;
        Self::from_assignments("uniform", patterns, assignments, n_types)
    }

    /// A pipeline from explicit distributions (the adaptive PPM builds its
    /// optimized distributions and passes them here).
    pub fn from_assignments(
        label: &str,
        patterns: &PatternSet,
        assignments: Vec<(PatternId, BudgetDistribution)>,
        n_types: usize,
    ) -> Result<Self, CoreError> {
        let table = FlipTable::from_distributions(patterns, &assignments, n_types)?;
        Ok(Self::from_table(label, table, assignments))
    }

    /// A pipeline wrapping an explicit flip table (used when a table is
    /// post-processed, e.g. widened with latent correlates).
    pub fn from_table(
        label: &str,
        table: FlipTable,
        assignments: Vec<(PatternId, BudgetDistribution)>,
    ) -> Self {
        let plan = table.plan();
        ProtectionPipeline {
            label: label.to_owned(),
            table,
            plan,
            assignments,
        }
    }

    /// The flip table in force.
    pub fn flip_table(&self) -> &FlipTable {
        &self.table
    }

    /// The table's precompiled word-parallel execution plan.
    pub fn plan(&self) -> &FlipPlan {
        &self.plan
    }

    /// The per-pattern distributions.
    pub fn assignments(&self) -> &[(PatternId, BudgetDistribution)] {
        &self.assignments
    }

    /// Total pattern-level budget of each protected pattern.
    pub fn budgets(&self) -> Vec<(PatternId, Epsilon)> {
        self.assignments
            .iter()
            .map(|(id, d)| (*id, d.total()))
            .collect()
    }

    /// Plain-data snapshot: the label, the per-type flip probabilities and
    /// the per-pattern distributions. The compiled [`FlipPlan`] is not
    /// captured — [`ProtectionPipeline::restore`] recompiles it
    /// deterministically from the table.
    pub fn snapshot(&self) -> PipelineSnapshot {
        PipelineSnapshot {
            label: self.label.clone(),
            probs: self.table.probs().iter().map(|p| p.value()).collect(),
            assignments: self.assignments.clone(),
        }
    }

    /// Rebuild a pipeline from a [`ProtectionPipeline::snapshot`] —
    /// identical flip table, identical word-parallel plan (the plan
    /// compile is a pure function of the table).
    pub fn restore(snapshot: PipelineSnapshot) -> Result<Self, CoreError> {
        let mut table = FlipTable::identity(snapshot.probs.len());
        for (i, &p) in snapshot.probs.iter().enumerate() {
            table.set_prob(
                EventType(i as u32),
                FlipProb::new(p).map_err(CoreError::Dp)?,
            )?;
        }
        Ok(Self::from_table(
            &snapshot.label,
            table,
            snapshot.assignments,
        ))
    }
}

/// The exact state of a [`ProtectionPipeline`], as plain data (see
/// [`ProtectionPipeline::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSnapshot {
    /// The mechanism label ([`Mechanism::name`]).
    pub label: String,
    /// Per-type flip probabilities in [`EventType`] order.
    pub probs: Vec<f64>,
    /// The per-pattern budget distributions.
    pub assignments: Vec<(PatternId, BudgetDistribution)>,
}

impl Mechanism for ProtectionPipeline {
    fn name(&self) -> String {
        self.label.clone()
    }

    /// Protects with the word-parallel [`FlipPlan`] — the same draw order
    /// as every online service front, so a batch replay under a shared
    /// seed reproduces the streaming and sharded paths bit-for-bit.
    fn protect(&self, windows: &WindowedIndicators, rng: &mut DpRng) -> WindowedIndicators {
        let mut out = windows.clone();
        for w in out.iter_mut() {
            self.plan.apply_window(w, rng);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_cep::Pattern;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn eps(v: f64) -> Epsilon {
        Epsilon::new(v).unwrap()
    }

    fn patterns() -> (PatternSet, PatternId, PatternId) {
        let mut set = PatternSet::new();
        let a = set.insert(Pattern::seq("a", vec![t(0), t(1)]).unwrap());
        let b = set.insert(Pattern::seq("b", vec![t(1), t(2)]).unwrap());
        (set, a, b)
    }

    #[test]
    fn uncorrelated_types_never_flip() {
        let (set, a, _) = patterns();
        let pipeline = ProtectionPipeline::uniform(&set, &[a], eps(1.0), 5).unwrap();
        let table = pipeline.flip_table();
        assert_eq!(table.protected_types(), vec![t(0), t(1)]);
        assert_eq!(table.prob(t(3)).value(), 0.0);
        assert_eq!(table.prob(t(4)).value(), 0.0);

        // bits of uncorrelated types are passed through bit-for-bit, no
        // matter what the RNG draws for the protected types
        for seed in 0..32 {
            let mut rng = DpRng::seed_from(seed);
            let wi = WindowedIndicators::new(vec![IndicatorVector::from_present([t(3), t(4)], 5)]);
            let out = pipeline.protect(&wi, &mut rng);
            for ty in [t(2), t(3), t(4)] {
                assert_eq!(out.window(0).get(ty), wi.window(0).get(ty), "seed {seed}");
            }
        }
    }

    #[test]
    fn overlapping_patterns_compose_flips() {
        let (set, a, b) = patterns();
        // both patterns uniform with ε = 2 → each element share = 1
        let pipeline = ProtectionPipeline::uniform(&set, &[a, b], eps(2.0), 3).unwrap();
        let table = pipeline.flip_table();
        let p_share = FlipProb::from_epsilon(eps(1.0));
        // type 1 is in both patterns: composed flip
        let expected = p_share.compose(p_share);
        assert!((table.prob(t(1)).value() - expected.value()).abs() < 1e-12);
        // types 0 and 2 are in one pattern each
        assert!((table.prob(t(0)).value() - p_share.value()).abs() < 1e-12);
        assert!((table.prob(t(2)).value() - p_share.value()).abs() < 1e-12);
    }

    #[test]
    fn repeated_elements_compose_within_one_pattern() {
        let mut set = PatternSet::new();
        let id = set.insert(Pattern::seq("rr", vec![t(0), t(0)]).unwrap());
        let pipeline = ProtectionPipeline::uniform(&set, &[id], eps(2.0), 1).unwrap();
        let p_share = FlipProb::from_epsilon(eps(1.0));
        let expected = p_share.compose(p_share);
        assert!((pipeline.flip_table().prob(t(0)).value() - expected.value()).abs() < 1e-12);
    }

    #[test]
    fn distribution_length_must_match_pattern() {
        let (set, a, _) = patterns();
        let bad = vec![(a, BudgetDistribution::uniform(eps(1.0), 3).unwrap())];
        assert!(FlipTable::from_distributions(&set, &bad, 3).is_err());
    }

    #[test]
    fn unknown_pattern_rejected() {
        let (set, _, _) = patterns();
        assert!(ProtectionPipeline::uniform(&set, &[PatternId(9)], eps(1.0), 3).is_err());
    }

    #[test]
    fn type_universe_too_small_rejected() {
        let (set, a, _) = patterns();
        // pattern "a" uses types 0 and 1, but n_types = 1
        assert!(ProtectionPipeline::uniform(&set, &[a], eps(1.0), 1).is_err());
    }

    #[test]
    fn apply_flips_at_expected_rate() {
        let (set, a, _) = patterns();
        let pipeline = ProtectionPipeline::uniform(&set, &[a], eps(0.0), 3).unwrap();
        // ε = 0 → p = 1/2 on types 0 and 1
        let mut rng = DpRng::seed_from(77);
        let n = 20_000;
        let wi = WindowedIndicators::new(vec![IndicatorVector::empty(3); n]);
        let out = pipeline.protect(&wi, &mut rng);
        let ones = out.iter().filter(|w| w.get(t(0))).count();
        let rate = ones as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.02, "rate {rate}");
        // type 2 untouched
        assert!(out.iter().all(|w| !w.get(t(2))));
    }

    #[test]
    fn budgets_report_totals() {
        let (set, a, b) = patterns();
        let pipeline = ProtectionPipeline::uniform(&set, &[a, b], eps(1.5), 3).unwrap();
        let budgets = pipeline.budgets();
        assert_eq!(budgets.len(), 2);
        assert!(budgets.iter().all(|(_, e)| (e.value() - 1.5).abs() < 1e-12));
        assert_eq!(pipeline.name(), "uniform");
    }

    #[test]
    fn plan_groups_types_by_probability_class() {
        let mut table = FlipTable::identity(130);
        let p1 = FlipProb::new(0.1).unwrap();
        let p2 = FlipProb::new(0.3).unwrap();
        table.set_prob(t(3), p1).unwrap();
        table.set_prob(t(70), p1).unwrap(); // same class, second word
        table.set_prob(t(5), p2).unwrap();
        let plan = table.plan();
        assert_eq!(plan.n_classes(), 2);
        assert_eq!(plan.n_protected(), 3);
        assert_eq!(plan.width(), 130);
    }

    #[test]
    fn plan_never_touches_uncorrelated_types() {
        let (set, a, _) = patterns();
        let pipeline = ProtectionPipeline::uniform(&set, &[a], eps(0.5), 5).unwrap();
        let plan = pipeline.flip_table().plan();
        for seed in 0..64 {
            let mut rng = DpRng::seed_from(seed);
            let mut w = IndicatorVector::from_present([t(3), t(4)], 5);
            plan.apply_window(&mut w, &mut rng);
            assert!(w.get(t(3)) && w.get(t(4)), "seed {seed}");
            assert!(!w.get(t(2)), "seed {seed}");
        }
    }

    #[test]
    fn plan_is_seed_deterministic() {
        let (set, a, b) = patterns();
        let pipeline = ProtectionPipeline::uniform(&set, &[a, b], eps(1.0), 4).unwrap();
        let plan = pipeline.flip_table().plan();
        let mut r1 = DpRng::seed_from(99);
        let mut r2 = DpRng::seed_from(99);
        for k in 0..200 {
            let mut w1 = IndicatorVector::from_present([t(k % 4)], 4);
            let mut w2 = w1.clone();
            plan.apply_window(&mut w1, &mut r1);
            plan.apply_window(&mut w2, &mut r2);
            assert_eq!(w1, w2, "window {k}");
        }
    }

    /// The tentpole's statistical contract: the word-sampling plan yields
    /// the exact per-bit marginal flip probability of sequential
    /// [`FlipProb`] draws — measured per type against the analytic `p`
    /// the scalar path also targets.
    #[test]
    fn plan_marginals_match_sequential_flip_prob_draws() {
        // three distinct probability classes across two words
        let mut table = FlipTable::identity(70);
        let probs = [(0u32, 0.5), (1, 0.2), (65, 0.2), (66, 0.05)];
        for &(ty, p) in &probs {
            table.set_prob(t(ty), FlipProb::new(p).unwrap()).unwrap();
        }
        let plan = table.plan();
        let n = 60_000;
        let mut rng_plan = DpRng::seed_from(7);
        let mut rng_seq = DpRng::seed_from(8);
        let mut plan_flips = std::collections::HashMap::new();
        let mut seq_flips = std::collections::HashMap::new();
        for _ in 0..n {
            let mut w = IndicatorVector::empty(70);
            plan.apply_window(&mut w, &mut rng_plan);
            for &(ty, _) in &probs {
                *plan_flips.entry(ty).or_insert(0usize) += w.get(t(ty)) as usize;
            }
            let mut w = IndicatorVector::empty(70);
            table.apply_window(&mut w, &mut rng_seq);
            for &(ty, _) in &probs {
                *seq_flips.entry(ty).or_insert(0usize) += w.get(t(ty)) as usize;
            }
        }
        for &(ty, p) in &probs {
            let plan_rate = plan_flips[&ty] as f64 / n as f64;
            let seq_rate = seq_flips[&ty] as f64 / n as f64;
            assert!(
                (plan_rate - p).abs() < 0.01,
                "type {ty}: plan rate {plan_rate} vs p {p}"
            );
            assert!(
                (plan_rate - seq_rate).abs() < 0.015,
                "type {ty}: plan {plan_rate} vs sequential {seq_rate}"
            );
        }
    }

    #[test]
    fn set_prob_bounds_checked() {
        let mut table = FlipTable::identity(2);
        assert!(table.set_prob(t(1), FlipProb::new(0.3).unwrap()).is_ok());
        assert!(table.set_prob(t(5), FlipProb::new(0.3).unwrap()).is_err());
        assert!((table.prob(t(1)).value() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn read_path_contract_is_consistent() {
        let mut table = FlipTable::identity(2);
        table.set_prob(t(0), FlipProb::new(0.25).unwrap()).unwrap();
        // in-range reads: checked and unchecked agree
        assert_eq!(table.try_prob(t(0)), Some(FlipProb::new(0.25).unwrap()));
        assert_eq!(table.prob(t(0)).value(), 0.25);
        assert_eq!(table.try_prob(t(1)), Some(FlipProb::new(0.0).unwrap()));
        // out-of-range: reads clamp to identity (never flips), writes error
        assert_eq!(table.try_prob(t(9)), None);
        assert_eq!(table.prob(t(9)).value(), 0.0);
        assert!(matches!(
            table.set_prob(t(9), FlipProb::new(0.1).unwrap()),
            Err(CoreError::WidthMismatch {
                expected: 2,
                got: 10
            })
        ));
        // and the clamped read really means "identity": protecting a
        // window never touches anything out of range
        let mut rng = DpRng::seed_from(1);
        let mut window = IndicatorVector::empty(2);
        table.apply_window(&mut window, &mut rng);
        assert!(!window.get(t(9)));
    }
}
