//! Randomized response over binary indicators (Def. 5 of the paper).
//!
//! The mechanism reports the true indicator with probability `1 − p` and the
//! flipped indicator with probability `p`. With `p ≤ 1/2` it is
//! `ln((1−p)/p)`-DP for a single bit; over a pattern's `m` elements the
//! budgets add (Theorem 1): `ε = Σᵢ ln((1−pᵢ)/pᵢ)`.
//!
//! This module also implements **flip composition**: applying two independent
//! randomized responses in sequence is itself a randomized response with
//! flip probability `p ⊕ q = p + q − 2pq`. The paper uses this implicitly for
//! events shared by overlapping private patterns (§V-A: independent PPMs
//! "only bring more noise to the private information").
//!
//! # Sampling and the seeded draw-order contract
//!
//! Two sampling paths produce flip decisions, and both are part of the
//! reproducibility contract:
//!
//! * **Scalar path** ([`FlipProb::apply`]): one `f64` uniform draw per bit,
//!   compared against `p`. This is the legacy order — one draw per
//!   perturbed position, in position order — still used by the baselines
//!   and by [`RandomizedResponse::apply`].
//! * **Word path** ([`FlipProb::threshold_u64`] +
//!   [`DpRng::bernoulli_word`]): one raw `u64` draw per bit, compared
//!   against the integer threshold `ceil(p · 2^64)`. The hot-path flip
//!   plan (`pdp_core::FlipPlan`) draws in **probability-class
//!   order**: event types are grouped by distinct flip probability at
//!   setup; per released window, classes are visited in order of their
//!   first (lowest) type id, and within a class bits are drawn in
//!   ascending type id, words ascending. Uncorrelated types (`p = 0`)
//!   draw nothing.
//!
//! The two paths consume the same *number* of raw draws per release (one
//! per protected type) but in a different order and interpretation, so
//! seeded outputs differ between them. Every online service front
//! (batch adapter, streaming engine, sharded service) uses the word path,
//! which keeps them bit-for-bit equivalent to each other under a shared
//! seed — the equivalence anchors in `tests/streaming_equivalence.rs` and
//! `tests/sharded_equivalence.rs` are re-established under this order.
//! Per-bit marginals are identical in both paths up to the threshold
//! quantization of `2^-64` (tighter than the `f64` comparison it
//! replaces); the statistical property tests in `pdp_core::protect`
//! verify the word path reproduces the scalar path's marginal flip rate.
//!
//! **Epoch rebuilds.** Under the dynamic control plane
//! (`pdp_core::control`) the flip plan is *recompiled per epoch*: pattern
//! churn and adaptive re-distribution change the table, so the class
//! grouping — and with it the number and order of raw draws per window —
//! changes at the epoch's activation window. That is inside the
//! contract, not a violation of it: the draw order is defined *per
//! compiled plan*, every engine switches plans on the same window index,
//! and the per-window draw sequence is a pure function of (plan, window)
//! — which is exactly why N shards under churn stay bit-for-bit equal to
//! N independent engines replaying the same command schedule.

use crate::budget::Epsilon;
use crate::error::DpError;
use crate::rng::DpRng;

/// A per-bit flip probability, constrained to `[0, 1/2]`.
///
/// `p = 1/2` corresponds to `ε = 0` (the output is independent of the input);
/// `p = 0` corresponds to `ε = ∞` (no protection) and is only representable
/// as the limit — construction from a finite ε always yields `p > 0`.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct FlipProb(f64);

impl FlipProb {
    /// Maximum noise: output independent of input (`ε = 0`).
    pub const HALF: FlipProb = FlipProb(0.5);

    /// Construct, requiring `0 ≤ p ≤ 1/2`.
    pub fn new(p: f64) -> Result<Self, DpError> {
        if p.is_finite() && (0.0..=0.5).contains(&p) {
            Ok(FlipProb(p))
        } else {
            Err(DpError::InvalidProbability(p))
        }
    }

    /// The flip probability from a per-bit budget: `p = 1 / (1 + e^ε)`.
    pub fn from_epsilon(eps: Epsilon) -> FlipProb {
        // ε ≥ 0 ⇒ p ∈ (0, 1/2], monotone decreasing in ε.
        FlipProb(1.0 / (1.0 + eps.value().exp()))
    }

    /// The per-bit budget this flip probability affords:
    /// `ε = ln((1−p)/p)`. `p = 0` maps to `+∞`, which is not a valid
    /// [`Epsilon`]; callers holding `p = 0` have an unprotected bit.
    pub fn epsilon(self) -> Option<Epsilon> {
        if self.0 == 0.0 {
            None
        } else {
            Some(Epsilon::new_unchecked(((1.0 - self.0) / self.0).ln()))
        }
    }

    /// The raw probability.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Serial composition of two independent flips:
    /// `p ⊕ q = p + q − 2pq` (still ≤ 1/2 when both are).
    pub fn compose(self, other: FlipProb) -> FlipProb {
        let p = self.0 + other.0 - 2.0 * self.0 * other.0;
        // Composition of values in [0, 1/2] stays in [0, 1/2]; clamp the
        // float error.
        FlipProb(p.clamp(0.0, 0.5))
    }

    /// Probability that the *reported* bit is 1 given the true bit.
    pub fn report_one_prob(self, truth: bool) -> f64 {
        if truth {
            1.0 - self.0
        } else {
            self.0
        }
    }

    /// Apply the mechanism to one bit.
    pub fn apply(self, truth: bool, rng: &mut DpRng) -> bool {
        if rng.bernoulli(self.0) {
            !truth
        } else {
            truth
        }
    }

    /// The integer comparison threshold of the word sampling path:
    /// a raw 64-bit draw below this value means "flip". Rounded up, so the
    /// realized flip probability is never below `p` and exceeds it by less
    /// than `2^-64`: every `p > 0` flips with positive probability, which
    /// is what the ledger charges ε for (`p = 1/2` maps to exactly `2^63`).
    #[inline]
    pub fn threshold_u64(self) -> u64 {
        // Scaling by 2^64 is exact in f64, and p ≤ 1/2 keeps the product
        // ≤ 2^63 < 2^64, so the conversion never saturates. For
        // p ≥ 2^-12 the product is already an integer.
        (self.0 * 18_446_744_073_709_551_616.0).ceil() as u64
    }
}

/// A randomized-response mechanism over a fixed-width indicator vector:
/// position `i` flips with probability `probs[i]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomizedResponse {
    probs: Vec<FlipProb>,
}

impl RandomizedResponse {
    /// Build from per-position flip probabilities.
    pub fn new(probs: Vec<FlipProb>) -> Self {
        RandomizedResponse { probs }
    }

    /// Build from per-position budgets.
    pub fn from_epsilons(eps: &[Epsilon]) -> Self {
        RandomizedResponse {
            probs: eps.iter().map(|&e| FlipProb::from_epsilon(e)).collect(),
        }
    }

    /// A mechanism that never perturbs (all `p = 0`).
    pub fn identity(width: usize) -> Self {
        RandomizedResponse {
            probs: vec![FlipProb(0.0); width],
        }
    }

    /// The per-position probabilities.
    pub fn probs(&self) -> &[FlipProb] {
        &self.probs
    }

    /// Width of the indicator vector this mechanism perturbs.
    pub fn width(&self) -> usize {
        self.probs.len()
    }

    /// Total budget across positions with non-zero flip probability
    /// (Theorem 1). Positions with `p = 0` are unprotected and contribute
    /// no finite budget; they are excluded (`None` overall if *all* are 0
    /// and `strict` is set).
    pub fn total_epsilon(&self) -> Epsilon {
        self.probs
            .iter()
            .filter_map(|p| p.epsilon())
            .fold(Epsilon::ZERO, |acc, e| acc + e)
    }

    /// Perturb an indicator vector in place.
    pub fn apply(&self, bits: &mut [bool], rng: &mut DpRng) {
        debug_assert_eq!(bits.len(), self.probs.len());
        for (bit, p) in bits.iter_mut().zip(&self.probs) {
            *bit = p.apply(*bit, rng);
        }
    }

    /// Exact output distribution for a given input: probability of each
    /// response vector. Exponential in width — only for verification tests
    /// on small universes.
    pub fn output_distribution(&self, input: &[bool]) -> Vec<(Vec<bool>, f64)> {
        assert_eq!(input.len(), self.probs.len());
        assert!(
            input.len() <= 16,
            "output_distribution is exponential; width {} too large",
            input.len()
        );
        let n = input.len();
        let mut out = Vec::with_capacity(1 << n);
        for mask in 0..(1u32 << n) {
            let resp: Vec<bool> = (0..n).map(|i| mask & (1 << i) != 0).collect();
            let mut prob = 1.0;
            for i in 0..n {
                let p = self.probs[i].0;
                prob *= if resp[i] == input[i] { 1.0 - p } else { p };
            }
            out.push((resp, prob));
        }
        out
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
    fn epsilon_prob_roundtrip() {
        for e in [0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0] {
            let p = FlipProb::from_epsilon(eps(e));
            let back = p.epsilon().unwrap();
            assert!(
                (back.value() - e).abs() < 1e-9,
                "roundtrip failed for ε={e}: got {}",
                back.value()
            );
        }
    }

    #[test]
    fn zero_epsilon_is_half() {
        let p = FlipProb::from_epsilon(Epsilon::ZERO);
        assert!((p.value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn p_zero_has_no_finite_epsilon() {
        assert!(FlipProb::new(0.0).unwrap().epsilon().is_none());
    }

    #[test]
    fn invalid_probs_rejected() {
        assert!(FlipProb::new(0.6).is_err());
        assert!(FlipProb::new(-0.1).is_err());
        assert!(FlipProb::new(f64::NAN).is_err());
        assert!(FlipProb::new(0.5).is_ok());
    }

    #[test]
    fn composition_formula() {
        let p = FlipProb::new(0.1).unwrap();
        let q = FlipProb::new(0.2).unwrap();
        let c = p.compose(q);
        assert!((c.value() - (0.1 + 0.2 - 2.0 * 0.1 * 0.2)).abs() < 1e-12);
    }

    #[test]
    fn composing_with_half_is_half() {
        let p = FlipProb::new(0.3).unwrap();
        assert!((p.compose(FlipProb::HALF).value() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn composition_reduces_epsilon() {
        let p = FlipProb::from_epsilon(eps(2.0));
        let q = FlipProb::from_epsilon(eps(1.0));
        let c = p.compose(q);
        let ec = c.epsilon().unwrap().value();
        assert!(ec < 1.0, "composed ε {ec} should be below min(2,1)");
    }

    #[test]
    fn report_one_prob_cases() {
        let p = FlipProb::new(0.2).unwrap();
        assert!((p.report_one_prob(true) - 0.8).abs() < 1e-12);
        assert!((p.report_one_prob(false) - 0.2).abs() < 1e-12);
    }

    #[test]
    fn apply_rate_matches_p() {
        let p = FlipProb::new(0.25).unwrap();
        let mut rng = DpRng::seed_from(123);
        let n = 40_000;
        let flips = (0..n).filter(|_| !p.apply(true, &mut rng)).count();
        let rate = flips as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "flip rate {rate}");
    }

    #[test]
    fn threshold_u64_quantizes_exactly() {
        assert_eq!(FlipProb::HALF.threshold_u64(), 1u64 << 63);
        assert_eq!(FlipProb::new(0.0).unwrap().threshold_u64(), 0);
        assert_eq!(FlipProb::new(0.25).unwrap().threshold_u64(), 1u64 << 62);
        // non-dyadic p: threshold / 2^64 recovers p to f64 precision
        let p = FlipProb::new(0.3).unwrap();
        let back = p.threshold_u64() as f64 / 2f64.powi(64);
        assert!((back - 0.3).abs() < 1e-15, "{back}");
    }

    #[test]
    fn threshold_u64_never_rounds_a_charged_bit_to_zero() {
        // ε = 50 gives p ≈ 2e-22, so p · 2^64 ≈ 0.0036: truncation would
        // release the bit raw while the ledger charges a finite ε
        let p = FlipProb::from_epsilon(eps(50.0));
        assert!(p.epsilon().is_some());
        assert!(p.threshold_u64() >= 1);
        // the realized probability threshold / 2^64 is never below p
        let scale = 2f64.powi(64);
        let mut p = 0.5f64;
        while p > 1e-30 {
            let threshold = FlipProb::new(p).unwrap().threshold_u64();
            assert!(threshold as f64 >= p * scale, "p = {p:e}");
            assert!(threshold as f64 - p * scale < 1.0, "p = {p:e}");
            p *= 0.37;
        }
    }

    #[test]
    fn threshold_sampling_matches_scalar_marginal() {
        // the word path's per-bit flip rate equals the scalar path's
        let p = FlipProb::new(0.2).unwrap();
        let threshold = p.threshold_u64();
        let n = 40_000;
        let mut rng_w = DpRng::seed_from(31);
        let word_flips = (0..n)
            .filter(|_| rng_w.bernoulli_threshold(threshold))
            .count();
        let mut rng_s = DpRng::seed_from(32);
        let scalar_flips = (0..n).filter(|_| !p.apply(true, &mut rng_s)).count();
        let wr = word_flips as f64 / n as f64;
        let sr = scalar_flips as f64 / n as f64;
        assert!((wr - 0.2).abs() < 0.02, "word rate {wr}");
        assert!((wr - sr).abs() < 0.02, "word {wr} vs scalar {sr}");
    }

    #[test]
    fn mechanism_total_epsilon_sums() {
        let m = RandomizedResponse::from_epsilons(&[eps(1.0), eps(0.5), eps(0.0)]);
        // ε=0 contributes p=1/2, which maps back to ε=0: total = 1.5
        assert!((m.total_epsilon().value() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn identity_mechanism_never_flips() {
        let m = RandomizedResponse::identity(4);
        let mut rng = DpRng::seed_from(1);
        let mut bits = [true, false, true, false];
        m.apply(&mut bits, &mut rng);
        assert_eq!(bits, [true, false, true, false]);
        assert_eq!(m.total_epsilon(), Epsilon::ZERO);
    }

    #[test]
    fn output_distribution_sums_to_one_and_bounds_ratio() {
        // DP check on a width-3 mechanism: neighbouring inputs differing in
        // one position have likelihood ratios bounded by e^{ε_i}.
        let epsilons = [eps(0.8), eps(1.2), eps(0.3)];
        let m = RandomizedResponse::from_epsilons(&epsilons);
        let x = [true, false, true];
        for i in 0..3 {
            let mut x2 = x;
            x2[i] = !x2[i];
            let d1 = m.output_distribution(&x);
            let d2 = m.output_distribution(&x2);
            let bound = epsilons[i].value().exp();
            let total: f64 = d1.iter().map(|(_, p)| p).sum();
            assert!((total - 1.0).abs() < 1e-9);
            for ((r1, p1), (r2, p2)) in d1.iter().zip(d2.iter()) {
                assert_eq!(r1, r2);
                if *p2 > 0.0 {
                    assert!(
                        p1 / p2 <= bound + 1e-9,
                        "ratio {} exceeds e^ε {}",
                        p1 / p2,
                        bound
                    );
                }
            }
        }
    }

    proptest! {
        #[test]
        fn from_epsilon_monotone(e1 in 0.0f64..8.0, e2 in 0.0f64..8.0) {
            let p1 = FlipProb::from_epsilon(eps(e1));
            let p2 = FlipProb::from_epsilon(eps(e2));
            if e1 < e2 {
                prop_assert!(p1.value() > p2.value());
            }
        }

        #[test]
        fn compose_commutative_and_bounded(a in 0.0f64..=0.5, b in 0.0f64..=0.5) {
            let p = FlipProb::new(a).unwrap();
            let q = FlipProb::new(b).unwrap();
            let pq = p.compose(q);
            let qp = q.compose(p);
            prop_assert!((pq.value() - qp.value()).abs() < 1e-12);
            prop_assert!(pq.value() <= 0.5 + 1e-12);
            // composing adds noise: result ≥ max(a, b)
            prop_assert!(pq.value() + 1e-12 >= a.max(b));
        }

        #[test]
        fn compose_associative(a in 0.0f64..=0.5, b in 0.0f64..=0.5, c in 0.0f64..=0.5) {
            let (p, q, r) = (
                FlipProb::new(a).unwrap(),
                FlipProb::new(b).unwrap(),
                FlipProb::new(c).unwrap(),
            );
            let left = p.compose(q).compose(r).value();
            let right = p.compose(q.compose(r)).value();
            prop_assert!((left - right).abs() < 1e-12);
        }

        #[test]
        fn roundtrip_eps_any(e in 0.0f64..20.0) {
            let back = FlipProb::from_epsilon(eps(e)).epsilon().unwrap().value();
            prop_assert!((back - e).abs() < 1e-6);
        }
    }
}
