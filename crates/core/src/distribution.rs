//! Budget distributions: how a pattern's total ε is shared among elements.
//!
//! §V-B: "we denote the privacy budget distributed to the i-th event as
//! `εᵢ = ln((1−pᵢ)/pᵢ)`. For a given total privacy budget ε, `Σεᵢ = ε`
//! holds." The uniform distribution (Fig. 3) gives each element `ε/m`; the
//! adaptive distribution (Algorithm 1, in [`crate::adaptive`]) reshapes the
//! shares using historical data.

use pdp_dp::{Epsilon, FlipProb};

use crate::error::CoreError;

/// Per-element budget shares for one private pattern: `Σ shares = total`.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetDistribution {
    total: Epsilon,
    shares: Vec<Epsilon>,
}

impl BudgetDistribution {
    /// The uniform distribution: every element gets `ε/m` (Fig. 3).
    pub fn uniform(total: Epsilon, m: usize) -> Result<Self, CoreError> {
        if m == 0 {
            return Err(CoreError::InvalidDistribution(
                "pattern length must be at least 1".into(),
            ));
        }
        Ok(BudgetDistribution {
            total,
            shares: total.split_even(m)?,
        })
    }

    /// A distribution from explicit shares; validates `εᵢ ∈ [0, ε]` and
    /// `Σεᵢ = ε` (within float tolerance).
    pub fn from_shares(total: Epsilon, shares: Vec<Epsilon>) -> Result<Self, CoreError> {
        if shares.is_empty() {
            return Err(CoreError::InvalidDistribution("no shares".into()));
        }
        let sum: f64 = shares.iter().map(|s| s.value()).sum();
        if (sum - total.value()).abs() > 1e-6 * total.value().max(1.0) {
            return Err(CoreError::InvalidDistribution(format!(
                "shares sum to {sum}, expected {}",
                total.value()
            )));
        }
        if shares.iter().any(|s| s.value() > total.value() + 1e-9) {
            return Err(CoreError::InvalidDistribution(
                "a share exceeds the total budget".into(),
            ));
        }
        Ok(BudgetDistribution { total, shares })
    }

    /// The total budget `ε`.
    pub fn total(&self) -> Epsilon {
        self.total
    }

    /// The per-element shares `ε₁ … εₘ`.
    pub fn shares(&self) -> &[Epsilon] {
        &self.shares
    }

    /// Pattern length `m`.
    pub fn len(&self) -> usize {
        self.shares.len()
    }

    /// Distributions are never empty.
    pub fn is_empty(&self) -> bool {
        self.shares.is_empty()
    }

    /// The per-element flip probabilities `pᵢ = 1/(1 + e^{εᵢ})`.
    pub fn flip_probs(&self) -> Vec<FlipProb> {
        self.shares
            .iter()
            .map(|&e| FlipProb::from_epsilon(e))
            .collect()
    }

    /// Replace the shares (used by the adaptive optimizer); re-validates.
    pub fn with_shares(&self, shares: Vec<Epsilon>) -> Result<Self, CoreError> {
        Self::from_shares(self.total, shares)
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
    fn uniform_splits_evenly() {
        let d = BudgetDistribution::uniform(eps(3.0), 3).unwrap();
        assert_eq!(d.len(), 3);
        for s in d.shares() {
            assert!((s.value() - 1.0).abs() < 1e-12);
        }
        assert_eq!(d.total(), eps(3.0));
        assert!(BudgetDistribution::uniform(eps(1.0), 0).is_err());
    }

    #[test]
    fn from_shares_validates_sum() {
        assert!(BudgetDistribution::from_shares(eps(1.0), vec![eps(0.5), eps(0.5)]).is_ok());
        assert!(BudgetDistribution::from_shares(eps(1.0), vec![eps(0.5), eps(0.6)]).is_err());
        assert!(BudgetDistribution::from_shares(eps(1.0), vec![]).is_err());
    }

    #[test]
    fn from_shares_rejects_oversized_share() {
        // sum constraint alone wouldn't catch this if total were larger
        let r = BudgetDistribution::from_shares(eps(1.0), vec![eps(1.5)]);
        assert!(r.is_err());
    }

    #[test]
    fn flip_probs_match_shares() {
        let d = BudgetDistribution::from_shares(eps(1.5), vec![eps(1.0), eps(0.5)]).unwrap();
        let ps = d.flip_probs();
        assert!((ps[0].value() - 1.0 / (1.0 + 1.0f64.exp())).abs() < 1e-12);
        assert!((ps[1].value() - 1.0 / (1.0 + 0.5f64.exp())).abs() < 1e-12);
    }

    #[test]
    fn zero_total_distributes_halves() {
        let d = BudgetDistribution::uniform(Epsilon::ZERO, 2).unwrap();
        for p in d.flip_probs() {
            assert!((p.value() - 0.5).abs() < 1e-12);
        }
    }

    #[test]
    fn with_shares_revalidates() {
        let d = BudgetDistribution::uniform(eps(1.0), 2).unwrap();
        assert!(d.with_shares(vec![eps(0.7), eps(0.3)]).is_ok());
        assert!(d.with_shares(vec![eps(0.7), eps(0.7)]).is_err());
    }

    proptest! {
        #[test]
        fn uniform_total_conserved(total in 0.0f64..20.0, m in 1usize..30) {
            let d = BudgetDistribution::uniform(eps(total), m).unwrap();
            let sum: f64 = d.shares().iter().map(|s| s.value()).sum();
            prop_assert!((sum - total).abs() < 1e-9);
            // Theorem 1 consistency: Σ ln((1−pᵢ)/pᵢ) = ε
            if total > 0.0 {
                let back: f64 = d.flip_probs().iter()
                    .map(|p| p.epsilon().unwrap().value())
                    .sum();
                prop_assert!((back - total).abs() < 1e-6);
            }
        }
    }
}
