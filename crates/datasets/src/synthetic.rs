//! The paper's synthetic dataset — Algorithm 2, faithfully.
//!
//! > 1. Denote 20 basic events as e₁ … e₂₀;
//! > 2. randomly generate 20 numbers between 0 and 1 as the natural
//! >    occurrence of eᵢ, i.e. Pr(eᵢ);
//! > 3. for each of 1000 windows Lm: each event independently occurs with
//! >    its Pr(eᵢ);
//! > 4. among 20 patterns, randomly select 3 as private and 5 as target;
//! > 5. assign randomly 3 events to each pattern; a pattern is detected in
//! >    Lm iff all three of its events are contained in Lm.
//!
//! Defaults match the paper exactly; every count is a knob so the ablation
//! sweeps (pattern length, overlap fraction) reuse the same generator.

use pdp_cep::{Pattern, PatternSet};
use pdp_dp::DpRng;
use pdp_stream::{EventType, IndicatorVector, WindowedIndicators};

use crate::workload::Workload;

/// Knobs for the Algorithm 2 generator (defaults = the paper).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of basic event types (paper: 20).
    pub n_types: usize,
    /// Number of windows `Lm` (paper: 1000).
    pub n_windows: usize,
    /// Number of patterns (paper: 20).
    pub n_patterns: usize,
    /// Events per pattern (paper: 3).
    pub pattern_len: usize,
    /// How many patterns are private (paper: 3).
    pub n_private: usize,
    /// How many patterns are target (paper: 5).
    pub n_target: usize,
    /// If set, forces this fraction of target patterns to overlap a private
    /// pattern by sharing at least one event type (rewiring after the
    /// random draw). `None` keeps the raw random draw of the paper.
    pub forced_overlap: Option<f64>,
    /// Occurrence probabilities are drawn from `[min_rate, max_rate)`.
    /// The paper draws from `[0, 1)`; narrowing the band is used by
    /// ablations to control detection density.
    pub min_rate: f64,
    /// Upper bound of the occurrence band.
    pub max_rate: f64,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            n_types: 20,
            n_windows: 1000,
            n_patterns: 20,
            pattern_len: 3,
            n_private: 3,
            n_target: 5,
            forced_overlap: None,
            min_rate: 0.0,
            max_rate: 1.0,
        }
    }
}

/// A generated synthetic dataset: the workload plus the latent rates.
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    /// The evaluation workload.
    pub workload: Workload,
    /// The natural occurrence probability of each event type.
    pub rates: Vec<f64>,
}

impl SyntheticDataset {
    /// Run Algorithm 2 with `config` and the given seed.
    pub fn generate(config: &SyntheticConfig, seed: u64) -> SyntheticDataset {
        let mut rng = DpRng::seed_from(seed);
        assert!(config.n_types >= config.pattern_len, "universe too small");
        assert!(
            config.n_private + config.n_target <= 2 * config.n_patterns,
            "role counts exceed patterns"
        );

        // line 2: natural occurrence rates
        let rates: Vec<f64> = (0..config.n_types)
            .map(|_| rng.range_f64(config.min_rate, config.max_rate))
            .collect();

        // lines 4–11: the 1000 windows
        let windows: Vec<IndicatorVector> = (0..config.n_windows)
            .map(|_| {
                let present = (0..config.n_types)
                    .filter(|&i| rng.bernoulli(rates[i]))
                    .map(|i| EventType(i as u32));
                IndicatorVector::from_present(present, config.n_types)
            })
            .collect();

        // line 14: assign randomly `pattern_len` events to each pattern
        let mut patterns = PatternSet::new();
        let mut ids = Vec::with_capacity(config.n_patterns);
        for k in 0..config.n_patterns {
            let picks = rng.sample_indices(config.n_types, config.pattern_len);
            let elements: Vec<EventType> = picks.into_iter().map(|i| EventType(i as u32)).collect();
            let id = patterns
                .insert(Pattern::seq(&format!("P{k}"), elements).expect("pattern_len >= 1"));
            ids.push(id);
        }

        // line 13: randomly select private and target roles.
        // Private and target draws are independent (the paper wants overlap
        // between the private and target *areas*, and an intersection of
        // the role sets is explicitly meaningful).
        let private_picks = rng.sample_indices(config.n_patterns, config.n_private);
        let target_picks = rng.sample_indices(config.n_patterns, config.n_target);
        let private: Vec<_> = private_picks.iter().map(|&i| ids[i]).collect();
        let mut target: Vec<_> = target_picks.iter().map(|&i| ids[i]).collect();

        // optional overlap rewiring for the ablation sweeps
        if let Some(frac) = config.forced_overlap {
            let want = ((target.len() as f64) * frac.clamp(0.0, 1.0)).round() as usize;
            let private_types: Vec<EventType> = private
                .iter()
                .filter_map(|&id| patterns.get(id))
                .flat_map(|p| p.distinct_types())
                .collect();
            if !private_types.is_empty() {
                let mut rewired = PatternSet::new();
                // Rebuild the set so target patterns 0..want share their
                // first element with a random private type.
                let mut new_target = Vec::with_capacity(target.len());
                for (pos, &tid) in target.iter().enumerate() {
                    let original = patterns.get(tid).expect("target id valid").clone();
                    let mut elements: Vec<EventType> = original.elements().to_vec();
                    if pos < want {
                        elements[0] = private_types[rng.below(private_types.len())];
                    }
                    let id =
                        rewired.insert(Pattern::seq(original.name(), elements).expect("non-empty"));
                    new_target.push(id);
                }
                let mut new_private = Vec::with_capacity(private.len());
                for &pid in &private {
                    let original = patterns.get(pid).expect("private id valid").clone();
                    new_private.push(rewired.insert(original));
                }
                patterns = rewired;
                target = new_target;
                let workload = Workload {
                    name: "synthetic".into(),
                    n_types: config.n_types,
                    windows: WindowedIndicators::new(windows),
                    patterns,
                    private: new_private,
                    target,
                };
                return SyntheticDataset { workload, rates };
            }
        }

        let workload = Workload {
            name: "synthetic".into(),
            n_types: config.n_types,
            windows: WindowedIndicators::new(windows),
            patterns,
            private,
            target,
        };
        SyntheticDataset { workload, rates }
    }

    /// Generate `count` independent datasets (the paper synthesizes 1000
    /// artificial datasets by repeating Algorithm 2).
    pub fn generate_many(
        config: &SyntheticConfig,
        base_seed: u64,
        count: usize,
    ) -> Vec<SyntheticDataset> {
        (0..count)
            .map(|k| Self::generate(config, base_seed.wrapping_add(k as u64)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = SyntheticConfig::default();
        assert_eq!(
            (c.n_types, c.n_windows, c.n_patterns, c.pattern_len),
            (20, 1000, 20, 3)
        );
        assert_eq!((c.n_private, c.n_target), (3, 5));
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let c = SyntheticConfig::default();
        let a = SyntheticDataset::generate(&c, 42);
        let b = SyntheticDataset::generate(&c, 42);
        assert_eq!(a.rates, b.rates);
        assert_eq!(a.workload.windows, b.workload.windows);
        assert_eq!(a.workload.private, b.workload.private);
        let c2 = SyntheticDataset::generate(&c, 43);
        assert_ne!(a.workload.windows, c2.workload.windows);
    }

    #[test]
    fn structure_matches_config() {
        let c = SyntheticConfig::default();
        let d = SyntheticDataset::generate(&c, 7);
        let w = &d.workload;
        assert_eq!(w.windows.len(), 1000);
        assert_eq!(w.n_types, 20);
        assert_eq!(w.patterns.len(), 20);
        assert_eq!(w.private.len(), 3);
        assert_eq!(w.target.len(), 5);
        assert!(w.validate().is_ok());
        for (_, p) in w.patterns.iter() {
            assert_eq!(p.len(), 3);
            // sampled without replacement → distinct
            assert_eq!(p.distinct_types().len(), 3);
        }
    }

    #[test]
    fn occurrence_rates_are_respected() {
        let c = SyntheticConfig {
            n_windows: 5000,
            ..SyntheticConfig::default()
        };
        let d = SyntheticDataset::generate(&c, 11);
        for i in 0..c.n_types {
            let observed = d.workload.windows.occurrence_rate(EventType(i as u32));
            assert!(
                (observed - d.rates[i]).abs() < 0.03,
                "type {i}: observed {observed} vs rate {}",
                d.rates[i]
            );
        }
    }

    #[test]
    fn forced_overlap_rewires_targets() {
        let c = SyntheticConfig {
            forced_overlap: Some(1.0),
            ..SyntheticConfig::default()
        };
        let d = SyntheticDataset::generate(&c, 3);
        let w = &d.workload;
        assert!(w.validate().is_ok());
        assert_eq!(w.overlapping_targets().len(), w.target.len());
        // zero overlap keeps at most chance-level overlap
        let c0 = SyntheticConfig {
            forced_overlap: Some(0.0),
            ..SyntheticConfig::default()
        };
        let d0 = SyntheticDataset::generate(&c0, 3);
        assert!(d0.workload.validate().is_ok());
    }

    #[test]
    fn generate_many_yields_independent_datasets() {
        let c = SyntheticConfig {
            n_windows: 50,
            ..SyntheticConfig::default()
        };
        let ds = SyntheticDataset::generate_many(&c, 100, 5);
        assert_eq!(ds.len(), 5);
        assert_ne!(ds[0].rates, ds[1].rates);
    }

    #[test]
    fn narrow_rate_band_respected() {
        let c = SyntheticConfig {
            min_rate: 0.4,
            max_rate: 0.6,
            n_windows: 200,
            ..SyntheticConfig::default()
        };
        let d = SyntheticDataset::generate(&c, 5);
        for &r in &d.rates {
            assert!((0.4..0.6).contains(&r));
        }
    }

    #[test]
    #[should_panic(expected = "universe too small")]
    fn rejects_tiny_universe() {
        let c = SyntheticConfig {
            n_types: 2,
            pattern_len: 3,
            ..SyntheticConfig::default()
        };
        SyntheticDataset::generate(&c, 1);
    }
}
