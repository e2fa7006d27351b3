//! Trial statistics: summarizing repeated randomized runs.
//!
//! Experiment rows are averaged over many seeded trials; [`Summary`] carries
//! mean, sample standard deviation and a normal-approximation 95 % CI.

use serde::Serialize;

/// Summary statistics over a set of trial values.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Number of trials.
    pub n: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n − 1 denominator; 0 for n < 2).
    pub std_dev: f64,
    /// Half-width of the normal-approximation 95 % confidence interval.
    pub ci95: f64,
    /// Smallest observation.
    pub min: f64,
    /// Largest observation.
    pub max: f64,
}

impl Summary {
    /// Summarize `values`; returns `None` for an empty slice.
    pub fn from_values(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let n = values.len();
        let mean = values.iter().sum::<f64>() / n as f64;
        let var = if n < 2 {
            0.0
        } else {
            values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / (n as f64 - 1.0)
        };
        let std_dev = var.sqrt();
        let ci95 = if n < 2 {
            0.0
        } else {
            1.96 * std_dev / (n as f64).sqrt()
        };
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Some(Summary {
            n,
            mean,
            std_dev,
            ci95,
            min,
            max,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_is_none() {
        assert!(Summary::from_values(&[]).is_none());
    }

    #[test]
    fn single_value() {
        let s = Summary::from_values(&[2.5]).unwrap();
        assert_eq!(s.n, 1);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
        assert_eq!(s.min, 2.5);
        assert_eq!(s.max, 2.5);
    }

    #[test]
    fn known_statistics() {
        let s = Summary::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((s.mean - 2.5).abs() < 1e-12);
        // sample variance = (2.25+0.25+0.25+2.25)/3 = 5/3
        assert!((s.std_dev - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
        assert!(s.ci95 > 0.0);
    }

    #[test]
    fn constant_values_have_zero_spread() {
        let s = Summary::from_values(&[7.0; 10]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.ci95, 0.0);
    }

    proptest! {
        #[test]
        fn invariants(values in proptest::collection::vec(-100.0f64..100.0, 1..60)) {
            let s = Summary::from_values(&values).unwrap();
            prop_assert!(s.min <= s.mean + 1e-9);
            prop_assert!(s.mean <= s.max + 1e-9);
            prop_assert!(s.std_dev >= 0.0);
            prop_assert!(s.ci95 >= 0.0);
            prop_assert_eq!(s.n, values.len());
        }
    }
}
