//! Beyond-binary answers (paper §V: "We see the potential to further
//! extend these PPMs so that they can process queries that require
//! numerical or categorical answers").
//!
//! Two extension query kinds, both answered from the *protected* indicator
//! view so the pattern-level guarantee is inherited by post-processing
//! (no extra budget is spent):
//!
//! * [`CategoricalQuery`] — "which of these patterns describes the window?"
//!   with a priority order (first detected option wins) and a fallback
//!   category;
//! * [`CountQuery`] — "in how many of the last windows was the pattern
//!   detected?" — the paper's own example ("drivers can be interested in
//!   the numbers of nearby passengers … their true intention is to know if
//!   this area is crowded"), with an optional crowdedness threshold
//!   recovering the binary reading.

use pdp_cep::{match_indicator, PatternId, PatternSet};
use pdp_dp::{DpRng, Epsilon, Exponential};
use pdp_stream::WindowedIndicators;

use crate::error::CoreError;

/// A categorical continuous query: per window, the answer is the label of
/// the first detected option, or the fallback label.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CategoricalQuery {
    /// Candidate categories in priority order: `(label, pattern)`.
    pub options: Vec<(String, PatternId)>,
    /// The label when no option's pattern is detected.
    pub fallback: String,
}

impl CategoricalQuery {
    /// Build; at least one option is required.
    pub fn new(options: Vec<(String, PatternId)>, fallback: &str) -> Result<Self, CoreError> {
        if options.is_empty() {
            return Err(CoreError::InvalidDistribution(
                "categorical query needs at least one option".into(),
            ));
        }
        Ok(CategoricalQuery {
            options,
            fallback: fallback.to_owned(),
        })
    }

    /// Answer over (protected) windows: one label per window.
    pub fn answer(
        &self,
        patterns: &PatternSet,
        windows: &WindowedIndicators,
    ) -> Result<Vec<String>, CoreError> {
        let compiled: Vec<(&str, &pdp_cep::Pattern)> = self
            .options
            .iter()
            .map(|(label, id)| {
                patterns
                    .get(*id)
                    .map(|p| (label.as_str(), p))
                    .ok_or(CoreError::UnknownPattern(id.0))
            })
            .collect::<Result<_, _>>()?;
        Ok(windows
            .iter()
            .map(|w| {
                compiled
                    .iter()
                    .find(|(_, p)| match_indicator(p, w))
                    .map(|(label, _)| label.to_string())
                    .unwrap_or_else(|| self.fallback.clone())
            })
            .collect())
    }
}

/// A windowed count query with an optional binary threshold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountQuery {
    /// The pattern being counted.
    pub pattern: PatternId,
    /// Counting scope: the trailing `horizon` windows.
    pub horizon: usize,
}

impl CountQuery {
    /// Build; the horizon must be at least 1.
    pub fn new(pattern: PatternId, horizon: usize) -> Result<Self, CoreError> {
        if horizon == 0 {
            return Err(CoreError::InvalidDistribution(
                "count horizon must be at least 1".into(),
            ));
        }
        Ok(CountQuery { pattern, horizon })
    }

    /// Per-window trailing counts over (protected) windows.
    pub fn answer(
        &self,
        patterns: &PatternSet,
        windows: &WindowedIndicators,
    ) -> Result<Vec<usize>, CoreError> {
        let p = patterns
            .get(self.pattern)
            .ok_or(CoreError::UnknownPattern(self.pattern.0))?;
        let hits: Vec<bool> = windows.iter().map(|w| match_indicator(p, w)).collect();
        let mut out = Vec::with_capacity(hits.len());
        let mut rolling = 0usize;
        for (i, &h) in hits.iter().enumerate() {
            rolling += usize::from(h);
            if i >= self.horizon {
                rolling -= usize::from(hits[i - self.horizon]);
            }
            out.push(rolling);
        }
        Ok(out)
    }

    /// The paper's binary reading: "is this area crowded?" — trailing count
    /// at or above `threshold`.
    pub fn answer_thresholded(
        &self,
        patterns: &PatternSet,
        windows: &WindowedIndicators,
        threshold: usize,
    ) -> Result<Vec<bool>, CoreError> {
        Ok(self
            .answer(patterns, windows)?
            .into_iter()
            .map(|c| c >= threshold)
            .collect())
    }
}

/// "Which pattern dominated?" answered with the **exponential mechanism**
/// and a *dedicated* budget — the alternative to post-processing when the
/// consumer needs the selection itself to be ε-DP against the raw stream
/// (e.g. the engine is asked before any pattern-level protection is set
/// up).
///
/// Utility of candidate `c` = number of windows in which `c` was detected;
/// changing one event in one window changes any candidate's count by at
/// most 1, so the utility sensitivity is 1.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NoisyArgmax {
    /// Candidate patterns: `(label, id)`.
    pub candidates: Vec<(String, PatternId)>,
}

impl NoisyArgmax {
    /// Build; at least one candidate is required.
    pub fn new(candidates: Vec<(String, PatternId)>) -> Result<Self, CoreError> {
        if candidates.is_empty() {
            return Err(CoreError::InvalidDistribution(
                "noisy argmax needs at least one candidate".into(),
            ));
        }
        Ok(NoisyArgmax { candidates })
    }

    /// Select the (noisily) most frequent candidate over `windows`,
    /// spending `eps` through the exponential mechanism.
    pub fn select(
        &self,
        patterns: &PatternSet,
        windows: &WindowedIndicators,
        eps: Epsilon,
        rng: &mut DpRng,
    ) -> Result<String, CoreError> {
        let utilities: Vec<f64> = self
            .candidates
            .iter()
            .map(|(_, id)| {
                let p = patterns.get(*id).ok_or(CoreError::UnknownPattern(id.0))?;
                Ok(windows.iter().filter(|w| match_indicator(p, w)).count() as f64)
            })
            .collect::<Result<_, CoreError>>()?;
        let mechanism = Exponential::new(eps, 1.0).map_err(CoreError::Dp)?;
        let idx = mechanism
            .select(&utilities, rng)
            .expect("candidates verified non-empty");
        Ok(self.candidates[idx].0.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_cep::Pattern;
    use pdp_stream::{EventType, IndicatorVector};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn setup() -> (PatternSet, PatternId, PatternId, WindowedIndicators) {
        let mut set = PatternSet::new();
        let busy = set.insert(Pattern::single("busy", t(0)));
        let quiet = set.insert(Pattern::single("quiet", t(1)));
        let windows = WindowedIndicators::new(vec![
            IndicatorVector::from_present([t(0)], 3),
            IndicatorVector::from_present([t(1)], 3),
            IndicatorVector::from_present([t(0), t(1)], 3),
            IndicatorVector::empty(3),
        ]);
        (set, busy, quiet, windows)
    }

    #[test]
    fn categorical_answers_first_match_then_fallback() {
        let (set, busy, quiet, windows) = setup();
        let q = CategoricalQuery::new(
            vec![("busy".into(), busy), ("quiet".into(), quiet)],
            "unknown",
        )
        .unwrap();
        let answers = q.answer(&set, &windows).unwrap();
        assert_eq!(answers, ["busy", "quiet", "busy", "unknown"]);
    }

    #[test]
    fn categorical_validates() {
        assert!(CategoricalQuery::new(vec![], "x").is_err());
        let (set, _, _, windows) = setup();
        let q = CategoricalQuery::new(vec![("x".into(), PatternId(9))], "f").unwrap();
        assert!(q.answer(&set, &windows).is_err());
    }

    #[test]
    fn count_query_rolls_over_horizon() {
        let (set, busy, _, windows) = setup();
        let q = CountQuery::new(busy, 2).unwrap();
        // busy hits: [1, 0, 1, 0]; trailing-2 counts: [1, 1, 1, 1]
        assert_eq!(q.answer(&set, &windows).unwrap(), vec![1, 1, 1, 1]);
        let q3 = CountQuery::new(busy, 3).unwrap();
        // trailing-3: [1, 1, 2, 1]
        assert_eq!(q3.answer(&set, &windows).unwrap(), vec![1, 1, 2, 1]);
    }

    #[test]
    fn thresholded_count_is_binary_crowding() {
        let (set, busy, _, windows) = setup();
        let q = CountQuery::new(busy, 3).unwrap();
        assert_eq!(
            q.answer_thresholded(&set, &windows, 2).unwrap(),
            vec![false, false, true, false]
        );
    }

    #[test]
    fn count_query_validates() {
        let (set, busy, _, windows) = setup();
        assert!(CountQuery::new(busy, 0).is_err());
        let q = CountQuery::new(PatternId(9), 2).unwrap();
        assert!(q.answer(&set, &windows).is_err());
    }

    #[test]
    fn noisy_argmax_prefers_frequent_pattern() {
        let (set, busy, quiet, _) = setup();
        // busy detected in 9 of 10 windows, quiet in 1
        let mut windows = Vec::new();
        for k in 0..10 {
            let present = if k == 0 { vec![t(1)] } else { vec![t(0)] };
            windows.push(IndicatorVector::from_present(present, 3));
        }
        let windows = WindowedIndicators::new(windows);
        let q = NoisyArgmax::new(vec![("busy".into(), busy), ("quiet".into(), quiet)]).unwrap();
        let mut rng = DpRng::seed_from(4);
        let mut busy_wins = 0;
        for _ in 0..200 {
            if q.select(&set, &windows, Epsilon::new(2.0).unwrap(), &mut rng)
                .unwrap()
                == "busy"
            {
                busy_wins += 1;
            }
        }
        assert!(busy_wins > 150, "busy selected only {busy_wins}/200");
        // at ε = 0 the choice is a coin flip
        let mut even = 0;
        for _ in 0..400 {
            if q.select(&set, &windows, Epsilon::ZERO, &mut rng).unwrap() == "quiet" {
                even += 1;
            }
        }
        assert!(
            (even as f64 / 400.0 - 0.5).abs() < 0.1,
            "quiet rate {even}/400"
        );
    }

    #[test]
    fn noisy_argmax_validates() {
        assert!(NoisyArgmax::new(vec![]).is_err());
        let (set, _, _, windows) = setup();
        let q = NoisyArgmax::new(vec![("x".into(), PatternId(9))]).unwrap();
        let mut rng = DpRng::seed_from(1);
        assert!(q
            .select(&set, &windows, Epsilon::new(1.0).unwrap(), &mut rng)
            .is_err());
    }

    #[test]
    fn answers_inherit_protection_by_post_processing() {
        // answering on a protected view uses only the released bits —
        // demonstrate the plumbing end-to-end
        use crate::protect::{Mechanism, ProtectionPipeline};
        use pdp_dp::{DpRng, Epsilon};
        let (set, busy, _, windows) = setup();
        let pipeline =
            ProtectionPipeline::uniform(&set, &[busy], Epsilon::new(0.5).unwrap(), 3).unwrap();
        let mut rng = DpRng::seed_from(3);
        let protected = pipeline.protect(&windows, &mut rng);
        let q = CountQuery::new(busy, 2).unwrap();
        let counts = q.answer(&set, &protected).unwrap();
        assert_eq!(counts.len(), windows.len());
        assert!(counts.iter().all(|&c| c <= 2));
    }
}
