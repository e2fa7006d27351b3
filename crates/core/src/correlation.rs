//! Correlation discovery from historical data (§V-C future improvements).
//!
//! The paper's protection assumes data subjects declare private patterns
//! "perfectly" — but they are not privacy experts, and an event type that
//! is *statistically correlated* with a private pattern can leak it even
//! when the declared pattern's own events are perturbed. §V-C sketches the
//! fix: "estimate the correlations among events and patterns based on
//! historical data, which enables us to reveal most of the latent
//! relationships".
//!
//! This module implements that estimation: per-pair co-occurrence **lift**
//! over historical windows (`lift(a,b) = P(a∧b)/(P(a)·P(b))`), flagging of
//! event types whose lift against the private-pattern occurrence indicator
//! exceeds a threshold, and a widened flip table extending protection to
//! the flagged correlates.

use pdp_cep::{PatternId, PatternSet};
use pdp_dp::{Epsilon, FlipProb};
use pdp_stream::{EventType, WindowedIndicators};

use crate::error::CoreError;
use crate::protect::FlipTable;

/// A flagged latent correlate of a private pattern.
#[derive(Debug, Clone, PartialEq)]
pub struct Correlate {
    /// The correlated event type (not itself a declared private element).
    pub ty: EventType,
    /// Its lift against the private pattern's occurrence.
    pub lift: f64,
    /// The private pattern it correlates with.
    pub pattern: PatternId,
}

/// Empirical lift between two event types over historical windows.
///
/// Returns 1.0 (independence) when either marginal is degenerate (never /
/// always present) — a constant indicator carries no information to leak.
pub fn lift(windows: &WindowedIndicators, a: EventType, b: EventType) -> f64 {
    let n = windows.len();
    if n == 0 {
        return 1.0;
    }
    let mut ca = 0usize;
    let mut cb = 0usize;
    let mut cab = 0usize;
    for w in windows.iter() {
        let ha = w.get(a);
        let hb = w.get(b);
        ca += usize::from(ha);
        cb += usize::from(hb);
        cab += usize::from(ha && hb);
    }
    if ca == 0 || cb == 0 || ca == n || cb == n {
        return 1.0;
    }
    let pa = ca as f64 / n as f64;
    let pb = cb as f64 / n as f64;
    let pab = cab as f64 / n as f64;
    pab / (pa * pb)
}

/// Lift of an event type against a private pattern's *occurrence*
/// (conjunction of its elements) over historical windows.
fn pattern_lift(
    windows: &WindowedIndicators,
    patterns: &PatternSet,
    pattern: PatternId,
    ty: EventType,
) -> Result<f64, CoreError> {
    let p = patterns
        .get(pattern)
        .ok_or(CoreError::UnknownPattern(pattern.0))?;
    let elements: Vec<EventType> = p.distinct_types().into_iter().collect();
    let n = windows.len();
    if n == 0 {
        return Ok(1.0);
    }
    let mut cp = 0usize;
    let mut ct = 0usize;
    let mut cpt = 0usize;
    for w in windows.iter() {
        let occurred = elements.iter().all(|&e| w.get(e));
        let has_ty = w.get(ty);
        cp += usize::from(occurred);
        ct += usize::from(has_ty);
        cpt += usize::from(occurred && has_ty);
    }
    if cp == 0 || ct == 0 || cp == n || ct == n {
        return Ok(1.0);
    }
    let pp = cp as f64 / n as f64;
    let pt = ct as f64 / n as f64;
    let ppt = cpt as f64 / n as f64;
    Ok(ppt / (pp * pt))
}

/// Flag event types (outside the declared private elements) whose lift
/// against any private pattern exceeds `threshold` (> 1 means positive
/// correlation; 2.0 is a reasonable default for "clearly dependent").
pub fn find_correlates(
    windows: &WindowedIndicators,
    patterns: &PatternSet,
    private: &[PatternId],
    threshold: f64,
) -> Result<Vec<Correlate>, CoreError> {
    let mut declared = std::collections::BTreeSet::new();
    for &id in private {
        let p = patterns.get(id).ok_or(CoreError::UnknownPattern(id.0))?;
        declared.extend(p.distinct_types());
    }
    let mut out = Vec::new();
    for i in 0..windows.n_types() {
        let ty = EventType(i as u32);
        if declared.contains(&ty) {
            continue;
        }
        for &pid in private {
            let l = pattern_lift(windows, patterns, pid, ty)?;
            if l > threshold {
                out.push(Correlate {
                    ty,
                    lift: l,
                    pattern: pid,
                });
            }
        }
    }
    // strongest first
    out.sort_by(|a, b| {
        b.lift
            .partial_cmp(&a.lift)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    Ok(out)
}

/// Widen a flip table so flagged correlates receive randomized response
/// with per-type budget `correlate_eps` (composed with any existing flip).
///
/// The correlates' noise is *additional* protection against latent leakage;
/// the declared patterns' pattern-level guarantee is unchanged
/// (post-composition only increases noise).
pub fn widen_protection(
    table: &FlipTable,
    correlates: &[Correlate],
    correlate_eps: Epsilon,
) -> Result<FlipTable, CoreError> {
    let mut widened = table.clone();
    let p = FlipProb::from_epsilon(correlate_eps);
    let mut seen = std::collections::BTreeSet::new();
    for c in correlates {
        if seen.insert(c.ty) {
            let existing = widened.prob(c.ty);
            widened.set_prob(c.ty, existing.compose(p))?;
        }
    }
    Ok(widened)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_cep::Pattern;
    use pdp_stream::IndicatorVector;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    /// Windows where type 2 co-occurs with the private pattern {0,1}
    /// almost always, and type 3 is independent.
    fn fixture() -> (WindowedIndicators, PatternSet, PatternId) {
        let mut windows = Vec::new();
        for k in 0..100 {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.extend([t(0), t(1), t(2)]); // correlate rides along
            }
            if k % 3 == 0 {
                present.push(t(3)); // independent
            }
            if k % 7 == 0 {
                present.push(t(2)); // some solo appearances of the correlate
            }
            windows.push(IndicatorVector::from_present(present, 4));
        }
        let mut set = PatternSet::new();
        let private = set.insert(Pattern::seq("p", vec![t(0), t(1)]).unwrap());
        (WindowedIndicators::new(windows), set, private)
    }

    #[test]
    fn lift_detects_dependence_and_independence() {
        let (w, _, _) = fixture();
        assert!(lift(&w, t(0), t(2)) > 1.4, "lift {}", lift(&w, t(0), t(2)));
        let indep = lift(&w, t(0), t(3));
        assert!((indep - 1.0).abs() < 0.35, "independent lift {indep}");
        // degenerate marginals → 1.0
        assert_eq!(lift(&WindowedIndicators::new(vec![]), t(0), t(1)), 1.0);
    }

    #[test]
    fn pattern_lift_flags_the_rider() {
        let (w, set, private) = fixture();
        let l2 = pattern_lift(&w, &set, private, t(2)).unwrap();
        let l3 = pattern_lift(&w, &set, private, t(3)).unwrap();
        assert!(l2 > 1.4, "correlate lift {l2}");
        assert!(l3 < 1.4, "independent lift {l3}");
        assert!(pattern_lift(&w, &set, PatternId(9), t(0)).is_err());
    }

    #[test]
    fn find_correlates_excludes_declared_elements() {
        let (w, set, private) = fixture();
        let cs = find_correlates(&w, &set, &[private], 1.4).unwrap();
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].ty, t(2));
        assert_eq!(cs[0].pattern, private);
        assert!(cs[0].lift > 1.4);
    }

    #[test]
    fn widen_protection_composes_noise_onto_correlates() {
        let (w, set, private) = fixture();
        let cs = find_correlates(&w, &set, &[private], 1.4).unwrap();
        let base = FlipTable::identity(4);
        let widened = widen_protection(&base, &cs, Epsilon::new(1.0).unwrap()).unwrap();
        assert!(widened.prob(t(2)).value() > 0.0);
        assert_eq!(widened.prob(t(3)).value(), 0.0);
        // widening an already-noisy slot composes (more noise)
        let twice = widen_protection(&widened, &cs, Epsilon::new(1.0).unwrap()).unwrap();
        assert!(twice.prob(t(2)).value() > widened.prob(t(2)).value());
    }

    #[test]
    fn correlates_sorted_by_strength() {
        // two correlates with different strengths
        let mut windows = Vec::new();
        for k in 0..90 {
            let mut present = Vec::new();
            if k % 2 == 0 {
                present.extend([t(0), t(1)]); // strong rider
                if k % 4 == 0 {
                    present.push(t(2)); // weaker rider
                }
            }
            if k % 9 == 0 {
                present.push(t(1));
            }
            if k % 5 == 0 {
                present.push(t(2));
            }
            windows.push(IndicatorVector::from_present(present, 3));
        }
        let mut set = PatternSet::new();
        let private = set.insert(Pattern::single("p", t(0)));
        let w = WindowedIndicators::new(windows);
        let cs = find_correlates(&w, &set, &[private], 1.05).unwrap();
        assert!(cs.len() >= 2);
        for pair in cs.windows(2) {
            assert!(pair[0].lift >= pair[1].lift);
        }
    }
}
