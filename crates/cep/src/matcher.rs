//! Per-window pattern matching on indicator vectors.
//!
//! The post-protection view only has indicators — randomized response
//! erases event multiplicity and order for perturbed types, which is why
//! the paper's mechanisms, and the conjunction semantics, operate on
//! indicators. Matching over raw, timestamped window events (all three
//! [`Semantics`](crate::Semantics)) is what [`Detector`](crate::Detector)
//! and [`IncrementalDetector`](crate::IncrementalDetector) do.

use pdp_stream::IndicatorVector;

use crate::pattern::Pattern;

/// Match `pattern` against a window's indicator vector (conjunction
/// semantics — indicators carry no order).
///
/// This is the convenience form; it walks the pattern's distinct types per
/// call. Hot paths should precompile the pattern once with
/// [`Pattern::type_mask`] and use [`TypeMask::matches`] — a branch-free
/// word-level subset test with no per-release pattern walk.
///
/// [`TypeMask::matches`]: pdp_stream::TypeMask::matches
pub fn match_indicator(pattern: &Pattern, indicators: &IndicatorVector) -> bool {
    pattern
        .distinct_types()
        .iter()
        .all(|&ty| indicators.get(ty))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdp_stream::{Event, EventType, Timestamp};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    #[test]
    fn indicator_matching() {
        let p = Pattern::seq("p", vec![t(0), t(2)]).unwrap();
        let mut iv = IndicatorVector::empty(3);
        iv.set(t(0), true);
        assert!(!match_indicator(&p, &iv));
        iv.set(t(2), true);
        assert!(match_indicator(&p, &iv));
    }

    #[test]
    fn conjunction_ignores_order() {
        // indicators erase order: `seq(t2, t0)` matches a window where t0
        // came first
        let p = Pattern::seq("p", vec![t(2), t(0)]).unwrap();
        let window = [
            Event::new(t(0), Timestamp::from_millis(1)),
            Event::new(t(2), Timestamp::from_millis(3)),
        ];
        let iv = IndicatorVector::from_present(window.iter().map(|e| e.ty), 3);
        assert!(match_indicator(&p, &iv));
        assert!(p.type_mask(3).matches(&iv));
    }

    #[test]
    fn conjunction_missing_element() {
        let p = Pattern::seq("p", vec![t(0), t(1), t(2)]).unwrap();
        let iv = IndicatorVector::from_present([t(0), t(2)], 3);
        assert!(!match_indicator(&p, &iv));
        assert!(!p.type_mask(3).matches(&iv));
    }

    #[test]
    fn empty_window_detects_nothing() {
        let p = Pattern::single("p", t(0));
        let iv = IndicatorVector::empty(3);
        assert!(!match_indicator(&p, &iv));
        assert!(!p.type_mask(3).matches(&iv));
    }
}
