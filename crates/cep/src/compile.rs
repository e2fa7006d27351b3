//! Pattern → executable matcher compilation.
//!
//! Compiles each registered pattern to the representation its semantics
//! needs: an [`Nfa`] for ordered matching, the distinct-type list for
//! conjunction matching. Compilation is done once per pattern set and reused
//! across every window.

use std::collections::HashMap;

use pdp_stream::EventType;

use crate::nfa::Nfa;
use crate::pattern::{PatternId, PatternSet};
use crate::query::Semantics;

/// A compiled pattern ready for per-window evaluation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledPattern {
    /// NFA for ordered semantics.
    pub(crate) nfa: Nfa,
    /// Distinct element types for conjunction semantics.
    pub(crate) distinct: Vec<EventType>,
}

/// All patterns of a set, compiled.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompiledSet {
    compiled: HashMap<PatternId, CompiledPattern>,
}

impl CompiledSet {
    /// Compile every pattern in `set`.
    pub(crate) fn compile(set: &PatternSet) -> Self {
        let compiled = set
            .iter()
            .map(|(id, p)| {
                (
                    id,
                    CompiledPattern {
                        nfa: Nfa::from_elements(p.elements()),
                        distinct: p.distinct_types().into_iter().collect(),
                    },
                )
            })
            .collect();
        CompiledSet { compiled }
    }

    /// The compiled form of one pattern.
    pub(crate) fn get(&self, id: PatternId) -> Option<&CompiledPattern> {
        self.compiled.get(&id)
    }

    /// Evaluate one pattern against a window's timestamped events (in
    /// temporal order), honouring span constraints.
    pub(crate) fn detect_timed(
        &self,
        id: PatternId,
        window: &[(EventType, pdp_stream::Timestamp)],
        semantics: Semantics,
    ) -> bool {
        let Some(cp) = self.compiled.get(&id) else {
            return false;
        };
        match semantics {
            Semantics::Ordered => cp.nfa.accepts(window.iter().map(|&(ty, _)| ty)),
            Semantics::Conjunction => cp
                .distinct
                .iter()
                .all(|ty| window.iter().any(|(w, _)| w == ty)),
            Semantics::OrderedWithin(span) => match cp.nfa.min_span(window) {
                Some(best) => best <= span,
                None => false,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use pdp_stream::{TimeDelta, Timestamp};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    /// A window of `(type, ms)` events, already in temporal order.
    fn w(events: &[(u32, i64)]) -> Vec<(EventType, Timestamp)> {
        events
            .iter()
            .map(|&(ty, ms)| (t(ty), Timestamp::from_millis(ms)))
            .collect()
    }

    fn compiled() -> (CompiledSet, PatternId) {
        let mut set = PatternSet::new();
        let id = set.insert(Pattern::seq("p", vec![t(0), t(1)]).unwrap());
        (CompiledSet::compile(&set), id)
    }

    #[test]
    fn ordered_vs_conjunction() {
        let (cs, id) = compiled();
        let reversed = w(&[(1, 0), (0, 1)]);
        assert!(!cs.detect_timed(id, &reversed, Semantics::Ordered));
        assert!(cs.detect_timed(id, &reversed, Semantics::Conjunction));
        let ordered = w(&[(0, 0), (5, 1), (1, 2)]);
        assert!(cs.detect_timed(id, &ordered, Semantics::Ordered));
        assert!(cs.detect_timed(id, &ordered, Semantics::Conjunction));
        // an element missing, or no events at all: no semantics detects it
        for window in [w(&[(0, 0), (5, 1)]), w(&[])] {
            for sem in [
                Semantics::Ordered,
                Semantics::Conjunction,
                Semantics::OrderedWithin(TimeDelta::from_millis(100)),
            ] {
                assert!(!cs.detect_timed(id, &window, sem), "{sem:?}");
            }
        }
    }

    #[test]
    fn ordered_within_enforces_span() {
        let (cs, id) = compiled();
        // tightest match spans 10 ms (50 → 60)
        let window = w(&[(0, 0), (0, 50), (1, 60)]);
        let within = |ms| Semantics::OrderedWithin(TimeDelta::from_millis(ms));
        assert!(cs.detect_timed(id, &window, within(10)));
        assert!(!cs.detect_timed(id, &window, within(5)));
        // plain ordered ignores the span
        assert!(cs.detect_timed(id, &window, Semantics::Ordered));
    }

    #[test]
    fn missing_pattern_is_not_detected() {
        let (cs, _) = compiled();
        let window = w(&[(0, 0), (1, 1)]);
        assert!(!cs.detect_timed(PatternId(9), &window, Semantics::Ordered));
    }

    #[test]
    fn compiles_all_patterns() {
        let mut set = PatternSet::new();
        set.insert(Pattern::single("a", t(0)));
        set.insert(Pattern::single("b", t(1)));
        let cs = CompiledSet::compile(&set);
        assert!(cs.get(PatternId(0)).is_some());
        assert!(cs.get(PatternId(1)).is_some());
        assert!(cs.get(PatternId(2)).is_none());
    }

    #[test]
    fn conjunction_with_repeated_elements_uses_distinct() {
        let mut set = PatternSet::new();
        let id = set.insert(Pattern::seq("pp", vec![t(0), t(0)]).unwrap());
        let cs = CompiledSet::compile(&set);
        // conjunction only needs one occurrence of each distinct type …
        assert!(cs.detect_timed(id, &w(&[(0, 0)]), Semantics::Conjunction));
        // … but ordered needs two.
        assert!(!cs.detect_timed(id, &w(&[(0, 0)]), Semantics::Ordered));
        assert!(cs.detect_timed(id, &w(&[(0, 0), (0, 1)]), Semantics::Ordered));
    }
}
