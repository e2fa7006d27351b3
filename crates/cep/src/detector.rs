//! Continuous detection: event stream → pattern stream (Fig. 1).
//!
//! A [`Detector`] evaluates every registered pattern against every window of
//! a whole recorded stream, producing the per-window detection table. The
//! paper's pattern stream `S_P = (P₁, P₂, …)` corresponds to the `true`
//! entries of this table in window order. It is the batch reference the
//! online [`IncrementalDetector`](crate::IncrementalDetector) is checked
//! against, and the unprotected view examples and tests compare protected
//! answers with.

use pdp_stream::{EventStream, EventType, WindowAssigner};

use crate::compile::CompiledSet;
use crate::pattern::{PatternId, PatternSet};
use crate::query::Semantics;

/// Per-window detection table: `table[window][pattern.0] = detected`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectionTable {
    n_patterns: usize,
    rows: Vec<Vec<bool>>,
}

impl DetectionTable {
    /// Build an empty table.
    pub fn new(n_patterns: usize) -> Self {
        DetectionTable {
            n_patterns,
            rows: Vec::new(),
        }
    }

    /// Append one window's detections.
    pub fn push_window(&mut self, detections: Vec<bool>) {
        debug_assert_eq!(detections.len(), self.n_patterns);
        self.rows.push(detections);
    }

    /// Detection flag for `(window, pattern)`.
    pub fn get(&self, window: usize, pattern: PatternId) -> bool {
        self.rows
            .get(window)
            .and_then(|r| r.get(pattern.0 as usize))
            .copied()
            .unwrap_or(false)
    }

    /// Number of windows.
    pub fn n_windows(&self) -> usize {
        self.rows.len()
    }

    /// Number of patterns per window.
    pub fn n_patterns(&self) -> usize {
        self.n_patterns
    }
}

/// Evaluates all patterns of a set over windows of a stream.
#[derive(Debug, Clone)]
pub struct Detector {
    patterns: PatternSet,
    compiled: CompiledSet,
    semantics: Semantics,
}

impl Detector {
    /// Build a detector for `patterns` with the given semantics.
    pub fn new(patterns: PatternSet, semantics: Semantics) -> Self {
        let compiled = CompiledSet::compile(&patterns);
        Detector {
            patterns,
            compiled,
            semantics,
        }
    }

    /// The pattern set under detection.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// The detection semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// Detect over the windows of an event stream.
    pub fn detect_stream(&self, stream: &EventStream, assigner: &WindowAssigner) -> DetectionTable {
        let mut table = DetectionTable::new(self.patterns.len());
        for (_, events) in assigner.assign(stream) {
            let timed: Vec<(EventType, pdp_stream::Timestamp)> =
                events.iter().map(|e| (e.ty, e.ts)).collect();
            let row = self
                .patterns
                .iter()
                .map(|(id, _)| self.compiled.detect_timed(id, &timed, self.semantics))
                .collect();
            table.push_window(row);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::Pattern;
    use pdp_stream::{Event, TimeDelta, Timestamp};

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn ev(ty: u32, ms: i64) -> Event {
        Event::new(t(ty), Timestamp::from_millis(ms))
    }

    fn patterns() -> PatternSet {
        let mut set = PatternSet::new();
        set.insert(Pattern::seq("ab", vec![t(0), t(1)]).unwrap());
        set.insert(Pattern::single("c", t(2)));
        set
    }

    #[test]
    fn detect_stream_per_window() {
        let detector = Detector::new(patterns(), Semantics::Ordered);
        // window [0,10): a then b → ab detected; window [10,20): b then a → not
        let stream =
            EventStream::from_unordered(vec![ev(0, 1), ev(1, 5), ev(1, 11), ev(0, 15), ev(2, 16)]);
        let assigner = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let table = detector.detect_stream(&stream, &assigner);
        assert_eq!(table.n_windows(), 2);
        assert!(table.get(0, PatternId(0)));
        assert!(!table.get(0, PatternId(1)));
        assert!(!table.get(1, PatternId(0))); // wrong order
        assert!(table.get(1, PatternId(1)));
    }

    #[test]
    fn detect_indicators_matches_conjunction() {
        // the release path matches patterns on indicator vectors; under
        // conjunction that agrees with this batch reference on raw events
        let detector = Detector::new(patterns(), Semantics::Conjunction);
        let stream =
            EventStream::from_unordered(vec![ev(1, 1), ev(0, 5), ev(2, 12), ev(0, 14), ev(2, 25)]);
        let assigner = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let table = detector.detect_stream(&stream, &assigner);
        let indicators = pdp_stream::WindowedIndicators::from_stream(&stream, &assigner, 3);
        assert_eq!(indicators.len(), table.n_windows());
        for (w, iv) in indicators.iter().enumerate() {
            for (id, pattern) in detector.patterns().iter() {
                let on_indicators = crate::matcher::match_indicator(pattern, iv);
                assert_eq!(on_indicators, table.get(w, id), "window {w} {id}");
            }
        }
        assert!(table.get(0, PatternId(0)) && table.get(1, PatternId(1)));
    }

    #[test]
    fn conjunction_semantics_in_stream_detection() {
        let detector = Detector::new(patterns(), Semantics::Conjunction);
        let stream = EventStream::from_unordered(vec![ev(1, 1), ev(0, 5)]);
        let assigner = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let table = detector.detect_stream(&stream, &assigner);
        assert!(table.get(0, PatternId(0))); // order ignored
    }

    #[test]
    fn ordered_within_in_stream_detection() {
        let detector = Detector::new(
            patterns(),
            Semantics::OrderedWithin(TimeDelta::from_millis(3)),
        );
        // window 0: a@1 → b@9 (span 8 > 3, rejected); window 1: a@11 → b@13
        let stream = EventStream::from_unordered(vec![ev(0, 1), ev(1, 9), ev(0, 11), ev(1, 13)]);
        let assigner = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let table = detector.detect_stream(&stream, &assigner);
        assert!(!table.get(0, PatternId(0)));
        assert!(table.get(1, PatternId(0)));
    }

    #[test]
    fn table_counts_and_iterates() {
        let mut table = DetectionTable::new(2);
        table.push_window(vec![true, false]);
        table.push_window(vec![true, true]);
        assert_eq!((table.n_windows(), table.n_patterns()), (2, 2));
        let count = |p| {
            (0..table.n_windows())
                .filter(|&w| table.get(w, PatternId(p)))
                .count()
        };
        assert_eq!((count(0), count(1)), (2, 1));
        assert!(!table.get(9, PatternId(0))); // out of range
    }
}
