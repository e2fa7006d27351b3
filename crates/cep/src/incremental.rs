//! Incremental (push-based) detection over an unbounded stream.
//!
//! The batch [`Detector`](crate::detector::Detector) re-scans windows; a
//! long-running CEP engine instead consumes events one at a time and emits
//! a detection row whenever a tumbling window closes. [`IncrementalDetector`]
//! does exactly that, tracking per-pattern NFA states (ordered semantics)
//! or presence sets (conjunction) inside the open window.
//!
//! The detector is built for the service-phase hot loop: the open window's
//! presence is a bit-packed [`IndicatorVector`], conjunction detection is a
//! precompiled [`TypeMask`] subset test per pattern, and the drain-style
//! [`IncrementalDetector::push_into`] /
//! [`IncrementalDetector::advance_to_into`] append to a caller-owned buffer
//! so the per-event steady state allocates nothing.

use std::collections::VecDeque;
use std::sync::Arc;

use pdp_stream::{Event, EventType, IndicatorVector, TimeDelta, Timestamp, TypeMask};

use crate::compile::CompiledSet;
use crate::error::CepError;
use crate::pattern::PatternSet;
use crate::query::Semantics;

/// A closed window's detection row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClosedWindow {
    /// Sequential index of the closed window.
    pub index: usize,
    /// Start of the closed window.
    pub start: Timestamp,
    /// Per-pattern detection flags, indexed by pattern id.
    pub detections: Vec<bool>,
    /// Per-type presence of the closed window (`I(e_i)` of Def. 5),
    /// bit-packed — tracked under every semantics, so downstream release
    /// paths can take ownership of it and perturb it in place without a
    /// single copy.
    pub presence: IndicatorVector,
}

/// A pattern-set swap compiled ahead of its activation window.
///
/// Epoch activation used to recompile the NFA set and conjunction masks
/// inside the detector's window-close update application — on the hot path, at
/// window close, once *per detector*. A `PreparedPatternSwap` hoists that
/// compile off the hot path: the control plane compiles **once** on the
/// service thread and shares the result across every shard behind an
/// [`Arc`], so activation at window close is a handful of clones of
/// already-compiled state.
#[derive(Debug, Clone)]
pub struct PreparedPatternSwap {
    patterns: PatternSet,
    compiled: CompiledSet,
    conj_masks: Vec<TypeMask>,
    n_types: usize,
}

impl PreparedPatternSwap {
    /// Compile `patterns` for a type universe of width `n_types`.
    pub fn prepare(patterns: PatternSet, n_types: usize) -> Self {
        let compiled = CompiledSet::compile(&patterns);
        let conj_masks = patterns
            .iter()
            .map(|(_, p)| TypeMask::from_types(p.distinct_types(), n_types))
            .collect();
        PreparedPatternSwap {
            patterns,
            compiled,
            conj_masks,
            n_types,
        }
    }

    /// The pattern set this swap activates.
    pub fn patterns(&self) -> &PatternSet {
        &self.patterns
    }

    /// Width of the type universe the swap was compiled for.
    pub fn n_types(&self) -> usize {
        self.n_types
    }
}

/// Push-based tumbling-window detector.
#[derive(Debug, Clone)]
pub struct IncrementalDetector {
    patterns: PatternSet,
    compiled: CompiledSet,
    /// Conjunction semantics: per-pattern distinct-type masks in
    /// [`crate::pattern::PatternId`] order, precompiled so window close is
    /// one word-level subset test per pattern.
    conj_masks: Vec<TypeMask>,
    semantics: Semantics,
    window_len: TimeDelta,
    /// Grid index of the currently open window (None before first event).
    open_window: Option<i64>,
    emitted: usize,
    /// Ordered semantics: per-pattern NFA state.
    nfa_states: Vec<usize>,
    n_types: usize,
    /// Per-type presence in the open window (detection state for
    /// conjunction semantics, and the `presence` payload of every
    /// [`ClosedWindow`]).
    present: IndicatorVector,
    /// OrderedWithin semantics: the open window's timestamped events.
    timed: Vec<(EventType, Timestamp)>,
    last_ts: Option<Timestamp>,
    /// Pattern-set swaps staged by future window index (epoch activation):
    /// the swap at `(at, set)` takes effect for every window whose release
    /// index is `>= at`. Ascending by activation index. Pre-compiled and
    /// `Arc`-shared so activation never compiles on the hot path.
    pending: VecDeque<(usize, Arc<PreparedPatternSwap>)>,
}

impl IncrementalDetector {
    /// Build for tumbling windows of `window_len`.
    pub fn new(
        patterns: PatternSet,
        semantics: Semantics,
        window_len: TimeDelta,
        n_types: usize,
    ) -> Result<Self, CepError> {
        if !window_len.is_positive() {
            return Err(CepError::InvalidQuery(
                "window length must be positive".into(),
            ));
        }
        let compiled = CompiledSet::compile(&patterns);
        let conj_masks = patterns
            .iter()
            .map(|(_, p)| TypeMask::from_types(p.distinct_types(), n_types))
            .collect();
        let n_patterns = patterns.len();
        Ok(IncrementalDetector {
            patterns,
            compiled,
            conj_masks,
            semantics,
            window_len,
            open_window: None,
            emitted: 0,
            nfa_states: vec![0; n_patterns],
            n_types,
            present: IndicatorVector::empty(n_types),
            timed: Vec::new(),
            last_ts: None,
            pending: VecDeque::new(),
        })
    }

    /// Stage a pattern-set swap that takes effect for every window with
    /// release index `>= at_index` — the detector half of an epoch switch.
    ///
    /// The new set must extend the one it replaces: pattern ids are stable
    /// and append-only (a "removed" pattern is deactivated by the plan
    /// layer, never deleted from the registry), so per-pattern state
    /// carries over without losing the in-flight open window: the shared
    /// presence bits, the open-window grid slot and the emit counter are
    /// all untouched by the swap, and persisting patterns keep their NFA
    /// state. Detection boundary: under conjunction semantics newly added
    /// patterns are detected exactly from window `at_index` on (detection
    /// is recomputed from the presence bits at close); under ordered
    /// semantics they begin matching with the first event observed after
    /// the swap, i.e. from window `at_index + 1` on.
    ///
    /// Rejected if `at_index` precedes a window already emitted or an
    /// already-staged swap, or if the new set does not extend the previous
    /// one.
    pub fn schedule_pattern_update(
        &mut self,
        at_index: usize,
        patterns: PatternSet,
    ) -> Result<(), CepError> {
        let swap = Arc::new(PreparedPatternSwap::prepare(patterns, self.n_types));
        self.schedule_prepared_update(at_index, swap)
    }

    /// Stage a pre-compiled pattern-set swap — the zero-compile half of
    /// [`IncrementalDetector::schedule_pattern_update`]. The caller compiles
    /// one [`PreparedPatternSwap`] and shares it (behind an [`Arc`]) across
    /// every detector that must activate it, so an N-shard service pays one
    /// compile instead of N stop-the-world compiles at window close.
    ///
    /// Same validation as `schedule_pattern_update`, plus the swap must have
    /// been prepared for this detector's type universe.
    pub fn schedule_prepared_update(
        &mut self,
        at_index: usize,
        swap: Arc<PreparedPatternSwap>,
    ) -> Result<(), CepError> {
        if swap.n_types != self.n_types {
            return Err(CepError::InvalidQuery(format!(
                "prepared swap compiled for {} types, detector has {}",
                swap.n_types, self.n_types
            )));
        }
        if at_index < self.emitted {
            return Err(CepError::InvalidQuery(format!(
                "cannot swap patterns at window {at_index}: {} already emitted",
                self.emitted
            )));
        }
        if let Some((last_at, _)) = self.pending.back() {
            if at_index < *last_at {
                return Err(CepError::InvalidQuery(format!(
                    "pattern swaps must be scheduled in order: {at_index} after {last_at}"
                )));
            }
        }
        let prev = self
            .pending
            .back()
            .map(|(_, prepared)| prepared.patterns())
            .unwrap_or(&self.patterns);
        let patterns = swap.patterns();
        if patterns.len() < prev.len()
            || prev
                .iter()
                .any(|(id, p)| patterns.get(id).is_none_or(|q| q != p))
        {
            return Err(CepError::InvalidQuery(
                "a scheduled pattern set must extend the previous one \
                 (ids are stable and append-only)"
                    .into(),
            ));
        }
        self.pending.push_back((at_index, swap));
        Ok(())
    }

    /// Apply every staged swap due at or before the window about to close.
    /// No compilation happens here — the swap carries pre-compiled state.
    fn apply_due_updates(&mut self, index: usize) {
        while self.pending.front().is_some_and(|(at, _)| *at <= index) {
            let (_, swap) = self.pending.pop_front().expect("checked non-empty");
            let swap = Arc::unwrap_or_clone(swap);
            self.compiled = swap.compiled;
            self.conj_masks = swap.conj_masks;
            // persisting patterns keep their open-window NFA state; new
            // ones start fresh
            self.nfa_states.resize(swap.patterns.len(), 0);
            self.patterns = swap.patterns;
        }
    }

    /// Push one event; returns the windows that closed *before* it (empty
    /// windows between events are emitted too, so downstream mechanisms see
    /// the full timeline). Events must arrive in temporal order.
    pub fn push(&mut self, event: &Event) -> Result<Vec<ClosedWindow>, CepError> {
        let mut out = Vec::new();
        self.push_into(event, &mut out)?;
        Ok(out)
    }

    /// Drain-style [`IncrementalDetector::push`]: appends the closed
    /// windows to `out` (which the caller reuses across pushes) and
    /// returns how many were appended. The steady-state path — an event
    /// that closes no window performs no allocation.
    pub fn push_into(
        &mut self,
        event: &Event,
        out: &mut Vec<ClosedWindow>,
    ) -> Result<usize, CepError> {
        if let Some(last) = self.last_ts {
            if event.ts < last {
                return Err(CepError::InvalidQuery(format!(
                    "events must be pushed in order: {} after {}",
                    event.ts, last
                )));
            }
        }
        let closed = self.advance_to_into(event.ts, out)?;
        self.observe(event.ty, event.ts);
        Ok(closed)
    }

    /// Advance the watermark to `ts` without observing an event: every
    /// window that ends at or before `ts`'s window start is closed (empty
    /// gap windows included), and the window containing `ts` becomes the
    /// open one. Events pushed later must not precede `ts`.
    ///
    /// This is how a long-running service flushes windows during quiet
    /// periods (heartbeats), and how a replay driver pins the stream's
    /// logical start/end to window boundaries.
    pub fn advance_to(&mut self, ts: Timestamp) -> Result<Vec<ClosedWindow>, CepError> {
        let mut out = Vec::new();
        self.advance_to_into(ts, &mut out)?;
        Ok(out)
    }

    /// Drain-style [`IncrementalDetector::advance_to`]; appends to `out`
    /// and returns the number of windows closed.
    pub fn advance_to_into(
        &mut self,
        ts: Timestamp,
        out: &mut Vec<ClosedWindow>,
    ) -> Result<usize, CepError> {
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(CepError::InvalidQuery(format!(
                    "watermark must not regress: got {ts}, already at {last}"
                )));
            }
        }
        self.last_ts = Some(ts);
        let grid = ts.window_index(self.window_len);
        let mut closed = 0usize;
        match self.open_window {
            None => self.open_window = Some(grid),
            Some(open) if grid > open => {
                out.push(self.close_current(open));
                closed += 1;
                for empty in (open + 1)..grid {
                    out.push(self.close_current(empty));
                    closed += 1;
                }
                self.open_window = Some(grid);
            }
            _ => {}
        }
        Ok(closed)
    }

    /// Flush the open window (end of stream).
    pub fn finish(&mut self) -> Option<ClosedWindow> {
        let open = self.open_window.take()?;
        Some(self.close_current(open))
    }

    /// Number of windows emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    fn observe(&mut self, ty: EventType, ts: Timestamp) {
        self.present.set(ty, true);
        match self.semantics {
            Semantics::Ordered => {
                for (k, (id, _)) in self.patterns.iter().enumerate() {
                    let cp = self.compiled.get(id).expect("compiled in lockstep");
                    self.nfa_states[k] = cp.nfa.advance(self.nfa_states[k], &[ty]);
                }
            }
            // conjunction detection reads the shared presence bits directly
            Semantics::Conjunction => {}
            Semantics::OrderedWithin(_) => {
                self.timed.push((ty, ts));
            }
        }
    }

    /// Plain-data snapshot of the detector's exact state: the open
    /// window's accumulated presence/NFA/timed state, the emit frontier
    /// and every staged (not yet activated) pattern swap. Compiled
    /// artifacts (NFAs, conjunction masks) are **not** captured — they are
    /// a deterministic function of the pattern set and are rebuilt by
    /// [`IncrementalDetector::restore`].
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            patterns: self.patterns.clone(),
            semantics: self.semantics,
            window_len: self.window_len,
            n_types: self.n_types,
            open_window: self.open_window,
            emitted: self.emitted,
            nfa_states: self.nfa_states.clone(),
            present: self.present.clone(),
            timed: self.timed.clone(),
            last_ts: self.last_ts,
            pending: self
                .pending
                .iter()
                .map(|(at, swap)| (*at, swap.patterns().clone()))
                .collect(),
        }
    }

    /// Rebuild a detector from an [`IncrementalDetector::snapshot`]: the
    /// pattern set is recompiled, the open-window state is restored
    /// verbatim, and staged swaps are re-scheduled — the restored detector
    /// closes the same windows with the same detections as the original.
    pub fn restore(snapshot: DetectorSnapshot) -> Result<Self, CepError> {
        let mut det = IncrementalDetector::new(
            snapshot.patterns,
            snapshot.semantics,
            snapshot.window_len,
            snapshot.n_types,
        )?;
        if snapshot.nfa_states.len() != det.patterns.len() {
            return Err(CepError::InvalidQuery(format!(
                "snapshot carries {} NFA states for {} patterns",
                snapshot.nfa_states.len(),
                det.patterns.len()
            )));
        }
        if snapshot.present.n_types() != snapshot.n_types {
            return Err(CepError::InvalidQuery(format!(
                "snapshot presence width {} does not match {} types",
                snapshot.present.n_types(),
                snapshot.n_types
            )));
        }
        det.open_window = snapshot.open_window;
        det.emitted = snapshot.emitted;
        det.nfa_states = snapshot.nfa_states;
        det.present = snapshot.present;
        det.timed = snapshot.timed;
        det.last_ts = snapshot.last_ts;
        // staged swaps re-enter through the validating schedule path (every
        // pending swap targets `at >= emitted`, so re-staging is legal)
        for (at, set) in snapshot.pending {
            det.schedule_pattern_update(at, set)?;
        }
        Ok(det)
    }

    fn close_current(&mut self, grid: i64) -> ClosedWindow {
        // epoch activation point: swaps staged for this window's index (or
        // earlier) take effect before its detections are computed, so the
        // switch lands on the same window no matter how pushes, heartbeats
        // and gap closes interleave
        self.apply_due_updates(self.emitted);
        let detections = match self.semantics {
            Semantics::Ordered => self
                .patterns
                .iter()
                .enumerate()
                .map(|(k, (id, _))| {
                    let cp = self.compiled.get(id).expect("compiled in lockstep");
                    cp.nfa.is_accepting(self.nfa_states[k])
                })
                .collect(),
            Semantics::Conjunction => self
                .conj_masks
                .iter()
                .map(|mask| mask.matches(&self.present))
                .collect(),
            Semantics::OrderedWithin(_) => self
                .patterns
                .iter()
                .map(|(id, _)| {
                    let cp = self.compiled.get(id).expect("compiled in lockstep");
                    cp.nfa
                        .min_span(&self.timed)
                        .is_some_and(|best| match self.semantics {
                            Semantics::OrderedWithin(span) => best <= span,
                            _ => unreachable!("arm guarded by outer match"),
                        })
                })
                .collect(),
        };
        // reset per-window state; the presence bits move into the row
        self.nfa_states.iter_mut().for_each(|s| *s = 0);
        let presence = std::mem::replace(&mut self.present, IndicatorVector::empty(self.n_types));
        self.timed.clear();
        let index = self.emitted;
        self.emitted += 1;
        ClosedWindow {
            index,
            start: Timestamp::from_millis(grid * self.window_len.millis()),
            detections,
            presence,
        }
    }
}

/// The exact state of an [`IncrementalDetector`], as plain data (see
/// [`IncrementalDetector::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorSnapshot {
    /// The active pattern set (recompiled on restore).
    pub patterns: PatternSet,
    /// Matching semantics.
    pub semantics: Semantics,
    /// Tumbling window length.
    pub window_len: TimeDelta,
    /// Width of the type universe.
    pub n_types: usize,
    /// Grid index of the open window.
    pub open_window: Option<i64>,
    /// Number of windows emitted.
    pub emitted: usize,
    /// Ordered semantics: per-pattern NFA state in pattern order.
    pub nfa_states: Vec<usize>,
    /// Per-type presence of the open window.
    pub present: IndicatorVector,
    /// OrderedWithin semantics: the open window's timestamped events.
    pub timed: Vec<(EventType, Timestamp)>,
    /// The last observed timestamp/watermark.
    pub last_ts: Option<Timestamp>,
    /// Staged pattern swaps as `(activation index, pattern set)`,
    /// ascending (recompiled and re-staged on restore).
    pub pending: Vec<(usize, PatternSet)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::Detector;
    use crate::pattern::Pattern;
    use pdp_stream::{EventStream, WindowAssigner};
    use proptest::prelude::*;

    fn t(i: u32) -> EventType {
        EventType(i)
    }

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(t(ty), Timestamp::from_millis(ms))
    }

    fn patterns() -> PatternSet {
        let mut set = PatternSet::new();
        set.insert(Pattern::seq("ab", vec![t(0), t(1)]).unwrap());
        set.insert(Pattern::single("c", t(2)));
        set
    }

    #[test]
    fn emits_on_window_close_including_gaps() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        assert!(det.push(&e(0, 1)).unwrap().is_empty());
        assert!(det.push(&e(1, 5)).unwrap().is_empty());
        // jumping to t=35 closes window 0 and two empty windows
        let closed = det.push(&e(2, 35)).unwrap();
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].detections, vec![true, false]);
        assert_eq!(closed[1].detections, vec![false, false]);
        assert_eq!(closed[2].detections, vec![false, false]);
        let last = det.finish().unwrap();
        assert_eq!(last.detections, vec![false, true]);
        assert_eq!(det.emitted(), 4);
        assert!(det.finish().is_none());
    }

    #[test]
    fn presence_rows_are_packed_vectors() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 1)).unwrap();
        det.push(&e(2, 4)).unwrap();
        let row = det.finish().unwrap();
        assert_eq!(row.presence, IndicatorVector::from_present([t(0), t(2)], 3));
    }

    #[test]
    fn push_into_reuses_the_callers_buffer() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        let mut out = Vec::new();
        assert_eq!(det.push_into(&e(0, 1), &mut out).unwrap(), 0);
        assert_eq!(det.push_into(&e(2, 25), &mut out).unwrap(), 2);
        assert_eq!(det.push_into(&e(2, 35), &mut out).unwrap(), 1);
        assert_eq!(out.len(), 3, "appended, not replaced");
        assert_eq!(out[0].index, 0);
        assert_eq!(out[2].index, 2);
    }

    #[test]
    fn advance_to_closes_quiet_windows() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        // watermark before any event pins the logical stream start
        assert!(det.advance_to(Timestamp::ZERO).unwrap().is_empty());
        det.push(&e(0, 1)).unwrap();
        det.push(&e(1, 5)).unwrap();
        // heartbeat to t=30 closes window 0 (detected) and two empty ones
        let closed = det.advance_to(Timestamp::from_millis(30)).unwrap();
        assert_eq!(closed.len(), 3);
        assert_eq!(closed[0].detections, vec![true, false]);
        assert_eq!(closed[1].detections, vec![false, false]);
        assert_eq!(closed[2].detections, vec![false, false]);
        // same-window watermark is a no-op
        assert!(det
            .advance_to(Timestamp::from_millis(35))
            .unwrap()
            .is_empty());
        // regressing watermark and pre-watermark events are rejected
        assert!(det.advance_to(Timestamp::from_millis(20)).is_err());
        assert!(det.push(&e(0, 29)).is_err());
        assert!(det.push(&e(0, 35)).is_ok());
    }

    #[test]
    fn rejects_out_of_order_events() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 5)).unwrap();
        assert!(det.push(&e(0, 3)).is_err());
    }

    #[test]
    fn conjunction_semantics_ignore_order() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(1, 1)).unwrap();
        det.push(&e(0, 2)).unwrap();
        let w = det.finish().unwrap();
        assert_eq!(w.detections, vec![true, false]);
    }

    #[test]
    fn conjunction_with_out_of_universe_type_never_detects() {
        // a conjunct outside the type universe is unsatisfiable: the
        // precompiled mask must answer false, not vacuously true
        let mut set = PatternSet::new();
        set.insert(Pattern::seq("ghost", vec![t(0), t(9)]).unwrap());
        let mut det =
            IncrementalDetector::new(set, Semantics::Conjunction, TimeDelta::from_millis(10), 3)
                .unwrap();
        det.push(&e(0, 1)).unwrap();
        det.push(&e(1, 2)).unwrap();
        let w = det.finish().unwrap();
        assert_eq!(w.detections, vec![false]);
    }

    #[test]
    fn ordered_within_semantics_incremental() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::OrderedWithin(TimeDelta::from_millis(3)),
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 1)).unwrap();
        det.push(&e(1, 9)).unwrap(); // span 8 > 3
        let w0 = det.push(&e(0, 11)).unwrap();
        assert_eq!(w0[0].detections, vec![false, false]);
        det.push(&e(1, 13)).unwrap(); // span 2 ≤ 3
        let w1 = det.finish().unwrap();
        assert_eq!(w1.detections, vec![true, false]);
    }

    #[test]
    fn invalid_window_rejected() {
        assert!(
            IncrementalDetector::new(patterns(), Semantics::Ordered, TimeDelta::ZERO, 3).is_err()
        );
    }

    #[test]
    fn scheduled_pattern_update_lands_on_its_window() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        let mut grown = patterns();
        grown.insert(Pattern::single("d", t(1)));
        det.schedule_pattern_update(1, grown).unwrap();
        // window 0 closes under the old set: two detection flags
        det.push(&e(1, 2)).unwrap();
        let closed = det.push(&e(1, 12)).unwrap();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].detections, vec![false, false]);
        // window 1 closes under the grown set: three flags, new one hit
        let w1 = det.finish().unwrap();
        assert_eq!(w1.index, 1);
        assert_eq!(w1.detections, vec![false, false, true]);
    }

    #[test]
    fn scheduled_update_preserves_open_window_state() {
        // the swap must not lose presence accumulated in the open window
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 1)).unwrap();
        let mut grown = patterns();
        grown.insert(Pattern::seq("ab2", vec![t(0), t(1)]).unwrap());
        det.schedule_pattern_update(0, grown).unwrap();
        det.push(&e(1, 3)).unwrap(); // same window, after the schedule
        let w0 = det.finish().unwrap();
        // both events present; old pattern "ab" and new "ab2" both detect
        assert_eq!(w0.detections, vec![true, false, true]);
        assert_eq!(w0.presence, IndicatorVector::from_present([t(0), t(1)], 3));
    }

    #[test]
    fn scheduled_update_applies_to_gap_windows_too() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        let mut grown = patterns();
        grown.insert(Pattern::single("d", t(1)));
        det.push(&e(0, 1)).unwrap();
        det.schedule_pattern_update(2, grown).unwrap();
        // one advance closes windows 0 (old set), 1 (old set), 2, 3 (new)
        let closed = det.advance_to(Timestamp::from_millis(45)).unwrap();
        assert_eq!(closed.len(), 4);
        assert_eq!(closed[0].detections.len(), 2);
        assert_eq!(closed[1].detections.len(), 2);
        assert_eq!(closed[2].detections.len(), 3);
        assert_eq!(closed[3].detections.len(), 3);
    }

    #[test]
    fn scheduled_update_validation() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 1)).unwrap();
        det.push(&e(0, 25)).unwrap(); // windows 0 and 1 emitted
                                      // behind the emit frontier
        assert!(det.schedule_pattern_update(1, patterns()).is_err());
        // a shrunk set does not extend the previous one
        let shrunk = {
            let mut s = PatternSet::new();
            s.insert(Pattern::seq("ab", vec![t(0), t(1)]).unwrap());
            s
        };
        assert!(det.schedule_pattern_update(3, shrunk).is_err());
        // a mutated pattern under an existing id is rejected
        let mutated = {
            let mut s = PatternSet::new();
            s.insert(Pattern::seq("ab", vec![t(0), t(2)]).unwrap());
            s.insert(Pattern::single("c", t(2)));
            s
        };
        assert!(det.schedule_pattern_update(3, mutated).is_err());
        // staged swaps must not regress
        det.schedule_pattern_update(4, patterns()).unwrap();
        assert!(det.schedule_pattern_update(3, patterns()).is_err());
        assert!(det.schedule_pattern_update(4, patterns()).is_ok());
    }

    #[test]
    fn prepared_swap_shared_across_detectors_matches_inline_schedule() {
        // one compile, shared by Arc across two detectors, must be
        // indistinguishable from each detector compiling its own swap
        let mut grown = patterns();
        grown.insert(Pattern::single("d", t(1)));
        let shared = Arc::new(PreparedPatternSwap::prepare(grown.clone(), 3));

        let mk = || {
            IncrementalDetector::new(
                patterns(),
                Semantics::Conjunction,
                TimeDelta::from_millis(10),
                3,
            )
            .unwrap()
        };
        let mut inline = mk();
        inline.schedule_pattern_update(1, grown).unwrap();
        let mut shared_a = mk();
        shared_a
            .schedule_prepared_update(1, shared.clone())
            .unwrap();
        let mut shared_b = mk();
        shared_b.schedule_prepared_update(1, shared).unwrap();

        for det in [&mut inline, &mut shared_a, &mut shared_b] {
            det.push(&e(1, 2)).unwrap();
            det.push(&e(1, 12)).unwrap();
        }
        let want = inline.finish().unwrap();
        assert_eq!(shared_a.finish().unwrap(), want);
        assert_eq!(shared_b.finish().unwrap(), want);
    }

    #[test]
    fn snapshot_round_trip_mid_window_and_mid_swap() {
        // capture with an open window, accumulated state and a staged
        // swap; the restored detector must finish the stream identically
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        det.push(&e(0, 1)).unwrap();
        det.push(&e(0, 12)).unwrap(); // window 0 emitted, window 1 open
        let mut grown = patterns();
        grown.insert(Pattern::single("d", t(1)));
        det.schedule_pattern_update(3, grown).unwrap();
        det.push(&e(1, 14)).unwrap(); // mid-window NFA progress

        let snap = det.snapshot();
        let mut restored = IncrementalDetector::restore(snap.clone()).unwrap();
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.emitted(), det.emitted());
        // drive both to the end across the staged swap's activation
        for ev in [e(2, 21), e(1, 38)] {
            let a = det.push(&ev).unwrap();
            let b = restored.push(&ev).unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(det.finish(), restored.finish());
    }

    #[test]
    fn snapshot_restore_rejects_inconsistent_state() {
        let det = IncrementalDetector::new(
            patterns(),
            Semantics::Ordered,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        let mut bad = det.snapshot();
        bad.nfa_states.push(0);
        assert!(IncrementalDetector::restore(bad).is_err());
        let mut bad = det.snapshot();
        bad.present = IndicatorVector::empty(4);
        assert!(IncrementalDetector::restore(bad).is_err());
    }

    #[test]
    fn prepared_swap_rejects_mismatched_type_universe() {
        let mut det = IncrementalDetector::new(
            patterns(),
            Semantics::Conjunction,
            TimeDelta::from_millis(10),
            3,
        )
        .unwrap();
        let swap = Arc::new(PreparedPatternSwap::prepare(patterns(), 4));
        assert!(det.schedule_prepared_update(0, swap).is_err());
    }

    proptest! {
        /// Incremental detection agrees with the batch detector on random
        /// streams, for all three semantics.
        #[test]
        fn matches_batch_detector(
            events in proptest::collection::vec((0u32..3, 0i64..200), 1..60),
            variant in 0u8..3,
            span_ms in 0i64..30,
        ) {
            let semantics = match variant {
                0 => Semantics::Ordered,
                1 => Semantics::Conjunction,
                _ => Semantics::OrderedWithin(TimeDelta::from_millis(span_ms)),
            };
            let stream = EventStream::from_unordered(
                events.iter().map(|&(ty, ms)| e(ty, ms)).collect(),
            );
            let assigner = WindowAssigner::tumbling(TimeDelta::from_millis(25)).unwrap();
            let batch = Detector::new(patterns(), semantics).detect_stream(&stream, &assigner);

            let mut inc = IncrementalDetector::new(
                patterns(), semantics, TimeDelta::from_millis(25), 3,
            ).unwrap();
            let mut rows = Vec::new();
            for ev in stream.iter() {
                inc.push_into(ev, &mut rows).unwrap();
            }
            if let Some(last) = inc.finish() {
                rows.push(last);
            }
            prop_assert_eq!(rows.len(), batch.n_windows());
            for (w, row) in rows.iter().enumerate() {
                for p in 0..2u32 {
                    prop_assert_eq!(
                        row.detections[p as usize],
                        batch.get(w, crate::pattern::PatternId(p)),
                        "window {} pattern {}", w, p
                    );
                }
            }
        }
    }
}
