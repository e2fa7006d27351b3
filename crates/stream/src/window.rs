//! Windows: finite scopes over infinite streams.
//!
//! The paper's mechanisms and its synthetic dataset (Algorithm 2) both work
//! per window: "we regard each Lm as a collection of events that detected
//! within a window". Tumbling windows are the default evaluation scope;
//! sliding and count windows are provided for the CEP engine and the w-event
//! baselines (whose guarantee spans any `w` successive timestamps).

use crate::error::StreamError;
use crate::event::Event;
use crate::stream::EventStream;
use crate::time::{TimeDelta, Timestamp};

/// A concrete window instance: `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Window {
    /// Sequential index of the window in its assignment.
    pub index: usize,
    /// Inclusive start.
    pub start: Timestamp,
    /// Exclusive end.
    pub end: Timestamp,
}

impl Window {
    /// True if `ts` falls inside `[start, end)`.
    pub fn contains(&self, ts: Timestamp) -> bool {
        self.start <= ts && ts < self.end
    }

    /// The window's span.
    pub fn len(&self) -> TimeDelta {
        self.end - self.start
    }

    /// True for degenerate (empty) spans.
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Window policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// Back-to-back windows of fixed length.
    Tumbling {
        /// Window length.
        len: TimeDelta,
    },
    /// Overlapping windows of fixed length advancing by `slide`.
    Sliding {
        /// Window length.
        len: TimeDelta,
        /// Advance between consecutive windows; must satisfy
        /// `0 < slide ≤ len`.
        slide: TimeDelta,
    },
    /// Windows of a fixed number of events (timestamps are ignored).
    Count {
        /// Events per window.
        size: usize,
    },
    /// Session windows: maximal runs of events whose inter-event gap stays
    /// below `gap` (a new session starts when the stream goes quiet for at
    /// least `gap`).
    Session {
        /// Minimum silence that closes a session.
        gap: TimeDelta,
    },
}

/// Assigns events of a stream to windows.
#[derive(Debug, Clone, Copy)]
pub struct WindowAssigner {
    kind: WindowKind,
}

impl WindowAssigner {
    /// Create an assigner, validating the policy.
    pub fn new(kind: WindowKind) -> Result<Self, StreamError> {
        match kind {
            WindowKind::Tumbling { len } if !len.is_positive() => Err(StreamError::InvalidWindow(
                "tumbling length must be positive".into(),
            )),
            WindowKind::Sliding { len, slide } if !len.is_positive() || !slide.is_positive() => {
                Err(StreamError::InvalidWindow(
                    "sliding length and slide must be positive".into(),
                ))
            }
            WindowKind::Sliding { len, slide } if slide > len => Err(StreamError::InvalidWindow(
                "slide must not exceed window length".into(),
            )),
            WindowKind::Count { size: 0 } => Err(StreamError::InvalidWindow(
                "count window size must be positive".into(),
            )),
            WindowKind::Session { gap } if !gap.is_positive() => Err(StreamError::InvalidWindow(
                "session gap must be positive".into(),
            )),
            _ => Ok(WindowAssigner { kind }),
        }
    }

    /// Convenience constructor for session windows.
    pub fn session(gap: TimeDelta) -> Result<Self, StreamError> {
        Self::new(WindowKind::Session { gap })
    }

    /// Convenience constructor for tumbling windows.
    pub fn tumbling(len: TimeDelta) -> Result<Self, StreamError> {
        Self::new(WindowKind::Tumbling { len })
    }

    /// Convenience constructor for sliding windows.
    pub fn sliding(len: TimeDelta, slide: TimeDelta) -> Result<Self, StreamError> {
        Self::new(WindowKind::Sliding { len, slide })
    }

    /// Convenience constructor for count windows.
    pub fn count(size: usize) -> Result<Self, StreamError> {
        Self::new(WindowKind::Count { size })
    }

    /// The policy this assigner applies.
    pub fn kind(&self) -> WindowKind {
        self.kind
    }

    /// Assign all events of `stream` to windows.
    ///
    /// Returns `(window, events)` pairs in window order. Windows that would
    /// contain no events are still emitted for tumbling/sliding policies when
    /// they fall between occupied windows (the DP mechanisms must see empty
    /// windows: an absent pattern is exactly what randomized response may
    /// flip into a present one).
    pub fn assign(&self, stream: &EventStream) -> Vec<(Window, Vec<Event>)> {
        match self.kind {
            WindowKind::Tumbling { len } => self.assign_tumbling(stream, len),
            WindowKind::Sliding { len, slide } => self.assign_sliding(stream, len, slide),
            WindowKind::Count { size } => self.assign_count(stream, size),
            WindowKind::Session { gap } => self.assign_session(stream, gap),
        }
    }

    fn assign_session(&self, stream: &EventStream, gap: TimeDelta) -> Vec<(Window, Vec<Event>)> {
        let mut out: Vec<(Window, Vec<Event>)> = Vec::new();
        let mut current: Vec<Event> = Vec::new();
        for e in stream.iter() {
            if let Some(last) = current.last() {
                if e.ts - last.ts >= gap {
                    out.push(Self::close_session(out.len(), std::mem::take(&mut current)));
                }
            }
            current.push(e.clone());
        }
        if !current.is_empty() {
            out.push(Self::close_session(out.len(), current));
        }
        out
    }

    fn close_session(index: usize, events: Vec<Event>) -> (Window, Vec<Event>) {
        let start = events.first().map(|e| e.ts).unwrap_or(Timestamp::ZERO);
        let end = events
            .last()
            .map(|e| e.ts + TimeDelta::from_millis(1))
            .unwrap_or(Timestamp::ZERO);
        (Window { index, start, end }, events)
    }

    fn assign_tumbling(&self, stream: &EventStream, len: TimeDelta) -> Vec<(Window, Vec<Event>)> {
        let (first, last) = match (stream.start(), stream.end()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Vec::new(),
        };
        let k0 = first.window_index(len);
        let k1 = last.window_index(len);
        let mut out = Vec::with_capacity((k1 - k0 + 1) as usize);
        for (i, k) in (k0..=k1).enumerate() {
            let start = Timestamp::from_millis(k * len.millis());
            let end = start + len;
            let events = stream.slice(start, end).to_vec();
            out.push((
                Window {
                    index: i,
                    start,
                    end,
                },
                events,
            ));
        }
        out
    }

    fn assign_sliding(
        &self,
        stream: &EventStream,
        len: TimeDelta,
        slide: TimeDelta,
    ) -> Vec<(Window, Vec<Event>)> {
        let (first, last) = match (stream.start(), stream.end()) {
            (Some(a), Some(b)) => (a, b),
            _ => return Vec::new(),
        };
        // First window start: aligned to slide grid, at or before `first`.
        let k0 = first.millis().div_euclid(slide.millis());
        let mut out = Vec::new();
        let mut index = 0;
        let mut start_ms = k0 * slide.millis();
        while start_ms <= last.millis() {
            let start = Timestamp::from_millis(start_ms);
            let end = start + len;
            let events = stream.slice(start, end).to_vec();
            out.push((Window { index, start, end }, events));
            index += 1;
            start_ms += slide.millis();
        }
        out
    }

    fn assign_count(&self, stream: &EventStream, size: usize) -> Vec<(Window, Vec<Event>)> {
        stream
            .events()
            .chunks(size)
            .enumerate()
            .map(|(index, chunk)| {
                let start = chunk.first().map(|e| e.ts).unwrap_or(Timestamp::ZERO);
                let end = chunk
                    .last()
                    .map(|e| e.ts + TimeDelta::from_millis(1))
                    .unwrap_or(Timestamp::ZERO);
                (Window { index, start, end }, chunk.to_vec())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventType;
    use proptest::prelude::*;

    fn e(ms: i64) -> Event {
        Event::new(EventType(0), Timestamp::from_millis(ms))
    }

    fn stream(ms: &[i64]) -> EventStream {
        EventStream::from_unordered(ms.iter().map(|&m| e(m)).collect())
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(WindowAssigner::tumbling(TimeDelta::ZERO).is_err());
        assert!(
            WindowAssigner::sliding(TimeDelta::from_millis(5), TimeDelta::from_millis(10)).is_err()
        );
        assert!(WindowAssigner::sliding(TimeDelta::from_millis(5), TimeDelta::ZERO).is_err());
        assert!(WindowAssigner::count(0).is_err());
        assert!(WindowAssigner::count(3).is_ok());
    }

    #[test]
    fn tumbling_covers_gaps_with_empty_windows() {
        let a = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let ws = a.assign(&stream(&[1, 35]));
        assert_eq!(ws.len(), 4); // windows [0,10) [10,20) [20,30) [30,40)
        assert_eq!(ws[0].1.len(), 1);
        assert!(ws[1].1.is_empty());
        assert!(ws[2].1.is_empty());
        assert_eq!(ws[3].1.len(), 1);
        assert_eq!(ws[3].0.start, Timestamp::from_millis(30));
    }

    #[test]
    fn tumbling_boundaries_are_half_open() {
        let a = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        let ws = a.assign(&stream(&[9, 10]));
        assert_eq!(ws.len(), 2);
        assert_eq!(ws[0].1.len(), 1);
        assert_eq!(ws[1].1.len(), 1);
    }

    #[test]
    fn sliding_windows_overlap() {
        let a =
            WindowAssigner::sliding(TimeDelta::from_millis(10), TimeDelta::from_millis(5)).unwrap();
        let ws = a.assign(&stream(&[0, 7, 12]));
        // starts at 0, 5, 10 (last start ≤ 12)
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].1.len(), 2); // [0,10): 0,7
        assert_eq!(ws[1].1.len(), 2); // [5,15): 7,12
        assert_eq!(ws[2].1.len(), 1); // [10,20): 12
    }

    #[test]
    fn count_windows_chunk_events() {
        let a = WindowAssigner::count(2).unwrap();
        let ws = a.assign(&stream(&[1, 2, 3, 4, 5]));
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].1.len(), 2);
        assert_eq!(ws[2].1.len(), 1);
        assert_eq!(ws[1].0.index, 1);
    }

    #[test]
    fn session_windows_split_on_gaps() {
        let a = WindowAssigner::session(TimeDelta::from_millis(10)).unwrap();
        let ws = a.assign(&stream(&[0, 3, 5, 20, 22, 50]));
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].1.len(), 3); // 0,3,5
        assert_eq!(ws[1].1.len(), 2); // 20,22
        assert_eq!(ws[2].1.len(), 1); // 50
        assert_eq!(ws[1].0.start, Timestamp::from_millis(20));
        assert_eq!(ws[1].0.index, 1);
    }

    #[test]
    fn session_gap_boundary_is_exclusive() {
        // gap of exactly `gap` closes the session; below it does not
        let a = WindowAssigner::session(TimeDelta::from_millis(10)).unwrap();
        assert_eq!(a.assign(&stream(&[0, 9])).len(), 1);
        assert_eq!(a.assign(&stream(&[0, 10])).len(), 2);
    }

    #[test]
    fn session_requires_positive_gap() {
        assert!(WindowAssigner::session(TimeDelta::ZERO).is_err());
    }

    #[test]
    fn empty_stream_yields_no_windows() {
        let a = WindowAssigner::tumbling(TimeDelta::from_millis(10)).unwrap();
        assert!(a.assign(&EventStream::new()).is_empty());
    }

    #[test]
    fn window_contains_and_len() {
        let w = Window {
            index: 0,
            start: Timestamp::from_millis(10),
            end: Timestamp::from_millis(20),
        };
        assert!(w.contains(Timestamp::from_millis(10)));
        assert!(w.contains(Timestamp::from_millis(19)));
        assert!(!w.contains(Timestamp::from_millis(20)));
        assert_eq!(w.len(), TimeDelta::from_millis(10));
        assert!(!w.is_empty());
    }

    proptest! {
        #[test]
        fn tumbling_partitions_every_event(
            ms in proptest::collection::vec(0i64..500, 1..80),
            len in 1i64..60,
        ) {
            let s = stream(&ms);
            let a = WindowAssigner::tumbling(TimeDelta::from_millis(len)).unwrap();
            let ws = a.assign(&s);
            // every event lands in exactly one window
            let total: usize = ws.iter().map(|(_, ev)| ev.len()).sum();
            prop_assert_eq!(total, s.len());
            for (w, evs) in &ws {
                for ev in evs {
                    prop_assert!(w.contains(ev.ts));
                }
            }
            // windows tile without gaps
            for pair in ws.windows(2) {
                prop_assert_eq!(pair[0].0.end, pair[1].0.start);
            }
        }

        #[test]
        fn count_windows_preserve_order_and_total(
            ms in proptest::collection::vec(0i64..500, 0..80),
            size in 1usize..10,
        ) {
            let s = stream(&ms);
            let a = WindowAssigner::count(size).unwrap();
            let ws = a.assign(&s);
            let total: usize = ws.iter().map(|(_, ev)| ev.len()).sum();
            prop_assert_eq!(total, s.len());
            for (_, evs) in &ws {
                prop_assert!(evs.len() <= size);
            }
        }
    }
}
