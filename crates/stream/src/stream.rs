//! Event streams: ordered sequences of events.
//!
//! [`EventStream`] is the in-memory, temporally ordered event sequence
//! `S_E = (e_1, e_2, …)` of §III-A.

use crate::error::StreamError;
use crate::event::Event;
use crate::time::Timestamp;

/// An in-memory, temporally ordered event stream.
///
/// Events must be appended in non-decreasing timestamp order; equal
/// timestamps are allowed and their relative order is arbitrary (the paper
/// notes this order "has no influence on any discussion").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventStream {
    events: Vec<Event>,
}

impl EventStream {
    /// An empty stream.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build a stream from events that are already temporally ordered.
    ///
    /// Returns [`StreamError::OutOfOrder`] if ordering is violated.
    pub fn from_ordered(events: Vec<Event>) -> Result<Self, StreamError> {
        for pair in events.windows(2) {
            if pair[1].ts < pair[0].ts {
                return Err(StreamError::OutOfOrder {
                    last: pair[0].ts.millis(),
                    got: pair[1].ts.millis(),
                });
            }
        }
        Ok(EventStream { events })
    }

    /// Build a stream from arbitrary events by stable-sorting on timestamp.
    pub fn from_unordered(mut events: Vec<Event>) -> Self {
        events.sort_by_key(|e| e.ts);
        EventStream { events }
    }

    /// Append an event, enforcing temporal order.
    pub fn push(&mut self, event: Event) -> Result<(), StreamError> {
        if let Some(last) = self.events.last() {
            if event.ts < last.ts {
                return Err(StreamError::OutOfOrder {
                    last: last.ts.millis(),
                    got: event.ts.millis(),
                });
            }
        }
        self.events.push(event);
        Ok(())
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if the stream holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Borrow the events in temporal order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consume the stream, yielding its events.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Iterate over the events.
    pub fn iter(&self) -> std::slice::Iter<'_, Event> {
        self.events.iter()
    }

    /// Timestamp of the first event, if any.
    pub fn start(&self) -> Option<Timestamp> {
        self.events.first().map(|e| e.ts)
    }

    /// Timestamp of the last event, if any.
    pub fn end(&self) -> Option<Timestamp> {
        self.events.last().map(|e| e.ts)
    }

    /// Sub-stream of events with `ts ∈ [from, to)`.
    ///
    /// Binary-searches the boundaries, so slicing is `O(log n + k)`.
    pub fn slice(&self, from: Timestamp, to: Timestamp) -> &[Event] {
        let lo = self.events.partition_point(|e| e.ts < from);
        let hi = self.events.partition_point(|e| e.ts < to);
        &self.events[lo..hi]
    }
}

impl IntoIterator for EventStream {
    type Item = Event;
    type IntoIter = std::vec::IntoIter<Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.into_iter()
    }
}

impl<'a> IntoIterator for &'a EventStream {
    type Item = &'a Event;
    type IntoIter = std::slice::Iter<'a, Event>;
    fn into_iter(self) -> Self::IntoIter {
        self.events.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventType;
    use proptest::prelude::*;

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(EventType(ty), Timestamp::from_millis(ms))
    }

    #[test]
    fn push_enforces_order() {
        let mut s = EventStream::new();
        s.push(e(0, 5)).unwrap();
        s.push(e(1, 5)).unwrap(); // ties allowed
        s.push(e(2, 6)).unwrap();
        assert!(matches!(
            s.push(e(3, 4)),
            Err(StreamError::OutOfOrder { last: 6, got: 4 })
        ));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn from_ordered_rejects_disorder() {
        assert!(EventStream::from_ordered(vec![e(0, 2), e(0, 1)]).is_err());
        assert!(EventStream::from_ordered(vec![e(0, 1), e(0, 2)]).is_ok());
    }

    #[test]
    fn from_unordered_sorts_stably() {
        let s = EventStream::from_unordered(vec![e(2, 3), e(0, 1), e(1, 3)]);
        let tys: Vec<u32> = s.iter().map(|ev| ev.ty.0).collect();
        // stable: type 2 (ts 3) stays before type 1 (ts 3)
        assert_eq!(tys, [0, 2, 1]);
    }

    #[test]
    fn slice_is_half_open() {
        let s = EventStream::from_ordered(vec![e(0, 0), e(1, 5), e(2, 10), e(3, 10), e(4, 15)])
            .unwrap();
        let mid = s.slice(Timestamp::from_millis(5), Timestamp::from_millis(10));
        assert_eq!(mid.len(), 1);
        assert_eq!(mid[0].ty, EventType(1));
        let at10 = s.slice(Timestamp::from_millis(10), Timestamp::from_millis(11));
        assert_eq!(at10.len(), 2);
    }

    #[test]
    fn start_end_and_counts() {
        let s = EventStream::from_ordered(vec![e(0, 1), e(0, 4), e(1, 9)]).unwrap();
        assert_eq!(s.start(), Some(Timestamp::from_millis(1)));
        assert_eq!(s.end(), Some(Timestamp::from_millis(9)));
        assert!(EventStream::new().start().is_none());
    }

    proptest! {
        #[test]
        fn from_unordered_always_ordered(ms in proptest::collection::vec(-1000i64..1000, 0..50)) {
            let events: Vec<Event> = ms.iter().map(|&m| e(0, m)).collect();
            let s = EventStream::from_unordered(events);
            for pair in s.events().windows(2) {
                prop_assert!(pair[0].ts <= pair[1].ts);
            }
        }

        #[test]
        fn slice_contains_exactly_range(ms in proptest::collection::vec(0i64..100, 0..60),
                                        from in 0i64..100, len in 0i64..100) {
            let s = EventStream::from_unordered(ms.iter().map(|&m| e(0, m)).collect());
            let to = from + len;
            let sliced = s.slice(Timestamp::from_millis(from), Timestamp::from_millis(to));
            let expected = s.events().iter()
                .filter(|ev| ev.ts.millis() >= from && ev.ts.millis() < to)
                .count();
            prop_assert_eq!(sliced.len(), expected);
        }
    }
}
