//! Bounded out-of-order handling: the reorder buffer.
//!
//! IoT sources deliver late events (radio retries, batching gateways).
//! Downstream components in this workspace require temporal order, so
//! ingestion runs through a [`ReorderBuffer`] with a bounded lateness
//! `max_delay`: an event is released once the watermark — the maximum
//! timestamp seen so far minus `max_delay` — passes it. Events later than
//! the watermark at arrival are counted and dropped (the standard
//! watermark contract).
//!
//! # Structure: a sorted run and a side heap
//!
//! Real arrival order is *nearly* sorted, so pending events live in two
//! tiers, both ordered by `(ts, seq)` where `seq` is the arrival number:
//!
//! * the **run**, a `VecDeque` kept ascending. An arrival at or after the
//!   tail is a `push_back`; an arrival with at most `SHIFT_LIMIT` later
//!   entries before it is found by scanning back from the tail and
//!   inserted after every entry with a timestamp `≤` its own — it carries
//!   the largest `seq` so far, so its position among equal timestamps *is*
//!   its arrival order;
//! * the **side heap**, a `BinaryHeap` that takes the arrivals displaced
//!   further than that (one probe `SHIFT_LIMIT` slots from the tail tells,
//!   so a scan is only started when it will succeed).
//!
//! Release pops the smaller of (run front, heap top) while its timestamp
//! is `≤` the watermark. Both tiers are `(ts, seq)`-ordered, so that merge
//! emits exactly the `(ts, seq)` order a single heap of all pending events
//! would — which tier an event sat in is unobservable. The drop rule looks
//! only at `max_seen`, never at the tiers. Released sequence, drop count,
//! [`ReorderBuffer::pending`], [`ReorderBuffer::watermark`] and
//! [`ReorderBuffer::snapshot`] are therefore those of the all-heap buffer
//! this structure replaced, which is kept as the reference model of this
//! module's tests.
//!
//! # The batch law
//!
//! [`ReorderBuffer::push_batch_into`] accepts every event of a batch and
//! releases **once**. That is observably identical to pushing the events
//! one by one: a per-event release emits only events `≤` the watermark of
//! that moment, and every event accepted later is `≥` that watermark
//! (else it is dropped — by a rule that does not depend on what has been
//! released), so the concatenation of the per-event releases is the
//! `(ts, seq)`-sorted prefix `≤` the final watermark — what the one
//! deferred release emits. Any split of an arrival sequence into batches
//! gives the same output.
//!
//! # Cost
//!
//! An in-order arrival is one comparison with the tail and a `push_back`;
//! a near-in-order one is at most `SHIFT_LIMIT` comparisons and a
//! `memmove` of at most `SHIFT_LIMIT` entries; one displaced further is
//! two comparisons plus the heap push and pop the all-heap buffer paid on
//! *every* event. No arrival order — and this buffer sits behind the
//! public TCP edge, so it may be a hostile one — costs more than
//! O(`SHIFT_LIMIT` + log pending) per event.
//! `SHIFT_LIMIT` trades the tiers: larger keeps more jitter out of the
//! heap but lengthens the scan and the `memmove` of an insert. At 64
//! slots (3 KiB of entries) an insert stays cheaper than a heap round
//! trip and in-bound sensor jitter never reaches the heap; the repo
//! benchmark's `stream.reorder.ns_per_event` layer metric measures it.

use std::collections::{BinaryHeap, VecDeque};

use crate::event::Event;
use crate::time::{TimeDelta, Timestamp};

/// How many slots back from the run's tail an arrival may be inserted;
/// arrivals displaced further go to the side heap (see the module docs).
const SHIFT_LIMIT: usize = 64;

/// A buffered event, ordered by timestamp, then arrival sequence (stable).
/// The order is *reversed* — `BinaryHeap` is a max-heap and the earliest
/// event must pop first — so "greater" means "released earlier".
#[derive(Debug, Clone)]
struct Pending {
    event: Event,
    seq: u64,
}

impl PartialEq for Pending {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Pending {}
impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .event
            .ts
            .cmp(&self.event.ts)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A watermark-driven reorder buffer with bounded delay.
#[derive(Debug, Default, Clone)]
pub struct ReorderBuffer {
    max_delay: TimeDelta,
    /// Pending events in ascending `(ts, seq)` order.
    run: VecDeque<Pending>,
    /// Pending events that arrived more than [`SHIFT_LIMIT`] slots out of
    /// place.
    heap: BinaryHeap<Pending>,
    max_seen: Option<Timestamp>,
    seq: u64,
    dropped: u64,
}

impl ReorderBuffer {
    /// Tolerate events arriving up to `max_delay` late.
    pub fn new(max_delay: TimeDelta) -> Self {
        ReorderBuffer {
            max_delay,
            ..ReorderBuffer::default()
        }
    }

    /// The current watermark: events at or before it are final.
    pub fn watermark(&self) -> Option<Timestamp> {
        self.max_seen.map(|t| t - self.max_delay)
    }

    /// Offer one event; returns the events released (in order) by the
    /// advanced watermark. Events older than the watermark are dropped.
    pub fn push(&mut self, event: Event) -> Vec<Event> {
        let mut out = Vec::new();
        self.push_into(event, &mut out);
        out
    }

    /// Drain-style [`ReorderBuffer::push`]: appends released events to a
    /// caller-reused buffer and returns how many were appended — the
    /// steady-state ingestion path allocates nothing. The batch of one
    /// (see [`ReorderBuffer::push_batch_into`]).
    pub fn push_into(&mut self, event: Event, out: &mut Vec<Event>) -> usize {
        self.accept(event);
        self.release_into(out)
    }

    /// Offer a batch of events in arrival order, then release once:
    /// appends to `out` exactly what pushing them one by one through
    /// [`ReorderBuffer::push_into`] would have (the batch law of the
    /// module docs) and returns how many were appended.
    pub fn push_batch_into<I>(&mut self, events: I, out: &mut Vec<Event>) -> usize
    where
        I: IntoIterator<Item = Event>,
    {
        for event in events {
            self.accept(event);
        }
        self.release_into(out)
    }

    /// The arrival half of a push: drop the event if it is older than the
    /// watermark, else advance the clock and file it in its tier.
    fn accept(&mut self, event: Event) {
        let ts = event.ts;
        if self.watermark().is_some_and(|wm| ts < wm) {
            self.dropped += 1;
            return;
        }
        if self.max_seen.is_none_or(|m| ts > m) {
            self.max_seen = Some(ts);
        }
        let pending = Pending {
            event,
            seq: self.seq,
        };
        self.seq += 1;
        let len = self.run.len();
        if self.run.back().is_none_or(|tail| tail.event.ts <= ts) {
            self.run.push_back(pending);
        } else if len > SHIFT_LIMIT && self.run[len - 1 - SHIFT_LIMIT].event.ts > ts {
            // more than SHIFT_LIMIT entries are later: one probe, no scan
            self.heap.push(pending);
        } else {
            let later = self
                .run
                .iter()
                .rev()
                .take_while(|p| p.event.ts > ts)
                .count();
            self.run.insert(len - later, pending);
        }
    }

    /// Release everything at or before the watermark, in order.
    fn release_into(&mut self, out: &mut Vec<Event>) -> usize {
        match self.watermark() {
            Some(wm) => self.drain_through(wm, out),
            None => 0,
        }
    }

    /// Pop the pending events with timestamps `≤ limit` in `(ts, seq)`
    /// order — the two-way merge of the tiers every release goes through.
    fn drain_through(&mut self, limit: Timestamp, out: &mut Vec<Event>) -> usize {
        let before = out.len();
        loop {
            let heap_first = match (self.run.front(), self.heap.peek()) {
                (Some(run), Some(heap)) => heap > run,
                (None, Some(_)) => true,
                (_, None) => false,
            };
            let due = if heap_first {
                match self.heap.peek() {
                    Some(p) if p.event.ts <= limit => self.heap.pop(),
                    _ => None,
                }
            } else {
                match self.run.front() {
                    Some(p) if p.event.ts <= limit => self.run.pop_front(),
                    _ => None,
                }
            };
            match due {
                Some(p) => out.push(p.event),
                None => break,
            }
        }
        out.len() - before
    }

    /// Heartbeat: behave as if an event stamped `ts` had just been
    /// observed, without buffering one. The watermark advances to `ts −
    /// max_delay` (never backwards — a stale heartbeat is a no-op), the
    /// events it passes are released in order, and events up to
    /// `max_delay` behind `ts` are still accepted afterwards.
    ///
    /// A sharded service uses this to keep quiet partitions draining while
    /// busy ones carry the clock forward.
    pub fn heartbeat(&mut self, ts: Timestamp) -> Vec<Event> {
        let mut out = Vec::new();
        self.heartbeat_into(ts, &mut out);
        out
    }

    /// Drain-style [`ReorderBuffer::heartbeat`]; appends to `out` and
    /// returns the number of events released.
    pub fn heartbeat_into(&mut self, ts: Timestamp, out: &mut Vec<Event>) -> usize {
        if self.max_seen.is_none_or(|m| ts > m) {
            self.max_seen = Some(ts);
        }
        self.release_into(out)
    }

    /// Drain everything still buffered (end of stream), in order.
    pub fn flush(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.pending());
        self.flush_into(&mut out);
        out
    }

    /// Drain-style [`ReorderBuffer::flush`]; appends to `out` and returns
    /// the number of events drained.
    pub fn flush_into(&mut self, out: &mut Vec<Event>) -> usize {
        self.drain_through(Timestamp::from_millis(i64::MAX), out)
    }

    /// Pre-reserve capacity for at least `additional` more buffered
    /// events in **each** tier (an arrival order can send them all to
    /// either). Hosts with a zero-allocation steady-state contract (the
    /// sharded service) call this at construction so the buffer reaches
    /// its expected high-water capacity before measurement starts instead
    /// of growing lazily mid-ingest.
    pub fn reserve(&mut self, additional: usize) {
        self.run.reserve(additional);
        self.heap.reserve(additional);
    }

    /// How many events arrived too late and were dropped.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Events currently buffered.
    pub fn pending(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// Plain-data snapshot of the buffer's exact state. The pending
    /// events of both tiers are captured as `(event, seq)` pairs sorted
    /// by `(ts, seq)` — the release order — so equal buffers snapshot
    /// identically whatever tier their events sit in, and
    /// [`ReorderBuffer::restore`] rebuilds a buffer that releases
    /// identically.
    pub fn snapshot(&self) -> ReorderSnapshot {
        let mut pending: Vec<(Event, u64)> = self
            .run
            .iter()
            .chain(&self.heap)
            .map(|p| (p.event.clone(), p.seq))
            .collect();
        pending.sort_by(release_order);
        ReorderSnapshot {
            max_delay: self.max_delay,
            pending,
            max_seen: self.max_seen,
            seq: self.seq,
            dropped: self.dropped,
        }
    }

    /// Rebuild a buffer from a [`ReorderBuffer::snapshot`] — watermark,
    /// buffered events, arrival sequence and drop counter all resume
    /// exactly where the snapshot left them. The pending events load
    /// straight into the run.
    pub fn restore(snapshot: ReorderSnapshot) -> Self {
        let mut pending = snapshot.pending;
        // sorted already when `snapshot()` made it (one linear pass), but
        // the fields are public and checkpoints decode them from disk:
        // the run's order is re-established here, never assumed
        pending.sort_by(release_order);
        ReorderBuffer {
            max_delay: snapshot.max_delay,
            run: pending
                .into_iter()
                .map(|(event, seq)| Pending { event, seq })
                .collect(),
            heap: BinaryHeap::new(),
            max_seen: snapshot.max_seen,
            seq: snapshot.seq,
            dropped: snapshot.dropped,
        }
    }
}

/// `(ts, seq)` ascending: the order pending events are released in.
fn release_order(a: &(Event, u64), b: &(Event, u64)) -> std::cmp::Ordering {
    a.0.ts.cmp(&b.0.ts).then_with(|| a.1.cmp(&b.1))
}

/// The exact state of a [`ReorderBuffer`], as plain data (see
/// [`ReorderBuffer::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ReorderSnapshot {
    /// The bounded lateness.
    pub max_delay: TimeDelta,
    /// Buffered events with their arrival sequence numbers, sorted by
    /// `(ts, seq)` (release order).
    pub pending: Vec<(Event, u64)>,
    /// The maximum timestamp observed.
    pub max_seen: Option<Timestamp>,
    /// The next arrival sequence number.
    pub seq: u64,
    /// Events dropped as too late.
    pub dropped: u64,
}

/// The all-heap buffer [`ReorderBuffer`] replaced, kept verbatim as the
/// reference model: every pending event in one `BinaryHeap`, a release
/// after every push.
#[cfg(test)]
mod model {
    use super::*;

    #[derive(Debug, Default, Clone)]
    pub(super) struct HeapBuffer {
        max_delay: TimeDelta,
        heap: BinaryHeap<Pending>,
        max_seen: Option<Timestamp>,
        seq: u64,
        dropped: u64,
    }

    impl HeapBuffer {
        pub(super) fn new(max_delay: TimeDelta) -> Self {
            HeapBuffer {
                max_delay,
                ..HeapBuffer::default()
            }
        }

        pub(super) fn watermark(&self) -> Option<Timestamp> {
            self.max_seen.map(|t| t - self.max_delay)
        }

        pub(super) fn push_into(&mut self, event: Event, out: &mut Vec<Event>) -> usize {
            if let Some(wm) = self.watermark() {
                if event.ts < wm {
                    self.dropped += 1;
                    return self.release_into(out);
                }
            }
            self.max_seen = Some(match self.max_seen {
                Some(m) if m >= event.ts => m,
                _ => event.ts,
            });
            self.heap.push(Pending {
                event,
                seq: self.seq,
            });
            self.seq += 1;
            self.release_into(out)
        }

        fn release_into(&mut self, out: &mut Vec<Event>) -> usize {
            let Some(wm) = self.watermark() else {
                return 0;
            };
            let mut n = 0;
            while let Some(top) = self.heap.peek() {
                if top.event.ts <= wm {
                    out.push(self.heap.pop().expect("peeked").event);
                    n += 1;
                } else {
                    break;
                }
            }
            n
        }

        pub(super) fn heartbeat_into(&mut self, ts: Timestamp, out: &mut Vec<Event>) -> usize {
            if self.max_seen.is_none_or(|m| ts > m) {
                self.max_seen = Some(ts);
            }
            self.release_into(out)
        }

        pub(super) fn flush_into(&mut self, out: &mut Vec<Event>) -> usize {
            let n = self.heap.len();
            while let Some(p) = self.heap.pop() {
                out.push(p.event);
            }
            n
        }

        pub(super) fn dropped(&self) -> u64 {
            self.dropped
        }

        pub(super) fn pending(&self) -> usize {
            self.heap.len()
        }

        pub(super) fn snapshot(&self) -> ReorderSnapshot {
            let mut pending: Vec<(Event, u64)> =
                self.heap.iter().map(|p| (p.event.clone(), p.seq)).collect();
            pending.sort_by(|a, b| a.0.ts.cmp(&b.0.ts).then_with(|| a.1.cmp(&b.1)));
            ReorderSnapshot {
                max_delay: self.max_delay,
                pending,
                max_seen: self.max_seen,
                seq: self.seq,
                dropped: self.dropped,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::model::HeapBuffer;
    use super::*;
    use crate::event::EventType;
    use proptest::prelude::*;

    fn e(ty: u32, ms: i64) -> Event {
        Event::new(EventType(ty), Timestamp::from_millis(ms))
    }

    #[test]
    fn releases_once_watermark_passes() {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(10));
        assert!(buf.push(e(0, 100)).is_empty()); // watermark 90
        assert!(buf.push(e(1, 95)).is_empty()); // within delay, buffered
                                                // t=120 → watermark 110 → both release in order
        let out = buf.push(e(2, 120));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, Timestamp::from_millis(95));
        assert_eq!(out[1].ts, Timestamp::from_millis(100));
        assert_eq!(buf.pending(), 1);
        let rest = buf.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(buf.pending(), 0);
    }

    #[test]
    fn too_late_events_are_dropped() {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(5));
        buf.push(e(0, 100)); // watermark 95
        buf.push(e(1, 90)); // older than watermark → dropped
        assert_eq!(buf.dropped(), 1);
        let all: Vec<Event> = buf.flush();
        assert_eq!(all.len(), 1);
    }

    #[test]
    fn watermark_never_regresses() {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(10));
        buf.push(e(0, 100));
        buf.push(e(1, 50)); // late but does not pull watermark back
        assert_eq!(buf.watermark(), Some(Timestamp::from_millis(90)));
        buf.push(e(2, 95));
        assert_eq!(buf.watermark(), Some(Timestamp::from_millis(90)));
    }

    #[test]
    fn equal_timestamps_release_in_arrival_order() {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(1));
        buf.push(e(7, 10));
        buf.push(e(8, 10));
        let out = buf.push(e(9, 30));
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ty, EventType(7));
        assert_eq!(out[1].ty, EventType(8));
    }

    #[test]
    fn snapshot_round_trip_resumes_identically() {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(10));
        buf.push(e(0, 100));
        buf.push(e(1, 95));
        buf.push(e(2, 50)); // dropped
        let snap = buf.snapshot();
        assert_eq!(snap.pending.len(), 2);
        assert_eq!(snap.dropped, 1);
        let mut restored = ReorderBuffer::restore(snap.clone());
        assert_eq!(restored.snapshot(), snap);
        assert_eq!(restored.watermark(), buf.watermark());
        // both copies release identically from here on
        let a = buf.push(e(3, 120));
        let b = restored.push(e(3, 120));
        assert_eq!(a, b);
        assert_eq!(buf.flush(), restored.flush());
    }

    /// A buffer holding 100..=299 in the run and, displaced beyond
    /// `SHIFT_LIMIT`, 150 and 100 (a tie with the run's front) in the heap.
    fn two_tier_buffer() -> ReorderBuffer {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(1_000));
        let mut out = Vec::new();
        for ms in 100..300 {
            buf.push_into(e(0, ms), &mut out);
        }
        buf.push_into(e(1, 150), &mut out);
        buf.push_into(e(2, 100), &mut out);
        assert!(out.is_empty());
        assert_eq!((buf.run.len(), buf.heap.len()), (200, 2));
        buf
    }

    #[test]
    fn displacement_picks_the_tier_and_release_merges_them() {
        let mut buf = two_tier_buffer();
        // within the scan: shifted into the run, after its equal timestamp
        buf.push(e(3, 290));
        assert_eq!((buf.run.len(), buf.heap.len()), (201, 2));
        assert_eq!(buf.run[191].event.ty, EventType(3));
        // a short run is scanned to its front
        let mut short = ReorderBuffer::new(TimeDelta::from_millis(1_000));
        short.push(e(0, 50));
        short.push(e(1, 40));
        assert_eq!((short.run.len(), short.heap.len()), (2, 0));
        assert_eq!(short.run[0].event.ty, EventType(1));

        let out = buf.flush();
        assert_eq!(out.len(), 203);
        assert!(out.windows(2).all(|w| w[0].ts <= w[1].ts));
        // equal timestamps leave in arrival order, whatever their tier
        let tys = |ms| -> Vec<u32> {
            let at = out.iter().filter(|ev| ev.ts == Timestamp::from_millis(ms));
            at.map(|ev| ev.ty.0).collect()
        };
        assert_eq!(tys(100), [0, 2]);
        assert_eq!(tys(150), [0, 1]);
        assert_eq!(tys(290), [0, 3]);
    }

    #[test]
    fn two_tier_snapshot_restores_and_releases_identically() {
        let mut buf = two_tier_buffer();
        let snap = buf.snapshot();
        assert_eq!(snap.pending.len(), 202);
        assert!(snap
            .pending
            .windows(2)
            .all(|w| { (w[0].0.ts, w[0].1) < (w[1].0.ts, w[1].1) }));
        let mut restored = ReorderBuffer::restore(snap.clone());
        assert_eq!(restored.heap.len(), 0, "restore loads the run only");
        assert_eq!(restored.snapshot(), snap);
        let (mut a, mut b) = (Vec::new(), Vec::new());
        buf.heartbeat_into(Timestamp::from_millis(1_160), &mut a);
        restored.heartbeat_into(Timestamp::from_millis(1_160), &mut b);
        assert_eq!(a.len(), 63);
        assert_eq!(a, b);
        assert_eq!(buf.snapshot(), restored.snapshot());
        assert_eq!(buf.flush(), restored.flush());
    }

    #[test]
    fn restore_reorders_a_snapshot_that_was_not_sorted() {
        let mut snap = two_tier_buffer().snapshot();
        let sorted = snap.clone();
        snap.pending.reverse();
        assert_eq!(ReorderBuffer::restore(snap).snapshot(), sorted);
    }

    proptest! {
        /// Whatever the arrival order, released ∪ flushed is ordered, and
        /// with a delay larger than the maximum disturbance nothing drops.
        #[test]
        fn releases_are_ordered_and_lossless_with_big_delay(
            ms in proptest::collection::vec(0i64..500, 1..60),
        ) {
            let mut buf = ReorderBuffer::new(TimeDelta::from_millis(1000));
            let mut out = Vec::new();
            for (i, &m) in ms.iter().enumerate() {
                out.extend(buf.push(e(i as u32, m)));
            }
            out.extend(buf.flush());
            prop_assert_eq!(out.len(), ms.len());
            prop_assert_eq!(buf.dropped(), 0);
            for pair in out.windows(2) {
                prop_assert!(pair[0].ts <= pair[1].ts);
            }
        }

        /// Released events are always ordered, drops only ever shrink the
        /// output, and released + dropped accounts for every input.
        #[test]
        fn conservation_with_small_delay(
            ms in proptest::collection::vec(0i64..200, 1..60),
            delay in 1i64..50,
        ) {
            let mut buf = ReorderBuffer::new(TimeDelta::from_millis(delay));
            let mut out = Vec::new();
            for (i, &m) in ms.iter().enumerate() {
                out.extend(buf.push(e(i as u32, m)));
            }
            out.extend(buf.flush());
            prop_assert_eq!(out.len() as u64 + buf.dropped(), ms.len() as u64);
            for pair in out.windows(2) {
                prop_assert!(pair[0].ts <= pair[1].ts);
            }
        }
    }

    /// One scripted step against both buffers.
    struct Pair {
        new: ReorderBuffer,
        model: HeapBuffer,
        out_new: Vec<Event>,
        out_model: Vec<Event>,
        checked: usize,
    }

    impl Pair {
        /// Offer `batch` to the model one by one and to the new buffer in
        /// one call (`push_into` for a single event on odd steps).
        fn offer(&mut self, batch: &mut Vec<Event>, step: usize) {
            for event in batch.iter() {
                self.model.push_into(event.clone(), &mut self.out_model);
            }
            if batch.len() == 1 && step % 2 == 1 {
                let event = batch.pop().expect("one event");
                self.new.push_into(event, &mut self.out_new);
            } else {
                self.new.push_batch_into(batch.drain(..), &mut self.out_new);
            }
        }

        fn agree(&mut self) {
            assert_eq!(self.out_new[self.checked..], self.out_model[self.checked..]);
            self.checked = self.out_new.len();
            assert_eq!(self.out_model.len(), self.checked);
            assert_eq!(self.new.dropped(), self.model.dropped());
            assert_eq!(self.new.pending(), self.model.pending());
            assert_eq!(self.new.watermark(), self.model.watermark());
            assert_eq!(self.new.snapshot(), self.model.snapshot());
        }
    }

    proptest! {
        /// Model-based equivalence: a random interleaving of single
        /// pushes, batches (random splits of the arrival sequence),
        /// heartbeats (half of them stale), flushes and snapshot→restore
        /// round trips leaves the two-tier buffer and the all-heap model
        /// in the same observable state after every step. Timestamps tie
        /// heavily (the clock stalls a third of the time), lateness lands
        /// on both sides of `SHIFT_LIMIT` (pending ≈ `delay` entries), and
        /// some arrivals are beyond the delay.
        #[test]
        fn two_tier_buffer_matches_the_all_heap_model(
            script in proptest::collection::vec((0u8..32, 0i64..1_000, 0usize..48), 1..400),
            delay in 1i64..300,
        ) {
            let mut pair = Pair {
                new: ReorderBuffer::new(TimeDelta::from_millis(delay)),
                model: HeapBuffer::new(TimeDelta::from_millis(delay)),
                out_new: Vec::new(),
                out_model: Vec::new(),
                checked: 0,
            };
            let mut clock = 1_000i64;
            let mut batch: Vec<Event> = Vec::new();
            let mut batch_target = 1usize;
            for (step, &(kind, a, b)) in script.iter().enumerate() {
                if kind >= 3 {
                    clock += a % 3;
                    let late = match kind {
                        3..=19 => 0,
                        20..=25 => a % (delay / 4 + 1),
                        26..=29 => a % (delay + 1),
                        _ => delay + 1 + a % 50,
                    };
                    batch.push(e(step as u32, clock - late));
                    if batch.len() < batch_target {
                        continue;
                    }
                }
                // a control step cuts the open batch short
                pair.offer(&mut batch, step);
                pair.agree();
                match kind {
                    0 => {
                        let ts = Timestamp::from_millis(clock + a % 400 - 200);
                        pair.new.heartbeat_into(ts, &mut pair.out_new);
                        pair.model.heartbeat_into(ts, &mut pair.out_model);
                        clock = clock.max(ts.millis());
                    }
                    1 if a % 4 == 0 => {
                        pair.new.flush_into(&mut pair.out_new);
                        pair.model.flush_into(&mut pair.out_model);
                    }
                    1 => pair.new = ReorderBuffer::restore(pair.new.snapshot()),
                    2 => batch_target = b + 1,
                    _ => {}
                }
                pair.agree();
            }
            pair.offer(&mut batch, 0);
            pair.agree();
            pair.new.flush_into(&mut pair.out_new);
            pair.model.flush_into(&mut pair.out_model);
            pair.agree();
            prop_assert_eq!(pair.new.pending(), 0);
        }
    }
}
