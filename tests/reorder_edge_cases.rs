//! Edge cases of the ingestion substrate the sharded service stands on:
//! `ReorderBuffer` (bounded out-of-order handling, watermark discipline,
//! heartbeats) and `merge_streams` (deterministic k-way temporal merge).

use pattern_dp_repro::stream::{
    merge_streams, Event, EventStream, EventType, ReorderBuffer, TimeDelta, Timestamp,
};
use proptest::prelude::*;

fn e(ty: u32, ms: i64) -> Event {
    Event::new(EventType(ty), Timestamp::from_millis(ms))
}

// ---------------------------------------------------------------------------
// ReorderBuffer
// ---------------------------------------------------------------------------

#[test]
fn watermark_is_monotone_under_adversarial_timestamps() {
    // a hostile source alternates far-future and stale timestamps; the
    // watermark must only ever move forward
    let mut buf = ReorderBuffer::new(TimeDelta::from_millis(10));
    let mut last = None;
    for &ms in &[100i64, 5, 90, 500, 3, 499, 1_000, 0, 998, 64] {
        buf.push(e(0, ms));
        let wm = buf.watermark().expect("watermark set after first event");
        if let Some(prev) = last {
            assert!(wm >= prev, "watermark regressed: {prev:?} -> {wm:?}");
        }
        last = Some(wm);
    }
    assert_eq!(last, Some(Timestamp::from_millis(990)));
}

#[test]
fn late_event_drop_counting_is_exact() {
    let mut buf = ReorderBuffer::new(TimeDelta::from_millis(5));
    let mut released = Vec::new();
    released.extend(buf.push(e(0, 100))); // watermark 95
    released.extend(buf.push(e(1, 94))); // late → dropped
    released.extend(buf.push(e(2, 95))); // exactly at the watermark → kept
    released.extend(buf.push(e(3, 10))); // ancient → dropped
    assert_eq!(buf.dropped(), 2);
    released.extend(buf.flush());
    released.sort_by_key(|ev| ev.ts);
    assert_eq!(released.len(), 2);
    assert_eq!(released[0].ty, EventType(2));
    assert_eq!(released[1].ty, EventType(0));
    // dropped events never resurface on flush
    assert!(released.iter().all(|ev| ev.ty != EventType(1)));
}

#[test]
fn flush_after_watermark_regression_attempts() {
    let mut buf = ReorderBuffer::new(TimeDelta::from_millis(20));
    buf.push(e(0, 100));
    buf.push(e(1, 85)); // within delay, buffered
                        // regression attempts: stale events and a stale heartbeat
    buf.push(e(2, 79)); // < watermark 80 → dropped
    assert!(buf.heartbeat(Timestamp::from_millis(1)).is_empty());
    assert_eq!(
        buf.watermark(),
        Some(Timestamp::from_millis(80)),
        "heartbeat must not pull the watermark back"
    );
    // flush still drains everything buffered, in temporal order
    let rest = buf.flush();
    assert_eq!(rest.len(), 2);
    assert_eq!(rest[0].ts, Timestamp::from_millis(85));
    assert_eq!(rest[1].ts, Timestamp::from_millis(100));
    assert_eq!(buf.pending(), 0);
    assert_eq!(buf.dropped(), 1);
}

#[test]
fn heartbeat_releases_without_an_event() {
    let mut buf = ReorderBuffer::new(TimeDelta::from_millis(10));
    buf.push(e(0, 50));
    buf.push(e(1, 55));
    assert_eq!(buf.pending(), 2);
    // the source promises nothing older than t=70 → watermark 60
    let released = buf.heartbeat(Timestamp::from_millis(70));
    assert_eq!(released.len(), 2);
    assert_eq!(released[0].ts, Timestamp::from_millis(50));
    assert_eq!(released[1].ts, Timestamp::from_millis(55));
    assert_eq!(buf.pending(), 0);
    // heartbeats count no drops and accept later events at the frontier
    assert_eq!(buf.dropped(), 0);
    assert!(
        buf.push(e(2, 60)).len() == 1,
        "event at the watermark passes"
    );
}

#[test]
fn equal_timestamps_keep_arrival_order_through_stress() {
    // many ties across interleaved pushes: releases must be stable
    let mut buf = ReorderBuffer::new(TimeDelta::from_millis(1));
    for i in 0..20u32 {
        buf.push(e(i, 10));
    }
    let out = buf.push(e(99, 30));
    assert_eq!(out.len(), 20);
    for (i, ev) in out.iter().enumerate() {
        assert_eq!(ev.ty, EventType(i as u32), "tie order broken at {i}");
    }
}

proptest! {
    /// Watermark monotonicity as a law: any arrival sequence, any delay.
    #[test]
    fn watermark_never_regresses_prop(
        ms in proptest::collection::vec(0i64..1_000, 1..80),
        delay in 0i64..100,
    ) {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(delay));
        let mut last: Option<Timestamp> = None;
        for (i, &m) in ms.iter().enumerate() {
            buf.push(e(i as u32, m));
            let wm = buf.watermark();
            if let (Some(prev), Some(now)) = (last, wm) {
                prop_assert!(now >= prev);
            }
            last = wm;
        }
    }

    /// Conservation with heartbeats in the mix: released + dropped +
    /// still-buffered accounts for every pushed event, and heartbeats
    /// never lose or duplicate anything.
    #[test]
    fn conservation_with_heartbeats(
        ms in proptest::collection::vec(0i64..300, 1..60),
        delay in 1i64..40,
        beat_every in 1usize..8,
    ) {
        let mut buf = ReorderBuffer::new(TimeDelta::from_millis(delay));
        let mut released = Vec::new();
        for (i, &m) in ms.iter().enumerate() {
            released.extend(buf.push(e(i as u32, m)));
            if i % beat_every == 0 {
                released.extend(buf.heartbeat(Timestamp::from_millis(m)));
            }
        }
        released.extend(buf.flush());
        prop_assert_eq!(released.len() as u64 + buf.dropped(), ms.len() as u64);
        for pair in released.windows(2) {
            prop_assert!(pair[0].ts <= pair[1].ts, "release order broken");
        }
    }

    /// The batch law: any split of an arrival sequence into
    /// `push_batch_into` calls releases exactly what pushing the events
    /// one by one does, and leaves the buffer in the same state — late
    /// drops, ties and displacements of hundreds of slots included.
    #[test]
    fn any_batch_split_equals_per_event_pushes(
        arrivals in proptest::collection::vec((0i64..4, 0i64..400, 0u8..8), 1..500),
        cuts in proptest::collection::vec(1usize..120, 1..40),
        delay in 1i64..250,
    ) {
        let mut clock = 0;
        let events: Vec<Event> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(step, back, kind))| {
                clock += step;
                // mostly in order; a quarter late by up to 400 ms (beyond
                // the delay → dropped, within it → displaced)
                e(i as u32, if kind < 6 { clock } else { clock - back })
            })
            .collect();

        let mut single = ReorderBuffer::new(TimeDelta::from_millis(delay));
        let mut one_by_one = Vec::new();
        for event in events.iter().cloned() {
            single.push_into(event, &mut one_by_one);
        }

        let mut batched = ReorderBuffer::new(TimeDelta::from_millis(delay));
        let mut in_batches = Vec::new();
        let mut rest = events.as_slice();
        for &cut in cuts.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (batch, tail) = rest.split_at(cut.min(rest.len()));
            let before = in_batches.len();
            let n = batched.push_batch_into(batch.iter().cloned(), &mut in_batches);
            prop_assert_eq!(n, in_batches.len() - before);
            rest = tail;
        }

        prop_assert_eq!(&in_batches, &one_by_one);
        prop_assert_eq!(batched.snapshot(), single.snapshot());
        prop_assert_eq!(batched.watermark(), single.watermark());
        prop_assert_eq!(batched.flush(), single.flush());
    }
}

// ---------------------------------------------------------------------------
// merge_streams
// ---------------------------------------------------------------------------

fn stream(pairs: &[(u32, i64)]) -> EventStream {
    EventStream::from_ordered(pairs.iter().map(|&(ty, ms)| e(ty, ms)).collect()).unwrap()
}

#[test]
fn merge_is_stable_for_equal_timestamps_across_many_sources() {
    // five sources, all events at the same instant: output must follow
    // source order exactly, and be identical on every call
    let streams: Vec<EventStream> = (0..5).map(|k| stream(&[(k, 7), (k, 7)])).collect();
    let merged = merge_streams(streams.clone());
    let tys: Vec<u32> = merged.iter().map(|ev| ev.ty.0).collect();
    assert_eq!(tys, [0, 0, 1, 1, 2, 2, 3, 3, 4, 4]);
    assert_eq!(
        merge_streams(streams),
        merged,
        "merge must be deterministic"
    );
}

#[test]
fn merge_with_empty_and_unbalanced_sources() {
    let a = stream(&[(0, 1), (0, 2), (0, 3), (0, 4)]);
    let b = EventStream::new();
    let c = stream(&[(2, 3)]);
    let merged = merge_streams(vec![a, b, c]);
    let ts: Vec<i64> = merged.iter().map(|ev| ev.ts.millis()).collect();
    assert_eq!(ts, [1, 2, 3, 3, 4]);
    // the tie at t=3 goes to the earlier source
    assert_eq!(merged.events()[2].ty, EventType(0));
    assert_eq!(merged.events()[3].ty, EventType(2));
}

proptest! {
    /// Stability law: merging single-source inputs reproduces the source;
    /// merging with an empty stream is the identity.
    #[test]
    fn merge_identity_laws(
        ms in proptest::collection::vec(0i64..500, 0..50),
    ) {
        let s = EventStream::from_unordered(
            ms.iter().enumerate().map(|(i, &m)| e(i as u32, m)).collect(),
        );
        prop_assert_eq!(&merge_streams(vec![s.clone()]), &s);
        prop_assert_eq!(&merge_streams(vec![s.clone(), EventStream::new()]), &s);
        prop_assert_eq!(&merge_streams(vec![EventStream::new(), s.clone()]), &s);
    }

    /// Reorder-then-merge agrees with merge-then-reorder: pushing two
    /// jittered streams through buffers and merging the outputs yields the
    /// same multiset as sorting the union (no event invented or lost when
    /// the delay covers the jitter).
    #[test]
    fn buffers_compose_with_merge(
        a in proptest::collection::vec(0i64..200, 1..40),
        b in proptest::collection::vec(0i64..200, 1..40),
    ) {
        let drain = |ms: &[i64], ty: u32| {
            let mut buf = ReorderBuffer::new(TimeDelta::from_millis(1_000));
            let mut out = Vec::new();
            for &m in ms {
                out.extend(buf.push(e(ty, m)));
            }
            out.extend(buf.flush());
            EventStream::from_ordered(out).expect("buffer output is ordered")
        };
        let merged = merge_streams(vec![drain(&a, 0), drain(&b, 1)]);
        prop_assert_eq!(merged.len(), a.len() + b.len());
        let mut expected: Vec<i64> =
            a.iter().chain(b.iter()).copied().collect();
        expected.sort_unstable();
        let got: Vec<i64> = merged.iter().map(|ev| ev.ts.millis()).collect();
        prop_assert_eq!(got, expected);
    }
}
